//! Receiver-side agents: the per-subframe state machine that annotates ACKs.
//!
//! The end-to-end simulator models the receiver of every flow as a
//! [`ReceiverAgent`]: a state machine that observes each subframe's control
//! channel, follows carrier (de)activations, and may attach feedback to the
//! acknowledgement of every delivered packet.  A scheme without a
//! registered receiver — every baseline — has no agent at all, so the
//! simulator spends nothing on its receivers; PBE-CC plugs in
//! [`PbeReceiverAgent`] — the decoder → fusion → client pipeline of the
//! paper's Fig. 10a — through this interface, so the simulator contains no
//! PBE-specific wiring.
//!
//! Per subframe, a PBE agent's decoders take their cells' on-air decodes
//! from the [`DciBatch`] (which decodes each cell once for every agent that
//! listens to it) and apply their own misses, noise and plausibility filter;
//! the client folds the gathered subframe into its monitor and nothing
//! more.  Eqns. 1–5 run when a packet's ACK reads the estimate
//! ([`PbeClient::on_packet`]), so subframes that no packet reads cost no
//! estimate.
//!
//! The trait lives here (not in `pbe-netsim`) because the agent vocabulary —
//! DCI messages, carrier events, PBE feedback — is defined below the
//! simulator in the crate graph; `pbe-netsim` re-exports these types as part
//! of its public API.

use crate::client::PbeClient;
use pbe_cc_algorithms::api::PbeFeedback;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::config::{CellId, Rnti};
use pbe_cellular::handover::HandoverEvent;
use pbe_pdcch::batch::DciBatch;
use pbe_pdcch::decoder::{ControlChannelDecoder, DecoderConfig};
use pbe_pdcch::fusion::FusedSubframe;
use pbe_stats::time::Instant;
use pbe_stats::DetRng;

/// A receiver-side, per-flow state machine that annotates acknowledgements.
///
/// All methods have no-op defaults so simple agents only implement what they
/// observe.  A scheme that registers no receiver factory has no agent: the
/// simulator calls none of these for its flows, and their ACKs carry no
/// feedback.
pub trait ReceiverAgent: Send {
    /// A carrier was activated or deactivated for this flow's UE.
    /// `total_prbs` is the PRB count of the affected cell.
    fn on_carrier_event(&mut self, _event: &CaEvent, _total_prbs: u16) {}

    /// The UE's serving cell changed.  `target_total_prbs` is the PRB count
    /// of the new serving cell; `reacquisition_gap_subframes` is how long
    /// the receiver's radio needs to re-synchronise onto the target cell's
    /// control channel before it can decode again.
    fn on_handover(
        &mut self,
        _event: &HandoverEvent,
        _target_total_prbs: u16,
        _reacquisition_gap_subframes: u64,
    ) {
    }

    /// One subframe elapsed; `batch` carries everything transmitted on the
    /// PDCCHs of the network this subframe, grouped by cell so a multi-cell
    /// agent can hand each per-cell decoder only its own messages.
    fn on_subframe(&mut self, _batch: &DciBatch<'_>) {}

    /// The sender's current smoothed RTT, for sizing averaging windows.
    fn set_rtprop_ms(&mut self, _rtprop_ms: f64) {}

    /// The control channel became undecodable (deep fade, interference
    /// burst) until `until_subframe` (exclusive).  Agents with decoder state
    /// should treat the gap like a re-acquisition window — hold estimates
    /// rather than read silence as an idle cell.  No-op by default.
    fn on_decode_loss(&mut self, _until_subframe: u64) {}

    /// A data packet arrived at the receiver; the returned feedback (if any)
    /// is piggybacked on its acknowledgement.
    fn on_packet(&mut self, _at: Instant, _one_way_delay_ms: f64) -> Option<PbeFeedback> {
        None
    }
}

/// Construction context handed to a [`ReceiverFactory`].
#[derive(Debug, Clone)]
pub struct ReceiverCtx {
    /// The flow id (used to derive per-flow random streams).
    pub flow: u32,
    /// The RNTI of the flow's UE.
    pub rnti: Rnti,
    /// Initially active cells and their total PRB counts (primary first).
    pub cells: Vec<(CellId, u16)>,
    /// Deterministic random stream for receiver-side impairments (decoder
    /// misses etc.); already split for the receiver subsystem.
    pub rng: DetRng,
}

/// Factory building one receiver agent for one flow.
pub type ReceiverFactory = Box<dyn Fn(&ReceiverCtx) -> Box<dyn ReceiverAgent> + Send + Sync>;

/// PBE-CC's receiver pipeline: per-cell blind decoders, message fusion and
/// the mobile client.
///
/// Fusion is a gather in place.  Every decoder is driven for the same
/// subframe in one [`ReceiverAgent::on_subframe`] call and all of them share
/// one blindness window, so a subframe is complete as soon as the last
/// decoder has run: each decodes into its cell's reused buffer in `fused`,
/// and the client ingests that one subframe unless the receiver is blind.
pub struct PbeReceiverAgent {
    /// One decoder per watched cell, index-aligned with `fused.per_cell`.
    decoders: Vec<ControlChannelDecoder>,
    /// The current subframe's decoded messages, one entry per decoder in
    /// ascending cell order: the one list of the cells being decoded.
    fused: FusedSubframe,
    client: PbeClient,
    /// The subframe (exclusive) until which every decoder is blind: the end
    /// of the latest-ending re-acquisition gap or decode-loss burst.
    blind_until: u64,
    flow: u32,
    rng: DetRng,
}

impl PbeReceiverAgent {
    /// Build the pipeline for a flow.
    pub fn new(ctx: &ReceiverCtx) -> Self {
        let mut agent = PbeReceiverAgent {
            decoders: Vec::with_capacity(ctx.cells.len()),
            fused: FusedSubframe {
                subframe: 0,
                per_cell: Vec::with_capacity(ctx.cells.len()),
            },
            client: PbeClient::new(ctx.rnti, ctx.cells.clone()),
            blind_until: 0,
            flow: ctx.flow,
            rng: ctx.rng.clone(),
        };
        // A cell listed twice keeps its last entry's decoder.
        for &(cell, total_prbs) in &ctx.cells {
            let decoder = Self::decoder(cell, total_prbs, ctx.flow, &ctx.rng);
            match agent.slot(cell) {
                Ok(at) => agent.decoders[at] = decoder,
                Err(at) => agent.insert(at, cell, decoder),
            }
        }
        agent
    }

    /// The factory the scheme table registers under "PBE".
    pub fn factory() -> ReceiverFactory {
        Box::new(|ctx| Box::new(PbeReceiverAgent::new(ctx)))
    }

    /// The mobile client (for observers that want its estimates).
    pub fn client(&self) -> &PbeClient {
        &self.client
    }

    /// Where `cell` is (`Ok`) or would go (`Err`) in the cell-ordered lists.
    fn slot(&self, cell: CellId) -> Result<usize, usize> {
        self.fused.per_cell.binary_search_by_key(&cell, |(c, _)| *c)
    }

    /// Start decoding `cell` at `at` in both aligned lists.
    fn insert(&mut self, at: usize, cell: CellId, decoder: ControlChannelDecoder) {
        self.decoders.insert(at, decoder);
        self.fused.per_cell.insert(at, (cell, Vec::new()));
    }

    fn decoder(cell: CellId, total_prbs: u16, flow: u32, rng: &DetRng) -> ControlChannelDecoder {
        ControlChannelDecoder::new(
            cell,
            DecoderConfig {
                total_prbs,
                ..DecoderConfig::default()
            },
            rng.split_indexed("cell", u64::from(cell.0) << 16 | u64::from(flow)),
        )
    }
}

impl ReceiverAgent for PbeReceiverAgent {
    fn on_carrier_event(&mut self, event: &CaEvent, total_prbs: u16) {
        let slot = self.slot(event.cell);
        if event.activated {
            if let Err(at) = slot {
                // A decoder started while the others are blind is blind
                // too: every decoder shares the one window.
                let mut decoder = Self::decoder(event.cell, total_prbs, self.flow, &self.rng);
                decoder.set_resync_until(self.blind_until);
                self.insert(at, event.cell, decoder);
            }
            self.client.add_cell(event.cell, total_prbs);
        } else {
            if let Ok(at) = slot {
                self.decoders.remove(at);
                self.fused.per_cell.remove(at);
            }
            self.client.remove_cell(event.cell);
        }
    }

    fn on_handover(
        &mut self,
        event: &HandoverEvent,
        target_total_prbs: u16,
        reacquisition_gap_subframes: u64,
    ) {
        // One decoder, freshly re-tuning onto the target cell: everything
        // transmitted during the re-acquisition gap is invisible.  A gap
        // inside a longer decode-loss burst does not end the burst early.
        self.blind_until = self
            .blind_until
            .max(event.at.subframe_index() + reacquisition_gap_subframes);
        let mut decoder = Self::decoder(event.to, target_total_prbs, self.flow, &self.rng);
        decoder.set_resync_until(self.blind_until);
        self.decoders.clear();
        self.fused.per_cell.clear();
        self.insert(0, event.to, decoder);
        // A re-targeted monitor whose estimates are held until the new
        // cell's window carries real data.
        self.client.on_handover(event.to, target_total_prbs);
    }

    fn on_subframe(&mut self, batch: &DciBatch<'_>) {
        let subframe = batch.subframe();
        self.fused.subframe = subframe;
        debug_assert!(self
            .decoders
            .iter()
            .map(ControlChannelDecoder::cell)
            .eq(self.fused.per_cell.iter().map(|(cell, _)| *cell)));
        for (decoder, (_, decoded)) in self.decoders.iter_mut().zip(&mut self.fused.per_cell) {
            // The batch decodes each cell on air once for all receivers;
            // this decoder adds its own misses, noise and filter.
            decoded.clear();
            decoder.decode_batch(batch, decoded);
        }
        // Feed nothing to the client during a re-acquisition gap or
        // decode-loss burst: a blind decoder's "empty subframe" is absence
        // of telemetry, not evidence of an idle cell, and must not enter the
        // monitor's averaging window.
        if subframe >= self.blind_until {
            self.client.on_subframe(&self.fused);
        }
    }

    fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
        self.client.set_rtprop_ms(rtprop_ms);
    }

    fn on_decode_loss(&mut self, until_subframe: u64) {
        // Reuse the re-acquisition machinery: every decoder goes silent
        // until the burst ends, the client ingests nothing meanwhile, and
        // rides the gap on its held estimate (the same path a handover gap
        // exercises).  A burst inside a longer gap does not shorten it.
        self.blind_until = self.blind_until.max(until_subframe);
        for decoder in &mut self.decoders {
            decoder.set_resync_until(self.blind_until);
        }
        self.client.hold_estimates();
    }

    fn on_packet(&mut self, at: Instant, one_way_delay_ms: f64) -> Option<PbeFeedback> {
        Some(self.client.on_packet(at, one_way_delay_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::dci::{DciFormat, DciMessage};
    use pbe_cellular::mcs::McsIndex;
    use pbe_pdcch::batch::DciBatcher;
    use pbe_pdcch::fusion::MessageFusion;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The cells the agent decodes, in decoder order.
    fn decoded_cells(agent: &PbeReceiverAgent) -> Vec<CellId> {
        agent.fused.per_cell.iter().map(|(cell, _)| *cell).collect()
    }

    fn feed(agent: &mut impl ReceiverAgent, subframe: u64, messages: &[DciMessage]) {
        let mut batcher = DciBatcher::new();
        agent.on_subframe(&batcher.batch(subframe, messages));
    }

    fn ctx() -> ReceiverCtx {
        ReceiverCtx {
            flow: 1,
            rnti: Rnti(0x0100),
            cells: vec![(CellId(0), 100)],
            rng: DetRng::new(7).split("decoders"),
        }
    }

    fn dci(cell: CellId, rnti: Rnti, prbs: u16, subframe: u64) -> DciMessage {
        DciMessage {
            cell,
            subframe,
            rnti,
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: prbs,
            mcs: McsIndex(20),
            spatial_streams: 2,
            new_data_indicator: true,
            harq_process: 0,
            tbs_bits: u32::from(prbs) * 1200,
        }
    }

    #[test]
    fn pbe_agent_produces_capacity_feedback() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        for sf in 0..60u64 {
            feed(&mut agent, sf, &[dci(CellId(0), Rnti(0x0100), 40, sf)]);
        }
        let fb = agent
            .on_packet(Instant::from_millis(60), 21.0)
            .expect("PBE annotates every ACK");
        assert!(fb.capacity_bps() > 1e6, "capacity {}", fb.capacity_bps());
        assert!(!fb.internet_bottleneck);
    }

    #[test]
    fn handover_swaps_the_pipeline_and_rides_through_the_gap() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        for sf in 0..60u64 {
            feed(&mut agent, sf, &[dci(CellId(0), Rnti(0x0100), 40, sf)]);
        }
        let before = agent
            .on_packet(Instant::from_millis(60), 21.0)
            .expect("feedback")
            .capacity_bps();
        let event = HandoverEvent {
            ue: pbe_cellular::config::UeId(1),
            from: CellId(0),
            to: CellId(1),
            at: Instant::from_millis(61),
        };
        agent.on_handover(&event, 50, 40);
        assert_eq!(decoded_cells(&agent), vec![CellId(1)]);
        assert_eq!(agent.decoders.len(), 1);
        assert_eq!(agent.client().monitor().cells(), vec![CellId(1)]);
        // During the re-acquisition gap (subframes 61..101) the monitor sees
        // nothing and feedback rides on the pre-handover estimate.
        for sf in 61..101u64 {
            feed(&mut agent, sf, &[dci(CellId(1), Rnti(0x0100), 40, sf)]);
        }
        let during = agent
            .on_packet(Instant::from_millis(100), 21.0)
            .expect("feedback")
            .capacity_bps();
        assert!(agent.client().is_holding_estimates());
        assert!(
            (during - before).abs() / before < 1e-9,
            "estimate held through the gap: {before} vs {during}"
        );
        // After the gap the new cell's grants flow again and the estimate
        // re-converges (40 of 50 PRBs to us, rest idle => full small cell).
        for sf in 101..160u64 {
            feed(&mut agent, sf, &[dci(CellId(1), Rnti(0x0100), 40, sf)]);
        }
        assert!(!agent.client().is_holding_estimates());
        let after = agent
            .on_packet(Instant::from_millis(160), 21.0)
            .expect("feedback")
            .capacity_bps();
        // The 50-PRB target cell carries roughly half the 100-PRB source's
        // capacity: the estimate moved to the new cell's reality instead of
        // spiking to something unrelated.
        assert!(after < 0.7 * before, "after {after} vs before {before}");
        assert!(after > 20e6, "after {after}");
    }

    #[test]
    fn decode_loss_rides_through_on_the_held_estimate() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        for sf in 0..60u64 {
            feed(&mut agent, sf, &[dci(CellId(0), Rnti(0x0100), 40, sf)]);
        }
        let before = agent
            .on_packet(Instant::from_millis(60), 21.0)
            .expect("feedback")
            .capacity_bps();
        // A 40-subframe decode-loss burst: the decoder sees nothing even
        // though the cell keeps transmitting.
        agent.on_decode_loss(100);
        for sf in 60..100u64 {
            feed(&mut agent, sf, &[dci(CellId(0), Rnti(0x0100), 40, sf)]);
        }
        let during = agent
            .on_packet(Instant::from_millis(99), 21.0)
            .expect("feedback")
            .capacity_bps();
        assert!(agent.client().is_holding_estimates());
        assert!(
            (during - before).abs() / before < 1e-9,
            "estimate held through the burst: {before} vs {during}"
        );
        // Decoding resumes and the estimate becomes live again.
        for sf in 100..160u64 {
            feed(&mut agent, sf, &[dci(CellId(0), Rnti(0x0100), 40, sf)]);
        }
        assert!(!agent.client().is_holding_estimates());
        let after = agent
            .on_packet(Instant::from_millis(160), 21.0)
            .expect("feedback")
            .capacity_bps();
        assert!(after > 1e6);
    }

    #[test]
    fn carrier_events_resize_the_decoder_set() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        let activate = CaEvent {
            ue: pbe_cellular::config::UeId(1),
            cell: CellId(1),
            activated: true,
            at: Instant::from_millis(10),
        };
        agent.on_carrier_event(&activate, 50);
        assert_eq!(agent.decoders.len(), 2);
        assert_eq!(agent.client().monitor().cells(), vec![CellId(0), CellId(1)]);
        let deactivate = CaEvent {
            activated: false,
            at: Instant::from_millis(20),
            ..activate
        };
        agent.on_carrier_event(&deactivate, 50);
        assert_eq!(agent.decoders.len(), 1);
    }

    /// A carrier activated while the receiver is blind joins the blindness:
    /// its fresh decoder must not hand the client subframes the older
    /// decoders skip.  The client's first subframe is exactly the one at
    /// `blind_until`, and from then on it tracks the new cell too.
    #[test]
    fn carrier_activated_while_blind_does_not_stall_fusion() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        let grants = |sf| {
            [
                dci(CellId(0), Rnti(0x0100), 40, sf),
                dci(CellId(1), Rnti(0x0100), 30, sf),
            ]
        };
        agent.on_decode_loss(200);
        for sf in 0..1000u64 {
            if sf == 150 {
                let activate = CaEvent {
                    ue: pbe_cellular::config::UeId(1),
                    cell: CellId(1),
                    activated: true,
                    at: Instant::from_millis(sf),
                };
                agent.on_carrier_event(&activate, 50);
            }
            feed(&mut agent, sf, &grants(sf));
            let monitor = agent.client().monitor();
            let expected = if sf < 200 { 0 } else { 1 };
            if sf <= 200 {
                assert_eq!(monitor.window_len(CellId(0)), expected, "subframe {sf}");
                assert_eq!(monitor.window_len(CellId(1)), expected, "subframe {sf}");
            }
        }
        assert!(!agent.client().is_holding_estimates());
        assert_eq!(agent.client().monitor().cells(), vec![CellId(0), CellId(1)]);
        assert!(agent.client().monitor().window_len(CellId(1)) > 0);
    }

    fn handover_to(cell: CellId, at_ms: u64) -> HandoverEvent {
        HandoverEvent {
            ue: pbe_cellular::config::UeId(1),
            from: CellId(0),
            to: cell,
            at: Instant::from_millis(at_ms),
        }
    }

    /// The subframe from which the client ingests again, found by feeding
    /// `agent` one grant per subframe from `from` on.
    fn first_ingested_subframe(agent: &mut PbeReceiverAgent, cell: CellId, from: u64) -> u64 {
        for sf in from..from + 1_000 {
            feed(agent, sf, &[dci(cell, Rnti(0x0100), 40, sf)]);
            if agent.client().monitor().window_len(cell) > 0 {
                return sf;
            }
        }
        panic!("the receiver never saw again");
    }

    /// A handover inside a decode-loss burst does not end the burst at the
    /// end of its (shorter) re-acquisition gap.
    #[test]
    fn handover_inside_a_decode_loss_burst_keeps_the_burst() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        agent.on_decode_loss(300);
        agent.on_handover(&handover_to(CellId(1), 100), 50, 40);
        assert_eq!(agent.blind_until, 300);
        assert_eq!(first_ingested_subframe(&mut agent, CellId(1), 100), 300);
    }

    /// A short decode-loss burst inside a re-acquisition gap does not cut
    /// the gap short.
    #[test]
    fn decode_loss_inside_a_reacquisition_gap_keeps_the_gap() {
        let mut agent = PbeReceiverAgent::new(&ctx());
        agent.on_handover(&handover_to(CellId(1), 100), 50, 40);
        agent.on_decode_loss(110);
        assert_eq!(agent.blind_until, 140);
        assert_eq!(first_ingested_subframe(&mut agent, CellId(1), 100), 140);
    }

    /// The receiver as it was before the in-place gather: every decoder's
    /// output goes through a [`MessageFusion`] stage and the client ingests
    /// whatever subframes it completes.  It keeps its own decoders, keyed by
    /// cell, its own blindness and its own client, so a wrong decoder set
    /// or a decoder paired with the wrong cell in the agent shows up as a
    /// different estimate.
    struct FusionReference {
        decoders: BTreeMap<CellId, ControlChannelDecoder>,
        fusion: MessageFusion,
        ready: Vec<FusedSubframe>,
        client: PbeClient,
        blind_until: u64,
        ctx: ReceiverCtx,
    }

    impl FusionReference {
        fn new(ctx: &ReceiverCtx) -> Self {
            // A cell listed twice keeps its last entry's decoder.
            let decoders: BTreeMap<CellId, ControlChannelDecoder> = ctx
                .cells
                .iter()
                .map(|&(cell, prbs)| (cell, reference_decoder(ctx, cell, prbs, 0)))
                .collect();
            FusionReference {
                fusion: MessageFusion::new(decoders.keys().copied().collect()),
                decoders,
                ready: Vec::new(),
                client: PbeClient::new(ctx.rnti, ctx.cells.clone()),
                blind_until: 0,
                ctx: ctx.clone(),
            }
        }

        fn decoder(&self, cell: CellId, total_prbs: u16) -> ControlChannelDecoder {
            reference_decoder(&self.ctx, cell, total_prbs, self.blind_until)
        }
    }

    /// A decoder of `cell` on the flow's per-cell random stream, blind until
    /// `blind_until`.
    fn reference_decoder(
        ctx: &ReceiverCtx,
        cell: CellId,
        total_prbs: u16,
        blind_until: u64,
    ) -> ControlChannelDecoder {
        let config = DecoderConfig {
            total_prbs,
            ..DecoderConfig::default()
        };
        let stream = u64::from(cell.0) << 16 | u64::from(ctx.flow);
        let mut decoder =
            ControlChannelDecoder::new(cell, config, ctx.rng.split_indexed("cell", stream));
        decoder.set_resync_until(blind_until);
        decoder
    }

    impl ReceiverAgent for FusionReference {
        fn on_carrier_event(&mut self, event: &CaEvent, total_prbs: u16) {
            if event.activated {
                if !self.decoders.contains_key(&event.cell) {
                    let decoder = self.decoder(event.cell, total_prbs);
                    self.decoders.insert(event.cell, decoder);
                }
                self.client.add_cell(event.cell, total_prbs);
            } else {
                self.decoders.remove(&event.cell);
                self.client.remove_cell(event.cell);
            }
            self.fusion
                .set_watched_cells(self.decoders.keys().copied().collect());
        }

        fn on_handover(&mut self, event: &HandoverEvent, prbs: u16, gap: u64) {
            self.blind_until = self.blind_until.max(event.at.subframe_index() + gap);
            let decoder = self.decoder(event.to, prbs);
            self.decoders = BTreeMap::from([(event.to, decoder)]);
            self.fusion = MessageFusion::new(vec![event.to]);
            self.client.on_handover(event.to, prbs);
        }

        fn on_subframe(&mut self, batch: &DciBatch<'_>) {
            let subframe = batch.subframe();
            for (&cell, decoder) in &mut self.decoders {
                let messages = batch.cell_messages(cell);
                if decoder.is_resynchronising(subframe) {
                    decoder.decode_subframe(subframe, messages);
                    continue;
                }
                let decoded = decoder.decode_subframe(subframe, messages);
                self.ready
                    .extend(self.fusion.ingest(cell, subframe, decoded));
            }
            for fused in self.ready.drain(..) {
                self.client.on_subframe(&fused);
            }
        }

        fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
            self.client.set_rtprop_ms(rtprop_ms);
        }

        fn on_decode_loss(&mut self, until_subframe: u64) {
            self.blind_until = self.blind_until.max(until_subframe);
            for decoder in self.decoders.values_mut() {
                decoder.set_resync_until(self.blind_until);
            }
            self.client.hold_estimates();
        }

        fn on_packet(&mut self, at: Instant, one_way_delay_ms: f64) -> Option<PbeFeedback> {
            Some(self.client.on_packet(at, one_way_delay_ms))
        }
    }

    /// One subframe of random traffic on cells 0–2, cell by cell as the
    /// network emits it: our grants and competitors', new data and
    /// retransmissions, and now and then a grant too large for the cell.
    fn random_stream(rng: &mut DetRng, subframe: u64, out: &mut Vec<DciMessage>) {
        const RNTIS: [Rnti; 4] = [Rnti(0x0100), Rnti(0x0200), Rnti(0x0201), Rnti(0x0300)];
        out.clear();
        for cell in 0..3u16 {
            for _ in 0..rng.uniform_usize(0, 5) {
                let prbs = rng.uniform_usize(1, 61) as u16;
                let mut m = dci(CellId(cell), RNTIS[rng.uniform_usize(0, 4)], prbs, subframe);
                m.mcs = McsIndex(rng.uniform_usize(0, 29) as u8);
                m.new_data_indicator = rng.bernoulli(0.9);
                out.push(m);
            }
        }
    }

    proptest! {
        /// The in-place gather hands the client exactly what the fusion
        /// stage did: through carrier activations and deactivations, a
        /// handover and a decode-loss burst, the capacity estimate after
        /// every subframe and the feedback on every packet are the same
        /// bits.
        #[test]
        fn in_place_gather_matches_message_fusion(seed in 0u64..1_000_000_000) {
            let mut rng = DetRng::new(seed);
            let ctx = ReceiverCtx {
                rng: DetRng::new(seed).split("decoders"),
                ..ctx()
            };
            let mut agent = PbeReceiverAgent::new(&ctx);
            let mut reference = FusionReference::new(&ctx);
            let mut batcher = DciBatcher::new();
            let mut stream = Vec::new();
            let handover_at = rng.uniform_usize(100, 500) as u64;
            let loss_at = rng.uniform_usize(50, 550) as u64;
            // The network never deactivates the primary cell.
            let mut primary = CellId(0);
            for sf in 0..600u64 {
                let cell = CellId(rng.uniform_usize(1, 3) as u16);
                let ca = CaEvent {
                    ue: pbe_cellular::config::UeId(1),
                    cell,
                    activated: rng.bernoulli(0.6),
                    at: Instant::from_millis(sf),
                };
                if rng.bernoulli(0.03) && cell != primary {
                    agent.on_carrier_event(&ca, 50);
                    reference.on_carrier_event(&ca, 50);
                }
                if sf == handover_at {
                    let gap = rng.uniform_usize(0, 60) as u64;
                    agent.on_handover(&handover_to(cell, sf), 75, gap);
                    reference.on_handover(&handover_to(cell, sf), 75, gap);
                    primary = cell;
                }
                if sf == loss_at {
                    let until = sf + rng.uniform_usize(1, 80) as u64;
                    agent.on_decode_loss(until);
                    reference.on_decode_loss(until);
                }
                if rng.bernoulli(0.02) {
                    let rtprop = rng.uniform_usize(10, 80) as f64;
                    agent.set_rtprop_ms(rtprop);
                    reference.set_rtprop_ms(rtprop);
                }
                random_stream(&mut rng, sf, &mut stream);
                let batch = batcher.batch(sf, &stream);
                agent.on_subframe(&batch);
                reference.on_subframe(&batch);
                prop_assert_eq!(
                    format!("{:?}", agent.client().capacity()),
                    format!("{:?}", reference.client.capacity()),
                    "subframe {}", sf
                );
                for k in 0..rng.uniform_usize(0, 4) as u64 {
                    let at = Instant::from_micros(sf * 1_000 + k * 250);
                    let delay = 25.0 + 40.0 * rng.uniform();
                    prop_assert_eq!(
                        format!("{:?}", agent.on_packet(at, delay)),
                        format!("{:?}", reference.on_packet(at, delay)),
                        "subframe {} packet {}", sf, k
                    );
                }
            }
        }
    }
}
