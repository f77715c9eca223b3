//! Receiver-side agents: the per-subframe state machine that annotates ACKs.
//!
//! The end-to-end simulator models the receiver of every flow as a
//! [`ReceiverAgent`]: a state machine that observes each subframe's control
//! channel, follows carrier (de)activations, and may attach feedback to the
//! acknowledgement of every delivered packet.  Baselines use the no-op
//! [`NullReceiverAgent`]; PBE-CC plugs in [`PbeReceiverAgent`] — the
//! decoder → fusion → client pipeline of the paper's Fig. 10a — through the
//! same interface, so the simulator contains no PBE-specific wiring.
//!
//! The trait lives here (not in `pbe-netsim`) because the agent vocabulary —
//! DCI messages, carrier events, PBE feedback — is defined below the
//! simulator in the crate graph; `pbe-netsim` re-exports these types as part
//! of its public API.

use crate::client::{PbeClient, PbeClientConfig};
use pbe_cc_algorithms::api::PbeFeedback;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::config::{CellId, Rnti};
use pbe_cellular::handover::HandoverEvent;
use pbe_pdcch::batch::DciBatch;
use pbe_pdcch::decoder::{ControlChannelDecoder, DecoderConfig};
use pbe_pdcch::fusion::{FusedSubframe, MessageFusion};
use pbe_stats::time::Instant;
use pbe_stats::DetRng;
use std::collections::BTreeMap;

/// A receiver-side, per-flow state machine that annotates acknowledgements.
///
/// All methods have no-op defaults so simple agents only implement what they
/// observe.
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

/// The agent used by every scheme without receiver-side machinery.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullReceiverAgent;

impl ReceiverAgent for NullReceiverAgent {}

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
/// the mobile client, exactly as `sim.rs` used to hand-wire them.
pub struct PbeReceiverAgent {
    decoders: BTreeMap<CellId, ControlChannelDecoder>,
    fusion: MessageFusion,
    client: PbeClient,
    /// Scratch for the subframes fusion completes, reused every subframe.
    fused_ready: Vec<FusedSubframe>,
    /// The subframe (exclusive) until which every decoder is blind: the end
    /// of the current re-acquisition gap or decode-loss burst.
    blind_until: u64,
    flow: u32,
    rng: DetRng,
}

impl PbeReceiverAgent {
    /// Build the pipeline for a flow.
    pub fn new(ctx: &ReceiverCtx) -> Self {
        let mut decoders = BTreeMap::new();
        for (cell, total_prbs) in &ctx.cells {
            decoders.insert(*cell, Self::decoder(*cell, *total_prbs, ctx.flow, &ctx.rng));
        }
        let cells: Vec<CellId> = decoders.keys().copied().collect();
        PbeReceiverAgent {
            fusion: MessageFusion::new(cells),
            client: PbeClient::new(PbeClientConfig::new(ctx.rnti, ctx.cells.clone())),
            decoders,
            fused_ready: Vec::new(),
            blind_until: 0,
            flow: ctx.flow,
            rng: ctx.rng.clone(),
        }
    }

    /// The factory the scheme table registers under "PBE".
    pub fn factory() -> ReceiverFactory {
        Box::new(|ctx| Box::new(PbeReceiverAgent::new(ctx)))
    }

    /// The mobile client (for observers that want its estimates).
    pub fn client(&self) -> &PbeClient {
        &self.client
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
        if event.activated {
            // A decoder started while the others are blind is blind too: it
            // must not complete fusion subframes they skip.
            let (flow, rng, blind_until) = (self.flow, &self.rng, self.blind_until);
            self.decoders.entry(event.cell).or_insert_with(|| {
                let mut decoder = Self::decoder(event.cell, total_prbs, flow, rng);
                decoder.set_resync_until(blind_until);
                decoder
            });
            self.client.add_cell(event.cell, total_prbs);
        } else {
            self.decoders.remove(&event.cell);
            self.client.remove_cell(event.cell);
        }
        let cells: Vec<CellId> = self.decoders.keys().copied().collect();
        self.fusion.set_watched_cells(cells);
    }

    fn on_handover(
        &mut self,
        event: &HandoverEvent,
        target_total_prbs: u16,
        reacquisition_gap_subframes: u64,
    ) {
        // One decoder, freshly re-tuning onto the target cell: everything
        // transmitted during the re-acquisition gap is invisible.
        self.decoders.clear();
        self.blind_until = event.at.subframe_index() + reacquisition_gap_subframes;
        let mut decoder = Self::decoder(event.to, target_total_prbs, self.flow, &self.rng);
        decoder.set_resync_until(self.blind_until);
        self.decoders.insert(event.to, decoder);
        // Fresh fusion stage (the old one waits on cells we stopped
        // watching) and a re-targeted monitor whose estimates are held until
        // the new cell's window carries real data.
        self.fusion = MessageFusion::new(vec![event.to]);
        self.client.on_handover(event.to, target_total_prbs);
    }

    fn on_subframe(&mut self, batch: &DciBatch<'_>) {
        let subframe = batch.subframe();
        for (cell, decoder) in self.decoders.iter_mut() {
            // Each decoder sees only its own cell's slice of the stream:
            // same decode (the decoder filters by cell anyway, and draws
            // randomness only for matching messages), far less scanning.
            let messages = batch.cell_messages(*cell);
            if decoder.is_resynchronising(subframe) {
                // Feed nothing into fusion during the re-acquisition gap: a
                // blind decoder's "empty subframe" is absence of telemetry,
                // not evidence of an idle cell, and must not enter the
                // monitor's averaging window.
                decoder.decode_subframe(subframe, messages);
                continue;
            }
            let decoded = decoder.decode_subframe(subframe, messages);
            self.fused_ready
                .extend(self.fusion.ingest(*cell, subframe, decoded));
        }
        for fused in self.fused_ready.drain(..) {
            self.client.on_subframe(&fused);
        }
    }

    fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
        self.client.set_rtprop_ms(rtprop_ms);
    }

    fn on_decode_loss(&mut self, until_subframe: u64) {
        // Reuse the re-acquisition machinery: every decoder goes silent
        // until the burst ends, fusion ingests nothing meanwhile, and the
        // client rides the gap on its held estimate (the same path a
        // handover gap exercises).
        self.blind_until = until_subframe;
        for decoder in self.decoders.values_mut() {
            decoder.set_resync_until(until_subframe);
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
    fn null_agent_never_produces_feedback() {
        let mut agent = NullReceiverAgent;
        feed(&mut agent, 3, &[]);
        agent.set_rtprop_ms(40.0);
        assert!(agent.on_packet(Instant::from_millis(5), 21.0).is_none());
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
        assert_eq!(
            agent.decoders.keys().copied().collect::<Vec<_>>(),
            vec![CellId(1)]
        );
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
    /// its fresh decoder must not feed fusion subframes the older decoders
    /// skip, or fusion waits on them forever and every later subframe with
    /// them.
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
        }
        assert_eq!(agent.fusion.pending_count(), 0);
        assert!(!agent.client().is_holding_estimates());
        assert!(agent.client().monitor().window_len(CellId(1)) > 0);
    }
}
