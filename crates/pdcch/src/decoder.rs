//! Blind decoding of the physical downlink control channel of one cell.
//!
//! A conventional phone only checks the search-space candidates scrambled
//! with its own RNTI.  The PBE-CC monitor instead decodes *all* control
//! messages: for every candidate position and every DCI format it attempts a
//! CRC check and recovers the RNTI from the descrambled CRC (paper §5 — "each
//! decoder decodes the control channel by searching every possible message
//! position ... and trying all possible formats at each location until
//! finding the correct message").
//!
//! The radio front end is simulated: the cell hands over the DCI messages it
//! transmitted ([`pbe_cellular::dci::DciMessage`]).  Each message is encoded
//! into its on-air form (payload plus RNTI-scrambled CRC) and blind-decoded
//! from it (`OnAirDci`); that decode is the same for every receiver, so
//! [`ControlChannelDecoder::decode_batch`] takes it from the subframe's
//! [`DciBatch`], which decodes each cell's messages at most once for all the
//! decoders of that cell.  Each decoder then applies its own impairments — a
//! miss draw per message, noise candidates from its own random stream — and
//! its own plausibility filter.  [`ControlChannelDecoder::decode_subframe`]
//! does the on-air decode itself and then the same per-decoder steps.

use crate::batch::DciBatch;
use pbe_cellular::config::CellId;
use pbe_cellular::dci::{DciFormat, DciMessage, EncodedDci};
use pbe_stats::DetRng;
use serde::{Deserialize, Serialize};

/// Configuration of one per-cell decoder.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DecoderConfig {
    /// Probability that a transmitted control message is missed entirely
    /// (deep fade over the control region, decoder scheduling hiccup, …).
    pub miss_probability: f64,
    /// Probability that an idle candidate position contains noise that the
    /// decoder must examine and reject (adds search work and, very rarely,
    /// false positives).
    pub noise_candidate_probability: f64,
    /// Total PRBs of the watched cell, used to sanity-check decoded grants
    /// (a candidate whose allocation does not fit the cell is discarded, the
    /// same plausibility filtering OWL/FALCON-style decoders apply).
    pub total_prbs: u16,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            miss_probability: 0.002,
            noise_candidate_probability: 0.05,
            total_prbs: 100,
        }
    }
}

/// Cumulative decoder statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoderStats {
    /// Subframes processed.
    pub subframes: u64,
    /// Control messages correctly decoded.
    pub decoded: u64,
    /// Control messages missed (transmitted but not decoded).
    pub missed: u64,
    /// Candidate positions examined (search effort).
    pub candidates_examined: u64,
    /// Noise candidates rejected by the CRC/RNTI check.
    pub noise_rejected: u64,
    /// Noise candidates that slipped through as false positives.
    pub false_positives: u64,
}

impl DecoderStats {
    /// Fraction of transmitted messages successfully decoded.
    pub fn decode_rate(&self) -> f64 {
        let total = self.decoded + self.missed;
        if total == 0 {
            1.0
        } else {
            self.decoded as f64 / total as f64
        }
    }

    /// Average candidates examined per subframe.
    pub fn candidates_per_subframe(&self) -> f64 {
        if self.subframes == 0 {
            0.0
        } else {
            self.candidates_examined as f64 / self.subframes as f64
        }
    }
}

/// A transmitted DCI as a blind decoder recovers it from its unimpaired
/// on-air form: the part of the decode every receiver of the cell shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OnAirDci {
    /// DCI formats tried at the candidate before one passed the CRC.
    formats_tried: u8,
    /// The blind decode; `None` when the RNTI recovered from the CRC is not
    /// a C-RNTI.
    decoded: Option<DciMessage>,
}

impl OnAirDci {
    /// Encode `msg` at search-space candidate `candidate_index` and
    /// blind-decode it.
    fn receive(msg: &DciMessage, candidate_index: u8) -> Self {
        // Aggregation level depends on how robust the grant must be; the
        // scheduler uses larger levels for users in worse conditions.
        let aggregation_level = match msg.mcs.0 {
            0..=6 => 8,
            7..=16 => 4,
            _ => 2,
        };
        let encoded = msg.encode(aggregation_level, candidate_index);
        OnAirDci {
            formats_tried: formats_tried(&encoded),
            decoded: encoded.blind_decode(),
        }
    }
}

/// The on-air decodes of the messages `cell` transmitted in `subframe`, in
/// stream order (the search-space candidates are numbered in that order).
pub(crate) fn on_air(
    cell: CellId,
    subframe: u64,
    transmitted: &[DciMessage],
) -> impl Iterator<Item = OnAirDci> + '_ {
    transmitted
        .iter()
        .filter(move |m| m.cell == cell && m.subframe == subframe)
        .enumerate()
        .map(|(i, m)| OnAirDci::receive(m, i as u8))
}

/// Number of DCI formats a decoder tries per candidate (all formats are
/// attempted until one passes the CRC, paper §5 footnote 2).
fn formats_tried(encoded: &EncodedDci) -> u8 {
    // On average half the formats are tried before the right one; the
    // exact count does not matter, only that the effort is accounted.
    (DciFormat::ALL.len() as u8 / 2).max(1) + (encoded.aggregation_level > 4) as u8
}

/// Blind decoder for the control channel of one cell.
#[derive(Debug)]
pub struct ControlChannelDecoder {
    cell: CellId,
    config: DecoderConfig,
    /// `exp(−λ)` of the per-subframe noise-candidate count's Poisson mean λ,
    /// or `None` when λ ≤ 0 and no noise is drawn.
    noise_limit: Option<f64>,
    rng: DetRng,
    stats: DecoderStats,
    /// Subframe before which the decoder is still re-acquiring the cell
    /// (cell search, sync-signal lock, CRS timing) and decodes nothing.
    resync_until: Option<u64>,
}

impl ControlChannelDecoder {
    /// Create a decoder for one cell.
    pub fn new(cell: CellId, config: DecoderConfig, rng: DetRng) -> Self {
        let noise_mean = config.noise_candidate_probability * 8.0;
        ControlChannelDecoder {
            cell,
            config,
            noise_limit: if noise_mean <= 0.0 {
                None
            } else {
                Some((-noise_mean).exp())
            },
            rng,
            stats: DecoderStats::default(),
            resync_until: None,
        }
    }

    /// Declare the decoder blind until `subframe`: after a handover the
    /// radio must re-tune and re-synchronise onto the target cell before a
    /// single candidate can be searched, so every message transmitted during
    /// the re-acquisition gap is missed (and accounted as missed).
    pub fn set_resync_until(&mut self, subframe: u64) {
        self.resync_until = Some(subframe);
    }

    /// True if the decoder is still inside its re-acquisition gap at
    /// `subframe`.
    pub fn is_resynchronising(&self, subframe: u64) -> bool {
        self.resync_until.is_some_and(|until| subframe < until)
    }

    /// The cell this decoder watches.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Decode the control region of one subframe.
    ///
    /// `transmitted` is the set of DCI messages the cell actually put on the
    /// air this subframe (only those for this decoder's cell are considered).
    /// Returns the messages the monitor gets to see.
    pub fn decode_subframe(
        &mut self,
        subframe: u64,
        transmitted: &[DciMessage],
    ) -> Vec<DciMessage> {
        let mut decoded = Vec::new();
        self.decode_into(subframe, transmitted, &mut decoded);
        decoded
    }

    /// [`Self::decode_subframe`] appending to a caller-owned buffer, so a
    /// per-subframe caller that clears and reuses `out` allocates nothing.
    fn decode_into(
        &mut self,
        subframe: u64,
        transmitted: &[DciMessage],
        out: &mut Vec<DciMessage>,
    ) {
        if !self.blind(subframe, transmitted) {
            self.impair(subframe, on_air(self.cell, subframe, transmitted), out);
        }
    }

    /// Decode the batch's subframe into `out`, taking the on-air decode of
    /// this decoder's cell from `batch`, which computes it once for every
    /// decoder of the cell.  Appends exactly what [`Self::decode_subframe`]
    /// returns for the cell's messages, with the same random draws.
    pub fn decode_batch(&mut self, batch: &DciBatch<'_>, out: &mut Vec<DciMessage>) {
        let subframe = batch.subframe();
        if !self.blind(subframe, batch.cell_messages(self.cell)) {
            self.impair(subframe, batch.on_air(self.cell).iter().copied(), out);
        }
    }

    /// Count one subframe; while re-acquiring the cell, account every
    /// message it transmitted in `subframe` as missed and return true.
    fn blind(&mut self, subframe: u64, transmitted: &[DciMessage]) -> bool {
        self.stats.subframes += 1;
        if !self.is_resynchronising(subframe) {
            return false;
        }
        // Everything transmitted while re-tuning is lost to the monitor.
        self.stats.missed += transmitted
            .iter()
            .filter(|m| m.cell == self.cell && m.subframe == subframe)
            .count() as u64;
        true
    }

    /// This decoder's own part of a subframe's decode: a miss draw for every
    /// transmitted message, its plausibility filter on what survives, then
    /// the noise candidates of the empty positions.
    fn impair(
        &mut self,
        subframe: u64,
        on_air: impl Iterator<Item = OnAirDci>,
        out: &mut Vec<DciMessage>,
    ) {
        for dci in on_air {
            self.stats.candidates_examined += u64::from(dci.formats_tried);
            if self.rng.bernoulli(self.config.miss_probability) {
                self.stats.missed += 1;
                continue;
            }
            match dci.decoded.filter(|m| self.is_plausible(m)) {
                Some(m) => {
                    self.stats.decoded += 1;
                    out.push(m);
                }
                None => {
                    self.stats.missed += 1;
                }
            }
        }

        // Noise candidates: empty positions the decoder still has to examine.
        let noise_positions = self
            .noise_limit
            .map_or(0, |limit| self.rng.poisson_below(limit));
        for i in 0..noise_positions {
            self.stats.candidates_examined += 1;
            // Build garbage bits and check them the same way; the CRC/RNTI
            // range check rejects essentially all of them.
            let garbage = EncodedDci {
                cell: self.cell,
                subframe,
                aggregation_level: 1,
                candidate_index: i as u8,
                payload: self.rng.next_u64() as u128 | ((self.rng.next_u64() as u128) << 64),
                payload_bits: 55,
                scrambled_crc: (self.rng.next_u64() & 0xFFFF) as u16,
            };
            match garbage.blind_decode().filter(|m| self.is_plausible(m)) {
                Some(_) => self.stats.false_positives += 1,
                None => self.stats.noise_rejected += 1,
            }
        }
    }

    /// Plausibility filter applied to every decoded candidate: a downlink
    /// grant must fit inside the cell's PRB grid, use a valid MCS and stream
    /// count, and declare a transport block size consistent with its
    /// allocation.  Corrupted candidates that pass the CRC by chance almost
    /// never satisfy all of these.
    fn is_plausible(&self, m: &DciMessage) -> bool {
        if !m.format.is_downlink_assignment() {
            return true;
        }
        if m.num_prbs == 0 || m.num_prbs > self.config.total_prbs {
            return false;
        }
        if m.first_prb + m.num_prbs > self.config.total_prbs {
            return false;
        }
        if m.mcs.0 > 28 || m.spatial_streams == 0 || m.spatial_streams > 2 {
            return false;
        }
        // Bits per PRB beyond ~3.4 kbit (64QAM rate-0.93, two streams with
        // margin) or below a MAC header are physically impossible.
        let bits_per_prb = f64::from(m.tbs_bits) / f64::from(m.num_prbs);
        (8.0..=3_400.0).contains(&bits_per_prb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DciBatcher;
    use pbe_cellular::config::Rnti;
    use pbe_cellular::mcs::McsIndex;
    use proptest::prelude::*;

    fn msg(cell: u16, subframe: u64, rnti: u16, prbs: u16) -> DciMessage {
        DciMessage {
            cell: CellId(cell),
            subframe,
            rnti: Rnti(rnti),
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: prbs,
            mcs: McsIndex(15),
            spatial_streams: 2,
            new_data_indicator: true,
            harq_process: 0,
            tbs_bits: 20_000,
        }
    }

    #[test]
    fn perfect_decoder_sees_every_message() {
        let cfg = DecoderConfig {
            miss_probability: 0.0,
            noise_candidate_probability: 0.0,
            ..DecoderConfig::default()
        };
        let mut dec = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(1));
        let transmitted = vec![msg(0, 5, 0x100, 10), msg(0, 5, 0x200, 20)];
        let decoded = dec.decode_subframe(5, &transmitted);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded, transmitted);
        assert_eq!(dec.stats().decode_rate(), 1.0);
    }

    #[test]
    fn messages_for_other_cells_or_subframes_are_ignored() {
        let cfg = DecoderConfig {
            miss_probability: 0.0,
            noise_candidate_probability: 0.0,
            ..DecoderConfig::default()
        };
        let mut dec = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(1));
        let transmitted = vec![msg(1, 5, 0x100, 10), msg(0, 6, 0x200, 20)];
        let decoded = dec.decode_subframe(5, &transmitted);
        assert!(decoded.is_empty());
    }

    #[test]
    fn lossy_decoder_misses_roughly_the_configured_fraction() {
        let cfg = DecoderConfig {
            miss_probability: 0.1,
            noise_candidate_probability: 0.0,
            ..DecoderConfig::default()
        };
        let mut dec = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(7));
        let mut seen = 0usize;
        let total = 5_000usize;
        for sf in 0..total as u64 {
            let transmitted = vec![msg(0, sf, 0x100, 10)];
            seen += dec.decode_subframe(sf, &transmitted).len();
        }
        let rate = seen as f64 / total as f64;
        assert!((0.85..0.95).contains(&rate), "decode rate = {rate}");
        assert!((dec.stats().decode_rate() - rate).abs() < 1e-9);
    }

    #[test]
    fn noise_candidates_are_rejected_not_decoded() {
        let cfg = DecoderConfig {
            miss_probability: 0.0,
            noise_candidate_probability: 1.0,
            ..DecoderConfig::default()
        };
        let mut dec = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(9));
        let mut total_decoded = 0usize;
        for sf in 0..2_000u64 {
            total_decoded += dec.decode_subframe(sf, &[]).len();
        }
        let stats = dec.stats();
        assert_eq!(total_decoded, 0, "noise never produces output messages");
        assert!(stats.noise_rejected > 1_000);
        // False positives are possible in principle (16-bit CRC) but must be
        // a tiny fraction of the candidates examined.
        assert!(
            (stats.false_positives as f64) < 0.02 * stats.noise_rejected as f64,
            "false positives {} vs rejected {}",
            stats.false_positives,
            stats.noise_rejected
        );
    }

    #[test]
    fn resynchronising_decoder_misses_everything_then_recovers() {
        let cfg = DecoderConfig {
            miss_probability: 0.0,
            noise_candidate_probability: 0.0,
            ..DecoderConfig::default()
        };
        let mut dec = ControlChannelDecoder::new(CellId(1), cfg, DetRng::new(5));
        dec.set_resync_until(40);
        for sf in 0..40u64 {
            assert!(dec.is_resynchronising(sf));
            let mut m = msg(1, sf, 0x100, 10);
            m.cell = CellId(1);
            assert!(dec.decode_subframe(sf, &[m]).is_empty());
        }
        assert!(!dec.is_resynchronising(40));
        let mut m = msg(1, 40, 0x100, 10);
        m.cell = CellId(1);
        assert_eq!(dec.decode_subframe(40, &[m]).len(), 1);
        assert_eq!(dec.stats().missed, 40);
        assert_eq!(dec.stats().decoded, 1);
    }

    #[test]
    fn search_effort_is_accounted() {
        let cfg = DecoderConfig::default();
        let mut dec = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(3));
        for sf in 0..100u64 {
            let transmitted = vec![msg(0, sf, 0x100, 10), msg(0, sf, 0x200, 20)];
            dec.decode_subframe(sf, &transmitted);
        }
        assert!(dec.stats().candidates_per_subframe() >= 2.0);
        assert_eq!(dec.cell(), CellId(0));
    }

    #[test]
    fn decode_into_appends_what_decode_subframe_returns() {
        let cfg = DecoderConfig {
            miss_probability: 0.2,
            ..DecoderConfig::default()
        };
        let mut fresh = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(11));
        let mut reused = ControlChannelDecoder::new(CellId(0), cfg, DetRng::new(11));
        let mut out = vec![msg(3, 0, 0x300, 5)];
        for sf in 0..200u64 {
            let transmitted = vec![msg(0, sf, 0x100, 10), msg(0, sf, 0x200, 20)];
            let expected = fresh.decode_subframe(sf, &transmitted);
            out.truncate(1);
            reused.decode_into(sf, &transmitted, &mut out);
            assert_eq!(out[0].cell, CellId(3), "decode_into appends");
            assert_eq!(out[1..], expected[..]);
        }
        assert_eq!(fresh.stats().decoded, reused.stats().decoded);
        assert_eq!(fresh.stats().noise_rejected, reused.stats().noise_rejected);
    }

    /// One subframe of random traffic on cells 0–3, cell by cell as the
    /// network emits it: any format, size and MCS (so plausibility depends
    /// on the decoder's cell size), now and then an RNTI outside the C-RNTI
    /// range or a message of the next subframe, and now and then one
    /// message moved out of its cell's run, which interleaves that cell.
    fn random_stream(rng: &mut DetRng, subframe: u64) -> Vec<DciMessage> {
        let mut out = Vec::new();
        for cell in 0..4u16 {
            for _ in 0..rng.uniform_usize(0, 6) {
                let rnti = if rng.bernoulli(0.1) {
                    rng.uniform_usize(0, usize::from(Rnti::FIRST_C_RNTI))
                } else {
                    rng.uniform_usize(usize::from(Rnti::FIRST_C_RNTI), 0x400)
                };
                let mut m = msg(
                    cell,
                    subframe,
                    rnti as u16,
                    rng.uniform_usize(1, 101) as u16,
                );
                m.format = DciFormat::ALL[rng.uniform_usize(0, DciFormat::ALL.len())];
                m.first_prb = rng.uniform_usize(0, 40) as u16;
                m.mcs = McsIndex(rng.uniform_usize(0, 29) as u8);
                m.tbs_bits = rng.uniform_usize(100, 200_000) as u32;
                m.subframe += u64::from(rng.bernoulli(0.05));
                out.push(m);
            }
        }
        if out.len() > 2 && rng.bernoulli(0.3) {
            let m = out.remove(rng.uniform_usize(0, out.len()));
            out.insert(rng.uniform_usize(0, out.len() + 1), m);
        }
        out
    }

    proptest! {
        /// Decoding from the batch's shared on-air decode is decoding
        /// alone: for decoders of overlapping cells with their own cell
        /// sizes, miss and noise rates, streams and re-acquisition gaps,
        /// `decode_batch` appends what `decode_into` appends (given the
        /// cell's slice or the whole stream), keeps the same statistics and
        /// leaves the decoder's stream at the same draw.
        #[test]
        fn shared_on_air_decode_matches_decoding_alone(seed in 0u64..1_000_000_000) {
            let mut rng = DetRng::new(seed);
            let mut pairs: Vec<(ControlChannelDecoder, ControlChannelDecoder)> = (0..rng
                .uniform_usize(2, 7))
                .map(|i| {
                    let cell = CellId(rng.uniform_usize(0, 5) as u16);
                    let config = DecoderConfig {
                        miss_probability: [0.0, 0.002, 0.3][rng.uniform_usize(0, 3)],
                        noise_candidate_probability: [0.0, 0.05, 0.5][rng.uniform_usize(0, 3)],
                        total_prbs: [25, 50, 75, 100][rng.uniform_usize(0, 4)],
                    };
                    let stream = DetRng::new(seed).split_indexed("decoder", i as u64);
                    let mut shared = ControlChannelDecoder::new(cell, config, stream.clone());
                    let mut alone = ControlChannelDecoder::new(cell, config, stream);
                    if rng.bernoulli(0.5) {
                        let until = rng.uniform_usize(0, 40) as u64;
                        shared.set_resync_until(until);
                        alone.set_resync_until(until);
                    }
                    (shared, alone)
                })
                .collect();
            let mut batcher = DciBatcher::new();
            let (mut from_batch, mut from_messages) = (Vec::new(), Vec::new());
            for sf in 0..60u64 {
                let stream = random_stream(&mut rng, sf);
                let batch = batcher.batch(sf, &stream);
                for (shared, alone) in &mut pairs {
                    from_batch.clear();
                    from_messages.clear();
                    shared.decode_batch(&batch, &mut from_batch);
                    let messages = if rng.bernoulli(0.5) {
                        batch.cell_messages(alone.cell())
                    } else {
                        &stream
                    };
                    alone.decode_into(sf, messages, &mut from_messages);
                    prop_assert_eq!(&from_batch, &from_messages, "subframe {}", sf);
                    prop_assert_eq!(shared.stats(), alone.stats(), "subframe {}", sf);
                }
            }
            for (shared, alone) in &mut pairs {
                prop_assert_eq!(shared.rng.next_u64(), alone.rng.next_u64());
            }
        }
    }
}
