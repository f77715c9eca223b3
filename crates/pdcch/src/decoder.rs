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
//! The radio front end is simulated: the cell hands us the DCI messages it
//! transmitted ([`pbe_cellular::dci::DciMessage`]); we re-encode them into
//! their on-air form, optionally corrupt a fraction of candidates (RF
//! impairments), and run the same search an over-the-air decoder would.

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
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
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

/// Blind decoder for the control channel of one cell.
#[derive(Debug)]
pub struct ControlChannelDecoder {
    cell: CellId,
    config: DecoderConfig,
    rng: DetRng,
    stats: DecoderStats,
    /// Subframe before which the decoder is still re-acquiring the cell
    /// (cell search, sync-signal lock, CRS timing) and decodes nothing.
    resync_until: Option<u64>,
}

impl ControlChannelDecoder {
    /// Create a decoder for one cell.
    pub fn new(cell: CellId, config: DecoderConfig, rng: DetRng) -> Self {
        ControlChannelDecoder {
            cell,
            config,
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
    pub fn decode_into(
        &mut self,
        subframe: u64,
        transmitted: &[DciMessage],
        out: &mut Vec<DciMessage>,
    ) {
        self.stats.subframes += 1;
        if self.is_resynchronising(subframe) {
            // Everything transmitted while re-tuning is lost to the monitor.
            self.stats.missed += transmitted
                .iter()
                .filter(|m| m.cell == self.cell && m.subframe == subframe)
                .count() as u64;
            return;
        }

        // Real messages: re-encode into their on-air form, walk the search
        // space, and blind-decode each candidate.
        let mut candidate_index = 0u8;
        for msg in transmitted
            .iter()
            .filter(|m| m.cell == self.cell && m.subframe == subframe)
        {
            // Aggregation level depends on how robust the grant must be; the
            // scheduler uses larger levels for users in worse conditions.
            let aggregation_level = match msg.mcs.0 {
                0..=6 => 8,
                7..=16 => 4,
                _ => 2,
            };
            let encoded = msg.encode(aggregation_level, candidate_index);
            candidate_index = candidate_index.wrapping_add(1);
            self.stats.candidates_examined += u64::from(Self::formats_tried(&encoded));
            if self.rng.bernoulli(self.config.miss_probability) {
                self.stats.missed += 1;
                continue;
            }
            match encoded.blind_decode().filter(|m| self.is_plausible(m)) {
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
            .rng
            .poisson(self.config.noise_candidate_probability * 8.0);
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

    /// Number of DCI formats a decoder tries per candidate (all formats are
    /// attempted until one passes the CRC, paper §5 footnote 2).
    fn formats_tried(encoded: &EncodedDci) -> u8 {
        // On average half the formats are tried before the right one; the
        // exact count does not matter, only that the effort is accounted.
        (DciFormat::ALL.len() as u8 / 2).max(1) + (encoded.aggregation_level > 4) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::config::Rnti;
    use pbe_cellular::mcs::McsIndex;

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
}
