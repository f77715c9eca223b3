//! CQI / MCS tables and transport-block sizing.
//!
//! The wireless physical data rate `Rw` of the paper's Eqns. 2 and 3 (bits
//! per PRB) is determined by the modulation-and-coding scheme the eNodeB
//! selects from the UE's channel-quality indicator (CQI) report, multiplied
//! by the number of spatial streams.  This module implements the 3GPP
//! 36.213-style CQI table (modulation order and code rate per CQI), the
//! SINR→CQI mapping, and the translation to transport-block size for a given
//! PRB allocation.

use crate::prb::DATA_RES_PER_PRB;
use serde::{Deserialize, Serialize};

/// Channel quality indicator, 1..=15 (0 means out of range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cqi(pub u8);

/// Modulation and coding scheme index, 0..=28.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct McsIndex(pub u8);

/// 3GPP 36.213 Table 7.2.3-1 (4-bit CQI): (modulation order bits, code rate × 1024).
const CQI_TABLE: [(u8, u16); 16] = [
    (0, 0),   // CQI 0: out of range
    (2, 78),  // QPSK 0.076
    (2, 120), // QPSK 0.12
    (2, 193), // QPSK 0.19
    (2, 308), // QPSK 0.30
    (2, 449), // QPSK 0.44
    (2, 602), // QPSK 0.59
    (4, 378), // 16QAM 0.37
    (4, 490), // 16QAM 0.48
    (4, 616), // 16QAM 0.60
    (6, 466), // 64QAM 0.46
    (6, 567), // 64QAM 0.55
    (6, 666), // 64QAM 0.65
    (6, 772), // 64QAM 0.75
    (6, 873), // 64QAM 0.85
    (6, 948), // 64QAM 0.93
];

/// SINR (dB) thresholds at which each CQI becomes usable at ~10 % BLER,
/// index 1..=15.  Derived from standard link-level curves.
const CQI_SINR_THRESHOLDS_DB: [f64; 16] = [
    f64::NEG_INFINITY,
    -6.7,
    -4.7,
    -2.3,
    0.2,
    2.4,
    4.3,
    5.9,
    8.1,
    10.3,
    11.7,
    14.1,
    16.3,
    18.7,
    21.0,
    22.7,
];

impl Cqi {
    /// Lowest usable CQI.
    pub const MIN: Cqi = Cqi(1);
    /// Highest CQI (64QAM, rate 0.93).
    pub const MAX: Cqi = Cqi(15);

    /// Clamp a raw value into the valid 1..=15 range.
    pub fn clamped(value: u8) -> Cqi {
        Cqi(value.clamp(1, 15))
    }

    /// Modulation order (bits per symbol) for this CQI.
    fn modulation_order(self) -> u8 {
        CQI_TABLE[self.0.min(15) as usize].0
    }

    /// Code rate (0..1) for this CQI.
    fn code_rate(self) -> f64 {
        f64::from(CQI_TABLE[self.0.min(15) as usize].1) / 1024.0
    }

    /// Spectral efficiency in information bits per resource element.
    fn spectral_efficiency(self) -> f64 {
        f64::from(self.modulation_order()) * self.code_rate()
    }

    /// Map a wideband SINR in dB to the highest CQI whose threshold is met.
    pub fn from_sinr_db(sinr_db: f64) -> Cqi {
        let mut cqi = 0u8;
        for (i, th) in CQI_SINR_THRESHOLDS_DB.iter().enumerate().skip(1) {
            if sinr_db >= *th {
                cqi = i as u8;
            }
        }
        if cqi == 0 {
            // Even below the CQI-1 threshold the network falls back to the
            // most robust MCS rather than refusing to schedule.
            Cqi(1)
        } else {
            Cqi(cqi)
        }
    }

    /// The MCS index the scheduler would select for this CQI (a simple
    /// monotone mapping covering the 0..=28 range).
    pub fn to_mcs(self) -> McsIndex {
        McsIndex(((f64::from(self.0) - 1.0) / 14.0 * 28.0).round() as u8)
    }
}

/// Information bits carried by one PRB in one subframe at the given CQI and
/// number of spatial streams.  This is the paper's `Rw` (bits per PRB).
pub fn bits_per_prb(cqi: Cqi, spatial_streams: u8) -> f64 {
    cqi.spectral_efficiency() * DATA_RES_PER_PRB * f64::from(spatial_streams.max(1))
}

/// Transport block size in bits for an allocation of `num_prbs` PRBs at the
/// given CQI and spatial streams (rounded down to a whole number of bits, at
/// least 16 bits for any non-empty allocation so a MAC header always fits).
pub fn transport_block_size(num_prbs: u16, cqi: Cqi, spatial_streams: u8) -> u32 {
    if num_prbs == 0 {
        return 0;
    }
    let bits = bits_per_prb(cqi, spatial_streams) * f64::from(num_prbs);
    (bits as u32).max(16)
}

/// Number of PRBs needed to carry `bits` at the given CQI / spatial streams.
pub fn prbs_needed(bits: u64, cqi: Cqi, spatial_streams: u8) -> u16 {
    if bits == 0 {
        return 0;
    }
    let per_prb = bits_per_prb(cqi, spatial_streams);
    ((bits as f64 / per_prb).ceil() as u64).min(u64::from(u16::MAX)) as u16
}

/// Maximum achievable physical data rate in Mbit/s per PRB (the paper quotes
/// 1.8 Mbit/s/PRB for the maximum): CQI 15 with two spatial streams.
pub fn max_rate_mbps_per_prb() -> f64 {
    bits_per_prb(Cqi::MAX, 2) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cqi_table_monotone_in_efficiency() {
        let mut prev = 0.0;
        for c in 1..=15u8 {
            let eff = Cqi(c).spectral_efficiency();
            assert!(eff > prev, "CQI {c} efficiency {eff} not > {prev}");
            prev = eff;
        }
        // CQI 15 is 64QAM rate 0.926 -> 5.55 bits/RE.
        assert!((Cqi(15).spectral_efficiency() - 5.5547).abs() < 0.01);
    }

    #[test]
    fn sinr_mapping_covers_extremes() {
        assert_eq!(Cqi::from_sinr_db(-20.0), Cqi(1));
        assert_eq!(Cqi::from_sinr_db(30.0), Cqi(15));
        assert_eq!(Cqi::from_sinr_db(9.0), Cqi(8));
    }

    #[test]
    fn sinr_mapping_is_monotone() {
        let mut prev = 0;
        for i in -100..300 {
            let sinr = i as f64 / 10.0;
            let cqi = Cqi::from_sinr_db(sinr).0;
            assert!(cqi >= prev);
            prev = cqi;
        }
    }

    #[test]
    fn cqi_to_mcs_is_monotone_over_the_mcs_range() {
        let mut prev = McsIndex(0);
        for c in 1..=15u8 {
            let mcs = Cqi(c).to_mcs();
            assert!(mcs >= prev, "CQI {c} -> {mcs:?} after {prev:?}");
            prev = mcs;
        }
        assert_eq!(Cqi(1).to_mcs(), McsIndex(0));
        assert_eq!(Cqi(15).to_mcs(), McsIndex(28));
    }

    #[test]
    fn max_rate_matches_paper_order_of_magnitude() {
        // The paper quotes a maximum achievable rate of 1.8 Mbit/s per PRB;
        // our RE accounting gives ~1.67 Mbit/s/PRB with 2 streams.
        let max = max_rate_mbps_per_prb();
        assert!((1.5..2.0).contains(&max), "max rate {max}");
    }

    #[test]
    fn tbs_scales_with_prbs_and_streams() {
        let one = transport_block_size(10, Cqi(10), 1);
        let two = transport_block_size(20, Cqi(10), 1);
        let dual = transport_block_size(10, Cqi(10), 2);
        assert!(two >= 2 * one - 2);
        assert!((i64::from(dual) - i64::from(2 * one)).abs() <= 2);
        assert_eq!(transport_block_size(0, Cqi(10), 2), 0);
        assert!(transport_block_size(1, Cqi(1), 1) >= 16);
    }

    #[test]
    fn prbs_needed_inverts_tbs() {
        let cqi = Cqi(12);
        let bits = u64::from(transport_block_size(40, cqi, 2));
        let needed = prbs_needed(bits, cqi, 2);
        assert!((39..=40).contains(&needed), "needed = {needed}");
        assert_eq!(prbs_needed(0, cqi, 2), 0);
        assert_eq!(prbs_needed(1, cqi, 2), 1);
    }

    #[test]
    fn full_cell_throughput_is_realistic() {
        // 100 PRBs (20 MHz), CQI 15, 2 streams: ~167 Mbit/s peak.
        let bits = transport_block_size(100, Cqi(15), 2);
        let mbps = bits as f64 / 1000.0;
        assert!((140.0..190.0).contains(&mbps), "peak {mbps} Mbit/s");
    }

    proptest! {
        #[test]
        fn bits_per_prb_positive_and_bounded(c in 1u8..=15, s in 1u8..=4) {
            let b = bits_per_prb(Cqi(c), s);
            prop_assert!(b > 0.0);
            prop_assert!(b <= 5.6 * DATA_RES_PER_PRB * 4.0);
        }

        #[test]
        fn prbs_needed_is_sufficient(bits in 1u64..5_000_000, c in 1u8..=15, s in 1u8..=2) {
            let cqi = Cqi(c);
            let n = prbs_needed(bits, cqi, s);
            prop_assume!(n < u16::MAX);
            let capacity = u64::from(transport_block_size(n, cqi, s));
            // The allocation must be able to carry the requested bits.
            prop_assert!(capacity + 1 >= bits);
        }
    }
}
