//! Cross-layer bit-rate translation: the paper's Eqn. 5.
//!
//! The capacities `Cf` and `Cp` measured from the control channel are
//! physical-layer capacities.  The transport layer sees less, for two
//! reasons: some transport blocks must be retransmitted (the probability of
//! which grows with the transport-block size `L` under an i.i.d. bit error
//! rate `p`, as `1 − (1 − p)^L`), and a constant fraction γ of the capacity
//! carries RLC/PDCP/MAC protocol headers.  Eqn. 5 ties them together:
//!
//! ```text
//! Cp = Ct + Ct · (1 − (1 − p)^L) + γ · Cp ,   with  L = Ct · 10⁻³ s
//! ```
//!
//! γ is [`PROTOCOL_OVERHEAD`], the same 6.8 % the simulated cells charge.
//! Given a measured `Cp`, the translator solves this fixed-point equation for
//! the transport-layer goodput `Ct`.  Like the paper, it caches the solution
//! in a lookup table so the per-ACK cost is a table lookup, with the exact
//! bisection solver behind it (and available for tests to bound the table's
//! quantisation error).

use pbe_cellular::channel::tb_error_probability;
use pbe_cellular::config::PROTOCOL_OVERHEAD;
use std::collections::HashMap;

/// Lookup-table quantisation of `Cp`, in bits per subframe.
const CP_STEP: f64 = 500.0;

/// Solver + lookup table for the Eqn. 5 translation.
#[derive(Debug, Clone, Default)]
pub struct RateTranslator {
    /// Solutions keyed by quantised `Cp` and BER.
    table: HashMap<(u64, u64), f64>,
}

impl RateTranslator {
    /// Exact solution of Eqn. 5 by bisection: the transport goodput `Ct`
    /// (bits per subframe) for a physical capacity `Cp` (bits per subframe)
    /// and bit error rate `ber`.
    fn translate_exact(&self, cp_bits_per_subframe: f64, ber: f64) -> f64 {
        if cp_bits_per_subframe <= 0.0 {
            return 0.0;
        }
        let cp = cp_bits_per_subframe;
        let gamma = PROTOCOL_OVERHEAD;
        // Ct is bounded by (1-γ)·Cp (no retransmissions) from above and by
        // (1-γ)·Cp / 2 (every block retransmitted) from below.
        let mut lo = (1.0 - gamma) * cp / 2.0;
        let mut hi = (1.0 - gamma) * cp;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            // L is the transport block size in bits for one subframe.
            let l = mid.max(1.0) as u64;
            let tb_err = tb_error_probability(l, ber);
            let implied_cp = mid * (1.0 + tb_err) / (1.0 - gamma);
            if implied_cp > cp {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Table-accelerated translation (quantises `Cp` to 500-bit steps and the
    /// BER to 0.1 × 10⁻⁶ steps, mirroring the paper's lookup-table
    /// optimisation).
    pub fn translate(&mut self, cp_bits_per_subframe: f64, ber: f64) -> f64 {
        if cp_bits_per_subframe <= 0.0 {
            return 0.0;
        }
        let cp_key = (cp_bits_per_subframe / CP_STEP).round() as u64;
        let ber_key = (ber * 1e7).round() as u64;
        if let Some(ct) = self.table.get(&(cp_key, ber_key)) {
            return *ct;
        }
        let ct = self.translate_exact(cp_key as f64 * CP_STEP, ber);
        self.table.insert((cp_key, ber_key), ct);
        ct
    }

    /// Translate a capacity given an already-measured transport-block error
    /// rate (e.g. the retransmission fraction the monitor observes on its own
    /// grants), bypassing the BER model.
    pub fn translate_with_tb_error(&self, cp_bits_per_subframe: f64, tb_error_rate: f64) -> f64 {
        if cp_bits_per_subframe <= 0.0 {
            return 0.0;
        }
        cp_bits_per_subframe * (1.0 - PROTOCOL_OVERHEAD) / (1.0 + tb_error_rate.clamp(0.0, 1.0))
    }

    /// The total overhead fraction implied by Eqn. 5 for a given goodput:
    /// retransmission overhead plus protocol overhead, as a fraction of `Cp`
    /// (the quantity plotted in the paper's Fig. 6a).
    pub fn overhead_fraction(&self, ct_bits_per_subframe: f64, ber: f64) -> (f64, f64) {
        if ct_bits_per_subframe <= 0.0 {
            return (0.0, PROTOCOL_OVERHEAD);
        }
        let l = ct_bits_per_subframe.max(1.0) as u64;
        let tb_err = tb_error_probability(l, ber);
        let cp = ct_bits_per_subframe * (1.0 + tb_err) / (1.0 - PROTOCOL_OVERHEAD);
        let retx_fraction = ct_bits_per_subframe * tb_err / cp;
        (retx_fraction, PROTOCOL_OVERHEAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_capacity_translates_to_zero() {
        let mut t = RateTranslator::default();
        assert_eq!(t.translate(0.0, 2e-6), 0.0);
        assert_eq!(t.translate_exact(-5.0, 2e-6), 0.0);
        assert_eq!(t.translate_with_tb_error(0.0, 0.1), 0.0);
    }

    #[test]
    fn exact_solution_satisfies_equation_five() {
        let t = RateTranslator::default();
        for &cp in &[5_000.0, 20_000.0, 60_000.0, 150_000.0] {
            for &ber in &[1e-6, 3e-6, 5e-6] {
                let ct = t.translate_exact(cp, ber);
                let l = ct as u64;
                let tb_err = tb_error_probability(l, ber);
                let reconstructed_cp = ct + ct * tb_err + PROTOCOL_OVERHEAD * cp;
                // The residual comes from L being truncated to whole bits.
                assert!(
                    (reconstructed_cp - cp).abs() / cp < 1e-4,
                    "cp={cp} ber={ber}: reconstructed {reconstructed_cp}"
                );
            }
        }
    }

    #[test]
    fn goodput_is_below_physical_capacity_and_monotone() {
        let t = RateTranslator::default();
        let mut prev = 0.0;
        for i in 1..=100 {
            let cp = i as f64 * 2_000.0;
            let ct = t.translate_exact(cp, 3e-6);
            assert!(ct < cp);
            assert!(ct > 0.8 * cp * (1.0 - PROTOCOL_OVERHEAD) / 2.0);
            assert!(ct >= prev);
            prev = ct;
        }
    }

    #[test]
    fn higher_ber_gives_lower_goodput() {
        let t = RateTranslator::default();
        let good = t.translate_exact(60_000.0, 1e-6);
        let bad = t.translate_exact(60_000.0, 5e-6);
        assert!(good > bad);
    }

    #[test]
    fn table_matches_exact_solver_within_quantisation() {
        let mut t = RateTranslator::default();
        for &cp in &[9_800.0, 33_333.0, 120_007.0] {
            let table = t.translate(cp, 2e-6);
            let exact = t.translate_exact(cp, 2e-6);
            assert!(
                (table - exact).abs() <= 600.0,
                "cp={cp}: table {table} vs exact {exact}"
            );
        }
        assert!(t.table.len() >= 3);
        // Repeated lookups hit the cache (same result, no growth).
        let len = t.table.len();
        let first = t.translate(9_800.0, 2e-6);
        assert_eq!(t.translate(9_800.0, 2e-6), first);
        assert_eq!(t.table.len(), len);
    }

    #[test]
    fn measured_tb_error_variant_is_consistent() {
        let t = RateTranslator::default();
        // With a 10 % TB error rate, goodput ≈ Cp(1-γ)/1.1.
        let ct = t.translate_with_tb_error(50_000.0, 0.1);
        assert!((ct - 50_000.0 * 0.932 / 1.1).abs() < 1e-6);
    }

    #[test]
    fn overhead_fractions_match_paper_fig6a_shape() {
        // Paper Fig. 6a: protocol overhead is flat at ~6.8 %; retransmission
        // overhead grows with offered load and is larger on the weak link.
        let t = RateTranslator::default();
        let (retx_low, proto) = t.overhead_fraction(6_000.0, 2e-6);
        let (retx_high, _) = t.overhead_fraction(40_000.0, 2e-6);
        let (retx_weak, _) = t.overhead_fraction(40_000.0, 5e-6);
        assert_eq!(proto, PROTOCOL_OVERHEAD);
        assert!(retx_high > retx_low);
        assert!(retx_weak > retx_high);
        assert!(
            retx_weak < 0.20,
            "retransmission overhead stays plausible: {retx_weak}"
        );
    }

    #[test]
    fn eqn_five_roundtrips_from_goodput_to_capacity_and_back() {
        // Eqn. 5 forward: Cp = Ct·(1 + ε(L, BER)) + γ·Cp, i.e.
        // Cp = Ct·(1 + ε) / (1 − γ).  Starting from a goodput Ct, build the
        // physical capacity the equation implies, then solve backwards with
        // the bisection solver: the round trip must land on the original Ct.
        let t = RateTranslator::default();
        for &ct in &[4_000.0f64, 17_500.0, 48_000.0, 96_000.0, 141_000.0] {
            for &ber in &[5e-7, 2e-6, 5e-6] {
                let eps = tb_error_probability(ct as u64, ber);
                let cp = ct * (1.0 + eps) / (1.0 - PROTOCOL_OVERHEAD);
                let back = t.translate_exact(cp, ber);
                assert!(
                    (back - ct).abs() / ct < 1e-3,
                    "ct={ct} ber={ber}: round-tripped to {back}"
                );
            }
        }
    }

    #[test]
    fn measured_tb_error_roundtrip_is_exact() {
        // The measured-retransmission variant is closed-form, so its round
        // trip is exact to floating-point: Cp = Ct·(1+r)/(1−γ).
        let t = RateTranslator::default();
        for &ct in &[1_000.0f64, 30_000.0, 120_000.0] {
            for &r in &[0.0, 0.06, 0.25, 1.0] {
                let cp = ct * (1.0 + r) / (1.0 - PROTOCOL_OVERHEAD);
                let back = t.translate_with_tb_error(cp, r);
                assert!((back - ct).abs() < 1e-6, "ct={ct} r={r}: {back}");
            }
        }
    }

    #[test]
    fn table_lookup_roundtrips_within_quantisation() {
        // The lookup table quantises Cp to 500-bit steps; the round trip
        // through the table must stay within one step of the exact solver.
        let mut t = RateTranslator::default();
        for &ct in &[9_000.0f64, 52_345.0, 133_700.0] {
            let eps = tb_error_probability(ct as u64, 2e-6);
            let cp = ct * (1.0 + eps) / (1.0 - PROTOCOL_OVERHEAD);
            let back = t.translate(cp, 2e-6);
            assert!(
                (back - ct).abs() <= 600.0,
                "ct={ct}: table round-trip gave {back}"
            );
        }
    }

    proptest! {
        #[test]
        fn translation_is_bounded_and_positive(cp in 100.0f64..300_000.0, ber in 1e-7f64..1e-5) {
            let t = RateTranslator::default();
            let ct = t.translate_exact(cp, ber);
            prop_assert!(ct > 0.0);
            prop_assert!(ct <= cp * (1.0 - PROTOCOL_OVERHEAD) + 1e-9);
            prop_assert!(ct >= cp * (1.0 - PROTOCOL_OVERHEAD) / 2.0 - 1e-9);
        }

        #[test]
        fn translation_monotone_in_cp(cp in 100.0f64..200_000.0, extra in 100.0f64..50_000.0, ber in 1e-7f64..1e-5) {
            let t = RateTranslator::default();
            prop_assert!(t.translate_exact(cp + extra, ber) >= t.translate_exact(cp, ber) - 1e-6);
        }
    }
}
