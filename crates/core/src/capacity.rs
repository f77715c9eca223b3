//! Wireless capacity estimation: the paper's Eqns. 1–4.
//!
//! From the windowed cell snapshots the PDCCH monitor maintains, the
//! estimator computes two physical-layer capacities, both in bits per
//! subframe (equivalently kbit/s ÷ 1000, since a subframe is 1 ms):
//!
//! * the **fair-share capacity** `Cf = Σ_i Rw_i · (Pcell_i / N_i)` (Eqns. 1
//!   and 2) — the rate this user is entitled to if every data-active user
//!   received an equal share of every aggregated cell, used during the
//!   linear-increase connection start and as the probing cap in the
//!   Internet-bottleneck state; and
//! * the **available capacity** `Cp = Σ_i Rw_i · (Pa_i + Pidle_i / N_i)`
//!   (Eqns. 3 and 4) — what the user currently gets plus its fair share of
//!   the idle PRBs, used to set the send rate in the wireless-bottleneck
//!   state.

use pbe_pdcch::monitor::CellSnapshot;
use serde::{Deserialize, Serialize};

/// The two capacity figures of merit, plus the inputs that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityEstimate {
    /// Fair-share physical-layer capacity `Cf`, bits per subframe.
    pub fair_share_bits_per_subframe: f64,
    /// Available physical-layer capacity `Cp`, bits per subframe.
    pub available_bits_per_subframe: f64,
    /// Number of aggregated cells that contributed.
    pub cells: usize,
    /// Largest per-cell competing-user count seen (diagnostics).
    pub max_active_users: usize,
}

impl CapacityEstimate {
    /// Available capacity in bits per second.
    pub fn available_bps(&self) -> f64 {
        self.available_bits_per_subframe * 1000.0
    }
}

/// Stateless estimator applying Eqns. 1–4 to monitor snapshots.
#[derive(Debug, Clone, Default)]
pub struct CapacityEstimator;

impl CapacityEstimator {
    /// New estimator.
    pub fn new() -> Self {
        CapacityEstimator
    }

    /// Apply Eqns. 1–4 to the given per-cell snapshots.
    pub fn estimate(&self, snapshots: &[CellSnapshot]) -> CapacityEstimate {
        let mut fair = 0.0;
        let mut available = 0.0;
        let mut max_users = 0usize;
        for s in snapshots {
            let n = s.active_users.max(1) as f64;
            max_users = max_users.max(s.active_users);
            let rw = s.own_bits_per_prb.max(0.0);
            // Eqn. 1–2: fair share of the whole cell.
            fair += rw * (f64::from(s.total_prbs) / n);
            // Eqn. 3–4: what we get now plus our share of what nobody uses.
            available += rw * (s.own_prbs + s.idle_prbs / n);
        }
        CapacityEstimate {
            fair_share_bits_per_subframe: fair,
            available_bits_per_subframe: available,
            cells: snapshots.len(),
            max_active_users: max_users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::config::CellId;

    fn snapshot(cell: u16, total: u16, own: f64, idle: f64, users: usize, rw: f64) -> CellSnapshot {
        CellSnapshot {
            cell: CellId(cell),
            subframe: 100,
            total_prbs: total,
            own_prbs: own,
            idle_prbs: idle,
            other_prbs: f64::from(total) - own - idle,
            active_users: users,
            detected_users: users,
            own_bits_per_prb: rw,
            own_retransmission_fraction: 0.0,
        }
    }

    #[test]
    fn single_idle_cell_gives_everything_to_the_only_user() {
        // 100-PRB cell, we currently use 20 PRBs, 80 idle, just us: Cp covers
        // the whole cell, Cf likewise.
        let est = CapacityEstimator::new().estimate(&[snapshot(0, 100, 20.0, 80.0, 1, 1000.0)]);
        assert!((est.available_bits_per_subframe - 100_000.0).abs() < 1e-6);
        assert!((est.fair_share_bits_per_subframe - 100_000.0).abs() < 1e-6);
        assert!((est.available_bps() - 100e6).abs() < 1.0);
        assert_eq!(est.cells, 1);
    }

    #[test]
    fn competing_user_halves_the_fair_share() {
        // Two active users: we keep our current 30 PRBs plus half of the 40
        // idle ones; the fair share is half the cell.
        let est = CapacityEstimator::new().estimate(&[snapshot(0, 100, 30.0, 40.0, 2, 1000.0)]);
        assert!((est.fair_share_bits_per_subframe - 50_000.0).abs() < 1e-6);
        assert!((est.available_bits_per_subframe - 50_000.0).abs() < 1e-6);
        assert_eq!(est.max_active_users, 2);
    }

    #[test]
    fn aggregated_cells_sum_their_capacities() {
        // Paper §4.1: with carrier aggregation the per-cell target rates are
        // computed separately and summed.
        let est = CapacityEstimator::new().estimate(&[
            snapshot(0, 100, 50.0, 0.0, 2, 1000.0),
            snapshot(1, 50, 10.0, 20.0, 1, 800.0),
        ]);
        // Cell 0: 1000 * (50 + 0/2) = 50_000; cell 1: 800 * (10 + 20) = 24_000.
        assert!((est.available_bits_per_subframe - 74_000.0).abs() < 1e-6);
        // Fair: 1000*(100/2) + 800*(50/1) = 50_000 + 40_000.
        assert!((est.fair_share_bits_per_subframe - 90_000.0).abs() < 1e-6);
        assert_eq!(est.cells, 2);
    }

    #[test]
    fn higher_physical_rate_scales_capacity() {
        let slow = CapacityEstimator::new().estimate(&[snapshot(0, 100, 10.0, 50.0, 1, 500.0)]);
        let fast = CapacityEstimator::new().estimate(&[snapshot(0, 100, 10.0, 50.0, 1, 1500.0)]);
        assert!(
            (fast.available_bits_per_subframe / slow.available_bits_per_subframe - 3.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn eqns_one_to_four_match_hand_computation_across_three_cells() {
        // Hand-computed reference for the full Eqns. 1–4 pipeline on a
        // three-carrier snapshot set with different physical rates and
        // competitor counts per cell:
        //
        //   cell 0: Pcell=100, Pa=22.5, Pidle=31.5, N=3, Rw=1375.0
        //   cell 1: Pcell= 50, Pa= 8.0, Pidle=12.0, N=2, Rw= 980.0
        //   cell 2: Pcell= 25, Pa= 4.0, Pidle= 0.0, N=1, Rw= 660.0
        //
        // Eqn. 2 (fair): Σ Rw_i · Pcell_i / N_i
        //   = 1375·100/3 + 980·50/2 + 660·25/1
        //   = 45833.333… + 24500 + 16500 = 86833.333…
        // Eqn. 4 (available): Σ Rw_i · (Pa_i + Pidle_i / N_i)
        //   = 1375·(22.5 + 10.5) + 980·(8 + 6) + 660·(4 + 0)
        //   = 45375 + 13720 + 2640 = 61735
        let est = CapacityEstimator::new().estimate(&[
            snapshot(0, 100, 22.5, 31.5, 3, 1375.0),
            snapshot(1, 50, 8.0, 12.0, 2, 980.0),
            snapshot(2, 25, 4.0, 0.0, 1, 660.0),
        ]);
        assert!((est.fair_share_bits_per_subframe - 86_833.333_333_333_34).abs() < 1e-6);
        assert!((est.available_bits_per_subframe - 61_735.0).abs() < 1e-9);
        assert_eq!(est.cells, 3);
        assert_eq!(est.max_active_users, 3);
        // bits/subframe → bits/s is a flat ×1000 (1 ms subframes).
        assert!((est.available_bps() - 61_735_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_active_users_is_clamped_to_one() {
        // N is "competing users including self", so a snapshot reporting 0
        // (possible before any grant is decoded) must behave like N = 1
        // rather than divide by zero.
        let est = CapacityEstimator::new().estimate(&[snapshot(0, 100, 0.0, 100.0, 0, 500.0)]);
        assert!((est.available_bits_per_subframe - 50_000.0).abs() < 1e-9);
        assert!((est.fair_share_bits_per_subframe - 50_000.0).abs() < 1e-9);
        assert!(est.available_bits_per_subframe.is_finite());
    }

    #[test]
    fn empty_snapshot_list_is_zero_capacity() {
        let est = CapacityEstimator::new().estimate(&[]);
        assert_eq!(est.available_bits_per_subframe, 0.0);
        assert_eq!(est.fair_share_bits_per_subframe, 0.0);
        assert_eq!(est.cells, 0);
    }

    #[test]
    fn new_idle_capacity_is_detected_immediately() {
        // Before: another user occupies 60 PRBs.  After it leaves, those PRBs
        // show up as idle and our estimate jumps by our share of them.
        let before = CapacityEstimator::new().estimate(&[snapshot(0, 100, 40.0, 0.0, 2, 1000.0)]);
        let after = CapacityEstimator::new().estimate(&[snapshot(0, 100, 40.0, 60.0, 1, 1000.0)]);
        assert!(after.available_bits_per_subframe > before.available_bits_per_subframe + 50_000.0);
    }
}
