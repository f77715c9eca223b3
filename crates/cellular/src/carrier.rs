//! Carrier aggregation: secondary-cell activation and deactivation.
//!
//! By default a user is served by its primary component carrier only.  When
//! the user consumes a large fraction of the bandwidth of its serving
//! cell(s) — the paper notes that queue build-up is *not* a prerequisite —
//! the network activates the next configured secondary cell, abruptly adding
//! capacity; when the extra capacity goes unused for a while the secondary
//! cell is deactivated, abruptly removing it (paper §3, Fig. 2).  These
//! capacity steps are precisely the events PBE-CC reacts to faster than
//! end-to-end algorithms can.

use crate::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_stats::time::Instant;
use serde::{Deserialize, Serialize};

/// A carrier activation or deactivation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaEvent {
    /// The user whose cell set changed.
    pub ue: UeId,
    /// The secondary cell involved.
    pub cell: CellId,
    /// True for activation, false for deactivation.
    pub activated: bool,
    /// When the change took effect.
    pub at: Instant,
}

/// One UE's carrier-aggregation state, kept in its
/// [`UserEquipment`](crate::ue::UserEquipment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaState {
    /// Number of currently active cells (prefix of the configured list).
    pub active: usize,
    /// Consecutive subframes of high utilisation.
    pub high_streak: u64,
    /// Consecutive subframes of low utilisation of the last active cell.
    pub low_streak: u64,
    /// Whether a secondary cell was ever activated (for Fig. 15).
    pub ever_aggregated: bool,
}

impl Default for CaState {
    /// Only the primary cell active.
    fn default() -> Self {
        CaState {
            active: 1,
            high_streak: 0,
            low_streak: 0,
            ever_aggregated: false,
        }
    }
}

/// Per-subframe observation of one UE used to drive the CA state machine.
#[derive(Debug, Clone, Copy)]
pub struct CaObservation {
    /// PRBs allocated to the UE this subframe, summed over its active cells.
    pub allocated_prbs: u32,
    /// Total PRBs of the UE's currently active cells.
    pub active_cell_prbs: u32,
}

/// The number of cells a UE can aggregate: its device limit, capped by its
/// configured cells.
pub(crate) fn max_cells(ue_config: &UeConfig) -> usize {
    ue_config
        .max_aggregated_cells
        .min(ue_config.configured_cells.len())
}

/// True if [`observe`] on a subframe that allocates the UE nothing would
/// change nothing: one active cell, no activation streak under way, and
/// either no secondary cell to activate or an activation threshold that zero
/// utilisation misses.
pub fn is_quiescent(config: &CellularConfig, ue_config: &UeConfig, state: &CaState) -> bool {
    state.active == 1
        && state.high_streak == 0
        && (max_cells(ue_config) <= 1 || config.ca_activation_utilisation > 0.0)
}

/// Update the CA state machine of one UE with this subframe's observation.
/// Returns an event if a cell was activated or deactivated.
pub fn observe(
    config: &CellularConfig,
    ue_config: &UeConfig,
    state: &mut CaState,
    obs: CaObservation,
    now: Instant,
) -> Option<CaEvent> {
    let max_cells = max_cells(ue_config);
    let utilisation = if obs.active_cell_prbs == 0 {
        0.0
    } else {
        f64::from(obs.allocated_prbs) / f64::from(obs.active_cell_prbs)
    };

    // Activation: the user is consuming a large fraction of its serving
    // cells' bandwidth.  Per the paper (§3), queue build-up is *not* a
    // prerequisite — a rate-based sender pacing at link capacity keeps
    // the queue empty yet still warrants a secondary carrier, so the
    // utilisation of the serving cells is the only trigger.
    let wants_more = utilisation >= config.ca_activation_utilisation;
    if wants_more && state.active < max_cells {
        state.high_streak += 1;
        if state.high_streak >= config.ca_activation_subframes {
            state.active += 1;
            state.high_streak = 0;
            state.low_streak = 0;
            state.ever_aggregated = true;
            let cell = ue_config.configured_cells[state.active - 1];
            return Some(CaEvent {
                ue: ue_config.id,
                cell,
                activated: true,
                at: now,
            });
        }
    } else {
        state.high_streak = 0;
    }

    // Deactivation: with more than one active cell, if the user's
    // aggregate usage would fit comfortably in one fewer cell, the last
    // activated cell is released.
    if state.active > 1 {
        let last_cell = ue_config.configured_cells[state.active - 1];
        let last_cell_prbs = config
            .cell(last_cell)
            .map(|c| u32::from(c.total_prbs()))
            .unwrap_or(0);
        let without_last = obs.active_cell_prbs.saturating_sub(last_cell_prbs);
        let fits_without_last = without_last > 0
            && f64::from(obs.allocated_prbs)
                <= config.ca_deactivation_utilisation * f64::from(without_last);
        if fits_without_last {
            state.low_streak += 1;
            if state.low_streak >= config.ca_deactivation_subframes {
                state.active -= 1;
                state.low_streak = 0;
                state.high_streak = 0;
                return Some(CaEvent {
                    ue: ue_config.id,
                    cell: last_cell,
                    activated: false,
                    at: now,
                });
            }
        } else {
            state.low_streak = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> CellularConfig {
        CellularConfig {
            ca_activation_subframes: 50,
            ca_deactivation_subframes: 100,
            ..CellularConfig::default()
        }
    }

    fn ue_config(max_cells: usize) -> UeConfig {
        UeConfig::new(
            UeId(1),
            vec![CellId(0), CellId(1), CellId(2)],
            max_cells,
            -85.0,
        )
    }

    fn high_obs() -> CaObservation {
        CaObservation {
            allocated_prbs: 95,
            active_cell_prbs: 100,
        }
    }

    fn low_obs(active_prbs: u32) -> CaObservation {
        CaObservation {
            allocated_prbs: 10,
            active_cell_prbs: active_prbs,
        }
    }

    #[test]
    fn sustained_high_utilisation_activates_secondary_cell() {
        let cfg = config();
        let uc = ue_config(3);
        let mut ca = CaState::default();
        let mut event = None;
        for sf in 0..200u64 {
            if let Some(e) = observe(&cfg, &uc, &mut ca, high_obs(), Instant::from_millis(sf)) {
                event = Some(e);
                break;
            }
        }
        let e = event.expect("activation happens");
        assert!(e.activated);
        assert_eq!(e.cell, CellId(1));
        assert_eq!(e.at, Instant::from_millis(49));
        assert_eq!(ca.active, 2);
        assert!(ca.ever_aggregated);
        assert_eq!(uc.configured_cells[..ca.active], [CellId(0), CellId(1)]);
    }

    #[test]
    fn activation_respects_device_limit() {
        let cfg = config();
        let uc = ue_config(1); // Redmi 8: single cell only.
        let mut ca = CaState::default();
        for sf in 0..1000u64 {
            assert!(observe(&cfg, &uc, &mut ca, high_obs(), Instant::from_millis(sf)).is_none());
        }
        assert_eq!(ca.active, 1);
        assert!(!ca.ever_aggregated);
    }

    #[test]
    fn brief_bursts_do_not_activate() {
        let cfg = config();
        let uc = ue_config(3);
        let mut ca = CaState::default();
        for sf in 0..500u64 {
            // Alternate high and low so the streak never reaches 50.
            let obs = if sf % 10 < 5 {
                high_obs()
            } else {
                low_obs(100)
            };
            assert!(observe(&cfg, &uc, &mut ca, obs, Instant::from_millis(sf)).is_none());
        }
        assert_eq!(ca.active, 1);
    }

    #[test]
    fn idle_secondary_cell_is_deactivated() {
        let cfg = config();
        let uc = ue_config(2);
        let mut ca = CaState::default();
        // Drive to activation first.
        let mut activated = false;
        for sf in 0..200u64 {
            if observe(&cfg, &uc, &mut ca, high_obs(), Instant::from_millis(sf)).is_some() {
                activated = true;
                break;
            }
        }
        assert!(activated);
        // Now the user's demand collapses: allocations easily fit the primary
        // cell alone (150 PRBs active, user takes 10).
        let mut deactivated = None;
        for sf in 200..1000u64 {
            if let Some(e) = observe(&cfg, &uc, &mut ca, low_obs(150), Instant::from_millis(sf)) {
                deactivated = Some(e);
                break;
            }
        }
        let e = deactivated.expect("deactivation happens");
        assert!(!e.activated);
        assert_eq!(e.cell, CellId(1));
        assert_eq!(ca.active, 1);
        // ever_aggregated stays true after deactivation (Fig. 15 counts it).
        assert!(ca.ever_aggregated);
    }

    #[test]
    fn quiescent_means_an_unallocated_subframe_changes_nothing() {
        let zero = CaObservation {
            allocated_prbs: 0,
            ..low_obs(100)
        };
        for (util, max_cells, quiescent) in [(0.85, 3, true), (0.0, 3, false), (0.0, 1, true)] {
            let cfg = CellularConfig {
                ca_activation_utilisation: util,
                ..config()
            };
            let uc = ue_config(max_cells);
            let mut ca = CaState::default();
            assert_eq!(is_quiescent(&cfg, &uc, &ca), quiescent, "util {util}");
            let before = ca;
            observe(&cfg, &uc, &mut ca, zero, Instant::ZERO);
            assert_eq!(before == ca, quiescent, "util {util}");
        }
        // A streak under way is not quiescent, nor is an aggregated UE.
        let (cfg, uc) = (config(), ue_config(3));
        let mut ca = CaState::default();
        observe(&cfg, &uc, &mut ca, high_obs(), Instant::ZERO);
        assert!(!is_quiescent(&cfg, &uc, &ca));
        for sf in 1..200 {
            observe(&cfg, &uc, &mut ca, high_obs(), Instant::from_millis(sf));
        }
        assert_eq!(ca.active, 3);
        observe(&cfg, &uc, &mut ca, zero, Instant::from_millis(200));
        assert!(!is_quiescent(&cfg, &uc, &ca));
    }

    #[test]
    fn unregistered_ue_defaults_to_one_cell() {
        let ca = CaState::default();
        assert_eq!(ca.active, 1);
        assert!(!ca.ever_aggregated);
    }
}
