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
use std::collections::HashMap;

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

/// Opaque per-UE carrier-aggregation state: the active-cell count, the
/// activation/deactivation streaks and the ever-aggregated flag.  Normally
/// internal to a [`CarrierAggregationManager`]; exposed as a movable value
/// so the tick engine can migrate a UE's state between shard-local
/// managers when a handover crosses a shard border
/// ([`CarrierAggregationManager::take_ue`] /
/// [`CarrierAggregationManager::restore_ue`]).
#[derive(Debug, Clone, Default)]
pub struct UeCaState {
    /// Number of currently active cells (prefix of the configured list).
    active: usize,
    /// Consecutive subframes of high utilisation.
    high_streak: u64,
    /// Consecutive subframes of low utilisation of the last active cell.
    low_streak: u64,
    /// Whether a secondary cell was ever activated (for Fig. 15).
    ever_aggregated: bool,
}

/// Per-UE carrier-aggregation controller for the whole network.
#[derive(Debug, Default)]
pub struct CarrierAggregationManager {
    states: HashMap<UeId, UeCaState>,
}

/// Per-subframe observation of one UE used to drive the CA state machine.
#[derive(Debug, Clone, Copy)]
pub struct CaObservation {
    /// PRBs allocated to the UE this subframe, summed over its active cells.
    pub allocated_prbs: u32,
    /// Total PRBs of the UE's currently active cells.
    pub active_cell_prbs: u32,
    /// Bits still queued for the UE at the base station (all active cells).
    pub queued_bits: u64,
}

impl CarrierAggregationManager {
    /// New manager with no users registered.
    pub fn new() -> Self {
        CarrierAggregationManager::default()
    }

    /// Register a user (starts with only the primary cell active).
    pub fn register(&mut self, ue: UeId) {
        self.states.entry(ue).or_insert(UeCaState {
            active: 1,
            ..UeCaState::default()
        });
    }

    /// Number of active cells for a user (at least 1 once registered).
    pub fn active_cells(&self, ue: UeId) -> usize {
        self.states.get(&ue).map(|s| s.active.max(1)).unwrap_or(1)
    }

    /// The prefix of the UE's configured cell list that is currently active.
    pub fn active_cell_ids(&self, ue_config: &UeConfig) -> Vec<CellId> {
        let n = self
            .active_cells(ue_config.id)
            .min(ue_config.max_aggregated_cells)
            .min(ue_config.configured_cells.len());
        ue_config.configured_cells[..n].to_vec()
    }

    /// Collapse a UE back to its primary cell only (used by the handover
    /// procedure: the connection re-establishes on the target cell and
    /// secondaries re-activate on demand).  `ever_aggregated` is preserved.
    pub fn reset(&mut self, ue: UeId) {
        if let Some(state) = self.states.get_mut(&ue) {
            state.active = 1;
            state.high_streak = 0;
            state.low_streak = 0;
        }
    }

    /// Remove and return a UE's CA state.  Shard migration support: the
    /// `ever_aggregated` flag (and any mid-streak counters) must follow the
    /// UE to its new shard's manager, or the result would depend on the
    /// shard count.
    pub fn take_ue(&mut self, ue: UeId) -> Option<UeCaState> {
        self.states.remove(&ue)
    }

    /// Re-insert a state previously removed with
    /// [`CarrierAggregationManager::take_ue`].
    pub fn restore_ue(&mut self, ue: UeId, state: UeCaState) {
        self.states.insert(ue, state);
    }

    /// True if the UE ever had more than one active cell.
    pub fn ever_aggregated(&self, ue: UeId) -> bool {
        self.states
            .get(&ue)
            .map(|s| s.ever_aggregated)
            .unwrap_or(false)
    }

    /// Update the CA state machine of one UE with this subframe's
    /// observation.  Returns an event if a cell was activated or deactivated.
    pub fn observe(
        &mut self,
        config: &CellularConfig,
        ue_config: &UeConfig,
        obs: CaObservation,
        now: Instant,
    ) -> Option<CaEvent> {
        let state = self.states.entry(ue_config.id).or_insert(UeCaState {
            active: 1,
            ..UeCaState::default()
        });
        let max_cells = ue_config
            .max_aggregated_cells
            .min(ue_config.configured_cells.len());
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
            queued_bits: 1_000_000,
        }
    }

    fn low_obs(active_prbs: u32) -> CaObservation {
        CaObservation {
            allocated_prbs: 10,
            active_cell_prbs: active_prbs,
            queued_bits: 0,
        }
    }

    #[test]
    fn sustained_high_utilisation_activates_secondary_cell() {
        let cfg = config();
        let uc = ue_config(3);
        let mut ca = CarrierAggregationManager::new();
        ca.register(UeId(1));
        let mut event = None;
        for sf in 0..200u64 {
            if let Some(e) = ca.observe(&cfg, &uc, high_obs(), Instant::from_millis(sf)) {
                event = Some(e);
                break;
            }
        }
        let e = event.expect("activation happens");
        assert!(e.activated);
        assert_eq!(e.cell, CellId(1));
        assert_eq!(e.at, Instant::from_millis(49));
        assert_eq!(ca.active_cells(UeId(1)), 2);
        assert!(ca.ever_aggregated(UeId(1)));
        assert_eq!(ca.active_cell_ids(&uc), vec![CellId(0), CellId(1)]);
    }

    #[test]
    fn activation_respects_device_limit() {
        let cfg = config();
        let uc = ue_config(1); // Redmi 8: single cell only.
        let mut ca = CarrierAggregationManager::new();
        ca.register(UeId(1));
        for sf in 0..1000u64 {
            assert!(ca
                .observe(&cfg, &uc, high_obs(), Instant::from_millis(sf))
                .is_none());
        }
        assert_eq!(ca.active_cells(UeId(1)), 1);
        assert!(!ca.ever_aggregated(UeId(1)));
    }

    #[test]
    fn brief_bursts_do_not_activate() {
        let cfg = config();
        let uc = ue_config(3);
        let mut ca = CarrierAggregationManager::new();
        ca.register(UeId(1));
        for sf in 0..500u64 {
            // Alternate high and low so the streak never reaches 50.
            let obs = if sf % 10 < 5 {
                high_obs()
            } else {
                low_obs(100)
            };
            assert!(ca
                .observe(&cfg, &uc, obs, Instant::from_millis(sf))
                .is_none());
        }
        assert_eq!(ca.active_cells(UeId(1)), 1);
    }

    #[test]
    fn idle_secondary_cell_is_deactivated() {
        let cfg = config();
        let uc = ue_config(2);
        let mut ca = CarrierAggregationManager::new();
        ca.register(UeId(1));
        // Drive to activation first.
        let mut activated = false;
        for sf in 0..200u64 {
            if ca
                .observe(&cfg, &uc, high_obs(), Instant::from_millis(sf))
                .is_some()
            {
                activated = true;
                break;
            }
        }
        assert!(activated);
        // Now the user's demand collapses: allocations easily fit the primary
        // cell alone (150 PRBs active, user takes 10).
        let mut deactivated = None;
        for sf in 200..1000u64 {
            if let Some(e) = ca.observe(&cfg, &uc, low_obs(150), Instant::from_millis(sf)) {
                deactivated = Some(e);
                break;
            }
        }
        let e = deactivated.expect("deactivation happens");
        assert!(!e.activated);
        assert_eq!(e.cell, CellId(1));
        assert_eq!(ca.active_cells(UeId(1)), 1);
        // ever_aggregated stays true after deactivation (Fig. 15 counts it).
        assert!(ca.ever_aggregated(UeId(1)));
    }

    #[test]
    fn unregistered_ue_defaults_to_one_cell() {
        let ca = CarrierAggregationManager::new();
        assert_eq!(ca.active_cells(UeId(9)), 1);
        assert!(!ca.ever_aggregated(UeId(9)));
    }
}
