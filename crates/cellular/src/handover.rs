//! Inter-cell handover: A3-event reselection of the serving cell.
//!
//! The paper's walking and driving experiments (§6.3.2) cross cell
//! boundaries — the most violent capacity event a cellular endpoint sees:
//! the serving cell's queue, HARQ processes and control channel all move to
//! a different carrier at once.  This module is the network-side machinery:
//! per-UE L3-filtered RSRP bookkeeping over the configured cells and the
//! classic LTE *A3 event* trigger — a neighbour whose filtered RSRP exceeds
//! the serving cell's by a hysteresis margin for a full time-to-trigger
//! window becomes the new serving cell ([`HandoverConfig`]).
//!
//! The actual switch — draining the source cell's queue and in-flight HARQ
//! blocks onto the target, flushing the UE-side reordering buffer, resetting
//! carrier aggregation — lives in
//! [`ShardedNetwork::tick_into`](crate::shard::ShardedNetwork::tick_into), which
//! consults [`HandoverManager::observe`] each measurement period and reports
//! every executed switch as a [`HandoverEvent`].

use crate::channel::{rank_cells_by_rsrp, L3Filter};
use crate::config::{CellId, HandoverConfig, UeId};
use pbe_stats::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A completed change of a UE's serving cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandoverEvent {
    /// The device whose serving cell changed.
    pub ue: UeId,
    /// The source (old serving) cell.
    pub from: CellId,
    /// The target (new serving) cell.
    pub to: CellId,
    /// When the switch took effect.
    pub at: Instant,
}

/// Opaque per-UE measurement state: the L3 filters, the A3 candidate timer
/// and the ping-pong guard.  Normally internal to a [`HandoverManager`];
/// exposed as a movable value so the tick engine can migrate a UE's
/// state between shard-local managers when a handover crosses a shard
/// border ([`HandoverManager::take_ue`] / [`HandoverManager::restore_ue`]).
#[derive(Debug, Default)]
pub struct UeHandoverState {
    /// One L3 filter per measured cell.
    filters: HashMap<CellId, L3Filter>,
    /// The neighbour currently satisfying the A3 condition, if any.
    a3_candidate: Option<CellId>,
    /// When `a3_candidate` first satisfied the condition.
    a3_since: Instant,
    /// Time of the UE's last executed handover (ping-pong guard).
    last_handover: Option<Instant>,
}

/// Per-UE A3 reselection state machine for the whole network.
#[derive(Debug)]
pub struct HandoverManager {
    config: HandoverConfig,
    states: HashMap<UeId, UeHandoverState>,
    /// Scratch buffer for the per-observation cell ranking.
    ranking: Vec<(CellId, f64)>,
}

impl HandoverManager {
    /// A manager with the given trigger parameters and no UEs registered.
    pub fn new(config: HandoverConfig) -> Self {
        HandoverManager {
            config,
            states: HashMap::new(),
            ranking: Vec::new(),
        }
    }

    /// The trigger parameters.
    pub fn config(&self) -> &HandoverConfig {
        &self.config
    }

    /// True if `now` lands on a neighbour-measurement subframe.
    pub fn is_measurement_subframe(&self, now: Instant) -> bool {
        let period = self.config.measurement_period_ms.max(1);
        now.as_millis().is_multiple_of(period)
    }

    /// Fold one measurement round into the UE's filters and evaluate the A3
    /// event.  `samples` carries the raw per-cell RSRP of every configured
    /// cell (serving included) sampled this round; the returned cell, if
    /// any, is the target the network should hand the UE over to.
    pub fn observe(
        &mut self,
        ue: UeId,
        serving: CellId,
        samples: &[(CellId, f64)],
        now: Instant,
    ) -> Option<CellId> {
        if !self.config.enabled {
            return None;
        }
        let tau_ms = self.config.l3_filter_ms;
        let state = self.states.entry(ue).or_default();

        // L3-filter every measured cell and rank by filtered RSRP.
        self.ranking.clear();
        for (cell, rsrp) in samples {
            let filter = state
                .filters
                .entry(*cell)
                .or_insert_with(|| L3Filter::new(tau_ms));
            self.ranking.push((*cell, filter.update(now, *rsrp)));
        }
        rank_cells_by_rsrp(&mut self.ranking);

        let serving_rsrp = self
            .ranking
            .iter()
            .find(|(c, _)| *c == serving)
            .map(|(_, r)| *r)?;
        let (best, best_rsrp) = *self.ranking.iter().find(|(c, _)| *c != serving)?;

        // The A3 entry condition, with hysteresis.
        if best_rsrp <= serving_rsrp + self.config.a3_hysteresis_db {
            state.a3_candidate = None;
            return None;
        }
        // A different neighbour taking the lead restarts the timer.
        if state.a3_candidate != Some(best) {
            state.a3_candidate = Some(best);
            state.a3_since = now;
        }
        // Time-to-trigger: the condition must have held for the full window.
        if now.saturating_since(state.a3_since).as_millis() < self.config.time_to_trigger_ms {
            return None;
        }
        // Ping-pong guard.
        if let Some(last) = state.last_handover {
            if now.saturating_since(last).as_millis() < self.config.min_interval_ms {
                return None;
            }
        }
        Some(best)
    }

    /// Record that a handover of `ue` was executed at `now` (resets the A3
    /// timer and arms the minimum-interval guard).
    pub fn note_handover(&mut self, ue: UeId, now: Instant) {
        let state = self.states.entry(ue).or_default();
        state.a3_candidate = None;
        state.last_handover = Some(now);
    }

    /// Remove and return a UE's measurement state.  Shard migration
    /// support: when a handover moves a UE to a cell owned by another
    /// shard, its L3 filter history and ping-pong guard must follow it to
    /// that shard's manager, or the next A3 evaluation would start from
    /// scratch and the result would depend on the shard count.
    pub fn take_ue(&mut self, ue: UeId) -> Option<UeHandoverState> {
        self.states.remove(&ue)
    }

    /// Re-insert a state previously removed with [`HandoverManager::take_ue`].
    pub fn restore_ue(&mut self, ue: UeId, state: UeHandoverState) {
        self.states.insert(ue, state);
    }

    /// The current filtered RSRP of one (UE, cell) pair, if measured.
    pub fn filtered_rsrp(&self, ue: UeId, cell: CellId) -> Option<f64> {
        self.states
            .get(&ue)
            .and_then(|s| s.filters.get(&cell))
            .and_then(|f| f.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UE: UeId = UeId(1);
    const A: CellId = CellId(0);
    const B: CellId = CellId(1);

    fn manager() -> HandoverManager {
        HandoverManager::new(HandoverConfig {
            enabled: true,
            a3_hysteresis_db: 3.0,
            time_to_trigger_ms: 160,
            // Unfiltered measurements keep the arithmetic of these tests
            // exact; filtering has its own tests in `channel`.
            l3_filter_ms: 0.0,
            measurement_period_ms: 40,
            min_interval_ms: 1000,
            reacquisition_gap_ms: 40,
        })
    }

    fn run(m: &mut HandoverManager, serving: CellId, a: f64, b: f64, t_ms: u64) -> Option<CellId> {
        m.observe(UE, serving, &[(A, a), (B, b)], Instant::from_millis(t_ms))
    }

    #[test]
    fn a3_honours_hysteresis() {
        let mut m = manager();
        // The neighbour is stronger, but within the 3 dB hysteresis: never
        // triggers no matter how long it holds.
        for t in (0..4000).step_by(40) {
            assert_eq!(run(&mut m, A, -90.0, -88.0, t), None);
        }
        // Clearing the hysteresis starts (but does not instantly fire) TTT.
        assert_eq!(run(&mut m, A, -90.0, -86.0, 4000), None);
    }

    #[test]
    fn a3_honours_time_to_trigger() {
        let mut m = manager();
        // Condition satisfied from t=0; must hold 160 ms before firing.
        assert_eq!(run(&mut m, A, -90.0, -85.0, 0), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 40), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 80), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 120), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 160), Some(B));
    }

    #[test]
    fn a3_timer_resets_when_condition_lapses() {
        let mut m = manager();
        assert_eq!(run(&mut m, A, -90.0, -85.0, 0), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 80), None);
        // The neighbour dips back inside the hysteresis: timer restarts.
        assert_eq!(run(&mut m, A, -90.0, -89.0, 120), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 160), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 280), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 320), Some(B));
    }

    #[test]
    fn min_interval_suppresses_ping_pong() {
        let mut m = manager();
        assert_eq!(run(&mut m, A, -90.0, -85.0, 0), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 160), Some(B));
        m.note_handover(UE, Instant::from_millis(160));
        // B is now serving and A immediately looks stronger again — the
        // guard holds the UE on B for a second.
        for t in (200..1160).step_by(40) {
            assert_eq!(run(&mut m, B, -85.0, -90.0, t), None);
        }
        assert_eq!(run(&mut m, B, -85.0, -90.0, 1320), Some(A));
    }

    #[test]
    fn disabled_manager_never_triggers() {
        let mut m = HandoverManager::new(HandoverConfig {
            enabled: false,
            ..HandoverConfig::default()
        });
        for t in (0..4000).step_by(40) {
            assert_eq!(run(&mut m, A, -100.0, -60.0, t), None);
        }
    }

    #[test]
    fn measurement_subframes_follow_the_period() {
        let m = manager();
        assert!(m.is_measurement_subframe(Instant::from_millis(0)));
        assert!(!m.is_measurement_subframe(Instant::from_millis(39)));
        assert!(m.is_measurement_subframe(Instant::from_millis(40)));
    }
}
