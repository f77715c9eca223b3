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
//! hands each measurement round to the UE's record
//! ([`UserEquipment::observe_a3`](crate::ue::UserEquipment::observe_a3)) and
//! reports every executed switch as a [`HandoverEvent`].

use crate::channel::rank_cells_by_rsrp;
use crate::config::{CellId, HandoverConfig, UeId};
use pbe_stats::time::Instant;
use serde::{Deserialize, Serialize};

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

/// One UE's A3 timer and ping-pong guard (its L3 filters live in the
/// per-cell rows of its [`UserEquipment`](crate::ue::UserEquipment)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct A3State {
    /// The neighbour currently satisfying the A3 condition, if any.
    pub a3_candidate: Option<CellId>,
    /// When `a3_candidate` first satisfied the condition.
    pub a3_since: Instant,
    /// Time of the UE's last executed handover (ping-pong guard).
    pub last_handover: Option<Instant>,
}

/// True if `now` lands on a neighbour-measurement subframe.
pub fn is_measurement_subframe(config: &HandoverConfig, now: Instant) -> bool {
    now.as_millis()
        .is_multiple_of(config.measurement_period_ms.max(1))
}

/// Evaluate the A3 event on one measurement round.  `filtered` carries the
/// L3-filtered RSRP of every configured cell (serving included) in
/// configured order, and is ranked in place; the returned cell, if any, is
/// the target the network should hand the UE over to.
pub fn observe(
    config: &HandoverConfig,
    state: &mut A3State,
    serving: CellId,
    filtered: &mut [(CellId, f64)],
    now: Instant,
) -> Option<CellId> {
    if !config.enabled {
        return None;
    }
    rank_cells_by_rsrp(filtered);
    let serving_rsrp = filtered
        .iter()
        .find(|(c, _)| *c == serving)
        .map(|(_, r)| *r)?;
    let (best, best_rsrp) = *filtered.iter().find(|(c, _)| *c != serving)?;

    // The A3 entry condition, with hysteresis.
    if best_rsrp <= serving_rsrp + config.a3_hysteresis_db {
        state.a3_candidate = None;
        return None;
    }
    // A different neighbour taking the lead restarts the timer.
    if state.a3_candidate != Some(best) {
        state.a3_candidate = Some(best);
        state.a3_since = now;
    }
    // Time-to-trigger: the condition must have held for the full window.
    if now.saturating_since(state.a3_since).as_millis() < config.time_to_trigger_ms {
        return None;
    }
    // Ping-pong guard.
    if let Some(last) = state.last_handover {
        if now.saturating_since(last).as_millis() < config.min_interval_ms {
            return None;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: CellId = CellId(0);
    const B: CellId = CellId(1);

    fn config() -> HandoverConfig {
        HandoverConfig {
            enabled: true,
            a3_hysteresis_db: 3.0,
            time_to_trigger_ms: 160,
            // Unfiltered measurements keep the arithmetic of these tests
            // exact; filtering has its own tests in `channel`.
            l3_filter_ms: 0.0,
            measurement_period_ms: 40,
            min_interval_ms: 1000,
            reacquisition_gap_ms: 40,
        }
    }

    /// A UE's A3 state under `config`.
    struct Ue(HandoverConfig, A3State);

    fn ue() -> Ue {
        Ue(config(), A3State::default())
    }

    fn run(m: &mut Ue, serving: CellId, a: f64, b: f64, t_ms: u64) -> Option<CellId> {
        let now = Instant::from_millis(t_ms);
        observe(&m.0, &mut m.1, serving, &mut [(A, a), (B, b)], now)
    }

    #[test]
    fn a3_honours_hysteresis() {
        let mut m = ue();
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
        let mut m = ue();
        // Condition satisfied from t=0; must hold 160 ms before firing.
        assert_eq!(run(&mut m, A, -90.0, -85.0, 0), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 40), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 80), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 120), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 160), Some(B));
    }

    #[test]
    fn a3_timer_resets_when_condition_lapses() {
        let mut m = ue();
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
        let mut m = ue();
        assert_eq!(run(&mut m, A, -90.0, -85.0, 0), None);
        assert_eq!(run(&mut m, A, -90.0, -85.0, 160), Some(B));
        m.1 = A3State {
            a3_candidate: None,
            a3_since: m.1.a3_since,
            last_handover: Some(Instant::from_millis(160)),
        };
        // B is now serving and A immediately looks stronger again — the
        // guard holds the UE on B for a second.
        for t in (200..1160).step_by(40) {
            assert_eq!(run(&mut m, B, -85.0, -90.0, t), None);
        }
        assert_eq!(run(&mut m, B, -85.0, -90.0, 1320), Some(A));
    }

    #[test]
    fn disabled_manager_never_triggers() {
        let mut m = Ue(
            HandoverConfig {
                enabled: false,
                ..HandoverConfig::default()
            },
            A3State::default(),
        );
        for t in (0..4000).step_by(40) {
            assert_eq!(run(&mut m, A, -100.0, -60.0, t), None);
        }
    }

    #[test]
    fn measurement_subframes_follow_the_period() {
        let c = config();
        assert!(is_measurement_subframe(&c, Instant::from_millis(0)));
        assert!(!is_measurement_subframe(&c, Instant::from_millis(39)));
        assert!(is_measurement_subframe(&c, Instant::from_millis(40)));
    }
}
