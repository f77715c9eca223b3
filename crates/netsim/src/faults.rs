//! Deterministic fault injection: the schedule of everything that goes
//! wrong, on purpose, in one simulation run.
//!
//! A [`FaultSchedule`] is part of [`SimConfig`](crate::SimConfig) (an
//! optional field; `None` or an empty schedule leaves every content key
//! untouched) and describes three fault families, all keyed purely by
//! simulation time and configuration — never by wall clock or thread timing
//! — so a faulted run is as reproducible as a healthy one:
//!
//! * **Cell outages** ([`CellOutage`]): the cell stops scheduling for a
//!   window.  Resident UEs see the cell at the RLF floor (−200 dBm), declare
//!   radio-link failure after [`FaultSchedule::rlf_detection_ms`], and
//!   re-select the best surviving configured cell through the existing
//!   A3/X2 handover machinery (queued data forwarded, RLC re-established).
//! * **Backhaul link flaps** ([`LinkFlap`]): the link carries nothing for
//!   the window.  Queued packets drain when the link returns or drop at
//!   admission, per [`FlapPolicy`], and flows whose route crosses the
//!   flapped link re-route over the aggregation default path while it is
//!   down.
//! * **Control-channel decode loss** ([`DecodeLossBurst`]): the PDCCH
//!   decoder of one flow sees a gap.  PBE-CC's receiver pipeline rides the
//!   burst on its held estimate (the PR-4 estimate-hold path) and
//!   re-converges once decoding resumes.
//!
//! Every fault surfaces as a `SimEvent::Fault*` variant on the observer
//! stream, and the metrics collector folds them into
//! [`SimResult::fault_recovery`](crate::SimResult) — time-to-reconnect,
//! packets stranded, and the capacity-estimate error accumulated while the
//! fault was active.

use pbe_cellular::config::CellId;
use serde::{Deserialize, Serialize};

/// RSRP reported for a cell that is down: far below any A3 threshold, so
/// handover evaluation never selects an out-of-service cell.
pub use pbe_cellular::network::OUTAGE_RSRP_DBM;

/// Default radio-link-failure detection delay, milliseconds (how long a
/// cell must be dark before its residents re-select).
pub const DEFAULT_RLF_DETECTION_MS: u64 = 40;

/// One scheduled cell outage: the cell schedules nothing in
/// `[start_ms, end_ms)` and its resident UEs declare RLF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutage {
    /// The cell that goes dark.
    pub cell: CellId,
    /// First simulated millisecond of the outage.
    pub start_ms: u64,
    /// First simulated millisecond after the outage (exclusive).
    pub end_ms: u64,
}

/// What happens to traffic that reaches a flapped backhaul link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FlapPolicy {
    /// Packets wait in the link queue and serialize once the flap ends
    /// (subject to the normal queue capacity).
    #[default]
    Drain,
    /// Packets arriving during the flap are dropped at admission.
    Drop,
}

/// One scheduled backhaul link flap: the named link carries nothing in
/// `[start_ms, end_ms)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// Name of the flapped link (a `BackhaulLinkSpec::name`).
    pub link: String,
    /// First simulated millisecond of the flap.
    pub start_ms: u64,
    /// First simulated millisecond after the flap (exclusive).
    pub end_ms: u64,
    /// Queueing policy while the link is down.
    pub policy: FlapPolicy,
}

/// One scheduled control-channel decode-loss burst: the flow's PDCCH
/// pipeline decodes nothing in `[start_ms, end_ms)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeLossBurst {
    /// The affected flow.
    pub flow: u32,
    /// First simulated millisecond of the burst.
    pub start_ms: u64,
    /// First simulated millisecond after the burst (exclusive).
    pub end_ms: u64,
}

/// The complete fault schedule of one run.
///
/// Empty by default (and elided from content keys when empty), so a config
/// without faults hashes and runs exactly as before the subsystem existed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Scheduled cell outages.
    pub cell_outages: Vec<CellOutage>,
    /// Scheduled backhaul link flaps.
    pub link_flaps: Vec<LinkFlap>,
    /// Scheduled control-channel decode-loss bursts.
    pub decode_loss: Vec<DecodeLossBurst>,
    /// Milliseconds a cell must be dark before its resident UEs declare
    /// radio-link failure and re-select (3GPP T310-style timer, scaled to
    /// the simulator's subframe clock).  `None` means
    /// [`DEFAULT_RLF_DETECTION_MS`].
    pub rlf_detection_ms: Option<u64>,
}

impl FaultSchedule {
    /// A schedule with no faults at all (what `SimConfig` defaults to).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// The RLF detection delay in force, applying the default when the
    /// schedule does not override it.
    pub fn rlf_detection(&self) -> u64 {
        self.rlf_detection_ms.unwrap_or(DEFAULT_RLF_DETECTION_MS)
    }

    /// True if `cell` is scheduled down at millisecond `t_ms`.
    pub fn cell_is_down(&self, cell: CellId, t_ms: u64) -> bool {
        self.cell_outages
            .iter()
            .any(|o| o.cell == cell && (o.start_ms..o.end_ms).contains(&t_ms))
    }
}

/// The fault family a recovery record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A scheduled cell outage.
    CellOutage,
    /// A scheduled backhaul link flap.
    LinkFlap,
    /// A scheduled control-channel decode-loss burst.
    DecodeLoss,
}

/// Recovery metrics of one injected fault, assembled by the metrics
/// collector and reported in [`SimResult::fault_recovery`](crate::SimResult).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecoveryRecord {
    /// Which fault family this record describes.
    pub kind: FaultKind,
    /// Human-readable fault target: the cell id, link name, or flow id.
    pub target: String,
    /// Scheduled start of the fault window.
    pub start_ms: u64,
    /// Scheduled end of the fault window.
    pub end_ms: u64,
    /// UEs resident on the faulted element when the fault hit (cell
    /// outages only; empty otherwise).
    pub affected_ues: Vec<u32>,
    /// Per-UE time-to-reconnect in milliseconds, measured from the outage
    /// start to the RLF re-selection that moved the UE to a live cell.
    pub reconnect_ms: Vec<(u32, u64)>,
    /// Downlink packets still queued at the faulted cell when its residents
    /// re-selected (data the RLF could not forward).
    pub packets_stranded: u64,
    /// Mean relative capacity-estimate error during the fault window,
    /// against the last estimate before the fault (0 when no flow produced
    /// estimates in the window).
    pub estimate_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_empty_and_elides_to_nothing() {
        let s = FaultSchedule::default();
        assert_eq!(s, FaultSchedule::none());
        assert_eq!(s.rlf_detection(), DEFAULT_RLF_DETECTION_MS);
        let mut s = FaultSchedule::none();
        s.rlf_detection_ms = Some(100);
        assert_eq!(s.rlf_detection(), 100, "explicit value wins");
    }

    #[test]
    fn validate_rejects_empty_windows() {
        use crate::{ConfigError, SchemeChoice, SimConfig, Simulation};
        let validate = |faults: &FaultSchedule| {
            let mut cfg = SimConfig::single_flow(
                SchemeChoice::Pbe,
                pbe_stats::time::Duration::from_millis(10),
                pbe_cellular::traffic::CellLoadProfile::none(),
                1,
            );
            cfg.faults = Some(faults.clone());
            Simulation::new(cfg).validate()
        };
        let mut s = FaultSchedule::none();
        s.cell_outages.push(CellOutage {
            cell: CellId(1),
            start_ms: 100,
            end_ms: 100,
        });
        let empty = ConfigError::EmptyWindow(FaultKind::CellOutage, "cell1".into(), 100, 100);
        assert_eq!(validate(&s), Err(empty));
        s.cell_outages[0].end_ms = 200;
        assert_eq!(validate(&s), Ok(()));
        s.decode_loss.push(DecodeLossBurst {
            flow: 1,
            start_ms: 5,
            end_ms: 4,
        });
        let reversed = ConfigError::EmptyWindow(FaultKind::DecodeLoss, "1".into(), 5, 4);
        assert_eq!(validate(&s), Err(reversed));
        s.decode_loss.clear();
        s.link_flaps.push(LinkFlap {
            link: "agg".into(),
            start_ms: 5,
            end_ms: 4,
            policy: FlapPolicy::Drop,
        });
        let flap = ConfigError::EmptyWindow(FaultKind::LinkFlap, "agg".into(), 5, 4);
        assert_eq!(validate(&s), Err(flap));
    }

    #[test]
    fn cell_outage_window_is_half_open() {
        let mut s = FaultSchedule::none();
        s.cell_outages.push(CellOutage {
            cell: CellId(2),
            start_ms: 100,
            end_ms: 200,
        });
        assert!(!s.cell_is_down(CellId(2), 99));
        assert!(s.cell_is_down(CellId(2), 100));
        assert!(s.cell_is_down(CellId(2), 199));
        assert!(!s.cell_is_down(CellId(2), 200));
        assert!(!s.cell_is_down(CellId(3), 150));
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let mut s = FaultSchedule::none();
        s.cell_outages.push(CellOutage {
            cell: CellId(0),
            start_ms: 1_000,
            end_ms: 2_000,
        });
        s.link_flaps.push(LinkFlap {
            link: "cell0".into(),
            start_ms: 500,
            end_ms: 900,
            policy: FlapPolicy::Drain,
        });
        s.decode_loss.push(DecodeLossBurst {
            flow: 1,
            start_ms: 3_000,
            end_ms: 3_200,
        });
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
