//! Cell-status monitor: from decoded control messages to capacity inputs.
//!
//! For every aggregated cell the monitor tracks, over a sliding window of the
//! most recent `RTprop` subframes (paper §4.2.1 — "we average the above
//! parameters over the most recent 40 subframes if the connection RTT is
//! 40 ms"):
//!
//! * `Pa`   — PRBs allocated to this user,
//! * `Pidle` — PRBs allocated to nobody (Eqn. 4 counts *every* identified
//!   user, including control-traffic users),
//! * `N`    — the number of *data-active* users competing for bandwidth,
//!   after filtering users whose activity time `Ta ≤ 1` subframe or average
//!   allocation `Pa ≤ 4` PRBs (the control-traffic filter of §4.2.1),
//! * `Rw`   — this user's wireless physical data rate in bits per PRB,
//!   measured from its own grants (TBS / allocated PRBs), and
//! * the fraction of this user's grants that were HARQ retransmissions (the
//!   new-data-indicator bit), used by the cross-layer rate translation.
//!
//! Each cell's window keeps running totals — own, idle and other PRBs, a
//! per-RNTI activity count `Ta` and PRB sum, own grants and retransmissions —
//! that are added when a subframe enters the window and subtracted when it is
//! evicted, so a snapshot reads them in O(users) instead of re-folding the
//! window.  They are integer sums, so they are exact: `u64 as f64` of a
//! total gives the same bits as adding the window's values one by one in
//! `f64`, and no count depends on the order subframes came and went.

use crate::fusion::FusedSubframe;
use pbe_cellular::config::{CellId, Rnti};
use pbe_cellular::dci::DciMessage;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Static configuration of the monitor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// The user's own RNTI (the same across aggregated cells in this model).
    pub own_rnti: Rnti,
    /// The cells to track and their total PRB count (`Pcell`).
    pub cells: Vec<(CellId, u16)>,
    /// Sliding-window length in subframes; the congestion-control module
    /// updates this to the measured round-trip propagation time.
    pub window_subframes: usize,
    /// Activity-time threshold of the control-traffic filter (`Ta >` this).
    pub ta_threshold: u64,
    /// Average-PRB threshold of the control-traffic filter (`Pa >` this).
    pub pa_threshold: f64,
    /// Physical rate assumed before the first own grant is observed
    /// (bits per PRB).
    pub default_bits_per_prb: f64,
}

impl MonitorConfig {
    /// Reasonable defaults: 40 ms window, the paper's Ta/Pa thresholds, and a
    /// mid-range physical rate before the first measurement.
    pub fn new(own_rnti: Rnti, cells: Vec<(CellId, u16)>) -> Self {
        MonitorConfig {
            own_rnti,
            cells,
            window_subframes: 40,
            ta_threshold: 1,
            pa_threshold: 4.0,
            default_bits_per_prb: 800.0,
        }
    }
}

/// Windowed view of one cell, the direct input to the paper's Eqns. 1–4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSnapshot {
    /// The cell.
    pub cell: CellId,
    /// Most recent subframe folded into the window.
    pub subframe: u64,
    /// Total PRBs of the cell (`Pcell`).
    pub total_prbs: u16,
    /// Average PRBs per subframe allocated to this user over the window
    /// (`Pa`).
    pub own_prbs: f64,
    /// Average PRBs per subframe left idle over the window (`Pidle`).
    pub idle_prbs: f64,
    /// Average PRBs per subframe allocated to other users.
    pub other_prbs: f64,
    /// Number of data-active users sharing the cell, after the Ta/Pa filter,
    /// including this user (`N`, always at least 1).
    pub active_users: usize,
    /// Number of distinct users observed in the window before filtering.
    pub detected_users: usize,
    /// This user's physical data rate in bits per PRB (`Rw`).
    pub own_bits_per_prb: f64,
    /// Fraction of this user's transport blocks that were retransmissions.
    pub own_retransmission_fraction: f64,
}

#[derive(Debug, Clone, Default)]
struct SubframeRecord {
    subframe: u64,
    own_prbs: u16,
    other_prbs: u16,
    idle_prbs: u16,
    /// (rnti, prbs) of every user observed this subframe.
    users: Vec<(Rnti, u16)>,
    /// Own grants: (prbs, tbs_bits, is_retransmission).
    own_grants: Vec<(u16, u32, bool)>,
}

/// Running totals over one tracker's window (see the module doc).
#[derive(Debug, Default)]
struct WindowTotals {
    own_prbs: u64,
    idle_prbs: u64,
    other_prbs: u64,
    /// `(rnti, Ta, ΣPRB)` per user seen in the window: `Ta` counts its
    /// appearances.  A user leaves when its last appearance is evicted.
    /// A `Vec`, not a map: a cell has a few dozen users at most.
    users: Vec<(Rnti, u64, u64)>,
    own_grants: u64,
    own_retransmissions: u64,
}

impl WindowTotals {
    fn add(&mut self, record: &SubframeRecord) {
        self.own_prbs += u64::from(record.own_prbs);
        self.idle_prbs += u64::from(record.idle_prbs);
        self.other_prbs += u64::from(record.other_prbs);
        for &(rnti, prbs) in &record.users {
            match self.users.iter_mut().find(|(r, _, _)| *r == rnti) {
                Some(user) => {
                    user.1 += 1;
                    user.2 += u64::from(prbs);
                }
                None => self.users.push((rnti, 1, u64::from(prbs))),
            }
        }
        for &(_, _, retx) in &record.own_grants {
            self.own_grants += 1;
            self.own_retransmissions += u64::from(retx);
        }
    }

    fn remove(&mut self, record: &SubframeRecord) {
        self.own_prbs -= u64::from(record.own_prbs);
        self.idle_prbs -= u64::from(record.idle_prbs);
        self.other_prbs -= u64::from(record.other_prbs);
        for &(rnti, prbs) in &record.users {
            let i = self
                .users
                .iter()
                .position(|(r, _, _)| *r == rnti)
                .expect("an evicted user was counted when it entered");
            let user = &mut self.users[i];
            user.1 -= 1;
            user.2 -= u64::from(prbs);
            if user.1 == 0 {
                self.users.swap_remove(i);
            }
        }
        for &(_, _, retx) in &record.own_grants {
            self.own_grants -= 1;
            self.own_retransmissions -= u64::from(retx);
        }
    }
}

#[derive(Debug, Default)]
struct CellTracker {
    total_prbs: u16,
    window: VecDeque<SubframeRecord>,
    totals: WindowTotals,
    /// The last evicted record, whose buffers the next ingest refills.
    spare: Option<SubframeRecord>,
    last_bits_per_prb: Option<f64>,
}

/// The monitor itself: one tracker per watched cell.
#[derive(Debug)]
pub struct CellStatusMonitor {
    config: MonitorConfig,
    trackers: HashMap<CellId, CellTracker>,
}

impl CellStatusMonitor {
    /// Create a monitor from its configuration.
    pub fn new(config: MonitorConfig) -> Self {
        let trackers = config
            .cells
            .iter()
            .map(|(cell, prbs)| {
                (
                    *cell,
                    CellTracker {
                        total_prbs: *prbs,
                        ..CellTracker::default()
                    },
                )
            })
            .collect();
        CellStatusMonitor { config, trackers }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Adjust the sliding window to the current round-trip propagation time
    /// (in subframes / milliseconds).
    pub fn set_window_subframes(&mut self, window: usize) {
        self.config.window_subframes = window.max(1);
    }

    /// Start tracking an additional cell (e.g. after a carrier activation).
    pub fn add_cell(&mut self, cell: CellId, total_prbs: u16) {
        if self.trackers.contains_key(&cell) {
            return;
        }
        self.config.cells.push((cell, total_prbs));
        self.trackers.insert(
            cell,
            CellTracker {
                total_prbs,
                ..CellTracker::default()
            },
        );
    }

    /// Stop tracking a cell (after a carrier deactivation).  The primary cell
    /// (the first configured cell) is never removed.
    pub fn remove_cell(&mut self, cell: CellId) {
        if self.config.cells.first().map(|(c, _)| *c) == Some(cell) {
            return;
        }
        self.config.cells.retain(|(c, _)| *c != cell);
        self.trackers.remove(&cell);
    }

    /// Cells currently tracked.
    pub fn cells(&self) -> Vec<CellId> {
        self.config.cells.iter().map(|(c, _)| *c).collect()
    }

    /// Number of subframes currently folded into a cell's window (0 if the
    /// cell is untracked or nothing has been ingested since it was added).
    pub fn window_len(&self, cell: CellId) -> usize {
        self.trackers
            .get(&cell)
            .map(|t| t.window.len())
            .unwrap_or(0)
    }

    /// Re-target the monitor after a handover: drop every tracked cell and
    /// start a fresh tracker on the new serving cell.
    ///
    /// The old serving cell's window measures a control channel the UE no
    /// longer listens to, so carrying it over would poison Eqns. 1–4; the
    /// new cell starts with an *empty* window, and callers hold their last
    /// estimate until it fills (see `PbeClient::on_handover` in `pbe-core`)
    /// rather than reading the empty-window snapshot, which reports a fully
    /// idle cell.
    pub fn handover_to(&mut self, cell: CellId, total_prbs: u16) {
        self.config.cells.clear();
        self.config.cells.push((cell, total_prbs));
        self.trackers.clear();
        self.trackers.insert(
            cell,
            CellTracker {
                total_prbs,
                ..CellTracker::default()
            },
        );
    }

    /// Fold one fused subframe of decoded control messages into the window.
    pub fn ingest(&mut self, fused: &FusedSubframe) {
        for (cell, tracker) in self.trackers.iter_mut() {
            let messages = fused.cell_messages(*cell);
            let mut record = tracker.spare.take().unwrap_or_default();
            Self::fill_record(
                &self.config,
                tracker.total_prbs,
                fused.subframe,
                messages,
                &mut record,
            );
            if let Some(rate) = Self::record_bits_per_prb(&record) {
                tracker.last_bits_per_prb = Some(rate);
            }
            tracker.totals.add(&record);
            tracker.window.push_back(record);
            while tracker.window.len() > self.config.window_subframes {
                let evicted = tracker.window.pop_front().expect("window is non-empty");
                tracker.totals.remove(&evicted);
                tracker.spare = Some(evicted);
            }
        }
    }

    /// Overwrite `record` with one subframe of a cell's messages, reusing
    /// its buffers.
    fn fill_record(
        config: &MonitorConfig,
        total_prbs: u16,
        subframe: u64,
        messages: &[DciMessage],
        record: &mut SubframeRecord,
    ) {
        record.subframe = subframe;
        record.own_prbs = 0;
        record.other_prbs = 0;
        record.users.clear();
        record.own_grants.clear();
        let mut allocated: u32 = 0;
        for m in messages {
            if !m.format.is_downlink_assignment() {
                // Uplink grants do not consume downlink PRBs but still mark
                // the user as present.
                record.users.push((m.rnti, 0));
                continue;
            }
            allocated += u32::from(m.num_prbs);
            record.users.push((m.rnti, m.num_prbs));
            if m.rnti == config.own_rnti {
                record.own_prbs += m.num_prbs;
                record
                    .own_grants
                    .push((m.num_prbs, m.tbs_bits, !m.new_data_indicator));
            } else {
                record.other_prbs += m.num_prbs;
            }
        }
        record.idle_prbs = total_prbs.saturating_sub(allocated.min(u32::from(total_prbs)) as u16);
    }

    fn record_bits_per_prb(record: &SubframeRecord) -> Option<f64> {
        let (prbs, bits) = record
            .own_grants
            .iter()
            .filter(|(_, _, retx)| !retx)
            .fold((0u32, 0u64), |(p, b), (prbs, tbs, _)| {
                (p + u32::from(*prbs), b + u64::from(*tbs))
            });
        if prbs == 0 {
            None
        } else {
            Some(bits as f64 / f64::from(prbs))
        }
    }

    /// Current windowed snapshot of one cell.
    pub fn snapshot(&self, cell: CellId) -> Option<CellSnapshot> {
        let tracker = self.trackers.get(&cell)?;
        let n = tracker.window.len();
        if n == 0 {
            return Some(CellSnapshot {
                cell,
                subframe: 0,
                total_prbs: tracker.total_prbs,
                own_prbs: 0.0,
                idle_prbs: f64::from(tracker.total_prbs),
                other_prbs: 0.0,
                active_users: 1,
                detected_users: 0,
                own_bits_per_prb: self.config.default_bits_per_prb,
                own_retransmission_fraction: 0.0,
            });
        }
        let totals = &tracker.totals;
        let nf = n as f64;
        // Ta / Pa filter: a competitor counts only if it was active for more
        // than `ta_threshold` subframes AND averaged more than `pa_threshold`
        // PRBs while active.  The user itself always counts.
        let competitors = totals
            .users
            .iter()
            .filter(|&&(rnti, ta, prbs)| {
                rnti != self.config.own_rnti
                    && ta > self.config.ta_threshold
                    && prbs as f64 / ta as f64 > self.config.pa_threshold
            })
            .count();
        let own_bits_per_prb = tracker
            .last_bits_per_prb
            .unwrap_or(self.config.default_bits_per_prb);
        Some(CellSnapshot {
            cell,
            subframe: tracker.window.back().map(|r| r.subframe).unwrap_or(0),
            total_prbs: tracker.total_prbs,
            own_prbs: totals.own_prbs as f64 / nf,
            idle_prbs: totals.idle_prbs as f64 / nf,
            other_prbs: totals.other_prbs as f64 / nf,
            active_users: competitors + 1,
            detected_users: totals.users.len(),
            own_bits_per_prb,
            own_retransmission_fraction: if totals.own_grants == 0 {
                0.0
            } else {
                totals.own_retransmissions as f64 / totals.own_grants as f64
            },
        })
    }

    /// Snapshots of every tracked cell, in configuration order.
    pub fn snapshots(&self) -> Vec<CellSnapshot> {
        let mut out = Vec::new();
        self.snapshots_into(&mut out);
        out
    }

    /// [`Self::snapshots`] into a caller-owned buffer (cleared first), so a
    /// per-subframe caller allocates nothing.
    pub fn snapshots_into(&self, out: &mut Vec<CellSnapshot>) {
        out.clear();
        out.extend(
            self.config
                .cells
                .iter()
                .filter_map(|(c, _)| self.snapshot(*c)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::dci::DciFormat;
    use pbe_cellular::mcs::McsIndex;
    use pbe_stats::DetRng;
    use proptest::prelude::*;

    const OWN: Rnti = Rnti(0x0100);
    const OTHER: Rnti = Rnti(0x0200);
    const CTRL: Rnti = Rnti(0x0300);

    fn msg(rnti: Rnti, prbs: u16, subframe: u64, ndi: bool) -> DciMessage {
        DciMessage {
            cell: CellId(0),
            subframe,
            rnti,
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: prbs,
            mcs: McsIndex(15),
            spatial_streams: 2,
            new_data_indicator: ndi,
            harq_process: 0,
            tbs_bits: u32::from(prbs) * 1_000,
        }
    }

    fn fused(subframe: u64, messages: Vec<DciMessage>) -> FusedSubframe {
        let mut per_cell = HashMap::new();
        per_cell.insert(CellId(0), messages);
        FusedSubframe { subframe, per_cell }
    }

    fn monitor() -> CellStatusMonitor {
        CellStatusMonitor::new(MonitorConfig::new(OWN, vec![(CellId(0), 100)]))
    }

    #[test]
    fn empty_monitor_reports_idle_cell() {
        let m = monitor();
        let s = m.snapshot(CellId(0)).unwrap();
        assert_eq!(s.idle_prbs, 100.0);
        assert_eq!(s.own_prbs, 0.0);
        assert_eq!(s.active_users, 1);
        assert_eq!(s.own_bits_per_prb, 800.0);
        assert!(m.snapshot(CellId(9)).is_none());
    }

    #[test]
    fn own_and_idle_prbs_are_window_averages() {
        let mut m = monitor();
        // 10 subframes: own user gets 60 PRBs, another data user 20, idle 20.
        for sf in 0..10u64 {
            m.ingest(&fused(
                sf,
                vec![msg(OWN, 60, sf, true), msg(OTHER, 20, sf, true)],
            ));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert!((s.own_prbs - 60.0).abs() < 1e-9);
        assert!((s.other_prbs - 20.0).abs() < 1e-9);
        assert!((s.idle_prbs - 20.0).abs() < 1e-9);
        assert_eq!(s.active_users, 2);
        assert_eq!(s.detected_users, 2);
        assert_eq!(s.subframe, 9);
        // TBS of 1000 bits per PRB was declared in the DCI.
        assert!((s.own_bits_per_prb - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn control_traffic_users_are_filtered_from_n_but_count_for_idle() {
        let mut m = monitor();
        for sf in 0..40u64 {
            let mut msgs = vec![msg(OWN, 50, sf, true)];
            // A one-subframe, 4-PRB control user appears in subframe 5 only.
            if sf == 5 {
                msgs.push(msg(CTRL, 4, sf, true));
            }
            m.ingest(&fused(sf, msgs));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        // The control user is detected but filtered out of N.
        assert_eq!(s.detected_users, 2);
        assert_eq!(s.active_users, 1);
        // Its PRBs still reduce the idle count in the subframe it appeared.
        let expected_idle = (39.0 * 50.0 + 46.0) / 40.0;
        assert!(
            (s.idle_prbs - expected_idle).abs() < 1e-9,
            "idle = {}",
            s.idle_prbs
        );
    }

    #[test]
    fn persistent_competitor_passes_the_filter() {
        let mut m = monitor();
        for sf in 0..40u64 {
            m.ingest(&fused(
                sf,
                vec![msg(OWN, 40, sf, true), msg(OTHER, 30, sf, true)],
            ));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert_eq!(s.active_users, 2);
    }

    #[test]
    fn low_bandwidth_competitor_is_filtered() {
        // Active many subframes but only 2 PRBs on average: Pa <= 4 fails.
        let mut m = monitor();
        for sf in 0..40u64 {
            m.ingest(&fused(
                sf,
                vec![msg(OWN, 40, sf, true), msg(OTHER, 2, sf, true)],
            ));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert_eq!(s.active_users, 1);
        assert_eq!(s.detected_users, 2);
    }

    #[test]
    fn window_slides_and_forgets_old_users() {
        let mut m = monitor();
        m.set_window_subframes(10);
        for sf in 0..10u64 {
            m.ingest(&fused(sf, vec![msg(OTHER, 30, sf, true)]));
        }
        assert_eq!(m.snapshot(CellId(0)).unwrap().active_users, 2);
        // The competitor disappears; after 10 more subframes it ages out.
        for sf in 10..20u64 {
            m.ingest(&fused(sf, vec![msg(OWN, 30, sf, true)]));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert_eq!(s.active_users, 1);
        assert_eq!(s.detected_users, 1);
    }

    #[test]
    fn retransmission_fraction_is_measured() {
        let mut m = monitor();
        for sf in 0..10u64 {
            // Every 5th grant is a retransmission (NDI = false).
            m.ingest(&fused(sf, vec![msg(OWN, 40, sf, sf % 5 != 0)]));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert!((s.own_retransmission_fraction - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rw_survives_subframes_without_own_grants() {
        let mut m = monitor();
        m.ingest(&fused(0, vec![msg(OWN, 50, 0, true)]));
        for sf in 1..20u64 {
            m.ingest(&fused(sf, vec![]));
        }
        let s = m.snapshot(CellId(0)).unwrap();
        assert!((s.own_bits_per_prb - 1000.0).abs() < 1e-9);
        assert_eq!(s.own_prbs, 50.0 / 20.0);
    }

    #[test]
    fn additional_cell_can_be_added() {
        let mut m = monitor();
        m.add_cell(CellId(1), 50);
        assert_eq!(m.cells(), vec![CellId(0), CellId(1)]);
        let s = m.snapshot(CellId(1)).unwrap();
        assert_eq!(s.total_prbs, 50);
    }

    #[test]
    fn handover_retargets_onto_a_fresh_window() {
        let mut m = monitor();
        m.add_cell(CellId(1), 50);
        for sf in 0..20u64 {
            m.ingest(&fused(sf, vec![msg(OWN, 60, sf, true)]));
        }
        assert_eq!(m.window_len(CellId(0)), 20);
        m.handover_to(CellId(2), 75);
        // Only the new serving cell remains, with an empty window; the old
        // cells' history is gone.
        assert_eq!(m.cells(), vec![CellId(2)]);
        assert_eq!(m.window_len(CellId(2)), 0);
        assert!(m.snapshot(CellId(0)).is_none());
        let s = m.snapshot(CellId(2)).unwrap();
        assert_eq!(s.total_prbs, 75);
        // The new primary survives `remove_cell` like any primary.
        m.remove_cell(CellId(2));
        assert_eq!(m.cells(), vec![CellId(2)]);
    }

    /// The snapshot as it was before the running totals: fold the whole
    /// window into a fresh per-user map.
    fn reference_snapshot(m: &CellStatusMonitor, cell: CellId) -> Option<CellSnapshot> {
        let tracker = m.trackers.get(&cell)?;
        let n = tracker.window.len();
        if n == 0 {
            return Some(CellSnapshot {
                cell,
                subframe: 0,
                total_prbs: tracker.total_prbs,
                own_prbs: 0.0,
                idle_prbs: f64::from(tracker.total_prbs),
                other_prbs: 0.0,
                active_users: 1,
                detected_users: 0,
                own_bits_per_prb: m.config.default_bits_per_prb,
                own_retransmission_fraction: 0.0,
            });
        }
        let mut own = 0.0;
        let mut idle = 0.0;
        let mut other = 0.0;
        let mut per_user: HashMap<Rnti, (u64, u64)> = HashMap::new();
        let mut own_grants = 0u64;
        let mut own_retx = 0u64;
        for rec in &tracker.window {
            own += f64::from(rec.own_prbs);
            idle += f64::from(rec.idle_prbs);
            other += f64::from(rec.other_prbs);
            for (rnti, prbs) in &rec.users {
                let e = per_user.entry(*rnti).or_insert((0, 0));
                e.0 += 1;
                e.1 += u64::from(*prbs);
            }
            for (_, _, retx) in &rec.own_grants {
                own_grants += 1;
                own_retx += u64::from(*retx);
            }
        }
        let nf = n as f64;
        let mut active_users = 0usize;
        for (rnti, (ta, total_prbs)) in &per_user {
            if *rnti == m.config.own_rnti {
                continue;
            }
            let pa = if *ta == 0 {
                0.0
            } else {
                *total_prbs as f64 / *ta as f64
            };
            if *ta > m.config.ta_threshold && pa > m.config.pa_threshold {
                active_users += 1;
            }
        }
        active_users += 1;
        Some(CellSnapshot {
            cell,
            subframe: tracker.window.back().map(|r| r.subframe).unwrap_or(0),
            total_prbs: tracker.total_prbs,
            own_prbs: own / nf,
            idle_prbs: idle / nf,
            other_prbs: other / nf,
            active_users,
            detected_users: per_user.len(),
            own_bits_per_prb: tracker
                .last_bits_per_prb
                .unwrap_or(m.config.default_bits_per_prb),
            own_retransmission_fraction: if own_grants == 0 {
                0.0
            } else {
                own_retx as f64 / own_grants as f64
            },
        })
    }

    /// One subframe of random traffic on cells 0–2: downlink grants and
    /// uplink grants (0 PRBs), new data and retransmissions, from a small
    /// RNTI pool so one RNTI often appears twice in a subframe.
    fn random_subframe(rng: &mut DetRng, subframe: u64) -> FusedSubframe {
        const RNTIS: [Rnti; 5] = [OWN, OTHER, CTRL, Rnti(0x0201), Rnti(0x0202)];
        let mut per_cell = HashMap::new();
        for cell in 0..3u16 {
            let count = rng.uniform_usize(0, 7);
            let messages = (0..count)
                .map(|_| {
                    let rnti = RNTIS[rng.uniform_usize(0, RNTIS.len())];
                    let prbs = rng.uniform_usize(0, 41) as u16;
                    let mut m = msg(rnti, prbs, subframe, rng.bernoulli(0.8));
                    m.cell = CellId(cell);
                    m.format = DciFormat::ALL[rng.uniform_usize(0, DciFormat::ALL.len())];
                    m
                })
                .collect();
            per_cell.insert(CellId(cell), messages);
        }
        FusedSubframe { subframe, per_cell }
    }

    proptest! {
        /// After every ingest, every tracked cell's snapshot from the running
        /// totals equals the fold of the whole window — through window
        /// shrinks and grows, cells added and removed, and handovers.
        #[test]
        fn running_totals_match_the_window_fold(seed in 0u64..1_000_000_000) {
            let mut rng = DetRng::new(seed);
            let mut m = monitor();
            for sf in 0..400u64 {
                let cell = CellId(rng.uniform_usize(0, 3) as u16);
                let prbs = [25u16, 50, 100][rng.uniform_usize(0, 3)];
                match rng.uniform_usize(0, 40) {
                    0..=2 => m.set_window_subframes(rng.uniform_usize(0, 60)),
                    3 => m.add_cell(cell, prbs),
                    4 => m.remove_cell(cell),
                    5 => m.handover_to(cell, prbs),
                    _ => {}
                }
                m.ingest(&random_subframe(&mut rng, sf));
                for c in 0..4u16 {
                    prop_assert_eq!(m.snapshot(CellId(c)), reference_snapshot(&m, CellId(c)));
                }
            }
        }
    }
}
