//! The PBE-CC mobile client: capacity feedback and bottleneck detection.
//!
//! The client runs next to the receiver on the mobile device.  Every
//! subframe it folds the fused control-channel messages into the PDCCH
//! monitor; every received data packet it (1) updates its one-way
//! propagation-delay estimate `Dprop` (the minimum delay over a 10-second
//! window, §4.2.2, kept by a windowed-minimum filter), (2) checks the
//! bottleneck-state switching rule — the delay threshold
//! `Dth = Dprop + 3·8 + 3` ms must be exceeded by `Npkt` consecutive packets,
//! where `Npkt = 6 · Ct / MSS` (Eqn. 6) — and (3) produces the feedback
//! carried on the acknowledgement: the estimated capacity encoded as an
//! inter-packet interval, the bottleneck-state bit, and the fair-share cap
//! `Cf` (§5).
//!
//! Both paths are cheap enough to run per packet and per subframe: a packet
//! costs O(1) amortised (two windowed minima), and a subframe costs
//! O(messages + users) (the monitor keeps running window totals), with no
//! steady-state allocation.

use crate::capacity::{CapacityEstimate, CapacityEstimator};
use crate::translate::RateTranslator;
use pbe_cc_algorithms::api::{PbeFeedback, MSS_BYTES};
use pbe_cc_algorithms::windowed::WindowedMin;
use pbe_cellular::config::{CellId, Rnti};
use pbe_pdcch::fusion::FusedSubframe;
use pbe_pdcch::monitor::{CellSnapshot, CellStatusMonitor, MonitorConfig};
use pbe_stats::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// Which link the client currently believes is the connection's bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BottleneckState {
    /// The cellular wireless link is the bottleneck (the common case).
    Wireless,
    /// A link inside the wired Internet is the bottleneck.
    Internet,
}

/// Configuration of the mobile client.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PbeClientConfig {
    /// The user's own RNTI.
    pub own_rnti: Rnti,
    /// Aggregated cells and their total PRB counts.
    pub cells: Vec<(CellId, u16)>,
    /// Protocol overhead fraction γ of Eqn. 5.
    pub protocol_overhead: f64,
    /// Residual bit error rate used in the Eqn. 5 translation.
    pub bit_error_rate: f64,
    /// Additional delay-threshold margin for retransmissions:
    /// `3 retransmissions × 8 ms` (paper §4.2.2).
    pub retransmission_margin_ms: f64,
    /// Network-jitter margin (the paper measures jitter ≤ 3 ms 94 % of the
    /// time).
    pub jitter_margin_ms: f64,
    /// Window over which `Dprop` is taken as the minimum observed delay
    /// (a windowed minimum, not a stored sample list).
    pub dprop_window: Duration,
}

impl PbeClientConfig {
    /// Defaults matching the paper's parameters.
    pub fn new(own_rnti: Rnti, cells: Vec<(CellId, u16)>) -> Self {
        PbeClientConfig {
            own_rnti,
            cells,
            protocol_overhead: 0.068,
            bit_error_rate: 2e-6,
            retransmission_margin_ms: 3.0 * 8.0,
            jitter_margin_ms: 3.0,
            dprop_window: Duration::from_secs(10),
        }
    }
}

/// The client-side PBE-CC module.
#[derive(Debug)]
pub struct PbeClient {
    config: PbeClientConfig,
    monitor: CellStatusMonitor,
    estimator: CapacityEstimator,
    translator: RateTranslator,
    state: BottleneckState,
    /// `Dprop`: the windowed minimum of the one-way delay (ms) over
    /// `config.dprop_window`.
    dprop: WindowedMin,
    /// Minimum one-way delay over the last RTprop: the *standing* delay.  A
    /// HARQ spike affects a few packets and leaves the minimum alone; a real
    /// backlog raises every sample, minimum included.
    standing_delay: WindowedMin,
    consecutive_over: u64,
    consecutive_under: u64,
    rtprop_ms: f64,
    /// Scratch for the monitor's per-cell snapshots, reused every subframe.
    snapshots: Vec<CellSnapshot>,
    /// Latest capacity estimate (physical layer).
    last_estimate: CapacityEstimate,
    /// Latest transport-layer capacity (bits per subframe).
    last_ct: f64,
    /// Latest fair-share transport-layer capacity (bits per subframe).
    last_cf_t: f64,
    /// True while the estimates are held at their pre-handover values
    /// because the re-targeted monitor's window is still (nearly) empty.
    estimate_hold: bool,
    /// Number of state switches (diagnostics).
    pub state_switches: u64,
    /// Number of serving-cell handovers ridden through (diagnostics).
    pub handovers: u64,
}

impl PbeClient {
    /// Create the client.
    pub fn new(config: PbeClientConfig) -> Self {
        let monitor =
            CellStatusMonitor::new(MonitorConfig::new(config.own_rnti, config.cells.clone()));
        let translator = RateTranslator::new(config.protocol_overhead);
        let dprop = WindowedMin::new(config.dprop_window);
        PbeClient {
            config,
            monitor,
            estimator: CapacityEstimator::new(),
            translator,
            state: BottleneckState::Wireless,
            dprop,
            standing_delay: WindowedMin::new(Duration::from_millis(40)),
            consecutive_over: 0,
            consecutive_under: 0,
            rtprop_ms: 40.0,
            snapshots: Vec::new(),
            last_estimate: CapacityEstimate {
                fair_share_bits_per_subframe: 0.0,
                available_bits_per_subframe: 0.0,
                cells: 0,
                max_active_users: 1,
            },
            last_ct: 0.0,
            last_cf_t: 0.0,
            estimate_hold: false,
            state_switches: 0,
            handovers: 0,
        }
    }

    /// Current bottleneck-state belief.
    pub fn state(&self) -> BottleneckState {
        self.state
    }

    /// The monitor's current state (e.g. for observers).
    pub fn monitor(&self) -> &CellStatusMonitor {
        &self.monitor
    }

    /// The monitor (e.g. to add a newly activated cell).
    pub fn monitor_mut(&mut self) -> &mut CellStatusMonitor {
        &mut self.monitor
    }

    /// Tell the client the sender's current round-trip propagation time so it
    /// can size the averaging window (in ms ≡ subframes).
    pub fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
        self.rtprop_ms = rtprop_ms.clamp(4.0, 1000.0);
        self.monitor.set_window_subframes(self.rtprop_ms as usize);
    }

    /// Start tracking a newly activated secondary cell.
    pub fn add_cell(&mut self, cell: CellId, total_prbs: u16) {
        self.monitor.add_cell(cell, total_prbs);
    }

    /// The serving cell changed: re-target the monitor onto the new cell and
    /// hold the current capacity estimates until its window carries real
    /// measurements.
    ///
    /// A freshly re-targeted monitor has an *empty* window, whose snapshot
    /// reads as a fully idle cell — feeding that into the capacity
    /// translation would spike the estimate to the whole cell's bandwidth
    /// at the worst possible moment.  Instead the client rides through on
    /// its pre-handover estimate and resumes once the new window holds a
    /// few genuine subframes (the re-acquisition gap itself produces no
    /// fused subframes, so the hold spans gap + fill).
    pub fn on_handover(&mut self, cell: CellId, total_prbs: u16) {
        self.monitor.handover_to(cell, total_prbs);
        self.estimate_hold = true;
        self.handovers += 1;
    }

    /// True while the client is holding pre-handover estimates.
    pub fn is_holding_estimates(&self) -> bool {
        self.estimate_hold
    }

    /// Hold the current estimates through an externally signalled decode
    /// outage (control channel undecodable, cell dark).  Released by the
    /// same rule as the post-handover hold: once the primary window again
    /// carries enough real subframes to average.
    pub fn hold_estimates(&mut self) {
        self.estimate_hold = true;
    }

    /// Stop tracking a deactivated secondary cell.
    pub fn remove_cell(&mut self, cell: CellId) {
        self.monitor.remove_cell(cell);
    }

    /// One-way propagation-delay estimate (minimum over the window), ms.
    pub fn dprop_ms(&self) -> f64 {
        self.dprop.get()
    }

    /// The switching threshold `Dth` in ms.
    pub fn delay_threshold_ms(&self) -> f64 {
        let dprop = self.dprop_ms();
        if dprop.is_finite() {
            dprop + self.config.retransmission_margin_ms + self.config.jitter_margin_ms
        } else {
            f64::INFINITY
        }
    }

    /// Latest capacity estimate (physical layer).
    pub fn capacity(&self) -> CapacityEstimate {
        self.last_estimate
    }

    /// Latest transport-layer available capacity in bits per second.
    pub fn transport_capacity_bps(&self) -> f64 {
        self.last_ct * 1000.0
    }

    /// Latest transport-layer fair-share capacity in bits per second.
    pub fn fair_share_bps(&self) -> f64 {
        self.last_cf_t * 1000.0
    }

    /// Fold one subframe of fused control messages into the monitor and
    /// refresh the capacity estimates.
    pub fn on_subframe(&mut self, fused: &FusedSubframe) {
        self.monitor.ingest(fused);
        if self.estimate_hold {
            // Post-handover: keep the pre-handover estimates until the new
            // serving cell's window holds enough real subframes to average.
            let primary = self.monitor.config().cells.first().map(|(c, _)| *c);
            let filled = primary.map(|c| self.monitor.window_len(c)).unwrap_or(0);
            let need = self.monitor.config().window_subframes.clamp(1, 8);
            if filled < need {
                return;
            }
            self.estimate_hold = false;
        }
        self.monitor.snapshots_into(&mut self.snapshots);
        self.last_estimate = self.estimator.estimate(&self.snapshots);
        // Use the measured retransmission fraction when available (it already
        // reflects the true transport-block error rate); otherwise fall back
        // to the analytic Eqn. 5 solution at the configured BER.
        let retx = self
            .snapshots
            .iter()
            .map(|s| s.own_retransmission_fraction)
            .fold(0.0f64, f64::max);
        self.last_ct = if retx > 0.0 {
            self.translator
                .translate_with_tb_error(self.last_estimate.available_bits_per_subframe, retx)
        } else {
            self.translator.translate(
                self.last_estimate.available_bits_per_subframe,
                self.config.bit_error_rate,
            )
        };
        self.last_cf_t = if retx > 0.0 {
            self.translator
                .translate_with_tb_error(self.last_estimate.fair_share_bits_per_subframe, retx)
        } else {
            self.translator.translate(
                self.last_estimate.fair_share_bits_per_subframe,
                self.config.bit_error_rate,
            )
        };
    }

    /// The `Npkt` consecutive-packet threshold of Eqn. 6.
    pub fn npkt_threshold(&self) -> u64 {
        let ct_bits_per_subframe = self.last_ct.max(8.0 * MSS_BYTES as f64 / 1000.0);
        ((6.0 * ct_bits_per_subframe) / (MSS_BYTES as f64 * 8.0))
            .ceil()
            .max(2.0) as u64
    }

    /// Process one received data packet and produce the feedback to piggyback
    /// on its acknowledgement.
    pub fn on_packet(&mut self, now: Instant, one_way_delay_ms: f64) -> PbeFeedback {
        self.dprop.update(now, one_way_delay_ms);

        let dth = self.delay_threshold_ms();
        let npkt = self.npkt_threshold();
        if one_way_delay_ms > dth {
            self.consecutive_over += 1;
            self.consecutive_under = 0;
        } else {
            self.consecutive_under += 1;
            self.consecutive_over = 0;
        }
        match self.state {
            BottleneckState::Wireless => {
                if self.consecutive_over >= npkt {
                    self.state = BottleneckState::Internet;
                    self.state_switches += 1;
                    self.consecutive_over = 0;
                }
            }
            BottleneckState::Internet => {
                if self.consecutive_under >= npkt {
                    self.state = BottleneckState::Wireless;
                    self.state_switches += 1;
                    self.consecutive_under = 0;
                }
            }
        }

        // In the wireless-bottleneck state the feedback carries the available
        // capacity Ct; in the Internet-bottleneck state it carries the
        // fair-share cap Cf (§4.2.3).
        //
        // When a *standing* queue is observed (the minimum delay of the last
        // RTprop sits above Dprop beyond the jitter margin), the wireless
        // feedback is reduced so the sender under-runs the link and the
        // backlog drains within roughly one RTprop — matching capacity
        // exactly would sustain a standing queue forever on a link whose
        // capacity is ramping down.  Isolated HARQ spikes leave the windowed
        // minimum (and therefore the feedback) untouched.
        self.standing_delay
            .set_window(Duration::from_secs_f64(self.rtprop_ms / 1000.0));
        self.standing_delay.update(now, one_way_delay_ms);
        let dprop = self.dprop_ms();
        let standing = self.standing_delay.get();
        let queue_ms = if dprop.is_finite() && standing.is_finite() {
            (standing - dprop - self.config.jitter_margin_ms).max(0.0)
        } else {
            0.0
        };
        let drain_factor = (1.0 - queue_ms / self.rtprop_ms).clamp(0.5, 1.0);
        let capacity_bps = match self.state {
            BottleneckState::Wireless => self.last_ct * 1000.0 * drain_factor,
            BottleneckState::Internet => self.last_cf_t * 1000.0,
        };
        PbeFeedback {
            capacity_interval_us: PbeFeedback::interval_from_rate(capacity_bps),
            internet_bottleneck: self.state == BottleneckState::Internet,
            fair_share_rate_bps: self.last_cf_t * 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::dci::{DciFormat, DciMessage};
    use pbe_cellular::mcs::McsIndex;
    use std::collections::HashMap;

    const OWN: Rnti = Rnti(0x0100);
    const OTHER: Rnti = Rnti(0x0200);

    fn dci(rnti: Rnti, prbs: u16, subframe: u64) -> DciMessage {
        DciMessage {
            cell: CellId(0),
            subframe,
            rnti,
            format: DciFormat::Format1,
            first_prb: 0,
            num_prbs: prbs,
            mcs: McsIndex(20),
            spatial_streams: 2,
            new_data_indicator: true,
            harq_process: 0,
            tbs_bits: u32::from(prbs) * 1200,
        }
    }

    fn fused(subframe: u64, messages: Vec<DciMessage>) -> FusedSubframe {
        let mut per_cell = HashMap::new();
        per_cell.insert(CellId(0), messages);
        FusedSubframe { subframe, per_cell }
    }

    fn client() -> PbeClient {
        PbeClient::new(PbeClientConfig::new(OWN, vec![(CellId(0), 100)]))
    }

    #[test]
    fn capacity_feedback_tracks_idle_bandwidth() {
        let mut c = client();
        // We receive 20 PRBs per subframe, nobody else active: the whole cell
        // should be reported as available.
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 20, sf)]));
        }
        let est = c.capacity();
        assert!((est.available_bits_per_subframe - 100.0 * 1200.0).abs() < 1e-6);
        let fb = c.on_packet(Instant::from_millis(40), 30.0);
        assert!(!fb.internet_bottleneck);
        // ~120 kbit per subframe physical => >100 Mbit/s transport goodput.
        assert!(fb.capacity_bps() > 90e6, "capacity {}", fb.capacity_bps());
        assert!(c.transport_capacity_bps() > 90e6);
    }

    #[test]
    fn competitor_reduces_fair_share_but_not_current_allocation() {
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 50, sf), dci(OTHER, 50, sf)]));
        }
        let est = c.capacity();
        // No idle PRBs: available = own 50 PRBs; fair share = half the cell.
        assert!((est.available_bits_per_subframe - 50.0 * 1200.0).abs() < 1e-6);
        assert!((est.fair_share_bits_per_subframe - 50.0 * 1200.0).abs() < 1e-6);
        assert_eq!(est.max_active_users, 2);
    }

    #[test]
    fn dprop_is_minimum_of_window_and_dth_adds_margins() {
        let mut c = client();
        for sf in 0..10u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 20, sf)]));
        }
        c.on_packet(Instant::from_millis(10), 42.0);
        c.on_packet(Instant::from_millis(11), 35.0);
        c.on_packet(Instant::from_millis(12), 39.0);
        assert_eq!(c.dprop_ms(), 35.0);
        assert_eq!(c.delay_threshold_ms(), 35.0 + 24.0 + 3.0);
    }

    #[test]
    fn npkt_threshold_follows_eqn6() {
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 20, sf)]));
        }
        // Ct ≈ 111 kbit per subframe; Npkt = 6 * Ct / (1500*8) ≈ 56.
        let npkt = c.npkt_threshold();
        assert!((40..80).contains(&npkt), "npkt = {npkt}");
    }

    #[test]
    fn sustained_delay_excursion_switches_to_internet_bottleneck() {
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 10, sf)]));
        }
        // Establish Dprop = 30 ms.
        for i in 0..20u64 {
            let fb = c.on_packet(Instant::from_millis(i), 30.0);
            assert!(!fb.internet_bottleneck);
        }
        assert_eq!(c.state(), BottleneckState::Wireless);
        // Delay rises well above Dth = 30 + 27 = 57 ms and stays there.
        let npkt = c.npkt_threshold();
        let mut switched_after = None;
        for i in 0..5 * npkt {
            let fb = c.on_packet(Instant::from_millis(100 + i), 80.0);
            if fb.internet_bottleneck && switched_after.is_none() {
                switched_after = Some(i + 1);
            }
        }
        let switched_after = switched_after.expect("switched to Internet bottleneck");
        assert!(
            switched_after >= npkt,
            "not before Npkt consecutive packets"
        );
        assert!(switched_after <= npkt + 1);
        assert_eq!(c.state(), BottleneckState::Internet);

        // And it switches back after Npkt packets below the threshold.
        for i in 0..5 * npkt {
            c.on_packet(Instant::from_millis(10_000 + i), 31.0);
        }
        assert_eq!(c.state(), BottleneckState::Wireless);
        assert_eq!(c.state_switches, 2);
    }

    #[test]
    fn brief_delay_spikes_do_not_switch_state() {
        // A single HARQ retransmission (8–24 ms extra) must not trigger the
        // Internet-bottleneck state: the threshold already budgets for it.
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 10, sf)]));
        }
        for i in 0..50u64 {
            c.on_packet(Instant::from_millis(i), 30.0);
        }
        // 16 ms retransmission spike on a handful of packets.
        for i in 50..55u64 {
            c.on_packet(Instant::from_millis(i), 46.0);
        }
        for i in 55..100u64 {
            c.on_packet(Instant::from_millis(i), 30.0);
        }
        assert_eq!(c.state(), BottleneckState::Wireless);
        assert_eq!(c.state_switches, 0);
    }

    #[test]
    fn internet_state_feedback_carries_fair_share() {
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 30, sf), dci(OTHER, 70, sf)]));
        }
        // Force the Internet-bottleneck state.
        for i in 0..10u64 {
            c.on_packet(Instant::from_millis(i), 30.0);
        }
        for i in 0..1000u64 {
            c.on_packet(Instant::from_millis(20 + i), 200.0);
        }
        assert_eq!(c.state(), BottleneckState::Internet);
        let fb = c.on_packet(Instant::from_millis(2000), 200.0);
        assert!(fb.internet_bottleneck);
        // The feedback capacity equals the fair-share rate in this state.
        assert!((fb.capacity_bps() - fb.fair_share_rate_bps).abs() / fb.fair_share_rate_bps < 0.02);
    }

    #[test]
    fn handover_holds_estimates_until_the_new_window_fills() {
        let mut c = client();
        for sf in 0..40u64 {
            c.on_subframe(&fused(sf, vec![dci(OWN, 20, sf)]));
        }
        let before = c.transport_capacity_bps();
        assert!(before > 50e6);
        c.on_handover(CellId(1), 50);
        assert!(c.is_holding_estimates());
        assert_eq!(c.handovers, 1);
        // The held estimate rides through even while nothing is ingested
        // (the re-acquisition gap).
        assert_eq!(c.transport_capacity_bps(), before);
        // The new cell is busy: our 10 PRBs plus a competitor's 40 on a
        // 50-PRB cell.  Feed fused subframes from the new serving cell; the
        // hold releases only once 8 real subframes are in the window —
        // and the refreshed estimate reflects the *new* cell, not a
        // spurious fully-idle one.
        for sf in 100..108u64 {
            let mut per_cell = HashMap::new();
            let mut own = dci(OWN, 10, sf);
            own.cell = CellId(1);
            let mut other = dci(OTHER, 40, sf);
            other.cell = CellId(1);
            per_cell.insert(CellId(1), vec![own, other]);
            if sf < 107 {
                assert!(c.is_holding_estimates(), "holding at subframe {sf}");
            }
            c.on_subframe(&FusedSubframe {
                subframe: sf,
                per_cell,
            });
        }
        assert!(!c.is_holding_estimates());
        let after = c.capacity();
        // Available capacity on the new cell: own 10 PRBs, none idle.
        assert!(
            (after.available_bits_per_subframe - 10.0 * 1200.0).abs() < 1e-6,
            "available {}",
            after.available_bits_per_subframe
        );
        assert!(c.transport_capacity_bps() < before);
    }

    #[test]
    fn rtprop_update_resizes_monitor_window() {
        let mut c = client();
        c.set_rtprop_ms(80.0);
        assert_eq!(c.monitor_mut().config().window_subframes, 80);
        c.set_rtprop_ms(1.0);
        assert_eq!(c.monitor_mut().config().window_subframes, 4);
    }

    #[test]
    fn added_cell_contributes_to_capacity() {
        let mut c = client();
        c.add_cell(CellId(1), 50);
        for sf in 0..40u64 {
            let mut per_cell = HashMap::new();
            per_cell.insert(CellId(0), vec![dci(OWN, 20, sf)]);
            let mut dci1 = dci(OWN, 10, sf);
            dci1.cell = CellId(1);
            per_cell.insert(CellId(1), vec![dci1]);
            c.on_subframe(&FusedSubframe {
                subframe: sf,
                per_cell,
            });
        }
        let est = c.capacity();
        assert_eq!(est.cells, 2);
        // Both cells fully available to the single user: 100 + 50 PRBs.
        assert!((est.available_bits_per_subframe - 150.0 * 1200.0).abs() < 1e-6);
    }
}
