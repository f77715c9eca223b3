//! TCP BBR (v1), the strongest baseline in the paper's evaluation.
//!
//! BBR models the path with two quantities — the bottleneck bandwidth
//! `BtlBw` (windowed maximum of the delivery rate over ~10 RTTs) and the
//! round-trip propagation delay `RTprop` (windowed minimum RTT over 10 s) —
//! and paces at `pacing_gain × BtlBw` while capping the data in flight at
//! `cwnd_gain × BDP`.  The ProbeBW state cycles through the eight-phase gain
//! pattern `[1.25, 0.75, 1, 1, 1, 1, 1, 1]` (paper Fig. 9); Startup doubles
//! the rate every RTT until the bandwidth estimate stops growing; Drain
//! empties the queue Startup built; ProbeRTT periodically shrinks the window
//! to re-measure the propagation delay.

use crate::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use crate::windowed::{WindowedMax, WindowedMin};
use pbe_stats::time::{Duration, Instant};

/// The eight pacing gains of the ProbeBW cycle (paper Fig. 9).
pub const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup / Drain pacing gains (2/ln2 and its inverse).
const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// cwnd gain applied to the BDP.
const CWND_GAIN: f64 = 2.0;
/// ProbeRTT parameters.
const PROBE_RTT_INTERVAL: Duration = Duration(10_000_000);
const PROBE_RTT_DURATION: Duration = Duration(200_000);

/// BBR's operating states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrState {
    /// Exponential bandwidth search at connection start.
    Startup,
    /// Drain the queue Startup built.
    Drain,
    /// Steady-state bandwidth probing (eight-phase gain cycle).
    ProbeBw,
    /// Periodic propagation-delay re-measurement.
    ProbeRtt,
}

/// TCP BBR v1.
#[derive(Debug)]
pub struct Bbr {
    state: BbrState,
    btl_bw: WindowedMax,
    rtprop: WindowedMin,
    pacing_gain: f64,
    probe_bw_phase: usize,
    phase_start: Instant,
    /// Full-pipe detection for leaving Startup.
    full_bw: f64,
    full_bw_count: u32,
    /// ProbeRTT bookkeeping.
    last_probe_rtt: Instant,
    probe_rtt_until: Option<Instant>,
    /// Latest estimates.
    last_rtt: Duration,
    rtprop_hint: Duration,
}

impl Bbr {
    /// New BBR instance.  `rtprop_hint` seeds the propagation-delay estimate
    /// before the first ACK arrives.
    pub fn new(rtprop_hint: Duration) -> Self {
        Bbr {
            state: BbrState::Startup,
            btl_bw: WindowedMax::new(Duration::from_millis(400)),
            rtprop: WindowedMin::new(Duration::from_secs(10)),
            pacing_gain: STARTUP_GAIN,
            probe_bw_phase: 0,
            phase_start: Instant::ZERO,
            full_bw: 0.0,
            full_bw_count: 0,
            last_probe_rtt: Instant::ZERO,
            probe_rtt_until: None,
            last_rtt: rtprop_hint,
            rtprop_hint,
        }
    }

    /// Current state (exposed for tests and the PBE-CC sender which reuses
    /// this implementation in its Internet-bottleneck mode).
    pub fn state(&self) -> BbrState {
        self.state
    }

    /// Current bottleneck-bandwidth estimate in bits per second.
    fn btl_bw_bps(&self) -> f64 {
        let bw = self.btl_bw.get();
        if bw <= 0.0 {
            INITIAL_RATE_BPS
        } else {
            bw
        }
    }

    /// Current propagation-delay estimate.
    pub fn rtprop(&self) -> Duration {
        let v = self.rtprop.get();
        if v.is_finite() && v > 0.0 {
            Duration::from_secs_f64(v)
        } else {
            self.rtprop_hint
        }
    }

    fn bdp_bytes(&self) -> f64 {
        self.btl_bw_bps() / 8.0 * self.rtprop().as_secs_f64()
    }

    fn advance_probe_bw(&mut self, now: Instant) {
        let phase_len = self.rtprop();
        if now.saturating_since(self.phase_start) >= phase_len {
            self.probe_bw_phase = (self.probe_bw_phase + 1) % PROBE_BW_GAINS.len();
            self.phase_start = now;
        }
        self.pacing_gain = PROBE_BW_GAINS[self.probe_bw_phase];
    }

    fn check_full_pipe(&mut self) {
        let bw = self.btl_bw.get();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "BBR"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let now = ack.now;
        self.last_rtt = ack.rtt;
        if ack.rtt.as_micros() > 0 {
            self.rtprop.update(now, ack.rtt.as_secs_f64());
        }
        if ack.delivery_rate_bps > 0.0 {
            // The BtlBw window is ~10 RTTs long.
            self.btl_bw.set_window(
                Duration::from_secs_f64(self.rtprop().as_secs_f64() * 10.0)
                    .max(Duration::from_millis(100)),
            );
            self.btl_bw.update(now, ack.delivery_rate_bps);
        }

        match self.state {
            BbrState::Startup => {
                self.check_full_pipe();
                self.pacing_gain = STARTUP_GAIN;
                if self.full_bw_count >= 3 {
                    self.state = BbrState::Drain;
                    self.pacing_gain = DRAIN_GAIN;
                }
            }
            BbrState::Drain => {
                self.pacing_gain = DRAIN_GAIN;
                if (ack.inflight_bytes as f64) <= self.bdp_bytes() {
                    self.state = BbrState::ProbeBw;
                    self.probe_bw_phase = 2; // start in a cruise phase
                    self.phase_start = now;
                    self.pacing_gain = 1.0;
                }
            }
            BbrState::ProbeBw => {
                self.advance_probe_bw(now);
                // Enter ProbeRTT if the propagation-delay estimate is stale.
                if now.saturating_since(self.last_probe_rtt) >= PROBE_RTT_INTERVAL {
                    self.state = BbrState::ProbeRtt;
                    self.probe_rtt_until = Some(now + PROBE_RTT_DURATION);
                    self.pacing_gain = 1.0;
                }
            }
            BbrState::ProbeRtt => {
                self.pacing_gain = 1.0;
                if let Some(until) = self.probe_rtt_until {
                    if now >= until {
                        self.last_probe_rtt = now;
                        self.probe_rtt_until = None;
                        self.state = BbrState::ProbeBw;
                        self.probe_bw_phase = 2;
                        self.phase_start = now;
                    }
                }
            }
        }
    }

    fn on_loss(&mut self, _now: Instant) {
        // BBR v1 does not react to individual losses beyond its inflight cap.
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        (self.pacing_gain * self.btl_bw_bps()).max(8.0 * MSS_BYTES as f64)
    }

    fn cwnd_bytes(&self) -> u64 {
        if self.state == BbrState::ProbeRtt {
            return 4 * MSS_BYTES;
        }
        (CWND_GAIN * self.bdp_bytes()).max(4.0 * MSS_BYTES as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64, rate_bps: f64, inflight: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(rtt_ms),
            one_way_delay_ms: rtt_ms as f64 / 2.0,
            delivery_rate_bps: rate_bps,
            inflight_bytes: inflight,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn startup_uses_high_gain_and_exits_when_bandwidth_plateaus() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        assert_eq!(bbr.state(), BbrState::Startup);
        assert!((bbr.pacing_rate_bps() / bbr.btl_bw_bps() - STARTUP_GAIN).abs() < 1e-9);
        // Delivery rate stops growing at 48 Mbit/s: after 3 non-growing ACKs
        // BBR leaves Startup.
        for i in 0..20u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 100_000));
            if bbr.state() != BbrState::Startup {
                break;
            }
        }
        assert_ne!(bbr.state(), BbrState::Startup);
    }

    #[test]
    fn drain_transitions_to_probe_bw_when_inflight_fits_bdp() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        for i in 0..10u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 1_000_000));
        }
        assert_eq!(bbr.state(), BbrState::Drain);
        // BDP at 48 Mbit/s × 40 ms = 240 kB; report a small inflight.
        bbr.on_ack(&ack(500, 40, 48e6, 100_000));
        assert_eq!(bbr.state(), BbrState::ProbeBw);
    }

    #[test]
    fn probe_bw_cycles_through_gains() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        for i in 0..10u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 100_000));
        }
        assert_eq!(bbr.state(), BbrState::ProbeBw);
        let mut seen_gains = std::collections::HashSet::new();
        for i in 10..200u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 200_000));
            seen_gains.insert((bbr.pacing_gain * 100.0) as i64);
        }
        assert!(
            seen_gains.contains(&125),
            "probing gain seen: {seen_gains:?}"
        );
        assert!(seen_gains.contains(&75), "draining gain seen");
        assert!(seen_gains.contains(&100), "cruise gain seen");
    }

    #[test]
    fn btl_bw_tracks_delivery_rate_and_rtprop_tracks_min_rtt() {
        let mut bbr = Bbr::new(Duration::from_millis(100));
        for i in 0..50u64 {
            let rtt = if i == 25 { 30 } else { 50 };
            bbr.on_ack(&ack(i * 50, rtt, 20e6 + i as f64 * 1e5, 50_000));
        }
        assert!(bbr.btl_bw_bps() > 20e6);
        assert_eq!(bbr.rtprop(), Duration::from_millis(30));
    }

    #[test]
    fn cwnd_is_twice_bdp() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        for i in 0..10u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 100_000));
        }
        let bdp = 48e6 / 8.0 * 0.040;
        let cwnd = bbr.cwnd_bytes() as f64;
        assert!(
            (cwnd - 2.0 * bdp).abs() / (2.0 * bdp) < 0.1,
            "cwnd {cwnd} bdp {bdp}"
        );
    }

    #[test]
    fn probe_rtt_entered_after_ten_seconds_and_shrinks_cwnd() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        let mut entered_probe_rtt_at = None;
        let mut cwnd_during_probe_rtt = None;
        for i in 0..400u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 100_000));
            if bbr.state() == BbrState::ProbeRtt && entered_probe_rtt_at.is_none() {
                entered_probe_rtt_at = Some(i * 40);
                cwnd_during_probe_rtt = Some(bbr.cwnd_bytes());
            }
        }
        let entered = entered_probe_rtt_at.expect("ProbeRTT entered");
        assert!(
            entered >= 10_000,
            "not before the 10 s interval, got {entered} ms"
        );
        assert!(
            entered <= 11_000,
            "soon after the 10 s interval, got {entered} ms"
        );
        assert_eq!(cwnd_during_probe_rtt, Some(4 * MSS_BYTES));
        // By the end of the run (16 s) BBR is back in ProbeBW cruising.
        assert_eq!(bbr.state(), BbrState::ProbeBw);
    }

    #[test]
    fn loss_does_not_change_rate() {
        let mut bbr = Bbr::new(Duration::from_millis(40));
        for i in 0..10u64 {
            bbr.on_ack(&ack(i * 40, 40, 48e6, 100_000));
        }
        let before = bbr.pacing_rate_bps();
        bbr.on_loss(Instant::from_secs(1));
        assert_eq!(bbr.pacing_rate_bps(), before);
    }
}
