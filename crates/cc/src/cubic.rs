//! TCP CUBIC — the loss-based baseline.
//!
//! CUBIC grows its congestion window as a cubic function of the time since
//! the last loss event, anchored at the window size where that loss occurred
//! (`W_max`), and falls back to a Reno-like "TCP-friendly" window when that
//! grows faster.  On loss it multiplies the window by β = 0.7 and applies
//! fast convergence.  On a deep cellular buffer this behaviour produces the
//! alternation the paper observes: high throughput with high delay until the
//! buffer overflows, then a deep back-off.

use crate::api::{AckInfo, CongestionControl, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};

const BETA: f64 = 0.7;
const C: f64 = 0.4;

/// TCP CUBIC.
#[derive(Debug)]
pub struct Cubic {
    /// Congestion window in segments (floating point, as in the kernel).
    cwnd: f64,
    /// Slow-start threshold in segments.
    ssthresh: f64,
    /// Window size at the last loss event.
    w_max: f64,
    /// Time of the last loss event.
    epoch_start: Option<Instant>,
    /// Origin point of the cubic curve.
    origin_point: f64,
    /// Time offset K of the cubic curve.
    k: f64,
    /// Reno-equivalent window for the TCP-friendly region.
    w_est: f64,
    /// Smoothed RTT used to convert the window into a pacing rate.
    srtt: Duration,
    last_loss: Option<Instant>,
}

impl Cubic {
    /// New CUBIC instance with the standard initial window of 10 segments.
    pub fn new(rtprop_hint: Duration) -> Self {
        Cubic {
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            origin_point: 0.0,
            k: 0.0,
            w_est: 0.0,
            srtt: rtprop_hint,
            last_loss: None,
        }
    }

    /// Congestion window in segments (for tests).
    #[cfg(test)]
    pub(crate) fn cwnd_segments(&self) -> f64 {
        self.cwnd
    }

    /// The cubic curve's anchor `W_max` and time offset `K` in seconds (for
    /// tests).
    #[cfg(test)]
    pub(crate) fn curve(&self) -> (f64, f64) {
        (self.w_max, self.k)
    }

    fn cubic_update(&mut self, now: Instant) {
        if self.epoch_start.is_none() {
            // First update of this congestion-avoidance epoch: anchor the
            // cubic curve at W_max (or at the current window if we are above
            // it, i.e. the curve's convex region).
            self.epoch_start = Some(now);
            if self.cwnd < self.w_max {
                self.k = ((self.w_max - self.cwnd) / C).cbrt();
                self.origin_point = self.w_max;
            } else {
                self.k = 0.0;
                self.origin_point = self.cwnd;
            }
            self.w_est = self.cwnd;
        }
        let epoch_start = self.epoch_start.expect("set above");
        let t = now.saturating_since(epoch_start).as_secs_f64();
        let target = self.origin_point + C * (t - self.k).powi(3);
        // TCP-friendly region: emulate Reno's per-ACK growth so CUBIC never
        // falls below what standard TCP would achieve.
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) / self.cwnd.max(1.0);
        let next = if target > self.cwnd {
            self.cwnd + (target - self.cwnd) / self.cwnd.max(1.0)
        } else {
            self.cwnd + 0.01 / self.cwnd.max(1.0)
        };
        self.cwnd = next.max(self.w_est).max(2.0);
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "CUBIC"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        // Smooth the RTT (standard EWMA with alpha = 1/8).
        let sample = ack.rtt.as_secs_f64();
        let prev = self.srtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(prev * 0.875 + sample * 0.125);

        if ack.loss_detected {
            self.on_loss(ack.now);
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one segment per ACK.
            self.cwnd += 1.0;
        } else {
            self.cubic_update(ack.now);
        }
    }

    fn on_loss(&mut self, now: Instant) {
        // Ignore multiple losses within one RTT (one congestion event).
        if let Some(last) = self.last_loss {
            if now.saturating_since(last) < self.srtt {
                return;
            }
        }
        self.last_loss = Some(now);
        // Fast convergence: release bandwidth faster when the window shrank.
        if self.cwnd < self.w_max {
            self.w_max = self.cwnd * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        self.origin_point = 0.0;
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        // Window-based schemes are paced at cwnd / RTT (with a small headroom
        // so pacing is not the limiting factor).
        let rtt = self.srtt.as_secs_f64().max(1e-3);
        self.cwnd * MSS_BYTES as f64 * 8.0 / rtt * 1.2
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.cwnd * MSS_BYTES as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(rtt_ms),
            one_way_delay_ms: rtt_ms as f64 / 2.0,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cubic = Cubic::new(Duration::from_millis(40));
        let w0 = cubic.cwnd_segments();
        for i in 0..10u64 {
            cubic.on_ack(&ack(i, 40));
        }
        assert!((cubic.cwnd_segments() - (w0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_multiplies_window_by_beta() {
        let mut cubic = Cubic::new(Duration::from_millis(40));
        for i in 0..90u64 {
            cubic.on_ack(&ack(i, 40));
        }
        let before = cubic.cwnd_segments();
        cubic.on_loss(Instant::from_millis(100));
        let after = cubic.cwnd_segments();
        assert!(
            (after - before * BETA).abs() < 1e-6,
            "{after} vs {}",
            before * BETA
        );
    }

    #[test]
    fn repeated_losses_within_an_rtt_count_once() {
        let mut cubic = Cubic::new(Duration::from_millis(40));
        for i in 0..50u64 {
            cubic.on_ack(&ack(i, 40));
        }
        cubic.on_loss(Instant::from_millis(100));
        let after_first = cubic.cwnd_segments();
        cubic.on_loss(Instant::from_millis(105));
        assert_eq!(cubic.cwnd_segments(), after_first);
        // A loss after more than one RTT does reduce it again.
        cubic.on_loss(Instant::from_millis(200));
        assert!(cubic.cwnd_segments() < after_first);
    }

    #[test]
    fn cubic_growth_resumes_after_loss_and_approaches_w_max() {
        let mut cubic = Cubic::new(Duration::from_millis(40));
        for i in 0..100u64 {
            cubic.on_ack(&ack(i, 40));
        }
        cubic.on_loss(Instant::from_millis(200));
        let floor = cubic.cwnd_segments();
        // Congestion avoidance for a simulated 20 seconds.
        for i in 0..500u64 {
            cubic.on_ack(&ack(200 + i * 40, 40));
        }
        let later = cubic.cwnd_segments();
        assert!(later > floor, "window grows again: {later} > {floor}");
    }

    #[test]
    fn pacing_rate_scales_with_window_over_rtt() {
        let mut cubic = Cubic::new(Duration::from_millis(50));
        for i in 0..40u64 {
            cubic.on_ack(&ack(i, 50));
        }
        let segments = cubic.cwnd_segments();
        let expected = segments * 1500.0 * 8.0 / 0.050 * 1.2;
        assert!((cubic.pacing_rate_bps() - expected).abs() / expected < 0.05);
        assert_eq!(cubic.cwnd_bytes(), (segments * 1500.0) as u64);
    }

    #[test]
    fn ack_carrying_loss_flag_triggers_backoff() {
        let mut cubic = Cubic::new(Duration::from_millis(40));
        for i in 0..50u64 {
            cubic.on_ack(&ack(i, 40));
        }
        let before = cubic.cwnd_segments();
        let mut lossy = ack(60, 40);
        lossy.loss_detected = true;
        cubic.on_ack(&lossy);
        assert!(cubic.cwnd_segments() < before);
    }
}
