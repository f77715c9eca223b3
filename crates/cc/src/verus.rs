//! Verus (Zaki et al., SIGCOMM 2015) — delay-profile congestion control for
//! cellular networks.
//!
//! Verus learns a *delay profile*: a mapping from congestion-window size to
//! the end-to-end delay that window produces.  Each epoch it picks the next
//! window by consulting the profile: if the observed delay is below the
//! target it asks the profile for a window associated with slightly more
//! delay (increasing its rate); if the delay exceeds the target it asks for a
//! window associated with less delay (backing off multiplicatively on large
//! excursions).  The profile is re-fitted continuously from (window, delay)
//! observations.  On a deep cellular buffer Verus achieves high throughput
//! but tolerates large standing delays, which is what the paper measures.

use crate::api::{AckInfo, CongestionControl, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};

/// Multiplicative decrease factor on delay overshoot.
const BACKOFF: f64 = 0.85;
/// Epoch length as a multiple of the minimum RTT.
const EPOCH_RTT_FRACTION: f64 = 0.2;

/// Verus congestion control.
#[derive(Debug)]
pub struct Verus {
    cwnd: f64,
    /// Learned delay profile: EWMA of delay observed per window bucket
    /// (bucket = 4 segments).
    profile: Vec<f64>,
    min_delay_ms: f64,
    max_delay_seen_ms: f64,
    srtt: Duration,
    epoch_start: Instant,
    epoch_delays: Vec<f64>,
    /// Delay-target multiplier over the minimum delay (Verus's R parameter).
    delay_target_ratio: f64,
}

impl Verus {
    /// New Verus instance.
    pub fn new(rtprop_hint: Duration) -> Self {
        Verus {
            cwnd: 10.0,
            profile: vec![0.0; 2048],
            min_delay_ms: f64::INFINITY,
            max_delay_seen_ms: 0.0,
            srtt: rtprop_hint,
            epoch_start: Instant::ZERO,
            epoch_delays: Vec::new(),
            delay_target_ratio: 4.0,
        }
    }

    /// Congestion window in segments.
    #[cfg(test)]
    fn cwnd_segments(&self) -> f64 {
        self.cwnd
    }

    fn bucket(cwnd: f64) -> usize {
        ((cwnd / 4.0) as usize).min(2047)
    }

    fn update_profile(&mut self, cwnd: f64, delay_ms: f64) {
        let b = Self::bucket(cwnd);
        let cur = self.profile[b];
        self.profile[b] = if cur == 0.0 {
            delay_ms
        } else {
            cur * 0.8 + delay_ms * 0.2
        };
    }

    /// Find the largest window whose profiled delay is below `target_ms`.
    fn window_for_delay(&self, target_ms: f64) -> Option<f64> {
        let mut best = None;
        for (b, d) in self.profile.iter().enumerate() {
            if *d > 0.0 && *d <= target_ms {
                best = Some((b as f64 + 1.0) * 4.0);
            }
        }
        best
    }

    fn end_epoch(&mut self, _now: Instant) {
        if self.epoch_delays.is_empty() {
            return;
        }
        let avg_delay = self.epoch_delays.iter().sum::<f64>() / self.epoch_delays.len() as f64;
        self.epoch_delays.clear();
        self.update_profile(self.cwnd, avg_delay);
        let target = self.min_delay_ms * self.delay_target_ratio;
        if avg_delay > self.max_delay_seen_ms.max(target) {
            // Severe overshoot: multiplicative decrease.
            self.cwnd = (self.cwnd * BACKOFF).max(2.0);
        } else if avg_delay > target {
            // Mild overshoot: consult the profile for a smaller-delay window.
            if let Some(w) = self.window_for_delay(target * 0.9) {
                self.cwnd = (self.cwnd * 0.5 + w * 0.5).max(2.0);
            } else {
                self.cwnd = (self.cwnd - 1.0).max(2.0);
            }
        } else {
            // Below target: ask for a window associated with a bit more delay
            // than we currently see, i.e. keep pushing rate up.
            if let Some(w) = self.window_for_delay(avg_delay * 1.2) {
                self.cwnd = self.cwnd.max(w) + 2.0;
            } else {
                self.cwnd += 2.0;
            }
        }
        self.max_delay_seen_ms = self.max_delay_seen_ms.max(avg_delay);
    }
}

impl CongestionControl for Verus {
    fn name(&self) -> &'static str {
        "Verus"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let rtt = ack.rtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(self.srtt.as_secs_f64() * 0.875 + rtt * 0.125);
        self.min_delay_ms = self.min_delay_ms.min(ack.one_way_delay_ms.max(0.1));
        self.epoch_delays.push(ack.one_way_delay_ms);
        let epoch_len =
            Duration::from_secs_f64((self.srtt.as_secs_f64() * EPOCH_RTT_FRACTION).max(0.005));
        if ack.now.saturating_since(self.epoch_start) >= epoch_len {
            self.end_epoch(ack.now);
            self.epoch_start = ack.now;
        }
    }

    fn on_loss(&mut self, _now: Instant) {
        self.cwnd = (self.cwnd * 0.5).max(2.0);
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
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

    fn ack(now_ms: u64, delay_ms: f64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_secs_f64(delay_ms * 2.0 / 1e3),
            one_way_delay_ms: delay_ms,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn low_delay_grows_the_window() {
        let mut verus = Verus::new(Duration::from_millis(40));
        let start = verus.cwnd_segments();
        for i in 0..300u64 {
            verus.on_ack(&ack(i * 5, 25.0));
        }
        assert!(verus.cwnd_segments() > start);
    }

    #[test]
    fn sustained_delay_overshoot_backs_off() {
        let mut verus = Verus::new(Duration::from_millis(40));
        // Establish a low minimum delay, then grow.
        for i in 0..200u64 {
            verus.on_ack(&ack(i * 5, 25.0));
        }
        let grown = verus.cwnd_segments();
        // Delay explodes to 10x the minimum.
        for i in 200..600u64 {
            verus.on_ack(&ack(i * 5, 280.0));
        }
        assert!(
            verus.cwnd_segments() < grown,
            "window backs off under 280 ms delays ({} -> {})",
            grown,
            verus.cwnd_segments()
        );
    }

    #[test]
    fn verus_tolerates_moderate_delay_above_minimum() {
        // Delay at 3x the minimum is inside Verus's tolerance, so the window
        // should not collapse — the root cause of its high standing delay.
        let mut verus = Verus::new(Duration::from_millis(40));
        for i in 0..100u64 {
            verus.on_ack(&ack(i * 5, 30.0));
        }
        for i in 100..400u64 {
            verus.on_ack(&ack(i * 5, 90.0));
        }
        assert!(
            verus.cwnd_segments() >= 10.0,
            "cwnd = {}",
            verus.cwnd_segments()
        );
    }

    #[test]
    fn loss_halves_the_window() {
        let mut verus = Verus::new(Duration::from_millis(40));
        for i in 0..200u64 {
            verus.on_ack(&ack(i * 5, 25.0));
        }
        let before = verus.cwnd_segments();
        verus.on_loss(Instant::from_secs(2));
        assert!((verus.cwnd_segments() - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn profile_is_learned() {
        let mut verus = Verus::new(Duration::from_millis(40));
        for i in 0..500u64 {
            verus.on_ack(&ack(i * 5, 30.0 + (i % 10) as f64));
        }
        let populated = verus.profile.iter().filter(|d| **d > 0.0).count();
        assert!(populated >= 1, "profile buckets populated: {populated}");
        assert!(verus.window_for_delay(1000.0).is_some());
        assert!(verus.window_for_delay(0.0001).is_none());
    }
}
