//! Sprout (Winstein et al., NSDI 2013) — stochastic-forecast congestion
//! control for cellular links.
//!
//! Sprout infers the link's packet-delivery process from packet arrival
//! times, forecasts the number of packets the link will deliver over the next
//! "tick" intervals, and sends only as much as the *conservative* (5th
//! percentile in the original, a low quantile here) forecast says will drain
//! within the 100 ms delay target.  The conservatism gives Sprout low delay
//! but leaves capacity unused on links that are faster than the pessimistic
//! forecast — the behaviour the paper measures.

use crate::api::{AckInfo, CongestionControl, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};
use std::collections::VecDeque;

/// Delay target: Sprout aims for packets to spend at most this long queued.
const DELAY_TARGET_MS: f64 = 100.0;
/// Quantile of the recent delivery-rate distribution used as the forecast.
const CONSERVATIVE_QUANTILE: f64 = 0.05;

/// Sprout congestion control.
#[derive(Debug)]
pub struct Sprout {
    /// Recent per-ACK delivery-rate samples (bits per second).
    rate_samples: VecDeque<f64>,
    srtt: Duration,
    cwnd_bytes: u64,
    forecast_bps: f64,
}

impl Sprout {
    /// New Sprout instance.
    pub fn new(rtprop_hint: Duration) -> Self {
        Sprout {
            rate_samples: VecDeque::with_capacity(256),
            srtt: rtprop_hint,
            cwnd_bytes: 10 * MSS_BYTES,
            forecast_bps: 1.0e6,
        }
    }

    /// The conservative delivery forecast in bits per second.
    #[cfg(test)]
    fn forecast_bps(&self) -> f64 {
        self.forecast_bps
    }

    fn update_forecast(&mut self) {
        if self.rate_samples.is_empty() {
            return;
        }
        let mut sorted: Vec<f64> = self.rate_samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((sorted.len() as f64 - 1.0) * CONSERVATIVE_QUANTILE) as usize;
        self.forecast_bps = sorted[idx].max(8.0 * MSS_BYTES as f64);
    }
}

impl CongestionControl for Sprout {
    fn name(&self) -> &'static str {
        "Sprout"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let rtt = ack.rtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(self.srtt.as_secs_f64() * 0.875 + rtt * 0.125);
        if ack.delivery_rate_bps > 0.0 {
            self.rate_samples.push_back(ack.delivery_rate_bps);
            while self.rate_samples.len() > 200 {
                self.rate_samples.pop_front();
            }
        }
        self.update_forecast();
        // Window: the bytes the conservative forecast drains within the delay
        // target, minus what is already queued (approximated by the amount in
        // flight beyond one BDP).
        let budget_bytes = self.forecast_bps / 8.0 * (DELAY_TARGET_MS / 1e3);
        let bdp_bytes = self.forecast_bps / 8.0 * self.srtt.as_secs_f64();
        let queued = ack.inflight_bytes as f64 - bdp_bytes;
        let window = (budget_bytes - queued.max(0.0)).max(MSS_BYTES as f64 * 2.0);
        self.cwnd_bytes = window as u64;
    }

    fn on_loss(&mut self, _now: Instant) {
        // Forecast-driven; loss shrinks the window only via the forecast.
        self.cwnd_bytes = (self.cwnd_bytes / 2).max(2 * MSS_BYTES);
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        self.forecast_bps
    }

    fn cwnd_bytes(&self) -> u64 {
        self.cwnd_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rate_bps: f64, inflight: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(40),
            one_way_delay_ms: 20.0,
            delivery_rate_bps: rate_bps,
            inflight_bytes: inflight,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn forecast_is_conservative_quantile_of_observed_rates() {
        let mut sprout = Sprout::new(Duration::from_millis(40));
        // Rates oscillate between 5 and 50 Mbit/s; the forecast should sit
        // near the bottom of that range.
        for i in 0..200u64 {
            let rate = if i % 2 == 0 { 5e6 } else { 50e6 };
            sprout.on_ack(&ack(i * 10, rate, 20_000));
        }
        assert!(
            sprout.forecast_bps() <= 6e6,
            "forecast = {}",
            sprout.forecast_bps()
        );
        assert!(sprout.pacing_rate_bps() <= 6e6);
    }

    #[test]
    fn window_respects_delay_target() {
        let mut sprout = Sprout::new(Duration::from_millis(40));
        for i in 0..100u64 {
            sprout.on_ack(&ack(i * 10, 24e6, 10_000));
        }
        // 24 Mbit/s × 100 ms = 300 kB budget.
        let budget = 24e6 / 8.0 * 0.1;
        assert!(sprout.cwnd_bytes() as f64 <= budget * 1.1);
        assert!(sprout.cwnd_bytes() >= 2 * MSS_BYTES);
    }

    #[test]
    fn standing_queue_shrinks_the_window() {
        let mut sprout = Sprout::new(Duration::from_millis(40));
        for i in 0..100u64 {
            sprout.on_ack(&ack(i * 10, 24e6, 10_000));
        }
        let small_queue = sprout.cwnd_bytes();
        for i in 100..200u64 {
            sprout.on_ack(&ack(i * 10, 24e6, 500_000));
        }
        assert!(sprout.cwnd_bytes() < small_queue);
    }

    #[test]
    fn loss_halves_window() {
        let mut sprout = Sprout::new(Duration::from_millis(40));
        for i in 0..50u64 {
            sprout.on_ack(&ack(i * 10, 24e6, 10_000));
        }
        let before = sprout.cwnd_bytes();
        sprout.on_loss(Instant::from_secs(1));
        assert!(sprout.cwnd_bytes() <= before / 2 + MSS_BYTES);
    }
}
