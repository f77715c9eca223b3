//! PCC Vivace (Dong et al., NSDI 2018) — online-learning congestion control
//! with a latency-aware utility and gradient-based rate updates.
//!
//! Vivace replaces Allegro's throughput/loss utility with
//! `u(x) = x^t − b·x·(d(RTT)/dt) − c·x·loss` and performs gradient ascent on
//! the measured utility, with a confidence-amplified step size.  The latency
//! -gradient term makes Vivace throttle quickly when delay rises — on a
//! cellular link whose delay jitters with HARQ retransmissions this produces
//! the conservative rates the paper observes.

use crate::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};

/// Exponent of the throughput term.
const THROUGHPUT_EXPONENT: f64 = 0.9;
/// Latency-gradient penalty coefficient.
const LATENCY_COEFF: f64 = 900.0;
/// Loss penalty coefficient.
const LOSS_COEFF: f64 = 11.35;
/// Base gradient step (Mbit/s per unit utility gradient).
const STEP_MBPS: f64 = 0.05;

/// PCC Vivace.
#[derive(Debug)]
pub struct Vivace {
    rate_bps: f64,
    srtt: Duration,
    interval_start: Instant,
    interval_bytes: u64,
    interval_losses: u64,
    interval_acks: u64,
    delay_first_ms: Option<f64>,
    delay_last_ms: f64,
    prev: Option<(f64, f64)>, // (rate, utility)
    /// Consecutive moves in the same direction (confidence amplification).
    streak: u32,
}

impl Vivace {
    /// New Vivace instance.
    pub fn new(rtprop_hint: Duration) -> Self {
        Vivace {
            rate_bps: INITIAL_RATE_BPS,
            srtt: rtprop_hint,
            interval_start: Instant::ZERO,
            interval_bytes: 0,
            interval_losses: 0,
            interval_acks: 0,
            delay_first_ms: None,
            delay_last_ms: 0.0,
            prev: None,
            streak: 0,
        }
    }

    /// Current base rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn utility(rate_bps: f64, latency_gradient: f64, loss_rate: f64) -> f64 {
        let x = rate_bps / 1e6;
        x.powf(THROUGHPUT_EXPONENT)
            - LATENCY_COEFF * x * latency_gradient.max(0.0)
            - LOSS_COEFF * x * loss_rate
    }

    fn finish_interval(&mut self, now: Instant) {
        let elapsed = now.saturating_since(self.interval_start).as_secs_f64();
        if elapsed <= 0.0 || self.interval_acks == 0 {
            self.interval_start = now;
            return;
        }
        let achieved = self.interval_bytes as f64 * 8.0 / elapsed;
        let loss_rate =
            self.interval_losses as f64 / (self.interval_acks + self.interval_losses) as f64;
        let latency_gradient = match self.delay_first_ms {
            Some(first) => (self.delay_last_ms - first) / 1e3 / elapsed, // s/s
            None => 0.0,
        };
        let utility = Self::utility(achieved, latency_gradient, loss_rate);
        if let Some((prev_rate, prev_utility)) = self.prev {
            let d_rate = (self.rate_bps - prev_rate) / 1e6;
            if d_rate.abs() > 1e-9 {
                let gradient = (utility - prev_utility) / d_rate;
                let amplified = STEP_MBPS * (1.0 + self.streak as f64 * 0.5).min(10.0);
                let delta = (gradient * amplified).clamp(-5.0, 5.0) * 1e6;
                if delta.signum() == d_rate.signum() * (utility - prev_utility).signum() {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                }
                self.rate_bps += delta;
            } else {
                // Probe upwards slightly to generate a gradient sample.
                self.rate_bps *= 1.02;
            }
        } else {
            self.rate_bps *= 1.1;
        }
        self.rate_bps = self.rate_bps.clamp(8.0 * MSS_BYTES as f64, 10e9);
        self.prev = Some((self.rate_bps, utility));
        self.interval_start = now;
        self.interval_bytes = 0;
        self.interval_losses = 0;
        self.interval_acks = 0;
        self.delay_first_ms = None;
    }
}

impl CongestionControl for Vivace {
    fn name(&self) -> &'static str {
        "Vivace"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let rtt = ack.rtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(self.srtt.as_secs_f64() * 0.875 + rtt * 0.125);
        self.interval_bytes += ack.bytes_acked;
        self.interval_acks += 1;
        if ack.loss_detected {
            self.interval_losses += 1;
        }
        if self.delay_first_ms.is_none() {
            self.delay_first_ms = Some(ack.one_way_delay_ms);
        }
        self.delay_last_ms = ack.one_way_delay_ms;
        let interval = Duration::from_secs_f64(self.srtt.as_secs_f64().max(0.01));
        if ack.now.saturating_since(self.interval_start) >= interval {
            self.finish_interval(ack.now);
        }
    }

    fn on_loss(&mut self, _now: Instant) {
        self.interval_losses += 1;
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.rate_bps / 8.0 * self.srtt.as_secs_f64() * 2.0).max(2.0 * MSS_BYTES as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, bytes: u64, delay_ms: f64, lost: bool) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: bytes,
            rtt: Duration::from_millis(40),
            one_way_delay_ms: delay_ms,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: lost,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn rate_grows_when_delay_is_flat_and_no_loss() {
        let mut vivace = Vivace::new(Duration::from_millis(40));
        let r0 = vivace.rate_bps();
        for i in 1..=600u64 {
            vivace.on_ack(&ack(i * 5, 4_000, 25.0, false));
        }
        assert!(vivace.rate_bps() > r0, "{} > {r0}", vivace.rate_bps());
    }

    #[test]
    fn rising_delay_caps_growth() {
        let mut flat = Vivace::new(Duration::from_millis(40));
        let mut rising = Vivace::new(Duration::from_millis(40));
        for i in 1..=600u64 {
            flat.on_ack(&ack(i * 5, 4_000, 25.0, false));
            // Delay keeps climbing within every interval for the other flow.
            rising.on_ack(&ack(i * 5, 4_000, 25.0 + (i % 8) as f64 * 20.0, false));
        }
        assert!(rising.rate_bps() <= flat.rate_bps() * 1.05);
    }

    #[test]
    fn utility_penalises_latency_gradient_and_loss() {
        let base = Vivace::utility(20e6, 0.0, 0.0);
        assert!(Vivace::utility(20e6, 0.5, 0.0) < base);
        assert!(Vivace::utility(20e6, 0.0, 0.2) < base);
    }

    #[test]
    fn rate_stays_bounded() {
        let mut vivace = Vivace::new(Duration::from_millis(40));
        for i in 1..=3000u64 {
            vivace.on_ack(&ack(i * 2, 50_000, 25.0, false));
        }
        assert!(vivace.rate_bps() <= 10e9);
        assert!(vivace.rate_bps() >= 8.0 * MSS_BYTES as f64);
        assert!(vivace.cwnd_bytes() >= 2 * MSS_BYTES);
    }
}
