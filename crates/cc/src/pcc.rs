//! PCC Allegro (Dong et al., NSDI 2015) — performance-oriented congestion
//! control by online rate experiments.
//!
//! PCC does not model the network.  It runs short monitor intervals at
//! candidate rates, computes a utility from the observed throughput and loss,
//! and moves its rate in the direction that empirically increased utility:
//! doubling while every experiment helps (starting phase), then A/B-testing
//! `rate × (1 ± ε)` and stepping towards the winner (decision phase).
//! On a time-varying cellular link the utility experiments frequently
//! disagree, which keeps PCC's rate conservative — matching the low
//! throughput the paper observes.

use crate::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};

/// Allegro's probing step ε.
const EPSILON: f64 = 0.05;
/// Loss penalty coefficient of the Allegro utility.
const LOSS_COEFF: f64 = 11.35;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Double the rate each interval while utility keeps improving.
    Starting,
    /// Test rate*(1+ε) then rate*(1−ε), move towards the better one.
    Decision,
}

#[derive(Debug, Clone, Copy)]
struct IntervalResult {
    rate: f64,
    utility: f64,
}

/// PCC Allegro.
#[derive(Debug)]
pub struct Pcc {
    rate_bps: f64,
    phase: Phase,
    srtt: Duration,
    interval_start: Instant,
    interval_bytes: u64,
    interval_losses: u64,
    interval_acks: u64,
    /// The rate being tested this interval and the direction of the test.
    testing_high: bool,
    pending: Option<IntervalResult>,
    last_utility: f64,
}

impl Pcc {
    /// New PCC Allegro instance.
    pub fn new(rtprop_hint: Duration) -> Self {
        Pcc {
            rate_bps: INITIAL_RATE_BPS,
            phase: Phase::Starting,
            srtt: rtprop_hint,
            interval_start: Instant::ZERO,
            interval_bytes: 0,
            interval_losses: 0,
            interval_acks: 0,
            testing_high: true,
            pending: None,
            last_utility: 0.0,
        }
    }

    /// Base sending rate (between experiments).
    pub fn base_rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn utility(rate_bps: f64, loss_rate: f64) -> f64 {
        // Allegro's sigmoid-free approximation: throughput minus a steep loss
        // penalty (both in Mbit/s terms).
        let tput = rate_bps * (1.0 - loss_rate) / 1e6;
        tput - LOSS_COEFF * (rate_bps / 1e6) * loss_rate
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
        let utility = Self::utility(achieved, loss_rate);
        match self.phase {
            Phase::Starting => {
                if utility > self.last_utility {
                    self.last_utility = utility;
                    self.rate_bps *= 2.0;
                } else {
                    self.rate_bps /= 2.0;
                    self.phase = Phase::Decision;
                    self.last_utility = utility;
                }
            }
            Phase::Decision => {
                let result = IntervalResult {
                    rate: self.current_test_rate(),
                    utility,
                };
                if let Some(prev) = self.pending.take() {
                    // Two experiments done: move towards the better one.
                    let winner = if prev.utility >= result.utility {
                        prev
                    } else {
                        result
                    };
                    let step = self.rate_bps * EPSILON;
                    if winner.rate > self.rate_bps {
                        self.rate_bps += step;
                    } else if winner.rate < self.rate_bps {
                        self.rate_bps = (self.rate_bps - step).max(8.0 * MSS_BYTES as f64);
                    }
                    self.testing_high = true;
                } else {
                    self.pending = Some(result);
                    self.testing_high = false;
                }
                self.last_utility = utility;
            }
        }
        self.rate_bps = self.rate_bps.clamp(8.0 * MSS_BYTES as f64, 10e9);
        self.interval_start = now;
        self.interval_bytes = 0;
        self.interval_losses = 0;
        self.interval_acks = 0;
    }

    fn current_test_rate(&self) -> f64 {
        match self.phase {
            Phase::Starting => self.rate_bps,
            Phase::Decision => {
                if self.testing_high {
                    self.rate_bps * (1.0 + EPSILON)
                } else {
                    self.rate_bps * (1.0 - EPSILON)
                }
            }
        }
    }
}

impl CongestionControl for Pcc {
    fn name(&self) -> &'static str {
        "PCC"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let rtt = ack.rtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(self.srtt.as_secs_f64() * 0.875 + rtt * 0.125);
        self.interval_bytes += ack.bytes_acked;
        self.interval_acks += 1;
        if ack.loss_detected {
            self.interval_losses += 1;
        }
        // A monitor interval is ~1 RTT.
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
        self.current_test_rate()
    }

    fn cwnd_bytes(&self) -> u64 {
        // Rate-based: allow up to two BDP-equivalents in flight.
        (self.current_test_rate() / 8.0 * self.srtt.as_secs_f64() * 2.0).max(2.0 * MSS_BYTES as f64)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, bytes: u64, lost: bool) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: bytes,
            rtt: Duration::from_millis(40),
            one_way_delay_ms: 20.0,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: lost,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn starting_phase_doubles_while_utility_grows() {
        let mut pcc = Pcc::new(Duration::from_millis(40));
        let r0 = pcc.base_rate_bps();
        // Deliver generously so each interval's achieved rate keeps growing.
        for i in 1..=400u64 {
            pcc.on_ack(&ack(i * 5, 6_000 * i / 40, false));
        }
        assert!(
            pcc.base_rate_bps() > r0,
            "rate grew from {r0} to {}",
            pcc.base_rate_bps()
        );
    }

    #[test]
    fn losses_reduce_utility_and_cap_the_rate() {
        let mut clean = Pcc::new(Duration::from_millis(40));
        let mut lossy = Pcc::new(Duration::from_millis(40));
        for i in 1..=800u64 {
            clean.on_ack(&ack(i * 5, 3_000, false));
            lossy.on_ack(&ack(i * 5, 3_000, i % 3 == 0));
        }
        assert!(lossy.base_rate_bps() <= clean.base_rate_bps());
    }

    #[test]
    fn utility_function_penalises_loss() {
        let no_loss = Pcc::utility(10e6, 0.0);
        let with_loss = Pcc::utility(10e6, 0.1);
        assert!(no_loss > with_loss);
        assert!(with_loss < 0.0, "10 % loss makes the utility negative");
    }

    #[test]
    fn decision_phase_alternates_test_rates() {
        let mut pcc = Pcc::new(Duration::from_millis(40));
        pcc.phase = Phase::Decision;
        let base = pcc.base_rate_bps();
        pcc.testing_high = true;
        assert!(pcc.pacing_rate_bps() > base);
        pcc.testing_high = false;
        assert!(pcc.pacing_rate_bps() < base);
    }

    #[test]
    fn rate_never_collapses_to_zero() {
        let mut pcc = Pcc::new(Duration::from_millis(40));
        for i in 1..=2000u64 {
            pcc.on_ack(&ack(i * 5, 100, i % 2 == 0));
        }
        assert!(pcc.base_rate_bps() >= 8.0 * MSS_BYTES as f64);
        assert!(pcc.cwnd_bytes() >= 2 * MSS_BYTES);
    }
}
