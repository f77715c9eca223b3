//! Copa (Arun & Balakrishnan, NSDI 2018) — delay-based target-rate control.
//!
//! Copa steers its sending rate towards the target `1 / (δ · d_q)` packets
//! per second, where `d_q` is the measured queueing delay (standing RTT minus
//! the minimum RTT) and δ defaults to 0.5.  The window moves towards the
//! target by `v / (δ · cwnd)` per ACK, with the velocity `v` doubling while
//! the direction is consistent.  The result is low queueing delay but — on a
//! fast-varying cellular link — a conservative rate, which is exactly the
//! behaviour the paper reports (an order of magnitude lower throughput than
//! PBE-CC, with slightly lower delay).

use crate::api::{AckInfo, CongestionControl, MSS_BYTES};
use crate::windowed::WindowedMin;
use pbe_stats::time::{Duration, Instant};

/// Copa's δ parameter (packets of queueing the algorithm tolerates).
const DELTA: f64 = 0.5;

/// Copa congestion control.
#[derive(Debug)]
pub struct Copa {
    cwnd: f64,
    velocity: f64,
    direction_up: bool,
    direction_streak: u32,
    rtt_min: WindowedMin,
    rtt_standing: WindowedMin,
    srtt: Duration,
    last_update: Instant,
}

impl Copa {
    /// New Copa instance.
    pub fn new(rtprop_hint: Duration) -> Self {
        Copa {
            cwnd: 10.0,
            velocity: 1.0,
            direction_up: true,
            direction_streak: 0,
            rtt_min: WindowedMin::new(Duration::from_secs(10)),
            rtt_standing: WindowedMin::new(Duration::from_millis(100)),
            srtt: rtprop_hint,
            last_update: Instant::ZERO,
        }
    }

    /// Congestion window in segments.
    #[cfg(test)]
    fn cwnd_segments(&self) -> f64 {
        self.cwnd
    }

    /// Current queueing-delay estimate in seconds.
    fn queueing_delay(&self) -> f64 {
        let standing = self.rtt_standing.get();
        let min = self.rtt_min.get();
        if standing.is_finite() && min.is_finite() {
            (standing - min).max(0.0)
        } else {
            0.0
        }
    }
}

impl CongestionControl for Copa {
    fn name(&self) -> &'static str {
        "Copa"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let now = ack.now;
        let rtt = ack.rtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(self.srtt.as_secs_f64() * 0.875 + rtt * 0.125);
        self.rtt_min.update(now, rtt);
        // The "standing" RTT is the minimum over the last srtt/2, per the
        // Copa paper — a longer window would catch too many lucky
        // empty-queue samples and underestimate the queueing delay.
        self.rtt_standing
            .set_window(Duration::from_secs_f64(self.srtt.as_secs_f64() / 2.0));
        self.rtt_standing.update(now, rtt);

        let d_q = self.queueing_delay();
        let target_rate_pps = if d_q > 1e-6 {
            1.0 / (DELTA * d_q)
        } else {
            f64::INFINITY
        };
        let current_rate_pps = self.cwnd / self.srtt.as_secs_f64().max(1e-3);

        let go_up = current_rate_pps <= target_rate_pps;
        if go_up == self.direction_up {
            self.direction_streak += 1;
            if self.direction_streak >= 3 {
                self.velocity = (self.velocity * 2.0).min(64.0);
            }
        } else {
            self.direction_up = go_up;
            self.direction_streak = 0;
            self.velocity = 1.0;
        }

        let step = self.velocity / (DELTA * self.cwnd.max(1.0));
        if go_up {
            self.cwnd += step;
        } else {
            self.cwnd -= step;
        }
        self.cwnd = self.cwnd.clamp(2.0, 10_000.0);
        self.last_update = now;
    }

    fn on_loss(&mut self, _now: Instant) {
        // Copa's default mode reacts to delay, not to individual losses; a
        // loss simply resets the velocity.
        self.velocity = 1.0;
        self.cwnd = (self.cwnd * 0.7).max(2.0);
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        let rtt = self.srtt.as_secs_f64().max(1e-3);
        // Copa paces at 2 × cwnd / RTT spread evenly (factor 1.0 here keeps
        // it the limiting factor together with the window).
        self.cwnd * MSS_BYTES as f64 * 8.0 / rtt
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.cwnd * MSS_BYTES as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64, rtt_ms: f64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_secs_f64(rtt_ms / 1e3),
            one_way_delay_ms: rtt_ms / 2.0,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    #[test]
    fn grows_when_queueing_delay_is_small() {
        let mut copa = Copa::new(Duration::from_millis(40));
        let start = copa.cwnd_segments();
        for i in 0..200u64 {
            copa.on_ack(&ack(i * 10, 40.0));
        }
        assert!(copa.cwnd_segments() > start, "no queue -> window grows");
    }

    #[test]
    fn shrinks_when_queueing_delay_is_large() {
        let mut copa = Copa::new(Duration::from_millis(40));
        // Establish a min RTT of 40 ms, then inflate the RTT to 200 ms.
        for i in 0..50u64 {
            copa.on_ack(&ack(i * 10, 40.0));
        }
        let inflated_start = copa.cwnd_segments();
        for i in 50..300u64 {
            copa.on_ack(&ack(i * 10, 200.0));
        }
        assert!(
            copa.cwnd_segments() < inflated_start,
            "persistent queueing delay shrinks the window ({} -> {})",
            inflated_start,
            copa.cwnd_segments()
        );
        assert!(copa.queueing_delay() > 0.1);
    }

    #[test]
    fn velocity_doubles_with_consistent_direction() {
        let mut copa = Copa::new(Duration::from_millis(40));
        for i in 0..30u64 {
            copa.on_ack(&ack(i * 10, 40.0));
        }
        assert!(
            copa.velocity > 1.0,
            "velocity accelerates: {}",
            copa.velocity
        );
    }

    #[test]
    fn loss_resets_velocity_and_backs_off() {
        let mut copa = Copa::new(Duration::from_millis(40));
        for i in 0..30u64 {
            copa.on_ack(&ack(i * 10, 40.0));
        }
        let before = copa.cwnd_segments();
        copa.on_loss(Instant::from_millis(400));
        assert!(copa.cwnd_segments() < before);
        assert_eq!(copa.velocity, 1.0);
    }

    #[test]
    fn window_stays_within_bounds() {
        let mut copa = Copa::new(Duration::from_millis(40));
        for i in 0..500u64 {
            copa.on_ack(&ack(i * 5, 35.0));
        }
        assert!(copa.cwnd_segments() <= 10_000.0);
        assert!(copa.cwnd_segments() >= 2.0);
        assert!(copa.pacing_rate_bps() > 0.0);
    }
}
