//! Deliberately misbehaving schemes for failure-injection tests.
//!
//! The failure-contained execution harness (worker-pool panic containment,
//! per-scenario deadlines, quarantine) needs scenarios that *reliably* fail
//! in each contained way.  These two schemes provide that, through the same
//! registry every real scheme uses, so a chaos scenario is an ordinary
//! [`ScenarioSpec`](../../pbe_bench/sweep) with `scheme = "CHAOS_PANIC"` —
//! no test-only hooks in the simulator.
//!
//! Neither scheme is part of the paper's evaluation; they are registered in
//! the default registry (not the baseline set) so sweeps only run them when
//! a grid asks by name.

use crate::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_stats::time::Instant;

/// Fixed window for both chaos schemes: 20 packets, enough to keep ACKs
/// flowing at the conservative initial rate.
const CHAOS_CWND_BYTES: u64 = 20 * MSS_BYTES;

/// A scheme that panics after a fixed number of acknowledgements.
///
/// The flow starts normally (packets go out at a conservative rate, ACKs
/// come back), then the `trigger`-th ACK panics — mid-simulation, on
/// whatever thread is executing the scenario, exactly like a genuine
/// scheme bug would.
#[derive(Debug)]
pub struct ChaosPanic {
    acks: u64,
    trigger: u64,
}

impl ChaosPanic {
    /// Panic on the `trigger`-th acknowledgement (1 panics on the first).
    fn after_acks(trigger: u64) -> Self {
        ChaosPanic { acks: 0, trigger }
    }
}

impl Default for ChaosPanic {
    /// Panic on the 5th acknowledgement — late enough that the flow is
    /// demonstrably running, early enough to keep chaos tests fast.
    fn default() -> Self {
        ChaosPanic::after_acks(5)
    }
}

impl CongestionControl for ChaosPanic {
    fn name(&self) -> &'static str {
        "CHAOS_PANIC"
    }

    fn on_ack(&mut self, _ack: &AckInfo) {
        self.acks += 1;
        if self.acks >= self.trigger {
            panic!("chaos: injected scheme panic on ack {}", self.acks);
        }
    }

    fn on_loss(&mut self, _now: Instant) {}

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight_bytes: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        INITIAL_RATE_BPS
    }

    fn cwnd_bytes(&self) -> u64 {
        CHAOS_CWND_BYTES
    }
}

/// A scheme that burns wall-clock time: every acknowledgement sleeps.
///
/// Used to trip the executor's per-scenario deadline.  The sleep happens in
/// small increments with a total budget, so an abandoned watchdog thread
/// finishes on its own instead of hanging for the life of the process.
#[derive(Debug)]
pub struct ChaosHang {
    per_ack_ms: u64,
    budget_ms: u64,
    slept_ms: u64,
}

impl ChaosHang {
    /// Sleep `per_ack_ms` per acknowledgement, up to `budget_ms` total.
    pub fn new(per_ack_ms: u64, budget_ms: u64) -> Self {
        ChaosHang {
            per_ack_ms,
            budget_ms,
            slept_ms: 0,
        }
    }
}

impl Default for ChaosHang {
    /// 20 ms per ACK, 2 s total — far past any test deadline, bounded
    /// cleanup for the abandoned thread.
    fn default() -> Self {
        ChaosHang::new(20, 2_000)
    }
}

impl CongestionControl for ChaosHang {
    fn name(&self) -> &'static str {
        "CHAOS_HANG"
    }

    fn on_ack(&mut self, _ack: &AckInfo) {
        if self.slept_ms < self.budget_ms {
            std::thread::sleep(std::time::Duration::from_millis(self.per_ack_ms));
            self.slept_ms += self.per_ack_ms;
        }
    }

    fn on_loss(&mut self, _now: Instant) {}

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight_bytes: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        INITIAL_RATE_BPS
    }

    fn cwnd_bytes(&self) -> u64 {
        CHAOS_CWND_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_stats::time::Duration;

    fn ack(n: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(n),
            packet_id: n,
            bytes_acked: 1500,
            rtt: Duration::from_millis(20),
            one_way_delay_ms: 10.0,
            delivery_rate_bps: 1e6,
            inflight_bytes: 15_000,
            ecn_ce: false,
            loss_detected: false,
            pbe: None,
        }
    }

    #[test]
    fn chaos_panic_survives_until_its_trigger() {
        let mut cc = ChaosPanic::after_acks(3);
        cc.on_ack(&ack(1));
        cc.on_ack(&ack(2));
        assert!(cc.pacing_rate_bps() > 0.0);
        assert!(cc.cwnd_bytes() > 0);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cc.on_ack(&ack(3))));
        let payload = boom.expect_err("the third ack panics");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("chaos: injected scheme panic"));
    }

    #[test]
    fn chaos_hang_sleeps_only_up_to_its_budget() {
        let mut cc = ChaosHang::new(1, 2);
        let started = std::time::Instant::now();
        for n in 0..50 {
            cc.on_ack(&ack(n));
        }
        // 2 ms budget: 50 ACKs must not sleep 50 ms.
        assert!(started.elapsed() < std::time::Duration::from_millis(40));
        assert!(cc.pacing_rate_bps() > 0.0);
    }
}
