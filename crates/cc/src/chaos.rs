//! A deliberately misbehaving scheme for failure-injection tests.
//!
//! The failure-contained execution harness (per-scenario panic containment,
//! quarantine) needs a scenario that *reliably* panics mid-run.  This scheme
//! provides it through the same registry every real scheme uses, so a chaos
//! scenario is an ordinary [`ScenarioSpec`](../../pbe_bench/sweep) with
//! `scheme = "CHAOS_PANIC"` — no test-only hooks in the simulator.
//!
//! It is not part of the paper's evaluation; it is registered in the default
//! registry (not the baseline set) so sweeps only run it when a grid asks by
//! name.

use crate::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_stats::time::Instant;

/// Fixed window of the chaos scheme: 20 packets, enough to keep ACKs
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
}
