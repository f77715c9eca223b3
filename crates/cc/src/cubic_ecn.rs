//! CUBIC with classic ECN (RFC 3168) semantics.
//!
//! Identical to [`Cubic`] except that an acknowledgement echoing a
//! congestion-experienced mark triggers the same multiplicative back-off as
//! a loss — without any packet actually being dropped.  On a backhaul link
//! with a marking threshold this turns the CUBIC sawtooth from a
//! drop-and-retransmit cycle into a lossless one: the queue oscillates
//! around the marking threshold instead of the buffer limit.

use crate::api::{AckInfo, CongestionControl, CongestionSignal};
use crate::cubic::Cubic;
use pbe_stats::time::{Duration, Instant};

/// CUBIC reacting to ECN congestion-experienced echoes as to losses.
#[derive(Debug)]
pub struct CubicEcn {
    inner: Cubic,
}

impl CubicEcn {
    /// New instance with CUBIC's standard initial window.
    pub fn new(rtprop_hint: Duration) -> Self {
        CubicEcn {
            inner: Cubic::new(rtprop_hint),
        }
    }

    /// Congestion window in segments (for tests).
    pub fn cwnd_segments(&self) -> f64 {
        self.inner.cwnd_segments()
    }
}

impl CongestionControl for CubicEcn {
    fn name(&self) -> &'static str {
        "CUBIC-ECN"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        // RFC 3168: a CE echo is a congestion event exactly like a loss.
        // CUBIC's own once-per-RTT guard keeps a whole marked flight from
        // collapsing the window repeatedly.
        if ack.ecn_ce {
            self.inner.on_loss(ack.now);
        }
        self.inner.on_ack(ack);
    }

    fn on_loss(&mut self, now: Instant) {
        self.inner.on_loss(now);
    }

    fn on_packet_sent(&mut self, now: Instant, bytes: u64, inflight: u64) {
        self.inner.on_packet_sent(now, bytes, inflight);
    }

    fn pacing_rate_bps(&self) -> f64 {
        self.inner.pacing_rate_bps()
    }

    fn cwnd_bytes(&self) -> u64 {
        self.inner.cwnd_bytes()
    }

    fn on_signal(&mut self, _now: Instant, _signal: &CongestionSignal) {
        // ECN reacts through the ACK echo path only; out-of-band signals are
        // the SFC scheme's territory.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MSS_BYTES;

    fn ack(now_ms: u64, ecn_ce: bool) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(40),
            one_way_delay_ms: 20.0,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: false,
            ecn_ce,
            pbe: None,
        }
    }

    #[test]
    fn ce_echo_backs_the_window_off_like_a_loss() {
        let mut cc = CubicEcn::new(Duration::from_millis(40));
        for i in 0..60u64 {
            cc.on_ack(&ack(i, false));
        }
        let before = cc.cwnd_segments();
        cc.on_ack(&ack(100, true));
        assert!(
            cc.cwnd_segments() < before,
            "CE echo must shrink the window ({before} -> {})",
            cc.cwnd_segments()
        );
    }

    #[test]
    fn unmarked_acks_grow_the_window_exactly_like_cubic() {
        let mut ecn = CubicEcn::new(Duration::from_millis(40));
        let mut plain = Cubic::new(Duration::from_millis(40));
        for i in 0..200u64 {
            ecn.on_ack(&ack(i, false));
            plain.on_ack(&ack(i, false));
        }
        assert_eq!(ecn.cwnd_segments(), plain.cwnd_segments());
        assert_eq!(ecn.cwnd_bytes(), plain.cwnd_bytes());
    }

    #[test]
    fn one_ce_echo_is_exactly_cubics_loss_backoff_and_k() {
        // 30 unmarked ACKs in slow start: cwnd = 10 + 30 = 40 segments.
        // The CE echo at 100 ms is a loss (no earlier loss, so no guard):
        //   W_max = 40 (cwnd ≥ the old W_max of 0, no fast convergence),
        //   cwnd  = 40 · 0.7 = 28 = ssthresh.
        // The same ACK then opens the congestion-avoidance epoch:
        //   K     = ∛((W_max − cwnd) / C) = ∛(12 / 0.4) = ∛30
        //         = 3.107232505953859 s,
        //   target at t = 0: 40 + 0.4 · (0 − K)³ = 40 − 0.4 · 30 = 28,
        //   w_est = 28 + 3 · (1 − 0.7) / (1 + 0.7) / 28 = 28 + 0.9 / 47.6
        //         = 28.018907563025210,
        //   cwnd  = max(≈ 28, w_est) = 28.018907563025210.
        let mut ecn = CubicEcn::new(Duration::from_millis(40));
        let mut plain = Cubic::new(Duration::from_millis(40));
        for i in 0..30u64 {
            ecn.on_ack(&ack(i, false));
            plain.on_ack(&ack(i, false));
        }
        assert_eq!(ecn.cwnd_segments(), 40.0);
        ecn.on_ack(&ack(100, true));
        plain.on_loss(Instant::from_millis(100));
        assert_eq!(plain.cwnd_segments(), 28.0);
        plain.on_ack(&ack(100, false));
        let (w_max, k) = ecn.inner.curve();
        assert_eq!(w_max, 40.0);
        assert!((k - 30f64.cbrt()).abs() < 1e-12);
        assert!((k - 3.107_232_505_953_859).abs() < 1e-12);
        assert!((ecn.cwnd_segments() - 28.018_907_563_025_21).abs() < 1e-12);
        // Bit for bit the state plain CUBIC reaches through a loss.
        assert_eq!(format!("{:?}", ecn.inner), format!("{plain:?}"));
    }

    #[test]
    fn marks_within_one_rtt_count_as_one_congestion_event() {
        let mut cc = CubicEcn::new(Duration::from_millis(40));
        for i in 0..60u64 {
            cc.on_ack(&ack(i, false));
        }
        cc.on_ack(&ack(100, true));
        let after_first = cc.cwnd_segments();
        cc.on_ack(&ack(110, true));
        // Second mark lands inside the same RTT: no further reduction (the
        // window may have grown slightly from the ack itself).
        assert!(cc.cwnd_segments() >= after_first);
    }
}
