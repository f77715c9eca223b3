//! SFC-style near-source congestion signaling (after arxiv 2305.00538).
//!
//! The scheme pairs a plain rate-based sender with the backhaul's
//! out-of-band congestion signals: when the first congested link on the path
//! marks a packet, the network reports the link's state straight back
//! towards the server, and the signal reaches the sender after only the
//! *upstream* propagation delay — typically a small fraction of the RTT.
//! The sender reacts immediately: it caps its rate at the signaled link's
//! line rate and backs off multiplicatively.  Because the signal loop is
//! faster than the ACK loop, its back-offs re-arm every quarter RTT instead
//! of once per RTT — the tighter inner loop is exactly what the near-source
//! latency buys, and it is what lets many flows sharing one marked link
//! shed load faster than their summed additive probing rebuilds it.
//! Between signals the sender probes additively (one segment per RTT,
//! Reno-style in rate space).
//!
//! The result is the backhaul experiment's control knob: because the
//! reaction latency is the upstream delay rather than the round trip, the
//! queue at the congested link hovers near its marking threshold instead of
//! filling a full bandwidth-delay product the way an ACK-clocked scheme
//! does.

use crate::api::{AckInfo, CongestionControl, CongestionSignal, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_stats::time::{Duration, Instant};

/// Multiplicative back-off applied on each signal (once per RTT).
const SIGNAL_BETA: f64 = 0.85;
/// Multiplicative back-off applied on loss.
const LOSS_BETA: f64 = 0.7;
/// Floor on the sending rate, bits per second.
const MIN_RATE_BPS: f64 = 100e3;

/// The SFC-style near-source signaling scheme.
#[derive(Debug)]
pub struct Sfc {
    rate_bps: f64,
    srtt: Duration,
    /// Last multiplicative reduction (signal or loss), for the per-RTT guard.
    last_backoff: Option<Instant>,
    signals_seen: u64,
}

impl Sfc {
    /// New instance starting at the conservative shared initial rate.
    pub fn new(rtprop_hint: Duration) -> Self {
        Sfc {
            rate_bps: INITIAL_RATE_BPS,
            srtt: rtprop_hint,
            last_backoff: None,
            signals_seen: 0,
        }
    }

    /// Signals the sender has reacted to (for tests).
    pub fn signals_seen(&self) -> u64 {
        self.signals_seen
    }

    fn backoff_allowed(&self, now: Instant) -> bool {
        match self.last_backoff {
            Some(last) => now.saturating_since(last) >= self.srtt,
            None => true,
        }
    }

    /// The out-of-band signal loop re-arms every quarter RTT (floored at
    /// 2 ms): reacting at the cadence of the fast path is what makes the
    /// shared queue drain under fan-in, where per-RTT back-offs lose to the
    /// summed additive probing of many flows.
    fn signal_backoff_allowed(&self, now: Instant) -> bool {
        let guard = Duration::from_secs_f64((self.srtt.as_secs_f64() / 4.0).max(0.002));
        match self.last_backoff {
            Some(last) => now.saturating_since(last) >= guard,
            None => true,
        }
    }
}

impl CongestionControl for Sfc {
    fn name(&self) -> &'static str {
        "SFC"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let sample = ack.rtt.as_secs_f64();
        let prev = self.srtt.as_secs_f64();
        self.srtt = Duration::from_secs_f64(prev * 0.875 + sample * 0.125);
        if ack.loss_detected {
            self.on_loss(ack.now);
            return;
        }
        // The ACK echo is the fallback for marks whose out-of-band signal
        // the sender somehow never saw; the per-RTT guard makes the two
        // delivery paths idempotent within a flight.
        if ack.ecn_ce && self.backoff_allowed(ack.now) {
            self.last_backoff = Some(ack.now);
            self.rate_bps = (self.rate_bps * SIGNAL_BETA).max(MIN_RATE_BPS);
            return;
        }
        // Additive probing: one segment per RTT in rate space, spread over
        // the ~rate·RTT/MSS acks of a flight.  Held back for one RTT after
        // any back-off so a congestion episode is not refilled while the
        // marked queue is still draining.
        if !self.backoff_allowed(ack.now) {
            return;
        }
        let srtt_s = self.srtt.as_secs_f64().max(1e-3);
        let seg_bits = (MSS_BYTES * 8) as f64;
        self.rate_bps += seg_bits * seg_bits / (self.rate_bps.max(MIN_RATE_BPS) * srtt_s * srtt_s);
    }

    fn on_loss(&mut self, now: Instant) {
        if !self.backoff_allowed(now) {
            return;
        }
        self.last_backoff = Some(now);
        self.rate_bps = (self.rate_bps * LOSS_BETA).max(MIN_RATE_BPS);
    }

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn cwnd_bytes(&self) -> u64 {
        // Two bandwidth-delay products of headroom so pacing, not the
        // window, is the binding control.
        let bdp = self.rate_bps / 8.0 * self.srtt.as_secs_f64();
        (2.0 * bdp).max(4.0 * MSS_BYTES as f64) as u64
    }

    fn on_signal(&mut self, now: Instant, signal: &CongestionSignal) {
        self.signals_seen += 1;
        // Backpressure from the first marked link: never send faster than
        // the congested link's line rate, and shed a further fraction so its
        // queue drains below the marking threshold.
        self.rate_bps = self.rate_bps.min(signal.link_rate_bps);
        if self.signal_backoff_allowed(now) {
            self.last_backoff = Some(now);
            self.rate_bps = (self.rate_bps * SIGNAL_BETA).max(MIN_RATE_BPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(now_ms: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(40),
            one_way_delay_ms: 20.0,
            delivery_rate_bps: 10e6,
            inflight_bytes: 30_000,
            loss_detected: false,
            ecn_ce: false,
            pbe: None,
        }
    }

    fn signal(now_ms: u64, link_rate_bps: f64, queue_bytes: u64) -> CongestionSignal {
        CongestionSignal {
            at: Instant::from_millis(now_ms),
            link_rate_bps,
            queue_bytes,
            queue_delay: Duration::from_secs_f64(queue_bytes as f64 * 8.0 / link_rate_bps),
        }
    }

    #[test]
    fn acks_probe_additively() {
        let mut cc = Sfc::new(Duration::from_millis(40));
        let before = cc.pacing_rate_bps();
        for i in 0..500u64 {
            cc.on_ack(&ack(i));
        }
        assert!(
            cc.pacing_rate_bps() > before,
            "rate must grow between signals"
        );
    }

    #[test]
    fn signal_caps_rate_at_the_marked_links_line_rate() {
        let mut cc = Sfc::new(Duration::from_millis(40));
        for i in 0..5_000u64 {
            cc.on_ack(&ack(i));
        }
        assert!(cc.pacing_rate_bps() > 10e6, "probing grew past 10 Mbit/s");
        cc.on_signal(Instant::from_millis(6_000), &signal(6_000, 8e6, 40_000));
        assert!(
            cc.pacing_rate_bps() <= 8e6,
            "rate {} must not exceed the signaled link rate",
            cc.pacing_rate_bps()
        );
        assert_eq!(cc.signals_seen(), 1);
    }

    #[test]
    fn signal_backoffs_rearm_every_quarter_rtt() {
        // srtt converges to 40 ms, so the signal guard is 10 ms.
        let mut cc = Sfc::new(Duration::from_millis(40));
        for i in 0..1_000u64 {
            cc.on_ack(&ack(i));
        }
        cc.on_signal(Instant::from_millis(2_000), &signal(2_000, 50e6, 10_000));
        let after_first = cc.pacing_rate_bps();
        cc.on_signal(Instant::from_millis(2_005), &signal(2_005, 50e6, 10_000));
        assert_eq!(
            cc.pacing_rate_bps(),
            after_first,
            "a second signal inside the quarter-RTT guard must not stack"
        );
        // After a quarter RTT the signal loop re-arms (well before the
        // full-RTT loss guard would).
        cc.on_signal(Instant::from_millis(2_012), &signal(2_012, 50e6, 10_000));
        assert!(cc.pacing_rate_bps() < after_first);
    }

    #[test]
    fn loss_backs_off_harder_than_a_signal() {
        let mut a = Sfc::new(Duration::from_millis(40));
        let mut b = Sfc::new(Duration::from_millis(40));
        for i in 0..1_000u64 {
            a.on_ack(&ack(i));
            b.on_ack(&ack(i));
        }
        a.on_signal(Instant::from_millis(2_000), &signal(2_000, 1e9, 1_000));
        b.on_loss(Instant::from_millis(2_000));
        assert!(b.pacing_rate_bps() < a.pacing_rate_bps());
    }

    /// An ACK at `now_us` whose RTT sample is 62.5 ms: 0.0625 s is exact in
    /// binary, and so is the EWMA of equal samples, so the hand computations
    /// below are exact.
    fn exact_ack(now_us: u64) -> AckInfo {
        AckInfo {
            now: Instant::from_micros(now_us),
            rtt: Duration::from_micros(62_500),
            ..ack(0)
        }
    }

    #[test]
    fn additive_step_matches_hand_computation() {
        // rate = 1.2 Mbit/s, srtt = 0.0625 s, one segment = 1500·8 = 12,000
        // bits.  Step = (MSS·8)² / (rate · srtt²):
        //   ack 1: 12,000² / (1,200,000 · 0.0625²) = 144e6 / 4,687.5
        //        = 30,720 → rate 1,230,720
        //   ack 2: 144e6 / (1,230,720 · 0.00390625) = 144e6 / 4,807.5
        //        = 29,953.198127925… → rate 1,260,673.198127925…
        let mut cc = Sfc::new(Duration::from_micros(62_500));
        assert_eq!(cc.pacing_rate_bps(), 1_200_000.0);
        cc.on_ack(&exact_ack(1_000));
        assert_eq!(cc.srtt, Duration::from_micros(62_500));
        assert_eq!(cc.pacing_rate_bps(), 1_230_720.0);
        cc.on_ack(&exact_ack(2_000));
        assert!((cc.pacing_rate_bps() - 1_260_673.198_127_925).abs() < 1e-6);
    }

    #[test]
    fn signal_and_loss_backoffs_match_hand_computation() {
        // Signal on a 1 Gbit/s link: no cap, then × 0.85:
        //   1,200,000 · 0.85 = 1,020,000.
        let mut signalled = Sfc::new(Duration::from_micros(62_500));
        signalled.on_signal(Instant::from_millis(1), &signal(1, 1e9, 1_000));
        assert!((signalled.pacing_rate_bps() - 1_020_000.0).abs() < 1e-6);
        // Signal on a 500 kbit/s link: cap at the line rate, then × 0.85:
        //   min(1,200,000, 500,000) · 0.85 = 425,000.
        let mut capped = Sfc::new(Duration::from_micros(62_500));
        capped.on_signal(Instant::from_millis(1), &signal(1, 500e3, 1_000));
        assert!((capped.pacing_rate_bps() - 425_000.0).abs() < 1e-6);
        // Loss: × 0.7: 1,200,000 · 0.7 = 840,000.
        let mut lost = Sfc::new(Duration::from_micros(62_500));
        lost.on_loss(Instant::from_millis(1));
        assert!((lost.pacing_rate_bps() - 840_000.0).abs() < 1e-6);
        // Losses an srtt apart: six leave 1.2e6 · 0.7⁶ = 141,178.8 bit/s,
        // above the 100 kbit/s floor; a seventh would give 98,825.16, so it
        // lands on the floor.
        let mut floored = Sfc::new(Duration::from_micros(62_500));
        for i in 0..6u64 {
            floored.on_loss(Instant::from_millis(i * 100));
        }
        assert!((floored.pacing_rate_bps() - 1.2e6 * 0.7f64.powi(6)).abs() < 1e-6);
        floored.on_loss(Instant::from_millis(600));
        assert_eq!(floored.pacing_rate_bps(), MIN_RATE_BPS);
    }

    #[test]
    fn signal_guard_is_a_quarter_rtt_floored_at_two_ms() {
        // srtt = 40 ms: guard = 40 / 4 = 10 ms.  A signal 9.999 ms after a
        // back-off only caps; one at 10 ms backs off again.
        let mut cc = Sfc::new(Duration::from_millis(40));
        cc.on_signal(Instant::from_millis(100), &signal(100, 1e9, 1_000));
        let once = cc.pacing_rate_bps();
        cc.on_signal(Instant::from_micros(109_999), &signal(109, 1e9, 1_000));
        assert_eq!(cc.pacing_rate_bps(), once);
        cc.on_signal(Instant::from_millis(110), &signal(110, 1e9, 1_000));
        assert!((cc.pacing_rate_bps() - once * SIGNAL_BETA).abs() < 1e-6);
        // srtt = 4 ms: a quarter is 1 ms, floored at 2 ms.
        let mut fast = Sfc::new(Duration::from_millis(4));
        fast.on_signal(Instant::from_millis(100), &signal(100, 1e9, 1_000));
        let once = fast.pacing_rate_bps();
        fast.on_signal(Instant::from_micros(101_999), &signal(101, 1e9, 1_000));
        assert_eq!(fast.pacing_rate_bps(), once);
        fast.on_signal(Instant::from_millis(102), &signal(102, 1e9, 1_000));
        assert!((fast.pacing_rate_bps() - once * SIGNAL_BETA).abs() < 1e-6);
    }

    #[test]
    fn cwnd_is_two_bdps_floored_at_four_segments() {
        // rate 1.2 Mbit/s, srtt 62.5 ms: BDP = 1,200,000 / 8 · 0.0625
        //   = 9,375 bytes, so cwnd = max(2 · 9,375, 4 · 1,500) = 18,750.
        let cc = Sfc::new(Duration::from_micros(62_500));
        assert_eq!(cc.cwnd_bytes(), 18_750);
        // srtt 15.625 ms: BDP = 150,000 · 0.015625 = 2,343.75 bytes, and
        // 2 · BDP = 4,687.5 < 6,000, so the four-segment floor binds.
        let short = Sfc::new(Duration::from_micros(15_625));
        assert_eq!(short.cwnd_bytes(), 4 * MSS_BYTES);
    }

    #[test]
    fn rate_never_falls_below_the_floor() {
        let mut cc = Sfc::new(Duration::from_millis(40));
        for i in 0..200u64 {
            cc.on_loss(Instant::from_millis(i * 100));
        }
        assert!(cc.pacing_rate_bps() >= MIN_RATE_BPS);
        assert!(cc.cwnd_bytes() >= 4 * MSS_BYTES);
    }
}
