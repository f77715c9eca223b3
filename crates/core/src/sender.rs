//! The PBE-CC sender.
//!
//! The sender is rate-based and feedback-driven (paper §4, Fig. 4):
//!
//! * **Linear increase** (§4.1): from connection start the rate ramps
//!   linearly from zero to the fair-share capacity `Cf` the client reports,
//!   over three round-trip times, giving the cell scheduler and the other
//!   users time to react.
//! * **Wireless-bottleneck state** (§4.2.1): the send rate simply follows the
//!   capacity the client feeds back in every ACK, and the congestion window
//!   caps the data in flight near one bandwidth-delay product so delayed
//!   feedback cannot flood the network.
//! * **Internet-bottleneck state** (§4.2.3): when the client's delay-based
//!   detector signals that the wired path is the bottleneck, the sender first
//!   drains for one RTprop at half the bottleneck bandwidth, then runs a
//!   cellular-tailored BBR whose probing rate is capped at the wireless
//!   fair share: `Cprobe = min(1.25 · BtlBw, Cf)` (Eqn. 7).
//! * If the fair share jumps (e.g. a new carrier was activated), the sender
//!   re-enters the linear-increase phase towards the new target (§4.1).

use pbe_cc_algorithms::api::{AckInfo, CongestionControl, INITIAL_RATE_BPS, MSS_BYTES};
use pbe_cc_algorithms::bbr::Bbr;
use pbe_cc_algorithms::windowed::WindowedMax;
use pbe_stats::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// Round-trip times over which the linear-increase ramp reaches the fair
/// share (§4.1).
const STARTUP_RTTS: f64 = 3.0;

/// Congestion-window headroom over the bandwidth-delay product, so delayed
/// feedback cannot flood the network (§4.2.1; the gain is this model's).
const CWND_GAIN: f64 = 1.25;

/// The jump of the fair share over its smoothed value that restarts the
/// linear-increase phase, e.g. after a carrier activation (§4.1; the ratio
/// is this model's).
const RESTART_RATIO: f64 = 1.5;

/// The sender's operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SenderState {
    /// Linear ramp towards the fair share (connection start or carrier
    /// activation).
    LinearIncrease,
    /// Matching the client's capacity feedback (wireless bottleneck).
    WirelessBottleneck,
    /// One-RTprop drain at half the bottleneck bandwidth before entering the
    /// Internet-bottleneck state.
    Draining,
    /// Cellular-tailored BBR competing at a wired bottleneck.
    InternetBottleneck,
}

/// The PBE-CC sender-side congestion control.
#[derive(Debug)]
pub struct PbeSender {
    state: SenderState,
    /// Time the current linear-increase ramp started and the rate it started
    /// from.
    ramp_start: Option<(Instant, f64)>,
    /// Latest capacity feedback from the client (bits per second).
    feedback_rate_bps: f64,
    /// Latest fair-share feedback (bits per second).
    fair_share_bps: f64,
    /// Smoothed fair share used for the restart detector.
    fair_share_smoothed: f64,
    /// BtlBw estimator: the maximum delivery rate over the last 2 s.
    btl_bw: WindowedMax,
    /// The embedded cellular-tailored BBR used in the Internet-bottleneck
    /// state.  It sees every ACK, so its RTprop estimate is the sender's.
    bbr: Bbr,
    /// End of the current draining phase.
    drain_until: Option<Instant>,
    /// Time accounting for the Internet-bottleneck fraction statistic.
    time_in_internet: Duration,
    time_total: Duration,
    last_ack_time: Instant,
}

impl PbeSender {
    /// New sender, assuming `rtprop_hint` until it has measured RTprop.
    pub fn new(rtprop_hint: Duration) -> Self {
        PbeSender {
            state: SenderState::LinearIncrease,
            ramp_start: None,
            feedback_rate_bps: 0.0,
            fair_share_bps: 0.0,
            fair_share_smoothed: 0.0,
            btl_bw: WindowedMax::new(Duration::from_secs(2)),
            bbr: Bbr::new(rtprop_hint),
            drain_until: None,
            time_in_internet: Duration::ZERO,
            time_total: Duration::ZERO,
            last_ack_time: Instant::ZERO,
        }
    }

    /// Current operating state.
    pub fn state(&self) -> SenderState {
        self.state
    }

    /// Current bottleneck-bandwidth estimate (maximum recent delivery rate).
    fn btl_bw_bps(&self) -> f64 {
        let bw = self.btl_bw.get();
        if bw > 0.0 {
            bw
        } else {
            self.fair_share_bps.max(INITIAL_RATE_BPS)
        }
    }

    fn ramp_rate(&self, now: Instant) -> f64 {
        let (start, from_rate) = match self.ramp_start {
            Some(v) => v,
            // Before the first client feedback: the conservative initial rate
            // (~10 packets per 100 ms) so the feedback loop bootstraps within
            // one RTT instead of idling at a packet-per-second trickle.
            None => return INITIAL_RATE_BPS,
        };
        let target = self.fair_share_bps.max(INITIAL_RATE_BPS);
        let ramp_len = self.bbr.rtprop().as_secs_f64() * STARTUP_RTTS;
        let elapsed = now.saturating_since(start).as_secs_f64();
        let frac = (elapsed / ramp_len.max(1e-3)).clamp(0.0, 1.0);
        from_rate + (target - from_rate) * frac
    }
}

impl CongestionControl for PbeSender {
    fn name(&self) -> &'static str {
        "PBE"
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let now = ack.now;
        self.time_total += now.saturating_since(self.last_ack_time);
        if matches!(
            self.state,
            SenderState::InternetBottleneck | SenderState::Draining
        ) {
            self.time_in_internet += now.saturating_since(self.last_ack_time);
        }
        self.last_ack_time = now;

        if ack.delivery_rate_bps > 0.0 {
            self.btl_bw.update(now, ack.delivery_rate_bps);
        }
        // Keep the embedded BBR's model warm so the switch to the
        // Internet-bottleneck state starts from sensible estimates; its
        // RTprop filter is the one every state reads.
        self.bbr.on_ack(ack);

        let Some(fb) = ack.pbe else {
            // Without client feedback PBE-CC cannot operate; behave like its
            // embedded BBR (this also covers the first ACKs of a connection).
            return;
        };
        self.feedback_rate_bps = fb.capacity_bps().min(1e11);
        self.fair_share_bps = fb.fair_share_rate_bps;
        if self.ramp_start.is_none() {
            self.ramp_start = Some((now, INITIAL_RATE_BPS));
        }
        if self.fair_share_smoothed == 0.0 {
            self.fair_share_smoothed = self.fair_share_bps;
        } else {
            self.fair_share_smoothed = self.fair_share_smoothed * 0.95 + self.fair_share_bps * 0.05;
        }

        match self.state {
            SenderState::LinearIncrease => {
                if fb.internet_bottleneck {
                    // The ramp overran a wired bottleneck: drain, then compete.
                    self.drain_until = Some(now + self.bbr.rtprop());
                    self.state = SenderState::Draining;
                } else if self.ramp_rate(now) >= self.fair_share_bps && self.fair_share_bps > 0.0 {
                    self.state = SenderState::WirelessBottleneck;
                }
            }
            SenderState::WirelessBottleneck => {
                if fb.internet_bottleneck {
                    self.drain_until = Some(now + self.bbr.rtprop());
                    self.state = SenderState::Draining;
                } else if self.fair_share_bps > self.fair_share_smoothed * RESTART_RATIO {
                    // A carrier activation (or a competitor leaving) opened a
                    // lot of new capacity: approach it gently again.
                    self.ramp_start =
                        Some((now, self.feedback_rate_bps.min(self.fair_share_smoothed)));
                    self.fair_share_smoothed = self.fair_share_bps;
                    self.state = SenderState::LinearIncrease;
                }
            }
            SenderState::Draining => {
                if let Some(until) = self.drain_until {
                    if now >= until {
                        self.drain_until = None;
                        self.state = if fb.internet_bottleneck {
                            SenderState::InternetBottleneck
                        } else {
                            SenderState::WirelessBottleneck
                        };
                    }
                }
            }
            SenderState::InternetBottleneck => {
                if !fb.internet_bottleneck {
                    self.state = SenderState::WirelessBottleneck;
                }
            }
        }
    }

    fn on_loss(&mut self, now: Instant) {
        self.bbr.on_loss(now);
    }

    fn on_packet_sent(&mut self, now: Instant, bytes: u64, inflight: u64) {
        self.bbr.on_packet_sent(now, bytes, inflight);
    }

    fn pacing_rate_bps(&self) -> f64 {
        let floor = INITIAL_RATE_BPS;
        match self.state {
            SenderState::LinearIncrease => self.ramp_rate(self.last_ack_time).max(floor),
            SenderState::WirelessBottleneck => self.feedback_rate_bps.max(floor),
            SenderState::Draining => (0.5 * self.btl_bw_bps()).max(floor),
            SenderState::InternetBottleneck => {
                // Cellular-tailored BBR: never probe beyond the wireless fair
                // share (Eqn. 7), and never cruise above it either.
                let bbr_rate = self.bbr.pacing_rate_bps();
                let cap = if self.fair_share_bps > 0.0 {
                    self.fair_share_bps
                } else {
                    f64::INFINITY
                };
                bbr_rate.min(cap).max(floor)
            }
        }
    }

    fn cwnd_bytes(&self) -> u64 {
        let rate = match self.state {
            SenderState::InternetBottleneck => self.btl_bw_bps(),
            _ => self.pacing_rate_bps().max(self.btl_bw_bps() * 0.5),
        };
        let bdp = rate / 8.0 * self.bbr.rtprop().as_secs_f64();
        ((bdp * CWND_GAIN) as u64).max(4 * MSS_BYTES)
    }

    fn internet_bottleneck_fraction(&self) -> f64 {
        if self.time_total.is_zero() {
            return 0.0;
        }
        self.time_in_internet.as_secs_f64() / self.time_total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cc_algorithms::api::PbeFeedback;

    fn ack(
        now_ms: u64,
        rtt_ms: u64,
        rate_bps: f64,
        capacity_bps: f64,
        fair_bps: f64,
        internet: bool,
    ) -> AckInfo {
        AckInfo {
            now: Instant::from_millis(now_ms),
            packet_id: now_ms,
            bytes_acked: MSS_BYTES,
            rtt: Duration::from_millis(rtt_ms),
            one_way_delay_ms: rtt_ms as f64 / 2.0,
            delivery_rate_bps: rate_bps,
            inflight_bytes: 60_000,
            loss_detected: false,
            ecn_ce: false,
            pbe: Some(PbeFeedback {
                capacity_interval_us: PbeFeedback::interval_from_rate(capacity_bps),
                internet_bottleneck: internet,
                fair_share_rate_bps: fair_bps,
            }),
        }
    }

    #[test]
    fn startup_ramps_linearly_to_fair_share_in_three_rtts() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        assert_eq!(s.state(), SenderState::LinearIncrease);
        // Fair share is 48 Mbit/s; feed ACKs every 10 ms.
        let mut rates = Vec::new();
        for i in 0..20u64 {
            s.on_ack(&ack(i * 10, 40, 10e6, 48e6, 48e6, false));
            rates.push(s.pacing_rate_bps());
        }
        // The rate grows monotonically during the ramp.
        assert!(rates.windows(2).take(10).all(|w| w[1] >= w[0] - 1.0));
        // After 3 RTTs (120 ms) the sender reaches the fair share and enters
        // the wireless-bottleneck state.
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        assert!((s.pacing_rate_bps() - 48e6).abs() / 48e6 < 0.05);
    }

    #[test]
    fn wireless_state_tracks_feedback_capacity() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        for i in 0..30u64 {
            s.on_ack(&ack(i * 10, 40, 10e6, 48e6, 48e6, false));
        }
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        // Capacity drops to 20 Mbit/s: the very next ACK adjusts the rate.
        s.on_ack(&ack(400, 40, 10e6, 20e6, 20e6, false));
        assert!((s.pacing_rate_bps() - 20e6).abs() / 20e6 < 0.05);
        // Capacity rises to 60 Mbit/s but the fair share rose gradually, so
        // no restart: the rate follows immediately.
        s.on_ack(&ack(410, 40, 10e6, 25e6, 25e6, false));
        assert!((s.pacing_rate_bps() - 25e6).abs() / 25e6 < 0.05);
    }

    #[test]
    fn internet_bottleneck_triggers_drain_then_bbr_capped_at_fair_share() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        for i in 0..30u64 {
            s.on_ack(&ack(i * 10, 40, 30e6, 48e6, 48e6, false));
        }
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        // The client signals an Internet bottleneck.
        s.on_ack(&ack(320, 40, 30e6, 48e6, 48e6, true));
        assert_eq!(s.state(), SenderState::Draining);
        // During draining the rate is half the bottleneck bandwidth.
        assert!((s.pacing_rate_bps() - 0.5 * s.btl_bw_bps()).abs() < 1.0);
        // One RTprop later it enters the Internet-bottleneck state.
        for i in 0..10u64 {
            s.on_ack(&ack(330 + i * 10, 40, 30e6, 48e6, 48e6, true));
        }
        assert_eq!(s.state(), SenderState::InternetBottleneck);
        // The probing rate never exceeds the wireless fair share.
        for i in 0..200u64 {
            s.on_ack(&ack(500 + i * 10, 40, 30e6, 48e6, 40e6, true));
            assert!(s.pacing_rate_bps() <= 40e6 + 1.0);
        }
        assert!(s.internet_bottleneck_fraction() > 0.2);
    }

    #[test]
    fn returns_to_wireless_state_when_client_clears_the_flag() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        for i in 0..30u64 {
            s.on_ack(&ack(i * 10, 40, 30e6, 48e6, 48e6, false));
        }
        for i in 30..80u64 {
            s.on_ack(&ack(i * 10, 40, 30e6, 48e6, 48e6, true));
        }
        assert_eq!(s.state(), SenderState::InternetBottleneck);
        s.on_ack(&ack(900, 40, 30e6, 48e6, 48e6, false));
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        let frac = s.internet_bottleneck_fraction();
        assert!(frac > 0.3 && frac < 0.9, "fraction = {frac}");
    }

    #[test]
    fn fair_share_jump_restarts_linear_increase() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        for i in 0..60u64 {
            s.on_ack(&ack(i * 10, 40, 30e6, 40e6, 40e6, false));
        }
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        // A secondary carrier activates: the fair share doubles abruptly.
        s.on_ack(&ack(700, 40, 30e6, 80e6, 80e6, false));
        assert_eq!(s.state(), SenderState::LinearIncrease);
        // The ramp starts from near the previous rate, not from zero.
        assert!(s.pacing_rate_bps() >= 30e6);
        // And eventually reaches the new fair share.
        for i in 0..30u64 {
            s.on_ack(&ack(710 + i * 10, 40, 30e6, 80e6, 80e6, false));
        }
        assert_eq!(s.state(), SenderState::WirelessBottleneck);
        assert!((s.pacing_rate_bps() - 80e6).abs() / 80e6 < 0.05);
    }

    #[test]
    fn cwnd_is_close_to_one_bdp() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        for i in 0..60u64 {
            s.on_ack(&ack(i * 10, 40, 48e6, 48e6, 48e6, false));
        }
        let bdp = 48e6 / 8.0 * 0.040;
        let cwnd = s.cwnd_bytes() as f64;
        assert!(cwnd >= bdp, "cwnd {cwnd} >= bdp {bdp}");
        assert!(cwnd <= 1.6 * bdp, "cwnd {cwnd} <= 1.6 bdp {bdp}");
    }

    #[test]
    fn acks_without_feedback_leave_state_unchanged() {
        let mut s = PbeSender::new(Duration::from_millis(40));
        let mut plain = ack(10, 40, 10e6, 48e6, 48e6, false);
        plain.pbe = None;
        s.on_ack(&plain);
        assert_eq!(s.state(), SenderState::LinearIncrease);
        assert!(s.pacing_rate_bps() > 0.0);
        assert_eq!(s.internet_bottleneck_fraction(), 0.0);
    }
}
