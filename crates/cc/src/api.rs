//! The congestion-control trait every scheme implements.
//!
//! The simulator's sender node is scheme-agnostic: it paces fixed-size
//! packets at [`CongestionControl::pacing_rate_bps`] while keeping no more
//! than [`CongestionControl::cwnd_bytes`] in flight, and forwards every
//! acknowledgement (with its delay and delivery-rate samples, and the PBE
//! feedback fields when the receiver is PBE-aware) to
//! [`CongestionControl::on_ack`].

use pbe_stats::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// Maximum segment size used throughout the reproduction (bytes of payload
/// per packet, the paper's 1500-byte packets).
pub const MSS_BYTES: u64 = 1500;

/// Identifier of a congestion-control scheme: PBE-CC and the seven baselines
/// of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeName {
    /// PBE-CC, the paper's contribution (implemented in `pbe-core`).
    PbeCc,
    /// TCP BBR v1.
    Bbr,
    /// TCP CUBIC.
    Cubic,
    /// Copa (NSDI'18).
    Copa,
    /// Verus (SIGCOMM'15).
    Verus,
    /// Sprout (NSDI'13).
    Sprout,
    /// PCC Allegro (NSDI'15).
    Pcc,
    /// PCC Vivace (NSDI'18).
    Vivace,
}

impl SchemeName {
    /// The baseline schemes the factory in this crate can build.
    pub const BASELINES: &'static [SchemeName] = &[
        SchemeName::Bbr,
        SchemeName::Cubic,
        SchemeName::Copa,
        SchemeName::Verus,
        SchemeName::Sprout,
        SchemeName::Pcc,
        SchemeName::Vivace,
    ];

    /// The schemes the paper compares (PBE-CC plus seven baselines).
    pub const PAPER_SCHEMES: &'static [SchemeName] = &[
        SchemeName::PbeCc,
        SchemeName::Bbr,
        SchemeName::Cubic,
        SchemeName::Verus,
        SchemeName::Sprout,
        SchemeName::Copa,
        SchemeName::Pcc,
        SchemeName::Vivace,
    ];

    /// Short display name.
    pub fn as_str(self) -> &'static str {
        match self {
            SchemeName::PbeCc => "PBE",
            SchemeName::Bbr => "BBR",
            SchemeName::Cubic => "CUBIC",
            SchemeName::Copa => "Copa",
            SchemeName::Verus => "Verus",
            SchemeName::Sprout => "Sprout",
            SchemeName::Pcc => "PCC",
            SchemeName::Vivace => "Vivace",
        }
    }
}

impl std::fmt::Display for SchemeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Feedback the PBE-CC mobile client piggybacks on every acknowledgement
/// (paper §5: the capacity is described as an inter-packet interval carried
/// in a 32-bit integer, plus one bit identifying the bottleneck state).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PbeFeedback {
    /// Interval in microseconds between sending two 1500-byte packets that
    /// would exactly match the estimated bottleneck capacity.
    pub capacity_interval_us: u32,
    /// True if the mobile client believes the connection is currently
    /// bottlenecked inside the Internet rather than at the wireless link.
    pub internet_bottleneck: bool,
    /// The maximum fair-share wireless capacity `Cf` (translated to transport
    /// layer goodput), in bits per second — the cap of the paper's Eqn. 7.
    pub fair_share_rate_bps: f64,
}

impl PbeFeedback {
    /// The capacity encoded by `capacity_interval_us`, in bits per second.
    pub fn capacity_bps(&self) -> f64 {
        if self.capacity_interval_us == 0 {
            return f64::INFINITY;
        }
        (MSS_BYTES * 8) as f64 / (self.capacity_interval_us as f64 * 1e-6)
    }

    /// Encode a rate in bits per second as an inter-packet interval.
    pub fn interval_from_rate(rate_bps: f64) -> u32 {
        if rate_bps <= 0.0 {
            return u32::MAX;
        }
        let us = (MSS_BYTES * 8) as f64 / rate_bps * 1e6;
        us.clamp(1.0, u32::MAX as f64) as u32
    }
}

/// One acknowledgement as seen by the sender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AckInfo {
    /// Arrival time of the ACK at the sender.
    pub now: Instant,
    /// Id of the newest packet acknowledged.
    pub packet_id: u64,
    /// Payload bytes newly acknowledged by this ACK.
    pub bytes_acked: u64,
    /// Round-trip time sample of the acknowledged packet.
    pub rtt: Duration,
    /// One-way delay measured by the receiver, in milliseconds (relative to
    /// an arbitrary clock offset; only differences are meaningful).
    pub one_way_delay_ms: f64,
    /// Sender-side delivery-rate estimate over the last RTT, bits per second.
    pub delivery_rate_bps: f64,
    /// Bytes still in flight after processing this ACK.
    pub inflight_bytes: u64,
    /// True if this ACK also signalled a lost packet (duplicate-ACK or
    /// SACK-style indication from the receiver).
    pub loss_detected: bool,
    /// True if the acknowledged packet carried an ECN congestion-experienced
    /// mark set by a wired queue on the path (RFC 3168 echo).
    pub ecn_ce: bool,
    /// PBE feedback fields, present when the receiver runs the PBE-CC client.
    pub pbe: Option<PbeFeedback>,
}

/// An explicit congestion notification delivered to the sender out of band,
/// ahead of the ACK clock — the SFC-style near-source signal (arxiv
/// 2305.00538): the first congested link on the path reports its state back
/// towards the server directly, so the sender can react after only the
/// upstream propagation delay instead of a full round trip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionSignal {
    /// When the marking decision was taken at the congested link.
    pub at: Instant,
    /// The congested link's line rate, bits per second.
    pub link_rate_bps: f64,
    /// Queue occupancy at the link when the mark was taken, bytes.
    pub queue_bytes: u64,
    /// Queueing delay implied by that occupancy at the link's line rate.
    pub queue_delay: Duration,
}

/// The sender-side congestion-control interface.
///
/// # State contract
///
/// [`pacing_rate_bps`](CongestionControl::pacing_rate_bps) and
/// [`cwnd_bytes`](CongestionControl::cwnd_bytes) are pure reads of the
/// controller's state, and that state changes only inside the `&mut self`
/// calls: [`on_ack`](CongestionControl::on_ack),
/// [`on_loss`](CongestionControl::on_loss),
/// [`on_signal`](CongestionControl::on_signal) and
/// [`on_packet_sent`](CongestionControl::on_packet_sent).  Neither value
/// depends on interior mutability (state behind `&self` in a `Cell`,
/// `RefCell`, atomic or lock), on the wall clock, or on how often it is
/// read.  So between two `&mut` calls each value is constant, and a driver
/// may cache it after a `&mut` call and reuse it until the next one without
/// changing a byte of output.
pub trait CongestionControl: Send {
    /// Human-readable scheme name (matches [`SchemeName::as_str`]).
    fn name(&self) -> &'static str;

    /// Process one acknowledgement.
    fn on_ack(&mut self, ack: &AckInfo);

    /// A packet was declared lost (retransmission timeout or queue drop made
    /// visible to the sender).
    fn on_loss(&mut self, now: Instant);

    /// A packet of `bytes` was sent, leaving `inflight_bytes` outstanding.
    fn on_packet_sent(&mut self, now: Instant, bytes: u64, inflight_bytes: u64);

    /// The rate the sender should currently pace packets at, bits per second.
    /// Changes only inside a `&mut self` call (see the state contract
    /// above).
    fn pacing_rate_bps(&self) -> f64;

    /// The maximum number of bytes the sender may keep in flight.  Changes
    /// only inside a `&mut self` call (see the state contract above).
    fn cwnd_bytes(&self) -> u64;

    /// Fraction of time spent in an Internet-bottleneck state (only PBE-CC
    /// reports a meaningful value; baselines return 0).
    fn internet_bottleneck_fraction(&self) -> f64 {
        0.0
    }

    /// An out-of-band congestion signal arrived from the network (see
    /// [`CongestionSignal`]).  Most schemes never hear these; the default
    /// ignores them, and only signaling-aware schemes (SFC) override it.
    fn on_signal(&mut self, _now: Instant, _signal: &CongestionSignal) {}
}

/// The conservative pacing rate every rate-based scheme, PBE-CC included,
/// starts from before its first feedback: ten packets per 100 ms, about
/// 1.2 Mbit/s.  PBE-CC's sender also keeps it as its pacing floor.
pub const INITIAL_RATE_BPS: f64 = 1.2e6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_are_unique_and_printable() {
        let mut names: Vec<&str> = SchemeName::PAPER_SCHEMES
            .iter()
            .map(|s| s.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchemeName::PAPER_SCHEMES.len());
        assert_eq!(format!("{}", SchemeName::PbeCc), "PBE");
    }

    #[test]
    fn feedback_interval_roundtrip() {
        let rate = 24e6; // 24 Mbit/s
        let interval = PbeFeedback::interval_from_rate(rate);
        let fb = PbeFeedback {
            capacity_interval_us: interval,
            internet_bottleneck: false,
            fair_share_rate_bps: rate,
        };
        let back = fb.capacity_bps();
        assert!((back - rate).abs() / rate < 0.01, "{back} vs {rate}");
    }

    #[test]
    fn feedback_interval_edge_cases() {
        assert_eq!(PbeFeedback::interval_from_rate(0.0), u32::MAX);
        assert_eq!(PbeFeedback::interval_from_rate(-5.0), u32::MAX);
        let fb = PbeFeedback {
            capacity_interval_us: 0,
            internet_bottleneck: true,
            fair_share_rate_bps: 0.0,
        };
        assert!(fb.capacity_bps().is_infinite());
        // An extremely high rate clamps to a 1 µs interval (12 Gbit/s).
        let interval = PbeFeedback::interval_from_rate(1e12);
        assert_eq!(interval, 1);
    }

    #[test]
    fn paper_scheme_list_matches_evaluation_section() {
        assert_eq!(SchemeName::PAPER_SCHEMES.len(), 8);
        assert!(SchemeName::PAPER_SCHEMES.contains(&SchemeName::PbeCc));
        assert_eq!(SchemeName::BASELINES.len(), 7);
        for baseline in SchemeName::BASELINES {
            assert!(SchemeName::PAPER_SCHEMES.contains(baseline), "{baseline}");
        }
    }
}
