//! The wired half of the end-to-end path.
//!
//! Models the path between the content server and the cellular base station:
//! a one-way propagation delay plus, optionally, a bottleneck link with a
//! FIFO queue (used by the Internet-bottleneck experiments).  The reverse
//! (acknowledgement) path has the same propagation delay and is assumed
//! uncongested, as in the paper's setup.

use pbe_stats::time::{transmission_time, Duration, Instant};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Byte and packet counters of one wired link (shared between the per-flow
/// [`WiredPath`] and the shared-backhaul links of
/// [`crate::backhaul::Backhaul`], so telemetry reads identically whichever
/// wired model a scenario uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub admitted_packets: u64,
    /// Bytes accepted into the queue.
    pub admitted_bytes: u64,
    /// Packets that finished crossing the link.
    pub forwarded_packets: u64,
    /// Bytes that finished crossing the link.
    pub forwarded_bytes: u64,
    /// Packets refused by the full queue.
    pub dropped_packets: u64,
    /// Bytes refused by the full queue.
    pub dropped_bytes: u64,
    /// Packets ECN-marked by the queue (always 0 for links without a
    /// marking threshold, [`WiredPath`] included).
    pub marked_packets: u64,
}

/// A packet travelling the wired path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WiredPacket {
    /// Globally unique packet id.
    pub id: u64,
    /// Payload bytes.
    pub bytes: u32,
    /// Time the sender released the packet.
    pub sent_at: Instant,
    /// Time the packet will arrive at the base station.
    pub arrives_at: Instant,
}

/// Configuration and state of one direction of the wired path.
#[derive(Debug, Clone)]
pub struct WiredPath {
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Bottleneck link rate in bits per second (`None` = effectively
    /// unlimited, i.e. the wireless link is always the bottleneck).
    pub bottleneck_bps: Option<f64>,
    /// Maximum bytes the bottleneck queue holds before dropping.
    pub queue_limit_bytes: u64,
    /// Time the bottleneck link becomes free again.
    link_free_at: Instant,
    /// Bytes currently queued at the bottleneck.
    queued_bytes: u64,
    in_flight: VecDeque<WiredPacket>,
    stats: LinkStats,
}

impl WiredPath {
    /// A path with no wired bottleneck (the common, wireless-bottleneck case).
    pub fn unconstrained(propagation: Duration) -> Self {
        WiredPath {
            propagation,
            bottleneck_bps: None,
            queue_limit_bytes: u64::MAX,
            link_free_at: Instant::ZERO,
            queued_bytes: 0,
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// A path with a wired bottleneck of the given rate and queue size.
    pub fn with_bottleneck(
        propagation: Duration,
        bottleneck_bps: f64,
        queue_limit_bytes: u64,
    ) -> Self {
        WiredPath {
            propagation,
            bottleneck_bps: Some(bottleneck_bps),
            queue_limit_bytes,
            link_free_at: Instant::ZERO,
            queued_bytes: 0,
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// Bytes currently waiting at the wired bottleneck.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Byte and packet counters of the path's bottleneck link.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Send a packet into the path at `now`.  Returns `false` if the packet
    /// was dropped at the bottleneck queue.
    pub fn send(&mut self, id: u64, bytes: u32, now: Instant) -> bool {
        let arrives_at = match self.bottleneck_bps {
            None => now + self.propagation,
            Some(rate) => {
                if self.queued_bytes + u64::from(bytes) > self.queue_limit_bytes {
                    self.stats.dropped_packets += 1;
                    self.stats.dropped_bytes += u64::from(bytes);
                    return false;
                }
                self.queued_bytes += u64::from(bytes);
                let start = self.link_free_at.max(now);
                let tx = transmission_time(bytes as usize, rate);
                self.link_free_at = start + tx;
                self.link_free_at + self.propagation
            }
        };
        self.stats.admitted_packets += 1;
        self.stats.admitted_bytes += u64::from(bytes);
        self.in_flight.push_back(WiredPacket {
            id,
            bytes,
            sent_at: now,
            arrives_at,
        });
        true
    }

    /// Packets that have reached the far end by `now` (in order).
    pub fn arrivals(&mut self, now: Instant) -> Vec<WiredPacket> {
        let mut out = Vec::new();
        self.drain_arrivals(now, &mut out);
        out
    }

    /// Append the packets that have reached the far end by `now` to `out`,
    /// in order: [`WiredPath::arrivals`] into a caller's reused buffer.
    pub fn drain_arrivals(&mut self, now: Instant, out: &mut Vec<WiredPacket>) {
        while let Some(p) = self.in_flight.pop_front_if(|p| p.arrives_at <= now) {
            if self.bottleneck_bps.is_some() {
                self.queued_bytes = self.queued_bytes.saturating_sub(u64::from(p.bytes));
            }
            self.stats.forwarded_packets += 1;
            self.stats.forwarded_bytes += u64::from(p.bytes);
            out.push(p);
        }
    }

    /// Packets currently inside the path (queued or propagating).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_path_is_pure_delay() {
        let mut path = WiredPath::unconstrained(Duration::from_millis(20));
        assert!(path.send(1, 1500, Instant::from_millis(0)));
        assert!(path.send(2, 1500, Instant::from_millis(1)));
        assert!(path.arrivals(Instant::from_millis(19)).is_empty());
        let a = path.arrivals(Instant::from_millis(20));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].id, 1);
        let b = path.arrivals(Instant::from_millis(25));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].id, 2);
        assert_eq!(path.in_flight(), 0);
        assert_eq!(path.stats().dropped_packets, 0);
    }

    #[test]
    fn bottleneck_serialises_packets() {
        // 12 Mbit/s: a 1500-byte packet takes 1 ms to serialise.
        let mut path = WiredPath::with_bottleneck(Duration::from_millis(10), 12e6, 1_000_000);
        for i in 0..5u64 {
            assert!(path.send(i, 1500, Instant::ZERO));
        }
        // First packet arrives at 1 + 10 ms, the fifth at 5 + 10 ms.
        assert_eq!(path.arrivals(Instant::from_millis(11)).len(), 1);
        assert_eq!(path.arrivals(Instant::from_millis(14)).len(), 3);
        assert_eq!(path.arrivals(Instant::from_millis(15)).len(), 1);
    }

    #[test]
    fn queue_overflow_drops_packets() {
        let mut path = WiredPath::with_bottleneck(Duration::from_millis(10), 1e6, 4_000);
        let mut accepted = 0;
        for i in 0..10u64 {
            if path.send(i, 1500, Instant::ZERO) {
                accepted += 1;
            }
        }
        assert!(accepted < 10);
        assert_eq!(path.stats().dropped_packets, 10 - accepted);
        assert_eq!(path.stats().admitted_packets, accepted);
        // Queue drains over time, making room again.
        let _ = path.arrivals(Instant::from_secs(1));
        assert!(path.send(100, 1500, Instant::from_secs(1)));
    }

    #[test]
    fn queued_bytes_tracks_backlog() {
        let mut path = WiredPath::with_bottleneck(Duration::from_millis(5), 12e6, 100_000);
        for i in 0..10u64 {
            path.send(i, 1500, Instant::ZERO);
        }
        assert_eq!(path.queued_bytes(), 15_000);
        let _ = path.arrivals(Instant::from_millis(8));
        assert!(path.queued_bytes() < 15_000);
    }
}
