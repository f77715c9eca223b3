//! Time-window aggregation of throughput and delay samples.
//!
//! The paper reports "all throughput and delay order statistics, measured
//! across 100-millisecond time windows" (§1, §6).  [`WindowAggregator`]
//! buckets byte deliveries and delay samples into fixed windows and produces
//! per-window throughput (Mbit/s) and delay series that feed the percentile
//! and CDF machinery.  The window length is the paper's, [`WINDOW`].

use crate::time::{Duration, Instant, MICROS_PER_SEC};
use serde::{Deserialize, Serialize};

/// The measurement window: every throughput and delay statistic the paper
/// reports is taken over 100 ms windows (§1, §6).  The simulator's PRB and
/// backhaul-occupancy timelines close on the same boundaries.
pub const WINDOW: Duration = Duration::from_millis(100);

/// One aggregated window of flow activity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Start of the window.
    pub start: Instant,
    /// Bytes delivered during the window.
    pub bytes: u64,
    /// Throughput over the window in Mbit/s.
    pub throughput_mbps: f64,
    /// Mean one-way delay of packets delivered in the window, in milliseconds
    /// (`None` if no delay samples fell in the window).
    pub mean_delay_ms: Option<f64>,
    /// Number of delay samples in the window.
    pub delay_samples: usize,
}

/// Buckets `(time, bytes)` deliveries and `(time, delay)` samples into
/// [`WINDOW`]-long windows.
#[derive(Debug, Clone, Default)]
pub struct WindowAggregator {
    bytes: Vec<u64>,
    delay_sum_ms: Vec<f64>,
    delay_count: Vec<usize>,
    last_time: Instant,
}

impl WindowAggregator {
    fn index(&self, t: Instant) -> usize {
        (t.as_micros() / WINDOW.as_micros()) as usize
    }

    fn ensure(&mut self, idx: usize) {
        if self.bytes.len() <= idx {
            self.bytes.resize(idx + 1, 0);
            self.delay_sum_ms.resize(idx + 1, 0.0);
            self.delay_count.resize(idx + 1, 0);
        }
    }

    /// Record `bytes` delivered at time `t`.
    pub fn record_delivery(&mut self, t: Instant, bytes: u64) {
        let idx = self.index(t);
        self.ensure(idx);
        self.bytes[idx] += bytes;
        self.last_time = self.last_time.max(t);
    }

    /// Record a one-way delay sample (in milliseconds) observed at time `t`.
    pub fn record_delay(&mut self, t: Instant, delay_ms: f64) {
        if !delay_ms.is_finite() {
            return;
        }
        let idx = self.index(t);
        self.ensure(idx);
        self.delay_sum_ms[idx] += delay_ms;
        self.delay_count[idx] += 1;
        self.last_time = self.last_time.max(t);
    }

    /// The aggregated window series.
    pub fn windows(&self) -> Vec<Window> {
        let window_secs = WINDOW.as_secs_f64();
        (0..self.bytes.len())
            .map(|i| {
                let start = Instant::from_micros(i as u64 * WINDOW.as_micros());
                let bytes = self.bytes[i];
                let throughput_mbps = bytes as f64 * 8.0 / window_secs / 1e6;
                let mean_delay_ms = if self.delay_count[i] > 0 {
                    Some(self.delay_sum_ms[i] / self.delay_count[i] as f64)
                } else {
                    None
                };
                Window {
                    start,
                    bytes,
                    throughput_mbps,
                    mean_delay_ms,
                    delay_samples: self.delay_count[i],
                }
            })
            .collect()
    }

    /// Per-window throughput in Mbit/s (includes empty windows as zero).
    pub fn throughput_series_mbps(&self) -> Vec<f64> {
        self.windows().iter().map(|w| w.throughput_mbps).collect()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Average throughput in Mbit/s over the span from time zero to the last
    /// recorded event (0 if nothing was recorded).
    pub fn average_throughput_mbps(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 || self.last_time.as_micros() == 0 {
            return 0.0;
        }
        total as f64 * 8.0 / (self.last_time.as_micros() as f64 / MICROS_PER_SEC as f64) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliveries_fall_into_correct_windows() {
        let mut agg = WindowAggregator::default();
        agg.record_delivery(Instant::from_millis(10), 1000);
        agg.record_delivery(Instant::from_millis(99), 500);
        agg.record_delivery(Instant::from_millis(100), 2000);
        agg.record_delivery(Instant::from_millis(250), 3000);
        let windows = agg.windows();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].bytes, 1500);
        assert_eq!(windows[1].bytes, 2000);
        assert_eq!(windows[2].bytes, 3000);
        // 1500 bytes in 0.1 s = 0.12 Mbit/s
        assert!((windows[0].throughput_mbps - 0.12).abs() < 1e-9);
    }

    #[test]
    fn delay_means_per_window() {
        let mut agg = WindowAggregator::default();
        agg.record_delay(Instant::from_millis(5), 40.0);
        agg.record_delay(Instant::from_millis(50), 60.0);
        agg.record_delay(Instant::from_millis(150), 30.0);
        agg.record_delay(Instant::from_millis(150), f64::NAN);
        let windows = agg.windows();
        assert_eq!(windows[0].mean_delay_ms, Some(50.0));
        assert_eq!(windows[0].delay_samples, 2);
        assert_eq!(windows[1].mean_delay_ms, Some(30.0));
    }

    #[test]
    fn empty_windows_are_zero() {
        let mut agg = WindowAggregator::default();
        agg.record_delivery(Instant::from_millis(350), 1000);
        let series = agg.throughput_series_mbps();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], 0.0);
        assert!(series[3] > 0.0);
    }

    #[test]
    fn average_throughput_uses_last_event_time() {
        let mut agg = WindowAggregator::default();
        // 1_250_000 bytes over 1 second = 10 Mbit/s.
        agg.record_delivery(Instant::from_millis(500), 625_000);
        agg.record_delivery(Instant::from_secs(1), 625_000);
        assert!((agg.average_throughput_mbps() - 10.0).abs() < 1e-9);
        let empty = WindowAggregator::default();
        assert_eq!(empty.average_throughput_mbps(), 0.0);
    }
}
