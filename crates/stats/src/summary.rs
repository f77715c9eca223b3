//! Per-flow experiment summaries.
//!
//! Collects everything the paper reports about one flow of one run — average
//! throughput, the delay order statistics, and the per-window series — into a
//! single value that the experiment harness can format as a table row or feed
//! into cross-location CDFs (Fig. 12) and speedup ratios (Table 1).

use crate::percentile::{percentile, OnlineStats};
use crate::time::{Duration, Instant};
use crate::window::WindowAggregator;
use serde::{Deserialize, Serialize};

/// Summary statistics of one flow in one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Human-readable label (scheme name, flow id, …).
    pub label: String,
    /// Average throughput over the flow lifetime, Mbit/s.
    pub avg_throughput_mbps: f64,
    /// Per-100 ms window throughput percentiles, Mbit/s: (p10, p25, p50, p75, p90).
    pub throughput_percentiles_mbps: [f64; 5],
    /// One-way delay percentiles, ms: (p10, p25, p50, p75, p90).
    pub delay_percentiles_ms: [f64; 5],
    /// Average one-way delay, ms.
    pub avg_delay_ms: f64,
    /// 95th-percentile one-way delay, ms.
    pub p95_delay_ms: f64,
    /// Maximum one-way delay, ms.
    pub max_delay_ms: f64,
    /// Total bytes delivered to the application.
    pub total_bytes: u64,
    /// Number of delay samples (delivered packets).
    pub packets: u64,
    /// Fraction of time the sender spent in the Internet-bottleneck state
    /// (only meaningful for PBE-CC; 0 for other schemes).
    pub internet_bottleneck_fraction: f64,
    /// Whether the run triggered carrier aggregation (a secondary cell was
    /// activated at any point).
    pub carrier_aggregation_triggered: bool,
}

/// Builder that accumulates raw samples during a run and produces a
/// [`FlowSummary`] at the end.
#[derive(Debug, Clone)]
pub struct FlowSummaryBuilder {
    label: String,
    windows: WindowAggregator,
    delays_ms: Vec<f64>,
    delay_stats: OnlineStats,
    total_bytes: u64,
    internet_bottleneck_fraction: f64,
    carrier_aggregation_triggered: bool,
}

impl FlowSummaryBuilder {
    /// New builder aggregating over the paper's [`WINDOW`](crate::window::WINDOW).
    pub fn new(label: impl Into<String>) -> Self {
        FlowSummaryBuilder {
            label: label.into(),
            windows: WindowAggregator::default(),
            delays_ms: Vec::new(),
            delay_stats: OnlineStats::new(),
            total_bytes: 0,
            internet_bottleneck_fraction: 0.0,
            carrier_aggregation_triggered: false,
        }
    }

    /// Record a packet delivered to the application at `t` with the given
    /// payload size and one-way delay.
    pub fn record_packet(&mut self, t: Instant, bytes: u64, one_way_delay: Duration) {
        self.total_bytes += bytes;
        let delay_ms = one_way_delay.as_millis_f64();
        self.windows.record_delivery(t, bytes);
        self.windows.record_delay(t, delay_ms);
        self.delays_ms.push(delay_ms);
        self.delay_stats.push(delay_ms);
    }

    /// Set the fraction of time spent in the Internet-bottleneck state.
    pub fn set_internet_bottleneck_fraction(&mut self, fraction: f64) {
        self.internet_bottleneck_fraction = fraction.clamp(0.0, 1.0);
    }

    /// Mark that carrier aggregation was triggered during the run.
    pub fn set_carrier_aggregation_triggered(&mut self, triggered: bool) {
        self.carrier_aggregation_triggered = triggered;
    }

    /// Access the per-window aggregator (e.g. for timeline plots).
    pub fn windows(&self) -> &WindowAggregator {
        &self.windows
    }

    /// Raw one-way delay samples in ms.
    pub fn delays_ms(&self) -> &[f64] {
        &self.delays_ms
    }

    /// Finalise into a [`FlowSummary`].
    pub fn build(&self) -> FlowSummary {
        let tp = self.windows.throughput_series_mbps();
        // Drop the (possibly partial) tail/lead-in windows only if there are
        // plenty of windows; this mirrors how per-interval statistics are
        // usually reported without the ramp artifacts of empty edge windows.
        let pcts = |v: &[f64]| -> [f64; 5] {
            let ps = [10.0, 25.0, 50.0, 75.0, 90.0];
            let mut out = [0.0; 5];
            for (i, p) in ps.iter().enumerate() {
                out[i] = percentile(v, *p).unwrap_or(0.0);
            }
            out
        };
        FlowSummary {
            label: self.label.clone(),
            avg_throughput_mbps: self.windows.average_throughput_mbps(),
            throughput_percentiles_mbps: pcts(&tp),
            delay_percentiles_ms: pcts(&self.delays_ms),
            avg_delay_ms: self.delay_stats.mean(),
            p95_delay_ms: percentile(&self.delays_ms, 95.0).unwrap_or(0.0),
            max_delay_ms: self.delay_stats.max().unwrap_or(0.0),
            total_bytes: self.total_bytes,
            packets: self.delay_stats.count(),
            internet_bottleneck_fraction: self.internet_bottleneck_fraction,
            carrier_aggregation_triggered: self.carrier_aggregation_triggered,
        }
    }
}

impl FlowSummary {
    /// Throughput speedup of `self` relative to `other` (paper Table 1
    /// convention: PBE-CC throughput / other throughput).
    pub fn throughput_speedup_vs(&self, other: &FlowSummary) -> f64 {
        if other.avg_throughput_mbps <= 0.0 {
            return f64::INFINITY;
        }
        self.avg_throughput_mbps / other.avg_throughput_mbps
    }

    /// Delay reduction factor of `self` relative to `other` on the 95th
    /// percentile (other's delay / self's delay, so > 1 means self is better).
    pub fn p95_delay_reduction_vs(&self, other: &FlowSummary) -> f64 {
        if self.p95_delay_ms <= 0.0 {
            return f64::INFINITY;
        }
        other.p95_delay_ms / self.p95_delay_ms
    }

    /// Delay reduction factor on average delay.
    pub fn avg_delay_reduction_vs(&self, other: &FlowSummary) -> f64 {
        if self.avg_delay_ms <= 0.0 {
            return f64::INFINITY;
        }
        other.avg_delay_ms / self.avg_delay_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_flow(
        label: &str,
        rate_pkts_per_ms: u64,
        delay_ms: f64,
        duration_ms: u64,
    ) -> FlowSummary {
        let mut b = FlowSummaryBuilder::new(label);
        for ms in 1..=duration_ms {
            for _ in 0..rate_pkts_per_ms {
                b.record_packet(
                    Instant::from_millis(ms),
                    1500,
                    Duration::from_micros((delay_ms * 1000.0) as u64),
                );
            }
        }
        b.build()
    }

    #[test]
    fn summary_reports_throughput_and_delay() {
        // 1 packet of 1500 B per ms = 12 Mbit/s.
        let s = build_flow("test", 1, 50.0, 2000);
        assert!(
            (s.avg_throughput_mbps - 12.0).abs() < 0.5,
            "{}",
            s.avg_throughput_mbps
        );
        assert!((s.avg_delay_ms - 50.0).abs() < 1e-9);
        assert!((s.p95_delay_ms - 50.0).abs() < 1e-9);
        assert_eq!(s.packets, 2000);
        assert_eq!(s.total_bytes, 2000 * 1500);
    }

    #[test]
    fn speedup_and_delay_reduction_ratios() {
        let fast = build_flow("fast", 2, 40.0, 1000);
        let slow = build_flow("slow", 1, 80.0, 1000);
        assert!((fast.throughput_speedup_vs(&slow) - 2.0).abs() < 0.05);
        assert!((fast.p95_delay_reduction_vs(&slow) - 2.0).abs() < 1e-9);
        assert!((fast.avg_delay_reduction_vs(&slow) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_handle_degenerate_cases() {
        let empty = FlowSummaryBuilder::new("empty").build();
        let real = build_flow("real", 1, 10.0, 100);
        assert!(real.throughput_speedup_vs(&empty).is_infinite());
        assert!(empty.p95_delay_reduction_vs(&real).is_infinite());
        assert_eq!(empty.packets, 0);
    }

    #[test]
    fn bottleneck_fraction_is_clamped() {
        let mut b = FlowSummaryBuilder::new("x");
        b.set_internet_bottleneck_fraction(1.7);
        b.set_carrier_aggregation_triggered(true);
        let s = b.build();
        assert_eq!(s.internet_bottleneck_fraction, 1.0);
        assert!(s.carrier_aggregation_triggered);
    }
}
