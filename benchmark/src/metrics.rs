//! The metric tables and the one-line result record.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; `tests/contract.rs` holds the two in agreement.

use serde::Value;

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same five on every workload.
///
/// Failures are not a metric here: the result record counts them
/// (`attempted`, `failed`, `correct`), and a metric must never read 0.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_ms_per_sim_s",
        unit: "ms/sim-s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_goodput_mbps",
        unit: "Mbit/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p95_delay_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric of the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The paper's eight schemes, in the order the figures print them; each has
/// its own `cc.on_ack_ns.<SCHEME>` metric.
pub const PAPER_SCHEMES: [&str; 8] = [
    "PBE", "BBR", "CUBIC", "Verus", "Sprout", "Copa", "PCC", "Vivace",
];

/// The per-layer metrics; the prefix before the first `.` is the crate the
/// number belongs to.
pub const PER_LAYER: &[PerLayer] = &[
    // pbe-cellular: replay of the workload's cells and UEs.
    ("cellular.tick_us_per_subframe", "us", "lower"),
    ("cellular.tick_ns_per_ue_subframe", "ns", "lower"),
    ("cellular.idle_tick_us_per_subframe", "us", "lower"),
    ("cellular.tick_share", "fraction", "lower"),
    ("cellular.add_ue_us", "us", "lower"),
    ("cellular.shard2_speedup", "ratio", "higher"),
    ("cellular.scheduler_ns_per_call", "ns", "lower"),
    ("cellular.channel_sample_ns", "ns", "lower"),
    ("cellular.dcis_per_subframe", "count", "lower"),
    ("cellular.deliveries_per_subframe", "count", "higher"),
    ("cellular.allocs_per_subframe", "count", "lower"),
    // pbe-pdcch: replay of the captured DCI stream.
    ("pdcch.batch_ns_per_subframe", "ns", "lower"),
    ("pdcch.decode_us_per_subframe", "us", "lower"),
    ("pdcch.fusion_ns_per_subframe", "ns", "lower"),
    ("pdcch.monitor_ns_per_subframe", "ns", "lower"),
    ("pdcch.candidates_per_subframe", "count", "lower"),
    ("pdcch.decode_rate", "fraction", "higher"),
    // pbe-core: timing proxy around the PBE receiver agent, in a real run.
    ("core.on_subframe_us", "us", "lower"),
    ("core.on_packet_ns", "ns", "lower"),
    ("core.receiver_share", "fraction", "lower"),
    ("core.self_share", "fraction", "lower"),
    ("core.estimate_ns", "ns", "lower"),
    ("core.translate_ns", "ns", "lower"),
    ("core.estimates_per_sim_s", "1/s", "lower"),
    ("core.pbe_vs_bbr_tput_ratio", "ratio", "higher"),
    ("core.pbe_vs_bbr_p95_delay_ratio", "ratio", "lower"),
    // pbe-cc-algorithms: timing proxy around every controller.
    ("cc.on_ack_ns", "ns", "lower"),
    ("cc.on_send_ns", "ns", "lower"),
    ("cc.calls_per_sim_s", "1/s", "lower"),
    ("cc.share", "fraction", "lower"),
    ("cc.on_ack_ns.PBE", "ns", "lower"),
    ("cc.on_ack_ns.BBR", "ns", "lower"),
    ("cc.on_ack_ns.CUBIC", "ns", "lower"),
    ("cc.on_ack_ns.Verus", "ns", "lower"),
    ("cc.on_ack_ns.Sprout", "ns", "lower"),
    ("cc.on_ack_ns.Copa", "ns", "lower"),
    ("cc.on_ack_ns.PCC", "ns", "lower"),
    ("cc.on_ack_ns.Vivace", "ns", "lower"),
    // pbe-netsim: backhaul and wired replays, event counts, driver residual.
    ("netsim.backhaul_ns_per_packet", "ns", "lower"),
    ("netsim.backhaul_us_per_subframe", "us", "lower"),
    ("netsim.backhaul_drop_frac", "fraction", "lower"),
    ("netsim.backhaul_mark_frac", "fraction", "lower"),
    ("netsim.wired_ns_per_packet", "ns", "lower"),
    ("netsim.events_per_sim_s", "1/s", "lower"),
    ("netsim.acks_per_sim_s", "1/s", "higher"),
    ("netsim.packets_per_sim_s", "1/s", "higher"),
    ("netsim.handovers", "count", "higher"),
    ("netsim.ca_events", "count", "higher"),
    ("netsim.allocs_per_sim_s", "1/s", "lower"),
    ("netsim.result_json_kb", "kB", "lower"),
    ("netsim.config_gen_ms", "ms", "lower"),
    ("netsim.build_ms", "ms", "lower"),
    ("netsim.driver_residual_share", "fraction", "lower"),
    // pbe-bench: the sweep/artifact harness (paper_sweep only).
    ("bench.expand_us_per_point", "us", "lower"),
    ("bench.content_key_us_per_point", "us", "lower"),
    ("bench.store_open_ms", "ms", "lower"),
    ("bench.store_insert_us_per_point", "us", "lower"),
    ("bench.store_get_us_per_point", "us", "lower"),
    ("bench.store_bytes_per_point", "B", "lower"),
    ("bench.render_ms", "ms", "lower"),
    ("bench.warm_rerun_ms_per_point", "ms", "lower"),
    ("bench.cache_hit_frac", "fraction", "higher"),
    ("bench.sim_share", "fraction", "higher"),
    // pbe-stats: micro-kernels.
    ("stats.rng_ns_per_draw", "ns", "lower"),
    ("stats.hash_mb_per_s", "MB/s", "higher"),
    ("stats.summary_us_per_10k", "us", "lower"),
    ("stats.pool_dispatch_us_per_job", "us", "lower"),
    // Health of the instrument itself.
    ("bench.machine_speed_index", "ratio", "higher"),
    ("bench.ref_kernel_cv", "fraction", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.samples_discarded", "count", "lower"),
    ("bench.trace_overhead_frac", "fraction", "lower"),
    ("bench.raw_host_ms_per_sim_s_min", "ms/sim-s", "lower"),
    ("bench.raw_host_ms_per_sim_s_p50", "ms/sim-s", "lower"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// What one benchmark run reports: the last line of its standard output.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (simulation runs, sweep points).
    pub attempted: u64,
    /// Operations that panicked, disagreed with another iteration, or
    /// violated an output check.
    pub failed: u64,
    /// What went wrong, one line per failure (printed to stderr).
    pub failures: Vec<String>,
    /// `(name, value)`, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Count one attempted operation and its violations, if any.
    pub fn attempt(&mut self, what: &str, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            for v in violations {
                self.failures.push(format!("{what}: {v}"));
            }
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Record a metric.  A value that is not finite is a bug in the
    /// benchmark, not a measurement; it is reported as a failure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        if !value.is_finite() {
            self.failed += 1;
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// Fill every per-layer metric this run did not measure with 0 (the
    /// layer did no work on this workload), in table order.
    pub fn complete_per_layer(&mut self) {
        let measured = std::mem::take(&mut self.metrics);
        for (name, _, _) in PER_LAYER {
            let value = measured.iter().find(|m| m.0 == *name).map_or(0.0, |m| m.1);
            self.metrics.push((name, value));
        }
    }

    /// The record as one JSON line.  Values print with every digit Rust's
    /// shortest round-trip formatting keeps.
    pub fn json_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = unit_of(name).expect("checked in set()");
            (
                *name,
                object([("value", Value::F64(*value)), ("unit", text(unit))]),
            )
        });
        let record = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", object(metrics)),
        ]);
        serde_json::to_string(&record).expect("values serialize")
    }
}

/// A JSON object with its entries in the order given.
pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}
