//! The `pbe-bench perf` regression gate: deterministic wall-clock benchmarks
//! with committed baselines.
//!
//! Criterion answers "how fast is this build on my machine"; the perf gate
//! answers "did this change make the simulator slower than the baseline we
//! committed".  Each [`PerfCase`] runs a fixed scenario (fixed seed, fixed
//! duration) `iterations` times, takes the median wall-clock cost per
//! simulated second, and emits one `BENCH_<name>.json` next to the committed
//! baseline.  `--check` compares fresh numbers against the committed files
//! with a configurable tolerance and exits nonzero on regression — CI runs
//! it on every push (the `perf-gate` job in `.github/workflows/ci.yml`).
//!
//! The cases are chosen to bracket the hot loop: `many_ue` is the
//! 48-UE single-network scenario the Criterion bench of the same name pins
//! (CUBIC flows, no PDCCH monitoring — pure scheduler/HARQ/queue cost),
//! `city_scale` is a 6-cell driving fleet running the full PBE pipeline
//! (blind decoding, fusion, capacity estimation, handovers), and `metro` is
//! the multi-shard stressor: 1,000 cells and 100k UEs ticked on four
//! shards, with a single one-shard reference run folded into the record so
//! the speedup (and the worker count it was measured at) lands in
//! `BENCH_metro.json`.  `fanout` routes 960 CUBIC flows through one shared
//! aggregation link, pricing the backhaul subsystem's analytic walk.

use crate::sweep::{CityScale, Fanout};
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
use pbe_stats::time::Duration;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One deterministic benchmark scenario of the gate.
pub struct PerfCase {
    /// Name; the emitted file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Builds the (fixed-seed) simulation config.
    pub build: fn() -> SimConfig,
}

/// The measurement record serialised to `BENCH_<name>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Case name.
    pub name: String,
    /// FNV-1a hash of the scenario config; a mismatch with the baseline
    /// means the numbers are not comparable and the baseline must be
    /// re-blessed.
    pub config_hash: String,
    /// Simulated seconds per run.
    pub simulated_seconds: f64,
    /// Median wall-clock milliseconds per simulated second.
    pub ms_per_sim_second: f64,
    /// Every run's ms-per-simulated-second, in run order.
    pub runs_ms_per_sim_second: Vec<f64>,
    /// Peak resident set size of the process after this case, kilobytes
    /// (`VmHWM` from `/proc/self/status`; 0 where unavailable).  The value
    /// is informational — process-wide and monotone across cases — and is
    /// not part of the `--check` comparison.
    pub peak_rss_kb: u64,
    /// Shard-worker count the case ran with (`None` = one shard).
    #[serde(default)]
    pub workers: Option<usize>,
    /// One reference run of the same scenario on one shard, ms per simulated
    /// second — recorded for multi-shard cases only, so the speedup below is
    /// auditable.  Informational; not part of the `--check` comparison.
    #[serde(default)]
    pub serial_ms_per_sim_second: Option<f64>,
    /// `serial_ms_per_sim_second / ms_per_sim_second`: wall-clock speedup
    /// vs. one shard on this machine's core count.
    #[serde(default)]
    pub speedup_vs_serial: Option<f64>,
}

/// Outcome of comparing one fresh record against its committed baseline.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Within tolerance (or faster).
    Pass {
        /// Fractional change vs the baseline (negative = faster).
        delta: f64,
    },
    /// Slower than `baseline * (1 + tolerance)`.
    Regression {
        /// Fractional change vs the baseline.
        delta: f64,
    },
    /// The scenario config changed; numbers are not comparable.
    ConfigMismatch,
    /// No committed baseline file.
    MissingBaseline,
}

impl CheckOutcome {
    /// Whether the gate passes for this case.
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass { .. })
    }
}

/// The committed gate cases.
pub fn default_cases() -> Vec<PerfCase> {
    vec![
        PerfCase {
            name: "many_ue",
            build: many_ue_config,
        },
        PerfCase {
            name: "city_scale",
            build: city_scale_config,
        },
        PerfCase {
            name: "metro",
            build: metro_config,
        },
        PerfCase {
            name: "fanout",
            build: fanout_config,
        },
    ]
}

/// The 48-UE scenario of the `many_ue` Criterion bench: three cells, one
/// bulk CUBIC flow per UE, one simulated second, seed 42.
pub fn many_ue_config() -> SimConfig {
    let ues = 48u32;
    let duration = Duration::from_secs(1);
    let cells = vec![CellId(0), CellId(1), CellId(2)];
    SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::none(),
        seed: 42,
        duration,
        ues: (1..=ues)
            .map(|i| {
                (
                    UeConfig::new(UeId(i), cells.clone(), 1, -85.0 - f64::from(i % 7)),
                    MobilityTrace::stationary(-85.0 - f64::from(i % 7)),
                )
            })
            .collect(),
        flows: (1..=ues)
            .map(|i| FlowConfig::bulk(i, UeId(i), SchemeChoice::named("CUBIC"), duration))
            .collect(),
        trajectories: Vec::new(),
        shards: None,
        backhaul: None,
        faults: None,
    }
}

/// A 3×2-cell driving city with 24 PBE flows over two simulated seconds:
/// exercises blind decoding, fusion, carrier aggregation and handovers.
pub fn city_scale_config() -> SimConfig {
    CityScale::driving(3, 2, 24)
        .seconds(2)
        .seed(0xC17)
        .scenario()
        .sim_config()
}

/// The metro stressor: a 40×25 grid (1,000 cells) with 100k driving UEs, 64
/// foreground CUBIC flows (the rest are radio users supplying handover and
/// scheduling pressure) over 200 simulated milliseconds, ticked on a
/// four-shard engine.  Output is byte-identical for every shard count
/// (`tests/shard_identity.rs` pins that); this case tracks the wall clock.
pub fn metro_config() -> SimConfig {
    CityScale::driving(40, 25, 100_000)
        .millis(200)
        .seed(0x3E7)
        .scheme(SchemeChoice::named("CUBIC"))
        .flows_cap(64)
        .shards(4)
        .scenario()
        .sim_config()
}

/// The shared-backhaul stressor: 960 CUBIC flows from one server fanning
/// out over 24 cells behind a single 480 Mbit/s aggregation link, one
/// simulated second.  Every packet of every flow crosses the analytic
/// backhaul walk (ingress heap, per-link queues, marking), so this case
/// tracks the cost the backhaul subsystem adds on top of the radio tick.
pub fn fanout_config() -> SimConfig {
    Fanout::new(24, 960)
        .seconds(1)
        .seed(0xFA0)
        .agg(480e6, 1_200_000)
        .scenario()
        .sim_config()
}

/// FNV-1a over the debug rendering of the config: cheap, deterministic,
/// and sensitive to every scenario parameter.  The hash itself lives in
/// [`pbe_stats::hash`], shared with the artifact result store's point keys.
pub fn config_hash(cfg: &SimConfig) -> String {
    pbe_stats::fnv1a_64_hex(format!("{cfg:?}").as_bytes())
}

/// Peak resident set size of this process, kilobytes (`VmHWM`), or 0.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Run one case `iterations` times and assemble its record.
pub fn measure(case: &PerfCase, iterations: usize) -> PerfRecord {
    assert!(iterations >= 1);
    let probe = (case.build)();
    let simulated_seconds = probe.duration.as_secs_f64();
    let hash = config_hash(&probe);
    let workers = probe.shards;
    // Warm-up run: page in code and allocator arenas outside the timed runs.
    let _ = Simulation::new(probe).run();
    let mut runs = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let cfg = (case.build)();
        let started = Instant::now();
        let result = Simulation::new(cfg).run();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        std::hint::black_box(result);
        runs.push(elapsed_ms / simulated_seconds);
    }
    let mut sorted = runs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    // Multi-shard cases fold in one one-shard reference run of the same
    // scenario so the record carries an auditable speedup alongside the
    // worker count.
    let (serial_ms, speedup) = match workers {
        Some(n) if n > 1 => {
            let mut cfg = (case.build)();
            cfg.shards = Some(1);
            let started = Instant::now();
            std::hint::black_box(Simulation::new(cfg).run());
            let ms = started.elapsed().as_secs_f64() * 1000.0 / simulated_seconds;
            (Some(round3(ms)), Some(round3(ms / median)))
        }
        _ => (None, None),
    };
    PerfRecord {
        name: case.name.to_string(),
        config_hash: hash,
        simulated_seconds,
        ms_per_sim_second: round3(median),
        runs_ms_per_sim_second: runs.iter().map(|r| round3(*r)).collect(),
        peak_rss_kb: peak_rss_kb(),
        workers,
        serial_ms_per_sim_second: serial_ms,
        speedup_vs_serial: speedup,
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Compare a fresh record against its committed baseline.
pub fn check(fresh: &PerfRecord, baseline: Option<&PerfRecord>, tolerance: f64) -> CheckOutcome {
    let Some(base) = baseline else {
        return CheckOutcome::MissingBaseline;
    };
    if base.config_hash != fresh.config_hash {
        return CheckOutcome::ConfigMismatch;
    }
    let delta = fresh.ms_per_sim_second / base.ms_per_sim_second - 1.0;
    if fresh.ms_per_sim_second > base.ms_per_sim_second * (1.0 + tolerance) {
        CheckOutcome::Regression { delta }
    } else {
        CheckOutcome::Pass { delta }
    }
}

/// The markdown delta table posted in the CI job summary.
pub fn delta_table(rows: &[(PerfRecord, Option<PerfRecord>, CheckOutcome)]) -> String {
    let mut out = String::from(
        "| case | baseline ms/sim-s | fresh ms/sim-s | delta | peak RSS | status |\n\
         |------|------------------:|---------------:|------:|---------:|--------|\n",
    );
    for (fresh, baseline, outcome) in rows {
        let base_text = baseline
            .as_ref()
            .map(|b| format!("{:.1}", b.ms_per_sim_second))
            .unwrap_or_else(|| "—".to_string());
        let (delta_text, status) = match outcome {
            CheckOutcome::Pass { delta } => (format!("{:+.1}%", delta * 100.0), "✅ pass"),
            CheckOutcome::Regression { delta } => {
                (format!("{:+.1}%", delta * 100.0), "❌ regression")
            }
            CheckOutcome::ConfigMismatch => ("—".to_string(), "⚠️ config changed (re-bless)"),
            CheckOutcome::MissingBaseline => ("—".to_string(), "⚠️ no baseline (bless)"),
        };
        out.push_str(&format!(
            "| {} | {} | {:.1} | {} | {} MiB | {} |\n",
            fresh.name,
            base_text,
            fresh.ms_per_sim_second,
            delta_text,
            fresh.peak_rss_kb / 1024,
            status,
        ));
    }
    out
}

/// Load a committed baseline record, if present.
pub fn load_baseline(dir: &std::path::Path, name: &str) -> Option<PerfRecord> {
    let path = dir.join(format!("BENCH_{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Write a record as `BENCH_<name>.json` into `dir`.
pub fn write_record(dir: &std::path::Path, record: &PerfRecord) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", record.name));
    let text = serde_json::to_string_pretty(record).expect("record serialises");
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, hash: &str, ms: f64) -> PerfRecord {
        PerfRecord {
            name: name.to_string(),
            config_hash: hash.to_string(),
            simulated_seconds: 1.0,
            ms_per_sim_second: ms,
            runs_ms_per_sim_second: vec![ms],
            peak_rss_kb: 1024,
            workers: None,
            serial_ms_per_sim_second: None,
            speedup_vs_serial: None,
        }
    }

    #[test]
    fn records_without_shard_fields_still_deserialize() {
        // Pre-metro baselines on disk lack the shard fields; they must load.
        let text = r#"{
            "name": "many_ue",
            "config_hash": "h",
            "simulated_seconds": 1.0,
            "ms_per_sim_second": 50.0,
            "runs_ms_per_sim_second": [50.0],
            "peak_rss_kb": 1024
        }"#;
        let rec: PerfRecord = serde_json::from_str(text).unwrap();
        assert_eq!(rec.workers, None);
        assert_eq!(rec.speedup_vs_serial, None);
    }

    #[test]
    fn config_hash_is_deterministic_and_sensitive() {
        let a = config_hash(&many_ue_config());
        let b = config_hash(&many_ue_config());
        assert_eq!(a, b);
        assert_ne!(a, config_hash(&city_scale_config()));
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let base = record("many_ue", "h", 50.0);
        assert!(check(&record("many_ue", "h", 55.0), Some(&base), 0.15).is_pass());
        assert!(check(&record("many_ue", "h", 40.0), Some(&base), 0.15).is_pass());
        assert!(matches!(
            check(&record("many_ue", "h", 60.0), Some(&base), 0.15),
            CheckOutcome::Regression { .. }
        ));
        assert!(matches!(
            check(&record("many_ue", "other", 50.0), Some(&base), 0.15),
            CheckOutcome::ConfigMismatch
        ));
        assert!(matches!(
            check(&record("many_ue", "h", 50.0), None, 0.15),
            CheckOutcome::MissingBaseline
        ));
    }

    #[test]
    fn records_roundtrip_through_json() {
        let rec = record("city_scale", "abc123", 33.25);
        let text = serde_json::to_string(&rec).unwrap();
        let back: PerfRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.name, rec.name);
        assert_eq!(back.config_hash, rec.config_hash);
        assert_eq!(back.ms_per_sim_second, rec.ms_per_sim_second);
    }

    #[test]
    fn delta_table_renders_all_outcomes() {
        let base = record("many_ue", "h", 50.0);
        let rows = vec![
            (
                record("many_ue", "h", 45.0),
                Some(base.clone()),
                CheckOutcome::Pass { delta: -0.1 },
            ),
            (
                record("city_scale", "h", 70.0),
                Some(base),
                CheckOutcome::Regression { delta: 0.4 },
            ),
            (
                record("extra", "h", 1.0),
                None,
                CheckOutcome::MissingBaseline,
            ),
        ];
        let table = delta_table(&rows);
        assert!(table.contains("✅ pass"));
        assert!(table.contains("❌ regression"));
        assert!(table.contains("no baseline"));
    }
}
