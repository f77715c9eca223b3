//! Parallel execution of scenario lists and the aggregated sweep report.

use super::spec::ScenarioSpec;
use pbe_netsim::{SimResult, Simulation};
use pbe_stats::pool::run_indexed;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One executed grid point: the spec that defined it, the simulator's
/// result, and how long the simulation took on its worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub spec: ScenarioSpec,
    /// The simulator's full result for that scenario.
    pub result: SimResult,
    /// Wall-clock milliseconds this scenario spent on its worker (0 when the
    /// outcome was served from an artifact result store).
    pub wall_ms: f64,
    /// The spec's [content key](ScenarioSpec::content_key) — the address of
    /// this point in an artifact result store, so report rows and store
    /// entries join without re-expanding the grid.  Serde-defaulted: report
    /// JSON written before the artifact pipeline loads with an empty key.
    #[serde(default)]
    pub key: String,
    /// The scheme label (`spec.scheme.id()`), duplicated at top level so
    /// report consumers need not interpret the spec.  Serde-defaulted.
    #[serde(default)]
    pub scheme: String,
    /// The expanded experiment seed, duplicated from the spec.
    /// Serde-defaulted.
    #[serde(default)]
    pub seed: u64,
}

impl ScenarioOutcome {
    /// Assemble an outcome, deriving the content key and scheme/seed labels
    /// from the spec.
    pub fn new(spec: ScenarioSpec, result: SimResult, wall_ms: f64) -> Self {
        let key = spec.content_key();
        let scheme = spec.scheme.id().to_string();
        let seed = spec.seed;
        ScenarioOutcome {
            spec,
            result,
            wall_ms,
            key,
            scheme,
            seed,
        }
    }
}

/// Aggregated outcome of a sweep: per-scenario results in grid order plus
/// wall-clock accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// One outcome per grid point, in the order the specs were given
    /// (grid-expansion order, not completion order).
    pub outcomes: Vec<ScenarioOutcome>,
    /// Number of worker threads that executed the sweep.
    pub workers: usize,
    /// Wall-clock milliseconds for the whole sweep.
    pub elapsed_ms: f64,
    /// Sum of per-scenario wall-clock milliseconds (what a serial run would
    /// roughly cost).
    pub busy_ms: f64,
}

impl SweepReport {
    /// Parallel speedup: summed per-scenario time over sweep wall-clock time
    /// (≈ 1.0 for a serial run, approaching the worker count when the grid
    /// is wide enough).
    pub fn speedup(&self) -> f64 {
        if self.elapsed_ms > 0.0 {
            self.busy_ms / self.elapsed_ms
        } else {
            1.0
        }
    }

    /// The distinct scenario labels, in first-appearance (grid) order.
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = Vec::new();
        for o in &self.outcomes {
            if !labels.contains(&o.spec.label.as_str()) {
                labels.push(&o.spec.label);
            }
        }
        labels
    }

    /// All outcomes of one scenario label, in grid order (one per scheme ×
    /// seed combination).
    pub fn by_label(&self, label: &str) -> Vec<&ScenarioOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.spec.label == label)
            .collect()
    }

    /// The outcome of one (label, scheme) grid point, if it ran.
    pub fn outcome(&self, label: &str, scheme: &str) -> Option<&ScenarioOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.spec.label == label && o.spec.scheme.id().as_str() == scheme)
    }

    /// Serialize only the deterministic part of the report — the specs and
    /// their `SimResult`s, no timing — so two runs of the same grid compare
    /// byte-for-byte regardless of worker count.
    pub fn deterministic_json(&self) -> String {
        let pairs: Vec<(&ScenarioSpec, &SimResult)> =
            self.outcomes.iter().map(|o| (&o.spec, &o.result)).collect();
        serde_json::to_string(&pairs).expect("sweep results serialize")
    }

    /// One line of sweep statistics for a report footer.
    pub fn stats_line(&self) -> String {
        format!(
            "{} scenarios on {} worker(s): {:.2} s wall, {:.2} s simulated-serial, {:.2}x speedup",
            self.outcomes.len(),
            self.workers,
            self.elapsed_ms / 1000.0,
            self.busy_ms / 1000.0,
            self.speedup()
        )
    }
}

/// Executes scenario lists across OS threads.
///
/// Each worker builds its scenario through the ordinary
/// [`Simulation`] path from the spec alone, so the
/// schedule (which worker, what order) cannot leak into the results: a
/// 16-worker sweep and a serial sweep of the same grid produce byte-identical
/// per-scenario [`SimResult`]s.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner using all available cores.
    pub fn new() -> Self {
        SweepRunner {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// A single-worker runner (the serial baseline).
    pub fn serial() -> Self {
        SweepRunner { workers: 1 }
    }

    /// Set the worker count explicitly (0 means "all available cores").
    pub fn workers(mut self, workers: usize) -> Self {
        if workers == 0 {
            return SweepRunner::new();
        }
        self.workers = workers;
        self
    }

    /// Execute every spec and aggregate the outcomes in input order.
    pub fn run(&self, specs: Vec<ScenarioSpec>) -> SweepReport {
        let started = Instant::now();
        let outcomes = run_indexed(specs.len(), self.workers, |i| {
            let spec = specs[i].clone();
            let scenario_started = Instant::now();
            let result = Simulation::new(spec.sim_config()).run();
            let wall_ms = scenario_started.elapsed().as_secs_f64() * 1000.0;
            ScenarioOutcome::new(spec, result, wall_ms)
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        let busy_ms = outcomes.iter().map(|o| o.wall_ms).sum();
        SweepReport {
            outcomes,
            workers: self.workers,
            elapsed_ms,
            busy_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::SweepGrid;
    use pbe_netsim::SchemeChoice;
    use pbe_stats::time::Duration;

    fn tiny_grid() -> SweepGrid {
        let duration = Duration::from_millis(400);
        SweepGrid::over(vec![ScenarioSpec::single_flow(
            "tiny",
            SchemeChoice::Pbe,
            duration,
        )
        .seed(3)])
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("CUBIC")])
    }

    #[test]
    fn report_preserves_grid_order_and_lookups_work() {
        let report = SweepRunner::serial().run(tiny_grid().expand());
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.labels(), vec!["tiny"]);
        assert_eq!(report.by_label("tiny").len(), 2);
        assert!(report.outcome("tiny", "PBE").is_some());
        assert!(report.outcome("tiny", "CUBIC").is_some());
        assert!(report.outcome("tiny", "BBR").is_none());
        assert_eq!(
            report.outcomes[0].spec.scheme.id().as_str(),
            "PBE",
            "grid order survives execution"
        );
    }

    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        let specs = tiny_grid().expand();
        let serial = SweepRunner::serial().run(specs.clone());
        let parallel = SweepRunner::new().workers(2).run(specs);
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    }
}
