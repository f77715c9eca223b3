//! The aggregated sweep report: what executing a list of scenario specs
//! returns ([`run_cached`](crate::artifact::run_cached) builds it).

use super::spec::ScenarioSpec;
use pbe_netsim::SimResult;
use serde::{Deserialize, Serialize};

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
    /// entries join without re-expanding the grid.
    pub key: String,
    /// The scheme label (`spec.scheme.id()`), duplicated at top level so
    /// report consumers need not interpret the spec.
    pub scheme: String,
    /// The expanded experiment seed, duplicated from the spec.
    pub seed: u64,
}

impl ScenarioOutcome {
    /// Assemble an outcome from the spec, its content `key` — which the
    /// caller has already computed, so the spec is hashed once per point —
    /// and the scheme/seed labels derived from the spec.
    pub fn new(spec: ScenarioSpec, key: String, result: SimResult, wall_ms: f64) -> Self {
        debug_assert_eq!(key, spec.content_key());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::run_cached;
    use crate::sweep::spec::SweepGrid;
    use pbe_netsim::SchemeChoice;
    use pbe_stats::time::Duration;

    fn sweep(specs: Vec<ScenarioSpec>, workers: usize) -> SweepReport {
        run_cached("sweep", specs, None, workers).unwrap().report
    }

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
        let report = sweep(tiny_grid().expand(), 1);
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
        let serial = sweep(specs.clone(), 1);
        let parallel = sweep(specs, 2);
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    }
}
