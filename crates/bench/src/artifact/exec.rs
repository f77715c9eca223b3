//! Store-aware grid execution: run only the points whose key is missing.
//!
//! [`run_cached`] is the one grid executor: it takes expanded specs and
//! returns a [`SweepReport`] in grid order.  Without a store every point
//! executes; with one, each point is first looked up by content key.  Hits
//! are served from disk with zero simulation; misses execute on the worker
//! pool in small batches and are persisted as each batch completes, so an
//! interrupted run resumes from its last finished batch instead of
//! restarting.  Served and fresh outcomes are byte-identical by
//! construction — the blob stores the exact spec and `SimResult` a fresh run
//! would produce — and the cache-equivalence tests in
//! `crates/bench/tests/artifact.rs` pin that.

use super::store::{PointFailure, ResultStore};
use crate::sweep::{ScenarioOutcome, ScenarioSpec, SweepReport};
use pbe_netsim::Simulation;
use pbe_stats::pool::{panic_message, WorkerPool};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Outcome of a cached run: the assembled report plus the cache accounting
/// the smoke tests and CI assert on.
#[derive(Debug)]
pub struct CachedRun {
    /// Per-point outcomes in grid order, exactly as a fresh sweep would
    /// report them (cached points carry `wall_ms = 0`).  Failed points are
    /// absent here and present in `failures`.
    pub report: SweepReport,
    /// Number of points that actually simulated in this invocation.
    pub executed: usize,
    /// Number of points served from the store.
    pub cached: usize,
    /// Points that were invalid or panicked, plus quarantined points skipped
    /// on resume — in grid order.
    pub failures: Vec<PointFailure>,
}

/// Execute `specs`, serving store hits and persisting fresh results.
///
/// With `store = None` every point executes (a plain sweep).  `workers` is
/// the worker-thread count, `0` meaning "all available cores"; results are
/// byte-identical for every count.  `figure` labels the manifest entries of
/// freshly executed points.
///
/// Execution is failure-contained: a point whose configuration
/// [`Simulation::validate`] rejects fails without simulating, a panicking
/// one is caught, and both are reported as a structured [`PointFailure`].
/// Failed points are quarantined in the store, so a later resume
/// skips-and-reports them instead of re-poisoning every invocation, and
/// **every other point still executes exactly once** — one poison point
/// costs its own slot, never the sweep.  A failed point is not retried: the
/// simulation is deterministic, so it would fail again.
pub fn run_cached(
    figure: &str,
    specs: Vec<ScenarioSpec>,
    mut store: Option<&mut ResultStore>,
    workers: usize,
) -> io::Result<CachedRun> {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    };
    let started = Instant::now();
    let keys: Vec<String> = specs.iter().map(ScenarioSpec::content_key).collect();

    // Phase 1: serve every present point from the store; skip-and-report
    // quarantined keys; everything else is a miss.
    let mut slots: Vec<Option<ScenarioOutcome>> = (0..specs.len()).map(|_| None).collect();
    let mut failures: Vec<(usize, PointFailure)> = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let hit = store
            .as_deref()
            .and_then(|s| s.get(key))
            .map(|p| ScenarioOutcome::new(p.spec, p.key, p.result, 0.0));
        if let Some(outcome) = hit {
            slots[i] = Some(outcome);
            continue;
        }
        if let Some(poison) = store.as_deref().and_then(|s| s.quarantine_entry(key)) {
            failures.push((i, poison.clone()));
            continue;
        }
        misses.push(i);
    }
    let cached = specs.len() - misses.len() - failures.len();

    // Phase 2: execute the misses in small batches, persisting after each
    // batch so a kill loses at most one batch of work.  Each point runs
    // under `catch_unwind`, so no job reaches the pool with a panic.
    let mut executed = 0usize;
    let batch = (workers * 2).max(4);
    let pool = WorkerPool::new(workers);
    for batch_indices in misses.chunks(batch) {
        let results = pool.run_collect(batch_indices.len(), |j| {
            let i = batch_indices[j];
            execute_guarded(&specs[i], &keys[i])
        });
        for (&i, result) in batch_indices.iter().zip(results) {
            match result {
                Ok(outcome) => {
                    if let Some(store) = store.as_deref_mut() {
                        store.insert_parts(figure, &outcome.key, &outcome.spec, &outcome.result)?;
                    }
                    executed += 1;
                    slots[i] = Some(outcome);
                }
                Err(message) => {
                    let spec = &specs[i];
                    let failed = PointFailure {
                        key: keys[i].clone(),
                        figure: figure.to_string(),
                        label: spec.label.clone(),
                        scheme: spec.scheme.id().to_string(),
                        seed: spec.seed,
                        message,
                    };
                    if let Some(store) = store.as_deref_mut() {
                        store.quarantine(&failed)?;
                    }
                    failures.push((i, failed));
                }
            }
        }
    }

    // Failed points lose exactly their own slot; the report keeps every
    // surviving point in grid order.
    failures.sort_by_key(|(i, _)| *i);
    let outcomes: Vec<ScenarioOutcome> = slots.into_iter().flatten().collect();
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
    let busy_ms = outcomes.iter().map(|o| o.wall_ms).sum();
    Ok(CachedRun {
        report: SweepReport {
            outcomes,
            workers,
            elapsed_ms,
            busy_ms,
        },
        executed,
        cached,
        failures: failures.into_iter().map(|(_, f)| f).collect(),
    })
}

/// Run one scenario on the calling (pool) thread with its panics
/// contained: a panic comes back as its rendered message.  Never panics.
/// An invalid configuration fails before any simulation, because
/// [`Simulation::run`] validates first and panics with the
/// `invalid configuration: …` message.
fn execute_guarded(spec: &ScenarioSpec, key: &str) -> Result<ScenarioOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| execute_one(spec, key)))
        .map_err(|payload| panic_message(payload.as_ref()))
}

fn execute_one(spec: &ScenarioSpec, key: &str) -> ScenarioOutcome {
    let started = Instant::now();
    let result = Simulation::new(spec.sim_config()).run();
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    ScenarioOutcome::new(spec.clone(), key.to_string(), result, wall_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepGrid;
    use pbe_netsim::SchemeChoice;
    use pbe_stats::time::Duration;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        SweepGrid::over(vec![ScenarioSpec::single_flow(
            "exec",
            SchemeChoice::Pbe,
            Duration::from_millis(200),
        )
        .seed(11)])
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("CUBIC")])
        .expand()
    }

    #[test]
    fn without_a_store_everything_executes_and_matches_the_sweep_runner() {
        let specs = tiny_specs();
        let plain: Vec<_> = specs.iter().map(|s| (s, s.run())).collect();
        let run = run_cached("fig_test", specs.clone(), None, 1).unwrap();
        assert_eq!(run.executed, 2);
        assert_eq!(run.cached, 0);
        assert_eq!(
            run.report.deterministic_json(),
            serde_json::to_string(&plain).unwrap()
        );
    }

    #[test]
    fn a_panicking_point_fails_structured_while_the_rest_execute_once() {
        let dir = std::env::temp_dir().join(format!("pbe_exec_chaos_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        // Three points: two healthy schemes and one that panics mid-run.
        let specs = SweepGrid::over(vec![ScenarioSpec::single_flow(
            "chaos",
            SchemeChoice::Pbe,
            Duration::from_millis(200),
        )
        .seed(23)])
        .schemes([
            SchemeChoice::Pbe,
            SchemeChoice::named("CUBIC"),
            SchemeChoice::named("CHAOS_PANIC"),
        ])
        .expand();
        let run = run_cached("fig_chaos", specs.clone(), Some(&mut store), 1).unwrap();

        // The chaos point fails with its panic message; the sweep completed.
        assert_eq!(run.executed, 2, "the two healthy points executed");
        assert_eq!(run.report.outcomes.len(), 2);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].scheme, "CHAOS_PANIC");
        assert!(run.failures[0]
            .message
            .contains("chaos: injected scheme panic"));
        assert_eq!(store.len(), 2, "only healthy points persisted");

        // Resume: the quarantined point is skipped-and-reported, healthy
        // ones served from the store — zero new executions.
        let resumed = run_cached("fig_chaos", specs, Some(&mut store), 1).unwrap();
        assert_eq!((resumed.executed, resumed.cached), (0, 2));
        assert_eq!(
            resumed.failures, run.failures,
            "quarantine reported on resume"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fresh points are persisted from borrowed parts; the blob and the
    /// manifest line must be the bytes an owned [`StoredPoint`] of the
    /// same outcome writes.
    #[test]
    fn fresh_points_store_the_bytes_of_an_owned_stored_point() {
        use super::super::store::{ManifestEntry, StoredPoint};
        let dir = std::env::temp_dir().join(format!("pbe_exec_bytes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        let run = run_cached("fig_bytes", tiny_specs(), Some(&mut store), 1).unwrap();
        assert_eq!(run.executed, 2);
        let mut lines = Vec::new();
        for outcome in &run.report.outcomes {
            let blob = serde_json::to_string(&StoredPoint {
                key: outcome.key.clone(),
                spec: outcome.spec.clone(),
                result: outcome.result.clone(),
            })
            .unwrap();
            let stored =
                std::fs::read_to_string(dir.join("points").join(format!("{}.json", outcome.key)))
                    .unwrap();
            assert_eq!(stored, blob, "blob of {}", outcome.key);
            let entry = ManifestEntry {
                key: outcome.key.clone(),
                figure: "fig_bytes".to_string(),
                label: outcome.spec.label.clone(),
                scheme: outcome.spec.scheme.id().to_string(),
                seed: outcome.spec.seed,
                checksum: pbe_stats::fnv1a_128_hex(blob.as_bytes()),
            };
            lines.push(serde_json::to_string(&entry).unwrap() + "\n");
        }
        assert_eq!(
            std::fs::read_to_string(store.manifest_path()).unwrap(),
            lines.concat()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_invocation_serves_everything_from_the_store() {
        let dir = std::env::temp_dir().join(format!("pbe_exec_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        let first = run_cached("fig_test", tiny_specs(), Some(&mut store), 1).unwrap();
        assert_eq!((first.executed, first.cached), (2, 0));
        let second = run_cached("fig_test", tiny_specs(), Some(&mut store), 1).unwrap();
        assert_eq!((second.executed, second.cached), (0, 2));
        assert_eq!(
            first.report.deterministic_json(),
            second.report.deterministic_json()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
