//! Failure-contained execution, end to end: a chaos scheme that panics
//! mid-simulation runs through the same store-backed executor as every real
//! sweep, inline and on pool worker threads, and the sweep completes with a
//! structured failure instead of crashing; a point whose configuration is
//! invalid fails the same way without simulating.  The quarantine file must
//! survive a store reopen (a new process).  A corrupted blob is a miss:
//! `artifact verify` names it, and the next run of its figure re-executes
//! exactly that point.

use pbe_bench::artifact::{run_artifact, run_cached, ArtifactArgs, ResultStore};
use pbe_bench::sweep::{OutputFormat, ScenarioSpec, SweepGrid};
use pbe_cellular::config::CellId;
use pbe_netsim::{CellOutage, FaultSchedule, SchemeChoice};
use pbe_stats::time::Duration;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbe_chaos_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two healthy points and one panicking point.  All three fit one batch, so
/// on two workers the panic lands on the pool's worker thread or on the
/// caller, whichever claims it.
fn chaos_specs() -> Vec<ScenarioSpec> {
    SweepGrid::over(vec![ScenarioSpec::single_flow(
        "chaos-e2e",
        SchemeChoice::Pbe,
        Duration::from_millis(200),
    )
    .seed(37)])
    .schemes([
        SchemeChoice::Pbe,
        SchemeChoice::named("CUBIC"),
        SchemeChoice::named("CHAOS_PANIC"),
    ])
    .expand()
}

/// A poisoned sweep completes, quarantines the poison, and — after the store
/// is reopened as a fresh process would — skips the poison without
/// re-executing anything.  One worker runs every point inline on the caller;
/// two put points on a pool worker thread too.  Both give the same report,
/// failures and quarantine.
#[test]
fn quarantine_survives_a_reopen_and_nothing_reexecutes() {
    let root = temp_root("quarantine");
    let mut seen = Vec::new();
    for workers in [1, 2] {
        let store_dir = root.join(format!("store{workers}"));
        let run = {
            let mut store = ResultStore::open(&store_dir).unwrap();
            run_cached("fig_chaos", chaos_specs(), Some(&mut store), workers).unwrap()
        };
        assert_eq!(run.executed, 2, "both healthy points executed");
        assert_eq!(run.failures.len(), 1, "the chaos point failed structurally");
        assert_eq!(run.failures[0].scheme, "CHAOS_PANIC");
        assert!(run.failures[0]
            .message
            .contains("chaos: injected scheme panic"));

        // New process: reopen the store from disk.
        let mut store = ResultStore::open(&store_dir).unwrap();
        let quarantined: Vec<_> = store.quarantined().into_iter().cloned().collect();
        assert_eq!(quarantined, run.failures, "quarantine persisted");
        let resumed = run_cached("fig_chaos", chaos_specs(), Some(&mut store), workers).unwrap();
        assert_eq!(
            (resumed.executed, resumed.cached),
            (0, 2),
            "resume serves the healthy points and re-executes nothing"
        );
        assert_eq!(
            resumed.failures, run.failures,
            "poison reported, not re-run"
        );
        seen.push((run.report.deterministic_json(), run.failures, quarantined));
    }
    assert_eq!(seen[0], seen[1], "one and two workers agree");

    fs::remove_dir_all(&root).unwrap();
}

/// An invalid point fails validation before it simulates: it is the chaos
/// point with an outage of a cell the network lacks, so had it run, it would
/// have failed with the chaos panic instead.  It is quarantined like a
/// panic, and the two healthy points each execute once.
#[test]
fn an_invalid_point_fails_without_running_and_is_quarantined() {
    let root = temp_root("invalid");
    let mut specs = chaos_specs();
    let outage = CellOutage {
        cell: CellId(9),
        start_ms: 10,
        end_ms: 20,
    };
    specs[2].faults = Some(FaultSchedule {
        cell_outages: vec![outage],
        ..FaultSchedule::none()
    });
    let mut store = ResultStore::open(&root).unwrap();
    let run = run_cached("fig_invalid", specs.clone(), Some(&mut store), 2).unwrap();
    assert_eq!((run.executed, run.report.outcomes.len()), (2, 2));
    assert_eq!(run.failures.len(), 1);
    assert_eq!(
        run.failures[0].message,
        "invalid configuration: UnknownOutageCell(CellId(9))"
    );
    let mut store = ResultStore::open(&root).unwrap();
    let quarantined: Vec<_> = store.quarantined().into_iter().cloned().collect();
    assert_eq!(quarantined, run.failures, "quarantine persisted");
    let resumed = run_cached("fig_invalid", specs, Some(&mut store), 2).unwrap();
    assert_eq!((resumed.executed, resumed.cached), (0, 2));
    assert_eq!(resumed.failures, run.failures);
    fs::remove_dir_all(&root).unwrap();
}

const FIGURE: &str = "fig20_multi_connection";
const POINTS: usize = 8; // one scenario × eight schemes

fn figure_args(store: &Path, out: &Path) -> ArtifactArgs {
    ArtifactArgs {
        all: false,
        figures: vec![FIGURE.to_string()],
        list: false,
        store: Some(store.to_path_buf()),
        out: Some(out.to_path_buf()),
        seconds: Some(1),
        workers: 1,
        format: OutputFormat::Csv,
        verify: false,
    }
}

fn verify_args(store: &Path) -> ArtifactArgs {
    ArtifactArgs {
        figures: Vec::new(),
        out: None,
        verify: true,
        ..figure_args(store, store)
    }
}

/// `artifact verify` fails on a truncated blob; the next figure run
/// re-executes exactly that point and leaves a clean store.
#[test]
fn verify_detects_corruption_and_repair_reexecutes_exactly_that_point() {
    let root = temp_root("verify");
    let store_dir = root.join("store");

    let full = run_artifact(&figure_args(&store_dir, &root.join("full"))).unwrap();
    assert_eq!((full.executed, full.failed), (POINTS, 0));

    // Truncate one blob to simulate a torn write / disk corruption.
    let points = store_dir.join("points");
    let victim = fs::read_dir(&points)
        .unwrap()
        .map(|e| e.unwrap().path())
        .min()
        .expect("store has blobs");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // Health check: verify fails.
    assert!(run_artifact(&verify_args(&store_dir)).is_err());

    // A figure run refuses the truncated blob and re-executes exactly it.
    let rerun = run_artifact(&figure_args(&store_dir, &root.join("rerun"))).unwrap();
    assert_eq!(
        (rerun.executed, rerun.cached, rerun.failed),
        (1, POINTS - 1, 0),
        "the figure run re-executed exactly the corrupted point"
    );

    // The store is clean again and a figure run is all cache hits.
    assert!(run_artifact(&verify_args(&store_dir)).is_ok());
    let warm = run_artifact(&figure_args(&store_dir, &root.join("warm"))).unwrap();
    assert_eq!((warm.executed, warm.cached), (0, POINTS));

    fs::remove_dir_all(&root).unwrap();
}
