//! Failure-contained execution, end to end: chaos schemes (a scheme that
//! panics mid-simulation, a scheme that burns wall-clock past the deadline)
//! run through the same store-backed executor as every real sweep, and the
//! sweep completes with structured failures instead of crashing.  The
//! quarantine file must survive a store reopen (a new process), and
//! `artifact verify --repair` must re-execute exactly the corrupted keys.

use pbe_bench::artifact::{
    run_artifact, run_cached_with, ArtifactArgs, ExecPolicy, FailureKind, ResultStore,
};
use pbe_bench::sweep::{OutputFormat, ScenarioSpec, SweepGrid};
use pbe_netsim::SchemeChoice;
use pbe_stats::time::Duration;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbe_chaos_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two healthy points, one panicking point, one hanging point.
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
        SchemeChoice::named("CHAOS_HANG"),
    ])
    .expand()
}

fn tight_policy() -> ExecPolicy {
    ExecPolicy {
        deadline: Some(std::time::Duration::from_millis(300)),
    }
}

/// A poisoned sweep completes, quarantines the poison, and — after the store
/// is reopened as a fresh process would — skips the poison without
/// re-executing anything.
#[test]
fn quarantine_survives_a_reopen_and_nothing_reexecutes() {
    let root = temp_root("quarantine");
    let store_dir = root.join("store");

    {
        let mut store = ResultStore::open(&store_dir).unwrap();
        let run = run_cached_with(
            "fig_chaos",
            chaos_specs(),
            Some(&mut store),
            1,
            &tight_policy(),
        )
        .unwrap();
        assert_eq!(run.executed, 2, "both healthy points executed");
        assert_eq!(
            run.failures.len(),
            2,
            "both chaos points failed structurally"
        );
        assert!(run.failures.iter().any(|f| f.kind == FailureKind::Panic));
        assert!(run.failures.iter().any(|f| f.kind == FailureKind::Deadline));
    }

    // New process: reopen the store from disk.
    let mut store = ResultStore::open(&store_dir).unwrap();
    assert_eq!(store.quarantined().len(), 2, "quarantine persisted");
    let resumed = run_cached_with(
        "fig_chaos",
        chaos_specs(),
        Some(&mut store),
        1,
        &tight_policy(),
    )
    .unwrap();
    assert_eq!(
        (resumed.executed, resumed.cached),
        (0, 2),
        "resume serves the healthy points and re-executes nothing"
    );
    assert_eq!(resumed.failures.len(), 2, "poison reported, not re-run");

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
        deadline: None,
        verify: false,
        repair: false,
    }
}

fn verify_args(store: &Path, repair: bool) -> ArtifactArgs {
    ArtifactArgs {
        all: false,
        figures: Vec::new(),
        list: false,
        store: Some(store.to_path_buf()),
        out: None,
        seconds: Some(1),
        workers: 1,
        format: OutputFormat::Csv,
        deadline: None,
        verify: true,
        repair,
    }
}

/// `artifact verify` fails on a corrupted blob; `--repair` re-executes
/// exactly that key and restores a clean store.
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

    // Health check: verify without --repair fails.
    assert!(run_artifact(&verify_args(&store_dir, false)).is_err());

    // Repair: exactly the corrupted key re-executes.
    let repaired = run_artifact(&verify_args(&store_dir, true)).unwrap();
    assert_eq!(
        (repaired.executed, repaired.failed),
        (1, 0),
        "repair re-executed exactly the corrupted point"
    );

    // The store is clean again and a figure run is all cache hits.
    assert!(run_artifact(&verify_args(&store_dir, false)).is_ok());
    let warm = run_artifact(&figure_args(&store_dir, &root.join("warm"))).unwrap();
    assert_eq!((warm.executed, warm.cached), (0, POINTS));

    fs::remove_dir_all(&root).unwrap();
}
