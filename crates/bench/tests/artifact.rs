//! Artifact-pipeline regression tests: resume after an interrupted run,
//! point-level cache invalidation and the repeatability of the figures that
//! run no simulation, asserted through the public
//! `run_artifact` entry point (the same code path as `pbe-bench artifact`).

use pbe_bench::artifact::{run_artifact, ArtifactArgs};
use pbe_bench::sweep::OutputFormat;
use std::fs;
use std::path::{Path, PathBuf};

const FIGURE: &str = "fig20_multi_connection";
const POINTS: usize = 8; // one scenario × eight schemes

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbe_artifact_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(store: &Path, out: &Path) -> ArtifactArgs {
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
        retries: 0,
        verify: false,
        repair: false,
    }
}

/// Read every report file of an output directory as (name, bytes), sorted.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{} produced report files", dir.display());
    files
}

/// Interrupt recovery: truncating the manifest's last K lines (what a kill
/// mid-run leaves behind) makes the next invocation execute exactly those K
/// points — and the final CSVs are byte-identical to the uninterrupted
/// run's.  Deleting a single blob afterwards re-executes exactly that point.
#[test]
fn resume_executes_only_the_missing_points_and_reproduces_the_csvs() {
    let root = temp_root("resume");
    let store = root.join("store");

    // Full run: every point executes exactly once.
    let full = run_artifact(&args(&store, &root.join("full"))).unwrap();
    assert_eq!((full.executed, full.cached), (POINTS, 0));
    let baseline = dir_contents(&root.join("full"));

    // Simulate an interrupted run by dropping the manifest's last K lines.
    const K: usize = 3;
    let manifest_path = store.join("manifest.jsonl");
    let manifest = fs::read_to_string(&manifest_path).unwrap();
    let lines: Vec<&str> = manifest.lines().collect();
    assert_eq!(lines.len(), POINTS);
    let kept = lines[..POINTS - K].join("\n");
    fs::write(&manifest_path, format!("{kept}\n")).unwrap();

    let resumed = run_artifact(&args(&store, &root.join("resumed"))).unwrap();
    assert_eq!(
        (resumed.executed, resumed.cached),
        (K, POINTS - K),
        "a resume executes exactly the truncated points"
    );
    assert_eq!(
        dir_contents(&root.join("resumed")),
        baseline,
        "resumed CSVs are byte-identical to the uninterrupted run"
    );

    // Deleting one stored blob invalidates exactly that point.
    let manifest = fs::read_to_string(&manifest_path).unwrap();
    let first_key = manifest
        .lines()
        .next()
        .and_then(|line| {
            let v = serde_json::parse(line).ok()?;
            Some(v.get("key")?.as_str()?.to_string())
        })
        .expect("manifest line has a key");
    fs::remove_file(store.join("points").join(format!("{first_key}.json"))).unwrap();

    let repaired = run_artifact(&args(&store, &root.join("repaired"))).unwrap();
    assert_eq!(
        (repaired.executed, repaired.cached),
        (1, POINTS - 1),
        "deleting one blob re-executes exactly that point"
    );
    assert_eq!(dir_contents(&root.join("repaired")), baseline);

    fs::remove_dir_all(&root).unwrap();
}

/// The figures that run no simulation compute their tables in the renderer,
/// outside the store's reach: two runs must still write the same bytes.
#[test]
fn figures_without_a_simulation_render_the_same_bytes_twice() {
    let root = temp_root("no_sim");
    for run in ["a", "b"] {
        run_artifact(&ArtifactArgs {
            figures: ["fig6_overhead", "fig7_active_users", "fig11_cell_status"]
                .map(String::from)
                .to_vec(),
            store: None,
            ..args(&root, &root.join(run))
        })
        .unwrap();
    }
    assert_eq!(dir_contents(&root.join("a")), dir_contents(&root.join("b")));
    fs::remove_dir_all(&root).unwrap();
}
