//! Artifact-pipeline regression tests: resume after an interrupted run,
//! point-level cache invalidation, the repeatability of the figures that
//! run no simulation and the Fig. 19 competitor column, asserted through the
//! public
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
        verify: false,
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
/// run's.  Deleting a single blob afterwards re-executes exactly that point,
/// and so does changing one digit of another: a blob that fails its
/// checksum is a miss even though it still parses.
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
    let blob_of = |line: &str| {
        let v = serde_json::parse(line).expect("a manifest line parses");
        let key = v.get("key").and_then(|k| k.as_str()).expect("a key");
        store.join("points").join(format!("{key}.json"))
    };
    let mut lines = manifest.lines();
    fs::remove_file(blob_of(lines.next().unwrap())).unwrap();

    // Changing one digit of a second blob, which still parses, invalidates
    // that point too.
    let second = blob_of(lines.next().unwrap());
    let blob = fs::read_to_string(&second).unwrap();
    let field = "\"avg_throughput_mbps\":";
    let at = blob.find(field).expect("a result has a throughput") + field.len();
    let digit = blob.as_bytes()[at];
    assert!(digit.is_ascii_digit(), "the value starts with a digit");
    let other = if digit == b'9' {
        '8'
    } else {
        char::from(digit + 1)
    };
    let changed = format!("{}{other}{}", &blob[..at], &blob[at + 1..]);
    assert!(
        serde_json::parse(&changed).is_ok(),
        "the changed blob parses"
    );
    fs::write(&second, changed).unwrap();

    let repaired = run_artifact(&args(&store, &root.join("repaired"))).unwrap();
    assert_eq!(
        (repaired.executed, repaired.cached),
        (2, POINTS - 2),
        "the deleted and the changed blob re-execute, and only they"
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

/// Fig. 19 marks the competitor "on" exactly while a competitor flow runs.
/// At 14 s the grid schedules one burst, 4–8 s: the 12–14 s stretch, where
/// an every-other-4-s rule would also say "on", has no competitor at all.
#[test]
fn fig19_marks_the_competitor_on_only_while_it_runs() {
    let root = temp_root("fig19");
    let out = root.join("out");
    run_artifact(&ArtifactArgs {
        figures: vec!["fig18_19_competition".to_string()],
        store: None,
        seconds: Some(14),
        ..args(&root, &out)
    })
    .unwrap();
    let csv = fs::read_to_string(out.join("fig19_timeline.csv")).unwrap();
    let mut rows = 0;
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        let t: f64 = cols[0].parse().unwrap();
        let expected = if (4.0..8.0).contains(&t) { "on" } else { "" };
        assert_eq!(cols[1], expected, "competitor column at t = {t} s");
        rows += 1;
    }
    assert_eq!(rows, 70, "one row per 200 ms over 14 s");
    fs::remove_dir_all(&root).unwrap();
}
