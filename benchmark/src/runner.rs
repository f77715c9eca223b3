//! Running the program under test: one guarded simulation, one sweep pass.

use crate::checks::{
    check_result, goodput_mbps, interquartile_mean_ms, p95_delay_ms, result_digest,
};
use crate::metrics::Report;
use pbe_bench::artifact::figures::render_stationary;
use pbe_bench::artifact::{run_cached, CachedRun, ResultStore};
use pbe_bench::sweep::{OutputFormat, ReportWriter, ScenarioSpec, SweepReport};
use pbe_netsim::{SimConfig, SimResult, Simulation};
use pbe_stats::pool::panic_message;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Registry name the sweep's points are stored under.
const FIGURE: &str = "fig13_14_stationary";

/// Run a built simulation; a panic becomes an error string.
pub fn run_guarded(sim: &mut Simulation) -> Result<SimResult, String> {
    catch_unwind(AssertUnwindSafe(|| sim.run())).map_err(|p| panic_message(p.as_ref()))
}

/// Holds every iteration of a workload to one result digest.
#[derive(Debug, Default)]
pub struct DigestGuard {
    first: Option<String>,
}

impl DigestGuard {
    /// The digest every iteration agreed on (the first one seen).
    pub fn digest(&self) -> &str {
        self.first.as_deref().unwrap_or("")
    }

    /// Compare one more digest; returns the violation, if any.
    pub fn agree(&mut self, digest: String) -> Option<String> {
        match &self.first {
            None => {
                self.first = Some(digest);
                None
            }
            Some(first) if *first == digest => None,
            Some(first) => Some(format!(
                "result digest {digest} differs from {first} of an earlier iteration"
            )),
        }
    }
}

/// Check one iteration's outcome and count it in the report.
pub fn account(
    report: &mut Report,
    guard: &mut DigestGuard,
    cfg: &SimConfig,
    outcome: &Result<SimResult, String>,
) {
    let violations = match outcome {
        Ok(result) => {
            let mut v = check_result(cfg, result);
            v.extend(guard.agree(result_digest(result)));
            v
        }
        Err(panic) => vec![format!("simulation panicked: {panic}")],
    };
    report.attempt("run", violations);
}

/// A scratch directory under the benchmark's `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `out/tmp-<pid>`.
    pub fn new(out_dir: &Path) -> io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One cold pass of the grid into a fresh store, timed, then a warm pass
/// over the same store.  This is the path users re-run and what the output
/// checks and the `bench.*` per-layer metrics need; the end-to-end host time
/// is taken from [`unstored_pass`] instead.
pub struct SweepPass {
    /// Wall time of `ResultStore::open` + the cold `run_cached`, ms.
    pub cold_ms: f64,
    /// Wall time of the warm `run_cached`, ms.
    pub warm_ms: f64,
    /// Heap allocations of the cold pass (counted in the traced binary only).
    pub cold_allocs: u64,
    /// The cold pass.
    pub cold: CachedRun,
    /// The warm pass.
    pub warm: CachedRun,
}

/// Run the grid cold then warm, serially, through the artifact executor.
pub fn sweep_pass(specs: &[ScenarioSpec], store_dir: PathBuf) -> io::Result<SweepPass> {
    let _ = std::fs::remove_dir_all(&store_dir);
    let cold_specs = specs.to_vec();
    let warm_specs = specs.to_vec();
    let allocs = alloc_counter::allocation_count();
    let started = Instant::now();
    let mut store = ResultStore::open(&store_dir)?;
    let cold = run_cached(FIGURE, cold_specs, Some(&mut store), 1)?;
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    let cold_allocs = alloc_counter::allocation_count() - allocs;
    let started = Instant::now();
    let warm = run_cached(FIGURE, warm_specs, Some(&mut store), 1)?;
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(SweepPass {
        cold_ms,
        warm_ms,
        cold_allocs,
        cold,
        warm,
    })
}

/// One pass of the grid through the same executor with nothing persisted:
/// content keys, guarded execution and aggregation, but no file system.
/// Returns the pass's wall time in milliseconds.
///
/// This is what `host_ms_per_sim_s` times.  A stored pass creates, renames
/// and unlinks a few hundred files, and thirty passes a run wear this
/// sandbox's ext4 journal down: the time the executor spent *waiting* in
/// `insert` grew from 29 ms to 118 ms per pass over ten consecutive
/// processes while the simulations' own time held within 5 %, and recovered
/// after minutes of idling (README, "Noise study").  That is the disk's
/// history, not the program's speed.
pub fn unstored_pass(specs: &[ScenarioSpec]) -> io::Result<(f64, CachedRun)> {
    let specs = specs.to_vec();
    let started = Instant::now();
    let run = run_cached(FIGURE, specs, None, 1)?;
    Ok((started.elapsed().as_secs_f64() * 1e3, run))
}

/// FNV-1a of the deterministic part of a sweep report.
pub fn sweep_digest(report: &SweepReport) -> String {
    pbe_stats::fnv1a_128_hex(report.deterministic_json().as_bytes())
}

fn account_failures(report: &mut Report, run: &CachedRun) {
    for failure in &run.failures {
        report.attempt(
            "sweep point",
            vec![format!("{}: {}", failure.label, failure.message)],
        );
    }
}

/// Check a pass in which nothing may come from a store and count its
/// points: each executes and obeys the per-run laws, and the pass agrees
/// with every other pass's digest.  Returns that digest.
pub fn account_cold(
    report: &mut Report,
    guard: &mut DigestGuard,
    specs: &[ScenarioSpec],
    run: &CachedRun,
) -> String {
    let n = specs.len();
    account_failures(report, run);
    for outcome in &run.report.outcomes {
        report.attempt(
            "sweep point",
            check_result(&outcome.spec.sim_config(), &outcome.result),
        );
    }
    let mut violations = Vec::new();
    if run.executed != n || run.cached != 0 {
        violations.push(format!(
            "cold pass executed {} and served {} of {n} points",
            run.executed, run.cached
        ));
    }
    let digest = sweep_digest(&run.report);
    violations.extend(guard.agree(digest.clone()));
    report.attempt("cold pass", violations);
    digest
}

/// Check a stored pass and count its points: the cold half as
/// [`account_cold`] does, then every warm point is a cache hit and both
/// halves report the same results.
pub fn account_sweep(
    report: &mut Report,
    guard: &mut DigestGuard,
    specs: &[ScenarioSpec],
    pass: &SweepPass,
) {
    let n = specs.len();
    let cold_digest = account_cold(report, guard, specs, &pass.cold);
    account_failures(report, &pass.warm);
    // Each warm point is its own attempt: one that re-executes is a failure.
    let rerun = pass.warm.executed.min(n);
    for i in 0..n {
        let violation = (i < rerun).then(|| "warm pass re-executed a stored point".to_string());
        report.attempt("warm point", violation.into_iter().collect());
    }
    let mut warm_violations = Vec::new();
    if pass.warm.cached != n {
        warm_violations.push(format!(
            "warm pass served {} of {n} points from the store",
            pass.warm.cached
        ));
    }
    if sweep_digest(&pass.warm.report) != cold_digest {
        warm_violations.push("warm pass results differ from the cold pass".to_string());
    }
    report.attempt("warm pass", warm_violations);
}

/// Render the stationary figure as CSV into `dir`; returns wall time, ms.
pub fn render_csv(report: &SweepReport, dir: &Path) -> io::Result<f64> {
    let started = Instant::now();
    let writer = ReportWriter::new(OutputFormat::Csv, Some(dir.to_path_buf()))?;
    render_stationary(report, 2, &writer)?;
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// True when two directories hold the same files with the same bytes.
pub fn same_files(a: &Path, b: &Path) -> io::Result<bool> {
    let list = |dir: &Path| -> io::Result<Vec<(String, Vec<u8>)>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            files.push((
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path())?,
            ));
        }
        files.sort();
        Ok(files)
    };
    Ok(list(a)? == list(b)?)
}

/// One scheme's mean goodput (Mbit/s) and interquartile-mean p95 delay (ms) over the
/// sweep's points — for PBE and BBR, the paper's headline comparison.
pub fn sweep_stats(report: &SweepReport, scheme: &str) -> (f64, f64) {
    let points: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.scheme == scheme)
        .collect();
    let goodput = points
        .iter()
        .map(|o| goodput_mbps(&o.spec.sim_config(), &o.result))
        .sum::<f64>()
        / points.len().max(1) as f64;
    let p95 = interquartile_mean_ms(points.iter().map(|o| p95_delay_ms(&o.result)).collect());
    (goodput, p95)
}
