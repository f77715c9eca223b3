//! The artifact pipeline: the one way to run a figure, with a
//! content-addressed result store so re-runs only execute what changed.
//!
//! ```text
//! pbe-bench artifact --all --store results/ --out figures/
//! pbe-bench artifact --figure fig16_17_mobility --seconds 4 --store results/
//! pbe-bench artifact --figure table1 --format text
//! pbe-bench artifact --list
//! pbe-bench artifact verify --store results/
//! ```
//!
//! The pipeline is three orthogonal pieces:
//!
//! * [`mod@registry`] — every figure and table of the evaluation as a
//!   [`FigureSpec`]: a grid builder (`fn(seconds) -> SweepGrid`) plus a
//!   renderer (`fn(&SweepReport, seconds, &ReportWriter)`).
//! * [`store`] — the on-disk [`ResultStore`]: one JSON blob per executed
//!   grid point, addressed by the spec's
//!   [content key](crate::sweep::ScenarioSpec::content_key), joined by an
//!   append-only `manifest.jsonl`.
//! * [`exec`] — [`run_cached`]: expand the grid, serve every point whose key
//!   is present and whose blob passes the store's integrity rule, execute and
//!   persist the rest.
//!
//! Because the key is a canonical content hash of the expanded spec, the
//! cache is invalidated by *meaning*, not by text: editing a figure's grid
//! (different seed, duration, load profile…) changes the keys and exactly
//! those points re-run, while reordering fields or spelling out serde
//! defaults changes nothing.  Simulation counts go to stderr; stdout stays
//! byte-identical run to run, which is what the cache-equivalence tests and
//! the CI smoke job `cmp` against.
//!
//! A stored blob that fails its manifest checksum is a miss like an absent
//! one, so an ordinary run of its figure re-executes exactly that point.
//! `artifact verify` applies the same rule to the whole store and only
//! reports: it runs nothing.

pub mod exec;
pub mod figures;
pub mod registry;
pub mod store;

pub use exec::{run_cached, CachedRun};
pub use registry::{find, registry, FigureSpec};
pub use store::{ManifestEntry, PointFailure, ResultStore, StoreIssue, StoredPoint};

use crate::sweep::{OutputFormat, ReportWriter};
use std::io;
use std::path::{Path, PathBuf};

/// Usage string of the `artifact` subcommand.
pub const USAGE: &str = "usage: pbe-bench artifact (--all | --figure NAME)... [--list] \
[--store DIR] [--out DIR] [--seconds N] [--workers N] [--serial] [--format text|csv|json]\n\
       pbe-bench artifact verify --store DIR";

/// Parsed command line of `pbe-bench artifact`.
#[derive(Debug, Clone)]
pub struct ArtifactArgs {
    /// Run every registered figure.
    pub all: bool,
    /// Explicit figure names (used when `all` is false).
    pub figures: Vec<String>,
    /// Print the registry and exit.
    pub list: bool,
    /// Result-store directory (no caching when absent).
    pub store: Option<PathBuf>,
    /// Report output directory (stdout when absent).
    pub out: Option<PathBuf>,
    /// Override every figure's per-scenario duration.
    pub seconds: Option<u64>,
    /// Worker threads; 0 means all available cores.
    pub workers: usize,
    /// Table output format (CSV by default — artifact output is plot input).
    pub format: OutputFormat,
    /// `verify` subcommand: check every stored blob against its manifest
    /// checksum instead of running figures.
    pub verify: bool,
}

impl ArtifactArgs {
    /// Parse the arguments following `pbe-bench artifact`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = ArtifactArgs {
            all: false,
            figures: Vec::new(),
            list: false,
            store: None,
            out: None,
            seconds: None,
            workers: 0,
            format: OutputFormat::Csv,
            verify: false,
        };
        let mut it = args.iter();
        if args.first().map(String::as_str) == Some("verify") {
            parsed.verify = true;
            it.next();
        }
        // Every flag given, under its long name: `verify` refuses all but
        // `--store`.
        let mut given: Vec<&str> = Vec::new();
        while let Some(arg) = it.next() {
            let flag = match arg.as_str() {
                "-o" => "--out",
                "-w" => "--workers",
                "-f" => "--format",
                other => other,
            };
            given.push(flag);
            let mut value_of = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag {
                "--all" => parsed.all = true,
                "--list" => parsed.list = true,
                "--figure" => parsed.figures.push(value_of("--figure")?),
                "--store" => parsed.store = Some(PathBuf::from(value_of("--store")?)),
                "--out" => parsed.out = Some(PathBuf::from(value_of("--out")?)),
                "--seconds" => {
                    parsed.seconds = Some(
                        value_of("--seconds")?
                            .parse()
                            .ok()
                            .filter(|s: &u64| *s > 0)
                            .ok_or_else(|| "--seconds expects a positive integer".to_string())?,
                    )
                }
                "--workers" => {
                    parsed.workers = value_of("--workers")?
                        .parse()
                        .map_err(|_| "--workers expects a count".to_string())?
                }
                "--serial" => parsed.workers = 1,
                "--format" => {
                    parsed.format = match value_of("--format")?.as_str() {
                        "text" => OutputFormat::Text,
                        "csv" => OutputFormat::Csv,
                        "json" => OutputFormat::Json,
                        other => {
                            return Err(format!("--format takes text, csv or json, not {other:?}"))
                        }
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if parsed.verify {
            if parsed.store.is_none() {
                return Err("artifact verify needs --store DIR".into());
            }
            if let Some(flag) = given.into_iter().find(|&f| f != "--store") {
                return Err(format!(
                    "artifact verify checks the whole store and runs nothing: {flag} does not \
                     apply"
                ));
            }
        } else if !parsed.list && !parsed.all && parsed.figures.is_empty() {
            return Err("pick figures with --all or --figure NAME (or --list to see them)".into());
        }
        Ok(parsed)
    }

    /// The figures this invocation runs, in registry order.
    pub fn selected(&self) -> Result<Vec<FigureSpec>, String> {
        if self.all {
            return Ok(registry());
        }
        let mut selected = Vec::new();
        for name in &self.figures {
            match find(name) {
                Some(fig) => {
                    if !selected.iter().any(|f: &FigureSpec| f.name == fig.name) {
                        selected.push(fig);
                    }
                }
                None => {
                    let known: Vec<&str> = registry().iter().map(|f| f.name).collect();
                    return Err(format!(
                        "unknown figure `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
        Ok(selected)
    }
}

/// Aggregate accounting of one `pbe-bench artifact` invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtifactSummary {
    /// Figures rendered.
    pub figures: usize,
    /// Grid points that simulated in this invocation.
    pub executed: usize,
    /// Grid points served from the result store.
    pub cached: usize,
    /// Grid points that panicked or were skipped as quarantined; each is
    /// reported on stderr as a structured failure.
    pub failed: usize,
}

/// Run the selected figures: expand, execute-or-serve, render.
///
/// Returns the invocation's cache accounting; the same numbers go to stderr
/// (stdout carries only report data, so two invocations with a warm store
/// stay byte-identical).
pub fn run_artifact(args: &ArtifactArgs) -> io::Result<ArtifactSummary> {
    if args.verify {
        let dir = args.store.as_deref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "artifact verify needs --store DIR",
            )
        })?;
        return verify_store(dir);
    }
    let figures = args
        .selected()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if args.list {
        for fig in registry() {
            println!(
                "{:<24} {} (default {} s)",
                fig.name, fig.title, fig.default_seconds
            );
        }
        return Ok(ArtifactSummary::default());
    }

    let mut store = match &args.store {
        Some(dir) => Some(ResultStore::open(dir)?),
        None => None,
    };
    let writer = ReportWriter::new(args.format, args.out.clone())?;
    let mut summary = ArtifactSummary::default();
    for fig in &figures {
        let seconds = args.seconds.unwrap_or(fig.default_seconds);
        let specs = (fig.grid)(seconds).expand();
        let run = run_cached(fig.name, specs, store.as_mut(), args.workers)?;
        eprintln!(
            "artifact: {}: executed {} simulation(s), {} cache hit(s)",
            fig.name, run.executed, run.cached
        );
        report_failures(&run.failures);
        if writer.wants_json() {
            writer.sweep_json(fig.name, &run.report)?;
        } else {
            (fig.render)(&run.report, seconds, &writer)?;
        }
        summary.figures += 1;
        summary.executed += run.executed;
        summary.cached += run.cached;
        summary.failed += run.failures.len();
    }
    eprintln!(
        "artifact: executed {} simulation(s), {} cache hit(s), {} failure(s) across {} figure(s)",
        summary.executed, summary.cached, summary.failed, summary.figures
    );
    Ok(summary)
}

/// Print each point failure as one structured stderr line.
fn report_failures(failures: &[PointFailure]) {
    for f in failures {
        eprintln!(
            "artifact: FAILED {} [{}] scheme={} seed={}: panic: {}",
            f.label, f.key, f.scheme, f.seed, f.message
        );
    }
}

/// `pbe-bench artifact verify --store DIR`: apply the store's integrity rule
/// to every stored blob.
///
/// A health check that runs nothing: each blob a figure run would refuse is
/// listed on stderr and the invocation fails, so CI can gate on store
/// integrity.  The next run of a refused point's figure re-executes exactly
/// that point.
fn verify_store(dir: &Path) -> io::Result<ArtifactSummary> {
    let store = ResultStore::open(dir)?;
    let issues = store.verify();
    for issue in &issues {
        eprintln!(
            "artifact verify: BAD {} (figure {}): {}",
            issue.key, issue.figure, issue.problem
        );
    }
    if !issues.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} corrupted point(s) in {}: re-run their figures to re-execute exactly \
                 them, or delete points/<key>.json of a key no current grid holds",
                issues.len(),
                dir.display()
            ),
        ));
    }
    eprintln!(
        "artifact verify: {} point(s), every blob clean",
        store.len()
    );
    Ok(ArtifactSummary::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<ArtifactArgs, String> {
        let owned: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        ArtifactArgs::parse(&owned)
    }

    #[test]
    fn parses_the_full_flag_set() {
        let a = parse(&[
            "--figure",
            "fig21_fairness",
            "--figure",
            "fig16_17_mobility",
            "--store",
            "/tmp/s",
            "--out",
            "/tmp/o",
            "--seconds",
            "4",
            "--serial",
            "--format",
            "text",
        ])
        .unwrap();
        assert!(!a.all);
        assert_eq!(a.figures.len(), 2);
        assert_eq!(a.store.as_deref(), Some(std::path::Path::new("/tmp/s")));
        assert_eq!(a.seconds, Some(4));
        assert_eq!(a.workers, 1);
        assert_eq!(a.format, OutputFormat::Text);
        let names: Vec<&str> = a.selected().unwrap().iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["fig21_fairness", "fig16_17_mobility"]);
    }

    #[test]
    fn all_selects_the_whole_registry_in_order() {
        let a = parse(&["--all"]).unwrap();
        assert_eq!(a.selected().unwrap().len(), 16);
        assert_eq!(a.format, OutputFormat::Csv, "artifact defaults to CSV");
    }

    #[test]
    fn rejects_an_empty_selection_and_unknown_figures() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--all", "--seconds", "0"]).is_err());
        assert!(parse(&["--all", "--seconds", "abc"]).is_err());
        let a = parse(&["--figure", "fig99_nope"]).unwrap();
        assert!(a.selected().is_err());
    }

    #[test]
    fn parses_the_verify_subcommand_and_rejects_figure_flags_under_it() {
        let a = parse(&["verify", "--store", "/tmp/s"]).unwrap();
        assert!(a.verify);
        assert_eq!(a.store.as_deref(), Some(std::path::Path::new("/tmp/s")));
        // verify needs a store.
        assert!(parse(&["verify"]).is_err());
        // verify checks the whole store and runs nothing, so every other
        // flag would be silently ignored: each is refused instead, and
        // `--repair` is no flag at all.
        for extra in [
            &["--all"][..],
            &["--figure", "table1"],
            &["--list"],
            &["--out", "/tmp/o"],
            &["--format", "json"],
            &["-f", "csv"],
            &["--seconds", "2"],
            &["--workers", "2"],
            &["-w", "0"],
            &["--serial"],
        ] {
            let mut line = vec!["verify", "--store", "/tmp/s"];
            line.extend_from_slice(extra);
            let err = parse(&line).expect_err("verify with a figure flag");
            assert!(err.contains("does not apply"), "{err}");
        }
        for line in [
            &["verify", "--store", "/tmp/s", "--repair"][..],
            &["--all", "--store", "/tmp/s", "--repair"],
        ] {
            let err = parse(line).expect_err("--repair");
            assert_eq!(err, "unknown argument `--repair`");
        }
    }
}
