//! Command line of the two benchmark binaries.
//!
//! `run.sh` builds both and starts `pbe-benchmark`.  With `--workload` it
//! runs that one workload in this process — untraced, or by handing over to
//! `pbe-benchmark-trace`, the binary with the counting allocator installed —
//! and prints the result record as its last line.  Without `--workload` it
//! is the suite: every workload in a child process of its own.

use crate::metrics::Report;
use crate::timed::Diagnostics;
use crate::workloads::{self, Workload};
use crate::{suite, timed, traced};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Default `--seconds` when none is given (the suite's per-run budget).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Which binary is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binary {
    /// `pbe-benchmark`: untraced runs and the suite.
    Timed,
    /// `pbe-benchmark-trace`: traced runs, counting allocator installed.
    Traced,
}

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload, or the whole suite when absent.
    pub workload: Option<&'static Workload>,
    /// Benchmark seed, mixed into every scenario seed.
    pub seed: u64,
    /// Measurement budget of one run, seconds.
    pub seconds: f64,
    /// Traced run instead of the timed one.
    pub trace: bool,
    /// Share of the run's time to waste per subframe (`--sensitivity` sets
    /// it on its children).
    pub burn: f64,
    /// A/A: run the timed suite twice and compare.
    pub self_check: bool,
    /// Inject a 10 % slowdown and check it is caught and attributed.
    pub sensitivity: bool,
}

const USAGE: &str = "usage: run.sh [--seed S] [--seconds N] \
[--workload NAME [--trace 0|1]] [--self-check] [--sensitivity]";

impl Args {
    /// Parse the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            burn: 0.0,
            self_check: false,
            sensitivity: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    parsed.workload = Some(workloads::find(&name).ok_or_else(|| {
                        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{name}` (known: {})", known.join(", "))
                    })?);
                }
                "--seed" => {
                    parsed.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects a whole number".to_string())?;
                }
                "--seconds" => {
                    parsed.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| "--seconds expects a number in (0, 600]".to_string())?;
                }
                "--trace" => {
                    parsed.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--burn" => {
                    parsed.burn = value("--burn")?
                        .parse()
                        .ok()
                        .filter(|b: &f64| (0.0..=1.0).contains(b))
                        .ok_or_else(|| "--burn expects a share in [0, 1]".to_string())?;
                }
                "--self-check" => parsed.self_check = true,
                "--sensitivity" => parsed.sensitivity = true,
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        Ok(parsed)
    }
}

/// The benchmark's own directory: where `run.sh` has just built this binary
/// from.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The sibling binary with the given name.
pub fn sibling(name: &str) -> std::io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    Ok(me.with_file_name(name))
}

fn print_diagnostics(workload: &Workload, d: &Diagnostics) {
    let per_s = d.sim_seconds_per_sample;
    println!("diag workload {}", workload.name);
    println!("diag input_digest {}", d.input_digest);
    println!("diag result_digest {}", d.result_digest);
    if let Some(unburned) = d.unburned_host_ms_per_sim_s {
        println!("diag unburned host_ms_per_sim_s {unburned}");
    }
    println!(
        "diag samples {} discarded {} ref_kernel_cv {:.4} machine_speed_index {:.4}",
        d.host.samples.len(),
        d.host.discarded,
        d.host.ref_cv(),
        d.host.machine_speed_index()
    );
    println!(
        "diag raw_host_ms_per_sim_s min {:.3} p50 {:.3}",
        d.host.raw_min_ms() / per_s,
        d.host.raw_p50_ms() / per_s
    );
    // The series themselves, so an estimator can be judged offline against
    // the very samples this run saw (README, "Noise study").
    let series = |values: &mut dyn Iterator<Item = f64>| {
        values
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "diag taken_ms {}",
        series(&mut d.host.taken_ms.iter().copied())
    );
    println!(
        "diag refs_ms {}",
        series(&mut d.host.refs_ms.iter().copied())
    );
}

/// Print the record; a run that found anything wrong (`correct: false`)
/// exits non-zero.
fn finish(report: &Report) -> ExitCode {
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point of both binaries.
pub fn main(binary: Binary) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let dir = benchmark_dir();
    let out_dir = dir.join("out");
    let outcome = (|| -> std::io::Result<ExitCode> {
        std::fs::create_dir_all(&out_dir)?;
        let Some(workload) = args.workload else {
            return suite::main(&args, &dir);
        };
        match (binary, args.trace) {
            (Binary::Timed, false) => {
                let (mut report, diagnostics) =
                    timed::run(workload, args.seed, args.seconds, args.burn, &out_dir)?;
                print_diagnostics(workload, &diagnostics);
                // Changed inputs are a failed operation: the numbers of this
                // run compare with nothing the baseline measured.
                let changed = suite::changed(
                    &dir,
                    args.seed,
                    workload.name,
                    &diagnostics.input_digest,
                    &diagnostics.result_digest,
                );
                report.attempt("inputs", changed.into_iter().collect());
                Ok(finish(&report))
            }
            (Binary::Traced, true) => {
                let (report, unburned) =
                    traced::run(workload, args.seed, args.seconds, args.burn, &out_dir)?;
                for (name, value) in unburned {
                    println!("diag unburned {name} {value}");
                }
                Ok(finish(&report))
            }
            (Binary::Timed, true) => {
                // The counting allocator lives in the other binary only, so
                // the timed runs never pay for it.
                let status = Command::new(sibling("pbe-benchmark-trace")?)
                    .args(&raw)
                    .status()?;
                Ok(if status.success() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            (Binary::Traced, false) => {
                eprintln!("pbe-benchmark-trace only runs with --trace 1");
                Ok(ExitCode::from(2))
            }
        }
    })();
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        ExitCode::FAILURE
    })
}
