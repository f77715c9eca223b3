//! The suite: every workload in a child process of its own, timed then
//! traced; `--self-check` (A/A) and `--sensitivity` (a deliberate slowdown
//! must be caught and attributed) are built from the same child runs.
//!
//! A child per workload is what makes `peak_rss_mb` the workload's own
//! (`VmHWM` never goes down within a process) and keeps one workload's
//! allocator state out of the next one's timings.

use crate::cli::Args;
use crate::metrics::{object, text, END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Injected slowdown of `--sensitivity`, as a share of the run's time.
const BURN: f64 = 0.10;
/// The rise in `host_ms_per_sim_s` that counts as "caught".
const CAUGHT: std::ops::RangeInclusive<f64> = 0.06..=0.14;

/// What one child run printed.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// The record's `correct`.
    pub correct: bool,
    /// The record's `attempted`.
    pub attempted: u64,
    /// The record's `failed`.
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
    /// `diag input_digest`, timed runs only.
    pub input_digest: String,
    /// `diag result_digest`, timed runs only.
    pub result_digest: String,
    /// `diag unburned <metric> <value>`: under a burn, what the interleaved
    /// passes without it measured.
    pub unburned: Vec<(String, f64)>,
}

impl ChildRun {
    /// What the passes without the burn measured for a metric.
    pub fn unburned(&self, name: &str) -> f64 {
        self.unburned
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }
}

/// A JSON number of any of the three numeric variants.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Parse a child's standard output: `diag` lines, then the record.
pub fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut run = ChildRun::default();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if words.next() == Some("diag") {
            match (words.next(), words.next()) {
                (Some("input_digest"), Some(d)) => run.input_digest = d.to_string(),
                (Some("result_digest"), Some(d)) => run.result_digest = d.to_string(),
                (Some("unburned"), Some(name)) => {
                    let value = words.next().and_then(|v| v.parse().ok());
                    run.unburned
                        .push((name.to_string(), value.unwrap_or(f64::NAN)));
                }
                _ => {}
            }
        }
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let record = serde_json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let field = |name: &str| record.get(name).ok_or(format!("record lacks `{name}`"));
    run.correct = matches!(field("correct")?, Value::Bool(true));
    run.attempted = number(field("attempted")?).ok_or("`attempted` is not a number")? as u64;
    run.failed = number(field("failed")?).ok_or("`failed` is not a number")? as u64;
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?;
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(number)
            .ok_or(format!("metric {name} has no numeric value"))?;
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        run.metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok(run)
}

fn run_child(
    args: &Args,
    workload: &Workload,
    trace: bool,
    burn: f64,
) -> std::io::Result<ChildRun> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--burn", &burn.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    // A child that found something wrong exits non-zero but still prints its
    // record; one that printed none did not get that far.
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_child(&stdout).map_err(|e| {
        std::io::Error::other(format!(
            "{} ({}) exited with {}: {e}",
            workload.name,
            if trace { "traced" } else { "timed" },
            output.status
        ))
    })
}

fn print_metrics(workload: &Workload, run: &ChildRun) {
    for (name, value, unit) in &run.metrics {
        println!("{}/{name} {unit} {value}", workload.name);
    }
}

/// The digests `expected.json` pins for a workload at seed 1.
fn expected(dir: &Path, workload: &str) -> Option<(String, String)> {
    let text = std::fs::read_to_string(dir.join("expected.json")).ok()?;
    let entry = serde_json::parse(&text).ok()?;
    let entry = entry.get("workloads")?.get(workload)?;
    Some((
        entry.get("input_digest")?.as_str()?.to_string(),
        entry.get("result_digest")?.as_str()?.to_string(),
    ))
}

/// Compare a seed-1 run's digests with `expected.json`, reporting on stderr.
/// Returns the violation when the *inputs* changed: the workload is no longer
/// the one the baseline measured, so its numbers compare with nothing.
pub fn changed(dir: &Path, seed: u64, workload: &str, input: &str, result: &str) -> Option<String> {
    if seed != 1 {
        return None;
    }
    let Some((want_input, want_result)) = expected(dir, workload) else {
        eprintln!("{workload}: no entry in expected.json");
        return None;
    };
    if want_input != input {
        return Some(format!(
            "inputs_changed {workload}: expected {want_input}, generated {input}"
        ));
    }
    if want_result != result {
        // A deliberate behaviour change re-pins this; a speed-up must not
        // cause it.
        eprintln!("digest_changed {workload}: expected {want_result}, got {result}");
    }
    None
}

/// `results.json`: everything one suite invocation measured.
pub fn results_json(seed: u64, seconds: f64, runs: &[(&Workload, ChildRun, ChildRun)]) -> String {
    let workloads = runs.iter().map(|(workload, timed, traced)| {
        let end_to_end = END_TO_END.iter().map(|m| {
            let entry = object([
                ("value", Value::F64(timed.get(m.name))),
                ("unit", text(m.unit)),
                ("better", text(m.better)),
                ("bound", Value::F64(m.bound)),
            ]);
            (m.name, entry)
        });
        let per_layer = PER_LAYER.iter().map(|(name, unit, better)| {
            let entry = object([
                ("value", Value::F64(traced.get(name))),
                ("unit", text(unit)),
                ("better", text(better)),
            ]);
            (*name, entry)
        });
        let entry = object([
            ("correct", Value::Bool(timed.correct && traced.correct)),
            ("attempted", Value::U64(timed.attempted + traced.attempted)),
            ("failed", Value::U64(timed.failed + traced.failed)),
            ("input_digest", text(&timed.input_digest)),
            ("result_digest", text(&timed.result_digest)),
            ("end_to_end", object(end_to_end)),
            ("per_layer", object(per_layer)),
        ]);
        (workload.name, entry)
    });
    let doc = object([
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("workloads", object(workloads)),
    ]);
    serde_json::to_string_pretty(&doc).expect("values serialize") + "\n"
}

/// One pass of the timed suite.
fn timed_suite(args: &Args) -> std::io::Result<Vec<ChildRun>> {
    WORKLOADS
        .iter()
        .map(|w| run_child(args, w, false, 0.0))
        .collect()
}

/// A/A: the timed suite twice; every end-to-end metric of every workload
/// must agree within its own bound.
fn self_check(args: &Args) -> std::io::Result<bool> {
    let (a, b) = (timed_suite(args)?, timed_suite(args)?);
    let mut ok = true;
    for ((workload, a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        ok &= a.correct && b.correct;
        for m in END_TO_END {
            let (x, y) = (a.get(m.name), b.get(m.name));
            let spread = (x - y).abs() / x.min(y);
            // NaN (a missing metric) fails the comparison, as it should.
            let pass = spread <= m.bound;
            ok &= pass;
            println!(
                "self-check {}/{} {x} vs {y}: spread {:.2}% of bound {:.0}% {}",
                workload.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

/// A 10 % slowdown injected on `SubframeScheduled` must show as a 6–14 %
/// rise of `host_ms_per_sim_s`, leave the simulated metrics alone, and land
/// in `netsim.driver_residual_share`.
fn sensitivity(args: &Args) -> std::io::Result<bool> {
    let mut ok = true;
    for name in ["radio_dense", "pbe_city"] {
        let workload = crate::workloads::find(name).expect("workload exists");
        // One child, burned and plain samples interleaved: two separate runs
        // differ by the machine's own few per cent before any burn.
        let slow = run_child(args, workload, false, BURN)?;
        let rise = slow.get("host_ms_per_sim_s") / slow.unburned("host_ms_per_sim_s") - 1.0;
        let caught = CAUGHT.contains(&rise);
        // Burned and plain iterations share one digest guard: had the burn
        // moved a result, the run would have counted failures.
        let unmoved = slow.correct;
        println!(
            "sensitivity {name}: host_ms_per_sim_s rose {:.1}% ({}), simulated results {}",
            rise * 100.0,
            if caught { "caught" } else { "NOT within 6-14%" },
            if unmoved { "unmoved" } else { "MOVED" }
        );

        // Likewise one traced child, plain and burned passes interleaved.
        let traced = run_child(args, workload, true, BURN)?;
        let moved = |m: &str| traced.get(m) - traced.unburned(m);
        let residual = moved("netsim.driver_residual_share");
        // The replayed radio tick's nominal time is the same in both, so its
        // share falls exactly as the run grows: this is the share of the
        // slowed run that the traced child saw added.  Judging against that,
        // not against BURN, keeps the few passes a traced run has time for
        // (six of `pbe_city`, reading the slowdown as 4–16 %) out of the
        // verdict: at least half of what was added must show up in the
        // residual and in no other layer.
        let tick = "cellular.tick_share";
        let added = 1.0 - traced.get(tick) / traced.unburned(tick);
        let attributed = residual >= 0.5 * added
            && added > 0.0
            && [tick, "core.receiver_share", "cc.share"]
                .iter()
                .all(|m| moved(m) < residual / 2.0);
        println!(
            "sensitivity {name}: {added:.3} of the traced run added; driver_residual_share moved \
             {residual:+.3}, tick {:+.3}, receiver {:+.3}, cc {:+.3} ({})",
            moved(tick),
            moved("core.receiver_share"),
            moved("cc.share"),
            if attributed {
                "attributed"
            } else {
                "NOT attributed"
            }
        );
        ok &= caught && unmoved && attributed && traced.correct;
    }
    Ok(ok)
}

/// Run the suite (or one of its two checks).
pub fn main(args: &Args, dir: &Path) -> std::io::Result<ExitCode> {
    let verdict = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if args.self_check {
        return self_check(args).map(verdict);
    }
    if args.sensitivity {
        return sensitivity(args).map(verdict);
    }
    let mut ok = true;
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        let timed = run_child(args, workload, false, 0.0)?;
        print_metrics(workload, &timed);
        // Changed seed-1 inputs are among the child's failures.
        ok &= timed.correct;
        runs.push((workload, timed, ChildRun::default()));
    }
    for (workload, _, traced) in &mut runs {
        *traced = run_child(args, workload, true, 0.0)?;
        print_metrics(workload, traced);
        ok &= traced.correct;
    }
    std::fs::write(
        dir.join("out/results.json"),
        results_json(args.seed, args.seconds, &runs),
    )?;
    for (workload, timed, traced) in &runs {
        println!(
            "{}: {} attempted, {} failed",
            workload.name,
            timed.attempted + traced.attempted,
            timed.failed + traced.failed
        );
    }
    Ok(verdict(ok))
}
