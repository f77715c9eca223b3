//! The untraced run of one workload: the end-to-end metrics.

use crate::checks::{goodput_mbps, p95_delay_ms};
use crate::estimator::{estimate, estimate_timed, median, Estimate, Plan, Sample};
use crate::metrics::Report;
use crate::refkernel::{RefKernel, REF_NOMINAL_MS};
use crate::runner::{
    account, account_cold, account_sweep, render_csv, run_guarded, same_files, sweep_pass,
    sweep_stats, unstored_pass, DigestGuard, Scratch,
};
use crate::trace::plain_builder;
use crate::workloads::{Horizon, Input, Workload};
use pbe_bench::perf::peak_rss_kb;
use pbe_netsim::Simulation;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent timing set-up; the rest times the run itself.
const SETUP_SHARE: f64 = 0.2;
/// Most samples one estimate keeps, however much budget is left.
const MAX_SAMPLES: usize = 200;
/// Shortest timed sample: shorter units are batched up to this.
const MIN_SAMPLE_MS: f64 = 50.0;

/// What a timed run found besides its metrics: printed as diagnostics, and
/// compared with `expected.json` by the suite.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Digest of the generated input.
    pub input_digest: String,
    /// Digest every iteration's result agreed on.
    pub result_digest: String,
    /// Under a burn: `host_ms_per_sim_s` of the interleaved samples that did
    /// not carry it.
    pub unburned_host_ms_per_sim_s: Option<f64>,
    /// The host-time estimate, with its raw samples.
    pub host: Estimate,
    /// Simulated seconds per timed sample.
    pub sim_seconds_per_sample: f64,
}

/// Construction cost of one input: generate it with a one-subframe horizon
/// and run that subframe.
fn set_up_once(workload: &Workload, seed: u64) {
    match workload.input(seed, Horizon::OneSubframe) {
        Input::Sim(cfg) => {
            black_box(Simulation::new(*cfg).run());
        }
        Input::Sweep(specs) => {
            for spec in &specs {
                black_box(Simulation::new(spec.sim_config()).run());
            }
        }
    }
}

/// Normalised seconds one set-up takes.
pub fn measure_setup(kernel: &RefKernel, workload: &Workload, seed: u64, budget: Duration) -> f64 {
    // One untimed set-up warms the allocator and sizes the batch.
    let started = Instant::now();
    set_up_once(workload, seed);
    let once_ms = started.elapsed().as_secs_f64() * 1e3;
    let batch = ((MIN_SAMPLE_MS / once_ms.max(1e-3)).ceil() as usize).clamp(1, 10_000);
    let est = estimate_timed(kernel, Plan::within(5, MAX_SAMPLES, budget), || {
        for _ in 0..batch {
            set_up_once(workload, seed);
        }
    });
    est.normalised_ms() / batch as f64 / 1e3
}

/// Which samples of a burned run carry the burn: the odd ones.
fn burns(nth_sample: usize) -> bool {
    nth_sample % 2 == 1
}

/// Run one workload untraced for about `seconds` and report the end-to-end
/// metrics.  `burn` (0 outside `--sensitivity`) is the share of the run's
/// time a benchmark observer wastes on every subframe.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    burn: f64,
    out_dir: &Path,
) -> std::io::Result<(Report, Diagnostics)> {
    let kernel = RefKernel::new();
    let mut report = Report::default();
    let input = workload.input(seed, Horizon::Full);
    let input_digest = input.digest();
    let sim_seconds_per_sample = input.sim_seconds() * workload.passes_per_sample as f64;

    let setup_s = measure_setup(
        &kernel,
        workload,
        seed,
        Duration::from_secs_f64(seconds * SETUP_SHARE),
    );

    let plan = Plan::within(
        workload.min_samples,
        MAX_SAMPLES,
        Duration::from_secs_f64(seconds * (1.0 - SETUP_SHARE)),
    );
    let mut guard = DigestGuard::default();
    let (host, goodput, p95) = match &input {
        Input::Sim(cfg) => {
            let mut sim_metrics = (0.0, 0.0);
            let mut nth = 0usize;
            let host = estimate(
                plan,
                || kernel.run_ms(),
                || {
                    // Under `--sensitivity` only every other sample carries
                    // the burn, so the slowed and the plain median come from
                    // the same minutes of machine time.
                    let burn = if burns(nth) { burn } else { 0.0 };
                    nth += 1;
                    // Only the builder's own work (a configuration clone)
                    // stays outside the timer: `Simulation` constructs
                    // lazily, inside `run()`, so construction is part of
                    // this number as well as all of `setup_s`.
                    let mut sims: Vec<Simulation> = (0..workload.passes_per_sample)
                        .map(|_| plain_builder(cfg, burn).build())
                        .collect();
                    let started = Instant::now();
                    let outcomes: Vec<_> = sims.iter_mut().map(run_guarded).collect();
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    for outcome in &outcomes {
                        account(&mut report, &mut guard, cfg, outcome);
                        if let Ok(result) = outcome {
                            sim_metrics = (goodput_mbps(cfg, result), p95_delay_ms(result));
                        }
                    }
                    ms
                },
            );
            (host, sim_metrics.0, sim_metrics.1)
        }
        Input::Sweep(specs) => {
            // Once, untimed: the grid through a fresh store, cold then warm,
            // which is what the output checks are about.
            let scratch = Scratch::new(out_dir)?;
            let stored = sweep_pass(specs, scratch.path("store"))?;
            account_sweep(&mut report, &mut guard, specs, &stored);
            let (cold, warm) = (scratch.path("csv-cold"), scratch.path("csv-warm"));
            let same = render_csv(&stored.cold.report, &cold)
                .and_then(|_| render_csv(&stored.warm.report, &warm))
                .and_then(|_| same_files(&cold, &warm));
            let violation = match same {
                Ok(true) => None,
                Ok(false) => Some("warm CSV differs from cold CSV".to_string()),
                Err(e) => Some(format!("rendering failed: {e}")),
            };
            report.attempt("render", violation.into_iter().collect());
            let sim_metrics = sweep_stats(&stored.cold.report, "PBE");

            // Timed: the same grid through the same executor, nothing
            // persisted (see `unstored_pass` for why the disk stays out).
            let mut io_error = None;
            let host = estimate(
                plan,
                || kernel.run_ms(),
                || match unstored_pass(specs) {
                    Ok((ms, run)) => {
                        account_cold(&mut report, &mut guard, specs, &run);
                        ms
                    }
                    Err(e) => {
                        io_error = Some(e);
                        f64::NAN
                    }
                },
            );
            if let Some(e) = io_error {
                return Err(e);
            }
            (host, sim_metrics.0, sim_metrics.1)
        }
    };

    let (host_ms, unburned_ms) = if burn > 0.0 {
        let plain = host.samples.iter().filter(|s| !burns(s.taken));
        let plain_ms = median(plain.map(Sample::ratio)) * REF_NOMINAL_MS;
        // Two samples taken one after the other, one burned and one plain,
        // saw the same machine: over ten runs the median of their quotients
        // spread 1.1–1.8 points, the quotient of two medians 2.1–2.8.
        let neighbours = host.samples.windows(2);
        let quotients: Vec<f64> = neighbours
            .filter(|pair| pair[1].taken == pair[0].taken + 1)
            .map(|pair| {
                let quotient = pair[1].ratio() / pair[0].ratio();
                if burns(pair[1].taken) {
                    quotient
                } else {
                    1.0 / quotient
                }
            })
            .collect();
        let slowdown = if quotients.is_empty() {
            f64::NAN
        } else {
            median(quotients.into_iter())
        };
        (plain_ms * slowdown, Some(plain_ms))
    } else {
        (host.normalised_ms(), None)
    };
    report.set("host_ms_per_sim_s", host_ms / sim_seconds_per_sample);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_kb() as f64 / 1024.0);
    report.set("sim_goodput_mbps", goodput);
    report.set("sim_p95_delay_ms", p95);
    let diagnostics = Diagnostics {
        input_digest,
        result_digest: guard.digest().to_string(),
        unburned_host_ms_per_sim_s: unburned_ms.map(|ms| ms / sim_seconds_per_sample),
        host,
        sim_seconds_per_sample,
    };
    Ok((report, diagnostics))
}
