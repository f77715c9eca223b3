//! The speed-normalised host-time estimator.
//!
//! Every timed sample is bracketed `ref, sample, ref` by the frozen
//! [reference kernel](crate::refkernel); the trailing reference of one sample
//! is the leading reference of the next.  A sample's ratio is
//! `sample / mean(ref_before, ref_after)`; a sample whose two references
//! differ by more than [`MAX_REF_DRIFT`] saw the machine change speed while
//! it ran, so its ratio means nothing and it is discarded and taken again.
//! The estimate is `median(ratio) × REF_NOMINAL_MS`.
//!
//! The estimator never reads a clock itself: it is handed two closures that
//! each run their work and return how long it took, in milliseconds.  The
//! benchmark passes real timers; the tests pass synthetic two-mode noise.

use crate::refkernel::{RefKernel, REF_NOMINAL_MS};
use std::time::{Duration, Instant};

/// Largest relative difference between a sample's two references before the
/// sample is discarded (a mode switch mid-sample).
pub const MAX_REF_DRIFT: f64 = 0.15;

/// Fewest kept samples an estimate waits for however long they take (or all
/// of `min_samples`, if that is fewer).
pub const FLOOR_SAMPLES: usize = 3;

/// How many samples to take, and for how long.
///
/// The budget is the time the run is asked to measure for.  A slow minute of
/// the machine — samples twice as long, half of them drifting — must not turn
/// a 20-second run into a minute: past the budget nothing is retaken, and past
/// twice the budget sampling ends even short of `min_samples`, as long as
/// [`FLOOR_SAMPLES`] are in hand.  The sample count is reported
/// (`bench.samples`, `diag samples`).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Kept samples wanted before the time budget may end the run.
    pub min_samples: usize,
    /// Kept samples at which the run ends even with budget left.
    pub max_samples: usize,
    /// Time budget.
    pub budget: Duration,
}

impl Plan {
    /// Exactly `n` kept samples, however long they take.
    pub fn exactly(n: usize) -> Self {
        Plan {
            min_samples: n,
            max_samples: n,
            budget: Duration::MAX,
        }
    }

    /// Between `min` and `max` kept samples, as many as `budget` allows.
    pub fn within(min: usize, max: usize, budget: Duration) -> Self {
        Plan {
            min_samples: min,
            max_samples: max.max(min),
            budget,
        }
    }

    /// Whether another sample is wanted with `kept` in hand after `elapsed`.
    fn wants_more(&self, kept: usize, elapsed: Duration) -> bool {
        kept < self.max_samples
            && (elapsed < self.budget
                || kept < self.min_samples.min(FLOOR_SAMPLES)
                || (kept < self.min_samples && elapsed < self.budget.saturating_mul(2)))
    }
}

/// One kept sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Raw time of the sample, milliseconds.
    pub raw_ms: f64,
    /// Mean of the two bracketing reference times, milliseconds.
    pub ref_ms: f64,
    /// How many samples were taken before this one, discarded ones
    /// included: pairs a kept sample with whatever else its closure recorded.
    pub taken: usize,
}

impl Sample {
    /// `raw / ref`: the sample in units of the reference kernel.
    pub fn ratio(&self) -> f64 {
        self.raw_ms / self.ref_ms
    }

    /// Factor that converts a raw duration measured inside this sample to
    /// the nominal machine.
    pub fn speed_factor(&self) -> f64 {
        REF_NOMINAL_MS / self.ref_ms
    }
}

/// The outcome of one estimation.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Kept samples, in the order taken.
    pub samples: Vec<Sample>,
    /// Samples discarded and retaken because their references disagreed.
    pub discarded: usize,
    /// Every reference time measured, milliseconds.
    pub refs_ms: Vec<f64>,
    /// Every sample taken, discarded ones included, milliseconds:
    /// `taken_ms[i]` ran between `refs_ms[i]` and `refs_ms[i + 1]`.
    pub taken_ms: Vec<f64>,
}

impl Estimate {
    /// `median(ratio) × REF_NOMINAL_MS`: the sample's time on the nominal
    /// machine, milliseconds.
    pub fn normalised_ms(&self) -> f64 {
        median(self.samples.iter().map(Sample::ratio)) * REF_NOMINAL_MS
    }

    /// Smallest raw sample, milliseconds (diagnostic).
    pub fn raw_min_ms(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.raw_ms)
            .fold(f64::INFINITY, f64::min)
    }

    /// Median raw sample, milliseconds (diagnostic).
    pub fn raw_p50_ms(&self) -> f64 {
        median(self.samples.iter().map(|s| s.raw_ms))
    }

    /// `REF_NOMINAL_MS / median(ref)`: above 1 on a machine faster than the
    /// nominal one.
    pub fn machine_speed_index(&self) -> f64 {
        REF_NOMINAL_MS / median(self.refs_ms.iter().copied())
    }

    /// Coefficient of variation of the reference times: how unsteady the
    /// machine was while this estimate was taken.
    pub fn ref_cv(&self) -> f64 {
        let n = self.refs_ms.len() as f64;
        let mean = self.refs_ms.iter().sum::<f64>() / n;
        let var = self.refs_ms.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

/// Take samples according to `plan`.  `reference` and `sample` each run
/// their work once and return its duration in milliseconds.
///
/// Retakes are bounded by the number of samples asked for and end with the
/// budget: on a machine that never holds still the estimator degrades to
/// keeping drifting samples rather than never returning.
pub fn estimate(
    plan: Plan,
    mut reference: impl FnMut() -> f64,
    mut sample: impl FnMut() -> f64,
) -> Estimate {
    assert!(plan.min_samples >= 1, "an estimate needs a sample");
    let started = Instant::now();
    let mut out = Estimate {
        samples: Vec::with_capacity(plan.max_samples),
        discarded: 0,
        refs_ms: Vec::with_capacity(plan.max_samples + 1),
        taken_ms: Vec::with_capacity(plan.max_samples),
    };
    let mut before = reference();
    out.refs_ms.push(before);
    while plan.wants_more(out.samples.len(), started.elapsed()) {
        let raw_ms = sample();
        let taken = out.taken_ms.len();
        out.taken_ms.push(raw_ms);
        let after = reference();
        out.refs_ms.push(after);
        let drift = (after - before).abs() / before.min(after);
        if drift > MAX_REF_DRIFT
            && out.discarded < plan.max_samples
            && started.elapsed() < plan.budget
        {
            out.discarded += 1;
        } else {
            out.samples.push(Sample {
                raw_ms,
                ref_ms: (before + after) / 2.0,
                taken,
            });
        }
        before = after;
    }
    out
}

/// [`estimate`] against the real reference kernel and a real timer around
/// `work`.
pub fn estimate_timed(kernel: &RefKernel, plan: Plan, mut work: impl FnMut()) -> Estimate {
    estimate(
        plan,
        || kernel.run_ms(),
        || {
            let started = Instant::now();
            work();
            started.elapsed().as_secs_f64() * 1e3
        },
    )
}

/// Median of a non-empty sequence (mean of the middle two for even counts).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    pbe_stats::percentile::median(&values).expect("median of nothing")
}
