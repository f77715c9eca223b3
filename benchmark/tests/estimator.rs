//! The estimator against synthetic machines: no clock is read, the closures
//! return made-up durations.

use pbe_benchmark::estimator::{estimate, Plan, FLOOR_SAMPLES, MAX_REF_DRIFT};
use pbe_benchmark::refkernel::REF_NOMINAL_MS;
use std::cell::Cell;

/// A machine that flips between a fast and a slow mode.  `clock` counts the
/// units of work done; the mode is a function of the clock, so a flip can
/// land between a sample and its trailing reference.
struct TwoModeMachine {
    clock: Cell<u64>,
    /// Work units per mode period.
    period: u64,
    /// Slow-mode slowdown (1.28 = 28 % slower).
    slow: f64,
    /// Multiplicative jitter stream.
    jitter: Cell<u64>,
}

impl TwoModeMachine {
    fn speed(&self) -> f64 {
        if (self.clock.get() / self.period).is_multiple_of(2) {
            1.0
        } else {
            self.slow
        }
    }

    /// ±1 % deterministic jitter.
    fn jitter(&self) -> f64 {
        let mut x = self.jitter.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.set(x);
        1.0 + ((x % 2001) as f64 - 1000.0) / 100_000.0
    }

    /// Do `units` of work that takes `nominal_ms` on the fast mode.
    fn run(&self, units: u64, nominal_ms: f64) -> f64 {
        let ms = nominal_ms * self.speed() * self.jitter();
        self.clock.set(self.clock.get() + units);
        ms
    }
}

fn machine(period: u64) -> TwoModeMachine {
    TwoModeMachine {
        clock: Cell::new(0),
        period,
        slow: 1.28,
        jitter: Cell::new(0x9E37_79B9_7F4A_7C15),
    }
}

#[test]
fn mode_flips_of_28_percent_leave_the_estimate_within_3_percent() {
    // The true cost: 12.5 reference kernels = 250 ms nominal.
    let truth_ms = 12.5 * REF_NOMINAL_MS;
    for period in [7, 13, 40, 1000] {
        let m = machine(period);
        let est = estimate(
            Plan::exactly(30),
            || m.run(1, REF_NOMINAL_MS),
            || m.run(3, truth_ms),
        );
        let got = est.normalised_ms();
        assert!(
            (got / truth_ms - 1.0).abs() < 0.03,
            "period {period}: estimated {got} ms for {truth_ms} ms"
        );
        // The raw median, by contrast, is off by up to the mode gap.
        assert_eq!(est.samples.len(), 30);
    }
}

#[test]
fn raw_medians_swing_where_normalised_ones_do_not() {
    // Two invocations: one all-fast, one all-slow.  Raw medians differ by
    // the mode gap; normalised estimates agree.
    let run = |slow_from_start: bool| {
        let m = machine(u64::MAX);
        let speed = if slow_from_start { 1.28 } else { 1.0 };
        estimate(
            Plan::exactly(20),
            || m.run(1, REF_NOMINAL_MS) * speed,
            || m.run(1, 100.0) * speed,
        )
    };
    let (fast, slow) = (run(false), run(true));
    assert!(slow.raw_p50_ms() / fast.raw_p50_ms() > 1.25);
    assert!((slow.normalised_ms() / fast.normalised_ms() - 1.0).abs() < 0.01);
    assert!((fast.machine_speed_index() / slow.machine_speed_index() - 1.28).abs() < 0.02);
}

#[test]
fn a_sample_whose_references_disagree_is_discarded_and_retaken() {
    // References: 20, then a flip to 26 (30 % apart) around the 3rd sample,
    // steady afterwards.
    let refs = [20.0, 20.0, 20.0, 26.0, 26.0, 26.0, 26.0, 26.0];
    let (ref_at, sample_at) = (Cell::new(0), Cell::new(0));
    let est = estimate(
        Plan::exactly(5),
        || {
            let i = ref_at.get();
            ref_at.set(i + 1);
            refs[i.min(refs.len() - 1)]
        },
        || {
            sample_at.set(sample_at.get() + 1);
            100.0
        },
    );
    assert_eq!(est.samples.len(), 5, "the discarded sample was retaken");
    assert_eq!(est.discarded, 1);
    assert_eq!(sample_at.get(), 6, "six samples ran for five kept");
    assert_eq!(est.taken_ms.len(), 6);
    assert_eq!(est.refs_ms.len(), 7);
    // The kept samples skip the one taken across the flip (index 2).
    let taken: Vec<usize> = est.samples.iter().map(|s| s.taken).collect();
    assert_eq!(taken, [0, 1, 3, 4, 5]);
    const { assert!((26.0_f64 - 20.0) / 20.0 > MAX_REF_DRIFT) };
}

#[test]
fn retakes_are_bounded_on_a_machine_that_never_holds_still() {
    // Every reference differs from the last by 50 %: every sample drifts.
    let flip = Cell::new(false);
    let est = estimate(
        Plan::exactly(4),
        || {
            flip.set(!flip.get());
            if flip.get() {
                20.0
            } else {
                30.0
            }
        },
        || 100.0,
    );
    assert_eq!(est.samples.len(), 4, "the estimator still returns");
    assert_eq!(
        est.discarded, 4,
        "at most as many retakes as samples asked for"
    );
}

#[test]
fn the_time_budget_stops_sampling_between_min_and_max() {
    let est = estimate(
        Plan::within(3, 1_000_000, std::time::Duration::from_millis(20)),
        || 20.0,
        || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            50.0
        },
    );
    assert!(est.samples.len() >= 3);
    assert!(est.samples.len() < 1_000, "the budget ended the run");
    assert_eq!(est.normalised_ms(), 50.0);
}

#[test]
fn a_slow_machine_cannot_stretch_a_run_far_past_its_budget() {
    // Twenty samples are wanted, each takes 5 ms, the budget is 10 ms:
    // sampling ends at twice the budget, not after twenty.
    let est = estimate(
        Plan::within(20, 100, std::time::Duration::from_millis(10)),
        || 20.0,
        || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            50.0
        },
    );
    assert!(est.samples.len() >= FLOOR_SAMPLES);
    assert!(est.samples.len() < 20, "{} samples", est.samples.len());

    // With the budget spent nothing is retaken: every sample here drifts,
    // and the floor is still reached with none discarded.
    let flip = Cell::new(false);
    let est = estimate(
        Plan::within(8, 100, std::time::Duration::ZERO),
        || {
            flip.set(!flip.get());
            if flip.get() {
                20.0
            } else {
                30.0
            }
        },
        || 100.0,
    );
    assert_eq!((est.samples.len(), est.discarded), (FLOOR_SAMPLES, 0));
}
