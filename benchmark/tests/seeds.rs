//! Seed plumbing: `--seed` reaches every workload's input, the same seed
//! gives the same input and the same simulated results.

use pbe_benchmark::checks::{check_result, goodput_mbps, p95_delay_ms, result_digest};
use pbe_benchmark::cli::benchmark_dir;
use pbe_benchmark::suite::changed;
use pbe_benchmark::workloads::{find, Horizon, Input, WORKLOADS};
use pbe_netsim::Simulation;

#[test]
fn the_seed_changes_every_input_and_the_same_seed_repeats_it() {
    for w in WORKLOADS {
        // The one-subframe horizon keeps the 10,000-UE metro cheap; the seed
        // is mixed in the same way for both horizons.
        let digest = |seed| w.input(seed, Horizon::OneSubframe).digest();
        assert_eq!(digest(1), digest(1), "{}: seed 1 twice", w.name);
        assert_ne!(digest(1), digest(2), "{}: seed 2 must differ", w.name);
    }
    for name in ["paper_sweep", "radio_dense"] {
        let w = find(name).expect("workload exists");
        assert_ne!(
            w.input(1, Horizon::Full).digest(),
            w.input(1, Horizon::OneSubframe).digest(),
            "{name}: the horizon is part of the input"
        );
    }
}

#[test]
fn changed_seed_1_inputs_are_a_violation_and_a_changed_result_is_not() {
    let dir = benchmark_dir();
    for w in WORKLOADS {
        let input = w.input(1, Horizon::Full).digest();
        // The result digest is only reported: a deliberate change re-pins it.
        assert_eq!(changed(&dir, 1, w.name, &input, "other"), None);
        let violation = changed(&dir, 1, w.name, "other", "other");
        assert!(violation.is_some_and(|v| v.starts_with("inputs_changed")));
        // expected.json pins seed 1 only.
        assert_eq!(changed(&dir, 2, w.name, "other", "other"), None);
    }
}

#[test]
fn the_same_seed_gives_identical_simulated_metrics() {
    let run = |seed| {
        let Input::Sim(cfg) = find("radio_dense")
            .expect("workload exists")
            .input(seed, Horizon::Full)
        else {
            panic!("radio_dense is one simulation");
        };
        let result = Simulation::new((*cfg).clone()).run();
        assert_eq!(check_result(&cfg, &result), Vec::<String>::new());
        (
            goodput_mbps(&cfg, &result),
            p95_delay_ms(&result),
            result_digest(&result),
        )
    };
    let (a, b, other) = (run(2), run(2), run(3));
    assert_eq!(a, b, "same seed, same simulated metrics and digest");
    assert!(a.0 > 0.0 && a.1 > 0.0);
    assert_ne!(a.2, other.2, "another seed is another experiment");
}

#[test]
fn the_output_checks_catch_a_doctored_result() {
    let Input::Sim(cfg) = find("pbe_city")
        .expect("workload exists")
        .input(1, Horizon::OneSubframe)
    else {
        panic!("pbe_city is one simulation");
    };
    let mut result = Simulation::new((*cfg).clone()).run();
    assert!(check_result(&cfg, &result).is_empty());
    let digest = result_digest(&result);
    result.flows[0].summary.total_bytes += 1;
    assert!(
        !check_result(&cfg, &result).is_empty(),
        "bytes without packets"
    );
    assert_ne!(result_digest(&result), digest);
    result.flows.pop();
    assert!(check_result(&cfg, &result)
        .iter()
        .any(|v| v.contains("flows in result differ")));
}

#[test]
fn the_timed_pass_without_a_store_reports_what_the_stored_pass_does() {
    use pbe_benchmark::metrics::Report;
    use pbe_benchmark::runner::{
        account_cold, account_sweep, sweep_pass, unstored_pass, DigestGuard,
    };
    let Input::Sweep(specs) = find("paper_sweep")
        .expect("workload exists")
        .input(1, Horizon::OneSubframe)
    else {
        panic!("paper_sweep is a grid");
    };
    let store = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeds-sweep-store");
    let (mut report, mut guard) = (Report::default(), DigestGuard::default());
    let stored = sweep_pass(&specs, store.clone()).expect("the store opens");
    account_sweep(&mut report, &mut guard, &specs, &stored);
    let (_, run) = unstored_pass(&specs).expect("no store, no I/O");
    account_cold(&mut report, &mut guard, &specs, &run);
    let _ = std::fs::remove_dir_all(store);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!((run.executed, run.cached), (specs.len(), 0));
    assert_eq!(
        (stored.warm.executed, stored.warm.cached),
        (0, specs.len()),
        "the warm pass is served from the store"
    );
    // Points of both cold passes and the warm pass, and the three pass-level
    // checks: a digest that differed between them would have counted.
    assert_eq!(report.attempted as usize, 3 * specs.len() + 3);
}
