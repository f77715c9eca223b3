//! Sweep-harness regression tests: parallel determinism (including across
//! handovers), exact grid expansion, and store-served cache equivalence.

use pbe_bench::artifact::{run_cached, ResultStore};
use pbe_bench::scenarios::ScenarioLibrary;
use pbe_bench::sweep::{CityScale, ScenarioSpec, SweepGrid, SweepReport};
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice};
use pbe_stats::rng::derive_seed;
use pbe_stats::time::Duration;
use proptest::prelude::*;

/// Execute `specs` on `workers` threads without a store.
fn sweep(specs: Vec<ScenarioSpec>, workers: usize) -> SweepReport {
    run_cached("sweep", specs, None, workers).unwrap().report
}

/// A small fig13/14-style stationary grid: three library locations crossed
/// with two schemes and two seed replicas.
fn stationary_grid() -> SweepGrid {
    let duration = Duration::from_millis(400);
    let scenarios = ScenarioLibrary::subset(3)
        .iter()
        .map(|loc| ScenarioSpec::from_location(format!("location {}", loc.index), loc, duration))
        .collect();
    SweepGrid::over(scenarios)
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("CUBIC")])
        .seed_replicas(2)
}

/// The headline determinism guarantee: a sweep over the stationary grid with
/// four workers produces byte-identical per-scenario results to the serial
/// run — worker count only changes the wall clock, never the science.
#[test]
fn four_worker_sweep_is_byte_identical_to_serial() {
    let grid = stationary_grid();
    let specs = grid.expand();
    assert_eq!(specs.len(), 3 * 2 * 2);

    let serial = sweep(specs.clone(), 1);
    let parallel = sweep(specs, 4);
    assert_eq!(parallel.workers, 4);
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());

    // Whole-report comparison (specs + results, timing excluded)…
    assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    // …and per-scenario, so a failure names the scenario that diverged.
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(
            serde_json::to_string(&s.result).unwrap(),
            serde_json::to_string(&p.result).unwrap(),
            "scenario {} ({}) diverged between serial and parallel",
            s.spec.label,
            s.spec.scheme
        );
    }
}

/// A two-cell crossing that reliably triggers a handover: cell 0 fades
/// −85 → −110 dBm over 4.5 s while cell 1 rises symmetrically.
fn handover_scenario(seconds: u64) -> ScenarioSpec {
    let ue = UeId(1);
    let duration = Duration::from_secs(seconds);
    ScenarioSpec::new("handover crossing", SchemeChoice::Pbe, duration)
        .load(CellLoadProfile::idle())
        .seed(71)
        .ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        )
        .trajectory(
            ue,
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (4.5, -110.0)]),
        )
        .trajectory(
            ue,
            CellId(1),
            MobilityTrace::from_secs(&[(0.0, -110.0), (4.5, -85.0)]),
        )
        .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
}

/// Handover determinism: the most state-heavy event in the simulator —
/// queue draining, HARQ forwarding, reorder flushes, monitor re-targeting —
/// must not let the worker schedule leak into the results.  A handover
/// scenario (plus a small city-scale fleet) sweeps byte-identically on one
/// and four workers, and actually hands over.
#[test]
fn handover_sweep_is_byte_identical_between_serial_and_four_workers() {
    let mut specs: Vec<ScenarioSpec> = SweepGrid::over(vec![handover_scenario(6)])
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("BBR")])
        .seed_replicas(2)
        .expand();
    specs.push(CityScale::driving(2, 1, 3).seconds(6).seed(9).scenario());

    let serial = sweep(specs.clone(), 1);
    let parallel = sweep(specs, 4);
    assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(
            serde_json::to_string(&s.result).unwrap(),
            serde_json::to_string(&p.result).unwrap(),
            "scenario {} ({}) diverged between serial and parallel",
            s.spec.label,
            s.spec.scheme
        );
    }
    // The scenario is not vacuous: the crossing hands the UE over.
    let crossing = serial
        .outcome("handover crossing", "PBE")
        .expect("PBE crossing ran");
    assert!(
        !crossing.result.handovers.is_empty(),
        "the crossing scenario must hand over"
    );
    let ho = crossing.result.handovers[0];
    assert_eq!(ho.from, CellId(0));
    assert_eq!(ho.to, CellId(1));
}

/// Cache equivalence on a sampled sub-grid: results served from a warm
/// artifact store are byte-identical to standalone runs of each spec *and*
/// to a fresh 4-worker run.  The sub-grid is a deterministic sample of the stationary
/// grid (every point whose seed-derived coin lands heads, floor 4 points),
/// so the test exercises an irregular point set rather than a full cross
/// product.
#[test]
fn store_served_results_are_byte_identical_to_fresh_runs() {
    let all = stationary_grid().expand();
    let mut specs: Vec<ScenarioSpec> = all
        .iter()
        .filter(|s| derive_seed(s.seed, 97).is_multiple_of(2))
        .cloned()
        .collect();
    for spec in all {
        if specs.len() >= 4 {
            break;
        }
        if !specs.iter().any(|s| s.content_key() == spec.content_key()) {
            specs.push(spec);
        }
    }
    assert!(specs.len() >= 4, "sampled sub-grid is non-trivial");

    // `(spec, result)` pairs, in the shape of `deterministic_json`.
    let standalone: Vec<_> = specs.iter().map(|s| (s, s.run())).collect();
    let standalone = serde_json::to_string(&standalone).unwrap();
    let fresh_parallel = sweep(specs.clone(), 4);

    let dir = std::env::temp_dir().join(format!("pbe_cache_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ResultStore::open(&dir).unwrap();
    let warmup = run_cached("cache_equiv", specs.clone(), Some(&mut store), 2).unwrap();
    assert_eq!(warmup.executed, specs.len());
    let served = run_cached("cache_equiv", specs, Some(&mut store), 2).unwrap();
    assert_eq!(served.executed, 0, "a warm store serves every point");

    assert_eq!(
        served.report.deterministic_json(),
        standalone,
        "store-served results must be byte-identical to standalone runs"
    );
    assert_eq!(
        served.report.deterministic_json(),
        fresh_parallel.deterministic_json(),
        "store-served results must be byte-identical to a fresh 4-worker run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replica 0 of a location keeps the location's own seed, so sweep results
/// are comparable with standalone single-scenario runs.
#[test]
fn replica_zero_reproduces_the_standalone_run() {
    let duration = Duration::from_millis(400);
    let library = ScenarioLibrary::paper_40_locations();
    let loc = &library.locations()[5];
    let spec = ScenarioSpec::from_location("loc5", loc, duration);

    let standalone = spec.run();
    let report = sweep(SweepGrid::over(vec![spec]).seed_replicas(2).expand(), 2);
    assert_eq!(report.outcomes[0].spec.seed, loc.seed());
    assert_eq!(
        serde_json::to_string(&standalone).unwrap(),
        serde_json::to_string(&report.outcomes[0].result).unwrap()
    );
    assert_ne!(report.outcomes[1].spec.seed, loc.seed());
}

proptest! {
    /// Grid expansion covers the scheme × seed cross product exactly once
    /// per scenario, whatever the axis sizes.
    #[test]
    fn expansion_covers_the_cross_product_exactly_once(
        scenario_count in 1usize..4,
        scheme_count in 0usize..5,
        seed_count in 0usize..5,
        base_seed in 0u64..1_000_000,
    ) {
        let duration = Duration::from_millis(100);
        let scheme_pool = ["PBE", "BBR", "CUBIC", "Copa", "Verus"];
        let scenarios: Vec<ScenarioSpec> = (0..scenario_count)
            .map(|i| {
                ScenarioSpec::single_flow(format!("s{i}"), SchemeChoice::Pbe, duration)
                    .seed(base_seed + i as u64)
            })
            .collect();
        let grid = SweepGrid::over(scenarios)
            .schemes(scheme_pool[..scheme_count].iter().map(|k| SchemeChoice::named(*k)))
            .seeds(0..seed_count as u64);

        let points = grid.expand();
        prop_assert_eq!(points.len(), grid.len());
        prop_assert_eq!(
            points.len(),
            scenario_count * scheme_count.max(1) * seed_count.max(1)
        );

        // Build the expected multiset of (label, scheme, seed) triples and
        // check the expansion is exactly that set, exactly once each.
        let mut expected: Vec<(String, String, u64)> = Vec::new();
        for i in 0..scenario_count {
            let base = base_seed + i as u64;
            let schemes: Vec<String> = if scheme_count == 0 {
                vec!["Pbe".into()]
            } else {
                scheme_pool[..scheme_count].iter().map(|s| s.to_string()).collect()
            };
            let seeds: Vec<u64> = if seed_count == 0 {
                vec![base]
            } else {
                (0..seed_count as u64).map(|r| derive_seed(base, r)).collect()
            };
            for scheme in &schemes {
                for &seed in &seeds {
                    expected.push((format!("s{i}"), scheme.clone(), seed));
                }
            }
        }
        let mut actual: Vec<(String, String, u64)> = points
            .iter()
            .map(|p| {
                let scheme = match &p.scheme {
                    SchemeChoice::Named(name) => name.clone(),
                    other => format!("{other:?}"),
                };
                (p.label.clone(), scheme, p.seed)
            })
            .collect();
        expected.sort();
        actual.sort();
        prop_assert_eq!(actual, expected);
    }
}
