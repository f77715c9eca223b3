//! Shard-count byte identity at the scenario level: a scaled-down metro
//! (the `CityScale` generator with a flow cap: far more radio users than
//! flows) must serialise to the same `SimResult` JSON on every shard count —
//! the JSON the serial tick engine produced at the commit before it was
//! deleted, pinned here by FNV-128 digest.  This is the acceptance check for
//! the tick engine at the bench layer; `pbe-cellular` pins the same
//! property per subframe, and `pbe-netsim` per simulation.

use pbe_bench::sweep::CityScale;
use pbe_cellular::config::CellId;
use pbe_netsim::{CellOutage, DecodeLossBurst, FaultSchedule, SchemeChoice, Simulation};

/// A metro in miniature: multi-column grid so shards get contiguous runs of
/// cells, driving speed so UEs cross shard boundaries, more UEs than flows.
fn mini_metro(shards: usize) -> CityScale {
    CityScale::driving(6, 4, 160)
        .seconds(8)
        .seed(0x3E7)
        .scheme(SchemeChoice::named("CUBIC"))
        .flows_cap(12)
        .shards(shards)
}

fn result_digest(shards: usize, faults: Option<FaultSchedule>) -> String {
    let mut cfg = mini_metro(shards).scenario().sim_config();
    cfg.faults = faults;
    let result = Simulation::new(cfg).run();
    let json = serde_json::to_string(&result).expect("result serialises");
    pbe_stats::fnv1a_128_hex(json.as_bytes())
}

#[test]
fn metro_is_byte_identical_across_shard_counts() {
    for shards in [1usize, 2, 3, 4] {
        assert_eq!(
            result_digest(shards, None),
            "f571c1472a0429a461a6027db405e5c9",
            "shards={shards} diverged from the serial engine's result"
        );
    }
}

fn metro_faults() -> FaultSchedule {
    FaultSchedule {
        cell_outages: vec![CellOutage {
            cell: CellId(0),
            start_ms: 2_000,
            end_ms: 5_000,
        }],
        decode_loss: vec![DecodeLossBurst {
            flow: 1,
            start_ms: 6_000,
            end_ms: 6_300,
        }],
        ..FaultSchedule::none()
    }
}

#[test]
fn faulted_metro_is_byte_identical_across_shard_counts() {
    // The acceptance check for the fault-injection layer: injecting a
    // primary-cell outage and a decode-loss burst into the metro scenario
    // must leave shard-count byte identity intact — faults are part of the
    // deterministic schedule, not a source of divergence.
    for shards in [1usize, 2, 4] {
        assert_eq!(
            result_digest(shards, Some(metro_faults())),
            "79e7a952e84c89053fab8cc34ed3af72",
            "faulted metro: shards={shards} diverged from the serial engine's result"
        );
    }
    // And the faults actually fired: recovery records exist in the output.
    let cfg = {
        let mut cfg = mini_metro(2).scenario().sim_config();
        cfg.faults = Some(metro_faults());
        cfg
    };
    let result = Simulation::new(cfg).run();
    assert_eq!(
        result.fault_recovery.len(),
        2,
        "both injected faults produced recovery records"
    );
}

#[test]
fn mini_metro_actually_exercises_the_interesting_paths() {
    // Guard against the identity test passing vacuously: the scenario must
    // produce handovers (cross-shard UE migration) and deliver flow traffic.
    let cfg = mini_metro(4).scenario().sim_config();
    let result = Simulation::new(cfg).run();
    assert!(
        !result.handovers.is_empty(),
        "mini metro produced no handovers"
    );
    assert!(result.flows.iter().any(|f| f.packets_delivered > 100));
}
