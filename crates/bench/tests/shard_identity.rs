//! Byte identity at the scenario level: a scaled-down metro (the
//! `CityScale` generator with a flow cap: far more radio users than flows)
//! serialises to the `SimResult` JSON the serial tick engine produced at the
//! commit before it was deleted, pinned here by FNV-128 digest.  The tests
//! are named for the shard counts they once compared; every count matched
//! these pins.  This is the acceptance check for the tick engine at the
//! bench layer; `pbe-cellular` pins the same property per subframe, and
//! `pbe-netsim` per simulation.

use pbe_bench::sweep::CityScale;
use pbe_cellular::config::CellId;
use pbe_netsim::{CellOutage, DecodeLossBurst, FaultSchedule, SchemeChoice, Simulation};

/// A metro in miniature: a multi-column grid, driving speed so UEs cross
/// cell boundaries, more UEs than flows.
fn mini_metro() -> CityScale {
    CityScale::driving(6, 4, 160)
        .seconds(8)
        .seed(0x3E7)
        .scheme(SchemeChoice::named("CUBIC"))
        .flows_cap(12)
}

fn result_digest(faults: Option<FaultSchedule>) -> String {
    let mut cfg = mini_metro().scenario().sim_config();
    cfg.faults = faults;
    let result = Simulation::new(cfg).run();
    let json = serde_json::to_string(&result).expect("result serialises");
    pbe_stats::fnv1a_128_hex(json.as_bytes())
}

#[test]
fn metro_is_byte_identical_across_shard_counts() {
    assert_eq!(result_digest(None), "f571c1472a0429a461a6027db405e5c9");
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
    // The acceptance check for the fault-injection layer: a primary-cell
    // outage and a decode-loss burst in the metro scenario keep it
    // byte-identical — faults are part of the deterministic schedule, not a
    // source of divergence.
    assert_eq!(
        result_digest(Some(metro_faults())),
        "79e7a952e84c89053fab8cc34ed3af72"
    );
    // And the faults actually fired: recovery records exist in the output.
    let mut cfg = mini_metro().scenario().sim_config();
    cfg.faults = Some(metro_faults());
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
    // produce handovers and deliver flow traffic.
    let cfg = mini_metro().scenario().sim_config();
    let result = Simulation::new(cfg).run();
    assert!(
        !result.handovers.is_empty(),
        "mini metro produced no handovers"
    );
    assert!(result.flows.iter().any(|f| f.packets_delivered > 100));
}
