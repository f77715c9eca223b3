//! Serde wire-format pins: the encodings that feed content keys, and JSON
//! round trips of the configuration types.
//!
//! `docs/ARCHITECTURE.md` § "Compatibility policy" keeps exactly two things
//! stable across commits: `ScenarioSpec::content_key` and `SimResult` bytes.
//! `SchemeChoice`'s four encodings are content-key inputs (the benchmark's
//! `paper_sweep` input digest hashes `{"Baseline":"Bbr"}`), so they are
//! pinned in both directions here.

use pbe_cc_algorithms::api::SchemeName;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
use pbe_stats::time::Duration;

#[test]
fn scheme_choice_wire_format_is_stable() {
    let pins = [
        (SchemeChoice::Pbe, "\"Pbe\""),
        (
            SchemeChoice::Baseline(SchemeName::Cubic),
            "{\"Baseline\":\"Cubic\"}",
        ),
        (SchemeChoice::FixedRate, "\"FixedRate\""),
        // The open variant has its own tag, so a reader that predates it
        // fails loudly rather than misparses.
        (SchemeChoice::named("TOY"), "{\"Named\":\"TOY\"}"),
    ];
    for (scheme, json) in pins {
        assert_eq!(serde_json::to_string(&scheme).unwrap(), json);
        let back: SchemeChoice = serde_json::from_str(json).unwrap();
        assert_eq!(back, scheme, "{json} parses back");
    }
}

#[test]
fn flow_config_roundtrips_through_json() {
    let flow = FlowConfig::bulk(
        3,
        pbe_cellular::config::UeId(9),
        SchemeChoice::Baseline(SchemeName::Sprout),
        Duration::from_secs(6),
    )
    .with_wired_bottleneck(15e6, 150_000)
    .with_one_way_delay(Duration::from_millis(26));
    let json = serde_json::to_string(&flow).expect("serializes");
    let back: FlowConfig = serde_json::from_str(&json).expect("parses");
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn sim_config_roundtrips_and_runs_identically() {
    let config = SimConfig::single_flow(
        SchemeChoice::Pbe,
        Duration::from_secs(2),
        pbe_cellular::traffic::CellLoadProfile::idle(),
        77,
    );
    let json = serde_json::to_string(&config).expect("serializes");
    let parsed: SimConfig = serde_json::from_str(&json).expect("parses");
    assert_eq!(serde_json::to_string(&parsed).unwrap(), json);

    // The deserialized scenario is not just structurally equal — it drives
    // the deterministic engine to the same result.
    let a = Simulation::new(config).run();
    let b = Simulation::new(parsed).run();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// The exact per-field JSON the engine produced for the pinned scenario
/// *before* the shared-backhaul subsystem existed (captured from the
/// pre-backhaul commit).  A `SimConfig` without a backhaul must keep
/// reproducing it byte for byte: the legacy per-flow `WiredPath` code path
/// is untouched by the new subsystem.
///
/// Scenario: `single_flow(Pbe, 2 s, busy, seed 41)` with a 12 Mbit/s /
/// 60 kB wired bottleneck on the flow.
const GOLDEN_FLOWS: &str = r#"[{"id":1,"scheme":"PBE","summary":{"label":"PBE","avg_throughput_mbps":9.892946473236618,"throughput_percentiles_mbps":[6.696,9.03,10.379999999999999,12.0,12.0],"delay_percentiles_ms":[29.0,39.0,39.0,40.0,43.0],"avg_delay_ms":37.98118932038833,"p95_delay_ms":46.0,"max_delay_ms":64.0,"total_bytes":2472000,"packets":1648,"internet_bottleneck_fraction":0.07314629258517033,"carrier_aggregation_triggered":false},"throughput_timeline_mbps":[2.4,12.0,12.0,12.0,12.0,6.84,5.4,10.32,10.8,7.56,9.96,9.72,12.0,9.48,10.44,9.12,12.0,12.0,8.76,12.96],"delay_timeline_ms":[21.5,34.18,39.36,40.06,39.61,40.49122807017544,26.066666666666666,33.02325581395349,39.21111111111111,38.44444444444444,38.31325301204819,40.75308641975309,39.77,37.949367088607595,39.81609195402299,36.01315789473684,40.25,38.69,36.6986301369863,40.18518518518518],"packets_lost":4250,"packets_delivered":1648}]"#;
const GOLDEN_PRB: &str = r#"[{"start_s":0.0,"per_ue":{"1":1.7}},{"start_s":0.1,"per_ue":{"1":8.1}},{"start_s":0.2,"per_ue":{"1":8.08}},{"start_s":0.3,"per_ue":{"1":8.47}},{"start_s":0.4,"per_ue":{"1":8.7}},{"start_s":0.5,"per_ue":{"1":4.82}},{"start_s":0.6,"per_ue":{"1":3.6}},{"start_s":0.7,"per_ue":{"1":7.18}},{"start_s":0.8,"per_ue":{"1":8.3}},{"start_s":0.9,"per_ue":{"1":5.15}},{"start_s":1.0,"per_ue":{"1":7.61}},{"start_s":1.1,"per_ue":{"1":6.96}},{"start_s":1.2,"per_ue":{"1":8.08}},{"start_s":1.3,"per_ue":{"1":7.18}},{"start_s":1.4,"per_ue":{"1":7.19}},{"start_s":1.5,"per_ue":{"1":6.52}},{"start_s":1.6,"per_ue":{"1":8.44}},{"start_s":1.7,"per_ue":{"1":8.2}},{"start_s":1.8,"per_ue":{"1":6.86}},{"start_s":1.9,"per_ue":{"1":8.44}}]"#;
const GOLDEN_CA: &str = r#"[]"#;
const GOLDEN_HANDOVERS: &str = r#"[]"#;

fn pinned_no_backhaul_scenario() -> SimConfig {
    let mut cfg = SimConfig::single_flow(
        SchemeChoice::Pbe,
        Duration::from_secs(2),
        pbe_cellular::traffic::CellLoadProfile::busy(),
        41,
    );
    cfg.flows[0] = cfg.flows[0].clone().with_wired_bottleneck(12e6, 60_000);
    cfg
}

#[test]
fn no_backhaul_config_reproduces_the_pre_backhaul_engine_byte_for_byte() {
    // Compared per field rather than on the whole `SimResult` because the
    // result struct legitimately gained a (defaulted, empty) field for
    // backhaul telemetry; everything the pre-backhaul engine produced must
    // still serialize identically.
    let result = Simulation::new(pinned_no_backhaul_scenario()).run();
    assert_eq!(serde_json::to_string(&result.flows).unwrap(), GOLDEN_FLOWS);
    assert_eq!(
        serde_json::to_string(&result.primary_prb_timeline).unwrap(),
        GOLDEN_PRB
    );
    assert_eq!(serde_json::to_string(&result.ca_events).unwrap(), GOLDEN_CA);
    assert_eq!(
        serde_json::to_string(&result.handovers).unwrap(),
        GOLDEN_HANDOVERS
    );
    assert!(
        result.backhaul_links.is_empty(),
        "no backhaul configured, no backhaul telemetry"
    );
}
