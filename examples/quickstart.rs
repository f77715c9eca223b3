//! Quickstart: run one PBE-CC flow over a simulated cellular link and print
//! its throughput/delay summary next to BBR on the same link.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pbe_cc_algorithms::api::SchemeName;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
use pbe_stats::time::Duration;

fn main() {
    let duration = Duration::from_secs(8);
    println!("PBE-CC quickstart: one 8-second bulk flow on an idle 20 MHz + 10 MHz cell pair.\n");
    // (average throughput, p95 delay) per scheme, in the order run.
    let mut measured = Vec::new();
    for (scheme, label) in [
        (SchemeChoice::Pbe, "PBE-CC"),
        (SchemeChoice::Baseline(SchemeName::Bbr), "BBR"),
        (SchemeChoice::Baseline(SchemeName::Cubic), "CUBIC"),
    ] {
        // `Simulation` wires up the whole stack: the wired path, the eNodeB
        // scheduler with carrier aggregation, HARQ and the reordering
        // buffer.  The scheme string resolves through the open registry, and
        // for PBE-CC the registered receiver agent (control-channel
        // decoders, message fusion, the PBE client) plugs in automatically.
        let ue = UeId(1);
        let result = Simulation::new(SimConfig {
            load: CellLoadProfile::idle(),
            seed: 42,
            duration,
            ues: vec![(
                UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], 3, -85.0),
                MobilityTrace::stationary(-85.0),
            )],
            flows: vec![FlowConfig::bulk(1, ue, scheme, duration)],
            ..SimConfig::default()
        })
        .run();
        let flow = &result.flows[0];
        println!(
            "{label:>7}: {:6.1} Mbit/s average throughput, {:5.1} ms average one-way delay, {:5.1} ms p95, {} packets ({} lost), CA triggered: {}",
            flow.summary.avg_throughput_mbps,
            flow.summary.avg_delay_ms,
            flow.summary.p95_delay_ms,
            flow.packets_delivered,
            flow.packets_lost,
            flow.summary.carrier_aggregation_triggered,
        );
        measured.push((flow.summary.avg_throughput_mbps, flow.summary.p95_delay_ms));
    }
    let (pbe, bbr) = (measured[0], measured[1]);
    println!(
        "\nPBE-CC vs BBR: {:.2}x the throughput, {:.2}x lower p95 delay \
         (paper abstract: 1.063x, i.e. 6.3 % more, and 1.8x lower).",
        pbe.0 / bbr.0,
        bbr.1 / pbe.1,
    );
    println!(
        "The delay advantage reproduces; the throughput falls short of BBR's, most on busy \
         cells (ROADMAP.md item 2)."
    );
    println!("CUBIC shows the classic bufferbloat pattern: similar throughput, much higher delay.");
}
