//! A scheme registered from outside the workspace crates.
//!
//! The acceptance test of the registry redesign: a toy congestion-control
//! scheme defined *in this test file* runs through the full simulator —
//! selected by name, built by the registry, driven by the engine — without
//! editing `pbe-netsim` (or any other crate).

use pbe_cc_algorithms::api::{AckInfo, CongestionControl, MSS_BYTES};
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeConfig, UeId};
use pbe_netsim::{FlowConfig, SchemeChoice, SimBuilder, SimConfig, SimEvent};
use pbe_stats::time::{Duration, Instant};
use std::cell::Cell;
use std::rc::Rc;

/// A deliberately simple scheme: fixed 20 Mbit/s pacing, one-BDP window.
struct ToyCc {
    rtprop: Duration,
    acks: u64,
}

impl CongestionControl for ToyCc {
    fn name(&self) -> &'static str {
        "TOY"
    }

    fn on_ack(&mut self, _ack: &AckInfo) {
        self.acks += 1;
    }

    fn on_loss(&mut self, _now: Instant) {}

    fn on_packet_sent(&mut self, _now: Instant, _bytes: u64, _inflight: u64) {}

    fn pacing_rate_bps(&self) -> f64 {
        20e6
    }

    fn cwnd_bytes(&self) -> u64 {
        let bdp = 20e6 / 8.0 * self.rtprop.as_secs_f64();
        (2.0 * bdp) as u64 + 4 * MSS_BYTES
    }
}

#[test]
fn toy_scheme_runs_through_the_simulator_by_name() {
    let ue = UeId(1);
    let duration = Duration::from_secs(3);
    let acked: Rc<Cell<u64>> = Rc::default();
    let sink = acked.clone();

    let config = SimConfig {
        seed: 11,
        duration,
        ues: vec![(
            UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        )],
        flows: vec![FlowConfig::bulk(
            1,
            ue,
            SchemeChoice::named("TOY"),
            duration,
        )],
        ..SimConfig::default()
    };
    let result = SimBuilder::from_config(config)
        .scheme("TOY", |ctx| {
            Box::new(ToyCc {
                rtprop: ctx.rtprop_hint,
                acks: 0,
            })
        })
        .observe(move |event: &SimEvent<'_>| {
            if let SimEvent::AckProcessed { flow: 1, .. } = event {
                sink.set(sink.get() + 1);
            }
        })
        .run();

    let flow = &result.flows[0];
    assert_eq!(flow.scheme, "TOY", "result rows carry the registry key");
    // 20 Mbit/s for ~3 s ≈ 7.5 MB ≈ 5000 packets; the cell is idle, so the
    // toy scheme's fixed rate is delivered nearly in full.
    assert!(
        (15.0..22.0).contains(&flow.summary.avg_throughput_mbps),
        "toy scheme throughput = {} Mbit/s",
        flow.summary.avg_throughput_mbps
    );
    assert!(flow.packets_delivered > 3_000);
    // ACKs of packets delivered in the final RTT are still in flight when
    // the horizon ends, so the observer sees slightly fewer AckProcessed
    // events than deliveries — never more.
    assert!(
        acked.get() <= flow.packets_delivered,
        "never more ACK events than deliveries"
    );
    assert!(
        acked.get() as f64 > 0.95 * flow.packets_delivered as f64,
        "observer saw {} AckProcessed events for {} deliveries",
        acked.get(),
        flow.packets_delivered
    );
}

#[test]
fn toy_scheme_competes_against_a_registered_baseline() {
    // Two flows, one toy and one CUBIC, through the same table — the engine
    // treats them identically.
    let toy_ue = UeId(1);
    let cubic_ue = UeId(2);
    let duration = Duration::from_secs(3);
    let config = SimConfig {
        seed: 13,
        duration,
        ues: [toy_ue, cubic_ue]
            .map(|ue| {
                (
                    UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                    MobilityTrace::stationary(-85.0),
                )
            })
            .to_vec(),
        flows: vec![
            FlowConfig::bulk(1, toy_ue, SchemeChoice::named("TOY"), duration),
            FlowConfig::bulk(
                2,
                cubic_ue,
                SchemeChoice::Baseline(pbe_cc_algorithms::api::SchemeName::Cubic),
                duration,
            ),
        ],
        ..SimConfig::default()
    };
    let result = SimBuilder::from_config(config)
        .scheme("TOY", |ctx| {
            Box::new(ToyCc {
                rtprop: ctx.rtprop_hint,
                acks: 0,
            })
        })
        .run();
    assert!(result.flows[0].packets_delivered > 1_000);
    assert!(result.flows[1].packets_delivered > 1_000);
}
