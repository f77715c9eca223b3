//! Cross-crate integration tests: the headline qualitative results of the
//! paper, each checked on a short simulation so the suite stays fast.

use pbe_cc_algorithms::api::SchemeName;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{
    CellTrajectory, FlowConfig, SchemeChoice, SimBuilder, SimConfig, SimEvent, Simulation,
};
use pbe_stats::jain::jain_index;
use pbe_stats::time::Duration;
use std::cell::RefCell;
use std::rc::Rc;

fn single(
    scheme: SchemeChoice,
    seconds: u64,
    load: CellLoadProfile,
    seed: u64,
) -> pbe_netsim::SimResult {
    Simulation::new(SimConfig::single_flow(
        scheme,
        Duration::from_secs(seconds),
        load,
        seed,
    ))
    .run()
}

#[test]
fn pbe_matches_bbr_throughput_with_lower_tail_delay_on_idle_link() {
    // The paper's headline (Table 1): comparable throughput, much lower
    // 95th-percentile delay.
    let pbe = single(SchemeChoice::Pbe, 8, CellLoadProfile::none(), 101);
    let bbr = single(
        SchemeChoice::Baseline(SchemeName::Bbr),
        8,
        CellLoadProfile::none(),
        101,
    );
    let pbe_s = &pbe.flows[0].summary;
    let bbr_s = &bbr.flows[0].summary;
    assert!(
        pbe_s.avg_throughput_mbps > 0.8 * bbr_s.avg_throughput_mbps,
        "PBE throughput {} should be comparable to BBR {}",
        pbe_s.avg_throughput_mbps,
        bbr_s.avg_throughput_mbps
    );
    assert!(
        pbe_s.p95_delay_ms < bbr_s.p95_delay_ms,
        "PBE p95 delay {} should undercut BBR {}",
        pbe_s.p95_delay_ms,
        bbr_s.p95_delay_ms
    );
}

#[test]
fn conservative_schemes_underutilise_the_wireless_link() {
    // Fig. 13/15: Copa and Sprout offer far less load than PBE-CC.
    let pbe = single(SchemeChoice::Pbe, 6, CellLoadProfile::none(), 102);
    let copa = single(
        SchemeChoice::Baseline(SchemeName::Copa),
        6,
        CellLoadProfile::none(),
        102,
    );
    let sprout = single(
        SchemeChoice::Baseline(SchemeName::Sprout),
        6,
        CellLoadProfile::none(),
        102,
    );
    let pbe_tput = pbe.flows[0].summary.avg_throughput_mbps;
    let copa_tput = copa.flows[0].summary.avg_throughput_mbps;
    let sprout_tput = sprout.flows[0].summary.avg_throughput_mbps;
    // The paper reports an order-of-magnitude gap on its testbed; on the
    // simulated cell the gap is smaller but the ordering must hold clearly.
    assert!(
        pbe_tput > 1.2 * copa_tput,
        "PBE {pbe_tput} vs Copa {copa_tput}"
    );
    assert!(
        pbe_tput > 1.2 * sprout_tput,
        "PBE {pbe_tput} vs Sprout {sprout_tput}"
    );
}

#[test]
fn high_offered_load_triggers_carrier_aggregation_and_sprout_does_not() {
    let pbe = single(SchemeChoice::Pbe, 8, CellLoadProfile::none(), 103);
    let sprout = single(
        SchemeChoice::Baseline(SchemeName::Sprout),
        8,
        CellLoadProfile::none(),
        103,
    );
    assert!(
        pbe.flows[0].summary.carrier_aggregation_triggered,
        "PBE-CC's offered load activates a secondary cell"
    );
    assert!(
        !sprout.flows[0].summary.carrier_aggregation_triggered,
        "Sprout's conservative forecast never needs a secondary cell"
    );
}

#[test]
fn pbe_detects_an_internet_bottleneck_and_bounds_its_delay() {
    // Add a 15 Mbit/s wired bottleneck: the wireless link (>>15 Mbit/s) is no
    // longer the constraint, so PBE-CC must fall back to its BBR-like mode.
    let ue = UeId(1);
    let duration = Duration::from_secs(8);
    let cfg = SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::none(),
        seed: 104,
        duration,
        ues: vec![(
            UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        )],
        flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)
            .with_wired_bottleneck(15e6, 150_000)],
        ..SimConfig::default()
    };
    let result = Simulation::new(cfg).run();
    let flow = &result.flows[0];
    // Throughput is capped by the wired bottleneck, not collapsed.
    assert!(
        flow.summary.avg_throughput_mbps > 8.0 && flow.summary.avg_throughput_mbps < 16.5,
        "throughput {} should approach the 15 Mbit/s wired cap",
        flow.summary.avg_throughput_mbps
    );
    // The sender spent a visible share of time in the Internet-bottleneck
    // state (the paper reports 18 % on busy links; here the bottleneck is
    // persistent so the share is much larger).
    assert!(
        flow.summary.internet_bottleneck_fraction > 0.2,
        "internet-bottleneck fraction = {}",
        flow.summary.internet_bottleneck_fraction
    );
}

#[test]
fn two_pbe_flows_with_different_rtts_share_prbs_fairly() {
    // Fig. 21(b): RTT fairness through explicit fair-share calculation.
    let ue_a = UeId(1);
    let ue_b = UeId(2);
    let duration = Duration::from_secs(8);
    let cfg = SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::none(),
        seed: 105,
        duration,
        ues: vec![
            (
                UeConfig::new(ue_a, vec![CellId(0)], 1, -86.0),
                MobilityTrace::stationary(-86.0),
            ),
            (
                UeConfig::new(ue_b, vec![CellId(0)], 1, -86.0),
                MobilityTrace::stationary(-86.0),
            ),
        ],
        flows: vec![
            FlowConfig::bulk(1, ue_a, SchemeChoice::Pbe, duration)
                .with_one_way_delay(Duration::from_millis(26)),
            FlowConfig::bulk(2, ue_b, SchemeChoice::Pbe, duration)
                .with_one_way_delay(Duration::from_millis(148)),
        ],
        ..SimConfig::default()
    };
    let result = Simulation::new(cfg).run();
    // Jain's index over the primary-cell PRBs in the second half of the run
    // (both flows past their startup ramps).
    let halfway = result.primary_prb_timeline.len() / 2;
    let totals: Vec<f64> = [1u32, 2]
        .iter()
        .map(|id| {
            result.primary_prb_timeline[halfway..]
                .iter()
                .map(|iv| iv.per_ue.get(id).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();
    let jain = jain_index(&totals);
    assert!(jain > 0.85, "Jain index {jain} (allocations {totals:?})");
}

#[test]
fn cell_crossing_hands_over_and_pbe_reconverges_within_the_gap() {
    // The acceptance scenario of the handover subsystem: a trajectory that
    // crosses a cell boundary (serving cell fades -85 -> -110 dBm while the
    // neighbour rises symmetrically) must (1) fire at least one A3 handover,
    // narrated as SimEvent::Handover, (2) keep the PBE-CC feedback stream
    // alive through the monitor's re-acquisition gap on the held estimate,
    // and (3) resume *fresh* estimates of the target cell within the
    // configured gap (+ the short window fill the client waits for).
    let ue = UeId(1);
    let duration = Duration::from_secs(10);
    let estimates: Rc<RefCell<Vec<(u64, f64)>>> = Rc::default();
    let ho_events: Rc<RefCell<Vec<(u64, CellId, CellId)>>> = Rc::default();
    let est_sink = estimates.clone();
    let ho_sink = ho_events.clone();
    let config = SimConfig {
        load: CellLoadProfile::idle(),
        seed: 42,
        duration,
        ues: vec![(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        )],
        trajectories: vec![
            CellTrajectory {
                ue,
                cell: CellId(0),
                trace: MobilityTrace::from_secs(&[(0.0, -85.0), (7.0, -110.0)]),
            },
            CellTrajectory {
                ue,
                cell: CellId(1),
                trace: MobilityTrace::from_secs(&[(0.0, -110.0), (7.0, -85.0)]),
            },
        ],
        flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
        ..SimConfig::default()
    };
    let result = SimBuilder::from_config(config)
        .observe(move |event: &SimEvent<'_>| match event {
            SimEvent::CapacityEstimated { at, feedback, .. } => est_sink
                .borrow_mut()
                .push((at.as_millis(), feedback.capacity_bps())),
            SimEvent::Handover { at, from, to, .. } => {
                ho_sink.borrow_mut().push((at.as_millis(), *from, *to))
            }
            _ => {}
        })
        .run();

    // (1) The crossing triggered a handover, visible both on the observer
    // stream and in the aggregated result.
    let ho_events = ho_events.borrow();
    assert!(!ho_events.is_empty(), "no SimEvent::Handover emitted");
    assert_eq!(result.handovers.len(), ho_events.len());
    let (ho_ms, from, to) = ho_events[0];
    assert_eq!(from, CellId(0));
    assert_eq!(to, CellId(1));

    // (2) Feedback keeps flowing through the re-acquisition gap.
    let gap_ms = CellularConfig::default().handover.reacquisition_gap_ms;
    let estimates = estimates.borrow();
    let in_gap = estimates
        .iter()
        .filter(|(at, _)| (ho_ms..ho_ms + gap_ms).contains(at))
        .count();
    assert!(in_gap > 0, "no capacity feedback during the gap");

    // (3) Within gap + the 8-subframe window fill, fresh estimates of the
    // target cell arrive — and they are sane for the 50-PRB target (no
    // full-idle-window spike above the physical ceiling).
    let reconverge_deadline = ho_ms + gap_ms + 8;
    let fresh: Vec<f64> = estimates
        .iter()
        .filter(|(at, _)| (reconverge_deadline..reconverge_deadline + 500).contains(at))
        .map(|(_, bps)| *bps)
        .collect();
    assert!(
        !fresh.is_empty(),
        "no capacity feedback within the re-acquisition deadline"
    );
    // 50 PRBs * ~1560 bits/PRB per ms ~= 78 Mbit/s physical ceiling.
    for bps in &fresh {
        assert!(*bps < 90e6, "post-handover estimate spiked to {bps}");
    }

    // The flow itself survives the switch and finishes at a healthy rate on
    // the target cell.
    let f = &result.flows[0];
    assert!(f.summary.avg_throughput_mbps > 15.0);
    let tail = &f.throughput_timeline_mbps[f.throughput_timeline_mbps.len() - 15..];
    let tail_avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        tail_avg > 20.0,
        "throughput on the target cell re-converged to {tail_avg} Mbit/s"
    );
}

#[test]
fn mobility_walk_keeps_pbe_delay_bounded() {
    // Fig. 16/17: along the RSSI walk PBE-CC's tail delay stays far below
    // the bufferbloat regime CUBIC/Verus exhibit.
    let ue = UeId(1);
    let duration = Duration::from_secs(10);
    let cfg = SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::idle(),
        seed: 106,
        duration,
        ues: vec![(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -85.0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (5.0, -103.0), (8.0, -85.0), (10.0, -85.0)]),
        )],
        flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
        ..SimConfig::default()
    };
    let result = Simulation::new(cfg).run();
    let flow = &result.flows[0];
    assert!(flow.summary.avg_throughput_mbps > 10.0);
    assert!(
        flow.summary.p95_delay_ms < 150.0,
        "p95 delay {} stays bounded across the walk",
        flow.summary.p95_delay_ms
    );
}
