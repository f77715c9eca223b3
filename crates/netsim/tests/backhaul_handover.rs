//! Handover rerouting through the shared backhaul.
//!
//! A flow's backhaul route follows the cell its UE is attached to.  This
//! test drives the canonical A3 handover scenario (serving cell fades while
//! the neighbour rises) over a fan-out backhaul whose per-cell links mark
//! every packet (threshold 0), so the `BackhaulMark` stream reveals exactly
//! which per-cell link every packet traversed — before the handover all
//! traffic must ride the cell-0 link, after it the cell-1 link, with no
//! backhaul drops anywhere in between.

use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{
    BackhaulConfig, BackhaulLinkSpec, CellTrajectory, FlowConfig, SchemeChoice, SimBuilder,
    SimConfig, SimEvent,
};
use pbe_stats::time::Duration;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn handover_reroutes_the_backhaul_path_without_losing_packets() {
    let ue = UeId(1);
    let duration = Duration::from_secs(10);
    // Generous capacities: the backhaul must not be the constraint, so any
    // drop would be a rerouting bug rather than congestion.
    let backhaul = BackhaulConfig::shared_aggregation(
        &[CellId(0), CellId(1), CellId(2)],
        BackhaulLinkSpec::new("agg", 400e6, Duration::from_millis(2), 4_000_000),
        |cell| {
            BackhaulLinkSpec::new(
                format!("cell-{}", cell.0),
                200e6,
                Duration::from_millis(1),
                4_000_000,
            )
            // Threshold 0 marks every packet: the mark stream doubles as a
            // per-packet record of which cell link the packet took.
            .with_mark_threshold(0)
        },
    );

    let marks: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
    let drops: Rc<RefCell<Vec<usize>>> = Rc::default();
    let handovers: Rc<RefCell<Vec<(u64, CellId, CellId)>>> = Rc::default();
    let mark_sink = marks.clone();
    let drop_sink = drops.clone();
    let ho_sink = handovers.clone();

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
        backhaul: Some(backhaul),
        ..SimConfig::default()
    };
    let result = SimBuilder::from_config(config)
        .observe(move |event: &SimEvent<'_>| match event {
            SimEvent::BackhaulMark { at, link, .. } => {
                mark_sink.borrow_mut().push((at.as_millis(), *link))
            }
            SimEvent::BackhaulDrop { link, .. } => drop_sink.borrow_mut().push(*link),
            SimEvent::Handover { at, from, to, .. } => {
                ho_sink.borrow_mut().push((at.as_millis(), *from, *to))
            }
            _ => {}
        })
        .run();

    // The crossing fired exactly the expected handover.
    let handovers = handovers.borrow();
    assert!(!handovers.is_empty(), "no handover fired");
    let (ho_ms, from, to) = handovers[0];
    assert_eq!(from, CellId(0));
    assert_eq!(to, CellId(1));

    // Zero backhaul drops: rerouting never loses a packet.
    assert!(
        drops.borrow().is_empty(),
        "backhaul dropped packets: {:?}",
        drops.borrow()
    );
    for link in &result.backhaul_links {
        assert_eq!(
            link.stats.dropped_packets, 0,
            "link {} dropped packets",
            link.name
        );
    }

    // The mark stream shows the path switch: traffic rides the cell-0 link
    // (index 1) before the handover and the cell-1 link (index 2) after it.
    // Routing is decided at submission, so cell-0 marks may trail the
    // handover instant by the in-flight horizon (server delay + queueing).
    let marks = marks.borrow();
    let on_cell0 = marks.iter().filter(|&&(_, l)| l == 1).count();
    let on_cell1 = marks.iter().filter(|&&(_, l)| l == 2).count();
    assert!(on_cell0 > 100, "cell-0 link carried {on_cell0} packets");
    assert!(on_cell1 > 100, "cell-1 link carried {on_cell1} packets");
    assert!(
        marks.iter().all(|&(_, l)| l == 1 || l == 2),
        "marks outside the two serving-cell links"
    );
    assert!(
        marks
            .iter()
            .filter(|&&(_, l)| l == 2)
            .all(|&(at, _)| at >= ho_ms),
        "cell-1 link saw traffic before the handover at {ho_ms} ms"
    );
    let in_flight_horizon_ms = 300;
    assert!(
        marks
            .iter()
            .filter(|&&(_, l)| l == 1)
            .all(|&(at, _)| at <= ho_ms + in_flight_horizon_ms),
        "cell-0 link still carried traffic long after the handover"
    );

    // Routing conservation: everything the shared aggregation link admitted
    // came out of exactly the two serving-cell links, and the unused cell-2
    // route stayed idle.
    let admitted: Vec<u64> = result
        .backhaul_links
        .iter()
        .map(|l| l.stats.admitted_packets)
        .collect();
    assert_eq!(admitted[0], admitted[1] + admitted[2] + admitted[3]);
    assert_eq!(admitted[3], 0, "cell-2 link should never carry traffic");

    // The flow itself survives the switch at a healthy rate.
    assert!(
        result.flows[0].summary.avg_throughput_mbps > 10.0,
        "flow collapsed across the handover: {} Mbit/s",
        result.flows[0].summary.avg_throughput_mbps
    );
}
