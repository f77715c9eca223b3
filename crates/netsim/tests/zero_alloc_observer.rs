//! Regression test: event dispatch hands observers *borrowed* payloads and
//! allocates nothing per event.
//!
//! The per-subframe hot loop emits a `SimEvent` to every observer; if any of
//! those emissions cloned a `String` or `Vec` (as the metrics collector once
//! did), simulation cost would scale with observer count.  This test installs
//! a counting global allocator and drives the observer interface directly:
//! steady-state dispatch — including the built-in metrics collector's
//! subframe accounting on non-boundary subframes — must perform zero
//! allocations.

use pbe_cellular::config::{CellId, Rnti, UeId};
use pbe_cellular::dci::{DciFormat, DciMessage};
use pbe_cellular::mcs::McsIndex;
use pbe_cellular::network::NetworkTickReport;
use pbe_cellular::prb::PrbAllocation;
use pbe_netsim::flow::{FlowConfig, SchemeChoice};
use pbe_netsim::metrics::MetricsCollector;
use pbe_netsim::observer::{Observer, SimEvent};
use pbe_stats::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn dci(cell: CellId, rnti: Rnti, subframe: u64) -> DciMessage {
    DciMessage {
        cell,
        subframe,
        rnti,
        format: DciFormat::Format1,
        first_prb: 0,
        num_prbs: 25,
        mcs: McsIndex(20),
        spatial_streams: 2,
        new_data_indicator: true,
        harq_process: 0,
        tbs_bits: 36_000,
    }
}

/// A report shaped like a busy subframe of a two-UE cell.
fn report(subframe: u64) -> NetworkTickReport {
    let mut report = NetworkTickReport {
        subframe,
        ..NetworkTickReport::default()
    };
    let mut cr = pbe_cellular::cell::SubframeReport {
        cell: CellId(0),
        subframe,
        ..Default::default()
    };
    for ue in [UeId(1), UeId(2)] {
        let rnti = Rnti(0x0100 + u16::try_from(ue.0).unwrap());
        cr.dci_messages.push(dci(CellId(0), rnti, subframe));
        cr.prb_usage.total = 100;
        cr.prb_usage.allocations.push(PrbAllocation {
            ue,
            rnti,
            first_prb: 25 * (u16::try_from(ue.0).unwrap() - 1),
            num_prbs: 25,
        });
        report.dci_messages.push(dci(CellId(0), rnti, subframe));
    }
    report.cell_reports.push(cr);
    report
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    let flows = vec![
        FlowConfig::bulk(1, UeId(1), SchemeChoice::Pbe, Duration::from_secs(10)),
        FlowConfig::bulk(2, UeId(2), SchemeChoice::Pbe, Duration::from_secs(10)),
    ];
    let mut metrics = MetricsCollector::new(&flows, CellId(0));
    let mut borrowed_events = 0u64;
    let mut probe = |event: &SimEvent<'_>| {
        // The closure observer reads straight through the borrow — nothing
        // here forces a clone.
        if let SimEvent::SubframeScheduled { report, .. } = event {
            borrowed_events += u64::from(!report.dci_messages.is_empty());
        }
    };

    // Warm-up: fill the collector's accumulator maps to working size and
    // cross one 100 ms interval boundary (the boundary itself legitimately
    // allocates the interval record).
    let warm = report(0);
    for sf in 0..200u64 {
        let event = SimEvent::SubframeScheduled {
            now: Instant::from_millis(sf),
            report: &warm,
        };
        metrics.on_event(&event);
        probe.on_event(&event);
    }

    // Steady state: subframes 200..=298 stay inside one interval (the next
    // boundary fires at t_ms = 299), so dispatching to both observers must
    // not allocate at all.
    let r = report(200);
    let before = alloc_counter::allocation_count();
    for sf in 200..299u64 {
        let event = SimEvent::SubframeScheduled {
            now: Instant::from_millis(sf),
            report: &r,
        };
        metrics.on_event(&event);
        probe.on_event(&event);
    }
    let allocations = alloc_counter::allocation_count() - before;
    assert_eq!(
        allocations, 0,
        "steady-state observer dispatch allocated {allocations} times"
    );
    assert_eq!(borrowed_events, 99 + 200);
}
