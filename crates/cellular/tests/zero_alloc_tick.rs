//! Regression tests: the steady-state tick allocates nothing, idle or
//! loaded.
//!
//! Idle UEs are the bulk of a metro-scale network, and a tick that allocated
//! per UE would make them cost something after all.  The idle test builds
//! 600 two-cell UEs on 6 cells with no traffic, warms the network up for 400
//! subframes (every UE joins asleep) and then requires zero allocations
//! across 200 further subframes — ordinary ones and the A3 measurement
//! subframes that visit every sleeper.
//!
//! The loaded test keeps twelve backlogged UEs at weak RSSIs on aggregated
//! carriers, so every subframe schedules new transport blocks, HARQ
//! retransmits failed ones, and the reordering buffers hold the blocks
//! behind each gap and release them when it closes.  Buffers still grow
//! when a subframe sets a new high-water mark — more blocks in flight, more
//! HARQ processes pending or a wider block than ever before — and such
//! subframes grow rarer without end, so after a 20,000-subframe warm-up the
//! test looks at up to five consecutive 200-subframe windows, without a
//! handover, and requires one in which the tick neither allocates nor frees
//! at all.  An allocation per block or per subframe fails every window: the
//! copy of each decoded block that the receive path used to make, the
//! ordered map it was buffered in and the vectors it was released and
//! retransmitted through made about 90 allocations per subframe on the
//! benchmark's `radio_dense` workload.
//!
//! A counting global allocator does the counting, so each test binary holds
//! only tests of this kind.  The tick runs wholly on the calling thread, so
//! each test counts that thread alone, and nothing the other test or the
//! harness does elsewhere can land in its count.

use pbe_cellular::config::{CellConfig, CellId, CellularConfig, HandoverConfig, UeConfig, UeId};
use pbe_cellular::handover;
use pbe_cellular::network::NetworkTickReport;
use pbe_cellular::{CellLoadProfile, MobilityTrace, ShardedNetwork};
use pbe_stats::time::Instant;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// 200-subframe windows the loaded test looks at for one without any
/// allocation or free.
const WINDOWS: usize = 5;

/// Allocations and frees the calling thread has made so far.
fn counts() -> (u64, u64) {
    (
        alloc_counter::thread_allocation_count(),
        alloc_counter::thread_deallocation_count(),
    )
}

#[test]
fn idle_network_steady_state_tick_allocates_nothing() {
    let config = CellularConfig {
        cells: (0..6)
            .map(|i| CellConfig::primary_20mhz(CellId(i)))
            .collect(),
        ..CellularConfig::default()
    };
    let handover_config = config.handover;
    let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), 1, 1);
    for u in 0..600u32 {
        let primary = (u % 6) as u16;
        let cells = vec![CellId(primary), CellId((primary + 1) % 6)];
        let rssi = -84.0 - f64::from(u % 20);
        net.add_ue(
            UeConfig::new(UeId(u), cells, 2, rssi),
            MobilityTrace::stationary(rssi),
        );
    }
    let mut report = NetworkTickReport::default();
    for sf in 0..400u64 {
        net.tick_into(Instant::from_millis(sf), &mut report);
    }

    let mut measurement_subframes = 0;
    let (before, _) = counts();
    for sf in 400..600u64 {
        let now = Instant::from_millis(sf);
        net.tick_into(now, &mut report);
        measurement_subframes +=
            usize::from(handover::is_measurement_subframe(&handover_config, now));
    }
    let allocations = counts().0 - before;
    assert!(measurement_subframes >= 4, "A3 measured the sleepers");
    assert!(report.handovers.is_empty() && report.dci_messages.is_empty());
    assert_eq!(
        allocations, 0,
        "the idle steady-state tick allocated {allocations} times"
    );
}

/// Bits each loaded UE's queues are topped up to every subframe: a few
/// subframes of a 20 MHz carrier, so every UE stays backlogged while the
/// number of packets in flight stays bounded.
const BACKLOG_BITS: u64 = 400_000;

/// Cells of the loaded network, each the primary of one UE.
const CELLS: u16 = 12;

#[test]
fn loaded_network_steady_state_tick_allocates_nothing() {
    let config = CellularConfig {
        cells: (0..CELLS)
            .map(|i| CellConfig::primary_20mhz(CellId(i)))
            .collect(),
        handover: HandoverConfig {
            enabled: false,
            ..HandoverConfig::default()
        },
        ..CellularConfig::default()
    };
    let mut net = ShardedNetwork::new(config, CellLoadProfile::idle(), 1, 1);
    // One UE per primary cell, each able to aggregate the next cell:
    // alone on its primary, it fills it and activates the secondary.
    let ues: Vec<UeId> = (0..u32::from(CELLS)).map(UeId).collect();
    for &ue in &ues {
        let primary = ue.0 as u16;
        let cells = vec![CellId(primary), CellId((primary + 1) % CELLS)];
        let rssi = -96.0 - 2.0 * f64::from(ue.0 % 4);
        net.add_ue(
            UeConfig::new(ue, cells, 2, rssi),
            MobilityTrace::stationary(rssi),
        );
    }
    let mut report = NetworkTickReport::default();
    let mut next_packet = 0u64;
    let mut sf = 0u64;
    let mut tick = |net: &mut ShardedNetwork, report: &mut NetworkTickReport| {
        let now = Instant::from_millis(sf);
        for &ue in &ues {
            while net.queue_bits(ue) < BACKLOG_BITS {
                net.enqueue_packet(ue, next_packet, 1500, now);
                next_packet += 1;
            }
        }
        net.tick_into(now, report);
        assert!(report.handovers.is_empty());
        sf += 1;
    };
    for _ in 0..20_000 {
        tick(&mut net, &mut report);
    }
    let aggregated = ues.iter().filter(|&&ue| net.active_cells(ue).len() == 2);
    assert!(
        aggregated.count() >= CELLS as usize / 2,
        "carrier aggregation is on"
    );

    let mut windows = Vec::new();
    while windows.len() < WINDOWS {
        let (mut retransmitted, mut recovered) = (0, 0);
        let (allocs, frees) = counts();
        for _ in 0..200 {
            tick(&mut net, &mut report);
            for (_, o) in report.cell_reports.iter().flat_map(|r| &r.outcomes) {
                retransmitted += usize::from(o.attempt > 0);
                recovered += usize::from(o.attempt > 0 && o.success);
            }
        }
        let (allocations, deallocations) = counts();
        let (allocations, deallocations) = (allocations - allocs, deallocations - frees);
        // A block recovered by a retransmission releases the blocks that
        // arrived behind it, out of order.
        assert!(
            retransmitted > 0 && recovered > 0,
            "HARQ retransmitted and recovered"
        );
        windows.push((allocations, deallocations));
        if (allocations, deallocations) == (0, 0) {
            break;
        }
    }
    assert_eq!(
        windows.last(),
        Some(&(0, 0)),
        "(allocations, frees) of each 200-subframe window: {windows:?}"
    );
}
