//! Regression pin: building a network allocates per lane, not per row.
//!
//! Construction sits inside every simulation's wall time, and a metro-scale
//! network builds tens of thousands of UEs.  This test installs a counting
//! global allocator and builds 600 three-cell UEs on 6 cells from their
//! per-cell traces, counting every allocation of the build loop.  The
//! caller's part is five per UE (the configured-cell list, the trace vector
//! and its three traces: 3,000).  The network's part is only growth: of the
//! one row table and waypoint arena, the UE lane (its awake state one bit
//! per UE) and the lanes of the one cell each UE is attached to (294).  A
//! channel, row or trace allocated per UE, or attaching a UE to cells it is
//! not active on, raises the count.

use pbe_cellular::config::{CellConfig, CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::{CellLoadProfile, MobilityTrace, ShardedNetwork};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Allocations of the build loop below.  It read 6,962 when each UE was
/// added with one trace and every configured cell's trace then replaced,
/// and 4,478 when each UE still held a vector of channel models (each
/// cloning its trace) and a vector of rows, and 3,299 when the lane's awake
/// state was one `bool` per UE rather than one bit.  Change it only with the
/// construction path, and say why.
const BUILD_ALLOCATIONS: u64 = 3_294;

#[test]
fn building_multi_cell_ues_allocates_each_part_once() {
    let config = CellularConfig {
        cells: (0..6)
            .map(|i| CellConfig::primary_20mhz(CellId(i)))
            .collect(),
        ..CellularConfig::default()
    };
    let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), 1, 1);
    let before = alloc_counter::allocation_count();
    for u in 0..600u32 {
        let primary = (u % 6) as u16;
        let cells: Vec<CellId> = (0..3).map(|k| CellId((primary + k) % 6)).collect();
        let rssi = -84.0 - f64::from(u % 20);
        let traces: Vec<MobilityTrace> = (0..3)
            .map(|k| MobilityTrace::from_secs(&[(0.0, rssi - f64::from(k)), (1.0, rssi - 5.0)]))
            .collect();
        net.add_ue_with_traces(UeConfig::new(UeId(u), cells, 2, rssi), &traces[0], |k| {
            traces.get(k)
        });
    }
    let allocations = alloc_counter::allocation_count() - before;
    assert_eq!(
        allocations, BUILD_ALLOCATIONS,
        "building 600 three-cell UEs allocated {allocations} times"
    );
}
