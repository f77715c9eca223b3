//! Regression pin: building a network allocates for each part once.
//!
//! Construction sits inside every simulation's wall time, and a metro-scale
//! network builds tens of thousands of UEs.  This test installs a counting
//! global allocator and builds 600 three-cell UEs on 6 cells from their
//! per-cell traces, counting every allocation of the build loop: the
//! caller's configs and traces, one channel per configured cell, the UE
//! record, and the lanes of the one cell each UE is attached to.  Building a
//! channel twice (a shifted clone later replaced) or attaching a UE to cells
//! it is not active on raises the count.

use pbe_cellular::config::{CellConfig, CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::{CellLoadProfile, MobilityTrace, ShardedNetwork};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Allocations of the build loop below.  Adding each UE with one trace and
/// then replacing the trace of every configured cell allocated 6,962 times.
/// Change it only with the construction path, and say why.
const BUILD_ALLOCATIONS: u64 = 4_478;

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
        let traces = (0..3)
            .map(|k| MobilityTrace::from_secs(&[(0.0, rssi - f64::from(k)), (1.0, rssi - 5.0)]))
            .collect();
        net.add_ue_with_traces(UeConfig::new(UeId(u), cells, 2, rssi), traces);
    }
    let allocations = alloc_counter::allocation_count() - before;
    assert_eq!(
        allocations, BUILD_ALLOCATIONS,
        "building 600 three-cell UEs allocated {allocations} times"
    );
}
