//! Regression test: the steady-state tick of an idle network allocates
//! nothing.
//!
//! Idle UEs are the bulk of a metro-scale network, and a tick that allocated
//! per UE would make them cost something after all.  This test installs a
//! counting global allocator, builds 600 two-cell UEs on 6 cells with no
//! traffic, warms the network up for 400 subframes (every UE joins asleep)
//! and then requires zero allocations across 200
//! further subframes — ordinary ones and the A3 measurement subframes that
//! visit every sleeper — on one shard and on three, whose cell tick runs on
//! the worker pool.
//!
//! A *loaded* tick still allocates: the same network with 6 UEs receiving
//! four packets each per subframe made about 14 allocations per subframe.
//! Bringing that to zero is separate, open work.

use pbe_cellular::config::{CellConfig, CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::handover;
use pbe_cellular::network::NetworkTickReport;
use pbe_cellular::{CellLoadProfile, MobilityTrace, ShardedNetwork};
use pbe_stats::time::Instant;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

#[test]
fn idle_network_steady_state_tick_allocates_nothing() {
    // Three shards dispatch the cell tick to the worker pool every subframe:
    // that dispatch must not allocate either.
    for shards in [1, 3] {
        let config = CellularConfig {
            cells: (0..6)
                .map(|i| CellConfig::primary_20mhz(CellId(i)))
                .collect(),
            ..CellularConfig::default()
        };
        let handover_config = config.handover;
        let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), 1, shards);
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
        let before = alloc_counter::allocation_count();
        for sf in 400..600u64 {
            let now = Instant::from_millis(sf);
            net.tick_into(now, &mut report);
            measurement_subframes +=
                usize::from(handover::is_measurement_subframe(&handover_config, now));
        }
        let allocations = alloc_counter::allocation_count() - before;
        assert!(measurement_subframes >= 4, "A3 measured the sleepers");
        assert!(report.handovers.is_empty() && report.dci_messages.is_empty());
        assert_eq!(
            allocations, 0,
            "{shards} shards: the idle steady-state tick allocated {allocations} times"
        );
    }
}
