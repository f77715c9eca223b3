//! Regression pin: compiling a city allocates per emitted part, not per
//! candidate cell.
//!
//! `CityScale::scenario` checks each UE's path against every cell of a
//! subgrid around it (25–30 cells on a 10×10 drive) and keeps at most
//! four.  This test installs a counting global allocator and counts every
//! allocation of compiling a 1,000-UE 10×10 drive over 200 ms.  Each UE
//! emits its configured-cell list, its stationary trace and one trace per
//! kept cell (1,000 + 1,000 + 3,756); the rest is the growth of the spec's
//! vectors and of the pass's reused buffers (54).

use pbe_bench::sweep::CityScale;
use pbe_stats::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Allocations of the compile below.  It read 38,334 when every candidate
/// cell's trace was a vector of its own and each UE's path and candidate
/// ids were fresh vectors too.  An allocation per candidate cell adds about
/// 29,500.  Change it only with the compiler, and say why.
const COMPILE_ALLOCATIONS: u64 = 5_810;

#[test]
fn compiling_a_city_allocates_per_kept_cell() {
    let mut city = CityScale::driving(10, 10, 1_000);
    city.duration = Duration::from_millis(200);
    let before = alloc_counter::thread_allocation_count();
    let spec = city.scenario();
    let allocations = alloc_counter::thread_allocation_count() - before;
    assert_eq!(spec.ues.len(), 1_000);
    assert_eq!(spec.trajectories.len(), 3_756);
    assert_eq!(
        allocations, COMPILE_ALLOCATIONS,
        "compiling a 1,000-UE city allocated {allocations} times"
    );
}
