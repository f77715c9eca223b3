//! Regression test: a `WorkerPool::for_each` dispatch allocates nothing.
//!
//! The sharded tick engine dispatches its cell tick every simulated
//! subframe, handing every worker a disjoint `&mut` run of cells and report
//! slots cut with `split_at_mut`.  This test installs a counting global
//! allocator and drives that shape, and two slices zipped, on a three-worker
//! pool: once the pool's threads exist, steady-state dispatch must perform
//! zero allocations and zero frees on any thread.

use pbe_stats::WorkerPool;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// One subframe's worth of dispatches over preallocated shard state.
fn tick(pool: &WorkerPool, cells: &mut [Vec<u64>], ues: &mut [u64], reports: &mut [u64]) {
    let panics = pool.for_each(cells.iter_mut().zip(&mut *ues), |i, (cells, ue)| {
        cells.iter_mut().for_each(|c| *c += 1);
        *ue += i as u64;
    });
    assert!(panics.is_empty());

    let mut rest = reports;
    let runs = cells.iter().map(move |cells| {
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(cells.len());
        rest = tail;
        (cells, run)
    });
    let panics = pool.for_each(runs, |_, (cells, run)| {
        run.copy_from_slice(cells);
    });
    assert!(panics.is_empty());
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    let pool = WorkerPool::new(3);
    let mut cells: Vec<Vec<u64>> = vec![vec![0; 2], vec![0; 4], vec![0; 3]];
    let mut ues = vec![0u64; 3];
    let mut reports = vec![0u64; 9];
    // Warm up: the first batches may touch lazily initialised thread state.
    for _ in 0..3 {
        tick(&pool, &mut cells, &mut ues, &mut reports);
    }

    let (allocs, frees) = (
        alloc_counter::allocation_count(),
        alloc_counter::deallocation_count(),
    );
    for _ in 0..100 {
        tick(&pool, &mut cells, &mut ues, &mut reports);
    }
    let allocs = alloc_counter::allocation_count() - allocs;
    let frees = alloc_counter::deallocation_count() - frees;
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "100 steady-state subframes of pool dispatch allocated {allocs} and freed {frees} times"
    );
    assert_eq!(reports, vec![103; 9], "every run saw its own cells");
}
