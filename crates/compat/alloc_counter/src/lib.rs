//! A counting global allocator for zero-allocation regression tests.
//!
//! Install it as the test binary's `#[global_allocator]` and bracket the code
//! under test with [`allocation_count`] snapshots:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//!
//! let before = alloc_counter::allocation_count();
//! hot_path();
//! assert_eq!(alloc_counter::allocation_count(), before, "hot path allocated");
//! ```
//!
//! Counting is a single relaxed atomic increment per `alloc`/`realloc`, so
//! wrapping the system allocator does not disturb the timing of what it
//! measures.  The calling thread's frees are counted separately
//! ([`thread_deallocation_count`]); a steady-state hot path should show zero
//! of both.
//!
//! The process-wide counts include every thread, so another thread's
//! allocation — the test harness's, say — can land inside a bracket.  Code
//! that runs entirely on the calling thread is bracketed with
//! [`thread_allocation_count`] and [`thread_deallocation_count`] instead,
//! which count the calling thread only.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading or bumping them
    // never allocates, which the allocator itself relies on.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

fn count_dealloc() {
    THREAD_DEALLOCS.with(|n| n.set(n.get() + 1));
}

/// Wraps the system allocator, counting every allocation.
pub struct CountingAllocator;

/// Number of `alloc`/`realloc` calls since process start.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Number of `alloc`/`realloc` calls the calling thread has made.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Number of `dealloc` calls the calling thread has made.
pub fn thread_deallocation_count() -> u64 {
    THREAD_DEALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_dealloc();
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator here (other tests in the same
    // binary allocate freely); exercise the trait methods directly.
    #[test]
    fn counts_allocations_and_frees() {
        let a = allocation_count();
        let d = thread_deallocation_count();
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let p = CountingAllocator.alloc(layout);
            assert!(!p.is_null());
            let p = CountingAllocator.realloc(p, layout, 128);
            assert!(!p.is_null());
            CountingAllocator.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(allocation_count() - a, 2);
        assert_eq!(thread_deallocation_count() - d, 1);
    }

    #[test]
    fn thread_counts_see_only_the_calling_thread() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        let (a, d) = (thread_allocation_count(), thread_deallocation_count());
        std::thread::spawn(move || unsafe {
            let p = CountingAllocator.alloc(layout);
            CountingAllocator.dealloc(p, layout);
        })
        .join()
        .unwrap();
        assert_eq!(
            (thread_allocation_count(), thread_deallocation_count()),
            (a, d)
        );
        unsafe {
            let p = CountingAllocator.alloc_zeroed(layout);
            CountingAllocator.dealloc(p, layout);
        }
        assert_eq!(thread_allocation_count() - a, 1);
        assert_eq!(thread_deallocation_count() - d, 1);
    }
}
