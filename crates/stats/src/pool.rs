//! In-tree worker pool of the sweep harness.
//!
//! The paper's evaluation is a grid of independent runs, and
//! `artifact::run_cached` runs them one whole simulation per job.  A
//! [`WorkerPool`] is a worker count: [`WorkerPool::run_collect`] spawns its
//! workers inside one `std::thread::scope`, they claim indices from an
//! atomic cursor, and all are joined before it returns, so no thread
//! outlives a call.  Results come back in index order whichever worker ran
//! what — the property every determinism test in the workspace leans on.
//! It is built on `std::thread` alone, like the offline stand-ins under
//! `crates/compat/`, and needs no `unsafe`.
//!
//! Every job runs under `catch_unwind`, so a panicking job cannot take down
//! its siblings; `run_collect` re-raises the panic of the lowest failing
//! index only after every other job has drained.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Render a panic payload (as returned by `catch_unwind`) to text.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A number of worker threads for batches of independent jobs.
///
/// The caller of [`WorkerPool::run_collect`] is one of the workers, so
/// `WorkerPool::new(1)` spawns nothing and runs every batch inline, in index
/// order — the serial baseline the byte-identity tests compare against.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool that runs batches on `workers` threads in total, the caller
    /// included (at least one).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Run `job(i)` for every `i in 0..count` and collect the results in
    /// index order.
    ///
    /// A panicking job is re-raised on the calling thread — but only after
    /// every other index has drained, so siblings complete and the pool stays
    /// usable.
    pub fn run_collect<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let cursor = AtomicUsize::new(0);
        // One worker's share: each index it claimed, with the job's outcome.
        let drain = || {
            let mut done = Vec::new();
            loop {
                // Relaxed: the cursor only hands out distinct indices; the
                // results reach the caller through the joins.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return done;
                }
                done.push((i, catch_unwind(AssertUnwindSafe(|| job(i)))));
            }
        };
        let spawned = self.workers.min(count).saturating_sub(1);
        let mut outcomes = std::thread::scope(|s| {
            let handles: Vec<_> = (0..spawned).map(|_| s.spawn(drain)).collect();
            let mut outcomes = drain();
            for handle in handles {
                // Jobs are caught inside `drain`, so a worker cannot panic.
                outcomes.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            outcomes
        });
        outcomes.sort_unstable_by_key(|(i, _)| *i);
        outcomes
            .into_iter()
            .map(|(i, outcome)| {
                outcome.unwrap_or_else(|payload| {
                    let message = panic_message(payload.as_ref());
                    panic!("worker pool job panicked at index {i}: {message}")
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 4, 7] {
            let out = WorkerPool::new(workers).run_collect(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        WorkerPool::new(4).run_collect(101, |i| seen.lock().unwrap().push(i));
        let ran = seen.into_inner().unwrap();
        assert_eq!(ran.len(), 101);
        assert_eq!(ran.iter().collect::<HashSet<_>>().len(), 101);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.run_collect(0, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..20u64 {
            let out = pool.run_collect(17, |i| round * 100 + i as u64);
            assert_eq!(out, (0..17).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_worker_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.run_collect(9, |i| {
            assert_eq!(std::thread::current().id(), caller, "ran inline");
            seen.lock().unwrap().push(i);
        });
        assert_eq!(seen.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_a_job_panic_and_stays_usable() {
        let pool = WorkerPool::new(3);
        let outcome = std::panic::catch_unwind(|| {
            pool.run_collect(9, |i| {
                if i == 2 {
                    panic!("transient");
                }
            })
        });
        assert!(outcome.is_err());
        // The same pool runs a clean batch afterwards — no wedged workers, no
        // leaked panic records.
        let out = pool.run_collect(7, |i| i * 3);
        assert_eq!(out, (0..7).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_reraises_only_after_draining_every_other_job() {
        let pool = WorkerPool::new(4);
        let ran = Mutex::new(HashSet::new());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_collect(21, |i| {
                ran.lock().unwrap().insert(i);
                if i == 3 {
                    panic!("index 3 is poison");
                }
            });
        }));
        let message = panic_message(outcome.expect_err("run_collect re-raises").as_ref());
        assert!(
            message.contains("index 3") && message.contains("poison"),
            "re-raise names the failing index and payload: {message}"
        );
        assert_eq!(
            ran.into_inner().unwrap().len(),
            21,
            "every index ran before the re-raise — partial work is not lost"
        );
    }

    #[test]
    fn panic_payloads_render_for_str_and_string() {
        let render = |job: fn()| panic_message(catch_unwind(job).expect_err("panics").as_ref());
        assert_eq!(render(|| panic!("plain str")), "plain str");
        assert_eq!(
            render(|| {
                let detail = 42;
                panic!("formatted {detail}")
            }),
            "formatted 42"
        );
    }

    #[test]
    fn output_order_is_independent_of_completion_order() {
        // Make low indices finish last: the slot-per-index write discipline
        // must still return results in index order.
        let pool = WorkerPool::new(4);
        let out = pool.run_collect(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i * 7
        });
        assert_eq!(out, (0..16).map(|i| i * 7).collect::<Vec<_>>());
    }
}
