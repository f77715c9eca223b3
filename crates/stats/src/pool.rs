//! In-tree worker pool shared by the sweep harness and the sharded tick
//! engine.
//!
//! Two layers of the workspace need "run N independent jobs on all cores":
//! the sweep harness fans scenarios out (jobs are seconds long), and the
//! sharded cellular engine ticks a handful of shards every simulated
//! millisecond.  Both use one persistent [`WorkerPool`] whose threads park
//! on a condvar between batches, because spawning threads every millisecond
//! would cost more than the tick itself.  In the same spirit as the offline
//! stand-ins under `crates/compat/`, it is built directly on `std::thread`
//! instead of pulling in an external executor.
//!
//! There is one primitive, [`WorkerPool::for_each`]: every item of an
//! iterator goes to exactly one worker, together with its index.  Workers
//! claim items one at a time from the iterator behind a mutex, so a job gets
//! its item *by value* — a `&mut` into a slice, two of them zipped, a
//! disjoint sub-slice — and the borrow checker, not a raw pointer, proves
//! that no two jobs touch the same state.  [`WorkerPool::run_collect`] is
//! the one wrapper: results in index order, fail-fast.  Output order equals
//! input order no matter which worker ran what — the property every
//! determinism test in the workspace leans on.
//!
//! Job panics are *contained*: every item runs under `catch_unwind`, so one
//! panicking job can neither take down its siblings nor unwind through the
//! pool while other workers still hold the batch.  [`WorkerPool::for_each`]
//! returns panics as structured [`JobPanic`] records; `run_collect`
//! re-raises, but only *after* every in-flight job has drained.
//!
//! The module's one `unsafe` block is the lifetime erasure in
//! `WorkerPool::broadcast` that lets parked threads run a closure borrowed
//! from the caller's stack; every other crate of the workspace (outside
//! `compat/`) forbids `unsafe` outright.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A job index whose closure panicked, with the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The index passed to the job closure.
    pub index: usize,
    /// The panic payload, rendered to text (`&str` and `String` payloads are
    /// carried verbatim; anything else becomes a placeholder).
    pub message: String,
}

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

/// The task every worker runs once per batch.  The `'static` lifetime is a
/// lie told under controlled conditions: `WorkerPool::broadcast` erases the
/// caller's borrow to this type and neither returns nor unwinds until every
/// worker has finished the batch, so the reference never outlives the task.
type Task = &'static (dyn Fn() + Sync);

struct Gate {
    /// Monotonic batch counter; workers run one batch per increment.
    epoch: u64,
    /// The active batch's task.
    task: Option<Task>,
    /// Spawned workers still running the active batch.
    remaining: usize,
    /// Set when a worker's task panicked outside a job (a harness bug);
    /// re-raised on the calling thread.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Signals workers that a new batch (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that `remaining` reached zero.
    done: Condvar,
}

/// A persistent pool of worker threads executing batches.
///
/// `WorkerPool::new(workers)` spawns `workers - 1` OS threads; the thread
/// calling [`WorkerPool::for_each`] participates as the final worker, so
/// `new(1)` spawns nothing and runs every batch inline, in item order — the
/// serial baseline the byte-identity tests compare against.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Held for a whole batch, so callers on two threads sharing the pool
    /// take turns instead of publishing over each other's batch.
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Create a pool that executes batches on `workers` threads total
    /// (including the caller of [`WorkerPool::for_each`]).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                epoch: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (1..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            dispatch: Mutex::new(()),
        }
    }

    /// Run `job(i, item)` for the `i`-th item of `items` across the pool and
    /// block until every item has run.
    ///
    /// Each item goes to exactly one job, on an unspecified thread.  Panics
    /// are contained: every item runs (panicking ones under `catch_unwind`),
    /// and the panicked indices come back as [`JobPanic`] records in index
    /// order.  Calls from two threads sharing the pool take turns; a call
    /// from inside one of the pool's own jobs deadlocks.
    #[must_use = "job panics are returned, not raised"]
    pub fn for_each<I, F>(&self, items: I, job: F) -> Vec<JobPanic>
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let items = Mutex::new(items.into_iter().enumerate());
        let panics = Mutex::new(Vec::new());
        self.broadcast(&|| loop {
            // The claim lock is held for `next` only, never while a job runs.
            let Some((i, item)) = items.lock().expect("pool items poisoned").next() else {
                break;
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i, item))) {
                panics
                    .lock()
                    .expect("pool panic log poisoned")
                    .push(JobPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
            }
        });
        let mut panics = panics.into_inner().expect("pool panic log poisoned");
        // Claim order is nondeterministic across threads; report in index
        // order so callers see a stable failure list.
        panics.sort_by_key(|p| p.index);
        panics
    }

    /// Run `job(i)` for every `i in 0..count` and collect the results in
    /// index order.
    ///
    /// A panicking job is re-raised on the calling thread — but only after
    /// every other index has drained, so siblings complete and the pool stays
    /// usable.  Use [`WorkerPool::for_each`] over result slots to keep the
    /// completed results and receive panics as data instead.
    pub fn run_collect<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let panics = self.for_each(&mut slots, |i, slot| *slot = Some(job(i)));
        if let Some(p) = panics.first() {
            panic!(
                "worker pool job panicked at index {}: {}",
                p.index, p.message
            );
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index ran exactly once"))
            .collect()
    }

    /// Run `task` once on every worker, the caller included, and return when
    /// all of them have finished.
    #[allow(unsafe_code)]
    fn broadcast(&self, task: &(dyn Fn() + Sync)) {
        if self.threads.is_empty() {
            return task();
        }
        // The guarded value is `()`, so a poisoned lock holds nothing stale.
        let turn = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: workers can reach the erased reference only between the
        // publication below and the `remaining == 0` wait further down, and
        // `turn` keeps any other batch from being published in between.  The
        // caller's own run of `task` is caught, so this frame — which keeps
        // `task` alive — neither returns nor unwinds before that wait ends.
        let erased: Task = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(task) };
        {
            let mut gate = self.shared.gate.lock().expect("pool gate poisoned");
            gate.task = Some(erased);
            gate.epoch += 1;
            gate.remaining = self.threads.len();
            self.shared.work.notify_all();
        }
        // Participate as the final worker.
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut gate = self.shared.gate.lock().expect("pool gate poisoned");
        while gate.remaining > 0 {
            gate = self.shared.done.wait(gate).expect("pool gate poisoned");
        }
        gate.task = None;
        let worker_panicked = std::mem::take(&mut gate.panicked);
        drop(gate);
        drop(turn);
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("worker pool harness panicked outside a job");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut gate = self.shared.gate.lock().expect("pool gate poisoned");
            gate.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut gate = shared.gate.lock().expect("pool gate poisoned");
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch > seen_epoch {
                    seen_epoch = gate.epoch;
                    break gate.task.expect("task published with epoch");
                }
                gate = shared.work.wait(gate).expect("pool gate poisoned");
            }
        };
        // Job panics are caught per item inside the task; this outer catch
        // only trips on harness bugs (e.g. a poisoned lock), and exists so
        // `remaining` is decremented no matter what.
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut gate = shared.gate.lock().expect("pool gate poisoned");
        if outcome.is_err() {
            gate.panicked = true;
        }
        gate.remaining -= 1;
        if gate.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        let panics = WorkerPool::new(4).for_each(0..101, |i, item| {
            assert_eq!(i, item, "the index is the item's position");
            seen.lock().unwrap().push(i);
        });
        assert!(panics.is_empty());
        let ran = seen.into_inner().unwrap();
        assert_eq!(ran.len(), 101);
        assert_eq!(ran.iter().collect::<HashSet<_>>().len(), 101);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.run_collect(0, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
        let panics = pool.for_each(std::iter::empty::<u8>(), |_, _| unreachable!());
        assert!(panics.is_empty());
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
        let panics = pool.for_each(0..9, |i, _| {
            assert_eq!(std::thread::current().id(), caller, "ran inline");
            seen.lock().unwrap().push(i);
        });
        assert!(panics.is_empty());
        assert_eq!(seen.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_borrow_disjoint_mutable_items() {
        // Two slices zipped, plus a slice cut into uneven disjoint runs (the
        // shape the sharded tick engine hands its cell tick).
        let pool = WorkerPool::new(3);
        let mut left = vec![0u32; 5];
        let mut right = vec![0u32; 5];
        let panics = pool.for_each(left.iter_mut().zip(&mut right), |i, (l, r)| {
            *l = i as u32;
            *r = 10 * i as u32;
        });
        assert!(panics.is_empty());
        assert_eq!(
            (left, right),
            (vec![0, 1, 2, 3, 4], vec![0, 10, 20, 30, 40])
        );

        let mut flat = vec![0usize; 9];
        let mut rest = flat.as_mut_slice();
        let runs = [2usize, 4, 3].into_iter().map(move |len| {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            run
        });
        let panics = pool.for_each(runs, |i, run| run.fill(i + 1));
        assert!(panics.is_empty());
        assert_eq!(flat, vec![1, 1, 2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn callers_on_two_threads_take_turns() {
        // Without the dispatch lock, a second caller republishes its batch
        // while the first one's workers still run, and the first caller can
        // return while a worker still reads its stack.  The barrier starts
        // both callers' batches together every round.
        let pool = WorkerPool::new(3);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for caller in 0..2u64 {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    for round in 0..500u64 {
                        let mut slots = vec![0u64; 7];
                        start.wait();
                        let panics = pool.for_each(&mut slots, |i, slot| {
                            *slot = caller * 1_000_000 + round * 100 + i as u64;
                        });
                        assert!(panics.is_empty());
                        let want: Vec<u64> = (0..7)
                            .map(|i| caller * 1_000_000 + round * 100 + i)
                            .collect();
                        assert_eq!(slots, want, "caller {caller} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_job_loses_only_its_own_slot() {
        for workers in [1, 4] {
            let mut slots = vec![None; 13];
            let panics = WorkerPool::new(workers).for_each(&mut slots, |i, slot| {
                if i == 5 || i == 9 {
                    panic!("boom at {i}");
                }
                *slot = Some(i * 2);
            });
            for (i, slot) in slots.iter().enumerate() {
                if i == 5 || i == 9 {
                    assert_eq!(*slot, None, "panicked index {i} has no result");
                } else {
                    assert_eq!(*slot, Some(i * 2), "index {i} completed");
                }
            }
            assert_eq!(
                panics,
                vec![
                    JobPanic {
                        index: 5,
                        message: "boom at 5".to_string()
                    },
                    JobPanic {
                        index: 9,
                        message: "boom at 9".to_string()
                    },
                ],
                "panics are structured and in index order ({workers} workers)"
            );
        }
    }

    #[test]
    fn pool_survives_a_job_panic_and_stays_usable() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![None; 9];
        let panics = pool.for_each(&mut slots, |i, slot| {
            if i == 2 {
                panic!("transient");
            }
            *slot = Some(i + 100);
        });
        assert_eq!(panics.len(), 1);
        assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 8);
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
        let panics = WorkerPool::new(1).for_each(0..2, |i, _| {
            if i == 0 {
                panic!("plain str");
            }
            let detail = 42;
            panic!("formatted {detail}");
        });
        assert_eq!(panics[0].message, "plain str");
        assert_eq!(panics[1].message, "formatted 42");
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
