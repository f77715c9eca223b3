//! In-tree worker pool shared by the sweep harness and the sharded tick
//! engine.
//!
//! Two layers of the workspace need "run N independent jobs on all cores":
//! the sweep harness fans scenarios out across processes-worth of work per
//! job, and the sharded cellular engine ticks a handful of shards every
//! simulated millisecond.  The first shape is served by
//! [`run_indexed_partial`] (spawn, run, join — jobs are seconds long, thread
//! startup is noise); the second by a persistent [`WorkerPool`] whose
//! threads park on a condvar between subframes, because spawning threads
//! every millisecond would cost more than the tick itself.
//!
//! In the same spirit as the offline stand-ins under `crates/compat/`, both
//! are implemented directly on `std::thread` instead of pulling in an
//! external executor.  Workers claim contiguous chunks of the index range
//! from a shared atomic cursor (cheap, and neighbouring jobs tend to have
//! similar cost, which keeps the tail balanced); every result is written to
//! its own index's slot, so output order equals input order no matter which
//! worker ran what — the property every determinism test in the workspace
//! leans on.

//! Job panics are *contained*: every index runs under `catch_unwind`, so one
//! panicking job can neither take down sibling jobs in its chunk nor unwind
//! through the pool's gate while other workers still hold the (lifetime-
//! laundered) job reference.  The `*_partial` entry points surface panics as
//! structured [`JobPanic`] records next to the results that did complete;
//! the classic entry points keep their fail-fast contract but only re-raise
//! *after* every in-flight job has drained.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// A raw pointer that may cross thread boundaries.
///
/// Soundness is the caller's obligation: every use in this module hands each
/// claimed index to exactly one worker, so the pointed-to slots are accessed
/// by at most one thread at a time.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i` of the array this points at.  Going through a
    /// method (rather than the field) makes closures capture the whole
    /// `SendPtr`, which carries the `Sync` promise.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: callers only pass indices inside the allocation.
        unsafe { self.0.add(i) }
    }
}

/// The job reference workers execute.  The `'static` lifetime is a lie told
/// under controlled conditions: [`WorkerPool::run`] transmutes the caller's
/// stack closure to this type and does not return until every worker has
/// finished the epoch, so the reference never outlives the closure.
type Job = &'static (dyn Fn(usize) + Sync);

struct Gate {
    /// Monotonic batch counter; workers run one batch per increment.
    epoch: u64,
    /// The active batch: job, index count, chunk size.
    batch: Option<(Job, usize, usize)>,
    /// Spawned workers still running the active batch.
    remaining: usize,
    /// Set when a worker's job panicked; re-raised on the calling thread.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Signals workers that a new batch (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that `remaining` reached zero.
    done: Condvar,
    /// Next unclaimed index of the active batch.
    cursor: AtomicUsize,
    /// Indices whose job panicked during the active batch.
    panics: Mutex<Vec<JobPanic>>,
}

/// A persistent pool of worker threads executing indexed batches.
///
/// `WorkerPool::new(workers)` spawns `workers - 1` OS threads; the thread
/// calling [`WorkerPool::run`] participates as the final worker, so
/// `new(1)` spawns nothing and runs every batch inline — the serial
/// baseline the byte-identity tests compare against.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Create a pool that executes batches on `workers` threads total
    /// (including the caller of [`WorkerPool::run`]).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                epoch: 0,
                batch: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
        });
        let threads = (1..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Total worker count, including the calling thread.
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Run `job(i)` for every `i in 0..count` across the pool and block until
    /// all indices have run.
    ///
    /// `job` must depend only on `i` (and captured shared state) — each index
    /// runs exactly once, on an unspecified thread.  With a single-worker
    /// pool the indices run inline in ascending order.
    ///
    /// A panicking job is re-raised on the calling thread — but only after
    /// every other in-flight index has drained, so siblings complete and the
    /// pool stays usable.  Use [`WorkerPool::run_partial`] to receive panics
    /// as data instead.
    pub fn run<F>(&self, count: usize, job: F)
    where
        F: Fn(usize) + Sync,
    {
        let panics = self.run_partial(count, job);
        if let Some(p) = panics.first() {
            panic!(
                "worker pool job panicked at index {}: {}",
                p.index, p.message
            );
        }
    }

    /// Run `job(i)` for every `i in 0..count`, containing panics: every index
    /// runs (panicking ones under `catch_unwind`), and the panicked indices
    /// come back as [`JobPanic`] records in index order.
    pub fn run_partial<F>(&self, count: usize, job: F) -> Vec<JobPanic>
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        if self.threads.is_empty() {
            let mut panics = Vec::new();
            for i in 0..count {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                    panics.push(JobPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
            return panics;
        }
        let chunk = (count / (self.workers() * 4)).max(1);
        let job_ref: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY: the reference is only reachable by workers between the
        // batch publication below and the `remaining == 0` wait at the end of
        // this function, during which `job` is alive on this stack frame.
        // Jobs run under per-index `catch_unwind`, so a panicking job cannot
        // unwind this frame while workers still hold the reference.
        let job_static: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job_ref)
        };
        {
            let mut gate = self.shared.gate.lock().expect("pool gate poisoned");
            self.shared.cursor.store(0, Ordering::Relaxed);
            self.shared
                .panics
                .lock()
                .expect("pool panic log poisoned")
                .clear();
            gate.batch = Some((job_static, count, chunk));
            gate.epoch += 1;
            gate.remaining = self.threads.len();
            self.shared.work.notify_all();
        }
        // Participate as the final worker.
        run_chunks(&self.shared.cursor, count, chunk, &job, &self.shared.panics);
        let mut gate = self.shared.gate.lock().expect("pool gate poisoned");
        while gate.remaining > 0 {
            gate = self.shared.done.wait(gate).expect("pool gate poisoned");
        }
        gate.batch = None;
        if std::mem::take(&mut gate.panicked) {
            drop(gate);
            panic!("worker pool harness panicked outside a job");
        }
        drop(gate);
        let mut panics =
            std::mem::take(&mut *self.shared.panics.lock().expect("pool panic log poisoned"));
        // Claim order is nondeterministic across threads; report in index
        // order so callers see a stable failure list.
        panics.sort_by_key(|p| p.index);
        panics
    }

    /// Run `job(i)` for every index and collect the results in index order.
    ///
    /// Panics (after draining, like [`WorkerPool::run`]) if any job panicked;
    /// use [`WorkerPool::run_collect_partial`] to keep the completed results.
    pub fn run_collect<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let (slots, panics) = self.run_collect_partial(count, job);
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

    /// Run `job(i)` for every index, containing panics.  Returns one slot per
    /// index — `Some(result)` where the job completed, `None` where it
    /// panicked — plus the panic records in index order.
    pub fn run_collect_partial<T, F>(&self, count: usize, job: F) -> (Vec<Option<T>>, Vec<JobPanic>)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let base = SendPtr(slots.as_mut_ptr());
        let panics = self.run_partial(count, |i| {
            // SAFETY: each index is claimed exactly once, so this is the only
            // thread writing slot `i`, and `slots` outlives `run_partial`.
            // A panicking `job(i)` leaves slot `i` untouched (`None`).
            unsafe { *base.at(i) = Some(job(i)) };
        });
        (slots, panics)
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
        let (job, count, chunk) = {
            let mut gate = shared.gate.lock().expect("pool gate poisoned");
            loop {
                if gate.shutdown {
                    return;
                }
                if gate.epoch > seen_epoch {
                    seen_epoch = gate.epoch;
                    break gate.batch.expect("batch published with epoch");
                }
                gate = shared.work.wait(gate).expect("pool gate poisoned");
            }
        };
        // Job panics are caught per index inside `run_chunks`; this outer
        // catch only trips on harness bugs (e.g. a poisoned panic log), and
        // exists so `remaining` is decremented no matter what.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(&shared.cursor, count, chunk, job, &shared.panics);
        }));
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

fn run_chunks<F>(
    cursor: &AtomicUsize,
    count: usize,
    chunk: usize,
    job: &F,
    panics: &Mutex<Vec<JobPanic>>,
) where
    F: Fn(usize) + Sync + ?Sized,
{
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= count {
            break;
        }
        for i in start..(start + chunk).min(count) {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                panics
                    .lock()
                    .expect("pool panic log poisoned")
                    .push(JobPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                    });
            }
        }
    }
}

/// Run `count` independent jobs across `workers` OS threads and collect the
/// results in index order, containing panics.
///
/// The one-shot entry point the sweep harness uses: builds a [`WorkerPool`],
/// runs the batch, and tears the pool down.  `job(i)` must depend only on
/// `i` (and captured shared state) — each index runs exactly once, on an
/// unspecified thread.  With `workers <= 1` the jobs run inline on the
/// calling thread, which is the serial baseline the determinism tests
/// compare against.  The result carries one slot per index (`None` where
/// the job panicked) plus the [`JobPanic`] records in index order: a failure
/// loses exactly its own slot, never the batch.
pub fn run_indexed_partial<T, F>(
    count: usize,
    workers: usize,
    job: F,
) -> (Vec<Option<T>>, Vec<JobPanic>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // A one-worker pool spawns nothing and runs the batch inline.
    WorkerPool::new(workers.clamp(1, count.max(1))).run_collect_partial(count, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 4, 7] {
            let (out, panics) = run_indexed_partial(23, workers, |i| i * i);
            assert!(panics.is_empty());
            assert_eq!(out, (0..23).map(|i| Some(i * i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        WorkerPool::new(4).run(101, |i| seen.lock().unwrap().push(i));
        let ran = seen.into_inner().unwrap();
        assert_eq!(ran.len(), 101);
        assert_eq!(ran.iter().collect::<HashSet<_>>().len(), 101);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (out, panics): (Vec<Option<u8>>, _) =
            run_indexed_partial(0, 4, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty() && panics.is_empty());
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
        assert_eq!(pool.workers(), 1);
        let seen = Mutex::new(Vec::new());
        pool.run(9, |i| seen.lock().unwrap().push(i));
        assert_eq!(seen.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_loses_only_its_own_slot() {
        for workers in [1, 4] {
            let (slots, panics) = run_indexed_partial(13, workers, |i| {
                if i == 5 || i == 9 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(slots.len(), 13);
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
        let (slots, panics) = pool.run_collect_partial(9, |i| {
            if i == 2 {
                panic!("transient");
            }
            i + 100
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
            pool.run(21, |i| {
                ran.lock().unwrap().insert(i);
                if i == 3 {
                    panic!("index 3 is poison");
                }
            });
        }));
        let message = panic_message(outcome.expect_err("run re-raises the job panic").as_ref());
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
        let (_, panics) = run_indexed_partial(2, 1, |i| {
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
