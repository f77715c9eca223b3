//! Measurement, statistics and deterministic-randomness utilities shared by
//! every crate in the PBE-CC reproduction.
//!
//! The crate deliberately has no knowledge of cellular or transport concepts;
//! it provides the numeric plumbing the rest of the workspace builds on:
//!
//! * [`time`] — the integer microsecond time base used by the simulator and
//!   the cellular MAC (1 ms subframes are expressed in this base).
//! * [`rng`] — a splittable, deterministic random-number generator so that a
//!   single `u64` seed reproduces an entire experiment bit-for-bit.
//! * [`hash`] — stable 128-bit FNV-1a content hashing for the artifact result
//!   store's point keys and the result digests tests pin.
//! * [`pool`] — the in-tree [`WorkerPool`] the sweep harness runs its
//!   independent simulations on: a worker count whose
//!   [`WorkerPool::run_collect`] returns results in index order.
//! * [`percentile`](mod@percentile), [`cdf`], [`window`], [`jain`],
//!   [`summary`] — the
//!   order-statistics, empirical-CDF, time-window aggregation, fairness-index
//!   and per-flow summary machinery the paper's evaluation plots are built
//!   from (throughput averaged over 100 ms windows, 95th-percentile one-way
//!   delay, Jain's fairness index over allocated PRBs, …).

#![forbid(unsafe_code)]

pub mod cdf;
pub mod fxhash;
pub mod hash;
pub mod jain;
pub mod percentile;
pub mod pool;
pub mod rng;
pub mod summary;
pub mod time;
pub mod window;

pub use cdf::Cdf;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hash::{fnv1a_128, fnv1a_128_hex};
pub use jain::jain_index;
pub use percentile::{percentile, OnlineStats};
pub use pool::WorkerPool;
pub use rng::{derive_seed, DetRng};
pub use summary::FlowSummary;
pub use time::{Duration, Instant, MICROS_PER_MS, MICROS_PER_SEC};
pub use window::WindowAggregator;
