//! A time-ordered queue for pushes that are a merge of a few time-ordered
//! streams.
//!
//! The backhaul's ingress entries, its deliveries and the near-source
//! signals all come out in `(time, sequence)` order, and each is pushed as
//! an interleaving of a handful of streams that are already in that order:
//! one per distinct server delay for ingress, one per route tail for
//! deliveries, one per (server delay, upstream propagation) for signals.  A
//! binary heap would re-establish that order with a sift per push and per
//! pop.  [`MonotoneRuns`] keeps the streams' order instead: a push appends to
//! the run whose tail is the largest key not above it, so every run is
//! sorted, and a pop takes the smallest head among the runs.
//!
//! Run tails are kept strictly decreasing, which makes the first run that
//! fits also the best fit.  With that rule the number of runs never exceeds
//! the longest strictly decreasing subsequence of the keys ever pushed
//! (patience sorting), so a push stream merged from `k` nondecreasing streams
//! never holds more than `k` runs — one shared server delay makes the ingress
//! queue a single FIFO.  A run that empties leaves the ordered set but keeps
//! its buffer for the next run opened, so a steady state allocates nothing.

use pbe_stats::time::Instant;
use std::collections::VecDeque;

/// A queue key: a time, and a sequence number that makes it unique.
pub(crate) type Key = (Instant, u64);

/// A min-queue on unique [`Key`]s, kept as sorted runs (see the module doc).
#[derive(Debug)]
pub(crate) struct MonotoneRuns<T> {
    /// `runs[..live]` are the non-empty runs, their tail keys strictly
    /// decreasing with the index; `runs[live..]` are empty spare buffers.
    runs: Vec<VecDeque<(Key, T)>>,
    live: usize,
}

impl<T> Default for MonotoneRuns<T> {
    fn default() -> Self {
        MonotoneRuns {
            runs: Vec::new(),
            live: 0,
        }
    }
}

impl<T> MonotoneRuns<T> {
    /// Queue `item` under `key`, which no queued item may share.
    pub(crate) fn push(&mut self, key: Key, item: T) {
        let fits = self.runs[..self.live]
            .iter()
            .position(|run| run.back().is_some_and(|&(tail, _)| tail <= key));
        let run = match fits {
            Some(i) => i,
            None => {
                if self.live == self.runs.len() {
                    self.runs.push(VecDeque::new());
                }
                self.live += 1;
                self.live - 1
            }
        };
        self.runs[run].push_back((key, item));
    }

    /// Remove and return the smallest queued item if its time is at or
    /// before `bound`.
    pub(crate) fn pop_due(&mut self, bound: Instant) -> Option<(Key, T)> {
        let (key, i) = self.runs[..self.live]
            .iter()
            .enumerate()
            .map(|(i, run)| (run.front().expect("live runs are non-empty").0, i))
            .min()?;
        if key.0 > bound {
            return None;
        }
        let popped = self.runs[i].pop_front();
        if self.runs[i].is_empty() {
            // Move the emptied buffer past the live runs; the others keep
            // their order, so the tails stay strictly decreasing.
            self.runs[i..].rotate_left(1);
            self.live -= 1;
        }
        popped
    }

    /// Number of non-empty runs.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.live
    }
}
