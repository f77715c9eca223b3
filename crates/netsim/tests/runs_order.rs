//! The backhaul's monotone-runs queue against a binary heap.
//!
//! [`MonotoneRuns`] replaced `BinaryHeap<Reverse<_>>` orderings (and an
//! ordered map) in the backhaul and the wire; the heap survives here only as
//! the reference model.  Over random push/pop interleavings the runs queue
//! must pop exactly what the heap pops: equal times (ties broken by the
//! sequence number), strictly descending times (one run per push) and runs
//! that empty and are reused.  A second property checks the patience-sorting
//! bound the backhaul relies on: a push stream merged from `k` nondecreasing
//! streams never holds more than `k` runs, whatever pops interleave.
//!
//! The queue is crate-private, so its source is compiled into this test.

#[path = "../src/runs.rs"]
mod runs;

use pbe_stats::time::Instant;
use proptest::prelude::*;
use runs::{Key, MonotoneRuns};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The two queues, fed the same operations.
struct Pair {
    runs: MonotoneRuns<u64>,
    heap: BinaryHeap<Reverse<(Key, u64)>>,
    seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            runs: MonotoneRuns::default(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, t: u64) {
        let key = (Instant::from_micros(t), self.seq);
        // The payload differs from the key so a mix-up would show.
        let item = self.seq.wrapping_mul(0x9e37_79b9);
        self.seq += 1;
        self.runs.push(key, item);
        self.heap.push(Reverse((key, item)));
    }

    /// Pop everything due by `bound` from both, requiring the same items in
    /// the same order.
    fn pop_due(&mut self, bound: u64) -> usize {
        let bound = Instant::from_micros(bound);
        let mut popped = 0;
        loop {
            let expected = match self.heap.peek() {
                Some(Reverse((key, _))) if key.0 <= bound => self.heap.pop().map(|Reverse(e)| e),
                _ => None,
            };
            let got = self.runs.pop_due(bound);
            assert_eq!(got, expected, "pop {popped} at bound {bound:?}");
            if got.is_none() {
                return popped;
            }
            popped += 1;
        }
    }
}

/// Replay `(op, t)` operations: `op` 0–2 pushes at time `t`, 3 pops what is
/// due by `t`, 4 drains the queue (emptying every run, so later pushes reuse
/// the spare buffers).
fn replay(ops: &[(u8, u64)]) {
    let mut pair = Pair::new();
    for &(op, t) in ops {
        match op {
            0..=2 => pair.push(t),
            3 => {
                pair.pop_due(t);
            }
            _ => {
                pair.pop_due(u64::MAX);
                assert_eq!(pair.runs.runs(), 0, "drained");
            }
        }
    }
    pair.pop_due(u64::MAX);
    assert!(pair.heap.is_empty() && pair.runs.runs() == 0);
}

proptest! {
    #[test]
    fn pops_match_a_binary_heap(ops in proptest::collection::vec((0u8..5, 0u64..200), 0..300)) {
        replay(&ops);
    }

    #[test]
    fn equal_times_pop_in_sequence_order(ops in proptest::collection::vec((0u8..5, 0u64..3), 0..300)) {
        replay(&ops);
    }

    #[test]
    fn strictly_descending_times_open_a_run_each(n in 1usize..60, pops in 930u64..1_001) {
        let mut pair = Pair::new();
        for i in 0..n {
            pair.push(1_000 - i as u64);
            prop_assert_eq!(pair.runs.runs(), i + 1);
        }
        // Pop part of them, refill in descending order (reusing emptied
        // runs), then drain.
        let popped = pair.pop_due(pops);
        for i in 0..popped {
            pair.push(500 - i as u64);
        }
        pair.pop_due(u64::MAX);
        prop_assert_eq!(pair.runs.runs(), 0);
    }

    #[test]
    fn a_merge_of_k_nondecreasing_streams_holds_at_most_k_runs(
        k in 1usize..7,
        steps in proptest::collection::vec((0usize..7, 0u64..40, 0u8..6, 0u64..400), 1..400),
    ) {
        let mut pair = Pair::new();
        let mut tails = vec![0u64; k];
        for (stream, step, op, bound) in steps {
            if op == 0 {
                let now = tails.iter().min().copied().unwrap_or(0) + bound;
                pair.pop_due(now);
            } else {
                let s = stream % k;
                tails[s] += step;
                pair.push(tails[s]);
            }
            prop_assert!(pair.runs.runs() <= k, "{} runs from {} streams", pair.runs.runs(), k);
        }
        pair.pop_due(u64::MAX);
    }
}
