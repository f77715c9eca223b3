//! In-order delivery: the RLC reordering buffer.
//!
//! The mobile buffers every transport block received out of sequence until
//! the erroneous block ahead of it is successfully retransmitted, then
//! releases the whole run to upper layers at once (paper §3, Fig. 3).  A
//! retransmission therefore delays not only the packets in the erroneous
//! block (by a multiple of 8 ms) but also the packets in the following blocks
//! (by 7 ms down to 0 ms).  If a block exhausts its retransmissions the gap
//! is abandoned and delivery resumes.

use crate::harq::{
    SegmentPool, TransportBlock, MAX_RETRANSMISSIONS, RETRANSMISSION_DELAY_SUBFRAMES,
};
use pbe_stats::time::Instant;

/// Slots of a new ring: a power of two past the HARQ window.  A cell sends
/// a UE at most one new block per subframe, and the head of line is settled
/// at its last retransmission, `3 × 8` subframes after it was first sent, so
/// no block lands further ahead than that and the ring never has to grow.
const MIN_SLOTS: usize = (HARQ_WINDOW + 1).next_power_of_two();

/// Subframes from a block's first transmission to its last retransmission.
const HARQ_WINDOW: usize = MAX_RETRANSMISSIONS as usize * RETRANSMISSION_DELAY_SUBFRAMES as usize;

/// Storage the reordering buffers of a network share: rings of slots and
/// the segment buffers of the blocks they hold.
#[derive(Debug, Default)]
pub struct ReorderPool {
    rings: Vec<Vec<Slot>>,
    segments: SegmentPool,
}

/// One sequence-indexed slot.
#[derive(Debug, Default)]
struct Slot {
    held: bool,
    received_at: Instant,
    block: TransportBlock,
}

/// Per-(UE, cell) reordering buffer keyed by RLC sequence number.
///
/// Releases are handed to a callback as `(block, released_at)`, in sequence
/// order, where `released_at` is the later of the release time and the time
/// the block itself was received.  A block that arrives in order while
/// nothing is buffered — nearly every block — is released straight from the
/// caller's borrow and never copied.  Blocks that arrive ahead of a gap are
/// copied into a ring of slots indexed by `sequence` modulo its length.
/// Ring and copies are storage borrowed from a [`ReorderPool`] while a gap
/// is open and returned once the buffer holds nothing, so a UE that is never
/// reordered holds none, and a network's buffers share what the most gaps
/// ever open at once needed.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    /// Next sequence number expected for in-order release.
    next_expected: u64,
    /// Blocks received ahead of `next_expected`, each at `sequence % len`;
    /// the length is a power of two while a block is held and zero
    /// otherwise.
    slots: Vec<Slot>,
    /// Number of held slots.
    held: usize,
}

impl ReorderBuffer {
    /// New buffer expecting sequence 0 first.
    pub fn new() -> Self {
        ReorderBuffer::default()
    }

    /// Sequence number the buffer is waiting for.
    #[cfg(test)]
    fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Number of blocks currently buffered out of order.
    #[cfg(test)]
    pub(crate) fn buffered_count(&self) -> usize {
        self.held
    }

    fn index(&self, sequence: u64) -> usize {
        sequence as usize & (self.slots.len() - 1)
    }

    /// A transport block was received correctly at `now`.  Releases every
    /// block that can now be released in order (none if the block is ahead
    /// of a gap).
    pub fn on_block_received(
        &mut self,
        block: &TransportBlock,
        now: Instant,
        pool: &mut ReorderPool,
        mut release: impl FnMut(&TransportBlock, Instant),
    ) {
        if block.sequence < self.next_expected {
            // Duplicate of an already-released block (e.g. a late HARQ
            // success after the gap was abandoned); ignore it.
            return;
        }
        if block.sequence == self.next_expected {
            // The head of line: it goes before anything buffered.
            self.next_expected += 1;
            release(block, now);
            self.release_in_order(now, pool, release);
            return;
        }
        // Ahead of a gap: the slot at `next_expected` stays empty, so
        // nothing is released.
        if self.slots.is_empty() {
            self.slots = pool.rings.pop().unwrap_or_default();
        }
        let ahead = (block.sequence - self.next_expected) as usize;
        if ahead >= self.slots.len() {
            self.grow(ahead + 1);
        }
        let i = self.index(block.sequence);
        let slot = &mut self.slots[i];
        let buffer = if slot.held {
            // A second copy of a held block replaces the first.
            std::mem::take(&mut slot.block.segments)
        } else {
            self.held += 1;
            pool.segments.take()
        };
        slot.held = true;
        slot.received_at = now;
        slot.block = block.copy_into(buffer);
    }

    /// The network abandoned the block with this sequence number (it failed
    /// its last retransmission).  Skips the gap and releases any blocks
    /// that become releasable.
    pub fn on_block_abandoned(
        &mut self,
        sequence: u64,
        now: Instant,
        pool: &mut ReorderPool,
        release: impl FnMut(&TransportBlock, Instant),
    ) {
        // An abandoned block that is not the head of line simply never
        // arrives; nothing to release yet.
        if sequence == self.next_expected {
            self.next_expected += 1;
            self.release_in_order(now, pool, release);
        }
    }

    /// Release everything still buffered, in sequence order regardless of
    /// gaps, and reset the buffer to expect sequence 0 again.
    ///
    /// This is the RLC re-establishment a handover performs: blocks held
    /// behind a gap are flushed to upper layers (their gaps are forwarded to
    /// the target cell instead of retransmitted here), and the target cell
    /// starts a fresh sequence space.
    pub fn flush(
        &mut self,
        now: Instant,
        pool: &mut ReorderPool,
        mut release: impl FnMut(&TransportBlock, Instant),
    ) {
        // Every held sequence lies within one ring length of `next_expected`.
        let mut sequence = self.next_expected;
        while self.held > 0 {
            let i = self.index(sequence);
            if self.slots[i].held {
                self.release_slot(i, now, pool, &mut release);
            }
            sequence += 1;
        }
        self.next_expected = 0;
    }

    fn release_in_order(
        &mut self,
        now: Instant,
        pool: &mut ReorderPool,
        mut release: impl FnMut(&TransportBlock, Instant),
    ) {
        while self.held > 0 {
            let i = self.index(self.next_expected);
            if !self.slots[i].held {
                break;
            }
            self.next_expected += 1;
            self.release_slot(i, now, pool, &mut release);
        }
    }

    /// Release the block held in slot `i`, returning its buffer to `pool`,
    /// and the ring too if it now holds nothing.
    fn release_slot(
        &mut self,
        i: usize,
        now: Instant,
        pool: &mut ReorderPool,
        release: &mut impl FnMut(&TransportBlock, Instant),
    ) {
        let slot = &mut self.slots[i];
        slot.held = false;
        self.held -= 1;
        release(&slot.block, now.max(slot.received_at));
        pool.segments.give(std::mem::take(&mut slot.block.segments));
        if self.held == 0 {
            pool.rings.push(std::mem::take(&mut self.slots));
        }
    }

    /// Grow the ring to reach at least `span` sequences past
    /// `next_expected`, moving every held block to its new slot (an empty
    /// slot holds no buffer).
    fn grow(&mut self, span: usize) {
        let len = span.next_power_of_two().max(MIN_SLOTS);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(len, Slot::default);
        for slot in old.into_iter().filter(|s| s.held) {
            let i = self.index(slot.block.sequence);
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harq::Segment;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn block(seq: u64) -> TransportBlock {
        TransportBlock {
            id: 1000 + seq,
            sequence: seq,
            tbs_bits: 8_000,
            num_prbs: 10,
            segments: vec![Segment {
                packet_id: seq,
                bytes: 1000,
                is_last: true,
            }],
            first_tx_subframe: seq,
        }
    }

    fn ms(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    /// What one call released: (sequence, released_at) per block, in order.
    type Released = Vec<(u64, Instant)>;

    fn receive(buf: &mut ReorderBuffer, b: TransportBlock, now: Instant) -> Released {
        let mut out = Vec::new();
        let pool = &mut ReorderPool::default();
        buf.on_block_received(&b, now, pool, |b, at| out.push((b.sequence, at)));
        out
    }

    fn abandon(buf: &mut ReorderBuffer, sequence: u64, now: Instant) -> Released {
        let mut out = Vec::new();
        let pool = &mut ReorderPool::default();
        buf.on_block_abandoned(sequence, now, pool, |b, at| out.push((b.sequence, at)));
        out
    }

    #[test]
    fn in_order_blocks_release_immediately() {
        let mut buf = ReorderBuffer::new();
        for seq in 0..5 {
            assert_eq!(receive(&mut buf, block(seq), ms(seq)), [(seq, ms(seq))]);
        }
        assert_eq!(buf.buffered_count(), 0);
        assert_eq!(buf.next_expected(), 5);
        assert!(
            buf.slots.is_empty(),
            "in-order traffic never grows the ring"
        );
    }

    #[test]
    fn gap_holds_later_blocks_until_retransmission() {
        // Mirrors the paper's Fig. 3: block 2 fails at t=2 ms, blocks 3..9
        // arrive and are buffered, block 2's retransmission succeeds at
        // t=10 ms and everything is released together.
        let mut buf = ReorderBuffer::new();
        assert_eq!(receive(&mut buf, block(0), ms(0)).len(), 1);
        assert_eq!(receive(&mut buf, block(1), ms(1)).len(), 1);
        // Block 2 lost; blocks 3..=9 arrive in subframes 3..=9.
        for seq in 3..=9u64 {
            assert!(receive(&mut buf, block(seq), ms(seq)).is_empty());
        }
        assert_eq!(buf.buffered_count(), 7);
        // Retransmission of block 2 succeeds 8 ms after its original slot.
        let released = receive(&mut buf, block(2), ms(10));
        // Everything is released at 10 ms, in order: the retransmitted block
        // was delayed 8 ms, block 3 was delayed 7 ms, block 9 was delayed
        // 1 ms.
        let expected: Released = (2..=9).map(|seq| (seq, ms(10))).collect();
        assert_eq!(released, expected);
        assert_eq!(buf.buffered_count(), 0);
    }

    #[test]
    fn held_copies_borrow_their_buffers_from_the_pool() {
        let (mut buf, mut pool) = (ReorderBuffer::new(), ReorderPool::default());
        let mut released = 0;
        for seq in [1u64, 2, 3] {
            buf.on_block_received(&block(seq), ms(seq), &mut pool, |_, _| released += 1);
        }
        assert_eq!((released, pool.segments.pooled()), (0, 0));
        buf.on_block_received(&block(0), ms(4), &mut pool, |_, _| released += 1);
        // The in-order block was never copied; the three held ones give
        // their buffers back, the empty ring goes back too, and the next
        // gap takes from them.
        assert_eq!((released, pool.segments.pooled()), (4, 3));
        assert!(buf.slots.is_empty() && pool.rings.len() == 1);
        buf.on_block_received(&block(6), ms(6), &mut pool, |_, _| released += 1);
        assert_eq!((pool.segments.pooled(), pool.rings.len()), (2, 0));
    }

    #[test]
    fn abandoned_gap_resumes_delivery() {
        let mut buf = ReorderBuffer::new();
        receive(&mut buf, block(0), ms(0));
        for seq in 2..5u64 {
            assert!(receive(&mut buf, block(seq), ms(seq)).is_empty());
        }
        // Block 1 exhausts its retransmissions at 25 ms.
        let released = abandon(&mut buf, 1, ms(25));
        assert_eq!(released, [(2, ms(25)), (3, ms(25)), (4, ms(25))]);
        assert_eq!(buf.next_expected(), 5);
    }

    #[test]
    fn abandoning_a_non_head_block_does_nothing_yet() {
        let mut buf = ReorderBuffer::new();
        assert!(receive(&mut buf, block(1), ms(1)).is_empty());
        assert!(abandon(&mut buf, 2, ms(20)).is_empty());
        assert_eq!(buf.next_expected(), 0);
    }

    #[test]
    fn duplicate_or_stale_blocks_are_ignored() {
        let mut buf = ReorderBuffer::new();
        receive(&mut buf, block(0), ms(0));
        let again = receive(&mut buf, block(0), ms(5));
        assert!(again.is_empty());
        assert_eq!(buf.next_expected(), 1);
    }

    #[test]
    fn released_at_never_precedes_received_at() {
        let mut buf = ReorderBuffer::new();
        assert!(receive(&mut buf, block(1), ms(9)).is_empty());
        // Block 1 was received at 9 ms, after the 3 ms release of block 0.
        assert_eq!(receive(&mut buf, block(0), ms(3)), [(0, ms(3)), (1, ms(9))]);
    }

    #[test]
    fn a_block_far_ahead_grows_the_ring_and_keeps_every_held_block() {
        let mut buf = ReorderBuffer::new();
        for seq in [1u64, 5, 15] {
            receive(&mut buf, block(seq), ms(seq));
        }
        assert_eq!(buf.slots.len(), MIN_SLOTS);
        receive(&mut buf, block(40), ms(40));
        assert_eq!(buf.slots.len(), 64);
        let mut flushed = Vec::new();
        let pool = &mut ReorderPool::default();
        buf.flush(ms(50), pool, |b, at| flushed.push((b.sequence, at)));
        assert_eq!(
            flushed,
            [(1, ms(50)), (5, ms(50)), (15, ms(50)), (40, ms(50))]
        );
        assert_eq!((buf.next_expected(), buf.buffered_count()), (0, 0));
    }

    /// The buffer this one replaced: every block received, in order or
    /// not, is inserted into a map keyed by sequence and released from it.
    #[derive(Default)]
    struct MapModel {
        next_expected: u64,
        buffered: BTreeMap<u64, (TransportBlock, Instant)>,
    }

    impl MapModel {
        fn received(
            &mut self,
            block: TransportBlock,
            now: Instant,
        ) -> Vec<(TransportBlock, Instant)> {
            if block.sequence < self.next_expected {
                return Vec::new();
            }
            self.buffered.insert(block.sequence, (block, now));
            self.release_in_order(now)
        }

        fn abandoned(&mut self, sequence: u64, now: Instant) -> Vec<(TransportBlock, Instant)> {
            if sequence == self.next_expected {
                self.next_expected += 1;
                return self.release_in_order(now);
            }
            Vec::new()
        }

        fn flush(&mut self, now: Instant) -> Vec<(TransportBlock, Instant)> {
            self.next_expected = 0;
            std::mem::take(&mut self.buffered)
                .into_values()
                .map(|(block, received_at)| (block, now.max(received_at)))
                .collect()
        }

        fn release_in_order(&mut self, now: Instant) -> Vec<(TransportBlock, Instant)> {
            let mut released = Vec::new();
            while let Some((block, received_at)) = self.buffered.remove(&self.next_expected) {
                self.next_expected += 1;
                released.push((block, now.max(received_at)));
            }
            released
        }
    }

    proptest! {
        #[test]
        fn the_ring_releases_what_the_map_released(
            ops in proptest::collection::vec((0u8..16, 0u64..70, 0u64..6), 1..200),
        ) {
            let mut ring = ReorderBuffer::new();
            let mut pool = ReorderPool::default();
            let mut model = MapModel::default();
            let mut clock = 0u64;
            for (step, (kind, offset, jitter)) in ops.into_iter().enumerate() {
                // Time mostly advances but may step back by a few ms, so a
                // held block's own receive time can be the later one.
                clock += 1;
                let now = ms(clock + jitter);
                let next = model.next_expected;
                let mut got = Vec::new();
                let mut take = |b: &TransportBlock, at: Instant| got.push((b.clone(), at));
                let expected = match kind {
                    0..=11 => {
                        let sequence = match kind {
                            // In order.
                            0..=4 => next,
                            // Ahead of a gap (or in order at offset 0).
                            5..=9 => next + offset,
                            // A duplicate below `next_expected`.
                            _ => next.saturating_sub(1 + offset % 4),
                        };
                        // A distinct id per receive, so a re-received held
                        // sequence shows which copy is kept.
                        let b = TransportBlock { id: step as u64, ..block(sequence) };
                        ring.on_block_received(&b, now, &mut pool, &mut take);
                        model.received(b, now)
                    }
                    12 | 13 => {
                        let sequence = if kind == 12 { next } else { next + 1 + offset };
                        ring.on_block_abandoned(sequence, now, &mut pool, &mut take);
                        model.abandoned(sequence, now)
                    }
                    14 => {
                        // Rarely: the re-establishment flush.
                        if offset % 4 == 0 {
                            ring.flush(now, &mut pool, &mut take);
                            model.flush(now)
                        } else {
                            Vec::new()
                        }
                    }
                    _ => Vec::new(),
                };
                prop_assert_eq!(got, expected, "step {step}");
                prop_assert_eq!(ring.next_expected(), model.next_expected);
                prop_assert_eq!(ring.buffered_count(), model.buffered.len());
            }
        }
    }
}
