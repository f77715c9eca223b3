//! Hybrid-ARQ retransmission state machine.
//!
//! The cellular network retransmits an erroneous transport block eight
//! subframes (8 ms) after the original transmission, and repeats the
//! retransmission at most three times (paper §3, Fig. 3, and §4.2.2 which
//! budgets `3 × 8 ms` for the delay threshold).  Each UE has eight parallel
//! HARQ processes per cell, so new data keeps flowing while an earlier block
//! awaits its retransmission.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Subframes between a failed transmission and its retransmission.
pub const RETRANSMISSION_DELAY_SUBFRAMES: u64 = 8;
/// Maximum number of retransmissions of one transport block.
pub const MAX_RETRANSMISSIONS: u8 = 3;
/// Number of parallel HARQ processes per UE per cell.
pub const NUM_HARQ_PROCESSES: u8 = 8;

/// One byte range of one queued packet carried inside a transport block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Identifier of the packet the bytes belong to.
    pub packet_id: u64,
    /// Number of payload bytes of that packet carried in this block.
    pub bytes: u32,
    /// True if this segment completes the packet.
    pub is_last: bool,
}

/// Recycled segment buffers.  A buffer is handed out with room for at least
/// the widest block whose buffer came back so far; one that is too small
/// grows to twice that.  Buffers are sized by what their owner has seen
/// rather than by whichever blocks happened to land in each one, so a buffer
/// reaches its working size in one step, and blocks that creep a few
/// segments wider than any before still fit without another allocation.
#[derive(Debug, Default)]
pub(crate) struct SegmentPool {
    buffers: Vec<Vec<Segment>>,
    /// Most segments any returned buffer held.
    widest: usize,
}

impl SegmentPool {
    /// An empty buffer, recycled if one is pooled.
    pub fn take(&mut self) -> Vec<Segment> {
        let mut buffer = self.buffers.pop().unwrap_or_default();
        buffer.clear();
        if buffer.capacity() < self.widest {
            buffer.reserve_exact(2 * self.widest);
        }
        buffer
    }

    /// Return a buffer for reuse.
    pub fn give(&mut self, buffer: Vec<Segment>) {
        self.widest = self.widest.max(buffer.len());
        self.buffers.push(buffer);
    }

    /// Number of buffers waiting for reuse.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.buffers.len()
    }
}

/// Storage the HARQ entities of one cell share: the segment buffers of its
/// transport blocks, and the retransmission queues, each lent to an entity
/// from its first failed block until its queue empties again.  An entity
/// with nothing to retransmit holds no queue.
#[derive(Debug, Default)]
pub struct HarqPool {
    /// Segment buffers, for new blocks as well as the copies of failed ones.
    pub(crate) segments: SegmentPool,
    queues: Vec<VecDeque<PendingRetx>>,
}

/// A transport block queued for (re)transmission.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportBlock {
    /// Globally unique transport-block id.
    pub id: u64,
    /// Per-(cell, UE) RLC sequence number assigned at first transmission —
    /// the reordering buffer releases blocks in this order.
    pub sequence: u64,
    /// Transport block size in bits (payload capacity of the allocation).
    pub tbs_bits: u32,
    /// Number of PRBs the block occupies (retransmissions occupy the same).
    pub num_prbs: u16,
    /// Packet segments carried by the block.
    pub segments: Vec<Segment>,
    /// Subframe of the first transmission.
    pub first_tx_subframe: u64,
}

impl TransportBlock {
    /// A copy of the block whose segments are written into `buffer`
    /// (cleared first), so a recycled buffer spares the allocation.
    pub(crate) fn copy_into(&self, mut buffer: Vec<Segment>) -> TransportBlock {
        buffer.clear();
        buffer.extend_from_slice(&self.segments);
        TransportBlock {
            segments: buffer,
            ..*self
        }
    }
}

/// Outcome of one HARQ transmission attempt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarqOutcome {
    /// The transport block.
    pub block: TransportBlock,
    /// Subframe of this attempt.
    pub subframe: u64,
    /// Attempt number: 0 for the initial transmission, 1..=3 for
    /// retransmissions.
    pub attempt: u8,
    /// Whether the UE decoded the block successfully this attempt.
    pub success: bool,
    /// True if the block is now abandoned (failed its last allowed attempt).
    pub dropped: bool,
}

/// A pending retransmission (block waiting for its retransmission subframe).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingRetx {
    block: TransportBlock,
    attempt: u8,
    due_subframe: u64,
}

/// HARQ entity for one UE within one cell.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HarqEntity {
    pending: VecDeque<PendingRetx>,
    /// Number of retransmission attempts performed (for overhead accounting).
    pub retransmissions_sent: u64,
    /// Number of blocks dropped after exhausting all retransmissions.
    pub blocks_dropped: u64,
}

impl HarqEntity {
    /// New empty HARQ entity.
    pub fn new() -> Self {
        HarqEntity::default()
    }

    /// Number of blocks currently awaiting retransmission.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True if the entity has a retransmission due at `subframe`.
    pub fn has_due_retransmission(&self, subframe: u64) -> bool {
        self.pending.iter().any(|p| p.due_subframe <= subframe)
    }

    /// Record the initial transmission of a block and report its outcome.
    ///
    /// `error` indicates whether the UE failed to decode the block (drawn by
    /// the caller from the channel's transport-block error probability).  On
    /// error a copy of the block is queued for retransmission 8 subframes
    /// later, in a queue and a segment buffer taken from `pool`.
    pub fn transmit_new(
        &mut self,
        block: TransportBlock,
        subframe: u64,
        error: bool,
        pool: &mut HarqPool,
    ) -> HarqOutcome {
        if error {
            if self.pending.capacity() == 0 {
                self.pending = pool.queues.pop().unwrap_or_default();
            }
            self.pending.push_back(PendingRetx {
                block: block.copy_into(pool.segments.take()),
                attempt: 1,
                due_subframe: subframe + RETRANSMISSION_DELAY_SUBFRAMES,
            });
        }
        HarqOutcome {
            block,
            subframe,
            attempt: 0,
            success: !error,
            dropped: false,
        }
    }

    /// Perform all retransmissions due at `subframe`, handing one outcome
    /// per attempted block to `emit`, in queue order.
    ///
    /// `error_for` is called once per retransmitted block to decide whether
    /// this attempt also fails.  The queue is walked in place: entries not
    /// yet due stay where they are, a block that fails again stays in its
    /// place with its next attempt scheduled (its outcome carries a copy
    /// whose segments fill a buffer taken from `pool`), and a block that
    /// succeeds or is dropped moves into its outcome.  A queue left empty
    /// goes back to `pool`.
    pub fn retransmit_due(
        &mut self,
        subframe: u64,
        mut error_for: impl FnMut(&TransportBlock) -> bool,
        pool: &mut HarqPool,
        mut emit: impl FnMut(HarqOutcome),
    ) {
        let (sent, dropped) = (&mut self.retransmissions_sent, &mut self.blocks_dropped);
        self.pending.retain_mut(|p| {
            if p.due_subframe > subframe {
                return true;
            }
            *sent += 1;
            let error = error_for(&p.block);
            let retry = error && p.attempt < MAX_RETRANSMISSIONS;
            let block = if retry {
                p.block.copy_into(pool.segments.take())
            } else {
                std::mem::take(&mut p.block)
            };
            *dropped += u64::from(error && !retry);
            emit(HarqOutcome {
                block,
                subframe,
                attempt: p.attempt,
                success: !error,
                dropped: error && !retry,
            });
            if retry {
                p.attempt += 1;
                p.due_subframe = subframe + RETRANSMISSION_DELAY_SUBFRAMES;
            }
            retry
        });
        if self.pending.is_empty() && self.pending.capacity() > 0 {
            pool.queues.push(std::mem::take(&mut self.pending));
        }
    }

    /// Take every block still awaiting retransmission, in RLC sequence
    /// order, leaving the entity empty.
    ///
    /// Used by the handover procedure: the source cell forwards its
    /// in-flight blocks to the target cell, which re-enqueues their payload
    /// for fresh transmission (the X2 data-forwarding of a real handover).
    pub fn drain_pending(&mut self) -> Vec<TransportBlock> {
        let mut blocks: Vec<TransportBlock> = self.pending.drain(..).map(|p| p.block).collect();
        blocks.sort_by_key(|b| b.sequence);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: u64, seq: u64, prbs: u16) -> TransportBlock {
        TransportBlock {
            id,
            sequence: seq,
            tbs_bits: 10_000,
            num_prbs: prbs,
            segments: vec![Segment {
                packet_id: id,
                bytes: 1250,
                is_last: true,
            }],
            first_tx_subframe: 100,
        }
    }

    /// Transmit a block for the first time with an empty pool.
    fn send(h: &mut HarqEntity, b: TransportBlock, subframe: u64, error: bool) -> HarqOutcome {
        h.transmit_new(b, subframe, error, &mut HarqPool::default())
    }

    /// Run the retransmissions due at `subframe`, collecting their outcomes.
    fn retx(
        h: &mut HarqEntity,
        subframe: u64,
        error_for: impl FnMut(&TransportBlock) -> bool,
    ) -> Vec<HarqOutcome> {
        let mut outcomes = Vec::new();
        h.retransmit_due(subframe, error_for, &mut HarqPool::default(), |o| {
            outcomes.push(o)
        });
        outcomes
    }

    #[test]
    fn successful_first_transmission_needs_no_retransmission() {
        let mut h = HarqEntity::new();
        let out = send(&mut h, block(1, 0, 10), 100, false);
        assert!(out.success);
        assert_eq!(out.attempt, 0);
        assert_eq!(h.pending_count(), 0);
        assert_eq!(h.retransmissions_sent, 0);
    }

    #[test]
    fn failed_block_is_retransmitted_after_eight_subframes() {
        let mut h = HarqEntity::new();
        let out = send(&mut h, block(1, 0, 10), 100, true);
        assert!(!out.success);
        assert_eq!(h.pending_count(), 1);
        // Not due before subframe 108.
        assert!(!h.has_due_retransmission(107));
        assert_eq!(retx(&mut h, 107, |_| false).len(), 0);
        assert!(h.has_due_retransmission(108));
        let outcomes = retx(&mut h, 108, |_| false);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].success);
        assert_eq!(outcomes[0].attempt, 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn block_dropped_after_three_failed_retransmissions() {
        let mut h = HarqEntity::new();
        send(&mut h, block(1, 0, 10), 0, true);
        let mut subframe = 8;
        let mut dropped = false;
        for attempt in 1..=3 {
            let outcomes = retx(&mut h, subframe, |_| true);
            assert_eq!(outcomes.len(), 1);
            assert_eq!(outcomes[0].attempt, attempt);
            assert!(!outcomes[0].success);
            dropped = outcomes[0].dropped;
            subframe += 8;
        }
        assert!(dropped, "third failed retransmission drops the block");
        assert_eq!(h.pending_count(), 0);
        assert_eq!(h.blocks_dropped, 1);
        assert_eq!(h.retransmissions_sent, 3);
    }

    #[test]
    fn multiple_blocks_retransmit_independently() {
        let mut h = HarqEntity::new();
        send(&mut h, block(1, 0, 5), 10, true);
        send(&mut h, block(2, 1, 7), 12, true);
        // At subframe 18 only block 1 is due.
        let o = retx(&mut h, 18, |_| false);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].block.id, 1);
        assert_eq!(h.pending_count(), 1);
        let o = retx(&mut h, 20, |_| false);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].block.id, 2);
    }

    #[test]
    fn overhead_accounting() {
        let mut h = HarqEntity::new();
        for i in 0..8u64 {
            send(&mut h, block(i, i, 10), i, i % 4 == 0);
        }
        retx(&mut h, 100, |_| false);
        // 8 initial transmissions, 2 of them failed: 2 retransmissions.
        assert_eq!(h.retransmissions_sent, 2);
    }

    #[test]
    fn failed_copies_take_their_storage_from_the_pool() {
        let mut h = HarqEntity::new();
        let mut pool = HarqPool::default();
        pool.segments.give(Vec::with_capacity(64));
        pool.segments.give(Vec::with_capacity(64));
        pool.queues.push(VecDeque::with_capacity(16));
        h.transmit_new(block(1, 0, 10), 0, true, &mut pool);
        assert_eq!(
            pool.segments.pooled(),
            1,
            "the pending copy took a pooled buffer"
        );
        assert!(
            pool.queues.is_empty() && h.pending.capacity() >= 16,
            "and the pooled queue"
        );
        let mut outcomes = Vec::new();
        h.retransmit_due(8, |_| true, &mut pool, |o| outcomes.push(o));
        assert_eq!(
            pool.segments.pooled(),
            0,
            "the retried outcome's copy took the other"
        );
        assert_eq!(outcomes[0].block, block(1, 0, 10));
        assert_eq!(outcomes[0].block.segments.capacity(), 64);
        h.retransmit_due(16, |_| false, &mut pool, |o| outcomes.push(o));
        assert_eq!(h.pending.capacity(), 0, "the emptied queue went back");
        assert_eq!(pool.queues.len(), 1);
    }

    #[test]
    fn a_pooled_buffer_is_handed_out_with_room_for_the_widest_block() {
        let mut pool = SegmentPool::default();
        let narrow = Vec::with_capacity(1);
        let wide = block(1, 0, 10).segments.repeat(40);
        pool.give(narrow);
        pool.give(wide);
        assert!(pool.take().capacity() >= 40);
        assert!(
            pool.take().capacity() >= 40,
            "the narrow buffer grew on the way out"
        );
        assert!(
            pool.take().capacity() >= 40,
            "a new buffer starts that wide"
        );
    }

    /// The queue rebuild `retransmit_due` replaced: pop every entry, push
    /// the ones not yet due and the retried ones onto a fresh queue, and
    /// clone each retried block into its outcome.
    fn rebuild(
        h: &mut HarqEntity,
        subframe: u64,
        mut error_for: impl FnMut(&TransportBlock) -> bool,
    ) -> Vec<HarqOutcome> {
        let mut outcomes = Vec::new();
        let mut remaining = VecDeque::new();
        while let Some(p) = h.pending.pop_front() {
            if p.due_subframe > subframe {
                remaining.push_back(p);
                continue;
            }
            h.retransmissions_sent += 1;
            let error = error_for(&p.block);
            if error && p.attempt < MAX_RETRANSMISSIONS {
                outcomes.push(HarqOutcome {
                    block: p.block.clone(),
                    subframe,
                    attempt: p.attempt,
                    success: false,
                    dropped: false,
                });
                remaining.push_back(PendingRetx {
                    block: p.block,
                    attempt: p.attempt + 1,
                    due_subframe: subframe + RETRANSMISSION_DELAY_SUBFRAMES,
                });
            } else {
                h.blocks_dropped += u64::from(error);
                outcomes.push(HarqOutcome {
                    block: p.block,
                    subframe,
                    attempt: p.attempt,
                    success: !error,
                    dropped: error,
                });
            }
        }
        h.pending = remaining;
        outcomes
    }

    fn queue(h: &HarqEntity) -> Vec<(u64, u8, u64)> {
        h.pending
            .iter()
            .map(|p| (p.block.id, p.attempt, p.due_subframe))
            .collect()
    }

    #[test]
    fn in_place_retransmission_matches_the_queue_rebuild() {
        // (id, attempt, due): at subframe 24 block 1 fails its last attempt
        // and is dropped, blocks 3 and 6 fail again and are retried, block
        // 4 succeeds, and blocks 2 and 5 are not due yet.
        let mut h = HarqEntity::new();
        for (id, attempt, due) in [
            (1, 3, 24),
            (2, 1, 30),
            (3, 2, 24),
            (4, 1, 20),
            (5, 3, 26),
            (6, 1, 24),
        ] {
            h.pending.push_back(PendingRetx {
                block: block(id, id, 4),
                attempt,
                due_subframe: due,
            });
        }
        let errors = |b: &TransportBlock| [1, 3, 5, 6].contains(&b.id);
        let mut reference = h.clone();
        for sf in [24u64, 26, 30, 32, 40, 48] {
            let expected = rebuild(&mut reference, sf, errors);
            let got = retx(&mut h, sf, errors);
            assert_eq!(got, expected, "outcomes at subframe {sf}");
            assert_eq!(
                queue(&h),
                queue(&reference),
                "pending order at subframe {sf}"
            );
            assert_eq!(
                (h.retransmissions_sent, h.blocks_dropped),
                (reference.retransmissions_sent, reference.blocks_dropped)
            );
            if sf == 24 {
                let seen: Vec<(u64, bool, bool)> = got
                    .iter()
                    .map(|o| (o.block.id, o.success, o.dropped))
                    .collect();
                assert_eq!(
                    seen,
                    [
                        (1, false, true),
                        (3, false, false),
                        (4, true, false),
                        (6, false, false)
                    ]
                );
                assert_eq!(queue(&h), [(2, 1, 30), (3, 3, 32), (5, 3, 26), (6, 2, 32)]);
            }
        }
        assert_eq!((h.pending_count(), h.blocks_dropped), (0, 4));
    }
}
