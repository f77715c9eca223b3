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

/// A transport block queued for (re)transmission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Number of initial transmissions.
    pub initial_transmissions: u64,
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
    /// error the block is queued for retransmission 8 subframes later.
    pub fn transmit_new(
        &mut self,
        block: TransportBlock,
        subframe: u64,
        error: bool,
    ) -> HarqOutcome {
        self.initial_transmissions += 1;
        if error {
            self.pending.push_back(PendingRetx {
                block: block.clone(),
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

    /// Perform all retransmissions due at `subframe`.
    ///
    /// `error_for` is called once per retransmitted block to decide whether
    /// this attempt also fails.  Returns one outcome per attempted block.
    pub fn retransmit_due<F: FnMut(&TransportBlock) -> bool>(
        &mut self,
        subframe: u64,
        mut error_for: F,
    ) -> Vec<HarqOutcome> {
        let mut outcomes = Vec::new();
        let mut remaining = VecDeque::new();
        while let Some(p) = self.pending.pop_front() {
            if p.due_subframe > subframe {
                remaining.push_back(p);
                continue;
            }
            self.retransmissions_sent += 1;
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
            } else if error {
                self.blocks_dropped += 1;
                outcomes.push(HarqOutcome {
                    block: p.block,
                    subframe,
                    attempt: p.attempt,
                    success: false,
                    dropped: true,
                });
            } else {
                outcomes.push(HarqOutcome {
                    block: p.block,
                    subframe,
                    attempt: p.attempt,
                    success: true,
                    dropped: false,
                });
            }
        }
        self.pending = remaining;
        outcomes
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

    /// Fraction of all transmissions that were retransmissions (the paper's
    /// Fig. 6a retransmission overhead).
    pub fn retransmission_overhead(&self) -> f64 {
        let total = self.initial_transmissions + self.retransmissions_sent;
        if total == 0 {
            0.0
        } else {
            self.retransmissions_sent as f64 / total as f64
        }
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

    #[test]
    fn successful_first_transmission_needs_no_retransmission() {
        let mut h = HarqEntity::new();
        let out = h.transmit_new(block(1, 0, 10), 100, false);
        assert!(out.success);
        assert_eq!(out.attempt, 0);
        assert_eq!(h.pending_count(), 0);
        assert_eq!(h.retransmission_overhead(), 0.0);
    }

    #[test]
    fn failed_block_is_retransmitted_after_eight_subframes() {
        let mut h = HarqEntity::new();
        let out = h.transmit_new(block(1, 0, 10), 100, true);
        assert!(!out.success);
        assert_eq!(h.pending_count(), 1);
        // Not due before subframe 108.
        assert!(!h.has_due_retransmission(107));
        assert_eq!(h.retransmit_due(107, |_| false).len(), 0);
        assert!(h.has_due_retransmission(108));
        let outcomes = h.retransmit_due(108, |_| false);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].success);
        assert_eq!(outcomes[0].attempt, 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn block_dropped_after_three_failed_retransmissions() {
        let mut h = HarqEntity::new();
        h.transmit_new(block(1, 0, 10), 0, true);
        let mut subframe = 8;
        let mut dropped = false;
        for attempt in 1..=3 {
            let outcomes = h.retransmit_due(subframe, |_| true);
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
        h.transmit_new(block(1, 0, 5), 10, true);
        h.transmit_new(block(2, 1, 7), 12, true);
        // At subframe 18 only block 1 is due.
        let o = h.retransmit_due(18, |_| false);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].block.id, 1);
        assert_eq!(h.pending_count(), 1);
        let o = h.retransmit_due(20, |_| false);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].block.id, 2);
    }

    #[test]
    fn overhead_accounting() {
        let mut h = HarqEntity::new();
        for i in 0..8u64 {
            h.transmit_new(block(i, i, 10), i, i % 4 == 0);
        }
        h.retransmit_due(100, |_| false);
        // 8 initial + 2 retransmissions -> 20 % overhead.
        assert!((h.retransmission_overhead() - 0.2).abs() < 1e-12);
    }
}
