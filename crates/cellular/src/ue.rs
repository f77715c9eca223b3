//! User-equipment receive path: per-cell reordering and packet reassembly.
//!
//! The UE receives HARQ outcomes from every cell it is aggregated with,
//! pushes successfully decoded transport blocks through the per-cell
//! reordering buffer, reassembles the packet segments the blocks carry, and
//! reports each packet's delivery time to the transport layer (or its loss,
//! if a block exhausted its retransmissions).

use crate::channel::{ChannelModel, ChannelState};
use crate::config::{CellId, Rnti, UeConfig, UeId};
use crate::harq::HarqOutcome;
use crate::reorder::ReorderBuffer;
use pbe_stats::time::{Duration, Instant};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A packet delivered (or lost) at the UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketEvent {
    /// The UE that received (or lost) the packet.
    pub ue: UeId,
    /// Packet id assigned at enqueue time.
    pub packet_id: u64,
    /// Time the packet became available to upper layers.
    pub at: Instant,
    /// True if the packet was delivered, false if it was lost because a
    /// transport block carrying part of it exhausted its retransmissions.
    pub delivered: bool,
    /// Cell the packet was served by.
    pub cell: CellId,
}

/// Receive-side state of one mobile device.
#[derive(Debug)]
pub struct UserEquipment {
    config: UeConfig,
    rnti: Rnti,
    channels: HashMap<CellId, ChannelModel>,
    reorder: HashMap<CellId, ReorderBuffer>,
    /// Packets that lost at least one segment (marked lost once).
    lost_packets: HashMap<u64, bool>,
    /// While the tick engine lets the UE sleep: the first subframe its
    /// channels were not sampled for (see [`UserEquipment::catch_up`]).
    idle_since: Instant,
    /// Cumulative statistics.
    pub packets_delivered: u64,
    /// Cumulative lost packets.
    pub packets_lost: u64,
}

impl UserEquipment {
    /// Create the UE with one channel model per configured cell.
    pub fn new(config: UeConfig, rnti: Rnti, channels: HashMap<CellId, ChannelModel>) -> Self {
        let reorder = config
            .configured_cells
            .iter()
            .map(|c| (*c, ReorderBuffer::new()))
            .collect();
        UserEquipment {
            config,
            rnti,
            channels,
            reorder,
            lost_packets: HashMap::new(),
            idle_since: Instant::ZERO,
            packets_delivered: 0,
            packets_lost: 0,
        }
    }

    /// The UE's identifier.
    pub fn id(&self) -> UeId {
        self.config.id
    }

    /// The UE's RNTI (same across aggregated cells in this model).
    pub fn rnti(&self) -> Rnti {
        self.rnti
    }

    /// The UE's static configuration.
    pub fn config(&self) -> &UeConfig {
        &self.config
    }

    /// Sample the channel towards one cell for the subframe at `t`.
    pub fn sample_channel(&mut self, cell: CellId, t: Instant) -> Option<ChannelState> {
        self.channels.get_mut(&cell).map(|ch| ch.sample(t))
    }

    /// Stop sampling: the channels were last sampled for the subframe at
    /// `now`, and are next brought current by [`UserEquipment::catch_up`].
    pub fn fall_asleep(&mut self, now: Instant) {
        self.idle_since = now + Duration::MILLISECOND;
    }

    /// Replay on the channels of the first `active` configured cells every
    /// redraw that sampling them on each subframe from the first one the UE
    /// slept through up to (not including) `to` would have made
    /// ([`ChannelModel::replay`]).
    pub fn catch_up(&mut self, active: usize, to: Instant) {
        for cell in &self.config.configured_cells[..active] {
            if let Some(ch) = self.channels.get_mut(cell) {
                ch.replay(self.idle_since, to);
            }
        }
    }

    /// Replace the channel model of one cell (e.g. to switch mobility traces).
    pub fn set_channel(&mut self, cell: CellId, model: ChannelModel) {
        self.channels.insert(cell, model);
    }

    /// Process the HARQ outcomes of one subframe from one cell and return the
    /// packet-level events they produce.
    pub fn process_outcomes(
        &mut self,
        cell: CellId,
        outcomes: &[HarqOutcome],
        now: Instant,
    ) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        for outcome in outcomes {
            self.process_outcome(cell, outcome, now, &mut events);
        }
        events
    }

    /// Process one HARQ outcome, appending the packet-level events it
    /// produces to `events` (the allocation-free hot-loop entry point).
    pub fn process_outcome(
        &mut self,
        cell: CellId,
        outcome: &HarqOutcome,
        now: Instant,
        events: &mut Vec<PacketEvent>,
    ) {
        if outcome.success {
            let released = self
                .reorder
                .entry(cell)
                .or_default()
                .on_block_received(outcome.block.clone(), now);
            self.emit_released(cell, &released, events);
        } else if outcome.dropped {
            // Mark every packet with bytes in the dropped block as lost;
            // the loss event is emitted when (and if) the packet's final
            // segment is released, or immediately if this block carried
            // the final segment.
            for seg in &outcome.block.segments {
                self.lost_packets.insert(seg.packet_id, true);
            }
            let released = self
                .reorder
                .entry(cell)
                .or_default()
                .on_block_abandoned(outcome.block.sequence, now);
            self.emit_released(cell, &released, events);
            // If the dropped block itself carried a final segment, that
            // packet will never be completed: report the loss now.
            for seg in &outcome.block.segments {
                if seg.is_last && self.lost_packets.remove(&seg.packet_id).is_some() {
                    self.packets_lost += 1;
                    events.push(PacketEvent {
                        ue: self.config.id,
                        packet_id: seg.packet_id,
                        at: now,
                        delivered: false,
                        cell,
                    });
                }
            }
        }
        // A failed-but-not-dropped outcome simply waits for its
        // retransmission; nothing to deliver yet.
    }

    /// Emit the packet events of a run of in-order released blocks: one
    /// event per final segment, lost if an earlier block of the packet was
    /// dropped.
    fn emit_released(
        &mut self,
        cell: CellId,
        released: &[crate::reorder::ReleasedBlock],
        events: &mut Vec<PacketEvent>,
    ) {
        for r in released {
            for seg in &r.block.segments {
                if seg.is_last {
                    let lost = self.lost_packets.remove(&seg.packet_id).is_some();
                    if lost {
                        self.packets_lost += 1;
                    } else {
                        self.packets_delivered += 1;
                    }
                    events.push(PacketEvent {
                        ue: self.config.id,
                        packet_id: seg.packet_id,
                        at: r.released_at,
                        delivered: !lost,
                        cell,
                    });
                }
            }
        }
    }

    /// Handover bookkeeping: flush the reordering buffer of one cell (the
    /// RLC re-establishment), releasing everything it holds regardless of
    /// gaps and resetting its sequence space to 0.  Returns the packet
    /// events of the flushed blocks.
    pub fn flush_cell(&mut self, cell: CellId, now: Instant) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        let released = self.reorder.entry(cell).or_default().flush(now);
        self.emit_released(cell, &released, &mut events);
        events
    }

    /// Make `cell` the UE's serving (primary) cell, moving it to the front
    /// of the configured-cell list.  The previous serving cell becomes the
    /// first secondary candidate.  No-op if the cell is not configured.
    pub fn promote_primary(&mut self, cell: CellId) {
        let Some(pos) = self.config.configured_cells.iter().position(|c| *c == cell) else {
            return;
        };
        self.config.configured_cells.remove(pos);
        self.config.configured_cells.insert(0, cell);
    }

    /// Number of transport blocks currently buffered out of order across all
    /// cells (diagnostic for the reordering-delay experiments).
    pub fn buffered_blocks(&self) -> usize {
        self.reorder.values().map(|r| r.buffered_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harq::{Segment, TransportBlock};
    use pbe_stats::DetRng;

    fn ue() -> UserEquipment {
        let cfg = UeConfig::new(UeId(1), vec![CellId(0), CellId(1)], 2, -85.0);
        let mut channels = HashMap::new();
        channels.insert(
            CellId(0),
            ChannelModel::stationary(-85.0, 2, DetRng::new(1)),
        );
        channels.insert(
            CellId(1),
            ChannelModel::stationary(-90.0, 2, DetRng::new(2)),
        );
        UserEquipment::new(cfg, Rnti(0x100), channels)
    }

    fn block(seq: u64, packet_id: u64, is_last: bool) -> TransportBlock {
        TransportBlock {
            id: 100 + seq,
            sequence: seq,
            tbs_bits: 12_000,
            num_prbs: 10,
            segments: vec![Segment {
                packet_id,
                bytes: 1500,
                is_last,
            }],
            first_tx_subframe: seq,
        }
    }

    fn ok(seq: u64, packet_id: u64, subframe: u64) -> HarqOutcome {
        HarqOutcome {
            block: block(seq, packet_id, true),
            subframe,
            attempt: 0,
            success: true,
            dropped: false,
        }
    }

    #[test]
    fn in_order_success_delivers_packets() {
        let mut ue = ue();
        let events = ue.process_outcomes(
            CellId(0),
            &[ok(0, 1, 0), ok(1, 2, 1)],
            Instant::from_millis(1),
        );
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.delivered));
        assert_eq!(ue.packets_delivered, 2);
        assert_eq!(ue.packets_lost, 0);
    }

    #[test]
    fn failed_block_defers_delivery_until_retransmission() {
        let mut ue = ue();
        // Block 0 fails (not dropped), block 1 succeeds: nothing delivered yet.
        let fail = HarqOutcome {
            block: block(0, 1, true),
            subframe: 0,
            attempt: 0,
            success: false,
            dropped: false,
        };
        let events = ue.process_outcomes(CellId(0), &[fail, ok(1, 2, 1)], Instant::from_millis(1));
        assert!(events.is_empty());
        assert_eq!(ue.buffered_blocks(), 1);
        // The retransmission succeeds 8 ms later; both packets released.
        let events = ue.process_outcomes(CellId(0), &[ok(0, 1, 8)], Instant::from_millis(9));
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.delivered && e.at == Instant::from_millis(9)));
    }

    #[test]
    fn dropped_block_loses_its_packet_and_releases_followers() {
        let mut ue = ue();
        let dropped = HarqOutcome {
            block: block(0, 1, true),
            subframe: 24,
            attempt: 3,
            success: false,
            dropped: true,
        };
        // A later block already buffered.
        let buffered = ue.process_outcomes(CellId(0), &[ok(1, 2, 1)], Instant::from_millis(1));
        assert!(buffered.is_empty());
        let events = ue.process_outcomes(CellId(0), &[dropped], Instant::from_millis(25));
        assert_eq!(events.len(), 2);
        let lost: Vec<_> = events.iter().filter(|e| !e.delivered).collect();
        let delivered: Vec<_> = events.iter().filter(|e| e.delivered).collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].packet_id, 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].packet_id, 2);
        assert_eq!(ue.packets_lost, 1);
        assert_eq!(ue.packets_delivered, 1);
    }

    #[test]
    fn packet_spanning_blocks_is_delivered_on_final_segment() {
        let mut ue = ue();
        let first_half = HarqOutcome {
            block: TransportBlock {
                segments: vec![Segment {
                    packet_id: 5,
                    bytes: 700,
                    is_last: false,
                }],
                ..block(0, 5, false)
            },
            subframe: 0,
            attempt: 0,
            success: true,
            dropped: false,
        };
        let second_half = HarqOutcome {
            block: TransportBlock {
                segments: vec![Segment {
                    packet_id: 5,
                    bytes: 800,
                    is_last: true,
                }],
                ..block(1, 5, true)
            },
            subframe: 1,
            attempt: 0,
            success: true,
            dropped: false,
        };
        let e0 = ue.process_outcomes(CellId(0), &[first_half], Instant::from_millis(0));
        assert!(e0.is_empty(), "no delivery until the final segment");
        let e1 = ue.process_outcomes(CellId(0), &[second_half], Instant::from_millis(1));
        assert_eq!(e1.len(), 1);
        assert_eq!(e1[0].packet_id, 5);
        assert!(e1[0].delivered);
    }

    #[test]
    fn cells_reorder_independently() {
        let mut ue = ue();
        // Cell 0 has a gap; cell 1 delivers normally.
        let gap = ue.process_outcomes(CellId(0), &[ok(1, 10, 1)], Instant::from_millis(1));
        assert!(gap.is_empty());
        let other = ue.process_outcomes(CellId(1), &[ok(0, 20, 1)], Instant::from_millis(1));
        assert_eq!(other.len(), 1);
        assert_eq!(other[0].cell, CellId(1));
    }

    #[test]
    fn channel_sampling_uses_configured_cells() {
        let mut ue = ue();
        assert!(ue.sample_channel(CellId(0), Instant::ZERO).is_some());
        assert!(ue.sample_channel(CellId(7), Instant::ZERO).is_none());
        assert_eq!(ue.id(), UeId(1));
        assert_eq!(ue.rnti(), Rnti(0x100));
    }
}
