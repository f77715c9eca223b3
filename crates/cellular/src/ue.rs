//! User equipment: the one record of a mobile device.
//!
//! A [`UserEquipment`] holds everything the network keeps per UE: its
//! configuration, one row per configured cell (the channel model, the RLC
//! reordering buffer and the L3 measurement filter), its A3 handover state
//! ([`A3State`]) and its carrier-aggregation state ([`CaState`]).
//!
//! On the receive path the UE gets HARQ outcomes from every cell it is
//! aggregated with, pushes successfully decoded transport blocks through
//! that cell's reordering buffer, reassembles the packet segments the
//! blocks carry, and reports each packet's delivery time to the transport
//! layer (or its loss, if a block exhausted its retransmissions).

use crate::carrier::{self, CaEvent, CaObservation, CaState};
use crate::channel::{ChannelModel, ChannelState, L3Filter};
use crate::config::{CellId, CellularConfig, HandoverConfig, Rnti, UeConfig, UeId};
use crate::handover::{self, A3State};
use crate::harq::{HarqOutcome, TransportBlock};
use crate::reorder::{ReorderBuffer, ReorderPool};
use pbe_stats::time::Instant;
use pbe_stats::FxHashSet;
use serde::{Deserialize, Serialize};

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

/// A UE's state towards one of its configured cells.
#[derive(Debug)]
struct CellRow {
    /// The (UE, cell) channel, which owns its random stream.
    channel: ChannelModel,
    /// RLC reordering of the cell's transport blocks.
    reorder: ReorderBuffer,
    /// L3 filter of the cell's RSRP measurements.
    l3: L3Filter,
}

/// The one record of a mobile device.
#[derive(Debug)]
pub struct UserEquipment {
    config: UeConfig,
    rnti: Rnti,
    /// One row per configured cell, in `config.configured_cells` order.
    rows: Vec<CellRow>,
    a3: A3State,
    ca: CaState,
    packets: Reassembly,
    /// While the tick engine lets the UE sleep: the first subframe its
    /// channels were not sampled for (see [`UserEquipment::catch_up`]).
    idle_since: Instant,
}

/// Packet reassembly above the reordering buffers: which packets lost a
/// segment, and the delivered and lost totals.
#[derive(Debug, Default)]
struct Reassembly {
    /// Packets that lost at least one segment (marked lost once).
    lost_packets: FxHashSet<u64>,
    delivered: u64,
    lost: u64,
}

impl Reassembly {
    /// Report each packet whose final segment a block released in order at
    /// `at` carries: lost if an earlier block of the packet was dropped.
    fn release(
        &mut self,
        ue: UeId,
        cell: CellId,
        block: &TransportBlock,
        at: Instant,
        events: &mut Vec<PacketEvent>,
    ) {
        for seg in block.segments.iter().filter(|s| s.is_last) {
            let lost = self.lost_packets.remove(&seg.packet_id);
            if lost {
                self.lost += 1;
            } else {
                self.delivered += 1;
            }
            events.push(PacketEvent {
                ue,
                packet_id: seg.packet_id,
                at,
                delivered: !lost,
                cell,
            });
        }
    }
}

impl UserEquipment {
    /// Create the UE with `channels[i]` the channel model towards its `i`-th
    /// configured cell, L3 filters of time constant `l3_filter_ms` that have
    /// measured nothing yet, and only its primary cell active.
    pub fn new(
        config: UeConfig,
        rnti: Rnti,
        channels: Vec<ChannelModel>,
        l3_filter_ms: f64,
    ) -> Self {
        assert_eq!(
            channels.len(),
            config.configured_cells.len(),
            "one channel per configured cell"
        );
        let rows = channels
            .into_iter()
            .map(|channel| CellRow {
                channel,
                reorder: ReorderBuffer::new(),
                l3: L3Filter::new(l3_filter_ms),
            })
            .collect();
        UserEquipment {
            config,
            rnti,
            rows,
            a3: A3State::default(),
            ca: CaState::default(),
            packets: Reassembly::default(),
            idle_since: Instant::ZERO,
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

    fn row(&self, cell: CellId) -> Option<usize> {
        self.config.configured_cells.iter().position(|c| *c == cell)
    }

    /// The row of a cell that serves the UE, which is always configured.
    fn served_row(&self, cell: CellId) -> usize {
        self.row(cell).expect("a serving cell is configured")
    }

    /// The prefix of the configured cells that is currently active.
    pub fn active_cells(&self) -> &[CellId] {
        let n = self.ca.active.min(carrier::max_cells(&self.config));
        &self.config.configured_cells[..n]
    }

    /// True if the UE ever had a secondary cell activated.
    pub fn ever_aggregated(&self) -> bool {
        self.ca.ever_aggregated
    }

    /// The current L3-filtered RSRP towards one cell, if it was measured.
    pub fn filtered_rsrp(&self, cell: CellId) -> Option<f64> {
        self.rows[self.row(cell)?].l3.get()
    }

    /// Sample the channel towards one cell for the subframe at `t`.
    pub fn sample_channel(&mut self, cell: CellId, t: Instant) -> Option<ChannelState> {
        let i = self.row(cell)?;
        Some(self.rows[i].channel.sample(t))
    }

    /// The raw RSRP towards one cell for the subframe at `t`
    /// ([`ChannelModel::rsrp`]): the draws of
    /// [`UserEquipment::sample_channel`] without the scheduling state.
    pub(crate) fn measure_channel(&mut self, cell: CellId, t: Instant) -> Option<f64> {
        let i = self.row(cell)?;
        Some(self.rows[i].channel.rsrp(t))
    }

    /// Fold one measurement round — the raw RSRP of every configured cell,
    /// in configured order — into the L3 filters, then evaluate the A3 event
    /// on the filtered values ([`handover::observe`]).  Returns the handover
    /// target, if any.
    pub fn observe_a3(
        &mut self,
        config: &HandoverConfig,
        samples: &mut [(CellId, f64)],
        now: Instant,
    ) -> Option<CellId> {
        debug_assert!(samples
            .iter()
            .map(|s| s.0)
            .eq(self.config.configured_cells.iter().copied()));
        for (row, (_, rsrp)) in self.rows.iter_mut().zip(samples.iter_mut()) {
            *rsrp = row.l3.update(now, *rsrp);
        }
        let serving = self.config.primary_cell();
        handover::observe(config, &mut self.a3, serving, samples, now)
    }

    /// Drive the carrier-aggregation state machine with this subframe's
    /// observation (see [`carrier::observe`]).
    pub fn observe_ca(
        &mut self,
        config: &CellularConfig,
        obs: CaObservation,
        now: Instant,
    ) -> Option<CaEvent> {
        carrier::observe(config, &self.config, &mut self.ca, obs, now)
    }

    /// True if an unallocated subframe would leave the CA state as it is
    /// (see [`carrier::is_quiescent`]).
    pub fn ca_is_quiescent(&self, config: &CellularConfig) -> bool {
        carrier::is_quiescent(config, &self.config, &self.ca)
    }

    /// Stop sampling: `from` is the first subframe the channels are not
    /// sampled for, and [`UserEquipment::catch_up`] next brings them current.
    pub fn sleep_from(&mut self, from: Instant) {
        self.idle_since = from;
    }

    /// Replay on the channels of the active cells every redraw that
    /// sampling them on each subframe from the first one the UE slept
    /// through up to (not including) `to` would have made
    /// ([`ChannelModel::replay`]).
    pub fn catch_up(&mut self, to: Instant) {
        let active = self.active_cells().len();
        for row in &mut self.rows[..active] {
            row.channel.replay(self.idle_since, to);
        }
    }

    /// Replace the channel model of one cell (e.g. to switch mobility
    /// traces).  No-op if the cell is not configured.
    pub fn set_channel(&mut self, cell: CellId, model: ChannelModel) {
        if let Some(i) = self.row(cell) {
            self.rows[i].channel = model;
        }
    }

    /// Process one HARQ outcome, appending the packet-level events it
    /// produces to `events`.  An in-order block is released straight from
    /// the outcome; a block held behind a gap is copied into storage
    /// borrowed from `pool`, which gets it back on release.
    pub fn process_outcome(
        &mut self,
        cell: CellId,
        outcome: &HarqOutcome,
        now: Instant,
        pool: &mut ReorderPool,
        events: &mut Vec<PacketEvent>,
    ) {
        let ue = self.config.id;
        let i = self.served_row(cell);
        let (reorder, packets) = (&mut self.rows[i].reorder, &mut self.packets);
        let block = &outcome.block;
        if outcome.success {
            reorder.on_block_received(block, now, pool, |b, at| {
                packets.release(ue, cell, b, at, events)
            });
        } else if outcome.dropped {
            // Mark every packet with bytes in the dropped block as lost;
            // the loss event is emitted when (and if) the packet's final
            // segment is released, or immediately if this block carried
            // the final segment.
            for seg in &block.segments {
                packets.lost_packets.insert(seg.packet_id);
            }
            reorder.on_block_abandoned(block.sequence, now, pool, |b, at| {
                packets.release(ue, cell, b, at, events)
            });
            // If the dropped block itself carried a final segment, that
            // packet will never be completed: report the loss now.
            for seg in &block.segments {
                if seg.is_last && packets.lost_packets.remove(&seg.packet_id) {
                    packets.lost += 1;
                    events.push(PacketEvent {
                        ue,
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

    /// Handover bookkeeping: flush the reordering buffer of one cell (the
    /// RLC re-establishment), releasing everything it holds regardless of
    /// gaps, returning its storage to `pool` and resetting its sequence
    /// space to 0.  Returns the packet events of the flushed blocks.
    pub fn flush_cell(
        &mut self,
        cell: CellId,
        now: Instant,
        pool: &mut ReorderPool,
    ) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        let ue = self.config.id;
        let i = self.served_row(cell);
        let packets = &mut self.packets;
        self.rows[i].reorder.flush(now, pool, |b, at| {
            packets.release(ue, cell, b, at, &mut events)
        });
        events
    }

    /// Packets delivered and packets lost so far.
    pub fn packet_counts(&self) -> (u64, u64) {
        (self.packets.delivered, self.packets.lost)
    }

    /// Re-establish on `cell` after a handover at `now`: it becomes the
    /// serving (primary) cell, moving to the front of the configured-cell
    /// list with its row, so every channel keeps its random stream, and the
    /// previous serving cell becomes the first secondary candidate.  Carrier
    /// aggregation collapses to the new primary and the A3 timer restarts
    /// behind the ping-pong guard.
    pub fn hand_over(&mut self, cell: CellId, now: Instant) {
        if let Some(i) = self.row(cell) {
            self.config.configured_cells[..=i].rotate_right(1);
            self.rows[..=i].rotate_right(1);
        }
        self.ca = CaState {
            ever_aggregated: self.ca.ever_aggregated,
            ..CaState::default()
        };
        self.a3.a3_candidate = None;
        self.a3.last_handover = Some(now);
    }

    /// Number of transport blocks currently buffered out of order across all
    /// cells (diagnostic for the reordering-delay experiments).
    pub fn buffered_blocks(&self) -> usize {
        self.rows.iter().map(|r| r.reorder.buffered_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harq::{Segment, TransportBlock};
    use pbe_stats::DetRng;

    fn ue() -> UserEquipment {
        let cfg = UeConfig::new(UeId(1), vec![CellId(0), CellId(1)], 2, -85.0);
        let channels = vec![
            ChannelModel::stationary(-85.0, 2, DetRng::new(1)),
            ChannelModel::stationary(-90.0, 2, DetRng::new(2)),
        ];
        UserEquipment::new(cfg, Rnti(0x100), channels, 0.0)
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

    /// Process one subframe's outcomes from one cell, in order, collecting
    /// their packet events in a fresh vector.
    fn process(
        ue: &mut UserEquipment,
        cell: CellId,
        outcomes: &[HarqOutcome],
        now: Instant,
    ) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        for outcome in outcomes {
            ue.process_outcome(cell, outcome, now, &mut ReorderPool::default(), &mut events);
        }
        events
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
        let events = process(
            &mut ue,
            CellId(0),
            &[ok(0, 1, 0), ok(1, 2, 1)],
            Instant::from_millis(1),
        );
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.delivered));
        assert_eq!(ue.packet_counts(), (2, 0));
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
        let events = process(
            &mut ue,
            CellId(0),
            &[fail, ok(1, 2, 1)],
            Instant::from_millis(1),
        );
        assert!(events.is_empty());
        assert_eq!(ue.buffered_blocks(), 1);
        // The retransmission succeeds 8 ms later; both packets released.
        let events = process(&mut ue, CellId(0), &[ok(0, 1, 8)], Instant::from_millis(9));
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
        let buffered = process(&mut ue, CellId(0), &[ok(1, 2, 1)], Instant::from_millis(1));
        assert!(buffered.is_empty());
        let events = process(&mut ue, CellId(0), &[dropped], Instant::from_millis(25));
        assert_eq!(events.len(), 2);
        let lost: Vec<_> = events.iter().filter(|e| !e.delivered).collect();
        let delivered: Vec<_> = events.iter().filter(|e| e.delivered).collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].packet_id, 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].packet_id, 2);
        assert_eq!(ue.packet_counts(), (1, 1));
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
        let e0 = process(&mut ue, CellId(0), &[first_half], Instant::from_millis(0));
        assert!(e0.is_empty(), "no delivery until the final segment");
        let e1 = process(&mut ue, CellId(0), &[second_half], Instant::from_millis(1));
        assert_eq!(e1.len(), 1);
        assert_eq!(e1[0].packet_id, 5);
        assert!(e1[0].delivered);
    }

    #[test]
    fn cells_reorder_independently() {
        let mut ue = ue();
        // Cell 0 has a gap; cell 1 delivers normally.
        let gap = process(&mut ue, CellId(0), &[ok(1, 10, 1)], Instant::from_millis(1));
        assert!(gap.is_empty());
        let other = process(&mut ue, CellId(1), &[ok(0, 20, 1)], Instant::from_millis(1));
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

    #[test]
    fn hand_over_rotates_each_row_with_its_cell() {
        let (mut ue, mut reference) = (ue(), ue());
        // An out-of-order block waits in cell 1's reordering buffer, and
        // cell 1 is aggregated.
        process(&mut ue, CellId(1), &[ok(1, 10, 1)], Instant::from_millis(1));
        ue.ca.active = 2;
        ue.ca.ever_aggregated = true;
        ue.hand_over(CellId(1), Instant::from_millis(2));
        assert_eq!(ue.config().configured_cells, [CellId(1), CellId(0)]);
        assert_eq!(ue.active_cells(), [CellId(1)]);
        assert!(ue.ever_aggregated());
        assert_eq!(ue.a3.last_handover, Some(Instant::from_millis(2)));
        // Every channel kept its own random stream and trajectory.
        for t in [0u64, 5, 50, 500] {
            for cell in [CellId(0), CellId(1)] {
                let now = Instant::from_millis(t);
                assert_eq!(
                    format!("{:?}", ue.sample_channel(cell, now)),
                    format!("{:?}", reference.sample_channel(cell, now))
                );
            }
        }
        // The buffered block stayed with cell 1.
        let flushed = ue.flush_cell(
            CellId(1),
            Instant::from_millis(3),
            &mut ReorderPool::default(),
        );
        assert_eq!((flushed.len(), flushed[0].cell), (1, CellId(1)));
    }
}
