//! User equipment: the one record of a mobile device.
//!
//! A [`UserEquipment`] holds everything the network keeps per UE: its
//! configuration, its A3 handover state ([`A3State`]) and its
//! carrier-aggregation state ([`CaState`]).  Its rows — one per configured
//! cell: the fading channel, the RLC reordering buffer and the L3
//! measurement filter — live in the lane's [`RowTable`], which every method
//! that touches them takes.
//!
//! On the receive path the UE gets HARQ outcomes from every cell it is
//! aggregated with, pushes successfully decoded transport blocks through
//! that cell's reordering buffer, reassembles the packet segments the
//! blocks carry, and reports each packet's delivery time to the transport
//! layer (or its loss, if a block exhausted its retransmissions).

use crate::carrier::{self, CaEvent, CaObservation, CaState};
use crate::channel::{self, ChannelState, Fading, FadingParams, L3Filter};
use crate::config::{CellId, CellularConfig, HandoverConfig, Rnti, UeConfig, UeId};
use crate::handover::{self, A3State};
use crate::harq::{HarqOutcome, TransportBlock};
use crate::reorder::{ReorderBuffer, ReorderPool};
use pbe_stats::time::Instant;
use pbe_stats::{DetRng, FxHashSet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
    /// The (UE, cell) fading process, which owns its random stream.
    fading: Fading,
    /// The cell's mobility trace: `len` waypoints of the table's arena from
    /// `start`.
    trace: Span,
    /// Maximum spatial streams of the (UE, cell) link.
    max_streams: u8,
    /// RLC reordering of the cell's transport blocks.
    reorder: ReorderBuffer,
    /// L3 filter of the cell's RSRP measurements.
    l3: L3Filter,
}

/// A run of the waypoint arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

/// The rows of every UE of a lane in one table, addressed by row index — a
/// UE's rows are contiguous, one per configured cell in configured order —
/// and the waypoints of their traces in one arena.  A network grows the two
/// vectors as UEs join instead of allocating rows and traces per UE.
#[derive(Debug, Default)]
pub struct RowTable {
    rows: Vec<CellRow>,
    waypoints: Vec<(Instant, f64)>,
}

impl RowTable {
    /// Append a row whose channel fades the trajectory through `waypoints`
    /// (sorted by time, at least one) with a process drawing from `rng`, on
    /// a link of at most `max_streams` spatial streams, with an L3 filter of
    /// time constant `l3_filter_ms` that has measured nothing.
    pub(crate) fn push(
        &mut self,
        waypoints: impl IntoIterator<Item = (Instant, f64)>,
        max_streams: u8,
        rng: DetRng,
        l3_filter_ms: f64,
    ) {
        let trace = self.append_waypoints(waypoints);
        self.rows.push(CellRow {
            fading: Fading::new(rng),
            trace,
            max_streams: max_streams.max(1),
            reorder: ReorderBuffer::new(),
            l3: L3Filter::new(l3_filter_ms),
        });
    }

    /// Reserve room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.rows.reserve_exact(rows);
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    fn append_waypoints(&mut self, waypoints: impl IntoIterator<Item = (Instant, f64)>) -> Span {
        let start = self.waypoints.len();
        self.waypoints.extend(waypoints);
        let len = self.waypoints.len() - start;
        assert!(len > 0, "a trace needs at least one waypoint");
        Span {
            start: u32::try_from(start).expect("waypoint arena fits u32"),
            len: u32::try_from(len).expect("trace fits u32"),
        }
    }

    /// Give a row a new channel: the trajectory through `waypoints` faded by
    /// a fresh process drawing from `rng`, on a link of at most
    /// `max_streams` streams.  The row keeps its L3 filter and reordering
    /// buffer.  The waypoints overwrite the old trace's where they fit.
    fn set_channel(
        &mut self,
        row: usize,
        waypoints: &[(Instant, f64)],
        max_streams: u8,
        rng: DetRng,
    ) {
        let old = self.rows[row].trace;
        let trace = if waypoints.len() <= old.len as usize {
            let start = old.start as usize;
            self.waypoints[start..start + waypoints.len()].copy_from_slice(waypoints);
            Span {
                start: old.start,
                len: waypoints.len() as u32,
            }
        } else {
            self.append_waypoints(waypoints.iter().copied())
        };
        let r = &mut self.rows[row];
        r.trace = trace;
        r.fading = Fading::new(rng);
        r.max_streams = max_streams.max(1);
    }

    /// The raw RSRP of a row's channel for the subframe at `t`.
    #[inline]
    fn rsrp(&mut self, row: usize, t: Instant) -> f64 {
        let r = &mut self.rows[row];
        let span = r.trace.start as usize..(r.trace.start + r.trace.len) as usize;
        let rssi = channel::rssi_at(&self.waypoints[span], t);
        r.fading.rsrp(&FadingParams::DEFAULT, t, rssi)
    }
}

/// The one record of a mobile device.
#[derive(Debug)]
pub struct UserEquipment {
    config: UeConfig,
    rnti: Rnti,
    /// The first of the UE's rows in the lane's [`RowTable`]: one per
    /// configured cell, in `config.configured_cells` order.
    first_row: usize,
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
    /// Create the UE whose `i`-th configured cell is row `first_row + i` of
    /// the lane's [`RowTable`], with only its primary cell active.
    pub fn new(config: UeConfig, rnti: Rnti, first_row: usize) -> Self {
        UserEquipment {
            config,
            rnti,
            first_row,
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

    /// The position of a configured cell in the configured order.
    fn position(&self, cell: CellId) -> Option<usize> {
        self.config.configured_cells.iter().position(|c| *c == cell)
    }

    /// The row of a configured cell.
    fn row(&self, cell: CellId) -> Option<usize> {
        Some(self.first_row + self.position(cell)?)
    }

    /// The row of a cell that serves the UE, which is always configured.
    fn served_row(&self, cell: CellId) -> usize {
        self.row(cell).expect("a serving cell is configured")
    }

    /// The indices of the UE's rows in the table.
    fn rows(&self) -> Range<usize> {
        self.first_row..self.first_row + self.config.configured_cells.len()
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
    pub fn filtered_rsrp(&self, table: &RowTable, cell: CellId) -> Option<f64> {
        table.rows[self.row(cell)?].l3.get()
    }

    /// Sample the channel towards the `position`-th configured cell for the
    /// subframe at `t`.
    pub fn sample_channel(
        &self,
        table: &mut RowTable,
        position: usize,
        t: Instant,
    ) -> ChannelState {
        let row = self.first_row + position;
        let rssi = table.rsrp(row, t);
        ChannelState::from_rssi(rssi, table.rows[row].max_streams)
    }

    /// The raw RSRP towards the `position`-th configured cell for the
    /// subframe at `t`: the draws of [`UserEquipment::sample_channel`]
    /// without the scheduling state.
    pub(crate) fn measure_channel(&self, table: &mut RowTable, position: usize, t: Instant) -> f64 {
        table.rsrp(self.first_row + position, t)
    }

    /// Fold one measurement round — the raw RSRP of every configured cell,
    /// in configured order — into the L3 filters, then evaluate the A3 event
    /// on the filtered values ([`handover::observe`]).  Returns the handover
    /// target, if any.
    pub fn observe_a3(
        &mut self,
        table: &mut RowTable,
        config: &HandoverConfig,
        samples: &mut [(CellId, f64)],
        now: Instant,
    ) -> Option<CellId> {
        debug_assert!(samples
            .iter()
            .map(|s| s.0)
            .eq(self.config.configured_cells.iter().copied()));
        for (row, (_, rsrp)) in table.rows[self.rows()].iter_mut().zip(samples.iter_mut()) {
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
    /// ([`ChannelModel::replay`](crate::channel::ChannelModel::replay)); the
    /// next sample of those channels must be at or after `to`.
    pub fn catch_up(&self, table: &mut RowTable, to: Instant) {
        let active = self.active_cells().len();
        for row in &mut table.rows[self.rows()][..active] {
            row.fading
                .replay(&FadingParams::DEFAULT, self.idle_since, to);
        }
    }

    /// Give the UE a new channel towards one cell (e.g. to switch mobility
    /// traces): the trajectory through `waypoints` faded by a fresh process
    /// drawing from `rng`.  No-op if the cell is not configured.
    pub fn set_channel(
        &self,
        table: &mut RowTable,
        cell: CellId,
        waypoints: &[(Instant, f64)],
        max_streams: u8,
        rng: DetRng,
    ) {
        if let Some(row) = self.row(cell) {
            table.set_channel(row, waypoints, max_streams, rng);
        }
    }

    /// Process one HARQ outcome, appending the packet-level events it
    /// produces to `events`.  An in-order block is released straight from
    /// the outcome; a block held behind a gap is copied into storage
    /// borrowed from `pool`, which gets it back on release.
    pub fn process_outcome(
        &mut self,
        table: &mut RowTable,
        cell: CellId,
        outcome: &HarqOutcome,
        now: Instant,
        pool: &mut ReorderPool,
        events: &mut Vec<PacketEvent>,
    ) {
        let ue = self.config.id;
        let row = self.served_row(cell);
        let (reorder, packets) = (&mut table.rows[row].reorder, &mut self.packets);
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
        table: &mut RowTable,
        cell: CellId,
        now: Instant,
        pool: &mut ReorderPool,
    ) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        let ue = self.config.id;
        let row = self.served_row(cell);
        let packets = &mut self.packets;
        table.rows[row].reorder.flush(now, pool, |b, at| {
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
    pub fn hand_over(&mut self, table: &mut RowTable, cell: CellId, now: Instant) {
        if let Some(i) = self.position(cell) {
            self.config.configured_cells[..=i].rotate_right(1);
            table.rows[self.rows()][..=i].rotate_right(1);
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
    #[cfg(test)]
    fn buffered_blocks(&self, table: &RowTable) -> usize {
        table.rows[self.rows()]
            .iter()
            .map(|r| r.reorder.buffered_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harq::{Segment, TransportBlock};
    use pbe_stats::DetRng;

    /// A UE configured on cells 0 and 1, its rows in a table of its own.
    fn ue() -> (UserEquipment, RowTable) {
        let cfg = UeConfig::new(UeId(1), vec![CellId(0), CellId(1)], 2, -85.0);
        let mut table = RowTable::default();
        for (rssi, seed) in [(-85.0, 1), (-90.0, 2)] {
            table.push([(Instant::ZERO, rssi)], 2, DetRng::new(seed), 0.0);
        }
        (UserEquipment::new(cfg, Rnti(0x100), 0), table)
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
        (ue, table): &mut (UserEquipment, RowTable),
        cell: CellId,
        outcomes: &[HarqOutcome],
        now: Instant,
    ) -> Vec<PacketEvent> {
        let mut events = Vec::new();
        for outcome in outcomes {
            ue.process_outcome(
                table,
                cell,
                outcome,
                now,
                &mut ReorderPool::default(),
                &mut events,
            );
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
        assert_eq!(ue.0.packet_counts(), (2, 0));
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
        assert_eq!(ue.0.buffered_blocks(&ue.1), 1);
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
        assert_eq!(ue.0.packet_counts(), (1, 1));
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
        use crate::channel::ChannelModel;
        let (ue, mut table) = ue();
        // Position i samples the row built for the i-th configured cell.
        for (position, rssi, seed) in [(1, -90.0, 2), (0, -85.0, 1)] {
            let mut model = ChannelModel::stationary(rssi, 2, DetRng::new(seed));
            for t in [0u64, 7, 30] {
                let t = Instant::from_millis(t);
                assert_eq!(ue.sample_channel(&mut table, position, t), model.sample(t));
            }
        }
        assert_eq!(ue.id(), UeId(1));
        assert_eq!(ue.rnti(), Rnti(0x100));
    }

    /// A row samples exactly what a [`ChannelModel`] of the same trace and
    /// stream samples: the table and the model share one fading process.
    #[test]
    fn a_row_samples_what_a_channel_model_samples() {
        use crate::channel::{ChannelModel, MobilityTrace};
        let trace = MobilityTrace::from_secs(&[(0.0, -85.0), (0.3, -100.0), (0.3, -90.0)]);
        let mut model = ChannelModel::new(trace.clone(), 2, DetRng::new(9));
        let mut table = RowTable::default();
        table.push(trace.waypoints.iter().copied(), 2, DetRng::new(9), 0.0);
        let ue = UserEquipment::new(
            UeConfig::new(UeId(1), vec![CellId(0)], 1, -85.0),
            Rnti(1),
            0,
        );
        for sf in 0..500 {
            let t = Instant::from_millis(sf);
            assert_eq!(
                format!("{:?}", ue.sample_channel(&mut table, 0, t)),
                format!("{:?}", model.sample(t))
            );
        }
    }

    #[test]
    fn hand_over_rotates_each_row_with_its_cell() {
        let (mut ue, mut reference) = (ue(), ue());
        // An out-of-order block waits in cell 1's reordering buffer, and
        // cell 1 is aggregated.
        process(&mut ue, CellId(1), &[ok(1, 10, 1)], Instant::from_millis(1));
        let (ue, table) = &mut ue;
        ue.ca.active = 2;
        ue.ca.ever_aggregated = true;
        ue.hand_over(table, CellId(1), Instant::from_millis(2));
        assert_eq!(ue.config().configured_cells, [CellId(1), CellId(0)]);
        assert_eq!(ue.active_cells(), [CellId(1)]);
        assert!(ue.ever_aggregated());
        assert_eq!(ue.a3.last_handover, Some(Instant::from_millis(2)));
        // Every channel kept its own random stream and trajectory.
        for t in [0u64, 5, 50, 500] {
            // Cell 1 moved from position 1 to 0, cell 0 from 0 to 1.
            for (after, before) in [(0, 1), (1, 0)] {
                let now = Instant::from_millis(t);
                assert_eq!(
                    format!("{:?}", ue.sample_channel(table, after, now)),
                    format!(
                        "{:?}",
                        reference.0.sample_channel(&mut reference.1, before, now)
                    )
                );
            }
        }
        // The buffered block stayed with cell 1.
        let flushed = ue.flush_cell(
            table,
            CellId(1),
            Instant::from_millis(3),
            &mut ReorderPool::default(),
        );
        assert_eq!((flushed.len(), flushed[0].cell), (1, CellId(1)));
    }
}
