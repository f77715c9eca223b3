//! One component carrier: per-UE queues, scheduling, transport blocks, HARQ
//! and control-channel announcements.
//!
//! A [`Cell`] owns the per-user downlink queues of one carrier, runs the
//! equal-share scheduler once per 1 ms subframe, segments queued packets into
//! transport blocks sized by the user's current MCS, draws transport-block
//! errors from the channel model, drives the HARQ retransmission machinery,
//! and emits one DCI message per scheduled user per subframe — the stream the
//! PBE-CC monitor decodes.
//!
//! Per-UE state lives in a struct-of-arrays layout: one sorted
//! [`UeSlots`] index plus parallel value lanes (`Vec<Rnti>`, queues, HARQ
//! entities, counters, staged channel states), so the per-subframe loops walk
//! dense memory in UeId order instead of hashing into five maps per user.

use crate::channel::{tb_error_probability, ChannelState};
use crate::config::{CellConfig, CellId, Rnti, UeId};
use crate::dci::{DciFormat, DciMessage};
use crate::harq::{HarqEntity, HarqOutcome, HarqPool, Segment, TransportBlock};
use crate::mcs::{prbs_needed, transport_block_size};
use crate::prb::{PrbAllocation, PrbUsage};
use crate::scheduler::{Demand, DemandClass, EqualShareScheduler, ScheduleResult};
use crate::slab::{SlotInsert, UeSlots};
use crate::traffic::{BackgroundGrant, BackgroundTraffic};
use pbe_stats::time::Instant;
use pbe_stats::{DetRng, FxHashMap};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A packet queued for downlink delivery to one UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedPacket {
    /// Globally unique packet id (assigned by the caller).
    pub id: u64,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Time the packet entered the base-station queue.
    pub enqueued_at: Instant,
}

#[derive(Debug, Clone)]
struct QueueEntry {
    packet: QueuedPacket,
    remaining_bytes: u32,
}

/// Everything that happened in one cell during one subframe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubframeReport {
    /// The cell.
    pub cell: CellId,
    /// Subframe index.
    pub subframe: u64,
    /// Control messages transmitted on the PDCCH this subframe (one per
    /// scheduled user, foreground and background alike).
    pub dci_messages: Vec<DciMessage>,
    /// HARQ outcomes for foreground transport blocks (new and retransmitted),
    /// tagged with the UE they belong to.
    pub outcomes: Vec<(UeId, HarqOutcome)>,
    /// PRB accounting for the subframe.
    pub prb_usage: PrbUsage,
}

impl Default for SubframeReport {
    /// An empty report for cell 0 — a placeholder buffer that
    /// [`Cell::tick_prepared`] overwrites entirely.
    fn default() -> Self {
        SubframeReport {
            cell: CellId(0),
            subframe: 0,
            dci_messages: Vec::new(),
            outcomes: Vec::new(),
            prb_usage: PrbUsage::default(),
        }
    }
}

/// One component carrier of the simulated eNodeB.
///
/// Per-UE hot state is stored struct-of-arrays: a [`UeSlots`] index maps
/// UeId → slot by binary search over a sorted dense id vector, and every
/// lane below it is indexed by that slot.  Attach/detach shift all lanes
/// together; the per-subframe tick never hashes, and it visits only the
/// slots staged for it, so an attached UE with no staged channel costs it
/// nothing.
#[derive(Debug)]
pub struct Cell {
    config: CellConfig,
    scheduler: EqualShareScheduler,
    background: BackgroundTraffic,
    /// Sorted dense UeId → slot index; all per-UE lanes are parallel to it.
    slots: UeSlots,
    /// Lane: RNTI each UE's grants are addressed to.
    rnti: Vec<Rnti>,
    /// Lane: per-UE downlink packet queue.
    queues: Vec<VecDeque<QueueEntry>>,
    /// Lane: running queue depth in bits, maintained on enqueue/transmit/
    /// detach so [`Cell::queue_bits`] never walks a bufferbloated queue — it
    /// is consulted per packet by the network's flow splitting and per
    /// subframe by the scheduler and the CA state machine.
    queued_bits: Vec<u64>,
    /// Lane: HARQ entity (pending retransmissions, counters).
    harq: Vec<HarqEntity>,
    /// Lane: next RLC sequence number.
    next_sequence: Vec<u64>,
    /// Lane: channel state staged for the next tick via [`Cell::set_channel`];
    /// `None` means the UE is not scheduled this subframe.  Consumed (reset
    /// to `None`) by [`Cell::tick_prepared`].
    channel: Vec<Option<ChannelState>>,
    /// The slots whose `channel` is `Some`, in staging order; kept valid
    /// across attach/detach and sorted into slot order by the tick.
    staged: Vec<u32>,
    tb_counter: u64,
    /// RLC/PDCP/MAC header overhead fraction γ: a transport block of
    /// `tbs_bits` physical bits carries `tbs_bits · (1 − γ)` payload bits
    /// (paper Eqn. 5, measured as 6.8 %).
    protocol_overhead: f64,
    /// Out of service (injected cell outage): the cell schedules nothing —
    /// no HARQ, no background draws, no DCI — until service returns.
    down: bool,
    rng: DetRng,
    /// Cumulative PRBs allocated to anyone (for utilisation stats).
    pub total_allocated_prbs: u64,
    /// Cumulative subframes ticked.
    pub subframes_ticked: u64,
    /// Scratch: background grants of the current subframe.
    bg_grants: Vec<BackgroundGrant>,
    /// Scratch: scheduler demands of the current subframe.
    demands: Vec<Demand>,
    /// Scratch: scheduler result, reused across subframes.
    sched: ScheduleResult,
    /// Scratch: PRBs granted per slot this subframe (dense `granted_to`).
    granted_prbs: Vec<u16>,
    /// Scratch: first PRB of the first allocation per slot this subframe.
    granted_first: Vec<u16>,
    /// Storage the HARQ entities share.  Transport blocks handed back
    /// through the report (or drained on detach) return their segment
    /// buffers here, and [`Cell::pull_segments`] and the HARQ copies of
    /// failed blocks reuse them instead of allocating.
    harq_pool: HarqPool,
    /// Scratch for [`Cell::detach`]'s per-packet merge.
    detach_index: FxHashMap<u64, usize>,
}

impl Cell {
    /// Create a cell with the given static configuration and background
    /// traffic generator.
    pub fn new(config: CellConfig, background: BackgroundTraffic, rng: DetRng) -> Self {
        Cell {
            config,
            scheduler: EqualShareScheduler::new(),
            background,
            slots: UeSlots::new(),
            rnti: Vec::new(),
            queues: Vec::new(),
            queued_bits: Vec::new(),
            harq: Vec::new(),
            next_sequence: Vec::new(),
            channel: Vec::new(),
            staged: Vec::new(),
            tb_counter: 0,
            protocol_overhead: 0.0,
            down: false,
            rng,
            total_allocated_prbs: 0,
            subframes_ticked: 0,
            bg_grants: Vec::new(),
            demands: Vec::new(),
            sched: ScheduleResult::default(),
            granted_prbs: Vec::new(),
            granted_first: Vec::new(),
            harq_pool: HarqPool::default(),
            detach_index: FxHashMap::default(),
        }
    }

    /// Set the protocol-overhead fraction γ applied to every transport block.
    pub fn set_protocol_overhead(&mut self, gamma: f64) {
        assert!((0.0..1.0).contains(&gamma));
        self.protocol_overhead = gamma;
    }

    /// The cell's static configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// The cell id.
    pub fn id(&self) -> CellId {
        self.config.id
    }

    /// Take the cell out of service (or back into it).  While down, ticks
    /// schedule nothing and draw no randomness; queues and HARQ state are
    /// frozen in place until the cell returns or its UEs are detached by the
    /// RLF re-selection.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// True while the cell is out of service.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Attach a foreground UE with the RNTI its grants will be addressed to.
    pub fn attach(&mut self, ue: UeId, rnti: Rnti) {
        match self.slots.insert(ue) {
            SlotInsert::Inserted(slot) => {
                self.rnti.insert(slot, rnti);
                self.queues.insert(slot, VecDeque::new());
                self.queued_bits.insert(slot, 0);
                self.harq.insert(slot, HarqEntity::default());
                self.next_sequence.insert(slot, 0);
                self.channel.insert(slot, None);
                for s in &mut self.staged {
                    if *s as usize >= slot {
                        *s += 1;
                    }
                }
            }
            SlotInsert::Present(slot) => {
                // Re-attaching only refreshes the RNTI; queues, HARQ and the
                // sequence space are preserved (same as before the slab
                // layout, where attach only overwrote the rnti map entry).
                self.rnti[slot] = rnti;
            }
        }
    }

    /// Detach a UE, draining everything the cell still holds for it: queued
    /// packets plus the payload of transport blocks awaiting HARQ
    /// retransmission, merged per packet in transmission order.  The caller
    /// (the handover procedure) re-enqueues the returned packets at the
    /// target cell — the data forwarding of an X2 handover.  The UE's RLC
    /// sequence space here is discarded; re-attaching starts from 0.
    pub fn detach(&mut self, ue: UeId, now: Instant) -> Vec<QueuedPacket> {
        let Some(slot) = self.slots.remove(ue) else {
            return Vec::new();
        };
        self.rnti.remove(slot);
        self.next_sequence.remove(slot);
        self.queued_bits.remove(slot);
        self.channel.remove(slot);
        self.staged.retain(|&s| s as usize != slot);
        for s in &mut self.staged {
            if *s as usize > slot {
                *s -= 1;
            }
        }
        let mut harq = self.harq.remove(slot);
        let queue = self.queues.remove(slot);

        let mut forwarded: Vec<QueuedPacket> = Vec::new();
        let index = &mut self.detach_index;
        index.clear();
        fn add(
            index: &mut FxHashMap<u64, usize>,
            forwarded: &mut Vec<QueuedPacket>,
            id: u64,
            bytes: u32,
            at: Instant,
        ) {
            match index.get(&id) {
                Some(&i) => {
                    forwarded[i].bytes += bytes;
                    forwarded[i].enqueued_at = forwarded[i].enqueued_at.min(at);
                }
                None => {
                    index.insert(id, forwarded.len());
                    forwarded.push(QueuedPacket {
                        id,
                        bytes,
                        enqueued_at: at,
                    });
                }
            }
        }
        for block in harq.drain_pending() {
            for seg in &block.segments {
                add(index, &mut forwarded, seg.packet_id, seg.bytes, now);
            }
            // Recycle the drained block's segment buffer.
            self.harq_pool.segments.give(block.segments);
        }
        for entry in queue {
            add(
                index,
                &mut forwarded,
                entry.packet.id,
                entry.remaining_bytes,
                entry.packet.enqueued_at,
            );
        }
        forwarded
    }

    /// Enqueue a downlink packet for an attached UE.
    pub fn enqueue(&mut self, ue: UeId, packet: QueuedPacket) {
        let Some(slot) = self.slots.slot_of(ue) else {
            debug_assert!(false, "enqueue for unattached {ue}");
            return;
        };
        self.queued_bits[slot] += u64::from(packet.bytes) * 8;
        self.queues[slot].push_back(QueueEntry {
            remaining_bytes: packet.bytes,
            packet,
        });
    }

    /// Stage the channel state of an attached UE for the next tick.  The
    /// staged state is consumed by [`Cell::tick_prepared`]; a UE with no
    /// staged state is simply not scheduled that subframe.
    pub fn set_channel(&mut self, ue: UeId, state: ChannelState) {
        let Some(slot) = self.slots.slot_of(ue) else {
            debug_assert!(false, "channel staged for unattached {ue}");
            return;
        };
        if self.channel[slot].replace(state).is_none() {
            self.staged.push(slot as u32);
        }
    }

    /// True while the cell holds lanes for the UE.
    #[cfg(test)]
    pub(crate) fn is_attached(&self, ue: UeId) -> bool {
        self.slots.slot_of(ue).is_some()
    }

    /// Bits waiting in the downlink queue of a UE (O(log n): a binary search
    /// into the slot index plus one dense read).
    pub fn queue_bits(&self, ue: UeId) -> u64 {
        self.slots
            .slot_of(ue)
            .map(|slot| self.queued_bits[slot])
            .unwrap_or(0)
    }

    /// Number of packets waiting (fully or partially) for a UE.
    pub fn queue_packets(&self, ue: UeId) -> usize {
        self.slots
            .slot_of(ue)
            .map(|slot| self.queues[slot].len())
            .unwrap_or(0)
    }

    /// True while the cell holds anything for the UE: queued packets or
    /// transport blocks awaiting HARQ retransmission.
    pub fn holds_data(&self, ue: UeId) -> bool {
        self.slots.slot_of(ue).is_some_and(|slot| {
            !self.queues[slot].is_empty() || self.harq[slot].pending_count() > 0
        })
    }

    /// Long-run PRB utilisation of the cell.
    pub fn utilisation(&self) -> f64 {
        if self.subframes_ticked == 0 {
            return 0.0;
        }
        self.total_allocated_prbs as f64
            / (self.subframes_ticked as f64 * f64::from(self.config.total_prbs()))
    }

    /// Pull up to `capacity_bits` of queued payload for the UE at `slot` into
    /// segments, reusing a pooled buffer.
    fn pull_segments(&mut self, slot: usize, capacity_bits: u32) -> (Vec<Segment>, u32) {
        let mut segments = self.harq_pool.segments.take();
        let queue = &mut self.queues[slot];
        let mut capacity_bytes = capacity_bits / 8;
        let mut used_bytes = 0u32;
        while capacity_bytes > 0 {
            let Some(front) = queue.front_mut() else {
                break;
            };
            let take = front.remaining_bytes.min(capacity_bytes);
            if take == 0 {
                break;
            }
            front.remaining_bytes -= take;
            capacity_bytes -= take;
            used_bytes += take;
            let is_last = front.remaining_bytes == 0;
            segments.push(Segment {
                packet_id: front.packet.id,
                bytes: take,
                is_last,
            });
            if is_last {
                queue.pop_front();
            }
        }
        let used_bits = u64::from(used_bytes) * 8;
        if used_bits > 0 {
            self.queued_bits[slot] = self.queued_bits[slot].saturating_sub(used_bits);
        }
        (segments, used_bytes * 8)
    }

    /// Advance the cell by one subframe using the channel states staged via
    /// [`Cell::set_channel`], writing into a caller-owned report.
    ///
    /// The hot-loop entry point: the report's vectors are cleared and
    /// refilled in place, previously reported transport blocks donate their
    /// segment buffers back to the pool, HARQ retransmits in place and
    /// writes its outcomes straight into the report, the copy of a failed
    /// block takes a pooled buffer, and all per-UE state is read from dense
    /// lanes — a driver that reuses one report per cell allocates nothing
    /// per subframe, loaded or idle, once the buffers have grown to their
    /// working size (`tests/zero_alloc_tick.rs`).  Only the staged slots are
    /// visited, so the cost is O(staged UEs + allocations + background), not
    /// O(attached UEs).  Staged channel states are consumed (reset to
    /// `None`).
    pub fn tick_prepared(&mut self, subframe: u64, report: &mut SubframeReport) {
        self.subframes_ticked += 1;
        report.cell = self.config.id;
        report.subframe = subframe;
        report.dci_messages.clear();
        // Transport blocks from the previous subframe's report are dead;
        // recycle their segment buffers instead of dropping them.
        for (_, o) in report.outcomes.drain(..) {
            self.harq_pool.segments.give(o.block.segments);
        }
        report.prb_usage.total = self.config.total_prbs();
        report.prb_usage.allocations.clear();

        // Slot order is UeId order — the cross-process determinism invariant
        // (see ShardedNetwork::tick_into) — so `schedule` walks the staged
        // slots sorted.
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_unstable();
        // An out-of-service cell transmits nothing and draws no randomness:
        // the report stays empty, staged channel states are consumed as
        // usual, and every queue/HARQ timer freezes in place.
        if !self.down {
            self.schedule(subframe, &staged, report);
        }
        // Staged channel states are good for exactly one subframe.
        for &slot in &staged {
            self.channel[slot as usize] = None;
        }
        staged.clear();
        self.staged = staged;
    }

    /// Schedule one subframe of an in-service cell over the sorted `staged`
    /// slots, filling the cleared `report`.
    fn schedule(&mut self, subframe: u64, staged: &[u32], report: &mut SubframeReport) {
        let total_prbs = self.config.total_prbs();
        let mut cursor: u16 = 0;

        // --- Phase 1: HARQ retransmissions take priority. ------------------
        for &slot in staged {
            let slot = slot as usize;
            let Some(state) = self.channel[slot] else {
                continue;
            };
            if !self.harq[slot].has_due_retransmission(subframe) {
                continue;
            }
            let ue = self.slots.ids()[slot];
            let rnti = self.rnti[slot];
            let ber = state.bit_error_rate;
            let mut rng = self
                .rng
                .split_indexed("retx", subframe ^ u64::from(ue.0) << 32);
            // Outcomes go straight into the report; the tail they fill gets
            // its PRBs and DCIs below, in the same order.
            let first = report.outcomes.len();
            self.harq[slot].retransmit_due(
                subframe,
                |block| rng.bernoulli(tb_error_probability(u64::from(block.tbs_bits), ber)),
                &mut self.harq_pool,
                |o| report.outcomes.push((ue, o)),
            );
            for (_, o) in &report.outcomes[first..] {
                let prbs = o.block.num_prbs.min(total_prbs.saturating_sub(cursor));
                if prbs > 0 {
                    report.prb_usage.allocations.push(PrbAllocation {
                        ue,
                        rnti,
                        first_prb: cursor,
                        num_prbs: prbs,
                    });
                    cursor += prbs;
                }
                report.dci_messages.push(DciMessage {
                    cell: self.config.id,
                    subframe,
                    rnti,
                    format: if state.spatial_streams > 1 {
                        DciFormat::Format2
                    } else {
                        DciFormat::Format1
                    },
                    first_prb: report
                        .prb_usage
                        .allocations
                        .last()
                        .map(|a| a.first_prb)
                        .unwrap_or(0),
                    num_prbs: prbs,
                    mcs: state.cqi.to_mcs(),
                    spatial_streams: state.spatial_streams,
                    new_data_indicator: false,
                    harq_process: (o.block.id % 8) as u8,
                    tbs_bits: o.block.tbs_bits,
                });
            }
        }

        // --- Phase 2: background grants and foreground new data compete for
        // the remaining PRBs through the equal-share scheduler. -------------
        let remaining_prbs = total_prbs - cursor;
        self.background.tick_into(subframe, &mut self.bg_grants);
        self.demands.clear();
        BackgroundTraffic::append_demands(&self.bg_grants, &mut self.demands);
        for &slot in staged {
            let slot = slot as usize;
            let Some(state) = self.channel[slot] else {
                continue;
            };
            let queue_bits = self.queued_bits[slot];
            if queue_bits == 0 {
                continue;
            }
            let prbs =
                prbs_needed(queue_bits, state.cqi, state.spatial_streams).min(remaining_prbs);
            if prbs == 0 {
                continue;
            }
            self.demands.push(Demand {
                ue: self.slots.ids()[slot],
                rnti: self.rnti[slot],
                prbs,
                class: DemandClass::Data,
            });
        }
        self.scheduler
            .schedule_into(remaining_prbs, &self.demands, &mut self.sched);

        // Background DCIs.  Background RNTIs are unique within a subframe, so
        // a linear scan over the (small) grant list replaces the per-subframe
        // rnti → grant map.
        for alloc in &self.sched.allocations {
            if let Some(grant) = self.bg_grants.iter().find(|g| g.rnti == alloc.rnti) {
                let tbs = transport_block_size(alloc.num_prbs, grant.cqi, 1);
                report.dci_messages.push(DciMessage {
                    cell: self.config.id,
                    subframe,
                    rnti: alloc.rnti,
                    format: if grant.is_control {
                        DciFormat::Format1A
                    } else {
                        DciFormat::Format1
                    },
                    first_prb: alloc.first_prb + cursor,
                    num_prbs: alloc.num_prbs,
                    mcs: grant.cqi.to_mcs(),
                    spatial_streams: 1,
                    new_data_indicator: true,
                    harq_process: (subframe % 8) as u8,
                    tbs_bits: tbs,
                });
            }
        }

        // Dense per-slot grant totals replace the O(allocations) scans of
        // `ScheduleResult::granted_to` in the foreground loop below.  The
        // lanes are all zero between ticks: resized (zero-filled) only when
        // the slot count changed, and re-zeroed below where granted.
        let n = self.slots.len();
        if self.granted_prbs.len() != n {
            self.granted_prbs.clear();
            self.granted_prbs.resize(n, 0);
            self.granted_first.clear();
            self.granted_first.resize(n, 0);
        }
        for a in &self.sched.allocations {
            if let Some(slot) = self.slots.slot_of(a.ue) {
                if self.granted_prbs[slot] == 0 {
                    self.granted_first[slot] = a.first_prb;
                }
                self.granted_prbs[slot] += a.num_prbs;
            }
        }

        // Foreground transport blocks.
        for &slot in staged {
            let slot = slot as usize;
            let Some(state) = self.channel[slot] else {
                continue;
            };
            let granted = self.granted_prbs[slot];
            if granted == 0 {
                continue;
            }
            let ue = self.slots.ids()[slot];
            let rnti = self.rnti[slot];
            let tbs_bits = transport_block_size(granted, state.cqi, state.spatial_streams);
            // γ of the physical transport block is RLC/PDCP/MAC headers; only
            // the remainder carries transport payload (paper Eqn. 5).
            let payload_capacity = (f64::from(tbs_bits) * (1.0 - self.protocol_overhead)) as u32;
            let (segments, used_bits) = self.pull_segments(slot, payload_capacity);
            if segments.is_empty() {
                self.harq_pool.segments.give(segments);
                continue;
            }
            // The physical bits occupied on the air, including headers: this
            // is what the DCI advertises and what the error model sees.
            let physical_bits =
                (f64::from(used_bits) / (1.0 - self.protocol_overhead)).ceil() as u32;
            self.tb_counter += 1;
            let sequence = {
                let seq = &mut self.next_sequence[slot];
                let s = *seq;
                *seq += 1;
                s
            };
            let block = TransportBlock {
                id: self.tb_counter,
                sequence,
                tbs_bits: physical_bits.max(16),
                num_prbs: granted,
                segments,
                first_tx_subframe: subframe,
            };
            let error_p = tb_error_probability(u64::from(block.tbs_bits), state.bit_error_rate);
            let mut rng = self.rng.split_indexed("tberr", self.tb_counter);
            let error = rng.bernoulli(error_p);
            let outcome = self.harq[slot].transmit_new(block, subframe, error, &mut self.harq_pool);
            let first_prb = self.granted_first[slot] + cursor;
            report.dci_messages.push(DciMessage {
                cell: self.config.id,
                subframe,
                rnti,
                format: if state.spatial_streams > 1 {
                    DciFormat::Format2
                } else {
                    DciFormat::Format1
                },
                first_prb,
                num_prbs: granted,
                mcs: state.cqi.to_mcs(),
                spatial_streams: state.spatial_streams,
                new_data_indicator: true,
                harq_process: (outcome.block.id % 8) as u8,
                tbs_bits: outcome.block.tbs_bits,
            });
            report.outcomes.push((ue, outcome));
        }

        // --- Phase 3: bookkeeping. ------------------------------------------
        for alloc in &self.sched.allocations {
            if let Some(slot) = self.slots.slot_of(alloc.ue) {
                self.granted_prbs[slot] = 0;
            }
            report.prb_usage.allocations.push(PrbAllocation {
                ue: alloc.ue,
                rnti: alloc.rnti,
                first_prb: alloc.first_prb + cursor,
                num_prbs: alloc.num_prbs,
            });
        }
        self.total_allocated_prbs += u64::from(report.prb_usage.allocated());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use crate::config::CellConfig;
    use crate::traffic::CellLoadProfile;

    fn quiet_cell() -> Cell {
        Cell::new(
            CellConfig::primary_20mhz(CellId(0)),
            BackgroundTraffic::new(CellLoadProfile::none(), DetRng::new(10)),
            DetRng::new(11),
        )
    }

    fn good_channel() -> ChannelState {
        ChannelModel::stationary(-85.0, 2, DetRng::new(1))
            .deterministic()
            .sample(Instant::ZERO)
    }

    /// Stage `channels` and tick once into a fresh report.
    fn tick(cell: &mut Cell, subframe: u64, channels: &[(UeId, ChannelState)]) -> SubframeReport {
        for &(ue, state) in channels {
            cell.set_channel(ue, state);
        }
        let mut report = SubframeReport::default();
        cell.tick_prepared(subframe, &mut report);
        report
    }

    #[test]
    fn empty_cell_emits_no_dci_and_stays_idle() {
        let mut cell = quiet_cell();
        let report = tick(&mut cell, 0, &[]);
        assert!(report.dci_messages.is_empty());
        assert_eq!(report.prb_usage.idle(), 100);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn queued_packet_is_transmitted_and_queue_drains() {
        let mut cell = quiet_cell();
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        cell.enqueue(
            ue,
            QueuedPacket {
                id: 1,
                bytes: 1500,
                enqueued_at: Instant::ZERO,
            },
        );
        assert_eq!(cell.queue_bits(ue), 12_000);
        let report = tick(&mut cell, 0, &[(ue, good_channel())]);
        // One DCI for the UE, new data, covering the whole packet.
        assert_eq!(report.dci_messages.len(), 1);
        let dci = &report.dci_messages[0];
        assert!(dci.new_data_indicator);
        assert_eq!(dci.rnti, Rnti(0x100));
        assert!(dci.num_prbs > 0);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].0, ue);
        let seg = &report.outcomes[0].1.block.segments;
        assert_eq!(seg.len(), 1);
        assert_eq!(seg[0].packet_id, 1);
        assert!(seg[0].is_last);
        assert_eq!(cell.queue_bits(ue), 0);
    }

    #[test]
    fn large_packet_spans_multiple_subframes() {
        let mut cell = quiet_cell();
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        // 1 MB packet cannot fit a single 20 MHz subframe (~20 kB).
        cell.enqueue(
            ue,
            QueuedPacket {
                id: 7,
                bytes: 1_000_000,
                enqueued_at: Instant::ZERO,
            },
        );
        let ch = good_channel();
        let mut subframes_with_data = 0;
        let mut last_seen = false;
        for sf in 0..200u64 {
            let report = tick(&mut cell, sf, &[(ue, ch)]);
            for (_, o) in &report.outcomes {
                subframes_with_data += 1;
                if o.block
                    .segments
                    .iter()
                    .any(|s| s.is_last && s.packet_id == 7)
                {
                    last_seen = true;
                }
            }
            if cell.queue_bits(ue) == 0 {
                break;
            }
        }
        assert!(last_seen, "the packet eventually finishes");
        assert!(subframes_with_data > 10, "it took many transport blocks");
        assert_eq!(cell.queue_bits(ue), 0);
    }

    #[test]
    fn two_backlogged_ues_share_the_cell_equally() {
        let mut cell = quiet_cell();
        let (a, b) = (UeId(1), UeId(2));
        cell.attach(a, Rnti(0x100));
        cell.attach(b, Rnti(0x101));
        for i in 0..2000 {
            cell.enqueue(
                a,
                QueuedPacket {
                    id: i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
            cell.enqueue(
                b,
                QueuedPacket {
                    id: 10_000 + i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        let channels = [(a, good_channel()), (b, good_channel())];
        let mut prbs_a = 0u64;
        let mut prbs_b = 0u64;
        for sf in 0..50u64 {
            let report = tick(&mut cell, sf, &channels);
            prbs_a += u64::from(report.prb_usage.allocated_to(a));
            prbs_b += u64::from(report.prb_usage.allocated_to(b));
        }
        let ratio = prbs_a as f64 / prbs_b as f64;
        assert!((0.9..1.1).contains(&ratio), "PRB ratio = {ratio}");
    }

    #[test]
    fn retransmission_dci_has_ndi_false_and_arrives_8_subframes_later() {
        // Force errors by using an artificially terrible channel state.
        let mut cell = quiet_cell();
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        for i in 0..50 {
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        let mut bad = good_channel();
        bad.bit_error_rate = 5e-4; // enormous: every block fails.
        let report0 = tick(&mut cell, 0, &[(ue, bad)]);
        assert!(!report0.outcomes[0].1.success);
        // No retransmission before subframe 8.
        for sf in 1..8u64 {
            let r = tick(&mut cell, sf, &[(ue, bad)]);
            assert!(r.dci_messages.iter().all(|d| d.new_data_indicator));
        }
        let report8 = tick(&mut cell, 8, &[(ue, bad)]);
        assert!(
            report8.dci_messages.iter().any(|d| !d.new_data_indicator),
            "a retransmission DCI is sent at +8 ms"
        );
    }

    #[test]
    fn utilisation_reflects_load() {
        let mut cell = quiet_cell();
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        for sf in 0..100u64 {
            tick(&mut cell, sf, &[(ue, good_channel())]);
        }
        assert_eq!(cell.utilisation(), 0.0);
        for i in 0..100_000 {
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        for sf in 100..200u64 {
            tick(&mut cell, sf, &[(ue, good_channel())]);
        }
        assert!(
            cell.utilisation() > 0.4,
            "utilisation = {}",
            cell.utilisation()
        );
    }

    #[test]
    fn prb_usage_is_always_consistent_under_background_load() {
        let mut cell = Cell::new(
            CellConfig::primary_20mhz(CellId(0)),
            BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(3)),
            DetRng::new(4),
        );
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        for i in 0..50_000 {
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        for sf in 0..500u64 {
            let report = tick(&mut cell, sf, &[(ue, good_channel())]);
            assert!(report.prb_usage.is_consistent(), "subframe {sf}");
        }
    }

    #[test]
    fn a_down_cell_schedules_nothing_and_resumes_cleanly() {
        let mut cell = quiet_cell();
        let ue = UeId(1);
        cell.attach(ue, Rnti(0x100));
        for i in 0..10 {
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: i,
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        cell.set_down(true);
        assert!(cell.is_down());
        let before = cell.queue_bits(ue);
        for sf in 0..20u64 {
            let report = tick(&mut cell, sf, &[(ue, good_channel())]);
            assert!(report.dci_messages.is_empty(), "down cell emits no DCI");
            assert!(report.outcomes.is_empty());
            assert_eq!(report.prb_usage.allocated(), 0);
            assert_eq!(cell.queue_bits(ue), before, "queue frozen in place");
        }
        assert_eq!(cell.queue_bits(ue), before);
        // Back in service: the frozen queue drains again.
        cell.set_down(false);
        let report = tick(&mut cell, 20, &[(ue, good_channel())]);
        assert!(!report.dci_messages.is_empty(), "service resumed");
        assert!(cell.queue_bits(ue) < before);
    }

    /// A handover attaches and detaches UEs between phase-1 staging and the
    /// tick: the staged slots must follow their UEs through the shift.
    #[test]
    fn staged_slots_survive_a_mid_subframe_attach_and_detach() {
        let mut cell = quiet_cell();
        let (two, three, four) = (UeId(2), UeId(3), UeId(4));
        for (ue, rnti) in [(two, Rnti(0x102)), (four, Rnti(0x104))] {
            cell.attach(ue, rnti);
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: u64::from(ue.0),
                    bytes: 1500,
                    enqueued_at: Instant::ZERO,
                },
            );
        }
        let weak = ChannelModel::stationary(-100.0, 2, DetRng::new(1))
            .deterministic()
            .sample(Instant::ZERO);
        assert_ne!(weak.cqi, good_channel().cqi);
        cell.set_channel(two, good_channel());
        cell.set_channel(four, weak);
        // UE 3 lands between the two staged slots, with data but no staged
        // channel; then UE 2 leaves.
        cell.attach(three, Rnti(0x103));
        cell.enqueue(
            three,
            QueuedPacket {
                id: 3,
                bytes: 1500,
                enqueued_at: Instant::ZERO,
            },
        );
        assert!(!cell.detach(two, Instant::ZERO).is_empty());

        let report = tick(&mut cell, 0, &[]);
        assert_eq!(report.dci_messages.len(), 1, "only UE 4 is scheduled");
        let dci = &report.dci_messages[0];
        assert_eq!(dci.rnti, Rnti(0x104));
        assert_eq!(dci.mcs, weak.cqi.to_mcs(), "with its staged MCS");
        assert_eq!(dci.spatial_streams, weak.spatial_streams);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].0, four);

        // The tick consumed every staged state: nothing is scheduled next,
        // although UE 3 still holds its packet.
        let report = tick(&mut cell, 1, &[]);
        assert!(report.dci_messages.is_empty());
        assert!(report.outcomes.is_empty());
        assert!(cell.holds_data(three));
    }

    /// A cell's report depends only on the UEs that are scheduled: 300
    /// attached UEs with no data, half of them staged every subframe,
    /// change no byte of it.
    #[test]
    fn idle_attached_ues_change_no_byte_of_the_report() {
        let loaded_cell = || {
            Cell::new(
                CellConfig::primary_20mhz(CellId(0)),
                BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(3)),
                DetRng::new(4),
            )
        };
        let (mut alone, mut crowded) = (loaded_cell(), loaded_cell());
        let busy = UeId(150);
        alone.attach(busy, Rnti(0x100));
        crowded.attach(busy, Rnti(0x100));
        // Idle ids on both sides of the busy UE's slot.
        let idle: Vec<UeId> = (0..301u32).filter(|&i| i != 150).map(UeId).collect();
        for (i, ue) in idle.iter().enumerate() {
            crowded.attach(*ue, Rnti(0x200 + i as u16));
        }
        let mut channel = ChannelModel::stationary(-96.0, 2, DetRng::new(5));
        let (mut report_a, mut report_b) = (SubframeReport::default(), SubframeReport::default());
        let mut scheduled = 0usize;
        for sf in 0..500u64 {
            if sf % 4 == 0 {
                for cell in [&mut alone, &mut crowded] {
                    for k in 0..6 {
                        cell.enqueue(
                            busy,
                            QueuedPacket {
                                id: sf * 10 + k,
                                bytes: 1500,
                                enqueued_at: Instant::from_millis(sf),
                            },
                        );
                    }
                }
            }
            let state = channel.sample(Instant::from_millis(sf));
            alone.set_channel(busy, state);
            crowded.set_channel(busy, state);
            for ue in idle.iter().step_by(2) {
                crowded.set_channel(*ue, state);
            }
            alone.tick_prepared(sf, &mut report_a);
            crowded.tick_prepared(sf, &mut report_b);
            assert_eq!(
                serde_json::to_string(&report_a).unwrap(),
                serde_json::to_string(&report_b).unwrap(),
                "subframe {sf}"
            );
            scheduled += report_a.outcomes.len();
        }
        assert!(scheduled > 100, "the busy UE was served: {scheduled}");
    }
}
