//! The radio-access-network tick engine: cells, UEs, carrier aggregation,
//! inter-cell handover and the per-subframe data path, ticked as one or
//! more deterministic shards.
//!
//! [`ShardedNetwork`] is the boundary the end-to-end simulator talks to: the
//! wired path hands it downlink packets ([`ShardedNetwork::enqueue_packet`]),
//! it advances the network one 1 ms subframe at a time
//! ([`ShardedNetwork::tick_into`]), and it reports packet deliveries (with
//! the HARQ/reordering delays the paper analyses), every DCI message
//! transmitted on every cell's control channel (the PBE-CC monitor's input),
//! PRB usage, carrier-aggregation events and serving-cell handovers.
//!
//! The cell grid is partitioned into geo-contiguous shards (contiguous runs
//! of the configured cell order, which the `CityScale` generator emits
//! row-major).  Each shard owns its cells and the SoA lanes of its
//! *resident* UEs — a UE resides in the shard of its serving (primary)
//! cell — plus shard-local [`HandoverManager`] and
//! [`CarrierAggregationManager`] instances holding exactly the resident
//! UEs' states.  One shard is the whole network: it spawns no threads, runs
//! every phase inline on the caller and crosses no barrier messages.  More
//! shards run the same phase functions on a persistent [`WorkerPool`].
//!
//! The correctness bar is **byte-identity**: the [`NetworkTickReport`]
//! stream (and everything downstream of it) is the same bytes for every
//! shard count.  That works because every tick-time random draw comes from a
//! stream owned by exactly one cell (`split_indexed("cell"/"bg", cell_id)`)
//! or one (UE, cell) channel (`split_indexed("chan", …)`) — streams derived
//! from the seed at construction and carried by whichever shard owns the
//! object — and because everything that crosses a shard border travels as
//! an explicit message applied in an order fixed by logical keys, never by
//! worker completion order:
//!
//! ```text
//!            shard 0            shard 1            shard 2
//!         ┌───────────┐      ┌───────────┐      ┌───────────┐
//! phase 1 │ sample+A3 │      │ sample+A3 │      │ sample+A3 │   parallel
//!         └─────┬─────┘      └─────┬─────┘      └─────┬─────┘
//!               │  channel outboxes (foreign active cells)
//!               │  pending handovers (A3 decisions)
//!               ▼
//!         ═════ barrier: apply outboxes; merge handovers by UeId; ═════
//!         ═════ execute X2 drain/forward + UE migration in order  ═════
//!               │
//!         ┌─────┴─────┐      ┌───────────┐      ┌───────────┐
//! phase 3 │ tick cells│      │ tick cells│      │ tick cells│   parallel
//!         └─────┬─────┘      └─────┬─────┘      └─────┬─────┘
//!               │  per-cell SubframeReports (disjoint slices)
//!               ▼
//!         ┌───────────┐      ┌───────────┐      ┌───────────┐
//! phase 4 │deliver+CA │      │deliver+CA │      │deliver+CA │   parallel
//!         └─────┬─────┘      └─────┬─────┘      └─────┬─────┘
//!               │  packet events keyed (cell, outcome, event)
//!               │  CA events keyed UeId
//!               ▼
//!         ═════ barrier: sort-merge into global cell / UeId order ═════
//! ```
//!
//! The cross-shard messages are the two interactions between a UE and a
//! cell it does not reside with: staging a channel state into a foreign
//! cell (a boundary UE whose secondary carrier lives in another shard), and
//! the X2 handover drain/forwarding when an A3 event moves a UE across a
//! shard border — in which case the UE's slab lanes and its handover/CA
//! state migrate to the target shard ([`HandoverManager::take_ue`],
//! [`CarrierAggregationManager::take_ue`]).
//!
//! The tick path is allocation-conscious: drivers that advance millions of
//! subframes call [`ShardedNetwork::tick_into`] with one reused
//! [`NetworkTickReport`], which clears and refills its buffers in place.
//! UEs live in a struct-of-arrays slab ([`UeSlots`] index plus a parallel
//! `Vec<UserEquipment>` lane), cells are addressed through one dense
//! CellId-indexed table, and channel states are staged directly into each
//! cell via [`Cell::set_channel`] instead of per-cell hash maps.

use crate::carrier::{CaEvent, CaObservation, CarrierAggregationManager};
use crate::cell::{Cell, QueuedPacket, SubframeReport};
use crate::channel::{ChannelModel, ChannelState, MobilityTrace};
use crate::config::{CellId, CellularConfig, Rnti, UeConfig, UeId};
use crate::handover::{HandoverEvent, HandoverManager};
use crate::network::{Delivery, NetworkTickReport, RlfOutcome, OUTAGE_RSRP_DBM};
use crate::slab::{SlotInsert, UeSlots};
use crate::traffic::{BackgroundTraffic, CellLoadProfile};
use crate::ue::{PacketEvent, UserEquipment};
use pbe_stats::pool::WorkerPool;
use pbe_stats::time::Instant;
use pbe_stats::{DetRng, FxHashMap};
use std::collections::HashMap;

/// A raw pointer that may cross thread boundaries.  Soundness is this
/// module's obligation: every parallel section hands each shard index to
/// exactly one worker, so the pointed-to element is accessed by one thread
/// at a time.
struct ShardPtr<T>(*mut T);

unsafe impl<T> Send for ShardPtr<T> {}
unsafe impl<T> Sync for ShardPtr<T> {}

impl<T> ShardPtr<T> {
    /// Pointer to element `i`.  Going through a method makes closures
    /// capture the whole `ShardPtr`, which carries the `Sync` promise.
    fn at(&self, i: usize) -> *mut T {
        // SAFETY: callers only pass indices inside the allocation.
        unsafe { self.0.add(i) }
    }
}

/// Run `phase(i)` for every shard index: on the pool, or inline on the
/// caller when the network is one shard and has no pool.
fn run_phase(pool: &Option<WorkerPool>, shards: usize, phase: impl Fn(usize) + Sync) {
    match pool {
        Some(pool) => pool.run(shards, phase),
        None => phase(0),
    }
}

/// Sort key fixing the delivery order: (cell position, outcome index within
/// the cell report, event index within the outcome).
type DeliveryKey = (u32, u32, u32);

/// `CellEntry::shard` of a CellId the configuration does not name.
const ABSENT: u32 = u32::MAX;

/// One row of the dense CellId-indexed table: where the cell lives and what
/// the per-UE loops need to know about it without touching the cell.  Sized
/// to the largest configured id (metro grids go well past 256 cells).
#[derive(Clone, Copy)]
struct CellEntry {
    /// Owning shard, or [`ABSENT`].
    shard: u32,
    /// Position inside the owning shard's `cells`.
    local: u32,
    /// PRB count of the cell (the per-UE-per-subframe CA bookkeeping must
    /// not pay a scan of the cell list for each active cell).
    prbs: u32,
    /// Out of service (injected outage).  Read by every worker during
    /// phase 1; written only between ticks.
    down: bool,
}

#[inline]
fn entry_of(table: &[CellEntry], id: CellId) -> Option<&CellEntry> {
    table.get(usize::from(id.0)).filter(|e| e.shard != ABSENT)
}

fn cell_at<'a>(shards: &'a [CellShard], table: &[CellEntry], id: CellId) -> Option<&'a Cell> {
    let e = entry_of(table, id)?;
    Some(&shards[e.shard as usize].cells[e.local as usize])
}

fn cell_at_mut<'a>(
    shards: &'a mut [CellShard],
    table: &[CellEntry],
    id: CellId,
) -> Option<&'a mut Cell> {
    let e = entry_of(table, id)?;
    Some(&mut shards[e.shard as usize].cells[e.local as usize])
}

/// The cells one shard owns: a contiguous run of the configured cell order.
struct CellShard {
    /// Global position (index into the configured cell order) of `cells[0]`.
    start: usize,
    /// The owned cells, in configured order.
    cells: Vec<Cell>,
}

/// The resident-UE state one shard owns: one sorted [`UeSlots`] index plus
/// its parallel `ues` lane.  Slot order is UeId order — the per-subframe
/// iteration order that keeps scheduling, delivery and RNG-draw order
/// reproducible across processes.
struct UeShard {
    /// Sorted dense UeId → slot index of the resident UEs.
    slots: UeSlots,
    /// Lane: UE receive-side state.
    ues: Vec<UserEquipment>,
    /// Shard-local A3 state machine holding exactly the resident UEs.
    handover: HandoverManager,
    /// Shard-local CA state machine holding exactly the resident UEs.
    ca: CarrierAggregationManager,
    /// Scratch: RSRP measurements of the UE under evaluation.
    rsrp_scratch: Vec<(CellId, f64)>,
    /// Scratch: packet events of the outcome under processing.
    event_scratch: Vec<PacketEvent>,
    /// Scratch: PRBs allocated per resident slot this subframe.
    alloc_scratch: Vec<u32>,
    /// Outbox: channel states staged for cells owned by other shards
    /// (owning shard, position in it, UE, state), applied at the phase-1
    /// barrier.
    outbox: Vec<(u32, u32, UeId, ChannelState)>,
    /// Handover decisions of this measurement round (resident UeId order).
    pending: Vec<(UeId, CellId)>,
    /// Packet events produced this subframe, tagged with their order key.
    events_buf: Vec<(DeliveryKey, PacketEvent)>,
    /// CA events produced this subframe (resident UeId order).
    ca_buf: Vec<CaEvent>,
}

impl UeShard {
    fn new(config: &CellularConfig) -> Self {
        UeShard {
            slots: UeSlots::new(),
            ues: Vec::new(),
            handover: HandoverManager::new(config.handover),
            ca: CarrierAggregationManager::new(),
            rsrp_scratch: Vec::new(),
            event_scratch: Vec::new(),
            alloc_scratch: Vec::new(),
            outbox: Vec::new(),
            pending: Vec::new(),
            events_buf: Vec::new(),
            ca_buf: Vec::new(),
        }
    }

    /// Number of currently active (aggregated) cells of the UE in `slot`.
    fn active_count(&self, slot: usize) -> usize {
        let cfg = self.ues[slot].config();
        self.ca
            .active_cells(cfg.id)
            .min(cfg.max_aggregated_cells)
            .min(cfg.configured_cells.len())
    }
}

/// Close a UE-side packet event into the report's [`Delivery`], retiring
/// the packet's size entry.
fn close_delivery(packet_bytes: &mut FxHashMap<u64, u32>, e: &PacketEvent) -> Delivery {
    Delivery {
        ue: e.ue,
        packet_id: e.packet_id,
        bytes: packet_bytes.remove(&e.packet_id).unwrap_or(0),
        at: e.at,
        delivered: e.delivered,
        cell: e.cell,
    }
}

/// The simulated radio access network.  Reports are byte-identical for
/// every shard count.
pub struct ShardedNetwork {
    config: CellularConfig,
    cell_shards: Vec<CellShard>,
    ue_shards: Vec<UeShard>,
    /// Dense CellId → [`CellEntry`].
    cell_table: Vec<CellEntry>,
    /// Sizes of the packets in flight, by (globally unique) packet id.
    /// Touched only outside the parallel phases.
    packet_bytes: FxHashMap<u64, u32>,
    next_rnti: u16,
    rng: DetRng,
    /// One worker per shard; `None` for one shard, which needs no threads.
    pool: Option<WorkerPool>,
    /// Merge scratch: pending handovers of the current round.
    pending: Vec<(UeId, CellId)>,
    /// Merge scratch: tagged packet events of the current subframe.
    event_merge: Vec<(DeliveryKey, PacketEvent)>,
}

impl ShardedNetwork {
    /// Build the network partitioned into `shards` geo-contiguous shards
    /// (clamped to `1..=cells`), with one background-traffic generator per
    /// cell using the given load profile.
    pub fn new(config: CellularConfig, load: CellLoadProfile, seed: u64, shards: usize) -> Self {
        let rng = DetRng::new(seed);
        let n_cells = config.cells.len();
        let n_shards = shards.clamp(1, n_cells.max(1));
        let table_len = config
            .cells
            .iter()
            .map(|c| usize::from(c.id.0) + 1)
            .max()
            .unwrap_or(0);
        let absent = CellEntry {
            shard: ABSENT,
            local: 0,
            prbs: 0,
            down: false,
        };
        let mut cell_table = vec![absent; table_len];
        let cell_shards = (0..n_shards)
            .map(|s| {
                // Balanced contiguous partition of the configured order.
                let start = s * n_cells / n_shards;
                let end = (s + 1) * n_cells / n_shards;
                let cells = config.cells[start..end]
                    .iter()
                    .enumerate()
                    .map(|(local, c)| {
                        cell_table[usize::from(c.id.0)] = CellEntry {
                            shard: s as u32,
                            local: local as u32,
                            prbs: u32::from(c.total_prbs()),
                            down: false,
                        };
                        let stream = u64::from(c.id.0);
                        let mut cell = Cell::new(
                            c.clone(),
                            BackgroundTraffic::new(load, rng.split_indexed("bg", stream)),
                            rng.split_indexed("cell", stream),
                        );
                        cell.set_protocol_overhead(config.protocol_overhead);
                        cell
                    })
                    .collect();
                CellShard { start, cells }
            })
            .collect();
        let ue_shards = (0..n_shards).map(|_| UeShard::new(&config)).collect();
        ShardedNetwork {
            config,
            cell_shards,
            ue_shards,
            cell_table,
            packet_bytes: FxHashMap::default(),
            next_rnti: 0x0100,
            rng,
            pool: (n_shards > 1).then(|| WorkerPool::new(n_shards)),
            pending: Vec::new(),
            event_merge: Vec::new(),
        }
    }

    /// Number of shards (== worker threads, including the caller).
    pub fn shards(&self) -> usize {
        self.cell_shards.len()
    }

    /// Static configuration of the network.
    pub fn config(&self) -> &CellularConfig {
        &self.config
    }

    /// The current L3-filtered RSRP of one (UE, cell) pair, if measured
    /// (lives in the UE's home-shard handover manager).
    pub fn filtered_rsrp(&self, ue: UeId, cell: CellId) -> Option<f64> {
        let (home, _) = self.locate(ue)?;
        self.ue_shards[home].handover.filtered_rsrp(ue, cell)
    }

    /// The shard a cell belongs to, or shard 0 for unknown cells.
    fn home_of(&self, cell: CellId) -> usize {
        entry_of(&self.cell_table, cell).map_or(0, |e| e.shard as usize)
    }

    fn cell(&self, id: CellId) -> Option<&Cell> {
        cell_at(&self.cell_shards, &self.cell_table, id)
    }

    fn cell_mut(&mut self, id: CellId) -> Option<&mut Cell> {
        cell_at_mut(&mut self.cell_shards, &self.cell_table, id)
    }

    /// The home shard (the shard of its serving cell) and slot of a
    /// registered UE, found by probing each shard's sorted index: one binary
    /// search per shard, paid per packet and per query, never per UE per
    /// subframe.
    fn locate(&self, id: UeId) -> Option<(usize, usize)> {
        self.ue_shards
            .iter()
            .enumerate()
            .find_map(|(home, us)| Some((home, us.slots.slot_of(id)?)))
    }

    fn ue(&self, id: UeId) -> Option<&UserEquipment> {
        let (home, slot) = self.locate(id)?;
        Some(&self.ue_shards[home].ues[slot])
    }

    fn ue_mut(&mut self, id: UeId) -> Option<&mut UserEquipment> {
        let (home, slot) = self.locate(id)?;
        Some(&mut self.ue_shards[home].ues[slot])
    }

    /// Take a cell out of service (or bring it back).  While down the cell
    /// schedules nothing, its staged channel states are discarded, and every
    /// UE measures it at [`OUTAGE_RSRP_DBM`].  Returns the UEs whose serving
    /// (primary) cell it is, in UeId order — the population a subsequent
    /// [`ShardedNetwork::declare_rlf`] will act on.
    pub fn set_cell_outage(&mut self, cell: CellId, down: bool) -> Vec<UeId> {
        let Some(c) = self.cell_mut(cell) else {
            return Vec::new();
        };
        c.set_down(down);
        self.cell_table[usize::from(cell.0)].down = down;
        self.residents_of(cell)
    }

    /// True while a cell is out of service.
    pub fn cell_is_down(&self, cell: CellId) -> bool {
        entry_of(&self.cell_table, cell).is_some_and(|e| e.down)
    }

    /// UEs whose serving (primary) cell is `cell`, in global UeId order.
    fn residents_of(&self, cell: CellId) -> Vec<UeId> {
        let mut residents: Vec<UeId> = self
            .ue_shards
            .iter()
            .flat_map(|us| {
                us.slots
                    .ids()
                    .iter()
                    .zip(&us.ues)
                    .filter(move |(_, u)| u.config().primary_cell() == cell)
                    .map(|(id, _)| *id)
            })
            .collect();
        // Residents of one cell all live in its shard, but sort anyway: the
        // contract is global UeId order, not an artifact of shard layout.
        residents.sort_unstable_by_key(|ue| ue.0);
        residents
    }

    /// Declare radio-link failure on a (down) cell: every UE whose serving
    /// cell it is re-selects the best live configured cell by filtered RSRP
    /// through the ordinary X2 handover procedure (queued data forwarded,
    /// RLC re-established, CA collapsed, shard migration when the target
    /// lives elsewhere), in UeId order.  UEs with no live configured cell
    /// stay camped, their queued packets counted as stranded.  Reordering
    /// releases are appended to `deliveries`, exactly as for A3 handovers.
    pub fn declare_rlf(
        &mut self,
        cell: CellId,
        now: Instant,
        deliveries: &mut Vec<Delivery>,
    ) -> RlfOutcome {
        let mut outcome = RlfOutcome::default();
        for ue_id in self.residents_of(cell) {
            // The re-selection rule: best filtered RSRP, ties broken by
            // configured order; cells the UE never measured rank below any
            // measured one but stay eligible, so a UE whose only neighbour
            // is unmeasured re-selects it rather than staying on a dead
            // cell.
            let mut best: Option<(CellId, f64)> = None;
            let configured = &self
                .ue(ue_id)
                .expect("resident ue exists")
                .config()
                .configured_cells;
            for &c in configured {
                if c == cell || self.cell_is_down(c) {
                    continue;
                }
                let rsrp = self.filtered_rsrp(ue_id, c).unwrap_or(f64::NEG_INFINITY);
                if best.is_none_or(|(_, b)| rsrp > b) {
                    best = Some((c, rsrp));
                }
            }
            match best {
                Some((target, _)) => {
                    let event = self.execute_handover(ue_id, target, now, deliveries);
                    outcome.events.push(event);
                }
                None => {
                    let stranded = self.cell(cell).map_or(0, |c| c.queue_packets(ue_id) as u64);
                    outcome.stranded_packets += stranded;
                    outcome.stayed.push(ue_id);
                }
            }
        }
        outcome
    }

    /// The deterministic random stream of one (UE, configured-cell-index)
    /// channel — stable across trace overrides so a scenario that replaces a
    /// trace keeps every other draw identical.
    fn channel_rng(&self, ue: UeId, cell_position: u64) -> DetRng {
        self.rng
            .split_indexed("chan", (u64::from(ue.0) << 8) | cell_position)
    }

    fn max_streams(&self, cell: CellId) -> u8 {
        self.config.cell(cell).map_or(2, |c| c.max_spatial_streams)
    }

    /// Register a UE with the given mobility trace applied to all of its
    /// configured cells (secondary cells see the same large-scale trajectory
    /// with a small fixed offset; [`ShardedNetwork::set_cell_trace`]
    /// installs genuinely per-cell trajectories for handover scenarios).
    /// The UE becomes resident in the shard owning its primary cell.
    /// Returns the RNTI assigned to the UE.
    pub fn add_ue(&mut self, ue_config: UeConfig, trace: MobilityTrace) -> Rnti {
        let rnti = Rnti(self.next_rnti);
        self.next_rnti += 1;
        let id = ue_config.id;
        let mut channels = HashMap::new();
        for (i, cell_id) in ue_config.configured_cells.iter().enumerate() {
            // Secondary carriers typically sit at higher frequencies and are
            // received a little weaker.
            let offset = -1.5 * i as f64;
            let mut shifted = trace.clone();
            for w in &mut shifted.waypoints {
                w.1 += offset;
            }
            let model = ChannelModel::new(
                shifted,
                self.max_streams(*cell_id),
                self.channel_rng(id, i as u64),
            );
            channels.insert(*cell_id, model);
            if let Some(cell) = self.cell_mut(*cell_id) {
                cell.attach(id, rnti);
            }
        }
        let home = ue_config
            .configured_cells
            .first()
            .map_or(0, |c| self.home_of(*c));
        // A re-added UE may currently reside elsewhere: bring its lanes and
        // manager states home first so the replacement lands in one shard.
        if let Some((old_home, _)) = self.locate(id) {
            if old_home != home {
                self.migrate_ue(id, old_home, home);
            }
        }
        let ue = UserEquipment::new(ue_config, rnti, channels);
        let us = &mut self.ue_shards[home];
        us.ca.register(id);
        match us.slots.insert(id) {
            SlotInsert::Inserted(slot) => us.ues.insert(slot, ue),
            SlotInsert::Present(slot) => us.ues[slot] = ue,
        }
        rnti
    }

    /// Replace the mobility trace a UE sees towards one of its configured
    /// cells (multi-cell trajectories: each cell's RSSI evolves
    /// independently, which is what makes a handover scenario expressible).
    /// No-op if the UE or cell is unknown.
    pub fn set_cell_trace(&mut self, ue: UeId, cell: CellId, trace: MobilityTrace) {
        let Some(u) = self.ue(ue) else { return };
        let Some(pos) = u.config().configured_cells.iter().position(|c| *c == cell) else {
            return;
        };
        let model = ChannelModel::new(
            trace,
            self.max_streams(cell),
            self.channel_rng(ue, pos as u64),
        );
        if let Some(u) = self.ue_mut(ue) {
            u.set_channel(cell, model);
        }
    }

    /// The RNTI of a registered UE.
    pub fn rnti_of(&self, ue: UeId) -> Option<Rnti> {
        self.ue(ue).map(|u| u.rnti())
    }

    /// The current serving (primary) cell of a UE.
    pub fn serving_cell(&self, ue: UeId) -> Option<CellId> {
        self.ue(ue).map(|u| u.config().primary_cell())
    }

    /// Cells currently active (aggregated) for a UE.
    pub fn active_cells(&self, ue: UeId) -> Vec<CellId> {
        let Some((home, slot)) = self.locate(ue) else {
            return Vec::new();
        };
        let us = &self.ue_shards[home];
        us.ca.active_cell_ids(us.ues[slot].config())
    }

    /// True if the UE ever had a secondary cell activated.
    pub fn carrier_aggregation_triggered(&self, ue: UeId) -> bool {
        self.locate(ue)
            .is_some_and(|(home, _)| self.ue_shards[home].ca.ever_aggregated(ue))
    }

    /// Bits queued for a UE across its configured cells.
    pub fn queue_bits(&self, ue: UeId) -> u64 {
        self.ue(ue).map_or(0, |u| {
            queued_bits(&self.cell_shards, &self.cell_table, u.config())
        })
    }

    /// Receive-side statistics of a UE: `(delivered, lost)` packet counts.
    pub fn ue_stats(&self, ue: UeId) -> (u64, u64) {
        self.ue(ue)
            .map_or((0, 0), |u| (u.packets_delivered, u.packets_lost))
    }

    /// Hand a downlink packet to the base station.  The packet is queued at
    /// the active cell with the lowest queue-to-capacity ratio (the network's
    /// internal flow splitting across aggregated carriers).
    pub fn enqueue_packet(&mut self, ue: UeId, packet_id: u64, bytes: u32, now: Instant) {
        let Some((home, slot)) = self.locate(ue) else {
            return;
        };
        let us = &self.ue_shards[home];
        let mut target: Option<(CellId, f64)> = None;
        for cell_id in &us.ues[slot].config().configured_cells[..us.active_count(slot)] {
            let cell = self.cell(*cell_id).expect("active cell exists");
            let load = cell.queue_bits(ue) as f64 / f64::from(cell.config().total_prbs());
            if target.is_none_or(|(_, best)| load < best) {
                target = Some((*cell_id, load));
            }
        }
        let Some((target, _)) = target else { return };
        self.packet_bytes.insert(packet_id, bytes);
        if let Some(cell) = self.cell_mut(target) {
            cell.enqueue(
                ue,
                QueuedPacket {
                    id: packet_id,
                    bytes,
                    enqueued_at: now,
                },
            );
        }
    }

    /// Advance the whole radio access network by one subframe, returning a
    /// freshly allocated report (see [`ShardedNetwork::tick_into`] for the
    /// allocation-free variant drivers should prefer).
    pub fn tick(&mut self, now: Instant) -> NetworkTickReport {
        let mut report = NetworkTickReport::default();
        self.tick_into(now, &mut report);
        report
    }

    /// Advance the whole radio access network by one subframe, writing into
    /// a caller-owned report whose buffers are cleared and reused.
    pub fn tick_into(&mut self, now: Instant, report: &mut NetworkTickReport) {
        let subframe = now.subframe_index();
        report.subframe = subframe;
        report.deliveries.clear();
        report.dci_messages.clear();
        report.ca_events.clear();
        report.handovers.clear();

        let n = self.cell_shards.len();
        let measure =
            self.config.handover.enabled && self.ue_shards[0].handover.is_measurement_subframe(now);

        // --- Phase 1 (parallel): channel sampling, staging, A3. ------------
        // Worker i owns (cell_shards[i], ue_shards[i]); states for foreign
        // cells land in the shard's outbox.
        {
            let cells_ptr = ShardPtr(self.cell_shards.as_mut_ptr());
            let ues_ptr = ShardPtr(self.ue_shards.as_mut_ptr());
            let table = &self.cell_table;
            run_phase(&self.pool, n, |i| {
                // SAFETY: each shard index is claimed by exactly one worker,
                // so these are the only live references to shard i.
                let cs = unsafe { &mut *cells_ptr.at(i) };
                let us = unsafe { &mut *ues_ptr.at(i) };
                shard_phase1(i, cs, us, table, measure, now);
            });
        }

        // --- Phase-1 barrier: apply the cross-shard channel outboxes. ------
        // Applied in (source shard, resident UeId) order; the order is
        // immaterial to the state (each (cell, UE) slot is staged at most
        // once) but fixed regardless of worker completion order.
        for us in &mut self.ue_shards {
            for (shard, local, ue, state) in us.outbox.drain(..) {
                self.cell_shards[shard as usize].cells[local as usize].set_channel(ue, state);
            }
        }

        // --- Phase 2 (in order): merge and execute handovers. --------------
        // Shards report their decisions in resident UeId order; residents
        // are disjoint, so a key sort yields the global UeId order.
        let mut pending = std::mem::take(&mut self.pending);
        for s in &mut self.ue_shards {
            pending.append(&mut s.pending);
        }
        pending.sort_unstable_by_key(|(ue, _)| ue.0);
        for (ue_id, target) in pending.drain(..) {
            let event = self.execute_handover(ue_id, target, now, &mut report.deliveries);
            report.handovers.push(event);
        }
        self.pending = pending;

        // --- Phase 3 (parallel): tick every cell. --------------------------
        // Shards own contiguous runs of the configured cell order, so each
        // worker writes a disjoint slice of the global report vector.
        if report.cell_reports.len() != self.config.cells.len() {
            report.cell_reports = self
                .config
                .cells
                .iter()
                .map(|_| SubframeReport::default())
                .collect();
        }
        {
            let cells_ptr = ShardPtr(self.cell_shards.as_mut_ptr());
            let reports_ptr = ShardPtr(report.cell_reports.as_mut_ptr());
            run_phase(&self.pool, n, |i| {
                // SAFETY: shard i is claimed by one worker, and its report
                // indices [start, start + len) overlap no other shard's.
                let cs = unsafe { &mut *cells_ptr.at(i) };
                for (j, cell) in cs.cells.iter_mut().enumerate() {
                    let cell_report = unsafe { &mut *reports_ptr.at(cs.start + j) };
                    cell.tick_prepared(subframe, cell_report);
                }
            });
        }

        // DCI messages concatenate in global cell order.
        for r in &report.cell_reports {
            report.dci_messages.extend_from_slice(&r.dci_messages);
        }

        // --- Phase 4 (parallel): deliver outcomes to resident UEs, drive CA.
        // Every shard scans all cell reports read-only and picks out its
        // residents' outcomes/allocations; cells are only read (queue
        // depths), so the whole section mutates UE shards alone.
        {
            let ues_ptr = ShardPtr(self.ue_shards.as_mut_ptr());
            let config = &self.config;
            let cell_shards = &self.cell_shards;
            let table = &self.cell_table;
            let cell_reports = &report.cell_reports;
            run_phase(&self.pool, n, |i| {
                // SAFETY: each UE shard index is claimed by exactly one
                // worker; everything else captured is shared-read.
                let us = unsafe { &mut *ues_ptr.at(i) };
                shard_post(us, config, cell_shards, table, cell_reports, now);
            });
        }

        // --- Phase-4 barrier: sort-merge into global cell / UeId order. ----
        let mut merged = std::mem::take(&mut self.event_merge);
        for s in &mut self.ue_shards {
            merged.append(&mut s.events_buf);
            report.ca_events.append(&mut s.ca_buf);
        }
        merged.sort_unstable_by_key(|(key, _)| *key);
        for (_, e) in merged.drain(..) {
            report
                .deliveries
                .push(close_delivery(&mut self.packet_bytes, &e));
        }
        self.event_merge = merged;
        report.ca_events.sort_unstable_by_key(|e| e.ue.0);
    }

    /// Switch the serving cell of one UE: drain and forward everything the
    /// old active cells still hold, flush the UE-side reordering buffers
    /// (whose releases are appended to `deliveries`), collapse carrier
    /// aggregation, re-establish on the target cell, and migrate the UE to
    /// the target's shard when that is another one.
    fn execute_handover(
        &mut self,
        ue_id: UeId,
        target: CellId,
        now: Instant,
        deliveries: &mut Vec<Delivery>,
    ) -> HandoverEvent {
        let (home, slot) = self.locate(ue_id).expect("ue exists");
        let (rnti, from, active): (Rnti, CellId, Vec<CellId>) = {
            let us = &self.ue_shards[home];
            let cfg = us.ues[slot].config();
            (
                us.ues[slot].rnti(),
                cfg.primary_cell(),
                cfg.configured_cells[..us.active_count(slot)].to_vec(),
            )
        };

        // Source side: take the queued + in-flight payload of every active
        // cell (serving first), in order.  Detaching also drops any channel
        // state staged for this subframe on those cells.
        let mut forwarded: Vec<QueuedPacket> = Vec::new();
        for cell_id in &active {
            if let Some(cell) = self.cell_mut(*cell_id) {
                forwarded.extend(cell.detach(ue_id, now));
            }
        }
        // UE side: RLC re-establishment of every old cell — release what the
        // reordering buffers hold (handover reordering is visible to the
        // transport layer, exactly as over the air).  Packets whose final
        // segment is released here are *complete* as far as the transport
        // layer is concerned: their ids must not ride along in the forwarded
        // data, or the target cell would regenerate a second final segment
        // from the stale remainder and the packet would be delivered twice.
        let us = &mut self.ue_shards[home];
        for cell_id in &active {
            for e in &us.ues[slot].flush_cell(*cell_id, now) {
                forwarded.retain(|p| p.id != e.packet_id);
                deliveries.push(close_delivery(&mut self.packet_bytes, e));
            }
        }

        // Re-establish on the target: new serving cell first in the
        // configured list, carrier aggregation collapsed, data forwarded.
        // The UE re-attaches to *every* configured cell (fresh queues, HARQ
        // entities and sequence spaces), not just the target — carrier
        // aggregation may later re-activate one of the old cells as a
        // secondary, and an unattached cell would silently black-hole the
        // flow-split packets routed to it.
        us.ues[slot].promote_primary(target);
        us.ca.reset(ue_id);
        us.handover.note_handover(ue_id, now);
        let configured = us.ues[slot].config().configured_cells.clone();
        // The target becomes the UE's only active cell this subframe: stage
        // its channel state for the scheduler (re-sampling within the same
        // subframe returns the cached fade, so this draws nothing new).  The
        // old cells lost their staged states when the UE detached.
        let state = us.ues[slot].sample_channel(target, now);
        for cell_id in configured {
            if let Some(cell) = self.cell_mut(cell_id) {
                cell.attach(ue_id, rnti);
            }
        }
        if let Some(cell) = self.cell_mut(target) {
            for pkt in forwarded {
                cell.enqueue(ue_id, pkt);
            }
            if let Some(state) = state {
                cell.set_channel(ue_id, state);
            }
        }

        // Cross-shard handover: the UE's slab lanes and manager states
        // migrate to the shard owning its new serving cell.
        if let Some(new_home) = entry_of(&self.cell_table, target).map(|e| e.shard as usize) {
            if new_home != home {
                self.migrate_ue(ue_id, home, new_home);
            }
        }
        HandoverEvent {
            ue: ue_id,
            from,
            to: target,
            at: now,
        }
    }

    /// Move a resident UE's slab lane and handover/CA states from shard
    /// `from` to shard `to`.
    fn migrate_ue(&mut self, ue_id: UeId, from: usize, to: usize) {
        let (ue, ho_state, ca_state) = {
            let us = &mut self.ue_shards[from];
            let slot = us.slots.remove(ue_id).expect("resident in old shard");
            (
                us.ues.remove(slot),
                us.handover.take_ue(ue_id),
                us.ca.take_ue(ue_id),
            )
        };
        let us = &mut self.ue_shards[to];
        match us.slots.insert(ue_id) {
            SlotInsert::Inserted(slot) => us.ues.insert(slot, ue),
            SlotInsert::Present(slot) => us.ues[slot] = ue,
        }
        if let Some(state) = ho_state {
            us.handover.restore_ue(ue_id, state);
        }
        match ca_state {
            Some(state) => us.ca.restore_ue(ue_id, state),
            None => us.ca.register(ue_id),
        }
    }
}

/// Bits queued for a UE across its configured cells, whichever shards own
/// them.
fn queued_bits(cell_shards: &[CellShard], table: &[CellEntry], ue: &UeConfig) -> u64 {
    ue.configured_cells
        .iter()
        .filter_map(|c| cell_at(cell_shards, table, *c))
        .map(|cell| cell.queue_bits(ue.id))
        .sum()
}

/// Phase 1 for shard `me`: per resident UE in UeId order, sample every
/// *active* cell (the data path needs its state) and, on measurement
/// subframes, every configured cell (the A3 ranking needs neighbours too).
/// Each (UE, cell) channel owns an independent random stream, so the extra
/// measurement samples leave every other draw untouched.  Active-cell states
/// are staged straight into the owning cell's channel lane (own cells
/// directly, foreign cells via the outbox); the A3 event is evaluated on the
/// shard-local manager.
fn shard_phase1(
    me: usize,
    cs: &mut CellShard,
    us: &mut UeShard,
    table: &[CellEntry],
    measure: bool,
    now: Instant,
) {
    us.pending.clear();
    for slot in 0..us.ues.len() {
        let ue_id = us.slots.ids()[slot];
        let n_cells = us.ues[slot].config().configured_cells.len();
        let n_active = us.active_count(slot);
        let measure_ue = measure && n_cells > 1;
        us.rsrp_scratch.clear();
        for i in 0..n_cells {
            let cell_id = us.ues[slot].config().configured_cells[i];
            let is_active = i < n_active;
            if !is_active && !measure_ue {
                continue;
            }
            let Some(state) = us.ues[slot].sample_channel(cell_id, now) else {
                continue;
            };
            // A down cell still consumes its channel draw (stream
            // conservation: the outage must not shift any other draw), but
            // gets no staged state and measures at the outage floor.
            let entry = entry_of(table, cell_id);
            let cell_down = entry.is_some_and(|e| e.down);
            if let Some(e) = entry.filter(|_| is_active && !cell_down) {
                if e.shard as usize == me {
                    cs.cells[e.local as usize].set_channel(ue_id, state);
                } else {
                    us.outbox.push((e.shard, e.local, ue_id, state));
                }
            }
            if measure_ue {
                let rsrp = if cell_down {
                    OUTAGE_RSRP_DBM
                } else {
                    state.rsrp_dbm()
                };
                us.rsrp_scratch.push((cell_id, rsrp));
            }
        }
        if measure_ue {
            let serving = us.ues[slot].config().primary_cell();
            if let Some(target) = us.handover.observe(ue_id, serving, &us.rsrp_scratch, now) {
                us.pending.push((ue_id, target));
            }
        }
    }
}

/// Phase 4 for one shard: scan every cell report in global order, hand
/// resident UEs their HARQ outcomes (the resulting packet events tagged with
/// their order key), accumulate allocations, and drive the CA state machine
/// from this subframe's allocations.
fn shard_post(
    us: &mut UeShard,
    config: &CellularConfig,
    cell_shards: &[CellShard],
    table: &[CellEntry],
    cell_reports: &[SubframeReport],
    now: Instant,
) {
    us.alloc_scratch.clear();
    us.alloc_scratch.resize(us.ues.len(), 0);
    for (ci, r) in cell_reports.iter().enumerate() {
        for alloc in &r.prb_usage.allocations {
            if let Some(slot) = us.slots.slot_of(alloc.ue) {
                us.alloc_scratch[slot] += u32::from(alloc.num_prbs);
            }
        }
        for (oi, (owner, outcome)) in r.outcomes.iter().enumerate() {
            let Some(slot) = us.slots.slot_of(*owner) else {
                continue;
            };
            us.event_scratch.clear();
            us.ues[slot].process_outcome(r.cell, outcome, now, &mut us.event_scratch);
            for (k, e) in us.event_scratch.iter().enumerate() {
                us.events_buf.push(((ci as u32, oi as u32, k as u32), *e));
            }
        }
    }
    for slot in 0..us.ues.len() {
        let ue = us.ues[slot].config();
        let active = &ue.configured_cells[..us.active_count(slot)];
        let obs = CaObservation {
            allocated_prbs: us.alloc_scratch[slot],
            active_cell_prbs: active
                .iter()
                .map(|c| entry_of(table, *c).map_or(0, |e| e.prbs))
                .sum(),
            queued_bits: queued_bits(cell_shards, table, ue),
        };
        if let Some(event) = us.ca.observe(config, ue, obs, now) {
            us.ca_buf.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, CellConfig};
    use proptest::prelude::*;

    /// A 6-cell "city row" with traffic that exercises every cross-shard
    /// interaction: a UE handing over across the grid (cells 0 → 3), a
    /// CA-capable UE whose secondary carrier lives in another shard
    /// (cells 2 + 4), and plain single-cell users.
    fn city_config() -> CellularConfig {
        let mut config = CellularConfig {
            cells: (0..6u16)
                .map(|i| CellConfig {
                    id: CellId(i),
                    bandwidth: if i % 2 == 0 {
                        Bandwidth::Mhz20
                    } else {
                        Bandwidth::Mhz10
                    },
                    carrier_ghz: 1.94,
                    max_spatial_streams: 2,
                })
                .collect(),
            ca_activation_subframes: 50,
            ..CellularConfig::default()
        };
        config.handover.min_interval_ms = 500;
        config
    }

    /// The shared scenario on `shards` shards: boundary-crossing
    /// trajectories plus a cross-shard carrier-aggregation pair.
    /// `cross_secs` is how long the crossings take to complete.
    fn city(load: CellLoadProfile, seed: u64, shards: usize, cross_secs: f64) -> ShardedNetwork {
        let mut net = ShardedNetwork::new(city_config(), load, seed, shards);
        // UE 1 walks from cell 0 into cell 3 — a handover that crosses the
        // shard border for every shard count > 1.
        net.add_ue(
            UeConfig::new(UeId(1), vec![CellId(0), CellId(3)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        net.set_cell_trace(
            UeId(1),
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (cross_secs, -110.0)]),
        );
        net.set_cell_trace(
            UeId(1),
            CellId(3),
            MobilityTrace::from_secs(&[(0.0, -110.0), (cross_secs, -85.0)]),
        );
        // UE 2 aggregates cells 2 and 4 under load: its secondary carrier is
        // foreign for shard counts 2 and 3, exercising the channel outbox
        // and cross-shard queue reads.
        net.add_ue(
            UeConfig::new(UeId(2), vec![CellId(2), CellId(4)], 2, -83.0),
            MobilityTrace::stationary(-83.0),
        );
        // UE 3: a plain single-cell user on the last cell.
        net.add_ue(
            UeConfig::new(UeId(3), vec![CellId(5)], 1, -88.0),
            MobilityTrace::stationary(-88.0),
        );
        // UE 7 crosses within the first half of the row (1 → 0).
        net.add_ue(
            UeConfig::new(UeId(7), vec![CellId(1), CellId(0)], 1, -86.0),
            MobilityTrace::stationary(-86.0),
        );
        net.set_cell_trace(
            UeId(7),
            CellId(1),
            MobilityTrace::from_secs(&[(0.0, -85.0), (cross_secs, -108.0)]),
        );
        net.set_cell_trace(
            UeId(7),
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -108.0), (cross_secs, -85.0)]),
        );
        net
    }

    const UES: [UeId; 4] = [UeId(1), UeId(2), UeId(3), UeId(7)];

    fn drive_packets(net: &mut ShardedNetwork, sf: u64) {
        let now = Instant::from_millis(sf);
        for i in 0..2 {
            net.enqueue_packet(UeId(1), sf * 100 + i, 1500, now);
        }
        // Heavy load on UE 2 to trigger carrier aggregation.
        for i in 10..30 {
            net.enqueue_packet(UeId(2), sf * 100 + i, 1500, now);
        }
        if sf.is_multiple_of(3) {
            net.enqueue_packet(UeId(3), sf * 100 + 40, 1200, now);
        }
        net.enqueue_packet(UeId(7), sf * 100 + 50, 1500, now);
    }

    /// What the outside can see of one UE, rendered for comparison.
    fn ue_view(net: &ShardedNetwork, ue: UeId) -> String {
        format!(
            "{:?}",
            (
                ue,
                net.ue_stats(ue),
                net.serving_cell(ue),
                net.active_cells(ue),
                net.queue_bits(ue)
            )
        )
    }

    /// FNV-128 of the report stream (4,500 subframes of `NetworkTickReport`
    /// JSON, then every UE's final [`ue_view`]) that the deleted serial
    /// engine produced for this scenario at the commit before it was
    /// removed, by seed.
    const SERIAL_STREAM_DIGESTS: [(u64, &str); 2] = [
        (3, "99481436ff2473982550f0daf0da5f2c"),
        (11, "d1d6acc0c9df5cf234646dec52cce0fd"),
    ];

    /// The tentpole invariant: for every shard count, the report stream is
    /// byte-for-byte what the serial engine produced, across seeds, through
    /// handovers that cross shard borders and CA activations spanning
    /// shards.
    #[test]
    fn reports_are_byte_identical_across_shard_counts() {
        for (seed, digest) in SERIAL_STREAM_DIGESTS {
            for shards in [1usize, 2, 3, 7] {
                let mut net = city(CellLoadProfile::none(), seed, shards, 4.0);
                let mut report = NetworkTickReport::default();
                let mut stream = String::new();
                let mut handovers = 0usize;
                for sf in 0..4500u64 {
                    drive_packets(&mut net, sf);
                    net.tick_into(Instant::from_millis(sf), &mut report);
                    handovers += report.handovers.len();
                    stream.push_str(&serde_json::to_string(&report).unwrap());
                }
                assert!(handovers >= 2, "both crossings hand over: {handovers}");
                assert!(
                    net.carrier_aggregation_triggered(UeId(2)),
                    "UE 2 aggregated its cross-shard secondary"
                );
                for ue in UES {
                    stream.push_str(&ue_view(&net, ue));
                }
                assert_eq!(
                    pbe_stats::fnv1a_128_hex(stream.as_bytes()),
                    digest,
                    "seed {seed}, {shards} shards"
                );
            }
        }
    }

    /// A UE whose serving cell moves to another shard migrates with all of
    /// its state: the home shard changes and its stats stay coherent.
    #[test]
    fn cross_shard_handover_migrates_the_ue() {
        let mut net = city(CellLoadProfile::none(), 7, 2, 4.0);
        assert_eq!(net.home_of(CellId(0)), 0);
        assert_eq!(net.home_of(CellId(3)), 1);
        assert_eq!(net.locate(UeId(1)).unwrap().0, 0);
        for sf in 0..4500u64 {
            let now = Instant::from_millis(sf);
            net.enqueue_packet(UeId(1), sf, 1500, now);
            net.tick(now);
        }
        assert_eq!(net.serving_cell(UeId(1)), Some(CellId(3)));
        assert_eq!(
            net.locate(UeId(1)).unwrap().0,
            1,
            "the UE now resides in the shard owning cell 3"
        );
        let (delivered, _lost) = net.ue_stats(UeId(1));
        assert!(delivered > 1_000, "data flowed across the migration");
    }

    /// The merged report order comes from logical sort keys, not worker
    /// completion order: repeated runs of a racy multi-worker configuration
    /// must agree byte-for-byte.
    #[test]
    fn merge_order_is_independent_of_worker_completion_order() {
        let run = || {
            let mut net = city(CellLoadProfile::busy(), 5, 3, 4.0);
            let mut out = String::new();
            let mut report = NetworkTickReport::default();
            for sf in 0..400u64 {
                drive_packets(&mut net, sf);
                net.tick_into(Instant::from_millis(sf), &mut report);
                out.push_str(&serde_json::to_string(&report).unwrap());
            }
            out
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(first, run(), "rerun produced a different stream");
        }
    }

    proptest! {
        /// Shard-count invariance: across random seeds × shard counts
        /// ∈ {2, 3, 7}, a city grid with boundary-crossing trajectories
        /// (handovers that cross shard borders for every multi-shard count)
        /// produces the report stream of the same network on one shard.
        #[test]
        fn any_seed_is_byte_identical_across_shard_counts(
            seed in 0u64..1_000_000,
            shard_sel in 0usize..3,
        ) {
            let shards = [2usize, 3, 7][shard_sel];
            let mut one = city(CellLoadProfile::none(), seed, 1, 1.0);
            let mut many = city(CellLoadProfile::none(), seed, shards, 1.0);
            let mut report_a = NetworkTickReport::default();
            let mut report_b = NetworkTickReport::default();
            let mut handovers = 0usize;
            for sf in 0..1200u64 {
                let now = Instant::from_millis(sf);
                drive_packets(&mut one, sf);
                drive_packets(&mut many, sf);
                one.tick_into(now, &mut report_a);
                many.tick_into(now, &mut report_b);
                handovers += report_a.handovers.len();
                prop_assert_eq!(
                    serde_json::to_string(&report_a).unwrap(),
                    serde_json::to_string(&report_b).unwrap(),
                    "seed {}, {} shards, subframe {}", seed, shards, sf
                );
            }
            // The property is not vacuous: the 1-second crossings hand over
            // well inside the 1.2 simulated seconds, whatever the seed.
            prop_assert!(handovers >= 1, "no boundary crossing handed over");
        }
    }

    proptest! {
        /// Fault-injection property: across random seeds × shard counts
        /// ∈ {2, 3, 7} × faulted cells, a scheduled cell outage — set down,
        /// RLF re-selection after the detection delay, restore — produces
        /// the report stream, RLF outcomes and X2-flush deliveries of the
        /// same network on one shard.
        #[test]
        fn faulted_runs_are_byte_identical_across_shard_counts(
            seed in 0u64..1_000_000,
            shard_sel in 0usize..3,
            outage_sel in 0u16..6,
        ) {
            let shards = [2usize, 3, 7][shard_sel];
            let outage = CellId(outage_sel);
            let mut one = city(CellLoadProfile::none(), seed, 1, 1.0);
            let mut many = city(CellLoadProfile::none(), seed, shards, 1.0);
            let mut report_a = NetworkTickReport::default();
            let mut report_b = NetworkTickReport::default();
            for sf in 0..1200u64 {
                let now = Instant::from_millis(sf);
                // Outage window [300, 800): down at 300, RLF declared after
                // a 40 ms detection delay, service restored at 800.
                if sf == 300 {
                    let ra = one.set_cell_outage(outage, true);
                    let rb = many.set_cell_outage(outage, true);
                    prop_assert_eq!(&ra, &rb, "residents diverged");
                }
                if sf == 800 {
                    one.set_cell_outage(outage, false);
                    many.set_cell_outage(outage, false);
                }
                drive_packets(&mut one, sf);
                drive_packets(&mut many, sf);
                one.tick_into(now, &mut report_a);
                many.tick_into(now, &mut report_b);
                if sf == 340 {
                    let oa = one.declare_rlf(outage, now, &mut report_a.deliveries);
                    let ob = many.declare_rlf(outage, now, &mut report_b.deliveries);
                    prop_assert_eq!(oa, ob, "RLF outcomes diverged");
                }
                prop_assert_eq!(
                    serde_json::to_string(&report_a).unwrap(),
                    serde_json::to_string(&report_b).unwrap(),
                    "seed {}, {} shards, outage {}, subframe {}", seed, shards, outage_sel, sf
                );
            }
            for ue in UES {
                prop_assert_eq!(ue_view(&one, ue), ue_view(&many, ue));
            }
        }
    }

    #[test]
    fn shard_count_is_clamped_to_the_cell_count() {
        let net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 1, 40);
        assert_eq!(net.shards(), 6, "one shard per cell at most");
        let net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 1, 0);
        assert_eq!(net.shards(), 1, "at least one shard");
    }
}
