//! The radio-access-network tick engine: cells, UEs, carrier aggregation,
//! inter-cell handover and the per-subframe data path.
//!
//! [`ShardedNetwork`] is the boundary the end-to-end simulator talks to: the
//! wired path hands it downlink packets ([`ShardedNetwork::enqueue_packet`]),
//! it advances the network one 1 ms subframe at a time
//! ([`ShardedNetwork::tick_into`]), and it reports packet deliveries (with
//! the HARQ/reordering delays the paper analyses), every DCI message
//! transmitted on every cell's control channel (the PBE-CC monitor's input),
//! PRB usage, carrier-aggregation events and serving-cell handovers.
//!
//! A UE's [`UserEquipment`] is its one record: channels, reordering buffers,
//! L3 filters, A3 and carrier-aggregation state.  The records live in one
//! lane in UeId order, and every phase runs on the calling thread: the
//! per-UE phases walk the lane, and the cell tick walks the cells in
//! configured order.  The engine's name is older than that: it once split
//! the cell tick across worker threads, which never beat one thread, and
//! the shard count [`ShardedNetwork::new`] still takes is ignored.  The
//! module has no `unsafe`, and the crate forbids it.
//!
//! ```text
//! phase 1  sample, stage, A3     the UE lane, UeId order
//! phase 2  execute handovers     A3 decisions, UeId order
//! phase 3  tick cells            configured cell order
//! phase 4  deliver, CA, sleep    cell reports in configured order, then
//!                                the UE lane
//! ```
//!
//! The correctness bar is **byte-identity**: the [`NetworkTickReport`]
//! stream (and everything downstream of it) is a pure function of the
//! configuration and the seed.  Every tick-time random draw comes from a
//! stream owned by exactly one cell (`split_indexed("cell"/"bg", cell_id)`)
//! or one (UE, cell) channel (`split_indexed("chan", …)`), derived from the
//! seed at construction.  A cell's tick reads only its own state and the
//! channel states staged on it, and writes only its own report slot.
//! Everything else happens in a fixed order: handovers in UeId order,
//! deliveries in (cell, outcome, event) order, CA events in UeId order.
//!
//! Idle UEs cost nothing on ordinary subframes.  The lane keeps one awake
//! bit per UE, 64 to a word: enqueueing a packet for a UE, replacing one of
//! its traces or handing it over wakes it, and phase 4 puts it to sleep on a
//! subframe that allocated it nothing once its active cell holds no queued
//! packet and no pending HARQ process and its CA state is quiescent
//! ([`is_quiescent`](crate::carrier::is_quiescent)).  A UE that meets that
//! rule when it is added joins asleep.  A sleeper's visit would change no
//! byte: its staged channel state would go unread and its CA observation
//! would leave the state as it is.  On an ordinary subframe phases 1 and 4
//! walk the set bits alone, word by word, so a sleeper is never read, not
//! even its flag: a word of 64 sleepers is one zero test.  Measurement
//! subframes still visit every multi-cell UE for A3; a sleeper's samples
//! there feed A3 only and are never staged, so phase 3, which ticks each
//! cell over the UEs staged on it ([`Cell::tick_prepared`]), never visits a
//! sleeper at all.  The (UE, cell) streams stay sequential because a
//! channel draws only when its coherence interval expires, always the same
//! draws: every subframe a sleeper skipped is replayed
//! ([`ChannelModel::replay`](crate::channel::ChannelModel::replay) through
//! [`UserEquipment::catch_up`]) before its channel is sampled again, handed
//! over or leaves the active set.  A replayed redraw whose coherence
//! interval ends by the subframe the replay stops at only advances the
//! stream: the next read redraws over it, so its `ln`, `sqrt` and `cos` are
//! never computed.
//!
//! A measurement round and a UE's construction cost the fading arithmetic
//! and little else.  Every UE's rows — one per configured cell: fading
//! state, L3 filter, reordering buffer — sit in one [`RowTable`] for the
//! lane, a UE's rows contiguous from the index its record holds, so phase 1
//! walks a UE's cells by position and never looks a row up by `CellId`.
//! The table keeps every trace's waypoints in one arena: adding a UE copies
//! its traces there from borrowed ones
//! ([`ShardedNetwork::add_ue_with_traces`]) and allocates nothing of its
//! own; a link's spatial-stream count comes from the dense cell table, and
//! the `"chan"` parent of every channel's random stream is split once per
//! network.  `docs/ARCHITECTURE.md` has what this saved on `metro_idle`.
//!
//! A cell holds lanes only for the UEs it has been active for: adding a UE
//! attaches it to its primary cell, a carrier-aggregation activation
//! attaches the secondary at the end of phase 4 (before anything can
//! enqueue or stage there), and a handover attaches the target.  So every
//! active cell of a UE has it attached; a deactivated secondary keeps its
//! lane.  Cells schedule staged UEs only and read an unattached UE as
//! holding nothing, so a lane created on activation is indistinguishable
//! from one that had sat empty since the UE was added.
//!
//! The tick path allocates nothing in steady state, loaded or idle: drivers
//! that advance millions of subframes call [`ShardedNetwork::tick_into`]
//! with one reused [`NetworkTickReport`], which clears and refills its
//! buffers in place.  UEs live in a struct-of-arrays slab ([`UeSlots`] index
//! plus parallel lanes), cells are addressed through one dense
//! CellId-indexed table, and channel states are staged directly into each
//! cell via [`Cell::set_channel`] instead of per-cell hash maps.  On the
//! receive side, phase 4 hands each UE its HARQ outcomes by reference: an
//! in-order block is released straight from the cell's report, and only a
//! block that arrives ahead of a gap is copied, into storage the lane's
//! [`ReorderPool`] lends while the gap is open.  What still allocates is
//! growth to a new high-water mark and the handover path.
//! `tests/zero_alloc_tick.rs` holds an idle and a loaded network at zero.

use crate::carrier::CaObservation;
use crate::cell::{Cell, QueuedPacket, SubframeReport};
use crate::channel::MobilityTrace;
use crate::config::{CellId, CellularConfig, Rnti, UeConfig, UeId};
use crate::handover::{self, HandoverEvent};
use crate::network::{Delivery, NetworkTickReport, RlfOutcome, OUTAGE_RSRP_DBM};
use crate::reorder::ReorderPool;
use crate::slab::{SlotInsert, UeSlots};
use crate::traffic::{BackgroundTraffic, CellLoadProfile};
use crate::ue::{PacketEvent, RowTable, UserEquipment};
use pbe_stats::time::{Duration, Instant};
use pbe_stats::{DetRng, FxHashMap};

/// `CellEntry::index` of a CellId the configuration does not name.
const ABSENT: u32 = u32::MAX;

/// The first RNTI handed to a foreground UE.
const FIRST_UE_RNTI: u16 = 0x0100;

/// The last RNTI a foreground UE may hold: `0xFFF4`–`0xFFFF` are reserved
/// (TS 36.321 Table 7.1-1).
const LAST_UE_RNTI: u16 = 0xFFF3;

/// The most UEs a network registers, one per foreground RNTI: 65,268.
pub const MAX_UES: usize = (LAST_UE_RNTI - FIRST_UE_RNTI) as usize + 1;

/// How much weaker, in dB, a UE registered with one trace receives each
/// further configured cell: secondary carriers typically sit at higher
/// frequencies.  The `i`-th configured cell sees the trace shifted by
/// `i` times this.
pub const POSITION_OFFSET_DB: f64 = -1.5;

/// One row of the dense CellId-indexed table: where the cell lives and what
/// the per-UE loops need to know about it without touching the cell.  Sized
/// to the largest configured id (metro grids go well past 256 cells).
#[derive(Clone, Copy)]
struct CellEntry {
    /// Position in the configured cell order, or [`ABSENT`].
    index: u32,
    /// PRB count of the cell (the per-UE-per-subframe CA bookkeeping must
    /// not pay a scan of the cell list for each active cell).
    prbs: u32,
    /// Out of service (injected outage).  Written only between ticks.
    down: bool,
    /// Spatial streams a link to the cell supports (read once per row a UE
    /// is built with).
    max_streams: u8,
}

#[inline]
fn entry_of(table: &[CellEntry], id: CellId) -> Option<&CellEntry> {
    table.get(usize::from(id.0)).filter(|e| e.index != ABSENT)
}

/// One bit per lane slot, 64 slots to a word; bits past the last slot are
/// clear.  The walks over set bits load each word once, so the loop body
/// sees the word as it stood when the walk reached it.
#[derive(Default)]
struct BitLane {
    words: Vec<u64>,
    len: usize,
}

impl BitLane {
    #[inline]
    fn get(&self, slot: usize) -> bool {
        debug_assert!(slot < self.len);
        self.words[slot / 64] >> (slot % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, slot: usize, bit: bool) {
        debug_assert!(slot < self.len);
        let (word, mask) = (&mut self.words[slot / 64], 1u64 << (slot % 64));
        if bit {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Insert `bit` at `slot`, shifting the bits at and above it up one.
    fn insert(&mut self, slot: usize, bit: bool) {
        assert!(slot <= self.len, "slot {slot} past the end ({})", self.len);
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let w = slot / 64;
        // Every word above the slot's moves up one bit, taking the top bit
        // of the word below; top down, so each carry is read unshifted.
        for i in (w + 1..self.words.len()).rev() {
            self.words[i] = self.words[i] << 1 | self.words[i - 1] >> 63;
        }
        let below = (1u64 << (slot % 64)) - 1;
        let word = self.words[w];
        self.words[w] = word & below | (word & !below) << 1 | u64::from(bit) << (slot % 64);
    }

    /// Room for `additional` more slots.
    fn reserve(&mut self, additional: usize) {
        let words = (self.len + additional).div_ceil(64);
        self.words
            .reserve_exact(words.saturating_sub(self.words.len()));
    }

    /// The set slots, ascending.
    fn ones(&self) -> Ones<'_> {
        let (word, rest) = self
            .words
            .split_first()
            .map_or((0, &[][..]), |(w, r)| (*w, r));
        Ones {
            rest,
            base: 0,
            word,
        }
    }

    /// Visit the set slots in ascending order, clearing each one for which
    /// `keep` returns false.  A slot is visited once even if `keep` clears
    /// it, and only if it was set when the walk reached its word.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep(w * 64 + bit as usize) {
                    *word &= !(1u64 << bit);
                }
            }
        }
    }
}

/// Iterator over [`BitLane::ones`].
struct Ones<'a> {
    /// Words not loaded yet.
    rest: &'a [u64],
    /// Slot of the loaded word's lowest bit.
    base: usize,
    /// The loaded word's bits not yielded yet.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            (self.word, self.rest) = (word, rest);
            self.base += 64;
        }
        let slot = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(slot)
    }
}

/// Every registered UE: one sorted [`UeSlots`] index plus its parallel
/// lanes.  Slot order is UeId order — the per-subframe iteration order that
/// keeps scheduling, delivery and RNG-draw order reproducible across
/// processes.
#[derive(Default)]
struct UeLane {
    /// Sorted dense UeId → slot index.
    slots: UeSlots,
    /// Lane: the UE records.
    ues: Vec<UserEquipment>,
    /// Every UE's rows (channel, reordering buffer, L3 filter), one table.
    rows: RowTable,
    /// Lane: clear while the UE sleeps — it holds no data on its active
    /// cell and its CA state is quiescent, so ordinary subframes skip it.
    awake: BitLane,
    /// Scratch: RSRP measurements of the UE under evaluation.
    rsrp_scratch: Vec<(CellId, f64)>,
    /// Scratch: packet events of the outcome under processing.
    event_scratch: Vec<PacketEvent>,
    /// Storage the UEs' reordering buffers borrow while a gap is open.
    reorder: ReorderPool,
    /// Scratch: PRBs allocated per slot this subframe.  Zero between
    /// ticks: only awake UEs are allocated PRBs, and phase 4 takes each
    /// awake UE's count.  Resized by phase 4 when the lane has grown.
    alloc_scratch: Vec<u32>,
    /// Handover decisions of this measurement round, in UeId order.
    pending: Vec<(UeId, CellId)>,
}

impl UeLane {
    /// Insert (or replace) a UE.
    fn insert(&mut self, id: UeId, ue: UserEquipment, awake: bool) {
        match self.slots.insert(id) {
            SlotInsert::Inserted(slot) => {
                self.ues.insert(slot, ue);
                self.awake.insert(slot, awake);
            }
            SlotInsert::Present(slot) => {
                self.ues[slot] = ue;
                self.awake.set(slot, awake);
            }
        }
    }

    /// Wake the UE in `slot`, first replaying its active channels up to
    /// `to`, the first subframe phase 1 has not sampled yet.
    fn wake(&mut self, slot: usize, to: Instant) {
        if !self.awake.get(slot) {
            self.ues[slot].catch_up(&mut self.rows, to);
            self.awake.set(slot, true);
        }
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

/// The simulated radio access network.
pub struct ShardedNetwork {
    config: CellularConfig,
    /// Every cell, in configured order.
    cells: Vec<Cell>,
    /// Dense CellId → [`CellEntry`].
    cell_table: Vec<CellEntry>,
    lane: UeLane,
    /// Sizes of the packets in flight, by (globally unique) packet id.
    packet_bytes: FxHashMap<u64, u32>,
    next_rnti: u16,
    /// The parent of every (UE, cell) channel's stream, split once.
    chan_rng: DetRng,
    /// The first subframe phase 1 has not sampled yet: where a UE woken
    /// between phase 1 and the next tick's catches up to.
    sampled_until: Instant,
}

impl ShardedNetwork {
    /// Build the network, with one background-traffic generator per cell
    /// using the given load profile.
    ///
    /// `_shards` is accepted and ignored: every count ticked the same bytes,
    /// and the repo benchmark (`benchmark/`) still passes one.  ROADMAP item
    /// 4 drops that use and item 7 deletes the parameter.
    pub fn new(config: CellularConfig, load: CellLoadProfile, seed: u64, _shards: usize) -> Self {
        let rng = DetRng::new(seed);
        let table_len = config
            .cells
            .iter()
            .map(|c| usize::from(c.id.0) + 1)
            .max()
            .unwrap_or(0);
        let absent = CellEntry {
            index: ABSENT,
            prbs: 0,
            down: false,
            max_streams: 0,
        };
        let mut cell_table = vec![absent; table_len];
        let cells = config
            .cells
            .iter()
            .enumerate()
            .map(|(index, c)| {
                cell_table[usize::from(c.id.0)] = CellEntry {
                    index: index as u32,
                    prbs: u32::from(c.total_prbs()),
                    down: false,
                    max_streams: c.max_spatial_streams,
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
        ShardedNetwork {
            config,
            cells,
            cell_table,
            lane: UeLane::default(),
            packet_bytes: FxHashMap::default(),
            next_rnti: FIRST_UE_RNTI,
            chan_rng: rng.split("chan"),
            sampled_until: Instant::ZERO,
        }
    }

    /// Static configuration of the network.
    pub fn config(&self) -> &CellularConfig {
        &self.config
    }

    /// The current L3-filtered RSRP of one (UE, cell) pair, if measured.
    fn filtered_rsrp(&self, ue: UeId, cell: CellId) -> Option<f64> {
        self.ue(ue)?.filtered_rsrp(&self.lane.rows, cell)
    }

    fn cell(&self, id: CellId) -> Option<&Cell> {
        let e = entry_of(&self.cell_table, id)?;
        Some(&self.cells[e.index as usize])
    }

    fn cell_mut(&mut self, id: CellId) -> Option<&mut Cell> {
        let e = entry_of(&self.cell_table, id)?;
        Some(&mut self.cells[e.index as usize])
    }

    fn ue(&self, id: UeId) -> Option<&UserEquipment> {
        let slot = self.lane.slots.slot_of(id)?;
        Some(&self.lane.ues[slot])
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

    /// UEs whose serving (primary) cell is `cell`, in UeId order.
    fn residents_of(&self, cell: CellId) -> Vec<UeId> {
        let lane = &self.lane;
        lane.slots
            .ids()
            .iter()
            .zip(&lane.ues)
            .filter(|(_, u)| u.config().primary_cell() == cell)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Declare radio-link failure on a (down) cell: every UE whose serving
    /// cell it is re-selects the best live configured cell by filtered RSRP
    /// through the ordinary X2 handover procedure (queued data forwarded,
    /// RLC re-established, CA collapsed), in UeId order.  UEs with no live
    /// configured cell stay camped, their queued packets counted as
    /// stranded.  Reordering releases are appended to `deliveries`, exactly
    /// as for A3 handovers.
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
    fn channel_rng(&self, ue: UeId, cell_position: usize) -> DetRng {
        self.chan_rng
            .indexed((u64::from(ue.0) << 8) | cell_position as u64)
    }

    fn max_streams(&self, cell: CellId) -> u8 {
        entry_of(&self.cell_table, cell).map_or(2, |e| e.max_streams)
    }

    /// Reserve room for `ues` more UEs with `rows` configured cells between
    /// them, so that building a large network allocates its lane and row
    /// table once instead of growing them.
    pub fn reserve(&mut self, ues: usize, rows: usize) {
        self.lane.ues.reserve_exact(ues);
        self.lane.awake.reserve(ues);
        self.lane.rows.reserve(rows);
    }

    /// Register a UE with the given mobility trace applied to all of its
    /// configured cells, shifted per position ([`POSITION_OFFSET_DB`]).
    /// Returns the RNTI assigned to the UE; see
    /// [`ShardedNetwork::add_ue_with_traces`].
    pub fn add_ue(&mut self, ue_config: UeConfig, trace: MobilityTrace) -> Rnti {
        self.add_ue_with_traces(ue_config, &trace, |_| None)
    }

    /// Register a UE that sees `own_trace(i)` towards its `i`-th configured
    /// cell where that gives a trace, and `trace` shifted for the position
    /// ([`POSITION_OFFSET_DB`]) elsewhere (per-cell
    /// trajectories are what make a handover scenario expressible).  Every
    /// trace is copied into the network's waypoint arena.  The UE is
    /// attached to its primary cell only; other cells attach it when they
    /// become active.  A UE with nothing to schedule and a quiescent CA
    /// state joins asleep: its first tick would have staged a state no
    /// scheduler reads and then put it to sleep.  Returns the RNTI assigned
    /// to the UE.
    ///
    /// # Panics
    ///
    /// If the network already registered [`MAX_UES`] UEs (RNTIs
    /// `0x0100`–`0xFFF3`).
    pub fn add_ue_with_traces<'t>(
        &mut self,
        ue_config: UeConfig,
        trace: &MobilityTrace,
        mut own_trace: impl FnMut(usize) -> Option<&'t MobilityTrace>,
    ) -> Rnti {
        assert!(
            self.next_rnti <= LAST_UE_RNTI,
            "RNTI space exhausted: foreground RNTIs end at {LAST_UE_RNTI:#06X}, \
             so a network holds at most {MAX_UES} UEs"
        );
        let rnti = Rnti(self.next_rnti);
        self.next_rnti += 1;
        let id = ue_config.id;
        let l3_filter_ms = self.config.handover.l3_filter_ms;
        let first_row = self.lane.rows.len();
        for (i, cell) in ue_config.configured_cells.iter().enumerate() {
            let (streams, rng) = (self.max_streams(*cell), self.channel_rng(id, i));
            let rows = &mut self.lane.rows;
            match own_trace(i) {
                Some(own) => rows.push(own.waypoints.iter().copied(), streams, rng, l3_filter_ms),
                None => {
                    let offset = POSITION_OFFSET_DB * i as f64;
                    let shifted = trace.waypoints.iter().map(|&(t, r)| (t, r + offset));
                    rows.push(shifted, streams, rng, l3_filter_ms);
                }
            }
        }
        let primary = ue_config.configured_cells.first().copied();
        let mut holds_data = false;
        if let Some(cell) = primary.and_then(|c| self.cell_mut(c)) {
            cell.attach(id, rnti);
            // A re-added UE may still hold data there: it joins awake.
            holds_data = cell.holds_data(id);
        }
        let mut ue = UserEquipment::new(ue_config, rnti, first_row);
        let awake = holds_data || !ue.ca_is_quiescent(&self.config);
        if !awake {
            ue.sleep_from(self.sampled_until);
        }
        self.lane.insert(id, ue, awake);
        rnti
    }

    /// Replace the mobility trace a UE sees towards one of its configured
    /// cells (multi-cell trajectories: each cell's RSSI evolves
    /// independently, which is what makes a handover scenario expressible).
    /// No-op if the UE or cell is unknown.
    pub fn set_cell_trace(&mut self, ue: UeId, cell: CellId, trace: MobilityTrace) {
        let Some(slot) = self.lane.slots.slot_of(ue) else {
            return;
        };
        let configured = &self.lane.ues[slot].config().configured_cells;
        let Some(pos) = configured.iter().position(|c| *c == cell) else {
            return;
        };
        let (streams, rng) = (self.max_streams(cell), self.channel_rng(ue, pos));
        // The new channel is sampled from the next tick on, as an awake
        // UE's is: a sleeper must not replay it over subframes before it
        // existed.
        self.lane.wake(slot, self.sampled_until);
        let lane = &mut self.lane;
        lane.ues[slot].set_channel(&mut lane.rows, cell, &trace.waypoints, streams, rng);
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
        self.ue(ue)
            .map_or_else(Vec::new, |u| u.active_cells().to_vec())
    }

    /// True if the UE ever had a secondary cell activated.
    pub fn carrier_aggregation_triggered(&self, ue: UeId) -> bool {
        self.ue(ue).is_some_and(|u| u.ever_aggregated())
    }

    /// Bits queued for a UE across its configured cells.
    pub fn queue_bits(&self, ue: UeId) -> u64 {
        self.ue(ue).map_or(0, |u| {
            u.config()
                .configured_cells
                .iter()
                .filter_map(|c| self.cell(*c))
                .map(|cell| cell.queue_bits(ue))
                .sum()
        })
    }

    /// Receive-side statistics of a UE: `(delivered, lost)` packet counts.
    pub fn ue_stats(&self, ue: UeId) -> (u64, u64) {
        self.ue(ue).map_or((0, 0), UserEquipment::packet_counts)
    }

    /// Hand a downlink packet to the base station.  The packet is queued at
    /// the active cell with the lowest queue-to-capacity ratio (the network's
    /// internal flow splitting across aggregated carriers).
    pub fn enqueue_packet(&mut self, ue: UeId, packet_id: u64, bytes: u32, now: Instant) {
        let Some(slot) = self.lane.slots.slot_of(ue) else {
            return;
        };
        let mut target: Option<(CellId, f64)> = None;
        for cell_id in self.lane.ues[slot].active_cells() {
            let cell = self.cell(*cell_id).expect("active cell exists");
            let load = cell.queue_bits(ue) as f64 / f64::from(cell.config().total_prbs());
            if target.is_none_or(|(_, best)| load < best) {
                target = Some((*cell_id, load));
            }
        }
        let Some((target, _)) = target else { return };
        self.lane.wake(slot, self.sampled_until);
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

        // Sleepers replay every 1 ms subframe they missed.  A tick that
        // skips subframes samples none of them, so it wakes every sleeper at
        // the old frontier first.
        if now > self.sampled_until {
            for slot in 0..self.lane.ues.len() {
                self.lane.wake(slot, self.sampled_until);
            }
        }
        self.sampled_until = now + Duration::MILLISECOND;

        // --- Phase 1: channel sampling, staging, A3. ------------------------
        self.stage_channels(now);

        // --- Phase 2: execute handovers in UeId order. ----------------------
        let mut pending = std::mem::take(&mut self.lane.pending);
        for (ue_id, target) in pending.drain(..) {
            let event = self.execute_handover(ue_id, target, now, &mut report.deliveries);
            report.handovers.push(event);
        }
        self.lane.pending = pending;

        // --- Phase 3: tick every cell into its report slot. -----------------
        if report.cell_reports.len() != self.cells.len() {
            report.cell_reports = self
                .cells
                .iter()
                .map(|_| SubframeReport::default())
                .collect();
        }
        for (cell, slot) in self.cells.iter_mut().zip(&mut report.cell_reports) {
            cell.tick_prepared(subframe, slot);
        }

        // DCI messages concatenate in configured cell order.
        for r in &report.cell_reports {
            report.dci_messages.extend_from_slice(&r.dci_messages);
        }

        // --- Phase 4: deliver outcomes, drive CA, put idle UEs to sleep. ----
        self.settle(report, now);

        // An activated secondary serves the UE from the next tick on: attach
        // it before anything can enqueue or stage there.
        for e in report.ca_events.iter().filter(|e| e.activated) {
            let Some(rnti) = self.rnti_of(e.ue) else {
                continue;
            };
            if let Some(cell) = self.cell_mut(e.cell) {
                cell.attach(e.ue, rnti);
            }
        }
    }

    /// Phase 1: per awake UE in UeId order, sample every *active* cell (the
    /// data path needs its state) and, on measurement subframes, measure
    /// every configured cell of every multi-cell UE, asleep or not (the A3
    /// ranking needs neighbours too); a sleeper first replays the subframes
    /// its active cell skipped.  Each (UE, cell) channel owns an independent
    /// random stream, so the extra measurement samples leave every other
    /// draw untouched.  An awake UE's active-cell states are staged straight
    /// into the cell's channel lane; every other sample draws only the RSRP
    /// ([`UserEquipment::measure_channel`]) for the A3 event on the UE's
    /// record, or nothing more than its draws on a down cell that is not
    /// measured.  A sleeper's active cells are not staged: it holds no data
    /// and no HARQ process there, so no scheduler would read the state, and
    /// the one thing that can wake it before the cells tick — its own
    /// handover — re-stages the target itself.  A3 decisions land in
    /// `lane.pending`, in UeId order.
    ///
    /// An ordinary subframe walks the set bits of the awake lane and nothing
    /// else; a measurement subframe walks every slot, because A3 must see
    /// every multi-cell UE, asleep or not.
    fn stage_channels(&mut self, now: Instant) {
        let ho = &self.config.handover;
        let measure = ho.enabled && handover::is_measurement_subframe(ho, now);
        let (cells, table, lane) = (&mut self.cells, &self.cell_table, &mut self.lane);
        lane.pending.clear();
        // An ordinary subframe skips sleepers from the lane's words alone,
        // without touching the UE; A3 measures sleepers too.
        let (mut every, mut awake) = (0..lane.ues.len(), lane.awake.ones());
        while let Some(slot) = if measure { every.next() } else { awake.next() } {
            let asleep = measure && !lane.awake.get(slot);
            let ue = &mut lane.ues[slot];
            let n_cells = ue.config().configured_cells.len();
            let measure_ue = measure && n_cells > 1;
            if asleep && !measure_ue {
                continue;
            }
            let ue_id = lane.slots.ids()[slot];
            // Awake UEs stage their active cells, the first n_stage
            // configured.
            let n_stage = if asleep { 0 } else { ue.active_cells().len() };
            if asleep {
                ue.catch_up(&mut lane.rows, now);
            }
            lane.rsrp_scratch.clear();
            for i in 0..n_cells {
                if i >= n_stage && !measure_ue {
                    break;
                }
                let cell_id = ue.config().configured_cells[i];
                // A down cell still consumes its channel draw (stream
                // conservation: the outage must not shift any other draw),
                // but gets no staged state and measures at the outage floor.
                let entry = entry_of(table, cell_id);
                let cell_down = entry.is_some_and(|e| e.down);
                let rsrp = match entry.filter(|_| i < n_stage && !cell_down) {
                    Some(e) => {
                        let state = ue.sample_channel(&mut lane.rows, i, now);
                        cells[e.index as usize].set_channel(ue_id, state);
                        state.rsrp_dbm()
                    }
                    None => ue.measure_channel(&mut lane.rows, i, now),
                };
                if measure_ue {
                    lane.rsrp_scratch
                        .push((cell_id, if cell_down { OUTAGE_RSRP_DBM } else { rsrp }));
                }
            }
            if measure_ue {
                if let Some(target) = ue.observe_a3(&mut lane.rows, ho, &mut lane.rsrp_scratch, now)
                {
                    lane.pending.push((ue_id, target));
                }
            }
        }
    }

    /// Phase 4: scan every cell report in configured order, hand each UE its
    /// HARQ outcomes (the resulting deliveries pushed straight into the
    /// report, in (cell, outcome, event) order) and accumulate allocations —
    /// all of which land on awake UEs — then, per awake UE in UeId order,
    /// drive the CA state machine from this subframe's allocations and put
    /// the UE to sleep if the next ticks would change nothing for it.
    ///
    /// The CA loop walks the set bits of the awake lane, each word as it
    /// stood when the walk reached it, so a UE put to sleep is visited once.
    /// It takes each visited UE's PRB count, leaving the scratch zero for the
    /// next tick; what else phase 4 touches is proportional to the cell
    /// reports, not to the lane.
    fn settle(&mut self, report: &mut NetworkTickReport, now: Instant) {
        let (config, cells, table) = (&self.config, &self.cells, &self.cell_table);
        let (lane, packet_bytes) = (&mut self.lane, &mut self.packet_bytes);
        // Every entry is zero here, so growing the scratch with the lane
        // (wherever the new slots landed) keeps it zero.
        if lane.alloc_scratch.len() != lane.ues.len() {
            lane.alloc_scratch.resize(lane.ues.len(), 0);
        }
        for r in &report.cell_reports {
            for alloc in &r.prb_usage.allocations {
                if let Some(slot) = lane.slots.slot_of(alloc.ue) {
                    debug_assert!(
                        lane.awake.get(slot),
                        "PRBs allocated to sleeping {}",
                        alloc.ue
                    );
                    lane.alloc_scratch[slot] += u32::from(alloc.num_prbs);
                }
            }
            for (owner, outcome) in &r.outcomes {
                let Some(slot) = lane.slots.slot_of(*owner) else {
                    continue;
                };
                debug_assert!(lane.awake.get(slot), "HARQ outcome for sleeping {owner}");
                lane.event_scratch.clear();
                lane.ues[slot].process_outcome(
                    &mut lane.rows,
                    r.cell,
                    outcome,
                    now,
                    &mut lane.reorder,
                    &mut lane.event_scratch,
                );
                for e in &lane.event_scratch {
                    report.deliveries.push(close_delivery(packet_bytes, e));
                }
            }
        }
        let (ues, allocs) = (&mut lane.ues, &mut lane.alloc_scratch);
        lane.awake.retain(|slot| {
            let ue = &mut ues[slot];
            let obs = CaObservation {
                allocated_prbs: std::mem::take(&mut allocs[slot]),
                active_cell_prbs: ue
                    .active_cells()
                    .iter()
                    .map(|c| entry_of(table, *c).map_or(0, |e| e.prbs))
                    .sum(),
            };
            if let Some(event) = ue.observe_ca(config, obs, now) {
                report.ca_events.push(event);
            }
            // Sleep once nothing is left to schedule and an unallocated
            // subframe would leave the CA state as it is: until data or a
            // handover wakes it, the UE's ticks would change nothing.
            let asleep = obs.allocated_prbs == 0
                && ue.ca_is_quiescent(config)
                && !ue
                    .active_cells()
                    .iter()
                    .filter_map(|c| entry_of(table, *c))
                    .any(|e| cells[e.index as usize].holds_data(ue.id()));
            if asleep {
                ue.sleep_from(now + Duration::MILLISECOND);
            }
            !asleep
        });
    }

    /// Switch the serving cell of one UE: drain and forward everything the
    /// old active cells still hold (detaching the UE from them), flush the
    /// UE-side reordering buffers (whose releases are appended to
    /// `deliveries`), collapse carrier aggregation, and attach the UE to the
    /// target cell alone.
    fn execute_handover(
        &mut self,
        ue_id: UeId,
        target: CellId,
        now: Instant,
        deliveries: &mut Vec<Delivery>,
    ) -> HandoverEvent {
        let slot = self.lane.slots.slot_of(ue_id).expect("ue exists");
        // The old active cells leave the active set: replay what a sleeper
        // skipped before they do.
        self.lane.wake(slot, self.sampled_until);
        let ue = &self.lane.ues[slot];
        let (rnti, from) = (ue.rnti(), ue.config().primary_cell());
        let active = ue.active_cells().to_vec();

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
        let lane = &mut self.lane;
        let ue = &mut lane.ues[slot];
        for cell_id in &active {
            for e in &ue.flush_cell(&mut lane.rows, *cell_id, now, &mut lane.reorder) {
                forwarded.retain(|p| p.id != e.packet_id);
                deliveries.push(close_delivery(&mut self.packet_bytes, e));
            }
        }

        // Re-establish on the target: new serving cell first in the
        // configured list, carrier aggregation collapsed, data forwarded.
        // Only the target attaches the UE.  If carrier aggregation later
        // re-activates one of the detached old cells as a secondary, the
        // activation attaches it afresh (empty queue, new HARQ entity,
        // sequence 0).
        ue.hand_over(&mut lane.rows, target, now);
        // The target becomes the UE's only active cell this subframe: stage
        // its channel state for the scheduler (re-sampling within the same
        // subframe returns the cached fade, so this draws nothing new).  The
        // old cells lost their staged states when the UE detached.  Reading
        // at `now`, before the wake's replay end, is sound: that replay
        // touched only a sleeper's one active cell, never the target.
        let state = (ue.config().primary_cell() == target)
            .then(|| ue.sample_channel(&mut lane.rows, 0, now));
        if let Some(cell) = self.cell_mut(target) {
            cell.attach(ue_id, rnti);
            for pkt in forwarded {
                cell.enqueue(ue_id, pkt);
            }
            if let Some(state) = state {
                cell.set_channel(ue_id, state);
            }
        }
        HandoverEvent {
            ue: ue_id,
            from,
            to: target,
            at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, CellConfig};

    /// `bits` checked against the `Vec<bool>` it models: every slot, the
    /// set-slot walk, and no bit set past the last slot.
    fn assert_models(bits: &BitLane, model: &[bool]) {
        assert_eq!(bits.len, model.len());
        let got: Vec<bool> = (0..model.len()).map(|slot| bits.get(slot)).collect();
        assert_eq!(got, model);
        let ones: Vec<usize> = bits.ones().collect();
        let expected: Vec<usize> = (0..model.len()).filter(|&slot| model[slot]).collect();
        assert_eq!(ones, expected);
        assert_eq!(bits.words.len(), model.len().div_ceil(64));
        let tail = model.len() % 64;
        if let (Some(last), true) = (bits.words.last(), tail != 0) {
            assert_eq!(last >> tail, 0, "bits set past the last slot");
        }
    }

    /// Inserting at the front, in the middle and at the end shifts exactly
    /// the bits at and above the slot, carrying each word's top bit into
    /// the next, and the set-slot walk always matches the slots that read
    /// set.
    #[test]
    fn bit_lane_insert_shifts_across_word_boundaries() {
        let mut bits = BitLane::default();
        let mut model = Vec::new();
        let mut rng = DetRng::new(17);
        for n in 0..300usize {
            let slot = match n % 5 {
                0 => 0,
                1 => model.len(),
                2 => model.len() / 2,
                // Either side of a word boundary, where one exists.
                3 => (model.len() / 64 * 64).saturating_sub(1),
                _ => rng.uniform_usize(0, model.len() + 1),
            };
            let bit = rng.bernoulli(0.4);
            bits.insert(slot, bit);
            model.insert(slot, bit);
            assert_models(&bits, &model);
            if n % 7 == 0 {
                let slot = rng.uniform_usize(0, model.len());
                let bit = !model[slot];
                bits.set(slot, bit);
                model[slot] = bit;
                assert_models(&bits, &model);
            }
        }
        // A lane of all-set bits stays all set through inserts at the front.
        let mut full = BitLane::default();
        for len in 1..=130 {
            full.insert(0, true);
            assert_eq!(full.ones().count(), len);
        }
    }

    /// `retain` visits every slot set when the walk reached it exactly
    /// once, in ascending order, even as it clears slots in the word under
    /// the walk, and leaves set exactly the slots it kept.
    #[test]
    fn bit_lane_retain_visits_each_set_slot_once() {
        let mut bits = BitLane::default();
        let mut model = Vec::new();
        let mut rng = DetRng::new(5);
        for _ in 0..200 {
            let bit = rng.bernoulli(0.6);
            bits.insert(model.len(), bit);
            model.push(bit);
        }
        let set: Vec<usize> = bits.ones().collect();
        let mut visited = Vec::new();
        bits.retain(|slot| {
            visited.push(slot);
            slot % 3 != 0
        });
        assert_eq!(visited, set);
        for (slot, was) in model.iter_mut().enumerate() {
            *was &= slot % 3 != 0;
        }
        assert_models(&bits, &model);
    }

    /// A 6-cell "city row" whose UEs couple distant cells: a UE handing over
    /// across the grid (cells 0 → 3), a CA-capable UE whose secondary
    /// carrier is two cells away (cells 2 + 4), and plain single-cell users.
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

    /// The shared scenario: boundary-crossing trajectories plus a
    /// carrier-aggregation pair.  `cross_secs` is how long the crossings
    /// take to complete.
    fn city(load: CellLoadProfile, seed: u64, cross_secs: f64) -> ShardedNetwork {
        city_on(
            ShardedNetwork::new(city_config(), load, seed, 1),
            cross_secs,
        )
    }

    /// [`city`]'s UEs and trajectories, added to `net`.
    fn city_on(mut net: ShardedNetwork, cross_secs: f64) -> ShardedNetwork {
        // UE 1 walks from cell 0 into cell 3 across the grid.
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
        // UE 2 aggregates cells 2 and 4 under load.
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

    /// FNV-128 of `sfs` subframes of [`city`]'s report stream under
    /// [`drive_packets`] (the `NetworkTickReport` JSON of each), then every
    /// UE's final [`ue_view`]; also the number of handovers on the way.
    fn city_stream(net: &mut ShardedNetwork, sfs: u64) -> (String, usize) {
        let mut report = NetworkTickReport::default();
        let mut stream = String::new();
        let mut handovers = 0usize;
        for sf in 0..sfs {
            drive_packets(net, sf);
            net.tick_into(Instant::from_millis(sf), &mut report);
            handovers += report.handovers.len();
            stream.push_str(&serde_json::to_string(&report).unwrap());
        }
        for ue in UES {
            stream.push_str(&ue_view(net, ue));
        }
        (pbe_stats::fnv1a_128_hex(stream.as_bytes()), handovers)
    }

    /// FNV-128 of the report stream (4,500 subframes of `NetworkTickReport`
    /// JSON, then every UE's final [`ue_view`]) for this scenario, by seed:
    /// the deleted serial engine's stream with `SubframeReport::queue_bits`
    /// removed, derived at `232b5d5` by deleting that field, its fills and
    /// its test reads and nothing else.
    const SERIAL_STREAM_DIGESTS: [(u64, &str); 2] = [
        (3, "6b7b25d7a4b9529846381970517ae4e1"),
        (11, "2367810a46a3cc6821b9081fb13214fa"),
    ];

    /// The report stream is byte-for-byte what the serial engine produced,
    /// across seeds, through handovers and CA activations.  (The name is
    /// from when the engine had shard counts to compare; every count
    /// matched this same pin.)
    #[test]
    fn reports_are_byte_identical_across_shard_counts() {
        for (seed, digest) in SERIAL_STREAM_DIGESTS {
            let mut net = city(CellLoadProfile::none(), seed, 4.0);
            let (stream, handovers) = city_stream(&mut net, 4500);
            assert!(handovers >= 2, "both crossings hand over: {handovers}");
            assert!(
                net.carrier_aggregation_triggered(UeId(2)),
                "UE 2 aggregated its secondary"
            );
            assert_eq!(stream, digest, "seed {seed}");
        }
    }

    /// A UE whose serving cell moves across the grid keeps receiving: its
    /// data is forwarded to the target and delivered from there.  The
    /// stream (each subframe's report JSON, then UE 1's [`ue_view`]) is
    /// pinned to the bytes one shard produced before the engine lost its
    /// shard dispatch.
    #[test]
    fn cross_shard_handover_keeps_data_flowing() {
        let mut net = city(CellLoadProfile::none(), 7, 4.0);
        let mut stream = String::new();
        for sf in 0..4500u64 {
            let now = Instant::from_millis(sf);
            net.enqueue_packet(UeId(1), sf, 1500, now);
            stream.push_str(&serde_json::to_string(&net.tick(now)).unwrap());
        }
        assert_eq!(net.serving_cell(UeId(1)), Some(CellId(3)));
        let (delivered, _lost) = net.ue_stats(UeId(1));
        assert!(delivered > 1_000, "data flowed across the handover");
        stream.push_str(&ue_view(&net, UeId(1)));
        assert_eq!(
            pbe_stats::fnv1a_128_hex(stream.as_bytes()),
            "692d82e2217abbb40e66d20a46b36d32"
        );
    }

    /// Under background load, 400 subframes of [`city_stream`] reproduce
    /// the bytes one and two shards both produced before the engine lost
    /// its shard dispatch.
    #[test]
    fn parallel_cell_tick_is_independent_of_worker_completion_order() {
        let mut net = city(CellLoadProfile::busy(), 5, 4.0);
        assert_eq!(
            city_stream(&mut net, 400).0,
            "f8cfb3d9d759068701c8955b6be6784e"
        );
    }

    /// Seeds the property tests below once drew at random, now fixed, each
    /// with the digest one and three shards both produced before the engine
    /// lost its shard dispatch.
    const CROSSING_DIGESTS: [(u64, &str); 3] = [
        (0, "117b84da9972d36b95c1510c0767074c"),
        (271_828, "755e9103eb3f67562e5f7e36df227395"),
        (999_999, "a4c5f0e27b04b8e66a9059c6ea58587c"),
    ];

    /// A city whose boundary crossings complete within one second
    /// reproduces its pinned stream, handovers included.
    #[test]
    fn any_seed_is_byte_identical_across_shard_counts() {
        for (seed, digest) in CROSSING_DIGESTS {
            let mut net = city(CellLoadProfile::none(), seed, 1.0);
            let (stream, handovers) = city_stream(&mut net, 1200);
            // Not vacuous: the 1-second crossings hand over well inside the
            // 1.2 simulated seconds.
            assert!(handovers >= 1, "seed {seed}: no boundary crossing");
            assert_eq!(stream, digest, "seed {seed}");
        }
    }

    /// (seed, faulted cell, digest) of [`faulted_runs_are_byte_identical_across_shard_counts`],
    /// captured as [`CROSSING_DIGESTS`] were.
    const FAULTED_DIGESTS: [(u64, u16, &str); 3] = [
        (0, 0, "31897a97101402b3519fc4b66380c74a"),
        (4_242, 3, "65e63595b7fd9bc840208fd065bfbbde"),
        (999_999, 5, "1f8ad5b524be4c055bf050194e532ef8"),
    ];

    /// A scheduled cell outage — set down, RLF re-selection after the
    /// detection delay, restore — reproduces its pinned stream: the
    /// residents, the RLF outcome, each subframe's report (X2-flush
    /// deliveries included) and every UE's final [`ue_view`].
    #[test]
    fn faulted_runs_are_byte_identical_across_shard_counts() {
        for (seed, outage, digest) in FAULTED_DIGESTS {
            let outage = CellId(outage);
            let mut net = city(CellLoadProfile::none(), seed, 1.0);
            let mut report = NetworkTickReport::default();
            let mut stream = String::new();
            for sf in 0..1200u64 {
                let now = Instant::from_millis(sf);
                // Outage window [300, 800): down at 300, RLF declared after
                // a 40 ms detection delay, service restored at 800.
                if sf == 300 {
                    let residents = net.set_cell_outage(outage, true);
                    stream.push_str(&format!("{residents:?}"));
                }
                if sf == 800 {
                    net.set_cell_outage(outage, false);
                }
                drive_packets(&mut net, sf);
                net.tick_into(now, &mut report);
                if sf == 340 {
                    let rlf = net.declare_rlf(outage, now, &mut report.deliveries);
                    stream.push_str(&format!("{rlf:?}"));
                }
                stream.push_str(&serde_json::to_string(&report).unwrap());
            }
            for ue in UES {
                stream.push_str(&ue_view(&net, ue));
            }
            assert_eq!(
                pbe_stats::fnv1a_128_hex(stream.as_bytes()),
                digest,
                "seed {seed}, outage {outage:?}"
            );
        }
    }

    /// A 6-cell row whose UEs go idle and wake up in every way the radio
    /// engine distinguishes, under `ca_activation_utilisation = util`:
    /// (a) UEs idle for hundreds of milliseconds across many measurement
    /// subframes, then bursting; (b) a cell-edge UE whose last transport
    /// blocks fail and wait for retransmission after its queue drained;
    /// (c) a CA UE that drains while its secondary carrier is in deactivation
    /// hold-down; (d) an idle and a busy UE whose serving cell goes down and
    /// re-selects through RLF; (e) a UE whose first packets arrive on
    /// measurement subframes; plus a UE whose trace is replaced while idle
    /// and one that hands over by A3 while idle.
    fn sleepy_city(util: f64, seed: u64) -> ShardedNetwork {
        let config = CellularConfig {
            ca_activation_utilisation: util,
            ..city_config()
        };
        let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), seed, 1);
        let ues: [(u32, Vec<u16>, usize, f64); 10] = [
            (20, vec![1, 2], 2, -86.0),
            (21, vec![5], 1, -90.0),
            (22, vec![3], 1, -112.0),
            (23, vec![4, 5], 2, -83.0),
            (24, vec![0, 1], 1, -88.0),
            (25, vec![0, 2], 1, -87.0),
            (26, vec![2, 3], 2, -85.0),
            (27, vec![1], 1, -95.0),
            (28, vec![3, 4], 1, -86.0),
            (29, vec![5, 4], 2, -84.0),
        ];
        for (id, cells, max_cells, rssi) in ues {
            let cells = cells.into_iter().map(CellId).collect();
            net.add_ue(
                UeConfig::new(UeId(id), cells, max_cells, rssi),
                MobilityTrace::stationary(rssi),
            );
        }
        // UE 28 walks from cell 3 into cell 4 with no traffic at all.
        net.set_cell_trace(
            UeId(28),
            CellId(3),
            MobilityTrace::from_secs(&[(0.0, -84.0), (1.2, -108.0)]),
        );
        net.set_cell_trace(
            UeId(28),
            CellId(4),
            MobilityTrace::from_secs(&[(0.0, -108.0), (1.2, -84.0)]),
        );
        net
    }

    const SLEEPY_UES: [u32; 10] = [20, 21, 22, 23, 24, 25, 26, 27, 28, 29];

    /// The downlink packets of subframe `sf` in [`sleepy_city`].
    fn drive_sleepy(net: &mut ShardedNetwork, sf: u64) {
        let now = Instant::from_millis(sf);
        let mut send = |ue: u32, n: u64| {
            for i in 0..n {
                net.enqueue_packet(UeId(ue), sf * 1_000 + u64::from(ue) * 30 + i, 1500, now);
            }
        };
        // (a) idle for 600 ms, a 100 ms burst, idle again, a trickle.
        if (600..700).contains(&sf) {
            send(20, 4);
        }
        if (1300..1350).contains(&sf) {
            send(20, 1);
        }
        if ((250..260).contains(&sf) || (1500..1510).contains(&sf)) && sf.is_multiple_of(3) {
            send(21, 1);
        }
        // (b) short bursts on a cell-edge channel: failed blocks outlive
        // the queue.
        if (100..1800).contains(&sf) && sf.is_multiple_of(50) {
            send(22, 5);
        }
        // (c) enough load to aggregate cell 5, then silence.
        if (200..500).contains(&sf) {
            send(23, 15);
        }
        // (d) UE 25 keeps its serving cell busy through the outage.
        if sf.is_multiple_of(5) && sf < 1600 {
            send(25, 1);
        }
        if (1200..1250).contains(&sf) {
            send(24, 2);
        }
        // (e) first packets on measurement subframes (period 40 ms).
        if [400, 440, 480].contains(&sf) {
            send(26, 5);
        }
        if (1000..1100).contains(&sf) && sf.is_multiple_of(7) {
            send(26, 2);
        }
        if (900..1400).contains(&sf) && sf.is_multiple_of(2) {
            send(29, 3);
        }
        if (1500..1520).contains(&sf) && sf.is_multiple_of(4) {
            send(27, 1);
        }
    }

    /// FNV-128 of [`sleepy_city`]'s stream ([`run_sleepy`], then every UE's
    /// final [`ue_view`]) by `ca_activation_utilisation`: the stream of the
    /// engine that sampled every UE's channels on every subframe, with
    /// `SubframeReport::queue_bits` removed, derived at `232b5d5` by
    /// deleting that field, its fills and its test reads and nothing else.
    const SLEEP_WAKE_DIGESTS: [(f64, &str); 2] = [
        (0.85, "f7810819dcb8570109f91ae6de51e509"),
        (0.0, "813c81aeda25fae34e6c277473d9fbfb"),
    ];

    /// Drive [`sleepy_city`] for 2,000 subframes, calling `look(net, sf,
    /// report)` ahead of each subframe with the previous subframe's report.
    /// Cell 0 is down over [800, 1100) with RLF declared at 870 (between
    /// measurement subframes, after a coherence boundary), UE 27's trace is replaced at 1000, and
    /// subframes 1600..1650 are never ticked.  Returns the report JSON, the
    /// RLF outcome and, every 100 subframes, every UE's filtered RSRP
    /// towards each configured cell (which moves if any channel draw does).
    fn run_sleepy(
        net: &mut ShardedNetwork,
        mut look: impl FnMut(&ShardedNetwork, u64, &NetworkTickReport),
    ) -> String {
        let mut report = NetworkTickReport::default();
        let mut stream = String::new();
        for sf in (0..1600u64).chain(1650..2000) {
            let now = Instant::from_millis(sf);
            look(net, sf, &report);
            if sf == 800 {
                net.set_cell_outage(CellId(0), true);
            }
            if sf == 1000 {
                net.set_cell_trace(
                    UeId(27),
                    CellId(1),
                    MobilityTrace::from_secs(&[(1.0, -95.0), (2.0, -100.0)]),
                );
            }
            if sf == 1100 {
                net.set_cell_outage(CellId(0), false);
            }
            drive_sleepy(net, sf);
            net.tick_into(now, &mut report);
            if sf == 870 {
                let outcome = net.declare_rlf(CellId(0), now, &mut report.deliveries);
                stream.push_str(&format!("{outcome:?}"));
            }
            stream.push_str(&serde_json::to_string(&report).unwrap());
            if sf.is_multiple_of(100) {
                for ue in SLEEPY_UES {
                    for c in 0..6 {
                        let rsrp = net.filtered_rsrp(UeId(ue), CellId(c));
                        stream.push_str(&format!("{rsrp:?}"));
                    }
                }
            }
        }
        stream
    }

    /// Idle UEs change no byte: the sleep/wake scenarios reproduce the
    /// stream of the engine that visited every UE every subframe.
    #[test]
    fn sleep_and_wake_reproduce_the_eager_engine() {
        for (util, digest) in SLEEP_WAKE_DIGESTS {
            let mut net = sleepy_city(util, 9);
            let mut stream = run_sleepy(&mut net, |_, _, _| {});
            for ue in SLEEPY_UES {
                stream.push_str(&ue_view(&net, UeId(ue)));
            }
            assert_eq!(
                pbe_stats::fnv1a_128_hex(stream.as_bytes()),
                digest,
                "util {util}"
            );
        }
    }

    /// UeIds of [`descending_city`], in the order it adds them.
    fn descending_ids() -> impl Iterator<Item = u32> {
        (200..272u32).rev()
    }

    /// The UE of [`descending_city`] that walks from cell 3 into cell 4 with
    /// no traffic, handing over by A3 while asleep.
    const WALKER: u32 = 240;

    /// 72 UEs on [`city_config`]'s six cells, added in descending UeId
    /// order, so that every UE lands in slot 0 and shifts the awake state of
    /// all the others, across a 64-slot word boundary.  Every fifth UE is
    /// handed a packet as it joins, so awake and asleep slots are
    /// interleaved while the lane still grows.  Every third UE is configured
    /// on two cells, every twelfth may aggregate both.
    fn descending_city(seed: u64) -> ShardedNetwork {
        let mut net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), seed, 1);
        for id in descending_ids() {
            let k = id - 200;
            let primary = (k / 3 % 6) as u16;
            let mut cells = vec![CellId(primary)];
            if k.is_multiple_of(3) {
                cells.push(CellId((primary + 1) % 6));
            }
            let (cells, max_cells) = if id == WALKER {
                (vec![CellId(3), CellId(4)], 1)
            } else {
                (cells, if k.is_multiple_of(12) { 2 } else { 1 })
            };
            let rssi = -84.0 - f64::from(k % 15);
            net.add_ue(
                UeConfig::new(UeId(id), cells, max_cells, rssi),
                MobilityTrace::stationary(rssi),
            );
            if k.is_multiple_of(5) {
                net.enqueue_packet(UeId(id), u64::from(id), 1500, Instant::ZERO);
            }
        }
        net.set_cell_trace(
            UeId(WALKER),
            CellId(3),
            MobilityTrace::from_secs(&[(0.0, -84.0), (1.0, -108.0)]),
        );
        net.set_cell_trace(
            UeId(WALKER),
            CellId(4),
            MobilityTrace::from_secs(&[(0.0, -108.0), (1.0, -84.0)]),
        );
        net
    }

    /// The downlink packets of subframe `sf` in [`descending_city`]: short
    /// enough load on each aggregating UE, one per cell at a time, to
    /// activate its secondary, then silence; short bursts staggered across
    /// the other UEs, and a trickle on some.
    fn drive_descending(net: &mut ShardedNetwork, sf: u64) {
        let now = Instant::from_millis(sf);
        for id in descending_ids().filter(|id| *id != WALKER) {
            let k = u64::from(id - 200);
            let burst_at = 50 + 97 * (k % 11);
            let heavy_at = if k < 36 { 400 } else { 600 };
            let n = if (heavy_at..heavy_at + 150).contains(&sf) && k.is_multiple_of(12) {
                15
            } else if (burst_at..burst_at + 30).contains(&sf) && k.is_multiple_of(4) {
                3
            } else if (300..900).contains(&sf) && k % 7 == 1 && sf.is_multiple_of(20) {
                1
            } else {
                0
            };
            for i in 0..n {
                net.enqueue_packet(UeId(id), sf * 10_000 + k * 20 + i, 1500, now);
            }
        }
    }

    /// FNV-128 of [`descending_city`]'s stream: each subframe's report
    /// JSON, every 100 subframes every UE's filtered RSRP towards each cell,
    /// then every UE's final [`ue_view`].  Captured at the engine whose
    /// awake lane was one `bool` per slot, zeroed and rebuilt every subframe
    /// along with the per-slot PRB counts.
    const DESCENDING_DIGEST: &str = "0035a8b05999336ddda42dbbd9ad6347";

    /// Drive [`descending_city`] through 1,400 subframes, skipping
    /// 1000..1020 (which wakes every sleeper), calling `look(net, sf,
    /// report)` ahead of each subframe with the previous subframe's report.
    fn run_descending(
        net: &mut ShardedNetwork,
        mut look: impl FnMut(&ShardedNetwork, u64, &NetworkTickReport),
    ) -> String {
        let mut report = NetworkTickReport::default();
        let mut stream = String::new();
        for sf in (0..1000u64).chain(1020..1400) {
            look(net, sf, &report);
            drive_descending(net, sf);
            net.tick_into(Instant::from_millis(sf), &mut report);
            stream.push_str(&serde_json::to_string(&report).unwrap());
            if sf.is_multiple_of(100) {
                for id in descending_ids() {
                    for c in 0..6 {
                        let rsrp = net.filtered_rsrp(UeId(id), CellId(c));
                        stream.push_str(&format!("{rsrp:?}"));
                    }
                }
            }
        }
        for id in descending_ids() {
            stream.push_str(&ue_view(net, UeId(id)));
        }
        stream
    }

    /// A lane of more than one word, built against UeId order, reproduces
    /// its pinned stream through bursts, sleep and wake, measurement
    /// subframes, CA activations and an idle A3 handover.
    #[test]
    fn ues_added_in_descending_order_reproduce_their_stream() {
        let mut net = descending_city(21);
        let (mut asleep, mut awake) = (0usize, 0usize);
        let (mut walker_was_asleep, mut walker_handed_over, mut walker_asleep_before) =
            (false, false, false);
        let mut activations = 0usize;
        let stream = run_descending(&mut net, |net, sf, report| {
            activations += report.ca_events.iter().filter(|e| e.activated).count();
            if report.handovers.iter().any(|h| h.ue == UeId(WALKER)) {
                walker_handed_over = true;
                walker_was_asleep |= walker_asleep_before;
            }
            walker_asleep_before = !is_awake(net, WALKER);
            if sf == 1 {
                for id in descending_ids() {
                    if is_awake(net, id) {
                        awake += 1;
                    } else {
                        asleep += 1;
                    }
                }
            }
        });
        assert!(net.lane.ues.len() > 64);
        assert!(asleep > 0 && awake > 0, "{asleep} asleep, {awake} awake");
        assert!(activations > 0, "no secondary activated");
        assert!(
            walker_handed_over && walker_was_asleep,
            "no idle A3 handover"
        );
        assert_eq!(
            pbe_stats::fnv1a_128_hex(stream.as_bytes()),
            DESCENDING_DIGEST
        );
    }

    fn is_awake(net: &ShardedNetwork, ue: u32) -> bool {
        let slot = net.lane.slots.slot_of(UeId(ue)).expect("registered");
        net.lane.awake.get(slot)
    }

    /// The pinned scenarios are not vacuous: each case sleeps, or stays
    /// awake, where the sleep rule says it must.
    #[test]
    fn sleepy_city_exercises_every_sleep_and_wake_case() {
        let mut net = sleepy_city(0.85, 9);
        let (mut harq_wait, mut holddown_wait, mut a3_asleep) = (false, false, false);
        let mut before_28 = true;
        run_sleepy(&mut net, |net, sf, report| {
            // (a), (d), (e): idle UEs sleep through measurement subframes
            // until their data, outage or first packet arrives.
            if [599, 800, 870].contains(&sf) {
                assert!(!is_awake(net, 20) && !is_awake(net, 24), "subframe {sf}");
            }
            if sf == 400 {
                assert!(!is_awake(net, 26));
            }
            // (b) awake on HARQ alone; (c) awake on the CA hold-down alone.
            let cell3 = net.cell(CellId(3)).expect("cell 3");
            harq_wait |=
                is_awake(net, 22) && net.queue_bits(UeId(22)) == 0 && cell3.holds_data(UeId(22));
            holddown_wait |= is_awake(net, 23)
                && net.queue_bits(UeId(23)) == 0
                && net.active_cells(UeId(23)).len() == 2;
            if report.handovers.iter().any(|h| h.ue == UeId(28)) {
                a3_asleep = !before_28;
            }
            before_28 = is_awake(net, 28);
            if [999, 1001, 1499].contains(&sf) {
                assert!(!is_awake(net, 27), "subframe {sf}");
            }
        });
        assert!(harq_wait && holddown_wait && a3_asleep);
        assert_eq!(
            net.serving_cell(UeId(24)),
            Some(CellId(1)),
            "RLF re-selected"
        );
        // (f) with every multi-cell UE activating on zero utilisation, those
        // UEs never sleep, while single-cell UEs still do.
        let mut net = sleepy_city(0.0, 9);
        run_sleepy(&mut net, |net, sf, _| {
            assert!(
                sf == 0 || (is_awake(net, 20) && is_awake(net, 26)),
                "subframe {sf}"
            );
            if [999, 1499].contains(&sf) {
                assert!(!is_awake(net, 27), "subframe {sf}");
            }
        });
    }

    /// A shard count outside `1..=cells` — once clamped into that range —
    /// is accepted and ignored: 600 subframes of [`city_stream`] reproduce
    /// the bytes shard counts 1, 0 and 40 all produced before the engine
    /// lost its shard dispatch.
    #[test]
    fn shard_count_is_clamped_to_the_cell_count() {
        for shards in [0usize, 40] {
            let net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 1, shards);
            let mut net = city_on(net, 1.0);
            assert_eq!(
                city_stream(&mut net, 600).0,
                "f7cc2282763f96c4b50ded2d6e66a3c2",
                "{shards} shards"
            );
        }
    }

    fn attached(net: &ShardedNetwork, ue: UeId, cell: CellId) -> bool {
        net.cell(cell).expect("configured cell").is_attached(ue)
    }

    /// A cell holds lanes only for UEs it has been active for: a new UE's
    /// primary, a secondary from the tick that activates it (before the next
    /// tick stages it there), and a handover's target but none of the old
    /// active cells.
    #[test]
    fn cells_attach_a_ue_only_where_it_has_been_active() {
        let mut net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 4, 1);
        let ue = UeId(5);
        let cells = [CellId(0), CellId(3), CellId(4)];
        let traces = [
            MobilityTrace::from_secs(&[(0.0, -85.0), (2.0, -110.0)]),
            MobilityTrace::stationary(-100.0),
            MobilityTrace::from_secs(&[(0.0, -115.0), (2.0, -80.0)]),
        ];
        net.add_ue_with_traces(
            UeConfig::new(ue, cells.to_vec(), 2, -85.0),
            &traces[0],
            |i| traces.get(i),
        );
        assert!(attached(&net, ue, CellId(0)));
        assert!(!attached(&net, ue, CellId(3)) && !attached(&net, ue, CellId(4)));

        let mut report = NetworkTickReport::default();
        let (mut first_activation, mut handover_from_ca) = (None, false);
        for sf in 0..3000u64 {
            let now = Instant::from_millis(sf);
            for i in 0..20 {
                net.enqueue_packet(ue, sf * 100 + i, 1500, now);
            }
            let active_before = net.active_cells(ue);
            let attached_before = cells.map(|c| attached(&net, ue, c));
            net.tick_into(now, &mut report);
            for e in report.ca_events.iter().filter(|e| e.activated) {
                assert!(attached(&net, ue, e.cell), "subframe {sf}: {e:?}");
                if first_activation.is_none() {
                    let i = cells.iter().position(|c| *c == e.cell).expect("configured");
                    assert!(!attached_before[i], "the activation attached {:?}", e.cell);
                    first_activation = Some(e.cell);
                }
            }
            for h in &report.handovers {
                assert!(attached(&net, ue, h.to), "subframe {sf}: {h:?}");
                for c in active_before.iter().filter(|c| **c != h.to) {
                    assert!(!attached(&net, ue, *c), "subframe {sf}: {c:?} kept lanes");
                }
                handover_from_ca |= active_before.len() > 1;
            }
        }
        assert_eq!(first_activation, Some(CellId(3)));
        assert!(handover_from_ca, "no handover left a CA pair");
    }

    /// [`city`]'s UEs, each with its trace towards every configured cell.
    fn city_ues(cross_secs: f64) -> Vec<(UeConfig, Vec<MobilityTrace>)> {
        let walk = |from, to| MobilityTrace::from_secs(&[(0.0, from), (cross_secs, to)]);
        let still = MobilityTrace::stationary;
        vec![
            (
                UeConfig::new(UeId(1), vec![CellId(0), CellId(3)], 1, -85.0),
                vec![walk(-85.0, -110.0), walk(-110.0, -85.0)],
            ),
            (
                UeConfig::new(UeId(2), vec![CellId(2), CellId(4)], 2, -83.0),
                vec![still(-83.0), still(-84.5)],
            ),
            (
                UeConfig::new(UeId(3), vec![CellId(5)], 1, -88.0),
                vec![still(-88.0)],
            ),
            (
                UeConfig::new(UeId(7), vec![CellId(1), CellId(0)], 1, -86.0),
                vec![walk(-85.0, -108.0), walk(-108.0, -85.0)],
            ),
        ]
    }

    /// Building each UE once from its per-cell traces produces the report
    /// stream of adding it with one trace and then replacing the trace of
    /// every configured cell, through handovers and a CA activation.
    #[test]
    fn building_once_equals_building_then_replacing_every_trace() {
        let digest = |build_once: bool| {
            let mut net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 13, 1);
            for (config, traces) in city_ues(1.0) {
                if build_once {
                    net.add_ue_with_traces(config, &traces[0], |i| traces.get(i));
                    continue;
                }
                let (id, cells) = (config.id, config.configured_cells.clone());
                net.add_ue(config, traces[0].clone());
                for (cell, trace) in cells.into_iter().zip(traces) {
                    net.set_cell_trace(id, cell, trace);
                }
            }
            let mut report = NetworkTickReport::default();
            let mut stream = String::new();
            let mut handovers = 0;
            for sf in 0..2000u64 {
                drive_packets(&mut net, sf);
                net.tick_into(Instant::from_millis(sf), &mut report);
                handovers += report.handovers.len();
                stream.push_str(&serde_json::to_string(&report).unwrap());
            }
            assert!(handovers >= 2, "both crossings hand over: {handovers}");
            assert!(net.carrier_aggregation_triggered(UeId(2)));
            for ue in UES {
                stream.push_str(&ue_view(&net, ue));
            }
            pbe_stats::fnv1a_128_hex(stream.as_bytes())
        };
        assert_eq!(digest(true), digest(false));
    }

    /// Foreground RNTIs stop short of the reserved `0xFFF4`–`0xFFFF`:
    /// the 65,269th UE is refused rather than wrapping to a duplicate.
    #[test]
    #[should_panic(expected = "RNTI space exhausted")]
    fn the_foreground_rnti_space_ends_before_the_reserved_values() {
        assert_eq!(MAX_UES, 65_268);
        let mut net = ShardedNetwork::new(city_config(), CellLoadProfile::none(), 1, 1);
        // Skip to the last free RNTI rather than register 65,267 UEs first.
        net.next_rnti = LAST_UE_RNTI;
        let ue = |id| UeConfig::new(UeId(id), vec![CellId(0)], 1, -85.0);
        let trace = MobilityTrace::stationary(-85.0);
        assert_eq!(net.add_ue(ue(1), trace.clone()), Rnti(LAST_UE_RNTI));
        net.add_ue(ue(2), trace);
    }
}
