//! The end-to-end simulation engine: servers, wired paths, the cellular
//! network and the mobile receivers, advanced together one subframe at a
//! time.
//!
//! The engine is scheme-agnostic.  Congestion controllers come from the
//! [`SchemeTable`], receiver-side per-flow state machines are
//! [`ReceiverAgent`]s built through the same table, and every measurable
//! occurrence is narrated to the registered [`Observer`]s as typed
//! [`SimEvent`]s — the standard [`SimResult`] is produced by the built-in
//! [`MetricsCollector`] listening to that same stream.
//!
//! [`Simulation::run`] is a short loop over private stages, one per phase
//! of the numbered steps of a subframe: the fault driver (0a, 4b); the
//! senders (0 near-source signals, 1 ACKs and loss reports, 2 pacing); the
//! wire (3), the only stage that knows whether each flow has a private
//! [`WiredPath`] or all share one [`Backhaul`], whose marks it turns into
//! signals back to the senders; the radio access network (4, 5 carrier and
//! handover events, 6 control channels), narrated to the receivers; and
//! the receivers (7), which acknowledge deliveries.  One packet table holds
//! every released packet until it is delivered or dropped, every loss takes
//! one path back to its sender, and every event passes one sink.

use crate::backhaul::{Backhaul, BackhaulConfig, BackhaulLinkResult, BackhaulTickReport};
use crate::faults::{FaultRecoveryRecord, FaultSchedule, LinkFlap};
use crate::flow::{AppModel, FlowConfig, FlowResult, SchemeChoice};
use crate::metrics::MetricsCollector;
use crate::observer::{Observer, SimEvent};
use crate::rate::DeliveryRateEstimator;
use crate::scheme::SchemeTable;
use crate::wired::WiredPath;
use pbe_cc_algorithms::api::{
    AckInfo, CongestionControl, CongestionSignal, PbeFeedback, MSS_BYTES,
};
use pbe_cc_algorithms::registry::SchemeCtx;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::handover::HandoverEvent;
use pbe_cellular::network::{Delivery, NetworkTickReport};
use pbe_cellular::shard::ShardedNetwork;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_core::receiver::{ReceiverAgent, ReceiverCtx};
use pbe_pdcch::batch::DciBatcher;
use pbe_stats::time::{Duration, Instant};
use pbe_stats::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cellular-network configuration (cells, CA policy, overheads).
    pub cellular: CellularConfig,
    /// Background-traffic load profile applied to every cell.
    pub load: CellLoadProfile,
    /// Experiment seed; everything stochastic derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: Duration,
    /// Mobile devices and their mobility traces.
    pub ues: Vec<(UeConfig, MobilityTrace)>,
    /// End-to-end flows.
    pub flows: Vec<FlowConfig>,
    /// Per-cell trajectory overrides for multi-cell mobility: each entry
    /// replaces the RSSI trace one UE sees towards one of its configured
    /// cells, so different cells can strengthen and fade independently —
    /// the prerequisite for any handover scenario.  `default` keeps
    /// pre-handover scenario JSON loadable.
    #[serde(default)]
    pub trajectories: Vec<CellTrajectory>,
    /// Shard count for the cellular tick engine.  `Some(n)` partitions the
    /// cell grid into `n` geo-contiguous shards ticked in parallel on a
    /// persistent worker pool; one shard ticks the whole grid inline on the
    /// calling thread.  Every shard count produces byte-identical results;
    /// only the wall clock changes.  `None` (the default, and what pre-shard
    /// configuration JSON loads as) means one shard unless the
    /// `PBE_FORCE_SHARDS` environment variable (a positive integer) names
    /// another count — the CI lever that runs the whole test suite at a
    /// multi-shard count.
    #[serde(default)]
    pub shards: Option<usize>,
    /// Shared wired backhaul topology.  `None` (the default, and what every
    /// pre-backhaul configuration JSON loads as) keeps each flow on its
    /// private [`WiredPath`]; `Some` routes every flow through the shared
    /// link DAG by the cell its UE is attached to, re-routing on handover.
    /// The backhaul is stepped by the driver loop outside the RAN tick
    /// (conceptually owned by shard 0), so results stay byte-identical for
    /// every shard count.
    #[serde(default)]
    pub backhaul: Option<BackhaulConfig>,
    /// Deterministic fault schedule: cell outages, backhaul link flaps and
    /// control-channel decode-loss bursts, all keyed purely by simulated
    /// time.  `None` (the default, and what every pre-fault configuration
    /// JSON loads as) injects nothing; a schedule is applied by the
    /// single-threaded driver loop, so faulted runs stay byte-identical
    /// across shard counts.
    #[serde(default)]
    pub faults: Option<FaultSchedule>,
}

/// Parse a `PBE_FORCE_SHARDS` value: unset means no override; anything but
/// a positive integer is an error naming the variable and the value, so a
/// typo cannot silently run the default shard count.
fn parse_forced_shards(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(value) = value else { return Ok(None) };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "PBE_FORCE_SHARDS must be a positive integer, got {value:?}"
        )),
    }
}

/// The shard count the environment asks for when [`SimConfig::shards`] does
/// not name one.
fn forced_shards() -> Option<usize> {
    let value = std::env::var_os("PBE_FORCE_SHARDS").map(|v| v.to_string_lossy().into_owned());
    parse_forced_shards(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// One per-cell trajectory override of [`SimConfig::trajectories`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellTrajectory {
    /// The device the override applies to.
    pub ue: UeId,
    /// The configured cell whose trace is replaced.
    pub cell: CellId,
    /// The RSSI-versus-time trajectory towards that cell.
    pub trace: MobilityTrace,
}

impl SimConfig {
    /// A single-UE, single-flow scenario on the default three-cell network.
    pub fn single_flow(
        scheme: SchemeChoice,
        duration: Duration,
        load: CellLoadProfile,
        seed: u64,
    ) -> Self {
        let ue = UeId(1);
        SimConfig {
            cellular: CellularConfig::default(),
            load,
            seed,
            duration,
            ues: vec![(
                UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], 3, -85.0),
                MobilityTrace::stationary(-85.0),
            )],
            flows: vec![FlowConfig::bulk(1, ue, scheme, duration)],
            trajectories: Vec::new(),
            shards: None,
            backhaul: None,
            faults: None,
        }
    }
}

/// Per-UE average PRBs allocated by the primary cell over one 100 ms
/// interval (the quantity plotted in the paper's Fig. 21).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrbInterval {
    /// Interval start, seconds.
    pub start_s: f64,
    /// Average PRBs per subframe allocated to each foreground UE, keyed by
    /// the id of the UE's first configured flow (see
    /// [`PrbInterval::prbs_for`]).
    pub per_ue: HashMap<u32, f64>,
}

impl PrbInterval {
    /// Average PRBs per subframe the primary cell allocated to the UE this
    /// flow id attributes (0.0 for flows with no attribution entry).
    ///
    /// Attribution is per *device*, keyed by the id of the UE's first
    /// configured flow (the timeline cannot tell a device's flows apart at
    /// the MAC layer).  For one-flow-per-UE scenarios — fig21's fairness
    /// cases — that is simply the flow's own id; a second flow on the same
    /// UE has no entry of its own and reads 0.0 here.
    pub fn prbs_for(&self, flow: u32) -> f64 {
        self.per_ue.get(&flow).copied().unwrap_or(0.0)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// One result per configured flow, in configuration order.
    pub flows: Vec<FlowResult>,
    /// Primary-cell PRB allocation timeline (100 ms intervals).
    pub primary_prb_timeline: Vec<PrbInterval>,
    /// Carrier aggregation events that occurred.
    pub ca_events: Vec<CaEvent>,
    /// Serving-cell handovers that occurred.
    #[serde(default)]
    pub handovers: Vec<HandoverEvent>,
    /// Per-link backhaul summaries, in configuration order (empty when no
    /// backhaul topology was configured).
    #[serde(default)]
    pub backhaul_links: Vec<BackhaulLinkResult>,
    /// Recovery metrics of every injected fault, in fault-closure order
    /// (empty when [`SimConfig::faults`] schedules nothing).
    #[serde(default)]
    pub fault_recovery: Vec<FaultRecoveryRecord>,
}

impl SimResult {
    /// Find a flow result by flow id.
    pub fn flow(&self, id: u32) -> Option<&FlowResult> {
        self.flows.iter().find(|f| f.id == id)
    }
}

/// News travelling back to a sender: an acknowledgement, or a loss report
/// (which carries only its arrival time and the bytes it returns).
#[derive(Default)]
struct PendingEvent {
    arrive_at: Instant,
    packet_id: u64,
    /// Bytes the news takes out of flight.
    bytes: u64,
    sent_at: Instant,
    one_way_delay_ms: f64,
    ecn_ce: bool,
    pbe: Option<PbeFeedback>,
    lost: bool,
}

/// The packet table's entry for a released packet, from its release until
/// its delivery or drop.
struct Packet {
    flow: usize,
    sent_at: Instant,
    /// ECN-marked by a backhaul queue on the way.
    marked: bool,
}

/// The event sink: every event reaches the built-in metrics collector, then
/// each registered observer in order.
struct Sink {
    metrics: MetricsCollector,
    observers: Vec<Box<dyn Observer>>,
}

impl Sink {
    fn emit(&mut self, event: SimEvent<'_>) {
        self.metrics.on_event(&event);
        for o in self.observers.iter_mut() {
            o.on_event(&event);
        }
    }
}

/// Steps 0a and 4b: the fault schedule, applied at its subframes.  Link
/// flaps act inside the backhaul (the wire installs them); their boundaries
/// are only narrated here.
struct FaultDriver {
    schedule: FaultSchedule,
}

impl FaultDriver {
    fn new(schedule: Option<FaultSchedule>) -> Self {
        let schedule = schedule.unwrap_or_default();
        if let Err(e) = schedule.validate() {
            panic!("invalid fault schedule: {e}");
        }
        FaultDriver { schedule }
    }

    /// Step 0a: the fault boundaries crossing subframe `t_ms`.
    fn boundaries(&self, t_ms: u64, ran: &mut Ran, receivers: &mut [Receiver], sink: &mut Sink) {
        let at = Instant::from_millis(t_ms);
        for o in &self.schedule.cell_outages {
            // Overlapping windows on one cell: the cell only comes back once
            // no window covers this subframe.
            let down = o.start_ms == t_ms;
            if down || (o.end_ms == t_ms && !self.schedule.cell_is_down(o.cell, t_ms)) {
                let residents = ran.net.set_cell_outage(o.cell, down);
                sink.emit(SimEvent::FaultCellOutage {
                    cell: o.cell,
                    at,
                    down,
                    residents: if down { &residents } else { &[] },
                });
            }
        }
        for f in &self.schedule.link_flaps {
            for (edge_ms, down) in [(f.start_ms, true), (f.end_ms, false)] {
                if edge_ms == t_ms {
                    let name = &f.link;
                    sink.emit(SimEvent::FaultLinkFlap { name, at, down });
                }
            }
        }
        for d in &self.schedule.decode_loss {
            if d.start_ms == t_ms {
                for r in receivers.iter_mut().filter(|r| r.config.id == d.flow) {
                    r.agent.on_decode_loss(d.end_ms);
                }
                sink.emit(SimEvent::FaultDecodeLoss {
                    flow: d.flow,
                    at,
                    until_ms: d.end_ms,
                });
            }
        }
    }

    /// Step 4b: residents of a cell that has been dark for the detection
    /// delay abandon it through the ordinary handover machinery.  The
    /// resulting events join the subframe's report before it is narrated, so
    /// receiver re-targeting, backhaul re-routing and metrics all see them
    /// like any A3 handover.
    fn radio_link_failures(&self, t_ms: u64, ran: &mut Ran, sink: &mut Sink) {
        let detection_ms = self.schedule.rlf_detection();
        for o in &self.schedule.cell_outages {
            if t_ms == o.start_ms + detection_ms && self.schedule.cell_is_down(o.cell, t_ms) {
                let at = Instant::from_millis(t_ms);
                let outcome = ran.net.declare_rlf(o.cell, at, &mut ran.report.deliveries);
                let reconnected: Vec<(UeId, CellId)> =
                    outcome.events.iter().map(|e| (e.ue, e.to)).collect();
                sink.emit(SimEvent::FaultRlf {
                    cell: o.cell,
                    at,
                    reconnected: &reconnected,
                    stranded_ues: &outcome.stayed,
                    stranded_packets: outcome.stranded_packets,
                });
                ran.report.handovers.extend(outcome.events);
            }
        }
    }
}

/// The sending half of one flow: its congestion controller, pacing and
/// in-flight account, and the news travelling back to it.
struct Sender {
    config: FlowConfig,
    cc: Option<Box<dyn CongestionControl>>,
    allowance_bytes: f64,
    inflight_bytes: u64,
    rate_est: DeliveryRateEstimator,
    srtt: Duration,
    pending: VecDeque<PendingEvent>,
}

impl Sender {
    /// Step 1: the ACKs and loss reports that reached the sender by `now`,
    /// each handed to the congestion controller.
    fn take_feedback(&mut self, now: Instant, sink: &mut Sink) {
        while self.pending.front().is_some_and(|ev| ev.arrive_at <= now) {
            let ev = self.pending.pop_front().expect("non-empty");
            self.inflight_bytes = self.inflight_bytes.saturating_sub(ev.bytes);
            if ev.lost {
                if let Some(cc) = self.cc.as_mut() {
                    cc.on_loss(now);
                }
                continue;
            }
            let rtt = now.saturating_since(ev.sent_at);
            self.srtt = Duration::from_secs_f64(
                self.srtt.as_secs_f64() * 0.875 + rtt.as_secs_f64() * 0.125,
            );
            self.rate_est.set_window(self.srtt);
            let ack = AckInfo {
                now,
                packet_id: ev.packet_id,
                bytes_acked: ev.bytes,
                rtt,
                one_way_delay_ms: ev.one_way_delay_ms,
                delivery_rate_bps: self.rate_est.on_ack(now, ev.bytes),
                inflight_bytes: self.inflight_bytes,
                loss_detected: false,
                ecn_ce: ev.ecn_ce,
                pbe: ev.pbe,
            };
            if let Some(cc) = self.cc.as_mut() {
                cc.on_ack(&ack);
            }
            let flow = self.config.id;
            sink.emit(SimEvent::AckProcessed { flow, ack: &ack });
        }
    }

    /// The one loss path.  A packet lost at `at` is narrated at once and
    /// reported to the sender one reverse trip later, returning `charged`
    /// bytes to the in-flight account: a smoothed RTT later for a wired drop
    /// (`one_way` is `None`), one server delay later for a radio loss the
    /// receiver noticed after `one_way` of travel.
    fn lose(&mut self, sink: &mut Sink, at: Instant, one_way: Option<Duration>, charged: u64) {
        let reverse_trip = one_way.map_or(self.srtt, |_| self.config.server_one_way_delay);
        self.pending.push_back(PendingEvent {
            arrive_at: at + reverse_trip,
            bytes: charged,
            lost: true,
            ..PendingEvent::default()
        });
        sink.emit(SimEvent::PacketDelivered {
            flow: self.config.id,
            at,
            bytes: MSS_BYTES,
            one_way: one_way.unwrap_or(Duration::ZERO),
            delivered: false,
            wired_drop: one_way.is_none(),
        });
    }
}

/// Steps 0–2: the servers, and the one packet table (packet id → owner,
/// release time, ECN mark) of everything they released that has been neither
/// delivered nor dropped.
struct Senders {
    flows: Vec<Sender>,
    packets: HashMap<u64, Packet>,
    next_packet_id: u64,
}

impl Senders {
    fn tick(&mut self, now: Instant, wire: &mut Wire, sink: &mut Sink) {
        // 0. Near-source congestion signals reach their senders (they
        //    undercut the ACK clock, so they are delivered first).
        while let Some((idx, signal)) = wire.signal_due(now) {
            if let Some(cc) = self.flows[idx].cc.as_mut() {
                cc.on_signal(now, &signal);
            }
        }
        // 1. ACKs and loss reports.
        for flow in &mut self.flows {
            flow.take_feedback(now, sink);
        }
        // 2. Senders release packets under pacing + cwnd control.
        for (idx, flow) in self.flows.iter_mut().enumerate() {
            if now < flow.config.start || now >= flow.config.stop {
                continue;
            }
            let (budget_bps, gate_by_cwnd) = match (&flow.config.app, flow.cc.as_ref()) {
                (AppModel::ConstantRate(r), _) => (*r, false),
                (AppModel::Bulk, Some(cc)) => (cc.pacing_rate_bps(), true),
                (AppModel::Bulk, None) => (12e6, false),
            };
            flow.allowance_bytes += budget_bps / 8.0 * 1e-3;
            // Cap the carried-over allowance at one burst worth of data so
            // an idle app cannot accumulate an unbounded token bucket.
            let burst = budget_bps / 8.0 * 0.05 + 2.0 * MSS_BYTES as f64;
            flow.allowance_bytes = flow.allowance_bytes.min(burst);
            while flow.allowance_bytes >= MSS_BYTES as f64 {
                if gate_by_cwnd {
                    let cwnd = flow.cc.as_ref().map(|c| c.cwnd_bytes()).unwrap_or(u64::MAX);
                    if flow.inflight_bytes + MSS_BYTES > cwnd {
                        break;
                    }
                }
                let id = self.next_packet_id;
                self.next_packet_id += 1;
                flow.allowance_bytes -= MSS_BYTES as f64;
                if !wire.send(idx, &flow.config, id, now) {
                    // Refused at a private bottleneck before it was charged
                    // to the window, so its loss report returns no bytes.
                    flow.lose(sink, now, None, 0);
                    continue;
                }
                let packet = Packet {
                    flow: idx,
                    sent_at: now,
                    marked: false,
                };
                self.packets.insert(id, packet);
                flow.inflight_bytes += MSS_BYTES;
                if let Some(cc) = flow.cc.as_mut() {
                    cc.on_packet_sent(now, MSS_BYTES, flow.inflight_bytes);
                }
            }
        }
    }
}

/// Step 3: the wire from the servers to the base stations — the only stage
/// that knows which wired model is in use — and the near-source signals its
/// marks send back towards the senders.
struct Wire {
    /// Each flow's private path (unused when a backhaul is shared).
    paths: Vec<WiredPath>,
    /// The shared link DAG, stepped outside the RAN tick (as if by shard 0).
    backhaul: Option<Backhaul>,
    report: BackhaulTickReport,
    /// The cell each flow's packets route towards (updated on handover).
    serving_cell: Vec<CellId>,
    /// Signals in flight, keyed by (delivery time, mark sequence) so their
    /// delivery order is deterministic.
    signals: BTreeMap<(Instant, u64), (usize, CongestionSignal)>,
    signal_seq: u64,
}

impl Wire {
    fn new(cfg: &SimConfig, serving_cell: Vec<CellId>, flaps: &[LinkFlap]) -> Self {
        let mut backhaul = cfg.backhaul.clone().map(Backhaul::new);
        let mut paths = Vec::new();
        for f in &cfg.flows {
            let d = f.server_one_way_delay;
            paths.push(match (f.wired_bottleneck_bps, &backhaul) {
                (None, _) => WiredPath::unconstrained(d),
                (Some(rate), None) => WiredPath::with_bottleneck(d, rate, f.wired_queue_bytes),
                (Some(_), Some(_)) => panic!(
                    "invalid flow configuration: flow {} sets a private wired bottleneck, \
                     which the shared backhaul would ignore",
                    f.id
                ),
            });
        }
        if !flaps.is_empty() {
            let bh = backhaul
                .as_mut()
                .expect("link flaps require a backhaul topology");
            if let Err(e) = bh.set_flaps(flaps) {
                panic!("invalid fault schedule: {e}");
            }
        }
        Wire {
            paths,
            backhaul,
            report: BackhaulTickReport::default(),
            serving_cell,
            signals: BTreeMap::new(),
            signal_seq: 0,
        }
    }

    /// The next near-source signal due at its sender by `now`.
    fn signal_due(&mut self, now: Instant) -> Option<(usize, CongestionSignal)> {
        let next = self.signals.first_entry()?;
        (next.key().0 <= now).then(|| next.remove())
    }

    /// Put flow `idx`'s packet `id` on the wire at `now`; false if a private
    /// path's bottleneck queue refused it.  In the shared backhaul, routing
    /// (and any drop) resolves inside the link DAG at the ingress time.
    fn send(&mut self, idx: usize, flow: &FlowConfig, id: u64, now: Instant) -> bool {
        let bytes = MSS_BYTES as u32;
        let Some(backhaul) = self.backhaul.as_mut() else {
            return self.paths[idx].send(id, bytes, now);
        };
        let ingress = now + flow.server_one_way_delay;
        backhaul.submit(idx, self.serving_cell[idx], id, bytes, ingress);
        true
    }

    /// Step 3: wired arrivals reach the base stations.  A backhaul mark
    /// flags its packet's ACK and, at the first marking link on the path,
    /// signals the sender; a backhaul drop takes the loss path.
    fn tick(
        &mut self,
        now: Instant,
        senders: &mut Senders,
        net: &mut ShardedNetwork,
        sink: &mut Sink,
    ) {
        let Some(backhaul) = self.backhaul.as_mut() else {
            for (path, flow) in self.paths.iter_mut().zip(&senders.flows) {
                for pkt in path.arrivals(now) {
                    net.enqueue_packet(flow.config.ue, pkt.id, pkt.bytes, now);
                }
            }
            return;
        };
        backhaul.tick(now, &mut self.report);
        for m in &self.report.marks {
            if let Some(packet) = senders.packets.get_mut(&m.packet_id) {
                packet.marked = true;
            }
            let flow = &senders.flows[m.flow].config;
            sink.emit(SimEvent::BackhaulMark {
                flow: flow.id,
                link: m.link,
                name: &backhaul.config().links[m.link].name,
                at: m.at,
                queued_bytes: m.queued_bytes,
            });
            if m.first_on_path {
                // The signal travels back upstream: it reaches the sender
                // after the server-side delay plus the propagation of the
                // links before the marking one.
                let at = m.at + (flow.server_one_way_delay + m.upstream_delay);
                let signal = CongestionSignal {
                    at: m.at,
                    link_rate_bps: m.link_rate_bps,
                    queue_bytes: m.queued_bytes,
                    queue_delay: m.queue_delay,
                };
                self.signals.insert((at, self.signal_seq), (m.flow, signal));
                self.signal_seq += 1;
            }
        }
        for d in &self.report.drops {
            senders.packets.remove(&d.packet_id);
            let flow = &mut senders.flows[d.flow];
            sink.emit(SimEvent::BackhaulDrop {
                flow: flow.config.id,
                link: d.link,
                name: &backhaul.config().links[d.link].name,
                at: d.at,
                queued_bytes: d.queued_bytes,
            });
            // Unlike a private path's drop, the packet was charged to the
            // window when it was submitted: its loss returns its bytes.
            flow.lose(sink, now, None, d.bytes);
        }
        for d in &self.report.deliveries {
            net.enqueue_packet(senders.flows[d.flow].config.ue, d.packet_id, d.bytes, now);
        }
        let queued_bytes = backhaul.occupancy();
        sink.emit(SimEvent::BackhaulSampled { now, queued_bytes });
    }

    /// Finalise the backhaul links through the event stream.
    fn close(&self, sink: &mut Sink) {
        let links = self.backhaul.as_ref().map(Backhaul::link_summaries);
        for (link, summary) in links.unwrap_or_default().iter().enumerate() {
            sink.emit(SimEvent::BackhaulLinkClosed {
                link,
                name: &summary.name,
                rate_bps: summary.rate_bps,
                stats: summary.stats,
                max_queued_bytes: summary.max_queued_bytes,
                p50_queue_delay_ms: summary.p50_queue_delay_ms,
                p95_queue_delay_ms: summary.p95_queue_delay_ms,
            });
        }
    }
}

/// Steps 4–6: the radio access network, narrated subframe by subframe.  The
/// report and the DCI batcher are refilled in place every subframe.
struct Ran {
    cellular: CellularConfig,
    net: ShardedNetwork,
    report: NetworkTickReport,
    batcher: DciBatcher,
}

impl Ran {
    fn total_prbs(&self, cell: CellId) -> u16 {
        let cell = self.cellular.cell(cell).expect("configured cell");
        cell.total_prbs()
    }

    /// Narrate the ticked subframe, then hand its news to the receivers:
    /// carrier and handover events (5, with backhaul re-routing) and the
    /// control channels (6), which are grouped by cell once so every agent
    /// gets pre-sliced message runs instead of re-scanning the whole
    /// network's DCI traffic.
    fn narrate(
        &mut self,
        now: Instant,
        receivers: &mut [Receiver],
        senders: &[Sender],
        wire: &mut Wire,
        sink: &mut Sink,
    ) {
        let report = &self.report;
        sink.emit(SimEvent::SubframeScheduled { now, report });
        for &event in &report.ca_events {
            sink.emit(SimEvent::CaTriggered { event });
            let total_prbs = self.total_prbs(event.cell);
            for r in receivers.iter_mut().filter(|r| r.config.ue == event.ue) {
                r.agent.on_carrier_event(&event, total_prbs);
            }
        }
        let gap = self.cellular.handover.reacquisition_gap_ms;
        for event in &report.handovers {
            let (at, ue, from, to) = (event.at, event.ue, event.from, event.to);
            sink.emit(SimEvent::Handover { at, ue, from, to });
            let total_prbs = self.total_prbs(to);
            for (idx, r) in receivers.iter_mut().enumerate() {
                if r.config.ue == event.ue {
                    r.agent.on_handover(event, total_prbs, gap);
                    // Its packets now route through the target's backhaul.
                    wire.serving_cell[idx] = event.to;
                }
            }
        }
        let subframe = now.subframe_index();
        let batch = self.batcher.batch(subframe, &report.dci_messages);
        for (r, s) in receivers.iter_mut().zip(senders) {
            r.agent.on_subframe(&batch);
            // Keep receiver-side averaging windows matched to the flow RTT.
            r.agent.set_rtprop_ms(s.srtt.as_millis_f64());
        }
    }
}

/// The receiving half of one flow: its agent on the mobile device.
struct Receiver {
    config: FlowConfig,
    agent: Box<dyn ReceiverAgent>,
    /// Last bottleneck-state flag fed back, for `StateChanged` events.
    last_internet_flag: bool,
}

impl Receiver {
    /// Step 7: a delivery of this flow's `packet` at the UE.  A delivered
    /// packet is acknowledged, with whatever the agent piggybacks on the
    /// ACK; a packet lost on the radio link takes the loss path.
    fn acknowledge(&mut self, d: &Delivery, packet: &Packet, sender: &mut Sender, sink: &mut Sink) {
        let one_way = d.at.saturating_since(packet.sent_at);
        if !d.delivered {
            sender.lose(sink, d.at, Some(one_way), MSS_BYTES);
            return;
        }
        let (flow, at) = (self.config.id, d.at);
        let pbe = self.agent.on_packet(at, one_way.as_millis_f64());
        sink.emit(SimEvent::PacketDelivered {
            flow,
            at,
            bytes: MSS_BYTES,
            one_way,
            delivered: true,
            wired_drop: false,
        });
        if let Some(feedback) = pbe {
            sink.emit(SimEvent::CapacityEstimated { flow, at, feedback });
            let internet_bottleneck = feedback.internet_bottleneck;
            if internet_bottleneck != self.last_internet_flag {
                self.last_internet_flag = internet_bottleneck;
                sink.emit(SimEvent::StateChanged {
                    flow,
                    at,
                    internet_bottleneck,
                });
            }
        }
        sender.pending.push_back(PendingEvent {
            arrive_at: at + self.config.server_one_way_delay,
            packet_id: d.packet_id,
            bytes: MSS_BYTES,
            sent_at: packet.sent_at,
            one_way_delay_ms: one_way.as_millis_f64(),
            ecn_ce: packet.marked,
            pbe,
            lost: false,
        });
    }
}

/// The simulation driver.
pub struct Simulation {
    config: SimConfig,
    table: SchemeTable,
    observers: Vec<Box<dyn Observer>>,
}

impl Simulation {
    /// Create a simulation from its configuration, with the standard scheme
    /// table and no external observers.
    pub fn new(config: SimConfig) -> Self {
        Simulation::with_parts(config, SchemeTable::standard(), Vec::new())
    }

    /// Create a simulation with a custom scheme table and observers (the
    /// [`SimBuilder`](crate::builder::SimBuilder) entry point).
    pub fn with_parts(
        config: SimConfig,
        table: SchemeTable,
        observers: Vec<Box<dyn Observer>>,
    ) -> Self {
        Simulation {
            config,
            table,
            observers,
        }
    }

    /// Register an additional observer.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// The simulation's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Run the simulation to completion and produce the per-flow results.
    #[deny(clippy::too_many_lines)]
    pub fn run(&mut self) -> SimResult {
        let (cfg, table) = (&self.config, &self.table);
        let primary_cell = cfg.cellular.cells.first().map_or(CellId(0), |c| c.id);
        let metrics = MetricsCollector::new(&cfg.flows, primary_cell);
        // The sink holds the observers for the run and hands them back after.
        let observers = std::mem::take(&mut self.observers);
        let mut sink = Sink { metrics, observers };
        let faults = FaultDriver::new(cfg.faults.clone());

        let shards = cfg.shards.or_else(forced_shards).unwrap_or(1);
        let mut net = ShardedNetwork::new(cfg.cellular.clone(), cfg.load, cfg.seed, shards);
        for (ue_cfg, trace) in &cfg.ues {
            net.add_ue(ue_cfg.clone(), trace.clone());
        }
        for t in &cfg.trajectories {
            net.set_cell_trace(t.ue, t.cell, t.trace.clone());
        }
        let mut ran = Ran {
            cellular: cfg.cellular.clone(),
            net,
            report: NetworkTickReport::default(),
            batcher: DciBatcher::new(),
        };

        // Each flow's two halves.  Congestion controller and receiver agent
        // both come from the scheme table — the engine knows no scheme by
        // name.  The receiver first watches the primary cell of the flow's
        // UE, which is also where its packets first route.
        let decoder_rng = DetRng::new(cfg.seed).split("decoders");
        let (mut flows, mut receivers, mut primary) = (Vec::new(), Vec::new(), Vec::new());
        for f in &cfg.flows {
            let ue = cfg.ues.iter().find(|(u, _)| u.id == f.ue);
            let cell = ue.expect("flow UE configured").0.primary_cell();
            primary.push(cell);
            let rtprop_hint =
                Duration::from_micros(2 * f.server_one_way_delay.as_micros() + 10_000);
            let scheme = f.scheme.id();
            let seed = cfg.seed;
            flows.push(Sender {
                config: f.clone(),
                cc: table.build_cc(&scheme, &SchemeCtx { rtprop_hint, seed }),
                allowance_bytes: 0.0,
                inflight_bytes: 0,
                rate_est: DeliveryRateEstimator::new(rtprop_hint),
                srtt: rtprop_hint,
                pending: VecDeque::new(),
            });
            let ctx = ReceiverCtx {
                flow: f.id,
                rnti: ran.net.rnti_of(f.ue).expect("flow UE registered"),
                cells: vec![(cell, ran.total_prbs(cell))],
                rng: decoder_rng.clone(),
            };
            let agent = table.build_receiver(&scheme, &ctx);
            receivers.push(Receiver {
                config: f.clone(),
                agent,
                last_internet_flag: false,
            });
        }
        let mut senders = Senders {
            flows,
            packets: HashMap::new(),
            next_packet_id: 1,
        };
        let mut wire = Wire::new(cfg, primary, &faults.schedule.link_flaps);

        for t_ms in 0..cfg.duration.as_millis() {
            let now = Instant::from_millis(t_ms);
            faults.boundaries(t_ms, &mut ran, &mut receivers, &mut sink); // 0a
            senders.tick(now, &mut wire, &mut sink); // 0-2
            wire.tick(now, &mut senders, &mut ran.net, &mut sink); // 3
            ran.net.tick_into(now, &mut ran.report); // 4
            faults.radio_link_failures(t_ms, &mut ran, &mut sink); // 4b
            ran.narrate(now, &mut receivers, &senders.flows, &mut wire, &mut sink); // 4-6
                                                                                    // 7: each tabled packet the UEs received or lost reaches its receiver.
            for d in &ran.report.deliveries {
                if let Some(packet) = senders.packets.remove(&d.packet_id) {
                    let sender = &mut senders.flows[packet.flow];
                    receivers[packet.flow].acknowledge(d, &packet, sender, &mut sink);
                }
            }
        }

        // Finalise the links and the per-flow results through the stream.
        wire.close(&mut sink);
        for flow in &senders.flows {
            let cc = flow.cc.as_ref();
            let ue = flow.config.ue;
            sink.emit(SimEvent::FlowClosed {
                flow: flow.config.id,
                internet_bottleneck_fraction: cc.map_or(0.0, |c| c.internet_bottleneck_fraction()),
                carrier_aggregation_triggered: ran.net.carrier_aggregation_triggered(ue),
            });
        }
        self.observers = sink.observers;
        sink.metrics.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backhaul::BackhaulLinkSpec;
    use pbe_cc_algorithms::api::SchemeName;

    fn quick(scheme: SchemeChoice, seconds: u64, load: CellLoadProfile) -> SimResult {
        let cfg = SimConfig::single_flow(scheme, Duration::from_secs(seconds), load, 7);
        Simulation::new(cfg).run()
    }

    #[test]
    fn pbe_flow_achieves_high_throughput_and_low_delay_on_idle_cell() {
        let result = quick(SchemeChoice::Pbe, 6, CellLoadProfile::none());
        let flow = &result.flows[0];
        assert!(
            flow.summary.avg_throughput_mbps > 40.0,
            "PBE throughput = {} Mbit/s",
            flow.summary.avg_throughput_mbps
        );
        assert!(
            flow.summary.p95_delay_ms < 80.0,
            "PBE p95 delay = {} ms",
            flow.summary.p95_delay_ms
        );
        assert!(flow.packets_delivered > 1000);
    }

    #[test]
    fn bbr_flow_works_end_to_end() {
        let result = quick(
            SchemeChoice::Baseline(SchemeName::Bbr),
            6,
            CellLoadProfile::none(),
        );
        let flow = &result.flows[0];
        assert!(
            flow.summary.avg_throughput_mbps > 20.0,
            "BBR tput = {}",
            flow.summary.avg_throughput_mbps
        );
        assert!(flow.packets_delivered > 1000);
    }

    #[test]
    fn pbe_keeps_delay_lower_than_cubic_under_load() {
        let pbe = quick(SchemeChoice::Pbe, 6, CellLoadProfile::none());
        let cubic = quick(
            SchemeChoice::Baseline(SchemeName::Cubic),
            6,
            CellLoadProfile::none(),
        );
        let pbe_delay = pbe.flows[0].summary.p95_delay_ms;
        let cubic_delay = cubic.flows[0].summary.p95_delay_ms;
        assert!(
            pbe_delay < cubic_delay,
            "PBE p95 {pbe_delay} ms should undercut CUBIC p95 {cubic_delay} ms"
        );
    }

    #[test]
    fn constant_rate_flow_is_not_congestion_controlled() {
        let ue = UeId(1);
        let cfg = SimConfig {
            flows: vec![FlowConfig {
                app: AppModel::ConstantRate(12e6),
                scheme: SchemeChoice::FixedRate,
                ..FlowConfig::bulk(1, ue, SchemeChoice::FixedRate, Duration::from_secs(4))
            }],
            ..SimConfig::single_flow(
                SchemeChoice::FixedRate,
                Duration::from_secs(4),
                CellLoadProfile::none(),
                3,
            )
        };
        let result = Simulation::new(cfg).run();
        let tput = result.flows[0].summary.avg_throughput_mbps;
        assert!(
            (tput - 12.0).abs() < 2.0,
            "constant-rate flow delivers ~12 Mbit/s, got {tput}"
        );
    }

    #[test]
    fn two_pbe_flows_share_the_primary_cell_fairly() {
        let ue_a = UeId(1);
        let ue_b = UeId(2);
        let duration = Duration::from_secs(6);
        let cfg = SimConfig {
            cellular: CellularConfig::default(),
            load: CellLoadProfile::none(),
            seed: 11,
            duration,
            ues: vec![
                (
                    UeConfig::new(ue_a, vec![CellId(0)], 1, -85.0),
                    MobilityTrace::stationary(-85.0),
                ),
                (
                    UeConfig::new(ue_b, vec![CellId(0)], 1, -85.0),
                    MobilityTrace::stationary(-85.0),
                ),
            ],
            flows: vec![
                FlowConfig::bulk(1, ue_a, SchemeChoice::Pbe, duration),
                FlowConfig::bulk(2, ue_b, SchemeChoice::Pbe, duration),
            ],
            trajectories: Vec::new(),
            shards: None,
            backhaul: None,
            faults: None,
        };
        let result = Simulation::new(cfg).run();
        let a = result.flows[0].summary.avg_throughput_mbps;
        let b = result.flows[1].summary.avg_throughput_mbps;
        let ratio = a / b;
        assert!(
            (0.7..1.4).contains(&ratio),
            "throughput ratio {ratio} ({a} vs {b})"
        );
        assert!(!result.primary_prb_timeline.is_empty());
    }

    /// FNV-128 of the `SimResult` JSON of `cfg` run at `shards` shards.
    /// The constants the identity tests compare it with were captured from
    /// the serial tick engine at the commit before it was deleted.
    fn result_digest(cfg: &SimConfig, shards: usize) -> String {
        let mut cfg = cfg.clone();
        cfg.shards = Some(shards);
        let json = serde_json::to_string(&Simulation::new(cfg).run()).unwrap();
        pbe_stats::fnv1a_128_hex(json.as_bytes())
    }

    #[test]
    fn simulation_is_byte_identical_across_shard_counts() {
        // The shard count must be invisible end to end: a whole simulation
        // (flows, metrics, CA on the 3-cell default network) serialises to
        // the serial engine's bytes whatever the shard count.
        let cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(2),
            CellLoadProfile::busy(),
            13,
        );
        for shards in [1usize, 2, 3] {
            assert_eq!(
                result_digest(&cfg, shards),
                "4f35125cee6d016f0b5ff89e293acb1f",
                "{shards} shards diverged from the serial engine's result"
            );
        }
    }

    #[test]
    fn forced_shard_count_parses_or_fails_loudly() {
        assert_eq!(parse_forced_shards(None), Ok(None));
        assert_eq!(parse_forced_shards(Some("3")), Ok(Some(3)));
        for bad in ["0", "three", "", "-1", "2 "] {
            let err = parse_forced_shards(Some(bad)).expect_err(bad);
            assert!(
                err.contains("PBE_FORCE_SHARDS") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn backhaul_simulation_is_byte_identical_across_shard_counts() {
        // The backhaul is stepped in the single-threaded driver loop
        // ("owned by shard 0"), so its arrivals — and everything downstream
        // of them — must serialise to the serial engine's bytes whatever the
        // shard count, across seeds.
        for (seed, digest) in [
            (13u64, "51af63845d3697922fb215ab3fd7a546"),
            (29, "d4728fac18f1966a32919e97e81fe097"),
        ] {
            let mut cfg = SimConfig::single_flow(
                SchemeChoice::Pbe,
                Duration::from_secs(2),
                CellLoadProfile::busy(),
                seed,
            );
            cfg.backhaul = Some(BackhaulConfig::shared_aggregation(
                &[CellId(0), CellId(1), CellId(2)],
                BackhaulLinkSpec::new("agg", 40e6, Duration::from_millis(2), 150_000)
                    .with_mark_threshold(45_000),
                |cell| {
                    BackhaulLinkSpec::new(
                        format!("cell-{}", cell.0),
                        100e6,
                        Duration::from_millis(1),
                        300_000,
                    )
                },
            ));
            for shards in [1usize, 2, 3] {
                assert_eq!(
                    result_digest(&cfg, shards),
                    digest,
                    "{shards} shards diverged from the serial engine's result (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn faulted_simulation_is_byte_identical_across_shard_counts() {
        // Fault injection is config/time-derived and applied in the
        // single-threaded driver, so a faulted run — a cell outage with RLF
        // re-selection, a drained link flap and a decode-loss burst — must
        // serialise to the serial engine's bytes whatever the shard count.
        use crate::faults::{CellOutage, DecodeLossBurst, FaultKind, FlapPolicy, LinkFlap};
        for (seed, digest) in [
            (13u64, "e96fbe41069700a7bd7db7f763ea16af"),
            (29, "0fb51d1a34f290d2a773e3d03fcb735e"),
        ] {
            let mut cfg = SimConfig::single_flow(
                SchemeChoice::Pbe,
                Duration::from_secs(3),
                CellLoadProfile::busy(),
                seed,
            );
            cfg.backhaul = Some(BackhaulConfig::shared_aggregation(
                &[CellId(0), CellId(1), CellId(2)],
                BackhaulLinkSpec::new("agg", 40e6, Duration::from_millis(2), 150_000)
                    .with_mark_threshold(45_000),
                |cell| {
                    BackhaulLinkSpec::new(
                        format!("cell-{}", cell.0),
                        100e6,
                        Duration::from_millis(1),
                        300_000,
                    )
                },
            ));
            cfg.faults = Some(FaultSchedule {
                cell_outages: vec![CellOutage {
                    cell: CellId(0),
                    start_ms: 500,
                    end_ms: 1_500,
                }],
                link_flaps: vec![LinkFlap {
                    link: "agg".to_string(),
                    start_ms: 2_000,
                    end_ms: 2_120,
                    policy: FlapPolicy::Drain,
                }],
                decode_loss: vec![DecodeLossBurst {
                    flow: 1,
                    start_ms: 2_400,
                    end_ms: 2_480,
                }],
                rlf_detection_ms: None,
            });
            let result = Simulation::new(cfg.clone()).run();
            assert_eq!(
                result.fault_recovery.len(),
                3,
                "every injected fault produces a recovery record (seed {seed})"
            );
            assert!(
                result
                    .fault_recovery
                    .iter()
                    .any(|r| r.kind == FaultKind::CellOutage && !r.reconnect_ms.is_empty()),
                "the outage triggered an RLF re-selection (seed {seed})"
            );
            for shards in [1usize, 2, 3, 7] {
                assert_eq!(
                    result_digest(&cfg, shards),
                    digest,
                    "{shards} shards diverged from the serial engine's result (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn pbe_reconverges_within_gap_plus_fill_after_an_injected_rlf() {
        // After an injected RLF the PBE receiver re-targets the decoders
        // and holds its estimate through the reacquisition gap; once the
        // primary window refills (at most 8 real subframes) the estimate
        // must reflect the *new* serving cell.  Cell 0 is 20 MHz and the
        // re-selection targets a 10 MHz cell, so convergence is visible as
        // a large capacity drop.
        use crate::builder::SimBuilder;
        use crate::faults::{CellOutage, FaultKind, FaultSchedule};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(4),
            CellLoadProfile::none(),
            7,
        );
        cfg.faults = Some(FaultSchedule {
            cell_outages: vec![CellOutage {
                cell: CellId(0),
                start_ms: 2_000,
                end_ms: 4_000,
            }],
            ..FaultSchedule::none()
        });
        let detection = cfg.faults.as_ref().unwrap().rlf_detection();
        let rlf_ms = 2_000 + detection;
        let gap = cfg.cellular.handover.reacquisition_gap_ms;
        let fill = 8; // primary-window refill bound: window_subframes.clamp(1, 8)
        let deadline = rlf_ms + gap + fill;

        let estimates: Rc<RefCell<Vec<(u64, f64)>>> = Rc::default();
        let sink = estimates.clone();
        let result = SimBuilder::from_config(cfg)
            .observe(move |event: &SimEvent<'_>| {
                if let SimEvent::CapacityEstimated { at, feedback, .. } = event {
                    sink.borrow_mut()
                        .push((at.as_millis(), feedback.capacity_bps()));
                }
            })
            .run();

        let rec = result
            .fault_recovery
            .iter()
            .find(|r| r.kind == FaultKind::CellOutage)
            .expect("the outage produced a recovery record");
        assert_eq!(rec.affected_ues, vec![1], "the single UE was resident");
        assert_eq!(
            rec.reconnect_ms,
            vec![(1, detection)],
            "the UE reconnected at the RLF detection deadline"
        );

        let est = estimates.borrow();
        let held = est
            .iter()
            .rev()
            .find(|(t, _)| *t <= rlf_ms)
            .map(|(_, c)| *c)
            .expect("estimates exist before the RLF");
        assert!(
            est.iter().any(|(t, _)| *t > rlf_ms && *t <= deadline),
            "feedback kept flowing on the held estimate during the gap"
        );
        // Allow a short packet-clocked slack after the refill deadline: the
        // first post-release estimate rides on the next delivered packet.
        let post = est
            .iter()
            .filter(|(t, _)| *t > deadline && *t <= deadline + 60)
            .map(|(_, c)| *c)
            .collect::<Vec<_>>();
        let converged = post
            .last()
            .copied()
            .expect("estimates resumed after the refill deadline");
        assert!(
            converged < 0.75 * held,
            "estimate re-converged to the 10 MHz cell within gap + fill: \
             held {held:.0} bit/s vs converged {converged:.0} bit/s"
        );
    }

    /// A shared `agg` link (rate, queue limit, marking threshold) over one
    /// 100 Mbit/s link per cell; `(40e6, 150_000, 45_000)` is the tree of
    /// the backhaul identity tests.
    fn marking_aggregation(rate_bps: f64, queue_bytes: u64, mark_bytes: u64) -> BackhaulConfig {
        BackhaulConfig::shared_aggregation(
            &[CellId(0), CellId(1), CellId(2)],
            BackhaulLinkSpec::new("agg", rate_bps, Duration::from_millis(2), queue_bytes)
                .with_mark_threshold(mark_bytes),
            |cell| {
                BackhaulLinkSpec::new(
                    format!("cell-{}", cell.0),
                    100e6,
                    Duration::from_millis(1),
                    300_000,
                )
            },
        )
    }

    /// A PBE flow on the paper's walking trace, whose fades exhaust HARQ:
    /// packets are lost on the radio link.
    fn walking_flow() -> SimConfig {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(4),
            CellLoadProfile::busy(),
            13,
        );
        cfg.ues[0].1 = MobilityTrace::paper_mobility_walk();
        cfg
    }

    /// An SFC flow behind a 4 Mbit/s marking aggregation link: its sender
    /// reacts to the near-source signals the marks send back.
    fn signalled_flow() -> SimConfig {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::named("SFC"),
            Duration::from_secs(2),
            CellLoadProfile::busy(),
            13,
        );
        cfg.backhaul = Some(marking_aggregation(4e6, 60_000, 15_000));
        cfg
    }

    /// How often one run took each loss and marking branch of the driver.
    #[derive(Debug, Default, Clone, Copy)]
    struct BranchCounts {
        wired_drops: u64,
        backhaul_marks: u64,
        backhaul_drops: u64,
        radio_losses: u64,
    }

    fn branch_counts(cfg: SimConfig) -> BranchCounts {
        use crate::builder::SimBuilder;
        use std::cell::Cell;
        use std::rc::Rc;
        let counts: Rc<Cell<BranchCounts>> = Rc::default();
        let sink = counts.clone();
        SimBuilder::from_config(cfg)
            .observe(move |event: &SimEvent<'_>| {
                let mut c = sink.get();
                match event {
                    SimEvent::PacketDelivered {
                        delivered: false,
                        wired_drop: true,
                        ..
                    } => c.wired_drops += 1,
                    SimEvent::PacketDelivered {
                        delivered: false,
                        wired_drop: false,
                        ..
                    } => c.radio_losses += 1,
                    SimEvent::BackhaulMark { .. } => c.backhaul_marks += 1,
                    SimEvent::BackhaulDrop { .. } => c.backhaul_drops += 1,
                    _ => {}
                }
                sink.set(c);
            })
            .run();
        counts.get()
    }

    #[test]
    fn pinned_scenarios_reach_every_loss_and_marking_branch() {
        // Guards the digest pins against passing vacuously: between them,
        // the pinned scenarios drop at a private wired bottleneck, mark and
        // drop in the shared backhaul, and lose packets on the radio link.
        let mut golden = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(2),
            CellLoadProfile::busy(),
            41,
        );
        golden.flows[0] = golden.flows[0].clone().with_wired_bottleneck(12e6, 60_000);
        let golden = branch_counts(golden);
        assert!(golden.wired_drops > 0, "{golden:?}");

        let mut shared = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(2),
            CellLoadProfile::busy(),
            13,
        );
        shared.backhaul = Some(marking_aggregation(40e6, 150_000, 45_000));
        let shared = branch_counts(shared);
        assert!(
            shared.backhaul_marks > 0 && shared.backhaul_drops > 0,
            "{shared:?}"
        );

        let walking = branch_counts(walking_flow());
        assert!(walking.radio_losses > 0, "{walking:?}");
        let signalled = branch_counts(signalled_flow());
        assert!(signalled.backhaul_marks > 0, "{signalled:?}");
    }

    #[test]
    #[should_panic(expected = "invalid flow configuration: flow 1 sets a private wired bottleneck")]
    fn a_private_wired_bottleneck_behind_a_shared_backhaul_is_rejected() {
        // The shared backhaul replaces every private path, so the flow's
        // bottleneck would be silently ignored.
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(10),
            CellLoadProfile::none(),
            1,
        );
        cfg.flows[0] = cfg.flows[0].clone().with_wired_bottleneck(12e6, 60_000);
        cfg.backhaul = Some(marking_aggregation(40e6, 150_000, 45_000));
        Simulation::new(cfg).run();
    }

    #[test]
    fn radio_loss_and_signalled_runs_are_byte_identical_across_shard_counts() {
        for (name, cfg, digest) in [
            (
                "walking",
                walking_flow(),
                "6a631920bfb213160d0060a9d2d0e9a3",
            ),
            (
                "signalled",
                signalled_flow(),
                "e4b503aab354918ace8cee06da05186b",
            ),
        ] {
            for shards in [1usize, 2, 3] {
                assert_eq!(
                    result_digest(&cfg, shards),
                    digest,
                    "{name}: {shards} shards diverged from the pinned result"
                );
            }
        }
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let a = quick(SchemeChoice::Pbe, 3, CellLoadProfile::busy());
        let b = quick(SchemeChoice::Pbe, 3, CellLoadProfile::busy());
        assert_eq!(
            a.flows[0].summary.avg_throughput_mbps,
            b.flows[0].summary.avg_throughput_mbps
        );
        assert_eq!(a.flows[0].packets_delivered, b.flows[0].packets_delivered);
    }

    #[test]
    fn engine_contains_no_scheme_specific_branches() {
        // The acceptance check of the API redesign: the engine resolves every
        // scheme through the table, so a PBE flow and a BBR flow differ only
        // in what the table hands back.
        let pbe = quick(SchemeChoice::Pbe, 2, CellLoadProfile::none());
        let named_pbe = quick(SchemeChoice::named("PBE"), 2, CellLoadProfile::none());
        assert_eq!(
            pbe.flows[0].packets_delivered, named_pbe.flows[0].packets_delivered,
            "`Named(\"PBE\")` and the `Pbe` shim resolve to the same registry entry"
        );
    }
}
