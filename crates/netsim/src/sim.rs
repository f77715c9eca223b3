//! The end-to-end simulation engine: servers, wired paths, the cellular
//! network and the mobile receivers, advanced together one subframe at a
//! time.
//!
//! The engine is scheme-agnostic.  Congestion controllers come from the
//! simulation's scheme table (see [`crate::scheme`]), receiver-side
//! per-flow state machines are [`ReceiverAgent`]s built through the same
//! table, and every measurable occurrence is narrated to the registered
//! [`Observer`]s as typed [`SimEvent`]s — the standard [`SimResult`] is
//! produced by the built-in [`MetricsCollector`] listening to that same
//! stream.
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

use crate::backhaul::{Backhaul, BackhaulLinkResult, BackhaulTickReport};
use crate::config::{ConfigError, SimConfig};
use crate::faults::{FaultRecoveryRecord, FaultSchedule, LinkFlap};
use crate::flow::{AppModel, FlowConfig, FlowResult};
use crate::metrics::MetricsCollector;
use crate::observer::{Observer, SimEvent};
use crate::rate::DeliveryRateEstimator;
use crate::runs::MonotoneRuns;
use crate::scheme::SchemeTable;
use crate::wired::{WiredPacket, WiredPath};
use pbe_cc_algorithms::api::{
    AckInfo, CongestionControl, CongestionSignal, PbeFeedback, MSS_BYTES,
};
use pbe_cc_algorithms::registry::SchemeCtx;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeId};
use pbe_cellular::handover::HandoverEvent;
use pbe_cellular::network::{Delivery, NetworkTickReport};
use pbe_cellular::shard::ShardedNetwork;
use pbe_core::receiver::{ReceiverAgent, ReceiverCtx};
use pbe_pdcch::batch::DciBatcher;
use pbe_stats::time::{Duration, Instant, MICROS_PER_MS};
use pbe_stats::{DetRng, FxHashMap};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

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
    pub handovers: Vec<HandoverEvent>,
    /// Per-link backhaul summaries, in configuration order (empty when no
    /// backhaul topology was configured).
    pub backhaul_links: Vec<BackhaulLinkResult>,
    /// Recovery metrics of every injected fault, in fault-closure order
    /// (empty when [`SimConfig::faults`] schedules nothing).
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
                    if let Some(agent) = r.agent.as_mut() {
                        agent.on_decode_loss(d.end_ms);
                    }
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
            let rlf_ms = o.start_ms.saturating_add(detection_ms);
            if t_ms == rlf_ms && self.schedule.cell_is_down(o.cell, t_ms) {
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
    /// The pacing budget read at the flow's last visit, which every subframe
    /// skipped since then adds at (see [`Senders`]).
    budget_bps: f64,
    /// The first active subframe whose allowance add has not been applied.
    paced_to: u64,
    /// The flow paces on subframes `first_ms..stop_ms`: its start and stop
    /// rounded up to whole milliseconds.
    first_ms: u64,
    stop_ms: u64,
    inflight_bytes: u64,
    rate_est: DeliveryRateEstimator,
    srtt: Duration,
    pending: VecDeque<PendingEvent>,
}

/// The first subframe at (or after) `at`.
fn subframe_from(at: Instant) -> u64 {
    at.as_micros().div_ceil(MICROS_PER_MS)
}

/// A token bucket's per-subframe law at one pacing budget: add a
/// subframe's worth of bytes, then cap the carried-over allowance at one
/// burst so an idle app cannot accumulate an unbounded bucket.
#[derive(Clone, Copy)]
struct Pacing {
    inc: f64,
    burst: f64,
}

impl Pacing {
    fn at(budget_bps: f64) -> Self {
        Pacing {
            inc: budget_bps / 8.0 * 1e-3,
            burst: budget_bps / 8.0 * 0.05 + 2.0 * MSS_BYTES as f64,
        }
    }

    /// One subframe.
    fn step(self, allowance: f64) -> f64 {
        (allowance + self.inc).min(self.burst)
    }

    /// `allowance` after `k` subframes, bit-equal to `k` calls of
    /// [`Pacing::step`] (never `k · inc`, which rounds differently).  A step
    /// that returns its input's bits is a fixed point of the law, so every
    /// later step would return them too and the walk stops there.
    fn pace_until(self, mut allowance: f64, k: u64) -> f64 {
        for _ in 0..k {
            let next = self.step(allowance);
            if next.to_bits() == allowance.to_bits() {
                break;
            }
            allowance = next;
        }
        allowance
    }

    /// The first of the next `limit` subframes, counted from 1, after
    /// which stepping from `allowance` holds at least one MSS; `None` if
    /// none does.
    fn subframes_to_mss(self, mut allowance: f64, limit: u64) -> Option<u64> {
        for k in 1..=limit {
            let next = self.step(allowance);
            if next >= MSS_BYTES as f64 {
                return Some(k);
            }
            if next.to_bits() == allowance.to_bits() {
                return None;
            }
            allowance = next;
        }
        None
    }
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

    /// The subframe at which the front of the news reaches the sender.
    fn news_wake(&self) -> u64 {
        self.pending
            .front()
            .map_or(u64::MAX, |ev| subframe_from(ev.arrive_at))
    }

    /// Step 2's allowance at active subframe `t`: the adds of the subframes
    /// skipped since the last visit, at the budget read there, then this
    /// subframe's add at a fresh read.  Returns this subframe's law and
    /// whether the window gates the release.
    fn pace(&mut self, t: u64) -> (Pacing, bool) {
        let skipped = t - self.paced_to;
        let allowance = Pacing::at(self.budget_bps).pace_until(self.allowance_bytes, skipped);
        let (budget_bps, gate_by_cwnd) = match (&self.config.app, self.cc.as_ref()) {
            (AppModel::ConstantRate(r), _) => (*r, false),
            (AppModel::Bulk, Some(cc)) => (cc.pacing_rate_bps(), true),
            (AppModel::Bulk, None) => (12e6, false),
        };
        let pacing = Pacing::at(budget_bps);
        self.allowance_bytes = pacing.step(allowance);
        self.budget_bps = budget_bps;
        self.paced_to = t + 1;
        (pacing, gate_by_cwnd)
    }
}

/// Steps 0–2: the servers, and the one packet table (packet id → owner,
/// release time, ECN mark) of everything they released that has been neither
/// delivered nor dropped.
///
/// A flow is visited only at the subframes where something can happen to
/// it, its *wake*: the arrival of the front of its news (an ACK or a loss
/// report, rounded up to a whole subframe), a near-source signal, its first
/// active subframe, the subframe after a visit that released a packet, and
/// otherwise the subframe at which its allowance reaches one MSS (never, if
/// the window blocks it).  Steps 1 and 2 each visit the due flows in index
/// order.  This is byte-exact.  A visit does what the old every-subframe
/// poll did, and a skipped subframe would have changed nothing but the
/// allowance: the flow had no news, and either its allowance stayed under
/// one MSS or its window stayed shut, since only news changes its in-flight
/// bytes and only a `&mut` controller call changes its window.  The skipped
/// adds are applied at the next visit, one subframe at a time, at the budget
/// read at the last visit.  That is the budget every skipped subframe would
/// have read: the getters change only in `&mut` calls (the state contract on
/// [`CongestionControl`]), and a visit after which `on_packet_sent` ran, the
/// one `&mut` call that can follow the read, is due again next subframe.
struct Senders {
    flows: Vec<Sender>,
    /// Each flow's wake subframe.
    wake: Vec<u64>,
    /// Scratch: the flows due this subframe, in index order.
    due: Vec<usize>,
    packets: FxHashMap<u64, Packet>,
    next_packet_id: u64,
}

impl Senders {
    fn new(flows: Vec<Sender>) -> Self {
        Senders {
            wake: flows.iter().map(|f| f.first_ms).collect(),
            due: Vec::with_capacity(flows.len()),
            flows,
            packets: FxHashMap::default(),
            next_packet_id: 1,
        }
    }

    /// Flow `idx` got news: wake it when the front of its news arrives.
    fn note_news(&mut self, idx: usize) {
        self.wake[idx] = self.wake[idx].min(self.flows[idx].news_wake());
    }

    fn tick(&mut self, now: Instant, wire: &mut Wire, sink: &mut Sink) {
        let t = now.as_millis();
        // 0. Near-source congestion signals reach their senders (they
        //    undercut the ACK clock, so they are delivered first).
        while let Some((idx, signal)) = wire.signal_due(now) {
            if let Some(cc) = self.flows[idx].cc.as_mut() {
                cc.on_signal(now, &signal);
            }
            self.wake[idx] = t;
        }
        self.due.clear();
        let due = self.wake.iter().enumerate().filter(|&(_, &w)| w <= t);
        self.due.extend(due.map(|(idx, _)| idx));
        // 1. ACKs and loss reports.
        for &idx in &self.due {
            self.flows[idx].take_feedback(now, sink);
        }
        // 2. Senders release packets under pacing + cwnd control.
        for &idx in &self.due {
            let flow = &mut self.flows[idx];
            if t < flow.first_ms || t >= flow.stop_ms {
                let start = if t < flow.first_ms {
                    flow.first_ms
                } else {
                    u64::MAX
                };
                self.wake[idx] = start.min(flow.news_wake());
                continue;
            }
            let (pacing, gate_by_cwnd) = flow.pace(t);
            let (mut released, mut blocked) = (false, false);
            while flow.allowance_bytes >= MSS_BYTES as f64 {
                if gate_by_cwnd {
                    let cwnd = flow.cc.as_ref().map(|c| c.cwnd_bytes()).unwrap_or(u64::MAX);
                    if flow.inflight_bytes + MSS_BYTES > cwnd {
                        blocked = true;
                        break;
                    }
                }
                released = true;
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
            let news = flow.news_wake();
            self.wake[idx] = match (released, blocked) {
                (true, _) => t + 1,
                (false, true) => news,
                // Up to the news or the stop: the visit at the news steps
                // on from there.
                (false, false) => {
                    let limit = news.min(flow.stop_ms).saturating_sub(t + 1);
                    let wake = pacing.subframes_to_mss(flow.allowance_bytes, limit);
                    wake.map_or(news, |k| t + k)
                }
            };
        }
    }
}

/// Step 3: the wire from the servers to the base stations — the only stage
/// that knows which wired model is in use — and the near-source signals its
/// marks send back towards the senders.
struct Wire {
    /// Each flow's private path (unused when a backhaul is shared).
    paths: Vec<WiredPath>,
    /// Scratch: the packets one private path delivers this subframe.
    arrived: Vec<WiredPacket>,
    /// The shared link DAG, stepped by the driver loop outside the RAN tick.
    backhaul: Option<Backhaul>,
    report: BackhaulTickReport,
    /// The cell each flow's packets route towards (updated on handover).
    serving_cell: Vec<CellId>,
    /// Signals in flight, keyed by (delivery time, mark sequence) so their
    /// delivery order is deterministic: at most one run per distinct
    /// (server delay, upstream propagation) pair (see [`MonotoneRuns`]).
    signals: MonotoneRuns<(usize, CongestionSignal)>,
    signal_seq: u64,
}

impl Wire {
    fn new(cfg: &SimConfig, serving_cell: Vec<CellId>, flaps: &[LinkFlap]) -> Self {
        let mut backhaul = cfg.backhaul.clone().map(Backhaul::new);
        if let Some(backhaul) = backhaul.as_mut() {
            backhaul.set_flaps(flaps);
        }
        let paths = cfg.flows.iter().map(|f| {
            let d = f.server_one_way_delay;
            match f.wired_bottleneck_bps {
                None => WiredPath::unconstrained(d),
                Some(rate) => WiredPath::with_bottleneck(d, rate, f.wired_queue_bytes),
            }
        });
        Wire {
            paths: paths.collect(),
            arrived: Vec::new(),
            backhaul,
            report: BackhaulTickReport::default(),
            serving_cell,
            signals: MonotoneRuns::default(),
            signal_seq: 0,
        }
    }

    /// The next near-source signal due at its sender by `now`.
    fn signal_due(&mut self, now: Instant) -> Option<(usize, CongestionSignal)> {
        self.signals.pop_due(now).map(|(_, signal)| signal)
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
                path.drain_arrivals(now, &mut self.arrived);
                for pkt in self.arrived.drain(..) {
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
                self.signals.push((at, self.signal_seq), (m.flow, signal));
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
            senders.note_news(d.flow);
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
    net: ShardedNetwork,
    report: NetworkTickReport,
    batcher: DciBatcher,
    /// The flows whose receiver has an agent, in index order: the only ones
    /// the control channels are narrated to.
    listeners: Vec<usize>,
}

impl Ran {
    fn total_prbs(&self, cell: CellId) -> u16 {
        let cell = self
            .net
            .config()
            .cell(cell)
            .expect("validated: a known cell");
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
                if let Some(agent) = r.agent.as_mut() {
                    agent.on_carrier_event(&event, total_prbs);
                }
            }
        }
        let gap = self.net.config().handover.reacquisition_gap_ms;
        for event in &report.handovers {
            let (at, ue, from, to) = (event.at, event.ue, event.from, event.to);
            sink.emit(SimEvent::Handover { at, ue, from, to });
            let total_prbs = self.total_prbs(to);
            for (idx, r) in receivers.iter_mut().enumerate() {
                if r.config.ue == event.ue {
                    if let Some(agent) = r.agent.as_mut() {
                        agent.on_handover(event, total_prbs, gap);
                    }
                    // Its packets now route through the target's backhaul.
                    wire.serving_cell[idx] = event.to;
                }
            }
        }
        let subframe = now.subframe_index();
        let batch = self.batcher.batch(subframe, &report.dci_messages);
        for &idx in &self.listeners {
            if let Some(agent) = receivers[idx].agent.as_mut() {
                agent.on_subframe(&batch);
                // Keep receiver-side averaging windows matched to the flow RTT.
                agent.set_rtprop_ms(senders[idx].srtt.as_millis_f64());
            }
        }
    }
}

/// The receiving half of one flow: its agent on the mobile device, if its
/// scheme registers one.
struct Receiver {
    config: FlowConfig,
    agent: Option<Box<dyn ReceiverAgent>>,
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
        let pbe = self
            .agent
            .as_mut()
            .and_then(|a| a.on_packet(at, one_way.as_millis_f64()));
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

/// The radio access network of `cfg`, each UE built once from its final
/// per-cell traces.  An override replaces the trace towards the first
/// configured position of its cell, and the last override of a pair wins.
fn build_network(cfg: &SimConfig) -> ShardedNetwork {
    let mut net = ShardedNetwork::new(cfg.cellular.clone(), cfg.load, cfg.seed, 1);
    let overrides: FxHashMap<(UeId, CellId), &MobilityTrace> = cfg
        .trajectories
        .iter()
        .map(|t| ((t.ue, t.cell), &t.trace))
        .collect();
    let rows = cfg.ues.iter().map(|(u, _)| u.configured_cells.len()).sum();
    net.reserve(cfg.ues.len(), rows);
    for (ue_cfg, trace) in &cfg.ues {
        let cells = &ue_cfg.configured_cells;
        // An override applies to the first position of its cell.
        let own_trace = |i: usize| {
            let own = overrides.get(&(ue_cfg.id, cells[i])).copied();
            own.filter(|_| !cells[..i].contains(&cells[i]))
        };
        net.add_ue_with_traces(ue_cfg.clone(), trace, own_trace);
    }
    net
}

/// The simulation driver.
pub struct Simulation {
    config: SimConfig,
    pub(crate) table: SchemeTable,
    pub(crate) observers: Vec<Box<dyn Observer>>,
}

impl Simulation {
    /// Create a simulation from its configuration, with the standard scheme
    /// table and no external observers (add either through
    /// [`SimBuilder`](crate::builder::SimBuilder)).
    pub fn new(config: SimConfig) -> Self {
        Simulation {
            config,
            table: SchemeTable::standard(),
            observers: Vec::new(),
        }
    }

    /// The first rule of [`ConfigError`] the configuration breaks.  Schemes
    /// are looked up in this simulation's own table, so those registered
    /// through [`SimBuilder`](crate::builder::SimBuilder) count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.config.check(&self.table)
    }

    /// Run the simulation to completion and produce the per-flow results.
    ///
    /// # Panics
    ///
    /// With its message, if [`Simulation::validate`] returns an error.
    #[deny(clippy::too_many_lines)]
    pub fn run(&mut self) -> SimResult {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let (cfg, table) = (&self.config, &self.table);
        let primary_cell = cfg.cellular.cells.first().map_or(CellId(0), |c| c.id);
        let metrics = MetricsCollector::new(&cfg.flows, primary_cell);
        // The sink holds the observers for the run and hands them back after.
        let observers = std::mem::take(&mut self.observers);
        let mut sink = Sink { metrics, observers };
        let faults = FaultDriver {
            schedule: cfg.faults.clone().unwrap_or_default(),
        };

        let mut ran = Ran {
            net: build_network(cfg),
            report: NetworkTickReport::default(),
            batcher: DciBatcher::new(),
            listeners: Vec::new(),
        };

        // Each flow's two halves.  Congestion controller and receiver agent
        // both come from the scheme table — the engine knows no scheme by
        // name.  The receiver first watches the primary cell of the flow's
        // UE, which is also where its packets first route.
        let decoder_rng = DetRng::new(cfg.seed).split("decoders");
        let (mut flows, mut receivers, mut primary) = (Vec::new(), Vec::new(), Vec::new());
        for f in &cfg.flows {
            let cell = ran.net.serving_cell(f.ue).expect("validated: a known UE");
            primary.push(cell);
            let rtprop_hint =
                Duration::from_micros(2 * f.server_one_way_delay.as_micros() + 10_000);
            let scheme = f.scheme.id();
            let seed = cfg.seed;
            let first_ms = subframe_from(f.start);
            flows.push(Sender {
                config: f.clone(),
                cc: table.build_cc(&scheme, &SchemeCtx { rtprop_hint, seed }),
                allowance_bytes: 0.0,
                budget_bps: 0.0,
                paced_to: first_ms,
                first_ms,
                stop_ms: subframe_from(f.stop),
                inflight_bytes: 0,
                rate_est: DeliveryRateEstimator::new(rtprop_hint),
                srtt: rtprop_hint,
                pending: VecDeque::new(),
            });
            let agent = table.build_receiver(&scheme, || ReceiverCtx {
                flow: f.id,
                rnti: ran.net.rnti_of(f.ue).expect("validated: a known UE"),
                cells: vec![(cell, ran.total_prbs(cell))],
                rng: decoder_rng.clone(),
            });
            receivers.push(Receiver {
                config: f.clone(),
                agent,
                last_internet_flag: false,
            });
        }
        let agents = receivers
            .iter()
            .enumerate()
            .filter(|(_, r)| r.agent.is_some());
        ran.listeners = agents.map(|(idx, _)| idx).collect();
        let mut senders = Senders::new(flows);
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
                    senders.note_news(packet.flow);
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
    use crate::backhaul::{BackhaulConfig, BackhaulLinkSpec};
    use crate::config::CellTrajectory;
    use crate::faults::{CellOutage, DecodeLossBurst};
    use crate::flow::SchemeChoice;
    use pbe_cc_algorithms::api::SchemeName;
    use pbe_cellular::config::{CellularConfig, UeConfig};
    use pbe_cellular::traffic::CellLoadProfile;

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
            ..SimConfig::default()
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

    /// FNV-128 of the `SimResult` JSON of `cfg`.  The `*_across_shard_counts`
    /// tests are named for the shard counts they once compared; each pins
    /// the constant every count matched, captured from the serial tick
    /// engine at the commit before it was deleted.
    fn result_digest(cfg: &SimConfig) -> String {
        let json = serde_json::to_string(&Simulation::new(cfg.clone()).run()).unwrap();
        pbe_stats::fnv1a_128_hex(json.as_bytes())
    }

    #[test]
    fn simulation_is_byte_identical_across_shard_counts() {
        // A whole simulation (flows, metrics, CA on the 3-cell default
        // network) serialises to the serial engine's bytes.
        let cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_secs(2),
            CellLoadProfile::busy(),
            13,
        );
        assert_eq!(result_digest(&cfg), "4f35125cee6d016f0b5ff89e293acb1f");
    }

    #[test]
    fn a_shard_count_is_accepted_and_ignored() {
        let cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(500),
            CellLoadProfile::busy(),
            13,
        );
        let sharded = SimConfig {
            shards: Some(3),
            ..cfg.clone()
        };
        assert_eq!(result_digest(&sharded), result_digest(&cfg));
    }

    /// A config whose one trajectory override is `(ue, cell)`.
    fn with_trajectory(ue: u32, cell: u16) -> SimConfig {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(10),
            CellLoadProfile::none(),
            1,
        );
        cfg.trajectories = vec![CellTrajectory {
            ue: UeId(ue),
            cell: CellId(cell),
            trace: MobilityTrace::stationary(-90.0),
        }];
        cfg
    }

    #[test]
    fn a_repeated_ue_id_is_rejected() {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(10),
            CellLoadProfile::none(),
            1,
        );
        let mut twin = cfg.ues[0].clone();
        twin.0.configured_cells = vec![CellId(1)];
        cfg.ues.push(twin);
        assert_eq!(
            Simulation::new(cfg).validate(),
            Err(ConfigError::DuplicateUe(UeId(1)))
        );
    }

    #[test]
    #[should_panic(expected = "invalid configuration: DuplicateUe(UeId(1))")]
    fn run_panics_with_the_config_errors_message() {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(10),
            CellLoadProfile::none(),
            1,
        );
        cfg.ues.push(cfg.ues[0].clone());
        Simulation::new(cfg).run();
    }

    #[test]
    fn a_trajectory_towards_an_unconfigured_cell_is_rejected() {
        assert_eq!(
            Simulation::new(with_trajectory(1, 7)).validate(),
            Err(ConfigError::UnclaimedTrajectory(UeId(1), CellId(7)))
        );
    }

    #[test]
    fn a_trajectory_of_an_unknown_ue_is_rejected() {
        assert_eq!(
            Simulation::new(with_trajectory(9, 0)).validate(),
            Err(ConfigError::UnclaimedTrajectory(UeId(9), CellId(0)))
        );
    }

    /// A 10 ms single-flow run on the default three cells (0–2), flow 1,
    /// with one fault.
    fn with_fault(add: impl FnOnce(&mut FaultSchedule)) -> SimConfig {
        let mut cfg = SimConfig::single_flow(
            SchemeChoice::Pbe,
            Duration::from_millis(10),
            CellLoadProfile::none(),
            1,
        );
        let mut schedule = FaultSchedule::none();
        add(&mut schedule);
        cfg.faults = Some(schedule);
        cfg
    }

    #[test]
    fn an_outage_of_an_unconfigured_cell_is_rejected() {
        let cfg = with_fault(|s| {
            s.cell_outages.push(CellOutage {
                cell: CellId(7),
                start_ms: 2,
                end_ms: 5,
            })
        });
        assert_eq!(
            Simulation::new(cfg).validate(),
            Err(ConfigError::UnknownOutageCell(CellId(7)))
        );
    }

    #[test]
    fn a_decode_loss_burst_of_an_unknown_flow_is_rejected() {
        let cfg = with_fault(|s| {
            s.decode_loss.push(DecodeLossBurst {
                flow: 9,
                start_ms: 2,
                end_ms: 5,
            })
        });
        assert_eq!(
            Simulation::new(cfg).validate(),
            Err(ConfigError::UnknownDecodeLossFlow(9))
        );
    }

    #[test]
    fn backhaul_simulation_is_byte_identical_across_shard_counts() {
        // The backhaul's arrivals — and everything downstream of them —
        // serialise to the serial engine's bytes, across seeds.
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
            assert_eq!(result_digest(&cfg), digest, "seed {seed}");
        }
    }

    #[test]
    fn faulted_simulation_is_byte_identical_across_shard_counts() {
        // Fault injection is config/time-derived, so a faulted run — a cell
        // outage with RLF re-selection, a drained link flap and a
        // decode-loss burst — serialises to the serial engine's bytes.
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
            assert_eq!(result_digest(&cfg), digest, "seed {seed}");
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
        assert_eq!(
            Simulation::new(cfg).validate(),
            Err(ConfigError::PrivateBottleneck(1))
        );
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
            assert_eq!(result_digest(&cfg), digest, "{name}");
        }
    }

    /// Three flows whose server delays (5, 20 and 48 ms) interleave their
    /// ingress times on the shared marking aggregation link, so the
    /// backhaul's ingress order and the signals' delivery order are merges
    /// of several time-ordered streams.  Flow 2's UE hands over from cell 0
    /// to cell 1, re-routing mid-run, and the `agg` link flaps (drain) for
    /// 120 ms.
    fn heterogeneous_delays() -> SimConfig {
        use crate::faults::{FlapPolicy, LinkFlap};
        let duration = Duration::from_secs(3);
        let schemes = [
            SchemeChoice::named("SFC"),
            SchemeChoice::Baseline(SchemeName::Cubic),
            SchemeChoice::Pbe,
        ];
        let mut ues = Vec::new();
        let mut flows = Vec::new();
        for (i, (scheme, delay_ms)) in schemes.into_iter().zip([5, 20, 48]).enumerate() {
            let ue = UeId(i as u32 + 1);
            ues.push((
                UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -88.0),
                MobilityTrace::stationary(-88.0),
            ));
            flows.push(
                FlowConfig::bulk(i as u32 + 1, ue, scheme, duration)
                    .with_one_way_delay(Duration::from_millis(delay_ms)),
            );
        }
        let walker = UeId(2);
        SimConfig {
            load: CellLoadProfile::busy(),
            seed: 17,
            duration,
            ues,
            flows,
            trajectories: vec![
                CellTrajectory {
                    ue: walker,
                    cell: CellId(0),
                    trace: MobilityTrace::from_secs(&[(0.0, -85.0), (2.0, -110.0)]),
                },
                CellTrajectory {
                    ue: walker,
                    cell: CellId(1),
                    trace: MobilityTrace::from_secs(&[(0.0, -110.0), (2.0, -85.0)]),
                },
            ],
            backhaul: Some(marking_aggregation(30e6, 120_000, 30_000)),
            faults: Some(FaultSchedule {
                link_flaps: vec![LinkFlap {
                    link: "agg".to_string(),
                    start_ms: 2_300,
                    end_ms: 2_420,
                    policy: FlapPolicy::Drain,
                }],
                ..FaultSchedule::none()
            }),
            ..SimConfig::default()
        }
    }

    #[test]
    fn heterogeneous_server_delays_cross_the_backhaul_byte_identically() {
        // The digest was captured before the backhaul's ingress, delivery
        // and signal orderings moved from heaps and an ordered map to
        // monotone runs; every single-flow pin above has one server delay,
        // so only this one merges several ingress streams.
        let cfg = heterogeneous_delays();
        let counts = branch_counts(cfg.clone());
        assert!(counts.backhaul_marks > 0, "{counts:?}");
        let result = Simulation::new(cfg.clone()).run();
        assert!(
            result.handovers.iter().any(|h| h.ue == UeId(2)),
            "the walker handed over"
        );
        assert_eq!(result.fault_recovery.len(), 1, "the flap closed");
        assert_eq!(result_digest(&cfg), "5235913b80e803d68b69f24363d3803d");
    }

    /// Four UEs on private wired paths, each flow on one edge of the
    /// senders' visit rule: a CUBIC flow whose lifetime starts and stops
    /// between whole milliseconds behind a bottleneck small enough to refuse
    /// sends, a constant-rate app without a controller, one under BBR, and a
    /// bulk flow without a controller (paced at the fixed 12 Mbit/s).
    fn uneven_private_flows() -> SimConfig {
        let duration = Duration::from_secs(3);
        let mut ues = Vec::new();
        for i in 1..=4 {
            ues.push((
                UeConfig::new(UeId(i), vec![CellId(0), CellId(1)], 2, -88.0),
                MobilityTrace::stationary(-88.0),
            ));
        }
        let bulk = |id: u32, scheme| FlowConfig::bulk(id, UeId(id), scheme, duration);
        let at = Instant::from_micros;
        let constant = |flow: FlowConfig, rate| FlowConfig {
            app: AppModel::ConstantRate(rate),
            ..flow
        };
        SimConfig {
            load: CellLoadProfile::busy(),
            seed: 19,
            duration,
            ues,
            flows: vec![
                bulk(1, SchemeChoice::Baseline(SchemeName::Cubic))
                    .with_lifetime(at(2_500), at(1_200_700))
                    .with_wired_bottleneck(6e6, 20_000),
                constant(bulk(2, SchemeChoice::FixedRate), 6e6)
                    .with_lifetime(at(700_300), at(2_500_900)),
                constant(bulk(3, SchemeChoice::Baseline(SchemeName::Bbr)), 3e6)
                    .with_lifetime(at(300), at(2_999_999)),
                bulk(4, SchemeChoice::FixedRate).with_lifetime(at(1_000_400), at(2_400_000)),
            ],
            ..SimConfig::default()
        }
    }

    /// SFC, CUBIC and PBE behind a marking aggregation link, so near-source
    /// signals reach the senders; two lifetimes fall between whole
    /// milliseconds.
    fn signalled_mix() -> SimConfig {
        let duration = Duration::from_secs(2);
        let schemes = [
            SchemeChoice::named("SFC"),
            SchemeChoice::Baseline(SchemeName::Cubic),
            SchemeChoice::Pbe,
        ];
        let mut ues = Vec::new();
        let mut flows = Vec::new();
        for (i, scheme) in schemes.into_iter().enumerate() {
            let ue = UeId(i as u32 + 1);
            ues.push((
                UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -86.0),
                MobilityTrace::stationary(-86.0),
            ));
            flows.push(FlowConfig::bulk(i as u32 + 1, ue, scheme, duration));
        }
        flows[0] = flows[0]
            .clone()
            .with_lifetime(Instant::from_micros(2_500), Instant::from_micros(1_900_300));
        flows[1] = flows[1].clone().with_lifetime(
            Instant::from_micros(100_700),
            Instant::from_micros(1_200_700),
        );
        SimConfig {
            load: CellLoadProfile::busy(),
            seed: 23,
            duration,
            ues,
            flows,
            backhaul: Some(marking_aggregation(12e6, 60_000, 15_000)),
            ..SimConfig::default()
        }
    }

    #[test]
    fn uneven_lifetimes_and_unpaced_apps_are_byte_identical() {
        // Digests captured before the senders visited only their due flows.
        for cfg in [uneven_private_flows(), signalled_mix()] {
            let result = Simulation::new(cfg).run();
            for f in &result.flows {
                assert!(f.packets_delivered > 0, "flow {} delivered nothing", f.id);
            }
        }
        let private = uneven_private_flows();
        let counts = branch_counts(private.clone());
        assert!(counts.wired_drops > 0, "{counts:?}");
        assert_eq!(result_digest(&private), "92673dbcffea9787341b61be59cdade4");
        let signalled = signalled_mix();
        let counts = branch_counts(signalled.clone());
        assert!(counts.backhaul_marks > 0, "{counts:?}");
        assert_eq!(
            result_digest(&signalled),
            "3ea2ec3c943832a7a0c8491593bf35fb"
        );
    }

    proptest::proptest! {
        #[test]
        fn pacing_catch_up_is_single_subframe_stepping(
            (rate_kind, allowance_kind) in (0u8..7, 0u8..5),
            rate in 0.0f64..2e8,
            start in -3_000.0f64..20_000.0,
            k in 0u64..300,
        ) {
            let budget_bps = match rate_kind {
                0 => 0.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => rate * 1e-4,
                _ => rate,
            };
            let pacing = Pacing::at(budget_bps);
            let allowance = match allowance_kind {
                0 => pacing.burst,
                1 => f64::NAN,
                2 => -0.0,
                _ => start,
            };
            // The every-subframe poll: one add-then-`min` per subframe.
            let (mut reference, mut first_mss) = (allowance, None);
            for j in 1..=k {
                reference = (reference + budget_bps / 8.0 * 1e-3)
                    .min(budget_bps / 8.0 * 0.05 + 2.0 * MSS_BYTES as f64);
                if first_mss.is_none() && reference >= MSS_BYTES as f64 {
                    first_mss = Some(j);
                }
            }
            proptest::prop_assert_eq!(
                pacing.pace_until(allowance, k).to_bits(),
                reference.to_bits(),
                "budget {} allowance {} k {}", budget_bps, allowance, k
            );
            proptest::prop_assert_eq!(pacing.subframes_to_mss(allowance, k), first_mss);
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
