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

use crate::backhaul::{Backhaul, BackhaulConfig, BackhaulLinkResult, BackhaulTickReport};
use crate::faults::{FaultRecoveryRecord, FaultSchedule};
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
use pbe_cellular::network::NetworkTickReport;
use pbe_cellular::shard::ShardedNetwork;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_core::receiver::{ReceiverAgent, ReceiverCtx};
use pbe_pdcch::batch::DciBatcher;
use pbe_stats::time::{Duration, Instant};
use pbe_stats::DetRng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

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

struct PendingEvent {
    arrive_at: Instant,
    packet_id: u64,
    bytes: u64,
    sent_at: Instant,
    one_way_delay_ms: f64,
    ecn_ce: bool,
    pbe: Option<PbeFeedback>,
    lost: bool,
}

/// A near-source congestion signal in flight towards one sender, ordered by
/// `(delivery time, mark sequence)` so signal delivery is deterministic.
struct SignalEntry {
    at: Instant,
    seq: u64,
    flow: usize,
    signal: CongestionSignal,
}

impl PartialEq for SignalEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for SignalEntry {}

impl PartialOrd for SignalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SignalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct FlowState<'a> {
    config: &'a FlowConfig,
    cc: Option<Box<dyn CongestionControl>>,
    receiver: Box<dyn ReceiverAgent>,
    /// Last bottleneck-state flag fed back, for `StateChanged` events.
    last_internet_flag: bool,
    downlink: WiredPath,
    allowance_bytes: f64,
    inflight_bytes: u64,
    sent_packets: HashMap<u64, (u64, Instant)>,
    rate_est: DeliveryRateEstimator,
    srtt: Duration,
    pending: VecDeque<PendingEvent>,
}

/// The simulation driver.
pub struct Simulation {
    config: SimConfig,
    table: SchemeTable,
    observers: Vec<Box<dyn Observer>>,
}

fn emit(observers: &mut [Box<dyn Observer>], metrics: &mut MetricsCollector, event: SimEvent<'_>) {
    metrics.on_event(&event);
    for o in observers.iter_mut() {
        o.on_event(&event);
    }
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
    pub fn run(&mut self) -> SimResult {
        // Split borrows: flow state borrows the configuration for the whole
        // run while the observer list stays mutably emittable.
        let Simulation {
            config: cfg,
            table,
            observers,
        } = self;
        let primary_cell = cfg
            .cellular
            .cells
            .first()
            .map(|c| c.id)
            .unwrap_or(CellId(0));
        let mut metrics = MetricsCollector::new(&cfg.flows, primary_cell);

        let shards = cfg.shards.or_else(forced_shards).unwrap_or(1);
        let mut net = ShardedNetwork::new(cfg.cellular.clone(), cfg.load, cfg.seed, shards);
        for (ue_cfg, trace) in &cfg.ues {
            net.add_ue(ue_cfg.clone(), trace.clone());
        }
        for t in &cfg.trajectories {
            net.set_cell_trace(t.ue, t.cell, t.trace.clone());
        }
        let decoder_rng = DetRng::new(cfg.seed).split("decoders");

        // Build per-flow state: congestion controller and receiver agent both
        // come from the scheme table — the engine knows no scheme by name.
        let mut flows: Vec<FlowState<'_>> = cfg
            .flows
            .iter()
            .map(|f| {
                let rtprop_hint =
                    Duration::from_micros(2 * f.server_one_way_delay.as_micros() + 10_000);
                let scheme = f.scheme.id();
                let cc = table.build_cc(
                    &scheme,
                    &SchemeCtx {
                        rtprop_hint,
                        seed: cfg.seed,
                    },
                );
                let rnti = net.rnti_of(f.ue).expect("flow UE registered");
                let primary = cfg
                    .ues
                    .iter()
                    .find(|(u, _)| u.id == f.ue)
                    .map(|(u, _)| u.primary_cell())
                    .expect("flow UE configured");
                let total_prbs = cfg
                    .cellular
                    .cell(primary)
                    .expect("primary cell exists")
                    .total_prbs();
                let receiver = table.build_receiver(
                    &scheme,
                    &ReceiverCtx {
                        flow: f.id,
                        rnti,
                        cells: vec![(primary, total_prbs)],
                        rng: decoder_rng.clone(),
                    },
                );
                let downlink = match f.wired_bottleneck_bps {
                    Some(rate) => WiredPath::with_bottleneck(
                        f.server_one_way_delay,
                        rate,
                        f.wired_queue_bytes,
                    ),
                    None => WiredPath::unconstrained(f.server_one_way_delay),
                };
                FlowState {
                    cc,
                    receiver,
                    last_internet_flag: false,
                    downlink,
                    allowance_bytes: 0.0,
                    inflight_bytes: 0,
                    sent_packets: HashMap::new(),
                    rate_est: DeliveryRateEstimator::new(rtprop_hint),
                    srtt: rtprop_hint,
                    pending: VecDeque::new(),
                    config: f,
                }
            })
            .collect();

        let mut packet_owner: HashMap<u64, usize> = HashMap::new();
        let mut next_packet_id: u64 = 1;

        // Shared-backhaul state: the link DAG itself, the cell each flow's
        // packets currently route towards (updated on handover), the ids of
        // ECN-marked packets awaiting their ACK echo, and the near-source
        // signals in flight back towards the senders.
        let mut backhaul = cfg.backhaul.clone().map(Backhaul::new);
        let mut bh_report = BackhaulTickReport::default();

        // Fault schedule: validated up front; link flaps install on the
        // backhaul, outage and decode-loss boundaries are applied by this
        // loop at their scheduled subframes.  Everything is keyed by
        // configuration and simulated time only, so a faulted run stays
        // byte-identical across shard counts.
        let faults = cfg.faults.clone().unwrap_or_default();
        if let Err(e) = faults.validate() {
            panic!("invalid fault schedule: {e}");
        }
        if !faults.link_flaps.is_empty() {
            let bh = backhaul
                .as_mut()
                .expect("link flaps require a backhaul topology");
            if let Err(e) = bh.set_flaps(&faults.link_flaps) {
                panic!("invalid fault schedule: {e}");
            }
        }
        let rlf_detection_ms = faults.rlf_detection();
        let mut serving_cell: Vec<CellId> = cfg
            .flows
            .iter()
            .map(|f| {
                cfg.ues
                    .iter()
                    .find(|(u, _)| u.id == f.ue)
                    .map(|(u, _)| u.primary_cell())
                    .expect("flow UE configured")
            })
            .collect();
        let mut marked: HashSet<u64> = HashSet::new();
        let mut signals: BinaryHeap<Reverse<SignalEntry>> = BinaryHeap::new();
        let mut signal_seq: u64 = 0;

        // One report, reused across every subframe: its buffers are cleared
        // and refilled in place, so the per-subframe loop stops allocating
        // once they reach their working size.
        let mut report = NetworkTickReport::default();
        // Likewise one DCI batcher: its per-cell run table is rebuilt in
        // place every subframe.
        let mut batcher = DciBatcher::new();
        let total_ms = cfg.duration.as_millis();
        for t_ms in 0..total_ms {
            let now = Instant::from_millis(t_ms);

            // 0a. Scheduled fault boundaries crossing this subframe.
            if !faults.is_empty() {
                for o in &faults.cell_outages {
                    if o.start_ms == t_ms {
                        let residents = net.set_cell_outage(o.cell, true);
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::FaultCellOutage {
                                cell: o.cell,
                                at: now,
                                down: true,
                                residents: &residents,
                            },
                        );
                    }
                    // Overlapping windows on one cell: the cell only comes
                    // back once no window covers this subframe.
                    if o.end_ms == t_ms && !faults.cell_is_down(o.cell, t_ms) {
                        net.set_cell_outage(o.cell, false);
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::FaultCellOutage {
                                cell: o.cell,
                                at: now,
                                down: false,
                                residents: &[],
                            },
                        );
                    }
                }
                for f in &faults.link_flaps {
                    // Behaviour lives in the backhaul (flaps were installed
                    // up front); the boundaries are narrated for observers
                    // and the recovery metrics.
                    if f.start_ms == t_ms {
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::FaultLinkFlap {
                                name: &f.link,
                                at: now,
                                down: true,
                            },
                        );
                    }
                    if f.end_ms == t_ms {
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::FaultLinkFlap {
                                name: &f.link,
                                at: now,
                                down: false,
                            },
                        );
                    }
                }
                for d in &faults.decode_loss {
                    if d.start_ms == t_ms {
                        for flow in flows.iter_mut() {
                            if flow.config.id == d.flow {
                                flow.receiver.on_decode_loss(d.end_ms);
                            }
                        }
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::FaultDecodeLoss {
                                flow: d.flow,
                                at: now,
                                until_ms: d.end_ms,
                            },
                        );
                    }
                }
            }

            // 0. Near-source congestion signals reach their senders (they
            //    undercut the ACK clock, so they are delivered first).
            while let Some(Reverse(head)) = signals.peek() {
                if head.at > now {
                    break;
                }
                let Reverse(entry) = signals.pop().expect("non-empty");
                if let Some(cc) = flows[entry.flow].cc.as_mut() {
                    cc.on_signal(now, &entry.signal);
                }
            }

            // 1. Deliver ACKs / loss notifications that have reached the
            //    sender, and let the congestion controller react.
            for flow in flows.iter_mut() {
                while let Some(front) = flow.pending.front() {
                    if front.arrive_at > now {
                        break;
                    }
                    let ev = flow.pending.pop_front().expect("non-empty");
                    flow.sent_packets.remove(&ev.packet_id);
                    flow.inflight_bytes = flow.inflight_bytes.saturating_sub(ev.bytes);
                    if ev.lost {
                        if let Some(cc) = flow.cc.as_mut() {
                            cc.on_loss(now);
                        }
                        continue;
                    }
                    let rtt = now.saturating_since(ev.sent_at);
                    flow.srtt = Duration::from_secs_f64(
                        flow.srtt.as_secs_f64() * 0.875 + rtt.as_secs_f64() * 0.125,
                    );
                    flow.rate_est.set_window(flow.srtt);
                    let delivery_rate = flow.rate_est.on_ack(now, ev.bytes);
                    let ack = AckInfo {
                        now,
                        packet_id: ev.packet_id,
                        bytes_acked: ev.bytes,
                        rtt,
                        one_way_delay_ms: ev.one_way_delay_ms,
                        delivery_rate_bps: delivery_rate,
                        inflight_bytes: flow.inflight_bytes,
                        loss_detected: false,
                        ecn_ce: ev.ecn_ce,
                        pbe: ev.pbe,
                    };
                    if let Some(cc) = flow.cc.as_mut() {
                        cc.on_ack(&ack);
                    }
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::AckProcessed {
                            flow: flow.config.id,
                            ack: &ack,
                        },
                    );
                }
            }

            // 2. Senders release packets under pacing + cwnd control.
            for (idx, flow) in flows.iter_mut().enumerate() {
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
                flow.allowance_bytes = flow
                    .allowance_bytes
                    .min(budget_bps / 8.0 * 0.05 + 2.0 * MSS_BYTES as f64);
                while flow.allowance_bytes >= MSS_BYTES as f64 {
                    if gate_by_cwnd {
                        let cwnd = flow.cc.as_ref().map(|c| c.cwnd_bytes()).unwrap_or(u64::MAX);
                        if flow.inflight_bytes + MSS_BYTES > cwnd {
                            break;
                        }
                    }
                    let id = next_packet_id;
                    next_packet_id += 1;
                    flow.allowance_bytes -= MSS_BYTES as f64;
                    if let Some(bh) = backhaul.as_mut() {
                        // Shared backhaul: routing (and any drop) resolves
                        // inside the link DAG at the packet's ingress time.
                        flow.sent_packets.insert(id, (MSS_BYTES, now));
                        flow.inflight_bytes += MSS_BYTES;
                        packet_owner.insert(id, idx);
                        if let Some(cc) = flow.cc.as_mut() {
                            cc.on_packet_sent(now, MSS_BYTES, flow.inflight_bytes);
                        }
                        bh.submit(
                            idx,
                            serving_cell[idx],
                            id,
                            MSS_BYTES as u32,
                            now + flow.config.server_one_way_delay,
                        );
                    } else if flow.downlink.send(id, MSS_BYTES as u32, now) {
                        flow.sent_packets.insert(id, (MSS_BYTES, now));
                        flow.inflight_bytes += MSS_BYTES;
                        packet_owner.insert(id, idx);
                        if let Some(cc) = flow.cc.as_mut() {
                            cc.on_packet_sent(now, MSS_BYTES, flow.inflight_bytes);
                        }
                    } else {
                        // Dropped at the wired bottleneck queue: the sender
                        // learns about it roughly one RTT later.
                        let notify = now + flow.srtt;
                        flow.pending.push_back(PendingEvent {
                            arrive_at: notify,
                            packet_id: id,
                            bytes: 0,
                            sent_at: now,
                            one_way_delay_ms: 0.0,
                            ecn_ce: false,
                            pbe: None,
                            lost: true,
                        });
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::PacketDelivered {
                                flow: flow.config.id,
                                at: now,
                                bytes: MSS_BYTES,
                                one_way: Duration::ZERO,
                                delivered: false,
                                wired_drop: true,
                            },
                        );
                    }
                }
            }

            // 3. Wired arrivals reach the base stations — through the
            //    shared backhaul DAG when one is configured, through each
            //    flow's private path otherwise.
            if let Some(bh) = backhaul.as_mut() {
                bh.tick(now, &mut bh_report);
                for m in &bh_report.marks {
                    marked.insert(m.packet_id);
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::BackhaulMark {
                            flow: flows[m.flow].config.id,
                            link: m.link,
                            name: &bh.config().links[m.link].name,
                            at: m.at,
                            queued_bytes: m.queued_bytes,
                        },
                    );
                    if m.first_on_path {
                        // The signal travels back upstream: it reaches the
                        // sender after the server-side delay plus the
                        // propagation of the links before the marking one.
                        let delay = flows[m.flow].config.server_one_way_delay + m.upstream_delay;
                        signals.push(Reverse(SignalEntry {
                            at: m.at + delay,
                            seq: signal_seq,
                            flow: m.flow,
                            signal: CongestionSignal {
                                at: m.at,
                                link_rate_bps: m.link_rate_bps,
                                queue_bytes: m.queued_bytes,
                                queue_delay: m.queue_delay,
                            },
                        }));
                        signal_seq += 1;
                    }
                }
                for d in &bh_report.drops {
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::BackhaulDrop {
                            flow: flows[d.flow].config.id,
                            link: d.link,
                            name: &bh.config().links[d.link].name,
                            at: d.at,
                            queued_bytes: d.queued_bytes,
                        },
                    );
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::PacketDelivered {
                            flow: flows[d.flow].config.id,
                            at: now,
                            bytes: d.bytes,
                            one_way: Duration::ZERO,
                            delivered: false,
                            wired_drop: true,
                        },
                    );
                    packet_owner.remove(&d.packet_id);
                    marked.remove(&d.packet_id);
                    // Unlike the synchronous per-flow wired drop, the packet
                    // was charged to the congestion window when it was
                    // submitted, so the loss notification must return its
                    // bytes to the in-flight account.
                    let flow = &mut flows[d.flow];
                    let notify = now + flow.srtt;
                    flow.pending.push_back(PendingEvent {
                        arrive_at: notify,
                        packet_id: d.packet_id,
                        bytes: d.bytes,
                        sent_at: now,
                        one_way_delay_ms: 0.0,
                        ecn_ce: false,
                        pbe: None,
                        lost: true,
                    });
                }
                for d in &bh_report.deliveries {
                    net.enqueue_packet(flows[d.flow].config.ue, d.packet_id, d.bytes, now);
                }
                let occupancy = bh.occupancy();
                emit(
                    observers,
                    &mut metrics,
                    SimEvent::BackhaulSampled {
                        now,
                        queued_bytes: occupancy,
                    },
                );
            } else {
                for flow in flows.iter_mut() {
                    for pkt in flow.downlink.arrivals(now) {
                        net.enqueue_packet(flow.config.ue, pkt.id, pkt.bytes, now);
                    }
                }
            }

            // 4. The radio access network advances one subframe.
            net.tick_into(now, &mut report);

            // 4b. Radio-link failure: residents of a cell that has been dark
            //     for the detection delay abandon it through the ordinary
            //     handover machinery.  The resulting events join the report
            //     before it is narrated, so receiver re-targeting, backhaul
            //     re-routing and metrics all see them like any A3 handover.
            for o in &faults.cell_outages {
                if t_ms == o.start_ms + rlf_detection_ms && faults.cell_is_down(o.cell, t_ms) {
                    let outcome = net.declare_rlf(o.cell, now, &mut report.deliveries);
                    let reconnected: Vec<(UeId, CellId)> =
                        outcome.events.iter().map(|e| (e.ue, e.to)).collect();
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::FaultRlf {
                            cell: o.cell,
                            at: now,
                            reconnected: &reconnected,
                            stranded_ues: &outcome.stayed,
                            stranded_packets: outcome.stranded_packets,
                        },
                    );
                    report.handovers.extend(outcome.events);
                }
            }
            emit(
                observers,
                &mut metrics,
                SimEvent::SubframeScheduled {
                    now,
                    report: &report,
                },
            );
            for event in &report.ca_events {
                emit(
                    observers,
                    &mut metrics,
                    SimEvent::CaTriggered { event: *event },
                );
            }
            for event in &report.handovers {
                emit(
                    observers,
                    &mut metrics,
                    SimEvent::Handover {
                        at: event.at,
                        ue: event.ue,
                        from: event.from,
                        to: event.to,
                    },
                );
            }

            // 5. Carrier and handover events reach the receiver agents of
            //    affected flows.
            for event in &report.ca_events {
                let total_prbs = cfg
                    .cellular
                    .cell(event.cell)
                    .map(|c| c.total_prbs())
                    .unwrap_or(50);
                for flow in flows.iter_mut() {
                    if flow.config.ue == event.ue {
                        flow.receiver.on_carrier_event(event, total_prbs);
                    }
                }
            }
            for event in &report.handovers {
                let total_prbs = cfg
                    .cellular
                    .cell(event.to)
                    .map(|c| c.total_prbs())
                    .unwrap_or(50);
                let gap = cfg.cellular.handover.reacquisition_gap_ms;
                for (idx, flow) in flows.iter_mut().enumerate() {
                    if flow.config.ue == event.ue {
                        flow.receiver.on_handover(event, total_prbs, gap);
                        // Packets the flow sends from now on route through
                        // the target cell's backhaul path.
                        serving_cell[idx] = event.to;
                    }
                }
            }

            // 6. Receiver agents observe this subframe's control channels.
            //    The stream is grouped by cell once, so every agent hands its
            //    per-cell decoders pre-sliced message runs instead of each
            //    decoder re-scanning the whole network's DCI traffic.
            let subframe = now.subframe_index();
            let batch = batcher.batch(subframe, &report.dci_messages);
            for flow in flows.iter_mut() {
                flow.receiver.on_subframe(&batch);
                // Keep receiver-side averaging windows matched to the flow RTT.
                flow.receiver.set_rtprop_ms(flow.srtt.as_millis_f64());
            }

            // 7. Packet deliveries at the UEs generate acknowledgements.
            for d in &report.deliveries {
                let Some(&owner) = packet_owner.get(&d.packet_id) else {
                    continue;
                };
                let flow = &mut flows[owner];
                let Some(&(bytes, sent_at)) = flow.sent_packets.get(&d.packet_id) else {
                    continue;
                };
                packet_owner.remove(&d.packet_id);
                let one_way = d.at.saturating_since(sent_at);
                let ack_at = d.at + flow.config.server_one_way_delay;
                let ecn_ce = marked.remove(&d.packet_id);
                if d.delivered {
                    let pbe = flow.receiver.on_packet(d.at, one_way.as_millis_f64());
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::PacketDelivered {
                            flow: flow.config.id,
                            at: d.at,
                            bytes,
                            one_way,
                            delivered: true,
                            wired_drop: false,
                        },
                    );
                    if let Some(feedback) = pbe {
                        emit(
                            observers,
                            &mut metrics,
                            SimEvent::CapacityEstimated {
                                flow: flow.config.id,
                                at: d.at,
                                feedback,
                            },
                        );
                        if feedback.internet_bottleneck != flow.last_internet_flag {
                            flow.last_internet_flag = feedback.internet_bottleneck;
                            emit(
                                observers,
                                &mut metrics,
                                SimEvent::StateChanged {
                                    flow: flow.config.id,
                                    at: d.at,
                                    internet_bottleneck: feedback.internet_bottleneck,
                                },
                            );
                        }
                    }
                    flow.pending.push_back(PendingEvent {
                        arrive_at: ack_at,
                        packet_id: d.packet_id,
                        bytes,
                        sent_at,
                        one_way_delay_ms: one_way.as_millis_f64(),
                        ecn_ce,
                        pbe,
                        lost: false,
                    });
                } else {
                    emit(
                        observers,
                        &mut metrics,
                        SimEvent::PacketDelivered {
                            flow: flow.config.id,
                            at: d.at,
                            bytes,
                            one_way,
                            delivered: false,
                            wired_drop: false,
                        },
                    );
                    flow.pending.push_back(PendingEvent {
                        arrive_at: ack_at,
                        packet_id: d.packet_id,
                        bytes,
                        sent_at,
                        one_way_delay_ms: one_way.as_millis_f64(),
                        ecn_ce: false,
                        pbe: None,
                        lost: true,
                    });
                }
            }
        }

        // Finalise the backhaul links through the event stream.
        if let Some(bh) = backhaul.as_ref() {
            for (link, summary) in bh.link_summaries().iter().enumerate() {
                emit(
                    observers,
                    &mut metrics,
                    SimEvent::BackhaulLinkClosed {
                        link,
                        name: &summary.name,
                        rate_bps: summary.rate_bps,
                        stats: summary.stats,
                        max_queued_bytes: summary.max_queued_bytes,
                        p50_queue_delay_ms: summary.p50_queue_delay_ms,
                        p95_queue_delay_ms: summary.p95_queue_delay_ms,
                    },
                );
            }
        }

        // Finalise per-flow results through the event stream.
        for flow in flows.iter() {
            emit(
                observers,
                &mut metrics,
                SimEvent::FlowClosed {
                    flow: flow.config.id,
                    internet_bottleneck_fraction: flow
                        .cc
                        .as_ref()
                        .map(|cc| cc.internet_bottleneck_fraction())
                        .unwrap_or(0.0),
                    carrier_aggregation_triggered: net
                        .carrier_aggregation_triggered(flow.config.ue),
                },
            );
        }
        metrics.finish()
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
