//! Spans and the timing proxies of the traced run.
//!
//! The program under test carries no instrumentation, so the spans are
//! recorded here, at the calls *into* each layer: a proxy congestion
//! controller wraps every registry scheme, a proxy receiver agent wraps the
//! PBE pipeline, and an observer counts the engine's events.  A per-call
//! span would cost more than the nanosecond-scale calls it describes, so
//! each proxy aggregates per function per 100 ms window of simulated time
//! in plain local fields, and folds them into the shared [`Sink`] once, when
//! the simulation drops it.  Spans are materialised from the sink after the
//! run and written when the benchmark ends.
//!
//! Only calls that do work are timed (`on_ack`, `on_packet_sent`, `on_loss`,
//! `on_signal`, `on_subframe`, `on_packet`).  The controller's getters run
//! twice per flow per subframe and take a few nanoseconds; timing them
//! inflated a traced run by half, so they are only counted.

use pbe_cc_algorithms::api::{AckInfo, CongestionControl, CongestionSignal, PbeFeedback};
use pbe_cc_algorithms::registry::SchemeRegistry;
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::handover::HandoverEvent;
use pbe_core::PbeReceiverAgent;
use pbe_netsim::{Observer, ReceiverAgent, SimBuilder, SimConfig, SimEvent};
use pbe_pdcch::batch::DciBatch;
use pbe_stats::time::Instant as SimInstant;
use serde::Serialize;
use std::cell::Cell as StdCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Width of one aggregation window, simulated milliseconds.
pub const WINDOW_MS: u64 = 100;

/// The layer functions the proxies time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `CongestionControl::on_ack`.
    CcOnAck,
    /// `CongestionControl::on_packet_sent`.
    CcOnSend,
    /// `CongestionControl::on_loss`.
    CcOnLoss,
    /// `CongestionControl::on_signal`.
    CcOnSignal,
    /// `ReceiverAgent::on_subframe`.
    RxOnSubframe,
    /// `ReceiverAgent::on_packet`.
    RxOnPacket,
}

impl Func {
    /// Every function, in index order.
    pub const ALL: [Func; 6] = [
        Func::CcOnAck,
        Func::CcOnSend,
        Func::CcOnLoss,
        Func::CcOnSignal,
        Func::RxOnSubframe,
        Func::RxOnPacket,
    ];

    /// Span name: `<layer>.<function>`.
    pub fn span_name(self) -> &'static str {
        match self {
            Func::CcOnAck => "cc.on_ack",
            Func::CcOnSend => "cc.on_packet_sent",
            Func::CcOnLoss => "cc.on_loss",
            Func::CcOnSignal => "cc.on_signal",
            Func::RxOnSubframe => "core.on_subframe",
            Func::RxOnPacket => "core.on_packet",
        }
    }
}

/// Calls and busy time of one function in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls.
    pub count: u64,
    /// Host nanoseconds spent inside the calls (clock overhead included).
    pub busy_ns: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.count += other.count;
        self.busy_ns += other.busy_ns;
    }
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(tallies: I) -> Tally {
        let mut total = Tally::default();
        for t in tallies {
            total.add(t);
        }
        total
    }
}

/// Per-window tallies of every function.
#[derive(Debug, Clone, Default)]
pub struct Windows(Vec<[Tally; Func::ALL.len()]>);

impl Windows {
    #[inline]
    fn record(&mut self, func: Func, at: SimInstant, busy_ns: u64) {
        let w = (at.as_millis() / WINDOW_MS) as usize;
        if w >= self.0.len() {
            self.0.resize(w + 1, Default::default());
        }
        let tally = &mut self.0[w][func as usize];
        tally.count += 1;
        tally.busy_ns += busy_ns;
    }

    fn merge(&mut self, other: &Windows) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), Default::default());
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.add(*t);
            }
        }
    }

    /// Whole-run tally of one function.
    pub fn total(&self, func: Func) -> Tally {
        self.0.iter().map(|w| w[func as usize]).sum()
    }
}

/// What the engine narrated, counted by the observer.
#[derive(Debug, Clone, Default)]
pub struct EventCounts {
    /// Every event.
    pub events: u64,
    /// `AckProcessed`.
    pub acks: u64,
    /// `PacketDelivered` with `delivered`.
    pub delivered: u64,
    /// `PacketDelivered` without.
    pub lost: u64,
    /// `Handover`.
    pub handovers: u64,
    /// `CaTriggered`.
    pub ca_events: u64,
    /// `CapacityEstimated`.
    pub estimates: u64,
    /// Host nanoseconds since the run started at which each window of
    /// simulated time began.
    pub window_start_ns: Vec<u64>,
}

/// Where the proxies and the observer of one traced run fold their numbers.
#[derive(Debug, Default)]
pub struct Sink {
    /// Per-window tallies, all flows together.
    pub windows: Windows,
    /// `on_ack` per scheme name.
    pub ack_by_scheme: BTreeMap<String, Tally>,
    /// Getter calls (`pacing_rate_bps`, `cwnd_bytes`), counted only.
    pub getter_calls: u64,
    /// Packets the senders released (`on_packet_sent` calls).
    pub packets_sent: u64,
    /// The observer's counts.
    pub events: EventCounts,
}

impl Sink {
    /// Fold another run's sink into this one (window marks excepted: they
    /// are offsets into one run).
    pub fn merge(&mut self, from: Sink) {
        self.windows.merge(&from.windows);
        for (scheme, tally) in from.ack_by_scheme {
            self.ack_by_scheme.entry(scheme).or_default().add(tally);
        }
        self.getter_calls += from.getter_calls;
        self.packets_sent += from.packets_sent;
        let (a, b) = (&mut self.events, from.events);
        a.events += b.events;
        a.acks += b.acks;
        a.delivered += b.delivered;
        a.lost += b.lost;
        a.handovers += b.handovers;
        a.ca_events += b.ca_events;
        a.estimates += b.estimates;
    }
}

/// The sink as the proxies share it.
pub type Shared = Arc<Mutex<Sink>>;

/// Fold into the sink.  Called from `Drop`, so a poisoned lock (a panic
/// elsewhere is already unwinding) is skipped, never re-raised.
fn fold(sink: &Shared, f: impl FnOnce(&mut Sink)) {
    if let Ok(mut guard) = sink.lock() {
        f(&mut guard);
    }
}

/// Timing proxy around one congestion controller.
struct CcProxy {
    inner: Box<dyn CongestionControl>,
    windows: Windows,
    ack: Tally,
    getters: StdCell<u64>,
    sink: Shared,
}

impl CongestionControl for CcProxy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_ack(&mut self, ack: &AckInfo) {
        let t = Instant::now();
        self.inner.on_ack(ack);
        let ns = t.elapsed().as_nanos() as u64;
        self.windows.record(Func::CcOnAck, ack.now, ns);
        self.ack.count += 1;
        self.ack.busy_ns += ns;
    }

    fn on_loss(&mut self, now: SimInstant) {
        let t = Instant::now();
        self.inner.on_loss(now);
        self.windows
            .record(Func::CcOnLoss, now, t.elapsed().as_nanos() as u64);
    }

    fn on_packet_sent(&mut self, now: SimInstant, bytes: u64, inflight_bytes: u64) {
        let t = Instant::now();
        self.inner.on_packet_sent(now, bytes, inflight_bytes);
        self.windows
            .record(Func::CcOnSend, now, t.elapsed().as_nanos() as u64);
    }

    fn pacing_rate_bps(&self) -> f64 {
        self.getters.set(self.getters.get() + 1);
        self.inner.pacing_rate_bps()
    }

    fn cwnd_bytes(&self) -> u64 {
        self.getters.set(self.getters.get() + 1);
        self.inner.cwnd_bytes()
    }

    fn internet_bottleneck_fraction(&self) -> f64 {
        self.inner.internet_bottleneck_fraction()
    }

    fn on_signal(&mut self, now: SimInstant, signal: &CongestionSignal) {
        let t = Instant::now();
        self.inner.on_signal(now, signal);
        self.windows
            .record(Func::CcOnSignal, now, t.elapsed().as_nanos() as u64);
    }
}

impl Drop for CcProxy {
    fn drop(&mut self) {
        let name = self.inner.name();
        fold(&self.sink, |sink| {
            sink.windows.merge(&self.windows);
            sink.ack_by_scheme
                .entry(name.to_string())
                .or_default()
                .add(self.ack);
            sink.getter_calls += self.getters.get();
            sink.packets_sent += self.windows.total(Func::CcOnSend).count;
        });
    }
}

/// Timing proxy around one receiver agent.
struct RxProxy {
    inner: Box<dyn ReceiverAgent>,
    windows: Windows,
    sink: Shared,
}

impl ReceiverAgent for RxProxy {
    fn on_carrier_event(&mut self, event: &CaEvent, total_prbs: u16) {
        self.inner.on_carrier_event(event, total_prbs);
    }

    fn on_handover(&mut self, event: &HandoverEvent, target_total_prbs: u16, gap: u64) {
        self.inner.on_handover(event, target_total_prbs, gap);
    }

    fn on_subframe(&mut self, batch: &DciBatch<'_>) {
        let t = Instant::now();
        self.inner.on_subframe(batch);
        let ns = t.elapsed().as_nanos() as u64;
        self.windows.record(
            Func::RxOnSubframe,
            SimInstant::from_millis(batch.subframe()),
            ns,
        );
    }

    fn set_rtprop_ms(&mut self, rtprop_ms: f64) {
        self.inner.set_rtprop_ms(rtprop_ms);
    }

    fn on_decode_loss(&mut self, until_subframe: u64) {
        self.inner.on_decode_loss(until_subframe);
    }

    fn on_packet(&mut self, at: SimInstant, one_way_delay_ms: f64) -> Option<PbeFeedback> {
        let t = Instant::now();
        let feedback = self.inner.on_packet(at, one_way_delay_ms);
        self.windows
            .record(Func::RxOnPacket, at, t.elapsed().as_nanos() as u64);
        feedback
    }
}

impl Drop for RxProxy {
    fn drop(&mut self) {
        fold(&self.sink, |sink| sink.windows.merge(&self.windows));
    }
}

/// Counts the engine's events and marks where each window of simulated time
/// begins on the host clock.
struct EventCounter {
    started: Instant,
    counts: EventCounts,
    sink: Shared,
}

impl Observer for EventCounter {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let c = &mut self.counts;
        c.events += 1;
        match event {
            SimEvent::SubframeScheduled { now, .. } if now.as_millis() % WINDOW_MS == 0 => {
                c.window_start_ns
                    .push(self.started.elapsed().as_nanos() as u64);
            }
            SimEvent::AckProcessed { .. } => c.acks += 1,
            SimEvent::PacketDelivered { delivered, .. } => {
                if *delivered {
                    c.delivered += 1;
                } else {
                    c.lost += 1;
                }
            }
            SimEvent::Handover { .. } => c.handovers += 1,
            SimEvent::CaTriggered { .. } => c.ca_events += 1,
            SimEvent::CapacityEstimated { .. } => c.estimates += 1,
            _ => {}
        }
    }
}

impl Drop for EventCounter {
    fn drop(&mut self) {
        let counts = std::mem::take(&mut self.counts);
        fold(&self.sink, |sink| sink.events = counts);
    }
}

/// An observer that wastes a fixed share of the run's own time, a little on
/// every `SubframeScheduled`: the deliberate slowdown of `--sensitivity`.  It
/// paces itself on the clock — on each subframe it spins until what it has
/// wasted so far is `share` of what the run has spent outside it — so the
/// slowdown is `share` in every run, whatever the machine does.  (A step
/// count fixed by a calibration pass drifted: integer spinning and the
/// simulator do not slow and speed together, and the rise read 6–17 %.)
pub struct Burn {
    share: f64,
    /// The first subframe seen.
    started: Option<Instant>,
    /// Time spent inside this observer since then.
    wasted: Duration,
}

impl Burn {
    /// An observer that wastes `share` of the run's own time.
    pub fn new(share: f64) -> Self {
        Burn {
            share,
            started: None,
            wasted: Duration::ZERO,
        }
    }
}

/// `steps` rounds of four independent xorshift streams: throughput-bound
/// integer work.
fn spin(steps: u64) -> u64 {
    let mut x = [
        black_box(0x9E37_79B9_7F4A_7C15u64),
        black_box(0x2545_F491_4F6C_DD1Du64),
        black_box(0xD6E8_FEB8_6659_FD93u64),
        black_box(0xA076_1D64_78BD_642Fu64),
    ];
    for _ in 0..steps {
        for s in &mut x {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
        }
    }
    black_box(x[0] ^ x[1] ^ x[2] ^ x[3])
}

impl Observer for Burn {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        if !matches!(event, SimEvent::SubframeScheduled { .. }) {
            return;
        }
        let entered = Instant::now();
        let started = *self.started.get_or_insert(entered);
        let own = (entered - started).saturating_sub(self.wasted);
        let due = own.mul_f64(self.share).saturating_sub(self.wasted);
        let mut now = entered;
        while now - entered < due {
            spin(64);
            now = Instant::now();
        }
        self.wasted += now - entered;
    }
}

/// A builder for `cfg` with the optional burn observer attached — the
/// untraced way to run a configuration.
pub fn plain_builder(cfg: &SimConfig, burn: f64) -> SimBuilder {
    let builder = SimBuilder::from_config(cfg.clone());
    if burn > 0.0 {
        builder.observe(Burn::new(burn))
    } else {
        builder
    }
}

/// A builder for `cfg` with every flow's controller and the PBE receiver
/// wrapped in timing proxies and the event counter attached.  The returned
/// sink is complete once the built simulation has run **and been dropped**.
pub fn traced_builder(cfg: &SimConfig, burn: f64) -> (SimBuilder, Shared) {
    let sink: Shared = Arc::default();
    let registry: Arc<SchemeRegistry> = Arc::new(pbe_core::default_scheme_registry());
    let mut builder = plain_builder(cfg, burn);
    let mut wrapped = Vec::new();
    for flow in &cfg.flows {
        let id = flow.scheme.id();
        if wrapped.contains(&id) || !registry.contains(&id) {
            continue;
        }
        wrapped.push(id.clone());
        let (registry, sink, key) = (registry.clone(), sink.clone(), id.clone());
        builder = builder.scheme(id, move |ctx| {
            Box::new(CcProxy {
                inner: registry.build(&key, ctx).expect("scheme is registered"),
                windows: Windows::default(),
                ack: Tally::default(),
                getters: StdCell::new(0),
                sink: sink.clone(),
            })
        });
    }
    let rx_sink = sink.clone();
    builder = builder.receiver_agent(
        pbe_core::PBE_SCHEME_ID,
        Box::new(move |ctx| {
            Box::new(RxProxy {
                inner: Box::new(PbeReceiverAgent::new(ctx)),
                windows: Windows::default(),
                sink: rx_sink.clone(),
            })
        }),
    );
    builder = builder.observe(EventCounter {
        started: Instant::now(),
        counts: EventCounts::default(),
        sink: sink.clone(),
    });
    (builder, sink)
}

/// Host nanoseconds one `Instant::now()` … `elapsed()` pair reports around
/// nothing: the clock's own share of every timed call.
pub fn clock_overhead_ns() -> f64 {
    let rounds = 200_000u64;
    let mut total = 0u64;
    for _ in 0..rounds {
        let t = Instant::now();
        total += black_box(t.elapsed().as_nanos() as u64);
    }
    total as f64 / rounds as f64
}

/// One span of the trace file.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// `<layer>.<function>`, or `sim.run` / `replay.<layer>` for roots.
    pub name: String,
    /// The workload traced.
    pub workload: String,
    /// Host nanoseconds since the root span began.
    pub start_ns: u64,
    /// Host nanoseconds since the root span began.
    pub end_ns: u64,
    /// Index of the causing span in the file (`None` for roots).
    pub parent: Option<usize>,
    /// Calls aggregated into this span.
    pub count: u64,
    /// Host nanoseconds spent inside those calls.
    pub busy_ns: u64,
}

/// The spans of one traced run, written as `out/trace-<workload>.json`.
#[derive(Debug, Default, Serialize)]
pub struct Trace {
    /// Every span; `parent` indexes into this list.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append a root span and return its index.
    pub fn root(&mut self, name: &str, workload: &str, total_ns: u64, count: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            workload: workload.to_string(),
            start_ns: 0,
            end_ns: total_ns,
            parent: None,
            count,
            busy_ns: total_ns,
        });
        self.spans.len() - 1
    }

    /// Append one child span per window that saw calls.  `window_start_ns`
    /// gives where each window began; the last window ends with the root.
    pub fn windows(
        &mut self,
        parent: usize,
        name: &str,
        window_start_ns: &[u64],
        tallies: impl Iterator<Item = Tally>,
    ) {
        let (workload, end) = (
            self.spans[parent].workload.clone(),
            self.spans[parent].end_ns,
        );
        for (w, tally) in tallies.enumerate() {
            if tally.count == 0 {
                continue;
            }
            let start_ns = window_start_ns.get(w).copied().unwrap_or(end);
            let end_ns = window_start_ns.get(w + 1).copied().unwrap_or(end);
            self.spans.push(Span {
                name: name.to_string(),
                workload: workload.clone(),
                start_ns,
                end_ns,
                parent: Some(parent),
                count: tally.count,
                busy_ns: tally.busy_ns,
            });
        }
    }

    /// Append the spans of one traced simulation run.
    pub fn sim_run(&mut self, workload: &str, total_ns: u64, sink: &Sink) {
        let root = self.root("sim.run", workload, total_ns, 1);
        for func in Func::ALL {
            self.windows(
                root,
                func.span_name(),
                &sink.events.window_start_ns,
                sink.windows.0.iter().map(|w| w[func as usize]),
            );
        }
    }
}
