//! The shared wired backhaul between the content servers and the base
//! stations.
//!
//! The per-flow [`WiredPath`](crate::wired::WiredPath) models every flow's
//! wired segment as a private bottleneck; real congestion in the paper's
//! metro deployments is *shared*: thousands of flows from one server funnel
//! through an aggregation link before fanning out over per-cell backhaul
//! links.  This module models that sharing as a small DAG of wired links —
//! `server → metro aggregation → per-cell backhaul → base station` — each
//! with a line rate, a propagation delay and a FIFO drop-tail queue with an
//! optional RED-style marking threshold.
//!
//! Topology rules: the links referenced by the routes must form a *forest*
//! (every link has at most one upstream predecessor across all routes, and a
//! link is either always a route head or never).  The rule is what makes the
//! analytic packet walk below exact: packets are processed in global ingress
//! order, and under a single-predecessor topology every link then sees its
//! arrivals in nondecreasing time order, so a FIFO queue can be simulated by
//! a single forward pass per packet.
//!
//! The two orderings: submitted packets wait for their ingress time, and
//! walked packets wait for their base-station arrival, each in one
//! monotone-runs queue (`runs.rs`) keyed by `(time, submission sequence)`.  A flow
//! submits in send order, so its ingress times rise by its server delay
//! plus the send clock: the ingress pushes are a merge of one nondecreasing
//! stream per distinct server delay, and the queue holds at most that many
//! sorted runs — one shared delay makes it a FIFO.  Arrivals are pushed in
//! ingress order and rise along each route's last link, so the delivery
//! queue holds a few runs (at most 7 on the benchmark's 960-flow,
//! 24-cell fan-out).  Each push and pop costs a scan of the runs instead of
//! a heap's sift, and emptied runs keep their buffers.
//!
//! Determinism: the backhaul is stepped by the simulation driver loop,
//! outside the radio-access-network tick, and all of its ordering is by
//! `(time, submission sequence)` pairs, so results are a pure function of
//! the configuration and the seed.

use crate::config::ConfigError;
use crate::faults::{FlapPolicy, LinkFlap};
use crate::runs::MonotoneRuns;
use crate::wired::LinkStats;
use pbe_cellular::config::CellId;
use pbe_stats::percentile::percentile_of_sorted;
use pbe_stats::time::{transmission_time, Duration, Instant, MICROS_PER_MS};
use pbe_stats::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of one wired backhaul link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackhaulLinkSpec {
    /// Human-readable link name (`"agg"`, `"cell-3"`, ...).
    pub name: String,
    /// Line rate in bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay of the link.
    pub propagation: Duration,
    /// Maximum bytes the drop-tail queue holds before dropping.
    pub queue_limit_bytes: u64,
    /// RED-style marking threshold: a packet arriving to find at least this
    /// many bytes already queued is ECN-marked.  `None` disables marking.
    pub mark_threshold_bytes: Option<u64>,
}

impl BackhaulLinkSpec {
    /// A link with the given name, rate, propagation and queue limit, and no
    /// marking threshold.
    pub fn new(
        name: impl Into<String>,
        rate_bps: f64,
        propagation: Duration,
        queue_limit_bytes: u64,
    ) -> Self {
        BackhaulLinkSpec {
            name: name.into(),
            rate_bps,
            propagation,
            queue_limit_bytes,
            mark_threshold_bytes: None,
        }
    }

    /// The same link with an ECN marking threshold.
    pub fn with_mark_threshold(mut self, bytes: u64) -> Self {
        self.mark_threshold_bytes = Some(bytes);
        self
    }
}

/// The path packets towards one cell take through the backhaul.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackhaulRoute {
    /// The destination cell.
    pub cell: CellId,
    /// Link indices into [`BackhaulConfig::links`], in server → base-station
    /// order.
    pub path: Vec<usize>,
}

/// Configuration of the shared backhaul topology.
///
/// When [`SimConfig::backhaul`](crate::config::SimConfig) carries one of these,
/// every flow's wired segment is routed through it (by the cell its UE is
/// currently attached to) instead of through the flow's private
/// [`WiredPath`](crate::wired::WiredPath).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackhaulConfig {
    /// The wired links of the topology.
    pub links: Vec<BackhaulLinkSpec>,
    /// Per-cell routes through the links.
    pub routes: Vec<BackhaulRoute>,
    /// Fallback path for cells without an explicit route (a handover target
    /// outside the configured set, for instance).  `None` means such a cell
    /// is a configuration error.
    pub default_path: Option<Vec<usize>>,
}

impl BackhaulConfig {
    /// The canonical fan-out topology: one shared aggregation link feeding
    /// one backhaul link per cell.  The aggregation link carries the marking
    /// threshold (it is the intended shared bottleneck); the per-cell links
    /// are unmarked.
    pub fn shared_aggregation(
        cells: &[CellId],
        agg: BackhaulLinkSpec,
        cell_link: impl Fn(CellId) -> BackhaulLinkSpec,
    ) -> Self {
        let mut links = vec![agg];
        let mut routes = Vec::with_capacity(cells.len());
        for &cell in cells {
            let idx = links.len();
            links.push(cell_link(cell));
            routes.push(BackhaulRoute {
                cell,
                path: vec![0, idx],
            });
        }
        BackhaulConfig {
            links,
            routes,
            default_path: None,
        }
    }

    /// The topology rules the simulator relies on, the backhaul variants of
    /// [`ConfigError`]: [`Simulation::validate`](crate::Simulation::validate)
    /// and [`Backhaul::new`] both apply them.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (i, l) in self.links.iter().enumerate() {
            if l.rate_bps <= 0.0 || l.rate_bps.is_nan() {
                return Err(ConfigError::LinkRate(i));
            }
            if l.queue_limit_bytes == 0 {
                return Err(ConfigError::LinkQueue(i));
            }
        }
        for (i, r) in self.routes.iter().enumerate() {
            if self.routes[..i].iter().any(|other| other.cell == r.cell) {
                return Err(ConfigError::DuplicateRoute(r.cell));
            }
        }
        // pred[link] = Some(None) head, Some(Some(p)) fed by p.
        let mut pred: Vec<Option<Option<usize>>> = vec![None; self.links.len()];
        let routes = self.routes.iter().map(|r| &r.path);
        for path in routes.chain(&self.default_path) {
            if path.is_empty() {
                return Err(ConfigError::EmptyPath);
            }
            let mut prev: Option<usize> = None;
            for &link in path {
                if link >= self.links.len() {
                    return Err(ConfigError::MissingLink(link));
                }
                if path.iter().filter(|&&l| l == link).count() > 1 {
                    return Err(ConfigError::RepeatedLink(link));
                }
                match pred[link] {
                    None => pred[link] = Some(prev),
                    Some(existing) if existing == prev => {}
                    Some(_) => return Err(ConfigError::NotAForest(link)),
                }
                prev = Some(link);
            }
        }
        Ok(())
    }
}

/// A packet ECN-marked by a backhaul queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkRecord {
    /// Index of the flow (into the simulation's flow list) owning the packet.
    pub flow: usize,
    /// The marked packet.
    pub packet_id: u64,
    /// The marking link (index into [`BackhaulConfig::links`]).
    pub link: usize,
    /// When the marking decision was taken (arrival at the link).
    pub at: Instant,
    /// Bytes already queued at the link when the packet arrived.
    pub queued_bytes: u64,
    /// The marking link's line rate, bits per second.
    pub link_rate_bps: f64,
    /// Queueing delay the marked packet experienced at the link.
    pub queue_delay: Duration,
    /// Propagation of the path upstream of the marking link (base of the
    /// near-source signal latency; the flow's server delay comes on top).
    pub upstream_delay: Duration,
    /// True if this is the packet's first mark on its path — only first
    /// marks generate near-source signals.
    pub first_on_path: bool,
}

/// A packet dropped by a backhaul queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// Index of the flow owning the packet.
    pub flow: usize,
    /// The dropped packet.
    pub packet_id: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// The dropping link (index into [`BackhaulConfig::links`]).
    pub link: usize,
    /// When the drop happened (arrival at the link).
    pub at: Instant,
    /// Bytes queued at the link when the packet was refused.
    pub queued_bytes: u64,
}

/// A packet that crossed the whole backhaul and reached its base station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Index of the flow owning the packet.
    pub flow: usize,
    /// The delivered packet.
    pub packet_id: u64,
    /// Payload bytes.
    pub bytes: u32,
    /// Arrival time at the base station.
    pub arrive_at: Instant,
}

/// Everything one [`Backhaul::tick`] produced, with reusable buffers.
#[derive(Debug, Default)]
pub struct BackhaulTickReport {
    /// Packets that reached their base station this tick, in deterministic
    /// `(arrival, submission)` order.
    pub deliveries: Vec<DeliveryRecord>,
    /// ECN marks taken this tick.
    pub marks: Vec<MarkRecord>,
    /// Queue drops taken this tick.
    pub drops: Vec<DropRecord>,
}

impl BackhaulTickReport {
    fn clear(&mut self) {
        self.deliveries.clear();
        self.marks.clear();
        self.drops.clear();
    }
}

/// End-of-run summary of one backhaul link (also the shape stored in
/// [`SimResult::backhaul_links`](crate::sim::SimResult)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackhaulLinkResult {
    /// Link name from the configuration.
    pub name: String,
    /// Line rate, bits per second.
    pub rate_bps: f64,
    /// Byte and packet counters.
    pub stats: LinkStats,
    /// Largest queue occupancy ever seen, bytes.
    pub max_queued_bytes: u64,
    /// Median per-packet queueing delay, milliseconds (0 when idle).
    pub p50_queue_delay_ms: f64,
    /// 95th-percentile per-packet queueing delay, milliseconds.
    pub p95_queue_delay_ms: f64,
    /// Per-100 ms maximum queue occupancy, bytes (sampled each subframe).
    pub queue_timeline_bytes: Vec<u64>,
}

/// One queued-or-serialising packet, from the perspective of a clock: it
/// stops occupying the queue when the link finishes serialising it.
type Departure = (Instant, u32);

/// Median and 95th percentile of queueing delays given in microseconds, in
/// milliseconds (both 0 when there are none).  The integer samples are
/// sorted once and then converted, which is the same as converting and then
/// sorting because the µs → ms map is monotone.
fn delay_percentiles_ms(samples_us: &[u64]) -> (f64, f64) {
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable();
    let ms: Vec<f64> = sorted
        .into_iter()
        .map(|us| Duration::from_micros(us).as_millis_f64())
        .collect();
    if ms.is_empty() {
        return (0.0, 0.0);
    }
    (
        percentile_of_sorted(&ms, 50.0),
        percentile_of_sorted(&ms, 95.0),
    )
}

/// One scheduled flap window, resolved to a link index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlapWindow {
    link: usize,
    start: Instant,
    end: Instant,
    drop: bool,
}

fn flap_on(flaps: &[FlapWindow], link: usize, at: Instant) -> Option<FlapWindow> {
    flaps
        .iter()
        .find(|f| f.link == link && f.start <= at && at < f.end)
        .copied()
}

fn path_flapped(flaps: &[FlapWindow], path: &[usize], at: Instant) -> bool {
    path.iter().any(|&li| flap_on(flaps, li, at).is_some())
}

#[derive(Debug)]
struct LinkState {
    rate_bps: f64,
    propagation: Duration,
    queue_limit_bytes: u64,
    mark_threshold_bytes: Option<u64>,
    /// When the link finishes serialising the newest admitted packet.
    link_free_at: Instant,
    /// Occupancy as seen by the analytic per-packet walk (drained at packet
    /// arrival times, which can run ahead of the wall clock).
    walk_queue: VecDeque<Departure>,
    walk_queued_bytes: u64,
    /// Occupancy as seen by the wall clock (drained once per tick; this is
    /// what the sampled timeline and the final stats report).
    clock_queue: VecDeque<Departure>,
    clock_queued_bytes: u64,
    stats: LinkStats,
    max_queued_bytes: u64,
    /// Per-packet queueing delays, microseconds.
    delay_samples_us: Vec<u64>,
}

impl LinkState {
    fn new(spec: &BackhaulLinkSpec) -> Self {
        LinkState {
            rate_bps: spec.rate_bps,
            propagation: spec.propagation,
            queue_limit_bytes: spec.queue_limit_bytes,
            mark_threshold_bytes: spec.mark_threshold_bytes,
            link_free_at: Instant::ZERO,
            walk_queue: VecDeque::new(),
            walk_queued_bytes: 0,
            clock_queue: VecDeque::new(),
            clock_queued_bytes: 0,
            stats: LinkStats::default(),
            max_queued_bytes: 0,
            delay_samples_us: Vec::new(),
        }
    }

    fn drain_walk(&mut self, at: Instant) {
        while let Some(&(departure, bytes)) = self.walk_queue.front() {
            if departure > at {
                break;
            }
            self.walk_queue.pop_front();
            self.walk_queued_bytes -= u64::from(bytes);
        }
    }

    fn drain_clock(&mut self, now: Instant) {
        while let Some(&(departure, bytes)) = self.clock_queue.front() {
            if departure > now {
                break;
            }
            self.clock_queue.pop_front();
            self.clock_queued_bytes -= u64::from(bytes);
            self.stats.forwarded_packets += 1;
            self.stats.forwarded_bytes += u64::from(bytes);
        }
    }
}

/// A submitted packet waiting for its ingress time, queued under
/// `(ingress_at, submission sequence)`.
#[derive(Debug)]
struct IngressEntry {
    flow: usize,
    packet_id: u64,
    bytes: u32,
    /// Route index, or `usize::MAX` for the default path.
    route: usize,
}

/// A packet that crossed its path, queued under `(arrival at the base
/// station, submission sequence)`.
#[derive(Debug)]
struct ReadyEntry {
    flow: usize,
    packet_id: u64,
    bytes: u32,
}

/// The running backhaul: analytic FIFO link queues plus the deterministic
/// ingress and delivery orderings.
#[derive(Debug)]
pub struct Backhaul {
    cfg: BackhaulConfig,
    route_of_cell: FxHashMap<CellId, usize>,
    links: Vec<LinkState>,
    /// At most one run per distinct server delay (see [`MonotoneRuns`]).
    ingress: MonotoneRuns<IngressEntry>,
    ready: MonotoneRuns<ReadyEntry>,
    seq: u64,
    /// Per-flow newest delivery time: deliveries are clamped to be
    /// nondecreasing per flow, modelling in-order (RLC-style) hand-off to
    /// the base station so a reroute cannot reorder a flow's packets.
    /// Indexed by the dense flow index, grown as flows first submit.
    last_delivery: Vec<Instant>,
    /// Scheduled link flaps, resolved to link indices (empty unless a fault
    /// schedule installed some via [`Backhaul::set_flaps`]).
    flaps: Vec<FlapWindow>,
    occupancy_buf: Vec<u64>,
    in_transit_packets: u64,
    submitted_bytes: u64,
    delivered_bytes: u64,
    dropped_bytes: u64,
}

impl Backhaul {
    /// Build the runtime from a configuration.
    ///
    /// # Panics
    /// With the error's message, if [`BackhaulConfig::validate`] rejects the
    /// configuration.
    pub fn new(cfg: BackhaulConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let route_of_cell = cfg
            .routes
            .iter()
            .enumerate()
            .map(|(i, r)| (r.cell, i))
            .collect();
        let links = cfg.links.iter().map(LinkState::new).collect();
        Backhaul {
            cfg,
            route_of_cell,
            links,
            ingress: MonotoneRuns::default(),
            ready: MonotoneRuns::default(),
            seq: 0,
            last_delivery: Vec::new(),
            flaps: Vec::new(),
            occupancy_buf: Vec::new(),
            in_transit_packets: 0,
            submitted_bytes: 0,
            delivered_bytes: 0,
            dropped_bytes: 0,
        }
    }

    /// The configuration this backhaul was built from.
    pub fn config(&self) -> &BackhaulConfig {
        &self.cfg
    }

    /// Install the scheduled link flaps of a fault schedule, resolving link
    /// names to indices (validation rejects a name no link has).  While a
    /// flap window is open the link carries nothing: arrivals wait for the
    /// window to close ([`FlapPolicy::Drain`], still subject to the queue
    /// limit) or are refused at admission ([`FlapPolicy::Drop`]), and a route
    /// that crosses a flapped link at ingress time falls back to the default
    /// path when one is configured.
    ///
    /// Windows only affect packets *arriving* inside them; a packet admitted
    /// just before the flap finishes serialising undisturbed.
    pub(crate) fn set_flaps(&mut self, flaps: &[LinkFlap]) {
        let links = &self.cfg.links;
        let resolve = |flap: &LinkFlap| FlapWindow {
            link: (links.iter().position(|l| l.name == flap.link))
                .expect("validated: every flap names a link"),
            // Saturating: a window edge past the last representable instant
            // is never reached.
            start: Instant::from_micros(flap.start_ms.saturating_mul(MICROS_PER_MS)),
            end: Instant::from_micros(flap.end_ms.saturating_mul(MICROS_PER_MS)),
            drop: flap.policy == FlapPolicy::Drop,
        };
        self.flaps = flaps.iter().map(resolve).collect();
    }

    /// Submit a packet heading for `cell`, entering the first backhaul link
    /// at `ingress_at` (the send time plus the flow's server-side delay).
    ///
    /// # Panics
    /// With [`ConfigError::UnroutedCell`]'s message, if the cell has no route
    /// and no default path is configured (validation rules that out for a
    /// simulation).
    pub fn submit(
        &mut self,
        flow: usize,
        cell: CellId,
        packet_id: u64,
        bytes: u32,
        ingress_at: Instant,
    ) {
        let route = match self.route_of_cell.get(&cell) {
            Some(&r) => r,
            None if self.cfg.default_path.is_some() => usize::MAX,
            None => panic!("{}", ConfigError::UnroutedCell(cell)),
        };
        let seq = self.seq;
        self.seq += 1;
        self.in_transit_packets += 1;
        self.submitted_bytes += u64::from(bytes);
        let entry = IngressEntry {
            flow,
            packet_id,
            bytes,
            route,
        };
        self.ingress.push((ingress_at, seq), entry);
    }

    /// Advance to `now`: walk every packet whose ingress time has come
    /// through its route, collect marks and drops, and release the packets
    /// that have reached their base station.
    pub fn tick(&mut self, now: Instant, report: &mut BackhaulTickReport) {
        report.clear();

        // 1. Walk due ingress entries through their routes, in global
        //    (ingress, submission) order — the order every link sees its
        //    arrivals in, by the forest topology rule.
        while let Some(((ingress_at, seq), entry)) = self.ingress.pop_due(now) {
            let mut path: &[usize] = if entry.route == usize::MAX {
                self.cfg.default_path.as_deref().expect("validated")
            } else {
                &self.cfg.routes[entry.route].path
            };
            // Re-route around a flap: a route crossing a flapped link at
            // ingress time falls back to the default path, provided that
            // path is itself flap-free.  The per-flow in-order clamp below
            // keeps the detour from reordering the flow.
            if entry.route != usize::MAX
                && !self.flaps.is_empty()
                && path_flapped(&self.flaps, path, ingress_at)
            {
                if let Some(fallback) = self.cfg.default_path.as_deref() {
                    if !path_flapped(&self.flaps, fallback, ingress_at) {
                        path = fallback;
                    }
                }
            }
            let mut at = ingress_at;
            let mut upstream = Duration::ZERO;
            let mut dropped = false;
            let mut marked = false;
            for &li in path {
                let flap = flap_on(&self.flaps, li, at);
                let link = &mut self.links[li];
                link.drain_walk(at);
                let occupancy = link.walk_queued_bytes;
                if flap.is_some_and(|f| f.drop)
                    || occupancy + u64::from(entry.bytes) > link.queue_limit_bytes
                {
                    link.stats.dropped_packets += 1;
                    link.stats.dropped_bytes += u64::from(entry.bytes);
                    report.drops.push(DropRecord {
                        flow: entry.flow,
                        packet_id: entry.packet_id,
                        bytes: u64::from(entry.bytes),
                        link: li,
                        at,
                        queued_bytes: occupancy,
                    });
                    dropped = true;
                    break;
                }
                // A draining flap holds the arrival in the queue until the
                // window closes; serialisation resumes from the flap end.
                let start = match flap {
                    Some(f) => link.link_free_at.max(at).max(f.end),
                    None => link.link_free_at.max(at),
                };
                let queue_delay = start.saturating_since(at);
                let departure = start + transmission_time(entry.bytes as usize, link.rate_bps);
                link.link_free_at = departure;
                link.walk_queue.push_back((departure, entry.bytes));
                link.walk_queued_bytes += u64::from(entry.bytes);
                link.clock_queue.push_back((departure, entry.bytes));
                link.clock_queued_bytes += u64::from(entry.bytes);
                link.max_queued_bytes = link.max_queued_bytes.max(link.walk_queued_bytes);
                link.stats.admitted_packets += 1;
                link.stats.admitted_bytes += u64::from(entry.bytes);
                link.delay_samples_us.push(queue_delay.as_micros());
                if link
                    .mark_threshold_bytes
                    .is_some_and(|thresh| occupancy >= thresh)
                {
                    link.stats.marked_packets += 1;
                    report.marks.push(MarkRecord {
                        flow: entry.flow,
                        packet_id: entry.packet_id,
                        link: li,
                        at,
                        queued_bytes: occupancy,
                        link_rate_bps: link.rate_bps,
                        queue_delay,
                        upstream_delay: upstream,
                        first_on_path: !marked,
                    });
                    marked = true;
                }
                upstream += self.links[li].propagation;
                at = departure + self.links[li].propagation;
            }
            if dropped {
                self.in_transit_packets -= 1;
                self.dropped_bytes += u64::from(entry.bytes);
                continue;
            }
            // In-order hand-off: a faster post-reroute path may not overtake
            // packets the flow already has further along the old path.
            if entry.flow >= self.last_delivery.len() {
                self.last_delivery.resize(entry.flow + 1, Instant::ZERO);
            }
            let last = &mut self.last_delivery[entry.flow];
            let arrive_at = at.max(*last);
            *last = arrive_at;
            let ready = ReadyEntry {
                flow: entry.flow,
                packet_id: entry.packet_id,
                bytes: entry.bytes,
            };
            self.ready.push((arrive_at, seq), ready);
        }

        // 2. Wall-clock work: drain every link's queue to `now`.
        for link in self.links.iter_mut() {
            link.drain_clock(now);
        }

        // 3. Release packets whose base-station arrival time has come.
        while let Some(((arrive_at, _), e)) = self.ready.pop_due(now) {
            self.in_transit_packets -= 1;
            self.delivered_bytes += u64::from(e.bytes);
            report.deliveries.push(DeliveryRecord {
                flow: e.flow,
                packet_id: e.packet_id,
                bytes: e.bytes,
                arrive_at,
            });
        }
    }

    /// Wall-clock queue occupancy of every link, bytes, in link order (call
    /// after [`Backhaul::tick`] so the queues are drained to `now`).
    pub fn occupancy(&mut self) -> &[u64] {
        self.occupancy_buf.clear();
        self.occupancy_buf
            .extend(self.links.iter().map(|l| l.clock_queued_bytes));
        &self.occupancy_buf
    }

    /// Per-link counters.
    pub fn link_stats(&self, link: usize) -> LinkStats {
        self.links[link].stats
    }

    /// Packets currently inside the backhaul (queued, serialising or
    /// propagating).
    pub fn in_transit_packets(&self) -> u64 {
        self.in_transit_packets
    }

    /// Bytes currently inside the backhaul: every submitted byte not yet
    /// delivered or dropped.
    pub fn in_transit_bytes(&self) -> u64 {
        self.submitted_bytes - self.delivered_bytes - self.dropped_bytes
    }

    /// Total bytes ever submitted.
    pub fn submitted_bytes(&self) -> u64 {
        self.submitted_bytes
    }

    /// Total bytes delivered to base stations.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Total bytes dropped at link queues.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// End-of-run per-link summaries (timelines are filled in by the metrics
    /// collector, which owns the sampling windows).
    pub fn link_summaries(&self) -> Vec<BackhaulLinkResult> {
        self.links
            .iter()
            .zip(&self.cfg.links)
            .map(|(state, spec)| {
                let (p50, p95) = delay_percentiles_ms(&state.delay_samples_us);
                BackhaulLinkResult {
                    name: spec.name.clone(),
                    rate_bps: spec.rate_bps,
                    stats: state.stats,
                    max_queued_bytes: state.max_queued_bytes,
                    p50_queue_delay_ms: p50,
                    p95_queue_delay_ms: p95,
                    queue_timeline_bytes: Vec::new(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    /// One 12 Mbit/s link (1500 bytes = 1 ms of serialisation), marking at
    /// 3000 queued bytes.
    fn one_link(mark: Option<u64>) -> BackhaulConfig {
        let mut link = BackhaulLinkSpec::new("agg", 12e6, Duration::from_millis(5), 1_000_000);
        link.mark_threshold_bytes = mark;
        BackhaulConfig {
            links: vec![link],
            routes: vec![BackhaulRoute {
                cell: CellId(0),
                path: vec![0],
            }],
            default_path: None,
        }
    }

    #[test]
    fn marking_threshold_is_hit_deterministically() {
        // Five back-to-back packets: occupancy seen on arrival is 0, 1500,
        // 3000, 4500 and 6000 bytes — with the threshold at 3000, exactly
        // packets 3, 4 and 5 are marked.
        let mut bh = Backhaul::new(one_link(Some(3_000)));
        for id in 1..=5u64 {
            bh.submit(0, CellId(0), id, 1500, ms(0));
        }
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(0), &mut report);
        let marked: Vec<u64> = report.marks.iter().map(|m| m.packet_id).collect();
        assert_eq!(marked, vec![3, 4, 5]);
        assert_eq!(report.marks[0].queued_bytes, 3_000);
        assert_eq!(report.marks[2].queued_bytes, 6_000);
        assert!(report.marks.iter().all(|m| m.first_on_path));
        assert_eq!(bh.link_stats(0).marked_packets, 3);
        // Queue delays: packet 3 waits exactly two serialisation times.
        assert_eq!(report.marks[0].queue_delay, Duration::from_millis(2));
    }

    #[test]
    fn below_threshold_nothing_is_marked() {
        let mut bh = Backhaul::new(one_link(Some(3_000)));
        bh.submit(0, CellId(0), 1, 1500, ms(0));
        bh.submit(0, CellId(0), 2, 1500, ms(0));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(0), &mut report);
        assert!(report.marks.is_empty());
        // After the queue drains, a new burst starts marking from scratch.
        bh.submit(0, CellId(0), 3, 1500, ms(100));
        bh.tick(ms(100), &mut report);
        assert!(report.marks.is_empty());
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut cfg = one_link(None);
        cfg.links[0].queue_limit_bytes = 4_000;
        let mut bh = Backhaul::new(cfg);
        for id in 1..=5u64 {
            bh.submit(0, CellId(0), id, 1500, ms(0));
        }
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(0), &mut report);
        // 2 × 1500 fit; the third arrival would make 4500 > 4000.
        let dropped: Vec<u64> = report.drops.iter().map(|d| d.packet_id).collect();
        assert_eq!(dropped, vec![3, 4, 5]);
        assert_eq!(bh.link_stats(0).dropped_packets, 3);
        assert_eq!(bh.link_stats(0).admitted_packets, 2);
        assert_eq!(bh.dropped_bytes(), 4_500);
    }

    #[test]
    fn packets_cross_the_link_in_fifo_order_with_correct_latency() {
        let mut bh = Backhaul::new(one_link(None));
        for id in 1..=3u64 {
            bh.submit(0, CellId(0), id, 1500, ms(0));
        }
        let mut report = BackhaulTickReport::default();
        // 1 ms serialisation each + 5 ms propagation: arrivals at 6, 7, 8 ms.
        bh.tick(ms(5), &mut report);
        assert!(report.deliveries.is_empty());
        bh.tick(ms(6), &mut report);
        assert_eq!(report.deliveries.len(), 1);
        assert_eq!(report.deliveries[0].packet_id, 1);
        assert_eq!(report.deliveries[0].arrive_at, ms(6));
        bh.tick(ms(8), &mut report);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.packet_id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(bh.in_transit_packets(), 0);
    }

    #[test]
    fn heterogeneous_ingress_delays_are_ordered_by_ingress_time() {
        // Flow 0 submits first but with a 10 ms server delay; flow 1 submits
        // later with no delay — flow 1's packet enters (and crosses) the
        // link first.
        let mut bh = Backhaul::new(one_link(None));
        bh.submit(0, CellId(0), 1, 1500, ms(10));
        bh.submit(1, CellId(0), 2, 1500, ms(2));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(30), &mut report);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.packet_id).collect();
        assert_eq!(ids, vec![2, 1]);
        // 2 entered at 2 ms, departed 3 ms, arrived 8 ms; 1 entered at
        // 10 ms (link idle again), arrived 16 ms.
        assert_eq!(report.deliveries[0].arrive_at, ms(8));
        assert_eq!(report.deliveries[1].arrive_at, ms(16));
    }

    #[test]
    fn reroute_keeps_a_flows_packets_in_order() {
        // Cell 0 routes over a slow link, cell 1 over a fast one.  A flow
        // that reroutes mid-burst (handover) must not have its later packets
        // overtake the earlier ones.
        let cfg = BackhaulConfig {
            links: vec![
                BackhaulLinkSpec::new("slow", 1.2e6, Duration::from_millis(10), 1_000_000),
                BackhaulLinkSpec::new("fast", 120e6, Duration::from_millis(1), 1_000_000),
            ],
            routes: vec![
                BackhaulRoute {
                    cell: CellId(0),
                    path: vec![0],
                },
                BackhaulRoute {
                    cell: CellId(1),
                    path: vec![1],
                },
            ],
            default_path: None,
        };
        let mut bh = Backhaul::new(cfg);
        // 10 ms serialisation each on the slow link.
        for id in 1..=4u64 {
            bh.submit(0, CellId(0), id, 1500, ms(0));
        }
        // The flow reroutes to the fast path: raw arrival would be ~1 ms,
        // far earlier than the slow path's backlog.
        for id in 5..=8u64 {
            bh.submit(0, CellId(1), id, 1500, ms(1));
        }
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(200), &mut report);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.packet_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7, 8], "no loss, no reorder");
        // The rerouted packets were clamped to the slow path's last arrival.
        let arrivals: Vec<Instant> = report.deliveries.iter().map(|d| d.arrive_at).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(arrivals[3], arrivals[7], "fast-path packets clamped");
    }

    #[test]
    fn shared_aggregation_marks_at_the_shared_link_only() {
        let cells = [CellId(0), CellId(1)];
        let cfg = BackhaulConfig::shared_aggregation(
            &cells,
            BackhaulLinkSpec::new("agg", 12e6, Duration::from_millis(2), 1_000_000)
                .with_mark_threshold(3_000),
            |cell| {
                BackhaulLinkSpec::new(
                    format!("cell-{}", cell.0),
                    100e6,
                    Duration::from_millis(1),
                    1_000_000,
                )
            },
        );
        cfg.validate().expect("canonical topology validates");
        let mut bh = Backhaul::new(cfg);
        for id in 1..=6u64 {
            let cell = cells[(id % 2) as usize];
            bh.submit(id as usize % 2, cell, id, 1500, ms(0));
        }
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(50), &mut report);
        assert_eq!(report.deliveries.len(), 6);
        assert!(report.marks.iter().all(|m| m.link == 0), "only agg marks");
        assert_eq!(bh.link_stats(0).marked_packets as usize, report.marks.len());
        assert!(!report.marks.is_empty());
        // Marks on the shared link report no upstream propagation (it is the
        // first hop).
        assert!(report
            .marks
            .iter()
            .all(|m| m.upstream_delay == Duration::ZERO));
    }

    #[test]
    fn validate_rejects_merging_topologies() {
        // Two routes feeding the same downstream link from different
        // predecessors break the forest rule.
        let cfg = BackhaulConfig {
            links: vec![
                BackhaulLinkSpec::new("a", 1e6, Duration::ZERO, 1_000),
                BackhaulLinkSpec::new("b", 1e6, Duration::ZERO, 1_000),
                BackhaulLinkSpec::new("shared", 1e6, Duration::ZERO, 1_000),
            ],
            routes: vec![
                BackhaulRoute {
                    cell: CellId(0),
                    path: vec![0, 2],
                },
                BackhaulRoute {
                    cell: CellId(1),
                    path: vec![1, 2],
                },
            ],
            default_path: None,
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NotAForest(2)));
    }

    #[test]
    fn validate_rejects_bad_indices_empty_paths_and_duplicate_cells() {
        let link = || BackhaulLinkSpec::new("l", 1e6, Duration::ZERO, 1_000);
        let bad_index = BackhaulConfig {
            links: vec![link()],
            routes: vec![BackhaulRoute {
                cell: CellId(0),
                path: vec![1],
            }],
            default_path: None,
        };
        assert_eq!(bad_index.validate(), Err(ConfigError::MissingLink(1)));
        let empty_path = BackhaulConfig {
            links: vec![link()],
            routes: vec![BackhaulRoute {
                cell: CellId(0),
                path: vec![],
            }],
            default_path: None,
        };
        assert_eq!(empty_path.validate(), Err(ConfigError::EmptyPath));
        let duplicate_cell = BackhaulConfig {
            links: vec![link()],
            routes: vec![
                BackhaulRoute {
                    cell: CellId(0),
                    path: vec![0],
                },
                BackhaulRoute {
                    cell: CellId(0),
                    path: vec![0],
                },
            ],
            default_path: None,
        };
        assert_eq!(
            duplicate_cell.validate(),
            Err(ConfigError::DuplicateRoute(CellId(0)))
        );
    }

    #[test]
    fn default_path_serves_unrouted_cells() {
        let mut cfg = one_link(None);
        cfg.default_path = Some(vec![0]);
        let mut bh = Backhaul::new(cfg);
        bh.submit(0, CellId(99), 1, 1500, ms(0));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(50), &mut report);
        assert_eq!(report.deliveries.len(), 1);
    }

    fn flap(link: &str, start_ms: u64, end_ms: u64, policy: FlapPolicy) -> LinkFlap {
        LinkFlap {
            link: link.into(),
            start_ms,
            end_ms,
            policy,
        }
    }

    #[test]
    fn draining_flap_holds_arrivals_until_the_window_closes() {
        let mut bh = Backhaul::new(one_link(None));
        bh.set_flaps(&[flap("agg", 0, 10, FlapPolicy::Drain)]);
        bh.submit(0, CellId(0), 1, 1500, ms(0));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(9), &mut report);
        assert!(report.deliveries.is_empty(), "held through the flap");
        // Serialisation restarts at the flap end: 10 + 1 ms + 5 ms prop.
        bh.tick(ms(16), &mut report);
        assert_eq!(report.deliveries.len(), 1);
        assert_eq!(report.deliveries[0].arrive_at, ms(16));
        assert_eq!(bh.link_stats(0).dropped_packets, 0);
    }

    #[test]
    fn dropping_flap_refuses_arrivals_at_admission() {
        let mut bh = Backhaul::new(one_link(None));
        bh.set_flaps(&[flap("agg", 0, 10, FlapPolicy::Drop)]);
        bh.submit(0, CellId(0), 1, 1500, ms(5));
        bh.submit(0, CellId(0), 2, 1500, ms(10));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(50), &mut report);
        // Packet 1 arrived inside the window and was refused; packet 2
        // arrived exactly at the (exclusive) end and crossed normally.
        assert_eq!(report.drops.len(), 1);
        assert_eq!(report.drops[0].packet_id, 1);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.packet_id).collect();
        assert_eq!(ids, vec![2]);
        assert_eq!(bh.dropped_bytes(), 1_500);
    }

    #[test]
    fn flapped_route_falls_back_to_the_default_path() {
        let cfg = BackhaulConfig {
            links: vec![
                BackhaulLinkSpec::new("main", 12e6, Duration::from_millis(5), 1_000_000),
                BackhaulLinkSpec::new("backup", 12e6, Duration::from_millis(20), 1_000_000),
            ],
            routes: vec![BackhaulRoute {
                cell: CellId(0),
                path: vec![0],
            }],
            default_path: Some(vec![1]),
        };
        let mut bh = Backhaul::new(cfg);
        bh.set_flaps(&[flap("main", 0, 100, FlapPolicy::Drain)]);
        bh.submit(0, CellId(0), 1, 1500, ms(0));
        bh.submit(0, CellId(0), 2, 1500, ms(150));
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(200), &mut report);
        let ids: Vec<u64> = report.deliveries.iter().map(|d| d.packet_id).collect();
        assert_eq!(ids, vec![1, 2]);
        // Packet 1 detoured over the backup link (1 ms + 20 ms prop);
        // packet 2, after the flap, used the main path again.
        assert_eq!(report.deliveries[0].arrive_at, ms(21));
        assert_eq!(report.deliveries[1].arrive_at, ms(156));
        assert_eq!(bh.link_stats(1).admitted_packets, 1);
        assert_eq!(bh.link_stats(0).admitted_packets, 1);
    }

    #[test]
    fn ingress_holds_one_run_per_server_delay() {
        // Three flows whose server delays are 5, 20 and 48 ms submit one
        // packet each per millisecond: their ingress times interleave, so
        // the ingress queue holds three sorted runs — never more — and the
        // link still sees its arrivals in ingress order.
        let mut bh = Backhaul::new(one_link(None));
        let mut report = BackhaulTickReport::default();
        let mut arrivals = Vec::new();
        let mut id = 0;
        for t in 0..100u64 {
            for (flow, delay) in [5u64, 20, 48].into_iter().enumerate() {
                id += 1;
                bh.submit(flow, CellId(0), id, 100, ms(t + delay));
            }
            assert!(bh.ingress.runs() <= 3);
            if t == 60 {
                assert_eq!(bh.ingress.runs(), 3, "the three delays interleave");
            }
            bh.tick(ms(t), &mut report);
            arrivals.extend(report.deliveries.iter().map(|d| d.arrive_at));
        }
        bh.tick(ms(1_000), &mut report);
        arrivals.extend(report.deliveries.iter().map(|d| d.arrive_at));
        assert_eq!(arrivals.len(), 300);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "one FIFO link");
    }

    proptest::proptest! {
        #[test]
        fn integer_delay_percentiles_match_the_float_percentiles(
            raw in proptest::collection::vec((0u64..4, 0u64..200_000), 0..60),
        ) {
            // Few distinct values in the first half of the draws, so
            // duplicates are common.
            let us: Vec<u64> = raw.iter().map(|&(k, x)| if k == 0 { x } else { k * 1_000 }).collect();
            let ms: Vec<f64> = us.iter().map(|&d| Duration::from_micros(d).as_millis_f64()).collect();
            let (p50, p95) = delay_percentiles_ms(&us);
            let reference = |p| pbe_stats::percentile(&ms, p).unwrap_or(0.0).to_bits();
            proptest::prop_assert_eq!(p50.to_bits(), reference(50.0));
            proptest::prop_assert_eq!(p95.to_bits(), reference(95.0));
        }
    }

    #[test]
    fn per_link_byte_conservation_holds_mid_run() {
        let mut cfg = one_link(None);
        cfg.links[0].queue_limit_bytes = 6_000;
        let mut bh = Backhaul::new(cfg);
        for id in 1..=10u64 {
            bh.submit(0, CellId(0), id, 1500, ms(0));
        }
        let mut report = BackhaulTickReport::default();
        bh.tick(ms(2), &mut report);
        let stats = bh.link_stats(0);
        let occ = bh.occupancy()[0];
        assert_eq!(stats.admitted_bytes, stats.forwarded_bytes + occ);
        assert_eq!(
            bh.submitted_bytes(),
            bh.delivered_bytes() + bh.dropped_bytes() + bh.in_transit_bytes()
        );
    }
}
