//! Per-layer replays and micro-kernels of the traced run.
//!
//! A layer that the engine calls once per subframe (the radio access
//! network, the backhaul) or once per receiver per subframe (the PDCCH
//! pipeline) cannot be wrapped in a proxy from outside, so it is *replayed*:
//! the benchmark builds the layer's public type from the workload's own
//! configuration, feeds it the traffic the real run carried, and times the
//! calls.  Replays run with warmer caches than the real run, so the shares
//! derived from them are approximate; the README says so.
//!
//! Everything here returns raw host nanoseconds.  The caller brackets each
//! replay with the reference kernel and scales.

use crate::trace::Tally;
use pbe_cc_algorithms::api::MSS_BYTES;
use pbe_cellular::channel::{ChannelModel, MobilityTrace};
use pbe_cellular::config::{CellId, Rnti, UeId};
use pbe_cellular::dci::DciMessage;
use pbe_cellular::network::{CellularNetwork, NetworkTickReport};
use pbe_cellular::scheduler::{Demand, DemandClass, EqualShareScheduler, ScheduleResult};
use pbe_cellular::shard::ShardedNetwork;
use pbe_core::capacity::CapacityEstimator;
use pbe_core::translate::RateTranslator;
use pbe_netsim::backhaul::BackhaulTickReport;
use pbe_netsim::{Backhaul, SchemeChoice, SimConfig, SimResult, WiredPath};
use pbe_pdcch::batch::DciBatcher;
use pbe_pdcch::decoder::{ControlChannelDecoder, DecoderConfig};
use pbe_pdcch::fusion::MessageFusion;
use pbe_pdcch::monitor::{CellSnapshot, CellStatusMonitor, MonitorConfig};
use pbe_stats::summary::FlowSummaryBuilder;
use pbe_stats::time::{Duration, Instant as SimInstant};
use pbe_stats::{DetRng, WorkerPool};
use std::hint::black_box;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One PBE receiver of the workload, as the PDCCH replay needs it.
#[derive(Debug, Clone, Copy)]
pub struct Receiver {
    /// Flow id.
    pub flow: u32,
    /// RNTI the network assigned to the flow's UE.
    pub rnti: Rnti,
    /// The UE's primary cell.
    pub cell: CellId,
    /// PRBs of that cell.
    pub total_prbs: u16,
}

/// What the cellular replay measured.
#[derive(Debug, Default)]
pub struct CellularReplay {
    /// Subframes ticked.
    pub subframes: u64,
    /// UEs registered.
    pub ues: u64,
    /// `tick_into` under the run's traffic, per 100 ms window.
    pub tick_windows: Vec<Tally>,
    /// DCI messages emitted.
    pub dcis: u64,
    /// Deliveries (and radio losses) reported.
    pub deliveries: u64,
    /// Heap allocations inside `tick_into` (traced binary only).
    pub allocs: u64,
    /// Every subframe's DCI stream, when capture was asked for.
    pub dci_log: Vec<Vec<DciMessage>>,
    /// The workload's PBE receivers.
    pub receivers: Vec<Receiver>,
}

impl CellularReplay {
    /// Whole-replay tally of the loaded ticks.
    pub fn tick(&self) -> Tally {
        self.tick_windows.iter().copied().sum()
    }
}

fn populate(cfg: &SimConfig) -> (CellularNetwork, Tally) {
    let mut net = CellularNetwork::new(cfg.cellular.clone(), cfg.load, cfg.seed);
    let population: Vec<_> = cfg.ues.clone();
    let t = Instant::now();
    for (ue, trace) in population {
        net.add_ue(ue, trace);
    }
    let add_ue = Tally {
        count: cfg.ues.len() as u64,
        busy_ns: ns_since(t),
    };
    for t in &cfg.trajectories {
        net.set_cell_trace(t.ue, t.cell, t.trace.clone());
    }
    (net, add_ue)
}

/// Replay the radio access network of `cfg`: the same cells and UEs, each
/// flow's UE fed packets at the rate the real run delivered them.
pub fn cellular(cfg: &SimConfig, result: &SimResult) -> CellularReplay {
    let total_ms = cfg.duration.as_millis();
    let (mut net, _) = populate(cfg);
    let mut out = CellularReplay {
        subframes: total_ms,
        ues: cfg.ues.len() as u64,
        ..CellularReplay::default()
    };
    let is_pbe = |s: &SchemeChoice| s.id() == pbe_core::PBE_SCHEME_ID;
    let capture = cfg.flows.iter().any(|f| is_pbe(&f.scheme));
    for flow in cfg.flows.iter().filter(|f| is_pbe(&f.scheme)) {
        let (ue_cfg, _) = cfg
            .ues
            .iter()
            .find(|(u, _)| u.id == flow.ue)
            .expect("flow UE configured");
        let cell = ue_cfg.primary_cell();
        out.receivers.push(Receiver {
            flow: flow.id,
            rnti: net.rnti_of(flow.ue).expect("UE registered"),
            cell,
            total_prbs: cfg
                .cellular
                .cell(cell)
                .expect("primary cell exists")
                .total_prbs(),
        });
    }

    // Packets per subframe per flow, as delivered (or lost on the radio) in
    // the real run; a fractional accumulator spreads them evenly.
    let feeds: Vec<(UeId, f64)> = cfg
        .flows
        .iter()
        .zip(&result.flows)
        .map(|(fc, fr)| (fc.ue, fr.packets_delivered as f64 / total_ms.max(1) as f64))
        .collect();
    let mut owed = vec![0.0f64; feeds.len()];
    let mut next_id = 1u64;
    let mut report = NetworkTickReport::default();
    for t_ms in 0..total_ms {
        let now = SimInstant::from_millis(t_ms);
        for ((ue, rate), owed) in feeds.iter().zip(owed.iter_mut()) {
            *owed += rate;
            while *owed >= 1.0 {
                *owed -= 1.0;
                net.enqueue_packet(*ue, next_id, MSS_BYTES as u32, now);
                next_id += 1;
            }
        }
        let allocs = alloc_counter::allocation_count();
        let t = Instant::now();
        net.tick_into(now, &mut report);
        let ns = ns_since(t);
        out.allocs += alloc_counter::allocation_count() - allocs;
        let w = (t_ms / crate::trace::WINDOW_MS) as usize;
        if w >= out.tick_windows.len() {
            out.tick_windows.resize(w + 1, Tally::default());
        }
        out.tick_windows[w].count += 1;
        out.tick_windows[w].busy_ns += ns;
        out.dcis += report.dci_messages.len() as u64;
        out.deliveries += report.deliveries.len() as u64;
        if capture {
            out.dci_log.push(report.dci_messages.clone());
        }
    }
    out
}

/// `add_ue` over the workload's whole population.
pub fn add_ues(cfg: &SimConfig) -> Tally {
    populate(cfg).1
}

/// The same population with nothing to send: what a subframe costs when
/// every UE is idle.
pub fn cellular_idle(cfg: &SimConfig) -> Tally {
    let (mut net, _) = populate(cfg);
    let mut report = NetworkTickReport::default();
    let mut tally = Tally::default();
    for t_ms in 0..cfg.duration.as_millis() {
        let t = Instant::now();
        net.tick_into(SimInstant::from_millis(t_ms), &mut report);
        tally.busy_ns += ns_since(t);
        tally.count += 1;
    }
    tally
}

/// Idle ticks of the same population on the two-shard engine; compare with
/// [`cellular_idle`].
pub fn sharded_idle(cfg: &SimConfig) -> Tally {
    let mut net = ShardedNetwork::new(cfg.cellular.clone(), cfg.load, cfg.seed, 2);
    for (ue, trace) in cfg.ues.clone() {
        net.add_ue(ue, trace);
    }
    for t in &cfg.trajectories {
        net.set_cell_trace(t.ue, t.cell, t.trace.clone());
    }
    let mut report = NetworkTickReport::default();
    let mut tally = Tally::default();
    for t_ms in 0..cfg.duration.as_millis() {
        let t = Instant::now();
        net.tick_into(SimInstant::from_millis(t_ms), &mut report);
        tally.busy_ns += ns_since(t);
        tally.count += 1;
    }
    tally
}

/// What the PDCCH replay measured.  Stage tallies count one call per
/// receiver per subframe.
#[derive(Debug, Default)]
pub struct PdcchReplay {
    /// `DciBatcher::batch`, one call per subframe.
    pub batch: Tally,
    /// `ControlChannelDecoder::decode_subframe`.
    pub decode: Tally,
    /// `MessageFusion::ingest`.
    pub fusion: Tally,
    /// `CellStatusMonitor::ingest`.
    pub monitor: Tally,
    /// Candidate positions the decoders examined.
    pub candidates: u64,
    /// Messages decoded.
    pub decoded: u64,
    /// Messages missed.
    pub missed: u64,
}

/// Replay the captured DCI stream through one decoder → fusion → monitor
/// chain per PBE receiver, each tuned to its UE's primary cell (handovers
/// are not followed: the replay prices the steady-state pipeline).
pub fn pdcch(cfg: &SimConfig, replay: &CellularReplay) -> PdcchReplay {
    let rng = DetRng::new(cfg.seed).split("decoders");
    let mut chains: Vec<_> = replay
        .receivers
        .iter()
        .map(|r| {
            let decoder = ControlChannelDecoder::new(
                r.cell,
                DecoderConfig {
                    total_prbs: r.total_prbs,
                    ..DecoderConfig::default()
                },
                rng.split_indexed("cell", u64::from(r.cell.0) << 16 | u64::from(r.flow)),
            );
            let fusion = MessageFusion::new(vec![r.cell]);
            let monitor =
                CellStatusMonitor::new(MonitorConfig::new(r.rnti, vec![(r.cell, r.total_prbs)]));
            (r.cell, decoder, fusion, monitor)
        })
        .collect();
    let mut out = PdcchReplay::default();
    let mut batcher = DciBatcher::new();
    for (subframe, messages) in replay.dci_log.iter().enumerate() {
        let subframe = subframe as u64;
        let t = Instant::now();
        let batch = batcher.batch(subframe, messages);
        out.batch.busy_ns += ns_since(t);
        out.batch.count += 1;
        for (cell, decoder, fusion, monitor) in chains.iter_mut() {
            let t0 = Instant::now();
            let decoded = decoder.decode_subframe(subframe, batch.cell_messages(*cell));
            let t1 = Instant::now();
            let fused = fusion.ingest(*cell, subframe, decoded);
            let t2 = Instant::now();
            for f in &fused {
                monitor.ingest(f);
            }
            let t3 = Instant::now();
            out.decode.busy_ns += (t1 - t0).as_nanos() as u64;
            out.fusion.busy_ns += (t2 - t1).as_nanos() as u64;
            out.monitor.busy_ns += (t3 - t2).as_nanos() as u64;
            out.decode.count += 1;
            out.fusion.count += 1;
            out.monitor.count += 1;
        }
    }
    for (_, decoder, _, monitor) in &chains {
        let stats = decoder.stats();
        out.candidates += stats.candidates_examined;
        out.decoded += stats.decoded;
        out.missed += stats.missed;
        black_box(monitor.snapshots());
    }
    out
}

/// What the backhaul replay measured.
#[derive(Debug, Default)]
pub struct BackhaulReplay {
    /// `submit` × n + `tick`, one call per subframe.
    pub step: Tally,
    /// Packets submitted.
    pub submitted: u64,
    /// Violations of `submitted = delivered + dropped + in transit`.
    pub violations: Vec<String>,
}

/// Replay the workload's backhaul topology under `packets_sent` packets
/// spread evenly over the run and the flows (each heading for its UE's
/// primary cell).  `None` when the workload has no backhaul.
pub fn backhaul(cfg: &SimConfig, packets_sent: u64) -> Option<BackhaulReplay> {
    let mut bh = Backhaul::new(cfg.backhaul.clone()?);
    let total_ms = cfg.duration.as_millis();
    let cells: Vec<(CellId, Duration)> = cfg
        .flows
        .iter()
        .map(|f| {
            let (ue, _) = cfg
                .ues
                .iter()
                .find(|(u, _)| u.id == f.ue)
                .expect("flow UE configured");
            (ue.primary_cell(), f.server_one_way_delay)
        })
        .collect();
    let per_ms = packets_sent as f64 / total_ms.max(1) as f64;
    let mut out = BackhaulReplay::default();
    let mut report = BackhaulTickReport::default();
    let (mut owed, mut next_flow) = (0.0f64, 0usize);
    for t_ms in 0..total_ms {
        let now = SimInstant::from_millis(t_ms);
        owed += per_ms;
        let t = Instant::now();
        while owed >= 1.0 {
            owed -= 1.0;
            let (cell, delay) = cells[next_flow];
            out.submitted += 1;
            bh.submit(
                next_flow,
                cell,
                out.submitted,
                MSS_BYTES as u32,
                now + delay,
            );
            next_flow = (next_flow + 1) % cells.len();
        }
        bh.tick(now, &mut report);
        out.step.busy_ns += ns_since(t);
        out.step.count += 1;
    }
    let accounted = bh.delivered_bytes() + bh.dropped_bytes() + bh.in_transit_bytes();
    if bh.submitted_bytes() != accounted {
        out.violations.push(format!(
            "backhaul replay: submitted {} bytes but delivered + dropped + in transit = {accounted}",
            bh.submitted_bytes()
        ));
    }
    Some(out)
}

/// Nanoseconds per operation of the workload-independent micro-kernels.
#[derive(Debug, Default)]
pub struct Micro {
    /// `EqualShareScheduler::schedule_into`, 48 data demands on 100 PRBs.
    pub scheduler_ns: f64,
    /// `ChannelModel::sample`.
    pub channel_sample_ns: f64,
    /// `CapacityEstimator::estimate`, two cells.
    pub estimate_ns: f64,
    /// `RateTranslator::translate` (table hit and miss mixed).
    pub translate_ns: f64,
    /// `WiredPath::send` + its share of `arrivals`.
    pub wired_ns: f64,
    /// `DetRng::uniform`.
    pub rng_ns: f64,
    /// `fnv1a_128`, MB/s over 1 MB.
    pub hash_mb_per_s: f64,
    /// `FlowSummaryBuilder::build` over 10,000 packets, µs.
    pub summary_us: f64,
    /// `WorkerPool::run_collect` on two workers, µs per no-op job.
    pub pool_us_per_job: f64,
}

fn per_op(rounds: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..rounds {
        f(i);
    }
    ns_since(t) as f64 / rounds as f64
}

/// Run every micro-kernel once (about 100 ms in all).
pub fn micro() -> Micro {
    let demands: Vec<Demand> = (0..48u32)
        .map(|i| Demand {
            ue: UeId(i + 1),
            rnti: Rnti(0x100 + i as u16),
            prbs: 1 + (i % 9) as u16,
            class: DemandClass::Data,
        })
        .collect();
    let mut scheduler = EqualShareScheduler::new();
    let mut schedule = ScheduleResult::default();
    let scheduler_ns = per_op(20_000, |_| {
        scheduler.schedule_into(100, black_box(&demands), &mut schedule);
    });

    let mut channel = ChannelModel::new(MobilityTrace::paper_mobility_walk(), 2, DetRng::new(11));
    let channel_sample_ns = per_op(200_000, |i| {
        black_box(channel.sample(SimInstant::from_millis(i)));
    });

    let snapshot = |cell: u16, own: f64| CellSnapshot {
        cell: CellId(cell),
        subframe: 40,
        total_prbs: 100,
        own_prbs: own,
        idle_prbs: 30.0,
        other_prbs: 70.0 - own,
        active_users: 3,
        detected_users: 5,
        own_bits_per_prb: 900.0,
        own_retransmission_fraction: 0.02,
    };
    let snapshots = [snapshot(0, 25.0), snapshot(1, 10.0)];
    let estimator = CapacityEstimator::new();
    let estimate_ns = per_op(500_000, |_| {
        black_box(estimator.estimate(black_box(&snapshots)));
    });

    let mut translator = RateTranslator::default();
    let translate_ns = per_op(200_000, |i| {
        black_box(translator.translate(20_000.0 + (i % 400) as f64 * 500.0, 1e-6));
    });

    let mut path = WiredPath::with_bottleneck(Duration::from_millis(20), 100e6, 500_000);
    let mut arrived = 0usize;
    let wired_ns = per_op(200_000, |i| {
        // Eight packets a subframe: 96 Mbit/s into a 100 Mbit/s link.
        let now = SimInstant::from_millis(i / 8);
        path.send(i, MSS_BYTES as u32, now);
        if i % 8 == 7 {
            arrived += path.arrivals(now).len();
        }
    });
    black_box(arrived);

    let mut rng = DetRng::new(5);
    let rng_ns = per_op(2_000_000, |_| {
        black_box(rng.uniform());
    });

    let megabyte: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
    let hash_ns = per_op(4, |_| {
        black_box(pbe_stats::fnv1a_128(black_box(&megabyte)));
    });

    let mut summary = FlowSummaryBuilder::new("bench");
    for i in 0..10_000u64 {
        summary.record_packet(
            SimInstant::from_micros(i * 100),
            MSS_BYTES,
            Duration::from_micros(20_000 + (i * 37) % 9_000),
        );
    }
    let summary_ns = per_op(20, |_| {
        black_box(summary.build());
    });

    // Two jobs per dispatch: what the two-shard engine asks of the pool on
    // every subframe.
    let pool = WorkerPool::new(2);
    let jobs = 2usize;
    let pool_ns = per_op(2_000, |_| {
        black_box(pool.run_collect(jobs, |i| i));
    });

    Micro {
        scheduler_ns,
        channel_sample_ns,
        estimate_ns,
        translate_ns,
        wired_ns,
        rng_ns,
        hash_mb_per_s: 1e9 / hash_ns,
        summary_us: summary_ns / 1e3,
        pool_us_per_job: pool_ns / 1e3 / jobs as f64,
    }
}
