//! The traced run of one workload: the per-layer metrics and the span file.
//!
//! Four parts.  (1) The workload untraced: the baseline the shares are taken
//! of, and the digests tracing must not change.  (2) The same runs behind the
//! proxies of [`crate::trace`], interleaved with (1): per-call times, counts
//! and shares of `cc` and `core`.  (3) The replays and micro-kernels of
//! [`crate::replay`]: `cellular`, `pdcch`, the backhaul, `stats`.  (4) For
//! `paper_sweep`, the harness layers around the simulations.
//!
//! Every duration is scaled to the nominal machine by the reference-kernel
//! runs that bracket it; a share is a ratio of two scaled durations, the
//! layer's over the untraced simulations'.

use crate::checks::result_digest;
use crate::estimator::{estimate, median, Estimate, Plan, Sample};
use crate::metrics::{Report, PAPER_SCHEMES, PER_LAYER};
use crate::refkernel::{RefKernel, REF_NOMINAL_MS};
use crate::replay;
use crate::runner::{
    account, account_sweep, render_csv, run_guarded, sweep_pass, sweep_stats, DigestGuard, Scratch,
    SweepPass,
};
use crate::trace::{clock_overhead_ns, plain_builder, traced_builder, Func, Sink, Tally, Trace};
use crate::workloads::{Horizon, Input, Workload};
use pbe_bench::artifact::{ResultStore, StoredPoint};
use pbe_bench::sweep::ScenarioSpec;
use pbe_netsim::{SimConfig, SimResult, Simulation};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` for the untraced passes, and again for the traced
/// ones; replays take what they take.
const PHASE_SHARE: f64 = 0.35;

/// Run `work` between two reference-kernel runs; returns its value and the
/// factor that scales a duration measured inside it to the nominal machine.
fn bracket<T>(kernel: &RefKernel, work: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel.run_ms();
    let value = work();
    let after = kernel.run_ms();
    (value, REF_NOMINAL_MS / ((before + after) / 2.0))
}

/// Calls and nominal nanoseconds of one layer function, summed over the
/// workload's points (each scaled by its own bracket).
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    calls: f64,
    ns: f64,
}

impl Acc {
    /// Add a raw tally: the clock's share of every call comes off, then the
    /// rest is scaled to the nominal machine.
    fn add(&mut self, tally: Tally, clock_ns: f64, factor: f64) {
        self.calls += tally.count as f64;
        self.ns += (tally.busy_ns as f64 - tally.count as f64 * clock_ns).max(0.0) * factor;
    }

    fn of(tally: Tally, clock_ns: f64, factor: f64) -> Acc {
        let mut acc = Acc::default();
        acc.add(tally, clock_ns, factor);
        acc
    }

    fn per_call_ns(&self) -> f64 {
        if self.calls == 0.0 {
            0.0
        } else {
            self.ns / self.calls
        }
    }
}

/// One traced pass over every point of the workload.
struct TracedPass {
    /// All points' sinks folded together.
    sink: Sink,
    /// Packets each point's senders released.
    sent: Vec<u64>,
    /// Host nanoseconds inside `run()`, all points.
    run_ns: u64,
}

/// Run every point behind the proxies.  Each point's result must carry the
/// digest the untraced run produced.
fn traced_pass(
    workload: &str,
    points: &[SimConfig],
    digests: &[String],
    burn: f64,
    report: &mut Report,
    trace: &mut Trace,
) -> TracedPass {
    let mut pass = TracedPass {
        sink: Sink::default(),
        sent: Vec::with_capacity(points.len()),
        run_ns: 0,
    };
    for (cfg, want) in points.iter().zip(digests) {
        let (builder, shared) = traced_builder(cfg, burn);
        let mut sim = builder.build();
        let started = Instant::now();
        let outcome = run_guarded(&mut sim);
        let ns = started.elapsed().as_nanos() as u64;
        // Dropping the simulation drops the proxies, which fold into the sink.
        drop(sim);
        let sink = match Arc::try_unwrap(shared) {
            Ok(mutex) => mutex.into_inner().unwrap_or_else(|p| p.into_inner()),
            Err(shared) => std::mem::take(&mut *shared.lock().unwrap_or_else(|p| p.into_inner())),
        };
        let mut violations = Vec::new();
        match &outcome {
            Ok(result) => {
                if result_digest(result) != *want {
                    violations.push("tracing changed the result digest".to_string());
                }
                // Every flow here has a controller, so the proxies saw every
                // packet leave: nothing arrives or is lost that was not sent.
                let settled = sink.events.delivered + sink.events.lost;
                if settled > sink.packets_sent {
                    violations.push(format!(
                        "{settled} packets delivered or lost but only {} sent",
                        sink.packets_sent
                    ));
                }
            }
            Err(panic) => violations.push(format!("traced simulation panicked: {panic}")),
        }
        report.attempt("traced run", violations);
        trace.sim_run(workload, ns, &sink);
        pass.run_ns += ns;
        pass.sent.push(sink.packets_sent);
        pass.sink.merge(sink);
    }
    pass
}

/// The `cc`, `core` and event-count metrics of one traced sample.  The two
/// shares are taken of `sims_ns`, the untraced simulations' nominal time, like
/// every other share: the traced pass's own time carries the proxies' cost.
fn proxy_metrics(
    pass: &TracedPass,
    sample: &Sample,
    clock_ns: f64,
    sim_seconds: f64,
    sims_ns: f64,
) -> Vec<(&'static str, f64)> {
    let f = sample.speed_factor();
    let acc = |t: Tally| Acc::of(t, clock_ns, f);
    let w = &pass.sink.windows;
    let (ack, send) = (w.total(Func::CcOnAck), w.total(Func::CcOnSend));
    let cc: Tally = [
        ack,
        send,
        w.total(Func::CcOnLoss),
        w.total(Func::CcOnSignal),
    ]
    .into_iter()
    .sum();
    let (rx_sub, rx_pkt) = (w.total(Func::RxOnSubframe), w.total(Func::RxOnPacket));
    let e = &pass.sink.events;
    let mut out = vec![
        ("cc.on_ack_ns", acc(ack).per_call_ns()),
        ("cc.on_send_ns", acc(send).per_call_ns()),
        (
            "cc.calls_per_sim_s",
            (cc.count + pass.sink.getter_calls) as f64 / sim_seconds,
        ),
        ("cc.share", acc(cc).ns / sims_ns),
        ("core.on_subframe_us", acc(rx_sub).per_call_ns() / 1e3),
        ("core.on_packet_ns", acc(rx_pkt).per_call_ns()),
        (
            "core.receiver_share",
            acc([rx_sub, rx_pkt].into_iter().sum()).ns / sims_ns,
        ),
        ("core.estimates_per_sim_s", e.estimates as f64 / sim_seconds),
        ("netsim.events_per_sim_s", e.events as f64 / sim_seconds),
        ("netsim.acks_per_sim_s", e.acks as f64 / sim_seconds),
        ("netsim.packets_per_sim_s", e.delivered as f64 / sim_seconds),
        ("netsim.handovers", e.handovers as f64),
        ("netsim.ca_events", e.ca_events as f64),
    ];
    for scheme in PAPER_SCHEMES {
        let (name, _, _) = PER_LAYER
            .iter()
            .find(|m| m.0.strip_prefix("cc.on_ack_ns.") == Some(scheme))
            .expect("every paper scheme has its metric");
        let tally = pass.sink.ack_by_scheme.get(scheme).copied();
        out.push((*name, acc(tally.unwrap_or_default()).per_call_ns()));
    }
    out
}

/// Nominal nanoseconds the replayed layers account for, all points.
#[derive(Debug, Default)]
struct LayerTime {
    tick_ns: f64,
    backhaul_ns: f64,
    /// decode + fusion + monitor, per receiver-subframe.
    pdcch_ns_per_call: f64,
}

/// Passes and time for the replay of the loaded radio tick, the one the
/// layer shares are taken from.
const LOADED_REPLAY: (usize, f64) = (3, 1.5);
/// Passes and time for the two idle replays.
const IDLE_REPLAY: (usize, f64) = (1, 0.5);

/// Nominal nanoseconds one pass of a replay takes: the median over as many
/// bracketed passes as `(at least, seconds)` allows.  `pass` replays every
/// point once and returns the host nanoseconds it timed.  One pass of
/// `metro_idle` is a second long and reads ±15 % on its own; one pass of
/// `radio_dense` is 20 ms, and fifty fit.
fn replay_ns(kernel: &RefKernel, plan: (usize, f64), mut pass: impl FnMut() -> u64) -> f64 {
    let (at_least, seconds) = plan;
    let est = estimate(
        Plan::within(at_least, 50, Duration::from_secs_f64(seconds)),
        || kernel.run_ms(),
        || pass() as f64 / 1e6,
    );
    est.normalised_ms() * 1e6
}

/// Replay every point's radio network, PDCCH stream and backhaul.  One pass
/// of a replay covers all points: the sweep's one-UE points are milliseconds
/// each, far shorter than the kernel.
#[allow(clippy::too_many_arguments)]
fn replay_metrics(
    kernel: &RefKernel,
    workload: &str,
    points: &[SimConfig],
    results: &[SimResult],
    sent: &[u64],
    clock_ns: f64,
    report: &mut Report,
    trace: &mut Trace,
) -> LayerTime {
    let (mut batch, mut decode, mut fusion, mut monitor) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let mut bh_step = Acc::default();
    let (mut candidates, mut decoded, mut missed) = (0u64, 0u64, 0u64);
    let (mut submitted, mut dropped, mut marked, mut sent_bh) = (0u64, 0u64, 0u64, 0u64);

    // The passes are deterministic: the counts and spans of the last one
    // stand for all.
    let mut cells: Vec<replay::CellularReplay> = Vec::new();
    let tick_ns = replay_ns(kernel, LOADED_REPLAY, || {
        cells = points
            .iter()
            .zip(results)
            .map(|(cfg, result)| replay::cellular(cfg, result))
            .collect();
        cells.iter().map(|cell| cell.tick().busy_ns).sum()
    });
    let idle_ns = replay_ns(kernel, IDLE_REPLAY, || {
        let ticks = points.iter().map(replay::cellular_idle);
        ticks.map(|t| t.busy_ns).sum()
    });
    let sharded_ns = replay_ns(kernel, IDLE_REPLAY, || {
        let ticks = points.iter().map(replay::sharded_idle);
        ticks.map(|t| t.busy_ns).sum()
    });
    let (added, f) = bracket(kernel, || points.iter().map(replay::add_ues).sum::<Tally>());
    // Adding a UE takes a microsecond; the clock's share of a whole
    // population's worth is noise.
    let add_ue = Acc::of(added, 0.0, f);

    let (mut subframes, mut ue_subframes, mut dcis, mut deliveries, mut allocs) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for cell in &cells {
        let loaded = cell.tick();
        subframes += cell.subframes as f64;
        ue_subframes += (cell.subframes * cell.ues) as f64;
        dcis += cell.dcis as f64;
        deliveries += cell.deliveries as f64;
        allocs += cell.allocs as f64;
        let root = trace.root("replay.cellular", workload, loaded.busy_ns, loaded.count);
        let starts: Vec<u64> = cell
            .tick_windows
            .iter()
            .scan(0u64, |at, w| {
                let start = *at;
                *at += w.busy_ns;
                Some(start)
            })
            .collect();
        trace.windows(
            root,
            "cellular.tick_into",
            &starts,
            cell.tick_windows.iter().copied(),
        );
    }

    let (pdcch, f) = bracket(kernel, || {
        points
            .iter()
            .zip(&cells)
            .filter(|(_, cell)| !cell.receivers.is_empty())
            .map(|(cfg, cell)| replay::pdcch(cfg, cell))
            .collect::<Vec<_>>()
    });
    for pd in &pdcch {
        batch.add(pd.batch, clock_ns, f);
        decode.add(pd.decode, clock_ns, f);
        fusion.add(pd.fusion, clock_ns, f);
        monitor.add(pd.monitor, clock_ns, f);
        candidates += pd.candidates;
        decoded += pd.decoded;
        missed += pd.missed;
        let stages: Tally = [pd.batch, pd.decode, pd.fusion, pd.monitor]
            .into_iter()
            .sum();
        let root = trace.root("replay.pdcch", workload, stages.busy_ns, pd.decode.count);
        for (name, tally) in [
            ("pdcch.batch", pd.batch),
            ("pdcch.decode_subframe", pd.decode),
            ("pdcch.fusion_ingest", pd.fusion),
            ("pdcch.monitor_ingest", pd.monitor),
        ] {
            trace.windows(root, name, &[0], std::iter::once(tally));
        }
    }

    let (backhauls, f) = bracket(kernel, || {
        points
            .iter()
            .zip(sent)
            .map(|(cfg, &sent)| replay::backhaul(cfg, sent))
            .collect::<Vec<_>>()
    });
    for ((bh, result), &sent) in backhauls.into_iter().zip(results).zip(sent) {
        let Some(bh) = bh else { continue };
        bh_step.add(bh.step, clock_ns, f);
        submitted += bh.submitted;
        sent_bh += sent;
        for link in &result.backhaul_links {
            dropped += link.stats.dropped_packets;
            marked += link.stats.marked_packets;
        }
        let root = trace.root("replay.backhaul", workload, bh.step.busy_ns, bh.step.count);
        trace.windows(
            root,
            "netsim.backhaul_submit_tick",
            &[0],
            std::iter::once(bh.step),
        );
        report.attempt("backhaul replay", bh.violations);
    }

    let subframes = subframes.max(1.0);
    report.set("cellular.tick_us_per_subframe", tick_ns / subframes / 1e3);
    report.set(
        "cellular.tick_ns_per_ue_subframe",
        tick_ns / ue_subframes.max(1.0),
    );
    report.set(
        "cellular.idle_tick_us_per_subframe",
        idle_ns / subframes / 1e3,
    );
    report.set("cellular.add_ue_us", add_ue.per_call_ns() / 1e3);
    report.set("cellular.shard2_speedup", idle_ns / sharded_ns);
    report.set("cellular.dcis_per_subframe", dcis / subframes);
    report.set("cellular.deliveries_per_subframe", deliveries / subframes);
    report.set("cellular.allocs_per_subframe", allocs / subframes);
    if decode.calls > 0.0 {
        report.set("pdcch.batch_ns_per_subframe", batch.per_call_ns());
        report.set("pdcch.decode_us_per_subframe", decode.per_call_ns() / 1e3);
        report.set("pdcch.fusion_ns_per_subframe", fusion.per_call_ns());
        report.set("pdcch.monitor_ns_per_subframe", monitor.per_call_ns());
        report.set(
            "pdcch.candidates_per_subframe",
            candidates as f64 / decode.calls,
        );
        report.set(
            "pdcch.decode_rate",
            decoded as f64 / (decoded + missed).max(1) as f64,
        );
    }
    if bh_step.calls > 0.0 {
        report.set(
            "netsim.backhaul_ns_per_packet",
            bh_step.ns / submitted.max(1) as f64,
        );
        report.set(
            "netsim.backhaul_us_per_subframe",
            bh_step.per_call_ns() / 1e3,
        );
        let sent = sent_bh.max(1) as f64;
        report.set("netsim.backhaul_drop_frac", dropped as f64 / sent);
        report.set("netsim.backhaul_mark_frac", marked as f64 / sent);
    }
    LayerTime {
        tick_ns,
        backhaul_ns: bh_step.ns,
        pdcch_ns_per_call: decode.per_call_ns() + fusion.per_call_ns() + monitor.per_call_ns(),
    }
}

/// The harness layers around the sweep's simulations.
#[allow(clippy::too_many_arguments)]
fn harness_metrics(
    kernel: &RefKernel,
    workload: &Workload,
    seed: u64,
    specs: &[ScenarioSpec],
    pass: &SweepPass,
    warm_ms: f64,
    scratch: &Scratch,
    report: &mut Report,
) -> std::io::Result<()> {
    let n = specs.len().max(1) as f64;
    // Building the grid and expanding it: the workload's own generator.
    let (expand_ns, f) = bracket(kernel, || {
        let started = Instant::now();
        for _ in 0..20 {
            black_box(workload.input(seed, Horizon::Full));
        }
        started.elapsed().as_nanos() as f64 / 20.0
    });
    report.set("bench.expand_us_per_point", expand_ns * f / n / 1e3);

    let (key_ns, f) = bracket(kernel, || {
        let started = Instant::now();
        for spec in specs {
            black_box(spec.content_key());
        }
        started.elapsed().as_nanos() as f64
    });
    report.set("bench.content_key_us_per_point", key_ns * f / n / 1e3);

    // Store I/O against a second store, filled from the cold pass's outcomes.
    let points: Vec<StoredPoint> = pass
        .cold
        .report
        .outcomes
        .iter()
        .map(|o| StoredPoint {
            key: o.key.clone(),
            spec: o.spec.clone(),
            result: o.result.clone(),
        })
        .collect();
    let dir = scratch.path("store-io");
    let (io, f) = bracket(kernel, || -> std::io::Result<[f64; 3]> {
        let mut store = ResultStore::open(&dir)?;
        let started = Instant::now();
        for point in &points {
            store.insert("bench", point)?;
        }
        let insert_ns = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        let reopened = ResultStore::open(&dir)?;
        let open_ns = started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for point in &points {
            black_box(reopened.get(&point.key));
        }
        Ok([insert_ns, open_ns, started.elapsed().as_nanos() as f64])
    });
    let [insert_ns, open_ns, get_ns] = io?;
    report.set("bench.store_insert_us_per_point", insert_ns * f / n / 1e3);
    report.set("bench.store_open_ms", open_ns * f / 1e6);
    report.set("bench.store_get_us_per_point", get_ns * f / n / 1e3);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir.join("points"))? {
        bytes += entry?.metadata()?.len();
    }
    report.set("bench.store_bytes_per_point", bytes as f64 / n);

    let (render_ms, f) = bracket(kernel, || {
        render_csv(&pass.cold.report, &scratch.path("csv"))
    });
    report.set("bench.render_ms", render_ms? * f);

    report.set("bench.warm_rerun_ms_per_point", warm_ms / n);
    report.set("bench.cache_hit_frac", pass.warm.cached as f64 / n);
    report.set("bench.sim_share", pass.cold.report.busy_ms / pass.cold_ms);
    let (pbe_goodput, pbe_p95) = sweep_stats(&pass.cold.report, "PBE");
    let (bbr_goodput, bbr_p95) = sweep_stats(&pass.cold.report, "BBR");
    report.set("core.pbe_vs_bbr_tput_ratio", pbe_goodput / bbr_goodput);
    report.set("core.pbe_vs_bbr_p95_delay_ratio", pbe_p95 / bbr_p95);
    Ok(())
}

/// What one untraced baseline sample leaves behind.
#[derive(Default)]
struct BaselineSample {
    /// Wall milliseconds inside the simulations alone (for the sweep, the
    /// harness around them excluded).
    sims_ms: f64,
    /// Heap allocations inside the simulations (for the sweep, the whole cold
    /// pass); counted in the traced binary only.
    allocs: u64,
    /// The sweep's warm pass, wall milliseconds.
    warm_ms: f64,
}

/// What one sample of the interleaved estimate was.
enum Pass {
    Untraced(BaselineSample),
    Traced(TracedPass),
}

/// One sample of the interleaved estimate.
struct Taken {
    /// Whether the `--sensitivity` burn observer was attached.
    burned: bool,
    pass: Pass,
}

/// The layer shares of the untraced simulations' time.
fn layer_shares(
    sims_ns: f64,
    receiver_share: f64,
    cc_share: f64,
    layers: &LayerTime,
) -> [(&'static str, f64); 4] {
    let tick_share = layers.tick_ns / sims_ns;
    // What is left is the driver loop itself: pacing, packet bookkeeping,
    // the metrics collector, observers.  Approximate: replays run warm.
    let residual = 1.0 - tick_share - receiver_share - cc_share - layers.backhaul_ns / sims_ns;
    [
        ("cellular.tick_share", tick_share),
        ("core.receiver_share", receiver_share),
        ("cc.share", cc_share),
        ("netsim.driver_residual_share", residual),
    ]
}

/// Run one workload traced for about `seconds`; writes
/// `<out_dir>/trace-<workload>.json` and reports the per-layer metrics.
///
/// Under a `burn` (`--sensitivity`) the record describes the burned passes,
/// and the second value carries the layer shares of the plain passes that
/// were interleaved with them (empty otherwise).
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    burn: f64,
    out_dir: &Path,
) -> std::io::Result<(Report, Vec<(&'static str, f64)>)> {
    let kernel = RefKernel::new();
    let clock_ns = clock_overhead_ns();
    let mut report = Report::default();
    let scratch = Scratch::new(out_dir)?;
    let phase = Duration::from_secs_f64(seconds * PHASE_SHARE);

    let ((input, gen_ms), f) = bracket(&kernel, || {
        let started = Instant::now();
        let input = workload.input(seed, Horizon::Full);
        (input, started.elapsed().as_secs_f64() * 1e3)
    });
    report.set("netsim.config_gen_ms", gen_ms * f);
    let sim_seconds = input.sim_seconds();
    let points: Vec<SimConfig> = match &input {
        Input::Sim(cfg) => vec![(**cfg).clone()],
        Input::Sweep(specs) => specs.iter().map(ScenarioSpec::sim_config).collect(),
    };
    // The burn hangs on one simulation's subframes; the sweep has none.
    let burn = match &input {
        Input::Sim(_) => burn,
        Input::Sweep(_) => 0.0,
    };

    // (1) + (2) Untraced and traced passes, interleaved so that the baseline
    // and what is compared with it come from the same minutes of machine
    // time: untraced, traced, untraced, … each traced pass checked against
    // the digests of the untraced pass before it.  Under a burn the cycle is
    // four long: both kinds plain, then both kinds burned.
    let mut guard = DigestGuard::default();
    let mut results: Vec<SimResult> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut taken: Vec<Taken> = Vec::new();
    let mut last_pass: Option<SweepPass> = None;
    let mut trace = Trace::default();
    let mut io_error = None;
    let kinds = if burn > 0.0 { 4 } else { 2 };
    let both: Estimate = estimate(
        Plan::within(3 * kinds, 200, phase * 2),
        || kernel.run_ms(),
        || {
            let turn = taken.len() % kinds;
            let burned = turn >= 2;
            let burn = if burned { burn } else { 0.0 };
            if turn % 2 == 1 && digests.len() == points.len() {
                // The spans of the newest traced pass are the ones kept.
                trace = Trace::default();
                let pass = traced_pass(
                    workload.name,
                    &points,
                    &digests,
                    burn,
                    &mut report,
                    &mut trace,
                );
                let ms = pass.run_ns as f64 / 1e6;
                taken.push(Taken {
                    burned,
                    pass: Pass::Traced(pass),
                });
                return ms;
            }
            let (ms, sample) = match &input {
                Input::Sim(cfg) => {
                    let mut sim = plain_builder(cfg, burn).build();
                    let before = alloc_counter::allocation_count();
                    let started = Instant::now();
                    let outcome = run_guarded(&mut sim);
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    let allocs = alloc_counter::allocation_count() - before;
                    account(&mut report, &mut guard, cfg, &outcome);
                    if let Ok(result) = outcome {
                        results = vec![result];
                    }
                    let sample = BaselineSample {
                        sims_ms: ms,
                        allocs,
                        warm_ms: 0.0,
                    };
                    (ms, sample)
                }
                Input::Sweep(specs) => match sweep_pass(specs, scratch.path("store")) {
                    Ok(pass) => {
                        account_sweep(&mut report, &mut guard, specs, &pass);
                        let outcomes = &pass.cold.report.outcomes;
                        results = outcomes.iter().map(|o| o.result.clone()).collect();
                        let sample = BaselineSample {
                            sims_ms: pass.cold.report.busy_ms,
                            allocs: pass.cold_allocs,
                            warm_ms: pass.warm_ms,
                        };
                        let ms = pass.cold_ms;
                        last_pass = Some(pass);
                        (ms, sample)
                    }
                    Err(e) => {
                        io_error = Some(e);
                        (f64::NAN, BaselineSample::default())
                    }
                },
            };
            if digests.is_empty() && results.len() == points.len() {
                digests = results.iter().map(result_digest).collect();
            }
            taken.push(Taken {
                burned,
                pass: Pass::Untraced(sample),
            });
            ms
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    // The kept samples of one burn setting: untraced, traced.
    let split = |burned: bool| {
        let mut untraced: Vec<(&Sample, &BaselineSample)> = Vec::new();
        let mut traced: Vec<(&Sample, &TracedPass)> = Vec::new();
        for s in &both.samples {
            match &taken[s.taken] {
                t if t.burned != burned => {}
                Taken {
                    pass: Pass::Untraced(b),
                    ..
                } => untraced.push((s, b)),
                Taken {
                    pass: Pass::Traced(pass),
                    ..
                } => traced.push((s, pass)),
            }
        }
        (untraced, traced)
    };
    // Nominal nanoseconds of the workload's simulations, untraced; and the
    // medians of the proxy metrics over the traced passes.
    let summarise = |untraced: &[(&Sample, &BaselineSample)], traced: &[(&Sample, &TracedPass)]| {
        let sims_ns = median(
            untraced
                .iter()
                .map(|(s, b)| b.sims_ms * 1e6 * s.speed_factor()),
        );
        let per_sample: Vec<Vec<(&'static str, f64)>> = traced
            .iter()
            .map(|(s, pass)| proxy_metrics(pass, s, clock_ns, sim_seconds, sims_ns))
            .collect();
        let proxies: Vec<(&'static str, f64)> = per_sample[0]
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (*name, median(per_sample.iter().map(|m| m[i].1))))
            .collect();
        (sims_ns, proxies)
    };
    let (baseline, traced) = split(burn > 0.0);
    let (Some((_, last_baseline)), Some((_, newest))) = (baseline.last(), traced.last()) else {
        report.attempt(
            "baseline",
            vec!["no untraced and traced pass to compare".to_string()],
        );
        report.complete_per_layer();
        return Ok((report, Vec::new()));
    };
    let (sims_ns, proxies) = summarise(&baseline, &traced);
    let traced_ns = median(
        traced
            .iter()
            .map(|(s, _)| s.raw_ms * 1e6 * s.speed_factor()),
    );
    report.set("bench.trace_overhead_frac", traced_ns / sims_ns - 1.0);
    for (name, value) in &proxies {
        report.set(name, *value);
    }

    // (3) Replays and micro-kernels.
    let layers = replay_metrics(
        &kernel,
        workload.name,
        &points,
        &results,
        &newest.sent,
        clock_ns,
        &mut report,
        &mut trace,
    );
    let proxy_share = |proxies: &[(&'static str, f64)], name: &str| {
        let found = proxies.iter().find(|m| m.0 == name);
        found.map_or(0.0, |m| m.1)
    };
    let shares_of = |sims_ns: f64, proxies: &[(&'static str, f64)]| {
        layer_shares(
            sims_ns,
            proxy_share(proxies, "core.receiver_share"),
            proxy_share(proxies, "cc.share"),
            &layers,
        )
    };
    let shares = shares_of(sims_ns, &proxies);
    report.set("cellular.tick_share", shares[0].1);
    report.set("netsim.driver_residual_share", shares[3].1);
    let rx_calls = newest.sink.windows.total(Func::RxOnSubframe).count as f64;
    report.set(
        "core.self_share",
        shares[1].1 - layers.pdcch_ns_per_call * rx_calls / sims_ns,
    );
    // Under a burn: the same shares from the plain passes, for comparison.
    let unburned_shares = if burn > 0.0 {
        let (plain_untraced, plain_traced) = split(false);
        if plain_untraced.is_empty() || plain_traced.is_empty() {
            Vec::new()
        } else {
            let (plain_ns, plain_proxies) = summarise(&plain_untraced, &plain_traced);
            shares_of(plain_ns, &plain_proxies).to_vec()
        }
    } else {
        Vec::new()
    };

    let (m, f) = bracket(&kernel, replay::micro);
    report.set("cellular.scheduler_ns_per_call", m.scheduler_ns * f);
    report.set("cellular.channel_sample_ns", m.channel_sample_ns * f);
    report.set("core.estimate_ns", m.estimate_ns * f);
    report.set("core.translate_ns", m.translate_ns * f);
    report.set("netsim.wired_ns_per_packet", m.wired_ns * f);
    report.set("stats.rng_ns_per_draw", m.rng_ns * f);
    report.set("stats.hash_mb_per_s", m.hash_mb_per_s / f);
    report.set("stats.summary_us_per_10k", m.summary_us * f);
    report.set("stats.pool_dispatch_us_per_job", m.pool_us_per_job * f);

    let one_subframe: Vec<SimConfig> = match workload.input(seed, Horizon::OneSubframe) {
        Input::Sim(cfg) => vec![*cfg],
        Input::Sweep(specs) => specs.iter().map(ScenarioSpec::sim_config).collect(),
    };
    let (build_ms, f) = bracket(&kernel, || {
        let started = Instant::now();
        for cfg in one_subframe {
            black_box(Simulation::new(cfg).run());
        }
        started.elapsed().as_secs_f64() * 1e3
    });
    report.set("netsim.build_ms", build_ms * f / points.len() as f64);
    report.set(
        "netsim.allocs_per_sim_s",
        last_baseline.allocs as f64 / sim_seconds,
    );
    let json_bytes: usize = results
        .iter()
        .map(|r| serde_json::to_string(r).expect("results serialize").len())
        .sum();
    report.set("netsim.result_json_kb", json_bytes as f64 / 1024.0);

    // (4) The harness, for the sweep.
    if let (Input::Sweep(specs), Some(pass)) = (&input, &last_pass) {
        let warm_ms = median(baseline.iter().map(|(s, b)| b.warm_ms * s.speed_factor()));
        harness_metrics(
            &kernel,
            workload,
            seed,
            specs,
            pass,
            warm_ms,
            &scratch,
            &mut report,
        )?;
    }

    report.set("bench.machine_speed_index", both.machine_speed_index());
    report.set("bench.ref_kernel_cv", both.ref_cv());
    report.set("bench.samples", both.samples.len() as f64);
    report.set("bench.samples_discarded", both.discarded as f64);
    let raw_per_sim_s = || baseline.iter().map(|(s, _)| s.raw_ms / sim_seconds);
    report.set(
        "bench.raw_host_ms_per_sim_s_min",
        raw_per_sim_s().fold(f64::INFINITY, f64::min),
    );
    report.set("bench.raw_host_ms_per_sim_s_p50", median(raw_per_sim_s()));

    std::fs::write(
        out_dir.join(format!("trace-{}.json", workload.name)),
        serde_json::to_string(&trace).expect("spans serialize"),
    )?;
    report.complete_per_layer();
    Ok((report, unburned_shares))
}
