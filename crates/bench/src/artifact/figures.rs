//! Grid builders and table renderers for the registered figures.
//!
//! Each figure contributes two pure functions: `*_grid(seconds)` — the
//! [`SweepGrid`] the figure's evaluation expands from — and
//! `render_*(report, seconds, writer)` — the table emission that turns a
//! [`SweepReport`] into the figure's files.  `pbe-bench artifact` runs every
//! figure through these two functions, so a figure's CSV is identical
//! whether its points were freshly simulated or served out of the result
//! store.  The split is the pipeline's contract: grids depend only on
//! `seconds`, renderers only on the report and `seconds`, and nothing in
//! between may touch a clock, a thread count or the store.  The figures
//! that run no simulation (Figs. 6, 7 and 11) have an empty grid and compute
//! their tables in the renderer.

use crate::scenarios::{high_throughput_schemes, paper_schemes};
use crate::sweep::{CityScale, Fanout, ReportWriter, ScenarioSpec, SweepGrid, SweepReport};
use crate::table::TextTable;
use crate::{Location, LocationKind, ScenarioLibrary};
use pbe_cc_algorithms::api::SchemeName;
use pbe_cellular::channel::{ber_from_sinr, tb_error_probability, MobilityTrace, NOISE_FLOOR_DBM};
use pbe_cellular::config::{CellId, CellularConfig, Rnti, UeConfig, UeId};
use pbe_cellular::dci::{DciFormat, DciMessage};
use pbe_cellular::mcs::{bits_per_prb, transport_block_size};
use pbe_cellular::traffic::{BackgroundTraffic, CellLoadProfile};
use pbe_core::translate::RateTranslator;
use pbe_netsim::{
    AppModel, CellOutage, DecodeLossBurst, FaultSchedule, FlowConfig, PrbInterval, SchemeChoice,
    SimResult,
};
use pbe_pdcch::fusion::FusedSubframe;
use pbe_pdcch::monitor::{CellStatusMonitor, MonitorConfig};
use pbe_stats::jain::jain_index;
use pbe_stats::percentile::median;
use pbe_stats::time::{Duration, Instant};
use pbe_stats::{Cdf, DetRng};
use std::collections::{HashMap, HashSet};
use std::io;

/// The grid of a figure that runs no simulation: it computes its tables in
/// its renderer, so there is nothing to expand, execute or store.
pub fn no_simulation_grid(_seconds: u64) -> SweepGrid {
    SweepGrid::over(Vec::new())
}

// ---------------------------------------------------------------------------
// fig2_carrier_aggregation
// ---------------------------------------------------------------------------

const LOAD_STEP_LABEL: &str = "Fig2 40 -> 6 Mbit/s load step";

/// Figure 2: a fixed-rate sender offers 40 Mbit/s for two seconds — more
/// than the primary cell carries on this weak link, so a queue builds and a
/// secondary cell activates — then 6 Mbit/s until the end at 5 s, and the
/// secondary cell deactivates.  The load step is the figure, so `seconds`
/// is ignored.
pub fn load_step_grid(_seconds: u64) -> SweepGrid {
    let ue = UeId(1);
    // Weak channel so 40 Mbit/s genuinely exceeds the primary cell's share.
    let rssi = -103.0;
    let duration = Duration::from_secs(5);
    let constant_rate = |id, bps, start, stop| {
        FlowConfig {
            app: AppModel::ConstantRate(bps),
            ..FlowConfig::bulk(id, ue, SchemeChoice::FixedRate, duration)
        }
        .with_lifetime(start, stop)
    };
    let spec = ScenarioSpec::new(LOAD_STEP_LABEL, SchemeChoice::FixedRate, duration)
        .cellular(CellularConfig {
            ca_activation_subframes: 100,
            ca_deactivation_subframes: 300,
            ..CellularConfig::default()
        })
        .seed(2)
        .ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, rssi),
            MobilityTrace::stationary(rssi),
        )
        .flow(constant_rate(1, 40e6, Instant::ZERO, Instant::from_secs(2)))
        .flow(constant_rate(
            2,
            6e6,
            Instant::from_secs(2),
            Instant::from_secs(5),
        ));
    SweepGrid::over(vec![spec])
}

/// Figure 2 renderer: the 40 Mbit/s flow's 100 ms delay/throughput timeline
/// and the carrier (de)activation events.
pub fn render_load_step(
    report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let result = &report.outcomes.first().expect("the load step ran").result;
    let flow = &result.flows[0];
    let mut table = TextTable::new(&["t (s)", "delay (ms)", "tput (Mbit/s)"]);
    let windows = flow
        .throughput_timeline_mbps
        .iter()
        .zip(&flow.delay_timeline_ms);
    for (i, (tput, delay)) in windows.enumerate() {
        table.row(&[
            format!("{:.1}", i as f64 * 0.1),
            delay
                .map(|d| format!("{d:.1}"))
                .unwrap_or_else(|| "-".into()),
            format!("{tput:.1}"),
        ]);
    }
    writer.table(
        "fig2_load_step",
        "Fig2: 40 Mbit/s offered load for 2 s, then 6 Mbit/s (100 ms windows)",
        &table,
    )?;
    writer.note("Carrier aggregation events:");
    for e in &result.ca_events {
        let what = if e.activated {
            "activated"
        } else {
            "deactivated"
        };
        writer.note(&format!(
            "  t = {:.2} s: {what} {}",
            e.at.as_secs_f64(),
            e.cell
        ));
    }
    if result.ca_events.is_empty() {
        writer.note("  (none)");
    }
    writer.note(
        "\nPaper reference: secondary cell activated ~0.13 s after the 40 Mbit/s flow starts,",
    );
    writer.note(
        "queue drained within ~0.6 s, secondary cell deactivated after the rate drops to 6 Mbit/s.",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fig6_overhead (no simulation)
// ---------------------------------------------------------------------------

/// Figure 6 renderer: (a) retransmission and protocol overhead vs offered
/// load at two RSSI levels, and (b) transport-block error rate vs
/// transport-block size for the i.i.d.-BER model next to the simulated
/// channel.  Analytic: no simulation, and `seconds` is ignored.
pub fn render_overhead(
    _report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let translator = RateTranslator::default();
    let ber_strong = ber_from_sinr(-98.0 - NOISE_FLOOR_DBM);
    let ber_weak = ber_from_sinr(-113.0 - NOISE_FLOOR_DBM);
    let mut a = TextTable::new(&[
        "load (Mbit/s)",
        "retx ovh -98dBm (%)",
        "proto ovh (%)",
        "retx ovh -113dBm (%)",
    ]);
    for load_mbps in (5..=40).step_by(5) {
        let ct_bits_per_subframe = load_mbps as f64 * 1e6 / 1000.0;
        let (retx_strong, proto) = translator.overhead_fraction(ct_bits_per_subframe, ber_strong);
        let (retx_weak, _) = translator.overhead_fraction(ct_bits_per_subframe, ber_weak);
        a.row(&[
            format!("{load_mbps}"),
            format!("{:.1}", retx_strong * 100.0),
            format!("{:.1}", proto * 100.0),
            format!("{:.1}", retx_weak * 100.0),
        ]);
    }
    writer.table(
        "fig6a_overhead",
        "Fig6(a): capacity overhead vs offered load (RSSI -98 dBm and -113 dBm)",
        &a,
    )?;

    let mut b = TextTable::new(&[
        "TB size (kbit)",
        "BER 1e-6",
        "BER 2e-6",
        "BER 3e-6",
        "BER 5e-6",
        "sim -98dBm",
        "sim -113dBm",
    ]);
    for tb_kbit in (10..=70).step_by(10) {
        let mut row = vec![format!("{tb_kbit}")];
        for ber in [1e-6, 2e-6, 3e-6, 5e-6, ber_strong, ber_weak] {
            row.push(format!("{:.3}", tb_error_probability(tb_kbit * 1000, ber)));
        }
        b.row(&row);
    }
    writer.table(
        "fig6b_tb_error",
        "Fig6(b): transport-block error rate vs transport-block size",
        &b,
    )?;
    writer.note(
        "Paper reference: protocol overhead flat at 6.8%; retransmission overhead grows with load",
    );
    writer.note("and is larger on the weak (-113 dBm) link; TB error rate follows 1-(1-p)^L.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig7_active_users (no simulation)
// ---------------------------------------------------------------------------

/// Figure 7 renderer: the number of active users per 40 ms window on a busy
/// cell before and after the control-traffic filter (Ta > 1, Pa > 4), and
/// the distribution of per-user activity length and occupied PRBs.  Runs
/// the background-traffic generator through the cell-status monitor for
/// `seconds × 25` windows (no simulation).
pub fn render_active_users(
    _report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let windows = seconds * 25;
    let own = Rnti(0x0100);
    let mut bg = BackgroundTraffic::new(CellLoadProfile::busy(), DetRng::new(7));
    let mut monitor = CellStatusMonitor::new(MonitorConfig::new(own, vec![(CellId(0), 100)]));

    let mut raw_users = Vec::new();
    let mut filtered_users = Vec::new();
    // Per user: (PRBs granted, subframes active).
    let mut activity: HashMap<Rnti, (u64, u64)> = HashMap::new();

    for w in 0..windows {
        let mut per_window = HashSet::new();
        for sf in w * 40..(w + 1) * 40 {
            let mut msgs = Vec::new();
            for g in &bg.tick(sf) {
                per_window.insert(g.rnti);
                let e = activity.entry(g.rnti).or_insert((0, 0));
                e.0 += u64::from(g.prbs);
                e.1 += 1;
                msgs.push(DciMessage {
                    cell: CellId(0),
                    subframe: sf,
                    rnti: g.rnti,
                    format: if g.is_control {
                        DciFormat::Format1A
                    } else {
                        DciFormat::Format1
                    },
                    first_prb: 0,
                    num_prbs: g.prbs,
                    mcs: g.cqi.to_mcs(),
                    spatial_streams: 1,
                    new_data_indicator: true,
                    harq_process: 0,
                    tbs_bits: transport_block_size(g.prbs, g.cqi, 1),
                });
            }
            monitor.ingest(&FusedSubframe {
                subframe: sf,
                per_cell: vec![(CellId(0), msgs)],
            });
        }
        raw_users.push(per_window.len() as f64);
        let snap = monitor.snapshot(CellId(0)).expect("cell tracked");
        // Subtract ourselves: we transmitted nothing in this trace.
        filtered_users.push((snap.active_users - 1) as f64);
    }

    let raw = Cdf::from_samples(raw_users);
    let filtered = Cdf::from_samples(filtered_users);
    let mut a = TextTable::new(&["quantile", "all users", "Ta>1 & Pa>4"]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        a.row(&[
            format!("{q:.2}"),
            format!("{:.1}", raw.quantile(q).unwrap_or(0.0)),
            format!("{:.1}", filtered.quantile(q).unwrap_or(0.0)),
        ]);
    }
    a.row(&[
        "mean".into(),
        format!("{:.1}", raw.mean()),
        format!("{:.1}", filtered.mean()),
    ]);
    writer.table(
        "fig7a_active_users",
        &format!("Fig7(a): CDF of active users per 40 ms window ({windows} windows)"),
        &a,
    )?;

    let average_prbs = |(p, n): &(u64, u64)| *p as f64 / *n as f64;
    let share = |of: &dyn Fn(&(u64, u64)) -> bool| {
        activity.values().filter(|a| of(a)).count() as f64 / activity.len() as f64
    };
    let lens = Cdf::from_samples(activity.values().map(|(_, n)| *n as f64));
    let prbs = Cdf::from_samples(activity.values().map(average_prbs));
    let one_subframe = share(&|(_, n)| *n == 1);
    let four_prbs = share(&|a| (average_prbs(a) - 4.0).abs() < 0.5);
    let mut b = TextTable::new(&["quantile", "active length (ms)", "avg PRBs"]);
    for q in [0.25, 0.5, 0.682, 0.75, 0.9, 0.99] {
        b.row(&[
            format!("{q:.3}"),
            format!("{:.1}", lens.quantile(q).unwrap_or(0.0)),
            format!("{:.1}", prbs.quantile(q).unwrap_or(0.0)),
        ]);
    }
    writer.table(
        "fig7b_activity",
        "Fig7(b): per-user activity length and average occupied PRBs",
        &b,
    )?;
    writer.note(&format!(
        "Users active exactly 1 subframe: {:.1}% (paper: 68.2%)",
        one_subframe * 100.0
    ));
    writer.note(&format!(
        "Users averaging exactly 4 PRBs:  {:.1}% (paper: 47.7%)",
        four_prbs * 100.0
    ));
    writer.note(
        "\nPaper reference: ~15.8 users on average (max 28) before filtering, ~1.3 (max 7) after.",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fig8_retransmission_delay
// ---------------------------------------------------------------------------

const RETRANSMISSION_LOADS_MBPS: [f64; 3] = [6.0, 24.0, 36.0];

fn retransmission_label(load_mbps: f64) -> String {
    format!("Fig8 offered load {load_mbps:.0} Mbit/s")
}

/// Figure 8: one fixed-rate flow on a two-cell −99 dBm link at three offered
/// loads.  Higher loads build larger transport blocks, raising the block
/// error rate and so the share of packets that incur 8 ms (or multiples of
/// 8 ms) retransmission-plus-reordering delays.
pub fn retransmission_grid(seconds: u64) -> SweepGrid {
    let ue = UeId(1);
    let duration = Duration::from_secs(seconds);
    let scenarios = RETRANSMISSION_LOADS_MBPS
        .iter()
        .map(|&load_mbps| {
            ScenarioSpec::new(
                retransmission_label(load_mbps),
                SchemeChoice::FixedRate,
                duration,
            )
            .seed(8)
            .ue(
                UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -99.0),
                MobilityTrace::stationary(-99.0),
            )
            .flow(FlowConfig {
                app: AppModel::ConstantRate(load_mbps * 1e6),
                ..FlowConfig::bulk(1, ue, SchemeChoice::FixedRate, duration)
            })
        })
        .collect();
    SweepGrid::over(scenarios)
}

/// Figure 8 renderer: per-packet one-way delay order statistics per offered
/// load, plus the share of 100 ms windows whose *mean* delay sits more than
/// one 8 ms retransmission above the per-packet p10.
pub fn render_retransmission(
    report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "offered load (Mbit/s)",
        "p10 (ms)",
        "p50 (ms)",
        "p90 (ms)",
        "p95 (ms)",
        "max (ms)",
        "windows with mean > p10 + 8 ms (%)",
    ]);
    for load_mbps in RETRANSMISSION_LOADS_MBPS {
        let label = retransmission_label(load_mbps);
        let flow = &report
            .by_label(&label)
            .first()
            .unwrap_or_else(|| panic!("{label} ran"))
            .result
            .flows[0];
        let s = &flow.summary;
        let p10 = s.delay_percentiles_ms[0];
        let window_means: Vec<f64> = flow.delay_timeline_ms.iter().flatten().copied().collect();
        let slow = window_means.iter().filter(|d| **d > p10 + 8.0).count() as f64
            / window_means.len().max(1) as f64;
        table.row(&[
            format!("{load_mbps:.0}"),
            format!("{p10:.1}"),
            format!("{:.1}", s.delay_percentiles_ms[2]),
            format!("{:.1}", s.delay_percentiles_ms[4]),
            format!("{:.1}", s.p95_delay_ms),
            format!("{:.1}", s.max_delay_ms),
            format!("{:.1}", slow * 100.0),
        ]);
    }
    writer.table(
        "fig8_delay_vs_load",
        "Fig8: per-packet one-way delay vs offered load",
        &table,
    )?;
    writer.note(
        "Paper reference: at 6 Mbit/s only a few packets see the +8 ms retransmission delay;",
    );
    writer.note(
        "at 24 and 36 Mbit/s an increasing share of packets is delayed by multiples of 8 ms.",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fig11_cell_status (no simulation)
// ---------------------------------------------------------------------------

/// Figure 11 renderer: a day of cell status — (a) users with data activity
/// per hour on a 20 MHz and a 10 MHz cell, and (b) the CDF of the users'
/// physical data rate.  Runs the background-traffic generator for
/// `seconds × 1000` subframes per hour (no simulation); the diurnal *shape*
/// is what matters, and the default one simulated minute per hour samples
/// plenty of users.
pub fn render_cell_status(
    _report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let subframes_per_hour = seconds * 1000;
    let mut table = TextTable::new(&["hour", "20 MHz cell", "10 MHz cell"]);
    let mut all_rates = Vec::new();
    for hour in 0..24u64 {
        let factor = CellLoadProfile::diurnal_factor(hour as f64 + 0.5);
        let mut counts = Vec::new();
        for (cell_idx, base_scale) in [(0u64, 1.0), (1u64, 0.55)] {
            // The 10 MHz cell serves roughly half the users of the 20 MHz one
            // and is switched off by the operator between 00:00 and 03:00.
            let off = cell_idx == 1 && hour < 3;
            let profile =
                CellLoadProfile::busy().scaled(if off { 0.0 } else { factor * base_scale });
            let mut bg = BackgroundTraffic::new(profile, DetRng::new(1100 + hour * 10 + cell_idx));
            let mut data_users = HashSet::new();
            for sf in 0..subframes_per_hour {
                for g in bg.tick(sf) {
                    if !g.is_control {
                        data_users.insert(g.rnti);
                        all_rates.push(bits_per_prb(g.cqi, 1) / 1000.0); // Mbit/s per PRB
                    }
                }
            }
            counts.push(data_users.len());
        }
        table.row(&[
            format!("{hour}"),
            format!("{}", counts[0]),
            format!("{}", counts[1]),
        ]);
    }
    writer.table(
        "fig11a_users_per_hour",
        &format!(
            "Fig11(a): users with data activity per hour (sampled over {subframes_per_hour} subframes/hour)"
        ),
        &table,
    )?;

    let cdf = Cdf::from_samples(all_rates);
    let mut b = TextTable::new(&["rate (Mbit/s/PRB)", "CDF"]);
    for x in [0.2, 0.4, 0.6, 0.8, 0.9, 1.2, 1.6, 1.8] {
        b.row(&[format!("{x:.1}"), format!("{:.2}", cdf.eval(x))]);
    }
    writer.table(
        "fig11b_rate_cdf",
        "Fig11(b): CDF of per-user physical data rate (Mbit/s per PRB)",
        &b,
    )?;
    writer.note(&format!(
        "Fraction below half the 1.8 Mbit/s/PRB maximum: {:.1}% (paper: 71.9-77.4%)",
        cdf.eval(0.9) * 100.0
    ));
    writer
        .note("\nPaper reference: 12:00-20:00 average 181 (20 MHz) / 97 (10 MHz) users per hour,");
    writer.note("10 MHz cell off between 00:00 and 03:00; most users well below the peak rate.");
    Ok(())
}

// ---------------------------------------------------------------------------
// The §6.3.1 location library: fig12_location_cdf, fig15_ca_trigger, table1
// ---------------------------------------------------------------------------

/// Library locations Fig. 12 and Table 1 run (sampled evenly; the paper
/// runs all 40).
const LIBRARY_LOCATIONS: usize = 8;
/// CA-capable library locations Fig. 15 runs (the paper has 30).
const CA_LOCATIONS: usize = 6;

/// The report label of a library location.  Fig. 12, Fig. 15 and Table 1
/// all label their points with it, so a (location, scheme) point two of
/// them share has one content key and a store simulates it once.
fn location_label(loc: &Location) -> String {
    format!("location {}", loc.index)
}

/// Single-flow scenarios at `locations` crossed with `schemes`.
fn location_grid(
    locations: &[Location],
    schemes: impl IntoIterator<Item = SchemeChoice>,
    seconds: u64,
) -> SweepGrid {
    let duration = Duration::from_secs(seconds);
    let scenarios = locations
        .iter()
        .map(|loc| ScenarioSpec::from_location(location_label(loc), loc, duration))
        .collect();
    SweepGrid::over(scenarios).schemes(schemes)
}

/// The result of one (location, scheme) point.
fn location_result<'a>(
    report: &'a SweepReport,
    loc: &Location,
    scheme: &SchemeChoice,
) -> &'a SimResult {
    &report
        .outcome(&location_label(loc), scheme.id().as_str())
        .unwrap_or_else(|| panic!("{scheme} ran at {}", location_label(loc)))
        .result
}

/// The CA-capable locations of Fig. 15: the paper excludes its single-cell
/// Redmi 8 locations.
fn ca_locations() -> Vec<Location> {
    ScenarioLibrary::paper_40_locations()
        .locations()
        .iter()
        .filter(|l| l.aggregated_cells >= 2)
        .take(CA_LOCATIONS)
        .cloned()
        .collect()
}

/// Figure 12: the library subset × the four high-throughput schemes.
pub fn location_cdf_grid(seconds: u64) -> SweepGrid {
    location_grid(
        &ScenarioLibrary::subset(LIBRARY_LOCATIONS),
        high_throughput_schemes().into_iter().map(|(s, _)| s),
        seconds,
    )
}

/// Figure 12 renderer: CDFs across locations of average throughput and of
/// 95th-percentile one-way delay, one column per scheme.
pub fn render_location_cdf(
    report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let locations = ScenarioLibrary::subset(LIBRARY_LOCATIONS);
    let schemes = high_throughput_schemes();
    let mut header = vec!["quantile"];
    header.extend(schemes.iter().map(|(_, name)| *name));
    // One column per scheme, one sample per location.
    let (throughputs, delays): (Vec<Vec<f64>>, Vec<Vec<f64>>) = schemes
        .iter()
        .map(|(scheme, _)| -> (Vec<f64>, Vec<f64>) {
            locations
                .iter()
                .map(|loc| {
                    let s = &location_result(report, loc, scheme).flows[0].summary;
                    (s.avg_throughput_mbps, s.p95_delay_ms)
                })
                .unzip()
        })
        .unzip();
    let cdf_table = |columns: &[Vec<f64>], decimals: usize| {
        let mut table = TextTable::new(&header);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let mut row = vec![format!("{q:.2}")];
            for values in columns {
                let x = Cdf::from_samples(values.iter().copied())
                    .quantile(q)
                    .unwrap_or(0.0);
                row.push(format!("{x:.decimals$}"));
            }
            table.row(&row);
        }
        let mut mean_row = vec!["mean".to_string()];
        for values in columns {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            mean_row.push(format!("{mean:.decimals$}"));
        }
        table.row(&mean_row);
        table
    };
    let runs = format!(
        "{} locations x {seconds} s, paper: 40 x 20 s",
        locations.len()
    );
    writer.table(
        "fig12a_throughput_cdf",
        &format!("Fig12(a): CDF across locations of average throughput (Mbit/s; {runs})"),
        &cdf_table(&throughputs, 1),
    )?;
    writer.table(
        "fig12b_p95_delay_cdf",
        &format!("Fig12(b): CDF across locations of 95th-percentile one-way delay (ms; {runs})"),
        &cdf_table(&delays, 0),
    )?;
    writer.note(
        "Paper reference: PBE-CC achieves the highest throughput at most locations while its",
    );
    writer.note("95th-percentile delay CDF sits well to the left of BBR, CUBIC and Verus.");
    Ok(())
}

/// Figure 15: the CA-capable library locations × the paper's eight schemes.
pub fn ca_trigger_grid(seconds: u64) -> SweepGrid {
    location_grid(
        &ca_locations(),
        paper_schemes().into_iter().map(|(s, _)| s),
        seconds,
    )
}

/// Figure 15 renderer: at how many locations each scheme drives the network
/// to activate a secondary cell.  Conservative schemes never offer enough
/// load to trigger one, leaving capacity unused.
pub fn render_ca_trigger(
    report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let locations = ca_locations();
    let mut table = TextTable::new(&["scheme", "CA triggered", "not triggered"]);
    for (scheme, name) in paper_schemes() {
        let triggered = locations
            .iter()
            .filter(|loc| {
                location_result(report, loc, &scheme)
                    .ca_events
                    .iter()
                    .any(|e| e.activated)
            })
            .count();
        table.row(&[
            name.to_string(),
            format!("{triggered}"),
            format!("{}", locations.len() - triggered),
        ]);
    }
    writer.table(
        "fig15_ca_trigger",
        &format!(
            "Fig15: CA-capable locations = {}, {seconds} s per flow (paper: 30 locations, 20 s)",
            locations.len()
        ),
        &table,
    )?;
    writer
        .note("Paper reference: PBE-CC, BBR, Verus and CUBIC trigger carrier aggregation at most");
    writer.note("locations; Copa, PCC, PCC-Vivace and Sprout rarely do, under-utilising the link.");
    Ok(())
}

/// Table 1's comparators, in row order.
fn table1_comparators() -> [(SchemeChoice, &'static str); 3] {
    [
        (SchemeChoice::Baseline(SchemeName::Bbr), "BBR"),
        (SchemeChoice::Baseline(SchemeName::Verus), "Verus"),
        (SchemeChoice::Baseline(SchemeName::Copa), "Copa"),
    ]
}

/// Table 1: the library subset × PBE-CC and its three comparators.  Shares
/// its PBE/BBR/Verus points with Fig. 12.
pub fn table1_grid(seconds: u64) -> SweepGrid {
    let schemes = std::iter::once(SchemeChoice::Pbe).chain(table1_comparators().map(|(s, _)| s));
    location_grid(
        &ScenarioLibrary::subset(LIBRARY_LOCATIONS),
        schemes,
        seconds,
    )
}

/// Table 1 renderer: PBE-CC throughput speedup and delay reduction vs BBR,
/// Verus and Copa, averaged over busy and idle locations, plus the §6.3.1
/// "alternation between states" statistic (fraction of time PBE-CC spends
/// in the Internet-bottleneck state).
pub fn render_table1(report: &SweepReport, seconds: u64, writer: &ReportWriter) -> io::Result<()> {
    let locations = ScenarioLibrary::subset(LIBRARY_LOCATIONS);
    let summary = |loc: &Location, scheme: &SchemeChoice| {
        location_result(report, loc, scheme).flows[0]
            .summary
            .clone()
    };
    let mut table = TextTable::new(&[
        "Scheme",
        "Load",
        "PBE tput speedup",
        "p95 delay reduction",
        "avg delay reduction",
    ]);
    let mut internet_fraction = [(0.0, 0usize), (0.0, 0usize)]; // (busy, idle)
    for busy in [true, false] {
        let locs: Vec<&Location> = locations.iter().filter(|l| l.busy == busy).collect();
        if locs.is_empty() {
            continue;
        }
        let pbe: Vec<_> = locs
            .iter()
            .map(|l| summary(l, &SchemeChoice::Pbe))
            .collect();
        let slot = if busy { 0 } else { 1 };
        for p in &pbe {
            internet_fraction[slot].0 += p.internet_bottleneck_fraction;
            internet_fraction[slot].1 += 1;
        }
        for (scheme, name) in table1_comparators() {
            let (mut speedup, mut p95_red, mut avg_red) = (0.0, 0.0, 0.0);
            for (p, loc) in pbe.iter().zip(&locs) {
                let o = summary(loc, &scheme);
                speedup += p.throughput_speedup_vs(&o);
                p95_red += p.p95_delay_reduction_vs(&o);
                avg_red += p.avg_delay_reduction_vs(&o);
            }
            let n = locs.len() as f64;
            table.row(&[
                name.to_string(),
                if busy { "Busy".into() } else { "Idle".into() },
                format!("{:.2}x", speedup / n),
                format!("{:.2}x", p95_red / n),
                format!("{:.2}x", avg_red / n),
            ]);
        }
    }
    writer.table(
        "table1",
        &format!(
            "Table 1: PBE-CC vs BBR, Verus and Copa over {} locations x {seconds} s \
(paper: 40 x 20 s)",
            locations.len()
        ),
        &table,
    )?;
    writer.note("Alternation between states (fraction of time in Internet-bottleneck state):");
    for (label, (sum, count)) in ["busy", "idle"].iter().zip(internet_fraction) {
        if count > 0 {
            writer.note(&format!(
                "  {label:>4} links: {:.1}%",
                100.0 * sum / count as f64
            ));
        }
    }
    writer.note("\nPaper reference: busy 18%, idle 4%; speedups 1.04-1.10x vs BBR, 1.25-2.01x vs Verus, ~10-13x vs Copa.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig13_14_stationary
// ---------------------------------------------------------------------------

fn representative_locations() -> Vec<(&'static str, Location)> {
    let mk = |index, kind, cells, busy, rssi| Location {
        index,
        kind,
        aggregated_cells: cells,
        busy,
        rssi_dbm: rssi,
    };
    vec![
        (
            "Fig13a indoor 1CC busy",
            mk(100, LocationKind::Indoor, 1, true, -95.0),
        ),
        (
            "Fig13b indoor 2CC busy",
            mk(101, LocationKind::Indoor, 2, true, -93.0),
        ),
        (
            "Fig13c indoor 3CC busy",
            mk(102, LocationKind::Indoor, 3, true, -91.0),
        ),
        (
            "Fig13d indoor 3CC idle",
            mk(103, LocationKind::Indoor, 3, false, -91.0),
        ),
        (
            "Fig14a outdoor 2CC busy",
            mk(104, LocationKind::Outdoor, 2, true, -85.0),
        ),
        (
            "Fig14b outdoor 2CC idle",
            mk(105, LocationKind::Outdoor, 2, false, -85.0),
        ),
    ]
}

/// Figures 13/14: six representative stationary locations × the paper's
/// eight schemes.
pub fn stationary_grid(seconds: u64) -> SweepGrid {
    let duration = Duration::from_secs(seconds);
    let scenarios: Vec<ScenarioSpec> = representative_locations()
        .iter()
        .map(|(label, loc)| ScenarioSpec::from_location(*label, loc, duration))
        .collect();
    SweepGrid::over(scenarios).schemes(paper_schemes().into_iter().map(|(s, _)| s))
}

/// Figures 13/14 renderer: one order-statistics table per location.
pub fn render_stationary(
    report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    for (i, label) in report.labels().iter().enumerate() {
        let mut table = TextTable::new(&[
            "scheme",
            "tput p25",
            "tput p50",
            "tput p75",
            "delay p25 (ms)",
            "delay p50",
            "delay p75",
            "delay p95",
        ]);
        let mut rssi = 0.0;
        for outcome in report.by_label(label) {
            rssi = outcome.spec.ues[0].0.rssi_dbm;
            let s = &outcome.result.flows[0].summary;
            table.row(&[
                outcome.spec.scheme.to_string(),
                format!("{:.1}", s.throughput_percentiles_mbps[1]),
                format!("{:.1}", s.throughput_percentiles_mbps[2]),
                format!("{:.1}", s.throughput_percentiles_mbps[3]),
                format!("{:.0}", s.delay_percentiles_ms[1]),
                format!("{:.0}", s.delay_percentiles_ms[2]),
                format!("{:.0}", s.delay_percentiles_ms[3]),
                format!("{:.0}", s.p95_delay_ms),
            ]);
        }
        let name = format!("fig13_14_location_{i}");
        writer.table(&name, &format!("{label} (RSSI {rssi} dBm)"), &table)?;
    }
    writer.note(
        "\nPaper reference: PBE-CC and BBR have comparable (highest) throughput, with PBE-CC at",
    );
    writer.note("markedly lower delay; Verus high throughput but excessive delay; CUBIC erratic;");
    writer.note("Copa/PCC/Vivace/Sprout low throughput with low delay.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig16_17_mobility
// ---------------------------------------------------------------------------

const MOBILITY_LABEL: &str = "Fig16 mobility walk";

/// Figures 16/17: the paper's mobility walk (−85 → −105 → −85 dBm) × eight
/// schemes.
pub fn mobility_grid(seconds: u64) -> SweepGrid {
    let ue = UeId(1);
    let duration = Duration::from_secs(seconds);
    let scenario = ScenarioSpec::new(MOBILITY_LABEL, SchemeChoice::Pbe, duration)
        .load(CellLoadProfile::idle())
        .seed(16)
        .ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], 2, -85.0),
            MobilityTrace::paper_mobility_walk(),
        )
        .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration));
    SweepGrid::over(vec![scenario]).schemes(paper_schemes().into_iter().map(|(s, _)| s))
}

/// Figures 16/17 renderer: the all-scheme comparison plus the PBE/BBR
/// 2-second timeline.
pub fn render_mobility(
    report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scheme",
        "avg tput (Mbit/s)",
        "median delay (ms)",
        "p95 delay (ms)",
    ]);
    for outcome in report.by_label(MOBILITY_LABEL) {
        let s = &outcome.result.flows[0].summary;
        table.row(&[
            outcome.spec.scheme.to_string(),
            format!("{:.1}", s.avg_throughput_mbps),
            format!("{:.0}", s.delay_percentiles_ms[2]),
            format!("{:.0}", s.p95_delay_ms),
        ]);
    }
    writer.table("fig16_schemes", "Fig16: all schemes", &table)?;

    let pbe = &report
        .outcome(MOBILITY_LABEL, "PBE")
        .expect("PBE ran")
        .result;
    let bbr = &report
        .outcome(MOBILITY_LABEL, "BBR")
        .expect("BBR ran")
        .result;
    let mut t = TextTable::new(&["t (s)", "PBE tput", "PBE delay", "BBR tput", "BBR delay"]);
    let intervals = (seconds / 2) as usize;
    for i in 0..intervals {
        let slice = |r: &SimResult| {
            let f = &r.flows[0];
            let lo = i * 20;
            let hi = ((i + 1) * 20).min(f.throughput_timeline_mbps.len());
            let tput = median(&f.throughput_timeline_mbps[lo..hi]).unwrap_or(0.0);
            let delays: Vec<f64> = f.delay_timeline_ms[lo..hi]
                .iter()
                .flatten()
                .copied()
                .collect();
            (tput, median(&delays).unwrap_or(0.0))
        };
        let (pt, pd) = slice(pbe);
        let (bt, bd) = slice(bbr);
        t.row(&[
            format!("{}", i * 2),
            format!("{pt:.1}"),
            format!("{pd:.0}"),
            format!("{bt:.1}"),
            format!("{bd:.0}"),
        ]);
    }
    writer.table(
        "fig17_timeline",
        "Fig17: per-2-second median throughput and delay, PBE vs BBR",
        &t,
    )?;
    writer.note(
        "\nPaper reference: PBE-CC tracks the capacity drop (13-26 s) and recovery (26-30 s) with",
    );
    writer.note(
        "near-zero queueing; BBR overreacts to the drop and overshoots on recovery, inflating delay.",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fig18_19_competition
// ---------------------------------------------------------------------------

const COMPETITION_LABEL: &str = "Fig18 on-off competition";

/// Figures 18/19: a flow under test against an on-off 60 Mbit/s competitor,
/// × eight schemes.
pub fn competition_grid(seconds: u64) -> SweepGrid {
    let ue = UeId(1);
    let competitor = UeId(2);
    let duration = Duration::from_secs(seconds);
    let mut spec = ScenarioSpec::new(COMPETITION_LABEL, SchemeChoice::Pbe, duration)
        .load(CellLoadProfile::idle())
        .seed(18)
        .ue(
            UeConfig::new(ue, vec![CellId(0)], 1, -88.0),
            MobilityTrace::stationary(-88.0),
        )
        .ue(
            UeConfig::new(competitor, vec![CellId(0)], 1, -88.0),
            MobilityTrace::stationary(-88.0),
        )
        .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration));
    // Competing 60 Mbit/s flow for 4 s out of every 8 s, on a second device.
    let mut id = 100;
    let mut t = 4u64;
    while t + 4 <= seconds {
        spec = spec.background_flow(
            FlowConfig {
                app: AppModel::ConstantRate(60e6),
                ..FlowConfig::bulk(id, competitor, SchemeChoice::FixedRate, duration)
            }
            .with_lifetime(Instant::from_secs(t), Instant::from_secs(t + 4)),
        );
        id += 1;
        t += 8;
    }
    SweepGrid::over(vec![spec]).schemes(paper_schemes().into_iter().map(|(s, _)| s))
}

/// Figures 18/19 renderer: all-scheme comparison plus the PBE/BBR 200 ms
/// timeline with the competitor's on-intervals marked.
pub fn render_competition(
    report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scheme",
        "avg tput (Mbit/s)",
        "avg delay (ms)",
        "p95 delay (ms)",
    ]);
    for outcome in report.by_label(COMPETITION_LABEL) {
        let s = &outcome.result.flows[0].summary;
        table.row(&[
            outcome.spec.scheme.to_string(),
            format!("{:.1}", s.avg_throughput_mbps),
            format!("{:.0}", s.avg_delay_ms),
            format!("{:.0}", s.p95_delay_ms),
        ]);
    }
    writer.table("fig18_schemes", "Fig18: all schemes", &table)?;

    let pbe_outcome = report.outcome(COMPETITION_LABEL, "PBE").expect("PBE ran");
    let pbe = &pbe_outcome.result;
    // The competitor is on exactly while one of the point's background
    // flows (the flows the swept scheme does not drive) is running.
    let spec = &pbe_outcome.spec;
    let bursts: Vec<(Instant, Instant)> = spec
        .flows
        .iter()
        .filter(|f| !spec.sweep_flows.contains(&f.id))
        .map(|f| (f.start, f.stop))
        .collect();
    let bbr = &report
        .outcome(COMPETITION_LABEL, "BBR")
        .expect("BBR ran")
        .result;
    let mut t = TextTable::new(&[
        "t (s)",
        "competitor",
        "PBE tput",
        "PBE delay",
        "BBR tput",
        "BBR delay",
    ]);
    let windows = pbe.flows[0].throughput_timeline_mbps.len();
    for w in (0..windows).step_by(2) {
        let time_s = w as f64 * 0.1;
        let at = Instant::from_millis(w as u64 * 100);
        let competitor_on = bursts.iter().any(|&(start, stop)| start <= at && at < stop);
        let cell = |r: &SimResult| {
            let f = &r.flows[0];
            (
                f.throughput_timeline_mbps[w],
                f.delay_timeline_ms[w].unwrap_or(0.0),
            )
        };
        let (pt, pd) = cell(pbe);
        let (bt, bd) = cell(bbr);
        t.row(&[
            format!("{time_s:.1}"),
            if competitor_on {
                "on".into()
            } else {
                "".into()
            },
            format!("{pt:.1}"),
            format!("{pd:.0}"),
            format!("{bt:.1}"),
            format!("{bd:.0}"),
        ]);
    }
    writer.table(
        "fig19_timeline",
        "Fig19: 200 ms-granularity timeline (competitor on during shaded intervals)",
        &t,
    )?;
    writer.note(
        "\nPaper reference: PBE-CC ~57 Mbit/s with 61/71 ms avg/p95 delay; BBR slightly more",
    );
    writer.note("throughput but 147/227 ms delay; CUBIC and Verus 250-400+ ms delay.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig20_multi_connection
// ---------------------------------------------------------------------------

const MULTI_LABEL: &str = "Fig20 two connections";

/// Figure 20: one device running two concurrent connections, × eight
/// schemes.
pub fn multi_connection_grid(seconds: u64) -> SweepGrid {
    let ue = UeId(1);
    let duration = Duration::from_secs(seconds);
    let scenario = ScenarioSpec::new(MULTI_LABEL, SchemeChoice::Pbe, duration)
        .load(CellLoadProfile::idle())
        .seed(20)
        .ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -87.0),
            MobilityTrace::stationary(-87.0),
        )
        .flow(
            FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)
                .with_one_way_delay(Duration::from_millis(24)),
        )
        .flow(
            FlowConfig::bulk(2, ue, SchemeChoice::Pbe, duration)
                .with_one_way_delay(Duration::from_millis(32)),
        );
    SweepGrid::over(vec![scenario]).schemes(paper_schemes().into_iter().map(|(s, _)| s))
}

/// Figure 20 renderer: per-flow throughput/delay and the balance ratio.
pub fn render_multi_connection(
    report: &SweepReport,
    _seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scheme",
        "flow1 tput",
        "flow2 tput",
        "flow1 med delay",
        "flow2 med delay",
        "tput ratio",
    ]);
    for outcome in report.by_label(MULTI_LABEL) {
        let a = &outcome.result.flows[0].summary;
        let b = &outcome.result.flows[1].summary;
        let ratio = if b.avg_throughput_mbps > 0.0 {
            a.avg_throughput_mbps / b.avg_throughput_mbps
        } else {
            f64::INFINITY
        };
        table.row(&[
            outcome.spec.scheme.to_string(),
            format!("{:.1}", a.avg_throughput_mbps),
            format!("{:.1}", b.avg_throughput_mbps),
            format!("{:.0}", a.delay_percentiles_ms[2]),
            format!("{:.0}", b.delay_percentiles_ms[2]),
            format!("{ratio:.2}"),
        ]);
    }
    writer.table("fig20_two_connections", "Fig20: all schemes", &table)?;
    writer.note(
        "\nPaper reference: PBE-CC gives both flows similar throughput (26 / 28 Mbit/s, median",
    );
    writer.note("delays 48 / 56 ms); BBR splits 10 / 35 Mbit/s between its two flows.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig21_fairness
// ---------------------------------------------------------------------------

struct FairnessCase {
    label: &'static str,
    schemes: [SchemeChoice; 3],
    delays_ms: [u64; 3],
}

fn fairness_cases() -> Vec<FairnessCase> {
    let pbe = SchemeChoice::Pbe;
    let bbr = SchemeChoice::Baseline(SchemeName::Bbr);
    let cubic = SchemeChoice::Baseline(SchemeName::Cubic);
    vec![
        FairnessCase {
            label: "(a) three PBE flows, similar RTTs",
            schemes: [pbe.clone(), pbe.clone(), pbe.clone()],
            delays_ms: [24, 26, 28],
        },
        FairnessCase {
            label: "(b) three PBE flows, RTTs 52/64/297 ms",
            schemes: [pbe.clone(), pbe.clone(), pbe.clone()],
            delays_ms: [26, 32, 148],
        },
        FairnessCase {
            label: "(c) two PBE flows + one BBR flow",
            schemes: [pbe.clone(), bbr, pbe.clone()],
            delays_ms: [24, 26, 28],
        },
        FairnessCase {
            label: "(d) two PBE flows + one CUBIC flow",
            schemes: [pbe.clone(), cubic, pbe],
            delays_ms: [24, 26, 28],
        },
    ]
}

fn fairness_scenario(case: &FairnessCase, total_s: u64) -> ScenarioSpec {
    let duration = Duration::from_secs(total_s);
    // Start/stop pattern scaled from the paper's 60 s to `total_s`.
    let scale = total_s as f64 / 60.0;
    let starts = [0.0, 10.0 * scale, 20.0 * scale];
    let stops = [60.0 * scale, 50.0 * scale, 40.0 * scale];
    let ues = [UeId(1), UeId(2), UeId(3)];

    let mut spec = ScenarioSpec::new(case.label, SchemeChoice::Pbe, duration).seed(21);
    for ue in ues {
        spec = spec.ue(
            UeConfig::new(ue, vec![CellId(0)], 1, -86.0),
            MobilityTrace::stationary(-86.0),
        );
    }
    for i in 0..3 {
        // Every flow keeps its configured scheme: these are fixed-cast
        // scenarios, not points on a scheme axis.
        spec = spec.background_flow(
            FlowConfig::bulk(i as u32 + 1, ues[i], case.schemes[i].clone(), duration)
                .with_one_way_delay(Duration::from_millis(case.delays_ms[i]))
                .with_lifetime(
                    Instant::from_millis((starts[i] * 1000.0) as u64),
                    Instant::from_millis((stops[i] * 1000.0) as u64),
                ),
        );
    }
    spec
}

/// Figure 21: the four staggered-flow fairness cases (no scheme axis — each
/// case fixes its own cast).
pub fn fairness_grid(seconds: u64) -> SweepGrid {
    SweepGrid::over(
        fairness_cases()
            .iter()
            .map(|case| fairness_scenario(case, seconds))
            .collect(),
    )
}

/// Figure 21 renderer: per-case PRB timelines plus Jain's index notes.
pub fn render_fairness(
    report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    for (case_index, outcome) in report.outcomes.iter().enumerate() {
        let intervals: &[PrbInterval] = &outcome.result.primary_prb_timeline;
        let mut table = TextTable::new(&["t (s)", "flow1 PRBs", "flow2 PRBs", "flow3 PRBs"]);
        for interval in intervals.iter().step_by(10) {
            table.row(&[
                format!("{:.0}", interval.start_s),
                format!("{:.0}", interval.prbs_for(1)),
                format!("{:.0}", interval.prbs_for(2)),
                format!("{:.0}", interval.prbs_for(3)),
            ]);
        }
        writer.table(
            &format!("fig21_case_{case_index}"),
            &outcome.spec.label,
            &table,
        )?;

        // Jain's index over the window where all three flows are active
        // (scaled 20-40 s window) and where exactly two are active (10-20 s).
        let scale = seconds as f64 / 60.0;
        let jain_over = |lo_s: f64, hi_s: f64, flows: &[u32]| {
            let totals: Vec<f64> = flows
                .iter()
                .map(|id| {
                    intervals
                        .iter()
                        .filter(|iv| iv.start_s >= lo_s && iv.start_s < hi_s)
                        .map(|iv| iv.prbs_for(*id))
                        .sum()
                })
                .collect();
            jain_index(&totals)
        };
        let two = jain_over(10.0 * scale, 20.0 * scale, &[1, 2]);
        let three = jain_over(20.0 * scale, 40.0 * scale, &[1, 2, 3]);
        writer.note(&format!(
            "Jain's index: two concurrent flows {:.2}%, three concurrent flows {:.2}%\n",
            two * 100.0,
            three * 100.0
        ));
    }
    writer.note(
        "\nPaper reference: Jain's index 98.3-99.97% in every case; the base station's fairness",
    );
    writer.note("policy keeps CUBIC/BBR from starving the PBE-CC flows.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig_handover
// ---------------------------------------------------------------------------

const CROSSING_LABEL: &str = "handover crossing";

/// The inter-cell crossing the paper's mobility walk (Figs. 16/17) never
/// makes: cell 0 fades −85 → −110 dBm over three quarters of the run while
/// cell 1 rises symmetrically, so the A3 machinery fires, queued and
/// in-flight data is forwarded, and the endpoint's PDCCH monitor
/// re-acquires the target cell after a blind gap.  One bulk flow under the
/// swept scheme.  Public so `examples/handover_estimate.rs` can instrument
/// the same scenario.
pub fn handover_crossing(seconds: u64) -> ScenarioSpec {
    let ue = UeId(1);
    let duration = Duration::from_secs(seconds);
    let fade = seconds as f64 * 0.75;
    ScenarioSpec::new(CROSSING_LABEL, SchemeChoice::Pbe, duration)
        .load(CellLoadProfile::idle())
        .seed(34)
        .ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        )
        .trajectory(
            ue,
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (fade, -110.0)]),
        )
        .trajectory(
            ue,
            CellId(1),
            MobilityTrace::from_secs(&[(0.0, -110.0), (fade, -85.0)]),
        )
        .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
}

/// Handover: the crossing × the paper's eight schemes, plus a small
/// city-scale drive (3×2 cells, 12 UEs, at most 20 s) × PBE-CC and BBR.
pub fn handover_grid(seconds: u64) -> SweepGrid {
    let crossing = SweepGrid::over(vec![handover_crossing(seconds)])
        .schemes(paper_schemes().into_iter().map(|(s, _)| s));
    let city = SweepGrid::over(vec![CityScale::driving(3, 2, 12)
        .seconds(seconds.min(20))
        .scenario()])
    .schemes([SchemeChoice::Pbe, SchemeChoice::named("BBR")]);
    // The two sub-grids cross different scheme lists, so the figure's grid
    // is their expanded points; re-expanding a point with no axes keeps it
    // as is (replica 0 keeps the seed).
    SweepGrid::over([crossing.expand(), city.expand()].concat())
}

/// Handover renderer: every scheme across the crossing, then PBE-CC vs BBR
/// under continuous handover pressure in the city.
pub fn render_handover(
    report: &SweepReport,
    seconds: u64,
    writer: &ReportWriter,
) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scheme",
        "handovers",
        "avg tput (Mbit/s)",
        "median delay (ms)",
        "p95 delay (ms)",
    ]);
    for outcome in report.by_label(CROSSING_LABEL) {
        let s = &outcome.result.flows[0].summary;
        table.row(&[
            outcome.spec.scheme.to_string(),
            format!("{}", outcome.result.handovers.len()),
            format!("{:.1}", s.avg_throughput_mbps),
            format!("{:.0}", s.delay_percentiles_ms[2]),
            format!("{:.0}", s.p95_delay_ms),
        ]);
    }
    writer.table(
        "handover_schemes",
        &format!(
            "All schemes across the crossing (serving cell fades -85 -> -110 dBm while the \
target rises symmetrically over {:.0} s)",
            seconds as f64 * 0.75
        ),
        &table,
    )?;

    let mut c = TextTable::new(&[
        "scheme",
        "UEs",
        "handovers",
        "mean tput/UE (Mbit/s)",
        "p95 delay (ms)",
    ]);
    for outcome in report
        .outcomes
        .iter()
        .filter(|o| o.spec.label != CROSSING_LABEL)
    {
        let r = &outcome.result;
        let mean_tput = r
            .flows
            .iter()
            .map(|f| f.summary.avg_throughput_mbps)
            .sum::<f64>()
            / r.flows.len() as f64;
        let p95 = r
            .flows
            .iter()
            .map(|f| f.summary.p95_delay_ms)
            .fold(0.0f64, f64::max);
        c.row(&[
            outcome.spec.scheme.to_string(),
            format!("{}", r.flows.len()),
            format!("{}", r.handovers.len()),
            format!("{mean_tput:.1}"),
            format!("{p95:.0}"),
        ]);
    }
    writer.table(
        "city_scale",
        "City-scale mobility (3x2 cells, 12 driving UEs): PBE vs BBR",
        &c,
    )?;
    writer.note(
        "\nPBE-CC rides the re-acquisition gap on its held estimate, then re-converges onto the",
    );
    writer.note(
        "target cell; end-to-end schemes rediscover the path from scratch after every switch.",
    );
    writer.note(
        "(Estimate timeline through the switch: `cargo run --release --example handover_estimate`.)",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fig_fanout
// ---------------------------------------------------------------------------

const FANOUT_CELLS: u16 = 8;
const FANOUT_FLOWS: u32 = 64;
/// Aggregation rate, far below the ~8 cells × ~35 Mbit/s of summed radio.
const FANOUT_AGG_RATE_BPS: f64 = 60e6;
const FANOUT_AGG_QUEUE_BYTES: u64 = 180_000;

/// Shared-backhaul fan-out: many cells behind one metro aggregation link
/// sized *below* the summed radio capacity, so the bottleneck lives in the
/// backhaul and the radio capacity estimate alone over-reports a flow's
/// fair share — the regime the paper's private wired paths never reach.
/// × PBE-CC, CUBIC, CUBIC-ECN, SFC and BBR.
pub fn fanout_grid(seconds: u64) -> SweepGrid {
    let base = Fanout::new(FANOUT_CELLS, FANOUT_FLOWS)
        .seconds(seconds)
        .agg(FANOUT_AGG_RATE_BPS, FANOUT_AGG_QUEUE_BYTES)
        .scenario();
    SweepGrid::over(vec![base]).schemes([
        SchemeChoice::Pbe,
        SchemeChoice::named("CUBIC"),
        SchemeChoice::named("CUBIC-ECN"),
        SchemeChoice::named("SFC"),
        SchemeChoice::named("BBR"),
    ])
}

/// Fan-out renderer: every scheme through the same undersized aggregation
/// link (delivered goodput, marks/drops and queueing delay at the shared
/// queue), then that queue's 100 ms occupancy timeline for the probing
/// (CUBIC) and signal-reacting (SFC) extremes.
pub fn render_fanout(report: &SweepReport, seconds: u64, writer: &ReportWriter) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scheme",
        "delivered (Mbit/s)",
        "agg marks",
        "agg drops",
        "agg p50 queue (ms)",
        "agg p95 queue (ms)",
        "flow p95 delay (ms)",
    ]);
    for outcome in &report.outcomes {
        let r = &outcome.result;
        let agg = &r.backhaul_links[0];
        let delivered: f64 = r.flows.iter().map(|f| f.summary.avg_throughput_mbps).sum();
        let p95_delay = r
            .flows
            .iter()
            .map(|f| f.summary.p95_delay_ms)
            .fold(0.0f64, f64::max);
        table.row(&[
            outcome.spec.scheme.to_string(),
            format!("{delivered:.1}"),
            format!("{}", agg.stats.marked_packets),
            format!("{}", agg.stats.dropped_packets),
            format!("{:.1}", agg.p50_queue_delay_ms),
            format!("{:.1}", agg.p95_queue_delay_ms),
            format!("{p95_delay:.0}"),
        ]);
    }
    writer.table(
        "fanout_schemes",
        &format!(
            "All schemes through the shared aggregation link ({FANOUT_FLOWS} flows over \
{FANOUT_CELLS} cells behind one {:.0} Mbit/s link, {seconds} s per scheme)",
            FANOUT_AGG_RATE_BPS / 1e6
        ),
        &table,
    )?;

    let mut t = TextTable::new(&["t (s)", "CUBIC agg queue (kB)", "SFC agg queue (kB)"]);
    let timeline = |scheme: &str| -> &[u64] {
        report
            .outcomes
            .iter()
            .find(|o| o.spec.scheme.to_string() == scheme)
            .map(|o| &o.result.backhaul_links[0].queue_timeline_bytes[..])
            .unwrap_or(&[])
    };
    let (cubic, sfc) = (timeline("CUBIC"), timeline("SFC"));
    for (i, window) in cubic.iter().enumerate() {
        t.row(&[
            format!("{:.1}", i as f64 * 0.1),
            format!("{:.0}", *window as f64 / 1000.0),
            format!(
                "{:.0}",
                sfc.get(i).copied().unwrap_or_default() as f64 / 1000.0
            ),
        ]);
    }
    writer.table(
        "fanout_agg_queue",
        "Aggregation queue occupancy (100 ms windows, max bytes)",
        &t,
    )?;
    writer.note("\nLoss-based probing fills the shared queue to the drop point; the near-source");
    writer.note("signal (SFC) and ECN reaction cap it around the marking threshold instead.");
    Ok(())
}

// ---------------------------------------------------------------------------
// fig_faults
// ---------------------------------------------------------------------------

/// The outage-recovery scenario family: one UE on all three cells with a
/// mid-run fault, crossed with a scheme axis.  Scenario (a) takes the
/// primary cell down for the middle half of the run (RLF, re-selection to a
/// 10 MHz neighbour, recovery); scenario (b) blinds the control-channel
/// decoders for 200 ms (PBE rides through on held estimates; baselines
/// ignore it).
pub fn faults_grid(seconds: u64) -> SweepGrid {
    let duration = Duration::from_secs(seconds);
    let ms = seconds * 1_000;
    let ue = UeId(1);
    let base = |label: &str| {
        ScenarioSpec::new(label, SchemeChoice::Pbe, duration)
            .seed(41)
            .ue(
                UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], 3, -85.0),
                MobilityTrace::stationary(-85.0),
            )
            .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
    };
    let outage = base("(a) primary-cell outage").faults(FaultSchedule {
        cell_outages: vec![CellOutage {
            cell: CellId(0),
            start_ms: ms / 4,
            end_ms: 3 * ms / 4,
        }],
        ..FaultSchedule::none()
    });
    let decode_loss = base("(b) decode-loss burst").faults(FaultSchedule {
        decode_loss: vec![DecodeLossBurst {
            flow: 1,
            start_ms: ms / 2,
            end_ms: ms / 2 + 200,
        }],
        ..FaultSchedule::none()
    });
    SweepGrid::over(vec![outage, decode_loss]).schemes([
        SchemeChoice::Pbe,
        SchemeChoice::Baseline(SchemeName::Bbr),
        SchemeChoice::Baseline(SchemeName::Cubic),
    ])
}

/// Fault-recovery renderer: one row per grid point with the recovery
/// metrics the fault subsystem measures — time to reconnect after RLF,
/// packets stranded on the dead cell, relative estimate error across the
/// fault window — next to the flow's overall throughput and delay.
pub fn render_faults(report: &SweepReport, _seconds: u64, writer: &ReportWriter) -> io::Result<()> {
    let mut table = TextTable::new(&[
        "scenario",
        "scheme",
        "fault",
        "reconnect (ms)",
        "stranded pkts",
        "est err",
        "tput (Mbit/s)",
        "p95 delay (ms)",
    ]);
    for outcome in &report.outcomes {
        let flow = &outcome.result.flows[0];
        if outcome.result.fault_recovery.is_empty() {
            table.row(&[
                outcome.spec.label.clone(),
                outcome.spec.scheme.id().to_string(),
                "none".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                format!("{:.1}", flow.summary.avg_throughput_mbps),
                format!("{:.1}", flow.summary.p95_delay_ms),
            ]);
        }
        for record in &outcome.result.fault_recovery {
            let reconnect = record
                .reconnect_ms
                .iter()
                .map(|(_, ms)| ms.to_string())
                .collect::<Vec<_>>()
                .join("+");
            table.row(&[
                outcome.spec.label.clone(),
                outcome.spec.scheme.id().to_string(),
                format!("{:?} {}", record.kind, record.target),
                if reconnect.is_empty() {
                    "-".to_string()
                } else {
                    reconnect
                },
                record.packets_stranded.to_string(),
                format!("{:.3}", record.estimate_error),
                format!("{:.1}", flow.summary.avg_throughput_mbps),
                format!("{:.1}", flow.summary.p95_delay_ms),
            ]);
        }
    }
    writer.table("fig_faults", "Fault injection and recovery", &table)?;
    writer
        .note("\nScenario (a): the primary cell goes dark for the middle half of the run; the UE");
    writer.note("declares RLF after the detection deadline and re-selects a 10 MHz neighbour.");
    writer
        .note("Scenario (b): the control channel is undecodable for 200 ms; PBE-CC holds its last");
    writer.note("estimate through the gap while the baselines see nothing at all.");
    Ok(())
}
