//! Competing flows example: a PBE-CC flow sharing one cell with a BBR flow
//! and an on-off fixed-rate competitor — the §6.3.3 / §6.4.3 scenario in
//! miniature.  Prints per-second throughput of each flow and the primary
//! cell's PRB split.
//!
//! The scenario is one `SimConfig`; `SimBuilder` attaches an observer that
//! taps the per-second capacity-estimate column live from the
//! `CapacityEstimated` events.
//!
//! ```sh
//! cargo run --release --example competing_flows
//! ```

use pbe_cc_algorithms::api::SchemeName;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{AppModel, FlowConfig, SchemeChoice, SimBuilder, SimConfig, SimEvent};
use pbe_stats::jain::jain_index;
use pbe_stats::time::{Duration, Instant};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let duration = Duration::from_secs(12);
    let seconds = duration.as_micros() / 1_000_000;
    let pbe_ue = UeId(1);
    let bbr_ue = UeId(2);
    let burst_ue = UeId(3);

    // Per-second average of the PBE client's capacity feedback, collected
    // from the observer event stream.
    let estimates: Rc<RefCell<Vec<(f64, u64)>>> =
        Rc::new(RefCell::new(vec![(0.0, 0); seconds as usize]));
    let sink = estimates.clone();

    let config = SimConfig {
        load: CellLoadProfile::idle(),
        seed: 3,
        duration,
        ues: [pbe_ue, bbr_ue, burst_ue]
            .map(|ue| {
                (
                    UeConfig::new(ue, vec![CellId(0)], 1, -87.0),
                    MobilityTrace::stationary(-87.0),
                )
            })
            .to_vec(),
        flows: vec![
            FlowConfig::bulk(1, pbe_ue, SchemeChoice::Pbe, duration),
            FlowConfig::bulk(2, bbr_ue, SchemeChoice::Baseline(SchemeName::Bbr), duration),
            // A 40 Mbit/s burst between t = 4 s and t = 8 s.
            FlowConfig {
                app: AppModel::ConstantRate(40e6),
                ..FlowConfig::bulk(3, burst_ue, SchemeChoice::FixedRate, duration)
            }
            .with_lifetime(Instant::from_secs(4), Instant::from_secs(8)),
        ],
        ..SimConfig::default()
    };
    let result = SimBuilder::from_config(config)
        .observe(move |event: &SimEvent<'_>| {
            if let SimEvent::CapacityEstimated {
                flow: 1,
                at,
                feedback,
            } = event
            {
                let mut est = sink.borrow_mut();
                let second = (at.as_millis() / 1000) as usize;
                if let Some(slot) = est.get_mut(second) {
                    slot.0 += feedback.capacity_bps();
                    slot.1 += 1;
                }
            }
        })
        .run();

    println!("t (s)  PBE Mbit/s  BBR Mbit/s  burst Mbit/s  PBE est. Mbit/s   PRBs: PBE/BBR/burst");
    for second in 0..seconds {
        let lo = (second * 10) as usize;
        let hi = lo + 10;
        let avg = |flow: usize| {
            let series = &result.flows[flow].throughput_timeline_mbps;
            series[lo.min(series.len())..hi.min(series.len())]
                .iter()
                .sum::<f64>()
                / 10.0
        };
        let prbs: Vec<f64> = (1..=3)
            .map(|id| {
                result
                    .primary_prb_timeline
                    .iter()
                    .skip(lo)
                    .take(10)
                    .map(|iv| iv.per_ue.get(&id).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / 10.0
            })
            .collect();
        let est = {
            let (sum, n) = estimates.borrow()[second as usize];
            if n == 0 {
                0.0
            } else {
                sum / n as f64 / 1e6
            }
        };
        println!(
            "{second:>5}  {:>10.1}  {:>10.1}  {:>12.1}  {:>15.1}   {:>5.0} / {:>3.0} / {:>3.0}",
            avg(0),
            avg(1),
            avg(2),
            est,
            prbs[0],
            prbs[1],
            prbs[2]
        );
    }
    let totals: Vec<f64> = (0..2)
        .map(|i| result.flows[i].summary.avg_throughput_mbps)
        .collect();
    println!(
        "\nPBE vs BBR average throughput: {:.1} vs {:.1} Mbit/s (Jain index {:.1}%)",
        totals[0],
        totals[1],
        jain_index(&totals) * 100.0
    );
    println!(
        "Delay: PBE p95 {:.0} ms vs BBR p95 {:.0} ms — the PBE flow yields to the burst without queueing.",
        result.flows[0].summary.p95_delay_ms,
        result.flows[1].summary.p95_delay_ms
    );
}
