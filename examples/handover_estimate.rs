//! PBE-CC's capacity estimate through an inter-cell handover, in 500 ms
//! bins: the estimate must ride through the monitor's re-acquisition gap on
//! its held value, then re-converge onto the target cell.
//!
//! The scenario is the 12-second crossing of the `fig_handover` figure
//! (`pbe_bench::artifact::figures::handover_crossing`) under PBE-CC.  The
//! estimates come from `SimEvent::CapacityEstimated`, which only an
//! observer sees — `SimResult` does not carry them — so this is a one-off
//! instrumented run rather than a registered figure.
//!
//! ```sh
//! cargo run --release --example handover_estimate
//! ```

use pbe_bench::artifact::figures::handover_crossing;
use pbe_bench::sweep::{OutputFormat, ReportWriter};
use pbe_bench::TextTable;
use pbe_netsim::{SimBuilder, SimEvent};
use std::cell::RefCell;
use std::rc::Rc;

const SECONDS: u64 = 12;

fn main() -> std::io::Result<()> {
    let estimates: Rc<RefCell<Vec<(u64, f64)>>> = Rc::default();
    let sink = estimates.clone();
    let spec = handover_crossing(SECONDS);
    let result = SimBuilder::from_config(spec.sim_config())
        .observe(move |event: &SimEvent<'_>| {
            if let SimEvent::CapacityEstimated { at, feedback, .. } = event {
                sink.borrow_mut()
                    .push((at.as_millis(), feedback.capacity_bps()));
            }
        })
        .run();

    let gap_ms = spec.cellular.handover.reacquisition_gap_ms;
    let estimates = estimates.borrow();
    let tput_bins = &result.flows[0].throughput_timeline_mbps;
    let mut t = TextTable::new(&["t (s)", "mean estimate (Mbit/s)", "tput (Mbit/s)", "event"]);
    for bin in 0..(SECONDS * 2) as usize {
        let (lo, hi) = (bin as u64 * 500, (bin as u64 + 1) * 500);
        let in_bin: Vec<f64> = estimates
            .iter()
            .filter(|(at, _)| (lo..hi).contains(at))
            .map(|(_, bps)| bps / 1e6)
            .collect();
        let mean = if in_bin.is_empty() {
            0.0
        } else {
            in_bin.iter().sum::<f64>() / in_bin.len() as f64
        };
        let tput: f64 = tput_bins
            [(bin * 5).min(tput_bins.len())..((bin + 1) * 5).min(tput_bins.len())]
            .iter()
            .sum::<f64>()
            / 5.0;
        let event = result
            .handovers
            .iter()
            .find(|h| (lo..hi).contains(&h.at.as_millis()))
            .map(|h| {
                format!(
                    "handover {}->{} @ {:.1} s (+{gap_ms} ms gap)",
                    h.from,
                    h.to,
                    h.at.as_millis() as f64 / 1000.0
                )
            })
            .unwrap_or_default();
        t.row(&[
            format!("{:.1}", bin as f64 * 0.5),
            format!("{mean:.1}"),
            format!("{tput:.1}"),
            event,
        ]);
    }
    ReportWriter::new(OutputFormat::Text, None)?.table(
        "handover_timeline",
        "PBE-CC capacity feedback through the handover (500 ms bins)",
        &t,
    )
}
