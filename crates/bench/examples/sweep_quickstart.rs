//! Minimal sweep-harness walkthrough: three stationary locations × two
//! schemes × two seed replicas, executed on all cores, printed with the
//! shared table writer.
//!
//! ```text
//! cargo run --release -p pbe-bench --example sweep_quickstart
//! ```

use pbe_bench::artifact::run_cached;
use pbe_bench::scenarios::ScenarioLibrary;
use pbe_bench::sweep::{ScenarioSpec, SweepGrid};
use pbe_bench::TextTable;
use pbe_netsim::SchemeChoice;
use pbe_stats::time::Duration;

fn main() {
    let duration = Duration::from_secs(2);
    let scenarios = ScenarioLibrary::subset(3)
        .iter()
        .map(|loc| ScenarioSpec::from_location(format!("location {}", loc.index), loc, duration))
        .collect();
    let grid = SweepGrid::over(scenarios)
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("CUBIC")])
        .seed_replicas(2);

    let report = run_cached("sweep_quickstart", grid.expand(), None, 0)
        .expect("no store, no I/O")
        .report;

    let mut table = TextTable::new(&["scenario", "scheme", "seed", "tput (Mbit/s)", "p95 delay"]);
    for o in &report.outcomes {
        table.row(&[
            o.spec.label.clone(),
            o.spec.scheme.to_string(),
            format!("{:#x}", o.spec.seed),
            format!("{:.1}", o.result.flows[0].summary.avg_throughput_mbps),
            format!("{:.0}", o.result.flows[0].summary.p95_delay_ms),
        ]);
    }
    println!("{}", table.render());
    println!("{}", report.stats_line());
}
