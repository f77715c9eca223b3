//! Mobility example: drive a PBE-CC flow along the paper's Fig. 16 walking
//! trajectory (-85 dBm -> -105 dBm -> back) and print a 1-second timeline of
//! rate and delay, showing the sender tracking the channel.
//!
//! ```sh
//! cargo run --release -p pbe-bench --example mobility_trace
//! ```

use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
use pbe_stats::time::{Duration, Instant};

fn main() {
    let duration = Duration::from_secs(40);
    let ue = UeId(1);
    let trace = MobilityTrace::paper_mobility_walk();
    let config = SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::idle(),
        seed: 17,
        duration,
        ues: vec![(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -85.0),
            trace.clone(),
        )],
        flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
        ..SimConfig::default()
    };
    let result = Simulation::new(config).run();
    let flow = &result.flows[0];

    println!("t (s)  RSSI (dBm)  throughput (Mbit/s)  mean delay (ms)");
    for second in 0..40usize {
        let lo = second * 10;
        let hi = (lo + 10).min(flow.throughput_timeline_mbps.len());
        if lo >= hi {
            break;
        }
        let tput = flow.throughput_timeline_mbps[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        let delays: Vec<f64> = flow.delay_timeline_ms[lo..hi]
            .iter()
            .flatten()
            .copied()
            .collect();
        let delay = if delays.is_empty() {
            f64::NAN
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        };
        let rssi = trace.rssi_at(Instant::from_secs(second as u64));
        println!("{second:>5}  {rssi:>10.1}  {tput:>19.1}  {delay:>15.1}");
    }
    println!(
        "\nOverall: {:.1} Mbit/s average, {:.0} ms p95 delay, carrier aggregation triggered: {}",
        flow.summary.avg_throughput_mbps,
        flow.summary.p95_delay_ms,
        flow.summary.carrier_aggregation_triggered
    );
    println!("The send rate should dip as the device walks toward -105 dBm (13-26 s) and recover");
    println!(
        "quickly on the walk back, without the delay spike BBR exhibits in the paper's Fig. 17."
    );
}
