//! Output checks, run on every iteration, and the simulated-time metrics.
//!
//! A speed-up that changes a `SimResult` is a behaviour change; the digest
//! and these laws are what lets a later change claim "same outputs".

use pbe_cc_algorithms::api::MSS_BYTES;
use pbe_cellular::mcs::max_rate_mbps_per_prb;
use pbe_netsim::{SimConfig, SimResult};

/// FNV-1a (128-bit) of the serialised result.
pub fn result_digest(result: &SimResult) -> String {
    let json = serde_json::to_string(result).expect("results serialize");
    pbe_stats::fnv1a_128_hex(json.as_bytes())
}

/// Aggregate goodput of a run, Mbit/s of simulated time.
pub fn goodput_mbps(cfg: &SimConfig, result: &SimResult) -> f64 {
    let bytes: u64 = result.flows.iter().map(|f| f.summary.total_bytes).sum();
    bytes as f64 * 8.0 / 1e6 / cfg.duration.as_secs_f64()
}

/// Interquartile mean of a set of delays: the mean of the middle half.
/// Delays are whole milliseconds, so a median over flows moves in 3 % steps
/// (and reads the very same number at every seed on `backhaul_fanout`); a
/// plain mean follows the one flow a handover caught.  The middle half has
/// the resolution of the one and the robustness of the other.
pub fn interquartile_mean_ms(mut delays: Vec<f64>) -> f64 {
    if delays.is_empty() {
        return 0.0;
    }
    delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));
    let quarter = delays.len() / 4;
    let middle = &delays[quarter..delays.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Interquartile mean over flows of the per-flow p95 one-way delay, ms.
pub fn p95_delay_ms(result: &SimResult) -> f64 {
    interquartile_mean_ms(
        result
            .flows
            .iter()
            .map(|f| f.summary.p95_delay_ms)
            .collect(),
    )
}

/// The laws every run's output must obey; returns the violations.
pub fn check_result(cfg: &SimConfig, result: &SimResult) -> Vec<String> {
    let mut bad = Vec::new();

    // Every configured flow is present, once, in configuration order.
    let want: Vec<u32> = cfg.flows.iter().map(|f| f.id).collect();
    let got: Vec<u32> = result.flows.iter().map(|f| f.id).collect();
    if want != got {
        bad.push(format!(
            "flows in result differ from configuration ({} configured, {} reported)",
            want.len(),
            got.len()
        ));
    }

    let run_s = cfg.duration.as_secs_f64();
    for (flow, fc) in result.flows.iter().zip(&cfg.flows) {
        // Delivered bytes are whole packets, one delay sample each.
        if flow.summary.packets != flow.packets_delivered
            || flow.summary.total_bytes != flow.packets_delivered * MSS_BYTES
        {
            bad.push(format!(
                "flow {}: {} delivered packets but {} delay samples and {} bytes",
                flow.id, flow.packets_delivered, flow.summary.packets, flow.summary.total_bytes
            ));
        }
        // No packet can be older than the run plus its wired leg.
        let limit_ms = (run_s + fc.server_one_way_delay.as_secs_f64()) * 1e3;
        if flow.summary.p95_delay_ms > limit_ms || flow.summary.p95_delay_ms < 0.0 {
            bad.push(format!(
                "flow {}: p95 delay {} ms outside [0, {limit_ms}]",
                flow.id, flow.summary.p95_delay_ms
            ));
        }
    }

    // Goodput cannot exceed what the radio could carry at the best CQI with
    // every PRB of every cell granted, nor the backhaul's first hop.
    let goodput = goodput_mbps(cfg, result);
    let radio_mbps = f64::from(cfg.cellular.total_prbs()) * max_rate_mbps_per_prb();
    if goodput > radio_mbps {
        bad.push(format!(
            "goodput {goodput} Mbit/s above the radio ceiling {radio_mbps}"
        ));
    }
    if let Some(bh) = &cfg.backhaul {
        // Every route (and the default path) enters through some link; the
        // distinct first hops together cap what can reach the cells.
        let mut first_hops: Vec<usize> = bh
            .routes
            .iter()
            .filter_map(|r| r.path.first().copied())
            .chain(bh.default_path.iter().filter_map(|p| p.first().copied()))
            .collect();
        first_hops.sort_unstable();
        first_hops.dedup();
        let cap_mbps: f64 = first_hops
            .iter()
            .map(|&l| bh.links[l].rate_bps)
            .sum::<f64>()
            / 1e6;
        if goodput > cap_mbps {
            bad.push(format!(
                "goodput {goodput} Mbit/s above the backhaul ingress {cap_mbps}"
            ));
        }
        // Per link: nothing leaves that did not enter.
        for link in &result.backhaul_links {
            let s = &link.stats;
            if s.forwarded_packets > s.admitted_packets || s.forwarded_bytes > s.admitted_bytes {
                bad.push(format!(
                    "backhaul link {}: forwarded {} of {} admitted packets",
                    link.name, s.forwarded_packets, s.admitted_packets
                ));
            }
        }
        if result.backhaul_links.len() != bh.links.len() {
            bad.push("backhaul link summaries missing from the result".to_string());
        }
    }
    bad
}
