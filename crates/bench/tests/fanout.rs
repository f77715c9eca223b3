//! End-to-end acceptance of the shared-backhaul fan-out family.
//!
//! The headline claim: with an undersized aggregation link the bottleneck
//! migrates from the radio into the backhaul — PBE-CC's delivered rate must
//! track its *backhaul share*, not the (much larger) radio capacity
//! estimate — and the near-source signaling baseline holds the shared
//! queue's delay far below what radio-driven probing does.

use pbe_bench::sweep::Fanout;
use pbe_netsim::SchemeChoice;

/// Three PBE flows on three cells behind an 18 Mbit/s aggregation link:
/// each cell's radio can carry ~35 Mbit/s, so the radio estimate alone
/// would let every flow send ~6× its actual 6 Mbit/s backhaul share.
fn undersized_fanout() -> Fanout {
    Fanout::new(3, 3)
        .seconds(4)
        .seed(0xFA0)
        .scheme(SchemeChoice::Pbe)
        .agg(18e6, 250_000)
        .mark_threshold(Some(50_000))
}

#[test]
fn undersized_aggregation_migrates_the_bottleneck_into_the_backhaul() {
    let result = undersized_fanout().scenario().run();
    let share_mbps = 18.0 / 3.0;
    for flow in &result.flows {
        let tput = flow.summary.avg_throughput_mbps;
        // Each flow tracks its ~6 Mbit/s backhaul share, not the ~35 Mbit/s
        // the radio alone could carry.
        assert!(
            tput >= 0.5 * share_mbps && tput <= 1.5 * share_mbps,
            "flow {} delivered {tput} Mbit/s; its backhaul share is {share_mbps} Mbit/s",
            flow.id
        );
    }
    // The aggregation link is the active constraint: it marked, and total
    // delivered goodput sits at (not above) its line rate.
    let agg = &result.backhaul_links[0];
    assert!(agg.stats.marked_packets > 0, "shared link never marked");
    let total: f64 = result
        .flows
        .iter()
        .map(|f| f.summary.avg_throughput_mbps)
        .sum();
    assert!(
        total <= 18.0 * 1.1,
        "delivered {total} Mbit/s through an 18 Mbit/s link"
    );
}

#[test]
fn near_source_signaling_keeps_the_shared_queue_far_below_probing() {
    let pbe = undersized_fanout().scenario().run();
    let sfc = undersized_fanout()
        .scheme(SchemeChoice::named("SFC"))
        .scenario()
        .run();
    let pbe_p95 = pbe.backhaul_links[0].p95_queue_delay_ms;
    let sfc_p95 = sfc.backhaul_links[0].p95_queue_delay_ms;
    assert!(
        sfc_p95 < 0.5 * pbe_p95,
        "SFC p95 aggregation queue delay {sfc_p95} ms should be under half \
         of PBE's {pbe_p95} ms"
    );
    // The signal-reacting flows still use the link: no starvation.
    let sfc_total: f64 = sfc
        .flows
        .iter()
        .map(|f| f.summary.avg_throughput_mbps)
        .sum();
    assert!(
        sfc_total > 0.5 * 18.0,
        "SFC delivered only {sfc_total} Mbit/s of an 18 Mbit/s link"
    );
}

#[test]
fn fanout_smoke_every_flow_moves_data_through_the_shared_tree() {
    // The CI smoke case (also run under PBE_FORCE_SHARDS=3): a mid-size
    // fan-out where every flow must make progress and the per-link books
    // must balance across the whole tree.
    let result = Fanout::new(6, 48).millis(500).scenario().run();
    assert_eq!(result.backhaul_links.len(), 7);
    for flow in &result.flows {
        assert!(flow.packets_delivered > 0, "flow {} starved", flow.id);
    }
    // The per-link books balance across the tree: a packet's whole route is
    // walked atomically at ingress, so everything admitted at the
    // aggregation link was either admitted or dropped at exactly one cell
    // link — and forwarding lags admission by whatever still sits queued.
    let agg = &result.backhaul_links[0].stats;
    let cells_downstream: u64 = result.backhaul_links[1..]
        .iter()
        .map(|l| l.stats.admitted_packets + l.stats.dropped_packets)
        .sum();
    assert_eq!(agg.admitted_packets, cells_downstream);
    assert!(agg.forwarded_packets <= agg.admitted_packets);
    // Telemetry windows cover the run (500 ms = 5 windows).
    assert_eq!(result.backhaul_links[0].queue_timeline_bytes.len(), 5);
}

#[test]
fn fanout_is_byte_identical_across_shard_counts_and_seeds() {
    // The backhaul is stepped by the single-threaded driver loop, so
    // the whole result must serialize identically whatever the shard count:
    // to the bytes (pinned by FNV-128 digest) the serial tick engine
    // produced at the commit before it was deleted.
    for (seed, digest) in [
        (0xFA0u64, "d6ba0f58d3220d183233bc991b60149b"),
        (7, "ab6d1111ea3177e15f237014b7ccf12e"),
    ] {
        let base = Fanout::new(4, 12).millis(800).seed(seed);
        for shards in [1usize, 2, 3] {
            let json =
                serde_json::to_string(&base.clone().shards(shards).scenario().run()).unwrap();
            assert_eq!(
                pbe_stats::fnv1a_128_hex(json.as_bytes()),
                digest,
                "{shards} shards diverged from the serial engine's result (seed {seed})"
            );
        }
    }
}
