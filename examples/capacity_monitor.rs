//! Capacity monitor example: use the measurement half of PBE-CC on its own.
//!
//! This example drives the cellular substrate directly (no transport flows),
//! decodes every control message the primary cell transmits with the blind
//! PDCCH decoder, and prints the millisecond-granularity capacity estimate a
//! PBE-CC client would feed back to its sender — the "open-source congestion
//! control prototyping platform" use-case from §5 of the paper.
//!
//! ```sh
//! cargo run --release -p pbe-bench --example capacity_monitor
//! ```

use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::network::CellularNetwork;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_core::client::PbeClient;
use pbe_pdcch::decoder::{ControlChannelDecoder, DecoderConfig};
use pbe_pdcch::fusion::MessageFusion;
use pbe_stats::time::Instant;
use pbe_stats::DetRng;

fn main() {
    let ue = UeId(1);
    let mut network = CellularNetwork::new(CellularConfig::default(), CellLoadProfile::busy(), 7);
    let rnti = network.add_ue(
        UeConfig::new(ue, vec![CellId(0)], 1, -90.0),
        MobilityTrace::stationary(-90.0),
    );

    // The measurement module: one blind decoder for the primary cell, the
    // fusion stage, and the PBE client that applies Eqns. 1-5.
    let mut decoder =
        ControlChannelDecoder::new(CellId(0), DecoderConfig::default(), DetRng::new(1));
    let mut fusion = MessageFusion::new(vec![CellId(0)]);
    let mut client = PbeClient::new(rnti, vec![(CellId(0), 100)]);

    // Keep the UE lightly loaded so its grants reveal the physical rate while
    // background users come and go.
    let mut packet_id = 0u64;
    println!("subframe  own PRBs  idle PRBs  competing users  available capacity (Mbit/s)");
    for ms in 0..2_000u64 {
        let now = Instant::from_millis(ms);
        for _ in 0..2 {
            network.enqueue_packet(ue, packet_id, 1500, now);
            packet_id += 1;
        }
        let report = network.tick(now);
        let decoded = decoder.decode_subframe(ms, &report.dci_messages);
        for fused in fusion.ingest(CellId(0), ms, decoded) {
            client.on_subframe(&fused);
        }
        if ms % 200 == 199 {
            let snapshot = client
                .monitor_mut()
                .snapshot(CellId(0))
                .expect("primary cell tracked");
            let estimate = client.capacity();
            println!(
                "{ms:>8}  {:>8.1}  {:>9.1}  {:>15}  {:>10.1}",
                snapshot.own_prbs,
                snapshot.idle_prbs,
                estimate.max_active_users,
                estimate.available_bps() / 1e6,
            );
        }
    }
    let stats = decoder.stats();
    println!(
        "\nDecoder: {} messages decoded, {:.2}% missed, {:.1} candidates/subframe examined.",
        stats.decoded,
        100.0 * (1.0 - stats.decode_rate()),
        stats.candidates_per_subframe()
    );
}
