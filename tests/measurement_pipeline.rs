//! Integration tests of the measurement pipeline: cellular substrate → blind
//! decoder → fusion → monitor → capacity equations, without any transport
//! flows in the loop.

use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::network::CellularNetwork;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_core::capacity::CapacityEstimator;
use pbe_core::client::PbeClient;
use pbe_pdcch::decoder::{ControlChannelDecoder, DecoderConfig};
use pbe_pdcch::fusion::MessageFusion;
use pbe_pdcch::monitor::{CellStatusMonitor, MonitorConfig};
use pbe_stats::time::Instant;
use pbe_stats::DetRng;

/// Decode everything the primary cell transmits for two simulated seconds and
/// compare the monitor's PRB accounting against the cell's ground truth.
#[test]
fn monitor_tracks_ground_truth_prb_usage() {
    let ue = UeId(1);
    let mut net = CellularNetwork::new(CellularConfig::default(), CellLoadProfile::busy(), 55);
    let rnti = net.add_ue(
        UeConfig::new(ue, vec![CellId(0)], 1, -88.0),
        MobilityTrace::stationary(-88.0),
    );
    let mut decoder = ControlChannelDecoder::new(
        CellId(0),
        DecoderConfig {
            miss_probability: 0.0,
            noise_candidate_probability: 0.0,
            total_prbs: 100,
        },
        DetRng::new(1),
    );
    let mut monitor = CellStatusMonitor::new(MonitorConfig::new(rnti, vec![(CellId(0), 100)]));
    let mut fusion = MessageFusion::new(vec![CellId(0)]);

    let mut true_own_prbs = 0.0;
    let window = 40u64;
    let total = 2_000u64;
    for (packet_id, ms) in (0..total).enumerate() {
        let now = Instant::from_millis(ms);
        // Keep the UE modestly loaded.
        net.enqueue_packet(ue, packet_id as u64, 1500, now);
        let report = net.tick(now);
        if ms >= total - window {
            for cr in &report.cell_reports {
                if cr.cell == CellId(0) {
                    true_own_prbs += f64::from(cr.prb_usage.allocated_to(ue));
                }
            }
        }
        let decoded = decoder.decode_subframe(ms, &report.dci_messages);
        for fused in fusion.ingest(CellId(0), ms, decoded) {
            monitor.ingest(&fused);
        }
    }
    let snapshot = monitor.snapshot(CellId(0)).expect("tracked");
    let true_avg = true_own_prbs / window as f64;
    assert!(
        (snapshot.own_prbs - true_avg).abs() <= 2.0,
        "monitor sees {:.2} PRBs/subframe, ground truth {:.2}",
        snapshot.own_prbs,
        true_avg
    );
    assert!(snapshot.detected_users >= 1);
}

/// The capacity estimate never exceeds what the whole cell could deliver.
#[test]
fn capacity_estimate_is_bounded_by_cell_capacity() {
    let ue = UeId(1);
    let mut net = CellularNetwork::new(CellularConfig::default(), CellLoadProfile::busy(), 77);
    let rnti = net.add_ue(
        UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
        MobilityTrace::stationary(-85.0),
    );
    let mut client = PbeClient::new(rnti, vec![(CellId(0), 100)]);
    let mut decoder =
        ControlChannelDecoder::new(CellId(0), DecoderConfig::default(), DetRng::new(9));
    let mut fusion = MessageFusion::new(vec![CellId(0)]);
    let estimator = CapacityEstimator::new();

    let mut packet_id = 0u64;
    for ms in 0..1_500u64 {
        let now = Instant::from_millis(ms);
        for _ in 0..4 {
            net.enqueue_packet(ue, packet_id, 1500, now);
            packet_id += 1;
        }
        let report = net.tick(now);
        let decoded = decoder.decode_subframe(ms, &report.dci_messages);
        for fused in fusion.ingest(CellId(0), ms, decoded) {
            client.on_subframe(&fused);
        }
        let snapshots = client.monitor_mut().snapshots();
        let estimate = estimator.estimate(&snapshots);
        // 100 PRBs × ~1.7 kbit/PRB ≈ 170 kbit per subframe is the hard cap
        // for a 20 MHz cell with 2 streams; allow a small margin.
        assert!(
            estimate.available_bits_per_subframe <= 180_000.0,
            "estimate {} exceeds the physical cell capacity at ms {ms}",
            estimate.available_bits_per_subframe
        );
        assert!(estimate.fair_share_bits_per_subframe <= 180_000.0);
    }
    // After warm-up the estimate is meaningfully positive.
    assert!(client.capacity().available_bits_per_subframe > 10_000.0);
}

/// A lossy decoder (2 % missed messages) only slightly perturbs the capacity
/// estimate relative to a perfect decoder.
#[test]
fn capacity_estimate_is_robust_to_decoder_misses() {
    let run = |miss: f64| -> f64 {
        let ue = UeId(1);
        let mut net = CellularNetwork::new(CellularConfig::default(), CellLoadProfile::busy(), 88);
        let rnti = net.add_ue(
            UeConfig::new(ue, vec![CellId(0)], 1, -88.0),
            MobilityTrace::stationary(-88.0),
        );
        let mut client = PbeClient::new(rnti, vec![(CellId(0), 100)]);
        let mut decoder = ControlChannelDecoder::new(
            CellId(0),
            DecoderConfig {
                miss_probability: miss,
                noise_candidate_probability: 0.05,
                total_prbs: 100,
            },
            DetRng::new(4),
        );
        let mut fusion = MessageFusion::new(vec![CellId(0)]);
        let mut packet_id = 0u64;
        for ms in 0..1_000u64 {
            let now = Instant::from_millis(ms);
            for _ in 0..2 {
                net.enqueue_packet(ue, packet_id, 1500, now);
                packet_id += 1;
            }
            let report = net.tick(now);
            let decoded = decoder.decode_subframe(ms, &report.dci_messages);
            for fused in fusion.ingest(CellId(0), ms, decoded) {
                client.on_subframe(&fused);
            }
        }
        client.capacity().available_bits_per_subframe
    };
    let perfect = run(0.0);
    let lossy = run(0.02);
    let diff = (perfect - lossy).abs() / perfect;
    assert!(
        diff < 0.15,
        "2% decoder misses changed the estimate by {:.1}%",
        diff * 100.0
    );
}
