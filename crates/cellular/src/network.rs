//! The report types of the radio-access-network tick and the one-shard
//! network under its historical name.
//!
//! The engine itself — cells, UEs, carrier aggregation, handover and the
//! per-subframe data path — is [`ShardedNetwork`]; one shard is the whole
//! network ticked inline on the caller.  This module holds what a tick
//! reports ([`NetworkTickReport`], [`Delivery`], [`RlfOutcome`]) and the
//! behavioural unit tests of the engine.

use crate::carrier::CaEvent;
use crate::cell::SubframeReport;
use crate::config::{CellId, CellularConfig, UeId};
use crate::dci::DciMessage;
use crate::handover::HandoverEvent;
use crate::shard::ShardedNetwork;
use crate::traffic::CellLoadProfile;
use pbe_stats::time::Instant;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// RSRP reported for a cell that is out of service: far below any A3
/// threshold, so neither the L3 filter nor the RLF re-selection ever ranks a
/// down cell above a live one.
pub const OUTAGE_RSRP_DBM: f64 = -200.0;

/// What a radio-link-failure declaration did (see
/// [`ShardedNetwork::declare_rlf`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RlfOutcome {
    /// The forced re-selections, one per resident UE that found a live
    /// target, in UeId order (same shape as A3 handovers).
    pub events: Vec<HandoverEvent>,
    /// UEs that had no live configured cell to re-select and stay camped on
    /// the failed cell, in UeId order.
    pub stayed: Vec<UeId>,
    /// Downlink packets left queued at the failed cell for the UEs that
    /// could not re-select (data stranded until service returns).
    pub stranded_packets: u64,
}

/// A packet delivered (or lost) by the cellular network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Destination UE.
    pub ue: UeId,
    /// Packet id supplied at enqueue time.
    pub packet_id: u64,
    /// Payload bytes.
    pub bytes: u32,
    /// Time the packet was released to upper layers at the UE.
    pub at: Instant,
    /// False if the packet was lost (a transport block carrying part of it
    /// exhausted its HARQ retransmissions).
    pub delivered: bool,
    /// Cell that served the packet.
    pub cell: CellId,
}

/// Everything that happened in the radio access network during one subframe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkTickReport {
    /// Subframe index.
    pub subframe: u64,
    /// Packet deliveries and losses.
    pub deliveries: Vec<Delivery>,
    /// Every DCI message transmitted in every cell this subframe.
    pub dci_messages: Vec<DciMessage>,
    /// Per-cell detail (PRB usage, HARQ outcomes, queue depths).
    pub cell_reports: Vec<SubframeReport>,
    /// Carrier activation / deactivation events.
    pub ca_events: Vec<CaEvent>,
    /// Serving-cell handovers executed this subframe.
    #[serde(default)]
    pub handovers: Vec<HandoverEvent>,
}

/// A one-shard [`ShardedNetwork`] under the name the serial engine had.
/// The frozen `benchmark/` package constructs the network by this name; a
/// later benchmark PR may drop it.
pub struct CellularNetwork(ShardedNetwork);

impl CellularNetwork {
    /// Build the network as one shard (no worker threads).
    pub fn new(config: CellularConfig, load: CellLoadProfile, seed: u64) -> Self {
        CellularNetwork(ShardedNetwork::new(config, load, seed, 1))
    }
}

impl Deref for CellularNetwork {
    type Target = ShardedNetwork;
    fn deref(&self) -> &ShardedNetwork {
        &self.0
    }
}

impl DerefMut for CellularNetwork {
    fn deref_mut(&mut self) -> &mut ShardedNetwork {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MobilityTrace;
    use crate::config::UeConfig;

    fn network(load: CellLoadProfile) -> CellularNetwork {
        CellularNetwork::new(CellularConfig::default(), load, 42)
    }

    /// The shard counts the handover / outage / RLF tests run at: the whole
    /// network inline, and split so that cell 0 and its neighbours live in
    /// different shards.
    const SHARD_COUNTS: [usize; 2] = [1, 2];

    fn add_default_ue(net: &mut ShardedNetwork, max_cells: usize) -> UeId {
        let ue = UeId(1);
        net.add_ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], max_cells, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        ue
    }

    #[test]
    fn packets_flow_end_to_end() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 1);
        for i in 0..100u64 {
            net.enqueue_packet(ue, i, 1500, Instant::ZERO);
        }
        let mut delivered = 0;
        for sf in 0..200u64 {
            let report = net.tick(Instant::from_millis(sf));
            delivered += report.deliveries.iter().filter(|d| d.delivered).count();
        }
        assert_eq!(delivered, 100, "all packets delivered on an idle cell");
        assert_eq!(net.queue_bits(ue), 0);
        let (ok, lost) = net.ue_stats(ue);
        assert_eq!(ok, 100);
        assert_eq!(lost, 0);
    }

    #[test]
    fn deliveries_carry_reasonable_latency() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 1);
        net.enqueue_packet(ue, 1, 1500, Instant::ZERO);
        let mut delivery = None;
        for sf in 0..50u64 {
            let report = net.tick(Instant::from_millis(sf));
            if let Some(d) = report.deliveries.first() {
                delivery = Some(*d);
                break;
            }
        }
        let d = delivery.expect("packet delivered");
        assert!(d.delivered);
        // A single small packet on an idle cell goes out in the first few
        // subframes (no retransmission most of the time).
        assert!(d.at.as_millis() <= 30, "delivered at {}", d.at);
    }

    #[test]
    fn dci_messages_are_emitted_for_scheduled_users() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 1);
        let rnti = net.rnti_of(ue).unwrap();
        for i in 0..10u64 {
            net.enqueue_packet(ue, i, 1500, Instant::ZERO);
        }
        let report = net.tick(Instant::ZERO);
        assert!(report.dci_messages.iter().any(|d| d.rnti == rnti));
    }

    #[test]
    fn sustained_overload_triggers_carrier_aggregation() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 3);
        assert_eq!(net.active_cells(ue), vec![CellId(0)]);
        // Offer far more than the primary cell can carry (~160 Mbit/s):
        // 40 packets of 1500 B per ms = 480 Mbit/s.
        let mut activated = false;
        let mut packet_id = 0u64;
        for sf in 0..2000u64 {
            let now = Instant::from_millis(sf);
            for _ in 0..40 {
                net.enqueue_packet(ue, packet_id, 1500, now);
                packet_id += 1;
            }
            let report = net.tick(now);
            if report.ca_events.iter().any(|e| e.activated) {
                activated = true;
                break;
            }
        }
        assert!(activated, "secondary cell activated under overload");
        assert!(net.active_cells(ue).len() >= 2);
        assert!(net.carrier_aggregation_triggered(ue));
    }

    #[test]
    fn modest_load_never_triggers_carrier_aggregation() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 3);
        for (packet_id, sf) in (0..2000u64).enumerate() {
            let now = Instant::from_millis(sf);
            // ~12 Mbit/s, far below the primary cell's capacity.
            net.enqueue_packet(ue, packet_id as u64, 1500, now);
            let report = net.tick(now);
            assert!(report.ca_events.is_empty());
        }
        assert_eq!(net.active_cells(ue), vec![CellId(0)]);
        assert!(!net.carrier_aggregation_triggered(ue));
    }

    #[test]
    fn two_ues_share_and_both_make_progress() {
        let mut net = network(CellLoadProfile::none());
        let a = UeId(1);
        let b = UeId(2);
        net.add_ue(
            UeConfig::new(a, vec![CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        net.add_ue(
            UeConfig::new(b, vec![CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        let mut pid = 0u64;
        let mut delivered_a = 0u64;
        let mut delivered_b = 0u64;
        for sf in 0..500u64 {
            let now = Instant::from_millis(sf);
            for _ in 0..10 {
                net.enqueue_packet(a, pid, 1500, now);
                pid += 1;
                net.enqueue_packet(b, pid, 1500, now);
                pid += 1;
            }
            let report = net.tick(now);
            for d in report.deliveries.iter().filter(|d| d.delivered) {
                if d.ue == a {
                    delivered_a += 1;
                } else if d.ue == b {
                    delivered_b += 1;
                }
            }
        }
        assert!(delivered_a > 1000);
        assert!(delivered_b > 1000);
        let ratio = delivered_a as f64 / delivered_b as f64;
        assert!((0.8..1.25).contains(&ratio), "delivery ratio {ratio}");
    }

    #[test]
    fn background_traffic_consumes_prbs() {
        let mut net = network(CellLoadProfile::busy());
        let _ue = add_default_ue(&mut net, 1);
        let mut allocated = 0u64;
        for sf in 0..1000u64 {
            let report = net.tick(Instant::from_millis(sf));
            for c in &report.cell_reports {
                if c.cell == CellId(0) {
                    allocated += u64::from(c.prb_usage.allocated());
                }
            }
        }
        assert!(
            allocated > 5_000,
            "background users occupied PRBs: {allocated}"
        );
    }

    #[test]
    fn tick_into_reuses_buffers_and_matches_tick() {
        let mut a = network(CellLoadProfile::none());
        let mut b = network(CellLoadProfile::none());
        add_default_ue(&mut a, 1);
        add_default_ue(&mut b, 1);
        let mut reused = NetworkTickReport::default();
        for sf in 0..50u64 {
            let now = Instant::from_millis(sf);
            a.enqueue_packet(UeId(1), sf, 1500, now);
            b.enqueue_packet(UeId(1), sf, 1500, now);
            let fresh = a.tick(now);
            b.tick_into(now, &mut reused);
            assert_eq!(
                serde_json::to_string(&fresh).unwrap(),
                serde_json::to_string(&reused).unwrap(),
                "subframe {sf}"
            );
        }
    }

    /// Two-cell setup where the UE walks from cell 0's coverage into
    /// cell 1's: cell 0 fades −85 → −110 dBm while cell 1 rises −110 → −85.
    fn crossing_network(shards: usize) -> (ShardedNetwork, UeId) {
        let mut config = CellularConfig::default();
        config.handover.min_interval_ms = 500;
        let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), 7, shards);
        let ue = UeId(1);
        net.add_ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        net.set_cell_trace(
            ue,
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (4.0, -110.0)]),
        );
        net.set_cell_trace(
            ue,
            CellId(1),
            MobilityTrace::from_secs(&[(0.0, -110.0), (4.0, -85.0)]),
        );
        (net, ue)
    }

    #[test]
    fn boundary_crossing_trace_triggers_handover() {
        for shards in SHARD_COUNTS {
            let (mut net, ue) = crossing_network(shards);
            assert_eq!(net.serving_cell(ue), Some(CellId(0)));
            let mut pid = 0u64;
            let mut handovers: Vec<HandoverEvent> = Vec::new();
            let mut delivered_after = 0u64;
            for sf in 0..6000u64 {
                let now = Instant::from_millis(sf);
                for _ in 0..4 {
                    net.enqueue_packet(ue, pid, 1500, now);
                    pid += 1;
                }
                let report = net.tick(now);
                handovers.extend(report.handovers.iter().copied());
                if !handovers.is_empty() {
                    delivered_after +=
                        report.deliveries.iter().filter(|d| d.delivered).count() as u64;
                }
            }
            assert!(!handovers.is_empty(), "the crossing triggers a handover");
            let first = handovers[0];
            assert_eq!(first.ue, ue);
            assert_eq!(first.from, CellId(0));
            assert_eq!(first.to, CellId(1));
            // The trigger should land around the RSRP crossing point (2 s into
            // the walk), delayed by the L3 filter + TTT, not at the very end.
            assert!(
                (1_500..4_000).contains(&first.at.as_millis()),
                "handover at {}",
                first.at
            );
            assert_eq!(net.serving_cell(ue), Some(CellId(1)));
            assert!(
                delivered_after > 1_000,
                "data keeps flowing on the target cell: {delivered_after}"
            );
        }
    }

    #[test]
    fn handover_forwards_in_flight_data_without_mass_loss() {
        for shards in SHARD_COUNTS {
            let (mut net, ue) = crossing_network(shards);
            let mut pid = 0u64;
            let mut delivered_ids: Vec<u64> = Vec::new();
            for sf in 0..6000u64 {
                let now = Instant::from_millis(sf);
                for _ in 0..4 {
                    net.enqueue_packet(ue, pid, 1500, now);
                    pid += 1;
                }
                let report = net.tick(now);
                delivered_ids.extend(
                    report
                        .deliveries
                        .iter()
                        .filter(|d| d.delivered)
                        .map(|d| d.packet_id),
                );
            }
            // No packet is delivered twice — in particular not across the
            // handover, where a flushed final segment and the forwarded HARQ
            // remainder of the same packet could each produce one.
            let total = delivered_ids.len();
            delivered_ids.sort_unstable();
            delivered_ids.dedup();
            assert_eq!(total, delivered_ids.len(), "duplicate deliveries");
            let (delivered, lost) = net.ue_stats(ue);
            assert!(delivered > 20_000, "delivered {delivered}");
            // The walk spends seconds at the −110 dBm cell edge, where HARQ
            // exhaustion losses are expected; the handover itself must not add
            // bulk loss on top (forwarding, not dropping, the in-flight data).
            assert!(
                (lost as f64) < 0.02 * delivered as f64,
                "lost {lost} vs delivered {delivered}"
            );
        }
    }

    #[test]
    fn carrier_aggregation_still_works_after_a_handover() {
        for shards in SHARD_COUNTS {
            // A CA-capable UE hands over, then offers more than the new serving
            // cell can carry: the CA machinery must be able to re-activate the
            // *old* serving cell as a secondary — which requires the handover to
            // have re-attached the UE to every configured cell (an unattached
            // cell would black-hole the flow-split packets).
            let mut config = CellularConfig::default();
            config.handover.min_interval_ms = 500;
            config.ca_activation_subframes = 50;
            let mut net = ShardedNetwork::new(config, CellLoadProfile::none(), 7, shards);
            let ue = UeId(1);
            net.add_ue(
                UeConfig::new(ue, vec![CellId(0), CellId(1)], 2, -85.0),
                MobilityTrace::stationary(-85.0),
            );
            // Cross from cell 0 to cell 1, then stay strong on both so the UE
            // keeps decent rates on the re-activated secondary.
            net.set_cell_trace(
                ue,
                CellId(0),
                MobilityTrace::from_secs(&[(0.0, -85.0), (2.0, -100.0), (4.0, -88.0)]),
            );
            net.set_cell_trace(
                ue,
                CellId(1),
                MobilityTrace::from_secs(&[(0.0, -100.0), (2.0, -85.0), (4.0, -85.0)]),
            );
            let mut pid = 0u64;
            let mut handed_over = false;
            let mut reaggregated = false;
            let mut delivered_after_ca = 0u64;
            for sf in 0..10_000u64 {
                let now = Instant::from_millis(sf);
                // Offer far more than one 20 MHz cell can carry.
                for _ in 0..20 {
                    net.enqueue_packet(ue, pid, 1500, now);
                    pid += 1;
                }
                let report = net.tick(now);
                handed_over |= !report.handovers.is_empty();
                if handed_over && net.active_cells(ue).len() >= 2 {
                    reaggregated = true;
                }
                if reaggregated {
                    delivered_after_ca +=
                        report.deliveries.iter().filter(|d| d.delivered).count() as u64;
                }
            }
            assert!(handed_over, "the crossing hands over");
            assert!(
                reaggregated,
                "carrier aggregation re-activates a secondary after the handover"
            );
            assert!(
                delivered_after_ca > 1_000,
                "packets keep flowing on the re-aggregated cells: {delivered_after_ca}"
            );
        }
    }

    #[test]
    fn disabled_handover_keeps_the_serving_cell() {
        let (mut net_ho, ue) = crossing_network(1);
        let mut config = CellularConfig::default();
        config.handover.enabled = false;
        let mut net_static = CellularNetwork::new(config, CellLoadProfile::none(), 7);
        net_static.add_ue(
            UeConfig::new(ue, vec![CellId(0), CellId(1)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        net_static.set_cell_trace(
            ue,
            CellId(0),
            MobilityTrace::from_secs(&[(0.0, -85.0), (4.0, -110.0)]),
        );
        net_static.set_cell_trace(
            ue,
            CellId(1),
            MobilityTrace::from_secs(&[(0.0, -110.0), (4.0, -85.0)]),
        );
        for sf in 0..6000u64 {
            let now = Instant::from_millis(sf);
            net_ho.tick(now);
            let report = net_static.tick(now);
            assert!(report.handovers.is_empty());
        }
        assert_eq!(net_static.serving_cell(ue), Some(CellId(0)));
        assert_eq!(net_ho.serving_cell(ue), Some(CellId(1)));
    }

    #[test]
    fn grids_past_256_cells_construct_and_tick() {
        // The CellId table used to be a fixed 256-entry array; a metro grid
        // must construct, look cells up, and move data without panicking.
        use crate::config::{Bandwidth, CellConfig};
        let config = CellularConfig {
            cells: (0..300u16)
                .map(|i| CellConfig {
                    id: CellId(i),
                    bandwidth: Bandwidth::Mhz10,
                    carrier_ghz: 1.94,
                    max_spatial_streams: 2,
                })
                .collect(),
            ..CellularConfig::default()
        };
        let mut net = CellularNetwork::new(config, CellLoadProfile::none(), 1);
        let ue = UeId(1);
        net.add_ue(
            UeConfig::new(ue, vec![CellId(299), CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        assert_eq!(net.serving_cell(ue), Some(CellId(299)));
        let mut delivered = 0;
        for sf in 0..50u64 {
            let now = Instant::from_millis(sf);
            net.enqueue_packet(ue, sf, 1500, now);
            let report = net.tick(now);
            assert_eq!(report.cell_reports.len(), 300);
            delivered += report.deliveries.iter().filter(|d| d.delivered).count();
        }
        assert!(delivered > 0, "data flows on a 300-cell grid");
    }

    #[test]
    fn cell_outage_forces_rlf_reselection_and_data_continues() {
        for shards in SHARD_COUNTS {
            let mut net = ShardedNetwork::new(
                CellularConfig::default(),
                CellLoadProfile::none(),
                42,
                shards,
            );
            let ue = add_default_ue(&mut net, 1);
            let mut pid = 0u64;
            // Warm up: measurements populate the L3 filter for the neighbours.
            for sf in 0..1000u64 {
                let now = Instant::from_millis(sf);
                net.enqueue_packet(ue, pid, 1500, now);
                pid += 1;
                net.tick(now);
            }
            assert_eq!(net.serving_cell(ue), Some(CellId(0)));

            // Outage: cell 0 goes dark; residents reported in UeId order.
            let residents = net.set_cell_outage(CellId(0), true);
            assert_eq!(residents, vec![ue]);
            assert!(net.cell_is_down(CellId(0)));

            // Detection window: the down cell schedules nothing.
            for sf in 1000..1040u64 {
                let now = Instant::from_millis(sf);
                net.enqueue_packet(ue, pid, 1500, now);
                pid += 1;
                let report = net.tick(now);
                assert!(
                    report.cell_reports[0].dci_messages.is_empty(),
                    "down cell stays silent at subframe {sf}"
                );
            }

            // RLF: the UE re-selects a live neighbour and its queued data is
            // forwarded, not stranded.
            let mut deliveries = Vec::new();
            let outcome = net.declare_rlf(CellId(0), Instant::from_millis(1040), &mut deliveries);
            assert_eq!(outcome.events.len(), 1);
            assert_eq!(outcome.events[0].from, CellId(0));
            assert_ne!(outcome.events[0].to, CellId(0));
            assert!(outcome.stayed.is_empty());
            assert_eq!(outcome.stranded_packets, 0);
            let target = outcome.events[0].to;
            assert_eq!(net.serving_cell(ue), Some(target));

            // Data keeps flowing on the target while cell 0 is still down.
            let mut delivered = 0u64;
            for sf in 1041..1600u64 {
                let now = Instant::from_millis(sf);
                net.enqueue_packet(ue, pid, 1500, now);
                pid += 1;
                let report = net.tick(now);
                delivered += report.deliveries.iter().filter(|d| d.delivered).count() as u64;
            }
            assert!(delivered > 400, "delivered {delivered} on the target cell");
        }
    }

    #[test]
    fn rlf_with_no_live_neighbour_strands_the_queue() {
        for shards in SHARD_COUNTS {
            let mut net = ShardedNetwork::new(
                CellularConfig::default(),
                CellLoadProfile::none(),
                42,
                shards,
            );
            let ue = UeId(1);
            net.add_ue(
                UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            );
            for sf in 0..50u64 {
                let now = Instant::from_millis(sf);
                net.tick(now);
            }
            net.set_cell_outage(CellId(0), true);
            // Packets arriving during the outage pile up at the dead cell.
            for i in 0..10u64 {
                net.enqueue_packet(ue, i, 1500, Instant::from_millis(50));
            }
            let mut deliveries = Vec::new();
            let outcome = net.declare_rlf(CellId(0), Instant::from_millis(90), &mut deliveries);
            assert!(outcome.events.is_empty(), "nowhere to go");
            assert_eq!(outcome.stayed, vec![ue]);
            assert_eq!(outcome.stranded_packets, 10);
            assert_eq!(net.serving_cell(ue), Some(CellId(0)));
            // Service returns: the stranded queue drains.
            net.set_cell_outage(CellId(0), false);
            let mut delivered = 0u64;
            for sf in 91..200u64 {
                let report = net.tick(Instant::from_millis(sf));
                delivered += report.deliveries.iter().filter(|d| d.delivered).count() as u64;
            }
            assert_eq!(delivered, 10, "the stranded packets deliver on recovery");
        }
    }

    #[test]
    fn stationary_ue_never_hands_over() {
        let mut net = network(CellLoadProfile::none());
        let ue = add_default_ue(&mut net, 3);
        for sf in 0..10_000u64 {
            let now = Instant::from_millis(sf);
            net.enqueue_packet(ue, sf, 1500, now);
            let report = net.tick(now);
            assert!(
                report.handovers.is_empty(),
                "spurious handover at subframe {sf}"
            );
        }
        assert_eq!(net.serving_cell(ue), Some(CellId(0)));
    }
}
