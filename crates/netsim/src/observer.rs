//! Typed simulation events and the observer interface.
//!
//! The simulation engine narrates everything measurable as [`SimEvent`]s.
//! Observers registered through
//! [`SimBuilder::observe`](crate::builder::SimBuilder::observe) receive every
//! event; the built-in metrics collector that produces
//! [`SimResult`](crate::sim::SimResult) is itself an observer of the same
//! stream, so an experiment that needs a custom telemetry cut (the
//! `handover_estimate` and `competing_flows` examples, for instance) taps the
//! events instead of re-deriving numbers from bespoke simulator hooks.

use crate::wired::LinkStats;
use pbe_cc_algorithms::api::{AckInfo, PbeFeedback};
use pbe_cellular::carrier::CaEvent;
use pbe_cellular::config::{CellId, UeId};
use pbe_cellular::network::NetworkTickReport;
use pbe_stats::time::{Duration, Instant};

/// One observable simulation event.
#[derive(Debug)]
pub enum SimEvent<'a> {
    /// The radio access network finished scheduling one subframe.  The
    /// report carries the DCI messages, per-cell PRB usage and deliveries.
    SubframeScheduled {
        /// Subframe start time.
        now: Instant,
        /// The network's full per-subframe report.
        report: &'a NetworkTickReport,
    },
    /// A secondary carrier was activated or deactivated.
    CaTriggered {
        /// The carrier-aggregation event.
        event: CaEvent,
    },
    /// A UE's serving cell changed (A3 reselection fired): queued and
    /// in-flight data was forwarded to the target cell and the endpoint's
    /// monitor began re-synchronising onto its control channel.
    Handover {
        /// When the switch took effect.
        at: Instant,
        /// The device that changed cells.
        ue: UeId,
        /// The old serving cell.
        from: CellId,
        /// The new serving cell.
        to: CellId,
    },
    /// The sender of a flow processed one acknowledgement (after the
    /// congestion controller saw it).
    AckProcessed {
        /// Flow id.
        flow: u32,
        /// The acknowledgement, including any PBE feedback it carried.
        ack: &'a AckInfo,
    },
    /// A packet reached the receiver, or was lost — either on the radio link
    /// (HARQ exhaustion) or dropped at the wired bottleneck queue.
    PacketDelivered {
        /// Flow id.
        flow: u32,
        /// Delivery (or loss) time.  For wired drops this is the send time —
        /// the packet never crossed the path.
        at: Instant,
        /// Payload bytes.
        bytes: u64,
        /// One-way delay experienced by the packet (zero for wired drops,
        /// which have no meaningful delay sample).
        one_way: Duration,
        /// False if the packet was lost.
        delivered: bool,
        /// True when the loss happened at the wired bottleneck queue rather
        /// than on the radio link; always false when `delivered` is true.
        wired_drop: bool,
    },
    /// A receiver agent produced a capacity estimate for an ACK.
    CapacityEstimated {
        /// Flow id.
        flow: u32,
        /// Time of the estimate.
        at: Instant,
        /// The feedback piggybacked on the acknowledgement.
        feedback: PbeFeedback,
    },
    /// A flow's receiver agent changed its bottleneck-state belief.
    StateChanged {
        /// Flow id.
        flow: u32,
        /// Time of the switch.
        at: Instant,
        /// The new belief: true if the wired Internet is the bottleneck.
        internet_bottleneck: bool,
    },
    /// A shared-backhaul queue ECN-marked a packet (only emitted when
    /// [`SimConfig::backhaul`](crate::sim::SimConfig) is configured).
    BackhaulMark {
        /// Flow id owning the marked packet.
        flow: u32,
        /// Index of the marking link in the backhaul configuration.
        link: usize,
        /// Name of the marking link.
        name: &'a str,
        /// When the marking decision was taken.
        at: Instant,
        /// Bytes already queued at the link when the packet arrived.
        queued_bytes: u64,
    },
    /// A shared-backhaul queue dropped a packet.
    BackhaulDrop {
        /// Flow id owning the dropped packet.
        flow: u32,
        /// Index of the dropping link in the backhaul configuration.
        link: usize,
        /// Name of the dropping link.
        name: &'a str,
        /// When the drop happened.
        at: Instant,
        /// Bytes queued at the link when the packet was refused.
        queued_bytes: u64,
    },
    /// Per-subframe sample of every backhaul link's queue occupancy, in
    /// link-configuration order (only emitted when a backhaul is configured).
    BackhaulSampled {
        /// Sample time (the subframe start).
        now: Instant,
        /// Queued bytes per link.
        queued_bytes: &'a [u64],
    },
    /// End-of-run summary of one backhaul link.
    BackhaulLinkClosed {
        /// Index of the link in the backhaul configuration.
        link: usize,
        /// Link name.
        name: &'a str,
        /// Line rate, bits per second.
        rate_bps: f64,
        /// Byte and packet counters.
        stats: LinkStats,
        /// Largest queue occupancy ever seen, bytes.
        max_queued_bytes: u64,
        /// Median per-packet queueing delay, milliseconds.
        p50_queue_delay_ms: f64,
        /// 95th-percentile per-packet queueing delay, milliseconds.
        p95_queue_delay_ms: f64,
    },
    /// A scheduled cell outage started or ended (only emitted when
    /// [`SimConfig::faults`](crate::sim::SimConfig) schedules one).
    FaultCellOutage {
        /// The cell going dark (or coming back).
        cell: CellId,
        /// When the transition happened.
        at: Instant,
        /// True at the outage start, false at the end.
        down: bool,
        /// UEs whose primary serving cell was the faulted cell at the
        /// transition (empty at outage end).
        residents: &'a [UeId],
    },
    /// Resident UEs of a dark cell declared radio-link failure and
    /// re-selected (or failed to).
    FaultRlf {
        /// The cell the UEs abandoned.
        cell: CellId,
        /// When RLF was declared (outage start + detection delay).
        at: Instant,
        /// UEs that found a live configured cell, with their new serving
        /// cell, in UE order.
        reconnected: &'a [(UeId, CellId)],
        /// UEs with no live configured cell to fall back to; they stay
        /// attached and wait for service to return.
        stranded_ues: &'a [UeId],
        /// Downlink packets left queued at the dark cell by UEs that could
        /// not re-select.
        stranded_packets: u64,
    },
    /// A scheduled backhaul link flap started or ended.
    FaultLinkFlap {
        /// Name of the flapped link.
        name: &'a str,
        /// When the transition happened.
        at: Instant,
        /// True at the flap start, false at the end.
        down: bool,
    },
    /// A scheduled control-channel decode-loss burst started: the flow's
    /// PDCCH pipeline decodes nothing until `until_ms`.
    FaultDecodeLoss {
        /// The affected flow.
        flow: u32,
        /// Burst start.
        at: Instant,
        /// First millisecond after the burst (exclusive).
        until_ms: u64,
    },
    /// A flow reached the end of the simulation; final sender-side stats.
    FlowClosed {
        /// Flow id.
        flow: u32,
        /// Fraction of time the sender spent in the Internet-bottleneck
        /// state (0 for schemes without the concept).
        internet_bottleneck_fraction: f64,
        /// True if the flow's UE ever aggregated a secondary carrier.
        carrier_aggregation_triggered: bool,
    },
}

/// A consumer of simulation events.
pub trait Observer {
    /// Called for every event, in simulation order.
    fn on_event(&mut self, event: &SimEvent<'_>);
}

impl<F: FnMut(&SimEvent<'_>)> Observer for F {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self(event)
    }
}
