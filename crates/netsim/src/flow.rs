//! Flow configuration and results.

use crate::scheme::FIXED_SCHEME_ID;
use pbe_cc_algorithms::api::SchemeName;
use pbe_cc_algorithms::registry::SchemeId;
use pbe_cellular::config::UeId;
use pbe_stats::time::{Duration, Instant};
use pbe_stats::FlowSummary;
use serde::{Deserialize, Serialize};

/// Which congestion-control scheme drives a flow.
///
/// The first three variants are the pre-registry serde shims (their JSON
/// representation is unchanged); [`SchemeChoice::Named`] addresses any scheme
/// registered with the simulation (see
/// [`SimBuilder::scheme`](crate::builder::SimBuilder::scheme)), so
/// experiments can run schemes this workspace has never heard of.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeChoice {
    /// PBE-CC: the sender from `pbe-core`, with the PDCCH decoders, message
    /// fusion and PBE client plugged in as the flow's receiver agent.
    Pbe,
    /// One of the baseline schemes (no receiver-side feedback beyond ACKs).
    Baseline(SchemeName),
    /// A fixed offered load with no congestion control at all (used by the
    /// carrier-aggregation and retransmission micro-experiments, and as the
    /// controlled competitor of §6.3.3).
    FixedRate,
    /// Any scheme registered in the simulation's scheme table under this
    /// registry key.
    Named(String),
}

impl SchemeChoice {
    /// A flow driven by an externally registered scheme.
    pub fn named(id: impl Into<String>) -> Self {
        SchemeChoice::Named(id.into())
    }

    /// The registry key this choice resolves to.  Display names flow from
    /// here — `SchemeId`'s `Display` is the single source of truth.
    pub fn id(&self) -> SchemeId {
        match self {
            SchemeChoice::Pbe => pbe_core::PBE_SCHEME_ID,
            SchemeChoice::Baseline(name) => SchemeId::from(*name),
            SchemeChoice::FixedRate => FIXED_SCHEME_ID,
            SchemeChoice::Named(name) => SchemeId::new(name.clone()),
        }
    }
}

impl std::fmt::Display for SchemeChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id().fmt(f)
    }
}

/// Application (traffic-generation) model of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AppModel {
    /// Bulk transfer: always has data to send (the paper's 20–60 s flows).
    Bulk,
    /// Constant offered load in bits per second, regardless of congestion
    /// control (paper Fig. 2 and Fig. 8 style experiments).
    ConstantRate(f64),
}

/// Configuration of one end-to-end flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Flow identifier (unique within a simulation).
    pub id: u32,
    /// The mobile device the flow terminates at.
    pub ue: UeId,
    /// Congestion-control scheme.
    pub scheme: SchemeChoice,
    /// Traffic model.
    pub app: AppModel,
    /// Time the flow starts sending.
    pub start: Instant,
    /// Time the flow stops sending.
    pub stop: Instant,
    /// One-way propagation delay of the wired path to this flow's server.
    pub server_one_way_delay: Duration,
    /// Optional wired bottleneck rate (bits per second) of the flow's private
    /// wired path.  A run with a shared backhaul
    /// ([`SimConfig::backhaul`](crate::sim::SimConfig::backhaul)) has no
    /// private paths and panics at start if a flow sets one.
    pub wired_bottleneck_bps: Option<f64>,
    /// Wired bottleneck queue limit in bytes.
    pub wired_queue_bytes: u64,
}

impl FlowConfig {
    /// A 20-second bulk flow with a ~40 ms RTT and no wired bottleneck — the
    /// paper's default stationary-link experiment.
    pub fn bulk(id: u32, ue: UeId, scheme: SchemeChoice, duration: Duration) -> Self {
        FlowConfig {
            id,
            ue,
            scheme,
            app: AppModel::Bulk,
            start: Instant::ZERO,
            stop: Instant::ZERO + duration,
            server_one_way_delay: Duration::from_millis(20),
            wired_bottleneck_bps: None,
            wired_queue_bytes: u64::MAX,
        }
    }

    /// Add a wired bottleneck (used by the Internet-bottleneck experiments).
    pub fn with_wired_bottleneck(mut self, rate_bps: f64, queue_bytes: u64) -> Self {
        self.wired_bottleneck_bps = Some(rate_bps);
        self.wired_queue_bytes = queue_bytes;
        self
    }

    /// Change the server's one-way propagation delay (RTT fairness sweeps).
    pub fn with_one_way_delay(mut self, delay: Duration) -> Self {
        self.server_one_way_delay = delay;
        self
    }

    /// Shift the flow's start/stop times.
    pub fn with_lifetime(mut self, start: Instant, stop: Instant) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }
}

/// Per-flow outcome of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowResult {
    /// The flow's configuration id.
    pub id: u32,
    /// The scheme label.
    pub scheme: String,
    /// Summary statistics (throughput, delay order statistics, …).
    pub summary: FlowSummary,
    /// Per-100 ms throughput timeline in Mbit/s.
    pub throughput_timeline_mbps: Vec<f64>,
    /// Per-100 ms mean one-way delay timeline in ms (`None` for idle windows).
    pub delay_timeline_ms: Vec<Option<f64>>,
    /// Packets lost (wired drops plus cellular HARQ failures).
    pub packets_lost: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_compose() {
        let f = FlowConfig::bulk(1, UeId(1), SchemeChoice::Pbe, Duration::from_secs(20))
            .with_wired_bottleneck(24e6, 250_000)
            .with_one_way_delay(Duration::from_millis(148))
            .with_lifetime(Instant::from_secs(5), Instant::from_secs(25));
        assert_eq!(f.scheme.to_string(), "PBE");
        assert_eq!(f.wired_bottleneck_bps, Some(24e6));
        assert_eq!(f.server_one_way_delay, Duration::from_millis(148));
        assert_eq!(f.start, Instant::from_secs(5));
        assert_eq!(f.stop, Instant::from_secs(25));
    }

    #[test]
    fn scheme_display_goes_through_the_registry_key() {
        assert_eq!(SchemeChoice::Baseline(SchemeName::Bbr).to_string(), "BBR");
        assert_eq!(SchemeChoice::FixedRate.to_string(), "Fixed");
        assert_eq!(SchemeChoice::named("TOY").to_string(), "TOY");
        assert_eq!(SchemeChoice::Pbe.id(), SchemeId::new("PBE"));
    }
}
