//! Deterministic end-to-end network simulator for the PBE-CC evaluation.
//!
//! The simulator reproduces the paper's testbed topology (Fig. 4 / Fig. 10a):
//! a content server on the wired Internet, a wired path with its own
//! propagation delay and (optionally) its own bottleneck link and queue, the
//! cellular base station with per-UE queues and carrier aggregation
//! (`pbe-cellular`), and the mobile receiver.  The clock advances in 1 ms
//! subframes (the cellular MAC granularity); all randomness derives from a
//! single experiment seed, so a run is exactly reproducible.
//!
//! # Architecture: schemes, receiver agents, observers
//!
//! The engine in [`sim`] is *scheme-agnostic*; three composable APIs carry
//! everything scheme- or experiment-specific:
//!
//! * **Schemes** — congestion controllers are built from the string-keyed
//!   [`SchemeRegistry`](pbe_cc_algorithms::registry::SchemeRegistry).  The
//!   [`scheme`] table used by a simulation maps each registry key to its
//!   sender-side factory; PBE-CC is one entry like any baseline.  [`SchemeChoice::Named`] selects externally registered
//!   schemes, so an experiment can add one without touching this crate.
//! * **Receiver agents** — per-flow, receiver-side state machines
//!   implementing [`ReceiverAgent`] (re-exported from `pbe-core`): they
//!   observe each subframe's control channel, follow carrier events, and
//!   annotate ACKs.  PBE-CC's decoder → fusion → client pipeline
//!   ([`PbeReceiverAgent`](pbe_core::PbeReceiverAgent)) plugs in here; a
//!   scheme that registers no receiver has no agent, and its flows cost the
//!   receiver stage nothing.
//! * **Observers** — the engine narrates typed [`SimEvent`]s (subframes
//!   scheduled, ACKs processed, packets delivered, capacity estimates,
//!   carrier and bottleneck-state changes) to any registered
//!   [`Observer`].  The standard [`SimResult`] is assembled by the built-in
//!   metrics observer from the same stream any other observer taps.
//!
//! # Entry points
//!
//! A [`SimConfig`] is the one description of a scenario: it serializes, it
//! is what `pbe-bench`'s content key hashes, and [`Simulation::new`] runs
//! it with the standard schemes.  Unset fields come from
//! [`SimConfig::default`]:
//!
//! ```
//! use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
//! use pbe_cellular::config::{CellId, UeConfig, UeId};
//! use pbe_cellular::channel::MobilityTrace;
//! use pbe_stats::time::Duration;
//!
//! let duration = Duration::from_secs(1);
//! let ue = UeId(1);
//! let result = Simulation::new(SimConfig {
//!     seed: 1,
//!     duration,
//!     ues: vec![(UeConfig::new(ue, vec![CellId(0)], 1, -85.0), MobilityTrace::stationary(-85.0))],
//!     flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
//!     ..SimConfig::default()
//! })
//! .run();
//! assert_eq!(result.flows.len(), 1);
//! ```
//!
//! [`SimBuilder::from_config`] wraps the same record when a run needs what
//! a record cannot hold: extra schemes, receiver agents or observers.
//!
//! Scenario grids (scheme × trace × seed) and parallel execution live one
//! level up, in `pbe-bench`'s `sweep` module, which lowers each declarative
//! `ScenarioSpec` onto a [`SimConfig`] and runs it through this engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backhaul;
pub mod builder;
pub mod config;
pub mod faults;
pub mod flow;
pub mod metrics;
pub mod observer;
pub mod rate;
mod runs;
pub mod scheme;
pub mod sim;
pub mod wired;

pub use backhaul::{Backhaul, BackhaulConfig, BackhaulLinkResult, BackhaulLinkSpec, BackhaulRoute};
pub use builder::SimBuilder;
pub use config::{CellTrajectory, ConfigError, SimConfig};
pub use faults::{
    CellOutage, DecodeLossBurst, FaultKind, FaultRecoveryRecord, FaultSchedule, FlapPolicy,
    LinkFlap,
};
pub use flow::{AppModel, FlowConfig, FlowResult, SchemeChoice};
pub use observer::{Observer, SimEvent};
pub use pbe_cellular::handover::HandoverEvent;
pub use pbe_core::receiver::{ReceiverAgent, ReceiverCtx, ReceiverFactory};
pub use rate::DeliveryRateEstimator;
pub use scheme::FIXED_SCHEME_ID;
pub use sim::{PrbInterval, SimResult, Simulation};
pub use wired::{LinkStats, WiredPath};
