//! Fluent construction of simulations.
//!
//! [`SimBuilder`] assembles a scenario — cells, load, devices, flows — plus
//! the extensible parts: scheme registrations and observers.  A minimal
//! experiment is a handful of chained calls:
//!
//! ```
//! use pbe_netsim::{SimBuilder, FlowConfig, SchemeChoice};
//! use pbe_cellular::config::{CellId, UeConfig, UeId};
//! use pbe_cellular::channel::MobilityTrace;
//! use pbe_stats::time::Duration;
//!
//! let duration = Duration::from_secs(2);
//! let ue = UeId(1);
//! let result = SimBuilder::new()
//!     .seed(7)
//!     .duration(duration)
//!     .ue(UeConfig::new(ue, vec![CellId(0)], 1, -85.0), MobilityTrace::stationary(-85.0))
//!     .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
//!     .run();
//! assert_eq!(result.flows.len(), 1);
//! ```
//!
//! Registering a new scheme or tapping the event stream needs no simulator
//! changes: `.scheme("TOY", |ctx| ...)` adds a congestion controller under a
//! fresh registry key, and `.observe(...)` attaches any
//! [`Observer`].

use crate::backhaul::BackhaulConfig;
use crate::faults::FaultSchedule;
use crate::flow::FlowConfig;
use crate::observer::Observer;
use crate::scheme::SchemeTable;
use crate::sim::{CellTrajectory, SimConfig, SimResult, Simulation};
use pbe_cc_algorithms::registry::{SchemeCtx, SchemeId};
use pbe_cc_algorithms::CongestionControl;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_core::receiver::ReceiverFactory;
use pbe_stats::time::Duration;

/// Fluent builder for [`Simulation`]s.
pub struct SimBuilder {
    cellular: CellularConfig,
    load: CellLoadProfile,
    seed: u64,
    duration: Duration,
    ues: Vec<(UeConfig, MobilityTrace)>,
    flows: Vec<FlowConfig>,
    trajectories: Vec<CellTrajectory>,
    shards: Option<usize>,
    backhaul: Option<BackhaulConfig>,
    faults: Option<FaultSchedule>,
    table: SchemeTable,
    observers: Vec<Box<dyn Observer>>,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder::new()
    }
}

impl SimBuilder {
    /// A builder with the default three-cell network, no background load, a
    /// 10-second horizon and the standard scheme table.
    pub fn new() -> Self {
        SimBuilder {
            cellular: CellularConfig::default(),
            load: CellLoadProfile::none(),
            seed: 0,
            duration: Duration::from_secs(10),
            ues: Vec::new(),
            flows: Vec::new(),
            trajectories: Vec::new(),
            shards: None,
            backhaul: None,
            faults: None,
            table: SchemeTable::standard(),
            observers: Vec::new(),
        }
    }

    /// Start from an existing [`SimConfig`] (e.g. one deserialized from
    /// JSON) and extend it with schemes and observers.
    pub fn from_config(config: SimConfig) -> Self {
        SimBuilder {
            cellular: config.cellular,
            load: config.load,
            seed: config.seed,
            duration: config.duration,
            ues: config.ues,
            flows: config.flows,
            trajectories: config.trajectories,
            shards: config.shards,
            backhaul: config.backhaul,
            faults: config.faults,
            table: SchemeTable::standard(),
            observers: Vec::new(),
        }
    }

    /// Set the cell layout and the background-traffic profile together.
    pub fn cell_profile(mut self, cellular: CellularConfig, load: CellLoadProfile) -> Self {
        self.cellular = cellular;
        self.load = load;
        self
    }

    /// Set the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the simulated duration.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Add a mobile device with its mobility trace.
    pub fn ue(mut self, config: UeConfig, trace: MobilityTrace) -> Self {
        self.ues.push((config, trace));
        self
    }

    /// Override the RSSI trajectory a UE sees towards one of its configured
    /// cells.  With one override per cell, the cells strengthen and fade
    /// independently as the device moves — a multi-cell trajectory, the
    /// input of every handover scenario.
    pub fn trajectory(mut self, ue: UeId, cell: CellId, trace: MobilityTrace) -> Self {
        self.trajectories.push(CellTrajectory { ue, cell, trace });
        self
    }

    /// Add an end-to-end flow.
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.flows.push(flow);
        self
    }

    /// Tick the radio access network on this many shards (the default is
    /// one, ticked inline on the calling thread).  Results are
    /// byte-identical for every shard count; only the wall clock changes.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Route every flow's wired segment through a shared backhaul topology
    /// instead of the per-flow private path (see
    /// [`SimConfig::backhaul`]).
    pub fn backhaul(mut self, backhaul: BackhaulConfig) -> Self {
        self.backhaul = Some(backhaul);
        self
    }

    /// Inject a deterministic fault schedule (cell outages, link flaps,
    /// decode-loss bursts; see [`SimConfig::faults`]).
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replace the whole scheme table (rarely needed; prefer
    /// [`SimBuilder::scheme`]).
    pub fn scheme_table(mut self, table: SchemeTable) -> Self {
        self.table = table;
        self
    }

    /// Register a congestion-control scheme under a registry key.  Flows
    /// select it with [`SchemeChoice::named`](crate::flow::SchemeChoice::named).
    pub fn scheme<F>(mut self, id: impl Into<SchemeId>, factory: F) -> Self
    where
        F: Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync + 'static,
    {
        self.table.register_scheme(id, factory);
        self
    }

    /// Register a receiver-side agent factory for a scheme.
    pub fn receiver_agent(mut self, id: impl Into<SchemeId>, factory: ReceiverFactory) -> Self {
        self.table.register_receiver(id, factory);
        self
    }

    /// Attach an observer to the simulation's event stream.  Any
    /// `FnMut(&SimEvent)` closure qualifies.
    pub fn observe(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// The accumulated scenario as a plain [`SimConfig`].
    pub fn to_config(&self) -> SimConfig {
        SimConfig {
            cellular: self.cellular.clone(),
            load: self.load,
            seed: self.seed,
            duration: self.duration,
            ues: self.ues.clone(),
            flows: self.flows.clone(),
            trajectories: self.trajectories.clone(),
            shards: self.shards,
            backhaul: self.backhaul.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Build the simulation.
    pub fn build(self) -> Simulation {
        let config = SimConfig {
            cellular: self.cellular,
            load: self.load,
            seed: self.seed,
            duration: self.duration,
            ues: self.ues,
            flows: self.flows,
            trajectories: self.trajectories,
            shards: self.shards,
            backhaul: self.backhaul,
            faults: self.faults,
        };
        Simulation::with_parts(config, self.table, self.observers)
    }

    /// Build and run to completion.
    pub fn run(self) -> SimResult {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::SchemeChoice;
    use crate::observer::SimEvent;
    use pbe_cellular::config::{CellId, UeId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn scenario(seed: u64) -> SimBuilder {
        let ue = UeId(1);
        let duration = Duration::from_secs(2);
        SimBuilder::new()
            .seed(seed)
            .duration(duration)
            .cell_profile(CellularConfig::default(), CellLoadProfile::none())
            .ue(
                UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            )
            .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
    }

    #[test]
    fn builder_and_simconfig_paths_are_identical() {
        let via_builder = scenario(9).run();
        let mut direct = Simulation::new(scenario(9).to_config());
        let via_config = direct.run();
        assert_eq!(
            serde_json::to_string(&via_builder).unwrap(),
            serde_json::to_string(&via_config).unwrap(),
            "the builder is sugar, not a different engine"
        );
    }

    #[test]
    fn observers_see_the_event_stream() {
        let counts: Rc<RefCell<(u64, u64)>> = Rc::default();
        let seen = counts.clone();
        let result = scenario(5)
            .observe(move |event: &SimEvent<'_>| {
                let mut c = seen.borrow_mut();
                match event {
                    SimEvent::SubframeScheduled { .. } => c.0 += 1,
                    SimEvent::PacketDelivered {
                        delivered: true, ..
                    } => c.1 += 1,
                    _ => {}
                }
            })
            .run();
        let (subframes, delivered) = *counts.borrow();
        assert_eq!(subframes, 2_000, "one event per subframe");
        assert_eq!(
            delivered, result.flows[0].packets_delivered,
            "observer counted exactly the delivered packets"
        );
    }
}
