//! Extending a simulation beyond its configuration.
//!
//! A [`SimConfig`] describes the whole scenario — cells, load, devices,
//! flows — and [`Simulation::new`] runs it with the standard schemes.
//! [`SimBuilder`] adds what a serializable record cannot hold: extra
//! congestion-control schemes, receiver agents and observers.
//!
//! ```
//! use pbe_netsim::{SimBuilder, SimConfig, SimEvent, FlowConfig, SchemeChoice};
//! use pbe_cellular::config::{CellId, UeConfig, UeId};
//! use pbe_cellular::channel::MobilityTrace;
//! use pbe_stats::time::Duration;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let duration = Duration::from_secs(2);
//! let ue = UeId(1);
//! let config = SimConfig {
//!     seed: 7,
//!     duration,
//!     ues: vec![(UeConfig::new(ue, vec![CellId(0)], 1, -85.0), MobilityTrace::stationary(-85.0))],
//!     flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
//!     ..SimConfig::default()
//! };
//! let subframes = Rc::new(Cell::new(0));
//! let seen = subframes.clone();
//! let result = SimBuilder::from_config(config)
//!     .observe(move |event: &SimEvent<'_>| {
//!         if let SimEvent::SubframeScheduled { .. } = event {
//!             seen.set(seen.get() + 1);
//!         }
//!     })
//!     .run();
//! assert_eq!((result.flows.len(), subframes.get()), (1, 2_000));
//! ```
//!
//! Registering a new scheme needs no simulator changes either:
//! `.scheme("TOY", |ctx| ...)` adds a congestion controller under a fresh
//! registry key, which flows select with
//! [`SchemeChoice::named`](crate::flow::SchemeChoice::named).

use crate::observer::Observer;
use crate::sim::{SimConfig, SimResult, Simulation};
use pbe_cc_algorithms::registry::{SchemeCtx, SchemeId};
use pbe_cc_algorithms::CongestionControl;
use pbe_core::receiver::ReceiverFactory;

/// A [`Simulation`] under construction: its configuration plus the schemes,
/// receiver agents and observers registered so far.
pub struct SimBuilder(Simulation);

impl SimBuilder {
    /// Start from a scenario, with the standard scheme table and no
    /// observers.
    pub fn from_config(config: SimConfig) -> Self {
        SimBuilder(Simulation::new(config))
    }

    /// Register a congestion-control scheme under a registry key.  Flows
    /// select it with [`SchemeChoice::named`](crate::flow::SchemeChoice::named).
    pub fn scheme<F>(mut self, id: impl Into<SchemeId>, factory: F) -> Self
    where
        F: Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync + 'static,
    {
        self.0.table.register_scheme(id, factory);
        self
    }

    /// Register a receiver-side agent factory for a scheme.
    pub fn receiver_agent(mut self, id: impl Into<SchemeId>, factory: ReceiverFactory) -> Self {
        self.0.table.register_receiver(id, factory);
        self
    }

    /// Attach an observer to the simulation's event stream.  Any
    /// `FnMut(&SimEvent)` closure qualifies.
    pub fn observe(mut self, observer: impl Observer + 'static) -> Self {
        self.0.observers.push(Box::new(observer));
        self
    }

    /// Build the simulation.
    pub fn build(self) -> Simulation {
        self.0
    }

    /// Build and run to completion.
    pub fn run(self) -> SimResult {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowConfig, SchemeChoice};
    use crate::observer::SimEvent;
    use pbe_cellular::channel::MobilityTrace;
    use pbe_cellular::config::{CellId, UeConfig, UeId};
    use pbe_stats::time::Duration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn observers_see_the_event_stream() {
        let ue = UeId(1);
        let duration = Duration::from_secs(2);
        let config = SimConfig {
            seed: 5,
            duration,
            ues: vec![(
                UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            )],
            flows: vec![FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration)],
            ..SimConfig::default()
        };
        let counts: Rc<RefCell<(u64, u64)>> = Rc::default();
        let seen = counts.clone();
        let result = SimBuilder::from_config(config)
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
