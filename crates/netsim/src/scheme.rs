//! The simulator's scheme table: congestion control + receiver agent.
//!
//! A transport scheme, as the simulator sees it, is two factories under one
//! [`SchemeId`] key: the sender-side congestion controller (from the open
//! [`SchemeRegistry`] in `pbe-cc-algorithms`) and an optional receiver-side
//! [`ReceiverAgent`].  Every simulation starts from the standard table: the
//! baselines, PBE-CC (whose receiver agent is the decoder → fusion →
//! client pipeline from `pbe-core`) and the congestion-control-free
//! [`FIXED_SCHEME_ID`] scheme.  New schemes are registered from the outside
//! via [`SimBuilder`](crate::builder::SimBuilder) without touching this
//! crate.

use pbe_cc_algorithms::registry::{SchemeCtx, SchemeId, SchemeRegistry};
use pbe_cc_algorithms::CongestionControl;
use pbe_core::receiver::{NullReceiverAgent, ReceiverAgent, ReceiverCtx, ReceiverFactory};
use pbe_core::PbeReceiverAgent;
use std::collections::HashMap;

/// Registry key of the congestion-control-free fixed-rate scheme, whose
/// flows are paced by their application model alone.
pub const FIXED_SCHEME_ID: SchemeId = SchemeId::from_static("Fixed");

/// Scheme-resolution table used by the simulation engine.
pub(crate) struct SchemeTable {
    registry: SchemeRegistry,
    receivers: HashMap<SchemeId, ReceiverFactory>,
}

impl SchemeTable {
    /// The standard table: every baseline, PBE-CC with its receiver
    /// pipeline, and the fixed-rate scheme.
    pub(crate) fn standard() -> Self {
        let mut receivers = HashMap::new();
        receivers.insert(pbe_core::PBE_SCHEME_ID, PbeReceiverAgent::factory());
        SchemeTable {
            registry: pbe_core::default_scheme_registry(),
            receivers,
        }
    }

    /// Register (or replace) a congestion-control factory.
    pub(crate) fn register_scheme<F>(&mut self, id: impl Into<SchemeId>, factory: F)
    where
        F: Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync + 'static,
    {
        self.registry.register(id, factory);
    }

    /// Register (or replace) a receiver-agent factory for a scheme.
    pub(crate) fn register_receiver(&mut self, id: impl Into<SchemeId>, factory: ReceiverFactory) {
        self.receivers.insert(id.into(), factory);
    }

    /// Build the congestion controller for a scheme (`None` for the
    /// fixed-rate scheme).
    ///
    /// # Panics
    /// Panics if the scheme is entirely unknown, naming the key — a
    /// mis-spelled scheme should fail loudly at flow setup, not run silently
    /// uncontrolled.
    pub(crate) fn build_cc(
        &self,
        id: &SchemeId,
        ctx: &SchemeCtx,
    ) -> Option<Box<dyn CongestionControl>> {
        if *id == FIXED_SCHEME_ID {
            return None;
        }
        match self.registry.build(id, ctx) {
            Some(cc) => Some(cc),
            None => panic!(
                "scheme `{id}` is not registered (known schemes: {:?})",
                self.registry.ids()
            ),
        }
    }

    /// Build the receiver agent for a scheme (the no-op agent if none is
    /// registered).
    pub(crate) fn build_receiver(
        &self,
        id: &SchemeId,
        ctx: &ReceiverCtx,
    ) -> Box<dyn ReceiverAgent> {
        match self.receivers.get(id) {
            Some(factory) => factory(ctx),
            None => Box::new(NullReceiverAgent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_cellular::config::{CellId, Rnti};
    use pbe_stats::time::Duration;
    use pbe_stats::DetRng;

    fn cc_ctx() -> SchemeCtx {
        SchemeCtx::new(Duration::from_millis(40))
    }

    fn rx_ctx() -> ReceiverCtx {
        ReceiverCtx {
            flow: 1,
            rnti: Rnti(0x100),
            cells: vec![(CellId(0), 100)],
            rng: DetRng::new(1),
        }
    }

    #[test]
    fn standard_table_knows_pbe_baselines_and_fixed() {
        let table = SchemeTable::standard();
        assert!(table.build_cc(&FIXED_SCHEME_ID, &cc_ctx()).is_none());
        let pbe = table.build_cc(&pbe_core::PBE_SCHEME_ID, &cc_ctx()).unwrap();
        assert_eq!(pbe.name(), "PBE");
        let bbr = table.build_cc(&SchemeId::new("BBR"), &cc_ctx()).unwrap();
        assert_eq!(bbr.name(), "BBR");
    }

    #[test]
    fn pbe_gets_its_receiver_and_baselines_get_the_null_agent() {
        let table = SchemeTable::standard();
        let mut pbe_rx = table.build_receiver(&pbe_core::PBE_SCHEME_ID, &rx_ctx());
        let mut bbr_rx = table.build_receiver(&SchemeId::new("BBR"), &rx_ctx());
        use pbe_stats::time::Instant;
        assert!(pbe_rx.on_packet(Instant::from_millis(1), 20.0).is_some());
        assert!(bbr_rx.on_packet(Instant::from_millis(1), 20.0).is_none());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_scheme_panics_at_flow_setup() {
        SchemeTable::standard().build_cc(&SchemeId::new("Typo"), &cc_ctx());
    }
}
