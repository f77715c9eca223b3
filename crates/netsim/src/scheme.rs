//! The simulator's scheme table: congestion control + receiver agent.
//!
//! A transport scheme, as the simulator sees it, is two factories under one
//! [`SchemeId`] key: the sender-side congestion controller (from the open
//! [`SchemeRegistry`] in `pbe-cc-algorithms`) and an optional receiver-side
//! [`ReceiverAgent`].  The [`SchemeTable::standard`] table carries the eight
//! baselines, PBE-CC (whose receiver agent is the decoder → fusion → client
//! pipeline from `pbe-core`) and the congestion-control-free `"Fixed"`
//! scheme — and new schemes are registered from the outside via
//! [`SimBuilder`](crate::builder::SimBuilder) without touching this crate.

use pbe_cc_algorithms::registry::{SchemeCtx, SchemeId, SchemeRegistry};
use pbe_cc_algorithms::CongestionControl;
use pbe_core::receiver::{NullReceiverAgent, ReceiverAgent, ReceiverCtx, ReceiverFactory};
use pbe_core::PbeReceiverAgent;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Registry key of the congestion-control-free fixed-rate scheme.
pub const FIXED_SCHEME_ID: SchemeId = SchemeId::from_static("Fixed");

/// Scheme-resolution table used by the simulation engine.
pub struct SchemeTable {
    registry: SchemeRegistry,
    receivers: HashMap<SchemeId, ReceiverFactory>,
    /// Schemes whose flows are paced by the application model alone.
    app_limited: HashSet<SchemeId>,
}

impl fmt::Debug for SchemeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeTable")
            .field("registry", &self.registry)
            .field("receivers", &self.receivers.keys().collect::<Vec<_>>())
            .field("app_limited", &self.app_limited)
            .finish()
    }
}

impl SchemeTable {
    /// An empty table (no schemes at all).
    pub fn empty() -> Self {
        SchemeTable {
            registry: SchemeRegistry::empty(),
            receivers: HashMap::new(),
            app_limited: HashSet::new(),
        }
    }

    /// The standard table: all eight baselines, PBE-CC with its receiver
    /// pipeline, and the fixed-rate scheme.
    pub fn standard() -> Self {
        let mut table = SchemeTable {
            registry: pbe_core::default_scheme_registry(),
            receivers: HashMap::new(),
            app_limited: HashSet::new(),
        };
        table
            .receivers
            .insert(pbe_core::PBE_SCHEME_ID, PbeReceiverAgent::factory());
        table.app_limited.insert(FIXED_SCHEME_ID);
        table
    }

    /// Register (or replace) a congestion-control factory.
    pub fn register_scheme<F>(&mut self, id: impl Into<SchemeId>, factory: F)
    where
        F: Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync + 'static,
    {
        self.registry.register(id, factory);
    }

    /// Register (or replace) a receiver-agent factory for a scheme.
    pub fn register_receiver(&mut self, id: impl Into<SchemeId>, factory: ReceiverFactory) {
        self.receivers.insert(id.into(), factory);
    }

    /// The underlying congestion-control registry.
    pub fn registry(&self) -> &SchemeRegistry {
        &self.registry
    }

    /// True if the scheme runs without a congestion controller.
    pub fn is_app_limited(&self, id: &SchemeId) -> bool {
        self.app_limited.contains(id)
    }

    /// True if the scheme is known to this table in any capacity.
    pub fn contains(&self, id: &SchemeId) -> bool {
        self.registry.contains(id) || self.app_limited.contains(id)
    }

    /// Build the congestion controller for a scheme (`None` for
    /// application-limited schemes).
    ///
    /// # Panics
    /// Panics if the scheme is entirely unknown, naming the key — a
    /// mis-spelled scheme should fail loudly at flow setup, not run silently
    /// uncontrolled.
    pub fn build_cc(&self, id: &SchemeId, ctx: &SchemeCtx) -> Option<Box<dyn CongestionControl>> {
        if self.app_limited.contains(id) {
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
    pub fn build_receiver(&self, id: &SchemeId, ctx: &ReceiverCtx) -> Box<dyn ReceiverAgent> {
        match self.receivers.get(id) {
            Some(factory) => factory(ctx),
            None => Box::new(NullReceiverAgent),
        }
    }
}

impl Default for SchemeTable {
    fn default() -> Self {
        SchemeTable::standard()
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
        assert!(table.contains(&pbe_core::PBE_SCHEME_ID));
        assert!(table.contains(&SchemeId::new("BBR")));
        assert!(table.contains(&FIXED_SCHEME_ID));
        assert!(table.is_app_limited(&FIXED_SCHEME_ID));
        assert!(table.build_cc(&FIXED_SCHEME_ID, &cc_ctx()).is_none());
        let pbe = table.build_cc(&pbe_core::PBE_SCHEME_ID, &cc_ctx()).unwrap();
        assert_eq!(pbe.name(), "PBE");
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
