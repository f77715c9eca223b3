//! The open, string-keyed scheme registry.
//!
//! Historically the workspace identified congestion-control schemes with the
//! closed [`SchemeName`] enum, and the simulator
//! special-cased PBE-CC on top of it.  The registry inverts that: a scheme is
//! a [`SchemeId`] (its display name) mapped to a factory closure, so every
//! algorithm — the paper's seven baselines, PBE-CC (registered by
//! `pbe-core`), and any experimental scheme a test or example wants to try —
//! is constructed through exactly the same interface.  The enum remains as a thin
//! serde-compatibility shim that resolves to a [`SchemeId`].

use crate::api::{CongestionControl, SchemeName};
use crate::{Bbr, Copa, Cubic, CubicEcn, Pcc, Sfc, Sprout, Verus, Vivace};
use pbe_stats::time::Duration;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Registry key of a congestion-control scheme: its canonical display name.
///
/// This type is the single source of truth for scheme display names —
/// result tables, flow summaries and the enum shims all render through its
/// `Display` impl.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(Cow<'static, str>);

impl SchemeId {
    /// Key from a static string (used by the built-in schemes).
    pub const fn from_static(name: &'static str) -> Self {
        SchemeId(Cow::Borrowed(name))
    }

    /// Key from an arbitrary string (used by externally registered schemes).
    pub fn new(name: impl Into<String>) -> Self {
        SchemeId(Cow::Owned(name.into()))
    }

    /// The scheme's display name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SchemeId {
    fn from(name: &str) -> Self {
        SchemeId::new(name)
    }
}

impl From<String> for SchemeId {
    fn from(name: String) -> Self {
        SchemeId::new(name)
    }
}

impl From<SchemeName> for SchemeId {
    fn from(name: SchemeName) -> Self {
        SchemeId::from_static(name.as_str())
    }
}

/// Everything a factory may consult when building a scheme instance.
#[derive(Debug, Clone, Copy)]
pub struct SchemeCtx {
    /// A-priori round-trip propagation hint for the flow's path.
    pub rtprop_hint: Duration,
    /// The experiment seed (for schemes with stochastic internals).
    pub seed: u64,
}

impl SchemeCtx {
    /// Context with the given RTprop hint and a zero seed.
    pub fn new(rtprop_hint: Duration) -> Self {
        SchemeCtx {
            rtprop_hint,
            seed: 0,
        }
    }
}

/// Factory building one congestion-control instance.
pub type SchemeFactory = Box<dyn Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync>;

/// String-keyed factory table of congestion-control schemes.
pub struct SchemeRegistry {
    entries: BTreeMap<SchemeId, SchemeFactory>,
}

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeRegistry")
            .field("schemes", &self.ids())
            .finish()
    }
}

macro_rules! register_baseline {
    ($reg:expr, $name:expr, $ty:ty) => {
        $reg.register($name, |ctx: &SchemeCtx| {
            Box::new(<$ty>::new(ctx.rtprop_hint)) as Box<dyn CongestionControl>
        });
    };
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        SchemeRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// A registry with the paper's seven baseline schemes, plus the two
    /// signaling-assisted variants (`CUBIC-ECN`, `SFC`) that only act on
    /// backhaul congestion marks.  PBE-CC registers itself
    /// through the same interface from `pbe-core`.
    pub fn with_baselines() -> Self {
        let mut reg = SchemeRegistry::empty();
        register_baseline!(reg, SchemeName::Bbr, Bbr);
        register_baseline!(reg, SchemeName::Cubic, Cubic);
        register_baseline!(reg, SchemeName::Copa, Copa);
        register_baseline!(reg, SchemeName::Verus, Verus);
        register_baseline!(reg, SchemeName::Sprout, Sprout);
        register_baseline!(reg, SchemeName::Pcc, Pcc);
        register_baseline!(reg, SchemeName::Vivace, Vivace);
        // The signaling-assisted schemes are string-keyed only: they are not
        // part of the paper's evaluation, so they get no `SchemeName` variant
        // and the closed-enum serde shims never resolve to them.
        register_baseline!(reg, "CUBIC-ECN", CubicEcn);
        register_baseline!(reg, "SFC", Sfc);
        reg
    }

    /// Register (or replace) a scheme under the given key.
    pub fn register<F>(&mut self, id: impl Into<SchemeId>, factory: F)
    where
        F: Fn(&SchemeCtx) -> Box<dyn CongestionControl> + Send + Sync + 'static,
    {
        self.entries.insert(id.into(), Box::new(factory));
    }

    /// True if a scheme is registered under the key.
    pub fn contains(&self, id: &SchemeId) -> bool {
        self.entries.contains_key(id)
    }

    /// The registered keys, in sorted order.
    pub fn ids(&self) -> Vec<SchemeId> {
        self.entries.keys().cloned().collect()
    }

    /// Build an instance of the scheme registered under `id`.
    pub fn build(&self, id: &SchemeId, ctx: &SchemeCtx) -> Option<Box<dyn CongestionControl>> {
        self.entries.get(id).map(|f| f(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbe_stats::time::Duration;

    fn ctx() -> SchemeCtx {
        SchemeCtx::new(Duration::from_millis(40))
    }

    #[test]
    fn baseline_registry_builds_every_scheme() {
        let reg = SchemeRegistry::with_baselines();
        let ids: Vec<String> = reg.ids().iter().map(|id| id.to_string()).collect();
        // The paper's seven baselines (its schemes less PBE-CC itself) and
        // the two signaling-assisted variants, nothing else.
        let mut want: Vec<String> = SchemeName::PAPER_SCHEMES
            .iter()
            .filter(|&&name| name != SchemeName::PbeCc)
            .map(|name| name.to_string())
            .chain(["CUBIC-ECN".to_string(), "SFC".to_string()])
            .collect();
        want.sort();
        assert_eq!(ids, want);
        for name in SchemeName::BASELINES {
            let id = SchemeId::from(*name);
            assert!(reg.contains(&id), "{id} registered");
            let cc = reg.build(&id, &ctx()).expect("factory builds");
            assert_eq!(cc.name(), id.as_str());
            assert!(cc.pacing_rate_bps() > 0.0);
        }
    }

    #[test]
    fn signaling_schemes_ride_the_same_registry() {
        let reg = SchemeRegistry::with_baselines();
        for key in ["CUBIC-ECN", "SFC"] {
            let id = SchemeId::new(key);
            assert!(reg.contains(&id), "{key} registered");
            let cc = reg.build(&id, &ctx()).expect("factory builds");
            assert_eq!(cc.name(), key);
            assert!(cc.pacing_rate_bps() > 0.0);
        }
    }

    #[test]
    fn unknown_scheme_returns_none() {
        let reg = SchemeRegistry::with_baselines();
        assert!(reg.build(&SchemeId::new("NoSuchScheme"), &ctx()).is_none());
    }

    #[test]
    fn external_scheme_can_be_registered_and_replaces() {
        struct Fixed;
        impl CongestionControl for Fixed {
            fn name(&self) -> &'static str {
                "Fixed42"
            }
            fn on_ack(&mut self, _ack: &crate::api::AckInfo) {}
            fn on_loss(&mut self, _now: pbe_stats::time::Instant) {}
            fn on_packet_sent(
                &mut self,
                _now: pbe_stats::time::Instant,
                _bytes: u64,
                _inflight: u64,
            ) {
            }
            fn pacing_rate_bps(&self) -> f64 {
                42e6
            }
            fn cwnd_bytes(&self) -> u64 {
                1 << 20
            }
        }
        let mut reg = SchemeRegistry::empty();
        reg.register("Fixed42", |_ctx| Box::new(Fixed));
        let cc = reg.build(&SchemeId::new("Fixed42"), &ctx()).unwrap();
        assert_eq!(cc.pacing_rate_bps(), 42e6);
    }

    #[test]
    fn scheme_id_display_is_canonical() {
        assert_eq!(SchemeId::from(SchemeName::PbeCc).to_string(), "PBE");
        assert_eq!(SchemeId::new("TOY").to_string(), "TOY");
        assert_eq!(SchemeId::from_static("BBR"), SchemeId::new("BBR"));
    }
}
