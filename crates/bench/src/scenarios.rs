//! The location library used by the stationary-link experiments.
//!
//! The paper tests 40 stationary locations covering every combination of
//! indoor/outdoor, one/two/three aggregated cells and busy/idle cell load
//! (§6.3.1), plus the mobility trajectory of §6.3.2 and the controlled
//! competition of §6.3.3.  This module generates the equivalent scenario
//! matrix for the simulator: each location is a (RSSI, cells, load) triple
//! with a deterministic per-location seed.

use pbe_cc_algorithms::api::SchemeName;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::SchemeChoice;
use serde::{Deserialize, Serialize};

/// Indoor or outdoor placement (affects the baseline RSSI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocationKind {
    /// Indoor: moderate signal.
    Indoor,
    /// Outdoor: stronger signal.
    Outdoor,
}

/// One stationary test location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Location {
    /// Index within the library (0..40).
    pub index: usize,
    /// Indoor or outdoor.
    pub kind: LocationKind,
    /// Number of cells the device at this location can aggregate (1..=3).
    pub aggregated_cells: usize,
    /// Whether the cell is busy (daytime) or idle (late night).
    pub busy: bool,
    /// Baseline RSSI of the primary cell in dBm.
    pub rssi_dbm: f64,
}

impl Location {
    /// Background-load profile of this location.
    pub fn load(&self) -> CellLoadProfile {
        if self.busy {
            CellLoadProfile::busy()
        } else {
            CellLoadProfile::idle()
        }
    }

    /// Deterministic seed for this location.
    pub fn seed(&self) -> u64 {
        0xC0FFEE ^ (self.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The 40-location library of §6.3.1.
#[derive(Debug, Clone)]
pub struct ScenarioLibrary {
    locations: Vec<Location>,
}

impl Default for ScenarioLibrary {
    fn default() -> Self {
        ScenarioLibrary::paper_40_locations()
    }
}

impl ScenarioLibrary {
    /// The paper's 40 stationary locations: 25 busy, 15 idle, covering
    /// indoor/outdoor and 1/2/3 aggregated cells.
    pub fn paper_40_locations() -> Self {
        let mut locations = Vec::with_capacity(40);
        // 25 busy + 15 idle; cells cycle 1,2,3; kind alternates; RSSI spreads
        // between -81 and -103 dBm.
        for i in 0..40usize {
            let busy = i < 25;
            let kind = if i % 2 == 0 {
                LocationKind::Indoor
            } else {
                LocationKind::Outdoor
            };
            let aggregated_cells = 1 + (i % 3);
            let base = match kind {
                LocationKind::Indoor => -95.0,
                LocationKind::Outdoor => -86.0,
            };
            let rssi = base + (i % 5) as f64 * 2.0;
            locations.push(Location {
                index: i,
                kind,
                aggregated_cells,
                busy,
                rssi_dbm: rssi,
            });
        }
        ScenarioLibrary { locations }
    }

    /// A small subset for quick runs (used by tests and smoke benchmarks):
    /// `count` locations sampled evenly across the library.
    pub fn subset(count: usize) -> Vec<Location> {
        let lib = ScenarioLibrary::paper_40_locations();
        let step = (lib.locations.len() / count.max(1)).max(1);
        lib.locations
            .iter()
            .step_by(step)
            .take(count)
            .cloned()
            .collect()
    }

    /// All 40 locations.
    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// Locations filtered by load.
    pub fn by_load(&self, busy: bool) -> Vec<&Location> {
        self.locations.iter().filter(|l| l.busy == busy).collect()
    }
}

/// The paper's scheme list in the order the figures print them.
pub fn paper_schemes() -> Vec<(SchemeChoice, &'static str)> {
    vec![
        (SchemeChoice::Pbe, "PBE"),
        (SchemeChoice::Baseline(SchemeName::Bbr), "BBR"),
        (SchemeChoice::Baseline(SchemeName::Cubic), "CUBIC"),
        (SchemeChoice::Baseline(SchemeName::Verus), "Verus"),
        (SchemeChoice::Baseline(SchemeName::Sprout), "Sprout"),
        (SchemeChoice::Baseline(SchemeName::Copa), "Copa"),
        (SchemeChoice::Baseline(SchemeName::Pcc), "PCC"),
        (SchemeChoice::Baseline(SchemeName::Vivace), "Vivace"),
    ]
}

/// The four "high-throughput" schemes of Fig. 12.
pub fn high_throughput_schemes() -> Vec<(SchemeChoice, &'static str)> {
    vec![
        (SchemeChoice::Pbe, "PBE"),
        (SchemeChoice::Baseline(SchemeName::Bbr), "BBR"),
        (SchemeChoice::Baseline(SchemeName::Cubic), "CUBIC"),
        (SchemeChoice::Baseline(SchemeName::Verus), "Verus"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScenarioSpec;
    use pbe_stats::time::Duration;

    #[test]
    fn library_matches_paper_counts() {
        let lib = ScenarioLibrary::paper_40_locations();
        assert_eq!(lib.locations().len(), 40);
        assert_eq!(lib.by_load(true).len(), 25);
        assert_eq!(lib.by_load(false).len(), 15);
        // All three aggregation levels appear.
        for cells in 1..=3usize {
            assert!(lib.locations().iter().any(|l| l.aggregated_cells == cells));
        }
    }

    #[test]
    fn seeds_are_distinct_and_stable() {
        let lib = ScenarioLibrary::paper_40_locations();
        let mut seeds: Vec<u64> = lib.locations().iter().map(|l| l.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 40);
        assert_eq!(
            lib.locations()[3].seed(),
            ScenarioLibrary::paper_40_locations().locations()[3].seed()
        );
    }

    #[test]
    fn subset_is_small_and_spread() {
        let sub = ScenarioLibrary::subset(4);
        assert_eq!(sub.len(), 4);
        assert!(sub.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn from_location_reflects_location() {
        let lib = ScenarioLibrary::paper_40_locations();
        let loc = &lib.locations()[1];
        let spec = ScenarioSpec::from_location("loc1", loc, Duration::from_secs(5));
        let cfg = spec.sim_config();
        assert_eq!(cfg.ues[0].0.max_aggregated_cells, loc.aggregated_cells);
        assert_eq!(cfg.ues[0].0.rssi_dbm, loc.rssi_dbm);
        assert_eq!(cfg.load, loc.load());
        assert_eq!(cfg.flows.len(), 1);
        assert_eq!(cfg.flows[0].scheme, SchemeChoice::Pbe);
        assert_eq!(cfg.seed, loc.seed());
    }

    #[test]
    fn scheme_lists() {
        assert_eq!(paper_schemes().len(), 8);
        assert_eq!(high_throughput_schemes().len(), 4);
    }
}
