//! Identifiers and static configuration of cells and user equipment.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of one component carrier (cell).
///
/// `u16` so metro-scale grids (1,000+ cells) fit.  It serializes as a bare
/// number, so the width is invisible to content keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(pub u16);

/// Identifier of one user equipment (mobile device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UeId(pub u32);

/// Radio network temporary identifier: the per-cell identity a DCI message's
/// CRC is scrambled with.  Valid C-RNTIs lie in `0x003D..=0xFFF3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rnti(pub u16);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

impl fmt::Display for UeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ue{}", self.0)
    }
}

impl fmt::Display for Rnti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rnti:{:#06x}", self.0)
    }
}

impl Rnti {
    /// First C-RNTI handed out to simulated users.
    pub const FIRST_C_RNTI: u16 = 0x003D;
    /// Last valid C-RNTI.
    pub const LAST_C_RNTI: u16 = 0xFFF3;

    /// True if this value lies in the C-RNTI range.
    pub fn is_c_rnti(self) -> bool {
        (Self::FIRST_C_RNTI..=Self::LAST_C_RNTI).contains(&self.0)
    }
}

/// LTE channel bandwidth options and the number of PRBs each provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bandwidth {
    /// 5 MHz — 25 PRBs.
    Mhz5,
    /// 10 MHz — 50 PRBs.
    Mhz10,
    /// 15 MHz — 75 PRBs.
    Mhz15,
    /// 20 MHz — 100 PRBs.
    Mhz20,
}

impl Bandwidth {
    /// Number of physical resource blocks in this bandwidth.
    pub fn prbs(self) -> u16 {
        match self {
            Bandwidth::Mhz5 => 25,
            Bandwidth::Mhz10 => 50,
            Bandwidth::Mhz15 => 75,
            Bandwidth::Mhz20 => 100,
        }
    }

    /// Bandwidth in MHz.
    pub fn mhz(self) -> f64 {
        match self {
            Bandwidth::Mhz5 => 5.0,
            Bandwidth::Mhz10 => 10.0,
            Bandwidth::Mhz15 => 15.0,
            Bandwidth::Mhz20 => 20.0,
        }
    }
}

/// Static configuration of one component carrier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellConfig {
    /// Identifier of the cell.
    pub id: CellId,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Downlink carrier frequency in GHz (only used for reporting; the
    /// paper's primary cell sits at 1.94 GHz).
    pub carrier_ghz: f64,
    /// Maximum number of downlink spatial streams this cell supports.
    pub max_spatial_streams: u8,
}

impl CellConfig {
    /// A 20 MHz cell like the paper's primary cell.
    pub fn primary_20mhz(id: CellId) -> Self {
        CellConfig {
            id,
            bandwidth: Bandwidth::Mhz20,
            carrier_ghz: 1.94,
            max_spatial_streams: 2,
        }
    }

    /// A 10 MHz secondary cell.
    pub fn secondary_10mhz(id: CellId) -> Self {
        CellConfig {
            id,
            bandwidth: Bandwidth::Mhz10,
            carrier_ghz: 2.12,
            max_spatial_streams: 2,
        }
    }

    /// Total PRBs per subframe in this cell.
    pub fn total_prbs(&self) -> u16 {
        self.bandwidth.prbs()
    }
}

/// Static configuration of one user equipment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UeConfig {
    /// Identifier of the UE.
    pub id: UeId,
    /// Cells configured for this UE, primary first.  The CA manager activates
    /// them sequentially as demand requires (paper §3).
    pub configured_cells: Vec<CellId>,
    /// Maximum number of cells the device hardware can aggregate
    /// (paper: Redmi 8 = 1, MIX3 = 2, S8 = 3).
    pub max_aggregated_cells: usize,
    /// Baseline received signal strength in dBm for the primary cell.
    pub rssi_dbm: f64,
}

impl UeConfig {
    /// Convenience constructor.
    pub fn new(
        id: UeId,
        configured_cells: Vec<CellId>,
        max_aggregated_cells: usize,
        rssi_dbm: f64,
    ) -> Self {
        assert!(
            !configured_cells.is_empty(),
            "a UE needs at least a primary cell"
        );
        assert!(max_aggregated_cells >= 1);
        UeConfig {
            id,
            configured_cells,
            max_aggregated_cells,
            rssi_dbm,
        }
    }

    /// The primary cell of this UE.
    pub fn primary_cell(&self) -> CellId {
        self.configured_cells[0]
    }
}

/// Configuration of the inter-cell handover (A3 reselection) machinery.
///
/// The serving cell of a UE changes when a neighbour cell's L3-filtered RSRP
/// exceeds the serving cell's by `a3_hysteresis_db` for
/// `time_to_trigger_ms` consecutive milliseconds — the classic LTE A3 event.
/// Measurements of non-serving cells are taken every
/// `measurement_period_ms`; `min_interval_ms` suppresses ping-pong
/// re-handover; `reacquisition_gap_ms` is how long a PBE-CC monitor is blind
/// after retuning onto the target cell's control channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoverConfig {
    /// Master switch; with `false` a UE keeps its initial serving cell
    /// forever (the pre-handover behaviour).
    pub enabled: bool,
    /// A3 hysteresis: how many dB stronger than the serving cell a
    /// neighbour's filtered RSRP must be.
    pub a3_hysteresis_db: f64,
    /// How long the A3 condition must hold before the handover fires, ms.
    pub time_to_trigger_ms: u64,
    /// Time constant of the L3 RSRP smoothing filter, ms (suppresses fast
    /// fading so fades do not masquerade as cell crossings).
    pub l3_filter_ms: f64,
    /// Neighbour-cell measurement period, ms (serving/active cells are
    /// measured every subframe as a side effect of scheduling).
    pub measurement_period_ms: u64,
    /// Minimum time between two handovers of the same UE, ms.
    pub min_interval_ms: u64,
    /// Subframes the endpoint's PDCCH monitor needs to re-synchronise onto
    /// the target cell's control channel after a handover.
    pub reacquisition_gap_ms: u64,
}

impl Default for HandoverConfig {
    fn default() -> Self {
        HandoverConfig {
            enabled: true,
            a3_hysteresis_db: 3.0,
            time_to_trigger_ms: 160,
            l3_filter_ms: 100.0,
            measurement_period_ms: 40,
            min_interval_ms: 1000,
            reacquisition_gap_ms: 40,
        }
    }
}

/// γ, the fraction of physical-layer capacity that carries RLC/PDCP/MAC
/// headers: 6.8 % as measured in the paper (Eqn. 5, Fig. 6a).  The
/// cells charge it on every transport block and PBE-CC's rate translator
/// removes it again.
pub const PROTOCOL_OVERHEAD: f64 = 0.068;

/// Top-level configuration of the cellular network model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellularConfig {
    /// All component carriers operated by the network.
    pub cells: Vec<CellConfig>,
    /// Subframes a user must stay above the utilisation threshold before a
    /// secondary cell is activated (paper Fig. 2 shows ~130 ms).
    pub ca_activation_subframes: u64,
    /// Fraction of the currently-active cells' capacity a user must consume
    /// to be considered "high data rate" and trigger secondary-cell
    /// activation.
    pub ca_activation_utilisation: f64,
    /// Subframes of low utilisation before a secondary cell is deactivated.
    pub ca_deactivation_subframes: u64,
    /// Fraction of capacity below which the extra cell is considered unused.
    pub ca_deactivation_utilisation: f64,
    /// Protocol (RLC/PDCP/MAC header) overhead fraction γ of the paper's
    /// Eqn. 5; [`PROTOCOL_OVERHEAD`] by default.
    pub protocol_overhead: f64,
    /// Inter-cell handover (A3 reselection) parameters.
    pub handover: HandoverConfig,
}

impl Default for CellularConfig {
    fn default() -> Self {
        CellularConfig {
            cells: vec![
                CellConfig::primary_20mhz(CellId(0)),
                CellConfig::secondary_10mhz(CellId(1)),
                CellConfig {
                    id: CellId(2),
                    bandwidth: Bandwidth::Mhz10,
                    carrier_ghz: 2.65,
                    max_spatial_streams: 2,
                },
            ],
            ca_activation_subframes: 100,
            ca_activation_utilisation: 0.85,
            ca_deactivation_subframes: 200,
            ca_deactivation_utilisation: 0.5,
            protocol_overhead: PROTOCOL_OVERHEAD,
            handover: HandoverConfig::default(),
        }
    }
}

impl CellularConfig {
    /// Look up the configuration of a cell by id.
    pub fn cell(&self, id: CellId) -> Option<&CellConfig> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Aggregate PRB count across all cells.
    pub fn total_prbs(&self) -> u32 {
        self.cells.iter().map(|c| u32::from(c.total_prbs())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_prb_counts_match_3gpp() {
        assert_eq!(Bandwidth::Mhz5.prbs(), 25);
        assert_eq!(Bandwidth::Mhz10.prbs(), 50);
        assert_eq!(Bandwidth::Mhz15.prbs(), 75);
        assert_eq!(Bandwidth::Mhz20.prbs(), 100);
        assert_eq!(Bandwidth::Mhz20.mhz(), 20.0);
    }

    #[test]
    fn default_config_mirrors_paper_cells() {
        let cfg = CellularConfig::default();
        assert_eq!(cfg.cells.len(), 3);
        assert_eq!(cfg.cell(CellId(0)).unwrap().total_prbs(), 100);
        assert_eq!(cfg.cell(CellId(1)).unwrap().total_prbs(), 50);
        assert_eq!(cfg.total_prbs(), 200);
        assert!(cfg.cell(CellId(9)).is_none());
        assert_eq!(cfg.protocol_overhead, PROTOCOL_OVERHEAD);
    }

    #[test]
    fn rnti_range_check() {
        assert!(Rnti(0x003D).is_c_rnti());
        assert!(Rnti(0x1234).is_c_rnti());
        assert!(!Rnti(0x0001).is_c_rnti());
        assert!(!Rnti(0xFFFF).is_c_rnti());
    }

    #[test]
    fn ue_config_primary_cell() {
        let ue = UeConfig::new(UeId(1), vec![CellId(0), CellId(1)], 2, -85.0);
        assert_eq!(ue.primary_cell(), CellId(0));
        assert_eq!(ue.max_aggregated_cells, 2);
    }

    #[test]
    #[should_panic(expected = "at least a primary cell")]
    fn ue_config_requires_primary() {
        UeConfig::new(UeId(1), vec![], 1, -85.0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", CellId(2)), "cell2");
        assert_eq!(format!("{}", UeId(7)), "ue7");
        assert_eq!(format!("{}", Rnti(0x003D)), "rnti:0x003d");
    }
}
