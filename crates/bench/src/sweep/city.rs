//! The `city_scale` scenario family: a grid of cells, a fleet of UEs on
//! waypoint trajectories, handovers everywhere.
//!
//! The paper evaluates PBE-CC at 40 stationary locations and on one
//! walking trace; the production question is what happens when *many*
//! devices roam across *many* cells at once — the regime a deployed
//! congestion controller actually lives in.  [`CityScale`] generates that
//! regime deterministically from a seed: cells on a rectangular grid with a
//! log-distance path-loss model, UEs doing a random-waypoint walk (or
//! drive) across the city, each UE's per-cell RSSI trajectory compiled into
//! the [`ScenarioSpec::trajectories`] overrides that drive the simulator's
//! A3 handover machinery.
//!
//! ```
//! use pbe_bench::sweep::CityScale;
//!
//! let result = CityScale::walking(2, 1, 2).seconds(2).scenario().run();
//! assert_eq!(result.flows.len(), 2);
//! ```

use super::spec::ScenarioSpec;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{Bandwidth, CellConfig, CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice};
use pbe_stats::time::Duration;
use pbe_stats::DetRng;

/// A cell's compiled view of one UE path: the cell, the strongest RSSI seen
/// anywhere along the path, and the `(seconds, rssi)` trace itself.
type CellPathView = (CellId, f64, Vec<(f64, f64)>);

/// Reference RSSI at [`REFERENCE_DISTANCE_M`] from a cell site, dBm.
const REFERENCE_RSSI_DBM: f64 = -55.0;
/// Distance of the reference measurement, metres.
const REFERENCE_DISTANCE_M: f64 = 10.0;
/// Log-distance path-loss exponent (urban macro, between free space's 2.0
/// and dense-urban 4.0).
const PATH_LOSS_EXPONENT: f64 = 3.2;
/// Weakest RSSI the model reports (receiver sensitivity floor), dBm.
const RSSI_FLOOR_DBM: f64 = -118.0;
/// Cells whose RSSI never rises above this along a UE's path are not worth
/// configuring as handover candidates.
const CANDIDATE_RSSI_DBM: f64 = -112.0;

/// Received signal strength at distance `d_m` from a site under the
/// log-distance model, clamped to the physical range.
fn path_loss_rssi_dbm(d_m: f64) -> f64 {
    let d = d_m.max(REFERENCE_DISTANCE_M);
    let rssi = REFERENCE_RSSI_DBM - 10.0 * PATH_LOSS_EXPONENT * (d / REFERENCE_DISTANCE_M).log10();
    rssi.clamp(RSSI_FLOOR_DBM, REFERENCE_RSSI_DBM)
}

/// Declarative generator of one city-scale scenario.
#[derive(Debug, Clone)]
pub struct CityScale {
    /// Scenario label carried into reports.
    pub label: String,
    /// Cell-grid columns (cells sit at the centres of the grid squares).
    pub cols: u16,
    /// Cell-grid rows.  `cols × rows` must fit the `u16` cell id space.
    pub rows: u16,
    /// Distance between neighbouring cell sites, metres.
    pub cell_spacing_m: f64,
    /// Number of roaming devices (one bulk flow each).
    pub ues: u32,
    /// Movement speed of every device, metres per second.
    pub speed_mps: f64,
    /// Simulated duration.
    pub duration: Duration,
    /// Seed; trajectories and every stochastic component derive from it.
    pub seed: u64,
    /// Background load applied to every cell.
    pub load: CellLoadProfile,
    /// Scheme under test (driving every UE's flow; sweepable via the grid).
    pub scheme: SchemeChoice,
    /// Handover-candidate cells configured per UE (primary included).
    pub cells_per_ue: usize,
    /// Sampling step of the compiled RSSI traces, milliseconds.
    pub trace_step_ms: u64,
    /// Cap on the number of UEs that get a foreground bulk flow (`None` =
    /// every UE).  Metro-scale runs register thousands of radio users (at
    /// most 65,268, the foreground RNTI space) but monitor a handful of
    /// end-to-end flows through them — the many-viewers shape.
    pub max_flows: Option<u32>,
}

impl CityScale {
    /// A walking-speed city: pedestrians at 1.4 m/s on a 400 m grid.
    pub fn walking(cols: u16, rows: u16, ues: u32) -> Self {
        CityScale {
            label: format!("city {cols}x{rows} walk ({ues} UEs)"),
            cols,
            rows,
            cell_spacing_m: 400.0,
            ues,
            speed_mps: 1.4,
            duration: Duration::from_secs(30),
            seed: 0xC17,
            load: CellLoadProfile::idle(),
            scheme: SchemeChoice::Pbe,
            cells_per_ue: 4,
            trace_step_ms: 250,
            max_flows: None,
        }
    }

    /// A driving-speed city: vehicles at 13 m/s (~47 km/h) on a 500 m grid.
    pub fn driving(cols: u16, rows: u16, ues: u32) -> Self {
        CityScale {
            label: format!("city {cols}x{rows} drive ({ues} UEs)"),
            cell_spacing_m: 500.0,
            speed_mps: 13.0,
            ..CityScale::walking(cols, rows, ues)
        }
    }

    /// Set the simulated duration in seconds.
    pub fn seconds(mut self, seconds: u64) -> Self {
        self.duration = Duration::from_secs(seconds);
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the scheme under test.
    pub fn scheme(mut self, scheme: SchemeChoice) -> Self {
        self.scheme = scheme;
        self
    }

    /// Set the background-load profile.
    pub fn load(mut self, load: CellLoadProfile) -> Self {
        self.load = load;
        self
    }

    /// Give only the first `n` UEs a foreground bulk flow; the rest are
    /// radio users contributing load, handovers and scheduling pressure.
    pub fn flows_cap(mut self, n: u32) -> Self {
        self.max_flows = Some(n);
        self
    }

    /// Position of a cell site, metres.
    fn cell_position(&self, idx: u16) -> (f64, f64) {
        let col = f64::from(idx % self.cols.max(1));
        let row = f64::from(idx / self.cols.max(1));
        (
            (col + 0.5) * self.cell_spacing_m,
            (row + 0.5) * self.cell_spacing_m,
        )
    }

    /// The cellular network of the city: `cols × rows` 10 MHz cells with the
    /// default CA and handover policies.
    pub fn cellular(&self) -> CellularConfig {
        let n = u32::from(self.cols) * u32::from(self.rows);
        assert!(n >= 1, "a city needs at least one cell");
        assert!(n <= 65_536, "CellId is 16 bits: at most 65,536 cells");
        CellularConfig {
            cells: (0..n)
                .map(|i| CellConfig {
                    id: CellId(i as u16),
                    bandwidth: Bandwidth::Mhz10,
                    carrier_ghz: 1.94,
                    max_spatial_streams: 2,
                })
                .collect(),
            ..CellularConfig::default()
        }
    }

    /// Random-waypoint positions of one UE, sampled every `trace_step_ms`.
    fn waypoint_path(&self, ue_index: u32) -> Vec<(f64, f64, f64)> {
        let width = f64::from(self.cols) * self.cell_spacing_m;
        let height = f64::from(self.rows) * self.cell_spacing_m;
        let mut rng = DetRng::new(self.seed).split_indexed("city-ue", u64::from(ue_index));
        let (mut x, mut y) = (rng.uniform() * width, rng.uniform() * height);
        let (mut tx, mut ty) = (rng.uniform() * width, rng.uniform() * height);
        let step_s = self.trace_step_ms as f64 / 1000.0;
        let total_s = self.duration.as_secs_f64();
        let mut path = Vec::with_capacity((total_s / step_s) as usize + 2);
        let mut t = 0.0;
        while t <= total_s + step_s {
            path.push((t, x, y));
            // Advance towards the current waypoint, drawing a new one on
            // arrival.
            let mut remaining = self.speed_mps * step_s;
            while remaining > 0.0 {
                let (dx, dy) = (tx - x, ty - y);
                let dist = (dx * dx + dy * dy).sqrt();
                if dist <= remaining {
                    x = tx;
                    y = ty;
                    remaining -= dist;
                    tx = rng.uniform() * width;
                    ty = rng.uniform() * height;
                } else {
                    x += dx / dist * remaining;
                    y += dy / dist * remaining;
                    remaining = 0.0;
                }
            }
            t += step_s;
        }
        path
    }

    /// Cells worth evaluating against one UE path: every cell whose site
    /// could clear [`CANDIDATE_RSSI_DBM`] somewhere along it, found by grid
    /// arithmetic instead of scanning the whole metro.  The log-distance
    /// model puts the candidate bound at ~604 m, so this is a conservative
    /// superset of the full scan's survivors (one extra spacing of margin):
    /// excluded cells sit below the candidate floor at every path point and
    /// the full scan would drop them too — the compiled scenario is
    /// byte-identical, only the generation cost changes (a 1,000-cell /
    /// 100k-UE metro compiles ~16 cells per UE instead of 1,000).
    fn candidate_cells(&self, path: &[(f64, f64, f64)]) -> Vec<u16> {
        let radius = REFERENCE_DISTANCE_M
            * 10f64.powf((REFERENCE_RSSI_DBM - CANDIDATE_RSSI_DBM) / (10.0 * PATH_LOSS_EXPONENT))
            + self.cell_spacing_m;
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in path {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        let s = self.cell_spacing_m;
        let cols = u32::from(self.cols.max(1));
        let rows = u32::from(self.rows.max(1));
        let lo = |v: f64| (((v - radius) / s - 0.5).floor().max(0.0)) as u32;
        let hi = |v: f64, n: u32| ((((v + radius) / s - 0.5).ceil().max(0.0)) as u32).min(n - 1);
        let (lo_col, hi_col) = (lo(min_x), hi(max_x, cols));
        let (lo_row, hi_row) = (lo(min_y), hi(max_y, rows));
        let mut ids = Vec::with_capacity(((hi_row - lo_row + 1) * (hi_col - lo_col + 1)) as usize);
        // Row-major, ascending cell id — the iteration order of the full
        // scan, which the stable candidate sort below relies on.
        for row in lo_row..=hi_row {
            for col in lo_col..=hi_col {
                ids.push((row * cols + col) as u16);
            }
        }
        ids
    }

    /// Compile the scenario: grid cells, per-UE waypoint trajectories
    /// lowered to per-cell RSSI traces, one bulk flow per UE (up to
    /// [`CityScale::max_flows`]) under the swept scheme.
    pub fn scenario(&self) -> ScenarioSpec {
        let cellular = self.cellular();
        let mut spec = ScenarioSpec::new(self.label.clone(), self.scheme.clone(), self.duration)
            .cellular(cellular)
            .load(self.load)
            .seed(self.seed);
        for i in 0..self.ues {
            let ue = UeId(i + 1);
            let path = self.waypoint_path(i);
            // RSSI trace towards every candidate cell, plus its strongest
            // point along the path.
            let mut per_cell: Vec<CellPathView> = self
                .candidate_cells(&path)
                .into_iter()
                .map(|c| {
                    let (cx, cy) = self.cell_position(c);
                    let mut best = f64::NEG_INFINITY;
                    let trace: Vec<(f64, f64)> = path
                        .iter()
                        .map(|(t, x, y)| {
                            let d = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
                            let rssi = path_loss_rssi_dbm(d);
                            best = best.max(rssi);
                            (*t, rssi)
                        })
                        .collect();
                    (CellId(c), best, trace)
                })
                .collect();
            // Primary: strongest cell at t = 0.  Other candidates: the
            // strongest cells anywhere along the path (deterministic
            // tie-break on cell id).
            let primary = per_cell
                .iter()
                .max_by(|a, b| {
                    a.2[0]
                        .1
                        .partial_cmp(&b.2[0].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.0.cmp(&a.0))
                })
                .map(|(c, _, _)| *c)
                .expect("at least one cell");
            per_cell.sort_by(|a, b| {
                (a.0 != primary)
                    .cmp(&(b.0 != primary))
                    .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
                    .then(a.0.cmp(&b.0))
            });
            per_cell.truncate(self.cells_per_ue.max(1));
            per_cell.retain(|(c, best, _)| *c == primary || *best >= CANDIDATE_RSSI_DBM);
            let configured: Vec<CellId> = per_cell.iter().map(|(c, _, _)| *c).collect();
            let rssi0 = per_cell[0].2[0].1;
            spec = spec.ue(
                UeConfig::new(ue, configured, 1, rssi0),
                MobilityTrace::stationary(rssi0),
            );
            for (cell, _, trace) in &per_cell {
                spec = spec.trajectory(ue, *cell, MobilityTrace::from_secs(trace));
            }
            if self.max_flows.is_none_or(|cap| i < cap) {
                spec = spec.flow(FlowConfig::bulk(
                    i + 1,
                    ue,
                    self.scheme.clone(),
                    self.duration,
                ));
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_is_monotone_and_clamped() {
        assert_eq!(path_loss_rssi_dbm(0.0), REFERENCE_RSSI_DBM);
        assert!(path_loss_rssi_dbm(200.0) > path_loss_rssi_dbm(400.0));
        assert_eq!(path_loss_rssi_dbm(1e9), RSSI_FLOOR_DBM);
        // Mid-way between two sites on a 400 m grid the link is usable.
        let edge = path_loss_rssi_dbm(200.0);
        assert!((-105.0..-85.0).contains(&edge), "edge RSSI {edge}");
    }

    #[test]
    fn scenario_shape_matches_the_city() {
        let city = CityScale::walking(3, 2, 5).seconds(4);
        let spec = city.scenario();
        assert_eq!(spec.cellular.cells.len(), 6);
        assert_eq!(spec.ues.len(), 5);
        assert_eq!(spec.flows.len(), 5);
        assert_eq!(spec.sweep_flows.len(), 5);
        for (cfg, _) in &spec.ues {
            assert!(!cfg.configured_cells.is_empty());
            assert!(cfg.configured_cells.len() <= city.cells_per_ue);
            // Every configured cell has an explicit trajectory override.
            for cell in &cfg.configured_cells {
                assert!(spec
                    .trajectories
                    .iter()
                    .any(|t| t.ue == cfg.id && t.cell == *cell));
            }
        }
    }

    #[test]
    fn candidate_subgrid_keeps_every_in_coverage_cell() {
        // The subgrid scan must be a superset of the cells the full scan
        // would keep: any cell within CANDIDATE_RSSI_DBM of any path point.
        let city = CityScale::driving(8, 6, 12).seconds(10).seed(11);
        for i in 0..city.ues {
            let path = city.waypoint_path(i);
            let candidates = city.candidate_cells(&path);
            for c in 0..(city.cols * city.rows) {
                let (cx, cy) = city.cell_position(c);
                let best = path
                    .iter()
                    .map(|(_, x, y)| {
                        path_loss_rssi_dbm(((x - cx).powi(2) + (y - cy).powi(2)).sqrt())
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                if best >= CANDIDATE_RSSI_DBM {
                    assert!(
                        candidates.contains(&c),
                        "cell {c} ({best} dBm) missed by the subgrid scan"
                    );
                }
            }
            // Ascending id order — the full scan's iteration order.
            assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn flows_cap_limits_foreground_flows() {
        let spec = CityScale::walking(3, 2, 50)
            .seconds(2)
            .flows_cap(4)
            .scenario();
        assert_eq!(spec.ues.len(), 50);
        assert_eq!(spec.flows.len(), 4);
    }

    #[test]
    fn trajectories_are_deterministic_for_a_seed() {
        let a = CityScale::driving(2, 2, 3).seconds(3).scenario();
        let b = CityScale::driving(2, 2, 3).seconds(3).scenario();
        assert_eq!(
            serde_json::to_string(&a.sim_config()).unwrap(),
            serde_json::to_string(&b.sim_config()).unwrap()
        );
    }

    #[test]
    fn driving_across_the_city_hands_over() {
        // Two cells side by side, fast UEs, long enough to cross the border:
        // at least one UE must hand over at least once.
        let result = CityScale::driving(2, 1, 4)
            .seconds(20)
            .seed(3)
            .scenario()
            .run();
        assert!(
            !result.handovers.is_empty(),
            "city mobility produced no handovers"
        );
        // Every flow still moved data.
        for f in &result.flows {
            assert!(f.packets_delivered > 100, "flow {} starved", f.id);
        }
    }
}
