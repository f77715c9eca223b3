//! What a simulation runs, [`SimConfig`], and every rule it must keep to
//! run, [`ConfigError`]: the stages of a run carry no error path of their
//! own, because [`Simulation::run`](crate::Simulation::run) validates first.

use crate::backhaul::BackhaulConfig;
use crate::faults::{FaultKind, FaultSchedule};
use crate::flow::{FlowConfig, SchemeChoice};
use crate::scheme::SchemeTable;
use pbe_cc_algorithms::registry::SchemeId;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::shard::MAX_UES;
use pbe_cellular::traffic::CellLoadProfile;
use pbe_stats::time::Duration;
use pbe_stats::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cellular-network configuration (cells, CA policy, overheads).
    pub cellular: CellularConfig,
    /// Background-traffic load profile applied to every cell.
    pub load: CellLoadProfile,
    /// Experiment seed; everything stochastic derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: Duration,
    /// Mobile devices and their mobility traces.
    pub ues: Vec<(UeConfig, MobilityTrace)>,
    /// End-to-end flows.
    pub flows: Vec<FlowConfig>,
    /// Per-cell trajectory overrides for multi-cell mobility: each entry
    /// replaces the RSSI trace one UE sees towards one of its configured
    /// cells, so different cells can strengthen and fade independently —
    /// the prerequisite for any handover scenario.
    pub trajectories: Vec<CellTrajectory>,
    /// Accepted and ignored: the tick engine runs every cell on the calling
    /// thread, and every shard count always produced the same bytes.  The
    /// field stays because the repo benchmark (`benchmark/`) still sets it;
    /// ROADMAP item 4 drops that use and item 7 deletes the field.
    pub shards: Option<usize>,
    /// Shared wired backhaul topology.  `None` (the default) keeps each flow
    /// on its private [`WiredPath`](crate::WiredPath); `Some` routes every
    /// flow through the shared link DAG by the cell its UE is attached to,
    /// re-routing on handover.
    pub backhaul: Option<BackhaulConfig>,
    /// Deterministic fault schedule: cell outages, backhaul link flaps and
    /// control-channel decode-loss bursts, all keyed purely by simulated
    /// time.  `None` (the default) injects nothing; a schedule is applied by
    /// the driver loop.
    pub faults: Option<FaultSchedule>,
}

/// One per-cell trajectory override of [`SimConfig::trajectories`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellTrajectory {
    /// The device the override applies to.
    pub ue: UeId,
    /// The configured cell whose trace is replaced.
    pub cell: CellId,
    /// The RSSI-versus-time trajectory towards that cell.
    pub trace: MobilityTrace,
}

impl Default for SimConfig {
    /// The default three-cell network with no background load, seed 0, a
    /// 10-second horizon, and no devices, flows or overrides.
    fn default() -> Self {
        SimConfig {
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
        }
    }
}

impl SimConfig {
    /// A single-UE, single-flow scenario on the default three-cell network.
    pub fn single_flow(
        scheme: SchemeChoice,
        duration: Duration,
        load: CellLoadProfile,
        seed: u64,
    ) -> Self {
        let ue = UeId(1);
        SimConfig {
            load,
            seed,
            duration,
            ues: vec![(
                UeConfig::new(ue, vec![CellId(0), CellId(1), CellId(2)], 3, -85.0),
                MobilityTrace::stationary(-85.0),
            )],
            flows: vec![FlowConfig::bulk(1, ue, scheme, duration)],
            ..SimConfig::default()
        }
    }

    /// The first rule of [`ConfigError`] this configuration breaks, with
    /// schemes looked up in `table`.
    pub(crate) fn check(&self, table: &SchemeTable) -> Result<(), ConfigError> {
        use ConfigError::*;
        if self.ues.len() > MAX_UES {
            return Err(TooManyUes(self.ues.len()));
        }
        let cells: FxHashSet<CellId> = self.cellular.cells.iter().map(|c| c.id).collect();
        let mut ue_of = FxHashMap::with_capacity_and_hasher(self.ues.len(), Default::default());
        for (ue, trace) in &self.ues {
            if ue_of.insert(ue.id, ue).is_some() {
                return Err(DuplicateUe(ue.id));
            }
            if trace.waypoints.is_empty() {
                return Err(EmptyTrace(ue.id));
            }
            if ue.configured_cells.is_empty() || ue.max_aggregated_cells == 0 {
                return Err(NoCell(ue.id));
            }
            if let Some(&cell) = ue.configured_cells.iter().find(|c| !cells.contains(c)) {
                return Err(UnknownCell(ue.id, cell));
            }
        }
        for t in &self.trajectories {
            if t.trace.waypoints.is_empty() {
                return Err(EmptyTrajectory(t.ue, t.cell));
            }
            let claimed = ue_of.get(&t.ue).map(|u| &u.configured_cells);
            if !claimed.is_some_and(|cells| cells.contains(&t.cell)) {
                return Err(UnclaimedTrajectory(t.ue, t.cell));
            }
        }
        if let Some(backhaul) = &self.backhaul {
            backhaul.validate()?;
        }
        let mut flows = FxHashSet::default();
        for f in &self.flows {
            if !flows.insert(f.id) {
                return Err(DuplicateFlow(f.id));
            }
            let Some(ue) = ue_of.get(&f.ue) else {
                return Err(UnknownFlowUe(f.id, f.ue));
            };
            let scheme = f.scheme.id();
            if !table.knows(&scheme) {
                return Err(UnknownScheme(f.id, scheme));
            }
            let Some(bh) = &self.backhaul else { continue };
            if f.wired_bottleneck_bps.is_some() {
                return Err(PrivateBottleneck(f.id));
            }
            // Handover and RLF move a UE only among its configured cells, so
            // these are all the cells its flows can route towards.
            let mut configured = ue.configured_cells.iter();
            let unrouted = configured.find(|&&c| bh.routes.iter().all(|r| r.cell != c));
            if let (None, Some(&cell)) = (&bh.default_path, unrouted) {
                return Err(UnroutedCell(cell));
            }
        }
        let faults = self.faults.iter();
        let window = |kind, target: &dyn fmt::Display, start: u64, end: u64| match start < end {
            true => Ok(()),
            false => Err(EmptyWindow(kind, target.to_string(), start, end)),
        };
        for o in faults.clone().flat_map(|s| &s.cell_outages) {
            window(FaultKind::CellOutage, &o.cell, o.start_ms, o.end_ms)?;
            if !cells.contains(&o.cell) {
                return Err(UnknownOutageCell(o.cell));
            }
        }
        for d in faults.clone().flat_map(|s| &s.decode_loss) {
            window(FaultKind::DecodeLoss, &d.flow, d.start_ms, d.end_ms)?;
            if !flows.contains(&d.flow) {
                return Err(UnknownDecodeLossFlow(d.flow));
            }
        }
        for flap in faults.flat_map(|s| &s.link_flaps) {
            window(FaultKind::LinkFlap, &flap.link, flap.start_ms, flap.end_ms)?;
            let Some(backhaul) = &self.backhaul else {
                return Err(FlapWithoutBackhaul(flap.link.clone()));
            };
            if backhaul.links.iter().all(|l| l.name != flap.link) {
                return Err(UnknownFlapLink(flap.link.clone()));
            }
        }
        Ok(())
    }
}

/// Why a [`SimConfig`] cannot run.  The variants are the one list of rules:
/// [`Simulation::validate`](crate::Simulation::validate) checks them all
/// before a run, [`Simulation::run`](crate::Simulation::run) panics with the
/// error's message, and `pbe-bench` reports an invalid grid point as a
/// failure without simulating it.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// More UEs than the foreground RNTI space holds ([`MAX_UES`]).
    TooManyUes(usize),
    /// A UE listed in two `ues` entries.
    DuplicateUe(UeId),
    /// A UE with no configured cell or none to aggregate (JSON can say so).
    NoCell(UeId),
    /// A UE configured on a cell `cellular.cells` lacks: it never attaches.
    UnknownCell(UeId, CellId),
    /// A UE whose mobility trace has no waypoint (JSON can say so): it has
    /// no RSSI to start from.
    EmptyTrace(UeId),
    /// A trajectory override of a (UE, cell) pair with no waypoint.
    EmptyTrajectory(UeId, CellId),
    /// A trajectory of a (UE, cell) pair no UE configures: it is ignored.
    UnclaimedTrajectory(UeId, CellId),
    /// A flow id used twice: one flow would report both flows' events.
    DuplicateFlow(u32),
    /// A flow whose UE `ues` does not hold.
    UnknownFlowUe(u32, UeId),
    /// A flow whose scheme the simulation's table (with any `SimBuilder`
    /// registration) does not build.
    UnknownScheme(u32, SchemeId),
    /// A flow with a private wired bottleneck, which a backhaul ignores.
    PrivateBottleneck(u32),
    /// A cell a flow's UE may attach to with no backhaul route or default.
    UnroutedCell(CellId),
    /// A backhaul link whose rate is not positive.
    LinkRate(usize),
    /// A backhaul link with a zero queue limit.
    LinkQueue(usize),
    /// A cell with two backhaul routes.
    DuplicateRoute(CellId),
    /// A backhaul route or default path with no link.
    EmptyPath,
    /// A backhaul path naming a link index `links` lacks.
    MissingLink(usize),
    /// A backhaul path that uses one link twice.
    RepeatedLink(usize),
    /// A backhaul link fed by two different upstream links, or a route head
    /// in one path and fed in another: the links must form a forest.
    NotAForest(usize),
    /// A fault (kind, target) whose window `[start_ms, end_ms)` is empty.
    EmptyWindow(FaultKind, String, u64, u64),
    /// A cell outage of a cell `cellular.cells` lacks.
    UnknownOutageCell(CellId),
    /// A decode-loss burst of a flow the run lacks.
    UnknownDecodeLossFlow(u32),
    /// A link flap in a run without a backhaul.
    FlapWithoutBackhaul(String),
    /// A link flap naming no backhaul link.
    UnknownFlapLink(String),
}

impl fmt::Display for ConfigError {
    /// The broken rule, named by its variant (whose doc states it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {self:?}")
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backhaul::BackhaulLinkSpec;
    use crate::faults::{CellOutage, DecodeLossBurst, FlapPolicy, LinkFlap};
    use crate::Simulation;
    use pbe_cc_algorithms::api::SchemeName;
    use serde::Value;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn validate(cfg: &SimConfig) -> Result<(), ConfigError> {
        Simulation::new(cfg.clone()).validate()
    }

    /// Three UEs on the default cells 0–2, each with one flow (PBE, CUBIC,
    /// SFC) behind a shared aggregation backhaul; two trajectory overrides,
    /// and one fault of each family inside the 20 ms horizon.
    fn rich() -> SimConfig {
        let duration = Duration::from_millis(20);
        let cells = [vec![0, 1], vec![1, 2], vec![0, 1, 2]];
        let schemes = [
            SchemeChoice::Pbe,
            SchemeChoice::Baseline(SchemeName::Cubic),
            SchemeChoice::named("SFC"),
        ];
        let mut cfg = SimConfig {
            duration,
            load: CellLoadProfile::busy(),
            seed: 3,
            ..SimConfig::default()
        };
        for (i, (cells, scheme)) in cells.into_iter().zip(schemes).enumerate() {
            let ue = UeId(i as u32 + 1);
            let cells = cells.into_iter().map(CellId).collect();
            let n = if i == 2 { 3 } else { 1 };
            cfg.ues.push((
                UeConfig::new(ue, cells, n, -88.0),
                MobilityTrace::stationary(-88.0),
            ));
            cfg.flows
                .push(FlowConfig::bulk(i as u32 + 1, ue, scheme, duration));
        }
        let trace = MobilityTrace::from_secs(&[(0.0, -85.0), (0.02, -110.0)]);
        cfg.trajectories = vec![
            CellTrajectory {
                ue: UeId(1),
                cell: CellId(0),
                trace: trace.clone(),
            },
            CellTrajectory {
                ue: UeId(3),
                cell: CellId(2),
                trace,
            },
        ];
        cfg.backhaul = Some(BackhaulConfig::shared_aggregation(
            &[CellId(0), CellId(1), CellId(2)],
            BackhaulLinkSpec::new("agg", 40e6, Duration::from_millis(2), 60_000)
                .with_mark_threshold(15_000),
            |cell| BackhaulLinkSpec::new(cell.to_string(), 100e6, Duration::from_millis(1), 90_000),
        ));
        cfg.faults = Some(FaultSchedule {
            cell_outages: vec![CellOutage {
                cell: CellId(1),
                start_ms: 4,
                end_ms: 15,
            }],
            link_flaps: vec![LinkFlap {
                link: "agg".into(),
                start_ms: 3,
                end_ms: 8,
                policy: FlapPolicy::Drop,
            }],
            decode_loss: vec![DecodeLossBurst {
                flow: 1,
                start_ms: 2,
                end_ms: 9,
            }],
            rlf_detection_ms: Some(4),
        });
        cfg
    }

    #[test]
    fn the_rich_config_validates_and_runs() {
        let cfg = rich();
        assert_eq!(validate(&cfg), Ok(()));
        let result = Simulation::new(cfg).run();
        assert_eq!(result.flows.len(), 3);
        assert_eq!(result.fault_recovery.len(), 3);
    }

    #[test]
    fn duplicate_flow_ids_are_rejected() {
        // Before the rule, the second flow reported both flows' events and
        // `SimResult::flow(2)` found the first one, which reported zeros.
        let mut cfg = rich();
        cfg.flows[2].id = 2;
        assert_eq!(validate(&cfg), Err(ConfigError::DuplicateFlow(2)));
    }

    #[test]
    fn a_ue_on_a_cell_the_network_lacks_is_rejected() {
        // A PBE flow on it used to panic mid-setup, any other flow ran at
        // zero throughput because the UE never attached.
        for flow in [0, 1] {
            let mut cfg = rich();
            let ue = cfg.flows[flow].ue;
            let entry = cfg.ues.iter_mut().find(|(u, _)| u.id == ue).unwrap();
            entry.0.configured_cells.push(CellId(9));
            cfg.backhaul = None;
            cfg.faults = None;
            assert_eq!(validate(&cfg), Err(ConfigError::UnknownCell(ue, CellId(9))));
        }
    }

    #[test]
    fn a_deserialized_ue_without_cells_or_aggregation_is_rejected() {
        let mut cfg = rich();
        let json = r#"{"id":7,"configured_cells":[],"max_aggregated_cells":1,"rssi_dbm":-85.0}"#;
        let ue: UeConfig = serde_json::from_str(json).unwrap();
        cfg.ues.push((ue, MobilityTrace::stationary(-85.0)));
        assert_eq!(validate(&cfg), Err(ConfigError::NoCell(UeId(7))));
        cfg.ues[3].0.configured_cells = vec![CellId(0)];
        cfg.ues[3].0.max_aggregated_cells = 0;
        assert_eq!(validate(&cfg), Err(ConfigError::NoCell(UeId(7))));
    }

    #[test]
    fn a_ue_with_an_empty_trace_is_rejected() {
        // Before the rule, the run panicked building the UE ("a trace needs
        // at least one waypoint"), in release builds too.
        let mut cfg = rich();
        cfg.ues[1].1.waypoints.clear();
        assert_eq!(validate(&cfg), Err(ConfigError::EmptyTrace(UeId(2))));
    }

    #[test]
    fn an_empty_trajectory_override_is_rejected() {
        let mut cfg = rich();
        cfg.trajectories[1].trace.waypoints.clear();
        let empty = ConfigError::EmptyTrajectory(UeId(3), CellId(2));
        assert_eq!(validate(&cfg), Err(empty));
    }

    #[test]
    fn a_flow_of_an_unknown_ue_is_rejected() {
        let mut cfg = rich();
        cfg.flows[1].ue = UeId(8);
        assert_eq!(validate(&cfg), Err(ConfigError::UnknownFlowUe(2, UeId(8))));
    }

    #[test]
    fn a_cell_without_a_route_is_rejected_unless_a_default_path_serves_it() {
        let mut cfg = rich();
        let backhaul = cfg.backhaul.as_mut().unwrap();
        backhaul.routes.retain(|r| r.cell != CellId(2));
        assert_eq!(validate(&cfg), Err(ConfigError::UnroutedCell(CellId(2))));
        cfg.backhaul.as_mut().unwrap().default_path = Some(vec![0, 3]);
        assert_eq!(validate(&cfg), Ok(()));
    }

    #[test]
    fn link_flaps_need_a_backhaul_that_names_their_link() {
        let mut cfg = rich();
        cfg.faults.as_mut().unwrap().link_flaps[0].link = "no-such-link".into();
        let unknown = ConfigError::UnknownFlapLink("no-such-link".into());
        assert_eq!(validate(&cfg), Err(unknown));
        cfg.backhaul = None;
        let without = ConfigError::FlapWithoutBackhaul("no-such-link".into());
        assert_eq!(validate(&cfg), Err(without));
    }

    #[test]
    fn more_ues_than_rntis_are_rejected() {
        let mut cfg = SimConfig::default();
        let ue = (
            UeConfig::new(UeId(1), vec![CellId(0)], 1, -85.0),
            MobilityTrace::stationary(-85.0),
        );
        cfg.ues = vec![ue; MAX_UES + 1];
        assert_eq!(validate(&cfg), Err(ConfigError::TooManyUes(65_269)));
    }

    /// One seeded mutation of [`rich`]: `what` picks the field, `pick` the
    /// entry and `v` the new value.
    fn mutate(cfg: &mut SimConfig, (what, pick, v): (u8, usize, u64)) {
        let windows = [0, 1, 5, 12, 19, 20, 40, u64::MAX - 1, u64::MAX];
        let small = (v % 5) as u32;
        let cell = CellId(small as u16);
        let backhaul = cfg.backhaul.get_or_insert_with(|| rich().backhaul.unwrap());
        let faults = cfg.faults.get_or_insert_with(FaultSchedule::none);
        match what {
            0 => cfg.ues[pick % 3].0.id = UeId(small),
            1 => cfg.flows[pick % 3].id = small,
            2 => cfg.flows[pick % 3].ue = UeId(small),
            3 => {
                let cells = &mut cfg.ues[pick % 3].0.configured_cells;
                let i = (v as usize / 5) % cells.len().max(1);
                match cells.get_mut(i) {
                    Some(c) => *c = cell,
                    None => cells.push(cell),
                }
            }
            4 => cfg.ues[pick % 3].0.configured_cells.push(cell),
            5 => cfg.ues[pick % 3].0.configured_cells.clear(),
            6 => cfg.ues[pick % 3].0.max_aggregated_cells = (v % 4) as usize,
            7 => cfg.cellular.cells[pick % 3].id = cell,
            8 => cfg.trajectories[pick % 2].ue = UeId(small),
            9 => cfg.trajectories[pick % 2].cell = cell,
            10 => faults.cell_outages.push(CellOutage {
                cell,
                start_ms: windows[pick % windows.len()],
                end_ms: windows[v as usize % windows.len()],
            }),
            11 => faults.decode_loss.push(DecodeLossBurst {
                flow: small,
                start_ms: windows[pick % windows.len()],
                end_ms: windows[v as usize % windows.len()],
            }),
            12 => faults.link_flaps.push(LinkFlap {
                link: ["agg", "cell0", "cell2", "cell7"][pick % 4].into(),
                start_ms: windows[v as usize % windows.len()],
                end_ms: windows[(v as usize / 16) % windows.len()],
                policy: [FlapPolicy::Drain, FlapPolicy::Drop][pick % 2],
            }),
            13 => faults.rlf_detection_ms = Some(windows[pick % windows.len()]),
            14 => {
                let route = &mut backhaul.routes[pick % 3];
                let i = (v as usize / 7) % route.path.len();
                route.path[i] = (v % 7) as usize;
            }
            15 => backhaul.routes[pick % 3].cell = cell,
            16 => backhaul.links[pick % 4].name = ["agg", "cell0", "x"][(v % 3) as usize].into(),
            17 => {
                backhaul.default_path =
                    [None, Some(vec![0, 1]), Some(vec![(v % 6) as usize])][pick % 3].clone()
            }
            18 => cfg.backhaul = None,
            19 => cfg.faults = None,
            20 => {
                cfg.flows[pick % 3] = cfg.flows[pick % 3]
                    .clone()
                    .with_wired_bottleneck(6e6, 20_000)
            }
            21 => {
                cfg.flows[pick % 3].scheme =
                    [SchemeChoice::named("Nope"), SchemeChoice::FixedRate][(v % 2) as usize].clone()
            }
            22 => {
                let ue = cfg.ues[pick % 3].clone();
                cfg.ues.push(ue);
            }
            _ => {
                let flow = cfg.flows[pick % 3].clone();
                cfg.flows.push(flow);
            }
        }
    }

    /// Whether `v` is an array (`arrays`) or an object (`!arrays`).
    fn is_site(v: &Value, arrays: bool) -> bool {
        match v {
            Value::Array(_) => arrays,
            Value::Object(_) => !arrays,
            _ => false,
        }
    }

    fn children(v: &mut Value) -> Box<dyn Iterator<Item = &mut Value> + '_> {
        match v {
            Value::Array(items) => Box::new(items.iter_mut()),
            Value::Object(fields) => Box::new(fields.iter_mut().map(|(_, c)| c)),
            _ => Box::new(std::iter::empty()),
        }
    }

    /// How many sites of the kind (see [`is_site`]) a JSON tree holds.
    fn count_sites(v: &mut Value, arrays: bool) -> usize {
        let own = usize::from(is_site(v, arrays));
        own + children(v).map(|c| count_sites(c, arrays)).sum::<usize>()
    }

    /// The `n`-th site of the kind in a JSON tree, counted in pre-order.
    fn nth_site<'a>(v: &'a mut Value, arrays: bool, n: &mut usize) -> Option<&'a mut Value> {
        if is_site(v, arrays) {
            if *n == 0 {
                return Some(v);
            }
            *n -= 1;
        }
        children(v).find_map(|c| nth_site(c, arrays, n))
    }

    /// One structural edit of a config's JSON tree: `what` picks the edit,
    /// `site` the array or object it applies to and `pick` the element.
    fn edit_json(tree: &mut Value, (what, site, pick): (u8, usize, usize)) {
        let arrays = what < 3;
        let sites = count_sites(tree, arrays);
        let Some(target) = nth_site(tree, arrays, &mut (site % sites.max(1))) else {
            return;
        };
        match (what, target) {
            (0, Value::Array(items)) if !items.is_empty() => {
                items.remove(pick % items.len());
            }
            (1, Value::Array(items)) => items.clear(),
            (2, Value::Array(items)) if !items.is_empty() => {
                let i = pick % items.len();
                items.insert(i, items[i].clone());
            }
            (3, Value::Object(fields)) if !fields.is_empty() => {
                fields.remove(pick % fields.len());
            }
            _ => {}
        }
    }

    proptest::proptest! {
        /// Whatever JSON parses as a config and validates runs: [`rich`]
        /// serialized, edited structurally (drop an array element, empty an
        /// array, duplicate an element, delete an object field) and parsed
        /// back.
        #[test]
        fn never_panic_past_validation_of_edited_json(
            edits in proptest::collection::vec((0u8..4, 0usize..4096, 0usize..64), 1..4),
        ) {
            let mut tree = serde_json::to_value(&rich()).unwrap();
            for &edit in &edits {
                edit_json(&mut tree, edit);
            }
            let text = serde_json::to_string(&tree).unwrap();
            if let Ok(cfg) = serde_json::from_str::<SimConfig>(&text) {
                if validate(&cfg).is_ok() {
                    let run = catch_unwind(AssertUnwindSafe(|| Simulation::new(cfg).run()));
                    proptest::prop_assert!(run.is_ok(), "a validated config panicked: {:?}", edits);
                }
            }
        }

        #[test]
        fn never_panic_past_validation(
            mutations in proptest::collection::vec((0u8..24, 0usize..64, 0u64..1_000), 1..4),
        ) {
            let mut cfg = rich();
            for &m in &mutations {
                mutate(&mut cfg, m);
            }
            if validate(&cfg).is_ok() {
                let run = catch_unwind(AssertUnwindSafe(|| Simulation::new(cfg).run()));
                proptest::prop_assert!(run.is_ok(), "a validated config panicked: {:?}", mutations);
            }
        }
    }
}
