//! Declarative scenario specifications and grid expansion.

use crate::scenarios::Location;
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{
    BackhaulConfig, CellTrajectory, FaultSchedule, FlowConfig, SchemeChoice, SimConfig, SimResult,
    Simulation,
};
use pbe_stats::rng::derive_seed;
use pbe_stats::time::Duration;
use serde::{Deserialize, Serialize, Value};

/// One fully specified point of an evaluation grid.
///
/// A spec carries everything a [`SimConfig`] needs plus the sweep metadata:
/// a human-readable `label` (carried through to reports), the `scheme` under
/// test, and the set of flows that scheme drives (`sweep_flows` — background
/// flows such as the §6.3.3 competitor keep their own configured scheme).
/// Specs serialize to JSON; that serialization is what
/// [`ScenarioSpec::content_key`] hashes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name shown in reports (location, trace, case, …).
    pub label: String,
    /// The congestion-control scheme under test.
    pub scheme: SchemeChoice,
    /// Experiment seed; every stochastic component derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: Duration,
    /// Cellular-network configuration (cells, CA policy, overheads).
    pub cellular: CellularConfig,
    /// Background-traffic load profile applied to every cell.
    pub load: CellLoadProfile,
    /// Mobile devices and their mobility traces.
    pub ues: Vec<(UeConfig, MobilityTrace)>,
    /// All end-to-end flows of the scenario.
    pub flows: Vec<FlowConfig>,
    /// Ids of the flows driven by `scheme`; the rest keep their configured
    /// scheme (competitors, fixed-rate probes).
    pub sweep_flows: Vec<u32>,
    /// Per-cell trajectory overrides (multi-cell mobility — the city-scale
    /// and handover scenario families).
    pub trajectories: Vec<CellTrajectory>,
    /// Accepted and ignored, like [`SimConfig::shards`].  It stays because
    /// the spec's JSON serializes it, and the repo benchmark's `paper_sweep`
    /// result digest hashes that JSON; ROADMAP item 4 drops the benchmark's
    /// use and item 7 deletes the field.
    pub shards: Option<usize>,
    /// Shared wired backhaul topology (`None` = per-flow private paths; see
    /// [`SimConfig::backhaul`]).
    pub backhaul: Option<BackhaulConfig>,
    /// Deterministic fault schedule (cell outages, link flaps, decode-loss
    /// bursts; see [`SimConfig::faults`]).  An empty schedule elides from
    /// the content key exactly like `None`.
    pub faults: Option<FaultSchedule>,
}

impl ScenarioSpec {
    /// An empty scenario on the default three-cell network with no
    /// background load.
    pub fn new(label: impl Into<String>, scheme: SchemeChoice, duration: Duration) -> Self {
        ScenarioSpec {
            label: label.into(),
            scheme,
            seed: 0,
            duration,
            cellular: CellularConfig::default(),
            load: CellLoadProfile::none(),
            ues: Vec::new(),
            flows: Vec::new(),
            sweep_flows: Vec::new(),
            trajectories: Vec::new(),
            shards: None,
            backhaul: None,
            faults: None,
        }
    }

    /// The paper's default single-device, single-bulk-flow scenario: one UE
    /// on the primary cell at −85 dBm, one flow driven by the swept scheme.
    pub fn single_flow(label: impl Into<String>, scheme: SchemeChoice, duration: Duration) -> Self {
        let ue = UeId(1);
        ScenarioSpec::new(label, scheme, duration)
            .ue(
                UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            )
            .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
    }

    /// A stationary-location scenario from the §6.3.1 library: the
    /// location's RSSI, aggregation level, load profile and per-location
    /// seed, with one bulk flow under test.
    pub fn from_location(label: impl Into<String>, loc: &Location, duration: Duration) -> Self {
        let ue = UeId(1);
        let cells: Vec<CellId> = (0..3).map(|i| CellId(i as u16)).collect();
        ScenarioSpec::new(label, SchemeChoice::Pbe, duration)
            .load(loc.load())
            .seed(loc.seed())
            .ue(
                UeConfig::new(ue, cells, loc.aggregated_cells, loc.rssi_dbm),
                MobilityTrace::stationary(loc.rssi_dbm),
            )
            .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
    }

    /// Set the cellular-network configuration.
    pub fn cellular(mut self, cellular: CellularConfig) -> Self {
        self.cellular = cellular;
        self
    }

    /// Set the background-load profile.
    pub fn load(mut self, load: CellLoadProfile) -> Self {
        self.load = load;
        self
    }

    /// Set the base experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a mobile device with its mobility trace.
    pub fn ue(mut self, config: UeConfig, trace: MobilityTrace) -> Self {
        self.ues.push((config, trace));
        self
    }

    /// Add a flow driven by the swept scheme.
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.sweep_flows.push(flow.id);
        self.flows.push(flow);
        self
    }

    /// Add a background flow that keeps its own configured scheme (e.g. the
    /// fixed-rate competitor of §6.3.3).
    pub fn background_flow(mut self, flow: FlowConfig) -> Self {
        self.flows.push(flow);
        self
    }

    /// Route every flow through a shared backhaul topology (see
    /// [`SimConfig::backhaul`]).
    pub fn backhaul(mut self, backhaul: BackhaulConfig) -> Self {
        self.backhaul = Some(backhaul);
        self
    }

    /// Inject a deterministic fault schedule (see [`SimConfig::faults`]).
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Override the RSSI trajectory one UE sees towards one of its
    /// configured cells (multi-cell mobility; see
    /// [`SimConfig::trajectories`]).
    pub fn trajectory(mut self, ue: UeId, cell: CellId, trace: MobilityTrace) -> Self {
        self.trajectories.push(CellTrajectory { ue, cell, trace });
        self
    }

    /// Lower the spec onto a plain simulator configuration, substituting the
    /// scheme under test into the swept flows.
    pub fn sim_config(&self) -> SimConfig {
        let flows = self
            .flows
            .iter()
            .map(|f| {
                let mut f = f.clone();
                if self.sweep_flows.contains(&f.id) {
                    f.scheme = self.scheme.clone();
                }
                f
            })
            .collect();
        SimConfig {
            cellular: self.cellular.clone(),
            load: self.load,
            seed: self.seed,
            duration: self.duration,
            ues: self.ues.clone(),
            flows,
            trajectories: self.trajectories.clone(),
            shards: self.shards,
            backhaul: self.backhaul.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Run this single scenario to completion (sugar for the one-off case;
    /// grids go through [`run_cached`](crate::artifact::run_cached)).
    pub fn run(&self) -> SimResult {
        Simulation::new(self.sim_config()).run()
    }

    /// The stable content key addressing this spec in the artifact result
    /// store: a 128-bit FNV-1a over the [canonical](canonical_json)
    /// serialization.  Two specs share a key exactly when they describe the
    /// same experiment, whatever the field order, and a field added at its
    /// `null`/`[]`/`{}` default leaves every existing key unchanged (see
    /// `docs/ARCHITECTURE.md` § "Compatibility policy").
    pub fn content_key(&self) -> String {
        content_key_of_value(&serde_json::to_value(self).expect("spec serializes"))
    }

    /// The canonical serialization [`ScenarioSpec::content_key`] hashes —
    /// exposed so golden tests can pin the exact hash input.
    pub fn canonical_json(&self) -> String {
        canonical_json(&serde_json::to_value(self).expect("spec serializes"))
    }
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// Canonicalize a serialized value tree for content hashing.
///
/// Two rules, applied recursively:
///
/// 1. **Object entries sort by key**, so the hash is independent of struct
///    field declaration order and of the order a JSON file spelled them in.
/// 2. **Entries whose canonical value is `null`, `[]` or `{}` are dropped.**
///    Optional fields left at their default (`shards: None`,
///    `backhaul: None`, `trajectories: []`) do not contribute, so adding a
///    field at such a default keeps every stored key and benchmark input
///    digest unchanged.
pub fn canonical_value(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(canonical_value).collect()),
        Value::Object(entries) => {
            let mut canon: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, val)| (k.clone(), canonical_value(val)))
                .filter(|(_, val)| match val {
                    Value::Null => false,
                    Value::Array(items) => !items.is_empty(),
                    Value::Object(fields) => !fields.is_empty(),
                    _ => true,
                })
                .collect();
            canon.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(canon)
        }
        other => other.clone(),
    }
}

/// Render a value tree in canonical form (see [`canonical_value`]) as
/// compact JSON — the exact byte string the content key hashes.
pub fn canonical_json(v: &Value) -> String {
    serde_json::to_string(&canonical_value(v)).expect("canonical value renders")
}

/// Content key of an already-serialized value tree: 128-bit FNV-1a over the
/// canonical JSON, as 32 hex digits.  Parsing a stored spec's JSON and
/// hashing the parsed tree gives the same key the live
/// [`ScenarioSpec::content_key`] computes.
pub fn content_key_of_value(v: &Value) -> String {
    pbe_stats::fnv1a_128_hex(canonical_json(v).as_bytes())
}

/// A set of base scenarios crossed with a scheme axis and a seed axis.
///
/// `expand()` yields `scenarios × schemes × seeds` [`ScenarioSpec`]s, exactly
/// one per grid point, in deterministic scenario-major order (then scheme,
/// then seed) — the order reports print in, independent of how many workers
/// later execute the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepGrid {
    /// The base scenarios (their `scheme`/`seed` fields are the defaults the
    /// axes override).
    pub scenarios: Vec<ScenarioSpec>,
    /// Scheme axis.  Empty means "keep each scenario's own scheme".
    pub schemes: Vec<SchemeChoice>,
    /// Seed-replica axis: each entry is mixed into the scenario's base seed
    /// with [`derive_seed`].  Empty means one replica with the base seed.
    pub seeds: Vec<u64>,
}

impl SweepGrid {
    /// A grid over the given base scenarios with no extra axes.
    pub fn over(scenarios: Vec<ScenarioSpec>) -> Self {
        SweepGrid {
            scenarios,
            schemes: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Set the scheme axis.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeChoice>) -> Self {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Set the seed axis to explicit replica indices.
    ///
    /// Entries are **not** experiment seeds: each index is mixed into the
    /// scenario's base seed with [`derive_seed`] (index 0 keeps the base
    /// seed unchanged).  To run one specific experiment seed, set it as the
    /// scenario's base seed and leave this axis empty.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Set the seed axis to `count` replicas (indices `0..count`; replica 0
    /// keeps each scenario's base seed).
    pub fn seed_replicas(self, count: u64) -> Self {
        self.seeds((0..count).collect::<Vec<_>>())
    }

    /// Number of grid points `expand()` will produce.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.schemes.len().max(1) * self.seeds.len().max(1)
    }

    /// True if the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full cross product, exactly once per point.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut points = Vec::with_capacity(self.len());
        for base in &self.scenarios {
            let schemes: Vec<SchemeChoice> = if self.schemes.is_empty() {
                vec![base.scheme.clone()]
            } else {
                self.schemes.clone()
            };
            let seeds: Vec<u64> = if self.seeds.is_empty() {
                vec![0]
            } else {
                self.seeds.clone()
            };
            for scheme in &schemes {
                for &replica in &seeds {
                    let mut spec = base.clone();
                    spec.scheme = scheme.clone();
                    spec.seed = derive_seed(base.seed, replica);
                    points.push(spec);
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_config_substitutes_only_swept_flows() {
        let ue = UeId(1);
        let competitor = UeId(2);
        let duration = Duration::from_secs(2);
        let spec = ScenarioSpec::new("comp", SchemeChoice::named("BBR"), duration)
            .ue(
                UeConfig::new(ue, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            )
            .ue(
                UeConfig::new(competitor, vec![CellId(0)], 1, -85.0),
                MobilityTrace::stationary(-85.0),
            )
            .flow(FlowConfig::bulk(1, ue, SchemeChoice::Pbe, duration))
            .background_flow(FlowConfig::bulk(
                2,
                competitor,
                SchemeChoice::FixedRate,
                duration,
            ));
        let cfg = spec.sim_config();
        assert_eq!(cfg.flows[0].scheme, SchemeChoice::named("BBR"));
        assert_eq!(cfg.flows[1].scheme, SchemeChoice::FixedRate);
    }

    #[test]
    fn expansion_is_the_exact_cross_product() {
        let duration = Duration::from_millis(100);
        let grid = SweepGrid::over(vec![
            ScenarioSpec::single_flow("a", SchemeChoice::Pbe, duration).seed(10),
            ScenarioSpec::single_flow("b", SchemeChoice::Pbe, duration).seed(20),
        ])
        .schemes([SchemeChoice::Pbe, SchemeChoice::named("BBR")])
        .seed_replicas(3);
        let points = grid.expand();
        assert_eq!(points.len(), grid.len());
        assert_eq!(points.len(), 2 * 2 * 3);
        // Every (label, scheme, seed) triple is distinct.
        let mut keys: Vec<String> = points
            .iter()
            .map(|p| format!("{}/{}/{}", p.label, p.scheme, p.seed))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 12);
        // Replica 0 keeps the base seed.
        assert_eq!(points[0].seed, 10);
    }

    #[test]
    fn empty_axes_keep_the_base_scenario() {
        let duration = Duration::from_millis(100);
        let base = ScenarioSpec::single_flow("a", SchemeChoice::named("Copa"), duration).seed(5);
        let points = SweepGrid::over(vec![base]).expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].scheme, SchemeChoice::named("Copa"));
        assert_eq!(points[0].seed, 5);
    }

    #[test]
    fn canonical_form_sorts_keys_and_drops_defaults() {
        let v = serde_json::parse(
            r#"{"zeta":1,"alpha":{"b":null,"a":2},"empty":[],"none":null,"nested":[{"y":[],"x":1}]}"#,
        )
        .unwrap();
        assert_eq!(
            canonical_json(&v),
            r#"{"alpha":{"a":2},"nested":[{"x":1}],"zeta":1}"#
        );
    }

    #[test]
    fn content_key_elides_defaulted_fields_and_ignores_order() {
        let duration = Duration::from_secs(1);
        let spec = ScenarioSpec::single_flow("key", SchemeChoice::Pbe, duration).seed(9);
        // The struct serializer writes `shards`/`backhaul` as null and
        // `trajectories` as []; the canonical form must not contain them.
        let canon = spec.canonical_json();
        assert!(!canon.contains("shards"));
        assert!(!canon.contains("backhaul"));
        assert!(!canon.contains("trajectories"));
        assert!(!canon.contains("faults"));
        // An *empty* fault schedule canonicalizes to `{}` and elides exactly
        // like `None`: old stored keys survive the field's introduction.
        let faulted = spec.clone().faults(FaultSchedule::none());
        assert_eq!(faulted.content_key(), spec.content_key());
        // A non-empty schedule is a different experiment.
        let outage = spec.clone().faults(FaultSchedule {
            cell_outages: vec![pbe_netsim::CellOutage {
                cell: CellId(0),
                start_ms: 100,
                end_ms: 200,
            }],
            ..FaultSchedule::none()
        });
        assert_ne!(outage.content_key(), spec.content_key());
        // Hashing the parsed JSON (any spelling) matches the live key.
        let text = serde_json::to_string(&spec).unwrap();
        let parsed = serde_json::parse(&text).unwrap();
        assert_eq!(content_key_of_value(&parsed), spec.content_key());
        // A semantic change moves the key.
        let other = ScenarioSpec::single_flow("key", SchemeChoice::Pbe, duration).seed(10);
        assert_ne!(other.content_key(), spec.content_key());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let duration = Duration::from_secs(1);
        let spec = ScenarioSpec::single_flow("json", SchemeChoice::Pbe, duration).seed(3);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&back.sim_config()).unwrap(),
            serde_json::to_string(&spec.sim_config()).unwrap()
        );
        assert_eq!(back.label, "json");
        assert_eq!(back.sweep_flows, vec![1]);
    }
}
