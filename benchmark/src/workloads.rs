//! The five workloads: what each one feeds the simulator, generated from the
//! benchmark seed.
//!
//! Only the generated [`SimConfig`] (or, for `paper_sweep`, the expanded
//! grid) reaches the program.  `--seed` is mixed into every scenario's
//! experiment seed — channel fading, background traffic, decoder misses and
//! the stochastic schemes all change with it.  Where a scenario also has a
//! *layout* (the city's waypoint trajectories) that stays fixed: moving 24
//! UEs between six cells changes the work per simulated second by 20 %, and
//! a host-time metric that swings 20 % with the seed cannot hold a 10 %
//! bound.

use pbe_bench::artifact::figures::stationary_grid;
use pbe_bench::sweep::{content_key_of_value, CityScale, Fanout, ScenarioSpec};
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig};
use pbe_stats::derive_seed;
use pbe_stats::time::Duration;

/// How long the generated scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The workload's own duration.
    Full,
    /// One subframe: `Simulation::new` is lazy, so running a single subframe
    /// is the only way to time construction.  This is what `setup_s` runs.
    OneSubframe,
}

/// What a workload hands the program.
#[derive(Debug, Clone)]
pub enum Input {
    /// One simulation.
    Sim(Box<SimConfig>),
    /// An expanded evaluation grid, run through the artifact executor.
    Sweep(Vec<ScenarioSpec>),
}

impl Input {
    /// Simulated seconds one pass over the input covers.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Input::Sim(cfg) => cfg.duration.as_secs_f64(),
            Input::Sweep(specs) => specs.iter().map(|s| s.duration.as_secs_f64()).sum(),
        }
    }

    /// Content digest of the generated input: the repository's canonical
    /// content key, so a serde-defaulted field added later does not change
    /// it.  `expected.json` pins the seed-1 digests; a different digest means
    /// the workload no longer is the one the baseline measured.
    pub fn digest(&self) -> String {
        let value = match self {
            Input::Sim(cfg) => serde_json::to_value(&**cfg),
            Input::Sweep(specs) => serde_json::to_value(specs),
        };
        content_key_of_value(&value.expect("inputs serialize"))
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Passes over the input batched into one timed sample, so a sample is
    /// at least ~50 ms.
    pub passes_per_sample: usize,
    /// Fewest timed samples a run may report from.
    pub min_samples: usize,
    generate: fn(u64, Horizon) -> Input,
}

impl Workload {
    /// Generate the workload's input from the benchmark seed.
    pub fn input(&self, seed: u64, horizon: Horizon) -> Input {
        (self.generate)(seed, horizon)
    }
}

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_sweep",
        why: "Fig. 13/14 grid (6 locations x 8 schemes x 4 seed replicas of 0.5 sim-s) through the \
              artifact executor: 192 short 1-UE runs, so set-up, cc, core and harness share the time; \
              store checked untimed",
        passes_per_sample: 1,
        min_samples: 20,
        generate: paper_sweep,
    },
    Workload {
        name: "radio_dense",
        why: "48 stationary CUBIC UEs on 3 cells: scheduler, HARQ and queues do the work; \
              pdcch and core do none, so it bypasses any decoder or estimator optimisation",
        passes_per_sample: 4,
        min_samples: 20,
        generate: radio_dense,
    },
    Workload {
        name: "pbe_city",
        why: "24 PBE flows driving across a 3x2 city with handovers: the receiver pipeline \
              (blind decode, fusion, monitor, estimate) dominates host time",
        passes_per_sample: 1,
        min_samples: 20,
        generate: pbe_city,
    },
    Workload {
        name: "backhaul_fanout",
        why: "960 CUBIC flows on 24 cells behind one 480 Mbit/s aggregation link: the only workload \
              whose packets cross the backhaul walk, whose queues mark and drop, and with 960 senders to poll",
        passes_per_sample: 1,
        min_samples: 20,
        generate: backhaul_fanout,
    },
    Workload {
        name: "metro_idle",
        why: "10,000 UEs on 100 cells, 16 flows, serial engine: the per-UE-per-subframe walk over \
              idle UEs is nearly all of the time; cc, pdcch and core are near zero",
        passes_per_sample: 1,
        min_samples: 12,
        generate: metro_idle,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn duration(full: Duration, horizon: Horizon) -> Duration {
    match horizon {
        Horizon::Full => full,
        Horizon::OneSubframe => Duration::from_millis(1),
    }
}

/// Seed replicas of every `paper_sweep` grid point.
const SWEEP_REPLICAS: u64 = 4;

/// The paper's stationary evaluation grid, with the benchmark seed on the
/// grid's own seed-replica axis: four replicas of half a simulated second
/// each.  The eight schemes at one location share that location's seed, so
/// one replica is only six independent draws of the background traffic, and
/// over two seconds PCC's rate search either explodes or does not: host time
/// moved 24 % and peak memory fourfold from seed to seed.  Four short
/// replicas cost the same 96 simulated seconds per pass, move 7 %, and pay
/// construction 192 times — the set-up-heavy shape this workload is for.
fn paper_sweep(seed: u64, horizon: Horizon) -> Input {
    let replicas = (0..SWEEP_REPLICAS).map(|r| seed * SWEEP_REPLICAS + r);
    let mut specs = stationary_grid(1).seeds(replicas).expand();
    for spec in &mut specs {
        spec.duration = duration(Duration::from_millis(500), horizon);
    }
    Input::Sweep(specs)
}

/// The shape of `perf::many_ue_config`, generated here so the old gate's
/// scenario can change without moving this workload.
fn radio_dense(seed: u64, horizon: Horizon) -> Input {
    let ues = 48u32;
    let run = duration(Duration::from_secs(1), horizon);
    let cells = vec![CellId(0), CellId(1), CellId(2)];
    Input::Sim(Box::new(SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::none(),
        seed: derive_seed(0xDE45E, seed),
        duration: run,
        ues: (1..=ues)
            .map(|i| {
                let rssi = -85.0 - f64::from(i % 7);
                (
                    UeConfig::new(UeId(i), cells.clone(), 1, rssi),
                    MobilityTrace::stationary(rssi),
                )
            })
            .collect(),
        flows: (1..=ues)
            .map(|i| FlowConfig::bulk(i, UeId(i), SchemeChoice::named("CUBIC"), run))
            .collect(),
        trajectories: Vec::new(),
        shards: None,
        backhaul: None,
        faults: None,
    }))
}

/// Layout seed of `pbe_city`: with 150 m cells and 40 m/s it gives 7–9
/// handovers in the two seconds at every experiment seed tried
/// (`perf::city_scale_config` gives none).
const CITY_LAYOUT: u64 = 7;

fn pbe_city(seed: u64, horizon: Horizon) -> Input {
    let mut city = CityScale::driving(3, 2, 24).seed(CITY_LAYOUT);
    city.duration = duration(Duration::from_secs(2), horizon);
    city.speed_mps = 40.0;
    city.cell_spacing_m = 150.0;
    city.trace_step_ms = 100;
    let mut spec = city.scenario();
    spec.seed = derive_seed(CITY_LAYOUT, seed);
    Input::Sim(Box::new(spec.sim_config()))
}

fn backhaul_fanout(seed: u64, horizon: Horizon) -> Input {
    let mut fanout = Fanout::new(24, 960)
        .seed(derive_seed(0xFA0, seed))
        .agg(480e6, 1_200_000);
    fanout.duration = duration(Duration::from_secs(1), horizon);
    Input::Sim(Box::new(fanout.scenario().sim_config()))
}

/// Layout seed of `metro_idle`.
const METRO_LAYOUT: u64 = 0x3E7;

/// Serial engine on purpose: two shards on two vCPUs read 8.7 % apart run
/// to run, serial 4 %.  Sharding has its own per-layer metric.
fn metro_idle(seed: u64, horizon: Horizon) -> Input {
    let mut city = CityScale::driving(10, 10, 10_000)
        .seed(METRO_LAYOUT)
        .scheme(SchemeChoice::named("CUBIC"))
        .flows_cap(16);
    city.duration = duration(Duration::from_millis(200), horizon);
    let mut spec = city.scenario();
    spec.seed = derive_seed(METRO_LAYOUT, seed);
    Input::Sim(Box::new(spec.sim_config()))
}
