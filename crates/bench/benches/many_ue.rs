//! Criterion bench: simulator hot-loop cost with many UEs on one network.
//!
//! The city-scale scenario family schedules dozens of devices per subframe,
//! so the per-subframe setup cost (channel sampling, report assembly, the
//! per-UE bookkeeping in `ShardedNetwork::tick_into` and `Simulation::run`)
//! dominates.  This bench pins that cost: a fixed grid of bulk flows over
//! one simulated second, at three fleet sizes.  `PR 4` used it to measure
//! the preallocation / clone-removal pass (numbers in
//! `docs/ARCHITECTURE.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use pbe_cellular::channel::MobilityTrace;
use pbe_cellular::config::{CellId, CellularConfig, UeConfig, UeId};
use pbe_cellular::traffic::CellLoadProfile;
use pbe_netsim::{FlowConfig, SchemeChoice, SimConfig, Simulation};
use pbe_stats::time::Duration;
use std::hint::black_box;

fn many_ue_config(ues: u32, duration: Duration) -> SimConfig {
    let cells = vec![CellId(0), CellId(1), CellId(2)];
    SimConfig {
        cellular: CellularConfig::default(),
        load: CellLoadProfile::none(),
        seed: 42,
        duration,
        ues: (1..=ues)
            .map(|i| {
                (
                    UeConfig::new(UeId(i), cells.clone(), 1, -85.0 - f64::from(i % 7)),
                    MobilityTrace::stationary(-85.0 - f64::from(i % 7)),
                )
            })
            .collect(),
        flows: (1..=ues)
            .map(|i| FlowConfig::bulk(i, UeId(i), SchemeChoice::named("CUBIC"), duration))
            .collect(),
        trajectories: Vec::new(),
        shards: None,
        backhaul: None,
        faults: None,
    }
}

fn bench_many_ue_second(c: &mut Criterion) {
    let mut group = c.benchmark_group("many_ue_simulated_second");
    group.sample_size(10);
    for ues in [4u32, 16, 48] {
        group.bench_function(format!("{ues}_ues"), |b| {
            b.iter(|| {
                let cfg = many_ue_config(ues, Duration::from_secs(1));
                black_box(Simulation::new(cfg).run())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_many_ue_second);
criterion_main!(benches);
