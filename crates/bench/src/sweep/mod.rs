//! Declarative scenario catalog and parallel sweep harness.
//!
//! The paper's evaluation is a grid — locations/mobility traces × eight
//! congestion-control schemes × seeds.  The sweep harness makes the grid a
//! first-class object, and every figure of the
//! [artifact pipeline](crate::artifact) is one:
//!
//! * [`ScenarioSpec`] — one fully specified grid point: cell profile, devices
//!   with mobility traces, flows, the scheme under test, a seed and a
//!   duration.  It is serde-serializable, so a scenario can live in a JSON
//!   file as easily as in code, and `sim_config()` lowers it onto the
//!   simulator's [`SimConfig`](pbe_netsim::SimConfig).
//! * [`SweepGrid`] — a set of base scenarios crossed with a scheme axis and a
//!   seed axis.  [`SweepGrid::expand`] produces the full cross product,
//!   exactly once per point, in a deterministic order.
//! * [`SweepRunner`] — executes a list of specs across OS threads using the
//!   shared in-tree worker pool ([`pbe_stats::pool`], also the dispatch layer
//!   of the sharded tick engine; no external dependencies).  Every
//!   scenario's randomness derives from its spec alone
//!   ([`pbe_stats::derive_seed`]), so a parallel sweep is byte-identical to a
//!   serial one; only the wall clock changes.
//! * [`SweepReport`] — the aggregated outcome: per-scenario
//!   [`SimResult`](pbe_netsim::SimResult)s plus wall-clock accounting
//!   (total elapsed, summed per-scenario busy time, parallel speedup), with
//!   JSON export and lookups by label/scheme.
//! * [`report`] — the single shared table writer (aligned text, CSV, JSON,
//!   stdout or `--out` directory) every figure renders through.
//! * [`city`] — the `city_scale` scenario family: a grid of cells under a
//!   log-distance path-loss model with a fleet of UEs on random-waypoint
//!   trajectories, compiled into per-cell RSSI traces that exercise the
//!   inter-cell handover machinery at scale.
//! * [`fanout`] — the `fanout` scenario family: one server fanning out to
//!   many cells behind one shared aggregation link
//!   ([`pbe_netsim::BackhaulConfig`]), the scenario where the bottleneck
//!   migrates from the radio into the backhaul.
//!
//! ```
//! use pbe_bench::sweep::{ScenarioSpec, SweepGrid, SweepRunner};
//! use pbe_netsim::SchemeChoice;
//! use pbe_stats::time::Duration;
//!
//! let base = ScenarioSpec::single_flow("demo", SchemeChoice::Pbe, Duration::from_millis(300));
//! let grid = SweepGrid::over(vec![base])
//!     .schemes([SchemeChoice::Pbe, SchemeChoice::named("BBR")])
//!     .seed_replicas(2);
//! let report = SweepRunner::new().workers(2).run(grid.expand());
//! assert_eq!(report.outcomes.len(), 4); // 1 scenario × 2 schemes × 2 seeds
//! ```

pub mod city;
pub mod fanout;
pub mod report;
pub mod runner;
pub mod spec;

pub use city::CityScale;
pub use fanout::Fanout;
pub use pbe_stats::pool::run_indexed;
pub use report::{OutputFormat, ReportWriter};
pub use runner::{ScenarioOutcome, SweepReport, SweepRunner};
pub use spec::{canonical_json, canonical_value, content_key_of_value, ScenarioSpec, SweepGrid};
