//! Experiment harness for the PBE-CC reproduction.
//!
//! Every table and figure of the paper's evaluation is one entry of the
//! [`artifact`] registry, run by `pbe-bench artifact --figure NAME` (the
//! top-level `README.md` carries the figure → registry-name table) and
//! printed as plot-ready tables.  What the building blocks cost to compute
//! is measured by the repo benchmark under `benchmark/`, not here.
//!
//! The evaluation grid itself — scenario × scheme × seed — is a first-class
//! subsystem in [`sweep`]: declarative [`ScenarioSpec`]s expand through a
//! [`SweepGrid`] and execute on all cores via [`SweepRunner`], with results
//! aggregated into a [`SweepReport`] and rendered by one shared
//! text/CSV/JSON writer.
//!
//! On top of the sweep sits the [`artifact`] pipeline: the figure registry
//! plus a content-addressed on-disk result store, so
//! `pbe-bench artifact --all --store DIR` reproduces the whole evaluation
//! and a re-run only executes the grid points whose content key is missing.

#![warn(missing_docs)]

pub mod artifact;
pub mod perf;
pub mod scenarios;
pub mod sweep;
pub mod table;

pub use artifact::{ArtifactArgs, ArtifactSummary, FigureSpec, ResultStore};
pub use scenarios::{Location, LocationKind, ScenarioLibrary};
pub use sweep::{CityScale, ScenarioSpec, SweepGrid, SweepReport, SweepRunner};
pub use table::TextTable;
