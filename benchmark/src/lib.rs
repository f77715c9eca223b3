//! The repo benchmark of the PBE-CC reproduction.
//!
//! Five workloads, each measured two ways: an untraced run for the
//! end-to-end metrics a user of the simulator sees ([`timed`]), and a traced
//! run for the per-layer numbers that say where the time goes ([`traced`]).
//! Every host time is divided by a frozen reference kernel
//! ([`refkernel`], [`estimator`]) because this machine's speed changes under
//! a fixed binary.  The benchmark touches the simulator through its public
//! API only; `README.md` beside this crate has the rationale and the
//! measured noise study.

#![warn(missing_docs)]

pub mod checks;
pub mod cli;
pub mod estimator;
pub mod metrics;
pub mod refkernel;
pub mod replay;
pub mod runner;
pub mod suite;
pub mod timed;
pub mod trace;
pub mod traced;
pub mod workloads;
