//! Workspace facade crate.
//!
//! Re-exports every crate of the PBE-CC reproduction so the repo-level
//! integration tests (`tests/`) and examples (`examples/`) have a single
//! package to live in.  Library code belongs in the `crates/` members, not
//! here.

#![forbid(unsafe_code)]

pub use pbe_bench as bench;
pub use pbe_cc_algorithms as cc;
pub use pbe_cellular as cellular;
pub use pbe_core as core;
pub use pbe_netsim as netsim;
pub use pbe_pdcch as pdcch;
pub use pbe_stats as stats;

/// The README's `rust` blocks, compiled and run as doc-tests so the
/// README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
