//! End-to-end congestion-control algorithms behind a common trait.
//!
//! The paper evaluates PBE-CC against seven end-to-end algorithms: BBR and
//! CUBIC (deployed in the Linux kernel), Sprout and Verus (designed for
//! cellular links), and Copa, PCC and PCC-Vivace (recent research proposals).
//! This crate re-implements each of them, from the published algorithm
//! descriptions, behind the [`api::CongestionControl`] trait so that the
//! end-to-end simulator (and PBE-CC itself, which implements the same trait
//! in `pbe-core`) can drive any of them interchangeably.
//!
//! The implementations capture the control laws that determine each
//! algorithm's characteristic behaviour on a cellular bottleneck — BBR's
//! bandwidth/RTT probing state machine, CUBIC's cubic window growth and
//! multiplicative back-off, Copa's delay-target rate, Verus's delay-profile
//! window updates, Sprout's conservative rate forecasts, PCC's and Vivace's
//! online utility-gradient search — at the level of detail the paper's
//! evaluation exercises.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod bbr;
pub mod chaos;
pub mod copa;
pub mod cubic;
pub mod cubic_ecn;
pub mod pcc;
pub mod registry;
pub mod sfc;
pub mod sprout;
pub mod verus;
pub mod vivace;
pub mod windowed;

pub use api::{AckInfo, CongestionControl, CongestionSignal, PbeFeedback, SchemeName, MSS_BYTES};
pub use bbr::Bbr;
pub use chaos::{ChaosHang, ChaosPanic};
pub use copa::Copa;
pub use cubic::Cubic;
pub use cubic_ecn::CubicEcn;
pub use pcc::Pcc;
pub use registry::{SchemeCtx, SchemeFactory, SchemeId, SchemeRegistry};
pub use sfc::Sfc;
pub use sprout::Sprout;
pub use verus::Verus;
pub use vivace::Vivace;
