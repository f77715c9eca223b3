//! PBE-CC: Congestion Control via Endpoint-Centric, Physical-Layer Bandwidth
//! Measurements — the paper's contribution.
//!
//! PBE-CC is a cross-layer, rate-based end-to-end congestion-control
//! algorithm for flows that terminate at cellular mobile devices.  It has two
//! halves:
//!
//! * **The mobile client** ([`client::PbeClient`]) sits next to the receiver.
//!   It consumes the stream of decoded control messages produced by
//!   `pbe-pdcch`, estimates the wireless capacity available to this user at
//!   millisecond granularity (paper Eqns. 1–4), translates that physical-layer
//!   capacity into a transport-layer goodput (Eqn. 5, [`translate`]), detects
//!   whether the connection is bottlenecked at the wireless hop or inside the
//!   wired Internet (§4.2.2), and feeds the result back to the sender inside
//!   every acknowledgement ([`pbe_cc_algorithms::api::PbeFeedback`]).
//!
//! * **The sender** ([`sender::PbeSender`]) paces packets.  On connection
//!   start it ramps linearly to the fair-share rate over three RTTs (§4.1).
//!   While the wireless link is the bottleneck it simply matches the client's
//!   capacity feedback, keeping the pipe full with minimal queueing.  When the
//!   client signals an Internet bottleneck it drains the queue for one RTprop
//!   and falls back to a cellular-tailored BBR whose probing rate is capped at
//!   the wireless fair share (Eqn. 7, §4.2.3).
//!
//! The sender implements the same [`pbe_cc_algorithms::CongestionControl`]
//! trait as every baseline, so the simulator and benchmark harness treat
//! PBE-CC and its competitors identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod client;
pub mod receiver;
pub mod sender;
pub mod translate;

pub use capacity::{CapacityEstimate, CapacityEstimator};
pub use client::{BottleneckState, PbeClient};
pub use receiver::{
    NullReceiverAgent, PbeReceiverAgent, ReceiverAgent, ReceiverCtx, ReceiverFactory,
};
pub use sender::{PbeSender, SenderState};
pub use translate::RateTranslator;

use pbe_cc_algorithms::registry::{SchemeCtx, SchemeId, SchemeRegistry};

/// The canonical registry key of PBE-CC.
pub const PBE_SCHEME_ID: SchemeId = SchemeId::from_static("PBE");

/// Register PBE-CC's sender in a scheme registry, through the same interface
/// every baseline uses.
fn register_pbe(registry: &mut SchemeRegistry) {
    registry.register(PBE_SCHEME_ID, |ctx: &SchemeCtx| {
        Box::new(PbeSender::new(ctx.rtprop_hint))
    });
}

/// The full default registry: the seven baselines and the two
/// signaling-assisted variants, PBE-CC, and the chaos schemes the
/// failure-containment tests select by name (they are not baselines —
/// sweeps only run them when a grid asks for `CHAOS_PANIC` or `CHAOS_HANG`
/// explicitly).
pub fn default_scheme_registry() -> SchemeRegistry {
    let mut registry = SchemeRegistry::with_baselines();
    register_pbe(&mut registry);
    registry.register("CHAOS_PANIC", |_ctx: &SchemeCtx| {
        Box::new(pbe_cc_algorithms::ChaosPanic::default())
    });
    registry.register("CHAOS_HANG", |_ctx: &SchemeCtx| {
        Box::new(pbe_cc_algorithms::ChaosHang::default())
    });
    registry
}
