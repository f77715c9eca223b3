//! Endpoint-side control-channel monitoring for PBE-CC.
//!
//! In the paper, the mobile endpoint decodes *every* control message the base
//! station transmits (not just its own grants) by blind-decoding the PDCCH of
//! each aggregated cell on a USRP software-defined radio, fusing the streams
//! of the per-cell decoders, and book-keeping each cell's bandwidth occupancy
//! (paper §5, Fig. 10a).  This crate is that measurement module:
//!
//! * [`batch`] — groups one subframe's combined DCI stream into per-cell
//!   slices so each blind decoder scans only the messages of its own cell.
//! * [`decoder`] — per-cell blind decoder.  It searches the candidate
//!   positions/aggregation levels of each subframe's control region, tries
//!   every DCI format, and recovers the target RNTI from the CRC, with a
//!   configurable miss probability standing in for RF impairments.
//! * [`fusion`] — aligns the decoded messages of multiple cells on their
//!   subframe index, exactly like the paper's Message Fusion module.
//! * [`monitor`] — turns the fused message stream into the quantities the
//!   PBE-CC congestion-control algorithm needs (paper Eqns. 1–4): the PRBs
//!   allocated to this user, to other users, and left idle in each cell, the
//!   number of *data-active* competing users after the `Ta > 1, Pa > 4`
//!   control-traffic filter, and the user's own physical data rate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod decoder;
pub mod fusion;
pub mod monitor;

pub use batch::{DciBatch, DciBatcher};
pub use decoder::{ControlChannelDecoder, DecoderConfig, DecoderStats};
pub use fusion::{FusedSubframe, MessageFusion};
pub use monitor::{CellSnapshot, CellStatusMonitor, MonitorConfig};
