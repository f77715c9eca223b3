//! LTE / 5G-NR radio-access-network substrate for the PBE-CC reproduction.
//!
//! The original PBE-CC artifact ran over a commercial LTE deployment observed
//! through USRP software-defined radios.  This crate replaces the over-the-air
//! testbed with a faithful model of the mechanisms the paper's evaluation
//! depends on:
//!
//! * OFDMA resource grid: 180 kHz × 0.5 ms physical resource blocks (PRBs),
//!   1 ms subframes, transport blocks ([`prb`], [`mcs`]).
//! * Downlink control information carried on the PDCCH, one message per
//!   scheduled user per subframe, CRC scrambled by the user's RNTI ([`dci`]).
//! * A per-subframe eNodeB scheduler with per-UE queues and an equal-share
//!   (water-filling) fairness policy ([`scheduler`], [`cell`]).
//! * Carrier aggregation: secondary-cell activation when a user consumes a
//!   large fraction of its serving cells' bandwidth, deactivation when the
//!   extra capacity goes unused ([`carrier`]).
//! * HARQ retransmission eight subframes after a transport-block error, at
//!   most three retransmissions, and the in-order RLC reordering buffer that
//!   turns those retransmissions into 8/16/24 ms delay spikes ([`harq`],
//!   [`reorder`]).
//! * A wireless channel model mapping RSSI / mobility to SINR, CQI, MCS and
//!   transport-block error rate ([`channel`]).
//! * Stochastic background users calibrated to the paper's measurements
//!   (68 % control-traffic users occupying 4 PRBs for one subframe, diurnal
//!   load, heavy-tailed flow sizes) ([`traffic`]).
//! * The [`shard::ShardedNetwork`] tick engine that ties all of the above
//!   into the per-subframe data path used by the end-to-end simulator, as
//!   one shard ticked inline or several ticked in parallel with
//!   byte-identical results.

#![warn(missing_docs)]

pub mod carrier;
pub mod cell;
pub mod channel;
pub mod config;
pub mod dci;
pub mod handover;
pub mod harq;
pub mod mcs;
pub mod network;
pub mod prb;
pub mod reorder;
pub mod scheduler;
pub mod shard;
pub mod slab;
pub mod traffic;
pub mod ue;

pub use carrier::CarrierAggregationManager;
pub use cell::{Cell, SubframeReport};
pub use channel::{ChannelModel, ChannelState, MobilityTrace};
pub use config::{CellConfig, CellId, CellularConfig, Rnti, UeConfig, UeId};
pub use dci::{DciFormat, DciMessage};
pub use mcs::{Cqi, McsIndex};
pub use network::{CellularNetwork, Delivery, NetworkTickReport};
pub use prb::PrbAllocation;
pub use shard::ShardedNetwork;
pub use traffic::{BackgroundTraffic, CellLoadProfile};
