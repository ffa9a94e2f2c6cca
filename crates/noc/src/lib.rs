//! # snacknoc-noc
//!
//! A cycle-level, virtual-channel, wormhole-routed 2D-mesh Network-on-Chip
//! simulator. This crate is the communication substrate of the
//! SnackNoC (HPCA 2020) reproduction: it models the router microarchitecture
//! whose *slack* (idle crossbar cycles, idle links, empty input buffers)
//! SnackNoC repurposes for computation.
//!
//! ## Model
//!
//! * **Topology**: `cols × rows` 2D mesh, one router per node, one network
//!   interface (NI) per router on the `Local` port.
//! * **Router**: canonical input-queued VC router — per-port input units with
//!   `vnets × vcs_per_vnet` virtual channels, dimension-order (XY) route
//!   computation, separable round-robin VC allocation and switch allocation,
//!   a crossbar, and credit-based flow control. Pipeline depth is
//!   configurable (2/3/4 stages) to model the BiNoCHS / AxNoC / DAPPER
//!   baselines of the paper (Table I).
//! * **Arbitration**: an optional *priority arbitration* mode arbitrates
//!   communication-class flits strictly before SnackNoC instruction/data
//!   flits at both allocators (paper §III-D3).
//! * **Statistics**: per-router crossbar-usage and per-link usage time
//!   series over sampling windows, network-wide buffer-occupancy CDFs, and
//!   per-class packet latency accounting — everything Figures 2, 3 and 11
//!   of the paper are drawn from.
//!
//! The network is *passive*: devices (traffic generators, the SnackNoC CPM
//! and RCUs) live outside, injecting packets with [`Network::inject`] and
//! draining delivered packets with [`Network::drain_ejected`] around each
//! [`Network::step`] call. Payloads are generic, so higher layers can carry
//! arbitrary token types without this crate knowing about them.
//!
//! ## Example
//!
//! ```
//! use snacknoc_noc::{Network, NocConfig, PacketSpec, TrafficClass};
//!
//! # fn main() -> Result<(), snacknoc_noc::ConfigError> {
//! let mut net: Network<u32> = Network::new(NocConfig::binochs())?;
//! let src = net.mesh().node_at(0, 0);
//! let dst = net.mesh().node_at(3, 3);
//! net.inject(PacketSpec::new(src, dst, 0, TrafficClass::Communication, 64, 42));
//! for _ in 0..100 {
//!     net.step();
//! }
//! let delivered = net.drain_ejected(dst);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bitset;
pub mod config;
pub mod fault;
pub mod flit;
pub mod network;
pub mod packet;
pub mod pool;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;

pub use bitset::BitSet;
pub use config::{ConfigError, NocConfig, NocPreset, Stepping};
pub use fault::{
    DeadRcu, FaultCounters, FaultPlan, FaultPlanError, FaultTargets, LinkFault, LinkFaultKind,
    StallWindow,
};
pub use flit::{Flit, FlitKind, TrafficClass};
pub use network::{Network, StallReport};
pub use packet::{Packet, PacketId, PacketSpec};
pub use pool::{PayloadPool, PayloadRef, PoolExhausted};
pub use routing::Dir;
pub use stats::{LatencyHistogram, NetStats, OccupancyCdf, ProtocolErrors, SeriesSample};
pub use topology::{Mesh, NodeId};
