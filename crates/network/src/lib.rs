//! # sebdb-network
//!
//! The simulated network substrate (§III-B): a seeded
//! [`sim::EventLoop`] that steps sans-I/O cluster nodes over links with
//! configurable latency and loss, a
//! deterministic round-stepped [`gossip::GossipCluster`] for block
//! propagation and data recovery, and gossip-style heartbeat
//! [`membership`] for failure detection. Substitutes for the paper's
//! physical 4-node cluster (DESIGN.md §4).

#![warn(missing_docs)]

pub mod gossip;
pub mod membership;
pub mod sim;

pub use gossip::{GossipCluster, ItemId};
pub use membership::{MemberState, MembershipView};
pub use sim::{EventLoop, Input, NetConfig, Node, NodeId, Output};
