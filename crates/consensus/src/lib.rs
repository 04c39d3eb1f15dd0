//! # sebdb-consensus
//!
//! Pluggable consensus engines for SEBDB (§III-B): a [`kafka`]-style
//! central ordering service (crash fault tolerant, the fast path of
//! Fig. 7), normal-case [`pbft`] with `3f+1` replicas, and a round-based
//! [`tendermint`]-style BFT with serial CheckTx (reproducing the
//! bottleneck Fig. 7 discusses). All engines implement
//! [`traits::Consensus`] and share one admission path and one delivery
//! fan-out ([`engine`]); the two BFT protocols are sans-I/O cores that
//! one seeded event loop steps.

#![warn(missing_docs)]

pub mod engine;
pub mod kafka;
pub mod mempool;
pub mod pbft;
pub mod tendermint;
pub mod traits;

pub use engine::BftEngine;
pub use kafka::KafkaOrderer;
pub use mempool::{AckSender, AdmissionVerifier, Mempool};
pub use pbft::{PbftConfig, PbftEngine, PbftMsg};
pub use tendermint::{TendermintConfig, TendermintEngine};
pub use traits::{BatchConfig, CommitAck, Consensus, ConsensusError, OrderedBlock};
