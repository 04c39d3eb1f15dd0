//! # sebdb
//!
//! SEBDB — a semantics-empowered blockchain database (Zhu et al., ICDE
//! 2019), reproduced in Rust. On-chain transactions are tuples of
//! user-declared relations; a SQL-like language (`CREATE` / `INSERT` /
//! `SELECT` / `TRACE` / `GET BLOCK`) drives everything; blocks are the
//! only copy of the data, located by the store's chain-order manifest
//! (the block-level lookups), indexed by the table-level bitmaps and
//! the layered index; thin clients verify query results through the
//! authenticated layered index (ALI).
//!
//! Quick tour:
//!
//! * [`node::SebdbNode`] — a full node: plug in a consensus engine
//!   (`sebdb-consensus`), an optional off-chain RDBMS
//!   (`sebdb-offchain`), then call [`node::SebdbNode::execute`] with
//!   SQL.
//! * [`ledger::Ledger`] — the chain plus all indexes.
//! * [`executor`] — the three blockchain operators (tracking, on-chain
//!   join, on-off join) under scan / bitmap / layered strategies.
//! * [`thin_client`] — the two-phase authenticated query protocol and
//!   the Byzantine-sampling risk bound (Eq. 4–6).
//! * [`contract`] — SQL-sequence smart contracts; [`access`] —
//!   multi-channel access control.

#![warn(missing_docs)]

pub mod access;
pub mod contract;
pub mod executor;
pub mod ledger;
pub mod node;
pub mod pipeline;
pub mod schema_mgr;
pub mod thin_client;
pub mod views;

pub use access::{AccessController, AccessDenied, Permission};
pub use contract::{Contract, ContractError, ContractRegistry};
pub use executor::{ExecError, Executor, QueryResult, Strategy};
pub use ledger::{Ledger, LedgerError};
pub use node::{ExecOutcome, NodeError, SebdbNode};
pub use pipeline::{
    auto_applier_lanes, auto_pipeline_depth, ApplierHealth, ApplyPipeline, DEFAULT_PIPELINE_DEPTH,
};
pub use schema_mgr::{SchemaManager, SCHEMA_TABLE};
pub use thin_client::{
    byzantine_risk, serve_authenticated_join, serve_authenticated_query, serve_auxiliary_digest,
    verify_and_join, AuthenticatedJoinResponse, AuthenticatedResponse, ClientVerifyError,
    ThinClient,
};
pub use views::{TraceView, ViewEngine, ViewStats};
