//! # sebdb-offchain
//!
//! A mini-RDBMS standing in for the local MySQL instance each SEBDB
//! node uses for private off-chain data (§IV-A): predicate selects,
//! per-column B-tree indexes, `min`/`max`, `DISTINCT`, sorted retrieval,
//! and the usual insert/update/delete. The on-off-chain join
//! (Algorithm 3) reads a table once, in place, under its read lock
//! ([`OffchainConnection::read_rows`]), and takes its sorted order,
//! range and distinct keys from that one read. See DESIGN.md §4 for
//! the substitution note.

#![warn(missing_docs)]

pub mod engine;
pub mod predicate;
pub mod table;

pub use engine::{OffchainConnection, OffchainDb};
pub use predicate::{CmpOp, Predicate};
pub use table::OffTable;
