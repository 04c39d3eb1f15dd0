//! # sebdb-types
//!
//! Shared data model for SEBDB: attribute [`value::Value`]s, relational
//! [`schema::TableSchema`]s over transaction types, [`tx::Transaction`]s
//! (tuples with system- and application-level attributes), chained
//! [`block::Block`]s, and the canonical binary [`codec`].

#![warn(missing_docs)]

pub mod block;
pub mod codec;
pub mod error;
pub mod schema;
pub mod tx;
pub mod value;

pub use block::{Block, BlockHeader};
pub use codec::{Codec, Decoder, Encoder, RawValue};
pub use error::TypeError;
pub use schema::{Column, ColumnRef, TableSchema};
pub use tx::{BlockId, Timestamp, Transaction, TxId, TxProjection, SCHEMA_TABLE};
pub use value::{DataType, Value};
