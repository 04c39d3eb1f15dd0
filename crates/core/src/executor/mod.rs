//! Query execution (§V).
//!
//! The executor turns resolved [`LogicalPlan`]s into rows. Each
//! read operator comes in the three physical flavors the paper
//! benchmarks — full **scan**, **bitmap**-index, and **layered**-index
//! — selectable via [`Strategy`] (the figures' SU/SG/BU/BG/LU/LG runs
//! force one); [`Strategy::Auto`] applies the cost model of Eqs. 1–3.

pub mod explain;
mod hash;
pub mod join;
pub mod onoff;
pub mod range;
pub mod tracking;

use crate::ledger::{Ledger, LedgerError};
use sebdb_crypto::sig::KeyId;
use sebdb_index::cost::CostParams;
use sebdb_index::{Bitmap, KeyPredicate};
use sebdb_offchain::OffchainConnection;
use sebdb_sql::{BoundBlockSelector, LogicalPlan, SqlError};
use sebdb_storage::TxPtr;
use sebdb_types::{ColumnRef, TableSchema, Transaction, TypeError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A rectangular (or, for tracking, ragged) result set.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column headers. Tracking results list the system columns; app
    /// attributes follow positionally (transaction types may differ
    /// per row).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Empty result with headers.
    pub fn empty(columns: Vec<String>) -> Self {
        QueryResult {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Physical access-path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Cost-based choice (Eqs. 1–3).
    #[default]
    Auto,
    /// Scan every block.
    Scan,
    /// Prune blocks with the table-level bitmap index (the first level
    /// of the `tname` system index; [`Executor::table_blocks`]).
    Bitmap,
    /// Use the layered index (block pruning + per-block trees).
    Layered,
}

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    /// Ledger / storage failure.
    Ledger(LedgerError),
    /// Plan references something the node does not have.
    Unsupported(String),
    /// Type-level failure while evaluating.
    Type(TypeError),
    /// SQL-level failure (late parameter problems etc.).
    Sql(SqlError),
    /// Off-chain engine failure.
    Offchain(TypeError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Ledger(e) => write!(f, "ledger: {e}"),
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExecError::Type(e) => write!(f, "type: {e}"),
            ExecError::Sql(e) => write!(f, "sql: {e}"),
            ExecError::Offchain(e) => write!(f, "offchain: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<LedgerError> for ExecError {
    fn from(e: LedgerError) -> Self {
        ExecError::Ledger(e)
    }
}

impl From<TypeError> for ExecError {
    fn from(e: TypeError) -> Self {
        ExecError::Type(e)
    }
}

impl From<SqlError> for ExecError {
    fn from(e: SqlError) -> Self {
        ExecError::Sql(e)
    }
}

/// The executor: borrows the ledger (and optionally the off-chain
/// connection) for the duration of one query.
pub struct Executor<'a> {
    /// The node's ledger.
    pub ledger: &'a Ledger,
    /// Off-chain connection, if the node has one.
    pub offchain: Option<&'a OffchainConnection>,
    /// Cost model parameters for [`Strategy::Auto`].
    pub cost: CostParams,
}

impl<'a> Executor<'a> {
    /// Creates an executor planning with [`CostParams::default`]: the
    /// same chain gives the same plan whatever the host, the state of
    /// the index-block cache, or the queries that ran before.
    pub fn new(ledger: &'a Ledger, offchain: Option<&'a OffchainConnection>) -> Self {
        Executor {
            ledger,
            offchain,
            cost: CostParams::default(),
        }
    }

    /// Executes a read-only plan. `CREATE`/`INSERT` go through
    /// consensus at the node layer, not here.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        match plan {
            LogicalPlan::CreateTable(_) | LogicalPlan::Insert { .. } => {
                Err(ExecError::Unsupported(
                    "writes must be submitted through the node (consensus path)".into(),
                ))
            }
            LogicalPlan::Query {
                schema,
                projection,
                predicates,
                window,
            } => self.run_query(schema, projection, predicates, *window, strategy),
            LogicalPlan::Trace {
                window,
                operator,
                operation,
            } => self.run_trace(*window, operator.as_ref(), operation.as_deref(), strategy),
            LogicalPlan::OnChainJoin {
                left,
                right,
                left_col,
                right_col,
                window,
            } => self.run_onchain_join(left, right, *left_col, *right_col, *window, strategy),
            LogicalPlan::OnOffJoin {
                on_table,
                on_col,
                off_table,
                off_col,
                off_columns,
                window,
            } => self.run_onoff_join(
                on_table,
                *on_col,
                off_table,
                *off_col,
                off_columns,
                *window,
                strategy,
            ),
            LogicalPlan::GetBlock(sel) => self.run_get_block(sel),
            LogicalPlan::Explain(inner) => self.run_explain(inner),
            LogicalPlan::Post {
                input,
                count,
                limit,
            } => {
                let mut result = self.execute(input, strategy)?;
                if *count {
                    // COUNT(*) aggregates before any LIMIT.
                    return Ok(QueryResult {
                        columns: vec!["count".to_string()],
                        rows: vec![vec![Value::Int(result.len() as i64)]],
                    });
                }
                if let Some(limit) = limit {
                    result.rows.truncate(*limit as usize);
                }
                Ok(result)
            }
        }
    }

    /// The index-registry name of `col` when `schema` has a layered
    /// index on it.
    fn layered_index_name(&self, schema: &TableSchema, col: ColumnRef) -> Option<String> {
        let name = range::column_name(schema, col)?;
        self.ledger
            .with_layered(Some(&schema.name), &name, |_| ())
            .map(|_| name)
    }

    /// Blocks holding a transaction of `table`: §IV-B's table-level
    /// bitmap, which is the first level of the chain's system index on
    /// `tname`. Relation names are stored lower case (`CREATE` folds
    /// them), so the name is looked up lower-cased.
    pub fn table_blocks(&self, table: &str) -> Result<Bitmap, ExecError> {
        let name = Value::str(table.to_ascii_lowercase());
        self.system_blocks("tname", &KeyPredicate::Eq(name))
    }

    /// Blocks holding a transaction sent by `sender`: the first level
    /// of the chain's system index on `sen_id`.
    pub fn sender_blocks(&self, sender: &KeyId) -> Result<Bitmap, ExecError> {
        let id = Value::Bytes(sender.as_bytes().to_vec());
        self.system_blocks("sen_id", &KeyPredicate::Eq(id))
    }

    /// First-level candidates of `pred` in the system index on `column`.
    fn system_blocks(&self, column: &str, pred: &KeyPredicate) -> Result<Bitmap, ExecError> {
        self.ledger
            .with_layered(None, column, |idx| idx.candidate_blocks(pred))
            .ok_or_else(|| ExecError::Unsupported(format!("system {column} index missing")))
    }

    /// Batch-fetches every distinct pointer in `ptrs` once (grouped by
    /// block, distinct blocks across workers) — the second phase of
    /// the layered joins, whose sort-merge phase collects matched
    /// pointers without touching storage.
    fn fetch_distinct(
        &self,
        ptrs: impl Iterator<Item = TxPtr>,
    ) -> Result<HashMap<TxPtr, Arc<Transaction>>, ExecError> {
        let mut distinct: Vec<TxPtr> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for p in ptrs {
            if seen.insert(p) {
                distinct.push(p);
            }
        }
        let txs = self.ledger.read_txs_grouped(&distinct)?;
        Ok(distinct.into_iter().zip(txs).collect())
    }

    /// `GET BLOCK` (Q7): resolve through the store's block-level
    /// lookups below the applied height, return a one-row header
    /// summary. The row comes from the block's chain record and its
    /// manifest key; no tuple is read, except to tell whether a looked-up
    /// tid is the block's.
    fn run_get_block(&self, sel: &BoundBlockSelector) -> Result<QueryResult, ExecError> {
        let (store, height) = (self.ledger.store(), self.ledger.height());
        let bid = match *sel {
            BoundBlockSelector::ById(id) => store.block_by_id(id, height),
            BoundBlockSelector::ByTid(tid) => store.block_by_tid(tid, height),
            BoundBlockSelector::ByTimestamp(ts) => store.block_by_ts(ts, height),
        };
        let columns = vec![
            "height".to_string(),
            "timestamp".to_string(),
            "first_tid".to_string(),
            "tx_count".to_string(),
            "block_hash".to_string(),
        ];
        let Some(bid) = bid else {
            return Ok(QueryResult::empty(columns));
        };
        // The tid lookup names the only block that can hold the tid;
        // one no transaction carries (past the chain's last, say) has
        // no block. Tids need not be contiguous, so only the tuples tell.
        if let BoundBlockSelector::ByTid(tid) = *sel {
            let block = self.ledger.read_block(bid)?;
            if !block.transactions.iter().any(|t| t.tid == tid) {
                return Ok(QueryResult::empty(columns));
            }
        }
        let (header, tx_count) = store.header(bid).map_err(LedgerError::from)?;
        let first_tid = store.first_tid(bid);
        Ok(QueryResult {
            columns,
            rows: vec![vec![
                Value::Int(header.height as i64),
                Value::Timestamp(header.timestamp),
                first_tid.map_or(Value::Null, |t| Value::Int(t as i64)),
                Value::Int(tx_count as i64),
                Value::Str(header.block_hash.to_hex()),
            ]],
        })
    }
}

/// Materializes a transaction as a full row: system columns then
/// application attributes.
pub(crate) fn materialize(tx: &Transaction) -> Vec<Value> {
    let mut row = Vec::with_capacity(5 + tx.values.len());
    row.push(Value::Int(tx.tid as i64));
    row.push(Value::Timestamp(tx.ts));
    row.push(Value::Bytes(tx.sig.clone()));
    row.push(Value::Bytes(tx.sender.as_bytes().to_vec()));
    row.push(Value::Str(tx.tname.clone()));
    row.extend(tx.values.iter().cloned());
    row
}

/// Applies a projection by column name over a schema's full row.
pub(crate) fn project(
    schema: &TableSchema,
    projection: &[String],
    row: Vec<Value>,
) -> Result<Vec<Value>, ExecError> {
    if projection.is_empty() {
        return Ok(row);
    }
    let names = schema.full_column_names();
    projection
        .iter()
        .map(|p| {
            names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(p))
                .map(|i| row[i].clone())
                .ok_or_else(|| ExecError::Type(TypeError::NoSuchColumn { column: p.clone() }))
        })
        .collect()
}

/// Header for a full (unprojected) row of `schema`.
pub(crate) fn full_header(schema: &TableSchema) -> Vec<String> {
    schema.full_column_names()
}
