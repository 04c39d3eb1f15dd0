//! The track-trace operation (§V-A, Algorithm 1).
//!
//! Tracks from two dimensions — *operator* (who sent, `SenID`) and
//! *operation* (which transaction type, `Tname`) — within a time
//! window, using the system-wide layered indexes created on those
//! columns for all tables. The bitmap and scan strategies match the
//! paper's comparison runs (Fig. 8–10). No arm reads or decodes a
//! tuple it does not return, save the co-located relations' tuples a
//! partition holds beside the operation's (DESIGN §4).

use super::hash::decode_row;
use super::range::in_window;
use super::{ExecError, Executor, QueryResult, Strategy};
use crate::ledger::LedgerError;
use sebdb_crypto::sig::KeyId;
use sebdb_index::{Bitmap, KeyPredicate};
use sebdb_sql::TraceSpec;
use sebdb_storage::RawExtent;
use sebdb_types::{BlockId, ColumnRef, Timestamp, Value};

/// Internal transaction types (schema sync) are invisible to tracking.
fn is_internal(tname: &str) -> bool {
    tname.starts_with("__")
}

/// Header of tracking results: system columns; application attributes
/// follow positionally (rows may be ragged across transaction types).
pub fn tracking_header() -> Vec<String> {
    ["tid", "ts", "sig", "sen_id", "tname"]
        .iter()
        .map(|s| (*s).to_string())
        .collect()
}

/// The sender id a trace's operator operand names, once the trace is
/// known to have a dimension. Operator names are resolved to sender ids
/// in exactly one place — the node layer's registry — so here anything
/// but raw id bytes (names included) is one uniform error.
pub(super) fn trace_operator(
    operator: Option<&Value>,
    operation: Option<&str>,
) -> Result<Option<KeyId>, ExecError> {
    let operator = match operator {
        Some(Value::Bytes(b)) if b.len() == 8 => {
            let mut id = [0u8; 8];
            id.copy_from_slice(b);
            Some(KeyId(id))
        }
        Some(other) => {
            return Err(ExecError::Unsupported(format!(
                "operator must be 8 sender-id bytes, got {other}"
            )))
        }
        None => None,
    };
    if operator.is_none() && operation.is_none() {
        return Err(ExecError::Unsupported(
            "tracking needs at least one dimension".into(),
        ));
    }
    Ok(operator)
}

/// The relations whose partitions a Scan or Bitmap trace reads, one
/// per partition: the operation's, or with the operator alone one
/// relation of every partition that holds one not internal.
pub(super) fn scanned_relations(
    store: &sebdb_storage::BlockStore,
    operation: Option<&str>,
) -> Vec<String> {
    match operation {
        Some(tname) => vec![tname.to_string()],
        None => (0..store.partitions())
            .filter_map(|p| store.relations_in(p).into_iter().find(|r| !is_internal(r)))
            .collect(),
    }
}

impl Executor<'_> {
    pub(super) fn run_trace(
        &self,
        window: Option<(Timestamp, Timestamp)>,
        operator: Option<&Value>,
        operation: Option<&str>,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        let operator = trace_operator(operator, operation)?;
        // A cost-based (`Auto`) trace whose predicate matches a
        // registered materialized view is served from the view — zero
        // index probes, O(result) — before any strategy resolves.
        // Forced strategies bypass the views so the paper's figure
        // runs keep measuring their physical paths.
        if strategy == Strategy::Auto {
            let spec = TraceSpec::new(window, operator.map(|k| k.0), operation);
            if let Some(result) = self.ledger.serve_trace_view(&spec)? {
                return Ok(result);
            }
        }
        self.run_trace_bounded(window, &operator, operation, strategy, self.ledger.height())
    }

    /// The physical tracking walk over blocks `0..height`, past view
    /// routing: Algorithm 1 under the chosen strategy. View backfills
    /// call this directly with a captured height; normal execution
    /// passes the current applied height.
    pub(crate) fn run_trace_bounded(
        &self,
        window: Option<(Timestamp, Timestamp)>,
        operator: &Option<KeyId>,
        operation: Option<&str>,
        strategy: Strategy,
        height: BlockId,
    ) -> Result<QueryResult, ExecError> {
        let operator = *operator;
        let mut out = QueryResult::empty(tracking_header());
        let mut mask = self.ledger.window_mask_at(window, height);
        match strategy {
            // Tracking is selective by construction; the layered path
            // dominates unless explicitly overridden (§VII-C).
            Strategy::Layered | Strategy::Auto => {
                // Algorithm 1, lines 1–4: window mask ∧ first-level
                // bitmaps of the SenID / Tname indexes.
                let dims: Vec<(&str, KeyPredicate)> = [
                    operator.map(|op| ("sen_id", Value::Bytes(op.as_bytes().to_vec()))),
                    operation.map(|tname| ("tname", Value::str(tname))),
                ]
                .into_iter()
                .flatten()
                .map(|(column, v)| (column, KeyPredicate::Eq(v)))
                .collect();
                for (column, pred) in &dims {
                    mask = mask.and(&self.system_blocks(column, pred)?);
                }
                // Lines 6–13, one second level: the first dimension's
                // pointers under the mask, in chain order. With both
                // dimensions the operation is tested on the resident
                // tuple table before any read — a tuple outside the
                // operation's partition is not its relation's. The
                // surviving pointers' runs then go through the Scan
                // arm's keep test, which co-located relations need
                // (DESIGN §4), and back to chain order: an operator
                // alone crosses partitions.
                let Some((column, pred)) = dims.first() else {
                    return Err(ExecError::Unsupported(
                        "tracking needs at least one dimension".into(),
                    ));
                };
                let mut ptrs = self
                    .ledger
                    .with_layered(None, column, |idx| idx.search(pred, &mask))
                    .unwrap_or_default();
                if let (Some(_), Some(tname)) = (operator, operation) {
                    self.ledger.store().retain_in_partition(&mut ptrs, tname);
                }
                let runs = self.ledger.fetch_raw(&ptrs)?;
                let sender = operator.map(|op| Value::Bytes(op.as_bytes().to_vec()));
                let rows = keep_traced(&runs, sender.as_ref(), operation, window)?;
                out.rows = in_chain_order(rows);
            }
            Strategy::Bitmap | Strategy::Scan => {
                // Bitmap: the sender / table bitmaps prune blocks
                // first; both then scan what is left.
                if strategy == Strategy::Bitmap {
                    if let Some(op) = &operator {
                        mask = mask.and(&self.sender_blocks(op)?);
                    }
                    if let Some(tname) = operation {
                        mask = mask.and(&self.table_blocks(tname)?);
                    }
                }
                out.rows = self.scan_trace(&mask, operator, operation, window)?;
            }
        }
        Ok(out)
    }

    /// The Scan and Bitmap arms over the projected relation scan
    /// (DESIGN §10.4): the partitions of [`scanned_relations`] in
    /// `blocks`, each tuple tested on its projected name and time and
    /// its still-encoded sender, only the rows returned decoded; chain
    /// order across partitions.
    fn scan_trace(
        &self,
        blocks: &Bitmap,
        operator: Option<KeyId>,
        operation: Option<&str>,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        let bids: Vec<u64> = blocks.iter_ones().map(|b| b as u64).collect();
        let sender = operator.map(|op| Value::Bytes(op.as_bytes().to_vec()));
        let mut rows = Vec::new();
        for table in scanned_relations(self.ledger.store(), operation) {
            rows.extend(self.map_relation(&bids, &table, |run| {
                keep_traced(&run, sender.as_ref(), operation, window)
            })?);
        }
        Ok(in_chain_order(rows))
    }
}

/// TRACE's keep test over runs of extents: the tuples not internal,
/// inside `window`, of `operation` and sent by `sender` where given,
/// each tested on its projected name and time and its still-encoded
/// sender; only those decoded, each with its block and position.
fn keep_traced(
    runs: &[RawExtent],
    sender: Option<&Value>,
    operation: Option<&str>,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<Vec<(BlockId, u32, Vec<Value>)>, ExecError> {
    let mut rows = Vec::new();
    for tuple in runs.iter().flat_map(RawExtent::tuples) {
        let head = tuple.project().map_err(LedgerError::from)?;
        if is_internal(head.tname)
            || !in_window(head.ts, window)
            || operation.is_some_and(|t| !head.tname.eq_ignore_ascii_case(t))
        {
            continue;
        }
        if let Some(sender) = sender {
            let raw = tuple.column(&head, ColumnRef::SenId);
            let raw = raw.map_err(LedgerError::from)?;
            if raw.map(|v| v.value()).transpose()?.as_ref() != Some(sender) {
                continue;
            }
        }
        rows.push((tuple.bid, tuple.canon, decode_row(&tuple)?));
    }
    Ok(rows)
}

/// Rows kept from several partitions, back in chain order.
fn in_chain_order(mut rows: Vec<(BlockId, u32, Vec<Value>)>) -> Vec<Vec<Value>> {
    rows.sort_unstable_by_key(|&(bid, canon, _)| (bid, canon));
    rows.into_iter().map(|(_, _, row)| row).collect()
}
