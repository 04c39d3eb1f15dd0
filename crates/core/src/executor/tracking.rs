//! The track-trace operation (§V-A, Algorithm 1).
//!
//! Tracks from two dimensions — *operator* (who sent, `SenID`) and
//! *operation* (which transaction type, `Tname`) — within a time
//! window, using the system-wide layered indexes created on those
//! columns for all tables. The bitmap and scan strategies match the
//! paper's comparison runs (Fig. 8–10).

use super::range::in_window;
use super::{ExecError, Executor, QueryResult, Strategy};
use sebdb_crypto::sig::KeyId;
use sebdb_index::{Bitmap, KeyPredicate};
use sebdb_sql::TraceSpec;
use sebdb_storage::TxPtr;
use sebdb_types::{BlockId, Timestamp, Value};

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

impl Executor<'_> {
    pub(super) fn run_trace(
        &self,
        window: Option<(Timestamp, Timestamp)>,
        operator: Option<&Value>,
        operation: Option<&str>,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        // Operator names are resolved to sender ids in exactly one
        // place — the node layer's registry. Here anything but raw id
        // bytes (names included) is one uniform error.
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
        let strategy = match strategy {
            // Tracking is selective by construction; the layered path
            // dominates unless explicitly overridden (§VII-C).
            Strategy::Auto => Strategy::Layered,
            s => s,
        };
        let mut out = QueryResult::empty(tracking_header());

        match strategy {
            Strategy::Layered => {
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
                let mut mask = self.ledger.window_mask_at(window, height);
                for (column, pred) in &dims {
                    mask = mask.and(&self.system_blocks(column, pred)?);
                }
                // Lines 6–13: intersect the second-level pointer sets
                // of the two indexes under the mask (each in chain
                // order); then batch-read all surviving pointers at
                // once (blocks fetched across workers) and materialize
                // in pointer order.
                let mut ptrs: Option<Vec<TxPtr>> = None;
                for (column, pred) in &dims {
                    let mut found = self
                        .ledger
                        .with_layered(None, column, |idx| idx.search(pred, &mask))
                        .unwrap_or_default();
                    if let Some(other) = ptrs {
                        found.retain(|p| other.binary_search(p).is_ok());
                    }
                    ptrs = Some(found);
                }
                let ptrs = ptrs.unwrap_or_default();
                let txs = self.ledger.read_txs_grouped(&ptrs)?;
                let rows = sebdb_parallel::par_map(&txs, sebdb_parallel::FLOOR_TUPLE, |tx| {
                    (in_window(tx.ts, window) && !is_internal(&tx.tname))
                        .then(|| super::materialize(tx))
                });
                out.rows.extend(rows.into_iter().flatten());
            }
            Strategy::Bitmap => {
                // Table/sender bitmaps prune blocks; blocks are then
                // scanned.
                let mut mask = self.ledger.window_mask_at(window, height);
                if let Some(op) = &operator {
                    mask = mask.and(&self.sender_blocks(op)?);
                }
                if let Some(tname) = operation {
                    mask = mask.and(&self.table_blocks(tname)?);
                }
                self.scan_blocks_for_trace(&mask, &operator, operation, window, &mut out)?;
            }
            Strategy::Scan => {
                let mask = self.ledger.window_mask_at(window, height);
                self.scan_blocks_for_trace(&mask, &operator, operation, window, &mut out)?;
            }
            Strategy::Auto => unreachable!(),
        }
        Ok(out)
    }

    fn scan_blocks_for_trace(
        &self,
        mask: &Bitmap,
        operator: &Option<KeyId>,
        operation: Option<&str>,
        window: Option<(Timestamp, Timestamp)>,
        out: &mut QueryResult,
    ) -> Result<(), ExecError> {
        let chunks = self.scan_blocks(mask, |tx| {
            if let Some(op) = operator {
                if tx.sender != *op {
                    return Ok(None);
                }
            }
            if let Some(tname) = operation {
                if !tx.tname.eq_ignore_ascii_case(tname) {
                    return Ok(None);
                }
            }
            Ok((in_window(tx.ts, window) && !is_internal(&tx.tname))
                .then(|| super::materialize(tx)))
        });
        for chunk in chunks {
            out.rows.extend(chunk?);
        }
        Ok(())
    }
}
