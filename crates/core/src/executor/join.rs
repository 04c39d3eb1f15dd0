//! On-chain equi-join (§V-B, Algorithm 2).
//!
//! Three physical plans, matching the paper's comparison (Fig. 13/14):
//!
//! * **scan** — one-pass hash join over every block;
//! * **bitmap** — the same hash join but only over blocks the
//!   table-level index marks as containing either relation;
//! * **layered** — Algorithm 2 proper: first-level bitmaps select the
//!   candidate blocks per relation, histogram-bucket intersection
//!   prunes block *pairs*, and each surviving pair is joined by
//!   sort-merge over the per-block second-level trees (whose leaves
//!   are already in key order).

use super::range::in_window;
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_types::{ColumnRef, TableSchema, Timestamp, Transaction, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Sort-merge over two sorted `(value, ptr)` runs, appending every
/// matched pointer pair (duplicate-run cross products included) in the
/// order the sequential join would emit them.
fn sort_merge_pairs(
    l: &[(Value, sebdb_storage::TxPtr)],
    r: &[(Value, sebdb_storage::TxPtr)],
    matched: &mut Vec<(sebdb_storage::TxPtr, sebdb_storage::TxPtr)>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        match l[i].0.cmp(&r[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let v = &l[i].0;
                let li_end = l[i..].iter().take_while(|(x, _)| x == v).count() + i;
                let rj_end = r[j..].iter().take_while(|(x, _)| x == v).count() + j;
                for (_, lp) in &l[i..li_end] {
                    for (_, rp) in &r[j..rj_end] {
                        matched.push((*lp, *rp));
                    }
                }
                i = li_end;
                j = rj_end;
            }
        }
    }
}

/// Header: left's full columns prefixed by table name, then right's.
fn join_header(left: &TableSchema, right: &TableSchema) -> Vec<String> {
    left.full_column_names()
        .iter()
        .map(|c| format!("{}.{c}", left.name))
        .chain(
            right
                .full_column_names()
                .iter()
                .map(|c| format!("{}.{c}", right.name)),
        )
        .collect()
}

impl Executor<'_> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_onchain_join(
        &self,
        left: &TableSchema,
        right: &TableSchema,
        left_col: ColumnRef,
        right_col: ColumnRef,
        window: Option<(Timestamp, Timestamp)>,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        let strategy = match strategy {
            Strategy::Auto => {
                // Prefer the layered plan when both join columns are
                // indexed; otherwise bitmap.
                let both_indexed = self.join_index_name(left, left_col).is_some()
                    && self.join_index_name(right, right_col).is_some();
                if both_indexed {
                    Strategy::Layered
                } else {
                    Strategy::Bitmap
                }
            }
            s => s,
        };
        let mut out = QueryResult::empty(join_header(left, right));
        match strategy {
            Strategy::Scan | Strategy::Bitmap => {
                self.hash_join(left, right, left_col, right_col, window, strategy, &mut out)?
            }
            Strategy::Layered => {
                self.layered_join(left, right, left_col, right_col, window, &mut out)?
            }
            Strategy::Auto => unreachable!(),
        }
        Ok(out)
    }

    /// One-pass hash join (§V-B): build on the right relation, probe
    /// with the left.
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &self,
        left: &TableSchema,
        right: &TableSchema,
        left_col: ColumnRef,
        right_col: ColumnRef,
        window: Option<(Timestamp, Timestamp)>,
        strategy: Strategy,
        out: &mut QueryResult,
    ) -> Result<(), ExecError> {
        let mask = self.ledger.window_mask(window);
        let blocks = if strategy == Strategy::Bitmap {
            // Only blocks holding either relation are read.
            let l = self
                .ledger
                .with_table_index(|ti| ti.blocks_for_table(&left.name));
            let r = self
                .ledger
                .with_table_index(|ti| ti.blocks_for_table(&right.name));
            l.or(&r).and(&mask)
        } else {
            mask
        };
        // Build phase: each block is read and partitioned into
        // build/probe tuples independently across workers; partials
        // merge in block order, so the build table's per-key run order
        // and the probe order match the sequential plan.
        let bids: Vec<u64> = blocks.iter_ones().map(|b| b as u64).collect();
        type Partial = (Vec<(Value, Transaction)>, Vec<Transaction>);
        let partials = sebdb_parallel::par_map(
            &bids,
            sebdb_parallel::FLOOR_BLOCK,
            |&bid| -> Result<Partial, ExecError> {
                let block = self.ledger.read_block(bid)?;
                let mut build_part = Vec::new();
                let mut probe_part = Vec::new();
                for tx in &block.transactions {
                    if !in_window(tx.ts, window) {
                        continue;
                    }
                    if tx.tname.eq_ignore_ascii_case(&right.name) {
                        if let Some(v) = tx.get(right_col) {
                            if v != Value::Null {
                                build_part.push((v, tx.clone()));
                            }
                        }
                    }
                    if tx.tname.eq_ignore_ascii_case(&left.name) {
                        probe_part.push(tx.clone());
                    }
                }
                Ok((build_part, probe_part))
            },
        );
        let mut build: HashMap<Value, Vec<Transaction>> = HashMap::new();
        let mut probe_side: Vec<Transaction> = Vec::new();
        for partial in partials {
            let (build_part, probe_part) = partial?;
            for (v, tx) in build_part {
                build.entry(v).or_default().push(tx);
            }
            probe_side.extend(probe_part);
        }
        // Probe phase: pure lookups, parallel over probe tuples; each
        // produces its match rows which concatenate in probe order.
        let row_batches =
            sebdb_parallel::par_map(&probe_side, sebdb_parallel::FLOOR_TUPLE, |ltx| {
                let mut rows = Vec::new();
                let Some(v) = ltx.get(left_col) else {
                    return rows;
                };
                if v == Value::Null {
                    return rows;
                }
                if let Some(matches) = build.get(&v) {
                    for rtx in matches {
                        let mut row = materialize(ltx);
                        row.extend(materialize(rtx));
                        rows.push(row);
                    }
                }
                rows
            });
        out.rows.extend(row_batches.into_iter().flatten());
        Ok(())
    }

    /// Algorithm 2: candidate blocks per relation from the first-level
    /// bitmaps, block-pair pruning via `intersect`, per-pair sort-merge
    /// over the second-level leaves.
    fn layered_join(
        &self,
        left: &TableSchema,
        right: &TableSchema,
        left_col: ColumnRef,
        right_col: ColumnRef,
        window: Option<(Timestamp, Timestamp)>,
        out: &mut QueryResult,
    ) -> Result<(), ExecError> {
        let l_col = self.join_index_name(left, left_col).ok_or_else(|| {
            ExecError::Unsupported(format!("no layered index on {}'s join column", left.name))
        })?;
        let r_col = self.join_index_name(right, right_col).ok_or_else(|| {
            ExecError::Unsupported(format!("no layered index on {}'s join column", right.name))
        })?;
        let mask = self.ledger.window_mask(window);
        // Lines 2–7 + the `intersect` pruning of lines 8–10, computed as
        // candidate block *pairs* (value-driven for discrete attributes,
        // bucket-envelope checks for continuous ones).
        let pairs: Vec<(u64, u64)> = self
            .ledger
            .with_layered(Some(&left.name), &l_col, |l_idx| {
                self.ledger
                    .with_layered(Some(&right.name), &r_col, |r_idx| {
                        l_idx.join_pairs(&mask, r_idx, &mask)
                    })
                    .unwrap_or_default()
            })
            .unwrap_or_default();

        // Lines 11–12: per-pair sort-merge over the second-level leaves.
        // Phase one walks the sorted runs and collects matched pointer
        // pairs without touching storage (entries of a left block are
        // fetched once and reused across its pairs — pairs arrive
        // sorted by left block).
        let mut matched: Vec<(sebdb_storage::TxPtr, sebdb_storage::TxPtr)> = Vec::new();
        let mut cached_left: Option<(u64, Vec<(Value, sebdb_storage::TxPtr)>)> = None;
        for (b_l, b_r) in pairs {
            let l_entries: &[(Value, sebdb_storage::TxPtr)] = match &mut cached_left {
                Some((b, entries)) if *b == b_l => entries,
                cache => {
                    let entries = self
                        .ledger
                        .with_layered(Some(&left.name), &l_col, |idx| {
                            idx.block_sorted_entries(b_l)
                        })
                        .ok_or_else(|| {
                            ExecError::Unsupported(format!("index on {} vanished", left.name))
                        })?;
                    &cache.insert((b_l, entries)).1
                }
            };
            if l_entries.is_empty() {
                continue;
            }
            let r_entries = self
                .ledger
                .with_layered(Some(&right.name), &r_col, |idx| {
                    idx.block_sorted_entries(b_r)
                })
                .ok_or_else(|| {
                    ExecError::Unsupported(format!("index on {} vanished", right.name))
                })?;
            sort_merge_pairs(l_entries, r_entries.as_slice(), &mut matched);
        }
        // Phase two batch-fetches every distinct pointer (distinct
        // blocks decoded across workers) and materializes the matched
        // rows in pair order.
        let mut ptr_slot: HashMap<sebdb_storage::TxPtr, usize> = HashMap::new();
        let mut ptrs: Vec<sebdb_storage::TxPtr> = Vec::new();
        for &(lp, rp) in &matched {
            for p in [lp, rp] {
                ptr_slot.entry(p).or_insert_with(|| {
                    ptrs.push(p);
                    ptrs.len() - 1
                });
            }
        }
        let txs = self.ledger.read_txs_grouped(&ptrs)?;
        let rows = sebdb_parallel::par_map(&matched, sebdb_parallel::FLOOR_TUPLE, |&(lp, rp)| {
            let ltx: &Arc<Transaction> = &txs[ptr_slot[&lp]];
            let rtx: &Arc<Transaction> = &txs[ptr_slot[&rp]];
            if !in_window(ltx.ts, window) || !in_window(rtx.ts, window) {
                return None;
            }
            let mut row = materialize(ltx);
            row.extend(materialize(rtx));
            Some(row)
        });
        out.rows.extend(rows.into_iter().flatten());
        Ok(())
    }

    /// The index-registry column name for a join column, when a layered
    /// index exists on it.
    fn join_index_name(&self, schema: &TableSchema, col: ColumnRef) -> Option<String> {
        let name = match col {
            ColumnRef::App(i) => schema.columns.get(i)?.name.to_ascii_lowercase(),
            ColumnRef::SenId => "sen_id".to_string(),
            ColumnRef::Tname => "tname".to_string(),
            ColumnRef::Tid => "tid".to_string(),
            ColumnRef::Ts => "ts".to_string(),
            ColumnRef::Sig => return None,
        };
        self.ledger
            .with_layered(Some(&schema.name), &name, |_| ())
            .map(|_| name)
    }
}
