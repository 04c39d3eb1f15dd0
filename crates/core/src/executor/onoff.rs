//! On-chain ⋈ off-chain join (§V-C, Algorithm 3).
//!
//! The off-chain side comes from the local RDBMS through the
//! ODBC/JDBC-shaped connection, pre-sorted on the join attribute; the
//! on-chain side is pruned by the layered index's first level against
//! the off-chain `(min, max)` range (continuous) or the OR of the
//! distinct-value bitmaps (discrete), then each surviving block is
//! sort-merge joined against the sorted off-chain rows using the
//! second-level leaves.

use super::range::in_window;
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_index::Bitmap;
use sebdb_types::{Column, ColumnRef, TableSchema, Timestamp, Value};

fn onoff_header(on: &TableSchema, off_table: &str, off_columns: &[Column]) -> Vec<String> {
    on.full_column_names()
        .iter()
        .map(|c| format!("{}.{c}", on.name))
        .chain(
            off_columns
                .iter()
                .map(|c| format!("{off_table}.{}", c.name)),
        )
        .collect()
}

impl Executor<'_> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_onoff_join(
        &self,
        on_table: &TableSchema,
        on_col: ColumnRef,
        off_table: &str,
        off_col: usize,
        off_columns: &[Column],
        window: Option<(Timestamp, Timestamp)>,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        let conn = self
            .offchain
            .ok_or_else(|| ExecError::Unsupported("this node has no off-chain database".into()))?;
        let off_col_name = &off_columns[off_col].name;
        // "The query results from off-chain data are sorted on join
        // attribute" (§V-C).
        let (_, off_rows) = conn
            .sorted_by(off_table, off_col_name)
            .map_err(ExecError::Offchain)?;
        let mut out = QueryResult::empty(onoff_header(on_table, off_table, off_columns));
        if off_rows.is_empty() {
            return Ok(out);
        }

        let index_name = match on_col {
            ColumnRef::App(i) => on_table.columns.get(i).map(|c| c.name.to_ascii_lowercase()),
            ColumnRef::SenId => Some("sen_id".into()),
            ColumnRef::Tname => Some("tname".into()),
            _ => None,
        };
        let has_index = index_name
            .as_deref()
            .and_then(|n| self.ledger.with_layered(Some(&on_table.name), n, |_| ()))
            .is_some();

        let strategy = match strategy {
            Strategy::Auto => {
                if has_index {
                    Strategy::Layered
                } else {
                    Strategy::Bitmap
                }
            }
            s => s,
        };

        match strategy {
            Strategy::Layered => {
                let index_name = index_name.filter(|_| has_index).ok_or_else(|| {
                    ExecError::Unsupported(format!(
                        "no layered index on {}'s join column",
                        on_table.name
                    ))
                })?;
                let mask = self.ledger.window_mask(window);
                // Lines 3–7: restrict candidate blocks by the off-chain
                // value range / distinct values.
                let continuous = on_col.data_type(on_table).is_continuous();
                let blocks: Bitmap = self
                    .ledger
                    .with_layered(Some(&on_table.name), &index_name, |idx| {
                        if continuous {
                            // Rows are sorted on the join attribute, so
                            // first/last bound the value range; empty
                            // bounds fall through to the full scan arm.
                            let s_min = off_rows.first().and_then(|r| r[off_col].numeric_rank());
                            let s_max = off_rows.last().and_then(|r| r[off_col].numeric_rank());
                            match (s_min, s_max) {
                                (Some(lo), Some(hi)) => {
                                    let mut b = Bitmap::new();
                                    for bid in idx.all_blocks().iter_ones() {
                                        if idx.block_intersects_range(bid as u64, lo, hi) {
                                            b.set(bid);
                                        }
                                    }
                                    b
                                }
                                _ => idx.all_blocks(),
                            }
                        } else {
                            // Discrete: OR of the unique keys' bitmaps.
                            let distinct =
                                conn.distinct(off_table, off_col_name).unwrap_or_default();
                            idx.blocks_for_values(distinct.iter())
                        }
                    })
                    .ok_or_else(|| {
                        ExecError::Unsupported(format!("index on {} vanished", on_table.name))
                    })?
                    .and(&mask);
                // Lines 8–13: per-block sort-merge against the sorted
                // off-chain rows. Phase one walks the sorted runs and
                // collects matched (pointer, off-row range) pairs
                // without touching storage.
                let mut matched: Vec<(sebdb_storage::TxPtr, std::ops::Range<usize>)> = Vec::new();
                for bid in blocks.iter_ones() {
                    let entries = self
                        .ledger
                        .with_layered(Some(&on_table.name), &index_name, |idx| {
                            idx.block_sorted_entries(bid as u64)
                        })
                        .ok_or_else(|| {
                            ExecError::Unsupported(format!("index on {} vanished", on_table.name))
                        })?;
                    merge_block_with_off(&entries, &off_rows, off_col, &mut matched);
                }
                // Phase two batch-fetches every distinct pointer
                // (distinct blocks decoded across workers) and
                // materializes matched rows in merge order.
                let mut ptr_slot: std::collections::HashMap<sebdb_storage::TxPtr, usize> =
                    std::collections::HashMap::new();
                let mut ptrs: Vec<sebdb_storage::TxPtr> = Vec::new();
                for (p, _) in &matched {
                    ptr_slot.entry(*p).or_insert_with(|| {
                        ptrs.push(*p);
                        ptrs.len() - 1
                    });
                }
                let txs = self.ledger.read_txs_grouped(&ptrs)?;
                let row_batches = sebdb_parallel::par_map(
                    &matched,
                    sebdb_parallel::FLOOR_TUPLE,
                    |(p, off_range)| {
                        let tx = &txs[ptr_slot[p]];
                        if !in_window(tx.ts, window) {
                            return Vec::new();
                        }
                        off_rows[off_range.clone()]
                            .iter()
                            .map(|off| {
                                let mut row = materialize(tx);
                                row.extend(off.clone());
                                row
                            })
                            .collect::<Vec<_>>()
                    },
                );
                out.rows.extend(row_batches.into_iter().flatten());
            }
            Strategy::Bitmap | Strategy::Scan => {
                let mask = self.ledger.window_mask(window);
                let blocks = if strategy == Strategy::Bitmap {
                    self.ledger
                        .with_table_index(|ti| ti.blocks_for_table(&on_table.name))
                        .and(&mask)
                } else {
                    mask
                };
                // Hash the off-chain rows by join key, then probe with
                // on-chain tuples block-by-block across workers; each
                // block's matches concatenate in block order, matching
                // the sequential plan.
                let mut build: std::collections::HashMap<Value, Vec<&Vec<Value>>> =
                    std::collections::HashMap::new();
                for row in &off_rows {
                    build.entry(row[off_col].clone()).or_default().push(row);
                }
                let bids: Vec<u64> = blocks.iter_ones().map(|b| b as u64).collect();
                let per_block = sebdb_parallel::par_map(
                    &bids,
                    sebdb_parallel::FLOOR_BLOCK,
                    |&bid| -> Result<Vec<Vec<Value>>, ExecError> {
                        let block = self.ledger.read_block(bid)?;
                        let mut rows = Vec::new();
                        for tx in &block.transactions {
                            if !tx.tname.eq_ignore_ascii_case(&on_table.name)
                                || !in_window(tx.ts, window)
                            {
                                continue;
                            }
                            let Some(v) = tx.get(on_col) else { continue };
                            if let Some(matches) = build.get(&v) {
                                for off in matches {
                                    let mut row = materialize(tx);
                                    row.extend((*off).clone());
                                    rows.push(row);
                                }
                            }
                        }
                        Ok(rows)
                    },
                );
                for rows in per_block {
                    out.rows.extend(rows?);
                }
            }
            Strategy::Auto => unreachable!(),
        }
        Ok(out)
    }
}

/// Sort-merge one block's sorted index entries against the sorted
/// off-chain rows, collecting each matched pointer with the range of
/// off-chain rows it joins — no storage reads; the caller batch-fetches
/// all matched transactions grouped by block afterwards.
fn merge_block_with_off(
    entries: &[(Value, sebdb_storage::TxPtr)],
    off_rows: &[Vec<Value>],
    off_col: usize,
    matched: &mut Vec<(sebdb_storage::TxPtr, std::ops::Range<usize>)>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < entries.len() && j < off_rows.len() {
        match entries[i].0.cmp(&off_rows[j][off_col]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let v = &entries[i].0;
                let i_end = entries[i..].iter().take_while(|(x, _)| x == v).count() + i;
                let j_end = off_rows[j..]
                    .iter()
                    .take_while(|r| &r[off_col] == v)
                    .count()
                    + j;
                for (_, ptr) in &entries[i..i_end] {
                    matched.push((*ptr, j..j_end));
                }
                i = i_end;
                j = j_end;
            }
        }
    }
}
