//! On-chain ⋈ off-chain join (§V-C, Algorithm 3).
//!
//! The off-chain side comes from the local RDBMS through the
//! ODBC/JDBC-shaped connection, pre-sorted on the join attribute; the
//! on-chain side is pruned by the layered index's first level against
//! the off-chain `(min, max)` range (continuous) or the OR of the
//! distinct-value bitmaps (discrete), then the surviving blocks are
//! sort-merge joined against the sorted off-chain rows using their
//! second-level leaves.

use super::hash::{assemble, probe_extents, KeyTable, Keyed};
use super::range::in_window;
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_index::Bitmap;
use sebdb_types::{Column, ColumnRef, Decoder, Encoder, TableSchema, Timestamp, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

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
        match self.choose_join(&[(on_table, on_col)], strategy).arm {
            Strategy::Layered => {
                let index_name = self.layered_index_name(on_table, on_col).ok_or_else(|| {
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
                // Lines 8–13: sort-merge against the sorted off-chain
                // rows. Phase one walks the surviving blocks' sorted
                // entries and collects matched (pointer, off-row range)
                // pairs without touching storage.
                let entries = self
                    .ledger
                    .with_layered(Some(&on_table.name), &index_name, |idx| {
                        idx.sorted_entries(&blocks)
                    })
                    .ok_or_else(|| {
                        ExecError::Unsupported(format!("index on {} vanished", on_table.name))
                    })?;
                let mut matched: Vec<(sebdb_storage::TxPtr, std::ops::Range<usize>)> = Vec::new();
                merge_with_off(&entries, &off_rows, off_col, &mut matched);
                // Phase two fetches every distinct pointer once, in
                // pointer runs, and materializes matched rows in merge
                // order.
                let txs = self.fetch_distinct(matched.iter().map(|(p, _)| *p))?;
                for (p, off_range) in &matched {
                    let tx = &txs[p];
                    if !in_window(tx.ts, window) {
                        continue;
                    }
                    out.rows
                        .extend(off_rows[off_range.clone()].iter().map(|off| {
                            let mut row = materialize(tx);
                            row.extend(off.clone());
                            row
                        }));
                }
            }
            arm => {
                let mask = self.ledger.window_mask(window);
                let bids: Vec<u64> = self
                    .hash_arm_blocks(&on_table.name, &mask, arm)?
                    .iter_ones()
                    .map(|b| b as u64)
                    .collect();
                // Hash the off-chain rows by join key, then stream the
                // on-chain partition through the probe; only matched
                // tuples are decoded.
                let mut arena = Vec::new();
                let build = off_chain_table(&off_rows, off_col, &mut arena)?;
                out.rows = self.map_relation(&bids, &on_table.name, |run| {
                    let probed = probe_extents(&run, &on_table.name, on_col, window, &build)?;
                    assemble(probed, &build, append_off_row)
                })?;
            }
        }
        Ok(out)
    }
}

/// The off-chain build side: entry `i` is row `i`, keyed by its value
/// at `col`. The keys are encoded once, back to back, into `arena` — so
/// on-chain keys compare with them as stored — and borrowed from there.
pub(super) fn off_chain_table<'a>(
    rows: &'a [Vec<Value>],
    col: usize,
    arena: &'a mut Vec<u8>,
) -> Result<KeyTable<'a, &'a Vec<Value>>, ExecError> {
    let mut enc = Encoder::new();
    rows.iter().for_each(|row| enc.put_value(&row[col]));
    *arena = enc.finish();
    let (hasher, mut keys) = (RandomState::new(), Decoder::new(arena));
    let entries = rows
        .iter()
        .map(|row| {
            let key = keys.get_raw_value()?;
            let hash = hasher.hash_one(key);
            Ok(Keyed {
                item: row,
                key,
                hash,
            })
        })
        .collect::<Result<_, ExecError>>()?;
    Ok(KeyTable::build(hasher, entries))
}

/// [`assemble`]'s `fill` for the off-chain build side: the matched
/// row's values, after the on-chain tuple's.
pub(super) fn append_off_row(off: &&Vec<Value>, row: &mut Vec<Value>) -> Result<(), ExecError> {
    row.extend_from_slice(off);
    Ok(())
}

/// Sort-merge sorted index entries against the sorted off-chain rows,
/// collecting each matched pointer with the range of off-chain rows it
/// joins — no storage reads; the caller fetches all matched
/// transactions in pointer runs afterwards.
fn merge_with_off(
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
