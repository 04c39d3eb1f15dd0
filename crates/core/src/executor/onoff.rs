//! On-chain ⋈ off-chain join (§V-C, Algorithm 3).
//!
//! The off-chain side comes from the local RDBMS through the
//! ODBC/JDBC-shaped connection, read once, in place: its rows stay
//! borrowed under the table's read guard for the whole join. The hash
//! arms build their table over them in heap order. Algorithm 3 (the
//! `Layered` arm) sorts references to them on the join attribute, takes
//! the off-chain `(min, max)` range (continuous) or distinct values
//! (discrete) from that one sorted list to prune the on-chain side by
//! the layered index's first level, then sort-merge joins the surviving
//! blocks' second-level leaves against it.

use super::hash::{assemble, probe_extents, KeyTable, Keyed};
use super::range::in_window;
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_index::KeyPredicate;
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
        let mut out = QueryResult::empty(onoff_header(on_table, off_table, off_columns));
        out.rows = conn
            .read_rows(off_table, &off_columns[off_col].name, |col, rows| {
                if rows.is_empty() {
                    return Ok(Vec::new());
                }
                match self.choose_join(&[(on_table, on_col)], strategy).arm {
                    Strategy::Layered => self.onoff_layered(on_table, on_col, rows, col, window),
                    arm => {
                        let mask = self.ledger.window_mask(window);
                        let bids: Vec<u64> = self
                            .hash_arm_blocks(&on_table.name, &mask, arm)?
                            .iter_ones()
                            .map(|b| b as u64)
                            .collect();
                        // Hash the off-chain rows by join key, then
                        // stream the on-chain partition through the
                        // probe; only matched tuples are decoded.
                        let mut arena = Vec::new();
                        let build = off_chain_table(&rows, col, &mut arena)?;
                        self.map_relation(&bids, &on_table.name, |run| {
                            let probed =
                                probe_extents(&run, &on_table.name, on_col, window, &build)?;
                            assemble(probed, &build, append_off_row)
                        })
                    }
                }
            })
            .map_err(ExecError::Offchain)??;
        Ok(out)
    }

    /// Algorithm 3 over the off-chain `rows`, joined at `col`.
    fn onoff_layered(
        &self,
        on_table: &TableSchema,
        on_col: ColumnRef,
        mut rows: Vec<&[Value]>,
        col: usize,
        window: Option<(Timestamp, Timestamp)>,
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        let index_name = self.layered_index_name(on_table, on_col).ok_or_else(|| {
            ExecError::Unsupported(format!(
                "no layered index on {}'s join column",
                on_table.name
            ))
        })?;
        // "The query results from off-chain data are sorted on join
        // attribute" (§V-C) — stably, so equal keys keep heap order.
        // `NULL` sorts first and joins nothing.
        rows.sort_by(|a, b| a[col].cmp(&b[col]));
        let keyed = &rows[rows.partition_point(|r| r[col] == Value::Null)..];
        // Lines 3–7: the blocks the index cannot rule out for the keys,
        // by the first level's test of their value range (continuous;
        // the ends of the sorted keys bound it, a key with no numeric
        // rank falls through to every block, and so does every frozen
        // block, whose buckets are not kept) or the OR of their
        // distinct values' bitmaps. Only `NULL` keys: nothing joins.
        let (Some(lo), Some(hi)) = (keyed.first(), keyed.last()) else {
            return Ok(Vec::new());
        };
        let continuous = on_col.data_type(on_table).is_continuous();
        let blocks = self
            .ledger
            .with_layered(Some(&on_table.name), &index_name, |idx| {
                if !continuous {
                    let distinct = keyed.chunk_by(|a, b| a[col] == b[col]);
                    return idx.blocks_for_values(distinct.map(|run| &run[0][col]));
                }
                idx.candidate_blocks(&KeyPredicate::Range(lo[col].clone(), hi[col].clone()))
            })
            .ok_or_else(|| index_vanished(on_table))?
            .and(&self.ledger.window_mask(window));
        // Lines 8–13: sort-merge against the sorted off-chain rows.
        // Phase one walks the surviving blocks' sorted entries and
        // collects matched (pointer, off-row range) pairs without
        // touching storage.
        let entries = self
            .ledger
            .with_layered(Some(&on_table.name), &index_name, |idx| {
                idx.sorted_entries(&blocks)
            })
            .ok_or_else(|| index_vanished(on_table))?;
        let mut matched: Vec<(sebdb_storage::TxPtr, std::ops::Range<usize>)> = Vec::new();
        merge_with_off(&entries, keyed, col, &mut matched);
        // Phase two fetches every distinct pointer once, in pointer
        // runs, and materializes matched rows in merge order.
        let txs = self.fetch_distinct(matched.iter().map(|(p, _)| *p))?;
        let mut out = Vec::new();
        for (p, off_range) in &matched {
            let tx = &txs[p];
            if !in_window(tx.ts, window) {
                continue;
            }
            out.extend(keyed[off_range.clone()].iter().map(|off| {
                let mut row = materialize(tx);
                row.extend_from_slice(off);
                row
            }));
        }
        Ok(out)
    }
}

fn index_vanished(on_table: &TableSchema) -> ExecError {
    ExecError::Unsupported(format!("index on {} vanished", on_table.name))
}

/// The off-chain build side: entry `i` is row `i`, keyed by its value
/// at `col`. The keys are encoded once, back to back, into `arena` — so
/// on-chain keys compare with them as stored — and borrowed from there.
pub(super) fn off_chain_table<'a>(
    rows: &[&'a [Value]],
    col: usize,
    arena: &'a mut Vec<u8>,
) -> Result<KeyTable<'a, &'a [Value]>, ExecError> {
    let mut enc = Encoder::new();
    rows.iter().for_each(|row| enc.put_value(&row[col]));
    *arena = enc.finish();
    let (hasher, mut keys) = (RandomState::new(), Decoder::new(arena));
    let entries = rows
        .iter()
        .map(|&row| {
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
pub(super) fn append_off_row(off: &&[Value], row: &mut Vec<Value>) -> Result<(), ExecError> {
    row.extend_from_slice(off);
    Ok(())
}

/// Sort-merge sorted index entries against the sorted off-chain rows,
/// collecting each matched pointer with the range of off-chain rows it
/// joins — no storage reads; the caller fetches all matched
/// transactions in pointer runs afterwards.
fn merge_with_off(
    entries: &[(Value, sebdb_storage::TxPtr)],
    off_rows: &[&[Value]],
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
