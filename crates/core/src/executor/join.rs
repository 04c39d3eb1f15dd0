//! On-chain equi-join (§V-B, Algorithm 2).
//!
//! Three physical plans, matching the paper's comparison (Fig. 13/14):
//!
//! * **scan** — one-pass hash join over both relations' partitions of
//!   every block, projected on the join columns; only matched tuples
//!   are decoded ([`super::hash`]);
//! * **bitmap** — the same hash join but each relation is scanned only
//!   in the blocks the table-level index marks as containing it;
//! * **layered** — Algorithm 2 proper: first-level bitmaps select the
//!   candidate blocks per relation, histogram-bucket intersection
//!   prunes block *pairs*, and the blocks of the surviving pairs are
//!   joined by one sort-merge over their second-level entries (which
//!   the index hands out in key order).

use super::hash::{assemble, decode_matched, in_order, keyed_tuples, probe_extents, KeyTable};
use super::range::{column_name, in_window};
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_index::Bitmap;
use sebdb_types::{ColumnRef, TableSchema, Timestamp, Value};

/// How a join will run: the arm [`Strategy::Auto`] resolves to (a
/// forced strategy resolves to itself) and why. `EXPLAIN` prints
/// this; `run_onchain_join` and `run_onoff_join` execute it.
pub(super) struct JoinChoice {
    /// The resolved arm (never [`Strategy::Auto`]).
    pub arm: Strategy,
    /// Why `Auto` resolved the way it did, or that the arm was forced.
    pub reason: String,
}

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
    /// Resolves a join's arm from its on-chain sides (two for an
    /// on-chain join, one for on-chain ⋈ off-chain): layered
    /// (Algorithm 2 / 3) when every join column carries a layered
    /// index, else the bitmap-pruned hash join. No cost model yet
    /// (ROADMAP item 8).
    pub(super) fn choose_join(
        &self,
        sides: &[(&TableSchema, ColumnRef)],
        strategy: Strategy,
    ) -> JoinChoice {
        let unindexed: Vec<String> = sides
            .iter()
            .filter(|(schema, col)| self.layered_index_name(schema, *col).is_none())
            .map(|(schema, col)| {
                let col = column_name(schema, *col).unwrap_or_default();
                format!("{}.{col}: no layered index", schema.name)
            })
            .collect();
        let (arm, reason) = match strategy {
            Strategy::Auto if unindexed.is_empty() => (
                Strategy::Layered,
                "every on-chain join column has a layered index".to_string(),
            ),
            Strategy::Auto => (Strategy::Bitmap, unindexed.join(", ")),
            forced => (forced, "forced".to_string()),
        };
        JoinChoice { arm, reason }
    }

    /// The blocks a hash arm scans for `table` inside `mask`: all of
    /// them under `Scan`, the ones the table-level bitmap marks under
    /// `Bitmap`.
    pub(super) fn hash_arm_blocks(
        &self,
        table: &str,
        mask: &Bitmap,
        arm: Strategy,
    ) -> Result<Bitmap, ExecError> {
        match arm {
            Strategy::Bitmap => Ok(self.table_blocks(table)?.and(mask)),
            _ => Ok(mask.clone()),
        }
    }

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
        let choice = self.choose_join(&[(left, left_col), (right, right_col)], strategy);
        let mut out = QueryResult::empty(join_header(left, right));
        match choice.arm {
            Strategy::Layered => {
                self.layered_join(left, right, left_col, right_col, window, &mut out)?
            }
            arm => self.hash_join(left, right, left_col, right_col, window, arm, &mut out)?,
        }
        Ok(out)
    }

    /// One-pass hash join (§V-B): build on the right relation, probe
    /// with the left. Both sides are projected relation-partition
    /// scans; the build side's extents stay resident and the matched
    /// tuples of either side are decoded from them once each.
    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &self,
        left: &TableSchema,
        right: &TableSchema,
        left_col: ColumnRef,
        right_col: ColumnRef,
        window: Option<(Timestamp, Timestamp)>,
        arm: Strategy,
        out: &mut QueryResult,
    ) -> Result<(), ExecError> {
        let mask = self.ledger.window_mask(window);
        let bids = |blocks: &Bitmap| blocks.iter_ones().map(|b| b as u64).collect::<Vec<u64>>();
        let l_blocks = self.hash_arm_blocks(&left.name, &mask, arm)?;
        let r_blocks = self.hash_arm_blocks(&right.name, &mask, arm)?;
        // Relations sharing a partition (a self-join, `partitions: 1`,
        // or more relations than partitions) come back from one scan:
        // read it once for both sides.
        let shared = self.ledger.store().co_located(&left.name, &right.name);
        let build_bids = match shared {
            true => bids(&l_blocks.or(&r_blocks)),
            false => bids(&r_blocks),
        };
        let resident = self.ledger.scan_relation_raw(&build_bids, &right.name)?;
        let entries = keyed_tuples(&resident, &right.name, right_col, window)?;
        let build = KeyTable::build(entries.iter().map(|e| e.key).collect());
        let probed = if shared {
            // One item per planned run, as `map_relation` fans out.
            in_order(sebdb_parallel::par_map(
                &resident,
                sebdb_parallel::FLOOR_BLOCK,
                |run| {
                    probe_extents(
                        std::slice::from_ref(run),
                        &left.name,
                        left_col,
                        window,
                        &build,
                    )
                },
            ))?
        } else {
            self.map_relation(&bids(&l_blocks), &left.name, |run| {
                probe_extents(run, &left.name, left_col, window, &build)
            })?
        };
        out.rows = assemble(&probed, &decode_matched(&entries, &probed)?);
        Ok(())
    }

    /// Algorithm 2: candidate blocks per relation from the first-level
    /// bitmaps, block-pair pruning via `intersect`, one sort-merge over
    /// the second-level leaves of the blocks that survive.
    fn layered_join(
        &self,
        left: &TableSchema,
        right: &TableSchema,
        left_col: ColumnRef,
        right_col: ColumnRef,
        window: Option<(Timestamp, Timestamp)>,
        out: &mut QueryResult,
    ) -> Result<(), ExecError> {
        let l_col = self.layered_index_name(left, left_col).ok_or_else(|| {
            ExecError::Unsupported(format!("no layered index on {}'s join column", left.name))
        })?;
        let r_col = self.layered_index_name(right, right_col).ok_or_else(|| {
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

        // Lines 11–12: sort-merge over the second-level leaves. Phase
        // one merges the sorted entries of every block a surviving pair
        // names, one run per side, and collects matched pointer pairs
        // without touching storage. A pruned pair holds no match (the
        // first level has no false negatives), so merging whole sides
        // finds exactly the matches of the surviving pairs.
        let side = |schema: &TableSchema, col: &str, blocks: Bitmap| {
            self.ledger
                .with_layered(Some(&schema.name), col, |idx| idx.sorted_entries(&blocks))
                .ok_or_else(|| ExecError::Unsupported(format!("index on {} vanished", schema.name)))
        };
        let l_entries = side(left, &l_col, pairs.iter().map(|p| p.0 as usize).collect())?;
        let r_entries = side(right, &r_col, pairs.iter().map(|p| p.1 as usize).collect())?;
        let mut matched: Vec<(sebdb_storage::TxPtr, sebdb_storage::TxPtr)> = Vec::new();
        sort_merge_pairs(&l_entries, &r_entries, &mut matched);
        // Phase two batch-fetches every distinct pointer (distinct
        // blocks decoded across workers) and materializes the matched
        // rows in pair order.
        let txs = self.fetch_distinct(matched.iter().flat_map(|&(lp, rp)| [lp, rp]))?;
        let rows = sebdb_parallel::par_map(&matched, sebdb_parallel::FLOOR_TUPLE, |(lp, rp)| {
            let (ltx, rtx) = (&txs[lp], &txs[rp]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ledger;
    use sebdb_consensus::OrderedBlock;
    use sebdb_crypto::sig::{KeyId, MacKeypair};
    use sebdb_storage::{BlockStore, StoreConfig};
    use sebdb_types::{Column, DataType, Transaction};
    use std::sync::Arc;
    use std::time::Instant;

    fn table(name: &str, cols: &[&str]) -> TableSchema {
        TableSchema::new(
            name,
            cols.iter()
                .map(|c| Column::new(*c, DataType::Str))
                .collect(),
        )
    }

    /// Where a hash join's time goes, phase by phase, on chains shaped
    /// like the benchmark's `query` workload (160 blocks × 200 tuples)
    /// and its `deep` one (4 000 blocks × 5 tuples), on disk: half
    /// `donate`, a quarter each `transfer` and `distribute`,
    /// organizations drawn from a space sized so about 500 pairs join.
    /// The phases are `hash_join`'s own calls in its own order, so they
    /// must add up to the rows `execute` returns; run with
    /// `cargo test --release -p sebdb q5_phase_split -- --nocapture`
    /// for the timings EXPERIMENTS.md quotes.
    #[test]
    fn q5_phase_split() {
        phase_split(160, 200);
        // A debug build is here for the row check: a tenth of `deep`.
        phase_split(if cfg!(debug_assertions) { 400 } else { 4_000 }, 5);
    }

    /// [`q5_phase_split`] on `blocks` blocks of `per_block` tuples.
    fn phase_split(blocks: u64, per_block: u64) {
        let store = BlockStore::temporary(StoreConfig::default()).unwrap();
        let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([3; 32])).unwrap();
        let mut state = 11u64;
        let mut below = |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        let s = |c: char, n: u64| Value::Str(format!("{c}{n}"));
        // A quarter of the tuples on each side: (n / 4)² / orgs ≈ 500.
        let orgs = (blocks * per_block / 4).pow(2) / 500;
        for b in 0..blocks {
            let txs = (0..per_block)
                .map(|slot| {
                    let (donor, org) = (s('d', below(100_000)), s('o', below(orgs)));
                    let amount = Value::decimal(below(1_000_000) as i64);
                    let (tname, values) = match below(4) {
                        0 => ("transfer", vec![s('p', 3), donor, org, amount]),
                        1 => (
                            "distribute",
                            vec![s('p', 3), donor, org, s('e', below(64_000)), amount],
                        ),
                        _ => ("donate", vec![donor, s('p', 3), amount]),
                    };
                    let mut tx = Transaction::new(b * 1000 + slot, KeyId([7; 8]), tname, values);
                    tx.tid = b * per_block + slot + 1;
                    tx.sig = vec![1; 33];
                    tx
                })
                .collect();
            ledger
                .append_ordered(OrderedBlock {
                    seq: b,
                    timestamp_ms: (b + 1) * 1000,
                    txs,
                })
                .unwrap();
        }
        let left = table("transfer", &["project", "donor", "organization", "amount"]);
        let right = table(
            "distribute",
            &["project", "donor", "organization", "donee", "amount"],
        );
        let (col, window) = (ColumnRef::App(2), None);
        let exec = Executor::new(&ledger, None);
        // The bitmap arm's blocks: those the table-level index marks.
        let bids = |name: &str| {
            let blocks = exec.table_blocks(name).unwrap();
            blocks.iter_ones().map(|b| b as u64).collect::<Vec<u64>>()
        };
        let (l_bids, r_bids) = (bids(&left.name), bids(&right.name));

        let mut phases = [0u128; 6];
        let mut whole = Vec::new();
        let mut rows = Vec::new();
        // A debug build is here for the row check, not the timings.
        const ROUNDS: u128 = if cfg!(debug_assertions) { 2 } else { 20 };
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let want = exec
                .run_onchain_join(&left, &right, col, col, window, Strategy::Bitmap)
                .unwrap();
            whole.push(t.elapsed().as_micros());

            let mut lap = Instant::now();
            let mut mark = |phase: usize| {
                phases[phase] += lap.elapsed().as_micros();
                lap = Instant::now();
            };
            let resident = ledger.scan_relation_raw(&r_bids, &right.name).unwrap();
            mark(0);
            let entries = keyed_tuples(&resident, &right.name, col, window).unwrap();
            mark(1);
            let build = KeyTable::build(entries.iter().map(|e| e.key).collect());
            mark(2);
            let probed = exec
                .map_relation(&l_bids, &left.name, |run| {
                    probe_extents(run, &left.name, col, window, &build)
                })
                .unwrap();
            mark(3);
            let build_rows = decode_matched(&entries, &probed).unwrap();
            mark(4);
            rows = assemble(&probed, &build_rows);
            mark(5);
            assert_eq!(rows, want.rows);
        }
        assert!(rows.len() > 100, "{} rows", rows.len());
        whole.sort_unstable();
        let names = [
            "scan right partition",
            "project right",
            "build",
            "scan + project + probe left, decode its matches",
            "decode matched right",
            "assemble rows",
        ];
        let runs = |bids: &[u64], name: &str| ledger.store().relation_runs(bids, name).len();
        println!(
            "Q5 bitmap hash join, {blocks} × {per_block}, {} rows, mean of {ROUNDS}; \
             right {} blocks in {} runs, left {} blocks in {} runs:",
            rows.len(),
            r_bids.len(),
            runs(&r_bids, &right.name),
            l_bids.len(),
            runs(&l_bids, &left.name),
        );
        for (name, total) in names.iter().zip(phases) {
            println!("  {:>5} µs  {name}", total / ROUNDS);
        }
        println!(
            "  {:>5} µs  phases; execute() median {} µs",
            phases.iter().sum::<u128>() / ROUNDS,
            whole[whole.len() / 2]
        );
    }
}
