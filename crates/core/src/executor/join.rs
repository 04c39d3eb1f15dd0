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

use super::hash::{assemble, decode_onto, in_order, keyed_runs, probe_extents, KeyTable};
use super::range::{column_name, in_window};
use super::{materialize, ExecError, Executor, QueryResult, Strategy};
use sebdb_index::Bitmap;
use sebdb_storage::RawExtent;
use sebdb_types::{ColumnRef, TableSchema, Timestamp, Value};
use std::collections::hash_map::RandomState;

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
    /// scans, one planned run per item across workers; the build side's
    /// extents stay resident, and each output row is the matched probe
    /// tuple with the matched build tuple decoded onto it.
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
        // The build side's runs stay resident: its entries borrow them.
        let resident = self.map_relation(&build_bids, &right.name, Ok)?;
        let hasher = RandomState::new();
        let entries = keyed_runs(&resident, &right.name, right_col, window, &hasher)?;
        let build = KeyTable::build(hasher, entries);
        let join = |run: &[RawExtent]| {
            let probed = probe_extents(run, &left.name, left_col, window, &build)?;
            assemble(probed, &build, decode_onto)
        };
        out.rows = if shared {
            // One item per planned run, as `map_relation` fans out.
            in_order(sebdb_parallel::par_map(
                &resident,
                sebdb_parallel::FLOOR_BLOCK,
                |run| join(std::slice::from_ref(run)),
            ))?
        } else {
            self.map_relation(&bids(&l_blocks), &left.name, |run| join(&run))?
        };
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
        // Phase two fetches every distinct pointer once, in pointer
        // runs, and materializes the matched rows in pair order.
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
    use super::super::onoff::{append_off_row, off_chain_table};
    use super::*;
    use crate::Ledger;
    use sebdb_consensus::OrderedBlock;
    use sebdb_crypto::sig::{KeyId, MacKeypair};
    use sebdb_offchain::{OffchainConnection, OffchainDb};
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

    fn transfer() -> TableSchema {
        table("transfer", &["project", "donor", "organization", "amount"])
    }

    fn distribute() -> TableSchema {
        table(
            "distribute",
            &["project", "donor", "organization", "donee", "amount"],
        )
    }

    /// Off-chain donees `e0` … `e1999`, as the benchmark's `doneeinfo`.
    const DONEES_OFF: u64 = 2_000;

    /// A chain shaped like the benchmark's `query` workload (160
    /// blocks × 200 tuples) or its `deep` one (4 000 blocks × 5
    /// tuples), on disk: half `donate`, a quarter each `transfer` and
    /// `distribute`, organizations and donees drawn from spaces sized
    /// as the benchmark sizes them, so about 500 rows join in Q5 and
    /// in Q6. Also the off-chain `doneeinfo`.
    fn chain(blocks: u64, per_block: u64) -> (Ledger, OffchainConnection) {
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
        // A quarter of the tuples on each side: (n / 4)² / orgs ≈ 500,
        // and n / 4 · 2 000 / donees ≈ 500.
        let side = blocks * per_block / 4;
        let (orgs, donees) = (side.pow(2) / 500, side * DONEES_OFF / 500);
        for b in 0..blocks {
            let txs = (0..per_block)
                .map(|slot| {
                    let (donor, org) = (s('d', below(100_000)), s('o', below(orgs)));
                    let amount = Value::decimal(below(1_000_000) as i64);
                    let (tname, values) = match below(4) {
                        0 => ("transfer", vec![s('p', 3), donor, org, amount]),
                        1 => (
                            "distribute",
                            vec![s('p', 3), donor, org, s('e', below(donees)), amount],
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
        let db = Arc::new(OffchainDb::new());
        let columns = vec![
            Column::new("donee", DataType::Str),
            Column::new("income", DataType::Decimal),
        ];
        db.create_table("doneeinfo", columns).unwrap();
        let conn = db.connect();
        for n in 0..DONEES_OFF {
            let row = vec![s('e', n), Value::decimal(n as i64)];
            conn.insert("doneeinfo", row).unwrap();
        }
        (ledger, conn)
    }

    /// The shapes both splits run: `query`'s, and `deep`'s — a tenth of
    /// it in a debug build, which is here for the row check.
    const SHAPES: [(u64, u64); 2] = [
        (160, 200),
        (if cfg!(debug_assertions) { 400 } else { 4_000 }, 5),
    ];
    /// A debug build is here for the row check, not the timings.
    const ROUNDS: u128 = if cfg!(debug_assertions) { 2 } else { 20 };

    /// The bitmap arm's blocks of `name`: those the table-level index
    /// marks.
    fn bitmap_bids(exec: &Executor<'_>, name: &str) -> Vec<u64> {
        let blocks = exec.table_blocks(name).unwrap();
        blocks.iter_ones().map(|b| b as u64).collect()
    }

    /// Times phases in turn, summed over rounds.
    struct Laps<const N: usize> {
        totals: [u128; N],
        at: Instant,
    }

    impl<const N: usize> Laps<N> {
        fn new() -> Self {
            Laps {
                totals: [0; N],
                at: Instant::now(),
            }
        }

        /// Starts a round's first phase.
        fn start(&mut self) {
            self.at = Instant::now();
        }

        /// Ends `phase`, starting the next.
        fn mark(&mut self, phase: usize) {
            self.totals[phase] += self.at.elapsed().as_micros();
            self.at = Instant::now();
        }

        /// Prints each phase's mean and `execute`'s median beside their
        /// sum.
        fn report(&self, names: [&str; N], mut whole: Vec<u128>) {
            for (name, total) in names.iter().zip(self.totals) {
                println!("  {:>5} µs  {name}", total / ROUNDS);
            }
            whole.sort_unstable();
            println!(
                "  {:>5} µs  phases; execute() median {} µs",
                self.totals.iter().sum::<u128>() / ROUNDS,
                whole[whole.len() / 2]
            );
        }
    }

    /// Where a Q5 hash join's time goes, phase by phase, on the
    /// [`chain`] shapes. The phases are `hash_join`'s own calls in its
    /// own order, so they must add up to the rows `execute` returns;
    /// one difference in where they run: `hash_join` assembles each
    /// probe run's rows in the worker that probed it, the split
    /// assembles them all after the probe. Run with
    /// `cargo test --release -p sebdb q5_phase_split -- --nocapture`
    /// for the timings EXPERIMENTS.md quotes.
    #[test]
    fn q5_phase_split() {
        for (blocks, per_block) in SHAPES {
            let (ledger, _) = chain(blocks, per_block);
            let (left, right) = (transfer(), distribute());
            let (col, window) = (ColumnRef::App(2), None);
            let exec = Executor::new(&ledger, None);
            let (l_bids, r_bids) = (
                bitmap_bids(&exec, &left.name),
                bitmap_bids(&exec, &right.name),
            );

            let mut laps = Laps::new();
            let mut whole = Vec::new();
            let mut rows = Vec::new();
            for _ in 0..ROUNDS {
                let t = Instant::now();
                let want = exec
                    .run_onchain_join(&left, &right, col, col, window, Strategy::Bitmap)
                    .unwrap();
                whole.push(t.elapsed().as_micros());

                laps.start();
                let resident = exec.map_relation(&r_bids, &right.name, Ok).unwrap();
                laps.mark(0);
                let hasher = RandomState::new();
                let entries = keyed_runs(&resident, &right.name, col, window, &hasher).unwrap();
                laps.mark(1);
                let build = KeyTable::build(hasher, entries);
                laps.mark(2);
                let probed = exec
                    .map_relation(&l_bids, &left.name, |run| {
                        probe_extents(&run, &left.name, col, window, &build)
                    })
                    .unwrap();
                laps.mark(3);
                rows = assemble(probed, &build, decode_onto).unwrap();
                laps.mark(4);
                assert_eq!(rows, want.rows);
            }
            assert!(rows.len() > 100, "{} rows", rows.len());
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
            laps.report(
                [
                    "scan right partition, across workers",
                    "project + hash right, across workers",
                    "link table",
                    "scan + project + probe left, decode its matches",
                    "assemble rows, decoding matched right onto them",
                ],
                whole,
            );
        }
    }

    /// [`q5_phase_split`]'s twin for the on-off join's hash arm: Q6,
    /// `distribute.donee` ⋈ the off-chain `doneeinfo.donee`, on the
    /// same shapes, phase by phase as `run_onoff_join` runs them
    /// (assembly again after the probe rather than in its workers).
    /// `cargo test --release -p sebdb q6_phase_split -- --nocapture`.
    #[test]
    fn q6_phase_split() {
        for (blocks, per_block) in SHAPES {
            let (ledger, conn) = chain(blocks, per_block);
            let on = distribute();
            let (on_col, window) = (ColumnRef::App(3), None);
            let off_columns = vec![
                Column::new("donee", DataType::Str),
                Column::new("income", DataType::Decimal),
            ];
            let exec = Executor::new(&ledger, Some(&conn));
            let bids = bitmap_bids(&exec, &on.name);

            let mut laps = Laps::new();
            let mut whole = Vec::new();
            let mut rows = Vec::new();
            for _ in 0..ROUNDS {
                let t = Instant::now();
                let want = exec
                    .run_onoff_join(
                        &on,
                        on_col,
                        "doneeinfo",
                        0,
                        &off_columns,
                        window,
                        Strategy::Bitmap,
                    )
                    .unwrap();
                whole.push(t.elapsed().as_micros());

                laps.start();
                let (_, off_rows) = conn.sorted_by("doneeinfo", "donee").unwrap();
                laps.mark(0);
                let mut arena = Vec::new();
                let build = off_chain_table(&off_rows, 0, &mut arena).unwrap();
                laps.mark(1);
                let probed = exec
                    .map_relation(&bids, &on.name, |run| {
                        probe_extents(&run, &on.name, on_col, window, &build)
                    })
                    .unwrap();
                laps.mark(2);
                rows = assemble(probed, &build, append_off_row).unwrap();
                laps.mark(3);
                assert_eq!(rows, want.rows);
            }
            assert!(rows.len() > 100, "{} rows", rows.len());
            println!(
                "Q6 bitmap on-off hash join, {blocks} × {per_block}, {} rows, mean of {ROUNDS}; \
                 {} off-chain rows, on-chain {} blocks in {} runs:",
                rows.len(),
                DONEES_OFF,
                bids.len(),
                ledger.store().relation_runs(&bids, &on.name).len(),
            );
            laps.report(
                [
                    "read off-chain rows, sorted",
                    "encode + hash off-chain keys, link table",
                    "scan + project + probe on-chain, decode its matches",
                    "assemble rows, off-chain values after",
                ],
                whole,
            );
        }
    }
}
