//! `EXPLAIN`: render the physical decisions for a plan without
//! fetching a tuple — which access path the probe-first planner
//! resolves to, the result size it counted, how many index blocks and
//! rows the probe touched for it, and the costs it compared.

use super::range::RangeProbe;
use super::tracking::{scanned_relations, trace_operator};
use super::{ExecError, Executor, QueryResult, Strategy};
use sebdb_sql::{LogicalPlan, TraceSpec};
use sebdb_storage::BlockStore;
use sebdb_types::{ColumnRef, TableSchema, Timestamp, Value};

impl Executor<'_> {
    /// Describes `plan` as rows of text (one step per row).
    pub(super) fn run_explain(&self, plan: &LogicalPlan) -> Result<QueryResult, ExecError> {
        let mut lines = Vec::new();
        self.describe(plan, 0, &mut lines);
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    /// One line for the probe-first decision: the path, `p` (exact, or
    /// where the probe was abandoned), the index blocks the range spans
    /// and the rows scanned for the rows kept, and the three costs
    /// compared.
    fn describe_probe(&self, probe: &RangeProbe) -> String {
        let path = match probe.path {
            Strategy::Layered => "layered",
            Strategy::Bitmap => "bitmap",
            _ => "scan",
        };
        let costs = format!(
            "scan({} blocks) {:.0}, bitmap({} blocks) {:.0}",
            probe.n,
            self.cost.cost_scan(probe.n),
            probe.k,
            self.cost.cost_bitmap(probe.k)
        );
        let Some(col) = &probe.driver else {
            return format!("{path}: no usable layered index; costs: {costs}");
        };
        let p = if probe.path == Strategy::Layered {
            format!("p = {} exact", probe.ptrs.len())
        } else {
            format!("layered abandoned at p >= {}", probe.ptrs.len())
        };
        format!(
            "{path}: layered index on {col}, {p}; {} index blocks spanned, \
             {} of {} rows scanned kept by the block mask; \
             costs: layered {:.0}, {costs}",
            probe.index_blocks,
            probe.ptrs.len(),
            probe.rows_scanned,
            self.cost
                .cost_layered_paged(probe.ptrs.len() as u64, probe.index_blocks)
        )
    }

    /// The join decision `run_onchain_join` / `run_onoff_join` make
    /// under `Auto`: the arm, why, and — for the hash arm — how many
    /// blocks the table-level bitmap leaves to scan on each on-chain
    /// side, and the partition that scan reads with the other relations
    /// placed in it, whose tuples it reads and drops.
    fn describe_join(
        &self,
        sides: &[(&TableSchema, ColumnRef)],
        window: Option<(Timestamp, Timestamp)>,
        layered: &str,
    ) -> String {
        let choice = self.choose_join(sides, Strategy::Auto);
        if choice.arm == Strategy::Layered {
            return format!("layered, {layered}; {}", choice.reason);
        }
        let mask = self.ledger.window_mask(window);
        let store = self.ledger.store();
        let scans: Vec<String> = sides
            .iter()
            .map(|(schema, _)| {
                let name = &schema.name;
                let blocks = match self.hash_arm_blocks(name, &mask, choice.arm) {
                    Ok(blocks) => blocks.count_ones(),
                    Err(e) => return format!("{name} [{e}]"),
                };
                match partition_company(store, name) {
                    Some(part) => format!("{name} in {blocks} blocks of {part}"),
                    None => format!("{name} in {blocks} blocks (not on the chain)"),
                }
            })
            .collect();
        format!(
            "bitmap hash join, late-materialized; {}; scans {}; window holds {} blocks",
            choice.reason,
            scans.join(", "),
            mask.count_ones()
        )
    }

    /// How `run_trace` answers a trace under `Auto` — on the Layered
    /// arm, with the one second level it probes (`sen_id`) and, for two
    /// dimensions, the partition whose tuples the tuple table keeps; or,
    /// for an operation alone, on the Bitmap arm; or from the view
    /// registered for it, which a serve first extends by that arm over
    /// the blocks applied since its cursor — and the partitions the Scan
    /// and Bitmap arms read, with the relations placed in each.
    fn describe_trace(
        &self,
        window: Option<(Timestamp, Timestamp)>,
        operator: Option<&Value>,
        operation: Option<&str>,
    ) -> Result<(String, String), ExecError> {
        let operator = trace_operator(operator, operation)?;
        let store = self.ledger.store();
        let spec = TraceSpec::new(window, operator.map(|k| k.0), operation);
        let probe = "layered, one second-level probe (sen_id)";
        let arm = match (operator, operation) {
            (None, _) => "bitmap, tname's first level prunes the scan".to_string(),
            (Some(_), None) => probe.to_string(),
            (Some(_), Some(tname)) => match partition_company(store, tname) {
                Some(part) => format!("{probe}, then the tuple table keeps {tname}'s {part}"),
                None => format!(
                    "{probe}, then the tuple table keeps nothing ({tname} not on the chain)"
                ),
            },
        };
        let arm = match self.ledger.trace_views().matching(&spec) {
            None => format!("auto: {arm}"),
            Some(view) => match self.ledger.height().saturating_sub(view.folded()) {
                0 => "auto: the registered view on this trace, no index probed".to_string(),
                lag => format!(
                    "auto: the registered view on this trace, {lag} blocks behind; \
                     the serve extends it by {arm}"
                ),
            },
        };
        let scans: Vec<String> = scanned_relations(store, operation)
            .iter()
            .filter_map(|r| store.partition_of(r))
            .map(|p| format!("partition {p} ({})", store.relations_in(p).join(", ")))
            .collect();
        let scans = match scans.is_empty() {
            true => "nothing (not on the chain)".to_string(),
            false => scans.join(", "),
        };
        Ok((arm, scans))
    }

    fn describe(&self, plan: &LogicalPlan, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        match plan {
            LogicalPlan::CreateTable(s) => {
                out.push(format!("{pad}CreateTable {} (via consensus)", s.name));
            }
            LogicalPlan::Insert { table, .. } => {
                out.push(format!("{pad}Insert into {table} (via consensus)"));
            }
            LogicalPlan::Query {
                schema,
                predicates,
                window,
                ..
            } => {
                // The same probe `run_query` executes under `Auto`:
                // index-only, so nothing is fetched here either.
                let mask = self.ledger.window_mask(*window);
                match self.probe_range(schema, predicates, &mask, Strategy::Auto) {
                    Ok(probe) => out.push(format!(
                        "{pad}Query {} [{}]",
                        schema.name,
                        self.describe_probe(&probe)
                    )),
                    Err(e) => out.push(format!("{pad}Query {} [{e}]", schema.name)),
                }
                for p in predicates {
                    out.push(format!("{pad}  predicate on {:?}", p.column));
                }
                if let Some((s, e)) = window {
                    out.push(format!("{pad}  window [{s}, {e}]"));
                }
            }
            LogicalPlan::OnChainJoin {
                left,
                right,
                left_col,
                right_col,
                window,
            } => {
                out.push(format!(
                    "{pad}OnChainJoin {} ⋈ {} [{}]",
                    left.name,
                    right.name,
                    self.describe_join(
                        &[(left, *left_col), (right, *right_col)],
                        *window,
                        "Algorithm 2: first-level pair pruning + per-block sort-merge",
                    )
                ));
            }
            LogicalPlan::OnOffJoin {
                on_table,
                on_col,
                off_table,
                window,
                ..
            } => {
                out.push(format!(
                    "{pad}OnOffJoin onchain.{} ⋈ offchain.{off_table} [{}]",
                    on_table.name,
                    self.describe_join(
                        &[(on_table, *on_col)],
                        *window,
                        "Algorithm 3: off-chain range prunes blocks",
                    )
                ));
            }
            LogicalPlan::Trace {
                operator,
                operation,
                window,
            } => {
                match self.describe_trace(*window, operator.as_ref(), operation.as_deref()) {
                    Ok((arm, scans)) => {
                        out.push(format!("{pad}Trace [Algorithm 1; {arm}]"));
                        out.push(format!("{pad}  scan and bitmap arms read {scans}"));
                    }
                    Err(e) => out.push(format!("{pad}Trace [{e}]")),
                }
                if let Some((s, e)) = window {
                    out.push(format!("{pad}  window [{s}, {e}]"));
                }
            }
            LogicalPlan::GetBlock(sel) => {
                out.push(format!("{pad}GetBlock {sel:?} [manifest binary search]"));
            }
            LogicalPlan::Post {
                input,
                count,
                limit,
            } => {
                let mut parts = Vec::new();
                if *count {
                    parts.push("COUNT(*)".to_string());
                }
                if let Some(n) = limit {
                    parts.push(format!("LIMIT {n}"));
                }
                out.push(format!("{pad}Post [{}]", parts.join(", ")));
                self.describe(input, depth + 1, out);
            }
            LogicalPlan::Explain(inner) => {
                self.describe(inner, depth, out);
            }
        }
    }
}

/// `partition p (alone)`, or `partition p (shared with a, b)` naming
/// the other relations placed in it, for the partition `table` is
/// placed in; `None` while no block carries it.
fn partition_company(store: &BlockStore, table: &str) -> Option<String> {
    let part = store.partition_of(table)?;
    let others: Vec<String> = store
        .relations_in(part)
        .into_iter()
        .filter(|r| !r.eq_ignore_ascii_case(table))
        .collect();
    Some(match others.is_empty() {
        true => format!("partition {part} (alone)"),
        false => format!("partition {part} (shared with {})", others.join(", ")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ledger;
    use sebdb_consensus::OrderedBlock;
    use sebdb_crypto::sig::{KeyId, MacKeypair};
    use sebdb_sql::{BoundPredicate, BoundPredicateKind};
    use sebdb_storage::{BlockStore, StoreConfig};
    use sebdb_types::{Column, DataType, Transaction};
    use std::sync::Arc;

    /// A plan is a function of the chain: on a frozen index behind an
    /// 8-block index cache, one range query explains to the same text
    /// before and after a workload that churns the cache.
    #[test]
    fn explain_does_not_depend_on_the_cache_history() {
        const BLOCKS: u64 = 400;
        let rows = BLOCKS * 5;
        let cfg = StoreConfig {
            index_cache_blocks: Some(8),
            ..StoreConfig::default()
        };
        let store = Arc::new(BlockStore::temporary(cfg).unwrap());
        let ledger = Ledger::new(Arc::clone(&store), MacKeypair::from_key([5; 32])).unwrap();
        let schema = TableSchema::new(
            "donate",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        );
        for seq in 0..BLOCKS {
            let txs = (0..5)
                .map(|i| {
                    // 7919 is prime and `rows` is 2^a·5^b: a permutation.
                    let amount = Value::decimal(((seq * 5 + i) * 7919 % rows) as i64);
                    let values = vec![Value::str("d"), amount];
                    let mut tx = Transaction::new(10_000 + seq, KeyId([4; 8]), "donate", values);
                    tx.tid = seq * 5 + i + 1;
                    tx
                })
                .collect();
            let timestamp_ms = 10_000 + seq;
            let block = OrderedBlock {
                seq,
                timestamp_ms,
                txs,
            };
            ledger.append_ordered(block).unwrap();
        }
        ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
        ledger.checkpoint_indexes().unwrap();
        let range = |lo: u64, hi: u64| LogicalPlan::Query {
            predicates: vec![BoundPredicate {
                column: schema.resolve("amount").unwrap(),
                kind: BoundPredicateKind::Between(
                    Value::decimal(lo as i64),
                    Value::decimal(hi as i64),
                ),
            }],
            schema: schema.clone(),
            projection: vec![],
            window: None,
        };
        let explain = || {
            let plan = LogicalPlan::Explain(Box::new(range(100, 119)));
            let exec = Executor::new(&ledger, None);
            exec.execute(&plan, Strategy::Auto).unwrap().rows
        };
        store.stats.reset();
        let before = explain();
        assert!(
            before[0][0].to_string().contains("layered index on amount"),
            "{before:?}"
        );
        for i in 0..200 {
            let lo = i * 7919 % rows;
            let exec = Executor::new(&ledger, None);
            exec.execute(&range(lo, lo + 3), Strategy::Layered).unwrap();
        }
        let (hits, misses) = store.stats.index_cache_counts();
        assert!(
            5 * hits < 4 * (hits + misses),
            "the cache was not churned: {hits} hits, {misses} misses"
        );
        assert_eq!(explain(), before);
    }
}
