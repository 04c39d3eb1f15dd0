//! Single-table select / range / point queries (Q4-style) under the
//! three access paths of §IV-B's cost analysis.

use super::hash::decode_row;
use super::{full_header, project, ExecError, Executor, QueryResult, Strategy};
use crate::ledger::LedgerError;
use sebdb_index::{AccessPath, Bitmap, KeyPredicate};
use sebdb_sql::BoundPredicate;
use sebdb_storage::{RawExtent, TxPtr};
use sebdb_types::{ColumnRef, TableSchema, Timestamp, Value};

/// What [`Executor::probe_range`] decided for one single-table query
/// and the numbers it decided on. `EXPLAIN` prints these; `run_query`
/// executes them.
pub(super) struct RangeProbe {
    /// The resolved access path (never [`Strategy::Auto`]). `Layered`
    /// exactly when the index walk finished inside its budget.
    pub path: Strategy,
    /// The indexed column's name, when an index serves the query.
    pub driver: Option<String>,
    /// Matching tuple pointers. When `path` is `Layered` this is the
    /// exact answer set (`p` of Eq. 3) in chain order; when the walk
    /// was abandoned it holds what had been collected by then.
    pub ptrs: Vec<TxPtr>,
    /// Level-1 blocks of the index's frozen run that the predicate's
    /// value range spans (0 when the index is fully resident): what the
    /// layered path is charged for paging, known from the fences before
    /// anything is read.
    pub index_blocks: u64,
    /// Matching index rows the probe looked at; `ptrs.len()` of them
    /// lay in blocks inside the window. The frozen run is ordered by
    /// value, so a narrow window over a wide range scans more rows
    /// than it keeps — the probe's wasted work.
    pub rows_scanned: u64,
    /// Blocks inside the window (`n` of Eq. 1).
    pub n: u64,
    /// Blocks inside the window holding the table (`k` of Eq. 2; left
    /// at `n` when the layered path was forced and nothing is compared).
    pub k: u64,
}

impl Executor<'_> {
    pub(super) fn run_query(
        &self,
        schema: &TableSchema,
        projection: &[String],
        predicates: &[BoundPredicate],
        window: Option<(Timestamp, Timestamp)>,
        strategy: Strategy,
    ) -> Result<QueryResult, ExecError> {
        let mut out = QueryResult::empty(if projection.is_empty() {
            full_header(schema)
        } else {
            projection.to_vec()
        });
        let mask = self.ledger.window_mask(window);
        let path = match strategy {
            Strategy::Auto | Strategy::Layered => {
                let probe = self.probe_range(schema, predicates, &mask, strategy)?;
                if let (Strategy::Layered, Some(_)) = (probe.path, &probe.driver) {
                    // The pointers' runs, filtered as the block paths
                    // filter theirs: one relation, so chain order. A
                    // pointer run is a tuple or a few, too little for
                    // a worker.
                    let runs = self.ledger.fetch_raw(&probe.ptrs)?;
                    out.rows = select_extents(&runs, schema, projection, predicates, window)?;
                    return Ok(out);
                }
                probe.path
            }
            forced => forced,
        };
        let blocks = if path == Strategy::Bitmap {
            self.table_blocks(&schema.name)?.and(&mask)
        } else {
            mask
        };
        // Partition-granular and late-materialized: only the table's
        // relation partition is fetched, each tuple is tested on the
        // columns its filters name, and only the rows returned are
        // decoded (DESIGN §10.4).
        let bids: Vec<u64> = blocks.iter_ones().map(|b| b as u64).collect();
        out.rows = self.map_relation(&bids, &schema.name, |run| {
            select_extents(&run, schema, projection, predicates, window)
        })?;
        Ok(out)
    }

    /// Probe-first planning (§IV-B, Eqs. 1–3). The result size `p` is
    /// not estimated: the layered index is walked — index-only, no
    /// tuple is read — and `p` is counted, for as long as the cost
    /// model still prefers the layered path at the count so far:
    ///
    /// 1. the level-1 blocks of the frozen run that the value range
    ///    spans are counted from the fences (no I/O); if paging them
    ///    alone (`p = 0`) already loses to
    ///    `min(cost_scan(n), cost_bitmap(k))`, the layered path is
    ///    rejected unprobed;
    /// 2. otherwise one budgeted [`sebdb_index::LayeredIndex::probe`]
    ///    under the window mask scans that run and searches the
    ///    resident trees, and is abandoned as soon as Eq. 3 at the
    ///    pointers kept so far loses — the waste is at most the
    ///    crossover the equations define (≈ 26 pointers per table block
    ///    at the default [`sebdb_index::cost::CostParams`]);
    /// 3. a probe that finishes is the layered answer, `p` exact.
    ///
    /// `Strategy::Layered` runs the same probe without the budget.
    /// Pointers come back sorted by `(block, position)`, so a layered
    /// answer is in chain order like the bitmap and scan answers.
    pub(super) fn probe_range(
        &self,
        schema: &TableSchema,
        predicates: &[BoundPredicate],
        mask: &Bitmap,
        strategy: Strategy,
    ) -> Result<RangeProbe, ExecError> {
        // Which predicate can drive a layered index?
        let indexed = predicates.iter().find_map(|p| {
            let (lo, hi) = p.index_bounds()?;
            let column_name = column_name(schema, p.column)?;
            self.ledger
                .with_layered(Some(&schema.name), &column_name, |_| ())?;
            Some((column_name, KeyPredicate::Range(lo, hi)))
        });
        let n = mask.count_ones() as u64;
        // A forced layered query never weighs the block paths, so it
        // does not page the table bitmap for `k` either.
        let k = match strategy {
            Strategy::Layered => n,
            _ => self.table_blocks(&schema.name)?.and(mask).count_ones() as u64,
        };
        let cheaper_block_path = if k < n {
            Strategy::Bitmap
        } else {
            Strategy::Scan
        };
        let mut probe = RangeProbe {
            path: cheaper_block_path,
            driver: None,
            ptrs: Vec::new(),
            index_blocks: 0,
            rows_scanned: 0,
            n,
            k,
        };
        let Some((column_name, key_pred)) = indexed else {
            if strategy == Strategy::Layered {
                return Err(ExecError::Unsupported(format!(
                    "no layered index on table '{}' serves this predicate",
                    schema.name
                )));
            }
            // Without a usable layered index it is bitmap vs scan.
            return Ok(probe);
        };
        self.ledger
            .with_layered(Some(&schema.name), &column_name, |idx| {
                let spanned = idx.index_blocks_spanned(&key_pred);
                probe.index_blocks = spanned;
                // The cost model's verdict at `p` pointers; a forced
                // layered query probes to the end whatever it costs.
                let layered_holds = |p: usize| {
                    strategy == Strategy::Layered
                        || self.cost.choose_paged(n, k, p as u64, spanned) == AccessPath::Layered
                };
                if !layered_holds(0) {
                    return;
                }
                let found = idx.probe(&key_pred, mask, layered_holds);
                if found.complete {
                    probe.path = Strategy::Layered;
                }
                probe.ptrs = found.ptrs;
                probe.rows_scanned = found.scanned;
            })
            .ok_or_else(|| ExecError::Unsupported(format!("index on {} vanished", schema.name)))?;
        probe.driver = Some(column_name);
        Ok(probe)
    }
}

/// Every arm's filter over runs of extents: keeps
/// `schema`'s tuples inside `window` that satisfy every predicate,
/// each tested on its own column still encoded, and decodes only those
/// (co-located relations share an extent, hence the name test). Chain
/// order.
fn select_extents(
    extents: &[RawExtent],
    schema: &TableSchema,
    projection: &[String],
    predicates: &[BoundPredicate],
    window: Option<(Timestamp, Timestamp)>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut rows = Vec::new();
    'tuples: for tuple in extents.iter().flat_map(RawExtent::tuples) {
        let head = tuple.project().map_err(LedgerError::from)?;
        if !head.tname.eq_ignore_ascii_case(&schema.name) || !in_window(head.ts, window) {
            continue;
        }
        for p in predicates {
            let raw = tuple.column(&head, p.column).map_err(LedgerError::from)?;
            if !raw
                .map(|v| v.value())
                .transpose()?
                .is_some_and(|v| p.holds(&v))
            {
                continue 'tuples;
            }
        }
        rows.push(project(schema, projection, decode_row(&tuple)?)?);
    }
    Ok(rows)
}

pub(super) fn in_window(ts: Timestamp, window: Option<(Timestamp, Timestamp)>) -> bool {
    match window {
        None => true,
        Some((s, e)) => ts >= s && ts <= e,
    }
}

/// The *name* the layered-index registry knows a column by — the one
/// mapping every operator addresses the registry through.
pub(super) fn column_name(schema: &TableSchema, col: ColumnRef) -> Option<String> {
    Some(match col {
        ColumnRef::Tid => "tid".into(),
        ColumnRef::Ts => "ts".into(),
        ColumnRef::Sig => "sig".into(),
        ColumnRef::SenId => "sen_id".into(),
        ColumnRef::Tname => "tname".into(),
        ColumnRef::App(i) => schema.columns.get(i)?.name.to_ascii_lowercase(),
    })
}
