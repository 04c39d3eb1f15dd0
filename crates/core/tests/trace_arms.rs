//! `TRACE`'s arms against each other and against a whole-block oracle,
//! with what each reads.
//!
//! Two-dimension, operator-only and operation-only traces, windowed
//! and not, under Scan, Bitmap, Layered and `Auto` (with and without a
//! registered view), on three placements — eight relations' worth of
//! partitions for three relations (each alone), one partition (all
//! co-located), and nine relations on eight partitions (`transfer`
//! shares its partition with the ninth) — each with every index
//! resident, and with a frozen index prefix and a resident tail behind
//! an 8-block index cache. Every arm returns the oracle's rows in chain
//! order. With `transfer` alone in its partition the Layered
//! two-dimension arm reads exactly the tuples it keeps before the window
//! filter and touches no `tname` index block past the first level; the
//! Scan and Bitmap arms, and on an operation alone Layered and `Auto`,
//! read exactly the extents of the partitions they scan.

use sebdb::{Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::{Bitmap, KeyPredicate};
use sebdb_parallel::FLOOR_BLOCK;
use sebdb_sql::{LogicalPlan, TraceSpec};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Block, Codec, Timestamp, Transaction, Value};
use std::sync::Arc;

const BLOCKS: u64 = 80;
/// Blocks whose index entries are frozen in the checkpointed layouts.
const FROZEN: u64 = 48;
const TUPLES_PER_BLOCK: u64 = 6;
const A: KeyId = KeyId([1; 8]);
const B: KeyId = KeyId([2; 8]);
const C: KeyId = KeyId([3; 8]);
/// Cuts through blocks 20 and 45: their first tuples fall outside it.
const WINDOW: (Timestamp, Timestamp) = (20_003, 45_002);

/// One placement of relations over partitions.
struct Layout {
    name: &'static str,
    partitions: usize,
    /// Relations, `transfer` first: the order they are placed in.
    relations: &'static [&'static str],
    /// Whether `transfer` has its partition to itself.
    exclusive: bool,
}

const LAYOUTS: [Layout; 3] = [
    Layout {
        name: "exclusive",
        partitions: 8,
        relations: &["transfer", "donate", "distribute"],
        exclusive: true,
    },
    Layout {
        name: "co-located",
        partitions: 1,
        relations: &["transfer", "donate", "distribute"],
        exclusive: false,
    },
    Layout {
        name: "nine on eight",
        partitions: 8,
        relations: &[
            "transfer",
            "donate",
            "distribute",
            "r3",
            "r4",
            "r5",
            "r6",
            "r7",
            "r8",
        ],
        exclusive: false,
    },
];

/// Block `b`'s tuples: relations and senders rotate so every pair
/// meets; a 2 500-byte memo makes every relation scan cut into enough
/// runs to fan out.
fn block_txs(relations: &[&str], b: u64) -> Vec<Transaction> {
    (0..TUPLES_PER_BLOCK)
        .map(|slot| {
            let tname = relations[((b + slot) % relations.len() as u64) as usize];
            let sender = [A, B, C][((b * 7 + slot) % 3) as usize];
            let values = vec![
                Value::Int((b * 10 + slot) as i64),
                Value::str("m".repeat(2_500)),
            ];
            let mut tx = Transaction::new(b * 1000 + slot, sender, tname, values);
            tx.tid = b * TUPLES_PER_BLOCK + slot + 1;
            tx
        })
        .collect()
}

/// `layout`'s chain, its index prefix frozen when `frozen`.
fn ledger(layout: &Layout, frozen: bool) -> Ledger {
    let store = BlockStore::temporary(StoreConfig {
        partitions: layout.partitions,
        index_cache_blocks: frozen.then_some(8),
        ..StoreConfig::default()
    })
    .unwrap();
    let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([9; 32])).unwrap();
    for b in 0..BLOCKS {
        if frozen && b == FROZEN {
            assert!(ledger.checkpoint_indexes().unwrap() > 0);
        }
        let txs = block_txs(layout.relations, b);
        let block = OrderedBlock {
            seq: b,
            timestamp_ms: (b + 1) * 1000,
            txs,
        };
        ledger.append_ordered(block).unwrap();
    }
    let all: Vec<u64> = (0..BLOCKS).collect();
    let runs = ledger.store().relation_runs(&all, "transfer").len();
    assert!(runs >= 2 * FLOOR_BLOCK, "{}: {runs} runs", layout.name);
    ledger
}

/// One trace: its dimensions and window.
#[derive(Debug, Clone, Copy)]
struct Trace {
    operator: Option<KeyId>,
    operation: Option<&'static str>,
    window: Option<(Timestamp, Timestamp)>,
}

impl Trace {
    fn plan(&self) -> LogicalPlan {
        LogicalPlan::Trace {
            window: self.window,
            operator: self.operator.map(|k| Value::Bytes(k.as_bytes().to_vec())),
            operation: self.operation.map(str::to_owned),
        }
    }

    fn spec(&self) -> TraceSpec {
        TraceSpec::new(self.window, self.operator.map(|k| k.0), self.operation)
    }

    /// Whether `tx` is one of the trace's tuples, window aside.
    fn dims_match(&self, tx: &Transaction) -> bool {
        self.operator.is_none_or(|op| tx.sender == op)
            && self.operation.is_none_or(|t| tx.tname == t)
    }
}

fn traces() -> Vec<Trace> {
    let dims: [(Option<KeyId>, Option<&'static str>); 3] = [
        (Some(A), Some("transfer")),
        (Some(A), None),
        (None, Some("transfer")),
    ];
    dims.into_iter()
        .flat_map(|(operator, operation)| {
            [None, Some(WINDOW)].map(|window| Trace {
                operator,
                operation,
                window,
            })
        })
        .collect()
}

/// Every block of the chain, decoded whole.
fn chain(ledger: &Ledger) -> Vec<Arc<Block>> {
    (0..BLOCKS).map(|b| ledger.read_block(b).unwrap()).collect()
}

/// A tracking row as every arm materializes it.
fn row(tx: &Transaction) -> Vec<Value> {
    let mut row = vec![
        Value::Int(tx.tid as i64),
        Value::Timestamp(tx.ts),
        Value::Bytes(tx.sig.clone()),
        Value::Bytes(tx.sender.as_bytes().to_vec()),
        Value::Str(tx.tname.clone()),
    ];
    row.extend(tx.values.iter().cloned());
    row
}

/// The trace's rows from whole blocks, in chain order.
fn oracle(chain: &[Arc<Block>], trace: &Trace) -> Vec<Vec<Value>> {
    let in_window = |ts| trace.window.is_none_or(|(s, e)| (s..=e).contains(&ts));
    chain
        .iter()
        .flat_map(|b| &b.transactions)
        .filter(|tx| trace.dims_match(tx) && in_window(tx.ts))
        .map(row)
        .collect()
}

fn run(ledger: &Ledger, trace: &Trace, strategy: Strategy) -> Vec<Vec<Value>> {
    let exec = Executor::new(ledger, None);
    exec.execute(&trace.plan(), strategy).unwrap().rows
}

/// `(txs_read, bytes_read, index blocks touched)` that `f` costs.
fn cost(ledger: &Ledger, f: impl FnOnce()) -> (u64, u64, u64) {
    let stats = &ledger.store().stats;
    let now = || {
        let (hits, misses) = stats.index_cache_counts();
        (stats.snapshot().2, stats.bytes_read(), hits + misses)
    };
    let before = now();
    f();
    let after = now();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn every_arm_returns_the_oracle_rows_in_chain_order() {
    for layout in &LAYOUTS {
        for frozen in [false, true] {
            let ledger = ledger(layout, frozen);
            let chain = chain(&ledger);
            for trace in traces() {
                let want = oracle(&chain, &trace);
                assert!(!want.is_empty(), "{trace:?}");
                let at = format!("{} frozen={frozen} {trace:?}", layout.name);
                for strategy in [
                    Strategy::Scan,
                    Strategy::Bitmap,
                    Strategy::Layered,
                    Strategy::Auto,
                ] {
                    assert_eq!(run(&ledger, &trace, strategy), want, "{at} {strategy:?}");
                }
                assert!(ledger.register_trace_view(trace.spec()).unwrap());
                assert_eq!(run(&ledger, &trace, Strategy::Auto), want, "{at} view");
            }
            assert_eq!(ledger.trace_views().stats().snapshot().3, 6);
        }
    }
}

/// With `transfer` alone in its partition the two-dimension Layered
/// arm fetches exactly the operator's `transfer` tuples in the window's
/// blocks — what it keeps before the window filter — and touches the
/// index blocks of three first levels and one second level; `tname`
/// has no second level to search (it keeps no tree). Sharing the
/// partition only adds tuples read, never rows.
#[test]
fn the_two_dimension_layered_arm_reads_only_what_it_keeps() {
    for layout in &LAYOUTS {
        for frozen in [false, true] {
            let ledger = ledger(layout, frozen);
            let chain = chain(&ledger);
            let exec = Executor::new(&ledger, None);
            for window in [None, Some(WINDOW)] {
                let trace = Trace {
                    operator: Some(A),
                    operation: Some("transfer"),
                    window,
                };
                let at = format!("{} frozen={frozen} {window:?}", layout.name);
                let blocks = ledger.window_mask(window);
                let kept = blocks
                    .iter_ones()
                    .flat_map(|b| &chain[b].transactions)
                    .filter(|tx| trace.dims_match(tx))
                    .count() as u64;
                let mut rows = 0;
                let (txs, _, touched) = cost(&ledger, || {
                    rows = run(&ledger, &trace, Strategy::Layered).len() as u64;
                });
                assert!(rows <= kept, "{at}");
                if !layout.exclusive {
                    assert!(txs >= kept, "{at}: {txs} tuples read, {kept} kept");
                    continue;
                }
                assert_eq!(txs, kept, "{at}");
                // The index work the arm does, step by step.
                let operator = KeyPredicate::Eq(Value::Bytes(A.as_bytes().to_vec()));
                let mut mask = Bitmap::new();
                let (_, _, first_levels) = cost(&ledger, || {
                    mask = blocks
                        .and(&exec.sender_blocks(&A).unwrap())
                        .and(&exec.table_blocks("transfer").unwrap());
                });
                let search = |column: &str, pred: &KeyPredicate| {
                    cost(&ledger, || {
                        ledger.with_layered(None, column, |idx| idx.search(pred, &mask));
                    })
                    .2
                };
                let sen_id = search("sen_id", &operator);
                assert_eq!(touched, first_levels + sen_id, "{at}");
                let tname = ledger.with_layered(None, "tname", |idx| idx.keeps_trees());
                assert_eq!(tname, Some(false), "{at}");
            }
        }
    }
}

/// The Scan and Bitmap arms read each block's extent in every
/// partition they scan — the operation's, or every partition for the
/// operator alone — once, and nothing else; so do Layered and `Auto` on
/// an operation alone, which run the Bitmap arm.
#[test]
fn scan_and_bitmap_arms_read_only_the_scanned_extents() {
    for layout in &LAYOUTS {
        let ledger = ledger(layout, false);
        let chain = chain(&ledger);
        let store = ledger.store();
        let exec = Executor::new(&ledger, None);
        for trace in traces() {
            let scanned = |tx: &Transaction| {
                trace
                    .operation
                    .is_none_or(|t| store.partition_of(&tx.tname) == store.partition_of(t))
            };
            let mut strategies = vec![Strategy::Scan, Strategy::Bitmap];
            if trace.operator.is_none() {
                strategies.extend([Strategy::Layered, Strategy::Auto]);
            }
            for strategy in strategies {
                let mut blocks = ledger.window_mask(trace.window);
                if strategy != Strategy::Scan {
                    if let Some(op) = &trace.operator {
                        blocks = blocks.and(&exec.sender_blocks(op).unwrap());
                    }
                    if let Some(t) = trace.operation {
                        blocks = blocks.and(&exec.table_blocks(t).unwrap());
                    }
                }
                let extents: u64 = blocks
                    .iter_ones()
                    .flat_map(|b| &chain[b].transactions)
                    .filter(|tx| scanned(tx))
                    .map(|tx| tx.to_bytes().len() as u64)
                    .sum();
                let (txs, bytes, _) = cost(&ledger, || {
                    run(&ledger, &trace, strategy);
                });
                let at = format!("{} {trace:?} {strategy:?}", layout.name);
                assert_eq!(bytes, extents, "{at}");
                assert_eq!(txs, 0, "{at}");
            }
        }
    }
}
