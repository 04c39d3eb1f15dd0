//! Window-boundary semantics of tracking (`TRACE`), pinned across all
//! three physical strategies, plus the operator-operand error
//! contract.
//!
//! Both window edges are inclusive (§V-A: `t_s ≤ ts ≤ t_e`); a window
//! that selects no timestamps yields an empty result, not an error;
//! and answers must not depend on whether the matching blocks live in
//! a frozen (checkpointed) index prefix or the resident tail.

use sebdb::{Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::LogicalPlan;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Timestamp, Transaction, Value};
use std::sync::Arc;

const ORG: KeyId = KeyId([5; 8]);

fn signer() -> MacKeypair {
    MacKeypair::from_key([7u8; 32])
}

/// One block per second of logical time: block `b` carries three
/// `donate` tuples at `ts = 1_000·(b+1)` exactly, so a window edge can
/// land precisely on, just before, or just after a block's timestamp.
fn block_at(seq: u64) -> OrderedBlock {
    let ts = 1_000 * (seq + 1);
    let mut txs: Vec<Transaction> = (0..3)
        .map(|i| Transaction::new(ts, ORG, "donate", vec![Value::Int((seq * 10 + i) as i64)]))
        .collect();
    for (i, tx) in txs.iter_mut().enumerate() {
        tx.tid = seq * 100 + i as u64 + 1;
    }
    OrderedBlock {
        seq,
        timestamp_ms: ts,
        txs,
    }
}

fn ledger_with(blocks: u64) -> Ledger {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();
    for seq in 0..blocks {
        ledger.append_ordered(block_at(seq)).unwrap();
    }
    ledger
}

fn trace_rows(
    ledger: &Ledger,
    window: Option<(Timestamp, Timestamp)>,
    strategy: Strategy,
) -> Vec<Vec<Value>> {
    let plan = LogicalPlan::Trace {
        window,
        operator: None,
        operation: Some("donate".into()),
    };
    Executor::new(ledger, None)
        .execute(&plan, strategy)
        .unwrap()
        .rows
}

const STRATEGIES: [Strategy; 3] = [Strategy::Scan, Strategy::Bitmap, Strategy::Layered];

#[test]
fn window_edges_are_inclusive_on_both_ends() {
    let ledger = ledger_with(8);
    for strategy in STRATEGIES {
        // Degenerate window [ts, ts] pins exactly one block's tuples.
        let rows = trace_rows(&ledger, Some((3_000, 3_000)), strategy);
        assert_eq!(rows.len(), 3, "{strategy:?}");
        for row in &rows {
            assert_eq!(row[1], Value::Timestamp(3_000));
        }
        // [ts_b, ts_{b+2}] spans three blocks, both edges included.
        let rows = trace_rows(&ledger, Some((3_000, 5_000)), strategy);
        assert_eq!(rows.len(), 9, "{strategy:?}");
        // Shrinking either edge by one tick drops exactly one block.
        assert_eq!(trace_rows(&ledger, Some((3_001, 5_000)), strategy).len(), 6);
        assert_eq!(trace_rows(&ledger, Some((3_000, 4_999)), strategy).len(), 6);
    }
}

#[test]
fn windows_selecting_no_timestamps_are_empty_not_errors() {
    let ledger = ledger_with(8);
    for strategy in STRATEGIES {
        // Strictly between two block timestamps.
        assert!(trace_rows(&ledger, Some((3_001, 3_999)), strategy).is_empty());
        // Inverted window (start > end).
        assert!(trace_rows(&ledger, Some((5_000, 3_000)), strategy).is_empty());
        // Entirely before the chain, entirely after the tip.
        assert!(trace_rows(&ledger, Some((0, 999)), strategy).is_empty());
        assert!(trace_rows(&ledger, Some((9_000, 90_000)), strategy).is_empty());
    }
}

/// Frozen-prefix vs resident-tail: checkpoint mid-chain so blocks
/// `0..6` serve from the frozen index pages while `6..12` stay in the
/// resident tail, then probe windows entirely inside the prefix,
/// entirely inside the tail, and straddling the seam.
#[test]
fn windows_answer_identically_across_frozen_prefix_and_resident_tail() {
    let cfg = StoreConfig {
        sync_writes: false,
        index_cache_blocks: Some(8),
        ..StoreConfig::default()
    };
    let store = Arc::new(BlockStore::temporary(cfg).unwrap());
    let ledger = Ledger::new(store, signer()).unwrap();
    for seq in 0..6 {
        ledger.append_ordered(block_at(seq)).unwrap();
    }
    assert!(ledger.checkpoint_indexes().unwrap() > 0);
    for seq in 6..12 {
        ledger.append_ordered(block_at(seq)).unwrap();
    }
    // (window, expected blocks matched)
    let cases: [((Timestamp, Timestamp), usize); 5] = [
        ((1_000, 4_000), 4),  // entirely frozen
        ((8_000, 11_000), 4), // entirely tail
        ((5_000, 8_000), 4),  // straddles the seam
        ((6_000, 7_000), 2),  // the two blocks around the seam
        ((1_000, 12_000), 12),
    ];
    for (window, blocks) in cases {
        for strategy in STRATEGIES {
            let rows = trace_rows(&ledger, Some(window), strategy);
            assert_eq!(rows.len(), blocks * 3, "{strategy:?} window {window:?}");
            assert!(rows.iter().all(
                |r| matches!(&r[1], Value::Timestamp(ts) if (window.0..=window.1)
                    .contains(ts))
            ));
        }
    }
}

/// Satellite regression: a `TRACE ... BY OPERATOR` whose operand is
/// still a raw string at execution time (i.e. it bypassed the node
/// layer's name registry) fails with one uniform message about the
/// operand shape — the executor no longer leaks the node layer's
/// resolution responsibility into its error text.
#[test]
fn string_operator_reaching_the_executor_is_one_uniform_error() {
    let ledger = ledger_with(2);
    let exec = Executor::new(&ledger, None);
    for operator in [
        Value::str("alice"),         // unresolved name
        Value::Int(7),               // wrong type entirely
        Value::Bytes(vec![1, 2, 3]), // wrong length
    ] {
        let plan = LogicalPlan::Trace {
            window: None,
            operator: Some(operator.clone()),
            operation: None,
        };
        for strategy in [Strategy::Scan, Strategy::Layered, Strategy::Auto] {
            let err = exec.execute(&plan, strategy).unwrap_err().to_string();
            assert!(
                err.contains("operator must be 8 sender-id bytes"),
                "operand {operator:?} under {strategy:?}: got {err:?}"
            );
            assert!(
                !err.to_lowercase().contains("node layer"),
                "executor error leaks layering: {err:?}"
            );
        }
    }
}
