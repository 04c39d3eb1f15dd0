//! The work each read does, pinned: over one fixed, seeded chain, a
//! layered Q4 range, a Q4 point lookup, `GET BLOCK TID` (which reads
//! its block through `Ledger::read_block`, as a view's catch-up does)
//! and an authenticated range each move the store's `IoStats`
//! (`blocks_read`, `txs_read`, `bytes_read`) and issue positioned reads
//! (counted with the store's read probe) by exactly the constants
//! below. A change to the read front that moves a read's work shows
//! here as a changed count.

use sebdb::{serve_authenticated_query, Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::KeyPredicate;
use sebdb_sql::{BoundBlockSelector, BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCKS: u64 = 40;
const TUPLES_PER_BLOCK: u64 = 6;
const SEED: u64 = 0x5EB0_DB42;

/// `(blocks_read, txs_read, bytes_read, positioned reads)` of one read.
type Work = (u64, u64, u64, u64);

/// One pointer run: the 41 wanted `donate` tuples and the gaps between
/// them, all of the relation's partition (under `SCAN_RUN_BYTES`).
const Q4_RANGE: Work = (0, 41, 13553, 1);
const Q4_POINT: Work = (0, 1, 102, 1);
/// The block (one chain record, two partition extents), then its
/// header again for the row.
const GET_BLOCK_TID: Work = (1, 0, 801, 4);
const AUTH_RANGE: Work = (0, 41, 13553, 1);

/// splitmix64: the chain's amounts, memos and senders.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn donate() -> TableSchema {
    TableSchema::new(
        "donate",
        vec![
            Column::new("donor", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// Two-thirds `donate` (a random amount and a memo of random length),
/// one-third `transfer`, so a block's tuples span two partitions.
fn chain() -> Ledger {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        MacKeypair::from_key([7; 32]),
    )
    .unwrap();
    let mut rng = SEED;
    let mut tid = 1;
    for b in 0..BLOCKS {
        let txs = (0..TUPLES_PER_BLOCK)
            .map(|i| {
                let sender = KeyId([1 + (next(&mut rng) % 3) as u8; 8]);
                let memo = "m".repeat((next(&mut rng) % 64) as usize);
                let mut t = if i % 3 == 2 {
                    Transaction::new(b * 1000 + i, sender, "transfer", vec![Value::Str(memo)])
                } else {
                    let amount = (next(&mut rng) % 100_000) as i64;
                    let values = vec![Value::Str(memo), Value::decimal(amount)];
                    Transaction::new(b * 1000 + i, sender, "donate", values)
                };
                t.tid = tid;
                tid += 1;
                t
            })
            .collect();
        let block = OrderedBlock {
            seq: b,
            timestamp_ms: (b + 1) * 1000,
            txs,
        };
        ledger.append_ordered(block).unwrap();
    }
    ledger
        .create_layered_index(&donate(), "amount", None)
        .unwrap();
    ledger
}

/// The work `f` does against `ledger`'s store.
fn work<T>(ledger: &Ledger, f: impl FnOnce() -> T) -> (T, Work) {
    let store = ledger.store();
    let preads = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&preads);
    store.read_gauges().set_read_probe(Some(Box::new(move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let ((b0, _, t0), y0) = (store.stats.snapshot(), store.stats.bytes_read());
    let out = f();
    let ((b1, _, t1), y1) = (store.stats.snapshot(), store.stats.bytes_read());
    store.read_gauges().set_read_probe(None);
    let w = (b1 - b0, t1 - t0, y1 - y0, preads.load(Ordering::Relaxed));
    (out, w)
}

fn q4(kind: BoundPredicateKind) -> LogicalPlan {
    let schema = donate();
    LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: schema.resolve("amount").unwrap(),
            kind,
        }],
        schema,
        projection: vec![],
        window: None,
    }
}

#[test]
fn each_read_does_the_pinned_work() {
    let ledger = chain();
    let exec = Executor::new(&ledger, None);
    let range = q4(BoundPredicateKind::Between(
        Value::decimal(20_000),
        Value::decimal(45_000),
    ));
    let (rows, w) = work(&ledger, || exec.execute(&range, Strategy::Layered).unwrap());
    assert!(rows.len() > 10, "{} rows", rows.len());

    // Block 17's first tuple is a donate; its amount picks it alone.
    let target = ledger.read_block(17).unwrap().transactions[0].clone();
    let point = q4(BoundPredicateKind::Compare(
        CompareOp::Eq,
        target.values[1].clone(),
    ));
    let (rows, w1) = work(&ledger, || exec.execute(&point, Strategy::Layered).unwrap());
    assert_eq!(rows.len(), 1);

    let get = LogicalPlan::GetBlock(BoundBlockSelector::ByTid(target.tid));
    let (rows, w2) = work(&ledger, || exec.execute(&get, Strategy::Auto).unwrap());
    assert_eq!(rows.len(), 1);

    let pred = KeyPredicate::Range(Value::decimal(20_000), Value::decimal(45_000));
    let (response, w3) = work(&ledger, || {
        serve_authenticated_query(&ledger, Some("donate"), "amount", &pred, None).unwrap()
    });
    assert!(response.transactions.len() > 10);
    assert_eq!(
        (w, w1, w2, w3),
        (Q4_RANGE, Q4_POINT, GET_BLOCK_TID, AUTH_RANGE)
    );
}
