//! The work each read does, pinned: over one fixed, seeded chain, a
//! layered Q4 range, a Q4 point lookup, `GET BLOCK TID` (which reads
//! its block through `Ledger::read_block`)
//! and an authenticated range each move the store's `IoStats`
//! (`blocks_read`, `txs_read`, `bytes_read`) and issue positioned reads
//! (counted with the store's read probe) by exactly the constants
//! below; so do a `Bitmap`-arm on-chain hash join and an on-off hash
//! join against a small off-chain table, an operation-only and a
//! two-dimension `TRACE`, and a `Layered` on-off join over a frozen
//! index (with the index blocks it touches), and an authenticated range
//! over frozen blocks wider than one MB-tree page (with its VO bytes and
//! the index blocks it touches). Each index family's checkpoint entries
//! and bytes and its resident bytes are pinned too, and so is a
//! tracking view's work: none to register it, none beyond a plain
//! reopen to load it, none to serve it caught up, and one block's
//! tracking walk to serve it one block behind.
//! A change to the read front or to what an index keeps shows here as
//! a changed count.

use sebdb::{serve_authenticated_query, Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::KeyPredicate;
use sebdb_offchain::OffchainDb;
use sebdb_sql::{
    BoundBlockSelector, BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan, TraceSpec,
};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, ColumnRef, DataType, TableSchema, Transaction, Value};
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
/// `donate.donor ⋈ transfer.memo` (Q5's Bitmap arm): each relation's
/// partition extents of its 40 blocks in one run; no tuple is fetched
/// by pointer.
const Q5_BITMAP: Work = (80, 0, 20023, 2);
/// `donate.donor ⋈ off-chain memoinfo.memo` (Q6's hash arm): `donate`'s
/// run alone; the off-chain side reads no chain byte.
const Q6_HASH: Work = (40, 0, 13927, 1);

/// splitmix64: the chain's amounts, memos and senders.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn transfer() -> TableSchema {
    TableSchema::new("transfer", vec![Column::new("memo", DataType::Str)])
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

/// [`chain_of`] at [`BLOCKS`] × [`TUPLES_PER_BLOCK`].
fn chain() -> Ledger {
    chain_of(BLOCKS, TUPLES_PER_BLOCK)
}

/// [`chain_in`] on a temporary store.
fn chain_of(blocks: u64, tuples_per_block: u64) -> Ledger {
    chain_in(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        blocks,
        tuples_per_block,
    )
}

fn signer() -> MacKeypair {
    MacKeypair::from_key([7; 32])
}

/// Two-thirds `donate` (a random amount and a memo of random length),
/// one-third `transfer`, so a block's tuples span two partitions.
fn chain_in(store: Arc<BlockStore>, blocks: u64, tuples_per_block: u64) -> Ledger {
    let ledger = Ledger::new(store, signer()).unwrap();
    let mut rng = SEED;
    let mut tid = 1;
    for b in 0..blocks {
        let txs = (0..tuples_per_block)
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
    store_work(ledger.store(), f)
}

/// The work `f` does against `store`.
fn store_work<T>(store: &BlockStore, f: impl FnOnce() -> T) -> (T, Work) {
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

#[test]
fn each_join_does_the_pinned_work() {
    let ledger = chain();
    let db = Arc::new(OffchainDb::new());
    let off_columns = vec![
        Column::new("memo", DataType::Str),
        Column::new("rank", DataType::Int),
    ];
    db.create_table("memoinfo", off_columns.clone()).unwrap();
    let conn = db.connect();
    // Memos of 0, 8, … 56 characters; a duplicate key among them.
    for (rank, len) in [0, 8, 16, 24, 32, 40, 48, 56, 8].into_iter().enumerate() {
        let row = vec![Value::Str("m".repeat(len)), Value::Int(rank as i64)];
        conn.insert("memoinfo", row).unwrap();
    }
    let exec = Executor::new(&ledger, Some(&conn));
    let q5 = LogicalPlan::OnChainJoin {
        left: donate(),
        right: transfer(),
        left_col: ColumnRef::App(0),
        right_col: ColumnRef::App(0),
        window: None,
    };
    let (rows, w) = work(&ledger, || exec.execute(&q5, Strategy::Bitmap).unwrap());
    assert!(rows.len() > 10, "{} rows", rows.len());
    let q6 = LogicalPlan::OnOffJoin {
        on_table: donate(),
        on_col: ColumnRef::App(0),
        off_table: "memoinfo".into(),
        off_col: 0,
        off_columns,
        window: None,
    };
    let (rows, w1) = work(&ledger, || exec.execute(&q6, Strategy::Bitmap).unwrap());
    assert!(rows.len() > 10, "{} rows", rows.len());
    assert_eq!((w, w1), (Q5_BITMAP, Q6_HASH));
}

/// `TRACE OPERATION = "transfer"` under `Auto`: the Bitmap arm, the
/// relation scan of `transfer`'s partition in the 40 blocks `tname`'s
/// first level names, in one run; no tuple is fetched by pointer.
const TRACE_OPERATION: Work = (40, 0, 6096, 1);
/// `TRACE OPERATOR = <sender 1>, OPERATION = "transfer"` under `Auto`:
/// the `sen_id` pointers the tuple table keeps, in one pointer run.
const TRACE_TWO_DIMENSIONS: Work = (0, 26, 5746, 1);

#[test]
fn each_trace_does_the_pinned_work() {
    let ledger = chain();
    let exec = Executor::new(&ledger, None);
    let trace = |operator: Option<KeyId>| LogicalPlan::Trace {
        window: None,
        operator: operator.map(|k| Value::Bytes(k.as_bytes().to_vec())),
        operation: Some("transfer".into()),
    };
    let (rows, w) = work(&ledger, || {
        exec.execute(&trace(None), Strategy::Auto).unwrap()
    });
    assert_eq!(rows.len() as u64, BLOCKS * TUPLES_PER_BLOCK / 3);
    let (rows, w1) = work(&ledger, || {
        exec.execute(&trace(Some(KeyId([1; 8]))), Strategy::Auto)
            .unwrap()
    });
    assert!(rows.len() > 10, "{} rows", rows.len());
    assert_eq!((w, w1), (TRACE_OPERATION, TRACE_TWO_DIMENSIONS));
}

/// Reopening the [`chain`] on disk, with or without a registered view:
/// the restart replay of its 40 blocks, then the tip block for its
/// hash.
const REOPEN: Work = (41, 0, 26614, 123);
/// `TRACE OPERATOR = <sender 1>, OPERATION = "transfer"` served from its
/// view one block behind: the Layered walk over the appended block, one
/// `sen_id` pointer the tuple table keeps, in one pointer run.
const VIEW_SERVE_ONE_BLOCK: Work = (0, 1, 50, 1);
const NOTHING: Work = (0, 0, 0, 0);

#[test]
fn a_view_reads_only_the_blocks_a_serve_appends() {
    let dir = std::env::temp_dir().join(format!("sebdb-readwork-view-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reopen = || {
        let store = Arc::new(BlockStore::open(&dir, StoreConfig::default()).unwrap());
        store_work(&store, || {
            Ledger::new(Arc::clone(&store), signer()).unwrap()
        })
    };
    let store = Arc::new(BlockStore::open(&dir, StoreConfig::default()).unwrap());
    drop(chain_in(store, BLOCKS, TUPLES_PER_BLOCK));
    let spec = TraceSpec::new(None, Some([1; 8]), Some("transfer"));
    let (ledger, plain) = reopen();
    let (registered, w) = work(&ledger, || ledger.register_trace_view(spec.clone()));
    assert!(registered.unwrap());
    drop(ledger);
    let (ledger, viewed) = reopen();
    let serve = || ledger.serve_trace_view(&spec).unwrap().unwrap();
    let backfilled = serve().len();
    let (_, w1) = work(&ledger, serve);
    let sender = KeyId([1; 8]);
    let mut txs = vec![
        Transaction::new(BLOCKS * 1000, sender, "transfer", vec![Value::str("m")]),
        Transaction::new(
            BLOCKS * 1000 + 1,
            KeyId([2; 8]),
            "transfer",
            vec![Value::str("m")],
        ),
        Transaction::new(
            BLOCKS * 1000 + 2,
            sender,
            "donate",
            vec![Value::str("m"), Value::decimal(1)],
        ),
    ];
    for (i, tx) in txs.iter_mut().enumerate() {
        tx.tid = BLOCKS * TUPLES_PER_BLOCK + 1 + i as u64;
    }
    let block = OrderedBlock {
        seq: BLOCKS,
        timestamp_ms: (BLOCKS + 1) * 1000,
        txs,
    };
    ledger.append_ordered(block).unwrap();
    let (served, w2) = work(&ledger, serve);
    assert_eq!(served.len(), backfilled + 1);
    drop(ledger);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (w, plain, viewed, w1, w2),
        (NOTHING, REOPEN, REOPEN, NOTHING, VIEW_SERVE_ONE_BLOCK)
    );
}

/// A `Layered` on-off join on `donate.amount` against three amounts
/// the chain holds and one it does not, over the frozen index: its
/// `Work` (`bytes_read` counts the index blocks read on a miss too) and
/// the index blocks it touches — the all-blocks bitmap, which answers
/// the frozen half's range test, and the sweep of the value-ordered
/// run.
const Q6_LAYERED_FROZEN: (Work, u64) = ((0, 3, 14911, 2), 3);

#[test]
fn a_frozen_layered_onoff_join_does_the_pinned_work() {
    let ledger = chain();
    let db = Arc::new(OffchainDb::new());
    let off_columns = vec![
        Column::new("amount", DataType::Decimal),
        Column::new("note", DataType::Str),
    ];
    db.create_table("grants", off_columns.clone()).unwrap();
    let conn = db.connect();
    let mut keys: Vec<Value> = [5, 17, 30]
        .into_iter()
        .map(|b| ledger.read_block(b).unwrap().transactions[0].values[1].clone())
        .collect();
    keys.push(Value::decimal(100_001));
    for key in keys {
        conn.insert("grants", vec![key, Value::str("n")]).unwrap();
    }
    assert!(ledger.checkpoint_indexes().unwrap() > 0);
    let q6 = LogicalPlan::OnOffJoin {
        on_table: donate(),
        on_col: ColumnRef::App(1),
        off_table: "grants".into(),
        off_col: 0,
        off_columns,
        window: None,
    };
    let exec = Executor::new(&ledger, Some(&conn));
    let stats = &ledger.store().stats;
    let touched = || {
        let (hits, misses) = stats.index_cache_counts();
        hits + misses
    };
    let before = touched();
    let (rows, w) = work(&ledger, || exec.execute(&q6, Strategy::Layered).unwrap());
    assert_eq!(rows.len(), 3);
    assert_eq!((w, touched() - before), Q6_LAYERED_FROZEN);
}

/// An authenticated range over 8 frozen blocks of 150 tuples, ≈ 100
/// `donate` rows each — several MB-tree pages a block, so the fanout
/// sets how much of each visited block a proof hashes and ships. Pinned:
/// the blocks visited (all 8), the VO's bytes, the `Work` of serving it
/// (18 tuples in one pointer run, and each visited block's leaf list
/// read past the cache) and the index blocks it touches through the
/// cache (the probe's, and each visited block's root).
const AUTH_RANGE_FROZEN: (usize, usize, Work, u64) = (8, 6802, (0, 18, 71785, 9), 10);

#[test]
fn a_frozen_authenticated_range_over_wide_blocks_does_the_pinned_work() {
    let ledger = chain_of(8, 150);
    assert!(ledger.checkpoint_indexes().unwrap() > 0);
    let stats = &ledger.store().stats;
    let touched = || {
        let (hits, misses) = stats.index_cache_counts();
        hits + misses
    };
    let pred = KeyPredicate::Range(Value::decimal(40_000), Value::decimal(42_000));
    let before = touched();
    let (response, w) = work(&ledger, || {
        serve_authenticated_query(&ledger, Some("donate"), "amount", &pred, None).unwrap()
    });
    assert!(response.vo.per_block.iter().all(|b| b.proof.total > 64));
    let blocks = response.vo.per_block.len();
    assert_eq!(
        (blocks, response.vo_bytes(), w, touched() - before),
        AUTH_RANGE_FROZEN
    );
}

/// Per family after the chain, fully resident: the checkpoint's entry
/// count and key + value bytes, and the family's resident bytes; then
/// `Ledger::index_memory_bytes` over all three. `tname` is its first
/// level (the all-blocks bitmap and one bitmap per relation), and
/// `amount` checkpoints no bucket bitmap.
const FAMILIES: [(&str, usize, usize, usize); 3] = [
    ("sen_id", 324, 21675, 22024),
    ("tname", 3, 51, 374),
    ("amount", 241, 14169, 14832),
];
const INDEX_MEMORY: usize = 37230;

#[test]
fn each_family_keeps_the_pinned_bytes() {
    let ledger = chain();
    let got: Vec<(&str, usize, usize, usize)> = [
        (None, "sen_id"),
        (None, "tname"),
        (Some("donate"), "amount"),
    ]
    .into_iter()
    .map(|(table, column)| {
        ledger
            .with_layered(table, column, |idx| {
                let cp = idx.checkpoint();
                let bytes = cp.entries.iter().map(|(k, v)| k.len() + v.len()).sum();
                (column, cp.entries.len(), bytes, idx.memory_bytes())
            })
            .unwrap()
    })
    .collect();
    assert_eq!(
        (got.as_slice(), ledger.index_memory_bytes()),
        (&FAMILIES[..], INDEX_MEMORY)
    );
    // `tname` holds no tree, and checkpoints its all-blocks bitmap
    // (`0x00`) and per-relation bitmaps (`0x02`) alone.
    let (trees, tags) = ledger
        .with_layered(None, "tname", |idx| {
            let cp = idx.checkpoint();
            (
                idx.keeps_trees(),
                cp.entries.iter().map(|(k, _)| k[0]).collect::<Vec<u8>>(),
            )
        })
        .unwrap();
    assert_eq!((trees, tags), (false, vec![0x00, 0x02, 0x02]));
}
