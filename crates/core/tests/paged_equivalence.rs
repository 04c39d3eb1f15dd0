//! Paged-index vs fully-resident equivalence (DESIGN §13 acceptance).
//!
//! The disk-resident partitioned indexes — frozen checkpoints served
//! through the resident fence-pointer top level and the bounded
//! index-block cache — must be an invisible representation change:
//! every query suite (point, range, tracking, join) answers
//! byte-identically to the fully-resident reference (no checkpoints,
//! the `cache=∞` configuration), at applier lane counts 1 and 4, with
//! a cold and a warm index-block cache, and across a restart that
//! replays only the tail behind the newest checkpoints.
//!
//! CI drives this suite at both `SEBDB_THREADS=1` and `SEBDB_THREADS=4`.

use sebdb::{ApplyPipeline, Executor, Ledger, QueryResult, SchemaManager, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Codec, Column, DataType, TableSchema, Transaction, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SENDER: KeyId = KeyId([4; 8]);
const BLOCKS: u64 = 120;
/// Mid-chain cadence: the final checkpoints freeze blocks `[0, 112)`
/// and leave an 8-block resident tail, so queries cross the
/// frozen/tail seam.
const CHECKPOINT_EVERY: u64 = 16;

fn signer() -> MacKeypair {
    MacKeypair::from_key([11u8; 32])
}

fn donate_schema(n: u64) -> TableSchema {
    TableSchema::new(
        format!("donate{n}"),
        vec![
            Column::new("donor", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// Mixed DDL/insert blocks with fixed timestamps so two runs seal
/// bit-for-bit identical blocks (same workload as the pipeline
/// equivalence suite).
fn mixed_blocks(count: u64) -> Vec<OrderedBlock> {
    let mut tid = 1u64;
    (0..count)
        .map(|seq| {
            let ts = 10_000 + seq;
            let mut txs = Vec::new();
            if seq % 10 == 0 {
                txs.push(SchemaManager::schema_transaction(
                    &donate_schema(seq / 10),
                    ts,
                    SENDER,
                ));
            }
            let created = seq / 10 + 1;
            for i in 0..5u64 {
                let table = format!("donate{}", (seq / 10).saturating_sub(i % created));
                txs.push(Transaction::new(
                    ts,
                    SENDER,
                    &table,
                    vec![Value::str("d"), Value::decimal((seq * 5 + i) as i64 % 97)],
                ));
            }
            for tx in &mut txs {
                tx.tid = tid;
                tid += 1;
            }
            OrderedBlock {
                seq,
                timestamp_ms: ts,
                txs,
            }
        })
        .collect()
}

/// Drives `blocks` through an [`ApplyPipeline`] over `store` with the
/// given depth, lane count, and index-checkpoint cadence (`0` = never
/// checkpoint — the fully-resident reference).
fn run_lanes_on(
    store: Arc<BlockStore>,
    depth: usize,
    lanes: usize,
    checkpoint_every: u64,
    blocks: &[OrderedBlock],
) -> (Arc<Ledger>, Arc<SchemaManager>) {
    let ledger = Arc::new(Ledger::new(store, signer()).unwrap());
    ledger.set_checkpoint_every(checkpoint_every);
    let schemas = Arc::new(SchemaManager::new(None));
    let stopped = Arc::new(AtomicBool::new(false));
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut pipe = ApplyPipeline::start_with_lanes(
        Arc::clone(&ledger),
        Arc::clone(&schemas),
        rx,
        Arc::clone(&stopped),
        depth,
        lanes,
    );
    for b in blocks {
        tx.send(b.clone()).unwrap();
    }
    assert!(
        ledger.wait_for_height(
            blocks.len() as u64,
            Instant::now() + Duration::from_secs(60),
            || pipe.health().is_poisoned()
        ),
        "pipeline depth {depth} lanes {lanes} never applied all blocks: {:?}",
        pipe.health().error()
    );
    stopped.store(true, Ordering::Relaxed);
    drop(tx);
    pipe.join();
    (ledger, schemas)
}

/// The four acceptance suites — point, range, tracking, join — each
/// with the strategies that exercise distinct index families.
fn suites(schemas: &SchemaManager) -> Vec<(String, LogicalPlan, Strategy)> {
    let s3 = schemas.get("donate3").unwrap();
    let s4 = schemas.get("donate4").unwrap();
    let query = |schema: &TableSchema, kind: BoundPredicateKind| LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: schema.resolve("amount").unwrap(),
            kind,
        }],
        schema: schema.clone(),
        projection: vec![],
        window: None,
    };
    let mut out = Vec::new();
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
        out.push((
            format!("point/{strat:?}"),
            query(
                &s3,
                BoundPredicateKind::Compare(CompareOp::Eq, Value::decimal(42)),
            ),
            strat,
        ));
        out.push((
            format!("range/{strat:?}"),
            query(
                &s3,
                BoundPredicateKind::Between(Value::decimal(10), Value::decimal(60)),
            ),
            strat,
        ));
    }
    // Seeded random ranges over donate3's amounts (0..97) under the
    // planner and both extremes it can resolve to.
    let mut seed = 0x5EBD_B013u64;
    for i in 0..6 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lo = (seed >> 33) as i64 % 97;
        let span = (seed >> 13) as i64 % 60;
        for strat in [Strategy::Scan, Strategy::Layered, Strategy::Auto] {
            out.push((
                format!("rand{i}/{strat:?}"),
                query(
                    &s3,
                    BoundPredicateKind::Between(Value::decimal(lo), Value::decimal(lo + span)),
                ),
                strat,
            ));
        }
    }
    out.push((
        "tracking/Layered".into(),
        LogicalPlan::Trace {
            window: None,
            operator: Some(Value::Bytes(SENDER.as_bytes().to_vec())),
            operation: None,
        },
        Strategy::Layered,
    ));
    for strat in [Strategy::Scan, Strategy::Layered] {
        out.push((
            format!("join/{strat:?}"),
            LogicalPlan::OnChainJoin {
                left_col: s3.resolve("amount").unwrap(),
                right_col: s4.resolve("amount").unwrap(),
                left: s3.clone(),
                right: s4.clone(),
                window: None,
            },
            strat,
        ));
    }
    out
}

fn run_suites(exec: &Executor, schemas: &SchemaManager) -> Vec<(String, QueryResult)> {
    suites(schemas)
        .into_iter()
        .map(|(name, plan, strat)| {
            let r = exec
                .execute(&plan, strat)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            (name, r)
        })
        .collect()
}

fn assert_suites_match(
    reference: &[(String, QueryResult)],
    got: &[(String, QueryResult)],
    ctx: &str,
) {
    for ((name, a), (_, b)) in reference.iter().zip(got) {
        assert_eq!(a, b, "{ctx}: {name} diverged from the resident reference");
        assert!(!a.is_empty(), "{ctx}: {name} reference suite is empty");
    }
    // Single-table queries: every access path of one query (suites
    // named `<query>/<strategy>`) returns the same ordered row vector.
    let q4 = |name: &str| {
        ["point/", "range/", "rand"]
            .iter()
            .any(|p| name.starts_with(p))
    };
    for (name, rows) in got.iter().filter(|(name, _)| q4(name)) {
        let query = name.split('/').next();
        let (first, first_rows) = got
            .iter()
            .find(|(n, _)| n.split('/').next() == query)
            .unwrap();
        assert_eq!(rows, first_rows, "{ctx}: {name} differs from {first}");
    }
}

/// Builds the per-table layered/ALI pairs both sides query through
/// (both join operands, so the layered join plan has its indexes).
fn index_amount(ledger: &Ledger, schemas: &SchemaManager) {
    for table in ["donate3", "donate4"] {
        let schema = schemas.get(table).unwrap();
        ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
    }
}

/// Core acceptance: paged (disk, mid-chain checkpoints, bounded cache)
/// equals resident (memory, no checkpoints) byte for byte, at lanes 1
/// and 4, cold and warm cache, and across a restart.
fn paged_matches_resident(lanes: usize, cache_blocks: usize) {
    let blocks = mixed_blocks(BLOCKS);

    // Reference: fully resident, sequential.
    let (ref_ledger, ref_schemas) =
        run_lanes_on(Arc::new(BlockStore::in_memory()), 1, 1, 0, &blocks);
    index_amount(&ref_ledger, &ref_schemas);
    let ref_exec = Executor::new(&ref_ledger, None);
    let reference = run_suites(&ref_exec, &ref_schemas);

    // Paged: disk store, checkpoint cadence, bounded index-block cache.
    let dir = std::env::temp_dir().join(format!(
        "sebdb-pagedeq-l{lanes}-c{cache_blocks}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync_writes: false,
        index_cache_blocks: Some(cache_blocks),
        ..StoreConfig::default()
    };
    let depth = lanes.max(2);
    {
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let (ledger, schemas) = run_lanes_on(store, depth, lanes, CHECKPOINT_EVERY, &blocks);
        for bid in 0..BLOCKS {
            assert_eq!(
                ref_ledger.read_block(bid).unwrap().to_bytes(),
                ledger.read_block(bid).unwrap().to_bytes(),
                "block {bid} differs (lanes {lanes})"
            );
        }
        index_amount(&ledger, &schemas);
        // Freeze everything — including the fresh per-table pair — so
        // the suites page the frozen prefix instead of the tail.
        let resident_before = ledger.index_memory_bytes();
        let published = ledger.checkpoint_indexes().unwrap();
        assert!(published > 0, "disk backend published no checkpoints");
        let resident_after = ledger.index_memory_bytes();
        assert!(
            resident_after < resident_before,
            "freezing must shed resident index bytes: {resident_before} -> {resident_after}"
        );
        let exec = Executor::new(&ledger, None);
        assert_suites_match(&reference, &run_suites(&exec, &schemas), "pre-restart");
    }

    // Restart: open loads the checkpoints, replays only the tail, and
    // the cold-cache suites still match; a second (warm) pass hits the
    // index-block cache.
    let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
    let ledger = Arc::new(Ledger::new(Arc::clone(&store), signer()).unwrap());
    assert_eq!(ledger.height(), BLOCKS);
    ledger.verify_chain().unwrap();
    let schemas = SchemaManager::new(None);
    for bid in 0..BLOCKS {
        schemas.apply_block(&ledger.read_block(bid).unwrap());
    }
    // The per-table pair reattaches from its checkpoint (tail replay
    // only — its frozen prefix covers the whole chain).
    index_amount(&ledger, &schemas);
    let exec = Executor::new(&ledger, None);
    store.stats.reset();
    assert_suites_match(
        &reference,
        &run_suites(&exec, &schemas),
        "post-restart cold",
    );
    let (cold_hits, cold_misses) = store.stats.index_cache_counts();
    assert!(
        cold_misses > 0,
        "cold suites never paged an index block (lanes {lanes})"
    );
    assert_suites_match(
        &reference,
        &run_suites(&exec, &schemas),
        "post-restart warm",
    );
    let (warm_hits, _) = store.stats.index_cache_counts();
    assert!(
        warm_hits > cold_hits,
        "warm suites never hit the index-block cache (lanes {lanes})"
    );
    // The cache tier stays within its configured bound.
    assert!(
        store.index_cache().resident_blocks() <= cache_blocks.max(8),
        "index-block cache exceeded its capacity"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paged_indexes_match_resident_reference_lane1() {
    paged_matches_resident(1, 1024);
}

#[test]
fn paged_indexes_match_resident_reference_lane4_tiny_cache() {
    // An eviction-heavy cache (8 blocks across 8 shards) must only be
    // slower, never different.
    paged_matches_resident(4, 8);
}

/// O(1)-open contract: with up-to-date checkpoints the restart replays
/// only the tail blocks past the newest checkpoint, and the recorded
/// open time covers the whole constructor.
#[test]
fn open_replays_only_the_tail_behind_checkpoints() {
    let blocks = mixed_blocks(BLOCKS);
    let dir = std::env::temp_dir().join(format!("sebdb-pagedopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync_writes: false,
        ..StoreConfig::default()
    };
    {
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let (ledger, _) = run_lanes_on(store, 2, 1, CHECKPOINT_EVERY, &blocks);
        // Freeze the complete state so the replayed tail is empty.
        ledger.checkpoint_indexes().unwrap();
    }
    let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
    store.stats.reset();
    let ledger = Ledger::new(Arc::clone(&store), signer()).unwrap();
    assert_eq!(ledger.height(), BLOCKS);
    // The replay loop never read a chain block: every family resumed
    // from its checkpoint at the full height. (The tip-hash read is
    // the single block read the open still performs.)
    let block_reads = store.stats.snapshot().0;
    assert!(
        block_reads <= 1,
        "checkpointed open replayed {block_reads} block(s); expected at most the tip read"
    );
    assert!(ledger.index_memory_bytes() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
