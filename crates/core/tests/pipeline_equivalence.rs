//! Staged-applier equivalence against the direct ledger path.
//!
//! The acceptance bar for the one applier: every depth of
//! [`ApplyPipeline`], 1 included, must produce
//! byte-identical blocks and identical `QueryResult`s to
//! `Ledger::append_ordered` + `SchemaManager::apply_block` run one
//! block at a time on the caller's thread. Plus the
//! crash-at-stage-boundary and dead-applier failure modes.

use sebdb::{ApplyPipeline, Executor, Ledger, NodeError, SchemaManager, SebdbNode, Strategy};
use sebdb_consensus::{BatchConfig, KafkaOrderer, OrderedBlock};
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Codec, Column, DataType, TableSchema, Transaction, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SENDER: KeyId = KeyId([4; 8]);

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

/// ≥100 mixed DDL/insert blocks with fixed timestamps so two runs seal
/// bit-for-bit identical blocks. Every 10th block carries a CREATE
/// (schema-sync transaction) for a fresh table; each block's inserts
/// spread over the tables created so far (so the indexer hands each
/// per-table family only its rows).
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

/// Drives `blocks` through an [`ApplyPipeline`] of the given depth
/// over a fresh ledger; returns the ledger and schema catalog once
/// everything is applied.
fn run_pipeline(depth: usize, blocks: &[OrderedBlock]) -> (Arc<Ledger>, Arc<SchemaManager>) {
    run_pipeline_on(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        depth,
        blocks,
    )
}

/// [`run_pipeline`] over an explicit store.
fn run_pipeline_on(
    store: Arc<BlockStore>,
    depth: usize,
    blocks: &[OrderedBlock],
) -> (Arc<Ledger>, Arc<SchemaManager>) {
    let ledger = Arc::new(Ledger::new(store, signer()).unwrap());
    let schemas = Arc::new(SchemaManager::new(None));
    let stopped = Arc::new(AtomicBool::new(false));
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut pipe = ApplyPipeline::start(
        Arc::clone(&ledger),
        Arc::clone(&schemas),
        rx,
        Arc::clone(&stopped),
        depth,
    );
    for b in blocks {
        tx.send(b.clone()).unwrap();
    }
    assert!(
        ledger.wait_for_height(
            blocks.len() as u64,
            Instant::now() + Duration::from_secs(30),
            || pipe.health().is_poisoned()
        ),
        "pipeline depth {depth} never applied all blocks: {:?}",
        pipe.health().error()
    );
    stopped.store(true, Ordering::Relaxed);
    drop(tx);
    pipe.join();
    (ledger, schemas)
}

/// The reference: `blocks` applied by the direct ledger path, one at a
/// time on the caller's thread, each then applied to the catalog.
fn run_direct_on(
    store: Arc<BlockStore>,
    blocks: &[OrderedBlock],
) -> (Arc<Ledger>, Arc<SchemaManager>) {
    let ledger = Arc::new(Ledger::new(store, signer()).unwrap());
    let schemas = Arc::new(SchemaManager::new(None));
    for b in blocks {
        schemas.apply_block(&ledger.append_ordered(b.clone()).unwrap());
    }
    (ledger, schemas)
}

fn run_direct(blocks: &[OrderedBlock]) -> (Arc<Ledger>, Arc<SchemaManager>) {
    let store = BlockStore::temporary(StoreConfig::default()).unwrap();
    run_direct_on(Arc::new(store), blocks)
}

fn range_query(schema: TableSchema) -> LogicalPlan {
    LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: schema.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(Value::decimal(10), Value::decimal(60)),
        }],
        schema,
        projection: vec![],
        window: None,
    }
}

/// The one-core shape (depth 1) and a deep one (depth 4) against the
/// direct path on the 120-block mixed DDL/insert workload, under the
/// ambient `SEBDB_THREADS` cap: CI runs this suite at caps 1 and 4,
/// covering the depth × threads matrix.
#[test]
fn pipelined_apply_is_byte_identical_and_query_equivalent() {
    let blocks = mixed_blocks(120);
    let (direct_ledger, direct_schemas) = run_direct(&blocks);
    assert_eq!(direct_ledger.height(), 120);
    direct_ledger.verify_chain().unwrap();
    // A per-table layered index built on each ledger (control-plane,
    // applier quiescent) answers identically too.
    let schema = direct_schemas.get("donate3").unwrap();
    direct_ledger
        .create_layered_index(&schema, "amount", None)
        .unwrap();
    let direct_exec = Executor::new(&direct_ledger, None);
    let trace = LogicalPlan::Trace {
        window: None,
        operator: Some(Value::Bytes(SENDER.as_bytes().to_vec())),
        operation: None,
    };

    for depth in [1, 4] {
        let (pipe_ledger, pipe_schemas) = run_pipeline(depth, &blocks);
        assert_eq!(pipe_ledger.height(), 120);
        assert_eq!(direct_ledger.tip_hash(), pipe_ledger.tip_hash());
        for bid in 0..120 {
            let a = direct_ledger.read_block(bid).unwrap();
            let b = pipe_ledger.read_block(bid).unwrap();
            assert_eq!(
                a.to_bytes(),
                b.to_bytes(),
                "depth {depth}: block {bid} differs"
            );
        }
        pipe_ledger.verify_chain().unwrap();

        // Both catalogs saw every CREATE.
        for t in 0..12 {
            let name = format!("donate{t}");
            assert!(
                direct_schemas.get(&name).is_some(),
                "{name} missing (direct)"
            );
            assert!(
                pipe_schemas.get(&name).is_some(),
                "{name} missing (depth {depth})"
            );
        }

        // Identical QueryResults across strategies and operators.
        pipe_ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
        let pipe_exec = Executor::new(&pipe_ledger, None);
        for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
            let a = direct_exec
                .execute(&range_query(schema.clone()), strat)
                .unwrap();
            let b = pipe_exec
                .execute(&range_query(schema.clone()), strat)
                .unwrap();
            assert_eq!(a, b, "depth {depth}: {strat:?} range query diverged");
            assert!(!a.is_empty());
        }
        let a = direct_exec.execute(&trace, Strategy::Layered).unwrap();
        let b = pipe_exec.execute(&trace, Strategy::Layered).unwrap();
        assert_eq!(a, b, "depth {depth}: trace diverged");
        // Provenance tracking covers the application tables' inserts
        // (the schema-sync rows live in the reserved catalog table).
        assert_eq!(a.len(), 120 * 5);
    }
}

/// Tentpole acceptance for the partitioned layout: pipeline depth ×
/// storage partitions must be invisible. Depth-1 and depth-4
/// pipelines persisting to the unpartitioned and the 8-way
/// partitioned disk layouts produce byte-identical blocks and
/// identical `QueryResult`s to the direct ledger path over the
/// unpartitioned (partitions = 1) layout.
#[test]
fn depths_by_partitions_match_sequential_reference() {
    let blocks = mixed_blocks(60);
    let store = |partitions: usize| {
        let store = BlockStore::temporary(StoreConfig {
            sync_writes: false,
            partitions,
            ..StoreConfig::default()
        })
        .unwrap();
        assert_eq!(store.partitions(), partitions);
        Arc::new(store)
    };
    let (ref_ledger, ref_schemas) = run_direct_on(store(1), &blocks);
    assert_eq!(ref_ledger.height(), 60);
    let schema = ref_schemas.get("donate3").unwrap();
    let ref_exec = Executor::new(&ref_ledger, None);
    let trace = LogicalPlan::Trace {
        window: None,
        operator: Some(Value::Bytes(SENDER.as_bytes().to_vec())),
        operation: None,
    };
    for depth in [1, 4] {
        for partitions in [1, 8] {
            let shape = format!("depth {depth} x partitions {partitions}");
            let (par_ledger, par_schemas) = run_pipeline_on(store(partitions), depth, &blocks);
            assert_eq!(par_ledger.height(), 60);
            assert_eq!(ref_ledger.tip_hash(), par_ledger.tip_hash());
            for bid in 0..60 {
                let a = ref_ledger.read_block(bid).unwrap();
                let b = par_ledger.read_block(bid).unwrap();
                assert_eq!(a.to_bytes(), b.to_bytes(), "{shape}: block {bid} differs");
            }
            par_ledger.verify_chain().unwrap();
            assert!(par_schemas.get("donate3").is_some());

            let par_exec = Executor::new(&par_ledger, None);
            for strat in [Strategy::Scan, Strategy::Bitmap] {
                let a = ref_exec
                    .execute(&range_query(schema.clone()), strat)
                    .unwrap();
                let b = par_exec
                    .execute(&range_query(schema.clone()), strat)
                    .unwrap();
                assert_eq!(a, b, "{shape}: {strat:?} diverged");
                assert!(!a.is_empty());
            }
            let a = ref_exec.execute(&trace, Strategy::Layered).unwrap();
            let b = par_exec.execute(&trace, Strategy::Layered).unwrap();
            assert_eq!(a, b, "{shape}: trace diverged");
        }
    }
}

#[test]
fn crash_between_stages_restarts_consistent_and_pipeline_continues() {
    let dir = std::env::temp_dir().join(format!("sebdb-pipecrash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = sebdb_storage::StoreConfig::default();
    let blocks = mixed_blocks(20);
    {
        // Apply the first 10 blocks normally, then die between the
        // persist and index stages of block 10.
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let l = Ledger::new(store, signer()).unwrap();
        let schemas = SchemaManager::new(None);
        for b in &blocks[..10] {
            let block = l.append_ordered(b.clone()).unwrap();
            schemas.apply_block(&block);
        }
        let sealed = l.seal_ordered(blocks[10].clone()).unwrap();
        l.persist_block(sealed).unwrap();
        assert_eq!((l.chain_height(), l.height()), (11, 10));
        // "Crash": the ledger drops with block 10 persisted, unindexed.
    }
    // Restart: replay heals the index gap, then the pipeline applies
    // the rest. The result must match a crash-free direct run.
    let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
    let ledger = Arc::new(Ledger::new(store, signer()).unwrap());
    assert_eq!((ledger.chain_height(), ledger.height()), (11, 11));
    let schemas = Arc::new(SchemaManager::new(None));
    for bid in 0..11 {
        schemas.apply_block(&ledger.read_block(bid).unwrap());
    }
    let stopped = Arc::new(AtomicBool::new(false));
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut pipe = ApplyPipeline::start(
        Arc::clone(&ledger),
        Arc::clone(&schemas),
        rx,
        Arc::clone(&stopped),
        3,
    );
    for b in &blocks[11..] {
        tx.send(b.clone()).unwrap();
    }
    assert!(
        ledger.wait_for_height(20, Instant::now() + Duration::from_secs(30), || pipe
            .health()
            .is_poisoned())
    );
    stopped.store(true, Ordering::Relaxed);
    drop(tx);
    pipe.join();
    ledger.verify_chain().unwrap();

    let (clean, _) = run_direct(&blocks);
    assert_eq!(ledger.tip_hash(), clean.tip_hash());
    for bid in 0..20 {
        assert_eq!(
            ledger.read_block(bid).unwrap().to_bytes(),
            clean.read_block(bid).unwrap().to_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_applier_fails_fast_with_descriptive_error() {
    // Pre-populate the store so the node's chain starts at height 1
    // while the fresh ordering service emits seq 0: the sealer rejects
    // the gap, poisons the pipeline, and writers must fail fast with
    // ApplierDead instead of burning the 10 s apply timeout.
    let store = Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap());
    {
        let l = Ledger::new(Arc::clone(&store), signer()).unwrap();
        l.append_ordered(mixed_blocks(1).remove(0)).unwrap();
    }
    let consensus = KafkaOrderer::start(BatchConfig {
        max_txs: 1,
        timeout_ms: 20,
    });
    let node = SebdbNode::start(store, consensus, None, signer()).unwrap();
    // The first write's awaited height (seq 0 applied ⇒ height 1) is
    // already satisfied by the pre-existing block, so it may race the
    // poison and "succeed" against the stale chain — either outcome is
    // acceptable here. The sealer is dead afterwards regardless.
    let _ = node.execute("CREATE TABLE quick (x INT)", &[]);
    let started = Instant::now();
    let err = node
        .execute("CREATE TABLE quick2 (x INT)", &[])
        .expect_err("applier is dead; the second write must not succeed");
    assert!(
        matches!(err, NodeError::ApplierDead(_)),
        "expected ApplierDead, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "ApplierDead must fail fast, took {:?}",
        started.elapsed()
    );
    node.shutdown();
}
