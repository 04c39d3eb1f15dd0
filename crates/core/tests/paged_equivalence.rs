//! Paged-index vs fully-resident equivalence (DESIGN §13 acceptance).
//!
//! The disk-resident partitioned indexes — frozen checkpoints served
//! through the resident fence-pointer top level and the bounded
//! index-block cache — must be an invisible representation change:
//! every query suite (point, range, tracking, join) answers
//! byte-identically to the fully-resident reference (no checkpoints,
//! the `cache=∞` configuration), at pipeline depths 2 and 4, with a
//! cold and a warm index-block cache, and across a restart that
//! replays only the tail behind the newest checkpoints.
//!
//! CI drives this suite at both `SEBDB_THREADS=1` and `SEBDB_THREADS=4`.

use sebdb::{ApplyPipeline, Executor, Ledger, QueryResult, SchemaManager, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::{Bitmap, KeyPredicate};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig, TxPtr};
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
/// given depth and index-checkpoint cadence (`0` = never checkpoint —
/// the fully-resident reference).
fn run_pipeline_on(
    store: Arc<BlockStore>,
    depth: usize,
    checkpoint_every: u64,
    blocks: &[OrderedBlock],
) -> (Arc<Ledger>, Arc<SchemaManager>) {
    let ledger = Arc::new(Ledger::new(store, signer()).unwrap());
    ledger.set_checkpoint_every(checkpoint_every);
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
            Instant::now() + Duration::from_secs(60),
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

/// Builds the per-table layered indexes both sides query through
/// (both join operands, so the layered join plan has its indexes).
fn index_amount(ledger: &Ledger, schemas: &SchemaManager) {
    for table in ["donate3", "donate4"] {
        let schema = schemas.get(table).unwrap();
        ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
    }
}

/// Core acceptance: paged (mid-chain checkpoints, bounded cache)
/// equals resident (no checkpoints) byte for byte, at pipeline `depth`,
/// cold and warm cache, and across a restart.
fn paged_matches_resident(depth: usize, cache_blocks: usize) {
    let blocks = mixed_blocks(BLOCKS);

    // Reference: sequential, and fully resident because nothing ever
    // checkpoints it (cadence 0, no `checkpoint_indexes`).
    let (ref_ledger, ref_schemas) = run_pipeline_on(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        1,
        0,
        &blocks,
    );
    index_amount(&ref_ledger, &ref_schemas);
    let ref_exec = Executor::new(&ref_ledger, None);
    let reference = run_suites(&ref_exec, &ref_schemas);

    // Paged: checkpoint cadence, bounded index-block cache.
    let dir = std::env::temp_dir().join(format!(
        "sebdb-pagedeq-d{depth}-c{cache_blocks}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync_writes: false,
        index_cache_blocks: Some(cache_blocks),
        ..StoreConfig::default()
    };
    {
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let (ledger, schemas) = run_pipeline_on(store, depth, CHECKPOINT_EVERY, &blocks);
        for bid in 0..BLOCKS {
            assert_eq!(
                ref_ledger.read_block(bid).unwrap().to_bytes(),
                ledger.read_block(bid).unwrap().to_bytes(),
                "block {bid} differs (depth {depth})"
            );
        }
        index_amount(&ledger, &schemas);
        // Freeze everything — including the fresh per-table pair — so
        // the suites page the frozen prefix instead of the tail.
        let resident_before = ledger.index_memory_bytes();
        let published = ledger.checkpoint_indexes().unwrap();
        assert!(published > 0, "no checkpoint was published");
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
        "cold suites never paged an index block (depth {depth})"
    );
    assert_suites_match(
        &reference,
        &run_suites(&exec, &schemas),
        "post-restart warm",
    );
    let (warm_hits, _) = store.stats.index_cache_counts();
    assert!(
        warm_hits > cold_hits,
        "warm suites never hit the index-block cache (depth {depth})"
    );
    // The cache tier stays within its configured bound.
    assert!(
        store.index_cache().resident_blocks() <= cache_blocks.max(8),
        "index-block cache exceeded its capacity"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paged_indexes_match_resident_reference_depth2() {
    paged_matches_resident(2, 1024);
}

#[test]
fn paged_indexes_match_resident_reference_depth4_tiny_cache() {
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
        let (ledger, _) = run_pipeline_on(store, 2, CHECKPOINT_EVERY, &blocks);
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

/// Appends `blocks` one by one on the caller's thread. With `freeze_at`
/// the `donate3`/`donate4` amount indexes are created and every family
/// is frozen just before that block, so what follows is a resident
/// tail behind a frozen prefix.
fn append_all(
    store: Arc<BlockStore>,
    blocks: &[OrderedBlock],
    freeze_at: Option<u64>,
) -> (Ledger, SchemaManager) {
    let ledger = Ledger::new(store, signer()).unwrap();
    let schemas = SchemaManager::new(None);
    for b in blocks {
        if freeze_at == Some(b.seq) {
            index_amount(&ledger, &schemas);
            assert!(ledger.checkpoint_indexes().unwrap() > 0);
        }
        schemas.apply_block(&ledger.append_ordered(b.clone()).unwrap());
    }
    index_amount(&ledger, &schemas);
    (ledger, schemas)
}

/// What the executors ask a layered index: `search` under a block mask
/// and `sorted_entries` of a block set.
type IndexAnswers = Vec<(String, Vec<TxPtr>, Vec<(Value, TxPtr)>)>;

/// `Eq` and `Range` on a continuous and on both discrete indexes × no
/// mask, a sparse mask and a mask crossing block `seam`.
fn index_answers(ledger: &Ledger, seam: usize) -> IndexAnswers {
    let range = |lo, hi| KeyPredicate::Range(Value::decimal(lo), Value::decimal(hi));
    let probes = [
        (
            Some("donate3"),
            "amount",
            KeyPredicate::Eq(Value::decimal(42)),
        ),
        (Some("donate3"), "amount", range(10, 60)),
        (Some("donate4"), "amount", range(42, 42)),
        (None, "tname", KeyPredicate::Eq(Value::str("donate3"))),
        (
            None,
            "tname",
            KeyPredicate::Range(Value::str("donate2"), Value::str("donate5")),
        ),
        (
            None,
            "sen_id",
            KeyPredicate::Eq(Value::Bytes(SENDER.as_bytes().to_vec())),
        ),
    ];
    let masks = [
        ("all", (0..BLOCKS as usize).collect::<Bitmap>()),
        ("sparse", (0..BLOCKS as usize).step_by(7).collect()),
        ("seam", (seam - 6..seam + 6).collect()),
    ];
    let mut out = Vec::new();
    for (table, column, pred) in &probes {
        for (mask_name, mask) in &masks {
            let name = format!("{table:?}.{column} {pred:?} under {mask_name}");
            let (found, entries) = ledger
                .with_layered(*table, column, |idx| {
                    (idx.search(pred, mask), idx.sorted_entries(mask))
                })
                .unwrap_or_else(|| panic!("no index for {name}"));
            assert!(found.iter().all(|p| mask.get(p.block as usize)), "{name}");
            assert!(found.windows(2).all(|w| w[0] < w[1]), "{name}: chain order");
            out.push((name, found, entries));
        }
    }
    out
}

/// The index calls under the executors — a frozen value-ordered run
/// merged with resident per-block trees — return what the fully
/// resident per-block trees return, as ordered vectors: duplicate
/// values across blocks, masks on either side of and across the seam,
/// and an index-block cache from unbounded down to one block.
#[test]
fn search_and_sorted_entries_match_the_resident_index() {
    // `donate3` has rows in blocks 30..80 and `donate4` in 40..90: both
    // indexes are populated on either side of the seam.
    const SEAM: u64 = 60;
    let blocks = mixed_blocks(BLOCKS);
    // Never frozen, so every per-block tree stays resident.
    let (reference, _) = append_all(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        &blocks,
        None,
    );
    let want = index_answers(&reference, SEAM as usize);
    let hits = |name: &str| {
        let found = want.iter().find(|(n, ..)| n.contains(name)).unwrap();
        found.1.len()
    };
    assert!(hits("Eq(Decimal(420000)) under all") > 1, "no duplicates");
    assert!(hits("Range(Decimal(100000), Decimal(600000)) under seam") > 1);
    for cache_blocks in [0, 1, 8] {
        let dir = std::env::temp_dir().join(format!(
            "sebdb-pagedeq-seam-c{cache_blocks}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            sync_writes: false,
            index_cache_blocks: Some(cache_blocks),
            ..StoreConfig::default()
        };
        let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
        let (paged, _) = append_all(Arc::clone(&store), &blocks, Some(SEAM));
        // A frozen prefix up to the seam, a resident tail past it.
        let family = sebdb_index::family_layered(Some("donate3"), "app1");
        let frozen = store.load_index_checkpoint(&family).unwrap();
        assert_eq!(frozen.map(|r| r.height()), Some(SEAM));
        let covered = paged.with_layered(Some("donate3"), "amount", |idx| idx.covered());
        assert_eq!(covered, Some(BLOCKS));
        store.stats.reset();
        let got = index_answers(&paged, SEAM as usize);
        assert!(
            store.stats.index_cache_counts().1 > 0,
            "cache {cache_blocks}: nothing was paged"
        );
        for (want, got) in want.iter().zip(&got) {
            assert_eq!(want, got, "cache {cache_blocks}: {}", want.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chain of `blocks` five-tuple `donate` blocks whose amounts are a
/// permutation of `0..blocks * 5`, every index frozen, reopened so the
/// index-block cache is cold. Returns the index-block misses of one
/// probe for the twenty amounts `1000..=1019` under the whole-chain
/// mask, and how many pointers it found.
fn cold_probe_misses(blocks: u64) -> (u64, usize) {
    let dir = std::env::temp_dir().join(format!(
        "sebdb-pagedeq-shape-{blocks}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync_writes: false,
        ..StoreConfig::default()
    };
    let schema = donate_schema(0);
    let rows = blocks * 5;
    {
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let ledger = Ledger::new(store, signer()).unwrap();
        for seq in 0..blocks {
            let txs = (0..5)
                .map(|i| {
                    // 7919 is prime and `rows` is 2^a·5^b: a permutation.
                    let amount = (seq * 5 + i) * 7919 % rows;
                    let values = vec![Value::str("d"), Value::decimal(amount as i64)];
                    let mut tx = Transaction::new(10_000 + seq, SENDER, &schema.name, values);
                    tx.tid = seq * 5 + i + 1;
                    tx
                })
                .collect();
            let timestamp_ms = 10_000 + seq;
            ledger
                .append_ordered(OrderedBlock {
                    seq,
                    timestamp_ms,
                    txs,
                })
                .unwrap();
        }
        ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
        assert!(ledger.checkpoint_indexes().unwrap() > 0);
    }
    let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
    let ledger = Ledger::new(Arc::clone(&store), signer()).unwrap();
    ledger
        .create_layered_index(&schema, "amount", None)
        .unwrap();
    let mask = ledger.window_mask(None);
    let pred = KeyPredicate::Range(Value::decimal(1000), Value::decimal(1019));
    store.stats.reset();
    let found = ledger
        .with_layered(Some(&schema.name), "amount", |idx| {
            idx.probe(&pred, &mask, |_| true)
        })
        .unwrap();
    assert!(found.complete);
    assert_eq!(found.scanned, 20, "the whole-chain mask keeps every row");
    let misses = store.stats.index_cache_counts().1;
    let _ = std::fs::remove_dir_all(&dir);
    (misses, found.ptrs.len())
}

/// The frozen probe reads the index blocks its answer spans — one or
/// two for twenty adjacent values — and a chain twice as long reads
/// exactly as many. (Per-block entries read one per chain block.)
#[test]
fn a_frozen_range_probe_reads_what_it_returns_not_the_chain() {
    let (misses, rows) = cold_probe_misses(2_000);
    assert_eq!(rows, 20);
    assert!(
        (1..=2).contains(&misses),
        "{misses} index blocks for 20 rows"
    );
    assert_eq!(cold_probe_misses(4_000), (misses, 20));
}

/// A checkpoint in an earlier layout (magic `SEBDBIX4`: blocks and tail
/// checksummed with FNV-1a; `SEBDBIX3`: per-block leaf lists without
/// the MB-tree's internal digests; `SEBDBIX2`: a plain and an
/// authenticated file per column; `SEBDBIX1`: per-block entry lists,
/// fixed-width lengths) is not migrated and never adopted: it fails
/// `open` as corrupt, is deleted, and the families replay the chain —
/// after which every suite answers as it did before.
#[test]
fn an_old_format_checkpoint_is_deleted_and_replayed() {
    let blocks = mixed_blocks(60);
    let dir = std::env::temp_dir().join(format!("sebdb-pagedeq-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        sync_writes: false,
        ..StoreConfig::default()
    };
    let want = {
        let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
        let (ledger, schemas) = append_all(store, &blocks, None);
        assert!(ledger.checkpoint_indexes().unwrap() > 0);
        run_suites(&Executor::new(&ledger, None), &schemas)
    };
    let icps = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir.join("indexcp"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "icp"))
            .collect()
    };
    let published = icps();
    // One file per family: the two system columns and the two indexed
    // `amount`s.
    assert_eq!(published.len(), 4);
    for (i, path) in published.iter().enumerate() {
        let mut bytes = std::fs::read(path).unwrap();
        let end = bytes.len();
        assert_eq!(&bytes[..8], b"SEBDBIX5");
        let old = [b"SEBDBIX4", b"SEBDBIX3", b"SEBDBIX2", b"SEBDBIX1"][i % 4];
        bytes[..8].copy_from_slice(old);
        bytes[end - 8..].copy_from_slice(old);
        std::fs::write(path, bytes).unwrap();
    }
    let store = Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap());
    store.stats.reset();
    let ledger = Ledger::new(Arc::clone(&store), signer()).unwrap();
    assert!(
        store.stats.snapshot().0 >= 60,
        "the open did not replay the chain"
    );
    let schemas = SchemaManager::new(None);
    for bid in 0..ledger.height() {
        schemas.apply_block(&ledger.read_block(bid).unwrap());
    }
    index_amount(&ledger, &schemas);
    assert_eq!(icps(), Vec::<std::path::PathBuf>::new());
    let got = run_suites(&Executor::new(&ledger, None), &schemas);
    assert_suites_match(&want, &got, "healed");
    // The next checkpoint is written in the current layout and reopens.
    assert!(ledger.checkpoint_indexes().unwrap() >= published.len());
    drop((ledger, store));
    let store = Arc::new(BlockStore::open(&dir, cfg).unwrap());
    let ledger = Ledger::new(store, signer()).unwrap();
    index_amount(&ledger, &schemas);
    let got = run_suites(&Executor::new(&ledger, None), &schemas);
    assert_suites_match(&want, &got, "re-frozen");
    let _ = std::fs::remove_dir_all(&dir);
}
