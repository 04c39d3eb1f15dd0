//! The view engine's non-negotiable equivalence gate: after every
//! applied block, a registered view's materialized result must equal a
//! fresh `run_trace` re-execution **byte for byte** — same row set,
//! same (chain) order — across the backfill→incremental seam, a
//! restart (views re-backfill from their persisted registration), a
//! crash between persist and view-fold (replay heals, the view
//! re-folds idempotently), and under the staged pipeline's view-folder
//! consumer.

use sebdb::{ApplyPipeline, Executor, Ledger, QueryResult, SchemaManager, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{LogicalPlan, TraceSpec};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ORG1: KeyId = KeyId([1; 8]);
const ORG2: KeyId = KeyId([2; 8]);

fn signer() -> MacKeypair {
    MacKeypair::from_key([9u8; 32])
}

/// Mixed workload: three relations spread over distinct index shards,
/// two senders, an occasional internal (`__`-prefixed) transaction
/// that tracking must never surface, and fixed timestamps
/// (`ts = 10_000 + seq`) so window specs can pin exact blocks.
fn mixed_block(seq: u64) -> OrderedBlock {
    let ts = 10_000 + seq;
    let mut txs = Vec::new();
    for i in 0..6u64 {
        let (table, sender) = match (seq + i) % 4 {
            0 => ("donate", ORG1),
            1 => ("volunteer", ORG2),
            2 => ("transfer", ORG1),
            _ => ("donate", ORG2),
        };
        txs.push(Transaction::new(
            ts,
            sender,
            table,
            vec![Value::Int((seq * 10 + i) as i64)],
        ));
    }
    if seq.is_multiple_of(7) {
        // Schema-sync style internal transaction: invisible to TRACE.
        txs.push(Transaction::new(
            ts,
            ORG1,
            "__schema",
            vec![Value::str("x")],
        ));
    }
    for (i, tx) in txs.iter_mut().enumerate() {
        tx.tid = seq * 100 + i as u64 + 1;
    }
    OrderedBlock {
        seq,
        timestamp_ms: ts,
        txs,
    }
}

fn trace_plan(spec: &TraceSpec) -> LogicalPlan {
    LogicalPlan::Trace {
        window: spec.window,
        operator: spec.operator.map(|id| Value::Bytes(id.to_vec())),
        operation: spec.operation.clone(),
    }
}

/// The gate itself: the view's served rows must equal a fresh
/// re-execution under every forced strategy, and the `Auto` route
/// (which is served from the view) must agree with all of them.
fn assert_view_equivalent(ledger: &Ledger, spec: &TraceSpec, context: &str) {
    let exec = Executor::new(ledger, None);
    let plan = trace_plan(spec);
    let scan = exec.execute(&plan, Strategy::Scan).unwrap();
    let layered = exec.execute(&plan, Strategy::Layered).unwrap();
    let bitmap = exec.execute(&plan, Strategy::Bitmap).unwrap();
    assert_eq!(scan, layered, "scan != layered ({context})");
    assert_eq!(scan, bitmap, "scan != bitmap ({context})");
    let served = ledger
        .serve_trace_view(spec)
        .unwrap()
        .expect("view must be registered");
    assert_eq!(served, scan, "view != fresh re-execution ({context})");
    let auto = exec.execute(&plan, Strategy::Auto).unwrap();
    assert_eq!(auto, scan, "auto route != fresh re-execution ({context})");
}

#[test]
fn view_matches_rescan_after_every_block_across_backfill_seam() {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();

    // V1 registers on the empty chain: its entire life is incremental.
    let v1 = TraceSpec::new(None, None, Some("donate"));
    assert!(ledger.register_trace_view(v1.clone()).unwrap());
    // Re-registration is a no-op.
    assert!(!ledger.register_trace_view(v1.clone()).unwrap());

    // V2 and V3 register mid-stream, exercising the backfill seam at
    // heights 40 and 60. V3's window covers timestamps of blocks
    // 20..=80 only, with both edges inclusive.
    let v2 = TraceSpec::new(None, Some(ORG1.0), None);
    let v3 = TraceSpec::new(Some((10_020, 10_080)), Some(ORG2.0), Some("donate"));

    let mut registered: Vec<TraceSpec> = vec![v1];
    for seq in 0..120u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
        if seq == 40 {
            assert!(ledger.register_trace_view(v2.clone()).unwrap());
            registered.push(v2.clone());
        }
        if seq == 60 {
            assert!(ledger.register_trace_view(v3.clone()).unwrap());
            registered.push(v3.clone());
        }
        for spec in &registered {
            assert_view_equivalent(&ledger, spec, &format!("height {}", seq + 1));
        }
    }

    // The fold cursors track the applied height exactly.
    for spec in &registered {
        assert_eq!(ledger.trace_view_folded(spec), Some(120));
    }
    let (backfills, refreshes, delta_rows, serve_hits) = ledger.trace_views().stats().snapshot();
    assert_eq!(backfills, 3);
    assert!(refreshes > 0, "steady state must fold, not re-backfill");
    assert!(delta_rows > 0);
    assert!(serve_hits > 0);

    // An unregistered spec is not served.
    let other = TraceSpec::new(None, None, Some("transfer"));
    assert!(ledger.serve_trace_view(&other).unwrap().is_none());
}

#[test]
fn serving_from_view_issues_zero_index_probes_and_reads() {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();
    let spec = TraceSpec::new(None, None, Some("donate"));
    ledger.register_trace_view(spec.clone()).unwrap();
    for seq in 0..30u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
    }
    // A fully caught-up view answers from memory: no blocks read, no
    // transactions decoded.
    ledger.serve_trace_view(&spec).unwrap().unwrap();
    ledger.store().stats.reset();
    let served = ledger.serve_trace_view(&spec).unwrap().unwrap();
    assert!(!served.is_empty());
    assert_eq!(ledger.store().stats.blocks_read.load(Ordering::Relaxed), 0);
    assert_eq!(ledger.store().stats.txs_read.load(Ordering::Relaxed), 0);
}

fn disk_store(dir: &std::path::Path) -> Arc<BlockStore> {
    Arc::new(BlockStore::open(dir, StoreConfig::default()).unwrap())
}

#[test]
fn views_survive_restart_and_rebackfill() {
    let dir = std::env::temp_dir().join(format!("sebdb-viewrestart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let v1 = TraceSpec::new(None, None, Some("volunteer"));
    let v2 = TraceSpec::new(Some((10_010, 10_050)), Some(ORG1.0), None);
    {
        let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
        ledger.register_trace_view(v1.clone()).unwrap();
        for seq in 0..40u64 {
            ledger.append_ordered(mixed_block(seq)).unwrap();
        }
        ledger.register_trace_view(v2.clone()).unwrap();
        for seq in 40..60u64 {
            ledger.append_ordered(mixed_block(seq)).unwrap();
        }
        assert_view_equivalent(&ledger, &v1, "before restart");
        assert_view_equivalent(&ledger, &v2, "before restart");
    }
    // Reopen: registrations load from disk, rows re-backfill, and the
    // views keep folding newly appended blocks.
    let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
    let mut specs = ledger.trace_views().specs();
    specs.sort_by_key(|s| s.operation.is_some());
    assert_eq!(specs, vec![v2.clone(), v1.clone()]);
    assert_eq!(ledger.trace_view_folded(&v1), Some(60));
    assert_view_equivalent(&ledger, &v1, "after restart");
    assert_view_equivalent(&ledger, &v2, "after restart");
    for seq in 60..80u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
        assert_view_equivalent(&ledger, &v1, "appending after restart");
        assert_view_equivalent(&ledger, &v2, "appending after restart");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash ladder at the persist/index/view boundaries: a block that was
/// persisted but neither indexed nor folded is healed by the restart
/// replay, after which the re-backfilled view agrees with a fresh
/// re-execution; folds that already ran are not double-counted.
#[test]
fn crash_between_persist_and_fold_heals_on_reopen() {
    let dir = std::env::temp_dir().join(format!("sebdb-viewcrash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TraceSpec::new(None, Some(ORG1.0), Some("donate"));
    {
        let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
        ledger.register_trace_view(spec.clone()).unwrap();
        for seq in 0..20u64 {
            ledger.append_ordered(mixed_block(seq)).unwrap();
        }
        // "Crash": block 20 reaches durable storage but the process
        // dies before the index and view-fold stages run.
        let block = ledger.seal_ordered(mixed_block(20)).unwrap();
        ledger.persist_block(block).unwrap();
        assert_eq!(ledger.height(), 20);
        assert_eq!(ledger.chain_height(), 21);
        assert_eq!(ledger.trace_view_folded(&spec), Some(20));
    }
    let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
    // Replay healed the torn block; the view re-backfilled over it.
    assert_eq!(ledger.height(), 21);
    assert_eq!(ledger.trace_view_folded(&spec), Some(21));
    assert_view_equivalent(&ledger, &spec, "after crash heal");
    for seq in 21..30u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
        assert_view_equivalent(&ledger, &spec, "appending after crash heal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_view_folder_folds_behind_the_indexer() {
    let ledger = Arc::new(
        Ledger::new(
            Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
            signer(),
        )
        .unwrap(),
    );
    let v1 = TraceSpec::new(None, None, Some("donate"));
    ledger.register_trace_view(v1.clone()).unwrap();

    let schemas = Arc::new(SchemaManager::new(None));
    let stopped = Arc::new(AtomicBool::new(false));
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut pipe = ApplyPipeline::start(Arc::clone(&ledger), schemas, rx, Arc::clone(&stopped), 3);
    for seq in 0..15u64 {
        tx.send(mixed_block(seq)).unwrap();
    }
    assert!(
        ledger.wait_for_height(15, Instant::now() + Duration::from_secs(30), || pipe
            .health()
            .is_poisoned())
    );
    // Mid-stream registration under a live pipeline: the backfill seam
    // races real folds and must still agree.
    let v2 = TraceSpec::new(None, Some(ORG2.0), None);
    ledger.register_trace_view(v2.clone()).unwrap();
    for seq in 15..30u64 {
        tx.send(mixed_block(seq)).unwrap();
    }
    assert!(
        ledger.wait_for_height(30, Instant::now() + Duration::from_secs(30), || pipe
            .health()
            .is_poisoned())
    );
    stopped.store(true, Ordering::Relaxed);
    drop(tx);
    pipe.join();

    // The folder stage (not the serve path) brought both views to the
    // tip: the cursors are final before any serve-time catch-up runs.
    assert_eq!(ledger.trace_view_folded(&v1), Some(30));
    assert_eq!(ledger.trace_view_folded(&v2), Some(30));
    assert_view_equivalent(&ledger, &v1, "after pipeline");
    assert_view_equivalent(&ledger, &v2, "after pipeline");
    let (backfills, refreshes, ..) = ledger.trace_views().stats().snapshot();
    assert_eq!(backfills, 2);
    assert!(refreshes >= 30, "the folder stage must fold every block");
}

/// Registration validation: a dimensionless spec is rejected, and the
/// equivalence of `QueryResult`s covers headers too.
#[test]
fn dimensionless_view_is_rejected() {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();
    let err = ledger
        .register_trace_view(TraceSpec::new(Some((1, 2)), None, None))
        .unwrap_err();
    assert!(err.to_string().contains("at least one dimension"));
    assert!(ledger.trace_views().is_empty());
}

/// A forced-strategy `TRACE` bypasses the view (the figure runs keep
/// measuring their physical paths): the serve-hit counter only moves
/// on the `Auto` route.
#[test]
fn forced_strategies_bypass_the_view() {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();
    let spec = TraceSpec::new(None, None, Some("donate"));
    ledger.register_trace_view(spec.clone()).unwrap();
    for seq in 0..10u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
    }
    let exec = Executor::new(&ledger, None);
    let plan = trace_plan(&spec);
    let baseline = ledger.trace_views().stats().snapshot().3;
    exec.execute(&plan, Strategy::Scan).unwrap();
    exec.execute(&plan, Strategy::Bitmap).unwrap();
    exec.execute(&plan, Strategy::Layered).unwrap();
    assert_eq!(ledger.trace_views().stats().snapshot().3, baseline);
    let _: QueryResult = exec.execute(&plan, Strategy::Auto).unwrap();
    assert_eq!(ledger.trace_views().stats().snapshot().3, baseline + 1);
}
