//! The view engine's non-negotiable equivalence gate: after every
//! applied block, a registered view's materialized result must equal a
//! fresh `run_trace` re-execution **byte for byte** — same row set,
//! same (chain) order — across the backfill→refresh seam, a restart
//! (a reopened view starts empty and its first serve extends it from
//! block 0), a crash between persist and index (replay heals, the
//! view never passes the applied height), and beside the applier
//! thread, which never touches a view: the serve that reads a view is
//! the one path that extends it.

use sebdb::{ApplyPipeline, Executor, Ledger, QueryResult, SchemaManager, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{LogicalPlan, TraceSpec};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
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

    // The serves moved every cursor to the applied height.
    for spec in &registered {
        assert_eq!(ledger.trace_view_folded(spec), Some(120));
    }
    let (backfills, refreshes, delta_rows, serve_hits) = ledger.trace_views().stats().snapshot();
    assert_eq!(backfills, 3);
    assert!(refreshes > 0, "steady state must extend, not re-backfill");
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
    // Reopen: registrations load from disk with no block read, the
    // first serve re-backfills, and later serves keep extending the
    // views over newly appended blocks.
    let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
    let mut specs = ledger.trace_views().specs();
    specs.sort_by_key(|s| s.operation.is_some());
    assert_eq!(specs, vec![v2.clone(), v1.clone()]);
    assert_eq!(ledger.trace_view_folded(&v1), Some(0));
    assert_view_equivalent(&ledger, &v1, "after restart");
    assert_view_equivalent(&ledger, &v2, "after restart");
    assert_eq!(ledger.trace_view_folded(&v1), Some(60));
    for seq in 60..80u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
        assert_view_equivalent(&ledger, &v1, "appending after restart");
        assert_view_equivalent(&ledger, &v2, "appending after restart");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash ladder at the persist/index boundary: a block that was
/// persisted but not indexed stays out of the view (its serve is
/// bounded by the applied height) and is healed by the restart replay,
/// after which the re-backfilled view agrees with a fresh re-execution.
#[test]
fn crash_between_persist_and_index_heals_on_reopen() {
    let dir = std::env::temp_dir().join(format!("sebdb-viewcrash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TraceSpec::new(None, Some(ORG1.0), Some("donate"));
    {
        let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
        ledger.register_trace_view(spec.clone()).unwrap();
        for seq in 0..20u64 {
            ledger.append_ordered(mixed_block(seq)).unwrap();
        }
        assert_view_equivalent(&ledger, &spec, "before the crash");
        // "Crash": block 20 reaches durable storage but the process
        // dies before the index step runs.
        let block = ledger.seal_ordered(mixed_block(20)).unwrap();
        ledger.persist_block(block).unwrap();
        assert_eq!(ledger.height(), 20);
        assert_eq!(ledger.chain_height(), 21);
        assert_view_equivalent(&ledger, &spec, "persisted, not indexed");
        assert_eq!(ledger.trace_view_folded(&spec), Some(20));
    }
    let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
    // Replay healed the torn block; the first serve re-backfills over it.
    assert_eq!(ledger.height(), 21);
    assert_view_equivalent(&ledger, &spec, "after crash heal");
    assert_eq!(ledger.trace_view_folded(&spec), Some(21));
    for seq in 21..30u64 {
        ledger.append_ordered(mixed_block(seq)).unwrap();
        assert_view_equivalent(&ledger, &spec, "appending after crash heal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `blocks` through an [`ApplyPipeline`] over `ledger`, calling
/// `between` once the first `pause` are applied, then stops it.
fn run_applier(ledger: &Arc<Ledger>, blocks: u64, pause: u64, between: impl FnOnce()) {
    let schemas = Arc::new(SchemaManager::new(None));
    let stopped = Arc::new(AtomicBool::new(false));
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut pipe = ApplyPipeline::start(Arc::clone(ledger), schemas, rx, Arc::clone(&stopped));
    let mut between = Some(between);
    for (start, end) in [(0, pause), (pause, blocks)] {
        for seq in start..end {
            tx.send(mixed_block(seq)).unwrap();
        }
        assert!(
            ledger.wait_for_height(end, Instant::now() + Duration::from_secs(30), || pipe
                .health()
                .is_poisoned())
        );
        if let Some(f) = between.take() {
            f();
        }
    }
    stopped.store(true, Ordering::Relaxed);
    drop(tx);
    pipe.join();
}

#[test]
fn a_live_appliers_views_serve_the_rescans_rows() {
    let ledger = Arc::new(
        Ledger::new(
            Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
            signer(),
        )
        .unwrap(),
    );
    let v1 = TraceSpec::new(None, None, Some("donate"));
    ledger.register_trace_view(v1.clone()).unwrap();
    // Mid-stream, with the applier live: v2 registers and v1 serves
    // (its backfill) at height 15.
    let v2 = TraceSpec::new(None, Some(ORG2.0), None);
    run_applier(&ledger, 30, 15, || {
        ledger.register_trace_view(v2.clone()).unwrap();
        assert_view_equivalent(&ledger, &v1, "mid pipeline");
    });

    // The applier moved no cursor: v1 sits where its serve left it,
    // v2 where its registration did.
    assert_eq!(ledger.trace_view_folded(&v1), Some(15));
    assert_eq!(ledger.trace_view_folded(&v2), Some(0));
    assert_view_equivalent(&ledger, &v1, "after pipeline");
    assert_view_equivalent(&ledger, &v2, "after pipeline");
    assert_eq!(ledger.trace_view_folded(&v1), Some(30));
    assert_eq!(ledger.trace_view_folded(&v2), Some(30));
    let (backfills, refreshes, ..) = ledger.trace_views().stats().snapshot();
    assert_eq!((backfills, refreshes), (2, 1));
}

/// A spec built field by field keeps its operation's case
/// (`TraceSpec::new` lowercases it). Chains built by the applier and by
/// the direct path serve it alike: every `transfer` row, matched
/// case-insensitively.
#[test]
fn mixed_case_operation_folds_alike_on_the_applier_and_the_direct_path() {
    let spec = TraceSpec {
        window: None,
        operator: None,
        operation: Some("Transfer".into()),
    };
    let ledger = || {
        let store = BlockStore::temporary(StoreConfig::default()).unwrap();
        let ledger = Arc::new(Ledger::new(Arc::new(store), signer()).unwrap());
        assert!(ledger.register_trace_view(spec.clone()).unwrap());
        ledger
    };
    let direct = ledger();
    for seq in 0..20u64 {
        direct.append_ordered(mixed_block(seq)).unwrap();
    }
    let applied = ledger();
    run_applier(&applied, 20, 10, || {});
    let a = direct.serve_trace_view(&spec).unwrap().unwrap();
    let b = applied.serve_trace_view(&spec).unwrap().unwrap();
    assert_eq!(a.len(), 30, "every transfer row is kept");
    assert_eq!(a, b, "the applier's chain served the view differently");
}

/// Four threads register one spec at once on a 60-block chain: the
/// check and the insert share one hold of the registry's write lock,
/// so exactly one call registers it, and the store keeps it once.
#[test]
fn concurrent_registrations_of_one_spec_register_it_once() {
    let dir = std::env::temp_dir().join(format!("sebdb-viewrace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TraceSpec::new(None, Some(ORG1.0), Some("donate"));
    {
        let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
        for seq in 0..60u64 {
            ledger.append_ordered(mixed_block(seq)).unwrap();
        }
        let barrier = Barrier::new(4);
        let registered: Vec<bool> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        ledger.register_trace_view(spec.clone()).unwrap()
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(registered.iter().filter(|&&r| r).count(), 1);
        assert_eq!(ledger.trace_views().len(), 1);
        assert_view_equivalent(&ledger, &spec, "after the race");
    }
    let ledger = Ledger::new(disk_store(&dir), signer()).unwrap();
    assert_eq!(ledger.trace_views().specs(), vec![spec]);
    let _ = std::fs::remove_dir_all(&dir);
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
