//! The staged write pipeline: seal | persist | index, with the index
//! stage fanned out into relation-sharded applier lanes.
//!
//! The applier used to run every stage on one thread, so the
//! Merkle + MAC work of sealing block N serialized behind the index
//! updates of block N−1 even though they touch disjoint state. PR 2
//! split seal+persist from index; this revision completes the split
//! into three true stages over bounded channels and shards the index
//! stage by relation:
//!
//! ```text
//!  consensus stream      bounded       bounded(×L)
//!  ───────────▶ [sealer] ─────▶ [persister] ─┬──▶ [indexer-lane0]  chain shard +
//!               seal_ordered_at  verify       │     block/table idx  shards 0,L,2L…
//!               (Merkle, MACs;   store append │──▶ [indexer-lane1]  shards 1,L+1,…
//!                local chain     schema apply │        …
//!                cursor)         partition    └──▶ [indexer-laneL−1]
//!                                by relation        each lane: lane_applied(min ↑)
//! ```
//!
//! The persister partitions each block's tuples by relation once and
//! fans the block out to every lane. The store's append itself fans
//! out too: the block's tuples are routed to per-relation partition
//! segment sequences (`sebdb-storage`'s partitioned layout, placed by
//! first appearance, independent of the lanes' `shard_of`) written in
//! parallel, with the
//! chain-order manifest record as the single commit point — so the
//! persist stage's disk bandwidth scales with the relations touched,
//! not just the lane count. Lane *k* of *L* maintains the
//! per-table index families of every shard with `shard % L == k`; lane
//! 0 additionally owns the chain shard (the system tracking indexes,
//! whose first levels are the table and sender bitmaps and whose
//! maintenance walks every tuple anyway). Lanes receive blocks in sealed chain order over their own
//! bounded channel, so per-lane order is the chain order even though
//! lanes interleave freely with each other.
//!
//! Invariant: [`Ledger::height`] (the applied height — what
//! `wait_applied` and every reader observe) is the **minimum** over
//! the per-lane applied-height vector, so it only advances once every
//! lane has finished a block — applied ≤ indexed ≤ persisted on every
//! schedule, and cross-relation reads (joins, GET BLOCK, TRACE) stay
//! consistent. The schema catalog is applied by the persister before
//! any lane sees the block, so it is never behind an observed height.
//!
//! A fourth consumer, the **view folder**, sits strictly downstream of
//! the index lanes: it receives every persisted block (with the same
//! relation→rows partition) but folds it into the registered
//! materialized `TRACE` views only once the applied height covers it,
//! so a view never observes a height above [`Ledger::height`] (see
//! [`crate::views`]).
//!
//! Shape: `depth` sizes the hand-over channels (blocks in flight past
//! the consensus stream) and `lanes` is the indexer lane count, both
//! arguments of [`ApplyPipeline::start_with_lanes`]. Every shape runs
//! the same four consumers; a one-core host gets one lane
//! ([`auto_pipeline_depth`], [`auto_applier_lanes`], from
//! `available_parallelism`). The reference every shape is held to is
//! the direct ledger path ([`Ledger::append_ordered`], one block at a
//! time on the caller's thread): byte-identical chains, identical
//! query results.
//!
//! Failure mode: any stage error or panic poisons the shared
//! [`ApplierHealth`] with a message naming the stage, wakes every
//! height waiter, and stops the pipeline — writers fail fast with
//! `NodeError::ApplierDead` instead of spinning their full apply
//! timeout. Crash-at-stage-boundary recovery is the ledger's restart
//! replay: blocks persisted but not (fully) indexed are re-indexed
//! from the chain on reopen, per lane or not.

use crate::ledger::{Ledger, INDEX_SHARDS};
use crate::schema_mgr::SchemaManager;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use sebdb_consensus::OrderedBlock;
use sebdb_types::Block;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Default pipeline depth: one block sealing while one block indexes.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Picks a pipeline depth for a host with `cores` CPUs: a single core
/// gains nothing from buffering blocks between stages (the threads
/// just time-slice), so it gets the smallest channels (depth 1); two
/// or more cores get [`DEFAULT_PIPELINE_DEPTH`].
pub fn auto_pipeline_depth(cores: usize) -> usize {
    if cores <= 1 {
        1
    } else {
        DEFAULT_PIPELINE_DEPTH
    }
}

/// Picks an applier lane count for a host with `cores` CPUs: a single
/// core gets one lane (parallel index maintenance would just
/// time-slice); more cores get one lane per core up to
/// [`INDEX_SHARDS`] (more lanes than shards would idle).
pub fn auto_applier_lanes(cores: usize) -> usize {
    if cores <= 1 {
        1
    } else {
        cores.min(INDEX_SHARDS)
    }
}

/// Shared applier health: write-once poisoned state carrying the error
/// that killed the pipeline.
#[derive(Default)]
pub struct ApplierHealth {
    error: OnceLock<String>,
}

impl ApplierHealth {
    /// Fresh, healthy state.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The fatal error, if the applier has died.
    pub fn error(&self) -> Option<&str> {
        self.error.get().map(String::as_str)
    }

    /// True once any stage has failed.
    pub fn is_poisoned(&self) -> bool {
        self.error.get().is_some()
    }

    fn poison(&self, msg: String) {
        let _ = self.error.set(msg);
    }
}

/// Poisons the health flag if the owning thread unwinds without
/// disarming — turns a stage panic into a fail-fast signal instead of
/// a silently wedged chain.
struct PoisonOnPanic {
    health: Arc<ApplierHealth>,
    ledger: Arc<Ledger>,
    stage: String,
    armed: bool,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            self.health.poison(format!("{} stage panicked", self.stage));
            self.ledger.notify_height_waiters();
        }
    }
}

/// A block the persist stage hands to every applier lane: the
/// persisted block plus its relation→rows partition, computed once.
type LaneWork = (Arc<Block>, Arc<HashMap<String, Vec<u32>>>);

/// The running staged applier. Owns the stage threads;
/// [`ApplyPipeline::join`] (or drop) waits for them after the caller
/// has raised its stop flag or dropped the source channel.
pub struct ApplyPipeline {
    health: Arc<ApplierHealth>,
    threads: Vec<std::thread::JoinHandle<()>>,
    ledger: Arc<Ledger>,
}

impl ApplyPipeline {
    /// Starts the pipeline over `source` (the totally-ordered block
    /// stream from consensus) with `lanes` relation-sharded indexer
    /// lanes (clamped to `1..=INDEX_SHARDS`). Every shape runs seal |
    /// persist | index | view-fold over bounded channels of
    /// `max(depth − 1, 1)` blocks. The pipeline stops when `stopped` is
    /// raised, `source` disconnects, or a stage fails (poisoning
    /// `health`).
    pub fn start_with_lanes(
        ledger: Arc<Ledger>,
        schemas: Arc<SchemaManager>,
        source: Receiver<OrderedBlock>,
        stopped: Arc<AtomicBool>,
        depth: usize,
        lanes: usize,
    ) -> ApplyPipeline {
        let lanes = lanes.clamp(1, INDEX_SHARDS);
        let health = ApplierHealth::new();
        let buffer = depth.saturating_sub(1).max(1);
        ledger.install_applied_vector(lanes);
        let (seal_tx, seal_rx) = bounded::<Block>(buffer);
        let mut threads = Vec::with_capacity(2 + lanes);

        // Stage 1: sealer. Tracks its own (prev, height) chain cursor
        // so it can seal block N+1 while the persister is still
        // appending block N (the store tip lags the cursor by the
        // blocks in flight).
        threads.push({
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            let stopped = Arc::clone(&stopped);
            sebdb_parallel::spawn_service("sealer", move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: "sealer".into(),
                    armed: true,
                };
                let mut prev = ledger.tip_hash();
                let mut height = ledger.chain_height();
                loop {
                    if stopped.load(Ordering::Relaxed) || health.is_poisoned() {
                        guard.armed = false;
                        return; // dropping seal_tx drains downstream
                    }
                    match source.recv_timeout(Duration::from_millis(20)) {
                        Ok(ordered) => match ledger.seal_ordered_at(prev, height, ordered) {
                            Ok(block) => {
                                prev = block.header.block_hash;
                                height += 1;
                                if seal_tx.send(block).is_err() {
                                    guard.armed = false;
                                    return; // persister gone
                                }
                            }
                            Err(e) => {
                                health.poison(format!("sealer: {e}"));
                                ledger.notify_height_waiters();
                                guard.armed = false;
                                return;
                            }
                        },
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            guard.armed = false;
                            return;
                        }
                    }
                }
            })
        });

        // Stage 2: persister. Verifies + appends each sealed block,
        // applies schema transactions (before any lane can index the
        // block, so the catalog never lags an observed height), then
        // partitions tuples by relation once and fans out to lanes
        // (and the view folder).
        let mut lane_channels: Vec<(Sender<LaneWork>, Receiver<LaneWork>)> = Vec::new();
        for _ in 0..lanes {
            lane_channels.push(bounded::<LaneWork>(buffer));
        }
        let (view_tx, view_rx) = bounded::<LaneWork>(buffer);
        let lane_txs: Vec<Sender<LaneWork>> = lane_channels
            .iter()
            .map(|(tx, _)| tx.clone())
            .chain(std::iter::once(view_tx))
            .collect();
        threads.push({
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            sebdb_parallel::spawn_service("persister", move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: "persister".into(),
                    armed: true,
                };
                // Drains until the sealer drops its sender; persist
                // order is the channel order, which is seal (= height)
                // order.
                for block in seal_rx.iter() {
                    match ledger.persist_block(block) {
                        Ok(block) => {
                            schemas.apply_block(&block);
                            let rows = Arc::new(Ledger::relation_rows(&block));
                            let mut gone = false;
                            for tx in &lane_txs {
                                if tx.send((Arc::clone(&block), Arc::clone(&rows))).is_err() {
                                    gone = true; // lane died (poisoned)
                                    break;
                                }
                            }
                            if gone {
                                break;
                            }
                        }
                        Err(e) => {
                            health.poison(format!("persister: {e}"));
                            ledger.notify_height_waiters();
                            break;
                        }
                    }
                }
                guard.armed = false;
            })
        });

        // Stage 3: the relation-sharded indexer lanes. Lane k owns the
        // per-table shards with `shard % lanes == k`; lane 0 also owns
        // the chain-level structures. Each lane advances its slot of
        // the applied-height vector; the scalar applied height readers
        // see is the min over lanes.
        for (lane, (_, lane_rx)) in lane_channels.into_iter().enumerate() {
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            let name = format!("indexer-lane{lane}");
            let thread_name = name.clone();
            threads.push(sebdb_parallel::spawn_service(&thread_name, move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: name,
                    armed: true,
                };
                for (block, rows) in lane_rx.iter() {
                    if lane == 0 {
                        ledger.index_chain_lane(&block);
                    }
                    ledger.index_relation_lane(lane, lanes, &block, &rows);
                    ledger.lane_applied(lane, block.header.height + 1);
                }
                guard.armed = false;
            }));
        }

        // Stage 4: the view folder — the fourth pipeline consumer,
        // strictly downstream of the index lanes. It receives the same
        // per-block work the lanes do but waits for the applied height
        // (the min over every lane) to cover a block before folding it
        // into the registered materialized views, so a view never
        // observes a height above `Ledger::height()`. The lanes drain
        // independently of this channel, so the wait cannot deadlock
        // the pipeline; on stop or poison any unfolded blocks heal via
        // the serve path's catch-up.
        threads.push({
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            let stopped = Arc::clone(&stopped);
            sebdb_parallel::spawn_service("view-folder", move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: "view-folder".into(),
                    armed: true,
                };
                for (block, rows) in view_rx.iter() {
                    let target = block.header.height + 1;
                    while !ledger.wait_for_height(
                        target,
                        Instant::now() + Duration::from_millis(100),
                        || stopped.load(Ordering::Relaxed) || health.is_poisoned(),
                    ) {
                        if stopped.load(Ordering::Relaxed) || health.is_poisoned() {
                            guard.armed = false;
                            return;
                        }
                    }
                    if let Err(e) = ledger.fold_views(&block, Some(&rows)) {
                        health.poison(format!("view-folder: {e}"));
                        ledger.notify_height_waiters();
                        break;
                    }
                }
                guard.armed = false;
            })
        });
        ApplyPipeline {
            health,
            threads,
            ledger,
        }
    }

    /// The shared health flag (clone to hand to waiters).
    pub fn health(&self) -> &Arc<ApplierHealth> {
        &self.health
    }

    /// Joins every stage thread. The caller must first make the
    /// pipeline quit: raise the stop flag or drop the source sender.
    pub fn join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        self.ledger.clear_applied_vector();
    }
}

impl Drop for ApplyPipeline {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use sebdb_crypto::sig::KeyId;
    use sebdb_crypto::MacKeypair;
    use sebdb_storage::{BlockStore, StoreConfig};
    use sebdb_types::{Transaction, Value};
    use std::time::Instant;

    fn ledger() -> Arc<Ledger> {
        Arc::new(
            Ledger::new(
                Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
                MacKeypair::from_key([7u8; 32]),
            )
            .unwrap(),
        )
    }

    fn ordered(seq: u64, n: usize) -> OrderedBlock {
        // Fixed timestamps: the equivalence assertion compares tip
        // hashes across two independent runs.
        OrderedBlock {
            seq,
            timestamp_ms: 1_000 + seq,
            txs: (0..n)
                .map(|i| {
                    let mut t = Transaction::new(
                        1_000 + seq,
                        KeyId([1; 8]),
                        // Spread tuples over relations so every lane of
                        // a multi-lane run has shards to maintain.
                        if i % 2 == 0 { "donate" } else { "volunteer" },
                        vec![Value::Int(i as i64 + 1)],
                    );
                    t.tid = seq * 100 + i as u64 + 1;
                    t
                })
                .collect(),
        }
    }

    fn run_config(depth: usize, lanes: usize, blocks: u64) -> Arc<Ledger> {
        let ledger = ledger();
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start_with_lanes(
            Arc::clone(&ledger),
            schemas,
            rx,
            Arc::clone(&stopped),
            depth,
            lanes,
        );
        for seq in 0..blocks {
            tx.send(ordered(seq, 8)).unwrap();
        }
        assert!(
            ledger.wait_for_height(blocks, Instant::now() + Duration::from_secs(10), || pipe
                .health()
                .is_poisoned())
        );
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
        ledger
    }

    fn run_depth(depth: usize, blocks: u64) -> Arc<Ledger> {
        run_config(depth, 1, blocks)
    }

    #[test]
    fn depths_produce_identical_chains() {
        let a = run_depth(1, 20);
        let b = run_depth(4, 20);
        assert_eq!(a.height(), 20);
        assert_eq!(b.height(), 20);
        assert_eq!(a.tip_hash(), b.tip_hash());
        a.verify_chain().unwrap();
        b.verify_chain().unwrap();
    }

    #[test]
    fn lane_counts_produce_identical_chains_and_indexes() {
        let a = run_config(1, 1, 20);
        let b = run_config(4, 4, 20);
        assert_eq!(a.height(), 20);
        assert_eq!(b.height(), 20);
        assert_eq!(a.tip_hash(), b.tip_hash());
        b.verify_chain().unwrap();
        // The system tracking index answers identically however many
        // lanes maintained it.
        for l in [&a, &b] {
            let hits = l
                .with_layered(None, "tname", |idx| {
                    idx.candidate_blocks(&sebdb_index::KeyPredicate::Eq(Value::str("volunteer")))
                })
                .unwrap();
            assert_eq!(hits.count_ones(), 20);
        }
    }

    #[test]
    fn lane_vector_clears_on_join() {
        let l = run_config(2, 3, 5);
        assert!(l.applied_vector().is_none());
        assert_eq!(l.height(), 5);
    }

    #[test]
    fn stage_error_poisons_health() {
        let ledger = ledger();
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start_with_lanes(
            Arc::clone(&ledger),
            schemas,
            rx,
            Arc::clone(&stopped),
            2,
            1,
        );
        // A gap in the sequence is a seal error: seq 5 against height 0.
        tx.send(ordered(5, 2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pipe.health().is_poisoned() {
            assert!(Instant::now() < deadline, "health never poisoned");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(pipe.health().error().unwrap().contains("sealer"));
        // Waiters abort fast instead of burning their full timeout.
        let waited = Instant::now();
        assert!(
            !ledger.wait_for_height(1, Instant::now() + Duration::from_secs(10), || pipe
                .health()
                .is_poisoned())
        );
        assert!(waited.elapsed() < Duration::from_secs(2));
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
    }

    #[test]
    fn indexer_stage_panic_poisons_health_and_wakes_waiters() {
        let ledger = ledger();
        // Inject a panic while indexing the second block (header height
        // 1) — after the persister has appended it, mid-way through the
        // indexer stage.
        ledger.set_index_fault(Some(Box::new(|block: &sebdb_types::Block| {
            if block.header.height == 1 {
                panic!("injected index fault at height 1");
            }
        })));
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start_with_lanes(
            Arc::clone(&ledger),
            schemas,
            rx,
            Arc::clone(&stopped),
            3,
            1,
        );
        for seq in 0..4 {
            tx.send(ordered(seq, 2)).unwrap();
        }
        // The waiter must wake on the poison signal, not burn its
        // timeout.
        let waited = Instant::now();
        let reached = ledger.wait_for_height(4, Instant::now() + Duration::from_secs(10), || {
            pipe.health().is_poisoned()
        });
        assert!(!reached, "chain must not reach height 4 past the fault");
        assert!(
            waited.elapsed() < Duration::from_secs(5),
            "waiter should abort fast on poison, waited {:?}",
            waited.elapsed()
        );
        assert!(pipe.health().is_poisoned());
        let err = pipe.health().error().unwrap();
        assert!(
            err.contains("indexer"),
            "poison should name the stage: {err}"
        );
        // The first block applied cleanly; the faulty one persisted
        // (the pipeline ran ahead) but never indexed, so the applied
        // height stays behind the chain height.
        assert_eq!(ledger.height(), 1);
        assert!(ledger.chain_height() >= 2);
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
    }

    #[test]
    fn lane_panic_poisons_health_with_lane_name() {
        let ledger = ledger();
        ledger.set_index_fault(Some(Box::new(|block: &sebdb_types::Block| {
            if block.header.height == 2 {
                panic!("injected lane fault at height 2");
            }
        })));
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start_with_lanes(
            Arc::clone(&ledger),
            schemas,
            rx,
            Arc::clone(&stopped),
            2,
            4,
        );
        for seq in 0..5 {
            tx.send(ordered(seq, 4)).unwrap();
        }
        let reached = ledger.wait_for_height(5, Instant::now() + Duration::from_secs(10), || {
            pipe.health().is_poisoned()
        });
        assert!(!reached);
        let err = pipe.health().error().unwrap().to_string();
        assert!(
            err.contains("indexer-lane0"),
            "fault hook runs on lane 0: {err}"
        );
        // Quiesce the surviving lanes, then check the heights: the
        // fault fired at height 2, so blocks 0 and 1 fully applied and
        // the applied height (min over lanes) never passes the dead
        // lane even though other lanes kept going.
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
        assert_eq!(ledger.height(), 2);
        assert!(ledger.chain_height() >= 3);
    }

    #[test]
    fn auto_depth_single_core_has_the_smallest_channels() {
        assert_eq!(auto_pipeline_depth(0), 1);
        assert_eq!(auto_pipeline_depth(1), 1);
    }

    #[test]
    fn auto_depth_multi_core_overlaps_stages() {
        assert_eq!(auto_pipeline_depth(2), DEFAULT_PIPELINE_DEPTH);
        assert_eq!(auto_pipeline_depth(8), DEFAULT_PIPELINE_DEPTH);
    }

    #[test]
    fn auto_lanes_track_cores_up_to_shards() {
        assert_eq!(auto_applier_lanes(0), 1);
        assert_eq!(auto_applier_lanes(1), 1);
        assert_eq!(auto_applier_lanes(2), 2);
        assert_eq!(auto_applier_lanes(8), INDEX_SHARDS);
        assert_eq!(auto_applier_lanes(64), INDEX_SHARDS);
    }
}
