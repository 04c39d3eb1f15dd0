//! The staged write pipeline: seal | persist | index | view fold.
//!
//! Each stage runs on its own thread over bounded channels, so the
//! Merkle + MAC work of sealing block N overlaps the index updates of
//! block N−1 (they touch disjoint state):
//!
//! ```text
//!  consensus stream      bounded          bounded
//!  ───────────▶ [sealer] ─────▶ [persister] ─┬──▶ [indexer]      index_block,
//!               seal_ordered_at  verify       │                   then applied height ↑
//!               (Merkle, MACs;   store append │
//!                local chain     schema apply └──▶ [view-folder]  folds once the
//!                cursor)         relation_rows                    applied height covers it
//! ```
//!
//! The persister partitions each block's tuples by relation once and
//! hands the block with that partition to the indexer and the view
//! folder. The store's append itself fans out: the block's tuples are
//! routed to per-relation partition segment sequences
//! (`sebdb-storage`'s partitioned layout, placed by first appearance)
//! written in parallel, with the chain-order manifest record as the
//! single commit point. The indexer runs the direct path's index step
//! (`Ledger::index_block`, what [`Ledger::index_appended`] runs
//! before its view fold) on every block in sealed chain order, then
//! advances the applied height. One indexer, not relation-sharded
//! lanes: the lanes measured no faster on a two-core host (DESIGN §11).
//!
//! Invariant: [`Ledger::height`] (the applied height — what
//! `wait_applied` and every reader observe) advances only once every
//! index family holds a block — applied ≤ indexed ≤ persisted on every
//! schedule, and cross-relation reads (joins, GET BLOCK, TRACE) stay
//! consistent. The schema catalog is applied by the persister before
//! the indexer sees the block, so it is never behind an observed
//! height.
//!
//! The **view folder** sits strictly downstream of the indexer: it
//! receives every persisted block (with the same relation→rows
//! partition) but folds it into the registered materialized `TRACE`
//! views only once the applied height covers it, so a view never
//! observes a height above [`Ledger::height`] (see [`crate::views`]).
//!
//! Shape: `depth` sizes the hand-over channels (blocks in flight past
//! the consensus stream), the one argument of [`ApplyPipeline::start`]
//! beyond its inputs; a one-core host gets the smallest channels
//! ([`auto_pipeline_depth`], from `available_parallelism`). The
//! reference every depth is held to is the direct ledger path
//! ([`Ledger::append_ordered`], one block at a time on the caller's
//! thread): byte-identical chains, identical query results.
//!
//! Failure mode: any stage error or panic poisons the shared
//! [`ApplierHealth`] with a message naming the stage, wakes every
//! height waiter, and stops the pipeline — writers fail fast with
//! `NodeError::ApplierDead` instead of spinning their full apply
//! timeout. Crash-at-stage-boundary recovery is the ledger's restart
//! replay: blocks persisted but not indexed are re-indexed from the
//! chain on reopen.

use crate::ledger::Ledger;
use crate::schema_mgr::SchemaManager;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
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

/// The applier's indexer count, 1 on every host, under the name the
/// frozen benchmark harness calls; goes when the harness is re-pinned
/// (ROADMAP item 1).
pub fn auto_applier_lanes(_cores: usize) -> usize {
    1
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
    stage: &'static str,
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

/// A block the persist stage hands to the indexer and the view folder:
/// the persisted block plus its relation→rows partition, computed once.
type BlockWork = (Arc<Block>, Arc<HashMap<String, Vec<u32>>>);

/// The running staged applier. Owns the stage threads;
/// [`ApplyPipeline::join`] (or drop) waits for them after the caller
/// has raised its stop flag or dropped the source channel.
pub struct ApplyPipeline {
    health: Arc<ApplierHealth>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ApplyPipeline {
    /// Starts the pipeline over `source` (the totally-ordered block
    /// stream from consensus): seal | persist | index | view-fold over
    /// bounded channels of `max(depth − 1, 1)` blocks. The pipeline
    /// stops when `stopped` is raised, `source` disconnects, or a stage
    /// fails (poisoning `health`).
    pub fn start(
        ledger: Arc<Ledger>,
        schemas: Arc<SchemaManager>,
        source: Receiver<OrderedBlock>,
        stopped: Arc<AtomicBool>,
        depth: usize,
    ) -> ApplyPipeline {
        let health = ApplierHealth::new();
        let buffer = depth.saturating_sub(1).max(1);
        let (seal_tx, seal_rx) = bounded::<Block>(buffer);
        let mut threads = Vec::with_capacity(4);

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
                    stage: "sealer",
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
        // applies schema transactions (before the indexer can index
        // the block, so the catalog never lags an observed height),
        // then partitions tuples by relation once and hands the block
        // to the indexer and the view folder.
        let (index_tx, index_rx) = bounded::<BlockWork>(buffer);
        let (view_tx, view_rx) = bounded::<BlockWork>(buffer);
        threads.push({
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            sebdb_parallel::spawn_service("persister", move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: "persister",
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
                            let work = (block, rows);
                            if index_tx.send(work.clone()).is_err() || view_tx.send(work).is_err() {
                                break; // a consumer died (poisoned)
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

        // Stage 3: the indexer. Blocks arrive in sealed chain order;
        // each is indexed into every family before the applied height
        // covers it.
        threads.push({
            let ledger = Arc::clone(&ledger);
            let health = Arc::clone(&health);
            sebdb_parallel::spawn_service("indexer", move || {
                let mut guard = PoisonOnPanic {
                    health: Arc::clone(&health),
                    ledger: Arc::clone(&ledger),
                    stage: "indexer",
                    armed: true,
                };
                for (block, rows) in index_rx.iter() {
                    ledger.index_block(&block, &rows);
                    ledger.advance_applied(block.header.height + 1);
                }
                guard.armed = false;
            })
        });

        // Stage 4: the view folder, strictly downstream of the
        // indexer. It receives the same per-block work but waits for
        // the applied height to cover a block before folding it into
        // the registered materialized views, so a view never observes
        // a height above `Ledger::height()`. The indexer drains
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
                    stage: "view-folder",
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
        ApplyPipeline { health, threads }
    }

    /// [`Self::start`] under the name the frozen benchmark harness
    /// calls (`lanes` is ignored); goes when the harness is re-pinned
    /// (ROADMAP item 1).
    pub fn start_with_lanes(
        ledger: Arc<Ledger>,
        schemas: Arc<SchemaManager>,
        source: Receiver<OrderedBlock>,
        stopped: Arc<AtomicBool>,
        depth: usize,
        _lanes: usize,
    ) -> ApplyPipeline {
        Self::start(ledger, schemas, source, stopped, depth)
    }

    /// The shared health flag (clone to hand to waiters).
    pub fn health(&self) -> &Arc<ApplierHealth> {
        &self.health
    }

    /// Joins every stage thread. The caller must first make the
    /// pipeline quit: raise the stop flag or drop the source sender.
    pub fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
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
                        // Spread tuples over relations so the indexer
                        // hands each per-table family only its rows.
                        if i % 2 == 0 { "donate" } else { "volunteer" },
                        vec![Value::Int(i as i64 + 1)],
                    );
                    t.tid = seq * 100 + i as u64 + 1;
                    t
                })
                .collect(),
        }
    }

    fn run_depth(depth: usize, blocks: u64) -> Arc<Ledger> {
        let ledger = ledger();
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start(
            Arc::clone(&ledger),
            schemas,
            rx,
            Arc::clone(&stopped),
            depth,
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

    #[test]
    fn depths_produce_identical_chains() {
        let a = run_depth(1, 20);
        let b = run_depth(4, 20);
        assert_eq!(a.height(), 20);
        assert_eq!(b.height(), 20);
        assert_eq!(a.tip_hash(), b.tip_hash());
        a.verify_chain().unwrap();
        b.verify_chain().unwrap();
        // The system tracking index answers identically at every depth.
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
    fn stage_error_poisons_health() {
        let ledger = ledger();
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe =
            ApplyPipeline::start(Arc::clone(&ledger), schemas, rx, Arc::clone(&stopped), 2);
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
        let mut pipe =
            ApplyPipeline::start(Arc::clone(&ledger), schemas, rx, Arc::clone(&stopped), 3);
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
        // height stays behind the chain height — and stays pinned
        // there once the surviving stages have quiesced.
        assert_eq!(ledger.height(), 1);
        assert!(ledger.chain_height() >= 2);
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
        assert_eq!(ledger.height(), 1);
        assert!(ledger.chain_height() >= 2);
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
}
