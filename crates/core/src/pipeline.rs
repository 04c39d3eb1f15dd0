//! The node's applier: one thread applies the ordered block stream.
//!
//! ```text
//!  consensus stream ──▶ [applier]  seal_ordered → persist_block → SchemaManager::apply_block
//!                                  → index_appended (index_block → advance_applied)
//! ```
//!
//! Each block runs the direct path's steps ([`Ledger::append_ordered`],
//! then the catalog) in the direct path's order, on one thread: seal
//! (Merkle root, MAC), persist (verify, then the store's append, whose
//! `sync_writes` fsyncs fan out over the block's partitions), apply the
//! block's schema transactions, then the post-persist step the direct
//! path shares — index every family, advance the applied height. A
//! registered `TRACE` view is not the applier's: the read that serves
//! it extends it (see [`crate::views`]). One thread, not stages over
//! channels: overlapping the seal of one block with the index of the
//! one before measured no faster on a two-core host (DESIGN §8.1).
//!
//! Invariant: [`Ledger::height`] (the applied height — what
//! `wait_applied` and every reader observe) advances only once every
//! index family holds a block and the catalog has its schemas.
//! [`Ledger::chain_height`] runs ahead of it only inside a step or
//! after a failed one.
//!
//! Failure mode: a step's error or panic poisons the shared
//! [`ApplierHealth`] with a message naming the step, wakes every height
//! waiter, and stops the applier — writers fail fast with
//! `NodeError::ApplierDead` instead of spinning their full apply
//! timeout. A crash between persist and index is healed by the
//! ledger's restart replay: blocks persisted but not indexed are
//! re-indexed from the chain on reopen.

use crate::ledger::{Ledger, LedgerError};
use crate::schema_mgr::SchemaManager;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use sebdb_consensus::OrderedBlock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The applier's pipeline depth, 1 on every host, under the name the
/// frozen benchmark harness calls; goes with ROADMAP item 1(b).
pub fn auto_pipeline_depth(_cores: usize) -> usize {
    1
}

/// The applier's indexer count, 1 on every host, under the name the
/// frozen benchmark harness calls; goes with ROADMAP item 1(b).
pub fn auto_applier_lanes(_cores: usize) -> usize {
    1
}

/// Shared applier health: write-once poisoned state carrying the error
/// that killed the applier.
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

    /// True once a step has failed.
    pub fn is_poisoned(&self) -> bool {
        self.error.get().is_some()
    }

    /// Records `msg` (the first one wins) and wakes every height waiter
    /// so it sees the poison.
    fn poison(&self, ledger: &Ledger, msg: String) {
        let _ = self.error.set(msg);
        ledger.notify_height_waiters();
    }
}

/// Poisons the health flag if the applier unwinds — turns a step's
/// panic into a fail-fast signal instead of a silently wedged chain.
struct PoisonOnPanic<'a> {
    health: &'a ApplierHealth,
    ledger: &'a Ledger,
    /// The step the applier is in.
    step: &'static str,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let msg = format!("applier panicked in its {} step", self.step);
            self.health.poison(self.ledger, msg);
        }
    }
}

/// Applies one ordered block, keeping in `step` the step it is in;
/// returns a failed step's error with `step` naming it.
fn apply(
    ledger: &Ledger,
    schemas: &SchemaManager,
    ordered: OrderedBlock,
    step: &mut &'static str,
) -> Result<(), LedgerError> {
    *step = "seal";
    let block = ledger.seal_ordered(ordered)?;
    *step = "persist";
    let block = ledger.persist_block(block)?;
    *step = "schema";
    schemas.apply_block(&block);
    *step = "index";
    ledger.index_appended(&block);
    Ok(())
}

/// The running applier. Owns the applier thread;
/// [`ApplyPipeline::join`] (or drop) waits for it after the caller has
/// raised its stop flag or dropped the source channel.
pub struct ApplyPipeline {
    health: Arc<ApplierHealth>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ApplyPipeline {
    /// Starts the applier over `source` (the totally-ordered block
    /// stream from consensus). It stops when `stopped` is raised,
    /// `source` disconnects, or a step fails (poisoning `health`).
    pub fn start(
        ledger: Arc<Ledger>,
        schemas: Arc<SchemaManager>,
        source: Receiver<OrderedBlock>,
        stopped: Arc<AtomicBool>,
    ) -> ApplyPipeline {
        let health = ApplierHealth::new();
        let thread = {
            let health = Arc::clone(&health);
            sebdb_parallel::spawn_service("applier", move || {
                let mut guard = PoisonOnPanic {
                    health: &health,
                    ledger: &ledger,
                    step: "seal",
                };
                while !stopped.load(Ordering::Relaxed) && !health.is_poisoned() {
                    match source.recv_timeout(Duration::from_millis(20)) {
                        Ok(ordered) => {
                            if let Err(e) = apply(&ledger, &schemas, ordered, &mut guard.step) {
                                let msg = format!("applier {} step: {e}", guard.step);
                                health.poison(&ledger, msg);
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
        };
        ApplyPipeline {
            health,
            thread: Some(thread),
        }
    }

    /// [`Self::start`] under the name the frozen benchmark harness
    /// calls (`depth` and `lanes` are ignored); goes with ROADMAP item
    /// 1(b).
    pub fn start_with_lanes(
        ledger: Arc<Ledger>,
        schemas: Arc<SchemaManager>,
        source: Receiver<OrderedBlock>,
        stopped: Arc<AtomicBool>,
        _depth: usize,
        _lanes: usize,
    ) -> ApplyPipeline {
        Self::start(ledger, schemas, source, stopped)
    }

    /// The shared health flag (clone to hand to waiters).
    pub fn health(&self) -> &Arc<ApplierHealth> {
        &self.health
    }

    /// Joins the applier thread. The caller must first make the
    /// applier quit: raise the stop flag or drop the source sender.
    pub fn join(&mut self) {
        if let Some(h) = self.thread.take() {
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
        OrderedBlock {
            seq,
            timestamp_ms: 1_000 + seq,
            txs: (0..n)
                .map(|i| {
                    let mut t = Transaction::new(
                        1_000 + seq,
                        KeyId([1; 8]),
                        if i % 2 == 0 { "donate" } else { "volunteer" },
                        vec![Value::Int(i as i64 + 1)],
                    );
                    t.tid = seq * 100 + i as u64 + 1;
                    t
                })
                .collect(),
        }
    }

    #[test]
    fn stage_error_poisons_health() {
        let ledger = ledger();
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start(Arc::clone(&ledger), schemas, rx, Arc::clone(&stopped));
        // A gap in the sequence is a seal error: seq 5 against height 0.
        tx.send(ordered(5, 2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pipe.health().is_poisoned() {
            assert!(Instant::now() < deadline, "health never poisoned");
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = pipe.health().error().unwrap();
        assert!(err.contains("seal"), "poison should name the step: {err}");
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
        // 1) — after the applier has persisted it.
        ledger.set_index_fault(Some(Box::new(|block: &sebdb_types::Block| {
            if block.header.height == 1 {
                panic!("injected index fault at height 1");
            }
        })));
        let schemas = Arc::new(SchemaManager::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let (tx, rx) = unbounded();
        let mut pipe = ApplyPipeline::start(Arc::clone(&ledger), schemas, rx, Arc::clone(&stopped));
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
        assert!(err.contains("index"), "poison should name the step: {err}");
        // The first block applied cleanly; the faulty one persisted but
        // never indexed, so the applied height stays one behind the
        // chain height, and nothing past the fault is sealed.
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipe.join();
        assert_eq!((ledger.height(), ledger.chain_height()), (1, 2));
    }
}
