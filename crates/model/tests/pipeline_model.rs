//! Model of the apply pipeline (crates/core/src/pipeline.rs): a sealer
//! stage persists blocks and hands them to an indexer stage over a
//! depth-1 channel; the indexer indexes and then advances the applied
//! height, which height-waiters observe through a condvar.
//!
//! The invariants under test are the ledger's height contract —
//! `applied <= indexed <= persisted` at every observable point, so the
//! applied height only advances once a block is both persisted and
//! indexed (chain height may run ahead; applied height never does) —
//! and chain order: the indexer sees every block exactly once, in
//! sealed order. Seeded negative models (applied advanced before the
//! index write; blocks handed over out of order) prove the checker
//! catches both.

use sebdb_model::{channel, check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;

const BLOCKS: u64 = 2;

/// The model ledger: three height counters and the poison flag, each
/// update its own lock acquisition so the explorer can preempt between
/// them, plus a condvar for height waiters.
#[derive(Hash)]
struct Heights {
    persisted: Tracked<u64>,
    indexed: Tracked<u64>,
    applied: Tracked<u64>,
    poisoned: Tracked<bool>,
}

struct Ledger {
    heights: sync::Mutex<Heights>,
    advanced: sync::Condvar,
}

impl Ledger {
    fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            heights: sync::Mutex::new(Heights {
                persisted: Tracked::new(0),
                indexed: Tracked::new(0),
                applied: Tracked::new(0),
                poisoned: Tracked::new(false),
            }),
            advanced: sync::Condvar::new(),
        })
    }

    fn check_invariant(h: &Heights) {
        let (applied, indexed, persisted) = (h.applied.get(), h.indexed.get(), h.persisted.get());
        assert!(
            applied <= indexed && indexed <= persisted,
            "height invariant violated: applied={applied} indexed={indexed} persisted={persisted}"
        );
    }
}

/// The seeded bug a [`main_model`] run carries, if any.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    None,
    /// The indexer advances applied before the index write lands.
    ApplyFirst,
    /// The sealer hands blocks over in reverse chain order.
    Reorder,
}

/// Sealer stage: persist each block, then hand it to the indexer.
/// Returns early if the indexer is gone (crash model). With `reorder`
/// (the seeded bug) everything is persisted up front and handed over
/// in reverse, so only the ordering check can fire.
fn run_sealer(ledger: &Ledger, to_indexer: &channel::Sender<u64>, reorder: bool) {
    let heights: Vec<u64> = if reorder {
        ledger.heights.lock().persisted.set(BLOCKS);
        (1..=BLOCKS).rev().collect()
    } else {
        (1..=BLOCKS).collect()
    };
    for h in heights {
        if !reorder {
            ledger.heights.lock().persisted.set(h);
        }
        if to_indexer.send(h).is_err() {
            return;
        }
    }
}

fn main_model(ledger: Arc<Ledger>, bug: Bug) {
    let (seal_tx, seal_rx) = channel::bounded::<u64>(1);
    let sealer = {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || run_sealer(&ledger, &seal_tx, bug == Bug::Reorder))
    };
    let indexer = {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || {
            let mut last = 0u64;
            while let Ok(h) = seal_rx.recv() {
                assert_eq!(
                    h,
                    last + 1,
                    "indexer received height {h} after {last}: chain order broken"
                );
                last = h;
                if bug == Bug::ApplyFirst {
                    // The seeded bug: applied advances before the index
                    // write lands — waiters can observe an applied
                    // block that is not yet indexed.
                    ledger.heights.lock().applied.set(h);
                    ledger.heights.lock().indexed.set(h);
                } else {
                    ledger.heights.lock().indexed.set(h);
                    ledger.heights.lock().applied.set(h);
                }
                ledger.advanced.notify_all();
            }
        })
    };
    // Height waiter: observes the counters at every wakeup and at every
    // spurious/timeout wakeup the scheduler chooses to fire.
    let waiter = {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || {
            let mut guard = ledger.heights.lock();
            while guard.applied.get() < BLOCKS {
                Ledger::check_invariant(&guard);
                ledger
                    .advanced
                    .wait_timeout(&mut guard, std::time::Duration::from_millis(50));
            }
            Ledger::check_invariant(&guard);
        })
    };
    sealer.join();
    indexer.join();
    waiter.join();
    let h = ledger.heights.lock();
    assert_eq!(h.applied.get(), BLOCKS);
    Ledger::check_invariant(&h);
}

#[test]
fn height_invariant_holds_on_every_schedule() {
    let report = check(
        "pipeline-height-invariant",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: false,
        },
        || main_model(Ledger::new(), Bug::None),
    );
    assert!(
        report.schedules >= 500,
        "expected >= 500 schedules, explored {}",
        report.schedules
    );
    assert!(
        report.distinct_traces >= 500,
        "expected >= 500 distinct traces, saw {}",
        report.distinct_traces
    );
    assert_eq!(
        report.races_found, 0,
        "mainline pipeline model must be race-free"
    );
}

#[test]
fn applied_before_indexed_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: false,
        },
        || main_model(Ledger::new(), Bug::ApplyFirst),
    );
    let failure = report
        .failure
        .expect("the applied-before-indexed bug must be caught");
    assert!(
        failure.message.contains("height invariant violated"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn reordered_delivery_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: false,
        },
        || main_model(Ledger::new(), Bug::Reorder),
    );
    let failure = report
        .failure
        .expect("the reordered-delivery bug must be caught");
    assert!(
        failure.message.contains("chain order broken"),
        "unexpected failure: {}",
        failure.message
    );
}

/// The indexer stage "panics" mid-block (modelled as the PoisonOnPanic
/// drop guard firing: poison the health flag, wake every waiter, tear
/// down the stage). Waiters block *without* a timeout here so a lost
/// poison wakeup shows up as a hard deadlock.
#[test]
fn indexer_poison_wakes_height_waiters() {
    check(
        "pipeline-poison",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: false,
        },
        || {
            let ledger = Ledger::new();
            let (seal_tx, seal_rx) = channel::bounded::<u64>(1);
            let sealer = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || run_sealer(&ledger, &seal_tx, false))
            };
            let indexer = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    while let Ok(h) = seal_rx.recv() {
                        if h == BLOCKS {
                            // Panic mid-block: the drop guard poisons
                            // health and wakes waiters; the stage (and
                            // its receiver) goes away.
                            ledger.heights.lock().poisoned.set(true);
                            ledger.advanced.notify_all();
                            return;
                        }
                        ledger.heights.lock().indexed.set(h);
                        ledger.heights.lock().applied.set(h);
                        ledger.advanced.notify_all();
                    }
                })
            };
            let waiter = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    let mut guard = ledger.heights.lock();
                    while guard.applied.get() < BLOCKS && !guard.poisoned.get() {
                        Ledger::check_invariant(&guard);
                        // No timeout: a lost poison wakeup deadlocks.
                        ledger.advanced.wait(&mut guard);
                    }
                    guard.poisoned.get()
                })
            };
            sealer.join();
            indexer.join();
            let saw_poison = waiter.join();
            assert!(saw_poison, "waiter exited without poison at h < BLOCKS");
            let h = ledger.heights.lock();
            assert!(h.applied.get() < BLOCKS && h.poisoned.get());
            Ledger::check_invariant(&h);
        },
    );
}

/// The indexer crashes at the stage boundary: the block is persisted
/// but not yet indexed. Recovery (restart) observes indexed < persisted
/// and replays the index step; the applied height must stay behind
/// until it does.
#[test]
fn crash_at_stage_boundary_recovers() {
    check(
        "pipeline-crash-boundary",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: false,
        },
        || {
            let ledger = Ledger::new();
            let (seal_tx, seal_rx) = channel::bounded::<u64>(1);
            let sealer = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || run_sealer(&ledger, &seal_tx, false))
            };
            let indexer = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    // Crashes after block 1: block 2 may land persisted
                    // but unindexed.
                    if let Ok(h) = seal_rx.recv() {
                        ledger.heights.lock().indexed.set(h);
                        ledger.heights.lock().applied.set(h);
                        ledger.advanced.notify_all();
                    }
                })
            };
            sealer.join();
            indexer.join();
            // Restart path: replay everything persisted but unindexed.
            {
                let guard = ledger.heights.lock();
                Ledger::check_invariant(&guard);
                if guard.indexed.get() < guard.persisted.get() {
                    guard.indexed.set(guard.persisted.get());
                }
                guard.applied.set(guard.indexed.get());
                Ledger::check_invariant(&guard);
            }
            ledger.advanced.notify_all();
            let h = ledger.heights.lock();
            assert_eq!(
                h.applied.get(),
                h.persisted.get(),
                "recovery must catch applied up"
            );
        },
    );
}
