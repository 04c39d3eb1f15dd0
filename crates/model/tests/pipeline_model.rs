//! Model of the applier (crates/core/src/pipeline.rs): one applier
//! thread persists each block, indexes it and then advances the
//! applied height, which height waiters observe through a condvar.
//!
//! The invariant under test is the ledger's height contract —
//! `applied <= indexed <= persisted` at every observable point, so the
//! applied height only advances once a block is both persisted and
//! indexed (chain height may run ahead inside a block's steps; applied
//! height never does). A seeded negative model (applied advanced
//! before the index write) proves the checker catches a violation.

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
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

/// Applies blocks `1..=BLOCKS` in order: persist, index, advance the
/// applied height (each its own lock acquisition), wake waiters. With
/// `apply_first` (the seeded bug) the height advances before the index
/// write lands, so waiters can observe an applied block that is not
/// yet indexed. Stops short with the block at `crash_at` persisted but
/// not indexed.
fn run_applier(ledger: &Ledger, apply_first: bool, crash_at: Option<u64>) {
    for h in 1..=BLOCKS {
        ledger.heights.lock().persisted.set(h);
        if crash_at == Some(h) {
            return;
        }
        if apply_first {
            ledger.heights.lock().applied.set(h);
            ledger.heights.lock().indexed.set(h);
        } else {
            ledger.heights.lock().indexed.set(h);
            ledger.heights.lock().applied.set(h);
        }
        ledger.advanced.notify_all();
    }
}

/// A height waiter: observes the counters at every wakeup and at every
/// spurious/timeout wakeup the scheduler chooses to fire.
fn run_waiter(ledger: &Ledger) {
    let mut guard = ledger.heights.lock();
    while guard.applied.get() < BLOCKS {
        Ledger::check_invariant(&guard);
        ledger
            .advanced
            .wait_timeout(&mut guard, std::time::Duration::from_millis(50));
    }
    Ledger::check_invariant(&guard);
}

fn main_model(ledger: Arc<Ledger>, apply_first: bool) {
    let applier = {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || run_applier(&ledger, apply_first, None))
    };
    let waiter = {
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || run_waiter(&ledger))
    };
    applier.join();
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
        || main_model(Ledger::new(), false),
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
        || main_model(Ledger::new(), true),
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

/// The applier "panics" in the index step of the last block (modelled
/// as the PoisonOnPanic drop guard firing: poison the health flag, wake
/// every waiter, end the thread). Waiters block *without* a timeout
/// here so a lost poison wakeup shows up as a hard deadlock.
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
            let applier = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    run_applier(&ledger, false, Some(BLOCKS));
                    // Panic mid-block: the drop guard poisons health
                    // and wakes waiters.
                    ledger.heights.lock().poisoned.set(true);
                    ledger.advanced.notify_all();
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
            applier.join();
            let saw_poison = waiter.join();
            assert!(saw_poison, "waiter exited without poison at h < BLOCKS");
            let h = ledger.heights.lock();
            assert!(h.applied.get() < BLOCKS && h.poisoned.get());
            Ledger::check_invariant(&h);
        },
    );
}

/// The applier crashes between the persist and index steps of the
/// last block: it is persisted but not indexed. Recovery (restart)
/// observes indexed < persisted and replays the index step; the
/// applied height must stay behind until it does, as a height waiter
/// watching from before the crash sees.
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
            let waiter = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    let mut guard = ledger.heights.lock();
                    while guard.applied.get() < BLOCKS {
                        Ledger::check_invariant(&guard);
                        ledger.advanced.wait(&mut guard);
                    }
                    Ledger::check_invariant(&guard);
                })
            };
            let applier = {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || run_applier(&ledger, false, Some(BLOCKS)))
            };
            applier.join();
            // Restart path: replay everything persisted but unindexed.
            {
                let guard = ledger.heights.lock();
                Ledger::check_invariant(&guard);
                assert!(
                    guard.indexed.get() < guard.persisted.get(),
                    "the crash must leave a persisted, unindexed block"
                );
                guard.indexed.set(guard.persisted.get());
            }
            ledger.heights.lock().applied.set(BLOCKS);
            ledger.advanced.notify_all();
            waiter.join();
            let h = ledger.heights.lock();
            assert_eq!(
                h.applied.get(),
                h.persisted.get(),
                "recovery must catch applied up"
            );
        },
    );
}
