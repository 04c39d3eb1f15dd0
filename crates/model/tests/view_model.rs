//! Model of the materialized-view fold stage
//! (crates/core/src/views.rs + pipeline.rs): the persister fans each
//! block to a view-folder consumer over a bounded channel; the folder
//! waits until the applied height covers the block (views never
//! observe a height above `Ledger::height()`), then folds the block's
//! delta into the view exactly once; the serve path catches a lagging
//! view up under the same lock before answering.
//!
//! The folded delta of block `h` is modelled as the number `h + 1`, so
//! the view's "rows" reduce to the running sum `folded·(folded+1)/2` —
//! any double fold, skipped fold, or out-of-order fold shifts the sum
//! and is caught by the invariant, which is exactly the equivalence
//! gate (view == fresh rescan) in miniature.
//!
//! Invariants under test:
//! - **No height skew**: `folded ≤ applied` always — the view never
//!   reflects a block readers cannot yet query.
//! - **Exactly-once fold**: `rows == prefix_sum(folded)` always, even
//!   with the serve-path catch-up racing the folder stage.
//! - **Poison propagation**: an applier that dies mid-stream wakes the
//!   folder's no-timeout height wait (a lost wakeup is a deadlock).
//!
//! Seeded negative models (a folder that skips the idempotence check;
//! a folder that folds without waiting for the applied height) prove
//! the checker catches both classes of bug.

use sebdb_model::{channel, check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;

const BLOCKS: u64 = 3;

/// Sum of deltas over blocks `0..n` with `delta(h) = h + 1`.
fn prefix_sum(n: u64) -> u64 {
    n * (n + 1) / 2
}

/// The model ledger-plus-view: the applied chain height, the view's
/// fold cursor and accumulated rows, and the poison flag — all behind
/// one lock standing in for the view's `RwLock` + `height_watch`, with
/// a condvar for height waiters.
#[derive(Hash)]
struct State {
    applied: Tracked<u64>,
    folded: Tracked<u64>,
    rows: Tracked<u64>,
    poisoned: Tracked<bool>,
}

struct Model {
    state: sync::Mutex<State>,
    advanced: sync::Condvar,
}

impl Model {
    fn new() -> Arc<Model> {
        Arc::new(Model {
            state: sync::Mutex::new(State {
                applied: Tracked::new(0),
                folded: Tracked::new(0),
                rows: Tracked::new(0),
                poisoned: Tracked::new(false),
            }),
            advanced: sync::Condvar::new(),
        })
    }

    fn check_invariant(s: &State) {
        assert!(
            s.folded.get() <= s.applied.get(),
            "view ran ahead of the applied height: folded={} applied={}",
            s.folded.get(),
            s.applied.get()
        );
        assert_eq!(
            s.rows.get(),
            prefix_sum(s.folded.get()),
            "view diverged from a fresh rescan at folded={}",
            s.folded.get()
        );
    }

    /// `fold_views` for one block under the lock: idempotence skip,
    /// gap catch-up, then the delta fold. `skip_idempotence` is the
    /// seeded double-fold bug.
    fn fold_block(s: &State, h: u64, skip_idempotence: bool) {
        if !skip_idempotence && s.folded.get() > h {
            return; // already folded (serve-path catch-up won the race)
        }
        while s.folded.get() < h {
            let gap = s.folded.get();
            s.rows.set(s.rows.get() + gap + 1);
            s.folded.set(gap + 1);
        }
        s.rows.set(s.rows.get() + h + 1);
        s.folded.set(h + 1);
        Model::check_invariant(s);
    }

    /// The serve path: catch the view up to the applied height under
    /// the lock, then "answer" — the answer must equal a fresh rescan
    /// of the applied prefix.
    fn serve(&self) {
        let s = self.state.lock();
        let target = s.applied.get();
        while s.folded.get() < target {
            let h = s.folded.get();
            Model::fold_block(&s, h, false);
        }
        assert_eq!(
            s.rows.get(),
            prefix_sum(target),
            "served result diverged from rescan at height {target}"
        );
        Model::check_invariant(&s);
    }
}

/// Applier: persist-and-index block `h` (send it downstream first, as
/// the persister hands it out before the indexer finishes), then
/// advance the applied height and wake waiters.
fn run_applier(model: &Model, folder: channel::Sender<u64>, die_at: Option<u64>) {
    for h in 0..BLOCKS {
        if die_at == Some(h) {
            // PoisonOnPanic drop guard: poison, wake every waiter.
            model.state.lock().poisoned.set(true);
            model.advanced.notify_all();
            return;
        }
        if folder.send(h).is_err() {
            return;
        }
        let s = model.state.lock();
        s.applied.set(h + 1);
        Model::check_invariant(&s);
        drop(s);
        model.advanced.notify_all();
    }
}

/// The view-folder stage: wait (no timeout — a lost wakeup deadlocks)
/// until the applied height covers the block or the pipeline poisons,
/// then fold. `skew_bug` folds immediately without the height wait.
fn run_folder(model: &Model, rx: &channel::Receiver<u64>, skip_idempotence: bool, skew_bug: bool) {
    while let Ok(h) = rx.recv() {
        let mut s = model.state.lock();
        if !skew_bug {
            while s.applied.get() < h + 1 && !s.poisoned.get() {
                model.advanced.wait(&mut s);
            }
            if s.poisoned.get() {
                return;
            }
        }
        Model::fold_block(&s, h, skip_idempotence);
    }
}

/// A tracking query arriving at arbitrary points: serve (with
/// catch-up) after every observed height advance until the chain is
/// fully applied and folded.
fn run_reader(model: &Model) {
    loop {
        model.serve();
        let mut s = model.state.lock();
        if s.poisoned.get() || (s.applied.get() == BLOCKS && s.folded.get() == BLOCKS) {
            return;
        }
        model
            .advanced
            .wait_timeout(&mut s, std::time::Duration::from_millis(50));
    }
}

fn main_model(model: Arc<Model>, skip_idempotence: bool, skew_bug: bool) {
    let (tx, rx) = channel::bounded::<u64>(1);
    let folder = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_folder(&model, &rx, skip_idempotence, skew_bug))
    };
    let reader = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_reader(&model))
    };
    let applier = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_applier(&model, tx, None))
    };
    applier.join();
    folder.join();
    reader.join();
    let s = model.state.lock();
    assert_eq!(s.applied.get(), BLOCKS);
    assert_eq!(s.folded.get(), BLOCKS, "view must reach the tip");
    Model::check_invariant(&s);
}

#[test]
fn fold_cursor_and_rescan_equivalence_hold_on_every_schedule() {
    let report = check(
        "view-fold-invariant",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || main_model(Model::new(), false, false),
    );
    assert!(
        report.schedules >= 200,
        "expected >= 200 schedules, explored {}",
        report.schedules
    );
    assert!(
        report.distinct_traces >= 200,
        "expected >= 200 distinct traces, saw {}",
        report.distinct_traces
    );
    assert_eq!(
        report.races_found, 0,
        "mainline view model must be race-free"
    );
}

/// The applier dies mid-stream; the folder is parked in its no-timeout
/// height wait for a block the chain will never apply. The poison
/// wakeup must reach it — a lost wakeup here is a hard deadlock, which
/// the checker reports.
#[test]
fn poison_wakes_the_folder_out_of_its_height_wait() {
    check(
        "view-fold-poison",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || {
            let model = Model::new();
            let (tx, rx) = channel::bounded::<u64>(1);
            let folder = {
                let model = Arc::clone(&model);
                thread::spawn(move || run_folder(&model, &rx, false, false))
            };
            let applier = {
                let model = Arc::clone(&model);
                // Send block 1 downstream but die before applying it.
                thread::spawn(move || {
                    run_applier(&model, tx, Some(1));
                })
            };
            applier.join();
            folder.join();
            let s = model.state.lock();
            assert!(s.poisoned.get());
            assert!(
                s.folded.get() <= s.applied.get(),
                "poisoned teardown still must not skew the view"
            );
            Model::check_invariant(&s);
        },
    );
}

/// Seeded bug: the folder folds without the `folded > h` idempotence
/// check. The serve-path catch-up can fold a block first; the folder
/// then folds it again and the view's rows drift off the rescan sum.
#[test]
fn double_fold_without_idempotence_check_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || main_model(Model::new(), true, false),
    );
    let failure = report.failure.expect("the double-fold bug must be caught");
    assert!(
        failure.message.contains("diverged from a fresh rescan")
            || failure.message.contains("diverged from rescan"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Seeded bug: the folder folds as soon as the block arrives, without
/// waiting for the applied height — the view observes a block readers
/// cannot query yet, violating the no-skew invariant.
#[test]
fn folding_ahead_of_the_applied_height_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || main_model(Model::new(), false, true),
    );
    let failure = report.failure.expect("the height-skew bug must be caught");
    assert!(
        failure.message.contains("ran ahead of the applied height"),
        "unexpected failure: {}",
        failure.message
    );
}
