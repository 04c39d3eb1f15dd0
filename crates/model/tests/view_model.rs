//! Model of the materialized-view fold
//! (crates/core/src/views.rs + pipeline.rs): the applier advances the
//! applied height over each block and then, on the same thread, folds
//! the block's delta into the view exactly once (views never observe a
//! height above `Ledger::height()`); the serve path catches a lagging
//! view up under the same lock before answering, racing the applier's
//! fold.
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
//!   with the serve-path catch-up racing the applier's fold.
//!
//! Seeded negative models (a fold that skips the idempotence check; a
//! fold that runs before the applied-height advance) prove the checker
//! catches both classes of bug.

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;

const BLOCKS: u64 = 3;

/// Sum of deltas over blocks `0..n` with `delta(h) = h + 1`.
fn prefix_sum(n: u64) -> u64 {
    n * (n + 1) / 2
}

/// The model ledger-plus-view: the applied chain height and the view's
/// fold cursor and accumulated rows — all behind one lock standing in
/// for the view's `RwLock` + `height_watch`, with a condvar for height
/// waiters.
#[derive(Hash)]
struct State {
    applied: Tracked<u64>,
    folded: Tracked<u64>,
    rows: Tracked<u64>,
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

/// The applier: for each block, advance the applied height and wake
/// waiters, then fold the block under the view's lock — the
/// post-persist step's order. `skip_idempotence` is the seeded
/// double-fold bug; `fold_first` (the seeded skew bug) folds before
/// the advance.
fn run_applier(model: &Model, skip_idempotence: bool, fold_first: bool) {
    for h in 0..BLOCKS {
        if fold_first {
            Model::fold_block(&model.state.lock(), h, skip_idempotence);
        }
        let s = model.state.lock();
        s.applied.set(h + 1);
        Model::check_invariant(&s);
        drop(s);
        model.advanced.notify_all();
        if !fold_first {
            Model::fold_block(&model.state.lock(), h, skip_idempotence);
        }
    }
}

/// A tracking query arriving at arbitrary points: serve (with
/// catch-up) after every observed height advance until the chain is
/// fully applied and folded.
fn run_reader(model: &Model) {
    loop {
        model.serve();
        let mut s = model.state.lock();
        if s.applied.get() == BLOCKS && s.folded.get() == BLOCKS {
            return;
        }
        model
            .advanced
            .wait_timeout(&mut s, std::time::Duration::from_millis(50));
    }
}

fn main_model(model: Arc<Model>, skip_idempotence: bool, fold_first: bool) {
    let reader = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_reader(&model))
    };
    let applier = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_applier(&model, skip_idempotence, fold_first))
    };
    applier.join();
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

/// Seeded bug: the applier folds without the `folded > h` idempotence
/// check. The serve-path catch-up can fold a block first, between the
/// applier's height advance and its fold; the applier then folds it
/// again and the view's rows drift off the rescan sum.
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

/// Seeded bug: the applier folds a block before advancing the applied
/// height over it — the view observes a block readers cannot query
/// yet, violating the no-skew invariant.
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
