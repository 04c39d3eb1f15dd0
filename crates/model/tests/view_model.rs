//! Model of a materialized view's one maintenance path
//! (crates/core/src/views.rs): the applier advances the persisted and
//! then the applied height and never touches a view; two clients each
//! register the view's spec and serve it twice. A serve reads the
//! applied height, takes the view's write lock, extends the view over
//! the blocks from its cursor to that height and moves the cursor
//! there. A registration checks and inserts the spec under one hold of
//! the registry's write lock.
//!
//! The rows block `h` contributes are modelled as the number `h + 1`,
//! so the view's "rows" reduce to the running sum `folded·(folded+1)/2`
//! — a block extended twice, skipped, or taken out of order shifts the
//! sum and is caught by the invariant, which is the equivalence gate
//! (view == fresh rescan) in miniature.
//!
//! Invariants under test:
//! - **No height skew**: `folded ≤ applied` always — the view never
//!   reflects a block readers cannot yet query.
//! - **Exactly-once extension**: `rows == prefix_sum(folded)` always,
//!   with two serves racing each other and the applier.
//! - **One registration**: exactly one `register` call returns `true`,
//!   and the registry holds the spec once.
//!
//! Seeded negative models prove the checker catches each class: a
//! cursor read outside the write lock's hold (double extension), an
//! extension to the persisted height (ahead of the applied one), and a
//! registration check outside the registry's write lock (duplicate).

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;

const BLOCKS: u64 = 2;
const SPEC: u64 = 7;

/// Sum of deltas over blocks `0..n` with `delta(h) = h + 1`.
fn prefix_sum(n: u64) -> u64 {
    n * (n + 1) / 2
}

/// A seeded bug, or none.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    None,
    /// The serve reads the cursor under a read lock it drops before
    /// taking the write lock, then extends from the stale cursor.
    CursorOutsideLock,
    /// The serve extends to the persisted height, not the applied one.
    ToPersistedHeight,
    /// The registration checks the registry under a read lock it drops
    /// before inserting under the write lock.
    CheckOutsideLock,
}

/// The ledger's two heights, behind the lock standing in for the
/// applied height's atomic and `height_watch`.
#[derive(Hash)]
struct Heights {
    persisted: Tracked<u64>,
    applied: Tracked<u64>,
}

/// The view's cursor and rows, behind the view's lock.
#[derive(Hash)]
struct ViewState {
    folded: Tracked<u64>,
    rows: Tracked<u64>,
}

struct Model {
    heights: sync::Mutex<Heights>,
    view: sync::RwLock<ViewState>,
    registry: sync::RwLock<Vec<u64>>,
    bug: Bug,
}

impl Model {
    /// A model whose chain starts `applied` blocks high.
    fn new(bug: Bug, applied: u64) -> Arc<Model> {
        Arc::new(Model {
            heights: sync::Mutex::new(Heights {
                persisted: Tracked::new(applied),
                applied: Tracked::new(applied),
            }),
            view: sync::RwLock::new(ViewState {
                folded: Tracked::new(0),
                rows: Tracked::new(0),
            }),
            registry: sync::RwLock::new(Vec::new()),
            bug,
        })
    }

    /// Both invariants, with the view's lock held by the caller.
    fn check_invariant(&self, v: &ViewState) {
        let applied = self.heights.lock().applied.get();
        assert!(
            v.folded.get() <= applied,
            "view ran ahead of the applied height: folded={} applied={applied}",
            v.folded.get(),
        );
        assert_eq!(
            v.rows.get(),
            prefix_sum(v.folded.get()),
            "view diverged from a fresh rescan at folded={}",
            v.folded.get()
        );
    }

    /// `register_trace_view`: whether this call registered the spec.
    fn register(&self) -> bool {
        if self.bug == Bug::CheckOutsideLock {
            if self.registry.read().contains(&SPEC) {
                return false;
            }
            self.registry.write().push(SPEC);
            return true;
        }
        let mut registry = self.registry.write();
        if registry.contains(&SPEC) {
            return false;
        }
        registry.push(SPEC);
        true
    }

    /// `serve_trace_view`: read the height, take the view's write lock,
    /// extend from the cursor to the height, answer.
    fn serve(&self) {
        let height = {
            let h = self.heights.lock();
            match self.bug {
                Bug::ToPersistedHeight => h.persisted.get(),
                _ => h.applied.get(),
            }
        };
        let stale = (self.bug == Bug::CursorOutsideLock).then(|| self.view.read().folded.get());
        let v = self.view.write();
        let from = stale.unwrap_or_else(|| v.folded.get());
        if from < height {
            let delta: u64 = (from..height).map(|h| h + 1).sum();
            v.rows.set(v.rows.get() + delta);
            v.folded.set(height);
        }
        self.check_invariant(&v);
    }
}

/// The applier: for each block left to apply, persist (the persisted
/// height), then index and advance the applied height. It never touches
/// the view.
fn run_applier(model: &Model) {
    let start = model.heights.lock().applied.get();
    for h in start..BLOCKS {
        model.heights.lock().persisted.set(h + 1);
        model.heights.lock().applied.set(h + 1);
    }
}

fn main_model(model: Arc<Model>) {
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let model = Arc::clone(&model);
            thread::spawn(move || {
                let registered = model.register();
                model.serve();
                registered
            })
        })
        .collect();
    let applier = {
        let model = Arc::clone(&model);
        thread::spawn(move || run_applier(&model))
    };
    applier.join();
    let registered = clients.into_iter().map(|c| c.join());
    let registered = registered.filter(|&r| r).count();
    assert_eq!(
        (registered, model.registry.read().len()),
        (1, 1),
        "spec registered twice"
    );
    // A read after the applier stops catches the view up to the tip.
    model.serve();
    let v = model.view.read();
    assert_eq!(v.folded.get(), BLOCKS, "view must reach the tip");
    model.check_invariant(&v);
}

fn options() -> Options {
    Options {
        max_schedules: 20_000,
        max_depth: 60,
        prune: false,
    }
}

#[test]
fn fold_cursor_and_rescan_equivalence_hold_on_every_schedule() {
    let report = check("view-extension-invariant", options(), || {
        main_model(Model::new(Bug::None, 0))
    });
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

/// The failure `bug` must be caught with, on a chain `applied` blocks
/// high at the start: its message holds `expect`.
fn assert_caught(bug: Bug, applied: u64, expect: &str) {
    let report = explore(options(), move || main_model(Model::new(bug, applied)));
    let failure = report.failure.expect("the seeded bug must be caught");
    assert!(
        failure.message.contains(expect),
        "unexpected failure: {}",
        failure.message
    );
}

/// Seeded bug: a serve reads the cursor before it holds the write
/// lock. Two serves read the same cursor, and the second extends the
/// view over blocks the first already appended.
#[test]
fn double_fold_without_idempotence_check_is_caught() {
    assert_caught(
        Bug::CursorOutsideLock,
        BLOCKS,
        "diverged from a fresh rescan",
    );
}

/// Seeded bug: a serve extends to the persisted height. Between a
/// block's persist and its index the view then holds a block readers
/// cannot query yet, violating the no-skew invariant.
#[test]
fn folding_ahead_of_the_applied_height_is_caught() {
    assert_caught(Bug::ToPersistedHeight, 0, "ran ahead of the applied height");
}

/// Seeded bug: a registration checks the registry under a read lock it
/// drops before inserting. Both clients pass the check and both
/// register the spec.
#[test]
fn registration_checked_outside_the_registry_lock_is_caught() {
    assert_caught(Bug::CheckOutsideLock, BLOCKS, "spec registered twice");
}
