//! Seeded-negative suite for the happens-before race detector
//! (crates/model/src/race.rs): each test plants a classic
//! synchronisation bug that the detector MUST flag — proving the
//! detector would catch the corresponding regression in the real
//! suites — next to a positive control showing the correctly
//! synchronised version of the same pattern is race-free.
//!
//! Bug one is the unsynchronized flag publish: a writer fills a data
//! cell and raises a ready flag with no lock, channel, or join edge
//! between it and the reader (the bug `Mempool::close` / the applier
//! shutdown path would have if they skipped their mutex). Bug two is
//! the lock-free read-modify-write: two threads increment a plain
//! counter without a lock (the bug `IoStats` would have if its
//! counters were plain `u64`s instead of atomics — exactly why atomics
//! are exempt from tracking, DESIGN §14).

use sebdb_model::race::Tracked;
use sebdb_model::{explore, sync, thread, Options};
use std::sync::Arc;

fn opts() -> Options {
    Options {
        max_schedules: 20_000,
        max_depth: 60,
    }
}

/// Seeded negative: a writer publishes `data` and raises `ready`
/// through plain tracked cells, with no synchronisation edge to the
/// reader. Every access pair (reader vs writer) is unordered; the
/// detector must fail the run with a replayable decision vector.
#[test]
fn seeded_unsynchronized_flag_publish_is_flagged() {
    fn buggy_flag_publish() {
        let data = Arc::new(Tracked::new(0u64));
        let ready = Arc::new(Tracked::new(false));
        let writer = {
            let data = Arc::clone(&data);
            let ready = Arc::clone(&ready);
            thread::spawn(move || {
                data.set(42);
                ready.set(true); // no release edge: nothing orders this
            })
        };
        // Reads race with the writer's stores: no acquire edge either.
        if ready.get() {
            assert_eq!(data.get(), 42);
        }
        writer.join();
    }
    let report = explore(opts(), buggy_flag_publish);
    let failure = report
        .failure
        .expect("unsynchronized flag publish must be flagged");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure: {}",
        failure.message
    );
    assert_eq!(report.races_found, 1, "failure must be counted as a race");
    assert!(
        !failure.decisions.is_empty(),
        "race report must carry a replayable decision vector"
    );
    // The DESIGN §14 replay workflow: the decision vector alone
    // deterministically reproduces the exact racing schedule.
    let replayed = sebdb_model::replay(&failure.decisions, buggy_flag_publish)
        .expect("replaying the decision vector must reproduce the race");
    assert_eq!(
        replayed.message, failure.message,
        "replay must hit the same race at the same sites"
    );
}

/// Positive control for the flag publish: moving both cells under a
/// mutex makes every access pair ordered by release→acquire, and the
/// detector stays quiet across all schedules.
#[test]
fn mutex_guarded_flag_publish_is_race_free() {
    let report = explore(opts(), || {
        let state = Arc::new(sync::Mutex::new((Tracked::new(0u64), Tracked::new(false))));
        let writer = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let guard = state.lock();
                guard.0.set(42);
                guard.1.set(true);
            })
        };
        {
            let guard = state.lock();
            if guard.1.get() {
                assert_eq!(guard.0.get(), 42);
            }
        }
        writer.join();
    });
    assert!(report.failure.is_none(), "control must pass");
    assert_eq!(report.races_found, 0);
    assert!(report.schedules > 1, "interleavings must actually exist");
}

/// Seeded negative: two threads increment a shared counter with a
/// plain load-add-store and no lock. The two writes (and each write
/// against the other thread's read) are unordered; the detector must
/// flag the first conflicting pair it sees.
#[test]
fn seeded_lock_free_counter_increment_is_flagged() {
    let report = explore(opts(), || {
        let counter = Arc::new(Tracked::new(0u64));
        let bumpers: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let v = counter.get(); // racing read-modify-write
                    counter.set(v + 1);
                })
            })
            .collect();
        for b in bumpers {
            b.join();
        }
    });
    let failure = report
        .failure
        .expect("lock-free counter increment must be flagged");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure: {}",
        failure.message
    );
    assert_eq!(report.races_found, 1, "failure must be counted as a race");
    assert!(
        !failure.decisions.is_empty(),
        "race report must carry a replayable decision vector"
    );
}

/// Positive control for the counter: the same increment under a mutex
/// is ordered on every schedule — and, unlike the seeded negative, the
/// final count is reliably 2.
#[test]
fn mutex_guarded_counter_increment_is_race_free() {
    let report = explore(opts(), || {
        let counter = Arc::new(sync::Mutex::new(Tracked::new(0u64)));
        let bumpers: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let guard = counter.lock();
                    let v = guard.get();
                    guard.set(v + 1);
                })
            })
            .collect();
        for b in bumpers {
            b.join();
        }
        assert_eq!(counter.lock().get(), 2, "lost update under a mutex");
    });
    assert!(report.failure.is_none(), "control must pass");
    assert_eq!(report.races_found, 0);
    assert!(report.schedules > 1, "interleavings must actually exist");
}
