//! `sebdb-model` — a loom-style deterministic interleaving checker for
//! SEBDB's concurrency building blocks.
//!
//! The crate re-exports model versions of the primitives the engine is
//! built on — the parking_lot shim's `Mutex`/`RwLock`/`Condvar`
//! ([`sync`]) and `sebdb-parallel`-style thread spawn/join
//! ([`thread`]) — with
//! identical APIs, so a small model of a component reads like the
//! component itself. [`explore`] then runs the model under every
//! schedule a bounded-depth DFS can reach: exactly one model thread
//! executes between scheduling points (every primitive operation is
//! one), each complete run yields a decision vector, and the explorer
//! backtracks over those decisions until the space is exhausted or the
//! schedule budget runs out.
//!
//! What a run can catch:
//! - **Assertion failures** in the model body (invariant violations),
//!   reported with the decision vector that reproduces them.
//! - **Deadlocks / lost wakeups**: a state where no thread is runnable
//!   and not everyone has finished fails the run. Threads parked in
//!   `wait_timeout` don't deadlock — the scheduler may fire their
//!   timeout, which is also how timeout/spurious-wakeup races get
//!   explored.
//! - **Data races**: every model thread carries a vector clock and the
//!   primitives propagate happens-before edges (lock release→acquire,
//!   condvar notify→wake, spawn/join); a
//!   [`race::Tracked`] cell records each read/write with the accessing
//!   thread's clock and fails the run when two conflicting accesses are
//!   unordered, reporting both access sites. See DESIGN.md §14.
//!
//! Bounds and caveats (see DESIGN.md §9): branching stops at
//! `max_depth` decisions (beyond it the scheduler picks the first
//! runnable thread, preferring non-timeout progress), `notify_one`
//! deterministically wakes the lowest-id waiter, and optional
//! state-hash pruning treats two states with equal fingerprints as
//! identical — sound for these models' `Hash`-faithful payloads, but a
//! fingerprint collision could in principle hide a schedule.

mod sched;

pub mod race;
pub mod sync;
pub mod thread;

use sched::{Execution, ModelAbort};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Hard cap on complete runs; exploration stops here even if
    /// unexplored branches remain.
    pub max_schedules: usize,
    /// Scheduling decisions the DFS may branch over; beyond this depth
    /// every run takes the default (first-runnable) choice.
    pub max_depth: usize,
    /// Skip branching at states whose fingerprint was already expanded.
    pub prune: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_schedules: 20_000,
            max_depth: 40,
            prune: true,
        }
    }
}

/// A failing schedule: the message plus the decision vector that
/// deterministically reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub message: String,
    pub decisions: Vec<usize>,
}

/// What an exploration covered.
#[derive(Debug, Clone)]
pub struct Report {
    /// Complete runs executed.
    pub schedules: usize,
    /// Distinct schedule traces among them (hash of the actual thread
    /// interleaving — runs that only differ in pruned branches
    /// collapse).
    pub distinct_traces: usize,
    /// The first failing schedule, if any. Exploration stops at the
    /// first failure.
    pub failure: Option<Failure>,
    /// Data races reported by [`race::Tracked`] cells across all runs.
    /// A race is a failure, so this is 0 on a clean exploration and 1
    /// when `failure` carries a race report.
    pub races_found: usize,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} schedules, {} distinct traces, {} race(s) found",
            self.schedules, self.distinct_traces, self.races_found
        )
    }
}

/// Runs `f` under every schedule within [`Options`]' bounds. `f` is
/// invoked once per run and must build all its model objects itself
/// (object identity is assigned in creation order, which replay relies
/// on). Returns the coverage report; inspect `failure` yourself — use
/// [`check`] to panic on failure instead.
pub fn explore<F>(opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let visited = opts
        .prune
        .then(|| Arc::new(Mutex::new(HashSet::<u64>::new())));
    let mut replay: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    let mut races = 0usize;
    let mut traces = HashSet::new();
    loop {
        let ex = Execution::new(replay.clone(), opts.max_depth, visited.clone());
        let root_tid = ex.register_thread(None);
        // Hand thread 0 the slot before it exists so its first park
        // returns immediately — no startup race.
        ex.start();
        let root = {
            let ex = Arc::clone(&ex);
            let f = Arc::clone(&f);
            std::thread::Builder::new()
                .name("sebdb-model-root".into())
                .spawn(move || run_model_thread(ex, root_tid, move || f()))
                .expect("failed to spawn model root thread")
        };
        let outcome = ex.wait_done();
        let _ = root.join();
        schedules += 1;
        races += outcome.races;
        traces.insert(outcome.trace_hash);
        if let Some(message) = outcome.failure {
            return Report {
                schedules,
                distinct_traces: traces.len(),
                failure: Some(Failure {
                    message,
                    decisions: outcome.decisions.iter().map(|d| d.chosen).collect(),
                }),
                races_found: races,
            };
        }
        if schedules >= opts.max_schedules {
            return Report {
                schedules,
                distinct_traces: traces.len(),
                failure: None,
                races_found: races,
            };
        }
        // Backtrack: rewind to the deepest decision with an untried
        // option and take its successor; exploration is complete when
        // none remains.
        match next_replay(&outcome.decisions) {
            Some(next) => replay = next,
            None => {
                return Report {
                    schedules,
                    distinct_traces: traces.len(),
                    failure: None,
                    races_found: races,
                }
            }
        }
    }
}

/// Re-runs `f` under exactly one schedule, prescribed by a failure's
/// decision vector (`Failure::decisions` / the vector [`check`] prints
/// on panic). The model replays deterministically — object identity is
/// creation-ordered — so the same failure reproduces; returns it for
/// inspection, or `None` if the schedule now passes (e.g. after a
/// fix). Entries beyond the vector fall back to the default
/// first-runnable choice, matching the original run past `max_depth`.
pub fn replay<F>(decisions: &[usize], f: F) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let ex = Execution::new(decisions.to_vec(), 0, None);
    let root_tid = ex.register_thread(None);
    ex.start();
    let root = {
        let ex = Arc::clone(&ex);
        std::thread::Builder::new()
            .name("sebdb-model-replay".into())
            .spawn(move || run_model_thread(ex, root_tid, move || f()))
            .expect("failed to spawn model root thread")
    };
    let outcome = ex.wait_done();
    let _ = root.join();
    outcome.failure.map(|message| Failure {
        message,
        decisions: outcome.decisions.iter().map(|d| d.chosen).collect(),
    })
}

/// [`explore`], panicking with the failing schedule if one is found.
/// Returns the report otherwise so tests can assert on coverage.
pub fn check<F>(name: &str, opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(opts, f);
    if let Some(failure) = &report.failure {
        panic!(
            "model '{name}' failed after {} schedules ({} race(s) found): {}\n  reproducing decisions: {:?}",
            report.schedules, report.races_found, failure.message, failure.decisions
        );
    }
    // One line per suite in CI logs: coverage and races side by side.
    println!("model '{name}': {report}");
    report
}

/// The body every model OS thread runs: bind the scheduler context,
/// park until scheduled, run, and report how it ended. A `ModelAbort`
/// unwind means the run is being torn down — exit silently.
pub(crate) fn run_model_thread<T>(
    ex: Arc<Execution>,
    tid: usize,
    body: impl FnOnce() -> T,
) -> Option<T> {
    sched::set_ctx(Some((Arc::clone(&ex), tid)));
    ex.first_wait(tid);
    let result = catch_unwind(AssertUnwindSafe(body));
    let out = match result {
        Ok(value) => {
            ex.finish_thread(tid, None);
            Some(value)
        }
        Err(payload) => {
            if !payload.is::<ModelAbort>() {
                ex.finish_thread(tid, Some(panic_message(payload)));
            }
            None
        }
    };
    sched::set_ctx(None);
    out
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

/// The DFS step: truncate after the deepest decision that still has an
/// untried sibling and advance it.
fn next_replay(decisions: &[sched::Decision]) -> Option<Vec<usize>> {
    for (i, d) in decisions.iter().enumerate().rev() {
        if d.chosen + 1 < d.options {
            let mut replay: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
            replay.push(d.chosen + 1);
            return Some(replay);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(max_schedules: usize, max_depth: usize) -> Options {
        Options {
            max_schedules,
            max_depth,
            prune: false,
        }
    }

    #[test]
    fn locked_counter_survives_all_schedules() {
        let report = check("locked-counter", opts(5_000, 30), || {
            let counter = Arc::new(sync::Mutex::new(0u64));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || *counter.lock() += 1)
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(report.schedules > 1, "expected multiple interleavings");
    }

    #[test]
    fn finds_lost_update_in_split_increment() {
        let report = explore(opts(5_000, 30), || {
            let counter = Arc::new(sync::Mutex::new(0u64));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        // Read and write under separate acquisitions:
                        // the classic lost update.
                        let seen = *counter.lock();
                        *counter.lock() = seen + 1;
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert_eq!(*counter.lock(), 2, "lost update");
        });
        let failure = report.failure.expect("explorer must find the lost update");
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn finds_deadlock_from_lock_inversion() {
        let report = explore(opts(5_000, 30), || {
            let a = Arc::new(sync::Mutex::new(0u64));
            let b = Arc::new(sync::Mutex::new(0u64));
            let t1 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let ga = a.lock();
                    let gb = b.lock();
                    drop((ga, gb));
                })
            };
            let t2 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let gb = b.lock();
                    let ga = a.lock();
                    drop((gb, ga));
                })
            };
            t1.join();
            t2.join();
        });
        let failure = report.failure.expect("explorer must find the deadlock");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn finds_lost_wakeup_from_unconditional_wait() {
        // Flag set + notify racing a waiter that checks the flag,
        // drops the lock, then re-locks to wait: the notify can land
        // in the window where nobody waits, and the wait then hangs.
        let report = explore(opts(5_000, 30), || {
            let flag = Arc::new(sync::Mutex::new(false));
            let cv = Arc::new(sync::Condvar::new());
            let setter = {
                let (flag, cv) = (Arc::clone(&flag), Arc::clone(&cv));
                thread::spawn(move || {
                    *flag.lock() = true;
                    cv.notify_one();
                })
            };
            let ready = *flag.lock();
            if !ready {
                let mut guard = flag.lock();
                // BUG under test: no re-check of the predicate between
                // re-locking and waiting.
                cv.wait(&mut guard);
                drop(guard);
            }
            setter.join();
        });
        let failure = report.failure.expect("explorer must find the lost wakeup");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn race_detector_flags_unsynchronized_write_read() {
        let report = explore(opts(5_000, 30), || {
            let cell = Arc::new(race::Tracked::new(0u64));
            let writer = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.set(1))
            };
            // Unsynchronized read racing the writer.
            let _ = cell.get();
            writer.join();
        });
        let failure = report.failure.expect("detector must flag the race");
        assert!(failure.message.contains("data race"), "{}", failure.message);
        assert_eq!(report.races_found, 1);
    }

    #[test]
    fn mutex_edges_order_tracked_accesses() {
        let report = check("mutex-hb", opts(5_000, 30), || {
            let cell = Arc::new(race::Tracked::new(0u64));
            let gate = Arc::new(sync::Mutex::new(false));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (cell, gate) = (Arc::clone(&cell), Arc::clone(&gate));
                    thread::spawn(move || {
                        let _g = gate.lock();
                        cell.set(cell.get() + 1);
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert_eq!(cell.get(), 2);
        });
        assert_eq!(report.races_found, 0);
        assert!(report.schedules > 1);
    }

    #[test]
    fn spawn_and_join_order_tracked_accesses() {
        let report = check("spawn-join-hb", opts(5_000, 30), || {
            let cell = Arc::new(race::Tracked::new(0u64));
            cell.set(1); // before spawn: ordered into the child
            let child = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.set(cell.get() + 1))
            };
            child.join();
            assert_eq!(cell.get(), 2); // after join: ordered after the child
        });
        assert_eq!(report.races_found, 0);
    }

    #[test]
    fn condvar_notify_orders_but_timeout_does_not() {
        // The waiter reads the cell only after a *notified* wake, which
        // carries the setter's clock; on a timed-out wake it re-checks
        // the flag under the mutex instead. Zero races either way.
        let report = check("condvar-hb", opts(5_000, 30), || {
            let cell = Arc::new(race::Tracked::new(0u64));
            let flag = Arc::new(sync::Mutex::new(false));
            let cv = Arc::new(sync::Condvar::new());
            let setter = {
                let (cell, flag, cv) = (Arc::clone(&cell), Arc::clone(&flag), Arc::clone(&cv));
                thread::spawn(move || {
                    cell.set(9);
                    *flag.lock() = true;
                    cv.notify_one();
                })
            };
            let mut guard = flag.lock();
            while !*guard {
                let _ = cv.wait_timeout(&mut guard, std::time::Duration::from_millis(1));
            }
            drop(guard);
            assert_eq!(cell.get(), 9);
            setter.join();
        });
        assert_eq!(report.races_found, 0);
        assert!(report.schedules > 1);
    }

    #[test]
    fn pruning_reduces_schedules_without_losing_failures() {
        let run = |prune: bool| {
            explore(
                Options {
                    max_schedules: 20_000,
                    max_depth: 30,
                    prune,
                },
                || {
                    let counter = Arc::new(sync::Mutex::new(0u64));
                    let workers: Vec<_> = (0..3)
                        .map(|_| {
                            let counter = Arc::clone(&counter);
                            thread::spawn(move || *counter.lock() += 1)
                        })
                        .collect();
                    for w in workers {
                        w.join();
                    }
                    assert_eq!(*counter.lock(), 3);
                },
            )
        };
        let full = run(false);
        let pruned = run(true);
        assert!(full.failure.is_none() && pruned.failure.is_none());
        assert!(
            pruned.schedules <= full.schedules,
            "pruning must not add schedules ({} > {})",
            pruned.schedules,
            full.schedules
        );
    }
}
