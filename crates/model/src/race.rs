//! Happens-before data-race detection for model runs.
//!
//! Every model thread carries a vector clock (see `sched.rs`); the
//! model primitives propagate clocks along every synchronisation edge
//! the engine can legally order accesses with — `Mutex`/`RwLock`
//! release→acquire, `Condvar` notify→wake (timeouts and spurious
//! wakeups synchronise with nothing), and thread spawn/join. A [`Tracked`] cell then timestamps
//! each read and write with the accessing thread's clock: two accesses
//! to the same cell race when at least one is a write, they come from
//! different threads, and neither clock dominates the other's epoch.
//!
//! Because all happens-before edges come from synchronisation
//! operations, and every synchronisation operation is a scheduling
//! point the explorer already branches over, checking the clocks on
//! whatever schedules are explored covers every ordering the
//! synchronisation structure permits — `Tracked` accesses themselves
//! do not need to be scheduling points, which keeps schedule counts
//! (and suite runtimes) unchanged with detection on.
//!
//! The production twin is `sebdb_parallel::Tracked` — a
//! `#[repr(transparent)]` zero-cost wrapper with the same role, so a
//! model of a component reads like the component itself. Usage rules
//! (what must be tracked, what is exempt) are in DESIGN.md §14.

use crate::sched::{ctx, ventry, VClock};
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

/// One recorded access: who, at what epoch, under which clock, from
/// which source line.
#[derive(Debug, Clone)]
struct Access {
    tid: usize,
    /// The accessor's own clock component at access time; a later
    /// clock `c` is ordered after this access iff `c[tid] >= epoch`.
    epoch: u64,
    site: &'static Location<'static>,
}

#[derive(Debug, Default)]
struct RaceState {
    last_write: Option<Access>,
    /// Reads since the last write, at most one (the latest) per thread.
    reads: Vec<Access>,
}

/// A shared-memory cell whose every read and write is checked against
/// the happens-before order. Interior-mutable (`set` takes `&self`) so
/// that *unsynchronized* access — the bug class under test — is
/// expressible; the underlying storage is still a real mutex, so a
/// detected race never corrupts the model itself.
///
/// Create cells inside the `explore` closure like every model object.
/// A detected race fails the run with both access sites and replays
/// like any other failure via the decision vector.
pub struct Tracked<T> {
    data: Mutex<T>,
    state: Mutex<RaceState>,
    created: &'static Location<'static>,
}

impl<T> Tracked<T> {
    /// Wraps `value`. The creation site labels the cell in race
    /// reports.
    #[track_caller]
    pub fn new(value: T) -> Tracked<T> {
        Tracked {
            data: Mutex::new(value),
            state: Mutex::new(RaceState::default()),
            created: Location::caller(),
        }
    }

    pub fn into_inner(self) -> T {
        self.data
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A tracked read returning a copy.
    #[track_caller]
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        self.record(false, Location::caller());
        *self.data.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A tracked write.
    #[track_caller]
    pub fn set(&self, value: T) {
        self.record(true, Location::caller());
        *self.data.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }

    /// A tracked read through a closure (for non-`Copy` payloads). The
    /// closure must not touch model primitives or other `Tracked`
    /// cells.
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.record(false, Location::caller());
        f(&self.data.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A tracked write through a closure. Same closure rules as
    /// [`Self::with`].
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.record(true, Location::caller());
        f(&mut self.data.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Checks the access against everything recorded so far and fails
    /// the run on the first unordered conflicting pair.
    fn record(&self, is_write: bool, site: &'static Location<'static>) {
        let (ex, me) = ctx();
        let clock = ex.access_clock(me);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // A write conflicts with the previous write and with every read
        // since; a read conflicts with the previous write only.
        if let Some(w) = &st.last_write {
            if let Some(msg) = self.conflict(w, "write", me, &clock, is_write, site) {
                drop(st);
                ex.record_race();
                panic!("{msg}");
            }
        }
        if is_write {
            for r in &st.reads {
                if let Some(msg) = self.conflict(r, "read", me, &clock, true, site) {
                    drop(st);
                    ex.record_race();
                    panic!("{msg}");
                }
            }
            st.last_write = Some(Access {
                tid: me,
                epoch: ventry(&clock, me),
                site,
            });
            st.reads.clear();
        } else {
            let access = Access {
                tid: me,
                epoch: ventry(&clock, me),
                site,
            };
            match st.reads.iter_mut().find(|r| r.tid == me) {
                Some(slot) => *slot = access,
                None => st.reads.push(access),
            }
        }
    }

    /// Returns the race report if `prev` is not ordered before the
    /// current access.
    fn conflict(
        &self,
        prev: &Access,
        prev_kind: &str,
        me: usize,
        clock: &VClock,
        is_write: bool,
        site: &'static Location<'static>,
    ) -> Option<String> {
        if prev.tid == me || ventry(clock, prev.tid) >= prev.epoch {
            return None;
        }
        let kind = if is_write { "write" } else { "read" };
        Some(format!(
            "data race on Tracked cell created at {}: {prev_kind} by thread {} at {} \
             is unordered with {kind} by thread {me} at {}",
            self.created, prev.tid, prev.site, site
        ))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Tracked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.data
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fmt(f)
    }
}
