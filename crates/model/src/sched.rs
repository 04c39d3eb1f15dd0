//! The deterministic scheduler: one model thread runs at a time, every
//! primitive operation is a scheduling point, and the explorer drives
//! a bounded-depth DFS over the scheduling decisions.
//!
//! Model threads are real OS threads gated by a condvar handshake so
//! exactly one executes between scheduling points — there is no true
//! concurrency inside a model run, which is what makes every schedule
//! replayable from its decision vector alone.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// Why a blocked thread resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A notify/wake from another thread.
    Notified,
    /// The scheduler fired the wait's timeout (or delivered a spurious
    /// wakeup — the model does not distinguish the two, matching what
    /// code must tolerate from real condvars).
    TimedOut,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked at a scheduling point, eligible to be chosen.
    Ready,
    /// Executing (exactly one thread at a time).
    Running,
    /// Blocked on an object; only a wake makes it eligible again.
    Blocked(u64),
    /// Blocked with a timeout: eligible to be chosen directly, which
    /// models the timeout (or a spurious wakeup) firing.
    TimedWait(u64),
    Finished,
}

/// A vector clock: `clock[t]` is the last epoch of thread `t` whose
/// effects are ordered before the clock's owner. Grown on demand —
/// a missing entry reads as 0.
pub(crate) type VClock = Vec<u64>;

/// `a := a ⊔ b` (element-wise max).
pub(crate) fn vjoin(a: &mut VClock, b: &VClock) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x = (*x).max(*y);
    }
}

/// `clock[tid]`, treating missing entries as 0.
pub(crate) fn ventry(clock: &VClock, tid: usize) -> u64 {
    clock.get(tid).copied().unwrap_or(0)
}

struct ThreadRec {
    status: Status,
    wake: Option<Wake>,
    /// Operations executed — part of the state signature.
    ops: u64,
    /// Object id joiners block on.
    join_obj: u64,
    /// The thread's vector clock for happens-before race detection;
    /// `clock[me]` is the thread's own epoch, bumped at every release.
    clock: VClock,
}

/// One recorded scheduling decision: which of the eligible threads ran.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    pub chosen: usize,
    pub options: usize,
}

/// Internal state-fingerprint hook: every model object reports a hash
/// of its current contents so the explorer can recognise revisited
/// states.
pub(crate) trait StateSig: Send + Sync {
    fn sig(&self) -> u64;
}

pub(crate) struct ExecState {
    threads: Vec<ThreadRec>,
    current: Option<usize>,
    replay: Vec<usize>,
    pub(crate) decisions: Vec<Decision>,
    /// Rolling hash over (thread, op-count) pairs — identifies the
    /// schedule.
    pub(crate) trace_hash: u64,
    /// Registered model objects, in creation order (creation order is
    /// deterministic per run, so ids line up across replays).
    objects: Vec<Option<Weak<dyn StateSig>>>,
    /// Per-object vector clocks: the join of every clock released into
    /// the object (lock release, condvar notify, thread exit). Indexed
    /// by object id, parallel to `objects`.
    obj_clocks: Vec<VClock>,
    pub(crate) failure: Option<String>,
    /// Data races reported by `Tracked` cells during this run.
    pub(crate) races: usize,
    abort: bool,
    /// Decision points where the explorer may branch (beyond the depth
    /// bound the first option is always taken).
    max_depth: usize,
}

/// A single model execution: the gate all model threads synchronise
/// through.
pub struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    /// State signatures seen at earlier decision points (shared across
    /// the whole exploration when state-hash pruning is enabled): a
    /// revisited state does not branch again.
    visited: Option<Arc<Mutex<HashSet<u64>>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// Panic payload used to unwind model threads when a run aborts; not a
/// test failure in itself.
pub(crate) struct ModelAbort;

/// The current thread's execution context; panics outside a model run.
pub(crate) fn ctx() -> (Arc<Execution>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("sebdb-model primitive used outside explore()")
    })
}

/// Like [`ctx`] but non-panicking — for `Drop` impls, which must stay
/// quiet when a guard outlives the run (e.g. during abort teardown).
pub(crate) fn ctx_opt() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ex: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = ex);
}

fn mix(h: &mut u64, v: u64) {
    *h = h
        .wrapping_mul(0x100000001b3)
        .wrapping_add(v ^ 0x9E3779B97F4A7C15);
}

impl Execution {
    pub(crate) fn new(
        replay: Vec<usize>,
        max_depth: usize,
        visited: Option<Arc<Mutex<HashSet<u64>>>>,
    ) -> Arc<Execution> {
        Arc::new(Execution {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                current: None,
                replay,
                decisions: Vec::new(),
                trace_hash: 0xcbf29ce484222325,
                objects: Vec::new(),
                obj_clocks: Vec::new(),
                failure: None,
                races: 0,
                abort: false,
                max_depth,
            }),
            cv: Condvar::new(),
            visited,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new model thread; returns its id. `parent` is the
    /// spawning thread: the child inherits its clock (the spawn edge —
    /// everything the parent did before `spawn` happens-before the
    /// child), and the parent's epoch is bumped so the parent's *later*
    /// accesses stay unordered with the child.
    pub(crate) fn register_thread(&self, parent: Option<usize>) -> usize {
        let mut st = self.lock();
        let join_obj = st.alloc_object_id(None);
        let tid = st.threads.len();
        let mut clock = match parent {
            Some(p) => {
                let inherited = st.threads[p].clock.clone();
                st.threads[p].clock[p] += 1;
                inherited
            }
            None => VClock::new(),
        };
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        clock[tid] = 1;
        st.threads.push(ThreadRec {
            status: Status::Ready,
            wake: None,
            ops: 0,
            join_obj,
            clock,
        });
        tid
    }

    /// Release edge: publishes `me`'s clock into `obj` and advances
    /// `me`'s epoch, so accesses after the release are not ordered
    /// before whatever later acquires `obj`.
    pub(crate) fn sync_release(&self, me: usize, obj: u64) {
        let mut st = self.lock();
        let clock = st.threads[me].clock.clone();
        vjoin(&mut st.obj_clocks[obj as usize], &clock);
        st.threads[me].clock[me] += 1;
    }

    /// Acquire edge: joins `obj`'s clock into `me`'s, ordering every
    /// prior release of `obj` before `me`'s subsequent accesses.
    pub(crate) fn sync_acquire(&self, me: usize, obj: u64) {
        let mut st = self.lock();
        let oc = st.obj_clocks[obj as usize].clone();
        vjoin(&mut st.threads[me].clock, &oc);
    }

    /// Snapshot of `me`'s current clock, for stamping a `Tracked`
    /// access.
    pub(crate) fn access_clock(&self, me: usize) -> VClock {
        self.lock().threads[me].clock.clone()
    }

    /// Records that a `Tracked` cell observed a data race this run; the
    /// caller then panics with the report, which lands in `failure`.
    pub(crate) fn record_race(&self) {
        self.lock().races += 1;
    }

    /// Registers a model object; returns its id.
    pub(crate) fn register_object(&self, sig: Weak<dyn StateSig>) -> u64 {
        self.lock().alloc_object_id(Some(sig))
    }

    pub(crate) fn join_obj(&self, tid: usize) -> u64 {
        self.lock().threads[tid].join_obj
    }

    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        self.lock().threads[tid].status == Status::Finished
    }

    /// First park of a freshly spawned model thread: waits until the
    /// scheduler hands it the slot.
    pub(crate) fn first_wait(self: &Arc<Self>, me: usize) {
        let mut st = self.lock();
        st = self.wait_for_slot(st, me);
        drop(st);
    }

    /// A scheduling point: the running thread offers the scheduler a
    /// chance to run any other eligible thread (or itself).
    pub(crate) fn schedule_point(self: &Arc<Self>, me: usize) {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(me));
        st.threads[me].status = Status::Ready;
        st.threads[me].ops += 1;
        st.current = None;
        self.choose(&mut st);
        st = self.wait_for_slot(st, me);
        drop(st);
    }

    /// Blocks the running thread on `obj`. With `timed`, the scheduler
    /// may wake it spontaneously (modelling the timeout / a spurious
    /// wakeup). Returns why it woke.
    pub(crate) fn block_on(self: &Arc<Self>, me: usize, obj: u64, timed: bool) -> Wake {
        let mut st = self.lock();
        debug_assert_eq!(st.current, Some(me));
        st.threads[me].status = if timed {
            Status::TimedWait(obj)
        } else {
            Status::Blocked(obj)
        };
        st.threads[me].ops += 1;
        st.current = None;
        if !self.choose(&mut st) {
            // Nobody can run and this thread just blocked: deadlock
            // (or a lost wakeup — same observable, a waiter that will
            // never be woken).
            let detail = st.describe_stuck();
            st.fail(format!("deadlock: no runnable thread ({detail})"));
            self.cv.notify_all();
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        st = self.wait_for_slot(st, me);
        let wake = st.threads[me].wake.take().unwrap_or(Wake::Notified);
        drop(st);
        wake
    }

    /// Wakes every thread blocked on `obj`.
    pub(crate) fn wake_all(&self, obj: u64) {
        let mut st = self.lock();
        for t in st.threads.iter_mut() {
            match t.status {
                Status::Blocked(o) | Status::TimedWait(o) if o == obj => {
                    t.status = Status::Ready;
                    t.wake = Some(Wake::Notified);
                }
                _ => {}
            }
        }
    }

    /// Wakes the lowest-id thread blocked on `obj` (the model's
    /// deterministic notify_one policy).
    pub(crate) fn wake_one(&self, obj: u64) {
        let mut st = self.lock();
        for t in st.threads.iter_mut() {
            match t.status {
                Status::Blocked(o) | Status::TimedWait(o) if o == obj => {
                    t.status = Status::Ready;
                    t.wake = Some(Wake::Notified);
                    break;
                }
                _ => {}
            }
        }
    }

    /// Marks the running thread finished and hands the slot onward.
    /// `panicked` carries a user-panic message to record as a failure.
    pub(crate) fn finish_thread(self: &Arc<Self>, me: usize, panicked: Option<String>) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        if let Some(msg) = panicked {
            st.fail(msg);
        }
        let join_obj = st.threads[me].join_obj;
        // Exit edge: the thread's final clock is published on its join
        // object; `join()` acquires it, ordering everything the child
        // did before the joiner's subsequent accesses.
        let clock = st.threads[me].clock.clone();
        vjoin(&mut st.obj_clocks[join_obj as usize], &clock);
        for t in st.threads.iter_mut() {
            match t.status {
                Status::Blocked(o) | Status::TimedWait(o) if o == join_obj => {
                    t.status = Status::Ready;
                    t.wake = Some(Wake::Notified);
                }
                _ => {}
            }
        }
        if st.current == Some(me) {
            st.current = None;
        }
        if !self.choose(&mut st) && !st.abort && !st.all_finished() && st.failure.is_none() {
            let detail = st.describe_stuck();
            st.fail(format!("deadlock after thread exit ({detail})"));
        }
        // Wake the chosen successor (or, when the run is over or
        // aborted, the host and every parked thread).
        drop(st);
        self.cv.notify_all();
    }

    /// The host-side kick that starts a run once thread 0 is parked.
    pub(crate) fn start(self: &Arc<Self>) {
        let mut st = self.lock();
        if st.current.is_none() {
            self.choose(&mut st);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Host-side wait for run completion; returns the outcome.
    pub(crate) fn wait_done(self: &Arc<Self>) -> RunOutcome {
        let mut st = self.lock();
        loop {
            if st.abort || st.all_finished() {
                return RunOutcome {
                    decisions: st.decisions.clone(),
                    trace_hash: st.trace_hash,
                    failure: st.failure.clone(),
                    races: st.races,
                };
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Picks the next thread to run per the DFS replay vector. Returns
    /// false when no thread is eligible.
    fn choose(&self, st: &mut ExecState) -> bool {
        if st.abort {
            return false;
        }
        // Ready threads come first so that option 0 — the forced choice
        // beyond the branching depth — always makes real progress;
        // timeouts (TimedWait chosen directly) only fire as the default
        // when nothing else can run. Within the branching depth the DFS
        // still explores every timeout firing early.
        let mut options: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Ready)
            .map(|(i, _)| i)
            .collect();
        options.extend(
            st.threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::TimedWait(_)))
                .map(|(i, _)| i),
        );
        if options.is_empty() {
            return false;
        }
        let d = st.decisions.len();
        // Branch only inside the replay prefix or within the depth
        // bound; beyond it the first option is always taken (the DFS
        // never backtracks past max_depth).
        let idx = if d < st.replay.len() {
            st.replay[d].min(options.len() - 1)
        } else {
            0
        };
        let mut branchable = if d < st.max_depth { options.len() } else { 1 };
        // State-hash pruning: if this exact global state was already
        // expanded at some decision point, its subtree is explored —
        // do not branch here again. (Only prunes *new* expansion: the
        // replayed prefix is always honoured.)
        if branchable > 1 && d >= st.replay.len() {
            if let Some(visited) = &self.visited {
                let sig = st.signature();
                let mut seen = visited.lock().unwrap_or_else(|e| e.into_inner());
                if !seen.insert(sig) {
                    branchable = 1;
                }
            }
        }
        st.decisions.push(Decision {
            chosen: idx,
            options: branchable,
        });
        let tid = options[idx];
        if let Status::TimedWait(_) = st.threads[tid].status {
            st.threads[tid].wake = Some(Wake::TimedOut);
        }
        st.threads[tid].status = Status::Running;
        st.current = Some(tid);
        let ops = st.threads[tid].ops;
        mix(&mut st.trace_hash, (tid as u64) << 32 | ops);
        true
    }

    /// Parks until `me` holds the run slot (or the run aborts).
    fn wait_for_slot<'a>(
        self: &Arc<Self>,
        mut st: std::sync::MutexGuard<'a, ExecState>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, ExecState> {
        self.cv.notify_all();
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            if st.current == Some(me) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl ExecState {
    /// Signature of the global state at the current decision point:
    /// thread statuses/positions plus every live object's content
    /// fingerprint. Called with the execution lock held; object `sig()`
    /// implementations take only their own internal locks (model
    /// primitives never call back into the scheduler from `sig()`).
    fn signature(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for t in &self.threads {
            (t.ops, std::mem::discriminant(&t.status)).hash(&mut h);
            if let Status::Blocked(o) | Status::TimedWait(o) = t.status {
                o.hash(&mut h);
            }
        }
        for obj in self.objects.iter().flatten() {
            match obj.upgrade() {
                Some(o) => o.sig().hash(&mut h),
                None => 0u64.hash(&mut h),
            }
        }
        h.finish()
    }

    fn alloc_object_id(&mut self, sig: Option<Weak<dyn StateSig>>) -> u64 {
        self.objects.push(sig);
        self.obj_clocks.push(VClock::new());
        self.objects.len() as u64 - 1
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.abort = true;
    }

    fn describe_stuck(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Finished)
            .map(|(i, t)| format!("t{i}={:?}", t.status))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// What one complete model run produced.
pub(crate) struct RunOutcome {
    pub decisions: Vec<Decision>,
    pub trace_hash: u64,
    pub failure: Option<String>,
    pub races: usize,
}
