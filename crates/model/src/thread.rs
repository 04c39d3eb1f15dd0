//! Model thread spawn/join mirroring `sebdb-parallel`'s surface.
//!
//! Model threads are real OS threads gated by the scheduler, so
//! `spawn` costs a thread but runs deterministically. `join` blocks
//! under the scheduler until the target finishes — a join that can
//! never complete is reported as a deadlock like any other.

use crate::sched::{ctx, Execution};
use std::sync::Arc;

/// Handle to a spawned model thread.
pub struct JoinHandle<T> {
    ex: Arc<Execution>,
    tid: usize,
    handle: std::thread::JoinHandle<Option<T>>,
}

/// Spawns a model thread. Must be called from inside a model run.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (ex, me) = ctx();
    // The child inherits the parent's vector clock (spawn edge).
    let tid = ex.register_thread(Some(me));
    let handle = {
        let ex = Arc::clone(&ex);
        std::thread::Builder::new()
            .name(format!("sebdb-model-{tid}"))
            .spawn(move || crate::run_model_thread(ex, tid, f))
            .expect("failed to spawn model thread")
    };
    // Spawning is itself a scheduling point: the child may run first.
    ex.schedule_point(me);
    JoinHandle { ex, tid, handle }
}

impl<T> JoinHandle<T> {
    /// Waits (under the scheduler) for the thread to finish and returns
    /// its value. A user panic in the thread aborts the whole run with
    /// that panic recorded as the failure, so `join` only returns for
    /// cleanly finished threads.
    pub fn join(self) -> T {
        let (ex, me) = ctx();
        debug_assert!(Arc::ptr_eq(&ex, &self.ex), "join across executions");
        let join_obj = ex.join_obj(self.tid);
        while !ex.is_finished(self.tid) {
            ex.block_on(me, join_obj, false);
        }
        // Join edge: the child's final clock was published on its join
        // object at exit; everything it did happens-before this point.
        ex.sync_acquire(me, join_obj);
        // The model thread has passed its finish point; the OS thread
        // exits right after, so this join is prompt.
        match self.handle.join() {
            Ok(Some(value)) => value,
            // Unreachable in practice: a panicking model thread aborts
            // the run before the joiner gets here.
            _ => panic!("model thread terminated without a value"),
        }
    }
}
