//! Model `Mutex`/`RwLock`/`Condvar` with the parking_lot shim's API.
//!
//! Each primitive is a scheduling point on acquisition, so the explorer
//! interleaves model threads at exactly the places the real engine can
//! be preempted around its locks. Guard drops release and wake waiters
//! but deliberately do NOT yield — `Drop` must never unwind, and the
//! released state is explored at the next thread's own scheduling
//! point.

use crate::sched::{ctx, ctx_opt, Wake};
use std::sync::PoisonError;
use std::time::Duration;

// ---------------------------------------------------------------------
// Mutex

struct MutexCore<T> {
    /// The model lock bit; the scheduler serialises all access.
    meta: std::sync::Mutex<bool>,
    /// Real storage; uncontended by construction (only the model holder
    /// touches it).
    data: std::sync::Mutex<T>,
    id: u64,
}

impl<T> MutexCore<T> {
    fn id(&self) -> u64 {
        self.id
    }
}

/// A model mutex with the parking_lot shim's `lock()` API.
pub struct Mutex<T> {
    core: MutexCore<T>,
}

pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates and registers the mutex with the current execution —
    /// model objects must be built inside the `explore` closure.
    pub fn new(value: T) -> Mutex<T> {
        let (ex, _) = ctx();
        Mutex {
            core: MutexCore {
                meta: std::sync::Mutex::new(false),
                data: std::sync::Mutex::new(value),
                id: ex.register_object(),
            },
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (ex, me) = ctx();
        ex.schedule_point(me);
        loop {
            let mut locked = self
                .core
                .meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !*locked {
                *locked = true;
                break;
            }
            drop(locked);
            ex.block_on(me, self.core.id(), false);
        }
        // Acquire edge: everything released under this lock so far
        // happens-before this holder's accesses.
        ex.sync_acquire(me, self.core.id());
        MutexGuard {
            lock: self,
            inner: Some(
                self.core
                    .data
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
        }
    }
}

impl<T> MutexGuard<'_, T> {
    /// Releases the model lock without yielding (condvar wait path and
    /// `Drop` share this).
    fn release(&mut self) {
        self.inner = None;
        let mut locked = self
            .lock
            .core
            .meta
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *locked = false;
        drop(locked);
        if let Some((ex, me)) = ctx_opt() {
            // Release edge: publish the holder's clock on the lock for
            // the next acquirer.
            ex.sync_release(me, self.lock.core.id());
            ex.wake_all(self.lock.core.id());
        }
    }

    /// Re-takes the model lock after a condvar wait.
    fn reacquire(&mut self) {
        let (ex, me) = ctx();
        loop {
            let mut locked = self
                .lock
                .core
                .meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !*locked {
                *locked = true;
                break;
            }
            drop(locked);
            ex.block_on(me, self.lock.core.id(), false);
        }
        ex.sync_acquire(me, self.lock.core.id());
        self.inner = Some(
            self.lock
                .core
                .data
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.release();
        }
    }
}

// ---------------------------------------------------------------------
// RwLock

struct RwMeta {
    readers: usize,
    writer: bool,
}

struct RwLockCore<T> {
    meta: std::sync::Mutex<RwMeta>,
    data: std::sync::RwLock<T>,
    id: u64,
}

impl<T> RwLockCore<T> {
    fn id(&self) -> u64 {
        self.id
    }

    fn release_read(&self) {
        let mut meta = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        meta.readers -= 1;
        drop(meta);
        if let Some((ex, me)) = ctx_opt() {
            // Read releases also publish: a writer blocked on the last
            // reader is genuinely ordered after it. (This adds
            // reader→reader edges too — conservative, see DESIGN §14.)
            ex.sync_release(me, self.id());
            ex.wake_all(self.id());
        }
    }

    fn release_write(&self) {
        let mut meta = self.meta.lock().unwrap_or_else(PoisonError::into_inner);
        meta.writer = false;
        drop(meta);
        if let Some((ex, me)) = ctx_opt() {
            ex.sync_release(me, self.id());
            ex.wake_all(self.id());
        }
    }
}

/// A model reader-writer lock with the parking_lot shim's API.
pub struct RwLock<T> {
    core: RwLockCore<T>,
}

pub struct RwLockReadGuard<'a, T> {
    core: &'a RwLockCore<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

pub struct RwLockWriteGuard<'a, T> {
    core: &'a RwLockCore<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        let (ex, _) = ctx();
        RwLock {
            core: RwLockCore {
                meta: std::sync::Mutex::new(RwMeta {
                    readers: 0,
                    writer: false,
                }),
                data: std::sync::RwLock::new(value),
                id: ex.register_object(),
            },
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let (ex, me) = ctx();
        ex.schedule_point(me);
        loop {
            let mut meta = self
                .core
                .meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !meta.writer {
                meta.readers += 1;
                break;
            }
            drop(meta);
            ex.block_on(me, self.core.id(), false);
        }
        ex.sync_acquire(me, self.core.id());
        RwLockReadGuard {
            core: &self.core,
            inner: Some(
                self.core
                    .data
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let (ex, me) = ctx();
        ex.schedule_point(me);
        loop {
            let mut meta = self
                .core
                .meta
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !meta.writer && meta.readers == 0 {
                meta.writer = true;
                break;
            }
            drop(meta);
            ex.block_on(me, self.core.id(), false);
        }
        ex.sync_acquire(me, self.core.id());
        RwLockWriteGuard {
            core: &self.core,
            inner: Some(
                self.core
                    .data
                    .write()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
        }
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.core.release_read();
        }
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard released")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard released")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.core.release_write();
        }
    }
}

// ---------------------------------------------------------------------
// Condvar

/// Result of a model [`Condvar::wait_timeout`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A model condvar with the parking_lot shim's `&mut guard` API.
/// `notify_one` deterministically wakes the lowest-id waiter; the
/// scheduler may fire a `wait_timeout` at any point, which doubles as
/// the spurious-wakeup model.
pub struct Condvar {
    id: u64,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        let (ex, _) = ctx();
        Condvar {
            id: ex.register_object(),
        }
    }

    fn id(&self) -> u64 {
        self.id
    }

    /// Atomically releases the mutex and blocks until notified; the
    /// mutex is re-held on return.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let (ex, me) = ctx();
        guard.release();
        ex.block_on(me, self.id(), false);
        // Notify→wake edge: the notifier's clock was published on the
        // condvar by notify_one/notify_all.
        ex.sync_acquire(me, self.id());
        guard.reacquire();
    }

    /// Like [`Self::wait`], but the scheduler may also wake the thread
    /// by firing the timeout. The duration itself is ignored — model
    /// time is schedule order, so "the timeout fired" is just one more
    /// scheduling choice.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        _timeout: Duration,
    ) -> WaitTimeoutResult {
        let (ex, me) = ctx();
        guard.release();
        let wake = ex.block_on(me, self.id(), true);
        // Only a real notify carries the notifier's clock; a timeout
        // (or spurious wakeup) synchronises with nothing.
        if wake == Wake::Notified {
            ex.sync_acquire(me, self.id());
        }
        guard.reacquire();
        WaitTimeoutResult {
            timed_out: wake == Wake::TimedOut,
        }
    }

    pub fn notify_one(&self) {
        let (ex, me) = ctx();
        ex.sync_release(me, self.id());
        ex.wake_one(self.id());
    }

    pub fn notify_all(&self) {
        let (ex, me) = ctx();
        ex.sync_release(me, self.id());
        ex.wake_all(self.id());
    }
}
