//! Data-parallel building blocks for SEBDB's hot paths.
//!
//! The engine fans out two things: the per-run work of a relation scan
//! (a hash join's build and probe, an on/off join's probe) and the
//! per-partition writes and fsyncs of a block append. Both reduce to
//! one order-preserving map over a slice, [`par_map`], built here on
//! `std::thread::scope` so the crate has zero dependencies. Every other
//! per-block loop (Merkle hashing, MAC checks, leaf encoding) runs on
//! the caller's thread: at the paper's ≈ 200 transactions a block it
//! never reaches a worker's floor (DESIGN.md §8).
//!
//! [`par_map`] degrades to the exact sequential map when the effective
//! thread count is 1 (the default can be overridden with
//! `SEBDB_THREADS` or [`set_max_threads`]), so single-threaded runs
//! reproduce the sequential engine byte for byte. `SEBDB_THREADS` is
//! the only environment variable the engine reads, and this file the
//! only place that reads it (lint rule `env`).

mod tracked;

pub use tracked::Tracked;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0); // 0 = uninitialized

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("SEBDB_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Returns the engine-wide worker cap (>= 1).
pub fn max_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the engine-wide worker cap. `n` is clamped to >= 1.
/// Setting 1 makes [`par_map`] run its sequential fallback.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Per-worker floors by the cost class of one item. A [`par_map`] call
/// fans out only when every worker gets about half a millisecond of
/// work — some ten times what opening a `thread::scope` and joining
/// one worker costs (22 µs at best, 25 µs median, 37 µs p90 on the
/// idle two-core host the numbers were taken on) — so a call site
/// names the class of its items and the input size decides. The
/// measured per-item costs and the sites in each class are tabled in
/// DESIGN.md §8.
///
/// Tens of microseconds an item: one planned run of a projected
/// relation scan.
pub const FLOOR_BLOCK: usize = 8;
/// Half a millisecond an item and up: one partition's write and
/// `fsync`.
pub const FLOOR_RUN: usize = 1;

/// Workers to use for `len` items given a per-thread floor: no point
/// spinning up a thread for less than `min_per_thread` items. The
/// arithmetic saturates, so `usize::MAX` means "never fan out".
fn workers_for(len: usize, threads: usize, min_per_thread: usize) -> usize {
    let floor = min_per_thread.max(1);
    if threads <= 1 || len < floor.saturating_mul(2) {
        return 1;
    }
    threads.min(len / floor)
}

/// Maps `items` to a new vector, preserving order. Chunks are handed
/// to scoped threads; the result is reassembled in index order so the
/// output is identical to `items.iter().map(f).collect()`.
pub fn par_map<T, U, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with_threads(items, max_threads(), min_per_thread, f)
}

/// [`par_map`]'s body, with an explicit thread count so the tests
/// need not race on the global cap.
fn par_map_with_threads<T, U, F>(items: &[T], threads: usize, min_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers_for(items.len(), threads, min_per_thread);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Spawns a named long-lived service thread (appliers, consensus
/// replicas, network pumps). This is the one sanctioned way to start
/// an OS thread outside this crate — the repo lint forbids raw
/// `std::thread::spawn` elsewhere, so every service thread passes
/// through here and carries a name that shows up in panic messages
/// and debugger output.
pub fn spawn_service<T, F>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("sebdb-{name}"))
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn service thread '{name}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_with_threads(&items, threads, 4, |x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_small_input_stays_sequential() {
        let items = [1u32, 2, 3];
        assert_eq!(
            par_map_with_threads(&items, 8, 64, |x| x + 1),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn workers_for_fans_out_from_twice_the_floor() {
        for floor in [FLOOR_BLOCK, FLOOR_RUN] {
            // Below: one item short of two workers' worth stays put.
            assert_eq!(workers_for(2 * floor - 1, 8, floor), 1, "floor {floor}");
            // At: exactly two workers, each with a full floor.
            assert_eq!(workers_for(2 * floor, 8, floor), 2, "floor {floor}");
            // Above: one worker per floor's worth, up to the cap.
            assert_eq!(workers_for(5 * floor, 8, floor), 5, "floor {floor}");
            assert_eq!(workers_for(100 * floor, 8, floor), 8, "floor {floor}");
            // A cap of one never fans out.
            assert_eq!(workers_for(100 * floor, 1, floor), 1, "floor {floor}");
        }
    }

    #[test]
    fn workers_for_saturates() {
        // "Never fan out" must not overflow the doubling.
        assert_eq!(workers_for(usize::MAX, 8, usize::MAX), 1);
        assert_eq!(workers_for(usize::MAX, 8, usize::MAX / 2 + 1), 1);
        // A zero floor is treated as one.
        assert_eq!(workers_for(2, 8, 0), 2);
    }

    #[test]
    fn cap_is_clamped() {
        set_max_threads(0);
        assert_eq!(max_threads(), 1);
        set_max_threads(6);
        assert_eq!(max_threads(), 6);
        set_max_threads(1);
    }
}
