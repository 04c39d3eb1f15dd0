//! Model of the `IndexBlockCache` (crates/storage/indexseg.rs): a
//! sharded map of lazily-loaded level-1 index blocks with an inflight
//! set + condvar deduplicating concurrent first-loads, exact-LRU
//! eviction (the model keeps a last-touch tick per block, production
//! the store's intrusive-list `Lru`: the same victim either way), and
//! loads performed outside the shard lock.
//!
//! Invariants under test: however concurrent first-reads interleave,
//! each (file, block) is loaded from disk at most once while resident
//! (the inflight guard); eviction under a full cache never hands a
//! reader another block's bytes and never strands a waiter; and the
//! seeded negative removes the inflight dedup, proving the explorer
//! catches the double-load the guard exists to prevent.

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cache shard under model: `map[block]` holds `(token, tick)`
/// for resident blocks, `inflight[block]` marks loads in progress.
/// Every field is a `Tracked` cell so the race detector proves the
/// shard-lock discipline orders all accesses.
#[derive(Hash)]
struct Shard {
    map: Tracked<Vec<Option<(u64, u64)>>>,
    inflight: Tracked<Vec<bool>>,
    tick: Tracked<u64>,
}

struct CacheModel {
    state: sync::Mutex<Shard>,
    cv: sync::Condvar,
    /// Per-block disk-load counter — the "opened at most once while
    /// resident" witness. Deliberately an atomic, not a `Tracked` cell:
    /// it models the production `IoStats` atomics (exempt from
    /// tracking, DESIGN §14) and the seeded double-load negative must
    /// fail on its own "loaded twice" assertion, not on a race report.
    loads: Vec<AtomicU64>,
    capacity: usize,
    /// When false, skip the inflight check — the double-load bug the
    /// dedup exists to prevent (seeded negative).
    dedup_inflight: bool,
}

fn token_of(block: usize) -> u64 {
    100 + block as u64
}

impl CacheModel {
    fn new(blocks: usize, capacity: usize, dedup_inflight: bool) -> Arc<CacheModel> {
        Arc::new(CacheModel {
            state: sync::Mutex::new(Shard {
                map: Tracked::new(vec![None; blocks]),
                inflight: Tracked::new(vec![false; blocks]),
                tick: Tracked::new(0),
            }),
            cv: sync::Condvar::new(),
            loads: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
            capacity,
            dedup_inflight,
        })
    }

    /// Mirrors `IndexBlockCache::get_or_load`: hit path bumps the LRU
    /// tick; miss path marks inflight, drops the lock for the "disk"
    /// load, republishes, evicts over capacity, and notifies waiters.
    fn get_or_load(&self, block: usize) -> u64 {
        let mut s = self.state.lock();
        loop {
            if let Some((tok, _)) = s.map.with(|m| m[block]) {
                let t = s.tick.with_mut(|t| {
                    *t += 1;
                    *t
                });
                s.map.with_mut(|m| m[block] = Some((tok, t)));
                return tok;
            }
            if self.dedup_inflight && s.inflight.with(|f| f[block]) {
                self.cv.wait(&mut s);
                continue;
            }
            s.inflight.with_mut(|f| f[block] = true);
            drop(s);
            // The load happens outside the shard lock (positioned read
            // + checksum in the real code).
            self.loads[block].fetch_add(1, Ordering::SeqCst);
            let tok = token_of(block);
            s = self.state.lock();
            s.inflight.with_mut(|f| f[block] = false);
            let t = s.tick.with_mut(|t| {
                *t += 1;
                *t
            });
            s.map.with_mut(|m| m[block] = Some((tok, t)));
            while s.map.with(|m| m.iter().flatten().count()) > self.capacity {
                let victim = s.map.with(|m| {
                    m.iter()
                        .enumerate()
                        .filter_map(|(i, e)| e.map(|(_, t)| (t, i)))
                        .min()
                        .map(|(_, i)| i)
                        .unwrap()
                });
                s.map.with_mut(|m| m[victim] = None);
            }
            self.cv.notify_all();
            return tok;
        }
    }
}

/// Three readers race first-touch of two blocks with room for both:
/// every schedule must load each block from disk exactly once and hand
/// every reader its own block's bytes.
#[test]
fn racing_first_reads_load_once_per_block() {
    let report = check(
        "index-cache-load-once",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || {
            let cache = CacheModel::new(2, 2, true);
            let readers: Vec<_> = [0usize, 1, 0]
                .into_iter()
                .map(|block| {
                    let cache = Arc::clone(&cache);
                    thread::spawn(move || {
                        let tok = cache.get_or_load(block);
                        assert_eq!(tok, token_of(block), "wrong bytes for block {block}");
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            for block in [0usize, 1] {
                let loads = cache.loads[block].load(Ordering::SeqCst);
                assert_eq!(loads, 1, "block {block} loaded {loads} times");
            }
        },
    );
    assert!(
        report.schedules >= 100,
        "expected >= 100 schedules, explored {}",
        report.schedules
    );
    assert_eq!(
        report.races_found, 0,
        "mainline index-cache model must be race-free"
    );
}

/// Eviction vs concurrent readers: a capacity-1 cache thrashed by
/// readers of two distinct blocks may reload an evicted block (that is
/// the cost of a bounded cache), but must never hand a reader another
/// block's bytes, never exceed its capacity once quiescent, and never
/// strand a waiter (every schedule runs to completion).
#[test]
fn eviction_under_pressure_stays_consistent_and_bounded() {
    let report = check(
        "index-cache-eviction",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || {
            let cache = CacheModel::new(2, 1, true);
            let readers: Vec<_> = [0usize, 1, 0]
                .into_iter()
                .map(|block| {
                    let cache = Arc::clone(&cache);
                    thread::spawn(move || {
                        let tok = cache.get_or_load(block);
                        assert_eq!(
                            tok,
                            token_of(block),
                            "eviction handed block {block} foreign bytes"
                        );
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            let s = cache.state.lock();
            let resident = s.map.with(|m| m.iter().flatten().count());
            assert!(resident <= 1, "cache over capacity: {resident} resident");
            assert!(
                !s.inflight.with(|f| f.iter().any(|&b| b)),
                "quiescent cache still marks a load inflight"
            );
        },
    );
    assert!(report.failure.is_none());
    assert!(
        report.schedules >= 100,
        "expected >= 100 schedules, explored {}",
        report.schedules
    );
    assert_eq!(report.races_found, 0);
}

/// Negative control: with the inflight dedup removed, two racing
/// first-readers of the same block can both reach the disk load. The
/// explorer must find that schedule — proving the suite would catch a
/// regression in the single-flight guard.
#[test]
fn seeded_double_load_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
            prune: false,
        },
        || {
            let cache = CacheModel::new(1, 1, false);
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    thread::spawn(move || {
                        cache.get_or_load(0);
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            assert!(
                cache.loads[0].load(Ordering::SeqCst) <= 1,
                "block loaded twice"
            );
        },
    );
    let failure = report.failure.expect("double-load schedule must exist");
    assert!(
        failure.message.contains("loaded twice"),
        "unexpected failure: {}",
        failure.message
    );
}
