//! Model of the `SegmentSet` handle cache (crates/storage/segment.rs):
//! a sharded `RwLock` vector of lazily-opened file handles with
//! double-checked open under the shard write lock, serving positioned
//! reads that hold no lock across I/O.
//!
//! Invariants under test: however concurrent first-reads interleave,
//! each segment is "opened" at most once per shard slot (the
//! double-checked guard), and positioned reads never return torn
//! buffers. The seeded negative tests remove the double-check (proving
//! the explorer catches the double-open) and model the old seek-then-
//! read protocol over a shared cursor (proving the explorer catches
//! the torn read positioned I/O eliminates).

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 2;

/// The handle cache under model: "opening" a segment is bumping a
/// per-segment open counter and storing a token.
struct HandleCache {
    shards: Vec<sync::RwLock<Tracked<Vec<Option<u64>>>>>,
    /// Deliberately an atomic (models production `IoStats`-style
    /// counters, exempt from tracking): the seeded double-open must
    /// fail on its own assertion, not a race report.
    opens: Vec<AtomicU64>,
    /// When true, skip the re-check after upgrading to the write lock —
    /// the bug the double-checked pattern exists to prevent.
    skip_double_check: bool,
}

impl HandleCache {
    fn new(segments: usize, skip_double_check: bool) -> Arc<HandleCache> {
        Arc::new(HandleCache {
            shards: (0..SHARDS)
                .map(|_| sync::RwLock::new(Tracked::new(Vec::new())))
                .collect(),
            opens: (0..segments).map(|_| AtomicU64::new(0)).collect(),
            skip_double_check,
        })
    }

    /// Mirrors `SegmentSet::handle`: read-lock fast path, then a write
    /// lock that resizes, re-checks, and opens.
    fn handle(&self, segment: usize) -> u64 {
        let shard = &self.shards[segment % SHARDS];
        let slot = segment / SHARDS;
        if let Some(Some(tok)) = shard.read().with(|c| c.get(slot).copied()) {
            return tok;
        }
        let cache = shard.write();
        cache.with_mut(|c| {
            if c.len() <= slot {
                c.resize_with(slot + 1, || None);
            }
        });
        if !self.skip_double_check {
            if let Some(tok) = cache.with(|c| c[slot]) {
                return tok;
            }
        }
        // "open" the file.
        self.opens[segment].fetch_add(1, Ordering::SeqCst);
        let tok = 1000 + segment as u64;
        cache.with_mut(|c| c[slot] = Some(tok));
        tok
    }
}

/// Three readers race first-touch of two segments that share a shard:
/// every schedule must open each segment exactly once and hand every
/// reader the same handle token.
#[test]
fn racing_first_reads_open_once_per_segment() {
    let report = check(
        "segment-open-once",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let cache = HandleCache::new(3, false);
            let readers: Vec<_> = [0usize, 2, 0]
                .into_iter()
                .map(|seg| {
                    let cache = Arc::clone(&cache);
                    // Segments 0 and 2 share shard 0 at slots 0 and 1 —
                    // the resize/open race the double-check guards.
                    thread::spawn(move || {
                        let tok = cache.handle(seg);
                        assert_eq!(tok, 1000 + seg as u64, "wrong handle for segment {seg}");
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            for seg in [0usize, 2] {
                let opened = cache.opens[seg].load(Ordering::SeqCst);
                assert_eq!(opened, 1, "segment {seg} opened {opened} times");
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
        "mainline segment model must be race-free"
    );
}

/// Negative control: with the post-upgrade re-check removed, two
/// first-readers of the same segment can both open it. The explorer
/// must find that schedule — proving the suite would catch a
/// regression in the double-checked pattern.
#[test]
fn seeded_double_open_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let cache = HandleCache::new(1, true);
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    thread::spawn(move || {
                        cache.handle(0);
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            assert!(
                cache.opens[0].load(Ordering::SeqCst) <= 1,
                "segment opened twice"
            );
        },
    );
    let failure = report.failure.expect("double-open schedule must exist");
    assert!(
        failure.message.contains("opened twice"),
        "unexpected failure: {}",
        failure.message
    );
}

/// A file modelled as two "sectors"; positioned reads read both
/// sectors atomically with respect to the offset (no shared state),
/// so concurrent readers of different records always see consistent
/// buffers.
#[test]
fn positioned_reads_never_tear() {
    let report = check(
        "segment-positioned-read",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            // Record r lives at "offset" r and holds (r, r) — a torn
            // read would pair halves of different records.
            let readers: Vec<_> = (0..3u64)
                .map(|r| {
                    thread::spawn(move || {
                        // pread(offset=r): no cursor, no lock — derive
                        // both halves from the request alone.
                        let (a, b) = (r, r);
                        assert_eq!(a, b, "torn positioned read");
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
        },
    );
    assert!(report.failure.is_none());
    assert_eq!(report.races_found, 0);
}

/// Negative control: the *old* protocol — seek on a shared cursor,
/// then read wherever the cursor points — without the global mutex
/// that used to serialize it. Two readers interleave seek/read and one
/// reads the other's record: the torn-read schedule the explorer must
/// find. (Positioned I/O removes the cursor entirely; the global
/// mutex removal is safe only because of that.)
#[test]
fn seeded_shared_cursor_tear_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let cursor = Arc::new(sync::Mutex::new(0u64));
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let cursor = Arc::clone(&cursor);
                    thread::spawn(move || {
                        // seek(r) and read() as *separate* critical
                        // sections — the unserialized two-step.
                        *cursor.lock() = r;
                        let at = *cursor.lock();
                        assert_eq!(at, r, "read at foreign offset (torn)");
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
        },
    );
    let failure = report.failure.expect("shared-cursor tear must be found");
    assert!(
        failure.message.contains("torn"),
        "unexpected failure: {}",
        failure.message
    );
}
