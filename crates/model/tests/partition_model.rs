//! Model of the partitioned append protocol
//! (crates/storage/blockstore.rs): per-partition extent writes fan out
//! across threads, and the chain-order manifest record — the block's
//! only metadata write — is the *commit point*, written only after
//! every partition write landed.
//!
//! Invariants under test: a recovery snapshot taken at any point (any
//! crash prefix of any schedule) never finds a manifest record whose
//! partition extents outrun the partition files — so restart replay's
//! longest-valid-prefix cut never has to drop a record the correct
//! protocol committed. The seeded negative reorders the protocol
//! (manifest written before the partition data is durable) and proves
//! the explorer catches the reordering. A deterministic ladder crashes
//! after every single write-order boundary and checks the recovered
//! height. The handle-cache model extends the segment open-once proof
//! across partition directories.

use sebdb_model::race::Tracked;
use sebdb_model::{check, explore, sync, thread, Options};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PARTS: usize = 2;

/// The on-disk state under model: per-partition extent bytes (monotone
/// counters — segment appends only grow the file), plus the manifest,
/// each block entry recording the extent end offset it expects per
/// partition.
struct Disk {
    /// Deliberately atomics, not `Tracked` cells: these model durable
    /// file lengths that the recovery observer reads *concurrently
    /// with the writers by design* (a crashed reader sees whatever
    /// bytes landed), exactly the monotone-observation exemption of
    /// DESIGN §14 — tracking them would flag the intended race.
    part_len: Vec<AtomicU64>,
    manifest: sync::Mutex<Tracked<Manifest>>,
}

/// Chain-order manifest: one entry per committed block, recording the
/// `(partition, extent-end)` pairs that block's tuples landed at.
type Manifest = Vec<Vec<(usize, u64)>>;

impl Disk {
    fn new() -> Arc<Disk> {
        Arc::new(Disk {
            part_len: (0..PARTS).map(|_| AtomicU64::new(0)).collect(),
            manifest: sync::Mutex::new(Tracked::new(Vec::new())),
        })
    }

    /// Appends one block touching every partition (extent size 1), the
    /// real protocol: partition writers fan out, each writing its
    /// extent; the manifest record lands only after joining them all.
    fn append_block(self: &Arc<Self>, bid: u64) {
        let writers: Vec<_> = (0..PARTS)
            .map(|p| {
                let disk = Arc::clone(self);
                thread::spawn(move || {
                    disk.part_len[p].fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
        self.manifest
            .lock()
            .with_mut(|m| m.push((0..PARTS).map(|p| (p, bid + 1)).collect()));
    }

    /// The reordered (buggy) protocol the commit-point ordering exists
    /// to rule out: the manifest record reaches disk *before* the
    /// partition writers run.
    fn append_block_reordered(self: &Arc<Self>, bid: u64) {
        self.manifest
            .lock()
            .with_mut(|m| m.push((0..PARTS).map(|p| (p, bid + 1)).collect()));
        let writers: Vec<_> = (0..PARTS)
            .map(|p| {
                let disk = Arc::clone(self);
                thread::spawn(move || {
                    disk.part_len[p].fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
    }

    /// Restart replay's validation cut: reads the manifest, then the
    /// partition file lengths (exactly a crashed process would — the
    /// files can only have *more* bytes than any state the manifest
    /// reader saw), and keeps the longest prefix of records whose
    /// extents all physically exist.
    fn recover(&self) -> (usize, usize) {
        let manifest = self.manifest.lock().with(Clone::clone);
        let lens: Vec<u64> = (0..PARTS)
            .map(|p| self.part_len[p].load(Ordering::SeqCst))
            .collect();
        let mut keep = 0;
        for entry in &manifest {
            if entry.iter().all(|&(p, end)| end <= lens[p]) {
                keep += 1;
            } else {
                break;
            }
        }
        (keep, manifest.len())
    }
}

/// Correct protocol: however the partition writers and a concurrent
/// recovery observer interleave, every manifest record the observer
/// sees is fully backed by partition bytes — the validation cut never
/// drops a committed record.
#[test]
fn manifest_commits_only_after_partition_writes() {
    let report = check(
        "partition-manifest-commit-point",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let disk = Disk::new();
            let observer = {
                let disk = Arc::clone(&disk);
                thread::spawn(move || {
                    let (keep, seen) = disk.recover();
                    assert_eq!(
                        keep, seen,
                        "manifest ahead of partition data: {seen} records, {keep} backed"
                    );
                })
            };
            disk.append_block(0);
            disk.append_block(1);
            observer.join();
            let (keep, seen) = disk.recover();
            assert_eq!((keep, seen), (2, 2), "final state lost a committed block");
        },
    );
    assert!(
        report.schedules >= 100,
        "expected >= 100 schedules, explored {}",
        report.schedules
    );
    assert_eq!(
        report.races_found, 0,
        "correct commit-point protocol must be race-free"
    );
}

/// Seeded negative: with the manifest written before the partition
/// fsync, some schedule lets the observer see a manifest record whose
/// extents do not exist yet. The explorer must find it — proving the
/// suite would catch a commit-point reordering regression.
#[test]
fn seeded_manifest_before_partition_fsync_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let disk = Disk::new();
            let observer = {
                let disk = Arc::clone(&disk);
                thread::spawn(move || {
                    let (keep, seen) = disk.recover();
                    assert_eq!(
                        keep, seen,
                        "manifest ahead of partition data: {seen} records, {keep} backed"
                    );
                })
            };
            disk.append_block_reordered(0);
            observer.join();
        },
    );
    let failure = report
        .failure
        .expect("reordered commit point must be caught");
    assert!(
        failure.message.contains("manifest ahead of partition data"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Deterministic crash ladder: block 0 commits fully, then block 1's
/// append crashes after each single write-order boundary in turn —
/// each partition's extent write, then the manifest write. Recovery
/// must report height 1 at every pre-manifest boundary and height 2
/// only once the manifest record landed.
#[test]
fn crash_after_every_write_boundary_recovers_to_commit_point() {
    // Plain-state twin of [`Disk`] (no model primitives — the ladder
    // is deterministic, so it runs outside the explorer).
    struct Flat {
        part_len: Vec<u64>,
        manifest: Vec<Vec<(usize, u64)>>,
    }
    impl Flat {
        fn recover(&self) -> (usize, usize) {
            let mut keep = 0;
            for entry in &self.manifest {
                if entry.iter().all(|&(p, end)| end <= self.part_len[p]) {
                    keep += 1;
                } else {
                    break;
                }
            }
            (keep, self.manifest.len())
        }
    }
    // One step per boundary: each partition's extent, then the
    // manifest record.
    let nsteps = PARTS + 1;
    for crash_after in 0..=nsteps {
        // Block 0 fully committed, then block 1's append crashes.
        let mut disk = Flat {
            part_len: vec![1; PARTS],
            manifest: vec![(0..PARTS).map(|p| (p, 1)).collect()],
        };
        let mut step = 0;
        'steps: {
            for p in 0..PARTS {
                if step == crash_after {
                    break 'steps;
                }
                disk.part_len[p] += 1;
                step += 1;
            }
            if step == crash_after {
                break 'steps;
            }
            disk.manifest.push((0..PARTS).map(|p| (p, 2)).collect());
        }
        let (keep, seen) = disk.recover();
        let expect = if crash_after == nsteps { 2 } else { 1 };
        assert_eq!(
            keep, expect,
            "crash after step {crash_after}: recovered to height {keep}"
        );
        assert_eq!(keep, seen, "recovery kept a torn record");
    }
}

/// Per-partition handle caches: each partition directory has its own
/// lazily-opened segment handle cache. Readers racing first-touch
/// across two partitions (and doubling up on one) must open each
/// partition's file exactly once — the open-once proof of the segment
/// model, extended across the partition dimension.
#[test]
fn racing_first_reads_open_each_partition_segment_once() {
    struct PartCaches {
        slots: Vec<sync::RwLock<Tracked<Option<u64>>>>,
        /// Atomic, not `Tracked`: models the production `IoStats`
        /// open counter (exempt, DESIGN §14) — the open-once proof
        /// must fail on its own count assertion, not a race report.
        opens: Vec<AtomicU64>,
    }
    impl PartCaches {
        fn handle(&self, p: usize) -> u64 {
            if let Some(tok) = self.slots[p].read().get() {
                return tok;
            }
            let slot = self.slots[p].write();
            if let Some(tok) = slot.get() {
                return tok;
            }
            self.opens[p].fetch_add(1, Ordering::SeqCst);
            let tok = 1000 + p as u64;
            slot.set(Some(tok));
            tok
        }
    }
    let report = check(
        "partition-open-once",
        Options {
            max_schedules: 20_000,
            max_depth: 60,
        },
        || {
            let caches = Arc::new(PartCaches {
                slots: (0..PARTS)
                    .map(|_| sync::RwLock::new(Tracked::new(None)))
                    .collect(),
                opens: (0..PARTS).map(|_| AtomicU64::new(0)).collect(),
            });
            let readers: Vec<_> = [0usize, 1, 0]
                .into_iter()
                .map(|p| {
                    let caches = Arc::clone(&caches);
                    thread::spawn(move || {
                        let tok = caches.handle(p);
                        assert_eq!(tok, 1000 + p as u64, "wrong handle for partition {p}");
                    })
                })
                .collect();
            for r in readers {
                r.join();
            }
            for p in 0..PARTS {
                let opened = caches.opens[p].load(Ordering::SeqCst);
                assert_eq!(opened, 1, "partition {p} opened {opened} times");
            }
        },
    );
    assert!(
        report.schedules >= 100,
        "expected >= 100 schedules, explored {}",
        report.schedules
    );
    assert_eq!(report.races_found, 0, "open-once cache must be race-free");
}
