//! Model of the ingest mempool (crates/consensus/src/mempool.rs): a
//! condvar-guarded pending buffer drained by one block producer by the
//! three cut rules — the transactions before a pending isolated
//! (schema-sync) transaction at once, then the isolated transaction
//! alone, else at `max_txs` or on the packaging timeout. Here the
//! scheduler decides when the timeout fires, so the flush races
//! submissions in every order the real clock could produce. (The model
//! finds the isolated transaction by scanning its short queue; the real
//! pool's O(1) bookkeeping is under the same lock and is pinned by its
//! unit tests.)
//!
//! The invariants under test: exactly-once delivery — every accepted
//! submission appears in exactly one producer batch (or in the
//! post-close leftovers), nothing is lost, nothing duplicated —, a
//! batch holding an isolated transaction holds nothing else, and the
//! batches deliver in submission order across the cuts.

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;
use std::time::Duration;

const MAX_TXS: usize = 2;

/// Transactions numbered from here up are isolated (schema-sync): each
/// must ship in a batch of its own.
const ISOLATED: u64 = 100;

fn isolated(tx: &u64) -> bool {
    *tx >= ISOLATED
}

struct PoolState {
    queue: Tracked<Vec<u64>>,
    /// Every accepted submission in lock order: the order delivery must
    /// reproduce.
    submitted: Tracked<Vec<u64>>,
    closed: Tracked<bool>,
}

struct Pool {
    state: sync::Mutex<PoolState>,
    arrived: sync::Condvar,
    /// Seeded bug switch: submit without notifying the producer.
    notify_on_submit: bool,
    /// Seeded bug switch: cut an isolated transaction together with
    /// the transactions queued before it.
    fuse_isolated: bool,
}

impl Pool {
    fn new(notify_on_submit: bool, fuse_isolated: bool) -> Arc<Pool> {
        Arc::new(Pool {
            state: sync::Mutex::new(PoolState {
                queue: Tracked::new(Vec::new()),
                submitted: Tracked::new(Vec::new()),
                closed: Tracked::new(false),
            }),
            arrived: sync::Condvar::new(),
            notify_on_submit,
            fuse_isolated,
        })
    }

    /// Returns false if the pool is closed (the caller's tx was
    /// refused).
    fn submit(&self, tx: u64) -> bool {
        let st = self.state.lock();
        if st.closed.get() {
            return false;
        }
        st.queue.with_mut(|q| q.push(tx));
        st.submitted.with_mut(|s| s.push(tx));
        drop(st);
        if self.notify_on_submit {
            self.arrived.notify_one();
        }
        true
    }

    /// Producer side: blocks until a cut rule fires — an isolated
    /// transaction pending, max_txs pending, or the packaging timeout
    /// with a partial batch; None once closed. `timed` selects
    /// wait_timeout (the real code) vs plain wait (the seeded
    /// lost-wakeup variant's stricter observer).
    fn next_batch(&self, timed: bool) -> Option<Vec<u64>> {
        let mut st = self.state.lock();
        loop {
            if st.closed.get() {
                return None;
            }
            // Before the count cut, as in the real pool.
            if let Some(at) = st.queue.with(|q| q.iter().position(isolated)) {
                let n = if at == 0 || self.fuse_isolated {
                    at + 1
                } else {
                    at.min(MAX_TXS)
                };
                return Some(st.queue.with_mut(|q| q.drain(..n).collect()));
            }
            if st.queue.with(Vec::len) >= MAX_TXS {
                let batch = st.queue.with_mut(|q| q.drain(..MAX_TXS).collect());
                return Some(batch);
            }
            if timed {
                let res = self
                    .arrived
                    .wait_timeout(&mut st, Duration::from_millis(200));
                // Timeout flush: whatever is pending ships now.
                if res.timed_out() && !st.queue.with(Vec::is_empty) {
                    let batch = st.queue.with_mut(std::mem::take);
                    return Some(batch);
                }
            } else {
                self.arrived.wait(&mut st);
            }
        }
    }

    fn close(&self) {
        self.state.lock().closed.set(true);
        self.arrived.notify_all();
    }

    fn take_remaining(&self) -> Vec<u64> {
        self.state.lock().queue.with_mut(std::mem::take)
    }

    fn submitted(&self) -> Vec<u64> {
        self.state.lock().submitted.with(Vec::clone)
    }
}

/// The producer's loop until close: every batch within max_txs, and a
/// batch holding an isolated transaction holds nothing else.
fn produce(pool: &Pool) -> Vec<u64> {
    let mut delivered = Vec::new();
    while let Some(batch) = pool.next_batch(true) {
        assert!(batch.len() <= MAX_TXS, "batch over max_txs");
        assert!(
            batch.len() == 1 || !batch.iter().any(isolated),
            "isolated transaction cut with others: {batch:?}"
        );
        delivered.extend(batch);
    }
    delivered
}

/// Two submitters, one of them sending an isolated transaction between
/// two data transactions, race the producer's cuts; afterwards every
/// accepted tx must be in exactly one batch or in the leftovers, in
/// submission order.
#[test]
fn timeout_flush_racing_submit_delivers_exactly_once() {
    let report = check(
        "mempool-exactly-once",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
        },
        || {
            let pool = Pool::new(true, false);
            let producer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || produce(&pool))
            };
            let submitters: Vec<_> = [vec![1u64, ISOLATED, 2], vec![3u64]]
                .into_iter()
                .map(|txs| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || {
                        for tx in txs {
                            assert!(pool.submit(tx), "pool closed before close()");
                        }
                    })
                })
                .collect();
            for s in submitters {
                s.join();
            }
            pool.close();
            let mut all = producer.join();
            all.extend(pool.take_remaining());
            assert_eq!(
                all,
                pool.submitted(),
                "lost, duplicated or reordered transactions"
            );
            all.sort_unstable();
            assert_eq!(all, vec![1, 2, 3, ISOLATED], "lost transactions");
        },
    );
    assert!(
        report.schedules >= 300,
        "expected >= 300 schedules, explored {}",
        report.schedules
    );
    assert_eq!(
        report.races_found, 0,
        "mainline mempool model must be race-free"
    );
}

/// Close must wake a producer parked in the arrival wait — even the
/// strict variant that waits without a timeout. A close that failed to
/// notify would deadlock here.
#[test]
fn close_wakes_blocked_producer() {
    check(
        "mempool-close-wakes",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
        },
        || {
            let pool = Pool::new(true, false);
            let producer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || pool.next_batch(false))
            };
            let pool2 = Arc::clone(&pool);
            let closer = thread::spawn(move || pool2.close());
            closer.join();
            assert_eq!(producer.join(), None);
        },
    );
}

/// Seeded bug: submit() forgets to notify. With a producer that waits
/// without a timeout the explorer must find the lost-wakeup deadlock.
/// (The real producer's wait_timeout would mask this as latency — which
/// is exactly why the lint bans sleep-based polling as a fix.)
#[test]
fn missing_submit_notify_is_caught_as_lost_wakeup() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 40,
        },
        || {
            let pool = Pool::new(false, false);
            let producer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || pool.next_batch(false))
            };
            let pool2 = Arc::clone(&pool);
            let submitter = thread::spawn(move || {
                pool2.submit(1);
                pool2.submit(2);
            });
            submitter.join();
            let batch = producer.join();
            assert_eq!(batch, Some(vec![1, 2]));
        },
    );
    let failure = report.failure.expect("lost wakeup must be caught");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Seeded bug: the producer cuts an isolated transaction together with
/// the data queued before it. The explorer must find the schedule in
/// which both are pending at one cut.
#[test]
fn fused_isolated_cut_is_caught() {
    let report = explore(
        Options {
            max_schedules: 20_000,
            max_depth: 40,
        },
        || {
            let pool = Pool::new(true, true);
            let producer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || produce(&pool))
            };
            let pool2 = Arc::clone(&pool);
            let submitter = thread::spawn(move || {
                pool2.submit(1);
                pool2.submit(ISOLATED);
            });
            submitter.join();
            pool.close();
            producer.join();
        },
    );
    let failure = report.failure.expect("fused isolated cut must be caught");
    assert!(
        failure
            .message
            .contains("isolated transaction cut with others"),
        "unexpected failure: {}",
        failure.message
    );
}
