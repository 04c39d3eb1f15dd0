//! Model of the ingest mempool (crates/consensus/src/mempool.rs): a
//! condvar-guarded pending buffer drained by one block producer, cut at
//! `max_txs` or on the packaging timeout — here the scheduler decides
//! when the timeout fires, so the flush races submissions in every
//! order the real clock could produce.
//!
//! The invariant under test is exactly-once delivery: every accepted
//! submission appears in exactly one producer batch (or in the
//! post-close leftovers), nothing is lost, nothing duplicated.

use sebdb_model::{check, explore, race::Tracked, sync, thread, Options};
use std::sync::Arc;
use std::time::Duration;

const MAX_TXS: usize = 2;

struct PoolState {
    queue: Tracked<Vec<u64>>,
    closed: Tracked<bool>,
}

struct Pool {
    state: sync::Mutex<PoolState>,
    arrived: sync::Condvar,
    /// Seeded bug switch: submit without notifying the producer.
    notify_on_submit: bool,
}

impl Pool {
    fn new(notify_on_submit: bool) -> Arc<Pool> {
        Arc::new(Pool {
            state: sync::Mutex::new(PoolState {
                queue: Tracked::new(Vec::new()),
                closed: Tracked::new(false),
            }),
            arrived: sync::Condvar::new(),
            notify_on_submit,
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
        drop(st);
        if self.notify_on_submit {
            self.arrived.notify_one();
        }
        true
    }

    /// Producer side: blocks until max_txs pending or the packaging
    /// timeout fires with a partial batch; None once closed. `timed`
    /// selects wait_timeout (the real code) vs plain wait (the seeded
    /// lost-wakeup variant's stricter observer).
    fn next_batch(&self, timed: bool) -> Option<Vec<u64>> {
        let mut st = self.state.lock();
        loop {
            if st.closed.get() {
                return None;
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
}

/// Two submitters race the producer's timeout flush; afterwards every
/// accepted tx must be in exactly one batch or in the leftovers.
#[test]
fn timeout_flush_racing_submit_delivers_exactly_once() {
    let report = check(
        "mempool-exactly-once",
        Options {
            max_schedules: 20_000,
            max_depth: 40,
        },
        || {
            let pool = Pool::new(true);
            let producer = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let mut delivered = Vec::new();
                    while let Some(batch) = pool.next_batch(true) {
                        assert!(batch.len() <= MAX_TXS, "batch over max_txs");
                        delivered.extend(batch);
                    }
                    delivered
                })
            };
            let submitters: Vec<_> = [vec![1u64, 2], vec![3u64]]
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
            all.sort_unstable();
            assert_eq!(all, vec![1, 2, 3], "lost or duplicated transactions");
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
            let pool = Pool::new(true);
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
            let pool = Pool::new(false);
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
