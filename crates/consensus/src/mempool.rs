//! The shared ingest mempool: submit-side coalescing for the ordering
//! engines.
//!
//! `submit` used to hand each transaction to the broker/batcher thread
//! over a channel, so ingest was one channel round-trip per
//! transaction and the producer woke once per submission. The mempool
//! inverts that: submitters enqueue into a condvar-guarded pending
//! buffer, and the block producer drains one batch per round by three
//! cut rules, checked in this order:
//!
//! 1. a pending schema-sync transaction
//!    ([`Transaction::is_schema_sync`], a `CREATE`) cuts the
//!    transactions queued before it at once, as their own batch (at
//!    most [`BatchConfig::max_txs`] of them);
//! 2. a schema-sync transaction at the head of the queue ships alone,
//!    at once;
//! 3. otherwise transactions are cut at `max_txs` or on the packaging
//!    timeout since the first pending transaction (the paper's
//!    200 tx / 200 ms policy, §VII-B).
//!
//! Rule 3 is a throughput rule for data. A `CREATE`'s client blocks on
//! its ack and every later statement on the table waits behind it, so
//! rules 1 and 2 keep it off the timer, as Fabric's orderer puts a
//! configuration transaction in a block of its own. All three depend
//! only on the queue's contents.
//!
//! Admission runs once per batch instead of once per transaction: with
//! a verifier installed, [`Mempool::admit`] checks each signing-payload
//! MAC once, in submission order, and rejects the forgeries on their
//! own ack channels.
//!
//! All three engines admit through it (`crate::engine`). Tendermint
//! runs its serial per-transaction CheckTx before `submit` — that
//! serialization is the Fig. 7 bottleneck the reproduction preserves on
//! purpose.

use crate::traits::{BatchConfig, CommitAck, ConsensusError};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use sebdb_parallel::Tracked;
use sebdb_types::Transaction;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The channel half a committing engine resolves a submission on.
pub type AckSender = Sender<Result<CommitAck, ConsensusError>>;

/// Checks a transaction's signing-payload MAC at admission. Returning
/// `false` rejects the transaction with [`ConsensusError::Rejected`].
pub type AdmissionVerifier = dyn Fn(&Transaction) -> bool + Send + Sync;

/// The coalescing buffer, every field under a zero-cost [`Tracked`]
/// marker: the model checker's mempool suite wraps the same state in
/// its race-detecting twin and proves the condvar-guarded discipline
/// below (DESIGN.md §14).
struct PoolState {
    queue: Tracked<VecDeque<(Transaction, AckSender)>>,
    /// Arrival number of the queue's front: `queue[i]` arrived as
    /// number `head + i`.
    head: Tracked<u64>,
    /// Arrival numbers of the pending schema-sync transactions, oldest
    /// first — recorded at enqueue, so a cut finds the first one
    /// without scanning the queue.
    schema: Tracked<VecDeque<u64>>,
    /// Arrival time of the oldest pending transaction — the packaging
    /// timeout counts from here.
    first_pending: Tracked<Option<Instant>>,
    closed: Tracked<bool>,
}

/// A condvar-guarded pending buffer shared between submitters and one
/// block-producer thread.
pub struct Mempool {
    state: Mutex<PoolState>,
    arrived: Condvar,
    config: BatchConfig,
    verifier: parking_lot::RwLock<Option<Box<AdmissionVerifier>>>,
}

impl Mempool {
    /// An empty mempool with the given packaging policy.
    pub fn new(config: BatchConfig) -> Mempool {
        Mempool {
            state: Mutex::new(PoolState {
                queue: Tracked::new(VecDeque::new()),
                head: Tracked::new(0),
                schema: Tracked::new(VecDeque::new()),
                first_pending: Tracked::new(None),
                closed: Tracked::new(false),
            }),
            arrived: Condvar::new(),
            config,
            verifier: parking_lot::RwLock::new(None),
        }
    }

    /// Installs (or clears) the batch admission verifier.
    pub fn set_verifier(&self, verifier: Option<Box<AdmissionVerifier>>) {
        *self.verifier.write() = verifier;
    }

    /// Enqueues a transaction; the returned channel yields exactly one
    /// commit/reject message once the producer has processed it.
    pub fn submit(&self, tx: Transaction) -> Receiver<Result<CommitAck, ConsensusError>> {
        let (ack_tx, ack_rx) = bounded(1);
        self.enqueue(tx, ack_tx);
        ack_rx
    }

    /// [`Self::submit`] with the ack channel the caller already handed
    /// out.
    pub(crate) fn enqueue(&self, tx: Transaction, ack: AckSender) {
        let mut st = self.state.lock();
        if st.closed.get() {
            drop(st);
            let _ = ack.send(Err(ConsensusError::Stopped));
            return;
        }
        if st.queue.with(VecDeque::is_empty) {
            st.first_pending.set(Some(Instant::now()));
        }
        if tx.is_schema_sync() {
            let at = st.head.get() + st.queue.with(VecDeque::len) as u64;
            st.schema.with_mut(|s| s.push_back(at));
        }
        st.queue.with_mut(|q| q.push_back((tx, ack)));
        drop(st);
        self.arrived.notify_one();
    }

    /// Number of transactions currently pending.
    pub fn len(&self) -> usize {
        self.state.lock().queue.with(VecDeque::len)
    }

    /// Whether the pending buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until a batch is ready and drains it in submission order,
    /// by the module's three cut rules: the transactions before a
    /// pending schema-sync transaction at once (at most `max_txs`),
    /// then the schema-sync transaction alone at once, else `max_txs`
    /// pending or the packaging timeout elapsed since the first pending
    /// transaction. Returns `None` once the pool is closed; the caller
    /// then rejects leftovers via [`Self::take_remaining`].
    pub fn next_batch(&self) -> Option<Vec<(Transaction, AckSender)>> {
        let timeout = Duration::from_millis(self.config.timeout_ms);
        let mut st = self.state.lock();
        loop {
            if st.closed.get() {
                return None;
            }
            // Before the count cut, which would ship a schema-sync
            // transaction among data.
            if let Some(before) = st.first_schema() {
                let n = if before == 0 {
                    1
                } else {
                    before.min(self.config.max_txs)
                };
                return Some(Self::drain(&mut st, n));
            }
            if st.queue.with(VecDeque::len) >= self.config.max_txs {
                return Some(Self::drain(&mut st, self.config.max_txs));
            }
            let wait = match st.first_pending.get() {
                Some(first) => {
                    let elapsed = first.elapsed();
                    if elapsed >= timeout && !st.queue.with(VecDeque::is_empty) {
                        let n = st.queue.with(VecDeque::len);
                        return Some(Self::drain(&mut st, n));
                    }
                    timeout - elapsed
                }
                None => timeout,
            };
            self.arrived.wait_timeout(&mut st, wait);
        }
    }

    fn drain(st: &mut PoolState, n: usize) -> Vec<(Transaction, AckSender)> {
        let batch: Vec<_> = st.queue.with_mut(|q| q.drain(..n).collect());
        let head = st.head.get() + n as u64;
        st.head.set(head);
        st.schema.with_mut(|s| {
            while s.front().is_some_and(|&at| at < head) {
                s.pop_front();
            }
        });
        st.first_pending.set(if st.queue.with(VecDeque::is_empty) {
            None
        } else {
            // Leftovers start a fresh packaging window: their original
            // arrival instant is not tracked per transaction. Behind a
            // count cut the backlog will hit the max_txs cut first
            // anyway; behind a schema cut they wait one window at most.
            Some(Instant::now())
        });
        batch
    }

    /// Runs batch admission: with no verifier installed the batch
    /// passes through untouched. Otherwise each transaction's MAC is
    /// checked once, in submission order; a failure is rejected on its
    /// ack channel and the rest are kept in order.
    pub fn admit(&self, batch: Vec<(Transaction, AckSender)>) -> Vec<(Transaction, AckSender)> {
        let guard = self.verifier.read();
        let Some(verify) = guard.as_ref() else {
            return batch;
        };
        batch
            .into_iter()
            .filter(|(tx, ack)| {
                let ok = verify(tx);
                if !ok {
                    let _ = ack.send(Err(ConsensusError::Rejected(format!(
                        "transaction from {:?} on '{}' failed MAC admission",
                        tx.sender, tx.tname
                    ))));
                }
                ok
            })
            .collect()
    }

    /// Closes the pool: subsequent submissions are refused with
    /// [`ConsensusError::Stopped`] and [`Self::next_batch`] returns
    /// `None`.
    pub fn close(&self) {
        self.state.lock().closed.set(true);
        self.arrived.notify_all();
    }

    /// Drains every pending transaction (used after [`Self::close`] to
    /// reject leftovers).
    pub fn take_remaining(&self) -> Vec<(Transaction, AckSender)> {
        let mut st = self.state.lock();
        let n = st.queue.with(VecDeque::len);
        Self::drain(&mut st, n)
    }
}

impl PoolState {
    /// Queue position of the first pending schema-sync transaction.
    fn first_schema(&self) -> Option<usize> {
        let head = self.head.get();
        self.schema
            .with(|s| s.front().map(|&at| (at - head) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::now_ms;
    use sebdb_crypto::sig::{KeyId, MacKeypair, Signer, Verifier};
    use sebdb_types::{Value, SCHEMA_TABLE};

    fn tx(i: i64) -> Transaction {
        Transaction::new(now_ms(), KeyId([1; 8]), "donate", vec![Value::Int(i)])
    }

    fn schema_tx() -> Transaction {
        Transaction::new(now_ms(), KeyId([1; 8]), SCHEMA_TABLE, Vec::new())
    }

    /// A pool whose timer never fires within a test: every cut below is
    /// by count or by the schema rules.
    fn untimed(max_txs: usize) -> Mempool {
        Mempool::new(BatchConfig {
            max_txs,
            timeout_ms: 60_000,
        })
    }

    /// What a batch holds: `Some(i)` for data transaction `i`, `None`
    /// for a schema-sync transaction.
    fn contents(batch: &[(Transaction, AckSender)]) -> Vec<Option<i64>> {
        batch
            .iter()
            .map(|(tx, _)| match tx.values.first() {
                _ if tx.is_schema_sync() => None,
                Some(Value::Int(i)) => Some(*i),
                other => panic!("unexpected value {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_schema_transaction_in_an_empty_pool_ships_alone_at_once() {
        let pool = untimed(200);
        pool.submit(schema_tx());
        let start = Instant::now();
        assert_eq!(contents(&pool.next_batch().unwrap()), [None]);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(pool.is_empty());
    }

    #[test]
    fn a_schema_transaction_cuts_the_data_before_it_then_ships_alone() {
        let pool = untimed(200);
        for i in 0..3 {
            pool.submit(tx(i));
        }
        pool.submit(schema_tx());
        for i in 3..5 {
            pool.submit(tx(i));
        }
        let start = Instant::now();
        assert_eq!(contents(&pool.next_batch().unwrap()), [0, 1, 2].map(Some));
        assert_eq!(contents(&pool.next_batch().unwrap()), [None]);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(pool.len(), 2, "the data behind it waits for a cut");
    }

    #[test]
    fn the_count_cut_stops_before_a_schema_transaction() {
        // A backlog of max_txs or more with a schema transaction inside
        // the first max_txs: the count cut must not carry it.
        let pool = untimed(4);
        for i in 0..2 {
            pool.submit(tx(i));
        }
        pool.submit(schema_tx());
        for i in 2..7 {
            pool.submit(tx(i));
        }
        assert_eq!(contents(&pool.next_batch().unwrap()), [0, 1].map(Some));
        assert_eq!(contents(&pool.next_batch().unwrap()), [None]);
        assert_eq!(
            contents(&pool.next_batch().unwrap()),
            [2, 3, 4, 5].map(Some)
        );
        assert_eq!(pool.len(), 1);

        // Past max_txs, the data before it drains in max_txs chunks.
        let pool = untimed(4);
        for i in 0..6 {
            pool.submit(tx(i));
        }
        pool.submit(schema_tx());
        pool.submit(schema_tx());
        assert_eq!(
            contents(&pool.next_batch().unwrap()),
            [0, 1, 2, 3].map(Some)
        );
        assert_eq!(contents(&pool.next_batch().unwrap()), [4, 5].map(Some));
        assert_eq!(contents(&pool.next_batch().unwrap()), [None]);
        assert_eq!(contents(&pool.next_batch().unwrap()), [None]);
        assert!(pool.is_empty());
    }

    #[test]
    fn cuts_at_max_txs_without_waiting_for_timeout() {
        let pool = Mempool::new(BatchConfig {
            max_txs: 3,
            timeout_ms: 60_000,
        });
        for i in 0..3 {
            pool.submit(tx(i));
        }
        let start = Instant::now();
        let batch = pool.next_batch().unwrap();
        assert_eq!(batch.len(), 3);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(pool.is_empty());
    }

    #[test]
    fn timeout_flushes_partial_batch() {
        let pool = Mempool::new(BatchConfig {
            max_txs: 1000,
            timeout_ms: 30,
        });
        pool.submit(tx(1));
        pool.submit(tx(2));
        let batch = pool.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn oversize_backlog_drains_in_max_chunks() {
        let pool = Mempool::new(BatchConfig {
            max_txs: 4,
            timeout_ms: 50,
        });
        for i in 0..10 {
            pool.submit(tx(i));
        }
        assert_eq!(pool.next_batch().unwrap().len(), 4);
        assert_eq!(pool.next_batch().unwrap().len(), 4);
        assert_eq!(pool.next_batch().unwrap().len(), 2);
    }

    #[test]
    fn admission_rejects_only_forged_macs() {
        let keys = MacKeypair::from_key([5u8; 32]);
        let pool = Mempool::new(BatchConfig {
            max_txs: 4,
            timeout_ms: 50,
        });
        let verify_keys = keys.clone();
        pool.set_verifier(Some(Box::new(move |tx: &Transaction| {
            sebdb_crypto::sig::Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| verify_keys.verify(&tx.signing_payload(), &sig))
        })));
        let mut acks = Vec::new();
        for i in 0..4 {
            let mut t = tx(i);
            if i != 2 {
                t.sig = keys.sign(&t.signing_payload()).to_bytes();
            } // tx 2 keeps an empty (forged) signature
            acks.push(pool.submit(t));
        }
        let batch = pool.next_batch().unwrap();
        let admitted = pool.admit(batch);
        assert_eq!(admitted.len(), 3);
        // The forged submission was rejected on its ack channel.
        match acks[2].recv_timeout(Duration::from_secs(2)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn admission_verifies_each_transaction_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = Mempool::new(BatchConfig {
            max_txs: 4,
            timeout_ms: 50,
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        pool.set_verifier(Some(Box::new(move |tx: &Transaction| {
            counted.fetch_add(1, Ordering::SeqCst);
            tx.values != [Value::Int(2)]
        })));
        let acks: Vec<_> = (0..4).map(|i| pool.submit(tx(i))).collect();
        let admitted = pool.admit(pool.next_batch().unwrap());
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        let kept: Vec<_> = admitted.iter().map(|(t, _)| t.values.clone()).collect();
        assert_eq!(kept, [0, 1, 3].map(|i| vec![Value::Int(i)]));
        match acks[2].recv_timeout(Duration::from_secs(2)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn timeout_flush_racing_concurrent_submit_loses_nothing() {
        // A 1 ms packaging window makes the producer's timeout flush
        // race live submissions constantly; every transaction must land
        // in exactly one batch (or the post-close leftovers).
        let pool = std::sync::Arc::new(Mempool::new(BatchConfig {
            max_txs: 4,
            timeout_ms: 1,
        }));
        let producer = {
            let pool = std::sync::Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut seen: Vec<i64> = Vec::new();
                while let Some(batch) = pool.next_batch() {
                    assert!(batch.len() <= 4, "batch over max_txs");
                    for (tx, _ack) in batch {
                        match tx.values.first() {
                            Some(Value::Int(i)) => seen.push(*i),
                            other => panic!("unexpected value {other:?}"),
                        }
                    }
                }
                seen
            })
        };
        let per_thread = 50i64;
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        pool.submit(tx(t * per_thread + i));
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        pool.close();
        let mut seen = producer.join().unwrap();
        for (tx, _ack) in pool.take_remaining() {
            match tx.values.first() {
                Some(Value::Int(i)) => seen.push(*i),
                other => panic!("unexpected value {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..3 * per_thread).collect::<Vec<i64>>(),
            "transactions lost or duplicated across timeout flushes"
        );
    }

    #[test]
    fn close_refuses_submissions_and_wakes_producer() {
        let pool = std::sync::Arc::new(Mempool::new(BatchConfig::default()));
        let producer = {
            let pool = std::sync::Arc::clone(&pool);
            std::thread::spawn(move || pool.next_batch())
        };
        std::thread::sleep(Duration::from_millis(20));
        pool.close();
        assert!(producer.join().unwrap().is_none());
        let ack = pool.submit(tx(1));
        assert_eq!(
            ack.recv_timeout(Duration::from_secs(1)).unwrap(),
            Err(ConsensusError::Stopped)
        );
    }
}
