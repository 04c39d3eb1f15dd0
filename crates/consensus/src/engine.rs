//! What the engines share: one admission path, one delivery fan-out, and
//! the wall-clock driver that runs a BFT cluster on one event loop.
//!
//! Admission is the same on every engine: the [`Mempool`] cuts a batch,
//! [`Mempool::admit`] checks its MACs, the batch's transactions take the
//! next tids, and their acks wait in the [`Fanout`] until the block that
//! carries them is delivered. Kafka's broker delivers the batch itself;
//! PBFT and Tendermint hand it to their cluster's [`EventLoop`].
//!
//! A [`BftEngine`] runs two service threads whatever its cluster size:
//! admission, and the loop, which steps every core on wall time, runs
//! Tendermint's serial CheckTx, and parks on a condvar until the next due
//! event, a check's deadline, a new batch or a submission. The clock is
//! the loop's only seam: tests step the same cores on a virtual clock
//! through [`crate::pbft::cluster`] / [`crate::tendermint::cluster`] and
//! [`EventLoop::advance`].

use crate::mempool::{AckSender, AdmissionVerifier, Mempool};
use crate::traits::{now_ms, BatchConfig, CommitAck, Consensus, ConsensusError, OrderedBlock};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use sebdb_network::sim::{EventLoop, Node, NodeId};
use sebdb_types::{Transaction, TxId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A protocol core the wall-clock driver can run: fed admitted batches,
/// it delivers ordered blocks.
pub trait Core:
    Node<Msg: Send, Batch = Vec<Transaction>, Delivery = OrderedBlock> + Send + 'static
{
}

impl<N> Core for N where
    N: Node<Msg: Send, Batch = Vec<Transaction>, Delivery = OrderedBlock> + Send + 'static
{
}

/// The one delivery fan-out: every subscriber gets each block, then the
/// block's submitters get their acks.
pub(crate) struct Fanout {
    subscribers: Mutex<Vec<Sender<OrderedBlock>>>,
    /// Acks of admitted transactions awaiting their block, in tid order
    /// (blocks commit whole batches in admission order).
    pending: Mutex<VecDeque<(TxId, AckSender)>>,
}

impl Fanout {
    pub(crate) fn new() -> Fanout {
        Fanout {
            subscribers: Mutex::new(Vec::new()),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn subscribe(&self) -> Receiver<OrderedBlock> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    pub(crate) fn deliver(&self, block: &OrderedBlock) {
        for sub in self.subscribers.lock().iter() {
            let _ = sub.send(block.clone());
        }
        let Some(last) = block.txs.last().map(|tx| tx.tid) else {
            return;
        };
        let mut pending = self.pending.lock();
        while let Some((tid, ack)) = pending.pop_front_if(|(tid, _)| *tid <= last) {
            let seq = block.seq;
            let _ = ack.send(Ok(CommitAck { tid, seq }));
        }
    }
}

/// The one admission path, run by an engine's admission thread until the
/// pool closes: cut, MAC admission, tids, acks parked in `fanout`, then
/// `order(txs)`. Leftovers at close are refused.
pub(crate) fn admit_batches(
    mempool: &Mempool,
    fanout: &Fanout,
    mut order: impl FnMut(Vec<Transaction>),
) {
    let mut next_tid: TxId = 1;
    while let Some(batch) = mempool.next_batch() {
        let batch = mempool.admit(batch);
        if batch.is_empty() {
            continue;
        }
        let mut txs = Vec::with_capacity(batch.len());
        {
            let mut pending = fanout.pending.lock();
            for (mut tx, ack) in batch {
                tx.tid = next_tid;
                next_tid += 1;
                pending.push_back((tx.tid, ack));
                txs.push(tx);
            }
        }
        order(txs);
    }
    for (_, ack) in mempool.take_remaining() {
        let _ = ack.send(Err(ConsensusError::Stopped));
    }
}

/// What the loop thread shares with admission and submitters.
struct Driver<N: Core> {
    state: Mutex<Running<N>>,
    wake: Condvar,
    /// Tendermint's modelled CheckTx cost per transaction; `None` runs no
    /// CheckTx.
    checktx: Option<Duration>,
}

struct Running<N: Core> {
    cluster: EventLoop<N>,
    /// Submissions awaiting CheckTx, in arrival order.
    unchecked: VecDeque<(Transaction, AckSender)>,
    /// The transaction whose CheckTx is being paid, and when it is paid.
    checking: Option<(Instant, Transaction, AckSender)>,
    stopped: bool,
}

/// A BFT ordering engine: a cluster of protocol cores on one event loop.
pub struct BftEngine<N: Core> {
    name: &'static str,
    replicas: usize,
    mempool: Arc<Mempool>,
    fanout: Arc<Fanout>,
    driver: Arc<Driver<N>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<N: Core> BftEngine<N> {
    /// Starts admission and the loop over `cluster`, whose node
    /// `canonical` delivers to subscribers.
    pub(crate) fn spawn(
        name: &'static str,
        cluster: EventLoop<N>,
        replicas: usize,
        canonical: NodeId,
        batch: BatchConfig,
        checktx: Option<Duration>,
    ) -> Arc<Self> {
        let mempool = Arc::new(Mempool::new(batch));
        let fanout = Arc::new(Fanout::new());
        let driver = Arc::new(Driver {
            state: Mutex::new(Running {
                cluster,
                unchecked: VecDeque::new(),
                checking: None,
                stopped: false,
            }),
            wake: Condvar::new(),
            checktx,
        });
        let admission = {
            let (mempool, fanout, driver) = (mempool.clone(), fanout.clone(), driver.clone());
            sebdb_parallel::spawn_service(&format!("{name}-admission"), move || {
                admit_batches(&mempool, &fanout, |txs| {
                    driver.state.lock().cluster.push_batch(now_ms(), txs);
                    driver.wake.notify_one();
                })
            })
        };
        let event_loop = {
            let (mempool, fanout, driver) = (mempool.clone(), fanout.clone(), driver.clone());
            sebdb_parallel::spawn_service(&format!("{name}-loop"), move || {
                driver.run(&mempool, &fanout, canonical)
            })
        };
        Arc::new(BftEngine {
            name,
            replicas,
            mempool,
            fanout,
            driver,
            threads: Mutex::new(vec![admission, event_loop]),
        })
    }

    /// Number of replicas (validators) in the cluster.
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Installs a batch admission verifier: every cut batch has its
    /// signing-payload MACs checked once each before ordering, and
    /// forged transactions are rejected individually.
    pub fn set_tx_verifier(&self, verifier: Option<Box<AdmissionVerifier>>) {
        self.mempool.set_verifier(verifier);
    }
}

impl<N: Core> Driver<N> {
    /// The loop thread until shutdown: steps the cluster on wall time,
    /// fans out what node `canonical` delivers and runs CheckTx; parks
    /// until the next due event, the check's deadline, a new batch or a
    /// submission.
    fn run(&self, mempool: &Mempool, fanout: &Fanout, canonical: NodeId) {
        let mut state = self.state.lock();
        while !state.stopped {
            let now = now_ms();
            let delivered = state.cluster.run_until(now);
            let checked = self.checktx(&mut state);
            if delivered.is_empty() && checked.is_none() {
                let event = state.cluster.next_due();
                let event = event.map(|at| Duration::from_millis(at.saturating_sub(now)));
                let check = state
                    .checking
                    .as_ref()
                    .map(|(paid, ..)| paid.saturating_duration_since(Instant::now()));
                match event.into_iter().chain(check).min() {
                    Some(wait) => {
                        self.wake.wait_for(&mut state, wait);
                    }
                    None => self.wake.wait(&mut state),
                }
                continue;
            }
            drop(state);
            for (_, block) in delivered.iter().filter(|(id, _)| *id == canonical) {
                fanout.deliver(block);
            }
            if let Some((tx, ack)) = checked {
                mempool.enqueue(tx, ack);
            }
            state = self.state.lock();
        }
    }

    /// Tendermint's CheckTx (§VII-B): serial and per transaction, before
    /// the transaction enters the pool. A check refuses an empty type,
    /// re-hashes the transaction and then holds it for the modelled cost —
    /// a deadline in the loop's wait, so steps run while it is paid.
    /// Returns the transaction whose check is paid, and starts the next.
    fn checktx(&self, state: &mut Running<N>) -> Option<(Transaction, AckSender)> {
        let cost = self.checktx?;
        let paid = match &state.checking {
            Some((at, ..)) if *at > Instant::now() => return None,
            Some(_) => state.checking.take().map(|(_, tx, ack)| (tx, ack)),
            None => None,
        };
        while let Some((tx, ack)) = state.unchecked.pop_front() {
            if tx.tname.is_empty() {
                let _ = ack.send(Err(ConsensusError::Rejected(
                    "empty transaction type".into(),
                )));
                continue;
            }
            let _ = tx.hash();
            state.checking = Some((Instant::now() + cost, tx, ack));
            break;
        }
        paid
    }
}

impl<N: Core> Consensus for BftEngine<N> {
    fn submit(&self, tx: Transaction) -> Receiver<Result<CommitAck, ConsensusError>> {
        if self.driver.checktx.is_none() {
            return self.mempool.submit(tx);
        }
        let (ack, rx) = bounded(1);
        let mut state = self.driver.state.lock();
        if state.stopped {
            let _ = ack.send(Err(ConsensusError::Stopped));
        } else {
            state.unchecked.push_back((tx, ack));
            // A check in progress already bounds the loop's wait.
            if state.checking.is_none() {
                self.driver.wake.notify_one();
            }
        }
        rx
    }

    fn subscribe(&self) -> Receiver<OrderedBlock> {
        self.fanout.subscribe()
    }

    fn shutdown(&self) {
        self.mempool.close();
        self.driver.state.lock().stopped = true;
        self.driver.wake.notify_all();
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<N: Core> Drop for BftEngine<N> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use crate::pbft::{self, PbftConfig};
    use crate::tendermint::{self, TendermintConfig};
    use crate::traits::OrderedBlock;
    use sebdb_crypto::sig::KeyId;
    use sebdb_network::sim::{EventLoop, NetConfig, Node};
    use sebdb_types::{Codec, Transaction, Value};
    use std::time::Duration;

    /// Feeds `batches` (time, txs) and runs the virtual clock until the
    /// cluster is idle; returns node `canonical`'s stream as bytes.
    fn stream<N>(mut net: EventLoop<N>, batches: &[(u64, Vec<Transaction>)]) -> Vec<u8>
    where
        N: Node<Batch = Vec<Transaction>, Delivery = OrderedBlock>,
    {
        for (at, txs) in batches {
            net.push_batch(*at, txs.clone());
        }
        let mut blocks = Vec::new();
        while let Some(delivered) = net.advance() {
            blocks.extend(delivered.into_iter().filter(|(id, _)| *id == 0));
        }
        assert_eq!(blocks.len(), batches.len(), "every batch commits");
        let mut bytes = Vec::new();
        for (_, b) in blocks {
            bytes.extend(b.seq.to_le_bytes());
            bytes.extend(b.timestamp_ms.to_le_bytes());
            for tx in &b.txs {
                bytes.extend(tx.to_bytes());
            }
        }
        bytes
    }

    #[test]
    fn one_seed_delivers_byte_identical_streams() {
        let batches: Vec<(u64, Vec<Transaction>)> = (0..6)
            .map(|b| {
                let txs = (0..3)
                    .map(|i| {
                        let mut tx = Transaction::new(
                            1_000 + b,
                            KeyId([9; 8]),
                            "donate",
                            vec![Value::Int((b * 3 + i) as i64)],
                        );
                        tx.tid = b * 3 + i + 1;
                        tx
                    })
                    .collect();
                (b * 40, txs)
            })
            .collect();
        let net = NetConfig {
            latency: Duration::from_millis(3),
            seed: 42,
            ..NetConfig::default()
        };
        let pbft = || {
            pbft::cluster(&PbftConfig {
                byzantine: vec![2],
                net: net.clone(),
                ..PbftConfig::default()
            })
        };
        // Validator 1 proposes height 1 round 0: that height rotates.
        let tendermint = || {
            tendermint::cluster(&TendermintConfig {
                down: vec![1],
                net: net.clone(),
                ..TendermintConfig::default()
            })
        };
        assert_eq!(stream(pbft(), &batches), stream(pbft(), &batches));
        assert_eq!(
            stream(tendermint(), &batches),
            stream(tendermint(), &batches)
        );
    }
}
