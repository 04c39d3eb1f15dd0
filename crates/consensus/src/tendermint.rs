//! Tendermint-style round-based BFT.
//!
//! Models the paper's Tendermint 0.19 deployment (§VII-B). Validators
//! rotate the proposer per round; each height runs
//! Propose → Prevote → Precommit with ⌈2n/3⌉+ quorums, advancing to the
//! next round (with the next proposer) on timeout. Transactions pass
//! through a *serial* CheckTx before entering the mempool — the paper's
//! explanation for Tendermint's limited throughput ("each transaction
//! … is first checked by and then delivered to SEBDB in a serial
//! manner, which is a slow process"). The per-transaction check cost
//! is configurable so the Fig. 7 harness can reproduce that shape.
//!
//! [`TendermintConfig::batched_checktx`] switches admission to the
//! shared coalescing [`Mempool`] the Kafka and PBFT engines use:
//! submitters enqueue into the condvar-guarded buffer, and one
//! admission thread drains whole batches — MAC checks fanned across
//! workers via [`Mempool::admit`], the modeled CheckTx overhead paid
//! once per batch instead of once per transaction. That is the
//! "what-if" counterpart to the serial reproduction: all three
//! consensus modes then feed the write pipeline through batch
//! admission.
//!
//! Scope note: value locking (the POL rule) is omitted — with honest
//! validators and a reliable simulated network, a round either commits
//! one proposal or advances with nil votes, so safety is preserved for
//! the configurations exercised here.

use crate::mempool::{AdmissionVerifier, Mempool};
use crate::traits::{now_ms, BatchConfig, CommitAck, Consensus, ConsensusError, OrderedBlock};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_network::sim::{NetConfig, NodeId, SimNet};
use sebdb_types::{Codec, Transaction};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type AckSender = Sender<Result<CommitAck, ConsensusError>>;

/// Tendermint protocol messages.
#[derive(Debug, Clone)]
pub enum TmMsg {
    /// Proposer → all: the proposed block for (height, round).
    Proposal {
        /// Consensus height (= block seq).
        height: u64,
        /// Round within the height.
        round: u32,
        /// Proposed block.
        block: OrderedBlock,
    },
    /// Validator → all: prevote (`None` = nil).
    Prevote {
        /// Height.
        height: u64,
        /// Round.
        round: u32,
        /// Voted digest, or nil.
        digest: Option<Digest>,
    },
    /// Validator → all: precommit (`None` = nil).
    Precommit {
        /// Height.
        height: u64,
        /// Round.
        round: u32,
        /// Voted digest, or nil.
        digest: Option<Digest>,
    },
}

fn msg_height(msg: &TmMsg) -> u64 {
    match msg {
        TmMsg::Proposal { height, .. }
        | TmMsg::Prevote { height, .. }
        | TmMsg::Precommit { height, .. } => *height,
    }
}

fn block_digest(block: &OrderedBlock) -> Digest {
    let mut h = Sha256::new();
    h.update(&block.seq.to_le_bytes());
    for tx in &block.txs {
        h.update(&tx.to_bytes());
    }
    h.finalize()
}

/// Tendermint engine configuration.
#[derive(Debug, Clone)]
pub struct TendermintConfig {
    /// Packaging policy (the paper sets the packaging block size to
    /// 10 000 so blocks cut on timeout under light load).
    pub batch: BatchConfig,
    /// Validator count (quorum is ⌈2n/3⌉+).
    pub validators: usize,
    /// Network behaviour between validators.
    pub net: NetConfig,
    /// Per-step timeout.
    pub step_timeout: Duration,
    /// Serial CheckTx cost per transaction, in microseconds (on top of
    /// the real hash verification) — models Tendermint's admission
    /// path.
    pub checktx_cost_us: u64,
    /// Admit through the shared coalescing [`Mempool`] instead of the
    /// serial per-transaction CheckTx thread: batches drain at the
    /// packaging cut, MAC checks run across workers, and the modeled
    /// CheckTx overhead is paid once per batch. `false` preserves the
    /// paper's serial admission (the Fig. 7 bottleneck).
    pub batched_checktx: bool,
    /// Validators that never start (liveness fault injection).
    pub down: Vec<NodeId>,
}

impl Default for TendermintConfig {
    fn default() -> Self {
        TendermintConfig {
            batch: BatchConfig {
                max_txs: 10_000,
                timeout_ms: 200,
            },
            validators: 4,
            net: NetConfig::default(),
            step_timeout: Duration::from_millis(150),
            checktx_cost_us: 0,
            batched_checktx: false,
            down: Vec::new(),
        }
    }
}

/// The modeled CheckTx admission overhead (the only wall-clock pause
/// in this engine): the serial path pays it once per transaction, the
/// batched path once per drained batch. The pause is a timed wait on a
/// never-notified condvar — a pure deadline, not a poll; waiters park
/// in parallel (the mutex is released while parked), and spurious
/// wakeups loop until the deadline passes.
fn checktx_pause(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    static PAUSE: std::sync::OnceLock<(Mutex<()>, parking_lot::Condvar)> =
        std::sync::OnceLock::new();
    let (lock, cv) = PAUSE.get_or_init(|| (Mutex::new(()), parking_lot::Condvar::new()));
    let deadline = std::time::Instant::now() + cost;
    let mut guard = lock.lock();
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() || cv.wait_for(&mut guard, remaining).timed_out() {
            return;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Propose,
    Prevote,
    Precommit,
}

struct HeightState {
    proposals: HashMap<u32, OrderedBlock>,
    prevotes: HashMap<(u32, Option<Digest>), HashSet<NodeId>>,
    precommits: HashMap<(u32, Option<Digest>), HashSet<NodeId>>,
    sent_prevote: HashSet<u32>,
    sent_precommit: HashSet<u32>,
}

impl HeightState {
    fn new() -> Self {
        HeightState {
            proposals: HashMap::new(),
            prevotes: HashMap::new(),
            precommits: HashMap::new(),
            sent_prevote: HashSet::new(),
            sent_precommit: HashSet::new(),
        }
    }
}

struct Validator {
    id: NodeId,
    n: usize,
    net: Arc<SimNet<TmMsg>>,
    inbox: Receiver<sebdb_network::sim::Envelope<TmMsg>>,
    mempool: Arc<Mutex<VecDeque<Transaction>>>,
    batch: BatchConfig,
    step_timeout: Duration,
    height: u64,
    round: u32,
    step: Step,
    deadline: Instant,
    state: HeightState,
    deliveries: Sender<(NodeId, OrderedBlock)>,
    stopped: Arc<AtomicBool>,
    /// When the current head of the mempool first became visible —
    /// drives the packaging timeout.
    batch_started: Option<Instant>,
    /// Messages for the *next* height, parked until we commit the
    /// current one. A peer that commits height H first may drain the
    /// shared mempool and broadcast its (H+1, 0) proposal while we are
    /// still finishing H; the network delivers exactly once, so
    /// dropping that proposal loses the only copy of the block (the
    /// mempool is already empty, it can never be re-proposed) and
    /// halts the chain. Skew never exceeds one height: every quorum
    /// needs our vote, so peers cannot commit H+1 before we reach it.
    parked: Vec<(NodeId, TmMsg)>,
}

impl Validator {
    fn quorum(&self) -> usize {
        2 * self.n / 3 + 1
    }

    fn proposer_of(&self, height: u64, round: u32) -> NodeId {
        ((height + round as u64) % self.n as u64) as NodeId
    }

    fn run(mut self) {
        self.deadline = Instant::now() + self.step_timeout;
        while !self.stopped.load(Ordering::Relaxed) {
            self.maybe_propose();
            let wait = self
                .deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(5));
            match self.inbox.recv_timeout(wait) {
                Ok(env) => self.handle(env.from, env.msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            self.on_deadline();
        }
    }

    fn broadcast_and_self(&mut self, msg: TmMsg) {
        self.net.broadcast(self.id, msg.clone());
        self.handle(self.id, msg);
    }

    /// If we are the proposer of the current round and have not yet
    /// proposed, cut a batch when it is full or the packaging timeout
    /// has elapsed.
    fn maybe_propose(&mut self) {
        if self.step != Step::Propose
            || self.proposer_of(self.height, self.round) != self.id
            || self.state.proposals.contains_key(&self.round)
        {
            return;
        }
        if let Some(block) = self.holdover_proposal() {
            let (height, round) = (self.height, self.round);
            self.broadcast_and_self(TmMsg::Proposal {
                height,
                round,
                block,
            });
            return;
        }
        let ready = {
            let pool = self.mempool.lock();
            if pool.is_empty() {
                self.batch_started = None;
                false
            } else {
                if self.batch_started.is_none() {
                    self.batch_started = Some(Instant::now());
                }
                pool.len() >= self.batch.max_txs
                    || self.batch_started.is_some_and(|s| {
                        s.elapsed() >= Duration::from_millis(self.batch.timeout_ms)
                    })
            }
        };
        if !ready {
            return;
        }
        let txs: Vec<Transaction> = {
            let mut pool = self.mempool.lock();
            let take = pool.len().min(self.batch.max_txs);
            pool.drain(..take).collect()
        };
        self.batch_started = None;
        let block = OrderedBlock {
            seq: self.height,
            timestamp_ms: now_ms(),
            txs,
        };
        let (height, round) = (self.height, self.round);
        self.broadcast_and_self(TmMsg::Proposal {
            height,
            round,
            block,
        });
    }

    /// The latest proposal held from an earlier round of this height.
    /// Its transactions were already drained from the shared mempool
    /// when it was first proposed, so if its round failed (prevotes
    /// split because some validators saw the proposal only after
    /// advancing) the block must be proposed *again* — a fresh round's
    /// proposer finds the mempool empty and has nothing else to offer;
    /// without re-proposal the chain halts. This is the role
    /// Tendermint's validValue plays.
    fn holdover_proposal(&self) -> Option<OrderedBlock> {
        self.state
            .proposals
            .iter()
            .filter(|(r, _)| **r < self.round)
            .max_by_key(|(r, _)| **r)
            .map(|(_, b)| b.clone())
    }

    fn handle(&mut self, from: NodeId, msg: TmMsg) {
        if msg_height(&msg) == self.height + 1 {
            self.parked.push((from, msg));
            return;
        }
        match msg {
            TmMsg::Proposal {
                height,
                round,
                block,
            } => {
                if height != self.height || from != self.proposer_of(height, round) {
                    return;
                }
                if block.seq != height {
                    return;
                }
                let digest = block_digest(&block);
                self.state.proposals.insert(round, block);
                // Prevote for the proposal if we haven't voted this round.
                if round == self.round && self.state.sent_prevote.insert(round) {
                    self.step = Step::Prevote;
                    self.deadline = Instant::now() + self.step_timeout;
                    self.broadcast_and_self(TmMsg::Prevote {
                        height,
                        round,
                        digest: Some(digest),
                    });
                }
                // Votes may have raced ahead of the proposal; re-check.
                self.check_prevote_quorum(round);
                self.check_precommit_quorum(round);
            }
            TmMsg::Prevote {
                height,
                round,
                digest,
            } => {
                if height != self.height {
                    return;
                }
                self.state
                    .prevotes
                    .entry((round, digest))
                    .or_default()
                    .insert(from);
                self.check_prevote_quorum(round);
            }
            TmMsg::Precommit {
                height,
                round,
                digest,
            } => {
                if height != self.height {
                    return;
                }
                self.state
                    .precommits
                    .entry((round, digest))
                    .or_default()
                    .insert(from);
                self.check_precommit_quorum(round);
            }
        }
    }

    fn check_prevote_quorum(&mut self, round: u32) {
        if round != self.round || self.state.sent_precommit.contains(&round) {
            return;
        }
        let quorum = self.quorum();
        // Quorum for a concrete digest → precommit it.
        let hit: Option<Option<Digest>> = self
            .state
            .prevotes
            .iter()
            .find(|((r, d), votes)| *r == round && d.is_some() && votes.len() >= quorum)
            .map(|((_, d), _)| *d);
        let nil_quorum = self
            .state
            .prevotes
            .get(&(round, None))
            .is_some_and(|v| v.len() >= quorum);
        let vote = if let Some(d) = hit {
            Some(d)
        } else if nil_quorum {
            Some(None)
        } else {
            None
        };
        if let Some(digest) = vote {
            self.state.sent_precommit.insert(round);
            self.step = Step::Precommit;
            self.deadline = Instant::now() + self.step_timeout;
            let height = self.height;
            self.broadcast_and_self(TmMsg::Precommit {
                height,
                round,
                digest,
            });
        }
    }

    fn check_precommit_quorum(&mut self, round: u32) {
        let quorum = self.quorum();
        // Commit on a digest quorum at any round of this height.
        let hit: Option<Digest> = self
            .state
            .precommits
            .iter()
            .find(|((r, d), votes)| *r == round && d.is_some() && votes.len() >= quorum)
            .and_then(|((_, d), _)| *d);
        if let Some(digest) = hit {
            // We must hold the matching proposal to apply it.
            let block = self
                .state
                .proposals
                .get(&round)
                .filter(|b| block_digest(b) == digest)
                .cloned();
            if let Some(block) = block {
                let _ = self.deliveries.send((self.id, block));
                self.height += 1;
                self.round = 0;
                self.step = Step::Propose;
                self.state = HeightState::new();
                self.deadline = Instant::now() + self.step_timeout;
                // Replay messages that arrived for this (now current)
                // height while we were still committing the previous
                // one. A replayed quorum may commit again recursively;
                // parked entries are all at the new height, so the
                // recursion depth is bounded by one.
                for (from, msg) in std::mem::take(&mut self.parked) {
                    self.handle(from, msg);
                }
                return;
            }
        }
        // Nil quorum at our round → next round, next proposer.
        if round == self.round
            && self
                .state
                .precommits
                .get(&(round, None))
                .is_some_and(|v| v.len() >= quorum)
        {
            self.advance_round();
        }
    }

    fn on_deadline(&mut self) {
        if Instant::now() < self.deadline {
            return;
        }
        let (height, round) = (self.height, self.round);
        match self.step {
            Step::Propose => {
                // No proposal in time → prevote nil. Only when there is
                // traffic waiting; otherwise stay idle in Propose.
                let has_traffic = !self.mempool.lock().is_empty()
                    || !self.state.proposals.is_empty()
                    || !self.state.prevotes.is_empty();
                if has_traffic && self.state.sent_prevote.insert(round) {
                    self.step = Step::Prevote;
                    self.broadcast_and_self(TmMsg::Prevote {
                        height,
                        round,
                        digest: None,
                    });
                }
                self.deadline = Instant::now() + self.step_timeout;
            }
            Step::Prevote => {
                if self.state.sent_precommit.insert(round) {
                    self.step = Step::Precommit;
                    self.broadcast_and_self(TmMsg::Precommit {
                        height,
                        round,
                        digest: None,
                    });
                }
                self.deadline = Instant::now() + self.step_timeout;
            }
            Step::Precommit => {
                self.advance_round();
            }
        }
    }

    fn advance_round(&mut self) {
        self.round += 1;
        self.step = Step::Propose;
        self.deadline = Instant::now() + self.step_timeout;
        // The new round's proposal (and even its votes) may have raced
        // ahead of our round change — we stored them but, being in an
        // older round, never voted. Vote now, or the round's digest
        // quorum is one vote short forever (every quorum needs us when
        // one validator of four is down).
        if let Some(digest) = self.state.proposals.get(&self.round).map(block_digest) {
            if self.state.sent_prevote.insert(self.round) {
                self.step = Step::Prevote;
                let (height, round) = (self.height, self.round);
                self.broadcast_and_self(TmMsg::Prevote {
                    height,
                    round,
                    digest: Some(digest),
                });
            }
            self.check_prevote_quorum(self.round);
            self.check_precommit_quorum(self.round);
        }
    }
}

struct TmShared {
    subscribers: Mutex<Vec<Sender<OrderedBlock>>>,
    acks: Mutex<HashMap<u64, AckSender>>,
    stopped: Arc<AtomicBool>,
}

/// The Tendermint-style consensus engine.
pub struct TendermintEngine {
    submit_tx: Sender<(Transaction, AckSender)>,
    /// The shared coalescing ingest pool — `Some` only under
    /// [`TendermintConfig::batched_checktx`].
    ingest: Option<Arc<Mempool>>,
    shared: Arc<TmShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TendermintEngine {
    /// Starts the validators, the CheckTx admission thread (serial or
    /// batched per the config), and the delivery fan-out.
    pub fn start(config: TendermintConfig) -> Arc<Self> {
        let n = config.validators;
        assert!(n >= 1);
        let net: Arc<SimNet<TmMsg>> = SimNet::new(config.net.clone());
        let stopped = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(TmShared {
            subscribers: Mutex::new(Vec::new()),
            acks: Mutex::new(HashMap::new()),
            stopped: Arc::clone(&stopped),
        });
        let mempool = Arc::new(Mutex::new(VecDeque::new()));
        let (deliver_tx, deliver_rx) = unbounded::<(NodeId, OrderedBlock)>();
        let mut threads = Vec::new();

        let mut endpoints = Vec::new();
        for _ in 0..n {
            endpoints.push(net.register());
        }
        for (id, inbox) in endpoints {
            if config.down.contains(&id) {
                continue; // faulty validator never starts
            }
            let v = Validator {
                id,
                n,
                net: Arc::clone(&net),
                inbox,
                mempool: Arc::clone(&mempool),
                batch: config.batch,
                step_timeout: config.step_timeout,
                height: 0,
                round: 0,
                step: Step::Propose,
                deadline: Instant::now(),
                state: HeightState::new(),
                deliveries: deliver_tx.clone(),
                stopped: Arc::clone(&stopped),
                batch_started: None,
                parked: Vec::new(),
            };
            threads.push(sebdb_parallel::spawn_service("tm-validator", move || {
                v.run()
            }));
        }
        drop(deliver_tx);

        // CheckTx + mempool admission: serial per-transaction (the
        // paper's reproduction) or batched through the shared Mempool.
        let (submit_tx, submit_rx) = unbounded::<(Transaction, AckSender)>();
        let cost = Duration::from_micros(config.checktx_cost_us);
        let ingest = if config.batched_checktx {
            let pool = Arc::new(Mempool::new(config.batch));
            let mempool = Arc::clone(&mempool);
            let shared = Arc::clone(&shared);
            let batch_pool = Arc::clone(&pool);
            drop(submit_rx); // batched mode never uses the serial lane
            threads.push(sebdb_parallel::spawn_service(
                "tm-checktx-batch",
                move || {
                    let mut next_tid: u64 = 1;
                    while let Some(batch) = batch_pool.next_batch() {
                        // Batch MAC admission across workers (no-op until a
                        // verifier is installed), then one amortized
                        // CheckTx pause for the whole batch — the serial
                        // path pays it per transaction.
                        let batch = batch_pool.admit(batch);
                        checktx_pause(cost);
                        for (mut tx, ack) in batch {
                            if tx.tname.is_empty() {
                                let _ = ack.send(Err(ConsensusError::Rejected(
                                    "empty transaction type".into(),
                                )));
                                continue;
                            }
                            let _ = tx.hash();
                            tx.tid = next_tid;
                            next_tid += 1;
                            shared.acks.lock().insert(tx.tid, ack);
                            mempool.lock().push_back(tx);
                        }
                    }
                    // Pool closed: refuse whatever never made a batch.
                    for (_tx, ack) in batch_pool.take_remaining() {
                        let _ = ack.send(Err(ConsensusError::Stopped));
                    }
                },
            ));
            Some(pool)
        } else {
            let mempool = Arc::clone(&mempool);
            let shared = Arc::clone(&shared);
            let stopped = Arc::clone(&stopped);
            threads.push(sebdb_parallel::spawn_service("tm-checktx", move || {
                let mut next_tid: u64 = 1;
                loop {
                    if stopped.load(Ordering::Relaxed) {
                        return;
                    }
                    match submit_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok((mut tx, ack)) => {
                            // CheckTx: re-encode and hash (real work),
                            // reject empty types.
                            if tx.tname.is_empty() {
                                let _ = ack.send(Err(ConsensusError::Rejected(
                                    "empty transaction type".into(),
                                )));
                                continue;
                            }
                            let _ = tx.hash();
                            checktx_pause(cost);
                            tx.tid = next_tid;
                            next_tid += 1;
                            shared.acks.lock().insert(tx.tid, ack);
                            mempool.lock().push_back(tx);
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            }));
            None
        };

        // Delivery fan-out: the lowest-id live validator's stream.
        let canonical: NodeId = (0..n).find(|id| !config.down.contains(id)).unwrap_or(0);
        {
            let shared = Arc::clone(&shared);
            threads.push(sebdb_parallel::spawn_service("tm-deliver", move || {
                for (validator, block) in deliver_rx.iter() {
                    if validator != canonical {
                        continue;
                    }
                    for sub in shared.subscribers.lock().iter() {
                        let _ = sub.send(block.clone());
                    }
                    let mut acks = shared.acks.lock();
                    for tx in &block.txs {
                        if let Some(ack) = acks.remove(&tx.tid) {
                            let _ = ack.send(Ok(CommitAck {
                                tid: tx.tid,
                                seq: block.seq,
                            }));
                        }
                    }
                }
            }));
        }

        Arc::new(TendermintEngine {
            submit_tx,
            ingest,
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// Installs (or clears) the batch admission MAC verifier. Only
    /// effective under [`TendermintConfig::batched_checktx`] — the
    /// serial reproduction checks hashes only, as the paper describes.
    pub fn set_tx_verifier(&self, verifier: Option<Box<AdmissionVerifier>>) {
        if let Some(ingest) = &self.ingest {
            ingest.set_verifier(verifier);
        }
    }
}

impl Consensus for TendermintEngine {
    fn submit(&self, tx: Transaction) -> Receiver<Result<CommitAck, ConsensusError>> {
        if let Some(ingest) = &self.ingest {
            return ingest.submit(tx);
        }
        let (ack_tx, ack_rx) = bounded(1);
        if self.submit_tx.send((tx, ack_tx.clone())).is_err() {
            let _ = ack_tx.send(Err(ConsensusError::Stopped));
        }
        ack_rx
    }

    fn subscribe(&self) -> Receiver<OrderedBlock> {
        let (tx, rx) = unbounded();
        self.shared.subscribers.lock().push(tx);
        rx
    }

    fn shutdown(&self) {
        self.shared.stopped.store(true, Ordering::Relaxed);
        if let Some(ingest) = &self.ingest {
            ingest.close();
        }
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }

    fn name(&self) -> &'static str {
        "tendermint"
    }
}

impl Drop for TendermintEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::Value;

    fn tx(i: i64) -> Transaction {
        Transaction::new(now_ms(), KeyId([3; 8]), "donate", vec![Value::Int(i)])
    }

    fn quick() -> TendermintConfig {
        TendermintConfig {
            batch: BatchConfig {
                max_txs: 4,
                timeout_ms: 30,
            },
            step_timeout: Duration::from_millis(100),
            ..TendermintConfig::default()
        }
    }

    #[test]
    fn commits_a_block() {
        let e = TendermintEngine::start(quick());
        let sub = e.subscribe();
        let acks: Vec<_> = (0..4).map(|i| e.submit(tx(i))).collect();
        let block = sub.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(block.seq, 0);
        assert_eq!(block.txs.len(), 4);
        for a in acks {
            assert!(a.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        }
        e.shutdown();
    }

    #[test]
    fn heights_advance_sequentially() {
        let e = TendermintEngine::start(quick());
        let sub = e.subscribe();
        for i in 0..12 {
            e.submit(tx(i));
        }
        let mut seqs = Vec::new();
        let mut total = 0;
        while total < 12 {
            let b = sub.recv_timeout(Duration::from_secs(10)).unwrap();
            total += b.txs.len();
            seqs.push(b.seq);
        }
        let want: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, want);
        e.shutdown();
    }

    #[test]
    fn checktx_rejects_bad_transactions() {
        let e = TendermintEngine::start(quick());
        let mut bad = tx(1);
        bad.tname = String::new();
        let ack = e.submit(bad);
        match ack.recv_timeout(Duration::from_secs(5)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        e.shutdown();
    }

    #[test]
    fn batched_checktx_commits_blocks_and_acks() {
        let e = TendermintEngine::start(TendermintConfig {
            batched_checktx: true,
            ..quick()
        });
        let sub = e.subscribe();
        let acks: Vec<_> = (0..8).map(|i| e.submit(tx(i))).collect();
        let mut total = 0;
        let mut seqs = Vec::new();
        while total < 8 {
            let b = sub.recv_timeout(Duration::from_secs(10)).unwrap();
            total += b.txs.len();
            seqs.push(b.seq);
        }
        let want: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, want, "batched admission must preserve ordering");
        for a in acks {
            assert!(a.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        }
        e.shutdown();
    }

    #[test]
    fn batched_checktx_rejects_bad_transactions() {
        let e = TendermintEngine::start(TendermintConfig {
            batched_checktx: true,
            ..quick()
        });
        let mut bad = tx(1);
        bad.tname = String::new();
        let ack = e.submit(bad);
        match ack.recv_timeout(Duration::from_secs(5)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        e.shutdown();
    }

    #[test]
    fn batched_checktx_verifier_rejects_forged_macs() {
        use sebdb_crypto::sig::{MacKeypair, Signer, Verifier};
        let keys = MacKeypair::from_key([6u8; 32]);
        let e = TendermintEngine::start(TendermintConfig {
            batched_checktx: true,
            ..quick()
        });
        let verify_keys = keys.clone();
        e.set_tx_verifier(Some(Box::new(move |tx: &Transaction| {
            sebdb_crypto::sig::Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| verify_keys.verify(&tx.signing_payload(), &sig))
        })));
        let sub = e.subscribe();
        let mut acks = Vec::new();
        for i in 0..4 {
            let mut t = tx(i);
            if i != 2 {
                t.sig = keys.sign(&t.signing_payload()).to_bytes();
            } // tx 2 keeps a forged (empty) signature
            acks.push(e.submit(t));
        }
        match acks
            .remove(2)
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
        {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("expected MAC rejection, got {other:?}"),
        }
        let mut total = 0;
        while total < 3 {
            total += sub.recv_timeout(Duration::from_secs(10)).unwrap().txs.len();
        }
        for a in acks {
            assert!(a.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        }
        e.shutdown();
    }

    #[test]
    fn survives_a_down_proposer_via_round_rotation() {
        // Validator 0 proposes height 0; validator 1 would propose
        // height 1 round 0 but is down — round rotation must hand the
        // proposal to validator 2.
        let e = TendermintEngine::start(TendermintConfig {
            down: vec![1],
            ..quick()
        });
        let sub = e.subscribe();
        for i in 0..8 {
            e.submit(tx(i));
        }
        let mut total = 0;
        while total < 8 {
            // Generous deadline: every height-1 round-0 step has to
            // burn the full step_timeout before rotation kicks in, and
            // instrumented CI passes (lock-order tracking) on a loaded
            // 1-CPU host have blown a 20 s budget before.
            let b = sub.recv_timeout(Duration::from_secs(60)).unwrap();
            total += b.txs.len();
        }
        e.shutdown();
    }

    #[test]
    fn parks_next_height_messages_during_commit_skew() {
        // Peers that commit height 0 first can drain the shared mempool
        // and broadcast the whole height-1 exchange (proposal + votes)
        // before this validator finishes height 0. Delivery is
        // exactly-once, so if those messages were dropped the height-1
        // block could never be re-proposed (mempool already empty) and
        // the chain would halt. They must be parked and replayed after
        // our own commit.
        let net: Arc<SimNet<TmMsg>> = SimNet::new(NetConfig::default());
        let endpoints: Vec<_> = (0..4).map(|_| net.register()).collect();
        let inbox = endpoints.into_iter().nth(3).unwrap().1;
        let (deliver_tx, deliver_rx) = unbounded();
        let mut v = Validator {
            id: 3,
            n: 4,
            net,
            inbox,
            mempool: Arc::new(Mutex::new(VecDeque::new())),
            batch: quick().batch,
            step_timeout: Duration::from_millis(100),
            height: 0,
            round: 0,
            step: Step::Propose,
            // Far future: this test drives `handle` directly and no
            // step deadline may interfere.
            deadline: Instant::now() + Duration::from_secs(3600),
            state: HeightState::new(),
            deliveries: deliver_tx,
            stopped: Arc::new(AtomicBool::new(false)),
            batch_started: None,
            parked: Vec::new(),
        };
        let block = |seq: u64| OrderedBlock {
            seq,
            timestamp_ms: 1 + seq,
            txs: vec![tx(seq as i64)],
        };
        let (b0, b1) = (block(0), block(1));
        let (d0, d1) = (block_digest(&b0), block_digest(&b1));

        // Height 0 up to the precommit: proposer 0's block, then a
        // prevote quorum ({0, 1} + our own) makes us precommit d0.
        v.handle(
            0,
            TmMsg::Proposal {
                height: 0,
                round: 0,
                block: b0,
            },
        );
        for peer in [0, 1] {
            v.handle(
                peer,
                TmMsg::Prevote {
                    height: 0,
                    round: 0,
                    digest: Some(d0),
                },
            );
        }
        assert_eq!(v.height, 0);

        // The skew: peers 1 and 2 already committed height 0 and run
        // the entire height-1 round before we see their height-0
        // precommits. Every one of these must be parked, not dropped.
        v.handle(
            1, // proposer_of(1, 0) == 1
            TmMsg::Proposal {
                height: 1,
                round: 0,
                block: b1,
            },
        );
        for peer in [1, 2] {
            v.handle(
                peer,
                TmMsg::Prevote {
                    height: 1,
                    round: 0,
                    digest: Some(d1),
                },
            );
            v.handle(
                peer,
                TmMsg::Precommit {
                    height: 1,
                    round: 0,
                    digest: Some(d1),
                },
            );
        }
        assert_eq!(v.height, 0, "future-height messages must not apply early");
        assert_eq!(v.parked.len(), 5);

        // The late height-0 precommits arrive: we commit height 0, the
        // parked height-1 exchange replays, and with our prevote and
        // precommit added it commits height 1 too — no new network
        // traffic needed.
        for peer in [0, 1] {
            v.handle(
                peer,
                TmMsg::Precommit {
                    height: 0,
                    round: 0,
                    digest: Some(d0),
                },
            );
        }
        assert_eq!(v.height, 2);
        assert!(v.parked.is_empty());
        let seqs: Vec<u64> = deliver_rx.try_iter().map(|(_, b)| b.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    /// A bare validator for driving `handle`/`maybe_propose` directly.
    fn bare_validator(id: NodeId) -> (Validator, Receiver<(NodeId, OrderedBlock)>) {
        let net: Arc<SimNet<TmMsg>> = SimNet::new(NetConfig::default());
        let mut inboxes: Vec<_> = (0..4).map(|_| net.register().1).collect();
        let (deliver_tx, deliver_rx) = unbounded();
        let v = Validator {
            id,
            n: 4,
            net,
            inbox: inboxes.remove(id),
            mempool: Arc::new(Mutex::new(VecDeque::new())),
            batch: quick().batch,
            step_timeout: Duration::from_millis(100),
            height: 0,
            round: 0,
            step: Step::Propose,
            deadline: Instant::now() + Duration::from_secs(3600),
            state: HeightState::new(),
            deliveries: deliver_tx,
            stopped: Arc::new(AtomicBool::new(false)),
            batch_started: None,
            parked: Vec::new(),
        };
        std::mem::forget(inboxes); // keep peer mailboxes alive
        (v, deliver_rx)
    }

    #[test]
    fn votes_for_a_proposal_that_raced_ahead_of_the_round_change() {
        // The round-1 proposal (and its votes) can arrive while we are
        // still finishing round 0. We store it but must not stay
        // silent after advancing: without our vote the round-1 digest
        // quorum is one short forever (quorum 3 of 3 live validators),
        // and once the shared mempool is drained no later round can
        // propose anything — the chain halts.
        let (mut v, deliver_rx) = bare_validator(3);
        let b = OrderedBlock {
            seq: 0,
            timestamp_ms: 1,
            txs: vec![tx(7)],
        };
        let d = block_digest(&b);
        // Round 1 runs in full at peers 1 and 2 while we sit in round 0.
        v.handle(
            1, // proposer_of(0, 1) == 1
            TmMsg::Proposal {
                height: 0,
                round: 1,
                block: b,
            },
        );
        for peer in [1, 2] {
            v.handle(
                peer,
                TmMsg::Prevote {
                    height: 0,
                    round: 1,
                    digest: Some(d),
                },
            );
            v.handle(
                peer,
                TmMsg::Precommit {
                    height: 0,
                    round: 1,
                    digest: Some(d),
                },
            );
        }
        assert_eq!(
            v.round, 0,
            "future-round messages are recorded, not acted on"
        );
        // Round 0 dies with a nil precommit quorum; advancing must
        // vote for the held round-1 proposal, completing both quorums
        // and committing without any further network traffic.
        for peer in [0, 2, 3] {
            v.handle(
                peer,
                TmMsg::Precommit {
                    height: 0,
                    round: 0,
                    digest: None,
                },
            );
        }
        assert_eq!(v.height, 1, "held proposal must commit after advance");
        let seqs: Vec<u64> = deliver_rx.try_iter().map(|(_, b)| b.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn proposer_reproposes_the_held_block_when_the_mempool_is_empty() {
        // A failed round's block drained the shared mempool when it
        // was first cut; the next rounds' proposers find the pool
        // empty. They must re-propose the held block (validValue) or
        // nothing can ever commit again.
        let (mut v, _deliver_rx) = bare_validator(2); // proposer_of(0, 2) == 2
        let b = OrderedBlock {
            seq: 0,
            timestamp_ms: 1,
            txs: vec![tx(9)],
        };
        let d = block_digest(&b);
        v.handle(
            1, // proposer_of(0, 1) == 1
            TmMsg::Proposal {
                height: 0,
                round: 1,
                block: b,
            },
        );
        v.round = 2; // round 1 failed; we now lead round 2
        v.maybe_propose();
        let reproposed = v
            .state
            .proposals
            .get(&2)
            .expect("block re-proposed at round 2");
        assert_eq!(block_digest(reproposed), d);
        assert!(
            v.state.sent_prevote.contains(&2),
            "proposer prevotes its own re-proposal"
        );
    }
}
