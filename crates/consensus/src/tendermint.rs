//! Tendermint-style round-based BFT as a sans-I/O core.
//!
//! Models the paper's Tendermint 0.19 deployment (§VII-B). Validators
//! rotate the proposer per round; each height runs
//! Propose → Prevote → Precommit with ⌈2n/3⌉+ quorums, advancing to the
//! next round (with the next proposer) on timeout. Transactions pass
//! through a *serial* CheckTx before entering the shared [`Mempool`] —
//! the paper's explanation for Tendermint's limited throughput ("each
//! transaction … is first checked by and then delivered to SEBDB in a
//! serial manner, which is a slow process"). The per-transaction check
//! cost is configurable so the Fig. 7 harness can reproduce that shape.
//! The mempool cuts batches as it does for Kafka and PBFT; every live
//! validator queues each admitted batch, and height `h` commits the
//! `h`-th. A [`Validator`] holds no clock, thread or channel: the event
//! loop steps it, and its step timeouts are [`Output::Timer`]s.
//!
//! Scope note: value locking (the POL rule) is omitted — with honest
//! validators and a reliable simulated network, a round either commits
//! one proposal or advances with nil votes, so safety is preserved for
//! the configurations exercised here.
//!
//! [`Mempool`]: crate::mempool::Mempool

use crate::engine::BftEngine;
use crate::traits::{BatchConfig, OrderedBlock};
use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_network::sim::{EventLoop, Input, NetConfig, Node, NodeId, Output};
use sebdb_types::{Codec, Transaction};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

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

type Out = Output<TmMsg, OrderedBlock>;

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
            down: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Propose,
    Prevote,
    Precommit,
}

#[derive(Default)]
struct HeightState {
    proposals: HashMap<u32, OrderedBlock>,
    prevotes: HashMap<(u32, Option<Digest>), HashSet<NodeId>>,
    precommits: HashMap<(u32, Option<Digest>), HashSet<NodeId>>,
    sent_prevote: HashSet<u32>,
    sent_precommit: HashSet<u32>,
}

/// One Tendermint validator.
pub struct Validator {
    id: NodeId,
    n: usize,
    step_timeout_ms: u64,
    /// The time of the step in progress.
    now: u64,
    height: u64,
    round: u32,
    step: Step,
    /// When the current step times out; `None` while idle in Propose
    /// with nothing to order.
    deadline: Option<u64>,
    state: HeightState,
    /// Admitted batches not yet committed, in admission order. Every live
    /// validator is handed each batch at the same instant, so every queue
    /// is the same and height `h` commits batch `h`.
    pending: VecDeque<Vec<Transaction>>,
    /// Messages for the *next* height, parked until we commit the
    /// current one. A peer that commits height H first may propose
    /// (H+1, 0) and run its votes while we are still finishing H; the
    /// network delivers exactly once, so dropping them loses the only
    /// copy of that round and halts the chain. Skew never exceeds one
    /// height: every quorum needs our vote, so peers cannot commit H+1
    /// before we reach it.
    parked: Vec<(NodeId, TmMsg)>,
}

impl Node for Validator {
    type Msg = TmMsg;
    type Batch = Vec<Transaction>;
    type Delivery = OrderedBlock;

    fn step(&mut self, now_ms: u64, input: Input<TmMsg, Vec<Transaction>>) -> Vec<Out> {
        self.now = now_ms;
        let mut out = Vec::new();
        match input {
            Input::Batch(txs) => {
                self.pending.push_back(txs);
                if self.deadline.is_none() {
                    self.arm(&mut out);
                }
            }
            Input::Msg { from, msg } => self.handle(from, msg, &mut out),
            Input::Deadline => {
                if self.deadline.is_some_and(|at| now_ms >= at) {
                    self.on_deadline(&mut out);
                }
            }
        }
        self.maybe_propose(&mut out);
        out
    }
}

impl Validator {
    fn new(id: NodeId, n: usize, step_timeout: Duration) -> Validator {
        Validator {
            id,
            n,
            step_timeout_ms: step_timeout.as_millis() as u64,
            now: 0,
            height: 0,
            round: 0,
            step: Step::Propose,
            deadline: None,
            state: HeightState::default(),
            pending: VecDeque::new(),
            parked: Vec::new(),
        }
    }

    fn quorum(&self) -> usize {
        2 * self.n / 3 + 1
    }

    fn proposer_of(&self, height: u64, round: u32) -> NodeId {
        ((height + round as u64) % self.n as u64) as NodeId
    }

    /// Starts the current step's timeout.
    fn arm(&mut self, out: &mut Vec<Out>) {
        let at = self.now + self.step_timeout_ms;
        self.deadline = Some(at);
        out.push(Output::Timer(at));
    }

    fn broadcast_and_self(&mut self, msg: TmMsg, out: &mut Vec<Out>) {
        out.push(Output::Broadcast(msg.clone()));
        self.handle(self.id, msg, out);
    }

    /// If we are the proposer of the current round and have not yet
    /// proposed, propose the held block or else the oldest pending batch.
    fn maybe_propose(&mut self, out: &mut Vec<Out>) {
        if self.step != Step::Propose
            || self.proposer_of(self.height, self.round) != self.id
            || self.state.proposals.contains_key(&self.round)
        {
            return;
        }
        let block = match self.holdover_proposal() {
            Some(block) => block,
            None => match self.pending.front() {
                Some(txs) => OrderedBlock {
                    seq: self.height,
                    timestamp_ms: self.now,
                    txs: txs.clone(),
                },
                None => return,
            },
        };
        let (height, round) = (self.height, self.round);
        self.broadcast_and_self(
            TmMsg::Proposal {
                height,
                round,
                block,
            },
            out,
        );
    }

    /// The latest proposal held from an earlier round of this height. If
    /// its round failed (prevotes split because some validators saw the
    /// proposal only after advancing), the block is proposed *again* —
    /// the role Tendermint's validValue plays — so a proposer that has not
    /// seen the batch still has something to offer.
    fn holdover_proposal(&self) -> Option<OrderedBlock> {
        self.state
            .proposals
            .iter()
            .filter(|(r, _)| **r < self.round)
            .max_by_key(|(r, _)| **r)
            .map(|(_, b)| b.clone())
    }

    fn handle(&mut self, from: NodeId, msg: TmMsg, out: &mut Vec<Out>) {
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
                if height != self.height
                    || from != self.proposer_of(height, round)
                    || block.seq != height
                {
                    return;
                }
                let digest = block_digest(&block);
                self.state.proposals.insert(round, block);
                // Prevote for the proposal if we haven't voted this round.
                if round == self.round && self.state.sent_prevote.insert(round) {
                    self.step = Step::Prevote;
                    self.arm(out);
                    let digest = Some(digest);
                    self.broadcast_and_self(
                        TmMsg::Prevote {
                            height,
                            round,
                            digest,
                        },
                        out,
                    );
                }
                // Votes may have raced ahead of the proposal; re-check.
                self.check_prevote_quorum(round, out);
                self.check_precommit_quorum(round, out);
            }
            TmMsg::Prevote {
                height,
                round,
                digest,
            } => {
                if height != self.height {
                    return;
                }
                let votes = self.state.prevotes.entry((round, digest)).or_default();
                votes.insert(from);
                self.check_prevote_quorum(round, out);
            }
            TmMsg::Precommit {
                height,
                round,
                digest,
            } => {
                if height != self.height {
                    return;
                }
                let votes = self.state.precommits.entry((round, digest)).or_default();
                votes.insert(from);
                self.check_precommit_quorum(round, out);
            }
        }
    }

    fn check_prevote_quorum(&mut self, round: u32, out: &mut Vec<Out>) {
        if round != self.round || self.state.sent_precommit.contains(&round) {
            return;
        }
        let quorum = self.quorum();
        // A quorum for a concrete digest precommits it; a nil quorum, nil.
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
        let Some(digest) = hit.or(nil_quorum.then_some(None)) else {
            return;
        };
        self.state.sent_precommit.insert(round);
        self.step = Step::Precommit;
        self.arm(out);
        let height = self.height;
        self.broadcast_and_self(
            TmMsg::Precommit {
                height,
                round,
                digest,
            },
            out,
        );
    }

    fn check_precommit_quorum(&mut self, round: u32, out: &mut Vec<Out>) {
        let quorum = self.quorum();
        // Commit on a digest quorum at any round of this height.
        let hit: Option<Digest> = self
            .state
            .precommits
            .iter()
            .find(|((r, d), votes)| *r == round && d.is_some() && votes.len() >= quorum)
            .and_then(|((_, d), _)| *d);
        // We must hold the matching proposal to apply it.
        let block = hit.and_then(|digest| {
            self.state
                .proposals
                .get(&round)
                .filter(|b| block_digest(b) == digest)
                .cloned()
        });
        if let Some(block) = block {
            out.push(Output::Deliver(block));
            self.pending.pop_front();
            self.height += 1;
            self.round = 0;
            self.step = Step::Propose;
            self.state = HeightState::default();
            self.arm(out);
            // Replay messages that arrived for this (now current)
            // height while we were still committing the previous
            // one. A replayed quorum may commit again recursively;
            // parked entries are all at the new height, so the
            // recursion depth is bounded by one.
            for (from, msg) in std::mem::take(&mut self.parked) {
                self.handle(from, msg, out);
            }
            return;
        }
        // Nil quorum at our round → next round, next proposer.
        if round == self.round
            && self
                .state
                .precommits
                .get(&(round, None))
                .is_some_and(|v| v.len() >= quorum)
        {
            self.advance_round(out);
        }
    }

    fn on_deadline(&mut self, out: &mut Vec<Out>) {
        let (height, round) = (self.height, self.round);
        match self.step {
            Step::Propose => {
                // No proposal in time → prevote nil. Only when there is
                // traffic waiting; otherwise idle until a batch arrives.
                let has_traffic = !self.pending.is_empty()
                    || !self.state.proposals.is_empty()
                    || !self.state.prevotes.is_empty();
                if !has_traffic {
                    self.deadline = None;
                    return;
                }
                if self.state.sent_prevote.insert(round) {
                    self.step = Step::Prevote;
                    let digest = None;
                    self.broadcast_and_self(
                        TmMsg::Prevote {
                            height,
                            round,
                            digest,
                        },
                        out,
                    );
                }
                self.arm(out);
            }
            Step::Prevote => {
                if self.state.sent_precommit.insert(round) {
                    self.step = Step::Precommit;
                    let digest = None;
                    self.broadcast_and_self(
                        TmMsg::Precommit {
                            height,
                            round,
                            digest,
                        },
                        out,
                    );
                }
                self.arm(out);
            }
            Step::Precommit => self.advance_round(out),
        }
    }

    fn advance_round(&mut self, out: &mut Vec<Out>) {
        self.round += 1;
        self.step = Step::Propose;
        self.arm(out);
        // The new round's proposal (and even its votes) may have raced
        // ahead of our round change — we stored them but, being in an
        // older round, never voted. Vote now, or the round's digest
        // quorum is one vote short forever (every quorum needs us when
        // one validator of four is down).
        if let Some(digest) = self.state.proposals.get(&self.round).map(block_digest) {
            if self.state.sent_prevote.insert(self.round) {
                self.step = Step::Prevote;
                let (height, round) = (self.height, self.round);
                let digest = Some(digest);
                self.broadcast_and_self(
                    TmMsg::Prevote {
                        height,
                        round,
                        digest,
                    },
                    out,
                );
            }
            self.check_prevote_quorum(self.round, out);
            self.check_precommit_quorum(self.round, out);
        }
    }
}

/// The live validators of `config` on one event loop, at time 0.
pub fn cluster(config: &TendermintConfig) -> EventLoop<Validator> {
    let n = config.validators;
    assert!(n >= 1);
    let validators = (0..n)
        .map(|id| (!config.down.contains(&id)).then(|| Validator::new(id, n, config.step_timeout)))
        .collect();
    EventLoop::new(validators, &config.net)
}

/// The Tendermint-style consensus engine.
pub type TendermintEngine = BftEngine<Validator>;

impl TendermintEngine {
    /// Starts the validators on one event loop, with serial CheckTx and
    /// admission; the lowest-id live validator's stream drives
    /// subscribers and acks.
    pub fn start(config: TendermintConfig) -> Arc<Self> {
        let n = config.validators;
        let canonical = (0..n).find(|id| !config.down.contains(id)).unwrap_or(0);
        let checktx = Duration::from_micros(config.checktx_cost_us);
        BftEngine::spawn(
            "tendermint",
            cluster(&config),
            n,
            canonical,
            config.batch,
            Some(checktx),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{now_ms, Consensus, ConsensusError};
    use sebdb_crypto::sig::{KeyId, MacKeypair, Signer, Verifier};
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
        let acks: Vec<_> = (0..12).map(|i| e.submit(tx(i))).collect();
        let mut seqs = Vec::new();
        let mut total = 0;
        while total < 12 {
            let b = sub.recv_timeout(Duration::from_secs(10)).unwrap();
            total += b.txs.len();
            seqs.push(b.seq);
        }
        let want: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, want);
        for a in acks {
            assert!(a.recv_timeout(Duration::from_secs(10)).unwrap().is_ok());
        }
        e.shutdown();
    }

    #[test]
    fn checktx_rejects_bad_transactions() {
        // CheckTx refuses an empty type before the pool; MAC admission
        // refuses a forged signature at the cut; the rest commit.
        let keys = MacKeypair::from_key([6u8; 32]);
        let e = TendermintEngine::start(quick());
        let verify_keys = keys.clone();
        e.set_tx_verifier(Some(Box::new(move |tx: &Transaction| {
            sebdb_crypto::sig::Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| verify_keys.verify(&tx.signing_payload(), &sig))
        })));
        let mut bad = tx(1);
        bad.tname = String::new();
        let mut acks: Vec<_> = (0..4)
            .map(|i| {
                let mut t = tx(i);
                if i != 2 {
                    t.sig = keys.sign(&t.signing_payload()).to_bytes();
                } // tx 2 keeps a forged (empty) signature
                e.submit(t)
            })
            .collect();
        for ack in [e.submit(bad), acks.remove(2)] {
            match ack.recv_timeout(Duration::from_secs(10)).unwrap() {
                Err(ConsensusError::Rejected(_)) => {}
                other => panic!("expected rejection, got {other:?}"),
            }
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
        let mut net = cluster(&TendermintConfig {
            down: vec![1],
            ..quick()
        });
        net.push_batch(0, (0..4).map(tx).collect());
        net.push_batch(0, (4..8).map(tx).collect());
        let mut blocks = Vec::new();
        while let Some(delivered) = net.advance() {
            blocks.extend(delivered.into_iter().filter(|(id, _)| *id == 0));
        }
        let seqs: Vec<u64> = blocks.iter().map(|(_, b)| b.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(blocks.iter().map(|(_, b)| b.txs.len()).sum::<usize>(), 8);
        // Height 1 waits out round 0's step timeout, then validator 2
        // proposes round 1 and it commits at once.
        assert_eq!(blocks[0].1.timestamp_ms, 0);
        assert_eq!(blocks[1].1.timestamp_ms, 100);
    }

    /// A bare validator of four, stepped by hand.
    fn bare_validator(id: NodeId) -> Validator {
        Validator::new(id, 4, Duration::from_millis(100))
    }

    /// Steps `v` with `msg` from `from`; returns the blocks it delivered.
    fn feed(v: &mut Validator, from: NodeId, msg: TmMsg) -> Vec<OrderedBlock> {
        let input = Input::Msg { from, msg };
        let out = v.step(0, input);
        out.into_iter()
            .filter_map(|o| match o {
                Output::Deliver(b) => Some(b),
                _ => None,
            })
            .collect()
    }

    fn prevote(height: u64, round: u32, digest: Option<Digest>) -> TmMsg {
        TmMsg::Prevote {
            height,
            round,
            digest,
        }
    }

    fn precommit(height: u64, round: u32, digest: Option<Digest>) -> TmMsg {
        TmMsg::Precommit {
            height,
            round,
            digest,
        }
    }

    #[test]
    fn parks_next_height_messages_during_commit_skew() {
        // Peers that commit height 0 first can run the whole height-1
        // exchange (proposal + votes) before this validator finishes
        // height 0. Delivery is exactly-once, so if those messages were
        // dropped that round could never complete and the chain would
        // halt. They must be parked and replayed after our own commit.
        let mut v = bare_validator(3);
        let block = |seq: u64| OrderedBlock {
            seq,
            timestamp_ms: 1 + seq,
            txs: vec![tx(seq as i64)],
        };
        let (b0, b1) = (block(0), block(1));
        let (d0, d1) = (block_digest(&b0), block_digest(&b1));
        let mut delivered = Vec::new();

        // Height 0 up to the precommit: proposer 0's block, then a
        // prevote quorum ({0, 1} + our own) makes us precommit d0.
        let proposal = TmMsg::Proposal {
            height: 0,
            round: 0,
            block: b0,
        };
        delivered.extend(feed(&mut v, 0, proposal));
        for peer in [0, 1] {
            delivered.extend(feed(&mut v, peer, prevote(0, 0, Some(d0))));
        }
        assert_eq!(v.height, 0);

        // The skew: peers 1 and 2 already committed height 0 and run
        // the entire height-1 round before we see their height-0
        // precommits. Every one of these must be parked, not dropped.
        let proposal = TmMsg::Proposal {
            height: 1,
            round: 0,
            block: b1,
        };
        delivered.extend(feed(&mut v, 1, proposal)); // proposer_of(1, 0) == 1
        for peer in [1, 2] {
            delivered.extend(feed(&mut v, peer, prevote(1, 0, Some(d1))));
            delivered.extend(feed(&mut v, peer, precommit(1, 0, Some(d1))));
        }
        assert_eq!(v.height, 0, "future-height messages must not apply early");
        assert_eq!(v.parked.len(), 5);

        // The late height-0 precommits arrive: we commit height 0, the
        // parked height-1 exchange replays, and with our prevote and
        // precommit added it commits height 1 too — no new network
        // traffic needed.
        for peer in [0, 1] {
            delivered.extend(feed(&mut v, peer, precommit(0, 0, Some(d0))));
        }
        assert_eq!(v.height, 2);
        assert!(v.parked.is_empty());
        let seqs: Vec<u64> = delivered.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn votes_for_a_proposal_that_raced_ahead_of_the_round_change() {
        // The round-1 proposal (and its votes) can arrive while we are
        // still finishing round 0. We store it but must not stay
        // silent after advancing: without our vote the round-1 digest
        // quorum is one short forever (quorum 3 of 3 live validators).
        let mut v = bare_validator(3);
        let b = OrderedBlock {
            seq: 0,
            timestamp_ms: 1,
            txs: vec![tx(7)],
        };
        let d = block_digest(&b);
        let mut delivered = Vec::new();
        // Round 1 runs in full at peers 1 and 2 while we sit in round 0.
        let proposal = TmMsg::Proposal {
            height: 0,
            round: 1,
            block: b,
        };
        delivered.extend(feed(&mut v, 1, proposal)); // proposer_of(0, 1) == 1
        for peer in [1, 2] {
            delivered.extend(feed(&mut v, peer, prevote(0, 1, Some(d))));
            delivered.extend(feed(&mut v, peer, precommit(0, 1, Some(d))));
        }
        assert_eq!(
            v.round, 0,
            "future-round messages are recorded, not acted on"
        );
        // Round 0 dies with a nil precommit quorum; advancing must
        // vote for the held round-1 proposal, completing both quorums
        // and committing without any further network traffic.
        for peer in [0, 2, 3] {
            delivered.extend(feed(&mut v, peer, precommit(0, 0, None)));
        }
        assert_eq!(v.height, 1, "held proposal must commit after advance");
        let seqs: Vec<u64> = delivered.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn proposer_reproposes_the_held_block_when_the_mempool_is_empty() {
        // A failed round's block is held; a later round's proposer that
        // has no batch of its own must re-propose it (validValue) or
        // nothing can ever commit again.
        let mut v = bare_validator(2); // proposer_of(0, 2) == 2
        assert!(v.pending.is_empty());
        let b = OrderedBlock {
            seq: 0,
            timestamp_ms: 1,
            txs: vec![tx(9)],
        };
        let d = block_digest(&b);
        let proposal = TmMsg::Proposal {
            height: 0,
            round: 1,
            block: b,
        };
        feed(&mut v, 1, proposal); // proposer_of(0, 1) == 1
        v.round = 2; // round 1 failed; we now lead round 2
        let mut out = Vec::new();
        v.maybe_propose(&mut out);
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
