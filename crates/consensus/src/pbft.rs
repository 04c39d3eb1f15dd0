//! PBFT (Castro & Liskov, OSDI'99) as a sans-I/O core.
//!
//! The normal-case three-phase protocol with `n = 3f + 1` replicas:
//! the primary assigns sequence numbers and broadcasts `PRE-PREPARE`;
//! replicas broadcast `PREPARE` and, once *prepared* (pre-prepare +
//! `2f` matching prepares), broadcast `COMMIT`; a block is delivered
//! once *committed-local* (`2f + 1` matching commits). Delivery is
//! strictly in sequence order, so every honest replica applies the
//! same block stream. A [`Replica`] holds no clock, thread or channel:
//! the event loop steps it (`crate::engine`).
//!
//! Scope note: this engine implements the normal-case operation that
//! the paper's write benchmark (Fig. 7) exercises; view changes are
//! out of scope — the primary is assumed non-faulty, while up to `f`
//! *backup* replicas may be Byzantine (the tests inject one that
//! equivocates on digests).

use crate::engine::BftEngine;
use crate::traits::{BatchConfig, OrderedBlock};
use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_network::sim::{EventLoop, Input, NetConfig, Node, NodeId, Output};
use sebdb_types::{Codec, Transaction};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// PBFT protocol messages.
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Primary → all: sequence assignment.
    PrePrepare {
        /// Protocol view (fixed at 0 — no view changes).
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// Digest of the batch.
        digest: Digest,
        /// The batch itself.
        block: OrderedBlock,
    },
    /// Replica → all: prepare vote.
    Prepare {
        /// Protocol view.
        view: u64,
        /// Sequence being voted.
        seq: u64,
        /// Batch digest being voted for.
        digest: Digest,
    },
    /// Replica → all: commit vote.
    Commit {
        /// Protocol view.
        view: u64,
        /// Sequence being voted.
        seq: u64,
        /// Batch digest being voted for.
        digest: Digest,
    },
}

type Out = Output<PbftMsg, OrderedBlock>;

fn block_digest(block: &OrderedBlock) -> Digest {
    let mut h = Sha256::new();
    h.update(&block.seq.to_le_bytes());
    h.update(&block.timestamp_ms.to_le_bytes());
    for tx in &block.txs {
        h.update(&tx.to_bytes());
    }
    h.finalize()
}

#[derive(Default)]
struct SeqState {
    block: Option<OrderedBlock>,
    digest: Option<Digest>,
    /// Votes are buffered even before the pre-prepare arrives (messages
    /// from different senders may be reordered); only votes matching
    /// the pre-prepared digest count.
    prepares: HashSet<(NodeId, Digest)>,
    commits: HashSet<(NodeId, Digest)>,
    sent_commit: bool,
    delivered: bool,
}

impl SeqState {
    fn prepare_count(&self) -> usize {
        match self.digest {
            Some(d) => self.prepares.iter().filter(|(_, v)| *v == d).count(),
            None => 0,
        }
    }

    fn commit_count(&self) -> usize {
        match self.digest {
            Some(d) => self.commits.iter().filter(|(_, v)| *v == d).count(),
            None => 0,
        }
    }
}

/// One PBFT replica; replica 0 is the primary.
pub struct Replica {
    id: NodeId,
    f: usize,
    seqs: BTreeMap<u64, SeqState>,
    next_deliver: u64,
    next_seq: u64, // primary only
    /// When set, equivocate: vote for a corrupted digest (test hook).
    byzantine: bool,
}

impl Node for Replica {
    type Msg = PbftMsg;
    type Batch = Vec<Transaction>;
    type Delivery = OrderedBlock;

    /// The primary sequences each admitted batch at `now_ms`; every
    /// replica votes on what it hears.
    fn step(&mut self, now_ms: u64, input: Input<PbftMsg, Vec<Transaction>>) -> Vec<Out> {
        let mut out = Vec::new();
        match input {
            Input::Batch(txs) if self.id == 0 => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let block = OrderedBlock {
                    seq,
                    timestamp_ms: now_ms,
                    txs,
                };
                let digest = block_digest(&block);
                let msg = PbftMsg::PrePrepare {
                    view: 0,
                    seq,
                    digest,
                    block,
                };
                self.broadcast_and_self(msg, &mut out);
            }
            Input::Msg { from, msg } => self.handle(from, msg, &mut out),
            Input::Batch(_) | Input::Deadline => {}
        }
        out
    }
}

impl Replica {
    fn broadcast_and_self(&mut self, msg: PbftMsg, out: &mut Vec<Out>) {
        // Peers hear it over the network; a replica trusts its own vote.
        out.push(Output::Broadcast(msg.clone()));
        self.handle(self.id, msg, out);
    }

    /// The digest this replica votes for: a Byzantine one equivocates.
    fn vote(&self, digest: Digest) -> Digest {
        if !self.byzantine {
            return digest;
        }
        let mut h = Sha256::new();
        h.update(b"byzantine");
        h.update(digest.as_bytes());
        h.finalize()
    }

    fn handle(&mut self, from: NodeId, msg: PbftMsg, out: &mut Vec<Out>) {
        match msg {
            PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                block,
            } => {
                if view != 0 || from != 0 {
                    return; // only the view-0 primary may pre-prepare
                }
                // Verify the digest binds the batch.
                if block_digest(&block) != digest {
                    return;
                }
                let state = self.seqs.entry(seq).or_default();
                if state.digest.is_some() {
                    return; // duplicate pre-prepare
                }
                state.block = Some(block);
                state.digest = Some(digest);
                let digest = self.vote(digest);
                self.broadcast_and_self(PbftMsg::Prepare { view, seq, digest }, out);
                self.try_advance(seq, out);
            }
            PbftMsg::Prepare { view, seq, digest } => {
                if view != 0 {
                    return;
                }
                self.seqs
                    .entry(seq)
                    .or_default()
                    .prepares
                    .insert((from, digest));
                self.try_advance(seq, out);
            }
            PbftMsg::Commit { view, seq, digest } => {
                if view != 0 {
                    return;
                }
                self.seqs
                    .entry(seq)
                    .or_default()
                    .commits
                    .insert((from, digest));
                self.try_advance(seq, out);
            }
        }
    }

    fn try_advance(&mut self, seq: u64, out: &mut Vec<Out>) {
        // Prepared: pre-prepare + 2f prepares (own vote counts).
        let Some(state) = self.seqs.get_mut(&seq) else {
            return;
        };
        let Some(digest) = state.digest else { return };
        if state.prepare_count() >= 2 * self.f && !state.sent_commit {
            state.sent_commit = true;
            let digest = self.vote(digest);
            self.broadcast_and_self(
                PbftMsg::Commit {
                    view: 0,
                    seq,
                    digest,
                },
                out,
            );
        }
        // Committed-local: 2f + 1 commits. Deliver in order.
        while let Some(state) = self.seqs.get_mut(&self.next_deliver) {
            if state.delivered || state.commit_count() <= 2 * self.f {
                break;
            }
            let Some(block) = state.block.clone() else {
                break;
            };
            state.delivered = true;
            out.push(Output::Deliver(block));
            self.next_deliver += 1;
        }
    }
}

/// Options for the PBFT engine.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Packaging policy.
    pub batch: BatchConfig,
    /// Fault tolerance parameter; `n = 3f + 1` replicas are started.
    pub f: usize,
    /// Network behaviour between replicas.
    pub net: NetConfig,
    /// Replica ids (excluding 0) that equivocate — test/fault-injection
    /// hook.
    pub byzantine: Vec<NodeId>,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            batch: BatchConfig::default(),
            f: 1,
            net: NetConfig::default(),
            byzantine: Vec::new(),
        }
    }
}

/// The `3f + 1` replicas of `config` on one event loop, at time 0.
pub fn cluster(config: &PbftConfig) -> EventLoop<Replica> {
    assert!(
        !config.byzantine.contains(&0),
        "primary faults require view changes (unsupported)"
    );
    let replicas = (0..3 * config.f + 1)
        .map(|id| {
            Some(Replica {
                id,
                f: config.f,
                seqs: BTreeMap::new(),
                next_deliver: 0,
                next_seq: 0,
                byzantine: config.byzantine.contains(&id),
            })
        })
        .collect();
    EventLoop::new(replicas, &config.net)
}

/// The PBFT consensus engine (4 replicas by default, tolerating f=1).
pub type PbftEngine = BftEngine<Replica>;

impl PbftEngine {
    /// Starts the replicas on one event loop, with admission; replica 0's
    /// stream drives subscribers and acks.
    pub fn start(config: PbftConfig) -> Arc<Self> {
        BftEngine::spawn(
            "pbft",
            cluster(&config),
            3 * config.f + 1,
            0,
            config.batch,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{now_ms, Consensus};
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::Value;
    use std::time::Duration;

    fn tx(i: i64) -> Transaction {
        Transaction::new(now_ms(), KeyId([2; 8]), "donate", vec![Value::Int(i)])
    }

    fn quick_batch() -> BatchConfig {
        BatchConfig {
            max_txs: 4,
            timeout_ms: 30,
        }
    }

    /// Runs the virtual clock until the cluster is idle; returns each
    /// replica's delivered stream.
    fn run_idle(net: &mut EventLoop<Replica>) -> BTreeMap<NodeId, Vec<OrderedBlock>> {
        let mut streams: BTreeMap<NodeId, Vec<OrderedBlock>> = BTreeMap::new();
        while let Some(delivered) = net.advance() {
            for (id, block) in delivered {
                streams.entry(id).or_default().push(block);
            }
        }
        streams
    }

    #[test]
    fn commits_through_three_phases() {
        let engine = PbftEngine::start(PbftConfig {
            batch: quick_batch(),
            ..PbftConfig::default()
        });
        assert_eq!(engine.replica_count(), 4);
        let sub = engine.subscribe();
        let acks: Vec<_> = (0..4).map(|i| engine.submit(tx(i))).collect();
        let block = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(block.seq, 0);
        assert_eq!(block.txs.len(), 4);
        for a in acks {
            assert!(a.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
        engine.shutdown();
    }

    #[test]
    fn tolerates_one_byzantine_backup() {
        let mut net = cluster(&PbftConfig {
            byzantine: vec![2],
            ..PbftConfig::default()
        });
        net.push_batch(0, (0..4).map(tx).collect());
        net.push_batch(0, (4..8).map(tx).collect());
        let streams = run_idle(&mut net);
        let primary = &streams[&0];
        assert_eq!(
            primary.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(primary.iter().map(|b| b.txs.len()).sum::<usize>(), 8);
        // Every honest replica applies the same stream.
        for honest in [1, 3] {
            let digests: Vec<Digest> = streams[&honest].iter().map(block_digest).collect();
            assert_eq!(
                digests,
                primary.iter().map(block_digest).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ordered_delivery_across_many_batches() {
        let engine = PbftEngine::start(PbftConfig {
            batch: BatchConfig {
                max_txs: 2,
                timeout_ms: 30,
            },
            ..PbftConfig::default()
        });
        let sub = engine.subscribe();
        for i in 0..10 {
            engine.submit(tx(i));
        }
        let mut tids = Vec::new();
        for want_seq in 0..5 {
            let b = sub.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(b.seq, want_seq);
            tids.extend(b.txs.iter().map(|t| t.tid));
        }
        assert_eq!(tids, (1..=10).collect::<Vec<_>>());
        engine.shutdown();
    }

    #[test]
    fn works_with_network_latency() {
        let mut net = cluster(&PbftConfig {
            net: NetConfig {
                latency: Duration::from_millis(5),
                ..NetConfig::default()
            },
            ..PbftConfig::default()
        });
        net.push_batch(100, vec![tx(1)]);
        let streams = run_idle(&mut net);
        assert_eq!(streams[&0].len(), 1);
        assert_eq!(streams[&0][0].timestamp_ms, 100, "sequenced on arrival");
        // Pre-prepare, prepare and commit each cross the 5 ms network once.
        assert_eq!(net.now_ms(), 115);
    }

    #[test]
    #[should_panic(expected = "view changes")]
    fn byzantine_primary_rejected() {
        let _ = cluster(&PbftConfig {
            byzantine: vec![0],
            ..PbftConfig::default()
        });
    }
}
