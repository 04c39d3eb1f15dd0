//! Kafka-style ordering service.
//!
//! Models the paper's KAFKA deployment (§VII-B: "we start 1 broker and
//! create a transaction topic with 1 partition"): a single broker
//! thread consumes the partition in arrival order, assigns offsets
//! (tids), cuts blocks by the mempool's rules (a schema-sync
//! transaction alone and at once, else at `max_txs` or on the
//! packaging timeout), and fans the ordered blocks out to all
//! subscribed nodes. Crash fault tolerant only — no Byzantine
//! protection, which is why it is faster than the BFT engines in
//! Fig. 7.

use crate::engine::{admit_batches, Fanout};
use crate::mempool::{AdmissionVerifier, Mempool};
use crate::traits::{now_ms, BatchConfig, CommitAck, Consensus, ConsensusError, OrderedBlock};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use sebdb_types::Transaction;
use std::sync::Arc;

/// The Kafka-style ordering engine.
pub struct KafkaOrderer {
    mempool: Arc<Mempool>,
    fanout: Arc<Fanout>,
    broker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl KafkaOrderer {
    /// Starts the broker with the given packaging policy.
    pub fn start(config: BatchConfig) -> Arc<Self> {
        let mempool = Arc::new(Mempool::new(config));
        let fanout = Arc::new(Fanout::new());
        // The single-partition consumer: the offset of each admitted
        // batch is its block's sequence number.
        let broker = {
            let (mempool, fanout) = (Arc::clone(&mempool), Arc::clone(&fanout));
            sebdb_parallel::spawn_service("kafka-broker", move || {
                let mut next_seq = 0;
                admit_batches(&mempool, &fanout, |txs| {
                    let block = OrderedBlock {
                        seq: next_seq,
                        timestamp_ms: now_ms(),
                        txs,
                    };
                    next_seq += 1;
                    fanout.deliver(&block);
                })
            })
        };
        Arc::new(KafkaOrderer {
            mempool,
            fanout,
            broker: Mutex::new(Some(broker)),
        })
    }

    /// Installs a batch admission verifier: every drained batch has its
    /// signing-payload MACs checked once each before sealing, and
    /// forged transactions are rejected individually.
    pub fn set_tx_verifier(&self, verifier: Option<Box<AdmissionVerifier>>) {
        self.mempool.set_verifier(verifier);
    }
}

impl Consensus for KafkaOrderer {
    fn submit(&self, tx: Transaction) -> Receiver<Result<CommitAck, ConsensusError>> {
        self.mempool.submit(tx)
    }

    fn subscribe(&self) -> Receiver<OrderedBlock> {
        self.fanout.subscribe()
    }

    fn shutdown(&self) {
        self.mempool.close();
        if let Some(h) = self.broker.lock().take() {
            let _ = h.join();
        }
    }

    fn name(&self) -> &'static str {
        "kafka"
    }
}

impl Drop for KafkaOrderer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sig::{KeyId, MacKeypair, Signer, Verifier};
    use sebdb_types::{Value, SCHEMA_TABLE};
    use std::time::Duration;

    fn tx(i: i64) -> Transaction {
        Transaction::new(now_ms(), KeyId([1; 8]), "donate", vec![Value::Int(i)])
    }

    #[test]
    fn admission_verifier_rejects_forged_and_commits_rest() {
        let keys = MacKeypair::from_key([8u8; 32]);
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 3,
            timeout_ms: 10_000,
        });
        let verify_keys = keys.clone();
        k.set_tx_verifier(Some(Box::new(move |tx: &Transaction| {
            sebdb_crypto::sig::Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| verify_keys.verify(&tx.signing_payload(), &sig))
        })));
        let sub = k.subscribe();
        let mut acks = Vec::new();
        for i in 0..3 {
            let mut t = tx(i);
            if i != 1 {
                t.sig = keys.sign(&t.signing_payload()).to_bytes();
            } // tx 1 is forged (empty signature)
            acks.push(k.submit(t));
        }
        let block = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(block.txs.len(), 2);
        assert!(acks[0]
            .recv_timeout(Duration::from_secs(2))
            .unwrap()
            .is_ok());
        match acks[1].recv_timeout(Duration::from_secs(2)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(acks[2]
            .recv_timeout(Duration::from_secs(2))
            .unwrap()
            .is_ok());
        k.shutdown();
    }

    #[test]
    fn a_forged_schema_transaction_is_refused_and_leaves_no_empty_block() {
        let keys = MacKeypair::from_key([8u8; 32]);
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 200,
            timeout_ms: 60_000,
        });
        let verify_keys = keys.clone();
        k.set_tx_verifier(Some(Box::new(move |tx: &Transaction| {
            sebdb_crypto::sig::Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| verify_keys.verify(&tx.signing_payload(), &sig))
        })));
        let sub = k.subscribe();
        let schema = || Transaction::new(now_ms(), KeyId([1; 8]), SCHEMA_TABLE, Vec::new());
        // Cut alone at once, its batch empties at admission.
        match k.submit(schema()).recv_timeout(Duration::from_secs(5)) {
            Ok(Err(ConsensusError::Rejected(_))) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let mut signed = schema();
        signed.sig = keys.sign(&signed.signing_payload()).to_bytes();
        let ack = k.submit(signed).recv_timeout(Duration::from_secs(5));
        assert_eq!(ack.unwrap().unwrap().seq, 0);
        let block = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!((block.seq, block.txs.len()), (0, 1));
        assert!(block.txs[0].is_schema_sync());
        assert!(sub.try_recv().is_err(), "no empty block was delivered");
        k.shutdown();
    }

    #[test]
    fn batches_cut_at_max_txs() {
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 5,
            timeout_ms: 10_000,
        });
        let sub = k.subscribe();
        let acks: Vec<_> = (0..5).map(|i| k.submit(tx(i))).collect();
        let block = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(block.seq, 0);
        assert_eq!(block.txs.len(), 5);
        // Tids are 1..=5 and increasing.
        let tids: Vec<u64> = block.txs.iter().map(|t| t.tid).collect();
        assert_eq!(tids, vec![1, 2, 3, 4, 5]);
        for a in acks {
            let ack = a.recv_timeout(Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(ack.seq, 0);
        }
        k.shutdown();
    }

    #[test]
    fn timeout_flushes_partial_batch() {
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 1000,
            timeout_ms: 30,
        });
        let sub = k.subscribe();
        k.submit(tx(1));
        k.submit(tx(2));
        let block = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(block.txs.len(), 2);
        k.shutdown();
    }

    #[test]
    fn all_subscribers_see_same_stream() {
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 3,
            timeout_ms: 50,
        });
        let s1 = k.subscribe();
        let s2 = k.subscribe();
        for i in 0..6 {
            k.submit(tx(i));
        }
        for _ in 0..2 {
            let a = s1.recv_timeout(Duration::from_secs(2)).unwrap();
            let b = s2.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(a.seq, b.seq);
            assert_eq!(
                a.txs.iter().map(|t| t.tid).collect::<Vec<_>>(),
                b.txs.iter().map(|t| t.tid).collect::<Vec<_>>()
            );
        }
        k.shutdown();
    }

    #[test]
    fn sequences_are_consecutive() {
        let k = KafkaOrderer::start(BatchConfig {
            max_txs: 2,
            timeout_ms: 50,
        });
        let sub = k.subscribe();
        for i in 0..8 {
            k.submit(tx(i));
        }
        let seqs: Vec<u64> = (0..4)
            .map(|_| sub.recv_timeout(Duration::from_secs(2)).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        k.shutdown();
    }

    #[test]
    fn shutdown_stops_engine() {
        let k = KafkaOrderer::start(BatchConfig::default());
        k.shutdown();
        let ack = k.submit(tx(1));
        // Either the channel is disconnected or we get Stopped.
        match ack.recv_timeout(Duration::from_millis(500)) {
            Ok(Err(ConsensusError::Stopped)) | Err(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
