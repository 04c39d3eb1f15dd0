//! SEBDB nodes over each pluggable consensus engine (§III-B): the same
//! application code runs unchanged on Kafka ordering, PBFT, and
//! Tendermint, and replicas converge.

use sebdb::{ExecOutcome, SebdbNode};
use sebdb_consensus::pbft::PbftConfig;
use sebdb_consensus::tendermint::TendermintConfig;
use sebdb_consensus::ConsensusError;
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer, PbftEngine, TendermintEngine};
use sebdb_crypto::sig::{KeyId, MacKeypair, Signature, Signer, Verifier};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::sync::Arc;
use std::time::Duration;

fn batch() -> BatchConfig {
    BatchConfig {
        max_txs: 4,
        timeout_ms: 30,
    }
}

fn node(consensus: Arc<dyn Consensus>, key: u8) -> Arc<SebdbNode> {
    SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        consensus,
        None,
        MacKeypair::from_key([key; 32]),
    )
    .unwrap()
}

/// Runs the same small workload on a node and checks results.
fn exercise(n: &SebdbNode) {
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    for i in 0..6 {
        let out = n
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[Value::str("jack"), Value::str("edu"), Value::Int(i * 100)],
            )
            .unwrap();
        assert!(matches!(out, ExecOutcome::Inserted { .. }));
    }
    let rows = n
        .execute(
            "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
            &[Value::Int(100), Value::Int(400)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 4);
    n.ledger.verify_chain().unwrap();
}

#[test]
fn node_over_kafka() {
    let engine = KafkaOrderer::start(batch());
    let n = node(Arc::clone(&engine) as Arc<dyn Consensus>, 1);
    exercise(&n);
    n.shutdown();
    engine.shutdown();
}

#[test]
fn node_over_pbft() {
    let engine = PbftEngine::start(PbftConfig {
        batch: batch(),
        ..PbftConfig::default()
    });
    let n = node(Arc::clone(&engine) as Arc<dyn Consensus>, 2);
    exercise(&n);
    n.shutdown();
    engine.shutdown();
}

#[test]
fn node_over_pbft_with_byzantine_backup() {
    let engine = PbftEngine::start(PbftConfig {
        batch: batch(),
        byzantine: vec![3],
        ..PbftConfig::default()
    });
    let n = node(Arc::clone(&engine) as Arc<dyn Consensus>, 3);
    exercise(&n);
    n.shutdown();
    engine.shutdown();
}

#[test]
fn node_over_tendermint() {
    let engine = TendermintEngine::start(TendermintConfig {
        batch: batch(),
        step_timeout: Duration::from_millis(100),
        ..TendermintConfig::default()
    });
    let mut n = Some(node(Arc::clone(&engine) as Arc<dyn Consensus>, 4));
    let node_ref = n.as_ref().unwrap();
    // Tendermint commits are slower; allow more time per write.
    exercise(node_ref);
    n.take().unwrap().shutdown();
    engine.shutdown();
}

#[test]
fn replicas_converge_over_pbft() {
    let engine = PbftEngine::start(PbftConfig {
        batch: batch(),
        ..PbftConfig::default()
    });
    let a = node(Arc::clone(&engine) as Arc<dyn Consensus>, 5);
    let b = node(Arc::clone(&engine) as Arc<dyn Consensus>, 6);
    a.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    for i in 0..8 {
        let who = if i % 2 == 0 { &a } else { &b };
        who.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("x"), Value::str("p"), Value::Int(i)],
        )
        .unwrap();
    }
    let h = a.ledger.height().max(b.ledger.height());
    assert!(a.wait_height(h, Duration::from_secs(10)));
    assert!(b.wait_height(h, Duration::from_secs(10)));
    assert_eq!(a.ledger.tip_hash(), b.ledger.tip_hash());
    a.ledger.verify_chain().unwrap();
    b.ledger.verify_chain().unwrap();
    a.shutdown();
    b.shutdown();
    engine.shutdown();
}

#[test]
fn write_acks_carry_tids_in_order() {
    let engine = KafkaOrderer::start(batch());
    let n = node(Arc::clone(&engine) as Arc<dyn Consensus>, 7);
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    let mut tids = Vec::new();
    for i in 0..5 {
        if let ExecOutcome::Inserted { tid, .. } = n
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[Value::str("s"), Value::str("p"), Value::Int(i)],
            )
            .unwrap()
        {
            tids.push(tid);
        }
    }
    assert!(tids.windows(2).all(|w| w[0] < w[1]), "{tids:?}");
    n.shutdown();
    engine.shutdown();
}

#[test]
fn every_engine_rejects_forged_macs() {
    let keys = MacKeypair::from_key([12; 32]);
    let verifier = || {
        let keys = keys.clone();
        Some(Box::new(move |tx: &Transaction| {
            Signature::from_bytes(&tx.sig)
                .is_some_and(|sig| keys.verify(&tx.signing_payload(), &sig))
        }) as Box<_>)
    };
    let kafka = KafkaOrderer::start(batch());
    kafka.set_tx_verifier(verifier());
    let pbft = PbftEngine::start(PbftConfig {
        batch: batch(),
        ..PbftConfig::default()
    });
    pbft.set_tx_verifier(verifier());
    let tendermint = TendermintEngine::start(TendermintConfig::default());
    tendermint.set_tx_verifier(verifier());
    let engines: [Arc<dyn Consensus>; 3] = [kafka, pbft, tendermint];
    for engine in engines {
        let tx = |i| Transaction::new(1, KeyId([4; 8]), "donate", vec![Value::Int(i)]);
        let forged = engine.submit(tx(1)); // no signature
        let mut honest = tx(2);
        honest.sig = keys.sign(&honest.signing_payload()).to_bytes();
        let honest = engine.submit(honest);
        match forged.recv_timeout(Duration::from_secs(10)).unwrap() {
            Err(ConsensusError::Rejected(_)) => {}
            other => panic!(
                "{}: forged transaction not rejected: {other:?}",
                engine.name()
            ),
        }
        let ack = honest.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(
            ack.is_ok(),
            "{}: honest transaction not committed",
            engine.name()
        );
        engine.shutdown();
    }
}
