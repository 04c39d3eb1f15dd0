//! A `CREATE` commits at once on every engine: the shared mempool cuts a
//! schema-sync transaction alone, so DDL never waits on the packaging
//! timeout. The timeout here is a minute, longer than the node's apply
//! timeout, so a `CREATE` left on the timer fails with `ApplyTimeout`.

use sebdb::{ExecOutcome, SebdbNode};
use sebdb_consensus::pbft::PbftConfig;
use sebdb_consensus::tendermint::TendermintConfig;
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer, PbftEngine, TendermintEngine};
use sebdb_crypto::sig::MacKeypair;
use sebdb_storage::{BlockStore, StoreConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLES: [&str; 3] = ["donate", "transfer", "distribute"];

fn untimed(max_txs: usize) -> BatchConfig {
    BatchConfig {
        max_txs,
        timeout_ms: 60_000,
    }
}

fn creates_commit_at_once(consensus: Arc<dyn Consensus>) {
    let engine = consensus.name();
    let node = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&consensus),
        None,
        MacKeypair::from_key([7; 32]),
    )
    .unwrap();
    for (height, table) in TABLES.iter().enumerate() {
        let started = Instant::now();
        let out = node
            .execute(&format!("CREATE {table} (who string, amount int)"), &[])
            .unwrap_or_else(|e| panic!("{engine}: CREATE {table}: {e}"));
        assert!(matches!(out, ExecOutcome::Created { .. }));
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(5),
            "{engine}: CREATE {table} took {took:?}"
        );
        // Its own height, in a block of its own.
        assert_eq!(node.ledger.height(), height as u64 + 1, "{engine}");
        let block = node.ledger.read_block(height as u64).unwrap();
        assert_eq!(block.transactions.len(), 1, "{engine}: block {height}");
        assert!(block.transactions[0].is_schema_sync(), "{engine}");
    }
    for table in TABLES {
        assert!(
            node.schemas.get(table).is_some(),
            "{engine}: {table} missing"
        );
    }
    node.shutdown();
    consensus.shutdown();
}

#[test]
fn creates_commit_at_once_on_kafka() {
    creates_commit_at_once(KafkaOrderer::start(untimed(200)));
}

#[test]
fn creates_commit_at_once_on_pbft() {
    creates_commit_at_once(PbftEngine::start(PbftConfig {
        batch: untimed(200),
        ..PbftConfig::default()
    }));
}

#[test]
fn creates_commit_at_once_on_tendermint() {
    creates_commit_at_once(TendermintEngine::start(TendermintConfig {
        batch: untimed(10_000),
        ..TendermintConfig::default()
    }));
}
