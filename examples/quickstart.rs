//! Quickstart: spin up a SEBDB node, declare a relation, insert
//! transactions, query them back — all through the SQL-like language.
//!
//! ```sh
//! cargo run -p sebdb --example quickstart
//! ```

use sebdb::{ExecOutcome, SebdbNode};
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer};
use sebdb_crypto::sig::MacKeypair;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::Value;
use std::sync::Arc;

fn main() {
    // 1. Pick a consensus engine (Kafka-style ordering here; PBFT and
    //    Tendermint plug in the same way).
    let consensus = KafkaOrderer::start(BatchConfig {
        max_txs: 100,
        timeout_ms: 50,
    });

    // 2. Start a full node on a block store in a temporary directory.
    let node = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&consensus) as Arc<dyn Consensus>,
        None,
        MacKeypair::from_key([7; 32]),
    )
    .expect("node starts");

    // 3. Declare a relation. The schema travels through consensus as a
    //    special transaction, so every node in the network learns it.
    node.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .expect("create table");

    // 4. Insert transactions — each becomes a signed tuple on-chain.
    for (donor, amount) in [("Jack", 100), ("Rose", 250), ("Jack", 75)] {
        let outcome = node
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[
                    Value::str(donor),
                    Value::str("Education"),
                    Value::Int(amount),
                ],
            )
            .expect("insert");
        if let ExecOutcome::Inserted { tid, block } = outcome {
            println!("committed donation by {donor}: tid={tid} in block {block}");
        }
    }

    // 5. Query with SQL: a range query over the amount attribute.
    let result = node
        .execute(
            "SELECT donor, amount FROM donate WHERE amount BETWEEN ? AND ?",
            &[Value::Int(80), Value::Int(300)],
        )
        .expect("select")
        .rows()
        .expect("rows");
    println!("\ndonations between 80 and 300:");
    println!("{:?}", result.columns);
    for row in &result.rows {
        println!("{row:?}");
    }
    assert_eq!(result.len(), 2);

    // 6. Blockchain-native lookups still work: fetch block 0's header.
    let block = node
        .execute("GET BLOCK ID = ?", &[Value::Int(0)])
        .expect("get block")
        .rows()
        .expect("rows");
    println!("\nblock 0 header: {:?}", block.rows[0]);

    println!(
        "\nchain height {} with tip {}",
        node.ledger.height(),
        node.ledger.tip_hash()
    );
    node.ledger.verify_chain().expect("chain verifies");
    println!("chain verified ✓");

    node.shutdown();
    consensus.shutdown();
}
