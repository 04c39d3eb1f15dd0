//! A thin client (a donor on a phone) verifies query results from
//! untrusted full nodes using the two-phase authenticated query
//! protocol of §VI — and catches a lying server.
//!
//! ```sh
//! cargo run -p sebdb --example thin_client_verify
//! ```

use sebdb::{
    byzantine_risk, serve_authenticated_query, serve_auxiliary_digest, SebdbNode, ThinClient,
};
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer};
use sebdb_crypto::sig::MacKeypair;
use sebdb_index::KeyPredicate;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::Value;
use std::sync::Arc;

fn main() {
    let consensus = KafkaOrderer::start(BatchConfig {
        max_txs: 5,
        timeout_ms: 30,
    });
    // Three full nodes share the chain; the client trusts none of them
    // individually.
    let full = node(&consensus, 1);
    let aux1 = node(&consensus, 2);
    let aux2 = node(&consensus, 3);

    full.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    for i in 0..20 {
        full.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[
                Value::str(if i % 2 == 0 { "jack" } else { "rose" }),
                Value::str("education"),
                Value::Int(50 * i),
            ],
        )
        .unwrap();
    }
    let height = full.ledger.height();
    assert!(aux1.wait_height(height, std::time::Duration::from_secs(5)));
    assert!(aux2.wait_height(height, std::time::Duration::from_secs(5)));

    // Every node builds the authenticated index on donate.amount.
    let schema = full.schemas.get("donate").unwrap();
    for n in [&full, &aux1, &aux2] {
        n.ledger
            .create_layered_index(&schema, "amount", None)
            .unwrap();
    }

    // The client's question: all donations between 200 and 600.
    let pred = KeyPredicate::Range(Value::decimal(200), Value::decimal(600));

    // Phase 1: a randomly selected full node answers with results + VO
    // + the snapshot height.
    let response =
        serve_authenticated_query(&full.ledger, Some("donate"), "amount", &pred, None).unwrap();
    println!(
        "full node returned {} results with a {}-byte VO at height {}",
        response.transactions.len(),
        response.vo_bytes(),
        response.vo.height
    );

    // Phase 2: the client relays (query, height) to auxiliary nodes
    // and collects digests over the visited MB-tree roots.
    let h = response.vo.height;
    let d1 =
        serve_auxiliary_digest(&aux1.ledger, Some("donate"), "amount", &pred, None, h).unwrap();
    let d2 =
        serve_auxiliary_digest(&aux2.ledger, Some("donate"), "amount", &pred, None, h).unwrap();

    // The client verifies soundness + completeness.
    let client = ThinClient::new();
    client
        .verify(&pred, &response, &[d1, d2], 2)
        .expect("honest responses verify");
    println!("verification passed ✓ (2 matching auxiliary digests)");
    println!(
        "residual risk if 1/3 of nodes were Byzantine: θ = {:.4}",
        byzantine_risk(1.0 / 3.0, 2, 2, 1)
    );

    // Now the full node turns malicious and hides one result.
    let mut tampered = response.clone();
    tampered.transactions.remove(2);
    let keep = tampered.vo.per_block[0].results.len().saturating_sub(1);
    tampered.vo.per_block[0].results.remove(2.min(keep));
    match client.verify(&pred, &tampered, &[d1, d2], 2) {
        Err(e) => println!("tampered response rejected ✓ ({e})"),
        Ok(()) => panic!("tampering must be detected"),
    }

    full.shutdown();
    aux1.shutdown();
    aux2.shutdown();
    consensus.shutdown();
}

fn node(consensus: &Arc<KafkaOrderer>, key: u8) -> Arc<SebdbNode> {
    SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(consensus) as Arc<dyn Consensus>,
        None,
        MacKeypair::from_key([key; 32]),
    )
    .unwrap()
}
