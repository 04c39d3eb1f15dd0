//! Food-ingredient traceability — one of the paper's motivating
//! application classes (§I) — running over PBFT with a Byzantine
//! replica, user-defined schemas, access-controlled channels, and an
//! SQL smart contract that records a hand-off atomically-in-order.
//!
//! ```sh
//! cargo run -p sebdb --example supply_chain
//! ```

use sebdb::{ContractRegistry, SebdbNode};
use sebdb_consensus::pbft::PbftConfig;
use sebdb_consensus::{BatchConfig, Consensus, PbftEngine};
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::Value;
use std::sync::Arc;

fn main() {
    // 4 PBFT replicas, one of which equivocates — the pipeline still
    // commits (f = 1).
    let consensus = PbftEngine::start(PbftConfig {
        batch: BatchConfig {
            max_txs: 10,
            timeout_ms: 40,
        },
        byzantine: vec![2],
        ..PbftConfig::default()
    });
    let node = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&consensus) as Arc<dyn Consensus>,
        None,
        MacKeypair::from_key([11; 32]),
    )
    .unwrap();

    // User-defined relations for the supply chain.
    node.execute(
        "CREATE harvest (farm string, batch string, crop string, kilos int)",
        &[],
    )
    .unwrap();
    node.execute(
        "CREATE shipment (batch string, carrier string, destination string)",
        &[],
    )
    .unwrap();
    node.execute(
        "CREATE sale (batch string, store string, price decimal)",
        &[],
    )
    .unwrap();

    // Channels: farms write harvests; retail writes sales; everyone in
    // the consortium can read everything plus chain metadata.
    let farm = node.id();
    let retailer = KeyId([5; 8]);
    for (channel, member) in [("farms", farm), ("retail", retailer)] {
        node.access.create_channel(channel);
        node.access.add_member(channel, member);
        node.access.assign_table(channel, "__chain__", false);
    }
    node.access.assign_table("farms", "harvest", true);
    node.access.assign_table("farms", "shipment", true);
    node.access.assign_table("farms", "sale", false);
    node.access.assign_table("retail", "sale", true);
    node.access.assign_table("retail", "harvest", false);
    node.access.assign_table("retail", "shipment", false);

    // A hand-off contract: harvest + shipment recorded together.
    let contracts = ContractRegistry::new();
    contracts
        .deploy(
            "harvest_and_ship",
            "INSERT INTO harvest VALUES (?, ?, ?, ?); \
             INSERT INTO shipment VALUES (?, ?, ?);",
        )
        .unwrap();
    contracts
        .invoke(
            &node,
            "harvest_and_ship",
            &[
                Value::str("sunny-acres"),
                Value::str("batch-7"),
                Value::str("tomatoes"),
                Value::Int(120),
                Value::str("batch-7"),
                Value::str("coolfreight"),
                Value::str("metro-market"),
            ],
        )
        .unwrap();
    println!("batch-7 harvested and shipped via contract ✓");

    // Retail records the sale (allowed in its channel)…
    node.execute_as(
        retailer,
        "INSERT INTO sale VALUES (?, ?, ?)",
        &[
            Value::str("batch-7"),
            Value::str("metro-market"),
            Value::Int(3),
        ],
        sebdb::Strategy::Auto,
    )
    .unwrap();
    // …but cannot forge harvests.
    assert!(node
        .execute_as(
            retailer,
            "INSERT INTO harvest VALUES (?, ?, ?, ?)",
            &[
                Value::str("fake-farm"),
                Value::str("batch-9"),
                Value::str("gold"),
                Value::Int(1)
            ],
            sebdb::Strategy::Auto,
        )
        .is_err());
    println!("retailer blocked from writing harvests ✓");

    // Trace batch-7 across all three relations: the consumer's
    // provenance question.
    node.register_operator("sunny-acres", farm);
    let trail = node
        .execute_as(
            farm,
            r#"TRACE OPERATOR = "sunny-acres""#,
            &[],
            sebdb::Strategy::Auto,
        )
        .unwrap()
        .rows()
        .unwrap();
    println!(
        "\nprovenance of sunny-acres' activity ({} events):",
        trail.len()
    );
    for row in &trail.rows {
        println!("  tid={} type={}", row[0], row[4]);
    }

    // Cross-relation lineage: which sales trace back to which harvest?
    let lineage = node
        .execute_as(
            farm,
            "SELECT * FROM harvest, sale ON harvest.batch = sale.batch",
            &[],
            sebdb::Strategy::Auto,
        )
        .unwrap()
        .rows()
        .unwrap();
    println!("\nharvest ⋈ sale lineage rows: {}", lineage.len());
    assert_eq!(lineage.len(), 1);

    node.ledger.verify_chain().unwrap();
    println!("\nchain verified over PBFT with a Byzantine replica ✓");
    node.shutdown();
    consensus.shutdown();
}
