//! The paper's motivating donation system (Example 1 + Fig. 6): donors
//! donate to projects, the charity transfers funds to organizations,
//! organizations distribute to donees — and an auditor traces the flow
//! end-to-end with `TRACE`, on-chain joins, and an on-off-chain join
//! against the school's private donee records.
//!
//! ```sh
//! cargo run -p sebdb --example donation_audit
//! ```

use sebdb::{SebdbNode, Strategy};
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer};
use sebdb_crypto::sig::MacKeypair;
use sebdb_offchain::OffchainDb;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, Value};
use std::sync::Arc;

fn main() {
    let consensus = KafkaOrderer::start(BatchConfig {
        max_txs: 50,
        timeout_ms: 30,
    });

    // The school's private (off-chain) donee records live in the local
    // RDBMS, never on the chain.
    let offdb = Arc::new(OffchainDb::new());
    offdb
        .create_table(
            "doneeinfo",
            vec![
                Column::new("donee", DataType::Str),
                Column::new("income", DataType::Decimal),
                Column::new("family_size", DataType::Int),
            ],
        )
        .unwrap();
    let conn = offdb.connect();
    for (donee, income, family) in [("tom", 800, 5), ("ann", 450, 3), ("bob", 1200, 2)] {
        conn.insert(
            "doneeinfo",
            vec![
                Value::str(donee),
                Value::decimal(income),
                Value::Int(family),
            ],
        )
        .unwrap();
    }

    let node = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&consensus) as Arc<dyn Consensus>,
        Some(conn),
        MacKeypair::from_key([42; 32]),
    )
    .unwrap();

    // The three on-chain relations of Fig. 6.
    node.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    node.execute(
        "CREATE transfer (project string, donor string, organization string, amount decimal)",
        &[],
    )
    .unwrap();
    node.execute("CREATE distribute (project string, donor string, organization string, donee string, amount decimal)", &[]).unwrap();

    // Example 1's events: Jack donates, the charity transfers, School1
    // distributes.
    node.execute(
        "INSERT INTO donate VALUES (?, ?, ?)",
        &[Value::str("Jack"), Value::str("Education"), Value::Int(100)],
    )
    .unwrap();
    node.execute(
        "INSERT INTO transfer VALUES (?, ?, ?, ?)",
        &[
            Value::str("Education"),
            Value::str("Jack"),
            Value::str("School1"),
            Value::Int(1000),
        ],
    )
    .unwrap();
    for (donee, amount) in [("tom", 50), ("ann", 30)] {
        node.execute(
            "INSERT INTO distribute VALUES (?, ?, ?, ?, ?)",
            &[
                Value::str("Education"),
                Value::str("Jack"),
                Value::str("School1"),
                Value::str(donee),
                Value::Int(amount),
            ],
        )
        .unwrap();
    }

    // Audit 1 — provenance: everything the charity (this node) ever
    // sent, via the track-trace operation.
    node.register_operator("org1", node.id());
    let trail = node
        .execute(r#"TRACE OPERATOR = "org1""#, &[])
        .unwrap()
        .rows()
        .unwrap();
    println!("org1 sent {} transactions:", trail.len());
    for row in &trail.rows {
        println!("  tid={} type={}", row[0], row[4]);
    }

    // Audit 2 — follow the money on-chain: which transfers reached
    // which distributions (Q5 shape)?
    let flow = node
        .execute(
            "SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization",
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    println!("\ntransfer ⋈ distribute produced {} flow rows", flow.len());

    // Audit 3 — integrate private data: who actually received funds,
    // with their household context (Q6 shape)?
    let enriched = node
        .execute(
            "SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee",
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    println!("\ndistributions enriched with donee records:");
    let donee_col = enriched
        .columns
        .iter()
        .position(|c| c == "distribute.donee")
        .unwrap();
    let income_col = enriched
        .columns
        .iter()
        .position(|c| c == "doneeinfo.income")
        .unwrap();
    for row in &enriched.rows {
        println!(
            "  donee {} (household income {})",
            row[donee_col], row[income_col]
        );
    }
    assert_eq!(enriched.len(), 2);

    // Audit 4 — the same range query under explicit physical plans
    // (the access paths the paper benchmarks).
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Auto] {
        let rows = node
            .execute_as(
                node.id(),
                "SELECT * FROM distribute WHERE amount BETWEEN ? AND ?",
                &[Value::Int(40), Value::Int(60)],
                strat,
            )
            .unwrap()
            .rows()
            .unwrap();
        println!("\n{strat:?}: {} distributions in [40, 60]", rows.len());
        assert_eq!(rows.len(), 1);
    }

    node.shutdown();
    consensus.shutdown();
    println!("\naudit complete ✓");
}
