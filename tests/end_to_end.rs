//! End-to-end integration: multiple SEBDB nodes over one ordering
//! service, driven entirely through the SQL-like language.

use sebdb::{ExecOutcome, SebdbNode, Strategy};
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer};
use sebdb_crypto::sig::MacKeypair;
use sebdb_offchain::OffchainDb;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, Value};
use std::sync::Arc;
use std::time::Duration;

fn quick_kafka() -> Arc<KafkaOrderer> {
    KafkaOrderer::start(BatchConfig {
        max_txs: 4,
        timeout_ms: 20,
    })
}

fn node(consensus: Arc<KafkaOrderer>, key: u8) -> Arc<SebdbNode> {
    SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        consensus as Arc<dyn Consensus>,
        None,
        MacKeypair::from_key([key; 32]),
    )
    .unwrap()
}

#[test]
fn create_insert_select_via_sql() {
    let kafka = quick_kafka();
    let n = node(Arc::clone(&kafka), 1);

    let out = n
        .execute(
            "CREATE donate (donor string, project string, amount decimal)",
            &[],
        )
        .unwrap();
    assert!(matches!(out, ExecOutcome::Created { ref table } if table == "donate"));

    for (donor, amount) in [("Jack", 100), ("Rose", 250), ("Jack", 50)] {
        let out = n
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[
                    Value::str(donor),
                    Value::str("Education"),
                    Value::Int(amount),
                ],
            )
            .unwrap();
        assert!(matches!(out, ExecOutcome::Inserted { .. }));
    }

    // Point query.
    let rows = n
        .execute(r#"SELECT * FROM donate WHERE donor = "Jack""#, &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 2);

    // Range query (Q4 shape).
    let rows = n
        .execute(
            "SELECT donor, amount FROM donate WHERE amount BETWEEN ? AND ?",
            &[Value::Int(60), Value::Int(300)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows.columns,
        vec!["donor".to_string(), "amount".to_string()]
    );

    // GET BLOCK (Q7 shape).
    let rows = n
        .execute("GET BLOCK ID = ?", &[Value::Int(0)])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);

    n.shutdown();
    kafka.shutdown();
}

#[test]
fn trace_via_sql_with_operator_registry() {
    let kafka = quick_kafka();
    let n = node(Arc::clone(&kafka), 2);
    n.execute(
        "CREATE transfer (project string, donor string, organization string, amount decimal)",
        &[],
    )
    .unwrap();
    n.register_operator("org1", n.id());
    for i in 0..3 {
        n.execute(
            "INSERT INTO transfer VALUES (?, ?, ?, ?)",
            &[
                Value::str("education"),
                Value::str("jack"),
                Value::str(format!("school{i}")),
                Value::Int(10 * i),
            ],
        )
        .unwrap();
    }
    let rows = n
        .execute(r#"TRACE OPERATOR = "org1""#, &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 3);

    let rows = n
        .execute(r#"TRACE OPERATOR = "org1", OPERATION = "transfer""#, &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 3);

    // Unknown operator is an error, not silence.
    assert!(n.execute(r#"TRACE OPERATOR = "nobody""#, &[]).is_err());
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn multiple_nodes_converge_and_share_schemas() {
    let kafka = quick_kafka();
    let a = node(Arc::clone(&kafka), 3);
    let b = node(Arc::clone(&kafka), 4);
    let c = node(Arc::clone(&kafka), 5);

    a.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    // Writes from two different nodes interleave through the same
    // ordering service.
    for i in 0..5 {
        a.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("a"), Value::str("p"), Value::Int(i)],
        )
        .unwrap();
        b.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("b"), Value::str("p"), Value::Int(i)],
        )
        .unwrap();
    }
    // Writers only wait for their *own* apply; level all three nodes
    // to the highest observed height before comparing.
    let height = a.ledger.height().max(b.ledger.height());
    assert!(a.wait_height(height, Duration::from_secs(5)));
    assert!(b.wait_height(height, Duration::from_secs(5)));
    assert!(c.wait_height(height, Duration::from_secs(5)));

    // All three nodes hold the same chain tip.
    assert_eq!(a.ledger.tip_hash(), b.ledger.tip_hash());
    assert_eq!(a.ledger.tip_hash(), c.ledger.tip_hash());
    a.ledger.verify_chain().unwrap();
    c.ledger.verify_chain().unwrap();

    // Node c, which never executed the CREATE, learned the schema via
    // the schema-sync transaction.
    assert!(c.schemas.get("donate").is_some());
    // And can query the shared data.
    let rows = c
        .execute(r#"SELECT * FROM donate WHERE donor = "b""#, &[])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 5);

    a.shutdown();
    b.shutdown();
    c.shutdown();
    kafka.shutdown();
}

#[test]
fn onchain_join_via_sql() {
    let kafka = quick_kafka();
    let n = node(Arc::clone(&kafka), 6);
    n.execute(
        "CREATE transfer (project string, donor string, organization string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute("CREATE distribute (project string, donor string, organization string, donee string, amount decimal)", &[]).unwrap();
    for org in ["red-cross", "unicef"] {
        n.execute(
            "INSERT INTO transfer VALUES (?, ?, ?, ?)",
            &[
                Value::str("education"),
                Value::str("jack"),
                Value::str(org),
                Value::Int(100),
            ],
        )
        .unwrap();
        n.execute(
            "INSERT INTO distribute VALUES (?, ?, ?, ?, ?)",
            &[
                Value::str("education"),
                Value::str("jack"),
                Value::str(org),
                Value::str("tom"),
                Value::Int(40),
            ],
        )
        .unwrap();
    }
    let rows = n
        .execute(
            "SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization",
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 2);
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn onoff_join_via_sql() {
    let kafka = quick_kafka();
    let offdb = Arc::new(OffchainDb::new());
    offdb
        .create_table(
            "doneeinfo",
            vec![
                Column::new("donee", DataType::Str),
                Column::new("income", DataType::Decimal),
            ],
        )
        .unwrap();
    let conn = offdb.connect();
    conn.insert("doneeinfo", vec![Value::str("tom"), Value::decimal(120)])
        .unwrap();
    conn.insert("doneeinfo", vec![Value::str("ann"), Value::decimal(300)])
        .unwrap();

    let n = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&kafka) as Arc<dyn Consensus>,
        Some(conn),
        MacKeypair::from_key([7; 32]),
    )
    .unwrap();
    n.execute("CREATE distribute (project string, donor string, organization string, donee string, amount decimal)", &[]).unwrap();
    for donee in ["tom", "tom", "nobody"] {
        n.execute(
            "INSERT INTO distribute VALUES (?, ?, ?, ?, ?)",
            &[
                Value::str("education"),
                Value::str("jack"),
                Value::str("school1"),
                Value::str(donee),
                Value::Int(10),
            ],
        )
        .unwrap();
    }
    let rows = n
        .execute(
            "SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee",
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 2, "two distributions to tom join his info");
    // Off-chain income column appears in the output.
    assert!(rows.columns.iter().any(|c| c.contains("income")));
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn select_with_time_window() {
    let kafka = quick_kafka();
    let n = node(Arc::clone(&kafka), 8);
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute(
        "INSERT INTO donate VALUES (?, ?, ?)",
        &[Value::str("x"), Value::str("p"), Value::Int(1)],
    )
    .unwrap();
    // A window entirely in the past excludes everything.
    let rows = n
        .execute(
            r#"SELECT * FROM donate WHERE donor = "x" WINDOW [1, 2]"#,
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!(rows.is_empty());
    // A window covering now includes it.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as i64;
    let rows = n
        .execute(
            r#"SELECT * FROM donate WHERE donor = "x" WINDOW [?, ?]"#,
            &[Value::Int(now - 3_600_000), Value::Int(now + 3_600_000)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn strategies_agree_through_node_api() {
    let kafka = quick_kafka();
    let n = node(Arc::clone(&kafka), 9);
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    for i in 0..10 {
        n.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("d"), Value::str("p"), Value::Int(i * 10)],
        )
        .unwrap();
    }
    let sql = "SELECT * FROM donate WHERE amount BETWEEN ? AND ?";
    let params = [Value::Int(25), Value::Int(65)];
    let mut counts = Vec::new();
    for strat in [Strategy::Auto, Strategy::Scan, Strategy::Bitmap] {
        let rows = n
            .execute_as(n.id(), sql, &params, strat)
            .unwrap()
            .rows()
            .unwrap();
        counts.push(rows.len());
    }
    assert_eq!(counts, vec![4, 4, 4]);
    n.shutdown();
    kafka.shutdown();
}
