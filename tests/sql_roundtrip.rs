//! SQL surface: every Table II query shape through the node API, plus
//! error paths, access control, and SQL-driven smart contracts.

use sebdb::{
    AccessController, ContractRegistry, ExecOutcome, Executor, Ledger, NodeError, Permission,
    SebdbNode, Strategy,
};
use sebdb_consensus::{BatchConfig, Consensus, KafkaOrderer, OrderedBlock};
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{BoundBlockSelector, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::sync::Arc;

fn setup() -> (Arc<KafkaOrderer>, Arc<SebdbNode>) {
    let kafka = KafkaOrderer::start(BatchConfig {
        max_txs: 4,
        timeout_ms: 20,
    });
    let node = SebdbNode::start(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        Arc::clone(&kafka) as Arc<dyn Consensus>,
        None,
        MacKeypair::from_key([1; 32]),
    )
    .unwrap();
    (kafka, node)
}

#[test]
fn error_paths_are_reported() {
    let (kafka, n) = setup();
    // Unknown table.
    assert!(matches!(
        n.execute("SELECT * FROM nope WHERE x = 1", &[]),
        Err(NodeError::Sql(_))
    ));
    // Parse error.
    assert!(n.execute("SELEKT * FROM t", &[]).is_err());
    // Missing parameters.
    n.execute("CREATE t (a int)", &[]).unwrap();
    assert!(n.execute("INSERT INTO t VALUES (?)", &[]).is_err());
    // Arity mismatch.
    assert!(n.execute("INSERT INTO t VALUES (1, 2)", &[]).is_err());
    // Type mismatch.
    assert!(n
        .execute("INSERT INTO t VALUES (?)", &[Value::str("not an int")])
        .is_err());
    // Duplicate CREATE.
    assert!(n.execute("CREATE t (b int)", &[]).is_err());
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn get_block_by_tid_and_timestamp() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    let mut last_tid = 0;
    for i in 0..6 {
        if let ExecOutcome::Inserted { tid, .. } = n
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[Value::str("x"), Value::str("p"), Value::Int(i)],
            )
            .unwrap()
        {
            last_tid = tid;
        }
    }
    // By tid: finds the block containing that transaction.
    let rows = n
        .execute("GET BLOCK TID = ?", &[Value::Int(last_tid as i64)])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    // By timestamp far in the future: resolves to the last block.
    let rows = n
        .execute("GET BLOCK TIMESTAMP = ?", &[Value::Int(i64::MAX / 2)])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    n.shutdown();
    kafka.shutdown();
}

/// `GET BLOCK` on `ledger` as `(height, first_tid)` rows.
fn get_block(ledger: &Ledger, sel: BoundBlockSelector) -> Vec<(Value, Value)> {
    Executor::new(ledger, None)
        .execute(&LogicalPlan::GetBlock(sel), Strategy::Auto)
        .unwrap()
        .rows
        .into_iter()
        .map(|r| (r[0].clone(), r[2].clone()))
        .collect()
}

#[test]
fn get_block_by_tid_finds_the_block_past_an_empty_one() {
    // Block 0 holds tids 1..=10, block 1 none, block 2 tids 11..=20.
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        MacKeypair::from_key([1; 32]),
    )
    .unwrap();
    for (seq, tids) in [1..11, 0..0, 11..21].into_iter().enumerate() {
        let txs = tids
            .map(|tid| {
                let mut tx = Transaction::new(1_000 + tid, KeyId([7; 8]), "t", vec![]);
                tx.tid = tid;
                tx
            })
            .collect();
        ledger
            .append_ordered(OrderedBlock {
                seq: seq as u64,
                timestamp_ms: 2_000 + seq as u64,
                txs,
            })
            .unwrap();
    }
    for tid in [11, 12, 15, 20] {
        assert_eq!(
            get_block(&ledger, BoundBlockSelector::ByTid(tid)),
            vec![(Value::Int(2), Value::Int(11))],
            "tid {tid}"
        );
    }
    for tid in [1, 10] {
        assert_eq!(
            get_block(&ledger, BoundBlockSelector::ByTid(tid)),
            vec![(Value::Int(0), Value::Int(1))],
            "tid {tid}"
        );
    }
    // The empty block is found by id and by its timestamp.
    assert_eq!(
        get_block(&ledger, BoundBlockSelector::ByTimestamp(2_001)),
        vec![(Value::Int(1), Value::Null)]
    );
}

/// `GET BLOCK` answers from the chain record and the manifest: every
/// selector returns the row the decoded block gives (empty blocks
/// included), and a lookup by id decodes no tuple.
#[test]
fn get_block_rows_come_from_the_chain_record() {
    let store = Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap());
    let ledger = Ledger::new(Arc::clone(&store), MacKeypair::from_key([1; 32])).unwrap();
    // Blocks 0 and 3 are empty; tids skip 25..30.
    let tids = [0..0, 1..11, 11..25, 0..0, 30..33];
    for (seq, tids) in tids.into_iter().enumerate() {
        let txs = tids
            .map(|tid| {
                let mut tx = Transaction::new(1_000 + tid, KeyId([7; 8]), "t", vec![]);
                tx.tid = tid;
                tx
            })
            .collect();
        let timestamp_ms = 2_000 + 10 * seq as u64;
        ledger
            .append_ordered(OrderedBlock {
                seq: seq as u64,
                timestamp_ms,
                txs,
            })
            .unwrap();
    }
    let rows = |sel| {
        Executor::new(&ledger, None)
            .execute(&LogicalPlan::GetBlock(sel), Strategy::Auto)
            .unwrap()
            .rows
    };
    // The row a decoded block gives.
    let decoded = |bid: u64| {
        let b = ledger.read_block(bid).unwrap();
        vec![vec![
            Value::Int(b.header.height as i64),
            Value::Timestamp(b.header.timestamp),
            b.first_tid().map_or(Value::Null, |t| Value::Int(t as i64)),
            Value::Int(b.transactions.len() as i64),
            Value::Str(b.header.block_hash.to_hex()),
        ]]
    };
    for bid in 0..5 {
        let ts = ledger.read_block(bid).unwrap().header.timestamp;
        assert_eq!(
            rows(BoundBlockSelector::ById(bid)),
            decoded(bid),
            "id {bid}"
        );
        let by_ts = rows(BoundBlockSelector::ByTimestamp(ts));
        assert_eq!(by_ts, decoded(bid), "ts {ts}");
    }
    for (tid, bid) in [(1, 1), (10, 1), (11, 2), (24, 2), (30, 4), (32, 4)] {
        assert_eq!(
            rows(BoundBlockSelector::ByTid(tid)),
            decoded(bid),
            "tid {tid}"
        );
    }
    for tid in [0, 25, 29, 33, 1_000] {
        assert!(rows(BoundBlockSelector::ByTid(tid)).is_empty(), "tid {tid}");
    }
    assert!(rows(BoundBlockSelector::ById(5)).is_empty());
    assert!(rows(BoundBlockSelector::ByTimestamp(1_999)).is_empty());
    // By id: one chain record read, no block and no tuple.
    let io = || (store.stats.snapshot(), store.stats.bytes_read());
    let (s0, b0) = io();
    assert_eq!(rows(BoundBlockSelector::ById(2)), decoded(2));
    let (s1, b1) = io();
    assert_eq!(
        (s1.0, s1.2),
        (s0.0 + 1, s0.2),
        "only the oracle read a block"
    );
    rows(BoundBlockSelector::ById(2));
    let (s2, b2) = io();
    assert_eq!(s2, s1, "GET BLOCK ID read a block or a tuple");
    let (record, block) = (b2 - b1, (b1 - b0) - (b2 - b1));
    assert!(
        record > 0 && record < block,
        "{record} B record, {block} B block"
    );
    // Thin-client sync reads the same records.
    let (header, count) = store.header(2).unwrap();
    assert_eq!((header.height, count), (2, 14));
    assert_eq!(ledger.headers().unwrap()[2], header);
}

#[test]
fn get_block_by_tid_past_the_last_transaction_is_no_row() {
    let (kafka, n) = setup();
    n.execute("CREATE donate (donor string, amount decimal)", &[])
        .unwrap();
    let mut last_tid = 0;
    for i in 0..3 {
        if let ExecOutcome::Inserted { tid, .. } = n
            .execute(
                "INSERT INTO donate VALUES (?, ?)",
                &[Value::str("x"), Value::Int(i)],
            )
            .unwrap()
        {
            last_tid = tid;
        }
    }
    let rows = |tid: u64| {
        n.execute("GET BLOCK TID = ?", &[Value::Int(tid as i64)])
            .unwrap()
            .rows()
            .unwrap()
            .len()
    };
    assert_eq!(rows(last_tid), 1);
    assert_eq!(rows(last_tid + 1), 0);
    assert_eq!(rows(last_tid + 1_000), 0);
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn access_control_gates_statements() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();

    // Lock things down: a channel where only `member` can use donate.
    let member = KeyId([9; 8]);
    n.access.create_channel("charity");
    n.access.add_member("charity", member);
    n.access.assign_table("charity", "donate", true);
    n.access.assign_table("charity", "__chain__", false);

    // The node's own identity is now outside every channel.
    let denied = n.execute(r#"SELECT * FROM donate WHERE donor = "x""#, &[]);
    assert!(matches!(denied, Err(NodeError::Denied(_))));

    // The member can read and write.
    let ok = n.execute_as(
        member,
        r#"SELECT * FROM donate WHERE donor = "x""#,
        &[],
        sebdb::Strategy::Auto,
    );
    assert!(ok.is_ok());
    // Tracking needs the chain-level pseudo table.
    n.register_operator("org1", member);
    assert!(n
        .execute_as(
            member,
            r#"TRACE OPERATOR = "org1""#,
            &[],
            sebdb::Strategy::Auto
        )
        .is_ok());
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn standalone_access_controller_semantics() {
    let ac = AccessController::new();
    let alice = KeyId([1; 8]);
    assert!(ac.check(alice, Permission::Write, "anything").is_ok());
    ac.create_channel("c");
    assert!(ac.check(alice, Permission::Write, "anything").is_err());
}

#[test]
fn smart_contract_donation_flow() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute(
        "CREATE transfer (project string, donor string, organization string, amount decimal)",
        &[],
    )
    .unwrap();

    let contracts = ContractRegistry::new();
    // A DApp procedure: record a donation, immediately transfer it to
    // the receiving organization, then report the donor's history.
    contracts
        .deploy(
            "donate_and_transfer",
            r#"
            INSERT INTO donate VALUES (?, ?, ?);
            INSERT INTO transfer VALUES (?, ?, ?, ?);
            SELECT * FROM donate WHERE donor = ?;
            "#,
        )
        .unwrap();
    assert_eq!(contracts.names(), vec!["donate_and_transfer".to_string()]);

    let rows = contracts
        .invoke(
            &n,
            "donate_and_transfer",
            &[
                Value::str("jack"),      // donate.donor
                Value::str("education"), // donate.project
                Value::Int(100),         // donate.amount
                Value::str("education"), // transfer.project
                Value::str("jack"),      // transfer.donor
                Value::str("school1"),   // transfer.organization
                Value::Int(100),         // transfer.amount
                Value::str("jack"),      // select donor
            ],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);

    // Wrong arity is rejected before anything commits.
    assert!(matches!(
        contracts.invoke(&n, "donate_and_transfer", &[Value::Int(1)]),
        Err(sebdb::ContractError::Arity { .. })
    ));
    // Unknown contract.
    assert!(matches!(
        contracts.invoke(&n, "nope", &[]),
        Err(sebdb::ContractError::Unknown(_))
    ));
    // Bad deployment script.
    assert!(contracts.deploy("broken", "FROB x").is_err());
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn projection_and_rendering() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute(
        "INSERT INTO donate VALUES (?, ?, ?)",
        &[Value::str("jack"), Value::str("edu"), Value::Int(42)],
    )
    .unwrap();
    let rows = n
        .execute(
            r#"SELECT amount, donor FROM donate WHERE project = "edu""#,
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(
        rows.columns,
        vec!["amount".to_string(), "donor".to_string()]
    );
    assert_eq!(rows.rows[0], vec![Value::decimal(42), Value::str("jack")]);
    // Unknown projected column errors.
    assert!(n
        .execute(r#"SELECT salary FROM donate WHERE project = "edu""#, &[])
        .is_err());
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn system_columns_queryable() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    let mut tid = 0;
    for i in 0..3 {
        if let ExecOutcome::Inserted { tid: t, .. } = n
            .execute(
                "INSERT INTO donate VALUES (?, ?, ?)",
                &[Value::str("x"), Value::str("p"), Value::Int(i)],
            )
            .unwrap()
        {
            tid = t;
        }
    }
    // Query on the system column `tid`.
    let rows = n
        .execute(
            "SELECT * FROM donate WHERE tid = ?",
            &[Value::Int(tid as i64)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn count_and_limit_via_node() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    for i in 0..7 {
        n.execute(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("jack"), Value::str("edu"), Value::Int(i * 10)],
        )
        .unwrap();
    }
    // COUNT(*) with a predicate.
    let rows = n
        .execute(
            "SELECT COUNT(*) FROM donate WHERE amount BETWEEN ? AND ?",
            &[Value::Int(10), Value::Int(40)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.columns, vec!["count".to_string()]);
    assert_eq!(rows.rows, vec![vec![Value::Int(4)]]);

    // LIMIT truncates.
    let rows = n
        .execute(
            r#"SELECT donor FROM donate WHERE project = "edu" LIMIT 3"#,
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 3);

    // LIMIT larger than the result is a no-op.
    let rows = n
        .execute(
            r#"SELECT * FROM donate WHERE project = "edu" LIMIT 100"#,
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 7);

    // COUNT over a join.
    n.execute(
        "CREATE transfer (project string, donor string, organization string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute(
        "INSERT INTO transfer VALUES (?, ?, ?, ?)",
        &[
            Value::str("edu"),
            Value::str("jack"),
            Value::str("org"),
            Value::Int(1),
        ],
    )
    .unwrap();
    let rows = n
        .execute(
            "SELECT COUNT(*) FROM donate, transfer ON donate.project = transfer.project",
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(7)]]);
    n.shutdown();
    kafka.shutdown();
}

#[test]
fn explain_describes_without_executing() {
    let (kafka, n) = setup();
    n.execute(
        "CREATE donate (donor string, project string, amount decimal)",
        &[],
    )
    .unwrap();
    n.execute(
        "INSERT INTO donate VALUES (?, ?, ?)",
        &[Value::str("jack"), Value::str("edu"), Value::Int(5)],
    )
    .unwrap();
    let height = n.ledger.height();

    // EXPLAIN SELECT describes the access path.
    let rows = n
        .execute(
            "EXPLAIN SELECT COUNT(*) FROM donate WHERE amount BETWEEN ? AND ? LIMIT 1",
            &[Value::Int(0), Value::Int(10)],
        )
        .unwrap()
        .rows()
        .unwrap();
    let text: Vec<String> = rows.rows.iter().map(|r| r[0].to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Post"), "{joined}");
    assert!(joined.contains("Query donate"), "{joined}");
    assert!(joined.contains("bitmap"), "{joined}");

    // EXPLAIN INSERT plans but does not commit.
    let rows = n
        .execute(
            "EXPLAIN INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("x"), Value::str("p"), Value::Int(1)],
        )
        .unwrap()
        .rows()
        .unwrap();
    assert!(rows.rows[0][0].to_string().contains("Insert"));
    assert_eq!(n.ledger.height(), height, "EXPLAIN must not execute");

    // EXPLAIN TRACE reports the arm and the one index it probes.
    n.register_operator("org1", n.id());
    let rows = n
        .execute(
            r#"EXPLAIN TRACE OPERATOR = "org1", OPERATION = "donate""#,
            &[],
        )
        .unwrap()
        .rows()
        .unwrap();
    let arm = rows.rows[0][0].to_string();
    assert!(arm.contains("one second-level probe (sen_id)"), "{arm}");
    n.shutdown();
    kafka.shutdown();
}
