//! Executor-level tests: the three blockchain operators and the range
//! paths against hand-built ledgers, including edge cases the figure
//! harness never hits.

use sebdb::{Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_offchain::OffchainDb;
use sebdb_sql::{BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::sync::Arc;

fn schema(name: &str, cols: &[(&str, DataType)]) -> TableSchema {
    TableSchema::new(
        name,
        cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
    )
}

fn ledger() -> Ledger {
    Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        MacKeypair::from_key([3; 32]),
    )
    .unwrap()
}

/// Appends one block per tx-group; timestamps are `block*1000 + slot`.
fn append_blocks(ledger: &Ledger, groups: Vec<Vec<(&str, KeyId, Vec<Value>)>>) {
    let mut tid = 1;
    for (b, group) in groups.into_iter().enumerate() {
        let txs: Vec<Transaction> = group
            .into_iter()
            .enumerate()
            .map(|(slot, (tname, sender, values))| {
                let mut t = Transaction::new(b as u64 * 1000 + slot as u64, sender, tname, values);
                t.tid = tid;
                tid += 1;
                t
            })
            .collect();
        ledger
            .append_ordered(OrderedBlock {
                seq: b as u64,
                timestamp_ms: (b as u64 + 1) * 1000,
                txs,
            })
            .unwrap();
    }
}

const A: KeyId = KeyId([1; 8]);
const B: KeyId = KeyId([2; 8]);

#[test]
fn empty_chain_queries_return_empty() {
    let l = ledger();
    let exec = Executor::new(&l, None);
    let s = schema("donate", &[("amount", DataType::Decimal)]);
    let plan = LogicalPlan::Query {
        schema: s,
        projection: vec![],
        predicates: vec![],
        window: None,
    };
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Auto] {
        assert!(exec.execute(&plan, strat).unwrap().is_empty());
    }
    let trace = LogicalPlan::Trace {
        window: None,
        operator: Some(Value::Bytes(A.as_bytes().to_vec())),
        operation: None,
    };
    assert!(exec.execute(&trace, Strategy::Layered).unwrap().is_empty());
}

#[test]
fn layered_without_index_is_a_clear_error() {
    let l = ledger();
    append_blocks(&l, vec![vec![("donate", A, vec![Value::decimal(5)])]]);
    let exec = Executor::new(&l, None);
    let s = schema("donate", &[("amount", DataType::Decimal)]);
    let plan = LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: s.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(Value::decimal(0), Value::decimal(10)),
        }],
        schema: s,
        projection: vec![],
        window: None,
    };
    let err = exec.execute(&plan, Strategy::Layered).unwrap_err();
    assert!(err.to_string().contains("no layered index"));
}

#[test]
fn non_indexable_predicates_still_filter() {
    // `<` and `<>` can't drive the layered index but must still apply.
    let l = ledger();
    append_blocks(
        &l,
        vec![vec![
            ("donate", A, vec![Value::decimal(5)]),
            ("donate", A, vec![Value::decimal(10)]),
            ("donate", A, vec![Value::decimal(15)]),
        ]],
    );
    let exec = Executor::new(&l, None);
    let s = schema("donate", &[("amount", DataType::Decimal)]);
    for (op, want) in [
        (CompareOp::Lt, 1),
        (CompareOp::Le, 2),
        (CompareOp::Gt, 1),
        (CompareOp::Ge, 2),
        (CompareOp::Ne, 2),
        (CompareOp::Eq, 1),
    ] {
        let plan = LogicalPlan::Query {
            predicates: vec![BoundPredicate {
                column: s.resolve("amount").unwrap(),
                kind: BoundPredicateKind::Compare(op, Value::decimal(10)),
            }],
            schema: s.clone(),
            projection: vec![],
            window: None,
        };
        let got = exec.execute(&plan, Strategy::Scan).unwrap().len();
        assert_eq!(got, want, "{op:?}");
    }
}

#[test]
fn conjunctive_predicates_all_apply_on_layered_path() {
    let l = ledger();
    append_blocks(
        &l,
        vec![vec![
            ("donate", A, vec![Value::str("jack"), Value::decimal(10)]),
            ("donate", A, vec![Value::str("rose"), Value::decimal(10)]),
            ("donate", A, vec![Value::str("jack"), Value::decimal(90)]),
        ]],
    );
    let s = schema(
        "donate",
        &[("donor", DataType::Str), ("amount", DataType::Decimal)],
    );
    l.create_layered_index(&s, "amount", Some(vec![0, 500_000, 1_000_000]))
        .unwrap();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::Query {
        predicates: vec![
            BoundPredicate {
                column: s.resolve("amount").unwrap(),
                kind: BoundPredicateKind::Between(Value::decimal(5), Value::decimal(50)),
            },
            BoundPredicate {
                column: s.resolve("donor").unwrap(),
                kind: BoundPredicateKind::Compare(CompareOp::Eq, Value::str("jack")),
            },
        ],
        schema: s,
        projection: vec![],
        window: None,
    };
    // Driver predicate (amount) via the index; residual (donor) must
    // still filter out rose.
    assert_eq!(exec.execute(&plan, Strategy::Layered).unwrap().len(), 1);
    assert_eq!(exec.execute(&plan, Strategy::Scan).unwrap().len(), 1);
}

#[test]
fn join_duplicate_keys_produce_cross_products() {
    let l = ledger();
    // 2 transfers and 3 distributes share org "x" → 6 join rows.
    append_blocks(
        &l,
        vec![
            vec![
                ("transfer", A, vec![Value::str("x")]),
                ("transfer", A, vec![Value::str("x")]),
            ],
            vec![
                ("distribute", B, vec![Value::str("x")]),
                ("distribute", B, vec![Value::str("x")]),
                ("distribute", B, vec![Value::str("x")]),
            ],
        ],
    );
    let left = schema("transfer", &[("organization", DataType::Str)]);
    let right = schema("distribute", &[("organization", DataType::Str)]);
    l.create_layered_index(&left, "organization", None).unwrap();
    l.create_layered_index(&right, "organization", None)
        .unwrap();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left,
        right,
        window: None,
    };
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
        assert_eq!(exec.execute(&plan, strat).unwrap().len(), 6, "{strat:?}");
    }
}

#[test]
fn self_join_on_same_table() {
    let l = ledger();
    append_blocks(
        &l,
        vec![vec![
            ("transfer", A, vec![Value::str("x")]),
            ("transfer", B, vec![Value::str("x")]),
        ]],
    );
    let s = schema("transfer", &[("organization", DataType::Str)]);
    l.create_layered_index(&s, "organization", None).unwrap();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::OnChainJoin {
        left_col: s.resolve("organization").unwrap(),
        right_col: s.resolve("organization").unwrap(),
        left: s.clone(),
        right: s,
        window: None,
    };
    // 2 × 2 pairs.
    for strat in [Strategy::Scan, Strategy::Layered] {
        assert_eq!(exec.execute(&plan, strat).unwrap().len(), 4, "{strat:?}");
    }
}

#[test]
fn join_respects_time_window() {
    let l = ledger();
    append_blocks(
        &l,
        vec![
            vec![("transfer", A, vec![Value::str("x")])], // block 0, ts 0
            vec![("distribute", B, vec![Value::str("x")])], // block 1, ts 1000
        ],
    );
    let left = schema("transfer", &[("organization", DataType::Str)]);
    let right = schema("distribute", &[("organization", DataType::Str)]);
    let exec = Executor::new(&l, None);
    // Window covering only block 0 excludes the distribute side.
    let plan = LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left,
        right,
        window: Some((0, 999)),
    };
    assert!(exec.execute(&plan, Strategy::Scan).unwrap().is_empty());
}

#[test]
fn onoff_join_duplicates_and_empty_sides() {
    let l = ledger();
    append_blocks(
        &l,
        vec![vec![
            ("distribute", A, vec![Value::str("tom")]),
            ("distribute", A, vec![Value::str("tom")]),
            ("distribute", A, vec![Value::str("none")]),
        ]],
    );
    let on = schema("distribute", &[("donee", DataType::Str)]);
    l.create_layered_index(&on, "donee", None).unwrap();

    let db = Arc::new(OffchainDb::new());
    db.create_table(
        "doneeinfo",
        vec![
            Column::new("donee", DataType::Str),
            Column::new("income", DataType::Decimal),
        ],
    )
    .unwrap();
    let conn = db.connect();
    // Two off-chain rows for tom → 2 × 2 = 4 join rows.
    conn.insert("doneeinfo", vec![Value::str("tom"), Value::decimal(1)])
        .unwrap();
    conn.insert("doneeinfo", vec![Value::str("tom"), Value::decimal(2)])
        .unwrap();

    let exec = Executor::new(&l, Some(&conn));
    let on_off = |off_table: &str| LogicalPlan::OnOffJoin {
        on_col: on.resolve("donee").unwrap(),
        on_table: on.clone(),
        off_table: off_table.into(),
        off_col: 0,
        off_columns: vec![
            Column::new("donee", DataType::Str),
            Column::new("income", DataType::Decimal),
        ],
        window: None,
    };
    let plan = on_off("doneeinfo");
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
        assert_eq!(exec.execute(&plan, strat).unwrap().len(), 4, "{strat:?}");
    }

    // Empty off-chain table → empty join, no error.
    conn.delete("doneeinfo", &sebdb_offchain::Predicate::True)
        .unwrap();
    assert!(exec.execute(&plan, Strategy::Layered).unwrap().is_empty());

    // An off-chain read that fails is the query's error under every
    // arm, never an empty join.
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
        let err = exec.execute(&on_off("nosuch"), strat).unwrap_err();
        assert!(
            matches!(err, sebdb::ExecError::Offchain(_)),
            "{strat:?}: {err}"
        );
    }
}

/// `NULL = NULL` is not a match: a `NULL` key on either side joins
/// nothing under any strategy. (The on-off hash arm used to probe
/// without the guard, so `Scan`/`Bitmap` paired an on-chain `NULL`
/// donee with an off-chain `NULL` key and `Layered` did not.)
#[test]
fn null_keys_never_join_under_any_strategy() {
    let l = ledger();
    append_blocks(
        &l,
        vec![
            vec![
                ("transfer", A, vec![Value::Null]),
                ("transfer", A, vec![Value::str("x")]),
            ],
            vec![
                ("distribute", B, vec![Value::Null]),
                ("distribute", B, vec![Value::str("x")]),
            ],
        ],
    );
    let left = schema("transfer", &[("organization", DataType::Str)]);
    let right = schema("distribute", &[("organization", DataType::Str)]);
    l.create_layered_index(&left, "organization", None).unwrap();
    l.create_layered_index(&right, "organization", None)
        .unwrap();
    let db = Arc::new(OffchainDb::new());
    let off_columns = vec![Column::new("organization", DataType::Str)];
    db.create_table("orginfo", off_columns.clone()).unwrap();
    let conn = db.connect();
    conn.insert("orginfo", vec![Value::Null]).unwrap();
    conn.insert("orginfo", vec![Value::str("x")]).unwrap();
    let exec = Executor::new(&l, Some(&conn));
    let q5 = LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left,
        right: right.clone(),
        window: None,
    };
    let q6 = LogicalPlan::OnOffJoin {
        on_col: right.resolve("organization").unwrap(),
        on_table: right,
        off_table: "orginfo".into(),
        off_col: 0,
        off_columns,
        window: None,
    };
    for plan in [&q5, &q6] {
        let scan = exec.execute(plan, Strategy::Scan).unwrap().rows;
        assert_eq!(scan.len(), 1, "only the \"x\" pair joins");
        for strat in [Strategy::Bitmap, Strategy::Layered, Strategy::Auto] {
            assert_eq!(exec.execute(plan, strat).unwrap().rows, scan, "{strat:?}");
        }
    }
}

/// A `NULL` off-chain key joins nothing, and it does not switch off
/// Algorithm 3's range pruning either: it sorts first, and the
/// off-chain range is taken over the non-`NULL` keys. With and without
/// one `NULL` row the `Layered` on-off join on a continuous indexed
/// column returns the same rows and does the same work — the same
/// `blocks_read`, `txs_read` and `bytes_read`, and over a frozen index
/// the same index blocks (there the range test reads the all-blocks
/// bitmap alone: a frozen block keeps no bucket bitmap).
#[test]
fn a_null_offchain_key_keeps_the_layered_range_pruning() {
    let l = ledger();
    // Block `b` holds the amounts `b * 100 ..= b * 100 + 19`.
    let groups: Vec<Vec<(&str, KeyId, Vec<Value>)>> = (0..40)
        .map(|b| {
            (0..20)
                .map(|i| ("donate", A, vec![Value::decimal(b * 100 + i)]))
                .collect()
        })
        .collect();
    append_blocks(&l, groups);
    let on = schema("donate", &[("amount", DataType::Decimal)]);
    l.create_layered_index(&on, "amount", None).unwrap();
    let off_columns = vec![
        Column::new("amount", DataType::Decimal),
        Column::new("note", DataType::Str),
    ];
    let grants = |with_null: bool| {
        let db = Arc::new(OffchainDb::new());
        db.create_table("grants", off_columns.clone()).unwrap();
        let conn = db.connect();
        let mut keys = vec![
            Value::decimal(1005),
            Value::decimal(1010),
            Value::decimal(1005),
        ];
        keys.extend(with_null.then_some(Value::Null));
        keys.push(Value::decimal(1203));
        for key in keys {
            conn.insert("grants", vec![key, Value::str("n")]).unwrap();
        }
        conn
    };
    let plan = LogicalPlan::OnOffJoin {
        on_col: on.resolve("amount").unwrap(),
        on_table: on.clone(),
        off_table: "grants".into(),
        off_col: 0,
        off_columns: off_columns.clone(),
        window: None,
    };
    let run = |conn: &sebdb_offchain::OffchainConnection| {
        let stats = &l.store().stats;
        stats.reset();
        let rows = Executor::new(&l, Some(conn))
            .execute(&plan, Strategy::Layered)
            .unwrap()
            .rows;
        let (blocks, _, txs) = stats.snapshot();
        let (hits, misses) = stats.index_cache_counts();
        (rows, (blocks, txs, stats.bytes_read(), hits + misses))
    };
    let (plain, with_null) = (grants(false), grants(true));
    for frozen in [false, true] {
        if frozen {
            assert!(l.checkpoint_indexes().unwrap() > 0, "nothing was frozen");
            // Warms the index-block cache: both runs below hit it.
            run(&plain);
        }
        let (rows, work) = run(&plain);
        assert_eq!(rows.len(), 4, "frozen: {frozen}");
        assert_eq!(run(&with_null), (rows, work), "frozen: {frozen}");
        assert_eq!(work.3 > 0, frozen, "{work:?}");
    }
}

/// `EXPLAIN` prints the arm a join resolves to, not the algorithm it
/// would have liked to run: with zero or one indexed side `Auto` is
/// the bitmap hash join and says which column lacks its index and how
/// many blocks each side scans; with both indexed it is Algorithm 2.
#[test]
fn explain_names_the_join_arm_auto_resolves_to() {
    let l = ledger();
    append_blocks(
        &l,
        vec![
            vec![("transfer", A, vec![Value::str("x")])],
            vec![("distribute", B, vec![Value::str("x")])],
            vec![
                ("transfer", A, vec![Value::str("y")]),
                ("distribute", B, vec![Value::str("y")]),
            ],
            vec![("donate", A, vec![Value::str("z")])],
        ],
    );
    let left = schema("transfer", &[("organization", DataType::Str)]);
    let right = schema("distribute", &[("organization", DataType::Str)]);
    let plan = LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left: left.clone(),
        right: right.clone(),
        window: None,
    };
    let none = explain(&l, &plan);
    assert!(none.contains("bitmap hash join"), "{none}");
    assert!(
        none.contains("transfer.organization: no layered index")
            && none.contains("distribute.organization: no layered index"),
        "{none}"
    );
    let part = |t: &str| l.store().partition_of(t).unwrap();
    let (t, d) = (part("transfer"), part("distribute"));
    let scans = format!(
        "scans transfer in 2 blocks of partition {t} (alone), \
         distribute in 2 blocks of partition {d} (alone); window holds 4 blocks"
    );
    assert!(none.contains(&scans), "{none}");
    assert!(!none.contains("Algorithm 2"), "{none}");

    l.create_layered_index(&left, "organization", None).unwrap();
    let one = explain(&l, &plan);
    assert!(one.contains("bitmap hash join"), "{one}");
    assert!(
        !one.contains("transfer.organization: no layered index")
            && one.contains("distribute.organization: no layered index"),
        "{one}"
    );

    l.create_layered_index(&right, "organization", None)
        .unwrap();
    let both = explain(&l, &plan);
    assert!(both.contains("layered, Algorithm 2"), "{both}");
    assert!(!both.contains("hash join"), "{both}");

    // The on-off join resolves on its one on-chain side — including a
    // system column (`ts`), which the old inline mapping did not know.
    let on_off = |col: &str| LogicalPlan::OnOffJoin {
        on_col: right.resolve(col).unwrap(),
        on_table: right.clone(),
        off_table: "orginfo".into(),
        off_col: 0,
        off_columns: vec![Column::new("organization", DataType::Str)],
        window: None,
    };
    let indexed = explain(&l, &on_off("organization"));
    assert!(indexed.contains("layered, Algorithm 3"), "{indexed}");
    let by_ts = explain(&l, &on_off("ts"));
    let scans = format!(
        "distribute.ts: no layered index; \
         scans distribute in 2 blocks of partition {d} (alone); window holds 4 blocks"
    );
    assert!(by_ts.contains(&scans), "{by_ts}");
    l.create_layered_index(&right, "ts", None).unwrap();
    let by_ts = explain(&l, &on_off("ts"));
    assert!(by_ts.contains("layered, Algorithm 3"), "{by_ts}");
}

/// With more relations than partitions the relation placed last wraps
/// around onto the first one's partition, and `EXPLAIN` says whose
/// tuples its hash-arm scan reads beside its own.
#[test]
fn explain_names_the_relations_a_hash_arm_scan_shares_its_partition_with() {
    let l = Ledger::new(
        Arc::new(
            BlockStore::temporary(StoreConfig {
                partitions: 2,
                ..StoreConfig::default()
            })
            .unwrap(),
        ),
        MacKeypair::from_key([3; 32]),
    )
    .unwrap();
    append_blocks(
        &l,
        vec![
            vec![("transfer", A, vec![Value::str("x")])],
            vec![("distribute", B, vec![Value::str("x")])],
            vec![
                ("donate", A, vec![Value::str("x")]),
                ("distribute", B, vec![Value::str("y")]),
            ],
        ],
    );
    let donate = schema("donate", &[("organization", DataType::Str)]);
    let distribute = schema(
        "distribute",
        &[("organization", DataType::Str), ("memo", DataType::Str)],
    );
    let plan = LogicalPlan::OnChainJoin {
        left_col: donate.resolve("organization").unwrap(),
        right_col: distribute.resolve("organization").unwrap(),
        left: donate,
        right: distribute,
        window: None,
    };
    let text = explain(&l, &plan);
    assert!(
        text.contains(
            "scans donate in 1 blocks of partition 0 (shared with transfer), \
             distribute in 2 blocks of partition 1 (alone); window holds 3 blocks"
        ),
        "{text}"
    );
}

/// `EXPLAIN TRACE` names the arm `Auto` resolves to — the view
/// registered for the trace, else Layered with the one second level it
/// probes and, for two dimensions, whether the operation has its
/// partition to itself — and the partitions the Scan and Bitmap arms
/// read.
#[test]
fn explain_says_how_a_trace_runs() {
    let l = Ledger::new(
        Arc::new(
            BlockStore::temporary(StoreConfig {
                partitions: 2,
                ..StoreConfig::default()
            })
            .unwrap(),
        ),
        MacKeypair::from_key([3; 32]),
    )
    .unwrap();
    append_blocks(
        &l,
        vec![
            vec![("transfer", A, vec![Value::str("x")])],
            vec![("distribute", B, vec![Value::str("x")])],
            vec![("donate", A, vec![Value::str("x")])],
        ],
    );
    let trace = |operator: Option<KeyId>, operation: Option<&str>| LogicalPlan::Trace {
        window: None,
        operator: operator.map(|k| Value::Bytes(k.as_bytes().to_vec())),
        operation: operation.map(str::to_owned),
    };
    let explain = |plan: &LogicalPlan| {
        let explain = LogicalPlan::Explain(Box::new(plan.clone()));
        let out = Executor::new(&l, None).execute(&explain, Strategy::Auto);
        let rows = out.unwrap().rows;
        let text = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        };
        rows.iter().map(|r| text(&r[0])).collect::<Vec<_>>()
    };
    let probe = "auto: layered, one second-level probe (sen_id)";
    assert_eq!(
        explain(&trace(Some(A), Some("distribute"))),
        [
            format!("Trace [Algorithm 1; {probe}, then the tuple table keeps distribute's partition 1 (alone)]"),
            "  scan and bitmap arms read partition 1 (distribute)".to_string(),
        ]
    );
    let shared = explain(&trace(Some(A), Some("transfer")));
    assert!(
        shared[0].ends_with("keeps transfer's partition 0 (shared with donate)]"),
        "{shared:?}"
    );
    assert_eq!(
        shared[1],
        "  scan and bitmap arms read partition 0 (transfer, donate)"
    );
    assert_eq!(
        explain(&trace(Some(A), None)),
        [
            "Trace [Algorithm 1; auto: layered, one second-level probe (sen_id)]",
            "  scan and bitmap arms read partition 0 (transfer, donate), partition 1 (distribute)",
        ]
    );
    // An operation alone has no second level to probe: `Auto` runs the
    // Bitmap arm, whose partitions the next line names.
    assert_eq!(
        explain(&trace(None, Some("donate"))),
        [
            "Trace [Algorithm 1; auto: bitmap, tname's first level prunes the scan]",
            "  scan and bitmap arms read partition 0 (transfer, donate)",
        ]
    );
    let absent = explain(&trace(Some(A), Some("refund")));
    assert!(
        absent[0].ends_with("keeps nothing (refund not on the chain)]"),
        "{absent:?}"
    );
    assert_eq!(
        absent[1],
        "  scan and bitmap arms read nothing (not on the chain)"
    );
    // A registered view serves the trace it was registered for, and
    // only that one.
    let spec = sebdb_sql::TraceSpec::new(None, Some(A.0), Some("transfer"));
    assert!(l.register_trace_view(spec).unwrap());
    let viewed = explain(&trace(Some(A), Some("transfer")));
    assert_eq!(
        viewed[0],
        "Trace [Algorithm 1; auto: the registered view on this trace, no index probed]"
    );
    assert!(explain(&trace(Some(B), Some("transfer")))[0].contains("auto: layered"));
}

#[test]
fn onoff_join_without_offchain_connection_errors() {
    let l = ledger();
    let exec = Executor::new(&l, None);
    let on = schema("distribute", &[("donee", DataType::Str)]);
    let plan = LogicalPlan::OnOffJoin {
        on_col: on.resolve("donee").unwrap(),
        on_table: on,
        off_table: "doneeinfo".into(),
        off_col: 0,
        off_columns: vec![Column::new("donee", DataType::Str)],
        window: None,
    };
    assert!(exec.execute(&plan, Strategy::Auto).is_err());
}

#[test]
fn tracking_dimensions_intersect_exactly() {
    let l = ledger();
    append_blocks(
        &l,
        vec![
            vec![
                ("donate", A, vec![Value::Int(1)]),
                ("transfer", A, vec![Value::Int(2)]),
                ("transfer", B, vec![Value::Int(3)]),
            ],
            vec![
                ("transfer", A, vec![Value::Int(4)]),
                ("donate", B, vec![Value::Int(5)]),
            ],
        ],
    );
    let exec = Executor::new(&l, None);
    let run = |operator: Option<KeyId>, operation: Option<&str>, strat| {
        let plan = LogicalPlan::Trace {
            window: None,
            operator: operator.map(|k| Value::Bytes(k.as_bytes().to_vec())),
            operation: operation.map(str::to_owned),
        };
        exec.execute(&plan, strat).unwrap().len()
    };
    for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
        assert_eq!(run(Some(A), None, strat), 3, "{strat:?} A");
        assert_eq!(run(None, Some("transfer"), strat), 3, "{strat:?} transfer");
        assert_eq!(run(Some(A), Some("transfer"), strat), 2, "{strat:?} both");
        assert_eq!(run(Some(B), Some("donate"), strat), 1, "{strat:?} B donate");
    }
}

#[test]
fn tracking_needs_a_dimension() {
    let l = ledger();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::Trace {
        window: None,
        operator: None,
        operation: None,
    };
    assert!(exec.execute(&plan, Strategy::Layered).is_err());
}

#[test]
fn writes_rejected_by_executor() {
    let l = ledger();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::Insert {
        table: "donate".into(),
        row: vec![],
    };
    assert!(exec.execute(&plan, Strategy::Auto).is_err());
}

#[test]
fn auto_strategy_picks_layered_for_selective_queries() {
    let l = ledger();
    let groups: Vec<Vec<(&str, KeyId, Vec<Value>)>> = (0..30)
        .map(|b| {
            (0..20)
                .map(|i| ("donate", A, vec![Value::decimal((b * 20 + i) as i64)]))
                .collect()
        })
        .collect();
    append_blocks(&l, groups);
    let s = schema("donate", &[("amount", DataType::Decimal)]);
    l.create_layered_index(&s, "amount", None).unwrap();
    let exec = Executor::new(&l, None);
    let plan = LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: s.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(Value::decimal(100), Value::decimal(105)),
        }],
        schema: s,
        projection: vec![],
        window: None,
    };
    l.store().stats.reset();
    let rows = exec.execute(&plan, Strategy::Auto).unwrap();
    assert_eq!(rows.len(), 6);
    let (blocks_read, _, _) = l.store().stats.snapshot();
    assert!(
        blocks_read < 30,
        "auto should not scan all blocks (read {blocks_read})"
    );
}

/// 40 blocks × 100 `donate` rows where block `b` holds the amounts
/// `i * 40 + b`: every block spans the whole value range, so every
/// histogram bucket lists every block and the layered index's first
/// level prunes nothing — the planner has to be right without it.
fn uninformative_first_level(index_cache_blocks: Option<usize>) -> (Ledger, TableSchema) {
    let cfg = StoreConfig {
        index_cache_blocks,
        ..StoreConfig::default()
    };
    let l = Ledger::new(
        Arc::new(BlockStore::temporary(cfg).unwrap()),
        MacKeypair::from_key([3; 32]),
    )
    .unwrap();
    let groups: Vec<Vec<(&str, KeyId, Vec<Value>)>> = (0..40)
        .map(|b| {
            (0..100)
                .map(|i| ("donate", A, vec![Value::decimal(i * 40 + b)]))
                .collect()
        })
        .collect();
    append_blocks(&l, groups);
    let s = schema("donate", &[("amount", DataType::Decimal)]);
    l.create_layered_index(&s, "amount", None).unwrap();
    (l, s)
}

fn amount_between(s: &TableSchema, lo: i64, hi: i64, window: Option<(u64, u64)>) -> LogicalPlan {
    LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: s.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(Value::decimal(lo), Value::decimal(hi)),
        }],
        schema: s.clone(),
        projection: vec![],
        window,
    }
}

/// Runs `plan` under `strategy` on a fresh executor; returns the rows
/// and the payload bytes the store fetched for them.
fn rows_and_bytes(l: &Ledger, plan: &LogicalPlan, strategy: Strategy) -> (Vec<Vec<Value>>, u64) {
    l.store().stats.reset();
    let rows = Executor::new(l, None).execute(plan, strategy).unwrap().rows;
    (rows, l.store().stats.bytes_read())
}

fn explain(l: &Ledger, plan: &LogicalPlan) -> String {
    let out = Executor::new(l, None)
        .execute(
            &LogicalPlan::Explain(Box::new(plan.clone())),
            Strategy::Auto,
        )
        .unwrap();
    out.rows[0][0].to_string()
}

/// The pointer count at which `EXPLAIN` says the index walk gave up.
fn abandon_point(explain: &str) -> u64 {
    let tail = explain
        .split("abandoned at p >= ")
        .nth(1)
        .unwrap_or_else(|| panic!("no abandon point in: {explain}"));
    let digits = tail.split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().unwrap()
}

/// Every access path returns `want` rows, identical as ordered vectors.
fn assert_all_paths_agree(l: &Ledger, plan: &LogicalPlan, want: usize) {
    let (scan, _) = rows_and_bytes(l, plan, Strategy::Scan);
    assert_eq!(scan.len(), want);
    for strat in [Strategy::Bitmap, Strategy::Layered, Strategy::Auto] {
        let (rows, _) = rows_and_bytes(l, plan, strat);
        assert_eq!(rows, scan, "{strat:?} differs from the scan answer");
    }
}

#[test]
fn auto_counts_the_result_when_the_first_level_prunes_nothing() {
    let (l, s) = uninformative_first_level(None);
    // Five rows, in blocks 0..=4; the first level prunes none of the
    // 40 resident trees.
    let plan = amount_between(&s, 1000, 1004, None);
    assert_all_paths_agree(&l, &plan, 5);
    let (_, auto_bytes) = rows_and_bytes(&l, &plan, Strategy::Auto);
    let (_, bitmap_bytes) = rows_and_bytes(&l, &plan, Strategy::Bitmap);
    assert!(
        auto_bytes < bitmap_bytes,
        "a 5-row answer must not cost the chain: auto read {auto_bytes} B, bitmap {bitmap_bytes} B"
    );
    let text = explain(&l, &plan);
    assert!(text.contains("layered: "), "{text}");
    assert!(text.contains("p = 5 exact"), "{text}");
    assert!(text.contains("0 index blocks spanned"), "{text}");
    assert!(text.contains("5 of 5 rows scanned kept"), "{text}");
}

#[test]
fn auto_abandons_the_probe_within_budget_on_a_wide_range() {
    let (l, s) = uninformative_first_level(None);
    // Half the table: 50 rows in every block.
    let plan = amount_between(&s, 0, 1999, None);
    assert_all_paths_agree(&l, &plan, 2000);
    // The probe reads no tuple, so giving up on it costs no I/O: auto
    // fetches exactly what the block path it falls back to fetches.
    let (_, auto_bytes) = rows_and_bytes(&l, &plan, Strategy::Auto);
    let (_, scan_bytes) = rows_and_bytes(&l, &plan, Strategy::Scan);
    assert_eq!(auto_bytes, scan_bytes);
    let text = explain(&l, &plan);
    assert!(text.contains("Query donate [scan: "), "{text}");
    // Eq. 3 crosses Eq. 2 at 26 pointers per table block; over
    // resident trees the probe asks after each tree, so it may
    // overshoot by one block's hits (50 here) and no more.
    let cost = sebdb_index::CostParams::default();
    let crossover = (0..).find(|&p| cost.choose(40, 40, p) != sebdb_index::AccessPath::Layered);
    let (p, crossover) = (abandon_point(&text), crossover.unwrap());
    assert!((25 * 40..=26 * 40).contains(&crossover));
    assert!((crossover..crossover + 50).contains(&p), "{text}");
}

#[test]
fn auto_probes_only_the_window_over_a_frozen_index() {
    let (l, s) = uninformative_first_level(Some(8));
    assert!(l.checkpoint_indexes().unwrap() > 0, "nothing was frozen");
    // Tuples of blocks 10..=29; the (conservative) block mask adds
    // block 9, so 21 of the 40 blocks are inside the window.
    let window = Some((10_000, 29_999));

    let selective = amount_between(&s, 1010, 1014, window);
    assert_all_paths_agree(&l, &selective, 5);
    let (_, auto_bytes) = rows_and_bytes(&l, &selective, Strategy::Auto);
    let (_, bitmap_bytes) = rows_and_bytes(&l, &selective, Strategy::Bitmap);
    assert!(
        auto_bytes < bitmap_bytes,
        "auto read {auto_bytes} B, bitmap {bitmap_bytes} B"
    );
    let text = explain(&l, &selective);
    assert!(text.contains("p = 5 exact"), "{text}");
    // One run block holds the five adjacent values, whatever the chain
    // length.
    assert!(text.contains(" 1 index blocks spanned"), "{text}");
    assert!(text.contains("5 of 5 rows scanned kept"), "{text}");
    assert!(text.contains("scan(21 blocks)"), "{text}");
    // Rows of blocks outside the window are scanned (the run is in
    // value order) but not kept: amounts 1005..=1014 sit in blocks
    // 5..=14, six of them inside the block mask. (The scan starts at
    // `(1005, first masked block)`, which is past 1005's own row.)
    let text = explain(&l, &amount_between(&s, 1005, 1014, window));
    assert!(text.contains("6 of 9 rows scanned kept"), "{text}");

    let wide = amount_between(&s, 0, 1999, window);
    assert_all_paths_agree(&l, &wide, 1000);
    let text = explain(&l, &wide);
    assert!(text.contains("Query donate [scan: "), "{text}");
    assert!(abandon_point(&text) <= 26 * 21, "{text}");
}

/// The cases Q4's Scan and Bitmap arms decide from a tuple's bytes,
/// before decoding it: a `NULL` in the indexed column, a second
/// predicate on an unindexed column (with `NULL`s of its own), a
/// projection list, tuples exactly on the window's edges, and a
/// relation sharing the extent (`partitions: 1`) whose rows would pass
/// every predicate. Every access path returns the same rows in the same
/// order.
#[test]
fn projected_scan_arms_agree_with_every_path() {
    let l = Ledger::new(
        Arc::new(
            BlockStore::temporary(StoreConfig {
                partitions: 1,
                ..StoreConfig::default()
            })
            .unwrap(),
        ),
        MacKeypair::from_key([3; 32]),
    )
    .unwrap();
    // Block `b`, slot `i`: four `donate` rows, then two `volunteer`
    // rows of the same shape and in range.
    let donate_row = |b: i64, i: i64| {
        let amount = match (b + i) % 5 {
            0 => Value::Null,
            _ => Value::decimal(b * 10 + i),
        };
        let note = match (i % 3, (b + i) % 2) {
            (0, _) => Value::Null,
            (_, 0) => Value::str("x"),
            _ => Value::str("y"),
        };
        vec![amount, note]
    };
    let groups: Vec<Vec<(&str, KeyId, Vec<Value>)>> = (0..12)
        .map(|b| {
            let mut txs: Vec<(&str, KeyId, Vec<Value>)> =
                (0..4).map(|i| ("donate", A, donate_row(b, i))).collect();
            for i in 0..2 {
                txs.push((
                    "volunteer",
                    B,
                    vec![Value::decimal(b * 10 + i), Value::str("x")],
                ));
            }
            txs
        })
        .collect();
    append_blocks(&l, groups);
    assert!(l.store().co_located("donate", "volunteer"));
    let s = schema(
        "donate",
        &[("amount", DataType::Decimal), ("note", DataType::Str)],
    );
    l.create_layered_index(&s, "amount", None).unwrap();

    // The window's edges are tuples: block 3 slot 1 and block 7 slot 2.
    let window = Some((3_001, 7_002));
    let note_is_x = BoundPredicate {
        column: s.resolve("note").unwrap(),
        kind: BoundPredicateKind::Compare(CompareOp::Eq, Value::str("x")),
    };
    let want = |x_only: bool, windowed: bool| {
        let in_window = |b: i64, i: i64| !windowed || (3_001..=7_002).contains(&(b * 1000 + i));
        let rows = (0..12).flat_map(|b| (0..4).map(move |i| (b, i)));
        rows.filter(|&(b, i)| {
            let row = donate_row(b, i);
            row[0] != Value::Null && (!x_only || row[1] == Value::str("x")) && in_window(b, i)
        })
        .count()
    };
    let with = |plan: LogicalPlan, extra: Option<&BoundPredicate>, projection: &[&str]| {
        let LogicalPlan::Query {
            schema,
            mut predicates,
            window,
            ..
        } = plan
        else {
            unreachable!()
        };
        predicates.extend(extra.cloned());
        LogicalPlan::Query {
            schema,
            projection: projection.iter().map(|c| c.to_string()).collect(),
            predicates,
            window,
        }
    };
    let all = amount_between(&s, 0, 1000, None);
    let edged = amount_between(&s, 0, 1000, window);
    let cases = [
        (with(all.clone(), None, &[]), want(false, false)),
        (with(all.clone(), Some(&note_is_x), &[]), want(true, false)),
        (
            with(all, None, &["note", "tid", "amount"]),
            want(false, false),
        ),
        (with(edged.clone(), None, &[]), want(false, true)),
        (
            with(edged, Some(&note_is_x), &["amount", "ts"]),
            want(true, true),
        ),
    ];
    for (plan, want) in &cases {
        assert_all_paths_agree(&l, plan, *want);
    }
}

/// The relation-run map — the one intra-query site that fans out —
/// does so above its floor and returns what the sequential loop
/// returns: a chain whose relation scans plan at least two floors of
/// runs each, queried at worker caps 1 and 4 (so the parallel branch
/// runs in every CI pass, whatever `SEBDB_THREADS` says). The layered
/// arms run beside them as plain loops and must agree too.
#[test]
fn sites_above_their_floors_fan_out_and_match_sequential() {
    use sebdb_parallel::FLOOR_BLOCK;
    let blocks: i64 = 520;
    let transfers_per_block = 4;
    let rows = (blocks * transfers_per_block) as usize;
    // A memo pads each transfer and distribute so both relation scans —
    // the hash join's probe and build sides — cut into enough
    // byte-sized runs to fan out.
    let memo = Value::str("m".repeat(200));
    // Every key repeats on both sides: a block's transfers share its
    // organization, and so do its two distributes and the two
    // off-chain rows, so every join row's probe tuple has two matches
    // (its row is cloned once, then moved) and every build tuple is
    // matched by several probes.
    let distributes_per_block = 2;

    let l = ledger();
    let groups: Vec<Vec<(&str, KeyId, Vec<Value>)>> = (0..blocks)
        .map(|b| {
            let org = Value::str(format!("org{b:04}"));
            let mut txs: Vec<(&str, KeyId, Vec<Value>)> = (0..transfers_per_block)
                .map(|i| {
                    let amount = Value::decimal(b * transfers_per_block + i);
                    ("transfer", A, vec![org.clone(), amount, memo.clone()])
                })
                .collect();
            for _ in 0..distributes_per_block {
                txs.push(("distribute", B, vec![org.clone(), memo.clone()]));
            }
            txs
        })
        .collect();
    append_blocks(&l, groups);
    // One fan-out item per planned run of each relation scan.
    let all: Vec<u64> = (0..blocks as u64).collect();
    for relation in ["transfer", "distribute"] {
        let runs = l.store().relation_runs(&all, relation).len();
        assert!(runs >= 2 * FLOOR_BLOCK, "{relation}: {runs} runs");
    }
    let transfer = schema(
        "transfer",
        &[
            ("organization", DataType::Str),
            ("amount", DataType::Decimal),
            ("memo", DataType::Str),
        ],
    );
    let distribute = schema(
        "distribute",
        &[("organization", DataType::Str), ("memo", DataType::Str)],
    );
    l.create_layered_index(&transfer, "amount", None).unwrap();
    l.create_layered_index(&transfer, "organization", None)
        .unwrap();
    l.create_layered_index(&distribute, "organization", None)
        .unwrap();

    let db = Arc::new(OffchainDb::new());
    let org_columns = vec![Column::new("organization", DataType::Str)];
    db.create_table("orginfo", org_columns.clone()).unwrap();
    let conn = db.connect();
    for b in 0..blocks {
        for _ in 0..distributes_per_block {
            conn.insert("orginfo", vec![Value::str(format!("org{b:04}"))])
                .unwrap();
        }
    }

    // Each plan with the rows it answers: one per transfer, or one per
    // transfer and matching distribute (or off-chain row).
    let joined = rows * distributes_per_block;
    let plans = [
        // Layered: pointer runs; scan: relation runs.
        (amount_between(&transfer, 0, rows as i64, None), rows),
        // Layered: pointer runs; scan: relation runs of every partition.
        (
            LogicalPlan::Trace {
                window: None,
                operator: Some(Value::Bytes(A.as_bytes().to_vec())),
                operation: None,
            },
            rows,
        ),
        // Scan: hash-join build scan, projection and probe per planned
        // run, rows assembled in the probe's workers; layered: one
        // sort-merge over the second-level leaves.
        (
            LogicalPlan::OnChainJoin {
                left_col: transfer.resolve("organization").unwrap(),
                right_col: distribute.resolve("organization").unwrap(),
                left: transfer.clone(),
                right: distribute,
                window: None,
            },
            joined,
        ),
        // Scan: probe per planned run, rows assembled in its workers;
        // layered: one sort-merge against the sorted off-chain rows.
        (
            LogicalPlan::OnOffJoin {
                on_col: transfer.resolve("organization").unwrap(),
                on_table: transfer.clone(),
                off_table: "orginfo".into(),
                off_col: 0,
                off_columns: org_columns,
                window: None,
            },
            joined,
        ),
    ];
    let run_all = || {
        let exec = Executor::new(&l, Some(&conn));
        let mut results = Vec::new();
        for (plan, want) in &plans {
            for strat in [Strategy::Scan, Strategy::Layered] {
                let result = exec.execute(plan, strat).unwrap().rows;
                assert_eq!(result.len(), *want, "{strat:?}");
                results.push(result);
            }
        }
        results
    };
    let ambient = sebdb_parallel::max_threads();
    sebdb_parallel::set_max_threads(1);
    let sequential = run_all();
    sebdb_parallel::set_max_threads(4);
    let parallel = run_all();
    sebdb_parallel::set_max_threads(ambient);
    assert_eq!(sequential, parallel);
}
