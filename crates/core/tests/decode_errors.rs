//! A tuple a query decodes fails as `RawTuple::decode` fails on it.
//!
//! Projection steps over string values without checking their UTF-8;
//! the full decode of a tuple a query returns checks it. One string
//! payload is made invalid UTF-8 on disk, in a column no query filters
//! or joins on, in a tuple a match decodes — Q5's build side and Q6's
//! probe side (a `distribute` tuple), Q5's probe side and a Q4 Scan or
//! Bitmap or Layered row (a `transfer` tuple) — and a trace that
//! returns it, of its operation or of its operator alone, under Scan,
//! Bitmap and Layered. Every such query, flat and partitioned, at one
//! worker and at four, must return the typed `Corrupt` error naming
//! that tuple with `RawTuple::decode`'s message, and not panic; an
//! authenticated range over it must return no response.

use sebdb::{serve_authenticated_query, ExecError, Executor, Ledger, LedgerError, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::KeyPredicate;
use sebdb_offchain::{OffchainConnection, OffchainDb};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, LogicalPlan};
use sebdb_storage::{BlockStore, StorageError, StoreConfig};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const BLOCKS: u64 = 40;
/// The damaged tuple is the second of its relation in this block.
const BAD_BLOCK: u64 = 17;
/// Opens the damaged tuple's memo; its first byte becomes `0xff`.
const MARKER: &str = "XBADX";

fn transfer() -> TableSchema {
    TableSchema::new(
        "transfer",
        vec![
            Column::new("organization", DataType::Str),
            Column::new("amount", DataType::Decimal),
            Column::new("memo", DataType::Str),
        ],
    )
}

fn distribute() -> TableSchema {
    TableSchema::new(
        "distribute",
        vec![
            Column::new("organization", DataType::Str),
            Column::new("donee", DataType::Str),
            Column::new("memo", DataType::Str),
        ],
    )
}

/// Three `transfer` and three `distribute` tuples a block, each with a
/// 2 500-byte memo (so every relation scan cuts into enough runs to
/// fan out at four workers); organizations `o0`–`o5` and donees
/// `e0`–`e9` repeat, so every tuple joins; `transfer.amount` has a
/// layered index. `bad` names the relation whose tuple gets the marked
/// memo.
fn ledger_with(partitions: usize, bad: &str) -> Ledger {
    let store = BlockStore::temporary(StoreConfig {
        partitions,
        ..StoreConfig::default()
    })
    .unwrap();
    let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([3; 32])).unwrap();
    let mut tid = 1;
    for b in 0..BLOCKS {
        let org = Value::str(format!("o{}", b % 6));
        let mut txs = Vec::new();
        for (tname, i) in ["transfer", "distribute"]
            .into_iter()
            .flat_map(|t| (0..3).map(move |i| (t, i)))
        {
            let memo = match b == BAD_BLOCK && i == 1 && tname == bad {
                true => format!("{MARKER}{}", "m".repeat(2_495)),
                false => "m".repeat(2_500),
            };
            let values = match tname {
                "transfer" => vec![org.clone(), Value::decimal((b * 3 + i) as i64)],
                _ => vec![org.clone(), Value::str(format!("e{}", (b + i) % 10))],
            };
            let values = values.into_iter().chain([Value::str(memo)]).collect();
            let mut tx = Transaction::new(b * 1000 + i, KeyId([1; 8]), tname, values);
            tx.tid = tid;
            tid += 1;
            txs.push(tx);
        }
        ledger
            .append_ordered(OrderedBlock {
                seq: b,
                timestamp_ms: (b + 1) * 1000,
                txs,
            })
            .unwrap();
    }
    let all: Vec<u64> = (0..BLOCKS).collect();
    for table in ["transfer", "distribute"] {
        let runs = ledger.store().relation_runs(&all, table).len();
        assert!(
            runs >= 2 * sebdb_parallel::FLOOR_BLOCK,
            "{table}: {runs} runs"
        );
    }
    ledger
        .create_layered_index(&transfer(), "amount", None)
        .unwrap();
    ledger
}

/// Overwrites the marker's first byte with `0xff` wherever it is on
/// disk under `dir`; returns how many copies it changed.
fn damage(dir: &Path) -> usize {
    let mut found = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found += damage(&path);
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        for at in (0..bytes.len()).filter(|&at| bytes[at..].starts_with(MARKER.as_bytes())) {
            let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&[0xff]).unwrap();
            found += 1;
        }
    }
    found
}

/// The message `RawTuple::decode` gives for the one tuple of `table`
/// that no longer decodes.
fn decode_error(ledger: &Ledger, table: &str) -> String {
    let all: Vec<u64> = (0..BLOCKS).collect();
    let extents = ledger.scan_relation_raw(&all, table).unwrap();
    let failures: Vec<String> = extents
        .iter()
        .flat_map(|e| e.tuples())
        .filter_map(|t| match t.decode() {
            Err(StorageError::Corrupt(msg)) => Some(msg),
            Err(e) => panic!("{e:?}"),
            Ok(_) => None,
        })
        .collect();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with(&format!("tx {BAD_BLOCK}/")),
        "{}",
        failures[0]
    );
    failures[0].clone()
}

fn offchain() -> OffchainConnection {
    let db = Arc::new(OffchainDb::new());
    let columns = vec![Column::new("donee", DataType::Str)];
    db.create_table("doneeinfo", columns).unwrap();
    let conn = db.connect();
    for n in 0..10 {
        conn.insert("doneeinfo", vec![Value::str(format!("e{n}"))])
            .unwrap();
    }
    conn
}

fn q5() -> LogicalPlan {
    let (left, right) = (transfer(), distribute());
    LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left,
        right,
        window: None,
    }
}

fn q6() -> LogicalPlan {
    let on = distribute();
    LogicalPlan::OnOffJoin {
        on_col: on.resolve("donee").unwrap(),
        on_table: on,
        off_table: "doneeinfo".into(),
        off_col: 0,
        off_columns: vec![Column::new("donee", DataType::Str)],
        window: None,
    }
}

/// Every `transfer` amount lies in it.
fn q4_range() -> (Value, Value) {
    (Value::decimal(0), Value::decimal(1_000))
}

fn q4() -> LogicalPlan {
    let schema = transfer();
    let (lo, hi) = q4_range();
    LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: schema.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(lo, hi),
        }],
        schema,
        projection: vec![],
        window: None,
    }
}

/// A trace of every tuple `KeyId([1; 8])` sent, of `operation` only
/// when given.
fn trace(operation: Option<&str>) -> LogicalPlan {
    LogicalPlan::Trace {
        window: None,
        operator: Some(Value::Bytes(vec![1; 8])),
        operation: operation.map(str::to_owned),
    }
}

/// `plan` under `arm` fails with exactly `want`.
fn assert_corrupt(exec: &Executor, plan: &LogicalPlan, arm: Strategy, want: &str, at: &str) {
    match exec.execute(plan, arm) {
        Err(ExecError::Ledger(LedgerError::Storage(StorageError::Corrupt(msg)))) => {
            assert_eq!(msg, want, "{at}")
        }
        other => panic!("{at}: {other:?}"),
    }
}

#[test]
fn a_traced_tuple_that_does_not_decode_fails_as_decode_does() {
    let ambient = sebdb_parallel::max_threads();
    for bad in ["transfer", "distribute"] {
        let plans = [
            ("two dimensions", trace(Some(bad))),
            ("operator", trace(None)),
        ];
        for partitions in [8, 1] {
            let ledger = ledger_with(partitions, bad);
            let exec = Executor::new(&ledger, None);
            for (_, plan) in &plans {
                assert!(!exec.execute(plan, Strategy::Layered).unwrap().is_empty());
            }
            assert_eq!(damage(ledger.store().dir()), 1);
            let want = decode_error(&ledger, bad);
            for cap in [1, 4] {
                sebdb_parallel::set_max_threads(cap);
                for (name, plan) in &plans {
                    for arm in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
                        let at = format!("{bad} {name}, {arm:?}, p{partitions}, cap {cap}");
                        assert_corrupt(&exec, plan, arm, &want, &at);
                    }
                }
            }
        }
    }
    sebdb_parallel::set_max_threads(ambient);
}

#[test]
fn a_matched_tuple_that_does_not_decode_fails_as_decode_does() {
    let conn = offchain();
    let ambient = sebdb_parallel::max_threads();
    // The damaged relation, and the queries that decode its tuple:
    // `distribute` is Q5's build side and Q6's probe side, `transfer`
    // Q5's probe side and Q4's returned rows.
    let cases = [
        ("distribute", [("Q5 build", q5()), ("Q6 probe", q6())]),
        ("transfer", [("Q5 probe", q5()), ("Q4", q4())]),
    ];
    for (bad, plans) in cases {
        for partitions in [8, 1] {
            let ledger = ledger_with(partitions, bad);
            let exec = Executor::new(&ledger, Some(&conn));
            // Before the damage, every query answers.
            for (_, plan) in &plans {
                assert!(!exec.execute(plan, Strategy::Scan).unwrap().is_empty());
            }
            assert_eq!(damage(ledger.store().dir()), 1);
            let want = decode_error(&ledger, bad);
            for cap in [1, 4] {
                sebdb_parallel::set_max_threads(cap);
                for (name, plan) in &plans {
                    let layered = (*name == "Q4").then_some(Strategy::Layered);
                    for arm in [Strategy::Scan, Strategy::Bitmap]
                        .into_iter()
                        .chain(layered)
                    {
                        let at = format!("{name}, {arm:?}, p{partitions}, cap {cap}");
                        assert_corrupt(&exec, plan, arm, &want, &at);
                    }
                }
                // The authenticated payload decodes the same tuple:
                // no response, never one carrying a row.
                let (lo, hi) = q4_range();
                let pred = KeyPredicate::Range(lo, hi);
                let served =
                    serve_authenticated_query(&ledger, Some("transfer"), "amount", &pred, None);
                assert_eq!(
                    served.is_none(),
                    bad == "transfer",
                    "{bad}, p{partitions}, cap {cap}"
                );
            }
        }
    }
    sebdb_parallel::set_max_threads(ambient);
}
