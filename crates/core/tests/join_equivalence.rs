//! The joins return what a nested loop returns.
//!
//! One seeded chain — duplicate keys on both sides, `NULL` keys, each
//! relation absent from some blocks — is joined under every strategy,
//! flat (`partitions: 1`, relations co-located) and partitioned, twice,
//! then a third time with an off-chain index on the on-off join's
//! column, which must not move a row: the off-chain side is read in
//! heap order, indexed or not; then twice more with every layered index
//! frozen. The join columns are strings (discrete) and decimals
//! (continuous): every decimal is a multiple of 50 and the histograms
//! bound their buckets at the multiples of 100, so half the keys, and
//! the smallest off-chain key, sit on a bucket bound — where a bucket
//! `(l, u]` still holds `u`.
//! The two hash arms (`Scan`, `Bitmap`) must return **the same ordered row vector** as a
//! nested loop over `read_block` written here; `Layered` the same rows
//! as a sorted multiset. The hash arms decode only what they return:
//! on a partitioned store, where each relation has a partition of its
//! own, their `bytes_read` is the two relations' own tuples, not the
//! blocks.
//!
//! `ci.sh` runs this file at `SEBDB_THREADS=1` and `=4`: the chain
//! holds enough bytes (each tuple carries a 600-byte signature) that
//! every projected relation scan cuts into enough runs to fan out at
//! the second cap, flat and partitioned (`build_chain` checks it).

use sebdb::{Executor, Ledger, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_offchain::{OffchainConnection, OffchainDb};
use sebdb_sql::LogicalPlan;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Codec, Column, ColumnRef, DataType, TableSchema, Timestamp, Transaction, Value};
use std::sync::Arc;

const BLOCKS: u64 = 136;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    /// One of 24 organizations, or `NULL` one time in eight.
    fn key(&mut self, prefix: &str) -> Value {
        match self.below(8) {
            0 => Value::Null,
            _ => Value::Str(format!("{prefix}{}", self.below(24))),
        }
    }
}

fn transfer() -> TableSchema {
    TableSchema::new(
        "transfer",
        vec![
            Column::new("organization", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

fn distribute() -> TableSchema {
    TableSchema::new(
        "distribute",
        vec![
            Column::new("organization", DataType::Str),
            Column::new("donee", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// A multiple of 50 in `0..=900`.
fn amount(rng: &mut Rng) -> Value {
    Value::decimal(50 * rng.below(19) as i64)
}

fn grants_columns() -> Vec<Column> {
    vec![
        Column::new("amount", DataType::Decimal),
        Column::new("note", DataType::Str),
    ]
}

fn doneeinfo_columns() -> Vec<Column> {
    vec![
        Column::new("donee", DataType::Str),
        Column::new("income", DataType::Decimal),
    ]
}

/// Block `b`, tuple `slot` is sent at `b * 1000 + slot`. `transfer` is
/// absent from every fifth block, `distribute` from every seventh;
/// `donate` fills the rest of each block.
fn build_chain(ledger: &Ledger) {
    let mut rng = Rng(0x5eb_db18);
    let mut tid = 1;
    for b in 0..BLOCKS {
        let txs: Vec<Transaction> = (0..12)
            .map(|slot| {
                let (tname, values) = match rng.below(3) {
                    0 if b % 5 != 0 => ("transfer", vec![rng.key("org"), amount(&mut rng)]),
                    1 if b % 7 != 0 => (
                        "distribute",
                        vec![rng.key("org"), rng.key("donee"), amount(&mut rng)],
                    ),
                    _ => ("donate", vec![Value::str("filler"), Value::decimal(1)]),
                };
                let sender = KeyId([1 + rng.below(3) as u8; 8]);
                let mut tx = Transaction::new(b * 1000 + slot, sender, tname, values);
                tx.tid = tid;
                tx.sig = vec![tid as u8; 600];
                tid += 1;
                tx
            })
            .collect();
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
        .create_layered_index(&transfer(), "organization", None)
        .unwrap();
    ledger
        .create_layered_index(&distribute(), "organization", None)
        .unwrap();
    ledger
        .create_layered_index(&distribute(), "donee", None)
        .unwrap();
    // Buckets bounded at 0, 100, … 900.
    let sample: Vec<i64> = (0..10)
        .map(|i| Value::decimal(i * 100).numeric_rank().unwrap())
        .collect();
    for schema in [transfer(), distribute()] {
        ledger
            .create_layered_index(&schema, "amount", Some(sample.clone()))
            .unwrap();
    }
}

/// Off-chain donees: duplicates, a `NULL` key, keys no tuple carries.
fn offchain() -> OffchainConnection {
    let db = Arc::new(OffchainDb::new());
    db.create_table("doneeinfo", doneeinfo_columns()).unwrap();
    let conn = db.connect();
    for i in 0..30i64 {
        let key = match i {
            7 => Value::Null,
            _ => Value::Str(format!("donee{}", i % 20 + 10)),
        };
        conn.insert("doneeinfo", vec![key, Value::decimal(i)])
            .unwrap();
    }
    // The smallest key, 300, is the upper bound of bucket (200, 300].
    db.create_table("grants", grants_columns()).unwrap();
    for (i, key) in [300, 400, 300, -1, 350].into_iter().enumerate() {
        let key = if key < 0 {
            Value::Null
        } else {
            Value::decimal(key)
        };
        conn.insert("grants", vec![key, Value::str(format!("g{i}"))])
            .unwrap();
    }
    conn
}

fn row_of(tx: &Transaction) -> Vec<Value> {
    let mut row = vec![
        Value::Int(tx.tid as i64),
        Value::Timestamp(tx.ts),
        Value::Bytes(tx.sig.clone()),
        Value::Bytes(tx.sender.as_bytes().to_vec()),
        Value::Str(tx.tname.clone()),
    ];
    row.extend(tx.values.iter().cloned());
    row
}

/// `table`'s tuples inside `window`, in chain order, straight from
/// whole-block reads.
fn tuples_of(
    ledger: &Ledger,
    table: &str,
    window: Option<(Timestamp, Timestamp)>,
) -> Vec<Transaction> {
    (0..ledger.height())
        .flat_map(|b| ledger.store().read(b).unwrap().transactions.clone())
        .filter(|tx| tx.tname == table)
        .filter(|tx| window.is_none_or(|(s, e)| tx.ts >= s && tx.ts <= e))
        .collect()
}

/// The reference join: for each left tuple in chain order, each right
/// row in its order, paired when the keys are equal and not `NULL`.
fn nested_loop<R>(
    left: &[Transaction],
    left_col: ColumnRef,
    right: &[R],
    right_key: impl Fn(&R) -> Option<Value>,
    right_row: impl Fn(&R) -> Vec<Value>,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left {
        let Some(key) = l.get(left_col).filter(|k| *k != Value::Null) else {
            continue;
        };
        for r in right {
            if right_key(r).as_ref() == Some(&key) {
                let mut row = row_of(l);
                row.extend(right_row(r));
                out.push(row);
            }
        }
    }
    out
}

struct Case {
    name: &'static str,
    plan: LogicalPlan,
    want: Vec<Vec<Value>>,
}

fn cases(ledger: &Ledger, conn: &OffchainConnection) -> Vec<Case> {
    let (t, d) = (transfer(), distribute());
    let org = ColumnRef::App(0);
    let donee = ColumnRef::App(1);
    let (t_amount, d_amount) = (ColumnRef::App(1), ColumnRef::App(2));
    // Cuts block 20 and block 90 in the middle.
    let partial = Some((20_004, 90_006));
    let mut out = Vec::new();
    for (name, window) in [("q5", None), ("q5 windowed", partial)] {
        out.push(Case {
            name,
            plan: LogicalPlan::OnChainJoin {
                left: t.clone(),
                right: d.clone(),
                left_col: org,
                right_col: org,
                window,
            },
            want: nested_loop(
                &tuples_of(ledger, "transfer", window),
                org,
                &tuples_of(ledger, "distribute", window),
                |r| r.get(org),
                row_of,
            ),
        });
    }
    for (name, window) in [("q5 decimal", None), ("q5 decimal windowed", partial)] {
        out.push(Case {
            name,
            plan: LogicalPlan::OnChainJoin {
                left: t.clone(),
                right: d.clone(),
                left_col: t_amount,
                right_col: d_amount,
                window,
            },
            want: nested_loop(
                &tuples_of(ledger, "transfer", window),
                t_amount,
                &tuples_of(ledger, "distribute", window),
                |r| r.get(d_amount),
                row_of,
            ),
        });
    }
    let transfers = tuples_of(ledger, "transfer", None);
    out.push(Case {
        name: "q5 self-join",
        plan: LogicalPlan::OnChainJoin {
            left: t.clone(),
            right: t.clone(),
            left_col: org,
            right_col: org,
            window: None,
        },
        want: nested_loop(&transfers, org, &transfers, |r| r.get(org), row_of),
    });
    let off_rows: Vec<Vec<Value>> = conn
        .read_rows("doneeinfo", "donee", |_, rows| {
            rows.iter().map(|r| r.to_vec()).collect()
        })
        .unwrap();
    for (name, window) in [("q6", None), ("q6 windowed", partial)] {
        out.push(Case {
            name,
            plan: LogicalPlan::OnOffJoin {
                on_table: d.clone(),
                on_col: donee,
                off_table: "doneeinfo".into(),
                off_col: 0,
                off_columns: doneeinfo_columns(),
                window,
            },
            want: nested_loop(
                &tuples_of(ledger, "distribute", window),
                donee,
                &off_rows,
                |r| Some(r[0].clone()),
                Vec::clone,
            ),
        });
    }
    let grants: Vec<Vec<Value>> = conn
        .read_rows("grants", "amount", |_, rows| {
            rows.iter().map(|r| r.to_vec()).collect()
        })
        .unwrap();
    for (name, window) in [("q6 decimal", None), ("q6 decimal windowed", partial)] {
        out.push(Case {
            name,
            plan: LogicalPlan::OnOffJoin {
                on_table: d.clone(),
                on_col: d_amount,
                off_table: "grants".into(),
                off_col: 0,
                off_columns: grants_columns(),
                window,
            },
            want: nested_loop(
                &tuples_of(ledger, "distribute", window),
                d_amount,
                &grants,
                |r| Some(r[0].clone()),
                Vec::clone,
            ),
        });
    }
    out
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

fn ledger_on(config: StoreConfig) -> Ledger {
    let store = BlockStore::temporary(config).unwrap();
    let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([3; 32])).unwrap();
    build_chain(&ledger);
    ledger
}

#[test]
fn joins_return_the_nested_loop_rows_everywhere() {
    for partitions in [8usize, 1] {
        let conn = offchain();
        let ledger = ledger_on(StoreConfig {
            partitions,
            ..StoreConfig::default()
        });
        let co_located = ledger.store().co_located("transfer", "distribute");
        assert_eq!(co_located, partitions == 1, "the chain's premise");
        let cases = cases(&ledger, &conn);
        for case in &cases {
            assert!(
                case.want.len() > 20,
                "{}: {} rows",
                case.name,
                case.want.len()
            );
        }
        let exec = Executor::new(&ledger, Some(&conn));
        // Twice, so the second pass meets warm index blocks and pages;
        // the third reads an off-chain table with an index on the join
        // column; the last two page every layered index from its
        // checkpoint.
        for pass in 0..5 {
            if pass == 2 {
                conn.create_index("doneeinfo", "donee").unwrap();
            }
            if pass == 3 {
                assert!(ledger.checkpoint_indexes().unwrap() > 0);
            }
            for case in &cases {
                let at = format!("{} on p{partitions}, pass {pass}", case.name);
                for arm in [Strategy::Scan, Strategy::Bitmap] {
                    let got = exec.execute(&case.plan, arm).unwrap().rows;
                    assert!(got == case.want, "{arm:?} {at}: {} rows", got.len());
                }
                let layered = exec.execute(&case.plan, Strategy::Layered).unwrap();
                assert!(
                    sorted(layered.rows) == sorted(case.want.clone()),
                    "Layered {at}"
                );
            }
        }
    }
}

/// The win as a count: a bitmap hash join on a partitioned disk store
/// fetches the two relations' partition extents — each relation's own
/// tuples, since each is placed in a partition of its own — and not a
/// byte of `donate` or of anything else in those blocks.
#[test]
fn bitmap_hash_join_reads_two_partitions_not_the_blocks() {
    let ledger = ledger_on(StoreConfig::default());
    let store = ledger.store();
    for table in ["transfer", "distribute", "donate"] {
        let part = store.partition_of(table).unwrap();
        assert_eq!(store.relations_in(part), [table], "{table} is not alone");
    }
    let (mut own, mut blocks) = (0u64, 0u64);
    for b in 0..ledger.height() {
        let block = store.read(b).unwrap();
        let mut scanned = false;
        for table in ["transfer", "distribute"] {
            let bytes: u64 = block
                .transactions
                .iter()
                .filter(|tx| tx.tname == table)
                .map(|tx| tx.to_bytes().len() as u64)
                .sum();
            scanned |= bytes > 0;
            own += bytes;
        }
        if scanned {
            blocks += block.byte_len() as u64;
        }
    }
    let plan = LogicalPlan::OnChainJoin {
        left: transfer(),
        right: distribute(),
        left_col: ColumnRef::App(0),
        right_col: ColumnRef::App(0),
        window: None,
    };
    store.stats.reset();
    let rows = Executor::new(&ledger, None)
        .execute(&plan, Strategy::Bitmap)
        .unwrap();
    assert!(!rows.is_empty());
    let read = store.stats.bytes_read();
    assert_eq!(read, own, "bytes beyond transfer's and distribute's tuples");
    assert!(read < blocks, "{read} of {blocks} block bytes");
    println!(
        "bitmap Q5 bytes_read: {read} (the two relations' tuples) vs {blocks} (scanned blocks)"
    );
}
