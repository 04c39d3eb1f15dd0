//! The BChainBench workload (§VII-A, Table II): queries Q1–Q7 plus
//! runners that execute them against a [`TestBed`] under a chosen
//! strategy, and the multi-client write driver for Fig. 7.

use crate::datagen::{TestBed, HIT_HI, HIT_LO, ORG1};
use sebdb::{QueryResult, Strategy};
use sebdb_consensus::traits::now_ms;
use sebdb_consensus::Consensus;
use sebdb_crypto::sig::KeyId;
use sebdb_sql::{BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_types::{Timestamp, Transaction, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Q1: write path.
pub const Q1: &str = "INSERT INTO donate VALUES(?,?,?);";
/// Q2: one-dimension tracking.
pub const Q2: &str = r#"TRACE OPERATOR = "org1";"#;
/// Q3: two-dimension tracking in a window.
pub const Q3: &str = r#"TRACE [?, ?] OPERATOR = "org1", OPERATION = "transfer";"#;
/// Q4: range query.
pub const Q4: &str = "SELECT * FROM donate WHERE amount BETWEEN ? AND ?;";
/// Q5: on-chain join.
pub const Q5: &str =
    "SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization;";
/// Q6: on-off-chain join.
pub const Q6: &str =
    "SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee;";
/// Q7: block lookup.
pub const Q7: &str = "GET BLOCK ID=?;";

/// All benchmark queries, in order.
pub const ALL: [&str; 7] = [Q1, Q2, Q3, Q4, Q5, Q6, Q7];

/// Builds the trace plan for Q2/Q3 with the operator already resolved
/// to its sender id (the node layer normally does this via its
/// registry).
pub fn trace_plan(
    operator: Option<KeyId>,
    operation: Option<&str>,
    window: Option<(Timestamp, Timestamp)>,
) -> LogicalPlan {
    LogicalPlan::Trace {
        window,
        operator: operator.map(|k| Value::Bytes(k.as_bytes().to_vec())),
        operation: operation.map(|s| s.to_ascii_lowercase()),
    }
}

/// Runs Q2 on a tracking bed.
pub fn run_q2(bed: &TestBed, strategy: Strategy) -> QueryResult {
    let plan = trace_plan(Some(ORG1), None, None);
    bed.executor().execute(&plan, strategy).expect("q2")
}

/// Runs Q3 on a two-dimension bed with the given window.
pub fn run_q3(
    bed: &TestBed,
    window: Option<(Timestamp, Timestamp)>,
    operator: bool,
    operation: bool,
    strategy: Strategy,
) -> QueryResult {
    let plan = trace_plan(
        operator.then_some(ORG1),
        operation.then_some("transfer"),
        window,
    );
    bed.executor().execute(&plan, strategy).expect("q3")
}

/// Runs Q4 over the reserved hit band on a range bed.
pub fn run_q4(bed: &TestBed, strategy: Strategy) -> QueryResult {
    let schema = crate::schema::donate();
    let plan = LogicalPlan::Query {
        predicates: vec![BoundPredicate {
            column: schema.resolve("amount").unwrap(),
            kind: BoundPredicateKind::Between(Value::decimal(HIT_LO), Value::decimal(HIT_HI)),
        }],
        schema,
        projection: vec![],
        window: None,
    };
    bed.executor().execute(&plan, strategy).expect("q4")
}

/// Runs Q5 on a join bed.
pub fn run_q5(bed: &TestBed, strategy: Strategy) -> QueryResult {
    let left = crate::schema::transfer();
    let right = crate::schema::distribute();
    let plan = LogicalPlan::OnChainJoin {
        left_col: left.resolve("organization").unwrap(),
        right_col: right.resolve("organization").unwrap(),
        left,
        right,
        window: None,
    };
    bed.executor().execute(&plan, strategy).expect("q5")
}

/// Runs Q6 on an on-off bed.
pub fn run_q6(bed: &TestBed, strategy: Strategy) -> QueryResult {
    let on = crate::schema::distribute();
    let plan = LogicalPlan::OnOffJoin {
        on_col: on.resolve("donee").unwrap(),
        on_table: on,
        off_table: "doneeinfo".into(),
        off_col: 0,
        off_columns: crate::schema::doneeinfo_columns(),
        window: None,
    };
    bed.executor().execute(&plan, strategy).expect("q6")
}

/// Runs Q7 for a given block id.
pub fn run_q7(bed: &TestBed, bid: u64) -> QueryResult {
    let plan = LogicalPlan::GetBlock(sebdb_sql::BoundBlockSelector::ById(bid));
    bed.executor().execute(&plan, Strategy::Auto).expect("q7")
}

/// A Q4-style bound predicate over the hit band (for ALI runs).
pub fn q4_key_predicate() -> sebdb_index::KeyPredicate {
    sebdb_index::KeyPredicate::Range(Value::decimal(HIT_LO), Value::decimal(HIT_HI))
}

/// The equality predicate tracking queries push into the ALI on
/// `sen_id`.
pub fn q2_key_predicate() -> sebdb_index::KeyPredicate {
    sebdb_index::KeyPredicate::Eq(Value::Bytes(ORG1.as_bytes().to_vec()))
}

/// Suppress an unused-import lint for CompareOp re-export kept for
/// workload extensions.
const _: Option<CompareOp> = None;

/// Result of a Fig. 7 write run.
#[derive(Debug, Clone, Copy)]
pub struct WriteRunStats {
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Mean client-observed commit latency.
    pub mean_latency_ms: f64,
    /// Transactions committed.
    pub committed: usize,
}

/// Fig. 7's client model: each of `clients` threads sends a
/// transaction, waits for its commit acknowledgement, then sends the
/// next, `txs_per_client` times (§VII-B).
pub fn run_write_benchmark(
    engine: Arc<dyn Consensus>,
    clients: usize,
    txs_per_client: usize,
) -> WriteRunStats {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            sebdb_parallel::spawn_service(&format!("bench-client-{c}"), move || {
                let mut total_latency = Duration::ZERO;
                let mut committed = 0usize;
                for i in 0..txs_per_client {
                    let tx = Transaction::new(
                        now_ms(),
                        KeyId([(c % 250) as u8 + 1; 8]),
                        "donate",
                        vec![
                            Value::str(format!("client-{c}")),
                            Value::str("education"),
                            Value::decimal((i % 1000) as i64 + 1),
                        ],
                    );
                    let sent = Instant::now();
                    let ack = engine.submit(tx);
                    match ack.recv_timeout(Duration::from_secs(30)) {
                        Ok(Ok(_)) => {
                            total_latency += sent.elapsed();
                            committed += 1;
                        }
                        _ => break,
                    }
                }
                (total_latency, committed)
            })
        })
        .collect();
    let mut committed = 0usize;
    let mut latency = Duration::ZERO;
    for h in handles {
        let (l, c) = h.join().expect("client thread");
        latency += l;
        committed += c;
    }
    let elapsed = start.elapsed().as_secs_f64();
    WriteRunStats {
        throughput_tps: committed as f64 / elapsed.max(1e-9),
        mean_latency_ms: if committed > 0 {
            latency.as_secs_f64() * 1000.0 / committed as f64
        } else {
            f64::NAN
        },
        committed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{
        join_bed, onoff_bed, range_bed, tracking2_bed, tracking_bed, Placement, TestBed,
    };

    #[test]
    fn q2_all_strategies_agree() {
        let bed = tracking_bed(8, 12, 20, Placement::Uniform, 1);
        let scan = run_q2(&bed, Strategy::Scan);
        let bitmap = run_q2(&bed, Strategy::Bitmap);
        let layered = run_q2(&bed, Strategy::Layered);
        assert_eq!(scan.len(), 20);
        assert_eq!(bitmap.len(), 20);
        assert_eq!(layered.len(), 20);
    }

    #[test]
    fn q3_window_and_dimensions() {
        let bed = tracking2_bed(10, 10, 30, 30, 12, Placement::Uniform, 2);
        let all = run_q3(&bed, None, true, true, Strategy::Layered);
        assert_eq!(all.len(), 12);
        // A window covering only the first half of the chain.
        let (s, e) = TestBed::window_covering_blocks(0, 4);
        let half = run_q3(&bed, Some((s, e)), true, true, Strategy::Layered);
        assert!(half.len() < 12 && !half.is_empty(), "got {}", half.len());
        // One dimension only.
        let org1_all = run_q3(&bed, None, true, false, Strategy::Layered);
        assert_eq!(org1_all.len(), 30);
    }

    #[test]
    fn q4_all_strategies_agree() {
        let bed = range_bed(8, 15, 21, Placement::gaussian(), 3);
        for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
            let r = run_q4(&bed, strat);
            assert_eq!(r.len(), 21, "{strat:?}");
        }
    }

    #[test]
    fn q5_all_strategies_agree() {
        let bed = join_bed(6, 10, 14, Placement::Uniform, 4);
        for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
            let r = run_q5(&bed, strat);
            assert_eq!(r.len(), 14, "{strat:?}");
        }
    }

    #[test]
    fn q6_all_strategies_agree() {
        let bed = onoff_bed(6, 10, 9, 20, Placement::Uniform, 5);
        for strat in [Strategy::Scan, Strategy::Bitmap, Strategy::Layered] {
            let r = run_q6(&bed, strat);
            assert_eq!(r.len(), 9, "{strat:?}");
        }
    }

    #[test]
    fn q7_returns_header_row() {
        let bed = tracking_bed(5, 8, 5, Placement::Uniform, 6);
        let r = run_q7(&bed, 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert!(run_q7(&bed, 99).is_empty());
    }

    #[test]
    fn layered_reads_fewer_blocks_than_scan() {
        let bed = range_bed(20, 20, 10, Placement::gaussian(), 7);
        bed.ledger.store().stats.reset();
        run_q4(&bed, Strategy::Scan);
        let scan_reads = bed.ledger.store().stats.snapshot().0;
        bed.ledger.store().stats.reset();
        run_q4(&bed, Strategy::Layered);
        let layered_reads = bed.ledger.store().stats.snapshot().0;
        assert!(
            layered_reads < scan_reads,
            "layered {layered_reads} vs scan {scan_reads}"
        );
    }
}
