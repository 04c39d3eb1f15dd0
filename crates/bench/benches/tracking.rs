//! Criterion benches for Figs. 8–10: the track-trace operation under
//! scan / bitmap / layered access paths, uniform and Gaussian
//! placement, one and two dimensions — plus the materialized-view
//! sweep (DESIGN §15): a repeated `TRACE` served from a view
//! (`mode=view`, O(result) per query, the view extended by each read
//! over the blocks applied since the last) against fresh re-execution
//! (`mode=rescan`, O(chain) per query).
//!
//! Besides the criterion output, the views sweep writes
//! `BENCH_views.json` at the repository root. `SEBDB_BENCH_SMOKE=1`
//! runs a tiny sweep, writes `target/BENCH_views_smoke.json` instead
//! (CI schema check), skips the criterion-only figure groups, and
//! asserts the view, extended on read, beats the rescan on repeat
//! queries even on a one-CPU host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sebdb::{Executor, Ledger, Strategy};
use sebdb_bench::datagen::{tracking2_bed, tracking_bed, Placement, TestBed};
use sebdb_bench::workload::{run_q2, run_q3};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{LogicalPlan, TraceSpec};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("SEBDB_BENCH_SMOKE").is_ok()
}

fn fig8_tracking_by_chain_size(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let mut group = c.benchmark_group("fig8_tracking_q2");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for blocks in [20u64, 40] {
        for (label, strategy, placement) in [
            ("SU", Strategy::Scan, Placement::Uniform),
            ("BU", Strategy::Bitmap, Placement::Uniform),
            ("LU", Strategy::Layered, Placement::Uniform),
            (
                "LG",
                Strategy::Layered,
                Placement::Gaussian { std_blocks: 4.0 },
            ),
        ] {
            let bed = tracking_bed(blocks, 50, 200, placement, 1);
            group.bench_with_input(BenchmarkId::new(label, blocks), &bed, |b, bed| {
                b.iter(|| run_q2(bed, strategy).len())
            });
        }
    }
    group.finish();
}

fn fig10_two_dimension_windows(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let mut group = c.benchmark_group("fig10_tracking_q3");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let bed = tracking2_bed(40, 50, 400, 400, 100, Placement::Uniform, 2);
    for i in 1..=3u32 {
        let span = 40 / 2u64.pow(i - 1);
        let (s, e) = TestBed::window_covering_blocks(40 - span, 39);
        group.bench_with_input(BenchmarkId::new("TI", format!("TW{i}")), &bed, |b, bed| {
            b.iter(|| run_q3(bed, Some((s, e)), true, true, Strategy::Layered).len())
        });
        group.bench_with_input(BenchmarkId::new("SI", format!("TW{i}")), &bed, |b, bed| {
            b.iter(|| {
                run_q3(bed, Some((s, e)), true, false, Strategy::Layered)
                    .rows
                    .iter()
                    .filter(|r| r[4] == sebdb_types::Value::str("transfer"))
                    .count()
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Materialized-view sweep (mode=rescan | mode=view)
// ---------------------------------------------------------------------------

const TRACKED: KeyId = KeyId([0xA1; 8]);
const OTHER: KeyId = KeyId([0xA2; 8]);
/// Fixed result size across all chain lengths: every repeat `TRACE`
/// returns exactly this many rows, so `mode=view` (O(result)) must
/// stay flat as the chain grows while `mode=rescan` (O(chain)) grows.
const HITS: u64 = 24;
const FILLER_PER_BLOCK: u64 = 12;
const REPEATS: u32 = 50;

struct ViewSweep {
    chain_lengths: &'static [u64],
}

fn views_sweep() -> ViewSweep {
    if smoke() {
        ViewSweep {
            chain_lengths: &[48, 96],
        }
    } else {
        ViewSweep {
            chain_lengths: &[1_000, 3_000, 10_000],
        }
    }
}

fn views_signer() -> MacKeypair {
    MacKeypair::from_key([0x51u8; 32])
}

fn tracked_spec() -> TraceSpec {
    TraceSpec::new(None, Some(TRACKED.0), Some("donate"))
}

fn views_block(seq: u64, blocks: u64) -> OrderedBlock {
    let ts = 100_000 + seq;
    let mut txs = Vec::new();
    // HITS tracked `donate` rows spread evenly over the whole chain;
    // everything else is filler the trace must skip past.
    if seq.is_multiple_of((blocks / HITS).max(1)) && seq / (blocks / HITS).max(1) < HITS {
        txs.push(Transaction::new(
            ts,
            TRACKED,
            "donate",
            vec![Value::Int(seq as i64)],
        ));
    }
    for i in 0..FILLER_PER_BLOCK {
        txs.push(Transaction::new(
            ts,
            OTHER,
            "noise",
            vec![Value::Int((seq * FILLER_PER_BLOCK + i) as i64)],
        ));
    }
    for (i, tx) in txs.iter_mut().enumerate() {
        tx.tid = seq * 100 + i as u64 + 1;
    }
    OrderedBlock {
        seq,
        timestamp_ms: ts,
        txs,
    }
}

/// Appends the chain (registering the tracked view first in
/// `mode=view`, which the appends never touch) and returns the ledger
/// plus the mean append time per block.
fn build_views_chain(blocks: u64, with_view: bool) -> (Ledger, u64) {
    let ledger = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        views_signer(),
    )
    .unwrap();
    if with_view {
        ledger.register_trace_view(tracked_spec()).unwrap();
    }
    let start = Instant::now();
    for seq in 0..blocks {
        ledger.append_ordered(views_block(seq, blocks)).unwrap();
    }
    let append_us_per_block = (start.elapsed().as_micros() / u128::from(blocks)) as u64;
    (ledger, append_us_per_block)
}

fn trace_query(ledger: &Ledger, strategy: Strategy) -> sebdb::QueryResult {
    let plan = LogicalPlan::Trace {
        window: None,
        operator: Some(Value::Bytes(TRACKED.0.to_vec())),
        operation: Some("donate".into()),
    };
    Executor::new(ledger, None)
        .execute(&plan, strategy)
        .unwrap()
}

/// Mean repeat-query latency: the same `TRACE` issued back to back, as
/// an auditor dashboard would.
fn repeat_query_us(ledger: &Ledger, strategy: Strategy) -> u64 {
    let start = Instant::now();
    for _ in 0..REPEATS {
        assert_eq!(trace_query(ledger, strategy).len(), HITS as usize);
    }
    (start.elapsed().as_micros() / u128::from(REPEATS)) as u64
}

struct ViewRow {
    blocks: u64,
    mode: &'static str,
    repeat_query_us: u64,
    append_us_per_block: u64,
    result_rows: usize,
}

fn views_delta_vs_rescan(c: &mut Criterion) {
    let sw = views_sweep();
    let mut rows: Vec<ViewRow> = Vec::new();

    let mut group = c.benchmark_group("views_tracking");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    for &blocks in sw.chain_lengths {
        // Each mode builds, measures, and drops its chain before the
        // other starts, so neither's resident indexes skew the other's
        // append or query timings.

        // mode=rescan: no view registered; every repeat query re-walks
        // the chain through the layered index (the paper's best path).
        let rescan_result = {
            let (plain, plain_append) = build_views_chain(blocks, false);
            let result = trace_query(&plain, Strategy::Layered);
            rows.push(ViewRow {
                blocks,
                mode: "rescan",
                repeat_query_us: repeat_query_us(&plain, Strategy::Layered),
                append_us_per_block: plain_append,
                result_rows: result.len(),
            });
            if !smoke() {
                group.bench_function(BenchmarkId::new("rescan", blocks), |b| {
                    b.iter(|| trace_query(&plain, Strategy::Layered).len())
                });
            }
            result
        };

        // mode=view: the first query extends the view over the whole
        // chain; repeat queries are served from the materialized result.
        let (viewed, view_append) = build_views_chain(blocks, true);
        let view_result = trace_query(&viewed, Strategy::Auto);
        assert_eq!(
            view_result, rescan_result,
            "view result diverged from rescan at {blocks} blocks"
        );
        rows.push(ViewRow {
            blocks,
            mode: "view",
            repeat_query_us: repeat_query_us(&viewed, Strategy::Auto),
            append_us_per_block: view_append,
            result_rows: view_result.len(),
        });
        if !smoke() {
            group.bench_function(BenchmarkId::new("view", blocks), |b| {
                b.iter(|| trace_query(&viewed, Strategy::Auto).len())
            });
        }
    }
    group.finish();

    if smoke() {
        // The whole point, asserted at 1 CPU on the largest smoke
        // chain: serving the view, extended on read, beats re-running
        // the trace.
        let largest = *sw.chain_lengths.last().unwrap();
        let rescan = rows
            .iter()
            .find(|r| r.mode == "rescan" && r.blocks == largest)
            .unwrap();
        let view = rows
            .iter()
            .find(|r| r.mode == "view" && r.blocks == largest)
            .unwrap();
        assert!(
            view.repeat_query_us <= rescan.repeat_query_us,
            "view repeat query ({}us) lost to rescan ({}us) at {largest} blocks",
            view.repeat_query_us,
            rescan.repeat_query_us
        );
    }
    write_views_json(&rows);
}

fn write_views_json(rows: &[ViewRow]) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries = String::new();
    for r in rows {
        entries.push_str(&format!(
            "    {{\"blocks\": {}, \"mode\": \"{}\", \"repeat_query_us\": {}, \
             \"append_us_per_block\": {}, \"result_rows\": {}}},\n",
            r.blocks, r.mode, r.repeat_query_us, r.append_us_per_block, r.result_rows
        ));
    }
    entries.pop();
    entries.pop();
    let body = format!(
        "{{\n  \"bench\": \"views\",\n  \"cpus\": {cpus},\n  \
         \"note\": \"repeated TRACE (operator+operation, fixed {HITS}-row result) \
         served from a materialized view (mode=view: each read extends the view \
         over the blocks applied since the last, then answers in O(result) with \
         zero index probes when caught up) vs fresh re-execution through the \
         layered index (mode=rescan, O(chain) per query). repeat_query_us for \
         mode=view should stay flat as blocks grow while mode=rescan grows with \
         the chain; append_us_per_block should match across modes, since a \
         registered view adds nothing to the write path\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    let path = if smoke() {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_views_smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_views.json")
    };
    std::fs::write(path, body).expect("write BENCH_views.json");
    eprintln!("wrote {path}");
}

criterion_group!(
    benches,
    fig8_tracking_by_chain_size,
    fig10_two_dimension_windows,
    views_delta_vs_rescan
);
criterion_main!(benches);
