//! Ablations for the design choices DESIGN.md calls out:
//!
//! * **histogram depth** — the paper says "the height of histogram is
//!   configurable for different precisions" (§IV-B); deeper histograms
//!   prune more blocks at higher first-level cost;
//! * **MB-tree fanout** — the node width (§VII-A's 4 KB page of 64
//!   entries; 16 by default here) trades proof width (flat trees)
//!   against proof depth (binary-ish trees).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::KeyId;
use sebdb_index::mbtree::{AuthEntry, MbTree};
use sebdb_index::{EqualDepthHistogram, KeyPredicate, LayeredIndex};
use sebdb_storage::TxPtr;
use sebdb_types::{Block, ColumnRef, Transaction, Value};
use std::time::Duration;

fn donate_block(height: u64, amounts: &[i64]) -> Block {
    let txs = amounts
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                KeyId([1; 8]),
                "donate",
                vec![Value::str("d"), Value::str("p"), Value::decimal(a)],
            );
            t.tid = height * 1000 + i as u64 + 1;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
}

/// Histogram depth vs pruning power: how many candidate blocks survive
/// a selective range predicate at depths 10 / 100 / 1000.
fn histogram_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_histogram_depth");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let blocks: Vec<Block> = (0..50)
        .map(|h| {
            // Each block holds a narrow amount band, so pruning power is
            // measurable.
            let base = (h as i64) * 100;
            donate_block(h, &(0..40).map(|i| base + i % 100).collect::<Vec<_>>())
        })
        .collect();
    let sample: Vec<i64> = (0..5000)
        .map(|v| Value::decimal(v).numeric_rank().unwrap())
        .collect();
    for depth in [10usize, 100, 1000] {
        let mut idx = LayeredIndex::new_continuous(
            Some("donate".into()),
            ColumnRef::App(2),
            EqualDepthHistogram::from_sample(sample.clone(), depth),
        );
        for b in &blocks {
            idx.update(b);
        }
        let pred = KeyPredicate::Range(Value::decimal(2000), Value::decimal(2100));
        // Report pruning power once per depth (stderr keeps criterion
        // output clean in terminal but visible with --nocapture-like
        // runs).
        eprintln!(
            "histogram depth {depth}: {} candidate blocks of 50",
            idx.candidate_blocks(&pred).count_ones()
        );
        group.bench_function(BenchmarkId::new("candidate_blocks", depth), |b| {
            b.iter(|| idx.candidate_blocks(&pred).count_ones())
        });
    }
    group.finish();
}

/// MB-tree fanout vs proof size and verify cost.
fn mbtree_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mbtree_fanout");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let entries: Vec<AuthEntry> = (0..4096i64)
        .map(|i| AuthEntry {
            key: Value::Int(i),
            tx_hash: sebdb_crypto::sha256(&i.to_le_bytes()),
            ptr: TxPtr {
                block: 0,
                index: i as u32,
            },
        })
        .collect();
    for fanout in [2usize, 8, 16, 64, 256] {
        let tree = MbTree::build(entries.clone(), fanout);
        let (results, proof) = tree.range_query(&Value::Int(1000), &Value::Int(1100));
        eprintln!("fanout {fanout}: VO {} bytes", proof.byte_len());
        group.bench_function(BenchmarkId::new("verify", fanout), |b| {
            b.iter(|| {
                MbTree::verify_range(
                    &tree.root(),
                    &Value::Int(1000),
                    &Value::Int(1100),
                    &results,
                    &proof,
                    fanout,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, histogram_depth, mbtree_fanout);
criterion_main!(benches);
