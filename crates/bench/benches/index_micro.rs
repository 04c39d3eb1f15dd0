//! Microbenchmarks of the index substrates (ablation material for
//! DESIGN.md's design choices): bitmap AND, histogram bucketing,
//! Merkle root, MB-tree proof round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use sebdb_crypto::merkle::merkle_root;
use sebdb_index::mbtree::{AuthEntry, MbTree, DEFAULT_FANOUT};
use sebdb_index::{Bitmap, EqualDepthHistogram};
use sebdb_storage::TxPtr;
use sebdb_types::Value;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
}

fn bitmap_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_ops");
    configure(&mut group);
    let a = Bitmap::from_bits((0..100_000).step_by(3));
    let b = Bitmap::from_bits((0..100_000).step_by(7));
    group.bench_function("and_100k", |bench| bench.iter(|| a.and(&b).count_ones()));
    group.bench_function("intersects_100k", |bench| bench.iter(|| a.intersects(&b)));
    group.finish();
}

fn histogram_bucketing(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    configure(&mut group);
    let sample: Vec<i64> = (0..100_000).map(|i| (i * 37) % 1_000_003).collect();
    group.bench_function("build_100_buckets", |b| {
        b.iter(|| EqualDepthHistogram::from_sample(sample.clone(), 100).bucket_count())
    });
    let hist = EqualDepthHistogram::from_sample(sample, 100);
    group.bench_function("bucket_of", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 997;
            hist.bucket_of(i % 1_000_003)
        })
    });
    group.finish();
}

fn merkle_and_mbtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("authenticated_structures");
    configure(&mut group);
    let leaves: Vec<Vec<u8>> = (0..1_000u32).map(|i| i.to_le_bytes().to_vec()).collect();
    group.bench_function("merkle_root_1k", |b| b.iter(|| merkle_root(&leaves)));

    let entries: Vec<AuthEntry> = (0..1_000i64)
        .map(|i| AuthEntry {
            key: Value::Int(i),
            tx_hash: sebdb_crypto::sha256(&i.to_le_bytes()),
            ptr: TxPtr {
                block: 0,
                index: i as u32,
            },
        })
        .collect();
    group.bench_function("mbtree_build_1k", |b| {
        b.iter(|| MbTree::build(entries.clone(), DEFAULT_FANOUT).root())
    });
    let tree = MbTree::build(entries, DEFAULT_FANOUT);
    group.bench_function("mbtree_range_proof", |b| {
        b.iter(|| {
            tree.range_query(&Value::Int(100), &Value::Int(200))
                .1
                .byte_len()
        })
    });
    let (results, proof) = tree.range_query(&Value::Int(100), &Value::Int(200));
    group.bench_function("mbtree_verify", |b| {
        b.iter(|| {
            MbTree::verify_range(
                &tree.root(),
                &Value::Int(100),
                &Value::Int(200),
                &results,
                &proof,
                DEFAULT_FANOUT,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bitmap_ops, histogram_bucketing, merkle_and_mbtree);
criterion_main!(benches);
