//! Concurrent read-path sweep (Figs. 8–14, 22): grouped tuple reads
//! and sequential block scans over the disk store, across reader
//! thread count × cache mode × read granularity.
//!
//! The disk chain spans multiple segment files, so the thread sweep
//! exercises the sharded handle cache and positioned reads — the
//! no-global-lock property this PR's storage rework buys. Besides the
//! criterion output, the run writes `BENCH_readpath.json` at the
//! repository root (mean ns/read, reads/s, speedup of each thread
//! count over 1 thread at the same mode × granularity, host CPU
//! count). Positioned reads only overlap if the host has cores to run
//! them: on a 1-cpu host ~1.0× is the honest expectation.
//!
//! `SEBDB_BENCH_SMOKE=1` runs a tiny sweep and writes
//! `target/BENCH_readpath_smoke.json` instead (CI schema check),
//! leaving the committed numbers untouched.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::KeyId;
use sebdb_storage::{BlockCache, BlockStore, CacheMode, CachedStore, StoreConfig, TxCache, TxPtr};
use sebdb_types::{Block, Transaction, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREAD_CAPS: [usize; 2] = [1, 4];
const MODES: [&str; 3] = ["none", "block", "tx"];
const GRANULARITIES: [&str; 3] = ["tuple", "block", "relation"];
/// Relation partition counts: 1 is the single-sequence layout, 8 the
/// full partitioned layout (relation scans skip unrelated partitions).
const PARTITIONS: [usize; 2] = [1, 8];
/// The chain round-robins tuples over these relations, so the
/// "relation" granularity scans a strict subset of each block.
const TABLES: [&str; 3] = ["donate", "account", "project"];

struct Sweep {
    nblocks: u64,
    ntx: usize,
    npointers: usize,
    iters: u32,
}

fn smoke() -> bool {
    std::env::var("SEBDB_BENCH_SMOKE").is_ok()
}

fn sweep() -> Sweep {
    if smoke() {
        Sweep {
            nblocks: 8,
            ntx: 8,
            npointers: 64,
            iters: 2,
        }
    } else {
        Sweep {
            nblocks: 64,
            ntx: 32,
            npointers: 2048,
            iters: 5,
        }
    }
}

fn build_chain(dir: &PathBuf, nblocks: u64, ntx: usize, partitions: usize) -> Arc<BlockStore> {
    let _ = std::fs::remove_dir_all(dir);
    let store = BlockStore::open(
        dir,
        StoreConfig {
            // Small segments so the chain spans several files and the
            // thread sweep hits the sharded handle cache.
            segment_size: 64 * 1024,
            sync_writes: false,
            partitions,
            ..StoreConfig::default()
        },
    )
    .expect("open bench store");
    for h in 0..nblocks {
        let txs = (0..ntx)
            .map(|i| {
                let mut t = Transaction::new(
                    1_000 + h,
                    KeyId([0xA1; 8]),
                    TABLES[i % TABLES.len()],
                    vec![
                        Value::str(format!("donor-{h}-{i}")),
                        Value::str("education"),
                        Value::decimal((h as i64 * ntx as i64 + i as i64) % 997),
                    ],
                );
                t.tid = h * ntx as u64 + i as u64 + 1;
                t.sig = vec![0u8; 33];
                t
            })
            .collect();
        store
            .append(&Block::seal(Digest::ZERO, h, 1_000 + h, txs, |_| {
                vec![0u8; 4]
            }))
            .expect("append bench block");
    }
    Arc::new(store)
}

/// Deterministic pointer workload (LCG — no RNG dependency): random
/// tuples with same-block clusters that the group path coalesces.
fn pointers(nblocks: u64, ntx: usize, n: usize) -> Vec<TxPtr> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            TxPtr {
                block: (state >> 33) % nblocks,
                index: ((state >> 17) % ntx as u64) as u32,
            }
        })
        .collect()
}

fn mode_of(name: &str) -> CacheMode {
    match name {
        "none" => CacheMode::None,
        "block" => CacheMode::Block(BlockCache::new(4 << 20)),
        "tx" => CacheMode::Tx(TxCache::new(4 << 20)),
        _ => unreachable!(),
    }
}

/// One tuple-granularity run: grouped reads over the full pointer
/// workload through a fresh cache (duplicated pointers exercise hits).
fn run_tuples(store: &Arc<BlockStore>, mode: &str, ptrs: &[TxPtr]) {
    let cached = CachedStore::new(Arc::clone(store), mode_of(mode));
    let txs = cached.read_txs_grouped(ptrs).expect("grouped read");
    assert_eq!(txs.len(), ptrs.len());
}

/// One relation-granularity run: a single-relation scan of the whole
/// chain — on the partitioned layout this fetches only the table's
/// partition extents instead of whole blocks.
fn run_relation(store: &Arc<BlockStore>, mode: &str, nblocks: u64) {
    let cached = CachedStore::new(Arc::clone(store), mode_of(mode));
    let bids: Vec<u64> = (0..nblocks).collect();
    let runs: Vec<&[u64]> = bids.chunks(sebdb_storage::READAHEAD_BLOCKS).collect();
    let fetched = sebdb_parallel::par_map(&runs, 1, |run| cached.read_relation_txs(run, TABLES[0]));
    let mut rows = 0usize;
    for batches in fetched {
        for txs in batches.expect("relation read") {
            rows += txs
                .iter()
                .filter(|(_, t)| t.tname.eq_ignore_ascii_case(TABLES[0]))
                .count();
        }
    }
    assert!(rows > 0);
}

/// One block-granularity run: a sequential scan of the whole chain via
/// the readahead span path.
fn run_blocks(store: &Arc<BlockStore>, mode: &str, nblocks: u64) {
    let cached = CachedStore::new(Arc::clone(store), mode_of(mode));
    let bids: Vec<u64> = (0..nblocks).collect();
    let runs: Vec<&[u64]> = bids.chunks(sebdb_storage::READAHEAD_BLOCKS).collect();
    let fetched = sebdb_parallel::par_map(&runs, 1, |run| cached.read_blocks_span(run));
    for blocks in fetched {
        for b in blocks.expect("span read") {
            assert!(!b.transactions.is_empty());
        }
    }
}

/// Mean ns per read over `iters` runs after one warm-up call.
fn measure(mut f: impl FnMut(), iters: u32, reads_per_run: u64) -> u64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / u128::from(iters) / u128::from(reads_per_run.max(1))) as u64
}

fn read_path(c: &mut Criterion) {
    let sw = sweep();
    let ptrs = pointers(sw.nblocks, sw.ntx, sw.npointers);

    // (partitions, granularity, mode, threads, mean ns per read)
    let mut rows: Vec<(usize, &str, &str, usize, u64)> = Vec::new();

    let mut group = c.benchmark_group("read_path");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    for partitions in PARTITIONS {
        let dir = std::env::temp_dir().join(format!(
            "sebdb-bench-readpath-p{partitions}-{}",
            std::process::id()
        ));
        let store = build_chain(&dir, sw.nblocks, sw.ntx, partitions);
        for threads in THREAD_CAPS {
            sebdb_parallel::set_max_threads(threads);
            for mode in MODES {
                for gran in GRANULARITIES {
                    let id = format!("{gran}/{mode}/threads{threads}/parts{partitions}");
                    let reads = match gran {
                        "tuple" => sw.npointers as u64,
                        _ => sw.nblocks,
                    };
                    let run = || match gran {
                        "tuple" => run_tuples(&store, mode, &ptrs),
                        "relation" => run_relation(&store, mode, sw.nblocks),
                        _ => run_blocks(&store, mode, sw.nblocks),
                    };
                    if !smoke() {
                        group.bench_function(BenchmarkId::new("read", &id), |b| b.iter(run));
                    }
                    rows.push((
                        partitions,
                        gran,
                        mode,
                        threads,
                        measure(run, sw.iters, reads),
                    ));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
    sebdb_parallel::set_max_threads(1);

    write_json(&rows);
}

fn write_json(rows: &[(usize, &str, &str, usize, u64)]) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let baseline = |parts: usize, gran: &str, mode: &str| {
        rows.iter()
            .find(|(p, g, m, t, _)| *p == parts && *g == gran && *m == mode && *t == 1)
            .map(|(_, _, _, _, ns)| *ns)
            .unwrap_or(1)
    };
    let mut entries = String::new();
    for (parts, gran, mode, threads, ns) in rows {
        let reads_per_s = 1e9 / (*ns).max(1) as f64;
        let speedup = baseline(*parts, gran, mode) as f64 / (*ns).max(1) as f64;
        entries.push_str(&format!(
            "    {{\"granularity\": \"{gran}\", \"cache_mode\": \"{mode}\", \
             \"partitions\": {parts}, \"threads\": {threads}, \"mean_ns_per_read\": {ns}, \
             \"reads_per_s\": {reads_per_s:.1}, \"speedup_vs_1thread\": {speedup:.3}}},\n"
        ));
    }
    entries.pop();
    entries.pop();
    let body = format!(
        "{{\n  \"bench\": \"read_path\",\n  \"cpus\": {cpus},\n  \
         \"note\": \"grouped tuple reads and readahead block scans over a \
         multi-segment disk chain. Positioned reads through the sharded \
         handle cache only overlap if the host has cores to run them: the \
         >=1.5x 4-thread target needs a multi-core host; on a 1-cpu host \
         ~1.0x is the honest expectation (threads time-slice one core). \
         partitions=1 is the single-sequence layout; partitions=8 shards \
         extents by relation, so relation-granularity scans skip unrelated \
         partitions bytes\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    let path = if smoke() {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_readpath_smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_readpath.json")
    };
    std::fs::write(path, body).expect("write BENCH_readpath.json");
    eprintln!("wrote {path}");
}

criterion_group!(benches, read_path);
criterion_main!(benches);
