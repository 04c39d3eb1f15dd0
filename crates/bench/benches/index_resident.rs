//! Disk-resident index sweep (DESIGN §13): open time vs chain length
//! with and without index checkpoints, and resident index bytes vs the
//! index-block cache capacity — beside what the store itself keeps
//! resident and spends opening.
//!
//! Two claims under measurement, and one cost reported beside them:
//!
//! * **O(1) index open** — with up-to-date checkpoints `Ledger::new`
//!   loads the fence-pointer top levels and replays only the tail;
//!   without checkpoints it replays every block and grows linearly.
//!   `open_ms` times `BlockStore::open` + `Ledger::new`, `store_open_ms`
//!   the first alone.
//! * **Bounded residency** — a probed frozen index pages level-1 blocks
//!   through the shared cache, so resident index bytes stay bounded by
//!   `StoreConfig::index_cache_blocks` where the `cache=∞` (capacity 0)
//!   reference grows with the number of distinct blocks touched —
//!   Eq. 3's per-block transfer term applied to the index itself.
//! * **The store's own metadata** — `BlockStore::open` replays the whole
//!   manifest and every offset table into resident tables
//!   (`store_resident_bytes`, `BlockStore::metadata_bytes`): O(tuples
//!   ever written), whatever the index does.
//!
//! The run writes `BENCH_indexresident.json` at the repository root.
//! `SEBDB_BENCH_SMOKE=1` runs a tiny sweep and writes
//! `target/BENCH_indexresident_smoke.json` instead (CI schema check),
//! leaving the committed numbers untouched.
//!
//! Run it with `cargo bench -p sebdb-bench --bench index_resident`.

use sebdb::{Executor, Ledger, SchemaManager, Strategy};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_sql::{BoundPredicate, BoundPredicateKind, CompareOp, LogicalPlan};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SENDER: KeyId = KeyId([0xB7; 8]);
/// Amounts cycle modulo this prime so every probe key exists on chains
/// of every swept length.
const KEY_SPACE: u64 = 997;
/// Index-block cache capacities under sweep: a tight bound that forces
/// eviction, and 0 = unbounded — the `cache=∞` reference.
const CACHE_BLOCKS: [usize; 2] = [8, 0];

struct Sweep {
    chain_lengths: &'static [u64],
    probes: u64,
}

fn smoke() -> bool {
    std::env::var("SEBDB_BENCH_SMOKE").is_ok()
}

fn sweep() -> Sweep {
    if smoke() {
        Sweep {
            chain_lengths: &[48, 96],
            probes: 16,
        }
    } else {
        Sweep {
            chain_lengths: &[1_000, 10_000, 100_000],
            probes: 128,
        }
    }
}

fn signer() -> MacKeypair {
    MacKeypair::from_key([0x42u8; 32])
}

fn donate_schema() -> TableSchema {
    TableSchema::new(
        "donate",
        vec![
            Column::new("donor", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// Builds an `nblocks`-long chain (schema in block 0, two inserts per
/// block), creates the layered index on `amount`, and freezes every
/// index family into checkpoints at the full height.
fn build_chain(dir: &Path, nblocks: u64) {
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(
        BlockStore::open(
            dir,
            StoreConfig {
                sync_writes: false,
                ..StoreConfig::default()
            },
        )
        .expect("open bench store"),
    );
    let ledger = Ledger::new(store, signer()).expect("open ledger");
    let schema = donate_schema();
    let mut tid = 1u64;
    for seq in 0..nblocks {
        let ts = 50_000 + seq;
        let mut txs = Vec::new();
        if seq == 0 {
            txs.push(SchemaManager::schema_transaction(&schema, ts, SENDER));
        }
        for i in 0..2u64 {
            txs.push(Transaction::new(
                ts,
                SENDER,
                "donate",
                vec![
                    Value::str(format!("donor-{seq}-{i}")),
                    Value::decimal(((seq * 2 + i) % KEY_SPACE) as i64),
                ],
            ));
        }
        for tx in &mut txs {
            tx.tid = tid;
            tid += 1;
        }
        ledger
            .append_ordered(OrderedBlock {
                seq,
                timestamp_ms: ts,
                txs,
            })
            .expect("append bench block");
    }
    ledger
        .create_layered_index(&schema, "amount", None)
        .expect("create layered index");
    let published = ledger.checkpoint_indexes().expect("checkpoint indexes");
    assert!(published > 0, "no checkpoints published");
}

fn store_config(cache_blocks: usize) -> StoreConfig {
    StoreConfig {
        sync_writes: false,
        index_cache_blocks: Some(cache_blocks),
        ..StoreConfig::default()
    }
}

/// Opens the store and the ledger over it. Returns them with the whole
/// open's time (store open + `Ledger::new`, checkpoint load and tail
/// replay included) and the store open's alone, in milliseconds.
fn open_ledger(dir: &Path, cache_blocks: usize) -> (Arc<BlockStore>, Ledger, u64, u64) {
    let opened = Instant::now();
    let store = Arc::new(BlockStore::open(dir, store_config(cache_blocks)).expect("reopen store"));
    let store_open_ms = opened.elapsed().as_millis() as u64;
    let ledger = Ledger::new(Arc::clone(&store), signer()).expect("reopen ledger");
    // Sub-millisecond opens round to 0; the floor keeps flatness ratios
    // finite.
    let open_ms = (opened.elapsed().as_millis() as u64).max(1);
    (store, ledger, open_ms, store_open_ms)
}

/// Runs `probes` point queries through the layered path, paging the
/// frozen index's level-1 blocks through the bounded cache.
fn probe(ledger: &Ledger, probes: u64) -> u64 {
    let schema = donate_schema();
    let exec = Executor::new(ledger, None);
    let start = Instant::now();
    let mut rows = 0usize;
    for k in 0..probes {
        let key = (k * 7 + 1) % KEY_SPACE;
        let plan = LogicalPlan::Query {
            predicates: vec![BoundPredicate {
                column: schema.resolve("amount").expect("amount column"),
                kind: BoundPredicateKind::Compare(CompareOp::Eq, Value::decimal(key as i64)),
            }],
            schema: schema.clone(),
            projection: vec![],
            window: None,
        };
        rows += exec
            .execute(&plan, Strategy::Layered)
            .expect("layered probe")
            .rows
            .len();
    }
    assert!(rows > 0, "probe workload matched nothing");
    (start.elapsed().as_micros() / u128::from(probes.max(1))) as u64
}

struct Row {
    blocks: u64,
    checkpoint: &'static str,
    cache_blocks: usize,
    open_ms: u64,
    store_open_ms: u64,
    mean_us_per_probe: u64,
    resident_index_bytes: usize,
    store_resident_bytes: usize,
    cache_resident_blocks: usize,
    cache_resident_bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
}

fn main() {
    let sw = sweep();
    let mut rows: Vec<Row> = Vec::new();
    for &nblocks in sw.chain_lengths {
        let dir = std::env::temp_dir().join(format!(
            "sebdb-bench-indexresident-n{nblocks}-{}",
            std::process::id()
        ));
        build_chain(&dir, nblocks);

        // Checkpointed opens across the cache-capacity sweep, each
        // followed by the probe workload that pages the frozen index.
        for cache_blocks in CACHE_BLOCKS {
            let (store, ledger, open_ms, store_open_ms) = open_ledger(&dir, cache_blocks);
            ledger
                .create_layered_index(&donate_schema(), "amount", None)
                .expect("reattach layered index");
            store.stats.reset();
            let mean_us_per_probe = probe(&ledger, sw.probes);
            let (cache_hits, cache_misses) = store.stats.index_cache_counts();
            rows.push(Row {
                blocks: nblocks,
                checkpoint: "on",
                cache_blocks,
                open_ms,
                store_open_ms,
                mean_us_per_probe,
                resident_index_bytes: ledger.index_memory_bytes(),
                store_resident_bytes: store.metadata_bytes(),
                cache_resident_blocks: store.index_cache().resident_blocks(),
                cache_resident_bytes: store.index_cache().resident_bytes(),
                cache_hits,
                cache_misses,
            });
        }

        // The no-checkpoint reference: drop the checkpoint directory so
        // the open replays the whole chain (linear in `nblocks`).
        let _ = std::fs::remove_dir_all(dir.join(sebdb_storage::indexseg::INDEX_CHECKPOINT_DIR));
        let (store, ledger, open_ms, store_open_ms) = open_ledger(&dir, CACHE_BLOCKS[0]);
        rows.push(Row {
            blocks: nblocks,
            checkpoint: "off",
            cache_blocks: CACHE_BLOCKS[0],
            open_ms,
            store_open_ms,
            mean_us_per_probe: 0,
            resident_index_bytes: ledger.index_memory_bytes(),
            store_resident_bytes: store.metadata_bytes(),
            cache_resident_blocks: store.index_cache().resident_blocks(),
            cache_resident_bytes: store.index_cache().resident_bytes(),
            cache_hits: 0,
            cache_misses: 0,
        });

        let _ = std::fs::remove_dir_all(&dir);
    }
    write_json(&rows);
}

fn write_json(rows: &[Row]) {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries = String::new();
    for r in rows {
        entries.push_str(&format!(
            "    {{\"blocks\": {}, \"checkpoint\": \"{}\", \"cache_blocks\": {}, \
             \"open_ms\": {}, \"store_open_ms\": {}, \"mean_us_per_probe\": {}, \
             \"resident_index_bytes\": {}, \"store_resident_bytes\": {}, \
             \"cache_resident_blocks\": {}, \"cache_resident_bytes\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}}},\n",
            r.blocks,
            r.checkpoint,
            r.cache_blocks,
            r.open_ms,
            r.store_open_ms,
            r.mean_us_per_probe,
            r.resident_index_bytes,
            r.store_resident_bytes,
            r.cache_resident_blocks,
            r.cache_resident_bytes,
            r.cache_hits,
            r.cache_misses
        ));
    }
    entries.pop();
    entries.pop();
    let body = format!(
        "{{\n  \"bench\": \"index_resident\",\n  \"cpus\": {cpus},\n  \
         \"note\": \"open time vs chain length with (checkpoint=on) and \
         without (checkpoint=off) on-disk index checkpoints, plus resident index \
         bytes after a layered probe workload across index-block cache capacities \
         (cache_blocks=0 is unbounded, the cache=inf reference). open_ms is \
         BlockStore::open + Ledger::new, store_open_ms the store's share; \
         store_resident_bytes is the store's own resident metadata (block keys, \
         manifest entries, tuple location tables), which both replay in full. \
         Checkpointed ledger opens load the fence-pointer top level and replay only \
         the tail; checkpoint=off replays every block. Each cache \
         miss pays one seek + one disk-block transfer — Eq. 3's per-block transfer \
         term applied to the index itself — so cache_resident_bytes is bounded by \
         capacity where the unbounded reference grows with the blocks touched\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    let path = if smoke() {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_indexresident_smoke.json"
        )
    } else {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_indexresident.json"
        )
    };
    std::fs::write(path, body).expect("write BENCH_indexresident.json");
    eprintln!("wrote {path}");
}
