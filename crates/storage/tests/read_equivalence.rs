//! Equivalence and accounting contracts for the coalesced read path.
//!
//! The coalescing must be invisible to callers: pointer runs
//! (`BlockStore::fetch_raw`) return the bytes whole-block reads put at
//! each block and position, whether the worker pool is sequential
//! (`SEBDB_THREADS=1`) or parallel. The `IoStats` bytes
//! counter pins tuple reads to tuple granularity, on the store that
//! appended the chain and on one that replayed it from the manifest.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{BlockStore, RawExtent, StoreConfig, TxPtr};
use sebdb_types::{Block, Codec, Transaction, Value};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Serializes tests that flip the process-global worker-pool size.
fn threads_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn block(height: u64, ntx: usize) -> Block {
    let txs = (0..ntx)
        .map(|i| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([1; 8]),
                "donate",
                vec![
                    Value::Int((height * 31 + i as u64) as i64),
                    Value::Str(format!("payload-{height}-{i}")),
                ],
            );
            t.tid = height * 100 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sebdb-readeq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build_chain(store: &BlockStore, nblocks: u64, ntx: usize) {
    for h in 0..nblocks {
        store.append(&block(h, ntx)).unwrap();
    }
}

/// A pointer workload mixing duplicates, same-block clusters (which
/// coalesce into span preads), and cross-block jumps.
fn workload(nblocks: u64, ntx: usize) -> Vec<TxPtr> {
    let mut ptrs = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    for _ in 0..64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let block = (state >> 33) % nblocks;
        let index = ((state >> 17) % ntx as u64) as u32;
        ptrs.push(TxPtr { block, index });
    }
    // Explicit duplicates and a dense same-block cluster.
    ptrs.push(TxPtr { block: 0, index: 0 });
    ptrs.push(TxPtr { block: 0, index: 0 });
    for i in 0..ntx as u32 {
        ptrs.push(TxPtr { block: 1, index: i });
    }
    ptrs
}

/// Pointer runs must be byte-identical to whole-block reads at every
/// pool size, one tuple per pointer, repeats included.
fn assert_equivalence(store: &BlockStore, nblocks: u64, ntx: usize) {
    let mut ptrs = workload(nblocks, ntx);
    ptrs.sort();
    let expected: Vec<Vec<u8>> = ptrs
        .iter()
        .map(|&p| store.read(p.block).unwrap().transactions[p.index as usize].to_bytes())
        .collect();
    for threads in [1usize, 4] {
        sebdb_parallel::set_max_threads(threads);
        let runs = store.fetch_raw(&ptrs).unwrap();
        let got: Vec<_> = runs.iter().flat_map(RawExtent::tuples).collect();
        assert_eq!(got.len(), ptrs.len());
        for (i, (t, want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                (t.bid, t.canon, t.bytes),
                (ptrs[i].block, ptrs[i].index, &want[..]),
                "{threads} thread(s): ptr {i} ({:?}) differs",
                ptrs[i]
            );
        }
    }
}

#[test]
fn grouped_reads_byte_identical_on_disk() {
    let _guard = threads_lock().lock().unwrap();
    let store = BlockStore::temporary(StoreConfig {
        segment_size: 4096,
        sync_writes: false,
        ..StoreConfig::default()
    })
    .unwrap();
    build_chain(&store, 6, 8);
    assert_equivalence(&store, 6, 8);
}

/// Satellite regression: a tuple-granular point lookup reads at most
/// tuple-size + a small fixed header worth of bytes — not the whole
/// block — both on the store that appended the chain and on one that
/// rebuilt its tuple tables from the manifest at open.
#[test]
fn tuple_reads_are_tuple_granular_in_bytes() {
    let dir = tmpdir("granular");
    let appended = BlockStore::open(&dir, StoreConfig::default()).unwrap();
    build_chain(&appended, 3, 6);
    drop(appended);
    let reopened = BlockStore::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(reopened.height(), 3);
    let fresh = BlockStore::temporary(StoreConfig::default()).unwrap();
    build_chain(&fresh, 3, 6);
    for (name, store) in [("appended", fresh), ("reopened", reopened)] {
        let ptr = TxPtr { block: 1, index: 2 };
        let tuple_len = {
            let b = store.read(ptr.block).unwrap();
            b.transactions[ptr.index as usize].to_bytes().len() as u64
        };
        let block_len = store.read(ptr.block).unwrap().byte_len() as u64;
        store.stats.reset();
        let runs = store.fetch_raw(&[ptr]).unwrap();
        let tx = runs[0].tuples().next().unwrap().decode().unwrap();
        assert_eq!(tx.tid, 102, "{name}");
        let read = store.stats.bytes_read();
        assert!(
            read <= tuple_len + 16,
            "{name}: tuple read transferred {read} bytes for a {tuple_len}-byte tuple"
        );
        assert!(
            read < block_len,
            "{name}: tuple read degraded to block granularity"
        );
        let (blocks_read, _, txs_read) = store.stats.snapshot();
        assert_eq!(blocks_read, 0, "{name}: tuple read counted a block read");
        assert_eq!(txs_read, 1, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
