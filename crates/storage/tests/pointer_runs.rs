//! Pointer fetches read by runs cut by bytes: `BlockStore::fetch_raw`
//! groups pointers by partition and cuts each group into runs of one
//! positioned read each, bounded by `SCAN_RUN_BYTES`. Every tuple it
//! returns is the one `BlockStore::read` puts at that block and
//! position, byte for byte, one per pointer.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{BlockStore, RawExtent, StoreConfig, TxPtr, SCAN_RUN_BYTES};
use sebdb_types::{Block, Codec, Transaction, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64: a seeded stream, so a failure replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Block `height` of 1–200 tuples over three relations, each with a
/// memo of random length.
fn block(rng: &mut Rng, height: u64) -> Block {
    let tables = ["donate", "transfer", "distribute"];
    let ntx = 1 + rng.below(200) as usize;
    let txs = (0..ntx)
        .map(|i| {
            let memo = "m".repeat(rng.below(600) as usize);
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([1; 8]),
                tables[rng.below(3) as usize],
                vec![Value::Int(rng.below(1_000_000) as i64), Value::Str(memo)],
            );
            t.tid = height * 1000 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

/// Positioned reads the store issues while `f` runs.
fn preads<T>(store: &BlockStore, f: impl FnOnce() -> T) -> (T, u64) {
    let count = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&count);
    store.read_gauges().set_read_probe(Some(Box::new(move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let out = f();
    store.read_gauges().set_read_probe(None);
    (out, count.load(Ordering::Relaxed))
}

/// Fetches `ptrs` (sorted) and checks the runs against whole-block
/// reads and against the cut rule's bounds and counters.
fn check_fetch(store: &BlockStore, blocks: &[Arc<Block>], ptrs: &[TxPtr], what: &str) {
    store.stats.reset();
    let (runs, reads) = preads(store, || store.fetch_raw(ptrs).unwrap());
    assert_eq!(reads, runs.len() as u64, "{what}: one read per run");
    let mut read_bytes = 0;
    for run in &runs {
        assert!(
            run.byte_len() <= SCAN_RUN_BYTES as usize,
            "{what}: run of {} bytes",
            run.byte_len()
        );
        read_bytes += run.byte_len() as u64;
    }
    assert_eq!(store.stats.snapshot(), (0, 0, ptrs.len() as u64), "{what}");
    assert_eq!(store.stats.bytes_read(), read_bytes, "{what}");
    let mut got: Vec<(u64, u32, &[u8])> = runs
        .iter()
        .flat_map(RawExtent::tuples)
        .map(|t| (t.bid, t.canon, t.bytes))
        .collect();
    got.sort_by_key(|&(bid, canon, _)| (bid, canon));
    assert_eq!(got.len(), ptrs.len(), "{what}: one tuple per pointer");
    for (p, (bid, canon, bytes)) in ptrs.iter().zip(got) {
        assert_eq!((bid, canon), (p.block, p.index), "{what}");
        let want = blocks[bid as usize].transactions[canon as usize].to_bytes();
        assert_eq!(bytes, &want[..], "{what}: tuple {bid}/{canon}");
    }
}

#[test]
fn pointer_runs_equal_whole_block_reads() {
    let mut rng = Rng(0x5eb_db45);
    for partitions in [1usize, 2, 8] {
        for segment_size in [256u64 << 20, 64 << 10] {
            let store = BlockStore::temporary(StoreConfig {
                partitions,
                segment_size,
                ..StoreConfig::default()
            })
            .unwrap();
            let nblocks = 24u64;
            for h in 0..nblocks {
                store.append(&block(&mut rng, h)).unwrap();
            }
            let blocks: Vec<Arc<Block>> = (0..nblocks).map(|b| store.read(b).unwrap()).collect();
            let every = |b: u64| {
                (0..blocks[b as usize].transactions.len() as u32)
                    .map(move |i| TxPtr { block: b, index: i })
            };
            for round in 0..12 {
                let what = format!("p{partitions} seg {segment_size} round {round}");
                let ptrs: Vec<TxPtr> = match round % 4 {
                    // Every tuple of a block and of the block after it.
                    0 => {
                        let b = rng.below(nblocks - 1);
                        every(b).chain(every(b + 1)).collect()
                    }
                    // One tuple of each of a few adjacent blocks.
                    1 => {
                        let b = rng.below(nblocks - 4);
                        (b..b + 4)
                            .map(|b| {
                                every(b)
                                    .nth(rng.below(blocks[b as usize].transactions.len() as u64)
                                        as usize)
                                    .unwrap()
                            })
                            .collect()
                    }
                    // A sparse or a dense random subset of the chain.
                    r => {
                        let keep = if r == 2 { 50 } else { 3 };
                        (0..nblocks)
                            .flat_map(every)
                            .filter(|_| rng.below(keep) == 0)
                            .collect()
                    }
                };
                check_fetch(&store, &blocks, &ptrs, &what);
            }
            // The whole chain: every run full or cut by a segment roll,
            // a partition change or the budget.
            let all: Vec<TxPtr> = (0..nblocks).flat_map(every).collect();
            check_fetch(
                &store,
                &blocks,
                &all,
                &format!("p{partitions} seg {segment_size} all"),
            );
        }
    }
}
