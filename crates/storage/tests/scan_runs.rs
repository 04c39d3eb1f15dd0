//! Relation scans read by runs cut by bytes: `BlockStore::relation_runs`
//! cuts a scan's blocks into runs whose extents lie back to back in one
//! segment and add up to about `SCAN_RUN_BYTES`, and a scan issues one
//! positioned read per planned run — not one per window of a few
//! blocks. Every tuple it returns is the one `BlockStore::read` puts at
//! that block and position, byte for byte.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{BlockStore, RawExtent, StoreConfig, RELATION_PARTITIONS, SCAN_RUN_BYTES};
use sebdb_types::{Block, Codec, Transaction, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block `height`: `ntx` tuples round-robin over `tables`, each with a
/// payload of about 120 bytes so a few hundred blocks fill several runs.
fn block(height: u64, tables: &[&str], ntx: usize) -> Block {
    let txs = (0..ntx)
        .map(|i| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([1; 8]),
                tables[i % tables.len()],
                vec![
                    Value::Int((height * 31 + i as u64) as i64),
                    Value::Str(format!("{height}-{i}-{}", "x".repeat(100))),
                ],
            );
            t.tid = height * 100 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

/// A store of `partitions` partitions and `segment_size`-byte segments
/// holding `nblocks` blocks of `ntx` tuples; block `h` carries
/// `tables_at(h)`.
fn store_with<'t>(
    partitions: usize,
    segment_size: u64,
    (nblocks, ntx): (u64, usize),
    tables_at: impl Fn(u64) -> &'t [&'t str],
) -> BlockStore {
    let store = BlockStore::temporary(StoreConfig {
        partitions,
        segment_size,
        ..StoreConfig::default()
    })
    .unwrap();
    for h in 0..nblocks {
        store.append(&block(h, tables_at(h), ntx)).unwrap();
    }
    store
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

/// `(canonical index, encoding)` of every tuple in `raw`, by block.
fn by_block(raw: &[RawExtent]) -> BTreeMap<u64, Vec<(u32, Vec<u8>)>> {
    let mut out: BTreeMap<u64, Vec<(u32, Vec<u8>)>> = BTreeMap::new();
    for t in raw.iter().flat_map(RawExtent::tuples) {
        out.entry(t.bid)
            .or_default()
            .push((t.canon, t.bytes.to_vec()));
    }
    out
}

/// Scans `table` over `bids` and checks the scan against its plan and
/// against whole-block reads: the runs cover `bids` in order, the scan
/// issues one read per run with bytes, each run's scan is one extent
/// from one read and within the budget, the counters charge one block
/// per bid and the tuples' bytes, and every `(bid, canon, bytes)` is
/// the block's. Returns, per run, its bytes and its first block's.
fn check_scan(store: &BlockStore, bids: &[u64], table: &str) -> Vec<(usize, usize)> {
    let runs = store.relation_runs(bids, table);
    assert_eq!(runs.concat(), bids, "{table}: runs do not cover the scan");
    store.stats.reset();
    let (raw, reads) = preads(store, || store.scan_relation_raw(bids, table).unwrap());
    assert_eq!(reads, raw.len() as u64, "{table}: one read per extent");
    assert_eq!(store.stats.snapshot(), (bids.len() as u64, 0, 0));
    let tuple_bytes: usize = raw
        .iter()
        .flat_map(RawExtent::tuples)
        .map(|t| t.bytes.len())
        .sum();
    assert_eq!(store.stats.bytes_read(), tuple_bytes as u64, "{table}");

    // Each planned run reads as one extent with one read, or, where no
    // block of it has the relation's partition, reads nothing.
    let (mut per_run, mut sizes) = (Vec::new(), Vec::new());
    for run in &runs {
        let (ext, reads) = preads(store, || store.scan_relation_raw(run, table).unwrap());
        assert!(
            ext.len() <= 1 && reads == ext.len() as u64,
            "{table}: {run:?}"
        );
        let bytes: usize = ext
            .iter()
            .flat_map(RawExtent::tuples)
            .map(|t| t.bytes.len())
            .sum();
        let blocks = by_block(&ext);
        assert!(
            bytes <= SCAN_RUN_BYTES as usize || blocks.len() == 1,
            "{table}: run of {bytes} bytes over budget"
        );
        let first = blocks.values().next().into_iter().flatten();
        sizes.push((bytes, first.map(|(_, b)| b.len()).sum()));
        per_run.extend(ext);
    }
    assert_eq!(raw.len(), per_run.len(), "{table}: the scan is its runs");
    assert_eq!(by_block(&raw), by_block(&per_run), "{table}");

    let route = store.partition_of(table);
    let mut got = by_block(&raw);
    for &bid in bids {
        let expect: Vec<(u32, Vec<u8>)> = store
            .read(bid)
            .unwrap()
            .transactions
            .iter()
            .enumerate()
            .filter(|(_, t)| route.is_some() && store.partition_of(&t.tname) == route)
            .map(|(i, t)| (i as u32, t.to_bytes()))
            .collect();
        let have = got.remove(&bid).unwrap_or_default();
        assert_eq!(have, expect, "{table} block {bid}");
    }
    assert!(got.is_empty(), "{table}: tuples of blocks not asked for");
    sizes
}

/// Flat and partitioned, a long scan is a handful of byte-cut runs —
/// far fewer reads than one per 8-block window.
#[test]
fn a_scan_issues_one_read_per_planned_run() {
    const WINDOW_BLOCKS: usize = 8;
    let tables = ["donate", "transfer", "distribute"];
    let nblocks = 240u64;
    for partitions in [1usize, RELATION_PARTITIONS] {
        let store = store_with(partitions, 256 << 20, (nblocks, 5), |_| &tables[..]);
        let bids: Vec<u64> = (0..nblocks).collect();
        for table in tables {
            let sizes = check_scan(&store, &bids, table);
            let (runs, windows) = (sizes.len(), bids.len().div_ceil(WINDOW_BLOCKS));
            assert!(runs > 1, "p{partitions} {table}: one run");
            assert!(
                runs * 2 < windows,
                "p{partitions} {table}: {runs} runs against {windows} 8-block windows"
            );
            // One segment, no gaps: only the budget ends a run.
            for pair in sizes.windows(2) {
                assert!(pair[0].0 + pair[1].1 > SCAN_RUN_BYTES as usize, "{pair:?}");
            }
        }
    }
}

/// Relations sharing a partition come back from one scan: the runs
/// carry every co-located tuple, and the budget counts their bytes.
#[test]
fn co_located_relations_share_the_runs() {
    let names: Vec<String> = (0..9).map(|k| format!("r{k}")).collect();
    let tables: Vec<&str> = names.iter().map(String::as_str).collect();
    let store = store_with(RELATION_PARTITIONS, 256 << 20, (240, 9), |_| &tables[..]);
    assert!(store.co_located("r0", "r8"));
    let bids: Vec<u64> = (0..240).collect();
    let runs = |table| check_scan(&store, &bids, table).len();
    assert_eq!(runs("r8"), runs("r0"));
    assert!(runs("r8") > runs("r1"));
}

/// A block mask with gaps cuts a run wherever a skipped block holds an
/// extent of the partition, and blocks without the relation ride in
/// the runs around them with nothing to read.
#[test]
fn gaps_and_blocks_without_the_relation() {
    let all = ["donate", "transfer"];
    let some = ["transfer"];
    // Every third block lacks `donate`.
    let store = store_with(RELATION_PARTITIONS, 256 << 20, (200, 5), |h| match h % 3 {
        1 => &some[..],
        _ => &all[..],
    });
    let every: Vec<u64> = (0..200).collect();
    let runs = |bids: &[u64], table| check_scan(&store, bids, table).len();
    let whole = runs(&every, "donate");
    // Skipping blocks that hold `donate` breaks contiguity: a run ends
    // at each gap.
    let gappy: Vec<u64> = every.iter().copied().filter(|b| b % 15 != 6).collect();
    assert!(runs(&gappy, "donate") > 13);
    // Skipping only blocks without `donate` reads as the whole scan.
    let holes: Vec<u64> = every.iter().copied().filter(|b| b % 6 != 1).collect();
    assert_eq!(runs(&holes, "donate"), whole);
    // Only blocks without the relation: one run, nothing read.
    let none: Vec<u64> = every.iter().copied().filter(|b| b % 3 == 1).collect();
    assert_eq!(runs(&none, "donate"), 1);
    // A relation no block carries: one run, nothing read.
    assert_eq!(runs(&every, "pledge"), 1);
}

/// A segment roll ends a run: its extents are not back to back, so the
/// scan reads each side of the roll separately.
#[test]
fn a_segment_roll_ends_a_run() {
    let tables = ["donate", "transfer"];
    let nblocks = 120u64;
    let small = store_with(RELATION_PARTITIONS, 4096, (nblocks, 5), |_| &tables[..]);
    let large = store_with(
        RELATION_PARTITIONS,
        256 << 20,
        (nblocks, 5),
        |_| &tables[..],
    );
    let bids: Vec<u64> = (0..nblocks).collect();
    for table in tables {
        let rolled = check_scan(&small, &bids, table).len();
        let whole = check_scan(&large, &bids, table).len();
        // Each 4 KiB segment holds fewer bytes than one run.
        assert!(rolled > whole, "{table}: {rolled} runs vs {whole}");
        let part = small
            .dir()
            .join(format!("part-{}", small.partition_of(table).unwrap()));
        let segments = std::fs::read_dir(part).unwrap().count();
        assert_eq!(rolled, segments, "{table}: one run per segment");
    }
}
