//! Relation placement: relations take partitions round-robin in order of
//! first appearance on the chain, and each placement commits with the
//! block that first carries the relation.
//!
//! The placement is a function of the chain alone: a reopen restores
//! it, a failed append places nothing and its retry places identically,
//! and two stores fed the same blocks end with byte-identical files.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{BlockStore, RawExtent, StoreConfig, WriteStep, RELATION_PARTITIONS};
use sebdb_types::{Block, Transaction, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sebdb-placement-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg() -> StoreConfig {
    StoreConfig {
        segment_size: 4096,
        ..StoreConfig::default()
    }
}

/// Block `height` with `ntx` tuples round-robin over `tables`, the same
/// bytes every time it is built.
fn block(height: u64, tables: &[&str], ntx: usize) -> Block {
    let txs = (0..ntx)
        .map(|i| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([2; 8]),
                tables[i % tables.len()],
                vec![Value::Int((height * 17 + i as u64) as i64)],
            );
            t.tid = height * 100 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

/// The relations of the chain below: block 0 introduces `b` before `a`
/// (canonical order), block 1 only repeats them, block 2 introduces `c`
/// beside `a`, block 3 introduces `d` under another case.
const CHAIN: [&[&str]; 4] = [&["b", "a"], &["a", "b"], &["a", "c"], &["D", "b"]];

fn fill(store: &BlockStore, chain: &[&[&str]]) {
    for (h, tables) in chain.iter().enumerate() {
        store.append(&block(h as u64, tables, 6)).unwrap();
    }
}

/// Every relation's partition, by name.
fn placement(store: &BlockStore, names: &[&str]) -> Vec<Option<usize>> {
    names.iter().map(|n| store.partition_of(n)).collect()
}

/// Every file under `dir`, by path relative to it.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn relations_are_placed_round_robin_by_first_appearance_and_reopen_restores_it() {
    let dir = tmpdir("order");
    let names = ["a", "b", "c", "d", "A", "D", "never"];
    let want = [Some(1), Some(0), Some(2), Some(3), Some(1), Some(3), None];
    {
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(placement(&store, &names), [None; 7]);
        fill(&store, &CHAIN[..2]);
        assert_eq!(store.partition_of("c"), None, "placed before its block");
        fill_from(&store, 2);
        assert_eq!(placement(&store, &names), want);
        assert_eq!(store.relations_in(0), ["b"]);
        assert_eq!(store.relations_in(3), ["d"]);
        assert!(store.relations_in(4).is_empty());
        assert!(store.co_located("a", "A") && !store.co_located("a", "b"));
        assert!(!store.co_located("never", "never"), "an unplaced relation");
    }
    let store = BlockStore::open(&dir, cfg()).unwrap();
    assert_eq!(placement(&store, &names), want, "reopen");
    // Placement goes on where it stopped.
    store.append(&block(4, &["e", "a"], 4)).unwrap();
    assert_eq!(store.partition_of("e"), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends `CHAIN[from..]`.
fn fill_from(store: &BlockStore, from: usize) {
    for (h, tables) in CHAIN.iter().enumerate().skip(from) {
        store.append(&block(h as u64, tables, 6)).unwrap();
    }
}

/// The commit point is the manifest record, and the placement commits
/// with it: a fault there leaves the relation unplaced, and retrying the
/// block — in the same process or after a reopen — places it where a
/// store that never failed does. After the reopen the files are those
/// of that store, byte for byte.
#[test]
fn a_failed_append_places_nothing_and_its_retry_places_identically() {
    let clean_dir = tmpdir("clean");
    let clean = BlockStore::open(&clean_dir, cfg()).unwrap();
    fill(&clean, &CHAIN);
    let names = ["a", "b", "c", "d"];
    let want = placement(&clean, &names);

    for reopen in [false, true] {
        let dir = tmpdir(&format!("retry-{reopen}"));
        let mut store = BlockStore::open(&dir, cfg()).unwrap();
        fill(&store, &CHAIN[..2]);
        store.set_write_fault(Some(Box::new(|s| s == WriteStep::ManifestWrite)));
        assert!(store.append(&block(2, CHAIN[2], 6)).is_err());
        assert_eq!(store.height(), 2);
        assert_eq!(store.partition_of("c"), None, "reopen {reopen}: placed");
        assert!(store.relations_in(2).is_empty(), "reopen {reopen}");
        store.set_write_fault(None);
        if reopen {
            drop(store);
            store = BlockStore::open(&dir, cfg()).unwrap();
            assert_eq!(store.partition_of("c"), None, "placed by the reopen");
        }
        fill_from(&store, 2);
        assert_eq!(placement(&store, &names), want, "reopen {reopen}");
        if reopen {
            drop(store);
            assert!(
                files(&dir) == files(&clean_dir),
                "files differ from the clean store's"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    drop(clean);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// A block cut at open — its manifest record torn, or its new
/// partition's extent short of the record — takes its placement with it.
#[test]
fn a_cut_block_takes_its_placement_with_it() {
    for case in ["torn record", "short extent"] {
        let dir = tmpdir(&case.replace(' ', "-"));
        {
            let store = BlockStore::open(&dir, cfg()).unwrap();
            fill(&store, &CHAIN);
            assert_eq!(store.partition_of("d"), Some(3));
        }
        let victim = match case {
            "torn record" => dir.join("blockmanifest.idx"),
            _ => dir.join("part-3").join("seg-00000.dat"),
        };
        let len = std::fs::metadata(&victim).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.height(), 3, "{case}");
        assert_eq!(
            store.partition_of("d"),
            None,
            "{case}: placement survived its block"
        );
        assert_eq!(store.partition_of("c"), Some(2), "{case}");
        fill_from(&store, 3);
        assert_eq!(store.partition_of("d"), Some(3), "{case}: re-appended");
        drop(store);
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.partition_of("d"), Some(3), "{case}: reopened");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn two_stores_fed_the_same_blocks_end_byte_identical() {
    let chain: Vec<Vec<String>> = (0..12)
        .map(|h| {
            (0..1 + h % 4)
                .map(|k| format!("rel{}", (h * 3 + k) % 11))
                .collect()
        })
        .collect();
    let dirs = [tmpdir("replica-a"), tmpdir("replica-b")];
    for dir in &dirs {
        let store = BlockStore::open(dir, cfg()).unwrap();
        for (h, tables) in chain.iter().enumerate() {
            let tables: Vec<&str> = tables.iter().map(String::as_str).collect();
            store.append(&block(h as u64, &tables, 7)).unwrap();
        }
    }
    assert!(files(&dirs[0]) == files(&dirs[1]), "replicas differ");
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Nine relations over eight partitions: the ninth wraps around to the
/// first's partition. A relation scan returns its partition's tuples —
/// the one relation asked for where it is alone, the two sharing
/// partition 0 there — and nothing of any other relation.
#[test]
fn nine_relations_wrap_around_and_scans_return_only_their_partition() {
    let names: Vec<String> = (0..9).map(|k| format!("r{k}")).collect();
    let tables: Vec<&str> = names.iter().map(String::as_str).collect();
    let store = BlockStore::temporary(cfg()).unwrap();
    for h in 0..5 {
        store.append(&block(h, &tables, 27)).unwrap();
    }
    assert_eq!(store.partitions(), RELATION_PARTITIONS);
    for (k, t) in tables.iter().enumerate() {
        assert_eq!(store.partition_of(t), Some(k % 8), "{t}");
    }
    assert_eq!(store.relations_in(0), ["r0", "r8"]);
    assert!(store.co_located("r0", "r8") && !store.co_located("r0", "r1"));
    let bids: Vec<u64> = (0..5).collect();
    for t in &tables {
        let sharing = store.relations_in(store.partition_of(t).unwrap());
        let raw = store.scan_relation_raw(&bids, t).unwrap();
        let mut by_block: BTreeMap<u64, Vec<(u32, Transaction)>> = BTreeMap::new();
        for tuple in raw.iter().flat_map(RawExtent::tuples) {
            let at = by_block.entry(tuple.bid).or_default();
            at.push((tuple.canon, tuple.decode().unwrap()));
        }
        assert!(by_block.keys().all(|b| bids.contains(b)), "{t}");
        for &bid in &bids {
            let txs = by_block.remove(&bid).unwrap_or_default();
            let from_block: Vec<(u32, Transaction)> = store
                .read(bid)
                .unwrap()
                .transactions
                .iter()
                .enumerate()
                .filter(|(_, tx)| sharing.contains(&tx.tname))
                .map(|(i, tx)| (i as u32, tx.clone()))
                .collect();
            assert_eq!(txs, from_block, "{t} block {bid}");
            assert_eq!(from_block.len(), 3 * sharing.len(), "{t} block {bid}");
        }
    }
    // A relation no block carries scans as nothing, and reads nothing.
    store.stats.reset();
    let none = store.scan_relation_raw(&bids, "r9").unwrap();
    assert!(none.is_empty());
    assert_eq!(store.stats.bytes_read(), 0);
}
