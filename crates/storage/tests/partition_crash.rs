//! Crash-recovery contracts for the partitioned layout.
//!
//! The chain-order manifest is the commit point of an append and the
//! only metadata a store keeps: a crash torn at *any* write boundary —
//! a partition extent, the chain record, or the manifest record itself
//! — and a manifest record cut at any byte or corrupt in its tuple
//! table must heal on the next open with the store rolled back to the
//! last fully-committed block, and the healed store must keep serving
//! byte-identical blocks and accept new appends — including an append
//! that places a relation no earlier block carried, whose placement
//! commits with it or not at all. Single-relation scans are strictly
//! cheaper in `bytes_read` than the unpartitioned layout.

use sebdb_crypto::sha256::Digest;
use sebdb_storage::{
    BlockStore, IndexCheckpoint, RawExtent, StorageError, StoreConfig, WriteStep, CHAIN_PARTITION,
    INDEX_CHECKPOINT_DIR,
};
use sebdb_types::{Block, Codec, Transaction, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sebdb-partcrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg() -> StoreConfig {
    StoreConfig {
        segment_size: 4096,
        sync_writes: false,
        ..StoreConfig::default()
    }
}

fn cfg_synced(sync_writes: bool) -> StoreConfig {
    StoreConfig {
        sync_writes,
        ..cfg()
    }
}

/// Three relations, each placed in a partition of its own, so every
/// block fans out across several partition writers.
fn spanning_tables() -> Vec<&'static str> {
    vec!["donate", "account", "project"]
}

/// The partition each of `tables` is placed in by a store whose first
/// block carries them all.
fn partitions_of(tables: &[&str]) -> Vec<usize> {
    let store = BlockStore::temporary(cfg()).unwrap();
    store.append(&block(0, tables, 2 * tables.len())).unwrap();
    let parts: Vec<usize> = tables
        .iter()
        .map(|t| store.partition_of(t).unwrap())
        .collect();
    let mut distinct = parts.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), tables.len(), "relations share a partition");
    parts
}

/// A deterministic multi-relation block: tuples round-robin over
/// `tables`, so rebuilding `block(h, ..)` always yields identical
/// bytes for comparison against what the store serves.
fn block(height: u64, tables: &[&str], ntx: usize) -> Block {
    let txs = (0..ntx)
        .map(|i| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                sebdb_crypto::sig::KeyId([1; 8]),
                tables[i % tables.len()],
                vec![
                    Value::Int((height * 31 + i as u64) as i64),
                    Value::Str(format!("row-{height}-{i}")),
                ],
            );
            t.tid = height * 100 + i as u64;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![0u8; 4])
}

fn assert_chain_identical(store: &BlockStore, tables: &[&str], ntx: usize, upto: u64, ctx: &str) {
    assert_chain_is(store, |h| block(h, tables, ntx), upto, ctx);
}

fn assert_chain_is(store: &BlockStore, expect: impl Fn(u64) -> Block, upto: u64, ctx: &str) {
    for h in 0..upto {
        assert_eq!(
            store.read(h).unwrap().to_bytes(),
            expect(h).to_bytes(),
            "{ctx}: block {h} differs after heal"
        );
    }
}

/// The write steps appending block 3 of `expect` crosses, in the order
/// their fault checks ran.
fn steps_fired(config: StoreConfig, expect: impl Fn(u64) -> Block) -> Vec<WriteStep> {
    let store = BlockStore::temporary(config).unwrap();
    for h in 0..3 {
        store.append(&expect(h)).unwrap();
    }
    let fired = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&fired);
    store.set_write_fault(Some(Box::new(move |s| {
        log.lock().unwrap().push(s);
        false
    })));
    store.append(&expect(3)).unwrap();
    let steps = fired.lock().unwrap().clone();
    steps
}

/// A crash injected at every write-order boundary of an append — the
/// chain-record write, each touched partition's extent write, and the
/// manifest write, exactly P + 2 steps for P touched partitions —
/// fails that append without advancing the height, and a reopen heals
/// the torn on-disk state back to the last committed block. The ladder
/// runs with and without `sync_writes` (which fans the partition writes
/// out across workers), each time on a block of relations already
/// placed and on one that also places a new relation (`pledge`), which
/// must stay unplaced until the block commits and then land where a
/// store that never failed puts it.
#[test]
fn crash_at_every_write_boundary_heals_on_reopen() {
    for (sync_writes, places) in [(false, false), (false, true), (true, false), (true, true)] {
        write_boundary_ladder(cfg_synced(sync_writes), places, "boundary");
    }
}

/// The same ladder under `sync_writes` with segments so small that
/// every write of the torn append rolls its writer to a fresh segment
/// file — the files whose directory entries `sync_writes` fsyncs.
#[test]
fn crash_at_every_write_boundary_heals_across_segment_rolls() {
    let config = StoreConfig {
        segment_size: 64,
        sync_writes: true,
        ..StoreConfig::default()
    };
    // Every write of block 3 rolls: each partition written gains a file.
    let tables = spanning_tables();
    let store = BlockStore::temporary(config.clone()).unwrap();
    for h in 0..3 {
        store.append(&block(h, &tables, 8)).unwrap();
    }
    let before = count_segments(store.dir());
    store.append(&block(3, &tables, 8)).unwrap();
    assert_eq!(count_segments(store.dir()), before + tables.len() + 1);
    for places in [false, true] {
        write_boundary_ladder(config.clone(), places, "rolling");
    }
}

/// The ladder of the two tests above, under `config`; `places` makes
/// block 3 place the new relation `pledge`.
fn write_boundary_ladder(config: StoreConfig, places: bool, tag: &str) {
    let sync_writes = config.sync_writes;
    let tables = spanning_tables();
    let mut grown = tables.clone();
    grown.push("pledge");
    let ntx = 8;
    let cfg = || config.clone();
    let at = |h: u64| match places && h >= 3 {
        true => &grown[..],
        false => &tables[..],
    };
    let expect = |h: u64| block(h, at(h), ntx);
    let mut touched = partitions_of(at(3));
    let pledge = places.then(|| touched[3]);
    touched.sort_unstable();
    let mut steps = vec![WriteStep::PartitionWrite(CHAIN_PARTITION)];
    steps.extend(touched.iter().map(|&p| WriteStep::PartitionWrite(p)));
    steps.push(WriteStep::ManifestWrite);
    // No other step fires. Fanned out, the partition writes may
    // cross their boundaries in any order, but all before the
    // manifest's.
    let fired = steps_fired(cfg(), expect);
    let ctx = format!("sync_writes: {sync_writes}, places a relation: {places}");
    assert_eq!(fired.len(), touched.len() + 2, "{ctx}: {fired:?}");
    assert_eq!(fired.last(), Some(&WriteStep::ManifestWrite), "{ctx}");
    assert!(steps.iter().all(|s| fired.contains(s)), "{ctx}: {fired:?}");
    if !sync_writes {
        assert_eq!(fired, steps, "{ctx}");
    }
    for (si, step) in steps.into_iter().enumerate() {
        let ctx = format!("{step:?}, {ctx}");
        let dir = tmpdir(&format!("{tag}-{sync_writes}-{places}-{si}"));
        {
            let store = BlockStore::open(&dir, cfg()).unwrap();
            for h in 0..3 {
                store.append(&expect(h)).unwrap();
            }
            store.set_write_fault(Some(Box::new(move |s| s == step)));
            let err = store.append(&expect(3)).unwrap_err();
            assert!(
                err.to_string().contains("injected write fault"),
                "{ctx}: unexpected error {err}"
            );
            assert_eq!(
                store.height(),
                3,
                "{ctx}: failed append advanced the height"
            );
            assert_eq!(
                store.partition_of("pledge"),
                None,
                "{ctx}: placed uncommitted"
            );
        }
        // Restart replay: the torn state (orphan extents or a
        // missing manifest record) truncates away.
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.height(), 3, "{ctx}: reopen lost committed blocks");
        assert_eq!(
            store.partition_of("pledge"),
            None,
            "{ctx}: placed after reopen"
        );
        for h in 3..5 {
            store.append(&expect(h)).unwrap();
        }
        assert_eq!(store.partition_of("pledge"), pledge, "{ctx}");
        assert_chain_is(&store, expect, 5, &ctx);
        drop(store);
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.partition_of("pledge"), pledge, "{ctx}: reopened");
        assert_chain_is(&store, expect, 5, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Segment files under `dir` and its subdirectories.
fn count_segments(dir: &Path) -> usize {
    let mut n = 0;
    for e in std::fs::read_dir(dir).unwrap().flatten() {
        if e.path().is_dir() {
            n += count_segments(&e.path());
        } else if e.file_name().to_string_lossy().starts_with("seg-") {
            n += 1;
        }
    }
    n
}

/// The last segment file under `dir` (the partitions' own directories
/// hold `seg-%05d.dat` files; zero-padding makes the lexical max the
/// physical tail).
fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .map(|e| e.path())
        .collect();
    segs.sort();
    segs.pop().expect("no segment files")
}

/// Seeded negative for write reordering: a manifest record that reached
/// disk *before* its partition data (simulated by truncating a
/// partition or chain segment after a clean shutdown) is torn state —
/// reopen must cut the manifest back to the blocks whose bytes all
/// physically exist, then serve those byte-identically and accept
/// re-appends.
#[test]
fn manifest_ahead_of_partition_data_rolls_back_on_reopen() {
    let tables = spanning_tables();
    let ntx = 6;
    // Every block routes tuples to every chosen table, so tearing the
    // tail of any touched directory damages exactly the last block.
    let mut victims: Vec<PathBuf> = vec![PathBuf::from("chain")];
    for p in partitions_of(&tables) {
        victims.push(PathBuf::from(format!("part-{p}")));
    }
    for (vi, victim) in victims.iter().enumerate() {
        let dir = tmpdir(&format!("reorder-{vi}"));
        {
            let store = BlockStore::open(&dir, cfg()).unwrap();
            for h in 0..4 {
                store.append(&block(h, &tables, ntx)).unwrap();
            }
        }
        let seg = last_segment(&dir.join(victim));
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(
            store.height(),
            3,
            "{}: manifest must roll back past the torn extent",
            victim.display()
        );
        assert_chain_identical(&store, &tables, ntx, 3, &victim.display().to_string());
        store.append(&block(3, &tables, ntx)).unwrap();
        assert_chain_identical(&store, &tables, ntx, 4, &victim.display().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every block-level lookup of a store healed back to `height` blocks
/// of `block(h, ..)` (tids `h * 100 + i`, packaged at `h`) stays below
/// it — with no height bound but the store's own — and still finds the
/// blocks it kept.
fn assert_lookups_stop_at(store: &BlockStore, height: u64, ctx: &str) {
    let all = u64::MAX;
    let last = height - 1;
    assert_eq!(store.block_by_id(last, all), Some(last), "{ctx}");
    assert_eq!(store.block_by_id(height, all), None, "{ctx}");
    assert_eq!(store.block_by_tid(last * 100 + 2, all), Some(last), "{ctx}");
    assert_eq!(store.block_by_tid(height * 100, all), Some(last), "{ctx}");
    assert_eq!(store.block_by_ts(height, all), Some(last), "{ctx}");
    assert_eq!(store.block_by_ts(u64::MAX, all), Some(last), "{ctx}");
    assert_eq!(
        store.blocks_in_window(0, u64::MAX, all),
        Some((0, last)),
        "{ctx}"
    );
    assert_eq!(store.blocks_in_window(height, u64::MAX, all), None, "{ctx}");
}

/// The manifest is the block-level index, so a cut record takes its
/// block out of every lookup: after a manifest-ahead rollback (a torn
/// chain extent) and after a torn manifest record, nothing resolves the
/// cut block — and once it is re-appended, everything does again.
#[test]
fn lookups_never_resolve_a_cut_block() {
    let tables = spanning_tables();
    let ntx = 6;
    for (ci, case) in ["manifest-ahead", "torn-record"].into_iter().enumerate() {
        let dir = tmpdir(&format!("lookups-{ci}"));
        {
            let store = BlockStore::open(&dir, cfg()).unwrap();
            for h in 0..4 {
                store.append(&block(h, &tables, ntx)).unwrap();
            }
            assert_lookups_stop_at(&store, 4, &format!("{case} before the cut"));
        }
        let victim = match case {
            "manifest-ahead" => last_segment(&dir.join("chain")),
            _ => dir.join("blockmanifest.idx"),
        };
        let len = std::fs::metadata(&victim).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.height(), 3, "{case}: block 3 must be cut");
        assert_lookups_stop_at(&store, 3, case);
        store.append(&block(3, &tables, ntx)).unwrap();
        assert_lookups_stop_at(&store, 4, &format!("{case} re-appended"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The last manifest write of a store holding blocks 0..=3, the
/// fourth placing `pledge`: the placement record, then block 3's
/// record, which ends in its tuple table. Fields of the block record
/// are addressed by their offsets within the file.
struct LastRecord {
    /// The whole manifest file.
    full: Vec<u8>,
    /// Where block 3's tuple table (`ntx(4) ‖ ntx × (part(1) ‖ len(4))`)
    /// starts.
    table: usize,
    /// Block 3's partition count field and its listed partitions.
    nparts_at: usize,
    parts: Vec<u8>,
}

impl LastRecord {
    /// Parses the last write, which starts at `start`.
    fn read(dir: &Path, start: usize) -> LastRecord {
        let full = std::fs::read(dir.join("blockmanifest.idx")).unwrap();
        let u32_at = |at: usize| u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
        // Skip the placement record: tag(8) ‖ len(4) ‖ name.
        assert_eq!(full[start..start + 8], u64::MAX.to_le_bytes());
        let rec = start + 12 + u32_at(start + 8);
        let nparts_at = rec + 40;
        let nparts = u16::from_le_bytes([full[nparts_at], full[nparts_at + 1]]) as usize;
        let parts = (0..nparts).map(|k| full[nparts_at + 2 + k * 18]).collect();
        let table = nparts_at + 2 + nparts * 18;
        assert_eq!(full.len(), table + 4 + u32_at(table) * 5);
        LastRecord {
            full,
            table,
            nparts_at,
            parts,
        }
    }

    /// Tuple `i`'s `(part, len)` field offsets.
    fn tuple(&self, i: usize) -> (usize, usize) {
        let at = self.table + 4 + i * 5;
        (at, at + 1)
    }

    fn len_of(&self, bytes: &[u8], i: usize) -> u32 {
        let (_, len) = self.tuple(i);
        u32::from_le_bytes(bytes[len..len + 4].try_into().unwrap())
    }

    /// Two tuples `(i, j)`, `i < j`, in the same partition.
    fn same_partition_pair(&self) -> (usize, usize) {
        let ntx = (self.full.len() - self.table - 4) / 5;
        let part = |i: usize| self.full[self.tuple(i).0];
        (0..ntx)
            .flat_map(|i| (i + 1..ntx).map(move |j| (i, j)))
            .find(|&(i, j)| part(i) == part(j))
            .expect("no partition holds two tuples")
    }
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// A manifest whose last record is cut at any byte — inside the
/// placement record, the block record's fixed fields, its extents or
/// its tuple table — or whose tuple table breaks any replay rule
/// reopens at the previous height: the first three blocks read back
/// byte-identically, `pledge` is unplaced, and re-appending block 3
/// rewrites the manifest the store wrote the first time.
#[test]
fn a_cut_or_corrupt_last_manifest_record_rolls_back_on_reopen() {
    let tables = spanning_tables();
    let mut grown = tables.clone();
    grown.push("pledge");
    let expect = |h: u64| block(h, if h >= 3 { &grown[..] } else { &tables[..] }, 8);
    let dir = tmpdir("lastrecord");
    let start = {
        let store = BlockStore::open(&dir, cfg()).unwrap();
        for h in 0..3 {
            store.append(&expect(h)).unwrap();
        }
        let start = std::fs::metadata(dir.join("blockmanifest.idx"))
            .unwrap()
            .len();
        store.append(&expect(3)).unwrap();
        start as usize
    };
    let last = LastRecord::read(&dir, start);
    let full = &last.full;

    let mut damaged: Vec<(String, Vec<u8>)> = (start..full.len())
        .map(|cut| (format!("cut at byte {cut}"), full[..cut].to_vec()))
        .collect();
    let mut corrupt = |what: &str, edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = full.clone();
        edit(&mut bytes);
        damaged.push((what.to_string(), bytes));
    };
    let unlisted = (0..8u8).find(|p| !last.parts.contains(p)).unwrap();
    corrupt("a tuple in a partition the record does not list", &|b| {
        b[last.tuple(0).0] = unlisted;
    });
    corrupt("a listed partition holding no tuple", &|b| {
        let (from, to) = (full[last.tuple(0).0], full[last.tuple(1).0]);
        assert_ne!(from, to);
        for i in 0..8 {
            if b[last.tuple(i).0] == from {
                b[last.tuple(i).0] = to;
            }
        }
    });
    let (i, j) = last.same_partition_pair();
    corrupt("a zero length, its partition's sum kept", &|b| {
        let sum = last.len_of(full, i) + last.len_of(full, j);
        put_u32(b, last.tuple(i).1, 0);
        put_u32(b, last.tuple(j).1, sum);
    });
    corrupt("lengths that do not sum to the extent", &|b| {
        put_u32(b, last.tuple(0).1, last.len_of(full, 0) + 1);
    });
    corrupt("lengths whose sum overflows to the extent's", &|b| {
        let sum = last.len_of(full, i) + last.len_of(full, j);
        put_u32(b, last.tuple(i).1, u32::MAX);
        put_u32(b, last.tuple(j).1, sum + 1);
    });
    corrupt("partitions but no tuple", &|b| {
        b.truncate(last.table);
        b.extend_from_slice(&0u32.to_le_bytes());
    });
    corrupt("tuples but no partition", &|b| {
        let table = b.split_off(last.table);
        b.truncate(last.nparts_at);
        b.extend_from_slice(&0u16.to_le_bytes());
        b.extend_from_slice(&table);
    });

    for (what, bytes) in damaged {
        std::fs::write(dir.join("blockmanifest.idx"), &bytes).unwrap();
        let store = BlockStore::open(&dir, cfg()).unwrap();
        assert_eq!(store.height(), 3, "{what}: block 3 must be cut");
        assert_eq!(store.partition_of("pledge"), None, "{what}");
        assert_chain_is(&store, expect, 3, &what);
        store.append(&expect(3)).unwrap();
        assert_chain_is(&store, expect, 4, &what);
        drop(store);
        let rewritten = std::fs::read(dir.join("blockmanifest.idx")).unwrap();
        assert!(
            rewritten == *full,
            "{what}: re-append wrote another manifest"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest in an older record format (magic `SEBDBMF1`, no tid/ts
/// keys; `SEBDBMF2`, no placement records, its relations placed by a
/// name hash; `SEBDBMF3`, no tuple table, which per-partition offset
/// files held) is not migrated: `open` refuses it with a typed error
/// naming its magic, never a panic, and leaves the file as it was.
#[test]
fn an_older_manifest_format_fails_open_with_a_typed_error() {
    // One SEBDBMF1 record: bid ‖ chain seg/off/len ‖ nparts.
    let mut mf1 = 0u64.to_le_bytes().to_vec();
    mf1.extend_from_slice(&[0u8; 4 + 8]);
    mf1.extend_from_slice(&100u32.to_le_bytes());
    mf1.extend_from_slice(&0u16.to_le_bytes());
    // One SEBDBMF2 record: bid ‖ first tid ‖ ts ‖ chain seg/off/len ‖
    // nparts.
    let mut mf2 = [0u8; 8 + 8 + 8 + 4 + 8].to_vec();
    mf2.extend_from_slice(&100u32.to_le_bytes());
    mf2.extend_from_slice(&0u16.to_le_bytes());
    // A SEBDBMF3 block record has the SEBDBMF2 layout.
    let mf3 = mf2.clone();
    for (magic, record) in [("SEBDBMF1", mf1), ("SEBDBMF2", mf2), ("SEBDBMF3", mf3)] {
        let dir = tmpdir(magic);
        std::fs::create_dir_all(&dir).unwrap();
        let mut header = magic.as_bytes().to_vec();
        header.extend_from_slice(&8u16.to_le_bytes());
        header.extend_from_slice(&[0u8; 6]);
        let manifest = dir.join("blockmanifest.idx");
        std::fs::write(&manifest, [header, record].concat()).unwrap();
        let before = std::fs::read(&manifest).unwrap();
        match BlockStore::open(&dir, cfg()) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains(magic), "{msg}"),
            Err(e) => panic!("expected a Corrupt error, got {e}"),
            Ok(_) => panic!("an {magic} manifest opened"),
        }
        assert_eq!(std::fs::read(&manifest).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A deterministic multi-block index checkpoint: enough distinct
/// entries that the level-1 body spans several 4 KiB index blocks, so
/// the per-block fault steps actually fire mid-file.
fn index_cp(height: u64, entries: usize) -> IndexCheckpoint {
    IndexCheckpoint {
        family: b"crashtest".to_vec(),
        height,
        meta: vec![0xAB; 16],
        entries: (0..entries)
            .map(|i| {
                (
                    format!("key-{i:08}").into_bytes(),
                    format!("value-{height}-{i:08}-{}", "x".repeat(64)).into_bytes(),
                )
            })
            .collect(),
    }
}

fn assert_checkpoint_serves(store: &BlockStore, height: u64, entries: usize, ctx: &str) {
    let r = store
        .load_index_checkpoint(b"crashtest")
        .unwrap()
        .unwrap_or_else(|| panic!("{ctx}: committed checkpoint vanished"));
    assert_eq!(r.height(), height, "{ctx}: wrong committed height");
    assert_eq!(r.entry_count(), entries as u64, "{ctx}: wrong entry count");
    let probe = format!("key-{:08}", entries / 2).into_bytes();
    let got = r.get(&probe).unwrap().unwrap_or_else(|| {
        panic!("{ctx}: committed checkpoint lost an entry");
    });
    assert_eq!(
        got,
        format!("value-{height}-{:08}-{}", entries / 2, "x".repeat(64)).into_bytes(),
        "{ctx}: committed checkpoint serves wrong bytes"
    );
}

/// The index-checkpoint fault ladder: a crash at *every* checkpoint
/// write boundary — each level-1 index-block write, the fence/footer
/// tail write, and the publishing rename — must leave the previously
/// committed checkpoint intact and serving byte-identical entries, and
/// a reopen must sweep the torn `.tmp` and accept a retried publish.
#[test]
fn crash_at_every_index_checkpoint_boundary_heals_on_reopen() {
    let tables = spanning_tables();
    let ntx = 6;
    let steps = [
        WriteStep::IndexBlockWrite(0),
        WriteStep::IndexBlockWrite(1),
        WriteStep::IndexFenceWrite,
        WriteStep::IndexPublish,
    ];
    for (si, step) in steps.into_iter().enumerate() {
        let dir = tmpdir(&format!("ixcp-{si}"));
        {
            let store = BlockStore::open(&dir, cfg()).unwrap();
            for h in 0..4 {
                store.append(&block(h, &tables, ntx)).unwrap();
            }
            // Commit a first checkpoint, then tear the upgrade to a
            // taller one at this boundary.
            store.write_index_checkpoint(&index_cp(3, 200)).unwrap();
            store.set_write_fault(Some(Box::new(move |s| s == step)));
            let err = store.write_index_checkpoint(&index_cp(4, 260)).unwrap_err();
            assert!(
                err.to_string().contains("injected write fault"),
                "{step:?}: unexpected error {err}"
            );
            store.set_write_fault(None);
            // The torn write never reached the commit point: the
            // previous checkpoint still serves, byte-identically.
            assert_checkpoint_serves(&store, 3, 200, &format!("{step:?} pre-reopen"));
        }
        // Reopen: the `.tmp` orphan sweeps away, the committed file
        // still serves, and a retried publish supersedes it.
        let store = BlockStore::open(&dir, cfg()).unwrap();
        let cp_dir = dir.join(INDEX_CHECKPOINT_DIR);
        let tmps = std::fs::read_dir(&cp_dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmps, 0, "{step:?}: torn .tmp survived the reopen sweep");
        assert_checkpoint_serves(&store, 3, 200, &format!("{step:?} post-reopen"));
        store.write_index_checkpoint(&index_cp(4, 260)).unwrap();
        assert_checkpoint_serves(&store, 4, 260, &format!("{step:?} retried"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The view-registration file goes through the same publisher: a crash
/// before its rename leaves the previous registrations loading, and the
/// reopen sweeps the torn `.tmp`.
#[test]
fn crash_before_the_view_registration_rename_keeps_the_previous_file() {
    let dir = tmpdir("viewreg");
    let tmp = dir.join("viewreg.idx.tmp");
    {
        let store = BlockStore::open(&dir, cfg()).unwrap();
        store.save_view_registrations(b"first").unwrap();
        store.set_write_fault(Some(Box::new(|s| s == WriteStep::ViewRegPublish)));
        let err = store.save_view_registrations(b"second").unwrap_err();
        assert!(err.to_string().contains("injected write fault"), "{err}");
        assert!(tmp.exists(), "the torn body stays behind until reopen");
        assert_eq!(store.load_view_registrations().unwrap().unwrap(), b"first");
    }
    let store = BlockStore::open(&dir, cfg()).unwrap();
    assert!(!tmp.exists(), "torn .tmp survived the reopen sweep");
    assert_eq!(store.load_view_registrations().unwrap().unwrap(), b"first");
    store.save_view_registrations(b"second").unwrap();
    assert_eq!(store.load_view_registrations().unwrap().unwrap(), b"second");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Longest-valid-prefix discipline for checkpoints vs the manifest: a
/// checkpoint committed at height 4 whose chain is later rolled back
/// to height 3 (torn tail extent) is *stale* — the reopen must discard
/// it and report `None`, sending the ledger back to a full replay that
/// reconstructs the same state. Corrupt checkpoint bytes heal the same
/// way.
#[test]
fn stale_or_corrupt_index_checkpoint_is_discarded_on_open() {
    let tables = spanning_tables();
    let ntx = 6;
    // Stale: checkpoint height outruns the rolled-back manifest.
    let dir = tmpdir("ixcp-stale");
    {
        let store = BlockStore::open(&dir, cfg()).unwrap();
        for h in 0..4 {
            store.append(&block(h, &tables, ntx)).unwrap();
        }
        store.write_index_checkpoint(&index_cp(4, 120)).unwrap();
    }
    let seg = last_segment(&dir.join("chain"));
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 1).unwrap();
    drop(f);
    let store = BlockStore::open(&dir, cfg()).unwrap();
    assert_eq!(store.height(), 3, "torn chain tail must roll back");
    assert!(
        store.load_index_checkpoint(b"crashtest").unwrap().is_none(),
        "checkpoint ahead of the manifest must be discarded"
    );
    let cp_file = dir
        .join(INDEX_CHECKPOINT_DIR)
        .join(sebdb_storage::indexseg::checkpoint_file_name(b"crashtest"));
    assert!(!cp_file.exists(), "stale checkpoint file must be deleted");
    // A replacement at the healed height publishes cleanly.
    store.write_index_checkpoint(&index_cp(3, 90)).unwrap();
    assert_checkpoint_serves(&store, 3, 90, "post-rollback republish");
    let _ = std::fs::remove_dir_all(&dir);

    // Corrupt: flipped bytes inside the committed file fail the tail
    // checksum and the file is discarded, not served.
    let dir = tmpdir("ixcp-corrupt");
    let store = BlockStore::open(&dir, cfg()).unwrap();
    for h in 0..3 {
        store.append(&block(h, &tables, ntx)).unwrap();
    }
    store.write_index_checkpoint(&index_cp(3, 120)).unwrap();
    let cp_file = dir
        .join(INDEX_CHECKPOINT_DIR)
        .join(sebdb_storage::indexseg::checkpoint_file_name(b"crashtest"));
    let mut bytes = std::fs::read(&cp_file).unwrap();
    // Flip a footer byte: the open-time validation checksums the
    // fence/meta/footer tail (level-1 bodies carry their own per-block
    // checksums, verified on load), so tail rot must fail the open.
    let victim = bytes.len() - 20;
    bytes[victim] ^= 0xFF;
    std::fs::write(&cp_file, &bytes).unwrap();
    assert!(
        store.load_index_checkpoint(b"crashtest").unwrap().is_none(),
        "corrupt checkpoint must be discarded, not served"
    );
    assert!(!cp_file.exists(), "corrupt checkpoint file must be deleted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `scan_relation_raw` returns every tuple co-located in the table's
/// partition (callers filter by name, as the executor does) — so
/// cross-layout comparisons must apply that filter too. Tuples are
/// grouped by the block they sit in, whatever run read them.
fn rows_digest(rows: &[RawExtent], table: &str) -> BTreeMap<u64, Vec<(u32, Vec<u8>)>> {
    let mut by_block: BTreeMap<u64, Vec<(u32, Vec<u8>)>> = BTreeMap::new();
    for t in rows.iter().flat_map(RawExtent::tuples) {
        if t.project().unwrap().tname.eq_ignore_ascii_case(table) {
            by_block
                .entry(t.bid)
                .or_default()
                .push((t.canon, t.bytes.to_vec()));
        }
    }
    by_block
}

/// The acceptance bound: on a multi-relation chain, a single-relation
/// scan over the partitioned layout reads strictly fewer bytes than
/// (a) the same scan on the unpartitioned layout and (b) a full block
/// scan on the partitioned layout — for every relation in the chain.
#[test]
fn relation_scan_reads_strictly_fewer_bytes_than_unpartitioned() {
    let tables = spanning_tables();
    let ntx = 9;
    let nblocks = 8u64;
    let dir8 = tmpdir("bytes-p8");
    let dir1 = tmpdir("bytes-p1");
    let part = BlockStore::open(&dir8, cfg()).unwrap();
    let flat = BlockStore::open(
        &dir1,
        StoreConfig {
            partitions: 1,
            ..cfg()
        },
    )
    .unwrap();
    assert!(part.partitions() > 1, "default partition count collapsed");
    assert_eq!(flat.partitions(), 1);
    for h in 0..nblocks {
        let b = block(h, &tables, ntx);
        part.append(&b).unwrap();
        flat.append(&b).unwrap();
    }
    let bids: Vec<u64> = (0..nblocks).collect();
    part.stats.reset();
    for &bid in &bids {
        part.read(bid).unwrap();
    }
    let full_bytes = part.stats.bytes_read();
    for table in &tables {
        part.stats.reset();
        let part_rows = part.scan_relation_raw(&bids, table).unwrap();
        let part_bytes = part.stats.bytes_read();
        flat.stats.reset();
        let flat_rows = flat.scan_relation_raw(&bids, table).unwrap();
        let flat_bytes = flat.stats.bytes_read();
        assert_eq!(
            rows_digest(&part_rows, table),
            rows_digest(&flat_rows, table),
            "{table}: partitioned and flat scans disagree"
        );
        assert!(
            part_rows.iter().map(|e| e.tuples().count()).sum::<usize>() > 0,
            "{table}: scan returned no tuples"
        );
        assert!(
            part_bytes < flat_bytes,
            "{table}: partitioned scan read {part_bytes} bytes, unpartitioned {flat_bytes}"
        );
        assert!(
            part_bytes < full_bytes,
            "{table}: relation scan read {part_bytes} bytes, full block scan {full_bytes}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir8);
    let _ = std::fs::remove_dir_all(&dir1);
}

/// The raw relation scan is the decoded one minus the decoding: flat
/// and partitioned, its tuples decode to what filtering whole blocks
/// by route returns, and it charges what a decoded scan would — the
/// partition's tuple bytes, one block read per block asked for.
#[test]
fn raw_relation_scan_is_the_decoded_scan_undecoded() {
    let tables = spanning_tables();
    let nblocks = 20u64; // the flat scans span several 4 KiB segments
    for partitions in [1usize, 8] {
        let store = BlockStore::temporary(StoreConfig {
            partitions,
            ..cfg()
        })
        .unwrap();
        for h in 0..nblocks {
            // Every third block lacks the first relation.
            let present = if h % 3 == 1 {
                &tables[1..]
            } else {
                &tables[..]
            };
            store.append(&block(h, present, 9)).unwrap();
        }
        let bids: Vec<u64> = (0..nblocks).collect();
        for table in &tables {
            let route = store.partition_of(table);
            assert!(route.is_some(), "p{partitions} {table} unplaced");
            let runs = store.relation_runs(&bids, table).len();
            assert!(
                partitions == 8 || runs > 1,
                "p{partitions} {table}: one run"
            );
            store.stats.reset();
            let raw = store.scan_relation_raw(&bids, table).unwrap();
            let raw_charge = (store.stats.snapshot(), store.stats.bytes_read());
            assert_eq!(raw_charge.0, (nblocks, 0, 0));

            let mut tuple_bytes = 0u64;
            let mut by_block: BTreeMap<u64, Vec<(u32, Transaction)>> = BTreeMap::new();
            for t in raw.iter().flat_map(RawExtent::tuples) {
                tuple_bytes += t.bytes.len() as u64;
                let at = by_block.entry(t.bid).or_default();
                at.push((t.canon, t.decode().unwrap()));
            }
            assert!(
                by_block.keys().all(|b| bids.contains(b)),
                "p{partitions} {table}"
            );
            for &bid in &bids {
                let from_raw = by_block.remove(&bid).unwrap_or_default();
                let from_block: Vec<(u32, Transaction)> = store
                    .read(bid)
                    .unwrap()
                    .transactions
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| store.partition_of(&t.tname) == route)
                    .map(|(i, t)| (i as u32, t.clone()))
                    .collect();
                assert_eq!(from_raw, from_block, "p{partitions} {table} block {bid}");
            }
            assert_eq!(raw_charge.1, tuple_bytes, "p{partitions} {table}");
            assert!(tuple_bytes > 0);
        }
    }
}
