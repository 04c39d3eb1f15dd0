//! The chain-order manifest, `blockmanifest.idx`: one record per block,
//! the commit point of its append, replayed at open. A record carries
//! the block's extents and its tuple table (each tuple's partition and
//! length), so open reads no other metadata file. It also carries the
//! block's first tid and timestamp, so the manifest is
//! §IV-B's block-level index: the paper's B⁺-tree keys `(bid, tid, Ts)`
//! because the three ascend together, and over a resident, bid-ordered
//! manifest its lookups are binary searches. A block that carries a
//! relation no earlier block did is preceded by one placement record
//! per such relation, in the same write: the manifest also holds the
//! relation → partition [`Placement`]. Only this module reads or writes
//! the format.

use crate::blockstore::{
    chain_dir, fixed, part_dir, BlockStore, TxLoc, TxLocs, CHAIN_PARTITION, RELATION_PARTITIONS,
};
use crate::segment::{segment_path, Location, Result, StorageError};
use sebdb_types::{Block, BlockId, Timestamp, TxId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The manifest's file name in the store directory.
pub(crate) const BLOCK_MANIFEST: &str = "blockmanifest.idx";
/// Manifest magic, versioned with the record format. `SEBDBMF1`
/// records had no tid/ts keys, `SEBDBMF2` manifests no placement
/// records and `SEBDBMF3` records no tuple table; no code migrates
/// them.
const MANIFEST_MAGIC: &[u8; 8] = b"SEBDBMF4";
/// Manifest header: magic(8) ‖ partitions(2) ‖ reserved(6).
const MANIFEST_HEADER: usize = 16;
/// Fixed prefix of one manifest record: bid(8) ‖ first_tid(8) ‖ ts(8) ‖
/// chain seg(4) off(8) len(4) ‖ nparts(2); followed by
/// nparts × [part(2) seg(4) off(8) len(4)], then the tuple table
/// ntx(4) ‖ ntx × [part(1) len(4)] in canonical tuple order.
const MANIFEST_REC_FIXED: usize = 42;
const MANIFEST_REC_PART: usize = 18;
const MANIFEST_REC_TX: usize = 5;
/// A placement record: `PLACEMENT_TAG(8) ‖ len(4) ‖ name(len)`, the
/// lowercased name of a relation the next block record places. The tag
/// stands where a block record has its bid, and no bid reaches it.
const PLACEMENT_TAG: u64 = u64::MAX;
const PLACEMENT_FIXED: usize = 12;

/// Which partition each relation's tuples go to. Relations take
/// partitions round-robin in order of first appearance on the chain —
/// the `k`-th relation placed goes to partition `k % partitions`, and
/// relations new in one block are placed in canonical tuple order — so
/// the map is a function of the chain alone.
#[derive(Debug)]
pub(crate) struct Placement {
    partitions: usize,
    /// Lowercased relation names, in placement order.
    names: Vec<String>,
    /// Name → position in `names`.
    rank: HashMap<String, usize>,
}

impl Placement {
    /// The placement of `names`, in order, over `partitions` partitions.
    pub(crate) fn new(partitions: usize, names: impl IntoIterator<Item = String>) -> Self {
        let mut placement = Placement {
            partitions,
            names: Vec::new(),
            rank: HashMap::new(),
        };
        for name in names {
            placement.place(name);
        }
        placement
    }

    /// The partition `table` (any case) is placed in, `None` while no
    /// block carries it.
    pub(crate) fn partition_of(&self, table: &str) -> Option<u8> {
        let rank = match table.bytes().any(|b| b.is_ascii_uppercase()) {
            true => self.rank.get(&table.to_ascii_lowercase()),
            false => self.rank.get(table),
        };
        rank.map(|&k| (k % self.partitions) as u8)
    }

    /// The relations placed in partition `part`, in placement order.
    pub(crate) fn relations_in(&self, part: usize) -> Vec<String> {
        self.names
            .iter()
            .skip(part)
            .step_by(self.partitions)
            .cloned()
            .collect()
    }

    /// Every tuple's partition in `block`, and the relations the block
    /// places, in the order they are placed. Places nothing itself:
    /// the append commits them with [`Self::place`].
    pub(crate) fn route(&self, block: &Block) -> (Vec<u8>, Vec<String>) {
        let mut placed: Vec<String> = Vec::new();
        let routes = block
            .transactions
            .iter()
            .map(|tx| {
                self.partition_of(&tx.tname).unwrap_or_else(|| {
                    let name = tx.tname.to_ascii_lowercase();
                    let k = placed.iter().position(|n| *n == name).unwrap_or_else(|| {
                        placed.push(name);
                        placed.len() - 1
                    });
                    ((self.names.len() + k) % self.partitions) as u8
                })
            })
            .collect();
        (routes, placed)
    }

    /// Places `name` (lowercased) in the next partition in turn.
    pub(crate) fn place(&mut self, name: String) {
        self.rank.insert(name.clone(), self.names.len());
        self.names.push(name);
    }
}

/// One block's extents and tuple locations as the manifest records
/// them.
#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    /// The chain record (the block header) in the chain partition.
    pub(crate) chain: Location,
    /// `(partition, extent)` for every partition the block touches,
    /// ascending by partition id.
    pub(crate) parts: Vec<(u8, Location)>,
    /// Every tuple's place in its partition's extent, in canonical
    /// order. The record stores each tuple's partition and length; the
    /// offset is the running sum of the partition's lengths before it.
    pub(crate) txs: TxLocs,
}

impl BlockEntry {
    /// The block's extent in partition `part`, if it touches it.
    pub(crate) fn extent(&self, part: u8) -> Option<Location> {
        self.parts.iter().find(|(q, _)| *q == part).map(|&(_, l)| l)
    }
}

/// A block's place on the tid and time axes, as its manifest record
/// carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainKey {
    /// The block's first tid. An empty block carries its predecessor's
    /// (0 at genesis), so the column ascends with the bid.
    first_tid: TxId,
    /// Packaging timestamp.
    ts: Timestamp,
    /// No transaction (the record names no partition extent).
    empty: bool,
}

impl ChainKey {
    /// The key `block` is appended under after `prev`. A block packaged
    /// before its predecessor is refused: the time lookups rest on
    /// timestamps ascending with the bid.
    pub(crate) fn of(block: &Block, prev: Option<&ChainKey>) -> Result<ChainKey> {
        let ts = block.header.timestamp;
        if let Some(p) = prev.filter(|p| p.ts > ts) {
            return Err(StorageError::Corrupt(format!(
                "block {} packaged at {ts}, before its predecessor's {}",
                block.header.height, p.ts
            )));
        }
        Ok(ChainKey {
            first_tid: block.first_tid().unwrap_or(prev.map_or(0, |p| p.first_tid)),
            ts,
            empty: block.transactions.is_empty(),
        })
    }
}

/// The block-level lookups. Each takes the caller's `height` bound and
/// never resolves a block at or above it: the ledger passes its applied
/// height, so a block persisted but not yet indexed stays invisible, as
/// it is to every other reader.
impl BlockStore {
    /// Runs `f` over the keys of the blocks below `height`.
    fn keys_below<R>(&self, height: BlockId, f: impl FnOnce(&[ChainKey]) -> R) -> R {
        let keys = self.keys.read();
        f(&keys[..keys.len().min(height as usize)])
    }

    /// `bid`, if that block is stored below `height`.
    pub fn block_by_id(&self, bid: BlockId, height: BlockId) -> Option<BlockId> {
        self.keys_below(height, |keys| (bid < keys.len() as BlockId).then_some(bid))
    }

    /// Block `bid`'s first tid, `None` for an empty block and for one
    /// not stored.
    pub fn first_tid(&self, bid: BlockId) -> Option<TxId> {
        let keys = self.keys.read();
        let key = keys.get(bid as usize).filter(|k| !k.empty)?;
        Some(key.first_tid)
    }

    /// The only block below `height` that can hold transaction `tid`:
    /// the last non-empty block whose first tid is ≤ `tid`. Whether it
    /// does is the block's to say (a tid past the chain's last
    /// transaction lands on the last non-empty block).
    pub fn block_by_tid(&self, tid: TxId, height: BlockId) -> Option<BlockId> {
        self.keys_below(height, |keys| {
            let end = keys.partition_point(|k| k.first_tid <= tid);
            let key = keys[..end].last()?.first_tid;
            // The blocks sharing `key`: the one that set it, the empty
            // blocks carrying it after it and — for 0 — before it.
            let start = keys[..end].partition_point(|k| k.first_tid < key);
            (start..end).find(|&b| !keys[b].empty).map(|b| b as BlockId)
        })
    }

    /// The last block below `height` packaged at or before `ts`.
    pub fn block_by_ts(&self, ts: Timestamp, height: BlockId) -> Option<BlockId> {
        self.keys_below(height, |keys| {
            let n = keys.partition_point(|k| k.ts <= ts);
            n.checked_sub(1).map(|b| b as BlockId)
        })
    }

    /// Conservative inclusive block range below `height` for a time
    /// window `[start, end]`, `None` when it is empty: a block packaged
    /// before `start` holds only earlier transactions, and one sent by
    /// `end` may be packaged in the first block after it (executors
    /// re-filter per transaction, so an upper bound is all correctness
    /// needs; when `end` precedes every block, only block 0 qualifies).
    pub fn blocks_in_window(
        &self,
        start: Timestamp,
        end: Timestamp,
        height: BlockId,
    ) -> Option<(BlockId, BlockId)> {
        self.keys_below(height, |keys| {
            let lo = keys.partition_point(|k| k.ts < start);
            let hi = keys
                .partition_point(|k| k.ts <= end)
                .min(keys.len().checked_sub(1)?);
            (start <= end && lo <= hi).then_some((lo as BlockId, hi as BlockId))
        })
    }
}

/// The partition count a complete manifest header pins, or `None` when
/// the header is torn or missing: no block ever committed, so the store
/// starts fresh. Any other magic — an older record format's included —
/// fails the open.
pub(crate) fn read_header(buf: &[u8]) -> Result<Option<usize>> {
    if buf.len() < MANIFEST_HEADER {
        return Ok(None);
    }
    if &buf[0..8] != MANIFEST_MAGIC {
        let magic = String::from_utf8_lossy(&buf[0..8]);
        let msg = format!("block manifest has magic {magic:?}, not SEBDBMF4");
        return Err(StorageError::Corrupt(msg));
    }
    let p = u16::from_le_bytes(fixed::<2>(&buf[8..10])) as usize;
    if !(1..=RELATION_PARTITIONS).contains(&p) {
        return Err(StorageError::Corrupt(format!(
            "block manifest names {p} partitions"
        )));
    }
    Ok(Some(p))
}

/// A fresh manifest's header.
pub(crate) fn header(partitions: usize) -> [u8; MANIFEST_HEADER] {
    let mut header = [0u8; MANIFEST_HEADER];
    header[0..8].copy_from_slice(MANIFEST_MAGIC);
    header[8..10].copy_from_slice(&(partitions as u16).to_le_bytes());
    header
}

/// Serializes `entry` as one chain-order manifest record, preceded by a
/// placement record for each relation in `placed`.
pub(crate) fn manifest_record(
    bid: u64,
    key: &ChainKey,
    entry: &BlockEntry,
    placed: &[String],
) -> Vec<u8> {
    let BlockEntry { chain, parts, txs } = entry;
    let mut rec = Vec::with_capacity(
        MANIFEST_REC_FIXED + parts.len() * MANIFEST_REC_PART + 4 + txs.len() * MANIFEST_REC_TX,
    );
    for name in placed {
        rec.extend_from_slice(&PLACEMENT_TAG.to_le_bytes());
        rec.extend_from_slice(&(name.len() as u32).to_le_bytes());
        rec.extend_from_slice(name.as_bytes());
    }
    rec.extend_from_slice(&bid.to_le_bytes());
    rec.extend_from_slice(&key.first_tid.to_le_bytes());
    rec.extend_from_slice(&key.ts.to_le_bytes());
    rec.extend_from_slice(&chain.segment.to_le_bytes());
    rec.extend_from_slice(&chain.offset.to_le_bytes());
    rec.extend_from_slice(&chain.len.to_le_bytes());
    rec.extend_from_slice(&(parts.len() as u16).to_le_bytes());
    for (p, loc) in parts {
        rec.extend_from_slice(&(*p as u16).to_le_bytes());
        rec.extend_from_slice(&loc.segment.to_le_bytes());
        rec.extend_from_slice(&loc.offset.to_le_bytes());
        rec.extend_from_slice(&loc.len.to_le_bytes());
    }
    rec.extend_from_slice(&(txs.len() as u32).to_le_bytes());
    for tx in txs.iter() {
        rec.push(tx.part);
        rec.extend_from_slice(&tx.len.to_le_bytes());
    }
    rec
}

/// A manifest body as replayed: the longest valid prefix of records.
pub(crate) struct Replay {
    pub(crate) entries: Vec<BlockEntry>,
    pub(crate) keys: Vec<ChainKey>,
    /// For every `k`, the file length that holds the first `k` blocks'
    /// records (for truncation after a later validation cut).
    pub(crate) ends: Vec<u64>,
    /// `(bid, relation)` for every placement, in placement order.
    pub(crate) placed: Vec<(BlockId, String)>,
}

impl Replay {
    /// No records: a manifest with no complete header.
    pub(crate) fn empty() -> Self {
        Replay {
            entries: Vec::new(),
            keys: Vec::new(),
            ends: vec![0],
            placed: Vec::new(),
        }
    }
}

/// Parses the manifest body, keeping the longest valid prefix of
/// records. A placement record counts only with the valid block record
/// after it, and only if its relation is new and its partition is one
/// that block writes. A block record's tuple table is valid when every
/// tuple lies in a partition the record lists, no length is 0 and each
/// partition's lengths sum to its extent's length; since no extent is
/// empty, every listed partition then holds a tuple, and a record lists
/// no partition exactly when it has no tuple.
pub(crate) fn replay_manifest(buf: &[u8], partitions: usize) -> Replay {
    let mut entries: Vec<BlockEntry> = Vec::new();
    let mut keys: Vec<ChainKey> = Vec::new();
    let mut ends = vec![MANIFEST_HEADER as u64];
    let mut placed: Vec<(BlockId, String)> = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut at = MANIFEST_HEADER;
    'records: while buf.len() >= at + 8 {
        let bid = u64::from_le_bytes(fixed::<8>(&buf[at..at + 8]));
        if bid == PLACEMENT_TAG {
            let Some(len) = buf.get(at + 8..at + PLACEMENT_FIXED) else {
                break;
            };
            let start = at + PLACEMENT_FIXED;
            let len = u32::from_le_bytes(fixed::<4>(len)) as usize;
            let Some(Ok(name)) = buf.get(start..start + len).map(std::str::from_utf8) else {
                break;
            };
            let placed_before = placed
                .iter()
                .map(|(_, p)| p)
                .chain(&pending)
                .any(|p| p == name);
            if name != name.to_ascii_lowercase() || placed_before {
                break;
            }
            pending.push(name.to_string());
            at = start + len;
            continue;
        }
        if bid != entries.len() as u64 || buf.len() < at + MANIFEST_REC_FIXED {
            break;
        }
        let chain = Location {
            segment: u32::from_le_bytes(fixed::<4>(&buf[at + 24..at + 28])),
            offset: u64::from_le_bytes(fixed::<8>(&buf[at + 28..at + 36])),
            len: u32::from_le_bytes(fixed::<4>(&buf[at + 36..at + 40])),
        };
        let nparts = u16::from_le_bytes(fixed::<2>(&buf[at + 40..at + 42])) as usize;
        let key = ChainKey {
            first_tid: u64::from_le_bytes(fixed::<8>(&buf[at + 8..at + 16])),
            ts: u64::from_le_bytes(fixed::<8>(&buf[at + 16..at + 24])),
            empty: nparts == 0,
        };
        let table = at + MANIFEST_REC_FIXED + nparts * MANIFEST_REC_PART;
        let Some(ntx) = buf.get(table..table + 4) else {
            break;
        };
        let ntx = u32::from_le_bytes(fixed::<4>(ntx)) as usize;
        let end = table + 4 + ntx * MANIFEST_REC_TX;
        // A key `ChainKey::of` would not have made is no record
        // `append` wrote.
        let last = keys.last();
        let carried = last.map_or(0, |p| p.first_tid);
        if chain.len == 0
            || nparts > partitions
            || buf.len() < end
            || last.is_some_and(|p| p.ts > key.ts)
            || (key.empty && key.first_tid != carried)
        {
            break;
        }
        let mut parts = Vec::with_capacity(nparts);
        let mut prev: i32 = -1;
        for k in 0..nparts {
            let q = at + MANIFEST_REC_FIXED + k * MANIFEST_REC_PART;
            let part = u16::from_le_bytes(fixed::<2>(&buf[q..q + 2]));
            let loc = Location {
                segment: u32::from_le_bytes(fixed::<4>(&buf[q + 2..q + 6])),
                offset: u64::from_le_bytes(fixed::<8>(&buf[q + 6..q + 14])),
                len: u32::from_le_bytes(fixed::<4>(&buf[q + 14..q + 18])),
            };
            if part as usize >= partitions || (part as i32) <= prev || loc.len == 0 {
                break 'records;
            }
            prev = part as i32;
            parts.push((part as u8, loc));
        }
        let first = placed.len();
        let lands = |i: usize| {
            parts
                .iter()
                .any(|(q, _)| *q as usize == (first + i) % partitions)
        };
        if !(0..pending.len()).all(lands) {
            break;
        }
        // Each listed partition's running extent offset.
        let mut filled = vec![0u32; nparts];
        let mut txs = Vec::with_capacity(ntx);
        for q in (table + 4..end).step_by(MANIFEST_REC_TX) {
            let part = buf[q];
            let len = u32::from_le_bytes(fixed::<4>(&buf[q + 1..q + 5]));
            let Some(k) = parts.iter().position(|(p, _)| *p == part) else {
                break 'records;
            };
            let Some(next) = filled[k].checked_add(len).filter(|_| len != 0) else {
                break 'records;
            };
            txs.push(TxLoc {
                part,
                off: filled[k],
                len,
            });
            filled[k] = next;
        }
        if parts.iter().zip(&filled).any(|((_, loc), &n)| n != loc.len) {
            break;
        }
        placed.extend(pending.drain(..).map(|name| (bid, name)));
        at = end;
        entries.push(BlockEntry {
            chain,
            parts,
            txs: Arc::new(txs),
        });
        keys.push(key);
        ends.push(at as u64);
    }
    Replay {
        entries,
        keys,
        ends,
        placed,
    }
}

/// Checks each manifest entry's extents against the physical segment
/// file lengths, returning the length of the prefix whose data actually
/// reached disk (a manifest record racing ahead of its partition writes
/// is cut here).
pub(crate) fn validate_extents(dir: &Path, entries: &[BlockEntry]) -> usize {
    let mut lens: HashMap<(usize, u32), u64> = HashMap::new();
    let mut reached = |part: usize, loc: &Location| {
        let len = *lens.entry((part, loc.segment)).or_insert_with(|| {
            let d = match part {
                CHAIN_PARTITION => chain_dir(dir),
                p => part_dir(dir, p),
            };
            std::fs::metadata(segment_path(&d, loc.segment)).map_or(0, |m| m.len())
        });
        loc.offset + loc.len as u64 <= len
    };
    let torn = entries.iter().position(|e| {
        !reached(CHAIN_PARTITION, &e.chain) || e.parts.iter().any(|(p, l)| !reached(*p as usize, l))
    });
    torn.unwrap_or(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::{StoreConfig, TempDir, TEMP_DIRS};
    use sebdb_crypto::sha256::Digest;
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::{Transaction, Value};
    use std::ops::Range;

    /// No bound beyond the store's own height.
    const ALL: BlockId = BlockId::MAX;

    /// A chain with block `h` holding `tids[h]` (empty range = empty
    /// block), transaction `i` sent at `h * 100 + i * 5`, the block
    /// packaged at `(h + 1) * 100`.
    fn chain_of(tids: &[Range<u64>]) -> Vec<Block> {
        let mut prev = Digest::ZERO;
        (0..tids.len() as u64)
            .map(|h| {
                let txs: Vec<Transaction> = tids[h as usize]
                    .clone()
                    .enumerate()
                    .map(|(i, tid)| {
                        let i = i as u64;
                        let mut t = Transaction::new(
                            h * 100 + i * 5,
                            KeyId([0; 8]),
                            "donate",
                            vec![Value::Int(i as i64)],
                        );
                        t.tid = tid;
                        t
                    })
                    .collect();
                let b = Block::seal(prev, h, (h + 1) * 100, txs, |_| vec![]);
                prev = b.header.block_hash;
                b
            })
            .collect()
    }

    /// `n` blocks, block `h` holding tids `[h*10, h*10+9]`.
    fn chain(n: u64) -> Vec<Block> {
        let tids: Vec<Range<u64>> = (0..n).map(|h| h * 10..h * 10 + 10).collect();
        chain_of(&tids)
    }

    /// The same chain in a store that appended it and in a store
    /// reopened after the appends (its keys replayed from the
    /// manifest). The reopened store's directory goes when this drops,
    /// after the store.
    struct Stores {
        list: Vec<(&'static str, BlockStore)>,
        _dir: TempDir,
    }

    fn stores(blocks: &[Block]) -> Stores {
        let fill = |s: BlockStore| {
            for b in blocks {
                s.append(b).unwrap();
            }
            s
        };
        let appended = fill(BlockStore::temporary(StoreConfig::default()).unwrap());
        let dir = TempDir::claim(&TEMP_DIRS).unwrap();
        drop(fill(
            BlockStore::open(dir.path(), StoreConfig::default()).unwrap(),
        ));
        let reopened = BlockStore::open(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(reopened.height(), blocks.len() as u64);
        Stores {
            list: vec![("appended", appended), ("reopened", reopened)],
            _dir: dir,
        }
    }

    #[test]
    fn lookup_by_bid() {
        for (name, s) in &stores(&chain(10)).list {
            assert_eq!(s.block_by_id(0, ALL), Some(0), "{name}");
            assert_eq!(s.block_by_id(7, ALL), Some(7), "{name}");
            assert_eq!(s.block_by_id(10, ALL), None, "{name}");
        }
    }

    #[test]
    fn lookup_by_tid() {
        for (name, s) in &stores(&chain(10)).list {
            // tid 34 lives in block 3 (tids 30..39).
            assert_eq!(s.block_by_tid(34, ALL), Some(3), "{name}");
            assert_eq!(s.block_by_tid(0, ALL), Some(0), "{name}");
            assert_eq!(s.block_by_tid(99, ALL), Some(9), "{name}");
            // Past the end: the last block is the only one that could
            // hold it (`GET BLOCK` reads it and answers no row).
            assert_eq!(s.block_by_tid(1000, ALL), Some(9), "{name}");
        }
    }

    #[test]
    fn lookup_by_ts() {
        for (name, s) in &stores(&chain(10)).list {
            // Block h has ts (h+1)*100.
            assert_eq!(s.block_by_ts(100, ALL), Some(0), "{name}");
            assert_eq!(s.block_by_ts(150, ALL), Some(0), "{name}");
            assert_eq!(s.block_by_ts(1000, ALL), Some(9), "{name}");
            assert_eq!(s.block_by_ts(99, ALL), None, "{name}");
        }
    }

    #[test]
    fn window_mapping_is_conservative() {
        for (name, s) in &stores(&chain(10)).list {
            // Window covering everything.
            assert_eq!(s.blocks_in_window(0, u64::MAX, ALL), Some((0, 9)), "{name}");
            // Window [250, 450]: tx timestamps in block h span
            // [h*100, h*100+45]; candidates must include blocks 2,3,4.
            let (lo, hi) = s.blocks_in_window(250, 450, ALL).unwrap();
            assert!(lo <= 2 && hi >= 4, "{name}: got ({lo},{hi})");
            // Empty window.
            assert_eq!(s.blocks_in_window(10, 5, ALL), None, "{name}");
        }
    }

    #[test]
    fn empty_store() {
        for (name, s) in &stores(&[]).list {
            assert_eq!(s.block_by_id(0, ALL), None, "{name}");
            assert_eq!(s.block_by_tid(0, ALL), None, "{name}");
            assert_eq!(s.block_by_ts(u64::MAX, ALL), None, "{name}");
            assert_eq!(s.blocks_in_window(0, 100, ALL), None, "{name}");
        }
    }

    #[test]
    fn monotone_composite_key() {
        // The paper's invariant: bid < bid' implies tid < tid' and ts <= ts'.
        let blocks = chain(20);
        for w in blocks.windows(2) {
            assert!(w[0].header.height < w[1].header.height);
            assert!(w[0].first_tid().unwrap() < w[1].first_tid().unwrap());
            assert!(w[0].header.timestamp <= w[1].header.timestamp);
        }
    }

    #[test]
    fn rejects_out_of_order() {
        let blocks = chain(3);
        // A block ahead of the store's height is refused.
        for (name, s) in &stores(&[]).list {
            assert!(s.append(&blocks[1]).is_err(), "{name}");
            assert_eq!(s.height(), 0, "{name}");
            s.append(&blocks[0]).unwrap();
            assert_eq!(s.block_by_id(0, ALL), Some(0), "{name}");
        }
        // So is a block packaged before its predecessor, before
        // anything is written.
        let early = Block::seal(Digest::ZERO, 2, 150, vec![], |_| vec![]);
        for (name, s) in &stores(&blocks[..2]).list {
            assert!(s.append(&early).is_err(), "{name}");
            assert_eq!(s.height(), 2, "{name}");
            s.append(&blocks[2]).unwrap();
            assert_eq!(s.block_by_ts(300, ALL), Some(2), "{name}");
        }
    }

    #[test]
    fn empty_blocks_keep_the_tid_column_sorted() {
        // First tids [1, —, 11]: the empty block keeps the column
        // sorted, so 11, 12 and 15 find block 2.
        let blocks = chain_of(&[1..11, 0..0, 11..21]);
        for (name, s) in &stores(&blocks).list {
            for tid in [11, 12, 15, 20] {
                assert_eq!(s.block_by_tid(tid, ALL), Some(2), "{name}: tid {tid}");
            }
            for tid in [1, 10] {
                assert_eq!(s.block_by_tid(tid, ALL), Some(0), "{name}: tid {tid}");
            }
            assert_eq!(s.block_by_tid(0, ALL), None, "{name}");
        }
        // Empty blocks at genesis carry tid 0, which the first real
        // block's first tid may equal; they hold nothing.
        let blocks = chain_of(&[0..0, 0..0, 0..5, 0..0]);
        for (name, s) in &stores(&blocks).list {
            for tid in [0, 4, 100] {
                assert_eq!(s.block_by_tid(tid, ALL), Some(2), "{name}: tid {tid}");
            }
        }
        let blocks = chain_of(&[0..0, 3..5]);
        for (name, s) in &stores(&blocks).list {
            assert_eq!(s.block_by_tid(2, ALL), None, "{name}");
            assert_eq!(s.block_by_tid(3, ALL), Some(1), "{name}");
        }
    }

    #[test]
    fn lookups_stop_at_the_height_bound() {
        for (name, s) in &stores(&chain(10)).list {
            assert_eq!(s.block_by_id(3, 4), Some(3), "{name}");
            assert_eq!(s.block_by_id(4, 4), None, "{name}");
            assert_eq!(s.block_by_tid(95, 4), Some(3), "{name}");
            assert_eq!(s.block_by_ts(1000, 4), Some(3), "{name}");
            assert_eq!(s.blocks_in_window(0, u64::MAX, 4), Some((0, 3)), "{name}");
            assert_eq!(s.block_by_ts(1000, 0), None, "{name}");
            assert_eq!(s.blocks_in_window(0, u64::MAX, 0), None, "{name}");
        }
    }
}
