//! LRU caches, and the store's cached read front.
//!
//! §IV-A: "Although the storage unit is a block, the cache unit is a
//! transaction type" — and §VII-H compares a *block cache* (recently
//! read blocks) against a *transaction cache* (recently read
//! transactions located via an index). Both are LRU with byte-budget
//! eviction, built on the generic [`Lru`] below. [`CachedStore`] puts
//! the selected one ([`CacheMode`]) in front of a [`BlockStore`]'s
//! block and pointer reads; relation scans read the store directly.

use crate::blockstore::{BlockStore, TxPtr, READAHEAD_BLOCKS};
use crate::segment::{Result, StorageError};
use parking_lot::Mutex;
use sebdb_parallel::Tracked;
use sebdb_types::{Block, BlockId, Transaction, TxId};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Intrusive-list LRU with byte-size accounting.
///
/// Entries live in a slab; the recency list is threaded through
/// `prev`/`next` slab indices so both lookup and eviction are O(1).
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: usize,
    capacity_bytes: usize,
    hits: u64,
    misses: u64,
}

struct Entry<K, V> {
    key: K,
    /// `None` once the slot sits on the free list, so an evicted value
    /// is dropped at eviction rather than when its slot is reused.
    value: Option<V>,
    size: usize,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates an LRU with a byte budget.
    pub fn new(capacity_bytes: usize) -> Self {
        Lru {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity_bytes,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                if idx != self.head {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                self.slab[idx].value.as_ref()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Non-promoting, non-counting peek (for tests/introspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab[idx].value.as_ref())
    }

    /// The cached values, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.map
            .values()
            .filter_map(|&idx| self.slab[idx].value.as_ref())
    }

    /// Inserts `key -> value` accounting `size` bytes, evicting LRU
    /// entries as needed. An entry larger than the whole budget is not
    /// cached at all.
    pub fn put(&mut self, key: K, value: V, size: usize) {
        if size > self.capacity_bytes {
            return;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.bytes = self.bytes - self.slab[idx].size + size;
            self.slab[idx].value = Some(value);
            self.slab[idx].size = size;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
        } else {
            let entry = Entry {
                key: key.clone(),
                value: Some(value),
                size,
                prev: NIL,
                next: NIL,
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i] = entry;
                    i
                }
                None => {
                    self.slab.push(entry);
                    self.slab.len() - 1
                }
            };
            self.map.insert(key, idx);
            self.push_front(idx);
            self.bytes += size;
        }
        while self.bytes > self.capacity_bytes && self.tail != NIL {
            self.remove_at(self.tail);
        }
    }

    /// Drops the entry in slab slot `idx` and frees the slot.
    fn remove_at(&mut self, idx: usize) {
        self.unlink(idx);
        self.bytes -= self.slab[idx].size;
        self.slab[idx].value = None;
        let key = self.slab[idx].key.clone();
        self.map.remove(&key);
        self.free.push(idx);
    }

    /// Drops every entry whose key `keep` rejects; the survivors keep
    /// their recency order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let doomed: Vec<usize> = self
            .map
            .iter()
            .filter(|(key, _)| !keep(key))
            .map(|(_, &idx)| idx)
            .collect();
        for idx in doomed {
            self.remove_at(idx);
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }
}

/// Lock stripes per concurrent cache. Parallel scan workers hit the
/// cache from many threads at once; striping keeps them from
/// serializing on one mutex. The byte budget is split evenly across
/// shards, so total capacity is unchanged (an entry larger than
/// `capacity / SHARDS` is simply not cached, as before an entry larger
/// than the whole budget was not).
const CACHE_SHARDS: usize = 8;

/// Spreads a 64-bit key over shards (Fibonacci hashing; block ids and
/// packed tx pointers are both sequential-ish, which raw modulo would
/// map to one shard per stripe pattern).
fn shard_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % CACHE_SHARDS
}

/// One lock-striped shard: an LRU under a zero-cost [`Tracked`]
/// marker — the model checker's cache suite proves the per-shard lock
/// discipline (DESIGN.md §14).
type Shard<K, V> = Mutex<Tracked<Lru<K, V>>>;

/// Thread-safe byte-budgeted cache, lock-striped across
/// [`CACHE_SHARDS`] independent LRUs.
pub struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
}

impl<K: Copy + Eq + Hash + Into<u64>, V: Clone> ShardedLru<K, V> {
    /// Creates a cache with a byte budget (split across shards).
    pub fn new(capacity_bytes: usize) -> Self {
        let per_shard = (capacity_bytes / CACHE_SHARDS).max(1);
        ShardedLru {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Tracked::new(Lru::new(per_shard))))
                .collect(),
        }
    }

    /// Fetches a cached value.
    pub fn get(&self, key: K) -> Option<V> {
        self.shards[shard_of(key.into())]
            .lock()
            .with_mut(|lru| lru.get(&key).cloned())
    }

    /// Caches a value, charged at its serialized size.
    pub fn put(&self, key: K, value: V, size: usize) {
        self.shards[shard_of(key.into())]
            .lock()
            .with_mut(|lru| lru.put(key, value, size));
    }

    /// (hits, misses), aggregated over shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.lock().with(Lru::stats);
            (h + sh, m + sm)
        })
    }

    /// Drops everything cached.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().with_mut(Lru::clear);
        }
    }
}

/// Block cache: recently read whole blocks.
pub type BlockCache = ShardedLru<BlockId, Arc<Block>>;

/// Transaction cache: recently read individual transactions (keyed by
/// tid), the winning strategy for index-driven queries in Fig. 22.
pub type TxCache = ShardedLru<TxId, Arc<Transaction>>;

/// Which cache fronts the store — the two contenders of Fig. 22.
pub enum CacheMode {
    /// No caching; every read hits the backend.
    None,
    /// Cache recently read whole blocks.
    Block(BlockCache),
    /// Cache recently read individual transactions.
    Tx(TxCache),
}

/// A block store fronted by the selected cache.
pub struct CachedStore {
    /// The raw store.
    pub store: Arc<BlockStore>,
    /// Selected caching strategy.
    pub cache: CacheMode,
}

impl CachedStore {
    /// Wraps `store` with `cache`.
    pub fn new(store: Arc<BlockStore>, cache: CacheMode) -> Self {
        CachedStore { store, cache }
    }

    /// Reads a whole block: a one-block [`Self::read_blocks_span`].
    pub fn read_block(&self, bid: BlockId) -> Result<Arc<Block>> {
        let mut one = self.read_blocks_span(&[bid])?;
        one.pop().ok_or(StorageError::NotFound(bid))
    }

    /// Reads one transaction: [`Self::read_txs_grouped`]'s per-block
    /// read with one member, past the grouping map.
    /// With the transaction cache, a hit avoids touching the block
    /// entirely — the behaviour Fig. 22 measures; the block-cache mode
    /// reads the whole block (that is the strategy being compared).
    pub fn read_tx(&self, ptr: TxPtr) -> Result<Arc<Transaction>> {
        let mut one = self.read_group(ptr.block, &[(0, ptr)])?;
        one.pop()
            .map(|(_, tx)| tx)
            .ok_or(StorageError::NotFound(ptr.block))
    }

    /// Reads many transactions, grouped by containing block, fetching
    /// distinct blocks across workers. Results come back in input
    /// order. Per-pointer read granularity matches [`Self::read_tx`]:
    ///
    /// * block-cache mode reads each distinct block once (instead of
    ///   once per pointer) and extracts every requested tuple from it;
    /// * tx-cache and no-cache modes keep tuple-granular reads per
    ///   pointer, so the cost-model counters ([`IoStats`](crate::IoStats)) are the
    ///   same as issuing the pointers one by one.
    pub fn read_txs_grouped(&self, ptrs: &[TxPtr]) -> Result<Vec<Arc<Transaction>>> {
        // `q4_point` reads 0–1 pointers: past the grouping map.
        if let [ptr] = ptrs {
            return Ok(vec![self.read_tx(*ptr)?]);
        }
        // Group pointers by block in first-seen order, remembering each
        // pointer's position so output order survives the fan-out.
        let mut group_of: std::collections::HashMap<BlockId, usize> =
            std::collections::HashMap::new();
        let mut groups: Vec<(BlockId, Vec<(usize, TxPtr)>)> = Vec::new();
        for (pos, &ptr) in ptrs.iter().enumerate() {
            let gi = *group_of.entry(ptr.block).or_insert_with(|| {
                groups.push((ptr.block, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push((pos, ptr));
        }
        let fetched =
            sebdb_parallel::par_map(&groups, sebdb_parallel::FLOOR_PREAD, |(bid, members)| {
                self.read_group(*bid, members)
            });
        let mut out: Vec<Option<Arc<Transaction>>> = vec![None; ptrs.len()];
        for group in fetched {
            for (pos, tx) in group? {
                out[pos] = Some(tx);
            }
        }
        // invariant: every requested pointer position was grouped above
        // and read_group returns one tuple per member, so every slot is
        // filled once the groups land; an unfilled slot means a grouped
        // read silently dropped a member, which is corruption, not a
        // panic.
        out.into_iter()
            .map(|t| {
                t.ok_or_else(|| {
                    StorageError::Corrupt("grouped read left a pointer unresolved".into())
                })
            })
            .collect()
    }

    /// Fetches one block's worth of grouped pointers. In tx-cache and
    /// no-cache modes the members that miss the cache are coalesced
    /// into span reads ([`BlockStore::read_txs_in_block`]) instead
    /// of issuing a pread per pointer; counters stay equivalent to
    /// pointwise reads (one `txs_read` per member, hits included).
    fn read_group(
        &self,
        bid: BlockId,
        members: &[(usize, TxPtr)],
    ) -> Result<Vec<(usize, Arc<Transaction>)>> {
        if let CacheMode::Block(_) = &self.cache {
            let block = self.read_block(bid)?;
            self.store
                .stats
                .txs_read
                .fetch_add(members.len() as u64, Ordering::Relaxed);
            return members
                .iter()
                .map(|&(pos, ptr)| {
                    let tx = block
                        .transactions
                        .get(ptr.index as usize)
                        .cloned()
                        .ok_or(StorageError::NotFound(ptr.block))?;
                    Ok((pos, Arc::new(tx)))
                })
                .collect();
        }
        let mut out: Vec<(usize, Option<Arc<Transaction>>)> = Vec::with_capacity(members.len());
        let mut misses: Vec<(usize, u32)> = Vec::new();
        for &(pos, ptr) in members {
            let hit = match &self.cache {
                CacheMode::Tx(cache) => cache.get(ptr.as_u64()),
                _ => None,
            };
            if hit.is_some() {
                self.store.stats.txs_read.fetch_add(1, Ordering::Relaxed);
            } else {
                misses.push((out.len(), ptr.index));
            }
            out.push((pos, hit));
        }
        if !misses.is_empty() {
            let indexes: Vec<u32> = misses.iter().map(|&(_, i)| i).collect();
            let fetched = self.store.read_txs_in_block(bid, &indexes)?;
            for (&(slot, index), tx) in misses.iter().zip(fetched) {
                let tx = Arc::new(tx);
                if let CacheMode::Tx(cache) = &self.cache {
                    let ptr = TxPtr { block: bid, index };
                    cache.put(ptr.as_u64(), Arc::clone(&tx), tx.byte_len());
                }
                out[slot].1 = Some(tx);
            }
        }
        out.into_iter()
            .map(|(pos, tx)| {
                let tx = tx.ok_or_else(|| {
                    StorageError::Corrupt(format!("group member unresolved in block {bid}"))
                })?;
                Ok((pos, tx))
            })
            .collect()
    }

    /// Reads a run of consecutive blocks, coalescing physically
    /// contiguous cache misses into span reads of at most
    /// [`READAHEAD_BLOCKS`] blocks each — the sequential-scan readahead
    /// of Figs. 11–12. Results come back in `bids` order.
    pub fn read_blocks_span(&self, bids: &[BlockId]) -> Result<Vec<Arc<Block>>> {
        let mut out: Vec<Option<Arc<Block>>> = vec![None; bids.len()];
        let mut misses: Vec<(usize, BlockId)> = Vec::new();
        for (slot, &bid) in bids.iter().enumerate() {
            if let CacheMode::Block(cache) = &self.cache {
                if let Some(b) = cache.get(bid) {
                    out[slot] = Some(b);
                    continue;
                }
            }
            misses.push((slot, bid));
        }
        let window = READAHEAD_BLOCKS;
        let mut run_start = 0usize;
        while run_start < misses.len() {
            let mut run_end = run_start + 1;
            while run_end < misses.len()
                && run_end - run_start < window
                && misses[run_end].1 == misses[run_end - 1].1 + 1
            {
                run_end += 1;
            }
            let first_bid = misses[run_start].1;
            let blocks = self.store.read_span(first_bid, run_end - run_start)?;
            for (k, b) in blocks.into_iter().enumerate() {
                let (slot, bid) = misses[run_start + k];
                if let CacheMode::Block(cache) = &self.cache {
                    let size = self.store.block_size(bid).unwrap_or(b.byte_len());
                    cache.put(bid, Arc::clone(&b), size);
                }
                out[slot] = Some(b);
            }
            run_start = run_end;
        }
        out.into_iter()
            .zip(bids)
            .map(|(b, &bid)| {
                b.ok_or_else(|| StorageError::Corrupt(format!("span read missed block {bid}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_put() {
        let mut lru: Lru<u32, String> = Lru::new(100);
        lru.put(1, "one".into(), 10);
        lru.put(2, "two".into(), 10);
        assert_eq!(lru.get(&1), Some(&"one".to_string()));
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(30);
        lru.put(1, 1, 10);
        lru.put(2, 2, 10);
        lru.put(3, 3, 10);
        lru.get(&1); // promote 1; now 2 is LRU
        lru.put(4, 4, 10); // evicts 2
        assert!(lru.peek(&2).is_none());
        assert!(lru.peek(&1).is_some());
        assert!(lru.peek(&3).is_some());
        assert!(lru.peek(&4).is_some());
    }

    #[test]
    fn oversized_entry_not_cached() {
        let mut lru: Lru<u32, u32> = Lru::new(10);
        lru.put(1, 1, 11);
        assert!(lru.peek(&1).is_none());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn update_existing_key_adjusts_bytes() {
        let mut lru: Lru<u32, u32> = Lru::new(100);
        lru.put(1, 1, 10);
        lru.put(1, 2, 30);
        assert_eq!(lru.bytes(), 30);
        assert_eq!(lru.peek(&1), Some(&2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_cascade_on_large_insert() {
        let mut lru: Lru<u32, u32> = Lru::new(30);
        lru.put(1, 1, 10);
        lru.put(2, 2, 10);
        lru.put(3, 3, 10);
        lru.put(4, 4, 25); // must evict 1, 2, 3
        assert_eq!(lru.len(), 1);
        assert!(lru.peek(&4).is_some());
        assert_eq!(lru.bytes(), 25);
    }

    #[test]
    fn clear_resets() {
        let mut lru: Lru<u32, u32> = Lru::new(30);
        lru.put(1, 1, 10);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
        lru.put(2, 2, 10);
        assert!(lru.peek(&2).is_some());
    }

    #[test]
    fn retain_drops_rejected_keys_and_keeps_recency() {
        let mut lru: Lru<u32, Arc<u32>> = Lru::new(40);
        let doomed = Arc::new(2);
        lru.put(1, Arc::new(1), 10);
        lru.put(2, Arc::clone(&doomed), 10);
        lru.put(3, Arc::new(3), 10);
        lru.put(4, Arc::new(4), 10);
        lru.retain(|k| k % 2 == 1);
        assert_eq!((lru.len(), lru.bytes()), (2, 20));
        assert!(lru.peek(&2).is_none() && lru.peek(&4).is_none());
        // The value is dropped with its entry, not when the slot is reused.
        assert_eq!(Arc::strong_count(&doomed), 1);
        // 1 is still the least recently used of the survivors.
        lru.put(5, Arc::new(5), 10);
        lru.put(6, Arc::new(6), 10);
        lru.put(7, Arc::new(7), 10);
        assert!(lru.peek(&1).is_none());
        assert!(lru.peek(&3).is_some());
    }

    #[test]
    fn slab_reuse_after_eviction() {
        let mut lru: Lru<u32, u32> = Lru::new(20);
        for i in 0..100 {
            lru.put(i, i, 10);
        }
        // Only two fit at a time; slab should not have grown to 100.
        assert!(lru.len() <= 2);
        assert!(lru.slab.len() <= 3);
    }

    #[test]
    fn sharded_tx_cache_roundtrip_and_stats() {
        let cache = TxCache::new(1 << 20);
        let tx = Arc::new(Transaction::new(
            1,
            sebdb_crypto::sig::KeyId([0; 8]),
            "donate",
            vec![],
        ));
        // Keys landing on different shards all resolve correctly and
        // the aggregated stats see every access.
        for tid in 0..64u64 {
            cache.put(tid, Arc::clone(&tx), 100);
        }
        for tid in 0..64u64 {
            assert!(cache.get(tid).is_some(), "tid={tid}");
        }
        assert!(cache.get(1000).is_none());
        assert_eq!(cache.stats(), (64, 1));
        cache.clear();
        assert!(cache.get(0).is_none());
    }

    #[test]
    fn sharded_cache_capacity_still_bounds_bytes() {
        // 64 entries of 100 bytes vastly exceed a 1000-byte budget;
        // far fewer than 64 survive regardless of sharding.
        let cache = TxCache::new(1000);
        let tx = Arc::new(Transaction::new(
            1,
            sebdb_crypto::sig::KeyId([0; 8]),
            "donate",
            vec![],
        ));
        for tid in 0..64u64 {
            cache.put(tid, Arc::clone(&tx), 100);
        }
        let alive = (0..64u64).filter(|&t| cache.get(t).is_some()).count();
        assert!(
            alive <= 10,
            "budget 1000B holds at most 10 x 100B, saw {alive}"
        );
    }

    #[test]
    fn block_and_tx_caches_are_independent_and_split_the_budget() {
        let blocks = BlockCache::new(8 * 100);
        let txs = TxCache::new(8 * 100);
        let block = Arc::new(Block::seal(
            sebdb_crypto::sha256::Digest::ZERO,
            0,
            0,
            vec![],
            |_| vec![],
        ));
        let tx = Arc::new(Transaction::new(
            1,
            sebdb_crypto::sig::KeyId([0; 8]),
            "donate",
            vec![],
        ));
        // Same key in both: each cache counts only its own traffic.
        blocks.put(7, Arc::clone(&block), 100);
        assert!(blocks.get(7).is_some());
        assert!(txs.get(7).is_none());
        assert_eq!(blocks.stats(), (1, 0));
        assert_eq!(txs.stats(), (0, 1));
        // The budget is split evenly: one shard holds 800 / 8 bytes,
        // so a 101-byte entry is not cached though 800 would hold it.
        txs.put(7, Arc::clone(&tx), 100);
        txs.put(8, Arc::clone(&tx), 101);
        blocks.put(8, block, 101);
        assert!(txs.get(7).is_some());
        assert!(txs.get(8).is_none());
        assert!(blocks.get(8).is_none());
    }

    #[test]
    fn stress_consistency() {
        let mut lru: Lru<u64, u64> = Lru::new(1000);
        for i in 0..10_000u64 {
            lru.put(i % 157, i, (i % 13 + 1) as usize * 10);
            if i % 3 == 0 {
                lru.get(&(i % 101));
            }
            assert!(lru.bytes() <= 1000);
        }
        // Recompute bytes from the map and compare.
        let total: usize = lru.map.values().map(|&idx| lru.slab[idx].size).sum();
        assert_eq!(total, lru.bytes());
    }
}
