//! The byte-budgeted LRU the index-block cache
//! ([`IndexBlockCache`](crate::indexseg::IndexBlockCache)) is built on.
//! The store keeps no block or transaction cache: block and pointer
//! reads go to [`BlockStore`](crate::BlockStore), and the OS page cache
//! holds what they read.

use std::collections::HashMap;
use std::hash::Hash;

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
