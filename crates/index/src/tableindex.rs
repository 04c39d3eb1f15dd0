//! The table-level bitmap index (§IV-B).
//!
//! One bitmap per table: bit *i* is set iff block *i* contains at least
//! one transaction of that table. "When a new table is generated, a new
//! bitmap is added. When a new block arrives, the bitmap index is
//! updated by setting corresponding bitmaps." The paper also notes the
//! same structure "can be created on SenID for tracking query", so we
//! maintain sender bitmaps alongside.
//!
//! Paged backend (DESIGN §13): the resident maps hold base-relative
//! bitmaps for the tail `[base, covered)` only; the frozen prefix keeps
//! absolute bitmaps in an on-disk checkpoint, merged on query.

use crate::bitmap::Bitmap;
use crate::paged::{family_table, frozen_bitmap, read_fail, CheckpointBuilder};
use sebdb_crypto::sig::KeyId;
use sebdb_storage::{IndexCheckpoint, PagedIndexReader};
use sebdb_types::Block;
use std::collections::HashMap;

/// Key tag: `0x00 ‖ lowercased table name` → absolute block bitmap.
const TAG_TABLE: u8 = 0x00;
/// Key tag: `0x01 ‖ sender KeyId` → absolute block bitmap.
const TAG_SENDER: u8 = 0x01;

fn table_key(table_lower: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + table_lower.len());
    k.push(TAG_TABLE);
    k.extend_from_slice(table_lower.as_bytes());
    k
}

fn sender_key(sender: &KeyId) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(TAG_SENDER);
    k.extend_from_slice(&sender.0);
    k
}

/// Table- and sender-level block bitmaps.
#[derive(Debug, Default)]
pub struct TableBitmapIndex {
    /// Tail bitmaps, bit `i` = block `base + i` (lowercased names).
    per_table: HashMap<String, Bitmap>,
    per_sender: HashMap<KeyId, Bitmap>,
    blocks_seen: u64,
    frozen: Option<PagedIndexReader>,
}

impl TableBitmapIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an index from a frozen checkpoint; the tail starts
    /// empty at the checkpoint height.
    pub fn from_frozen(reader: PagedIndexReader) -> Self {
        TableBitmapIndex {
            per_table: HashMap::new(),
            per_sender: HashMap::new(),
            blocks_seen: reader.height(),
            frozen: Some(reader),
        }
    }

    /// Freezes the state covered so far behind a newly written
    /// checkpoint; the reader must cover exactly [`Self::blocks_seen`].
    pub fn adopt_frozen(&mut self, reader: PagedIndexReader) {
        assert_eq!(
            reader.height(),
            self.blocks_seen,
            "adopting a checkpoint that does not match the indexed height"
        );
        self.per_table.clear();
        self.per_sender.clear();
        if let Some(old) = &self.frozen {
            read_fail("table bitmap warm-up", reader.warm_from(old));
        }
        self.frozen = Some(reader);
    }

    /// First tail block: blocks below this are frozen.
    fn base(&self) -> u64 {
        self.frozen.as_ref().map(|f| f.height()).unwrap_or(0)
    }

    /// Registers a table so its bitmap exists even before any data
    /// arrives ("when a new table is generated, a new bitmap is added").
    pub fn register_table(&mut self, table: &str) {
        self.per_table
            .entry(table.to_ascii_lowercase())
            .or_default();
    }

    /// Indexes a newly chained block.
    pub fn update(&mut self, block: &Block) {
        let bid = block.header.height;
        let base = self.base();
        if bid >= base {
            let slot = (bid - base) as usize;
            for tx in &block.transactions {
                self.per_table
                    .entry(tx.tname.to_ascii_lowercase())
                    .or_default()
                    .set(slot);
                self.per_sender.entry(tx.sender).or_default().set(slot);
            }
        }
        self.blocks_seen = self.blocks_seen.max(bid + 1);
    }

    /// Merges a frozen absolute bitmap with a relative tail bitmap.
    fn merged(&self, key: &[u8], tail: Option<&Bitmap>) -> Bitmap {
        let mut out = match &self.frozen {
            Some(f) => frozen_bitmap(f, "table bitmap", key),
            None => Bitmap::new(),
        };
        if let Some(tail) = tail {
            out.or_assign_shifted(tail, self.base() as usize);
        }
        out
    }

    /// Bitmap of blocks containing tuples of `table` (empty bitmap for
    /// unknown tables).
    pub fn blocks_for_table(&self, table: &str) -> Bitmap {
        let lower = table.to_ascii_lowercase();
        self.merged(&table_key(&lower), self.per_table.get(&lower))
    }

    /// Bitmap of blocks containing transactions sent by `sender`.
    pub fn blocks_for_sender(&self, sender: &KeyId) -> Bitmap {
        self.merged(&sender_key(sender), self.per_sender.get(sender))
    }

    /// Number of blocks observed (for scan fallbacks).
    pub fn blocks_seen(&self) -> u64 {
        self.blocks_seen
    }

    /// Names of tables with at least one bitmap (lowercased, sorted,
    /// deduplicated across the frozen checkpoint and the tail).
    pub fn tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.per_table.keys().cloned().collect();
        if let Some(f) = &self.frozen {
            read_fail(
                "table bitmap name sweep",
                f.scan_prefix(&[TAG_TABLE], &mut |k, _| {
                    names.push(String::from_utf8_lossy(&k[1..]).into_owned());
                    std::ops::ControlFlow::Continue(())
                }),
            );
        }
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Resident bytes (tail bitmaps + frozen fence/meta top level).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        for (name, bits) in &self.per_table {
            bytes += name.len() + bits.byte_len();
        }
        for bits in self.per_sender.values() {
            bytes += std::mem::size_of::<KeyId>() + bits.byte_len();
        }
        bytes + self.frozen.as_ref().map(|f| f.memory_bytes()).unwrap_or(0)
    }

    /// Freezes the complete state (frozen ∪ tail) into one checkpoint
    /// covering `[0, blocks_seen)`.
    pub fn checkpoint(&self) -> IndexCheckpoint {
        let mut cp = CheckpointBuilder::sweep("table bitmap", self.frozen.as_ref());
        for (name, bits) in &self.per_table {
            cp.or_tail(table_key(name), bits);
        }
        for (sender, bits) in &self.per_sender {
            cp.or_tail(sender_key(sender), bits);
        }
        cp.finish(family_table(), self.blocks_seen, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sha256::Digest;
    use sebdb_types::{Transaction, Value};

    fn block(height: u64, txs: Vec<(&str, KeyId)>) -> Block {
        let txs = txs
            .into_iter()
            .enumerate()
            .map(|(i, (tname, sender))| {
                let mut t = Transaction::new(height, sender, tname, vec![Value::Int(i as i64)]);
                t.tid = height * 100 + i as u64;
                t
            })
            .collect();
        Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
    }

    const ORG1: KeyId = KeyId([1; 8]);
    const ORG2: KeyId = KeyId([2; 8]);

    #[test]
    fn tracks_table_distribution() {
        let mut idx = TableBitmapIndex::new();
        idx.update(&block(0, vec![("donate", ORG1), ("transfer", ORG2)]));
        idx.update(&block(1, vec![("donate", ORG1)]));
        idx.update(&block(2, vec![("distribute", ORG2)]));

        assert_eq!(
            idx.blocks_for_table("donate")
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            idx.blocks_for_table("TRANSFER")
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0]
        );
        assert!(idx.blocks_for_table("unknown").is_empty());
        assert_eq!(idx.blocks_seen(), 3);
    }

    #[test]
    fn tracks_sender_distribution() {
        let mut idx = TableBitmapIndex::new();
        idx.update(&block(0, vec![("donate", ORG1)]));
        idx.update(&block(1, vec![("transfer", ORG2)]));
        idx.update(&block(2, vec![("donate", ORG1), ("transfer", ORG1)]));

        assert_eq!(
            idx.blocks_for_sender(&ORG1).iter_ones().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            idx.blocks_for_sender(&ORG2).iter_ones().collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn registered_empty_table_has_empty_bitmap() {
        let mut idx = TableBitmapIndex::new();
        idx.register_table("Donate");
        assert!(idx.blocks_for_table("donate").is_empty());
        assert!(idx.tables().iter().any(|t| t == "donate"));
    }

    #[test]
    fn and_with_window_mask_filters() {
        let mut idx = TableBitmapIndex::new();
        for h in 0..10 {
            let t = if h % 2 == 0 { "donate" } else { "transfer" };
            idx.update(&block(h, vec![(t, ORG1)]));
        }
        let mut window = Bitmap::new();
        window.set_range(3, 7);
        let hits = idx.blocks_for_table("donate").and(&window);
        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), vec![4, 6]);
    }

    #[test]
    fn checkpoint_merges_tables_and_senders() {
        let mut idx = TableBitmapIndex::new();
        idx.update(&block(0, vec![("donate", ORG1)]));
        idx.update(&block(1, vec![("transfer", ORG2)]));
        let cp = idx.checkpoint();
        assert_eq!(cp.height, 2);
        assert_eq!(cp.family, family_table());
        // donate + transfer + two senders.
        assert_eq!(cp.entries.len(), 4);
        assert!(cp.entries.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
