//! Shared plumbing for the paged index backends (DESIGN §13).
//!
//! Every index family can split its state into a **frozen** on-disk
//! checkpoint covering blocks `[0, base)` — served lazily through
//! [`sebdb_storage::PagedIndexReader`] and the store's bounded
//! index-block cache — plus an **in-memory tail** covering
//! `[base, covered)`, indexed relative to `base` so resident memory is
//! O(tail), not O(chain). With no frozen checkpoint attached
//! (`base = 0`) a family degenerates to the original fully-resident
//! structure — the `cache=∞` reference the equivalence suite pins the
//! paged path against.
//!
//! This module holds the pieces all families share: the key-tag
//! namespace inside one checkpoint file, `Value`/bitmap/pointer codecs
//! for checkpoint entries, family naming, and the fail-stop read
//! wrapper (a storage error under an index query has no recovery path
//! mid-plan; the store heals checkpoints at open, so a read failure
//! here means bytes rotted underneath a validated file).

use crate::bitmap::Bitmap;
use crate::mbtree::{leaf_digest, AuthEntry, MbTree};
use sebdb_crypto::sha256::Digest;
use sebdb_storage::{IndexCheckpoint, PagedIndexReader, StorageError, TxPtr};
use sebdb_types::{ColumnRef, Decoder, Encoder, TypeError, Value};
use std::collections::BTreeMap;

/// Key tag: the family's precomputed all-blocks bitmap — the whole
/// frozen first level of a continuous family, whose per-block bucket
/// bitmaps stay in the resident tail.
pub const TAG_ALL_BLOCKS: u8 = 0x00;
/// Key tag: `0x02 ‖ enc(Value)` → the value's absolute block bitmap
/// (discrete first level).
pub const TAG_VALUE_BLOCKS: u8 = 0x02;
/// Key tag: `0x03 ‖ bid(u64 BE)` → the block's sorted MB-tree leaf
/// level and internal digests (what a proof is built from: a VO is per
/// block, §VI).
pub const TAG_BLOCK_ENTRIES: u8 = 0x03;
/// Key tag: `0x05 ‖ bid(u64 BE)` → the block's 32-byte MB-tree root.
pub const TAG_BLOCK_ROOT: u8 = 0x05;

/// Key tag: `0x06 ‖ orderkey(value) ‖ bid(u64 BE) ‖ index(u32 BE)` →
/// nothing: one indexed row of a layered family. Byte order is
/// `(value, block, position)` order, so the frozen second level is one
/// value-ordered run and equal values of different blocks are adjacent.
pub const TAG_ENTRY: u8 = 0x06;

/// Unit separator between family-name components.
const FAMILY_SEP: u8 = 0x1f;

/// Family name of one layered index (`table = None` for the system
/// columns indexed across all tables).
pub fn family_layered(table: Option<&str>, column: &str) -> Vec<u8> {
    let mut name = b"layered".to_vec();
    name.push(FAMILY_SEP);
    if let Some(t) = table {
        name.extend_from_slice(t.as_bytes());
    }
    name.push(FAMILY_SEP);
    name.extend_from_slice(column.as_bytes());
    name
}

/// Stable textual name of a column reference, used in family names
/// (application columns are positional, so the slug is positional too).
pub fn column_slug(c: &ColumnRef) -> String {
    match c {
        ColumnRef::Tid => "tid".into(),
        ColumnRef::Ts => "ts".into(),
        ColumnRef::Sig => "sig".into(),
        ColumnRef::SenId => "sen_id".into(),
        ColumnRef::Tname => "tname".into(),
        ColumnRef::App(i) => format!("app{i}"),
    }
}

/// Resident heap bytes of one `Value` (enum footprint plus any heap
/// payload) — the unit the per-family memory gauges sum over.
pub fn value_resident_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            _ => 0,
        }
}

/// Unwraps a frozen-index read. Fail-stop by design: the checkpoint
/// was validated at open and heals by deletion + replay on restart, so
/// a read error mid-query is unrecoverable state rot.
pub fn read_fail<T>(what: &str, r: Result<T, StorageError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("paged {what} read failed: {e}"),
    }
}

/// Unwraps the decode of a checkpoint entry or meta blob. Fail-stop
/// for the same reason as [`read_fail`]: the bytes passed the file's
/// checksums, so a malformed one was written by a different format.
pub fn decode_fail<T>(what: &str, r: Result<T, TypeError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("paged {what} failed to decode: {e}"),
    }
}

/// `tag ‖ bid(u64 BE)` — per-block entry key (BE keeps byte order =
/// numeric order within the tag).
pub fn bid_key(tag: u8, bid: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(tag);
    k.extend_from_slice(&bid.to_be_bytes());
    k
}

/// `0x02 ‖ enc(value)` — per-value entry key (tagged `Value` codec;
/// round-trips exactly, equality-preserving).
pub fn value_key(v: &Value) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_value(v);
    let mut k = Vec::with_capacity(9);
    k.push(TAG_VALUE_BLOCKS);
    k.extend_from_slice(&enc.finish());
    k
}

/// Decodes the `Value` out of a [`value_key`]-shaped key.
pub fn decode_value_key(key: &[u8]) -> Value {
    decode_fail("index value key", Decoder::new(&key[1..]).get_value())
}

/// Bytes a [`TxPtr`] takes at the end of an [`entry_key`].
const PTR_LEN: usize = 12;

/// [`TAG_ENTRY`] key of the row at `ptr` holding `v`.
pub fn entry_key(v: &Value, ptr: TxPtr) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(1 + 9 + PTR_LEN);
    enc.put_u8(TAG_ENTRY);
    enc.put_orderkey(v);
    enc.put_raw(&ptr.block.to_be_bytes());
    enc.put_raw(&ptr.index.to_be_bytes());
    enc.finish()
}

/// The pointer an [`entry_key`] ends with (the value is not decoded).
pub fn entry_ptr(key: &[u8]) -> TxPtr {
    let parse = || {
        let ptr = key.get(key.len().checked_sub(PTR_LEN)?..)?;
        Some(TxPtr {
            block: u64::from_be_bytes(ptr[..8].try_into().ok()?),
            index: u32::from_be_bytes(ptr[8..].try_into().ok()?),
        })
    };
    let context = "entry pointer";
    decode_fail(
        "second-level entry key",
        parse().ok_or(TypeError::UnexpectedEof { context }),
    )
}

/// Decodes an [`entry_key`] whole.
pub fn decode_entry_key(key: &[u8]) -> (Value, TxPtr) {
    let value = Decoder::new(key.get(1..).unwrap_or_default()).get_orderkey();
    (decode_fail("second-level entry key", value), entry_ptr(key))
}

/// Serializes a bitmap as its raw words, little-endian.
pub fn bitmap_bytes(b: &Bitmap) -> Vec<u8> {
    let mut out = Vec::with_capacity(b.words().len() * 8);
    for w in b.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Rebuilds a bitmap from [`bitmap_bytes`] output.
pub fn bitmap_from_bytes(bytes: &[u8]) -> Bitmap {
    let words = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    Bitmap::from_words(words)
}

/// Reads a frozen bitmap entry, or an empty bitmap when absent.
pub fn frozen_bitmap(reader: &PagedIndexReader, what: &str, key: &[u8]) -> Bitmap {
    read_fail(what, reader.get(key))
        .map(|bytes| bitmap_from_bytes(&bytes))
        .unwrap_or_default()
}

/// A full-rewrite checkpoint under construction — the merge every
/// family's `checkpoint()` runs: the frozen prefix swept out in key
/// order, what the resident tail writes kept sorted beside it, the two
/// merged once at the end.
pub struct CheckpointBuilder {
    frozen: Vec<(Vec<u8>, Vec<u8>)>,
    tail: BTreeMap<Vec<u8>, Vec<u8>>,
    /// First tail block: tail bitmaps are relative to it.
    base: usize,
}

impl CheckpointBuilder {
    /// Starts from every entry of `frozen` (from nothing when the
    /// family is fully resident). `what` names the family in the
    /// fail-stop message.
    pub fn sweep(what: &str, frozen: Option<&PagedIndexReader>) -> Self {
        let mut swept = Vec::new();
        if let Some(f) = frozen {
            swept.reserve(f.entry_count() as usize);
            read_fail(
                &format!("{what} checkpoint sweep"),
                f.sweep(&mut |k, v| swept.push((k.to_vec(), v.to_vec()))),
            );
        }
        CheckpointBuilder {
            frozen: swept,
            tail: BTreeMap::new(),
            base: frozen.map_or(0, |f| f.height() as usize),
        }
    }

    /// Writes one entry (over the frozen one under the same key).
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.tail.insert(key, value);
    }

    /// ORs a tail-relative bitmap (bit `i` = block `base + i`) over
    /// the frozen absolute bitmap stored under `key`, if any.
    pub fn or_tail(&mut self, key: Vec<u8>, tail: &Bitmap) {
        let mut bits = match self.frozen.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => bitmap_from_bytes(&self.frozen[at].1),
            Err(_) => Bitmap::new(),
        };
        bits.or_assign_shifted(tail, self.base);
        self.put(key, bitmap_bytes(&bits));
    }

    /// The finished checkpoint, entries in key order.
    pub fn finish(self, family: Vec<u8>, height: u64, meta: Vec<u8>) -> IndexCheckpoint {
        let mut entries = Vec::with_capacity(self.frozen.len() + self.tail.len());
        let mut frozen = self.frozen.into_iter().peekable();
        for (key, value) in self.tail {
            while let Some(carried) = frozen.next_if(|(k, _)| *k < key) {
                entries.push(carried);
            }
            frozen.next_if(|(k, _)| *k == key);
            entries.push((key, value));
        }
        entries.extend(frozen);
        IndexCheckpoint {
            family,
            height,
            meta,
            entries,
        }
    }
}

/// Serializes one block's MB-tree as its `0x03` entry: the sorted leaf
/// level in tree order (`MbTree::build` over it reproduces the tree
/// byte for byte, because the build sort is stable), then the internal
/// digests ([`MbTree::internal_digests`]), which a tree of ≤ fanout
/// entries does not have.
pub fn block_tree_bytes(tree: &MbTree) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(tree.len() as u32);
    for e in tree.entries() {
        enc.put_value(&e.key);
        enc.put_raw(e.tx_hash.as_bytes());
        enc.put_u64(e.ptr.block);
        enc.put_u32(e.ptr.index);
    }
    for d in tree.internal_digests() {
        enc.put_raw(d.as_bytes());
    }
    enc.finish()
}

/// Reads one 32-byte digest.
pub fn get_digest(dec: &mut Decoder<'_>, context: &'static str) -> Result<Digest, TypeError> {
    let mut digest = [0u8; 32];
    digest.copy_from_slice(dec.get_raw(32, context)?);
    Ok(Digest(digest))
}

/// A frozen block's `0x03` entry ([`block_tree_bytes`]), parsed only
/// as far as a proof needs: where each leaf starts, and the internal
/// digests. A leaf is decoded, or hashed, when the proof asks for it.
pub struct StoredTree<'a> {
    bytes: &'a [u8],
    /// Leaf `p` is `bytes[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
    upper: Vec<Digest>,
}

/// Bytes of a stored leaf's tx hash and pointer, after its key.
const LEAF_TAIL: usize = 32 + PTR_LEN;

impl<'a> StoredTree<'a> {
    /// Parses `bytes`, skipping over every leaf.
    pub fn parse(bytes: &'a [u8]) -> Self {
        let mut dec = Decoder::new(bytes);
        let mut parse = || -> Result<(Vec<usize>, Vec<Digest>), TypeError> {
            let n = dec.get_u32("paged auth entries count")? as usize;
            // Read past the checksum: a rotted count must not size the
            // allocation beyond what the bytes can hold.
            let mut starts = Vec::with_capacity(n.min(bytes.len() / LEAF_TAIL) + 1);
            for _ in 0..n {
                starts.push(bytes.len() - dec.remaining());
                dec.skip_value()?;
                dec.get_raw(LEAF_TAIL, "paged auth entry")?;
            }
            starts.push(bytes.len() - dec.remaining());
            let mut upper = Vec::with_capacity(dec.remaining() / 32);
            while !dec.is_exhausted() {
                upper.push(get_digest(&mut dec, "paged internal digest")?);
            }
            Ok((starts, upper))
        };
        let (starts, upper) = decode_fail("block tree", parse());
        StoredTree {
            bytes,
            starts,
            upper,
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The internal digests, levels 1 … top−1 bottom-up.
    pub fn upper(&self) -> &[Digest] {
        &self.upper
    }

    fn leaf(&self, p: usize) -> &'a [u8] {
        &self.bytes[self.starts[p]..self.starts[p + 1]]
    }

    /// Leaf `p`'s key.
    pub fn key(&self, p: usize) -> Value {
        decode_fail("auth entry key", Decoder::new(self.leaf(p)).get_value())
    }

    /// Leaf `p`, decoded.
    pub fn entry(&self, p: usize) -> AuthEntry {
        let mut dec = Decoder::new(self.leaf(p));
        let mut parse = || -> Result<AuthEntry, TypeError> {
            let key = dec.get_value()?;
            let tx_hash = get_digest(&mut dec, "paged auth entry hash")?;
            let block = dec.get_u64("paged auth entry block")?;
            let index = dec.get_u32("paged auth entry index")?;
            let ptr = TxPtr { block, index };
            Ok(AuthEntry { key, tx_hash, ptr })
        };
        decode_fail("auth entry", parse())
    }

    /// Leaf `p`'s digest, [`AuthEntry::digest`] of [`Self::entry`],
    /// hashed straight off the stored bytes.
    pub fn leaf_digest(&self, p: usize) -> Digest {
        let leaf = self.leaf(p);
        leaf_digest(&leaf[..leaf.len() - PTR_LEN])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_key_roundtrip() {
        for v in [
            Value::Null,
            Value::Int(-5),
            Value::decimal(123),
            Value::str("donate"),
            Value::Bool(true),
            Value::Timestamp(99),
            Value::Bytes(vec![1, 2, 3]),
        ] {
            assert_eq!(decode_value_key(&value_key(&v)), v);
        }
    }

    #[test]
    fn bitmap_roundtrip() {
        let b = Bitmap::from_bits([0, 63, 64, 1000]);
        assert_eq!(bitmap_from_bytes(&bitmap_bytes(&b)), b);
        assert!(bitmap_from_bytes(&[]).is_empty());
    }

    #[test]
    fn entry_keys_roundtrip_and_sort_by_value_then_pointer() {
        let at = |block, index| TxPtr { block, index };
        let rows = [
            (Value::decimal(-3), at(9, 0)),
            (Value::decimal(1), at(2, 7)),
            (Value::decimal(1), at(7, 0)),
            (Value::decimal(1), at(7, 3)),
            (Value::decimal(2), at(0, 0)),
        ];
        let keys: Vec<Vec<u8>> = rows.iter().map(|(v, p)| entry_key(v, *p)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for ((v, p), key) in rows.iter().zip(&keys) {
            assert_eq!(decode_entry_key(key), (v.clone(), *p));
            assert_eq!(entry_ptr(key), *p);
        }
    }

    #[test]
    fn builder_merges_the_tail_over_the_sweep() {
        let mut cp = CheckpointBuilder {
            frozen: vec![
                (vec![1], vec![10]),
                (vec![3], bitmap_bytes(&Bitmap::from_bits([0]))),
                (vec![5], vec![50]),
            ],
            tail: BTreeMap::new(),
            base: 4,
        };
        cp.put(vec![0], vec![0]);
        cp.put(vec![5], vec![55]);
        cp.put(vec![9], vec![90]);
        cp.or_tail(vec![3], &Bitmap::from_bits([1]));
        cp.or_tail(vec![4], &Bitmap::from_bits([0]));
        let done = cp.finish(Vec::new(), 6, Vec::new());
        let keys: Vec<u8> = done.entries.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![0, 1, 3, 4, 5, 9]);
        assert_eq!(done.entries[2].1, bitmap_bytes(&Bitmap::from_bits([0, 5])));
        assert_eq!(done.entries[3].1, bitmap_bytes(&Bitmap::from_bits([4])));
        assert_eq!(done.entries[4].1, vec![55]);
    }

    #[test]
    fn family_names_are_distinct() {
        let names = [
            family_layered(None, "tname"),
            family_layered(None, "sen_id"),
            family_layered(Some("donate"), "amount"),
            family_layered(Some("donate"), "donor"),
        ];
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
