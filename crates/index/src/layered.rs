//! The layered index (§IV-B, Fig. 4), authenticated (§VI): one index
//! per column serves plain probes and proofs from the same leaves.
//!
//! Two levels:
//!
//! * **First level** describes the distribution of an attribute's
//!   values among blocks. For a *continuous* attribute each block gets
//!   a bitmap over the buckets of a pre-built equal-depth histogram
//!   (bit *k* set iff the block holds a transaction whose value falls
//!   in bucket *k*). For a *discrete* attribute there is one bitmap
//!   per distinct value (bit *i* set iff block *i* holds that value).
//! * **Second level** is one [`MbTree`] per block on the attribute,
//!   built in bulk when the block is chained — append-only, never
//!   rebalanced. Its key-sorted leaf level is the paper's per-block
//!   B⁺-tree (a plain range is a binary search over it); its digest
//!   levels are what §VI adds, read only by the authenticated queries
//!   in `ali.rs`.
//!
//! Queries intersect the first level with a block mask (e.g. a time
//! window from the block-level index) to prune blocks, then use the
//! per-block trees to fetch exactly the matching transactions.
//!
//! An index keeps only what a read reads (DESIGN §4): a discrete index
//! may keep its first level only (the `tname` system index, no trees),
//! and a continuous one keeps bucket bitmaps for the resident tail only
//! — a frozen block counts as holding every bucket.
//!
//! The per-block trees buy cheap appends, and the resident tail keeps
//! them. Freezing merges their leaves into one key per row, ordered
//! `(value, block, position)`: the same rows, so the same answers, but
//! a probe reads the index blocks its answer spans however long the
//! chain. Beside that run a checkpoint keeps each block's leaf list,
//! the tree's internal digests and its MB-root, because a proof is per
//! block (§VI).
//!
//! **Paged backend** (DESIGN §13): the index can carry a frozen
//! on-disk checkpoint covering blocks `[0, base)`; the structures here
//! then hold only the tail `[base, covered)`, indexed relative to
//! `base`, and every query merges the frozen view (read lazily through
//! the store's index-block cache) with the tail. With no checkpoint
//! attached the index is the original fully-resident structure — the
//! `cache=∞` reference.

use crate::bitmap::Bitmap;
use crate::histogram::EqualDepthHistogram;
use crate::mbtree::{AuthEntry, MbTree, DEFAULT_FANOUT};
use crate::paged::{
    bid_key, bitmap_bytes, bitmap_from_bytes, block_tree_bytes, column_slug, decode_entry_key,
    decode_fail, decode_value_key, entry_key, entry_ptr, family_layered, frozen_bitmap, read_fail,
    value_key, value_resident_bytes, CheckpointBuilder, TAG_ALL_BLOCKS, TAG_BLOCK_ENTRIES,
    TAG_BLOCK_ROOT, TAG_ENTRY, TAG_VALUE_BLOCKS,
};
use sebdb_storage::{IndexCheckpoint, PagedIndexReader, TxPtr};
use sebdb_types::{Block, BlockId, ColumnRef, Decoder, Encoder, Transaction, TypeError, Value};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A simple predicate over the indexed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPredicate {
    /// `column = value`.
    Eq(Value),
    /// `column BETWEEN lo AND hi` (inclusive).
    Range(Value, Value),
}

impl KeyPredicate {
    /// The (lo, hi) closed interval this predicate covers.
    pub fn bounds(&self) -> (&Value, &Value) {
        match self {
            KeyPredicate::Eq(v) => (v, v),
            KeyPredicate::Range(lo, hi) => (lo, hi),
        }
    }

    /// Whether `v` satisfies the predicate.
    pub fn matches(&self, v: &Value) -> bool {
        let (lo, hi) = self.bounds();
        v >= lo && v <= hi
    }
}

#[derive(Debug)]
enum FirstLevel {
    Continuous {
        hist: EqualDepthHistogram,
        /// Per tail block (slot `bid - base`): bitmap over histogram
        /// buckets (None = block holds no indexed transactions). Not
        /// checkpointed: a frozen block may hold any bucket.
        entries: Vec<Option<Bitmap>>,
    },
    Discrete {
        /// Per distinct value: bitmap over tail blocks, bit `i` =
        /// block `base + i`.
        per_value: HashMap<Value, Bitmap>,
    },
}

/// A layered index on one attribute of one table (or of *all* tables
/// for the system columns `SenID` / `Tname`, which drive tracking).
#[derive(Debug)]
pub struct LayeredIndex {
    /// Table the index covers; `None` indexes every table (system
    /// columns only).
    pub table: Option<String>,
    /// Indexed column.
    pub column: ColumnRef,
    first: FirstLevel,
    /// Per-block second-level trees for the tail, slot = `bid - base`;
    /// `None` for an index that keeps its first level only.
    second: Option<Vec<Option<MbTree>>>,
    /// Chain height this index has state for (`base + tail length`).
    covered: u64,
    /// MB-tree fanout: clients rebuild roots and a frozen block's leaf
    /// pages are cut with it, so it travels in the checkpoint meta.
    fanout: usize,
    /// The frozen prefix: blocks below the reader's height are served
    /// from its checkpoint.
    frozen: Option<PagedIndexReader>,
}

/// Checkpoint meta: the fanout, then the kind tag — 0 continuous (+
/// histogram bounds), 1 discrete, 2 discrete first level only.
fn encode_meta(fanout: usize, first: &FirstLevel, trees: bool) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(fanout as u32);
    match first {
        FirstLevel::Continuous { hist, .. } => {
            enc.put_u8(0);
            enc.put_u32(hist.bounds().len() as u32);
            for b in hist.bounds() {
                enc.put_i64(*b);
            }
        }
        FirstLevel::Discrete { .. } => enc.put_u8(if trees { 1 } else { 2 }),
    }
    enc.finish()
}

/// Rebuilds the fanout, the (empty-tail) first level and whether the
/// index keeps trees out of checkpoint meta.
fn decode_meta(meta: &[u8]) -> (usize, FirstLevel, bool) {
    let mut dec = Decoder::new(meta);
    let mut parse = || -> Result<(usize, FirstLevel, bool), TypeError> {
        let fanout = dec.get_u32("layered meta fanout")? as usize;
        let discrete = FirstLevel::Discrete {
            per_value: HashMap::new(),
        };
        let context = "layered meta kind";
        let (first, trees) = match dec.get_u8(context)? {
            0 => {
                let n = dec.get_u32("layered meta bounds")?;
                let mut bounds = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    bounds.push(dec.get_i64("layered meta bound")?);
                }
                let hist = EqualDepthHistogram::from_bounds(bounds);
                let entries = Vec::new();
                (FirstLevel::Continuous { hist, entries }, true)
            }
            1 => (discrete, true),
            2 => (discrete, false),
            tag => return Err(TypeError::BadTag { context, tag }),
        };
        Ok((fanout, first, trees))
    };
    decode_fail("layered index meta", parse())
}

impl LayeredIndex {
    /// An empty, fully resident index over `first`.
    fn cold(table: Option<String>, column: ColumnRef, first: FirstLevel, trees: bool) -> Self {
        LayeredIndex {
            table,
            column,
            first,
            second: trees.then(Vec::new),
            covered: 0,
            fanout: DEFAULT_FANOUT,
            frozen: None,
        }
    }

    /// Creates a continuous-attribute index with a pre-sampled
    /// histogram (§IV-B: "created by sampling historical transactions
    /// during index creating").
    pub fn new_continuous(
        table: Option<String>,
        column: ColumnRef,
        hist: EqualDepthHistogram,
    ) -> Self {
        let entries = Vec::new();
        Self::cold(
            table,
            column,
            FirstLevel::Continuous { hist, entries },
            true,
        )
    }

    /// Creates a discrete-attribute index.
    pub fn new_discrete(table: Option<String>, column: ColumnRef) -> Self {
        let per_value = HashMap::new();
        Self::cold(table, column, FirstLevel::Discrete { per_value }, true)
    }

    /// Creates a discrete-attribute index that keeps its first level
    /// only: one block bitmap per value, no per-block trees, so no
    /// second-level probe and no proof finds anything in it.
    pub fn new_first_level(table: Option<String>, column: ColumnRef) -> Self {
        let per_value = HashMap::new();
        Self::cold(table, column, FirstLevel::Discrete { per_value }, false)
    }

    /// Rebuilds an index from a frozen checkpoint: fanout, kind and
    /// histogram come from the checkpoint meta, the tail starts empty
    /// at the checkpoint height.
    pub fn from_frozen(table: Option<String>, column: ColumnRef, reader: PagedIndexReader) -> Self {
        let (fanout, first, trees) = decode_meta(reader.meta());
        LayeredIndex {
            table,
            column,
            first,
            second: trees.then(Vec::new),
            covered: reader.height(),
            fanout,
            frozen: Some(reader),
        }
    }

    /// Freezes the index behind a newly written checkpoint: the tail
    /// it covered is dropped and future queries page it back through
    /// the reader. The reader must cover exactly [`Self::covered`].
    pub fn adopt_frozen(&mut self, reader: PagedIndexReader) {
        assert_eq!(
            reader.height(),
            self.covered(),
            "adopting a checkpoint that does not match the indexed height"
        );
        match &mut self.first {
            FirstLevel::Continuous { entries, .. } => entries.clear(),
            FirstLevel::Discrete { per_value } => per_value.clear(),
        }
        if let Some(second) = &mut self.second {
            second.clear();
        }
        if let Some(old) = &self.frozen {
            read_fail("layered checkpoint warm-up", reader.warm_from(old));
        }
        self.frozen = Some(reader);
    }

    /// First tail block: blocks below this are frozen.
    fn base(&self) -> u64 {
        self.frozen.as_ref().map_or(0, PagedIndexReader::height)
    }

    /// Chain height this index has state for (`base + tail length`).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Whether the index keeps per-block trees (every index but one
    /// built by [`Self::new_first_level`]).
    pub fn keeps_trees(&self) -> bool {
        self.second.is_some()
    }

    /// The family name of this index's checkpoint file.
    pub fn family(&self) -> Vec<u8> {
        family_layered(self.table.as_deref(), &column_slug(&self.column))
    }

    /// MB-tree fanout (needed by clients to verify).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Block `bid`'s resident tree (`None` for a frozen block, for one
    /// with no indexed transactions and for an index without trees).
    pub(crate) fn tail_tree(&self, bid: BlockId) -> Option<&MbTree> {
        let slot = bid.checked_sub(self.base())?;
        self.second.as_ref()?.get(slot as usize)?.as_ref()
    }

    /// Frozen block `bid`'s checkpoint entry under `tag` (`None` for a
    /// tail block and for one with no such entry).
    pub(crate) fn frozen_entry(&self, tag: u8, bid: BlockId) -> Option<Vec<u8>> {
        let f = self.frozen.as_ref().filter(|f| bid < f.height())?;
        read_fail("layered block entry", f.get(&bid_key(tag, bid)))
    }

    /// [`Self::frozen_entry`] read past the cache and the block
    /// checksum, for an entry the caller authenticates.
    pub(crate) fn frozen_entry_direct(&self, tag: u8, bid: BlockId) -> Option<Vec<u8>> {
        let f = self.frozen.as_ref().filter(|f| bid < f.height())?;
        read_fail("layered block entry", f.get_direct(&bid_key(tag, bid)))
    }

    /// Whether `tx` is covered by this index.
    fn covers(&self, tx: &Transaction) -> bool {
        match &self.table {
            Some(t) => tx.tname.eq_ignore_ascii_case(t),
            None => true,
        }
    }

    /// Indexes a newly chained block: appends a first-level entry and
    /// bulk-loads the block's second-level tree.
    pub fn update(&mut self, block: &Block) {
        let rows: Vec<u32> = block
            .transactions
            .iter()
            .enumerate()
            .filter(|(_, tx)| self.covers(tx))
            .map(|(i, _)| i as u32)
            .collect();
        self.update_rows(block, &rows);
    }

    /// The tail slot of block `bid`, advancing the covered height past
    /// it; `None` for a block the index already covers (replay catching
    /// up over frozen or indexed blocks has nothing to do).
    fn next_slot(&mut self, bid: BlockId) -> Option<usize> {
        if bid < self.covered {
            return None;
        }
        self.covered = bid + 1;
        Some((bid - self.base()) as usize)
    }

    /// Per-relation maintenance entry point: indexes a newly chained
    /// block from a pre-partitioned tuple set. `rows` are the positions
    /// (ascending) of the block's transactions that belong to this
    /// index's relation — the applier partitions each sealed block by
    /// `Tname` once and hands every per-table family exactly its rows,
    /// so per-table indexes skip the full-block `covers` scan.
    /// Equivalent to [`Self::update`] when `rows` holds exactly the
    /// covered positions, which the caller guarantees.
    pub fn update_rows(&mut self, block: &Block, rows: &[u32]) {
        let bid = block.header.height;
        let Some(slot) = self.next_slot(bid) else {
            return;
        };
        let keyed: Vec<(u32, &Transaction, Value)> = rows
            .iter()
            .filter_map(|&i| {
                let tx = block.transactions.get(i as usize)?;
                let key = tx.get(self.column).filter(|key| *key != Value::Null)?;
                Some((i, tx, key))
            })
            .collect();
        if keyed.is_empty() {
            return;
        }
        match &mut self.first {
            FirstLevel::Continuous { hist, entries } => {
                let mut bucket_map = Bitmap::with_capacity(hist.bucket_count());
                for rank in keyed.iter().filter_map(|(_, _, key)| key.numeric_rank()) {
                    bucket_map.set(hist.bucket_of(rank));
                }
                if entries.len() <= slot {
                    entries.resize_with(slot + 1, || None);
                }
                entries[slot] = Some(bucket_map);
            }
            FirstLevel::Discrete { per_value } => {
                for (_, _, key) in &keyed {
                    per_value.entry(key.clone()).or_default().set(slot);
                }
            }
        }
        let Some(second) = &mut self.second else {
            return;
        };
        let leaves = keyed
            .into_iter()
            .map(|(index, tx, key)| AuthEntry {
                key,
                tx_hash: tx.hash(),
                ptr: TxPtr { block: bid, index },
            })
            .collect();
        if second.len() <= slot {
            second.resize_with(slot + 1, || None);
        }
        second[slot] = Some(MbTree::build(leaves, self.fanout));
    }

    /// The absolute block bitmap of one discrete value, merged across
    /// the frozen checkpoint and the tail.
    fn value_blocks(&self, v: &Value) -> Bitmap {
        self.candidate_blocks(&KeyPredicate::Eq(v.clone()))
    }

    /// Visits every distinct discrete value with its merged absolute
    /// block bitmap (frozen ∪ tail), each value exactly once.
    fn for_each_value(&self, mut f: impl FnMut(&Value, &Bitmap)) {
        let FirstLevel::Discrete { per_value } = &self.first else {
            return;
        };
        let base = self.base() as usize;
        if let Some(frozen) = &self.frozen {
            let mut visit = |key: &[u8], bytes: &[u8]| {
                let v = decode_value_key(key);
                let mut bits = bitmap_from_bytes(bytes);
                if let Some(tail) = per_value.get(&v) {
                    bits.or_assign_shifted(tail, base);
                }
                f(&v, &bits);
                ControlFlow::Continue(())
            };
            read_fail(
                "layered value sweep",
                frozen.scan_prefix(&[TAG_VALUE_BLOCKS], &mut visit),
            );
            // Tail-only values follow; frozen values were all merged
            // above, so skip any tail value the checkpoint already has.
            for (v, tail) in per_value {
                if read_fail(
                    "layered value probe",
                    frozen.get(&value_key(v)).map(|r| r.is_some()),
                ) {
                    continue;
                }
                let mut bits = Bitmap::new();
                bits.or_assign_shifted(tail, base);
                f(v, &bits);
            }
        } else {
            for (v, bits) in per_value {
                f(v, bits);
            }
        }
    }

    /// The histogram buckets a predicate's bounds cover (`None` for a
    /// non-numeric probe, which a histogram cannot prune).
    fn buckets_for(
        hist: &EqualDepthHistogram,
        pred: &KeyPredicate,
    ) -> Option<std::ops::RangeInclusive<usize>> {
        let (lo, hi) = pred.bounds();
        Some(hist.buckets_for_range(lo.numeric_rank()?, hi.numeric_rank()?))
    }

    /// First-level filter over the resident tail alone: tail blocks
    /// that may contain values matching `pred`.
    fn tail_candidates(&self, pred: &KeyPredicate) -> Bitmap {
        let base = self.base() as usize;
        let mut out = Bitmap::new();
        match &self.first {
            FirstLevel::Continuous { hist, entries } => {
                // A non-numeric probe is not pruned: every bucket.
                let all = 0..=hist.bucket_count();
                let range = Self::buckets_for(hist, pred).unwrap_or(all);
                let mut probe = Bitmap::with_capacity(hist.bucket_count());
                probe.set_range(*range.start(), *range.end());
                for (slot, entry) in entries.iter().enumerate() {
                    if entry.as_ref().is_some_and(|e| e.intersects(&probe)) {
                        out.set(base + slot);
                    }
                }
            }
            FirstLevel::Discrete { per_value } => match pred {
                KeyPredicate::Eq(v) => {
                    if let Some(bits) = per_value.get(v) {
                        out.or_assign_shifted(bits, base);
                    }
                }
                KeyPredicate::Range(..) => {
                    for (_, bits) in per_value.iter().filter(|(v, _)| pred.matches(v)) {
                        out.or_assign_shifted(bits, base);
                    }
                }
            },
        }
        out
    }

    /// First-level filter: blocks that may contain values matching
    /// `pred` ("blocks without query results are filtered"). A
    /// continuous index keeps no bucket bitmap for a frozen block, so
    /// every frozen block holding an indexed row is a candidate.
    pub fn candidate_blocks(&self, pred: &KeyPredicate) -> Bitmap {
        let mut out = self.tail_candidates(pred);
        let Some(f) = &self.frozen else {
            return out;
        };
        let mut or = |what, key: &[u8]| out.or_assign(&frozen_bitmap(f, what, key));
        match (&self.first, pred) {
            (FirstLevel::Continuous { .. }, _) => {
                or("layered all-blocks bitmap", &[TAG_ALL_BLOCKS])
            }
            (_, KeyPredicate::Eq(v)) => or("layered value bitmap", &value_key(v)),
            (_, KeyPredicate::Range(..)) => read_fail(
                "layered value sweep",
                f.scan_prefix(&[TAG_VALUE_BLOCKS], &mut |key, bytes| {
                    if pred.matches(&decode_value_key(key)) {
                        out.or_assign(&bitmap_from_bytes(bytes));
                    }
                    ControlFlow::Continue(())
                }),
            ),
        }
        out
    }

    /// Blocks containing any indexed transaction — the
    /// `First_level_bitmap(I)` of Algorithms 2 and 3.
    pub fn all_blocks(&self) -> Bitmap {
        let mut out = match &self.frozen {
            Some(f) => frozen_bitmap(f, "layered all-blocks bitmap", &[TAG_ALL_BLOCKS]),
            None => Bitmap::new(),
        };
        let base = self.base() as usize;
        match &self.first {
            FirstLevel::Continuous { entries, .. } => {
                let occupied = entries.iter().enumerate().filter(|(_, e)| e.is_some());
                occupied.for_each(|(slot, _)| out.set(base + slot));
            }
            FirstLevel::Discrete { per_value } => {
                per_value
                    .values()
                    .for_each(|bits| out.or_assign_shifted(bits, base));
            }
        }
        out
    }

    /// Algorithm 2's `intersect` pruning for an equi-join of this index
    /// (relation r, masked by `mask_r`) with `other` (relation s, masked
    /// by `mask_s`), as the two block sets the surviving block pairs
    /// project onto, in O(values + blocks) rather than over pairs:
    ///
    /// * continuous: an r block survives when one of its buckets
    ///   overlaps one a masked s block holds (their union, tested once
    ///   per block), and the reverse; a frozen block holds every bucket;
    /// * discrete: the OR of `L(v)` over the values with a masked block
    ///   on the other side;
    /// * mixed continuous/discrete attributes cannot prune: every masked
    ///   block, when both sides have one.
    pub fn join_blocks(&self, mask_r: &Bitmap, other: &Self, mask_s: &Bitmap) -> (Bitmap, Bitmap) {
        let (mut r, mut s) = (Bitmap::new(), Bitmap::new());
        match (&self.first, &other.first) {
            (FirstLevel::Discrete { .. }, FirstLevel::Discrete { .. }) => {
                self.for_each_value(|v, bits_r| {
                    let bits_r = bits_r.and(mask_r);
                    if bits_r.is_empty() {
                        return;
                    }
                    let bits_s = other.value_blocks(v).and(mask_s);
                    if !bits_s.is_empty() {
                        r.or_assign(&bits_r);
                        s.or_assign(&bits_s);
                    }
                });
            }
            (FirstLevel::Continuous { .. }, FirstLevel::Continuous { .. }) => {
                let r_blocks = self.all_blocks().and(mask_r);
                let s_blocks = other.all_blocks().and(mask_s);
                r = self.blocks_meeting(&r_blocks, other, &s_blocks);
                s = other.blocks_meeting(&s_blocks, self, &r_blocks);
            }
            _ => {
                let r_blocks = self.all_blocks().and(mask_r);
                let s_blocks = other.all_blocks().and(mask_s);
                if !r_blocks.is_empty() && !s_blocks.is_empty() {
                    (r, s) = (r_blocks, s_blocks);
                }
            }
        }
        (r, s)
    }

    /// Tail block `bid`'s bucket bitmap (continuous); `None` for a
    /// frozen block, which keeps none, and for a tail block with no
    /// indexed transaction.
    fn tail_buckets(&self, bid: usize) -> Option<&Bitmap> {
        let FirstLevel::Continuous { entries, .. } = &self.first else {
            return None;
        };
        let slot = bid.checked_sub(self.base() as usize)?;
        entries.get(slot)?.as_ref()
    }

    /// The blocks of `blocks` (continuous) holding a bucket that
    /// overlaps one a block of `theirs` in `other` holds: buckets cover
    /// `(l, u]`, so bounds that only touch hold no common value. A
    /// frozen block may hold every bucket: one in `theirs` ends the
    /// fold, and one in `blocks` meets whatever bucket is in reach.
    fn blocks_meeting(&self, blocks: &Bitmap, other: &Self, theirs: &Bitmap) -> Bitmap {
        let (Some(hist), Some(their_hist)) = (self.histogram(), other.histogram()) else {
            return Bitmap::new();
        };
        let held: Bitmap = match theirs.iter_ones().next() {
            Some(first) if (first as u64) < other.base() => {
                (0..their_hist.bucket_count()).collect()
            }
            _ => {
                let mut held = Bitmap::new();
                let tail = theirs.iter_ones().filter_map(|b| other.tail_buckets(b));
                tail.for_each(|buckets| held.or_assign(buckets));
                held
            }
        };
        let reach: Bitmap = (0..hist.bucket_count())
            .filter(|&k| {
                let (kl, ku) = hist.bucket_bounds(k);
                held.iter_ones().any(|m| {
                    let (ml, mu) = their_hist.bucket_bounds(m);
                    let below = matches!((ku, ml), (Some(u), Some(l)) if u <= l);
                    !(below || matches!((kl, mu), (Some(l), Some(u)) if l >= u))
                })
            })
            .collect();
        if reach.is_empty() {
            return Bitmap::new();
        }
        let base = self.base() as usize;
        let meets = |&bid: &usize| {
            bid < base || self.tail_buckets(bid).is_some_and(|b| b.intersects(&reach))
        };
        blocks.iter_ones().filter(meets).collect()
    }

    /// Blocks holding any of the given discrete values ("execute OR
    /// operation on bitmaps of unique keys", Algorithm 3's discrete
    /// case).
    pub fn blocks_for_values<'a>(&self, values: impl Iterator<Item = &'a Value>) -> Bitmap {
        let mut out = Bitmap::new();
        for v in values {
            out.or_assign(&self.value_blocks(v));
        }
        out
    }

    /// The histogram (continuous indexes only).
    pub fn histogram(&self) -> Option<&EqualDepthHistogram> {
        match &self.first {
            FirstLevel::Continuous { hist, .. } => Some(hist),
            FirstLevel::Discrete { .. } => None,
        }
    }

    /// Resident bytes of this index: the in-memory tail structures plus
    /// the frozen checkpoint's always-loaded fence/meta top level
    /// (lazily cached level-1 blocks are accounted by the store's
    /// index-block cache, not per family).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        match &self.first {
            FirstLevel::Continuous { hist, entries } => {
                bytes += hist.bounds().len() * 8;
                for e in entries.iter().flatten() {
                    bytes += e.byte_len();
                }
            }
            FirstLevel::Discrete { per_value } => {
                for (v, bits) in per_value {
                    bytes += value_resident_bytes(v) + bits.byte_len();
                }
            }
        }
        for tree in self.second.iter().flatten().flatten() {
            bytes += tree.memory_bytes();
        }
        if let Some(f) = &self.frozen {
            bytes += f.memory_bytes();
        }
        bytes
    }

    /// Freezes the complete state (frozen ∪ tail) into one checkpoint
    /// covering `[0, covered)` — the full-rewrite merge an LSM
    /// compaction would do, run by the applier's indexer. The first
    /// level it writes is the all-blocks bitmap and, discrete, each
    /// value's block bitmap.
    pub fn checkpoint(&self) -> IndexCheckpoint {
        let mut cp = CheckpointBuilder::sweep("layered", self.frozen.as_ref());
        let base = self.base();
        if let FirstLevel::Discrete { per_value } = &self.first {
            for (v, tail_bits) in per_value {
                cp.or_tail(value_key(v), tail_bits);
            }
        }
        // One key per row — merged with every other block's, the
        // value-ordered run plain probes scan — and, per block, the
        // leaf list, internal digests and root a proof is built from.
        for (slot, tree) in self.second.iter().flatten().enumerate() {
            let Some(tree) = tree else { continue };
            let bid = base + slot as u64;
            for e in tree.entries() {
                cp.put(entry_key(&e.key, e.ptr), Vec::new());
            }
            cp.put(bid_key(TAG_BLOCK_ENTRIES, bid), block_tree_bytes(tree));
            cp.put(
                bid_key(TAG_BLOCK_ROOT, bid),
                tree.root().as_bytes().to_vec(),
            );
        }
        cp.put(vec![TAG_ALL_BLOCKS], bitmap_bytes(&self.all_blocks()));
        cp.finish(
            self.family(),
            self.covered(),
            encode_meta(self.fanout, &self.first, self.keeps_trees()),
        )
    }
}

/// What [`LayeredIndex::probe`] found.
#[derive(Debug, Default)]
pub struct Probe {
    /// Pointers to the matching rows inside the block mask: all of
    /// them, in chain order, when `complete`; those collected before
    /// the budget ran out otherwise.
    pub ptrs: Vec<TxPtr>,
    /// Matching index rows looked at, inside the mask or not. The
    /// frozen run is ordered by value, not by block, so a narrow mask
    /// over a wide value range scans rows it does not keep.
    pub scanned: u64,
    /// Whether the probe ran to the end.
    pub complete: bool,
}

impl LayeredIndex {
    /// The two ends of the frozen run's keys for `pred` within blocks
    /// `b0..=b1`.
    fn run_bounds(pred: &KeyPredicate, b0: u64, b1: u64) -> (Vec<u8>, Vec<u8>) {
        let (lo, hi) = pred.bounds();
        let at = |block, index| TxPtr { block, index };
        (entry_key(lo, at(b0, 0)), entry_key(hi, at(b1, u32::MAX)))
    }

    /// The frozen block intervals a probe under the mask `blocks`
    /// seeks. Keys order `(value, block)`: for one value every run of
    /// set bits is one contiguous stretch of keys, so an `Eq` probe
    /// costs its mask, not the value's rows; a range of values
    /// interleaves blocks, so it is one stretch from the first masked
    /// block to the last, filtered by the mask.
    fn frozen_runs(&self, pred: &KeyPredicate, blocks: &Bitmap) -> Vec<(u64, u64)> {
        let base = self.base();
        let mut runs = blocks
            .runs()
            .map(|(first, last)| (first as u64, last as u64))
            .take_while(|&(first, _)| first < base)
            .map(|(first, last)| (first, last.min(base - 1)));
        match pred {
            KeyPredicate::Eq(_) => runs.collect(),
            KeyPredicate::Range(..) => {
                let Some((first, last)) = runs.next() else {
                    return Vec::new();
                };
                vec![(first, runs.last().map_or(last, |(_, last)| last))]
            }
        }
    }

    /// Second-level search under a block mask and a budget: pointers to
    /// the rows of the blocks set in `blocks` whose value matches
    /// `pred`. `holds(p)` is asked as pointers are kept (`p` of them so
    /// far: after each one off the frozen run, after each resident
    /// tree's) and ends the probe by answering `false`.
    ///
    /// The frozen half is a scan of the value-ordered run filtered by
    /// the mask — it reads the index blocks the answer spans and never
    /// consults the first level; the tail half asks the first level
    /// which resident trees can match and searches those. An index
    /// without trees has no second level to probe.
    pub fn probe(
        &self,
        pred: &KeyPredicate,
        blocks: &Bitmap,
        mut holds: impl FnMut(usize) -> bool,
    ) -> Probe {
        debug_assert!(self.keeps_trees(), "probing a first-level-only index");
        let mut probe = Probe::default();
        if let Some(f) = &self.frozen {
            for (b0, b1) in self.frozen_runs(pred, blocks) {
                let (from, to) = Self::run_bounds(pred, b0, b1);
                let mut flow = ControlFlow::Continue(());
                let mut visit = |key: &[u8], _: &[u8]| {
                    probe.scanned += 1;
                    let ptr = entry_ptr(key);
                    if blocks.get(ptr.block as usize) {
                        probe.ptrs.push(ptr);
                        if !holds(probe.ptrs.len()) {
                            flow = ControlFlow::Break(());
                        }
                    }
                    flow
                };
                read_fail(
                    "layered run scan",
                    f.scan_range(&from, Some(&to), &mut visit),
                );
                if flow.is_break() {
                    return probe;
                }
            }
        }
        let (lo, hi) = pred.bounds();
        for bid in self.tail_candidates(pred).and(blocks).iter_ones() {
            let before = probe.ptrs.len();
            self.tree_hits(bid as BlockId, lo, hi, &mut probe.ptrs);
            let hits = probe.ptrs.len() - before;
            probe.scanned += hits as u64;
            if hits > 0 && !holds(probe.ptrs.len()) {
                return probe;
            }
        }
        probe.ptrs.sort_unstable();
        probe.complete = true;
        probe
    }

    /// Appends block `bid`'s resident matches for `[lo, hi]` to `out`.
    /// Its own small function on purpose: inlined into `probe`'s loop
    /// the tree descent compiled ≈ 9 ns per tree slower, which 160
    /// resident candidate trees turn into 8 % of a point query.
    fn tree_hits(&self, bid: BlockId, lo: &Value, hi: &Value, out: &mut Vec<TxPtr>) {
        if let Some(tree) = self.tail_tree(bid) {
            out.extend(tree.range(lo, hi).iter().map(|e| e.ptr));
        }
    }

    /// [`Self::probe`] without a budget: every matching pointer inside
    /// `blocks`, in chain order.
    pub fn search(&self, pred: &KeyPredicate, blocks: &Bitmap) -> Vec<TxPtr> {
        self.probe(pred, blocks, |_| true).ptrs
    }

    /// Second-level search within one block.
    pub fn search_block(&self, bid: BlockId, pred: &KeyPredicate) -> Vec<TxPtr> {
        self.search(pred, &Bitmap::from_bits([bid as usize]))
    }

    /// Level-1 index blocks of the frozen run that a probe for `pred`
    /// reads at most, from the fences alone (0 when fully resident) —
    /// what the planner charges the layered path before probing.
    pub fn index_blocks_spanned(&self, pred: &KeyPredicate) -> u64 {
        self.frozen.as_ref().map_or(0, |f| {
            let (from, to) = Self::run_bounds(pred, 0, u64::MAX);
            f.blocks_spanned(&from, &to) as u64
        })
    }

    /// All (value, pointer) pairs of the blocks set in `blocks`, in
    /// `(value, block, position)` order — the sorted leaf scan the
    /// sort-merge joins rely on ("transactions are sorted at the leaf
    /// level"): one sweep of the frozen run filtered by the mask, the
    /// masked tail trees merged in.
    pub fn sorted_entries(&self, blocks: &Bitmap) -> Vec<(Value, TxPtr)> {
        let mut out = Vec::new();
        let base = self.base();
        // No sweep of the run for a mask wholly inside the tail.
        let masked = blocks.iter_ones().next().is_some_and(|b| (b as u64) < base);
        if let Some(f) = self.frozen.as_ref().filter(|_| masked) {
            read_fail(
                "layered run sweep",
                f.scan_prefix(&[TAG_ENTRY], &mut |key, _| {
                    if blocks.get(entry_ptr(key).block as usize) {
                        out.push(decode_entry_key(key));
                    }
                    ControlFlow::Continue(())
                }),
            );
        }
        for (slot, tree) in self.second.iter().flatten().enumerate() {
            if let Some(tree) = tree.as_ref().filter(|_| blocks.get(base as usize + slot)) {
                out.extend(tree.entries().iter().map(|e| (e.key.clone(), e.ptr)));
            }
        }
        // The sweep is already in order and every tree is a sorted run.
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sha256::Digest;
    use sebdb_crypto::sig::KeyId;
    use sebdb_storage::BlockStore;

    /// Builds a block whose donate transactions carry the given amounts.
    fn block(height: u64, amounts: &[i64], tname: &str) -> Block {
        let txs = amounts
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mut t = Transaction::new(
                    height * 100 + i as u64,
                    KeyId([(a % 3) as u8; 8]),
                    tname,
                    vec![Value::str("donor"), Value::str("proj"), Value::decimal(a)],
                );
                t.tid = height * 100 + i as u64;
                t
            })
            .collect();
        Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
    }

    fn amount_index() -> LayeredIndex {
        amount_index_on("donate")
    }

    /// A continuous index on `table`'s amounts, ten buckets over
    /// `0..1000` bounded at the multiples of 100.
    fn amount_index_on(table: &str) -> LayeredIndex {
        let sample: Vec<i64> = (0..1000)
            .map(|i| Value::decimal(i).numeric_rank().unwrap())
            .collect();
        LayeredIndex::new_continuous(
            Some(table.into()),
            ColumnRef::App(2),
            EqualDepthHistogram::from_sample(sample, 10),
        )
    }

    #[test]
    fn continuous_first_level_prunes_blocks() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20, 30], "donate"));
        idx.update(&block(1, &[500, 600], "donate"));
        idx.update(&block(2, &[900, 950], "donate"));

        let pred = KeyPredicate::Range(Value::decimal(550), Value::decimal(650));
        let cand = idx.candidate_blocks(&pred);
        assert!(cand.get(1));
        assert!(!cand.get(0), "block 0 (low amounts) should be pruned");
        assert!(!cand.get(2), "block 2 (high amounts) should be pruned");
    }

    #[test]
    fn second_level_finds_exact_pointers() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20, 30, 40], "donate"));
        let ptrs = idx.search_block(
            0,
            &KeyPredicate::Range(Value::decimal(15), Value::decimal(35)),
        );
        assert_eq!(ptrs.len(), 2);
        let idxs: Vec<u32> = ptrs.iter().map(|p| p.index).collect();
        assert_eq!(idxs, vec![1, 2]);
    }

    #[test]
    fn ignores_other_tables() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20], "transfer"));
        assert!(idx.all_blocks().is_empty());
        assert!(idx
            .search_block(0, &KeyPredicate::Eq(Value::decimal(10)))
            .is_empty());
    }

    #[test]
    fn discrete_index_per_value_bitmaps() {
        let mut idx = LayeredIndex::new_discrete(None, ColumnRef::Tname);
        idx.update(&block(0, &[1], "donate"));
        idx.update(&block(1, &[1], "transfer"));
        idx.update(&block(2, &[1], "donate"));

        let cand = idx.candidate_blocks(&KeyPredicate::Eq(Value::str("donate")));
        assert_eq!(cand.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        let none = idx.candidate_blocks(&KeyPredicate::Eq(Value::str("missing")));
        assert!(none.is_empty());
    }

    #[test]
    fn discrete_sender_index_tracks_operators() {
        let mut idx = LayeredIndex::new_discrete(None, ColumnRef::SenId);
        idx.update(&block(0, &[0, 1, 2], "donate")); // senders 0,1,2
        idx.update(&block(1, &[0, 0], "donate")); // sender 0 only
        let sender0 = Value::Bytes(vec![0u8; 8]);
        let cand = idx.candidate_blocks(&KeyPredicate::Eq(sender0));
        assert_eq!(cand.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        let sender1 = Value::Bytes(vec![1u8; 8]);
        let cand = idx.candidate_blocks(&KeyPredicate::Eq(sender1));
        assert_eq!(cand.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn join_pruning_continuous() {
        let mut r = amount_index();
        let mut s = amount_index();
        r.update(&block(0, &[10, 20], "donate")); // low
        r.update(&block(1, &[955], "donate")); // high (same bucket as 950/980)
        s.update(&block(0, &[950, 980], "donate")); // high
        let all = Bitmap::from_bits(0..8);
        let (rb, sb) = r.join_blocks(&all, &s, &all);
        assert_eq!(rb, Bitmap::from_bits([1]), "the low block is pruned");
        assert_eq!(sb, Bitmap::from_bits([0]));
        let (rb, sb) = r.join_blocks(&Bitmap::from_bits([0]), &s, &all);
        assert!(rb.is_empty() && sb.is_empty(), "a low block meets nothing");
    }

    #[test]
    fn join_pruning_discrete() {
        let mut r = LayeredIndex::new_discrete(None, ColumnRef::Tname);
        let mut s = LayeredIndex::new_discrete(None, ColumnRef::Tname);
        r.update(&block(0, &[1], "donate"));
        s.update(&block(0, &[1], "transfer"));
        let all = Bitmap::from_bits([0]);
        let (rb, sb) = r.join_blocks(&all, &s, &all);
        assert!(rb.is_empty() && sb.is_empty());
        let mut s2 = LayeredIndex::new_discrete(None, ColumnRef::Tname);
        s2.update(&block(0, &[1], "donate"));
        assert_eq!(r.join_blocks(&all, &s2, &all), (all.clone(), all));
    }

    /// Algorithm 3's continuous pruning is the first level's range test:
    /// a block whose bucket ends exactly at the off-chain minimum holds
    /// that value (buckets cover `(l, u]`) and is kept.
    #[test]
    fn onoff_range_pruning() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20], "donate"));
        idx.update(&block(1, &[900, 950], "donate"));
        let range = |lo, hi| KeyPredicate::Range(Value::decimal(lo), Value::decimal(hi));
        assert_eq!(
            idx.candidate_blocks(&range(800, 999)),
            Bitmap::from_bits([1])
        );
        let rank = |v| Value::decimal(v).numeric_rank().unwrap();
        let mut edge = LayeredIndex::new_continuous(
            Some("donate".into()),
            ColumnRef::App(2),
            EqualDepthHistogram::from_bounds(vec![rank(10), rank(20)]),
        );
        edge.update(&block(0, &[10], "donate"));
        assert_eq!(
            edge.candidate_blocks(&range(10, 15)),
            Bitmap::from_bits([0])
        );
        assert!(edge.candidate_blocks(&range(11, 15)).is_empty());
    }

    /// xorshift64: the pruning property's chains and masks.
    fn below(state: &mut u64, n: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % n
    }

    /// A chain of blocks of `(relation, amount)` rows, on a temporary
    /// store (which a checkpoint may not run ahead of).
    fn rows_chain(chain: &[Vec<(&str, i64)>]) -> (Vec<Block>, BlockStore) {
        let store = BlockStore::temporary(sebdb_storage::StoreConfig::default()).unwrap();
        let mut prev = Digest::ZERO;
        let blocks = chain
            .iter()
            .enumerate()
            .map(|(h, rows)| {
                let h = h as u64;
                let txs = rows
                    .iter()
                    .enumerate()
                    .map(|(i, &(tname, a))| {
                        let values = vec![Value::str("d"), Value::str("p"), Value::decimal(a)];
                        let mut t = Transaction::new(h, KeyId([1; 8]), tname, values);
                        t.tid = h * 100 + i as u64;
                        t
                    })
                    .collect();
                let b = Block::seal(prev, h, h, txs, |_| vec![]);
                store.append(&b).unwrap();
                prev = b.header.block_hash;
                b
            })
            .collect();
        (blocks, store)
    }

    /// `join_blocks` returns each side of the block pairs a pairwise
    /// `intersect` keeps — buckets overlap (continuous; a frozen block
    /// holds every bucket), a value is shared (discrete), or both blocks
    /// are indexed (mixed) — on seeded chains, resident and with a
    /// frozen prefix, under random masks.
    #[test]
    fn join_blocks_project_the_surviving_pairs() {
        const BLOCKS: u64 = 24;
        const FROZEN: u64 = 10;
        // Amounts on and beside the histogram's bucket bounds (multiples
        // of 100 in `amount_index`), and a few distinct values.
        let amounts = [0, 99, 100, 101, 300, 450, 500, 501, 899, 900, 999];
        for seed in 1..=6u64 {
            let mut state = seed * 0x9E37_79B9;
            let chain: Vec<Vec<(&str, i64)>> = (0..BLOCKS)
                .map(|_| {
                    (0..below(&mut state, 4))
                        .map(|_| {
                            let tname = ["donate", "transfer"][below(&mut state, 2) as usize];
                            (
                                tname,
                                amounts[below(&mut state, amounts.len() as u64) as usize],
                            )
                        })
                        .collect()
                })
                .collect();
            let held = |tname: &str, b: usize| -> Vec<i64> {
                chain[b]
                    .iter()
                    .filter(|r| r.0 == tname)
                    .map(|r| r.1)
                    .collect()
            };
            let masks: Vec<Bitmap> = (0..2)
                .map(|_| {
                    let mask = (0..BLOCKS as usize).filter(|_| below(&mut state, 4) > 0);
                    mask.collect()
                })
                .collect();
            for frozen in [false, true] {
                let (blocks, store) = rows_chain(&chain);
                let kinds = |table: &str| {
                    let t = Some(table.to_string());
                    [
                        amount_index_on(table),
                        LayeredIndex::new_discrete(t, ColumnRef::App(2)),
                    ]
                };
                let mut indexes = [kinds("donate"), kinds("transfer")];
                for b in &blocks {
                    for idx in indexes.iter_mut().flatten() {
                        if frozen && b.header.height == FROZEN {
                            let cp = idx.checkpoint();
                            store.write_index_checkpoint(&cp).unwrap();
                            let reader = store.load_index_checkpoint(&cp.family).unwrap();
                            idx.adopt_frozen(reader.unwrap());
                        }
                        idx.update(b);
                    }
                }
                let [r_kinds, s_kinds] = &indexes;
                for (r, s) in r_kinds
                    .iter()
                    .flat_map(|r| s_kinds.iter().map(move |s| (r, s)))
                {
                    let hist = |idx: &LayeredIndex, tname: &str, b: usize| -> Vec<usize> {
                        let Some(h) = idx.histogram() else {
                            return Vec::new();
                        };
                        if frozen && (b as u64) < FROZEN {
                            return (0..h.bucket_count()).collect();
                        }
                        let ranks = held(tname, b).into_iter();
                        ranks
                            .map(|a| h.bucket_of(Value::decimal(a).numeric_rank().unwrap()))
                            .collect()
                    };
                    let intersect = |br: usize, bs: usize| match (r.histogram(), s.histogram()) {
                        (Some(hr), Some(hs)) => hist(r, "donate", br).iter().any(|&k| {
                            hist(s, "transfer", bs).iter().any(|&m| {
                                let ((kl, ku), (ml, mu)) =
                                    (hr.bucket_bounds(k), hs.bucket_bounds(m));
                                !(ku.zip(ml).is_some_and(|(u, l)| u <= l)
                                    || kl.zip(mu).is_some_and(|(l, u)| l >= u))
                            })
                        }),
                        (None, None) => held("donate", br)
                            .iter()
                            .any(|v| held("transfer", bs).contains(v)),
                        _ => true,
                    };
                    for (mask_r, mask_s) in [(&masks[0], &masks[1]), (&masks[1], &masks[0])] {
                        let (mut want_r, mut want_s) = (Bitmap::new(), Bitmap::new());
                        for br in mask_r
                            .iter_ones()
                            .filter(|&b| !held("donate", b).is_empty())
                        {
                            for bs in mask_s
                                .iter_ones()
                                .filter(|&b| !held("transfer", b).is_empty())
                            {
                                if intersect(br, bs) {
                                    want_r.set(br);
                                    want_s.set(bs);
                                }
                            }
                        }
                        let at = format!(
                            "seed {seed} frozen {frozen} {:?} {:?}",
                            r.histogram().is_some(),
                            s.histogram().is_some()
                        );
                        assert_eq!(r.join_blocks(mask_r, s, mask_s), (want_r, want_s), "{at}");
                    }
                }
            }
        }
    }

    /// A first-level-only index answers the first level as a full index
    /// does, holds no tree and checkpoints only its all-blocks and value
    /// bitmaps; its meta says so, frozen and reattached.
    #[test]
    fn a_first_level_index_keeps_no_tree() {
        let mut full = LayeredIndex::new_discrete(None, ColumnRef::Tname);
        let mut bare = LayeredIndex::new_first_level(None, ColumnRef::Tname);
        let rows: Vec<Vec<(&str, i64)>> = (0..6)
            .map(|h| vec![(["donate", "transfer"][h % 2], 1), ("audit", 2)])
            .collect();
        let (blocks, store) = rows_chain(&rows);
        for (h, b) in blocks.iter().enumerate() {
            let h = h as u64;
            if h == 3 {
                let cp = bare.checkpoint();
                assert!(cp
                    .entries
                    .iter()
                    .all(|(k, _)| k[0] == TAG_ALL_BLOCKS || k[0] == TAG_VALUE_BLOCKS));
                store.write_index_checkpoint(&cp).unwrap();
                let reader = store.load_index_checkpoint(&cp.family).unwrap().unwrap();
                let reattached = LayeredIndex::from_frozen(None, ColumnRef::Tname, reader);
                assert!(!reattached.keeps_trees());
                bare.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
            }
            full.update(b);
            bare.update(b);
        }
        assert!(full.keeps_trees() && !bare.keeps_trees());
        assert_eq!(bare.covered(), 6);
        assert!((0..6).all(|b| bare.tail_tree(b).is_none()));
        for name in ["donate", "transfer", "audit", "refund"] {
            let pred = KeyPredicate::Eq(Value::str(name));
            assert_eq!(
                bare.candidate_blocks(&pred),
                full.candidate_blocks(&pred),
                "{name}"
            );
        }
        assert_eq!(bare.all_blocks(), full.all_blocks());
        let cp = bare.checkpoint();
        let tags: Vec<u8> = cp.entries.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(
            tags,
            [
                TAG_ALL_BLOCKS,
                TAG_VALUE_BLOCKS,
                TAG_VALUE_BLOCKS,
                TAG_VALUE_BLOCKS
            ]
        );
        assert!(bare.memory_bytes() < full.memory_bytes());
    }

    #[test]
    fn sorted_entries_are_sorted() {
        let mut idx = amount_index();
        idx.update(&block(0, &[30, 10, 20, 40, 5], "donate"));
        idx.update(&block(1, &[20, 7], "donate"));
        let all = Bitmap::from_bits([0, 1, 7]);
        let entries = idx.sorted_entries(&all);
        assert_eq!(entries.len(), 7);
        assert!(entries.windows(2).all(|w| w[0] <= w[1]));
        // Equal values of different blocks are adjacent, chain order.
        let twenties: Vec<u64> = entries
            .iter()
            .filter(|(v, _)| *v == Value::decimal(20))
            .map(|(_, p)| p.block)
            .collect();
        assert_eq!(twenties, vec![0, 1]);
        assert_eq!(idx.sorted_entries(&Bitmap::from_bits([1])).len(), 2);
        assert!(idx.sorted_entries(&Bitmap::from_bits([7])).is_empty());
    }

    #[test]
    fn search_honours_the_mask_and_the_budget() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20, 30], "donate"));
        idx.update(&block(1, &[25, 15], "donate"));
        idx.update(&block(2, &[20], "donate"));
        let pred = KeyPredicate::Range(Value::decimal(15), Value::decimal(25));
        let at = |block, index| TxPtr { block, index };
        let all = Bitmap::from_bits([0, 1, 2]);
        // Chain order, whatever order the values come in.
        assert_eq!(
            idx.search(&pred, &all),
            vec![at(0, 1), at(1, 0), at(1, 1), at(2, 0)]
        );
        assert_eq!(
            idx.search(&pred, &Bitmap::from_bits([0, 2])),
            vec![at(0, 1), at(2, 0)]
        );
        assert_eq!(idx.search_block(1, &pred), vec![at(1, 0), at(1, 1)]);
        // A budget of two pointers stops the probe after the tree
        // that brings the third.
        let cut = idx.probe(&pred, &all, |p| p <= 2);
        assert!(!cut.complete);
        assert_eq!(cut.ptrs.len(), 3);
        let whole = idx.probe(&pred, &all, |_| true);
        assert!(whole.complete);
        assert_eq!((whole.ptrs.len(), whole.scanned), (4, 4));
        assert_eq!(idx.index_blocks_spanned(&pred), 0, "nothing is frozen");
    }

    #[test]
    fn empty_query_short_circuit() {
        // The paper's benefit (ii): empty queries are answered by the
        // first level alone.
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20], "donate"));
        let pred = KeyPredicate::Range(Value::decimal(5000), Value::decimal(6000));
        assert!(idx.candidate_blocks(&pred).is_empty());
    }

    #[test]
    fn covered_tracks_height_and_checkpoint_is_complete() {
        let mut idx = amount_index();
        idx.update(&block(0, &[10, 20], "donate"));
        idx.update(&block(1, &[500], "donate"));
        assert_eq!(idx.covered(), 2);
        let cp = idx.checkpoint();
        assert_eq!(cp.height, 2);
        assert_eq!(cp.family, family_layered(Some("donate"), "app2"));
        // Sorted, unique keys — the checkpoint writer's contract.
        assert!(cp.entries.windows(2).all(|w| w[0].0 < w[1].0));
        // all-blocks + 3 rows + 2 × (leaf list + root): no bucket
        // bitmap is checkpointed.
        assert_eq!(cp.entries.len(), 8);
    }
}
