//! On-disk paged index checkpoints (DESIGN §13).
//!
//! Every index family can freeze its state at a chain height into one
//! self-validating checkpoint file shaped like an LSM index segment:
//! sorted `(key, value)` entries chunked into ~4 KB **level-1 blocks**,
//! described by a fully-loaded top-level **fence-pointer array** (first
//! key, extent, entry count, checksum per block). Opening a checkpoint
//! touches only the fence/meta tail — O(fences), not O(entries) — and
//! level-1 blocks are loaded lazily through a bounded, sharded
//! [`IndexBlockCache`] tier, so resident memory is O(cache), not
//! O(chain).
//!
//! Durability follows the store's commit-point discipline: a checkpoint
//! is written and published by the store's one `.tmp` → rename
//! publisher (`publish.rs`), and a published file whose height runs
//! ahead of the block manifest (the real commit point) is discarded on
//! open. Any torn or stale
//! artifact heals by deletion — the family simply replays the chain
//! tail it would have replayed anyway.

use crate::blockstore::{IoStats, WriteStep};
use crate::cache::Lru;
use crate::publish::publish_atomically;
use crate::segment::{read_exact_at, Result, StorageError};
use parking_lot::{Condvar, Mutex};
use sebdb_parallel::Tracked;
use std::collections::HashSet;
use std::fs::File;
use std::io::Write;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Checkpoint file magic, versioned with the format (`SEBDBIX6` files
/// held MB-trees of 64-entry nodes, `SEBDBIX5` ones continuous bucket
/// bitmaps under `0x01`/`0x04` and `tname`'s trees, `SEBDBIX4` files
/// were checksummed with FNV-1a, `SEBDBIX3` ones had no internal
/// MB-tree digests in their `0x03` entries; no code migrates them).
pub const INDEX_MAGIC: &[u8; 8] = b"SEBDBIX7";
/// Target payload size of one level-1 index block (one disk page).
pub const INDEX_BLOCK_TARGET: usize = 4 * 1024;
/// Subdirectory of the store holding index checkpoints.
pub const INDEX_CHECKPOINT_DIR: &str = "indexcp";
/// Index-block cache capacity (total cached level-1 blocks across all
/// checkpoint files) when `StoreConfig::index_cache_blocks` is `None`.
pub const DEFAULT_INDEX_CACHE_BLOCKS: usize = 1024;
/// Cache shards (same fan-out as the segment handle cache).
const CACHE_SHARDS: usize = 8;
/// Fixed-size footer: fence_off(8) ‖ fence_count(4) ‖ meta_off(8) ‖
/// entry_count(8) ‖ height(8) ‖ tail_checksum(8) ‖ magic(8).
const FOOTER_LEN: u64 = 52;

// XXH64's five 64-bit primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// The little-endian word at `at`.
fn le64(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// One XXH64 lane step: folds a word into an accumulator.
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 with seed 0 — the checksum of level-1 blocks and of the
/// fence/meta/footer tail. Four independent 64-bit lanes consume
/// 32-byte stripes, so a 4 KB block costs ≈ 0.4 µs (`checksum_cost`)
/// where a byte-serial hash such as FNV-1a costs ≈ 5.5 µs.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let rest = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, acc) in v.iter_mut().enumerate() {
                *acc = xxh_round(*acc, le64(stripe, lane * 8));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for acc in v {
            h = (h ^ xxh_round(0, acc)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        h ^= xxh_round(0, le64(word, 0));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let mut w = [0u8; 4];
        w.copy_from_slice(&tail[..4]);
        h ^= u64::from(u32::from_le_bytes(w)).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// One frozen index family, ready to write: `entries` sorted strictly
/// ascending by key, an opaque `meta` blob the family interprets, and
/// the chain height the state covers (`[0, height)`).
#[derive(Debug, Clone)]
pub struct IndexCheckpoint {
    /// Family identity (also the on-disk file name, hex-encoded).
    pub family: Vec<u8>,
    /// Chain height covered: the frozen state reflects blocks `< height`.
    pub height: u64,
    /// Opaque family metadata, fully loaded at open.
    pub meta: Vec<u8>,
    /// Sorted `(key, value)` entries.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

/// File name of a family's checkpoint: `ix-<hex(family)>.icp`.
pub fn checkpoint_file_name(family: &[u8]) -> String {
    let mut name = String::with_capacity(4 + family.len() * 2 + 4);
    name.push_str("ix-");
    for b in family {
        let hi = b >> 4;
        let lo = b & 0xf;
        for n in [hi, lo] {
            name.push(char::from_digit(u32::from(n), 16).unwrap_or('0'));
        }
    }
    name.push_str(".icp");
    name
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> Option<u64> {
    let bytes: [u8; 8] = buf.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

fn get_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_be_bytes(bytes))
}

/// Appends `v` as a LEB128 varint: the lengths of keys and values, so
/// a run of many short entries pays one byte per length.
fn put_varint(buf: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads a [`put_varint`] length at `*at`, advancing it; `None` when
/// it is truncated or wider than the `u32` offsets can address.
fn get_varint(buf: &[u8], at: &mut usize) -> Option<usize> {
    let mut v = 0u64;
    for shift in (0..35).step_by(7) {
        let b = *buf.get(*at)?;
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return u32::try_from(v).ok().map(|v| v as usize);
        }
    }
    None
}

fn corrupt(path: &Path, what: &str) -> StorageError {
    StorageError::Corrupt(format!("index checkpoint {}: {what}", path.display()))
}

/// Serializes one entry into a level-1 block body: both lengths, then
/// the key and the value back to back.
fn encode_entry(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    put_varint(out, key.len());
    put_varint(out, value.len());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Writes `cp` into `dir` behind the `.tmp` → rename commit point.
/// `fault` is the store's injectable crash hook, consulted before every
/// write boundary (each level-1 block, the fence/footer tail, and the
/// publishing rename).
pub(crate) fn write_checkpoint(
    dir: &Path,
    cp: &IndexCheckpoint,
    sync_writes: bool,
    fault: &dyn Fn(WriteStep) -> Result<()>,
) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    publish_atomically(
        &dir.join(checkpoint_file_name(&cp.family)),
        sync_writes,
        |file| write_checkpoint_body(file, cp, fault),
        || fault(WriteStep::IndexPublish),
    )
}

/// The checkpoint file's bytes: magic, level-1 blocks, then the fence
/// table + meta + footer tail.
fn write_checkpoint_body(
    file: &mut File,
    cp: &IndexCheckpoint,
    fault: &dyn Fn(WriteStep) -> Result<()>,
) -> Result<()> {
    file.write_all(INDEX_MAGIC)?;
    let mut off = INDEX_MAGIC.len() as u64;

    // Level-1 blocks: cut at the target payload size.
    struct FenceRec {
        first_key: Vec<u8>,
        off: u64,
        len: u32,
        count: u32,
        checksum: u64,
    }
    let mut fences: Vec<FenceRec> = Vec::new();
    let mut body = Vec::with_capacity(INDEX_BLOCK_TARGET + 256);
    let mut first_key: Vec<u8> = Vec::new();
    let mut count = 0u32;
    for (i, (key, value)) in cp.entries.iter().enumerate() {
        if body.is_empty() {
            first_key = key.clone();
        }
        encode_entry(&mut body, key, value);
        count += 1;
        if body.len() >= INDEX_BLOCK_TARGET || i + 1 == cp.entries.len() {
            fault(WriteStep::IndexBlockWrite(fences.len()))?;
            file.write_all(&body)?;
            fences.push(FenceRec {
                first_key: std::mem::take(&mut first_key),
                off,
                len: body.len() as u32,
                count,
                checksum: xxh64(&body),
            });
            off += body.len() as u64;
            body.clear();
            count = 0;
        }
    }

    // Fence table + meta + footer, checksummed as one tail so open-time
    // validation is O(fences) without touching any level-1 block.
    fault(WriteStep::IndexFenceWrite)?;
    let fence_off = off;
    let mut tail = Vec::new();
    for f in &fences {
        put_u64(&mut tail, f.off);
        put_u32(&mut tail, f.len);
        put_u32(&mut tail, f.count);
        put_u64(&mut tail, f.checksum);
        put_varint(&mut tail, f.first_key.len());
        tail.extend_from_slice(&f.first_key);
    }
    let meta_off = fence_off + tail.len() as u64;
    tail.extend_from_slice(&cp.meta);
    let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
    put_u64(&mut footer, fence_off);
    put_u32(&mut footer, fences.len() as u32);
    put_u64(&mut footer, meta_off);
    put_u64(&mut footer, cp.entries.len() as u64);
    put_u64(&mut footer, cp.height);
    tail.extend_from_slice(&footer);
    let checksum = xxh64(&tail);
    put_u64(&mut tail, checksum);
    tail.extend_from_slice(INDEX_MAGIC);
    file.write_all(&tail)?;
    Ok(())
}

/// One fence-pointer record: the fully-loaded top level of a checkpoint.
#[derive(Debug, Clone)]
struct Fence {
    first_key: Vec<u8>,
    off: u64,
    len: u32,
    count: u32,
    checksum: u64,
}

/// One lazily-loaded level-1 index block: the bytes as read from the
/// file plus a table of where each entry's key and value sit in them.
#[derive(Debug)]
pub struct IndexBlock {
    buf: Vec<u8>,
    /// Per entry `[key start, value start, value end)` into `buf`.
    slots: Vec<[u32; 3]>,
}

impl IndexBlock {
    /// Indexes a level-1 block body of `count` entries.
    fn parse(path: &Path, buf: Vec<u8>, count: usize) -> Result<IndexBlock> {
        let mut slots = Vec::with_capacity(count);
        let mut at = 0usize;
        for _ in 0..count {
            let lens = get_varint(&buf, &mut at).zip(get_varint(&buf, &mut at));
            let extent = lens.and_then(|(klen, vlen)| {
                let value_at = at.checked_add(klen)?;
                let end = value_at.checked_add(vlen)?;
                // A block is at most `u32::MAX` long (its fence says
                // so), so offsets inside it fit the table.
                (end <= buf.len()).then_some((value_at, end))
            });
            let (value_at, end) = extent.ok_or_else(|| corrupt(path, "truncated level-1 entry"))?;
            slots.push([at as u32, value_at as u32, end as u32]);
            at = end;
        }
        if at != buf.len() {
            return Err(corrupt(path, "level-1 block has trailing bytes"));
        }
        Ok(IndexBlock { buf, slots })
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let [k, v, _] = self.slots[i];
        &self.buf[k as usize..v as usize]
    }

    fn value(&self, i: usize) -> &[u8] {
        let [_, v, end] = self.slots[i];
        &self.buf[v as usize..end as usize]
    }

    /// The value stored under exactly `key`.
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let at = self.partition_point(|k| k < key);
        (at < self.len() && self.key(at) == key).then(|| self.value(at))
    }

    /// How many leading entries have a key `before` holds for (it must
    /// hold for a prefix of the key-sorted entries).
    fn partition_point(&self, before: impl Fn(&[u8]) -> bool) -> usize {
        self.slots
            .partition_point(|&[k, v, _]| before(&self.buf[k as usize..v as usize]))
    }

    /// Resident size in bytes: the buffer and the offset table.
    pub fn byte_len(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.buf.capacity()
            + self.slots.capacity() * std::mem::size_of::<[u32; 3]>()
    }
}

/// Bounded, sharded cache of level-1 index blocks, shared by every
/// checkpoint reader of one store. Loads are single-flight: concurrent
/// readers of the same cold block wait on a condvar while one loader
/// performs the pread, so each resident block is read from disk exactly
/// once (the same open-once discipline as the segment handle cache).
pub struct IndexBlockCache {
    shards: Vec<(Mutex<CacheShard>, Condvar)>,
    /// The bound each shard enforces (`usize::MAX` = unbounded).
    per_shard: usize,
    stats: Arc<IoStats>,
    next_file_id: AtomicU64,
}

/// One shard: resident blocks keyed by `(file, block_no)` in the
/// store's one LRU structure (each block charged 1 against the shard's
/// block budget) and the in-flight single-flight keys, each under a
/// zero-cost [`Tracked`] marker — the model checker's index-cache suite
/// wraps the same state in its race-detecting twin (DESIGN.md §14).
struct CacheShard {
    resident: Tracked<Lru<(u64, u32), Arc<IndexBlock>>>,
    inflight: Tracked<HashSet<(u64, u32)>>,
}

impl IndexBlockCache {
    /// A cache of about `capacity` blocks (0 = unbounded), reporting
    /// hits/misses into `stats`. Each shard holds `capacity / 8` blocks,
    /// at least one, so the bound rounds to whole shards.
    pub fn new(capacity: usize, stats: Arc<IoStats>) -> Arc<IndexBlockCache> {
        let per_shard = match capacity {
            0 => usize::MAX,
            n => std::cmp::max(1, n / CACHE_SHARDS),
        };
        Arc::new(IndexBlockCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    let shard = CacheShard {
                        resident: Tracked::new(Lru::new(per_shard)),
                        inflight: Tracked::new(HashSet::new()),
                    };
                    (Mutex::new(shard), Condvar::new())
                })
                .collect(),
            per_shard,
            stats,
            next_file_id: AtomicU64::new(1),
        })
    }

    /// The most blocks the shards together hold (0 = unbounded): the
    /// configured capacity rounded to whole shards.
    pub fn capacity_blocks(&self) -> usize {
        match self.per_shard {
            usize::MAX => 0,
            n => n * CACHE_SHARDS,
        }
    }

    fn register_file(&self) -> u64 {
        self.next_file_id.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_of(key: (u64, u32)) -> usize {
        // Fibonacci hash: raw modulo would stripe sequential-ish keys.
        let packed = (key.0 << 32) ^ u64::from(key.1);
        (packed.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % CACHE_SHARDS
    }

    /// Returns the cached block or loads it via `load`, single-flight.
    pub fn get_or_load(
        &self,
        file_id: u64,
        block_no: u32,
        load: &dyn Fn() -> Result<IndexBlock>,
    ) -> Result<Arc<IndexBlock>> {
        let key = (file_id, block_no);
        let (lock, cv) = &self.shards[Self::shard_of(key)];
        let mut shard = lock.lock();
        loop {
            if let Some(block) = shard.resident.with_mut(|r| r.get(&key).cloned()) {
                drop(shard);
                self.stats.index_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(block);
            }
            if shard.inflight.with(|i| i.contains(&key)) {
                // Another reader is loading this block: wait rather
                // than issuing a duplicate pread.
                cv.wait(&mut shard);
                continue;
            }
            shard.inflight.with_mut(|i| i.insert(key));
            break;
        }
        drop(shard);

        // The pread + parse happen outside the shard lock.
        let loaded = load().map(Arc::new);

        let mut shard = lock.lock();
        shard.inflight.with_mut(|i| i.remove(&key));
        if let Ok(block) = &loaded {
            shard
                .resident
                .with_mut(|r| r.put(key, Arc::clone(block), 1));
            self.stats
                .index_cache_misses
                .fetch_add(1, Ordering::Relaxed);
        }
        // Waiters must always be woken — on failure they retry the load
        // themselves instead of sleeping forever.
        cv.notify_all();
        drop(shard);
        loaded
    }

    /// Drops every cached block belonging to `file_id`: once its reader
    /// is gone nothing can ask for them again, and they must not hold
    /// capacity against the live files.
    fn invalidate_file(&self, file_id: u64) {
        for (lock, _) in &self.shards {
            lock.lock()
                .resident
                .with_mut(|r| r.retain(|(f, _)| *f != file_id));
        }
    }

    /// Number of currently cached blocks.
    pub fn resident_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|(l, _)| l.lock().resident.with(Lru::len))
            .sum()
    }

    /// Approximate bytes held by cached blocks.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|(l, _)| {
                l.lock()
                    .resident
                    .with(|r| r.values().map(|b| b.byte_len()).sum::<usize>())
            })
            .sum()
    }
}

/// What a scan calls with each `(key, value)` it visits, in key order;
/// `Break` ends the scan before the next entry (and the next block).
pub type EntryVisitor<'a> = dyn FnMut(&[u8], &[u8]) -> ControlFlow<()> + 'a;

/// A reader over one published checkpoint file: the fence array and
/// meta blob are resident; level-1 blocks are served through the
/// store's [`IndexBlockCache`].
pub struct PagedIndexReader {
    file: File,
    path: PathBuf,
    file_id: u64,
    fences: Vec<Fence>,
    /// One bit per level-1 block, set when a query reads it (relaxed:
    /// a hint for [`Self::warm_from`] that guards no other data).
    touched: Vec<AtomicU64>,
    meta: Vec<u8>,
    height: u64,
    entry_count: u64,
    cache: Arc<IndexBlockCache>,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for PagedIndexReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedIndexReader")
            .field("path", &self.path)
            .field("height", &self.height)
            .field("fences", &self.fences.len())
            .field("entries", &self.entry_count)
            .finish()
    }
}

impl PagedIndexReader {
    /// Opens and validates a checkpoint: footer magic, tail checksum,
    /// and fence extents (monotone, within the data region). O(fences);
    /// no level-1 block is read.
    pub(crate) fn open(
        path: &Path,
        cache: Arc<IndexBlockCache>,
        stats: Arc<IoStats>,
    ) -> Result<PagedIndexReader> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = INDEX_MAGIC.len() as u64;
        if file_len < header + FOOTER_LEN {
            return Err(corrupt(path, "file too short"));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        read_exact_at(&file, &mut footer, file_len - FOOTER_LEN)?;
        if &footer[44..52] != INDEX_MAGIC {
            return Err(corrupt(path, "bad footer magic"));
        }
        let fence_off = get_u64(&footer, 0).ok_or_else(|| corrupt(path, "footer"))?;
        let fence_count = get_u32(&footer, 8).ok_or_else(|| corrupt(path, "footer"))?;
        let meta_off = get_u64(&footer, 12).ok_or_else(|| corrupt(path, "footer"))?;
        let entry_count = get_u64(&footer, 20).ok_or_else(|| corrupt(path, "footer"))?;
        let height = get_u64(&footer, 28).ok_or_else(|| corrupt(path, "footer"))?;
        let tail_checksum = get_u64(&footer, 36).ok_or_else(|| corrupt(path, "footer"))?;
        if fence_off < header || fence_off > meta_off || meta_off > file_len - FOOTER_LEN {
            return Err(corrupt(path, "footer offsets out of range"));
        }
        // The checksummed tail spans [fence_off, checksum position).
        let tail_len = (file_len - FOOTER_LEN + 36 - fence_off) as usize;
        let mut tail = vec![0u8; tail_len];
        read_exact_at(&file, &mut tail, fence_off)?;
        if xxh64(&tail) != tail_checksum {
            return Err(corrupt(path, "tail checksum mismatch"));
        }
        let mut header_magic = [0u8; 8];
        read_exact_at(&file, &mut header_magic, 0)?;
        if &header_magic != INDEX_MAGIC {
            return Err(corrupt(path, "bad header magic"));
        }

        // Parse fences out of the validated tail.
        let mut fences = Vec::with_capacity(fence_count as usize);
        let mut at = 0usize;
        let mut start = 0u64;
        let mut prev_end = header;
        for _ in 0..fence_count {
            let off = get_u64(&tail, at).ok_or_else(|| corrupt(path, "truncated fence"))?;
            let len = get_u32(&tail, at + 8).ok_or_else(|| corrupt(path, "truncated fence"))?;
            let count = get_u32(&tail, at + 12).ok_or_else(|| corrupt(path, "truncated fence"))?;
            let checksum =
                get_u64(&tail, at + 16).ok_or_else(|| corrupt(path, "truncated fence"))?;
            at += 24;
            let klen =
                get_varint(&tail, &mut at).ok_or_else(|| corrupt(path, "truncated fence"))?;
            let first_key = tail
                .get(at..at + klen)
                .ok_or_else(|| corrupt(path, "truncated fence key"))?
                .to_vec();
            at += klen;
            // invariant-style validation: extents tile the data region
            // in order and never reach into the fence table.
            if off != prev_end || u64::from(len) == 0 || off + u64::from(len) > fence_off {
                return Err(corrupt(path, "fence extent out of range"));
            }
            prev_end = off + u64::from(len);
            fences.push(Fence {
                first_key,
                off,
                len,
                count,
                checksum,
            });
            start += u64::from(count);
        }
        if start != entry_count {
            return Err(corrupt(path, "fence counts disagree with entry count"));
        }
        // Within the tail, meta spans [meta_off - fence_off, tail end
        // minus the footer's 36 checksummed bytes).
        let meta_at = (meta_off - fence_off) as usize;
        let meta = tail
            .get(meta_at..tail_len - 36)
            .ok_or_else(|| corrupt(path, "meta region out of range"))?
            .to_vec();
        let file_id = cache.register_file();
        let touched = (0..fences.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        Ok(PagedIndexReader {
            file,
            path: path.to_path_buf(),
            file_id,
            fences,
            touched,
            meta,
            height,
            entry_count,
            cache,
            stats,
        })
    }

    /// The chain height this checkpoint covers (blocks `< height`).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The family's opaque metadata blob.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Total entries across all level-1 blocks.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Number of level-1 blocks (== fences).
    pub fn fence_count(&self) -> usize {
        self.fences.len()
    }

    /// Resident bytes of the always-loaded top level (fences + meta).
    pub fn memory_bytes(&self) -> usize {
        self.meta.len()
            + self.touched.len() * 8
            + self
                .fences
                .iter()
                .map(|f| f.first_key.len() + 40)
                .sum::<usize>()
    }

    /// Reads level-1 block `i` from the file, past the cache: its
    /// structure always checked, its checksum when `verify` is set.
    fn read(&self, i: usize, verify: bool) -> Result<IndexBlock> {
        let fence = self
            .fences
            .get(i)
            .ok_or_else(|| corrupt(&self.path, "fence index out of range"))?;
        let mut buf = vec![0u8; fence.len as usize];
        read_exact_at(&self.file, &mut buf, fence.off)?;
        if verify && xxh64(&buf) != fence.checksum {
            return Err(corrupt(&self.path, "level-1 block checksum mismatch"));
        }
        self.stats
            .bytes_read
            .fetch_add(u64::from(fence.len), Ordering::Relaxed);
        IndexBlock::parse(&self.path, buf, fence.count as usize)
    }

    /// Whether a query has read level-1 block `i` since the reader opened.
    fn touched(&self, i: usize) -> bool {
        self.touched[i / 64].load(Ordering::Relaxed) & (1 << (i % 64)) != 0
    }

    /// Loads level-1 block `i` through the cache (checksum-verified).
    fn load(&self, i: usize) -> Result<Arc<IndexBlock>> {
        self.cache
            .get_or_load(self.file_id, i as u32, &|| self.read(i, true))
    }

    /// [`Self::load`] for a query, which marks the block touched.
    fn block(&self, i: usize) -> Result<Arc<IndexBlock>> {
        if !self.touched(i) {
            self.touched[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
        }
        self.load(i)
    }

    /// Caches the blocks of this checkpoint over the key ranges queries
    /// touched in `old`, the one it replaces. A re-freeze rewrites the
    /// whole file under a new id, so without this the cache goes cold
    /// at every checkpoint and what it holds depends on how many queries
    /// ran since. A warmed block is not touched until a query reads it,
    /// so a one-off scan is carried one checkpoint, not on. Returns how
    /// many blocks it loaded.
    pub fn warm_from(&self, old: &PagedIndexReader) -> Result<usize> {
        let mut hot = vec![false; self.fences.len()];
        for (i, fence) in old.fences.iter().enumerate() {
            if !old.touched(i) {
                continue;
            }
            let start = self.fence_for(&fence.first_key).unwrap_or(0);
            let end = old.fences.get(i + 1).map_or(hot.len(), |next| {
                self.fences
                    .partition_point(|f| f.first_key < next.first_key)
            });
            hot[start..end.max(start)].fill(true);
        }
        let hot: Vec<usize> = (0..hot.len()).filter(|&j| hot[j]).collect();
        for &j in &hot {
            self.load(j)?;
        }
        Ok(hot.len())
    }

    /// Index of the fence whose block may contain `key` (the last fence
    /// with `first_key <= key`), or `None` when `key` precedes all.
    fn fence_for(&self, key: &[u8]) -> Option<usize> {
        let n = self
            .fences
            .partition_point(|f| f.first_key.as_slice() <= key);
        n.checked_sub(1)
    }

    /// Exact-key lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Some(i) = self.fence_for(key) else {
            return Ok(None);
        };
        Ok(self.block(i)?.get(key).map(<[u8]>::to_vec))
    }

    /// Exact-key lookup read straight from the file, past the cache and
    /// the block checksum, for an entry the caller authenticates itself
    /// (a frozen MB-tree leaf list, against the block's stored root).
    /// The root check is the stronger one, and it covers only what the
    /// proof reveals, so a rotted page the proof does not reveal does
    /// not fail the query; the checksum would, over the whole block. A
    /// proof's 5 KB list per visited block stays out of the cache.
    pub fn get_direct(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Some(i) = self.fence_for(key) else {
            return Ok(None);
        };
        Ok(self.read(i, false)?.get(key).map(<[u8]>::to_vec))
    }

    /// Visits every entry in key order, each block read from the file
    /// (checksum-verified) past the cache: a checkpoint merge reads its
    /// predecessor whole, once, and must neither evict the blocks
    /// queries share nor look like a query to [`Self::warm_from`].
    pub fn sweep(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<()> {
        for i in 0..self.fences.len() {
            let block = self.read(i, true)?;
            for e in 0..block.len() {
                f(block.key(e), block.value(e));
            }
        }
        Ok(())
    }

    /// Greatest entry with key ≤ `key`.
    pub fn floor(&self, key: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let Some(i) = self.fence_for(key) else {
            return Ok(None);
        };
        let block = self.block(i)?;
        let n = block.partition_point(|k| k <= key);
        // The fence guarantees first_key <= key, so n >= 1 whenever the
        // block is non-empty (fences never describe empty blocks).
        Ok(n.checked_sub(1)
            .map(|p| (block.key(p).to_vec(), block.value(p).to_vec())))
    }

    /// Visits, in key order, every entry from the first with `lo ≤ key`
    /// up to the first for which `past` holds (`past` must stay true
    /// from there on) or at which the visitor breaks. Starts with one
    /// binary search of the fences and one of the first block.
    fn scan(
        &self,
        lo: &[u8],
        past: &dyn Fn(&[u8]) -> bool,
        f: &mut EntryVisitor<'_>,
    ) -> Result<()> {
        let start = self.fence_for(lo).unwrap_or(0);
        for (i, fence) in self.fences.iter().enumerate().skip(start) {
            let first = fence.first_key.as_slice();
            if first >= lo && past(first) {
                break;
            }
            let block = self.block(i)?;
            let from = match i == start {
                true => block.partition_point(|k| k < lo),
                false => 0,
            };
            for e in from..block.len() {
                let key = block.key(e);
                if past(key) || f(key, block.value(e)).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Visits every entry with `lo ≤ key` and (when `hi` is set)
    /// `key ≤ hi`, in key order, until the visitor breaks.
    pub fn scan_range(&self, lo: &[u8], hi: Option<&[u8]>, f: &mut EntryVisitor<'_>) -> Result<()> {
        self.scan(lo, &|key| hi.is_some_and(|hi| key > hi), f)
    }

    /// Visits every entry whose key starts with `prefix`, in key order,
    /// until the visitor breaks.
    pub fn scan_prefix(&self, prefix: &[u8], f: &mut EntryVisitor<'_>) -> Result<()> {
        self.scan(prefix, &|key| !key.starts_with(prefix), f)
    }

    /// How many level-1 blocks [`Self::scan_range`] over `[lo, hi]`
    /// would read — from the fences alone, no I/O. What a planner
    /// charges a range probe before running it.
    pub fn blocks_spanned(&self, lo: &[u8], hi: &[u8]) -> usize {
        let start = self.fence_for(lo).unwrap_or(0);
        let end = self
            .fences
            .partition_point(|f| f.first_key.as_slice() <= hi);
        end.saturating_sub(start)
    }
}

/// A replaced or closed checkpoint's blocks leave the cache with its
/// reader: file ids are never reused, so nothing could hit them again.
impl Drop for PagedIndexReader {
    fn drop(&mut self) {
        self.cache.invalidate_file(self.file_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sebdb-ixseg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn no_fault(_: WriteStep) -> Result<()> {
        Ok(())
    }

    fn cp(n: u64) -> IndexCheckpoint {
        IndexCheckpoint {
            family: b"test-family".to_vec(),
            height: n,
            meta: b"meta-blob".to_vec(),
            entries: (0..n)
                .map(|i| {
                    (
                        i.to_be_bytes().to_vec(),
                        format!("value-{i}").into_bytes().repeat(4),
                    )
                })
                .collect(),
        }
    }

    fn open(dir: &Path, family: &[u8], capacity: usize) -> Result<PagedIndexReader> {
        let stats = Arc::new(IoStats::default());
        let cache = IndexBlockCache::new(capacity, Arc::clone(&stats));
        PagedIndexReader::open(&dir.join(checkpoint_file_name(family)), cache, stats)
    }

    #[test]
    fn roundtrip_get_floor_scan() {
        let dir = tmpdir("roundtrip");
        let cp = cp(500);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let r = open(&dir, &cp.family, 0).unwrap();
        assert_eq!(r.height(), 500);
        assert_eq!(r.entry_count(), 500);
        assert_eq!(r.meta(), b"meta-blob");
        assert!(r.fence_count() > 1, "500 entries must span several blocks");
        for i in [0u64, 1, 63, 64, 255, 499] {
            assert_eq!(
                r.get(&i.to_be_bytes()).unwrap().unwrap(),
                cp.entries[i as usize].1,
                "entry {i}"
            );
        }
        assert!(r.get(&500u64.to_be_bytes()).unwrap().is_none());
        // floor: exact and between-keys probes.
        let (k, _) = r.floor(&42u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(k, 42u64.to_be_bytes().to_vec());
        // scan_range honours both bounds.
        let mut seen = Vec::new();
        r.scan_range(
            &100u64.to_be_bytes(),
            Some(&110u64.to_be_bytes()),
            &mut |k, _| {
                seen.push(u64::from_be_bytes(k.try_into().unwrap()));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert_eq!(seen, (100..=110).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_prefix_visits_only_prefix() {
        let dir = tmpdir("prefix");
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for tag in [1u8, 2, 3] {
            for i in 0..200u64 {
                let mut k = vec![tag];
                k.extend_from_slice(&i.to_be_bytes());
                entries.push((k, vec![tag; 8]));
            }
        }
        entries.sort();
        let cp = IndexCheckpoint {
            family: b"prefix".to_vec(),
            height: 1,
            meta: Vec::new(),
            entries,
        };
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let r = open(&dir, b"prefix", 0).unwrap();
        let mut n = 0usize;
        r.scan_prefix(&[2u8], &mut |k, v| {
            assert_eq!(k[0], 2);
            assert_eq!(v, &[2u8; 8]);
            n += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(n, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scan seeks its start (it does not walk to it), reads only the
    /// blocks its range spans — which the fences alone predict — and
    /// stops where the visitor says.
    #[test]
    fn scans_seek_stop_early_and_span_what_the_fences_say() {
        let dir = tmpdir("seek");
        let cp = cp(2000);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let stats = Arc::new(IoStats::default());
        let cache = IndexBlockCache::new(0, Arc::clone(&stats));
        let path = dir.join(checkpoint_file_name(&cp.family));
        let r = PagedIndexReader::open(&path, Arc::clone(&cache), Arc::clone(&stats)).unwrap();
        let key = |i: u64| i.to_be_bytes();
        let misses = || stats.index_cache_misses.load(Ordering::Relaxed);

        // Entry 1 500 sits deep in the file: one block is read for it.
        let mut seen = Vec::new();
        r.scan_range(&key(1500), Some(&key(1502)), &mut |k, _| {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(seen, vec![1500, 1501, 1502]);
        assert_eq!(r.blocks_spanned(&key(1500), &key(1502)), 1);
        assert_eq!(misses(), 1);
        // The one resident block is charged its bytes and its offset
        // table (~90 entries of ~45 B fill a 4 KB block).
        assert!(cache.resident_bytes() >= INDEX_BLOCK_TARGET + 80 * 12);

        // An open-ended scan the visitor breaks reads no further block.
        let mut taken = 0;
        r.scan_range(&key(1500), None, &mut |_, _| {
            taken += 1;
            match taken {
                3 => ControlFlow::Break(()),
                _ => ControlFlow::Continue(()),
            }
        })
        .unwrap();
        assert_eq!((taken, misses()), (3, 1));

        // A range over several blocks reads exactly the ones it spans.
        stats.reset();
        let spanned = r.blocks_spanned(&key(100), &key(900));
        assert!(spanned > 2 && spanned < r.fence_count());
        r.scan_range(&key(100), Some(&key(900)), &mut |_, _| {
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(misses(), spanned as u64);
        assert_eq!(r.blocks_spanned(&key(5000), &key(6000)), 1);
        assert_eq!(r.blocks_spanned(&key(900), &key(100)), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_evicts_and_counts() {
        let dir = tmpdir("cache");
        let cp = cp(2000);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let stats = Arc::new(IoStats::default());
        let cache = IndexBlockCache::new(8, Arc::clone(&stats));
        let r = PagedIndexReader::open(
            &dir.join(checkpoint_file_name(&cp.family)),
            Arc::clone(&cache),
            Arc::clone(&stats),
        )
        .unwrap();
        assert!(r.fence_count() > 16);
        for i in 0..2000u64 {
            assert!(r.get(&i.to_be_bytes()).unwrap().is_some());
        }
        assert!(cache.resident_blocks() <= 8);
        assert!(cache.resident_bytes() > 0);
        let hits = stats.index_cache_hits.load(Ordering::Relaxed);
        let misses = stats.index_cache_misses.load(Ordering::Relaxed);
        assert!(hits > 0, "sequential probes must hit the cached block");
        assert!(
            misses >= r.fence_count() as u64,
            "every block is cold at least once"
        );
        // Warm re-read of one block: pure hits.
        stats.reset();
        for i in 0..4u64 {
            let _ = r.get(&i.to_be_bytes()).unwrap();
        }
        assert_eq!(stats.index_cache_misses.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_dropped_reader_takes_its_blocks_out_of_the_cache() {
        let dir = tmpdir("stranded");
        let cp = cp(2000);
        let path = dir.join(checkpoint_file_name(&cp.family));
        let stats = Arc::new(IoStats::default());
        // Unbounded: only invalidation can ever free a block.
        let cache = IndexBlockCache::new(0, Arc::clone(&stats));
        let read_some = |r: &PagedIndexReader| {
            for i in (0..2000u64).step_by(100) {
                assert!(r.get(&i.to_be_bytes()).unwrap().is_some());
            }
        };
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let r = PagedIndexReader::open(&path, Arc::clone(&cache), Arc::clone(&stats)).unwrap();
        read_some(&r);
        let one_file = cache.resident_blocks();
        assert!(one_file > 1, "the probes must span several blocks");
        drop(r);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        // Re-checkpointing (what a cadence tick does: publish, re-open,
        // let go of the superseded reader) does not grow residency.
        let mut live = PagedIndexReader::open(&path, Arc::clone(&cache), Arc::clone(&stats));
        for _ in 0..2 {
            read_some(live.as_ref().unwrap());
            write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
            live = PagedIndexReader::open(&path, Arc::clone(&cache), Arc::clone(&stats));
            read_some(live.as_ref().unwrap());
            assert_eq!(cache.resident_blocks(), one_file);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A successor checkpoint warms the blocks over what queries read in
    /// its predecessor — not what sweeps, direct reads or an earlier
    /// warm-up loaded — so a re-freeze neither goes cold nor carries a
    /// one-off read forever.
    #[test]
    fn warming_carries_what_queries_touched_and_no_further() {
        let (old_dir, new_dir) = (tmpdir("warm-old"), tmpdir("warm-new"));
        let (old_cp, new_cp) = (cp(2000), cp(3000));
        write_checkpoint(&old_dir, &old_cp, false, &no_fault).unwrap();
        write_checkpoint(&new_dir, &new_cp, false, &no_fault).unwrap();
        let stats = Arc::new(IoStats::default());
        let cache = IndexBlockCache::new(0, Arc::clone(&stats));
        let reopen = |dir: &Path| {
            let path = dir.join(checkpoint_file_name(&old_cp.family));
            PagedIndexReader::open(&path, Arc::clone(&cache), Arc::clone(&stats)).unwrap()
        };
        let key = |i: u64| i.to_be_bytes();

        // Sweeps and direct reads leave the cache and the touch map alone.
        let old = reopen(&old_dir);
        let mut swept = 0;
        old.sweep(&mut |_, _| swept += 1).unwrap();
        assert_eq!(swept, 2000);
        assert_eq!(
            old.get_direct(&key(7)).unwrap(),
            Some(old_cp.entries[7].1.clone())
        );
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(reopen(&new_dir).warm_from(&old).unwrap(), 0);

        // Two queries in two blocks: the successor warms those two (the
        // shared prefix cuts into the same blocks) and serves them hot.
        for i in [100, 1500] {
            old.get(&key(i)).unwrap().unwrap();
        }
        let new = reopen(&new_dir);
        assert_eq!(new.warm_from(&old).unwrap(), 2);
        stats.reset();
        assert!(new.get(&key(100)).unwrap().is_some());
        assert_eq!(stats.index_cache_misses.load(Ordering::Relaxed), 0);

        // Warmed but never queried: not carried into the next successor.
        let newer = reopen(&new_dir);
        let unqueried = reopen(&new_dir);
        assert_eq!(unqueried.warm_from(&newer).unwrap(), 0);
        assert_eq!(newer.warm_from(&new).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&old_dir);
        let _ = std::fs::remove_dir_all(&new_dir);
    }

    /// Direct reads skip the block checksum (their caller authenticates
    /// the bytes); cached reads and sweeps still fail closed on it.
    #[test]
    fn only_direct_reads_skip_the_checksum() {
        let dir = tmpdir("direct");
        let cp = cp(300);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let path = dir.join(checkpoint_file_name(&cp.family));
        let mut bytes = std::fs::read(&path).unwrap();
        let value = &cp.entries[150].1;
        let at = bytes.windows(value.len()).position(|w| w == value).unwrap();
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let r = open(&dir, &cp.family, 0).unwrap();
        let key = 150u64.to_be_bytes();
        let read = r.get_direct(&key).unwrap().unwrap();
        assert_eq!((read.len(), read[1..] == value[1..]), (value.len(), true));
        assert_ne!(read, *value);
        assert!(r.get(&key).is_err());
        assert!(r.sweep(&mut |_, _| {}).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// XXH64 as its specification states it, word by word off explicit
    /// offsets: the reference that [`xxh64`]'s stripes and tails match.
    fn xxh64_by_the_spec(input: &[u8]) -> u64 {
        let word = |p: usize| u64::from_le_bytes(input[p..p + 8].try_into().unwrap());
        let half = |p: usize| u64::from(u32::from_le_bytes(input[p..p + 4].try_into().unwrap()));
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let (len, mut p) = (input.len(), 0);
        let mut h = if len >= 32 {
            let (mut v1, mut v2) = (P1.wrapping_add(P2), P2);
            let (mut v3, mut v4) = (0u64, 0u64.wrapping_sub(P1));
            while p + 32 <= len {
                v1 = round(v1, word(p));
                v2 = round(v2, word(p + 8));
                v3 = round(v3, word(p + 16));
                v4 = round(v4, word(p + 24));
                p += 32;
            }
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in [v1, v2, v3, v4] {
                h ^= round(0, v);
                h = h.wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(len as u64);
        while p + 8 <= len {
            h ^= round(0, word(p));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            p += 8;
        }
        if p + 4 <= len {
            h ^= half(p).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            p += 4;
        }
        while p < len {
            h ^= u64::from(input[p]).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            p += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// The published XXH64 (seed 0) vectors: the empty and 3-byte ones
    /// take the short-input path, the 39-byte one a stripe and then the
    /// 8-, 4- and 1-byte tail steps.
    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Every length 0 … 100 — below, at and past one stripe, with every
    /// mix of 8-, 4- and 1-byte tail steps — against the spec's form.
    #[test]
    fn xxh64_takes_every_tail_path_as_the_spec_does() {
        let bytes: Vec<u8> = (0..100u32)
            .map(|i| (i.wrapping_mul(167) >> 2) as u8)
            .collect();
        let mut seen = HashSet::new();
        for len in 0..=bytes.len() {
            let h = xxh64(&bytes[..len]);
            assert_eq!(h, xxh64_by_the_spec(&bytes[..len]), "length {len}");
            assert!(seen.insert(h), "length {len} collides with a prefix");
        }
    }

    /// All 32 768 single-bit flips of a 4 KB body change its checksum.
    #[test]
    fn every_single_bit_flip_of_a_block_changes_its_checksum() {
        let mut body: Vec<u8> = (0..INDEX_BLOCK_TARGET as u64)
            .map(|i| (i.wrapping_mul(P1) >> 56) as u8)
            .collect();
        let want = xxh64(&body);
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&body), want, "flip of bit {bit}");
            body[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// One flipped bit in any level-1 block fails every checked read of
    /// that block (a query's `get` and a merge's `sweep`); one flipped
    /// byte anywhere in the fence/meta/footer tail fails `open`.
    #[test]
    fn a_flipped_bit_in_any_block_or_the_tail_is_caught() {
        let dir = tmpdir("flips");
        let cp = cp(600);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let path = dir.join(checkpoint_file_name(&cp.family));
        let clean = std::fs::read(&path).unwrap();
        let fences = open(&dir, &cp.family, 0).unwrap().fences.clone();
        assert!(fences.len() > 4);
        let mismatch = |e: StorageError| match e {
            StorageError::Corrupt(m) => m.ends_with("level-1 block checksum mismatch"),
            _ => false,
        };
        for (i, fence) in fences.iter().enumerate() {
            let mut bytes = clean.clone();
            let bit = i * 977 % (fence.len as usize * 8);
            bytes[fence.off as usize + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            let r = open(&dir, &cp.family, 0).unwrap();
            assert!(mismatch(r.get(&fence.first_key).unwrap_err()), "block {i}");
            assert!(mismatch(r.sweep(&mut |_, _| {}).unwrap_err()), "block {i}");
        }
        let fence_end = fences
            .last()
            .map_or(0, |f| (f.off + u64::from(f.len)) as usize);
        for at in fence_end..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << (at % 8);
            std::fs::write(&path, &bytes).unwrap();
            assert!(open(&dir, &cp.family, 0).is_err(), "tail byte {at}");
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(open(&dir, &cp.family, 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The capacity a cache reports is the bound its shards enforce:
    /// the configured one rounded to whole shards, 0 when unbounded.
    #[test]
    fn the_reported_capacity_is_the_enforced_one() {
        let dir = tmpdir("capacity");
        let cp = cp(4000);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        for (configured, reported) in [(0, 0), (3, 8), (8, 8), (12, 8), (1024, 1024)] {
            let stats = Arc::new(IoStats::default());
            let cache = IndexBlockCache::new(configured, Arc::clone(&stats));
            assert_eq!(cache.capacity_blocks(), reported, "capacity {configured}");
            let path = dir.join(checkpoint_file_name(&cp.family));
            let r = PagedIndexReader::open(&path, Arc::clone(&cache), stats).unwrap();
            for i in 0..4000u64 {
                r.get(&i.to_be_bytes()).unwrap().unwrap();
            }
            let held = cache.resident_blocks();
            match reported {
                0 => assert_eq!(held, r.fence_count()),
                n => assert_eq!(held, n.min(r.fence_count()), "capacity {configured}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checksum cost of one 4 KB level-1 block.
    ///
    /// ```sh
    /// cargo test --release -p sebdb-storage checksum_cost -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "timing; run in release with --nocapture"]
    fn checksum_cost() {
        const HASHES: u32 = 20_000;
        const ROUNDS: usize = 20;
        let body: Vec<u8> = (0..INDEX_BLOCK_TARGET as u64)
            .map(|i| (i.wrapping_mul(P1) >> 56) as u8)
            .collect();
        let mut best = f64::MAX;
        for _ in 0..ROUNDS {
            let start = std::time::Instant::now();
            for _ in 0..HASHES {
                std::hint::black_box(xxh64(std::hint::black_box(&body)));
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(HASHES));
        }
        println!("checksum_cost xxh64 {best:7.1} ns per 4 KiB block (best of {ROUNDS})");
    }

    #[test]
    fn torn_tail_is_rejected() {
        let dir = tmpdir("torn");
        let cp = cp(300);
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let path = dir.join(checkpoint_file_name(&cp.family));
        let bytes = std::fs::read(&path).unwrap();
        // Truncate mid-fence-table: the footer (and its magic) vanish.
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        assert!(open(&dir, &cp.family, 0).is_err());
        // Flip one payload byte: open still succeeds (tail is intact)…
        let mut flipped = bytes.clone();
        flipped[16] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let r = open(&dir, &cp.family, 0).unwrap();
        // …but reading the poisoned level-1 block fails its checksum.
        let mut any_err = false;
        for i in 0..300u64 {
            if r.get(&i.to_be_bytes()).is_err() {
                any_err = true;
                break;
            }
        }
        assert!(any_err, "corrupt level-1 block must fail closed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_steps_fire_in_order() {
        let dir = tmpdir("fault");
        let cp = cp(400);
        for step in [
            WriteStep::IndexBlockWrite(0),
            WriteStep::IndexBlockWrite(1),
            WriteStep::IndexFenceWrite,
            WriteStep::IndexPublish,
        ] {
            let err = write_checkpoint(&dir, &cp, false, &|s| {
                if s == step {
                    Err(StorageError::Corrupt(format!(
                        "injected write fault at {s:?}"
                    )))
                } else {
                    Ok(())
                }
            })
            .expect_err("fault must abort the write");
            assert!(format!("{err}").contains("injected write fault"));
            // Nothing published.
            assert!(!dir.join(checkpoint_file_name(&cp.family)).exists());
            crate::publish::sweep_unpublished(&dir);
        }
        // A clean retry succeeds after any torn attempt.
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        assert!(open(&dir, &cp.family, 0).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let dir = tmpdir("empty");
        let cp = IndexCheckpoint {
            family: b"empty".to_vec(),
            height: 0,
            meta: b"m".to_vec(),
            entries: Vec::new(),
        };
        write_checkpoint(&dir, &cp, false, &no_fault).unwrap();
        let r = open(&dir, b"empty", 0).unwrap();
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.fence_count(), 0);
        assert!(r.get(b"x").unwrap().is_none());
        assert!(r.floor(b"x").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
