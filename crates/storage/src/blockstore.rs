//! The block store: append-only, relation-partitioned persistence for
//! the chain.
//!
//! Blocks are the *only* copy of on-chain data (§I: "the system only
//! maintains one copy of the data"), but the copy is laid out by
//! relation: every transaction is routed to one of a fixed number of
//! relation partitions — relations take partitions round-robin in order
//! of first appearance on the chain — and each partition appends tuple
//! *extents* to its own [`segment`](crate::segment) sequence. A separate
//! *chain partition* appends one small record per block (its header),
//! and an append-only **chain-order manifest** (`manifest.rs`) records,
//! per block, the (partition, segment, offset) extents, the tuple table
//! (each tuple's partition and length, in canonical order) that
//! reassembles the block, the block's first tid and timestamp, and each
//! relation's placement with the block that first carries it. The
//! manifest record is the commit point: restart replay keeps the
//! longest valid manifest prefix, cuts it at the first record whose
//! extents exceed the segment files, and truncates every partition to
//! match.
//!
//! Single-relation scans read only their partition's extents — they
//! stop paying for unrelated relations' bytes (the per-relation access
//! paths of the paper's Eq. 3 cost model).

use crate::indexseg::{self, IndexBlockCache, IndexCheckpoint, PagedIndexReader};
use crate::manifest::{self, BlockEntry, ChainKey, Placement, Replay, BLOCK_MANIFEST};
use crate::publish;
use crate::segment::{Location, ReadGauges, Result, SegmentSet, SegmentWriter, StorageError};
use parking_lot::{Mutex, RwLock};
use sebdb_parallel::Tracked;
use sebdb_types::{
    Block, BlockHeader, BlockId, Codec, ColumnRef, Encoder, RawValue, Transaction, TxProjection,
    TypeError, Value,
};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte budget of one relation-scan run ([`BlockStore::relation_runs`]):
/// large enough that a run of 5-tuple blocks is one read of some fifty
/// blocks, small enough that a relation of about a megabyte still
/// splits into the runs a `sebdb_parallel::FLOOR_BLOCK` fan-out needs
/// (DESIGN §10.4).
pub const SCAN_RUN_BYTES: u32 = 16 * 1024;

/// Largest gap between two wanted tuples that one pointer run
/// ([`BlockStore::fetch_raw`]) reads through rather than split at: one
/// page, which costs less to transfer than a second `pread` costs to
/// issue.
const POINTER_RUN_GAP: u64 = 4096;

/// Number of relation partitions a store has by default, and the most
/// it may have.
pub const RELATION_PARTITIONS: usize = 8;

/// Sentinel partition id naming the chain partition (the per-block
/// header records) in [`WriteStep::PartitionWrite`].
pub const CHAIN_PARTITION: usize = RELATION_PARTITIONS;

/// The write-order boundaries of one block append, in the order the
/// store crosses them. Fault-injection tests use these to tear an
/// append at every boundary and prove restart replay heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStep {
    /// About to append block data to partition `p`
    /// ([`CHAIN_PARTITION`] = the chain record).
    PartitionWrite(usize),
    /// About to append the chain-order manifest record — the commit
    /// point.
    ManifestWrite,
    /// About to write level-1 block `i` of an index checkpoint.
    IndexBlockWrite(usize),
    /// About to write an index checkpoint's fence table + footer tail.
    IndexFenceWrite,
    /// About to publish an index checkpoint (the `.tmp` → `.icp`
    /// rename — the checkpoint's commit point).
    IndexPublish,
    /// About to publish the view registrations (the `.tmp` →
    /// `viewreg.idx` rename).
    ViewRegPublish,
}

/// Fault hook signature: return `true` to fail the append at `step`.
pub type WriteFaultFn = dyn Fn(WriteStep) -> bool + Send + Sync;

/// Points at one transaction inside one block — what the second-level
/// index leaves store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxPtr {
    /// Containing block.
    pub block: BlockId,
    /// Position within the block body.
    pub index: u32,
}

/// Block store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Segment file size; the paper's default is 256 MB.
    pub segment_size: u64,
    /// Fsync every appended block (off for benchmarks).
    pub sync_writes: bool,
    /// Relation partition count for newly created stores (clamped to
    /// `1..=`[`RELATION_PARTITIONS`], the default). 1 = the reference
    /// layout (every relation shares one partition). Reopening an
    /// existing store keeps the count in its manifest header.
    pub partitions: usize,
    /// Total level-1 index blocks the index-block cache may keep
    /// resident (`Some(0)` = unbounded, the `cache=∞` reference);
    /// `None` = [`crate::indexseg::DEFAULT_INDEX_CACHE_BLOCKS`]. The
    /// bound rounds to whole shards: each of the 8 holds `n / 8` blocks,
    /// at least one, so `Some(3)` holds 8 and `Some(12)` holds 8
    /// (`IndexBlockCache::capacity_blocks` reports the rounded bound).
    pub index_cache_blocks: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_size: 256 * 1024 * 1024,
            sync_writes: false,
            partitions: RELATION_PARTITIONS,
            index_cache_blocks: None,
        }
    }
}

/// Read/write counters the benchmark harness reports (the paper's cost
/// model, Eqs. 1–3, counts block accesses and tuple reads).
///
/// The counters are atomics under a zero-cost [`Tracked`] marker: the
/// model checker's race-detection suites model them as self-ordering
/// cells (exempt from happens-before checks — DESIGN.md §14), and the
/// marker records that exemption at the type.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Blocks fetched from disk.
    pub blocks_read: Tracked<AtomicU64>,
    /// Blocks appended.
    pub blocks_written: Tracked<AtomicU64>,
    /// Individual transactions materialized.
    pub txs_read: Tracked<AtomicU64>,
    /// Payload bytes actually fetched from the backend. A tuple-granular
    /// read charges only the tuple's bytes (plus coalescing gaps inside
    /// one span); a block read charges the whole block; a relation scan
    /// charges only its partition's extents — this is the counter that
    /// makes the Eq. 3 tuple-vs-block comparison honest.
    pub bytes_read: Tracked<AtomicU64>,
    /// Level-1 index blocks served from the index-block cache.
    pub index_cache_hits: Tracked<AtomicU64>,
    /// Level-1 index blocks loaded cold from a checkpoint file.
    pub index_cache_misses: Tracked<AtomicU64>,
    /// Milliseconds the last `Ledger::open`-style recovery spent
    /// (checkpoint load + tail replay) — the O(1)-open regression hook.
    pub open_millis: Tracked<AtomicU64>,
}

impl IoStats {
    /// Snapshot as (blocks_read, blocks_written, txs_read).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.blocks_read.load(Ordering::Relaxed),
            self.blocks_written.load(Ordering::Relaxed),
            self.txs_read.load(Ordering::Relaxed),
        )
    }

    /// Payload bytes fetched from the backend so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Index-block cache counters as (hits, misses).
    pub fn index_cache_counts(&self) -> (u64, u64) {
        (
            self.index_cache_hits.load(Ordering::Relaxed),
            self.index_cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Milliseconds the last recovery (open) spent.
    pub fn open_millis(&self) -> u64 {
        self.open_millis.load(Ordering::Relaxed)
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.txs_read.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.index_cache_hits.store(0, Ordering::Relaxed);
        self.index_cache_misses.store(0, Ordering::Relaxed);
        self.open_millis.store(0, Ordering::Relaxed);
    }
}

/// Where one transaction's bytes live: partition `part`'s extent for
/// its block, at `off..off + len` within that extent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxLoc {
    pub(crate) part: u8,
    pub(crate) off: u32,
    pub(crate) len: u32,
}

/// One block's tuple locations in canonical (block body) order, shared
/// between the store and in-flight readers.
pub(crate) type TxLocs = Arc<Vec<TxLoc>>;

/// One relation partition's on-disk state.
struct Partition {
    writer: Mutex<SegmentWriter>,
    reader: SegmentSet,
}

/// Names of [`BlockStore::temporary`] directories handed out so far in
/// this process.
pub(crate) static TEMP_DIRS: AtomicU64 = AtomicU64::new(0);

/// A directory made for one store under the system temp directory,
/// removed with everything in it when this drops.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    /// Creates `sebdb-tmp-<pid>-<n>` for the next `n` of `counter`
    /// whose name is free. `create_dir` fails on an existing name, so a
    /// leftover directory is skipped, never adopted.
    pub(crate) fn claim(counter: &AtomicU64) -> Result<TempDir> {
        loop {
            let n = counter.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("sebdb-tmp-{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir(path)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A block encoded for the partitioned layout: one chain record (the
/// header), one tuple extent per touched partition, and the canonical
/// tuple location table — all from a single encoding pass.
struct EncodedBlock {
    chain: Vec<u8>,
    extents: Vec<Vec<u8>>,
    locs: Vec<TxLoc>,
}

/// Encodes `block` with tuple `i` in partition `routes[i]`.
fn encode_partitioned(block: &Block, routes: &[u8], partitions: usize) -> EncodedBlock {
    let mut extents: Vec<Encoder> = (0..partitions).map(|_| Encoder::new()).collect();
    let mut locs = Vec::with_capacity(block.transactions.len());
    for (tx, &part) in block.transactions.iter().zip(routes) {
        let enc = &mut extents[part as usize];
        let start = enc.len() as u32;
        tx.encode(enc);
        let len = enc.len() as u32 - start;
        locs.push(TxLoc {
            part,
            off: start,
            len,
        });
    }
    EncodedBlock {
        chain: block.header.to_bytes(),
        extents: extents.into_iter().map(Encoder::finish).collect(),
        locs,
    }
}

/// One coalesced read of a relation-partition scan: the span of
/// back-to-back extents it fetched, still encoded, and where each tuple
/// in it is.
#[derive(Debug, Default)]
pub struct RawExtent {
    bytes: Vec<u8>,
    /// `(block, canonical index, start in bytes, length)`, chain order;
    /// every span checked against its block's extent when planned.
    tuples: Vec<(BlockId, u32, usize, u32)>,
}

impl RawExtent {
    /// Bytes this run read: its tuples and the gaps between them.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Every tuple of the run, in chain order.
    pub fn tuples(&self) -> impl Iterator<Item = RawTuple<'_>> + '_ {
        self.tuples
            .iter()
            .map(|&(bid, canon, start, len)| RawTuple {
                bid,
                canon,
                bytes: &self.bytes[start..start + len as usize],
            })
    }
}

/// One still-encoded transaction of a [`RawExtent`]. A tuple that does
/// not parse is [`StorageError::Corrupt`], named by block and position.
#[derive(Debug, Clone, Copy)]
pub struct RawTuple<'a> {
    /// The block holding the tuple.
    pub bid: BlockId,
    /// Position within the block body.
    pub canon: u32,
    /// The transaction's canonical encoding.
    pub bytes: &'a [u8],
}

impl<'a> RawTuple<'a> {
    /// Reads the send time and relation without decoding the tuple.
    pub fn project(&self) -> Result<TxProjection<'a>> {
        TxProjection::parse(self.bytes).map_err(|e| self.corrupt(e))
    }

    /// One column of a tuple [`Self::project`]ed from `self`, still
    /// encoded.
    pub fn column(&self, head: &TxProjection<'a>, col: ColumnRef) -> Result<Option<RawValue<'a>>> {
        head.column(col).map_err(|e| self.corrupt(e))
    }

    /// Fully decodes the tuple.
    pub fn decode(&self) -> Result<Transaction> {
        Transaction::from_bytes(self.bytes).map_err(|e| self.corrupt(e))
    }

    /// Fully decodes the tuple onto the end of `row`, as a full row
    /// ([`TxProjection::decode_row`]); fails as [`Self::decode`] does.
    pub fn decode_into(&self, row: &mut Vec<Value>) -> Result<()> {
        TxProjection::parse(self.bytes)
            .and_then(|head| head.decode_row(row))
            .map_err(|e| self.corrupt(e))
    }

    fn corrupt(&self, e: TypeError) -> StorageError {
        StorageError::Corrupt(format!("tx {}/{}: {e}", self.bid, self.canon))
    }
}

/// The append-only block store.
pub struct BlockStore {
    config: StoreConfig,
    /// Resolved partition count (the manifest header's on reopen).
    partitions: usize,
    chain_writer: Mutex<SegmentWriter>,
    chain_reader: SegmentSet,
    parts: Vec<Partition>,
    manifest: Mutex<BufWriter<File>>,
    /// Every block's manifest entry, in chain order.
    meta: RwLock<Vec<BlockEntry>>,
    /// Every block's first tid and timestamp — the block-level index
    /// `manifest.rs`'s lookups search.
    pub(crate) keys: RwLock<Vec<ChainKey>>,
    /// The partition each relation on the chain is placed in.
    placement: RwLock<Placement>,
    /// Store directory — index checkpoints live in its
    /// [`crate::indexseg::INDEX_CHECKPOINT_DIR`] subdirectory.
    dir: PathBuf,
    /// Shared open/in-flight instrumentation across the chain and every
    /// partition reader.
    gauges: Arc<ReadGauges>,
    write_fault: RwLock<Option<Box<WriteFaultFn>>>,
    /// Bounded cache of level-1 index blocks, shared by every paged
    /// index reader opened through this store.
    index_cache: Arc<IndexBlockCache>,
    /// I/O counters (shared with the index-block cache tier).
    pub stats: Arc<IoStats>,
    /// A [`Self::temporary`] store's directory. Declared last: fields
    /// drop in order, so every file handle above is closed before the
    /// directory goes.
    _temp: Option<TempDir>,
}

/// Persisted tracking-view registrations (see
/// [`BlockStore::save_view_registrations`]).
const VIEW_REGISTRATIONS: &str = "viewreg.idx";
pub(crate) fn chain_dir(dir: &Path) -> PathBuf {
    dir.join("chain")
}

pub(crate) fn part_dir(dir: &Path, p: usize) -> PathBuf {
    dir.join(format!("part-{p}"))
}

/// Copies the first `N` bytes of `slice` into an array. Callers pass
/// slices cut to exactly `N` bytes by the replay bounds checks.
pub(crate) fn fixed<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&slice[..N]);
    out
}

/// Decodes one chain record, the block's header.
fn decode_chain_record(bytes: &[u8], bid: u64) -> Result<BlockHeader> {
    BlockHeader::from_bytes(bytes)
        .map_err(|e| StorageError::Corrupt(format!("block {bid} chain record: {e}")))
}

/// [`BlockStore::relation_runs`] over the manifest entries `meta`, as
/// ranges of `bids`, each with the span its extents in partition
/// `route` cover (`None` where it has none): a run ends where the next
/// extent is not back to back with it or would take it past
/// [`SCAN_RUN_BYTES`].
fn cut_runs(
    meta: &[BlockEntry],
    bids: &[BlockId],
    route: Option<u8>,
) -> Vec<(Range<usize>, Option<Location>)> {
    let mut runs = Vec::new();
    let (mut start, mut span): (usize, Option<Location>) = (0, None);
    for (k, &bid) in bids.iter().enumerate() {
        let Some(ext) = route.and_then(|r| meta.get(bid as usize)?.extent(r)) else {
            continue;
        };
        if let Some(s) = &mut span {
            let back_to_back = ext.segment == s.segment && ext.offset == s.offset + s.len as u64;
            if back_to_back && s.len as u64 + ext.len as u64 <= SCAN_RUN_BYTES as u64 {
                s.len += ext.len;
                continue;
            }
            runs.push((start..k, span));
            start = k;
        }
        span = Some(ext);
    }
    if start < bids.len() {
        runs.push((start..bids.len(), span));
    }
    runs
}

impl BlockStore {
    /// Opens a fresh store in a new directory under the system temp
    /// directory (tests, examples, benchmarks), removed when the store
    /// drops.
    pub fn temporary(config: StoreConfig) -> Result<Self> {
        let temp = TempDir::claim(&TEMP_DIRS)?;
        let mut store = Self::open(temp.path(), config)?;
        store._temp = Some(temp);
        Ok(store)
    }

    /// Opens (or creates) the store in `dir`. Recovery has two steps:
    /// keep the longest valid prefix of the chain-order manifest, then
    /// cut it at the first record whose extents exceed the segment
    /// files. Every partition is truncated to the manifest's view; no
    /// other metadata file is read.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let manifest_path = dir.join(BLOCK_MANIFEST);
        let mut buf = Vec::new();
        if let Ok(mut f) = File::open(&manifest_path) {
            f.read_to_end(&mut buf)?;
        }
        // A complete header pins the partition count; a torn or missing
        // one means no block ever committed, so the store is rebuilt
        // fresh with the configured count.
        let pinned = manifest::read_header(&buf)?;
        let partitions = pinned.unwrap_or_else(|| config.partitions.clamp(1, RELATION_PARTITIONS));
        let Replay {
            mut entries,
            mut keys,
            ends,
            placed,
        } = match pinned {
            Some(p) => manifest::replay_manifest(&buf, p),
            None => Replay::empty(),
        };
        // A manifest record written before its partition data reached
        // the segment files (reordered writes) is torn state too: cut
        // the manifest at the first record whose extents exceed the
        // physical file lengths, and the placements of the blocks cut
        // with it.
        let keep = manifest::validate_extents(dir, &entries);
        entries.truncate(keep);
        keys.truncate(keep);
        let valid_bytes = ends[keep];
        let placed = placed.into_iter().take_while(|&(bid, _)| bid < keep as u64);
        let placement = Placement::new(partitions, placed.map(|(_, name)| name));
        // Under `sync_writes`, the entries this open creates in `dir`
        // (the manifest, the chain and partition directories) are made
        // durable by one fsync of `dir` once they all exist.
        let mut created = !manifest_path.exists();
        for sub in std::iter::once(chain_dir(dir)).chain((0..partitions).map(|p| part_dir(dir, p)))
        {
            created |= !sub.exists();
            std::fs::create_dir_all(sub)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest_path)?;
        if created && config.sync_writes {
            publish::sync_dir(dir)?;
        }
        file.set_len(valid_bytes)?;
        let mut manifest = BufWriter::new(file);
        if pinned.is_none() {
            manifest.write_all(&manifest::header(partitions))?;
            manifest.flush()?;
        }
        let gauges = ReadGauges::new();
        let chain_reader = SegmentSet::with_gauges(&chain_dir(dir), Arc::clone(&gauges));
        let chain_resume = entries
            .last()
            .map(|e| (e.chain.segment, e.chain.offset + e.chain.len as u64));
        let chain_writer = SegmentWriter::open(
            &chain_dir(dir),
            config.segment_size,
            chain_resume,
            config.sync_writes,
        )?;
        let mut parts = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let pd = part_dir(dir, p);
            let reader = SegmentSet::with_gauges(&pd, Arc::clone(&gauges));
            let resume = entries.iter().rev().find_map(|e| {
                let l = e.extent(p as u8)?;
                Some((l.segment, l.offset + l.len as u64))
            });
            let writer = SegmentWriter::open(&pd, config.segment_size, resume, config.sync_writes)?;
            parts.push(Partition {
                writer: Mutex::new(writer),
                reader,
            });
        }
        // Torn publishers (an index checkpoint, the view registrations)
        // leave `.tmp` artifacts; sweep them so the store holds only
        // committed files.
        publish::sweep_unpublished(dir);
        publish::sweep_unpublished(&dir.join(indexseg::INDEX_CHECKPOINT_DIR));
        let stats = Arc::new(IoStats::default());
        let index_cache = IndexBlockCache::new(
            config
                .index_cache_blocks
                .unwrap_or(indexseg::DEFAULT_INDEX_CACHE_BLOCKS),
            Arc::clone(&stats),
        );
        Ok(BlockStore {
            config,
            partitions,
            chain_writer: Mutex::new(chain_writer),
            chain_reader,
            parts,
            manifest: Mutex::new(manifest),
            meta: RwLock::new(entries),
            keys: RwLock::new(keys),
            placement: RwLock::new(placement),
            dir: dir.to_path_buf(),
            gauges,
            write_fault: RwLock::new(None),
            index_cache,
            stats,
            _temp: None,
        })
    }

    /// Resolved relation partition count (1 = single-sequence layout).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition relation `table` (any case) is placed in, `None`
    /// while no block carries it.
    pub fn partition_of(&self, table: &str) -> Option<usize> {
        self.placement.read().partition_of(table).map(usize::from)
    }

    /// The relations placed in partition `part`, in placement order.
    pub fn relations_in(&self, part: usize) -> Vec<String> {
        self.placement.read().relations_in(part)
    }

    /// True when relations `a` and `b` are placed in the same
    /// partition, so one [`Self::scan_relation_raw`] returns the tuples
    /// of both.
    pub fn co_located(&self, a: &str, b: &str) -> bool {
        let placement = self.placement.read();
        let (p, q) = (placement.partition_of(a), placement.partition_of(b));
        p.is_some() && p == q
    }

    /// The store's shared index-block cache tier.
    pub fn index_cache(&self) -> &Arc<IndexBlockCache> {
        &self.index_cache
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persists one index family's checkpoint behind the `.tmp` →
    /// rename commit point. The chain-order manifest remains the real
    /// commit point: a checkpoint must only be written for state the
    /// manifest already covers (`cp.height <= self.height()`), and
    /// [`Self::load_index_checkpoint`] discards any file that runs
    /// ahead of the manifest after a rollback.
    pub fn write_index_checkpoint(&self, cp: &IndexCheckpoint) -> Result<()> {
        if cp.height > self.height() {
            return Err(StorageError::Corrupt(format!(
                "index checkpoint height {} runs ahead of store height {}",
                cp.height,
                self.height()
            )));
        }
        indexseg::write_checkpoint(
            &self.dir.join(indexseg::INDEX_CHECKPOINT_DIR),
            cp,
            self.config.sync_writes,
            &|step| self.check_fault(step),
        )
    }

    /// Opens one family's published checkpoint, if any. Healing path:
    /// a torn or corrupt file, or one whose height exceeds the current
    /// manifest height (the manifest rolled back past it), is deleted
    /// and `None` is returned — the caller replays the chain instead,
    /// which reconstructs the same state.
    pub fn load_index_checkpoint(&self, family: &[u8]) -> Result<Option<PagedIndexReader>> {
        let path = self
            .dir
            .join(indexseg::INDEX_CHECKPOINT_DIR)
            .join(indexseg::checkpoint_file_name(family));
        if !path.exists() {
            return Ok(None);
        }
        match PagedIndexReader::open(
            &path,
            Arc::clone(&self.index_cache),
            Arc::clone(&self.stats),
        ) {
            Ok(reader) if reader.height() <= self.height() => Ok(Some(reader)),
            // Healing: ahead of the manifest, or corrupt. The stale
            // reader takes its cached blocks with it when it drops.
            Ok(_) | Err(StorageError::Corrupt(_)) => {
                let _ = std::fs::remove_file(&path);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Persists the ledger's tracking-view registrations (an opaque,
    /// versioned byte encoding owned by the core crate) behind the
    /// same `.tmp` → rename commit point the index checkpoints use.
    /// Registrations are *advisory* durable state: only the predicate
    /// specs are saved — materialized rows are rebuilt by a view's
    /// first serve after a reopen, so a torn or missing file costs the
    /// registrations, never correctness.
    pub fn save_view_registrations(&self, bytes: &[u8]) -> Result<()> {
        publish::publish_atomically(
            &self.dir.join(VIEW_REGISTRATIONS),
            self.config.sync_writes,
            |file| Ok(file.write_all(bytes)?),
            || self.check_fault(WriteStep::ViewRegPublish),
        )
    }

    /// Loads the persisted tracking-view registrations, if any were
    /// saved. The core crate decodes the bytes; a failed decode there
    /// is treated like a missing file.
    pub fn load_view_registrations(&self) -> Result<Option<Vec<u8>>> {
        let path = self.dir.join(VIEW_REGISTRATIONS);
        if !path.exists() {
            return Ok(None);
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        Ok(Some(bytes))
    }

    /// Installs (or clears) the write fault hook — fault-injection
    /// tests tear appends at chosen [`WriteStep`] boundaries.
    pub fn set_write_fault(&self, hook: Option<Box<WriteFaultFn>>) {
        *self.write_fault.write() = hook;
    }

    fn check_fault(&self, step: WriteStep) -> Result<()> {
        if let Some(hook) = self.write_fault.read().as_ref() {
            if hook(step) {
                return Err(StorageError::Corrupt(format!(
                    "injected write fault at {step:?}"
                )));
            }
        }
        Ok(())
    }

    /// Number of stored blocks (= chain height).
    pub fn height(&self) -> u64 {
        self.meta.read().len() as u64
    }

    /// Resident bytes of the store's own metadata: every block's keys,
    /// manifest entry and tuple location table.
    pub fn metadata_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.keys.read().capacity() * size_of::<ChainKey>();
        // A block's slot, its extents, the location table's `Arc` (two
        // counts and the `Vec`), and its locations.
        for e in self.meta.read().iter() {
            bytes += size_of::<BlockEntry>() + e.parts.capacity() * size_of::<(u8, Location)>();
            bytes += 2 * size_of::<usize>() + size_of::<Vec<TxLoc>>();
            bytes += e.txs.capacity() * size_of::<TxLoc>();
        }
        bytes
    }

    /// Appends a sealed block. The block's height must equal the current
    /// store height (blocks arrive strictly in order).
    ///
    /// The chain record and every touched partition's extent are
    /// written in order — or, under `sync_writes`, fanned out across
    /// `sebdb-parallel` workers so the fsyncs overlap (each partition
    /// has its own writer lock, so the bytes each file receives are
    /// identical under any scheduling); the chain-order manifest record
    /// is the commit point, written (and under `sync_writes` synced)
    /// only after every partition write landed.
    /// A failed append leaves torn partition state that restart replay
    /// heals; the in-memory view is untouched. A block packaged before
    /// its predecessor is refused before anything is written.
    pub fn append(&self, block: &Block) -> Result<()> {
        let expect = self.height();
        if block.header.height != expect {
            return Err(StorageError::Corrupt(format!(
                "appending block height {} but store height is {}",
                block.header.height, expect
            )));
        }
        let key = ChainKey::of(block, self.keys.read().last())?;
        let bid = block.header.height;
        let (routes, placed) = self.placement.read().route(block);
        let enc = encode_partitioned(block, &routes, self.partitions);
        let mut jobs: Vec<usize> = vec![CHAIN_PARTITION];
        jobs.extend((0..self.partitions).filter(|&p| !enc.extents[p].is_empty()));
        let write_job = |&job: &usize| -> Result<(usize, Location)> {
            self.check_fault(WriteStep::PartitionWrite(job))?;
            let (mut w, bytes) = match job {
                CHAIN_PARTITION => (self.chain_writer.lock(), &enc.chain),
                p => (self.parts[p].writer.lock(), &enc.extents[p]),
            };
            let loc = w.append(bytes)?;
            if self.config.sync_writes {
                w.sync()?;
            } else {
                w.flush()?;
            }
            Ok((job, loc))
        };
        // Parallel fsyncs are worth a spawn; buffered appends
        // (microseconds each) are not.
        let written: Vec<Result<(usize, Location)>> = if self.config.sync_writes {
            sebdb_parallel::par_map(&jobs, sebdb_parallel::FLOOR_RUN, write_job)
        } else {
            jobs.iter().map(write_job).collect()
        };
        let mut chain_loc = None;
        let mut part_locs: Vec<(u8, Location)> = Vec::with_capacity(jobs.len() - 1);
        for r in written {
            let (job, loc) = r?;
            if job == CHAIN_PARTITION {
                chain_loc = Some(loc);
            } else {
                part_locs.push((job as u8, loc));
            }
        }
        let chain_loc = chain_loc.ok_or_else(|| {
            StorageError::Corrupt("chain write missing from append fan-out".into())
        })?;
        part_locs.sort_by_key(|&(p, _)| p);
        let entry = BlockEntry {
            chain: chain_loc,
            parts: part_locs,
            txs: Arc::new(enc.locs),
        };
        self.check_fault(WriteStep::ManifestWrite)?;
        let mut m = self.manifest.lock();
        m.write_all(&manifest::manifest_record(bid, &key, &entry, &placed))?;
        m.flush()?;
        if self.config.sync_writes {
            m.get_ref().sync_data()?;
        }
        // The in-memory view commits with the manifest, under its lock,
        // so entry order always matches record order; the placements
        // and the key first, so no height a reader sees lacks them.
        if !placed.is_empty() {
            let mut placement = self.placement.write();
            placed.into_iter().for_each(|name| placement.place(name));
        }
        self.keys.write().push(key);
        self.meta.write().push(entry);
        drop(m);
        self.stats.blocks_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads block `bid`: one positioned read of its chain record and
    /// one of each partition extent it touches, reassembled into
    /// canonical order. `blocks_read` is charged once the block is
    /// assembled, so a read past the tip counts nothing.
    pub fn read(&self, bid: BlockId) -> Result<Arc<Block>> {
        let e = self.entry(bid)?;
        let header = decode_chain_record(&self.read_at(&self.chain_reader, e.chain)?, bid)?;
        let extents = e
            .parts
            .iter()
            .map(|&(p, loc)| Ok((p, self.read_at(&self.parts[p as usize].reader, loc)?)))
            .collect::<Result<Vec<(u8, Vec<u8>)>>>()?;
        let mut transactions = Vec::with_capacity(e.txs.len());
        for (canon, l) in e.txs.iter().enumerate() {
            let (_, bytes) = extents.iter().find(|(q, _)| *q == l.part).ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "block {bid}: tuple {canon} routed to absent partition {}",
                    l.part
                ))
            })?;
            let (s, t) = (l.off as usize, l.off as usize + l.len as usize);
            let tuple = bytes.get(s..t).ok_or_else(|| {
                StorageError::Corrupt(format!("block {bid}: tuple {canon} overruns its extent"))
            })?;
            let tx = Transaction::from_bytes(tuple)
                .map_err(|e2| StorageError::Corrupt(format!("tx {bid}/{canon}: {e2}")))?;
            transactions.push(tx);
        }
        self.stats.blocks_read.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Block {
            header,
            transactions,
        }))
    }

    /// Block `bid`'s manifest entry, cloned out from under the read guard.
    fn entry(&self, bid: BlockId) -> Result<BlockEntry> {
        self.meta
            .read()
            .get(bid as usize)
            .cloned()
            .ok_or(StorageError::NotFound(bid))
    }

    /// One positioned read of `loc` from `reader`, charged to
    /// `bytes_read`.
    fn read_at(&self, reader: &SegmentSet, loc: Location) -> Result<Vec<u8>> {
        let bytes = reader.read(loc)?;
        self.stats
            .bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Fetches the tuples `ptrs` point at **undecoded**, one
    /// [`RawExtent`] per run — the pointer read, shaped as
    /// [`Self::scan_relation_raw`]'s so callers project, filter and
    /// decode the same way. Pointers are grouped by their tuple's
    /// partition, and each group is cut into runs of one positioned
    /// read each: a tuple joins its partition's current run when it
    /// lies in the same segment, no earlier than the run's start and
    /// at most [`POINTER_RUN_GAP`] past its end, and the run stays
    /// within [`SCAN_RUN_BYTES`]. Planned under one manifest read
    /// guard, every tuple checked against its extent. Sorted by
    /// `(block, position)` the pointers read the fewest runs and each
    /// partition's tuples come back in chain order; any order reads
    /// correctly, one tuple per pointer. Charges `txs_read` per pointer
    /// and the runs' `bytes_read`, gaps included; no `blocks_read`.
    pub fn fetch_raw(&self, ptrs: &[TxPtr]) -> Result<Vec<RawExtent>> {
        let mut planned: Vec<(u8, Location, RawExtent)> = Vec::new();
        let mut open: [Option<usize>; RELATION_PARTITIONS] = [None; RELATION_PARTITIONS];
        let meta = self.meta.read();
        for p in ptrs {
            let (bid, canon) = (p.block, p.index);
            let e = meta.get(bid as usize).ok_or(StorageError::NotFound(bid))?;
            let l = e
                .txs
                .get(canon as usize)
                .ok_or(StorageError::NotFound(bid))?;
            let ext = e.extent(l.part).ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "block {bid}: tuple {canon} routed to absent partition {}",
                    l.part
                ))
            })?;
            if l.off as u64 + l.len as u64 > ext.len as u64 {
                return Err(StorageError::Corrupt(format!(
                    "block {bid}: tuple {canon} overruns its extent"
                )));
            }
            let (start, end) = (
                ext.offset + l.off as u64,
                ext.offset + (l.off + l.len) as u64,
            );
            let run = open[l.part as usize].filter(|&i| {
                let span = planned[i].1;
                let span_end = span.offset + span.len as u64;
                ext.segment == span.segment
                    && start >= span.offset
                    && start <= span_end + POINTER_RUN_GAP
                    && end.max(span_end) - span.offset <= SCAN_RUN_BYTES as u64
            });
            let i = run.unwrap_or_else(|| {
                let span = Location {
                    segment: ext.segment,
                    offset: start,
                    len: 0,
                };
                planned.push((l.part, span, RawExtent::default()));
                open[l.part as usize] = Some(planned.len() - 1);
                planned.len() - 1
            });
            let (_, span, run) = &mut planned[i];
            span.len = span.len.max((end - span.offset) as u32);
            run.tuples
                .push((bid, canon, (start - span.offset) as usize, l.len));
        }
        drop(meta);
        self.stats
            .txs_read
            .fetch_add(ptrs.len() as u64, Ordering::Relaxed);
        planned
            .into_iter()
            .map(|(part, span, mut run)| {
                run.bytes = self.read_at(&self.parts[part as usize].reader, span)?;
                Ok(run)
            })
            .collect()
    }

    /// Cuts `bids` into the runs a scan of `table` reads: consecutive
    /// slices whose extents in the relation's partition lie back to back
    /// in one segment and add up to at most [`SCAN_RUN_BYTES`] (an
    /// extent larger than that is a run of its own), so each run is one
    /// positioned read. Blocks without such an extent ride in the run
    /// they fall in; where none of `bids` has one, all of them are one
    /// run with nothing to read.
    pub fn relation_runs<'b>(&self, bids: &'b [BlockId], table: &str) -> Vec<&'b [BlockId]> {
        let route = self.placement.read().partition_of(table);
        let meta = self.meta.read();
        cut_runs(&meta, bids, route)
            .into_iter()
            .map(|(run, _)| &bids[run])
            .collect()
    }

    /// Keeps the pointers of `ptrs` whose tuple lies in `table`'s
    /// relation partition, as the resident tuple table says, under one
    /// manifest read guard and with no I/O. A pointer the table cannot
    /// resolve is kept, so a fetch still fails on it as it would have.
    /// Co-located relations share a partition: callers that want
    /// `table`'s tuples alone still check each tuple's name.
    pub fn retain_in_partition(&self, ptrs: &mut Vec<TxPtr>, table: &str) {
        let route = self.placement.read().partition_of(table);
        let meta = self.meta.read();
        ptrs.retain(|p| {
            let loc = meta
                .get(p.block as usize)
                .and_then(|e| e.txs.get(p.index as usize));
            loc.is_none_or(|l| Some(l.part) == route)
        });
    }

    /// Fetches `table`'s relation partition extents of the blocks in
    /// `bids` **undecoded**, with the place of every tuple in them — the
    /// per-relation scan that stops paying for unrelated relations'
    /// bytes, for callers that decide per tuple whether to decode.
    /// Returns one [`RawExtent`] per run of [`Self::relation_runs`]
    /// that has bytes, tuples in chain order; blocks without the
    /// partition, and a relation no block carries, yield nothing. Note:
    /// with more relations than partitions, co-located relations share
    /// an extent, so callers still filter by table name. Charges one
    /// `blocks_read` per block and only the partition extents'
    /// `bytes_read` (no `txs_read`, matching full-scan accounting).
    /// Never consults a cache: cached blocks are decoded ones.
    pub fn scan_relation_raw(&self, bids: &[BlockId], table: &str) -> Result<Vec<RawExtent>> {
        self.stats
            .blocks_read
            .fetch_add(bids.len() as u64, Ordering::Relaxed);
        let Some(route) = self.placement.read().partition_of(table) else {
            return Ok(Vec::new());
        };
        // Every run's span and tuple table, under one manifest guard.
        let mut planned: Vec<(Location, RawExtent)> = Vec::new();
        let meta = self.meta.read();
        for (run, span) in cut_runs(&meta, bids, Some(route)) {
            let mut tuples = Vec::new();
            for &bid in &bids[run] {
                let e = meta.get(bid as usize).ok_or(StorageError::NotFound(bid))?;
                let (Some(span), Some(ext)) = (span, e.extent(route)) else {
                    continue;
                };
                let base = ext.offset - span.offset;
                for (canon, l) in e.txs.iter().enumerate().filter(|(_, l)| l.part == route) {
                    if l.off as u64 + l.len as u64 > ext.len as u64 {
                        return Err(StorageError::Corrupt(format!(
                            "block {bid}: tuple {canon} overruns its extent"
                        )));
                    }
                    tuples.push((bid, canon as u32, (base + l.off as u64) as usize, l.len));
                }
            }
            let bytes = Vec::new();
            planned.extend(span.map(|s| (s, RawExtent { bytes, tuples })));
        }
        drop(meta);
        let reader = &self.parts[route as usize].reader;
        planned
            .into_iter()
            .map(|(span, mut run)| {
                run.bytes = self.read_at(reader, span)?;
                Ok(run)
            })
            .collect()
    }

    /// Shared read instrumentation (opens, in-flight gauges, probe)
    /// across the chain and every partition reader.
    pub fn read_gauges(&self) -> &Arc<ReadGauges> {
        &self.gauges
    }

    /// Block `bid`'s header, from one positioned read of its chain
    /// record, and its tuple count, from the resident tuple table: no
    /// partition extent is read and no tuple decoded. Charges the
    /// record's `bytes_read` only.
    pub fn header(&self, bid: BlockId) -> Result<(BlockHeader, usize)> {
        let (chain, ntx) = {
            let meta = self.meta.read();
            let e = meta.get(bid as usize).ok_or(StorageError::NotFound(bid))?;
            (e.chain, e.txs.len())
        };
        let bytes = self.read_at(&self.chain_reader, chain)?;
        Ok((decode_chain_record(&bytes, bid)?, ntx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sha256::Digest;
    use sebdb_types::Value;

    fn block(height: u64, prev: Digest, ntx: usize) -> Block {
        block_tables(height, prev, ntx, &["donate"])
    }

    fn block_tables(height: u64, prev: Digest, ntx: usize, tables: &[&str]) -> Block {
        let txs = (0..ntx)
            .map(|i| {
                let mut t = Transaction::new(
                    height * 1000 + i as u64,
                    sebdb_crypto::sig::KeyId([1; 8]),
                    tables[i % tables.len()],
                    vec![Value::Int(i as i64)],
                );
                t.tid = height * 100 + i as u64;
                t
            })
            .collect();
        Block::seal(prev, height, height, txs, |_| vec![0u8; 4])
    }

    fn temporary() -> BlockStore {
        BlockStore::temporary(StoreConfig::default()).unwrap()
    }

    /// A directory for a test that reopens its store; removed when the
    /// test ends, pass or fail.
    fn tmpdir() -> TempDir {
        TempDir::claim(&TEMP_DIRS).unwrap()
    }

    fn count_segments(dir: &Path) -> usize {
        let mut n = 0;
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let path = e.path();
                if path.is_dir() {
                    n += count_segments(&path);
                } else if e.file_name().to_string_lossy().starts_with("seg-") {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn rejects_out_of_order_append() {
        let s = temporary();
        let b = block(5, Digest::ZERO, 1);
        assert!(s.append(&b).is_err());
    }

    /// Every file under `dir` is a chain or partition segment or the
    /// manifest: a store keeps no other metadata file.
    fn assert_only_segments_and_manifest(dir: &Path) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if !e.path().is_dir() {
                assert_eq!(name, BLOCK_MANIFEST);
                continue;
            }
            assert!(name == "chain" || name.starts_with("part-"), "{name}");
            for f in std::fs::read_dir(e.path()).unwrap().flatten() {
                let file = f.file_name().to_string_lossy().into_owned();
                assert!(file.starts_with("seg-"), "{name}/{file}");
            }
        }
    }

    #[test]
    fn disk_roundtrip_and_restart() {
        for sync_writes in [false, true] {
            let cfg = StoreConfig {
                sync_writes,
                ..StoreConfig::default()
            };
            let dir = tmpdir();
            let b0 = block_tables(0, Digest::ZERO, 4, &["donate", "volunteer", "need"]);
            let b1 = block_tables(1, b0.header.block_hash, 3, &["volunteer", "donate"]);
            {
                let s = BlockStore::open(dir.path(), cfg.clone()).unwrap();
                s.append(&b0).unwrap();
                s.append(&b1).unwrap();
                assert_eq!(*s.read(1).unwrap(), b1);
                assert!(s.read(2).is_err());
            }
            assert_only_segments_and_manifest(dir.path());
            // Reopen and check the manifest replay.
            let s = BlockStore::open(dir.path(), cfg).unwrap();
            assert_eq!(s.height(), 2);
            assert_eq!(*s.read(0).unwrap(), b0);
            assert_eq!(*s.read(1).unwrap(), b1);
            assert_eq!(s.header(1).unwrap(), (b1.header.clone(), 3));
            assert!(s.read(2).is_err());
            // And we can continue appending.
            let b2 = block(2, b1.header.block_hash, 1);
            s.append(&b2).unwrap();
            assert_eq!(*s.read(2).unwrap(), b2);
            assert_only_segments_and_manifest(dir.path());
        }
    }

    #[test]
    fn disk_small_segments_roll() {
        let cfg = StoreConfig {
            segment_size: 256, // force a roll every block or two
            ..StoreConfig::default()
        };
        let s = BlockStore::temporary(cfg).unwrap();
        let mut prev = Digest::ZERO;
        let mut blocks = Vec::new();
        for h in 0..6 {
            let b = block(h, prev, 2);
            prev = b.header.block_hash;
            s.append(&b).unwrap();
            blocks.push(b);
        }
        for (h, b) in blocks.iter().enumerate() {
            assert_eq!(*s.read(h as u64).unwrap(), *b);
        }
        // More than one segment file must exist across the partitions.
        let segs = count_segments(s.dir());
        assert!(segs > 1, "expected multiple segments, got {segs}");
    }

    #[test]
    fn partitions_one_collapses_to_single_extent() {
        let dir = tmpdir();
        let cfg = StoreConfig {
            partitions: 1,
            ..StoreConfig::default()
        };
        let s = BlockStore::open(dir.path(), cfg).unwrap();
        let b0 = block_tables(0, Digest::ZERO, 5, &["donate", "volunteer", "need"]);
        s.append(&b0).unwrap();
        assert_eq!(s.partitions(), 1);
        assert_eq!(*s.read(0).unwrap(), b0);
        // Every relation is placed in partition 0, so it shares the
        // one extent with every other.
        assert_eq!(s.relations_in(0), ["donate", "volunteer", "need"]);
        assert!(s.co_located("donate", "need"));
        assert_eq!(
            s.scan_relation_raw(&[0], "need").unwrap()[0]
                .tuples()
                .count(),
            5
        );
        // Reopen keeps the on-disk partition count even if the config
        // asks for more.
        drop(s);
        let s = BlockStore::open(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(s.partitions(), 1);
        assert_eq!(*s.read(0).unwrap(), b0);
    }

    #[test]
    fn a_read_past_the_tip_counts_no_work() {
        let store = temporary();
        store.append(&block(0, Digest::ZERO, 3)).unwrap();
        store.read(0).unwrap();
        let before = (store.stats.snapshot(), store.stats.bytes_read());
        assert!(matches!(store.read(1), Err(StorageError::NotFound(1))));
        assert_eq!((store.stats.snapshot(), store.stats.bytes_read()), before);
    }

    #[test]
    fn no_cache_reads_backend_every_time() {
        let store = temporary();
        store.append(&block(0, Digest::ZERO, 2)).unwrap();
        store.read(0).unwrap();
        store.read(0).unwrap();
        assert_eq!(store.stats.snapshot().0, 2);
    }

    #[test]
    fn grouped_reads_match_pointwise_reads() {
        let store = temporary();
        let mut prev = Digest::ZERO;
        for h in 0..4 {
            let b = block(h, prev, 5);
            prev = b.header.block_hash;
            store.append(&b).unwrap();
        }
        // Sorted, with a repeat and several pointers per block.
        let ptrs: Vec<TxPtr> = [(0, 4), (0, 4), (1, 0), (1, 1), (2, 1), (2, 3), (3, 2)]
            .iter()
            .map(|&(b, i)| TxPtr { block: b, index: i })
            .collect();
        let expect: Vec<(u64, u32, Vec<u8>)> = ptrs
            .iter()
            .map(|p| {
                let tx = &store.read(p.block).unwrap().transactions[p.index as usize];
                (p.block, p.index, tx.to_bytes())
            })
            .collect();
        store.stats.reset();
        let runs = store.fetch_raw(&ptrs).unwrap();
        let got: Vec<(u64, u32, Vec<u8>)> = runs
            .iter()
            .flat_map(RawExtent::tuples)
            .map(|t| (t.bid, t.canon, t.bytes.to_vec()))
            .collect();
        assert_eq!(got, expect);
        // One tuple read per pointer, the blocks back to back: one run.
        assert_eq!(store.stats.snapshot(), (0, 0, ptrs.len() as u64));
        assert_eq!(runs.len(), 1);
        // Out-of-range pointers surface as errors, not panics.
        assert!(store
            .fetch_raw(&[TxPtr { block: 0, index: 0 }, TxPtr { block: 9, index: 0 }])
            .is_err());
    }

    #[test]
    fn relation_reads_return_only_the_tables_partition() {
        for partitions in [1usize, 8] {
            let store = BlockStore::temporary(StoreConfig {
                partitions,
                ..StoreConfig::default()
            })
            .unwrap();
            let b = block_tables(0, Digest::ZERO, 6, &["donate", "volunteer"]);
            store.append(&b).unwrap();
            let got: Vec<(u32, Transaction)> = store.scan_relation_raw(&[0], "donate").unwrap()[0]
                .tuples()
                .map(|t| (t.canon, t.decode().unwrap()))
                .collect();
            let route = store.partition_of("donate");
            let expect: Vec<(u32, Transaction)> = b
                .transactions
                .iter()
                .enumerate()
                .filter(|(_, tx)| store.partition_of(&tx.tname) == route)
                .map(|(i, tx)| (i as u32, tx.clone()))
                .collect();
            assert_eq!(got, expect);
            // The queried table's tuples are always present.
            assert!(got
                .iter()
                .any(|(_, tx)| tx.tname.eq_ignore_ascii_case("donate")));
        }
    }

    /// The partition test keeps a relation's pointers and its
    /// co-located neighbours', drops the rest, and keeps a pointer past
    /// the chain or past its block's tuples, on which the fetch then
    /// fails as it would have.
    #[test]
    fn partition_test_keeps_the_relations_pointers_and_the_unresolvable() {
        for partitions in [1usize, 8] {
            let store = BlockStore::temporary(StoreConfig {
                partitions,
                ..StoreConfig::default()
            })
            .unwrap();
            let b = block_tables(0, Digest::ZERO, 6, &["donate", "volunteer"]);
            store.append(&b).unwrap();
            let ptr = |block, index| TxPtr { block, index };
            let mut ptrs: Vec<TxPtr> = (0..6).map(|i| ptr(0, i)).collect();
            ptrs.extend([ptr(0, 6), ptr(1, 0)]);
            store.retain_in_partition(&mut ptrs, "donate");
            let mut want: Vec<TxPtr> = match partitions {
                1 => (0..6).map(|i| ptr(0, i)).collect(),
                _ => [0, 2, 4].map(|i| ptr(0, i)).to_vec(),
            };
            want.extend([ptr(0, 6), ptr(1, 0)]);
            assert_eq!(ptrs, want, "partitions {partitions}");
            assert!(store.fetch_raw(&[ptr(0, 6)]).is_err());
            assert!(store.fetch_raw(&[ptr(1, 0)]).is_err());
        }
    }

    #[test]
    fn temporary_store_removes_its_directory_on_drop() {
        let s = temporary();
        let dir = s.dir().to_path_buf();
        s.append(&block(0, Digest::ZERO, 3)).unwrap();
        s.save_view_registrations(b"views").unwrap();
        assert!(dir.join(BLOCK_MANIFEST).exists());
        drop(s);
        assert!(!dir.exists(), "{} outlived its store", dir.display());
    }

    #[test]
    fn temporary_stores_never_share_a_directory() {
        let stores: Vec<BlockStore> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..4).map(|_| temporary()).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let dirs: std::collections::HashSet<PathBuf> =
            stores.iter().map(|s| s.dir().to_path_buf()).collect();
        assert_eq!(dirs.len(), stores.len());
        drop(stores);
        assert!(dirs.iter().all(|d| !d.exists()));
    }

    #[test]
    fn claim_skips_a_directory_that_already_exists() {
        // A counter of its own, so the names it hands out are known:
        // the next two already exist and hold a file that must survive.
        let counter = AtomicU64::new(u64::MAX / 2);
        let taken: Vec<TempDir> = (0..2).map(|_| TempDir::claim(&counter).unwrap()).collect();
        for t in &taken {
            std::fs::write(t.path().join(BLOCK_MANIFEST), b"not a store").unwrap();
        }
        counter.store(u64::MAX / 2, Ordering::Relaxed);
        let fresh = TempDir::claim(&counter).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), u64::MAX / 2 + 3);
        assert!(taken.iter().all(|t| t.path() != fresh.path()));
        assert_eq!(std::fs::read_dir(fresh.path()).unwrap().count(), 0);
        for t in &taken {
            let kept = std::fs::read(t.path().join(BLOCK_MANIFEST)).unwrap();
            assert_eq!(kept, b"not a store");
        }
    }
}
