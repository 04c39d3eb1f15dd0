//! The ledger: the chain of blocks plus every index over it.
//!
//! One `Ledger` per node. It seals ordered batches from the consensus
//! layer into blocks, appends them to the block store (the single copy
//! of on-chain data), keeps the chain linkage verified, and maintains
//! every index structure of §IV-B/§VI on every append: one layered
//! index per indexed column — authenticated, so the same index answers
//! plain and thin-client queries. The block-level B⁺-tree's lookups are
//! the store's (its chain-order manifest carries each block's first tid
//! and timestamp). The two system tracking indexes on `SenID` and
//! `Tname` ("created on all tables for all historical transactions",
//! §V-A) exist from genesis, and their discrete first level is the
//! table-level bitmap index (one block bitmap per table) and its twin
//! on senders. Only `sen_id` keeps per-block trees, which an operator
//! trace probes: `tname` is its first level only (DESIGN §4).

use parking_lot::{Condvar, Mutex, RwLock};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::{MacKeypair, Signer};
use sebdb_index::{column_slug, family_layered, Bitmap, EqualDepthHistogram, LayeredIndex};
use sebdb_parallel::Tracked;
use sebdb_storage::{
    BlockStore, IndexCheckpoint, PagedIndexReader, RawExtent, StorageError, TxPtr,
};
use sebdb_types::{Block, BlockId, ColumnRef, TableSchema, Timestamp, Transaction};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Errors from the ledger.
#[derive(Debug)]
pub enum LedgerError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// Chain linkage or integrity violation.
    BadBlock(String),
    /// Index configuration problem.
    BadIndex(String),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Storage(e) => write!(f, "storage: {e}"),
            LedgerError::BadBlock(m) => write!(f, "bad block: {m}"),
            LedgerError::BadIndex(m) => write!(f, "bad index: {m}"),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<StorageError> for LedgerError {
    fn from(e: StorageError) -> Self {
        LedgerError::Storage(e)
    }
}

/// Identifies a layered index: `(table, column)`, with `None` table
/// meaning "all tables" (system indexes).
pub type IndexKey = (Option<String>, String);

/// The registry key of the index on `table.column` (names fold to
/// lower case).
fn index_key(table: Option<&str>, column: &str) -> IndexKey {
    (
        table.map(str::to_ascii_lowercase),
        column.to_ascii_lowercase(),
    )
}

/// One index family behind its own lock.
type Family = Arc<RwLock<LayeredIndex>>;

/// Number of histogram buckets for continuous layered indexes (the
/// paper sets the histogram depth to 100 in §VII-D).
pub const DEFAULT_HISTOGRAM_BUCKETS: usize = 100;

/// Checks a transaction's `Sig` system attribute against the sender's
/// registered key material ("Sig guarantees unforgeability of
/// transactions", §IV-A). Returning `false` rejects the whole block.
pub type TxVerifier = dyn Fn(&Transaction) -> bool + Send + Sync;

/// The ledger.
pub struct Ledger {
    store: Arc<BlockStore>,
    /// Every index family, each behind its own lock, so a reader waits
    /// only for its own family's update or checkpoint. The registry's
    /// write lock is taken only by [`Self::create_layered_index`], and
    /// no thread holds the registry lock while it takes a family's
    /// (the families are `Arc`s cloned out first): a join reads two
    /// families at once.
    indexes: RwLock<HashMap<IndexKey, Family>>,
    last_hash: RwLock<Digest>,
    signer: MacKeypair,
    tx_verifier: RwLock<Option<Box<TxVerifier>>>,
    /// Fully-applied height: blocks `0..applied` are persisted AND
    /// indexed (schemas included, at the node layer). The store's
    /// height runs ahead of it only inside a block's apply steps or
    /// after a failed one; readers never see a height whose indexes
    /// are still being built.
    ///
    /// The applied height carries the zero-cost [`Tracked`] marker:
    /// the pipeline model suite wraps the same state in the model
    /// checker's race-detecting twin (DESIGN.md §14).
    applied: Tracked<AtomicU64>,
    /// Watch pair for [`Self::wait_for_height`]: `applied` is updated
    /// under this mutex so waiters cannot miss a notify.
    height_watch: Mutex<()>,
    height_cv: Condvar,
    /// Fault-injection hook run before a block's indexes are built.
    /// Concurrency tests use it to panic or park the applier's index
    /// step at a precise block boundary; production paths never install
    /// one.
    index_fault: RwLock<Option<Box<IndexFaultHook>>>,
    /// Automatic index-checkpoint cadence in blocks (`0` = disabled).
    checkpoint_every: AtomicU64,
    /// Registered incremental materialized `TRACE` views (see
    /// [`crate::views`]).
    views: crate::views::ViewEngine,
}

/// Hook invoked with each block just before it is indexed (see
/// [`Ledger::set_index_fault`]).
pub type IndexFaultHook = dyn Fn(&Block) + Send + Sync;

impl Ledger {
    /// Creates a ledger over `store` (which must be empty or previously
    /// written by a ledger with the same configuration). The system
    /// tracking indexes on `SenID` and `Tname` are created immediately,
    /// `Tname`'s first level only: the one place that decides it.
    pub fn new(store: Arc<BlockStore>, signer: MacKeypair) -> Result<Self, LedgerError> {
        let opened = Instant::now();
        let ledger = Ledger {
            store,
            indexes: RwLock::new(HashMap::new()),
            last_hash: RwLock::new(Digest::ZERO),
            signer,
            tx_verifier: RwLock::new(None),
            applied: Tracked::new(AtomicU64::new(0)),
            height_watch: Mutex::new(()),
            height_cv: Condvar::new(),
            index_fault: RwLock::new(None),
            checkpoint_every: AtomicU64::new(0),
            views: crate::views::ViewEngine::default(),
        };
        // Attach frozen prefixes first: each valid index checkpoint
        // behind the manifest commit point replaces replaying the
        // blocks it covers. Stale or corrupt checkpoints come back as
        // `None` (the store already deleted them) and that family
        // rebuilds from block zero.
        let mut frozen_loaded = 0usize;
        for cold in [
            LayeredIndex::new_discrete(None, ColumnRef::SenId),
            LayeredIndex::new_first_level(None, ColumnRef::Tname),
        ] {
            let col = cold.column;
            let key: IndexKey = (None, column_slug(&col));
            let frozen = ledger.reattach_index(None, col)?;
            frozen_loaded += usize::from(frozen.is_some());
            let index = frozen.unwrap_or(cold);
            ledger
                .indexes
                .write()
                .insert(key, Arc::new(RwLock::new(index)));
        }
        // Rebuild indexes from blocks past the lowest frozen height
        // (restart path). A crash between persist and index leaves
        // blocks on disk with no index entries; this replay makes them
        // whole again, so the applied height always restarts equal to
        // the persisted height. Families whose checkpoints reach past
        // the replay floor skip the blocks they already cover, so with
        // up-to-date checkpoints the replayed tail is O(cadence), not
        // O(chain).
        let height = ledger.store.height();
        let replay_from = ledger.replay_floor().min(height);
        for bid in replay_from..height {
            let block = ledger.store.read(bid)?;
            ledger.index_block(&block);
        }
        if height > 0 {
            *ledger.last_hash.write() = ledger.store.read(height - 1)?.header.block_hash;
        }
        ledger.applied.store(height, Ordering::Release);
        // Persisted tracking views come back empty; each one's first
        // serve extends it from block 0.
        ledger.load_trace_views()?;
        ledger
            .store
            .stats
            .open_millis
            .store(opened.elapsed().as_millis() as u64, Ordering::Relaxed);
        if frozen_loaded > 0 {
            eprintln!(
                "sebdb: ledger open loaded {frozen_loaded} index checkpoint(s), replayed {} tail block(s)",
                height - replay_from
            );
        }
        Ok(ledger)
    }

    /// Lowest chain height any index family has state for — the block
    /// the restart replay must resume from.
    fn replay_floor(&self) -> u64 {
        let floors = self.families().into_iter().map(|(_, f)| f.read().covered());
        floors.min().unwrap_or(u64::MAX)
    }

    /// Every index family with its key, cloned out of the registry so
    /// the caller takes each family's lock with the registry's
    /// released.
    fn families(&self) -> Vec<(IndexKey, Family)> {
        let indexes = self.indexes.read();
        indexes
            .iter()
            .map(|(k, f)| (k.clone(), Arc::clone(f)))
            .collect()
    }

    /// The index on `(table, col)` behind its published checkpoint, if
    /// the store holds a valid one.
    fn reattach_index(
        &self,
        table: Option<&str>,
        col: ColumnRef,
    ) -> Result<Option<LayeredIndex>, LedgerError> {
        let family = family_layered(table, &column_slug(&col));
        let frozen = self.store.load_index_checkpoint(&family)?;
        Ok(frozen.map(|r| LayeredIndex::from_frozen(table.map(str::to_string), col, r)))
    }

    /// Applied chain height: every block below it is persisted and
    /// indexed. This is the height writers observe after their commit
    /// ack and the bound readers scan to.
    pub fn height(&self) -> BlockId {
        self.applied.load(Ordering::Acquire)
    }

    /// Persisted chain height: ahead of [`Self::height`] only between
    /// a block's persist and its index step, or after the applier
    /// failed there.
    pub fn chain_height(&self) -> BlockId {
        self.store.height()
    }

    /// Blocks until the applied height reaches `target`, `deadline`
    /// passes, or `abort` returns true (checked on every wakeup).
    /// Returns whether the height was reached.
    pub fn wait_for_height(
        &self,
        target: BlockId,
        deadline: Instant,
        abort: impl Fn() -> bool,
    ) -> bool {
        if self.height() >= target {
            return true;
        }
        let mut guard = self.height_watch.lock();
        loop {
            if self.applied.load(Ordering::Acquire) >= target {
                return true;
            }
            if abort() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Sliced so an abort condition raised without a notify (a
            // poisoned applier that died before poisoning could wake
            // us) is still observed promptly.
            let slice = (deadline - now).min(std::time::Duration::from_millis(100));
            self.height_cv.wait_timeout(&mut guard, slice);
        }
    }

    /// Wakes every [`Self::wait_for_height`] waiter so it re-checks its
    /// abort condition (used when the applier dies).
    pub fn notify_height_waiters(&self) {
        let _guard = self.height_watch.lock();
        self.height_cv.notify_all();
    }

    /// Advances the applied height to `to` and wakes height waiters;
    /// [`Self::index_appended`] runs it after [`Self::index_block`].
    fn advance_applied(&self, to: BlockId) {
        let guard = self.height_watch.lock();
        if to > self.applied.load(Ordering::Acquire) {
            self.applied.store(to, Ordering::Release);
        }
        drop(guard);
        self.height_cv.notify_all();
    }

    /// Hash of the chain tip ([`Digest::ZERO`] when empty).
    pub fn tip_hash(&self) -> Digest {
        *self.last_hash.read()
    }

    /// The raw store (for I/O statistics).
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    /// Reads a block from the store.
    pub fn read_block(&self, bid: BlockId) -> Result<Arc<Block>, LedgerError> {
        Ok(self.store.read(bid)?)
    }

    /// The tuples `ptrs` point at as stored, one [`RawExtent`] per
    /// pointer run (`BlockStore::fetch_raw`): the index-driven fetch.
    /// Pointers sorted by `(block, position)` read the fewest runs, and
    /// each partition's tuples come back in chain order.
    pub fn fetch_raw(&self, ptrs: &[TxPtr]) -> Result<Vec<RawExtent>, LedgerError> {
        Ok(self.store.fetch_raw(ptrs)?)
    }

    /// The transactions `ptrs` point at, decoded, in input order (any
    /// order, repeats included).
    pub(crate) fn read_txs(&self, ptrs: &[TxPtr]) -> Result<Vec<Transaction>, LedgerError> {
        let mut order: Vec<usize> = (0..ptrs.len()).collect();
        order.sort_by_key(|&i| ptrs[i]);
        let sorted: Vec<TxPtr> = order.iter().map(|&i| ptrs[i]).collect();
        let runs = self.store.fetch_raw(&sorted)?;
        let mut txs = Vec::with_capacity(ptrs.len());
        for t in runs.iter().flat_map(RawExtent::tuples) {
            txs.push((t.bid, t.canon, t.decode()?));
        }
        // Runs group by partition: back to pointer order, then to input
        // order, one tuple per pointer.
        txs.sort_by_key(|&(bid, canon, _)| (bid, canon));
        let mut out: Vec<Option<Transaction>> = (0..ptrs.len()).map(|_| None).collect();
        for (&pos, (_, _, tx)) in order.iter().zip(txs) {
            out[pos] = Some(tx);
        }
        let missing = || StorageError::Corrupt("a pointer read no tuple".into());
        Ok(out
            .into_iter()
            .map(|tx| tx.ok_or_else(missing))
            .collect::<Result<_, _>>()?)
    }

    /// [`Self::read_txs`] behind `Arc`s, kept for the benchmark's
    /// pinned fetch step; goes with ROADMAP item 1(b).
    pub fn read_txs_grouped(&self, ptrs: &[TxPtr]) -> Result<Vec<Arc<Transaction>>, LedgerError> {
        Ok(self.read_txs(ptrs)?.into_iter().map(Arc::new).collect())
    }

    /// `table`'s relation partition extents of `bids` as stored, one per
    /// planned run (`BlockStore::relation_runs`) — the one relation
    /// scan: Q4's Scan and Bitmap arms and the hash joins project its
    /// tuples and decode only the ones they return.
    pub fn scan_relation_raw(
        &self,
        bids: &[BlockId],
        table: &str,
    ) -> Result<Vec<RawExtent>, LedgerError> {
        Ok(self.store.scan_relation_raw(bids, table)?)
    }

    /// Seals an ordered batch into the next block without appending it
    /// (the node applies schema transactions from the sealed block
    /// *before* the append so readers never observe a height whose
    /// schemas are missing). Takes the batch by value: the
    /// transactions move into the sealed block instead of being
    /// copied, which matters at thousand-transaction block sizes.
    pub fn seal_ordered(&self, ordered: OrderedBlock) -> Result<Block, LedgerError> {
        let height = self.store.height();
        if ordered.seq != height {
            return Err(LedgerError::BadBlock(format!(
                "ordered batch seq {} but chain height {height}",
                ordered.seq
            )));
        }
        Ok(Block::seal(
            self.tip_hash(),
            height,
            ordered.timestamp_ms,
            ordered.txs,
            |payload| self.signer.sign(payload).to_bytes(),
        ))
    }

    /// Seals an ordered batch into the next block, verifies it, appends
    /// it, and updates every index. Returns the sealed block.
    pub fn append_ordered(&self, ordered: OrderedBlock) -> Result<Arc<Block>, LedgerError> {
        let block = self.seal_ordered(ordered)?;
        self.append_block(block)
    }

    /// Installs a transaction-signature verifier applied to every
    /// transaction of every appended block. `None` disables checking
    /// (the default — benchmark transactions carry placeholder MACs).
    pub fn set_tx_verifier(&self, verifier: Option<Box<TxVerifier>>) {
        *self.tx_verifier.write() = verifier;
    }

    /// Appends an externally sealed block (e.g. received via gossip),
    /// verifying linkage, integrity, and (when a verifier is installed)
    /// every transaction signature first. Persists, then indexes, so
    /// the applied height advances before this returns.
    pub fn append_block(&self, block: Block) -> Result<Arc<Block>, LedgerError> {
        let block = self.persist_block(block)?;
        self.index_appended(&block);
        Ok(block)
    }

    /// The persist step of the write path (after [`Self::seal_ordered`]):
    /// verifies linkage, integrity, and transaction signatures (in
    /// block order; the first failure names its `tid`), then
    /// appends the block to durable storage and advances the chain
    /// tip. Does NOT index and does NOT advance the applied height —
    /// the caller must follow up with [`Self::index_appended`].
    pub fn persist_block(&self, block: Block) -> Result<Arc<Block>, LedgerError> {
        if block.header.prev_hash != self.tip_hash() {
            return Err(LedgerError::BadBlock(format!(
                "block {} does not extend the tip",
                block.header.height
            )));
        }
        if !block.verify_integrity() {
            return Err(LedgerError::BadBlock(format!(
                "block {} fails integrity verification",
                block.header.height
            )));
        }
        if let Some(verify) = self.tx_verifier.read().as_ref() {
            if let Some(bad) = block.transactions.iter().find(|tx| !verify(tx)) {
                return Err(LedgerError::BadBlock(format!(
                    "block {} carries transaction {} with an invalid signature",
                    block.header.height, bad.tid
                )));
            }
        }
        self.store.append(&block)?;
        *self.last_hash.write() = block.header.block_hash;
        Ok(Arc::new(block))
    }

    /// The post-persist step the applier and [`Self::append_block`]
    /// share, on a block previously appended via
    /// [`Self::persist_block`]: indexes it into every family, then
    /// advances the applied height and wakes height waiters. Blocks
    /// must be indexed in height order.
    pub fn index_appended(&self, block: &Block) {
        self.index_block(block);
        self.advance_applied(block.header.height + 1);
    }

    /// Installs (or clears) a fault-injection hook invoked with each
    /// block just before its indexes are built. Test instrumentation
    /// for the applier's failure paths — a hook that panics simulates
    /// a crash in the index step mid-block.
    pub fn set_index_fault(&self, hook: Option<Box<IndexFaultHook>>) {
        *self.index_fault.write() = hook;
    }

    /// Indexes `block` into every family: the one index step
    /// [`Self::index_appended`] and the restart replay run. The block's
    /// tuples are partitioned by (lowercased) relation once, so each
    /// per-table family is handed exactly its rows; the system
    /// (`None`-table) families walk every tuple. On a cadence boundary
    /// each family freezes behind a checkpoint right after its update.
    /// Blocks must arrive in height order; each family skips blocks it
    /// already covers.
    fn index_block(&self, block: &Block) {
        if let Some(hook) = self.index_fault.read().as_ref() {
            hook(block);
        }
        let mut rows: HashMap<String, Vec<u32>> = HashMap::new();
        for (i, tx) in block.transactions.iter().enumerate() {
            rows.entry(tx.tname.to_ascii_lowercase())
                .or_default()
                .push(i as u32);
        }
        let checkpoint = self.checkpoint_due(block.header.height + 1);
        for ((table, _), family) in self.families() {
            let mut index = family.write();
            match table {
                Some(table) => {
                    let covered = rows.get(&table).map_or(&[][..], Vec::as_slice);
                    index.update_rows(block, covered);
                }
                None => index.update(block),
            }
            if checkpoint {
                // Best-effort: a failed or interrupted checkpoint
                // leaves the previous one in place and heals at the
                // next open.
                let _ = self.freeze(&mut index);
            }
        }
    }

    /// Whether the automatic checkpoint cadence fires once `covered`
    /// blocks are indexed.
    fn checkpoint_due(&self, covered: u64) -> bool {
        let every = self.checkpoint_every.load(Ordering::Relaxed);
        every > 0 && covered.is_multiple_of(every)
    }

    /// Sets the automatic index-checkpoint cadence: every `every`
    /// indexed blocks each index family freezes its state into an
    /// on-disk checkpoint and drops its resident tail (`0`, the
    /// default, disables it).
    pub fn set_checkpoint_every(&self, every: u64) {
        self.checkpoint_every.store(every, Ordering::Relaxed);
    }

    /// Writes one family's checkpoint behind the `.tmp` → rename commit
    /// point and re-opens it.
    fn publish_checkpoint(&self, cp: &IndexCheckpoint) -> Result<PagedIndexReader, LedgerError> {
        self.store.write_index_checkpoint(cp)?;
        self.store
            .load_index_checkpoint(&cp.family)?
            .ok_or_else(|| LedgerError::BadIndex("published checkpoint did not reopen".into()))
    }

    /// Freezes `index` behind a checkpoint published through the store.
    fn freeze(&self, index: &mut LayeredIndex) -> Result<(), LedgerError> {
        index.adopt_frozen(self.publish_checkpoint(&index.checkpoint())?);
        Ok(())
    }

    /// Freezes every index family into an on-disk checkpoint;
    /// subsequent opens replay only blocks indexed after this point.
    /// Returns how many checkpoints were published.
    pub fn checkpoint_indexes(&self) -> Result<usize, LedgerError> {
        let families = self.families();
        for (_, family) in &families {
            self.freeze(&mut family.write())?;
        }
        Ok(families.len())
    }

    /// Resident bytes across every index family: tail structures plus
    /// each frozen checkpoint's fence/meta top level. Paged level-1
    /// index blocks live in the store's bounded index-block cache and
    /// are counted there ([`sebdb_storage::IndexBlockCache`]), not
    /// here.
    pub fn index_memory_bytes(&self) -> usize {
        let families = self.families().into_iter();
        families.map(|(_, f)| f.read().memory_bytes()).sum()
    }

    /// Creates the layered index on `table.column`, replaying all
    /// existing blocks. For continuous attributes the equal-depth
    /// histogram is sampled from history (§IV-B); with no history yet,
    /// the `sample` override seeds it.
    pub fn create_layered_index(
        &self,
        schema: &TableSchema,
        column: &str,
        sample: Option<Vec<i64>>,
    ) -> Result<(), LedgerError> {
        let col = schema
            .resolve(column)
            .map_err(|e| LedgerError::BadIndex(e.to_string()))?;
        let key = index_key(Some(&schema.name), column);
        if self.indexes.read().contains_key(&key) {
            return Ok(());
        }
        // A previous run of this node may have checkpointed the same
        // family; reattaching the frozen prefix turns the replay below
        // into a tail replay. The histogram travels in the checkpoint
        // meta, so sampling only happens when a family starts cold.
        let mut index = match self.reattach_index(Some(&schema.name), col)? {
            Some(frozen) => frozen,
            None => {
                let table = Some(schema.name.clone());
                if col.data_type(schema).is_continuous() {
                    let sample = match sample {
                        Some(s) => s,
                        None => self.sample_ranks(schema, col)?,
                    };
                    let hist = EqualDepthHistogram::from_sample(sample, DEFAULT_HISTOGRAM_BUCKETS);
                    LayeredIndex::new_continuous(table, col, hist)
                } else {
                    LayeredIndex::new_discrete(table, col)
                }
            }
        };
        // Replay only applied blocks: a block the applier has persisted
        // but not yet indexed will reach the new index through its
        // index step once it is registered below. (Index creation
        // is a control-plane operation; callers run it with the applier
        // quiescent, as before.) The frozen prefix is not replayed.
        for bid in index.covered()..self.height() {
            let block = self.store.read(bid)?;
            index.update(&block);
        }
        self.indexes
            .write()
            .insert(key, Arc::new(RwLock::new(index)));
        Ok(())
    }

    /// Samples numeric ranks of `col` from historical blocks for
    /// histogram construction.
    fn sample_ranks(&self, schema: &TableSchema, col: ColumnRef) -> Result<Vec<i64>, LedgerError> {
        let mut ranks = Vec::new();
        let height = self.height();
        // Sample at most ~100 blocks, evenly spaced.
        let step = (height / 100).max(1);
        let mut bid = 0;
        while bid < height {
            let block = self.store.read(bid)?;
            for tx in &block.transactions {
                if tx.tname.eq_ignore_ascii_case(&schema.name) {
                    if let Some(rank) = tx.get(col).and_then(|v| v.numeric_rank()) {
                        ranks.push(rank);
                    }
                }
            }
            bid += step;
        }
        Ok(ranks)
    }

    /// Runs `f` with the layered index on `(table, column)`, if any.
    pub fn with_layered<R>(
        &self,
        table: Option<&str>,
        column: &str,
        f: impl FnOnce(&LayeredIndex) -> R,
    ) -> Option<R> {
        let family = self.indexes.read().get(&index_key(table, column)).cloned();
        family.map(|family| f(&family.read()))
    }

    /// [`Self::with_layered`] under the name the frozen benchmark
    /// harness calls; goes when the harness is re-pinned (ROADMAP item 1).
    pub fn with_ali<R>(
        &self,
        table: Option<&str>,
        column: &str,
        f: impl FnOnce(&LayeredIndex) -> R,
    ) -> Option<R> {
        self.with_layered(table, column, f)
    }

    /// Bitmap of block ids whose contents can fall in the time window
    /// (conservative), or all blocks when `window` is `None`.
    pub fn window_mask(&self, window: Option<(Timestamp, Timestamp)>) -> Bitmap {
        // Scans are bounded by the applied height: a persisted block
        // whose indexes are still being built is invisible until its
        // index step finishes, so every strategy (scan, bitmap,
        // layered) answers over the same prefix of the chain.
        self.window_mask_at(window, self.height())
    }

    /// [`Self::window_mask`] bounded at an explicit `height` instead
    /// of the current applied height. A view's serve captures the
    /// applied height once and masks at it, so the rows it appends
    /// cover exactly the blocks below its new cursor even if the
    /// applier advances mid-walk.
    pub fn window_mask_at(
        &self,
        window: Option<(Timestamp, Timestamp)>,
        height: BlockId,
    ) -> Bitmap {
        let range = match window {
            None => height.checked_sub(1).map(|hi| (0, hi)),
            Some((s, e)) => self.store.blocks_in_window(s, e, height),
        };
        let mut mask = Bitmap::new();
        if let Some((lo, hi)) = range {
            mask.set_range(lo as usize, hi as usize);
        }
        mask
    }

    /// The registered incremental materialized `TRACE` views (see
    /// [`crate::views`]).
    pub fn trace_views(&self) -> &crate::views::ViewEngine {
        &self.views
    }

    /// Verifies the whole chain (linkage + per-block integrity).
    /// Expensive; used by tests and audits.
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let mut prev = Digest::ZERO;
        for bid in 0..self.store.height() {
            let block = self.store.read(bid)?;
            if block.header.prev_hash != prev {
                return Err(LedgerError::BadBlock(format!("block {bid} linkage broken")));
            }
            if !block.verify_integrity() {
                return Err(LedgerError::BadBlock(format!("block {bid} corrupt")));
            }
            prev = block.header.block_hash;
        }
        Ok(())
    }

    /// All headers (what a thin client syncs), each from its chain
    /// record alone.
    pub fn headers(&self) -> Result<Vec<sebdb_types::BlockHeader>, LedgerError> {
        (0..self.store.height())
            .map(|bid| Ok(self.store.header(bid)?.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_consensus::traits::now_ms;
    use sebdb_crypto::sig::KeyId;
    use sebdb_sql::TraceSpec;
    use sebdb_storage::{StoreConfig, INDEX_CHECKPOINT_DIR};
    use sebdb_types::{Column, DataType, Value};

    fn signer() -> MacKeypair {
        MacKeypair::from_key([9u8; 32])
    }

    fn ledger() -> Ledger {
        let store = BlockStore::temporary(StoreConfig::default()).unwrap();
        Ledger::new(Arc::new(store), signer()).unwrap()
    }

    /// A store directory for a test that reopens its store, removed
    /// when the test ends, pass or fail.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("sebdb-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn donate_schema() -> TableSchema {
        TableSchema::new(
            "donate",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("project", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        )
    }

    fn ordered(seq: u64, amounts: &[i64]) -> OrderedBlock {
        OrderedBlock {
            seq,
            timestamp_ms: now_ms() + seq,
            txs: amounts
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let mut t = Transaction::new(
                        now_ms(),
                        KeyId([(a % 2) as u8; 8]),
                        "donate",
                        vec![Value::str("d"), Value::str("p"), Value::decimal(a)],
                    );
                    t.tid = seq * 100 + i as u64 + 1;
                    t
                })
                .collect(),
        }
    }

    #[test]
    fn append_and_verify_chain() {
        let l = ledger();
        l.append_ordered(ordered(0, &[10, 20])).unwrap();
        l.append_ordered(ordered(1, &[30])).unwrap();
        assert_eq!(l.height(), 2);
        l.verify_chain().unwrap();
        assert_ne!(l.tip_hash(), Digest::ZERO);
    }

    #[test]
    fn rejects_wrong_seq_and_bad_linkage() {
        let l = ledger();
        assert!(l.append_ordered(ordered(5, &[1])).is_err());
        l.append_ordered(ordered(0, &[1])).unwrap();
        // A block not extending the tip is rejected.
        let rogue = Block::seal(Digest::ZERO, 1, now_ms(), vec![], |_| vec![]);
        assert!(l.append_block(rogue).is_err());
    }

    #[test]
    fn system_tracking_indexes_update_automatically() {
        let l = ledger();
        l.append_ordered(ordered(0, &[1, 2])).unwrap(); // senders 1, 0
        l.append_ordered(ordered(1, &[3])).unwrap(); // sender 1
        let sender1 = Value::Bytes(vec![1u8; 8]);
        let hits = l
            .with_layered(None, "sen_id", |idx| {
                idx.candidate_blocks(&sebdb_index::KeyPredicate::Eq(sender1))
            })
            .unwrap();
        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn layered_index_replays_history() {
        let l = ledger();
        l.append_ordered(ordered(0, &[10, 900])).unwrap();
        l.append_ordered(ordered(1, &[500])).unwrap();
        l.create_layered_index(&donate_schema(), "amount", None)
            .unwrap();
        let hits = l
            .with_layered(Some("donate"), "amount", |idx| {
                idx.candidate_blocks(&sebdb_index::KeyPredicate::Range(
                    Value::decimal(450),
                    Value::decimal(550),
                ))
            })
            .unwrap();
        assert!(hits.get(1));
        // Creating the same index again is a no-op.
        l.create_layered_index(&donate_schema(), "amount", None)
            .unwrap();
    }

    #[test]
    fn window_mask_covers_chain() {
        let l = ledger();
        l.append_ordered(ordered(0, &[1])).unwrap();
        l.append_ordered(ordered(1, &[2])).unwrap();
        let all = l.window_mask(None);
        assert_eq!(all.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        let none = l.window_mask(Some((0, 1)));
        assert!(none.count_ones() <= 2); // far-past window: conservative
    }

    #[test]
    fn restart_rebuilds_indexes() {
        let dir = Scratch::new("ledger");
        let cfg = StoreConfig::default();
        {
            let store = Arc::new(BlockStore::open(&dir.0, cfg.clone()).unwrap());
            let l = Ledger::new(store, signer()).unwrap();
            l.append_ordered(ordered(0, &[10, 20])).unwrap();
            l.append_ordered(ordered(1, &[30])).unwrap();
        }
        let store = Arc::new(BlockStore::open(&dir.0, cfg).unwrap());
        let l = Ledger::new(store, signer()).unwrap();
        assert_eq!(l.height(), 2);
        l.verify_chain().unwrap();
        // Indexes were rebuilt: the tname index finds both blocks.
        let hits = l
            .with_layered(None, "tname", |idx| {
                idx.candidate_blocks(&sebdb_index::KeyPredicate::Eq(Value::str("donate")))
            })
            .unwrap();
        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        // And appends continue from the right tip.
        l.append_ordered(ordered(2, &[40])).unwrap();
        l.verify_chain().unwrap();
    }

    #[test]
    fn staged_stages_gate_applied_height() {
        let l = ledger();
        let block = l.seal_ordered(ordered(0, &[10, 20])).unwrap();
        let block = l.persist_block(block).unwrap();
        // Persisted but not indexed: the chain tip moved, the applied
        // height (and therefore every reader-visible view) did not.
        assert_eq!(l.chain_height(), 1);
        assert_eq!(l.height(), 0);
        assert_eq!(l.window_mask(None).count_ones(), 0);
        l.index_appended(&block);
        assert_eq!(l.height(), 1);
        assert_eq!(l.window_mask(None).count_ones(), 1);
    }

    #[test]
    fn wait_for_height_wakes_on_index() {
        let l = Arc::new(ledger());
        let block = l.seal_ordered(ordered(0, &[7])).unwrap();
        let block = l.persist_block(block).unwrap();
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.wait_for_height(
                    1,
                    Instant::now() + std::time::Duration::from_secs(5),
                    || false,
                )
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        l.index_appended(&block);
        assert!(waiter.join().unwrap());
        // Abort wins over waiting.
        assert!(!l.wait_for_height(
            9,
            Instant::now() + std::time::Duration::from_secs(5),
            || true
        ));
    }

    #[test]
    fn crash_between_persist_and_index_heals_on_restart() {
        let dir = Scratch::new("stagecrash");
        let cfg = StoreConfig::default();
        {
            let store = Arc::new(BlockStore::open(&dir.0, cfg.clone()).unwrap());
            let l = Ledger::new(store, signer()).unwrap();
            l.append_ordered(ordered(0, &[10])).unwrap();
            // Simulate the applier dying between its persist and index
            // steps: block 1 reaches the store but no index family.
            let sealed = l.seal_ordered(ordered(1, &[20, 30])).unwrap();
            l.persist_block(sealed).unwrap();
            assert_eq!((l.chain_height(), l.height()), (2, 1));
        }
        let store = Arc::new(BlockStore::open(&dir.0, cfg).unwrap());
        let l = Ledger::new(store, signer()).unwrap();
        // Restart replays the persisted prefix: applied catches up and
        // the indexes cover the once-unindexed block.
        assert_eq!((l.chain_height(), l.height()), (2, 2));
        l.verify_chain().unwrap();
        let hits = l
            .with_layered(None, "tname", |idx| {
                idx.candidate_blocks(&sebdb_index::KeyPredicate::Eq(Value::str("donate")))
            })
            .unwrap();
        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        l.append_ordered(ordered(2, &[40])).unwrap();
        assert_eq!(l.height(), 3);
    }

    #[test]
    fn temporary_store_leaves_nothing_behind() {
        let l = ledger();
        let dir = l.store().dir().to_path_buf();
        l.append_ordered(ordered(0, &[10, 20])).unwrap();
        l.create_layered_index(&donate_schema(), "amount", None)
            .unwrap();
        assert!(l.checkpoint_indexes().unwrap() > 0);
        assert!(l
            .register_trace_view(TraceSpec::new(None, None, Some("donate")))
            .unwrap());
        let published = std::fs::read_dir(dir.join(INDEX_CHECKPOINT_DIR)).unwrap();
        assert!(published.count() > 0);
        assert!(l.store().load_view_registrations().unwrap().is_some());
        drop(l);
        assert!(!dir.exists(), "{} outlived its ledger", dir.display());
    }
}
