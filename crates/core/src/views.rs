//! Incremental materialized `TRACE` views: compute once, serve many.
//!
//! `TRACE` and the Algorithm-1 tracking walk (§V-A) are pure functions
//! of an append-only chain, which makes them the ideal
//! incremental-computation substrate: the answer after block *N+1* is
//! the answer after block *N* plus whatever block *N+1* contributes.
//! This module maintains exactly that. A [`TraceSpec`] is registered
//! once; registration **backfills** the materialized result from the
//! existing tracking executor bounded at the applied height captured
//! under the view's lock, and from then on every applied block's delta
//! is **folded** in — O(delta) per block instead of O(chain) per
//! query. Serving a matching `TRACE` clones the materialized rows with
//! zero index probes.
//!
//! Ordering makes this sound: all three physical strategies (scan,
//! bitmap, layered) emit tracking rows in *chain order* — ascending
//! block height, ascending tuple position within a block — so an
//! append-only fold reproduces a fresh re-execution byte for byte.
//! That is the module's non-negotiable equivalence gate, exercised
//! after every block by `tests/view_equivalence.rs` and on every
//! interleaving by the model twin (`sebdb-model`'s `view_model.rs`).
//!
//! Position in the write path: the fold is the last part of the
//! post-persist step the applier and the direct ledger path share
//! (index, advance the applied height, fold), so a block is folded
//! right after [`Ledger::height`] covers it, on the same thread, and a
//! view never observes a height above the applied height.
//!
//! Restart story: only the registrations persist (a versioned byte
//! encoding behind the store's `.tmp` → rename commit point); rows are
//! always rebuilt by re-backfilling on open, after the restart replay
//! has healed the indexes. A crash between persist and fold costs
//! nothing: folds are idempotent (a block below the view's fold
//! cursor is skipped) and the serve path catches a stale view up to
//! the applied height before answering.

use crate::executor::tracking::tracking_header;
use crate::executor::{ExecError, Executor, QueryResult, Strategy};
use crate::ledger::{Ledger, LedgerError};
use parking_lot::RwLock;
use sebdb_parallel::Tracked;
use sebdb_sql::TraceSpec;
use sebdb_types::{Block, BlockId, Decoder, Encoder, Transaction, TypeError, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version byte of the persisted registration encoding.
const REGISTRATION_VERSION: u8 = 1;

/// Counters over every registered view, in the [`sebdb_storage`]
/// `IoStats` style: plain atomics behind the zero-cost [`Tracked`]
/// race-detector marker (DESIGN.md §14), readable at any time.
#[derive(Default)]
pub struct ViewStats {
    /// Backfills run (initial registration + restart re-backfill).
    pub backfills: Tracked<AtomicU64>,
    /// Incremental refreshes: blocks folded into some view past its
    /// backfill (catch-up folds included).
    pub refreshes: Tracked<AtomicU64>,
    /// Rows appended by incremental folds (not backfill rows).
    pub delta_rows: Tracked<AtomicU64>,
    /// Queries answered from a materialized view.
    pub serve_hits: Tracked<AtomicU64>,
}

impl ViewStats {
    /// Snapshot of `(backfills, refreshes, delta_rows, serve_hits)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.backfills.load(Ordering::Relaxed),
            self.refreshes.load(Ordering::Relaxed),
            self.delta_rows.load(Ordering::Relaxed),
            self.serve_hits.load(Ordering::Relaxed),
        )
    }
}

/// Mutable state of one view, guarded by the view's lock: the fold
/// cursor and the materialized rows. Invariant (the backfill/fold
/// seam): `rows` is exactly the tracking result over blocks
/// `0..folded`, and `folded` never exceeds the applied height.
struct ViewState {
    /// Next height to fold: blocks `0..folded` are reflected in `rows`.
    folded: BlockId,
    /// Materialized result in chain order.
    rows: Vec<Vec<Value>>,
}

/// One registered tracking view.
pub struct TraceView {
    spec: TraceSpec,
    state: RwLock<ViewState>,
}

impl TraceView {
    fn new(spec: TraceSpec) -> TraceView {
        TraceView {
            spec,
            state: RwLock::new(ViewState {
                folded: 0,
                rows: Vec::new(),
            }),
        }
    }

    /// The registered predicate.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }

    /// The fold cursor: every block below it is reflected in the
    /// materialized rows.
    pub fn folded(&self) -> BlockId {
        self.state.read().folded
    }
}

/// The registry of materialized tracking views, owned by the ledger.
#[derive(Default)]
pub struct ViewEngine {
    views: RwLock<Vec<Arc<TraceView>>>,
    stats: ViewStats,
}

impl ViewEngine {
    /// The view registered for exactly `spec`, if any.
    pub fn matching(&self, spec: &TraceSpec) -> Option<Arc<TraceView>> {
        self.views.read().iter().find(|v| v.spec == *spec).cloned()
    }

    /// All registered views.
    fn all(&self) -> Vec<Arc<TraceView>> {
        self.views.read().clone()
    }

    /// Specs of every registered view.
    pub fn specs(&self) -> Vec<TraceSpec> {
        self.views.read().iter().map(|v| v.spec.clone()).collect()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.read().len()
    }

    /// True when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.read().is_empty()
    }

    /// The shared counters.
    pub fn stats(&self) -> &ViewStats {
        &self.stats
    }

    /// Versioned byte encoding of every registered spec (rows are
    /// never persisted — they rebuild by backfill on open).
    pub fn encode_registrations(&self) -> Vec<u8> {
        let specs = self.specs();
        let mut enc = Encoder::new();
        enc.put_u8(REGISTRATION_VERSION);
        enc.put_u32(specs.len() as u32);
        for spec in &specs {
            match spec.window {
                Some((s, e)) => {
                    enc.put_u8(1);
                    enc.put_u64(s);
                    enc.put_u64(e);
                }
                None => enc.put_u8(0),
            }
            match &spec.operator {
                Some(id) => {
                    enc.put_u8(1);
                    enc.put_raw(id);
                }
                None => enc.put_u8(0),
            }
            match &spec.operation {
                Some(t) => {
                    enc.put_u8(1);
                    enc.put_str(t);
                }
                None => enc.put_u8(0),
            }
        }
        enc.finish()
    }

    /// Decodes a registration blob written by
    /// [`Self::encode_registrations`]. Errors (unknown version, torn
    /// bytes) are the caller's signal to treat the file as absent.
    pub fn decode_registrations(bytes: &[u8]) -> Result<Vec<TraceSpec>, TypeError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.get_u8("view registration version")?;
        if version != REGISTRATION_VERSION {
            return Err(TypeError::BadTag {
                context: "view registration version",
                tag: version,
            });
        }
        let count = dec.get_u32("view registration count")?;
        let mut specs = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let window = match dec.get_u8("view window flag")? {
                0 => None,
                _ => {
                    let s = dec.get_u64("view window start")?;
                    let e = dec.get_u64("view window end")?;
                    Some((s, e))
                }
            };
            let operator = match dec.get_u8("view operator flag")? {
                0 => None,
                _ => {
                    let raw = dec.get_raw(8, "view operator id")?;
                    let mut id = [0u8; 8];
                    id.copy_from_slice(raw);
                    Some(id)
                }
            };
            let operation = match dec.get_u8("view operation flag")? {
                0 => None,
                _ => Some(dec.get_str("view operation")?.to_string()),
            };
            specs.push(TraceSpec {
                window,
                operator,
                operation,
            });
        }
        Ok(specs)
    }
}

/// Whether `tx` belongs to `spec`'s result — the single predicate
/// every strategy and the fold agree on: operator matches the sender
/// id, operation matches the transaction type case-insensitively, the
/// timestamp falls in the window (inclusive both ends), and internal
/// (`__`-prefixed schema-sync) transactions are invisible.
fn matches(spec: &TraceSpec, tx: &Transaction) -> bool {
    if tx.tname.starts_with("__") {
        return false;
    }
    if let Some(op) = &spec.operator {
        if tx.sender.as_bytes() != op {
            return false;
        }
    }
    if let Some(t) = &spec.operation {
        if !tx.tname.eq_ignore_ascii_case(t) {
            return false;
        }
    }
    match spec.window {
        None => true,
        Some((s, e)) => tx.ts >= s && tx.ts <= e,
    }
}

/// Appends `block`'s delta — its tuples that [`matches`] keeps, in
/// block order — to `state.rows` and advances the fold cursor.
/// Returns the number of rows appended.
fn fold_delta(state: &mut ViewState, spec: &TraceSpec, block: &Block) -> u64 {
    debug_assert_eq!(
        state.folded, block.header.height,
        "fold must be contiguous in height"
    );
    let before = state.rows.len();
    for tx in &block.transactions {
        if matches(spec, tx) {
            state.rows.push(crate::executor::materialize(tx));
        }
    }
    state.folded = block.header.height + 1;
    (state.rows.len() - before) as u64
}

impl Ledger {
    /// Registers an incremental materialized view for `spec` and
    /// backfills it from the tracking executor, bounded at the applied
    /// height captured under the view's lock (the backfill/fold seam:
    /// the cursor is set to exactly the backfilled height, so the
    /// first fold continues where the backfill stopped). Idempotent —
    /// re-registering an existing spec is a no-op. Returns whether the
    /// view is newly registered. The registration (not the rows) is
    /// persisted so a restarted node re-backfills it.
    pub fn register_trace_view(&self, spec: TraceSpec) -> Result<bool, LedgerError> {
        if !self.register_trace_view_volatile(spec)? {
            return Ok(false);
        }
        self.persist_view_registrations()?;
        Ok(true)
    }

    /// [`Self::register_trace_view`] without persisting the registry —
    /// the open path uses this while re-registering specs it just
    /// loaded.
    fn register_trace_view_volatile(&self, spec: TraceSpec) -> Result<bool, LedgerError> {
        if !spec.is_valid() {
            return Err(LedgerError::BadIndex(
                "tracking view needs at least one dimension".into(),
            ));
        }
        if self.trace_views().matching(&spec).is_some() {
            return Ok(false);
        }
        let view = Arc::new(TraceView::new(spec));
        {
            // Backfill under the (still-private) view's write lock.
            // Blocks applied after the captured height and before the
            // view lands in the registry are healed by the catch-up in
            // `fold_views` / `serve_trace_view`.
            let mut state = view.state.write();
            let height = self.height();
            let exec = Executor::new(self, None);
            let result = exec
                .run_trace_view_backfill(view.spec(), height)
                .map_err(exec_to_ledger)?;
            state.rows = result.rows;
            state.folded = height;
        }
        self.trace_views().views.write().push(view);
        self.trace_views()
            .stats
            .backfills
            .fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Serves a `TRACE` whose spec matches a registered view: catches
    /// the view up to the applied height (healing any staleness from a
    /// crash, restart, or stopped applier), then clones the
    /// materialized rows — zero index probes. `None` when no view
    /// matches `spec`.
    pub fn serve_trace_view(&self, spec: &TraceSpec) -> Result<Option<QueryResult>, LedgerError> {
        let Some(view) = self.trace_views().matching(spec) else {
            return Ok(None);
        };
        let target = self.height();
        let mut state = view.state.write();
        self.catch_up_locked(view.spec(), &mut state, target)?;
        self.trace_views()
            .stats
            .serve_hits
            .fetch_add(1, Ordering::Relaxed);
        Ok(Some(QueryResult {
            columns: tracking_header(),
            rows: state.rows.clone(),
        }))
    }

    /// The fold cursor of the view registered for `spec`, if any
    /// (tests and stats).
    pub fn trace_view_folded(&self, spec: &TraceSpec) -> Option<BlockId> {
        self.trace_views().matching(spec).map(|v| v.folded())
    }

    /// Folds one applied block into every registered view. The
    /// post-persist step calls this after the applied-height advance,
    /// so a view's cursor never runs ahead of [`Ledger::height`].
    /// Idempotent per block: a block below a view's cursor is skipped,
    /// so a re-fold after a healed crash is harmless. A gap (view registered mid-stream before its
    /// registry insert was visible to this path) is closed by catching
    /// up from the store.
    pub(crate) fn fold_views(&self, block: &Block) -> Result<(), LedgerError> {
        if self.trace_views().is_empty() {
            return Ok(());
        }
        debug_assert!(
            block.header.height < self.height(),
            "view fold observed height {} above applied height {}",
            block.header.height,
            self.height()
        );
        let height = block.header.height;
        for view in self.trace_views().all() {
            let mut state = view.state.write();
            if state.folded > height {
                continue; // already folded (idempotent re-fold)
            }
            if state.folded < height {
                self.catch_up_locked(view.spec(), &mut state, height)?;
            }
            let delta = fold_delta(&mut state, view.spec(), block);
            let stats = self.trace_views().stats();
            stats.refreshes.fetch_add(1, Ordering::Relaxed);
            stats.delta_rows.fetch_add(delta, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Folds blocks `state.folded..target` into one view from the
    /// store (all of them are applied, hence persisted and readable).
    fn catch_up_locked(
        &self,
        spec: &TraceSpec,
        state: &mut ViewState,
        target: BlockId,
    ) -> Result<(), LedgerError> {
        while state.folded < target {
            let block = self.read_block(state.folded)?;
            let delta = fold_delta(state, spec, &block);
            let stats = self.trace_views().stats();
            stats.refreshes.fetch_add(1, Ordering::Relaxed);
            stats.delta_rows.fetch_add(delta, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Re-registers (and re-backfills) every persisted view
    /// registration. The open path calls this after the restart replay
    /// has healed the indexes and the applied height is final, so the
    /// backfill sees a consistent chain. Advisory: a torn or
    /// unreadable file costs the registrations, never correctness.
    pub(crate) fn load_trace_views(&self) -> Result<usize, LedgerError> {
        let Some(bytes) = self.store().load_view_registrations()? else {
            return Ok(0);
        };
        let Ok(specs) = ViewEngine::decode_registrations(&bytes) else {
            eprintln!("sebdb: discarding undecodable view registrations");
            return Ok(0);
        };
        let mut loaded = 0;
        for spec in specs {
            if self.register_trace_view_volatile(spec)? {
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    fn persist_view_registrations(&self) -> Result<(), LedgerError> {
        let bytes = self.trace_views().encode_registrations();
        self.store().save_view_registrations(&bytes)?;
        Ok(())
    }
}

/// Maps executor errors surfacing inside ledger-level view plumbing
/// back onto [`LedgerError`].
fn exec_to_ledger(e: ExecError) -> LedgerError {
    match e {
        ExecError::Ledger(e) => e,
        other => LedgerError::BadIndex(other.to_string()),
    }
}

impl Executor<'_> {
    /// A fresh tracking execution for a view's backfill, bounded at
    /// `height` and never routed through a view itself: strategy
    /// resolution is forced past `Auto` so registration cannot
    /// recurse.
    pub(crate) fn run_trace_view_backfill(
        &self,
        spec: &TraceSpec,
        height: BlockId,
    ) -> Result<QueryResult, ExecError> {
        self.run_trace_bounded(
            spec.window,
            &spec.operator.map(sebdb_crypto::sig::KeyId),
            spec.operation.as_deref(),
            Strategy::Layered,
            height,
        )
    }
}
