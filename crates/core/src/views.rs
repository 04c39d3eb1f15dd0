//! Materialized `TRACE` views: compute once, serve many.
//!
//! `TRACE` and the Algorithm-1 tracking walk (§V-A) are pure functions
//! of an append-only chain, which makes them an incremental-computation
//! substrate: the answer over blocks `0..h` is the answer over `0..f`
//! plus the tracking walk over `f..h`. A [`TraceSpec`] is registered
//! once (no block is read); every `Auto` `TRACE` that matches it is
//! served by [`Ledger::serve_trace_view`], which captures the applied
//! height, takes the view's write lock, appends the tracking walk over
//! the blocks applied since the view's cursor, moves the cursor there
//! and clones the rows. A caught-up view answers with zero index
//! probes and zero block reads.
//!
//! Ordering makes this sound: every physical strategy (scan, bitmap,
//! layered) emits tracking rows in *chain order* — ascending block
//! height, ascending tuple position within a block — so appending the
//! walk over `f..h` to the walk over `0..f` reproduces a fresh
//! re-execution over `0..h` byte for byte. That is the module's
//! equivalence gate, exercised after every block by
//! `tests/view_equivalence.rs` and on every interleaving by the model
//! twin (`sebdb-model`'s `view_model.rs`).
//!
//! The read that serves a view is the only path that maintains it: the
//! applier never touches a view, and one executor predicate (the
//! tracking walk's) decides every row. The cursor never passes
//! [`Ledger::height`], because the extension is bounded by a height
//! read before it runs.
//!
//! Restart story: only the registrations persist (a versioned byte
//! encoding behind the store's `.tmp` → rename commit point); a
//! reopened view starts empty and its first serve extends it from
//! block 0.

use crate::executor::tracking::tracking_header;
use crate::executor::{ExecError, Executor, QueryResult, Strategy};
use crate::ledger::{Ledger, LedgerError};
use parking_lot::RwLock;
use sebdb_crypto::sig::KeyId;
use sebdb_parallel::Tracked;
use sebdb_sql::TraceSpec;
use sebdb_types::{BlockId, Decoder, Encoder, TypeError, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version byte of the persisted registration encoding.
const REGISTRATION_VERSION: u8 = 1;

/// Counters over every registered view, in the [`sebdb_storage`]
/// `IoStats` style: plain atomics behind the zero-cost [`Tracked`]
/// race-detector marker (DESIGN.md §14), readable at any time.
#[derive(Default)]
pub struct ViewStats {
    /// Backfills: extensions of a view from block 0 (its first serve
    /// after a registration or a reopen).
    pub backfills: Tracked<AtomicU64>,
    /// Refreshes: extensions of a view from a cursor above 0.
    pub refreshes: Tracked<AtomicU64>,
    /// Rows appended by refreshes (not backfill rows).
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

/// Mutable state of one view, guarded by the view's lock: the cursor
/// and the materialized rows. Invariant: `rows` is exactly the
/// tracking result over blocks `0..folded`, and `folded` never exceeds
/// the applied height.
struct ViewState {
    /// Next height to extend from: blocks `0..folded` are in `rows`.
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

    /// The cursor: every block below it is reflected in the
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

    /// Versioned byte encoding of `views`' specs (rows are never
    /// persisted — a reopened view extends from block 0).
    fn encode_registrations(views: &[Arc<TraceView>]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(REGISTRATION_VERSION);
        enc.put_u32(views.len() as u32);
        for spec in views.iter().map(|v| v.spec()) {
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
    fn decode_registrations(bytes: &[u8]) -> Result<Vec<TraceSpec>, TypeError> {
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

impl Ledger {
    /// Registers a materialized view for `spec` and persists the
    /// registry. No block is read: the view's first serve fills it.
    /// The spec is checked and inserted under one hold of the
    /// registry's write lock, which the persist keeps too, so
    /// concurrent registrations of one spec register it once and the
    /// file never drops a registration another caller published.
    /// Re-registering an existing spec is a no-op. Returns whether the
    /// view is newly registered.
    pub fn register_trace_view(&self, spec: TraceSpec) -> Result<bool, LedgerError> {
        if !spec.is_valid() {
            return Err(LedgerError::BadIndex(
                "tracking view needs at least one dimension".into(),
            ));
        }
        let mut views = self.trace_views().views.write();
        if views.iter().any(|v| v.spec == spec) {
            return Ok(false);
        }
        views.push(Arc::new(TraceView::new(spec)));
        let bytes = ViewEngine::encode_registrations(&views);
        self.store().save_view_registrations(&bytes)?;
        Ok(true)
    }

    /// Serves a `TRACE` whose spec matches a registered view: under the
    /// view's write lock, appends the Layered tracking walk over the
    /// blocks applied since the cursor (bounded by the applied height
    /// read before the lock) and moves the cursor there, then clones
    /// the rows. A chain read that fails here is this query's error.
    /// `None` when no view matches `spec`.
    pub fn serve_trace_view(&self, spec: &TraceSpec) -> Result<Option<QueryResult>, LedgerError> {
        let Some(view) = self.trace_views().matching(spec) else {
            return Ok(None);
        };
        let height = self.height();
        let mut state = view.state.write();
        let from = state.folded;
        let stats = self.trace_views().stats();
        if from < height {
            let delta = Executor::new(self, None)
                .run_trace_bounded(
                    spec.window,
                    &spec.operator.map(KeyId),
                    spec.operation.as_deref(),
                    Strategy::Layered,
                    from..height,
                )
                .map_err(exec_to_ledger)?;
            if from == 0 {
                stats.backfills.fetch_add(1, Ordering::Relaxed);
            } else {
                stats.refreshes.fetch_add(1, Ordering::Relaxed);
                let added = delta.rows.len() as u64;
                stats.delta_rows.fetch_add(added, Ordering::Relaxed);
            }
            state.rows.extend(delta.rows);
            state.folded = height;
        }
        stats.serve_hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(QueryResult {
            columns: tracking_header(),
            rows: state.rows.clone(),
        }))
    }

    /// The cursor of the view registered for `spec`, if any (tests and
    /// stats).
    pub fn trace_view_folded(&self, spec: &TraceSpec) -> Option<BlockId> {
        self.trace_views().matching(spec).map(|v| v.folded())
    }

    /// Loads every persisted view registration, empty; reads no block.
    /// Advisory: a torn or unreadable file costs the registrations,
    /// never correctness.
    pub(crate) fn load_trace_views(&self) -> Result<(), LedgerError> {
        let Some(bytes) = self.store().load_view_registrations()? else {
            return Ok(());
        };
        let Ok(specs) = ViewEngine::decode_registrations(&bytes) else {
            eprintln!("sebdb: discarding undecodable view registrations");
            return Ok(());
        };
        *self.trace_views().views.write() = specs
            .into_iter()
            .map(|spec| Arc::new(TraceView::new(spec)))
            .collect();
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
