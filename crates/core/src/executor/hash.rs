//! What the two hash-join arms share — the one-pass hash join of §V-B
//! and the scan/bitmap arm of §V-C: a chained table over borrowed key
//! bytes, the projected relation scan that feeds and probes it, and
//! late materialization — a tuple is decoded once a probe has matched
//! it, from the extent bytes already in hand, straight into the output
//! row (DESIGN §10.4).

use super::range::in_window;
use super::{ExecError, Executor};
use crate::ledger::LedgerError;
use sebdb_storage::{RawExtent, RawTuple};
use sebdb_types::{ColumnRef, RawValue, Timestamp, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

const NIL: u32 = u32::MAX;

/// One build-side entry: what a match hands to [`assemble`], its join
/// key still encoded, and the key's hash under the join's hasher.
pub(super) struct Keyed<'e, T> {
    pub item: T,
    pub key: RawValue<'e>,
    pub hash: u64,
}

/// An equi-join build side: entry `i` is `entries[i]`, and
/// [`Self::matches`] lists the entries equal to a probe key in
/// ascending order. `NULL` keys keep their entry number but are never
/// linked, so `NULL` matches nothing from either side.
pub(super) struct KeyTable<'e, T> {
    entries: Vec<Keyed<'e, T>>,
    /// Bucket → its first entry; entry → the next one in its bucket.
    head: Vec<u32>,
    next: Vec<u32>,
    /// The hasher the entries were hashed with. The keys come off the
    /// chain, so it stays the keyed default.
    hasher: RandomState,
}

impl<'e, T> KeyTable<'e, T> {
    /// Links `entries`, each hashed by `hasher`, by their hashes.
    pub(super) fn build(hasher: RandomState, entries: Vec<Keyed<'e, T>>) -> Self {
        let mut head = vec![NIL; (entries.len() * 2).next_power_of_two()];
        let mut next = vec![NIL; entries.len()];
        // Linked back to front, so every chain ascends.
        for (i, entry) in entries.iter().enumerate().rev() {
            if !entry.key.is_null() {
                let bucket = entry.hash as usize & (head.len() - 1);
                next[i] = std::mem::replace(&mut head[bucket], i as u32);
            }
        }
        KeyTable {
            entries,
            head,
            next,
            hasher,
        }
    }

    /// Entries whose key equals `key`, ascending.
    pub(super) fn matches<'s>(&'s self, key: RawValue<'s>) -> impl Iterator<Item = u32> + 's {
        let hash = self.hasher.hash_one(key);
        let mut at = match key.is_null() {
            true => NIL,
            false => self.head[hash as usize & (self.head.len() - 1)],
        };
        std::iter::from_fn(move || {
            while at != NIL {
                let i = at as usize;
                at = self.next[i];
                let entry = &self.entries[i];
                if entry.hash == hash && entry.key == key {
                    return Some(i as u32);
                }
            }
            None
        })
    }
}

/// Decodes a tuple into a fresh full row (system columns, then
/// application attributes).
pub(super) fn decode_row(tuple: &RawTuple<'_>) -> Result<Vec<Value>, ExecError> {
    let mut row = Vec::new();
    tuple.decode_into(&mut row).map_err(LedgerError::from)?;
    Ok(row)
}

/// `tuple`'s key on `col` if it is a tuple of `table` inside `window`
/// that has the column — nothing decoded. (Co-located relations share
/// an extent, hence the name test; `NULL` keys are kept, [`KeyTable`]
/// deals with them.)
fn key_of<'e>(
    tuple: &RawTuple<'e>,
    table: &str,
    col: ColumnRef,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<Option<RawValue<'e>>, ExecError> {
    let head = tuple.project().map_err(LedgerError::from)?;
    if !head.tname.eq_ignore_ascii_case(table) || !in_window(head.ts, window) {
        return Ok(None);
    }
    Ok(tuple.column(&head, col).map_err(LedgerError::from)?)
}

/// The build side's entries: `table`'s tuples in `resident` with a
/// key on `col` inside `window`, each key hashed by `hasher` — one run
/// per item across workers, chain order, nothing decoded.
pub(super) fn keyed_runs<'e>(
    resident: &'e [RawExtent],
    table: &str,
    col: ColumnRef,
    window: Option<(Timestamp, Timestamp)>,
    hasher: &RandomState,
) -> Result<Vec<Keyed<'e, RawTuple<'e>>>, ExecError> {
    // `par_map` lends each item to its closure for the call only;
    // items that are borrows themselves let the entries outlive it.
    let runs: Vec<&'e RawExtent> = resident.iter().collect();
    in_order(sebdb_parallel::par_map(
        &runs,
        sebdb_parallel::FLOOR_BLOCK,
        |run| {
            let mut out = Vec::new();
            for tuple in run.tuples() {
                if let Some(key) = key_of(&tuple, table, col, window)? {
                    let hash = hasher.hash_one(key);
                    out.push(Keyed {
                        item: tuple,
                        key,
                        hash,
                    });
                }
            }
            Ok(out)
        },
    ))
}

/// A probe tuple that matched, decoded, and the build entries it
/// matched.
pub(super) type Probed = (Vec<Value>, Vec<u32>);

/// Probes `build` with `table`'s tuples in `extents`, one tuple at a
/// time; only the matched ones are decoded.
pub(super) fn probe_extents<T>(
    extents: &[RawExtent],
    table: &str,
    col: ColumnRef,
    window: Option<(Timestamp, Timestamp)>,
    build: &KeyTable<'_, T>,
) -> Result<Vec<Probed>, ExecError> {
    let mut out = Vec::new();
    for tuple in extents.iter().flat_map(RawExtent::tuples) {
        let Some(key) = key_of(&tuple, table, col, window)? else {
            continue;
        };
        let hits: Vec<u32> = build.matches(key).collect();
        if !hits.is_empty() {
            out.push((decode_row(&tuple)?, hits));
        }
    }
    Ok(out)
}

/// Concatenates per-run results in run order, failing on the first
/// failed run.
pub(super) fn in_order<T>(runs: Vec<Result<Vec<T>, ExecError>>) -> Result<Vec<T>, ExecError> {
    let mut out = Vec::new();
    for run in runs {
        out.extend(run?);
    }
    Ok(out)
}

/// The join's rows for `probed`: each probe row beside each build
/// entry it matched, in order, with `fill` appending the entry's
/// columns straight onto the row. The probe row moves into its last
/// output row and is cloned for the earlier ones, so every output row
/// is built once.
pub(super) fn assemble<T>(
    probed: Vec<Probed>,
    build: &KeyTable<'_, T>,
    fill: impl Fn(&T, &mut Vec<Value>) -> Result<(), ExecError>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut out = Vec::with_capacity(probed.iter().map(|(_, hits)| hits.len()).sum());
    for (row, hits) in probed {
        let Some((&last, earlier)) = hits.split_last() else {
            continue;
        };
        for &h in earlier {
            let mut joined = row.clone();
            fill(&build.entries[h as usize].item, &mut joined)?;
            out.push(joined);
        }
        let mut joined = row;
        fill(&build.entries[last as usize].item, &mut joined)?;
        out.push(joined);
    }
    Ok(out)
}

/// [`assemble`]'s `fill` for an on-chain build side: the matched
/// tuple, decoded onto the row.
pub(super) fn decode_onto(tuple: &RawTuple<'_>, row: &mut Vec<Value>) -> Result<(), ExecError> {
    Ok(tuple.decode_into(row).map_err(LedgerError::from)?)
}

impl Executor<'_> {
    /// The one relation scan: streams `table`'s partition extents of
    /// `bids` through `each`, one planned run (one read of about
    /// [`sebdb_storage::SCAN_RUN_BYTES`]) per item across workers, and
    /// concatenates the results in chain order. A run's extent is
    /// dropped once `each` is done with it, unless `each` keeps it, so
    /// what a scan holds is what it returns.
    pub(super) fn map_relation<T: Send>(
        &self,
        bids: &[u64],
        table: &str,
        each: impl Fn(Vec<RawExtent>) -> Result<Vec<T>, ExecError> + Sync,
    ) -> Result<Vec<T>, ExecError> {
        let runs = self.ledger.store().relation_runs(bids, table);
        in_order(sebdb_parallel::par_map(
            &runs,
            sebdb_parallel::FLOOR_BLOCK,
            |run| each(self.ledger.scan_relation_raw(run, table)?),
        ))
    }
}
