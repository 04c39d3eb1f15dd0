//! What the two hash-join arms share — the one-pass hash join of §V-B
//! and the scan/bitmap arm of §V-C: a chained table over borrowed key
//! bytes, the projected relation scan that feeds and probes it, and
//! late materialization — a tuple is decoded once a probe has matched
//! it, from the extent bytes already in hand (DESIGN §10.4).

use super::range::in_window;
use super::{ExecError, Executor};
use crate::ledger::LedgerError;
use sebdb_storage::{RawExtent, RawTuple};
use sebdb_types::{ColumnRef, RawValue, Timestamp, Transaction, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

const NIL: u32 = u32::MAX;

/// An equi-join build side: entry `i` is `keys[i]`, and
/// [`Self::matches`] lists the entries equal to a probe key in
/// ascending order. `NULL` keys keep their entry number but are never
/// linked, so `NULL` matches nothing from either side.
pub(super) struct KeyTable<'a> {
    keys: Vec<RawValue<'a>>,
    /// Bucket → its first entry; entry → the next one in its bucket.
    head: Vec<u32>,
    next: Vec<u32>,
    /// The keys come off the chain, so the hasher stays the keyed
    /// default.
    hasher: RandomState,
}

impl<'a> KeyTable<'a> {
    pub(super) fn build(keys: Vec<RawValue<'a>>) -> Self {
        let hasher = RandomState::new();
        let mut head = vec![NIL; (keys.len() * 2).next_power_of_two()];
        let mut next = vec![NIL; keys.len()];
        // Linked back to front, so every chain ascends.
        for (i, key) in keys.iter().enumerate().rev() {
            if !key.is_null() {
                let bucket = hasher.hash_one(key) as usize & (head.len() - 1);
                next[i] = std::mem::replace(&mut head[bucket], i as u32);
            }
        }
        KeyTable {
            keys,
            head,
            next,
            hasher,
        }
    }

    /// Entries whose key equals `key`, ascending.
    pub(super) fn matches<'s>(&'s self, key: RawValue<'s>) -> impl Iterator<Item = u32> + 's {
        let mut at = match key.is_null() {
            true => NIL,
            false => self.head[self.hasher.hash_one(key) as usize & (self.head.len() - 1)],
        };
        std::iter::from_fn(move || {
            while at != NIL {
                let entry = at;
                at = self.next[entry as usize];
                if self.keys[entry as usize] == key {
                    return Some(entry);
                }
            }
            None
        })
    }
}

/// One tuple a projected scan kept, and its join key.
pub(super) struct Keyed<'e> {
    pub tuple: RawTuple<'e>,
    pub key: RawValue<'e>,
}

/// Decodes a tuple into a full row (system columns, then application
/// attributes).
pub(super) fn decode_row(tuple: &RawTuple<'_>) -> Result<Vec<Value>, ExecError> {
    Ok(into_row(tuple.decode().map_err(LedgerError::from)?))
}

/// [`super::materialize`] for a transaction nobody else holds: moves
/// the fields instead of cloning them.
fn into_row(tx: Transaction) -> Vec<Value> {
    let mut row = Vec::with_capacity(5 + tx.values.len());
    row.push(Value::Int(tx.tid as i64));
    row.push(Value::Timestamp(tx.ts));
    row.push(Value::Bytes(tx.sig));
    row.push(Value::Bytes(tx.sender.as_bytes().to_vec()));
    row.push(Value::Str(tx.tname));
    row.extend(tx.values);
    row
}

/// Projects every tuple in `extents` on `col` and keeps those of
/// `table` inside `window` that have the column — chain order, nothing
/// decoded. (Co-located relations share an extent, hence the name
/// filter; `NULL` keys are kept, [`KeyTable`] deals with them.)
pub(super) fn keyed_tuples<'e>(
    extents: &'e [RawExtent],
    table: &str,
    col: ColumnRef,
    window: Option<(Timestamp, Timestamp)>,
) -> Result<Vec<Keyed<'e>>, ExecError> {
    let mut out = Vec::new();
    for tuple in extents.iter().flat_map(RawExtent::tuples) {
        let head = tuple.project().map_err(LedgerError::from)?;
        if !head.tname.eq_ignore_ascii_case(table) || !in_window(head.ts, window) {
            continue;
        }
        if let Some(key) = tuple.column(&head, col).map_err(LedgerError::from)? {
            out.push(Keyed { tuple, key });
        }
    }
    Ok(out)
}

/// A probe tuple that matched, decoded, and the build entries it
/// matched.
pub(super) type Probed = (Vec<Value>, Vec<u32>);

/// Probes `build` with `table`'s tuples in `extents`; only the matched
/// ones are decoded.
pub(super) fn probe_extents(
    extents: &[RawExtent],
    table: &str,
    col: ColumnRef,
    window: Option<(Timestamp, Timestamp)>,
    build: &KeyTable<'_>,
) -> Result<Vec<Probed>, ExecError> {
    let mut out = Vec::new();
    for tuple in keyed_tuples(extents, table, col, window)? {
        let hits: Vec<u32> = build.matches(tuple.key).collect();
        if !hits.is_empty() {
            out.push((decode_row(&tuple.tuple)?, hits));
        }
    }
    Ok(out)
}

/// The build side as rows: each entry some probe matched, decoded
/// once; the rest stay empty.
pub(super) fn decode_matched(
    entries: &[Keyed<'_>],
    probed: &[Probed],
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut matched: Vec<u32> = probed.iter().flat_map(|(_, hits)| hits).copied().collect();
    matched.sort_unstable();
    matched.dedup();
    let decoded = sebdb_parallel::par_map(&matched, sebdb_parallel::FLOOR_TUPLE, |&h| {
        decode_row(&entries[h as usize].tuple)
    });
    let mut rows = vec![Vec::new(); entries.len()];
    for (h, row) in matched.into_iter().zip(decoded) {
        rows[h as usize] = row?;
    }
    Ok(rows)
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

/// The join's rows: each probed tuple beside each build row it
/// matched — probe tuples in chain order, each one's matches in build
/// order.
pub(super) fn assemble(probed: &[Probed], build_rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let pairs: Vec<(&Vec<Value>, u32)> = probed
        .iter()
        .flat_map(|(row, hits)| hits.iter().map(move |&h| (row, h)))
        .collect();
    sebdb_parallel::par_map(&pairs, sebdb_parallel::FLOOR_TUPLE, |&(row, h)| {
        [row.as_slice(), build_rows[h as usize].as_slice()].concat()
    })
}

impl Executor<'_> {
    /// The one relation scan: streams `table`'s partition extents of
    /// `bids` through `each`, one planned run (one read of about
    /// [`sebdb_storage::SCAN_RUN_BYTES`]) per item across workers, and
    /// concatenates the results in chain order. A run's extent is
    /// dropped once `each` is done with it, so what a scan holds is the
    /// rows it returns.
    pub(super) fn map_relation<T: Send>(
        &self,
        bids: &[u64],
        table: &str,
        each: impl Fn(&[RawExtent]) -> Result<Vec<T>, ExecError> + Sync,
    ) -> Result<Vec<T>, ExecError> {
        let runs = self.ledger.store().relation_runs(bids, table);
        in_order(sebdb_parallel::par_map(
            &runs,
            sebdb_parallel::FLOOR_BLOCK,
            |run| each(&self.ledger.scan_relation_raw(run, table)?),
        ))
    }
}
