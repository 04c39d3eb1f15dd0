//! The per-partition tuple offset table, `txoffsets.idx`: where each
//! of a block's tuples sits in the partition's extent, one record per
//! block touching the partition, replayed at open. Only this module
//! reads or writes the format.

use crate::blockstore::{decode_chain_record, fixed, TxLoc, TxLocs};
use crate::manifest::BlockEntry;
use crate::segment::{Result, SegmentSet, StorageError};
use sebdb_types::{Codec, Decoder, Transaction};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// One tuple's place in its extent: (canonical index, extent offset,
/// length). A record stores the index and length; the offset is the sum
/// of the lengths before it.
pub(crate) type OffsetRec = (u32, u32, u32);

/// One partition's replayed offset tables: `(bid, entries)` for each
/// block that touches the partition, in chain order.
pub(crate) type OffsetsTable = Vec<(u64, Vec<OffsetRec>)>;

/// Per-partition tuple offset table: one variable-length record per
/// block touching the partition,
/// `bid(8) ‖ count(4) ‖ count × (canon(4) ‖ len(4))`; the extent holds
/// the tuples back to back, so each offset is the running sum of the
/// lengths.
/// Written after the partition extent, before the manifest record;
/// missing or torn records are reconstructed on open from the chain
/// record's routes and the extent bytes.
pub(crate) const OFFSETS: &str = "txoffsets.idx";

/// Serializes one per-partition [`OFFSETS`] record.
pub(crate) fn offsets_record(bid: u64, entries: &[OffsetRec]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(12 + entries.len() * 8);
    rec.extend_from_slice(&bid.to_le_bytes());
    rec.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(canon, _, len) in entries {
        rec.extend_from_slice(&canon.to_le_bytes());
        rec.extend_from_slice(&len.to_le_bytes());
    }
    rec
}

/// Replays one partition's [`OFFSETS`] file against the manifest's
/// expected `(bid, extent len)` sequence, keeping the longest valid
/// prefix and reconstructing the rest from the chain records'
/// routes and the extent bytes. Returns the tables and the
/// (truncated, caught-up) append handle.
pub(crate) fn replay_offsets(
    path: &Path,
    expected: &[(u64, u32)],
    entries: &[BlockEntry],
    chain_reader: &SegmentSet,
    reader: &SegmentSet,
    part: usize,
) -> Result<(OffsetsTable, File)> {
    let mut tables: OffsetsTable = Vec::with_capacity(expected.len());
    let mut valid_bytes = 0u64;
    if let Ok(mut f) = File::open(path) {
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        let mut at = 0usize;
        'records: while tables.len() < expected.len() && buf.len() - at >= 12 {
            let (want_bid, want_len) = expected[tables.len()];
            let bid = u64::from_le_bytes(fixed::<8>(&buf[at..at + 8]));
            let count = u32::from_le_bytes(fixed::<4>(&buf[at + 8..at + 12])) as usize;
            let body = 12 + count * 8;
            if bid != want_bid || count == 0 || buf.len() - at < body {
                break;
            }
            let mut rec = Vec::with_capacity(count);
            let mut next_off = 0u32;
            let mut prev_canon: i64 = -1;
            for i in 0..count {
                let q = at + 12 + i * 8;
                let canon = u32::from_le_bytes(fixed::<4>(&buf[q..q + 4]));
                let len = u32::from_le_bytes(fixed::<4>(&buf[q + 4..q + 8]));
                let Some(end) = next_off.checked_add(len) else {
                    break 'records;
                };
                if (canon as i64) <= prev_canon || len == 0 {
                    break 'records;
                }
                prev_canon = canon as i64;
                rec.push((canon, next_off, len));
                next_off = end;
            }
            if next_off != want_len {
                break;
            }
            tables.push((bid, rec));
            at += body;
            valid_bytes = at as u64;
        }
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    // Drop everything past the valid prefix (torn tail, or records
    // racing ahead of the manifest's view), then reconstruct the
    // missing entries by sequentially decoding the extents.
    file.set_len(valid_bytes)?;
    let mut appender = BufWriter::new(file);
    for &(bid, _) in expected.iter().skip(tables.len()) {
        let entry = &entries[bid as usize];
        let (_, routes) = decode_chain_record(&chain_reader.read(entry.chain)?, bid)?;
        let ext_loc = entry
            .parts
            .iter()
            .find(|(q, _)| *q as usize == part)
            .map(|(_, l)| *l)
            .ok_or_else(|| {
                StorageError::Corrupt(format!("block {bid} missing partition {part} extent"))
            })?;
        let extent = reader.read(ext_loc)?;
        let mut dec = Decoder::new(&extent);
        let mut rec = Vec::new();
        for (canon, &route) in routes.iter().enumerate() {
            if route as usize != part {
                continue;
            }
            let before = dec.remaining();
            let off = (extent.len() - before) as u32;
            Transaction::decode(&mut dec).map_err(|e| {
                StorageError::Corrupt(format!("block {bid} partition {part} tuple {canon}: {e}"))
            })?;
            rec.push((canon as u32, off, (before - dec.remaining()) as u32));
        }
        if !dec.is_exhausted() || rec.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "block {bid} partition {part} extent does not match its routes"
            )));
        }
        appender.write_all(&offsets_record(bid, &rec))?;
        tables.push((bid, rec));
    }
    appender.flush()?;
    let file = appender
        .into_inner()
        .map_err(|e| StorageError::Io(e.into_error()))?;
    Ok((tables, file))
}

/// Merges the per-partition offset tables into one canonical-order
/// tuple location table per block, validating that each block's
/// canonical indexes form a permutation of `0..ntx`.
pub(crate) fn assemble_tx_locs(
    entries: &[BlockEntry],
    tables: &[OffsetsTable],
) -> Result<Vec<TxLocs>> {
    let mut per_block: Vec<Vec<(u32, TxLoc)>> = (0..entries.len()).map(|_| Vec::new()).collect();
    for (p, table) in tables.iter().enumerate() {
        for (bid, rec) in table {
            let slot = per_block
                .get_mut(*bid as usize)
                .ok_or_else(|| StorageError::Corrupt(format!("offsets for unknown block {bid}")))?;
            for &(canon, off, len) in rec {
                slot.push((
                    canon,
                    TxLoc {
                        part: p as u8,
                        off,
                        len,
                    },
                ));
            }
        }
    }
    let mut out = Vec::with_capacity(entries.len());
    for (bid, items) in per_block.into_iter().enumerate() {
        let n = items.len();
        let mut slots: Vec<Option<TxLoc>> = vec![None; n];
        for (canon, loc) in items {
            match slots.get_mut(canon as usize) {
                Some(slot) if slot.is_none() => *slot = Some(loc),
                _ => {
                    return Err(StorageError::Corrupt(format!(
                        "block {bid}: tuple index {canon} out of range or duplicated"
                    )))
                }
            }
        }
        let locs = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| {
                    StorageError::Corrupt(format!("block {bid}: tuple {i} has no location"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        out.push(Arc::new(locs));
    }
    Ok(out)
}
