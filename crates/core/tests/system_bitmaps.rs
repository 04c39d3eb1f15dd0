//! §IV-B's table-level bitmap index, and the same structure on senders,
//! are the discrete first level of the chain's system indexes on `tname`
//! and `sen_id`. Every table's and every sender's block mask
//! (`Executor::table_blocks` / `sender_blocks`) must equal a scan of the
//! chain for the blocks holding such a transaction — with the indexes
//! fully resident, frozen at half height behind a resident tail, frozen
//! whole, and reopened from their checkpoints.

use sebdb::{Executor, Ledger, SchemaManager, SCHEMA_TABLE};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::sync::Arc;

const BLOCKS: u64 = 48;
const TABLES: [&str; 3] = ["donate", "transfer", "distribute"];
/// A table with a schema and no rows.
const EMPTY_TABLE: &str = "audit";
const SENDERS: [KeyId; 3] = [KeyId([1; 8]), KeyId([2; 8]), KeyId([3; 8])];
/// Sends nothing.
const SILENT: KeyId = KeyId([9; 8]);

fn signer() -> MacKeypair {
    MacKeypair::from_key([21u8; 32])
}

fn schema(name: &str) -> TableSchema {
    TableSchema::new(name, vec![Column::new("v", DataType::Int)])
}

/// Block 0 holds only `__schema__` tuples (all four tables). Every
/// later block holds 0–3 tuples whose table and sender a seeded
/// generator draws, so each table and sender is absent from some
/// blocks and an empty block occurs.
fn blocks() -> Vec<OrderedBlock> {
    let mut state = 0x5EBD_B030u64;
    let mut below = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut tid = 0u64;
    (0..BLOCKS)
        .map(|seq| {
            let ts = 10_000 + seq;
            let mut txs: Vec<Transaction> = if seq == 0 {
                TABLES
                    .iter()
                    .chain([&EMPTY_TABLE])
                    .map(|t| SchemaManager::schema_transaction(&schema(t), ts, SENDERS[0]))
                    .collect()
            } else {
                (0..below(4))
                    .map(|i| {
                        let table = TABLES[below(3) as usize];
                        let sender = SENDERS[below(3) as usize];
                        Transaction::new(ts, sender, table, vec![Value::Int((seq * 4 + i) as i64)])
                    })
                    .collect()
            };
            for tx in &mut txs {
                tid += 1;
                tx.tid = tid;
            }
            OrderedBlock {
                seq,
                timestamp_ms: ts,
                txs,
            }
        })
        .collect()
}

/// The blocks whose transactions satisfy `holds`, by reading them all.
fn scan(ledger: &Ledger, holds: impl Fn(&Transaction) -> bool) -> Vec<usize> {
    (0..ledger.height())
        .filter(|&bid| {
            ledger
                .read_block(bid)
                .unwrap()
                .transactions
                .iter()
                .any(&holds)
        })
        .map(|bid| bid as usize)
        .collect()
}

fn assert_masks_match_the_chain(ledger: &Ledger, state: &str) {
    let exec = Executor::new(ledger, None);
    for table in TABLES.iter().chain([&EMPTY_TABLE, &SCHEMA_TABLE]) {
        let want = scan(ledger, |tx| tx.tname == *table);
        let got = exec.table_blocks(table).unwrap();
        assert_eq!(
            got.iter_ones().collect::<Vec<_>>(),
            want,
            "{state}: {table}"
        );
    }
    assert!(
        exec.table_blocks(EMPTY_TABLE).unwrap().is_empty(),
        "{state}"
    );
    // The mask looks a relation name up the way `CREATE` stored it.
    let upper = exec.table_blocks("DONATE").unwrap();
    assert_eq!(
        upper.iter_ones().collect::<Vec<_>>(),
        scan(ledger, |tx| tx.tname == "donate"),
        "{state}: DONATE"
    );
    for sender in SENDERS.iter().chain([&SILENT]) {
        let want = scan(ledger, |tx| tx.sender == *sender);
        let got = exec.sender_blocks(sender).unwrap();
        assert_eq!(
            got.iter_ones().collect::<Vec<_>>(),
            want,
            "{state}: {sender:?}"
        );
    }
    assert!(exec.sender_blocks(&SILENT).unwrap().is_empty(), "{state}");
}

#[test]
fn table_and_sender_masks_are_the_blocks_that_hold_them() {
    let blocks = blocks();
    let resident = Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        signer(),
    )
    .unwrap();
    for b in &blocks {
        resident.append_ordered(b.clone()).unwrap();
    }
    assert_masks_match_the_chain(&resident, "resident");

    let dir = std::env::temp_dir().join(format!("sebdb-sysbitmaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        index_cache_blocks: Some(8),
        ..StoreConfig::default()
    };
    let open = || {
        Ledger::new(
            Arc::new(BlockStore::open(&dir, cfg.clone()).unwrap()),
            signer(),
        )
    };
    let half = (BLOCKS / 2) as usize;
    {
        let ledger = open().unwrap();
        for b in &blocks[..half] {
            ledger.append_ordered(b.clone()).unwrap();
        }
        // No per-table index exists: the two system indexes are the
        // only families, so two files.
        assert_eq!(ledger.checkpoint_indexes().unwrap(), 2);
        for b in &blocks[half..] {
            ledger.append_ordered(b.clone()).unwrap();
        }
        assert_masks_match_the_chain(&ledger, "frozen at h/2 + tail");
    }
    {
        let ledger = open().unwrap();
        assert_masks_match_the_chain(&ledger, "reopened at h/2 + replayed tail");
        assert_eq!(ledger.checkpoint_indexes().unwrap(), 2);
        assert_masks_match_the_chain(&ledger, "frozen at h");
    }
    let ledger = open().unwrap();
    assert_eq!(ledger.height(), BLOCKS);
    assert_masks_match_the_chain(&ledger, "reopened at h");
    drop(ledger);
    let _ = std::fs::remove_dir_all(&dir);
}
