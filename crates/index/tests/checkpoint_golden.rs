//! Format stability of the layered-index checkpoints (DESIGN §13).
//!
//! Builds one small fixed chain, indexes it with a continuous and a
//! discrete `LayeredIndex` and `AuthenticatedLayeredIndex`, and pins a
//! SHA-256 over `family ‖ height ‖ meta ‖ entries` of each family's
//! `checkpoint()` — once with the index fully resident, once with a
//! frozen prefix attached through a temp store and a resident tail.
//! The two authenticated constants were recorded at the commit before
//! the two indexes were merged into one generic `Layered<S>`; the two
//! plain ones when a frozen `LayeredIndex` became one key per row
//! (`TAG_ENTRY`), which the authenticated families did not follow. A
//! refactor of the first level, the meta codec or `checkpoint()` that
//! moves one byte of an `.icp` file fails here.

use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_crypto::sig::KeyId;
use sebdb_index::{AuthenticatedLayeredIndex, EqualDepthHistogram, LayeredIndex};
use sebdb_storage::{BlockStore, IndexCheckpoint, StoreConfig};
use sebdb_types::{Block, ColumnRef, Transaction, Value};

const BLOCKS: u64 = 7;
/// The paged runs freeze `[0, FROZEN)` and keep `[FROZEN, BLOCKS)` resident.
const FROZEN: u64 = 4;

/// Seven blocks: `donate` rows with spread-out amounts and three
/// senders, `transfer` rows in between, one block with no `donate` row
/// at all (an empty second-level slot) and one `NULL` amount.
fn chain() -> Vec<Block> {
    let mut prev = Digest::ZERO;
    (0..BLOCKS)
        .map(|h| {
            let txs: Vec<Transaction> = (0..6u64)
                .map(|i| {
                    let n = h * 6 + i;
                    let tname = if h == 2 || n % 4 == 3 {
                        "transfer"
                    } else {
                        "donate"
                    };
                    let amount = if n == 13 {
                        Value::Null
                    } else {
                        Value::decimal(((n * 37) % 101) as i64 * 10)
                    };
                    let mut t = Transaction::new(
                        1_000 + n,
                        KeyId([(n % 3) as u8; 8]),
                        tname,
                        vec![Value::str(format!("donor{}", n % 5)), amount],
                    );
                    t.tid = n + 1;
                    t
                })
                .collect();
            let b = Block::seal(prev, h, 2_000 + h * 10, txs, |_| vec![7; 4]);
            prev = b.header.block_hash;
            b
        })
        .collect()
}

fn histogram() -> EqualDepthHistogram {
    let sample: Vec<i64> = (0..101)
        .map(|i| Value::decimal(i * 10).numeric_rank().unwrap())
        .collect();
    EqualDepthHistogram::from_sample(sample, 8)
}

fn hex_digest(cp: &IndexCheckpoint) -> String {
    let mut h = Sha256::new();
    let mut framed = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    framed(&cp.family);
    framed(&cp.height.to_le_bytes());
    framed(&cp.meta);
    framed(&(cp.entries.len() as u64).to_le_bytes());
    for (k, v) in &cp.entries {
        framed(k);
        framed(v);
    }
    h.finalize()
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Drives one index over the chain and digests its final checkpoint.
/// With a store, `[0, FROZEN)` is checkpointed, published and adopted
/// as the frozen prefix before the tail is indexed. A macro because the
/// two index types share method names, not a trait.
macro_rules! final_digest {
    ($idx:expr, $blocks:expr, $store:expr) => {{
        let mut idx = $idx;
        let store: Option<&BlockStore> = $store;
        for b in $blocks.iter() {
            if let (Some(store), FROZEN) = (store, b.header.height) {
                let cp = idx.checkpoint();
                assert_eq!(cp.height, FROZEN);
                store.write_index_checkpoint(&cp).unwrap();
                idx.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
            }
            idx.update(b);
        }
        hex_digest(&idx.checkpoint())
    }};
}

/// The four families under test: continuous and discrete, plain and
/// authenticated.
fn digests(blocks: &[Block], store: Option<&BlockStore>) -> [String; 4] {
    let donate = || Some("donate".to_string());
    [
        final_digest!(
            LayeredIndex::new_continuous(donate(), ColumnRef::App(1), histogram()),
            blocks,
            store
        ),
        final_digest!(
            LayeredIndex::new_discrete(None, ColumnRef::SenId),
            blocks,
            store
        ),
        final_digest!(
            AuthenticatedLayeredIndex::new_continuous(donate(), ColumnRef::App(1), histogram()),
            blocks,
            store
        ),
        final_digest!(
            AuthenticatedLayeredIndex::new_discrete(None, ColumnRef::SenId),
            blocks,
            store
        ),
    ]
}

/// A full-rewrite checkpoint of frozen ∪ tail holds what a fully
/// resident index would write, so one set of constants serves both
/// runs.
const GOLDEN: [&str; 4] = [
    "59461ec2d74ab709f974e498af342fae355e997f1de37e1d72fdc1401d59c053",
    "a72c97965b9557fc96caa21d51728f4f170b286bec096551c2b73da054d2773a",
    "de9bd91bc1e9b637490be1a800daef2c04018bcbda2f3f050a2f41151354896e",
    "e93e14490f33ab65f9605eece8e232c2fc02f811daa191a740026337d3f1cc5e",
];

#[test]
fn resident_checkpoints_match_the_recorded_bytes() {
    assert_eq!(digests(&chain(), None), GOLDEN);
}

#[test]
fn frozen_prefix_plus_tail_checkpoints_match_the_recorded_bytes() {
    let blocks = chain();
    let dir = std::env::temp_dir().join(format!("sebdb-cp-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = BlockStore::open(&dir, StoreConfig::default()).unwrap();
    for b in &blocks {
        store.append(b).unwrap();
    }
    assert_eq!(digests(&blocks, Some(&store)), GOLDEN);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
