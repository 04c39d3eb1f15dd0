//! Format stability of the layered-index checkpoints (DESIGN §13).
//!
//! Builds one small fixed chain, indexes it with a continuous and a
//! discrete `LayeredIndex`, and pins a SHA-256 over `family ‖ height ‖
//! meta ‖ entries` of each one's `checkpoint()` — once with the index
//! fully resident, once with a frozen prefix attached through a temp
//! store and a resident tail. A refactor of the first level, the meta
//! codec or `checkpoint()` that moves one byte of an `.icp` file fails
//! here.
//!
//! The file is the merge of the two a column had while a plain and an
//! authenticated index were kept side by side. The per-tag constants
//! were recorded at the last commit that wrote both, before the merge:
//! the per-block leaf lists (`0x03`) and MB-roots (`0x05`) are the
//! authenticated file's, the value-ordered run (`0x06`) is the plain
//! file's and the first-level tags were the same in both, byte for
//! byte — as are the VO and the auxiliary digest of one query per
//! index.
//!
//! Under `SEBDBIX6` a continuous index checkpoints no bucket bitmap:
//! its `0x01` (per block) and `0x04` (per bucket) rows are gone and its
//! whole-file digest was re-recorded; every other per-tag digest, the
//! discrete file and the proofs are the bytes recorded before.

use sebdb_crypto::sha256::{sha256, Digest, Sha256};
use sebdb_crypto::sig::KeyId;
use sebdb_index::{Bitmap, EqualDepthHistogram, KeyPredicate, LayeredIndex};
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

fn hex(d: Digest) -> String {
    d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// Hashes `entries` framed by length, after `prefix` framed the same way.
fn framed_digest<'a>(
    prefix: &[&[u8]],
    entries: impl Iterator<Item = &'a (Vec<u8>, Vec<u8>)>,
) -> String {
    let mut h = Sha256::new();
    let mut framed = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    prefix.iter().for_each(|p| framed(p));
    for (k, v) in entries {
        framed(k);
        framed(v);
    }
    hex(h.finalize())
}

fn hex_digest(cp: &IndexCheckpoint) -> String {
    let count = (cp.entries.len() as u64).to_le_bytes();
    let prefix: [&[u8]; 4] = [&cp.family, &cp.height.to_le_bytes(), &cp.meta, &count];
    framed_digest(&prefix, cp.entries.iter())
}

/// The digest of the entries under one key tag, and how many there are.
fn tag_digest(cp: &IndexCheckpoint, tag: u8) -> (usize, String) {
    let tagged = || cp.entries.iter().filter(|(k, _)| k[0] == tag);
    (tagged().count(), framed_digest(&[], tagged()))
}

/// Drives one index over the chain. With a store, `[0, FROZEN)` is
/// checkpointed, published and adopted as the frozen prefix before the
/// tail is indexed.
fn indexed(mut idx: LayeredIndex, blocks: &[Block], store: Option<&BlockStore>) -> LayeredIndex {
    for b in blocks {
        if let (Some(store), FROZEN) = (store, b.header.height) {
            let cp = idx.checkpoint();
            assert_eq!(cp.height, FROZEN);
            store.write_index_checkpoint(&cp).unwrap();
            idx.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
        }
        idx.update(b);
    }
    idx
}

/// The two indexes under test: continuous and discrete.
fn indexes(blocks: &[Block], store: Option<&BlockStore>) -> [LayeredIndex; 2] {
    let amount =
        LayeredIndex::new_continuous(Some("donate".into()), ColumnRef::App(1), histogram());
    let sender = LayeredIndex::new_discrete(None, ColumnRef::SenId);
    [
        indexed(amount, blocks, store),
        indexed(sender, blocks, store),
    ]
}

/// A full-rewrite checkpoint of frozen ∪ tail holds what a fully
/// resident index would write, so one set of constants serves both
/// runs.
const GOLDEN: [&str; 2] = [
    "69331f4404dbd8b23837040c083534f8023d0a725a4a4ce08fdd3316d44a2444",
    "db4a748d9c3b0c0bc4504d3bcc992749c2260f38693b9cb6df26a6eb3156b892",
];

/// `(tag, entries, digest)` per index, recorded from the two files each
/// column had before they were merged.
const GOLDEN_TAGS: [&[(u8, usize, &str)]; 2] = [
    &[
        (
            0x00,
            1,
            "1340b288459694a5ffcc66cdbe3c0c30ec78da96bcd5ec38da3f868721523877",
        ),
        (
            0x03,
            6,
            "48461f56a84903880d8215e2547b8dc7cb851c7ecdc6779fb78c5b3f37fbc079",
        ),
        (
            0x05,
            6,
            "803f9fc0b3b14cc0389f70f1f5e5fe0e1760a8da9402d906bf0d48fad0a05631",
        ),
        (
            0x06,
            27,
            "e739b9992f22c8ebd46445b78c097a89be2d5de15d04907dbc9d9ef775ee79cf",
        ),
    ],
    &[
        (
            0x00,
            1,
            "a8a762b386f1d71ab15ed1dfc27ad84970dd079e007a1ec43fe50c6bd636bdef",
        ),
        (
            0x02,
            3,
            "7d487981a05059e5ab43972ec4645999af499cbb1b7d08df8f77c4663c5f0352",
        ),
        (
            0x03,
            7,
            "910e3ab6866752ec1981812c25c1475f5967846f31bb0906c55ad5d71ae32a9d",
        ),
        (
            0x05,
            7,
            "3d10c7a9dbd4605123de63b0a5f6752cb7b0ca159af51debeb33436546175b44",
        ),
        (
            0x06,
            42,
            "190f13a52e1a031322e61933c9cb0b892e7edc190ca6305d4ea43836f596d92d",
        ),
    ],
];

/// `(SHA-256 of the VO's debug form, auxiliary digest)` of one query per
/// index at height [`BLOCKS`], recorded from the index the
/// authenticated file belonged to.
const GOLDEN_PROOFS: [(&str, &str); 2] = [
    (
        "ad9bdb982760fab21888786e96889463221002f83257fed1074659245f5e8cee",
        "8ed0c0fa71b66a61ad56de8500f10bd485166aa21edd7f11a8b42518b17358ea",
    ),
    (
        "1fb5674ccde8b54c85f3b4f3c6670d8e54cdd3d7b7c2ed4023db5fa0fd4fc9f4",
        "9340c65f10018fb4e59262ba87507c71383f128f91350bd2b9ffb8a7d39913d1",
    ),
];

/// Whole files, every tag of each, and the proofs read back off them.
fn assert_golden(indexes: &[LayeredIndex; 2]) {
    let preds = [
        KeyPredicate::Range(Value::decimal(200), Value::decimal(700)),
        KeyPredicate::Eq(Value::Bytes(vec![1u8; 8])),
    ];
    for (i, idx) in indexes.iter().enumerate() {
        let cp = idx.checkpoint();
        assert_eq!(hex_digest(&cp), GOLDEN[i], "index {i}");
        let tags = GOLDEN_TAGS[i];
        for &(tag, count, digest) in tags {
            let want = (count, digest.to_string());
            assert_eq!(tag_digest(&cp, tag), want, "index {i} tag {tag:#04x}");
        }
        let known: usize = tags.iter().map(|t| t.1).sum();
        assert_eq!(cp.entries.len(), known, "index {i}: an entry under no tag");

        let vo = idx.authenticated_query(&preds[i], None, BLOCKS);
        let visited = Bitmap::from_bits(vo.per_block.iter().map(|b| b.block as usize));
        let proof = (
            hex(sha256(format!("{vo:?}").as_bytes())),
            hex(idx.auxiliary_query(&visited, BLOCKS)),
        );
        assert_eq!((proof.0.as_str(), proof.1.as_str()), GOLDEN_PROOFS[i]);
    }
}

/// One block of 130 `donate` rows: eight leaf pages of 16 entries and
/// one of 2, so its `0x03` entry carries the nine level-1 digests after
/// the leaves (the golden chain's blocks hold ≤ 6 rows and carry none).
fn fat_block() -> Block {
    let txs: Vec<Transaction> = (0..130u64)
        .map(|n| {
            let amount = Value::decimal(((n * 37) % 101) as i64 * 10);
            let mut t = Transaction::new(
                1_000 + n,
                KeyId([(n % 3) as u8; 8]),
                "donate",
                vec![Value::str(format!("donor{}", n % 5)), amount],
            );
            t.tid = n + 1;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, 0, 2_000, txs, |_| vec![7; 4])
}

/// The fat block's `(0x03 entries, digest)`, and `(SHA-256 of the VO's
/// debug form, auxiliary digest)` of one range query over it, recorded
/// at fanout 16 from the resident tree; the frozen block must prove the
/// same bytes.
const GOLDEN_FAT: ((usize, &str), (&str, &str)) = (
    (
        1,
        "936238d5152ba749e4f3643dc4579a6d925008bb4e19edc5410d00d906cf9f92",
    ),
    (
        "bd70673a9a8584c1d7c93beea266ebbceabc36db04f4f0e9af5d613235b333ee",
        "6acd9cff6c6920875c6d2c08e1bd991ce7b9eceebf7829d0389ab5b662e987c7",
    ),
);

/// The fat block's `0x03` entry, and the proof read back off it.
fn assert_fat_golden(idx: &LayeredIndex) {
    let (count, digest) = GOLDEN_FAT.0;
    let want = (count, digest.to_string());
    assert_eq!(tag_digest(&idx.checkpoint(), 0x03), want);
    let pred = KeyPredicate::Range(Value::decimal(200), Value::decimal(260));
    let vo = idx.authenticated_query(&pred, None, 1);
    let proof = (
        hex(sha256(format!("{vo:?}").as_bytes())),
        hex(idx.auxiliary_query(&Bitmap::from_bits([0]), 1)),
    );
    assert_eq!((proof.0.as_str(), proof.1.as_str()), GOLDEN_FAT.1);
}

/// The fat block resident, then frozen.
#[test]
fn a_fat_blocks_checkpoint_and_proof_match_the_recorded_bytes() {
    let block = fat_block();
    let mut idx =
        LayeredIndex::new_continuous(Some("donate".into()), ColumnRef::App(1), histogram());
    idx.update(&block);
    assert_fat_golden(&idx);
    let store = BlockStore::temporary(StoreConfig::default()).unwrap();
    store.append(&block).unwrap();
    let cp = idx.checkpoint();
    store.write_index_checkpoint(&cp).unwrap();
    idx.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
    assert_fat_golden(&idx);
}

#[test]
fn resident_checkpoints_match_the_recorded_bytes() {
    assert_golden(&indexes(&chain(), None));
}

#[test]
fn frozen_prefix_plus_tail_checkpoints_match_the_recorded_bytes() {
    let blocks = chain();
    let store = BlockStore::temporary(StoreConfig::default()).unwrap();
    for b in &blocks {
        store.append(b).unwrap();
    }
    assert_golden(&indexes(&blocks, Some(&store)));
}
