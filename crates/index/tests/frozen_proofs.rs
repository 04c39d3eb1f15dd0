//! A frozen block's proof (DESIGN §13). It is built from the block's
//! stored leaves and internal MB-tree digests, and hashes only the leaf
//! pages it reveals. It must equal the resident tree's proof byte for
//! byte, and what it reveals must hash to the stored root.
//!
//! Block sizes follow the fanout `f` (`mbtree::DEFAULT_FANOUT`): 1, 2, f − 1,
//! f, f + 1, f² − 1, f², f² + 1 and f³ + 1 entries — one page, one level
//! of pages, two, and a tree of four levels above its leaves — plus
//! 100 and 200, the sizes of the benchmark's blocks. The ranges start
//! and end on or next to every page edge. Keys come in equal pairs, so
//! an equal pair straddles every page edge. The f³ + 1 block is swept
//! at every page edge, which a debug run does in seconds for f ≤ 32;
//! a wider fanout wants that size capped.

use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::KeyId;
use sebdb_index::mbtree::DEFAULT_FANOUT as F;
use sebdb_index::paged::{StoredTree, TAG_BLOCK_ENTRIES};
use sebdb_index::{
    verify_query_vo, Bitmap, EqualDepthHistogram, KeyPredicate, LayeredIndex, MbTree, QueryVo,
};
use sebdb_storage::indexseg::checkpoint_file_name;
use sebdb_storage::{BlockStore, StoreConfig, INDEX_CHECKPOINT_DIR};
use sebdb_types::{Block, ColumnRef, Transaction, Value};

/// Entries per block of the equivalence chain, one block each.
const SIZES: [usize; 11] = [
    1,
    2,
    F - 1,
    F,
    F + 1,
    100,
    200,
    F * F - 1,
    F * F,
    F * F + 1,
    F * F * F + 1,
];

/// The digests an `n`-entry block stores beside its leaves: levels 1 …
/// top − 1, every node but the leaves and the root, at any depth.
fn stored_digests(n: usize) -> usize {
    let (mut len, mut stored) = (n.div_ceil(F), 0);
    while len > 1 {
        stored += len;
        len = len.div_ceil(F);
    }
    stored
}

/// The amount at sorted position `p`: 0, 10, 10, 20, 20, … — equal in
/// pairs, so positions `kf − 1` and `kf` share one.
fn amount(p: usize) -> i64 {
    10 * p.div_ceil(2) as i64
}

fn block(height: u64, amounts: &[i64]) -> Block {
    let txs = amounts
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let tid = height * 10_000 + i as u64;
            let mut t = Transaction::new(
                tid,
                KeyId([1; 8]),
                "donate",
                vec![Value::str("d"), Value::str("p"), Value::decimal(a)],
            );
            t.tid = tid;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
}

fn index() -> LayeredIndex {
    let sample: Vec<i64> = (0..1_000)
        .map(|i| Value::decimal(i * 25).numeric_rank().unwrap())
        .collect();
    let hist = EqualDepthHistogram::from_sample(sample, 10);
    LayeredIndex::new_continuous(Some("donate".into()), ColumnRef::App(2), hist)
}

/// One block per entry of `sizes`, block `h` holding `amount(0..sizes[h])`.
fn chain(sizes: &[usize]) -> Vec<Block> {
    let amounts = |n: usize| (0..n).map(amount).collect::<Vec<_>>();
    (0..sizes.len())
        .map(|h| block(h as u64, &amounts(sizes[h])))
        .collect()
}

/// The same chain indexed twice: fully resident, and frozen behind a
/// checkpoint in `store` (which must have appended `blocks`).
fn resident_and_frozen(blocks: &[Block], store: &BlockStore) -> (LayeredIndex, LayeredIndex) {
    let (mut resident, mut frozen) = (index(), index());
    for b in blocks {
        resident.update(b);
        frozen.update(b);
    }
    let cp = frozen.checkpoint();
    store.write_index_checkpoint(&cp).unwrap();
    frozen.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
    (resident, frozen)
}

fn store_of(blocks: &[Block]) -> BlockStore {
    let store = BlockStore::temporary(StoreConfig::default()).unwrap();
    for b in blocks {
        store.append(b).unwrap();
    }
    store
}

/// Sorted positions on or next to a page edge of an `n`-entry block,
/// and its first and last two.
fn edge_positions(n: usize, fanout: usize) -> Vec<usize> {
    let mut at: Vec<usize> = [0, 1, n.saturating_sub(2), n - 1].to_vec();
    for edge in (fanout..n).step_by(fanout) {
        at.extend(edge - 2..=edge + 1);
    }
    at.retain(|&p| p < n);
    at.sort_unstable();
    at.dedup();
    at
}

fn dec(a: i64) -> Value {
    Value::decimal(a)
}

/// The ranges of an `n`-entry block whose ends fall on or next to a
/// page edge: from each such position to each one at most a page and
/// a little further, with bounds on a key and just off one. Then the
/// empty ones (between two keys, before every key, after every key) and
/// the whole block.
fn edge_ranges(n: usize, fanout: usize) -> Vec<(Value, Value)> {
    let at = edge_positions(n, fanout);
    let last = amount(n - 1);
    let mut ranges = Vec::new();
    for (k, &p) in at.iter().enumerate() {
        for &q in at[k..].iter().take_while(|&&q| q <= p + fanout + 2) {
            ranges.push((dec(amount(p)), dec(amount(q))));
            ranges.push((dec(amount(p) - 5), dec(amount(q) + 5)));
        }
        ranges.push((dec(amount(p) + 3), dec(amount(p) + 4)));
    }
    ranges.push((dec(-100), dec(-5)));
    ranges.push((dec(last + 5), dec(last + 100)));
    ranges.push((dec(-5), dec(last + 5)));
    ranges
}

fn debug(vo: &QueryVo) -> String {
    format!("{vo:?}")
}

/// At every page edge of every block size, the frozen block's VO is the
/// resident tree's, byte for byte, and it verifies.
#[test]
fn a_frozen_proof_is_the_resident_trees_at_every_page_edge() {
    let blocks = chain(&SIZES);
    let store = store_of(&blocks);
    let (resident, frozen) = resident_and_frozen(&blocks, &store);
    let height = blocks.len() as u64;
    let fanout = frozen.fanout();
    let mut proven = 0;
    for (bid, &n) in SIZES.iter().enumerate() {
        assert_eq!(frozen.mb_root(bid as u64), resident.mb_root(bid as u64));
        let only = Bitmap::from_bits([bid]);
        for (lo, hi) in edge_ranges(n, fanout) {
            let pred = KeyPredicate::Range(lo, hi);
            let want = resident.authenticated_query(&pred, Some(&only), height);
            let got = frozen.authenticated_query(&pred, Some(&only), height);
            assert_eq!(debug(&got), debug(&want), "block of {n}, {pred:?}");
            let digest = frozen.auxiliary_query(&only, height);
            if got.per_block.is_empty() {
                continue;
            }
            verify_query_vo(&got, &pred, &digest, fanout).unwrap();
            proven += 1;
        }
    }
    assert!(proven > 1_000, "{proven} proofs with a result");
}

/// An empty answer ships no `BlockVo`, so the proofs of empty ranges —
/// and every other — are compared where they are built: the stored
/// leaves and digests of each block prove what its resident tree
/// proves.
#[test]
fn a_stored_tree_proves_what_its_resident_tree_proves() {
    let blocks = chain(&SIZES);
    let store = store_of(&blocks);
    let (resident, frozen) = resident_and_frozen(&blocks, &store);
    let cp = frozen.checkpoint();
    let fanout = frozen.fanout();
    let stored = cp.entries.iter().filter(|(k, _)| k[0] == TAG_BLOCK_ENTRIES);
    let mut empty = 0;
    for ((_, bytes), (bid, &n)) in stored.zip(SIZES.iter().enumerate()) {
        let stored = StoredTree::parse(bytes);
        let leaves = (0..n).map(|p| stored.entry(p)).collect();
        let tree = MbTree::build(leaves, fanout);
        assert_eq!(tree.root(), resident.mb_root(bid as u64));
        assert_eq!(stored.upper().len(), stored_digests(n), "block of {n}");
        for (lo, hi) in edge_ranges(n, fanout) {
            let want = tree.range_query(&lo, &hi);
            let got = MbTree::prove_stored(&stored, &tree.root(), fanout, &lo, &hi);
            assert_eq!(got, Ok(want.clone()), "block of {n}, [{lo:?}, {hi:?}]");
            let (results, proof) = want;
            MbTree::verify_range(&tree.root(), &lo, &hi, &results, &proof, fanout).unwrap();
            empty += usize::from(results.is_empty());
        }
    }
    assert!(empty >= 3 * SIZES.len(), "{empty} empty answers");
    // The f³ + 1 block stores three levels: f² + 1, f + 1 and 2 nodes.
    assert_eq!(stored_digests(F * F * F + 1), F * F + F + 4);
}

/// Entries of the block the edit tests tamper with: f − 1 full leaf
/// pages under one node, so it stores their f − 1 level-1 digests.
const TAMPERED: usize = F * (F - 1);

/// A frozen [`TAMPERED`]-entry block in a store, with the bytes of its
/// `0x03` entry edited on disk by `edit`. Returns the index, the
/// block's root and the store (which owns the file).
fn tampered(edit: impl FnOnce(&mut [u8])) -> (LayeredIndex, Digest, BlockStore) {
    let blocks = chain(&[TAMPERED]);
    let store = store_of(&blocks);
    let (_, frozen) = resident_and_frozen(&blocks, &store);
    // The root is read through the cache: load it before the edit.
    let root = frozen.mb_root(0);
    let cp = frozen.checkpoint();
    let (_, value) = cp
        .entries
        .iter()
        .find(|(k, _)| k[0] == TAG_BLOCK_ENTRIES)
        .unwrap();
    assert_eq!(
        StoredTree::parse(value).upper().len(),
        stored_digests(TAMPERED)
    );
    let path = store
        .dir()
        .join(INDEX_CHECKPOINT_DIR)
        .join(checkpoint_file_name(&cp.family));
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.windows(value.len()).position(|w| w == value).unwrap();
    edit(&mut bytes[at..at + value.len()]);
    std::fs::write(&path, bytes).unwrap();
    (frozen, root, store)
}

/// Flips a bit of the transaction hash of leaf `p` in a `0x03` entry.
fn flip_leaf(value: &mut [u8], p: usize) {
    let hash = StoredTree::parse(value).entry(p).tx_hash;
    let at = value
        .windows(32)
        .position(|w| w == hash.as_bytes())
        .unwrap();
    value[at + 31] ^= 1;
}

/// Flips a bit of the `d`-th stored internal digest of a `0x03` entry.
fn flip_digest(value: &mut [u8], d: usize) {
    let stored = StoredTree::parse(value).upper().len();
    let at = value.len() - (stored - d) * 32;
    value[at + 7] ^= 1;
}

fn query(idx: &LayeredIndex, lo: i64, hi: i64) -> QueryVo {
    let pred = KeyPredicate::Range(dec(lo), dec(hi));
    idx.authenticated_query(&pred, None, 1)
}

/// A leaf the proof reveals must hash, through its page, to the root.
#[test]
#[should_panic(expected = "does not hash to its MB-root")]
fn a_flipped_leaf_on_a_revealed_page_fails_stop() {
    let edge = 2 * F;
    let (frozen, _, _store) = tampered(|value| flip_leaf(value, edge + 2));
    // Positions edge − 2 ..= edge + 7 straddle the edge of pages 1 and 2.
    query(&frozen, amount(edge - 1), amount(edge + 6));
}

/// A stored internal digest must hash, with its siblings, to the root.
#[test]
#[should_panic(expected = "does not hash to its MB-root")]
fn a_flipped_stored_digest_fails_stop() {
    let last = TAMPERED / F - 1;
    let (frozen, _, _store) = tampered(|value| flip_digest(value, last));
    // A proof on page 0 ships the last page's digest as a fringe node.
    query(&frozen, amount(1), amount(2));
}

/// The check's scope is what the answer ships: the revealed pages
/// (hashed against the stored level-1 digests) and the stored levels
/// (hashed to the root). A flipped byte in a leaf on a page the proof
/// does not reveal is never read, so it is not caught there: the VO is
/// the honest one, and `verify_query_vo` accepts it. A query that
/// reveals that page fails stop.
#[test]
fn a_flipped_leaf_on_an_unrevealed_page_is_outside_the_proof() {
    let flipped = TAMPERED - 10;
    let (frozen, root, _store) = tampered(|value| flip_leaf(value, flipped));
    // Positions 0 ..= 3 lie on page 0, the flipped leaf on a later one.
    assert!(flipped / F > 0);
    let (lo, hi) = (amount(1), amount(2));
    let vo = query(&frozen, lo, hi);
    assert_eq!(vo.per_block.len(), 1);
    assert_eq!(vo.per_block[0].mb_root, root);
    let pred = KeyPredicate::Range(dec(lo), dec(hi));
    let digest = frozen.auxiliary_query(&Bitmap::from_bits([0]), 1);
    verify_query_vo(&vo, &pred, &digest, frozen.fanout()).unwrap();
    let revealing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        query(&frozen, amount(flipped - 1), amount(flipped + 1))
    }));
    assert!(
        revealing.is_err(),
        "a query revealing the flipped leaf's page must fail stop"
    );
}

/// Per-block proof cost, resident tree and frozen block, at 5 and at
/// 100 entries per block (`deep`'s and `mixed`'s shapes). Each query
/// reveals one or two entries near the middle of the block.
///
/// ```sh
/// cargo test --release -p sebdb-index --test frozen_proofs frozen_proof_cost -- --ignored --nocapture
/// ```
#[test]
#[ignore = "timing; run in release with --nocapture"]
fn frozen_proof_cost() {
    const BLOCKS: usize = 200;
    const ROUNDS: usize = 20;
    for n in [5, 100] {
        let blocks = chain(&[n; BLOCKS]);
        let store = store_of(&blocks);
        let (resident, frozen) = resident_and_frozen(&blocks, &store);
        let pred = KeyPredicate::Range(dec(amount(n / 2)), dec(amount(n / 2) + 5));
        for (name, idx) in [("resident", &resident), ("frozen", &frozen)] {
            let mut best = f64::MAX;
            for _ in 0..ROUNDS {
                let start = std::time::Instant::now();
                for bid in 0..BLOCKS {
                    let only = Bitmap::from_bits([bid]);
                    let vo = idx.authenticated_query(&pred, Some(&only), BLOCKS as u64);
                    assert_eq!(vo.per_block.len(), 1);
                }
                let per_block = start.elapsed().as_secs_f64() * 1e6 / BLOCKS as f64;
                best = best.min(per_block);
            }
            println!(
                "frozen_proof_cost entries={n:>3} {name:<8} {best:6.2} us/block (best of {ROUNDS})"
            );
        }
    }
}
