//! The authenticated reads of the layered index (§VI).
//!
//! The paper's ALI is the layered index with each per-block B⁺-tree
//! replaced by an [`MbTree`]; here every [`LayeredIndex`] is built that
//! way, so this file adds no structure — only what reads the trees'
//! digests: the two server-side phases, the VO they exchange and the
//! client's check of it. "Since each block maintains the second
//! level index, each block height corresponds to a snapshot": a query
//! at height `h` touches only blocks `< h`, and the auxiliary full
//! node's digest is the hash of the concatenation of the MB-tree roots
//! of exactly the blocks the query visits.
//!
//! Those are the blocks holding a match, and which they are is handed
//! in, not looked up here: the serving node probes the same index for
//! them (`thin_client.rs`) and hands both phases that set, so a VO
//! carries one [`BlockVo`] per block with a result, a query costs its
//! result and neither phase reads the first level.
//!
//! Paged backend (DESIGN §13): frozen blocks keep their sorted leaf
//! entries, the MB-tree's internal digests and its 32-byte root in the
//! checkpoint. Roots answer auxiliary queries without touching leaf
//! data; a frozen block's proof is built from its stored leaves and
//! digests, hashing only the leaf pages it reveals
//! ([`MbTree::prove_stored`]), and is the resident tree's byte for
//! byte. They are read past the index-block cache and checked against
//! the stored root, so how many proofs ran does not set what the cache
//! holds.

use crate::bitmap::Bitmap;
use crate::layered::{KeyPredicate, LayeredIndex};
use crate::mbtree::{AuthEntry, MbTree, RangeProof, VerifyError};
use crate::paged::{decode_fail, get_digest, StoredTree, TAG_BLOCK_ENTRIES, TAG_BLOCK_ROOT};
use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_storage::TxPtr;
use sebdb_types::{BlockId, Decoder, Value};

/// The paper's name for an index that can prove its answers. Every
/// layered index can; the alias is kept only because the frozen
/// benchmark harness names it, and goes when the harness is re-pinned
/// (ROADMAP item 1).
pub type AuthenticatedLayeredIndex = LayeredIndex;

/// The verification object returned by a full node for one
/// authenticated query (phase 1 of §VI's protocol).
#[derive(Debug, Clone)]
pub struct QueryVo {
    /// Chain height when the query executed — the snapshot.
    pub height: BlockId,
    /// Blocks the query visited (ascending), with their per-block
    /// results and range proofs.
    pub per_block: Vec<BlockVo>,
}

/// One visited block's contribution to the VO.
#[derive(Debug, Clone)]
pub struct BlockVo {
    /// Visited block.
    pub block: BlockId,
    /// Matching entries in this block.
    pub results: Vec<AuthEntry>,
    /// Proof tying the results to the block's MB-tree root.
    pub proof: RangeProof,
    /// The MB-tree root the proof reconstructs to (also covered by the
    /// auxiliary digest).
    pub mb_root: Digest,
}

impl QueryVo {
    /// Total VO size in bytes (Fig. 17's metric).
    pub fn byte_len(&self) -> usize {
        8 + self
            .per_block
            .iter()
            .map(|b| {
                8 + 32
                    + b.proof.byte_len()
                    + b.results.iter().map(AuthEntry::byte_len).sum::<usize>()
            })
            .sum::<usize>()
    }

    /// All matching transaction pointers across blocks.
    pub fn result_ptrs(&self) -> Vec<TxPtr> {
        self.per_block
            .iter()
            .flat_map(|b| b.results.iter().map(|e| e.ptr))
            .collect()
    }
}

/// Hashes the MB-roots of the visited blocks into the auxiliary
/// digest ("the auxiliary full node … generates a digest according to
/// the roots of MB-trees the query visited").
pub fn auxiliary_digest(roots: &[(BlockId, Digest)]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x04]);
    for (bid, root) in roots {
        h.update(&bid.to_le_bytes());
        h.update(root.as_bytes());
    }
    h.finalize()
}

/// The blocks of `set` below the snapshot `height`, ascending — the
/// order both phases walk and the digest hashes.
fn below(set: &Bitmap, height: BlockId) -> impl Iterator<Item = BlockId> + '_ {
    set.iter_ones()
        .map(|bid| bid as BlockId)
        .take_while(move |&bid| bid < height)
}

impl LayeredIndex {
    /// The MB-tree root of a block that has a tree (`None` for one with
    /// no indexed entries). Frozen blocks answer from their stored root
    /// without touching leaf data.
    fn block_root(&self, bid: BlockId) -> Option<Digest> {
        if let Some(tree) = self.tail_tree(bid) {
            return Some(tree.root());
        }
        self.frozen_entry(TAG_BLOCK_ROOT, bid).map(|bytes| {
            let root = get_digest(&mut Decoder::new(&bytes), "block root");
            decode_fail("MB-tree root entry", root)
        })
    }

    /// The MB-tree root of block `bid` (ZERO if the block has no
    /// indexed entries).
    pub fn mb_root(&self, bid: BlockId) -> Digest {
        self.block_root(bid).unwrap_or(Digest::ZERO)
    }

    /// Proves `lo ≤ key ≤ hi` over frozen block `bid` from its stored
    /// leaves and internal digests, read past the cache and the block
    /// checksum: what the proof reveals must hash to the block's stored
    /// root — a stronger check than the checksum over those bytes, and
    /// one that fails stop like it. Returns the proof and that root.
    fn frozen_proof(
        &self,
        bid: BlockId,
        lo: &Value,
        hi: &Value,
    ) -> Option<(Vec<AuthEntry>, RangeProof, Digest)> {
        let stored = self.frozen_entry_direct(TAG_BLOCK_ENTRIES, bid);
        match (stored, self.block_root(bid)) {
            (None, None) => None,
            (Some(bytes), Some(root)) => {
                let stored = StoredTree::parse(&bytes);
                let proven = MbTree::prove_stored(&stored, &root, self.fanout(), lo, hi);
                let Ok((results, proof)) = proven else {
                    panic!("frozen block {bid}: leaf list does not hash to its MB-root")
                };
                Some((results, proof, root))
            }
            _ => panic!("frozen block {bid}: a leaf list without an MB-root or the reverse"),
        }
    }

    /// Phase 1 (full node): execute `pred` at snapshot `height`,
    /// producing the VO — one [`BlockVo`] per block of `blocks` (of the
    /// chain, handed none) below `height` that holds a match, ascending.
    /// A handed block with no tree or no match has nothing to prove and
    /// is left out, so any superset of the blocks holding a match yields
    /// the same VO; handed exactly those, the query costs the result.
    /// The first level is not asked, and an index without trees proves
    /// nothing.
    pub fn authenticated_query(
        &self,
        pred: &KeyPredicate,
        blocks: Option<&Bitmap>,
        height: BlockId,
    ) -> QueryVo {
        debug_assert!(self.keeps_trees(), "proving from a first-level-only index");
        let (lo, hi) = pred.bounds();
        let all;
        let blocks = match blocks {
            Some(set) => set,
            None => {
                all = Bitmap::from_bits(0..height as usize);
                &all
            }
        };
        let mut per_block = Vec::new();
        for bid in below(blocks, height) {
            let proven = match self.tail_tree(bid) {
                Some(tree) => {
                    let (results, proof) = tree.range_query(lo, hi);
                    Some((results, proof, tree.root()))
                }
                None => self.frozen_proof(bid, lo, hi),
            };
            let Some((results, proof, mb_root)) = proven else {
                continue;
            };
            if results.is_empty() {
                continue;
            }
            per_block.push(BlockVo {
                block: bid,
                results,
                proof,
                mb_root,
            });
        }
        QueryVo { height, per_block }
    }

    /// Phase 2 (auxiliary full node): the digest over the roots of the
    /// `visited` blocks below the snapshot `height` the client relays.
    /// Roots alone cannot tell which blocks hold a match, so `visited`
    /// must be exactly those — the set phase 1 proves; a block with no
    /// tree has no root and is left out, as phase 1 leaves it out.
    pub fn auxiliary_query(&self, visited: &Bitmap, height: BlockId) -> Digest {
        let roots: Vec<(BlockId, Digest)> = below(visited, height)
            .filter_map(|bid| Some((bid, self.block_root(bid)?)))
            .collect();
        auxiliary_digest(&roots)
    }
}

/// Client-side verification of a [`QueryVo`] against the auxiliary
/// digest: checks every per-block proof (soundness + completeness
/// within the block) and that the block set + roots hash to `digest`
/// (no visited block omitted).
pub fn verify_query_vo(
    vo: &QueryVo,
    pred: &KeyPredicate,
    digest: &Digest,
    fanout: usize,
) -> Result<(), VerifyError> {
    let (lo, hi) = pred.bounds();
    let mut roots = Vec::with_capacity(vo.per_block.len());
    for b in &vo.per_block {
        MbTree::verify_range(&b.mb_root, lo, hi, &b.results, &b.proof, fanout)?;
        roots.push((b.block, b.mb_root));
    }
    if auxiliary_digest(&roots) != *digest {
        return Err(VerifyError::RootMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EqualDepthHistogram;
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::{Block, ColumnRef, Transaction, Value};

    fn block(height: u64, amounts: &[i64]) -> Block {
        let txs = amounts
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mut t = Transaction::new(
                    height * 100 + i as u64,
                    KeyId([1; 8]),
                    "donate",
                    vec![Value::str("d"), Value::str("p"), Value::decimal(a)],
                );
                t.tid = height * 100 + i as u64;
                t
            })
            .collect();
        Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
    }

    fn ali_with_blocks(blocks: &[&[i64]]) -> LayeredIndex {
        let sample: Vec<i64> = (0..1000)
            .map(|i| Value::decimal(i).numeric_rank().unwrap())
            .collect();
        let mut ali = LayeredIndex::new_continuous(
            Some("donate".into()),
            ColumnRef::App(2),
            EqualDepthHistogram::from_sample(sample, 10),
        );
        for (h, amounts) in blocks.iter().enumerate() {
            ali.update(&block(h as u64, amounts));
        }
        ali
    }

    /// The blocks a VO proves: what phase 2 is handed.
    fn visited(vo: &QueryVo) -> Bitmap {
        Bitmap::from_bits(vo.per_block.iter().map(|b| b.block as usize))
    }

    #[test]
    fn two_phase_protocol_end_to_end() {
        let ali = ali_with_blocks(&[&[10, 20, 500], &[510, 520], &[900, 950]]);
        let pred = KeyPredicate::Range(Value::decimal(490), Value::decimal(530));
        // Phase 1: full node.
        let vo = ali.authenticated_query(&pred, None, 3);
        assert_eq!(vo.result_ptrs().len(), 3); // 500, 510, 520
                                               // Phase 2: auxiliary node.
        let digest = ali.auxiliary_query(&visited(&vo), 3);
        // Client verifies.
        verify_query_vo(&vo, &pred, &digest, ali.fanout()).unwrap();
    }

    #[test]
    fn snapshot_height_limits_blocks() {
        let ali = ali_with_blocks(&[&[100], &[100], &[100]]);
        let pred = KeyPredicate::Eq(Value::decimal(100));
        let vo = ali.authenticated_query(&pred, None, 2);
        assert_eq!(vo.per_block.len(), 2, "height 2 snapshot sees blocks 0,1");
        let digest = ali.auxiliary_query(&visited(&vo), 2);
        verify_query_vo(&vo, &pred, &digest, ali.fanout()).unwrap();
    }

    #[test]
    fn omitted_block_detected_by_digest() {
        let ali = ali_with_blocks(&[&[100], &[100], &[100]]);
        let pred = KeyPredicate::Eq(Value::decimal(100));
        let mut vo = ali.authenticated_query(&pred, None, 3);
        let digest = ali.auxiliary_query(&visited(&vo), 3);
        vo.per_block.remove(1); // malicious full node hides a block
        assert!(verify_query_vo(&vo, &pred, &digest, ali.fanout()).is_err());
    }

    #[test]
    fn tampered_result_detected() {
        let ali = ali_with_blocks(&[&[100, 200]]);
        let pred = KeyPredicate::Range(Value::decimal(50), Value::decimal(250));
        let mut vo = ali.authenticated_query(&pred, None, 1);
        let digest = ali.auxiliary_query(&visited(&vo), 1);
        vo.per_block[0].results[0].tx_hash = sebdb_crypto::sha256(b"fake");
        assert!(verify_query_vo(&vo, &pred, &digest, ali.fanout()).is_err());
    }

    #[test]
    fn dropped_result_within_block_detected() {
        let ali = ali_with_blocks(&[&[100, 110, 120]]);
        let pred = KeyPredicate::Range(Value::decimal(90), Value::decimal(130));
        let mut vo = ali.authenticated_query(&pred, None, 1);
        let digest = ali.auxiliary_query(&visited(&vo), 1);
        vo.per_block[0].results.remove(1);
        assert!(verify_query_vo(&vo, &pred, &digest, ali.fanout()).is_err());
    }

    #[test]
    fn window_mask_respected_by_both_phases() {
        let ali = ali_with_blocks(&[&[100], &[100], &[100]]);
        let pred = KeyPredicate::Eq(Value::decimal(100));
        let mut mask = Bitmap::new();
        mask.set(1);
        let vo = ali.authenticated_query(&pred, Some(&mask), 3);
        assert_eq!(vo.per_block.len(), 1);
        let digest = ali.auxiliary_query(&mask, 3);
        verify_query_vo(&vo, &pred, &digest, ali.fanout()).unwrap();
    }

    /// A handed-in set may name blocks with no tree or no match (the
    /// harness hands the whole window mask). Phase 1 proves nothing for
    /// either, so every superset of the blocks holding a match yields
    /// one VO; phase 2 has no root for a block with no tree and leaves
    /// it out too, so the two agree on it — resident and frozen alike,
    /// byte for byte.
    #[test]
    fn both_phases_leave_out_a_handed_block_with_no_tree() {
        let chain: [&[i64]; 5] = [&[100], &[], &[100, 300], &[300], &[]];
        let mut ali = ali_with_blocks(&chain);
        let pred = KeyPredicate::Eq(Value::decimal(100));
        let store = sebdb_storage::BlockStore::temporary(Default::default()).unwrap();
        for (h, amounts) in chain.iter().enumerate() {
            store.append(&block(h as u64, amounts)).unwrap();
        }
        let mut resident = None;
        for frozen in [false, true] {
            if frozen {
                let cp = ali.checkpoint();
                store.write_index_checkpoint(&cp).unwrap();
                ali.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
            }
            let vo = ali.authenticated_query(&pred, None, 5);
            assert_eq!(visited(&vo), Bitmap::from_bits([0, 2]), "frozen = {frozen}");
            // Blocks 1 and 4 have no tree, block 3 no match.
            for handed in [vec![0, 2], vec![0, 1, 2, 4], vec![0, 1, 2, 3, 4, 5, 6]] {
                let handed = Bitmap::from_bits(handed);
                let again = ali.authenticated_query(&pred, Some(&handed), 5);
                assert_eq!(format!("{again:?}"), format!("{vo:?}"));
            }
            let digest = ali.auxiliary_query(&Bitmap::from_bits([0, 1, 2, 4]), 5);
            let roots = [(0, ali.mb_root(0)), (2, ali.mb_root(2))];
            assert_eq!(digest, auxiliary_digest(&roots), "frozen = {frozen}");
            verify_query_vo(&vo, &pred, &digest, ali.fanout()).unwrap();
            // Freezing moves no byte of the answer.
            let answer = (format!("{vo:?}"), digest);
            assert_eq!(*resident.get_or_insert(answer.clone()), answer);
        }
    }

    /// A frozen leaf list is read past the block checksum, so the leaf
    /// pages a proof reveals must hash to the stored level-1 digests and
    /// those to the stored root: a flipped byte in a revealed leaf's hash
    /// fails stop. (`tests/frozen_proofs.rs` flips a stored digest, and a
    /// leaf on a page the proof does not reveal.)
    #[test]
    #[should_panic(expected = "does not hash to its MB-root")]
    fn a_frozen_leaf_list_must_hash_to_its_root() {
        use crate::mbtree::DEFAULT_FANOUT as F;
        use sebdb_storage::indexseg::checkpoint_file_name;
        // Three leaf pages (f, f and f / 2 entries) under one node, so
        // the stored digests are the pages' level-1 ones.
        let (n, pages) = (2 * F + F / 2, 3);
        let amounts: Vec<i64> = (0..n as i64).map(|i| i * 10).collect();
        let mut ali = ali_with_blocks(&[&amounts]);
        let store = sebdb_storage::BlockStore::temporary(Default::default()).unwrap();
        store.append(&block(0, &amounts)).unwrap();
        let cp = ali.checkpoint();
        store.write_index_checkpoint(&cp).unwrap();
        ali.adopt_frozen(store.load_index_checkpoint(&cp.family).unwrap().unwrap());
        // The root is read through the cache: load it before the flip.
        assert_ne!(ali.mb_root(0), Digest::ZERO);
        let (_, leaves) = cp
            .entries
            .iter()
            .find(|(k, _)| k[0] == TAG_BLOCK_ENTRIES)
            .unwrap();
        assert_eq!(StoredTree::parse(leaves).upper().len(), pages);
        let path = store
            .dir()
            .join(sebdb_storage::INDEX_CHECKPOINT_DIR)
            .join(checkpoint_file_name(&cp.family));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .windows(leaves.len())
            .position(|w| w == leaves)
            .unwrap();
        // The last leaf ends with its 32-byte hash and a 12-byte pointer,
        // before the pages' 32-byte level-1 digests.
        bytes[at + leaves.len() - 32 * pages - 20] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let last = amounts[n - 1];
        let pred = KeyPredicate::Range(Value::decimal(last - 90), Value::decimal(last));
        ali.authenticated_query(&pred, None, 1);
    }

    #[test]
    fn discrete_ali_tracking_query() {
        let mut ali = LayeredIndex::new_discrete(None, ColumnRef::SenId);
        ali.update(&block(0, &[1, 2]));
        ali.update(&block(1, &[3]));
        let sender = Value::Bytes(vec![1u8; 8]);
        let pred = KeyPredicate::Eq(sender);
        let vo = ali.authenticated_query(&pred, None, 2);
        assert_eq!(vo.result_ptrs().len(), 3);
        let digest = ali.auxiliary_query(&visited(&vo), 2);
        verify_query_vo(&vo, &pred, &digest, ali.fanout()).unwrap();
    }

    #[test]
    fn vo_size_accounting_positive() {
        let ali = ali_with_blocks(&[&[100, 200, 300]]);
        let pred = KeyPredicate::Range(Value::decimal(50), Value::decimal(350));
        let vo = ali.authenticated_query(&pred, None, 1);
        assert!(vo.byte_len() > 0);
    }

    #[test]
    fn checkpoint_captures_roots_and_entries() {
        let ali = ali_with_blocks(&[&[100, 200], &[300]]);
        let cp = ali.checkpoint();
        assert_eq!(cp.height, 2);
        assert_eq!(cp.family, crate::family_layered(Some("donate"), "app2"));
        assert!(cp.entries.windows(2).all(|w| w[0].0 < w[1].0));
        // Per block: entries + root; per row: one run key; plus the
        // all-blocks bitmap (no bucket bitmap is checkpointed).
        assert_eq!(cp.entries.len(), 2 * 2 + 3 + 1);
        // Leaf lists round-trip through the codec; a block of ≤ fanout
        // entries stores no internal digest.
        let (_, bytes) = cp
            .entries
            .iter()
            .find(|(k, _)| k[0] == TAG_BLOCK_ENTRIES)
            .unwrap();
        let stored = StoredTree::parse(bytes);
        assert!(stored.upper().is_empty());
        let leaves = (0..stored.leaf_count()).map(|p| stored.entry(p)).collect();
        let tree = MbTree::build(leaves, ali.fanout());
        assert_eq!(tree.root(), ali.mb_root(0));
    }
}
