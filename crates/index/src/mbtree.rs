//! Merkle B-tree (MB-tree) — the second level of the layered index
//! (§IV-B, §VI).
//!
//! "MB-tree is a combination of B⁺-tree and Merkle Hash Tree, where
//! each leaf node contains the hash value of \[the\] record, and each
//! internal node stores the hash of the concatenation of its children."
//! The B⁺-tree half is the key-sorted leaf level: a plain range
//! ([`MbTree::range`]) is a binary search over it and reads no digest.
//!
//! Blocks are immutable, so each per-block MB-tree is *static*: built
//! once by bulk loading, [`DEFAULT_FANOUT`] entries per node (DESIGN §4).
//! A range query produces a [`RangeProof`] from which a thin
//! client can re-derive the root and check **soundness** (every result
//! is genuine) and **completeness** (no result is missing — enforced
//! through boundary entries, exactly as in the MB-tree range protocol
//! of Li et al., SIGMOD'06).

use crate::paged::{value_resident_bytes, StoredTree};
use sebdb_crypto::sha256::{Digest, Sha256};
use sebdb_storage::TxPtr;
use sebdb_types::{Encoder, Value};
use std::borrow::Borrow;

/// Entries per node of a new tree. No node is paged alone, so the width
/// sets only a proof's hashing and its `(f − 1)·⌈log_f n⌉` siblings; 16,
/// not §VII-A's 4 KB page of 64, is the narrowest whose extra digests
/// keep index memory and disk within 2.5 % of 64's (DESIGN §4). Every
/// MB-root depends on it, so a new value goes with a new
/// `indexseg::INDEX_MAGIC`: each store then replays its trees at it.
pub const DEFAULT_FANOUT: usize = 16;

/// One authenticated leaf entry: the key, the pointed-to transaction's
/// content hash, and its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthEntry {
    /// Index key (attribute value).
    pub key: Value,
    /// SHA-256 of the transaction's canonical encoding.
    pub tx_hash: Digest,
    /// Where the transaction lives.
    pub ptr: TxPtr,
}

impl AuthEntry {
    /// The leaf digest: `H(0x02 ‖ encode(key) ‖ tx_hash)`.
    pub fn digest(&self) -> Digest {
        let mut enc = Encoder::with_capacity(64);
        enc.put_value(&self.key);
        enc.put_raw(self.tx_hash.as_bytes());
        leaf_digest(&enc.finish())
    }

    /// Serialized size (for VO accounting).
    pub fn byte_len(&self) -> usize {
        let mut enc = Encoder::new();
        enc.put_value(&self.key);
        enc.len() + 32 + 12
    }
}

/// The leaf digest of `encode(key) ‖ tx_hash` — the bytes a leaf is
/// stored as, up to its pointer, so a stored leaf hashes where it lies.
pub(crate) fn leaf_digest(key_and_hash: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x02]);
    h.update(key_and_hash);
    h.finalize()
}

fn hash_children(children: &[Digest]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x03]);
    for c in children {
        h.update(c.as_bytes());
    }
    h.finalize()
}

/// The revealed positions `[a, b]` of a query matching `[i, j)` among
/// `n ≥ 1` entries: the matches plus one boundary entry on each side
/// that has one.
fn revealed(i: usize, j: usize, n: usize) -> (usize, usize) {
    let a = i.saturating_sub(1);
    let b = if j < n { j } else { j - 1 }.max(a);
    (a, b)
}

/// The one proof builder: the proof of the matches `[i, j)` among `n`
/// sorted leaves, a resident tree's or a frozen block's. `entry(p)`
/// hands leaf `p`, asked only for the revealed ones; `level(l)` hands
/// level `l`'s digests from some position on, as `(position,
/// digests)`. At every level below the root the builder reads the
/// children of the two boundary nodes around the revealed span, and
/// nothing else.
fn prove<'d>(
    n: usize,
    (i, j): (usize, usize),
    fanout: usize,
    entry: impl Fn(usize) -> AuthEntry,
    level: impl Fn(usize) -> (usize, &'d [Digest]),
) -> (Vec<AuthEntry>, RangeProof) {
    if n == 0 {
        let proof = RangeProof {
            start: 0,
            total: 0,
            left_boundary: None,
            right_boundary: None,
            fringe: Vec::new(),
        };
        return (Vec::new(), proof);
    }
    let (a, b) = revealed(i, j, n);
    let mut fringe = Vec::new();
    let (mut a_l, mut b_l, mut len) = (a, b, n);
    while len > 1 {
        let (at, digests) = level(fringe.len());
        let parent_a = a_l / fanout;
        let parent_b = b_l / fanout;
        let left_start = parent_a * fanout;
        let right_end = ((parent_b + 1) * fanout).min(len);
        let left = digests[left_start - at..a_l - at].to_vec();
        let right = digests[b_l + 1 - at..right_end - at].to_vec();
        fringe.push((left, right));
        a_l = parent_a;
        b_l = parent_b;
        len = len.div_ceil(fanout);
    }
    let proof = RangeProof {
        start: a,
        total: n,
        left_boundary: (i > 0).then(|| entry(a)),
        right_boundary: (j < n).then(|| entry(b)),
        fringe,
    };
    ((i..j).map(entry).collect(), proof)
}

/// Leaf positions `[i, j)` of the `n` sorted leaves with `lo ≤ key ≤
/// hi`, `key(p)` being leaf `p`'s key: one descent to `lo`, then a walk
/// along the leaves to the first key past `hi` — every caller reads the
/// span it gets, so the walk is no extra order of work, and a probe
/// that finds nothing in this block (most of them) pays one comparison
/// for it.
fn span<K: Borrow<Value>>(
    n: usize,
    key: impl Fn(usize) -> K,
    lo: &Value,
    hi: &Value,
) -> (usize, usize) {
    let (mut i, mut end) = (0, n);
    while i < end {
        let mid = i + (end - i) / 2;
        if key(mid).borrow() < lo {
            i = mid + 1;
        } else {
            end = mid;
        }
    }
    let matching = (i..n).take_while(|&p| key(p).borrow() <= hi);
    (i, i + matching.count())
}

/// A static (bulk-loaded, immutable) MB-tree over one block's entries,
/// sorted by key.
#[derive(Debug, Clone)]
pub struct MbTree {
    fanout: usize,
    /// `levels[0]` = leaf-entry digests; each higher level hashes
    /// `fanout` children. `levels.last()` = `[root]`.
    levels: Vec<Vec<Digest>>,
    entries: Vec<AuthEntry>,
}

/// Verification object for a range query against one MB-tree.
///
/// `fringe[l]` holds, for level `l`, the sibling digests inside the
/// boundary parent nodes: first the digests left of the covered range,
/// then those right of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeProof {
    /// Index of the first revealed entry.
    pub start: usize,
    /// Total number of entries in the tree.
    pub total: usize,
    /// Left boundary entry (first revealed, key < lo), when the range
    /// does not start at entry 0.
    pub left_boundary: Option<AuthEntry>,
    /// Right boundary entry (last revealed, key > hi), when the range
    /// does not end at the last entry.
    pub right_boundary: Option<AuthEntry>,
    /// Per-level (left digests, right digests) inside boundary nodes.
    pub fringe: Vec<(Vec<Digest>, Vec<Digest>)>,
}

impl RangeProof {
    /// VO size in bytes: fringe digests + boundary entries + framing.
    pub fn byte_len(&self) -> usize {
        let fringe: usize = self
            .fringe
            .iter()
            .map(|(l, r)| (l.len() + r.len()) * 32)
            .sum();
        let bounds: usize = self
            .left_boundary
            .iter()
            .map(AuthEntry::byte_len)
            .sum::<usize>()
            + self
                .right_boundary
                .iter()
                .map(AuthEntry::byte_len)
                .sum::<usize>();
        fringe + bounds + 16
    }
}

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Reconstructed root does not match the trusted root.
    RootMismatch,
    /// A returned result key falls outside the queried range.
    ResultOutOfRange,
    /// Results are not sorted by key.
    ResultsUnsorted,
    /// A boundary entry's key does not actually bound the range
    /// (completeness violation).
    BadBoundary,
    /// Proof shape is inconsistent (counts, indices).
    Malformed,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VerifyError::RootMismatch => "reconstructed root mismatch",
            VerifyError::ResultOutOfRange => "result key outside query range",
            VerifyError::ResultsUnsorted => "result keys unsorted",
            VerifyError::BadBoundary => "boundary entry does not bound the range",
            VerifyError::Malformed => "malformed proof",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VerifyError {}

impl MbTree {
    /// Bulk-loads a tree from entries sorted by key.
    pub fn build(mut entries: Vec<AuthEntry>, fanout: usize) -> Self {
        assert!(fanout >= 2);
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut levels: Vec<Vec<Digest>> = Vec::new();
        levels.push(entries.iter().map(AuthEntry::digest).collect());
        if levels[0].is_empty() {
            return MbTree {
                fanout,
                levels,
                entries,
            };
        }
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let next: Vec<Digest> = prev.chunks(fanout).map(hash_children).collect();
            levels.push(next);
        }
        MbTree {
            fanout,
            levels,
            entries,
        }
    }

    /// The authenticated root. Empty trees root at [`Digest::ZERO`].
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first().copied())
            .unwrap_or(Digest::ZERO)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries (sorted by key).
    pub fn entries(&self) -> &[AuthEntry] {
        &self.entries
    }

    /// Resident bytes: the leaves plus ≈ n/(fanout-1) interior digests.
    pub fn memory_bytes(&self) -> usize {
        let leaves: usize = self
            .entries
            .iter()
            .map(|e| value_resident_bytes(&e.key) + 32 + 16)
            .sum();
        leaves + self.len() * 32 / self.fanout.saturating_sub(1).max(1)
    }

    /// The digests a frozen block stores beside its leaves: levels 1 …
    /// top−1, bottom-up — every node but the leaves and the root, so
    /// none for a tree of ≤ fanout entries.
    pub fn internal_digests(&self) -> impl Iterator<Item = &Digest> {
        let inner = self.levels.len().saturating_sub(2);
        self.levels.iter().skip(1).take(inner).flatten()
    }

    /// The entries with `lo ≤ key ≤ hi`, unproven — the plain read of
    /// the leaf level. Equal keys come in block-position order (the
    /// build sort is stable).
    pub fn range(&self, lo: &Value, hi: &Value) -> &[AuthEntry] {
        let (i, j) = self.span(lo, hi);
        &self.entries[i..j]
    }

    fn span(&self, lo: &Value, hi: &Value) -> (usize, usize) {
        span(self.len(), |p| &self.entries[p].key, lo, hi)
    }

    /// Answers `lo ≤ key ≤ hi`, returning the matching entries and a
    /// proof of soundness + completeness.
    pub fn range_query(&self, lo: &Value, hi: &Value) -> (Vec<AuthEntry>, RangeProof) {
        let entry = |p: usize| self.entries[p].clone();
        let level = |l: usize| (0, &self.levels[l][..]);
        prove(self.len(), self.span(lo, hi), self.fanout, entry, level)
    }

    /// [`Self::range_query`] over a frozen block without building its
    /// tree, from its stored leaves and internal digests ([`StoredTree`])
    /// and its stored MB-root. Only the leaf pages (one node, `fanout`
    /// entries each) the revealed span touches are hashed, and only the
    /// leaves it reveals are decoded. Each such page must hash to its
    /// stored level-1 digest, and the stored levels to `root`, so all the
    /// answer ships is covered by `root`, and it is the resident tree's
    /// byte for byte. A leaf on a page the span does not touch is not
    /// read. `Err(RootMismatch)` when the bytes do not hash to `root`,
    /// `Err(Malformed)` when the stored digests have another tree's
    /// shape.
    pub fn prove_stored(
        stored: &StoredTree<'_>,
        root: &Digest,
        fanout: usize,
        lo: &Value,
        hi: &Value,
    ) -> Result<(Vec<AuthEntry>, RangeProof), VerifyError> {
        let n = stored.leaf_count();
        // Levels 1 … top, the root's included: stored, then `root`.
        let mut above: Vec<&[Digest]> = Vec::new();
        let (mut len, mut rest) = (n, stored.upper());
        while len > 1 {
            len = len.div_ceil(fanout);
            let (level, tail) = match len {
                1 => (std::slice::from_ref(root), rest),
                _ => rest.split_at_checked(len).ok_or(VerifyError::Malformed)?,
            };
            above.push(level);
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(VerifyError::Malformed);
        }
        for pair in above.windows(2) {
            let nodes = pair[0].chunks(fanout).map(hash_children);
            if !nodes.eq(pair[1].iter().copied()) {
                return Err(VerifyError::RootMismatch);
            }
        }
        let matches = span(n, |p| stored.key(p), lo, hi);
        // The leaf pages the revealed span touches.
        let (first, leaves) = match (n, above.first()) {
            (0, _) => (0, Vec::new()),
            (_, None) => (0, vec![stored.leaf_digest(0)]),
            (_, Some(level1)) => {
                let (a, b) = revealed(matches.0, matches.1, n);
                let (pa, pb) = (a / fanout, b / fanout);
                let pages = pa * fanout..((pb + 1) * fanout).min(n);
                let leaves: Vec<Digest> = pages.map(|p| stored.leaf_digest(p)).collect();
                let nodes = leaves.chunks(fanout).map(hash_children);
                if !nodes.eq(level1[pa..=pb].iter().copied()) {
                    return Err(VerifyError::RootMismatch);
                }
                (pa * fanout, leaves)
            }
        };
        // A one-entry tree's root is its leaf; an empty one's is ZERO.
        if above.is_empty() && leaves.first().unwrap_or(&Digest::ZERO) != root {
            return Err(VerifyError::RootMismatch);
        }
        let entry = |p: usize| stored.entry(p);
        let level = |l: usize| match l {
            0 => (first, &leaves[..]),
            _ => (0, above[l - 1]),
        };
        Ok(prove(n, matches, fanout, entry, level))
    }

    /// Client-side verification: reconstructs the root from the result
    /// entries + proof and checks soundness and completeness against
    /// the trusted `root`.
    pub fn verify_range(
        root: &Digest,
        lo: &Value,
        hi: &Value,
        results: &[AuthEntry],
        proof: &RangeProof,
        fanout: usize,
    ) -> Result<(), VerifyError> {
        if proof.total == 0 {
            // Empty tree: nothing can match; root must be the empty root.
            return if results.is_empty() && *root == Digest::ZERO {
                Ok(())
            } else {
                Err(VerifyError::RootMismatch)
            };
        }
        // Soundness shape checks on results.
        for r in results {
            if r.key < *lo || r.key > *hi {
                return Err(VerifyError::ResultOutOfRange);
            }
        }
        if results.windows(2).any(|w| w[0].key > w[1].key) {
            return Err(VerifyError::ResultsUnsorted);
        }
        // Completeness: boundaries must straddle the range, and absence
        // of a boundary means the revealed range touches the tree edge.
        if let Some(lb) = &proof.left_boundary {
            if lb.key >= *lo {
                return Err(VerifyError::BadBoundary);
            }
        } else if proof.start != 0 {
            return Err(VerifyError::Malformed);
        }
        let revealed: Vec<&AuthEntry> = proof
            .left_boundary
            .iter()
            .chain(results.iter())
            .chain(proof.right_boundary.iter())
            .collect();
        if revealed.is_empty() {
            return Err(VerifyError::Malformed);
        }
        if let Some(rb) = &proof.right_boundary {
            if rb.key <= *hi {
                return Err(VerifyError::BadBoundary);
            }
        } else if proof.start + revealed.len() != proof.total {
            return Err(VerifyError::Malformed);
        }
        // Reconstruct the root.
        let mut digests: Vec<Digest> = revealed.iter().map(|e| e.digest()).collect();
        let mut a = proof.start;
        let mut n = proof.total;
        for (left, right) in &proof.fringe {
            let b = a + digests.len() - 1;
            let parent_a = a / fanout;
            let parent_b = b / fanout;
            // Stitch fringes around the covered digests.
            let mut level: Vec<Digest> =
                Vec::with_capacity(left.len() + digests.len() + right.len());
            level.extend_from_slice(left);
            level.append(&mut digests);
            level.extend_from_slice(right);
            // Check the fringe sizes are consistent with the claimed
            // positions.
            let left_start = parent_a * fanout;
            let right_end = ((parent_b + 1) * fanout).min(n);
            if left.len() != a - left_start || right.len() != right_end - (b + 1) {
                return Err(VerifyError::Malformed);
            }
            // Hash full nodes.
            digests = level.chunks(fanout).map(hash_children).collect();
            a = parent_a;
            n = n.div_ceil(fanout);
        }
        if digests.len() != 1 || digests[0] != *root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sebdb_crypto::sha256::sha256;

    /// Every MB-root depends on the fanout, and a checkpoint's magic
    /// names the trees it holds: a new fanout comes with a new magic, or
    /// a reopened store keeps roots no fresh replica derives.
    #[test]
    fn the_fanout_is_pinned_to_the_checkpoint_format() {
        use sebdb_storage::indexseg::INDEX_MAGIC;
        assert_eq!((DEFAULT_FANOUT, INDEX_MAGIC), (16, b"SEBDBIX7"));
    }

    fn entry(k: i64) -> AuthEntry {
        AuthEntry {
            key: Value::Int(k),
            tx_hash: sha256(&k.to_le_bytes()),
            ptr: TxPtr {
                block: 0,
                index: k as u32,
            },
        }
    }

    fn tree(keys: &[i64], fanout: usize) -> MbTree {
        MbTree::build(keys.iter().map(|&k| entry(k)).collect(), fanout)
    }

    fn check(t: &MbTree, lo: i64, hi: i64) -> Vec<i64> {
        let (results, proof) = t.range_query(&Value::Int(lo), &Value::Int(hi));
        MbTree::verify_range(
            &t.root(),
            &Value::Int(lo),
            &Value::Int(hi),
            &results,
            &proof,
            t.fanout,
        )
        .unwrap_or_else(|e| panic!("verify failed for [{lo},{hi}]: {e}"));
        results
            .iter()
            .map(|e| match &e.key {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn range_query_returns_and_verifies() {
        let t = tree(&(0..100).collect::<Vec<_>>(), 4);
        assert_eq!(check(&t, 10, 20), (10..=20).collect::<Vec<_>>());
        assert_eq!(check(&t, 0, 99), (0..=99).collect::<Vec<_>>());
        assert_eq!(check(&t, 0, 0), vec![0]);
        assert_eq!(check(&t, 99, 99), vec![99]);
    }

    #[test]
    fn empty_result_ranges_verify() {
        let t = tree(&[10, 20, 30, 40, 50], 3);
        assert!(check(&t, 21, 29).is_empty()); // gap
        assert!(check(&t, 0, 5).is_empty()); // before all
        assert!(check(&t, 60, 99).is_empty()); // after all
    }

    #[test]
    fn empty_tree_verifies() {
        let t = tree(&[], 4);
        let (results, proof) = t.range_query(&Value::Int(0), &Value::Int(10));
        assert!(results.is_empty());
        assert!(MbTree::verify_range(
            &t.root(),
            &Value::Int(0),
            &Value::Int(10),
            &results,
            &proof,
            4
        )
        .is_ok());
    }

    #[test]
    fn soundness_dropped_result_detected() {
        let t = tree(&(0..50).collect::<Vec<_>>(), 4);
        let (mut results, proof) = t.range_query(&Value::Int(10), &Value::Int(20));
        results.remove(3); // server drops a result
        assert!(MbTree::verify_range(
            &t.root(),
            &Value::Int(10),
            &Value::Int(20),
            &results,
            &proof,
            4
        )
        .is_err());
    }

    #[test]
    fn soundness_forged_result_detected() {
        let t = tree(&(0..50).collect::<Vec<_>>(), 4);
        let (mut results, proof) = t.range_query(&Value::Int(10), &Value::Int(20));
        results[0].tx_hash = sha256(b"forged");
        assert_eq!(
            MbTree::verify_range(
                &t.root(),
                &Value::Int(10),
                &Value::Int(20),
                &results,
                &proof,
                4
            ),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn completeness_truncated_tail_detected() {
        let t = tree(&(0..50).collect::<Vec<_>>(), 4);
        let (results, mut proof) = t.range_query(&Value::Int(10), &Value::Int(20));
        // Server pretends the range ended earlier by moving the right
        // boundary into the range.
        proof.right_boundary = Some(entry(15));
        let truncated: Vec<AuthEntry> = results[..5].to_vec();
        assert!(MbTree::verify_range(
            &t.root(),
            &Value::Int(10),
            &Value::Int(20),
            &truncated,
            &proof,
            4
        )
        .is_err());
    }

    #[test]
    fn tampered_boundary_detected() {
        let t = tree(&(0..50).collect::<Vec<_>>(), 4);
        let (results, mut proof) = t.range_query(&Value::Int(10), &Value::Int(20));
        proof.left_boundary = Some(entry(8)); // real boundary is 9
        assert_eq!(
            MbTree::verify_range(
                &t.root(),
                &Value::Int(10),
                &Value::Int(20),
                &results,
                &proof,
                4
            ),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn wrong_root_detected() {
        let t = tree(&(0..50).collect::<Vec<_>>(), 4);
        let (results, proof) = t.range_query(&Value::Int(10), &Value::Int(20));
        let other = tree(&(0..51).collect::<Vec<_>>(), 4);
        assert_eq!(
            MbTree::verify_range(
                &other.root(),
                &Value::Int(10),
                &Value::Int(20),
                &results,
                &proof,
                4
            ),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = tree(&[5, 5, 5, 7, 7, 9], 3);
        assert_eq!(check(&t, 5, 5), vec![5, 5, 5]);
        assert_eq!(check(&t, 6, 8), vec![7, 7]);
    }

    /// The leaf level read plainly is the B⁺-tree range it replaced:
    /// equal keys stay in block-position order, and it is the slice
    /// `range_query` proves.
    #[test]
    fn plain_range_keeps_equal_keys_in_position_order_and_matches_the_proven_one() {
        let keys = [7, 5, 9, 5, 7, 5, 1];
        let entries: Vec<AuthEntry> = keys
            .iter()
            .enumerate()
            .map(|(pos, &k)| AuthEntry {
                ptr: TxPtr {
                    block: 3,
                    index: pos as u32,
                },
                ..entry(k)
            })
            .collect();
        let t = MbTree::build(entries, 3);
        let positions = |lo, hi| -> Vec<u32> {
            let plain = t.range(&Value::Int(lo), &Value::Int(hi));
            let (proven, _) = t.range_query(&Value::Int(lo), &Value::Int(hi));
            assert_eq!(plain, proven, "[{lo}, {hi}]");
            plain.iter().map(|e| e.ptr.index).collect()
        };
        assert_eq!(positions(5, 5), vec![1, 3, 5]);
        assert_eq!(positions(5, 7), vec![1, 3, 5, 0, 4]);
        assert_eq!(positions(0, 9), vec![6, 1, 3, 5, 0, 4, 2]);
        assert_eq!(positions(6, 6), Vec::<u32>::new());
        assert_eq!(positions(8, 4), Vec::<u32>::new(), "inverted bounds");
        assert!(tree(&[], 3)
            .range(&Value::Int(0), &Value::Int(9))
            .is_empty());
    }

    #[test]
    fn vo_size_grows_with_tree_not_range() {
        let small = tree(&(0..64).collect::<Vec<_>>(), 4);
        let large = tree(&(0..4096).collect::<Vec<_>>(), 4);
        let (_, p_small) = small.range_query(&Value::Int(10), &Value::Int(12));
        let (_, p_large) = large.range_query(&Value::Int(10), &Value::Int(12));
        assert!(
            p_large.byte_len() > p_small.byte_len(),
            "deeper tree → larger VO"
        );
        // And a VO is far smaller than shipping the whole tree.
        assert!(p_large.byte_len() < 4096 * 32 / 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_trees_verify(
            mut keys in proptest::collection::vec(-100i64..100, 0..200),
            lo in -120i64..120,
            len in 0i64..60,
            fanout in 2usize..9,
        ) {
            keys.sort_unstable();
            let t = tree(&keys, fanout);
            let hi = lo + len;
            let (results, proof) = t.range_query(&Value::Int(lo), &Value::Int(hi));
            prop_assert!(MbTree::verify_range(&t.root(), &Value::Int(lo), &Value::Int(hi), &results, &proof, fanout).is_ok());
            let want: Vec<i64> = keys.iter().copied().filter(|k| *k >= lo && *k <= hi).collect();
            let got: Vec<i64> = results.iter().map(|e| match &e.key { Value::Int(i) => *i, _ => unreachable!() }).collect();
            prop_assert_eq!(got, want);
        }
    }
}
