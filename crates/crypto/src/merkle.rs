//! Merkle hash tree (Merkle, 1989).
//!
//! Every SEBDB block header carries `trans_root`, the Merkle root over the
//! block's transactions (§IV-A). Thin clients use it two ways:
//!
//! * the *basic* authenticated-query approach ships whole blocks and the
//!   client recomputes each block's transaction Merkle root (§VII-F);
//! * simple membership proofs ("is transaction T in block B?") use the
//!   audit path produced by [`MerkleTree::proof`].
//!
//! Leaves are hashed with a `0x00` domain-separation prefix and inner
//! nodes with `0x01`, which rules out second-preimage attacks that
//! confuse leaves with inner nodes.

use crate::sha256::{Digest, Sha256};

/// Hashes a leaf payload.
pub fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

/// Hashes a pair of child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// A fully materialized Merkle tree. Levels are stored bottom-up:
/// `levels[0]` are the leaf hashes, `levels.last()` is `[root]`.
///
/// An odd node at any level is promoted unchanged (Bitcoin-style
/// duplication would let an attacker craft two distinct leaf sets with
/// the same root; promotion does not).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
}

/// One step of an audit path: the sibling digest and which side it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sibling {
    /// Sibling is the left child; our running hash is the right child.
    Left(Digest),
    /// Sibling is the right child; our running hash is the left child.
    Right(Digest),
}

/// An inclusion proof for a single leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Audit path from the leaf to (but excluding) the root.
    pub path: Vec<Sibling>,
}

impl MerkleProof {
    /// Size of the proof in bytes when serialized (one digest + one side
    /// bit per step); used by the VO-size experiments.
    pub fn byte_len(&self) -> usize {
        self.path.len() * (32 + 1) + 8
    }
}

/// Hashes one level into its parent level: adjacent pairs are combined
/// with [`node_hash`], an odd trailing node is promoted unchanged.
fn reduce_level(prev: &[Digest]) -> Vec<Digest> {
    let pairs = prev.chunks_exact(2);
    let odd = pairs.remainder();
    let mut next: Vec<Digest> = pairs.map(|p| node_hash(&p[0], &p[1])).collect();
    next.extend_from_slice(odd);
    next
}

/// Hashes raw leaf payloads.
fn hash_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> Vec<Digest> {
    leaves.iter().map(|l| leaf_hash(l.as_ref())).collect()
}

impl MerkleTree {
    /// Builds a tree over raw leaf payloads.
    pub fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        Self::from_leaf_hashes(hash_leaves(leaves))
    }

    /// Builds a tree over already-hashed leaves.
    pub fn from_leaf_hashes(hashes: Vec<Digest>) -> Self {
        let mut levels = vec![hashes];
        while levels.last().unwrap().len() > 1 {
            let next = reduce_level(levels.last().unwrap());
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The root digest. An empty tree hashes to [`Digest::ZERO`].
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first().copied())
            .unwrap_or(Digest::ZERO)
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                let sib = level[sibling_idx];
                path.push(if sibling_idx < idx {
                    Sibling::Left(sib)
                } else {
                    Sibling::Right(sib)
                });
            }
            // Odd promoted nodes contribute no sibling at this level.
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            path,
        })
    }

    /// Verifies `proof` for leaf payload `leaf` against `root`.
    pub fn verify(root: &Digest, leaf: &[u8], proof: &MerkleProof) -> bool {
        Self::verify_hash(root, leaf_hash(leaf), proof)
    }

    /// Verifies `proof` for an already-hashed leaf against `root`.
    pub fn verify_hash(root: &Digest, leaf: Digest, proof: &MerkleProof) -> bool {
        let mut acc = leaf;
        for step in &proof.path {
            acc = match step {
                Sibling::Left(sib) => node_hash(sib, &acc),
                Sibling::Right(sib) => node_hash(&acc, sib),
            };
        }
        acc == *root
    }
}

/// Computes only the Merkle root of `leaves` without materializing the
/// tree — the common path when sealing a block.
pub fn merkle_root<T: AsRef<[u8]>>(leaves: &[T]) -> Digest {
    merkle_root_of_hashes(hash_leaves(leaves))
}

/// Computes the Merkle root over pre-hashed leaves.
pub fn merkle_root_of_hashes(mut level: Vec<Digest>) -> Digest {
    if level.is_empty() {
        return Digest::ZERO;
    }
    while level.len() > 1 {
        level = reduce_level(&level);
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        let t = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert_eq!(t.root(), Digest::ZERO);
        assert_eq!(merkle_root::<Vec<u8>>(&[]), Digest::ZERO);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_leaves(&[b"only".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"only"));
    }

    #[test]
    fn root_matches_fast_path() {
        // Both parities at every level of the small trees, then a
        // power of two and one past the next.
        for n in (0..=33usize).chain([64, 100, 257]) {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            assert_eq!(t.root(), merkle_root(&ls), "n={n}");
        }
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in (0..=33usize).chain([64, 257]) {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            let root = t.root();
            for (i, leaf) in ls.iter().enumerate() {
                let p = t.proof(i).unwrap();
                assert!(MerkleTree::verify(&root, leaf, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn tampered_leaf_fails() {
        let ls = leaves(9);
        let t = MerkleTree::from_leaves(&ls);
        let p = t.proof(4).unwrap();
        assert!(!MerkleTree::verify(&t.root(), b"tx-999", &p));
    }

    #[test]
    fn wrong_index_proof_fails() {
        let ls = leaves(8);
        let t = MerkleTree::from_leaves(&ls);
        let p = t.proof(3).unwrap();
        assert!(!MerkleTree::verify(&t.root(), ls[5].as_slice(), &p));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let t = MerkleTree::from_leaves(&leaves(4));
        assert!(t.proof(4).is_none());
    }

    #[test]
    fn leaf_and_node_domains_differ() {
        // A leaf containing what looks like two concatenated digests must
        // not hash the same as an inner node over those digests.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let fake_leaf: Vec<u8> = [a.as_bytes(), b.as_bytes()].concat();
        assert_ne!(leaf_hash(&fake_leaf), node_hash(&a, &b));
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::from_leaves(&leaves(5));
        let mut ls = leaves(5);
        ls[2] = b"mutant".to_vec();
        let b = MerkleTree::from_leaves(&ls);
        assert_ne!(a.root(), b.root());
        // Promotion (not duplication) means [x] and [x, x] differ.
        let one = MerkleTree::from_leaves(&[b"x".to_vec()]);
        let two = MerkleTree::from_leaves(&[b"x".to_vec(), b"x".to_vec()]);
        assert_ne!(one.root(), two.root());
    }
}
