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
/// Levels large enough to pay for a spawn fan the pair hashing out
/// over `threads` workers; the output is identical to the sequential
/// reduction either way.
fn reduce_level(prev: &[Digest], threads: usize) -> Vec<Digest> {
    let pairs = prev.len() / 2;
    let mut next: Vec<Digest> =
        sebdb_parallel::par_chunks(pairs, threads, sebdb_parallel::FLOOR_TUPLE, |range| {
            range
                .map(|i| node_hash(&prev[2 * i], &prev[2 * i + 1]))
                .collect::<Vec<Digest>>()
        })
        .into_iter()
        .flatten()
        .collect();
    if prev.len() % 2 == 1 {
        next.push(prev[prev.len() - 1]);
    }
    next
}

/// Hashes raw leaf payloads, in parallel when there are enough of them.
fn hash_leaves<T: AsRef<[u8]> + Sync>(leaves: &[T], threads: usize) -> Vec<Digest> {
    sebdb_parallel::par_map_with_threads(leaves, threads, sebdb_parallel::FLOOR_TUPLE, |l| {
        leaf_hash(l.as_ref())
    })
}

impl MerkleTree {
    /// Builds a tree over raw leaf payloads.
    pub fn from_leaves<T: AsRef<[u8]> + Sync>(leaves: &[T]) -> Self {
        Self::from_leaves_with_threads(leaves, sebdb_parallel::max_threads())
    }

    /// [`Self::from_leaves`] with an explicit worker count.
    pub fn from_leaves_with_threads<T: AsRef<[u8]> + Sync>(leaves: &[T], threads: usize) -> Self {
        Self::from_leaf_hashes_with_threads(hash_leaves(leaves, threads), threads)
    }

    /// Builds a tree over already-hashed leaves.
    pub fn from_leaf_hashes(hashes: Vec<Digest>) -> Self {
        Self::from_leaf_hashes_with_threads(hashes, sebdb_parallel::max_threads())
    }

    /// [`Self::from_leaf_hashes`] with an explicit worker count.
    pub fn from_leaf_hashes_with_threads(hashes: Vec<Digest>, threads: usize) -> Self {
        let mut levels = vec![hashes];
        while levels.last().unwrap().len() > 1 {
            let next = reduce_level(levels.last().unwrap(), threads);
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
pub fn merkle_root<T: AsRef<[u8]> + Sync>(leaves: &[T]) -> Digest {
    merkle_root_with_threads(leaves, sebdb_parallel::max_threads())
}

/// [`merkle_root`] with an explicit worker count.
pub fn merkle_root_with_threads<T: AsRef<[u8]> + Sync>(leaves: &[T], threads: usize) -> Digest {
    merkle_root_of_hashes_with_threads(hash_leaves(leaves, threads), threads)
}

/// Computes the Merkle root over pre-hashed leaves.
pub fn merkle_root_of_hashes(level: Vec<Digest>) -> Digest {
    merkle_root_of_hashes_with_threads(level, sebdb_parallel::max_threads())
}

/// [`merkle_root_of_hashes`] with an explicit worker count.
pub fn merkle_root_of_hashes_with_threads(mut level: Vec<Digest>, threads: usize) -> Digest {
    if level.is_empty() {
        return Digest::ZERO;
    }
    while level.len() > 1 {
        level = reduce_level(&level, threads);
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
        for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100] {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(&ls);
            assert_eq!(t.root(), merkle_root(&ls), "n={n}");
        }
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 5, 8, 13, 31] {
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
    fn parallel_root_matches_sequential_for_all_small_sizes() {
        // Small trees of both parities at every level, then sizes
        // straddling the leaf fan-out (2 × floor leaves) and the
        // first-level fan-out (2 × floor pairs); explicit thread
        // counts so the global cap is irrelevant.
        let f = sebdb_parallel::FLOOR_TUPLE;
        let straddle = [2 * f - 1, 2 * f, 2 * f + 1, 4 * f - 1, 4 * f, 4 * f + 3];
        for n in (0..=33usize).chain(straddle) {
            let ls = leaves(n);
            let seq = MerkleTree::from_leaves_with_threads(&ls, 1);
            for threads in [2usize, 3, 4, 8] {
                let par = MerkleTree::from_leaves_with_threads(&ls, threads);
                assert_eq!(seq.root(), par.root(), "n={n} threads={threads}");
                assert_eq!(
                    seq.root(),
                    merkle_root_with_threads(&ls, threads),
                    "fast path n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_proofs_match_sequential() {
        let f = sebdb_parallel::FLOOR_TUPLE;
        for n in [64usize, 257, 2 * f + 1, 4 * f + 3] {
            let ls = leaves(n);
            let seq = MerkleTree::from_leaves_with_threads(&ls, 1);
            let par = MerkleTree::from_leaves_with_threads(&ls, 4);
            let root = seq.root();
            for (i, leaf) in ls.iter().enumerate() {
                let ps = seq.proof(i).unwrap();
                let pp = par.proof(i).unwrap();
                assert_eq!(ps, pp, "n={n} i={i}");
                assert!(MerkleTree::verify(&root, leaf, &pp), "n={n} i={i}");
            }
        }
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
