//! Blocks: header + body, chained by hash.
//!
//! The header (§IV-A, Fig. 3) records `prev_hash`, `height`, `timestamp`,
//! `trans_root` (Merkle root over the body's transactions), the
//! packager's `signature`, and `block_hash` (hash of the header fields).
//! The body is the ordered list of transactions.

use crate::codec::{Codec, Decoder, Encoder};
use crate::error::TypeError;
use crate::tx::{BlockId, Timestamp, Transaction, TxId};
use sebdb_crypto::merkle::MerkleTree;
use sebdb_crypto::sha256::{sha256, Digest};

/// Block header metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the previous block (all-zero for genesis).
    pub prev_hash: Digest,
    /// Block height; genesis is 0.
    pub height: BlockId,
    /// Packaging time (ms).
    pub timestamp: Timestamp,
    /// Merkle root over the body's transactions.
    pub trans_root: Digest,
    /// Signature of the packager over the other header fields.
    pub signature: Vec<u8>,
    /// Hash of this header (computed, then pinned).
    pub block_hash: Digest,
}

impl BlockHeader {
    /// Canonical bytes the packager signs and `block_hash` commits to
    /// (everything except `signature` and `block_hash` themselves).
    pub fn signing_payload(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(96);
        enc.put_raw(self.prev_hash.as_bytes());
        enc.put_u64(self.height);
        enc.put_u64(self.timestamp);
        enc.put_raw(self.trans_root.as_bytes());
        enc.finish()
    }

    /// Recomputes the header hash. The hash covers the payload only
    /// (prev hash, height, timestamp, Merkle root) — *not* the packager
    /// signature — so every node sealing the same ordered batch derives
    /// the same block hash even though each holds its own signature.
    pub fn compute_hash(&self) -> Digest {
        sha256(&self.signing_payload())
    }
}

impl Codec for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.prev_hash.as_bytes());
        enc.put_u64(self.height);
        enc.put_u64(self.timestamp);
        enc.put_raw(self.trans_root.as_bytes());
        enc.put_bytes(&self.signature);
        enc.put_raw(self.block_hash.as_bytes());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let digest = |d: &mut Decoder<'_>, ctx| -> Result<Digest, TypeError> {
            let raw = d.get_raw(32, ctx)?;
            let mut out = [0u8; 32];
            out.copy_from_slice(raw);
            Ok(Digest(out))
        };
        let prev_hash = digest(dec, "prev_hash")?;
        let height = dec.get_u64("height")?;
        let timestamp = dec.get_u64("timestamp")?;
        let trans_root = digest(dec, "trans_root")?;
        let signature = dec.get_bytes("block signature")?.to_vec();
        let block_hash = digest(dec, "block_hash")?;
        Ok(BlockHeader {
            prev_hash,
            height,
            timestamp,
            trans_root,
            signature,
            block_hash,
        })
    }
}

/// A full block: header plus ordered transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The body.
    pub transactions: Vec<Transaction>,
}

/// Encodes each transaction to its canonical bytes (the Merkle
/// leaves).
fn encode_tx_leaves(transactions: &[Transaction]) -> Vec<Vec<u8>> {
    transactions.iter().map(Transaction::to_bytes).collect()
}

impl Block {
    /// Seals a block: assigns the Merkle root, links to `prev_hash`, and
    /// computes the block hash. `sign` produces the packager signature
    /// over the header payload.
    pub fn seal(
        prev_hash: Digest,
        height: BlockId,
        timestamp: Timestamp,
        transactions: Vec<Transaction>,
        sign: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Block {
        let leaves = encode_tx_leaves(&transactions);
        let trans_root = sebdb_crypto::merkle::merkle_root(&leaves);
        let mut header = BlockHeader {
            prev_hash,
            height,
            timestamp,
            trans_root,
            signature: Vec::new(),
            block_hash: Digest::ZERO,
        };
        header.signature = sign(&header.signing_payload());
        header.block_hash = header.compute_hash();
        Block {
            header,
            transactions,
        }
    }

    /// Verifies internal consistency: the Merkle root matches the body
    /// and the block hash matches the header.
    pub fn verify_integrity(&self) -> bool {
        let leaves = encode_tx_leaves(&self.transactions);
        sebdb_crypto::merkle::merkle_root(&leaves) == self.header.trans_root
            && self.header.compute_hash() == self.header.block_hash
    }

    /// Builds the full Merkle tree over the body (for membership proofs
    /// and the basic thin-client verification path).
    pub fn merkle_tree(&self) -> MerkleTree {
        MerkleTree::from_leaves(&encode_tx_leaves(&self.transactions))
    }

    /// The id of the first transaction in the block, if any. Together
    /// with `(height, timestamp)` this forms the block-level index key
    /// `(bid, tid, Ts)` of §IV-B, which the store's manifest records.
    pub fn first_tid(&self) -> Option<TxId> {
        self.transactions.first().map(|t| t.tid)
    }

    /// Serialized size of the block in bytes.
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }
}

impl Codec for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.header.encode(enc);
        enc.put_u32(self.transactions.len() as u32);
        for tx in &self.transactions {
            tx.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let header = BlockHeader::decode(dec)?;
        let n = dec.get_u32("tx count")? as usize;
        let mut transactions = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            transactions.push(Transaction::decode(dec)?);
        }
        Ok(Block {
            header,
            transactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sebdb_crypto::sig::KeyId;

    fn tx(tid: TxId, tname: &str) -> Transaction {
        let mut t = Transaction::new(tid * 10, KeyId([0; 8]), tname, vec![Value::Int(tid as i64)]);
        t.tid = tid;
        t
    }

    fn sealed(height: BlockId, prev: Digest, txs: Vec<Transaction>) -> Block {
        Block::seal(prev, height, height * 1000, txs, |payload| {
            // A stand-in packager signature for unit tests.
            sha256(payload).as_bytes().to_vec()
        })
    }

    #[test]
    fn seal_produces_consistent_block() {
        let b = sealed(1, Digest::ZERO, vec![tx(1, "donate"), tx(2, "transfer")]);
        assert!(b.verify_integrity());
        assert_eq!(b.first_tid(), Some(1));
        assert_eq!(b.header.height, 1);
    }

    #[test]
    fn tampering_with_body_breaks_integrity() {
        let mut b = sealed(1, Digest::ZERO, vec![tx(1, "donate"), tx(2, "transfer")]);
        b.transactions[0].values[0] = Value::Int(999);
        assert!(!b.verify_integrity());
    }

    #[test]
    fn tampering_with_header_breaks_integrity() {
        let mut b = sealed(1, Digest::ZERO, vec![tx(1, "donate")]);
        b.header.timestamp += 1;
        assert!(!b.verify_integrity());
    }

    #[test]
    fn codec_roundtrip() {
        let b = sealed(
            3,
            sha256(b"prev"),
            vec![tx(5, "donate"), tx(6, "distribute")],
        );
        let decoded = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(decoded, b);
        assert!(decoded.verify_integrity());
    }

    #[test]
    fn empty_block_is_valid() {
        let b = sealed(0, Digest::ZERO, vec![]);
        assert!(b.verify_integrity());
        assert_eq!(b.first_tid(), None);
        assert_eq!(b.header.trans_root, Digest::ZERO);
    }

    #[test]
    fn merkle_tree_proofs_work() {
        let b = sealed(1, Digest::ZERO, (0..7).map(|i| tx(i, "donate")).collect());
        let tree = b.merkle_tree();
        assert_eq!(tree.root(), b.header.trans_root);
        let proof = tree.proof(3).unwrap();
        assert!(MerkleTree::verify(
            &b.header.trans_root,
            &b.transactions[3].to_bytes(),
            &proof
        ));
    }

    #[test]
    fn chain_linkage() {
        let b0 = sealed(0, Digest::ZERO, vec![tx(1, "donate")]);
        let b1 = sealed(1, b0.header.block_hash, vec![tx(2, "donate")]);
        assert_eq!(b1.header.prev_hash, b0.header.block_hash);
        assert_ne!(b0.header.block_hash, b1.header.block_hash);
    }
}
