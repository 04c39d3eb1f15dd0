//! Transaction signatures.
//!
//! The paper signs every transaction (`Sig` system attribute, §IV-A) with
//! standard public-key signatures. We ship two pure-Rust schemes behind
//! one [`Signer`]/[`Verifier`] API:
//!
//! * [`LamportKeypair`] — a real hash-based one-time signature
//!   (Lamport 1979). Unforgeable under the preimage resistance of
//!   SHA-256; anyone holding the public key can verify. Signatures are
//!   ~8 KiB, which is fine for correctness tests and for exercising the
//!   verification code path.
//! * [`MacKeypair`] — keyed-hash authentication (HMAC-SHA-256) used as
//!   the cheap bulk mode for the multi-million-transaction benchmarks.
//!   In a consortium deployment this models nodes that share per-channel
//!   MAC keys; it is *not* publicly verifiable and is clearly labelled.
//!
//! This substitution (vs. the paper's implied ECDSA) is recorded in
//! DESIGN.md §4.

use crate::hmac::{HmacKey, Prf};
use crate::sha256::{sha256, Digest};

/// 256 message bits, two preimages per bit.
const LAMPORT_BITS: usize = 256;

/// An identity in the consortium: a compact identifier derived from the
/// public key (or MAC key), used as the `SenID` system attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub [u8; 8]);

impl KeyId {
    /// Derives a key id from arbitrary key material.
    pub fn derive(material: &[u8]) -> KeyId {
        let d = sha256(material);
        let mut id = [0u8; 8];
        id.copy_from_slice(&d.as_bytes()[..8]);
        KeyId(id)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A detached signature produced by either scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signature {
    /// Lamport OTS: 256 revealed 32-byte preimages.
    Lamport(Box<[Digest; LAMPORT_BITS]>),
    /// HMAC tag.
    Mac(Digest),
}

impl Signature {
    /// Serialized size in bytes (drives the paper's 300 B transaction
    /// budget when MAC mode is used).
    pub fn byte_len(&self) -> usize {
        match self {
            Signature::Lamport(_) => LAMPORT_BITS * 32,
            Signature::Mac(_) => 32,
        }
    }

    /// Parses the wire form produced by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        match bytes.first()? {
            1 if bytes.len() == 33 => {
                let mut d = [0u8; 32];
                d.copy_from_slice(&bytes[1..]);
                Some(Signature::Mac(Digest(d)))
            }
            0 if bytes.len() == 1 + LAMPORT_BITS * 32 => {
                let mut reveal = Box::new([Digest::ZERO; LAMPORT_BITS]);
                for (i, chunk) in bytes[1..].chunks_exact(32).enumerate() {
                    let mut d = [0u8; 32];
                    d.copy_from_slice(chunk);
                    reveal[i] = Digest(d);
                }
                Some(Signature::Lamport(reveal))
            }
            _ => None,
        }
    }

    /// Flattens the signature to bytes for hashing into a transaction id.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Signature::Lamport(ds) => {
                let mut v = Vec::with_capacity(1 + LAMPORT_BITS * 32);
                v.push(0u8);
                for d in ds.iter() {
                    v.extend_from_slice(d.as_bytes());
                }
                v
            }
            Signature::Mac(d) => {
                let mut v = Vec::with_capacity(33);
                v.push(1u8);
                v.extend_from_slice(d.as_bytes());
                v
            }
        }
    }
}

/// Anything that can sign a message.
pub trait Signer {
    /// Signs `msg`.
    fn sign(&self, msg: &[u8]) -> Signature;
    /// The signer's consortium identity.
    fn key_id(&self) -> KeyId;
}

/// Anything that can verify a signature.
pub trait Verifier {
    /// Checks `sig` over `msg`.
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool;
}

// ---------------------------------------------------------------------
// Lamport one-time signatures
// ---------------------------------------------------------------------

/// A Lamport one-time keypair. Private key material is derived lazily
/// from a 32-byte seed via the PRF, so the keypair itself stays small.
#[derive(Clone)]
pub struct LamportKeypair {
    seed: [u8; 32],
    /// Public key: hash of each of the 512 preimages, committed as a
    /// single digest (hash of all leaf hashes, in order).
    public: LamportPublicKey,
}

/// The public half: 2×256 hashes plus a compact commitment.
#[derive(Clone)]
pub struct LamportPublicKey {
    /// `hashes[bit][b]` = H(preimage for message-bit `bit` = `b`).
    hashes: Box<[[Digest; 2]; LAMPORT_BITS]>,
    id: KeyId,
}

impl std::fmt::Debug for LamportPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LamportPublicKey({:?})", self.id)
    }
}

impl LamportKeypair {
    /// Deterministically generates a keypair from a seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let prf = Prf::new(&seed, b"lamport-sk");
        let mut hashes = Box::new([[Digest::ZERO; 2]; LAMPORT_BITS]);
        let mut commit = Vec::with_capacity(LAMPORT_BITS * 2 * 32);
        for bit in 0..LAMPORT_BITS {
            for b in 0..2 {
                let sk = prf.block((bit * 2 + b) as u64);
                let pk = sha256(sk.as_bytes());
                hashes[bit][b] = pk;
                commit.extend_from_slice(pk.as_bytes());
            }
        }
        let id = KeyId::derive(&commit);
        LamportKeypair {
            seed,
            public: LamportPublicKey { hashes, id },
        }
    }

    /// Generates a keypair from an RNG.
    pub fn generate<R: rand::Rng>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        Self::from_seed(seed)
    }

    /// Returns the public key.
    pub fn public_key(&self) -> &LamportPublicKey {
        &self.public
    }
}

impl Signer for LamportKeypair {
    fn sign(&self, msg: &[u8]) -> Signature {
        let digest = sha256(msg);
        let prf = Prf::new(&self.seed, b"lamport-sk");
        let mut reveal = Box::new([Digest::ZERO; LAMPORT_BITS]);
        for bit in 0..LAMPORT_BITS {
            let byte = digest.as_bytes()[bit / 8];
            let b = ((byte >> (7 - bit % 8)) & 1) as usize;
            reveal[bit] = prf.block((bit * 2 + b) as u64);
        }
        Signature::Lamport(reveal)
    }

    fn key_id(&self) -> KeyId {
        self.public.id
    }
}

impl Verifier for LamportPublicKey {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let Signature::Lamport(reveal) = sig else {
            return false;
        };
        let digest = sha256(msg);
        for bit in 0..LAMPORT_BITS {
            let byte = digest.as_bytes()[bit / 8];
            let b = ((byte >> (7 - bit % 8)) & 1) as usize;
            if sha256(reveal[bit].as_bytes()) != self.hashes[bit][b] {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------
// HMAC "bulk mode"
// ---------------------------------------------------------------------

/// Shared-key authentication for high-volume benchmark runs.
#[derive(Clone)]
pub struct MacKeypair {
    key: HmacKey,
    id: KeyId,
}

impl MacKeypair {
    /// Creates a keypair from a shared secret.
    pub fn from_key(key: [u8; 32]) -> Self {
        MacKeypair {
            key: HmacKey::new(&key),
            id: KeyId::derive(&key),
        }
    }

    /// Generates a random shared key.
    pub fn generate<R: rand::Rng>(rng: &mut R) -> Self {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        Self::from_key(key)
    }
}

impl Signer for MacKeypair {
    fn sign(&self, msg: &[u8]) -> Signature {
        Signature::Mac(self.key.mac(msg))
    }

    fn key_id(&self) -> KeyId {
        self.id
    }
}

impl Verifier for MacKeypair {
    fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        match sig {
            // The tag may come from outside (the orderer's admission
            // check): compare it without an early exit.
            Signature::Mac(tag) => tag.ct_eq(&self.key.mac(msg)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lamport_sign_verify() {
        let kp = LamportKeypair::from_seed([7u8; 32]);
        let sig = kp.sign(b"donate 100 to education");
        assert!(kp.public_key().verify(b"donate 100 to education", &sig));
    }

    #[test]
    fn lamport_rejects_wrong_message() {
        let kp = LamportKeypair::from_seed([7u8; 32]);
        let sig = kp.sign(b"donate 100");
        assert!(!kp.public_key().verify(b"donate 101", &sig));
    }

    #[test]
    fn lamport_rejects_other_key() {
        let kp1 = LamportKeypair::from_seed([1u8; 32]);
        let kp2 = LamportKeypair::from_seed([2u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
        assert_ne!(kp1.key_id(), kp2.key_id());
    }

    #[test]
    fn lamport_rejects_tampered_signature() {
        let kp = LamportKeypair::from_seed([9u8; 32]);
        let mut sig = kp.sign(b"msg");
        if let Signature::Lamport(ref mut reveal) = sig {
            reveal[10] = Digest::ZERO;
        }
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn mac_sign_verify() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let kp = MacKeypair::generate(&mut rng);
        let sig = kp.sign(b"transfer");
        assert!(kp.verify(b"transfer", &sig));
        assert!(!kp.verify(b"transfer!", &sig));
        assert_eq!(sig.byte_len(), 32);
    }

    #[test]
    fn schemes_are_not_cross_verifiable() {
        let lam = LamportKeypair::from_seed([3u8; 32]);
        let mac = MacKeypair::from_key([3u8; 32]);
        let lsig = lam.sign(b"m");
        let msig = mac.sign(b"m");
        assert!(!mac.verify(b"m", &lsig));
        assert!(!lam.public_key().verify(b"m", &msig));
    }

    #[test]
    fn signature_bytes_distinct_by_scheme() {
        let lam = LamportKeypair::from_seed([4u8; 32]);
        let mac = MacKeypair::from_key([4u8; 32]);
        assert_ne!(lam.sign(b"m").to_bytes()[0], mac.sign(b"m").to_bytes()[0]);
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let lam = LamportKeypair::from_seed([6u8; 32]);
        let mac = MacKeypair::from_key([6u8; 32]);
        for sig in [lam.sign(b"m"), mac.sign(b"m")] {
            assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
        }
        assert_eq!(Signature::from_bytes(&[]), None);
        assert_eq!(Signature::from_bytes(&[1, 2, 3]), None);
        assert_eq!(Signature::from_bytes(&[9; 33]), None);
    }

    #[test]
    fn keypair_determinism() {
        let a = LamportKeypair::from_seed([5u8; 32]);
        let b = LamportKeypair::from_seed([5u8; 32]);
        assert_eq!(a.key_id(), b.key_id());
        assert_eq!(a.sign(b"x"), b.sign(b"x"));
    }
}
