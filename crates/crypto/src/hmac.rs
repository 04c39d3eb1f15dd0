//! HMAC-SHA-256 (RFC 2104) and an HKDF-style PRF for deterministic key
//! derivation.
//!
//! SEBDB uses HMAC in two places: as the cheap "bulk" authentication mode
//! for benchmark transactions (see [`crate::sig`]) and to derive the
//! per-signature Lamport keys from a compact seed.

use crate::sha256::{sha256, Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA-256 key, kept as the hasher states after the `ipad` and
/// `opad` blocks: each message clones them, so a MAC costs two
/// compressions fewer than keying from scratch.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Keys HMAC with `key` (RFC 2104: a key longer than a block is
    /// hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(msg);
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(msg)
}

/// Deterministic PRF: expands `seed` into a stream of 32-byte blocks,
/// `block(i) = HMAC(seed, be64(i) || label)`. Used to derive Lamport
/// private-key material without storing kilobytes of secrets.
pub struct Prf<'a> {
    key: HmacKey,
    label: &'a [u8],
}

impl<'a> Prf<'a> {
    /// Creates a PRF instance over `seed` with a domain-separation `label`.
    pub fn new(seed: &[u8], label: &'a [u8]) -> Self {
        Prf {
            key: HmacKey::new(seed),
            label,
        }
    }

    /// Returns the `i`-th 32-byte output block.
    pub fn block(&self, i: u64) -> Digest {
        let mut msg = Vec::with_capacity(8 + self.label.len());
        msg.extend_from_slice(&i.to_be_bytes());
        msg.extend_from_slice(self.label);
        self.key.mac(&msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let msg = b"Hi There";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        assert_eq!(
            hmac_sha256(&key, &msg).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn a_key_serves_many_messages() {
        // Each MAC starts from the keyed midstates, never from the
        // state an earlier message left behind.
        let key = HmacKey::new(b"Jefe");
        for msg in [
            &b"what do ya want for nothing?"[..],
            b"",
            b"Hi There",
            &[0xdd; 200],
        ] {
            assert_eq!(key.mac(msg), hmac_sha256(b"Jefe", msg));
            assert_eq!(key.mac(msg), key.mac(msg));
        }
    }

    #[test]
    fn prf_is_deterministic_and_distinct() {
        let prf = Prf::new(b"seed", b"label");
        assert_eq!(prf.block(0), prf.block(0));
        assert_ne!(prf.block(0), prf.block(1));
        let prf2 = Prf::new(b"seed", b"other-label");
        assert_ne!(prf.block(0), prf2.block(0));
        let prf3 = Prf::new(b"other-seed", b"label");
        assert_ne!(prf.block(0), prf3.block(0));
    }
}
