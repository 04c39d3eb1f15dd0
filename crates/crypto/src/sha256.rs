//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! SEBDB hashes every transaction, every block header and every Merkle
//! node with SHA-256 (the paper's authenticated index uses SHA256, §VII-A).
//! The compression function runs on one of two kernels, chosen at run
//! time: the x86-64 SHA extensions where the CPU has them, else the
//! portable round loop. Both compute the same function; the portable loop
//! is the reference the unit tests hold the other to, and the NIST
//! vectors run through both on every host. The streaming path is
//! allocation-free. This is the repository's one file with `unsafe` code
//! (`sebdb-lint` rule `unsafe`).

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest. Wraps the raw bytes so digests get their own
/// type-level identity (and a compact hex `Debug`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as a sentinel (e.g. `prev_hash` of the
    /// genesis block).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// `==` in time independent of the bytes: all 32 are XOR-folded,
    /// with no early exit at the first difference. Use it on a tag that
    /// arrives from outside.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        let diff = (0..DIGEST_LEN).fold(0, |acc, i| acc | (self.0[i] ^ other.0[i]));
        std::hint::black_box(diff) == 0
    }

    /// Parses a digest from a 64-char hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.as_bytes();
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, pair) in s.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants: first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
static K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed tail of the input, always < 64 bytes after `update`.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    /// `update` on the kernel `compress`.
    fn absorb(&mut self, data: &[u8], compress: Kernel) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, in one kernel call.
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &input[..whole]);
        }
        let rem = &input[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// `finalize` on the kernel `compress`: the buffered tail, `0x80`,
    /// zeros and the 8-byte big-endian bit length, as one or two blocks.
    fn finish(mut self, compress: Kernel) -> Digest {
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..end]);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A compression kernel: runs the compression function over each whole
/// 64-byte block of `blocks`, in order (`Sha256` never passes a partial
/// one).
type Kernel = fn(&mut [u32; 8], &[u8]);

/// The kernel this CPU runs: the SHA extensions where present, else the
/// portable loop.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("sse2")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the four `is_x86_feature_detected!` checks above found
        // every feature `compress_sha_ni` is compiled for on this CPU.
        return unsafe { compress_sha_ni(state, blocks) };
    }
    compress_portable(state, blocks)
}

/// The SHA-256 compression function, one round at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The compression function on the x86-64 SHA extensions. The state
/// lives in two registers in the lane order `sha256rnds2` takes, `abef`
/// and `cdgh`, across all of `blocks`; each `sha256rnds2` runs two
/// rounds, and `sha256msg1`/`sha256msg2` extend the message schedule four
/// words at a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. (Every load
/// and store stays inside `state`, `K` or one 64-byte chunk of `blocks`.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap),
        ];
        // Rounds 4i..4i+3 take `w[0]`, words 4i..4i+3 of the schedule;
        // `w` then shifts down and takes words 4i+16..4i+19.
        for i in 0..16 {
            let wk = _mm_add_epi32(w[0], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
            // Two rounds each; after the first, the registers swap roles.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            // (Words 64.. are never used; the unrolled loop drops them.)
            let t = _mm_sha256msg1_epu32(w[0], w[1]);
            let t = _mm_add_epi32(t, _mm_alignr_epi8(w[3], w[2], 4));
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(t, w[3])];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` hashed with every compression on the kernel `compress`.
    fn hash_on(compress: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.absorb(data, compress);
        h.finish(compress)
    }

    /// Checks a published vector on the dispatched kernel (the SHA
    /// extensions, where the host has them) and on the portable loop.
    fn check(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex, "dispatched, len {}", data.len());
        let portable = hash_on(compress_portable, data).to_hex();
        assert_eq!(portable, hex, "portable, len {}", data.len());
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_string() {
        check(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        check(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        check(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        check(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        // Feed in awkward chunk sizes to exercise buffering.
        for chunk in [1usize, 3, 7, 63, 64, 65, 129] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn streaming_splits_at_every_offset() {
        // Every way of cutting a 200-byte message into three updates,
        // empty pieces included: each piece boundary lands at every
        // offset of a block and of the buffered tail.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = sha256(&data);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut h = Sha256::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finalize(), whole, "split at {a}, {b}");
            }
        }
    }

    #[test]
    fn dispatched_kernel_matches_the_portable_loop() {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=1024).chain([data.len()]) {
            let data = &data[..len];
            assert_eq!(sha256(data), hash_on(compress_portable, data), "len {len}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Message lengths straddling the padding boundary (55/56/57, 63/64/65).
        let known = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ];
        for (len, hex) in known {
            check(&vec![b'a'; len], hex);
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    #[test]
    fn ct_eq_agrees_with_eq() {
        let d = sha256(b"tag");
        let mut first = d;
        first.0[0] ^= 1;
        let mut last = d;
        last.0[DIGEST_LEN - 1] ^= 0x80;
        for other in [d, first, last, Digest::ZERO] {
            assert_eq!(d.ct_eq(&other), d == other, "{other:?}");
        }
        assert!(d.ct_eq(&d) && !d.ct_eq(&first) && !d.ct_eq(&last));
    }
}
