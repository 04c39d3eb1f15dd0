//! # sebdb-crypto
//!
//! Cryptographic substrate for SEBDB, implemented from scratch:
//!
//! * [`sha256`](mod@sha256) — SHA-256 (FIPS 180-4), the hash used everywhere in the
//!   paper (block hashes, Merkle roots, authenticated index, §VII-A): a
//!   portable compression loop plus a kernel on the x86-64 SHA
//!   extensions, chosen at run time, computing the same function (the
//!   crate's, and the repository's, only `unsafe` code);
//! * [`hmac`] — HMAC-SHA-256, keyed once into reusable midstates
//!   ([`hmac::HmacKey`]), and a PRF for key derivation;
//! * [`merkle`] — Merkle hash trees with inclusion proofs (the
//!   `trans_root` of every block header);
//! * [`sig`] — transaction signatures: Lamport one-time signatures
//!   (publicly verifiable, hash-based) plus a cheap HMAC bulk mode for
//!   benchmarks. See DESIGN.md §4 for the ECDSA substitution note.

#![warn(missing_docs)]

pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use merkle::{merkle_root, MerkleProof, MerkleTree};
pub use sha256::{sha256, Digest, Sha256};
pub use sig::{KeyId, LamportKeypair, MacKeypair, Signature, Signer, Verifier};
