//! # sebdb-index
//!
//! SEBDB's indexing layer (§IV-B and §VI). The block-level B⁺-tree on
//! `(bid, tid, Ts)` is not here: the store's chain-order manifest is
//! in bid order, resident, and carries each block's first tid and
//! timestamp, so `sebdb-storage`'s `BlockStore` answers those lookups.
//!
//! * [`layered::LayeredIndex`] — the two-level layered index, one per
//!   indexed column: histogram/value bitmaps above, one bulk-built
//!   [`mbtree::MbTree`] per block below (frozen, their leaves merge
//!   into one value-ordered run). Plain probes read the trees' sorted
//!   leaves; `ali.rs` holds the authenticated reads over their digests
//!   — the VO protocol for thin clients, with soundness- and
//!   completeness-checking range proofs. The discrete first level of
//!   the system indexes on `Tname` and `SenId` is §IV-B's table-level
//!   bitmap index and its sender twin;
//! * [`paged`] — what every family's paged backend shares: key tags,
//!   entry codecs, family names and the one checkpoint merge
//!   ([`paged::CheckpointBuilder`]);
//! * [`cost::CostParams`] — the select cost model (Eqs. 1–3) driving
//!   access-path choice.

#![warn(missing_docs)]

pub mod ali;
pub mod bitmap;
pub mod cost;
pub mod histogram;
pub mod layered;
pub mod mbtree;
pub mod paged;

pub use ali::{auxiliary_digest, verify_query_vo, AuthenticatedLayeredIndex, BlockVo, QueryVo};
pub use bitmap::Bitmap;
pub use cost::{AccessPath, CostParams};
pub use histogram::EqualDepthHistogram;
pub use layered::{KeyPredicate, LayeredIndex, Probe};
pub use mbtree::{AuthEntry, MbTree, RangeProof, VerifyError};
pub use paged::{column_slug, family_layered};
