//! # sebdb-index
//!
//! SEBDB's indexing layer (§IV-B and §VI):
//!
//! * [`blockindex::BlockLevelIndex`] — block-level B⁺-tree on
//!   `(bid, tid, Ts)`;
//! * [`tableindex::TableBitmapIndex`] — table-level bitmaps over blocks
//!   (plus sender bitmaps for tracking);
//! * [`layered::Layered`] — the two-level layered index, written once
//!   (histogram/value bitmaps above, one bulk-built tree per block
//!   below; a frozen [`layered::LayeredIndex`] merges its trees into
//!   one value-ordered run) and generic over that per-block tree, the
//!   [`layered::SecondLevel`]: over B⁺-trees it is
//!   [`layered::LayeredIndex`], over [`mbtree::MbTree`]s it is
//!   [`ali::AuthenticatedLayeredIndex`], the authenticated variant for
//!   thin clients, with soundness- and completeness-checking range
//!   proofs (`ali.rs` holds only the MB-tree `SecondLevel` impl and
//!   the VO protocol);
//! * [`paged`] — what every family's paged backend shares: key tags,
//!   entry codecs, family names and the one checkpoint merge
//!   ([`paged::CheckpointBuilder`]);
//! * [`cost::CostParams`] — the select cost model (Eqs. 1–3) driving
//!   access-path choice.

#![warn(missing_docs)]

pub mod ali;
pub mod bitmap;
pub mod blockindex;
pub mod bptree;
pub mod cost;
pub mod histogram;
pub mod layered;
pub mod mbtree;
pub mod paged;
pub mod tableindex;

pub use ali::{auxiliary_digest, verify_query_vo, AuthenticatedLayeredIndex, BlockVo, QueryVo};
pub use bitmap::Bitmap;
pub use blockindex::{BlockKey, BlockLevelIndex};
pub use bptree::BPlusTree;
pub use cost::{AccessPath, CostParams};
pub use histogram::EqualDepthHistogram;
pub use layered::{KeyPredicate, Layered, LayeredIndex, Probe, SecondLevel};
pub use mbtree::{AuthEntry, MbTree, RangeProof, VerifyError};
pub use paged::{column_slug, family_ali, family_block, family_layered, family_table};
pub use tableindex::TableBitmapIndex;
