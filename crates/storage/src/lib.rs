//! # sebdb-storage
//!
//! On-chain persistence for SEBDB (§IV-A): append-only
//! [`segment`] files, the [`blockstore::BlockStore`] keeping the single
//! copy of all block data, the chain-order manifest that commits
//! each block and serves as the block-level index, and the paged index
//! checkpoints ([`indexseg`]) behind one bounded index-block cache,
//! built on the [`cache`] module's LRU. Block and pointer reads go to
//! the store directly; there is no block or transaction cache.

#![warn(missing_docs)]

pub mod blockstore;
pub mod cache;
pub mod indexseg;
mod manifest;
mod publish;
pub mod segment;

pub use blockstore::{
    BlockStore, IoStats, RawExtent, RawTuple, StoreConfig, TxPtr, WriteStep, CHAIN_PARTITION,
    RELATION_PARTITIONS, SCAN_RUN_BYTES,
};
pub use cache::Lru;
pub use indexseg::{
    IndexBlockCache, IndexCheckpoint, PagedIndexReader, DEFAULT_INDEX_CACHE_BLOCKS,
    INDEX_CHECKPOINT_DIR,
};
pub use segment::{Location, ReadGauges, ReadProbe, SegmentSet, SegmentWriter, StorageError};
