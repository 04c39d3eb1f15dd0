//! # sebdb-storage
//!
//! On-chain persistence for SEBDB (§IV-A): append-only
//! [`segment`] files, the [`blockstore::BlockStore`] keeping the single
//! copy of all block data, the chain-order manifest that commits
//! each block and serves as the block-level index, and the two LRU
//! [`cache`] strategies the paper compares in §VII-H (block cache vs
//! transaction cache).

#![warn(missing_docs)]

pub mod blockstore;
pub mod cache;
pub mod indexseg;
mod manifest;
mod publish;
pub mod segment;

pub use blockstore::{
    BlockStore, IoStats, RawExtent, RawTuple, StoreConfig, TxPtr, WriteStep, CHAIN_PARTITION,
    READAHEAD_BLOCKS, RELATION_PARTITIONS, SCAN_RUN_BYTES,
};
pub use cache::{BlockCache, CacheMode, CachedStore, Lru, ShardedLru, TxCache};
pub use indexseg::{
    IndexBlockCache, IndexCheckpoint, PagedIndexReader, DEFAULT_INDEX_CACHE_BLOCKS,
    INDEX_CHECKPOINT_DIR,
};
pub use segment::{Location, ReadGauges, ReadProbe, SegmentSet, SegmentWriter, StorageError};
