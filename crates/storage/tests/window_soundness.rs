//! Window soundness: for any chain — empty blocks included — the
//! store's `blocks_in_window(s, e, h)` must cover every block below `h`
//! holding a transaction with `ts ∈ [s, e]`, the conservativeness the
//! executors' correctness rests on (they re-filter per transaction, so
//! over-approximation is fine but under-approximation loses results).
//! The tid lookup must name the block holding each transaction.

use proptest::prelude::*;
use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::KeyId;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Block, Transaction};

/// Builds a chain from per-block transaction timestamp lists (an empty
/// list is an empty block). Block timestamps are the max of their txs'
/// (packaging happens after the last tx), kept monotone across blocks.
fn chain(per_block_ts: &[Vec<u64>]) -> Vec<Block> {
    let mut prev = Digest::ZERO;
    let mut tid = 1;
    let mut last_block_ts = 0;
    per_block_ts
        .iter()
        .enumerate()
        .map(|(h, ts_list)| {
            let txs: Vec<Transaction> = ts_list
                .iter()
                .map(|&ts| {
                    let mut t = Transaction::new(ts, KeyId([1; 8]), "t", vec![]);
                    t.tid = tid;
                    tid += 1;
                    t
                })
                .collect();
            let block_ts = ts_list
                .iter()
                .copied()
                .max()
                .unwrap_or(last_block_ts)
                .max(last_block_ts);
            last_block_ts = block_ts;
            let b = Block::seal(prev, h as u64, block_ts, txs, |_| vec![]);
            prev = b.header.block_hash;
            b
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_covers_all_matching_blocks(
        // Monotone-ish timestamps: each block gets a few offsets on an
        // increasing base; an empty offset list is an empty block.
        bases in proptest::collection::vec(0u64..50, 1..12),
        offsets in proptest::collection::vec(proptest::collection::vec(0u64..30, 0..5), 1..12),
        s in 0u64..400,
        len in 0u64..200,
        cut in 0usize..13,
    ) {
        // Build monotone per-block ts lists.
        let mut acc = 0u64;
        let n = bases.len().min(offsets.len());
        let mut per_block = Vec::with_capacity(n);
        for i in 0..n {
            acc += bases[i];
            let mut ts_list: Vec<u64> = offsets[i].iter().map(|o| acc + o).collect();
            ts_list.sort_unstable();
            // Keep the cross-block invariant: tx ts ≤ its block ts ≤
            // next block's tx ts is NOT required by the system — only
            // block timestamps must be monotone, which `chain` enforces.
            per_block.push(ts_list);
            acc += 30; // next block starts past this one's offsets
        }
        let blocks = chain(&per_block);
        let store = BlockStore::temporary(StoreConfig::default()).unwrap();
        for b in &blocks {
            store.append(b).unwrap();
        }
        // A caller's height bound below the stored height hides the
        // blocks above it.
        let height = cut.min(blocks.len()) as u64;
        let e = s + len;
        let range = store.blocks_in_window(s, e, height);
        if let Some((_, hi)) = range {
            prop_assert!(hi < height, "window reached block {hi} at height {height}");
        }
        for b in blocks.iter().take(height as usize) {
            let holds_match = b.transactions.iter().any(|t| t.ts >= s && t.ts <= e);
            if holds_match {
                let (lo, hi) = range.unwrap_or_else(|| panic!(
                    "window [{s},{e}] returned None but block {} has a match",
                    b.header.height
                ));
                prop_assert!(
                    (lo..=hi).contains(&b.header.height),
                    "block {} with ts in [{s},{e}] outside returned range ({lo},{hi})",
                    b.header.height
                );
            }
            for t in &b.transactions {
                prop_assert_eq!(store.block_by_tid(t.tid, height), Some(b.header.height));
            }
        }
    }
}
