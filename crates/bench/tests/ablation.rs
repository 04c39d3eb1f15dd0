//! Ablations for two design choices DESIGN.md calls out, as the
//! counts they produce (EXPERIMENTS.md, "Ablations"):
//!
//! * **histogram depth** — the paper says "the height of histogram is
//!   configurable for different precisions" (§IV-B); deeper histograms
//!   prune more blocks at higher first-level cost;
//! * **MB-tree fanout** — the node width (§VII-A's 4 KB page of 64
//!   entries; 16 by default here) trades proof width (flat trees)
//!   against proof depth (binary-ish trees).
//!
//! Both are deterministic: the chain, the sample and the keys are fixed,
//! so each count is pinned exactly.

use sebdb_crypto::sha256::Digest;
use sebdb_crypto::sig::KeyId;
use sebdb_index::mbtree::{AuthEntry, MbTree};
use sebdb_index::{EqualDepthHistogram, KeyPredicate, LayeredIndex};
use sebdb_storage::TxPtr;
use sebdb_types::{Block, ColumnRef, Transaction, Value};

fn donate_block(height: u64, amounts: &[i64]) -> Block {
    let txs = amounts
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let mut t = Transaction::new(
                height * 1000 + i as u64,
                KeyId([1; 8]),
                "donate",
                vec![Value::str("d"), Value::str("p"), Value::decimal(a)],
            );
            t.tid = height * 1000 + i as u64 + 1;
            t
        })
        .collect();
    Block::seal(Digest::ZERO, height, height, txs, |_| vec![])
}

/// Histogram depth vs pruning power: how many of 50 blocks, each
/// holding a narrow amount band, survive a selective range predicate
/// at depths 10 / 100 / 1000.
#[test]
fn deeper_histograms_prune_more_blocks() {
    let blocks: Vec<Block> = (0..50)
        .map(|h| {
            let base = (h as i64) * 100;
            donate_block(h, &(0..40).map(|i| base + i % 100).collect::<Vec<_>>())
        })
        .collect();
    let sample: Vec<i64> = (0..5000)
        .map(|v| Value::decimal(v).numeric_rank().unwrap())
        .collect();
    let pred = KeyPredicate::Range(Value::decimal(2000), Value::decimal(2100));
    let candidates: Vec<usize> = [10usize, 100, 1000]
        .into_iter()
        .map(|depth| {
            let mut idx = LayeredIndex::new_continuous(
                Some("donate".into()),
                ColumnRef::App(2),
                EqualDepthHistogram::from_sample(sample.clone(), depth),
            );
            for b in &blocks {
                idx.update(b);
            }
            idx.candidate_blocks(&pred).count_ones()
        })
        .collect();
    assert_eq!(candidates, [11, 2, 2]);
}

/// MB-tree fanout vs proof size: the VO of a 101-key range over 4 096
/// entries at fanout 2 / 8 / 16 / 64 / 256, each proof verifying
/// against its tree's root.
#[test]
fn mbtree_fanout_sets_vo_bytes() {
    let entries: Vec<AuthEntry> = (0..4096i64)
        .map(|i| AuthEntry {
            key: Value::Int(i),
            tx_hash: sebdb_crypto::sha256(&i.to_le_bytes()),
            ptr: TxPtr {
                block: 0,
                index: i as u32,
            },
        })
        .collect();
    let (lo, hi) = (Value::Int(1000), Value::Int(1100));
    let vo_bytes: Vec<usize> = [2usize, 8, 16, 64, 256]
        .into_iter()
        .map(|fanout| {
            let tree = MbTree::build(entries.clone(), fanout);
            let (results, proof) = tree.range_query(&lo, &hi);
            assert_eq!(results.len(), 101, "fanout {fanout}");
            MbTree::verify_range(&tree.root(), &lo, &hi, &results, &proof, fanout)
                .unwrap_or_else(|e| panic!("fanout {fanout}: {e:?}"));
            proof.byte_len()
        })
        .collect();
    assert_eq!(vo_bytes, [602, 1338, 1658, 4922, 13658]);
}
