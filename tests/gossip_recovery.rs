//! Block propagation and data recovery over gossip (§III-B): a node
//! that was offline while blocks committed catches up by pulling the
//! sealed blocks from peers and re-verifying linkage and integrity
//! locally.

use sebdb::Ledger;
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_network::GossipCluster;
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Block, Codec, Transaction, Value};
use std::sync::Arc;

fn ledger(key: u8) -> Ledger {
    Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        MacKeypair::from_key([key; 32]),
    )
    .unwrap()
}

fn ordered(seq: u64) -> OrderedBlock {
    OrderedBlock {
        seq,
        timestamp_ms: (seq + 1) * 1000,
        txs: (0..3)
            .map(|i| {
                let mut t = Transaction::new(
                    seq * 1000 + i,
                    KeyId([1; 8]),
                    "donate",
                    vec![Value::Int((seq * 10 + i) as i64)],
                );
                t.tid = seq * 10 + i + 1;
                t
            })
            .collect(),
    }
}

#[test]
fn lagging_node_recovers_blocks_via_gossip() {
    // Node A processes five ordered batches; node B was down.
    let a = ledger(1);
    for seq in 0..5 {
        a.append_ordered(ordered(seq)).unwrap();
    }

    // A gossips its sealed blocks (as encoded payloads keyed by height)
    // into an 8-node cluster where B's slot starts empty.
    let mut cluster: GossipCluster<Vec<u8>> = GossipCluster::new(8, 2, 7);
    for bid in 0..5 {
        let block = a.read_block(bid).unwrap();
        cluster.seed_item(0, bid, block.to_bytes());
        cluster
            .disseminate(bid, 64)
            .expect("dissemination completes");
    }

    // B (node 5 in the cluster) rebuilds its chain from gossiped bytes,
    // verifying linkage + integrity on each append.
    let b = ledger(2);
    for bid in 0..5 {
        let bytes = cluster.get(5, bid).expect("block reached node 5");
        let block = Block::from_bytes(bytes).expect("decodes");
        b.append_block(block).expect("verifies and chains");
    }
    assert_eq!(b.height(), 5);
    assert_eq!(b.tip_hash(), a.tip_hash());
    b.verify_chain().unwrap();
}

#[test]
fn corrupted_gossip_payload_is_rejected() {
    let a = ledger(1);
    a.append_ordered(ordered(0)).unwrap();
    let mut bytes = a.read_block(0).unwrap().to_bytes();
    // Flip a byte inside the body.
    let n = bytes.len();
    bytes[n - 1] ^= 0xFF;

    let b = ledger(2);
    match Block::from_bytes(&bytes) {
        // Either the codec rejects it outright…
        Err(_) => {}
        // …or the ledger's integrity check does.
        Ok(block) => {
            assert!(b.append_block(block).is_err());
        }
    }
    assert_eq!(b.height(), 0);
}

#[test]
fn out_of_order_gossip_blocks_are_rejected_not_applied() {
    let a = ledger(1);
    for seq in 0..3 {
        a.append_ordered(ordered(seq)).unwrap();
    }
    let b = ledger(2);
    // Applying block 2 before 0/1 must fail (no gap fills).
    let block2 = (*a.read_block(2).unwrap()).clone();
    assert!(b.append_block(block2).is_err());
    // In-order recovery then succeeds.
    for bid in 0..3 {
        b.append_block((*a.read_block(bid).unwrap()).clone())
            .unwrap();
    }
    assert_eq!(b.tip_hash(), a.tip_hash());
}

#[test]
fn recovered_node_serves_identical_query_results() {
    let a = ledger(1);
    for seq in 0..4 {
        a.append_ordered(ordered(seq)).unwrap();
    }
    let b = ledger(2);
    for bid in 0..4 {
        b.append_block((*a.read_block(bid).unwrap()).clone())
            .unwrap();
    }
    // The recovered node's rebuilt indexes answer tracking identically.
    let pred = sebdb_index::KeyPredicate::Eq(Value::Bytes(KeyId([1; 8]).as_bytes().to_vec()));
    let hits_a = a
        .with_layered(None, "sen_id", |idx| {
            idx.candidate_blocks(&pred).count_ones()
        })
        .unwrap();
    let hits_b = b
        .with_layered(None, "sen_id", |idx| {
            idx.candidate_blocks(&pred).count_ones()
        })
        .unwrap();
    assert_eq!(hits_a, hits_b);
    assert_eq!(hits_a, 4);
}
