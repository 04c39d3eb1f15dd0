//! Transaction unforgeability (§IV-A: "Sig guarantees unforgeability
//! of transactions"): with a verifier installed, a block carrying a
//! forged or tampered transaction never chains; both signature schemes
//! (HMAC bulk mode and hash-based Lamport OTS) drive the same hook.

use sebdb::{Ledger, LedgerError};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sig::{KeyId, LamportKeypair, MacKeypair, Signature, Signer, Verifier};
use sebdb_storage::{BlockStore, StoreConfig};
use sebdb_types::{Transaction, Value};
use std::collections::HashMap;
use std::sync::Arc;

fn ledger() -> Ledger {
    Ledger::new(
        Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
        MacKeypair::from_key([1; 32]),
    )
    .unwrap()
}

fn signed_tx(signer: &impl Signer, tid: u64, amount: i64) -> Transaction {
    let mut tx = Transaction::new(
        tid * 10,
        signer.key_id(),
        "donate",
        vec![
            Value::str("jack"),
            Value::str("edu"),
            Value::decimal(amount),
        ],
    );
    tx.sig = signer.sign(&tx.signing_payload()).to_bytes();
    tx.tid = tid;
    tx
}

fn decode_sig(bytes: &[u8]) -> Option<Signature> {
    Signature::from_bytes(bytes)
}

#[test]
fn mac_verifier_accepts_honest_blocks_and_rejects_forgeries() {
    let alice = MacKeypair::from_key([7; 32]);
    let l = ledger();
    // The consortium's key registry.
    let mut keys: HashMap<KeyId, MacKeypair> = HashMap::new();
    keys.insert(alice.key_id(), alice.clone());
    l.set_tx_verifier(Some(Box::new(move |tx| {
        let Some(sig) = decode_sig(&tx.sig) else {
            return false;
        };
        keys.get(&tx.sender)
            .is_some_and(|k| k.verify(&tx.signing_payload(), &sig))
    })));

    // Honest block chains.
    l.append_ordered(OrderedBlock {
        seq: 0,
        timestamp_ms: 1000,
        txs: vec![signed_tx(&alice, 1, 100)],
    })
    .unwrap();
    assert_eq!(l.height(), 1);

    // Tampered content (signature no longer covers it) is rejected.
    let mut tampered = signed_tx(&alice, 2, 100);
    tampered.values[2] = Value::decimal(1_000_000);
    let err = l
        .append_ordered(OrderedBlock {
            seq: 1,
            timestamp_ms: 2000,
            txs: vec![tampered],
        })
        .unwrap_err();
    assert!(err.to_string().contains("invalid signature"), "{err}");

    // Unknown sender is rejected.
    let mallory = MacKeypair::from_key([66; 32]);
    let err = l
        .append_ordered(OrderedBlock {
            seq: 1,
            timestamp_ms: 2000,
            txs: vec![signed_tx(&mallory, 3, 5)],
        })
        .unwrap_err();
    assert!(err.to_string().contains("invalid signature"));
    assert_eq!(l.height(), 1, "nothing chained");
}

#[test]
fn first_forged_mac_in_a_block_is_the_one_reported() {
    let alice = MacKeypair::from_key([7; 32]);
    let l = ledger();
    let key = alice.clone();
    l.set_tx_verifier(Some(Box::new(move |tx| {
        decode_sig(&tx.sig).is_some_and(|sig| key.verify(&tx.signing_payload(), &sig))
    })));
    // Forgeries at block positions 2 and 4 (tids 3 and 5): the check
    // walks the block in order, so tid 3 is the one named.
    let txs: Vec<Transaction> = (1..=6)
        .map(|tid| {
            let mut tx = signed_tx(&alice, tid, 100);
            if tid == 3 || tid == 5 {
                tx.values[2] = Value::decimal(1_000_000);
            }
            tx
        })
        .collect();
    let block = l
        .seal_ordered(OrderedBlock {
            seq: 0,
            timestamp_ms: 1000,
            txs,
        })
        .unwrap();
    match l.persist_block(block) {
        Err(LedgerError::BadBlock(m)) => {
            assert!(m.contains("transaction 3 "), "{m}");
        }
        other => panic!("expected BadBlock, got {other:?}"),
    }
    assert_eq!(l.height(), 0, "nothing chained");
}

#[test]
fn lamport_signatures_verify_on_apply() {
    let alice = LamportKeypair::from_seed([9; 32]);
    let pk = alice.public_key().clone();
    let l = ledger();
    l.set_tx_verifier(Some(Box::new(move |tx| {
        let Some(sig) = decode_sig(&tx.sig) else {
            return false;
        };
        pk.verify(&tx.signing_payload(), &sig)
    })));

    l.append_ordered(OrderedBlock {
        seq: 0,
        timestamp_ms: 1000,
        txs: vec![signed_tx(&alice, 1, 42)],
    })
    .unwrap();
    assert_eq!(l.height(), 1);

    // A bit-flipped Lamport signature fails.
    let mut tx = signed_tx(&alice, 2, 43);
    tx.sig[100] ^= 0xFF;
    assert!(l
        .append_ordered(OrderedBlock {
            seq: 1,
            timestamp_ms: 2000,
            txs: vec![tx],
        })
        .is_err());
}

#[test]
fn tid_assignment_does_not_invalidate_signatures() {
    // The ordering service assigns tids after signing; the signature
    // covers the payload without tid, so reassignment must not break it.
    let alice = MacKeypair::from_key([7; 32]);
    let mut tx = signed_tx(&alice, 1, 100);
    tx.tid = 999_999; // reassigned downstream
    let sig = decode_sig(&tx.sig).unwrap();
    assert!(alice.verify(&tx.signing_payload(), &sig));
    // But the signed bytes still pin the content.
    let mut other = tx.clone();
    other.tname = "transfer".into();
    assert!(!alice.verify(&other.signing_payload(), &sig));
}
