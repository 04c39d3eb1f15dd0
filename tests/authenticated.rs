//! Thin-client authenticated queries (§VI): the two-phase protocol,
//! adversarial full nodes, Byzantine auxiliary sampling, and the basic
//! ship-all-blocks comparison path.

use sebdb::ledger::Ledger;
use sebdb::{byzantine_risk, serve_authenticated_query, serve_auxiliary_digest, ThinClient};
use sebdb_consensus::OrderedBlock;
use sebdb_crypto::sha256::sha256;
use sebdb_crypto::sig::{KeyId, MacKeypair};
use sebdb_index::mbtree::DEFAULT_FANOUT;
use sebdb_index::KeyPredicate;
use sebdb_storage::indexseg::INDEX_MAGIC;
use sebdb_storage::{BlockStore, StoreConfig, INDEX_CHECKPOINT_DIR};
use sebdb_types::{Column, DataType, TableSchema, Transaction, Value};
use std::sync::Arc;

const ORG1: KeyId = KeyId([0xA1; 8]);

fn donate_schema() -> TableSchema {
    TableSchema::new(
        "donate",
        vec![
            Column::new("donor", DataType::Str),
            Column::new("project", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// A ledger with `blocks` blocks of donate transactions; amounts are
/// `100 * (global index)`; every third transaction is sent by org1.
fn populated_ledger(blocks: u64, per_block: usize) -> Ledger {
    let store = BlockStore::temporary(StoreConfig::default()).unwrap();
    populated_on(store, blocks, per_block)
}

/// [`populated_ledger`] on `store`.
fn populated_on(store: BlockStore, blocks: u64, per_block: usize) -> Ledger {
    let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([1; 32])).unwrap();
    let mut tid = 1u64;
    for b in 0..blocks {
        let txs: Vec<Transaction> = (0..per_block)
            .map(|i| {
                let n = (b as usize * per_block + i) as i64;
                let sender = if n % 3 == 0 { ORG1 } else { KeyId([2; 8]) };
                let mut t = Transaction::new(
                    b * 1000 + i as u64,
                    sender,
                    "donate",
                    vec![
                        Value::str("jack"),
                        Value::str("education"),
                        Value::decimal(100 * n),
                    ],
                );
                t.tid = tid;
                tid += 1;
                t
            })
            .collect();
        ledger
            .append_ordered(OrderedBlock {
                seq: b,
                timestamp_ms: (b + 1) * 1000,
                txs,
            })
            .unwrap();
    }
    ledger
        .create_layered_index(&donate_schema(), "amount", None)
        .unwrap();
    ledger
}

fn amount_range(lo: i64, hi: i64) -> KeyPredicate {
    KeyPredicate::Range(Value::decimal(lo), Value::decimal(hi))
}

#[test]
fn honest_two_phase_protocol_verifies() {
    let full = populated_ledger(6, 10);
    let aux1 = populated_ledger(6, 10); // same deterministic content
    let aux2 = populated_ledger(6, 10);
    let pred = amount_range(1000, 2500);

    // Phase 1: the randomly chosen full node answers with results + VO.
    let response = serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    assert!(!response.transactions.is_empty());

    // Phase 2: auxiliary nodes answer at the relayed snapshot height.
    let h = response.vo.height;
    let d1 = serve_auxiliary_digest(&aux1, Some("donate"), "amount", &pred, None, h).unwrap();
    let d2 = serve_auxiliary_digest(&aux2, Some("donate"), "amount", &pred, None, h).unwrap();

    // Client: 2 identical digests suffice under 4-node PBFT (Example 4).
    let client = ThinClient::new();
    client.verify(&pred, &response, &[d1, d2], 2).unwrap();

    // All returned amounts are in range (soundness spot check).
    for tx in &response.transactions {
        let Value::Decimal(a) = tx.values[2] else {
            panic!()
        };
        assert!((1000 * 10_000..=2500 * 10_000).contains(&a));
    }
}

#[test]
fn tracking_query_authenticates_too() {
    let full = populated_ledger(5, 9);
    let pred = KeyPredicate::Eq(Value::Bytes(ORG1.as_bytes().to_vec()));
    let response = serve_authenticated_query(&full, None, "sen_id", &pred, None).unwrap();
    assert_eq!(response.transactions.len(), 15); // every 3rd of 45
    let d = serve_auxiliary_digest(&full, None, "sen_id", &pred, None, response.vo.height).unwrap();
    ThinClient::new()
        .verify(&pred, &response, &[d, d], 2)
        .unwrap();
}

/// The `tname` index keeps no trees: it has no proof to give, so both
/// phases refuse it, resident and frozen, rather than hand the client an
/// empty answer whose empty digest would verify.
#[test]
fn an_authenticated_query_on_the_tname_index_is_refused() {
    let full = populated_ledger(5, 9);
    let pred = KeyPredicate::Eq(Value::str("donate"));
    for frozen in [false, true] {
        if frozen {
            assert!(full.checkpoint_indexes().unwrap() > 0);
        }
        assert!(serve_authenticated_query(&full, None, "tname", &pred, None).is_none());
        assert!(serve_auxiliary_digest(&full, None, "tname", &pred, None, full.height()).is_none());
    }
}

#[test]
fn malicious_full_node_dropping_results_is_caught() {
    let full = populated_ledger(6, 10);
    let pred = amount_range(1000, 2500);
    let mut response =
        serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    let h = response.vo.height;
    let d = serve_auxiliary_digest(&full, Some("donate"), "amount", &pred, None, h).unwrap();

    // Drop one result transaction and its VO entry consistently.
    response.transactions.remove(0);
    let block_vo = &mut response.vo.per_block[0];
    block_vo.results.remove(0);

    assert!(ThinClient::new()
        .verify(&pred, &response, &[d, d], 2)
        .is_err());
}

#[test]
fn malicious_full_node_substituting_payload_is_caught() {
    let full = populated_ledger(6, 10);
    let pred = amount_range(1000, 2500);
    let mut response =
        serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    let h = response.vo.height;
    let d = serve_auxiliary_digest(&full, Some("donate"), "amount", &pred, None, h).unwrap();

    // Substitute a forged transaction body with an in-range amount.
    response.transactions[0].values[0] = Value::str("mallory");
    assert!(matches!(
        ThinClient::new().verify(&pred, &response, &[d, d], 2),
        Err(sebdb::ClientVerifyError::TxHashMismatch { .. })
    ));
}

#[test]
fn malicious_full_node_hiding_a_block_is_caught() {
    let full = populated_ledger(6, 10);
    let pred = amount_range(0, 1_000_000);
    let mut response =
        serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    let h = response.vo.height;
    let d = serve_auxiliary_digest(&full, Some("donate"), "amount", &pred, None, h).unwrap();
    assert!(response.vo.per_block.len() > 1);
    // Hide an entire block's worth of results (and its VO entry).
    let hidden = response.vo.per_block.remove(2);
    let keep: Vec<Transaction> = response
        .transactions
        .iter()
        .filter(|t| !hidden.results.iter().any(|e| e.tx_hash == t.hash()))
        .cloned()
        .collect();
    response.transactions = keep;
    assert!(ThinClient::new()
        .verify(&pred, &response, &[d, d], 2)
        .is_err());
}

#[test]
fn byzantine_auxiliary_minority_is_outvoted() {
    let full = populated_ledger(4, 8);
    let pred = amount_range(0, 500);
    let response = serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    let h = response.vo.height;
    let honest = serve_auxiliary_digest(&full, Some("donate"), "amount", &pred, None, h).unwrap();
    let byzantine = sha256(b"whatever I want");

    // 3 honest, 1 Byzantine: majority digest wins and verifies.
    ThinClient::new()
        .verify(&pred, &response, &[honest, byzantine, honest, honest], 2)
        .unwrap();

    // All-Byzantine sample: the agreed digest doesn't match the VO.
    assert!(ThinClient::new()
        .verify(&pred, &response, &[byzantine, byzantine], 2)
        .is_err());

    // Too few matching digests.
    assert!(matches!(
        ThinClient::new().verify(&pred, &response, &[honest], 2),
        Err(sebdb::ClientVerifyError::InsufficientDigests { .. })
    ));
}

/// The roots a query visits are a function of the chain alone, so a
/// node that reopens an index checkpoint of the previous format
/// (`SEBDBIX6`, whose MB-trees had 64-entry nodes) must not prove from
/// it: the checkpoint is deleted, the family replays the chain at the
/// current fanout, and phase 1 and phase 2 answer as a fresh replica's
/// do, byte for byte. The magic is read before anything else in the
/// file, so rewriting it stands for a file written at 64.
#[test]
fn a_previous_format_checkpoint_is_replayed_and_agrees_with_a_fresh_replica() {
    let (blocks, per_block) = (6, 2 * DEFAULT_FANOUT + 8);
    let dir = std::env::temp_dir().join(format!("sebdb-auth-refanout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        sync_writes: false,
        ..StoreConfig::default()
    };
    let open = || BlockStore::open(&dir, config.clone()).unwrap();
    let ledger = populated_on(open(), blocks, per_block);
    assert!(ledger.checkpoint_indexes().unwrap() > 0);
    drop(ledger);
    let icps = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(dir.join(INDEX_CHECKPOINT_DIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "icp"))
            .collect()
    };
    for path in icps() {
        let mut bytes = std::fs::read(&path).unwrap();
        let end = bytes.len();
        assert_eq!(&bytes[..8], INDEX_MAGIC);
        bytes[..8].copy_from_slice(b"SEBDBIX6");
        bytes[end - 8..].copy_from_slice(b"SEBDBIX6");
        std::fs::write(&path, bytes).unwrap();
    }
    let reopened = Ledger::new(Arc::new(open()), MacKeypair::from_key([1; 32])).unwrap();
    reopened
        .create_layered_index(&donate_schema(), "amount", None)
        .unwrap();
    assert_eq!(icps(), Vec::<std::path::PathBuf>::new());

    let fresh = populated_ledger(blocks, per_block);
    let pred = amount_range(1_000, 100 * (5 * per_block as i64 - 10));
    let serve = |ledger: &Ledger| {
        let response =
            serve_authenticated_query(ledger, Some("donate"), "amount", &pred, None).unwrap();
        let h = response.vo.height;
        let digest = serve_auxiliary_digest(ledger, Some("donate"), "amount", &pred, None, h);
        (response, digest.unwrap())
    };
    let (response, digest) = serve(&reopened);
    assert_eq!(response.vo.per_block.len(), 5);
    assert!(response
        .vo
        .per_block
        .iter()
        .all(|b| b.proof.total > DEFAULT_FANOUT));
    let (want, want_digest) = serve(&fresh);
    assert_eq!(format!("{:?}", response.vo), format!("{:?}", want.vo));
    assert_eq!(digest, want_digest);
    // Either node's VO verifies against the other's digest.
    ThinClient::new()
        .verify(&pred, &response, &[want_digest, want_digest], 2)
        .unwrap();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_isolation_across_heights() {
    // An auxiliary node that has advanced past the snapshot must still
    // produce the phase-1 digest, because only blocks < h are visited.
    let full = populated_ledger(4, 8);
    let ahead = populated_ledger(6, 8); // same prefix, two more blocks
    let pred = amount_range(0, 1_000_000);
    let response = serve_authenticated_query(&full, Some("donate"), "amount", &pred, None).unwrap();
    let h = response.vo.height;
    assert_eq!(h, 4);
    let d = serve_auxiliary_digest(&ahead, Some("donate"), "amount", &pred, None, h).unwrap();
    ThinClient::new()
        .verify(&pred, &response, &[d, d], 2)
        .unwrap();
}

#[test]
fn basic_approach_verifies_and_detects_tampering() {
    let ledger = populated_ledger(5, 8);
    let mut client = ThinClient::new();
    client.sync_headers(&ledger);
    let blocks: Vec<_> = (0..5)
        .map(|b| (*ledger.read_block(b).unwrap()).clone())
        .collect();

    let results = client
        .verify_blocks_basic(&blocks, |t| t.sender == ORG1)
        .expect("honest blocks verify");
    assert_eq!(results.len(), 14); // every 3rd of 40: ceil(40/3)

    // Tamper with one transaction inside a shipped block.
    let mut bad = blocks.clone();
    bad[2].transactions[0].values[2] = Value::decimal(1);
    assert!(client.verify_blocks_basic(&bad, |_| true).is_none());
}

#[test]
fn risk_bound_matches_paper_shape() {
    // More matching digests → lower risk; more than max Byzantine → 0.
    let p = 0.25;
    let risks: Vec<f64> = (1..=5).map(|m| byzantine_risk(p, 8, m, 10)).collect();
    for w in risks.windows(2) {
        assert!(w[0] >= w[1], "{risks:?}");
    }
    assert_eq!(byzantine_risk(p, 8, 4, 3), 0.0);
}

mod authenticated_join {
    use super::*;
    use sebdb::{serve_authenticated_join, verify_and_join};
    use sebdb_types::ColumnRef;

    fn org_value(tx: &Transaction) -> Option<Value> {
        tx.get(ColumnRef::App(0))
    }

    /// Two relations sharing organization keys, indexed for the ALI.
    fn join_ledger() -> Ledger {
        let ledger = Ledger::new(
            Arc::new(BlockStore::temporary(StoreConfig::default()).unwrap()),
            MacKeypair::from_key([5; 32]),
        )
        .unwrap();
        let mut tid = 1;
        for b in 0..4u64 {
            let mut txs = Vec::new();
            for i in 0..3 {
                let org = format!("org-{}", (b + i) % 5);
                for tname in ["transfer", "distribute"] {
                    let mut t = Transaction::new(
                        b * 1000 + i,
                        KeyId([1; 8]),
                        tname,
                        vec![Value::Str(org.clone()), Value::decimal(10)],
                    );
                    t.tid = tid;
                    tid += 1;
                    txs.push(t);
                }
            }
            ledger
                .append_ordered(OrderedBlock {
                    seq: b,
                    timestamp_ms: (b + 1) * 1000,
                    txs,
                })
                .unwrap();
        }
        let transfer = TableSchema::new(
            "transfer",
            vec![
                Column::new("organization", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        );
        let distribute = TableSchema::new(
            "distribute",
            vec![
                Column::new("organization", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        );
        ledger
            .create_layered_index(&transfer, "organization", None)
            .unwrap();
        ledger
            .create_layered_index(&distribute, "organization", None)
            .unwrap();
        ledger
    }

    fn full_range() -> KeyPredicate {
        KeyPredicate::Range(Value::str(""), Value::str("zzzz"))
    }

    #[test]
    fn authenticated_join_end_to_end() {
        let ledger = join_ledger();
        let pred = full_range();
        let resp = serve_authenticated_join(
            &ledger,
            ("transfer", "organization"),
            ("distribute", "organization"),
            &pred,
            None,
        )
        .unwrap();
        let h = resp.left.vo.height;
        let dl = serve_auxiliary_digest(&ledger, Some("transfer"), "organization", &pred, None, h)
            .unwrap();
        let dr =
            serve_auxiliary_digest(&ledger, Some("distribute"), "organization", &pred, None, h)
                .unwrap();
        let rows =
            verify_and_join(&resp, &pred, &[dl, dl], &[dr, dr], 2, org_value, org_value).unwrap();
        // Each block has 3 orgs appearing once per relation; orgs repeat
        // across blocks, so compute the oracle with a plain hash join.
        let mut by_org: std::collections::HashMap<Value, usize> = Default::default();
        for tx in &resp.right.transactions {
            *by_org.entry(org_value(tx).unwrap()).or_default() += 1;
        }
        let expected: usize = resp
            .left
            .transactions
            .iter()
            .filter_map(|t| by_org.get(&org_value(t).unwrap()))
            .sum();
        assert_eq!(rows.len(), expected);
        assert!(expected > 12, "orgs repeat across blocks: {expected}");
        // Every joined pair actually shares the key.
        for (l, r) in &rows {
            assert_eq!(org_value(l), org_value(r));
        }
    }

    #[test]
    fn authenticated_join_detects_hidden_right_rows() {
        let ledger = join_ledger();
        let pred = full_range();
        let mut resp = serve_authenticated_join(
            &ledger,
            ("transfer", "organization"),
            ("distribute", "organization"),
            &pred,
            None,
        )
        .unwrap();
        let h = resp.left.vo.height;
        let dl = serve_auxiliary_digest(&ledger, Some("transfer"), "organization", &pred, None, h)
            .unwrap();
        let dr =
            serve_auxiliary_digest(&ledger, Some("distribute"), "organization", &pred, None, h)
                .unwrap();
        // Hide one right-side transaction (and its VO entry) to shrink
        // the join: must be detected.
        resp.right.transactions.remove(0);
        resp.right.vo.per_block[0].results.remove(0);
        assert!(
            verify_and_join(&resp, &pred, &[dl, dl], &[dr, dr], 2, org_value, org_value,).is_err()
        );
    }
}

/// What §VI's trust argument rests on once the visited set is "the
/// blocks holding a match": every honest replica derives the same set —
/// hence the same digest and the same VO bytes — from the chain alone,
/// whatever its histogram was sampled from and whatever it has frozen;
/// and no edit of a VO survives the agreed digest.
mod visited_set {
    use super::*;
    use sebdb::AuthenticatedResponse;
    use sebdb_crypto::sha256::Digest;
    use sebdb_index::{Bitmap, BlockVo, MbTree};
    use sebdb_storage::StoreConfig;

    /// Rows per block: enough that a narrow range leaves unrevealed
    /// leaves (a fringe) on both sides of a block's proof.
    const PER_BLOCK: u64 = 8;
    /// Amounts are drawn from `0..AMOUNTS`, so a 12-wide range matches
    /// ≈ 2 % of rows: a handful of blocks out of dozens.
    const AMOUNTS: u64 = 600;

    /// splitmix64: seeded, so a failing round replays.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `blocks` ordered blocks of `donate` rows with seeded amounts;
    /// blocks from `far_from` on draw theirs from `10 × AMOUNTS` up, out
    /// of reach of every range the tests issue. Every seventh block
    /// holds `transfer` rows only (no `donate` tree).
    fn stream(seed: u64, blocks: u64, far_from: u64) -> Vec<OrderedBlock> {
        let mut rng = Rng(seed);
        (0..blocks)
            .map(|b| {
                let txs = (0..PER_BLOCK)
                    .map(|i| {
                        let near = rng.next() % AMOUNTS;
                        let amount = if b < far_from {
                            near
                        } else {
                            near + 10 * AMOUNTS
                        };
                        let sender = if near.is_multiple_of(3) {
                            ORG1
                        } else {
                            KeyId([2; 8])
                        };
                        let tname = if b % 7 == 6 { "transfer" } else { "donate" };
                        let values = vec![
                            Value::str("jack"),
                            Value::str("education"),
                            Value::decimal(amount as i64),
                        ];
                        let mut t = Transaction::new(b * 1000 + i, sender, tname, values);
                        t.tid = b * PER_BLOCK + i + 1;
                        t
                    })
                    .collect();
                OrderedBlock {
                    seq: b,
                    timestamp_ms: (b + 1) * 1000,
                    txs,
                }
            })
            .collect()
    }

    /// Feeds `stream` to a fresh ledger whose `donate.amount` histogram
    /// is seeded from `sample`, freezing every index after the blocks
    /// below each height in `frozen_at`.
    fn replica(stream: &[OrderedBlock], sample: Vec<i64>, frozen_at: &[u64]) -> Ledger {
        let cfg = StoreConfig {
            sync_writes: false,
            ..StoreConfig::default()
        };
        let store = BlockStore::temporary(cfg).unwrap();
        let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([1; 32])).unwrap();
        ledger
            .create_layered_index(&donate_schema(), "amount", Some(sample))
            .unwrap();
        for block in stream {
            if frozen_at.contains(&block.seq) {
                assert!(ledger.checkpoint_indexes().unwrap() > 0);
            }
            ledger.append_ordered(block.clone()).unwrap();
        }
        if frozen_at.contains(&(stream.len() as u64)) {
            assert!(ledger.checkpoint_indexes().unwrap() > 0);
        }
        ledger
    }

    /// Three histogram seedings: spread over the stored ranks, the
    /// benchmark's unit mistake (whole units against ranks scaled by
    /// 10⁴ — every amount lands in the last bucket and the first level
    /// prunes nothing), and a skew that crowds the buckets at the low
    /// end.
    fn samples() -> [Vec<i64>; 3] {
        let rank = |a: u64| Value::decimal(a as i64).numeric_rank().unwrap();
        [
            (0..AMOUNTS).map(rank).collect(),
            (0..AMOUNTS as i64).collect(),
            (0..AMOUNTS).map(|a| rank(a * a / AMOUNTS / 8)).collect(),
        ]
    }

    type Query = (Option<&'static str>, &'static str, KeyPredicate);

    fn amount(pred: KeyPredicate) -> Query {
        (Some("donate"), "amount", pred)
    }

    /// Phase 1 on `node`. Every answer these tests obtain passes
    /// through here, so Fig. 17's shape is asserted for every range
    /// issued: a VO names a block only for a result in it.
    fn serve(node: &Ledger, (table, column, pred): &Query) -> AuthenticatedResponse {
        let response = serve_authenticated_query(node, *table, column, pred, None).unwrap();
        let rows = response.transactions.len();
        assert!(
            response.vo.per_block.len() <= rows,
            "{} BlockVos for {rows} rows of {pred:?}",
            response.vo.per_block.len()
        );
        assert!(response.vo.per_block.iter().all(|b| !b.results.is_empty()));
        // One set of leaves, two readers: a plain search finds the rows
        // a proof over the whole chain proves, resident or frozen.
        let height = response.vo.height;
        let mask = node.window_mask_at(None, height);
        let (plain, mut proven) = node
            .with_layered(*table, column, |idx| {
                let vo = idx.authenticated_query(pred, None, height);
                (idx.search(pred, &mask), vo.result_ptrs())
            })
            .unwrap();
        proven.sort_unstable();
        assert_eq!(plain, proven, "{pred:?}");
        assert_eq!(response.vo.result_ptrs().len(), plain.len());
        response
    }

    /// Phase 2 on `node`, at the height the answer claims.
    fn digest(node: &Ledger, (table, column, pred): &Query, height: u64) -> Digest {
        serve_auxiliary_digest(node, *table, column, pred, None, height).unwrap()
    }

    /// The whole client side: relay the answer's height to `aux`,
    /// verify against what comes back.
    fn client_accepts(response: &AuthenticatedResponse, query: &Query, aux: &Ledger) -> bool {
        let d = digest(aux, query, response.vo.height);
        ThinClient::new()
            .verify(&query.2, response, &[d, d], 2)
            .is_ok()
    }

    /// Rows of the first `height` blocks of `stream` a query returns.
    fn oracle(stream: &[OrderedBlock], (table, _, pred): &Query, height: u64) -> usize {
        stream[..height as usize]
            .iter()
            .flat_map(|b| &b.txs)
            .filter(|tx| match table {
                Some(t) => tx.tname == *t && pred.matches(&tx.values[2]),
                None => pred.matches(&Value::Bytes(tx.sender.as_bytes().to_vec())),
            })
            .count()
    }

    /// A seeded 12-wide range that returns something at `height`.
    fn matching_range(rng: &mut Rng, stream: &[OrderedBlock], height: u64) -> Query {
        loop {
            let lo = rng.below(AMOUNTS as usize) as i64;
            let query = amount(amount_range(lo, lo + 11));
            if oracle(stream, &query, height) > 0 {
                return query;
            }
        }
    }

    #[test]
    fn replicas_agree_whatever_their_histogram_and_whatever_they_froze() {
        const H: u64 = 42;
        let seed = 0x5eb_db21;
        let chain = stream(seed, H + 6, u64::MAX);
        let [spread, unit_mistake, skewed] = samples();
        let snapshot = &chain[..H as usize];
        let nodes = [
            replica(snapshot, spread.clone(), &[]),
            replica(snapshot, unit_mistake, &[H / 2]),
            replica(snapshot, skewed, &[H]),
        ];
        // Past the snapshot, and frozen past it too.
        let ahead = replica(&chain, spread, &[H / 3, H + 3]);

        let mut rng = Rng(seed);
        let mut queries: Vec<Query> = (0..12)
            .map(|_| matching_range(&mut rng, &chain, H))
            .collect();
        queries.push(amount(amount_range(0, 10 * AMOUNTS as i64)));
        queries.push(amount(amount_range(3 * AMOUNTS as i64, 4 * AMOUNTS as i64)));
        queries.push(amount(KeyPredicate::Eq(Value::decimal(
            rng.below(AMOUNTS as usize) as i64,
        ))));
        let org1 = Value::Bytes(ORG1.as_bytes().to_vec());
        queries.push((None, "sen_id", KeyPredicate::Eq(org1)));

        for query in &queries {
            let answers: Vec<AuthenticatedResponse> =
                nodes.iter().map(|n| serve(n, query)).collect();
            assert_eq!(
                answers[0].transactions.len(),
                oracle(&chain, query, H),
                "{query:?}"
            );
            let digests: Vec<Digest> = nodes
                .iter()
                .chain([&ahead])
                .map(|n| digest(n, query, H))
                .collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "{query:?}");
            for answer in &answers {
                assert_eq!(answer.vo.height, H);
                // Resident, half frozen, all frozen: the same bytes.
                assert_eq!(format!("{:?}", answer.vo), format!("{:?}", answers[0].vo));
                assert_eq!(answer.transactions, answers[0].transactions);
                for aux in nodes.iter().chain([&ahead]) {
                    assert!(client_accepts(answer, query, aux), "{query:?}");
                }
            }
        }
    }

    /// One edit of an honest answer, as a lying full node would make
    /// it. `None` when this answer has nothing of the kind to edit.
    type Mutation =
        fn(&Ledger, &Query, &mut Rng, AuthenticatedResponse) -> Option<AuthenticatedResponse>;

    /// Payload positions of `per_block[at]`'s results.
    fn payloads(r: &AuthenticatedResponse, at: usize) -> std::ops::Range<usize> {
        let start: usize = r.vo.per_block[..at].iter().map(|b| b.results.len()).sum();
        start..start + r.vo.per_block[at].results.len()
    }

    /// A genuine non-membership proof for a block the query does not
    /// visit — what the per-candidate protocol used to ship: the block's
    /// own MB-tree (rebuilt from its leaves, root checked against the
    /// node's) proves that nothing in it matches. The proof is honest;
    /// its place in the answer is not.
    fn honest_vo_of_a_block_without_a_match(
        node: &Ledger,
        (table, column, pred): &Query,
        r: &AuthenticatedResponse,
    ) -> Option<BlockVo> {
        let everything = amount_range(-1, 100 * AMOUNTS as i64);
        let (lo, hi) = pred.bounds();
        (0..r.vo.height)
            .filter(|bid| r.vo.per_block.iter().all(|b| b.block != *bid))
            .find_map(|bid| {
                let only = Bitmap::from_bits([bid as usize]);
                node.with_layered(*table, column, |idx| {
                    let whole = idx.authenticated_query(&everything, Some(&only), r.vo.height);
                    let leaves = whole.per_block.into_iter().next()?.results;
                    let tree = MbTree::build(leaves, idx.fanout());
                    assert_eq!(tree.root(), idx.mb_root(bid));
                    let (results, proof) = tree.range_query(lo, hi);
                    assert!(results.is_empty());
                    MbTree::verify_range(&tree.root(), lo, hi, &results, &proof, idx.fanout())
                        .unwrap();
                    Some(BlockVo {
                        block: bid,
                        results,
                        proof,
                        mb_root: tree.root(),
                    })
                })?
            })
    }

    fn insert_in_order(r: &mut AuthenticatedResponse, vo: BlockVo) {
        let at = r.vo.per_block.partition_point(|b| b.block < vo.block);
        r.vo.per_block.insert(at, vo);
    }

    const MUTATIONS: [(&str, Mutation); 12] = [
        ("drop a BlockVo with its payloads", |_, _, rng, mut r| {
            let at = rng.below(r.vo.per_block.len());
            r.transactions.drain(payloads(&r, at));
            r.vo.per_block.remove(at);
            Some(r)
        }),
        (
            "duplicate a BlockVo with its payloads",
            |_, _, rng, mut r| {
                let at = rng.below(r.vo.per_block.len());
                let span = payloads(&r, at);
                let copy: Vec<Transaction> = r.transactions[span.clone()].to_vec();
                r.transactions.splice(span.end..span.end, copy);
                let vo = r.vo.per_block[at].clone();
                r.vo.per_block.insert(at, vo);
                Some(r)
            },
        ),
        (
            "swap two adjacent BlockVos with their payloads",
            |_, _, rng, mut r| {
                if r.vo.per_block.len() < 2 {
                    return None;
                }
                let at = rng.below(r.vo.per_block.len() - 1);
                let (first, second) = (payloads(&r, at), payloads(&r, at + 1));
                r.transactions[first.start..second.end].rotate_left(first.len());
                r.vo.per_block.swap(at, at + 1);
                Some(r)
            },
        ),
        (
            "add an honestly proved empty BlockVo",
            |node, query, _, mut r| {
                let vo = honest_vo_of_a_block_without_a_match(node, query, &r)?;
                insert_in_order(&mut r, vo);
                Some(r)
            },
        ),
        (
            "add an empty BlockVo for a block with no tree",
            |_, _, _, mut r| {
                let bid = (0..r.vo.height).find(|b| b % 7 == 6)?;
                let mut vo = r.vo.per_block[0].clone();
                vo.block = bid;
                vo.results.clear();
                vo.mb_root = Digest::ZERO;
                vo.proof.total = 0;
                insert_in_order(&mut r, vo);
                Some(r)
            },
        ),
        ("drop a result with its payload", |_, _, rng, mut r| {
            let at = rng.below(r.vo.per_block.len());
            let i = rng.below(r.vo.per_block[at].results.len());
            r.transactions.remove(payloads(&r, at).start + i);
            r.vo.per_block[at].results.remove(i);
            Some(r)
        }),
        ("drop a payload alone", |_, _, rng, mut r| {
            r.transactions.remove(rng.below(r.transactions.len()));
            Some(r)
        }),
        ("alter a result's hash", |_, _, rng, mut r| {
            let at = rng.below(r.vo.per_block.len());
            let i = rng.below(r.vo.per_block[at].results.len());
            r.vo.per_block[at].results[i].tx_hash = sha256(b"forged");
            Some(r)
        }),
        ("swap a payload for another row's", |node, _, rng, mut r| {
            let i = rng.below(r.transactions.len());
            let other = node
                .read_block(rng.below(r.vo.height as usize) as u64)
                .unwrap();
            let other = other.transactions[rng.below(PER_BLOCK as usize)].clone();
            if other == r.transactions[i] {
                return None;
            }
            r.transactions[i] = other;
            Some(r)
        }),
        ("truncate a fringe", |_, _, rng, mut r| {
            let at = rng.below(r.vo.per_block.len());
            let side = r.vo.per_block[at]
                .proof
                .fringe
                .iter_mut()
                .flat_map(|(left, right)| [left, right])
                .find(|side| !side.is_empty())?;
            side.pop();
            Some(r)
        }),
        ("claim a lower height", |_, _, rng, mut r| {
            // At or below the last visited block: the auxiliaries,
            // asked at the claimed height, stop short of it.
            let last = r.vo.per_block.last().unwrap().block;
            r.vo.height = rng.below(last as usize + 1) as u64;
            Some(r)
        }),
        ("move a BlockVo to another block id", |_, _, rng, mut r| {
            let at = rng.below(r.vo.per_block.len());
            r.vo.per_block[at].block += 1;
            Some(r)
        }),
    ];

    #[test]
    fn no_mutation_of_a_vo_survives_the_agreed_digest() {
        const H: u64 = 36;
        const ROUNDS: usize = 24;
        let seed = 0xa11_5eed;
        let chain = stream(seed, H, u64::MAX);
        let [spread, unit_mistake, _] = samples();
        let beds = [
            ("resident", replica(&chain, unit_mistake, &[])),
            ("frozen", replica(&chain, spread, &[H])),
        ];
        let mut rng = Rng(seed);
        let mut applied = [0usize; MUTATIONS.len()];
        for round in 0..ROUNDS {
            let query = matching_range(&mut rng, &chain, H);
            for (bed, node) in &beds {
                // The other bed is the auxiliary: a different store,
                // histogram and freeze state vouch for this one's VO.
                let aux = &beds.iter().find(|(name, _)| name != bed).unwrap().1;
                let honest = serve(node, &query);
                let at = format!("seed {seed:#x} round {round} bed {bed} query {:?}", query.2);
                assert!(
                    client_accepts(&honest, &query, aux),
                    "honest answer refused: {at}"
                );
                for (m, (what, mutate)) in MUTATIONS.iter().enumerate() {
                    let Some(forged) = mutate(node, &query, &mut rng, honest.clone()) else {
                        continue;
                    };
                    applied[m] += 1;
                    assert!(
                        !client_accepts(&forged, &query, aux),
                        "accepted after '{what}': {at}"
                    );
                }
            }
        }
        for ((what, _), n) in MUTATIONS.iter().zip(applied) {
            assert!(
                n >= ROUNDS,
                "'{what}' applied only {n} times (seed {seed:#x})"
            );
        }
    }

    /// Fig. 17: the VO grows with the result, not with the chain. The
    /// second half of the doubled chain holds rows, none in range, under
    /// a histogram that cannot tell (the per-candidate protocol shipped
    /// a non-membership proof for each of its blocks).
    #[test]
    fn vo_bytes_for_a_fixed_result_do_not_grow_when_the_chain_doubles() {
        const H: u64 = 30;
        let seed = 0xf16_0017;
        let chain = stream(seed, 2 * H, H);
        let [_, unit_mistake, _] = samples();
        let mut rng = Rng(seed);
        let queries: Vec<Query> = (0..8)
            .map(|_| matching_range(&mut rng, &chain, H))
            .collect();
        let sizes = |blocks: u64, frozen_at: &[u64]| -> Vec<(usize, usize, usize)> {
            let node = replica(&chain[..blocks as usize], unit_mistake.clone(), frozen_at);
            queries
                .iter()
                .map(|q| {
                    let r = serve(&node, q);
                    assert!(client_accepts(&r, q, &node));
                    (r.transactions.len(), r.vo.per_block.len(), r.vo_bytes())
                })
                .collect()
        };
        let short = sizes(H, &[]);
        assert_eq!(sizes(2 * H, &[]), short, "resident (seed {seed:#x})");
        assert_eq!(sizes(2 * H, &[2 * H]), short, "frozen (seed {seed:#x})");
    }
}
