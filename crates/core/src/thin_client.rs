//! Thin clients and authenticated queries (§VI).
//!
//! A thin client stores only block headers. To query, it runs the
//! paper's two-phase protocol: phase 1 asks a randomly chosen full
//! node, which executes over the layered index and returns results +
//! VO + the snapshot height `h`; phase 2 relays `(query, h)` to one or more
//! *auxiliary* full nodes, which return a digest over the MB-tree
//! roots of exactly the blocks the query visits. The client
//! verifies soundness and completeness from the VO and cross-checks
//! the digest(s). [`byzantine_risk`] implements Eq. (4)–(6): the
//! probability that `m` matching digests out of `n` sampled auxiliary
//! nodes are all from Byzantine nodes.
//!
//! Probe first, prove second: the visited blocks are the blocks below
//! `h` that *hold a match*, found by one plain probe of the index
//! ([`visited_blocks`], the only source of a visited set), not the
//! blocks a histogram could not rule out. That set is a function of the
//! chain alone, so every honest replica — whatever its histogram was
//! sampled from, whatever it has frozen — derives the same one, and the
//! agreed digest vouches for it: a server that hides, invents, reorders
//! or repeats a block answers with roots that hash to something else.
//! Inside a visited block completeness is still the MB-tree's boundary
//! proof. A VO is therefore one `BlockVo` per block with a result
//! (DESIGN §4).
//!
//! The *basic* comparison approach (Figs. 17–19) ships every
//! block whole; the client recomputes each block's transaction Merkle
//! root against its stored header.

use crate::ledger::Ledger;
use sebdb_crypto::sha256::Digest;
use sebdb_index::{verify_query_vo, Bitmap, KeyPredicate, LayeredIndex, QueryVo, VerifyError};
use sebdb_types::{BlockHeader, BlockId, Codec, Timestamp, Transaction};

/// What a full node returns in phase 1.
#[derive(Debug, Clone)]
pub struct AuthenticatedResponse {
    /// The matching transactions, in VO order.
    pub transactions: Vec<Transaction>,
    /// The verification object.
    pub vo: QueryVo,
    /// MB-tree fanout (clients need it to reconstruct roots).
    pub fanout: usize,
}

impl AuthenticatedResponse {
    /// Total bytes shipped to the client (Fig. 17's VO-size metric
    /// counts the proof material, not the result payload).
    pub fn vo_bytes(&self) -> usize {
        self.vo.byte_len()
    }
}

/// The blocks an authenticated query visits at snapshot `height`: those
/// inside `mask` holding a row that matches `pred`, read off the
/// index's sorted leaves (its frozen half is one value-ordered run, so
/// the probe costs the result, not the chain). Both phases call this
/// under the guard they prove under, and nothing else decides a visited
/// set. `None` for an index without trees: its probe would find no
/// block, and an empty VO with a matching digest would verify.
fn visited_blocks(index: &LayeredIndex, pred: &KeyPredicate, mask: &Bitmap) -> Option<Bitmap> {
    let ptrs = index.keeps_trees().then(|| index.search(pred, mask))?;
    Some(Bitmap::from_bits(ptrs.iter().map(|p| p.block as usize)))
}

/// Server-side phase 1: execute `pred` on `(table, column)`'s index at
/// the current height; `None` for an index without trees (`tname`),
/// which has nothing to prove.
pub fn serve_authenticated_query(
    ledger: &Ledger,
    table: Option<&str>,
    column: &str,
    pred: &KeyPredicate,
    window: Option<(Timestamp, Timestamp)>,
) -> Option<AuthenticatedResponse> {
    let height = ledger.height();
    let mask = ledger.window_mask_at(window, height);
    let (vo, fanout) = ledger.with_layered(table, column, |index| {
        let visited = visited_blocks(index, pred, &mask)?;
        Some((
            index.authenticated_query(pred, Some(&visited), height),
            index.fanout(),
        ))
    })??;
    // Decode the result transactions the VO points at, in VO order.
    let transactions = ledger.read_txs(&vo.result_ptrs()).ok()?;
    Some(AuthenticatedResponse {
        transactions,
        vo,
        fanout,
    })
}

/// Server-side phase 2 (auxiliary full node): digest over the MB-tree
/// roots the query visits at snapshot `height`; `None` for an index
/// without trees, as phase 1.
pub fn serve_auxiliary_digest(
    ledger: &Ledger,
    table: Option<&str>,
    column: &str,
    pred: &KeyPredicate,
    window: Option<(Timestamp, Timestamp)>,
    height: BlockId,
) -> Option<Digest> {
    let mask = ledger.window_mask_at(window, height);
    ledger.with_layered(table, column, |index| {
        Some(index.auxiliary_query(&visited_blocks(index, pred, &mask)?, height))
    })?
}

/// A phase-1 response for an authenticated *join* (§VI: "It is
/// convenient to modify Algorithm 1–3 to support Track-trace and Join
/// based on the ALI"): the full node returns each relation's matching
/// transactions with per-relation VOs; the client verifies both sides
/// are sound and complete, then computes the equi-join locally over
/// authenticated data — so a lying server can neither invent nor hide
/// join rows.
#[derive(Debug, Clone)]
pub struct AuthenticatedJoinResponse {
    /// The left relation's response (all indexed entries).
    pub left: AuthenticatedResponse,
    /// The right relation's response.
    pub right: AuthenticatedResponse,
}

/// Serves phase 1 of an authenticated join of `left` ⋈ `right` on
/// their indexed columns (full key range — completeness of the
/// join needs both relations whole within the window).
pub fn serve_authenticated_join(
    ledger: &Ledger,
    left: (&str, &str),
    right: (&str, &str),
    pred: &KeyPredicate,
    window: Option<(Timestamp, Timestamp)>,
) -> Option<AuthenticatedJoinResponse> {
    Some(AuthenticatedJoinResponse {
        left: serve_authenticated_query(ledger, Some(left.0), left.1, pred, window)?,
        right: serve_authenticated_query(ledger, Some(right.0), right.1, pred, window)?,
    })
}

/// Client-side: verify both sides of an authenticated join against
/// their auxiliary digests, then compute the join rows locally.
/// `key_of` extracts the join attribute from a transaction. Returns
/// the joined (left, right) transaction pairs.
pub fn verify_and_join(
    response: &AuthenticatedJoinResponse,
    pred: &KeyPredicate,
    left_digests: &[Digest],
    right_digests: &[Digest],
    need: usize,
    key_of_left: impl Fn(&Transaction) -> Option<sebdb_types::Value>,
    key_of_right: impl Fn(&Transaction) -> Option<sebdb_types::Value>,
) -> Result<Vec<(Transaction, Transaction)>, ClientVerifyError> {
    let client = ThinClient::new();
    client.verify(pred, &response.left, left_digests, need)?;
    client.verify(pred, &response.right, right_digests, need)?;
    // Join locally over the now-trusted payloads.
    let mut by_key: std::collections::HashMap<sebdb_types::Value, Vec<&Transaction>> =
        std::collections::HashMap::new();
    for tx in &response.right.transactions {
        if let Some(k) = key_of_right(tx) {
            by_key.entry(k).or_default().push(tx);
        }
    }
    let mut out = Vec::new();
    for ltx in &response.left.transactions {
        let Some(k) = key_of_left(ltx) else { continue };
        if let Some(matches) = by_key.get(&k) {
            for rtx in matches {
                out.push((ltx.clone(), (*rtx).clone()));
            }
        }
    }
    Ok(out)
}

/// Thin-client verification failure.
#[derive(Debug, PartialEq, Eq)]
pub enum ClientVerifyError {
    /// A per-block proof or the digest failed.
    Proof(VerifyError),
    /// A returned transaction does not hash to its authenticated entry.
    TxHashMismatch {
        /// Position in the response.
        index: usize,
    },
    /// Fewer than the required number of identical digests.
    InsufficientDigests {
        /// Matching digests received.
        got: usize,
        /// Matching digests required.
        need: usize,
    },
}

impl std::fmt::Display for ClientVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientVerifyError::Proof(e) => write!(f, "proof: {e}"),
            ClientVerifyError::TxHashMismatch { index } => {
                write!(
                    f,
                    "transaction {index} does not match its authenticated hash"
                )
            }
            ClientVerifyError::InsufficientDigests { got, need } => {
                write!(f, "only {got} matching digests, need {need}")
            }
        }
    }
}

impl std::error::Error for ClientVerifyError {}

/// A thin client: headers only.
#[derive(Debug, Default)]
pub struct ThinClient {
    /// Synced block headers.
    pub headers: Vec<BlockHeader>,
}

impl ThinClient {
    /// Empty client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Syncs headers from a full node's ledger.
    pub fn sync_headers(&mut self, ledger: &Ledger) {
        if let Ok(headers) = ledger.headers() {
            self.headers = headers;
        }
    }

    /// Verifies a phase-1 response against auxiliary digests. `need`
    /// identical digests are required (e.g. 2 under 4-node PBFT,
    /// Example 4).
    pub fn verify(
        &self,
        pred: &KeyPredicate,
        response: &AuthenticatedResponse,
        digests: &[Digest],
        need: usize,
    ) -> Result<(), ClientVerifyError> {
        // Digest agreement first (phase 2).
        let agreed =
            most_common(digests).ok_or(ClientVerifyError::InsufficientDigests { got: 0, need })?;
        if agreed.1 < need {
            return Err(ClientVerifyError::InsufficientDigests {
                got: agreed.1,
                need,
            });
        }
        // Per-block soundness + completeness, and block-set coverage.
        verify_query_vo(&response.vo, pred, &agreed.0, response.fanout)
            .map_err(ClientVerifyError::Proof)?;
        // Every returned transaction must hash to its authenticated
        // entry (ties payloads to the VO).
        let entries: Vec<&sebdb_index::AuthEntry> = response
            .vo
            .per_block
            .iter()
            .flat_map(|b| b.results.iter())
            .collect();
        for (i, (tx, entry)) in response.transactions.iter().zip(&entries).enumerate() {
            if tx.hash() != entry.tx_hash {
                return Err(ClientVerifyError::TxHashMismatch { index: i });
            }
        }
        // Every pair matched; a payload or an entry left over sits at
        // the first position the shorter side does not reach.
        if entries.len() != response.transactions.len() {
            let index = entries.len().min(response.transactions.len());
            return Err(ClientVerifyError::TxHashMismatch { index });
        }
        Ok(())
    }

    /// The basic approach: verify whole shipped blocks by recomputing
    /// each block's transaction Merkle root against the synced header.
    /// Returns the transactions matching `keep`, or `None` on any root
    /// mismatch.
    pub fn verify_blocks_basic(
        &self,
        blocks: &[sebdb_types::Block],
        keep: impl Fn(&Transaction) -> bool,
    ) -> Option<Vec<Transaction>> {
        let mut out = Vec::new();
        for block in blocks {
            let header = self.headers.get(block.header.height as usize)?;
            let leaves: Vec<Vec<u8>> = block.transactions.iter().map(|t| t.to_bytes()).collect();
            if sebdb_crypto::merkle::merkle_root(&leaves) != header.trans_root {
                return None;
            }
            out.extend(block.transactions.iter().filter(|t| keep(t)).cloned());
        }
        Some(out)
    }
}

fn most_common(digests: &[Digest]) -> Option<(Digest, usize)> {
    let mut best: Option<(Digest, usize)> = None;
    for d in digests {
        let count = digests.iter().filter(|x| *x == d).count();
        if best.map(|(_, c)| count > c).unwrap_or(true) {
            best = Some((*d, count));
        }
    }
    best
}

/// Eq. (4)–(6): with Byzantine fraction `p`, `n` auxiliary nodes
/// sampled, `m` identical digests observed, and at most `max_byz`
/// Byzantine nodes in the network, the probability θ that the agreed
/// digest is wrong.
///
/// `p_w` (Eq. 4) is the probability the first `m` matching responses
/// are all Byzantine; `p_r` (Eq. 5) that they are all honest; θ is the
/// posterior `p_w / (p_w + p_r)` (Eq. 6), zero when `m` exceeds the
/// Byzantine population.
pub fn byzantine_risk(p: f64, n: usize, m: usize, max_byz: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    if m == 0 || m > n {
        return 1.0;
    }
    if m > max_byz {
        return 0.0;
    }
    // Σ_{i=0}^{m-1} C(m-1+i, i) x^{m-1} y^i, the negative-binomial mass
    // of seeing m-1 further successes before i failures.
    let series = |x: f64, y: f64| -> f64 {
        let mut sum = 0.0;
        for i in 0..m {
            sum += binom(m - 1 + i, i) * x.powi((m - 1) as i32) * y.powi(i as i32);
        }
        sum
    };
    let p_w = p * series(p, 1.0 - p);
    let p_r = (1.0 - p) * series(1.0 - p, p);
    if p_w + p_r == 0.0 {
        return 0.0;
    }
    p_w / (p_w + p_r)
}

fn binom(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut v = 1.0;
    for i in 0..k {
        v = v * (n - i) as f64 / (i + 1) as f64;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::join::tests::{Laps, ROUNDS};
    use sebdb_consensus::OrderedBlock;
    use sebdb_crypto::sig::{KeyId, MacKeypair};
    use sebdb_storage::{BlockStore, StoreConfig};
    use sebdb_types::{Column, DataType, TableSchema, Value};
    use std::sync::Arc;
    use std::time::Instant;

    /// Amounts are uniform in `[0, AMOUNTS)`, as the benchmark's.
    const AMOUNTS: u64 = 1_000_000;

    fn donate() -> TableSchema {
        TableSchema::new(
            "donate",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        )
    }

    /// A chain of `blocks` × `per_block` tuples on disk, half `donate`
    /// (a uniform amount) and half `transfer`, with `donate.amount`
    /// indexed before the load (its histogram sampled from the same
    /// distribution) and every index frozen after it; `cache` bounds
    /// the index-block cache, as the benchmark's `deep` does.
    fn frozen_chain(blocks: u64, per_block: u64, cache: Option<usize>) -> Ledger {
        let config = StoreConfig {
            index_cache_blocks: cache,
            ..StoreConfig::default()
        };
        let store = BlockStore::temporary(config).unwrap();
        let ledger = Ledger::new(Arc::new(store), MacKeypair::from_key([5; 32])).unwrap();
        let mut state = 7u64;
        let mut below = |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        let amount = |a: u64| Value::decimal(a as i64);
        let sample = (0..2_000)
            .map(|_| amount(below(AMOUNTS)).numeric_rank().unwrap())
            .collect();
        ledger
            .create_layered_index(&donate(), "amount", Some(sample))
            .unwrap();
        for b in 0..blocks {
            let txs = (0..per_block)
                .map(|slot| {
                    let donor = Value::Str(format!("d{}", below(100_000)));
                    let (tname, values) = match slot % 2 {
                        0 => ("donate", vec![donor, amount(below(AMOUNTS))]),
                        _ => ("transfer", vec![donor]),
                    };
                    let mut tx = Transaction::new(b * 1000 + slot, KeyId([7; 8]), tname, values);
                    tx.tid = b * per_block + slot + 1;
                    tx
                })
                .collect();
            let block = OrderedBlock {
                seq: b,
                timestamp_ms: (b + 1) * 1000,
                txs,
            };
            ledger.append_ordered(block).unwrap();
        }
        assert!(ledger.checkpoint_indexes().unwrap() > 0);
        ledger
    }

    /// Where an authenticated range's time goes (§VI's two phases and
    /// the client's check), phase by phase in the order
    /// [`serve_authenticated_query`], [`serve_auxiliary_digest`] and
    /// [`ThinClient::verify`] run them, on a frozen chain shaped like the
    /// benchmark's `mixed` preload (80 blocks × 200 tuples) and like its
    /// `deep` chain (4 000 blocks × 5, an 8-block index cache; a tenth of
    /// it in a debug build). Each range holds about 20 rows, as the
    /// benchmark's do. The split's VO, payload and digest must be the
    /// served ones, and verify. Run with
    /// `cargo test --release -p sebdb --lib auth_phase_split -- --nocapture`
    /// for the timings EXPERIMENTS.md quotes.
    #[test]
    fn auth_phase_split() {
        let deep = if cfg!(debug_assertions) { 400 } else { 4_000 };
        for (blocks, per_block, cache) in [(80, 200, None), (deep, 5, Some(8))] {
            let ledger = frozen_chain(blocks, per_block, cache);
            let (table, column) = (Some("donate"), "amount");
            let width = 20 * AMOUNTS / (blocks * per_block / 2);
            let mut laps = Laps::new();
            let (mut whole, mut visited_blocks_seen, mut rows, mut vo_bytes) = (vec![], 0, 0, 0);
            for round in 0..ROUNDS as u64 {
                let lo = round * (AMOUNTS - width) / ROUNDS as u64;
                let pred = KeyPredicate::Range(
                    Value::decimal(lo as i64),
                    Value::decimal((lo + width) as i64),
                );
                let t = Instant::now();
                let served =
                    serve_authenticated_query(&ledger, table, column, &pred, None).unwrap();
                let height = served.vo.height;
                let aux = serve_auxiliary_digest(&ledger, table, column, &pred, None, height);
                ThinClient::new()
                    .verify(&pred, &served, &[aux.unwrap()], 1)
                    .unwrap();
                whole.push(t.elapsed().as_micros());

                laps.start();
                let mask = ledger.window_mask_at(None, height);
                let (vo, fanout) = ledger
                    .with_layered(table, column, |index| {
                        let visited = visited_blocks(index, &pred, &mask).unwrap();
                        laps.mark(0);
                        let vo = index.authenticated_query(&pred, Some(&visited), height);
                        laps.mark(1);
                        (vo, index.fanout())
                    })
                    .unwrap();
                let transactions = ledger.read_txs(&vo.result_ptrs()).unwrap();
                laps.mark(2);
                let digest = serve_auxiliary_digest(&ledger, table, column, &pred, None, height);
                let digest = digest.unwrap();
                laps.mark(3);
                verify_query_vo(&vo, &pred, &digest, fanout).unwrap();
                laps.mark(4);
                let entries = vo.per_block.iter().flat_map(|b| &b.results);
                assert!(transactions
                    .iter()
                    .zip(entries)
                    .all(|(tx, entry)| tx.hash() == entry.tx_hash));
                laps.mark(5);

                assert_eq!(format!("{vo:?}"), format!("{:?}", served.vo));
                assert_eq!((transactions, Some(digest)), (served.transactions, aux));
                visited_blocks_seen += vo.per_block.len();
                rows += vo.result_ptrs().len();
                vo_bytes += vo.byte_len();
            }
            let per_op = |n: usize| n as f64 / ROUNDS as f64;
            assert!(per_op(rows) > 5.0, "{} rows per range", per_op(rows));
            println!(
                "authenticated range, frozen {blocks} × {per_block}, index cache {cache:?}, \
                 mean of {ROUNDS}: {:.1} rows, {:.1} blocks visited, {:.0} VO bytes per op:",
                per_op(rows),
                per_op(visited_blocks_seen),
                per_op(vo_bytes),
            );
            laps.report(
                [
                    "probe the index for the blocks holding a match",
                    "prove each visited block (authenticated_query)",
                    "fetch the payload (read_txs)",
                    "auxiliary: probe again + one root per visited block",
                    "client: verify_query_vo",
                    "client: hash each payload against its entry",
                ],
                "serve + auxiliary + verify",
                whole,
            );
        }
    }

    #[test]
    fn byzantine_risk_shrinks_with_more_matches() {
        let p = 1.0 / 3.0;
        let r1 = byzantine_risk(p, 8, 1, 10);
        let r2 = byzantine_risk(p, 8, 3, 10);
        let r3 = byzantine_risk(p, 8, 6, 10);
        assert!(r1 > r2 && r2 > r3, "{r1} {r2} {r3}");
        // Six identical digests at p = 1/3 leave θ ≈ 0.12.
        assert!(r3 < 0.2, "{r3}");
    }

    #[test]
    fn byzantine_risk_zero_beyond_population() {
        // More matching digests than Byzantine nodes exist ⇒ cannot all
        // be Byzantine.
        assert_eq!(byzantine_risk(0.3, 10, 4, 3), 0.0);
    }

    #[test]
    fn byzantine_risk_extremes() {
        assert_eq!(byzantine_risk(0.0, 4, 2, 4), 0.0);
        assert!(byzantine_risk(0.9, 4, 1, 4) > 0.5);
        assert_eq!(byzantine_risk(0.5, 4, 0, 4), 1.0);
    }

    #[test]
    fn most_common_majority() {
        let a = sebdb_crypto::sha256(b"a");
        let b = sebdb_crypto::sha256(b"b");
        let (d, c) = most_common(&[a, b, a]).unwrap();
        assert_eq!(d, a);
        assert_eq!(c, 2);
        assert!(most_common(&[]).is_none());
    }
}
