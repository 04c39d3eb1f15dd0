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
