//! The pluggable consensus abstraction.
//!
//! §III-B: "SEBDB uses plug-in pattern, allowing users to select
//! different consensus protocol according to their requirements.
//! Currently, we support KAFKA and PBFT" (the evaluation also runs
//! Tendermint). All engines share one interface: clients [`submit`]
//! transactions and get an acknowledgement when their transaction
//! commits; every node [`subscribe`]s to the totally-ordered stream of
//! [`OrderedBlock`]s.
//!
//! [`submit`]: Consensus::submit
//! [`subscribe`]: Consensus::subscribe

use crossbeam::channel::Receiver;
use sebdb_types::{Transaction, TxId};

/// A totally-ordered batch of transactions: the input from which every
/// node seals the next chain block. Tids have already been assigned
/// (globally incremental) by the ordering service.
#[derive(Debug, Clone)]
pub struct OrderedBlock {
    /// Consecutive sequence number (= block height).
    pub seq: u64,
    /// Ordering-service timestamp (ms since epoch).
    pub timestamp_ms: u64,
    /// The ordered transactions.
    pub txs: Vec<Transaction>,
}

/// Acknowledgement delivered to a submitting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitAck {
    /// The tid the ordering service assigned.
    pub tid: TxId,
    /// Sequence of the block the transaction landed in.
    pub seq: u64,
}

/// Errors from the consensus layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusError {
    /// The engine has shut down.
    Stopped,
    /// The transaction was rejected by admission checks (CheckTx).
    Rejected(String),
}

impl std::fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsensusError::Stopped => write!(f, "consensus engine stopped"),
            ConsensusError::Rejected(r) => write!(f, "transaction rejected: {r}"),
        }
    }
}

impl std::error::Error for ConsensusError {}

/// A pluggable ordering/consensus engine.
pub trait Consensus: Send + Sync {
    /// Submits a transaction; the returned channel yields exactly one
    /// message when the transaction commits (or an error).
    fn submit(&self, tx: Transaction) -> Receiver<Result<CommitAck, ConsensusError>>;

    /// Subscribes a node to the ordered block stream. Every subscriber
    /// sees the same blocks in the same order.
    fn subscribe(&self) -> Receiver<OrderedBlock>;

    /// Stops background threads.
    fn shutdown(&self);

    /// Engine name for logs/benchmarks.
    fn name(&self) -> &'static str;
}

/// Packaging policy shared by all engines, applied by the mempool's
/// three cut rules in order: a pending schema-sync transaction cuts the
/// transactions queued before it at once (at most `max_txs`), then ships
/// alone at once; otherwise a block is cut at `max_txs` transactions or
/// after `timeout_ms` since the first pending transaction (the paper's
/// 200 tx / 200 ms defaults, §VII-B).
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum transactions per block.
    pub max_txs: usize,
    /// Packaging timeout in milliseconds.
    pub timeout_ms: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_txs: 200,
            timeout_ms: 200,
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BatchConfig::default();
        assert_eq!(c.max_txs, 200);
        assert_eq!(c.timeout_ms, 200);
    }

    #[test]
    fn now_ms_is_monotonic_enough() {
        let a = now_ms();
        let b = now_ms();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000, "epoch ms sanity");
    }
}
