//! The engine adapter: the only file in the harness that names an
//! engine item. Everything the benchmark pins is in the `use` lists
//! below; an engine PR that renames or reshapes one of them breaks the
//! build here and nowhere else.
//!
//! **Front door** (what the untraced, end-to-end runs call):
//! `KafkaOrderer::start` · `KafkaOrderer::set_tx_verifier` ·
//! `BlockStore::open` · `OffchainDb` · `SebdbNode::start` ·
//! `SebdbNode::execute` / `execute_as` · `SebdbNode::register_operator`
//! · `SebdbNode::register_trace_view` · `SebdbNode::wait_height` ·
//! `Consensus::submit` · `Ledger::height` ·
//! `Ledger::create_layered_index` · `Ledger::checkpoint_indexes` ·
//! `Ledger::set_checkpoint_every` · `Ledger::index_memory_bytes` ·
//! `Ledger::verify_chain` · `Ledger::new` (timed reopen) ·
//! `serve_authenticated_query` · `serve_auxiliary_digest` ·
//! `ThinClient::verify` · `IndexBlockCache::resident_bytes`.
//!
//! **Layer entry points** (what the traced pass additionally times,
//! each a public function of its crate): `sebdb_sql::parse` / `plan` ·
//! `Executor::execute` · `Ledger::{append_ordered, seal_ordered,
//! persist_block, index_appended, window_mask, with_layered, with_ali,
//! read_txs_grouped, read_block, register_trace_view}` ·
//! `LayeredIndex::{update, candidate_blocks, search_block}` ·
//! `AuthenticatedLayeredIndex::{update, authenticated_query}` ·
//! `BlockStore::append` · `IoStats` · `ApplyPipeline::start_with_lanes`
//! · `Mempool::{submit, next_batch, admit}` · `merkle_root` · `sha256`
//! · `MacKeypair::{sign, verify}` · `Codec` for `Block` ·
//! `OffchainConnection::select` · `sebdb_parallel::max_threads`.

use crate::gen::{Row, Table, DONEEINFO_ROWS, OPERATORS};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use sebdb::{
    auto_applier_lanes, auto_pipeline_depth, serve_authenticated_query, serve_auxiliary_digest,
    ApplyPipeline, AuthenticatedResponse, ExecOutcome, Executor, Ledger, SchemaManager, SebdbNode,
    Strategy, ThinClient,
};
use sebdb_consensus::traits::now_ms;
use sebdb_consensus::{
    BatchConfig, CommitAck, Consensus, ConsensusError, KafkaOrderer, Mempool, OrderedBlock,
};
use sebdb_crypto::merkle::merkle_root;
use sebdb_crypto::sha256::{sha256, Digest};
use sebdb_crypto::sig::{KeyId, MacKeypair, Signature, Signer, Verifier};
use sebdb_index::{AuthenticatedLayeredIndex, EqualDepthHistogram, KeyPredicate, LayeredIndex};
use sebdb_offchain::{CmpOp, OffchainConnection, OffchainDb, Predicate};
use sebdb_sql::{LogicalPlan, Statement, TraceSpec};
use sebdb_storage::{BlockStore, StoreConfig, TxPtr};
use sebdb_types::{Block, Codec, Column, DataType, TableSchema, Transaction, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `CREATE` statements for the three BChainBench relations.
pub const CREATE_SQL: [&str; 3] = [
    "CREATE donate (donor string, project string, amount decimal)",
    "CREATE transfer (project string, donor string, organization string, amount decimal)",
    "CREATE distribute (project string, donor string, organization string, donee string, amount decimal)",
];
/// Q2: one-dimension tracking.
pub const Q2_SQL: &str = r#"TRACE OPERATOR = "org1""#;
/// Q3 with a time window: two-dimension tracking.
pub const Q3_WINDOW_SQL: &str = r#"TRACE [?, ?] OPERATOR = "org1", OPERATION = "transfer""#;
/// Q3 without a window — the predicate the `mixed` view is registered for.
pub const Q3_VIEW_SQL: &str = r#"TRACE OPERATOR = "org1", OPERATION = "transfer""#;
/// Q4 range.
pub const Q4_RANGE_SQL: &str = "SELECT * FROM donate WHERE amount BETWEEN ? AND ?";
/// Q4 point.
pub const Q4_POINT_SQL: &str = "SELECT * FROM donate WHERE amount = ?";
/// Q5: on-chain join.
pub const Q5_SQL: &str =
    "SELECT * FROM transfer, distribute ON transfer.organization = distribute.organization";
/// Q6: on-chain ⋈ off-chain join.
pub const Q6_SQL: &str =
    "SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee";
/// Q7: block lookup.
pub const Q7_SQL: &str = "GET BLOCK ID=?";

/// Histogram depth the ledger uses for continuous layered indexes.
const HISTOGRAM_BUCKETS: usize = 100;
const NODE_KEY: [u8; 32] = [0x5e; 32];

/// The engine settings a workload may vary; everything else is the
/// engine's default and is recorded by [`Bed::config_record`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Packaging cut size (`BatchConfig::max_txs`).
    pub max_txs: usize,
    /// Packaging timeout (`BatchConfig::timeout_ms`).
    pub timeout_ms: u64,
    /// `StoreConfig::index_cache_blocks`; `None` = engine default.
    pub index_cache_blocks: Option<usize>,
}

/// A parameter bound to a `?`.
pub enum Param {
    /// Whole-unit decimal (amounts).
    Amount(i64),
    /// Integer (block ids, window edges in ms).
    Int(u64),
}

fn values(params: &[Param]) -> Vec<Value> {
    params
        .iter()
        .map(|p| match p {
            Param::Amount(a) => Value::decimal(*a),
            Param::Int(i) => Value::Int(*i as i64),
        })
        .collect()
}

/// Physical strategy override for a read (the untraced runs always use
/// `Auto`; the traced pass forces each to measure planner regret).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `Strategy::Auto`
    Auto,
    /// `Strategy::Scan`
    Scan,
    /// `Strategy::Bitmap`
    Bitmap,
    /// `Strategy::Layered`
    Layered,
}

impl Access {
    fn strategy(self) -> Strategy {
        match self {
            Access::Auto => Strategy::Auto,
            Access::Scan => Strategy::Scan,
            Access::Bitmap => Strategy::Bitmap,
            Access::Layered => Strategy::Layered,
        }
    }
}

/// What became of a submitted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckState {
    /// Not ordered yet.
    Pending,
    /// Ordered into block `seq`.
    Committed {
        /// Block sequence number (= height of the block).
        seq: u64,
    },
    /// Refused at MAC admission.
    Refused,
    /// The orderer stopped or dropped the channel.
    Lost,
}

/// The orderer's acknowledgement channel for one submission.
pub struct Ack(Receiver<Result<CommitAck, ConsensusError>>);

impl Ack {
    fn map(r: Result<CommitAck, ConsensusError>) -> AckState {
        match r {
            Ok(ack) => AckState::Committed { seq: ack.seq },
            Err(ConsensusError::Rejected(_)) => AckState::Refused,
            Err(ConsensusError::Stopped) => AckState::Lost,
        }
    }

    /// Non-blocking check.
    pub fn poll(&self) -> AckState {
        match self.0.try_recv() {
            Ok(r) => Self::map(r),
            Err(TryRecvError::Empty) => AckState::Pending,
            Err(TryRecvError::Disconnected) => AckState::Lost,
        }
    }

    /// Blocks up to `timeout`.
    pub fn wait(&self, timeout: Duration) -> AckState {
        match self.0.recv_timeout(timeout) {
            Ok(r) => Self::map(r),
            Err(_) => AckState::Pending,
        }
    }
}

/// A transaction built and signed ahead of the timer.
pub struct SignedTx {
    tx: Transaction,
    /// Encoded tuple size (the "user bytes" of the space metric).
    pub bytes: usize,
}

/// Signs generated rows into transactions with the node's MAC key.
#[derive(Clone)]
pub struct TxBuilder {
    signer: MacKeypair,
    operators: [KeyId; OPERATORS],
}

impl TxBuilder {
    /// The builder every node, twin and bare mempool shares: one MAC
    /// key, eight operator ids.
    pub fn new() -> TxBuilder {
        TxBuilder {
            signer: MacKeypair::from_key(NODE_KEY),
            operators: std::array::from_fn(|i| KeyId([i as u8 + 1; 8])),
        }
    }

    /// Builds `row` with `ts = now`, so block-timestamp windows hold.
    pub fn build(&self, row: &Row) -> SignedTx {
        let s = |prefix: char, id: u32| Value::str(format!("{prefix}{id}"));
        let project = s('p', row.donor % 16);
        let amount = Value::decimal(row.amount);
        let values = match row.table {
            Table::Donate => vec![s('d', row.donor), project, amount],
            Table::Transfer => vec![project, s('d', row.donor), s('o', row.org), amount],
            Table::Distribute => vec![
                project,
                s('d', row.donor),
                s('o', row.org),
                s('e', row.donee),
                amount,
            ],
        };
        let mut tx = Transaction::new(
            now_ms(),
            self.operators[row.op as usize],
            row.table.name(),
            values,
        );
        tx.sig = self.signer.sign(&tx.signing_payload()).to_bytes();
        if row.forged {
            let last = tx.sig.len() - 1;
            tx.sig[last] ^= 0x01;
        }
        let bytes = tx.byte_len();
        SignedTx { tx, bytes }
    }

    /// `rows` built as honest transactions whatever their `forged`
    /// flag says: a forged MAC never gets past admission, so ledgers
    /// and pools fed directly must not see one.
    pub fn build_honest(&self, rows: &[Row]) -> Vec<SignedTx> {
        rows.iter()
            .map(|r| {
                self.build(&Row {
                    forged: false,
                    ..*r
                })
            })
            .collect()
    }

    /// Assigns consecutive tids and wraps `txs` as the orderer would
    /// (the traced pass feeds ledgers and the pipeline directly).
    pub fn ordered_block(seq: u64, first_tid: u64, txs: Vec<SignedTx>) -> Ordered {
        let txs = txs
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut tx = s.tx;
                tx.tid = first_tid + i as u64;
                tx
            })
            .collect();
        Ordered(OrderedBlock {
            seq,
            timestamp_ms: now_ms(),
            txs,
        })
    }
}

/// Wall-clock milliseconds, the clock `Ts` and block timestamps use.
pub fn wall_ms() -> u64 {
    now_ms()
}

fn mac_verifier(keys: MacKeypair) -> Box<dyn Fn(&Transaction) -> bool + Send + Sync> {
    Box::new(move |tx: &Transaction| {
        Signature::from_bytes(&tx.sig).is_some_and(|sig| keys.verify(&tx.signing_payload(), &sig))
    })
}

fn open_store(dir: &Path, index_cache_blocks: Option<usize>) -> Result<Arc<BlockStore>, String> {
    // Stated flush policy: no fsync per block, on both sides of any
    // comparison. Everything else is `StoreConfig::default()`.
    let config = StoreConfig {
        sync_writes: false,
        index_cache_blocks,
        ..StoreConfig::default()
    };
    BlockStore::open(dir, config)
        .map(Arc::new)
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

fn doneeinfo() -> Result<OffchainConnection, String> {
    let db = OffchainDb::new();
    db.create_table(
        "doneeinfo",
        vec![
            Column::new("donee", DataType::Str),
            Column::new("income", DataType::Decimal),
            Column::new("family_size", DataType::Int),
        ],
    )
    .map_err(|e| e.to_string())?;
    let conn = Arc::new(db).connect();
    for i in 0..DONEEINFO_ROWS {
        conn.insert(
            "doneeinfo",
            vec![
                Value::str(format!("e{i}")),
                Value::decimal(1_000 + (i as i64 * 37) % 9_000),
                Value::Int(1 + (i as i64 % 7)),
            ],
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(conn)
}

/// One running node over a disk store, with its orderer.
pub struct Bed {
    node: Arc<SebdbNode>,
    orderer: Arc<KafkaOrderer>,
    builder: TxBuilder,
    config: EngineConfig,
}

impl Bed {
    /// Starts the orderer (MAC admission installed) and a node on a
    /// fresh disk store under `dir`, with `doneeinfo` loaded off-chain
    /// and the eight operators registered.
    pub fn start(dir: &Path, config: EngineConfig) -> Result<Bed, String> {
        let builder = TxBuilder::new();
        let orderer = KafkaOrderer::start(BatchConfig {
            max_txs: config.max_txs,
            timeout_ms: config.timeout_ms,
        });
        orderer.set_tx_verifier(Some(mac_verifier(builder.signer.clone())));
        let node = SebdbNode::start(
            open_store(dir, config.index_cache_blocks)?,
            Arc::clone(&orderer) as Arc<dyn Consensus>,
            Some(doneeinfo()?),
            builder.signer.clone(),
        )
        .map_err(|e| format!("start node: {e}"))?;
        for (i, id) in builder.operators.iter().enumerate() {
            node.register_operator(&format!("org{}", i + 1), *id);
        }
        Ok(Bed {
            node,
            orderer,
            builder,
            config,
        })
    }

    /// Creates the three relations through SQL, then the layered + ALI
    /// indexes on `donate.amount` (continuous, histogram seeded from
    /// `sample` because there is no history yet) and
    /// `transfer.organization` (discrete).
    pub fn create_schema(&self, sample: Vec<i64>) -> Result<(), String> {
        for sql in CREATE_SQL {
            self.node
                .execute(sql, &[])
                .map_err(|e| format!("{sql}: {e}"))?;
        }
        for (table, column, sample) in [
            ("donate", "amount", Some(sample)),
            ("transfer", "organization", None),
        ] {
            let schema = self
                .node
                .schemas
                .get(table)
                .ok_or_else(|| format!("schema '{table}' missing after CREATE"))?;
            self.node
                .ledger
                .create_layered_index(&schema, column, sample)
                .map_err(|e| format!("index {table}.{column}: {e}"))?;
        }
        Ok(())
    }

    /// The builder that signs rows for this node's admission check.
    pub fn builder(&self) -> &TxBuilder {
        &self.builder
    }

    /// Hands a pre-signed transaction to the orderer.
    pub fn submit(&self, tx: SignedTx) -> Ack {
        Ack(self.orderer.submit(tx.tx))
    }

    /// Applied height: blocks below it are persisted, indexed, queryable.
    pub fn height(&self) -> u64 {
        self.node.ledger.height()
    }

    /// Blocks until the applied height reaches `height`.
    pub fn wait_height(&self, height: u64, timeout: Duration) -> bool {
        self.node.wait_height(height, timeout)
    }

    /// Runs one read statement through the node's SQL front door and
    /// returns its rows.
    pub fn query(&self, sql: &str, params: &[Param], path: Access) -> Result<Rows, String> {
        let params = values(params);
        let outcome = if path == Access::Auto {
            self.node.execute(sql, &params)
        } else {
            self.node
                .execute_as(self.node.id(), sql, &params, path.strategy())
        };
        match outcome {
            Ok(ExecOutcome::Rows(r)) => Ok(Rows(r.rows)),
            Ok(other) => Err(format!("{sql}: not a row result: {other:?}")),
            Err(e) => Err(format!("{sql}: {e}")),
        }
    }

    /// `Ledger::checkpoint_indexes`: freezes every index family.
    pub fn checkpoint_indexes(&self) -> Result<usize, String> {
        self.node
            .ledger
            .checkpoint_indexes()
            .map_err(|e| e.to_string())
    }

    /// `Ledger::set_checkpoint_every`.
    pub fn set_checkpoint_every(&self, blocks: u64) {
        self.node.ledger.set_checkpoint_every(blocks);
    }

    /// Registers the `org1` ∧ `transfer` tracking view (no window).
    pub fn register_org1_transfer_view(&self) -> Result<(), String> {
        self.node
            .register_trace_view(None, Some("org1"), Some("transfer"))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Resident index bytes: every family's in-memory part plus what
    /// the index-block cache holds.
    pub fn index_memory_bytes(&self) -> usize {
        let ledger = &self.node.ledger;
        ledger.index_memory_bytes() + ledger.store().index_cache().resident_bytes()
    }

    /// `Ledger::verify_chain`.
    pub fn verify_chain(&self) -> Result<(), String> {
        self.node.ledger.verify_chain().map_err(|e| e.to_string())
    }

    /// Phase 1 of an authenticated range query on `donate.amount`.
    pub fn auth_serve(&self, lo: i64, hi: i64) -> Result<AuthAnswer, String> {
        let pred = KeyPredicate::Range(Value::decimal(lo), Value::decimal(hi));
        let response =
            serve_authenticated_query(&self.node.ledger, Some("donate"), "amount", &pred, None)
                .ok_or("no ALI on donate.amount")?;
        Ok(AuthAnswer { pred, response })
    }

    /// Phase 2: one auxiliary digest at the answer's snapshot height.
    pub fn auth_aux(&self, answer: &AuthAnswer) -> Result<AuxDigest, String> {
        serve_auxiliary_digest(
            &self.node.ledger,
            Some("donate"),
            "amount",
            &answer.pred,
            None,
            answer.response.vo.height,
        )
        .map(AuxDigest)
        .ok_or_else(|| "no ALI on donate.amount".to_string())
    }

    /// What the engine resolved for the knobs the harness leaves alone.
    pub fn config_record(&self) -> Vec<(&'static str, f64)> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        vec![
            ("max_txs", self.config.max_txs as f64),
            ("timeout_ms", self.config.timeout_ms as f64),
            (
                "index_cache_blocks",
                self.node.ledger.store().index_cache().capacity_blocks() as f64,
            ),
            (
                "store_partitions",
                self.node.ledger.store().partitions() as f64,
            ),
            ("applier_lanes", auto_applier_lanes(cores) as f64),
            ("pipeline_depth", auto_pipeline_depth(cores) as f64),
            ("parallel_threads", sebdb_parallel::max_threads() as f64),
        ]
    }

    /// Stops the node's applier and the orderer; both join their
    /// threads before returning.
    pub fn shutdown(&self) {
        self.node.shutdown();
        self.orderer.shutdown();
    }
}

/// Rows of a query result.
pub struct Rows(Vec<Vec<Value>>);

impl Rows {
    /// Row count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Integer in column `col` of row `row` (Q7's height / tx_count).
    pub fn int(&self, row: usize, col: usize) -> Option<i64> {
        match self.0.get(row)?.get(col)? {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// A phase-1 authenticated answer with the predicate it serves.
pub struct AuthAnswer {
    pred: KeyPredicate,
    response: AuthenticatedResponse,
}

/// A phase-2 auxiliary digest.
pub struct AuxDigest(Digest);

impl AuthAnswer {
    /// Result transactions shipped.
    pub fn len(&self) -> usize {
        self.response.transactions.len()
    }

    /// Proof bytes shipped.
    pub fn vo_bytes(&self) -> usize {
        self.response.vo_bytes()
    }

    /// Blocks the VO visited.
    pub fn vo_blocks(&self) -> usize {
        self.response.vo.per_block.len()
    }

    /// Thin-client verification against one auxiliary digest.
    pub fn verify(&self, digest: &AuxDigest) -> Result<(), String> {
        ThinClient::new()
            .verify(&self.pred, &self.response, &[digest.0], 1)
            .map_err(|e| e.to_string())
    }

    /// A copy with one result hidden, as a lying full node would send.
    /// `None` when there is nothing to hide.
    pub fn tampered(&self) -> Option<AuthAnswer> {
        let mut response = self.response.clone();
        let block = response
            .vo
            .per_block
            .iter_mut()
            .find(|b| !b.results.is_empty())?;
        block.results.remove(0);
        response.transactions.remove(0);
        Some(AuthAnswer {
            pred: self.pred.clone(),
            response,
        })
    }
}

/// Times `Ledger::new(BlockStore::open(dir))` on a store no node has
/// open, returning (seconds, applied height).
pub fn timed_reopen(dir: &Path, index_cache_blocks: Option<usize>) -> Result<(f64, u64), String> {
    let start = std::time::Instant::now();
    let store = open_store(dir, index_cache_blocks)?;
    let ledger = Ledger::new(store, MacKeypair::from_key(NODE_KEY)).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok((secs, ledger.height()))
}

/// The noise guard's fixed unit of single-thread work: SHA-256 over
/// 4 MiB in 64 KiB pieces (≈ 15 ms here).
pub fn calibration_loop() {
    let buf = vec![0xa5u8; 64 * 1024];
    for _ in 0..64 {
        std::hint::black_box(sha256(std::hint::black_box(&buf)));
    }
}

// ---------------------------------------------------------------------
// Layer entry points — used only by the traced pass.
// ---------------------------------------------------------------------

/// `IoStats` as plain counts, for deltas at span boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounts {
    /// Blocks fetched from the backend.
    pub blocks_read: u64,
    /// Tuples materialized.
    pub txs_read: u64,
    /// Payload bytes fetched.
    pub bytes_read: u64,
    /// Index blocks served from the index-block cache.
    pub index_hits: u64,
    /// Index blocks loaded from a checkpoint file.
    pub index_misses: u64,
}

impl IoCounts {
    /// Counts since `earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            blocks_read: self.blocks_read - earlier.blocks_read,
            txs_read: self.txs_read - earlier.txs_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
            index_hits: self.index_hits - earlier.index_hits,
            index_misses: self.index_misses - earlier.index_misses,
        }
    }
}

/// A parsed statement (`sebdb_sql::parse`).
pub struct Parsed(Statement);
/// A planned statement (`sebdb_sql::plan`), operator names resolved.
pub struct Planned(LogicalPlan);
/// The pointers a layered probe found, with how many blocks it probed.
pub struct Probe {
    ptrs: Vec<TxPtr>,
    /// Candidate blocks after the window mask.
    pub candidate_blocks: usize,
}

impl Probe {
    /// Tuples the probe points at.
    pub fn len(&self) -> usize {
        self.ptrs.len()
    }
}

fn amount_range(lo: i64, hi: i64) -> KeyPredicate {
    KeyPredicate::Range(Value::decimal(lo), Value::decimal(hi))
}

impl Bed {
    /// The store's I/O counters now.
    pub fn io(&self) -> IoCounts {
        let stats = &self.node.ledger.store().stats;
        let (blocks_read, _, txs_read) = stats.snapshot();
        let (index_hits, index_misses) = stats.index_cache_counts();
        IoCounts {
            blocks_read,
            txs_read,
            bytes_read: stats.bytes_read(),
            index_hits,
            index_misses,
        }
    }

    /// `sebdb_sql::parse`.
    pub fn parse(&self, sql: &str) -> Result<Parsed, String> {
        sebdb_sql::parse(sql).map(Parsed).map_err(|e| e.to_string())
    }

    /// `sebdb_sql::plan` against the node's catalog, then the operator
    /// name → sender id step the node does before executing a `TRACE`.
    pub fn plan(&self, stmt: &Parsed, params: &[Param]) -> Result<Planned, String> {
        let plan = sebdb_sql::plan(&stmt.0, &values(params), self.node.schemas.as_ref())
            .map_err(|e| e.to_string())?;
        Ok(Planned(match plan {
            LogicalPlan::Trace {
                window,
                operator: Some(Value::Str(name)),
                operation,
            } => {
                let id = self
                    .node
                    .resolve_operator(&name)
                    .ok_or_else(|| format!("unknown operator '{name}'"))?;
                LogicalPlan::Trace {
                    window,
                    operator: Some(Value::Bytes(id.as_bytes().to_vec())),
                    operation,
                }
            }
            other => other,
        }))
    }

    /// `Executor::execute`; returns the row count.
    pub fn exec(&self, plan: &Planned, access: Access) -> Result<usize, String> {
        Executor::new(&self.node.ledger, self.node.offchain())
            .execute(&plan.0, access.strategy())
            .map(|r| r.len())
            .map_err(|e| e.to_string())
    }

    /// Step 1 of `executor/range.rs`'s layered arm: the window mask
    /// (no window). Returns the number of blocks in it.
    pub fn step_window_mask(&self) -> usize {
        self.node.ledger.window_mask(None).count_ones()
    }

    /// Step 2a: first-level candidates for `[lo, hi]` on
    /// `donate.amount`, under the mask.
    pub fn step_candidates(&self, lo: i64, hi: i64) -> Result<Vec<u64>, String> {
        let mask = self.node.ledger.window_mask(None);
        let pred = amount_range(lo, hi);
        self.node
            .ledger
            .with_layered(Some("donate"), "amount", |idx| {
                idx.candidate_blocks(&pred)
                    .and(&mask)
                    .iter_ones()
                    .map(|b| b as u64)
                    .collect()
            })
            .ok_or_else(|| "no layered index on donate.amount".to_string())
    }

    /// Step 2b: second-level search of each candidate block.
    pub fn step_search(&self, lo: i64, hi: i64, candidates: &[u64]) -> Result<Probe, String> {
        let pred = amount_range(lo, hi);
        self.node
            .ledger
            .with_layered(Some("donate"), "amount", |idx| {
                let mut ptrs = Vec::new();
                for &bid in candidates {
                    ptrs.extend(idx.search_block(bid, &pred));
                }
                Probe {
                    ptrs,
                    candidate_blocks: candidates.len(),
                }
            })
            .ok_or_else(|| "no layered index on donate.amount".to_string())
    }

    /// Step 3: `Ledger::read_txs_grouped` over the probe's pointers.
    pub fn step_fetch(&self, probe: &Probe) -> Result<usize, String> {
        self.node
            .ledger
            .read_txs_grouped(&probe.ptrs)
            .map(|txs| txs.len())
            .map_err(|e| e.to_string())
    }

    /// `Ledger::read_block`; returns the block's tuple count.
    pub fn read_block(&self, bid: u64) -> Result<usize, String> {
        self.node
            .ledger
            .read_block(bid)
            .map(|b| b.transactions.len())
            .map_err(|e| e.to_string())
    }

    /// `AuthenticatedLayeredIndex::authenticated_query` alone (no tuple
    /// fetch); returns the blocks the VO visits.
    pub fn ali_query(&self, lo: i64, hi: i64) -> Result<usize, String> {
        let ledger = &self.node.ledger;
        let mask = ledger.window_mask(None);
        let height = ledger.height();
        let pred = amount_range(lo, hi);
        ledger
            .with_ali(Some("donate"), "amount", |ali| {
                ali.authenticated_query(&pred, Some(&mask), height)
                    .per_block
                    .len()
            })
            .ok_or_else(|| "no ALI on donate.amount".to_string())
    }

    /// `OffchainConnection::select`: one `doneeinfo` row by key.
    pub fn offchain_lookup(&self, donee: u64) -> Result<usize, String> {
        let conn = self.node.offchain().ok_or("node has no off-chain db")?;
        conn.select(
            "doneeinfo",
            &Predicate::Compare {
                column: 0,
                op: CmpOp::Eq,
                value: Value::str(format!("e{donee}")),
            },
        )
        .map(|rows| rows.len())
        .map_err(|e| e.to_string())
    }
}

/// An ordered batch, as the orderer hands it to appliers.
#[derive(Clone)]
pub struct Ordered(OrderedBlock);

impl Ordered {
    /// Tuples in the batch.
    pub fn len(&self) -> usize {
        self.0.txs.len()
    }
}

/// A sealed block (`Ledger::seal_ordered`).
pub struct Sealed(Block);
/// A persisted block (`Ledger::persist_block`).
pub struct Persisted(Arc<Block>);

impl Persisted {
    /// The canonical tuple encodings Merkle leaves commit to.
    pub fn leaves(&self) -> Vec<Vec<u8>> {
        self.0.transactions.iter().map(Codec::to_bytes).collect()
    }

    /// `Codec::to_bytes` for the whole block.
    pub fn encode(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

/// `Codec::from_bytes` for a block; returns its tuple count.
pub fn decode_block(bytes: &[u8]) -> Result<usize, String> {
    Block::from_bytes(bytes)
        .map(|b| b.transactions.len())
        .map_err(|e| e.to_string())
}

/// `sebdb_crypto::merkle::merkle_root`.
pub fn merkle(leaves: &[Vec<u8>]) {
    std::hint::black_box(merkle_root(std::hint::black_box(leaves)));
}

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

fn transfer_schema() -> TableSchema {
    TableSchema::new(
        "transfer",
        vec![
            Column::new("project", DataType::Str),
            Column::new("donor", DataType::Str),
            Column::new("organization", DataType::Str),
            Column::new("amount", DataType::Decimal),
        ],
    )
}

/// A ledger on its own disk store with the benchmark's indexes but no
/// node, orderer or pipeline: the twin the write path is traced on.
pub struct Twin {
    ledger: Arc<Ledger>,
    dir: PathBuf,
    index_cache_blocks: Option<usize>,
}

impl Twin {
    /// Opens a fresh store under `dir` and creates both layered + ALI
    /// indexes; with `view`, also the `org1` ∧ `transfer` tracking view.
    pub fn open(
        dir: &Path,
        index_cache_blocks: Option<usize>,
        sample: Vec<i64>,
        view: bool,
    ) -> Result<Twin, String> {
        let _ = std::fs::remove_dir_all(dir);
        let builder = TxBuilder::new();
        let ledger = Ledger::new(open_store(dir, index_cache_blocks)?, builder.signer.clone())
            .map_err(|e| e.to_string())?;
        ledger
            .create_layered_index(&donate_schema(), "amount", Some(sample))
            .map_err(|e| e.to_string())?;
        ledger
            .create_layered_index(&transfer_schema(), "organization", None)
            .map_err(|e| e.to_string())?;
        if view {
            ledger
                .register_trace_view(TraceSpec::new(
                    None,
                    Some(builder.operators[0].0),
                    Some("transfer"),
                ))
                .map_err(|e| e.to_string())?;
        }
        Ok(Twin {
            ledger: Arc::new(ledger),
            dir: dir.to_path_buf(),
            index_cache_blocks,
        })
    }

    /// `Ledger::append_ordered`: the whole write path for one block.
    pub fn append_ordered(&self, block: Ordered) -> Result<(), String> {
        self.ledger
            .append_ordered(block.0)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// `Ledger::seal_ordered`.
    pub fn seal(&self, block: Ordered) -> Result<Sealed, String> {
        self.ledger
            .seal_ordered(block.0)
            .map(Sealed)
            .map_err(|e| e.to_string())
    }

    /// `Ledger::persist_block`.
    pub fn persist(&self, block: Sealed) -> Result<Persisted, String> {
        self.ledger
            .persist_block(block.0)
            .map(Persisted)
            .map_err(|e| e.to_string())
    }

    /// `Ledger::index_appended`.
    pub fn index(&self, block: &Persisted) {
        self.ledger.index_appended(&block.0);
    }

    /// `Ledger::checkpoint_indexes`; returns the bytes the checkpoint
    /// directory holds afterwards.
    pub fn checkpoint(&self) -> Result<u64, String> {
        self.ledger
            .checkpoint_indexes()
            .map_err(|e| e.to_string())?;
        Ok(disk_bytes(
            &self.dir.join(sebdb_storage::INDEX_CHECKPOINT_DIR),
        ))
    }

    /// Bytes the store directory holds.
    pub fn disk_bytes(&self) -> u64 {
        disk_bytes(&self.dir)
    }

    /// Applied height.
    pub fn height(&self) -> u64 {
        self.ledger.height()
    }

    /// Drops the ledger and times `Ledger::new(BlockStore::open(dir))`.
    pub fn reopen(self) -> Result<f64, String> {
        let Twin {
            ledger,
            dir,
            index_cache_blocks,
        } = self;
        let height = ledger.height();
        drop(ledger);
        let (secs, reopened) = timed_reopen(&dir, index_cache_blocks)?;
        if reopened != height {
            return Err(format!("twin reopened at {reopened}, was {height}"));
        }
        Ok(secs)
    }

    /// Feeds `blocks` through `ApplyPipeline::start_with_lanes` (auto
    /// depth and lanes, no consensus) and returns tuples applied per
    /// second.
    pub fn pipeline_tps(self, blocks: Vec<Ordered>) -> Result<f64, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (tx, rx): (Sender<OrderedBlock>, Receiver<OrderedBlock>) = unbounded();
        let stopped = Arc::new(AtomicBool::new(false));
        let base = self.ledger.height();
        let target = base + blocks.len() as u64;
        let tuples: usize = blocks.iter().map(Ordered::len).sum();
        let mut pipeline = ApplyPipeline::start_with_lanes(
            Arc::clone(&self.ledger),
            Arc::new(SchemaManager::new(None)),
            rx,
            Arc::clone(&stopped),
            auto_pipeline_depth(cores),
            auto_applier_lanes(cores),
        );
        let start = std::time::Instant::now();
        for b in blocks {
            tx.send(b.0).map_err(|_| "pipeline hung up")?;
        }
        let health = Arc::clone(pipeline.health());
        let reached = self.ledger.wait_for_height(
            target,
            std::time::Instant::now() + Duration::from_secs(30),
            || health.is_poisoned(),
        );
        let secs = start.elapsed().as_secs_f64();
        stopped.store(true, Ordering::Relaxed);
        drop(tx);
        pipeline.join();
        if !reached {
            return Err(format!(
                "pipeline stopped at height {} of {target}: {:?}",
                self.ledger.height(),
                health.error()
            ));
        }
        Ok(tuples as f64 / secs)
    }
}

/// Bytes under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A bare `BlockStore` (no ledger): `BlockStore::append` standalone.
pub struct BareStore(Arc<BlockStore>);

impl BareStore {
    /// Opens a fresh store under `dir`.
    pub fn open(dir: &Path) -> Result<BareStore, String> {
        let _ = std::fs::remove_dir_all(dir);
        open_store(dir, None).map(BareStore)
    }

    /// `BlockStore::append`.
    pub fn append(&self, block: &Persisted) -> Result<(), String> {
        self.0.append(&block.0).map_err(|e| e.to_string())
    }
}

/// Standalone index structures on `donate.amount`:
/// `LayeredIndex::update` and `AuthenticatedLayeredIndex::update`.
pub struct BareIndexes {
    layered: LayeredIndex,
    ali: AuthenticatedLayeredIndex,
}

impl BareIndexes {
    /// Empty continuous indexes with a histogram from `sample`.
    pub fn new(sample: Vec<i64>) -> BareIndexes {
        let schema = donate_schema();
        let col = schema.resolve("amount").expect("donate has amount");
        let hist = EqualDepthHistogram::from_sample(sample, HISTOGRAM_BUCKETS);
        BareIndexes {
            layered: LayeredIndex::new_continuous(Some("donate".into()), col, hist.clone()),
            ali: AuthenticatedLayeredIndex::new_continuous(Some("donate".into()), col, hist),
        }
    }

    /// `LayeredIndex::update`.
    pub fn update_layered(&mut self, block: &Persisted) {
        self.layered.update(&block.0);
    }

    /// `AuthenticatedLayeredIndex::update`.
    pub fn update_ali(&mut self, block: &Persisted) {
        self.ali.update(&block.0);
    }
}

/// A bare `Mempool` with MAC admission installed:
/// `Mempool::{submit, next_batch, admit}` without a broker thread.
pub struct BareMempool(Mempool);

impl BareMempool {
    /// A pool cutting at `max_txs`.
    pub fn new(max_txs: usize) -> BareMempool {
        let pool = Mempool::new(BatchConfig {
            max_txs,
            timeout_ms: 200,
        });
        pool.set_verifier(Some(mac_verifier(TxBuilder::new().signer)));
        BareMempool(pool)
    }

    /// `Mempool::submit`.
    pub fn submit(&self, tx: SignedTx) {
        std::hint::black_box(self.0.submit(tx.tx));
    }

    /// `Mempool::next_batch` + `Mempool::admit`; returns admitted count.
    pub fn cut(&self) -> usize {
        match self.0.next_batch() {
            Some(batch) => self.0.admit(batch).len(),
            None => 0,
        }
    }
}

/// `MacKeypair::{sign, verify}` and `sha256` on fixed inputs.
pub struct CryptoProbe {
    keys: MacKeypair,
    payload: Vec<u8>,
    signature: Signature,
    megabyte: Vec<u8>,
}

impl CryptoProbe {
    /// A probe over `tx`'s signing payload.
    pub fn new(tx: &SignedTx) -> CryptoProbe {
        let keys = MacKeypair::from_key(NODE_KEY);
        let payload = tx.tx.signing_payload();
        let signature = keys.sign(&payload);
        CryptoProbe {
            keys,
            payload,
            signature,
            megabyte: vec![0x3c; 1 << 20],
        }
    }

    /// `MacKeypair::sign`.
    pub fn sign(&self) {
        std::hint::black_box(self.keys.sign(std::hint::black_box(&self.payload)));
    }

    /// `MacKeypair::verify`.
    pub fn verify(&self) -> bool {
        self.keys
            .verify(std::hint::black_box(&self.payload), &self.signature)
    }

    /// `sha256` over 1 MiB.
    pub fn sha256_mib(&self) {
        std::hint::black_box(sha256(std::hint::black_box(&self.megabyte)));
    }
}

/// `sebdb_parallel::max_threads()`.
pub fn parallel_threads() -> usize {
    sebdb_parallel::max_threads()
}
