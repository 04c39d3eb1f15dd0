//! The SEBDB full node.
//!
//! Glues the layers of Fig. 2 together: the application layer (SQL
//! entry point, access control, identity registry), the query
//! processing layer (planner + executor), the storage/index layer
//! (the [`Ledger`]), and the consensus layer (a pluggable engine whose
//! ordered stream an applier thread turns into chained blocks).

use crate::access::{AccessController, Permission};
use crate::executor::{ExecError, Executor, QueryResult, Strategy};
use crate::ledger::Ledger;
use crate::pipeline::{auto_pipeline_depth, ApplierHealth, ApplyPipeline};
use crate::schema_mgr::SchemaManager;
use parking_lot::RwLock;
use sebdb_consensus::traits::now_ms;
use sebdb_consensus::{Consensus, ConsensusError};
use sebdb_crypto::sig::{KeyId, MacKeypair, Signer};
use sebdb_offchain::OffchainConnection;
use sebdb_sql::{plan, LogicalPlan, SqlError, Statement};
use sebdb_storage::BlockStore;
use sebdb_types::{TableSchema, Transaction, TxId, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Node-level errors.
#[derive(Debug)]
pub enum NodeError {
    /// SQL parse/plan error.
    Sql(SqlError),
    /// Execution error.
    Exec(ExecError),
    /// Consensus rejected or is down.
    Consensus(ConsensusError),
    /// Access control denied the request.
    Denied(crate::access::AccessDenied),
    /// Write acknowledged but not yet applied within the timeout.
    ApplyTimeout,
    /// The applier pipeline died; the chain will not advance until the
    /// node restarts. Carries the stage error that killed it.
    ApplierDead(String),
    /// Anything else.
    Other(String),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Sql(e) => write!(f, "{e}"),
            NodeError::Exec(e) => write!(f, "{e}"),
            NodeError::Consensus(e) => write!(f, "{e}"),
            NodeError::Denied(e) => write!(f, "{e}"),
            NodeError::ApplyTimeout => write!(f, "write committed but not applied in time"),
            NodeError::ApplierDead(m) => write!(f, "applier pipeline dead: {m}"),
            NodeError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<SqlError> for NodeError {
    fn from(e: SqlError) -> Self {
        NodeError::Sql(e)
    }
}

impl From<ExecError> for NodeError {
    fn from(e: ExecError) -> Self {
        NodeError::Exec(e)
    }
}

/// Outcome of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// DDL applied; the table now exists cluster-wide.
    Created {
        /// The created table.
        table: String,
    },
    /// Row committed on-chain.
    Inserted {
        /// Assigned transaction id.
        tid: TxId,
        /// Block it landed in.
        block: u64,
    },
    /// Query rows.
    Rows(QueryResult),
}

impl ExecOutcome {
    /// The rows, if this outcome has any.
    pub fn rows(self) -> Option<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// A full SEBDB node.
pub struct SebdbNode {
    /// The node's chain + indexes.
    pub ledger: Arc<Ledger>,
    /// The node's schema catalog.
    pub schemas: Arc<SchemaManager>,
    /// Access control.
    pub access: AccessController,
    offchain: Option<OffchainConnection>,
    consensus: Arc<dyn Consensus>,
    identity: MacKeypair,
    /// Operator-name registry: "org1" → sender id (queries name
    /// operators by string; the chain stores sender ids).
    registry: RwLock<HashMap<String, KeyId>>,
    stopped: Arc<AtomicBool>,
    pipeline: parking_lot::Mutex<Option<ApplyPipeline>>,
    health: Arc<ApplierHealth>,
    /// How long to wait for a committed write to apply locally.
    pub apply_timeout: Duration,
}

impl SebdbNode {
    /// Starts a node: subscribes to the consensus stream and begins
    /// applying ordered blocks to the ledger and schema catalog through
    /// the staged write pipeline — four threads, `sealer`, `persister`,
    /// `indexer` and `view-folder` — its depth derived from the host's
    /// core count ([`auto_pipeline_depth`]). Sealing block N overlaps
    /// indexing block N−1 at every depth. The persist stage
    /// additionally fans each block's tuples across the store's
    /// per-relation partition segments (`StoreConfig::partitions`),
    /// committed by a single chain-order manifest record.
    pub fn start(
        store: Arc<BlockStore>,
        consensus: Arc<dyn Consensus>,
        offchain: Option<OffchainConnection>,
        identity: MacKeypair,
    ) -> Result<Arc<Self>, NodeError> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ledger = Arc::new(
            Ledger::new(store, identity.clone()).map_err(|e| NodeError::Other(e.to_string()))?,
        );
        let schemas = Arc::new(SchemaManager::new(offchain.clone()));
        let stopped = Arc::new(AtomicBool::new(false));

        let pipeline = ApplyPipeline::start(
            Arc::clone(&ledger),
            Arc::clone(&schemas),
            consensus.subscribe(),
            Arc::clone(&stopped),
            auto_pipeline_depth(cores),
        );
        let health = Arc::clone(pipeline.health());

        let node = Arc::new(SebdbNode {
            ledger,
            schemas,
            access: AccessController::new(),
            offchain,
            consensus,
            identity,
            registry: RwLock::new(HashMap::new()),
            stopped,
            pipeline: parking_lot::Mutex::new(Some(pipeline)),
            health,
            apply_timeout: Duration::from_secs(10),
        });
        Ok(node)
    }

    /// The node's own sender id.
    pub fn id(&self) -> KeyId {
        self.identity.key_id()
    }

    /// Registers an operator name (e.g. `"org1"`) for `TRACE OPERATOR`
    /// resolution.
    pub fn register_operator(&self, name: &str, id: KeyId) {
        self.registry.write().insert(name.to_ascii_lowercase(), id);
    }

    /// Resolves an operator name to its sender id.
    pub fn resolve_operator(&self, name: &str) -> Option<KeyId> {
        self.registry
            .read()
            .get(&name.to_ascii_lowercase())
            .copied()
    }

    /// Registers an incremental materialized view for a `TRACE`
    /// predicate: `window` over `Ts`, `operator` as a registered name
    /// (resolved through the same registry `TRACE OPERATOR` queries
    /// use), `operation` as a transaction type. Backfills immediately
    /// and folds every applied block from then on; an `Auto`-strategy
    /// `TRACE` with the same predicate is served from the view.
    /// Returns whether the view is newly registered.
    pub fn register_trace_view(
        &self,
        window: Option<(sebdb_types::Timestamp, sebdb_types::Timestamp)>,
        operator: Option<&str>,
        operation: Option<&str>,
    ) -> Result<bool, NodeError> {
        let operator = match operator {
            Some(name) => Some(
                self.resolve_operator(name)
                    .ok_or_else(|| NodeError::Other(format!("unknown operator '{name}'")))?
                    .0,
            ),
            None => None,
        };
        self.ledger
            .register_trace_view(sebdb_sql::TraceSpec::new(window, operator, operation))
            .map_err(|e| NodeError::Other(e.to_string()))
    }

    /// The off-chain connection (if this node pairs with a local
    /// RDBMS).
    pub fn offchain(&self) -> Option<&OffchainConnection> {
        self.offchain.as_ref()
    }

    /// Parses and executes one SQL statement as the node's own
    /// identity.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<ExecOutcome, NodeError> {
        self.execute_as(self.id(), sql, params, Strategy::Auto)
    }

    /// Parses and executes with an explicit access-control principal
    /// and physical strategy.
    pub fn execute_as(
        &self,
        principal: KeyId,
        sql: &str,
        params: &[Value],
        strategy: Strategy,
    ) -> Result<ExecOutcome, NodeError> {
        let stmt = sebdb_sql::parse(sql)?;
        self.check_access(principal, &stmt)?;
        let plan = plan(&stmt, params, self.schemas.as_ref())?;
        self.execute_plan(plan, strategy)
    }

    fn check_access(&self, principal: KeyId, stmt: &Statement) -> Result<(), NodeError> {
        let checks: Vec<(Permission, String)> = match stmt {
            Statement::Create { table, .. } => vec![(Permission::Write, table.clone())],
            Statement::Insert { table, .. } => vec![(Permission::Write, table.clone())],
            Statement::Select(s) => {
                let mut v = vec![(Permission::Read, s.from.name.clone())];
                if let Some(j) = &s.join {
                    v.push((Permission::Read, j.table.name.clone()));
                }
                v
            }
            // Tracking spans tables; Q7 reads block metadata. Both are
            // chain-level reads gated by the pseudo-table "__chain__".
            Statement::Trace { .. } | Statement::GetBlock(_) => {
                vec![(Permission::Read, "__chain__".into())]
            }
            // EXPLAIN never executes; gate it like the inner statement
            // would be gated.
            Statement::Explain(inner) => return self.check_access(principal, inner),
        };
        for (perm, table) in checks {
            self.access
                .check(principal, perm, &table)
                .map_err(NodeError::Denied)?;
        }
        Ok(())
    }

    /// Executes a resolved plan.
    pub fn execute_plan(
        &self,
        plan: LogicalPlan,
        strategy: Strategy,
    ) -> Result<ExecOutcome, NodeError> {
        match plan {
            LogicalPlan::CreateTable(schema) => self.submit_create(schema),
            LogicalPlan::Insert { table, row } => self.submit_insert(&table, row),
            read_only => {
                let plan = self.resolve_operators(read_only)?;
                let exec = Executor::new(&self.ledger, self.offchain.as_ref());
                Ok(ExecOutcome::Rows(exec.execute(&plan, strategy)?))
            }
        }
    }

    /// `plan` with a `TRACE` operator name, `EXPLAIN`ed or not, resolved
    /// to its sender id — here, where the registry lives.
    fn resolve_operators(&self, plan: LogicalPlan) -> Result<LogicalPlan, NodeError> {
        Ok(match plan {
            LogicalPlan::Trace {
                window,
                operator: Some(Value::Str(name)),
                operation,
            } => {
                let id = self
                    .resolve_operator(&name)
                    .ok_or_else(|| NodeError::Other(format!("unknown operator '{name}'")))?;
                LogicalPlan::Trace {
                    window,
                    operator: Some(Value::Bytes(id.as_bytes().to_vec())),
                    operation,
                }
            }
            LogicalPlan::Explain(inner) => {
                LogicalPlan::Explain(Box::new(self.resolve_operators(*inner)?))
            }
            other => other,
        })
    }

    /// `CREATE`: broadcast a schema-sync transaction, wait until the
    /// local catalog has applied it.
    fn submit_create(&self, schema: TableSchema) -> Result<ExecOutcome, NodeError> {
        let table = schema.name.clone();
        let mut tx = SchemaManager::schema_transaction(&schema, now_ms(), self.id());
        tx.sig = self.identity.sign(&tx.signing_payload()).to_bytes();
        let ack = self.consensus.submit(tx);
        let committed = ack
            .recv_timeout(self.apply_timeout)
            .map_err(|_| NodeError::ApplyTimeout)?
            .map_err(NodeError::Consensus)?;
        self.wait_applied(committed.seq)?;
        Ok(ExecOutcome::Created { table })
    }

    /// `INSERT`: sign, submit through consensus, wait for local apply
    /// (read-your-writes).
    fn submit_insert(&self, table: &str, row: Vec<Value>) -> Result<ExecOutcome, NodeError> {
        let mut tx = Transaction::new(now_ms(), self.id(), table, row);
        tx.sig = self.identity.sign(&tx.signing_payload()).to_bytes();
        let ack = self.consensus.submit(tx);
        let committed = ack
            .recv_timeout(self.apply_timeout)
            .map_err(|_| NodeError::ApplyTimeout)?
            .map_err(NodeError::Consensus)?;
        self.wait_applied(committed.seq)?;
        Ok(ExecOutcome::Inserted {
            tid: committed.tid,
            block: committed.seq,
        })
    }

    fn wait_applied(&self, seq: u64) -> Result<(), NodeError> {
        let health = &self.health;
        let reached =
            self.ledger
                .wait_for_height(seq + 1, Instant::now() + self.apply_timeout, || {
                    health.is_poisoned()
                });
        if reached {
            Ok(())
        } else if let Some(err) = health.error() {
            // Fail fast with the stage error instead of burning the
            // full apply timeout against a dead applier.
            Err(NodeError::ApplierDead(err.to_string()))
        } else {
            Err(NodeError::ApplyTimeout)
        }
    }

    /// Blocks until the local chain reaches `height` (applied: persisted
    /// and indexed). Returns false on timeout or a dead applier.
    pub fn wait_height(&self, height: u64, timeout: Duration) -> bool {
        let health = &self.health;
        self.ledger
            .wait_for_height(height, Instant::now() + timeout, || health.is_poisoned())
    }

    /// Stops the applier pipeline.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::Relaxed);
        if let Some(mut p) = self.pipeline.lock().take() {
            p.join();
        }
    }
}

impl Drop for SebdbNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}
