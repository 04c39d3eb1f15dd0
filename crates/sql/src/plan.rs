//! Logical planning: name resolution, parameter binding, and
//! validation against the schema catalog.
//!
//! The physical access-path decision (scan vs bitmap vs layered index,
//! Eqs. 1–3) is made by the executor in `sebdb` core, where index
//! availability is known; this module produces fully-resolved
//! [`LogicalPlan`]s with every column bound and every literal coerced.

use crate::ast::*;
use crate::lexer::SqlError;
use sebdb_types::{Column, ColumnRef, DataType, TableSchema, Timestamp, Value};

/// What the planner needs to know about existing tables.
pub trait Catalog {
    /// Schema of an on-chain table (transaction type).
    fn onchain_schema(&self, name: &str) -> Option<TableSchema>;
    /// Columns of an off-chain table.
    fn offchain_columns(&self, name: &str) -> Option<Vec<Column>>;
}

/// A resolved comparison against an on-chain column.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate {
    /// The resolved column.
    pub column: ColumnRef,
    /// Operator (`Between` is encoded as `Ge lo` + `Le hi` pair by the
    /// planner when needed; kept intact here).
    pub kind: BoundPredicateKind,
}

/// The shape of a bound predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundPredicateKind {
    /// `col <op> value`.
    Compare(CompareOp, Value),
    /// `col BETWEEN lo AND hi`.
    Between(Value, Value),
}

impl BoundPredicate {
    /// Evaluates against a column-value getter.
    pub fn matches(&self, get: impl Fn(ColumnRef) -> Option<Value>) -> bool {
        get(self.column).is_some_and(|v| self.holds(&v))
    }

    /// Evaluates against the value of [`Self::column`].
    pub fn holds(&self, v: &Value) -> bool {
        if *v == Value::Null {
            return false;
        }
        match &self.kind {
            BoundPredicateKind::Compare(op, rhs) => {
                if *rhs == Value::Null {
                    return false;
                }
                let ord = v.cmp_total(rhs);
                match op {
                    CompareOp::Eq => ord.is_eq(),
                    CompareOp::Ne => ord.is_ne(),
                    CompareOp::Lt => ord.is_lt(),
                    CompareOp::Le => ord.is_le(),
                    CompareOp::Gt => ord.is_gt(),
                    CompareOp::Ge => ord.is_ge(),
                }
            }
            BoundPredicateKind::Between(lo, hi) => v >= lo && v <= hi,
        }
    }

    /// If this predicate is servable by a layered index (equality or
    /// closed range), the `(lo, hi)` bounds.
    pub fn index_bounds(&self) -> Option<(Value, Value)> {
        match &self.kind {
            BoundPredicateKind::Compare(CompareOp::Eq, v) => Some((v.clone(), v.clone())),
            BoundPredicateKind::Between(lo, hi) => Some((lo.clone(), hi.clone())),
            _ => None,
        }
    }
}

/// A fully-resolved statement ready for execution.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Create an on-chain table.
    CreateTable(TableSchema),
    /// Insert one validated row into an on-chain table.
    Insert {
        /// Target table (canonical lower-case).
        table: String,
        /// Coerced application-level values.
        row: Vec<Value>,
    },
    /// Single-table on-chain query.
    Query {
        /// Table schema.
        schema: TableSchema,
        /// Projected columns; empty = all (system + application).
        projection: Vec<String>,
        /// Conjunctive predicates.
        predicates: Vec<BoundPredicate>,
        /// Optional time window over `Ts`.
        window: Option<(Timestamp, Timestamp)>,
    },
    /// On-chain equi-join (Algorithm 2).
    OnChainJoin {
        /// Left table schema.
        left: TableSchema,
        /// Right table schema.
        right: TableSchema,
        /// Resolved join column on the left.
        left_col: ColumnRef,
        /// Resolved join column on the right.
        right_col: ColumnRef,
        /// Optional time window.
        window: Option<(Timestamp, Timestamp)>,
    },
    /// On-chain ⋈ off-chain join (Algorithm 3).
    OnOffJoin {
        /// The on-chain side.
        on_table: TableSchema,
        /// Resolved on-chain join column.
        on_col: ColumnRef,
        /// Off-chain table name (canonical lower-case).
        off_table: String,
        /// Off-chain join column position.
        off_col: usize,
        /// Off-chain column metadata (for output headers).
        off_columns: Vec<Column>,
        /// Optional time window (applies to the on-chain side).
        window: Option<(Timestamp, Timestamp)>,
    },
    /// Track-trace (Algorithm 1).
    Trace {
        /// Window over `Ts`.
        window: Option<(Timestamp, Timestamp)>,
        /// Operator dimension: sender id bytes.
        operator: Option<Value>,
        /// Operation dimension: transaction type.
        operation: Option<String>,
    },
    /// Block lookup by id / tid / timestamp.
    GetBlock(BoundBlockSelector),
    /// `EXPLAIN`: describe the inner plan instead of executing it.
    Explain(Box<LogicalPlan>),
    /// Post-processing wrapper: `COUNT(*)` and/or `LIMIT n` over the
    /// inner plan's rows.
    Post {
        /// The wrapped plan.
        input: Box<LogicalPlan>,
        /// Emit a single count row.
        count: bool,
        /// Keep at most this many rows.
        limit: Option<u64>,
    },
}

/// A normalized tracking predicate: the registration and routing key
/// of a materialized `TRACE` view. Strategy-independent — every
/// physical strategy answering the same `(window, operator,
/// operation)` triple produces the same rows in the same chain order,
/// so one spec identifies one result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    /// Window over `Ts`, inclusive on both ends.
    pub window: Option<(Timestamp, Timestamp)>,
    /// Operator dimension: the sender's 8 id bytes (`SenID`).
    pub operator: Option<[u8; 8]>,
    /// Operation dimension: lowercased transaction type (`Tname`).
    pub operation: Option<String>,
}

impl TraceSpec {
    /// Builds a spec, lowercasing the operation the way the planner
    /// does so equal predicates always compare equal.
    pub fn new(
        window: Option<(Timestamp, Timestamp)>,
        operator: Option<[u8; 8]>,
        operation: Option<&str>,
    ) -> TraceSpec {
        TraceSpec {
            window,
            operator,
            operation: operation.map(|s| s.to_ascii_lowercase()),
        }
    }

    /// Tracking needs at least one dimension (Algorithm 1 has no
    /// "trace everything" walk).
    pub fn is_valid(&self) -> bool {
        self.operator.is_some() || self.operation.is_some()
    }
}

/// Resolved `GET BLOCK` selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundBlockSelector {
    /// By block id.
    ById(u64),
    /// By transaction id.
    ByTid(u64),
    /// By timestamp.
    ByTimestamp(u64),
}

fn as_u64(v: &Value, what: &str) -> Result<u64, SqlError> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        Value::Timestamp(t) => Ok(*t),
        other => Err(SqlError::new(
            format!("{what} must be a non-negative integer, got {other}"),
            0,
        )),
    }
}

fn resolve_window(
    window: &Option<(Expr, Expr)>,
    params: &[Value],
) -> Result<Option<(Timestamp, Timestamp)>, SqlError> {
    match window {
        None => Ok(None),
        Some((a, b)) => {
            let s = as_u64(&a.resolve(params)?, "window start")?;
            let e = as_u64(&b.resolve(params)?, "window end")?;
            if s > e {
                return Err(SqlError::new(format!("empty window [{s}, {e}]"), 0));
            }
            Ok(Some((s, e)))
        }
    }
}

/// Coerces a predicate literal to the column's type so comparisons are
/// homogeneous (e.g. integer literals against decimal columns).
fn coerce_literal(v: Value, ty: DataType) -> Value {
    v.clone().coerce(ty).unwrap_or(v)
}

/// Plans `stmt` with bound `params` against `catalog`.
pub fn plan(
    stmt: &Statement,
    params: &[Value],
    catalog: &dyn Catalog,
) -> Result<LogicalPlan, SqlError> {
    let need = stmt.param_count();
    if params.len() < need {
        return Err(SqlError::new(
            format!("statement needs {need} parameters, {} bound", params.len()),
            0,
        ));
    }
    match stmt {
        Statement::Create { table, columns } => {
            if catalog.onchain_schema(table).is_some() {
                return Err(SqlError::new(format!("table '{table}' already exists"), 0));
            }
            let schema = TableSchema::new(
                table.to_ascii_lowercase(),
                columns
                    .iter()
                    .map(|(n, t)| Column::new(n.clone(), *t))
                    .collect(),
            );
            Ok(LogicalPlan::CreateTable(schema))
        }
        Statement::Insert { table, values } => {
            let schema = catalog
                .onchain_schema(table)
                .ok_or_else(|| SqlError::new(format!("no such table '{table}'"), 0))?;
            let row: Vec<Value> = values
                .iter()
                .map(|e| e.resolve(params))
                .collect::<Result<_, _>>()?;
            let row = schema
                .check_row(row)
                .map_err(|e| SqlError::new(e.to_string(), 0))?;
            Ok(LogicalPlan::Insert {
                table: schema.name.clone(),
                row,
            })
        }
        Statement::Select(s) => plan_select(s, params, catalog),
        Statement::Trace {
            window,
            operator,
            operation,
        } => {
            let operator = match operator {
                Some(e) => Some(match e.resolve(params)? {
                    // Operators are named by string in queries; the
                    // executor maps names to sender ids. Raw id bytes
                    // are accepted too.
                    v @ (Value::Str(_) | Value::Bytes(_)) => v,
                    other => {
                        return Err(SqlError::new(
                            format!("OPERATOR must be a string or id bytes, got {other}"),
                            0,
                        ))
                    }
                }),
                None => None,
            };
            let operation = match operation {
                Some(e) => match e.resolve(params)? {
                    Value::Str(s) => Some(s.to_ascii_lowercase()),
                    other => {
                        return Err(SqlError::new(
                            format!("OPERATION must be a table name string, got {other}"),
                            0,
                        ))
                    }
                },
                None => None,
            };
            Ok(LogicalPlan::Trace {
                window: resolve_window(window, params)?,
                operator,
                operation,
            })
        }
        Statement::Explain(inner) => Ok(LogicalPlan::Explain(Box::new(plan(
            inner, params, catalog,
        )?))),
        Statement::GetBlock(sel) => {
            let bound = match sel {
                BlockSelector::ById(e) => {
                    BoundBlockSelector::ById(as_u64(&e.resolve(params)?, "block id")?)
                }
                BlockSelector::ByTid(e) => {
                    BoundBlockSelector::ByTid(as_u64(&e.resolve(params)?, "tid")?)
                }
                BlockSelector::ByTimestamp(e) => {
                    BoundBlockSelector::ByTimestamp(as_u64(&e.resolve(params)?, "timestamp")?)
                }
            };
            Ok(LogicalPlan::GetBlock(bound))
        }
    }
}

fn bind_predicates(
    schema: &TableSchema,
    predicates: &[WherePredicate],
    params: &[Value],
) -> Result<Vec<BoundPredicate>, SqlError> {
    predicates
        .iter()
        .map(|p| {
            let column = schema
                .resolve(p.column())
                .map_err(|e| SqlError::new(e.to_string(), 0))?;
            let ty = column.data_type(schema);
            let kind = match p {
                WherePredicate::Compare { op, value, .. } => {
                    BoundPredicateKind::Compare(*op, coerce_literal(value.resolve(params)?, ty))
                }
                WherePredicate::Between { lo, hi, .. } => BoundPredicateKind::Between(
                    coerce_literal(lo.resolve(params)?, ty),
                    coerce_literal(hi.resolve(params)?, ty),
                ),
            };
            Ok(BoundPredicate { column, kind })
        })
        .collect()
}

fn plan_select(
    s: &SelectStmt,
    params: &[Value],
    catalog: &dyn Catalog,
) -> Result<LogicalPlan, SqlError> {
    let inner = plan_select_inner(s, params, catalog)?;
    if s.count || s.limit.is_some() {
        Ok(LogicalPlan::Post {
            input: Box::new(inner),
            count: s.count,
            limit: s.limit,
        })
    } else {
        Ok(inner)
    }
}

fn plan_select_inner(
    s: &SelectStmt,
    params: &[Value],
    catalog: &dyn Catalog,
) -> Result<LogicalPlan, SqlError> {
    let window = resolve_window(&s.window, params)?;
    if s.from.source == TableSource::OffChain {
        return Err(SqlError::new(
            "the first FROM table must be on-chain (off-chain tables join via Q6 syntax)",
            0,
        ));
    }
    let left = catalog
        .onchain_schema(&s.from.name)
        .ok_or_else(|| SqlError::new(format!("no such on-chain table '{}'", s.from.name), 0))?;

    match &s.join {
        None => Ok(LogicalPlan::Query {
            predicates: bind_predicates(&left, &s.predicates, params)?,
            projection: s.projection.clone(),
            schema: left,
            window,
        }),
        Some(j) if j.table.source == TableSource::OnChain => {
            let right = catalog.onchain_schema(&j.table.name).ok_or_else(|| {
                SqlError::new(format!("no such on-chain table '{}'", j.table.name), 0)
            })?;
            if !s.predicates.is_empty() {
                return Err(SqlError::new(
                    "WHERE on joins is not supported; filter with a time window",
                    0,
                ));
            }
            let left_col = left
                .resolve(&j.left_col)
                .map_err(|e| SqlError::new(e.to_string(), 0))?;
            let right_col = right
                .resolve(&j.right_col)
                .map_err(|e| SqlError::new(e.to_string(), 0))?;
            Ok(LogicalPlan::OnChainJoin {
                left,
                right,
                left_col,
                right_col,
                window,
            })
        }
        Some(j) => {
            let off_columns = catalog.offchain_columns(&j.table.name).ok_or_else(|| {
                SqlError::new(format!("no such off-chain table '{}'", j.table.name), 0)
            })?;
            let on_col = left
                .resolve(&j.left_col)
                .map_err(|e| SqlError::new(e.to_string(), 0))?;
            let off_col = off_columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(&j.right_col))
                .ok_or_else(|| {
                    SqlError::new(
                        format!(
                            "no column '{}' in off-chain '{}'",
                            j.right_col, j.table.name
                        ),
                        0,
                    )
                })?;
            Ok(LogicalPlan::OnOffJoin {
                on_table: left,
                on_col,
                off_table: j.table.name.to_ascii_lowercase(),
                off_col,
                off_columns,
                window,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    struct TestCatalog;

    impl Catalog for TestCatalog {
        fn onchain_schema(&self, name: &str) -> Option<TableSchema> {
            match name.to_ascii_lowercase().as_str() {
                "donate" => Some(TableSchema::new(
                    "donate",
                    vec![
                        Column::new("donor", DataType::Str),
                        Column::new("project", DataType::Str),
                        Column::new("amount", DataType::Decimal),
                    ],
                )),
                "distribute" => Some(TableSchema::new(
                    "distribute",
                    vec![
                        Column::new("project", DataType::Str),
                        Column::new("donee", DataType::Str),
                        Column::new("amount", DataType::Decimal),
                    ],
                )),
                _ => None,
            }
        }

        fn offchain_columns(&self, name: &str) -> Option<Vec<Column>> {
            match name.to_ascii_lowercase().as_str() {
                "doneeinfo" => Some(vec![
                    Column::new("donee", DataType::Str),
                    Column::new("income", DataType::Decimal),
                ]),
                _ => None,
            }
        }
    }

    fn plan_sql(sql: &str, params: &[Value]) -> Result<LogicalPlan, SqlError> {
        plan(&parse(sql).unwrap(), params, &TestCatalog)
    }

    #[test]
    fn plans_insert_with_params_and_coercion() {
        let p = plan_sql(
            "INSERT INTO donate VALUES (?, ?, ?)",
            &[Value::str("Jack"), Value::str("Edu"), Value::Int(100)],
        )
        .unwrap();
        match p {
            LogicalPlan::Insert { table, row } => {
                assert_eq!(table, "donate");
                assert_eq!(row[2], Value::decimal(100)); // Int → Decimal
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_wrong_arity_fails() {
        assert!(plan_sql("INSERT INTO donate VALUES (1, 2)", &[]).is_err());
        assert!(plan_sql("INSERT INTO nosuch VALUES (1)", &[]).is_err());
    }

    #[test]
    fn missing_params_detected() {
        assert!(plan_sql("INSERT INTO donate VALUES (?, ?, ?)", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn plans_range_query_with_bound_column() {
        let p = plan_sql(
            "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
            &[Value::Int(10), Value::Int(20)],
        )
        .unwrap();
        match p {
            LogicalPlan::Query {
                predicates, schema, ..
            } => {
                assert_eq!(schema.name, "donate");
                assert_eq!(predicates.len(), 1);
                assert_eq!(predicates[0].column, ColumnRef::App(2));
                // Int literals coerced to the decimal column type.
                assert_eq!(
                    predicates[0].index_bounds(),
                    Some((Value::decimal(10), Value::decimal(20)))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plans_onchain_join() {
        let p = plan_sql(
            "SELECT * FROM donate, distribute ON donate.project = distribute.project",
            &[],
        )
        .unwrap();
        match p {
            LogicalPlan::OnChainJoin {
                left_col,
                right_col,
                ..
            } => {
                assert_eq!(left_col, ColumnRef::App(1));
                assert_eq!(right_col, ColumnRef::App(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plans_onoff_join() {
        let p = plan_sql(
            "SELECT * FROM onchain.distribute, offchain.doneeinfo ON distribute.donee = doneeinfo.donee",
            &[],
        )
        .unwrap();
        match p {
            LogicalPlan::OnOffJoin {
                on_col,
                off_col,
                off_table,
                ..
            } => {
                assert_eq!(on_col, ColumnRef::App(1));
                assert_eq!(off_col, 0);
                assert_eq!(off_table, "doneeinfo");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plans_trace() {
        let p = plan_sql(
            r#"TRACE [5, 10] OPERATOR = "org1", OPERATION = "Donate""#,
            &[],
        )
        .unwrap();
        assert_eq!(
            p,
            LogicalPlan::Trace {
                window: Some((5, 10)),
                operator: Some(Value::str("org1")),
                operation: Some("donate".into()),
            }
        );
    }

    #[test]
    fn empty_window_rejected() {
        assert!(plan_sql(r#"TRACE [10, 5] OPERATOR = "o""#, &[]).is_err());
    }

    #[test]
    fn plans_get_block() {
        assert_eq!(
            plan_sql("GET BLOCK ID = ?", &[Value::Int(7)]).unwrap(),
            LogicalPlan::GetBlock(BoundBlockSelector::ById(7))
        );
        assert!(plan_sql("GET BLOCK ID = ?", &[Value::str("x")]).is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        assert!(plan_sql("SELECT * FROM donate WHERE salary = 1", &[]).is_err());
    }

    #[test]
    fn bound_predicate_matching() {
        let p = plan_sql("SELECT * FROM donate WHERE amount BETWEEN 10 AND 20", &[]).unwrap();
        let LogicalPlan::Query { predicates, .. } = p else {
            panic!()
        };
        let pred = &predicates[0];
        assert!(pred.matches(|_| Some(Value::decimal(15))));
        assert!(!pred.matches(|_| Some(Value::decimal(25))));
        assert!(!pred.matches(|_| Some(Value::Null)));
        assert!(!pred.matches(|_| None));
    }

    #[test]
    fn create_duplicate_rejected() {
        assert!(plan_sql("CREATE donate (x int)", &[]).is_err());
        let ok = plan_sql("CREATE transfer (a string, b decimal)", &[]).unwrap();
        match ok {
            LogicalPlan::CreateTable(s) => assert_eq!(s.name, "transfer"),
            other => panic!("{other:?}"),
        }
    }
}
