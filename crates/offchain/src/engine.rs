//! The off-chain database engine.
//!
//! Each SEBDB node pairs the chain with a local RDBMS holding private
//! (off-chain) data (§IV-A: "Off-chain data are managed by a local
//! RDBMS, and accessed via an interface (ODBC, JDBC, etc.)").
//! [`OffchainDb`] plays that role; [`OffchainConnection`] is the
//! ODBC/JDBC-shaped access interface the query engine talks to, so the
//! engine never touches tables directly.

use crate::predicate::Predicate;
use crate::table::OffTable;
use parking_lot::RwLock;
use sebdb_types::{Column, TypeError, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A multi-table off-chain database.
#[derive(Default)]
pub struct OffchainDb {
    tables: RwLock<HashMap<String, Arc<RwLock<OffTable>>>>,
}

impl OffchainDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table.
    pub fn create_table(&self, name: &str, columns: Vec<Column>) -> Result<(), TypeError> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(TypeError::DuplicateTable {
                table: name.to_owned(),
            });
        }
        tables.insert(key, Arc::new(RwLock::new(OffTable::new(name, columns))));
        Ok(())
    }

    fn table(&self, name: &str) -> Result<Arc<RwLock<OffTable>>, TypeError> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| TypeError::NoSuchTable {
                table: name.to_owned(),
            })
    }

    /// Opens a connection (the ODBC/JDBC stand-in).
    pub fn connect(self: &Arc<Self>) -> OffchainConnection {
        OffchainConnection {
            db: Arc::clone(self),
        }
    }
}

/// `column`'s position in `table`.
fn column_of(table: &OffTable, column: &str) -> Result<usize, TypeError> {
    table
        .column_index(column)
        .ok_or_else(|| TypeError::NoSuchColumn {
            column: column.to_owned(),
        })
}

/// A connection handle to the off-chain database.
#[derive(Clone)]
pub struct OffchainConnection {
    db: Arc<OffchainDb>,
}

impl OffchainConnection {
    /// Inserts a row.
    pub fn insert(&self, table: &str, values: Vec<Value>) -> Result<(), TypeError> {
        self.db.table(table)?.write().insert(values)?;
        Ok(())
    }

    /// Selects rows matching `pred`.
    pub fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<Vec<Value>>, TypeError> {
        Ok(self.db.table(table)?.read().select(pred))
    }

    /// Updates matching rows; returns the count.
    pub fn update(
        &self,
        table: &str,
        pred: &Predicate,
        column: &str,
        value: Value,
    ) -> Result<usize, TypeError> {
        let t = self.db.table(table)?;
        let mut t = t.write();
        let col = column_of(&t, column)?;
        t.update(pred, col, value)
    }

    /// Deletes matching rows; returns the count.
    pub fn delete(&self, table: &str, pred: &Predicate) -> Result<usize, TypeError> {
        Ok(self.db.table(table)?.write().delete(pred))
    }

    /// Builds a secondary index on `column`.
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), TypeError> {
        let t = self.db.table(table)?;
        let mut t = t.write();
        let col = column_of(&t, column)?;
        t.create_index(col);
        Ok(())
    }

    /// `(min, max)` of `column` over its non-NULL values. `None` when
    /// the table is empty.
    pub fn min_max(&self, table: &str, column: &str) -> Result<Option<(Value, Value)>, TypeError> {
        let t = self.db.table(table)?;
        let t = t.read();
        let col = column_of(&t, column)?;
        Ok(t.min(col).zip(t.max(col)))
    }

    /// Lends `table`'s live rows, in heap (insertion) order, and
    /// `column`'s position to `read`, under the table's read lock —
    /// nothing is copied. Readers share the lock; writers to the table
    /// wait until `read` returns. The on-off join reads its off-chain
    /// side this way, once (§V-C), and takes the chain's locks inside
    /// `read`: the lock order is off-chain table, then store.
    pub fn read_rows<R>(
        &self,
        table: &str,
        column: &str,
        read: impl FnOnce(usize, Vec<&[Value]>) -> R,
    ) -> Result<R, TypeError> {
        let t = self.db.table(table)?;
        let t = t.read();
        let col = column_of(&t, column)?;
        Ok(read(col, t.rows().collect()))
    }

    /// Column metadata for `table`.
    pub fn columns(&self, table: &str) -> Result<Vec<Column>, TypeError> {
        Ok(self.db.table(table)?.read().columns.clone())
    }

    /// Row count.
    pub fn count(&self, table: &str) -> Result<usize, TypeError> {
        Ok(self.db.table(table)?.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use sebdb_types::DataType;

    fn db() -> Arc<OffchainDb> {
        let db = Arc::new(OffchainDb::new());
        db.create_table(
            "doneeinfo",
            vec![
                Column::new("donee", DataType::Str),
                Column::new("income", DataType::Decimal),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = db();
        let conn = db.connect();
        conn.insert("doneeinfo", vec![Value::str("tom"), Value::decimal(120)])
            .unwrap();
        conn.insert("doneeinfo", vec![Value::str("ann"), Value::decimal(80)])
            .unwrap();
        let rows = conn
            .select(
                "doneeinfo",
                &Predicate::Compare {
                    column: 1,
                    op: CmpOp::Lt,
                    value: Value::decimal(100),
                },
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("ann"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db();
        assert!(matches!(
            db.create_table("DoneeInfo", vec![]),
            Err(TypeError::DuplicateTable { .. })
        ));
    }

    #[test]
    fn missing_table_and_column_errors() {
        let db = db();
        let conn = db.connect();
        assert!(matches!(
            conn.select("nope", &Predicate::True),
            Err(TypeError::NoSuchTable { .. })
        ));
        assert!(matches!(
            conn.min_max("doneeinfo", "salary"),
            Err(TypeError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn min_max_and_rows_in_place() {
        let db = db();
        let conn = db.connect();
        for (n, v) in [("a", 5), ("b", 1), ("c", 9)] {
            conn.insert("doneeinfo", vec![Value::str(n), Value::decimal(v)])
                .unwrap();
        }
        assert_eq!(
            conn.min_max("doneeinfo", "income").unwrap(),
            Some((Value::decimal(1), Value::decimal(9)))
        );
        // Live rows in heap order, a deleted one skipped, an index or
        // not.
        let b = Predicate::Compare {
            column: 0,
            op: CmpOp::Eq,
            value: Value::str("b"),
        };
        assert_eq!(conn.delete("doneeinfo", &b).unwrap(), 1);
        let want = [
            vec![Value::str("a"), Value::decimal(5)],
            vec![Value::str("c"), Value::decimal(9)],
        ];
        for indexed in [false, true] {
            if indexed {
                conn.create_index("doneeinfo", "income").unwrap();
            }
            let (col, rows) = conn
                .read_rows("doneeinfo", "INCOME", |col, rows| {
                    (col, rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
                })
                .unwrap();
            assert_eq!((col, rows.as_slice()), (1, &want[..]));
        }
        assert!(matches!(
            conn.read_rows("doneeinfo", "salary", |_, _| ()),
            Err(TypeError::NoSuchColumn { .. })
        ));
        assert_eq!(conn.count("doneeinfo").unwrap(), 2);
    }

    #[test]
    fn empty_table_min_max_none() {
        let db = db();
        assert_eq!(db.connect().min_max("doneeinfo", "income").unwrap(), None);
    }

    #[test]
    fn connection_is_cloneable_and_shares_state() {
        let db = db();
        let c1 = db.connect();
        let c2 = c1.clone();
        c1.insert("doneeinfo", vec![Value::str("x"), Value::decimal(1)])
            .unwrap();
        assert_eq!(c2.count("doneeinfo").unwrap(), 1);
    }
}
