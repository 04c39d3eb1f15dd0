//! Off-chain tables: heap rows plus optional per-column B-tree indexes.

use crate::predicate::Predicate;
use sebdb_types::{Column, TypeError, Value};
use std::collections::BTreeMap;

/// One off-chain table.
#[derive(Debug)]
pub struct OffTable {
    /// Table name.
    pub name: String,
    /// Columns, in declared order.
    pub columns: Vec<Column>,
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    /// Secondary indexes: column position → value → row ids.
    indexes: BTreeMap<usize, BTreeMap<Value, Vec<usize>>>,
}

impl OffTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        OffTable {
            name: name.into(),
            columns,
            rows: Vec::new(),
            live: 0,
            indexes: BTreeMap::new(),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Builds a secondary index on column `col` (idempotent).
    pub fn create_index(&mut self, col: usize) {
        if self.indexes.contains_key(&col) {
            return;
        }
        let mut idx: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for (rid, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                idx.entry(row[col].clone()).or_default().push(rid);
            }
        }
        self.indexes.insert(col, idx);
    }

    /// Inserts a row after schema validation and coercion.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<usize, TypeError> {
        if values.len() != self.columns.len() {
            return Err(TypeError::SchemaMismatch {
                detail: format!(
                    "table {} expects {} values, got {}",
                    self.name,
                    self.columns.len(),
                    values.len()
                ),
            });
        }
        let row: Vec<Value> = values
            .into_iter()
            .zip(&self.columns)
            .map(|(v, c)| v.coerce(c.dtype))
            .collect::<Result<_, _>>()?;
        let rid = self.rows.len();
        for (col, idx) in self.indexes.iter_mut() {
            idx.entry(row[*col].clone()).or_default().push(rid);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(rid)
    }

    /// Rows matching `pred`, using an index when the predicate is a
    /// single-column range on an indexed column and a heap scan
    /// otherwise; the scan returns rows in heap (insertion) order.
    pub fn select(&self, pred: &Predicate) -> Vec<Vec<Value>> {
        if let Some((col, lo, hi)) = pred.index_range() {
            if let Some(idx) = self.indexes.get(&col) {
                return idx
                    .range(lo..=hi)
                    .flat_map(|(_, rids)| rids.iter())
                    .filter_map(|&rid| self.rows[rid].clone())
                    .collect();
            }
        }
        self.rows
            .iter()
            .flatten()
            .filter(|r| pred.eval(r))
            .cloned()
            .collect()
    }

    /// Updates rows matching `pred`, assigning `new` to column `col`;
    /// returns the number of rows changed.
    pub fn update(&mut self, pred: &Predicate, col: usize, new: Value) -> Result<usize, TypeError> {
        let new = new.coerce(self.columns[col].dtype)?;
        let mut changed = 0;
        for rid in 0..self.rows.len() {
            let Some(row) = &self.rows[rid] else { continue };
            if !pred.eval(row) {
                continue;
            }
            let old = row[col].clone();
            if let Some(idx) = self.indexes.get_mut(&col) {
                if let Some(rids) = idx.get_mut(&old) {
                    rids.retain(|&r| r != rid);
                }
                idx.entry(new.clone()).or_default().push(rid);
            }
            self.rows[rid].as_mut().unwrap()[col] = new.clone();
            changed += 1;
        }
        Ok(changed)
    }

    /// Deletes rows matching `pred`; returns the number removed.
    pub fn delete(&mut self, pred: &Predicate) -> usize {
        let mut removed = 0;
        for rid in 0..self.rows.len() {
            let Some(row) = &self.rows[rid] else { continue };
            if !pred.eval(row) {
                continue;
            }
            for (col, idx) in self.indexes.iter_mut() {
                if let Some(rids) = idx.get_mut(&row[*col]) {
                    rids.retain(|&r| r != rid);
                }
            }
            self.rows[rid] = None;
            self.live -= 1;
            removed += 1;
        }
        removed
    }

    /// Live rows in heap (insertion) order, borrowed.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().flatten().map(Vec::as_slice)
    }

    /// Minimum value of column `col` over live rows (ignores NULL).
    pub fn min(&self, col: usize) -> Option<Value> {
        self.live_values(col).min().cloned()
    }

    /// Maximum value of column `col` over live rows (ignores NULL).
    pub fn max(&self, col: usize) -> Option<Value> {
        self.live_values(col).max().cloned()
    }

    /// Column `col`'s non-NULL values over live rows.
    fn live_values(&self, col: usize) -> impl Iterator<Item = &Value> {
        self.rows()
            .map(move |r| &r[col])
            .filter(|v| **v != Value::Null)
    }

    /// Distinct values of column `col` in ascending order (the index's
    /// keys when `col` is indexed).
    pub fn distinct(&self, col: usize) -> Vec<Value> {
        if let Some(idx) = self.indexes.get(&col) {
            return idx
                .iter()
                .filter(|(_, rids)| !rids.is_empty())
                .map(|(v, _)| v.clone())
                .collect();
        }
        let mut vs: Vec<Value> = self.live_values(col).cloned().collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// All live rows sorted ascending by column `col` (in the index's
    /// order when `col` is indexed).
    pub fn sorted_by(&self, col: usize) -> Vec<Vec<Value>> {
        if let Some(idx) = self.indexes.get(&col) {
            return idx
                .values()
                .flat_map(|rids| rids.iter())
                .filter_map(|&rid| self.rows[rid].clone())
                .collect();
        }
        let mut rows: Vec<Vec<Value>> = self.rows.iter().flatten().cloned().collect();
        rows.sort_by(|a, b| a[col].cmp(&b[col]));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use sebdb_types::DataType;

    fn donor_info() -> OffTable {
        let mut t = OffTable::new(
            "donorinfo",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("age", DataType::Int),
                Column::new("balance", DataType::Decimal),
            ],
        );
        for (name, age, bal) in [
            ("alice", 30, 500),
            ("bob", 25, 100),
            ("carol", 35, 900),
            ("dave", 25, 300),
        ] {
            t.insert(vec![Value::str(name), Value::Int(age), Value::decimal(bal)])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = donor_info();
        assert!(t.insert(vec![Value::str("x")]).is_err());
        assert!(t
            .insert(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .is_err());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn select_scan_and_index_agree() {
        let mut t = donor_info();
        let pred = Predicate::Compare {
            column: 1,
            op: CmpOp::Eq,
            value: Value::Int(25),
        };
        let scanned = t.select(&pred);
        t.create_index(1);
        let indexed = t.select(&pred);
        assert_eq!(scanned.len(), 2);
        let mut a = scanned.clone();
        let mut b = indexed.clone();
        a.sort_by(|x, y| x[0].cmp(&y[0]));
        b.sort_by(|x, y| x[0].cmp(&y[0]));
        assert_eq!(a, b);
    }

    #[test]
    fn min_max_distinct() {
        let t = donor_info();
        assert_eq!(t.min(1), Some(Value::Int(25)));
        assert_eq!(t.max(1), Some(Value::Int(35)));
        assert_eq!(
            t.distinct(1),
            vec![Value::Int(25), Value::Int(30), Value::Int(35)]
        );
    }

    #[test]
    fn sorted_by_returns_sorted_rows() {
        let mut t = donor_info();
        let rows = t.sorted_by(2);
        let bals: Vec<&Value> = rows.iter().map(|r| &r[2]).collect();
        assert!(bals.windows(2).all(|w| w[0] <= w[1]));
        // With an index the same order comes from the index.
        t.create_index(2);
        assert_eq!(t.sorted_by(2), rows);
    }

    #[test]
    fn update_maintains_index() {
        let mut t = donor_info();
        t.create_index(1);
        let pred = Predicate::Compare {
            column: 0,
            op: CmpOp::Eq,
            value: Value::str("bob"),
        };
        let n = t.update(&pred, 1, Value::Int(26)).unwrap();
        assert_eq!(n, 1);
        let by_age = Predicate::Compare {
            column: 1,
            op: CmpOp::Eq,
            value: Value::Int(26),
        };
        assert_eq!(t.select(&by_age).len(), 1);
        let old_age = Predicate::Compare {
            column: 1,
            op: CmpOp::Eq,
            value: Value::Int(25),
        };
        assert_eq!(t.select(&old_age).len(), 1); // dave only
    }

    #[test]
    fn delete_maintains_index_and_count() {
        let mut t = donor_info();
        t.create_index(1);
        let pred = Predicate::Compare {
            column: 1,
            op: CmpOp::Eq,
            value: Value::Int(25),
        };
        assert_eq!(t.delete(&pred), 2);
        assert_eq!(t.len(), 2);
        assert!(t.select(&pred).is_empty());
        assert_eq!(t.distinct(1), vec![Value::Int(30), Value::Int(35)]);
    }

    #[test]
    fn parallel_scan_matches_sequential_order_and_content() {
        // Big enough to split into several worker chunks.
        let mut t = OffTable::new(
            "big",
            vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ],
        );
        for i in 0..5000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        let pred = Predicate::Compare {
            column: 1,
            op: CmpOp::Eq,
            value: Value::Int(3),
        };
        let rows = t.select(&pred);
        let expected: Vec<i64> = (0..5000).filter(|i| i % 7 == 3).collect();
        assert_eq!(
            rows.iter()
                .map(|r| match r[0] {
                    Value::Int(k) => k,
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>(),
            expected,
            "parallel scan must keep heap order"
        );
        assert_eq!(t.min(0), Some(Value::Int(0)));
        assert_eq!(t.max(0), Some(Value::Int(4999)));
    }

    #[test]
    fn between_select() {
        let t = donor_info();
        let pred = Predicate::Between {
            column: 2,
            lo: Value::decimal(200),
            hi: Value::decimal(600),
        };
        let rows = t.select(&pred);
        assert_eq!(rows.len(), 2); // alice 500, dave 300
    }
}
