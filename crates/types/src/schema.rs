//! Table schemas: relational semantics for transaction types.
//!
//! Each transaction type is a table (§III-A). A schema has
//! *application-level* columns declared by the user in `CREATE`, plus
//! *system-level* columns added automatically: `tid`, `ts`, `sig`,
//! `sen_id`, `tname` (§IV-A). Queries may reference either kind;
//! tracking queries (Algorithm 1) filter on the system columns `sen_id`
//! and `tname`.

use crate::codec::{Codec, Decoder, Encoder};
use crate::error::TypeError;
use crate::value::{DataType, Value};

/// Names of the system-level columns, in their fixed order.
pub const SYSTEM_COLUMNS: [&str; 5] = ["tid", "ts", "sig", "sen_id", "tname"];

/// A column reference resolved against a schema: either a system column
/// or the `i`-th application column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnRef {
    /// Transaction id (system).
    Tid,
    /// Transaction timestamp (system).
    Ts,
    /// Signature (system).
    Sig,
    /// Sender identity (system).
    SenId,
    /// Transaction type name (system).
    Tname,
    /// Application-level column by position.
    App(usize),
}

impl ColumnRef {
    /// The data type of this column under `schema`.
    pub fn data_type(&self, schema: &TableSchema) -> DataType {
        match self {
            ColumnRef::Tid => DataType::Int,
            ColumnRef::Ts => DataType::Timestamp,
            ColumnRef::Sig => DataType::Bytes,
            ColumnRef::SenId => DataType::Bytes,
            ColumnRef::Tname => DataType::Str,
            ColumnRef::App(i) => schema.columns[*i].dtype,
        }
    }
}

/// One application-level column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-insensitive for lookup, stored as declared).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// The schema of one transaction type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table (= transaction type) name.
    pub name: String,
    /// Application-level columns, in declared order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Creates a schema.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Resolves a column name (system or application) to a [`ColumnRef`].
    pub fn resolve(&self, name: &str) -> Result<ColumnRef, TypeError> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "tid" => return Ok(ColumnRef::Tid),
            "ts" | "timestamp" => return Ok(ColumnRef::Ts),
            "sig" | "signature" => return Ok(ColumnRef::Sig),
            "sen_id" | "senid" | "sender" | "operator" => return Ok(ColumnRef::SenId),
            "tname" | "operation" => return Ok(ColumnRef::Tname),
            _ => {}
        }
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .map(ColumnRef::App)
            .ok_or_else(|| TypeError::NoSuchColumn {
                column: name.to_owned(),
            })
    }

    /// Validates a row of application values against this schema and
    /// coerces literals to the declared column types.
    pub fn check_row(&self, values: Vec<Value>) -> Result<Vec<Value>, TypeError> {
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
        values
            .into_iter()
            .zip(&self.columns)
            .map(|(v, c)| v.coerce(c.dtype))
            .collect()
    }

    /// Renders the schema as a `CREATE` statement.
    pub fn to_sql(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{} {}", c.name, c.dtype.keyword()))
            .collect();
        format!("CREATE {} ({})", self.name, cols.join(", "))
    }

    /// All column names a `SELECT *` projects: system columns then
    /// application columns.
    pub fn full_column_names(&self) -> Vec<String> {
        SYSTEM_COLUMNS
            .iter()
            .map(|s| (*s).to_owned())
            .chain(self.columns.iter().map(|c| c.name.clone()))
            .collect()
    }
}

impl Codec for TableSchema {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            enc.put_str(&c.name);
            enc.put_u8(match c.dtype {
                DataType::Int => 0,
                DataType::Decimal => 1,
                DataType::Str => 2,
                DataType::Bool => 3,
                DataType::Timestamp => 4,
                DataType::Bytes => 5,
            });
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let name = dec.get_str("schema name")?.to_owned();
        let n = dec.get_u32("column count")? as usize;
        let mut columns = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let cname = dec.get_str("column name")?.to_owned();
            let dtype = match dec.get_u8("column type")? {
                0 => DataType::Int,
                1 => DataType::Decimal,
                2 => DataType::Str,
                3 => DataType::Bool,
                4 => DataType::Timestamp,
                5 => DataType::Bytes,
                tag => {
                    return Err(TypeError::BadTag {
                        context: "column type",
                        tag,
                    })
                }
            };
            columns.push(Column { name: cname, dtype });
        }
        Ok(TableSchema { name, columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn donate() -> TableSchema {
        TableSchema::new(
            "donate",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("project", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        )
    }

    #[test]
    fn resolve_system_and_app_columns() {
        let s = donate();
        assert_eq!(s.resolve("tid").unwrap(), ColumnRef::Tid);
        assert_eq!(s.resolve("SENDER").unwrap(), ColumnRef::SenId);
        assert_eq!(s.resolve("operation").unwrap(), ColumnRef::Tname);
        assert_eq!(s.resolve("amount").unwrap(), ColumnRef::App(2));
        assert_eq!(s.resolve("Donor").unwrap(), ColumnRef::App(0));
        assert!(s.resolve("missing").is_err());
    }

    #[test]
    fn column_ref_types() {
        let s = donate();
        assert_eq!(ColumnRef::Ts.data_type(&s), DataType::Timestamp);
        assert_eq!(ColumnRef::App(2).data_type(&s), DataType::Decimal);
    }

    #[test]
    fn check_row_validates_and_coerces() {
        let s = donate();
        let row = s
            .check_row(vec![
                Value::str("Jack"),
                Value::str("Education"),
                Value::Int(100),
            ])
            .unwrap();
        assert_eq!(row[2], Value::decimal(100));

        assert!(s.check_row(vec![Value::str("Jack")]).is_err());
        assert!(s
            .check_row(vec![Value::Int(1), Value::str("p"), Value::Int(1)])
            .is_err());
    }

    #[test]
    fn schema_codec_roundtrip() {
        let s = donate();
        let decoded = TableSchema::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn to_sql_rendering() {
        assert_eq!(
            donate().to_sql(),
            "CREATE donate (donor string, project string, amount decimal)"
        );
    }

    #[test]
    fn full_column_names_order() {
        let names = donate().full_column_names();
        assert_eq!(
            names,
            vec!["tid", "ts", "sig", "sen_id", "tname", "donor", "project", "amount"]
        );
    }
}
