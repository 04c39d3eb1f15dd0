//! Schema management.
//!
//! §IV-A: "Each transaction type is associated to a user-defined
//! schema. Generally, the schema can be stored and maintained as a
//! regular table. The system sends a special transaction to
//! synchronize schema among nodes." `CREATE` therefore becomes a
//! transaction of the reserved type [`SCHEMA_TABLE`] whose payload is
//! the encoded schema; every node applies it when the block carrying
//! it commits, so all nodes converge on the same catalog.

use parking_lot::RwLock;
use sebdb_offchain::OffchainConnection;
use sebdb_sql::Catalog;
pub use sebdb_types::SCHEMA_TABLE;
use sebdb_types::{Block, Codec, Column, TableSchema, Transaction, TypeError, Value};
use std::collections::HashMap;

/// The schema catalog of one node.
pub struct SchemaManager {
    tables: RwLock<HashMap<String, TableSchema>>,
    /// Off-chain connection for resolving `offchain.*` tables.
    offchain: Option<OffchainConnection>,
}

impl SchemaManager {
    /// Empty catalog.
    pub fn new(offchain: Option<OffchainConnection>) -> Self {
        SchemaManager {
            tables: RwLock::new(HashMap::new()),
            offchain,
        }
    }

    /// Wraps a `CREATE` into the schema-sync transaction that goes
    /// through consensus.
    pub fn schema_transaction(
        schema: &TableSchema,
        ts: u64,
        sender: sebdb_crypto::sig::KeyId,
    ) -> Transaction {
        Transaction::new(
            ts,
            sender,
            SCHEMA_TABLE,
            vec![Value::Bytes(schema.to_bytes())],
        )
    }

    /// Applies schema-sync transactions from a committed block.
    /// Returns the names of tables created.
    pub fn apply_block(&self, block: &Block) -> Vec<String> {
        let mut created = Vec::new();
        for tx in &block.transactions {
            if !tx.is_schema_sync() {
                continue;
            }
            let Some(Value::Bytes(bytes)) = tx.values.first() else {
                continue;
            };
            let Ok(schema) = TableSchema::from_bytes(bytes) else {
                continue; // malformed schema payloads are ignored
            };
            let key = schema.name.to_ascii_lowercase();
            let mut tables = self.tables.write();
            // First writer wins: a duplicate CREATE later in the chain
            // must not clobber the established schema.
            if let std::collections::hash_map::Entry::Vacant(e) = tables.entry(key) {
                e.insert(schema.clone());
                created.push(schema.name);
            }
        }
        created
    }

    /// Registers a schema directly (bootstrap / tests).
    pub fn register(&self, schema: TableSchema) -> Result<(), TypeError> {
        let key = schema.name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(TypeError::DuplicateTable { table: schema.name });
        }
        tables.insert(key, schema);
        Ok(())
    }

    /// Schema of `table`, if declared.
    pub fn get(&self, table: &str) -> Option<TableSchema> {
        self.tables.read().get(&table.to_ascii_lowercase()).cloned()
    }

    /// All declared table names (lower-case, sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Validates an application row against `table`'s schema.
    pub fn check_row(&self, table: &str, row: Vec<Value>) -> Result<Vec<Value>, TypeError> {
        match self.get(table) {
            Some(schema) => schema.check_row(row),
            None => Err(TypeError::NoSuchTable {
                table: table.to_owned(),
            }),
        }
    }
}

impl Catalog for SchemaManager {
    fn onchain_schema(&self, name: &str) -> Option<TableSchema> {
        self.get(name)
    }

    fn offchain_columns(&self, name: &str) -> Option<Vec<Column>> {
        self.offchain.as_ref()?.columns(name).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebdb_crypto::sha256::Digest;
    use sebdb_crypto::sig::KeyId;
    use sebdb_types::DataType;

    fn donate() -> TableSchema {
        TableSchema::new(
            "donate",
            vec![
                Column::new("donor", DataType::Str),
                Column::new("amount", DataType::Decimal),
            ],
        )
    }

    #[test]
    fn schema_sync_roundtrip_via_block() {
        let mgr = SchemaManager::new(None);
        let tx = SchemaManager::schema_transaction(&donate(), 1, KeyId([1; 8]));
        let block = Block::seal(Digest::ZERO, 0, 1, vec![tx], |_| vec![]);
        let created = mgr.apply_block(&block);
        assert_eq!(created, vec!["donate".to_string()]);
        assert_eq!(mgr.get("DONATE").unwrap().columns.len(), 2);
    }

    #[test]
    fn first_create_wins() {
        let mgr = SchemaManager::new(None);
        let first = donate();
        let mut second = donate();
        second.columns.push(Column::new("extra", DataType::Int));
        let txs = vec![
            SchemaManager::schema_transaction(&first, 1, KeyId([1; 8])),
            SchemaManager::schema_transaction(&second, 2, KeyId([2; 8])),
        ];
        let block = Block::seal(Digest::ZERO, 0, 1, txs, |_| vec![]);
        mgr.apply_block(&block);
        assert_eq!(mgr.get("donate").unwrap().columns.len(), 2);
    }

    #[test]
    fn malformed_schema_payload_ignored() {
        let mgr = SchemaManager::new(None);
        let tx = Transaction::new(
            1,
            KeyId([1; 8]),
            SCHEMA_TABLE,
            vec![Value::Bytes(vec![9, 9])],
        );
        let block = Block::seal(Digest::ZERO, 0, 1, vec![tx], |_| vec![]);
        assert!(mgr.apply_block(&block).is_empty());
    }

    #[test]
    fn register_and_duplicate() {
        let mgr = SchemaManager::new(None);
        mgr.register(donate()).unwrap();
        assert!(mgr.register(donate()).is_err());
        assert_eq!(mgr.table_names(), vec!["donate".to_string()]);
    }

    #[test]
    fn check_row_routes_to_schema() {
        let mgr = SchemaManager::new(None);
        mgr.register(donate()).unwrap();
        let row = mgr
            .check_row("donate", vec![Value::str("Jack"), Value::Int(5)])
            .unwrap();
        assert_eq!(row[1], Value::decimal(5));
        assert!(mgr.check_row("nope", vec![]).is_err());
    }
}
