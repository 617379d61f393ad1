//! The catalog: named standard tables (plus registered view definitions).
//!
//! Tables are shared as plain `Arc<StandardTable>`: physical safety comes
//! from the table's own sharded row latches and per-index latches; *logical*
//! isolation is provided by the strict-2PL lock manager in `strip-txn`.

use crate::error::{Result, StorageError};
use crate::schema::SchemaRef;
use crate::table::{LatchObserver, StandardTable};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `name` in the lower-case form catalogs key names by: borrowed when it
/// already is, so lookups by canonical names allocate nothing.
pub fn fold_name(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Shared handle to a standard table.
pub type TableRef = Arc<StandardTable>;

/// A stored view definition. The catalog treats the definition text as
/// opaque; the SQL layer parses it. Materialized views are backed by a
/// standard table of the same name maintained by rules (the paper's usage).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name (lower-cased).
    pub name: String,
    /// The defining `SELECT ...` text.
    pub query_text: String,
    /// Whether a backing table was materialized at creation.
    pub materialized: bool,
}

/// The database catalog.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, TableRef>>,
    views: RwLock<HashMap<String, ViewDef>>,
    /// Schema epoch: bumped by every DDL change (table/view/index create or
    /// drop). Prepared physical plans are valid only for the epoch they were
    /// built under; a mismatch forces replanning.
    epoch: AtomicU64,
    /// Latch-contention observer installed on every table — existing ones at
    /// [`Catalog::set_latch_observer`] time and future ones at creation.
    latch_obs: RwLock<Option<LatchObserver>>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.tables)
            .field("views", &self.views)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Catalog {
    /// New empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current schema epoch. Monotonically increasing; any DDL invalidates
    /// plans prepared under earlier epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Record a DDL change (also called by layers that mutate table-level
    /// metadata the catalog cannot see, e.g. `CREATE INDEX`). Returns the
    /// new epoch.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Combined statistics epoch: the wrapping sum of every table's
    /// [`StandardTable::stats_epoch`]. Changes whenever any table's
    /// cardinality crosses a power-of-two size class, which is the signal
    /// the plan cache uses (together with the schema epoch) to invalidate
    /// physical plans whose cost-based choices may have flipped. Only
    /// equality of epochs is ever compared, so a wrapping sum is safe.
    pub fn stats_epoch(&self) -> u64 {
        self.tables
            .read()
            .values()
            .fold(0u64, |acc, t| acc.wrapping_add(t.stats_epoch()))
    }

    /// Install (or clear) a shard-latch contention observer on every table:
    /// the ones that already exist and any created afterwards.
    pub fn set_latch_observer(&self, obs: Option<LatchObserver>) {
        *self.latch_obs.write() = obs.clone();
        for table in self.tables.read().values() {
            table.set_latch_observer(obs.clone());
        }
    }

    /// Create a table. Fails if a table or view of that name exists.
    pub fn create_table(&self, name: &str, schema: SchemaRef) -> Result<TableRef> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) || self.views.read().contains_key(&key) {
            return Err(StorageError::TableExists(key));
        }
        let table = Arc::new(StandardTable::new(key.clone(), schema));
        table.set_latch_observer(self.latch_obs.read().clone());
        tables.insert(key, table.clone());
        self.bump_epoch();
        Ok(table)
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.tables
            .write()
            .remove(&key)
            .map(|_| ())
            .ok_or(StorageError::NoSuchTable(key))?;
        self.bump_epoch();
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        let key = fold_name(name);
        self.tables
            .read()
            .get(&*key)
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(key.into_owned()))
    }

    /// True if the named table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&*fold_name(name))
    }

    /// Byte footprint of every table, sorted by name. One consistent-ish
    /// pass for memory probes: each table's meters are read in turn (exact
    /// per table at mutation-quiescent points).
    pub fn mem_tables(&self) -> Vec<(String, crate::mem::TableMem)> {
        let mut v: Vec<(String, crate::mem::TableMem)> = self
            .tables
            .read()
            .iter()
            .map(|(name, t)| (name.clone(), t.mem()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Register a view definition.
    pub fn create_view(&self, def: ViewDef) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        let mut views = self.views.write();
        if views.contains_key(&key) || (!def.materialized && self.tables.read().contains_key(&key))
        {
            return Err(StorageError::TableExists(key));
        }
        views.insert(key.clone(), ViewDef { name: key, ..def });
        self.bump_epoch();
        Ok(())
    }

    /// Look up a view definition.
    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.views.read().get(&*fold_name(name)).cloned()
    }

    /// All view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.views.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[("x", DataType::Int)]).into_ref()
    }

    #[test]
    fn create_lookup_drop() {
        let c = Catalog::new();
        c.create_table("T1", schema()).unwrap();
        assert!(c.has_table("t1"));
        assert!(c.has_table("T1"));
        let t = c.table("t1").unwrap();
        assert_eq!(t.name(), "t1");
        c.drop_table("T1").unwrap();
        assert!(!c.has_table("t1"));
        assert!(matches!(c.table("t1"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_name_rejected() {
        let c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert!(matches!(
            c.create_table("T", schema()),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn views_registered_and_conflict_with_tables() {
        let c = Catalog::new();
        c.create_view(ViewDef {
            name: "v1".into(),
            query_text: "select x from t".into(),
            materialized: false,
        })
        .unwrap();
        assert!(c.view("V1").is_some());
        // A plain view name blocks table creation...
        assert!(c.create_table("v1", schema()).is_err());
        // ...but a materialized view coexists with its backing table.
        c.create_table("mv", schema()).unwrap();
        c.create_view(ViewDef {
            name: "mv".into(),
            query_text: "select x from t".into(),
            materialized: true,
        })
        .unwrap();
        assert_eq!(c.view_names(), vec!["mv".to_string(), "v1".to_string()]);
    }

    #[test]
    fn ddl_bumps_schema_epoch() {
        let c = Catalog::new();
        let e0 = c.epoch();
        c.create_table("t", schema()).unwrap();
        let e1 = c.epoch();
        assert!(e1 > e0);
        c.drop_table("t").unwrap();
        let e2 = c.epoch();
        assert!(e2 > e1);
        c.create_view(ViewDef {
            name: "v".into(),
            query_text: String::new(),
            materialized: false,
        })
        .unwrap();
        assert!(c.epoch() > e2);
        // Failed DDL does not bump.
        let e3 = c.epoch();
        assert!(c.drop_table("missing").is_err());
        assert_eq!(c.epoch(), e3);
        // Manual bump (used for CREATE INDEX, which mutates table metadata).
        assert_eq!(c.bump_epoch(), e3 + 1);
    }

    #[test]
    fn catalog_stats_epoch_follows_table_growth() {
        let c = Catalog::new();
        let t = c.create_table("t", schema()).unwrap();
        let u = c.create_table("u", schema()).unwrap();
        let e0 = c.stats_epoch();
        t.insert(vec![1i64.into()]).unwrap(); // 0 -> 1 crosses a class
        let e1 = c.stats_epoch();
        assert_ne!(e1, e0);
        u.insert(vec![1i64.into()]).unwrap(); // other table crosses too
        assert_ne!(c.stats_epoch(), e1);
    }

    #[test]
    fn table_names_sorted() {
        let c = Catalog::new();
        c.create_table("zeta", schema()).unwrap();
        c.create_table("alpha", schema()).unwrap();
        assert_eq!(
            c.table_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
    }
}
