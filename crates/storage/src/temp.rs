//! Temporary tables: intermediate results, transition tables, bound tables.
//!
//! Paper §6.1 (after \[Rou82\]): instead of copying attribute values, a
//! temporary tuple stores **one pointer per standard tuple that contributes
//! at least one attribute**, plus materialized slots for aggregate, computed,
//! or timestamp attributes whose values "don't exist anywhere else and hence
//! cannot be pointed to". A per-table **static map** records, for each
//! visible column, which pointer to follow and the attribute offset within
//! the referenced record — or which materialized slot to read.
//!
//! Because each pointer is an `Arc<RecordData>`, holding a temporary tuple
//! pins the exact record *versions* that existed when the tuple was built:
//! this is what makes bound tables read the condition-time snapshot even
//! though the action transaction runs later without locks held (§6.1).

use crate::error::{Result, StorageError};
use crate::schema::SchemaRef;
use crate::table::RecordRef;
use crate::value::Value;
use std::sync::Arc;

/// Where one visible column of a temporary table gets its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSource {
    /// Follow `ptr`-th record pointer, read the attribute at `offset`.
    Pointer { ptr: usize, offset: usize },
    /// Read the `slot`-th materialized value stored in the tuple itself.
    Slot(usize),
}

/// The static map: one [`ColumnSource`] per visible column, plus the tuple
/// layout arities. Built once per temporary table (§6.1: "a static mapping
/// is built when the temporary table is created").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticMap {
    sources: Vec<ColumnSource>,
    n_ptrs: usize,
    n_slots: usize,
}

impl StaticMap {
    /// Build and validate a static map. `n_ptrs`/`n_slots` are inferred from
    /// the largest indexes used; every pointer and slot must be referenced
    /// contiguously from zero.
    pub fn new(sources: Vec<ColumnSource>) -> Result<StaticMap> {
        let mut ptr_seen = Vec::new();
        let mut slot_seen = Vec::new();
        for s in &sources {
            match *s {
                ColumnSource::Pointer { ptr, .. } => {
                    if ptr_seen.len() <= ptr {
                        ptr_seen.resize(ptr + 1, false);
                    }
                    ptr_seen[ptr] = true;
                }
                ColumnSource::Slot(slot) => {
                    if slot_seen.len() <= slot {
                        slot_seen.resize(slot + 1, false);
                    }
                    slot_seen[slot] = true;
                }
            }
        }
        if ptr_seen.iter().any(|b| !b) {
            return Err(StorageError::Invariant(
                "static map references pointers non-contiguously".into(),
            ));
        }
        if slot_seen.iter().any(|b| !b) {
            return Err(StorageError::Invariant(
                "static map references slots non-contiguously".into(),
            ));
        }
        Ok(StaticMap {
            n_ptrs: ptr_seen.len(),
            n_slots: slot_seen.len(),
            sources,
        })
    }

    /// A map where every column is a materialized slot (fully-copied rows).
    /// Used for computed query outputs (projections with expressions) and as
    /// the ablation baseline for the pointer scheme.
    pub fn all_slots(arity: usize) -> StaticMap {
        StaticMap {
            sources: (0..arity).map(ColumnSource::Slot).collect(),
            n_ptrs: 0,
            n_slots: arity,
        }
    }

    /// Sources per visible column.
    pub fn sources(&self) -> &[ColumnSource] {
        &self.sources
    }

    /// Number of record pointers each tuple carries.
    pub fn n_ptrs(&self) -> usize {
        self.n_ptrs
    }

    /// Number of materialized slots each tuple carries.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }
}

/// One temporary tuple: record pointers + materialized slots.
#[derive(Debug, Clone)]
pub struct TempTuple {
    ptrs: Box<[RecordRef]>,
    slots: Box<[Value]>,
}

impl TempTuple {
    /// The pinned record versions.
    pub fn ptrs(&self) -> &[RecordRef] {
        &self.ptrs
    }

    /// The materialized values.
    pub fn slots(&self) -> &[Value] {
        &self.slots
    }
}

/// A temporary table.
///
/// ```
/// use strip_storage::{DataType, Schema, TempTable};
///
/// let schema = Schema::of(&[("comp", DataType::Str), ("diff", DataType::Float)]);
/// let mut t = TempTable::materialized("matches", schema.into_ref());
/// t.push_row(vec!["C1".into(), 0.5.into()]).unwrap();
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.value(0, 0).as_str(), Some("C1"));
/// ```
#[derive(Debug, Clone)]
pub struct TempTable {
    name: String,
    schema: SchemaRef,
    map: Arc<StaticMap>,
    tuples: Vec<TempTuple>,
    /// Incrementally-maintained byte footprint of `tuples` under the model
    /// of [`crate::mem`]: per tuple, a fixed header plus one pointer word
    /// per pin plus the materialized slot values. Pinned record versions
    /// themselves are accounted at their owning table.
    tuple_bytes: u64,
}

impl TempTable {
    /// Create an empty temporary table with the given visible schema and
    /// static map. The map must have one source per schema column.
    pub fn new(name: impl Into<String>, schema: SchemaRef, map: StaticMap) -> Result<TempTable> {
        if map.sources.len() != schema.arity() {
            return Err(StorageError::Invariant(format!(
                "static map has {} sources but schema has {} columns",
                map.sources.len(),
                schema.arity()
            )));
        }
        Ok(TempTable {
            name: name.into(),
            schema,
            map: Arc::new(map),
            tuples: Vec::new(),
            tuple_bytes: 0,
        })
    }

    /// Create a fully-materialized temporary table (every column a slot).
    pub fn materialized(name: impl Into<String>, schema: SchemaRef) -> TempTable {
        let arity = schema.arity();
        TempTable {
            name: name.into(),
            schema,
            map: Arc::new(StaticMap::all_slots(arity)),
            tuples: Vec::new(),
            tuple_bytes: 0,
        }
    }

    /// Table name (e.g. the `bind as` name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename (bound tables are renamed at bind time, §2).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Visible schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The static map.
    pub fn static_map(&self) -> &StaticMap {
        &self.map
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a tuple. Arities must match the static map.
    pub fn push(&mut self, ptrs: Vec<RecordRef>, slots: Vec<Value>) -> Result<()> {
        if ptrs.len() != self.map.n_ptrs || slots.len() != self.map.n_slots {
            return Err(StorageError::Invariant(format!(
                "temp tuple layout mismatch in `{}`: got {} ptrs / {} slots, want {} / {}",
                self.name,
                ptrs.len(),
                slots.len(),
                self.map.n_ptrs,
                self.map.n_slots
            )));
        }
        let tuple = TempTuple {
            ptrs: ptrs.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
        };
        self.tuple_bytes += tuple_bytes(&tuple);
        self.tuples.push(tuple);
        Ok(())
    }

    /// Convenience for fully-materialized tables: push a plain row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if self.map.n_ptrs != 0 {
            return Err(StorageError::Invariant(format!(
                "push_row on pointer-mapped temp table `{}`",
                self.name
            )));
        }
        let row = self.schema.check_row(row)?;
        self.push(Vec::new(), row)
    }

    /// Resolve the value of `col` in tuple `row` through the static map.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        let t = &self.tuples[row];
        match self.map.sources[col] {
            ColumnSource::Pointer { ptr, offset } => t.ptrs[ptr].get(offset),
            ColumnSource::Slot(slot) => &t.slots[slot],
        }
    }

    /// Materialize tuple `row` as a plain value vector.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.schema.arity())
            .map(|c| self.value(row, c).clone())
            .collect()
    }

    /// Iterate materialized rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len()).map(|i| self.row_values(i))
    }

    /// Raw tuples (pointer/slot view), for tests of the §6.1 layout.
    pub fn tuples(&self) -> &[TempTuple] {
        &self.tuples
    }

    /// An empty table with this table's name, sharing its schema and static
    /// map (no copy of either).
    pub fn empty_like(&self) -> TempTable {
        TempTable {
            name: self.name.clone(),
            schema: self.schema.clone(),
            map: self.map.clone(),
            tuples: Vec::new(),
            tuple_bytes: 0,
        }
    }

    /// Fail unless `other` could be appended to this table: schemas and
    /// static maps must be identical — the paper requires bound tables
    /// merged across rules to "be defined identically".
    pub fn check_definition(&self, other: &TempTable) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::SchemaMismatch(format!(
                "cannot merge bound table `{}` {} into `{}` {}",
                other.name, other.schema, self.name, self.schema
            )));
        }
        if !Arc::ptr_eq(&self.map, &other.map) && *self.map != *other.map {
            return Err(StorageError::SchemaMismatch(format!(
                "bound tables `{}` and `{}` have different static maps",
                other.name, self.name
            )));
        }
        Ok(())
    }

    /// Append all tuples of `other`. This is the unique-transaction merge
    /// step (paper §2: "the tuples of the bound tables of the new rule firing
    /// are appended to those of the bound tables of the currently enqueued
    /// transaction"), under [`TempTable::check_definition`].
    pub fn append_from(&mut self, other: &TempTable) -> Result<()> {
        self.check_definition(other)?;
        self.tuples.extend(other.tuples.iter().cloned());
        self.tuple_bytes += other.tuple_bytes;
        Ok(())
    }

    /// Append the tuples of `other` at `rows`, in that order: the merge of
    /// one `unique on` partition, under the same checks as
    /// [`TempTable::append_from`].
    pub fn append_rows(&mut self, other: &TempTable, rows: &[usize]) -> Result<()> {
        self.check_definition(other)?;
        self.tuples.reserve(rows.len());
        for &i in rows {
            let tuple = other.tuples[i].clone();
            self.tuple_bytes += tuple_bytes(&tuple);
            self.tuples.push(tuple);
        }
        Ok(())
    }

    /// Move every tuple out, leaving the table empty with its definition
    /// intact: the source of [`TempTable::append_tuples`].
    pub fn take_tuples(&mut self) -> Vec<TempTuple> {
        self.tuple_bytes = 0;
        std::mem::take(&mut self.tuples)
    }

    /// Append tuples taken out of `def` (or out of a table defined like
    /// it), in order, moving them: the merge of one `unique on` partition
    /// whose rows belong to it alone. Under the checks of
    /// [`TempTable::check_definition`]; a tuple whose layout does not fit
    /// the static map is an error, and leaves the tuples before it
    /// appended.
    pub fn append_tuples(
        &mut self,
        def: &TempTable,
        tuples: impl IntoIterator<Item = TempTuple>,
    ) -> Result<()> {
        self.check_definition(def)?;
        for tuple in tuples {
            if tuple.ptrs.len() != self.map.n_ptrs || tuple.slots.len() != self.map.n_slots {
                return Err(StorageError::Invariant(format!(
                    "temp tuple layout mismatch in `{}`",
                    self.name
                )));
            }
            self.tuple_bytes += tuple_bytes(&tuple);
            self.tuples.push(tuple);
        }
        Ok(())
    }

    /// Total strong-reference pins this table holds on record versions.
    /// Test/diagnostic aid for the §6.1 retention scheme.
    pub fn pinned_versions(&self) -> usize {
        self.tuples.iter().map(|t| t.ptrs.len()).sum()
    }

    /// Byte footprint of this table's own tuples (headers + pointer words +
    /// materialized slot values). Maintained incrementally on every push
    /// and merge; the versions pinned through the pointers are charged at
    /// the owning standard table, never here (no double counting).
    pub fn mem_bytes(&self) -> u64 {
        self.tuple_bytes
    }

    /// Deep-walk size oracle: recompute [`Self::mem_bytes`] from scratch.
    #[doc(hidden)]
    pub fn __walk_mem(&self) -> u64 {
        self.tuples.iter().map(tuple_bytes).sum()
    }
}

/// Modeled bytes of one temporary tuple.
fn tuple_bytes(t: &TempTuple) -> u64 {
    crate::mem::TEMP_TUPLE_HEADER_BYTES
        + t.ptrs.len() as u64 * crate::mem::TEMP_PTR_BYTES
        + crate::mem::row_bytes(&t.slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::StandardTable;
    use crate::value::DataType;
    use std::sync::Arc;

    /// Build the paper's worked example: V(A,B,C,D,E) as a join of
    /// R(A,B,C), S(C,D), T(D,E). S contributes no attributes, so V's tuples
    /// store pointers only to R and T.
    #[test]
    fn paper_static_map_example() {
        let r_schema = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]);
        let t_schema = Schema::of(&[("d", DataType::Int), ("e", DataType::Int)]);
        let r = StandardTable::new("r", r_schema.into_ref());
        let t = StandardTable::new("t", t_schema.into_ref());
        let (_, r_rec) = r
            .insert(vec![1i64.into(), 2i64.into(), 3i64.into()])
            .unwrap();
        let (_, t_rec) = t.insert(vec![4i64.into(), 5i64.into()]).unwrap();

        let v_schema = Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
            ("d", DataType::Int),
            ("e", DataType::Int),
        ]);
        // Static map: [(R,θA),(R,θB),(R,θC),(T,θD),(T,θE)]
        let map = StaticMap::new(vec![
            ColumnSource::Pointer { ptr: 0, offset: 0 },
            ColumnSource::Pointer { ptr: 0, offset: 1 },
            ColumnSource::Pointer { ptr: 0, offset: 2 },
            ColumnSource::Pointer { ptr: 1, offset: 0 },
            ColumnSource::Pointer { ptr: 1, offset: 1 },
        ])
        .unwrap();
        assert_eq!(map.n_ptrs(), 2, "no pointer to S is stored");
        let mut v = TempTable::new("v", v_schema.into_ref(), map).unwrap();
        v.push(vec![r_rec, t_rec], vec![]).unwrap();
        assert_eq!(
            v.row_values(0),
            vec![
                1i64.into(),
                2i64.into(),
                3i64.into(),
                4i64.into(),
                5i64.into()
            ]
        );
        assert_eq!(v.pinned_versions(), 2);
    }

    #[test]
    fn pinned_version_survives_table_update() {
        let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
        let stocks = StandardTable::new("stocks", schema.clone().into_ref());
        let (id, rec) = stocks.insert(vec!["IBM".into(), 100.0.into()]).unwrap();

        let map = StaticMap::new(vec![
            ColumnSource::Pointer { ptr: 0, offset: 0 },
            ColumnSource::Pointer { ptr: 0, offset: 1 },
        ])
        .unwrap();
        let mut bound = TempTable::new("matches", schema.into_ref(), map).unwrap();
        bound.push(vec![rec], vec![]).unwrap();

        // Update the base row: the bound table must keep reading the old
        // version (condition-time snapshot).
        stocks.update(id, vec!["IBM".into(), 200.0.into()]).unwrap();
        assert_eq!(bound.value(0, 1).as_f64(), Some(100.0));
        assert_eq!(stocks.get(id).unwrap().get(1).as_f64(), Some(200.0));
    }

    #[test]
    fn old_version_freed_when_bound_table_retires() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let t = StandardTable::new("t", schema.clone().into_ref());
        let (id, old_rec) = t.insert(vec![1i64.into()]).unwrap();
        let weak = Arc::downgrade(&old_rec);

        let map = StaticMap::new(vec![ColumnSource::Pointer { ptr: 0, offset: 0 }]).unwrap();
        let mut bound = TempTable::new("b", schema.into_ref(), map).unwrap();
        bound.push(vec![old_rec], vec![]).unwrap();
        drop(t.update(id, vec![2i64.into()]).unwrap());
        // Publish and GC the chain so the superseded version is held only
        // by the bound table (the chain itself retains it until collected).
        t.publish_versions(id, 1);
        t.collect_versions(1);

        assert!(weak.upgrade().is_some(), "pinned by bound table");
        drop(bound);
        assert!(
            weak.upgrade().is_none(),
            "freed once last bound table retires"
        );
    }

    #[test]
    fn mixed_pointer_and_slot_columns() {
        let schema = Schema::of(&[("x", DataType::Int), ("sum", DataType::Float)]);
        let base = Schema::of(&[("x", DataType::Int)]);
        let t = StandardTable::new("t", base.into_ref());
        let (_, rec) = t.insert(vec![7i64.into()]).unwrap();
        let map = StaticMap::new(vec![
            ColumnSource::Pointer { ptr: 0, offset: 0 },
            ColumnSource::Slot(0),
        ])
        .unwrap();
        let mut tmp = TempTable::new("tmp", schema.into_ref(), map).unwrap();
        tmp.push(vec![rec], vec![Value::Float(1.5)]).unwrap();
        assert_eq!(tmp.value(0, 0).as_i64(), Some(7));
        assert_eq!(tmp.value(0, 1).as_f64(), Some(1.5));
    }

    #[test]
    fn append_from_requires_identical_definition() {
        let s1 = Schema::of(&[("a", DataType::Int)]).into_ref();
        let s2 = Schema::of(&[("b", DataType::Int)]).into_ref();
        let mut t1 = TempTable::materialized("m", s1.clone());
        let t2 = TempTable::materialized("m", s2);
        assert!(matches!(
            t1.append_from(&t2),
            Err(StorageError::SchemaMismatch(_))
        ));
        let mut t3 = TempTable::materialized("m", s1.clone());
        t3.push_row(vec![1i64.into()]).unwrap();
        let mut t4 = TempTable::materialized("m", s1);
        t4.push_row(vec![2i64.into()]).unwrap();
        t3.append_from(&t4).unwrap();
        assert_eq!(t3.len(), 2);
        assert_eq!(t3.value(1, 0).as_i64(), Some(2));
    }

    #[test]
    fn append_rows_takes_selected_rows_under_definition_checks() {
        let s = Schema::of(&[("a", DataType::Int)]).into_ref();
        let mut src = TempTable::materialized("m", s.clone());
        for v in [10i64, 20, 30] {
            src.push_row(vec![v.into()]).unwrap();
        }
        let mut part = src.empty_like();
        assert!(part.is_empty());
        assert_eq!(part.name(), "m");
        part.append_rows(&src, &[2, 0]).unwrap();
        let rows: Vec<Vec<Value>> = part.iter_rows().collect();
        assert_eq!(rows, vec![vec![Value::Int(30)], vec![Value::Int(10)]]);
        assert_eq!(part.mem_bytes(), part.__walk_mem());

        let renamed = TempTable::materialized("m", Schema::of(&[("b", DataType::Int)]).into_ref());
        assert!(matches!(
            part.append_rows(&renamed, &[]),
            Err(StorageError::SchemaMismatch(_))
        ));
        let map = StaticMap::new(vec![ColumnSource::Pointer { ptr: 0, offset: 0 }]).unwrap();
        let pointers = TempTable::new("m", s, map).unwrap();
        assert!(matches!(
            part.check_definition(&pointers),
            Err(StorageError::SchemaMismatch(_))
        ));
        assert_eq!(part.len(), 2, "a failed append leaves the table as it was");
    }

    #[test]
    fn take_and_append_tuples_move_rows_under_definition_checks() {
        let s = Schema::of(&[("a", DataType::Int)]).into_ref();
        let mut src = TempTable::materialized("m", s.clone());
        for v in [10i64, 20, 30] {
            src.push_row(vec![v.into()]).unwrap();
        }
        let mut tuples: Vec<Option<TempTuple>> = src.take_tuples().into_iter().map(Some).collect();
        assert!(src.is_empty());
        assert_eq!(src.mem_bytes(), 0);
        let mut part = src.empty_like();
        part.append_tuples(&src, [2, 0].map(|i| tuples[i].take().unwrap()))
            .unwrap();
        let rows: Vec<Vec<Value>> = part.iter_rows().collect();
        assert_eq!(rows, vec![vec![Value::Int(30)], vec![Value::Int(10)]]);
        assert_eq!(part.mem_bytes(), part.__walk_mem());

        let other = TempTable::materialized("m", Schema::of(&[("b", DataType::Int)]).into_ref());
        let rest = tuples[1].take().unwrap();
        assert!(matches!(
            part.append_tuples(&other, [rest.clone()]),
            Err(StorageError::SchemaMismatch(_))
        ));
        assert_eq!(part.len(), 2, "a failed append leaves the table as it was");
        // A tuple whose layout does not fit the static map is refused.
        let map = StaticMap::new(vec![ColumnSource::Pointer { ptr: 0, offset: 0 }]).unwrap();
        let mut pointers = TempTable::new("m", s, map).unwrap();
        let def = pointers.empty_like();
        assert!(matches!(
            pointers.append_tuples(&def, [rest]),
            Err(StorageError::Invariant(_))
        ));
    }

    #[test]
    fn push_arity_checks() {
        let s = Schema::of(&[("a", DataType::Int)]).into_ref();
        let mut t = TempTable::materialized("m", s);
        assert!(t.push(vec![], vec![]).is_err());
        assert!(t.push_row(vec![1i64.into(), 2i64.into()]).is_err());
        assert!(t.push_row(vec!["bad".into()]).is_err());
    }

    #[test]
    fn non_contiguous_static_map_rejected() {
        assert!(StaticMap::new(vec![ColumnSource::Pointer { ptr: 1, offset: 0 }]).is_err());
        assert!(StaticMap::new(vec![ColumnSource::Slot(2)]).is_err());
    }

    #[test]
    fn mem_bytes_tracks_pushes_and_merges_exactly() {
        let s = Schema::of(&[("sym", DataType::Str), ("v", DataType::Float)]).into_ref();
        let mut t = TempTable::materialized("m", s.clone());
        assert_eq!(t.mem_bytes(), 0);
        t.push_row(vec!["IBM".into(), 1.0.into()]).unwrap();
        t.push_row(vec!["SUNW".into(), 2.0.into()]).unwrap();
        assert_eq!(t.mem_bytes(), t.__walk_mem());
        assert!(t.mem_bytes() > 0);
        let mut merged = TempTable::materialized("m", s);
        merged.push_row(vec!["HWP".into(), 3.0.into()]).unwrap();
        merged.append_from(&t).unwrap();
        assert_eq!(merged.mem_bytes(), merged.__walk_mem());
        // Pointer tuples charge header + pointer words, not the pinned
        // record's bytes (those stay with the owning standard table).
        let base = Schema::of(&[("x", DataType::Int)]);
        let st = StandardTable::new("t", base.clone().into_ref());
        let (_, rec) = st.insert(vec![7i64.into()]).unwrap();
        let map = StaticMap::new(vec![ColumnSource::Pointer { ptr: 0, offset: 0 }]).unwrap();
        let mut ptr_t = TempTable::new("b", base.into_ref(), map).unwrap();
        ptr_t.push(vec![rec], vec![]).unwrap();
        assert_eq!(
            ptr_t.mem_bytes(),
            crate::mem::TEMP_TUPLE_HEADER_BYTES + crate::mem::TEMP_PTR_BYTES
        );
        assert_eq!(ptr_t.mem_bytes(), ptr_t.__walk_mem());
    }
}
