//! Physical-plan execution.
//!
//! The executor is a small volcano-style engine specialized for STRIP's
//! workload: short selections and equi-joins between base tables (indexed)
//! and tiny transition/bound tables, plus hash aggregation for the paper's
//! `group by` recompute queries.
//!
//! All planning decisions — join order, access paths, filter placement,
//! expression compilation — are made up front by [`crate::plan`]; this
//! module interprets the resulting [`PhysicalPlan`]s. A plan is immutable
//! and shareable, so prepared plans can be cached and re-executed (the
//! prepared-plan cache in `strip-core` does exactly that). Execution
//! re-resolves relations by name on every run: locks, transaction overlays,
//! and view expansion are per-execution concerns, and a relation whose
//! shape no longer matches the plan raises [`SqlError::Stale`] so callers
//! can replan.
//!
//! ## Provenance and bound tables
//!
//! While joining, the executor tracks which `RecordRef` produced each FROM
//! item's slice of the row. When a query result is bound (`bind as`), select
//! items that are plain column references resolve into **pointer** columns of
//! the output [`TempTable`] (the §6.1 scheme); computed items become
//! materialized slots.
//!
//! ## Metering
//!
//! Planning charges nothing. Read-side work is charged here (cursor
//! open/fetch, index probes, temp tuple reads/builds, expression evaluation,
//! aggregation rows). Write-side work (locks, tuple writes, index
//! maintenance) is charged by the [`Env`] implementation, which routes DML
//! through transaction bookkeeping.

use crate::ast::*;
use crate::cost::PlannerMode;
use crate::error::{Result, SqlError};
use crate::expr::ScalarFn;
use crate::plan::{
    self, Access, AggSpec, BindMode, DeletePlan, GroupedOut, InsertPlan, InsertSourcePlan,
    JoinStep, OutCol, OutputPlan, PhysicalPlan, PlannedItem, RelMeta, SelectPlan, SortPlan,
    UpdatePlan,
};
use std::collections::HashMap;
use std::sync::Arc;
use strip_storage::{
    ColumnSource, Meter, Op, RecordRef, RowId, SchemaRef, StaticMap, TempTable, Value,
};

/// A readable relation.
#[derive(Clone)]
pub enum Rel {
    /// A standard table from the catalog.
    Standard(strip_storage::TableRef),
    /// A temporary table (transition table, bound table, query result).
    Temp(Arc<TempTable>),
}

impl Rel {
    /// The relation's schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            Rel::Standard(t) => t.schema().clone(),
            Rel::Temp(t) => t.schema().clone(),
        }
    }

    /// Estimated (here: exact) row count.
    pub fn len(&self) -> usize {
        match self {
            Rel::Standard(t) => t.len(),
            Rel::Temp(t) => t.len(),
        }
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The environment a statement executes in: relation resolution, scalar
/// functions, metering, and DML hooks that route writes through transaction
/// bookkeeping (locking, logging, index maintenance).
pub trait Env {
    /// Operation meter for cost accounting.
    fn meter(&self) -> &dyn Meter;
    /// Resolve a named relation (standard, transition, or bound table).
    fn relation(&self, name: &str) -> Option<Rel>;
    /// Resolve a registered scalar function.
    fn scalar_fn(&self, name: &str) -> Option<ScalarFn>;
    /// Relation metadata for the planner: schema, size estimate, indexes.
    /// Unlike [`Env::relation`], this must be side-effect free — no locks,
    /// no meter charges, no view materialization.
    fn plan_relation(&self, name: &str) -> Option<RelMeta> {
        self.relation(name).map(|r| RelMeta::of(&r))
    }
    /// Current schema epoch (see `strip_storage::Catalog::epoch`). Prepared
    /// plans are only valid for the epoch they were built under.
    fn schema_epoch(&self) -> u64 {
        0
    }
    /// The epoch prepared plans are cached under. Defaults to the schema
    /// epoch; transaction environments additionally fold in the catalog's
    /// statistics epoch so a stats-driven plan flip (a table crossing a
    /// cardinality size class) invalidates cached physical plans rather
    /// than serving a stale operator choice.
    fn plan_epoch(&self) -> u64 {
        self.schema_epoch()
    }
    /// Which physical-plan chooser [`crate::plan::plan_query`] runs.
    fn planner_mode(&self) -> PlannerMode {
        PlannerMode::CostBased
    }
    /// Plan-quality feedback, invoked once per join-pipeline invocation
    /// with the plan's bounded shape label and its estimated vs actual
    /// joined-row cardinality. Transaction environments forward this to the
    /// observability sink; the default discards it.
    fn plan_feedback(&self, _choice: &str, _est_rows: u64, _actual_rows: u64) {}
    /// The snapshot timestamp this environment reads at, when it is a
    /// read-only snapshot transaction. `Some(ts)` routes every standard-
    /// table read through the version chains (`get_at`/`scan_at`) — the
    /// newest version with `commit_ts <= ts` — without consulting the lock
    /// manager. `None` (the default) keeps strict-2PL current reads.
    fn snapshot_ts(&self) -> Option<u64> {
        None
    }
    /// Called once before reading a standard table (S-lock acquisition).
    fn before_read(&self, _table: &str) -> Result<()> {
        Ok(())
    }
    /// Called before a statement that will write `table` reads it
    /// (X-lock acquisition up front, preventing S→X upgrade deadlocks
    /// between concurrent single-statement updates).
    fn before_write(&self, _table: &str) -> Result<()> {
        Ok(())
    }
    /// Called before an index probe reads only the rows of `table` whose
    /// `column` equals `key` — a key-granular read. Implementations take
    /// IS on the table plus S on the key resource; the default keeps
    /// table-granular behavior.
    fn before_read_keyed(&self, table: &str, _column: &str, _key: &Value) -> Result<()> {
        self.before_read(table)
    }
    /// Keyed counterpart of [`Env::before_write`]: the statement will write
    /// only rows of `table` whose `column` equals `key` (planned index
    /// probe). Implementations take IX on the table plus X on the key
    /// resource, which also phantom-protects the probe predicate against
    /// concurrent inserts of that key.
    fn before_write_keyed(&self, table: &str, _column: &str, _key: &Value) -> Result<()> {
        self.before_write(table)
    }
    /// Insert a row (write-side charging + logging inside).
    fn dml_insert(&self, table: &str, row: Vec<Value>) -> Result<()>;
    /// Update a row to new values.
    fn dml_update(&self, table: &str, id: RowId, new: Vec<Value>) -> Result<()>;
    /// Delete a row.
    fn dml_delete(&self, table: &str, id: RowId) -> Result<()>;
}

/// A fully-materialized query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output schema.
    pub schema: SchemaRef,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Value at `(row, named column)`.
    pub fn value(&self, row: usize, column: &str) -> Result<&Value> {
        let c = self.schema.index_of_ok(column)?;
        self.rows
            .get(row)
            .map(|r| &r[c])
            .ok_or_else(|| SqlError::exec(format!("row {row} out of range")))
    }

    /// First row's value in `column`, convenient for scalar lookups.
    pub fn single(&self, column: &str) -> Result<&Value> {
        if self.rows.is_empty() {
            return Err(SqlError::exec("query returned no rows"));
        }
        self.value(0, column)
    }
}

// ---------------------------------------------------------------------------
// Relation resolution at execution time
// ---------------------------------------------------------------------------

/// A FROM item resolved against the live environment for one execution.
pub(crate) struct ResolvedItem {
    pub(crate) rel: Rel,
    /// Whether the item can yield a `RecordRef` per row at all: standard
    /// tables, and temp tables whose tuples hold exactly one pointer.
    pub(crate) has_prov: bool,
}

impl ResolvedItem {
    /// Offset of visible column `col` within the item's single backing
    /// record, when a record pointer can serve it.
    pub(crate) fn prov_offset(&self, col: usize) -> Option<usize> {
        match &self.rel {
            Rel::Standard(_) => Some(col),
            Rel::Temp(_) if !self.has_prov => None,
            Rel::Temp(t) => match t.static_map().sources()[col] {
                ColumnSource::Pointer { offset, .. } => Some(offset),
                ColumnSource::Slot(_) => None,
            },
        }
    }
}

/// `keyed` marks an item the plan reads only through equality index probes
/// (seed `IndexEq` or a join `IndexProbe`): its lock acquisition is deferred
/// to the probe sites ([`Env::before_read_keyed`] per probed key) instead of
/// taking a whole-table S lock here.
fn resolve_item(env: &dyn Env, item: &PlannedItem, keyed: bool) -> Result<ResolvedItem> {
    let rel = env
        .relation(&item.table)
        .ok_or_else(|| SqlError::analyze(format!("unknown table `{}`", item.table)))?;
    if let Rel::Standard(_) = rel {
        if !keyed {
            env.before_read(&item.table)?;
        }
    }
    if rel.schema().arity() != item.arity {
        return Err(SqlError::stale(format!(
            "table `{}` changed shape since planning",
            item.table
        )));
    }
    // Zero or multiple backing records per temp tuple: no single
    // provenance pointer; downstream bound tables materialize.
    let has_prov = match &rel {
        Rel::Standard(_) => true,
        Rel::Temp(t) => t.static_map().n_ptrs() == 1,
    };
    Ok(ResolvedItem { rel, has_prov })
}

/// Resolve all FROM items in declaration order (that is the lock-acquisition
/// order), then permute into join order.
pub(crate) fn resolve_items(env: &dyn Env, plan: &SelectPlan) -> Result<Vec<ResolvedItem>> {
    // Items the plan reads only through equality probes (seed `IndexEq`,
    // join `IndexProbe`) lock key-granularly at the probe sites instead of
    // taking a table S lock up front.
    let mut keyed = vec![false; plan.items.len()];
    if matches!(plan.seed, Access::IndexEq { .. }) {
        keyed[plan.join_order[0]] = true;
    }
    for (k, step) in plan.steps.iter().enumerate() {
        if matches!(step, JoinStep::IndexProbe { .. }) {
            keyed[plan.join_order[k + 1]] = true;
        }
    }
    let mut declared = Vec::with_capacity(plan.items.len());
    for (d, item) in plan.items.iter().enumerate() {
        declared.push(Some(resolve_item(env, item, keyed[d])?));
    }
    let mut joined = Vec::with_capacity(declared.len());
    for &d in &plan.join_order {
        joined.push(declared[d].take().expect("each item moved once"));
    }
    Ok(joined)
}

// ---------------------------------------------------------------------------
// The join pipeline
// ---------------------------------------------------------------------------

/// One row mid-join: concatenated values plus per-item (join-order)
/// provenance.
#[derive(Clone)]
struct JRow {
    vals: Vec<Value>,
    provs: Vec<Option<RecordRef>>,
}

/// The rows one FROM item contributes to a plan execution, read in place:
/// the matched records of a standard table, or a temporary table itself.
/// Nothing is copied out of either; the batch executor addresses rows by
/// index and reads columns through the record pointer or the temp table's
/// static map.
pub(crate) enum Source {
    /// Record versions of a standard table (scanned, probed or range-read).
    Records(Vec<RecordRef>),
    /// A temporary table; `prov` when each tuple has one backing record
    /// (see [`ResolvedItem::has_prov`]).
    Temp { table: Arc<TempTable>, prov: bool },
}

impl Source {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Source::Records(v) => v.len(),
            Source::Temp { table, .. } => table.len(),
        }
    }

    /// Column `col` of row `i`.
    pub(crate) fn value(&self, i: usize, col: usize) -> &Value {
        match self {
            Source::Records(v) => v[i].get(col),
            Source::Temp { table, .. } => table.value(i, col),
        }
    }

    /// The record backing row `i`, when the item has one per row.
    pub(crate) fn record(&self, i: usize) -> Option<&RecordRef> {
        match self {
            Source::Records(v) => Some(&v[i]),
            Source::Temp { table, prov: true } => table.tuples()[i].ptrs().first(),
            Source::Temp { prov: false, .. } => None,
        }
    }

    /// Row `i` as values plus provenance (the row-wise reference's form).
    fn row(&self, i: usize) -> (Vec<Value>, Option<RecordRef>) {
        match self {
            Source::Records(v) => (v[i].values().to_vec(), Some(v[i].clone())),
            Source::Temp { table, .. } => (table.row_values(i), self.record(i).cloned()),
        }
    }
}

/// Open a cursor over a whole FROM item.
pub(crate) fn scan_item(env: &dyn Env, item: &ResolvedItem) -> Source {
    let m = env.meter();
    m.charge(Op::OpenCursor, 1);
    let out = match &item.rel {
        Rel::Standard(t) => {
            let rows = match env.snapshot_ts() {
                Some(ts) => t.scan_at(ts),
                None => t.scan(),
            };
            m.charge(Op::FetchCursor, rows.len() as u64);
            Source::Records(rows.into_iter().map(|(_, rec)| rec).collect())
        }
        Rel::Temp(t) => {
            m.charge(Op::TempTupleRead, t.len() as u64);
            Source::Temp {
                table: t.clone(),
                prov: item.has_prov,
            }
        }
    };
    m.charge(Op::CloseCursor, 1);
    out
}

/// Equality index probe: append the records of `item` whose `column`
/// equals `key` to `out`. Returns false, appending nothing, when the item
/// is not an indexed standard table.
pub(crate) fn probe_item(
    env: &dyn Env,
    item: &ResolvedItem,
    column: usize,
    key: &Value,
    out: &mut Vec<RecordRef>,
) -> Result<bool> {
    let Rel::Standard(t) = &item.rel else {
        return Ok(false);
    };
    if t.index_on(column).is_none() {
        return Ok(false);
    }
    // Key-granular read lock: IS on the table, S on `table#column=key`.
    // Taken before the index lookup so the probe sees a stable key range.
    env.before_read_keyed(t.name(), &t.schema().column(column).name, key)?;
    let Some(ids) = t.index_lookup(column, key) else {
        return Ok(false);
    };
    let m = env.meter();
    m.charge(Op::IndexProbe, 1);
    m.charge(Op::FetchCursor, ids.len() as u64);
    let ts = env.snapshot_ts();
    out.extend(
        ids.into_iter()
            .filter_map(|id| match ts {
                Some(ts) => t.get_at(id, ts),
                None => t.get(id).ok(),
            })
            // The planner consumed the `column = key` conjunct when it chose
            // this probe, and a version chain keeps a posting for every key
            // any retained version carries — so a posting may resolve to a
            // version that no longer has the probed key. Revalidate here.
            .filter(|rec| rec.get(column) == key),
    );
    Ok(true)
}

/// Inclusive ordered-index range scan on the seed item.
pub(crate) fn range_item(
    env: &dyn Env,
    item: &ResolvedItem,
    column: usize,
    lo: &Value,
    hi: &Value,
) -> Option<Vec<RecordRef>> {
    let Rel::Standard(t) = &item.rel else {
        return None;
    };
    let ids = t.index_range(column, lo, hi)?;
    let m = env.meter();
    m.charge(Op::IndexProbe, 1);
    m.charge(Op::FetchCursor, ids.len() as u64);
    let ts = env.snapshot_ts();
    // No key revalidation needed: the planner retains range conjuncts as
    // residual filters, which drop rows whose resolved version left the
    // range (stale postings, snapshot-visible older versions).
    Some(
        ids.into_iter()
            .filter_map(|id| match ts {
                Some(ts) => t.get_at(id, ts),
                None => t.get(id).ok(),
            })
            .collect(),
    )
}

/// The seed rows of a plan: its access path over join position 0.
pub(crate) fn seed_source(
    env: &dyn Env,
    plan: &SelectPlan,
    item: &ResolvedItem,
    params: &[Value],
) -> Result<Source> {
    Ok(match &plan.seed {
        Access::Scan => scan_item(env, item),
        Access::IndexEq { column, key } => {
            let key = key.eval(&[], params)?;
            let mut recs = Vec::new();
            if !probe_item(env, item, *column, &key, &mut recs)? {
                return Err(SqlError::stale("index used by plan no longer exists"));
            }
            Source::Records(recs)
        }
        Access::IndexRange { column, lo, hi } => {
            let lo = lo.eval(&[], params)?;
            let hi = hi.eval(&[], params)?;
            Source::Records(
                range_item(env, item, *column, &lo, &hi).ok_or_else(|| {
                    SqlError::stale("ordered index used by plan no longer exists")
                })?,
            )
        }
    })
}

/// Apply residual filters assigned to one join position, in original
/// conjunct order (each filter is charged per row it sees).
fn apply_filters(
    env: &dyn Env,
    filters: &[crate::expr::Program],
    rows: &mut Vec<JRow>,
    params: &[Value],
) -> Result<()> {
    let m = env.meter();
    for f in filters {
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows.drain(..) {
            m.charge(Op::EvalExpr, 1);
            if f.eval_bool(&r.vals, params)? {
                kept.push(r);
            }
        }
        *rows = kept;
    }
    Ok(())
}

/// Run the access-path + join + filter section of a plan, producing the
/// joined rows (values in join-order layout, plus per-item provenance).
fn run_join(
    env: &dyn Env,
    plan: &SelectPlan,
    items: &[ResolvedItem],
    params: &[Value],
) -> Result<Vec<JRow>> {
    let n = items.len();
    let m = env.meter();

    let seed = seed_source(env, plan, &items[0], params)?;
    let mut rows: Vec<JRow> = (0..seed.len())
        .map(|i| {
            let (vals, prov) = seed.row(i);
            let mut provs = vec![None; n];
            provs[0] = prov;
            JRow { vals, provs }
        })
        .collect();
    apply_filters(env, &plan.filters[0], &mut rows, params)?;

    for (k, step) in plan.steps.iter().enumerate() {
        let k = k + 1;
        let item = &items[k];
        let mut next_rows = Vec::new();
        match step {
            JoinStep::IndexProbe { column, key } => {
                for r in &rows {
                    m.charge(Op::EvalExpr, 1);
                    let key = key.eval(&r.vals, params)?;
                    let mut matches = Vec::new();
                    probe_item(env, item, *column, &key, &mut matches)?;
                    for rec in matches {
                        let mut nr = r.clone();
                        nr.vals.extend_from_slice(rec.values());
                        nr.provs[k] = Some(rec);
                        next_rows.push(nr);
                    }
                }
            }
            JoinStep::HashJoin { column, key } => {
                // Hash join: materialize and hash the inner once, then one
                // key evaluation and one hash probe per prefix row; every
                // emitted match reads one built tuple.
                let inner = scan_item(env, item);
                let inner: Vec<_> = (0..inner.len()).map(|i| inner.row(i)).collect();
                m.charge(Op::UniqueHashOp, inner.len() as u64);
                let mut table: HashMap<Value, Vec<usize>> = HashMap::new();
                for (i, (vals, _)) in inner.iter().enumerate() {
                    table.entry(vals[*column].clone()).or_default().push(i);
                }
                for r in &rows {
                    m.charge(Op::EvalExpr, 1);
                    let key = key.eval(&r.vals, params)?;
                    m.charge(Op::UniqueHashOp, 1);
                    if let Some(idxs) = table.get(&key) {
                        m.charge(Op::TempTupleRead, idxs.len() as u64);
                        for &i in idxs {
                            let (vals, prov) = &inner[i];
                            let mut nr = r.clone();
                            nr.vals.extend(vals.iter().cloned());
                            nr.provs[k] = prov.clone();
                            next_rows.push(nr);
                        }
                    }
                }
            }
            JoinStep::NestedLoop => {
                // Nested-loop join: materialize the inner once.
                let inner = scan_item(env, item);
                let inner: Vec<_> = (0..inner.len()).map(|i| inner.row(i)).collect();
                for r in &rows {
                    for (vals, prov) in &inner {
                        let mut nr = r.clone();
                        nr.vals.extend(vals.iter().cloned());
                        nr.provs[k] = prov.clone();
                        next_rows.push(nr);
                    }
                }
            }
        }
        rows = next_rows;
        apply_filters(env, &plan.filters[k], &mut rows, params)?;
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Aggregate accumulator.
pub(crate) enum AggState {
    Sum {
        acc: f64,
        any: bool,
        int: bool,
        iacc: i64,
    },
    Count(i64),
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// Welford accumulator for var/stddev (population).
    Var {
        n: i64,
        mean: f64,
        m2: f64,
        stddev: bool,
    },
}

impl AggState {
    pub(crate) fn new(func: AggFunc, int_input: bool) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum {
                acc: 0.0,
                any: false,
                int: int_input,
                iacc: 0,
            },
            AggFunc::Count => AggState::Count(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Var => AggState::Var {
                n: 0,
                mean: 0.0,
                m2: 0.0,
                stddev: false,
            },
            AggFunc::Stddev => AggState::Var {
                n: 0,
                mean: 0.0,
                m2: 0.0,
                stddev: true,
            },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // count(*) gets None and counts every row; count(expr)
                // skips nulls per SQL.
                match v {
                    Some(Value::Null) => {}
                    _ => *n += 1,
                }
            }
            AggState::Sum {
                acc,
                any,
                int,
                iacc,
            } => {
                if let Some(v) = v {
                    if v.is_null() {
                        return Ok(());
                    }
                    *any = true;
                    match v {
                        Value::Int(i) if *int => {
                            *iacc = iacc
                                .checked_add(*i)
                                .ok_or_else(|| SqlError::exec("sum overflow"))?
                        }
                        _ => {
                            *int = false;
                            *acc += v
                                .as_f64()
                                .ok_or_else(|| SqlError::exec("sum of non-numeric value"))?;
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if v.is_null() {
                        return Ok(());
                    }
                    *sum += v
                        .as_f64()
                        .ok_or_else(|| SqlError::exec("avg of non-numeric value"))?;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if v.is_null() {
                        return Ok(());
                    }
                    if cur.as_ref().map(|c| v < c).unwrap_or(true) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if v.is_null() {
                        return Ok(());
                    }
                    if cur.as_ref().map(|c| v > c).unwrap_or(true) {
                        *cur = Some(v.clone());
                    }
                }
            }
            AggState::Var { n, mean, m2, .. } => {
                if let Some(v) = v {
                    if v.is_null() {
                        return Ok(());
                    }
                    let x = v
                        .as_f64()
                        .ok_or_else(|| SqlError::exec("var/stddev of non-numeric value"))?;
                    // Welford's online update.
                    *n += 1;
                    let d = x - *mean;
                    *mean += d / *n as f64;
                    *m2 += d * (x - *mean);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Sum {
                acc,
                any,
                int,
                iacc,
            } => {
                if !any {
                    Value::Null
                } else if int {
                    Value::Int(iacc)
                } else {
                    Value::Float(acc + iacc as f64)
                }
            }
            AggState::Count(n) => Value::Int(n),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Var { n, m2, stddev, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    let var = m2 / n as f64;
                    Value::Float(if stddev { var.sqrt() } else { var })
                }
            }
        }
    }
}

/// Execute the hash-aggregation stage of a plan over joined rows.
fn run_aggregate(
    env: &dyn Env,
    agg: &plan::AggPlan,
    rows: &[JRow],
    params: &[Value],
) -> Result<Vec<Vec<Value>>> {
    let meter = env.meter();
    let m = agg.keys.len();
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    let new_states = |aggs: &[AggSpec]| -> Vec<AggState> {
        aggs.iter()
            .map(|a| AggState::new(a.func, a.int_input))
            .collect()
    };
    for r in rows {
        meter.charge(Op::AggRow, 1);
        let mut key = Vec::with_capacity(m);
        for ke in &agg.keys {
            key.push(ke.eval(&r.vals, params)?);
        }
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                group_order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| new_states(&agg.aggs));
                groups.get_mut(&key).expect("just inserted")
            }
        };
        for (st, spec) in states.iter_mut().zip(&agg.aggs) {
            let v = match &spec.arg {
                Some(a) => Some(a.eval(&r.vals, params)?),
                None => None,
            };
            st.update(v.as_ref())?;
        }
    }

    // Global aggregate without GROUP BY over empty input still yields one row.
    if m == 0 && group_order.is_empty() {
        group_order.push(Vec::new());
        groups.insert(Vec::new(), new_states(&agg.aggs));
    }

    // Emit one output row per group in first-seen order.
    let mut out_rows = Vec::with_capacity(group_order.len());
    for key in group_order {
        let states = groups.remove(&key).expect("group present");
        let mut outer: Vec<Value> = key;
        outer.extend(states.into_iter().map(AggState::finish));
        if let Some(h) = &agg.having {
            meter.charge(Op::EvalExpr, 1);
            if !h.eval_bool(&outer, params)? {
                continue;
            }
        }
        let mut row = Vec::with_capacity(agg.outs.len());
        for o in &agg.outs {
            match o {
                GroupedOut::OuterCol(idx) => row.push(outer[*idx].clone()),
                GroupedOut::Expr(p) => row.push(p.eval(&outer, params)?),
            }
        }
        out_rows.push(row);
    }
    Ok(out_rows)
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

/// `SELECT DISTINCT`: deduplicate rows preserving first-occurrence order.
pub(crate) fn dedup_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut seen = std::collections::HashSet::with_capacity(rows.len());
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if seen.insert(r.clone()) {
            out.push(r);
        }
    }
    out
}

/// Sort materialized rows by compiled key programs.
pub(crate) fn sort_rows(
    keys: &[(crate::expr::Program, bool)],
    rows: &mut [Vec<Value>],
    params: &[Value],
) -> Result<()> {
    let mut err = None;
    rows.sort_by(|a, b| {
        for (k, desc) in keys {
            let (va, vb) = match (k.eval(a, params), k.eval(b, params)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(e), _) | (_, Err(e)) => {
                    err.get_or_insert(e);
                    return std::cmp::Ordering::Equal;
                }
            };
            let ord = va.cmp(&vb);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Sort joined rows in place (pre-projection ORDER BY).
fn sort_jrows(
    keys: &[(crate::expr::Program, bool)],
    rows: &mut [JRow],
    params: &[Value],
) -> Result<()> {
    let mut err = None;
    rows.sort_by(|a, b| {
        for (k, desc) in keys {
            let (va, vb) = match (k.eval(&a.vals, params), k.eval(&b.vals, params)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(e), _) | (_, Err(e)) => {
                    err.get_or_insert(e);
                    return std::cmp::Ordering::Equal;
                }
            };
            let ord = va.cmp(&vb);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn project_rows(
    env: &dyn Env,
    outs: &[OutCol],
    rows: &[JRow],
    params: &[Value],
) -> Result<Vec<Vec<Value>>> {
    let meter = env.meter();
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        meter.charge(Op::EvalExpr, 1);
        let mut row = Vec::with_capacity(outs.len());
        for o in outs {
            match o {
                OutCol::Passthrough { idx } => row.push(r.vals[*idx].clone()),
                OutCol::Computed(p) => row.push(p.eval(&r.vals, params)?),
            }
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Plan execution entry points
// ---------------------------------------------------------------------------

/// Execute a compiled `SELECT`, returning a materialized result set.
///
/// This is the vectorized path: the join pipeline and the
/// filter/project/aggregate operators run batch-at-a-time over a columnar
/// [`crate::batch::RowBatch`] — one operator invocation per plan execution,
/// not per row. The row-at-a-time interpreter survives as
/// [`execute_select_rowwise`], the parity oracle every physical plan is
/// equivalence-checked against.
pub fn execute_select(env: &dyn Env, plan: &SelectPlan, params: &[Value]) -> Result<ResultSet> {
    let items = resolve_items(env, plan)?;
    let mut batch = crate::batch::run_join_batch(env, plan, &items, params)?;

    match &plan.output {
        OutputPlan::Aggregate(agg) => {
            let rows = crate::batch::aggregate_batch(env, agg, &batch, params)?;
            let rows = if plan.distinct {
                dedup_rows(rows)
            } else {
                rows
            };
            let mut rows = match &plan.sort {
                SortPlan::Post(keys) => {
                    let mut rows = rows;
                    sort_rows(keys, &mut rows, params)?;
                    rows
                }
                _ => rows,
            };
            if let Some(l) = plan.limit {
                rows.truncate(l as usize);
            }
            Ok(ResultSet {
                schema: plan.schema.clone(),
                rows,
            })
        }
        OutputPlan::Project(outs) => {
            let pre_sorted = if let SortPlan::Pre(keys) = &plan.sort {
                crate::batch::sort_batch(keys, &mut batch, params)?;
                true
            } else {
                false
            };
            let rows = crate::batch::project_batch(env, outs, &batch, params)?;
            let rows = if plan.distinct {
                dedup_rows(rows)
            } else {
                rows
            };
            let mut rows = match (&plan.sort, pre_sorted) {
                (SortPlan::Post(keys), false) => {
                    let mut rows = rows;
                    sort_rows(keys, &mut rows, params)?;
                    rows
                }
                _ => rows,
            };
            if let Some(l) = plan.limit {
                rows.truncate(l as usize);
            }
            Ok(ResultSet {
                schema: plan.schema.clone(),
                rows,
            })
        }
    }
}

/// The row-at-a-time reference interpreter: identical semantics and meter
/// charges to [`execute_select`], one row flowing through the operators at
/// a time. Kept as the parity oracle for the batch executor (the
/// cached-vs-fresh proptests run every plan through both).
pub fn execute_select_rowwise(
    env: &dyn Env,
    plan: &SelectPlan,
    params: &[Value],
) -> Result<ResultSet> {
    let items = resolve_items(env, plan)?;
    let mut joined = run_join(env, plan, &items, params)?;

    match &plan.output {
        OutputPlan::Aggregate(agg) => {
            let rows = run_aggregate(env, agg, &joined, params)?;
            let rows = if plan.distinct {
                dedup_rows(rows)
            } else {
                rows
            };
            let mut rows = match &plan.sort {
                SortPlan::Post(keys) => {
                    let mut rows = rows;
                    sort_rows(keys, &mut rows, params)?;
                    rows
                }
                _ => rows,
            };
            if let Some(l) = plan.limit {
                rows.truncate(l as usize);
            }
            Ok(ResultSet {
                schema: plan.schema.clone(),
                rows,
            })
        }
        OutputPlan::Project(outs) => {
            // ORDER BY preferentially sorts the *input* rows (SQL permits
            // ordering by non-projected columns, e.g. `select new_price
            // from ... order by new.execute_order`).
            let pre_sorted = if let SortPlan::Pre(keys) = &plan.sort {
                sort_jrows(keys, &mut joined, params)?;
                true
            } else {
                false
            };
            let rows = project_rows(env, outs, &joined, params)?;
            let rows = if plan.distinct {
                dedup_rows(rows)
            } else {
                rows
            };
            let mut rows = match (&plan.sort, pre_sorted) {
                (SortPlan::Post(keys), false) => {
                    let mut rows = rows;
                    sort_rows(keys, &mut rows, params)?;
                    rows
                }
                _ => rows,
            };
            if let Some(l) = plan.limit {
                rows.truncate(l as usize);
            }
            Ok(ResultSet {
                schema: plan.schema.clone(),
                rows,
            })
        }
    }
}

/// Execute a compiled `SELECT` and bind its result as a named temporary
/// table using the §6.1 pointer scheme where possible: passthrough columns
/// backed by a provenance record become pointer columns; computed columns
/// become slots.
pub fn execute_select_bound(
    env: &dyn Env,
    plan: &SelectPlan,
    params: &[Value],
    bind_name: &str,
) -> Result<TempTable> {
    // Grouped/ordered/limited results are computed values: fully
    // materialized.
    if plan.bind_mode == BindMode::Materialize {
        let rs = execute_select(env, plan, params)?;
        let mut t = TempTable::materialized(bind_name, rs.schema.clone());
        let meter = env.meter();
        for row in rs.rows {
            meter.charge(Op::TempTupleBuild, 1);
            t.push_row(row)?;
        }
        return Ok(t);
    }

    let items = resolve_items(env, plan)?;
    let batch = crate::batch::run_join_batch(env, plan, &items, params)?;
    let OutputPlan::Project(outs) = &plan.output else {
        unreachable!("pointer bind mode implies projection output");
    };

    // Decide per output column: pointer or slot. Pointer columns require the
    // producing FROM item to supply a RecordRef on *every* row (standard
    // tables and single-pointer temp tables do).
    // Assign pointer slots per contributing item, in first-use order — the
    // paper's "one pointer to each standard tuple that contributes at least
    // one attribute".
    // `ptr_items[ptr]` is the join position pointer `ptr` points into.
    let mut ptr_items: Vec<usize> = Vec::new();
    let mut sources = Vec::with_capacity(outs.len());
    let mut slot_count = 0usize;
    for o in outs {
        match o {
            OutCol::Passthrough { idx } => {
                let lc = &plan.layout.cols[*idx];
                let item = &items[lc.item];
                if item.has_prov {
                    if let Some(offset) = item.prov_offset(lc.item_offset) {
                        let ptr = match ptr_items.iter().position(|&i| i == lc.item) {
                            Some(ptr) => ptr,
                            None => {
                                ptr_items.push(lc.item);
                                ptr_items.len() - 1
                            }
                        };
                        sources.push(ColumnSource::Pointer { ptr, offset });
                        continue;
                    }
                }
                sources.push(ColumnSource::Slot(slot_count));
                slot_count += 1;
            }
            OutCol::Computed(_) => {
                sources.push(ColumnSource::Slot(slot_count));
                slot_count += 1;
            }
        }
    }
    let map = StaticMap::new(sources.clone())?;
    let mut out = TempTable::new(bind_name, plan.schema.clone(), map)?;

    let meter = env.meter();
    for r in 0..batch.len() {
        meter.charge(Op::TempTupleBuild, 1);
        let mut ptrs = Vec::with_capacity(ptr_items.len());
        for &item in &ptr_items {
            ptrs.push(
                batch
                    .record(item, r)
                    .cloned()
                    .ok_or_else(|| SqlError::exec("missing provenance record"))?,
            );
        }
        let mut slots = Vec::with_capacity(slot_count);
        for (o, src) in outs.iter().zip(&sources) {
            if let ColumnSource::Slot(_) = src {
                match o {
                    OutCol::Passthrough { idx } => slots.push(batch.value(*idx, r).clone()),
                    OutCol::Computed(p) => {
                        slots.push(p.eval_with(&|i| batch.value(i, r).clone(), params)?)
                    }
                }
            }
        }
        out.push(ptrs, slots)?;
    }
    Ok(out)
}

/// Rows matched by a single-table predicate: `(RowId, current values)`.
type MatchedRows = Vec<(RowId, Vec<Value>)>;

/// Resolve a DML target table and collect the rows its compiled predicate
/// matches. Uses the planned index probe when present; otherwise scans.
fn match_rows(
    env: &dyn Env,
    table: &str,
    arity: usize,
    pred: &Option<crate::expr::Program>,
    probe: &Option<(usize, crate::expr::Program)>,
    params: &[Value],
) -> Result<(strip_storage::TableRef, MatchedRows)> {
    let rel = env
        .relation(table)
        .ok_or_else(|| SqlError::analyze(format!("unknown table `{table}`")))?;
    let Rel::Standard(tref) = rel else {
        return Err(SqlError::exec(format!(
            "`{table}` is read-only (temporary/bound table)"
        )));
    };
    if tref.schema().arity() != arity {
        return Err(SqlError::stale(format!(
            "table `{table}` changed shape since planning"
        )));
    }
    let probe_key = match probe {
        Some((col, kp)) if tref.index_on(*col).is_some() => Some((*col, kp.eval(&[], params)?)),
        _ => None,
    };
    // This scan feeds an UPDATE/DELETE: take the exclusive lock up front so
    // concurrent writers don't deadlock on S→X upgrades. With a planned
    // index probe the lock is key-granular (IX on the table, X on the key);
    // a full-predicate scan still X-locks the whole table.
    match &probe_key {
        Some((col, key)) => env.before_write_keyed(table, &tref.schema().column(*col).name, key)?,
        None => env.before_write(table)?,
    }

    let meter = env.meter();
    meter.charge(Op::OpenCursor, 1);
    let mut out = Vec::new();
    {
        let candidates: Vec<(RowId, RecordRef)> = match &probe_key {
            Some((col, key)) => {
                meter.charge(Op::IndexProbe, 1);
                tref.index_lookup(*col, key)
                    .unwrap_or_default()
                    .into_iter()
                    .filter_map(|id| tref.get(id).ok().map(|r| (id, r)))
                    .collect()
            }
            None => tref.scan(),
        };
        meter.charge(Op::FetchCursor, candidates.len() as u64);
        for (id, rec) in candidates {
            let vals = rec.values().to_vec();
            let keep = match pred {
                Some(p) => {
                    meter.charge(Op::EvalExpr, 1);
                    p.eval_bool(&vals, params)?
                }
                None => true,
            };
            if keep {
                out.push((id, vals));
            }
        }
    }
    meter.charge(Op::CloseCursor, 1);
    Ok((tref, out))
}

/// Execute a compiled `UPDATE`. Returns the number of rows updated.
pub fn execute_update_plan(env: &dyn Env, plan: &UpdatePlan, params: &[Value]) -> Result<usize> {
    let (_tref, matched) = match_rows(
        env,
        &plan.table,
        plan.arity,
        &plan.pred,
        &plan.probe,
        params,
    )?;
    let count = matched.len();
    for (id, old_vals) in matched {
        let mut new_vals = old_vals.clone();
        for (col, prog, increment, dtype) in &plan.assignments {
            let v = prog.eval(&old_vals, params)?;
            new_vals[*col] = if *increment {
                // `col += expr` (paper's compute_comps functions).
                let base = old_vals[*col]
                    .as_f64()
                    .ok_or_else(|| SqlError::exec("+= on non-numeric column"))?;
                let delta = v
                    .as_f64()
                    .ok_or_else(|| SqlError::exec("+= with non-numeric value"))?;
                match dtype {
                    strip_storage::DataType::Int => Value::Int((base + delta) as i64),
                    _ => Value::Float(base + delta),
                }
            } else {
                v
            };
        }
        env.dml_update(&plan.table, id, new_vals)?;
    }
    Ok(count)
}

/// Execute a compiled `DELETE`. Returns the number of rows deleted.
pub fn execute_delete_plan(env: &dyn Env, plan: &DeletePlan, params: &[Value]) -> Result<usize> {
    let (_tref, matched) = match_rows(
        env,
        &plan.table,
        plan.arity,
        &plan.pred,
        &plan.probe,
        params,
    )?;
    let count = matched.len();
    for (id, _) in matched {
        env.dml_delete(&plan.table, id)?;
    }
    Ok(count)
}

/// Execute a compiled `INSERT`. Returns the number of rows inserted.
pub fn execute_insert_plan(env: &dyn Env, plan: &InsertPlan, params: &[Value]) -> Result<usize> {
    let rel = env
        .relation(&plan.table)
        .ok_or_else(|| SqlError::analyze(format!("unknown table `{}`", plan.table)))?;
    let Rel::Standard(tref) = rel else {
        return Err(SqlError::exec(format!(
            "`{}` is read-only (temporary/bound table)",
            plan.table
        )));
    };
    if tref.schema().arity() != plan.arity {
        return Err(SqlError::stale(format!(
            "table `{}` changed shape since planning",
            plan.table
        )));
    }

    let source_rows: Vec<Vec<Value>> = match &plan.source {
        InsertSourcePlan::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut vals = Vec::with_capacity(r.len());
                for p in r {
                    vals.push(p.eval(&[], params)?);
                }
                out.push(vals);
            }
            out
        }
        InsertSourcePlan::Query(q) => execute_select(env, q, params)?.rows,
    };

    let count = source_rows.len();
    for vals in source_rows {
        if vals.len() != plan.positions.len() {
            return Err(SqlError::exec(format!(
                "INSERT provides {} values for {} columns",
                vals.len(),
                plan.positions.len()
            )));
        }
        let mut row = vec![Value::Null; plan.arity];
        for (pos, v) in plan.positions.iter().zip(vals) {
            row[*pos] = v;
        }
        // Unmentioned columns are not defaulted: base tables are
        // non-nullable, so storage will reject the Null.
        env.dml_insert(&plan.table, row)?;
    }
    Ok(count)
}

/// Execute any compiled statement.
pub fn execute_plan(env: &dyn Env, plan: &PhysicalPlan, params: &[Value]) -> Result<ResultSet> {
    match plan {
        PhysicalPlan::Select(p) => execute_select(env, p, params),
        PhysicalPlan::Insert(p) => execute_insert_plan(env, p, params).map(dml_result),
        PhysicalPlan::Update(p) => execute_update_plan(env, p, params).map(dml_result),
        PhysicalPlan::Delete(p) => execute_delete_plan(env, p, params).map(dml_result),
    }
}

fn dml_result(count: usize) -> ResultSet {
    ResultSet {
        schema: strip_storage::Schema::of(&[("count", strip_storage::DataType::Int)]).into_ref(),
        rows: vec![vec![Value::Int(count as i64)]],
    }
}

// ---------------------------------------------------------------------------
// Plan-then-execute convenience wrappers (the pre-planner API)
// ---------------------------------------------------------------------------

/// Execute a `SELECT`, returning a materialized result set.
pub fn execute_query(env: &dyn Env, q: &Query, params: &[Value]) -> Result<ResultSet> {
    let plan = plan::plan_query(env, q)?;
    execute_select(env, &plan, params)
}

/// Execute a `SELECT` and bind its result as a named temporary table.
pub fn execute_query_bound(
    env: &dyn Env,
    q: &Query,
    params: &[Value],
    bind_name: &str,
) -> Result<TempTable> {
    let plan = plan::plan_query(env, q)?;
    execute_select_bound(env, &plan, params, bind_name)
}

/// Execute an `UPDATE`. Returns the number of rows updated.
pub fn execute_update(env: &dyn Env, u: &Update, params: &[Value]) -> Result<usize> {
    let plan = plan::plan_update(env, u)?;
    execute_update_plan(env, &plan, params)
}

/// Execute a `DELETE`. Returns the number of rows deleted.
pub fn execute_delete(env: &dyn Env, d: &Delete, params: &[Value]) -> Result<usize> {
    let plan = plan::plan_delete(env, d)?;
    execute_delete_plan(env, &plan, params)
}

/// Execute an `INSERT`. Returns the number of rows inserted.
pub fn execute_insert(env: &dyn Env, ins: &Insert, params: &[Value]) -> Result<usize> {
    let plan = plan::plan_insert(env, ins)?;
    execute_insert_plan(env, &plan, params)
}
