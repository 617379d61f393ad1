//! The vectorized batch executor.
//!
//! [`RowBatch`] is the unit of execution: per join position, the rows that
//! FROM item contributes (its source: matched records of a standard table,
//! or a temporary table read in place), and per batch row one index into
//! each position's source. No column value is copied out of a record or a
//! temp tuple while joining, filtering, sorting or projecting: every read
//! goes through the record pointer (or the temp table's static map), and a
//! join step copies only the prefix's row indices. Bound tables take their
//! §6.1 pointers straight from the sources. The operators here — seed
//! access, index/hash/nested-loop join steps, filter, project, aggregate,
//! sort — each make **one** invocation per plan execution and sweep the
//! whole batch, so a rule firing evaluates its condition/action queries in
//! a single vectorized pass over the entire transition table instead of
//! interpreting row at a time.
//!
//! Semantics and meter charges are defined by the row-at-a-time reference
//! interpreter ([`crate::exec::execute_select_rowwise`]): every operator
//! charges exactly the ops the reference charges for the same input, and
//! the cached-vs-fresh proptests equivalence-check each physical plan
//! against it. Expressions evaluate through
//! [`Program::eval_with`](crate::expr::Program::eval_with) with a column
//! accessor, so no per-row gather into a contiguous slice happens.

use crate::error::Result;
use crate::exec::{probe_item, scan_item, seed_source, AggState, Env, ResolvedItem, Source};
use crate::expr::{LayoutCol, Program};
use crate::plan::{self, AggSpec, GroupedOut, JoinStep, OutCol, SelectPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use strip_storage::{Op, RecordRef, Value};

/// Lifetime count of join-pipeline invocations (plan executions through the
/// batch path). Rule-engine tests pin that one firing over an N-row
/// transition table makes one invocation per query, not one per row.
static INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Total batch join-pipeline invocations so far (process-wide).
pub fn invocations() -> u64 {
    INVOCATIONS.load(Ordering::Relaxed)
}

/// A batch of joined rows over a plan's join-order layout.
pub struct RowBatch<'p> {
    /// The joined row layout (flat column -> join position + offset).
    layout: &'p [LayoutCol],
    /// Per joined position, the rows it contributes.
    sources: Vec<Source>,
    /// `idx[pos][row]`: the batch row's index into `sources[pos]`.
    idx: Vec<Vec<usize>>,
    rows: usize,
}

impl<'p> RowBatch<'p> {
    /// A batch holding every row of `seed` at join position 0.
    fn seed(layout: &'p [LayoutCol], seed: Source) -> RowBatch<'p> {
        let rows = seed.len();
        RowBatch {
            layout,
            idx: vec![(0..rows).collect()],
            sources: vec![seed],
            rows,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The value at flat column `col` of row `r`, read in place.
    pub fn value(&self, col: usize, r: usize) -> &Value {
        let lc = &self.layout[col];
        self.sources[lc.item].value(self.idx[lc.item][r], lc.item_offset)
    }

    /// The record join position `pos` contributes to row `r`, when the
    /// item has one per row (standard tables, single-pointer temp tables).
    pub(crate) fn record(&self, pos: usize, r: usize) -> Option<&RecordRef> {
        self.sources[pos].record(self.idx[pos][r])
    }

    /// Extend every row by the next join position: output row `i` is outer
    /// row `outer[i]` joined with row `inner[i]` of `source`.
    fn join(&mut self, outer: &[usize], inner: Vec<usize>, source: Source) {
        for col in &mut self.idx {
            *col = outer.iter().map(|&r| col[r]).collect();
        }
        self.idx.push(inner);
        self.sources.push(source);
        self.rows = outer.len();
    }

    /// Keep only rows whose mask entry is true (stable).
    fn retain(&mut self, keep: &[bool]) {
        for col in &mut self.idx {
            let mut i = 0;
            col.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
        self.rows = keep.iter().filter(|k| **k).count();
    }

    /// Reorder rows by a permutation (`perm[i]` = source row of output `i`).
    fn permute(&mut self, perm: &[usize]) {
        for col in &mut self.idx {
            *col = perm.iter().map(|&i| col[i]).collect();
        }
    }
}

/// Apply residual filters assigned to one join position, in original
/// conjunct order: one vectorized sweep per filter, charging `EvalExpr`
/// per row the filter sees (survivors only reach the next filter).
fn filter_batch(
    env: &dyn Env,
    filters: &[Program],
    batch: &mut RowBatch<'_>,
    params: &[Value],
) -> Result<()> {
    let m = env.meter();
    for f in filters {
        let mut keep = Vec::with_capacity(batch.rows);
        for r in 0..batch.rows {
            m.charge(Op::EvalExpr, 1);
            keep.push(f.eval_bool_with(&|i| batch.value(i, r).clone(), params)?);
        }
        if keep.iter().any(|k| !k) {
            batch.retain(&keep);
        }
    }
    Ok(())
}

/// Run the access-path + join + filter section of a plan over a batch, and
/// report plan-quality feedback (estimated vs actual joined cardinality) to
/// the environment. Each join step first pairs every output row with its
/// outer row and inner source row, then rebuilds the batch's index columns
/// at their final size.
pub(crate) fn run_join_batch<'p>(
    env: &dyn Env,
    plan: &'p SelectPlan,
    items: &[ResolvedItem],
    params: &[Value],
) -> Result<RowBatch<'p>> {
    let m = env.meter();
    let seed = seed_source(env, plan, &items[0], params)?;
    let mut batch = RowBatch::seed(&plan.layout.cols, seed);
    filter_batch(env, &plan.filters[0], &mut batch, params)?;

    for (k, step) in plan.steps.iter().enumerate() {
        let item = &items[k + 1];
        let (outer, inner, source) = match step {
            JoinStep::IndexProbe { column, key } => {
                // Each prefix row's matches land contiguously in `recs`,
                // so the new position's indices count up from zero.
                let mut recs = Vec::with_capacity(batch.rows);
                let mut outer = Vec::with_capacity(batch.rows);
                for r in 0..batch.rows {
                    m.charge(Op::EvalExpr, 1);
                    let key = key.eval_with(&|i| batch.value(i, r).clone(), params)?;
                    let start = recs.len();
                    probe_item(env, item, *column, &key, &mut recs)?;
                    outer.extend(std::iter::repeat_n(r, recs.len() - start));
                }
                let inner = (0..recs.len()).collect();
                (outer, inner, Source::Records(recs))
            }
            JoinStep::HashJoin { column, key } => {
                // Build: hash the inner once, keyed by its values in place.
                let source = scan_item(env, item);
                m.charge(Op::UniqueHashOp, source.len() as u64);
                let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
                for i in 0..source.len() {
                    table.entry(source.value(i, *column)).or_default().push(i);
                }
                // Probe: one key evaluation + hash probe per prefix row,
                // one tuple read per emitted match.
                let mut hits = Vec::with_capacity(batch.rows);
                for r in 0..batch.rows {
                    m.charge(Op::EvalExpr, 1);
                    let key = key.eval_with(&|i| batch.value(i, r).clone(), params)?;
                    m.charge(Op::UniqueHashOp, 1);
                    let hit = table.get(&key).map_or(&[][..], Vec::as_slice);
                    if !hit.is_empty() {
                        m.charge(Op::TempTupleRead, hit.len() as u64);
                    }
                    hits.push(hit);
                }
                let total = hits.iter().map(|h| h.len()).sum();
                let mut outer = Vec::with_capacity(total);
                let mut inner = Vec::with_capacity(total);
                for (r, hit) in hits.iter().enumerate() {
                    outer.extend(std::iter::repeat_n(r, hit.len()));
                    inner.extend_from_slice(hit);
                }
                (outer, inner, source)
            }
            JoinStep::NestedLoop => {
                let source = scan_item(env, item);
                let n = source.len();
                let total = batch.rows * n;
                let mut outer = Vec::with_capacity(total);
                let mut inner = Vec::with_capacity(total);
                for r in 0..batch.rows {
                    outer.extend(std::iter::repeat_n(r, n));
                    inner.extend(0..n);
                }
                (outer, inner, source)
            }
        };
        batch.join(&outer, inner, source);
        filter_batch(env, &plan.filters[k + 1], &mut batch, params)?;
    }

    INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    env.plan_feedback(&plan.choice, plan.est_rows, batch.rows as u64);
    Ok(batch)
}

/// Batched projection: one sweep, `EvalExpr` charged per row.
pub(crate) fn project_batch(
    env: &dyn Env,
    outs: &[OutCol],
    batch: &RowBatch<'_>,
    params: &[Value],
) -> Result<Vec<Vec<Value>>> {
    let meter = env.meter();
    let mut out = Vec::with_capacity(batch.rows);
    for r in 0..batch.rows {
        meter.charge(Op::EvalExpr, 1);
        let mut row = Vec::with_capacity(outs.len());
        for o in outs {
            match o {
                OutCol::Passthrough { idx } => row.push(batch.value(*idx, r).clone()),
                OutCol::Computed(p) => {
                    row.push(p.eval_with(&|i| batch.value(i, r).clone(), params)?)
                }
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// Batched hash aggregation: one sweep over the batch (`AggRow` per input
/// row), then one output row per group in first-seen order.
pub(crate) fn aggregate_batch(
    env: &dyn Env,
    agg: &plan::AggPlan,
    batch: &RowBatch<'_>,
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
    for r in 0..batch.rows {
        meter.charge(Op::AggRow, 1);
        let col = |i: usize| batch.value(i, r).clone();
        let mut key = Vec::with_capacity(m);
        for ke in &agg.keys {
            key.push(ke.eval_with(&col, params)?);
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
                Some(a) => Some(a.eval_with(&col, params)?),
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

/// Sort the batch in place by compiled key programs (pre-projection ORDER
/// BY). No charges, matching the reference; evaluation errors surface
/// after the sort like the reference's captured-error scheme.
pub(crate) fn sort_batch(
    keys: &[(Program, bool)],
    batch: &mut RowBatch<'_>,
    params: &[Value],
) -> Result<()> {
    let mut perm: Vec<usize> = (0..batch.rows).collect();
    let mut err = None;
    perm.sort_by(|&a, &b| {
        for (k, desc) in keys {
            let ka = k.eval_with(&|i| batch.value(i, a).clone(), params);
            let kb = k.eval_with(&|i| batch.value(i, b).clone(), params);
            let (va, vb) = match (ka, kb) {
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
    if let Some(e) = err {
        return Err(e);
    }
    if perm.iter().enumerate().any(|(i, &p)| i != p) {
        batch.permute(&perm);
    }
    Ok(())
}
