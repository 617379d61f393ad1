//! The planner: AST + catalog metadata → [`PhysicalPlan`].
//!
//! Planning is separated from execution so that a plan can be prepared once
//! and executed many times (the prepared-plan cache in `strip-core` keys
//! plans by statement text and schema epoch). The planner never touches
//! data: it consults [`Env::plan_relation`] for schemas, row-count
//! estimates, and index metadata — no locks are taken, no meter charges are
//! made, and plain views are *planned* (for their output schema) rather
//! than materialized.
//!
//! A [`SelectPlan`] records every decision the old monolithic interpreter
//! made on the fly:
//!
//! * the greedy **join order** (seed with the smallest input, then attach
//!   the table reachable through an equi-join predicate, preferring one
//!   with a usable index);
//! * the seed **access path** — full [`Access::Scan`], hash/rbtree point
//!   probe ([`Access::IndexEq`], with commuted `const = col` predicates
//!   normalized), or an ordered-index range scan ([`Access::IndexRange`])
//!   when conjuncts give both a lower and an upper bound on an
//!   rbtree-indexed column;
//! * per join step, an **index nested-loop probe** or a plain nested loop;
//! * residual **filters**, pinned to the earliest join position where all
//!   their columns are available;
//! * the **output stage**: projection or hash aggregation, with sorting
//!   placed before or after projection exactly as the interpreter chose.
//!
//! All expressions are compiled to [`Program`]s (resolved column offsets,
//! no per-row name lookups) at plan time.

use crate::ast::*;
use crate::cost::{self, PlannerMode};
use crate::error::{Result, SqlError};
use crate::exec::{Env, Rel};
use crate::expr::{bind_expr, BExpr, Layout, LayoutCol, Program, ScalarFn};
use crate::logical::{self, layout_of, split_conjuncts};
use strip_storage::{DataType, IndexKind, Schema, SchemaRef};

// ---------------------------------------------------------------------------
// Catalog metadata used by the planner
// ---------------------------------------------------------------------------

/// Planner-visible metadata for one secondary index.
#[derive(Debug, Clone, Copy)]
pub struct IndexMeta {
    /// Indexed column offset.
    pub column: usize,
    /// Index structure.
    pub kind: IndexKind,
    /// Distinct-key estimate at plan time (join selectivity: expected rows
    /// per probe ≈ `est_rows / distinct_keys`).
    pub distinct_keys: usize,
}

/// What the planner needs to know about a relation — schema, size estimate,
/// index metadata, and per-column distinct counts — without taking any
/// lock-manager locks (unindexed-column statistics come from a bounded,
/// cached sample behind short-lived storage latches).
#[derive(Debug, Clone)]
pub struct RelMeta {
    /// The relation's schema.
    pub schema: SchemaRef,
    /// Estimated row count (drives greedy join ordering and operator costs).
    pub est_rows: usize,
    /// Metadata for each secondary index.
    pub indexes: Vec<IndexMeta>,
    /// True for standard (catalog) tables; temporary/bound tables and views
    /// are not standard and cannot be probed or written.
    pub standard: bool,
    /// Distinct-count estimate per column offset: exact index key counts
    /// where an index exists, sampled estimates for unindexed standard
    /// columns, exact counts for (small) temporary tables. Empty when the
    /// relation's data is unavailable at plan time (e.g. unexpanded views);
    /// a `0` entry likewise means "unknown".
    pub col_distincts: Vec<usize>,
}

impl RelMeta {
    /// Derive metadata from a resolved relation (the default
    /// [`Env::plan_relation`] path).
    pub fn of(rel: &Rel) -> RelMeta {
        match rel {
            Rel::Standard(t) => RelMeta {
                schema: t.schema().clone(),
                est_rows: t.len(),
                indexes: t
                    .indexes()
                    .iter()
                    .map(|ix| IndexMeta {
                        column: ix.column(),
                        kind: ix.kind(),
                        distinct_keys: ix.distinct_keys(),
                    })
                    .collect(),
                standard: true,
                col_distincts: (0..t.schema().columns().len())
                    .map(|c| t.distinct_estimate(c))
                    .collect(),
            },
            Rel::Temp(t) => RelMeta {
                schema: t.schema().clone(),
                est_rows: t.len(),
                indexes: Vec::new(),
                standard: false,
                col_distincts: temp_distincts(t),
            },
        }
    }

    pub(crate) fn index_kind_on(&self, column: usize) -> Option<IndexKind> {
        self.indexes
            .iter()
            .find(|m| m.column == column)
            .map(|m| m.kind)
    }

    pub(crate) fn has_index_on(&self, column: usize) -> bool {
        self.standard && self.index_kind_on(column).is_some()
    }

    /// Distinct-value estimate for `column`: the index's exact key count
    /// when one exists, otherwise the sampled/scanned column statistic.
    /// `None` only when the column's data was unavailable at plan time.
    pub(crate) fn distinct_on(&self, column: usize) -> Option<usize> {
        self.indexes
            .iter()
            .find(|m| m.column == column)
            .map(|m| m.distinct_keys)
            .or_else(|| self.col_distincts.get(column).copied().filter(|&d| d > 0))
    }
}

/// Exact per-column distinct counts of a temporary table, capped: transition
/// and bound tables are per-commit small, but a runaway temp table falls
/// back to a scaled estimate over the first rows rather than a full scan.
fn temp_distincts(t: &strip_storage::TempTable) -> Vec<usize> {
    const SAMPLE_ROWS: usize = 2048;
    let rows = t.len();
    let sampled = rows.min(SAMPLE_ROWS);
    let ncols = t.schema().columns().len();
    (0..ncols)
        .map(|c| {
            let mut seen = std::collections::HashSet::new();
            for i in 0..sampled {
                seen.insert(t.value(i, c).clone());
            }
            strip_storage::estimate_distinct(seen.len(), sampled, rows)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Plan structures
// ---------------------------------------------------------------------------

/// A compiled statement, ready for (repeated) execution.
#[allow(clippy::large_enum_variant)] // always behind the plan cache's Arc
pub enum PhysicalPlan {
    /// `SELECT`.
    Select(SelectPlan),
    /// `INSERT`.
    Insert(InsertPlan),
    /// `UPDATE`.
    Update(UpdatePlan),
    /// `DELETE`.
    Delete(DeletePlan),
}

/// One FROM item, in declaration order. The executor re-resolves the
/// relation by name on every run (locks, overlays, and view expansion are
/// per-execution concerns).
pub struct PlannedItem {
    /// Alias (lower-cased).
    pub alias: String,
    /// Table name exactly as written (resolution and error messages).
    pub table: String,
    /// Arity the plan was built against — a mismatch at execution time
    /// means the plan is stale.
    pub arity: usize,
}

/// Access path for the seed (first in join order) item.
pub enum Access {
    /// Full table / temp-table scan.
    Scan,
    /// Hash or rbtree point probe: `column = key`.
    IndexEq {
        /// Column offset within the seed item.
        column: usize,
        /// Key over (no) input columns; parameters allowed.
        key: Program,
    },
    /// Ordered-index range scan: `lo <= column <= hi` (inclusive). The
    /// originating conjuncts are retained as filters, so strict bounds
    /// stay correct.
    IndexRange {
        /// Column offset within the seed item.
        column: usize,
        /// Lower bound.
        lo: Program,
        /// Upper bound.
        hi: Program,
    },
}

/// How join position `k` (k ≥ 1) attaches to the joined prefix.
pub enum JoinStep {
    /// Index nested-loop: evaluate `key` over the prefix row, probe the
    /// item's index on `column`.
    IndexProbe {
        /// Column offset within the joined item.
        column: usize,
        /// Key over the joined prefix row.
        key: Program,
    },
    /// Hash join: materialize the inner once and hash it on `column`;
    /// evaluate `key` over the prefix row and probe the hash table. Chosen
    /// by the cost-based planner when the equi-join column has no usable
    /// index (or the build amortizes better than repeated probes); never
    /// chosen syntactically.
    HashJoin {
        /// Column offset within the joined item (hash-build key).
        column: usize,
        /// Key over the joined prefix row.
        key: Program,
    },
    /// Plain nested loop (inner materialized once).
    NestedLoop,
}

/// A select item after binding: a passthrough column or a computed program.
pub enum OutCol {
    /// Direct column passthrough (flat offset into the joined row).
    /// Eligible for pointer-column output in bound tables.
    Passthrough {
        /// Flat offset into the joined row.
        idx: usize,
    },
    /// Computed expression.
    Computed(Program),
}

/// One aggregate accumulator slot.
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument over the joined row (`None` for `count(*)`).
    pub arg: Option<Program>,
    /// True when the argument is integer-typed (`sum` stays integral).
    pub int_input: bool,
}

/// A grouped select item over the outer row `[keys..., aggregates...]`.
pub enum GroupedOut {
    /// Index into the outer row.
    OuterCol(usize),
    /// Expression over outer-row offsets.
    Expr(Program),
}

/// The hash-aggregation stage.
pub struct AggPlan {
    /// Group-key expressions over the joined row.
    pub keys: Vec<Program>,
    /// Accumulator slots (select items and HAVING combined).
    pub aggs: Vec<AggSpec>,
    /// HAVING over the outer row.
    pub having: Option<Program>,
    /// Output items over the outer row.
    pub outs: Vec<GroupedOut>,
}

/// The output stage.
pub enum OutputPlan {
    /// Plain projection.
    Project(Vec<OutCol>),
    /// Hash aggregation (`GROUP BY` / aggregate select items).
    Aggregate(Box<AggPlan>),
}

/// Where sorting happens relative to projection.
pub enum SortPlan {
    /// No ORDER BY.
    None,
    /// Sort the joined rows before projection (keys over the join layout;
    /// SQL permits ordering by non-projected columns).
    Pre(Vec<(Program, bool)>),
    /// Sort the output rows after projection (keys over the output schema,
    /// qualifiers ignored).
    Post(Vec<(Program, bool)>),
}

/// How `bind as` materializes the result (§6.1).
#[derive(PartialEq, Eq, Clone, Copy)]
pub enum BindMode {
    /// Computed values only: fully materialized temp table.
    Materialize,
    /// Pointer scheme: passthrough columns backed by a provenance record
    /// become pointers; the rest become slots. The exact pointer/slot split
    /// is decided at execution time from the resolved relations.
    Pointer,
}

/// A compiled `SELECT`.
pub struct SelectPlan {
    /// FROM items in declaration order (lock-acquisition order).
    pub items: Vec<PlannedItem>,
    /// Declaration indices in join order.
    pub join_order: Vec<usize>,
    /// Cumulative arity by join position (`n + 1` entries).
    pub prefix_len: Vec<usize>,
    /// Seed access path.
    pub seed: Access,
    /// Join steps for positions `1..n`.
    pub steps: Vec<JoinStep>,
    /// `filters[k]`: residual predicates applied right after join position
    /// `k`, in original conjunct order.
    pub filters: Vec<Vec<Program>>,
    /// Layout of the joined row (join order).
    pub layout: Layout,
    /// Output stage.
    pub output: OutputPlan,
    /// Output schema.
    pub schema: SchemaRef,
    /// Sort placement.
    pub sort: SortPlan,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// `LIMIT`.
    pub limit: Option<u64>,
    /// Bound-result strategy.
    pub bind_mode: BindMode,
    /// Estimated joined-row cardinality (before the output stage). Compared
    /// against the actual count at execution time for plan-quality
    /// telemetry.
    pub est_rows: u64,
    /// Bounded plan-shape label, e.g. `probe(stocks)>hash(feed)` — one
    /// token per join position. Safe to intern: the set of labels is
    /// bounded by the set of cached plans, not by executions.
    pub choice: String,
}

/// A compiled `UPDATE`.
pub struct UpdatePlan {
    /// Target table name as written.
    pub table: String,
    /// Full WHERE predicate over the table row.
    pub pred: Option<Program>,
    /// Point-probe fast path: `(column, key)` from an indexed
    /// `col = const` conjunct.
    pub probe: Option<(usize, Program)>,
    /// `(column offset, value expression, is-increment, column type)`.
    pub assignments: Vec<(usize, Program, bool, DataType)>,
    /// Planned arity (stale check).
    pub arity: usize,
}

/// A compiled `DELETE`.
pub struct DeletePlan {
    /// Target table name as written.
    pub table: String,
    /// Full WHERE predicate over the table row.
    pub pred: Option<Program>,
    /// Point-probe fast path.
    pub probe: Option<(usize, Program)>,
    /// Planned arity (stale check).
    pub arity: usize,
}

/// Row source of an `INSERT`.
pub enum InsertSourcePlan {
    /// `VALUES` lists, compiled.
    Values(Vec<Vec<Program>>),
    /// `INSERT ... SELECT`.
    Query(Box<SelectPlan>),
}

/// A compiled `INSERT`.
pub struct InsertPlan {
    /// Target table name as written.
    pub table: String,
    /// Target column positions per source value.
    pub positions: Vec<usize>,
    /// Target table arity.
    pub arity: usize,
    /// Row source.
    pub source: InsertSourcePlan,
}

// ---------------------------------------------------------------------------
// Planner entry points
// ---------------------------------------------------------------------------

/// Plan any statement that has a physical plan (queries and DML).
pub fn plan_statement(env: &dyn Env, stmt: &Statement) -> Result<PhysicalPlan> {
    match stmt {
        Statement::Select(q) => Ok(PhysicalPlan::Select(plan_query(env, q)?)),
        Statement::Insert(i) => Ok(PhysicalPlan::Insert(plan_insert(env, i)?)),
        Statement::Update(u) => Ok(PhysicalPlan::Update(plan_update(env, u)?)),
        Statement::Delete(d) => Ok(PhysicalPlan::Delete(plan_delete(env, d)?)),
        _ => Err(SqlError::analyze("statement has no physical plan (DDL)")),
    }
}

pub(crate) fn rel_meta(env: &dyn Env, table: &str) -> Result<RelMeta> {
    env.plan_relation(table)
        .ok_or_else(|| SqlError::analyze(format!("unknown table `{table}`")))
}

/// Does the query need the aggregation pipeline?
pub(crate) fn is_grouped(q: &Query) -> bool {
    !q.group_by.is_empty()
        || q.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
}

struct BoundConj {
    expr: BExpr,
    max_col: usize,
    applied: bool,
    ast: Expr,
}

/// Plan a `SELECT` with the environment's configured planner mode.
pub fn plan_query(env: &dyn Env, q: &Query) -> Result<SelectPlan> {
    plan_query_with(env, q, env.planner_mode())
}

/// Plan a `SELECT` under an explicit [`PlannerMode`]. Logical analysis and
/// join ordering are mode-independent (`logical`); only
/// access-path and join-operator selection differ ([`crate::cost`]).
pub fn plan_query_with(env: &dyn Env, q: &Query, mode: PlannerMode) -> Result<SelectPlan> {
    let fns = |name: &str| env.scalar_fn(name);

    // Logical planning: resolve FROM items, classify conjuncts, and fix
    // the (mode-independent) greedy join order.
    let lq = logical::analyze(env, q)?;
    let order = logical::choose_join_order(&lq);
    let logical::LogicalQuery {
        items,
        metas,
        conjuncts,
        ..
    } = lq;
    let n = items.len();

    // Join-order layout and prefix arities.
    let layout = layout_of(&items, &metas, |pos| order[pos]);
    let prefix_len: Vec<usize> = {
        let mut v = Vec::with_capacity(n + 1);
        let mut acc = 0;
        v.push(0);
        for &d in &order {
            acc += metas[d].schema.arity();
            v.push(acc);
        }
        v
    };

    // Bind all conjuncts against the join-order layout.
    let mut bconj = Vec::with_capacity(conjuncts.len());
    for c in &conjuncts {
        let b = bind_expr(c, &layout, &fns)?;
        bconj.push(BoundConj {
            max_col: max_col_of(&b).unwrap_or(0),
            expr: b,
            applied: false,
            ast: c.clone(),
        });
    }

    // Seed access path. Equality probes are preferred (`where symbol = ?`
    // point lookups must not scan the table); both `col = const` and the
    // commuted `const = col` forms are recognized. Failing that, a pair of
    // bounds on an rbtree-indexed column becomes a range scan. Cost-based
    // planning additionally requires the probe to beat the scan — with the
    // calibrated constants it always does (one probe is cheaper than a
    // cursor open/close), so both modes agree on seeds; the comparison
    // documents the invariant and guards future recalibration.
    let seed_meta = &metas[order[0]];
    let seed_rows = seed_meta.est_rows as u64;
    let mut est: u64 = seed_rows;
    let mut access = Access::Scan;
    for bc in bconj.iter_mut() {
        if let Some((column, key)) = probe_plan_for(&bc.ast, &layout, 0, 0, &fns) {
            if seed_meta.has_index_on(column) {
                let distinct = seed_meta.distinct_on(column).unwrap_or(1) as u64;
                let take = match mode {
                    PlannerMode::Syntactic => true,
                    PlannerMode::CostBased => {
                        cost::seed_probe_cost(seed_rows, distinct)
                            <= cost::seed_scan_cost(seed_rows, seed_meta.standard)
                    }
                };
                if take {
                    bc.applied = true;
                    est = cost::rows_per_key(seed_rows, distinct);
                    access = Access::IndexEq {
                        column,
                        key: Program::compile(&key),
                    };
                    break;
                }
            }
        }
    }
    if matches!(access, Access::Scan) {
        if let Some((column, lo, hi)) = range_plan_for(&bconj, &layout, seed_meta, &fns) {
            est = (seed_rows / 2).max(1);
            access = Access::IndexRange {
                column,
                lo: Program::compile(&lo),
                hi: Program::compile(&hi),
            };
        }
    }
    let mut choice = format!(
        "{}({})",
        match &access {
            Access::Scan => "scan",
            Access::IndexEq { .. } => "probe",
            Access::IndexRange { .. } => "range",
        },
        items[order[0]].alias
    );

    // Join steps for positions 1..n, consuming probe/hash conjuncts, and
    // filter placement after each position.
    let mut steps = Vec::with_capacity(n.saturating_sub(1));
    let mut filters: Vec<Vec<Program>> = vec![Vec::new(); n];
    place_filters(&mut bconj, &mut filters[0], prefix_len[1]);
    for k in 1..n {
        let inner = &metas[order[k]];
        let inner_rows = inner.est_rows as u64;

        // Candidate conjuncts: the first probe-able one with a usable
        // index (index nested-loop), and the first probe-able one at all
        // (hash join — the build side needs no index).
        let mut probe_cand: Option<(usize, usize, BExpr)> = None;
        let mut equi_cand: Option<(usize, usize, BExpr)> = None;
        for (ci, bc) in bconj.iter().enumerate() {
            if bc.applied {
                continue;
            }
            if let Some((column, key)) = probe_plan_for(&bc.ast, &layout, k, prefix_len[k], &fns) {
                if equi_cand.is_none() {
                    equi_cand = Some((ci, column, key.clone()));
                }
                if inner.has_index_on(column) {
                    probe_cand = Some((ci, column, key));
                    break;
                }
            }
        }

        // Output estimate of a nested-loop step: an unconsumed equality
        // conjunct still filters the cross product down to the equi-join's
        // cardinality, so the estimate applies its selectivity instead of
        // multiplying by the full inner size (the old behaviour, kept only
        // for a genuine cross join). This is what keeps the estimate of
        // plan shapes like `scan(new)>ixjoin(comps_list)>nl(old)` honest:
        // `old` pairs 1:1 on `execute_order`, not |old|:1.
        let nl_est = |est: u64| match &equi_cand {
            Some((_, column, _)) => {
                let per_key = inner
                    .distinct_on(*column)
                    .map(|d| cost::rows_per_key(inner_rows, d as u64))
                    .unwrap_or(1);
                est.saturating_mul(per_key)
            }
            None => est.saturating_mul(inner_rows),
        };

        // (step, consumed conjunct, output-cardinality estimate, label)
        let (step, consumed, next_est, tag) = match mode {
            PlannerMode::Syntactic => match probe_cand {
                Some((ci, column, key)) => {
                    let d = inner.distinct_on(column).unwrap_or(1) as u64;
                    (
                        JoinStep::IndexProbe {
                            column,
                            key: Program::compile(&key),
                        },
                        Some(ci),
                        est.saturating_mul(cost::rows_per_key(inner_rows, d)),
                        "ixjoin",
                    )
                }
                None => (JoinStep::NestedLoop, None, nl_est(est), "nl"),
            },
            PlannerMode::CostBased => {
                let nl_cost = cost::step_nl_cost(est, inner_rows, inner.standard);
                let probe_c = probe_cand.as_ref().map(|(_, column, _)| {
                    let d = inner.distinct_on(*column).unwrap_or(1) as u64;
                    (cost::step_probe_cost(est, inner_rows, d), d)
                });
                let hash_c = equi_cand.as_ref().map(|(_, column, _)| {
                    // Expected matches per probe: exact when an index
                    // tracks the column's distinct keys, a sampled
                    // per-column statistic otherwise (unknown columns —
                    // e.g. unexpanded views — assume unique keys).
                    let per_key = inner
                        .distinct_on(*column)
                        .map(|d| cost::rows_per_key(inner_rows, d as u64))
                        .unwrap_or(1);
                    (
                        cost::step_hash_cost(est, inner_rows, inner.standard, per_key),
                        per_key,
                    )
                });
                // Cheapest wins; ties break probe > hash > nested-loop.
                let best_probe = probe_c.map(|(c, _)| c).unwrap_or(u64::MAX);
                let best_hash = hash_c.map(|(c, _)| c).unwrap_or(u64::MAX);
                if best_probe <= best_hash && best_probe <= nl_cost {
                    let (ci, column, key) = probe_cand.expect("probe candidate");
                    let (_, d) = probe_c.expect("probe cost");
                    (
                        JoinStep::IndexProbe {
                            column,
                            key: Program::compile(&key),
                        },
                        Some(ci),
                        est.saturating_mul(cost::rows_per_key(inner_rows, d)),
                        "ixjoin",
                    )
                } else if best_hash <= nl_cost {
                    let (ci, column, key) = equi_cand.expect("hash candidate");
                    let (_, per_key) = hash_c.expect("hash cost");
                    (
                        JoinStep::HashJoin {
                            column,
                            key: Program::compile(&key),
                        },
                        Some(ci),
                        est.saturating_mul(per_key),
                        "hash",
                    )
                } else {
                    (JoinStep::NestedLoop, None, nl_est(est), "nl")
                }
            }
        };
        if let Some(ci) = consumed {
            bconj[ci].applied = true;
        }
        est = next_est;
        choice.push_str(&format!(">{tag}({})", items[order[k]].alias));
        steps.push(step);
        place_filters(&mut bconj, &mut filters[k], prefix_len[k + 1]);
    }
    debug_assert!(bconj.iter().all(|b| b.applied));

    // Output stage.
    let (output, schema) = if is_grouped(q) {
        let (plan, schema) = plan_grouped(q, &layout, &fns)?;
        (OutputPlan::Aggregate(Box::new(plan)), schema)
    } else {
        let outs = bind_output(q, &layout, &fns)?;
        let schema = output_schema(&outs, &layout)?;
        (
            OutputPlan::Project(outs.into_iter().map(|(o, _, _)| o).collect()),
            schema,
        )
    };

    // Sort placement: non-grouped queries preferentially sort the joined
    // rows (ordering by non-projected columns is legal); grouped queries
    // and fallback cases sort the output rows.
    let sort = if q.order_by.is_empty() {
        SortPlan::None
    } else if matches!(output, OutputPlan::Project(_)) {
        let pre: Result<Vec<(Program, bool)>> = q
            .order_by
            .iter()
            .map(|(e, d)| bind_expr(e, &layout, &fns).map(|b| (Program::compile(&b), *d)))
            .collect();
        match pre {
            Ok(keys) => SortPlan::Pre(keys),
            Err(_) => SortPlan::Post(post_sort_keys(q, &schema, &fns)?),
        }
    } else {
        SortPlan::Post(post_sort_keys(q, &schema, &fns)?)
    };

    let grouped = matches!(output, OutputPlan::Aggregate(_));
    let bind_mode = if grouped || !q.order_by.is_empty() || q.limit.is_some() {
        BindMode::Materialize
    } else {
        BindMode::Pointer
    };

    Ok(SelectPlan {
        items,
        join_order: order,
        prefix_len,
        seed: access,
        steps,
        filters,
        layout,
        output,
        schema,
        sort,
        distinct: q.distinct,
        limit: q.limit,
        bind_mode,
        est_rows: est,
        choice,
    })
}

/// Move every unapplied conjunct whose columns fit within `upto` into
/// `slot`, preserving original conjunct order.
fn place_filters(bconj: &mut [BoundConj], slot: &mut Vec<Program>, upto: usize) {
    for bc in bconj.iter_mut() {
        if !bc.applied && bc.max_col < upto {
            bc.applied = true;
            slot.push(Program::compile(&bc.expr));
        }
    }
}

pub(crate) fn max_col_of(b: &BExpr) -> Option<usize> {
    match b {
        BExpr::Col(i) => Some(*i),
        BExpr::IsNull { expr, .. } => max_col_of(expr),
        BExpr::Neg(e) | BExpr::Not(e) => max_col_of(e),
        BExpr::Binary { left, right, .. } => match (max_col_of(left), max_col_of(right)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        },
        BExpr::Call { args, .. } => args.iter().filter_map(max_col_of).max(),
        _ => None,
    }
}

/// If `e` is `colA = colB` (or `col = const/param expr`, either side first)
/// where the column belongs to item `target` (in join order) and the other
/// side references only columns below `prefix`, return
/// `(target column offset, key expression)`.
pub(crate) fn probe_plan_for(
    e: &Expr,
    layout: &Layout,
    target: usize,
    prefix: usize,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
) -> Option<(usize, BExpr)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    for (a, b) in [(left, right), (right, left)] {
        if let Expr::Column { qualifier, name } = a.as_ref() {
            if let Ok(idx) = layout.resolve(qualifier, name) {
                let lc = &layout.cols[idx];
                if lc.item == target {
                    let key = match bind_expr(b, layout, fns) {
                        Ok(k) => k,
                        Err(_) => continue,
                    };
                    if max_col_of(&key).map(|c| c < prefix).unwrap_or(true) {
                        return Some((lc.item_offset, key));
                    }
                }
            }
        }
    }
    None
}

/// Look for a pair of constant bounds on the same rbtree-indexed seed
/// column: `col >= lo` (or `lo <= col`) together with `col <= hi`. Strict
/// bounds participate too — the conjuncts are kept as filters, so the
/// inclusive index range is merely a superset.
fn range_plan_for(
    bconj: &[BoundConj],
    layout: &Layout,
    seed_meta: &RelMeta,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
) -> Option<(usize, BExpr, BExpr)> {
    // Per seed column, in first-seen order: (offset, lo, hi).
    let mut bounds: Vec<(usize, Option<BExpr>, Option<BExpr>)> = Vec::new();
    for bc in bconj {
        if bc.applied {
            continue;
        }
        let Expr::Binary { op, left, right } = &bc.ast else {
            continue;
        };
        if !matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
            continue;
        }
        // Normalize so the column is on the left: `5 < col` reads `col > 5`.
        for (col_side, other, col_op) in [(left, right, *op), (right, left, commute(*op))] {
            let Expr::Column { qualifier, name } = col_side.as_ref() else {
                continue;
            };
            let Ok(idx) = layout.resolve(qualifier, name) else {
                continue;
            };
            let lc = &layout.cols[idx];
            if lc.item != 0 {
                continue;
            }
            let Ok(key) = bind_expr(other, layout, fns) else {
                continue;
            };
            if max_col_of(&key).is_some() {
                continue;
            }
            let entry = match bounds.iter_mut().find(|(c, _, _)| *c == lc.item_offset) {
                Some(e) => e,
                None => {
                    bounds.push((lc.item_offset, None, None));
                    bounds.last_mut().unwrap()
                }
            };
            match col_op {
                BinOp::Gt | BinOp::GtEq if entry.1.is_none() => entry.1 = Some(key),
                BinOp::Lt | BinOp::LtEq if entry.2.is_none() => entry.2 = Some(key),
                _ => {}
            }
            break;
        }
    }
    bounds
        .into_iter()
        .find(|(c, lo, hi)| {
            lo.is_some() && hi.is_some() && seed_meta.index_kind_on(*c) == Some(IndexKind::RbTree)
        })
        .map(|(c, lo, hi)| (c, lo.unwrap(), hi.unwrap()))
}

fn commute(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Output binding
// ---------------------------------------------------------------------------

fn expand_items(q: &Query, layout: &Layout) -> Result<Vec<(Expr, Option<String>)>> {
    let mut out = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Wildcard => {
                for c in &layout.cols {
                    out.push((
                        Expr::Column {
                            qualifier: Some(c.qualifier.clone()),
                            name: c.name.clone(),
                        },
                        Some(c.name.clone()),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let ql = q.to_ascii_lowercase();
                let mut any = false;
                for c in layout.cols.iter().filter(|c| c.qualifier == ql) {
                    any = true;
                    out.push((
                        Expr::Column {
                            qualifier: Some(c.qualifier.clone()),
                            name: c.name.clone(),
                        },
                        Some(c.name.clone()),
                    ));
                }
                if !any {
                    return Err(SqlError::analyze(format!("unknown alias `{q}` in `{q}.*`")));
                }
            }
            SelectItem::Expr { expr, alias } => out.push((expr.clone(), alias.clone())),
        }
    }
    Ok(out)
}

fn default_name(e: &Expr, i: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, .. } => func.name().to_string(),
        _ => format!("col{i}"),
    }
}

type NamedOut = (OutCol, String, DataType);

fn bind_output(
    q: &Query,
    layout: &Layout,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
) -> Result<Vec<NamedOut>> {
    let items = expand_items(q, layout)?;
    let mut out = Vec::with_capacity(items.len());
    for (i, (e, alias)) in items.iter().enumerate() {
        let name = alias.clone().unwrap_or_else(|| default_name(e, i));
        let b = bind_expr(e, layout, fns)?;
        match b {
            BExpr::Col(idx) => {
                out.push((OutCol::Passthrough { idx }, name, layout.cols[idx].dtype))
            }
            other => {
                let dtype = other.dtype(layout);
                out.push((OutCol::Computed(Program::compile(&other)), name, dtype));
            }
        }
    }
    Ok(out)
}

fn output_schema(outs: &[NamedOut], _layout: &Layout) -> Result<SchemaRef> {
    let columns = outs
        .iter()
        .map(|(_, name, dtype)| strip_storage::Column::new(name.clone(), *dtype))
        .collect();
    Ok(Schema::new(columns).map(Schema::into_ref)?)
}

// ---------------------------------------------------------------------------
// Grouped output
// ---------------------------------------------------------------------------

type AggSlot = (AggFunc, Option<BExpr>, bool);

/// Rewrite an AST expression into a BExpr over the outer row
/// `[k0..k_{m-1}, a0..a_{p-1}]`, registering aggregate slots on the way.
fn rewrite_grouped(
    e: &Expr,
    group_by: &[Expr],
    layout: &Layout,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
    aggs: &mut Vec<AggSlot>,
    m: usize,
) -> Result<BExpr> {
    // A subtree that syntactically equals a group-by expression reads the
    // corresponding key slot.
    if let Some(k) = group_by.iter().position(|g| g == e) {
        return Ok(BExpr::Col(k));
    }
    match e {
        Expr::Aggregate { func, arg } => {
            let (bound, int_input) = match arg {
                Some(a) => {
                    let b = bind_expr(a, layout, fns)?;
                    let int_input = b.dtype(layout) == DataType::Int;
                    (Some(b), int_input)
                }
                None => (None, false),
            };
            aggs.push((*func, bound, int_input));
            Ok(BExpr::Col(m + aggs.len() - 1))
        }
        Expr::IntLit(i) => Ok(BExpr::Lit(strip_storage::Value::Int(*i))),
        Expr::FloatLit(f) => Ok(BExpr::Lit(strip_storage::Value::Float(*f))),
        Expr::StrLit(s) => Ok(BExpr::Lit(strip_storage::Value::str(s))),
        Expr::BoolLit(b) => Ok(BExpr::Lit(strip_storage::Value::Bool(*b))),
        Expr::Param(i) => Ok(BExpr::Param(*i)),
        Expr::NullLit => Ok(BExpr::Lit(strip_storage::Value::Null)),
        Expr::IsNull { expr, negated } => Ok(BExpr::IsNull {
            expr: Box::new(rewrite_grouped(expr, group_by, layout, fns, aggs, m)?),
            negated: *negated,
        }),
        Expr::Neg(inner) => Ok(BExpr::Neg(Box::new(rewrite_grouped(
            inner, group_by, layout, fns, aggs, m,
        )?))),
        Expr::Not(inner) => Ok(BExpr::Not(Box::new(rewrite_grouped(
            inner, group_by, layout, fns, aggs, m,
        )?))),
        Expr::Binary { op, left, right } => Ok(BExpr::Binary {
            op: *op,
            left: Box::new(rewrite_grouped(left, group_by, layout, fns, aggs, m)?),
            right: Box::new(rewrite_grouped(right, group_by, layout, fns, aggs, m)?),
        }),
        Expr::Call { name, args } => {
            let f =
                fns(name).ok_or_else(|| SqlError::analyze(format!("unknown function `{name}`")))?;
            Ok(BExpr::Call {
                f,
                args: args
                    .iter()
                    .map(|a| rewrite_grouped(a, group_by, layout, fns, aggs, m))
                    .collect::<Result<_>>()?,
            })
        }
        Expr::Column { qualifier, name } => Err(SqlError::analyze(format!(
            "column `{}` must appear in GROUP BY or inside an aggregate",
            match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            }
        ))),
    }
}

fn plan_grouped(
    q: &Query,
    layout: &Layout,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
) -> Result<(AggPlan, SchemaRef)> {
    let mut key_exprs = Vec::with_capacity(q.group_by.len());
    for g in &q.group_by {
        key_exprs.push(bind_expr(g, layout, fns)?);
    }
    let m = key_exprs.len();

    let mut aggs: Vec<AggSlot> = Vec::new();
    let items = expand_items(q, layout)?;
    let mut outs = Vec::with_capacity(items.len());
    let mut columns = Vec::with_capacity(items.len());
    for (i, (e, alias)) in items.iter().enumerate() {
        let name = alias.clone().unwrap_or_else(|| default_name(e, i));
        let b = rewrite_grouped(e, &q.group_by, layout, fns, &mut aggs, m)?;
        let dtype = match &b {
            BExpr::Col(k) if *k < m => key_exprs[*k].dtype(layout),
            BExpr::Col(k) => {
                let (func, arg, int_input) = &aggs[*k - m];
                agg_dtype(*func, arg.as_ref().map(|a| a.dtype(layout)), *int_input)
            }
            other => computed_grouped_dtype(other),
        };
        match b {
            BExpr::Col(idx) => outs.push(GroupedOut::OuterCol(idx)),
            expr => outs.push(GroupedOut::Expr(Program::compile(&expr))),
        }
        columns.push(strip_storage::Column::new(name, dtype));
    }

    // HAVING rewrites through the same machinery (it may register
    // additional accumulator slots), after the select items so slot
    // numbering matches.
    let having = match &q.having {
        Some(h) => Some(Program::compile(&rewrite_grouped(
            h,
            &q.group_by,
            layout,
            fns,
            &mut aggs,
            m,
        )?)),
        None => None,
    };

    let schema = Schema::new(columns)?.into_ref();
    let plan = AggPlan {
        keys: key_exprs.iter().map(Program::compile).collect(),
        aggs: aggs
            .into_iter()
            .map(|(func, arg, int_input)| AggSpec {
                func,
                arg: arg.as_ref().map(Program::compile),
                int_input,
            })
            .collect(),
        having,
        outs,
    };
    Ok((plan, schema))
}

fn agg_dtype(func: AggFunc, arg: Option<DataType>, int_input: bool) -> DataType {
    match func {
        AggFunc::Count => DataType::Int,
        AggFunc::Sum => {
            if int_input {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        AggFunc::Avg | AggFunc::Var | AggFunc::Stddev => DataType::Float,
        AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Float),
    }
}

fn computed_grouped_dtype(e: &BExpr) -> DataType {
    match e {
        BExpr::Lit(v) => v.data_type().unwrap_or(DataType::Float),
        BExpr::Not(_) => DataType::Bool,
        BExpr::Binary { op, .. } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => DataType::Float,
            _ => DataType::Bool,
        },
        BExpr::Call { f, .. } => f.returns,
        _ => DataType::Float,
    }
}

// ---------------------------------------------------------------------------
// Sorting
// ---------------------------------------------------------------------------

/// Layout over a flat output schema (no qualifiers).
fn output_layout(schema: &SchemaRef) -> Layout {
    Layout {
        cols: schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| LayoutCol {
                qualifier: String::new(),
                name: c.name.clone(),
                dtype: c.dtype,
                item: 0,
                item_offset: i,
            })
            .collect(),
    }
}

/// Strip qualifiers from column references (ORDER BY against the
/// unqualified output schema matches names ignoring the qualifier).
fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column { name, .. } => Expr::Column {
            qualifier: None,
            name: name.clone(),
        },
        Expr::Neg(i) => Expr::Neg(Box::new(strip_qualifiers(i))),
        Expr::Not(i) => Expr::Not(Box::new(strip_qualifiers(i))),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(strip_qualifiers(left)),
            right: Box::new(strip_qualifiers(right)),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(strip_qualifiers).collect(),
        },
        Expr::Aggregate { func, arg } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(strip_qualifiers(a))),
        },
        other => other.clone(),
    }
}

fn post_sort_keys(
    q: &Query,
    schema: &SchemaRef,
    fns: &dyn Fn(&str) -> Option<ScalarFn>,
) -> Result<Vec<(Program, bool)>> {
    let layout = output_layout(schema);
    let mut keys = Vec::with_capacity(q.order_by.len());
    for (e, desc) in &q.order_by {
        keys.push((
            Program::compile(&bind_expr(&strip_qualifiers(e), &layout, fns)?),
            *desc,
        ));
    }
    Ok(keys)
}

// ---------------------------------------------------------------------------
// DML planning
// ---------------------------------------------------------------------------

fn single_table_layout(table: &str, schema: &SchemaRef) -> Layout {
    Layout {
        cols: schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| LayoutCol {
                qualifier: table.to_ascii_lowercase(),
                name: c.name.clone(),
                dtype: c.dtype,
                item: 0,
                item_offset: i,
            })
            .collect(),
    }
}

/// Predicate + probe planning shared by UPDATE and DELETE.
#[allow(clippy::type_complexity)]
fn plan_match(
    env: &dyn Env,
    table: &str,
    where_clause: &Option<Expr>,
) -> Result<(RelMeta, Layout, Option<Program>, Option<(usize, Program)>)> {
    let meta = rel_meta(env, table)?;
    if !meta.standard {
        return Err(SqlError::exec(format!(
            "`{table}` is read-only (temporary/bound table)"
        )));
    }
    let layout = single_table_layout(table, &meta.schema);
    let fns = |name: &str| env.scalar_fn(name);
    let pred = match where_clause {
        Some(w) => Some(Program::compile(&bind_expr(w, &layout, &fns)?)),
        None => None,
    };
    // Index fast path: a conjunct `col = <const expr>` with an index on col.
    let mut probe = None;
    if let Some(w) = where_clause {
        let mut conjs = Vec::new();
        split_conjuncts(w, &mut conjs);
        for c in &conjs {
            if let Some((column, key)) = probe_plan_for(c, &layout, 0, 0, &fns) {
                if meta.index_kind_on(column).is_some() {
                    probe = Some((column, Program::compile(&key)));
                    break;
                }
            }
        }
    }
    Ok((meta, layout, pred, probe))
}

/// Plan an `UPDATE`.
pub fn plan_update(env: &dyn Env, u: &Update) -> Result<UpdatePlan> {
    let (meta, layout, pred, probe) = plan_match(env, &u.table, &u.where_clause)?;
    let fns = |name: &str| env.scalar_fn(name);
    let mut assignments = Vec::with_capacity(u.assignments.len());
    for a in &u.assignments {
        let col = meta.schema.index_of_ok(&a.column)?;
        assignments.push((
            col,
            Program::compile(&bind_expr(&a.expr, &layout, &fns)?),
            a.increment,
            meta.schema.column(col).dtype,
        ));
    }
    Ok(UpdatePlan {
        table: u.table.clone(),
        pred,
        probe,
        assignments,
        arity: meta.schema.arity(),
    })
}

/// Plan a `DELETE`.
pub fn plan_delete(env: &dyn Env, d: &Delete) -> Result<DeletePlan> {
    let (meta, _layout, pred, probe) = plan_match(env, &d.table, &d.where_clause)?;
    Ok(DeletePlan {
        table: d.table.clone(),
        pred,
        probe,
        arity: meta.schema.arity(),
    })
}

/// Plan an `INSERT`.
pub fn plan_insert(env: &dyn Env, ins: &Insert) -> Result<InsertPlan> {
    let meta = rel_meta(env, &ins.table)?;
    if !meta.standard {
        return Err(SqlError::exec(format!(
            "`{}` is read-only (temporary/bound table)",
            ins.table
        )));
    }
    let positions: Vec<usize> = if ins.columns.is_empty() {
        (0..meta.schema.arity()).collect()
    } else {
        let mut v = Vec::with_capacity(ins.columns.len());
        for c in &ins.columns {
            v.push(meta.schema.index_of_ok(c)?);
        }
        v
    };
    let source = match &ins.source {
        InsertSource::Values(rows) => {
            let fns = |name: &str| env.scalar_fn(name);
            let empty = Layout::default();
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut progs = Vec::with_capacity(r.len());
                for e in r {
                    progs.push(Program::compile(&bind_expr(e, &empty, &fns)?));
                }
                out.push(progs);
            }
            InsertSourcePlan::Values(out)
        }
        InsertSource::Query(q) => InsertSourcePlan::Query(Box::new(plan_query(env, q)?)),
    };
    Ok(InsertPlan {
        table: ins.table.clone(),
        positions,
        arity: meta.schema.arity(),
        source,
    })
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

impl SelectPlan {
    /// A compact, stable textual rendering of the operator tree (for tests
    /// and diagnostics).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        let seed_item = &self.items[self.join_order[0]];
        match &self.seed {
            Access::Scan => s.push_str(&format!("TableScan {}\n", seed_item.alias)),
            Access::IndexEq { column, .. } => {
                s.push_str(&format!("IndexEqScan {} col={column}\n", seed_item.alias))
            }
            Access::IndexRange { column, .. } => s.push_str(&format!(
                "IndexRangeScan {} col={column}\n",
                seed_item.alias
            )),
        }
        if !self.filters[0].is_empty() {
            s.push_str(&format!("Filter x{}\n", self.filters[0].len()));
        }
        for (k, step) in self.steps.iter().enumerate() {
            let item = &self.items[self.join_order[k + 1]];
            match step {
                JoinStep::IndexProbe { column, .. } => {
                    s.push_str(&format!("IndexJoin {} col={column}\n", item.alias))
                }
                JoinStep::HashJoin { column, .. } => {
                    s.push_str(&format!("HashJoin {} col={column}\n", item.alias))
                }
                JoinStep::NestedLoop => s.push_str(&format!("NestedLoopJoin {}\n", item.alias)),
            }
            if !self.filters[k + 1].is_empty() {
                s.push_str(&format!("Filter x{}\n", self.filters[k + 1].len()));
            }
        }
        match &self.output {
            OutputPlan::Project(outs) => s.push_str(&format!("Project x{}\n", outs.len())),
            OutputPlan::Aggregate(a) => s.push_str(&format!(
                "HashAggregate keys={} aggs={}\n",
                a.keys.len(),
                a.aggs.len()
            )),
        }
        match &self.sort {
            SortPlan::None => {}
            SortPlan::Pre(k) => s.push_str(&format!("Sort pre x{}\n", k.len())),
            SortPlan::Post(k) => s.push_str(&format!("Sort post x{}\n", k.len())),
        }
        if self.distinct {
            s.push_str("Distinct\n");
        }
        if let Some(l) = self.limit {
            s.push_str(&format!("Limit {l}\n"));
        }
        s
    }
}
