//! # strip-sql
//!
//! SQL subset and STRIP rule-DDL front end plus a volcano-style executor.
//!
//! * [`lexer`] / [`parser`] / [`ast`] — hand-written front end covering
//!   `CREATE TABLE/INDEX/VIEW/RULE` (the full Figure-2 rule grammar),
//!   `SELECT` with joins/`GROUP BY`/aggregates, and `INSERT`/`UPDATE`
//!   (including the paper's `SET col += expr`)/`DELETE`.
//! * [`expr`] — name-resolved expressions, the compiled [`expr::Program`]
//!   evaluator, and the scalar-function registry.
//! * `logical` — the logical planner: FROM resolution, conjunct
//!   classification, and mode-independent greedy join ordering.
//! * [`cost`] — the Volcano-style cost chooser ([`cost::PlannerMode`]):
//!   scan/probe/range and probe/hash/nested-loop selection priced with the
//!   calibrated cost model over incrementally-maintained table statistics.
//! * [`plan`] — physical planning: logical analysis + cost choice →
//!   [`plan::PhysicalPlan`] with compiled filters and outputs.
//! * [`exec`] — plan execution entry points, DML, and bound-table output
//!   using the §6.1 pointer-tuple scheme; also the row-at-a-time reference
//!   interpreter [`exec::execute_select_rowwise`].
//! * [`batch`] — the vectorized executor: [`batch::RowBatch`] operators
//!   (join, filter, project, aggregate, sort) over row indices into the
//!   joined records and temp tables, making one plan invocation per rule
//!   firing over the whole transition table.
//! * [`cache`] — the prepared-plan cache keyed by statement text and plan
//!   epoch (schema epoch folded with the statistics epoch), shared by
//!   ad-hoc queries, rule conditions, and timers.
//!
//! The executor is deliberately independent of transactions: it runs against
//! an [`exec::Env`] supplied by `strip-core`, which routes reads through
//! lock acquisition and writes through transaction logging.

pub mod ast;
pub mod batch;
pub mod cache;
pub mod cost;
pub mod delta;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
mod logical;
pub mod parser;
pub mod plan;

pub use ast::Statement;
pub use batch::{invocations as batch_invocations, RowBatch};
pub use cache::{PlanCache, PLAN_CACHE_ENTRY_BYTES};
pub use cost::PlannerMode;
pub use delta::{
    checkpoint, delta_apply, digest_result, digest_rows, DeltaMutant, DeltaOutcome, DeltaSpec,
    DeltaStats,
};
pub use error::{Result, SqlError};
pub use exec::{
    execute_delete, execute_insert, execute_plan, execute_query, execute_query_bound,
    execute_select, execute_select_bound, execute_select_rowwise, execute_update, Env, Rel,
    ResultSet,
};
pub use expr::{BExpr, Layout, Program, ScalarFn};
pub use parser::{parse_query, parse_script, parse_statement};
pub use plan::{plan_query_with, IndexMeta, PhysicalPlan, RelMeta};
