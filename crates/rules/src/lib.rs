//! # strip-rules
//!
//! The STRIP active-rule engine — the paper's primary contribution.
//!
//! * [`def`] — compiled rule definitions and the rule catalog (Figure 2).
//! * [`transition`] — transition tables (`inserted`/`deleted`/`new`/`old`
//!   with `execute_order`) built from the transaction log at commit.
//! * [`unique`] — **unique transactions**: at most one pending action
//!   transaction per user function (and per unique-column combination),
//!   with bound-table rows from later firings appended across transaction
//!   boundaries (§2, §6.3, Appendix A).
//! * [`engine`] — commit-time rule processing: event detection, condition
//!   evaluation, bound-table construction (including the `commit_time`
//!   system column), and action dispatch.

pub mod def;
pub mod engine;
pub mod error;
pub mod transition;
pub mod unique;

pub use def::{CompiledRule, DeltaClass, RuleCatalog, RuleQuery};
pub use engine::{MaintenanceMode, OverlayEnv, RuleEngine, SpawnAction};
pub use error::{Result, RuleError};
pub use transition::{
    build_transition_tables, execute_order_column, transition_schema, TransitionTables,
};
pub use unique::{ActionPayload, Dispatch, PayloadState, UniqueFiring, UniqueManager};
