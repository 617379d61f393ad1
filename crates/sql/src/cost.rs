//! The Volcano-style cost chooser.
//!
//! The logical planner (`logical`) fixes *what* is joined and in
//! which order; this module chooses *how*: the seed access path (full scan,
//! index point probe, rbtree range) and, per join step, index nested-loop
//! probe vs hash join vs plain nested loop. Each candidate operator gets a
//! cost in virtual microseconds derived from the same calibrated constants
//! the `strip-txn` `CostModel` charges at execution time (Table 1 of the
//! paper plus the engine primitives), fed by the incrementally-maintained
//! cardinality statistics in `strip-storage` (row counts and per-index
//! distinct-key estimates). The cheapest candidate wins; ties break toward
//! the earlier entry in `{probe, hash, nested-loop}` so plans stay
//! deterministic.
//!
//! The original syntactic chooser (probe whenever an index exists, nested
//! loop otherwise) is retained as [`PlannerMode::Syntactic`] — an ablation
//! selectable through `StripBuilder`, mirroring the `LockGranularity::Table`
//! pattern — so benchmarks can quantify what cost-based selection buys.

/// Which physical-plan chooser the planner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// Pre-refactor behavior: take an index probe whenever an index exists
    /// on an equi-join column, otherwise nested-loop; never hash join.
    Syntactic,
    /// Volcano-style: cost every candidate operator with the calibrated
    /// cost model and table/index statistics, pick the cheapest.
    #[default]
    CostBased,
}

impl PlannerMode {
    /// Stable lower-case label (benchmarks, JSON output).
    pub fn label(&self) -> &'static str {
        match self {
            PlannerMode::Syntactic => "syntactic",
            PlannerMode::CostBased => "cost_based",
        }
    }
}

// Virtual-microsecond constants mirroring `CostModel::paper_calibrated()`.
// The planner never touches a meter, so the figures are duplicated here;
// they only need to *rank* operators, not predict wall time.
pub(crate) const C_OPEN: u64 = 25; // Op::OpenCursor
pub(crate) const C_CLOSE: u64 = 10; // Op::CloseCursor
pub(crate) const C_FETCH: u64 = 10; // Op::FetchCursor
pub(crate) const C_TEMP_READ: u64 = 3; // Op::TempTupleRead
pub(crate) const C_PROBE: u64 = 12; // Op::IndexProbe
pub(crate) const C_EVAL: u64 = 2; // Op::EvalExpr
pub(crate) const C_HASH: u64 = 5; // Op::UniqueHashOp

/// Per-row fetch cost of materializing a relation: standard tables go
/// through the cursor, temp (transition/bound) tables through temp-tuple
/// reads.
pub(crate) fn fetch_unit(standard: bool) -> u64 {
    if standard {
        C_FETCH
    } else {
        C_TEMP_READ
    }
}

/// Expected rows per distinct key: `max(1, rows / distinct)`. `distinct`
/// may lag behind compaction (emptied posting lists still counted), which
/// only makes the estimate conservative.
pub(crate) fn rows_per_key(rows: u64, distinct: u64) -> u64 {
    rows.checked_div(distinct).unwrap_or(rows).max(1)
}

/// Cost of a full scan of the seed relation.
pub(crate) fn seed_scan_cost(rows: u64, standard: bool) -> u64 {
    C_OPEN + C_CLOSE + rows * fetch_unit(standard)
}

/// Cost of an index point probe on the seed (`col = const`).
pub(crate) fn seed_probe_cost(rows: u64, distinct: u64) -> u64 {
    C_PROBE + C_FETCH * rows_per_key(rows, distinct)
}

/// Cost of one join step that index-probes the inner per outer row.
pub(crate) fn step_probe_cost(outer: u64, inner: u64, distinct: u64) -> u64 {
    outer * (C_EVAL + C_PROBE + C_FETCH * rows_per_key(inner, distinct))
}

/// Cost of one hash-join step: materialize + hash the inner once, then one
/// key evaluation, one hash probe, and one emit per expected match for each
/// outer row.
pub(crate) fn step_hash_cost(outer: u64, inner: u64, inner_standard: bool, per_key: u64) -> u64 {
    let build = C_OPEN + C_CLOSE + inner * (fetch_unit(inner_standard) + C_HASH);
    build + outer * (C_EVAL + C_HASH + C_TEMP_READ * per_key)
}

/// Cost of one plain nested-loop step: materialize the inner once, then the
/// (residual-filter) equality predicate runs over the whole cross product.
pub(crate) fn step_nl_cost(outer: u64, inner: u64, inner_standard: bool) -> u64 {
    C_OPEN + C_CLOSE + inner * fetch_unit(inner_standard) + outer * inner * C_EVAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_beats_scan_for_selective_keys() {
        // Figure-4 shape: 4 rows, 3 distinct keys.
        assert!(seed_probe_cost(4, 3) < seed_scan_cost(4, true));
    }

    #[test]
    fn small_outer_prefers_index_probe_over_hash() {
        // 3 outer rows probing a 4-row indexed inner (3 distinct keys):
        // the hash build cannot amortize.
        let probe = step_probe_cost(3, 4, 3);
        let hash = step_hash_cost(3, 4, true, rows_per_key(4, 3));
        let nl = step_nl_cost(3, 4, true);
        assert!(probe < nl);
        assert!(probe < hash);
    }

    #[test]
    fn large_outer_unindexed_inner_prefers_hash() {
        // 3000 skewed feed rows against a 200-row inner with no usable
        // index from the outer side: hash join amortizes the build, the
        // nested loop pays 600k evals.
        let hash = step_hash_cost(3000, 200, true, 1);
        let nl = step_nl_cost(3000, 200, true);
        assert!(hash < nl / 10, "hash={hash} nl={nl}");
    }

    #[test]
    fn rows_per_key_is_conservative() {
        assert_eq!(rows_per_key(12, 3), 4);
        assert_eq!(rows_per_key(3, 12), 1);
        assert_eq!(rows_per_key(0, 0), 1);
        assert_eq!(rows_per_key(5, 0), 5);
    }
}
