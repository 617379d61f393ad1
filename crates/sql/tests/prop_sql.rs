//! Property-based tests for the SQL layer: expression round-trips through a
//! pretty-printer, evaluation laws, and aggregation against an in-Rust
//! reference model.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use strip_sql::ast::{BinOp, Expr, Query, SelectItem};
use strip_sql::exec::{execute_query, Env, Rel};
use strip_sql::expr::ScalarFn;
use strip_sql::parser::parse_query;
use strip_storage::{Catalog, CountingMeter, DataType, Meter, Schema, Value};

// ---------------------------------------------------------------------------
// Expression round-trip: print a random expression as SQL, parse it back,
// and require structural equality.
// ---------------------------------------------------------------------------

fn print_expr(e: &Expr) -> String {
    match e {
        Expr::NullLit => "null".to_string(),
        Expr::IsNull { expr, negated } => format!(
            "({} is {}null)",
            print_expr(expr),
            if *negated { "not " } else { "" }
        ),
        Expr::IntLit(i) => format!("{i}"),
        Expr::FloatLit(f) => format!("{f:?}"), // keeps the decimal point
        Expr::StrLit(s) => format!("'{}'", s.replace('\'', "''")),
        Expr::BoolLit(b) => format!("{b}"),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Param(_) => "?".to_string(),
        Expr::Neg(i) => format!("(- {})", print_expr(i)),
        Expr::Not(i) => format!("(not {})", print_expr(i)),
        Expr::Binary { op, left, right } => {
            format!(
                "({} {} {})",
                print_expr(left),
                op.symbol(),
                print_expr(right)
            )
        }
        Expr::Aggregate { func, arg } => match arg {
            Some(a) => format!("{}({})", func.name(), print_expr(a)),
            None => "count(*)".to_string(),
        },
        Expr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
    }
}

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        ![
            "select", "from", "where", "group", "by", "order", "limit", "and", "or", "not", "true",
            "false", "as", "bind", "sum", "count", "avg", "min", "max", "groupby", "desc", "asc",
        ]
        .contains(&s.as_str())
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        // Literals are non-negative: the lexer never produces negative
        // literals (unary minus parses as `Neg`), so negativity is expressed
        // via Neg nodes in the recursive layer.
        (0i64..1000).prop_map(Expr::IntLit),
        (0.0..100.0f64).prop_map(Expr::FloatLit),
        "[a-zA-Z ]{0,8}".prop_map(Expr::StrLit),
        any::<bool>().prop_map(Expr::BoolLit),
        ident_strategy().prop_map(|name| Expr::Column {
            qualifier: None,
            name
        }),
        (ident_strategy(), ident_strategy()).prop_map(|(q, name)| Expr::Column {
            qualifier: Some(q),
            name
        }),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(l, r, op)| {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::LtEq,
                    BinOp::Gt,
                    BinOp::GtEq,
                    BinOp::And,
                    BinOp::Or,
                ];
                Expr::Binary {
                    op: ops[(op as usize) % ops.len()],
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner, any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
        ]
    })
}

proptest! {
    #[test]
    fn expression_roundtrips_through_printer(e in expr_strategy()) {
        let sql = format!("select {} from t", print_expr(&e));
        let q = parse_query(&sql).map_err(|err| {
            TestCaseError::fail(format!("failed to parse `{sql}`: {err}"))
        })?;
        let SelectItem::Expr { expr, .. } = &q.items[0] else {
            return Err(TestCaseError::fail("no expr item"));
        };
        prop_assert_eq!(expr, &e, "sql: {}", sql);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~]{0,60}") {
        // Errors are fine; panics are not.
        let _ = strip_sql::parse_statement(&s);
    }
}

// ---------------------------------------------------------------------------
// Aggregation vs a reference model.
// ---------------------------------------------------------------------------

struct MiniEnv {
    catalog: Catalog,
    meter: CountingMeter,
}

impl Env for MiniEnv {
    fn meter(&self) -> &dyn Meter {
        &self.meter
    }
    fn relation(&self, name: &str) -> Option<Rel> {
        self.catalog.table(name).ok().map(Rel::Standard)
    }
    fn scalar_fn(&self, _name: &str) -> Option<ScalarFn> {
        None
    }
    fn dml_insert(&self, _: &str, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!()
    }
    fn dml_update(&self, _: &str, _: strip_storage::RowId, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!()
    }
    fn dml_delete(&self, _: &str, _: strip_storage::RowId) -> strip_sql::Result<()> {
        unreachable!()
    }
}

fn grouped_query() -> Query {
    parse_query(
        "select g, count(*) as n, sum(x) as s, min(x) as lo, max(x) as hi \
         from t group by g",
    )
    .unwrap()
}

proptest! {
    #[test]
    fn group_by_matches_reference(rows in proptest::collection::vec((0..5i64, -50.0..50.0f64), 0..80)) {
        let env = MiniEnv {
            catalog: Catalog::new(),
            meter: CountingMeter::new(),
        };
        let schema = Schema::of(&[("g", DataType::Int), ("x", DataType::Float)]).into_ref();
        let t = env.catalog.create_table("t", schema).unwrap();
        for (g, x) in &rows {
            t.insert(vec![(*g).into(), (*x).into()]).unwrap();
        }
        let rs = execute_query(&env, &grouped_query(), &[]).unwrap();

        // Reference.
        let mut model: HashMap<i64, (i64, f64, f64, f64)> = HashMap::new();
        for (g, x) in &rows {
            let e = model
                .entry(*g)
                .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            e.0 += 1;
            e.1 += x;
            e.2 = e.2.min(*x);
            e.3 = e.3.max(*x);
        }
        prop_assert_eq!(rs.len(), model.len());
        for i in 0..rs.len() {
            let g = rs.value(i, "g").unwrap().as_i64().unwrap();
            let (n, s, lo, hi) = model[&g];
            prop_assert_eq!(rs.value(i, "n").unwrap().as_i64(), Some(n));
            let got_s = rs.value(i, "s").unwrap().as_f64().unwrap();
            prop_assert!((got_s - s).abs() < 1e-7, "sum {} vs {}", got_s, s);
            prop_assert_eq!(rs.value(i, "lo").unwrap().as_f64(), Some(lo));
            prop_assert_eq!(rs.value(i, "hi").unwrap().as_f64(), Some(hi));
        }
    }

    #[test]
    fn join_matches_nested_loop_reference(
        left in proptest::collection::vec(0..8i64, 0..30),
        right in proptest::collection::vec(0..8i64, 0..30),
    ) {
        let env = MiniEnv {
            catalog: Catalog::new(),
            meter: CountingMeter::new(),
        };
        let schema = Schema::of(&[("k", DataType::Int)]).into_ref();
        let a = env.catalog.create_table("a", schema.clone()).unwrap();
        let b = env.catalog.create_table("b", schema).unwrap();
        for k in &left {
            a.insert(vec![(*k).into()]).unwrap();
        }
        // Give one side an index so the probe path is exercised.
        b.create_index("ix", "k", strip_storage::IndexKind::Hash).unwrap();
        for k in &right {
            b.insert(vec![(*k).into()]).unwrap();
        }
        let q = parse_query("select count(*) as n from a, b where a.k = b.k").unwrap();
        let rs = execute_query(&env, &q, &[]).unwrap();
        let want: i64 = left
            .iter()
            .map(|x| right.iter().filter(|y| *y == x).count() as i64)
            .sum();
        prop_assert_eq!(rs.single("n").unwrap().as_i64(), Some(want));
    }
}

// Silence dead-code warning for Arc import used only in some configurations.
#[allow(dead_code)]
fn _unused(_: Arc<()>) {}

// ---------------------------------------------------------------------------
// Batch-executor parity: the vectorized operators (hash join, batched
// aggregate/filter/project/sort) must return exactly the rows of the
// row-at-a-time reference interpreter — under both planner modes — and
// charge exactly the same meter counts.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn batch_executor_matches_rowwise_reference(
        left in proptest::collection::vec((0..6i64, 0..100i64), 0..40),
        right in proptest::collection::vec((0..6i64, -20..20i64), 0..40),
        threshold in -20..20i64,
    ) {
        use strip_sql::exec::{execute_select, execute_select_rowwise};
        use strip_sql::{plan_query_with, PlannerMode};

        let env = MiniEnv {
            catalog: Catalog::new(),
            meter: CountingMeter::new(),
        };
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]).into_ref();
        let a = env.catalog.create_table("a", schema.clone()).unwrap();
        // `b` is unindexed, so the cost-based planner can pick a hash join
        // while the syntactic planner nested-loops — parity must hold for
        // every operator either mode can choose.
        let b = env.catalog.create_table("b", schema).unwrap();
        for (k, v) in &left {
            a.insert(vec![(*k).into(), (*v).into()]).unwrap();
        }
        for (k, v) in &right {
            b.insert(vec![(*k).into(), (*v).into()]).unwrap();
        }

        let queries = [
            // Equi-join with residual filter and computed projection.
            "select a.k, a.v + b.v as t from a, b where a.k = b.k and b.v >= ?",
            // Batched aggregate over a join, with HAVING and ORDER BY.
            "select a.k, count(*) as n, sum(b.v) as s from a, b \
             where a.k = b.k group by a.k order by a.k",
            // Sort + limit over a plain scan.
            "select k, v from a order by v desc, k limit 10",
        ];
        let params = [Value::Int(threshold)];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let mut per_mode: Vec<Vec<Vec<Value>>> = Vec::new();
            for mode in [PlannerMode::Syntactic, PlannerMode::CostBased] {
                let sp = plan_query_with(&env, &q, mode).unwrap();
                let before = env.meter.snapshot();
                let batch = execute_select(&env, &sp, &params).unwrap();
                let mid = env.meter.snapshot();
                let rowwise = execute_select_rowwise(&env, &sp, &params).unwrap();
                let after = env.meter.snapshot();
                prop_assert_eq!(
                    &batch.rows, &rowwise.rows,
                    "batch vs row-wise rows: {} [{:?}]", sql, mode
                );
                // Charge-for-charge parity: the batch pass bills exactly
                // what the reference bills for the same plan.
                let batch_charges: Vec<(strip_storage::Op, u64)> = mid
                    .iter()
                    .map(|(op, n)| (*op, n - before.get(op).copied().unwrap_or(0)))
                    .collect();
                let row_charges: Vec<(strip_storage::Op, u64)> = after
                    .iter()
                    .map(|(op, n)| (*op, n - mid.get(op).copied().unwrap_or(0)))
                    .collect();
                prop_assert_eq!(
                    batch_charges, row_charges,
                    "batch vs row-wise charges: {} [{:?}]", sql, mode
                );
                per_mode.push(batch.rows);
            }
            // Planner modes agree on results (join order is shared; only
            // the operators differ).
            prop_assert_eq!(&per_mode[0], &per_mode[1], "modes diverge: {}", sql);
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-cache parity: a plan fetched from the cache and executed repeatedly
// must return exactly what a freshly planned execution returns.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn cached_plan_matches_fresh_plan(
        rows in proptest::collection::vec((0..5i64, -50.0..50.0f64), 0..60),
        threshold in -50.0..50.0f64,
    ) {
        use strip_sql::plan::{plan_query, PhysicalPlan};
        use strip_sql::{execute_select, PlanCache};

        let env = MiniEnv {
            catalog: Catalog::new(),
            meter: CountingMeter::new(),
        };
        let schema = Schema::of(&[("g", DataType::Int), ("x", DataType::Float)]).into_ref();
        let t = env.catalog.create_table("t", schema).unwrap();
        for (g, x) in &rows {
            t.insert(vec![(*g).into(), (*x).into()]).unwrap();
        }

        let cache = PlanCache::new();
        let queries = [
            "select g, x from t where x >= ? order by g, x",
            "select g, count(*) as n, sum(x) as s from t group by g order by g",
            "select count(*) as n from t where g = 2 and x < ?",
        ];
        let params = [Value::Float(threshold)];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let fresh = execute_query(&env, &q, &params).unwrap();
            for _ in 0..2 {
                let plan = cache
                    .get_or_plan(sql, 0, || plan_query(&env, &q).map(PhysicalPlan::Select))
                    .unwrap();
                let PhysicalPlan::Select(sp) = plan.as_ref() else { unreachable!() };
                let cached = execute_select(&env, sp, &params).unwrap();
                prop_assert_eq!(&cached.rows, &fresh.rows, "query: {}", sql);
            }
        }
        // Each query planned exactly once: second executions were hits.
        prop_assert_eq!(cache.misses(), queries.len() as u64);
        prop_assert_eq!(cache.hits(), queries.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Bound-mode parity: a result bound as a §6.1 temporary table (pointer
// columns where a FROM item supplies a record, slots elsewhere) reads back
// exactly the rows the plain query returns, and binding costs exactly the
// plain row-wise execution plus one tuple build per row.
// ---------------------------------------------------------------------------

/// An environment with standard tables and named temporary tables.
struct TempEnv {
    catalog: Catalog,
    temps: HashMap<String, Arc<strip_storage::TempTable>>,
    meter: CountingMeter,
}

impl Env for TempEnv {
    fn meter(&self) -> &dyn Meter {
        &self.meter
    }
    fn relation(&self, name: &str) -> Option<Rel> {
        match self.temps.get(name) {
            Some(t) => Some(Rel::Temp(t.clone())),
            None => self.catalog.table(name).ok().map(Rel::Standard),
        }
    }
    fn scalar_fn(&self, _name: &str) -> Option<ScalarFn> {
        None
    }
    fn dml_insert(&self, _: &str, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!()
    }
    fn dml_update(&self, _: &str, _: strip_storage::RowId, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!()
    }
    fn dml_delete(&self, _: &str, _: strip_storage::RowId) -> strip_sql::Result<()> {
        unreachable!()
    }
}

/// Per-`Op` counts charged between two meter snapshots.
fn meter_delta(
    before: &std::collections::BTreeMap<strip_storage::Op, u64>,
    after: &std::collections::BTreeMap<strip_storage::Op, u64>,
) -> std::collections::BTreeMap<strip_storage::Op, u64> {
    after
        .iter()
        .map(|(op, n)| (*op, n - before.get(op).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect()
}

proptest! {
    #[test]
    fn bound_result_matches_query_rows_and_charges(
        base in proptest::collection::vec((0..6i64, 0..100i64), 1..30),
        side in proptest::collection::vec((0..6i64, -20..20i64), 0..30),
        updates in proptest::collection::vec((0..30usize, 0..100i64), 0..12),
        listed in proptest::collection::vec((0..6i64, -5..5i64), 0..8),
        threshold in -20..20i64,
    ) {
        use strip_sql::exec::{execute_query_bound, execute_select, execute_select_bound,
                              execute_select_rowwise};
        use strip_sql::plan::BindMode;
        use strip_sql::{plan_query_with, PlannerMode};
        use strip_storage::{ColumnSource, IndexKind, Op, StaticMap, TempTable};

        let mut env = TempEnv {
            catalog: Catalog::new(),
            temps: HashMap::new(),
            meter: CountingMeter::new(),
        };
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]).into_ref();
        // `s` is indexed on `k` (probe joins); `b` is not (hash or
        // nested-loop joins, by planner mode).
        let s = env.catalog.create_table("s", schema.clone()).unwrap();
        s.create_index("ix_s_k", "k", IndexKind::Hash).unwrap();
        let b = env.catalog.create_table("b", schema.clone()).unwrap();
        let mut ids = Vec::new();
        for (k, v) in &base {
            ids.push(s.insert(vec![(*k).into(), (*v).into()]).unwrap().0);
        }
        for (k, v) in &side {
            b.insert(vec![(*k).into(), (*v).into()]).unwrap();
        }
        // Transition-style `new`/`old`: one pointer to the record version
        // plus a materialized `execute_order` slot, as the rule engine
        // builds them from a log.
        let tschema = schema.extended(&[("execute_order", DataType::Int)]).unwrap().into_ref();
        let tmap = || {
            StaticMap::new(vec![
                ColumnSource::Pointer { ptr: 0, offset: 0 },
                ColumnSource::Pointer { ptr: 0, offset: 1 },
                ColumnSource::Slot(0),
            ])
            .unwrap()
        };
        let mut new_t = TempTable::new("new", tschema.clone(), tmap()).unwrap();
        let mut old_t = TempTable::new("old", tschema, tmap()).unwrap();
        for (order, (row, v)) in updates.iter().enumerate() {
            let id = ids[row % ids.len()];
            let k = s.get(id).unwrap().get(0).clone();
            let (old, new) = s.update(id, vec![k, (*v).into()]).unwrap();
            let eo = Value::Int(order as i64 + 1);
            old_t.push(vec![old], vec![eo.clone()]).unwrap();
            new_t.push(vec![new], vec![eo]).unwrap();
        }
        // A fully materialized temp table (no record pointers).
        let lschema = Schema::of(&[("lk", DataType::Int), ("w", DataType::Int)]).into_ref();
        let mut listed_t = TempTable::materialized("listed", lschema);
        for (k, w) in &listed {
            listed_t.push_row(vec![(*k).into(), (*w).into()]).unwrap();
        }
        env.temps.insert("new".into(), Arc::new(new_t));
        env.temps.insert("old".into(), Arc::new(old_t));
        env.temps.insert("listed".into(), Arc::new(listed_t));

        let queries = [
            // The PTA condition's shape: a standard table probed per `new`
            // row, `old` joined by nested loop under a residual filter.
            "select s.k, new.v as new_v, old.v as old_v, new.execute_order \
             from s, new, old \
             where s.k = new.k and new.execute_order = old.execute_order",
            // Two-way with a computed slot and a parameter filter.
            "select new.k, new.v - old.v as d from new, old \
             where new.execute_order = old.execute_order and new.v >= ?",
            // Standard-standard join through an unindexed inner.
            "select s.k, s.v, b.v as bv from s, b where s.k = b.k and b.v >= ?",
            // A slot-only temp table beside a standard and a pointer temp.
            "select listed.lk, w, s.v, new.execute_order from listed, s, new \
             where listed.lk = s.k and s.k = new.k",
            // Ordered: bound fully materialized.
            "select b.k, b.v from b, listed where b.k = listed.lk order by b.v, b.k",
        ];
        let params = [Value::Int(threshold)];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            for mode in [PlannerMode::Syntactic, PlannerMode::CostBased] {
                let sp = plan_query_with(&env, &q, mode).unwrap();
                let plain = execute_select(&env, &sp, &params).unwrap();
                let m0 = env.meter.snapshot();
                let bound = execute_select_bound(&env, &sp, &params, "bound").unwrap();
                let m1 = env.meter.snapshot();
                execute_select_rowwise(&env, &sp, &params).unwrap();
                let m2 = env.meter.snapshot();
                let read: Vec<Vec<Value>> = (0..bound.len())
                    .map(|r| (0..bound.schema().arity()).map(|c| bound.value(r, c).clone()).collect())
                    .collect();
                prop_assert_eq!(&read, &plain.rows, "bound vs plain rows: {} [{:?}]", sql, mode);
                // Binding builds one tuple per row. A materialized bind
                // runs the plain query first; a pointer bind builds its
                // tuples in place of the projection, which the reference
                // bills one `EvalExpr` per row.
                let mut want = meter_delta(&m1, &m2);
                let rows = read.len() as u64;
                if rows > 0 {
                    *want.entry(Op::TempTupleBuild).or_default() += rows;
                    if sp.bind_mode == BindMode::Pointer {
                        let e = want.get_mut(&Op::EvalExpr).expect("projection charged");
                        *e -= rows;
                        if *e == 0 {
                            want.remove(&Op::EvalExpr);
                        }
                    }
                }
                prop_assert_eq!(
                    meter_delta(&m0, &m1), want,
                    "bound vs row-wise charges: {} [{:?}]", sql, mode
                );
            }
            let by_query = execute_query_bound(&env, &q, &params, "bound").unwrap();
            let plain = execute_query(&env, &q, &params).unwrap();
            let read: Vec<Vec<Value>> = by_query.iter_rows().collect();
            prop_assert_eq!(&read, &plain.rows, "execute_query_bound: {}", sql);
        }
    }
}
