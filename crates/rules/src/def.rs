//! Compiled rule definitions and the rule catalog.

use crate::error::{Result, RuleError};
use std::collections::HashMap;
use std::sync::Arc;
use strip_sql::ast::{BinOp, BindableQuery, CreateRule, Event, Expr, Query, SelectItem};
use strip_sql::cache::INTERNAL_KEY_PREFIX;
use strip_storage::fold_name;

/// A rule after validation, ready for commit-time processing.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Rule name.
    pub name: String,
    /// Table the rule is defined on (lower-cased).
    pub table: String,
    /// Triggering events.
    pub events: Vec<Event>,
    /// Condition queries (true iff every query returns ≥ 1 row; vacuously
    /// true when empty).
    pub condition: Vec<RuleQuery>,
    /// Evaluate-clause queries (run only when the condition holds; used to
    /// pass additional bound tables to the action).
    pub evaluate: Vec<RuleQuery>,
    /// User function executed by the action transaction.
    pub execute: String,
    /// `None` = not unique; `Some([])` = coarse unique; `Some(cols)` =
    /// unique on the named bound-table columns.
    pub unique: Option<Vec<String>>,
    /// Release delay in microseconds.
    pub after_us: u64,
    /// Whether the rule's bound queries are delta-capable (see
    /// [`DeltaClass`]); computed once at compile time.
    pub delta: DeltaClass,
    /// Staleness SLO declared with the rule: the derived table (lower-cased)
    /// and its p99 lag bound in µs. Registered with the observability sink
    /// when the rule is installed.
    pub slo: Option<(String, u64)>,
}

/// A condition or evaluate query, prepared once when the rule is created so
/// that commit-time processing only looks its plan up and runs it.
#[derive(Debug, Clone)]
pub struct RuleQuery {
    /// The query with its bare `commit_time` select items stripped (§2):
    /// the column is instantiated at bind time with the triggering
    /// transaction's commit time.
    pub query: Query,
    /// Bound-table name, if the result is bound.
    pub bind_as: Option<String>,
    /// Output positions where `commit_time` columns are re-inserted.
    pub commit_time: Vec<usize>,
    /// True when a wildcard makes those positions unusable; the columns are
    /// then appended at the end instead.
    pub commit_time_appended: bool,
    /// Prepared-plan cache key: internal (no SQL text equals it) and one per
    /// (rule, clause), so the plan it names is always of `query`.
    pub plan_key: String,
}

impl RuleQuery {
    fn prepare(bq: &BindableQuery, rule: &str, clause: &str, i: usize) -> RuleQuery {
        let (query, commit_time, commit_time_appended) = extract_commit_time(&bq.query);
        RuleQuery {
            query,
            bind_as: bq.bind_as.clone(),
            commit_time,
            commit_time_appended,
            plan_key: format!("{INTERNAL_KEY_PREFIX}rule:{rule}:{clause}:{i}"),
        }
    }
}

/// Strip bare `commit_time` select items; return the rewritten query, the
/// output positions where the column should be re-inserted, and whether the
/// positions are unusable because wildcards expand to an unknown width (in
/// which case the commit_time columns are appended at the end instead).
fn extract_commit_time(q: &Query) -> (Query, Vec<usize>, bool) {
    let mut positions = Vec::new();
    let mut items = Vec::with_capacity(q.items.len());
    let mut has_wildcard = false;
    for (i, item) in q.items.iter().enumerate() {
        let is_ct = match item {
            SelectItem::Expr {
                expr:
                    Expr::Column {
                        qualifier: None,
                        name,
                    },
                ..
            } => name == "commit_time",
            _ => false,
        };
        if matches!(
            item,
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_)
        ) {
            has_wildcard = true;
        }
        if is_ct {
            positions.push(i);
        } else {
            items.push(item.clone());
        }
    }
    let mut q2 = q.clone();
    q2.items = items;
    (q2, positions, has_wildcard)
}

/// Whether a rule's bound tables are a *linear* view of the transaction's
/// changes — each base change contributing exactly one row — so a
/// weighted-sum derived table can be maintained incrementally from them
/// (`Δ = Σ w·(new − old)`) instead of recomputed from scratch.
///
/// A bound query qualifies when it joins `new` with `old` paired 1:1 on
/// `execute_order` (update images of one change share it), or reads only
/// `inserted` / only `deleted`, and nothing collapses or expands the
/// per-change rows: no `distinct`, no `group by`/aggregates/`having`, no
/// `limit`. Anything else falls back to full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Every bound query yields raw per-change rows; the rule's action may
    /// run as an in-place delta apply when a [`strip_sql::DeltaSpec`] is
    /// registered for its function.
    Linear,
    /// Not incrementally maintainable; the reason names the disqualifier.
    NonLinear(&'static str),
}

impl DeltaClass {
    /// Is the rule delta-capable?
    pub fn is_linear(&self) -> bool {
        matches!(self, DeltaClass::Linear)
    }
}

/// Classify all bound queries of a rule (condition + evaluate clauses).
fn classify_rule(condition: &[BindableQuery], evaluate: &[BindableQuery]) -> DeltaClass {
    let mut any = false;
    for bq in condition.iter().chain(evaluate) {
        if bq.bind_as.is_none() {
            continue;
        }
        any = true;
        if let DeltaClass::NonLinear(why) = classify_query(&bq.query) {
            return DeltaClass::NonLinear(why);
        }
    }
    if any {
        DeltaClass::Linear
    } else {
        DeltaClass::NonLinear("rule binds no tables")
    }
}

/// Classify one bound query (see [`DeltaClass`]).
fn classify_query(q: &Query) -> DeltaClass {
    if q.distinct {
        return DeltaClass::NonLinear("distinct collapses duplicate change rows");
    }
    if !q.group_by.is_empty() || q.having.is_some() {
        return DeltaClass::NonLinear("grouped query is not a per-change view");
    }
    if q.limit.is_some() {
        return DeltaClass::NonLinear("limit truncates the change rows");
    }
    let aggregated = q.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    if aggregated {
        return DeltaClass::NonLinear("aggregate in select list");
    }

    // Which transition tables does the FROM clause read, and through which
    // aliases?
    let mut trans: Vec<(String, String)> = Vec::new(); // (table, alias)
    for t in &q.from {
        let name = t.table.to_ascii_lowercase();
        if matches!(name.as_str(), "inserted" | "deleted" | "old" | "new") {
            trans.push((name, t.alias.to_ascii_lowercase()));
        }
    }
    let mut tables: Vec<&str> = trans.iter().map(|(t, _)| t.as_str()).collect();
    tables.sort_unstable();
    if tables.windows(2).any(|w| w[0] == w[1]) {
        return DeltaClass::NonLinear("transition table joined more than once");
    }
    match tables.as_slice() {
        [] => DeltaClass::NonLinear("query reads no transition table"),
        ["inserted"] | ["deleted"] => DeltaClass::Linear,
        ["new", "old"] => {
            let alias_of = |name: &str| -> &str {
                trans
                    .iter()
                    .find(|(t, _)| t == name)
                    .map(|(_, a)| a.as_str())
                    .expect("present per match")
            };
            if paired_on_execute_order(q.where_clause.as_ref(), alias_of("new"), alias_of("old")) {
                DeltaClass::Linear
            } else {
                DeltaClass::NonLinear("new/old not paired on execute_order")
            }
        }
        _ => DeltaClass::NonLinear("unsupported transition-table combination"),
    }
}

/// Does some top-level conjunct equate `new.execute_order` with
/// `old.execute_order` (either orientation)?
fn paired_on_execute_order(pred: Option<&Expr>, new_alias: &str, old_alias: &str) -> bool {
    fn conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                conjuncts(left, out);
                conjuncts(right, out);
            }
            other => out.push(other),
        }
    }
    let Some(pred) = pred else { return false };
    let mut cs = Vec::new();
    conjuncts(pred, &mut cs);
    let eo_col = |e: &Expr| -> Option<String> {
        match e {
            Expr::Column {
                qualifier: Some(q),
                name,
            } if name.eq_ignore_ascii_case("execute_order") => Some(q.to_ascii_lowercase()),
            _ => None,
        }
    };
    cs.iter().any(|c| {
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            return false;
        };
        match (eo_col(left), eo_col(right)) {
            (Some(a), Some(b)) => {
                (a == new_alias && b == old_alias) || (a == old_alias && b == new_alias)
            }
            _ => false,
        }
    })
}

impl CompiledRule {
    /// Validate and compile an AST rule definition.
    pub fn compile(ast: &CreateRule) -> Result<CompiledRule> {
        if ast.events.is_empty() {
            return Err(RuleError::Definition(format!(
                "rule `{}` has no triggering events",
                ast.name
            )));
        }
        if let Some(cols) = &ast.unique {
            // Unique columns must be named somewhere in the bound tables'
            // select lists; full verification happens when the first firing
            // produces the bound tables, but catch the obvious case where
            // the rule binds nothing at all.
            if !cols.is_empty()
                && ast
                    .condition
                    .iter()
                    .chain(&ast.evaluate)
                    .all(|q| q.bind_as.is_none())
            {
                return Err(RuleError::Definition(format!(
                    "rule `{}` is unique on columns but binds no tables",
                    ast.name
                )));
            }
        }
        // Duplicate bind names within one rule are definition errors.
        let mut names: Vec<&str> = ast
            .condition
            .iter()
            .chain(&ast.evaluate)
            .filter_map(|q| q.bind_as.as_deref())
            .collect();
        names.sort();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(RuleError::Definition(format!(
                "rule `{}` binds the same table name twice",
                ast.name
            )));
        }
        let name = ast.name.to_ascii_lowercase();
        let prepare = |clause: &str, queries: &[BindableQuery]| -> Vec<RuleQuery> {
            queries
                .iter()
                .enumerate()
                .map(|(i, bq)| RuleQuery::prepare(bq, &name, clause, i))
                .collect()
        };
        Ok(CompiledRule {
            condition: prepare("cond", &ast.condition),
            evaluate: prepare("eval", &ast.evaluate),
            name,
            table: ast.table.to_ascii_lowercase(),
            events: ast.events.clone(),
            execute: ast.execute.to_ascii_lowercase(),
            unique: ast.unique.clone(),
            after_us: ast.after_us,
            delta: classify_rule(&ast.condition, &ast.evaluate),
            slo: ast
                .slo
                .as_ref()
                .map(|s| (s.table.to_ascii_lowercase(), s.p99_bound_us)),
        })
    }

    /// Does this rule's transition predicate match the given event kinds?
    /// `updated_any` lists, for update events, whether any of the rule's
    /// named columns changed (pre-computed by the caller per column set).
    pub fn wants_inserted(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::Inserted))
    }

    /// True if the rule triggers on deletes.
    pub fn wants_deleted(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::Deleted))
    }

    /// The column restrictions of `updated` events: `None` entry = any
    /// column.
    pub fn updated_filters(&self) -> impl Iterator<Item = Option<&[String]>> {
        self.events.iter().filter_map(|e| match e {
            Event::Updated(cols) if cols.is_empty() => Some(None),
            Event::Updated(cols) => Some(Some(cols.as_slice())),
            _ => None,
        })
    }
}

/// The rule catalog: rules indexed by name and by table, plus the per-user-
/// function uniqueness registry (a function's unique spec is fixed by the
/// first rule that executes it; the paper requires all rules sharing a
/// function to define bound tables identically, and we additionally pin the
/// unique spec).
#[derive(Debug, Default)]
pub struct RuleCatalog {
    by_name: HashMap<String, Arc<CompiledRule>>,
    by_table: HashMap<String, Vec<Arc<CompiledRule>>>,
    fn_unique: HashMap<String, Option<Vec<String>>>,
    /// Deactivated rules (paper §7.1 discusses rule deactivation as the
    /// workaround other systems need; STRIP has it as a plain convenience).
    disabled: std::collections::HashSet<String>,
}

impl RuleCatalog {
    /// New empty catalog.
    pub fn new() -> RuleCatalog {
        RuleCatalog::default()
    }

    /// Register a rule.
    pub fn add(&mut self, rule: CompiledRule) -> Result<Arc<CompiledRule>> {
        if self.by_name.contains_key(&rule.name) {
            return Err(RuleError::Definition(format!(
                "rule `{}` already exists",
                rule.name
            )));
        }
        match self.fn_unique.get(&rule.execute) {
            Some(existing) if *existing != rule.unique => {
                return Err(RuleError::Definition(format!(
                    "rule `{}` executes `{}` with a different unique spec than an existing rule",
                    rule.name, rule.execute
                )));
            }
            Some(_) => {}
            None => {
                self.fn_unique
                    .insert(rule.execute.clone(), rule.unique.clone());
            }
        }
        let rule = Arc::new(rule);
        self.by_name.insert(rule.name.clone(), rule.clone());
        self.by_table
            .entry(rule.table.clone())
            .or_default()
            .push(rule.clone());
        Ok(rule)
    }

    /// Remove a rule by name.
    pub fn remove(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.disabled.remove(&key);
        let rule = self
            .by_name
            .remove(&key)
            .ok_or_else(|| RuleError::Definition(format!("no such rule `{key}`")))?;
        if let Some(v) = self.by_table.get_mut(&rule.table) {
            v.retain(|r| r.name != key);
        }
        // Release the function's unique pin if no other rule uses it.
        if !self.by_name.values().any(|r| r.execute == rule.execute) {
            self.fn_unique.remove(&rule.execute);
        }
        Ok(())
    }

    /// Rules defined on `table`.
    pub fn rules_on(&self, table: &str) -> &[Arc<CompiledRule>] {
        self.by_table
            .get(&*fold_name(table))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Rule by name.
    pub fn rule(&self, name: &str) -> Option<&Arc<CompiledRule>> {
        self.by_name.get(&*fold_name(name))
    }

    /// Enable or disable a rule. Disabled rules stay defined but never
    /// trigger.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if !self.by_name.contains_key(&key) {
            return Err(RuleError::Definition(format!("no such rule `{key}`")));
        }
        if enabled {
            self.disabled.remove(&key);
        } else {
            self.disabled.insert(key);
        }
        Ok(())
    }

    /// Is the rule currently enabled?
    pub fn is_enabled(&self, name: &str) -> bool {
        !self.disabled.contains(&*fold_name(name))
    }

    /// All rule names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_sql::parse_statement;
    use strip_sql::Statement;

    fn compile(sql: &str) -> Result<CompiledRule> {
        let Statement::CreateRule(ast) = parse_statement(sql).unwrap() else {
            panic!("not a rule")
        };
        CompiledRule::compile(&ast)
    }

    #[test]
    fn compiles_paper_rule() {
        let r = compile(
            "create rule do_comps3 on stocks when updated price \
             if select comp from comps_list, new where comps_list.symbol = new.symbol \
             bind as matches \
             then execute compute_comps3 unique on comp after 1.0 seconds",
        )
        .unwrap();
        assert_eq!(r.table, "stocks");
        assert_eq!(r.unique, Some(vec!["comp".to_string()]));
        assert_eq!(r.after_us, 1_000_000);
        assert_eq!(
            r.updated_filters().collect::<Vec<_>>(),
            vec![Some(&["price".to_string()][..])]
        );
    }

    #[test]
    fn clauses_are_prepared_once_at_compile() {
        let r = compile(
            "create rule Stamp on t when inserted \
             if select x, commit_time from inserted bind as m \
             then evaluate select * from inserted bind as w \
             execute f",
        )
        .unwrap();
        let (c, e) = (&r.condition[0], &r.evaluate[0]);
        assert_eq!(
            c.plan_key,
            format!("{INTERNAL_KEY_PREFIX}rule:stamp:cond:0")
        );
        assert_eq!(
            e.plan_key,
            format!("{INTERNAL_KEY_PREFIX}rule:stamp:eval:0")
        );
        assert_eq!(
            c.query.items.len(),
            1,
            "commit_time stripped before planning"
        );
        assert_eq!(
            (c.commit_time.as_slice(), c.commit_time_appended),
            (&[1][..], false)
        );
        assert_eq!(c.bind_as.as_deref(), Some("m"));
        assert!(e.commit_time.is_empty());
    }

    #[test]
    fn compiles_slo_clause_lowercased() {
        let r = compile(
            "create rule r on stocks when updated price then execute f \
             slo on COMP_PRICES p99 500 ms",
        )
        .unwrap();
        assert_eq!(r.slo, Some(("comp_prices".to_string(), 500_000)));
        let r = compile("create rule r on stocks when updated then execute f").unwrap();
        assert_eq!(r.slo, None);
    }

    #[test]
    fn unique_on_columns_requires_binding() {
        let e = compile("create rule r on t when updated then execute f unique on comp");
        assert!(e.is_err());
        // Coarse unique without binding is fine.
        compile("create rule r on t when updated then execute f unique").unwrap();
    }

    #[test]
    fn duplicate_bind_names_rejected() {
        let e = compile(
            "create rule r on t when inserted \
             if select * from inserted bind as m \
             then evaluate select * from inserted bind as m \
             execute f",
        );
        assert!(e.is_err());
    }

    #[test]
    fn catalog_add_lookup_remove() {
        let mut cat = RuleCatalog::new();
        let r = compile("create rule r1 on stocks when updated then execute f unique").unwrap();
        cat.add(r).unwrap();
        assert_eq!(cat.rules_on("STOCKS").len(), 1);
        assert!(cat.rule("R1").is_some());
        assert_eq!(cat.names(), vec!["r1".to_string()]);
        cat.remove("r1").unwrap();
        assert!(cat.rules_on("stocks").is_empty());
        assert!(cat.remove("r1").is_err());
    }

    #[test]
    fn duplicate_rule_name_rejected() {
        let mut cat = RuleCatalog::new();
        cat.add(compile("create rule r on t when inserted then execute f").unwrap())
            .unwrap();
        assert!(cat
            .add(compile("create rule r on u when deleted then execute g").unwrap())
            .is_err());
    }

    #[test]
    fn paper_update_rule_is_delta_capable() {
        // The canonical PTA shape: new joined to old on execute_order, raw
        // per-change rows out.
        let r = compile(
            "create rule pta on stocks when updated price \
             if select comp, comps_list.symbol as symbol, weight, \
                old.price as old_price, new.price as new_price \
             from comps_list, new, old \
             where comps_list.symbol = new.symbol \
               and new.execute_order = old.execute_order \
             bind as matches \
             then execute compute_comps unique on comp after 1.0 seconds",
        )
        .unwrap();
        assert_eq!(r.delta, DeltaClass::Linear);
        assert!(r.delta.is_linear());
    }

    #[test]
    fn insert_only_rule_is_delta_capable() {
        let r = compile(
            "create rule ins on stocks when inserted \
             if select symbol, price from inserted bind as added \
             then execute f",
        )
        .unwrap();
        assert_eq!(r.delta, DeltaClass::Linear);
    }

    #[test]
    fn unpaired_new_old_is_not_delta_capable() {
        let r = compile(
            "create rule unp on stocks when updated price \
             if select new.price as p from new, old \
             where new.symbol = old.symbol bind as m \
             then execute f",
        )
        .unwrap();
        assert_eq!(
            r.delta,
            DeltaClass::NonLinear("new/old not paired on execute_order")
        );
    }

    #[test]
    fn aggregates_and_distinct_disqualify_delta() {
        let agg = compile(
            "create rule agg on stocks when updated \
             if select sum(price) as s from new bind as m then execute f",
        )
        .unwrap();
        assert!(!agg.delta.is_linear());
        let dst = compile(
            "create rule dst on stocks when updated \
             if select distinct symbol from new bind as m then execute f",
        )
        .unwrap();
        assert_eq!(
            dst.delta,
            DeltaClass::NonLinear("distinct collapses duplicate change rows")
        );
        let unbound = compile("create rule ub on stocks when updated then execute f").unwrap();
        assert_eq!(unbound.delta, DeltaClass::NonLinear("rule binds no tables"));
        let nontrans = compile(
            "create rule nt on stocks when updated \
             if select symbol from stocks bind as m then execute f",
        )
        .unwrap();
        assert_eq!(
            nontrans.delta,
            DeltaClass::NonLinear("query reads no transition table")
        );
    }

    #[test]
    fn function_unique_spec_is_pinned() {
        let mut cat = RuleCatalog::new();
        cat.add(compile("create rule r1 on t when inserted then execute f unique").unwrap())
            .unwrap();
        // Same function, same spec: ok (the paper explicitly allows multiple
        // rules executing the same function).
        cat.add(compile("create rule r2 on u when deleted then execute f unique").unwrap())
            .unwrap();
        // Different spec: rejected.
        assert!(cat
            .add(compile("create rule r3 on v when inserted then execute f").unwrap())
            .is_err());
        // Removing both rules releases the pin.
        cat.remove("r1").unwrap();
        cat.remove("r2").unwrap();
        cat.add(compile("create rule r3 on v when inserted then execute f").unwrap())
            .unwrap();
    }
}
