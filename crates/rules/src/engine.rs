//! Commit-time rule processing (paper §6.3).
//!
//! "Rule processing in STRIP occurs at the end of a transaction. At this
//! time, the transaction's log is scanned to see which events have occurred,
//! and hence which rules have been triggered. If a rule is triggered, its
//! transition tables are built during the log pass. After the pass through
//! the log, each triggered rule is considered in turn. First, its condition
//! is checked. If the results are to be bound, a temporary table is built.
//! If the condition evaluates to true, any other queries in the evaluate
//! clause are computed and bound as well. Finally a task is created to
//! perform the rule action."
//!
//! The engine is executor-agnostic: it reports the actions to spawn through
//! a callback; `strip-core` wraps them into [`strip_txn::Task`]s.

use crate::def::{CompiledRule, RuleCatalog, RuleQuery};
use crate::error::{Result, RuleError};
use crate::transition::{any_column_updated, build_transition_tables, TransitionTables};
use crate::unique::{ActionPayload, Dispatch, UniqueFiring, UniqueManager};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use strip_obs::{EventKind, ObsSink, TraceCtx};
use strip_sql::exec::{execute_select, execute_select_bound, Env, Rel};
use strip_sql::expr::ScalarFn;
use strip_sql::plan::{plan_query, PhysicalPlan, RelMeta};
use strip_sql::DeltaSpec;
use strip_sql::PlanCache;
use strip_storage::{
    fold_name, ColumnSource, DataType, Meter, Op, RowId, Schema, SchemaRef, StaticMap, TempTable,
    Value,
};
use strip_txn::TxnLog;

/// How derived data is maintained when a rule action runs.
///
/// Threaded through `StripBuilder` like `LockGranularity` and
/// `PlannerMode`; `Recompute` is the ablation that forces every action
/// through its user function even when a delta path exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Delta-capable rules ([`crate::def::DeltaClass::Linear`]) with a
    /// registered [`DeltaSpec`] apply `Δ = Σ w·(new − old)` in place; all
    /// other rules fall back to their user function.
    #[default]
    Delta,
    /// Every action runs its user function (full recompute) — the oracle
    /// and ablation baseline.
    Recompute,
}

impl MaintenanceMode {
    /// Stable lower-case label (benchmarks, JSON output).
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceMode::Delta => "delta",
            MaintenanceMode::Recompute => "recompute",
        }
    }
}

/// An action transaction to enqueue, reported by
/// [`RuleEngine::process_commit`].
pub struct SpawnAction {
    /// The triggering rule.
    pub rule: String,
    /// The user function to run.
    pub func: String,
    /// The shared control-block payload (bound tables inside).
    pub payload: Arc<ActionPayload>,
    /// Absolute release time in µs (commit time + `after` delay).
    pub release_us: u64,
    /// When set, the action applies this delta spec to the bound table
    /// instead of calling the user function (rule classified linear, spec
    /// registered, engine in [`MaintenanceMode::Delta`]).
    pub delta: Option<Arc<DeltaSpec>>,
}

/// An [`Env`] overlay that resolves a base table's transition tables
/// (`inserted`/`deleted`/`new`/`old`) before falling back to the base
/// environment: the environment rule conditions and evaluate queries run
/// in.
pub struct OverlayEnv<'a> {
    base: &'a dyn Env,
    overlay: &'a TransitionTables,
}

impl<'a> OverlayEnv<'a> {
    /// Wrap `base`, resolving the transition-table names in `overlay`
    /// first.
    pub fn new(base: &'a dyn Env, overlay: &'a TransitionTables) -> OverlayEnv<'a> {
        OverlayEnv { base, overlay }
    }
}

impl Env for OverlayEnv<'_> {
    fn meter(&self) -> &dyn Meter {
        self.base.meter()
    }

    fn relation(&self, name: &str) -> Option<Rel> {
        if let Some(t) = self.overlay.get(name) {
            return Some(Rel::Temp(t.clone()));
        }
        self.base.relation(name)
    }

    fn plan_relation(&self, name: &str) -> Option<RelMeta> {
        if let Some(t) = self.overlay.get(name) {
            return Some(RelMeta::of(&Rel::Temp(t.clone())));
        }
        self.base.plan_relation(name)
    }

    fn schema_epoch(&self) -> u64 {
        self.base.schema_epoch()
    }

    fn plan_epoch(&self) -> u64 {
        self.base.plan_epoch()
    }

    fn planner_mode(&self) -> strip_sql::PlannerMode {
        self.base.planner_mode()
    }

    fn plan_feedback(&self, choice: &str, est_rows: u64, actual_rows: u64) {
        self.base.plan_feedback(choice, est_rows, actual_rows)
    }

    fn scalar_fn(&self, name: &str) -> Option<ScalarFn> {
        self.base.scalar_fn(name)
    }

    fn before_read(&self, table: &str) -> strip_sql::Result<()> {
        self.base.before_read(table)
    }

    fn dml_insert(&self, table: &str, row: Vec<Value>) -> strip_sql::Result<()> {
        self.base.dml_insert(table, row)
    }

    fn dml_update(&self, table: &str, id: RowId, new: Vec<Value>) -> strip_sql::Result<()> {
        self.base.dml_update(table, id, new)
    }

    fn dml_delete(&self, table: &str, id: RowId) -> strip_sql::Result<()> {
        self.base.dml_delete(table, id)
    }
}

/// The rule engine: catalog + unique-transaction manager.
#[derive(Default)]
pub struct RuleEngine {
    catalog: RwLock<RuleCatalog>,
    unique: UniqueManager,
    /// Shared prepared-plan cache for condition/evaluate queries. `None`
    /// plans every invocation (standalone use); `strip-core` installs the
    /// database-wide cache so rules reuse plans across transactions.
    plan_cache: Option<Arc<PlanCache>>,
    /// Observability sink for rule-firing / coalescing / dispatch spans.
    obs: Option<Arc<ObsSink>>,
    /// Maintenance mode for rule actions (delta vs full recompute).
    maintenance: MaintenanceMode,
    /// Per-user-function delta specs; a function without one always runs
    /// as a recompute regardless of mode.
    delta_specs: RwLock<HashMap<String, Arc<DeltaSpec>>>,
}

impl RuleEngine {
    /// New empty engine.
    pub fn new() -> RuleEngine {
        RuleEngine::default()
    }

    /// New engine sharing `cache` for condition/evaluate query plans.
    pub fn with_plan_cache(cache: Arc<PlanCache>) -> RuleEngine {
        RuleEngine {
            plan_cache: Some(cache),
            ..RuleEngine::default()
        }
    }

    /// Attach an observability sink (chainable at construction).
    pub fn with_obs(mut self, obs: Arc<ObsSink>) -> RuleEngine {
        self.obs = Some(obs);
        self
    }

    /// Set the maintenance mode (chainable at construction).
    pub fn with_maintenance(mut self, mode: MaintenanceMode) -> RuleEngine {
        self.maintenance = mode;
        self
    }

    /// The engine's maintenance mode.
    pub fn maintenance(&self) -> MaintenanceMode {
        self.maintenance
    }

    /// Register the delta spec for a user function. The function's rules
    /// run as in-place delta applies when they are classified
    /// [`crate::def::DeltaClass::Linear`] and the engine is in
    /// [`MaintenanceMode::Delta`]; otherwise the spec is inert.
    pub fn register_delta(&self, func: &str, spec: DeltaSpec) {
        self.delta_specs
            .write()
            .insert(func.to_ascii_lowercase(), Arc::new(spec));
    }

    /// The delta spec registered for `func`, if any.
    pub fn delta_spec(&self, func: &str) -> Option<Arc<DeltaSpec>> {
        self.delta_specs.read().get(&*fold_name(func)).cloned()
    }

    /// The spec a firing of `rule` should apply, or `None` for the
    /// recompute path. Requires delta mode, a linear classification, a
    /// registered spec, and that the rule actually binds the spec's bound
    /// table.
    fn delta_for(&self, rule: &CompiledRule) -> Option<Arc<DeltaSpec>> {
        if self.maintenance != MaintenanceMode::Delta || !rule.delta.is_linear() {
            return None;
        }
        let spec = self.delta_spec(&rule.execute)?;
        let binds_it = rule
            .condition
            .iter()
            .chain(&rule.evaluate)
            .filter_map(|q| q.bind_as.as_deref())
            .any(|b| b.eq_ignore_ascii_case(&spec.bound_table));
        binds_it.then_some(spec)
    }

    /// Define a rule (already compiled).
    pub fn add_rule(&self, rule: CompiledRule) -> Result<()> {
        if rule.unique.is_some() {
            // §6.3: the unique hash table is created when the first rule
            // that executes the transaction is defined.
            self.unique.register_function(&rule.execute);
        }
        self.catalog.write().add(rule)?;
        Ok(())
    }

    /// Drop a rule by name.
    pub fn drop_rule(&self, name: &str) -> Result<()> {
        self.catalog.write().remove(name)
    }

    /// Enable or disable a rule without dropping it (§7.1 "deactivation").
    pub fn set_rule_enabled(&self, name: &str, enabled: bool) -> Result<()> {
        self.catalog.write().set_enabled(name, enabled)
    }

    /// Is the rule enabled?
    pub fn rule_enabled(&self, name: &str) -> bool {
        self.catalog.read().is_enabled(name)
    }

    /// All rule names.
    pub fn rule_names(&self) -> Vec<String> {
        self.catalog.read().names()
    }

    /// Rule by name.
    pub fn rule(&self, name: &str) -> Option<Arc<CompiledRule>> {
        self.catalog.read().rule(name).cloned()
    }

    /// The unique manager (for action startup and diagnostics).
    pub fn unique(&self) -> &UniqueManager {
        &self.unique
    }

    /// Mark an action payload as started: fixes its bound tables and removes
    /// the pending-hash entry (§6.3). Call as the action task's first step.
    pub fn begin_action(&self, payload: &Arc<ActionPayload>, meter: &dyn Meter) {
        self.unique.begin_action(payload, meter);
    }

    /// Process a committing transaction's log: detect events, evaluate
    /// triggered rules' conditions, build bound tables, and dispatch action
    /// transactions. `spawn` is called once per action transaction to
    /// enqueue (merged firings don't spawn).
    ///
    /// `env` must resolve the base tables; transition tables are overlaid
    /// internally. `commit_us` is the triggering transaction's commit time
    /// and `txn_id` its id (0 when unknown) — both flow into the trace.
    pub fn process_commit(
        &self,
        env: &dyn Env,
        log: &TxnLog,
        commit_us: u64,
        txn_id: u64,
        spawn: &mut dyn FnMut(SpawnAction),
    ) -> Result<()> {
        self.process_commit_ctx(env, log, commit_us, txn_id, TraceCtx::NONE, spawn)
    }

    /// [`RuleEngine::process_commit`] with causal identity. `ctx` is the
    /// committing transaction's root span; every rule firing becomes a child
    /// span, every dispatched action a grandchild, and a coalesced firing
    /// attaches its trace as an extra parent of the existing action span —
    /// the lineage DAG the `strip-obs` reconstructor replays.
    pub fn process_commit_ctx(
        &self,
        env: &dyn Env,
        log: &TxnLog,
        commit_us: u64,
        txn_id: u64,
        ctx: TraceCtx,
        spawn: &mut dyn FnMut(SpawnAction),
    ) -> Result<()> {
        if log.is_empty() {
            return Ok(());
        }
        let meter = env.meter();

        // Which tables changed? (single log pass; §6.3)
        let mut touched: Vec<&str> = Vec::new();
        for e in log.entries() {
            if !touched.contains(&e.table()) {
                touched.push(e.table());
            }
        }

        let catalog = self.catalog.read();
        let cache = self.plan_cache.as_deref();
        // Every triggered rule's clauses run before any firing is
        // dispatched, so a clause that fails leaves every pending payload
        // as it was.
        let mut fired: Vec<(&CompiledRule, HashMap<String, TempTable>)> = Vec::new();
        for table in touched {
            // The table's schema and transition tables are fetched and
            // built at most once, and shared by all rules on it.
            let mut schema: Option<SchemaRef> = None;
            let mut transitions: Option<TransitionTables> = None;
            for rule in catalog.rules_on(table) {
                if !catalog.is_enabled(&rule.name) {
                    continue;
                }
                meter.charge(Op::RuleCheck, 1);
                if !rule_triggered(rule, log, env, table, &mut schema)? {
                    continue;
                }
                if transitions.is_none() {
                    let schema = schema_of(&mut schema, env, table)?;
                    transitions = Some(build_transition_tables(log, table, schema, meter)?);
                }
                let tt = transitions.as_ref().expect("built above");
                let rule_env = OverlayEnv::new(env, tt);

                // Condition: every query must return ≥ 1 row. Evaluate
                // clause: results only passed to the action.
                let mut bound: HashMap<String, TempTable> = HashMap::new();
                let mut condition_holds = true;
                for q in &rule.condition {
                    if !run_bindable(&rule_env, q, commit_us, &mut bound, cache, ctx)? {
                        condition_holds = false;
                        break;
                    }
                }
                if !condition_holds {
                    continue;
                }
                for q in &rule.evaluate {
                    run_bindable(&rule_env, q, commit_us, &mut bound, cache, ctx)?;
                }
                fired.push((rule, bound));
            }
        }
        if fired.is_empty() {
            return Ok(());
        }
        self.dispatch(fired, meter, commit_us, txn_id, ctx, spawn)
    }

    /// Dispatch a commit's firings, in rule order. The unique ones go to
    /// the unique manager as one batch, which checks every partition
    /// before it changes any payload; only then are events traced and
    /// actions spawned.
    fn dispatch(
        &self,
        mut fired: Vec<(&CompiledRule, HashMap<String, TempTable>)>,
        meter: &dyn Meter,
        commit_us: u64,
        txn_id: u64,
        ctx: TraceCtx,
        spawn: &mut dyn FnMut(SpawnAction),
    ) -> Result<()> {
        // One firing span per (rule, commit), child of the root.
        let fires: Vec<TraceCtx> = fired
            .iter()
            .map(|_| {
                if ctx.is_none() {
                    TraceCtx::NONE
                } else {
                    ctx.child()
                }
            })
            .collect();
        let batch: Vec<UniqueFiring<'_>> = fired
            .iter_mut()
            .zip(&fires)
            .filter_map(|((rule, bound), &fire)| {
                Some(UniqueFiring {
                    func: &rule.execute,
                    unique_cols: rule.unique.as_deref()?,
                    bound: std::mem::take(bound),
                    ctx: fire,
                })
            })
            .collect();
        let mut dispatched = self
            .unique
            .dispatch_batch(batch, meter, commit_us)?
            .into_iter();

        for ((rule, bound), fire) in fired.into_iter().zip(fires) {
            if let Some(obs) = &self.obs {
                obs.event_ctx(
                    commit_us,
                    txn_id,
                    EventKind::RuleFire,
                    &rule.name,
                    0,
                    fire,
                    ctx.span,
                );
            }
            let release_us = commit_us + rule.after_us;
            let delta = self.delta_for(rule);
            let dispatches = match rule.unique {
                None => {
                    let payload =
                        self.unique
                            .dispatch_non_unique_ctx(&rule.execute, bound, commit_us, fire);
                    vec![Dispatch::New(payload)]
                }
                Some(_) => dispatched.next().expect("one result per unique firing"),
            };
            for d in dispatches {
                match d {
                    Dispatch::New(payload) => {
                        if let Some(obs) = &self.obs {
                            obs.event_ctx(
                                commit_us,
                                txn_id,
                                EventKind::ActionDispatch,
                                &rule.execute,
                                rule.after_us,
                                payload.trace_ctx(),
                                fire.span,
                            );
                        }
                        spawn(SpawnAction {
                            rule: rule.name.clone(),
                            func: rule.execute.clone(),
                            payload,
                            release_us,
                            delta: delta.clone(),
                        });
                    }
                    Dispatch::Merged(payload) => {
                        if let Some(obs) = &self.obs {
                            // The merging firing's trace adopts the existing
                            // action span: this edge is what gives the span
                            // a second (third, ...) parent.
                            obs.event_ctx(
                                commit_us,
                                txn_id,
                                EventKind::UniqueCoalesce,
                                &rule.execute,
                                0,
                                TraceCtx {
                                    trace: fire.trace,
                                    span: payload.span,
                                },
                                fire.span,
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Does the rule's transition predicate match this transaction's events?
/// `schema` caches the table's schema across the rules on it.
fn rule_triggered(
    rule: &CompiledRule,
    log: &TxnLog,
    env: &dyn Env,
    table: &str,
    schema: &mut Option<SchemaRef>,
) -> Result<bool> {
    let has_insert = log
        .entries()
        .iter()
        .any(|e| e.table() == table && matches!(e, strip_txn::LogEntry::Insert { .. }));
    let has_delete = log
        .entries()
        .iter()
        .any(|e| e.table() == table && matches!(e, strip_txn::LogEntry::Delete { .. }));
    if rule.wants_inserted() && has_insert {
        return Ok(true);
    }
    if rule.wants_deleted() && has_delete {
        return Ok(true);
    }
    let mut filters = rule.updated_filters().peekable();
    if filters.peek().is_some() {
        let schema = schema_of(schema, env, table)?;
        for f in filters {
            let cols: &[String] = f.unwrap_or(&[]);
            if any_column_updated(log, table, schema, cols) {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// The schema of rule table `table`, looked up on first use.
fn schema_of<'s>(
    slot: &'s mut Option<SchemaRef>,
    env: &dyn Env,
    table: &str,
) -> Result<&'s SchemaRef> {
    if slot.is_none() {
        *slot = Some(base_schema(env, table)?);
    }
    Ok(slot.as_ref().expect("set above"))
}

fn base_schema(env: &dyn Env, table: &str) -> Result<SchemaRef> {
    env.relation(table)
        .map(|r| r.schema())
        .ok_or_else(|| RuleError::Definition(format!("rule table `{table}` does not exist")))
}

/// Run one condition/evaluate query. If it binds, the result (with the
/// `commit_time` system column instantiated when requested) is added to
/// `bound`. Returns whether the query produced at least one row.
///
/// With a `cache` the physical plan is fetched from the shared
/// prepared-plan cache under the clause's key (planning on a miss); a stale
/// plan — the schema changed mid-epoch in a way the epoch tag didn't
/// capture — is invalidated and replanned once. `None` plans per call.
fn run_bindable(
    env: &dyn Env,
    rq: &RuleQuery,
    commit_us: u64,
    bound: &mut HashMap<String, TempTable>,
    cache: Option<&PlanCache>,
    ctx: TraceCtx,
) -> Result<bool> {
    let plan_for = |env: &dyn Env| -> strip_sql::Result<Arc<PhysicalPlan>> {
        match cache {
            Some(c) => c.get_or_plan_ctx(&rq.plan_key, env.plan_epoch(), commit_us, ctx, || {
                plan_query(env, &rq.query).map(PhysicalPlan::Select)
            }),
            None => Ok(Arc::new(PhysicalPlan::Select(plan_query(env, &rq.query)?))),
        }
    };
    let run = |plan: &PhysicalPlan| -> strip_sql::Result<(usize, Option<TempTable>)> {
        let PhysicalPlan::Select(sp) = plan else {
            return Err(strip_sql::SqlError::analyze("rule query is not a SELECT"));
        };
        match &rq.bind_as {
            Some(name) => {
                let t = execute_select_bound(env, sp, &[], name)?;
                Ok((t.len(), Some(t)))
            }
            None => execute_select(env, sp, &[]).map(|rs| (rs.len(), None)),
        }
    };

    let plan = plan_for(env)?;
    let (rows, table) = match run(plan.as_ref()) {
        Err(e) if e.is_stale() && cache.is_some() => {
            if let Some(c) = cache {
                c.invalidate(&rq.plan_key);
            }
            let replanned = plan_for(env)?;
            run(replanned.as_ref())?
        }
        other => other?,
    };

    if let Some(name) = &rq.bind_as {
        let t = table.expect("bound execution returns a table");
        let t = if rq.commit_time.is_empty() {
            t
        } else {
            add_commit_time_columns(&t, &rq.commit_time, rq.commit_time_appended, commit_us)?
        };
        bound.insert(name.to_ascii_lowercase(), t);
    }
    Ok(rows > 0)
}

/// Rebuild a bound table with `commit_time` timestamp columns inserted at
/// the requested output positions.
fn add_commit_time_columns(
    t: &TempTable,
    positions: &[usize],
    append: bool,
    commit_us: u64,
) -> Result<TempTable> {
    let old_schema = t.schema();
    let old_sources = t.static_map().sources();
    let total = old_schema.arity() + positions.len();
    let mut columns = Vec::with_capacity(total);
    let mut sources = Vec::with_capacity(total);
    let mut extra_slot = t.static_map().n_slots();
    let mut old_i = 0usize;
    for out_i in 0..total {
        let is_ct_slot = if append {
            out_i >= old_schema.arity()
        } else {
            positions.contains(&out_i)
        };
        if is_ct_slot {
            columns.push(strip_storage::Column::new(
                "commit_time",
                DataType::Timestamp,
            ));
            sources.push(ColumnSource::Slot(extra_slot));
            extra_slot += 1;
        } else {
            let c = old_schema.column(old_i);
            columns.push(c.clone());
            sources.push(old_sources[old_i]);
            old_i += 1;
        }
    }
    let schema = Schema::new(columns)?.into_ref();
    let map = StaticMap::new(sources)?;
    let mut out = TempTable::new(t.name(), schema, map)?;
    for tup in t.tuples() {
        let mut slots = tup.slots().to_vec();
        for _ in positions {
            slots.push(Value::Timestamp(commit_us));
        }
        out.push(tup.ptrs().to_vec(), slots)?;
    }
    Ok(out)
}
