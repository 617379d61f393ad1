//! The `Strip` database facade.
//!
//! `Strip` ties together the storage catalog, the SQL front end, the lock
//! manager, the rule engine, and an executor. Two executor modes:
//!
//! * **Simulated** (default) — a deterministic discrete-event executor on a
//!   virtual single CPU with the Table-1 cost model. `execute`/`txn` run
//!   immediately at the current virtual time; triggered rule actions queue
//!   and run when the virtual clock reaches their release time
//!   (`advance_to` / `drain`). This is the mode the experiments use.
//! * **Pool** — a wall-clock worker pool; `after` delays are real time.

use crate::error::{Error, Result};
use crate::txn::{
    dml_count, not_a_query, run_task_body, run_txn, timer_task, Prepared, StmtKind, Txn, TxnKind,
    UserFn,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strip_obs::ObsSink;
use strip_rules::{CompiledRule, MaintenanceMode, RuleEngine};
use strip_sql::cache::INTERNAL_KEY_PREFIX;
use strip_sql::exec::ResultSet;
use strip_sql::expr::ScalarFn;
use strip_sql::{parse_script, parse_statement, PlanCache, Statement};
use strip_storage::{Catalog, GcStats, IndexKind, Meter, RowId, Schema, Value, ViewDef};
use strip_txn::fault::{decide, FaultDecision, FaultInjector, FaultPoint, InjectorHandle};
use strip_txn::{
    CostModel, LockManager, Policy, SimStats, Simulator, Task, TaskCtx, TxnId, Wal, WorkerPool,
};

/// Granularity of logical locking for transactional access.
///
/// `Key` (the default) is hierarchical: index-probe reads take IS on the
/// table plus S on the probed key resource (`table#column=key`), and writes
/// take IX plus X on the key resources of every indexed column of the rows
/// they touch — so transactions over disjoint keys never conflict. Scans
/// and DDL still lock whole tables, which the intention modes make safe.
/// `Table` restores the pre-hierarchical behavior (whole-table S/X only),
/// kept as an ablation baseline for the parallel-scaling benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGranularity {
    /// Whole-table S/X locks only.
    Table,
    /// Hierarchical IS/IX table intents + per-key S/X locks.
    Key,
}

/// Outcome of `Strip::execute`.
#[derive(Debug)]
pub enum ExecOutcome {
    /// DDL completed.
    Ddl,
    /// A query's rows.
    Rows(ResultSet),
    /// DML affected-row count.
    Count(usize),
}

impl ExecOutcome {
    /// The rows, if this was a query.
    pub fn rows(self) -> Option<ResultSet> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The affected-row count, if this was DML.
    pub fn count(&self) -> Option<usize> {
        match self {
            ExecOutcome::Count(n) => Some(*n),
            _ => None,
        }
    }
}

/// Outcome of [`Strip::recover_from_wal`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Committed transactions redone.
    pub committed_txns: usize,
    /// Row images inserted.
    pub rows_applied: usize,
    /// True if the WAL ended in a torn/corrupt record.
    pub torn_tail: bool,
    /// Transactions whose ops were readable but whose commit marker was
    /// missing — in flight at the crash, discarded.
    pub in_flight: Vec<u64>,
}

/// State of one periodic timer.
#[derive(Debug, Clone)]
pub(crate) struct TimerState {
    pub interval_us: u64,
    pub func: String,
    /// Remaining firings; `None` = unlimited.
    pub remaining: Option<u64>,
}

pub(crate) enum ExecutorHandle {
    Sim(Box<Mutex<Simulator>>),
    Pool(WorkerPool),
}

impl ExecutorHandle {
    /// Current time in µs (virtual in sim mode, wall in pool mode).
    fn now_us(&self) -> u64 {
        match self {
            ExecutorHandle::Sim(s) => s.lock().now_us(),
            ExecutorHandle::Pool(p) => p.now_us(),
        }
    }

    /// Queue a task on the executor.
    fn submit(&self, task: Task) {
        match self {
            ExecutorHandle::Sim(s) => s.lock().submit(task),
            ExecutorHandle::Pool(p) => p.submit(task),
        }
    }

    /// Run `work` now on the caller's thread as a task of `kind`; the tasks
    /// it spawns are queued.
    fn run_inline<R>(&self, kind: &str, work: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        match self {
            ExecutorHandle::Sim(s) => s.lock().run_inline(kind, work),
            ExecutorHandle::Pool(p) => p.run_inline(work),
        }
    }
}

/// Shared state behind a `Strip` handle.
pub struct StripInner {
    pub(crate) catalog: Catalog,
    /// Plain (non-materialized) view definitions, expanded on read.
    pub(crate) views: RwLock<HashMap<String, Arc<strip_sql::ast::Query>>>,
    /// Active periodic timers: name -> (interval_us, user function,
    /// remaining firings).
    pub(crate) timers: Mutex<HashMap<String, TimerState>>,
    pub(crate) locks: LockManager,
    pub(crate) engine: RuleEngine,
    /// Prepared-plan cache shared by ad-hoc statements, rule conditions,
    /// and view expansion. Keyed by statement text (plus the bound-table
    /// signature) and the catalog's schema epoch.
    pub(crate) plan_cache: Arc<PlanCache>,
    pub(crate) user_fns: RwLock<HashMap<String, UserFn>>,
    pub(crate) scalar_fns: RwLock<HashMap<String, ScalarFn>>,
    pub(crate) exec: ExecutorHandle,
    pub(crate) errors: Mutex<Vec<String>>,
    /// Redo-only write-ahead log; present only with `StripBuilder::durable`.
    pub(crate) wal: Option<Mutex<Wal>>,
    /// Chaos-testing fault injector consulted at the core injection points
    /// (`TxnCommit`, `LockAcquire`, `FeedSubmit`); `None` in production.
    pub(crate) injector: InjectorHandle,
    /// Set when a simulated crash fires; the database refuses further
    /// commits once dead.
    pub(crate) crashed: std::sync::atomic::AtomicBool,
    /// Observability sink shared by every layer (always present; the
    /// default is an enabled sink with a 4096-event trace ring).
    pub(crate) obs: Arc<ObsSink>,
    /// Logical-lock granularity (see [`LockGranularity`]).
    pub(crate) granularity: LockGranularity,
    /// Physical-plan chooser (see [`strip_sql::PlannerMode`]): cost-based
    /// by default, with the pre-Volcano syntactic chooser retained as an
    /// ablation baseline for the plan-quality benchmark.
    pub(crate) planner: strip_sql::PlannerMode,
    /// Derived-data maintenance mode (see [`MaintenanceMode`]): delta by
    /// default, full recompute as the ablation/oracle baseline.
    pub(crate) maintenance: MaintenanceMode,
    /// The global commit clock: the timestamp of the newest published
    /// commit. A committing transaction stamps its versions with
    /// `clock + 1` and then stores the new value (release); snapshot
    /// readers pin the value they load (acquire) and resolve every read
    /// against the committed prefix at that timestamp.
    pub(crate) commit_clock: AtomicU64,
    /// Serializes stamp-then-announce across committers, so the clock never
    /// advances past a commit whose versions are not all stamped yet.
    pub(crate) commit_publish: Mutex<()>,
    /// Active snapshot registry: pinned timestamp → number of read-only
    /// transactions pinned there. The minimum key is the version-GC
    /// horizon; pinning holds the lock while loading the clock so GC can
    /// never sweep a timestamp that is about to be registered.
    pub(crate) snapshots: Mutex<BTreeMap<u64, u64>>,
    txn_ids: AtomicU64,
}

impl StripInner {
    pub(crate) fn next_txn_id(&self) -> TxnId {
        TxnId(self.txn_ids.fetch_add(1, Ordering::Relaxed))
    }

    /// The registered user function `name`.
    pub(crate) fn user_fn(&self, name: &str) -> Result<UserFn> {
        let f = self.user_fns.read().get(name).cloned();
        f.ok_or_else(|| Error::NoSuchFunction(name.into()))
    }

    /// The epoch cached plans are tagged with. The statistics epoch is
    /// folded into the schema epoch so cached plans are invalidated when
    /// table cardinalities cross a size class (a stats change large enough
    /// to flip a cost-based plan choice). The plan cache compares epochs by
    /// equality only, so mixing the two counters into one word is sound;
    /// the multiplier just keeps schema bumps from colliding with stats
    /// bumps.
    pub(crate) fn plan_epoch(&self) -> u64 {
        self.catalog.epoch().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.catalog.stats_epoch()
    }

    /// Resolve SQL `text` through the prepared-plan cache under `key` (the
    /// text itself, outside rule actions): one lookup, and a parse only on
    /// a miss. The lookup counts nothing; running the plan counts the hit
    /// or the miss (see `Txn::run_prepared`), so text that fails to parse
    /// or that its entry point rejects counts neither. Text that starts
    /// with [`INTERNAL_KEY_PREFIX`] is parsed without a lookup (and fails
    /// to parse), so it can never reach a plan cached under an internal
    /// key.
    pub(crate) fn prepare(&self, key: &str, text: &str) -> Result<Prepared> {
        let cached = if text.starts_with(INTERNAL_KEY_PREFIX) {
            None
        } else {
            self.plan_cache.peek(key, self.plan_epoch())
        };
        Ok(match cached {
            Some(plan) => Prepared::Hit(plan),
            None => Prepared::Miss(Box::new(parse_statement(text)?)),
        })
    }

    /// Pin a snapshot at the current commit clock and register it. Holding
    /// the registry lock across the clock load closes the race where GC
    /// computes a horizon after the load but before the registration.
    pub(crate) fn pin_snapshot(&self) -> u64 {
        let mut s = self.snapshots.lock();
        let ts = self.commit_clock.load(Ordering::Acquire);
        *s.entry(ts).or_insert(0) += 1;
        ts
    }

    /// Deregister one pin at `ts`. Returns true when this was (one of) the
    /// oldest registered snapshot(s) — the GC horizon may have advanced.
    pub(crate) fn drop_snapshot(&self, ts: u64) -> bool {
        let mut s = self.snapshots.lock();
        let was_min = s.keys().next() == Some(&ts);
        if let Some(n) = s.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                s.remove(&ts);
            }
        }
        was_min
    }

    /// The version-GC horizon: the oldest pinned snapshot timestamp, or the
    /// commit clock when no snapshot is live. Versions superseded at or
    /// before the horizon are invisible to every current and future reader.
    pub(crate) fn gc_horizon(&self) -> u64 {
        let s = self.snapshots.lock();
        s.keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.commit_clock.load(Ordering::Acquire))
    }

    /// One version-GC pass over every table at the current horizon,
    /// reporting reclaim counts and the horizon gauge to the sink.
    pub(crate) fn collect_garbage(&self, detail: &str, now_us: u64) {
        let horizon = self.gc_horizon();
        let mut total = GcStats::default();
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.table(&name) {
                total.add(t.collect_versions(horizon));
            }
        }
        self.obs
            .record_version_gc(now_us, detail, horizon, total.pruned, total.freed_slots);
    }

    /// Publish rows inserted outside any transaction (recovery, materialized
    /// -view population) at one fresh commit timestamp, so snapshot readers
    /// can see them.
    pub(crate) fn publish_rows(&self, t: &strip_storage::TableRef, ids: &[RowId]) {
        if ids.is_empty() {
            return;
        }
        let _publish = self.commit_publish.lock();
        let ts = self.commit_clock.load(Ordering::Relaxed) + 1;
        for id in ids {
            t.publish_versions(*id, ts);
        }
        self.commit_clock.store(ts, Ordering::Release);
    }
}

/// Builder for [`Strip`].
pub struct StripBuilder {
    policy: Policy,
    pool_workers: Option<usize>,
    durable: bool,
    injector: InjectorHandle,
    obs: Option<Arc<ObsSink>>,
    slos: Vec<(String, u64)>,
    granularity: LockGranularity,
    planner: strip_sql::PlannerMode,
    maintenance: MaintenanceMode,
    memory_budget_bytes: Option<u64>,
}

impl Default for StripBuilder {
    fn default() -> Self {
        StripBuilder {
            policy: Policy::Fifo,
            pool_workers: None,
            durable: false,
            injector: None,
            obs: None,
            slos: Vec::new(),
            granularity: LockGranularity::Key,
            planner: strip_sql::PlannerMode::CostBased,
            maintenance: MaintenanceMode::Delta,
            memory_budget_bytes: None,
        }
    }
}

impl StripBuilder {
    /// Use a scheduling policy (FIFO / EDF / value-density / seeded).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Use the wall-clock worker-pool executor with `n` workers instead of
    /// the virtual-time simulator.
    pub fn pool(mut self, workers: usize) -> Self {
        self.pool_workers = Some(workers);
        self
    }

    /// Keep a write-ahead log of committed changes so the database can be
    /// rebuilt with [`Strip::recover_from_wal`] after a (simulated) crash.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Install a fault injector. It is threaded through the WAL, the lock
    /// manager, the simulator's dispatch loop, and the core commit and
    /// feed-submission paths.
    pub fn fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Use a specific observability sink instead of the default enabled one
    /// (e.g. `ObsSink::disabled()` to reduce every hook to one atomic load,
    /// or a sink with a larger trace ring).
    pub fn observability(mut self, obs: Arc<ObsSink>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Declare a staleness SLO for a derived table: its per-window p99
    /// staleness must stay at or under `p99_bound_us`. Equivalent to the
    /// `slo` clause of `CREATE RULE`, for rules installed through the API
    /// rather than SQL. May be called once per table.
    pub fn staleness_slo(mut self, table: impl Into<String>, p99_bound_us: u64) -> Self {
        self.slos
            .push((table.into().to_ascii_lowercase(), p99_bound_us));
        self
    }

    /// Choose the logical-lock granularity. The default is
    /// [`LockGranularity::Key`]; [`LockGranularity::Table`] restores
    /// whole-table locking (the parallel benchmark's ablation baseline).
    pub fn lock_granularity(mut self, granularity: LockGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Choose the physical-plan chooser. The default is
    /// [`strip_sql::PlannerMode::CostBased`];
    /// [`strip_sql::PlannerMode::Syntactic`] restores the pre-Volcano
    /// index-if-available chooser (the plan-quality benchmark's ablation
    /// baseline). Join order, locking, and result digests are identical
    /// across modes — only operator selection differs.
    pub fn planner_mode(mut self, mode: strip_sql::PlannerMode) -> Self {
        self.planner = mode;
        self
    }

    /// Choose how derived data is maintained. The default is
    /// [`MaintenanceMode::Delta`] — rules classified delta-capable whose
    /// function has a registered [`strip_sql::DeltaSpec`] apply
    /// `Δ = Σ w·(new − old)` in place; [`MaintenanceMode::Recompute`]
    /// forces every action through its user function (the equivalence
    /// oracle and the staleness benchmark's ablation baseline).
    pub fn maintenance_mode(mut self, mode: MaintenanceMode) -> Self {
        self.maintenance = mode;
        self
    }

    /// Declare a memory budget in bytes. The memory observer projects when
    /// the metered footprint will cross it (burn-rate style, over the
    /// trailing window deltas) and raises `projected_breach` / `over_budget`
    /// alerts in [`strip_obs::MemBudgetReport`]. Accounting itself is always
    /// on; the budget only adds the projection and alerting.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Build the database.
    pub fn build(self) -> Strip {
        let obs = self.obs.unwrap_or_else(|| ObsSink::new(4096));
        for (table, bound_us) in &self.slos {
            obs.declare_slo(table, *bound_us);
        }
        let model = CostModel::paper_calibrated();
        let exec = match self.pool_workers {
            Some(n) => {
                ExecutorHandle::Pool(WorkerPool::new(n, model, self.policy, Some(obs.clone())))
            }
            None => {
                let mut sim = Simulator::new(model, self.policy);
                sim.set_injector(self.injector.clone());
                sim.set_obs(Some(obs.clone()));
                ExecutorHandle::Sim(Box::new(Mutex::new(sim)))
            }
        };
        let plan_cache = Arc::new(PlanCache::with_obs(obs.clone()));
        let locks = LockManager::new();
        locks.set_injector(self.injector.clone());
        let wal = self
            .durable
            .then(|| Mutex::new(Wal::with_injector(self.injector.clone())));
        // Shard-latch contention feeds the same hot-resource map as logical
        // lock waits; storage stays obs-agnostic via the callback.
        let catalog = Catalog::new();
        let latch_obs = obs.clone();
        catalog.set_latch_observer(Some(Arc::new(move |resource: &str, wait_us: u64| {
            latch_obs.record_contention(resource, wait_us);
        })));
        let inner = Arc::new(StripInner {
            catalog,
            views: RwLock::new(HashMap::new()),
            timers: Mutex::new(HashMap::new()),
            locks,
            engine: RuleEngine::with_plan_cache(plan_cache.clone())
                .with_obs(obs.clone())
                .with_maintenance(self.maintenance),
            plan_cache,
            user_fns: RwLock::new(HashMap::new()),
            scalar_fns: RwLock::new(HashMap::new()),
            exec,
            errors: Mutex::new(Vec::new()),
            wal,
            injector: self.injector,
            crashed: std::sync::atomic::AtomicBool::new(false),
            obs,
            granularity: self.granularity,
            planner: self.planner,
            maintenance: self.maintenance,
            commit_clock: AtomicU64::new(0),
            commit_publish: Mutex::new(()),
            snapshots: Mutex::new(BTreeMap::new()),
            txn_ids: AtomicU64::new(1),
        });
        // Memory probe: the observer pulls exact per-table byte meters and
        // the plan-cache footprint on demand (window seals and snapshots
        // only — nothing on the per-task hot path). Weak, so the probe
        // never keeps a dropped database alive.
        let probe_inner = Arc::downgrade(&inner);
        inner.obs.memory().set_probe(Some(Arc::new(move || {
            let Some(inner) = probe_inner.upgrade() else {
                return strip_obs::MemReading::default();
            };
            strip_obs::MemReading {
                tables: inner
                    .catalog
                    .mem_tables()
                    .into_iter()
                    .map(|(table, m)| strip_obs::TableMemReading {
                        table,
                        row_bytes: m.row_bytes,
                        index_bytes: m.index_bytes,
                        version_bytes: m.version_bytes,
                    })
                    .collect(),
                plan_cache_bytes: inner.plan_cache.cached_bytes(),
            }
        })));
        if self.memory_budget_bytes.is_some() {
            inner.obs.memory().set_budget(self.memory_budget_bytes);
        }
        Strip { inner }
    }
}

/// The STRIP database. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Strip {
    inner: Arc<StripInner>,
}

impl Default for Strip {
    fn default() -> Self {
        Strip::new()
    }
}

impl Strip {
    /// A database with the paper-calibrated cost model, FIFO scheduling,
    /// and the simulated executor.
    pub fn new() -> Strip {
        StripBuilder::default().build()
    }

    /// Start building a customized database.
    pub fn builder() -> StripBuilder {
        StripBuilder::default()
    }

    // ---- time & executor --------------------------------------------------

    /// Current time in µs (virtual in sim mode, wall in pool mode).
    pub fn now_us(&self) -> u64 {
        self.inner.exec.now_us()
    }

    /// Advance virtual time to `us`, running any tasks that become due
    /// (sim mode). In pool mode this blocks until the pool is idle.
    pub fn advance_to(&self, us: u64) {
        match &self.inner.exec {
            ExecutorHandle::Sim(s) => s.lock().run_until(us),
            ExecutorHandle::Pool(p) => p.wait_idle(),
        }
    }

    /// Run everything to completion (all delayed actions included).
    /// Returns the final time.
    pub fn drain(&self) -> u64 {
        match &self.inner.exec {
            ExecutorHandle::Sim(s) => s.lock().run_to_completion(),
            ExecutorHandle::Pool(p) => {
                p.wait_idle();
                p.now_us()
            }
        }
    }

    /// Number of queued (delayed + ready) tasks.
    pub fn pending_tasks(&self) -> usize {
        match &self.inner.exec {
            ExecutorHandle::Sim(s) => s.lock().pending(),
            ExecutorHandle::Pool(p) => p.pending(),
        }
    }

    /// Executor statistics (tasks run, busy time, per-kind breakdown,
    /// plan-cache effectiveness).
    pub fn stats(&self) -> SimStats {
        let mut s = match &self.inner.exec {
            ExecutorHandle::Sim(s) => s.lock().stats().clone(),
            ExecutorHandle::Pool(p) => p.stats(),
        };
        s.plan_cache_hits = self.inner.plan_cache.hits();
        s.plan_cache_misses = self.inner.plan_cache.misses();
        let snap = self.inner.obs.snapshot();
        s.plan_choices = snap.plan_choices;
        s.card_est_sum = snap.card_est_sum;
        s.card_actual_sum = snap.card_actual_sum;
        s
    }

    /// The shared prepared-plan cache (diagnostics / benchmarks).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.inner.plan_cache
    }

    /// The observability sink: event trace, latency histograms, and the
    /// per-derived-table staleness tracker.
    pub fn obs(&self) -> &Arc<ObsSink> {
        &self.inner.obs
    }

    /// Detached memory-accounting snapshot: class gauges, per-table
    /// footprints with high-water marks, and (when a budget is declared)
    /// the capacity projection.
    pub fn memory_snapshot(&self) -> strip_obs::MemorySnapshot {
        self.inner.obs.memory_snapshot()
    }

    /// Errors recorded by background action tasks (drained).
    pub fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.errors.lock())
    }

    // ---- registration ------------------------------------------------------

    /// Register a rule-action user function (the paper's "application-
    /// provided functions that are linked into the database").
    pub fn register_function(
        &self,
        name: &str,
        f: impl for<'a> Fn(&mut Txn<'a>) -> Result<()> + Send + Sync + 'static,
    ) {
        self.inner
            .user_fns
            .write()
            .insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Register a rule-action user function **with** a delta spec: in
    /// [`MaintenanceMode::Delta`], firings of delta-capable rules apply the
    /// spec in place (`Δ = Σ w·(new − old)` per derived key) instead of
    /// calling `f`; `f` remains the full-recompute fallback for non-linear
    /// rules and the [`MaintenanceMode::Recompute`] ablation.
    pub fn register_function_with_delta(
        &self,
        name: &str,
        f: impl for<'a> Fn(&mut Txn<'a>) -> Result<()> + Send + Sync + 'static,
        spec: strip_sql::DeltaSpec,
    ) {
        self.register_function(name, f);
        self.inner.engine.register_delta(name, spec);
    }

    /// This database's derived-data maintenance mode.
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.inner.maintenance
    }

    /// Lifetime delta counters for a user function's registered spec
    /// (`None` when no spec is registered).
    pub fn delta_stats(&self, func: &str) -> Option<strip_sql::DeltaStats> {
        self.inner.engine.delta_spec(func).map(|s| s.stats())
    }

    /// Register a scalar function usable in SQL expressions (e.g. `f_bs`).
    pub fn register_scalar(&self, f: ScalarFn) {
        self.inner
            .scalar_fns
            .write()
            .insert(f.name.to_ascii_lowercase(), f);
    }

    // ---- statements ---------------------------------------------------------

    /// Execute one SQL statement (DDL, query, or DML). Queries and DML run
    /// in their own immediate transaction; triggered rule actions are
    /// enqueued on the executor.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        self.execute_with(sql, &[])
    }

    /// Execute one statement with `?` parameters. A query or DML text whose
    /// plan is cached runs that plan without being parsed; the plan's kind
    /// picks the transaction mode (a `SELECT` is a snapshot read).
    pub fn execute_with(&self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        match self.inner.prepare(sql, sql)? {
            // DDL is never cached, so it always arrives parsed.
            Prepared::Miss(stmt) if StmtKind::of(&stmt) == StmtKind::Ddl => {
                self.execute_stmt(&stmt, params)
            }
            prep if prep.kind() == StmtKind::Query => {
                Ok(ExecOutcome::Rows(self.query_prepared(sql, prep, params)?))
            }
            prep => {
                let rs = self.txn_named("adhoc-dml", |t| t.run_prepared(sql, sql, prep, params))?;
                Ok(ExecOutcome::Count(dml_count(&rs)))
            }
        }
    }

    /// Execute a semicolon-separated script, stopping at the first error.
    pub fn execute_script(&self, sql: &str) -> Result<()> {
        for stmt in parse_script(sql)? {
            self.execute_stmt(&stmt, &[])?;
        }
        Ok(())
    }

    /// Execute a parsed statement. Without the original text the plan cache
    /// has no key, so queries/DML plan per call; prefer
    /// [`Strip::execute`] / [`Strip::execute_with`].
    pub fn execute_stmt(&self, stmt: &Statement, params: &[Value]) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable(ct) => {
                let schema = Schema::new(
                    ct.columns
                        .iter()
                        .map(|(n, t)| strip_storage::Column::new(n, *t))
                        .collect(),
                )?
                .into_ref();
                self.inner.catalog.create_table(&ct.name, schema)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::CreateIndex(ci) => {
                let t = self.inner.catalog.table(&ci.table)?;
                let kind = if ci.using_rbtree {
                    IndexKind::RbTree
                } else {
                    IndexKind::Hash
                };
                // DDL is table-granular: an X lock on the table name blocks
                // every concurrent reader/writer, key-granular ones included
                // (their IS/IX intents conflict with X).
                self.with_table_x(t.name(), || Ok(t.create_index(&ci.name, &ci.column, kind)?))?;
                // A new index changes the best access path, so cached plans
                // must be replanned: bump the schema epoch.
                self.inner.catalog.bump_epoch();
                Ok(ExecOutcome::Ddl)
            }
            Statement::CreateView(cv) => {
                if !cv.materialized {
                    // Plain views are expanded on read: the defining query
                    // runs against current base data each time the view is
                    // referenced (no staleness, no maintenance — the
                    // "recompute every time" alternative of §1).
                    self.inner
                        .views
                        .write()
                        .insert(cv.name.to_ascii_lowercase(), Arc::new(cv.query.clone()));
                }
                if cv.materialized {
                    // Materialize the defining query into a backing table.
                    // Keeping it fresh is the application's job — that is
                    // the whole point of the paper's rules.
                    let rows = self.txn_named("materialize", |t| t.query_ast(&cv.query, params))?;
                    let table = self
                        .inner
                        .catalog
                        .create_table(&cv.name, rows.schema.clone())?;
                    let ids = self.with_table_x(table.name(), || {
                        let mut ids = Vec::with_capacity(rows.rows.len());
                        for row in rows.rows {
                            ids.push(table.insert(row)?.0);
                        }
                        Ok(ids)
                    })?;
                    // Stamp the seeded rows with a commit timestamp so
                    // snapshot readers see the view's initial contents.
                    self.inner.publish_rows(&table, &ids);
                }
                self.inner.catalog.create_view(ViewDef {
                    name: cv.name.clone(),
                    query_text: String::new(),
                    materialized: cv.materialized,
                })?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::CreateRule(cr) => {
                let rule = CompiledRule::compile(cr)?;
                if let Some((table, bound_us)) = &rule.slo {
                    self.inner.obs.declare_slo(table, *bound_us);
                }
                self.inner.engine.add_rule(rule)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::CreateTimer(ct) => {
                self.create_timer(ct)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::DropTimer { name } => {
                self.drop_timer(name)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::DropTable { name } => {
                self.with_table_x(name, || Ok(self.inner.catalog.drop_table(name)?))?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::DropRule { name } => {
                self.inner.engine.drop_rule(name)?;
                Ok(ExecOutcome::Ddl)
            }
            Statement::Select(q) => {
                let rs =
                    self.txn_mode("adhoc-query", TxnKind::ReadOnly, |t| t.query_ast(q, params))?;
                Ok(ExecOutcome::Rows(rs))
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                let n = self.txn_named("adhoc-dml", |t| t.exec_ast(stmt, params))?;
                Ok(ExecOutcome::Count(n))
            }
        }
    }

    /// Run a prepared `SELECT`. A pure SELECT is auto-detected as a
    /// lock-free snapshot read: it pins the commit clock and reads the
    /// version chains without ever entering the lock manager.
    fn query_prepared(&self, sql: &str, prep: Prepared, params: &[Value]) -> Result<ResultSet> {
        self.txn_mode("adhoc-query", TxnKind::ReadOnly, |t| {
            t.run_prepared(sql, sql, prep, params)
        })
    }

    /// Run `f` under a whole-table X lock held by a fresh lock owner. DDL
    /// never runs inside a [`Txn`], so it claims its own owner id; table X
    /// conflicts with every granted mode, key-granular intents included.
    fn with_table_x<R>(&self, table: &str, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let owner = self.inner.next_txn_id();
        let locks = &self.inner.locks;
        locks
            .lock_table(owner, locks.table_id(table), strip_txn::LockMode::Exclusive)
            .map_err(|e| Error::Other(format!("ddl lock on `{table}`: {e}")))?;
        let r = f();
        locks.release_all(owner);
        r
    }

    /// Shorthand: run a query and return its rows. Text that is not a
    /// `SELECT` is rejected before anything runs.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let prep = self.inner.prepare(sql, sql)?;
        if prep.kind() != StmtKind::Query {
            return Err(not_a_query(sql));
        }
        self.query_prepared(sql, prep, &[])
    }

    /// Plan a query under this database's planner mode and render the
    /// operator tree (no execution; benchmarks and diagnostics).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let q = strip_sql::parse_query(sql)?;
        self.txn(|t| {
            let sp = strip_sql::plan::plan_query(t, &q)?;
            Ok(sp.explain())
        })
    }

    // ---- transactions --------------------------------------------------------

    /// Run a transaction immediately (at the current time), committing on
    /// `Ok` and rolling back on `Err`. Triggered rule actions are enqueued.
    pub fn txn<R>(&self, f: impl FnOnce(&mut Txn<'_>) -> Result<R>) -> Result<R> {
        self.txn_named("txn", f)
    }

    /// Like [`Strip::txn`] with a task-kind label for statistics.
    pub fn txn_named<R>(&self, kind: &str, f: impl FnOnce(&mut Txn<'_>) -> Result<R>) -> Result<R> {
        self.txn_mode(kind, TxnKind::ReadWrite, f)
    }

    /// Run a **read-only snapshot transaction**: it pins the commit clock at
    /// begin and reads the version chains at that timestamp without touching
    /// the lock manager. Any write attempted inside `f` is an error. See
    /// DESIGN.md §14.
    pub fn read_txn<R>(&self, f: impl FnOnce(&mut Txn<'_>) -> Result<R>) -> Result<R> {
        self.txn_mode("snapshot-read", TxnKind::ReadOnly, f)
    }

    /// Like [`Strip::read_txn`] with a task-kind label for statistics.
    pub fn read_txn_named<R>(
        &self,
        kind: &str,
        f: impl FnOnce(&mut Txn<'_>) -> Result<R>,
    ) -> Result<R> {
        self.txn_mode(kind, TxnKind::ReadOnly, f)
    }

    /// Run a transaction on the caller's thread, at the current time. A
    /// panic in `f` reaches the caller after the transaction is undone.
    fn txn_mode<R>(
        &self,
        kind: &str,
        mode: TxnKind,
        f: impl FnOnce(&mut Txn<'_>) -> Result<R>,
    ) -> Result<R> {
        self.inner.exec.run_inline(kind, |ctx| {
            ctx.meter.charge(strip_storage::Op::BeginTask, 1);
            let r = run_txn(&self.inner, ctx, kind, HashMap::new(), None, mode, f);
            ctx.meter.charge(strip_storage::Op::EndTask, 1);
            r
        })
    }

    /// Submit a transaction to run as a task at `release_us` (trace-driven
    /// workloads). Errors inside the task are recorded in
    /// [`Strip::take_errors`].
    pub fn submit_txn(
        &self,
        kind: &str,
        release_us: u64,
        f: impl for<'a> FnOnce(&mut Txn<'a>) -> Result<()> + Send + 'static,
    ) {
        self.submit_txn_with(kind, release_us, None, 1.0, f)
    }

    /// [`Strip::submit_txn`] with real-time attributes: an optional
    /// deadline (earliest-deadline-first) and a value (value-density
    /// scheduling) — §6.2's "standard real-time scheduling algorithms".
    pub fn submit_txn_with(
        &self,
        kind: &str,
        release_us: u64,
        deadline_us: Option<u64>,
        value: f64,
        f: impl for<'a> FnOnce(&mut Txn<'a>) -> Result<()> + Send + 'static,
    ) {
        // Feed-hiccup injection: externally submitted work can be dropped
        // on the floor or arrive late, like a real market feed.
        let mut release_us = release_us;
        match decide(&self.inner.injector, FaultPoint::FeedSubmit, kind) {
            FaultDecision::Drop => return,
            FaultDecision::DelayUs(d) => release_us += d,
            _ => {}
        }
        let weak = Arc::downgrade(&self.inner);
        let kind_owned = kind.to_string();
        let mut task = Task::at(
            kind,
            release_us,
            Box::new(move |ctx| {
                let Some(inner) = weak.upgrade() else {
                    return;
                };
                let what = || format!("task `{kind_owned}`");
                run_task_body(&inner, ctx, what, |ctx| {
                    let rw = TxnKind::ReadWrite;
                    run_txn(&inner, ctx, &kind_owned, HashMap::new(), None, rw, f)
                });
            }),
        )
        .with_value(value);
        if let Some(d) = deadline_us {
            task = task.with_deadline(d);
        }
        // Mint the causal root at submit so the base transaction's queue
        // wait and any deadline miss are traced too; `Txn::new` inherits
        // this instead of minting its own.
        if self.inner.obs.is_enabled() {
            task = task.with_trace(strip_obs::TraceCtx::root());
        }
        self.inner.exec.submit(task);
    }

    // ---- periodic timers --------------------------------------------------------

    /// Install a periodic timer (`CREATE TIMER`): the named user function
    /// runs every `interval_us`, starting one interval from now. The paper
    /// notes STRIP supports periodic recomputation (e.g. refreshing
    /// `stock_stdev`, §3). An **unlimited** timer keeps the executor busy
    /// forever, so `drain()` would not terminate until the timer is
    /// dropped; use a `LIMIT`, `advance_to`, or [`Strip::drop_timer`].
    fn create_timer(&self, ct: &strip_sql::ast::CreateTimer) -> Result<()> {
        let name = ct.name.to_ascii_lowercase();
        {
            let mut timers = self.inner.timers.lock();
            if timers.contains_key(&name) {
                return Err(Error::Other(format!("timer `{name}` already exists")));
            }
            timers.insert(
                name.clone(),
                TimerState {
                    interval_us: ct.every_us,
                    func: ct.execute.to_ascii_lowercase(),
                    remaining: ct.limit,
                },
            );
        }
        let release = self.now_us() + ct.every_us;
        self.inner
            .exec
            .submit(timer_task(&self.inner, name, release));
        Ok(())
    }

    /// Remove a timer; its already-queued firing becomes a no-op.
    pub fn drop_timer(&self, name: &str) -> Result<()> {
        self.inner
            .timers
            .lock()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| Error::Other(format!("no such timer `{name}`")))
    }

    /// Names of active timers.
    pub fn timer_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.timers.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Verify cross-cutting invariants: every table's secondary indexes
    /// exactly cover its live rows, and no transaction currently holds
    /// locks (call when quiescent, e.g. after `drain`). Returns the list
    /// of violations (empty = consistent).
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for name in self.inner.catalog.table_names() {
            if let Ok(t) = self.inner.catalog.table(&name) {
                if let Err(e) = t.check_index_integrity() {
                    problems.push(format!("table `{name}`: {e}"));
                }
            }
        }
        if self.inner.locks.blocked_count() > 0 {
            problems.push(format!(
                "{} transaction(s) still blocked on locks",
                self.inner.locks.blocked_count()
            ));
        }
        if self.inner.locks.held_count() > 0 {
            problems.push(format!(
                "{} lock(s) still held with no transaction running",
                self.inner.locks.held_count()
            ));
        }
        problems
    }

    // ---- durability & crash recovery -------------------------------------------

    /// True once a simulated crash has fired; a dead database refuses
    /// further commits.
    pub fn has_crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Snapshot of the write-ahead log bytes (`None` unless built with
    /// [`StripBuilder::durable`]). After a crash these bytes are everything
    /// that survives.
    pub fn wal_bytes(&self) -> Option<Vec<u8>> {
        self.inner.wal.as_ref().map(|w| w.lock().bytes().to_vec())
    }

    /// Byte offset just past the last commit marker in the WAL. Torn-tail
    /// corruption may only be applied beyond this point: bytes before it
    /// were acknowledged durable.
    pub fn wal_committed_prefix(&self) -> Option<usize> {
        self.inner.wal.as_ref().map(|w| w.lock().last_commit_end())
    }

    /// Total lock holdings right now; zero whenever no transaction is
    /// running (the "no lock leaked" oracle).
    pub fn locks_held(&self) -> usize {
        self.inner.locks.held_count()
    }

    // ---- snapshots ----------------------------------------------------------

    /// The current value of the global commit clock: the timestamp of the
    /// newest published commit. A snapshot transaction begun now pins this
    /// value and observes exactly the committed prefix up to it.
    pub fn commit_ts(&self) -> u64 {
        self.inner.commit_clock.load(Ordering::Acquire)
    }

    /// Number of currently pinned snapshots (read-only transactions in
    /// flight). Zero whenever no read-only transaction is running.
    pub fn active_snapshots(&self) -> usize {
        self.inner
            .snapshots
            .lock()
            .values()
            .map(|n| *n as usize)
            .sum()
    }

    /// The garbage-collection horizon: the oldest snapshot timestamp still
    /// pinned, or the commit clock when no snapshot is pinned. Versions
    /// superseded at or before this timestamp are reclaimable.
    pub fn gc_horizon(&self) -> u64 {
        self.inner.gc_horizon()
    }

    /// Run a version-chain garbage-collection pass now (tests and tools;
    /// the engine also collects after every publishing commit and when the
    /// oldest snapshot drains).
    pub fn collect_versions(&self) {
        self.inner.collect_garbage("manual", self.now_us());
    }

    /// Stamp every bulk-loaded (still unpublished) row in every table with
    /// a fresh commit timestamp. Setup code that inserts straight into
    /// storage via [`Strip::catalog`] bypasses the transaction commit path,
    /// so its rows stay pending and invisible to snapshot reads until this
    /// is called. Must not run while writer transactions are in flight — a
    /// pending version cannot be told apart from an uncommitted one.
    pub fn publish_bulk_load(&self) {
        let _publish = self.inner.commit_publish.lock();
        let ts = self.inner.commit_clock.load(Ordering::Relaxed) + 1;
        let mut stamped = 0;
        for name in self.inner.catalog.table_names() {
            if let Ok(t) = self.inner.catalog.table(&name) {
                stamped += t.publish_all(ts);
            }
        }
        if stamped > 0 {
            self.inner.commit_clock.store(ts, Ordering::Release);
        }
    }

    /// Replay a WAL into this (freshly built, schema-only) database:
    /// committed transactions are redone table by table, bypassing rules
    /// and locking — recovery is offline. Partial transactions at the torn
    /// tail are discarded.
    pub fn recover_from_wal(&self, bytes: &[u8]) -> Result<RecoveryReport> {
        let rec = Wal::recover(bytes);
        let mut rows_applied = 0;
        for (table, images) in rec.tables() {
            let t = self.inner.catalog.table(&table)?;
            let mut ids = Vec::new();
            for (_row, values) in images {
                ids.push(t.insert(values)?.0);
                rows_applied += 1;
            }
            // Stamp recovered rows so post-recovery snapshot reads see them.
            self.inner.publish_rows(&t, &ids);
        }
        Ok(RecoveryReport {
            committed_txns: rec.txns.len(),
            rows_applied,
            torn_tail: rec.torn_tail,
            in_flight: rec.in_flight,
        })
    }

    // ---- introspection ---------------------------------------------------------

    /// The storage catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Names of defined rules.
    pub fn rule_names(&self) -> Vec<String> {
        self.inner.engine.rule_names()
    }

    /// Enable or disable a rule without dropping it. The paper's §7.1
    /// discusses deactivation as the (fragile) way single-event systems
    /// emulate unique execution; here it is just an operational switch.
    pub fn set_rule_enabled(&self, name: &str, enabled: bool) -> Result<()> {
        self.inner.engine.set_rule_enabled(name, enabled)?;
        Ok(())
    }

    /// Is the named rule currently enabled?
    pub fn rule_enabled(&self, name: &str) -> bool {
        self.inner.engine.rule_enabled(name)
    }

    /// Pending unique transactions for a user function (diagnostics).
    pub fn pending_unique(&self, func: &str) -> usize {
        self.inner.engine.unique().pending_count(func)
    }

    /// The `unique on` partition keys with a pending (not yet started)
    /// transaction for `func`, sorted. Never contains duplicates — the
    /// "at most one pending transaction per partition" invariant.
    pub fn pending_unique_partitions(&self, func: &str) -> Vec<Vec<Value>> {
        self.inner.engine.unique().pending_partitions(func)
    }

    /// Names of all user functions registered as unique (diagnostics).
    pub fn unique_functions(&self) -> Vec<String> {
        self.inner.engine.unique().registered_functions()
    }

    /// Direct read access to a bound-table-free snapshot of a table's rows
    /// (test helper).
    pub fn table_rows(&self, name: &str) -> Result<Vec<Vec<Value>>> {
        let t = self.inner.catalog.table(name)?;
        Ok(t.scan()
            .into_iter()
            .map(|(_, r)| r.values().to_vec())
            .collect())
    }
}
