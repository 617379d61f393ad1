//! Transactions over the STRIP database.
//!
//! A [`Txn`] is created by the task machinery (`run_txn`) inside a task
//! context. It implements the SQL executor's [`Env`], routing reads through
//! strict-2PL lock acquisition and writes through the transaction log so
//! commit-time rule processing (paper §6.3) sees every change. Its `Drop`
//! is the one way a transaction ends without committing — an error, a
//! failed commit, or a panic (see DESIGN.md, "Transaction and task
//! lifecycle").
//!
//! Rule-action transactions get an *overlay* of bound tables: inside a user
//! function, `select ... from matches` resolves `matches` to the bound
//! table carried in the action's control block (§2).

use crate::db::{LockGranularity, StripInner};
use crate::error::{Error, Result};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use strip_obs::{EventKind, Hist, TraceCtx};
use strip_rules::SpawnAction;
use strip_sql::cache::INTERNAL_KEY_PREFIX;
use strip_sql::exec::{Env, Rel, ResultSet};
use strip_sql::expr::ScalarFn;
use strip_sql::plan::{self, PhysicalPlan, RelMeta};
use strip_sql::{parse_statement, Statement};
use strip_storage::{Meter, Op, RowId, TempTable, Value};
use strip_txn::cost::CostMeter;
use strip_txn::fault::{decide, FaultDecision, FaultPoint};
use strip_txn::{KeyRes, LockMode, LogEntry, Res, TableId, Task, TaskCtx, TxnId, TxnLog};

/// A user-provided action function, run by a rule's action transaction.
pub type UserFn = Arc<dyn for<'a> Fn(&mut Txn<'a>) -> Result<()> + Send + Sync>;

/// How a transaction interacts with the concurrency-control machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnKind {
    /// Strict two-phase locking, reads *and* writes (the default). Reads
    /// see the newest version of every row; locks are held to commit.
    #[default]
    ReadWrite,
    /// Lock-free snapshot reads. The transaction pins the commit clock at
    /// begin and resolves every standard-table read through the version
    /// chains (newest version with `commit_ts <=` its snapshot timestamp)
    /// without touching the lock manager. Lock *costs* are still charged
    /// (one `GetLock`/`ReleaseLock` per table, exactly what a locked reader
    /// would pay in the virtual cost model) so throughput comparisons
    /// isolate contention, not accounting. DML is rejected.
    ReadOnly,
}

/// SQL text resolved through the prepared-plan cache: the cached plan on a
/// hit, the parsed statement on a miss. Text is parsed only to build this.
pub(crate) enum Prepared {
    /// The plan cached for the text at the current plan epoch.
    Hit(Arc<PhysicalPlan>),
    /// The parsed text, which has no current cached plan (boxed: a hit
    /// should not move a statement-sized value around).
    Miss(Box<Statement>),
}

/// What a statement does. It decides, before any transaction begins, which
/// entry points accept the statement and in which transaction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StmtKind {
    /// `SELECT`: runs as a snapshot read at the `Strip` entry points.
    Query,
    /// `INSERT`/`UPDATE`/`DELETE`: runs under strict 2PL.
    Dml,
    /// Everything else; never cached.
    Ddl,
}

impl StmtKind {
    /// The kind of a parsed statement.
    pub(crate) fn of(stmt: &Statement) -> StmtKind {
        match stmt {
            Statement::Select(_) => StmtKind::Query,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => StmtKind::Dml,
            _ => StmtKind::Ddl,
        }
    }
}

impl Prepared {
    /// The statement's kind, read from the cached plan on a hit.
    pub(crate) fn kind(&self) -> StmtKind {
        match self {
            Prepared::Hit(plan) => match **plan {
                PhysicalPlan::Select(_) => StmtKind::Query,
                _ => StmtKind::Dml,
            },
            Prepared::Miss(stmt) => StmtKind::of(stmt),
        }
    }
}

/// The error of a query entry point given text that is not a `SELECT`.
pub(crate) fn not_a_query(sql: &str) -> Error {
    Error::Other(format!("not a query: `{sql}`"))
}

/// The error of a DML entry point given a statement that is not DML.
fn not_dml() -> Error {
    Error::Other("exec() only accepts DML statements".into())
}

/// What `Drop` does when a transaction ends.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Not committed: trace `TxnAbort` with this reason, undo every pending
    /// version, release.
    Abort(&'static str),
    /// The commit record is durable in the WAL but was never published (a
    /// crash at the publish point): release only, as recovery keeps it.
    Durable,
    /// Committed and already released by [`Txn::commit`].
    Committed,
}

/// An in-flight transaction.
pub struct Txn<'a> {
    inner: &'a Arc<StripInner>,
    meter: &'a CostMeter,
    start_us: u64,
    id: TxnId,
    /// Task-kind label (`txn`, `feed:…`, `recompute:f`…); fault plans use
    /// it to target specific traffic.
    kind: String,
    log: RefCell<TxnLog>,
    overlay: HashMap<String, Arc<TempTable>>,
    /// Table-granular (S/X) cost bookkeeping. Lock acquisition is charged
    /// as if locking were whole-table — one `GetLock` per `(table, mode)`
    /// pair, one `ReleaseLock` per entry at commit — so the Table-1 virtual
    /// cost of a simple update is unchanged by key-granular locking. The
    /// locks *actually* held live in `footprint`.
    charged: RefCell<Vec<(TableId, LockMode)>>,
    /// Every lock-manager resource this transaction holds, with the
    /// strongest mode requested so far. Tables carry S/X (scans, DDL-ish
    /// statements) or IS/IX intents (keyed access); key resources carry
    /// S/X.
    footprint: RefCell<HashMap<Res, LockMode>>,
    /// Earliest base-commit virtual time this transaction is absorbing, when
    /// it is a rule action recomputing derived data. Commit uses it to record
    /// per-table staleness (base commit → derived commit lag, Figures 9–14).
    origin_us: Option<u64>,
    /// Causal identity: rule actions inherit their action span from the
    /// task; plain transactions mint a fresh root trace when observability
    /// is on, so every event they emit joins one lineage DAG.
    trace: TraceCtx,
    /// Concurrency-control mode (strict 2PL vs lock-free snapshot reads).
    mode: TxnKind,
    /// The commit timestamp this transaction's reads are pinned at, for
    /// [`TxnKind::ReadOnly`]. Registered with the database's snapshot
    /// registry at begin; taken (and deregistered) exactly once at finish.
    snapshot: Cell<Option<u64>>,
    /// Bytes of the overlay's bound tables, counted against the
    /// `temp_tables` memory class for exactly the life of the transaction.
    temp_bytes: u64,
    exit: Exit,
}

impl<'a> Txn<'a> {
    fn new(
        inner: &'a Arc<StripInner>,
        ctx: &TaskCtx<'a>,
        kind: &str,
        overlay: HashMap<String, Arc<TempTable>>,
        origin_us: Option<u64>,
        mode: TxnKind,
    ) -> Txn<'a> {
        let id = inner.next_txn_id();
        let temp_bytes: u64 = overlay.values().map(|t| t.mem_bytes()).sum();
        if temp_bytes > 0 {
            inner.obs.memory().temp_begin(temp_bytes);
        }
        // Mint the root of a new trace for transactions that arrive without
        // one (feeds, ad-hoc statements). Action tasks carry their span in.
        let trace = if ctx.trace.is_none() && inner.obs.is_enabled() {
            TraceCtx::root()
        } else {
            ctx.trace
        };
        // A read-only transaction pins the commit clock *now*: every read
        // it performs resolves against the committed prefix at this
        // timestamp, and the registry entry holds the GC horizon back until
        // the transaction finishes.
        let snapshot = match mode {
            TxnKind::ReadWrite => None,
            TxnKind::ReadOnly => {
                let ts = inner.pin_snapshot();
                inner.obs.record_snapshot_begin();
                Some(ts)
            }
        };
        Txn {
            inner,
            meter: ctx.meter,
            start_us: ctx.start_us,
            id,
            kind: kind.to_string(),
            log: RefCell::new(TxnLog::new()),
            overlay,
            charged: RefCell::new(Vec::new()),
            footprint: RefCell::new(HashMap::new()),
            origin_us,
            trace,
            mode,
            snapshot: Cell::new(snapshot),
            temp_bytes,
            exit: Exit::Abort("rollback"),
        }
    }

    /// This transaction's concurrency-control mode.
    pub fn txn_kind(&self) -> TxnKind {
        self.mode
    }

    /// True for a lock-free snapshot-read transaction.
    pub fn is_read_only(&self) -> bool {
        self.mode == TxnKind::ReadOnly
    }

    /// The snapshot timestamp pinned at begin (`None` for read-write).
    pub fn snapshot_ts(&self) -> Option<u64> {
        self.snapshot.get()
    }

    /// The transaction's causal identity (root span for plain transactions,
    /// the action span for rule actions; NONE when observability is off).
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace
    }

    /// Ask the installed fault injector (if any) what happens at `point`.
    pub(crate) fn fault_decision(&self, point: FaultPoint, detail: &str) -> FaultDecision {
        decide(&self.inner.injector, point, detail)
    }

    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current virtual time: task start plus work charged so far.
    pub fn now_us(&self) -> u64 {
        self.start_us + self.meter.charged_us()
    }

    /// A bound table by name, if this is a rule-action transaction.
    pub fn bound(&self, name: &str) -> Option<Arc<TempTable>> {
        self.overlay.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Names of all bound tables visible to this transaction.
    pub fn bound_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.overlay.keys().cloned().collect();
        v.sort();
        v
    }

    /// Charge `n` rows of user-function work to the cost model. Action
    /// functions call this per processed row so experiments account the
    /// `foreach` bodies of the paper's `compute_*` functions.
    pub fn charge_user_work(&self, rows: u64) {
        self.meter.charge(Op::UserFnRow, rows);
    }

    /// Charge an arbitrary operation to the cost model. Used by application
    /// code for work the engine cannot see — most importantly
    /// [`Op::ModelEval`] for each derived-data model evaluation (the paper
    /// prices Black-Scholes separately because "pricing models ... are
    /// expensive", §1).
    pub fn charge_op(&self, op: Op, n: u64) {
        self.meter.charge(op, n);
    }

    /// Run a `SELECT`, returning materialized rows. The physical plan comes
    /// from the database's prepared-plan cache, keyed by the statement text;
    /// the text is parsed only on a cache miss. Text that is not a `SELECT`
    /// is rejected before anything runs.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let key = self.plan_key(sql);
        let prep = self.inner.prepare(&key, sql)?;
        if prep.kind() != StmtKind::Query {
            return Err(not_a_query(sql));
        }
        self.run_prepared(&key, sql, prep, params)
    }

    /// Run a pre-parsed `SELECT`, planning per call (no cache key).
    pub fn query_ast(&self, q: &strip_sql::ast::Query, params: &[Value]) -> Result<ResultSet> {
        Ok(strip_sql::execute_query(self, q, params)?)
    }

    /// Run DML (`INSERT`/`UPDATE`/`DELETE`). Returns affected-row count.
    /// Plans come from the prepared-plan cache keyed by the statement text;
    /// the text is parsed only on a cache miss. Text that is not DML is
    /// rejected before anything runs.
    pub fn exec(&self, sql: &str, params: &[Value]) -> Result<usize> {
        let key = self.plan_key(sql);
        let prep = self.inner.prepare(&key, sql)?;
        if prep.kind() != StmtKind::Dml {
            return Err(not_dml());
        }
        Ok(dml_count(&self.run_prepared(&key, sql, prep, params)?))
    }

    /// Run pre-parsed DML, planning per call (no cache key).
    pub fn exec_ast(&self, stmt: &Statement, params: &[Value]) -> Result<usize> {
        match stmt {
            Statement::Insert(i) => Ok(strip_sql::execute_insert(self, i, params)?),
            Statement::Update(u) => Ok(strip_sql::execute_update(self, u, params)?),
            Statement::Delete(d) => Ok(strip_sql::execute_delete(self, d, params)?),
            _ => Err(not_dml()),
        }
    }

    /// Execute the statement `text`, prepared under the cache `key`: a hit
    /// counts and runs the cached plan, a miss plans the parsed statement
    /// into the cache (counting the miss). A stale plan — the live schema
    /// diverged from the plan mid-epoch — is invalidated and replanned once
    /// (a hit parses `text` for it) before the error propagates.
    pub(crate) fn run_prepared(
        &self,
        key: &str,
        text: &str,
        prep: Prepared,
        params: &[Value],
    ) -> Result<ResultSet> {
        let (plan, stmt) = match prep {
            Prepared::Hit(plan) => {
                self.inner.plan_cache.count_hit();
                (plan, None)
            }
            Prepared::Miss(stmt) => (self.plan_cached(key, &stmt)?, Some(stmt)),
        };
        match strip_sql::execute_plan(self, &plan, params) {
            Err(e) if e.is_stale() => {
                self.inner.plan_cache.invalidate(key);
                let stmt = match stmt {
                    Some(stmt) => stmt,
                    None => Box::new(parse_statement(text)?),
                };
                let plan = self.plan_cached(key, &stmt)?;
                Ok(strip_sql::execute_plan(self, &plan, params)?)
            }
            other => Ok(other?),
        }
    }

    /// Plan `stmt` into the cache under `key` at the current plan epoch.
    fn plan_cached(&self, key: &str, stmt: &Statement) -> Result<Arc<PhysicalPlan>> {
        let epoch = self.inner.plan_epoch();
        Ok(self
            .inner
            .plan_cache
            .get_or_plan_ctx(key, epoch, self.now_us(), self.trace, || {
                plan::plan_statement(self, stmt)
            })?)
    }

    /// Cache key: the statement text, borrowed outside rule actions.
    /// Inside one it is an internal key: the bound-table signature, then
    /// the text. Different rule actions can bind tables with the same name
    /// but different schemas, so the schema of every overlay table in scope
    /// disambiguates the key.
    fn plan_key<'t>(&self, text: &'t str) -> Cow<'t, str> {
        if self.overlay.is_empty() {
            return Cow::Borrowed(text);
        }
        let mut names: Vec<&String> = self.overlay.keys().collect();
        names.sort();
        let mut key = String::from(INTERNAL_KEY_PREFIX);
        for n in names {
            key.push_str(n);
            key.push('(');
            for c in self.overlay[n].schema().columns() {
                key.push_str(&c.name);
                key.push(':');
                key.push_str(&format!("{:?}", c.dtype));
                key.push(',');
            }
            key.push(')');
        }
        key.push('|');
        key.push_str(text);
        Cow::Owned(key)
    }

    /// Number of changes logged so far.
    pub fn change_count(&self) -> usize {
        self.log.borrow().len()
    }

    /// Charge one `GetLock` the first time a `(table, S|X)` pair is seen —
    /// exactly what whole-table locking would have charged — so the virtual
    /// cost model is independent of lock granularity.
    fn charge_get_lock(&self, table: TableId, mode: LockMode) {
        let mut charged = self.charged.borrow_mut();
        // An exclusive charge already covers shared access.
        let covered = charged.iter().any(|&(t, m)| {
            t == table && (m == mode || (mode == LockMode::Shared && m == LockMode::Exclusive))
        });
        if !covered {
            self.meter.charge(Op::GetLock, 1);
            charged.push((table, mode));
        }
    }

    /// Does the footprint already hold `res` in a mode covering `mode`?
    fn holds(&self, res: Res, mode: LockMode) -> bool {
        self.footprint
            .borrow()
            .get(&res)
            .is_some_and(|m| m.covers(mode))
    }

    /// Record a resource in the footprint at the least upper bound of its
    /// current and newly requested modes (mirrors the lock manager's grant).
    fn note_held(&self, res: Res, mode: LockMode) {
        let mut fp = self.footprint.borrow_mut();
        fp.entry(res)
            .and_modify(|m| *m = m.lub(mode))
            .or_insert(mode);
    }

    /// Trace a genuine lock-manager wait, as timed by the manager on its
    /// condition variable (pool mode only; the simulator is single-threaded
    /// and never blocks). Short waits are lock-manager bookkeeping noise;
    /// only blocking ≥100µs is recorded, labeled by the granularity of the
    /// contended resource, whose name is rendered only then.
    fn note_wait(&self, waited: Duration, key_granular: bool, resource: impl FnOnce() -> String) {
        let waited_us = waited.as_micros() as u64;
        if waited_us < 100 || !self.inner.obs.is_enabled() {
            return;
        }
        let resource = resource();
        self.inner
            .obs
            .record_lock_wait_labeled(key_granular, waited_us);
        // Feed the hot-key contention map: waits rank the resources (keys or
        // tables) transactions actually queue on.
        self.inner.obs.record_contention(&resource, waited_us);
        self.inner.obs.event_ctx(
            self.now_us(),
            self.id.0,
            EventKind::LockWait,
            &resource,
            waited_us,
            self.trace,
            0,
        );
    }

    /// Injected lock-wait timeout on the fresh-acquire path. The lock
    /// manager consults the injector too, but only on the would-block path
    /// — which a single-threaded simulation never reaches — so a fresh
    /// acquire asks here. The detail is the table name, so fault plans
    /// target keyed acquires exactly as they target table ones.
    fn injected_lock_timeout(&self, table: TableId) -> Result<()> {
        if self.inner.injector.is_none() {
            return Ok(());
        }
        let name = self.inner.locks.table_name(table);
        if self.fault_decision(FaultPoint::LockAcquire, &name) == FaultDecision::Timeout {
            return Err(Error::Aborted(format!(
                "lock wait timeout (injected) on `{name}`"
            )));
        }
        Ok(())
    }

    fn acquire(&self, table: &str, mode: LockMode) -> Result<()> {
        self.acquire_table(self.inner.locks.table_id(table), mode)
    }

    fn acquire_table(&self, table: TableId, mode: LockMode) -> Result<()> {
        let res = Res::Table(table);
        if self.holds(res, mode) {
            return Ok(());
        }
        self.injected_lock_timeout(table)?;
        let locks = &self.inner.locks;
        let waited = locks
            .lock_table(self.id, table, mode)
            .map_err(|e| Error::Aborted(format!("lock on `{}`: {e}", locks.table_name(table))))?;
        self.note_wait(waited, false, || locks.table_name(table).to_string());
        self.charge_get_lock(table, mode);
        self.note_held(res, mode);
        Ok(())
    }

    /// Hierarchical acquire: the matching intent on the table, then `mode`
    /// on the key resource `table#column=key`. Skipped entirely when a
    /// table-granular lock already covers the request.
    fn acquire_key(&self, table: &str, column: &str, key: &Value, mode: LockMode) -> Result<()> {
        let locks = &self.inner.locks;
        self.acquire_key_id(
            KeyRes::new(locks.table_id(table), locks.column_id(column), key),
            mode,
        )
    }

    fn acquire_key_id(&self, key: KeyRes<'_>, mode: LockMode) -> Result<()> {
        let table = key.id().table();
        if self.holds(Res::Table(table), mode) || self.holds(key.id(), mode) {
            return Ok(());
        }
        self.injected_lock_timeout(table)?;
        let locks = &self.inner.locks;
        let waited = locks
            .lock_key_id(self.id, key, mode)
            .map_err(|e| Error::Aborted(format!("lock on `{}`: {e}", locks.key_name(key))))?;
        self.note_wait(waited, true, || locks.key_name(key));
        self.charge_get_lock(table, mode);
        self.note_held(Res::Table(table), mode.intention());
        self.note_held(key.id(), mode);
        Ok(())
    }

    /// X-lock what a write to `table` needs. Key granularity locks the key
    /// resource of every indexed column of every affected row image (old
    /// *and* new, so index maintenance conflicts with readers probing either
    /// value); a table without indexes has no key resources — its readers
    /// can only scan (table S) — so its writers fall back to table X.
    fn acquire_for_write(&self, t: &strip_storage::TableRef, images: &[&[Value]]) -> Result<()> {
        let locks = &self.inner.locks;
        let table = locks.table_id(t.name());
        if self.inner.granularity == LockGranularity::Table {
            return self.acquire_table(table, LockMode::Exclusive);
        }
        if self.holds(Res::Table(table), LockMode::Exclusive) {
            return Ok(());
        }
        let indexes = t.indexes();
        if indexes.is_empty() {
            return self.acquire_table(table, LockMode::Exclusive);
        }
        let schema = t.schema();
        for ix in &indexes {
            let col = ix.column();
            let column = locks.column_id(&schema.column(col).name);
            for img in images {
                self.acquire_key_id(KeyRes::new(table, column, &img[col]), LockMode::Exclusive)?;
            }
        }
        Ok(())
    }

    /// Read entry for a [`TxnKind::ReadOnly`] transaction: no lock-manager
    /// traffic at all, but the same `GetLock` charge a locked reader would
    /// pay for this table — cost parity keeps throughput comparisons about
    /// contention, not accounting. The first touch of each table traces a
    /// `SnapshotRead` event carrying the pinned timestamp.
    fn snapshot_read_entry(&self, table: &str) -> strip_sql::Result<()> {
        let table = self.inner.locks.table_id(table);
        let first = !self.charged.borrow().contains(&(table, LockMode::Shared));
        self.charge_get_lock(table, LockMode::Shared);
        if first && self.inner.obs.is_enabled() {
            if let Some(ts) = self.snapshot.get() {
                self.inner.obs.record_snapshot_read(
                    self.now_us(),
                    self.id.0,
                    &self.inner.locks.table_name(table),
                    ts,
                    self.trace,
                );
            }
        }
        Ok(())
    }

    /// Reject any write attempted by a read-only snapshot transaction.
    fn forbid_writes(&self, table: &str) -> strip_sql::Result<()> {
        if self.mode == TxnKind::ReadOnly {
            return Err(strip_sql::SqlError::exec(format!(
                "read-only snapshot transaction cannot write `{table}`"
            )));
        }
        Ok(())
    }

    /// The lock-manager resources this transaction holds right now, sorted:
    /// `(resource, strongest requested mode)`. Key resources contain `#`.
    /// Benchmarks use this to build conflict graphs from real footprints.
    pub fn lock_footprint(&self) -> Vec<(String, LockMode)> {
        let locks = &self.inner.locks;
        let mut v: Vec<(String, LockMode)> = self
            .footprint
            .borrow()
            .iter()
            .map(|(res, m)| (locks.resource_name(*res), *m))
            .collect();
        v.sort();
        v
    }

    /// Commit: run rule processing over the log, make the changes durable,
    /// release locks, and return the action tasks to enqueue. Every failure
    /// returns after setting the reason `Drop` aborts with.
    pub(crate) fn commit(mut self) -> Result<Vec<Task>> {
        // A crashed database accepts no further commits.
        if self.inner.crashed.load(Ordering::SeqCst) {
            self.exit = Exit::Abort("crashed");
            return Err(Error::Crashed);
        }
        // Injected forced abort at the commit point.
        if self.fault_decision(FaultPoint::TxnCommit, &self.kind) == FaultDecision::Abort {
            self.exit = Exit::Abort("injected");
            return Err(Error::Aborted(format!(
                "injected abort at commit of `{}`",
                self.kind
            )));
        }
        self.meter.charge(Op::CommitTxn, 1);
        let commit_us = self.now_us();
        let mut tasks = Vec::new();
        let result = {
            let log = self.log.borrow();
            self.inner.engine.process_commit_ctx(
                &self,
                &log,
                commit_us,
                self.id.0,
                self.trace,
                &mut |sa| {
                    tasks.push(action_task(self.inner, sa));
                },
            )
        };
        if let Err(e) = result {
            self.exit = Exit::Abort("rule-processing");
            return Err(Error::Aborted(format!("rule processing failed: {e}")));
        }
        // Durability point: the commit record reaches the WAL before locks
        // drop. An injected crash here kills the database; the in-memory
        // state is rolled back so the live tables match exactly what
        // recovery will rebuild from the log.
        let wal_result = match &self.inner.wal {
            Some(wal) => {
                let log = self.log.borrow();
                // Durable mode pays for the log writes: one record per change
                // plus the commit-point force. Non-durable runs skip both, so
                // the Table-1 simple-update total stays at 172µs.
                let wal_t0 = self.meter.charged_us();
                self.meter.charge(Op::WalAppendRecord, log.len() as u64);
                self.meter.charge(Op::WalFsync, 1);
                let res = wal.lock().append_committed(self.id.0, log.entries());
                let wal_us = self.meter.charged_us() - wal_t0;
                if self.inner.obs.is_enabled() {
                    self.inner.obs.record(Hist::Wal, wal_us);
                    self.inner.obs.event_ctx(
                        self.now_us(),
                        self.id.0,
                        EventKind::WalAppend,
                        &self.kind,
                        wal_us,
                        self.trace,
                        0,
                    );
                }
                res
            }
            None => Ok(()),
        };
        if wal_result.is_err() {
            self.exit = Exit::Abort("wal-crash");
            self.inner.crashed.store(true, Ordering::SeqCst);
            return Err(Error::Crashed);
        }
        // Make this commit visible to snapshot readers: stamp every version
        // the transaction wrote with the next commit timestamp, then publish
        // that timestamp to the global commit clock. The publish mutex makes
        // stamp-then-announce atomic with respect to other committers, so a
        // reader pinned at clock value `ts` always observes exactly the
        // committed prefix `<= ts` — never a partially stamped commit.
        let mut published = None;
        let crash_at_publish = {
            let log = self.log.borrow();
            if log.is_empty() {
                false
            } else {
                let _publish = self.inner.commit_publish.lock();
                let ts = self.inner.commit_clock.load(Ordering::Relaxed) + 1;
                for e in log.entries() {
                    let (table, row) = match e {
                        LogEntry::Insert { table, row, .. }
                        | LogEntry::Delete { table, row, .. }
                        | LogEntry::Update { table, row, .. } => (table, *row),
                    };
                    if let Ok(t) = self.inner.catalog.table(table) {
                        t.publish_versions(row, ts);
                    }
                }
                // Injected crash between stamping and announcing. The
                // stamped versions carry `ts = clock + 1`, a timestamp no
                // snapshot can be pinned at until the store below runs, so
                // they stay invisible to every snapshot reader — while the
                // WAL (already durable) and the 2PL-visible state both have
                // the commit, exactly what recovery will rebuild.
                if self.fault_decision(FaultPoint::CommitPublish, &self.kind)
                    == FaultDecision::Crash
                {
                    true
                } else {
                    self.inner.commit_clock.store(ts, Ordering::Release);
                    published = Some(ts);
                    false
                }
            }
        };
        if crash_at_publish {
            self.exit = Exit::Durable;
            self.inner.crashed.store(true, Ordering::SeqCst);
            return Err(Error::Crashed);
        }
        let end_us = self.now_us();
        if self.inner.obs.is_enabled() {
            self.inner.obs.event_ctx(
                end_us,
                self.id.0,
                EventKind::TxnCommit,
                &self.kind,
                end_us.saturating_sub(self.start_us),
                self.trace,
                0,
            );
            if self.inner.wal.is_some() {
                self.inner.obs.event_ctx(
                    end_us,
                    self.id.0,
                    EventKind::WalCommit,
                    &self.kind,
                    0,
                    self.trace,
                    0,
                );
            }
            // Staleness: a rule action carrying an origin timestamp has just
            // re-derived data triggered by a base commit at `origin`. Every
            // table it wrote absorbed that change with lag `end - origin`.
            if let Some(origin) = self.origin_us {
                let log = self.log.borrow();
                let mut seen: HashSet<&str> = HashSet::new();
                for e in log.entries() {
                    let table = match e {
                        LogEntry::Insert { table, .. }
                        | LogEntry::Delete { table, .. }
                        | LogEntry::Update { table, .. } => table.as_str(),
                    };
                    if seen.insert(table) {
                        let lag = end_us.saturating_sub(origin);
                        self.inner.obs.record_staleness(table, lag);
                        self.inner.obs.event_ctx(
                            end_us,
                            self.id.0,
                            EventKind::Staleness,
                            table,
                            lag,
                            self.trace,
                            0,
                        );
                    }
                }
            }
        }
        self.release_locks();
        self.exit = Exit::Committed;
        // Opportunistic version GC: this commit superseded versions (its
        // writes marked their slots dirty); reclaim whatever no live
        // snapshot can still see. Cheap when nothing is dirty.
        if published.is_some() {
            self.inner.collect_garbage(&self.kind, end_us);
        }
        Ok(tasks)
    }

    fn emit_abort(&self, why: &str) {
        if self.inner.obs.is_enabled() {
            let at = self.now_us();
            let detail = format!("{} ({why})", self.kind);
            self.inner.obs.event_ctx(
                at,
                self.id.0,
                EventKind::TxnAbort,
                &detail,
                at.saturating_sub(self.start_us),
                self.trace,
                0,
            );
        }
    }

    /// Undo all logged changes by popping their still-pending chain entries
    /// in reverse execution order. Every write this transaction performed
    /// appended a `TS_PENDING` version (or tombstone) to its row's chain;
    /// reverting restores the pre-transaction head without ever making an
    /// intermediate state visible to snapshot readers. Best-effort on a
    /// consistent store: failures mean the table vanished mid-transaction,
    /// which the catalog forbids.
    fn undo(&self) {
        let entries = self.log.borrow_mut().drain_for_undo();
        for e in entries {
            match e {
                LogEntry::Insert { table, row, .. } => {
                    if let Ok(t) = self.inner.catalog.table(&table) {
                        let _ = t.revert_insert(row);
                    }
                }
                LogEntry::Delete { table, row, .. } => {
                    if let Ok(t) = self.inner.catalog.table(&table) {
                        let _ = t.revert_delete(row);
                    }
                }
                LogEntry::Update { table, row, .. } => {
                    if let Ok(t) = self.inner.catalog.table(&table) {
                        let _ = t.revert_update(row);
                    }
                }
            }
        }
    }

    fn release_locks(&self) {
        let n = self.charged.borrow().len() as u64;
        if n > 0 {
            self.meter.charge(Op::ReleaseLock, n);
        }
        // A read-only transaction never enters the lock manager.
        if self.mode == TxnKind::ReadWrite {
            self.inner.locks.release_all(self.id);
        }
        self.charged.borrow_mut().clear();
        self.footprint.borrow_mut().clear();
        self.release_snapshot();
    }

    /// Deregister this transaction's pinned snapshot (once). Dropping the
    /// oldest snapshot advances the GC horizon, so a collection pass runs.
    fn release_snapshot(&self) {
        if let Some(ts) = self.snapshot.take() {
            self.inner.obs.record_snapshot_end();
            if self.inner.drop_snapshot(ts) {
                self.inner.collect_garbage(&self.kind, self.now_us());
            }
        }
    }
}

impl Drop for Txn<'_> {
    /// The single exit of every transaction that does not commit: an error
    /// from its body, a failed commit, or a panic unwinding through it. It
    /// undoes every pending version in reverse order, then releases locks
    /// and the snapshot pin, so locked and snapshot readers agree again.
    fn drop(&mut self) {
        match self.exit {
            Exit::Abort(why) => {
                let why = if std::thread::panicking() {
                    "panic"
                } else {
                    why
                };
                self.emit_abort(why);
                self.undo();
                self.release_locks();
            }
            Exit::Durable => self.release_locks(),
            Exit::Committed => {}
        }
        if self.temp_bytes > 0 {
            self.inner.obs.memory().temp_end(self.temp_bytes);
        }
    }
}

impl Env for Txn<'_> {
    fn meter(&self) -> &dyn Meter {
        self.meter
    }

    fn relation(&self, name: &str) -> Option<Rel> {
        let key = name.to_ascii_lowercase();
        if let Some(t) = self.overlay.get(&key) {
            return Some(Rel::Temp(t.clone()));
        }
        if let Ok(t) = self.inner.catalog.table(&key) {
            return Some(Rel::Standard(t));
        }
        // Plain views expand on read: run the defining query now and expose
        // the result as a temporary table.
        let view = self.inner.views.read().get(&key).cloned();
        if let Some(q) = view {
            match strip_sql::execute_query_bound(self, &q, &[], &key) {
                Ok(t) => return Some(Rel::Temp(Arc::new(t))),
                Err(_) => return None,
            }
        }
        None
    }

    fn plan_relation(&self, name: &str) -> Option<RelMeta> {
        let key = name.to_ascii_lowercase();
        if let Some(t) = self.overlay.get(&key) {
            return Some(RelMeta::of(&Rel::Temp(t.clone())));
        }
        if let Ok(t) = self.inner.catalog.table(&key) {
            return Some(RelMeta::of(&Rel::Standard(t)));
        }
        // Plain views: plan the defining query to learn the output schema.
        // Planning is side-effect free, so — unlike `relation` — this does
        // not materialize the view.
        let view = self.inner.views.read().get(&key).cloned();
        if let Some(q) = view {
            let sp = plan::plan_query(self, &q).ok()?;
            return Some(RelMeta {
                schema: sp.schema.clone(),
                est_rows: 0,
                indexes: Vec::new(),
                standard: false,
                col_distincts: Vec::new(),
            });
        }
        None
    }

    fn schema_epoch(&self) -> u64 {
        self.inner.catalog.epoch()
    }

    fn plan_epoch(&self) -> u64 {
        self.inner.plan_epoch()
    }

    fn planner_mode(&self) -> strip_sql::PlannerMode {
        self.inner.planner
    }

    fn plan_feedback(&self, choice: &str, est_rows: u64, actual_rows: u64) {
        if self.inner.obs.is_enabled() {
            self.inner.obs.record_plan_choice(
                self.now_us(),
                self.id.0,
                choice,
                est_rows,
                actual_rows,
                self.trace,
            );
        }
    }

    fn scalar_fn(&self, name: &str) -> Option<ScalarFn> {
        self.inner
            .scalar_fns
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    fn snapshot_ts(&self) -> Option<u64> {
        self.snapshot.get()
    }

    fn before_read(&self, table: &str) -> strip_sql::Result<()> {
        if self.mode == TxnKind::ReadOnly {
            return self.snapshot_read_entry(table);
        }
        self.acquire(table, LockMode::Shared)
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))
    }

    fn before_write(&self, table: &str) -> strip_sql::Result<()> {
        self.forbid_writes(table)?;
        self.acquire(table, LockMode::Exclusive)
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))
    }

    fn before_read_keyed(&self, table: &str, column: &str, key: &Value) -> strip_sql::Result<()> {
        if self.mode == TxnKind::ReadOnly {
            return self.snapshot_read_entry(table);
        }
        if self.inner.granularity == LockGranularity::Table {
            return self.before_read(table);
        }
        self.acquire_key(table, column, key, LockMode::Shared)
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))
    }

    fn before_write_keyed(&self, table: &str, column: &str, key: &Value) -> strip_sql::Result<()> {
        self.forbid_writes(table)?;
        if self.inner.granularity == LockGranularity::Table {
            return self.before_write(table);
        }
        self.acquire_key(table, column, key, LockMode::Exclusive)
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))
    }

    fn dml_insert(&self, table: &str, row: Vec<Value>) -> strip_sql::Result<()> {
        self.forbid_writes(table)?;
        let t = self.inner.catalog.table(table)?;
        // X the new row's key resources before it becomes visible: this is
        // what phantom-protects concurrent `column = key` probe readers.
        self.acquire_for_write(&t, &[&row])
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))?;
        let (id, rec) = t.insert(row)?;
        self.meter.charge(Op::InsertTuple, 1);
        self.meter
            .charge(Op::IndexMaintain, t.indexes().len() as u64);
        self.log.borrow_mut().log_insert(t.name(), id, rec);
        Ok(())
    }

    fn dml_update(&self, table: &str, id: RowId, new: Vec<Value>) -> strip_sql::Result<()> {
        self.forbid_writes(table)?;
        let t = self.inner.catalog.table(table)?;
        // Lock the old *and* new images' key resources before mutating, so
        // readers probing either value of any indexed column are excluded.
        let old_vals = t.get(id)?.values().to_vec();
        self.acquire_for_write(&t, &[&old_vals, &new])
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))?;
        // Count indexes whose key actually changes (real maintenance work).
        let (old, newr) = t.update(id, new)?;
        let changed_keys = t
            .indexes()
            .iter()
            .filter(|ix| old.get(ix.column()) != newr.get(ix.column()))
            .count() as u64;
        self.meter.charge(Op::UpdateCursor, 1);
        if changed_keys > 0 {
            self.meter.charge(Op::IndexMaintain, changed_keys);
        }
        self.log.borrow_mut().log_update(t.name(), id, old, newr);
        Ok(())
    }

    fn dml_delete(&self, table: &str, id: RowId) -> strip_sql::Result<()> {
        self.forbid_writes(table)?;
        let t = self.inner.catalog.table(table)?;
        let old_vals = t.get(id)?.values().to_vec();
        self.acquire_for_write(&t, &[&old_vals])
            .map_err(|e| strip_sql::SqlError::exec(e.to_string()))?;
        let old = t.delete(id)?;
        self.meter.charge(Op::DeleteTuple, 1);
        self.meter
            .charge(Op::IndexMaintain, t.indexes().len() as u64);
        self.log.borrow_mut().log_delete(t.name(), id, old);
        Ok(())
    }
}

/// Affected-row count from a DML plan's single-cell result set.
pub(crate) fn dml_count(rs: &ResultSet) -> usize {
    rs.rows
        .first()
        .and_then(|r| r.first())
        .and_then(Value::as_i64)
        .unwrap_or(0) as usize
}

/// Run a transaction inside a task context: begin, run `f`, commit (rule
/// processing included). An error from `f` — or a panic — drops the
/// transaction, which aborts it. Spawned action tasks go to the task
/// context. `origin_us` is the earliest triggering base-commit time when
/// this is a rule action (staleness is measured from it); plain user
/// transactions pass `None`. Read-only snapshot transactions pin the
/// commit clock at begin and read lock-free.
pub(crate) fn run_txn<R>(
    inner: &Arc<StripInner>,
    ctx: &mut TaskCtx<'_>,
    kind: &str,
    overlay: HashMap<String, Arc<TempTable>>,
    origin_us: Option<u64>,
    mode: TxnKind,
    f: impl FnOnce(&mut Txn<'_>) -> Result<R>,
) -> Result<R> {
    ctx.meter.charge(Op::BeginTxn, 1);
    let mut txn = Txn::new(inner, ctx, kind, overlay, origin_us, mode);
    let r = f(&mut txn)?;
    for t in txn.commit()? {
        ctx.spawn(t);
    }
    Ok(r)
}

/// The body of every task that runs a transaction: a submitted
/// transaction, a rule action, a timer firing. It charges
/// `BeginTask`/`EndTask` around `body`. An error — or a panic, caught here
/// so that no task unwinds into its executor — becomes one
/// [`Strip::take_errors`](crate::Strip::take_errors) entry, prefixed with
/// `what()`.
pub(crate) fn run_task_body(
    inner: &StripInner,
    ctx: &mut TaskCtx<'_>,
    what: impl FnOnce() -> String,
    body: impl FnOnce(&mut TaskCtx<'_>) -> Result<()>,
) {
    ctx.meter.charge(Op::BeginTask, 1);
    let outcome = catch_unwind(AssertUnwindSafe(|| body(ctx))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        Err(Error::Other(format!("panicked: {msg}")))
    });
    if let Err(e) = outcome {
        inner.errors.lock().push(format!("{}: {e}", what()));
    }
    ctx.meter.charge(Op::EndTask, 1);
}

/// Wrap a rule's action (a [`SpawnAction`]) into an executor task. The task:
/// 1. removes the unique-hash entry and fixes the payload's bound tables,
/// 2. moves the bound tables out of the payload into the transaction's
///    overlay,
/// 3. runs the registered user function in a fresh transaction — or, when
///    the engine attached a delta spec (linear rule under
///    `MaintenanceMode::Delta`), applies `Δ = Σ w·(new−old)` in place
///    instead of calling the user function at all.
///
/// The task kind is `delta:f` on the delta path and `recompute:f` on the
/// full-recompute path, so the scheduler's per-kind exec histograms and
/// fault plans distinguish the two maintenance modes.
fn action_task(inner: &Arc<StripInner>, sa: SpawnAction) -> Task {
    let weak = Arc::downgrade(inner);
    let kind = match &sa.delta {
        Some(_) => format!("delta:{}", sa.func),
        None => format!("recompute:{}", sa.func),
    };
    let task_kind = kind.clone();
    let rule = sa.rule;
    let func_name = sa.func;
    let payload = sa.payload;
    let delta = sa.delta;
    let action_ctx = payload.trace_ctx();
    Task::at(
        &kind,
        sa.release_us,
        Box::new(move |ctx| {
            let Some(inner) = weak.upgrade() else {
                return;
            };
            let what = || format!("rule `{rule}` action `{func_name}`");
            run_task_body(&inner, ctx, what, |ctx| {
                inner.engine.begin_action(&payload, ctx.meter);
                let origin_us = payload.origin_us();
                if inner.obs.is_enabled() {
                    inner.obs.event_ctx(
                        ctx.now_us(),
                        0,
                        EventKind::ActionStart,
                        &task_kind,
                        ctx.now_us().saturating_sub(origin_us),
                        ctx.trace,
                        0,
                    );
                }
                let merges = payload.state.lock().merged_firings;
                let bound = payload.take_bound();
                let (origin, rw) = (Some(origin_us), TxnKind::ReadWrite);
                match &delta {
                    Some(spec) => run_txn(&inner, ctx, &task_kind, bound, origin, rw, |txn| {
                        let bt = txn.bound(&spec.bound_table).ok_or_else(|| {
                            Error::Other(format!(
                                "delta spec for `{func_name}` expects bound table `{}`",
                                spec.bound_table
                            ))
                        })?;
                        let out = strip_sql::delta_apply(txn, spec, &bt, merges)?;
                        if inner.obs.is_enabled() {
                            // Like PlanChoice, dur_us is a count (derived
                            // keys touched), never time — lineage keeps the
                            // whole action inside the exec phase.
                            inner.obs.event_ctx(
                                txn.now_us(),
                                txn.id().0,
                                EventKind::DeltaApply,
                                &task_kind,
                                out.keys as u64,
                                txn.trace_ctx(),
                                0,
                            );
                        }
                        Ok(())
                    }),
                    None => {
                        let f = inner.user_fn(&func_name)?;
                        run_txn(&inner, ctx, &task_kind, bound, origin, rw, |txn| f(txn))
                    }
                }
            });
        }),
    )
    .with_trace(action_ctx)
}

/// Build the self-rescheduling task for a periodic timer. Each firing runs
/// the timer's user function in its own transaction, then re-queues itself
/// one interval later while the timer remains registered with firings left.
pub(crate) fn timer_task(inner: &Arc<StripInner>, name: String, release_us: u64) -> Task {
    let weak = Arc::downgrade(inner);
    let kind = format!("timer:{name}");
    let task_kind = kind.clone();
    Task::at(
        &kind,
        release_us,
        Box::new(move |ctx| {
            let Some(inner) = weak.upgrade() else {
                return;
            };
            // Consume one firing; vanish silently if the timer was dropped.
            let (func_name, reschedule) = {
                let mut timers = inner.timers.lock();
                let Some(st) = timers.get_mut(&name) else {
                    return;
                };
                let func = st.func.clone();
                if let Some(r) = &mut st.remaining {
                    *r -= 1;
                }
                if st.remaining == Some(0) {
                    timers.remove(&name);
                    (func, None)
                } else {
                    (func, Some(st.interval_us))
                }
            };
            let what = || format!("timer `{name}` function `{func_name}`");
            run_task_body(&inner, ctx, what, |ctx| {
                let f = inner.user_fn(&func_name)?;
                run_txn(
                    &inner,
                    ctx,
                    &task_kind,
                    HashMap::new(),
                    None,
                    TxnKind::ReadWrite,
                    |txn| f(txn),
                )
            });
            if let Some(interval) = reschedule {
                let next = ctx.now_us() + interval;
                ctx.spawn(timer_task(&inner, name, next));
            }
        }),
    )
}
