//! Strict two-phase-locking lock manager with deadlock detection and
//! hierarchical (multi-granularity) modes.
//!
//! STRIP transactions hold locks until commit (§6.1: "locks are not held
//! across transactions" — i.e. exactly transaction-scoped). A resource is an
//! interned id ([`Res`]): a whole table ([`TableId`], names matched
//! ASCII-case-insensitively), or one key value of one column under it
//! (table id, [`ColumnId`] and the key's [`Value`] hash, which agrees with
//! `Value` equality). The `table#column=key` names of [`key_resource`] are
//! rendered only for people: `held_by`, [`LockManager::resource_name`] and
//! the fault injector's detail when a request is about to wait. The classic
//! five-mode hierarchy applies — a transaction takes IS/IX on the table
//! before S/X on a key resource ([`LockManager::lock_key_id`] enforces the
//! order), so a full-scan `S` or DDL `X` on the table conflicts exactly
//! with the writers/readers it must conflict with, while writers on
//! *different* keys (IX + disjoint X's) run in parallel. Upgrades follow the
//! mode lattice (`lub(S, IX) = SIX`); waits-for-graph cycle detection spans
//! both granularities and aborts the *requesting* transaction (the paper's
//! real-time flavor prefers restarting the newcomer over disturbing queued
//! work).
//!
//! The manager keeps each transaction's held list, so
//! [`LockManager::release_all`] visits only that transaction's resources,
//! returns at once for a transaction that holds and awaits nothing, and
//! wakes blocked requesters only when it granted one of them something.
//! Blocking requests report how long they waited on the condition variable.

use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};
use strip_storage::Value;

/// Transaction identifier as seen by the lock manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lock mode. The intention modes (`IntentShared`, `IntentExclusive`,
/// `SharedIntentExclusive`) are taken on a *table* to announce S/X locks on
/// key resources below it; plain `Shared`/`Exclusive` work on any resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// IS — intends to read individual keys under this table.
    IntentShared,
    /// IX — intends to write individual keys under this table.
    IntentExclusive,
    /// S — reads the whole resource (full scan when taken on a table).
    Shared,
    /// SIX — S + IX: reads the whole table while writing individual keys.
    SharedIntentExclusive,
    /// X — exclusive access to the whole resource.
    Exclusive,
}

impl LockMode {
    /// Classic multi-granularity compatibility matrix.
    ///
    /// |     | IS | IX | S  | SIX | X |
    /// |-----|----|----|----|-----|---|
    /// | IS  | ✓  | ✓  | ✓  | ✓   | ✗ |
    /// | IX  | ✓  | ✓  | ✗  | ✗   | ✗ |
    /// | S   | ✓  | ✗  | ✓  | ✗   | ✗ |
    /// | SIX | ✓  | ✗  | ✗  | ✗   | ✗ |
    /// | X   | ✗  | ✗  | ✗  | ✗   | ✗ |
    pub fn compatible_with(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) => true,
            (Shared, Shared) => true,
            _ => false,
        }
    }

    /// Does holding `self` satisfy a request for `other`? (Lattice ≥.)
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (Exclusive, _)
                | (
                    SharedIntentExclusive,
                    IntentShared | IntentExclusive | Shared | SharedIntentExclusive
                )
                | (Shared, IntentShared | Shared)
                | (IntentExclusive, IntentShared | IntentExclusive)
                | (IntentShared, IntentShared)
        )
    }

    /// Least upper bound in the mode lattice — the mode a holder of `self`
    /// must hold after also being granted `other`. The only incomparable
    /// pair is `{S, IX}`, whose join is `SIX`.
    pub fn lub(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self.covers(other) {
            self
        } else if other.covers(self) {
            other
        } else {
            debug_assert!(matches!(
                (self, other),
                (Shared, IntentExclusive) | (IntentExclusive, Shared)
            ));
            SharedIntentExclusive
        }
    }

    /// The table-level intention mode announcing a key-level `self`.
    pub fn intention(self) -> LockMode {
        use LockMode::*;
        match self {
            IntentShared | Shared => IntentShared,
            IntentExclusive | SharedIntentExclusive | Exclusive => IntentExclusive,
        }
    }

    /// Short diagnostic label (IS/IX/S/SIX/X).
    pub fn label(self) -> &'static str {
        use LockMode::*;
        match self {
            IntentShared => "IS",
            IntentExclusive => "IX",
            Shared => "S",
            SharedIntentExclusive => "SIX",
            Exclusive => "X",
        }
    }
}

/// Separator between a table name and its key-granular sub-resources.
pub const KEY_SEP: char = '#';

/// Encode the key-granular resource name for value `key` of `column` under
/// `table`: `table#column=key`.
pub fn key_resource(table: &str, column: &str, key: &str) -> String {
    format!("{table}{KEY_SEP}{column}={key}")
}

/// True when `res` names a key-granular resource (vs a whole table).
pub fn is_key_resource(res: &str) -> bool {
    res.contains(KEY_SEP)
}

/// The table component of a resource name (identity for table resources).
pub fn resource_table(res: &str) -> &str {
    res.split(KEY_SEP).next().unwrap_or(res)
}

/// Interned id of a table name in one [`LockManager`]. Names that differ
/// only in ASCII case share one id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(u32);

/// Interned id of a column name in one [`LockManager`] (matched exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnId(u32);

/// The id of a lock resource: a whole table, or one key of one column
/// under it. A key is identified by the hash of its [`Value`], which agrees
/// with `Value` equality, so keys that compare equal (`Int(1)` and
/// `Float(1.0)`) are one resource. Two unequal keys whose 64-bit hashes
/// collide share one lock: a false conflict, never a missed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Res {
    /// A whole table.
    Table(TableId),
    /// `column = key` under a table, by key hash.
    Key(TableId, ColumnId, u64),
}

impl Res {
    /// The table this resource is (or lies under).
    pub fn table(self) -> TableId {
        match self {
            Res::Table(t) | Res::Key(t, _, _) => t,
        }
    }

    /// True for a key-granular resource.
    pub fn is_key(self) -> bool {
        matches!(self, Res::Key(..))
    }
}

/// A key resource together with the key it locks: what the key entry
/// points take, so that a resource they create can render its name.
#[derive(Debug, Clone, Copy)]
pub struct KeyRes<'a> {
    res: Res,
    key: &'a Value,
}

impl<'a> KeyRes<'a> {
    /// The resource for `column = key` under `table`.
    pub fn new(table: TableId, column: ColumnId, key: &'a Value) -> KeyRes<'a> {
        // A fixed-key hasher: a resource's id is the same in every run.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        KeyRes {
            res: Res::Key(table, column, h.finish()),
            key,
        }
    }

    /// The resource id.
    pub fn id(&self) -> Res {
        self.res
    }
}

/// Lock-acquisition failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Granting the request would create a waits-for cycle; the requester
    /// must abort (strict 2PL victim = newcomer).
    Deadlock,
    /// `try_lock` could not grant immediately.
    WouldBlock,
    /// The wait exceeded its budget (real-time lock-wait timeout; in tests
    /// the budget is decided by an injected fault). The requester aborts.
    Timeout,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock => f.write_str("deadlock detected; transaction chosen as victim"),
            LockError::WouldBlock => f.write_str("lock unavailable"),
            LockError::Timeout => f.write_str("lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

/// Interned names: dense ids, never freed (tables and columns are few).
#[derive(Debug, Default)]
struct Names {
    /// Every table-name spelling seen, each mapped to its table's id, so a
    /// differently cased spelling is folded once, not on every lookup.
    table_ids: HashMap<Box<str>, u32>,
    /// Canonical (lower-case) table names, by id.
    tables: Vec<Arc<str>>,
    column_ids: HashMap<Box<str>, u32>,
    columns: Vec<Arc<str>>,
}

impl Names {
    fn intern_table(&mut self, spelling: &str) -> u32 {
        if let Some(&id) = self.table_ids.get(spelling) {
            return id;
        }
        let canonical = spelling.to_ascii_lowercase();
        let id = match self.table_ids.get(canonical.as_str()) {
            Some(&id) => id,
            None => {
                let id = self.tables.len() as u32;
                self.tables.push(Arc::from(canonical.as_str()));
                self.table_ids.insert(canonical.into(), id);
                id
            }
        };
        self.table_ids.insert(spelling.into(), id);
        id
    }

    fn intern_column(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.column_ids.get(name) {
            return id;
        }
        let id = self.columns.len() as u32;
        self.columns.push(Arc::from(name));
        self.column_ids.insert(name.into(), id);
        id
    }

    /// `table` or `table#column=key`.
    fn render(&self, res: Res, key: Option<&Value>) -> String {
        match res {
            Res::Table(t) => self.tables[t.0 as usize].to_string(),
            Res::Key(t, c, _) => key_resource(
                &self.tables[t.0 as usize],
                &self.columns[c.0 as usize],
                &key.map_or_else(String::new, |k| k.to_string()),
            ),
        }
    }
}

#[derive(Debug)]
struct ResourceState {
    /// Current holders with their strongest mode.
    holders: Vec<(TxnId, LockMode)>,
    /// FIFO wait queue.
    waiters: VecDeque<(TxnId, LockMode)>,
    /// The key of a key resource, kept to render its name.
    key: Option<Value>,
}

impl ResourceState {
    fn new(key: Option<&Value>) -> ResourceState {
        ResourceState {
            holders: Vec::new(),
            waiters: VecDeque::new(),
            key: key.cloned(),
        }
    }

    /// The mode `txn` holds, if any.
    fn held(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    /// Is `mode` compatible with every holder other than `txn` itself?
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(t, m)| *t == txn || m.compatible_with(mode))
    }

    /// The mode `txn` would hold after being granted `mode` (upgrade join).
    fn grant_target(&self, txn: TxnId, mode: LockMode) -> LockMode {
        match self.held(txn) {
            Some(held) => held.lub(mode),
            None => mode,
        }
    }

    /// Record `txn` as holding `mode`; true when it is a new holder.
    fn grant(&mut self, txn: TxnId, mode: LockMode) -> bool {
        match self.holders.iter_mut().find(|(t, _)| *t == txn) {
            Some((_, m)) => {
                *m = mode;
                false
            }
            None => {
                self.holders.push((txn, mode));
                true
            }
        }
    }

    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }
}

#[derive(Debug, Default)]
struct LmState {
    resources: HashMap<Res, ResourceState>,
    /// txn -> every resource it holds, in grant order.
    held: HashMap<TxnId, Vec<Res>>,
    /// txn -> resource it is currently waiting on.
    waiting_on: HashMap<TxnId, Res>,
}

impl LmState {
    /// Grant `mode` on `res` to `txn`, listing the resource under `txn`
    /// when it is a new holder.
    fn grant(&mut self, txn: TxnId, res: Res, mode: LockMode) {
        let r = self
            .resources
            .get_mut(&res)
            .expect("granted resource exists");
        if r.grant(txn, mode) {
            self.held.entry(txn).or_default().push(res);
        }
    }

    /// Would `txn` waiting on `res` close a cycle in the waits-for graph?
    fn would_deadlock(&self, txn: TxnId, res: Res) -> bool {
        // Edge: waiter -> each holder of the resource it waits on.
        // DFS from the holders of `res`, looking for `txn`.
        let mut stack: Vec<TxnId> = Vec::new();
        if let Some(r) = self.resources.get(&res) {
            stack.extend(r.holders.iter().map(|(t, _)| *t).filter(|t| *t != txn));
        }
        let mut seen: HashSet<TxnId> = stack.iter().copied().collect();
        while let Some(t) = stack.pop() {
            if t == txn {
                return true;
            }
            if let Some(waits) = self.waiting_on.get(&t) {
                if let Some(r) = self.resources.get(waits) {
                    for &(h, _) in &r.holders {
                        if h == txn {
                            return true;
                        }
                        if seen.insert(h) {
                            stack.push(h);
                        }
                    }
                }
            }
        }
        false
    }

    /// Grant any waiters at the head of `res`'s queue that are now
    /// compatible (FIFO, but multiple compatible shared requests drain
    /// together). True when someone was granted.
    fn promote_waiters(&mut self, res: Res) -> bool {
        let Some(r) = self.resources.get_mut(&res) else {
            return false;
        };
        let mut promoted = Vec::new();
        while let Some(&(txn, mode)) = r.waiters.front() {
            let target = r.grant_target(txn, mode);
            if !r.compatible(txn, target) {
                break;
            }
            r.waiters.pop_front();
            promoted.push((txn, r.grant(txn, target)));
        }
        for &(t, new_holder) in &promoted {
            self.waiting_on.remove(&t);
            if new_holder {
                self.held.entry(t).or_default().push(res);
            }
        }
        !promoted.is_empty()
    }

    /// Drop `res`'s entry once nobody holds or awaits it.
    fn forget_if_unused(&mut self, res: Res) {
        if self
            .resources
            .get(&res)
            .is_some_and(ResourceState::is_unused)
        {
            self.resources.remove(&res);
        }
    }
}

/// The lock manager.
///
/// ```
/// use strip_txn::{LockManager, LockMode, TxnId};
///
/// let lm = LockManager::new();
/// lm.lock(TxnId(1), "stocks", LockMode::Shared).unwrap();
/// lm.lock(TxnId(2), "stocks", LockMode::Shared).unwrap(); // S/S compatible
/// assert!(lm.try_lock(TxnId(3), "stocks", LockMode::Exclusive).is_err());
/// lm.release_all(TxnId(1));
/// lm.release_all(TxnId(2));
/// lm.try_lock(TxnId(3), "stocks", LockMode::Exclusive).unwrap();
/// ```
#[derive(Default)]
pub struct LockManager {
    state: Mutex<LmState>,
    cv: Condvar,
    names: RwLock<Names>,
    injector: RwLock<crate::fault::InjectorHandle>,
}

impl fmt::Debug for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockManager")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl LockManager {
    /// New empty lock manager.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Install a fault injector consulted at `LockAcquire` whenever a
    /// request is about to wait: a `Timeout` decision fails the request
    /// instead of queueing it.
    pub fn set_injector(&self, injector: crate::fault::InjectorHandle) {
        *self.injector.write() = injector;
    }

    /// The id of table `name`, matched ASCII-case-insensitively.
    pub fn table_id(&self, name: &str) -> TableId {
        if let Some(&id) = self.names.read().table_ids.get(name) {
            return TableId(id);
        }
        TableId(self.names.write().intern_table(name))
    }

    /// The id of column `name`.
    pub fn column_id(&self, name: &str) -> ColumnId {
        if let Some(&id) = self.names.read().column_ids.get(name) {
            return ColumnId(id);
        }
        ColumnId(self.names.write().intern_column(name))
    }

    /// The canonical (lower-case) name of a table id.
    pub fn table_name(&self, table: TableId) -> Arc<str> {
        Arc::clone(&self.names.read().tables[table.0 as usize])
    }

    /// The name of a key resource: `table#column=key`.
    pub fn key_name(&self, key: KeyRes<'_>) -> String {
        self.names.read().render(key.res, Some(key.key))
    }

    /// The name of a held resource: `table`, or `table#column=key` with the
    /// key it was created for (an empty key once nobody holds or awaits
    /// it).
    pub fn resource_name(&self, res: Res) -> String {
        let st = self.state.lock();
        let key = st.resources.get(&res).and_then(|r| r.key.as_ref());
        self.names.read().render(res, key)
    }

    /// The id and key of a resource name: a table name, or a
    /// [`key_resource`] name whose key is taken as a string value.
    fn parse(&self, res: &str) -> (Res, Option<Value>) {
        match res.split_once(KEY_SEP) {
            None => (Res::Table(self.table_id(res)), None),
            Some((table, rest)) => {
                let (column, key) = rest.split_once('=').unwrap_or((rest, ""));
                let key = Value::str(key);
                let id = KeyRes::new(self.table_id(table), self.column_id(column), &key).id();
                (id, Some(key))
            }
        }
    }

    /// Acquire `mode` on `res` for `txn`, blocking until granted.
    /// Returns `Err(Deadlock)` if waiting would close a waits-for cycle, or
    /// `Err(Timeout)` if an injected lock-wait timeout fires.
    pub fn lock(&self, txn: TxnId, res: &str, mode: LockMode) -> Result<(), LockError> {
        let (id, key) = self.parse(res);
        self.acquire(txn, id, key.as_ref(), mode, true).map(drop)
    }

    /// Non-blocking acquire.
    pub fn try_lock(&self, txn: TxnId, res: &str, mode: LockMode) -> Result<(), LockError> {
        let (id, key) = self.parse(res);
        self.acquire(txn, id, key.as_ref(), mode, false).map(drop)
    }

    /// Hierarchical acquire: take the matching intention mode on `table`,
    /// then `mode` on the key resource `table#column=key`. Blocking, with
    /// the same deadlock/timeout semantics as [`LockManager::lock`]. The
    /// intention-before-key order is what keeps a concurrent table-granular
    /// S/X (full scan, DDL) correctly serialized against key-granular work.
    pub fn lock_key(
        &self,
        txn: TxnId,
        table: &str,
        column: &str,
        key: &str,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let key = Value::str(key);
        let k = KeyRes::new(self.table_id(table), self.column_id(column), &key);
        self.lock_key_id(txn, k, mode).map(drop)
    }

    /// Non-blocking [`LockManager::lock_key`]. A `WouldBlock` on the key
    /// leaves the (harmless, compatible-with-everything-but-X) intention
    /// mode held; callers abort via [`LockManager::release_all`] anyway.
    pub fn try_lock_key(
        &self,
        txn: TxnId,
        table: &str,
        column: &str,
        key: &str,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let key = Value::str(key);
        let k = KeyRes::new(self.table_id(table), self.column_id(column), &key);
        self.try_lock_key_id(txn, k, mode)
    }

    /// [`LockManager::lock`] on a table id. Returns how long the request
    /// waited for other transactions (zero when granted at once).
    pub fn lock_table(
        &self,
        txn: TxnId,
        table: TableId,
        mode: LockMode,
    ) -> Result<Duration, LockError> {
        self.acquire(txn, Res::Table(table), None, mode, true)
    }

    /// [`LockManager::try_lock`] on a table id.
    pub fn try_lock_table(
        &self,
        txn: TxnId,
        table: TableId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.acquire(txn, Res::Table(table), None, mode, false)
            .map(drop)
    }

    /// [`LockManager::lock_key`] on ids: the intention on the key's table,
    /// then `mode` on the key. Returns the time both steps waited.
    pub fn lock_key_id(
        &self,
        txn: TxnId,
        key: KeyRes<'_>,
        mode: LockMode,
    ) -> Result<Duration, LockError> {
        let table = Res::Table(key.res.table());
        let intent = self.acquire(txn, table, None, mode.intention(), true)?;
        Ok(intent + self.acquire(txn, key.res, Some(key.key), mode, true)?)
    }

    /// [`LockManager::try_lock_key`] on ids.
    pub fn try_lock_key_id(
        &self,
        txn: TxnId,
        key: KeyRes<'_>,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let table = Res::Table(key.res.table());
        self.acquire(txn, table, None, mode.intention(), false)?;
        self.acquire(txn, key.res, Some(key.key), mode, false)
            .map(drop)
    }

    /// The one acquire path. `key` is the key of a key resource, kept if
    /// the request creates the resource; `block` false is `try_lock`.
    /// Returns the time spent waiting on the condition variable.
    fn acquire(
        &self,
        txn: TxnId,
        res: Res,
        key: Option<&Value>,
        mode: LockMode,
        block: bool,
    ) -> Result<Duration, LockError> {
        let mut st = self.state.lock();
        let mut wait_start: Option<Instant> = None;
        loop {
            let r = st
                .resources
                .entry(res)
                .or_insert_with(|| ResourceState::new(key));
            // Re-entrant / already-held-in-sufficient-mode?
            let held = r.held(txn);
            let waited = wait_start.map_or(Duration::ZERO, |t| t.elapsed());
            if held.is_some_and(|h| h.covers(mode)) {
                return Ok(waited);
            }
            // Grant immediately if the post-grant mode (the lattice join for
            // upgrades) is compatible AND no earlier waiter would be starved
            // (FIFO fairness: only bypass the queue if it is empty or we are
            // upgrading).
            let target = r.grant_target(txn, mode);
            if r.compatible(txn, target) && (r.waiters.is_empty() || held.is_some()) {
                st.grant(txn, res, target);
                return Ok(waited);
            }
            if !block {
                return Err(LockError::WouldBlock);
            }
            // Must wait: check for deadlock first, then give an injected
            // timeout the chance to fail the wait before it starts.
            if st.would_deadlock(txn, res) {
                return Err(LockError::Deadlock);
            }
            if let Some(injector) = self.injector.read().as_ref() {
                let r = &st.resources[&res];
                let detail = self.names.read().render(res, r.key.as_ref());
                let point = crate::fault::FaultPoint::LockAcquire;
                if injector.decide(point, &detail) == crate::fault::FaultDecision::Timeout {
                    return Err(LockError::Timeout);
                }
            }
            let r = st.resources.get_mut(&res).expect("created above");
            // Upgrades queue at the front so a sole S-holder upgrading
            // cannot be starved by later requests.
            if held.is_some() {
                r.waiters.push_front((txn, mode));
            } else {
                r.waiters.push_back((txn, mode));
            }
            st.waiting_on.insert(txn, res);
            wait_start.get_or_insert_with(Instant::now);
            // Only a grant (or another thread's `release_all` of this very
            // transaction) ends the wait; a wake-up while still queued keeps
            // the queue position.
            while st.waiting_on.contains_key(&txn) {
                self.cv.wait(&mut st);
            }
            // Granted — or dequeued by an abort: the next round decides.
        }
    }

    /// Release every lock held (and any pending wait) by `txn` — the
    /// strict-2PL commit/abort action. Only `txn`'s own resources are
    /// visited, and blocked requesters are woken only when one of them was
    /// granted something (or was `txn` itself).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        let held = st.held.remove(&txn);
        let waiting = st.waiting_on.remove(&txn);
        if held.is_none() && waiting.is_none() {
            return;
        }
        // A blocked `txn` is only released by another thread (an abort);
        // its own thread must wake to see it.
        let mut wake = waiting.is_some();
        if let Some(res) = waiting {
            if let Some(r) = st.resources.get_mut(&res) {
                r.waiters.retain(|(t, _)| *t != txn);
            }
            st.promote_waiters(res);
            st.forget_if_unused(res);
        }
        for res in held.into_iter().flatten() {
            let r = st
                .resources
                .get_mut(&res)
                .expect("held list names a live resource");
            r.holders.retain(|(t, _)| *t != txn);
            if !r.waiters.is_empty() {
                wake |= st.promote_waiters(res);
            }
            st.forget_if_unused(res);
        }
        drop(st);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Locks currently held by `txn`, by name (test/diagnostic aid).
    pub fn held_by(&self, txn: TxnId) -> Vec<(String, LockMode)> {
        let st = self.state.lock();
        let names = self.names.read();
        let mut v: Vec<(String, LockMode)> = st
            .held
            .get(&txn)
            .into_iter()
            .flatten()
            .map(|res| {
                let r = &st.resources[res];
                let mode = r.held(txn).expect("held list matches holders");
                (names.render(*res, r.key.as_ref()), mode)
            })
            .collect();
        v.sort();
        v
    }

    /// Number of transactions currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.state.lock().waiting_on.len()
    }

    /// Total (transaction, resource) holdings across the whole manager.
    /// Zero at any quiescent point — a nonzero value with no transaction
    /// running means a commit/abort path leaked a lock.
    pub fn held_count(&self) -> usize {
        self.state.lock().held.values().map(Vec::len).sum()
    }

    /// Check the manager's bookkeeping (test aid): each transaction's held
    /// list names exactly the resources that record it as a holder, once
    /// each; holders are pairwise compatible; every queued waiter is the
    /// one wait its transaction records; no resource entry is unused.
    pub fn check_invariants(&self) -> Result<(), String> {
        let st = self.state.lock();
        for (txn, list) in &st.held {
            if list.is_empty() {
                return Err(format!("{txn} has an empty held list"));
            }
            let distinct: HashSet<&Res> = list.iter().collect();
            if distinct.len() != list.len() {
                return Err(format!("{txn} lists a resource twice: {list:?}"));
            }
            for res in list {
                if st.resources.get(res).and_then(|r| r.held(*txn)).is_none() {
                    return Err(format!("{txn} lists {res:?} but does not hold it"));
                }
            }
        }
        for (res, r) in &st.resources {
            if r.is_unused() {
                return Err(format!("{res:?} is kept with no holder or waiter"));
            }
            if r.key.is_some() != res.is_key() {
                return Err(format!("{res:?} key {:?} does not match its kind", r.key));
            }
            for (i, (t, m)) in r.holders.iter().enumerate() {
                if !st.held.get(t).is_some_and(|l| l.contains(res)) {
                    return Err(format!("{t} holds {res:?} off its held list"));
                }
                for (u, n) in &r.holders[i + 1..] {
                    if t == u {
                        return Err(format!("{t} is listed twice as holder of {res:?}"));
                    }
                    if !m.compatible_with(*n) {
                        return Err(format!("{t} {m:?} and {u} {n:?} both hold {res:?}"));
                    }
                }
            }
            for (t, _) in &r.waiters {
                if st.waiting_on.get(t) != Some(res) {
                    return Err(format!("{t} queued on {res:?} but waits elsewhere"));
                }
            }
        }
        for (t, res) in &st.waiting_on {
            let queued = st
                .resources
                .get(res)
                .map_or(0, |r| r.waiters.iter().filter(|(w, _)| w == t).count());
            if queued != 1 {
                return Err(format!("{t} waits on {res:?} but is queued {queued} times"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        lm.lock(TxnId(2), "t", LockMode::Shared).unwrap();
        assert_eq!(lm.held_by(TxnId(1)).len(), 1);
        assert_eq!(lm.held_by(TxnId(2)).len(), 1);
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        assert_eq!(
            lm.try_lock(TxnId(2), "t", LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
        lm.release_all(TxnId(1));
        lm.try_lock(TxnId(2), "t", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        // Sole shared holder upgrades in place.
        lm.lock(TxnId(1), "t", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.held_by(TxnId(1)),
            vec![("t".to_string(), LockMode::Exclusive)]
        );
        // X implies S.
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
    }

    #[test]
    fn blocking_grant_on_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), "t", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            lm2.lock(TxnId(2), "t", LockMode::Exclusive).unwrap();
            lm2.release_all(TxnId(2));
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(lm.blocked_count(), 1);
        lm.release_all(TxnId(1));
        h.join().unwrap();
        assert_eq!(lm.blocked_count(), 0);
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), "a", LockMode::Exclusive).unwrap();
        lm.lock(TxnId(2), "b", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        // T1 waits for b (held by T2).
        let h = thread::spawn(move || {
            let r = lm2.lock(TxnId(1), "b", LockMode::Exclusive);
            // T1 may either be granted after T2's deadlock-abort or detect
            // the cycle itself depending on timing; both are acceptable.
            if r.is_ok() {
                lm2.release_all(TxnId(1));
            }
            r
        });
        thread::sleep(Duration::from_millis(50));
        // T2 requesting a closes the cycle: must be denied with Deadlock.
        let r2 = lm.lock(TxnId(2), "a", LockMode::Exclusive);
        assert_eq!(r2, Err(LockError::Deadlock));
        lm.release_all(TxnId(2)); // abort victim
        let r1 = h.join().unwrap();
        assert!(r1.is_ok());
    }

    #[test]
    fn fifo_fairness_no_reader_starvation_of_writer() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        // Writer queues.
        let lm2 = lm.clone();
        let writer = thread::spawn(move || {
            lm2.lock(TxnId(2), "t", LockMode::Exclusive).unwrap();
            lm2.release_all(TxnId(2));
        });
        thread::sleep(Duration::from_millis(30));
        // A new reader must NOT jump the queued writer.
        assert_eq!(
            lm.try_lock(TxnId(3), "t", LockMode::Shared),
            Err(LockError::WouldBlock)
        );
        lm.release_all(TxnId(1));
        writer.join().unwrap();
    }

    #[test]
    fn compatibility_matrix_is_the_textbook_one() {
        use LockMode::*;
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        // Row-major over (IS, IX, S, SIX, X) × (IS, IX, S, SIX, X).
        let expect = [
            [true, true, true, true, false],
            [true, true, false, false, false],
            [true, false, true, false, false],
            [true, false, false, false, false],
            [false, false, false, false, false],
        ];
        for (i, a) in modes.iter().enumerate() {
            for (j, b) in modes.iter().enumerate() {
                assert_eq!(
                    a.compatible_with(*b),
                    expect[i][j],
                    "compat({}, {})",
                    a.label(),
                    b.label()
                );
                // Symmetry.
                assert_eq!(a.compatible_with(*b), b.compatible_with(*a));
            }
        }
    }

    #[test]
    fn lattice_laws_hold() {
        use LockMode::*;
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        for a in modes {
            assert!(a.covers(a), "{} covers itself", a.label());
            for b in modes {
                let j = a.lub(b);
                assert_eq!(j, b.lub(a), "lub commutative");
                assert!(j.covers(a) && j.covers(b), "lub is an upper bound");
                // Anything the join grants that `a` alone would not must be
                // attributable to `b` (no spurious strengthening beyond X).
                if a.covers(b) {
                    assert_eq!(j, a);
                }
            }
        }
        assert_eq!(Shared.lub(IntentExclusive), SharedIntentExclusive);
        assert_eq!(Shared.intention(), IntentShared);
        assert_eq!(Exclusive.intention(), IntentExclusive);
    }

    #[test]
    fn key_writers_on_distinct_keys_coexist() {
        let lm = LockManager::new();
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Exclusive)
            .unwrap();
        lm.lock_key(TxnId(2), "stocks", "symbol", "HWP", LockMode::Exclusive)
            .unwrap();
        // Same key conflicts.
        assert_eq!(
            lm.try_lock_key(TxnId(3), "stocks", "symbol", "IBM", LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
        // A table-granular scan (S) conflicts with the IX holders.
        assert_eq!(
            lm.try_lock(TxnId(3), "stocks", LockMode::Shared),
            Err(LockError::WouldBlock)
        );
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        lm.release_all(TxnId(3));
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn lock_key_holds_intention_on_the_table_first() {
        let lm = LockManager::new();
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Shared)
            .unwrap();
        let held = lm.held_by(TxnId(1));
        assert_eq!(
            held,
            vec![
                ("stocks".to_string(), LockMode::IntentShared),
                (key_resource("stocks", "symbol", "IBM"), LockMode::Shared),
            ]
        );
        // Writing another key joins the table mode to IX.
        lm.lock_key(TxnId(1), "stocks", "symbol", "HWP", LockMode::Exclusive)
            .unwrap();
        assert!(lm
            .held_by(TxnId(1))
            .contains(&("stocks".to_string(), LockMode::IntentExclusive)));
    }

    #[test]
    fn scan_then_keyed_write_upgrades_table_to_six() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), "stocks", LockMode::Shared).unwrap();
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Exclusive)
            .unwrap();
        assert!(lm
            .held_by(TxnId(1))
            .contains(&("stocks".to_string(), LockMode::SharedIntentExclusive)));
        // SIX keeps readers of individual keys out of S? No: SIX admits IS.
        lm.lock_key(TxnId(2), "stocks", "symbol", "HWP", LockMode::Shared)
            .unwrap();
        // ...but a second table-granular reader is refused (SIX vs S).
        assert_eq!(
            lm.try_lock(TxnId(3), "stocks", LockMode::Shared),
            Err(LockError::WouldBlock)
        );
    }

    #[test]
    fn cross_granularity_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Exclusive)
            .unwrap();
        lm.lock_key(TxnId(2), "stocks", "symbol", "HWP", LockMode::Exclusive)
            .unwrap();
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let r = lm2.lock_key(TxnId(1), "stocks", "symbol", "HWP", LockMode::Exclusive);
            if r.is_ok() {
                lm2.release_all(TxnId(1));
            }
            r
        });
        thread::sleep(Duration::from_millis(50));
        // T2 requesting T1's key closes an IBM↔HWP cycle across key
        // resources; the requester is the victim.
        let r2 = lm.lock_key(TxnId(2), "stocks", "symbol", "IBM", LockMode::Exclusive);
        assert_eq!(r2, Err(LockError::Deadlock));
        lm.release_all(TxnId(2));
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn table_x_waits_for_all_key_writers() {
        let lm = Arc::new(LockManager::new());
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Exclusive)
            .unwrap();
        let lm2 = lm.clone();
        let ddl = thread::spawn(move || {
            lm2.lock(TxnId(9), "stocks", LockMode::Exclusive).unwrap();
            lm2.release_all(TxnId(9));
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(lm.blocked_count(), 1);
        // FIFO: a fresh key writer must not overtake the queued table X.
        assert_eq!(
            lm.try_lock(TxnId(3), "stocks", LockMode::IntentExclusive),
            Err(LockError::WouldBlock)
        );
        lm.release_all(TxnId(1));
        ddl.join().unwrap();
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn equal_numeric_keys_are_one_resource() {
        let lm = LockManager::new();
        let (t, c) = (lm.table_id("t"), lm.column_id("c"));
        let (one, one_f) = (Value::Int(1), Value::Float(1.0));
        assert_eq!(KeyRes::new(t, c, &one).id(), KeyRes::new(t, c, &one_f).id());
        lm.lock_key_id(TxnId(1), KeyRes::new(t, c, &one), LockMode::Exclusive)
            .unwrap();
        assert_eq!(
            lm.try_lock_key_id(TxnId(2), KeyRes::new(t, c, &one_f), LockMode::Shared),
            Err(LockError::WouldBlock)
        );
        assert_eq!(
            lm.held_by(TxnId(1)),
            vec![
                ("t".to_string(), LockMode::IntentExclusive),
                ("t#c=1".to_string(), LockMode::Exclusive),
            ]
        );
        // A different key of the same column is a different resource.
        let two = Value::Float(2.0);
        lm.try_lock_key_id(TxnId(2), KeyRes::new(t, c, &two), LockMode::Exclusive)
            .unwrap();
        lm.check_invariants().unwrap();
    }

    #[test]
    fn table_names_fold_case_and_render_lower_case() {
        let lm = LockManager::new();
        assert_eq!(lm.table_id("Stocks"), lm.table_id("stocks"));
        assert_eq!(lm.table_id("STOCKS"), lm.table_id("stocks"));
        assert_ne!(lm.table_id("stocks"), lm.table_id("options"));
        assert_eq!(&*lm.table_name(lm.table_id("StOcKs")), "stocks");
        lm.lock(TxnId(1), "Stocks", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.try_lock_table(TxnId(2), lm.table_id("stocks"), LockMode::Shared),
            Err(LockError::WouldBlock)
        );
        assert_eq!(
            lm.held_by(TxnId(1)),
            vec![("stocks".to_string(), LockMode::Exclusive)]
        );
        // Column names match exactly, as the schema spells them.
        assert_ne!(lm.column_id("Symbol"), lm.column_id("symbol"));
    }

    #[test]
    fn string_and_id_entry_points_share_resources() {
        let lm = LockManager::new();
        lm.lock_key(TxnId(1), "stocks", "symbol", "IBM", LockMode::Exclusive)
            .unwrap();
        let ibm = Value::str("IBM");
        let k = KeyRes::new(lm.table_id("stocks"), lm.column_id("symbol"), &ibm);
        assert_eq!(
            lm.try_lock_key_id(TxnId(2), k, LockMode::Shared),
            Err(LockError::WouldBlock)
        );
        assert_eq!(lm.resource_name(k.id()), "stocks#symbol=IBM");
        // A bare key resource name locks the key alone, no intention.
        lm.lock(
            TxnId(3),
            &key_resource("stocks", "symbol", "HWP"),
            LockMode::Exclusive,
        )
        .unwrap();
        assert_eq!(
            lm.held_by(TxnId(3)),
            vec![("stocks#symbol=HWP".to_string(), LockMode::Exclusive)]
        );
        lm.check_invariants().unwrap();
        for t in 1..=3 {
            lm.release_all(TxnId(t));
        }
        assert_eq!(lm.held_count(), 0);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn blocking_request_reports_its_wait() {
        let lm = Arc::new(LockManager::new());
        let t = lm.table_id("t");
        assert_eq!(
            lm.lock_table(TxnId(1), t, LockMode::Exclusive),
            Ok(Duration::ZERO)
        );
        let lm2 = lm.clone();
        let h = thread::spawn(move || {
            let waited = lm2.lock_table(TxnId(2), t, LockMode::Exclusive).unwrap();
            lm2.release_all(TxnId(2));
            waited
        });
        while lm.blocked_count() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(20));
        lm.release_all(TxnId(1));
        assert!(h.join().unwrap() >= Duration::from_millis(20));
        // Re-entrant requests never wait.
        lm.lock_table(TxnId(3), t, LockMode::Shared).unwrap();
        assert_eq!(
            lm.lock_table(TxnId(3), t, LockMode::Shared),
            Ok(Duration::ZERO)
        );
    }

    #[test]
    fn release_of_a_blocked_transaction_dequeues_and_promotes() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), "t", LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        // T2's X queues behind T1's S; T3's S queues behind T2 (FIFO).
        let writer = thread::spawn(move || lm2.lock(TxnId(2), "t", LockMode::Exclusive));
        while lm.blocked_count() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        let lm3 = lm.clone();
        let reader = thread::spawn(move || lm3.lock(TxnId(3), "t", LockMode::Shared));
        while lm.blocked_count() < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        lm.check_invariants().unwrap();
        // Aborting the queued writer from outside lets the reader join T1.
        lm.release_all(TxnId(2));
        reader.join().unwrap().unwrap();
        assert!(lm
            .held_by(TxnId(3))
            .contains(&("t".to_string(), LockMode::Shared)));
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(3));
        // The writer retries once it sees it was dequeued, and gets X.
        writer.join().unwrap().unwrap();
        lm.release_all(TxnId(2));
        assert_eq!(lm.held_count(), 0);
        assert_eq!(lm.blocked_count(), 0);
        lm.check_invariants().unwrap();
    }

    #[test]
    fn release_all_is_idempotent_and_scoped() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), "a", LockMode::Shared).unwrap();
        lm.lock(TxnId(1), "b", LockMode::Exclusive).unwrap();
        lm.lock(TxnId(2), "a", LockMode::Shared).unwrap();
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(1));
        assert!(lm.held_by(TxnId(1)).is_empty());
        assert_eq!(lm.held_by(TxnId(2)).len(), 1);
        // A transaction that never locked anything releases nothing.
        lm.release_all(TxnId(7));
        assert_eq!(lm.held_by(TxnId(2)).len(), 1);
        lm.check_invariants().unwrap();
    }
}
