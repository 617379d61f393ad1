//! Unique transactions (paper §2, §6.3, Appendix A).
//!
//! "A transaction being unique means that at any given time there is at most
//! one such transaction queued in the system to execute a particular user
//! function. If a rule fires that would trigger another transaction with the
//! same function, no new transaction is enqueued. Instead, the tuples of the
//! bound tables of the new rule firing are appended to those of the bound
//! tables of the currently enqueued transaction."
//!
//! With `unique on (columns)`, there is one pending transaction per distinct
//! combination of the unique columns (Appendix A): bound tables containing
//! unique columns are partitioned by value; bound tables without unique
//! columns are passed whole to every partition's transaction.
//!
//! §6.3 implementation notes followed here: one hash table per unique user
//! function mapping unique-column values to the pending transaction's
//! control block; the table is created when the first rule executing the
//! function is defined; an enqueued task removes its entry when it starts
//! running, after which "its bound tables are fixed and any new rule firings
//! will start a new transaction". Hash accesses are guarded by a lock (the
//! paper uses spinlocks; we use a mutex).

use crate::error::{Result, RuleError};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use strip_obs::TraceCtx;
use strip_storage::{Meter, Op, TempTable, TempTuple, Value};

/// The mutable state of a pending (or running) action transaction.
#[derive(Debug)]
pub struct PayloadState {
    /// Bound tables by name. Empty once the action has taken them
    /// ([`ActionPayload::take_bound`]).
    pub bound: HashMap<String, TempTable>,
    /// Once true, the task has started executing: bound tables are frozen
    /// and no further rows may be appended (§2).
    pub fixed: bool,
    /// Number of rule firings merged into this payload (diagnostics).
    pub merged_firings: u64,
    /// Commit time (virtual µs) of the *earliest* triggering base-data
    /// transaction merged into this payload. The staleness of the derived
    /// data this action maintains is measured from here: when firings are
    /// coalesced, the oldest absorbed update has waited the longest.
    pub origin_us: u64,
}

/// The control-block payload shared between the task queued in the executor
/// and the unique manager's hash table (the paper's TCB carries exactly
/// this: bound-table schemas + data, the user function name, and the delay).
#[derive(Debug)]
pub struct ActionPayload {
    /// User function to run.
    pub func: String,
    /// The unique-column values identifying this partition (empty for
    /// coarse unique and for non-unique actions).
    pub unique_key: Vec<Value>,
    /// Trace id of the firing that *created* this payload (0 = untraced).
    /// Firings merged later attach their own traces as extra DAG parents
    /// via `unique.coalesce` events; the payload itself keeps one identity.
    pub trace: u64,
    /// The action span: minted once at creation, shared by every trace that
    /// coalesces into this payload (this is what makes lineage a DAG).
    pub span: u64,
    /// Shared mutable state.
    pub state: Mutex<PayloadState>,
}

impl ActionPayload {
    fn new(
        func: &str,
        unique_key: Vec<Value>,
        bound: HashMap<String, TempTable>,
        origin_us: u64,
        ctx: TraceCtx,
    ) -> ActionPayload {
        let action = if ctx.is_none() {
            TraceCtx::NONE
        } else {
            ctx.child()
        };
        ActionPayload {
            func: func.to_string(),
            unique_key,
            trace: action.trace,
            span: action.span,
            state: Mutex::new(PayloadState {
                bound,
                fixed: false,
                merged_firings: 1,
                origin_us,
            }),
        }
    }

    /// The action's causal identity ([`TraceCtx::NONE`] when untraced).
    pub fn trace_ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span: self.span,
        }
    }

    /// Commit time of the earliest base transaction this payload absorbs
    /// (see [`PayloadState::origin_us`]).
    pub fn origin_us(&self) -> u64 {
        self.state.lock().origin_us
    }

    /// Move the bound tables out for execution (called by the action task
    /// once [`UniqueManager::begin_action`] has fixed the payload). The
    /// payload keeps no tuples, so the record versions they pin are freed
    /// when the action's transaction drops its tables.
    pub fn take_bound(&self) -> HashMap<String, Arc<TempTable>> {
        std::mem::take(&mut self.state.lock().bound)
            .into_iter()
            .map(|(k, v)| (k, Arc::new(v)))
            .collect()
    }
}

/// Result of dispatching one partition of a rule firing.
pub enum Dispatch {
    /// A new action transaction must be enqueued with this payload.
    New(Arc<ActionPayload>),
    /// The rows were appended to this already-queued transaction's payload.
    /// Carrying the payload lets the caller record a coalesce edge from the
    /// merging firing's trace to the payload's action span.
    Merged(Arc<ActionPayload>),
}

/// One firing of a unique rule, for [`UniqueManager::dispatch_batch`].
pub struct UniqueFiring<'a> {
    /// User function the rule executes.
    pub func: &'a str,
    /// The rule's `unique on` list (empty = coarse batching).
    pub unique_cols: &'a [String],
    /// The firing's bound tables.
    pub bound: HashMap<String, TempTable>,
    /// The firing's span: payloads created for it mint their action span
    /// as its child.
    pub ctx: TraceCtx,
}

#[derive(Debug, Default)]
struct FnTable {
    pending: HashMap<Vec<Value>, Arc<ActionPayload>>,
}

/// The unique-transaction manager.
///
/// ```
/// use std::collections::HashMap;
/// use strip_rules::{Dispatch, UniqueManager};
/// use strip_storage::{DataType, NullMeter, Schema, TempTable};
///
/// let um = UniqueManager::new();
/// let mk = |rows: &[(&str, f64)]| {
///     let schema = Schema::of(&[("comp", DataType::Str), ("d", DataType::Float)]);
///     let mut t = TempTable::materialized("matches", schema.into_ref());
///     for (c, d) in rows {
///         t.push_row(vec![(*c).into(), (*d).into()]).unwrap();
///     }
///     HashMap::from([("matches".to_string(), t)])
/// };
/// // First firing creates a pending transaction per composite...
/// let d1 = um.dispatch_unique("f", &["comp".into()], mk(&[("C1", 1.0)]), &NullMeter, 100).unwrap();
/// assert!(matches!(d1[0], Dispatch::New(_)));
/// // ...a second firing for the same composite merges instead.
/// let d2 = um.dispatch_unique("f", &["comp".into()], mk(&[("C1", 2.0)]), &NullMeter, 200).unwrap();
/// assert!(matches!(d2[0], Dispatch::Merged(_)));
/// assert_eq!(um.pending_count("f"), 1);
/// ```
#[derive(Debug, Default)]
pub struct UniqueManager {
    /// Per function, its pending payloads. A payload leaves its table (in
    /// [`UniqueManager::begin_action`]) before it is fixed, under this lock,
    /// so every listed payload still accepts merges.
    tables: Mutex<HashMap<String, FnTable>>,
}

impl UniqueManager {
    /// New empty manager.
    pub fn new() -> UniqueManager {
        UniqueManager::default()
    }

    /// Create the hash table for a unique user function (§6.3: created when
    /// the first rule that executes the transaction is defined). Idempotent.
    pub fn register_function(&self, func: &str) {
        self.tables
            .lock()
            .entry(func.to_ascii_lowercase())
            .or_default();
    }

    /// Number of pending transactions for `func` (diagnostics).
    pub fn pending_count(&self, func: &str) -> usize {
        self.tables
            .lock()
            .get(&func.to_ascii_lowercase())
            .map(|t| t.pending.len())
            .unwrap_or(0)
    }

    /// The unique keys of every pending (not yet started) transaction for
    /// `func`, sorted for deterministic comparison. Invariant-checking
    /// harnesses use this to assert "at most one pending transaction per
    /// `unique on` partition": the returned list never contains duplicates,
    /// and any payload listed here is still accepting merged firings.
    pub fn pending_partitions(&self, func: &str) -> Vec<Vec<Value>> {
        let mut keys: Vec<Vec<Value>> = self
            .tables
            .lock()
            .get(&func.to_ascii_lowercase())
            .map(|t| t.pending.keys().cloned().collect())
            .unwrap_or_default();
        keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        keys
    }

    /// Names of all user functions with a unique hash table (diagnostics).
    pub fn registered_functions(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Dispatch a non-unique firing: always a fresh payload, never
    /// registered. `commit_us` is the triggering transaction's commit time
    /// (the staleness origin).
    pub fn dispatch_non_unique(
        &self,
        func: &str,
        bound: HashMap<String, TempTable>,
        commit_us: u64,
    ) -> Arc<ActionPayload> {
        self.dispatch_non_unique_ctx(func, bound, commit_us, TraceCtx::NONE)
    }

    /// [`UniqueManager::dispatch_non_unique`] with causal identity: the
    /// payload's action span is minted as a child of the firing's `ctx`.
    pub fn dispatch_non_unique_ctx(
        &self,
        func: &str,
        bound: HashMap<String, TempTable>,
        commit_us: u64,
        ctx: TraceCtx,
    ) -> Arc<ActionPayload> {
        Arc::new(ActionPayload::new(func, Vec::new(), bound, commit_us, ctx))
    }

    /// Dispatch a unique firing. `unique_cols` is the rule's `unique on`
    /// list (empty = coarse batching). `bound` holds the firing's bound
    /// tables; `commit_us` is the triggering transaction's commit time.
    /// Returns one [`Dispatch`] per partition.
    pub fn dispatch_unique(
        &self,
        func: &str,
        unique_cols: &[String],
        bound: HashMap<String, TempTable>,
        meter: &dyn Meter,
        commit_us: u64,
    ) -> Result<Vec<Dispatch>> {
        let func = func.to_ascii_lowercase();
        let firing = UniqueFiring {
            func: &func,
            unique_cols,
            bound,
            ctx: TraceCtx::NONE,
        };
        let mut out = self.dispatch_batch(vec![firing], meter, commit_us)?;
        Ok(out.pop().expect("one result per firing"))
    }

    /// Dispatch one commit's unique firings, in order; `func` names must be
    /// lower-case. Returns, per firing, one [`Dispatch`] per partition.
    /// Payloads created here mint their action span as a child of the
    /// firing's `ctx`; merged partitions return the existing payload so the
    /// caller can record the extra DAG parent.
    ///
    /// All or nothing: every partition of every firing is checked first —
    /// its unique columns found, its bound tables defined as those of the
    /// payload it merges into (pending, or created by an earlier firing of
    /// the batch) — and only then are rows appended and payloads created.
    /// On an error no pending payload has changed.
    pub fn dispatch_batch(
        &self,
        firings: Vec<UniqueFiring<'_>>,
        meter: &dyn Meter,
        commit_us: u64,
    ) -> Result<Vec<Vec<Dispatch>>> {
        let parts: Vec<Partitions> = firings
            .iter()
            .map(|f| Partitions::of(f.unique_cols, &f.bound))
            .collect::<Result<_>>()?;
        let mut tables = self.tables.lock();
        let targets = check_batch(&tables, &firings, &parts)?;

        let mut out = Vec::with_capacity(firings.len());
        for ((firing, parts), targets) in firings.into_iter().zip(parts).zip(targets) {
            if !tables.contains_key(firing.func) {
                tables.insert(firing.func.to_string(), FnTable::default());
            }
            let pending = &mut tables.get_mut(firing.func).expect("inserted above").pending;
            out.push(apply_firing(
                pending, firing, parts, targets, meter, commit_us,
            )?);
        }
        Ok(out)
    }

    /// Called by the action task as its first step: remove the hash-table
    /// entry so later firings start a new transaction, and fix the bound
    /// tables.
    pub fn begin_action(&self, payload: &Arc<ActionPayload>, meter: &dyn Meter) {
        let mut tables = self.tables.lock();
        if let Some(fn_table) = tables.get_mut(&payload.func) {
            meter.charge(Op::UniqueHashOp, 1);
            // Only remove if the entry still points at this payload.
            if let Some(cur) = fn_table.pending.get(&payload.unique_key) {
                if Arc::ptr_eq(cur, payload) {
                    fn_table.pending.remove(&payload.unique_key);
                }
            }
        }
        // Fixed only once unlisted, and under the tables lock: a dispatch
        // never finds a fixed payload pending.
        payload.state.lock().fixed = true;
    }
}

/// Where one partition of a checked firing goes.
enum Target {
    /// Merge into this payload, pending when the batch was checked.
    Pending(Arc<ActionPayload>),
    /// Merge into the payload an earlier firing of the batch creates.
    Batch,
    /// A new payload.
    New,
}

/// The check half of [`UniqueManager::dispatch_batch`]: fail if any
/// partition's bound tables differ from those of the payload it would
/// merge into. A partition whose key is new to its function becomes the
/// target of later firings of the batch with the same function and key.
/// Returns each partition's [`Target`], so the apply half looks up no key
/// it has already found.
fn check_batch(
    tables: &HashMap<String, FnTable>,
    firings: &[UniqueFiring<'_>],
    parts: &[Partitions],
) -> Result<Vec<Vec<Target>>> {
    // Only a function that fires twice in one batch can merge into a
    // payload the batch itself creates.
    let repeats = firings
        .iter()
        .enumerate()
        .any(|(i, f)| firings[..i].iter().any(|g| g.func == f.func));
    let mut created: HashMap<(&str, Cow<'_, [Value]>), usize> = HashMap::new();
    let mut targets = Vec::with_capacity(firings.len());
    for (i, (firing, parts)) in firings.iter().zip(parts).enumerate() {
        let pending = tables.get(firing.func).map(|t| &t.pending);
        let mut firing_targets = Vec::with_capacity(parts.len());
        for p in 0..parts.len() {
            let key = parts.key(p);
            let target = if let Some(payload) = pending.and_then(|m| m.get(&*key)) {
                check_tables(firing, &payload.state.lock().bound)?;
                Target::Pending(payload.clone())
            } else if repeats {
                match created.entry((firing.func, key)) {
                    Entry::Occupied(e) => {
                        check_tables(firing, &firings[*e.get()].bound)?;
                        Target::Batch
                    }
                    Entry::Vacant(e) => {
                        e.insert(i);
                        Target::New
                    }
                }
            } else {
                Target::New
            };
            firing_targets.push(target);
        }
        targets.push(firing_targets);
    }
    Ok(targets)
}

/// Every bound table of `firing` must exist in `target`, defined
/// identically (§2: bound tables combined across firings "must be defined
/// identically").
fn check_tables(firing: &UniqueFiring<'_>, target: &HashMap<String, TempTable>) -> Result<()> {
    for (name, table) in &firing.bound {
        let dst = target.get(name).ok_or_else(|| {
            RuleError::BoundTableMismatch(format!(
                "bound table `{name}` not present in pending transaction for `{}`",
                firing.func
            ))
        })?;
        dst.check_definition(table)
            .map_err(|e| RuleError::BoundTableMismatch(e.to_string()))?;
    }
    Ok(())
}

/// The apply half of [`UniqueManager::dispatch_batch`] for one checked
/// firing: append each partition's rows straight into its target payload,
/// or give a new payload tables of its own. With one unique table, each
/// row belongs to one partition and moves there; see [`take_unique`].
fn apply_firing(
    pending: &mut HashMap<Vec<Value>, Arc<ActionPayload>>,
    firing: UniqueFiring<'_>,
    parts: Partitions,
    targets: Vec<Target>,
    meter: &dyn Meter,
    commit_us: u64,
) -> Result<Vec<Dispatch>> {
    let UniqueFiring {
        func,
        mut bound,
        ctx,
        ..
    } = firing;
    // A lone partition that becomes a new payload takes the tables whole.
    let whole = parts.len() == 1 && matches!(targets[0], Target::New);
    let mut moved = if whole {
        None
    } else {
        take_unique(&parts, &mut bound)
    };
    let mut out = Vec::with_capacity(parts.len());
    for (p, target) in targets.into_iter().enumerate() {
        meter.charge(Op::UniqueHashOp, 1);
        // Appendix-A partitioning builds each unique table's rows anew.
        let built = parts.unique_rows(p);
        if built > 0 {
            meter.charge(Op::TempTupleBuild, built);
        }
        let existing = match target {
            Target::Pending(payload) => Some(payload),
            Target::Batch => Some(
                pending
                    .get(&*parts.key(p))
                    .expect("created by an earlier firing of the batch")
                    .clone(),
            ),
            Target::New => None,
        };
        if let Some(existing) = existing {
            let mut st = existing.state.lock();
            for (name, src) in &bound {
                let dst = st
                    .bound
                    .get_mut(name)
                    .expect("checked: the pending payload has every bound table");
                // Definitions were checked: these appends cannot fail.
                match parts.rows(p, name) {
                    Some(rows) => {
                        meter.charge(Op::TempTupleBuild, rows.len() as u64);
                        append_part(dst, src, rows, moved.as_mut())?;
                    }
                    None => {
                        meter.charge(Op::TempTupleBuild, src.len() as u64);
                        dst.append_from(src)?;
                    }
                }
            }
            st.merged_firings += 1;
            st.origin_us = st.origin_us.min(commit_us);
            drop(st);
            out.push(Dispatch::Merged(existing));
        } else {
            let tables = if whole {
                std::mem::take(&mut bound)
            } else {
                partition_tables(&bound, &parts, p, moved.as_mut())?
            };
            let key = parts.key(p).into_owned();
            let payload = Arc::new(ActionPayload::new(
                func,
                key.clone(),
                tables,
                commit_us,
                ctx,
            ));
            pending.insert(key, payload.clone());
            out.push(Dispatch::New(payload));
        }
    }
    Ok(out)
}

/// The tuples of a firing's only unique table, taken out of it (the table
/// stays as their definition) so that each partition moves its own rows:
/// with one unique table, a row belongs to exactly one partition. `None`
/// with no unique table, or several — a row then belongs to every
/// partition that picks its group, and each gets a clone.
fn take_unique(
    parts: &Partitions,
    bound: &mut HashMap<String, TempTable>,
) -> Option<Vec<Option<TempTuple>>> {
    let [t] = parts.unique.as_slice() else {
        return None;
    };
    let table = bound.get_mut(&t.name).expect("a unique table is bound");
    Some(table.take_tuples().into_iter().map(Some).collect())
}

/// Append the tuples of `src` at `rows` to `dst`: moved out of `moved`
/// when the firing's unique rows were taken ([`take_unique`]), cloned
/// otherwise.
fn append_part(
    dst: &mut TempTable,
    src: &TempTable,
    rows: &[usize],
    moved: Option<&mut Vec<Option<TempTuple>>>,
) -> Result<()> {
    match moved {
        Some(tuples) => dst.append_tuples(
            src,
            rows.iter()
                .map(|&i| tuples[i].take().expect("a row moves to one partition")),
        )?,
        None => dst.append_rows(src, rows)?,
    }
    Ok(())
}

/// Partition `p`'s own bound tables: its rows of each unique table, sharing
/// that table's schema and static map, and every other table whole.
fn partition_tables(
    bound: &HashMap<String, TempTable>,
    parts: &Partitions,
    p: usize,
    mut moved: Option<&mut Vec<Option<TempTuple>>>,
) -> Result<HashMap<String, TempTable>> {
    bound
        .iter()
        .map(|(name, src)| {
            let table = match parts.rows(p, name) {
                Some(rows) => {
                    let mut t = src.empty_like();
                    append_part(&mut t, src, rows, moved.as_deref_mut())?;
                    t
                }
                None => src.clone(),
            };
            Ok((name.clone(), table))
        })
        .collect()
}

/// One unique table (`T^u`) of a firing, grouped by its unique columns.
struct UniqueTable {
    /// Bound-table name.
    name: String,
    /// Key position of each of this table's unique columns.
    key_pos: Vec<usize>,
    /// Distinct unique-value tuples in first-seen order, each with the
    /// indices of the rows that carry it, in row order.
    groups: Vec<(Vec<Value>, Vec<usize>)>,
}

/// Appendix-A partitioning of one firing's bound tables, as row indices:
/// the rows themselves stay where they are until a partition is merged or
/// becomes a payload.
///
/// * `T^u` = bound tables containing at least one unique column; the rest
///   (`T^a`) are broadcast whole to every partition.
/// * The distinct unique-column combinations are the projection of the
///   cross product of `T^u` onto the unique columns; since tables are
///   independent in the product, this is the cross product of each table's
///   distinct value tuples over the unique columns it contains.
/// * A row of a `T^u` table belongs to partition `v` iff its own unique
///   columns agree with `v`.
///
/// Coarse unique (no unique columns) is the one partition with the empty
/// key that takes every table whole.
struct Partitions {
    /// The `T^u` tables, sorted by name.
    unique: Vec<UniqueTable>,
    /// The cross product: `unique.len()` group indices per partition.
    picks: Vec<usize>,
    /// Number of partitions.
    len: usize,
    /// Number of unique columns.
    n_cols: usize,
}

impl Partitions {
    /// Group `bound` by `unique_cols`. One pass per unique table keeps
    /// this linear in the bound-table size even when a firing produces
    /// thousands of partitions (the paper's `unique on option_symbol`
    /// observation).
    fn of(unique_cols: &[String], bound: &HashMap<String, TempTable>) -> Result<Partitions> {
        // Locate each unique column: (table name, column offset), in the
        // order the columns were declared. Column names must be unique
        // across bound tables (the paper assumes this in Appendix A).
        let mut unique: Vec<UniqueTable> = Vec::new();
        let mut offsets: Vec<Vec<usize>> = Vec::new();
        for (pos, uc) in unique_cols.iter().enumerate() {
            let mut found: Option<(&String, usize)> = None;
            for (name, t) in bound {
                if let Some(off) = t.schema().index_of(uc) {
                    if found.is_some() {
                        return Err(RuleError::UniqueColumn(format!(
                            "unique column `{uc}` appears in multiple bound tables"
                        )));
                    }
                    found = Some((name, off));
                }
            }
            let (name, off) = found.ok_or_else(|| {
                RuleError::UniqueColumn(format!(
                    "unique column `{uc}` not found in any bound table"
                ))
            })?;
            match unique.iter().position(|t| &t.name == name) {
                Some(i) => {
                    unique[i].key_pos.push(pos);
                    offsets[i].push(off);
                }
                None => {
                    unique.push(UniqueTable {
                        name: name.clone(),
                        key_pos: vec![pos],
                        groups: Vec::new(),
                    });
                    offsets.push(vec![off]);
                }
            }
        }

        // Group each unique table's rows by its unique-value tuple. Rows
        // are looked up by values borrowed from their tuples; only a new
        // group's key is copied.
        for (t, offs) in unique.iter_mut().zip(&offsets) {
            let table = &bound[&t.name];
            let mut index: HashMap<Vec<&Value>, usize> = HashMap::new();
            let mut probe: Vec<&Value> = Vec::with_capacity(offs.len());
            for row in 0..table.len() {
                probe.clear();
                probe.extend(offs.iter().map(|&off| table.value(row, off)));
                match index.get(&probe) {
                    Some(&g) => t.groups[g].1.push(row),
                    None => {
                        index.insert(probe.clone(), t.groups.len());
                        let key = probe.iter().map(|&v| v.clone()).collect();
                        t.groups.push((key, vec![row]));
                    }
                }
            }
        }
        // Stable order across runs.
        unique.sort_by(|a, b| a.name.cmp(&b.name));

        // Cross product over the tables' groups (usually one table), in
        // lexicographic order of the group indices.
        let mut picks: Vec<usize> = Vec::new();
        let mut len = 1;
        for (ti, t) in unique.iter().enumerate() {
            let mut next = Vec::with_capacity(len * t.groups.len() * (ti + 1));
            for prefix in 0..len {
                for g in 0..t.groups.len() {
                    next.extend_from_slice(&picks[prefix * ti..(prefix + 1) * ti]);
                    next.push(g);
                }
            }
            picks = next;
            len *= t.groups.len();
        }
        Ok(Partitions {
            unique,
            picks,
            len,
            n_cols: unique_cols.len(),
        })
    }

    /// Number of partitions.
    fn len(&self) -> usize {
        self.len
    }

    /// The group partition `p` takes from the `ti`-th unique table.
    fn group(&self, p: usize, ti: usize) -> &(Vec<Value>, Vec<usize>) {
        &self.unique[ti].groups[self.picks[p * self.unique.len() + ti]]
    }

    /// Rows of the unique tables in partition `p`: the tuples
    /// partitioning builds for it.
    fn unique_rows(&self, p: usize) -> u64 {
        (0..self.unique.len())
            .map(|ti| self.group(p, ti).1.len() as u64)
            .sum()
    }

    /// Partition `p`'s unique-column values, in declared order.
    fn key(&self, p: usize) -> Cow<'_, [Value]> {
        match self.unique.as_slice() {
            [] => Cow::Borrowed(&[]),
            // One unique table holds every unique column, in declared order.
            [_] => Cow::Borrowed(&self.group(p, 0).0),
            tables => {
                let mut key = vec![Value::Null; self.n_cols];
                for (ti, t) in tables.iter().enumerate() {
                    let tuple = &self.group(p, ti).0;
                    for (i, &pos) in t.key_pos.iter().enumerate() {
                        key[pos] = tuple[i].clone();
                    }
                }
                Cow::Owned(key)
            }
        }
    }

    /// The rows of bound table `name` in partition `p`; `None` for a table
    /// that every partition takes whole.
    fn rows(&self, p: usize, name: &str) -> Option<&[usize]> {
        let ti = self.unique.iter().position(|t| t.name == name)?;
        Some(&self.group(p, ti).1)
    }
}

/// Appendix-A partitioning: split a firing's bound tables by the values of
/// the unique columns, one set of tables per distinct combination, in the
/// order dispatch walks them. Tables without a unique column go whole to
/// every partition.
#[allow(clippy::type_complexity)]
pub fn partition_bound_tables(
    unique_cols: &[String],
    bound: HashMap<String, TempTable>,
) -> Result<Vec<(Vec<Value>, HashMap<String, TempTable>)>> {
    let parts = Partitions::of(unique_cols, &bound)?;
    let mut bound = bound;
    let mut moved = take_unique(&parts, &mut bound);
    (0..parts.len())
        .map(|p| {
            let tables = partition_tables(&bound, &parts, p, moved.as_mut())?;
            Ok((parts.key(p).into_owned(), tables))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_storage::{CountingMeter, DataType, NullMeter, Schema};

    fn matches_table(rows: &[(&str, f64)]) -> TempTable {
        let schema = Schema::of(&[("comp", DataType::Str), ("diff", DataType::Float)]).into_ref();
        let mut t = TempTable::materialized("matches", schema);
        for (c, d) in rows {
            t.push_row(vec![(*c).into(), (*d).into()]).unwrap();
        }
        t
    }

    fn bound_with(rows: &[(&str, f64)]) -> HashMap<String, TempTable> {
        let mut m = HashMap::new();
        m.insert("matches".to_string(), matches_table(rows));
        m
    }

    #[test]
    fn coarse_unique_single_partition() {
        let parts = partition_bound_tables(&[], bound_with(&[("C1", 1.0), ("C2", 2.0)])).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].0.is_empty());
        assert_eq!(parts[0].1["matches"].len(), 2);
    }

    #[test]
    fn partition_by_single_column() {
        let parts = partition_bound_tables(
            &["comp".to_string()],
            bound_with(&[("C1", 1.0), ("C2", 2.0), ("C1", 3.0)]),
        )
        .unwrap();
        assert_eq!(parts.len(), 2);
        let c1 = parts.iter().find(|(k, _)| k[0] == "C1".into()).unwrap();
        assert_eq!(c1.1["matches"].len(), 2);
        let c2 = parts.iter().find(|(k, _)| k[0] == "C2".into()).unwrap();
        assert_eq!(c2.1["matches"].len(), 1);
    }

    #[test]
    fn broadcast_table_passed_whole() {
        let mut bound = bound_with(&[("C1", 1.0), ("C2", 2.0)]);
        let aux_schema = Schema::of(&[("k", DataType::Int)]).into_ref();
        let mut aux = TempTable::materialized("aux", aux_schema);
        aux.push_row(vec![7i64.into()]).unwrap();
        bound.insert("aux".to_string(), aux);
        let parts = partition_bound_tables(&["comp".to_string()], bound).unwrap();
        assert_eq!(parts.len(), 2);
        for (_, p) in &parts {
            assert_eq!(p["aux"].len(), 1, "T^a tables broadcast whole");
        }
    }

    #[test]
    fn missing_unique_column_is_error() {
        let e = partition_bound_tables(&["nope".to_string()], bound_with(&[("C1", 1.0)]));
        assert!(matches!(e, Err(RuleError::UniqueColumn(_))));
    }

    #[test]
    fn empty_bound_table_yields_no_partitions() {
        let parts = partition_bound_tables(&["comp".to_string()], bound_with(&[])).unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn dispatch_merges_into_pending() {
        let um = UniqueManager::new();
        um.register_function("f");
        // First firing: creates one pending transaction per composite.
        let d1 = um
            .dispatch_unique(
                "f",
                &["comp".to_string()],
                bound_with(&[("C1", 1.0), ("C2", 2.0)]),
                &NullMeter,
                1_000,
            )
            .unwrap();
        assert_eq!(d1.len(), 2);
        assert!(d1.iter().all(|d| matches!(d, Dispatch::New(_))));
        assert_eq!(um.pending_count("f"), 2);

        // Second firing for C1 merges; C3 is new.
        let d2 = um
            .dispatch_unique(
                "f",
                &["comp".to_string()],
                bound_with(&[("C1", 5.0), ("C3", 9.0)]),
                &NullMeter,
                2_500,
            )
            .unwrap();
        assert_eq!(d2.len(), 2);
        let merged = d2
            .iter()
            .filter(|d| matches!(d, Dispatch::Merged(_)))
            .count();
        assert_eq!(merged, 1);
        assert_eq!(um.pending_count("f"), 3);

        // The pending C1 payload now holds both rows, in firing order.
        let Dispatch::New(c1) = d1
            .iter()
            .find(|d| matches!(d, Dispatch::New(p) if p.unique_key == vec![Value::str("C1")]))
            .unwrap()
        else {
            unreachable!()
        };
        let st = c1.state.lock();
        assert_eq!(st.bound["matches"].len(), 2);
        assert_eq!(st.bound["matches"].value(0, 1).as_f64(), Some(1.0));
        assert_eq!(st.bound["matches"].value(1, 1).as_f64(), Some(5.0));
        assert_eq!(
            st.bound["matches"].mem_bytes(),
            st.bound["matches"].__walk_mem()
        );
        assert_eq!(st.merged_firings, 2);
        // The staleness origin stays at the earliest merged commit.
        assert_eq!(st.origin_us, 1_000);
    }

    #[test]
    fn merge_keeps_earliest_origin() {
        let um = UniqueManager::new();
        let d1 = um
            .dispatch_unique("f", &[], bound_with(&[("C1", 1.0)]), &NullMeter, 5_000)
            .unwrap();
        let Dispatch::New(p) = &d1[0] else { panic!() };
        // Merging an *earlier* commit (possible with pool-mode reordering)
        // moves the origin back; a later one leaves it alone.
        um.dispatch_unique("f", &[], bound_with(&[("C2", 2.0)]), &NullMeter, 3_000)
            .unwrap();
        assert_eq!(p.origin_us(), 3_000);
        um.dispatch_unique("f", &[], bound_with(&[("C3", 3.0)]), &NullMeter, 9_000)
            .unwrap();
        assert_eq!(p.origin_us(), 3_000);
    }

    #[test]
    fn ctx_dispatch_mints_action_span_shared_across_merges() {
        let um = UniqueManager::new();
        let fire = |bound, ctx| {
            let firing = UniqueFiring {
                func: "f",
                unique_cols: &[],
                bound,
                ctx,
            };
            let mut d = um.dispatch_batch(vec![firing], &NullMeter, 0).unwrap();
            d.pop().unwrap().pop().unwrap()
        };
        let ctx1 = TraceCtx::root();
        let Dispatch::New(p) = fire(bound_with(&[("C1", 1.0)]), ctx1) else {
            panic!()
        };
        assert_eq!(p.trace, ctx1.trace);
        assert_ne!(p.span, 0);
        // A firing from a *different* trace merges into the SAME action
        // span: that span now has two trace parents (the lineage DAG).
        let ctx2 = TraceCtx::root();
        let Dispatch::Merged(m) = fire(bound_with(&[("C2", 2.0)]), ctx2) else {
            panic!()
        };
        assert_eq!(m.span, p.span);
        assert_eq!(m.trace, ctx1.trace, "payload keeps its creating trace");
        // Untraced dispatch leaves the identity at zero.
        let q = um.dispatch_non_unique("g", bound_with(&[("C1", 1.0)]), 0);
        assert_eq!((q.trace, q.span), (0, 0));
    }

    #[test]
    fn begin_action_fixes_and_unregisters() {
        let um = UniqueManager::new();
        let d = um
            .dispatch_unique("f", &[], bound_with(&[("C1", 1.0)]), &NullMeter, 0)
            .unwrap();
        let Dispatch::New(p) = &d[0] else { panic!() };
        assert_eq!(um.pending_count("f"), 1);
        um.begin_action(p, &NullMeter);
        assert_eq!(um.pending_count("f"), 0);
        assert!(p.state.lock().fixed);

        // After fixing, a new firing starts a NEW transaction (§2).
        let d2 = um
            .dispatch_unique("f", &[], bound_with(&[("C2", 2.0)]), &NullMeter, 0)
            .unwrap();
        assert!(matches!(d2[0], Dispatch::New(_)));
        // And the old payload was not touched.
        assert_eq!(p.state.lock().bound["matches"].len(), 1);
    }

    #[test]
    fn merge_with_mismatched_schema_is_error() {
        let um = UniqueManager::new();
        um.dispatch_unique("f", &[], bound_with(&[("C1", 1.0)]), &NullMeter, 0)
            .unwrap();
        // A firing with a differently-defined `matches`.
        let other_schema = Schema::of(&[("comp", DataType::Str)]).into_ref();
        let mut bad = HashMap::new();
        let mut t = TempTable::materialized("matches", other_schema);
        t.push_row(vec!["C1".into()]).unwrap();
        bad.insert("matches".to_string(), t);
        let e = um.dispatch_unique("f", &[], bad, &NullMeter, 0);
        assert!(matches!(e, Err(RuleError::BoundTableMismatch(_))));
    }

    #[test]
    fn multi_column_unique_key() {
        let schema = Schema::of(&[
            ("a", DataType::Str),
            ("b", DataType::Int),
            ("x", DataType::Float),
        ])
        .into_ref();
        let mut t = TempTable::materialized("m", schema);
        t.push_row(vec!["p".into(), 1i64.into(), 0.1.into()])
            .unwrap();
        t.push_row(vec!["p".into(), 2i64.into(), 0.2.into()])
            .unwrap();
        t.push_row(vec!["q".into(), 1i64.into(), 0.3.into()])
            .unwrap();
        t.push_row(vec!["p".into(), 1i64.into(), 0.4.into()])
            .unwrap();
        let mut bound = HashMap::new();
        bound.insert("m".to_string(), t);
        let parts = partition_bound_tables(&["a".to_string(), "b".to_string()], bound).unwrap();
        assert_eq!(parts.len(), 3);
        let p1 = parts
            .iter()
            .find(|(k, _)| k == &vec![Value::str("p"), Value::Int(1)])
            .unwrap();
        assert_eq!(p1.1["m"].len(), 2);
    }

    fn aux_table(n: i64) -> TempTable {
        let schema = Schema::of(&[("k", DataType::Int)]).into_ref();
        let mut t = TempTable::materialized("aux", schema);
        for k in 0..n {
            t.push_row(vec![k.into()]).unwrap();
        }
        t
    }

    /// Per-`Op` counts of one dispatch, on a fresh meter.
    fn charges(
        um: &UniqueManager,
        cols: &[&str],
        bound: HashMap<String, TempTable>,
    ) -> Vec<(Op, u64)> {
        let meter = CountingMeter::new();
        let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        um.dispatch_unique("f", &cols, bound, &meter, 0).unwrap();
        meter.snapshot().into_iter().collect()
    }

    #[test]
    fn dispatch_charges_follow_the_cost_model() {
        use Op::{TempTupleBuild as Build, UniqueHashOp as Hash};
        // Coarse: a new payload takes the tables as they are; a merge
        // appends every row.
        let um = UniqueManager::new();
        assert_eq!(
            charges(&um, &[], bound_with(&[("C1", 1.0), ("C2", 2.0)])),
            [(Hash, 1)]
        );
        let three = bound_with(&[("C1", 1.0), ("C2", 2.0), ("C3", 3.0)]);
        assert_eq!(charges(&um, &[], three), [(Build, 3), (Hash, 1)]);

        // `unique on comp`: each partition builds its rows; C1 merges (2
        // rows again), C2 is new.
        let um = UniqueManager::new();
        assert_eq!(
            charges(&um, &["comp"], bound_with(&[("C1", 0.0)])),
            [(Build, 1), (Hash, 1)]
        );
        let mixed = bound_with(&[("C1", 1.0), ("C2", 2.0), ("C1", 3.0)]);
        assert_eq!(
            charges(&um, &["comp"], mixed),
            [(Build, 2 + 2 + 1), (Hash, 2)]
        );

        // A broadcast (T^a) table is appended whole to every merge, and
        // built for none.
        let um = UniqueManager::new();
        let with_aux = |rows: &[(&str, f64)]| {
            let mut b = bound_with(rows);
            b.insert("aux".to_string(), aux_table(2));
            b
        };
        assert_eq!(
            charges(&um, &["comp"], with_aux(&[("C1", 0.0)])),
            [(Build, 1), (Hash, 1)]
        );
        let mixed = with_aux(&[("C1", 1.0), ("C2", 2.0), ("C1", 3.0)]);
        assert_eq!(
            charges(&um, &["comp"], mixed),
            [(Build, 2 + (2 + 2) + 1), (Hash, 2)]
        );

        // Starting an action is one hash-table update.
        let meter = CountingMeter::new();
        let d = um
            .dispatch_unique("g", &[], bound_with(&[]), &NullMeter, 0)
            .unwrap();
        let Dispatch::New(p) = &d[0] else { panic!() };
        um.begin_action(p, &meter);
        assert_eq!(
            meter.snapshot().into_iter().collect::<Vec<_>>(),
            [(Hash, 1)]
        );
    }

    #[test]
    fn take_bound_leaves_the_payload_empty() {
        let um = UniqueManager::new();
        let d = um
            .dispatch_unique(
                "f",
                &[],
                bound_with(&[("C1", 1.0), ("C2", 2.0)]),
                &NullMeter,
                0,
            )
            .unwrap();
        let Dispatch::New(p) = &d[0] else { panic!() };
        um.begin_action(p, &NullMeter);
        let taken = p.take_bound();
        assert_eq!(taken["matches"].len(), 2);
        assert!(
            p.state.lock().bound.is_empty(),
            "the payload keeps no tuples"
        );
        assert!(p.take_bound().is_empty());
    }

    #[test]
    fn failed_dispatch_changes_no_payload() {
        let um = UniqueManager::new();
        let cols = ["comp".to_string()];
        let d = um
            .dispatch_unique("f", &cols, bound_with(&[("C1", 1.0)]), &NullMeter, 0)
            .unwrap();
        let Dispatch::New(c1) = &d[0] else { panic!() };
        // C2 comes first and would be new; C1 then fails to merge a
        // differently defined `matches`.
        let schema = Schema::of(&[("comp", DataType::Str)]).into_ref();
        let mut bad = TempTable::materialized("matches", schema);
        bad.push_row(vec!["C2".into()]).unwrap();
        bad.push_row(vec!["C1".into()]).unwrap();
        let e = um.dispatch_unique(
            "f",
            &cols,
            HashMap::from([("matches".to_string(), bad)]),
            &NullMeter,
            9,
        );
        assert!(matches!(e, Err(RuleError::BoundTableMismatch(_))));
        assert_eq!(um.pending_partitions("f"), vec![vec![Value::str("C1")]]);
        let st = c1.state.lock();
        assert_eq!(
            (st.bound["matches"].len(), st.merged_firings, st.origin_us),
            (1, 1, 0)
        );
    }

    #[test]
    fn batch_checks_firings_against_payloads_it_creates() {
        // Two firings of one function in one commit: the second would merge
        // into the payload the first creates, and is defined differently.
        let um = UniqueManager::new();
        let schema = Schema::of(&[("comp", DataType::Str)]).into_ref();
        let mut narrow = TempTable::materialized("matches", schema);
        narrow.push_row(vec!["C1".into()]).unwrap();
        let cols = ["comp".to_string()];
        let firing = |bound| UniqueFiring {
            func: "f",
            unique_cols: &cols,
            bound,
            ctx: TraceCtx::NONE,
        };
        let batch = vec![
            firing(bound_with(&[("C2", 2.0), ("C1", 1.0)])),
            firing(HashMap::from([("matches".to_string(), narrow)])),
        ];
        let e = um.dispatch_batch(batch, &NullMeter, 0);
        assert!(matches!(e, Err(RuleError::BoundTableMismatch(_))));
        assert_eq!(um.pending_count("f"), 0, "nothing applied");

        // Identically defined firings merge within the batch.
        let batch = vec![
            firing(bound_with(&[("C1", 1.0)])),
            firing(bound_with(&[("C1", 2.0)])),
        ];
        let out = um.dispatch_batch(batch, &NullMeter, 0).unwrap();
        assert!(matches!(out[0][0], Dispatch::New(_)));
        assert!(matches!(out[1][0], Dispatch::Merged(_)));
        assert_eq!(um.pending_count("f"), 1);
    }
}
