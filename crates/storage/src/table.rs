//! Standard tables: versioned, in-memory record stores with sharded latches.
//!
//! Paper §6.1: "standard table records are not changed in place — a new
//! record is created and linked into the relation. The old record is removed
//! from the relation but kept in the system until the last bound table that
//! references it is retired, as determined by a reference counting scheme."
//!
//! We extend the paper's reference-counted retention into full **version
//! chains**: each row slot holds an ordered chain of record versions, newest
//! last, each stamped with the commit timestamp of the transaction that
//! produced it (or [`TS_PENDING`] while that transaction is still running).
//! Writers under strict 2PL always act on the newest version, exactly as
//! before; read-only transactions pinned to a snapshot timestamp `ts`
//! resolve the newest version with `commit_ts <= ts` via [`get_at`] /
//! [`scan_at`] without touching the lock manager. Superseded versions are
//! reclaimed by [`collect_versions`] once no live snapshot can see them
//! (the caller supplies the GC horizon = minimum active snapshot ts).
//!
//! [`get_at`]: StandardTable::get_at
//! [`scan_at`]: StandardTable::scan_at
//! [`collect_versions`]: StandardTable::collect_versions
//!
//! # Sharding and latch discipline
//!
//! Row storage is split into [`SHARD_COUNT`] independently-latched buckets
//! so writers on different rows never contend on the same `RwLock` (the
//! PTA's thousands of distinct-symbol quote transactions are the motivating
//! workload). A [`RowId`]'s slot word packs the shard into its low
//! [`SHARD_BITS`] bits, so locating a row never consults shared state.
//! Secondary indexes carry their own latches. The latch order is
//! **shard before index**: version GC (and the integrity walker) hold a
//! shard latch while taking an index latch, so postings and the chain they
//! describe change atomically; no code path ever takes latches in the
//! opposite order (probes acquire and fully release the index latch before
//! touching a shard), so physical latching cannot deadlock. *Logical*
//! consistency between a row and its index entries remains the lock
//! manager's job (strict 2PL over key resources) for read-write
//! transactions; snapshot readers instead revalidate the fetched version's
//! key against the probe key, because index postings for superseded
//! versions are only removed at GC time.

use crate::error::{Result, StorageError};
use crate::index::{Index, IndexKind};
use crate::mem::{self, TableMem};
use crate::schema::SchemaRef;
use crate::value::Value;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Callback invoked when a shard latch acquisition was *contended*:
/// `(resource_label, wait_us)` with labels of the form `table/shard<i>`.
/// Defined here (the bottom of the crate stack) as a plain callback so
/// storage needs no dependency on the observability crate; `strip-core`
/// installs one that feeds the obs contention map.
pub type LatchObserver = Arc<dyn Fn(&str, u64) + Send + Sync>;

/// Monotonic version-id source, global across tables so tests can track
/// version identity.
static VERSION_IDS: AtomicU64 = AtomicU64::new(1);

/// Number of independently-latched row buckets per table (power of two).
pub const SHARD_COUNT: usize = 16;
/// Bits of a `RowId` slot word that select the shard.
pub const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// Commit timestamp of a version whose transaction has not committed yet.
/// `u64::MAX`, so a pending version is invisible to every snapshot (all
/// real snapshot timestamps are smaller) while still being "the newest
/// version" for strict-2PL readers, which ignore timestamps entirely.
pub const TS_PENDING: u64 = u64::MAX;

/// One immutable version of a record. Attribute values are stored inline
/// (paper §6.1: standard tuples store values, not pointers).
#[derive(Debug)]
pub struct RecordData {
    /// Globally unique id of this version, for diagnostics and tests.
    version_id: u64,
    values: Box<[Value]>,
}

impl RecordData {
    fn new(values: Vec<Value>) -> Arc<RecordData> {
        Arc::new(RecordData {
            version_id: VERSION_IDS.fetch_add(1, Ordering::Relaxed),
            values: values.into_boxed_slice(),
        })
    }

    /// The attribute values of this version.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column offset.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Globally unique version id.
    pub fn version_id(&self) -> u64 {
        self.version_id
    }
}

/// Shared handle to one record version.
pub type RecordRef = Arc<RecordData>;

/// Identifies a row slot within one table. Carries a generation counter so a
/// stale `RowId` for a reclaimed-then-reused slot is detected instead of
/// silently reading an unrelated row. The slot word packs the owning shard
/// into its low [`SHARD_BITS`] bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId {
    slot: u32,
    generation: u32,
}

impl RowId {
    fn pack(shard: usize, local: u32, generation: u32) -> RowId {
        RowId {
            slot: (local << SHARD_BITS) | shard as u32,
            generation,
        }
    }

    fn shard(self) -> usize {
        (self.slot as usize) & (SHARD_COUNT - 1)
    }

    fn local(self) -> u32 {
        self.slot >> SHARD_BITS
    }

    /// Packed representation for error messages.
    pub fn as_u64(self) -> u64 {
        ((self.slot as u64) << 32) | self.generation as u64
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.slot, self.generation)
    }
}

/// One entry of a slot's version chain. `rec: None` is a **tombstone**: the
/// row was deleted by the transaction that committed at `commit_ts`. A
/// tombstone is always the newest entry of its chain (slots are only reused
/// after GC clears the whole chain).
#[derive(Debug)]
struct Version {
    rec: Option<RecordRef>,
    commit_ts: u64,
}

impl Version {
    fn pending(rec: Option<RecordRef>) -> Version {
        Version {
            rec,
            commit_ts: TS_PENDING,
        }
    }
}

/// A row slot: generation counter plus the version chain, oldest first.
/// An empty chain means the slot is free (on its shard's free list).
#[derive(Debug)]
struct Slot {
    generation: u32,
    versions: Vec<Version>,
}

impl Slot {
    /// The current version's record: what strict-2PL readers see. `None`
    /// when the chain is empty (free slot) or the newest entry is a
    /// tombstone (deleted row).
    fn current(&self) -> Option<&RecordRef> {
        self.versions.last().and_then(|v| v.rec.as_ref())
    }

    /// MVCC visibility: the newest version with `commit_ts <= ts`. Returns
    /// `None` when no version is visible at `ts` *or* the visible version
    /// is a tombstone — both mean "no row here" to a snapshot reader.
    fn visible_at(&self, ts: u64) -> Option<RecordRef> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.commit_ts <= ts)
            .and_then(|v| v.rec.clone())
    }

    /// True if some retained version (tombstones excluded) carries `key` in
    /// `column` — i.e. an index posting `(key, id)` already exists for this
    /// slot, since postings are deduplicated per (slot, key).
    fn chain_has_key(&self, column: usize, key: &Value) -> bool {
        self.versions
            .iter()
            .any(|v| v.rec.as_ref().is_some_and(|r| r.get(column) == key))
    }
}

/// One independently-latched bucket of row slots.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    /// Local indices of reclaimed slots available for reuse.
    free: Vec<u32>,
}

/// Sweep the retired-version list inline once it reaches this length, so a
/// sustained update churn with short-lived pins keeps the list bounded.
const RETIRED_SWEEP_LEN: usize = 256;

/// Per-shard byte meters (model: [`crate::mem`]). Each DML charge lands on
/// the mutated row's shard, so the table total is *defined* as the sum of
/// the shards — Σ shard bytes == table bytes holds by construction.
#[derive(Debug, Default)]
struct ShardMem {
    /// Bytes of current record versions referenced by this shard's slots.
    row_bytes: AtomicU64,
    /// Bytes of index entries charged to this shard (postings for its rows,
    /// plus each distinct key first introduced by one of its rows).
    index_bytes: AtomicU64,
    /// Bytes of superseded (non-current) versions still retained on their
    /// slots' chains, awaiting GC. The version-chain meter proper.
    chain_bytes: AtomicU64,
    /// Versions pruned from a chain by GC but still pinned by a transition
    /// or bound table (strong count > 0 at prune time), kept as weak
    /// references with their modeled byte price; released versions are
    /// dropped by the lazy sweep.
    retired: Mutex<Vec<(Weak<RecordData>, u64)>>,
}

impl ShardMem {
    /// Record a GC-pruned version that is still externally pinned. Its
    /// bytes stay on the version-chain meter until the last pin drops.
    fn retire(&self, rec: &RecordRef) {
        let bytes = mem::record_bytes(rec);
        let mut r = self.retired.lock();
        if r.len() >= RETIRED_SWEEP_LEN {
            r.retain(|(w, _)| w.strong_count() > 0);
        }
        r.push((Arc::downgrade(rec), bytes));
    }

    /// Version-chain bytes: retained chain versions plus pruned-but-pinned
    /// retirees (sweeps released ones).
    fn version_bytes(&self) -> u64 {
        let chained = self.chain_bytes.load(Ordering::Relaxed);
        let mut r = self.retired.lock();
        r.retain(|(w, _)| w.strong_count() > 0);
        chained + r.iter().map(|(_, b)| *b).sum::<u64>()
    }
}

/// Counters returned by one [`StandardTable::collect_versions`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Superseded versions pruned from chains.
    pub pruned: u64,
    /// Slots whose whole chain (ending in a committed tombstone) was
    /// reclaimed for reuse.
    pub freed_slots: u64,
}

impl GcStats {
    /// Component-wise sum, for rolling up across tables.
    pub fn add(&mut self, other: GcStats) {
        self.pruned += other.pruned;
        self.freed_slots += other.freed_slots;
    }
}

/// A standard (user-visible, SQL-created) table. All methods take `&self`:
/// row storage is sharded behind per-bucket latches and indexes carry their
/// own, so catalog handles are plain `Arc<StandardTable>`.
#[derive(Debug)]
pub struct StandardTable {
    name: String,
    schema: SchemaRef,
    shards: Vec<RwLock<Shard>>,
    /// Round-robin cursor for spreading fresh inserts across shards.
    next_shard: AtomicUsize,
    /// Total reclaimed slots awaiting reuse, across all shards.
    free_count: AtomicUsize,
    live: AtomicUsize,
    /// Statistics epoch: bumped whenever the live-row count crosses a
    /// power-of-two size class, i.e. whenever the table's cardinality has
    /// changed by enough to plausibly flip a cost-based plan choice. Cached
    /// physical plans key on this (combined with the schema epoch) so a
    /// table growing from 10 to 10 000 rows invalidates plans that chose a
    /// nested-loop join when it was small. Row-level churn inside one size
    /// class does not bump it, so steady-state workloads keep their plans.
    stats_epoch: AtomicU64,
    indexes: RwLock<Vec<Arc<TableIndex>>>,
    /// Per-column distinct-count estimates for *unindexed* columns, computed
    /// on demand from a bounded sample and cached as `(stats_epoch, value)`.
    /// The cache invalidates on the same size-class signal as cached plans,
    /// so a plan and the statistics it priced stay in step.
    distinct_cache: RwLock<Vec<Option<(u64, usize)>>>,
    /// Contention observer for shard latches (see [`LatchObserver`]).
    latch_obs: ObserverCell,
    /// Per-shard byte meters; the table footprint is their sum.
    mem: Vec<ShardMem>,
    /// Slot words (shard packed in the low bits) whose chains may hold
    /// collectible versions: populated by update/delete, drained by
    /// [`Self::collect_versions`]. A `BTreeSet` so repeated churn on one
    /// row costs one entry.
    gc_dirty: Mutex<BTreeSet<u32>>,
}

/// Holder for the optional latch observer; exists so `StandardTable` can
/// keep deriving `Debug` (closures have no `Debug` impl).
#[derive(Default)]
struct ObserverCell(RwLock<Option<LatchObserver>>);

impl fmt::Debug for ObserverCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.read().is_some() {
            "ObserverCell(installed)"
        } else {
            "ObserverCell(none)"
        })
    }
}

/// Power-of-two size class of a row count: 0, 1, 2–3, 4–7, 8–15, … each
/// form one class. Crossing a class boundary signals a cardinality change
/// worth replanning for.
fn size_class(n: usize) -> u32 {
    match n {
        0 => 0,
        _ => n.ilog2() + 1,
    }
}

/// Scale a sample's distinct count to the full table. Exact when the whole
/// table was sampled. A duplicate-free sample means the column is key-like
/// (distinct ≈ rows); otherwise the sample's distinct ratio is scaled
/// linearly, which is exact for uniformly repeated keys and a conservative
/// over-count under skew (an over-count shrinks the rows-per-key estimate,
/// never inflating join-output estimates).
pub fn estimate_distinct(d_sample: usize, sampled: usize, rows: usize) -> usize {
    if sampled == 0 {
        return 0;
    }
    if sampled >= rows {
        return d_sample;
    }
    if d_sample == sampled {
        rows
    } else {
        (d_sample * rows / sampled).clamp(d_sample, rows)
    }
}

/// A secondary index over one column of a standard table, with its own
/// latch. Handles are shared (`Arc`) so probes never hold the table's
/// index-list latch.
#[derive(Debug)]
pub struct TableIndex {
    name: String,
    column: usize,
    kind: IndexKind,
    index: RwLock<Index>,
}

impl TableIndex {
    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column offset.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Implementation kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Point probe: row ids whose indexed column equals `key` in *some
    /// retained version* — callers must revalidate against the fetched
    /// record (postings for superseded versions persist until GC).
    pub fn lookup(&self, key: &Value) -> Vec<RowId> {
        self.index.read().lookup(key)
    }

    /// Range probe (ordered indexes only): `lo <= key <= hi`. Same staleness
    /// contract as [`Self::lookup`].
    pub fn range(&self, lo: &Value, hi: &Value) -> Option<Vec<RowId>> {
        self.index.read().range(lo, hi)
    }

    /// Number of (key, row) entries.
    pub fn entry_count(&self) -> usize {
        self.index.read().entry_count()
    }

    /// Number of distinct keys, for planner selectivity estimates.
    pub fn distinct_keys(&self) -> usize {
        self.index.read().distinct_keys()
    }
}

impl StandardTable {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> StandardTable {
        StandardTable {
            name: name.into(),
            schema,
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            next_shard: AtomicUsize::new(0),
            free_count: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            stats_epoch: AtomicU64::new(0),
            indexes: RwLock::new(Vec::new()),
            distinct_cache: RwLock::new(Vec::new()),
            latch_obs: ObserverCell::default(),
            mem: (0..SHARD_COUNT).map(|_| ShardMem::default()).collect(),
            gc_dirty: Mutex::new(BTreeSet::new()),
        }
    }

    /// Charge one index posting (plus the key, when `new_key`) to a shard.
    fn charge_index_insert(&self, shard: usize, key: &Value, new_key: bool) {
        let mut bytes = mem::INDEX_POSTING_BYTES;
        if new_key {
            bytes += mem::index_key_bytes(key);
        }
        self.mem[shard]
            .index_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Release one index posting from a shard. Key bytes are *not* released:
    /// an emptied posting list keeps its key allocated (and metered) until
    /// the index is dropped, matching [`Index::distinct_keys`].
    fn charge_index_remove(&self, shard: usize) {
        self.mem[shard]
            .index_bytes
            .fetch_sub(mem::INDEX_POSTING_BYTES, Ordering::Relaxed);
    }

    /// Install (or clear) the shard-latch contention observer. Subsequent
    /// *contended* latch acquisitions report `("{table}/shard{i}", wait_us)`
    /// to it; uncontended acquisitions never touch the observer.
    pub fn set_latch_observer(&self, obs: Option<LatchObserver>) {
        *self.latch_obs.0.write() = obs;
    }

    /// Acquire a shard's read latch. Uncontended acquisitions take the
    /// try-lock fast path (no timing, no observer lookup); contended ones
    /// measure the blocking wait and report it.
    fn shard_read(&self, shard: usize) -> RwLockReadGuard<'_, Shard> {
        if let Some(g) = self.shards[shard].try_read() {
            return g;
        }
        let t0 = Instant::now();
        let g = self.shards[shard].read();
        self.note_latch_wait(shard, t0.elapsed());
        g
    }

    /// Write-latch counterpart of [`Self::shard_read`].
    fn shard_write(&self, shard: usize) -> RwLockWriteGuard<'_, Shard> {
        if let Some(g) = self.shards[shard].try_write() {
            return g;
        }
        let t0 = Instant::now();
        let g = self.shards[shard].write();
        self.note_latch_wait(shard, t0.elapsed());
        g
    }

    fn note_latch_wait(&self, shard: usize, waited: std::time::Duration) {
        if let Some(obs) = self.latch_obs.0.read().clone() {
            // Round sub-µs waits up to 1 so every contended acquisition
            // carries weight in the hot-key map.
            let us = (waited.as_micros() as u64).max(1);
            obs(&format!("{}/shard{shard}", self.name), us);
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// True if no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current statistics epoch (see the field docs: bumped when the live
    /// row count crosses a power-of-two size class).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// Bump the stats epoch iff the live count moved between size classes.
    fn note_cardinality_change(&self, before: usize, after: usize) {
        if size_class(before) != size_class(after) {
            self.stats_epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Mark a slot's chain as potentially collectible.
    fn mark_dirty(&self, id: RowId) {
        self.gc_dirty.lock().insert(id.slot);
    }

    /// Slots currently queued for version GC (observability / tests).
    pub fn gc_backlog(&self) -> usize {
        self.gc_dirty.lock().len()
    }

    /// Insert a row as a new pending version. Returns its `RowId`.
    /// Reclaimed slots are reused before new ones are allocated; fresh
    /// allocations round-robin across shards.
    pub fn insert(&self, row: Vec<Value>) -> Result<(RowId, RecordRef)> {
        let row = self.schema.check_row(row)?;
        let rec = RecordData::new(row);
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let id = 'placed: {
            if self.free_count.load(Ordering::Acquire) > 0 {
                for i in 0..SHARD_COUNT {
                    let shard = (start + i) % SHARD_COUNT;
                    let mut s = self.shard_write(shard);
                    if let Some(local) = s.free.pop() {
                        self.free_count.fetch_sub(1, Ordering::AcqRel);
                        let slot = &mut s.slots[local as usize];
                        debug_assert!(slot.versions.is_empty(), "free slot has versions");
                        slot.versions.push(Version::pending(Some(rec.clone())));
                        break 'placed RowId::pack(shard, local, slot.generation);
                    }
                }
            }
            let shard = start % SHARD_COUNT;
            let mut s = self.shard_write(shard);
            let local = s.slots.len() as u32;
            s.slots.push(Slot {
                generation: 0,
                versions: vec![Version::pending(Some(rec.clone()))],
            });
            RowId::pack(shard, local, 0)
        };
        self.mem[id.shard()]
            .row_bytes
            .fetch_add(mem::record_bytes(&rec), Ordering::Relaxed);
        let before = self.live.fetch_add(1, Ordering::AcqRel);
        self.note_cardinality_change(before, before + 1);
        for ix in self.indexes() {
            let key = rec.get(ix.column);
            let new_key = ix.index.write().insert(key.clone(), id);
            self.charge_index_insert(id.shard(), key, new_key);
        }
        Ok((id, rec))
    }

    /// Fetch the current (newest) version of a row: the strict-2PL read.
    pub fn get(&self, id: RowId) -> Result<RecordRef> {
        let s = self.shard_read(id.shard());
        let slot = s
            .slots
            .get(id.local() as usize)
            .ok_or(StorageError::DeadRow(id.as_u64()))?;
        if slot.generation != id.generation {
            return Err(StorageError::DeadRow(id.as_u64()));
        }
        slot.current()
            .cloned()
            .ok_or(StorageError::DeadRow(id.as_u64()))
    }

    /// Snapshot read: the newest version visible at snapshot timestamp
    /// `ts` (`commit_ts <= ts`). `None` means the row does not exist at
    /// that snapshot — never born yet, already deleted, or the slot was
    /// reclaimed (in which case no snapshot at `ts` could see it anyway).
    /// Takes no locks beyond the shard latch.
    pub fn get_at(&self, id: RowId, ts: u64) -> Option<RecordRef> {
        let s = self.shard_read(id.shard());
        let slot = s.slots.get(id.local() as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.visible_at(ts)
    }

    /// Update a row to new attribute values. A **new pending version** is
    /// appended to the chain (paper §6.1); the superseded version is
    /// returned so callers (transition-table builders) may pin it, and
    /// stays on the chain for snapshot readers until GC.
    pub fn update(&self, id: RowId, row: Vec<Value>) -> Result<(RecordRef, RecordRef)> {
        let row = self.schema.check_row(row)?;
        let new_rec = RecordData::new(row);
        // Clone the index list *before* the shard latch: the latch order is
        // shard → per-index latch, and the index-list lock may be write-held
        // by DDL that then takes shard latches.
        let indexes = self.indexes();
        // For each index whose key changed, decide under the shard latch
        // whether some retained version already carries the new key (then a
        // posting for it exists and must not be duplicated).
        let mut post_new: Vec<(usize, bool)> = Vec::new();
        let old_rec = {
            let mut s = self.shard_write(id.shard());
            let slot = s
                .slots
                .get_mut(id.local() as usize)
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            if slot.generation != id.generation || slot.current().is_none() {
                return Err(StorageError::DeadRow(id.as_u64()));
            }
            let old_rec = slot.current().expect("checked live").clone();
            for (i, ix) in indexes.iter().enumerate() {
                let new_key = new_rec.get(ix.column);
                if old_rec.get(ix.column) != new_key {
                    post_new.push((i, !slot.chain_has_key(ix.column, new_key)));
                }
            }
            slot.versions.push(Version::pending(Some(new_rec.clone())));
            old_rec
        };
        let shard_mem = &self.mem[id.shard()];
        shard_mem
            .row_bytes
            .fetch_add(mem::record_bytes(&new_rec), Ordering::Relaxed);
        shard_mem
            .row_bytes
            .fetch_sub(mem::record_bytes(&old_rec), Ordering::Relaxed);
        shard_mem
            .chain_bytes
            .fetch_add(mem::record_bytes(&old_rec), Ordering::Relaxed);
        self.mark_dirty(id);
        // Old-key postings are *retained* (snapshot probes may still need
        // them) and removed by GC once the superseded version is pruned.
        for (i, fresh_posting) in post_new {
            if fresh_posting {
                let ix = &indexes[i];
                let new_key = new_rec.get(ix.column);
                let fresh = ix.index.write().insert(new_key.clone(), id);
                self.charge_index_insert(id.shard(), new_key, fresh);
            }
        }
        Ok((old_rec, new_rec))
    }

    /// Delete a row: append a pending **tombstone** to its chain. Returns
    /// the final version so callers may pin it in a `deleted` transition
    /// table. The slot itself (and its index postings) are reclaimed by GC
    /// once no snapshot can see any of its versions.
    pub fn delete(&self, id: RowId) -> Result<RecordRef> {
        let old = {
            let mut s = self.shard_write(id.shard());
            let slot = s
                .slots
                .get_mut(id.local() as usize)
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            if slot.generation != id.generation || slot.current().is_none() {
                return Err(StorageError::DeadRow(id.as_u64()));
            }
            let old = slot.current().expect("checked live").clone();
            slot.versions.push(Version::pending(None));
            old
        };
        let shard_mem = &self.mem[id.shard()];
        shard_mem
            .row_bytes
            .fetch_sub(mem::record_bytes(&old), Ordering::Relaxed);
        shard_mem
            .chain_bytes
            .fetch_add(mem::record_bytes(&old), Ordering::Relaxed);
        let before = self.live.fetch_sub(1, Ordering::AcqRel);
        self.note_cardinality_change(before, before - 1);
        self.mark_dirty(id);
        Ok(old)
    }

    /// Stamp every pending version of `id`'s chain with commit timestamp
    /// `ts`. Called at transaction commit, under the owner's commit mutex,
    /// for every row the transaction touched; until the global commit clock
    /// is then advanced to `ts`, no snapshot can observe the stamp.
    /// Returns the number of versions stamped (0 for a stale id).
    pub fn publish_versions(&self, id: RowId, ts: u64) -> usize {
        let mut s = self.shard_write(id.shard());
        let Some(slot) = s.slots.get_mut(id.local() as usize) else {
            return 0;
        };
        if slot.generation != id.generation {
            return 0;
        }
        let mut stamped = 0;
        for v in &mut slot.versions {
            if v.commit_ts == TS_PENDING {
                v.commit_ts = ts;
                stamped += 1;
            }
        }
        stamped
    }

    /// Stamp **every** pending version in the table with commit timestamp
    /// `ts`. This is the bulk-load publish: setup code that inserts straight
    /// into storage (bypassing the transaction commit path) leaves its rows
    /// at [`TS_PENDING`], invisible to snapshot readers. Must only be called
    /// while no writer transaction is in flight — it cannot tell a loaded
    /// row from an uncommitted one. Returns the number of versions stamped.
    pub fn publish_all(&self, ts: u64) -> usize {
        let mut stamped = 0;
        for shard in 0..SHARD_COUNT {
            let mut s = self.shard_write(shard);
            for slot in &mut s.slots {
                for v in &mut slot.versions {
                    if v.commit_ts == TS_PENDING {
                        v.commit_ts = ts;
                        stamped += 1;
                    }
                }
            }
        }
        stamped
    }

    /// Roll back an uncommitted insert: pop the pending version and free
    /// the slot (bumping its generation and removing its index postings).
    pub fn revert_insert(&self, id: RowId) -> Result<()> {
        let indexes = self.indexes();
        let rec = {
            let mut s = self.shard_write(id.shard());
            let slot = s
                .slots
                .get_mut(id.local() as usize)
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            if slot.generation != id.generation {
                return Err(StorageError::DeadRow(id.as_u64()));
            }
            let v = slot
                .versions
                .pop()
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            debug_assert!(v.commit_ts == TS_PENDING, "reverting a committed version");
            debug_assert!(slot.versions.is_empty(), "insert was not chain-initial");
            slot.generation = slot.generation.wrapping_add(1);
            let local = id.local();
            s.free.push(local);
            v.rec.ok_or(StorageError::DeadRow(id.as_u64()))?
        };
        self.free_count.fetch_add(1, Ordering::AcqRel);
        self.mem[id.shard()]
            .row_bytes
            .fetch_sub(mem::record_bytes(&rec), Ordering::Relaxed);
        let before = self.live.fetch_sub(1, Ordering::AcqRel);
        self.note_cardinality_change(before, before - 1);
        for ix in &indexes {
            ix.index.write().remove(rec.get(ix.column), id);
            self.charge_index_remove(id.shard());
        }
        Ok(())
    }

    /// Roll back an uncommitted update: pop the pending version, restoring
    /// its predecessor as current. The new version's postings are removed
    /// iff no retained version still carries the key (mirror of the dedup
    /// rule at insert time).
    pub fn revert_update(&self, id: RowId) -> Result<()> {
        let indexes = self.indexes();
        let mut drop_post: Vec<usize> = Vec::new();
        let (new_rec, prev_rec) = {
            let mut s = self.shard_write(id.shard());
            let slot = s
                .slots
                .get_mut(id.local() as usize)
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            if slot.generation != id.generation {
                return Err(StorageError::DeadRow(id.as_u64()));
            }
            let v = slot
                .versions
                .pop()
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            debug_assert!(v.commit_ts == TS_PENDING, "reverting a committed version");
            let new_rec = v.rec.ok_or(StorageError::DeadRow(id.as_u64()))?;
            let prev_rec = slot
                .current()
                .cloned()
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            for (i, ix) in indexes.iter().enumerate() {
                let key = new_rec.get(ix.column);
                if prev_rec.get(ix.column) != key && !slot.chain_has_key(ix.column, key) {
                    drop_post.push(i);
                }
            }
            (new_rec, prev_rec)
        };
        let shard_mem = &self.mem[id.shard()];
        shard_mem
            .row_bytes
            .fetch_sub(mem::record_bytes(&new_rec), Ordering::Relaxed);
        shard_mem
            .row_bytes
            .fetch_add(mem::record_bytes(&prev_rec), Ordering::Relaxed);
        shard_mem
            .chain_bytes
            .fetch_sub(mem::record_bytes(&prev_rec), Ordering::Relaxed);
        for i in drop_post {
            let ix = &indexes[i];
            ix.index.write().remove(new_rec.get(ix.column), id);
            self.charge_index_remove(id.shard());
        }
        Ok(())
    }

    /// Roll back an uncommitted delete: pop the pending tombstone,
    /// restoring its predecessor as current.
    pub fn revert_delete(&self, id: RowId) -> Result<()> {
        let prev_rec = {
            let mut s = self.shard_write(id.shard());
            let slot = s
                .slots
                .get_mut(id.local() as usize)
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            if slot.generation != id.generation {
                return Err(StorageError::DeadRow(id.as_u64()));
            }
            let v = slot
                .versions
                .pop()
                .ok_or(StorageError::DeadRow(id.as_u64()))?;
            debug_assert!(v.commit_ts == TS_PENDING, "reverting a committed version");
            debug_assert!(v.rec.is_none(), "revert_delete popped a non-tombstone");
            slot.current()
                .cloned()
                .ok_or(StorageError::DeadRow(id.as_u64()))?
        };
        let shard_mem = &self.mem[id.shard()];
        shard_mem
            .chain_bytes
            .fetch_sub(mem::record_bytes(&prev_rec), Ordering::Relaxed);
        shard_mem
            .row_bytes
            .fetch_add(mem::record_bytes(&prev_rec), Ordering::Relaxed);
        let before = self.live.fetch_add(1, Ordering::AcqRel);
        self.note_cardinality_change(before, before + 1);
        Ok(())
    }

    /// Version GC: prune every chain version superseded at `horizon` (the
    /// minimum active snapshot timestamp, or the commit clock when no
    /// snapshot is live) and reclaim slots whose chain ends in a committed
    /// tombstone no snapshot can see. Index postings whose key no longer
    /// appears in any surviving version are removed under the shard latch
    /// (latch order shard → index, see the module docs). Pruned versions
    /// still pinned by a transition/bound table move to the weak retired
    /// list so the `version_chains` meter keeps charging them.
    pub fn collect_versions(&self, horizon: u64) -> GcStats {
        self.collect_versions_impl(horizon)
    }

    /// Test-only mutant of [`Self::collect_versions`] with an off-by-one GC
    /// horizon: collects versions that a snapshot pinned *at* the horizon
    /// can still see. Exists so the snapshot-consistency oracle can prove
    /// it detects premature reclamation.
    #[doc(hidden)]
    pub fn __collect_versions_overshoot(&self, horizon: u64) -> GcStats {
        self.collect_versions_impl(horizon.saturating_add(1))
    }

    fn collect_versions_impl(&self, horizon: u64) -> GcStats {
        let dirty: Vec<u32> = std::mem::take(&mut *self.gc_dirty.lock())
            .into_iter()
            .collect();
        let indexes = self.indexes();
        let mut stats = GcStats::default();
        let mut requeue: Vec<u32> = Vec::new();
        for word in dirty {
            let shard = (word as usize) & (SHARD_COUNT - 1);
            let local = (word >> SHARD_BITS) as usize;
            let mut collected: Vec<Version> = Vec::new();
            let mut s = self.shard_write(shard);
            let Some(slot) = s.slots.get_mut(local) else {
                continue;
            };
            if slot.versions.is_empty() {
                continue;
            }
            // Everything older than the newest version visible at the
            // horizon is superseded for every live and future snapshot.
            let keep_from = slot
                .versions
                .iter()
                .rposition(|v| v.commit_ts <= horizon)
                .unwrap_or(0);
            collected.extend(slot.versions.drain(..keep_from));
            stats.pruned += collected.len() as u64;
            // A chain reduced to one committed tombstone is invisible to
            // every snapshot at or after the horizon: reclaim the slot.
            let free_now = slot.versions.len() == 1
                && slot.versions[0].rec.is_none()
                && slot.versions[0].commit_ts <= horizon;
            if free_now {
                collected.append(&mut slot.versions);
                slot.generation = slot.generation.wrapping_add(1);
                stats.freed_slots += 1;
            } else if slot.versions.len() > 1 || slot.versions[0].rec.is_none() {
                requeue.push(word);
            }
            // Remove postings for keys that vanished from the chain. The
            // posting was deduplicated per (slot, key), so each dead key
            // maps to exactly one posting. Note the generation in the
            // posting's RowId predates any bump above.
            let id = RowId::pack(
                shard,
                local as u32,
                if free_now {
                    s.slots[local].generation.wrapping_sub(1)
                } else {
                    s.slots[local].generation
                },
            );
            for ix in &indexes {
                let surviving: HashSet<&Value> = s.slots[local]
                    .versions
                    .iter()
                    .filter_map(|v| v.rec.as_ref().map(|r| r.get(ix.column)))
                    .collect();
                let mut removed: HashSet<Value> = HashSet::new();
                for v in &collected {
                    if let Some(rec) = &v.rec {
                        let key = rec.get(ix.column);
                        if !surviving.contains(key) && !removed.contains(key) {
                            ix.index.write().remove(key, id);
                            self.charge_index_remove(shard);
                            removed.insert(key.clone());
                        }
                    }
                }
            }
            if free_now {
                s.slots[local].versions.clear();
                s.free.push(local as u32);
                self.free_count.fetch_add(1, Ordering::AcqRel);
            }
            drop(s);
            // Meter the pruned versions out of the chain class; externally
            // pinned ones move to the weak retired list and keep charging.
            let shard_mem = &self.mem[shard];
            for v in collected {
                if let Some(rec) = v.rec {
                    shard_mem
                        .chain_bytes
                        .fetch_sub(mem::record_bytes(&rec), Ordering::Relaxed);
                    if Arc::strong_count(&rec) > 1 {
                        shard_mem.retire(&rec);
                    }
                }
            }
        }
        if !requeue.is_empty() {
            self.gc_dirty.lock().extend(requeue);
        }
        stats
    }

    /// Estimated number of distinct values in `column`, for planner
    /// selectivity on columns without an index (indexed columns answer
    /// exactly from the index's key count). Unindexed columns are estimated
    /// from a bounded sample of live rows; the result is cached until the
    /// statistics epoch moves, which is the same size-class signal that
    /// invalidates cached plans — so a cached plan and the statistic it was
    /// priced with stay consistent.
    pub fn distinct_estimate(&self, column: usize) -> usize {
        if let Some(ix) = self.index_on(column) {
            return ix.distinct_keys();
        }
        let epoch = self.stats_epoch();
        if let Some(Some((e, d))) = self.distinct_cache.read().get(column) {
            if *e == epoch {
                return *d;
            }
        }
        const SAMPLE_ROWS: usize = 1024;
        let rows = self.len();
        let mut seen = std::collections::HashSet::new();
        let mut sampled = 0usize;
        'shards: for shard in 0..SHARD_COUNT {
            let s = self.shard_read(shard);
            for slot in &s.slots {
                if let Some(r) = slot.current() {
                    seen.insert(r.get(column).clone());
                    sampled += 1;
                    if sampled >= SAMPLE_ROWS {
                        break 'shards;
                    }
                }
            }
        }
        let d = estimate_distinct(seen.len(), sampled, rows);
        let mut cache = self.distinct_cache.write();
        if cache.len() <= column {
            cache.resize(column + 1, None);
        }
        cache[column] = Some((epoch, d));
        d
    }

    /// Snapshot of the current rows (strict-2PL view), shard by shard. Each
    /// shard latch is held only while that shard is copied.
    pub fn scan(&self) -> Vec<(RowId, RecordRef)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in 0..SHARD_COUNT {
            let s = self.shard_read(shard);
            for (local, slot) in s.slots.iter().enumerate() {
                if let Some(r) = slot.current() {
                    out.push((RowId::pack(shard, local as u32, slot.generation), r.clone()));
                }
            }
        }
        out
    }

    /// MVCC scan: every row visible at snapshot timestamp `ts`, resolved
    /// through the version chains. Takes no locks beyond the shard latches.
    pub fn scan_at(&self, ts: u64) -> Vec<(RowId, RecordRef)> {
        let mut out = Vec::new();
        for shard in 0..SHARD_COUNT {
            let s = self.shard_read(shard);
            for (local, slot) in s.slots.iter().enumerate() {
                if let Some(r) = slot.visible_at(ts) {
                    out.push((RowId::pack(shard, local as u32, slot.generation), r));
                }
            }
        }
        out
    }

    /// Create a secondary index over `column_name`. Backfills postings for
    /// every *retained version's* key — not just current rows — so snapshot
    /// probes through the fresh index still find superseded versions.
    /// (DDL runs under a table X lock, so chains are stable here.)
    pub fn create_index(
        &self,
        index_name: impl Into<String>,
        column_name: &str,
        kind: IndexKind,
    ) -> Result<()> {
        let index_name = index_name.into();
        let mut indexes = self.indexes.write();
        if indexes.iter().any(|ix| ix.name == index_name) {
            return Err(StorageError::IndexExists(index_name));
        }
        let column = self.schema.index_of_ok(column_name)?;
        let mut index = Index::new(kind);
        for shard in 0..SHARD_COUNT {
            let s = self.shard_read(shard);
            for (local, slot) in s.slots.iter().enumerate() {
                let id = RowId::pack(shard, local as u32, slot.generation);
                let mut keys_done: HashSet<&Value> = HashSet::new();
                for v in &slot.versions {
                    if let Some(rec) = &v.rec {
                        let key = rec.get(column);
                        if keys_done.insert(key) {
                            let new_key = index.insert(key.clone(), id);
                            // Backfill charges land on each row's own shard
                            // so Σ-shard == table survives DDL too.
                            self.charge_index_insert(shard, key, new_key);
                        }
                    }
                }
            }
        }
        indexes.push(Arc::new(TableIndex {
            name: index_name,
            column,
            kind,
            index: RwLock::new(index),
        }));
        Ok(())
    }

    /// The index over `column` (by offset) if one exists.
    pub fn index_on(&self, column: usize) -> Option<Arc<TableIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|ix| ix.column == column)
            .cloned()
    }

    /// Handles to all indexes.
    pub fn indexes(&self) -> Vec<Arc<TableIndex>> {
        self.indexes.read().clone()
    }

    /// Probe the index on `column` for `key`. Returns candidate row ids;
    /// callers must revalidate the fetched record's key (postings for
    /// superseded versions persist until GC). Returns `None` if no index
    /// exists on that column.
    pub fn index_lookup(&self, column: usize, key: &Value) -> Option<Vec<RowId>> {
        self.index_on(column).map(|ix| ix.lookup(key))
    }

    /// Range probe (ordered indexes only): candidate rows with
    /// `lo <= key <= hi`. A row whose chain holds several keys inside the
    /// range appears under each, so candidates are deduplicated here;
    /// callers still filter on the fetched record's current key.
    pub fn index_range(&self, column: usize, lo: &Value, hi: &Value) -> Option<Vec<RowId>> {
        let ids = self.index_on(column).and_then(|ix| ix.range(lo, hi))?;
        let mut seen = HashSet::with_capacity(ids.len());
        Some(ids.into_iter().filter(|id| seen.insert(*id)).collect())
    }

    /// Debug/test helper: verify that every index exactly covers the
    /// retained chains — one posting per (slot, distinct retained key).
    /// Only meaningful at logically quiescent points (no in-flight
    /// writers), like all cross-cutting consistency checks; snapshots may
    /// be live (their retained versions are part of the expectation).
    pub fn check_index_integrity(&self) -> Result<()> {
        for ix in self.indexes() {
            let mut expected = 0usize;
            for shard in 0..SHARD_COUNT {
                let s = self.shard_read(shard);
                for (local, slot) in s.slots.iter().enumerate() {
                    let id = RowId::pack(shard, local as u32, slot.generation);
                    let mut keys: HashSet<&Value> = HashSet::new();
                    for v in &slot.versions {
                        if let Some(rec) = &v.rec {
                            keys.insert(rec.get(ix.column));
                        }
                    }
                    for key in keys {
                        if !ix.lookup(key).contains(&id) {
                            return Err(StorageError::Invariant(format!(
                                "index `{}` missing entry for row {id} key {key:?}",
                                ix.name
                            )));
                        }
                        expected += 1;
                    }
                }
            }
            if ix.entry_count() != expected {
                return Err(StorageError::Invariant(format!(
                    "index `{}` has {} entries but chains expect {}",
                    ix.name,
                    ix.entry_count(),
                    expected
                )));
            }
        }
        Ok(())
    }

    /// Byte footprint charged to one shard. Row and index components read
    /// the incremental counters; the version component adds retained chain
    /// bytes to still-pinned pruned versions (sweeping released ones).
    pub fn shard_mem(&self, shard: usize) -> TableMem {
        let m = &self.mem[shard];
        TableMem {
            row_bytes: m.row_bytes.load(Ordering::Relaxed),
            index_bytes: m.index_bytes.load(Ordering::Relaxed),
            version_bytes: m.version_bytes(),
        }
    }

    /// Exact byte footprint of the table: the sum of the per-shard meters.
    /// Exact at mutation-quiescent points (a mutation mid-flight may have
    /// charged some components but not yet others).
    pub fn mem(&self) -> TableMem {
        let mut out = TableMem::default();
        for shard in 0..SHARD_COUNT {
            out.add(self.shard_mem(shard));
        }
        out
    }

    /// Deep-walk size oracle: recompute the table's entire footprint from
    /// scratch under the model of [`crate::mem`], ignoring every incremental
    /// counter. The newest rec-bearing chain entry of a slot is a row byte
    /// holder iff it is the chain head (not superseded by a tombstone);
    /// every other retained version — plus pruned-but-pinned retirees —
    /// belongs to the version-chain class. Test-only contract
    /// (`tests/prop_mem.rs` pins `mem() == __walk_mem()` after arbitrary
    /// DML/DDL/GC interleavings); hidden because it takes every shard and
    /// index latch in turn.
    #[doc(hidden)]
    pub fn __walk_mem(&self) -> TableMem {
        let mut out = TableMem::default();
        for shard in 0..SHARD_COUNT {
            let s = self.shard_read(shard);
            for slot in &s.slots {
                let n = slot.versions.len();
                for (i, v) in slot.versions.iter().enumerate() {
                    if let Some(r) = &v.rec {
                        if i + 1 == n {
                            out.row_bytes += mem::record_bytes(r);
                        } else {
                            out.version_bytes += mem::record_bytes(r);
                        }
                    }
                }
            }
        }
        for ix in self.indexes() {
            out.index_bytes += ix.index.read().walk_bytes();
        }
        for shard_mem in &self.mem {
            // Re-price pinned retirees from the live record, independently
            // of the byte figure cached at retirement time.
            for (weak, _) in shard_mem.retired.lock().iter() {
                if let Some(rec) = weak.upgrade() {
                    out.version_bytes += mem::record_bytes(&rec);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn stocks() -> StandardTable {
        let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
        StandardTable::new("stocks", schema.into_ref())
    }

    /// Publish every pending version of the given rows at `ts` and collect
    /// with no live snapshots (horizon = ts): the single-writer equivalent
    /// of commit + quiescent GC.
    fn commit_rows(t: &StandardTable, ids: &[RowId], ts: u64) {
        for id in ids {
            t.publish_versions(*id, ts);
        }
        t.collect_versions(ts);
    }

    #[test]
    fn contended_shard_latch_reports_to_observer() {
        use std::sync::{Barrier, Mutex};
        let t = Arc::new(stocks());
        let events: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        t.set_latch_observer(Some(Arc::new(move |res: &str, us: u64| {
            sink.lock().unwrap().push((res.to_string(), us));
        })));
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        let shard = id.shard();
        // Hold the row's shard write latch so the reader's try-lock fast
        // path fails and it must block (and therefore report the wait).
        let guard = t.shards[shard].write();
        let barrier = Arc::new(Barrier::new(2));
        let reader = {
            let (t, barrier) = (t.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                t.get(id).unwrap()
            })
        };
        barrier.wait();
        // The reader is now running `get`; give it time to fail the
        // try-lock and park before releasing the latch.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        reader.join().unwrap();
        let events = events.lock().unwrap();
        let label = format!("stocks/shard{shard}");
        assert!(
            events.iter().any(|(r, us)| r == &label && *us >= 1),
            "expected a contended-latch event for {label}, got {events:?}"
        );
    }

    #[test]
    fn uncontended_access_never_fires_observer() {
        use std::sync::Mutex;
        let t = stocks();
        let events: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        t.set_latch_observer(Some(Arc::new(move |res: &str, us: u64| {
            sink.lock().unwrap().push((res.to_string(), us));
        })));
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.update(id, vec!["IBM".into(), 101.0.into()]).unwrap();
        t.get(id).unwrap();
        t.delete(id).unwrap();
        commit_rows(&t, &[id], 1);
        assert!(events.lock().unwrap().is_empty());
    }

    #[test]
    fn insert_get() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 101.5.into()]).unwrap();
        let rec = t.get(id).unwrap();
        assert_eq!(rec.get(0).as_str(), Some("IBM"));
        assert_eq!(rec.get(1).as_f64(), Some(101.5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_creates_new_version_and_old_stays_alive() {
        let t = stocks();
        let (id, v0) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        let (old, new) = t.update(id, vec!["IBM".into(), 101.0.into()]).unwrap();
        assert_eq!(old.version_id(), v0.version_id());
        assert_ne!(new.version_id(), old.version_id());
        // The table now points at the new version...
        assert_eq!(t.get(id).unwrap().get(1).as_f64(), Some(101.0));
        // ...but the pinned old version still reads the captured value
        // (paper §6.1: kept until the last bound table retires it).
        assert_eq!(old.get(1).as_f64(), Some(100.0));
    }

    #[test]
    fn delete_then_stale_rowid_is_detected() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.publish_versions(id, 1);
        t.delete(id).unwrap();
        t.publish_versions(id, 2);
        assert!(matches!(t.get(id), Err(StorageError::DeadRow(_))));
        // GC reclaims the tombstoned slot; it is then reused (possibly in
        // another shard thanks to the round-robin cursor) with a new
        // generation, and the stale id still fails.
        t.collect_versions(2);
        let (id2, _) = t.insert(vec!["HWP".into(), 40.0.into()]).unwrap();
        assert_ne!(id2, id);
        assert!(t.get(id).is_err());
        assert!(t.get(id2).is_ok());
        // The freed slot really was reused: no net slot growth.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn freed_slot_is_reused_after_gc_not_leaked() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.publish_versions(id, 1);
        t.delete(id).unwrap();
        t.publish_versions(id, 2);
        let stats = t.collect_versions(2);
        assert_eq!(stats.freed_slots, 1);
        let (id2, _) = t.insert(vec!["HWP".into(), 40.0.into()]).unwrap();
        // Same packed slot word, bumped generation.
        assert_eq!(id2.slot, id.slot);
        assert_ne!(id2.generation, id.generation);
    }

    #[test]
    fn tombstoned_slot_is_not_reused_before_gc() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.publish_versions(id, 1);
        t.delete(id).unwrap();
        t.publish_versions(id, 2);
        // No GC yet: a snapshot at ts=1 can still see the row, so the slot
        // must not be handed out to a new insert.
        let (id2, _) = t.insert(vec!["HWP".into(), 40.0.into()]).unwrap();
        assert_ne!(id2.slot, id.slot);
        assert_eq!(t.get_at(id, 1).unwrap().get(0).as_str(), Some("IBM"));
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let t = stocks();
        assert!(t.insert(vec![1i64.into()]).is_err());
        assert!(t.insert(vec![1i64.into(), "x".into()]).is_err());
        let (id, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        assert!(t.update(id, vec!["A".into(), "bad".into()]).is_err());
    }

    #[test]
    fn hash_index_maintained_across_dml() {
        let t = stocks();
        t.create_index("ix_symbol", "symbol", IndexKind::Hash)
            .unwrap();
        let (a, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        let (b, _) = t.insert(vec!["B".into(), 2.0.into()]).unwrap();
        let col = 0;
        assert_eq!(t.index_lookup(col, &"A".into()), Some(vec![a]));
        commit_rows(&t, &[a, b], 1);
        t.update(b, vec!["C".into(), 2.0.into()]).unwrap();
        // Before GC the old-key posting is retained for snapshot probes...
        assert_eq!(t.index_lookup(col, &"B".into()), Some(vec![b]));
        assert_eq!(t.index_lookup(col, &"C".into()), Some(vec![b]));
        // ...and GC removes it once the superseded version is pruned.
        commit_rows(&t, &[b], 2);
        assert_eq!(t.index_lookup(col, &"B".into()), Some(vec![]));
        assert_eq!(t.index_lookup(col, &"C".into()), Some(vec![b]));
        t.delete(a).unwrap();
        commit_rows(&t, &[a], 3);
        assert_eq!(t.index_lookup(col, &"A".into()), Some(vec![]));
        t.check_index_integrity().unwrap();
    }

    #[test]
    fn rbtree_index_supports_range() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let t = StandardTable::new("t", schema.into_ref());
        t.create_index("ix_k", "k", IndexKind::RbTree).unwrap();
        let mut ids = Vec::new();
        for i in 0..10i64 {
            ids.push(t.insert(vec![i.into()]).unwrap().0);
        }
        let hits = t.index_range(0, &3i64.into(), &5i64.into()).unwrap();
        assert_eq!(hits, vec![ids[3], ids[4], ids[5]]);
    }

    #[test]
    fn range_probe_dedups_chained_keys() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let t = StandardTable::new("t", schema.into_ref());
        t.create_index("ix_k", "k", IndexKind::RbTree).unwrap();
        let (id, _) = t.insert(vec![1i64.into()]).unwrap();
        t.publish_versions(id, 1);
        // Chain now holds keys 1 and 3 for the same row; a range probe
        // covering both must yield the row once.
        t.update(id, vec![3i64.into()]).unwrap();
        let hits = t.index_range(0, &0i64.into(), &5i64.into()).unwrap();
        assert_eq!(hits, vec![id]);
    }

    #[test]
    fn index_on_unchanged_key_keeps_rowid() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let (id, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        // Price-only update: the symbol key is unchanged, RowId stays valid.
        t.update(id, vec!["A".into(), 9.0.into()]).unwrap();
        assert_eq!(t.index_lookup(0, &"A".into()), Some(vec![id]));
        t.check_index_integrity().unwrap();
    }

    #[test]
    fn chained_key_flip_does_not_duplicate_postings() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let (id, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        t.publish_versions(id, 1);
        t.update(id, vec!["B".into(), 2.0.into()]).unwrap();
        t.publish_versions(id, 2);
        // Key flips back to A while version 1 (key A) is still retained:
        // the posting (A, id) already exists and must not be duplicated.
        t.update(id, vec!["A".into(), 3.0.into()]).unwrap();
        t.publish_versions(id, 3);
        assert_eq!(t.index_lookup(0, &"A".into()), Some(vec![id]));
        t.check_index_integrity().unwrap();
        // GC at horizon 3 prunes both superseded versions; the A posting
        // survives (current key) and B's is removed.
        t.collect_versions(3);
        assert_eq!(t.index_lookup(0, &"A".into()), Some(vec![id]));
        assert_eq!(t.index_lookup(0, &"B".into()), Some(vec![]));
        t.check_index_integrity().unwrap();
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        assert!(matches!(
            t.create_index("ix", "price", IndexKind::Hash),
            Err(StorageError::IndexExists(_))
        ));
    }

    #[test]
    fn scan_skips_dead_rows() {
        let t = stocks();
        let (a, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        let (_b, _) = t.insert(vec!["B".into(), 2.0.into()]).unwrap();
        t.delete(a).unwrap();
        let names: Vec<String> = t
            .scan()
            .into_iter()
            .map(|(_, r)| r.get(0).as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["B"]);
    }

    #[test]
    fn snapshot_reads_resolve_versions_by_timestamp() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        // Pending versions are invisible to every snapshot.
        assert!(t.get_at(id, u64::MAX - 1).is_none());
        t.publish_versions(id, 5);
        assert!(t.get_at(id, 4).is_none());
        assert_eq!(t.get_at(id, 5).unwrap().get(1).as_f64(), Some(100.0));
        t.update(id, vec!["IBM".into(), 101.0.into()]).unwrap();
        // Uncommitted update: snapshots still see the old version.
        assert_eq!(t.get_at(id, 9).unwrap().get(1).as_f64(), Some(100.0));
        t.publish_versions(id, 7);
        assert_eq!(t.get_at(id, 6).unwrap().get(1).as_f64(), Some(100.0));
        assert_eq!(t.get_at(id, 7).unwrap().get(1).as_f64(), Some(101.0));
        t.delete(id).unwrap();
        t.publish_versions(id, 9);
        assert_eq!(t.get_at(id, 8).unwrap().get(1).as_f64(), Some(101.0));
        assert!(t.get_at(id, 9).is_none());
        // scan_at agrees with get_at.
        assert_eq!(t.scan_at(5).len(), 1);
        assert_eq!(t.scan_at(9).len(), 0);
    }

    #[test]
    fn gc_respects_horizon_and_mutant_overshoots() {
        let t = stocks();
        let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.publish_versions(id, 1);
        t.update(id, vec!["IBM".into(), 101.0.into()]).unwrap();
        t.publish_versions(id, 2);
        // A snapshot pinned at ts=1 is live: horizon 1 must retain v1.
        t.collect_versions(1);
        assert_eq!(t.get_at(id, 1).unwrap().get(1).as_f64(), Some(100.0));
        // The off-by-one mutant collects v1 even though the snapshot at 1
        // still needs it — the read now (wrongly) sees nothing.
        t.__collect_versions_overshoot(1);
        assert!(t.get_at(id, 1).is_none());
        // Correct-horizon behavior once the snapshot would have dropped.
        assert_eq!(t.get_at(id, 2).unwrap().get(1).as_f64(), Some(101.0));
    }

    #[test]
    fn revert_ops_undo_pending_chain_entries() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let (a, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        t.publish_versions(a, 1);
        let base_mem = t.mem();

        // Abort an update with a key change: posting for B disappears.
        // (The emptied key allocation stays metered, matching the walk
        // oracle, so only row/version bytes return to baseline.)
        t.update(a, vec!["B".into(), 2.0.into()]).unwrap();
        assert_eq!(t.index_lookup(0, &"B".into()), Some(vec![a]));
        t.revert_update(a).unwrap();
        assert_eq!(t.get(a).unwrap().get(0).as_str(), Some("A"));
        assert_eq!(t.index_lookup(0, &"B".into()), Some(vec![]));
        assert_eq!(t.mem().row_bytes, base_mem.row_bytes);
        assert_eq!(t.mem().version_bytes, base_mem.version_bytes);
        assert_eq!(t.mem(), t.__walk_mem());

        // Abort a delete: the row is live again.
        t.delete(a).unwrap();
        assert!(t.get(a).is_err());
        t.revert_delete(a).unwrap();
        assert_eq!(t.get(a).unwrap().get(0).as_str(), Some("A"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.mem().row_bytes, base_mem.row_bytes);
        assert_eq!(t.mem().version_bytes, base_mem.version_bytes);

        // Abort an insert: slot freed, generation bumped, postings gone.
        let (b, _) = t.insert(vec!["C".into(), 3.0.into()]).unwrap();
        t.revert_insert(b).unwrap();
        assert!(t.get(b).is_err());
        assert_eq!(t.index_lookup(0, &"C".into()), Some(vec![]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.mem().row_bytes, base_mem.row_bytes);
        assert_eq!(t.mem().version_bytes, base_mem.version_bytes);
        assert_eq!(t.mem(), t.__walk_mem());
        t.check_index_integrity().unwrap();
    }

    #[test]
    fn stats_epoch_bumps_on_size_class_crossings_only() {
        let t = stocks();
        assert_eq!(t.stats_epoch(), 0);
        // 0 -> 1 crosses a class boundary.
        let (a, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        let e1 = t.stats_epoch();
        assert!(e1 > 0);
        // 1 -> 2 crosses; 2 -> 3 stays inside the 2–3 class.
        let (b, _) = t.insert(vec!["B".into(), 1.0.into()]).unwrap();
        let e2 = t.stats_epoch();
        assert!(e2 > e1);
        t.insert(vec!["C".into(), 1.0.into()]).unwrap();
        assert_eq!(t.stats_epoch(), e2);
        // Updates never change cardinality, so never bump.
        t.update(a, vec!["A".into(), 9.0.into()]).unwrap();
        assert_eq!(t.stats_epoch(), e2);
        // 3 -> 2 stays in class; 2 -> 1 crosses.
        t.delete(b).unwrap();
        assert_eq!(t.stats_epoch(), e2);
        t.delete(a).unwrap();
        assert!(t.stats_epoch() > e2);
    }

    #[test]
    fn index_distinct_keys_tracks_live_keys() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        t.insert(vec!["A".into(), 2.0.into()]).unwrap();
        t.insert(vec!["B".into(), 3.0.into()]).unwrap();
        let ix = t.index_on(0).unwrap();
        assert_eq!(ix.entry_count(), 3);
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn inserts_spread_across_shards() {
        let t = stocks();
        let mut shards = std::collections::HashSet::new();
        for i in 0..SHARD_COUNT {
            let (id, _) = t.insert(vec![format!("S{i}").into(), 1.0.into()]).unwrap();
            shards.insert(id.shard());
        }
        assert_eq!(shards.len(), SHARD_COUNT, "round-robin covers all shards");
        assert_eq!(t.scan().len(), SHARD_COUNT);
    }

    #[test]
    fn parallel_writers_on_distinct_rows_keep_table_consistent() {
        let t = Arc::new(stocks());
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(
                t.insert(vec![format!("S{i}").into(), 0.0.into()])
                    .unwrap()
                    .0,
            );
        }
        for id in &ids {
            t.publish_versions(*id, 1);
        }
        let threads: Vec<_> = ids
            .chunks(16)
            .map(|chunk| {
                let t = t.clone();
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for (n, id) in chunk.iter().enumerate() {
                        let sym = t.get(*id).unwrap().get(0).clone();
                        for step in 0..50 {
                            t.update(*id, vec![sym.clone(), ((n * step) as f64).into()])
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 64);
        commit_rows(&t, &ids, 2);
        t.check_index_integrity().unwrap();
    }

    #[test]
    fn metering_matches_walk_oracle_after_mixed_dml() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let (a, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        let (b, _) = t.insert(vec!["HWP".into(), 40.0.into()]).unwrap();
        commit_rows(&t, &[a, b], 1);
        assert_eq!(t.mem(), t.__walk_mem());
        // Update with a key change: the superseded version moves to the
        // version-chain class until GC prunes it.
        let (old, _) = t.update(a, vec!["SUNW".into(), 101.0.into()]).unwrap();
        t.publish_versions(a, 2);
        assert_eq!(t.mem(), t.__walk_mem());
        assert_eq!(t.mem().version_bytes, mem::record_bytes(&old));
        // Delete while the chain retains the other row: both superseded
        // versions owe bytes.
        let deleted = t.delete(b).unwrap();
        t.publish_versions(b, 3);
        assert_eq!(t.mem(), t.__walk_mem());
        assert_eq!(
            t.mem().version_bytes,
            mem::record_bytes(&old) + mem::record_bytes(&deleted)
        );
        // GC prunes the chains; the externally pinned versions keep owing
        // via the weak retired list until the pins drop.
        t.collect_versions(3);
        assert_eq!(t.mem(), t.__walk_mem());
        assert_eq!(
            t.mem().version_bytes,
            mem::record_bytes(&old) + mem::record_bytes(&deleted)
        );
        drop(old);
        drop(deleted);
        assert_eq!(t.mem().version_bytes, 0);
        assert_eq!(t.mem(), t.__walk_mem());
        // DDL after the fact backfills index charges consistently.
        t.create_index("ix_price", "price", IndexKind::RbTree)
            .unwrap();
        assert_eq!(t.mem(), t.__walk_mem());
        assert!(t.mem().index_bytes > 0);
    }

    #[test]
    fn unpinned_chain_versions_free_fully_at_gc() {
        let t = stocks();
        let (a, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
        t.publish_versions(a, 1);
        let baseline = t.mem();
        {
            // Update without keeping the returned pin alive.
            let _ = t.update(a, vec!["IBM".into(), 101.0.into()]).unwrap();
        }
        t.publish_versions(a, 2);
        assert!(t.mem().version_bytes > 0, "superseded version is retained");
        t.collect_versions(2);
        assert_eq!(t.mem().version_bytes, 0);
        assert_eq!(t.mem().row_bytes, baseline.row_bytes);
        assert_eq!(t.mem(), t.__walk_mem());
    }

    #[test]
    fn emptied_index_key_stays_metered() {
        let t = stocks();
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let (a, _) = t.insert(vec!["IBM".into(), 1.0.into()]).unwrap();
        t.publish_versions(a, 1);
        let with_key = t.mem().index_bytes;
        t.delete(a).unwrap();
        t.publish_versions(a, 2);
        t.collect_versions(2);
        // The posting is released but the key allocation remains (matching
        // `distinct_keys`), and the oracle agrees.
        assert_eq!(t.mem().index_bytes, with_key - mem::INDEX_POSTING_BYTES);
        assert_eq!(t.mem(), t.__walk_mem());
    }

    #[test]
    fn concurrent_writers_keep_shard_sum_and_oracle_exact() {
        let t = Arc::new(stocks());
        t.create_index("ix", "symbol", IndexKind::Hash).unwrap();
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(
                t.insert(vec![format!("S{i}").into(), 0.0.into()])
                    .unwrap()
                    .0,
            );
        }
        for id in &ids {
            t.publish_versions(*id, 1);
        }
        let threads: Vec<_> = ids
            .chunks(16)
            .map(|chunk| {
                let t = t.clone();
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for (n, id) in chunk.iter().enumerate() {
                        for step in 0..50 {
                            // Growing symbol strings force row-byte changes
                            // and index key churn on every step.
                            let sym = format!("S{n}x{step}");
                            t.update(*id, vec![sym.into(), (step as f64).into()])
                                .unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        // Publish and GC to quiescence: incremental meters equal the deep
        // walk, per shard and in total, and no chain retains old versions.
        commit_rows(&t, &ids, 2);
        let walked = t.__walk_mem();
        assert_eq!(t.mem(), walked);
        assert_eq!(t.mem().version_bytes, 0);
        let mut sum = TableMem::default();
        let mut shard_rows = [0u64; SHARD_COUNT];
        for (id, rec) in t.scan() {
            shard_rows[id.shard()] += mem::record_bytes(&rec);
        }
        for (shard, rows) in shard_rows.iter().enumerate() {
            let m = t.shard_mem(shard);
            assert_eq!(m.row_bytes, *rows);
            sum.add(m);
        }
        assert_eq!(sum, t.mem());
    }

    #[test]
    fn gc_backlog_drains_at_quiescence() {
        let t = stocks();
        let (a, _) = t.insert(vec!["A".into(), 1.0.into()]).unwrap();
        t.publish_versions(a, 1);
        for i in 0..5 {
            t.update(a, vec!["A".into(), (i as f64).into()]).unwrap();
        }
        t.publish_versions(a, 2);
        assert!(t.gc_backlog() > 0);
        let stats = t.collect_versions(2);
        assert_eq!(stats.pruned, 5);
        assert_eq!(t.gc_backlog(), 0);
    }
}
