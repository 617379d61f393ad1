//! Prepared-plan cache.
//!
//! Maps a statement key (typically the statement text; keys that are not
//! plain text start with [`INTERNAL_KEY_PREFIX`]) to a compiled
//! [`PhysicalPlan`]. Entries are tagged with the schema epoch they
//! were planned under; a lookup under a newer epoch is a miss and the entry
//! is replaced. Hit/miss counters feed the simulator's statistics so
//! experiments can report plan-cache effectiveness.

use crate::error::Result;
use crate::plan::PhysicalPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use strip_obs::{EventKind, Hist, ObsSink, TraceCtx};

struct CachedPlan {
    epoch: u64,
    plan: Arc<PhysicalPlan>,
}

/// Modeled bytes per cached plan beyond its key: the map entry plus a flat
/// allowance for the compiled plan tree. Plans are recursive enums whose
/// true size is not worth walking; the accounting contract (exact counts,
/// modeled sizes — see `strip_storage::mem`) only needs the figure to be
/// deterministic and maintained exactly per entry.
pub const PLAN_CACHE_ENTRY_BYTES: u64 = 256;

/// First character of every key that is not plain statement text: rule
/// clauses (`rule:{name}:cond:{i}`, `rule:{name}:eval:{i}`) and statements
/// of rule actions, whose text is prefixed with the bound-table signature.
/// The SQL lexer rejects it, so no statement starts with it, and an entry
/// point that looks text up before parsing it parses text starting with it
/// instead. Text from outside the program can then never run a plan
/// cached under an internal key.
pub const INTERNAL_KEY_PREFIX: char = '\0';

/// A concurrent prepared-plan cache keyed by `(statement key, schema epoch)`.
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<String, CachedPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Modeled bytes held by cached entries (entry allowance + key length),
    /// maintained on insert/invalidate/clear. Atomic so memory probes can
    /// read it without touching the cache lock.
    bytes: AtomicU64,
    obs: Option<Arc<ObsSink>>,
}

/// Modeled bytes of one cache entry.
fn entry_bytes(key: &str) -> u64 {
    PLAN_CACHE_ENTRY_BYTES + key.len() as u64
}

impl PlanCache {
    /// New empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// New empty cache that traces compile spans into `obs`.
    pub fn with_obs(obs: Arc<ObsSink>) -> PlanCache {
        PlanCache {
            obs: Some(obs),
            ..PlanCache::default()
        }
    }

    /// Look up `key` at `epoch`; on a miss (absent or planned under an older
    /// epoch) call `build` and cache its result. The lock is not held while
    /// planning, so concurrent misses on the same key may plan twice — the
    /// last one wins, which is harmless (plans are deterministic for a given
    /// epoch).
    pub fn get_or_plan(
        &self,
        key: &str,
        epoch: u64,
        build: impl FnOnce() -> Result<PhysicalPlan>,
    ) -> Result<Arc<PhysicalPlan>> {
        self.get_or_plan_at(key, epoch, 0, build)
    }

    /// [`PlanCache::get_or_plan`] with a virtual-clock timestamp for the
    /// traced `plan.compile` span. The span's *timestamp* is virtual time;
    /// its *duration* is real wall-clock µs, because planning is host work
    /// the Table-1 cost model does not price.
    pub fn get_or_plan_at(
        &self,
        key: &str,
        epoch: u64,
        at_us: u64,
        build: impl FnOnce() -> Result<PhysicalPlan>,
    ) -> Result<Arc<PhysicalPlan>> {
        self.get_or_plan_ctx(key, epoch, at_us, TraceCtx::NONE, build)
    }

    /// The plan cached for `key` at `epoch`, counting nothing. A caller
    /// that runs the plan counts the hit with [`PlanCache::count_hit`];
    /// one that finds nothing plans through [`PlanCache::get_or_plan_ctx`],
    /// which counts the miss. A caller that gives up in between (the text
    /// does not parse, or is the wrong kind for its entry point) counts
    /// neither.
    pub fn peek(&self, key: &str, epoch: u64) -> Option<Arc<PhysicalPlan>> {
        let plans = self.plans.lock().expect("plan cache lock");
        plans
            .get(key)
            .filter(|c| c.epoch == epoch)
            .map(|c| c.plan.clone())
    }

    /// Count one hit: a plan found by [`PlanCache::peek`] is about to run.
    pub fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// [`PlanCache::get_or_plan_at`] with causal identity: a compile span
    /// recorded on a miss joins the calling transaction's trace, so the
    /// lineage analyzer can carve plan-compile time out of execution.
    pub fn get_or_plan_ctx(
        &self,
        key: &str,
        epoch: u64,
        at_us: u64,
        ctx: TraceCtx,
        build: impl FnOnce() -> Result<PhysicalPlan>,
    ) -> Result<Arc<PhysicalPlan>> {
        if let Some(plan) = self.peek(key, epoch) {
            self.count_hit();
            return Ok(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let plan = Arc::new(build()?);
        if let Some(obs) = &self.obs {
            let compile_us = t0.elapsed().as_micros() as u64;
            obs.event_ctx(at_us, 0, EventKind::PlanCompile, key, compile_us, ctx, 0);
            obs.record(Hist::PlanCompile, compile_us);
        }
        let prev = self.plans.lock().expect("plan cache lock").insert(
            key.to_string(),
            CachedPlan {
                epoch,
                plan: plan.clone(),
            },
        );
        if prev.is_none() {
            // Same-key replacement (epoch replan) reuses the existing
            // entry's allowance; only a fresh key charges bytes.
            self.bytes.fetch_add(entry_bytes(key), Ordering::Relaxed);
        }
        Ok(plan)
    }

    /// Drop one entry (used when a cached plan turned out stale mid-epoch).
    pub fn invalidate(&self, key: &str) {
        if self
            .plans
            .lock()
            .expect("plan cache lock")
            .remove(key)
            .is_some()
        {
            self.bytes.fetch_sub(entry_bytes(key), Ordering::Relaxed);
        }
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.plans.lock().expect("plan cache lock").clear();
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache lock").len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (including epoch-mismatch replans) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Modeled bytes currently held by cached entries. Lock-free, so the
    /// obs memory probe may call it from any context.
    pub fn cached_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{InsertPlan, InsertSourcePlan};

    fn dummy_plan() -> PhysicalPlan {
        PhysicalPlan::Insert(InsertPlan {
            table: "t".into(),
            positions: vec![0],
            arity: 1,
            source: InsertSourcePlan::Values(Vec::new()),
        })
    }

    #[test]
    fn hit_then_epoch_invalidation() {
        let c = PlanCache::new();
        c.get_or_plan("k", 1, || Ok(dummy_plan())).unwrap();
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.get_or_plan("k", 1, || panic!("must not replan")).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // A newer epoch misses and replaces the entry.
        c.get_or_plan("k", 2, || Ok(dummy_plan())).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn peek_counts_nothing() {
        let c = PlanCache::new();
        assert!(c.peek("k", 1).is_none());
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.get_or_plan("k", 1, || Ok(dummy_plan())).unwrap();
        assert!(c.peek("k", 1).is_some());
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.count_hit();
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // An entry planned under an older epoch is not returned.
        assert!(c.peek("k", 2).is_none());
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn planning_error_is_not_cached() {
        let c = PlanCache::new();
        assert!(c
            .get_or_plan("bad", 1, || Err(crate::SqlError::analyze("nope")))
            .is_err());
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
        // A later success caches normally.
        c.get_or_plan("bad", 1, || Ok(dummy_plan())).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn obs_traces_compiles_but_not_hits() {
        let obs = ObsSink::new(16);
        let c = PlanCache::with_obs(obs.clone());
        c.get_or_plan_at("k", 1, 500, || Ok(dummy_plan())).unwrap();
        c.get_or_plan_at("k", 1, 600, || panic!("must not replan"))
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.hists[Hist::PlanCompile as usize].count, 1);
        let tail = obs.trace_tail(10);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind, EventKind::PlanCompile);
        assert_eq!(tail[0].at_us, 500);
        assert_eq!(tail[0].detail, "k");
    }

    #[test]
    fn ctx_compiles_carry_trace_identity() {
        let obs = ObsSink::new(16);
        let c = PlanCache::with_obs(obs.clone());
        let ctx = TraceCtx { trace: 7, span: 9 };
        c.get_or_plan_ctx("k", 1, 500, ctx, || Ok(dummy_plan()))
            .unwrap();
        let tail = obs.trace_tail(10);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].trace, 7);
        assert_eq!(tail[0].span, 9);
    }

    #[test]
    fn invalidate_removes_entry() {
        let c = PlanCache::new();
        c.get_or_plan("k", 1, || Ok(dummy_plan())).unwrap();
        c.invalidate("k");
        assert!(c.is_empty());
        c.get_or_plan("k", 1, || Ok(dummy_plan())).unwrap();
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn cached_bytes_follow_entry_lifecycle() {
        let c = PlanCache::new();
        assert_eq!(c.cached_bytes(), 0);
        c.get_or_plan("key-a", 1, || Ok(dummy_plan())).unwrap();
        assert_eq!(c.cached_bytes(), PLAN_CACHE_ENTRY_BYTES + 5);
        // Epoch replan replaces the same key: no extra charge.
        c.get_or_plan("key-a", 2, || Ok(dummy_plan())).unwrap();
        assert_eq!(c.cached_bytes(), PLAN_CACHE_ENTRY_BYTES + 5);
        c.get_or_plan("kb", 2, || Ok(dummy_plan())).unwrap();
        assert_eq!(c.cached_bytes(), 2 * PLAN_CACHE_ENTRY_BYTES + 7);
        // Invalidating a present key releases it; a missing key is free.
        c.invalidate("key-a");
        assert_eq!(c.cached_bytes(), PLAN_CACHE_ENTRY_BYTES + 2);
        c.invalidate("missing");
        assert_eq!(c.cached_bytes(), PLAN_CACHE_ENTRY_BYTES + 2);
        c.clear();
        assert_eq!(c.cached_bytes(), 0);
    }
}
