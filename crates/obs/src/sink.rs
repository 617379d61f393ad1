//! The shared observability sink.
//!
//! One `Arc<ObsSink>` is created per `Strip` instance (or standalone for a
//! bare `Simulator`) and handed to every layer. Each recording hook first
//! checks `enabled`, fixed at construction; the disabled sink therefore
//! costs one predictable branch on the hot path, which the overhead-guard
//! test (`crates/txn/tests/obs_overhead.rs`) pins within noise.

use crate::event::{EventKind, Interner, ResolvedEvent, TraceEvent};
use crate::hist::{Hist, HistFamily, HistSnapshot, Histogram, HIST_COUNT};
use crate::mem::{MemoryObserver, MemorySnapshot};
use crate::ring::TraceRing;
use crate::trace::TraceCtx;
use crate::window::{
    CumSnapshot, HotEntry, SloReport, SloSpec, WindowCollector, WindowsSnapshot,
    DEFAULT_WINDOW_CAP, DEFAULT_WINDOW_US,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub struct ObsSink {
    enabled: bool,
    interner: Interner,
    ring: TraceRing,
    /// The fixed histograms, indexed by [`Hist`].
    hists: [Histogram; HIST_COUNT],
    /// Per-task-kind charged execution time (virtual µs).
    exec: HistFamily,
    /// Per-derived-table staleness (virtual µs): the lag between a
    /// base-data commit and the derived commit that absorbs it. With unique
    /// rules and `after` batching windows one derived commit may absorb many
    /// base commits; the lag is measured from the **earliest** merged
    /// origin, so it is the worst staleness any absorbed update saw.
    staleness: HistFamily,
    /// Cost-based plan executions observed (one per join-pipeline run).
    plan_choices: AtomicU64,
    /// Sum of planner-estimated joined cardinalities.
    card_est: AtomicU64,
    /// Sum of actual joined cardinalities.
    card_actual: AtomicU64,
    /// Worst estimated-vs-actual discrepancy seen per plan-shape label.
    /// Labels are bounded (one per distinct physical plan shape), so this
    /// map cannot grow per-execution.
    misestimates: RwLock<HashMap<String, (u64, u64)>>,
    /// Windowed time-series collector, SLO engine, and contention map.
    windows: WindowCollector,
    /// Memory observer: probe holder, class gauges, watermarks, budget.
    memory: MemoryObserver,
    /// Read-only snapshot transactions begun.
    snap_txns: AtomicU64,
    /// Standard-table reads served through the version chains (one per
    /// table access by a snapshot transaction — scan or index probe).
    snap_reads: AtomicU64,
    /// Snapshots currently registered (gauge: begun − finished).
    snap_active: AtomicU64,
    /// Version-GC passes run.
    snap_gc_runs: AtomicU64,
    /// Superseded chain versions reclaimed by GC.
    snap_gc_pruned: AtomicU64,
    /// Tombstoned slots freed by GC.
    snap_gc_freed: AtomicU64,
    /// Horizon of the most recent GC pass (gauge; the oldest snapshot
    /// timestamp still protected, or the commit clock when none are live).
    snap_gc_horizon: AtomicU64,
}

impl ObsSink {
    /// An enabled sink whose trace ring holds `ring_capacity` events
    /// (rounded up to a power of two), with the default 1-second telemetry
    /// windows.
    pub fn new(ring_capacity: usize) -> Arc<ObsSink> {
        ObsSink::with_windows(ring_capacity, DEFAULT_WINDOW_US, DEFAULT_WINDOW_CAP)
    }

    /// An enabled sink with an explicit telemetry window width (virtual µs)
    /// and ring capacity (sealed frames retained).
    pub fn with_windows(ring_capacity: usize, window_us: u64, window_cap: usize) -> Arc<ObsSink> {
        let ring = TraceRing::new(ring_capacity);
        let memory = MemoryObserver::new();
        // The trace ring's own (fixed) footprint: one event slot plus one
        // seqlock word per capacity slot. Metered so the observability
        // layer accounts for itself.
        memory.set_ring_bytes(
            ring.capacity() as u64
                * (std::mem::size_of::<TraceEvent>() + std::mem::size_of::<AtomicU64>()) as u64,
        );
        Arc::new(ObsSink {
            enabled: true,
            interner: Interner::new(),
            ring,
            hists: Default::default(),
            exec: HistFamily::default(),
            staleness: HistFamily::default(),
            plan_choices: AtomicU64::new(0),
            card_est: AtomicU64::new(0),
            card_actual: AtomicU64::new(0),
            misestimates: RwLock::new(HashMap::new()),
            windows: WindowCollector::new(window_us, window_cap),
            memory,
            snap_txns: AtomicU64::new(0),
            snap_reads: AtomicU64::new(0),
            snap_active: AtomicU64::new(0),
            snap_gc_runs: AtomicU64::new(0),
            snap_gc_pruned: AtomicU64::new(0),
            snap_gc_freed: AtomicU64::new(0),
            snap_gc_horizon: AtomicU64::new(0),
        })
    }

    /// A no-op sink: every hook returns after one branch.
    pub fn disabled() -> Arc<ObsSink> {
        let mut s = ObsSink::new(2);
        Arc::get_mut(&mut s)
            .expect("a new sink is unshared")
            .enabled = false;
        s
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    // ---- event recording ------------------------------------------------

    /// Append an event, interning `detail`.
    #[inline]
    pub fn event(&self, at_us: u64, txn: u64, kind: EventKind, detail: &str, dur_us: u64) {
        if !self.is_enabled() {
            return;
        }
        let sym = self.interner.intern(detail);
        self.ring
            .push(TraceEvent::new(at_us, txn, kind, sym, dur_us));
    }

    /// Append an event carrying causal identity: the event joins span
    /// `ctx.span` of trace `ctx.trace`, and a non-zero `parent` records a
    /// DAG edge `parent → ctx.span`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn event_ctx(
        &self,
        at_us: u64,
        txn: u64,
        kind: EventKind,
        detail: &str,
        dur_us: u64,
        ctx: TraceCtx,
        parent: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let sym = self.interner.intern(detail);
        self.ring.push(
            TraceEvent::new(at_us, txn, kind, sym, dur_us).with_ctx(ctx.trace, ctx.span, parent),
        );
    }

    // ---- histogram recording --------------------------------------------

    /// Record one observation of `us` µs in fixed histogram `h`. Lock
    /// waits go through [`ObsSink::record_lock_wait_labeled`] instead.
    #[inline]
    pub fn record(&self, h: Hist, us: u64) {
        if self.is_enabled() {
            self.hists[h as usize].record(us);
        }
    }

    /// Record a lock wait labeled by the granularity of the contended
    /// resource (`key_granular` = key resource vs whole table). The total
    /// lock-wait histogram is recorded too, so the labeled pair always
    /// partitions it exactly.
    #[inline]
    pub fn record_lock_wait_labeled(&self, key_granular: bool, us: u64) {
        self.record(Hist::LockWait, us);
        let part = if key_granular {
            Hist::LockWaitKey
        } else {
            Hist::LockWaitTable
        };
        self.record(part, us);
    }

    /// Record charged execution time under the task's kind.
    pub fn record_exec(&self, kind: &str, us: u64) {
        if self.is_enabled() {
            self.exec.record(kind, us);
        }
    }

    /// Record derived-table staleness (also traced as a `Staleness` event by
    /// the caller, which knows the txn id).
    #[inline]
    pub fn record_staleness(&self, table: &str, lag_us: u64) {
        if self.is_enabled() {
            self.staleness.record(table, lag_us);
        }
    }

    /// Record one executed plan choice: bump the cardinality-feedback
    /// counters, remember the worst estimated-vs-actual discrepancy per
    /// plan shape, and trace a [`EventKind::PlanChoice`] event (`detail` =
    /// the bounded plan-shape label, `dur_us` = the actual cardinality, so
    /// lineage phase sums stay exact — `PlanChoice` is never carved out of
    /// a span's charged time).
    pub fn record_plan_choice(
        &self,
        at_us: u64,
        txn: u64,
        choice: &str,
        est_rows: u64,
        actual_rows: u64,
        ctx: TraceCtx,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.plan_choices.fetch_add(1, Ordering::Relaxed);
        self.card_est.fetch_add(est_rows, Ordering::Relaxed);
        self.card_actual.fetch_add(actual_rows, Ordering::Relaxed);
        let factor = misestimate_factor(est_rows, actual_rows);
        {
            let mut w = self.misestimates.write();
            let slot = w
                .entry(choice.to_string())
                .or_insert((est_rows, actual_rows));
            if factor > misestimate_factor(slot.0, slot.1) {
                *slot = (est_rows, actual_rows);
            }
        }
        self.event_ctx(
            at_us,
            txn,
            EventKind::PlanChoice,
            choice,
            actual_rows,
            ctx,
            0,
        );
    }

    // ---- windowed telemetry ---------------------------------------------

    /// Executor hook, called after each completed task with the current
    /// clock (virtual µs in sim mode, wall µs in pool mode) and the
    /// executor's cumulative task/busy counters. Inside the open window
    /// this costs the enabled check, two relaxed stores and one relaxed
    /// load; a cumulative snapshot is only taken when a window boundary is
    /// crossed.
    #[inline]
    pub fn window_tick(&self, now_us: u64, tasks_run: u64, busy_us: u64) {
        if !self.is_enabled() {
            return;
        }
        self.windows
            .tick(now_us, tasks_run, busy_us, || self.cum_snapshot());
    }

    /// The fixed histograms' current values, indexed by [`Hist`].
    fn hist_snapshots(&self) -> [HistSnapshot; HIST_COUNT] {
        std::array::from_fn(|i| self.hists[i].snapshot())
    }

    /// Cumulative snapshot of every windowed metric.
    fn cum_snapshot(&self) -> CumSnapshot {
        CumSnapshot {
            hists: self.hist_snapshots(),
            exec: self.exec.snapshot(),
            staleness: self.staleness.snapshot(),
            events_traced: self.ring.pushed(),
            plan_choices: self.plan_choices.load(Ordering::Relaxed),
            tasks_run: 0, // filled by the collector from its tick counters
            busy_us: 0,
            mem: self.memory.sample(),
        }
    }

    // ---- snapshot reads & version GC ------------------------------------

    /// A read-only snapshot transaction was pinned (begun). Counted even
    /// when tracing is off so the gauge pair stays balanced.
    #[inline]
    pub fn record_snapshot_begin(&self) {
        if self.is_enabled() {
            self.snap_txns.fetch_add(1, Ordering::Relaxed);
        }
        self.snap_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A read-only snapshot transaction finished (its timestamp was
    /// deregistered and no longer holds the GC horizon back).
    #[inline]
    pub fn record_snapshot_end(&self) {
        self.snap_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A snapshot transaction read one standard table through the version
    /// chains: bump the counter and trace a [`EventKind::SnapshotRead`]
    /// event (`dur_us` carries the pinned snapshot timestamp — a logical
    /// commit number, never a duration).
    #[inline]
    pub fn record_snapshot_read(&self, at_us: u64, txn: u64, table: &str, ts: u64, ctx: TraceCtx) {
        if !self.is_enabled() {
            return;
        }
        self.snap_reads.fetch_add(1, Ordering::Relaxed);
        self.event_ctx(at_us, txn, EventKind::SnapshotRead, table, ts, ctx, 0);
    }

    /// A version-GC pass completed at `horizon`, reclaiming `pruned`
    /// superseded versions and freeing `freed` tombstoned slots. The
    /// horizon gauge always updates; a [`EventKind::VersionGc`] event is
    /// traced only when the pass reclaimed something, so idle commits do
    /// not flood the ring.
    pub fn record_version_gc(
        &self,
        at_us: u64,
        detail: &str,
        horizon: u64,
        pruned: u64,
        freed: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.snap_gc_runs.fetch_add(1, Ordering::Relaxed);
        self.snap_gc_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.snap_gc_freed.fetch_add(freed, Ordering::Relaxed);
        self.snap_gc_horizon.store(horizon, Ordering::Relaxed);
        if pruned + freed > 0 {
            self.event(at_us, 0, EventKind::VersionGc, detail, horizon);
        }
    }

    /// Detached snapshot-read / version-GC counter block.
    pub fn snap_stats(&self) -> SnapStats {
        SnapStats {
            txns: self.snap_txns.load(Ordering::Relaxed),
            reads: self.snap_reads.load(Ordering::Relaxed),
            active: self.snap_active.load(Ordering::Relaxed),
            gc_runs: self.snap_gc_runs.load(Ordering::Relaxed),
            gc_pruned: self.snap_gc_pruned.load(Ordering::Relaxed),
            gc_freed: self.snap_gc_freed.load(Ordering::Relaxed),
            gc_horizon: self.snap_gc_horizon.load(Ordering::Relaxed),
        }
    }

    /// The memory observer (probe installation, budget, temp scopes).
    pub fn memory(&self) -> &MemoryObserver {
        &self.memory
    }

    /// Detached memory snapshot: class gauges, watermarks, per-table
    /// footprints, and the budget projection fed by the sealed windows'
    /// memory deltas.
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        let ws = self.windows.snapshot(self.cum_snapshot());
        let deltas: Vec<i64> = ws
            .frames
            .iter()
            .filter(|f| !f.open)
            .map(|f| f.mem.delta_bytes)
            .collect();
        self.memory.snapshot(&deltas)
    }

    /// Record a contention observation against the hot-key/shard map:
    /// `resource` is a lock resource (`table`, `table#column=key`) or a
    /// storage shard latch (`table/shard<i>`).
    #[inline]
    pub fn record_contention(&self, resource: &str, wait_us: u64) {
        if self.is_enabled() {
            self.windows.record_contention(resource, wait_us);
        }
    }

    /// Declare (or update) a staleness SLO: p99 lag for derived `table`
    /// must stay ≤ `p99_bound_us`, with the 1% window error budget.
    pub fn declare_slo(&self, table: &str, p99_bound_us: u64) {
        self.windows.declare_slo(table, p99_bound_us);
    }

    /// Registered SLO specs, sorted by table.
    pub fn slo_specs(&self) -> Vec<SloSpec> {
        self.windows.slo_specs()
    }

    /// The telemetry window width in µs.
    pub fn window_us(&self) -> u64 {
        self.windows.window_us()
    }

    /// Snapshot of the window ring: retained sealed frames plus the open
    /// tail. Merging all frames reproduces the run aggregate unless
    /// `truncated` is set.
    pub fn windows_snapshot(&self) -> WindowsSnapshot {
        self.windows.snapshot(self.cum_snapshot())
    }

    /// Live/end-of-run SLO compliance report (includes the open window).
    pub fn slo_report(&self) -> SloReport {
        self.windows.slo_report(self.cum_snapshot())
    }

    /// Top-`k` contended resources in the open window.
    pub fn hot_window(&self, k: usize) -> Vec<HotEntry> {
        self.windows.hot_window(k)
    }

    /// Top-`k` contended resources over the whole run.
    pub fn hot_run(&self, k: usize) -> Vec<HotEntry> {
        self.windows.hot_run(k)
    }

    // ---- reading --------------------------------------------------------

    fn resolve(&self, e: TraceEvent) -> ResolvedEvent {
        ResolvedEvent {
            at_us: e.at_us,
            txn: e.txn,
            trace: e.trace,
            span: e.span,
            parent: e.parent,
            kind: e.kind,
            detail: self.interner.resolve(e.detail),
            dur_us: e.dur_us,
        }
    }

    /// The last `n` trace events with details resolved, oldest first.
    pub fn trace_tail(&self, n: usize) -> Vec<ResolvedEvent> {
        self.ring
            .tail(n)
            .into_iter()
            .map(|e| self.resolve(e))
            .collect()
    }

    /// Every surviving ring event with details resolved, oldest first.
    /// Events evicted by ring overwrite are gone; compare
    /// [`ObsSink::events_traced`] with the ring capacity to detect loss.
    pub fn resolved_events(&self) -> Vec<ResolvedEvent> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|e| self.resolve(e))
            .collect()
    }

    /// True when the ring has dropped events (the trace is incomplete).
    pub fn ring_truncated(&self) -> bool {
        self.ring.pushed() > self.ring.capacity() as u64
    }

    /// Replay the surviving ring into a lineage index (per-trace DAGs plus
    /// a phase decomposition of every staleness sample).
    pub fn lineage(&self) -> crate::lineage::Lineage {
        crate::lineage::Lineage::from_events(self.resolved_events(), self.ring_truncated())
    }

    /// Total events ever traced (monotonic; ring may have dropped old ones).
    pub fn events_traced(&self) -> u64 {
        self.ring.pushed()
    }

    /// Point-in-time copy of every histogram, family and counter.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            enabled: self.is_enabled(),
            events_traced: self.ring.pushed(),
            ring_capacity: self.ring.capacity() as u64,
            memory: self.memory_snapshot(),
            hists: self.hist_snapshots(),
            exec_us: self.exec.snapshot(),
            staleness: self.staleness.snapshot(),
            plan_choices: self.plan_choices.load(Ordering::Relaxed),
            card_est_sum: self.card_est.load(Ordering::Relaxed),
            card_actual_sum: self.card_actual.load(Ordering::Relaxed),
            snap: self.snap_stats(),
            plan_misestimates: {
                let mut v: Vec<PlanMisestimate> = self
                    .misestimates
                    .read()
                    .iter()
                    .map(|(choice, &(est, actual))| PlanMisestimate {
                        choice: choice.clone(),
                        est_rows: est,
                        actual_rows: actual,
                    })
                    .collect();
                v.sort_by(|a, b| {
                    misestimate_factor(b.est_rows, b.actual_rows)
                        .cmp(&misestimate_factor(a.est_rows, a.actual_rows))
                        .then_with(|| a.choice.cmp(&b.choice))
                });
                v
            },
        }
    }
}

/// How far off an estimate was, as an integer over/under-shoot factor
/// (`max / min`, inputs clamped to ≥ 1 so exact zero-row plans rank as
/// perfect rather than dividing by zero). Symmetric: 10× over and 10×
/// under rank equally badly.
fn misestimate_factor(est: u64, actual: u64) -> u64 {
    let (hi, lo) = if est >= actual {
        (est, actual)
    } else {
        (actual, est)
    };
    hi.max(1) / lo.max(1)
}

/// One worst-case planner misestimate for a plan shape.
#[derive(Debug, Clone)]
pub struct PlanMisestimate {
    /// Bounded plan-shape label (e.g. `probe(stocks)>hash(feed)`).
    pub choice: String,
    /// Planner's estimated joined cardinality at that execution.
    pub est_rows: u64,
    /// Observed joined cardinality at that execution.
    pub actual_rows: u64,
}

impl PlanMisestimate {
    /// The over/under-shoot factor used to rank misestimates.
    pub fn factor(&self) -> u64 {
        misestimate_factor(self.est_rows, self.actual_rows)
    }
}

/// Everything an exporter needs, detached from the live sink.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    pub enabled: bool,
    pub events_traced: u64,
    pub ring_capacity: u64,
    /// Resource-accounting snapshot: class gauges, watermarks, per-table
    /// footprints, and the optional budget projection.
    pub memory: MemorySnapshot,
    /// The fixed histograms, indexed by [`Hist`].
    pub hists: [HistSnapshot; HIST_COUNT],
    /// Per task kind, sorted by kind.
    pub exec_us: Vec<(String, HistSnapshot)>,
    /// Per derived table, sorted by table.
    pub staleness: Vec<(String, HistSnapshot)>,
    /// Join-pipeline executions with cardinality feedback.
    pub plan_choices: u64,
    /// Sum of planner-estimated joined cardinalities.
    pub card_est_sum: u64,
    /// Sum of observed joined cardinalities.
    pub card_actual_sum: u64,
    /// Snapshot-read / version-GC counters.
    pub snap: SnapStats,
    /// Worst estimated-vs-actual discrepancy per plan shape, worst first.
    pub plan_misestimates: Vec<PlanMisestimate>,
}

/// Counters for the lock-free snapshot-read path and its version GC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapStats {
    /// Read-only snapshot transactions begun.
    pub txns: u64,
    /// Standard-table reads served through the version chains.
    pub reads: u64,
    /// Snapshots currently registered (gauge).
    pub active: u64,
    /// Version-GC passes run.
    pub gc_runs: u64,
    /// Superseded chain versions reclaimed.
    pub gc_pruned: u64,
    /// Tombstoned slots freed.
    pub gc_freed: u64,
    /// Horizon of the most recent GC pass (gauge).
    pub gc_horizon: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = ObsSink::disabled();
        s.event(1, 1, EventKind::TxnStart, "x", 0);
        s.record(Hist::Queue, 10);
        s.record_lock_wait_labeled(true, 10);
        s.record_exec("update", 172);
        s.record_staleness("comp_prices", 5);
        let snap = s.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.events_traced, 0);
        assert!(snap.hists.iter().all(HistSnapshot::is_empty));
        assert!(snap.exec_us.is_empty());
        assert!(snap.staleness.is_empty());
        assert!(s.trace_tail(10).is_empty());
    }

    #[test]
    fn enabled_sink_accumulates() {
        let s = ObsSink::new(64);
        s.event(100, 7, EventKind::RuleFire, "comp_rule", 0);
        s.event(200, 7, EventKind::TxnCommit, "", 150);
        s.record(Hist::Queue, 50);
        s.record(Hist::Queue, 70);
        s.record_exec("update", 172);
        s.record_exec("update", 172);
        s.record_exec("recompute:f", 9_000);
        s.record_staleness("comp_prices", 2_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.events_traced, 2);
        let queue = &snap.hists[Hist::Queue as usize];
        assert_eq!(queue.count, 2);
        assert_eq!(queue.sum, 120);
        assert_eq!(snap.exec_us.len(), 2);
        assert_eq!(snap.exec_us[0].0, "recompute:f");
        assert_eq!(snap.exec_us[1].0, "update");
        assert_eq!(snap.exec_us[1].1.count, 2);
        assert_eq!(snap.staleness.len(), 1);
        assert_eq!(snap.staleness[0].1.max, 2_000_000);

        let tail = s.trace_tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "comp_rule");
        assert_eq!(tail[1].kind, EventKind::TxnCommit);
    }
}
