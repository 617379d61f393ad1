//! Windowed time-series telemetry: a fixed-capacity ring of per-window
//! delta frames over **virtual time**, a per-derived-table staleness-SLO
//! engine with multi-window burn-rate alerting, and a space-bounded
//! hot-key/shard contention map.
//!
//! # Window model
//!
//! The collector divides virtual time into fixed-width windows
//! `[i·W, (i+1)·W)`. Executors call [`WindowCollector::tick`] after each
//! task; the fast path is a single relaxed atomic compare against the open
//! window's end. When the clock crosses the boundary the collector takes a
//! **cumulative snapshot** of every histogram and counter and stores the
//! *delta* since the previous snapshot as a sealed [`WindowFrame`]. Deltas
//! telescope, so summing all frames (sealed + the open tail) reproduces the
//! run aggregate exactly — the invariant pinned by `tests/prop_window.rs`.
//!
//! Two deliberate approximations, both explicit:
//!
//! - **Attribution**: ticks happen *after* a task completes, so all work
//!   since the previous seal is attributed to the first window sealed by
//!   the crossing tick. A task straddling a boundary lands wholly in the
//!   window containing its completion; attribution error is bounded by one
//!   task per boundary.
//! - **Truncation**: the ring holds `capacity` sealed frames; older frames
//!   are overwritten. `sealed > frames.len()` marks truncation, and merged
//!   retained frames then under-count the run aggregate — consumers must
//!   check [`WindowsSnapshot::truncated`].
//!
//! Per-frame `max` is the **running watermark** (cumulative max at seal
//! time), not the true within-window max — a cumulative max is not
//! invertible. The watermark is monotone, so max-of-merged-frames still
//! equals the run max.
//!
//! # SLO semantics
//!
//! A [`SloSpec`] declares `p99 staleness ≤ bound` for one derived table
//! with an error budget of 1% of windows. At each seal, every
//! window with ≥ 1 staleness sample for the table is *evaluated*:
//! violated iff the window's interpolated p99 exceeds the bound. Windows
//! with no samples are not evaluated (no traffic ⇒ no verdict).
//! Cumulative `evaluated/violated` totals survive ring eviction. Burn
//! rate = (violation fraction over the trailing 6 / 24 retained windows)
//! ÷ budget fraction; following SRE convention, burn ≥ 14.4 over the
//! short window is a fast burn (budget gone in hours), burn ≥ 6 over the
//! long window a slow burn. The end-of-run report verdict is MET iff
//! `violated / evaluated ≤ budget`.
//!
//! # SpaceSaving bounds
//!
//! The contention map uses SpaceSaving counters (Metwally et al.) keyed by
//! resource name and weighted by wait µs: with capacity `m`, any resource
//! whose true total wait exceeds `total/m` is guaranteed present, and each
//! entry's overcount is bounded by its recorded `err_us`. One instance per
//! open window (drained into the sealed frame) plus one run-level instance.

use crate::hist::{family_since, HistSnapshot, HIST_COUNT};
use crate::mem::{MemCum, MemFrame};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default window width: 1 virtual second.
pub const DEFAULT_WINDOW_US: u64 = 1_000_000;
/// Default ring capacity (sealed frames retained).
pub const DEFAULT_WINDOW_CAP: usize = 512;
/// SpaceSaving capacity for the contention maps.
pub const HOT_CAP: usize = 64;
/// Hot entries stored per sealed frame.
pub const HOT_PER_FRAME: usize = 16;
/// Burn-rate windows (SRE convention, in units of telemetry windows).
pub const BURN_SHORT_WINDOWS: usize = 6;
pub const BURN_LONG_WINDOWS: usize = 24;
/// Burn-rate alert thresholds.
pub const FAST_BURN: f64 = 14.4;
pub const SLOW_BURN: f64 = 6.0;

// ---------------------------------------------------------------------------
// Cumulative snapshots and delta frames
// ---------------------------------------------------------------------------

/// Cumulative state of every windowed metric, captured lazily at seal time.
/// Families (`exec`, `staleness`) are sorted by label; labels are only ever
/// added over a run, never removed.
#[derive(Debug, Clone, Default)]
pub struct CumSnapshot {
    /// The fixed histograms, indexed by [`crate::Hist`].
    pub hists: [HistSnapshot; HIST_COUNT],
    pub exec: Vec<(String, HistSnapshot)>,
    pub staleness: Vec<(String, HistSnapshot)>,
    pub events_traced: u64,
    pub plan_choices: u64,
    pub tasks_run: u64,
    pub busy_us: u64,
    /// Memory gauge by accounting class (sampled at seal time).
    pub mem: MemCum,
}

/// One sealed (or the open) telemetry window.
#[derive(Debug, Clone, Default)]
pub struct WindowFrame {
    pub index: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// True only for the trailing in-progress window in a snapshot.
    pub open: bool,
    pub tasks_run: u64,
    pub busy_us: u64,
    pub events_traced: u64,
    pub plan_choices: u64,
    /// The fixed histograms' deltas, indexed by [`crate::Hist`].
    pub hists: [HistSnapshot; HIST_COUNT],
    pub exec: Vec<(String, HistSnapshot)>,
    pub staleness: Vec<(String, HistSnapshot)>,
    pub slo: Vec<SloWindowEval>,
    pub hot: Vec<HotEntry>,
    /// Signed memory movement over this window (gauge deltas telescope).
    pub mem: MemFrame,
}

impl WindowFrame {
    pub fn is_empty(&self) -> bool {
        self.tasks_run == 0
            && self.hists.iter().all(HistSnapshot::is_empty)
            && self.exec.iter().all(|(_, f)| f.is_empty())
            && self.staleness.iter().all(|(_, f)| f.is_empty())
            && self.hot.is_empty()
            && self.mem.is_empty()
    }
}

// ---------------------------------------------------------------------------
// SpaceSaving contention counters
// ---------------------------------------------------------------------------

/// One contended resource: a key lock (`table#column=key`), a table lock,
/// or a storage shard latch (`table/shard<i>`).
#[derive(Debug, Clone, PartialEq)]
pub struct HotEntry {
    pub resource: String,
    /// Total wait attributed to this resource (µs); overcounts true wait by
    /// at most `err_us`.
    pub wait_us: u64,
    /// SpaceSaving error bound inherited from the evicted minimum.
    pub err_us: u64,
    pub hits: u64,
}

/// SpaceSaving top-K counter weighted by wait µs. With capacity `m`, any
/// resource whose true total exceeds `total/m` is guaranteed retained.
/// Capacity is small (64), so a linear scan beats a heap + hashmap here.
#[derive(Debug)]
pub struct SpaceSaving {
    cap: usize,
    entries: Vec<HotEntry>,
}

impl SpaceSaving {
    pub fn new(cap: usize) -> SpaceSaving {
        SpaceSaving {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    pub fn observe(&mut self, resource: &str, wait_us: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.resource == resource) {
            e.wait_us += wait_us;
            e.hits += 1;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(HotEntry {
                resource: resource.to_string(),
                wait_us,
                err_us: 0,
                hits: 1,
            });
            return;
        }
        // Evict the minimum (deterministic tie-break on name) and inherit
        // its count as the new entry's error bound.
        let (mi, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.wait_us.cmp(&b.wait_us).then(a.resource.cmp(&b.resource)))
            .expect("cap >= 1");
        let evicted = self.entries[mi].wait_us;
        self.entries[mi] = HotEntry {
            resource: resource.to_string(),
            wait_us: evicted + wait_us,
            err_us: evicted,
            hits: 1,
        };
    }

    /// Top `k` entries by total wait, descending (name-ascending tie-break).
    pub fn top(&self, k: usize) -> Vec<HotEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.wait_us.cmp(&a.wait_us).then(a.resource.cmp(&b.resource)));
        v.truncate(k);
        v
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------------

/// Per-derived-table staleness objective: `p99 lag ≤ p99_bound_us`, with an
/// error budget of [`DEFAULT_BUDGET_PCT`] percent of evaluated windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub table: String,
    pub p99_bound_us: u64,
}

/// Error budget of every SLO: 1% of evaluated windows may violate.
pub const DEFAULT_BUDGET_PCT: f64 = 1.0;

/// One window's verdict for one table (only windows with samples are
/// evaluated).
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindowEval {
    pub table: String,
    pub samples: u64,
    pub p99_us: u64,
    pub bound_us: u64,
    pub ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAlert {
    Ok,
    SlowBurn,
    FastBurn,
}

impl SloAlert {
    pub fn as_str(&self) -> &'static str {
        match self {
            SloAlert::Ok => "ok",
            SloAlert::SlowBurn => "slow_burn",
            SloAlert::FastBurn => "fast_burn",
        }
    }
}

/// End-of-run (or live) compliance state for one table's SLO.
#[derive(Debug, Clone)]
pub struct SloTableReport {
    pub table: String,
    pub bound_us: u64,
    pub windows_evaluated: u64,
    pub windows_violated: u64,
    pub worst_p99_us: u64,
    /// Percentage of evaluated windows that met the bound (100 if none
    /// were evaluated — vacuously compliant).
    pub compliance_pct: f64,
    /// Burn rates over the trailing short/long retained windows.
    pub burn_short: f64,
    pub burn_long: f64,
    pub alert: SloAlert,
    pub met: bool,
}

#[derive(Debug, Clone, Default)]
pub struct SloReport {
    pub tables: Vec<SloTableReport>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SloTotals {
    evaluated: u64,
    violated: u64,
    worst_p99_us: u64,
}

/// Evaluate every spec against one window's staleness deltas.
fn eval_slo(specs: &[SloSpec], staleness: &[(String, HistSnapshot)]) -> Vec<SloWindowEval> {
    let mut out = Vec::new();
    for spec in specs {
        if let Some((_, f)) = staleness.iter().find(|(t, _)| *t == spec.table) {
            if f.count > 0 {
                let p99 = f.percentile(0.99);
                out.push(SloWindowEval {
                    table: spec.table.clone(),
                    samples: f.count,
                    p99_us: p99,
                    bound_us: spec.p99_bound_us,
                    ok: p99 <= spec.p99_bound_us,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The collector
// ---------------------------------------------------------------------------

/// Snapshot of the whole ring: retained sealed frames plus the open tail.
#[derive(Debug, Clone, Default)]
pub struct WindowsSnapshot {
    pub window_us: u64,
    pub capacity: usize,
    /// Total windows ever sealed (including evicted ones).
    pub sealed: u64,
    /// True iff sealed frames were evicted: merged retained frames then
    /// under-count the run aggregate.
    pub truncated: bool,
    /// Retained sealed frames (ascending by index) followed by the open
    /// window's partial frame (`open == true`).
    pub frames: Vec<WindowFrame>,
}

struct WinInner {
    cur_index: u64,
    cur_start: u64,
    last: CumSnapshot,
    frames: VecDeque<WindowFrame>,
    sealed: u64,
    specs: Vec<SloSpec>,
    totals: Vec<SloTotals>,
    win_hot: SpaceSaving,
    run_hot: SpaceSaving,
}

pub struct WindowCollector {
    window_us: u64,
    capacity: usize,
    /// Fast-path copy of the open window's end; ticks inside the window
    /// take one relaxed load and return.
    cur_end: AtomicU64,
    last_tasks: AtomicU64,
    last_busy: AtomicU64,
    inner: Mutex<WinInner>,
}

impl WindowCollector {
    pub fn new(window_us: u64, capacity: usize) -> WindowCollector {
        let window_us = window_us.max(1);
        WindowCollector {
            window_us,
            capacity: capacity.max(1),
            cur_end: AtomicU64::new(window_us),
            last_tasks: AtomicU64::new(0),
            last_busy: AtomicU64::new(0),
            inner: Mutex::new(WinInner {
                cur_index: 0,
                cur_start: 0,
                last: CumSnapshot::default(),
                frames: VecDeque::new(),
                sealed: 0,
                specs: Vec::new(),
                totals: Vec::new(),
                win_hot: SpaceSaving::new(HOT_CAP),
                run_hot: SpaceSaving::new(HOT_CAP),
            }),
        }
    }

    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Register (or update) a staleness SLO for `table`.
    pub fn declare_slo(&self, table: &str, p99_bound_us: u64) {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.specs.iter().position(|s| s.table == table) {
            inner.specs[i].p99_bound_us = p99_bound_us;
            return;
        }
        let at = inner
            .specs
            .binary_search_by(|s| s.table.as_str().cmp(table))
            .unwrap_err();
        inner.specs.insert(
            at,
            SloSpec {
                table: table.to_string(),
                p99_bound_us,
            },
        );
        inner.totals.insert(at, SloTotals::default());
    }

    pub fn slo_specs(&self) -> Vec<SloSpec> {
        self.inner.lock().specs.clone()
    }

    /// Record a contention observation (lock wait or shard-latch wait).
    pub fn record_contention(&self, resource: &str, wait_us: u64) {
        let mut inner = self.inner.lock();
        inner.win_hot.observe(resource, wait_us);
        inner.run_hot.observe(resource, wait_us);
    }

    /// Executor hook: called after each task with the virtual (or wall)
    /// clock and the executor's running counters. `cum` is only invoked
    /// when a window boundary is crossed.
    #[inline]
    pub fn tick(
        &self,
        now_us: u64,
        tasks_run: u64,
        busy_us: u64,
        cum: impl FnOnce() -> CumSnapshot,
    ) {
        self.last_tasks.store(tasks_run, Ordering::Relaxed);
        self.last_busy.store(busy_us, Ordering::Relaxed);
        if now_us < self.cur_end.load(Ordering::Relaxed) {
            return;
        }
        self.seal_through(now_us, cum());
    }

    /// Current cumulative counters as last reported by an executor tick.
    fn counters(&self) -> (u64, u64) {
        (
            self.last_tasks.load(Ordering::Relaxed),
            self.last_busy.load(Ordering::Relaxed),
        )
    }

    fn seal_through(&self, now_us: u64, mut cum: CumSnapshot) {
        let (tasks, busy) = self.counters();
        cum.tasks_run = tasks;
        cum.busy_us = busy;
        let mut inner = self.inner.lock();
        let end = inner.cur_start + self.window_us;
        if now_us < end {
            return; // another tick sealed past us while we snapshotted
        }
        // Windows fully elapsed: the first carries the whole delta since
        // the last seal, the rest are empty gap windows.
        let gap = (now_us - inner.cur_start) / self.window_us;
        let first = self.build_frame(&mut inner, &cum, false);
        inner.push_frame(first, self.capacity);
        // Large idle jumps would seal millions of empty frames; materialize
        // only the newest `capacity` (the ring would evict the rest anyway)
        // and account the skipped ones in `sealed` so truncation is marked.
        let empties = gap - 1;
        let keep = empties.min(self.capacity as u64);
        let skipped = empties - keep;
        inner.sealed += skipped;
        for e in 0..keep {
            let idx = inner.cur_index + 1 + skipped + e;
            let frame = WindowFrame {
                index: idx,
                start_us: idx * self.window_us,
                end_us: (idx + 1) * self.window_us,
                ..WindowFrame::default()
            };
            inner.push_frame(frame, self.capacity);
        }
        inner.cur_index += gap;
        inner.cur_start += gap * self.window_us;
        inner.last = cum;
        self.cur_end
            .store(inner.cur_start + self.window_us, Ordering::Relaxed);
    }

    /// Build the open window's frame from `cum`. When `transient` the SLO
    /// totals are left untouched (snapshot of the open window); at seal
    /// they accumulate.
    fn build_frame(&self, inner: &mut WinInner, cum: &CumSnapshot, transient: bool) -> WindowFrame {
        let staleness = family_since(&cum.staleness, &inner.last.staleness);
        let slo = eval_slo(&inner.specs, &staleness);
        if !transient {
            for ev in &slo {
                if let Some(i) = inner.specs.iter().position(|s| s.table == ev.table) {
                    inner.totals[i].evaluated += 1;
                    if !ev.ok {
                        inner.totals[i].violated += 1;
                    }
                    inner.totals[i].worst_p99_us = inner.totals[i].worst_p99_us.max(ev.p99_us);
                }
            }
        }
        let hot = if transient {
            inner.win_hot.top(HOT_PER_FRAME)
        } else {
            let top = inner.win_hot.top(HOT_PER_FRAME);
            inner.win_hot.clear();
            top
        };
        WindowFrame {
            index: inner.cur_index,
            start_us: inner.cur_start,
            end_us: inner.cur_start + self.window_us,
            open: transient,
            tasks_run: cum.tasks_run.saturating_sub(inner.last.tasks_run),
            busy_us: cum.busy_us.saturating_sub(inner.last.busy_us),
            events_traced: cum.events_traced.saturating_sub(inner.last.events_traced),
            plan_choices: cum.plan_choices.saturating_sub(inner.last.plan_choices),
            hists: std::array::from_fn(|i| cum.hists[i].since(&inner.last.hists[i])),
            exec: family_since(&cum.exec, &inner.last.exec),
            staleness,
            slo,
            hot,
            mem: MemFrame::delta(&inner.last.mem, &cum.mem),
        }
    }

    /// Snapshot the ring: retained sealed frames plus the open tail.
    pub fn snapshot(&self, mut cum: CumSnapshot) -> WindowsSnapshot {
        let (tasks, busy) = self.counters();
        cum.tasks_run = tasks;
        cum.busy_us = busy;
        let mut inner = self.inner.lock();
        let open = self.build_frame(&mut inner, &cum, true);
        let mut frames: Vec<WindowFrame> = inner.frames.iter().cloned().collect();
        frames.push(open);
        WindowsSnapshot {
            window_us: self.window_us,
            capacity: self.capacity,
            sealed: inner.sealed,
            truncated: inner.sealed > inner.frames.len() as u64,
            frames,
        }
    }

    /// Live/end-of-run SLO compliance report. The open window's verdict is
    /// included transiently (totals are not mutated).
    pub fn slo_report(&self, mut cum: CumSnapshot) -> SloReport {
        let (tasks, busy) = self.counters();
        cum.tasks_run = tasks;
        cum.busy_us = busy;
        let mut inner = self.inner.lock();
        let open = self.build_frame(&mut inner, &cum, true);
        let mut tables = Vec::new();
        for (i, spec) in inner.specs.iter().enumerate() {
            let mut t = inner.totals[i];
            if let Some(ev) = open.slo.iter().find(|e| e.table == spec.table) {
                t.evaluated += 1;
                if !ev.ok {
                    t.violated += 1;
                }
                t.worst_p99_us = t.worst_p99_us.max(ev.p99_us);
            }
            // Burn rates over the trailing retained windows (+ open).
            let burn = |n: usize| -> f64 {
                let mut considered = 0usize;
                let mut bad = 0usize;
                // Most-recent-first: open window, then sealed frames.
                let all =
                    std::iter::once(&open.slo).chain(inner.frames.iter().rev().map(|f| &f.slo));
                for slo in all.take(n) {
                    considered += 1;
                    if slo.iter().any(|e| e.table == spec.table && !e.ok) {
                        bad += 1;
                    }
                }
                if considered == 0 {
                    return 0.0;
                }
                let frac = bad as f64 / considered as f64;
                frac / (DEFAULT_BUDGET_PCT / 100.0)
            };
            let burn_short = burn(BURN_SHORT_WINDOWS);
            let burn_long = burn(BURN_LONG_WINDOWS);
            let alert = if burn_short >= FAST_BURN {
                SloAlert::FastBurn
            } else if burn_long >= SLOW_BURN {
                SloAlert::SlowBurn
            } else {
                SloAlert::Ok
            };
            let compliance_pct = if t.evaluated == 0 {
                100.0
            } else {
                100.0 * (1.0 - t.violated as f64 / t.evaluated as f64)
            };
            let met = (t.violated as f64) * 100.0 <= (t.evaluated as f64) * DEFAULT_BUDGET_PCT;
            tables.push(SloTableReport {
                table: spec.table.clone(),
                bound_us: spec.p99_bound_us,
                windows_evaluated: t.evaluated,
                windows_violated: t.violated,
                worst_p99_us: t.worst_p99_us,
                compliance_pct,
                burn_short,
                burn_long,
                alert,
                met,
            });
        }
        SloReport { tables }
    }

    /// Top-`k` contended resources in the open window.
    pub fn hot_window(&self, k: usize) -> Vec<HotEntry> {
        self.inner.lock().win_hot.top(k)
    }

    /// Top-`k` contended resources over the whole run.
    pub fn hot_run(&self, k: usize) -> Vec<HotEntry> {
        self.inner.lock().run_hot.top(k)
    }
}

impl WinInner {
    fn push_frame(&mut self, frame: WindowFrame, capacity: usize) {
        if self.frames.len() == capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
        self.sealed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hist::Histogram;

    fn cum_with(staleness: &[(&str, &[u64])]) -> CumSnapshot {
        let mut s = CumSnapshot::default();
        for (name, vals) in staleness {
            let h = Histogram::new();
            for v in *vals {
                h.record(*v);
            }
            s.staleness.push((name.to_string(), h.snapshot()));
        }
        s.staleness.sort_by(|a, b| a.0.cmp(&b.0));
        s
    }

    #[test]
    fn frame_delta_and_merge_roundtrip() {
        let h = Histogram::new();
        for v in [3, 70, 70, 5000] {
            h.record(v);
        }
        let mid = h.snapshot();
        for v in [9, 70] {
            h.record(v);
        }
        let end = h.snapshot();
        let mut a = mid.since(&HistSnapshot::default());
        let b = end.since(&mid);
        assert_eq!(a.count, 4);
        assert_eq!(b.count, 2);
        assert_eq!(b.buckets, vec![(4, 1), (7, 1)]);
        a.merge(&b);
        assert_eq!(a, end);
        assert_eq!(a.max, 5000);
    }

    #[test]
    fn collector_seals_on_boundary_and_attributes_delta() {
        let c = WindowCollector::new(1000, 8);
        // Ticks inside window 0: no seal.
        c.tick(10, 1, 10, CumSnapshot::default);
        c.tick(999, 2, 20, CumSnapshot::default);
        assert_eq!(c.snapshot(CumSnapshot::default()).sealed, 0);
        // Crossing into window 2 seals window 0 (with the delta) and the
        // empty gap window 1.
        c.tick(2100, 5, 500, || cum_with(&[("t", &[100, 200])]));
        let snap = c.snapshot(cum_with(&[("t", &[100, 200])]));
        assert_eq!(snap.sealed, 2);
        assert!(!snap.truncated);
        assert_eq!(snap.frames.len(), 3); // two sealed + open
        assert_eq!(snap.frames[0].index, 0);
        assert_eq!(snap.frames[0].staleness[0].1.count, 2);
        assert_eq!(snap.frames[0].tasks_run, 5);
        assert!(snap.frames[1].is_empty());
        assert!(snap.frames[2].open);
        assert!(snap.frames[2].is_empty());
    }

    #[test]
    fn huge_gap_is_capped_and_marks_truncation() {
        let c = WindowCollector::new(1000, 4);
        c.tick(1, 1, 1, CumSnapshot::default);
        // Jump 1M windows ahead: only the newest `capacity` frames are
        // materialized; sealed counts them all.
        c.tick(1_000_000_000, 2, 2, CumSnapshot::default);
        let snap = c.snapshot(CumSnapshot::default());
        assert_eq!(snap.sealed, 1_000_000);
        assert!(snap.truncated);
        assert_eq!(snap.frames.len(), 5); // capacity sealed + open
        assert_eq!(snap.frames.last().unwrap().index, 1_000_000);
    }

    #[test]
    fn space_saving_retains_heavy_hitters() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..100 {
            ss.observe(&format!("cold{i}"), 1);
        }
        for _ in 0..50 {
            ss.observe("hot", 100);
        }
        let top = ss.top(1);
        assert_eq!(top[0].resource, "hot");
        assert!(top[0].wait_us >= 5000);
        // Overcount bounded by err.
        assert!(top[0].wait_us - top[0].err_us <= 5000);
    }

    #[test]
    fn slo_eval_and_report() {
        let c = WindowCollector::new(1000, 16);
        c.declare_slo("t", 150);
        // Window 0: p99 well under bound (all samples = 100).
        c.tick(1000, 1, 1, || cum_with(&[("t", &[100, 100])]));
        // Window 1 adds two slow samples: p99 over bound.
        c.tick(2000, 2, 2, || {
            cum_with(&[("t", &[100, 100, 90_000, 90_000])])
        });
        let report = c.slo_report(cum_with(&[("t", &[100, 100, 90_000, 90_000])]));
        let t = &report.tables[0];
        assert_eq!(t.windows_evaluated, 2);
        assert_eq!(t.windows_violated, 1);
        assert!(!t.met); // 50% violation rate >> 1% budget
        assert!(t.worst_p99_us >= 150);
        assert!(t.burn_short > FAST_BURN);
        assert_eq!(t.alert, SloAlert::FastBurn);
    }

    #[test]
    fn mem_gauge_deltas_seal_into_frames() {
        let c = WindowCollector::new(1000, 8);
        let cum_mem = |bytes: u64| {
            let mut s = CumSnapshot::default();
            s.mem.by_class[0] = bytes;
            s
        };
        c.tick(1000, 1, 1, || cum_mem(500)); // window 0: +500
        c.tick(2000, 2, 2, || cum_mem(200)); // window 1: -300 (shrink)
        let snap = c.snapshot(cum_mem(200));
        assert_eq!(snap.frames[0].mem.delta_bytes, 500);
        assert_eq!(snap.frames[0].mem.end_bytes, 500);
        assert_eq!(snap.frames[1].mem.delta_bytes, -300);
        assert_eq!(snap.frames[1].mem.class_delta[0], -300);
        // Telescoping: the deltas sum to final - initial despite the shrink.
        let sum: i64 = snap.frames.iter().map(|f| f.mem.delta_bytes).sum();
        assert_eq!(sum, 200);
        // A memory-only frame is not "empty": it must survive series
        // filtering even though no tasks ran in it.
        assert!(!snap.frames[1].is_empty());
        assert!(snap.frames[2].open && snap.frames[2].is_empty());
    }

    #[test]
    fn contention_feeds_window_and_run_maps() {
        let c = WindowCollector::new(1000, 8);
        c.record_contention("stocks#symbol=S00001", 500);
        c.record_contention("stocks#symbol=S00001", 300);
        c.record_contention("stocks/shard3", 100);
        assert_eq!(c.hot_window(1)[0].resource, "stocks#symbol=S00001");
        assert_eq!(c.hot_window(1)[0].wait_us, 800);
        // Sealing drains the window map into the frame; run map persists.
        c.tick(1500, 1, 1, CumSnapshot::default);
        assert!(c.hot_window(8).is_empty());
        assert_eq!(c.hot_run(1)[0].wait_us, 800);
        let snap = c.snapshot(CumSnapshot::default());
        assert_eq!(snap.frames[0].hot.len(), 2);
        assert_eq!(snap.frames[0].hot[0].resource, "stocks#symbol=S00001");
    }
}
