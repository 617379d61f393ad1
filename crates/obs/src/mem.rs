//! Memory observability: class-partitioned byte gauges, high-water marks,
//! and budget projection.
//!
//! The storage engine meters bytes exactly (`strip_storage::mem`); this
//! module is the observability side. A [`MemoryObserver`] pulls the
//! current footprint through an installed [`MemProbe`] (a plain callback,
//! mirroring `LatchObserver` — obs never depends on storage), partitions it
//! into the fixed [`MEM_CLASS_NAMES`] classes, and tracks high-water marks.
//! Window seals capture a [`MemCum`] gauge snapshot whose per-window
//! [`MemFrame`] deltas are *signed* (memory shrinks; these are gauges, not
//! counters) and telescope: summing every frame's `delta_bytes` reproduces
//! `final − initial` exactly.
//!
//! A [`MemBudgetReport`] projects when the footprint will cross a declared
//! budget, burn-rate style: growth is estimated over the trailing short and
//! long window spans (same 6/24 spans as the SLO burn rates) and the alert
//! fires when the projected crossing is near ([`MemAlert::ProjectedBreach`])
//! or already behind us ([`MemAlert::OverBudget`]).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of accounting classes.
pub const MEM_CLASSES: usize = 6;

/// Class names, in `by_class` order.
pub const MEM_CLASS_NAMES: [&str; MEM_CLASSES] = [
    "table_rows",
    "table_index",
    "version_chains",
    "temp_tables",
    "plan_cache",
    "trace_ring",
];

/// Windows of trailing growth estimation, matching the SLO burn-rate spans.
pub const MEM_BURN_SHORT_WINDOWS: usize = crate::window::BURN_SHORT_WINDOWS;
pub const MEM_BURN_LONG_WINDOWS: usize = crate::window::BURN_LONG_WINDOWS;

/// A projected budget crossing within this many windows raises
/// [`MemAlert::ProjectedBreach`].
pub const MEM_BREACH_HORIZON_WINDOWS: u64 = 24;

/// Cumulative (gauge) byte snapshot by class, captured at window seals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCum {
    pub by_class: [u64; MEM_CLASSES],
}

impl MemCum {
    /// Total bytes across all classes.
    pub fn total(&self) -> u64 {
        self.by_class.iter().sum()
    }
}

/// One window's memory movement: the gauge at seal time plus **signed**
/// deltas (unlike a histogram delta, bytes can shrink). Gap frames are all-zero
/// (`end_bytes == 0` there means "not sampled", not "empty heap") so the
/// telescoping sum of `delta_bytes` over any frame run still equals
/// `final − initial`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemFrame {
    /// Total bytes at seal time.
    pub end_bytes: u64,
    /// Signed change of the total over this window.
    pub delta_bytes: i64,
    /// Signed change per class.
    pub class_delta: [i64; MEM_CLASSES],
}

impl MemFrame {
    /// Delta between two gauge snapshots.
    pub fn delta(prev: &MemCum, cur: &MemCum) -> MemFrame {
        let mut class_delta = [0i64; MEM_CLASSES];
        for (d, (c, p)) in class_delta
            .iter_mut()
            .zip(cur.by_class.iter().zip(&prev.by_class))
        {
            *d = *c as i64 - *p as i64;
        }
        MemFrame {
            end_bytes: cur.total(),
            delta_bytes: cur.total() as i64 - prev.total() as i64,
            class_delta,
        }
    }

    /// True when no class moved (the frame carries no memory signal).
    pub fn is_empty(&self) -> bool {
        self.delta_bytes == 0 && self.class_delta.iter().all(|d| *d == 0)
    }
}

/// Per-table footprint delivered by the probe.
#[derive(Debug, Clone, Default)]
pub struct TableMemReading {
    pub table: String,
    pub row_bytes: u64,
    pub index_bytes: u64,
    pub version_bytes: u64,
}

impl TableMemReading {
    /// Total bytes of this table.
    pub fn total(&self) -> u64 {
        self.row_bytes + self.index_bytes + self.version_bytes
    }
}

/// Everything the probe reports in one pull.
#[derive(Debug, Clone, Default)]
pub struct MemReading {
    /// Per-table footprints, sorted by table name.
    pub tables: Vec<TableMemReading>,
    /// Modeled bytes held by the prepared-plan cache.
    pub plan_cache_bytes: u64,
}

/// Callback that reads the current footprint from the engine. Installed by
/// `strip-core` at build time; a plain `Fn` so obs stays storage-agnostic.
pub type MemProbe = Arc<dyn Fn() -> MemReading + Send + Sync>;

/// Budget projection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemAlert {
    /// Under budget with no imminent projected crossing.
    #[default]
    Ok,
    /// Under budget, but trailing growth projects a crossing within
    /// [`MEM_BREACH_HORIZON_WINDOWS`] windows.
    ProjectedBreach,
    /// Current footprint is at or over the budget.
    OverBudget,
}

impl MemAlert {
    pub fn as_str(&self) -> &'static str {
        match self {
            MemAlert::Ok => "ok",
            MemAlert::ProjectedBreach => "projected_breach",
            MemAlert::OverBudget => "over_budget",
        }
    }
}

/// Capacity-planning view of a declared memory budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemBudgetReport {
    pub budget_bytes: u64,
    pub current_bytes: u64,
    pub hwm_bytes: u64,
    /// Mean bytes/window over the trailing short span of sealed windows.
    pub growth_short_bpw: f64,
    /// Mean bytes/window over the trailing long span.
    pub growth_long_bpw: f64,
    /// Projected windows until the budget is crossed at the short-span
    /// growth rate; `None` when flat or shrinking (no projected crossing).
    pub windows_to_budget: Option<u64>,
    pub alert: MemAlert,
}

/// Detached per-table snapshot for exporters.
#[derive(Debug, Clone, Default)]
pub struct TableMemSnapshot {
    pub table: String,
    pub row_bytes: u64,
    pub index_bytes: u64,
    pub version_bytes: u64,
    /// Highest total this table has reached at any sample point.
    pub hwm_bytes: u64,
}

impl TableMemSnapshot {
    /// Total bytes of this table.
    pub fn total(&self) -> u64 {
        self.row_bytes + self.index_bytes + self.version_bytes
    }
}

/// Detached memory snapshot for exporters.
#[derive(Debug, Clone, Default)]
pub struct MemorySnapshot {
    /// Current bytes per class ([`MEM_CLASS_NAMES`] order).
    pub class_bytes: [u64; MEM_CLASSES],
    /// Current total across classes.
    pub total_bytes: u64,
    /// Highest total seen at any sample point.
    pub hwm_bytes: u64,
    /// Highest outstanding temp/transition-table bytes seen.
    pub temp_hwm_bytes: u64,
    /// Per-table footprints with high-water marks, sorted by table.
    pub tables: Vec<TableMemSnapshot>,
    /// Budget projection, when a budget is declared.
    pub budget: Option<MemBudgetReport>,
}

/// The memory observer: probe holder, class gauges, and watermarks.
/// Sampling happens at window seals and snapshot points only — nothing on
/// the per-task hot path.
#[derive(Default)]
pub struct MemoryObserver {
    probe: RwLock<Option<MemProbe>>,
    /// Fixed bytes of the trace ring (slots + seqlock words), set once at
    /// sink construction.
    ring_bytes: AtomicU64,
    /// Outstanding temp/transition-table bytes (live overlay scopes).
    temp_bytes: AtomicU64,
    temp_hwm: AtomicU64,
    hwm_total: AtomicU64,
    table_hwm: RwLock<HashMap<String, u64>>,
    /// Declared budget in bytes; 0 = none.
    budget: AtomicU64,
}

impl MemoryObserver {
    pub fn new() -> MemoryObserver {
        MemoryObserver::default()
    }

    /// Install (or clear) the footprint probe.
    pub fn set_probe(&self, probe: Option<MemProbe>) {
        *self.probe.write() = probe;
    }

    /// Record the trace ring's fixed footprint (slots + seq words).
    pub fn set_ring_bytes(&self, bytes: u64) {
        self.ring_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Declare (or clear, with `None`) a memory budget.
    pub fn set_budget(&self, bytes: Option<u64>) {
        self.budget.store(bytes.unwrap_or(0), Ordering::Relaxed);
    }

    /// The declared budget, if any.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(Ordering::Relaxed) {
            0 => None,
            b => Some(b),
        }
    }

    /// A transaction scope began holding `bytes` of temp/transition tables.
    pub fn temp_begin(&self, bytes: u64) {
        let now = self.temp_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.temp_hwm.fetch_max(now, Ordering::Relaxed);
    }

    /// The matching scope ended; its temp bytes are released.
    pub fn temp_end(&self, bytes: u64) {
        self.temp_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Pull the probe and fold the reading into the class gauges, updating
    /// high-water marks. Called at window seals and snapshot points.
    pub fn sample(&self) -> MemCum {
        let (cum, _) = self.sample_with_tables();
        cum
    }

    fn sample_with_tables(&self) -> (MemCum, Vec<TableMemReading>) {
        let reading = match self.probe.read().clone() {
            Some(p) => p(),
            None => MemReading::default(),
        };
        let mut by_class = [0u64; MEM_CLASSES];
        for t in &reading.tables {
            by_class[0] += t.row_bytes;
            by_class[1] += t.index_bytes;
            by_class[2] += t.version_bytes;
        }
        by_class[3] = self.temp_bytes.load(Ordering::Relaxed);
        by_class[4] = reading.plan_cache_bytes;
        by_class[5] = self.ring_bytes.load(Ordering::Relaxed);
        let cum = MemCum { by_class };
        self.hwm_total.fetch_max(cum.total(), Ordering::Relaxed);
        {
            let mut hwm = self.table_hwm.write();
            for t in &reading.tables {
                let e = hwm.entry(t.table.clone()).or_insert(0);
                *e = (*e).max(t.total());
            }
        }
        (cum, reading.tables)
    }

    /// Detached snapshot for exporters. `frame_deltas` are the sealed
    /// windows' signed `delta_bytes`, oldest first (the sink supplies them
    /// from the window ring); they drive the budget growth projection.
    pub fn snapshot(&self, frame_deltas: &[i64]) -> MemorySnapshot {
        let (cum, tables) = self.sample_with_tables();
        let table_hwm = self.table_hwm.read();
        let tables: Vec<TableMemSnapshot> = tables
            .into_iter()
            .map(|t| {
                let hwm = table_hwm.get(&t.table).copied().unwrap_or(0).max(t.total());
                TableMemSnapshot {
                    table: t.table,
                    row_bytes: t.row_bytes,
                    index_bytes: t.index_bytes,
                    version_bytes: t.version_bytes,
                    hwm_bytes: hwm,
                }
            })
            .collect();
        let total = cum.total();
        let hwm = self.hwm_total.load(Ordering::Relaxed).max(total);
        let budget = self.budget().map(|budget_bytes| {
            let growth = |n: usize| -> f64 {
                let tail = &frame_deltas[frame_deltas.len().saturating_sub(n)..];
                if tail.is_empty() {
                    0.0
                } else {
                    tail.iter().sum::<i64>() as f64 / tail.len() as f64
                }
            };
            let growth_short_bpw = growth(MEM_BURN_SHORT_WINDOWS);
            let growth_long_bpw = growth(MEM_BURN_LONG_WINDOWS);
            let headroom = budget_bytes.saturating_sub(total);
            let windows_to_budget = if total >= budget_bytes {
                Some(0)
            } else if growth_short_bpw > 0.0 {
                Some((headroom as f64 / growth_short_bpw).ceil() as u64)
            } else {
                None
            };
            let alert = if total >= budget_bytes {
                MemAlert::OverBudget
            } else if matches!(windows_to_budget, Some(w) if w <= MEM_BREACH_HORIZON_WINDOWS) {
                MemAlert::ProjectedBreach
            } else {
                MemAlert::Ok
            };
            MemBudgetReport {
                budget_bytes,
                current_bytes: total,
                hwm_bytes: hwm,
                growth_short_bpw,
                growth_long_bpw,
                windows_to_budget,
                alert,
            }
        });
        MemorySnapshot {
            class_bytes: cum.by_class,
            total_bytes: total,
            hwm_bytes: hwm,
            temp_hwm_bytes: self.temp_hwm.load(Ordering::Relaxed),
            tables,
            budget,
        }
    }
}

impl std::fmt::Debug for MemoryObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryObserver")
            .field("probe", &self.probe.read().is_some())
            .field("ring_bytes", &self.ring_bytes.load(Ordering::Relaxed))
            .field("budget", &self.budget())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(tables: Vec<TableMemReading>, plan_cache: u64) -> MemProbe {
        Arc::new(move || MemReading {
            tables: tables.clone(),
            plan_cache_bytes: plan_cache,
        })
    }

    fn one_table(total: u64) -> Vec<TableMemReading> {
        vec![TableMemReading {
            table: "t".into(),
            row_bytes: total,
            index_bytes: 0,
            version_bytes: 0,
        }]
    }

    #[test]
    fn frames_telescope_with_signed_deltas() {
        let a = MemCum {
            by_class: [100, 10, 0, 0, 0, 64],
        };
        let b = MemCum {
            by_class: [40, 10, 5, 0, 0, 64], // rows shrank
        };
        let f = MemFrame::delta(&a, &b);
        assert_eq!(f.end_bytes, b.total());
        assert_eq!(f.delta_bytes, b.total() as i64 - a.total() as i64);
        assert_eq!(f.class_delta[0], -60);
        assert_eq!(f.class_delta[2], 5);
        // Telescoping: zero -> a -> b sums to b - zero.
        let zero = MemCum::default();
        let f0 = MemFrame::delta(&zero, &a);
        assert_eq!(f0.delta_bytes + f.delta_bytes, b.total() as i64);
        assert!(MemFrame::delta(&b, &b).is_empty());
        assert!(!f.is_empty());
    }

    #[test]
    fn observer_tracks_classes_and_watermarks() {
        let m = MemoryObserver::new();
        m.set_ring_bytes(4096);
        m.set_probe(Some(probe_with(one_table(1000), 256)));
        let cum = m.sample();
        assert_eq!(cum.by_class[0], 1000);
        assert_eq!(cum.by_class[4], 256);
        assert_eq!(cum.by_class[5], 4096);
        // Shrinking probe: gauges fall, watermarks hold.
        m.set_probe(Some(probe_with(one_table(100), 256)));
        let snap = m.snapshot(&[]);
        assert_eq!(snap.class_bytes[0], 100);
        assert_eq!(snap.hwm_bytes, 1000 + 256 + 4096);
        assert_eq!(snap.tables.len(), 1);
        assert_eq!(snap.tables[0].hwm_bytes, 1000);
        assert!(snap.budget.is_none());
    }

    #[test]
    fn temp_scope_accounting_and_hwm() {
        let m = MemoryObserver::new();
        m.temp_begin(500);
        m.temp_begin(300);
        m.temp_end(500);
        let snap = m.snapshot(&[]);
        assert_eq!(snap.class_bytes[3], 300);
        assert_eq!(snap.temp_hwm_bytes, 800);
    }

    #[test]
    fn budget_projection_and_alerts() {
        let m = MemoryObserver::new();
        m.set_probe(Some(probe_with(one_table(1000), 0)));
        m.set_budget(Some(10_000));
        // Flat history: no projected crossing.
        let snap = m.snapshot(&[0, 0, 0]);
        let b = snap.budget.unwrap();
        assert_eq!(b.alert, MemAlert::Ok);
        assert_eq!(b.windows_to_budget, None);
        // Growing ~600 B/window: 9000 headroom / 600 = 15 windows <= 24.
        let snap = m.snapshot(&[600, 600, 600]);
        let b = snap.budget.unwrap();
        assert_eq!(b.windows_to_budget, Some(15));
        assert_eq!(b.alert, MemAlert::ProjectedBreach);
        // Slow growth: crossing far out, no alert.
        let snap = m.snapshot(&[10, 10, 10]);
        assert_eq!(snap.budget.unwrap().alert, MemAlert::Ok);
        // Over budget right now.
        m.set_budget(Some(500));
        let snap = m.snapshot(&[]);
        let b = snap.budget.unwrap();
        assert_eq!(b.alert, MemAlert::OverBudget);
        assert_eq!(b.windows_to_budget, Some(0));
        // Growth estimation uses only the trailing short span.
        m.set_budget(Some(10_000));
        let deltas: Vec<i64> = vec![1_000_000, 0, 0, 0, 0, 0, 0];
        let b = m.snapshot(&deltas).budget.unwrap();
        assert_eq!(b.growth_short_bpw, 0.0);
        assert!(b.growth_long_bpw > 0.0);
    }
}
