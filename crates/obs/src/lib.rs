//! # strip-obs
//!
//! The observability backbone of the STRIP reproduction. The paper's entire
//! evaluation is observational — temporal *staleness* of derived data and
//! transaction response/queue times under load (Figures 9–14) — so every
//! layer of the system reports into a shared [`ObsSink`]:
//!
//! * a lock-free, bounded, overwriting ring buffer of typed [`TraceEvent`]s
//!   covering the transaction lifecycle (submit → release → start →
//!   commit/abort), rule firing → unique-batch coalescing → action
//!   execution, lock waits, WAL append/commit, and plan compile/execute;
//! * log-bucketed (power-of-two µs) [`Histogram`]s, read out as detached
//!   [`HistSnapshot`] values: the fixed ones named once in [`HISTS`] (queue
//!   time, lock wait and its table/key split, WAL latency, plan-compile
//!   time) and two per-label [`HistFamily`]s — execution time per task
//!   kind, and, per derived table, the lag between a base-data commit and
//!   the derived commit that absorbs it (the paper's staleness metric);
//! * a windowed time-series collector ([`WindowCollector`]) slicing every
//!   histogram and counter into fixed-width virtual-time [`WindowFrame`]s,
//!   a per-derived-table staleness-SLO engine with burn-rate alerting, and
//!   a SpaceSaving hot-key/shard contention map;
//! * a memory observer ([`MemoryObserver`]) pulling exact byte footprints
//!   from the engine through a probe, with class gauges, high-water marks,
//!   per-window signed memory deltas in the frame ring, and budget
//!   projection ([`MemBudgetReport`]);
//! * exporters: a JSON snapshot, a Prometheus-text dump, and a rendered
//!   per-run table (consumed by the `strip-report` binary in `strip-bench`).
//!
//! Observability is **always on** by default; the disabled sink
//! ([`ObsSink::disabled`]) reduces every hook to one branch so
//! the instrumented hot path stays within noise of an uninstrumented build
//! (guarded by `crates/txn/tests/obs_overhead.rs`).
//!
//! This crate sits below `strip-txn` in the dependency order and depends
//! only on `parking_lot`, so every other crate can report into it.

pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod lineage;
pub mod mem;
pub mod ring;
pub mod sink;
pub mod trace;
pub mod window;

pub use event::{EventKind, Interner, ResolvedEvent, Sym, TraceEvent};
pub use hist::{Hist, HistFamily, HistName, HistSnapshot, Histogram, HISTS, HIST_COUNT};
pub use lineage::{render_attribution, AttributionSummary, Lineage, PhaseBreakdown, TraceDag};
pub use mem::{
    MemAlert, MemBudgetReport, MemCum, MemFrame, MemProbe, MemReading, MemoryObserver,
    MemorySnapshot, TableMemReading, TableMemSnapshot, MEM_CLASSES, MEM_CLASS_NAMES,
};
pub use ring::TraceRing;
pub use sink::{ObsSink, ObsSnapshot, PlanMisestimate, SnapStats};
pub use trace::TraceCtx;
pub use window::{
    CumSnapshot, HotEntry, SloAlert, SloReport, SloSpec, SloTableReport, SloWindowEval,
    SpaceSaving, WindowCollector, WindowFrame, WindowsSnapshot,
};
