//! Property tests for the windowed collector: merging all window frames
//! (sealed + open) reproduces the run-level aggregates exactly — counts,
//! sums, maxes, and full bucket arrays, for every fixed histogram, per-kind
//! exec, and per-table staleness — and ring overwrite degrades to an
//! explicitly marked truncation that only ever *under*-counts.

use proptest::prelude::*;
use strip_obs::{Hist, HistSnapshot, ObsSink, WindowsSnapshot, HIST_COUNT};

#[derive(Debug, Clone)]
enum Op {
    /// Advance the virtual clock by this many µs and tick.
    Advance(u64),
    Queue(u64),
    /// A lock wait on a key (true) or a whole table (false).
    LockWait(bool, u64),
    Exec(u8, u64),
    Staleness(u8, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..2500).prop_map(Op::Advance),
        (0u64..100_000).prop_map(Op::Queue),
        (any::<bool>(), 0u64..100_000).prop_map(|(k, v)| Op::LockWait(k, v)),
        (0u8..3, 0u64..100_000).prop_map(|(k, v)| Op::Exec(k, v)),
        (0u8..2, 0u64..10_000_000).prop_map(|(t, v)| Op::Staleness(t, v)),
    ]
}

#[derive(Debug, Clone)]
enum MemOp {
    /// Advance the virtual clock by this many µs and tick.
    Advance(u64),
    Grow(u64),
    Shrink(u64),
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0u64..2500).prop_map(MemOp::Advance),
        (0u64..10_000).prop_map(MemOp::Grow),
        (0u64..10_000).prop_map(MemOp::Shrink),
    ]
}

const KINDS: [&str; 3] = ["update", "recompute:f", "delta:f"];
const TABLES: [&str; 2] = ["comp_prices", "option_prices"];

/// Run the op sequence against a sink with 1ms windows and the given ring
/// capacity; returns the sink and its final windows snapshot.
fn run(ops: &[Op], window_cap: usize) -> (std::sync::Arc<ObsSink>, WindowsSnapshot) {
    let sink = ObsSink::with_windows(16, 1000, window_cap);
    let mut now = 0u64;
    let mut tasks = 0u64;
    let mut busy = 0u64;
    for o in ops {
        match o {
            Op::Advance(dt) => {
                now += dt;
                tasks += 1;
                busy += dt;
                sink.window_tick(now, tasks, busy);
            }
            Op::Queue(v) => sink.record(Hist::Queue, *v),
            Op::LockWait(key, v) => sink.record_lock_wait_labeled(*key, *v),
            Op::Exec(k, v) => sink.record_exec(KINDS[*k as usize], *v),
            Op::Staleness(t, v) => sink.record_staleness(TABLES[*t as usize], *v),
        }
    }
    let snap = sink.windows_snapshot();
    (sink, snap)
}

/// Fold one frame-level histogram across every frame of the snapshot.
fn merged<F>(snap: &WindowsSnapshot, pick: F) -> HistSnapshot
where
    F: Fn(&strip_obs::WindowFrame) -> Option<&HistSnapshot>,
{
    let mut acc = HistSnapshot::default();
    for f in &snap.frames {
        if let Some(h) = pick(f) {
            acc.merge(h);
        }
    }
    acc
}

proptest! {
    // With a ring large enough to retain every window, merging all frames
    // reproduces the run aggregate bit-for-bit.
    #[test]
    fn merged_frames_equal_run_aggregate(ops in proptest::collection::vec(op(), 1..200)) {
        let (sink, snap) = run(&ops, 4096);
        prop_assert!(!snap.truncated);
        let agg = sink.snapshot();

        for i in 0..HIST_COUNT {
            prop_assert_eq!(&merged(&snap, |f| Some(&f.hists[i])), &agg.hists[i]);
        }
        for kind in KINDS {
            let m = merged(&snap, |f| {
                f.exec.iter().find(|(k, _)| k == kind).map(|(_, h)| h)
            });
            let a = agg.exec_us.iter().find(|(k, _)| k == kind);
            match a {
                Some((_, s)) => prop_assert_eq!(&m, s),
                None => prop_assert_eq!(m.count, 0),
            }
        }
        for table in TABLES {
            let m = merged(&snap, |f| {
                f.staleness.iter().find(|(t, _)| t == table).map(|(_, h)| h)
            });
            let a = agg.staleness.iter().find(|(t, _)| t == table);
            match a {
                Some((_, s)) => prop_assert_eq!(&m, s),
                None => prop_assert_eq!(m.count, 0),
            }
        }
        // Counter deltas telescope the same way.
        let tasks: u64 = snap.frames.iter().map(|f| f.tasks_run).sum();
        let advances = ops.iter().filter(|o| matches!(o, Op::Advance(_))).count() as u64;
        prop_assert_eq!(tasks, advances);
    }

    // Memory gauge deltas are signed and telescope: summing every frame's
    // delta (gap windows included — they carry zero) reproduces the final
    // gauge exactly, totals and per-class alike.
    #[test]
    fn mem_frame_deltas_telescope(ops in proptest::collection::vec(mem_op(), 1..200)) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use strip_obs::{MemReading, TableMemReading};

        let sink = ObsSink::with_windows(16, 1000, 4096);
        let cell = Arc::new(AtomicU64::new(0));
        let probe_cell = cell.clone();
        sink.memory().set_probe(Some(Arc::new(move || MemReading {
            tables: vec![TableMemReading {
                table: "t".into(),
                row_bytes: probe_cell.load(Ordering::Relaxed),
                index_bytes: 0,
                version_bytes: 0,
            }],
            plan_cache_bytes: 0,
        })));
        let mut now = 0u64;
        let mut ticks = 0u64;
        for o in &ops {
            match o {
                MemOp::Advance(dt) => {
                    now += dt;
                    ticks += 1;
                    sink.window_tick(now, ticks, 0);
                }
                MemOp::Grow(b) => {
                    cell.fetch_add(*b, Ordering::Relaxed);
                }
                MemOp::Shrink(b) => {
                    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(*b))
                    });
                }
            }
        }
        let snap = sink.windows_snapshot();
        prop_assert!(!snap.truncated);
        let total: i64 = snap.frames.iter().map(|f| f.mem.delta_bytes).sum();
        let last_end = snap.frames.last().map_or(0, |f| f.mem.end_bytes);
        prop_assert_eq!(total, last_end as i64);
        let rows: i64 = snap.frames.iter().map(|f| f.mem.class_delta[0]).sum();
        prop_assert_eq!(rows, cell.load(Ordering::Relaxed) as i64);
        // The non-row classes net out to whatever the final gauge holds
        // (the trace ring is class 5 and constant from the first sample).
        let ring: i64 = snap.frames.iter().map(|f| f.mem.class_delta[5]).sum();
        prop_assert_eq!(rows + ring, last_end as i64);
    }

    // With a tiny ring, overwrite is marked `truncated` and the retained
    // frames only ever under-count the aggregate.
    #[test]
    fn ring_overwrite_is_marked_and_undercounts(ops in proptest::collection::vec(op(), 50..200)) {
        let (sink, snap) = run(&ops, 2);
        let agg = sink.snapshot();
        prop_assert_eq!(snap.truncated, snap.sealed > 2);
        let queue = Hist::Queue as usize;
        let (mq, aq) = (merged(&snap, |f| Some(&f.hists[queue])), &agg.hists[queue]);
        prop_assert!(mq.count <= aq.count);
        prop_assert!(mq.sum <= aq.sum);
        if !snap.truncated {
            prop_assert_eq!(&mq, aq);
        }
        // The watermark max is always the run max once any frame saw it,
        // and never exceeds it.
        prop_assert!(mq.max <= aq.max);
    }
}
