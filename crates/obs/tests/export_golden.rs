//! Exact-output pin for every exporter. One deterministic sink exercises
//! each exported section — the fixed histograms (both lock-wait
//! partitions included), two exec kinds, two staleness tables (one whose
//! label Prometheus must skip), a plan choice, snapshot and GC counters, a
//! memory probe with a budget, two sealed windows and an empty gap window,
//! an SLO and contention —
//! and the rendered bytes are compared with `golden/exports.txt`.

use std::sync::Arc;
use strip_obs::export::render_hot;
use strip_obs::{Hist, MemReading, ObsSink, TableMemReading, TraceCtx};

const GOLDEN: &str = include_str!("golden/exports.txt");

fn sink() -> Arc<ObsSink> {
    let s = ObsSink::with_windows(16, 1000, 8);
    s.declare_slo("comp_prices", 150);
    s.memory().set_probe(Some(Arc::new(|| MemReading {
        tables: vec![
            TableMemReading {
                table: "stocks".into(),
                row_bytes: 1_000,
                index_bytes: 200,
                version_bytes: 64,
            },
            TableMemReading {
                table: "comp_prices".into(),
                row_bytes: 300,
                index_bytes: 0,
                version_bytes: 0,
            },
        ],
        plan_cache_bytes: 512,
    })));
    s.memory().set_budget(Some(1 << 20));

    // Window 0.
    s.record(Hist::Queue, 50);
    s.record(Hist::Queue, 700);
    s.record_lock_wait_labeled(true, 1_200);
    s.record_lock_wait_labeled(false, 40);
    s.record(Hist::Wal, 31);
    s.record(Hist::PlanCompile, 12);
    s.record_exec("update", 172);
    s.record_exec("update", 180);
    s.record_exec("recompute:comp", 9_000);
    s.record_staleness("comp_prices", 100);
    s.record_staleness("evil\ttab", 10);
    s.record_contention("stocks#symbol=S00001", 500);
    s.record_contention("stocks/shard3", 100);
    s.record_plan_choice(900, 7, "probe(stocks)>hash(feed)", 10, 400, TraceCtx::NONE);
    s.record_snapshot_begin();
    s.record_snapshot_read(950, 8, "stocks", 3, TraceCtx::NONE);
    s.record_snapshot_end();
    s.record_version_gc(960, "stocks", 3, 2, 1);
    s.window_tick(1_500, 3, 9_352);

    // Window 1: the SLO is violated and the memory probe is unchanged.
    // The tick lands in window 3, so window 2 seals as an empty gap.
    s.record(Hist::Queue, 3);
    s.record_lock_wait_labeled(true, 9);
    s.record_exec("update", 172);
    s.record_staleness("comp_prices", 90_000);
    s.record_contention("stocks#symbol=S00002", 70);
    s.window_tick(3_500, 4, 9_524);

    // The open window.
    s.record(Hist::Queue, 20);
    s.record_staleness("comp_prices", 120);
    s.record_contention("stocks#symbol=S00001", 5);
    s
}

/// Every exporter's output, one `== name ==` section each. Window frames
/// are split one per line so a change to one frame diffs as one line.
fn render() -> String {
    let s = sink();
    let snap = s.snapshot();
    let windows = s.windows_snapshot();
    let slo = s.slo_report();
    let frames = |j: String| j.replace(",{\"index\":", ",\n{\"index\":");
    let sections = [
        ("ObsSnapshot::to_json", snap.to_json() + "\n"),
        ("ObsSnapshot::to_prometheus", snap.to_prometheus()),
        ("ObsSnapshot::render_table", snap.render_table()),
        ("MemorySnapshot::to_json", snap.memory.to_json() + "\n"),
        (
            "MemorySnapshot::render_table",
            snap.memory.render_table(None),
        ),
        (
            "MemorySnapshot::render_table(stock)",
            snap.memory.render_table(Some("stock")),
        ),
        (
            "WindowsSnapshot::to_json(false)",
            frames(windows.to_json(false)) + "\n",
        ),
        (
            "WindowsSnapshot::to_json(true)",
            frames(windows.to_json(true)) + "\n",
        ),
        ("SloReport::to_json", slo.to_json() + "\n"),
        ("SloReport::render_table", slo.render_table()),
        (
            "render_hot(window)",
            render_hot("hot resources (open window)", &s.hot_window(8)),
        ),
        (
            "render_hot(run)",
            render_hot("hot resources (run)", &s.hot_run(8)),
        ),
    ];
    sections
        .iter()
        .map(|(name, body)| format!("== {name} ==\n{body}"))
        .collect()
}

#[test]
fn every_exporter_matches_its_golden_bytes() {
    let got = render();
    if got != GOLDEN {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exports.txt");
        std::fs::write(&actual, &got).expect("write actual exporter output");
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "exporter output differs from golden/exports.txt at line {} (full output in {}):\n  got:  {:?}\n  want: {:?}",
            first + 1,
            actual.display(),
            got.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
