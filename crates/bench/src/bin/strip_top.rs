//! `strip-top`: live windowed-telemetry viewer over a PTA run.
//!
//! Drives the composite-maintenance workload (`unique on comp after
//! <delay>`) on the virtual-time simulator, advancing one telemetry window
//! at a time, and refreshes a terminal dashboard after each window: the
//! latest sealed frame's task/latency/staleness numbers and per-window
//! memory movement, the hot-resource contention maps (window and run), the
//! staleness-SLO verdict table, and the memory-accounting table.
//!
//! `--once` skips the live refresh: it runs the trace to completion and
//! prints the final dashboard a single time — the mode CI uses to assert
//! the end-to-end telemetry pipeline stays alive.
//!
//! ```text
//! strip-top [--paper|--medium|--small] [--delay S] [--once]
//!           [--top K] [--refresh-ms MS]
//! ```

use std::process::ExitCode;
use strip_bench::{fresh_pta_windowed, top_liveness_failures, Scale};
use strip_finance::CompVariant;
use strip_obs::export::{fmt_bytes, render_hot};
use strip_obs::{Hist, WindowFrame};
use strip_storage::Value;

const WINDOW_US: u64 = 1_000_000;
const WINDOW_CAP: usize = 4096;
const SLO_TABLE: &str = "comp_prices";
const SLO_BOUND_US: u64 = 1_000_000;

struct Args {
    scale: Scale,
    delay_s: f64,
    once: bool,
    top_k: usize,
    refresh_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Small,
        delay_s: 2.0,
        once: false,
        top_k: 8,
        refresh_ms: 150,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if let Some(s) = Scale::from_arg(&flag) {
            args.scale = s;
            continue;
        }
        match flag.as_str() {
            "--delay" => {
                args.delay_s = it
                    .next()
                    .ok_or("--delay needs a value")?
                    .parse()
                    .map_err(|e| format!("--delay: {e}"))?;
            }
            "--once" => args.once = true,
            "--top" => {
                args.top_k = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--refresh-ms" => {
                args.refresh_ms = it
                    .next()
                    .ok_or("--refresh-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("--refresh-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: strip-top [--paper|--medium|--small] [--delay S] \
                     [--once] [--top K] [--refresh-ms MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn frame_line(f: &WindowFrame) -> String {
    let stale: Vec<String> = f
        .staleness
        .iter()
        .map(|(t, h)| format!("{t} n={} p99={}us", h.count, h.percentile(0.99)))
        .collect();
    format!(
        "window {:>4} [{:>5.1}s..{:>5.1}s){} tasks={} busy={}us queue_p99={}us \
         mem={} ({:+}B)  staleness: {}",
        f.index,
        f.start_us as f64 / 1e6,
        f.end_us as f64 / 1e6,
        if f.open { " open" } else { "" },
        f.tasks_run,
        f.busy_us,
        f.hists[Hist::Queue as usize].percentile(0.99),
        fmt_bytes(f.mem.end_bytes),
        f.mem.delta_bytes,
        if stale.is_empty() {
            "-".to_string()
        } else {
            stale.join("  ")
        }
    )
}

/// One lock-free snapshot probe: the monitoring queries a live dashboard
/// would issue — a full view of the maintained composites, read through
/// the version chains without touching the lock manager. Feeds the
/// `strip_snap_*` counters the end-of-run liveness audit asserts on.
fn snapshot_probe(db: &strip_core::Strip) {
    db.read_txn(|t| {
        t.query(
            "select count(*) as n, sum(price) as total from comp_prices",
            &[],
        )?;
        Ok(())
    })
    .expect("snapshot probe");
}

/// One dashboard render from the sink's current state.
fn dashboard(pta: &strip_finance::Pta, top_k: usize, live: bool) -> String {
    use std::fmt::Write as _;
    let obs = pta.db.obs();
    let snap = obs.windows_snapshot();
    let st = obs.snap_stats();
    let mut s = String::new();
    if live {
        // ANSI clear + home for in-place refresh.
        s.push_str("\x1b[2J\x1b[H");
    }
    let _ = writeln!(
        s,
        "strip-top  t={:.1}s  pending={}  windows sealed={}{}",
        pta.db.now_us() as f64 / 1e6,
        pta.db.pending_tasks(),
        snap.sealed,
        if snap.truncated {
            " (ring truncated)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        s,
        "snapshots: {} ro-txns ({} active)  {} chain reads  gc: {} runs {} pruned horizon {}",
        st.txns, st.active, st.reads, st.gc_runs, st.gc_pruned, st.gc_horizon
    );
    // The open window plus up to four most recent sealed frames.
    let tail = snap.frames.len().saturating_sub(5);
    for f in &snap.frames[tail..] {
        let _ = writeln!(s, "  {}", frame_line(f));
    }
    let _ = writeln!(s);
    s.push_str(&render_hot(
        "hot resources (open window)",
        &obs.hot_window(top_k),
    ));
    s.push_str(&render_hot("hot resources (run)", &obs.hot_run(top_k)));
    let _ = writeln!(s);
    s.push_str(&obs.slo_report().render_table());
    let _ = writeln!(s);
    s.push_str(&pta.db.memory_snapshot().render_table(None));
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("strip-top: {e}");
            return ExitCode::from(2);
        }
    };

    let pta = fresh_pta_windowed(
        args.scale,
        WINDOW_US,
        WINDOW_CAP,
        &[(SLO_TABLE, SLO_BOUND_US)],
    );
    pta.install_comp_rule(CompVariant::UniqueOnComp, args.delay_s)
        .expect("install rule");

    // Submit the whole quote trace (releases are virtual timestamps), then
    // advance window by window so the dashboard tracks the run.
    let upd = std::sync::Arc::new(
        strip_sql::parse_statement("update stocks set price = ? where symbol = ?")
            .expect("prepared update"),
    );
    for q in &pta.trace.quotes {
        let upd = upd.clone();
        let sym = pta.symbols[q.symbol as usize].clone();
        let price = q.price;
        pta.db
            .submit_txn_with("update", q.time_us, None, 10.0, move |t| {
                t.exec_ast(&upd, &[price.into(), Value::Str(sym)])?;
                Ok(())
            });
    }

    if args.once {
        pta.db.drain();
    } else {
        let mut horizon = WINDOW_US;
        let end = pta.trace.duration_us;
        while horizon < end {
            pta.db.advance_to(horizon);
            snapshot_probe(&pta.db);
            print!("{}", dashboard(&pta, args.top_k, true));
            std::thread::sleep(std::time::Duration::from_millis(args.refresh_ms));
            horizon += WINDOW_US;
        }
        pta.db.drain();
    }
    // The quiescent probe both modes share: the dashboard's own read path
    // must be alive (asserted below via the snap counters).
    snapshot_probe(&pta.db);
    print!("{}", dashboard(&pta, args.top_k, false));

    // Sanity for CI: the pipeline must have produced windows, an SLO
    // verdict for the maintained table, live snapshot-read counters, and
    // non-zero memory accounting.
    let errors = pta.db.take_errors();
    let failures = top_liveness_failures(
        &pta.db.obs().windows_snapshot(),
        &pta.db.obs().slo_report(),
        SLO_TABLE,
        &pta.db.memory_snapshot(),
        &pta.db.obs().snap_stats(),
        &errors,
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("strip-top: {f}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
