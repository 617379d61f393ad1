//! `strip-report`: the observability report over a PTA run.
//!
//! Runs the composite-maintenance workload twice — the non-unique baseline
//! and a `unique on comp after <delay>` variant — and renders what the
//! telemetry layer saw: per-derived-table staleness (the lag between a base
//! commit and the derived commit that absorbed it, Figures 9–14's hidden
//! variable), its causal attribution (which pipeline phase the lag was
//! spent in), and per-kind latency histograms. Also writes the machine
//! artifact `BENCH_obs.json`.
//!
//! Telemetry is collected in 1-second windows of virtual time; a staleness
//! SLO of `p99 ≤ 1s` is declared on `comp_prices`, so the non-unique
//! baseline meets it while the 2-second batching window of the `unique on
//! comp` run misses it — the report renders per-table verdicts and both are
//! carried in the JSON (`windows` and `slo` sections). `--series` prints
//! the per-window staleness series as a table.
//!
//! ```text
//! strip-report [--paper|--medium|--small] [--delay S] [--json PATH]
//!              [--series] [--check] [--baseline PATH]
//!              [--write-baseline PATH] [--tolerance PCT]
//! ```
//!
//! `--check` validates the emitted JSON and the staleness numbers (CI's
//! `obs` job runs it at `--small`): the JSON must parse, every staleness
//! histogram must be non-empty with a finite non-zero mean, every staleness
//! sample's phase decomposition must sum exactly to its lag, and the
//! batched run must not recompute more often than the baseline.
//!
//! `--baseline PATH` diffs the run's attribution against a committed
//! baseline (CI's `obs-regression` gate): counts must match exactly,
//! virtual-time sums within `--tolerance` percent (default 10). Only
//! virtual-clock metrics are gated — wall-clock carve-outs (lock wait, plan
//! compile) vary per host and are reported but not compared. Refresh the
//! baseline with `--write-baseline` (see README).

use std::process::ExitCode;
use strip_bench::{fresh_pta_windowed, fresh_pta_windowed_durable, Scale};
use strip_finance::CompVariant;
use strip_obs::json::{self, Json};
use strip_obs::{
    render_attribution, AttributionSummary, ObsSnapshot, SloReport, WindowsSnapshot,
    MEM_CLASS_NAMES,
};

/// Telemetry window width (1s of virtual time) and ring capacity.
const WINDOW_US: u64 = 1_000_000;
const WINDOW_CAP: usize = 4096;
/// The staleness SLO declared on the maintained composite table.
const SLO_TABLE: &str = "comp_prices";
const SLO_BOUND_US: u64 = 1_000_000;

struct Args {
    scale: Scale,
    delay_s: f64,
    json_path: String,
    series: bool,
    check: bool,
    baseline: Option<String>,
    write_baseline: Option<String>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Small,
        delay_s: 2.0,
        json_path: "BENCH_obs.json".to_string(),
        series: false,
        check: false,
        baseline: None,
        write_baseline: None,
        tolerance_pct: 10.0,
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
            "--json" => args.json_path = it.next().ok_or("--json needs a path")?,
            "--series" => args.series = true,
            "--check" => args.check = true,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a path")?),
            "--write-baseline" => {
                args.write_baseline = Some(it.next().ok_or("--write-baseline needs a path")?);
            }
            "--tolerance" => {
                args.tolerance_pct = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: strip-report [--paper|--medium|--small] [--delay S] \
                     [--json PATH] [--series] [--check] [--baseline PATH] \
                     [--write-baseline PATH] [--tolerance PCT]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

struct Run {
    series: String,
    delay_s: f64,
    recompute_count: u64,
    snapshot: ObsSnapshot,
    attribution: Vec<AttributionSummary>,
    /// Staleness samples whose phase decomposition failed to sum to the lag
    /// (must be zero; the decomposition is exact by construction).
    sum_violations: u64,
    /// The trace ring wrapped: attribution only covers the surviving tail.
    ring_truncated: bool,
    /// Per-window telemetry frames (sealed ring + open tail).
    windows: WindowsSnapshot,
    /// Staleness-SLO compliance over those windows.
    slo: SloReport,
}

/// The `durable` series label: the non-unique workload on a WAL-keeping
/// database, so `wal_us` carries real append/commit latencies. The two
/// default (virtual-time, WAL-free) series are unchanged.
const DURABLE_SERIES: &str = "durable";

/// The `read-mostly` series label: the non-unique workload with lock-free
/// snapshot-read probes issued between telemetry windows, so the
/// `strip_snap_*` counters (snapshot txns/reads, version GC) carry real
/// traffic.
const READ_MOSTLY_SERIES: &str = "read-mostly";

/// Snapshot probes per telemetry window in the read-mostly series.
const SNAP_PROBES_PER_WINDOW: usize = 4;

/// How a series drives the trace.
#[derive(Clone, Copy, PartialEq)]
enum SeriesMode {
    /// Virtual-time, WAL-free, update transactions only.
    Plain,
    /// WAL-keeping database, so `wal_us` carries real latencies.
    Durable,
    /// Updates plus snapshot-read probes between windows.
    ReadMostly,
}

fn run_variant(scale: Scale, variant: CompVariant, delay_s: f64, mode: SeriesMode) -> Run {
    let pta = if mode == SeriesMode::Durable {
        fresh_pta_windowed_durable(scale, WINDOW_US, WINDOW_CAP, &[(SLO_TABLE, SLO_BOUND_US)])
    } else {
        fresh_pta_windowed(scale, WINDOW_US, WINDOW_CAP, &[(SLO_TABLE, SLO_BOUND_US)])
    };
    pta.install_comp_rule(variant, delay_s)
        .expect("install rule");
    let report = match mode {
        SeriesMode::ReadMostly => pta
            .run_trace_read_mostly(WINDOW_US, SNAP_PROBES_PER_WINDOW)
            .expect("run read-mostly trace"),
        _ => pta.run_trace().expect("run trace"),
    };
    assert_eq!(
        report.errors, 0,
        "background task errors in {variant:?} run"
    );
    let lin = pta.db.obs().lineage();
    let sum_violations = lin
        .breakdowns()
        .iter()
        .filter(|b| b.phase_sum() != b.lag_us)
        .count() as u64;
    Run {
        series: match mode {
            SeriesMode::Durable => DURABLE_SERIES.to_string(),
            SeriesMode::ReadMostly => READ_MOSTLY_SERIES.to_string(),
            SeriesMode::Plain => variant.label().to_string(),
        },
        delay_s,
        recompute_count: report.recompute_count,
        snapshot: pta.db.obs().snapshot(),
        attribution: lin.attribution(),
        sum_violations,
        ring_truncated: lin.ring_truncated(),
        windows: pta.db.obs().windows_snapshot(),
        slo: pta.db.obs().slo_report(),
    }
}

/// Human-readable per-window staleness series (`--series`).
fn render_series(r: &Run) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "per-window staleness series ({}us windows):",
        r.windows.window_us
    );
    let _ = writeln!(
        s,
        "  {:>6} {:>9}  {:<16} {:>7} {:>10} {:>10}  slo",
        "window", "start_s", "table", "n", "p99_us", "max_us"
    );
    for f in &r.windows.frames {
        for (table, h) in &f.staleness {
            let verdict = f
                .slo
                .iter()
                .find(|e| &e.table == table)
                .map(|e| if e.ok { "ok" } else { "VIOLATED" })
                .unwrap_or("-");
            let _ = writeln!(
                s,
                "  {:>6} {:>9.1}  {:<16} {:>7} {:>10} {:>10}  {}{}",
                f.index,
                f.start_us as f64 / 1e6,
                table,
                h.count,
                h.percentile(0.99),
                h.max,
                verdict,
                if f.open { " (open)" } else { "" }
            );
        }
    }
    if r.windows.truncated {
        let _ = writeln!(
            s,
            "  (ring truncated: {} windows sealed, {} retained)",
            r.windows.sealed,
            r.windows.frames.len()
        );
    }
    s
}

/// The virtual-clock (host-independent) attribution metrics of one table.
/// `exec_total_us` folds the execution-side phases (lock + wal + plan +
/// exec) into one deterministic number; its wall-clock split is reported in
/// the human table but never gated.
fn attribution_json(a: &AttributionSummary) -> String {
    let [coalesce, delay, queue, _lock, wal, _plan, _exec] = a.phase_sums_us;
    let exec_total = a.lag_sum_us.saturating_sub(coalesce + delay + queue);
    format!(
        "{{\"table\":\"{}\",\"samples\":{},\"truncated\":{},\"lag_sum_us\":{},\
         \"lag_max_us\":{},\"coalesce_us\":{coalesce},\"delay_us\":{delay},\
         \"queue_us\":{queue},\"wal_us\":{wal},\"exec_total_us\":{exec_total},\
         \"merged_firings\":{},\"deadline_misses\":{}}}",
        strip_obs::export::json_escape(&a.table),
        a.samples,
        a.truncated,
        a.lag_sum_us,
        a.lag_max_us,
        a.merged_firings,
        a.deadline_misses,
    )
}

fn run_json(r: &Run) -> String {
    let attr: Vec<String> = r.attribution.iter().map(attribution_json).collect();
    format!(
        "{{\"series\":\"{}\",\"delay_s\":{},\"recompute_count\":{},\
         \"sum_violations\":{},\"ring_truncated\":{},\"attribution\":[{}],\"obs\":{},\
         \"windows\":{},\"slo\":{}}}",
        strip_obs::export::json_escape(&r.series),
        r.delay_s,
        r.recompute_count,
        r.sum_violations,
        r.ring_truncated,
        attr.join(","),
        r.snapshot.to_json(),
        r.windows.to_json(true),
        r.slo.to_json()
    )
}

fn runs_json(scale: Scale, runs: &[Run]) -> String {
    let entries: Vec<String> = runs.iter().map(run_json).collect();
    format!(
        "{{\"scale\":\"{scale:?}\",\"runs\":[{}]}}\n",
        entries.join(",")
    )
}

/// The gated SLO-verdict subset of one run: every quantity derives from
/// virtual-clock staleness, so same-seed runs reproduce it bit-for-bit.
fn slo_baseline_json(r: &Run) -> String {
    let tables: Vec<String> = r
        .slo
        .tables
        .iter()
        .map(|t| {
            format!(
                "{{\"table\":\"{}\",\"windows_evaluated\":{},\"windows_violated\":{},\
                 \"worst_p99_us\":{},\"met\":{}}}",
                strip_obs::export::json_escape(&t.table),
                t.windows_evaluated,
                t.windows_violated,
                t.worst_p99_us,
                t.met
            )
        })
        .collect();
    format!("[{}]", tables.join(","))
}

/// The gated memory subset of one run: table count exact, byte sums per
/// accounting side within tolerance (virtual-clock workloads are
/// deterministic, but the tolerance shields the gate from intentional
/// pricing-model adjustments smaller than a real regression).
fn mem_baseline_json(r: &Run) -> String {
    let m = &r.snapshot.memory;
    let (mut rows, mut index, mut versions) = (0u64, 0u64, 0u64);
    for t in &m.tables {
        rows += t.row_bytes;
        index += t.index_bytes;
        versions += t.version_bytes;
    }
    format!(
        "{{\"tables\":{},\"row_bytes\":{rows},\"index_bytes\":{index},\
         \"version_bytes\":{versions},\"total_bytes\":{}}}",
        m.tables.len(),
        m.total_bytes
    )
}

/// The gated snapshot-path subset of one run: the `strip_snap_*` counters.
/// Probe counts are fixed per window and the trace is virtual-clock
/// deterministic, so txns/reads reproduce exactly; GC volumes ride the
/// shared tolerance like the other sums.
fn snap_baseline_json(r: &Run) -> String {
    let s = &r.snapshot.snap;
    format!(
        "{{\"txns\":{},\"reads\":{},\"gc_runs\":{},\"gc_pruned\":{}}}",
        s.txns, s.reads, s.gc_runs, s.gc_pruned
    )
}

/// The committed-baseline document: the gated subset only.
fn baseline_json(scale: Scale, runs: &[Run]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let attr: Vec<String> = r.attribution.iter().map(attribution_json).collect();
            format!(
                "{{\"series\":\"{}\",\"delay_s\":{},\"recompute_count\":{},\
                 \"attribution\":[{}],\"slo\":{},\"memory\":{},\"snap\":{}}}",
                strip_obs::export::json_escape(&r.series),
                r.delay_s,
                r.recompute_count,
                attr.join(","),
                slo_baseline_json(r),
                mem_baseline_json(r),
                snap_baseline_json(r)
            )
        })
        .collect();
    format!(
        "{{\"scale\":\"{scale:?}\",\"runs\":[{}]}}\n",
        entries.join(",")
    )
}

/// The `--check` assertions; returns every violated expectation.
fn check(runs: &[Run], json_doc: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(e) = json::validate(json_doc) {
        bad.push(format!("BENCH_obs.json does not parse: {e}"));
    }
    for r in runs {
        if r.snapshot.staleness.is_empty() {
            bad.push(format!("run `{}`: no staleness recorded", r.series));
        }
        for (table, h) in &r.snapshot.staleness {
            if h.count == 0 {
                bad.push(format!(
                    "run `{}`: staleness for `{table}` is empty",
                    r.series
                ));
            }
            if !(h.mean.is_finite() && h.mean > 0.0) {
                bad.push(format!(
                    "run `{}`: staleness mean for `{table}` is {} (want finite, non-zero)",
                    r.series, h.mean
                ));
            }
        }
        if r.sum_violations > 0 {
            bad.push(format!(
                "run `{}`: {} staleness sample(s) whose phases do not sum to the lag",
                r.series, r.sum_violations
            ));
        }
        if r.attribution.is_empty() {
            bad.push(format!("run `{}`: no lineage attribution", r.series));
        }
        for a in &r.attribution {
            if a.samples != a.truncated && a.lag_sum_us > 0 {
                let [c, d, q, ..] = a.phase_sums_us;
                let covered: u64 = a.phase_sums_us.iter().sum();
                if covered != a.lag_sum_us {
                    bad.push(format!(
                        "run `{}` table `{}`: phase sums {covered} != lag sum {} \
                         (coalesce {c} delay {d} queue {q})",
                        r.series, a.table, a.lag_sum_us
                    ));
                }
            }
        }
    }
    for r in runs {
        // Windowed telemetry: the series must exist, and unless the ring
        // wrapped, the per-window staleness frames must partition the run
        // aggregate exactly (the proptest-pinned merge invariant, spot
        // checked here on the real workload).
        if r.windows.frames.is_empty() {
            bad.push(format!("run `{}`: no telemetry windows", r.series));
        }
        if !r.windows.truncated {
            for (table, agg) in &r.snapshot.staleness {
                let merged: u64 = r
                    .windows
                    .frames
                    .iter()
                    .flat_map(|f| f.staleness.iter())
                    .filter(|(t, _)| t == table)
                    .map(|(_, h)| h.count)
                    .sum();
                if merged != agg.count {
                    bad.push(format!(
                        "run `{}`: windowed staleness for `{table}` sums to {merged}, \
                         aggregate has {}",
                        r.series, agg.count
                    ));
                }
            }
        }
        // Every derived table with staleness samples must carry an SLO
        // verdict.
        for (table, _) in &r.snapshot.staleness {
            if !r.slo.tables.iter().any(|t| &t.table == table) {
                bad.push(format!(
                    "run `{}`: derived table `{table}` has no SLO verdict",
                    r.series
                ));
            }
        }
    }
    // The declared bound separates the first two runs: the un-batched
    // baseline must meet it, the 2s-batched run must miss it. (The third,
    // `durable`, series repeats the baseline workload on a WAL-keeping
    // database and is checked for WAL coverage below instead.)
    if runs.len() >= 2 {
        let (base, batched) = (&runs[0], &runs[1]);
        let met = |r: &Run| {
            r.slo
                .tables
                .iter()
                .find(|t| t.table == SLO_TABLE)
                .map(|t| t.met)
        };
        if met(base) != Some(true) {
            bad.push(format!(
                "non-unique run should meet the {SLO_BOUND_US}us SLO: {:?}",
                base.slo
            ));
        }
        if met(batched) != Some(false) {
            bad.push(format!(
                "batched run should miss the {SLO_BOUND_US}us SLO: {:?}",
                batched.slo
            ));
        }
        if batched.recompute_count > base.recompute_count {
            bad.push(format!(
                "batched run recomputed more than the baseline ({} > {})",
                batched.recompute_count, base.recompute_count
            ));
        }
    }
    // WAL coverage: only the durable series logs, and it must have logged.
    for r in runs {
        let durable = r.series == DURABLE_SERIES;
        if durable && r.snapshot.wal_us.count == 0 {
            bad.push("durable run recorded no wal_us samples".to_string());
        }
        if !durable && r.snapshot.wal_us.count != 0 {
            bad.push(format!(
                "non-durable run `{}` recorded {} wal_us samples (should be WAL-free)",
                r.series, r.snapshot.wal_us.count
            ));
        }
    }
    // Snapshot-read path liveness: the read-mostly series issues lock-free
    // snapshot probes every window, so its counters must be alive — zero
    // snapshot reads there means the read-only path silently fell back to
    // (or never left) the locked executor. Version GC rides every
    // publishing commit, so quote traffic alone must have produced runs
    // and pruned superseded versions. No series may end with a snapshot
    // still registered.
    for r in runs {
        let s = &r.snapshot.snap;
        if r.series == READ_MOSTLY_SERIES {
            if s.txns == 0 || s.reads == 0 {
                bad.push(format!(
                    "read-mostly run reports a dead snapshot path \
                     (snap_txns={} snap_reads={})",
                    s.txns, s.reads
                ));
            }
            if s.gc_runs == 0 || s.gc_pruned == 0 {
                bad.push(format!(
                    "read-mostly run reports no version GC activity \
                     (gc_runs={} gc_pruned={})",
                    s.gc_runs, s.gc_pruned
                ));
            }
        }
        if s.active != 0 {
            bad.push(format!(
                "run `{}`: {} snapshot(s) still registered after drain",
                r.series, s.active
            ));
        }
    }
    bad.extend(check_memory(runs, json_doc));
    bad.extend(check_snap(runs, json_doc));
    bad
}

/// Schema-check the `snap` section each run carries in BENCH_obs.json
/// (under `obs`): all seven counters present as non-negative integers and
/// exact against the in-process sink.
fn check_snap(runs: &[Run], json_doc: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let doc = match json::parse(json_doc) {
        Ok(d) => d,
        // Unparseable JSON is already reported by `check`.
        Err(_) => return bad,
    };
    let entries = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    for (r, entry) in runs.iter().zip(entries) {
        let series = &r.series;
        let Some(s) = entry.get("obs").and_then(|o| o.get("snap")) else {
            bad.push(format!("run `{series}`: no snap section in JSON"));
            continue;
        };
        let got = &r.snapshot.snap;
        let expect: [(&str, u64); 7] = [
            ("txns", got.txns),
            ("reads", got.reads),
            ("active", got.active),
            ("gc_runs", got.gc_runs),
            ("gc_pruned", got.gc_pruned),
            ("gc_freed", got.gc_freed),
            ("gc_horizon", got.gc_horizon),
        ];
        for (key, want) in expect {
            match s.get(key).and_then(Json::as_u64) {
                Some(v) if v == want => {}
                other => bad.push(format!(
                    "run `{series}`: snap `{key}` is {other:?} in JSON, metered {want}"
                )),
            }
        }
    }
    bad
}

/// Schema-check the `memory` section each run carries in BENCH_obs.json
/// (under `obs`): all six classes present as non-negative integers, totals
/// internally consistent, per-table footprints present and exact against
/// the in-process snapshot, watermarks at or above current.
fn check_memory(runs: &[Run], json_doc: &str) -> Vec<String> {
    let mut bad = Vec::new();
    let doc = match json::parse(json_doc) {
        Ok(d) => d,
        // Unparseable JSON is already reported by `check`.
        Err(_) => return bad,
    };
    let entries = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    if entries.len() != runs.len() {
        bad.push(format!(
            "BENCH_obs.json has {} runs, expected {}",
            entries.len(),
            runs.len()
        ));
        return bad;
    }
    for (r, entry) in runs.iter().zip(entries) {
        let series = &r.series;
        let Some(m) = entry.get("obs").and_then(|o| o.get("memory")) else {
            bad.push(format!("run `{series}`: no memory section in JSON"));
            continue;
        };
        let mut class_sum = 0u64;
        for name in MEM_CLASS_NAMES {
            match m
                .get("classes")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
            {
                Some(b) => class_sum += b,
                None => bad.push(format!(
                    "run `{series}`: memory class `{name}` missing or not a non-negative integer"
                )),
            }
        }
        let total = m.get("total_bytes").and_then(Json::as_u64);
        if total != Some(class_sum) {
            bad.push(format!(
                "run `{series}`: memory total_bytes {total:?} != class sum {class_sum}"
            ));
        }
        if total == Some(0) {
            bad.push(format!("run `{series}`: memory total_bytes is zero"));
        }
        let hwm = m.get("hwm_bytes").and_then(Json::as_u64);
        if hwm < total {
            bad.push(format!(
                "run `{series}`: memory hwm {hwm:?} below current total {total:?}"
            ));
        }
        if m.get("temp_hwm_bytes").and_then(Json::as_u64) == Some(0) {
            bad.push(format!(
                "run `{series}`: temp high-water mark is zero (bound tables never metered)"
            ));
        }
        let tables = m.get("tables").and_then(Json::as_arr).unwrap_or(&[]);
        if tables.is_empty() {
            bad.push(format!("run `{series}`: memory section lists no tables"));
        }
        for t in tables {
            let name = t.get("table").and_then(Json::as_str).unwrap_or("?");
            let parts: Option<[u64; 4]> = (|| {
                Some([
                    t.get("row_bytes")?.as_u64()?,
                    t.get("index_bytes")?.as_u64()?,
                    t.get("version_bytes")?.as_u64()?,
                    t.get("total_bytes")?.as_u64()?,
                ])
            })();
            match parts {
                None => bad.push(format!(
                    "run `{series}` table `{name}`: memory fields missing or non-integer"
                )),
                Some([rows, index, versions, tot]) => {
                    if rows + index + versions != tot {
                        bad.push(format!(
                            "run `{series}` table `{name}`: {rows}+{index}+{versions} != total {tot}"
                        ));
                    }
                    // The JSON must be the exact in-process meters.
                    if let Some(got) = r.snapshot.memory.tables.iter().find(|x| x.table == name) {
                        if got.total() != tot {
                            bad.push(format!(
                                "run `{series}` table `{name}`: JSON total {tot} != metered {}",
                                got.total()
                            ));
                        }
                    } else {
                        bad.push(format!(
                            "run `{series}` table `{name}`: in JSON but not in the snapshot"
                        ));
                    }
                    if t.get("hwm_bytes").and_then(Json::as_u64) < Some(tot) {
                        bad.push(format!(
                            "run `{series}` table `{name}`: hwm below current total"
                        ));
                    }
                }
            }
        }
    }
    bad
}

/// Compare `got` vs baseline `want`: exact on counts, `tol_pct` relative on
/// virtual-time sums. Collects human-readable mismatches.
fn diff_baseline(runs: &[Run], doc: &Json, tol_pct: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(want_runs) = doc.get("runs").and_then(Json::as_arr) else {
        return vec!["baseline: missing `runs` array".to_string()];
    };
    let within = |got: f64, want: f64| -> bool {
        if want == 0.0 {
            got == 0.0
        } else {
            ((got - want) / want).abs() * 100.0 <= tol_pct
        }
    };
    for want in want_runs {
        let series = want.get("series").and_then(Json::as_str).unwrap_or("?");
        let Some(got) = runs.iter().find(|r| r.series == series) else {
            bad.push(format!("baseline series `{series}` missing from this run"));
            continue;
        };
        let want_nr = want.get("recompute_count").and_then(Json::as_u64);
        if want_nr != Some(got.recompute_count) {
            bad.push(format!(
                "series `{series}`: recompute_count {} != baseline {:?}",
                got.recompute_count, want_nr
            ));
        }
        let Some(want_attr) = want.get("attribution").and_then(Json::as_arr) else {
            bad.push(format!("baseline series `{series}`: missing attribution"));
            continue;
        };
        for wa in want_attr {
            let table = wa.get("table").and_then(Json::as_str).unwrap_or("?");
            let Some(ga) = got.attribution.iter().find(|a| a.table == table) else {
                bad.push(format!(
                    "series `{series}`: table `{table}` missing from attribution"
                ));
                continue;
            };
            let [coalesce, delay, queue, _lock, wal, _plan, _exec] = ga.phase_sums_us;
            let exec_total = ga.lag_sum_us.saturating_sub(coalesce + delay + queue);
            let exact: [(&str, u64); 3] = [
                ("samples", ga.samples),
                ("merged_firings", ga.merged_firings),
                ("deadline_misses", ga.deadline_misses),
            ];
            for (key, got_v) in exact {
                let want_v = wa.get(key).and_then(Json::as_u64);
                if want_v != Some(got_v) {
                    bad.push(format!(
                        "series `{series}` table `{table}`: {key} {got_v} != baseline {want_v:?}"
                    ));
                }
            }
            let approx: [(&str, u64); 6] = [
                ("lag_sum_us", ga.lag_sum_us),
                ("lag_max_us", ga.lag_max_us),
                ("coalesce_us", coalesce),
                ("delay_us", delay),
                ("queue_us", queue),
                ("exec_total_us", exec_total),
            ];
            let _ = wal; // reported, not gated (folded into exec_total_us)
            for (key, got_v) in approx {
                let Some(want_v) = wa.get(key).and_then(Json::as_f64) else {
                    bad.push(format!(
                        "series `{series}` table `{table}`: baseline missing `{key}`"
                    ));
                    continue;
                };
                if !within(got_v as f64, want_v) {
                    bad.push(format!(
                        "series `{series}` table `{table}`: {key} {got_v} \
                         drifted >{tol_pct}% from baseline {want_v}"
                    ));
                }
            }
        }
        // SLO verdicts are bit-deterministic virtual-clock quantities:
        // gate them exactly (worst p99 within tolerance, like other sums).
        let Some(want_slo) = want.get("slo").and_then(Json::as_arr) else {
            bad.push(format!("baseline series `{series}`: missing slo"));
            continue;
        };
        for ws in want_slo {
            let table = ws.get("table").and_then(Json::as_str).unwrap_or("?");
            let Some(gs) = got.slo.tables.iter().find(|t| t.table == table) else {
                bad.push(format!(
                    "series `{series}`: table `{table}` missing from SLO report"
                ));
                continue;
            };
            let exact: [(&str, u64); 2] = [
                ("windows_evaluated", gs.windows_evaluated),
                ("windows_violated", gs.windows_violated),
            ];
            for (key, got_v) in exact {
                let want_v = ws.get(key).and_then(Json::as_u64);
                if want_v != Some(got_v) {
                    bad.push(format!(
                        "series `{series}` slo `{table}`: {key} {got_v} != baseline {want_v:?}"
                    ));
                }
            }
            if ws.get("met").and_then(Json::as_bool) != Some(gs.met) {
                bad.push(format!(
                    "series `{series}` slo `{table}`: met {} != baseline",
                    gs.met
                ));
            }
            if let Some(want_p99) = ws.get("worst_p99_us").and_then(Json::as_f64) {
                if !within(gs.worst_p99_us as f64, want_p99) {
                    bad.push(format!(
                        "series `{series}` slo `{table}`: worst_p99_us {} \
                         drifted >{tol_pct}% from baseline {want_p99}",
                        gs.worst_p99_us
                    ));
                }
            } else {
                bad.push(format!(
                    "series `{series}` slo `{table}`: baseline missing worst_p99_us"
                ));
            }
        }
        // Memory footprints: table count exact, byte sums within tolerance.
        let Some(want_mem) = want.get("memory") else {
            bad.push(format!("baseline series `{series}`: missing memory"));
            continue;
        };
        let m = &got.snapshot.memory;
        let (mut rows, mut index, mut versions) = (0u64, 0u64, 0u64);
        for t in &m.tables {
            rows += t.row_bytes;
            index += t.index_bytes;
            versions += t.version_bytes;
        }
        let want_tables = want_mem.get("tables").and_then(Json::as_u64);
        if want_tables != Some(m.tables.len() as u64) {
            bad.push(format!(
                "series `{series}`: memory table count {} != baseline {want_tables:?}",
                m.tables.len()
            ));
        }
        let sums: [(&str, u64); 4] = [
            ("row_bytes", rows),
            ("index_bytes", index),
            ("version_bytes", versions),
            ("total_bytes", m.total_bytes),
        ];
        for (key, got_v) in sums {
            let Some(want_v) = want_mem.get(key).and_then(Json::as_f64) else {
                bad.push(format!(
                    "baseline series `{series}`: memory missing `{key}`"
                ));
                continue;
            };
            if !within(got_v as f64, want_v) {
                bad.push(format!(
                    "series `{series}`: memory {key} {got_v} drifted >{tol_pct}% \
                     from baseline {want_v}"
                ));
            }
        }
        // Snapshot-path counters: probe counts are fixed per window on a
        // deterministic virtual clock, so txns/reads gate exactly; GC
        // volumes ride the shared tolerance.
        let Some(want_snap) = want.get("snap") else {
            bad.push(format!("baseline series `{series}`: missing snap"));
            continue;
        };
        let s = &got.snapshot.snap;
        let exact: [(&str, u64); 2] = [("txns", s.txns), ("reads", s.reads)];
        for (key, got_v) in exact {
            let want_v = want_snap.get(key).and_then(Json::as_u64);
            if want_v != Some(got_v) {
                bad.push(format!(
                    "series `{series}`: snap {key} {got_v} != baseline {want_v:?}"
                ));
            }
        }
        let approx: [(&str, u64); 2] = [("gc_runs", s.gc_runs), ("gc_pruned", s.gc_pruned)];
        for (key, got_v) in approx {
            let Some(want_v) = want_snap.get(key).and_then(Json::as_f64) else {
                bad.push(format!("baseline series `{series}`: snap missing `{key}`"));
                continue;
            };
            if !within(got_v as f64, want_v) {
                bad.push(format!(
                    "series `{series}`: snap {key} {got_v} drifted >{tol_pct}% \
                     from baseline {want_v}"
                ));
            }
        }
    }
    bad
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("strip-report: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("strip-report: running PTA at {:?} scale", args.scale);

    let runs = vec![
        run_variant(args.scale, CompVariant::NonUnique, 0.0, SeriesMode::Plain),
        run_variant(
            args.scale,
            CompVariant::UniqueOnComp,
            args.delay_s,
            SeriesMode::Plain,
        ),
        run_variant(args.scale, CompVariant::NonUnique, 0.0, SeriesMode::Durable),
        run_variant(
            args.scale,
            CompVariant::NonUnique,
            0.0,
            SeriesMode::ReadMostly,
        ),
    ];

    for r in &runs {
        println!("== series `{}` (delay {}s) ==", r.series, r.delay_s);
        println!("recomputations N_r = {}\n", r.recompute_count);
        print!("{}", r.snapshot.render_table());
        println!();
        println!("staleness attribution (critical-path phases):");
        print!("{}", render_attribution(&r.attribution));
        if r.ring_truncated {
            println!("  (trace ring wrapped: attribution covers the surviving tail)");
        }
        println!();
        print!("{}", r.slo.render_table());
        println!();
        print!("{}", r.snapshot.memory.render_table(None));
        if args.series {
            println!();
            print!("{}", render_series(r));
        }
        println!();
    }
    println!(
        "batching effect: N_r {} (non-unique) -> {} (unique on comp, {}s window)",
        runs[0].recompute_count, runs[1].recompute_count, args.delay_s
    );

    let doc = runs_json(args.scale, &runs);
    if let Err(e) = std::fs::write(&args.json_path, &doc) {
        eprintln!("strip-report: writing {}: {e}", args.json_path);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", args.json_path);

    if let Some(path) = &args.write_baseline {
        let bdoc = baseline_json(args.scale, &runs);
        if let Err(e) = std::fs::write(path, &bdoc) {
            eprintln!("strip-report: writing baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote baseline {path}");
    }

    let mut failed = false;
    if args.check {
        let bad = check(&runs, &doc);
        if bad.is_empty() {
            println!("checks passed");
        } else {
            for b in &bad {
                eprintln!("check FAILED: {b}");
            }
            failed = true;
        }
    }
    if let Some(path) = &args.baseline {
        let bad = match std::fs::read_to_string(path) {
            Err(e) => vec![format!("cannot read baseline {path}: {e}")],
            Ok(text) => match json::parse(&text) {
                Err(e) => vec![format!("baseline {path} does not parse: {e}")],
                Ok(doc) => diff_baseline(&runs, &doc, args.tolerance_pct),
            },
        };
        if bad.is_empty() {
            println!(
                "baseline gate passed ({path}, tolerance {}%)",
                args.tolerance_pct
            );
        } else {
            for b in &bad {
                eprintln!("baseline gate FAILED: {b}");
            }
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
