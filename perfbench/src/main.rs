//! Wall-clock STRIP benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pta_feed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Drives the engine only through its public API. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` measures the per-layer metrics
//! (an untraced, an observability-disabled and a traced phase, each a third
//! of `--seconds`) and writes the spans to `perfbench/out/`. End-to-end
//! times are reported at a reference host speed (see `host`). Every run
//! checks the engine's outputs; the last line of standard output is one
//! JSON object, and the exit code is non-zero if any operation or check
//! failed. See `perfbench/README.md` for the workloads and metrics.

mod adhoc;
mod host;
mod pta;
mod spans;
mod stats;
mod sys;

use host::Host;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spans::Tracer;
use stats::{Pct, Series};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use strip_core::{Strip, StripBuilder};
use strip_obs::{MemorySnapshot, ObsSink};
use strip_storage::Value;
use strip_txn::{key_resource, LockManager, LockMode, SimStats, TxnId};

/// Spans written out per traced run; the summary uses every span.
const SPANS_WRITTEN: usize = 200_000;

const WORKLOADS: [&str; 3] = ["pta_feed", "adhoc_mixed", "pool_feed"];

/// Reported by `--trace 0`, on every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Reported by `--trace 1`, on every workload.
const PER_LAYER: [(&str, &str); 25] = [
    ("sql.parse_ns", "ns"),
    ("sql.stmt_ns", "ns"),
    ("sql.plan_cache_hit_ratio", "ratio"),
    ("sql.plan_cache_hits", "count"),
    ("sql.plan_cache_misses", "count"),
    ("core.txn_self_ns", "ns"),
    ("core.read_self_ns", "ns"),
    ("rules.maint_ns_per_quote", "ns"),
    ("rules.maint_ns_per_action", "ns"),
    ("rules.actions_per_quote", "count"),
    ("rules.pending_unique_max", "count"),
    ("rules.fresh_lag_ms", "ms"),
    ("txn.lock_pair_ns", "ns"),
    ("txn.queue_wait_us_mean", "us"),
    ("txn.queue_wait_us_max", "us"),
    ("txn.charged_us_per_quote", "us"),
    ("txn.tasks_per_quote", "count"),
    ("storage.mem_bytes", "bytes"),
    ("storage.version_bytes", "bytes"),
    ("finance.bs_call_ns", "ns"),
    ("obs.overhead_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.self_cover_frac", "ratio"),
    ("bench.loop_self_ns", "ns"),
    ("bench.quotes", "count"),
];

/// What one measured phase of a workload observed.
#[derive(Default)]
pub struct Phase {
    /// Each set-up's time at the reference speed, s: half before the
    /// measured window and half after it.
    pub setup_s: Vec<f64>,
    pub ops: u64,
    pub failed_ops: u64,
    pub failed_checks: u64,
    /// Replay start to the return of the final drain.
    pub wall_ns: u64,
    /// Client-perceived latency per operation at the reference speed, ns.
    pub op_ns: Series,
    /// Call duration of each price-update transaction, ditto.
    pub ingest_ns: Series,
    /// Call duration of each select, ditto.
    pub read_ns: Series,
    /// Operations per second at the reference speed in each segment.
    pub seg_rates: Vec<f64>,
    seg_len_ns: u64,
    seg_end_ns: u64,
    seg_first_op: u64,
    /// The window's clock at the reference speed, ns, without the time
    /// spent timing the host, and its reading when the segment opened.
    clock_ns: f64,
    seg_start_clock_ns: f64,
    /// Raw time of the last tick, plus any time spent timing the host.
    last_ns: u64,
    /// Traced runs: mean self time of a snapshot point read (see
    /// [`read_self_ns`]).
    pub read_self_ns: f64,
    /// Sum of operation call durations, raw and at the reference speed.
    pub service_ns: u64,
    pub scaled_service_ns: u64,
    /// Last commit to the return of the final drain.
    pub fresh_lag_ns: u64,
    pub pending_max: usize,
    /// Rule actions run (`recompute:*` and `delta:*` tasks).
    pub actions: u64,
    pub stats: SimStats,
    pub mem: MemorySnapshot,
}

impl Phase {
    /// A phase whose measured window is cut into segments of `segment_s`
    /// seconds (see `stats`).
    pub fn new(setup_s: Vec<f64>, segment_s: f64) -> Phase {
        let seg_len_ns = (segment_s * 1e9) as u64;
        Phase {
            setup_s,
            seg_len_ns,
            seg_end_ns: seg_len_ns,
            ..Phase::default()
        }
    }

    /// Called between operations with the raw time since the window
    /// opened: advances the clock, closes the current segment once `now_ns`
    /// reaches its end, and times the host when that is due.
    pub fn tick(&mut self, now_ns: u64, host: &mut Host) {
        self.clock_ns += now_ns.saturating_sub(self.last_ns) as f64 * host.scale();
        if now_ns >= self.seg_end_ns {
            let ops = self.ops - self.seg_first_op;
            let secs = (self.clock_ns - self.seg_start_clock_ns) / 1e9;
            self.seg_rates.push(ops as f64 / secs);
            self.close_segments();
            self.seg_start_clock_ns = self.clock_ns;
            self.seg_first_op = self.ops;
            self.seg_end_ns = (now_ns / self.seg_len_ns + 1) * self.seg_len_ns;
        }
        self.last_ns = now_ns + host.poll();
    }

    /// Record one operation's raw call duration; returns it at the
    /// reference speed.
    pub fn service(&mut self, ns: u64, host: &Host) -> u64 {
        let scaled = host.scaled(ns);
        self.service_ns += ns;
        self.scaled_service_ns += scaled;
        scaled
    }

    /// Close the current segment of every latency series.
    fn close_segments(&mut self) {
        self.op_ns.close_segment();
        self.ingest_ns.close_segment();
        self.read_ns.close_segment();
    }

    pub fn record(&mut self, ok: bool) {
        self.ops += 1;
        self.failed_ops += u64::from(!ok);
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            println!("check {name}: ok");
        } else {
            self.failed_checks += 1;
            let d = detail();
            let cut = d.char_indices().nth(400).map_or(d.len(), |(i, _)| i);
            println!("check {name}: FAILED {}", &d[..cut]);
        }
    }

    fn failed(&self) -> u64 {
        self.failed_ops + self.failed_checks
    }

    fn mean_service_ns(&self) -> f64 {
        self.service_ns as f64 / self.ops.max(1) as f64
    }

    fn mean_scaled_service_ns(&self) -> f64 {
        self.scaled_service_ns as f64 / self.ops.max(1) as f64
    }
}

/// Build once untimed to warm up, then `n` times, keeping the last; returns
/// it with each timed build's time in seconds at the reference speed: the
/// raw time scaled by the host timings taken just before and after it.
/// Earlier builds are dropped before the next one starts, outside the timed
/// region.
pub fn setup<T>(n: usize, host: &mut Host, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut kept = Some(build());
    for _ in 0..n {
        drop(kept.take());
        let before = host.measure();
        let t = Instant::now();
        kept = Some(build());
        let secs = t.elapsed().as_secs_f64();
        let after = host.measure();
        times.push(secs * host::REF_NS * 2.0 / (before + after) as f64);
    }
    let ms: Vec<String> = times.iter().map(|t| format!("{:.2}", t * 1e3)).collect();
    println!("set-up times at the reference speed, ms: {}", ms.join(" "));
    (kept.expect("build ran"), times)
}

fn run_phase(
    workload: &str,
    seed: u64,
    seconds: f64,
    obs: bool,
    tr: &Tracer,
    host: &mut Host,
) -> Phase {
    let builder = move || -> StripBuilder {
        if obs {
            Strip::builder()
        } else {
            Strip::builder().observability(ObsSink::disabled())
        }
    };
    match workload {
        "pta_feed" => pta::feed(seed, seconds, &builder, tr, host),
        "adhoc_mixed" => adhoc::run(seed, seconds, &builder, tr, host),
        "pool_feed" => pta::pool_feed(seed, seconds, &builder, tr, host),
        _ => unreachable!("workload validated"),
    }
}

/// Metric values in the order they were measured.
#[derive(Default)]
struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    /// A percentile the sample could not support.
    unsupported: bool,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        println!("metric {name} = {value} {unit}{note}");
        self.values.push((name.to_string(), value, unit));
    }

    /// A latency percentile, printed with its sample count. `want` is the
    /// label the metric's name promises.
    fn pct(&mut self, name: &str, want: &str, p: Option<Pct>) {
        match p {
            Some(p) if p.label == want => {
                let how = match p.segments {
                    1 => format!(" ({}, n={})", p.label, p.n),
                    k if p.label == "p50" => format!(" (median of {k} segment p50s, n={})", p.n),
                    k => format!(" (lower quartile of {k} segment {}s, n={})", p.label, p.n),
                };
                self.put(name, p.value / 1e3, "us", &how)
            }
            other => {
                let n = other.map_or(0, |p| p.n);
                println!("metric {name}: sample of {n} cannot support {want}");
                self.unsupported = true;
            }
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, ..)| n == name).map(|v| v.1)
    }
}

/// Median and tail latency of one operation class, with sample counts
/// and each segment's value.
fn print_pcts(m: &mut Metrics, prefix: &str, s: &Series) {
    m.pct(&format!("{prefix}_p50_us"), "p50", s.p50());
    m.pct(&format!("{prefix}_p99_us"), "p99", s.p99());
    let (p50s, p99s) = s.segment_values();
    let us = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.3}", x / 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("segments {prefix}_p50_us: {}", us(p50s));
    println!("segments {prefix}_p99_us: {}", us(p99s));
}

fn end_to_end(workload: &str, ph: &Phase, host: &Host, base_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    let ms: Vec<f64> = host.times.iter().map(|&t| t as f64 / 1e6).collect();
    println!(
        "host: reference work took {:.3} ms (median of {}; min {:.3}, max {:.3})",
        stats::median_f64(&ms),
        ms.len(),
        ms.iter().copied().fold(f64::INFINITY, f64::min),
        ms.iter().copied().fold(0.0, f64::max)
    );
    let wall_s = ph.wall_ns as f64 / 1e9;
    m.put(
        "setup_s",
        stats::median_f64(&ph.setup_s),
        "s",
        &format!(" (median of {} set-ups)", ph.setup_s.len()),
    );
    m.put(
        "ops_per_s",
        stats::median_f64(&ph.seg_rates),
        "1/s",
        &format!(
            " (median of {} segments; {} ops in {wall_s:.3} s)",
            ph.seg_rates.len(),
            ph.ops
        ),
    );
    let rates: Vec<String> = ph.seg_rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("segments ops_per_s: {}", rates.join(" "));
    print_pcts(&mut m, "op", &ph.op_ns);
    print_pcts(&mut m, "ingest", &ph.ingest_ns);
    m.put(
        "peak_rss_mb",
        sys::peak_rss_mb() - base_rss_mb,
        "MB",
        &format!(" (VmHWM less {base_rss_mb:.1} MB resident before the first set-up)"),
    );
    // Workload-specific views, printed for readers of the log.
    println!("-- {workload} detail");
    match workload {
        "adhoc_mixed" => {
            print_pcts(&mut m, "select", &ph.read_ns);
            print_pcts(&mut m, "update", &ph.ingest_ns);
        }
        _ => {
            m.put("quotes_per_s", ph.ops as f64 / wall_s, "1/s", "");
            m.put("fresh_lag_ms", ph.fresh_lag_ns as f64 / 1e6, "ms", "");
        }
    }
    m.put(
        "fail_frac",
        ph.failed() as f64 / ph.ops.max(1) as f64,
        "ratio",
        "",
    );
    m
}

/// Snapshot point reads timed after a traced run, so every workload
/// reports the read path on its own database.
const READ_PROBES: usize = 2_000;

/// Mean self time of a snapshot point read: `read_txn_named`'s span minus
/// the span of the `Txn::query` inside it, over keys spread across
/// `symbols`.
pub fn read_self_ns(db: &Strip, symbols: &[Arc<str>]) -> f64 {
    let tr = Tracer::new(true);
    for i in 0..READ_PROBES {
        let key = [Value::Str(symbols[i * 7919 % symbols.len()].clone())];
        let r = tr.span("core.read", || {
            db.read_txn_named("read-probe", |t| {
                tr.span("sql.stmt", || t.query(adhoc::SELECT_SQL, &key))
            })
        });
        black_box(r.is_ok());
    }
    tr.self_times()
        .get("core.read")
        .map_or(0.0, spans::SelfTime::mean_ns)
}

/// The workload's statement texts, for timing the parser alone.
fn statement_texts(workload: &str) -> Vec<String> {
    match workload {
        "adhoc_mixed" => vec![
            adhoc::SELECT_SQL.to_string(),
            adhoc::SELECT_SQL.to_string(),
            adhoc::SELECT_SQL.to_string(),
            adhoc::UPDATE_SQL.to_string(),
            adhoc::literal_select("S00042"),
        ],
        _ => vec![pta::UPDATE_SQL.to_string()],
    }
}

fn time_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

fn parse_ns(workload: &str) -> f64 {
    let texts = statement_texts(workload);
    time_per_call(50_000, |i| {
        let s = strip_sql::parse_statement(black_box(&texts[i as usize % texts.len()]));
        black_box(s.is_ok());
    })
}

/// `lock` plus `release_all` of one `stocks#symbol=key` resource, with
/// keys from the seed's symbol set.
fn lock_pair_ns(seed: u64) -> f64 {
    let keys = adhoc::inputs(seed).symbols;
    let lm = LockManager::new();
    time_per_call(200_000, |i| {
        let key = &keys[(i as usize * 7919) % keys.len()];
        let txn = TxnId(i + 1);
        let r = lm.lock(
            txn,
            &key_resource("stocks", "symbol", key),
            LockMode::Exclusive,
        );
        black_box(r.is_ok());
        lm.release_all(txn);
    })
}

/// Mean queue wait per task over every kind, and the highest per-kind
/// mean, µs.
fn queue_wait_us(stats: &SimStats) -> (f64, f64) {
    let kinds = stats.by_kind.values();
    let (queue_us, tasks) = kinds
        .clone()
        .fold((0, 0), |(q, n), k| (q + k.queue_us, n + k.count));
    let max = kinds
        .map(|k| k.queue_us as f64 / k.count.max(1) as f64)
        .fold(0.0, f64::max);
    (queue_us as f64 / tasks.max(1) as f64, max)
}

/// Price updates in the pool probe's burst.
const PROBE_TXNS: usize = 2_000;

/// Executor statistics of a burst of keyed price updates submitted at once
/// to a 1-worker pool holding the seed's `stocks` table; `None` if any
/// update failed.
fn pool_probe(seed: u64) -> Option<SimStats> {
    let inp = adhoc::inputs(seed);
    let db = adhoc::load(Strip::builder().pool(1), &inp);
    for i in 0..PROBE_TXNS {
        let params = [
            Value::from(1.0 + i as f64),
            Value::Str(inp.symbols[i * 7919 % inp.symbols.len()].clone()),
        ];
        db.submit_txn("probe", 0, move |t| {
            t.exec(adhoc::UPDATE_SQL, &params).map(drop)
        });
    }
    db.drain();
    let errors = db.take_errors();
    if !errors.is_empty() {
        println!("pool probe: {} failed, first {}", errors.len(), errors[0]);
        return None;
    }
    Some(db.stats())
}

/// `bs_call_default` over option inputs drawn as the PTA draws them.
fn bs_call_ns(seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<[f64; 4]> = (0..4096)
        .map(|_| {
            let p = rng.gen_range(5.0..120.0);
            [
                p,
                p * rng.gen_range(0.8..1.2),
                rng.gen_range(0.05..0.75),
                rng.gen_range(0.15..0.6),
            ]
        })
        .collect();
    time_per_call(400_000, |i| {
        let [p, k, t, s] = inputs[i as usize % inputs.len()];
        black_box(strip_finance::bs_call_default(
            black_box(p),
            black_box(k),
            black_box(t),
            black_box(s),
        ));
    })
}

fn per_layer(workload: &str, seed: u64, seconds: f64) -> (Metrics, Vec<Phase>) {
    let third = seconds / 3.0;
    let host = &mut Host::new();
    println!("-- phase: untraced");
    let base = run_phase(workload, seed, third, true, &Tracer::new(false), host);
    println!("-- phase: observability disabled");
    let no_obs = run_phase(workload, seed, third, false, &Tracer::new(false), host);
    println!("-- phase: traced");
    let tr = Tracer::new(true);
    let traced = run_phase(workload, seed, third, true, &tr, host);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.tsv"));
    match tr.write_tsv(&path, SPANS_WRITTEN) {
        Ok((wrote, all)) => println!("{wrote} of {all} spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    let st = tr.self_times();
    for (name, s) in &st {
        println!(
            "self {name}: {} spans, {:.0} ns mean self time",
            s.spans,
            s.mean_ns()
        );
    }
    let layer = |name: &str| st.get(name).copied().unwrap_or_default();

    let mut m = Metrics::default();
    let quotes = traced.ops.max(1) as f64;
    m.put("sql.parse_ns", parse_ns(workload), "ns", "");
    m.put("sql.stmt_ns", layer("sql.stmt").mean_ns(), "ns", "");
    let (hits, misses) = (traced.stats.plan_cache_hits, traced.stats.plan_cache_misses);
    m.put(
        "sql.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        "",
    );
    m.put("sql.plan_cache_hits", hits as f64, "count", "");
    m.put("sql.plan_cache_misses", misses as f64, "count", "");
    m.put("core.txn_self_ns", layer("core.txn").mean_ns(), "ns", "");
    m.put(
        "core.read_self_ns",
        traced.read_self_ns,
        "ns",
        " (read probe)",
    );
    let maint = (layer("rules.advance").self_ns + layer("rules.drain").self_ns) as f64;
    m.put("rules.maint_ns_per_quote", maint / quotes, "ns", "");
    m.put(
        "rules.maint_ns_per_action",
        maint / traced.actions.max(1) as f64,
        "ns",
        "",
    );
    m.put(
        "rules.actions_per_quote",
        traced.actions as f64 / quotes,
        "count",
        "",
    );
    m.put(
        "rules.pending_unique_max",
        traced.pending_max as f64,
        "count",
        "",
    );
    m.put(
        "rules.fresh_lag_ms",
        base.fresh_lag_ns as f64 / 1e6,
        "ms",
        " (untraced phase)",
    );
    m.put("txn.lock_pair_ns", lock_pair_ns(seed), "ns", "");
    // The simulator's tasks wait in virtual time only, so the simulator
    // workloads take the pool's queue wait from a probe.
    let (queue_mean, queue_max, how) = if workload == "pool_feed" {
        let (mean, max) = queue_wait_us(&traced.stats);
        (mean, max, "")
    } else {
        let (mean, max) = pool_probe(seed).map_or((f64::NAN, f64::NAN), |s| queue_wait_us(&s));
        (mean, max, " (pool probe)")
    };
    m.put("txn.queue_wait_us_mean", queue_mean, "us", how);
    m.put("txn.queue_wait_us_max", queue_max, "us", how);
    m.put(
        "txn.charged_us_per_quote",
        traced.stats.busy_us as f64 / quotes,
        "us",
        "",
    );
    m.put(
        "txn.tasks_per_quote",
        traced.stats.tasks_run as f64 / quotes,
        "count",
        "",
    );
    m.put(
        "storage.mem_bytes",
        traced.mem.total_bytes as f64,
        "bytes",
        "",
    );
    let versions: u64 = traced.mem.tables.iter().map(|t| t.version_bytes).sum();
    m.put("storage.version_bytes", versions as f64, "bytes", "");
    m.put("finance.bs_call_ns", bs_call_ns(seed), "ns", "");
    // The phases run one after another, so they are compared at the
    // reference speed.
    let (b, o, t) = (
        base.mean_scaled_service_ns(),
        no_obs.mean_scaled_service_ns(),
        traced.mean_scaled_service_ns(),
    );
    println!(
        "mean op call at the reference speed: untraced {b:.0} ns, obs disabled {o:.0} ns, traced {t:.0} ns"
    );
    m.put("obs.overhead_frac", b / o - 1.0, "ratio", "");
    m.put("bench.trace_overhead_frac", t / b - 1.0, "ratio", "");
    // Span self times are raw, so they are set against the raw call time.
    let b = base.mean_service_ns();
    // Self times partition each operation's root span, so their sum per
    // operation over the untraced call time is 1 + tracing overhead.
    let root = if workload == "adhoc_mixed" {
        "bench.op"
    } else {
        "bench.quote"
    };
    let covered: u64 = st
        .iter()
        .filter(|(name, _)| **name != "rules.drain")
        .map(|(_, s)| s.self_ns)
        .sum();
    m.put(
        "bench.self_cover_frac",
        covered as f64 / quotes / b,
        "ratio",
        "",
    );
    m.put("bench.loop_self_ns", layer(root).mean_ns(), "ns", "");
    m.put("bench.quotes", quotes, "count", " (traced phase)");
    (m, vec![base, no_obs, traced])
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).filter(|v| v.is_finite());
            let v = v.map_or_else(|| "null".to_string(), |v| v.to_string());
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== {} seed={} seconds={} trace={} nproc={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (m, phases, names): (Metrics, Vec<Phase>, &[(&str, &str)]) = if a.trace {
        let (m, phases) = per_layer(&a.workload, a.seed, a.seconds);
        (m, phases, &PER_LAYER)
    } else {
        let mut host = Host::new();
        let base_rss_mb = sys::rss_mb();
        let ph = run_phase(
            &a.workload,
            a.seed,
            a.seconds,
            true,
            &Tracer::new(false),
            &mut host,
        );
        (
            end_to_end(&a.workload, &ph, &host, base_rss_mb),
            vec![ph],
            &END_TO_END,
        )
    };
    let attempted: u64 = phases.iter().map(|p| p.ops).sum();
    let failed: u64 = phases.iter().map(Phase::failed).sum();
    let complete = names
        .iter()
        .all(|(n, _)| m.get(n).is_some_and(f64::is_finite));
    let correct = failed == 0 && !m.unsupported && complete;
    println!(
        "{}",
        json_line(correct, attempted.max(1), failed, &m, names)
    );
    if !correct {
        std::process::exit(1);
    }
}
