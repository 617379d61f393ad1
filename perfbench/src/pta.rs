//! The program-trading workloads and the output checks they share.
//!
//! * `pta_feed`: simulator mode, one client replaying the quote trace in a
//!   closed loop — `advance_to` the quote's time (running due maintenance),
//!   then one `update` transaction.
//! * `pool_feed`: the same client on the wall-clock pool with one worker,
//!   which runs the rule actions beside the feed; the client only updates.
//!
//! Both install the paper's recommended rules: `unique on comp` for
//! composites and `unique on stock_symbol` for options.

use crate::host::Host;
use crate::spans::Tracer;
use crate::sys::ns_since;
use crate::{setup, Phase};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use strip_core::{Result, StripBuilder, Txn};
use strip_finance::{bs_call_default, CompVariant, OptionVariant, Pta, PtaConfig, Quote};
use strip_sql::{parse_statement, Statement};
use strip_storage::Value;

pub const UPDATE_SQL: &str = "update stocks set price = ? where symbol = ?";

/// The rules' `after` window in trace time, seconds.
const AFTER_S: f64 = 1.0;

/// Length of a segment of the run, s: long enough for a p99 of its own
/// at about 2,000 quotes/s.
const SEGMENT_S: f64 = 2.0;

/// Set-ups before and again after the measured window: each builds the
/// whole PTA.
const SETUPS: usize = 3;

const COMP_FN: &str = "compute_comps3";
const OPT_FN: &str = "compute_options_by_stock";

/// Paper-sized PTA (6,600 stocks, 80k `comps_list`, 50k options) whose
/// trace and table population both come from `seed`.
pub fn config(seed: u64) -> PtaConfig {
    let mut cfg = PtaConfig::paper();
    cfg.seed = seed;
    cfg.trace.seed = seed;
    cfg
}

/// Build the PTA and install both rules.
fn build(seed: u64, builder: StripBuilder) -> Pta {
    let pta = Pta::build(config(seed), builder.build()).expect("PTA builds");
    pta.install_comp_rule(CompVariant::UniqueOnComp, AFTER_S)
        .expect("composite rule installs");
    pta.install_option_rule(OptionVariant::UniqueOnStock, AFTER_S)
        .expect("option rule installs");
    pta
}

/// The `i`-th quote of the trace replayed end to end as often as needed,
/// with its time in µs; each pass starts one second after the last ends.
fn quote(pta: &Pta, i: usize) -> (&Quote, u64) {
    let n = pta.trace.len();
    let pass = (i / n) as u64;
    let q = &pta.trace.quotes[i % n];
    (q, pass * (pta.trace.duration_us + 1_000_000) + q.time_us)
}

fn prepared(sql: &str) -> Arc<Statement> {
    Arc::new(parse_statement(sql).expect("benchmark SQL parses"))
}

fn update(tr: &Tracer, t: &mut Txn<'_>, upd: &Statement, params: &[Value]) -> Result<usize> {
    tr.span("sql.stmt", || t.exec_ast(upd, params))
}

fn pending(pta: &Pta) -> usize {
    pta.db.pending_unique(COMP_FN) + pta.db.pending_unique(OPT_FN)
}

pub fn feed(
    seed: u64,
    seconds: f64,
    builder: &dyn Fn() -> StripBuilder,
    tr: &Tracer,
    host: &mut Host,
) -> Phase {
    let (pta, setup_s) = setup(SETUPS, host, || build(seed, builder()));
    let mut ph = replay(&pta, setup_s, seconds, tr, host, true);
    drop(pta);
    ph.setup_s
        .extend(setup(SETUPS, host, || build(seed, builder())).1);
    ph
}

pub fn pool_feed(
    seed: u64,
    seconds: f64,
    builder: &dyn Fn() -> StripBuilder,
    tr: &Tracer,
    host: &mut Host,
) -> Phase {
    let (pta, setup_s) = setup(SETUPS, host, || build(seed, builder().pool(1)));
    let mut ph = replay(&pta, setup_s, seconds, tr, host, false);
    drop(pta);
    ph.setup_s
        .extend(setup(SETUPS, host, || build(seed, builder().pool(1))).1);
    ph
}

/// One client replays the trace in a closed loop for `seconds`, then
/// drains. With `advance`, each quote first advances the simulator to the
/// quote's time; on the pool the actions run on the worker instead.
fn replay(
    pta: &Pta,
    setup_s: Vec<f64>,
    seconds: f64,
    tr: &Tracer,
    host: &mut Host,
    advance: bool,
) -> Phase {
    let db = &pta.db;
    let upd = prepared(UPDATE_SQL);
    let mut ph = Phase::new(setup_s, SEGMENT_S);
    let mut last: Vec<Option<f64>> = vec![None; pta.symbols.len()];
    let stop = (seconds * 1e9) as u64;
    let t0 = Instant::now();
    let mut i = 0;
    while ns_since(t0) < stop {
        let (q, at) = quote(pta, i);
        let params = [
            q.price.into(),
            Value::Str(pta.symbols[q.symbol as usize].clone()),
        ];
        tr.set_trace(i as u64);
        let s0 = Instant::now();
        let (ok, ingest) = tr.span("bench.quote", || {
            if advance {
                tr.span("rules.advance", || db.advance_to(at));
            }
            let s1 = Instant::now();
            let r = tr.span("core.txn", || {
                db.txn_named("update", |t| update(tr, t, &upd, &params))
            });
            (matches!(r, Ok(1)), ns_since(s1))
        });
        let op = ph.service(ns_since(s0), host);
        ph.op_ns.record(op);
        ph.ingest_ns.record(host.scaled(ingest));
        ph.record(ok);
        if ok {
            last[q.symbol as usize] = Some(q.price);
        }
        if tr.is_on() {
            ph.pending_max = ph.pending_max.max(pending(pta));
        }
        ph.tick(ns_since(t0), host);
        i += 1;
    }
    let d0 = Instant::now();
    tr.span("rules.drain", || db.drain());
    ph.fresh_lag_ns = ns_since(d0);
    ph.wall_ns = ns_since(t0);
    finish(pta, &last, &mut ph, tr.is_on());
    ph
}

/// Collect statistics after the drain and check every derived value.
fn finish(pta: &Pta, last: &[Option<f64>], ph: &mut Phase, tracing: bool) {
    let db = &pta.db;
    ph.stats = db.stats();
    ph.mem = db.memory_snapshot();
    ph.actions = ph.stats.count_with_prefix("recompute:") + ph.stats.count_with_prefix("delta:");
    if tracing {
        ph.read_self_ns = crate::read_self_ns(db, &pta.symbols);
    }

    let errors = db.take_errors();
    ph.check("no_task_errors", errors.is_empty(), || {
        format!("{errors:?}")
    });
    ph.check("no_locks_held", db.locks_held() == 0, || {
        format!("{} held", db.locks_held())
    });
    ph.check("no_snapshots_pinned", db.active_snapshots() == 0, || {
        format!("{} pinned", db.active_snapshots())
    });
    match check_tables(pta, last) {
        Ok(results) => {
            for (name, bad) in results {
                ph.check(name, bad.is_empty(), || bad.join("; "));
            }
        }
        Err(e) => ph.check("tables_readable", false, || e.to_string()),
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs().max(1.0)
}

/// Named checks with up to a few mismatch descriptions each.
type CheckResults = Vec<(&'static str, Vec<String>)>;

fn check_tables(pta: &Pta, last: &[Option<f64>]) -> Result<CheckResults> {
    let db = &pta.db;
    let mut out = Vec::new();
    let ids: HashMap<&str, usize> = pta
        .symbols
        .iter()
        .enumerate()
        .map(|(i, s)| (&**s, i))
        .collect();

    // comp_prices equals a from-scratch recomputation.
    let scratch = pta.comp_prices_from_scratch()?;
    let mat = pta.comp_prices_materialized()?;
    let mut bad = Vec::new();
    if scratch.len() != mat.len() {
        bad.push(format!(
            "{} composites, {} recomputed",
            mat.len(),
            scratch.len()
        ));
    }
    for ((c, want), (c2, got)) in scratch.iter().zip(&mat) {
        if c != c2 || !close(*got, *want, 1e-6) {
            bad.push(format!("{c2}={got} want {c}={want}"));
        }
    }
    out.push(("comp_prices_fresh", bad));

    // Every traded stock holds its last quoted price.
    let rs = db.query("select symbol, price from stocks")?;
    let mut price = vec![f64::NAN; pta.symbols.len()];
    for i in 0..rs.len() {
        let sym = rs.value(i, "symbol")?.to_string();
        if let Some(&id) = ids.get(sym.as_str()) {
            price[id] = rs.value(i, "price")?.as_f64().unwrap_or(f64::NAN);
        }
    }
    let bad = last
        .iter()
        .enumerate()
        .filter_map(|(id, want)| want.map(|w| (id, w)))
        .filter(|&(id, w)| price[id] != w)
        .map(|(id, w)| format!("{}={} want {w}", pta.symbols[id], price[id]))
        .collect();
    out.push(("stock_prices_final", bad));

    // Every option on a traded stock is priced at that stock's final price.
    let sd = db.query("select symbol, stdev from stock_stdev")?;
    let mut stdev = vec![f64::NAN; pta.symbols.len()];
    for i in 0..sd.len() {
        if let Some(&id) = ids.get(sd.value(i, "symbol")?.to_string().as_str()) {
            stdev[id] = sd.value(i, "stdev")?.as_f64().unwrap_or(f64::NAN);
        }
    }
    let op = db.query("select option_symbol, price from option_prices")?;
    let mut opt_price: HashMap<String, f64> = HashMap::with_capacity(op.len());
    for i in 0..op.len() {
        opt_price.insert(
            op.value(i, "option_symbol")?.to_string(),
            op.value(i, "price")?.as_f64().unwrap_or(f64::NAN),
        );
    }
    let ol =
        db.query("select option_symbol, stock_symbol, strike, expiration from options_list")?;
    let mut bad = Vec::new();
    for i in 0..ol.len() {
        let stock = ol.value(i, "stock_symbol")?.to_string();
        let Some(&id) = ids.get(stock.as_str()) else {
            bad.push(format!("unknown stock {stock}"));
            continue;
        };
        let Some(p) = last[id] else { continue };
        let osym = ol.value(i, "option_symbol")?.to_string();
        let want = bs_call_default(
            p,
            ol.value(i, "strike")?.as_f64().unwrap_or(f64::NAN),
            ol.value(i, "expiration")?.as_f64().unwrap_or(f64::NAN),
            stdev[id],
        );
        match opt_price.get(&osym) {
            Some(&got) if close(got, want, 1e-9) => {}
            got => bad.push(format!("{osym}={got:?} want {want}")),
        }
    }
    out.push(("option_prices_fresh", bad));
    Ok(out)
}
