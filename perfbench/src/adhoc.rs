//! `adhoc_mixed`: ad-hoc SQL by text on the PTA's `stocks` table, with no
//! rules installed. One client runs a closed loop of about three snapshot
//! point selects per keyed price update; keys follow the quote trace's
//! activity skew. A small share of selects inline their key as a literal,
//! so the text-keyed plan cache plans them on first sight and grows.

use crate::host::Host;
use crate::spans::Tracer;
use crate::sys::Weighted;
use crate::{setup, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use strip_core::{Error, Result, Strip, StripBuilder};
use strip_finance::trace::to_eighths;
use strip_finance::{generate, TraceConfig};
use strip_sql::exec::ResultSet;
use strip_storage::Value;

pub const SELECT_SQL: &str = "select price from stocks where symbol = ?";
pub const UPDATE_SQL: &str = crate::pta::UPDATE_SQL;

/// Share of operations that are price updates (about 3 selects each).
const UPDATE_SHARE: f64 = 0.25;

/// Share of selects that inline their key as a literal.
pub const LITERAL_SHARE: f64 = 0.02;

/// Length of a segment of the run, s. Operations are short and many, so
/// each segment still holds tens of thousands of updates, enough for a p99
/// of its own, and a run has about 30 segments to combine.
const SEGMENT_S: f64 = 1.0;

/// Set-ups before and again after the measured window: loading one table
/// takes about 35 ms, so take enough of them that their median outlasts a
/// short slow spell of the host.
const SETUPS: usize = 24;

/// The seed's symbols, initial prices and key distribution.
pub struct Inputs {
    pub symbols: Vec<Arc<str>>,
    initial: Vec<f64>,
    keys: Weighted,
}

pub fn inputs(seed: u64) -> Inputs {
    let trace = generate(&TraceConfig {
        seed,
        ..TraceConfig::default()
    });
    Inputs {
        symbols: (0..trace.initial_prices.len())
            .map(|i| Arc::from(format!("S{i:05}")))
            .collect(),
        keys: Weighted::new(&trace.activity),
        initial: trace.initial_prices,
    }
}

pub fn literal_select(symbol: &str) -> String {
    format!("select price from stocks where symbol = '{symbol}'")
}

pub fn load(builder: StripBuilder, inp: &Inputs) -> Strip {
    let db = builder.build();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create index ix_stocks_symbol on stocks (symbol);",
    )
    .expect("stocks table creates");
    for (sym, p) in inp.symbols.iter().zip(&inp.initial) {
        db.execute_with(
            "insert into stocks values (?, ?)",
            &[Value::Str(sym.clone()), (*p).into()],
        )
        .expect("stock row loads");
    }
    db
}

fn one_price(rows: &ResultSet) -> Option<f64> {
    (rows.len() == 1)
        .then(|| rows.value(0, "price").ok()?.as_f64())
        .flatten()
}

/// Untraced runs go through `Strip::execute_with`; traced runs issue the
/// same statement texts through `read_txn_named` / `txn_named` so the
/// statement span can be told apart from the transaction around it.
fn select(db: &Strip, tr: &Tracer, text: &str, params: &[Value]) -> Result<ResultSet> {
    if tr.is_on() {
        tr.span("core.read", || {
            db.read_txn_named("adhoc-query", |t| {
                tr.span("sql.stmt", || t.query(text, params))
            })
        })
    } else {
        db.execute_with(text, params)?
            .rows()
            .ok_or_else(|| Error::Other("select returned no rows".into()))
    }
}

fn update(db: &Strip, tr: &Tracer, params: &[Value]) -> Result<usize> {
    if tr.is_on() {
        tr.span("core.txn", || {
            db.txn_named("adhoc-dml", |t| {
                tr.span("sql.stmt", || t.exec(UPDATE_SQL, params))
            })
        })
    } else {
        Ok(db.execute_with(UPDATE_SQL, params)?.count().unwrap_or(0))
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    builder: &dyn Fn() -> StripBuilder,
    tr: &Tracer,
    host: &mut Host,
) -> Phase {
    let inp = inputs(seed);
    let (db, setup_s) = setup(SETUPS, host, || load(builder(), &inp));
    let mut ph = Phase::new(setup_s, SEGMENT_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut price = inp.initial.clone();
    let stop = (seconds * 1e9) as u64;
    let t0 = Instant::now();
    let mut i = 0u64;
    while crate::sys::ns_since(t0) < stop {
        let k = inp.keys.sample(&mut rng);
        let sym = Value::Str(inp.symbols[k].clone());
        let x: f64 = rng.gen();
        tr.set_trace(i);
        i += 1;
        if x < UPDATE_SHARE {
            let tick = if rng.gen_bool(0.5) { -0.125 } else { 0.125 };
            let new = to_eighths(price[k] + tick);
            let params = [new.into(), sym];
            let s0 = Instant::now();
            let r = tr.span("bench.op", || update(&db, tr, &params));
            let ns = ph.service(crate::sys::ns_since(s0), host);
            ph.op_ns.record(ns);
            ph.ingest_ns.record(ns);
            let ok = matches!(r, Ok(1));
            if ok {
                price[k] = new;
            }
            ph.record(ok);
        } else {
            let literal = x < UPDATE_SHARE + (1.0 - UPDATE_SHARE) * LITERAL_SHARE;
            let (text, params): (Cow<str>, Vec<Value>) = if literal {
                (literal_select(&inp.symbols[k]).into(), Vec::new())
            } else {
                (SELECT_SQL.into(), vec![sym])
            };
            let s0 = Instant::now();
            let r = tr.span("bench.op", || select(&db, tr, &text, &params));
            let ns = ph.service(crate::sys::ns_since(s0), host);
            ph.op_ns.record(ns);
            ph.read_ns.record(ns);
            ph.record(r.ok().as_ref().and_then(one_price) == Some(price[k]));
        }
        ph.tick(crate::sys::ns_since(t0), host);
    }
    let d0 = Instant::now();
    tr.span("rules.drain", || db.drain());
    ph.fresh_lag_ns = crate::sys::ns_since(d0);
    ph.wall_ns = crate::sys::ns_since(t0);

    ph.stats = db.stats();
    ph.mem = db.memory_snapshot();
    if tr.is_on() {
        ph.read_self_ns = crate::read_self_ns(&db, &inp.symbols);
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
    let bad: Vec<String> = match db.query("select symbol, price from stocks") {
        Ok(rs) if rs.len() == inp.symbols.len() => (0..rs.len())
            .filter_map(|r| {
                let sym = rs.value(r, "symbol").ok()?.to_string();
                let got = rs.value(r, "price").ok()?.as_f64();
                let id: usize = sym.strip_prefix('S')?.parse().ok()?;
                (got != Some(price[id])).then(|| format!("{sym}={got:?} want {}", price[id]))
            })
            .collect(),
        Ok(rs) => vec![format!("{} rows, want {}", rs.len(), inp.symbols.len())],
        Err(e) => vec![e.to_string()],
    };
    ph.check("stocks_match_shadow", bad.is_empty(), || bad.join("; "));
    drop(db);
    ph.setup_s
        .extend(setup(SETUPS, host, || load(builder(), &inp)).1);
    ph
}
