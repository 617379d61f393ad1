//! Scenario driver: builds a derived-data market database, runs a seeded
//! feed workload under a fault plan, and checks every oracle at quiescent
//! points, after crashes, and after recovery.
//!
//! The market mirrors the paper's Figure 4: `stocks` (underlying prices),
//! `comps_list` (composite → weighted underlyings), `comp_prices` (derived
//! index prices maintained by a `unique on comp` rule). All prices and
//! weights live on a 1/16 grid so floating-point sums are exact and every
//! interleaving of the same committed updates produces bit-identical state.

use crate::oracle;
use crate::plan::{FaultKind, FaultPlan, PlanInjector};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use strip_core::{DeltaSpec, MaintenanceMode, Strip, Txn};
use strip_storage::Value;
use strip_txn::Policy;

/// Deliberate bugs the harness must prove it can catch (self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// No bug: the real system.
    None,
    /// The maintenance rule is created *without* its `unique on comp`
    /// clause, so firings are never deduplicated/batched.
    NoUniqueDedup,
    /// The WAL "loses" the final commit record before recovery — the moral
    /// equivalent of acknowledging a commit without fsyncing it.
    DropCommitMarker,
    /// The delta apply "forgets" the `old` subtraction (`Σ w·new` instead of
    /// `Σ w·(new − old)`), the classic incremental-maintenance bug. Only
    /// meaningful under [`MaintenanceMode::Delta`]; the independent
    /// from-scratch derived-prices oracle must flag the corrupted sums.
    DeltaDropOldSubtraction,
}

/// Everything that parameterizes one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed: drives both the fault plan and the workload.
    pub seed: u64,
    /// Number of underlying stocks.
    pub stocks: usize,
    /// Number of composites (each holds 2–3 stocks).
    pub composites: usize,
    /// Number of feed price updates submitted.
    pub updates: usize,
    /// The rule's `after` batch window, seconds.
    pub batch_window_s: f64,
    /// Fault kinds the generated plan may draw from.
    pub allowed: Vec<FaultKind>,
    /// Deliberate bug to plant (self-test of the harness).
    pub mutant: Mutant,
    /// `Some(k)` runs the executor under `Policy::Seeded(k)` (interleaving
    /// exploration); `None` uses FIFO.
    pub policy_seed: Option<u64>,
    /// Executor width: `1` (default) runs the deterministic virtual-time
    /// simulator; `> 1` runs the wall-clock worker pool with that many
    /// threads, so feed transactions and rule actions genuinely race and
    /// key-granular locking is exercised under faults.
    pub workers: usize,
    /// How the maintenance rule keeps `comp_prices` fresh: `Recompute`
    /// (default, from-scratch per firing) or `Delta` (in-place
    /// `Δ = Σ w·(new − old)` applies with rebase checkpoints). The market's
    /// dyadic grid makes either path float-exact, so every oracle applies
    /// unchanged to both.
    pub maintenance: MaintenanceMode,
    /// Run lock-free snapshot-read probes throughout the workload and gate
    /// them with the snapshot-consistency oracle: every probe must observe
    /// a stable, lock-free, timestamp-consistent view of `stocks`, and the
    /// quiescent snapshot view must equal the locked view exactly.
    pub snapshot_readers: bool,
}

impl ScenarioConfig {
    /// The default battery scenario for a seed: a small market, a burst of
    /// updates, all five fault kinds allowed.
    pub fn for_seed(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            stocks: 6,
            composites: 3,
            updates: 36,
            batch_window_s: 0.5,
            allowed: FaultKind::ALL.to_vec(),
            mutant: Mutant::None,
            policy_seed: None,
            workers: 1,
            maintenance: MaintenanceMode::Recompute,
            snapshot_readers: false,
        }
    }

    /// The battery scenario with snapshot-reader probes: the same market,
    /// workload, and fault plan, plus continuous read-only snapshot
    /// transactions gated by the snapshot-consistency oracle. The allowed
    /// fault set already includes [`FaultKind::PublishCrash`], so crashes
    /// land in the window between commit-stamp and version-publish.
    pub fn snapshot(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            snapshot_readers: true,
            ..ScenarioConfig::for_seed(seed)
        }
    }

    /// The battery scenario under delta maintenance: the same market,
    /// workload, and fault plan as [`ScenarioConfig::for_seed`], but the
    /// `unique on comp` rule applies weighted deltas in place (with a tight
    /// checkpoint interval so rebases also run under faults) instead of
    /// recomputing composites from scratch.
    pub fn delta(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            maintenance: MaintenanceMode::Delta,
            ..ScenarioConfig::for_seed(seed)
        }
    }

    /// The battery scenario on the wall-clock pool: real threads, real
    /// lock contention, compressed feed timings (wall time is precious).
    pub fn parallel(seed: u64, workers: usize) -> ScenarioConfig {
        ScenarioConfig {
            workers,
            ..ScenarioConfig::for_seed(seed)
        }
    }

    /// The same scenario with no faults at all (baselines, mutants).
    pub fn fault_free(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            allowed: Vec::new(),
            ..ScenarioConfig::for_seed(seed)
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The master seed.
    pub seed: u64,
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Faults that actually fired, in order.
    pub fired: Vec<String>,
    /// Oracle violations (empty = the run upheld every invariant).
    pub violations: Vec<String>,
    /// True if an injected crash killed the database.
    pub crashed: bool,
    /// Times the maintenance function ran.
    pub recompute_runs: u64,
    /// Snapshot-reader probes that completed (0 unless the scenario
    /// enables `snapshot_readers`).
    pub snapshot_reads: u64,
    /// Deadline misses recorded by the executor.
    pub deadline_misses: u64,
    /// High-water mark of the executor's delay queue.
    pub max_delay_len: usize,
    /// Last trace events from the observability ring (newest last) —
    /// attached to every outcome so a failing seed's report shows what the
    /// system was doing right before the violation.
    pub trace_tail: Vec<String>,
    /// For failing runs: the full causal span tree(s) of the transactions
    /// implicated by the violations (feed transactions named in the
    /// messages, else the worst staleness path) — the *why*, where
    /// `trace_tail` is only the *when*. Empty on passing runs.
    pub causal_trace: Vec<String>,
    /// Canonical final state of the market tables (live database).
    pub digest: BTreeMap<String, Vec<String>>,
}

impl Outcome {
    /// True if every oracle held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-command repro string for a failing seed.
    pub fn repro(&self) -> String {
        repro_command(self.seed)
    }
}

/// The command that replays a single seed.
pub fn repro_command(seed: u64) -> String {
    format!("CHAOS_SEED={seed} cargo test -p strip-chaos --test battery -- seeded_battery")
}

/// Generate the plan for a config and run it.
pub fn run_scenario(cfg: &ScenarioConfig) -> Outcome {
    let plan = FaultPlan::generate(cfg.seed, &cfg.allowed);
    run_with_plan(cfg, &plan)
}

/// Run the default battery scenario for one seed.
pub fn run_seed(seed: u64) -> Outcome {
    run_scenario(&ScenarioConfig::for_seed(seed))
}

const MARKET_TABLES: [&str; 3] = ["stocks", "comps_list", "comp_prices"];

/// One submitted feed update (the shadow model's unit).
#[derive(Debug, Clone)]
struct PlannedUpdate {
    idx: usize,
    symbol: String,
    delta: f64,
    release_us: u64,
}

struct Market {
    /// symbol -> initial price.
    initial: BTreeMap<String, f64>,
    /// comp -> [(symbol, weight)].
    composites: BTreeMap<String, Vec<(String, f64)>>,
}

fn build_market(cfg: &ScenarioConfig, rng: &mut StdRng) -> Market {
    let mut initial = BTreeMap::new();
    for i in 0..cfg.stocks {
        // Dyadic initial prices: 100, 104.25, 108.5, ...
        initial.insert(format!("S{i}"), 100.0 + i as f64 * 4.25);
    }
    let weights = [0.25, 0.5, 0.75, 1.0];
    let mut composites = BTreeMap::new();
    for c in 0..cfg.composites {
        let members = 2 + rng.gen_range(0..2usize); // 2..=3 underlyings
        let mut list = Vec::new();
        let mut used = BTreeSet::new();
        // Round-robin anchor guarantees every composite is non-empty and
        // stocks spread across composites.
        let anchor = c % cfg.stocks;
        used.insert(anchor);
        list.push((
            format!("S{anchor}"),
            weights[rng.gen_range(0..weights.len())],
        ));
        while list.len() < members {
            let s = rng.gen_range(0..cfg.stocks);
            if used.insert(s) {
                list.push((format!("S{s}"), weights[rng.gen_range(0..weights.len())]));
            }
        }
        composites.insert(format!("C{c}"), list);
    }
    Market {
        initial,
        composites,
    }
}

fn setup_database(db: &Strip, market: &Market) -> Result<(), String> {
    db.execute_script(
        "create table stocks (symbol str, price float, seq int); \
         create index ix_stocks_symbol on stocks (symbol); \
         create table comps_list (comp str, symbol str, weight float); \
         create index ix_cl_symbol on comps_list (symbol); \
         create table comp_prices (comp str, price float); \
         create index ix_cp_comp on comp_prices (comp);",
    )
    .map_err(|e| format!("scenario setup: {e}"))?;
    for (sym, price) in &market.initial {
        db.execute_with(
            "insert into stocks values (?, ?, 0)",
            &[Value::str(sym), (*price).into()],
        )
        .map_err(|e| format!("scenario setup: {e}"))?;
    }
    for (comp, members) in &market.composites {
        let mut sum = 0.0;
        for (sym, w) in members {
            sum += w * market.initial[sym];
            db.execute_with(
                "insert into comps_list values (?, ?, ?)",
                &[Value::str(comp), Value::str(sym), (*w).into()],
            )
            .map_err(|e| format!("scenario setup: {e}"))?;
        }
        db.execute_with(
            "insert into comp_prices values (?, ?)",
            &[Value::str(comp), sum.into()],
        )
        .map_err(|e| format!("scenario setup: {e}"))?;
    }
    Ok(())
}

/// The delta spec mirroring `recompute_comp`: `comp_prices.price` is the
/// weighted sum of `stocks.price` over `comps_list`, so each bound `matches`
/// row contributes `weight · (new_price − old_price)`. The checkpoint
/// cadence is deliberately tight (every 4 firings) so rebase recomputes —
/// extra reads of `stocks`/`comps_list` inside the action transaction — run
/// under the fault battery too, widening the lock-timeout and crash surface.
fn chaos_delta_spec(cfg: &ScenarioConfig) -> DeltaSpec {
    let spec = DeltaSpec::weighted_sum(
        "comp_prices",
        "comp",
        "price",
        "matches",
        "comp",
        Some("weight"),
        "old_price",
        "new_price",
        "select sum(weight * price) as price from comps_list, stocks \
         where comps_list.symbol = stocks.symbol and comp = ?",
    )
    .expect("chaos delta spec")
    .with_checkpoint_every(4);
    match cfg.mutant {
        Mutant::DeltaDropOldSubtraction => {
            spec.with_mutant(strip_core::DeltaMutant::DropOldSubtraction)
        }
        _ => spec,
    }
}

/// From-scratch recompute of one composite's price inside a transaction —
/// idempotent, so it both implements the rule action and repairs after
/// aborted actions.
fn recompute_comp(txn: &mut Txn<'_>, comp: &Value) -> strip_core::Result<()> {
    let sum = txn.query(
        "select sum(weight * price) as p from comps_list, stocks \
         where comps_list.symbol = stocks.symbol and comp = ?",
        std::slice::from_ref(comp),
    )?;
    let p = sum.single("p").cloned().unwrap_or(Value::Null);
    if p != Value::Null {
        txn.charge_user_work(1);
        txn.exec(
            "update comp_prices set price = ? where comp = ?",
            &[p, comp.clone()],
        )?;
    }
    Ok(())
}

/// Repair pass: recompute every composite from scratch (used after aborted
/// actions and on recovered databases, with the injector disarmed).
pub fn repair_derived(db: &Strip) -> Result<(), String> {
    let comps: Vec<String> = db
        .table_rows("comps_list")
        .map_err(|e| format!("repair: {e}"))?
        .iter()
        .filter_map(|r| Some(r[0].as_str()?.to_string()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for comp in comps {
        db.txn(|t| recompute_comp(t, &Value::str(&comp)))
            .map_err(|e| format!("repair of `{comp}`: {e}"))?;
    }
    Ok(())
}

/// A schema-only clone of the market database (recovery target).
fn schema_only_db(market: &Market) -> Result<Strip, String> {
    let db = Strip::new();
    db.execute_script(
        "create table stocks (symbol str, price float, seq int); \
         create table comps_list (comp str, symbol str, weight float); \
         create table comp_prices (comp str, price float);",
    )
    .map_err(|e| format!("recovery target setup: {e}"))?;
    let _ = market; // schema is market-independent; data comes from the WAL
    Ok(db)
}

/// Greedy batching model: group sorted times such that a time joins the
/// current group iff it is `< start + window_us`; returns the group count.
/// Mirrors the `unique ... after` release semantics.
fn window_groups(mut times: Vec<u64>, window_us: u64) -> u64 {
    times.sort_unstable();
    let mut groups = 0u64;
    let mut start: Option<u64> = None;
    for t in times {
        match start {
            Some(s) if t < s + window_us => {}
            _ => {
                groups += 1;
                start = Some(t);
            }
        }
    }
    groups
}

/// Running state of the snapshot-consistency oracle: per-timestamp
/// observed digests, the monotonicity cursor, and the probe count.
#[derive(Default)]
struct SnapshotProbe {
    last_ts: u64,
    by_ts: BTreeMap<u64, Vec<(String, String)>>,
    reads: u64,
}

/// Canonical `stocks` digest through a transaction's (snapshot) view.
fn snapshot_scan(t: &mut Txn<'_>) -> strip_core::Result<Vec<(String, String)>> {
    let rs = t.query("select symbol, price from stocks", &[])?;
    let mut v: Vec<(String, String)> = rs
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_str().unwrap_or("").to_string(),
                format!("{:?}", r[1]),
            )
        })
        .collect();
    v.sort();
    Ok(v)
}

/// One snapshot-reader probe: pin a snapshot, scan `stocks` twice, and
/// feed the snapshot-consistency oracle — stability (two scans in one
/// snapshot identical), lock-freedom (empty footprint), timestamp
/// monotonicity, and same-timestamp determinism (two snapshots pinned at
/// the same ts must observe the same state).
fn snapshot_probe(db: &Strip, probe: &mut SnapshotProbe, violations: &mut Vec<String>) {
    if db.has_crashed() {
        return;
    }
    let res = db.read_txn(|t| {
        let ts = t.snapshot_ts().unwrap_or(0);
        let first = snapshot_scan(t)?;
        let second = snapshot_scan(t)?;
        let locks = t.lock_footprint().len();
        Ok((ts, first, second, locks))
    });
    match res {
        Ok((ts, first, second, locks)) => {
            probe.reads += 1;
            if locks != 0 {
                violations.push(format!(
                    "snapshot: read-only txn at ts {ts} held {locks} lock(s)"
                ));
            }
            if first != second {
                violations.push(format!(
                    "snapshot: torn read at ts {ts} (two scans in one snapshot differ)"
                ));
            }
            if ts < probe.last_ts {
                violations.push(format!(
                    "snapshot: timestamp moved backwards ({} -> {ts})",
                    probe.last_ts
                ));
            }
            probe.last_ts = probe.last_ts.max(ts);
            match probe.by_ts.get(&ts) {
                Some(prev) if prev != &first => violations.push(format!(
                    "snapshot: two snapshots at ts {ts} observed different states"
                )),
                Some(_) => {}
                None => {
                    probe.by_ts.insert(ts, first);
                }
            }
        }
        // A probe racing a crash legitimately fails, and a planned
        // `TxnCommit -> Abort` can pick the probe as its victim; anything
        // else is a violation — snapshot readers take no locks and cannot
        // deadlock or time out.
        Err(e) if db.has_crashed() || e.to_string().contains("injected") => {
            let _ = e;
        }
        Err(e) => violations.push(format!("snapshot: read-only txn failed: {e}")),
    }
}

/// Run one scenario under an explicit plan. This is the primitive both the
/// battery (generated plans) and the minimizer (shrunken plans) use.
pub fn run_with_plan(cfg: &ScenarioConfig, plan: &FaultPlan) -> Outcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6d61_726b_6574_u64); // "market"
    let market = build_market(cfg, &mut rng);
    let injector = PlanInjector::new(plan);
    let policy = match cfg.policy_seed {
        Some(k) => Policy::Seeded(k),
        None => Policy::Fifo,
    };
    let mut builder = Strip::builder()
        .durable()
        .policy(policy)
        .maintenance_mode(cfg.maintenance)
        .fault_injector(injector.clone());
    if cfg.workers > 1 {
        builder = builder.pool(cfg.workers);
    }
    let db = builder.build();

    let mut violations: Vec<String> = Vec::new();
    if let Err(e) = setup_database(&db, &market) {
        return finish(cfg, plan, &injector, &db, vec![e]);
    }

    // The maintenance function: execute_order oracle over the bound
    // `changes` table, then from-scratch recompute per touched comp.
    let fn_violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let execs: Arc<Mutex<BTreeMap<String, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let chaos_fn = {
        let fn_violations = fn_violations.clone();
        let execs = execs.clone();
        let runs = runs.clone();
        move |txn: &mut Txn<'_>| -> strip_core::Result<()> {
            runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if let Some(changes) = txn.bound("changes") {
                let schema = changes.schema();
                let [Some(sym), Some(seq), Some(eo), Some(_)] =
                    ["symbol", "seq", "execute_order", "commit_time"].map(|c| schema.index_of(c))
                else {
                    fn_violations
                        .lock()
                        .push("changes table lost its firing columns".into());
                    return Ok(());
                };
                // Each feed transaction adds its own sequence number to its
                // row's `seq`, so a row's `(symbol, seq)` names the
                // transaction, and so the firing, that wrote it.
                let rows: Vec<((String, i64), i64)> = (0..changes.len())
                    .map(|i| {
                        let firing = (
                            changes.value(i, sym).as_str().unwrap_or("").to_string(),
                            changes.value(i, seq).as_i64().unwrap_or(-1),
                        );
                        (firing, changes.value(i, eo).as_i64().unwrap_or(-1))
                    })
                    .collect();
                fn_violations
                    .lock()
                    .extend(oracle::check_execute_order(&rows));
            }
            let comps = txn.query("select comp from matches group by comp", &[])?;
            for i in 0..comps.len() {
                let comp = comps.value(i, "comp")?.clone();
                if let Some(name) = comp.as_str() {
                    *execs.lock().entry(name.to_string()).or_insert(0) += 1;
                }
                recompute_comp(txn, &comp)?;
            }
            Ok(())
        }
    };
    match cfg.maintenance {
        MaintenanceMode::Delta => {
            db.register_function_with_delta("chaos_recompute", chaos_fn, chaos_delta_spec(cfg))
        }
        MaintenanceMode::Recompute => db.register_function("chaos_recompute", chaos_fn),
    }
    let unique_clause = match cfg.mutant {
        Mutant::NoUniqueDedup => String::new(),
        _ => format!("unique on comp after {} seconds", cfg.batch_window_s),
    };
    // The recompute rule is the paper's coarse form (the action re-reads the
    // database, so the condition only needs `new`, plus the `changes` bind
    // feeding the execute_order oracle, whose `seq` column names firings).
    // The delta rule must be classified linear: it pairs `new`/`old` images
    // on `execute_order` and carries the weight and both price images per
    // change row, and binds nothing else.
    let rule_sql = match cfg.maintenance {
        MaintenanceMode::Delta => format!(
            "create rule chaos_comps on stocks when updated price if \
             select comp, comps_list.symbol as symbol, weight, \
                    old.price as old_price, new.price as new_price \
             from comps_list, new, old \
             where comps_list.symbol = new.symbol \
               and new.execute_order = old.execute_order \
             bind as matches \
             then execute chaos_recompute {unique_clause}"
        ),
        MaintenanceMode::Recompute => format!(
            "create rule chaos_comps on stocks when updated price then evaluate \
             select comp, commit_time from comps_list, new \
               where comps_list.symbol = new.symbol bind as matches, \
             select *, commit_time from new bind as changes \
             execute chaos_recompute {unique_clause}"
        ),
    };
    if let Err(e) = db.execute(&rule_sql) {
        return finish(cfg, plan, &injector, &db, vec![format!("rule setup: {e}")]);
    }
    // Exercise the export path too: a zero-window subscription on the
    // derived table.
    let subscription = match db.subscribe("comp_prices", 0.0) {
        Ok(s) => s,
        Err(e) => return finish(cfg, plan, &injector, &db, vec![format!("subscribe: {e}")]),
    };

    // Workload: seeded feed of dyadic price deltas at colliding release
    // times, some with deadlines. Armed from here on.
    injector.arm();
    let mut updates = Vec::with_capacity(cfg.updates);
    for idx in 0..cfg.updates {
        let symbol = format!("S{}", rng.gen_range(0..cfg.stocks));
        let delta = rng.gen_range(-16i64..=16) as f64 * 0.25;
        // Pool runs pay wall clock for every µs of feed timeline, so
        // compress it 20× there (same rng draws, so the fault plan and
        // deltas are identical across executor widths for a given seed).
        let step_us = if cfg.workers > 1 { 10_000 } else { 200_000 };
        let release_us = rng.gen_range(1..=12u64) * step_us;
        let deadline = rng
            .gen_bool(0.3)
            .then(|| release_us + rng.gen_range(50_000..=400_000u64));
        let kind = format!("feed:{idx}:{symbol}");
        let (sym_param, delta_param) = (symbol.clone(), delta);
        // The transaction's sequence number, added to the row's `seq`: the
        // sum stays the same in any commit order (so the state digest does
        // not depend on the executor), while each committed update leaves
        // its row a `seq` no other update of that symbol leaves.
        let seq = idx as i64 + 1;
        db.submit_txn_with(&kind, release_us, deadline, 1.0, move |t| {
            t.exec(
                "update stocks set price += ?, seq += ? where symbol = ?",
                &[delta_param.into(), seq.into(), Value::str(&sym_param)],
            )?;
            Ok(())
        });
        updates.push(PlannedUpdate {
            idx,
            symbol,
            delta,
            release_us,
        });
    }

    // Drive to quiescence in steps, checking the cheap oracles at every
    // quiescent point (advance_to returns with no task mid-flight). With
    // snapshot readers enabled, a probe runs between every step — on the
    // pool executor that is genuinely concurrent with in-flight writers.
    let mut probe = SnapshotProbe::default();
    let mut clock = 0u64;
    for _ in 0..200 {
        if db.pending_tasks() == 0 {
            break;
        }
        clock += 250_000;
        db.advance_to(clock);
        violations.extend(oracle::check_no_leaked_locks(&db));
        violations.extend(oracle::check_unique_pending(&db));
        if cfg.snapshot_readers {
            snapshot_probe(&db, &mut probe, &mut violations);
        }
    }
    db.drain();
    let crashed = db.has_crashed();
    if cfg.snapshot_readers && !crashed {
        snapshot_probe(&db, &mut probe, &mut violations);
        // At quiescence the snapshot view and the locked (2PL) view must
        // agree exactly — a row stuck unpublished, or one reclaimed too
        // early, shows up as a diff here.
        let locked: Vec<(String, String)> = {
            let mut v: Vec<(String, String)> = db
                .table_rows("stocks")
                .unwrap_or_default()
                .iter()
                .map(|r| {
                    (
                        r[0].as_str().unwrap_or("").to_string(),
                        format!("{:?}", r[1]),
                    )
                })
                .collect();
            v.sort();
            v
        };
        match db.read_txn(snapshot_scan) {
            Ok(snap) if snap != locked => violations.push(format!(
                "snapshot: quiescent snapshot view diverges from locked view \
                 (snapshot {} rows, locked {} rows)",
                snap.len(),
                locked.len()
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("snapshot: quiescent probe failed: {e}")),
        }
        // Liveness of the observability counters: the probes above must be
        // visible as snapshot transactions, or the telemetry went blind.
        if probe.reads > 0 && db.obs().snapshot().snap.txns == 0 {
            violations.push("snapshot: probes ran but strip_snap_txns is zero".into());
        }
    }

    // Classify what survived: errors identify aborted tasks, the fired log
    // identifies dropped and delayed submissions.
    let errors = db.take_errors();
    let fired = injector.fired();
    // A commit-publish crash fires only *after* the WAL commit record is
    // durable: the victim transaction is committed (present in the live
    // tables and the log) even though its submitter saw a crash — the
    // classic ambiguous-commit outcome. Treat it as survived, not failed.
    let publish_committed: BTreeSet<usize> = fired
        .iter()
        .filter(|l| l.starts_with("commit-publish") && l.contains("-> Crash"))
        .filter_map(|l| parse_feed_index(l))
        .collect();
    let failed: BTreeSet<usize> = errors
        .iter()
        .filter_map(|e| parse_failed_update(e))
        .filter(|i| !publish_committed.contains(i))
        .collect();
    let dropped: BTreeSet<usize> = fired
        .iter()
        .filter(|l| l.contains("-> Drop"))
        .filter_map(|l| parse_feed_index(l))
        .collect();
    let feed_delay: BTreeMap<usize, u64> = fired
        .iter()
        .filter(|l| l.starts_with("feed-submit") && l.contains("-> DelayUs"))
        .filter_map(|l| Some((parse_feed_index(l)?, parse_delay_us(l)?)))
        .collect();
    let sched_delays = fired
        .iter()
        .filter(|l| l.starts_with("sched-dispatch") && l.contains("-> DelayUs"))
        .count() as u64;
    // Any error that is not an aborted feed task or a rule-action abort is
    // unexpected (e.g. an internal failure) — surface it.
    for e in &errors {
        let expected = parse_failed_update(e).is_some()
            || e.starts_with("rule `")
            || e.contains("injected")
            || e.contains("simulated crash")
            || e.contains("lock wait timeout");
        if !expected {
            violations.push(format!("unexpected task error: {e}"));
        }
    }

    // Shadow model: surviving deltas over initial prices.
    let mut shadow = market.initial.clone();
    for u in &updates {
        if !failed.contains(&u.idx) && !dropped.contains(&u.idx) {
            *shadow.get_mut(&u.symbol).expect("symbol exists") += u.delta;
        }
    }
    violations.extend(oracle::check_stocks_match_shadow(&db, &shadow));
    violations.extend(oracle::check_no_leaked_locks(&db));
    violations.extend(oracle::check_unique_pending(&db));
    violations.extend(oracle::check_engine_consistency(&db));
    violations.extend(std::mem::take(&mut *fn_violations.lock()));

    // Maintenance-path oracle: the configured mode must be the path that
    // actually ran. The executor kinds actions `delta:f` / `recompute:f`,
    // so a silent fallback (delta mode quietly reverting to full recompute,
    // or vice versa) is a violation, not a performance footnote.
    let exec_stats = db.stats();
    let delta_actions = exec_stats.count_with_prefix("delta:chaos_recompute");
    let recompute_actions = exec_stats.count_with_prefix("recompute:chaos_recompute");
    match cfg.maintenance {
        MaintenanceMode::Delta if recompute_actions > 0 => violations.push(format!(
            "maintenance: delta mode fell back to {recompute_actions} full-recompute action(s)"
        )),
        MaintenanceMode::Recompute if delta_actions > 0 => violations.push(format!(
            "maintenance: recompute mode ran {delta_actions} delta action(s)"
        )),
        _ => {}
    }

    // Export-path sanity: every delivered event is a comp_prices change.
    for ev in subscription.events.try_iter() {
        if ev.table != "comp_prices" {
            violations.push(format!("export: event for wrong table `{}`", ev.table));
        }
    }

    // Unique-batching oracle: per composite, action executions may not
    // exceed the batching model's group count (computed with a *halved*
    // window so commit-time skew can only make the bound looser), plus
    // slack for fired dispatch delays. Only meaningful on the deterministic
    // simulator: pool commit times carry wall-clock jitter the release-time
    // model cannot bound, so parallel runs rely on the safety oracles.
    if cfg.workers == 1 {
        let window_us = (cfg.batch_window_s * 1_000_000.0 / 2.0) as u64;
        let execs = execs.lock();
        let mut total_allowed = 0u64;
        for (comp, members) in &market.composites {
            let touched: Vec<u64> = updates
                .iter()
                .filter(|u| {
                    !dropped.contains(&u.idx) && members.iter().any(|(s, _)| s == &u.symbol)
                })
                .map(|u| u.release_us + feed_delay.get(&u.idx).copied().unwrap_or(0))
                .collect();
            let allowed = window_groups(touched, window_us.max(1)) + 2 * sched_delays + 1;
            total_allowed += allowed;
            let got = execs.get(comp).copied().unwrap_or(0);
            if got > allowed {
                violations.push(format!(
                    "unique: `{comp}` recomputed {got} times, batching allows at most {allowed}"
                ));
            }
        }
        // Delta actions bypass the user function (so the per-comp `execs`
        // counts stay zero), but each delta action still serves exactly one
        // `unique on comp` partition — the executor's delta action count is
        // bounded by the batching model summed over composites.
        if cfg.maintenance == MaintenanceMode::Delta && delta_actions > total_allowed {
            violations.push(format!(
                "unique: {delta_actions} delta action(s), batching allows at most {total_allowed}"
            ));
        }
    }

    // Durability oracle. Fault-free and crashed runs alike: replaying the
    // WAL into a schema-only database must reproduce the live tables
    // exactly (after a crash the live tables are the rolled-back committed
    // state, which is precisely what the log holds).
    injector.disarm();
    match durability_check(cfg, &db, &market, &mut rng, crashed) {
        Ok(v) => violations.extend(v),
        Err(e) => violations.push(e),
    }

    // Derived-data oracle on the live database. After aborted actions the
    // derived table is legitimately stale, so repair first (idempotent
    // from-scratch recompute, injector disarmed) — unless the database is
    // dead, in which case the recovered copy was checked above.
    if !crashed {
        let action_aborted = errors.iter().any(|e| e.starts_with("rule `"));
        if !action_aborted {
            violations.extend(oracle::check_derived_prices(&db));
        }
        match repair_derived(&db) {
            Ok(()) => violations.extend(oracle::check_derived_prices(&db)),
            Err(e) => violations.push(e),
        }
    }

    let mut out = finish(cfg, plan, &injector, &db, violations);
    out.crashed = crashed;
    // Delta actions bypass the user function, so count maintenance runs
    // from the spec's firing counter there; the function's own counter
    // covers the recompute path (and any hypothetical fallback).
    out.recompute_runs = runs.load(std::sync::atomic::Ordering::SeqCst)
        + db.delta_stats("chaos_recompute").map_or(0, |s| s.fired);
    out.snapshot_reads = probe.reads;
    out
}

/// Replay the WAL and diff against the live database; on crashes, also
/// seeded torn-tail cuts and the derived-data check on the recovered copy.
fn durability_check(
    cfg: &ScenarioConfig,
    db: &Strip,
    market: &Market,
    rng: &mut StdRng,
    crashed: bool,
) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    let mut wal = db
        .wal_bytes()
        .ok_or_else(|| "durability: WAL missing on a durable database".to_string())?;
    let committed_prefix = db.wal_committed_prefix().unwrap_or(0);
    if cfg.mutant == Mutant::DropCommitMarker {
        wal = strip_last_commit_record(&wal);
    }
    let live = oracle::state_digest(db, &MARKET_TABLES).map_err(|e| format!("durability: {e}"))?;

    let recovered = schema_only_db(market)?;
    recovered
        .recover_from_wal(&wal)
        .map_err(|e| format!("durability: recovery failed: {e}"))?;
    let rec_digest =
        oracle::state_digest(&recovered, &MARKET_TABLES).map_err(|e| format!("durability: {e}"))?;
    violations.extend(oracle::diff_states("durability", &live, &rec_digest));

    if crashed {
        // Torn-tail oracle: any cut at or beyond the committed prefix must
        // recover the same state (unacknowledged bytes carry no commits).
        let full = db.wal_bytes().unwrap_or_default();
        if full.len() > committed_prefix {
            let cut = committed_prefix + rng.gen_range(0..=(full.len() - committed_prefix));
            let torn = schema_only_db(market)?;
            torn.recover_from_wal(&full[..cut])
                .map_err(|e| format!("durability: torn recovery failed: {e}"))?;
            let torn_digest = oracle::state_digest(&torn, &MARKET_TABLES)
                .map_err(|e| format!("durability: {e}"))?;
            violations.extend(oracle::diff_states("torn-tail", &live, &torn_digest));
        }
        // The recovered data must support correct derivation.
        repair_derived(&recovered)?;
        violations.extend(oracle::check_derived_prices(&recovered));
    }
    Ok(violations)
}

/// Remove the last *effectful* commit-marker record from a WAL byte image
/// (the `DropCommitMarker` mutant): the last commit whose transaction
/// logged at least one data record. Read-only transactions also write
/// commit markers, but losing those is invisible to recovery — the mutant
/// must lose a commit that matters. Framing: `[len u32 LE][crc u32 LE]
/// [payload]`; payload is `[tag u8][txn_id u64 LE]…`, commit tag = 4.
pub fn strip_last_commit_record(bytes: &[u8]) -> Vec<u8> {
    const REC_COMMIT: u8 = 4;
    let mut pos = 0usize;
    let mut data_txns: BTreeSet<u64> = BTreeSet::new();
    let mut last_commit: Option<(usize, usize)> = None; // (start, end)
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + 8..end];
        let txn_id = payload
            .get(1..9)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()));
        match (payload.first(), txn_id) {
            (Some(&REC_COMMIT), Some(id)) if data_txns.contains(&id) => {
                last_commit = Some((pos, end));
            }
            (Some(&REC_COMMIT), _) => {}
            (Some(_), Some(id)) => {
                data_txns.insert(id);
            }
            _ => {}
        }
        pos = end;
    }
    match last_commit {
        Some((start, end)) => {
            let mut out = bytes[..start].to_vec();
            out.extend_from_slice(&bytes[end..]);
            out
        }
        None => bytes.to_vec(),
    }
}

fn parse_failed_update(error: &str) -> Option<usize> {
    // "task `feed:12:S3`: ..."
    let rest = error.strip_prefix("task `feed:")?;
    rest.split(':').next()?.parse().ok()
}

fn parse_feed_index(fired_line: &str) -> Option<usize> {
    // "feed-submit#2 (feed:12:S3) -> Drop"
    let rest = fired_line.split("(feed:").nth(1)?;
    rest.split(':').next()?.parse().ok()
}

fn parse_delay_us(fired_line: &str) -> Option<u64> {
    // "... -> DelayUs(150000)"
    let rest = fired_line.split("DelayUs(").nth(1)?;
    rest.split(')').next()?.parse().ok()
}

fn finish(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    injector: &Arc<PlanInjector>,
    db: &Strip,
    violations: Vec<String>,
) -> Outcome {
    let stats = db.stats();
    let causal_trace = if violations.is_empty() {
        Vec::new()
    } else {
        causal_traces(db, &violations)
    };
    Outcome {
        seed: cfg.seed,
        plan: plan.clone(),
        fired: injector.fired(),
        violations,
        crashed: db.has_crashed(),
        recompute_runs: 0,
        snapshot_reads: 0,
        deadline_misses: stats.deadline_misses,
        max_delay_len: stats.max_delay_len,
        trace_tail: db
            .obs()
            .trace_tail(TRACE_TAIL_EVENTS)
            .iter()
            .map(|e| e.to_string())
            .collect(),
        causal_trace,
        digest: oracle::state_digest(db, &MARKET_TABLES).unwrap_or_default(),
    }
}

/// How many trailing trace events a scenario outcome carries.
const TRACE_TAIL_EVENTS: usize = 40;

/// How many distinct causal span trees a failing outcome renders.
const CAUSAL_TRACE_CAP: usize = 3;

/// Reconstruct the causal lineage of the transactions the violations
/// implicate. Feed transactions are named `feed:<idx>:<sym>` in both task
/// kinds and violation messages, so their submit events identify the trace;
/// when no violation names one, fall back to the worst staleness path of
/// the run (the slowest base-commit → derived-commit chain).
fn causal_traces(db: &Strip, violations: &[String]) -> Vec<String> {
    let lin = db.obs().lineage();
    let events = db.obs().resolved_events();
    let mut traces: Vec<u64> = Vec::new();
    for v in violations {
        for idx in feed_indices(v) {
            let prefix = format!("feed:{idx}:");
            for e in &events {
                if e.kind == strip_obs::EventKind::TxnSubmit
                    && e.detail.starts_with(&prefix)
                    && e.trace != 0
                    && !traces.contains(&e.trace)
                {
                    traces.push(e.trace);
                }
            }
        }
    }
    if traces.is_empty() {
        traces.extend(lin.worst(1).iter().map(|bd| bd.trace));
    }
    let mut out = Vec::new();
    for t in traces.iter().take(CAUSAL_TRACE_CAP) {
        out.extend(lin.render_trace(*t).lines().map(str::to_string));
    }
    if traces.len() > CAUSAL_TRACE_CAP {
        out.push(format!(
            "({} more implicated trace(s) not shown)",
            traces.len() - CAUSAL_TRACE_CAP
        ));
    }
    if lin.ring_truncated() {
        out.push("(trace ring wrapped: older causal events evicted)".to_string());
    }
    out
}

/// Every `feed:<idx>` index mentioned in a violation message.
fn feed_indices(violation: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut rest = violation;
    while let Some(pos) = rest.find("feed:") {
        rest = &rest[pos + 5..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(idx) = digits.parse() {
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
    }
    out
}

/// Shrink a failing plan: repeatedly drop any single fault whose removal
/// keeps the scenario failing. The result is 1-minimal — removing any one
/// remaining fault makes the violations disappear.
pub fn minimize(cfg: &ScenarioConfig, plan: &FaultPlan) -> FaultPlan {
    let mut current = plan.clone();
    loop {
        let mut shrunk = false;
        for idx in 0..current.faults.len() {
            let candidate = current.without(idx);
            if !run_with_plan(cfg, &candidate).ok() {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Interleaving explorer: run the same fault-free scenario under
/// `Policy::Seeded(k)` for `orders` different k and assert every ordering
/// reaches the same final market state (serializable equivalence — the
/// workload's deltas commute and recomputes are from-scratch).
pub fn explore_interleavings(scenario_seed: u64, orders: u64) -> Vec<String> {
    let mut violations = Vec::new();
    let base_cfg = ScenarioConfig::fault_free(scenario_seed);
    let base = run_with_plan(&base_cfg, &FaultPlan::none());
    violations.extend(base.violations.iter().cloned());
    for k in 0..orders {
        let cfg = ScenarioConfig {
            policy_seed: Some(k),
            ..ScenarioConfig::fault_free(scenario_seed)
        };
        let out = run_with_plan(&cfg, &FaultPlan::none());
        for v in &out.violations {
            violations.push(format!("order {k}: {v}"));
        }
        violations.extend(oracle::diff_states(
            &format!("interleaving (order {k})"),
            &base.digest,
            &out.digest,
        ));
    }
    violations
}
