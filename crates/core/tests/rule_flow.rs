//! End-to-end rule-system tests built on the paper's worked example
//! (Figures 3–7): the `stocks` / `comps_list` / `comp_prices` schema with
//! the data of Figure 4 and the three composite-maintenance rules.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use strip_core::{Result, Strip};
use strip_obs::MEM_CLASS_NAMES;
use strip_storage::Value;

/// Schema + Figure 4 data.
fn figure4_db() -> Strip {
    let db = Strip::new();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create index ix_stocks_symbol on stocks (symbol); \
         create table comps_list (comp str, symbol str, weight float); \
         create index ix_cl_symbol on comps_list (symbol); \
         create table comp_prices (comp str, price float); \
         create index ix_cp_comp on comp_prices (comp); \
         insert into stocks values ('S1', 30), ('S2', 40), ('S3', 50); \
         insert into comps_list values \
           ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7); \
         insert into comp_prices values ('C1', 40.0), ('C2', 37.0);",
    )
    .unwrap();
    db
}

const MATCHES_CONDITION: &str = "if \
    select comp, comps_list.symbol as symbol, weight, \
           old.price as old_price, new.price as new_price \
    from comps_list, new, old \
    where comps_list.symbol = new.symbol \
      and new.execute_order = old.execute_order \
    bind as matches ";

/// Register `compute_comps` in the style of Figure 6: group the incremental
/// changes per composite, then apply each with one update.
fn register_compute_comps(db: &Strip, name: &str, calls: Arc<AtomicU64>) {
    db.register_function(name, move |txn| {
        calls.fetch_add(1, Ordering::SeqCst);
        let diffs = txn.query(
            "select comp, sum((new_price - old_price) * weight) as diff \
             from matches group by comp",
            &[],
        )?;
        for i in 0..diffs.len() {
            txn.charge_user_work(1);
            let comp = diffs.value(i, "comp")?.clone();
            let diff = diffs.value(i, "diff")?.clone();
            txn.exec(
                "update comp_prices set price += ? where comp = ?",
                &[diff, comp],
            )?;
        }
        Ok(())
    });
}

fn comp_price(db: &Strip, comp: &str) -> f64 {
    db.query(&format!(
        "select price from comp_prices where comp = '{comp}'"
    ))
    .unwrap()
    .single("price")
    .unwrap()
    .as_f64()
    .unwrap()
}

/// Apply the paper's T1 (S1: 30→31, S2: 40→39) and T2 (S2: 39→38,
/// S3: 50→51).
fn run_t1_t2(db: &Strip) {
    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        t.exec("update stocks set price = 39 where symbol = 'S2'", &[])?;
        Ok(())
    })
    .unwrap();
    db.txn(|t| {
        t.exec("update stocks set price = 38 where symbol = 'S2'", &[])?;
        t.exec("update stocks set price = 51 where symbol = 'S3'", &[])?;
        Ok(())
    })
    .unwrap();
}

/// Expected final prices: C1 = 0.5*31 + 0.5*51 = 41; C2 = 0.3*31+0.7*38=35.9.
fn assert_final_prices(db: &Strip) {
    assert!((comp_price(db, "C1") - 41.0).abs() < 1e-9);
    assert!((comp_price(db, "C2") - 35.9).abs() < 1e-9);
}

#[test]
fn non_unique_rule_runs_one_action_per_firing() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps1", calls.clone());
    db.execute(&format!(
        "create rule do_comps1 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps1"
    ))
    .unwrap();

    run_t1_t2(&db);
    // Two triggering transactions -> two distinct action transactions
    // (Figure 5(a)).
    assert_eq!(db.pending_tasks(), 2);
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert!(db.take_errors().is_empty());
    assert_final_prices(&db);
}

#[test]
fn coarse_unique_batches_across_transactions() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps2", calls.clone());
    db.execute(&format!(
        "create rule do_comps2 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps2 unique after 1.0 seconds"
    ))
    .unwrap();

    run_t1_t2(&db);
    // T2 fired within the window: its rows were appended to T1's pending
    // transaction (Figure 5(b)) — only ONE task queued.
    assert_eq!(db.pending_tasks(), 1);
    assert_eq!(db.pending_unique("compute_comps2"), 1);
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert!(db.take_errors().is_empty());
    assert_final_prices(&db);
    assert_eq!(db.pending_unique("compute_comps2"), 0);
}

#[test]
fn unique_on_comp_partitions_by_composite() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps3", calls.clone());
    db.execute(&format!(
        "create rule do_comps3 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps3 unique on comp after 1.0 seconds"
    ))
    .unwrap();

    run_t1_t2(&db);
    // One pending transaction per composite (Figure 5(c)).
    assert_eq!(db.pending_tasks(), 2);
    assert_eq!(db.pending_unique("compute_comps3"), 2);
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert!(db.take_errors().is_empty());
    assert_final_prices(&db);
}

#[test]
fn delay_window_defers_release() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps2", calls.clone());
    db.execute(&format!(
        "create rule do_comps2 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps2 unique after 2.0 seconds"
    ))
    .unwrap();

    let t0 = db.now_us();
    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    // Not yet: the window is 2 s.
    db.advance_to(t0 + 1_000_000);
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    assert_eq!(db.pending_tasks(), 1);
    // A second change inside the window batches into the same transaction.
    db.txn(|t| {
        t.exec("update stocks set price = 32 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.pending_tasks(), 1);
    db.advance_to(t0 + 3_000_000);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    // Both deltas applied: C1 += 0.5*(31-30) + 0.5*(32-31) = 41.
    assert!((comp_price(&db, "C1") - 41.0).abs() < 1e-9);
    assert!(db.take_errors().is_empty());
}

#[test]
fn firing_after_action_starts_opens_new_transaction() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps2", calls.clone());
    db.execute(&format!(
        "create rule do_comps2 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps2 unique after 1.0 seconds"
    ))
    .unwrap();

    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain(); // first action runs
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    db.txn(|t| {
        t.exec("update stocks set price = 33 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.pending_tasks(), 1, "new transaction after the first ran");
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    assert!(db.take_errors().is_empty());
}

#[test]
fn condition_false_suppresses_action() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps1", calls.clone());
    db.execute(&format!(
        "create rule do_comps1 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps1"
    ))
    .unwrap();

    // A stock not in any composite: condition query joins to zero rows.
    db.execute("insert into stocks values ('LONER', 5.0)")
        .unwrap();
    db.txn(|t| {
        t.exec("update stocks set price = 6.0 where symbol = 'LONER'", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 0);
}

#[test]
fn updated_column_filter_respected() {
    let db = Strip::new();
    db.execute_script("create table t (a int, b int); insert into t values (1, 1);")
        .unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let c = calls.clone();
    db.register_function("f", move |_| {
        c.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute("create rule r on t when updated b then execute f")
        .unwrap();

    // Update that changes only `a`: must not trigger.
    db.execute("update t set a = 2").unwrap();
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    // Update that changes `b`: triggers.
    db.execute("update t set b = 2").unwrap();
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

#[test]
fn insert_and_delete_events() {
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let inserts = Arc::new(AtomicU64::new(0));
    let deletes = Arc::new(AtomicU64::new(0));
    let (i2, d2) = (inserts.clone(), deletes.clone());
    db.register_function("on_ins", move |txn| {
        // The `evaluate` clause bound the inserted rows as `my_inserted`
        // (the §2 `foo` rule).
        let t = txn.bound("my_inserted").expect("bound table visible");
        i2.fetch_add(t.len() as u64, Ordering::SeqCst);
        Ok(())
    });
    db.register_function("on_del", move |_| {
        d2.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute(
        "create rule foo on t when inserted \
         then evaluate select * from inserted bind as my_inserted \
         execute on_ins",
    )
    .unwrap();
    db.execute("create rule bar on t when deleted then execute on_del")
        .unwrap();

    db.execute("insert into t values (1), (2), (3)").unwrap();
    db.drain();
    assert_eq!(inserts.load(Ordering::SeqCst), 3);
    db.execute("delete from t where x = 2").unwrap();
    db.drain();
    assert_eq!(deletes.load(Ordering::SeqCst), 1);
    assert!(db.take_errors().is_empty());
}

#[test]
fn commit_time_column_instantiated() {
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let seen = Arc::new(AtomicU64::new(u64::MAX));
    let s2 = seen.clone();
    db.register_function("f", move |txn| {
        let b = txn.bound("changes").expect("bound");
        let ct = b
            .schema()
            .index_of("commit_time")
            .expect("commit_time column");
        if let Value::Timestamp(t) = b.value(0, ct) {
            s2.store(*t, Ordering::SeqCst);
        }
        Ok(())
    });
    db.execute(
        "create rule r on t when inserted \
         then evaluate select x, commit_time from inserted bind as changes \
         execute f",
    )
    .unwrap();
    let before = db.now_us();
    db.execute("insert into t values (42)").unwrap();
    db.drain();
    let ct = seen.load(Ordering::SeqCst);
    assert!(ct != u64::MAX, "commit_time was instantiated");
    assert!(ct >= before && ct <= db.now_us());
}

#[test]
fn rollback_undoes_changes_and_fires_no_rules() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps1", calls.clone());
    db.execute(&format!(
        "create rule do_comps1 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps1"
    ))
    .unwrap();

    let r: Result<()> = db.txn(|t| {
        t.exec("update stocks set price = 99 where symbol = 'S1'", &[])?;
        Err(strip_core::Error::Other("boom".into()))
    });
    assert!(r.is_err());
    db.drain();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "aborted txn fires no rules"
    );
    let price = db
        .query("select price from stocks where symbol = 'S1'")
        .unwrap()
        .single("price")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(price, 30.0, "update rolled back");
}

#[test]
fn cascading_rules_fire() {
    // A rule on comp_prices triggered by the recompute action itself.
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps1", calls.clone());
    let cascades = Arc::new(AtomicU64::new(0));
    let c2 = cascades.clone();
    db.register_function("watch_comp", move |_| {
        c2.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute(&format!(
        "create rule do_comps1 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps1"
    ))
    .unwrap();
    db.execute("create rule watch on comp_prices when updated price then execute watch_comp")
        .unwrap();

    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(
        cascades.load(Ordering::SeqCst),
        1,
        "action triggered second rule"
    );
    assert!(db.take_errors().is_empty());
}

#[test]
fn bound_table_snapshot_semantics() {
    // The action reads condition-time values even if base data changed
    // between condition evaluation and action execution (§6.1).
    let db = figure4_db();
    let snapshot = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s2 = snapshot.clone();
    db.register_function("observe", move |txn| {
        let m = txn.bound("matches").unwrap();
        let np = m.schema().index_of("new_price").unwrap();
        for i in 0..m.len() {
            s2.lock().push(m.value(i, np).as_f64().unwrap());
        }
        Ok(())
    });
    db.execute(&format!(
        "create rule r on stocks when updated price {MATCHES_CONDITION} \
         then execute observe after 1.0 seconds"
    ))
    .unwrap();

    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    // Clobber the stock before the action runs. This fires the rule again
    // (non-unique => second task) but the FIRST task's bound table must
    // still show 31.
    db.txn(|t| {
        t.exec("update stocks set price = 1000 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();
    let vals = snapshot.lock();
    assert_eq!(vals.len(), 4, "two firings x two composite rows");
    assert_eq!(vals[0], 31.0);
    assert_eq!(vals[1], 31.0);
    assert_eq!(vals[2], 1000.0);
    assert_eq!(vals[3], 1000.0);
}

/// Run `db.drain()` on a helper thread and report whether it returned
/// within `timeout`, so a hung executor fails the test instead of hanging.
fn drains_within(db: &Strip, timeout: Duration) -> bool {
    let (done, finished) = mpsc::channel();
    let db = db.clone();
    let drainer = std::thread::spawn(move || {
        db.drain();
        let _ = done.send(());
    });
    let ok = finished.recv_timeout(timeout).is_ok();
    if ok {
        drainer.join().unwrap();
    }
    ok
}

#[test]
fn missing_user_function_reports_error() {
    // A missing function and one that inserts a row and then panics both end
    // their action as one reported error, on either executor: drain returns,
    // the insert is undone, and the bound table's bytes are released.
    let temp_class = MEM_CLASS_NAMES
        .iter()
        .position(|c| *c == "temp_tables")
        .unwrap();
    for on_pool in [false, true] {
        for func in ["ghost", "boom"] {
            let case = format!("on pool: {on_pool}, {func}");
            let db = if on_pool {
                Strip::builder().pool(1).build()
            } else {
                Strip::new()
            };
            db.execute_script("create table t (x int); create table audit (x int)")
                .unwrap();
            db.register_function("boom", |txn| {
                txn.exec("insert into audit values (1)", &[])?;
                panic!("boom went off");
            });
            db.execute(&format!(
                "create rule r on t when inserted \
                 then evaluate select * from inserted bind as batch execute {func}"
            ))
            .unwrap();
            db.execute("insert into t values (1)").unwrap();
            assert!(drains_within(&db, Duration::from_secs(10)), "{case}");
            let errors = db.take_errors();
            assert_eq!(errors.len(), 1, "{case}: {errors:?}");
            assert!(errors[0].contains("rule `r`"), "{case}: {errors:?}");
            assert!(errors[0].contains(func), "{case}: {errors:?}");
            let sql = "select count(*) as n from audit";
            let locked = db.txn(|t| t.query(sql, &[])).unwrap();
            let snapshot = db.read_txn(|t| t.query(sql, &[])).unwrap();
            assert_eq!(locked.single("n").unwrap().as_i64(), Some(0), "{case}");
            assert_eq!(snapshot.single("n").unwrap().as_i64(), Some(0), "{case}");
            let temp_bytes = db.memory_snapshot().class_bytes[temp_class];
            assert_eq!(temp_bytes, 0, "{case}");
        }
    }
}

#[test]
fn stats_track_recompute_tasks() {
    let db = figure4_db();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps3", calls.clone());
    db.execute(&format!(
        "create rule do_comps3 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps3 unique on comp after 1.0 seconds"
    ))
    .unwrap();
    run_t1_t2(&db);
    db.drain();
    let stats = db.stats();
    let rk = stats.kind("recompute:compute_comps3");
    assert_eq!(rk.count, 2);
    assert!(rk.total_us > 0);
    assert!(stats.busy_us >= rk.total_us);
}

#[test]
fn pool_mode_end_to_end() {
    // The same rule flow on the wall-clock worker pool.
    let db = Strip::builder().pool(2).build();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create table comps_list (comp str, symbol str, weight float); \
         create index ix_cl_symbol on comps_list (symbol); \
         create table comp_prices (comp str, price float); \
         create index ix_cp_comp on comp_prices (comp); \
         insert into stocks values ('S1', 30); \
         insert into comps_list values ('C1','S1',1.0); \
         insert into comp_prices values ('C1', 30.0);",
    )
    .unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    register_compute_comps(&db, "compute_comps2", calls.clone());
    db.execute(&format!(
        "create rule do_comps2 on stocks when updated price {MATCHES_CONDITION} \
         then execute compute_comps2 unique after 0.01 seconds"
    ))
    .unwrap();
    db.txn(|t| {
        t.exec("update stocks set price = 35 where symbol = 'S1'", &[])?;
        Ok(())
    })
    .unwrap();
    // Wait out the 10 ms window plus execution.
    std::thread::sleep(std::time::Duration::from_millis(50));
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert!(
        (db.query("select price from comp_prices where comp = 'C1'")
            .unwrap()
            .single("price")
            .unwrap()
            .as_f64()
            .unwrap()
            - 35.0)
            .abs()
            < 1e-9
    );
    assert!(db.take_errors().is_empty());
}

#[test]
fn two_rules_sharing_a_function_merge_into_one_transaction() {
    // §2: "the bound tables of all rules executing the same user function
    // are combined (and must be defined identically)". Two rules on two
    // different tables execute `audit_changes`; firings within the window
    // merge into ONE pending transaction.
    let db = Strip::new();
    db.execute_script(
        "create table t1 (k str, v float); \
         create table t2 (k str, v float); \
         insert into t1 values ('a', 1.0); \
         insert into t2 values ('b', 2.0);",
    )
    .unwrap();
    let rows_seen = Arc::new(AtomicU64::new(0));
    let calls = Arc::new(AtomicU64::new(0));
    let (r2, c2) = (rows_seen.clone(), calls.clone());
    db.register_function("audit_changes", move |txn| {
        c2.fetch_add(1, Ordering::SeqCst);
        let b = txn.bound("changes").unwrap();
        r2.fetch_add(b.len() as u64, Ordering::SeqCst);
        Ok(())
    });
    // Identically-defined bound tables, as the paper requires.
    for (rule, table) in [("r1", "t1"), ("r2", "t2")] {
        db.execute(&format!(
            "create rule {rule} on {table} when updated v \
             if select new.k as k, new.v as v from new bind as changes \
             then execute audit_changes unique after 1.0 seconds"
        ))
        .unwrap();
    }

    db.execute("update t1 set v = 10").unwrap();
    db.execute("update t2 set v = 20").unwrap();
    // Both rules fired, but only one pending transaction exists.
    assert_eq!(db.pending_tasks(), 1);
    assert_eq!(db.pending_unique("audit_changes"), 1);
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(
        rows_seen.load(Ordering::SeqCst),
        2,
        "rows from both rules merged"
    );
    assert!(db.take_errors().is_empty());
}

#[test]
fn rules_sharing_function_with_mismatched_bound_tables_error() {
    // If a second rule binds a differently-defined table for the same
    // function, the merge is rejected and surfaces as an abort of the
    // triggering transaction.
    let db = Strip::new();
    db.execute_script(
        "create table t1 (k str, v float); \
         create table t2 (k str, v float); \
         insert into t1 values ('a', 1.0); \
         insert into t2 values ('b', 2.0);",
    )
    .unwrap();
    db.register_function("f", |_| Ok(()));
    db.execute(
        "create rule r1 on t1 when updated v \
         if select new.k as k, new.v as v from new bind as changes \
         then execute f unique after 1.0 seconds",
    )
    .unwrap();
    db.execute(
        "create rule r2 on t2 when updated v \
         if select new.k as k from new bind as changes \
         then execute f unique after 1.0 seconds",
    )
    .unwrap();

    db.execute("update t1 set v = 10").unwrap();
    // The second firing tries to append a 1-column `changes` to the pending
    // 2-column one: the triggering transaction aborts with a bound-table
    // mismatch rather than corrupting the batch.
    let err = db.execute("update t2 set v = 20").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("mismatch"), "unexpected error: {msg}");
    // The pending transaction from the first firing is intact.
    assert_eq!(db.pending_unique("f"), 1);
    db.drain();
    assert!(db.take_errors().is_empty());
}

#[test]
fn firing_makes_one_batched_plan_invocation_per_transition_table() {
    // The batch executor evaluates a rule condition in ONE vectorized plan
    // invocation over the whole transition table, however many rows the
    // triggering transaction touched. The sink's `plan_choices` counter
    // increments once per join-pipeline invocation, so a 20-row insert must
    // move it exactly as far as a 1-row insert.
    let db = Strip::new();
    db.execute("create table t (x int, y int)").unwrap();
    let rows_seen = Arc::new(AtomicU64::new(0));
    let seen = rows_seen.clone();
    db.register_function("f", move |txn| {
        let m = txn.bound("m").expect("condition binds m");
        seen.fetch_add(m.len() as u64, Ordering::SeqCst);
        Ok(())
    });
    db.execute(
        "create rule r_batch on t when inserted \
         if select * from inserted bind as m then execute f",
    )
    .unwrap();

    let invocations_for = |n: usize| -> u64 {
        let values: Vec<String> = (0..n).map(|i| format!("({i}, {})", i * 2)).collect();
        let before = db.obs().snapshot().plan_choices;
        db.execute(&format!("insert into t values {}", values.join(", ")))
            .unwrap();
        db.drain();
        db.obs().snapshot().plan_choices - before
    };

    let single = invocations_for(1);
    let batch = invocations_for(20);
    assert!(
        single >= 1,
        "condition evaluation must run the join pipeline"
    );
    assert_eq!(
        batch, single,
        "a 20-row transition table must cost the same number of plan \
         invocations as a 1-row one (one vectorized pass, not per-row)"
    );
    assert!(db.take_errors().is_empty());
    assert_eq!(rows_seen.load(Ordering::SeqCst), 21, "all rows bound");
}

#[test]
fn failed_condition_after_a_unique_dispatch_orphans_no_payload() {
    // `r1` fires first and would open `f`'s pending transaction; `r2`'s
    // condition then divides by zero and the commit aborts. No payload may
    // stay pending without a task: later firings must not merge into one
    // that never runs.
    let db = Strip::new();
    db.execute_script("create table t (k int, v int); insert into t values (1, 0);")
        .unwrap();
    let rows_seen = Arc::new(AtomicU64::new(0));
    let seen = rows_seen.clone();
    db.register_function("f", move |txn| {
        seen.fetch_add(txn.bound("changes").unwrap().len() as u64, Ordering::SeqCst);
        Ok(())
    });
    db.register_function("g", |_| Ok(()));
    db.execute(
        "create rule r1 on t when updated v \
         if select new.k as k, new.v as v from new bind as changes \
         then execute f unique after 1.0 seconds",
    )
    .unwrap();
    db.execute(
        "create rule r2 on t when updated v \
         if select 1 / (new.v - 5) as q from new \
         then execute g",
    )
    .unwrap();

    let err = db.execute("update t set v = 5").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    assert_eq!(
        db.pending_unique("f"),
        0,
        "the aborted commit left f pending"
    );
    db.execute("update t set v = 6").unwrap();
    assert_eq!(db.pending_unique("f"), 1);
    db.drain();
    assert_eq!(db.pending_unique("f"), 0);
    assert_eq!(
        rows_seen.load(Ordering::SeqCst),
        1,
        "f ran on the good commit's row"
    );
    assert!(db.take_errors().is_empty());
}

#[test]
fn failed_partition_merge_orphans_no_new_partition() {
    // One firing of `r2` has partitions k=2 (new) and k=1, which cannot
    // merge into r1's differently defined pending payload. Dispatch checks
    // every partition first, so the abort leaves only k=1 pending.
    let db = Strip::new();
    db.execute_script(
        "create table t1 (k int, v float); \
         create table t2 (k int, v float); \
         insert into t1 values (1, 1.0); \
         insert into t2 values (2, 2.0), (1, 1.0);",
    )
    .unwrap();
    db.register_function("f", |_| Ok(()));
    db.execute(
        "create rule r1 on t1 when updated v \
         if select new.k as k, new.v as v from new bind as changes \
         then execute f unique on k after 1.0 seconds",
    )
    .unwrap();
    db.execute(
        "create rule r2 on t2 when updated v \
         if select new.k as k from new bind as changes \
         then execute f unique on k after 1.0 seconds",
    )
    .unwrap();

    db.execute("update t1 set v = 10").unwrap();
    let only_k1 = vec![vec![Value::Int(1)]];
    assert_eq!(db.pending_unique_partitions("f"), only_k1);
    let err = db
        .txn(|t| {
            t.exec("update t2 set v = 20 where k = 2", &[])?;
            t.exec("update t2 set v = 10 where k = 1", &[])?;
            Ok(())
        })
        .unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
    assert_eq!(db.pending_unique_partitions("f"), only_k1);
    db.drain();
    assert_eq!(db.pending_unique("f"), 0);
    assert!(db.take_errors().is_empty());
}

#[test]
fn mismatched_rules_in_one_commit_orphan_no_payload() {
    // `r1` and `r2` fire in the same commit and execute `f` with
    // differently defined bound tables, so `r2` cannot merge into the
    // payload `r1` would open. Both are checked before either is applied.
    let db = Strip::new();
    db.execute_script("create table t (k int, v float); insert into t values (1, 1.0);")
        .unwrap();
    db.register_function("f", |_| Ok(()));
    for (rule, items) in [("r1", "new.k as k, new.v as v"), ("r2", "new.k as k")] {
        db.execute(&format!(
            "create rule {rule} on t when updated v \
             if select {items} from new bind as changes \
             then execute f unique after 1.0 seconds"
        ))
        .unwrap();
    }
    let err = db.execute("update t set v = 2").unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
    assert_eq!(db.pending_unique("f"), 0);
    assert_eq!(db.pending_tasks(), 0);
}

#[test]
fn started_action_holds_the_only_pins_and_frees_them() {
    // The action takes its payload's bound tables instead of copying them:
    // while it runs, the superseded S1 version is pinned once per bound
    // tuple, and once it finishes nothing pins it.
    let db = figure4_db();
    type Seen = (Vec<usize>, Vec<std::sync::Weak<strip_storage::RecordData>>);
    let seen: Arc<parking_lot::Mutex<Seen>> = Arc::default();
    let s2 = seen.clone();
    db.register_function("observe", move |txn| {
        let m = txn.bound("matches").unwrap();
        let old = [Value::str("S1"), Value::Float(30.0)];
        let mut s = s2.lock();
        for t in m.tuples() {
            for r in t.ptrs().iter().filter(|r| r.values() == old) {
                s.0.push(Arc::strong_count(r));
                s.1.push(Arc::downgrade(r));
            }
        }
        Ok(())
    });
    db.execute(&format!(
        "create rule r on stocks when updated price {MATCHES_CONDITION} \
         then execute observe unique after 1.0 seconds"
    ))
    .unwrap();

    // S1 belongs to C1 and C2: two bound tuples point at its old version.
    db.execute("update stocks set price = 31 where symbol = 'S1'")
        .unwrap();
    db.drain();
    let (counts, weaks) = std::mem::take(&mut *seen.lock());
    assert_eq!(counts, vec![2, 2], "only the action's two tuples pin it");
    assert!(
        weaks.iter().all(|w| w.upgrade().is_none()),
        "freed after the action"
    );
    assert!(db.take_errors().is_empty());
}

/// An [`Env`](strip_sql::exec::Env) over a bare catalog that bills a
/// [`CountingMeter`](strip_storage::CountingMeter): the rule engine's
/// commit-time work, counted op by op.
struct MeteredEnv {
    catalog: strip_storage::Catalog,
    meter: strip_storage::CountingMeter,
}

impl strip_sql::exec::Env for MeteredEnv {
    fn meter(&self) -> &dyn strip_storage::Meter {
        &self.meter
    }
    fn relation(&self, name: &str) -> Option<strip_sql::exec::Rel> {
        self.catalog
            .table(name)
            .ok()
            .map(strip_sql::exec::Rel::Standard)
    }
    fn scalar_fn(&self, _: &str) -> Option<strip_sql::expr::ScalarFn> {
        None
    }
    fn dml_insert(&self, _: &str, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!("rule processing writes nothing")
    }
    fn dml_update(&self, _: &str, _: strip_storage::RowId, _: Vec<Value>) -> strip_sql::Result<()> {
        unreachable!("rule processing writes nothing")
    }
    fn dml_delete(&self, _: &str, _: strip_storage::RowId) -> strip_sql::Result<()> {
        unreachable!("rule processing writes nothing")
    }
}

/// The PTA's schema in small: stocks, composites and options.
const PTA_SCHEMA: &str = "create table stocks (symbol str, price float); \
     create index ix_stocks_symbol on stocks (symbol); \
     create table comps_list (comp str, symbol str, weight float); \
     create index ix_cl_symbol on comps_list (symbol); \
     create table options_list (option_symbol str, stock_symbol str, \
                                strike float, expiration float); \
     create index ix_ol_stock on options_list (stock_symbol);";

/// The paper's two recommended rules: `unique on comp` over the
/// `comps_list ⋈ new ⋈ old` matches, `unique on stock_symbol` over the
/// `options_list ⋈ new` matches.
const PTA_RULES: [&str; 2] = [
    "create rule do_comps on stocks when updated price \
     if select comp, comps_list.symbol as symbol, weight, \
               old.price as old_price, new.price as new_price \
        from comps_list, new, old \
        where comps_list.symbol = new.symbol \
          and new.execute_order = old.execute_order \
        bind as matches \
     then execute compute_comps3 unique on comp after 1 seconds",
    "create rule do_options on stocks when updated price \
     if select option_symbol, stock_symbol, strike, expiration, \
               new.price as new_price \
        from options_list, new \
        where options_list.stock_symbol = new.symbol \
        bind as matches \
     then execute compute_options_by_stock unique on stock_symbol \
          after 1 seconds",
];

const PTA_STOCKS: [(&str, f64); 4] = [("S1", 30.0), ("S2", 40.0), ("S3", 50.0), ("S4", 60.0)];
const PTA_COMPS: [(&str, &str, f64); 5] = [
    ("C1", "S1", 0.5),
    ("C1", "S3", 0.5),
    ("C2", "S1", 0.3),
    ("C2", "S2", 0.7),
    ("C3", "S2", 1.0),
];
const PTA_OPTIONS: [(&str, &str); 4] = [("O1", "S1"), ("O2", "S1"), ("O3", "S2"), ("O4", "S4")];

/// The two update commits: the first fires both rules into no payload
/// (every partition new); the second updates S1 twice, so both firings
/// carry repeated keys, and merges into the pending C1, C2 and S1
/// payloads beside a new S4 one.
const PTA_COMMITS: [&[(&str, f64)]; 2] = [
    &[("S1", 31.0), ("S2", 39.0)],
    &[("S1", 32.0), ("S3", 51.0), ("S1", 33.0), ("S4", 61.0)],
];

#[test]
fn pta_update_commit_charges_are_pinned() {
    use strip_storage::Op::*;
    use strip_storage::{CountingMeter, DataType, IndexKind, Schema};

    // The rule engine's commit-time work (event detection, transition
    // tables, both condition joins, bound tables, unique dispatch), per
    // `Op` on a counting meter.
    let env = MeteredEnv {
        catalog: strip_storage::Catalog::new(),
        meter: CountingMeter::new(),
    };
    let table = |name: &str, cols: &[(&str, DataType)], ix: &str| {
        let t = env
            .catalog
            .create_table(name, Schema::of(cols).into_ref())
            .unwrap();
        t.create_index(format!("ix_{name}"), ix, IndexKind::Hash)
            .unwrap();
        t
    };
    let (s, f) = (DataType::Str, DataType::Float);
    let stocks = table("stocks", &[("symbol", s), ("price", f)], "symbol");
    let comps = table(
        "comps_list",
        &[("comp", s), ("symbol", s), ("weight", f)],
        "symbol",
    );
    let options = table(
        "options_list",
        &[
            ("option_symbol", s),
            ("stock_symbol", s),
            ("strike", f),
            ("expiration", f),
        ],
        "stock_symbol",
    );
    let mut ids = HashMap::new();
    for (sym, price) in PTA_STOCKS {
        let (id, _) = stocks.insert(vec![sym.into(), price.into()]).unwrap();
        ids.insert(sym, id);
    }
    for (comp, sym, w) in PTA_COMPS {
        comps
            .insert(vec![comp.into(), sym.into(), w.into()])
            .unwrap();
    }
    for (opt, sym) in PTA_OPTIONS {
        options
            .insert(vec![opt.into(), sym.into(), 35.0.into(), 0.5.into()])
            .unwrap();
    }
    let engine = strip_rules::RuleEngine::new();
    for sql in PTA_RULES {
        let strip_sql::Statement::CreateRule(ast) = strip_sql::parse_statement(sql).unwrap() else {
            panic!("not a rule: {sql}")
        };
        engine
            .add_rule(strip_rules::CompiledRule::compile(&ast).unwrap())
            .unwrap();
    }
    let want: [&[(strip_storage::Op, u64)]; 2] = [
        &[
            (OpenCursor, 3),
            (FetchCursor, 7),
            (CloseCursor, 3),
            (IndexProbe, 4),
            (TempTupleBuild, 18),
            (TempTupleRead, 6),
            (EvalExpr, 12),
            (UniqueHashOp, 5),
            (RuleCheck, 2),
            (LogScanRecord, 2),
        ],
        &[
            (OpenCursor, 4),
            (FetchCursor, 9),
            (CloseCursor, 4),
            (IndexProbe, 4),
            (TempTupleBuild, 37),
            (TempTupleRead, 12),
            (EvalExpr, 40),
            (UniqueHashOp, 4),
            (RuleCheck, 2),
            (LogScanRecord, 4),
        ],
    ];
    let mut spawned = Vec::new();
    for (n, commit) in PTA_COMMITS.iter().enumerate() {
        let mut log = strip_txn::TxnLog::new();
        for (sym, price) in commit.iter() {
            let id = ids[sym];
            let (old, new) = stocks
                .update(id, vec![(*sym).into(), (*price).into()])
                .unwrap();
            log.log_update("stocks", id, old, new);
        }
        let before = env.meter.snapshot();
        engine
            .process_commit(&env, &log, 1_000 * (n as u64 + 1), 0, &mut |sa| {
                spawned.push((sa.func, sa.payload.unique_key.clone()))
            })
            .unwrap();
        let charged: Vec<(strip_storage::Op, u64)> = env
            .meter
            .snapshot()
            .into_iter()
            .map(|(op, c)| (op, c - before.get(&op).copied().unwrap_or(0)))
            .filter(|(_, c)| *c > 0)
            .collect();
        assert_eq!(charged, want[n], "commit {n}'s rule processing charges");
    }
    // Five payloads from the first commit, one (S4) from the second.
    let key = |k: &str| vec![Value::str(k)];
    assert_eq!(
        spawned,
        [
            ("compute_comps3".to_string(), key("C1")),
            ("compute_comps3".to_string(), key("C2")),
            ("compute_comps3".to_string(), key("C3")),
            ("compute_options_by_stock".to_string(), key("S1")),
            ("compute_options_by_stock".to_string(), key("S2")),
            ("compute_options_by_stock".to_string(), key("S4")),
        ]
    );
    assert_eq!(engine.unique().pending_count("compute_comps3"), 3);
    assert_eq!(engine.unique().pending_count("compute_options_by_stock"), 3);

    // The same two commits through the facade: each update transaction's
    // charged virtual time (locks, probes, updates, commit, rule work).
    let db = Strip::new();
    db.execute_script(PTA_SCHEMA).unwrap();
    let mut load = Vec::new();
    for (sym, price) in PTA_STOCKS {
        load.push(format!("insert into stocks values ('{sym}', {price})"));
    }
    for (comp, sym, w) in PTA_COMPS {
        load.push(format!(
            "insert into comps_list values ('{comp}', '{sym}', {w})"
        ));
    }
    for (opt, sym) in PTA_OPTIONS {
        load.push(format!(
            "insert into options_list values ('{opt}', '{sym}', 35, 0.5)"
        ));
    }
    db.execute_script(&load.join("; ")).unwrap();
    for sql in PTA_RULES {
        db.execute(sql).unwrap();
    }
    let mut charged_us = Vec::new();
    for (n, commit) in PTA_COMMITS.iter().enumerate() {
        let kind = format!("commit{n}");
        db.txn_named(&kind, |t| {
            for (sym, price) in commit.iter() {
                t.exec(
                    "update stocks set price = ? where symbol = ?",
                    &[(*price).into(), (*sym).into()],
                )?;
            }
            Ok(())
        })
        .unwrap();
        charged_us.push(db.stats().by_kind[&kind].total_us);
    }
    assert_eq!(charged_us, [743, 1158]);
    assert_eq!(db.pending_unique("compute_comps3"), 3);
    assert_eq!(db.pending_unique("compute_options_by_stock"), 3);
    assert!(db.take_errors().is_empty());
}
