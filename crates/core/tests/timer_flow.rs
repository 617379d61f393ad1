//! Periodic-timer tests (`CREATE TIMER`): the paper's §3 notes that
//! periodic recomputation is supported by STRIP (e.g. refreshing
//! `stock_stdev` outside trading hours).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strip_core::Strip;

#[test]
fn limited_timer_fires_exactly_n_times() {
    let db = Strip::new();
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    db.register_function("tick", move |_| {
        f.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute("create timer t every 0.5 seconds execute tick limit 4")
        .unwrap();
    assert_eq!(db.timer_names(), vec!["t".to_string()]);
    db.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 4);
    assert!(db.timer_names().is_empty(), "exhausted timer is removed");
    assert!(db.take_errors().is_empty());
    // Firings happened at ~0.5s spacing on the virtual clock.
    assert!(db.now_us() >= 2_000_000);
}

#[test]
fn unlimited_timer_fires_until_dropped() {
    let db = Strip::new();
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    db.register_function("tick", move |_| {
        f.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute("create timer heartbeat every 1.0 seconds execute tick")
        .unwrap();
    // advance_to is the right way to run an unlimited timer.
    let t0 = db.now_us();
    db.advance_to(t0 + 3_500_000);
    assert_eq!(fired.load(Ordering::SeqCst), 3);
    db.execute("drop timer heartbeat").unwrap();
    db.drain(); // terminates: the queued firing sees the dropped timer
    assert_eq!(fired.load(Ordering::SeqCst), 3);
}

#[test]
fn timer_function_runs_in_a_real_transaction() {
    // A timer that periodically recomputes stock_stdev-style derived data.
    let db = Strip::new();
    db.execute_script(
        "create table samples (symbol str, r float); \
         create table stock_stdev (symbol str, stdev float); \
         insert into samples values ('A', 0.1), ('A', 0.3), ('A', 0.2); \
         insert into stock_stdev values ('A', 0.0);",
    )
    .unwrap();
    db.register_function("recompute_stdev", |txn| {
        // The periodic recomputation the paper mentions for stock_stdev
        // (§3), using the engine's stddev aggregate.
        let sd = txn
            .query(
                "select stddev(r) as sd from samples where symbol = 'A'",
                &[],
            )?
            .single("sd")?
            .clone();
        txn.exec("update stock_stdev set stdev = ? where symbol = 'A'", &[sd])?;
        Ok(())
    });
    db.execute("create timer sd every 2.0 seconds execute recompute_stdev limit 1")
        .unwrap();
    db.drain();
    let sd = db
        .query("select stdev from stock_stdev where symbol = 'A'")
        .unwrap()
        .single("stdev")
        .unwrap()
        .as_f64()
        .unwrap();
    // mean 0.2, deviations ±0.1, 0 -> sqrt(0.02/3).
    assert!((sd - (0.02f64 / 3.0).sqrt()).abs() < 1e-12);
    assert!(db.take_errors().is_empty());
}

#[test]
fn timer_errors_are_reported_and_duplicates_rejected() {
    let db = Strip::new();
    db.execute("create timer t every 1 seconds execute ghost limit 1")
        .unwrap();
    assert!(db
        .execute("create timer t every 1 seconds execute ghost")
        .is_err());
    db.drain();
    let errors = db.take_errors();
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("ghost"));
    assert!(db.execute("drop timer nope").is_err());

    // A panicking function is reported like an error: the timer keeps
    // firing and logs one error per firing.
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    db.register_function("flaky", move |_| {
        f.fetch_add(1, Ordering::SeqCst);
        panic!("flaky went off");
    });
    db.execute("create timer p every 1 seconds execute flaky limit 3")
        .unwrap();
    db.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 3);
    let errors = db.take_errors();
    assert_eq!(errors.len(), 3, "{errors:?}");
    for e in &errors {
        assert!(
            e.contains("timer `p`") && e.contains("flaky went off"),
            "{e}"
        );
    }
}

#[test]
fn timer_actions_can_trigger_rules() {
    // A timer writes base data; a rule on that table fires as usual.
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let rule_fired = Arc::new(AtomicU64::new(0));
    let r = rule_fired.clone();
    db.register_function("on_insert", move |_| {
        r.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.register_function("writer", |txn| {
        txn.exec("insert into t values (1)", &[])?;
        Ok(())
    });
    db.execute("create rule w on t when inserted then execute on_insert")
        .unwrap();
    db.execute("create timer wr every 1 seconds execute writer limit 2")
        .unwrap();
    db.drain();
    assert_eq!(rule_fired.load(Ordering::SeqCst), 2);
    assert!(db.take_errors().is_empty());
}
