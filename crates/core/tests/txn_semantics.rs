//! Transaction-semantics tests: read-your-writes, multi-statement atomicity,
//! materialized views, and rule interaction with mixed DML.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strip_core::{Error, Strip, Txn};
use strip_sql::exec::ResultSet;

#[test]
fn read_your_own_writes_within_a_transaction() {
    let db = Strip::new();
    db.execute_script("create table t (k int, v int); insert into t values (1, 10);")
        .unwrap();
    db.txn(|t| {
        t.exec("update t set v = 20 where k = 1", &[])?;
        let v = t.query("select v from t where k = 1", &[])?;
        assert_eq!(v.single("v")?.as_i64(), Some(20), "txn sees its own update");
        t.exec("insert into t values (2, 30)", &[])?;
        let n = t.query("select count(*) as n from t", &[])?;
        assert_eq!(n.single("n")?.as_i64(), Some(2), "txn sees its own insert");
        Ok(())
    })
    .unwrap();
}

#[test]
fn strip_query_rejects_non_select_text_before_running_it() {
    let db = Strip::new();
    db.execute_script("create table t (k int, v int); insert into t values (1, 1);")
        .unwrap();
    let update = "update t set v = 99 where k = 1";
    let e = db.query(update).unwrap_err();
    assert_eq!(e.to_string(), format!("not a query: `{update}`"));
    assert!(db.query("create table u (a int)").is_err());
    let v = db.query("select v from t where k = 1").unwrap();
    assert_eq!(
        v.single("v").unwrap().as_i64(),
        Some(1),
        "the update never ran"
    );
    assert!(
        db.catalog().table("u").is_err(),
        "the table was never created"
    );
    assert_eq!(db.locks_held(), 0);
}

/// `(k, v)` pairs of a `select k, v` result.
fn kv_pairs(rs: &ResultSet) -> Vec<(i64, i64)> {
    (0..rs.len())
        .map(|i| {
            (
                rs.value(i, "k").unwrap().as_i64().unwrap(),
                rs.value(i, "v").unwrap().as_i64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn abort_rolls_back_mixed_dml_in_reverse() {
    // Both ways a body can leave without committing — an `Err`, or a panic
    // that reaches the caller — undo the same mixed DML on either executor.
    for on_pool in [false, true] {
        for panics in [false, true] {
            let case = format!("on pool: {on_pool}, panics: {panics}");
            let db = if on_pool {
                Strip::builder().pool(1).build()
            } else {
                Strip::new()
            };
            db.execute_script(
                "create table t (k int, v int); \
                 insert into t values (1, 10), (2, 20), (3, 30);",
            )
            .unwrap();
            let body = |t: &mut Txn<'_>| -> Result<(), Error> {
                t.exec("insert into t values (4, 40)", &[])?;
                t.exec("update t set v = 99 where k = 1", &[])?;
                t.exec("delete from t where k = 2", &[])?;
                t.exec("update t set v = 77 where k = 3", &[])?;
                if panics {
                    panic!("abort by panic");
                }
                Err(Error::Other("abort".into()))
            };
            match catch_unwind(AssertUnwindSafe(|| db.txn(body))) {
                Ok(r) => assert!(!panics && r.is_err(), "{case}"),
                Err(_) => assert!(panics, "{case}"),
            }
            let sql = "select k, v from t order by k";
            let locked = kv_pairs(&db.txn(|t| t.query(sql, &[])).unwrap());
            let snapshot = kv_pairs(&db.read_txn(|t| t.query(sql, &[])).unwrap());
            assert_eq!(locked, vec![(1, 10), (2, 20), (3, 30)], "{case}");
            assert_eq!(snapshot, locked, "{case}");
            assert_eq!(db.locks_held(), 0, "{case}");
            assert_eq!(db.active_snapshots(), 0, "{case}");
        }
    }
}

#[test]
fn materialized_view_creates_backing_table() {
    let db = Strip::new();
    db.execute_script(
        "create table sales (region str, amount float); \
         insert into sales values ('east', 10.0), ('west', 5.0), ('east', 2.5);",
    )
    .unwrap();
    db.execute(
        "create materialized view region_totals as \
         select region, sum(amount) as total from sales group by region",
    )
    .unwrap();
    // The backing table is queryable and has the view's contents.
    let rs = db
        .query("select region, total from region_totals order by region")
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.value(0, "total").unwrap().as_f64(), Some(12.5));
    // And, as in the paper's usage, rules can maintain it like any table.
    let db2 = db.clone();
    db.register_function("maintain", move |txn| {
        let b = txn.bound("ins").unwrap();
        for i in 0..b.len() {
            let s = b.schema();
            txn.exec(
                "update region_totals set total += ? where region = ?",
                &[
                    b.value(i, s.index_of("amount").unwrap()).clone(),
                    b.value(i, s.index_of("region").unwrap()).clone(),
                ],
            )?;
        }
        Ok(())
    });
    let _ = db2;
    db.execute(
        "create rule maintain_totals on sales when inserted \
         then evaluate select region, amount from inserted bind as ins \
         execute maintain",
    )
    .unwrap();
    db.execute("insert into sales values ('west', 4.0)")
        .unwrap();
    db.drain();
    let rs = db
        .query("select total from region_totals where region = 'west'")
        .unwrap();
    assert_eq!(rs.single("total").unwrap().as_f64(), Some(9.0));
    assert!(db.take_errors().is_empty());
}

#[test]
fn mixed_insert_update_delete_triggers_matching_rules_once_each() {
    let db = Strip::new();
    db.execute_script("create table t (k int, v int); insert into t values (1, 1), (2, 2);")
        .unwrap();
    let counts = Arc::new([
        AtomicU64::new(0), // inserted
        AtomicU64::new(0), // deleted
        AtomicU64::new(0), // updated
    ]);
    for (i, (name, event)) in [("fi", "inserted"), ("fd", "deleted"), ("fu", "updated")]
        .iter()
        .enumerate()
    {
        let c = counts.clone();
        db.register_function(name, move |_| {
            c[i].fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        db.execute(&format!(
            "create rule r_{name} on t when {event} then execute {name}"
        ))
        .unwrap();
    }
    // One transaction doing all three kinds of change: each rule fires once
    // (a rule triggers per transaction, not per row).
    db.txn(|t| {
        t.exec("insert into t values (3, 3)", &[])?;
        t.exec("update t set v = 9 where k = 1", &[])?;
        t.exec("delete from t where k = 2", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();
    assert_eq!(counts[0].load(Ordering::SeqCst), 1);
    assert_eq!(counts[1].load(Ordering::SeqCst), 1);
    assert_eq!(counts[2].load(Ordering::SeqCst), 1);
    assert!(db.take_errors().is_empty());
}

#[test]
fn insert_then_delete_in_one_txn_appears_in_both_transition_tables() {
    // Paper §2: no net-effect reduction — the "audit trail".
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let seen = Arc::new(parking_lot_counts::Counts::default());
    let s2 = seen.clone();
    db.register_function("audit", move |txn| {
        s2.ins
            .fetch_add(txn.bound("i").unwrap().len() as u64, Ordering::SeqCst);
        s2.del
            .fetch_add(txn.bound("d").unwrap().len() as u64, Ordering::SeqCst);
        Ok(())
    });
    db.execute(
        "create rule r on t when inserted or deleted \
         then evaluate select * from inserted bind as i, \
                       select * from deleted bind as d \
         execute audit",
    )
    .unwrap();
    db.txn(|t| {
        t.exec("insert into t values (7)", &[])?;
        t.exec("delete from t where x = 7", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();
    assert_eq!(seen.ins.load(Ordering::SeqCst), 1);
    assert_eq!(seen.del.load(Ordering::SeqCst), 1);
    assert!(db.take_errors().is_empty());
}

mod parking_lot_counts {
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    pub struct Counts {
        pub ins: AtomicU64,
        pub del: AtomicU64,
    }
}

#[test]
fn params_flow_through_execute_with() {
    let db = Strip::new();
    db.execute("create table t (name str, score float)")
        .unwrap();
    db.execute_with(
        "insert into t values (?, ?), (?, ?)",
        &["a".into(), 1.5.into(), "b".into(), 2.5.into()],
    )
    .unwrap();
    let rs = db
        .execute_with("select score from t where name = ?", &["b".into()])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rs.single("score").unwrap().as_f64(), Some(2.5));
}

#[test]
fn drop_rule_stops_future_firings_but_not_pending_actions() {
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    db.register_function("f", move |_| {
        f.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute("create rule r on t when inserted then execute f unique after 1.0 seconds")
        .unwrap();
    db.execute("insert into t values (1)").unwrap();
    assert_eq!(db.pending_tasks(), 1);
    db.execute("drop rule r").unwrap();
    // The pending action still runs (it was already dispatched)...
    db.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    // ...but new changes no longer fire anything.
    db.execute("insert into t values (2)").unwrap();
    db.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert!(db.take_errors().is_empty());
}

#[test]
fn consistency_check_passes_after_heavy_dml() {
    let db = Strip::new();
    db.execute_script(
        "create table t (k int, v float); \
         create index ik on t (k); \
         create index iv on t (v) using rbtree;",
    )
    .unwrap();
    for i in 0..200i64 {
        db.execute_with(
            "insert into t values (?, ?)",
            &[i.into(), (i as f64).into()],
        )
        .unwrap();
    }
    db.execute("update t set v = v * 2 where k between 50 and 150")
        .unwrap();
    db.execute("delete from t where k in (1, 3, 5, 7)").unwrap();
    db.drain();
    assert!(db.check_consistency().is_empty());
}

#[test]
fn plain_views_expand_on_read() {
    let db = Strip::new();
    db.execute_script(
        "create table sales (region str, amount float); \
         insert into sales values ('east', 10.0), ('west', 5.0);",
    )
    .unwrap();
    db.execute(
        "create view totals as \
         select region, sum(amount) as total from sales group by region",
    )
    .unwrap();
    let rs = db
        .query("select total from totals where region = 'east'")
        .unwrap();
    assert_eq!(rs.single("total").unwrap().as_f64(), Some(10.0));
    // Unlike a materialized view, a plain view is never stale.
    db.execute("insert into sales values ('east', 7.0)")
        .unwrap();
    let rs = db
        .query("select total from totals where region = 'east'")
        .unwrap();
    assert_eq!(rs.single("total").unwrap().as_f64(), Some(17.0));
    // Views can be joined with tables.
    let rs = db
        .query(
            "select count(*) as n from totals, sales \
             where totals.region = sales.region",
        )
        .unwrap();
    assert_eq!(rs.single("n").unwrap().as_i64(), Some(3));
    // Views are read-only.
    assert!(db.execute("update totals set total = 0").is_err());
}

#[test]
fn rule_deactivation_suppresses_firing_until_reenabled() {
    let db = Strip::new();
    db.execute("create table t (x int)").unwrap();
    let fired = Arc::new(AtomicU64::new(0));
    let f = fired.clone();
    db.register_function("f", move |_| {
        f.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute("create rule r on t when inserted then execute f")
        .unwrap();
    assert!(db.rule_enabled("r"));

    db.set_rule_enabled("r", false).unwrap();
    db.execute("insert into t values (1)").unwrap();
    db.drain();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "disabled rule must not fire"
    );

    db.set_rule_enabled("R", true).unwrap(); // case-insensitive
    db.execute("insert into t values (2)").unwrap();
    db.drain();
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert!(db.set_rule_enabled("nope", false).is_err());
}
