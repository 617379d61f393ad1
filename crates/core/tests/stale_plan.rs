//! Regression test for the KNOWN_FAILURES.md caveat on cached
//! rule-condition plans.
//!
//! Rule create/drop is not schema DDL, so it does not bump the catalog
//! epoch — a plan cached under the key `\0rule:<name>:cond:<i>` survives a
//! drop-and-recreate of the same rule name. If the recreated rule binds a
//! transition table with a *different arity*, the cached physical plan no
//! longer matches the data it is run over. The executor must detect the
//! drift, raise `Stale`, invalidate the entry, and replan — transparently,
//! with results identical to a never-cached rule.

use parking_lot::Mutex;
use std::sync::Arc;
use strip_core::Strip;
use strip_storage::Value;

/// Rows captured by the probe action: one `Vec<Vec<Value>>` per firing.
type Captured = Arc<Mutex<Vec<Vec<Vec<Value>>>>>;

fn probe_db() -> (Strip, Captured) {
    let db = Strip::new();
    db.execute_script(
        "create table wide (a int, b int, c int); \
         create table narrow (x int, f float);",
    )
    .unwrap();
    // Pre-warm `narrow` to 4 rows (before any rules exist, so nothing
    // fires). The plan epoch folds in the statistics epoch, which bumps
    // when a table's row count crosses a power-of-two size class — at 4
    // rows the single-row inserts below (4→5, 5→6) stay inside one class,
    // so the cached condition plan is *served* and must fail Stale, which
    // is the path this test exists to cover.
    for i in 0..4 {
        db.execute_with(
            "insert into narrow values (?, ?)",
            &[Value::Int(i), Value::Float(0.0)],
        )
        .unwrap();
    }
    let captured: Captured = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    db.register_function("probe", move |txn| {
        let m = txn.bound("m").expect("condition binds m");
        let rows: Vec<Vec<Value>> = (0..m.len())
            .map(|i| {
                (0..m.schema().columns().len())
                    .map(|c| m.value(i, c).clone())
                    .collect()
            })
            .collect();
        sink.lock().push(rows);
        Ok(())
    });
    (db, captured)
}

/// The narrow-table rule: `select *` over a transition table expands to the
/// base columns plus `execute_order`, so the bound table's arity tracks the
/// rule's subject table.
const NARROW_RULE: &str = "create rule r_stale on narrow when inserted \
     if select * from inserted bind as m then execute probe";

fn narrow_firing(db: &Strip) {
    db.execute_with(
        "insert into narrow values (?, ?)",
        &[7i64.into(), 2.5f64.into()],
    )
    .unwrap();
}

#[test]
fn recreated_rule_on_different_arity_table_replans_stale_condition() {
    let (db, captured) = probe_db();

    // 1. Rule on the 3-column table; one firing caches the condition plan
    //    under `\0rule:r_stale:cond:0` with `inserted` at arity 4 (a, b, c,
    //    execute_order).
    db.execute(
        "create rule r_stale on wide when inserted \
         if select * from inserted bind as m then execute probe",
    )
    .unwrap();
    db.execute_with(
        "insert into wide values (?, ?, ?)",
        &[1i64.into(), 2i64.into(), 3i64.into()],
    )
    .unwrap();
    db.drain();
    assert_eq!(captured.lock().len(), 1, "wide rule must fire once");
    assert_eq!(captured.lock()[0][0].len(), 4, "a, b, c, execute_order");

    // 2. Drop and recreate the same rule name on the 2-column table. No
    //    table DDL happens in between, so the schema epoch is unchanged and
    //    the stale cached plan is still keyed as current.
    let misses_before = db.stats().plan_cache_misses;
    let hits_before = db.stats().plan_cache_hits;
    db.execute("drop rule r_stale").unwrap();
    db.execute(NARROW_RULE).unwrap();

    // 3. First firing of the recreated rule: the cached arity-4 plan meets
    //    arity-3 data, must raise `Stale` internally, replan, and succeed.
    narrow_firing(&db);
    db.drain();
    let errors = db.take_errors();
    assert!(
        errors.is_empty(),
        "stale replan must be transparent: {errors:?}"
    );
    {
        let got = captured.lock();
        assert_eq!(got.len(), 2, "narrow rule must fire once more");
        assert_eq!(got[1][0].len(), 3, "x, f, execute_order");
        assert_eq!(got[1][0][0], Value::Int(7));
        assert_eq!(got[1][0][1], Value::Float(2.5));
    }
    assert!(
        db.stats().plan_cache_misses > misses_before,
        "the stale plan must be replanned, not silently reused"
    );
    assert!(
        db.stats().plan_cache_hits > hits_before,
        "the stale plan must first be *served* from the cache (rule DDL \
         must not bump the schema epoch) — otherwise this test is not \
         exercising the Stale path at all"
    );

    // 4. Same workload on a fresh database that only ever saw the narrow
    //    rule: the replanned results must match a never-stale plan exactly.
    let (fresh, fresh_captured) = probe_db();
    fresh.execute(NARROW_RULE).unwrap();
    narrow_firing(&fresh);
    fresh.drain();
    assert!(fresh.take_errors().is_empty());
    assert_eq!(
        captured.lock()[1],
        fresh_captured.lock()[0],
        "stale-replanned firing must equal a fresh plan's firing"
    );

    // 5. Second firing reuses the replanned entry without incident.
    let misses_after_replan = db.stats().plan_cache_misses;
    narrow_firing(&db);
    db.drain();
    assert!(db.take_errors().is_empty());
    assert_eq!(captured.lock().len(), 3);
    assert_eq!(
        db.stats().plan_cache_misses,
        misses_after_replan,
        "second firing must hit the replanned cache entry"
    );
}
