//! End-to-end tests of the prepared-plan cache: text-keyed reuse for ad-hoc
//! statements (parsed only on a miss, with the statement kind checked
//! before anything runs), internal keys unreachable from text,
//! schema-epoch invalidation on DDL, per-rule plan reuse across commits,
//! and view planning without materialization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strip_core::{Error, Strip};
use strip_sql::cache::INTERNAL_KEY_PREFIX;
use strip_sql::exec::ResultSet;
use strip_sql::SqlError;
use strip_storage::Value;

fn small_db() -> Strip {
    let db = Strip::new();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         insert into stocks values ('S1', 30), ('S2', 40), ('S3', 50);",
    )
    .unwrap();
    db
}

/// Plan-cache `(hits, misses)` counted while `f` runs.
fn cache_delta(db: &Strip, f: impl FnOnce()) -> (u64, u64) {
    let before = db.stats();
    f();
    let after = db.stats();
    (
        after.plan_cache_hits - before.plan_cache_hits,
        after.plan_cache_misses - before.plan_cache_misses,
    )
}

/// One SQL-text entry point, run once on `sql`.
type Entry = fn(&Strip, &str) -> strip_core::Result<()>;

#[test]
fn repeated_statement_text_hits_the_cache() {
    const N: u64 = 4;
    let db = small_db();
    // Every text entry point, each on a text of its own: N calls plan once
    // and reuse the plan N - 1 times.
    let entries: [(&str, Entry, &str); 6] = [
        (
            "execute",
            |db, sql| db.execute(sql).map(drop),
            "select price from stocks where symbol = 'S1'",
        ),
        (
            "execute_with",
            |db, sql| db.execute_with(sql, &["S2".into()]).map(drop),
            "select price from stocks where symbol = ?",
        ),
        (
            "execute_with dml",
            |db, sql| db.execute_with(sql, &["S2".into()]).map(drop),
            "update stocks set price = price + 1 where symbol = ?",
        ),
        (
            "query",
            |db, sql| db.query(sql).map(drop),
            "select symbol from stocks where price > 35",
        ),
        (
            "Txn::query",
            |db, sql| db.txn(|t| t.query(sql, &["S3".into()]).map(drop)),
            "select symbol, price from stocks where symbol = ?",
        ),
        (
            "Txn::exec",
            |db, sql| db.txn(|t| t.exec(sql, &[]).map(drop)),
            "update stocks set price = price + 1 where symbol = 'S1'",
        ),
    ];
    for (name, run, sql) in entries {
        let counted = cache_delta(&db, || {
            for _ in 0..N {
                run(&db, sql).unwrap();
            }
        });
        assert_eq!(counted, (N - 1, 1), "{name}: (hits, misses)");
        // Text that fails to parse counts neither, every time.
        for call in 1..=2 {
            let counted = cache_delta(
                &db,
                || assert!(run(&db, "selec price from stocks").is_err()),
            );
            assert_eq!(counted, (0, 0), "{name}: unparsable text, call {call}");
        }
    }

    // Statements inside one transaction share the cache too.
    let counted = cache_delta(&db, || {
        db.txn(|t| {
            for _ in 0..N {
                t.exec(
                    "update stocks set price = price - 1 where symbol = 'S3'",
                    &[],
                )?;
            }
            Ok(())
        })
        .unwrap()
    });
    assert_eq!(counted, (N - 1, 1));
}

#[test]
fn txn_text_entry_points_reject_the_wrong_kind_before_running() {
    let db = Strip::new();
    db.execute_script("create table t (k int, v int); insert into t values (1, 1);")
        .unwrap();
    let update = "update t set v = v + 1 where k = 1";
    let select = "select v from t where k = 1";
    // First both texts miss: the kind comes from the parsed statement. Then
    // both are cached, and the kind comes from the cached plan.
    for cached in [false, true] {
        if cached {
            db.execute(update).unwrap();
            db.execute(select).unwrap();
        }
        let rows = db.table_rows("t").unwrap();
        let counted = cache_delta(&db, || {
            let e = db.query(update).unwrap_err();
            assert_eq!(e.to_string(), format!("not a query: `{update}`"));
            let e = db.txn(|t| t.query(update, &[])).unwrap_err();
            assert_eq!(e.to_string(), format!("not a query: `{update}`"));
            let e = db.txn(|t| t.exec(select, &[])).unwrap_err();
            assert_eq!(e.to_string(), "exec() only accepts DML statements");
        });
        // No plan runs for a rejected text, so nothing is counted, cached
        // or not.
        assert_eq!(counted, (0, 0), "cached: {cached}");
        assert_eq!(db.table_rows("t").unwrap(), rows, "cached: {cached}");
        assert_eq!(db.locks_held(), 0);
    }
}

#[test]
fn text_equal_to_an_internal_key_fails_to_parse_and_runs_nothing() {
    let db = Strip::new();
    // Four rows each, so the firing below crosses no size class and its
    // plans stay current.
    db.execute_script(
        "create table t (x int); create table audit (x int); \
         insert into t values (0), (0), (0), (0); \
         insert into audit values (0), (0), (0), (0);",
    )
    .unwrap();
    let insert = "insert into audit values (1)";
    db.register_function("audit_batch", move |txn| txn.exec(insert, &[]).map(drop));
    db.execute(
        "create rule r on t when inserted if select * from inserted \
         then evaluate select * from inserted bind as batch execute audit_batch",
    )
    .unwrap();
    db.execute("insert into t values (1)").unwrap();
    db.drain();
    assert!(db.take_errors().is_empty());
    let audited = || {
        let rs = db.query("select count(*) as n from audit").unwrap();
        rs.single("n").unwrap().as_i64()
    };
    assert_eq!(audited(), Some(5));
    // The rule's clauses and its action's insert are cached under internal
    // keys.
    let keys = [
        format!("{INTERNAL_KEY_PREFIX}rule:r:cond:0"),
        format!("{INTERNAL_KEY_PREFIX}rule:r:eval:0"),
        format!("{INTERNAL_KEY_PREFIX}batch(x:Int,execute_order:Int,)|{insert}"),
    ];
    let epoch = db.txn(|t| Ok(strip_sql::Env::plan_epoch(t))).unwrap();
    for key in &keys {
        assert!(db.plan_cache().peek(key, epoch).is_some(), "{key:?}");
    }
    // Given any of these keys, with or without its prefix, every text entry
    // point returns a lexical or syntax error and runs nothing.
    let entries: [(&str, Entry); 5] = [
        ("execute", |db, sql| db.execute(sql).map(drop)),
        ("execute_with", |db, sql| {
            db.execute_with(sql, &[]).map(drop)
        }),
        ("query", |db, sql| db.query(sql).map(drop)),
        ("Txn::query", |db, sql| {
            db.txn(|t| t.query(sql, &[]).map(drop))
        }),
        ("Txn::exec", |db, sql| {
            db.txn(|t| t.exec(sql, &[]).map(drop))
        }),
    ];
    let texts = keys.iter().flat_map(|k| [&k[1..], k.as_str()]);
    for key in texts {
        for (name, run) in entries {
            let counted = cache_delta(&db, || {
                let e = run(&db, key).unwrap_err();
                assert!(
                    matches!(e, Error::Sql(SqlError::Lex(_) | SqlError::Parse(_))),
                    "{name} on {key:?}: {e}"
                );
            });
            assert_eq!(counted, (0, 0), "{name} on {key:?}");
        }
    }
    assert_eq!(audited(), Some(5));
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn stale_cached_text_plan_is_reparsed_and_replanned_once() {
    let db = Strip::new();
    let q = "select * from t";
    db.execute("create table t (k int)").unwrap();
    // A plan for the one-column `t`, kept out of the cache.
    let old = db
        .txn(|t| {
            Ok(strip_sql::plan::plan_statement(
                t,
                &strip_sql::parse_statement(q)?,
            )?)
        })
        .unwrap();
    db.execute("drop table t").unwrap();
    db.execute("create table t (k int, extra int)").unwrap();
    db.execute("insert into t values (7, 8)").unwrap();
    // Cache the old plan under the text at the current epoch: the next
    // lookup hits it, and running it finds the two-column table.
    let epoch = db.txn(|t| Ok(strip_sql::Env::plan_epoch(t))).unwrap();
    db.plan_cache().get_or_plan(q, epoch, || Ok(old)).unwrap();
    let mut rs = None;
    let counted = cache_delta(&db, || rs = Some(db.query(q).unwrap()));
    assert_eq!(counted, (1, 1), "one stale hit, one replan");
    let rs = rs.unwrap();
    assert_eq!(rs.schema.arity(), 2);
    assert_eq!(rs.rows, vec![vec![Value::Int(7), Value::Int(8)]]);
    // The replanned entry serves the next call.
    assert_eq!(cache_delta(&db, || drop(db.query(q).unwrap())), (1, 0));
}

#[test]
fn create_index_bumps_epoch_and_replans() {
    // Once with a literal key through `query`, once with a parameter
    // through `execute_with`.
    type Run = fn(&Strip) -> ResultSet;
    let runs: [(&str, Run); 2] = [
        ("query", |db| {
            db.query("select price from stocks where symbol = 'S2'")
                .unwrap()
        }),
        ("execute_with", |db| {
            db.execute_with("select price from stocks where symbol = ?", &["S2".into()])
                .unwrap()
                .rows()
                .unwrap()
        }),
    ];
    for (name, run) in runs {
        let db = small_db();
        let r1 = run(&db);
        assert_eq!(cache_delta(&db, || drop(run(&db))), (1, 0), "{name}");
        // New index -> new best access path -> the cached scan plan must die.
        db.execute("create index ix_stocks on stocks (symbol)")
            .unwrap();
        let mut r2 = None;
        let counted = cache_delta(&db, || r2 = Some(run(&db)));
        assert_eq!(counted, (0, 1), "{name}: epoch bump must force a replan");
        assert_eq!(r1.rows, r2.unwrap().rows, "{name}");
        assert_eq!(r1.rows, vec![vec![Value::Float(40.0)]], "{name}");
        // And the replanned statement caches again.
        assert_eq!(cache_delta(&db, || drop(run(&db))), (1, 0), "{name}");
    }
}

#[test]
fn create_and_drop_table_invalidate_like_named_plans() {
    let db = Strip::new();
    db.execute("create table t (k int)").unwrap();
    db.execute("insert into t values (1), (2)").unwrap();
    let n1 = db.query("select * from t").unwrap();
    assert_eq!(n1.schema.arity(), 1);
    assert_eq!(n1.len(), 2);

    db.execute("drop table t").unwrap();
    db.execute("create table t (k int, extra int)").unwrap();
    db.execute("insert into t values (7, 8)").unwrap();
    // Same text, structurally different table: the epoch tag (bumped by
    // both drop and create) forces a replan instead of running a plan
    // compiled for the one-column schema.
    let rs = db.query("select * from t").unwrap();
    assert_eq!(rs.schema.arity(), 2);
    assert_eq!(rs.rows, vec![vec![Value::Int(7), Value::Int(8)]]);
}

#[test]
fn rule_conditions_reuse_plans_across_commits() {
    let db = Strip::new();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create table comps_list (comp str, symbol str, weight float); \
         insert into stocks values ('S1', 30), ('S2', 40); \
         insert into comps_list values ('C1','S1',0.5), ('C1','S2',0.5);",
    )
    .unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let c = calls.clone();
    db.register_function("note_change", move |txn| {
        c.fetch_add(1, Ordering::SeqCst);
        txn.charge_user_work(1);
        Ok(())
    });
    db.execute(
        "create rule watch on stocks when updated price if \
         select comp, weight from comps_list, new \
         where comps_list.symbol = new.symbol bind as matches \
         then execute note_change",
    )
    .unwrap();

    let fire = |sym: &str, price: f64| {
        db.execute_with(
            "update stocks set price = ? where symbol = ?",
            &[price.into(), sym.into()],
        )
        .unwrap();
    };
    fire("S1", 31.0);
    let first = db.stats();
    fire("S2", 41.0);
    fire("S1", 32.0);
    let later = db.stats();
    db.drain();
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    assert!(db.take_errors().is_empty());
    // The condition is planned on the first commit and reused afterwards.
    assert!(
        later.plan_cache_hits > first.plan_cache_hits,
        "rule condition plans must be reused: {first:?} -> {later:?}"
    );
    assert_eq!(later.plan_cache_misses, first.plan_cache_misses);
}

#[test]
fn plain_views_plan_without_materializing_and_cache() {
    let db = small_db();
    db.execute("create view cheap as select symbol from stocks where price < 45")
        .unwrap();
    let q = "select symbol from cheap order by symbol";
    let r1 = db.query(q).unwrap();
    assert_eq!(r1.len(), 2);
    let stats = db.stats();
    let r2 = db.query(q).unwrap();
    assert_eq!(r1.rows, r2.rows);
    assert!(db.stats().plan_cache_hits > stats.plan_cache_hits);

    // The view tracks base data (expanded on read, §1's "recompute every
    // time" alternative) even through the cached plan.
    db.execute("update stocks set price = 60 where symbol = 'S1'")
        .unwrap();
    let r3 = db.query(q).unwrap();
    assert_eq!(r3.len(), 1);
}
