//! Numerically equal keys of different types find the same rows. `Int(1)`
//! equals `Float(1.0)`, so an index probe, a hash join and a lock on a key
//! must treat the two alike: an indexed lookup returns what the unindexed
//! scan returns.

use strip_core::Strip;

fn count(db: &Strip, sql: &str) -> usize {
    db.query(sql).unwrap().len()
}

#[test]
fn indexed_and_unindexed_lookups_agree_on_mixed_numeric_keys() {
    let indexed = Strip::new();
    indexed
        .execute_script(
            "create table t (id int, v int); create index ix_t_id on t (id); \
             insert into t values (1, 10);",
        )
        .unwrap();
    let plain = Strip::new();
    plain
        .execute_script("create table t (id int, v int); insert into t values (1, 10);")
        .unwrap();
    for sql in [
        "select v from t where id = 1",
        "select v from t where id = 1.0",
        "select v from t where id + 0 = 1.0",
    ] {
        assert_eq!(count(&indexed, sql), 1, "indexed: {sql}");
        assert_eq!(count(&plain, sql), 1, "unindexed: {sql}");
    }
}

#[test]
fn hash_join_matches_int_and_float_columns() {
    let db = Strip::new();
    db.execute_script("create table a (k int, x int); create table b (k float, y int);")
        .unwrap();
    // 32 rows a side: enough that the unindexed equi-join is a hash join.
    // `b` holds 1.0..=16.0 and 17.5..=32.5, so a's keys 1..=16 match.
    for i in 1..=32i64 {
        db.execute_with("insert into a values (?, ?)", &[i.into(), (10 * i).into()])
            .unwrap();
        let k = if i <= 16 { i as f64 } else { i as f64 + 0.5 };
        db.execute_with("insert into b values (?, ?)", &[k.into(), i.into()])
            .unwrap();
    }
    let sql = "select x, y from a, b where a.k = b.k";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("HashJoin"), "{plan}");
    let rs = db.query(sql).unwrap();
    let mut pairs: Vec<(i64, i64)> = (0..rs.len())
        .map(|i| {
            (
                rs.value(i, "x").unwrap().as_i64().unwrap(),
                rs.value(i, "y").unwrap().as_i64().unwrap(),
            )
        })
        .collect();
    pairs.sort();
    let expect: Vec<(i64, i64)> = (1..=16).map(|i| (10 * i, i)).collect();
    assert_eq!(pairs, expect);
}
