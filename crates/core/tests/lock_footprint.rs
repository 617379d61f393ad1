//! Golden lock footprints: the `table#column=key` names and modes a
//! transaction reports from `Txn::lock_footprint` for the statement shapes
//! key-granular locking distinguishes — a keyed update, a keyed 2PL select
//! and a scan. Benchmarks build conflict graphs from these strings, so they
//! must not change with how the lock manager identifies resources.

use strip_core::Strip;
use strip_txn::LockMode::{self, *};

fn db() -> Strip {
    let db = Strip::new();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create index ix_stocks_symbol on stocks (symbol); \
         insert into stocks values ('IBM', 10.0), ('HWP', 20.0); \
         create table t (id int, v int); create index ix_t_id on t (id); \
         insert into t values (1, 10);",
    )
    .unwrap();
    db
}

/// The footprint after running `sql` (DML or a locked SELECT) in a
/// read-write transaction.
fn footprint(db: &Strip, sql: &str) -> Vec<(String, LockMode)> {
    db.txn(|t| {
        if sql.starts_with("select") {
            t.query(sql, &[])?;
        } else {
            t.exec(sql, &[])?;
        }
        Ok(t.lock_footprint())
    })
    .unwrap()
}

fn owned(v: &[(&str, LockMode)]) -> Vec<(String, LockMode)> {
    v.iter().map(|(r, m)| (r.to_string(), *m)).collect()
}

#[test]
fn keyed_update_locks_the_table_intent_and_the_key() {
    let db = db();
    assert_eq!(
        footprint(&db, "update stocks set price = 11 where symbol = 'IBM'"),
        owned(&[
            ("stocks", IntentExclusive),
            ("stocks#symbol=IBM", Exclusive)
        ])
    );
    // Table names are matched case-insensitively and render lower-case.
    assert_eq!(
        footprint(&db, "update STOCKS set price = 12 where symbol = 'HWP'"),
        owned(&[
            ("stocks", IntentExclusive),
            ("stocks#symbol=HWP", Exclusive)
        ])
    );
    // A float key equal to an int key locks (and names) the same resource.
    assert_eq!(
        footprint(&db, "update t set v = 11 where id = 1.0"),
        owned(&[("t", IntentExclusive), ("t#id=1", Exclusive)])
    );
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn keyed_select_locks_the_table_intent_and_the_key_shared() {
    let db = db();
    assert_eq!(
        footprint(&db, "select price from stocks where symbol = 'HWP'"),
        owned(&[("stocks", IntentShared), ("stocks#symbol=HWP", Shared)])
    );
    assert_eq!(db.locks_held(), 0);
}

#[test]
fn scan_locks_the_whole_table_shared() {
    let db = db();
    assert_eq!(
        footprint(&db, "select symbol, price from stocks"),
        owned(&[("stocks", Shared)])
    );
    assert_eq!(db.locks_held(), 0);
}
