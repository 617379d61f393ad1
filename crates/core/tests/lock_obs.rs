//! Lock-wait observability under hierarchical locking: genuine pool-mode
//! blocking must land in the `lock_wait_us` histogram labeled by the
//! granularity of the contended resource, with the labeled pair always
//! partitioning the total exactly (the histogram-level cousin of the
//! lineage phase-sum invariant).

use std::sync::{Arc, Barrier};
use std::time::Duration;
use strip_core::Strip;
use strip_obs::{EventKind, Hist};

#[test]
fn lock_wait_histograms_label_by_granularity() {
    let db = Strip::builder().pool(3).build();
    db.execute_script(
        "create table quotes (symbol str, price int); \
         create index q_sym on quotes (symbol); \
         insert into quotes values ('HOT', 100), ('COLD', 100);",
    )
    .unwrap();

    // The holder pins X on key `quotes#symbol=HOT` (plus IX on the table)
    // for ~5ms. The key waiter probes the same symbol and must block on
    // the key resource; the scan waiter full-scans, requesting table S,
    // which the holder's IX blocks — a table-granular wait.
    let start = Arc::new(Barrier::new(3));
    let holder = {
        let db = db.clone();
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            db.txn(move |t| {
                t.exec("update quotes set price = 101 where symbol = 'HOT'", &[])?;
                start.wait();
                std::thread::sleep(Duration::from_millis(5));
                Ok(())
            })
            .unwrap();
        })
    };
    let key_waiter = {
        let db = db.clone();
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            db.txn(|t| {
                let p = t
                    .query("select price from quotes where symbol = 'HOT'", &[])?
                    .single("price")?
                    .as_i64()
                    .unwrap();
                assert_eq!(p, 101, "strict 2PL: must see the holder's commit");
                Ok(())
            })
            .unwrap();
        })
    };
    // The scan must run inside an explicit read-write transaction: a bare
    // `db.query` SELECT is auto-detected as a lock-free snapshot read and
    // would never touch the lock manager (see DESIGN.md §14).
    let scan_waiter = {
        let db = db.clone();
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let rows = db
                .txn(|t| t.query("select price from quotes", &[]))
                .unwrap();
            assert_eq!(rows.len(), 2);
        })
    };
    holder.join().unwrap();
    key_waiter.join().unwrap();
    scan_waiter.join().unwrap();
    db.drain();

    let snap = db.obs().snapshot();
    let [total, table, key] =
        [Hist::LockWait, Hist::LockWaitTable, Hist::LockWaitKey].map(|h| &snap.hists[h as usize]);
    assert!(
        key.count >= 1,
        "the blocked key probe must record a key-granular wait: {snap:?}"
    );
    assert!(
        table.count >= 1,
        "the blocked scan must record a table-granular wait: {snap:?}"
    );
    // The labeled histograms partition the total exactly, in both count
    // and mass.
    assert_eq!(total.count, table.count + key.count);
    assert_eq!(total.sum, table.sum + key.sum);
    // Both waiters blocked for most of the holder's 5ms sleep.
    assert!(key.max >= 1_000, "{snap:?}");
    assert!(table.max >= 1_000, "{snap:?}");

    // The traced LockWait events carry the resource name, so granularity
    // is recoverable per event: `#` marks a key resource.
    let events = db.obs().resolved_events();
    let waits: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::LockWait)
        .collect();
    assert!(
        waits
            .iter()
            .any(|e| e.detail == "quotes#symbol=HOT" && e.dur_us >= 1_000),
        "key wait event names the key resource: {waits:?}"
    );
    assert!(
        waits
            .iter()
            .any(|e| e.detail == "quotes" && e.dur_us >= 1_000),
        "table wait event names the table: {waits:?}"
    );
    assert_eq!(
        waits.len() as u64,
        total.count,
        "every histogram entry has a matching trace event"
    );

    // The same waits feed the run-level hot-resource contention map, so the
    // contended key ranks among the hot entries with its wait mass.
    let hot = db.obs().hot_run(8);
    assert!(
        hot.iter()
            .any(|h| h.resource == "quotes#symbol=HOT" && h.wait_us >= 1_000),
        "contended key must appear in the hot map: {hot:?}"
    );
}
