//! Property tests for snapshot reads and version-chain GC at the engine
//! level: random write/abort workloads run *while a snapshot is pinned*,
//! the snapshot must keep observing its pinned state exactly, and once all
//! readers drain the garbage collector must return the `version_chains`
//! memory class to zero — version retention is bounded by the oldest live
//! snapshot, nothing more.

use proptest::prelude::*;
use std::collections::BTreeMap;
use strip_core::{Strip, Txn};

/// One random write step against the single `kv` table.
#[derive(Debug, Clone)]
enum WriteOp {
    /// `update kv set v += delta where id = ?` (no-op on a missing id).
    Update { id: i64, delta: i64 },
    /// Insert a fresh row (ids drawn from a disjoint range so inserts
    /// never collide with the seeded ids).
    Insert { id: i64, v: i64 },
    /// Delete by id (no-op on a missing id).
    Delete { id: i64 },
    /// Run an update, then abort the transaction — must leave no trace.
    AbortedUpdate { id: i64, delta: i64 },
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        (0..8i64, -5..5i64).prop_map(|(id, delta)| WriteOp::Update { id, delta }),
        (100..120i64, 0..50i64).prop_map(|(id, v)| WriteOp::Insert { id, v }),
        (0..8i64).prop_map(|id| WriteOp::Delete { id }),
        (0..8i64, -5..5i64).prop_map(|(id, delta)| WriteOp::AbortedUpdate { id, delta }),
    ]
}

fn apply_shadow(shadow: &mut BTreeMap<i64, i64>, op: &WriteOp) {
    match op {
        WriteOp::Update { id, delta } => {
            if let Some(v) = shadow.get_mut(id) {
                *v += delta;
            }
        }
        WriteOp::Insert { id, v } => {
            shadow.insert(*id, *v);
        }
        WriteOp::Delete { id } => {
            shadow.remove(id);
        }
        WriteOp::AbortedUpdate { .. } => {}
    }
}

fn apply_db(db: &Strip, op: &WriteOp) {
    match op {
        WriteOp::Update { id, delta } => {
            db.txn(|t| {
                t.exec(
                    "update kv set v += ? where id = ?",
                    &[(*delta).into(), (*id).into()],
                )?;
                Ok(())
            })
            .unwrap();
        }
        WriteOp::Insert { id, v } => {
            db.txn(|t| {
                t.exec("insert into kv values (?, ?)", &[(*id).into(), (*v).into()])?;
                Ok(())
            })
            .unwrap();
        }
        WriteOp::Delete { id } => {
            db.txn(|t| {
                t.exec("delete from kv where id = ?", &[(*id).into()])?;
                Ok(())
            })
            .unwrap();
        }
        WriteOp::AbortedUpdate { id, delta } => {
            let r: strip_core::Result<()> = db.txn(|t| {
                t.exec(
                    "update kv set v += ? where id = ?",
                    &[(*delta).into(), (*id).into()],
                )?;
                Err(strip_core::Error::Other("abort on purpose".into()))
            });
            assert!(r.is_err());
        }
    }
}

/// Full-scan the table through a transaction's (possibly snapshot) view.
fn scan_view(t: &mut Txn<'_>) -> strip_core::Result<BTreeMap<i64, i64>> {
    let rs = t.query("select id, v from kv", &[])?;
    Ok(rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect())
}

// For every random workload: (1) a snapshot pinned before a burst of
// writes keeps observing its pinned state *exactly*, however many
// updates/inserts/deletes/aborts land meanwhile; (2) a fresh snapshot
// afterwards observes exactly the new committed state; (3) once readers
// drain, GC returns the `version_chains` memory class to zero and leaves
// no GC backlog.
proptest! {
    #[test]
    fn pinned_snapshots_are_immutable_and_gc_drains_to_baseline(
        phases in proptest::collection::vec(proptest::collection::vec(write_op(), 1..6), 1..4)
    ) {
        // Pool mode so a write transaction can commit while a read
        // transaction is open on the caller thread.
        let db = Strip::builder().pool(2).build();
        db.execute_script(
            "create table kv (id int, v int); create index ix_kv on kv (id);",
        ).unwrap();
        let mut shadow: BTreeMap<i64, i64> = BTreeMap::new();
        for id in 0..8i64 {
            db.execute_with("insert into kv values (?, ?)", &[id.into(), (id * 10).into()])
                .unwrap();
            shadow.insert(id, id * 10);
        }

        for burst in &phases {
            // Drop inserts whose id already exists: the shadow is a map
            // and would silently collapse the duplicate row.
            let mut keys: std::collections::BTreeSet<i64> = shadow.keys().copied().collect();
            let burst: Vec<WriteOp> = burst.iter().filter(|op| match op {
                WriteOp::Insert { id, .. } => keys.insert(*id),
                WriteOp::Delete { id } => { keys.remove(id); true }
                _ => true,
            }).cloned().collect();
            let burst = &burst;
            let pinned = shadow.clone();
            let (at_pin, after_burst) = db.read_txn(|t| {
                let at_pin = scan_view(t)?;
                // The burst commits while this snapshot stays pinned.
                for op in burst {
                    apply_db(&db, op);
                }
                // Re-scan through the still-pinned snapshot.
                let after_burst = scan_view(t)?;
                Ok((at_pin, after_burst))
            }).unwrap();
            prop_assert_eq!(&at_pin, &pinned, "snapshot began on the wrong prefix");
            prop_assert_eq!(
                &after_burst, &pinned,
                "a concurrent commit leaked into a pinned snapshot"
            );
            for op in burst {
                apply_shadow(&mut shadow, op);
            }
            // A fresh snapshot sees exactly the new committed state.
            let fresh = db.read_txn(scan_view).unwrap();
            prop_assert_eq!(&fresh, &shadow, "fresh snapshot missed a commit");
        }

        // Readers have drained: a GC pass must reclaim every superseded
        // version — the `version_chains` class returns to its baseline of
        // zero bytes and no table keeps a GC backlog.
        db.drain();
        db.collect_versions();
        let mem = db.obs().snapshot().memory;
        for t in &mem.tables {
            prop_assert_eq!(
                t.version_bytes, 0,
                "table `{}` retained superseded versions after GC", t.table
            );
        }
        prop_assert_eq!(db.catalog().table("kv").unwrap().gc_backlog(), 0);
        prop_assert_eq!(db.active_snapshots(), 0);
    }
}
