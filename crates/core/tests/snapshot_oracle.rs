//! The snapshot-consistency oracle battery (headline proof of the MVCC
//! snapshot-read tentpole): every read-only snapshot transaction observes
//! **exactly** the committed prefix at its pinned timestamp — no torn
//! reads, no lost versions, no early reclamation — while writers keep
//! strict 2PL unchanged.
//!
//! The workload is built so the oracle is exact, not statistical:
//!
//! * a `meta` table holds a single `commits` counter that every writer
//!   transaction increments by one — since the commit clock also advances
//!   by exactly one per publishing commit, a snapshot pinned at `ts` must
//!   read `commits == ts − base` (`base` = the clock after setup);
//! * an `accounts` table whose writer transactions only *transfer* dyadic
//!   amounts between rows, so the account sum is a per-commit invariant —
//!   any snapshot that mixes two commits' versions breaks the sum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use strip_core::{Error, FaultDecision, FaultInjector, FaultPoint, Strip, Txn};

const ACCOUNTS: usize = 8;
const INITIAL: i64 = 1_000;

fn setup(db: &Strip) {
    db.execute_script(
        "create table accounts (id int, balance int); \
         create index ix_acct on accounts (id); \
         create table meta (k str, commits int);",
    )
    .unwrap();
    for i in 0..ACCOUNTS {
        db.execute_with(
            "insert into accounts values (?, ?)",
            &[(i as i64).into(), INITIAL.into()],
        )
        .unwrap();
    }
    db.execute("insert into meta values ('c', 0)").unwrap();
}

/// One writer step: move `amt` from account `from` to account `to` and
/// bump the commit counter — the sum invariant and the exact-prefix
/// counter in a single transaction.
fn transfer(t: &mut Txn<'_>, from: i64, to: i64, amt: i64) -> strip_core::Result<()> {
    t.exec(
        "update accounts set balance += ? where id = ?",
        &[(-amt).into(), from.into()],
    )?;
    t.exec(
        "update accounts set balance += ? where id = ?",
        &[amt.into(), to.into()],
    )?;
    t.exec("update meta set commits += 1 where k = 'c'", &[])?;
    Ok(())
}

/// Read the snapshot's full state: (commit counter, account sum, rows seen).
fn observe(t: &mut Txn<'_>) -> strip_core::Result<(i64, i64, usize)> {
    let c = t
        .query("select commits from meta where k = 'c'", &[])?
        .single("commits")?
        .as_i64()
        .unwrap();
    let rows = t.query("select balance from accounts", &[])?;
    let mut sum = 0;
    for i in 0..rows.len() {
        sum += rows.value(i, "balance")?.as_i64().unwrap();
    }
    Ok((c, sum, rows.len()))
}

/// Serial baseline: every snapshot taken between two commits sees exactly
/// the prefix, and the commit clock advances by one per writer commit.
#[test]
fn snapshot_observes_exact_committed_prefix_serially() {
    let db = Strip::new();
    setup(&db);
    let base = db.commit_ts();
    for step in 0..32i64 {
        let (from, to, amt) = (
            step % ACCOUNTS as i64,
            (step + 3) % ACCOUNTS as i64,
            1 + step % 5,
        );
        db.txn(|t| transfer(t, from, to, amt)).unwrap();
        let (c, sum, n) = db
            .read_txn(|t| {
                let ts = t.snapshot_ts().expect("read txn must pin a snapshot");
                assert_eq!(ts, db.commit_ts(), "idle snapshot pins the current clock");
                assert!(t.is_read_only());
                observe(t)
            })
            .unwrap();
        assert_eq!(c, step + 1, "counter = number of commits in the prefix");
        assert_eq!(sum, INITIAL * ACCOUNTS as i64, "transfer invariant");
        assert_eq!(n, ACCOUNTS);
        assert_eq!(db.commit_ts(), base + (step as u64 + 1));
    }
}

/// A snapshot pinned *before* a write does not see it, even when the write
/// commits while the snapshot is still open (pool mode runs transactions
/// inline on the caller thread, so the nesting is well-defined).
#[test]
fn open_snapshot_is_stable_across_later_commits() {
    let db = Strip::builder().pool(2).build();
    setup(&db);
    db.read_txn(|t| {
        let (c0, sum0, _) = observe(t)?;
        assert_eq!(c0, 0);
        // A full write transaction commits while this snapshot is open.
        db.txn(|w| transfer(w, 0, 1, 7)).unwrap();
        assert_eq!(db.active_snapshots(), 1);
        // The open snapshot must still see the pre-commit state…
        let (c1, sum1, _) = observe(t)?;
        assert_eq!(c1, 0, "snapshot must not see the later commit");
        assert_eq!(sum1, sum0);
        let b0 = t
            .query("select balance from accounts where id = 0", &[])?
            .single("balance")?
            .as_i64()
            .unwrap();
        assert_eq!(b0, INITIAL, "keyed probe reads the pinned version too");
        Ok(())
    })
    .unwrap();
    // …and a fresh snapshot sees it.
    let c = db.read_txn(|t| Ok(observe(t)?.0)).unwrap();
    assert_eq!(c, 1);
    assert_eq!(db.active_snapshots(), 0, "snapshot registry drains");
}

/// The concurrent headline proof: 4 writer threads churn transfers while
/// 4 reader threads continuously pin snapshots; every single observation
/// must be an exact committed prefix (counter == ts − base, sum invariant,
/// no phantom or missing rows), and the readers must never hold a lock.
/// A serial replay of the committed transfer log then cross-checks the
/// final state digest.
#[test]
fn concurrent_snapshots_observe_exact_prefixes() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const STEPS: usize = 60;

    let db = Strip::builder().pool(4).build();
    setup(&db);
    let base = db.commit_ts();
    let committed: Arc<Mutex<Vec<(i64, i64, i64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(WRITERS + READERS));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        let committed = committed.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            for s in 0..STEPS {
                let from = ((w * 31 + s * 7) % ACCOUNTS) as i64;
                let to = ((w * 17 + s * 11 + 1) % ACCOUNTS) as i64;
                let amt = (1 + (w + s) % 5) as i64;
                if db.txn(|t| transfer(t, from, to, amt)).is_ok() {
                    committed.lock().unwrap().push((from, to, amt));
                }
            }
        }));
    }
    for _ in 0..READERS {
        let db = db.clone();
        let stop = stop.clone();
        let start = start.clone();
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut last_ts = 0u64;
            while stop.load(Ordering::Acquire) == 0 {
                db.read_txn(|t| {
                    let ts = t.snapshot_ts().unwrap();
                    assert!(ts >= last_ts, "snapshots move forward");
                    last_ts = ts;
                    let (c, sum, n) = observe(t)?;
                    assert_eq!(
                        c as u64,
                        ts - base,
                        "snapshot at ts {ts} must see exactly {} commits",
                        ts - base
                    );
                    assert_eq!(sum, INITIAL * ACCOUNTS as i64, "torn snapshot at ts {ts}");
                    assert_eq!(n, ACCOUNTS);
                    assert!(
                        t.lock_footprint().is_empty(),
                        "snapshot reads must never touch the lock manager"
                    );
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    // Writers finish first; then release the readers.
    for h in handles.drain(..WRITERS) {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    db.drain();

    // Every committed transfer advanced the clock by exactly one.
    let log = committed.lock().unwrap().clone();
    assert_eq!(db.commit_ts() - base, log.len() as u64);
    assert_eq!(db.active_snapshots(), 0);
    assert_eq!(db.locks_held(), 0);

    // Serial-replay cross-check: the same committed transfers, replayed
    // one at a time on a fresh database, produce the same final state
    // (transfers commute only in sum, so replay in commit-log order —
    // the per-account amounts are order-independent here because every
    // transfer is applied exactly once in both runs).
    let replay = Strip::new();
    setup(&replay);
    for (from, to, amt) in &log {
        replay.txn(|t| transfer(t, *from, *to, *amt)).unwrap();
    }
    let digest = |d: &Strip| {
        let rs = d.query("select id, balance from accounts").unwrap();
        let mut v: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(digest(&db), digest(&replay), "serial replay diverged");
}

/// Crash injected between version-stamping and clock-publish: the commit
/// is durable in the WAL but was never published, so no live snapshot may
/// observe it; recovery republishes it and a post-recovery snapshot must
/// see it.
#[test]
fn crash_between_stamp_and_publish_stays_invisible_until_recovery() {
    struct CrashAtPublish;
    impl FaultInjector for CrashAtPublish {
        fn decide(&self, point: FaultPoint, detail: &str) -> FaultDecision {
            if point == FaultPoint::CommitPublish && detail.contains("doomed") {
                FaultDecision::Crash
            } else {
                FaultDecision::Continue
            }
        }
    }
    let db = Strip::builder()
        .durable()
        .fault_injector(Arc::new(CrashAtPublish))
        .build();
    setup(&db);
    let ts_before = db.commit_ts();
    let err = db
        .txn_named("doomed", |t| transfer(t, 0, 1, 5))
        .unwrap_err();
    assert!(matches!(err, Error::Crashed), "got: {err}");
    assert!(db.has_crashed());
    assert_eq!(
        db.commit_ts(),
        ts_before,
        "a crashed publish must not advance the commit clock"
    );

    // Recovery replays the WAL (where the commit *is* durable) and stamps
    // the recovered rows, so snapshot reads on the recovered database see
    // the ambiguous commit.
    let wal = db.wal_bytes().unwrap();
    let fresh = Strip::new();
    fresh
        .execute_script(
            "create table accounts (id int, balance int); \
             create table meta (k str, commits int);",
        )
        .unwrap();
    fresh.recover_from_wal(&wal).unwrap();
    let c = fresh
        .query("select commits from meta where k = 'c'")
        .unwrap()
        .single("commits")
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(c, 1, "the stamped-but-unpublished commit was durable");
    let b0 = fresh
        .query("select balance from accounts where id = 0")
        .unwrap()
        .single("balance")
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(b0, INITIAL - 5);
}

/// Mutant self-test at the engine level: an off-by-one GC horizon
/// (collecting at `horizon + 1`) destroys a version a live snapshot still
/// needs, and the snapshot-consistency oracle catches it — proof the
/// battery detects retention bugs rather than passing vacuously.
#[test]
fn gc_horizon_overshoot_is_caught_by_the_oracle() {
    let db = Strip::builder().pool(2).build();
    setup(&db);
    let caught = db
        .read_txn(|t| {
            let b0 = t
                .query("select balance from accounts where id = 0", &[])?
                .single("balance")?
                .as_i64()
                .unwrap();
            assert_eq!(b0, INITIAL);
            // A later commit supersedes account 0's pinned version…
            db.txn(|w| transfer(w, 0, 1, 9)).unwrap();
            // …and the buggy collector reclaims past the horizon (which is
            // this snapshot's ts), destroying the pinned version.
            let horizon = db.gc_horizon();
            assert_eq!(horizon, t.snapshot_ts().unwrap());
            db.catalog()
                .table("accounts")
                .unwrap()
                .__collect_versions_overshoot(horizon);
            // The oracle: the snapshot must still read INITIAL. Under the
            // mutant it reads the newer version (or nothing) instead.
            let again = t
                .query("select balance from accounts where id = 0", &[])?
                .single("balance")
                .map(|v| v.as_i64().unwrap());
            Ok(again != Ok(INITIAL))
        })
        .unwrap();
    assert!(
        caught,
        "the off-by-one collector must produce an oracle-visible violation"
    );
}
