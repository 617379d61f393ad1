//! Property-based tests for the hierarchical lock manager: a model check
//! over random acquire/upgrade/release sequences mixing table-level modes
//! (IS/IX/S/SIX/X) with key-granular resources, asserting that no two
//! transactions ever hold incompatible locks, that the intention protocol
//! is respected (a key-mode grant implies the covering intention mode on
//! its table), that deadlocks are reported exactly when a waits-for cycle
//! exists, plus delay/ready queue laws. Every operation goes through either
//! the `&str` entry points or the interned-id ones (the two must agree),
//! and the manager's own bookkeeping is checked after each.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use strip_storage::Value;
use strip_txn::fault::{FaultDecision, FaultInjector, FaultPoint};
use strip_txn::{
    key_resource, resource_table, DelayQueue, KeyRes, LockError, LockManager, LockMode, Policy,
    ReadyQueue, Task, TxnId,
};

const MODES: [LockMode; 5] = [
    LockMode::IntentShared,
    LockMode::IntentExclusive,
    LockMode::Shared,
    LockMode::SharedIntentExclusive,
    LockMode::Exclusive,
];

#[derive(Debug, Clone)]
enum LockOp {
    /// Table-granular acquire: (txn, table, mode, through the id entry
    /// point).
    TryLock(u8, u8, LockMode, bool),
    /// Hierarchical acquire: (txn, table, key, exclusive, through the id
    /// entry point) — takes the intention mode on the table, then S/X on
    /// `table#c=k<key>`.
    TryLockKey(u8, u8, u8, bool, bool),
    Release(u8),
}

fn lock_op() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        (0..4u8, 0..3u8, 0..5usize, any::<bool>())
            .prop_map(|(t, r, m, ids)| LockOp::TryLock(t, r, MODES[m], ids)),
        (0..4u8, 0..3u8, 0..2u8, any::<bool>(), any::<bool>())
            .prop_map(|(t, r, k, x, ids)| LockOp::TryLockKey(t, r, k, x, ids)),
        (0..4u8).prop_map(LockOp::Release),
    ]
}

/// Non-blocking table acquire through the `&str` or the id entry point.
fn try_table(lm: &LockManager, t: u8, table: &str, mode: LockMode, ids: bool) -> bool {
    let txn = TxnId(t as u64);
    if ids {
        lm.try_lock_table(txn, lm.table_id(table), mode).is_ok()
    } else {
        lm.try_lock(txn, table, mode).is_ok()
    }
}

/// Non-blocking hierarchical acquire on column `c`, through either entry
/// point; the id path locks the key as a string value, as the `&str` path
/// does.
fn try_key(lm: &LockManager, t: u8, table: &str, key: &str, mode: LockMode, ids: bool) -> bool {
    let txn = TxnId(t as u64);
    if ids {
        let key = Value::str(key);
        let k = KeyRes::new(lm.table_id(table), lm.column_id("c"), &key);
        lm.try_lock_key_id(txn, k, mode).is_ok()
    } else {
        lm.try_lock_key(txn, table, "c", key, mode).is_ok()
    }
}

/// Blocking table acquire through either entry point.
fn lock_table(
    lm: &LockManager,
    t: u64,
    table: &str,
    mode: LockMode,
    ids: bool,
) -> Result<(), LockError> {
    if ids {
        lm.lock_table(TxnId(t), lm.table_id(table), mode).map(drop)
    } else {
        lm.lock(TxnId(t), table, mode)
    }
}

/// Blocking hierarchical acquire on column `c` through either entry point.
fn lock_key(
    lm: &LockManager,
    t: u64,
    table: &str,
    key: &str,
    mode: LockMode,
    ids: bool,
) -> Result<(), LockError> {
    if ids {
        let key = Value::str(key);
        let k = KeyRes::new(lm.table_id(table), lm.column_id("c"), &key);
        lm.lock_key_id(TxnId(t), k, mode).map(drop)
    } else {
        lm.lock_key(TxnId(t), table, "c", key, mode)
    }
}

/// Reference model of a single `try_lock`: re-entrant covers check, then
/// upgrade-join compatibility against every other holder. (With try-only
/// traffic the manager never has waiters, so FIFO fairness never bites and
/// grant ⇔ model-compatible.)
fn model_try(
    held: &mut HashMap<String, HashMap<u8, LockMode>>,
    t: u8,
    res: &str,
    mode: LockMode,
) -> bool {
    let holders = held.entry(res.to_string()).or_default();
    if let Some(h) = holders.get(&t) {
        if h.covers(mode) {
            return true;
        }
    }
    let target = holders.get(&t).map_or(mode, |h| h.lub(mode));
    let ok = holders
        .iter()
        .all(|(h, m)| *h == t || m.compatible_with(target));
    if ok {
        holders.insert(t, target);
    }
    ok
}

proptest! {
    #[test]
    fn no_conflicting_grants_ever(ops in proptest::collection::vec(lock_op(), 1..250)) {
        let lm = LockManager::new();
        // Model: resource name -> (txn -> strongest granted mode).
        let mut held: HashMap<String, HashMap<u8, LockMode>> = HashMap::new();
        for op in ops {
            match op {
                LockOp::TryLock(t, r, mode, ids) => {
                    let res = format!("r{r}");
                    let granted = try_table(&lm, t, &res, mode, ids);
                    let expect = model_try(&mut held, t, &res, mode);
                    prop_assert_eq!(granted, expect, "txn {} mode {:?} on {}", t, mode, res);
                }
                LockOp::TryLockKey(t, r, k, exclusive, ids) => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let table = format!("r{r}");
                    let key = format!("k{k}");
                    let granted = try_key(&lm, t, &table, &key, mode, ids);
                    // Model mirrors the two-step protocol: intention on the
                    // table first; the key mode is attempted only if the
                    // intention was granted.
                    let expect = model_try(&mut held, t, &table, mode.intention())
                        && model_try(&mut held, t, &key_resource(&table, "c", &key), mode);
                    prop_assert_eq!(
                        granted, expect,
                        "txn {} key-mode {:?} on {}#c={}", t, mode, table, key
                    );
                }
                LockOp::Release(t) => {
                    lm.release_all(TxnId(t as u64));
                    for holders in held.values_mut() {
                        holders.remove(&t);
                    }
                }
            }
            // Each transaction's held list equals the holders recorded per
            // resource.
            if let Err(e) = lm.check_invariants() {
                prop_assert!(false, "lock manager bookkeeping: {}", e);
            }
            for (res, holders) in &held {
                // Invariant 1: all grants on a resource are pairwise
                // compatible (the multi-granularity matrix, including
                // IS/IX/SIX coexistence and X's total exclusivity).
                let hs: Vec<(&u8, &LockMode)> = holders.iter().collect();
                for (i, (t1, m1)) in hs.iter().enumerate() {
                    for (t2, m2) in &hs[i + 1..] {
                        prop_assert!(
                            m1.compatible_with(**m2),
                            "txn {} ({:?}) vs txn {} ({:?}) on {}", t1, m1, t2, m2, res
                        );
                    }
                }
                // Invariant 2 (hierarchy): a key-mode grant implies its
                // covering intention mode held on the parent table.
                if res.contains('#') {
                    let table = resource_table(res);
                    for (t, m) in holders {
                        let parent = held.get(table).and_then(|h| h.get(t));
                        prop_assert!(
                            parent.is_some_and(|p| p.covers(m.intention())),
                            "txn {} holds {:?} on {} without {:?} on {}",
                            t, m, res, m.intention(), table
                        );
                    }
                }
            }
        }
        // Cross-check the manager's view of held locks and modes.
        for t in 0..4u8 {
            let mut expect: Vec<(String, LockMode)> = held
                .iter()
                .filter_map(|(res, hs)| hs.get(&t).map(|m| (res.clone(), *m)))
                .collect();
            expect.sort();
            prop_assert_eq!(lm.held_by(TxnId(t as u64)), expect);
        }
    }
}

/// Injects a lock-wait timeout on every would-block acquisition — the same
/// `LockAcquire` fault point the chaos harness drives.
struct AlwaysTimeout;

impl FaultInjector for AlwaysTimeout {
    fn decide(&self, point: FaultPoint, _detail: &str) -> FaultDecision {
        if point == FaultPoint::LockAcquire {
            FaultDecision::Timeout
        } else {
            FaultDecision::Continue
        }
    }
}

// Law 1: abort (release_all) must drop *every* lock and queued wait of the
// aborting transaction and nothing of anyone else's, regardless of the grant
// history — the "no lock leaked after abort" oracle as a property.
//
// Law 2: with timeout injection at the `LockAcquire` fault point, no request
// ever blocks, so no waits-for edge exists; the manager must then never
// report `Deadlock` (deadlock ⇒ a real waits-for cycle), and timed-out
// transactions abort cleanly.
proptest! {
    #[test]
    fn abort_releases_all_locks(
        ops in proptest::collection::vec(lock_op(), 1..200),
        perm in 0..24usize,
    ) {
        // Decode `perm` as a Lehmer index into the 24 orders of [0,1,2,3].
        let mut pool: Vec<u8> = vec![0, 1, 2, 3];
        let mut abort_order = Vec::new();
        let (mut idx, mut base) = (perm, 24);
        for k in (1..=4).rev() {
            base /= k;
            abort_order.push(pool.remove(idx / base));
            idx %= base;
        }
        let lm = LockManager::new();
        lm.set_injector(Some(Arc::new(AlwaysTimeout)));
        let mut alive: HashSet<u8> = (0..4).collect();
        for op in ops {
            // Blocking path is safe single-threaded: the injector turns
            // every would-block wait into a Timeout error.
            match op {
                LockOp::TryLock(t, r, mode, ids) => {
                    let _ = lock_table(&lm, t as u64, &format!("r{r}"), mode, ids);
                }
                LockOp::TryLockKey(t, r, k, exclusive, ids) => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let _ = lock_key(&lm, t as u64, &format!("r{r}"), &format!("k{k}"), mode, ids);
                }
                LockOp::Release(t) => lm.release_all(TxnId(t as u64)),
            }
            if let Err(e) = lm.check_invariants() {
                prop_assert!(false, "lock manager bookkeeping: {}", e);
            }
        }
        for t in abort_order {
            lm.release_all(TxnId(t as u64)); // abort
            alive.remove(&t);
            if let Err(e) = lm.check_invariants() {
                prop_assert!(false, "lock manager bookkeeping: {}", e);
            }
            prop_assert!(lm.held_by(TxnId(t as u64)).is_empty(), "txn {} leaked a lock", t);
            let survivors: usize = alive
                .iter()
                .map(|t| lm.held_by(TxnId(*t as u64)).len())
                .sum();
            prop_assert_eq!(lm.held_count(), survivors);
        }
        prop_assert_eq!(lm.held_count(), 0);
        prop_assert_eq!(lm.blocked_count(), 0);
    }

    #[test]
    fn no_deadlock_without_waiters(ops in proptest::collection::vec(lock_op(), 1..300)) {
        let lm = LockManager::new();
        lm.set_injector(Some(Arc::new(AlwaysTimeout)));
        let check = |lm: &LockManager, result: Result<(), LockError>, t: u8|
            -> Result<(), TestCaseError>
        {
            match result {
                Ok(()) => {}
                Err(LockError::Timeout) => {
                    // Real-time semantics: a timed-out transaction aborts,
                    // releasing everything it held.
                    lm.release_all(TxnId(t as u64));
                    prop_assert!(lm.held_by(TxnId(t as u64)).is_empty());
                }
                // Deadlock requires a waits-for cycle; with timeout
                // injection nobody ever waits, so a `Deadlock` here would
                // be a false positive from the cycle detector.
                Err(e) => prop_assert!(false, "unexpected lock error {:?}", e),
            }
            Ok(())
        };
        for op in ops {
            match op {
                LockOp::TryLock(t, r, mode, ids) => {
                    check(&lm, lock_table(&lm, t as u64, &format!("r{r}"), mode, ids), t)?;
                }
                LockOp::TryLockKey(t, r, k, exclusive, ids) => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let (table, key) = (format!("r{r}"), format!("k{k}"));
                    check(&lm, lock_key(&lm, t as u64, &table, &key, mode, ids), t)?;
                }
                LockOp::Release(t) => lm.release_all(TxnId(t as u64)),
            }
            // Nobody ever waits under timeout injection.
            prop_assert_eq!(lm.blocked_count(), 0);
            if let Err(e) = lm.check_invariants() {
                prop_assert!(false, "lock manager bookkeeping: {}", e);
            }
        }
    }

    #[test]
    fn delay_queue_releases_in_nondecreasing_time(
        releases in proptest::collection::vec(0..10_000u64, 1..100),
        step in 1..2_000u64,
    ) {
        let mut q = DelayQueue::new();
        for &r in &releases {
            q.push(Task::at("t", r, Box::new(|_| {})));
        }
        let mut popped = Vec::new();
        let mut now = 0;
        while !q.is_empty() {
            now += step;
            for t in q.pop_released(now) {
                prop_assert!(t.release_us <= now);
                popped.push(t.release_us);
            }
        }
        // Everything released, in nondecreasing release order.
        prop_assert_eq!(popped.len(), releases.len());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn edf_pops_in_deadline_order(deadlines in proptest::collection::vec(0..10_000u64, 1..100)) {
        let mut q = ReadyQueue::new(Policy::EarliestDeadline);
        for &d in &deadlines {
            q.push(Task::immediate("t", Box::new(|_| {})).with_deadline(d));
        }
        let mut got = Vec::new();
        while let Some(t) = q.pop() {
            got.push(t.deadline_us.unwrap());
        }
        let mut want = deadlines.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn fifo_is_stable_for_equal_release_times(n in 1..60usize) {
        let mut q = ReadyQueue::new(Policy::Fifo);
        for i in 0..n {
            q.push(Task::at(&format!("t{i}"), 7, Box::new(|_| {})));
        }
        for i in 0..n {
            prop_assert_eq!(&*q.pop().unwrap().kind, format!("t{i}"));
        }
    }
}

// Deadlock ⇐ real waits-for cycle: a forced two-transaction cycle (X on a,
// X on b, then each requesting the other) must surface `Deadlock` to at
// least one side, and the survivor must then complete. Run across table-only,
// key-only, and mixed table/key cycles so the detector is exercised over
// both granularities.
proptest! {
    #[test]
    fn real_cycles_are_detected(shape in 0..3usize, ids in any::<bool>()) {
        use std::sync::Barrier;
        let lm = Arc::new(LockManager::new());
        let barrier = Arc::new(Barrier::new(2));
        let grab = move |lm: &LockManager, t: u64, which: usize, shape: usize| {
            let x = LockMode::Exclusive;
            match (shape, which) {
                (0, w) => lock_table(lm, t, if w == 0 { "a" } else { "b" }, x, ids),
                (1, w) => lock_key(lm, t, "a", if w == 0 { "k0" } else { "k1" }, x, ids),
                (_, 0) => lock_table(lm, t, "a", x, ids),
                (_, _) => lock_key(lm, t, "b", "k0", x, ids),
            }
        };
        let mut handles = Vec::new();
        for id in 0..2u64 {
            let lm = Arc::clone(&lm);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mine = id as usize;
                let theirs = 1 - mine;
                grab(&lm, id + 1, mine, shape).expect("first lock is uncontended");
                barrier.wait();
                // Both now request the other's resource: a 2-cycle. The
                // requester whose wait would close the cycle gets `Deadlock`
                // and aborts; the other blocks until the victim's abort
                // frees its resource, then commits.
                let deadlocked = match grab(&lm, id + 1, theirs, shape) {
                    Ok(()) => false,
                    Err(LockError::Deadlock) => {
                        lm.release_all(TxnId(id + 1)); // victim aborts
                        true
                    }
                    Err(e) => panic!("unexpected lock error {e:?}"),
                };
                if !deadlocked {
                    lm.release_all(TxnId(id + 1));
                }
                deadlocked
            }));
        }
        let victims: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        prop_assert!(
            victims.iter().any(|v| *v),
            "cycle closed but no Deadlock reported (shape {})", shape
        );
        prop_assert_eq!(lm.held_count(), 0);
        prop_assert_eq!(lm.blocked_count(), 0);
        prop_assert!(lm.check_invariants().is_ok());
    }

    // Random concurrent strict-2PL traffic over a small hot resource set:
    // every thread acquires blocking table and key locks and aborts on
    // Deadlock/Timeout. The property is liveness — with cycle detection
    // picking victims, all threads terminate — and cleanliness: no lock or
    // waiter survives the storm.
    #[test]
    fn concurrent_2pl_storm_terminates_cleanly(
        seqs in proptest::collection::vec(
            proptest::collection::vec((0..2u8, 0..2u8, any::<bool>(), any::<bool>()), 1..12),
            3,
        ),
    ) {
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for (i, seq) in seqs.into_iter().enumerate() {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                let t = i as u64 + 1;
                let txn = TxnId(t);
                for (r, k, exclusive, ids) in seq {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let res = if k == 0 {
                        lock_table(&lm, t, &format!("r{r}"), mode, ids)
                    } else {
                        lock_key(&lm, t, &format!("r{r}"), "k", mode, ids)
                    };
                    if res.is_err() {
                        lm.release_all(txn); // abort; strict 2PL drops everything
                        return;
                    }
                }
                lm.release_all(txn); // commit
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(lm.held_count(), 0);
        prop_assert_eq!(lm.blocked_count(), 0);
        prop_assert!(lm.check_invariants().is_ok());
    }
}
