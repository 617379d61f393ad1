//! Property-based proof that the byte meters are **exact**: after any
//! interleaving of inserts, updates, deletes, index DDL, pin churn, commit
//! publishing, snapshot pinning, and version GC, the incrementally-
//! maintained counters equal the deep-walk oracle's recompute — for the
//! table as a whole and summed across shards. Doubles as the storage-level
//! snapshot-consistency oracle: every pinned snapshot's `scan_at` image is
//! recorded at pin time and must be re-readable, bit for bit, for as long
//! as the snapshot is held, no matter how much DML and GC runs meanwhile.

use proptest::prelude::*;
use strip_storage::{
    DataType, IndexKind, RowId, Schema, StandardTable, TableMem, Value, SHARD_COUNT,
};

#[derive(Debug, Clone)]
enum MemOp {
    /// Insert a row with a variable-length symbol (string payloads make the
    /// byte model non-trivial).
    Insert(u8, f64),
    /// Update the i-th live row (modulo size) to a new symbol + price,
    /// pinning the superseded version when the flag is set.
    Update(usize, u8, f64, bool),
    /// Delete the i-th live row, pinning the final version when set.
    Delete(usize, bool),
    /// Drop the i-th held pin (modulo pin count).
    Unpin(usize),
    /// Create a hash index over `symbol` (first occurrence only).
    IndexSymbol,
    /// Create an rb-tree index over `price` (first occurrence only).
    IndexPrice,
    /// Commit: stamp every pending version with the next commit timestamp.
    Commit,
    /// Pin a snapshot at the current committed timestamp, recording its
    /// full table image as the oracle expectation.
    PinSnapshot,
    /// Drop the i-th held snapshot (modulo snapshot count).
    DropSnapshot(usize),
    /// Run version GC at the correct horizon (min pinned snapshot ts, or
    /// the commit clock when none).
    Collect,
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    // The vendored prop_oneof! is unweighted; repeat the DML arms to bias
    // generation toward mutations over (idempotent) DDL.
    prop_oneof![
        (0..30u8, -100.0..100.0f64).prop_map(|(s, p)| MemOp::Insert(s, p)),
        (0..30u8, -100.0..100.0f64).prop_map(|(s, p)| MemOp::Insert(s, p)),
        (any::<usize>(), 0..30u8, -100.0..100.0f64, any::<bool>())
            .prop_map(|(i, s, p, pin)| MemOp::Update(i, s, p, pin)),
        (any::<usize>(), 0..30u8, -100.0..100.0f64, any::<bool>())
            .prop_map(|(i, s, p, pin)| MemOp::Update(i, s, p, pin)),
        (any::<usize>(), any::<bool>()).prop_map(|(i, pin)| MemOp::Delete(i, pin)),
        any::<usize>().prop_map(MemOp::Unpin),
        Just(MemOp::IndexSymbol),
        Just(MemOp::IndexPrice),
        Just(MemOp::Commit),
        Just(MemOp::Commit),
        Just(MemOp::PinSnapshot),
        any::<usize>().prop_map(MemOp::DropSnapshot),
        Just(MemOp::Collect),
        Just(MemOp::Collect),
    ]
}

/// Symbols of varying byte length so row and key sizes differ across ops.
fn symbol(s: u8) -> Value {
    Value::str("S".repeat((s % 7) as usize + 1) + &s.to_string())
}

/// A snapshot image: `(row id, values)` pairs sorted by row id.
type Image = Vec<(u64, Vec<Value>)>;

/// Canonical, order-independent form of a snapshot image for comparison.
fn image_at(t: &StandardTable, ts: u64) -> Image {
    let mut rows: Image = t
        .scan_at(ts)
        .into_iter()
        .map(|(id, rec)| (id.as_u64(), rec.values().to_vec()))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #[test]
    fn metered_bytes_equal_walked_bytes(ops in proptest::collection::vec(mem_op(), 1..120)) {
        let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
        let t = StandardTable::new("t", schema.into_ref());
        let mut live = Vec::new(); // RowIds of live rows
        let mut touched: Vec<RowId> = Vec::new(); // every id ever handed out
        let mut pins: Vec<strip_storage::RecordRef> = Vec::new();
        // Pinned snapshots: (ts, expected image captured at pin time).
        let mut snaps: Vec<(u64, Image)> = Vec::new();
        let mut clock = 0u64; // last published commit timestamp
        let (mut have_ix_sym, mut have_ix_price) = (false, false);
        for op in ops {
            match op {
                MemOp::Insert(s, p) => {
                    let (id, _) = t.insert(vec![symbol(s), p.into()]).unwrap();
                    live.push(id);
                    touched.push(id);
                }
                MemOp::Update(i, s, p, pin) if !live.is_empty() => {
                    let id = live[i % live.len()];
                    let (old, _) = t.update(id, vec![symbol(s), p.into()]).unwrap();
                    if pin {
                        pins.push(old);
                    }
                }
                MemOp::Delete(i, pin) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    let old = t.delete(id).unwrap();
                    if pin {
                        pins.push(old);
                    }
                }
                MemOp::Unpin(i) if !pins.is_empty() => {
                    pins.remove(i % pins.len());
                }
                MemOp::IndexSymbol if !have_ix_sym => {
                    t.create_index("ix_sym", "symbol", IndexKind::Hash).unwrap();
                    have_ix_sym = true;
                }
                MemOp::IndexPrice if !have_ix_price => {
                    t.create_index("ix_price", "price", IndexKind::RbTree).unwrap();
                    have_ix_price = true;
                }
                MemOp::Commit => {
                    clock += 1;
                    for id in &touched {
                        t.publish_versions(*id, clock);
                    }
                }
                MemOp::PinSnapshot => {
                    snaps.push((clock, image_at(&t, clock)));
                }
                MemOp::DropSnapshot(i) if !snaps.is_empty() => {
                    snaps.remove(i % snaps.len());
                }
                MemOp::Collect => {
                    let horizon = snaps.iter().map(|(ts, _)| *ts).min().unwrap_or(clock);
                    t.collect_versions(horizon);
                }
                _ => {}
            }
            // The incremental meters must equal the from-scratch recompute
            // after EVERY operation, not just at the end.
            let metered = t.mem();
            let walked = t.__walk_mem();
            prop_assert_eq!(metered, walked);
            // Σ shard == table is the defining identity of the table total;
            // assert it against an independent re-read of the shards.
            let mut sum = TableMem::default();
            for shard in 0..SHARD_COUNT {
                sum.add(t.shard_mem(shard));
            }
            prop_assert_eq!(sum, t.mem());
            // Snapshot-consistency oracle: every pinned snapshot re-reads
            // its exact pin-time image, whatever DML/GC ran since.
            for (ts, expected) in &snaps {
                prop_assert_eq!(&image_at(&t, *ts), expected,
                    "snapshot at ts={} drifted", ts);
            }
        }
        // Readers drained, pins dropped, everything published + collected:
        // the version-chain class returns to the no-snapshot baseline (0).
        snaps.clear();
        pins.clear();
        clock += 1;
        for id in &touched {
            t.publish_versions(*id, clock);
        }
        t.collect_versions(clock);
        prop_assert_eq!(t.mem().version_bytes, 0);
        prop_assert_eq!(t.mem(), t.__walk_mem());
        prop_assert_eq!(t.gc_backlog(), 0);
        if have_ix_sym || have_ix_price {
            t.check_index_integrity().map_err(|e| {
                TestCaseError::fail(format!("index integrity after GC: {e}"))
            })?;
        }
    }
}

/// Mutant self-test: a GC horizon off by one collects versions a pinned
/// snapshot can still see, and the snapshot-image oracle above catches it.
/// Proves the oracle is sensitive to retention bugs, not vacuously green.
#[test]
fn gc_horizon_off_by_one_is_caught_by_snapshot_oracle() {
    let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
    let t = StandardTable::new("t", schema.into_ref());
    let (id, _) = t.insert(vec!["IBM".into(), 100.0.into()]).unwrap();
    t.publish_versions(id, 1);

    // Pin a snapshot at ts=1 and record its image.
    let expected = image_at(&t, 1);
    assert_eq!(expected.len(), 1);

    // A writer supersedes the row at ts=2 while the snapshot is live.
    t.update(id, vec!["IBM".into(), 101.0.into()]).unwrap();
    t.publish_versions(id, 2);

    // Correct GC at horizon 1 retains the snapshot's version.
    t.collect_versions(1);
    assert_eq!(
        image_at(&t, 1),
        expected,
        "correct GC must not disturb the snapshot"
    );

    // The off-by-one mutant collects it; the oracle comparison now fails.
    t.__collect_versions_overshoot(1);
    assert_ne!(
        image_at(&t, 1),
        expected,
        "mutant GC should have destroyed the snapshot image — oracle is blind"
    );
}
