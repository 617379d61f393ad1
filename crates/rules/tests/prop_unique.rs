//! Property-based test: the optimized single-pass partitioner equals a
//! naive transcription of Appendix A — for one unique table, and for the
//! cross product of two unique tables beside a broadcast table — and
//! dispatch/merge preserves every row exactly once.

use proptest::prelude::*;
use std::collections::HashMap;
use strip_rules::unique::{partition_bound_tables, Dispatch, UniqueManager};
use strip_storage::{DataType, NullMeter, Schema, TempTable, Value};

/// A table named `name` of (str, int, float) rows under column names `cols`.
fn table(name: &str, cols: [&str; 3], rows: &[Row]) -> TempTable {
    let schema = Schema::of(&[
        (cols[0], DataType::Str),
        (cols[1], DataType::Int),
        (cols[2], DataType::Float),
    ])
    .into_ref();
    let mut t = TempTable::materialized(name, schema);
    for r in rows {
        t.push_row((0..3).map(|c| cell(r, c)).collect()).unwrap();
    }
    t
}

/// Column `col` of a test row.
fn cell(r: &Row, col: usize) -> Value {
    match col {
        0 => Value::str(format!("k{}", r.0)),
        1 => Value::Int(r.1),
        _ => Value::Float(r.2),
    }
}

/// A bound table of (a: str, b: int, x: float) rows.
fn bound_from(rows: &[Row]) -> HashMap<String, TempTable> {
    HashMap::from([("m".to_string(), table("m", ["a", "b", "x"], rows))])
}

/// Bound tables `m` (a, b, x) and `n` (c, d, y), which can both hold
/// unique columns, and `aux` (e, f, z), which never does.
fn bound_cross(m: &[Row], n: &[Row], aux: &[Row]) -> HashMap<String, TempTable> {
    HashMap::from([
        ("m".to_string(), table("m", ["a", "b", "x"], m)),
        ("n".to_string(), table("n", ["c", "d", "y"], n)),
        ("aux".to_string(), table("aux", ["e", "f", "z"], aux)),
    ])
}

/// `unique on` lists over `m` and `n`, each column as (table, offset).
const CROSS_KEYS: [&[(&str, usize)]; 3] = [
    &[("m", 0), ("n", 0)],
    &[("n", 0), ("m", 0)],
    &[("m", 1), ("n", 0), ("m", 0)],
];

/// The column names of a [`CROSS_KEYS`] entry.
fn cross_cols(key: &[(&str, usize)]) -> Vec<String> {
    let names = |t: &str| {
        if t == "m" {
            ["a", "b", "x"]
        } else {
            ["c", "d", "y"]
        }
    };
    key.iter().map(|&(t, c)| names(t)[c].to_string()).collect()
}

/// One reference partition: key, `m` rows, `n` rows.
type CrossPart = (Vec<Value>, Vec<Row>, Vec<Row>);

/// Naive Appendix A over two unique tables: every combination of an `m`
/// group and an `n` group (`m`-major, groups in first-seen order), the key
/// assembled in declared column order; `aux` goes whole to every partition.
fn reference_cross(m: &[Row], n: &[Row], key: &[(&str, usize)]) -> Vec<CrossPart> {
    let own = |t: &str, r: &Row| -> Vec<Value> {
        key.iter()
            .filter(|(kt, _)| *kt == t)
            .map(|&(_, c)| cell(r, c))
            .collect()
    };
    let gm = reference_partition(m, |r| own("m", r));
    let gn = reference_partition(n, |r| own("n", r));
    let mut out = Vec::new();
    for (km, rm) in &gm {
        for (kn, rn) in &gn {
            let (mut im, mut in_) = (km.iter(), kn.iter());
            let k = key
                .iter()
                .map(|(t, _)| if *t == "m" { im.next() } else { in_.next() })
                .map(|v| v.unwrap().clone())
                .collect();
            out.push((k, rm.clone(), rn.clone()));
        }
    }
    out
}

/// A row of the test's bound table.
type Row = (u8, i64, f64);
/// Key extractor for the reference partitioner.
type KeyFn = fn(&Row) -> Vec<Value>;

/// Naive Appendix-A reference for a single bound table: distinct key
/// combinations present in the table, each with the rows whose key columns
/// match.
fn reference_partition(
    rows: &[Row],
    key: impl Fn(&Row) -> Vec<Value>,
) -> Vec<(Vec<Value>, Vec<Row>)> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<(u8, i64, f64)>> = HashMap::new();
    for r in rows {
        let k = key(r);
        if !groups.contains_key(&k) {
            order.push(k.clone());
        }
        groups.entry(k).or_default().push(*r);
    }
    order
        .into_iter()
        .map(|k| {
            let v = groups.remove(&k).unwrap();
            (k, v)
        })
        .collect()
}

fn rows_of(t: &TempTable) -> Vec<Row> {
    (0..t.len())
        .map(|i| {
            let a = t.value(i, 0).as_str().unwrap()[1..].parse::<u8>().unwrap();
            (
                a,
                t.value(i, 1).as_i64().unwrap(),
                t.value(i, 2).as_f64().unwrap(),
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn partition_matches_appendix_a_reference(
        rows in proptest::collection::vec((0..4u8, 0..3i64, -10.0..10.0f64), 0..40),
        key_choice in 0..3usize,
    ) {
        let (cols, key): (Vec<String>, KeyFn) = match key_choice {
            0 => (vec!["a".into()], |r| vec![Value::str(format!("k{}", r.0))]),
            1 => (vec!["b".into()], |r| vec![Value::Int(r.1)]),
            _ => (
                vec!["a".into(), "b".into()],
                |r| vec![Value::str(format!("k{}", r.0)), Value::Int(r.1)],
            ),
        };
        let got = partition_bound_tables(&cols, bound_from(&rows)).unwrap();
        let want = reference_partition(&rows, key);

        prop_assert_eq!(got.len(), want.len());
        // Same keys, same rows per key (row order within a partition must
        // preserve the original order — the paper guarantees firing order).
        let got_map: HashMap<Vec<Value>, Vec<(u8, i64, f64)>> = got
            .into_iter()
            .map(|(k, mut part)| (k, rows_of(&part.remove("m").unwrap())))
            .collect();
        for (k, rows) in want {
            let got_rows = got_map.get(&k).ok_or_else(|| {
                TestCaseError::fail(format!("missing partition {k:?}"))
            })?;
            prop_assert_eq!(got_rows, &rows);
        }
    }

    #[test]
    fn coarse_partition_is_identity(
        rows in proptest::collection::vec((0..4u8, 0..3i64, -10.0..10.0f64), 0..30),
    ) {
        let got = partition_bound_tables(&[], bound_from(&rows)).unwrap();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(rows_of(&got[0].1["m"]), rows);
    }

    #[test]
    fn dispatch_preserves_every_row_exactly_once(
        firings in proptest::collection::vec(
            proptest::collection::vec((0..4u8, 0..3i64, -10.0..10.0f64), 1..10),
            1..10,
        ),
    ) {
        // Fire repeatedly without running any action: every input row must
        // end up in exactly one pending payload, in firing order per key.
        let um = UniqueManager::new();
        let mut new_payloads = Vec::new();
        for rows in &firings {
            for d in um
                .dispatch_unique("f", &["a".to_string()], bound_from(rows), &NullMeter, 0)
                .unwrap()
            {
                if let Dispatch::New(p) = d {
                    new_payloads.push(p);
                }
            }
        }
        // Collect all rows across pending payloads.
        let mut got: Vec<(u8, i64, f64)> = Vec::new();
        for p in &new_payloads {
            let st = p.state.lock();
            got.extend(rows_of(&st.bound["m"]));
        }
        let mut want: Vec<(u8, i64, f64)> =
            firings.iter().flatten().copied().collect();
        got.sort_by(|l, r| l.partial_cmp(r).unwrap());
        want.sort_by(|l, r| l.partial_cmp(r).unwrap());
        prop_assert_eq!(got, want);
        // Pending count equals the number of distinct keys seen.
        let distinct: std::collections::HashSet<u8> =
            firings.iter().flatten().map(|r| r.0).collect();
        prop_assert_eq!(um.pending_count("f"), distinct.len());
    }

    #[test]
    fn cross_product_partition_matches_reference(
        m in proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 0..12),
        n in proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 0..12),
        aux in proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 0..4),
        key_choice in 0..3usize,
    ) {
        let key = CROSS_KEYS[key_choice];
        let got = partition_bound_tables(&cross_cols(key), bound_cross(&m, &n, &aux)).unwrap();
        let want = reference_cross(&m, &n, key);
        prop_assert_eq!(got.len(), want.len());
        // Same partitions in the same order, each with its own rows of the
        // unique tables in row order and all of `aux`.
        for ((k, part), (wk, wm, wn)) in got.iter().zip(&want) {
            prop_assert_eq!(k, wk);
            prop_assert_eq!(&rows_of(&part["m"]), wm);
            prop_assert_eq!(&rows_of(&part["n"]), wn);
            prop_assert_eq!(&rows_of(&part["aux"]), &aux);
        }
    }

    #[test]
    fn cross_product_dispatch_matches_reference(
        firings in proptest::collection::vec(
            (
                proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 1..6),
                proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 1..6),
                proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 0..3),
            ),
            1..6,
        ),
        key_choice in 0..3usize,
    ) {
        // Reference: each firing's partitions appended, per key, to what
        // earlier firings left pending.
        let key = CROSS_KEYS[key_choice];
        let mut model: HashMap<Vec<Value>, [Vec<Row>; 3]> = HashMap::new();
        let um = UniqueManager::new();
        let mut new_payloads = Vec::new();
        for (m, n, aux) in &firings {
            for (k, wm, wn) in reference_cross(m, n, key) {
                let [em, en, ea] = model.entry(k).or_default();
                em.extend(wm);
                en.extend(wn);
                ea.extend(aux);
            }
            let bound = bound_cross(m, n, aux);
            for d in um.dispatch_unique("f", &cross_cols(key), bound, &NullMeter, 0).unwrap() {
                if let Dispatch::New(p) = d {
                    new_payloads.push(p);
                }
            }
        }
        prop_assert_eq!(new_payloads.len(), model.len());
        prop_assert_eq!(um.pending_count("f"), model.len());
        for p in &new_payloads {
            let st = p.state.lock();
            let [wm, wn, wa] = &model[&p.unique_key];
            prop_assert_eq!(&rows_of(&st.bound["m"]), wm);
            prop_assert_eq!(&rows_of(&st.bound["n"]), wn);
            prop_assert_eq!(&rows_of(&st.bound["aux"]), wa);
        }
    }
}

/// Bound tables `m` (a, b, x), the one unique table, and `aux` (e, f, z),
/// broadcast to every partition.
fn bound_with_aux(m: &[Row], aux: &[Row]) -> HashMap<String, TempTable> {
    HashMap::from([
        ("m".to_string(), table("m", ["a", "b", "x"], m)),
        ("aux".to_string(), table("aux", ["e", "f", "z"], aux)),
    ])
}

proptest! {
    #[test]
    fn single_unique_table_dispatch_matches_reference(
        firings in proptest::collection::vec(
            (
                proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 1..8),
                proptest::collection::vec((0..3u8, 0..2i64, -10.0..10.0f64), 0..3),
            ),
            1..6,
        ),
        key_choice in 0..2usize,
    ) {
        // One unique table: each partition's rows of `m` move out of the
        // firing's table; `aux` goes whole to every partition. Reference:
        // each firing's Appendix-A partitions appended, per key, to what
        // earlier firings left pending.
        let (cols, key): (Vec<String>, KeyFn) = match key_choice {
            0 => (vec!["a".into()], |r| vec![Value::str(format!("k{}", r.0))]),
            _ => (
                vec!["b".into(), "a".into()],
                |r| vec![Value::Int(r.1), Value::str(format!("k{}", r.0))],
            ),
        };
        let mut model: HashMap<Vec<Value>, [Vec<Row>; 2]> = HashMap::new();
        let um = UniqueManager::new();
        let mut payloads = Vec::new();
        for (m, aux) in &firings {
            let want = reference_partition(m, key);
            for (k, rows) in &want {
                let [em, ea] = model.entry(k.clone()).or_default();
                em.extend(rows);
                ea.extend(aux);
            }
            let got = um
                .dispatch_unique("f", &cols, bound_with_aux(m, aux), &NullMeter, 0)
                .unwrap();
            // One dispatch per partition, in first-seen key order.
            prop_assert_eq!(got.len(), want.len());
            for (d, (k, _)) in got.into_iter().zip(&want) {
                let p = match d {
                    Dispatch::New(p) => {
                        payloads.push(p.clone());
                        p
                    }
                    Dispatch::Merged(p) => p,
                };
                prop_assert_eq!(&p.unique_key, k);
            }
            // Every payload's byte meter is exact after each merge.
            for p in &payloads {
                let st = p.state.lock();
                for t in st.bound.values() {
                    prop_assert_eq!(t.mem_bytes(), t.__walk_mem());
                }
            }
        }
        prop_assert_eq!(payloads.len(), model.len());
        prop_assert_eq!(um.pending_count("f"), model.len());
        for p in &payloads {
            let st = p.state.lock();
            let [wm, wa] = &model[&p.unique_key];
            prop_assert_eq!(&rows_of(&st.bound["m"]), wm);
            prop_assert_eq!(&rows_of(&st.bound["aux"]), wa);
        }
    }
}
