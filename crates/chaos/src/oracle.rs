//! Invariant oracles: checks that must hold at every quiescent point and
//! after every recovery, no matter what faults fired.
//!
//! Each oracle returns a list of violation strings (empty = holds). The
//! driver aggregates them into the scenario's outcome; the battery asserts
//! the aggregate is empty for every seed.

use std::collections::BTreeMap;
use strip_core::Strip;

/// Comparison slack for derived prices. The scenario only uses dyadic
/// rationals (prices and weights on a 1/16 grid) so sums are exact; the
/// epsilon guards against a future scenario loosening that.
pub const PRICE_EPS: f64 = 1e-9;

/// Sorted, canonical row images of one table (order-insensitive digest).
pub fn table_image(db: &Strip, table: &str) -> Result<Vec<String>, String> {
    let rows = db
        .table_rows(table)
        .map_err(|e| format!("table `{table}`: {e}"))?;
    let mut img: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    img.sort();
    Ok(img)
}

/// Canonical image of several tables (durability diffs, interleaving diffs).
pub fn state_digest(db: &Strip, tables: &[&str]) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out = BTreeMap::new();
    for t in tables {
        out.insert((*t).to_string(), table_image(db, t)?);
    }
    Ok(out)
}

/// Durability oracle: every table image in `a` equals the one in `b`.
/// Used as "recovered database == crashed database" (and, fault-free, as
/// "recovered database == live database").
pub fn diff_states(
    label: &str,
    a: &BTreeMap<String, Vec<String>>,
    b: &BTreeMap<String, Vec<String>>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (table, rows_a) in a {
        match b.get(table) {
            None => problems.push(format!("{label}: table `{table}` missing on one side")),
            Some(rows_b) if rows_a != rows_b => problems.push(format!(
                "{label}: table `{table}` diverged ({} vs {} rows; first diff: {:?})",
                rows_a.len(),
                rows_b.len(),
                first_diff(rows_a, rows_b)
            )),
            Some(_) => {}
        }
    }
    problems
}

fn first_diff(a: &[String], b: &[String]) -> Option<(Option<String>, Option<String>)> {
    let n = a.len().max(b.len());
    (0..n).find_map(|i| {
        let (x, y) = (a.get(i), b.get(i));
        (x != y).then(|| (x.cloned(), y.cloned()))
    })
}

/// Derived-data oracle: every composite's price equals the weighted sum of
/// its underlying stock prices, recomputed from scratch in Rust (not via
/// the engine under test).
pub fn check_derived_prices(db: &Strip) -> Vec<String> {
    let mut problems = Vec::new();
    let (stocks, comps_list, comp_prices) = match (
        db.table_rows("stocks"),
        db.table_rows("comps_list"),
        db.table_rows("comp_prices"),
    ) {
        (Ok(s), Ok(cl), Ok(cp)) => (s, cl, cp),
        _ => return vec!["derived: market tables missing".into()],
    };
    let price_of: BTreeMap<String, f64> = stocks
        .iter()
        .filter_map(|r| Some((r[0].as_str()?.to_string(), r[1].as_f64()?)))
        .collect();
    // comps_list rows are (comp, symbol, weight).
    let mut expected: BTreeMap<String, f64> = BTreeMap::new();
    for r in &comps_list {
        let (Some(comp), Some(sym), Some(w)) = (r[0].as_str(), r[1].as_str(), r[2].as_f64()) else {
            problems.push(format!("derived: malformed comps_list row {r:?}"));
            continue;
        };
        match price_of.get(sym) {
            Some(p) => *expected.entry(comp.to_string()).or_insert(0.0) += w * p,
            None => problems.push(format!(
                "derived: `{comp}` references unknown stock `{sym}`"
            )),
        }
    }
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for r in &comp_prices {
        let (Some(comp), Some(got)) = (r[0].as_str(), r[1].as_f64()) else {
            problems.push(format!("derived: malformed comp_prices row {r:?}"));
            continue;
        };
        *seen.entry(comp.to_string()).or_insert(0) += 1;
        match expected.get(comp) {
            Some(want) if (want - got).abs() <= PRICE_EPS => {}
            Some(want) => problems.push(format!(
                "derived: `{comp}` price {got} != weighted sum {want}"
            )),
            None => problems.push(format!("derived: `{comp}` has no comps_list entries")),
        }
    }
    // Row-level completeness: every composite must be materialized exactly
    // once. This matters for in-place (delta) maintenance, where an `update`
    // against a vanished row silently applies to nothing — a value-only
    // check would never notice the key is missing.
    for comp in expected.keys() {
        match seen.get(comp).copied().unwrap_or(0) {
            0 => problems.push(format!("derived: `{comp}` missing from comp_prices")),
            1 => {}
            n => problems.push(format!("derived: `{comp}` materialized {n} times")),
        }
    }
    problems
}

/// Stocks-vs-shadow oracle: each stock's price equals `initial + sum of the
/// deltas of surviving updates` (the harness's shadow model).
pub fn check_stocks_match_shadow(db: &Strip, shadow: &BTreeMap<String, f64>) -> Vec<String> {
    let mut problems = Vec::new();
    let Ok(stocks) = db.table_rows("stocks") else {
        return vec!["shadow: stocks table missing".into()];
    };
    if stocks.len() != shadow.len() {
        problems.push(format!(
            "shadow: {} stocks live vs {} in the model",
            stocks.len(),
            shadow.len()
        ));
    }
    for r in &stocks {
        let (Some(sym), Some(got)) = (r[0].as_str(), r[1].as_f64()) else {
            problems.push(format!("shadow: malformed stocks row {r:?}"));
            continue;
        };
        match shadow.get(sym) {
            Some(want) if (want - got).abs() <= PRICE_EPS => {}
            Some(want) => problems.push(format!("shadow: `{sym}` price {got} != expected {want}")),
            None => problems.push(format!("shadow: unexpected stock `{sym}`")),
        }
    }
    problems
}

/// Lock-leak oracle: at a quiescent point no lock may be held or waited on.
pub fn check_no_leaked_locks(db: &Strip) -> Vec<String> {
    let held = db.locks_held();
    if held > 0 {
        vec![format!("locks: {held} lock(s) held at a quiescent point")]
    } else {
        Vec::new()
    }
}

/// Unique-transaction oracle: for every unique user function, the pending
/// partition keys contain no duplicates (at most one pending transaction
/// per `unique on` partition).
pub fn check_unique_pending(db: &Strip) -> Vec<String> {
    let mut problems = Vec::new();
    for func in db.unique_functions() {
        let keys = db.pending_unique_partitions(&func);
        let mut seen = std::collections::BTreeSet::new();
        for k in &keys {
            if !seen.insert(format!("{k:?}")) {
                problems.push(format!(
                    "unique: `{func}` has two pending transactions for partition {k:?}"
                ));
            }
        }
        if db.pending_unique(&func) < keys.len() {
            problems.push(format!(
                "unique: `{func}` pending count {} below live partition count {}",
                db.pending_unique(&func),
                keys.len()
            ));
        }
    }
    problems
}

/// Transition-table oracle, run *inside* the action function over the bound
/// `changes` table (base columns… + execute_order + commit_time). `rows` are
/// `(firing, execute_order)` in bound-table order, where `firing` names the
/// triggering transaction. A merged payload appends whole firings, so each
/// firing's rows are contiguous and strictly increasing in `execute_order`
/// — log-scan order, old/new pairing intact. Orders are 0-based per
/// transaction (the engine's `TxnLog` numbering). Firings that share a
/// commit time are still told apart.
pub fn check_execute_order<F: PartialEq + std::fmt::Debug>(rows: &[(F, i64)]) -> Vec<String> {
    let mut problems = Vec::new();
    // Firings whose rows ended before the current one began.
    let mut closed: Vec<&F> = Vec::new();
    let mut prev: Option<(&F, i64)> = None;
    for (firing, eo) in rows {
        let eo = *eo;
        if eo < 0 {
            problems.push(format!("execute_order: negative value {eo}"));
        }
        match prev {
            Some((pf, peo)) if pf == firing => {
                if eo <= peo {
                    problems.push(format!(
                        "execute_order: not increasing within firing {firing:?} ({peo} -> {eo})"
                    ));
                }
            }
            _ => {
                closed.extend(prev.map(|(pf, _)| pf));
                if closed.contains(&firing) {
                    problems.push(format!(
                        "execute_order: firing {firing:?} split by another firing's rows"
                    ));
                }
            }
        }
        prev = Some((firing, eo));
    }
    problems
}

/// Index + lock consistency as reported by the engine itself.
pub fn check_engine_consistency(db: &Strip) -> Vec<String> {
    db.check_consistency()
        .into_iter()
        .map(|p| format!("consistency: {p}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_order_oracle_accepts_merged_firings() {
        // Two firings merged into one bound table: orders restart at the
        // next firing — legal.
        assert!(check_execute_order(&[(7, 1), (7, 2), (9, 1), (9, 2)]).is_empty());
        // Two one-row firings, as two updates committed at the same virtual
        // time leave them: both orders are 0, and each firing is in order.
        assert!(check_execute_order(&[(7, 0), (9, 0)]).is_empty());
    }

    #[test]
    fn execute_order_oracle_rejects_regression_within_a_firing() {
        let v = check_execute_order(&[(7, 1), (7, 3), (7, 2)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not increasing"));
        // A repeated order within one firing is a regression too.
        let v = check_execute_order(&[(7, 0), (7, 0)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not increasing"));
    }

    #[test]
    fn execute_order_oracle_rejects_a_split_firing() {
        // Firing 7's rows interleaved with firing 9's: reordered rows, even
        // though each firing's own orders increase.
        let v = check_execute_order(&[(7, 0), (9, 0), (7, 1)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("split"));
    }

    #[test]
    fn diff_states_reports_divergence() {
        let mut a = BTreeMap::new();
        a.insert("t".to_string(), vec!["r1".to_string()]);
        let mut b = BTreeMap::new();
        b.insert("t".to_string(), vec!["r2".to_string()]);
        let d = diff_states("durability", &a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("diverged"));
        assert!(diff_states("durability", &a, &a).is_empty());
    }
}
