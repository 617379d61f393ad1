//! Transition-table construction from the transaction log (paper §2, §6.3).
//!
//! At commit, the log is scanned once and the four transition tables are
//! built for each table with triggered rules: `inserted`, `deleted`, and
//! `new`/`old` for updates. Each carries the `execute_order` system column;
//! the old and new images of one update share the same number so conditions
//! can join `new.execute_order = old.execute_order`.
//!
//! Tuples use the §6.1 pointer scheme: one pointer to the pinned record
//! version plus a materialized `execute_order` slot — no value copying, and
//! old versions stay alive exactly as long as something references them.

use crate::error::Result;
use std::sync::Arc;
use strip_sql::ast::BinOp;
use strip_sql::expr::{BExpr, Program};
use strip_storage::{ColumnSource, DataType, Meter, Op, SchemaRef, StaticMap, TempTable, Value};
use strip_txn::{LogEntry, TxnLog};

/// The four transition tables of one base table for one transaction.
#[derive(Debug, Clone)]
pub struct TransitionTables {
    /// Rows inserted (`inserted`).
    pub inserted: Arc<TempTable>,
    /// Rows deleted (`deleted`).
    pub deleted: Arc<TempTable>,
    /// Pre-update images (`old`).
    pub old: Arc<TempTable>,
    /// Post-update images (`new`).
    pub new: Arc<TempTable>,
}

impl TransitionTables {
    /// The transition table a query names (`inserted`, `deleted`, `old`
    /// or `new`, any case).
    pub fn get(&self, name: &str) -> Option<&Arc<TempTable>> {
        [
            ("inserted", &self.inserted),
            ("deleted", &self.deleted),
            ("old", &self.old),
            ("new", &self.new),
        ]
        .into_iter()
        .find_map(|(n, t)| name.eq_ignore_ascii_case(n).then_some(t))
    }

    /// Number of update events captured.
    pub fn update_count(&self) -> usize {
        self.new.len()
    }

    /// True if the transaction produced no events on this table.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.new.is_empty()
    }

    /// True when every transition table lists its events in strictly
    /// increasing `execute_order` — log-scan order, the invariant that lets
    /// conditions join `new.execute_order = old.execute_order` and that the
    /// chaos harness checks as an oracle.
    pub fn orders_monotone(&self) -> bool {
        [&self.inserted, &self.deleted, &self.old, &self.new]
            .into_iter()
            .all(|t| execute_order_column(t).is_some_and(|os| os.windows(2).all(|w| w[0] < w[1])))
    }
}

/// The `execute_order` values of a transition (or bound) table in row
/// order, or `None` if the table has no such column. Works on any
/// `TempTable` that carries the system column — including action-overlay
/// bound tables that appended further columns (e.g. `commit_time`) after it.
pub fn execute_order_column(t: &TempTable) -> Option<Vec<i64>> {
    let off = t.schema().index_of("execute_order")?;
    (0..t.len()).map(|i| t.value(i, off).as_i64()).collect()
}

/// Schema of a transition table: the base schema plus `execute_order`.
pub fn transition_schema(base: &SchemaRef) -> Result<SchemaRef> {
    Ok(base
        .extended(&[("execute_order", DataType::Int)])?
        .into_ref())
}

fn transition_map(base_arity: usize) -> StaticMap {
    let mut sources: Vec<ColumnSource> = (0..base_arity)
        .map(|offset| ColumnSource::Pointer { ptr: 0, offset })
        .collect();
    sources.push(ColumnSource::Slot(0));
    StaticMap::new(sources).expect("transition map is contiguous by construction")
}

/// Build the transition tables for `table` from a transaction log.
/// `base_schema` is the table's schema. Charges one `LogScanRecord` per
/// relevant entry.
pub fn build_transition_tables(
    log: &TxnLog,
    table: &str,
    base_schema: &SchemaRef,
    meter: &dyn Meter,
) -> Result<TransitionTables> {
    let schema = transition_schema(base_schema)?;
    let arity = base_schema.arity();
    let mut inserted = TempTable::new("inserted", schema.clone(), transition_map(arity))?;
    let mut deleted = TempTable::new("deleted", schema.clone(), transition_map(arity))?;
    let mut old_t = TempTable::new("old", schema.clone(), transition_map(arity))?;
    let mut new_t = TempTable::new("new", schema, transition_map(arity))?;

    for entry in log.entries() {
        if entry.table() != table {
            continue;
        }
        meter.charge(Op::LogScanRecord, 1);
        let order = Value::Int(entry.execute_order() as i64);
        match entry {
            LogEntry::Insert { new, .. } => {
                meter.charge(Op::TempTupleBuild, 1);
                inserted.push(vec![new.clone()], vec![order])?;
            }
            LogEntry::Delete { old, .. } => {
                meter.charge(Op::TempTupleBuild, 1);
                deleted.push(vec![old.clone()], vec![order])?;
            }
            LogEntry::Update { old, new, .. } => {
                meter.charge(Op::TempTupleBuild, 2);
                old_t.push(vec![old.clone()], vec![order.clone()])?;
                new_t.push(vec![new.clone()], vec![order])?;
            }
        }
    }
    Ok(TransitionTables {
        inserted: Arc::new(inserted),
        deleted: Arc::new(deleted),
        old: Arc::new(old_t),
        new: Arc::new(new_t),
    })
}

/// Did the transaction update any of `columns` (by comparing old/new record
/// images)? Empty `columns` means "any column". Used to evaluate
/// `when updated [column-commalist]` predicates.
pub fn any_column_updated(
    log: &TxnLog,
    table: &str,
    base_schema: &SchemaRef,
    columns: &[String],
) -> bool {
    // `when updated` with no column list: any update event matches, no
    // comparison needed.
    if columns.is_empty() {
        return log
            .entries()
            .iter()
            .any(|e| matches!(e, LogEntry::Update { table: t, .. } if t == table));
    }
    // Compile `old.c1 <> new.c1 or old.c2 <> new.c2 or ...` once over the
    // concatenated `[old image, new image]` row, then run it per update
    // entry — the same Program evaluator rule conditions execute through.
    let arity = base_schema.arity();
    let cmp = columns
        .iter()
        .filter_map(|c| base_schema.index_of(c))
        .map(|o| BExpr::Binary {
            op: BinOp::NotEq,
            left: Box::new(BExpr::Col(o)),
            right: Box::new(BExpr::Col(arity + o)),
        })
        .reduce(|acc, e| BExpr::Binary {
            op: BinOp::Or,
            left: Box::new(acc),
            right: Box::new(e),
        });
    let Some(cmp) = cmp else {
        // None of the listed names resolve to a column, so none changed.
        return false;
    };
    let prog = Program::compile(&cmp);
    log.entries().iter().any(|e| match e {
        LogEntry::Update {
            table: t, old, new, ..
        } if t == table => {
            let mut row = old.values().to_vec();
            row.extend_from_slice(new.values());
            prog.eval_bool(&row, &[]).unwrap_or(false)
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_storage::{NullMeter, Schema, StandardTable};

    fn setup() -> (StandardTable, TxnLog) {
        let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
        (
            StandardTable::new("stocks", schema.into_ref()),
            TxnLog::new(),
        )
    }

    #[test]
    fn builds_all_four_tables() {
        let (t, mut log) = setup();
        let (a, ra) = t.insert(vec!["S1".into(), 30.0.into()]).unwrap();
        log.log_insert("stocks", a, ra);
        let (old, new) = t.update(a, vec!["S1".into(), 31.0.into()]).unwrap();
        log.log_update("stocks", a, old, new);
        let old = t.delete(a).unwrap();
        log.log_delete("stocks", a, old);

        let tt = build_transition_tables(&log, "stocks", t.schema(), &NullMeter).unwrap();
        assert_eq!(tt.inserted.len(), 1);
        assert_eq!(tt.new.len(), 1);
        assert_eq!(tt.old.len(), 1);
        assert_eq!(tt.deleted.len(), 1);
        // Old/new images of the update share execute_order = 1.
        let eo = tt.new.schema().index_of("execute_order").unwrap();
        assert_eq!(tt.new.value(0, eo).as_i64(), Some(1));
        assert_eq!(tt.old.value(0, eo).as_i64(), Some(1));
        // Old image reads the pre-update price even though the row is gone.
        let price = tt.old.schema().index_of("price").unwrap();
        assert_eq!(tt.old.value(0, price).as_f64(), Some(30.0));
        assert_eq!(tt.new.value(0, price).as_f64(), Some(31.0));
    }

    #[test]
    fn filters_by_table() {
        let (t, mut log) = setup();
        let (a, ra) = t.insert(vec!["S1".into(), 1.0.into()]).unwrap();
        log.log_insert("other_table", a, ra.clone());
        log.log_insert("stocks", a, ra);
        let tt = build_transition_tables(&log, "stocks", t.schema(), &NullMeter).unwrap();
        assert_eq!(tt.inserted.len(), 1);
    }

    #[test]
    fn multiple_updates_of_same_row_all_appear() {
        // No net-effect reduction (§2).
        let (t, mut log) = setup();
        let (a, ra) = t.insert(vec!["S1".into(), 30.0.into()]).unwrap();
        log.log_insert("stocks", a, ra);
        for p in [31.0, 32.0, 33.0] {
            let (old, new) = t.update(a, vec!["S1".into(), p.into()]).unwrap();
            log.log_update("stocks", a, old, new);
        }
        let tt = build_transition_tables(&log, "stocks", t.schema(), &NullMeter).unwrap();
        assert_eq!(tt.new.len(), 3);
        assert_eq!(tt.old.len(), 3);
        // The chain of old prices is 30, 31, 32.
        let price = tt.old.schema().index_of("price").unwrap();
        let olds: Vec<f64> = (0..3)
            .map(|i| tt.old.value(i, price).as_f64().unwrap())
            .collect();
        assert_eq!(olds, vec![30.0, 31.0, 32.0]);
    }

    #[test]
    fn updated_column_filter() {
        let (t, mut log) = setup();
        let (a, ra) = t.insert(vec!["S1".into(), 30.0.into()]).unwrap();
        log.log_insert("stocks", a, ra);
        // Update that only rewrites the same price: price did not change.
        let (old, new) = t.update(a, vec!["S2".into(), 30.0.into()]).unwrap();
        log.log_update("stocks", a, old, new);
        let schema = t.schema().clone();
        assert!(any_column_updated(&log, "stocks", &schema, &[]));
        assert!(any_column_updated(
            &log,
            "stocks",
            &schema,
            &["symbol".into()]
        ));
        assert!(!any_column_updated(
            &log,
            "stocks",
            &schema,
            &["price".into()]
        ));
        assert!(!any_column_updated(&log, "other", &schema, &[]));
    }

    #[test]
    fn meter_charges_scan_and_build() {
        let (t, mut log) = setup();
        let (a, ra) = t.insert(vec!["S1".into(), 1.0.into()]).unwrap();
        log.log_insert("stocks", a, ra);
        let (old, new) = t.update(a, vec!["S1".into(), 2.0.into()]).unwrap();
        log.log_update("stocks", a, old, new);
        let meter = strip_storage::CountingMeter::new();
        build_transition_tables(&log, "stocks", t.schema(), &meter).unwrap();
        assert_eq!(meter.count(Op::LogScanRecord), 2);
        assert_eq!(meter.count(Op::TempTupleBuild), 3); // 1 insert + 2 (old,new)
    }
}
