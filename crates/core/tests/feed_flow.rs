//! Export-subscription tests (the outward half of §6.2's import/export
//! system): committed changes stream to external consumers, batched by the
//! same unique-transaction machinery as everything else.

use strip_core::{ChangeKind, Strip};

fn db() -> Strip {
    let db = Strip::new();
    db.execute_script(
        "create table quotes (symbol str, price float); \
         create index ix_q on quotes (symbol); \
         insert into quotes values ('AA', 10.0), ('BB', 20.0);",
    )
    .unwrap();
    db
}

#[test]
fn updates_stream_with_old_and_new_images() {
    let db = db();
    let sub = db.subscribe("quotes", 0.0).unwrap();
    db.execute("update quotes set price = 11.0 where symbol = 'AA'")
        .unwrap();
    db.drain();
    let e = sub.events.try_recv().expect("one event");
    assert_eq!(e.table, "quotes");
    assert_eq!(e.kind, ChangeKind::Update);
    assert_eq!(e.row[0].as_str(), Some("AA"));
    assert_eq!(e.row[1].as_f64(), Some(11.0));
    assert_eq!(e.old.as_ref().unwrap()[1].as_f64(), Some(10.0));
    assert!(sub.events.try_recv().is_err(), "exactly one event");
    assert!(db.take_errors().is_empty());
}

#[test]
fn inserts_and_deletes_stream() {
    let db = db();
    let sub = db.subscribe("quotes", 0.0).unwrap();
    db.execute("insert into quotes values ('CC', 30.0)")
        .unwrap();
    db.execute("delete from quotes where symbol = 'BB'")
        .unwrap();
    db.drain();
    let events: Vec<_> = sub.events.try_iter().collect();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, ChangeKind::Insert);
    assert_eq!(events[0].row[0].as_str(), Some("CC"));
    assert!(events[0].old.is_none());
    assert_eq!(events[1].kind, ChangeKind::Delete);
    assert_eq!(events[1].row[0].as_str(), Some("BB"));
}

#[test]
fn batched_subscription_coalesces_bursts_into_one_delivery_batch() {
    let db = db();
    let sub = db.subscribe("quotes", 0.5).unwrap();
    for p in [11.0, 12.0, 13.0] {
        db.execute_with(
            "update quotes set price = ? where symbol = 'AA'",
            &[p.into()],
        )
        .unwrap();
    }
    // Nothing delivered until the window elapses.
    assert!(sub.events.try_recv().is_err());
    assert_eq!(db.pending_tasks(), 1, "one batched export task");
    db.drain();
    let events: Vec<_> = sub.events.try_iter().collect();
    assert_eq!(
        events.len(),
        3,
        "no net-effect reduction: all three changes"
    );
    let prices: Vec<f64> = events.iter().map(|e| e.row[1].as_f64().unwrap()).collect();
    assert_eq!(prices, vec![11.0, 12.0, 13.0]);
    // commit_us increases across the batched firings.
    assert!(events.windows(2).all(|w| w[0].commit_us <= w[1].commit_us));
    assert!(db.take_errors().is_empty());
}

#[test]
fn cancel_stops_future_deliveries() {
    let db = db();
    let sub = db.subscribe("quotes", 0.0).unwrap();
    db.execute("update quotes set price = 11.0 where symbol = 'AA'")
        .unwrap();
    db.drain();
    assert_eq!(sub.events.try_iter().count(), 1);
    sub.cancel().unwrap();
    db.execute("update quotes set price = 12.0 where symbol = 'AA'")
        .unwrap();
    db.drain();
    assert_eq!(sub.events.try_iter().count(), 0);
    assert!(db.take_errors().is_empty());
}

#[test]
fn two_subscriptions_deliver_independently() {
    let db = db();
    let a = db.subscribe("quotes", 0.0).unwrap();
    let b = db.subscribe("quotes", 0.0).unwrap();
    db.execute("update quotes set price = 11.0 where symbol = 'AA'")
        .unwrap();
    db.drain();
    assert_eq!(a.events.try_iter().count(), 1);
    assert_eq!(b.events.try_iter().count(), 1);
    assert!(db.take_errors().is_empty());
}
