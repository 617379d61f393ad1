//! End-to-end staleness-SLO flow: SLOs declared on the builder and via the
//! `slo` clause of `CREATE RULE` both register with the sink; a batched
//! (`after 1.0 seconds`) rule then violates a 100ms bound while a generous
//! bound on a second derived table is met, and the windowed collector
//! carries the per-window staleness series the verdicts are computed from.

use strip_core::Strip;
use strip_obs::ObsSink;

#[test]
fn builder_and_sql_slos_feed_windowed_report() {
    let db = Strip::builder()
        .observability(ObsSink::with_windows(4096, 100_000, 64)) // 100ms windows of virtual time
        .staleness_slo("audit_trail", 10_000_000) // generous: met
        .build();
    db.execute_script(
        "create table stocks (symbol str, price float); \
         create index ix_stocks_symbol on stocks (symbol); \
         create table comps_list (comp str, symbol str, weight float); \
         create table comp_prices (comp str, price float); \
         create index ix_cp_comp on comp_prices (comp); \
         create table audit_trail (comp str, n int); \
         insert into stocks values ('S1', 30), ('S2', 40), ('S3', 50); \
         insert into comps_list values \
           ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7); \
         insert into comp_prices values ('C1', 40.0), ('C2', 37.0); \
         insert into audit_trail values ('C1', 0), ('C2', 0);",
    )
    .unwrap();
    db.register_function("recompute_slo", |txn| {
        let comps = txn.query("select comp from matches group by comp", &[])?;
        for i in 0..comps.len() {
            let comp = comps.value(i, "comp")?.clone();
            txn.exec(
                "update comp_prices set price += 1.0 where comp = ?",
                std::slice::from_ref(&comp),
            )?;
            txn.exec("update audit_trail set n += 1 where comp = ?", &[comp])?;
        }
        Ok(())
    });
    // The 1-second batching delay guarantees every staleness sample is at
    // least 1s, so the 100ms SQL-declared bound must be violated.
    db.execute(
        "create rule track on stocks when updated price \
         if select comp from comps_list, new where comps_list.symbol = new.symbol \
         bind as matches \
         then execute recompute_slo unique after 1.0 seconds \
         slo on comp_prices p99 100 ms",
    )
    .unwrap();

    let specs = db.obs().slo_specs();
    let spec = |t: &str| specs.iter().find(|s| s.table == t);
    assert_eq!(
        spec("audit_trail").map(|s| s.p99_bound_us),
        Some(10_000_000),
        "builder-declared SLO registered: {specs:?}"
    );
    assert_eq!(
        spec("comp_prices").map(|s| s.p99_bound_us),
        Some(100_000),
        "CREATE RULE slo clause registered: {specs:?}"
    );

    db.txn(|t| {
        t.exec("update stocks set price = 31 where symbol = 'S1'", &[])?;
        t.exec("update stocks set price = 39 where symbol = 'S2'", &[])?;
        Ok(())
    })
    .unwrap();
    db.drain();

    let report = db.obs().slo_report();
    let table = |t: &str| report.tables.iter().find(|r| r.table == t).unwrap();
    let comp = table("comp_prices");
    assert!(comp.windows_evaluated >= 1, "{report:?}");
    assert!(comp.windows_violated >= 1, "{report:?}");
    assert!(
        !comp.met,
        "1s batching lag must miss a 100ms bound: {comp:?}"
    );
    assert!(comp.worst_p99_us >= 1_000_000, "{comp:?}");
    let audit = table("audit_trail");
    assert!(audit.windows_evaluated >= 1, "{report:?}");
    assert_eq!(audit.windows_violated, 0, "{audit:?}");
    assert!(audit.met, "1s lag sits well under a 10s bound: {audit:?}");

    // The verdicts are computed from per-window staleness frames; the same
    // samples must be visible in the windows snapshot.
    let snap = db.obs().windows_snapshot();
    let staleness_samples: u64 = snap
        .frames
        .iter()
        .flat_map(|f| f.staleness.iter())
        .filter(|(t, _)| t == "comp_prices")
        .map(|(_, h)| h.count)
        .sum();
    assert!(
        staleness_samples >= 1,
        "windowed staleness series must carry the samples: {snap:?}"
    );
}
