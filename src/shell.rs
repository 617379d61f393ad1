//! Support code for the `strip-shell` REPL: statement buffering and result
//! formatting, kept out of the binary so it is unit-testable.

use strip_core::{ExecOutcome, Strip};
use strip_sql::ResultSet;

/// Render a result set as an aligned ASCII table.
pub fn format_result(rs: &ResultSet) -> String {
    let headers: Vec<String> = rs.schema.columns().iter().map(|c| c.name.clone()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = rs
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, v)| {
                    let s = v.to_string();
                    widths[i] = widths[i].max(s.len());
                    s
                })
                .collect()
        })
        .collect();

    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in &rendered {
        out.push('|');
        for (v, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {v:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out.push_str(&format!(
        "{} row{}\n",
        rs.len(),
        if rs.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Accumulates input lines until a complete `;`-terminated statement is
/// available (ignoring semicolons inside string literals).
#[derive(Debug, Default)]
pub struct StatementBuffer {
    buf: String,
}

impl StatementBuffer {
    /// New empty buffer.
    pub fn new() -> StatementBuffer {
        StatementBuffer::default()
    }

    /// True if a statement is in progress.
    pub fn is_pending(&self) -> bool {
        !self.buf.trim().is_empty()
    }

    /// Feed a line; returns any complete statements.
    pub fn push_line(&mut self, line: &str) -> Vec<String> {
        self.buf.push_str(line);
        self.buf.push('\n');
        let mut stmts = Vec::new();
        while let Some((stmt, rest)) = split_first_statement(&self.buf) {
            if !stmt.trim().is_empty() {
                stmts.push(stmt.trim().to_string());
            }
            self.buf = rest;
        }
        stmts
    }
}

/// Split at the first top-level `;` (outside string literals).
fn split_first_statement(s: &str) -> Option<(String, String)> {
    let bytes = s.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_str = !in_str,
            b';' if !in_str => {
                return Some((s[..i].to_string(), s[i + 1..].to_string()));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Execute one shell input (a statement or a `.meta` command) and render
/// the response.
pub fn run_shell_input(db: &Strip, input: &str) -> String {
    let input = input.trim();
    if let Some(meta) = input.strip_prefix('.') {
        return run_meta(db, meta);
    }
    match db.execute(input) {
        Ok(ExecOutcome::Rows(rs)) => format_result(&rs),
        Ok(ExecOutcome::Count(n)) => format!("{n} row{} affected\n", if n == 1 { "" } else { "s" }),
        Ok(ExecOutcome::Ddl) => "ok\n".to_string(),
        Err(e) => format!("error: {e}\n"),
    }
}

fn run_meta(db: &Strip, meta: &str) -> String {
    let mut parts = meta.split_whitespace();
    match parts.next() {
        Some("tables") => {
            let mut out = String::new();
            for t in db.catalog().table_names() {
                out.push_str(&t);
                out.push('\n');
            }
            out
        }
        Some("rules") => {
            let mut out = String::new();
            for r in db.rule_names() {
                out.push_str(&r);
                out.push('\n');
            }
            out
        }
        Some("timers") => {
            let mut out = String::new();
            for t in db.timer_names() {
                out.push_str(&t);
                out.push('\n');
            }
            out
        }
        Some("pending") => format!("{} task(s) queued\n", db.pending_tasks()),
        Some("drain") => {
            let t = db.drain();
            format!("drained; now at {:.3}s\n", t as f64 / 1e6)
        }
        Some("advance") => match parts.next().and_then(|s| s.parse::<f64>().ok()) {
            Some(secs) => {
                let target = db.now_us() + (secs * 1e6) as u64;
                db.advance_to(target);
                format!("advanced to {:.3}s\n", db.now_us() as f64 / 1e6)
            }
            None => "usage: .advance <seconds>\n".to_string(),
        },
        Some("stats") => {
            let s = db.stats();
            let mut out = format!(
                "tasks run: {}   busy: {:.3}s\n",
                s.tasks_run,
                s.busy_us as f64 / 1e6
            );
            out.push_str(&format!(
                "plan cache: {} hits / {} misses\n",
                s.plan_cache_hits, s.plan_cache_misses
            ));
            out.push_str(&format!(
                "deadline misses: {}   max delay-queue length: {}\n",
                s.deadline_misses, s.max_delay_len
            ));
            let mut kinds: Vec<_> = s.by_kind.iter().collect();
            kinds.sort_by(|a, b| a.0.cmp(b.0));
            for (k, ks) in kinds {
                out.push_str(&format!(
                    "  {:<30} n={:<8} mean={:.1}us\n",
                    k,
                    ks.count,
                    ks.mean_us()
                ));
            }
            out
        }
        Some("errors") => {
            let errs = db.take_errors();
            if errs.is_empty() {
                "no background errors\n".to_string()
            } else {
                errs.join("\n") + "\n"
            }
        }
        Some("obs") => match parts.next() {
            None => db.obs().snapshot().render_table(),
            Some("json") => db.obs().snapshot().to_json() + "\n",
            Some("prom") => db.obs().snapshot().to_prometheus(),
            Some(n) => match n.parse::<usize>() {
                Ok(n) => {
                    let tail = db.obs().trace_tail(n);
                    if tail.is_empty() {
                        "trace is empty\n".to_string()
                    } else {
                        tail.iter().map(|e| format!("{e}\n")).collect()
                    }
                }
                Err(_) => "usage: .obs [json|prom|<n last trace events>]\n".to_string(),
            },
        },
        Some("slo") => {
            let obs = db.obs();
            if obs.slo_specs().is_empty() {
                "no staleness SLOs declared (StripBuilder::staleness_slo, or \
                 `create rule ... slo on <table> p99 <bound>`)\n"
                    .to_string()
            } else {
                obs.slo_report().render_table()
            }
        }
        Some("hot") => match parts.next().map(str::parse::<usize>) {
            Some(Err(_)) | Some(Ok(0)) => {
                "usage: .hot [N]  (N must be a positive integer)\n".to_string()
            }
            n => {
                let n = n.map_or(8, |r| r.unwrap());
                let obs = db.obs();
                let window = obs.hot_window(n);
                let run = obs.hot_run(n);
                if window.is_empty() && run.is_empty() {
                    "no contention recorded\n".to_string()
                } else {
                    let mut out =
                        strip_obs::export::render_hot("hot resources (open window)", &window);
                    out.push_str(&strip_obs::export::render_hot("hot resources (run)", &run));
                    out
                }
            }
        },
        Some("mem") => db.memory_snapshot().render_table(parts.next()),
        Some("trace") => {
            let lin = db.obs().lineage();
            match parts.next() {
                // Bare `.trace`: the per-table staleness attribution.
                None => {
                    let attr = lin.attribution();
                    if attr.is_empty() {
                        "no staleness samples traced yet\n".to_string()
                    } else {
                        let mut out = strip_obs::render_attribution(&attr);
                        if lin.ring_truncated() {
                            out.push_str(
                                "(trace ring wrapped: attribution covers the surviving tail)\n",
                            );
                        }
                        out
                    }
                }
                // `.trace <txn>`: that transaction's causal span tree(s).
                Some(arg) => match arg.parse::<u64>() {
                    Ok(txn) => {
                        let traces = lin.traces_for_txn(txn);
                        if traces.is_empty() {
                            format!("no trace recorded for txn {txn} (evicted or untraced)\n")
                        } else {
                            traces.iter().map(|t| lin.render_trace(*t)).collect()
                        }
                    }
                    Err(_) => "usage: .trace [<txn id>]\n".to_string(),
                },
            }
        }
        Some("help") | None => "\
meta commands:
  .tables            list tables
  .rules             list rules
  .timers            list timers
  .pending           queued task count
  .drain             run all pending tasks (virtual time)
  .advance <secs>    advance virtual time
  .stats             executor statistics
  .obs [json|prom|N] observability report (or JSON/Prometheus dump, or last N trace events)
  .slo               per-table staleness-SLO compliance and current burn rates
  .hot [N]           top-N contended keys/shards (open window and whole run; default 8)
  .mem [table]       memory accounting: class gauges, per-table bytes, budget (filter by name)
  .trace [<txn id>]  staleness attribution, or a txn's causal span tree
  .errors            drain background task errors
  .help              this help
  .quit              exit
statements end with `;` and may span lines.\n"
            .to_string(),
        Some(other) => format!("unknown meta command `.{other}` (try .help)\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_splits_on_semicolons_outside_strings() {
        let mut b = StatementBuffer::new();
        assert!(b.push_line("select 1").is_empty());
        assert!(b.is_pending());
        let stmts = b.push_line("from t; insert into t values ('a;b');");
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].starts_with("select 1"));
        assert!(stmts[1].contains("'a;b'"));
        assert!(!b.is_pending());
    }

    #[test]
    fn format_result_aligns_columns() {
        let db = Strip::new();
        db.execute_script(
            "create table t (name str, price float); \
             insert into t values ('longname', 1.5), ('x', 30.25);",
        )
        .unwrap();
        let rs = db.query("select name, price from t order by name").unwrap();
        let s = format_result(&rs);
        assert!(s.contains("| name     | price |"));
        assert!(s.contains("| longname | 1.5   |"));
        assert!(s.contains("2 rows"));
    }

    #[test]
    fn run_shell_input_dispatches() {
        let db = Strip::new();
        assert_eq!(run_shell_input(&db, "create table t (x int)"), "ok\n");
        assert_eq!(
            run_shell_input(&db, "insert into t values (1), (2)"),
            "2 rows affected\n"
        );
        let out = run_shell_input(&db, "select count(*) as n from t");
        assert!(out.contains("| 2 |"), "{out}");
        assert!(run_shell_input(&db, "select garbage").starts_with("error:"));
        assert_eq!(run_shell_input(&db, ".tables"), "t\n");
        assert!(run_shell_input(&db, ".help").contains(".drain"));
        assert!(run_shell_input(&db, ".bogus").contains("unknown meta"));
        assert!(run_shell_input(&db, ".pending").contains("0 task"));
    }

    #[test]
    fn stats_and_obs_report_telemetry() {
        let db = Strip::new();
        run_shell_input(&db, "create table t (x int)");
        run_shell_input(&db, "insert into t values (1)");
        let stats = run_shell_input(&db, ".stats");
        assert!(stats.contains("deadline misses: 0"), "{stats}");
        assert!(stats.contains("max delay-queue length:"), "{stats}");
        let obs = run_shell_input(&db, ".obs");
        assert!(obs.contains("events traced:"), "{obs}");
        assert!(obs.contains("latency histograms:"), "{obs}");
        let json = run_shell_input(&db, ".obs json");
        assert!(
            json.starts_with('{') && json.contains("\"exec_us\""),
            "{json}"
        );
        let prom = run_shell_input(&db, ".obs prom");
        assert!(prom.contains("strip_events_traced_total"), "{prom}");
        let tail = run_shell_input(&db, ".obs 5");
        assert!(tail.contains("txn.commit"), "{tail}");
        assert!(run_shell_input(&db, ".obs wat").starts_with("usage:"));
    }

    #[test]
    fn slo_command_reports_declared_tables() {
        let db = Strip::builder().staleness_slo("derived", 5_000).build();
        // One staleness sample over the 5 ms bound -> violated window.
        db.obs().record_staleness("derived", 10_000);
        let out = run_shell_input(&db, ".slo");
        assert!(out.contains("derived"), "{out}");
        assert!(out.contains("burn"), "{out}");
        assert!(run_shell_input(&db, ".help").contains(".slo"));

        // A database with no SLOs explains itself instead of an empty table.
        let bare = Strip::new();
        assert!(run_shell_input(&bare, ".slo").contains("no staleness SLOs declared"));
    }

    #[test]
    fn hot_command_ranks_contended_resources() {
        let db = Strip::new();
        db.obs().record_contention("stocks#symbol=HOT", 900);
        db.obs().record_contention("stocks#symbol=HOT", 600);
        db.obs().record_contention("stocks/shard3", 200);
        let out = run_shell_input(&db, ".hot 2");
        assert!(out.contains("hot resources (open window)"), "{out}");
        assert!(out.contains("hot resources (run)"), "{out}");
        assert!(out.contains("stocks#symbol=HOT"), "{out}");
        assert!(out.contains("stocks/shard3"), "{out}");
        // Ranked: the heavier key precedes the shard latch.
        assert!(
            out.find("stocks#symbol=HOT").unwrap() < out.find("stocks/shard3").unwrap(),
            "{out}"
        );

        // Bad argument and empty-state paths.
        assert!(run_shell_input(&db, ".hot zero").starts_with("usage: .hot"));
        assert!(run_shell_input(&db, ".hot 0").starts_with("usage: .hot"));
        let bare = Strip::new();
        assert_eq!(run_shell_input(&bare, ".hot"), "no contention recorded\n");
    }

    #[test]
    fn mem_command_reports_accounting() {
        let db = Strip::builder().memory_budget(1 << 20).build();
        run_shell_input(&db, "create table stocks (symbol str, price float)");
        run_shell_input(&db, "insert into stocks values ('S1', 30)");
        run_shell_input(&db, "create table unrelated (x int)");
        let out = run_shell_input(&db, ".mem");
        assert!(out.contains("memory: "), "{out}");
        assert!(out.contains("table_rows"), "{out}");
        assert!(out.contains("stocks"), "{out}");
        assert!(out.contains("unrelated"), "{out}");
        assert!(out.contains("budget 1024.0KiB"), "{out}");
        // The optional argument filters the per-table listing by substring.
        let filtered = run_shell_input(&db, ".mem stock");
        assert!(filtered.contains("stocks"), "{filtered}");
        assert!(!filtered.contains("unrelated"), "{filtered}");
        assert!(run_shell_input(&db, ".mem zzz").contains("no table matches"));
        assert!(run_shell_input(&db, ".help").contains(".mem"));
    }

    #[test]
    fn trace_command_renders_attribution_and_span_trees() {
        let db = Strip::new();
        db.execute_script(
            "create table stocks (symbol str, price float); \
             create table log (symbol str, price float); \
             insert into stocks values ('S1', 30);",
        )
        .unwrap();
        db.register_function("log_price", |txn| {
            txn.exec("insert into log values ('S1', 1.0)", &[])?;
            Ok(())
        });
        assert!(run_shell_input(&db, ".trace").contains("no staleness samples"));
        db.execute(
            "create rule watch on stocks when updated price \
             then execute log_price",
        )
        .unwrap();
        run_shell_input(&db, "update stocks set price = 31 where symbol = 'S1'");
        db.drain();

        let attr = run_shell_input(&db, ".trace");
        assert!(attr.contains("log"), "{attr}");

        // Find the base txn id from the trace tail and render its tree.
        let ev = db
            .obs()
            .resolved_events()
            .into_iter()
            .find(|e| e.kind == strip_obs::EventKind::RuleFire)
            .expect("rule fired");
        let tree = run_shell_input(&db, &format!(".trace {}", ev.txn));
        assert!(tree.contains("rule.fire"), "{tree}");
        assert!(tree.contains("action.dispatch"), "{tree}");
        assert!(run_shell_input(&db, ".trace 999999").contains("no trace recorded"));
        assert!(run_shell_input(&db, ".trace wat").starts_with("usage:"));
    }
}
