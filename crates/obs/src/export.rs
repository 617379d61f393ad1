//! Exporters: hand-rolled JSON, Prometheus text format, and rendered
//! tables.
//!
//! The workspace has a no-serde policy (vendored deps only), so the JSON
//! emitter is written by hand. Every histogram, in a run snapshot or a
//! window frame, is written by one writer, and the fixed histograms are
//! looped over from [`HISTS`], which names each one once for JSON,
//! Prometheus and the table. The run snapshot's schema is flat and stable:
//!
//! ```json
//! {
//!   "enabled": true,
//!   "events_traced": 123,
//!   "ring_capacity": 4096,
//!   "histograms": {
//!     "queue_us": {"count":..,"sum":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..,
//!                   "buckets":[[upper_edge_us,count],...]},
//!     ...
//!   },
//!   "exec_us": {"<kind>": {..hist..}, ...},
//!   "staleness_us": {"<derived table>": {..hist..}, ...},
//!   ...
//! }
//! ```
//!
//! A window frame carries the same `"<json name>": {..hist..}` entries for
//! the fixed histograms, plus `exec_us` and `staleness_us`.

use crate::hist::{bucket_hi, HistSnapshot, HISTS, HIST_COUNT};
use crate::mem::{MemorySnapshot, MEM_CLASS_NAMES};
use crate::sink::ObsSnapshot;
use crate::window::{HotEntry, SloReport, WindowFrame, WindowsSnapshot, DEFAULT_BUDGET_PCT};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escape a string for a Prometheus label *value*. The exposition format
/// defines exactly three escapes — `\\`, `\"` and `\n` — so reusing the
/// JSON escaper (which emits `\t`, `\r` and `\uXXXX`) would produce
/// malformed series. Anything the format cannot represent at all must be
/// rejected with [`prom_label_valid`] before escaping.
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// True when `s` can be carried as a Prometheus label value: no control
/// characters other than `\n` (which is escapable) and no U+FFFD
/// replacement character (the footprint of a non-UTF8 table name that was
/// lossily converted upstream). Invalid values are skipped with a comment
/// rather than emitted as a malformed exposition line.
pub fn prom_label_valid(s: &str) -> bool {
    s.chars()
        .all(|c| (!c.is_control() || c == '\n') && c != '\u{fffd}')
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Round-trippable but compact; the consumer only needs ~µs precision.
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// One histogram as a JSON object; buckets are `[upper_edge_us, count]`.
fn hist_json(h: &HistSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .map(|&(k, n)| format!("[{},{n}]", bucket_hi(k)))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        json_f64(h.mean()),
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99),
        buckets.join(",")
    )
}

/// `"<name>":{..hist..}` members, comma-separated: the fixed histograms
/// under their [`HISTS`] names.
fn fixed_hists_json(hists: &[HistSnapshot; HIST_COUNT]) -> String {
    let fields: Vec<String> = HISTS
        .iter()
        .zip(hists)
        .map(|(n, h)| format!("\"{}\":{}", n.json, hist_json(h)))
        .collect();
    fields.join(",")
}

/// A histogram family as a JSON object keyed by label.
fn named_hists_json(items: &[(String, HistSnapshot)]) -> String {
    let fields: Vec<String> = items
        .iter()
        .map(|(k, h)| format!("\"{}\":{}", json_escape(k), hist_json(h)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

impl ObsSnapshot {
    /// Serialise the snapshot as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let misses: Vec<String> = self
            .plan_misestimates
            .iter()
            .map(|m| {
                format!(
                    "{{\"choice\":\"{}\",\"est_rows\":{},\"actual_rows\":{},\"factor\":{}}}",
                    json_escape(&m.choice),
                    m.est_rows,
                    m.actual_rows,
                    m.factor()
                )
            })
            .collect();
        let snap = format!(
            "{{\"txns\":{},\"reads\":{},\"active\":{},\"gc_runs\":{},\"gc_pruned\":{},\"gc_freed\":{},\"gc_horizon\":{}}}",
            self.snap.txns,
            self.snap.reads,
            self.snap.active,
            self.snap.gc_runs,
            self.snap.gc_pruned,
            self.snap.gc_freed,
            self.snap.gc_horizon,
        );
        format!(
            "{{\"enabled\":{},\"events_traced\":{},\"ring_capacity\":{},\"histograms\":{{{}}},\"exec_us\":{},\"staleness_us\":{},\"plan_choices\":{},\"card_est_sum\":{},\"card_actual_sum\":{},\"snap\":{},\"plan_misestimates\":[{}],\"memory\":{}}}",
            self.enabled,
            self.events_traced,
            self.ring_capacity,
            fixed_hists_json(&self.hists),
            named_hists_json(&self.exec_us),
            named_hists_json(&self.staleness),
            self.plan_choices,
            self.card_est_sum,
            self.card_actual_sum,
            snap,
            misses.join(","),
            self.memory.to_json(),
        )
    }

    /// Serialise as Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE strip_events_traced_total counter");
        let _ = writeln!(out, "strip_events_traced_total {}", self.events_traced);

        // A family's samples are contiguous, so its TYPE line is written
        // once, when its first sample is.
        let mut typed = "";
        let mut emit = |name: &'static str, labels: &str, h: &HistSnapshot| {
            if name != typed {
                let _ = writeln!(out, "# TYPE {name} summary");
                typed = name;
            }
            let sep = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{name}_count{sep} {}", h.count);
            let _ = writeln!(out, "{name}_sum{sep} {}", h.sum);
            let _ = writeln!(out, "{name}_max{sep} {}", h.max);
            let q = if labels.is_empty() {
                String::new()
            } else {
                format!(",{labels}")
            };
            for (quantile, q_val) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
                let _ = writeln!(
                    out,
                    "{name}{{quantile=\"{quantile}\"{q}}} {}",
                    h.percentile(q_val)
                );
            }
        };

        for (n, h) in HISTS.iter().zip(&self.hists) {
            emit(n.prom, n.prom_label, h);
        }
        let mut skipped = 0usize;
        for (name, label, family) in [
            ("strip_exec_us", "kind", &self.exec_us),
            ("strip_staleness_us", "table", &self.staleness),
        ] {
            for (value, h) in family {
                if !prom_label_valid(value) {
                    skipped += 1;
                    continue;
                }
                emit(name, &format!("{label}=\"{}\"", prom_escape(value)), h);
            }
        }
        let _ = writeln!(out, "# TYPE strip_plan_choices_total counter");
        let _ = writeln!(out, "strip_plan_choices_total {}", self.plan_choices);
        let _ = writeln!(out, "# TYPE strip_plan_card_est_rows_total counter");
        let _ = writeln!(out, "strip_plan_card_est_rows_total {}", self.card_est_sum);
        let _ = writeln!(out, "# TYPE strip_plan_card_actual_rows_total counter");
        let _ = writeln!(
            out,
            "strip_plan_card_actual_rows_total {}",
            self.card_actual_sum
        );
        let _ = writeln!(out, "# TYPE strip_plan_misestimate_factor gauge");
        for m in &self.plan_misestimates {
            if !prom_label_valid(&m.choice) {
                skipped += 1;
                continue;
            }
            let _ = writeln!(
                out,
                "strip_plan_misestimate_factor{{choice=\"{}\"}} {}",
                prom_escape(&m.choice),
                m.factor()
            );
        }
        let _ = writeln!(out, "# TYPE strip_snap_txns_total counter");
        let _ = writeln!(out, "strip_snap_txns_total {}", self.snap.txns);
        let _ = writeln!(out, "# TYPE strip_snap_reads_total counter");
        let _ = writeln!(out, "strip_snap_reads_total {}", self.snap.reads);
        let _ = writeln!(out, "# TYPE strip_snap_active gauge");
        let _ = writeln!(out, "strip_snap_active {}", self.snap.active);
        let _ = writeln!(out, "# TYPE strip_snap_gc_runs_total counter");
        let _ = writeln!(out, "strip_snap_gc_runs_total {}", self.snap.gc_runs);
        let _ = writeln!(out, "# TYPE strip_snap_gc_pruned_total counter");
        let _ = writeln!(out, "strip_snap_gc_pruned_total {}", self.snap.gc_pruned);
        let _ = writeln!(out, "# TYPE strip_snap_gc_freed_total counter");
        let _ = writeln!(out, "strip_snap_gc_freed_total {}", self.snap.gc_freed);
        let _ = writeln!(out, "# TYPE strip_snap_gc_horizon gauge");
        let _ = writeln!(out, "strip_snap_gc_horizon {}", self.snap.gc_horizon);
        let _ = writeln!(out, "# TYPE strip_mem_bytes gauge");
        for (name, bytes) in MEM_CLASS_NAMES.iter().zip(self.memory.class_bytes) {
            let _ = writeln!(out, "strip_mem_bytes{{class=\"{name}\"}} {bytes}");
        }
        let _ = writeln!(out, "# TYPE strip_mem_total_bytes gauge");
        let _ = writeln!(out, "strip_mem_total_bytes {}", self.memory.total_bytes);
        let _ = writeln!(out, "# TYPE strip_mem_hwm_bytes gauge");
        let _ = writeln!(out, "strip_mem_hwm_bytes {}", self.memory.hwm_bytes);
        let _ = writeln!(out, "# TYPE strip_mem_temp_hwm_bytes gauge");
        let _ = writeln!(
            out,
            "strip_mem_temp_hwm_bytes {}",
            self.memory.temp_hwm_bytes
        );
        // Each family's samples follow its own TYPE line: every table's
        // bytes first, then every table's high-water mark. A table whose
        // name is no valid label is skipped in both, counted once.
        let tables: Vec<_> = self
            .memory
            .tables
            .iter()
            .filter(|t| prom_label_valid(&t.table))
            .map(|t| (prom_escape(&t.table), t))
            .collect();
        skipped += self.memory.tables.len() - tables.len();
        let _ = writeln!(out, "# TYPE strip_mem_table_bytes gauge");
        for (l, t) in &tables {
            for (class, bytes) in [
                ("rows", t.row_bytes),
                ("index", t.index_bytes),
                ("versions", t.version_bytes),
            ] {
                let _ = writeln!(
                    out,
                    "strip_mem_table_bytes{{table=\"{l}\",class=\"{class}\"}} {bytes}"
                );
            }
        }
        let _ = writeln!(out, "# TYPE strip_mem_table_hwm_bytes gauge");
        for (l, t) in &tables {
            let _ = writeln!(
                out,
                "strip_mem_table_hwm_bytes{{table=\"{l}\"}} {}",
                t.hwm_bytes
            );
        }
        if let Some(b) = &self.memory.budget {
            let _ = writeln!(out, "# TYPE strip_mem_budget_bytes gauge");
            let _ = writeln!(out, "strip_mem_budget_bytes {}", b.budget_bytes);
            let _ = writeln!(out, "# TYPE strip_mem_growth_bytes_per_window gauge");
            let _ = writeln!(
                out,
                "strip_mem_growth_bytes_per_window{{span=\"short\"}} {}",
                json_f64(b.growth_short_bpw)
            );
            let _ = writeln!(
                out,
                "strip_mem_growth_bytes_per_window{{span=\"long\"}} {}",
                json_f64(b.growth_long_bpw)
            );
            if let Some(w) = b.windows_to_budget {
                let _ = writeln!(out, "# TYPE strip_mem_windows_to_budget gauge");
                let _ = writeln!(out, "strip_mem_windows_to_budget {w}");
            }
            // Encoded as the ordinal severity so it can graph/alert numerically.
            let _ = writeln!(out, "# TYPE strip_mem_budget_alert gauge");
            let _ = writeln!(
                out,
                "strip_mem_budget_alert {}",
                match b.alert {
                    crate::mem::MemAlert::Ok => 0,
                    crate::mem::MemAlert::ProjectedBreach => 1,
                    crate::mem::MemAlert::OverBudget => 2,
                }
            );
        }
        if skipped > 0 {
            let _ = writeln!(
                out,
                "# {skipped} series skipped: label value not representable in the exposition format"
            );
        }
        out
    }

    /// Render a human-readable report table (used by `strip-report` and the
    /// shell's `.obs` command).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events traced: {} (ring capacity {})",
            self.events_traced, self.ring_capacity
        );

        if !self.staleness.is_empty() {
            let _ = writeln!(
                out,
                "\nstaleness (base commit -> derived commit absorbing it):"
            );
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12} {:>12} {:>12}",
                "derived table", "n", "mean", "p99", "max"
            );
            for (table, h) in &self.staleness {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8} {:>12} {:>12} {:>12}",
                    table,
                    h.count,
                    fmt_us(h.mean() as u64),
                    fmt_us(h.percentile(0.99)),
                    fmt_us(h.max)
                );
            }
        }

        let _ = writeln!(out, "\nlatency histograms:");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "metric", "n", "mean", "p99", "max"
        );
        let fixed = HISTS
            .iter()
            .zip(&self.hists)
            .map(|(n, h)| (n.table.to_string(), h));
        let exec = self
            .exec_us
            .iter()
            .map(|(kind, h)| (format!("exec[{kind}]"), h));
        for (name, h) in fixed.chain(exec) {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                name,
                h.count,
                fmt_us(h.mean() as u64),
                fmt_us(h.percentile(0.99)),
                fmt_us(h.max)
            );
        }

        if self.memory.total_bytes > 0 {
            let _ = writeln!(
                out,
                "\nmemory: {} current, {} high-water (temp hwm {})",
                fmt_bytes(self.memory.total_bytes),
                fmt_bytes(self.memory.hwm_bytes),
                fmt_bytes(self.memory.temp_hwm_bytes)
            );
        }

        if self.snap.txns > 0 || self.snap.gc_runs > 0 {
            let _ = writeln!(
                out,
                "\nsnapshots: {} read-only txns ({} active), {} chain reads; gc: {} runs, {} pruned, {} slots freed, horizon {}",
                self.snap.txns,
                self.snap.active,
                self.snap.reads,
                self.snap.gc_runs,
                self.snap.gc_pruned,
                self.snap.gc_freed,
                self.snap.gc_horizon
            );
        }

        if self.plan_choices > 0 {
            let _ = writeln!(
                out,
                "\nplanner: {} plan executions, est rows {} vs actual {}",
                self.plan_choices, self.card_est_sum, self.card_actual_sum
            );
            if !self.plan_misestimates.is_empty() {
                let _ = writeln!(out, "worst cardinality misestimates (per plan shape):");
                let _ = writeln!(
                    out,
                    "  {:<40} {:>10} {:>10} {:>8}",
                    "plan", "est", "actual", "factor"
                );
                for m in self.plan_misestimates.iter().take(8) {
                    let _ = writeln!(
                        out,
                        "  {:<40} {:>10} {:>10} {:>7}x",
                        m.choice,
                        m.est_rows,
                        m.actual_rows,
                        m.factor()
                    );
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Memory accounting exporters
// ---------------------------------------------------------------------------

impl MemorySnapshot {
    /// Serialise as a JSON object: per-class gauges keyed by
    /// [`MEM_CLASS_NAMES`], totals and watermarks, per-table footprints,
    /// and the budget projection (`null` when no budget is declared).
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = MEM_CLASS_NAMES
            .iter()
            .zip(self.class_bytes)
            .map(|(name, bytes)| format!("\"{name}\":{bytes}"))
            .collect();
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                format!(
                    "{{\"table\":\"{}\",\"row_bytes\":{},\"index_bytes\":{},\"version_bytes\":{},\"total_bytes\":{},\"hwm_bytes\":{}}}",
                    json_escape(&t.table),
                    t.row_bytes,
                    t.index_bytes,
                    t.version_bytes,
                    t.total(),
                    t.hwm_bytes
                )
            })
            .collect();
        let budget = match &self.budget {
            None => "null".to_string(),
            Some(b) => format!(
                "{{\"budget_bytes\":{},\"current_bytes\":{},\"hwm_bytes\":{},\"growth_short_bpw\":{},\"growth_long_bpw\":{},\"windows_to_budget\":{},\"alert\":\"{}\"}}",
                b.budget_bytes,
                b.current_bytes,
                b.hwm_bytes,
                json_f64(b.growth_short_bpw),
                json_f64(b.growth_long_bpw),
                b.windows_to_budget
                    .map_or("null".to_string(), |w| w.to_string()),
                b.alert.as_str()
            ),
        };
        format!(
            "{{\"classes\":{{{}}},\"total_bytes\":{},\"hwm_bytes\":{},\"temp_hwm_bytes\":{},\"tables\":[{}],\"budget\":{}}}",
            classes.join(","),
            self.total_bytes,
            self.hwm_bytes,
            self.temp_hwm_bytes,
            tables.join(","),
            budget
        )
    }

    /// Human-readable accounting table (shell `.mem`, strip-report). With
    /// `filter`, only tables whose name contains it are listed.
    pub fn render_table(&self, filter: Option<&str>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "memory: {} current, {} high-water (temp hwm {})",
            fmt_bytes(self.total_bytes),
            fmt_bytes(self.hwm_bytes),
            fmt_bytes(self.temp_hwm_bytes)
        );
        let _ = writeln!(out, "  {:<16} {:>12}", "class", "bytes");
        for (name, bytes) in MEM_CLASS_NAMES.iter().zip(self.class_bytes) {
            let _ = writeln!(out, "  {:<16} {:>12}", name, fmt_bytes(bytes));
        }
        let tables: Vec<_> = self
            .tables
            .iter()
            .filter(|t| filter.is_none_or(|f| t.table.contains(f)))
            .collect();
        if !tables.is_empty() {
            let _ = writeln!(
                out,
                "\n  {:<24} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "table", "rows", "index", "versions", "total", "hwm"
            );
            for t in tables {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    t.table,
                    fmt_bytes(t.row_bytes),
                    fmt_bytes(t.index_bytes),
                    fmt_bytes(t.version_bytes),
                    fmt_bytes(t.total()),
                    fmt_bytes(t.hwm_bytes)
                );
            }
        } else if filter.is_some() {
            let _ = writeln!(out, "\n  no table matches the filter");
        }
        if let Some(b) = &self.budget {
            let horizon = match b.windows_to_budget {
                Some(0) => "crossed".to_string(),
                Some(w) => format!("~{w} windows out"),
                None => "none projected".to_string(),
            };
            let _ = writeln!(
                out,
                "\n  budget {} ({} used, {:.1}%): growth {:+.0} B/win short, {:+.0} B/win long; crossing {horizon} [{}]",
                fmt_bytes(b.budget_bytes),
                fmt_bytes(b.current_bytes),
                100.0 * b.current_bytes as f64 / b.budget_bytes.max(1) as f64,
                b.growth_short_bpw,
                b.growth_long_bpw,
                b.alert.as_str()
            );
        }
        out
    }
}

/// Format a byte quantity with a readable unit.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 10 * 1024 {
        format!("{:.1}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

// ---------------------------------------------------------------------------
// Windowed telemetry exporters
// ---------------------------------------------------------------------------

/// Serialise a hot-entry list as a JSON array.
pub fn hot_json(entries: &[HotEntry]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "{{\"resource\":\"{}\",\"wait_us\":{},\"err_us\":{},\"hits\":{}}}",
                json_escape(&e.resource),
                e.wait_us,
                e.err_us,
                e.hits
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

impl WindowFrame {
    pub fn to_json(&self) -> String {
        let slo: Vec<String> = self
            .slo
            .iter()
            .map(|e| {
                format!(
                    "{{\"table\":\"{}\",\"samples\":{},\"p99_us\":{},\"bound_us\":{},\"ok\":{}}}",
                    json_escape(&e.table),
                    e.samples,
                    e.p99_us,
                    e.bound_us,
                    e.ok
                )
            })
            .collect();
        let class_delta: Vec<String> = self.mem.class_delta.iter().map(|d| d.to_string()).collect();
        format!(
            "{{\"index\":{},\"start_us\":{},\"end_us\":{},\"open\":{},\"tasks_run\":{},\"busy_us\":{},\"events_traced\":{},\"plan_choices\":{},{},\"exec_us\":{},\"staleness_us\":{},\"slo\":[{}],\"hot\":{},\"mem\":{{\"end_bytes\":{},\"delta_bytes\":{},\"class_delta\":[{}]}}}}",
            self.index,
            self.start_us,
            self.end_us,
            self.open,
            self.tasks_run,
            self.busy_us,
            self.events_traced,
            self.plan_choices,
            fixed_hists_json(&self.hists),
            named_hists_json(&self.exec),
            named_hists_json(&self.staleness),
            slo.join(","),
            hot_json(&self.hot),
            self.mem.end_bytes,
            self.mem.delta_bytes,
            class_delta.join(","),
        )
    }
}

impl WindowsSnapshot {
    /// Serialise the whole ring. When `series_only`, empty frames are
    /// dropped (gap windows carry no information but their absence is
    /// recoverable from `index`).
    pub fn to_json(&self, series_only: bool) -> String {
        let frames: Vec<String> = self
            .frames
            .iter()
            .filter(|f| !series_only || !f.is_empty())
            .map(|f| f.to_json())
            .collect();
        format!(
            "{{\"window_us\":{},\"capacity\":{},\"sealed\":{},\"truncated\":{},\"frames\":[{}]}}",
            self.window_us,
            self.capacity,
            self.sealed,
            self.truncated,
            frames.join(",")
        )
    }
}

impl SloReport {
    pub fn to_json(&self) -> String {
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                format!(
                    "{{\"table\":\"{}\",\"bound_us\":{},\"budget_pct\":{},\"windows_evaluated\":{},\"windows_violated\":{},\"worst_p99_us\":{},\"compliance_pct\":{},\"burn_short\":{},\"burn_long\":{},\"alert\":\"{}\",\"met\":{}}}",
                    json_escape(&t.table),
                    t.bound_us,
                    json_f64(DEFAULT_BUDGET_PCT),
                    t.windows_evaluated,
                    t.windows_violated,
                    t.worst_p99_us,
                    json_f64(t.compliance_pct),
                    json_f64(t.burn_short),
                    json_f64(t.burn_long),
                    t.alert.as_str(),
                    t.met
                )
            })
            .collect();
        format!("{{\"tables\":[{}]}}", tables.join(","))
    }

    /// Human-readable compliance table (shell `.slo`, strip-top, strip-report).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.tables.is_empty() {
            let _ = writeln!(out, "no staleness SLOs declared");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<20} {:>10} {:>8} {:>8} {:>12} {:>10} {:>10} {:>10} {:>8}",
            "derived table",
            "bound",
            "eval",
            "viol",
            "worst p99",
            "compl%",
            "burn6",
            "burn24",
            "verdict"
        );
        for t in &self.tables {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} {:>8} {:>8} {:>12} {:>9.2}% {:>10.2} {:>10.2} {:>8}",
                t.table,
                fmt_us(t.bound_us),
                t.windows_evaluated,
                t.windows_violated,
                fmt_us(t.worst_p99_us),
                t.compliance_pct,
                t.burn_short,
                t.burn_long,
                if t.met { "MET" } else { "MISSED" },
            );
            if t.alert != crate::window::SloAlert::Ok {
                let _ = writeln!(
                    out,
                    "    alert: {} burn-rate on {}",
                    t.alert.as_str(),
                    t.table
                );
            }
        }
        out
    }
}

/// Human-readable top-K contention table (shell `.hot`, strip-top).
pub fn render_hot(title: &str, entries: &[HotEntry]) -> String {
    let mut out = String::new();
    if entries.is_empty() {
        let _ = writeln!(out, "{title}: no contention observed");
        return out;
    }
    let _ = writeln!(out, "{title}:");
    let _ = writeln!(
        out,
        "  {:<40} {:>12} {:>10} {:>8}",
        "resource", "wait", "±err", "hits"
    );
    for e in entries {
        let _ = writeln!(
            out,
            "  {:<40} {:>12} {:>10} {:>8}",
            e.resource,
            fmt_us(e.wait_us),
            fmt_us(e.err_us),
            e.hits
        );
    }
    out
}

/// Format a µs quantity with a readable unit.
pub fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::ObsSink;
    use crate::{EventKind, Hist};

    fn sample() -> ObsSnapshot {
        let s = ObsSink::new(16);
        s.event(1, 2, EventKind::TxnCommit, "a\"b", 3);
        s.record(Hist::Queue, 100);
        s.record_exec("update", 172);
        s.record_staleness("comp_prices", 1_500_000);
        s.snapshot()
    }

    #[test]
    fn json_is_valid_and_contains_tables() {
        let j = sample().to_json();
        crate::json::validate(&j).unwrap();
        assert!(j.contains("\"comp_prices\""), "{j}");
        assert!(j.contains("\"queue_us\""), "{j}");
        assert!(j.contains("\"update\""), "{j}");
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_has_expected_series() {
        let p = sample().to_prometheus();
        assert!(p.contains("strip_queue_us_count 1"), "{p}");
        assert!(
            p.contains("strip_staleness_us_count{table=\"comp_prices\"} 1"),
            "{p}"
        );
        assert!(p.contains("strip_exec_us_count{kind=\"update\"} 1"), "{p}");
    }

    #[test]
    fn prometheus_types_each_family_once_before_its_samples() {
        let s = ObsSink::new(16);
        s.record_lock_wait_labeled(true, 30);
        s.record_lock_wait_labeled(false, 40);
        s.record_exec("update", 172);
        s.record_exec("recompute:f", 9_000);
        s.record_staleness("comp_prices", 100);
        s.record_staleness("option_prices", 200);
        let p = s.snapshot().to_prometheus();
        let mut typed: Vec<&str> = Vec::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(!typed.contains(&name), "second TYPE line for {name}:\n{p}");
                typed.push(name);
            } else if !line.starts_with('#') {
                // A summary's `_count`/`_sum`/`_max` samples belong to it.
                let metric = line.split(['{', ' ']).next().unwrap();
                let family = ["_count", "_sum", "_max"]
                    .iter()
                    .find_map(|suffix| metric.strip_suffix(suffix))
                    .filter(|f| typed.contains(f))
                    .unwrap_or(metric);
                assert!(
                    typed.contains(&family),
                    "sample {line:?} precedes its TYPE line:\n{p}"
                );
            }
        }
        for family in [
            "strip_lock_wait_us_by",
            "strip_exec_us",
            "strip_staleness_us",
        ] {
            assert!(typed.contains(&family), "{family} missing:\n{p}");
        }
    }

    #[test]
    fn prom_escape_covers_exactly_the_format_escapes() {
        assert_eq!(prom_escape(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(prom_escape("a\nb"), "a\\nb");
        // Tabs and carriage returns are NOT escaped by the format; they are
        // rejected by validation instead of being JSON-escaped.
        assert_eq!(prom_escape("a\tb"), "a\tb");
        assert!(!prom_label_valid("a\tb"));
        assert!(!prom_label_valid("a\rb"));
        assert!(!prom_label_valid("bad\u{fffd}utf8"));
        assert!(prom_label_valid("ok\nmultiline"));
        assert!(prom_label_valid("comp_prices"));
    }

    #[test]
    fn prometheus_escapes_and_skips_hostile_labels() {
        let s = ObsSink::new(16);
        s.record_staleness("quo\"te\\slash", 10);
        s.record_staleness("evil\ttab", 10);
        s.record_staleness("bad\u{fffd}utf8", 10);
        s.record_exec("multi\nline", 5);
        let p = s.snapshot().to_prometheus();
        assert!(
            p.contains("strip_staleness_us_count{table=\"quo\\\"te\\\\slash\"} 1"),
            "{p}"
        );
        assert!(p.contains("kind=\"multi\\nline\""), "{p}");
        // Unrepresentable labels produce no series line, only a comment.
        assert!(!p.contains("evil\ttab"), "{p}");
        assert!(!p.contains("bad\u{fffd}utf8"), "{p}");
        assert!(p.contains("# 2 series skipped"), "{p}");
        // Every non-comment line is still well-formed: name then value.
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn table_renders_staleness_rows() {
        let t = sample().render_table();
        assert!(t.contains("comp_prices"), "{t}");
        assert!(t.contains("exec[update]"), "{t}");
    }

    #[test]
    fn windows_slo_hot_exports_validate() {
        let s = ObsSink::with_windows(16, 1000, 8);
        s.declare_slo("comp_prices", 150);
        s.record_staleness("comp_prices", 100);
        s.record_contention("stocks#symbol=S00001", 500);
        s.window_tick(1500, 3, 30);
        s.record_staleness("comp_prices", 90_000);
        s.window_tick(2500, 4, 40);

        let w = s.windows_snapshot();
        crate::json::validate(&w.to_json(false)).unwrap();
        let series = w.to_json(true);
        crate::json::validate(&series).unwrap();
        assert!(
            series.contains("\"staleness_us\":{\"comp_prices\""),
            "{series}"
        );
        assert!(series.contains("stocks#symbol=S00001"), "{series}");

        let r = s.slo_report();
        crate::json::validate(&r.to_json()).unwrap();
        let table = r.render_table();
        assert!(table.contains("MISSED"), "{table}"); // 1 of 2 windows violated >> 1% budget

        let hot = render_hot("hot resources (run)", &s.hot_run(4));
        assert!(hot.contains("stocks#symbol=S00001"), "{hot}");
    }

    #[test]
    fn memory_section_exports_json_prometheus_and_table() {
        use crate::mem::{MemReading, TableMemReading};
        use std::sync::Arc;
        let s = ObsSink::with_windows(16, 1000, 8);
        s.memory().set_probe(Some(Arc::new(|| MemReading {
            tables: vec![
                TableMemReading {
                    table: "stocks".into(),
                    row_bytes: 1_000,
                    index_bytes: 200,
                    version_bytes: 64,
                },
                TableMemReading {
                    table: "evil\ttab".into(),
                    row_bytes: 7,
                    index_bytes: 0,
                    version_bytes: 0,
                },
            ],
            plan_cache_bytes: 512,
        })));
        s.memory().set_budget(Some(1 << 20));
        s.window_tick(1500, 3, 30);

        let snap = s.snapshot();
        let j = snap.to_json();
        crate::json::validate(&j).unwrap();
        assert!(
            j.contains("\"memory\":{\"classes\":{\"table_rows\":1007"),
            "{j}"
        );
        assert!(j.contains("\"plan_cache\":512"), "{j}");
        assert!(j.contains("\"budget_bytes\":1048576"), "{j}");
        assert!(j.contains("\"table\":\"stocks\",\"row_bytes\":1000"), "{j}");

        let p = snap.to_prometheus();
        assert!(
            p.contains("strip_mem_bytes{class=\"table_rows\"} 1007"),
            "{p}"
        );
        assert!(
            p.contains("strip_mem_bytes{class=\"plan_cache\"} 512"),
            "{p}"
        );
        assert!(
            p.contains("strip_mem_table_bytes{table=\"stocks\",class=\"rows\"} 1000"),
            "{p}"
        );
        assert!(
            p.contains("strip_mem_table_hwm_bytes{table=\"stocks\"}"),
            "{p}"
        );
        assert!(p.contains("strip_mem_budget_bytes 1048576"), "{p}");
        assert!(p.contains("strip_mem_budget_alert 0"), "{p}");
        // Hostile table name is skipped, not emitted malformed.
        assert!(!p.contains("evil\ttab"), "{p}");
        assert!(p.contains("series skipped"), "{p}");
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: {line:?}"
            );
        }

        let t = snap.memory.render_table(None);
        assert!(t.contains("stocks"), "{t}");
        assert!(t.contains("budget"), "{t}");
        let filtered = snap.memory.render_table(Some("stock"));
        assert!(filtered.contains("stocks"), "{filtered}");
        let none = snap.memory.render_table(Some("nope"));
        assert!(none.contains("no table matches"), "{none}");

        // The sealed window frame carries the memory delta and exports it.
        let w = s.windows_snapshot();
        let wj = w.to_json(false);
        crate::json::validate(&wj).unwrap();
        assert!(wj.contains("\"mem\":{\"end_bytes\":"), "{wj}");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(20 * 1024), "20.0KiB");
        assert_eq!(fmt_bytes(64 * 1024 * 1024), "64.0MiB");
    }

    #[test]
    fn fmt_us_units() {
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(20_000), "20.0ms");
        assert_eq!(fmt_us(12_000_000), "12.0s");
    }
}
