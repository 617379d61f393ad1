//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer's epoch), the
//! span that caused it, and the trace id of the quote or operation it
//! belongs to. A disabled tracer calls straight through and records
//! nothing, so the untraced runs pay one branch per span site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub trace: u64,
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span (0 when the layer was never entered).
    pub fn mean_ns(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.spans as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    trace: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            trace: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Trace id given to spans opened from now on.
    pub fn set_trace(&self, id: u64) {
        self.trace.set(id);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied().unwrap_or(NO_PARENT);
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                trace: self.trace.get(),
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx as usize].end = self.now();
        r
    }

    /// Per-layer self time over every span recorded so far.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        summarize(&self.spans.borrow())
    }

    /// Write the first `limit` spans as tab-separated text: index, name,
    /// start, end, parent (-1 for a root), trace id. Returns how many were
    /// written and how many were recorded.
    pub fn write_tsv(
        &self,
        path: &std::path::Path,
        limit: usize,
    ) -> std::io::Result<(usize, usize)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "idx\tname\tstart_ns\tend_ns\tparent\ttrace")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().take(limit).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.trace
            )?;
        }
        w.flush()?;
        Ok((spans.len().min(limit), spans.len()))
    }
}

/// `(start, end)` minus the part of it that `children` cover. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Self time per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.self_ns += self_time(s.start, s.end, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_interval_minus_child_cover() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once; children are clipped.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50), (90, 130)]), 50);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn summarize_charges_each_span_its_own_time() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            trace: 1,
        };
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("txn", 10, 80, 0),
            span("stmt", 20, 50, 1),
            span("stmt", 60, 70, 1),
        ];
        let t = summarize(&spans);
        assert_eq!(
            t["op"],
            SelfTime {
                spans: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            t["txn"],
            SelfTime {
                spans: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            t["stmt"],
            SelfTime {
                spans: 2,
                self_ns: 40
            }
        );
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn tracer_nests_spans_and_records_trace_ids() {
        let tr = Tracer::new(true);
        tr.set_trace(7);
        let v = tr.span("outer", || tr.span("inner", || 5));
        assert_eq!(v, 5);
        let spans = tr.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.trace == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.self_times().is_empty());
    }
}
