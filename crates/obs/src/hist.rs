//! Log-bucketed latency histograms, their detached value, per-label
//! families, and the one table naming the fixed histograms.
//!
//! Bucket `k` covers `[2^(k-1), 2^k)` µs (bucket 0 holds exact zeros), i.e.
//! index = bit-length of the value. 65 buckets cover the full `u64` range.
//! All counters are relaxed atomics so recording is wait-free. Quantiles
//! linearly interpolate within the holding bucket under a midpoint
//! convention (observations spread evenly across the bucket span), so a
//! reported pXX no longer snaps to the bucket's power-of-two upper edge;
//! the residual error is bounded by the bucket width.
//!
//! A live [`Histogram`] is read through [`Histogram::snapshot`] into a
//! [`HistSnapshot`], the one value type behind run snapshots, the
//! window collector's cumulative captures and its per-window deltas. A
//! [`HistFamily`] holds one histogram per label value (task kind, derived
//! table). The fixed histograms are the [`Hist`] variants, and [`HISTS`]
//! names each of them once for every exporter.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub const BUCKETS: usize = 65;

#[inline]
fn bucket_of(us: u64) -> usize {
    (64 - us.leading_zeros()) as usize
}

/// Lower bound of bucket `k` (inclusive).
#[inline]
fn bucket_lo(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// Upper bound of bucket `k` (inclusive).
#[inline]
pub fn bucket_hi(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// `(bucket_index, count)` pairs for the non-zero entries of dense counts.
fn sparse(dense: impl IntoIterator<Item = u64>) -> Vec<(usize, u64)> {
    dense
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect()
}

pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Detached copy of every counter (relaxed loads).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: sparse(self.buckets.iter().map(|b| b.load(Ordering::Relaxed))),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A detached histogram value: a run snapshot, a cumulative capture, or
/// the delta of one telemetry window. Exporters derive the mean and
/// quantiles from it when they render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Largest observation. A window delta carries the running watermark
    /// (the cumulative max at seal time), so merging frames takes the max
    /// of maxes and still reproduces the run max.
    pub max: u64,
    /// `(bucket_index, count)` for non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    fn dense(&self) -> [u64; BUCKETS] {
        let mut d = [0u64; BUCKETS];
        for &(k, c) in &self.buckets {
            d[k] += c;
        }
        d
    }

    /// What was recorded between the earlier cumulative capture `prev` of
    /// the same histogram and this one.
    pub fn since(&self, prev: &HistSnapshot) -> HistSnapshot {
        let (cur, prev_d) = (self.dense(), prev.dense());
        HistSnapshot {
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            max: self.max,
            buckets: sparse((0..BUCKETS).map(|k| cur[k].saturating_sub(prev_d[k]))),
        }
    }

    /// Fold `other` into `self`; merging is associative and commutative,
    /// and merging every frame of a run reproduces the run aggregate
    /// (modulo ring truncation).
    pub fn merge(&mut self, other: &HistSnapshot) {
        let (a, b) = (self.dense(), other.dense());
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.buckets = sparse((0..BUCKETS).map(|k| a[k] + b[k]));
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`); 0 when empty.
    ///
    /// The q-th rank is located in its bucket and interpolated under a
    /// midpoint convention: the `c` observations of bucket `k` sit at
    /// fractions `(2·pos − 1) / (2·c)` of the span `[lo, hi]`. The top
    /// rank returns `max` exactly, and every result is clamped to `max`.
    pub fn percentile(&self, q: f64) -> u64 {
        let (count, max) = (self.count, self.max);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        if rank == count {
            return max;
        }
        let mut seen = 0u64;
        for &(k, c) in &self.buckets {
            if seen + c >= rank {
                let pos = rank - seen; // 1..=c
                let lo = bucket_lo(k);
                let span = bucket_hi(k) - lo;
                // u128 intermediates: span can be ~2^63 and pos up to 2^64.
                let interp = (span as u128 * (2 * pos as u128 - 1) / (2 * c as u128)) as u64;
                return (lo + interp).min(max);
            }
            seen += c;
        }
        max
    }
}

/// One histogram per label value (a task kind, a derived table), created
/// on first record. Labels are only ever added over a run.
#[derive(Default)]
pub struct HistFamily {
    members: RwLock<BTreeMap<String, Histogram>>,
}

impl HistFamily {
    /// Record one observation of `us` µs under `label`.
    pub fn record(&self, label: &str, us: u64) {
        if let Some(h) = self.members.read().get(label) {
            h.record(us);
            return;
        }
        self.members
            .write()
            .entry(label.to_string())
            .or_default()
            .record(us);
    }

    /// Every member's snapshot, sorted by label.
    pub fn snapshot(&self) -> Vec<(String, HistSnapshot)> {
        self.members
            .read()
            .iter()
            .map(|(label, h)| (label.clone(), h.snapshot()))
            .collect()
    }
}

/// Per-label delta between two sorted family snapshots, where `cur` was
/// taken after `prev` (so it holds every label of `prev`). Only non-empty
/// deltas are kept.
pub(crate) fn family_since(
    cur: &[(String, HistSnapshot)],
    prev: &[(String, HistSnapshot)],
) -> Vec<(String, HistSnapshot)> {
    let zero = HistSnapshot::default();
    cur.iter()
        .filter_map(|(label, c)| {
            let p = prev
                .binary_search_by(|(l, _)| l.cmp(label))
                .map_or(&zero, |i| &prev[i].1);
            let d = c.since(p);
            (!d.is_empty()).then(|| (label.clone(), d))
        })
        .collect()
}

/// The fixed histograms. Each variant indexes [`HISTS`] and the `hists`
/// array of the sink and of every snapshot type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Scheduler queue time: task start − release (virtual µs).
    Queue,
    /// Lock-acquisition wait (wall-clock µs; ~0 in single-threaded sim
    /// mode). Recorded only through `ObsSink::record_lock_wait_labeled`,
    /// which keeps the two slices below summing to it.
    LockWait,
    /// The slice of `LockWait` spent on whole-table (S/X) locks.
    LockWaitTable,
    /// The slice of `LockWait` spent on key resources (`table#col=key`).
    LockWaitKey,
    /// Charged WAL append+fsync cost per durable commit (virtual µs).
    Wal,
    /// SQL plan compilation on cache miss (wall-clock µs).
    PlanCompile,
}

pub const HIST_COUNT: usize = 6;

/// What every exporter calls one fixed histogram.
pub struct HistName {
    pub hist: Hist,
    /// Key in the JSON `histograms` object and in window frames.
    pub json: &'static str,
    /// Prometheus metric family.
    pub prom: &'static str,
    /// Label pair telling apart members of a shared Prometheus family
    /// (empty when the family has one member).
    pub prom_label: &'static str,
    /// Row label in the rendered table.
    pub table: &'static str,
}

/// The fixed histograms in export order; row `i` describes `Hist` `i`.
pub const HISTS: [HistName; HIST_COUNT] = [
    HistName {
        hist: Hist::Queue,
        json: "queue_us",
        prom: "strip_queue_us",
        prom_label: "",
        table: "queue_us",
    },
    HistName {
        hist: Hist::LockWait,
        json: "lock_wait_us",
        prom: "strip_lock_wait_us",
        prom_label: "",
        table: "lock_wait_us",
    },
    HistName {
        hist: Hist::LockWaitTable,
        json: "lock_wait_table_us",
        prom: "strip_lock_wait_us_by",
        prom_label: "granularity=\"table\"",
        table: "lock_wait_us[table]",
    },
    HistName {
        hist: Hist::LockWaitKey,
        json: "lock_wait_key_us",
        prom: "strip_lock_wait_us_by",
        prom_label: "granularity=\"key\"",
        table: "lock_wait_us[key]",
    },
    HistName {
        hist: Hist::Wal,
        json: "wal_us",
        prom: "strip_wal_us",
        prom_label: "",
        table: "wal_us",
    },
    HistName {
        hist: Hist::PlanCompile,
        json: "plan_compile_us",
        prom: "strip_plan_compile_us",
        prom_label: "",
        table: "plan_compile_us",
    },
];

// Indexing by `Hist as usize` relies on the table following the enum.
const _: () = {
    let mut i = 0;
    while i < HIST_COUNT {
        assert!(HISTS[i].hist as usize == i);
        i += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn count_sum_max_mean() {
        let s = hist(&[10, 20, 30]);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.max, 30);
        assert!((s.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        let mut values = vec![100; 99]; // bucket 7, span [64, 127]
        values.push(10_000); // bucket 14
        let s = hist(&values);
        // p50 is rank 50 of 99 observations inside [64, 127]:
        // 64 + 63·(2·50−1)/(2·99) = 64 + 31 = 95 — near the true 100, not
        // the old snapped edge 127.
        assert_eq!(s.percentile(0.50), 95);
        // p99 is rank 99, the last in-bucket position: 64 + 63·197/198 = 126.
        assert_eq!(s.percentile(0.99), 126);
        // The top rank is exact: p100 is the observed max.
        assert_eq!(s.percentile(1.0), 10_000);
    }

    #[test]
    fn percentile_tracks_uniform_distribution() {
        // 1..=1000 once each: interpolation should land near the true
        // quantiles despite power-of-two buckets.
        let s = hist(&(1..=1000u64).collect::<Vec<_>>());
        // rank 500 falls in bucket 9 ([256, 511], 256 obs, 244 seen after
        // position 245): 256 + 255·489/512 = 499 ≈ true 500.
        assert_eq!(s.percentile(0.50), 499);
        // rank 900 falls in bucket 10 ([512, 1023], 489 obs present):
        // 512 + 511·777/978 = 917 — bounded by the bucket span vs true 900.
        assert_eq!(s.percentile(0.90), 917);
        assert_eq!(s.percentile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistSnapshot::default());
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn summary_buckets_are_sparse_and_sorted() {
        let s = hist(&[0, 5, 5, 300]);
        assert_eq!(s.buckets, vec![(0, 1), (3, 2), (9, 1)]);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn zero_only_histogram() {
        let s = hist(&[0, 0]);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn family_records_per_label() {
        let f = HistFamily::default();
        f.record("option_prices", 500);
        f.record("comp_prices", 1_000_000);
        f.record("comp_prices", 3_000_000);
        let s = f.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "comp_prices");
        assert_eq!(s[0].1.count, 2);
        assert_eq!(s[0].1.max, 3_000_000);
        assert_eq!(s[1].0, "option_prices");
        assert_eq!(s[1].1.count, 1);
    }

    #[test]
    fn empty_family() {
        assert!(HistFamily::default().snapshot().is_empty());
    }
}
