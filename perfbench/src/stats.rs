//! Latency summaries: medians and the tail percentile a sample supports.
//!
//! Closed loops can run millions of operations, so samples go into a
//! fixed-size log-linear histogram rather than a growing vector: the
//! benchmark's own memory then does not grow with the engine's speed.
//!
//! A run is cut into segments and each timing is combined over the
//! segments' own percentiles, so a few seconds of interference from other
//! processes on a shared machine move it little: a median by the median of
//! segment medians, a p99 by the lower quartile of segment p99s. The tail
//! is the figure such interference moves most, and it lands in a few
//! segments at a time, while a tail the engine itself causes shows in every
//! segment, the quiet ones included.

/// Percentiles a timing may be reported at, lowest first.
pub const LADDER: [(f64, &str); 3] = [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two: values below `2^SUB_BITS` are exact, and
/// larger ones keep a relative precision of `2^-SUB_BITS` (about 0.1%).
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// A percentile read from a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub label: &'static str,
    pub value: f64,
    /// Samples the percentile summarises.
    pub n: u64,
    /// Segments whose percentiles were combined (1 for a percentile read
    /// over the whole run).
    pub segments: usize,
}

/// Log-linear histogram of non-negative integer samples (ns).
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Midpoint of bucket `i` (the value itself for exact buckets).
fn value(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lower = (SUB + i % SUB) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

/// Nearest-rank position (1-based) of quantile `q` in `n` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// The nearest-rank `q` quantile (`None` if empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let want = rank(self.n, q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Some(value(i));
            }
        }
        unreachable!("counts sum to n")
    }

    pub fn median(&self) -> Option<Pct> {
        self.quantile(0.5).map(|value| Pct {
            label: "p50",
            value,
            n: self.n,
            segments: 1,
        })
    }

    /// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`]
    /// samples above its rank, or `None` when even the median lacks them.
    pub fn tail(&self) -> Option<Pct> {
        let n = self.n;
        let &(q, label) = LADDER
            .iter()
            .rev()
            .find(|(q, _)| n > 0 && n - rank(n, *q) >= MIN_BEYOND)?;
        self.quantile(q).map(|value| Pct {
            label,
            value,
            n,
            segments: 1,
        })
    }
}

/// A latency series summarised per segment of the run.
#[derive(Default)]
pub struct Series {
    /// Every sample of the run.
    pub all: Hist,
    seg: Hist,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Segments too small to support a p99.
    short: usize,
}

impl Series {
    pub fn record(&mut self, v: u64) {
        self.all.record(v);
        self.seg.record(v);
    }

    /// End the current segment (no-op when it holds no samples).
    pub fn close_segment(&mut self) {
        let Some(p50) = self.seg.quantile(0.5) else {
            return;
        };
        self.p50s.push(p50);
        match self.seg.tail() {
            Some(p) if p.label == "p99" => self.p99s.push(p.value),
            _ => self.short += 1,
        }
        // A fresh histogram rather than a zeroed one: its pages stay
        // untouched until a sample lands in them, so the benchmark adds
        // little to the engine's resident memory.
        self.seg = Hist::default();
    }

    /// Each closed segment's median and p99 (the p99 list is shorter when
    /// a segment could not support one).
    pub fn segment_values(&self) -> (&[f64], &[f64]) {
        (&self.p50s, &self.p99s)
    }

    /// Median over segments of each segment's median.
    pub fn p50(&self) -> Option<Pct> {
        (!self.p50s.is_empty()).then(|| Pct {
            label: "p50",
            value: median_f64(&self.p50s),
            n: self.all.n,
            segments: self.p50s.len(),
        })
    }

    /// Lower quartile over segments of each segment's p99 when every
    /// segment supports one; otherwise the tail of the whole run.
    pub fn p99(&self) -> Option<Pct> {
        if self.short > 0 || self.p99s.is_empty() {
            return self.all.tail();
        }
        Some(Pct {
            label: "p99",
            value: lower_quartile_f64(&self.p99s),
            n: self.all.n,
            segments: self.p99s.len(),
        })
    }
}

/// Median of unsorted floats (`NaN` if empty).
pub fn median_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank lower quartile of unsorted floats (`NaN` if empty).
pub fn lower_quartile_f64(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len() as u64, 0.25) as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Hist {
        let mut h = Hist::default();
        for v in 1..=n {
            h.record(v);
        }
        h
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
        let p = sample(1000).tail().unwrap();
        assert_eq!((p.label, p.value, p.n, p.segments), ("p99", 990.0, 1000, 1));
        // 999 samples: p99 has only 9 beyond, so p90 (rank 900) is reported.
        let p = sample(999).tail().unwrap();
        assert_eq!((p.label, p.value), ("p90", 900.0));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(sample(100).tail().unwrap().label, "p90");
        // 99 samples: only the median is supported.
        assert_eq!(sample(99).tail().unwrap().label, "p50");
        // Too few samples for any percentile.
        assert_eq!(sample(19).tail(), None);
        assert_eq!(Hist::default().tail(), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let h = sample(10);
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(0.99), Some(10.0));
        assert_eq!(Hist::default().quantile(0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(lower_quartile_f64(&[3.0, 1.0, 2.0, 10.0]), 1.0);
        assert_eq!(lower_quartile_f64(&[5.0, 3.0, 1.0, 2.0, 10.0]), 2.0);
    }

    #[test]
    fn series_combines_segments_past_a_slowed_one() {
        let mut s = Series::default();
        // Three segments; the slowed one must not move the figures.
        for base in [0, 10_000, 0] {
            for v in base + 1..=base + 1000 {
                s.record(v);
            }
            s.close_segment();
        }
        s.close_segment(); // empty: ignored
        let p50 = s.p50().unwrap();
        assert_eq!((p50.value, p50.n, p50.segments), (500.0, 3000, 3));
        let p99 = s.p99().unwrap();
        assert_eq!((p99.label, p99.value, p99.segments), ("p99", 990.0, 3));

        // One segment too small for a p99: fall back to the whole run.
        for v in 1..=50 {
            s.record(v);
        }
        s.close_segment();
        assert_eq!(s.p99().unwrap().segments, 1);
        assert_eq!(s.p50().unwrap().segments, 4);
    }

    #[test]
    fn large_values_keep_relative_precision() {
        for v in [
            1023u64,
            1024,
            1025,
            4_000,
            123_456,
            7_654_321_000,
            u64::MAX / 3,
        ] {
            let got = value(index(v));
            let err = (got - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB as f64, "{v} -> {got}");
        }
        // Buckets are ordered: a larger value never maps to a lower bucket.
        let mut last = 0;
        for v in (0..200_000u64).step_by(37) {
            assert!(index(v) >= last);
            last = index(v);
        }
    }
}
