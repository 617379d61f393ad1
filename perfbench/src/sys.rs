//! Process and input helpers: resident memory, elapsed time, and key sampling
//! with the quote trace's activity skew.

use rand::Rng;
use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Draws indices with probability proportional to fixed weights.
pub struct Weighted {
    cum: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: &[f64]) -> Weighted {
        let mut acc = 0.0;
        let cum = weights
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Weighted { cum }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let x = rng.gen::<f64>() * self.cum.last().copied().unwrap_or(0.0);
        self.cum
            .partition_point(|&c| c <= x)
            .min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_follow_weights() {
        let w = Weighted::new(&[0.0, 3.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > 2 * counts[2], "{counts:?}");
    }
}
