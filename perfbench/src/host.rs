//! The host's current speed, read from a fixed reference workload.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: the
//! same operation can take 1.5 times as long for seconds to minutes at a
//! time while neighbours load the same cores and memory. A median over a
//! run cannot remove a slow spell that outlasts the run. So the client
//! times a fixed piece of work of its own — string formatting, hash-map
//! lookups and ordered-map probes on small tables, small allocations and
//! `Arc` reference counts, the mix the engine's hot paths are made of —
//! between operations, every [`EVERY_NS`]. Of the kinds of work tried
//! (tables from 1k to 256k keys, pointer chasing through 16 MB, floating
//! point, allocation), this mix followed the engine's own slow spells most
//! closely on both simulator workloads. Every
//! timing is reported at a *reference speed*: the raw time multiplied by
//! [`REF_NS`] over the reference work's current time. A slow spell
//! stretches both and cancels; a change to the engine moves the engine's
//! time only, and shows in full.
//!
//! The reference work never runs inside a timed operation, and the time it
//! takes is kept off the run's clock.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The reference work's time at the reference speed, ns.
pub const REF_NS: f64 = 1e6;

/// How often the client times the reference work, ns.
const EVERY_NS: u64 = 100_000_000;

/// Keys in the reference tables: small enough to stay in cache, as the
/// engine's hot rows do.
const KEYS: u64 = 1_024;

/// Steps per timing of the reference work (about 1 ms on a 2-vCPU VM).
const STEPS: usize = 800;

/// Strings each step allocates and shares.
const ALLOCS: usize = 8;

/// Timings the current speed is the median of.
const RECENT: usize = 3;

pub struct Host {
    keys: Vec<Arc<str>>,
    rows: HashMap<Arc<str>, Vec<u64>>,
    index: BTreeMap<u64, u64>,
    x: u64,
    recent: [u64; RECENT],
    /// Every timing of the reference work since [`Host::new`], ns.
    pub times: Vec<u64>,
    scale: f64,
    /// When the reference work was last timed.
    last: Instant,
}

impl Host {
    /// Builds the reference tables and times the work until the current
    /// speed is known.
    pub fn new() -> Host {
        let keys: Vec<Arc<str>> = (0..KEYS)
            .map(|i| Arc::from(format!("S{:05}", i.wrapping_mul(7919) % 100_000)))
            .collect();
        let rows = keys
            .iter()
            .zip(0..)
            .map(|(k, i)| (k.clone(), vec![i; 4]))
            .collect();
        let index = (0..KEYS)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
            .collect();
        let mut h = Host {
            keys,
            rows,
            index,
            x: 1,
            recent: [0; RECENT],
            times: Vec::new(),
            scale: 1.0,
            last: Instant::now(),
        };
        for _ in 0..=RECENT {
            h.measure();
        }
        h.times.clear();
        h
    }

    fn work(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = &self.keys[(self.x >> 33) as usize % self.keys.len()];
            acc = acc.wrapping_add(format!("stocks#symbol={k}").len() as u64);
            if let Some(row) = self.rows.get(&**k) {
                let copy = row.clone();
                acc = acc.wrapping_add(copy[0]);
            }
            if let Some((_, v)) = self.index.range(self.x..).next() {
                acc = acc.wrapping_add(*v);
            }
            let fresh: Vec<Arc<str>> = (0..ALLOCS).map(|j| Arc::from(format!("{k}-{j}"))).collect();
            let shared = fresh.clone();
            acc = acc.wrapping_add(shared.iter().map(|s| s.len() as u64).sum::<u64>());
        }
        acc
    }

    /// Time the reference work once and update the current speed; returns
    /// the time taken, ns.
    pub fn measure(&mut self) -> u64 {
        let t = Instant::now();
        black_box(self.work());
        let ns = (t.elapsed().as_nanos() as u64).max(1);
        self.record(ns);
        self.last = Instant::now();
        ns
    }

    fn record(&mut self, ns: u64) {
        self.recent.rotate_right(1);
        self.recent[0] = ns;
        let mut r = self.recent;
        r.sort_unstable();
        self.scale = REF_NS / r[RECENT / 2] as f64;
        self.times.push(ns);
    }

    /// Time the reference work if [`EVERY_NS`] has passed since it was
    /// last timed; returns the time taken, 0 if not due.
    pub fn poll(&mut self) -> u64 {
        if (self.last.elapsed().as_nanos() as u64) < EVERY_NS {
            return 0;
        }
        self.measure()
    }

    /// Factor from raw time to time at the reference speed.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// `ns` of raw time at the reference speed.
    pub fn scaled(&self, ns: u64) -> u64 {
        (ns as f64 * self.scale) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_of_recent_timings() {
        let mut h = Host::new();
        assert!(h.times.is_empty());
        // Not due again until EVERY_NS has passed.
        assert_eq!(h.poll(), 0);
        std::thread::sleep(std::time::Duration::from_nanos(EVERY_NS));
        assert!(h.poll() > 0);
        assert_eq!(h.poll(), 0);
        assert_eq!(h.times.len(), 1);
        // One slow timing among fast ones does not move the speed; a
        // second in a row does.
        for _ in 0..RECENT {
            h.record(500_000);
        }
        assert_eq!(h.scale(), 2.0);
        assert_eq!(h.scaled(3_000), 6_000);
        h.record(2_000_000);
        assert_eq!(h.scale(), 2.0);
        h.record(2_000_000);
        assert_eq!(h.scale(), 0.5);
    }
}
