//! Seeded open-loop load generation and exact percentile math.
//!
//! Open loop means arrivals follow a fixed schedule (a Poisson process
//! at the target rate) that does *not* slow down when the system lags —
//! unlike closed-loop drivers, which wait for each answer and silently
//! stretch the arrival schedule, hiding queueing delay (coordinated
//! omission). Latency is measured from the *scheduled* arrival instant,
//! so time spent queued behind a saturated deployment shows up in the
//! percentiles.
//!
//! Everything is seeded: the same `(queries, rate, seed, zipf_s)`
//! quadruple produces the same arrival offsets and the same seed-vertex
//! sequence on every run, which is what lets CI assert on the report.

use std::time::Duration;

use ns_rand::SplitMix64;

/// An open-loop load specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Total queries to offer.
    pub queries: usize,
    /// Target offered rate, queries per second.
    pub rate_qps: f64,
    /// RNG seed for both arrivals and seed-vertex sampling.
    pub seed: u64,
    /// Zipf skew of seed-vertex popularity (0 = uniform). Real inference
    /// traffic concentrates on popular entities; skew is what makes the
    /// feature cache earn its keep.
    pub zipf_s: f64,
}

impl OpenLoop {
    /// Cumulative arrival offsets from the run start: exponential
    /// inter-arrival gaps (a Poisson process) at `rate_qps`.
    pub fn arrivals(&self) -> Vec<Duration> {
        let rate = self.rate_qps.max(1e-6);
        let mut rng = SplitMix64(self.seed ^ 0xa076_1d64_78bd_642f);
        let mut t = 0.0f64;
        (0..self.queries)
            .map(|_| {
                let u = rng.unit();
                t += -(1.0 - u).ln() / rate;
                Duration::from_secs_f64(t)
            })
            .collect()
    }

    /// Seed vertices for each query, Zipf-distributed over
    /// `0..n_vertices` with skew `zipf_s` (0 = uniform). Sampling is by
    /// inverse CDF over the precomputed cumulative weights.
    pub fn seeds(&self, n_vertices: u32) -> Vec<u32> {
        assert!(n_vertices > 0, "cannot sample seeds from an empty graph");
        let n = n_vertices as usize;
        let s = self.zipf_s.max(0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        let mut rng = SplitMix64(self.seed ^ 0x53a6_b0c9_11d3_22ef);
        (0..self.queries)
            .map(|_| {
                let target = rng.unit() * total;
                // First index whose cumulative weight exceeds target.
                let idx = cdf.partition_point(|&c| c <= target);
                idx.min(n - 1) as u32
            })
            .collect()
    }
}

/// Nearest-rank percentile of an ascending-sorted latency vector, µs.
/// `p` in percent (e.g. `99.9`). Returns 0 for an empty input.
///
/// Exact by construction — the serve path keeps every latency sample
/// rather than a bucketed histogram, because the `ns-metrics` power-of-
/// two buckets are too coarse for a meaningful p999.
pub fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seed_deterministic_and_rate_scaled() {
        let a = OpenLoop { queries: 1000, rate_qps: 5000.0, seed: 42, zipf_s: 1.0 };
        let b = OpenLoop { queries: 1000, rate_qps: 5000.0, seed: 42, zipf_s: 1.0 };
        assert_eq!(a.arrivals(), b.arrivals());
        let c = OpenLoop { seed: 43, ..a };
        assert_ne!(a.arrivals(), c.arrivals());
        // Mean of 1000 exponential gaps at 5000 qps: last offset close
        // to 1000/5000 = 0.2 s (within wide tolerance).
        let last = a.arrivals().last().unwrap().as_secs_f64();
        assert!((0.1..0.4).contains(&last), "last arrival {last}");
    }

    #[test]
    fn seeds_stay_in_range_and_skew_toward_low_ids() {
        let l = OpenLoop { queries: 4000, rate_qps: 1.0, seed: 9, zipf_s: 1.2 };
        let seeds = l.seeds(1000);
        assert_eq!(seeds.len(), 4000);
        assert!(seeds.iter().all(|&s| s < 1000));
        // Zipf 1.2 concentrates mass at the head: the lowest decile of
        // ids must draw far more than a uniform share.
        let head = seeds.iter().filter(|&&s| s < 100).count();
        assert!(head > 1200, "head draws {head} of 4000");
        // Uniform (s = 0) does not.
        let u = OpenLoop { zipf_s: 0.0, ..l }.seeds(1000);
        let uhead = u.iter().filter(|&&s| s < 100).count();
        assert!((200..600).contains(&uhead), "uniform head draws {uhead}");
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50.0), 50);
        assert_eq!(percentile_us(&v, 99.0), 99);
        assert_eq!(percentile_us(&v, 99.9), 100);
        assert_eq!(percentile_us(&v, 100.0), 100);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 99.9), 7);
    }
}
