//! The one seeded mixer: SplitMix64 as a pure function and as a stream.
//!
//! Fault coins, backoff jitter, chaos schedules and the serve load
//! generator all derive their randomness from here, so "same seed, same
//! run" rests on one copy of the constants.

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step as a pure function: the output of a generator
/// whose state is `x`. Hashing with it gives independent-looking values
/// for nearby inputs.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform draw in `[0, 1)` (53 mantissa bits).
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The SplitMix64 stream seeded with the wrapped state. Deterministic
/// and dependency-free, so seeded schedules reproduce everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits of the stream.
    // An endless stream: `Iterator::next` would have no `None` to return.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `[0, n)` (`n = 0` is read as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_published_splitmix64_vector() {
        let mut rng = SplitMix64(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next()).collect();
        let want = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
        ];
        assert_eq!(got, want);
        // The pure step is the stream's output function.
        assert_eq!(mix64(0), want[0]);
        assert_eq!(mix64(GOLDEN), want[1]);
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        let mut rng = SplitMix64(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            assert!((0.0..1.0).contains(&rng.unit()));
        }
        assert_eq!(rng.below(0), 0);
    }
}
