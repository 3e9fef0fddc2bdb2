//! The workspace's one splitmix64 PRNG.
//!
//! Fault plans, the daemon's chaos schedules and its client retry
//! jitter all draw from this generator:
//! deterministic, seedable, dependency-free and stable across
//! platforms, so a seed replays the same stream everywhere.

/// A seedable, deterministic, platform-stable PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform `usize` in `[0, n)`. Returns 0 for `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_pinned() {
        // The reference splitmix64 stream: every seeded schedule in the
        // workspace (fault plans, chaos plans) replays
        // bit-identically only while these hold.
        let mut zero = SplitMix64::new(0);
        let got: Vec<u64> = (0..4).map(|_| zero.next_u64()).collect();
        assert_eq!(
            got,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC
            ]
        );
        let mut seeded = SplitMix64::new(2013);
        let got: Vec<u64> = (0..4).map(|_| seeded.next_u64()).collect();
        assert_eq!(
            got,
            [
                0x6352_D8B5_E524_8DB1,
                0x611F_1211_1067_C475,
                0x56B0_B2A9_8943_82E6,
                0xB969_2F08_53DD_3CA7
            ]
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn deterministic_and_in_range() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(3);
        for _ in 0..100 {
            assert!((0.0..1.0).contains(&c.next_f64()));
            let r = c.range(2.0, 5.0);
            assert!((2.0..5.0).contains(&r));
            assert!(c.below(7) < 7);
        }
        assert_eq!(c.below(0), 0);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..256 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(rng.below(10) < 10);
        }
        assert_eq!(rng.below(0), 0);
        assert!(!SplitMix64::new(7).chance(0.0));
        assert!(SplitMix64::new(7).chance(1.0));
    }
}
