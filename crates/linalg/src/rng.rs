//! Deterministic, dependency-free pseudo-random number generation.
//!
//! The reproduction previously leaned on the `rand`/`rand_chacha` crates for
//! bootstrap sampling, SGD shuffling, weight initialization, and synthetic
//! dataset generation. Those are external dependencies that cannot be fetched
//! in a hermetic (offline) build, and none of our uses need cryptographic
//! quality — only speed, determinism, and reasonable equidistribution. This
//! module provides a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! generator: a tiny, well-studied 64-bit mixer with period 2^64 that passes
//! BigCrush when used as a stream.
//!
//! All methods are total: empty ranges and empty slices are handled without
//! panicking, in line with the workspace panic-freedom policy enforced by
//! `cargo run -p xtask -- check`.

use std::ops::Range;

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// Cloning yields an independent copy with identical future output, matching
/// the semantics dataset generators rely on for per-column reproducibility.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a 64-bit seed. Equal seeds produce equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform integer in `[range.start, range.end)`.
    ///
    /// An empty range returns `range.start` instead of panicking (the caller
    /// asked for "some index at or after start" of a region that has no
    /// width; clamping is the least surprising total behavior).
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        let width = range.end.saturating_sub(range.start);
        if width == 0 {
            return range.start;
        }
        // multiply-shift rejection-free mapping; bias is < 2^-64 * width,
        // irrelevant at our range sizes
        let hi = ((self.next_u64() as u128 * width as u128) >> 64) as usize;
        range.start + hi
    }

    /// Uniform `f64` in `[lo, hi)`; returns `lo` when the interval is empty
    /// or degenerate.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if !(hi > lo) {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // u1 in (0, 1] so the log is finite
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            xs.get(self.gen_range(0..xs.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let any_diff = (0..10).any(|_| a.next_u64() != b.next_u64());
        assert!(any_diff);
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_mean() {
        let mut r = Rng64::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds_and_hits_all_values() {
        let mut r = Rng64::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.gen_range(10..15);
            assert!((10..15).contains(&v));
            seen[v - 10] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    // the reversed range is the case under test, not a typo
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_range_does_not_panic() {
        let mut r = Rng64::seed_from_u64(0);
        assert_eq!(r.gen_range(5..5), 5);
        assert_eq!(r.gen_range(7..3), 7);
        assert_eq!(r.range_f64(2.0, 2.0), 2.0);
        assert!(r.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut r = Rng64::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        assert!(samples.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::seed_from_u64(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input untouched"
        );
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = Rng64::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
