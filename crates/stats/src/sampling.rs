//! Seeded sampling utilities.
//!
//! Technique L1 subsamples the (possibly huge) log sequence of the
//! candidate dependent application and draws uniformly random comparison
//! points inside the analysis slot. Both operations are seeded so that
//! every experiment in this repository is exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A seeded sampler wrapping a deterministic PRNG.
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: StdRng,
}

impl Sampler {
    /// Creates a sampler from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws `count` uniform points in `[lo, hi)`.
    ///
    /// Returns an empty vector when the range is empty or inverted.
    pub fn uniform_points(&mut self, lo: f64, hi: f64, count: usize) -> Vec<f64> {
        if !(hi > lo) {
            return Vec::new();
        }
        (0..count).map(|_| self.rng.gen_range(lo..hi)).collect()
    }

    /// Subsamples `count` elements from `xs` without replacement,
    /// preserving no particular order. If `count >= xs.len()` the whole
    /// slice is returned (copied).
    ///
    /// A sparse partial Fisher–Yates shuffle in O(count log count) time
    /// and O(count) space, independent of `xs.len()`: only the positions
    /// a swap has displaced are stored. It draws the same
    /// `gen_range(i..len)` sequence as `SliceRandom::choose_multiple`, so
    /// the picks (and their order) are identical to it.
    pub fn subsample<T: Copy>(&mut self, xs: &[T], count: usize) -> Vec<T> {
        let len = xs.len();
        if count >= len {
            return xs.to_vec();
        }
        // displaced[p] is the index now at position p of the virtual
        // identity permutation 0..len; absent positions hold themselves.
        let mut displaced: BTreeMap<usize, usize> = BTreeMap::new();
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let j = self.rng.gen_range(i..len);
            // Position i is never read again, so its entry can go.
            let at_i = displaced.remove(&i).unwrap_or(i);
            let at_j = if j == i {
                at_i
            } else {
                displaced.insert(j, at_i).unwrap_or(j)
            };
            out.extend(xs.get(at_j).copied());
        }
        out
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Sampler::from_seed(7);
        let mut b = Sampler::from_seed(7);
        assert_eq!(
            a.uniform_points(0.0, 10.0, 5),
            b.uniform_points(0.0, 10.0, 5)
        );
        let xs: Vec<u32> = (0..100).collect();
        assert_eq!(a.subsample(&xs, 10), b.subsample(&xs, 10));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sampler::from_seed(1);
        let mut b = Sampler::from_seed(2);
        assert_ne!(a.uniform_points(0.0, 1.0, 8), b.uniform_points(0.0, 1.0, 8));
    }

    #[test]
    fn uniform_points_respect_bounds() {
        let mut s = Sampler::from_seed(42);
        for p in s.uniform_points(5.0, 6.0, 1000) {
            assert!((5.0..6.0).contains(&p));
        }
        assert!(s.uniform_points(3.0, 3.0, 10).is_empty());
        assert!(s.uniform_points(4.0, 2.0, 10).is_empty());
    }

    #[test]
    fn subsample_without_replacement() {
        let xs: Vec<u32> = (0..50).collect();
        let mut s = Sampler::from_seed(9);
        let sub = s.subsample(&xs, 20);
        assert_eq!(sub.len(), 20);
        let mut seen = sub.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 20, "duplicates in subsample");
        for v in sub {
            assert!(xs.contains(&v));
        }
    }

    #[test]
    fn subsample_larger_than_population_returns_all() {
        let xs = [1, 2, 3];
        let mut s = Sampler::from_seed(0);
        let sub = s.subsample(&xs, 10);
        assert_eq!(sub, vec![1, 2, 3]);
    }

    #[test]
    fn uniform_points_cover_range() {
        let mut s = Sampler::from_seed(11);
        let pts = s.uniform_points(0.0, 1.0, 2000);
        let below = pts.iter().filter(|p| **p < 0.5).count();
        assert!((800..1200).contains(&below), "heavily skewed: {below}");
    }
}
