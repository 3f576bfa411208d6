//! Deterministic pseudo-random number generation.
//!
//! A self-contained xoshiro256** implementation (Blackman & Vigna), seeded
//! through the workspace-shared splitmix64
//! ([`wsn_net::splitmix::SplitMix64`]). We implement it in-repo rather
//! than depending on the `rand` crate so that every simulation run is
//! bit-reproducible across `rand` version bumps — reproducibility is the
//! whole point of a reproduction repository.

use wsn_net::splitmix::SplitMix64;

/// xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng { s }
    }

    /// Derives an independent child generator (for per-run / per-node
    /// streams without correlated sequences).
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive), over any span up to the
    /// whole `i64` range: `hi - lo` is taken as a wrapping `u64`, exact for
    /// every `lo <= hi`, and the whole range, whose span `2⁶⁴` no `u64`
    /// holds, draws one `next_u64`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let offset = match (hi.wrapping_sub(lo) as u64).checked_add(1) {
            Some(span) => self.below(span),
            None => self.next_u64(),
        };
        lo.wrapping_add(offset as i64)
    }

    /// Standard normal variate (Box–Muller, one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Seeding must stay bit-identical to the splitmix64 closure this
    /// module open-coded before the generator was shared with `wsn-net` —
    /// every published experiment seed depends on it.
    #[test]
    fn seeding_matches_the_old_inline_splitmix() {
        for seed in [0u64, 1, 123, 0xC0FFEE, u64::MAX] {
            let mut sm = seed;
            let mut next_sm = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            let old = Rng {
                s: [next_sm(), next_sm(), next_sm(), next_sm()],
            };
            let mut new = Rng::seed_from_u64(seed);
            assert_eq!(old.s, new.s, "seed {seed}");
            let _ = new.next_u64();
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut r = Rng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "count {c}");
        }
    }

    #[test]
    fn range_i64_inclusive_bounds_hit() {
        let mut r = Rng::seed_from_u64(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn range_i64_spans_the_whole_i64_range() {
        // The whole range is `i64::MIN` plus one `next_u64`, wrapping.
        let mut r = Rng::seed_from_u64(13);
        let mut twin = r.clone();
        for _ in 0..1_000 {
            let offset = twin.next_u64() as i64;
            assert_eq!(
                r.range_i64(i64::MIN, i64::MAX),
                i64::MIN.wrapping_add(offset)
            );
        }
        // A span of 2⁶⁴ - 1 stays inside its bounds and reaches both signs.
        let (mut negative, mut positive) = (false, false);
        for _ in 0..1_000 {
            let v = r.range_i64(-i64::MAX, i64::MAX);
            assert!(v >= -i64::MAX);
            negative |= v < 0;
            positive |= v > 0;
        }
        assert!(negative && positive);
        // A span that fits an `i64` draws exactly what `lo + below(span)`
        // drew before, so no seeded world moves.
        let mut r = Rng::seed_from_u64(17);
        let mut twin = r.clone();
        for (lo, hi) in [
            (-3, 3),
            (0, 1_023),
            (i64::MAX - 5, i64::MAX),
            (i64::MIN, i64::MIN + 9),
        ] {
            for _ in 0..100 {
                let span = (hi - lo) as u64 + 1;
                assert_eq!(r.range_i64(lo, hi), lo + twin.below(span) as i64);
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::seed_from_u64(77);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.next_gaussian();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(42);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
