//! Equi-width bucket partitioning shared by the histogram protocols
//! (HBC §4.1, LCLL \[16\]).
//!
//! An inclusive integer interval `[lo, hi]` of width `W = hi − lo + 1` is
//! divided into `b' = min(b, W)` buckets. Node-side bucket assignment and
//! root-side bucket bounds use the same integer arithmetic, so every node
//! agrees with the root on the partition without extra communication.

use crate::Value;

/// A partition of `[lo, hi]` into at most `b` equal-width buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketPartition {
    /// Lower end of the partitioned interval (inclusive).
    pub lo: Value,
    /// Upper end of the partitioned interval (inclusive).
    pub hi: Value,
    /// Actual number of buckets, `min(b, width)`.
    pub buckets: usize,
}

impl BucketPartition {
    /// Creates the partition.
    ///
    /// # Panics
    /// Panics if the interval is empty or `b == 0`.
    pub fn new(lo: Value, hi: Value, b: usize) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        assert!(b >= 1, "need at least one bucket");
        let width = (hi - lo + 1) as u64;
        BucketPartition {
            lo,
            hi,
            buckets: (b as u64).min(width) as usize,
        }
    }

    /// Interval width in values.
    pub fn width(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// Bucket index of `v`, or `None` if `v` lies outside `[lo, hi]`.
    pub fn index_of(&self, v: Value) -> Option<usize> {
        if v < self.lo || v > self.hi {
            return None;
        }
        let offset = (v - self.lo) as u64;
        Some(mul_div(offset, self.buckets as u64, self.width(), false) as usize)
    }

    /// Inclusive value range `[start, end]` of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= buckets`.
    pub fn bounds(&self, i: usize) -> (Value, Value) {
        assert!(i < self.buckets, "bucket {i} out of {}", self.buckets);
        let (w, b) = (self.width(), self.buckets as u64);
        let start = self.lo + mul_div(i as u64, w, b, true) as Value;
        let end = self.lo + mul_div(i as u64 + 1, w, b, true) as Value - 1;
        (start, end)
    }
}

/// The bucket holding the `rank`-th smallest value (1-based) of a
/// histogram with per-bucket `counts`, and how many values the buckets
/// before it hold; `None` when the buckets hold fewer than `rank` values
/// (message loss). Callers choose their own fallback for `None`.
pub(crate) fn bucket_holding(
    counts: impl IntoIterator<Item = u64>,
    rank: u64,
) -> Option<(usize, u64)> {
    let mut before = 0u64;
    for (i, c) in counts.into_iter().enumerate() {
        if before + c >= rank {
            return Some((i, before));
        }
        before += c;
    }
    None
}

/// `a · b / d`, rounded up when `ceil`, else down. Computed in `u64` when
/// the product fits — the common case, which spares every responding node
/// a software `u128` division — and in `u128` otherwise; both give the same
/// quotient.
#[inline]
fn mul_div(a: u64, b: u64, d: u64, ceil: bool) -> u64 {
    match a.checked_mul(b) {
        Some(p) if ceil => p.div_ceil(d),
        Some(p) => p / d,
        None => {
            let (p, d) = (a as u128 * b as u128, d as u128);
            (if ceil { p.div_ceil(d) } else { p / d }) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_interval_without_gaps() {
        for &(lo, hi, b) in &[
            (0i64, 1023i64, 10usize),
            (-50, 49, 7),
            (3, 3, 4),
            (0, 5, 64),
        ] {
            let p = BucketPartition::new(lo, hi, b);
            let mut expected_start = lo;
            for i in 0..p.buckets {
                let (s, e) = p.bounds(i);
                assert_eq!(s, expected_start, "gap before bucket {i}");
                assert!(s <= e, "empty bucket {i} in ({lo},{hi},{b})");
                expected_start = e + 1;
            }
            assert_eq!(expected_start, hi + 1, "partition must end at hi");
        }
    }

    #[test]
    fn index_matches_bounds() {
        let p = BucketPartition::new(-100, 154, 9);
        for v in -100..=154 {
            let i = p.index_of(v).unwrap();
            let (s, e) = p.bounds(i);
            assert!(s <= v && v <= e, "v={v} got bucket {i} = [{s},{e}]");
        }
    }

    #[test]
    fn out_of_range_has_no_bucket() {
        let p = BucketPartition::new(0, 9, 2);
        assert_eq!(p.index_of(-1), None);
        assert_eq!(p.index_of(10), None);
        assert_eq!(p.index_of(0), Some(0));
        assert_eq!(p.index_of(9), Some(1));
    }

    #[test]
    fn narrow_interval_degrades_to_unit_buckets() {
        let p = BucketPartition::new(5, 7, 64);
        assert_eq!(p.buckets, 3);
        assert_eq!(p.bounds(0), (5, 5));
        assert_eq!(p.bounds(2), (7, 7));
    }

    #[test]
    fn buckets_differ_by_at_most_one_in_width() {
        let p = BucketPartition::new(0, 999, 7);
        let widths: Vec<i64> = (0..p.buckets)
            .map(|i| {
                let (s, e) = p.bounds(i);
                e - s + 1
            })
            .collect();
        let min = *widths.iter().min().unwrap();
        let max = *widths.iter().max().unwrap();
        assert!(max - min <= 1, "widths {widths:?}");
    }

    #[test]
    fn u64_arithmetic_matches_u128_on_random_partitions() {
        // The u128 formulas `mul_div` replaced, on random intervals, bucket
        // counts and values: narrow spans take the u64 path, spans past
        // 2^40 force the u128 fallback for most products.
        let index_u128 = |p: &BucketPartition, v: Value| {
            ((v - p.lo) as u128 * p.buckets as u128 / p.width() as u128) as usize
        };
        let bounds_u128 = |p: &BucketPartition, i: usize| {
            let (w, b) = (p.width() as u128, p.buckets as u128);
            let at = |i: u128| p.lo + (i * w).div_ceil(b) as Value;
            (at(i as u128), at(i as u128 + 1) - 1)
        };
        let mut rng = wsn_net::splitmix::SplitMix64::new(0xb0c4);
        let mut fallbacks = 0;
        for case in 0..4_000 {
            let span_bits = [8, 20, 40, 62][case % 4];
            let width = 1 + rng.next_u64() % (1u64 << span_bits);
            let lo = (rng.next_u64() % (1 << 40)) as Value - (1 << 39);
            let hi = lo + (width - 1) as Value;
            let b = 1 + (rng.next_u64() % [4, 64, 4096, 1 << 24][case / 4 % 4]) as usize;
            let p = BucketPartition::new(lo, hi, b);
            let v = lo + (rng.next_u64() % width) as Value;
            let i = p.index_of(v).unwrap();
            assert_eq!(i, index_u128(&p, v), "index_of({v}) in {p:?}");
            assert_eq!(p.bounds(i), bounds_u128(&p, i), "bounds({i}) of {p:?}");
            let last = p.buckets - 1;
            assert_eq!(p.bounds(last), bounds_u128(&p, last), "last of {p:?}");
            fallbacks += usize::from(((v - lo) as u64).checked_mul(p.buckets as u64).is_none());
        }
        assert!(fallbacks > 100, "only {fallbacks} cases took the u128 path");
    }

    #[test]
    fn every_refinement_strictly_shrinks() {
        // Descending through buckets must terminate: a bucket is strictly
        // narrower than its interval whenever width >= 2.
        let p = BucketPartition::new(0, 1023, 11);
        for i in 0..p.buckets {
            let (s, e) = p.bounds(i);
            assert!((e - s + 1) < 1024);
        }
    }
}
