//! Rank/order-statistic helpers shared by all protocols, plus the oracle
//! used to verify exactness.

use crate::payloads::MovementCounters;
use crate::Value;

/// Which side of a threshold a value falls on. The three intervals
/// `lt = (−∞, q)`, `eq = [q, q]`, `gt = (q, ∞)` of POS §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Strictly below the threshold.
    Lt,
    /// Equal to the threshold.
    Eq,
    /// Strictly above the threshold.
    Gt,
}

/// Classifies `v` against threshold `q`.
#[inline]
pub fn side(v: Value, q: Value) -> Side {
    match v.cmp(&q) {
        std::cmp::Ordering::Less => Side::Lt,
        std::cmp::Ordering::Equal => Side::Eq,
        std::cmp::Ordering::Greater => Side::Gt,
    }
}

/// Classifies `v` against the closed interval `[lb, ub]` — the three-way
/// partition used by the §4.1.2 broadcast-elimination variant of HBC
/// (`side(v, q)` is the special case `lb == ub == q`).
#[inline]
pub fn side_interval(v: Value, lb: Value, ub: Value) -> Side {
    debug_assert!(lb <= ub);
    if v < lb {
        Side::Lt
    } else if v > ub {
        Side::Gt
    } else {
        Side::Eq
    }
}

/// The rank `k` of a φ-quantile over `n` values (Definition 2.1:
/// `k = ⌊φ·|N|⌋`, clamped to `[1, n]` so it is a valid 1-based rank).
///
/// # Panics
/// Panics if `φ ∉ [0, 1]` or `n == 0` — no 1-based rank exists over an
/// empty value set, and without the guard the clamp would be `clamp(1, 0)`
/// (which trips std's `min <= max` assertion with a much less useful
/// message). Callers that can legitimately see empty sets — e.g. the
/// sketch sink paths aggregating empty partial summaries — should use
/// [`try_rank_of_phi`] instead.
pub fn rank_of_phi(phi: f64, n: usize) -> u64 {
    assert!((0.0..=1.0).contains(&phi), "φ must be in [0,1]");
    assert!(n > 0, "rank_of_phi: no rank exists over an empty value set");
    ((phi * n as f64).floor() as u64).clamp(1, n as u64)
}

/// Non-panicking [`rank_of_phi`]: `None` when no valid rank exists, i.e.
/// `n == 0` (nothing to rank) or `φ ∉ [0, 1]`.
pub fn try_rank_of_phi(phi: f64, n: usize) -> Option<u64> {
    if n == 0 || !(0.0..=1.0).contains(&phi) {
        return None;
    }
    Some(rank_of_phi(phi, n))
}

/// The k-th smallest value (1-based), computed centrally — the ground
/// truth every protocol must reproduce.
///
/// # Panics
/// Panics if `k` is not in `[1, values.len()]`.
pub fn kth_smallest(values: &[Value], k: u64) -> Value {
    assert!(
        k >= 1 && k as usize <= values.len(),
        "rank {k} out of range for {} values",
        values.len()
    );
    kth_smallest_mut(&mut values.to_vec(), k)
}

/// [`kth_smallest`] selecting in place (reorders `values`).
pub(crate) fn kth_smallest_mut(values: &mut [Value], k: u64) -> Value {
    assert!(
        k >= 1 && k as usize <= values.len(),
        "rank {k} out of range for {} values",
        values.len()
    );
    // select_nth_unstable is O(n) expected.
    let (_, v, _) = values.select_nth_unstable(k as usize - 1);
    *v
}

/// The centralized oracle: the true φ-quantile of `values`, computed by
/// brute force. This is the referee every protocol answer is judged
/// against — exact by construction, independent of any in-network code
/// path (`rank_of_phi` + [`kth_smallest`]).
///
/// # Panics
/// Panics on an empty slice (no quantile exists — an empty partial
/// summary must be handled by the caller) or φ outside `[0, 1]`.
pub fn oracle(values: &[Value], phi: f64) -> Value {
    assert!(
        !values.is_empty(),
        "rank::oracle: no quantile exists over an empty value set"
    );
    kth_smallest(values, rank_of_phi(phi, values.len()))
}

/// Deterministic value permutation used by the metamorphic battery:
/// rotation by `rot` positions. Any permutation preserves the multiset and
/// therefore every order statistic; rotation is the cheapest one that
/// still moves every element (for `rot ≠ 0 mod len`).
pub fn rotated(values: &[Value], rot: usize) -> Vec<Value> {
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    (0..n).map(|i| values[(i + rot) % n]).collect()
}

/// Applies the order-preserving affine map `v ↦ a·v + b` (`a > 0`) to every
/// value. Order statistics are equivariant under it:
/// `kth(affine(V)) = a·kth(V) + b`.
///
/// # Panics
/// Panics unless `a > 0` (a non-positive slope does not preserve order).
pub fn affine(values: &[Value], a: Value, b: Value) -> Vec<Value> {
    assert!(a > 0, "affine rank metamorphism needs a positive slope");
    values.iter().map(|&v| a * v + b).collect()
}

/// Metamorphic property 1: the k-th smallest value is invariant under any
/// permutation of the input. Returns `true` when it holds for the given
/// rotation (the fuzzer's witness permutation).
pub fn kth_invariant_under_rotation(values: &[Value], k: u64, rot: usize) -> bool {
    kth_smallest(&rotated(values, rot), k) == kth_smallest(values, k)
}

/// Metamorphic property 2: the k-th smallest value is equivariant under
/// the order-preserving affine map `v ↦ a·v + b` with `a > 0`.
pub fn kth_equivariant_under_affine(values: &[Value], k: u64, a: Value, b: Value) -> bool {
    kth_smallest(&affine(values, a, b), k) == a * kth_smallest(values, k) + b
}

/// Counts of values below / equal to / above a threshold — the POS state
/// variables `l`, `e`, `g` (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Number of values strictly below the threshold.
    pub l: u64,
    /// Number of values equal to the threshold.
    pub e: u64,
    /// Number of values strictly above the threshold.
    pub g: u64,
}

impl Counts {
    /// The counts of `n` values of which `l` lie below the threshold and `e`
    /// at it; the rest lie above (none when `l + e` exceeds `n`, which only
    /// message loss can cause).
    pub(crate) fn new(l: u64, e: u64, n: u64) -> Self {
        Counts {
            l,
            e,
            g: n.saturating_sub(l + e),
        }
    }

    /// The counts after the movements a validation or probe wave reported:
    /// `l` and `g` gain their entries and lose their exits (never below
    /// zero), and `e` is what the unchanged total leaves.
    pub(crate) fn moved(&self, c: &MovementCounters) -> Self {
        let l = (self.l + c.into_lt).saturating_sub(c.outof_lt);
        let g = (self.g + c.into_gt).saturating_sub(c.outof_gt);
        Counts {
            l,
            e: self.n().saturating_sub(l + g),
            g,
        }
    }

    /// Computes the counts of `values` against `q` directly (used during
    /// initialization, when all measurements are at the root anyway).
    pub fn of(values: &[Value], q: Value) -> Self {
        let mut c = Counts::default();
        for &v in values {
            match side(v, q) {
                Side::Lt => c.l += 1,
                Side::Eq => c.e += 1,
                Side::Gt => c.g += 1,
            }
        }
        c
    }

    /// Total number of values.
    pub fn n(&self) -> u64 {
        self.l + self.e + self.g
    }

    /// True iff the threshold these counts refer to *is* the k-th value:
    /// `l < k ∧ l + e ≥ k` (§3.2; for the median, `g ≤ |N|/2 ∧ l ≤ |N|/2`).
    pub fn is_valid_quantile(&self, k: u64) -> bool {
        self.l < k && self.l + self.e >= k
    }

    /// Direction the quantile moved if the counts are invalid.
    pub fn quantile_moved(&self, k: u64) -> Option<Direction> {
        if self.l >= k {
            Some(Direction::Down)
        } else if self.l + self.e < k {
            Some(Direction::Up)
        } else {
            None
        }
    }
}

/// Which way the quantile moved relative to the previous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// New quantile is smaller (`l ≥ k`).
    Down,
    /// New quantile is larger (`l + e < k`).
    Up,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_classification() {
        assert_eq!(side(1, 5), Side::Lt);
        assert_eq!(side(5, 5), Side::Eq);
        assert_eq!(side(9, 5), Side::Gt);
    }

    #[test]
    fn rank_of_phi_median() {
        assert_eq!(rank_of_phi(0.5, 1000), 500);
        assert_eq!(rank_of_phi(0.5, 5), 2);
        assert_eq!(rank_of_phi(0.0, 10), 1); // clamped up
        assert_eq!(rank_of_phi(1.0, 10), 10);
        // The single-value set: both boundaries collapse to rank 1.
        assert_eq!(rank_of_phi(0.0, 1), 1);
        assert_eq!(rank_of_phi(1.0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn rank_of_phi_rejects_empty_sets() {
        let _ = rank_of_phi(0.5, 0);
    }

    #[test]
    fn try_rank_of_phi_signals_degenerate_inputs() {
        assert_eq!(try_rank_of_phi(0.5, 0), None, "empty set");
        assert_eq!(try_rank_of_phi(-0.1, 10), None, "φ below range");
        assert_eq!(try_rank_of_phi(1.5, 10), None, "φ above range");
        assert_eq!(try_rank_of_phi(0.5, 1000), Some(500));
        assert_eq!(try_rank_of_phi(0.0, 10), Some(1));
        assert_eq!(try_rank_of_phi(1.0, 10), Some(10));
    }

    #[test]
    #[should_panic(expected = "no quantile exists over an empty value set")]
    fn oracle_rejects_empty_slices_with_a_clear_message() {
        let _ = oracle(&[], 0.5);
    }

    #[test]
    fn kth_smallest_matches_sorting() {
        let values = vec![5, 1, 9, 3, 3, 7];
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for k in 1..=6u64 {
            assert_eq!(kth_smallest(&values, k), sorted[k as usize - 1]);
        }
    }

    #[test]
    fn median_is_robust_to_outliers() {
        // The paper's §1 example: {3,3,3,3,103} -> median 3, average 23.
        let values = vec![3, 3, 3, 3, 103];
        assert_eq!(kth_smallest(&values, rank_of_phi(0.5, 5)), 3);
    }

    #[test]
    fn oracle_is_kth_of_phi() {
        let values = vec![9, 1, 5, 3, 7];
        // Definition 2.1: k = ⌊φ·n⌋ clamped to [1, n]; ⌊0.5·5⌋ = 2.
        assert_eq!(oracle(&values, 0.5), 3);
        assert_eq!(oracle(&values, 0.0), 1); // rank clamped up to 1
        assert_eq!(oracle(&values, 1.0), 9);
    }

    #[test]
    fn rotation_preserves_every_rank() {
        let values = vec![4, 8, 15, 16, 23, 42];
        for rot in 0..=6 {
            for k in 1..=6 {
                assert!(
                    kth_invariant_under_rotation(&values, k, rot),
                    "k={k} rot={rot}"
                );
            }
        }
        assert_eq!(rotated(&values, 2), vec![15, 16, 23, 42, 4, 8]);
        assert!(rotated(&[], 3).is_empty());
    }

    #[test]
    fn affine_maps_are_rank_equivariant() {
        let values = vec![-3, 0, 2, 2, 11];
        for (a, b) in [(1, 0), (2, -5), (3, 1000)] {
            for k in 1..=5 {
                assert!(
                    kth_equivariant_under_affine(&values, k, a, b),
                    "k={k} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive slope")]
    fn affine_rejects_non_positive_slopes() {
        let _ = affine(&[1, 2], 0, 3);
    }

    #[test]
    fn counts_partition_the_values() {
        let values = vec![1, 2, 2, 3, 4, 4, 4];
        let c = Counts::of(&values, 3);
        assert_eq!(c, Counts { l: 3, e: 1, g: 3 });
        assert_eq!(c.n(), 7);
    }

    #[test]
    fn validity_condition() {
        // values: 1 2 2 3 4 4 4, median k = 3 -> value 2.
        let values = vec![1, 2, 2, 3, 4, 4, 4];
        assert!(Counts::of(&values, 2).is_valid_quantile(3));
        assert!(!Counts::of(&values, 3).is_valid_quantile(3));
        assert!(!Counts::of(&values, 1).is_valid_quantile(3));
    }

    #[test]
    fn movement_direction() {
        let values = vec![1, 2, 2, 3, 4, 4, 4];
        // Threshold 4: l = 4 >= k=3 -> down.
        assert_eq!(
            Counts::of(&values, 4).quantile_moved(3),
            Some(Direction::Down)
        );
        // Threshold 1: l+e = 1 < 3 -> up.
        assert_eq!(
            Counts::of(&values, 1).quantile_moved(3),
            Some(Direction::Up)
        );
        assert_eq!(Counts::of(&values, 2).quantile_moved(3), None);
    }

    #[test]
    fn validity_iff_threshold_is_kth() {
        // Exhaustive cross-check on a small universe.
        let values = vec![2, 2, 5, 7, 7, 7, 9];
        for k in 1..=7u64 {
            let truth = kth_smallest(&values, k);
            for q in 0..=10 {
                assert_eq!(
                    Counts::of(&values, q).is_valid_quantile(k),
                    q == truth,
                    "k={k} q={q}"
                );
            }
        }
    }
}
