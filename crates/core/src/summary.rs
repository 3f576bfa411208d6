//! Mergeable rank-bound summaries — the substrate for the
//! Greenwald–Khanna-style exact method of §3.1 (\[10\]: "they solve the
//! given problem by transmitting O(log³ |N|) values").
//!
//! A [`RankSummary`] stores a subset of the values seen so far, each with
//! conservative bounds `[rmin, rmax]` on its global rank (1-based). The
//! two operations a TAG-style aggregation tree needs are:
//!
//! * **merge** — combine two summaries over disjoint value multisets; the
//!   classic combine rule adds the neighbor bounds of the other summary,
//!   and provably preserves rank-bound validity;
//! * **prune** — shrink to at most `capacity` entries by keeping evenly
//!   spaced entries (always including the extremes); pruning widens no
//!   bound, it only loses resolution *between* kept entries.
//!
//! The invariant (`rmin(v) ≤ true rank of v ≤ rmax(v)`, property-tested)
//! is exactly what the exact-quantile extension needs: an interval
//! guaranteed to contain the k-th value, shrinking geometrically per
//! iteration.

use wsn_net::{Aggregate, MessageSizes};

use crate::Value;

/// One summary entry: a value with conservative global-rank bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The value itself.
    pub value: Value,
    /// Smallest possible rank of this occurrence (1-based).
    pub rmin: u64,
    /// Largest possible rank of this occurrence.
    pub rmax: u64,
}

/// A mergeable quantile summary with conservative rank bounds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankSummary {
    /// Entries sorted by value (ties allowed, kept in merge order). The
    /// order is a precondition of [`RankSummary::merge_summary`];
    /// [`crate::wire::WireContext::decode_summary`] enforces it on
    /// decoded frames.
    pub entries: Vec<Entry>,
    /// Total number of values summarized.
    pub count: u64,
}

impl RankSummary {
    /// A summary of one measurement.
    pub fn singleton(value: Value) -> Self {
        RankSummary {
            entries: vec![Entry {
                value,
                rmin: 1,
                rmax: 1,
            }],
            count: 1,
        }
    }

    /// Overwrites the summary with [`RankSummary::singleton`]`(value)`,
    /// keeping the entry storage.
    pub(crate) fn set_singleton(&mut self, value: Value) {
        self.entries.clear();
        self.entries.push(Entry {
            value,
            rmin: 1,
            rmax: 1,
        });
        self.count = 1;
    }

    /// An empty summary.
    pub fn empty() -> Self {
        RankSummary::default()
    }

    /// Merges `other` into `self` (disjoint underlying multisets).
    ///
    /// For each entry `e` of one side, the other side contributes between
    /// `rmin(pred)` and `rmax(succ) − 1` values below-or-at `e` — the
    /// standard mergeable-summary combine rule. Both sides must be sorted
    /// by value (see [`RankSummary::entries`]).
    pub fn merge_summary(&mut self, other: &RankSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.entries.clone_from(&other.entries);
            self.count = other.count;
            return;
        }
        // An entry's peers on the other side (`peer_count` values) split
        // at the first peer whose value exceeds it: at least `rmin` of the
        // peer before the split lie below-or-at the entry, and at most
        // `rmax − 1` of the peer at the split (all of them when no peer
        // is larger).
        let combine = |e: Entry, below: Option<&Entry>, above: Option<&Entry>, peer_count| Entry {
            value: e.value,
            rmin: e.rmin + below.map_or(0, |p| p.rmin),
            rmax: e.rmax + above.map_or(peer_count, |p| p.rmax - 1),
        };
        // Merged in place from the back into the grown vector, ties putting
        // `self`'s entries first. Values only fall along the way, so one
        // split cursor per side suffices: `other`'s is `split`; `self`'s is
        // `i` itself, since every `self` entry taken before `b[j − 1]` has
        // a larger value. Earlier writes all landed above `i + j − 1 ≥ i`,
        // so `a[i]` is still the old entry when `b[j − 1]` reads it.
        let (a_len, a_count) = (self.entries.len(), self.count);
        let b = &other.entries;
        let (mut i, mut j, mut split) = (a_len, b.len(), b.len());
        let a = &mut self.entries;
        let filler = Entry {
            value: 0,
            rmin: 0,
            rmax: 0,
        };
        a.resize(a_len + b.len(), filler);
        while i + j > 0 {
            let w = i + j - 1;
            a[w] = if j == 0 || i > 0 && a[i - 1].value > b[j - 1].value {
                let e = a[i - 1];
                while split > 0 && b[split - 1].value > e.value {
                    split -= 1;
                }
                i -= 1;
                combine(
                    e,
                    split.checked_sub(1).map(|s| &b[s]),
                    b.get(split),
                    other.count,
                )
            } else {
                let above = (i < a_len).then(|| &a[i]);
                j -= 1;
                combine(b[j], i.checked_sub(1).map(|s| &a[s]), above, a_count)
            };
        }
        self.count += other.count;
    }

    /// Prunes to at most `capacity` entries, keeping both extremes and
    /// evenly spaced interior entries. Bounds are untouched (pruning only
    /// loses resolution).
    pub fn prune(&mut self, capacity: usize) {
        let capacity = capacity.max(2);
        let n = self.entries.len();
        if n <= capacity {
            return;
        }
        // Compacted in place: the kept index `s·(n−1)/(capacity−1)` is
        // never below `s`, so no slot is read after it was overwritten.
        for s in 0..capacity {
            self.entries[s] = self.entries[s * (n - 1) / (capacity - 1)];
        }
        self.entries.truncate(capacity);
        // Collapse equal-value runs to the *hull* of their bounds. Even
        // spacing can pick several entries with the same value whose bounds
        // drifted apart across merge→prune cycles; keeping only exact
        // triple-duplicates (the old behavior) retained stale overlapping
        // bounds for the same value. The hull (min rmin, max rmax) is
        // conservative: it can only widen the admissible rank span, so
        // every `enclosing_interval` derived from it stays sound.
        self.entries.dedup_by(|next, prev| {
            if next.value != prev.value {
                return false;
            }
            prev.rmin = prev.rmin.min(next.rmin);
            prev.rmax = prev.rmax.max(next.rmax);
            true
        });
    }

    /// A value interval `[lo, hi]` guaranteed to contain the k-th smallest
    /// element, derived from the rank bounds. `None` on an empty summary
    /// or out-of-range `k`.
    pub fn enclosing_interval(&self, k: u64) -> Option<(Value, Value)> {
        if self.entries.is_empty() || k == 0 || k > self.count {
            return None;
        }
        // lo: the largest entry whose rmax < k cannot be the k-th, but the
        // k-th cannot be below the largest entry with rmax <= k... use:
        // lo = max value with rmax <= k (the k-th is >= it), falling back
        // to the minimum entry (whose rank bound covers 1).
        let lo = self
            .entries
            .iter()
            .rev()
            .find(|e| e.rmax <= k)
            .map(|e| e.value)
            .unwrap_or(self.entries[0].value);
        // hi: the smallest entry with rmin >= k (the k-th is <= it).
        let hi = self
            .entries
            .iter()
            .find(|e| e.rmin >= k)
            .map(|e| e.value)
            .unwrap_or(self.entries[self.entries.len() - 1].value);
        Some((lo.min(hi), hi.max(lo)))
    }
}

impl Aggregate for RankSummary {
    fn merge(&mut self, other: Self) {
        self.merge_summary(&other);
    }
    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            self.merge_summary(other);
        }
    }
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => {
                to.entries.clone_from(&from.entries);
                to.count = from.count;
            }
            (to, from) => *to = from.clone(),
        }
    }
    /// Wire size: per entry one value and two counters (rmin, rmax), plus
    /// one counter for the total count.
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits + self.entries.len() as u64 * sizes.summary_entry_bits()
    }
    fn value_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the core invariant against the ground-truth multiset.
    fn assert_valid(summary: &RankSummary, values: &[Value]) {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(summary.count, values.len() as u64);
        for e in &summary.entries {
            // The true rank span of e.value among all values.
            let lo = sorted.partition_point(|&v| v < e.value) as u64 + 1;
            let hi = sorted.partition_point(|&v| v <= e.value) as u64;
            assert!(
                e.rmin <= hi && e.rmax >= lo,
                "entry {e:?} incompatible with true rank span [{lo}, {hi}]"
            );
            assert!(e.rmin <= e.rmax, "crossed bounds {e:?}");
            assert!(e.rmax <= values.len() as u64, "rmax beyond count {e:?}");
        }
    }

    fn build_tree_merge(values: &[Value], capacity: usize) -> RankSummary {
        // Merge pairwise like a balanced aggregation tree, pruning at each
        // step — exactly what intermediate nodes do.
        let mut layer: Vec<RankSummary> =
            values.iter().map(|&v| RankSummary::singleton(v)).collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                let mut s = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    s.merge_summary(b);
                }
                s.prune(capacity);
                next.push(s);
            }
            layer = next;
        }
        layer.pop().unwrap_or_else(RankSummary::empty)
    }

    #[test]
    fn singleton_bounds() {
        let s = RankSummary::singleton(42);
        assert_valid(&s, &[42]);
        assert_eq!(s.enclosing_interval(1), Some((42, 42)));
    }

    #[test]
    fn merge_without_pruning_is_tight() {
        let values = vec![5, 1, 9, 3, 7];
        let mut s = RankSummary::empty();
        for &v in &values {
            s.merge_summary(&RankSummary::singleton(v));
        }
        assert_valid(&s, &values);
        // Without pruning every value is present with usable bounds.
        for k in 1..=5u64 {
            let (lo, hi) = s.enclosing_interval(k).unwrap();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let truth = sorted[k as usize - 1];
            assert!(lo <= truth && truth <= hi, "k={k}: [{lo},{hi}] vs {truth}");
        }
    }

    #[test]
    fn tree_merge_with_pruning_stays_valid() {
        let values: Vec<Value> = (0..200).map(|i| (i * 37) % 500).collect();
        for capacity in [4usize, 8, 16, 64] {
            let s = build_tree_merge(&values, capacity);
            assert_valid(&s, &values);
            assert!(s.entries.len() <= capacity);
            // Enclosing interval must contain the true median.
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let k = 100u64;
            let truth = sorted[99];
            let (lo, hi) = s.enclosing_interval(k).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "cap={capacity}: [{lo},{hi}] vs {truth}"
            );
        }
    }

    #[test]
    fn interval_shrinks_with_capacity() {
        let values: Vec<Value> = (0..512).map(|i| i as Value).collect();
        let wide = build_tree_merge(&values, 4);
        let tight = build_tree_merge(&values, 64);
        let (wl, wh) = wide.enclosing_interval(256).unwrap();
        let (tl, th) = tight.enclosing_interval(256).unwrap();
        assert!(th - tl <= wh - wl, "more entries must not widen bounds");
    }

    #[test]
    fn duplicates_are_handled() {
        let values = vec![7; 50];
        let s = build_tree_merge(&values, 8);
        assert_valid(&s, &values);
        assert_eq!(s.enclosing_interval(25), Some((7, 7)));
    }

    #[test]
    fn prune_collapses_equal_values_to_the_bound_hull() {
        // Same-value entries with diverged (stale, overlapping) bounds, as
        // repeated merge→prune cycles can produce. Even spacing at
        // capacity 3 keeps indices 0, 1, 3 — two entries of value 5 with
        // different bounds — which must collapse to one entry carrying the
        // union of the bounds.
        let mut s = RankSummary {
            entries: vec![
                Entry {
                    value: 5,
                    rmin: 2,
                    rmax: 4,
                },
                Entry {
                    value: 5,
                    rmin: 3,
                    rmax: 6,
                },
                Entry {
                    value: 5,
                    rmin: 1,
                    rmax: 5,
                },
                Entry {
                    value: 9,
                    rmin: 7,
                    rmax: 8,
                },
            ],
            count: 8,
        };
        s.prune(3);
        assert_eq!(
            s.entries,
            vec![
                Entry {
                    value: 5,
                    rmin: 2,
                    rmax: 6,
                },
                Entry {
                    value: 9,
                    rmin: 7,
                    rmax: 8,
                },
            ]
        );
    }

    #[test]
    fn repeated_merge_prune_cycles_keep_intervals_sound() {
        // Heavy-duplicate data maximizes equal-value collisions in prune.
        // Stress many rounds of "merge a fresh batch, prune hard" — the
        // lifecycle of a long-lived sink summary — and require that every
        // rank's enclosing interval still contains the true k-th value.
        let mut all: Vec<Value> = Vec::new();
        let mut s = RankSummary::empty();
        let mut x = 9u64; // splitmix-ish scramble, deterministic
        for round in 0..40 {
            let batch: Vec<Value> = (0..17)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) % 12) as Value // only 12 distinct values
                })
                .collect();
            let incoming = build_tree_merge(&batch, 5);
            s.merge_summary(&incoming);
            s.prune(7);
            all.extend_from_slice(&batch);
            assert_valid(&s, &all);
            let mut sorted = all.clone();
            sorted.sort_unstable();
            for k in [1u64, all.len() as u64 / 2, all.len() as u64] {
                let truth = sorted[k as usize - 1];
                let (lo, hi) = s.enclosing_interval(k).unwrap();
                assert!(
                    lo <= truth && truth <= hi,
                    "round {round} k={k}: [{lo},{hi}] vs {truth}"
                );
            }
        }
    }

    #[test]
    fn payload_size_counts_entries() {
        let sizes = MessageSizes::default();
        let mut s = RankSummary::singleton(1);
        s.merge_summary(&RankSummary::singleton(2));
        // 1 count counter + 2 entries × (value + 2 counters).
        assert_eq!(s.payload_bits(&sizes), 16 + 2 * (16 + 32));
        assert_eq!(s.value_count(), 2);
    }
}
