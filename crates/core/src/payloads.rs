//! Convergecast payload types shared by the protocols.
//!
//! Each type implements [`wsn_net::Aggregate`]: the merge operation an
//! intermediate node applies, and the wire size the energy model charges.

use wsn_net::{Aggregate, MessageSizes};

use crate::rank::Side;
use crate::Value;

/// A plain multiset of measurements (TAG collections, direct value
/// retrieval, IQ validation sets and refinement responses).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueList {
    /// The transported measurements, unordered.
    pub vals: Vec<Value>,
}

impl ValueList {
    /// A payload holding a single measurement.
    pub fn single(v: Value) -> Self {
        ValueList { vals: vec![v] }
    }

    /// An empty payload with room for `n` measurements.
    pub(crate) fn with_capacity(n: usize) -> Self {
        ValueList {
            vals: Vec::with_capacity(n),
        }
    }

    /// Overwrites the payload with the single measurement `v`, keeping the
    /// storage (a contribution written into a reused wave slot).
    pub(crate) fn set_single(&mut self, v: Value) {
        self.vals.clear();
        self.vals.push(v);
    }

    /// Keeps only the `f` smallest values, plus all values tied with the
    /// `f`-th smallest (IQ refinement pruning, §4.2.2: intermediate nodes
    /// forward only the `f₂` smallest values; ties of the cut-off value
    /// must survive so the root can count `e`).
    pub fn keep_smallest_with_ties(&mut self, f: usize) {
        if f == 0 {
            self.vals.clear();
            return;
        }
        if self.vals.len() <= f {
            return;
        }
        self.vals.sort_unstable();
        let cutoff = self.vals[f - 1];
        let end = self.vals.partition_point(|&v| v <= cutoff);
        self.vals.truncate(end);
    }

    /// Keeps only the `f` largest values plus ties of the `f`-th largest
    /// (IQ refinement pruning for downward movement, §4.2.2).
    pub fn keep_largest_with_ties(&mut self, f: usize) {
        if f == 0 {
            self.vals.clear();
            return;
        }
        if self.vals.len() <= f {
            return;
        }
        self.vals.sort_unstable_by(|a, b| b.cmp(a));
        let cutoff = self.vals[f - 1];
        let end = self.vals.partition_point(|&v| v >= cutoff);
        self.vals.truncate(end);
    }

    /// Keeps only the `f` smallest values, dropping ties beyond `f`
    /// (TAG's k-smallest forwarding, §5.1.6). O(len) via quickselect —
    /// this runs at every hop of every TAG round, so it must not sort.
    pub fn keep_smallest(&mut self, f: usize) {
        if f == 0 {
            self.vals.clear();
        } else if self.vals.len() > f {
            self.vals.select_nth_unstable(f - 1);
            self.vals.truncate(f);
        }
    }
}

impl Aggregate for ValueList {
    fn merge(&mut self, other: Self) {
        self.vals.extend(other.vals);
    }
    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            self.vals.extend_from_slice(&other.vals);
        }
    }
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => to.vals.clone_from(&from.vals),
            (to, from) => *to = from.clone(),
        }
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        self.vals.len() as u64 * sizes.value_bits
    }
    fn value_count(&self) -> usize {
        self.vals.len()
    }
}

/// The four POS movement counters (§3.2): values that left / entered the
/// `lt` and `gt` intervals between consecutive rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MovementCounters {
    /// Values that left `lt` (were `< q`, are no longer).
    pub outof_lt: u64,
    /// Values that entered `lt`.
    pub into_lt: u64,
    /// Values that left `gt`.
    pub outof_gt: u64,
    /// Values that entered `gt`.
    pub into_gt: u64,
}

impl MovementCounters {
    /// The counters of one value that moved from side `from` of the filter
    /// to side `to` (all zero when the sides agree).
    pub(crate) fn between(from: Side, to: Side) -> Self {
        let mut c = MovementCounters::default();
        if from != to {
            match from {
                Side::Lt => c.outof_lt = 1,
                Side::Gt => c.outof_gt = 1,
                Side::Eq => {}
            }
            match to {
                Side::Lt => c.into_lt = 1,
                Side::Gt => c.into_gt = 1,
                Side::Eq => {}
            }
        }
        c
    }

    /// Component-wise sum (TAG-style aggregation of counters).
    pub fn merge(&mut self, other: &MovementCounters) {
        self.outof_lt += other.outof_lt;
        self.into_lt += other.into_lt;
        self.outof_gt += other.outof_gt;
        self.into_gt += other.into_gt;
    }

    /// True iff all counters are zero (nothing moved).
    pub fn is_zero(&self) -> bool {
        self.outof_lt == 0 && self.into_lt == 0 && self.outof_gt == 0 && self.into_gt == 0
    }
}

impl Aggregate for MovementCounters {
    fn merge(&mut self, other: Self) {
        MovementCounters::merge(self, &other);
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        4 * sizes.counter_bits
    }
}

/// Per-query movement counters for a *shared* validation wave: one
/// [`MovementCounters`] block per due query lane, concatenated in lane
/// order. The service layer's multi-query optimization packs every due
/// query's validation counters into this single payload so one
/// convergecast serves the whole workload; the charged size is the exact
/// concatenation (`lanes × 4 × counter_bits`), which is what the shared
/// frame accounting in `wsn_net` amortizes across queries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiCounters {
    /// One counter block per due query, in plan (lane) order.
    pub lanes: Vec<MovementCounters>,
}

impl MultiCounters {
    /// A payload of `n` zeroed lanes.
    pub fn zeros(n: usize) -> Self {
        MultiCounters {
            lanes: vec![MovementCounters::default(); n],
        }
    }

    /// True iff no lane recorded any movement.
    pub fn is_zero(&self) -> bool {
        self.lanes.iter().all(MovementCounters::is_zero)
    }
}

impl Aggregate for MultiCounters {
    /// Lane-wise merge. Both sides must carry the same due-query set; a
    /// shorter side is treated as zero-extended (a node that joined after
    /// an admit).
    fn merge(&mut self, other: Self) {
        if other.lanes.len() > self.lanes.len() {
            self.lanes
                .resize(other.lanes.len(), MovementCounters::default());
        }
        for (mine, theirs) in self.lanes.iter_mut().zip(other.lanes) {
            MovementCounters::merge(mine, &theirs);
        }
    }

    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        self.lanes.len() as u64 * 4 * sizes.counter_bits
    }
}

/// A histogram over `b` buckets, aggregated by per-bucket summation and
/// transmitted in compressed form (empty buckets dropped, \[21\]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Count per bucket (private so its length stays the bucket count;
    /// access through [`Histogram::counts`] / [`Histogram::counts_mut`]).
    counts: Vec<u64>,
}

impl Histogram {
    /// An all-zero histogram with `b` buckets.
    pub fn zeros(b: usize) -> Self {
        Histogram { counts: vec![0; b] }
    }

    /// A histogram with a single unit entry in bucket `i`.
    pub fn unit(b: usize, i: usize) -> Self {
        let mut h = Histogram::zeros(b);
        h.counts[i] = 1;
        h
    }

    /// Overwrites the histogram with [`Histogram::zeros`]`(b)`, keeping the
    /// storage.
    pub(crate) fn set_zeros(&mut self, b: usize) {
        self.counts.clear();
        self.counts.resize(b, 0);
    }

    /// Overwrites the histogram with [`Histogram::unit`]`(b, i)`, keeping
    /// the storage.
    pub(crate) fn set_unit(&mut self, b: usize, i: usize) {
        self.set_zeros(b);
        self.counts[i] = 1;
    }

    /// Count per bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count per bucket, mutable.
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Number of non-empty buckets (what actually goes on the wire).
    pub fn nonempty(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Total count across buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Aggregate for Histogram {
    fn merge(&mut self, other: Self) {
        self.merge_from(&mut Some(other));
    }
    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            debug_assert_eq!(self.counts.len(), other.counts.len());
            for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
        }
    }
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => to.counts.clone_from(&from.counts),
            (to, from) => *to = from.clone(),
        }
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        self.nonempty() as u64 * (sizes.bucket_bits + sizes.bucket_index_bits)
    }
}

/// Signed per-bucket deltas — LCLL's improved validation (§5.1.6: a node
/// whose value slipped to another bucket transmits the old bucket −1 and
/// the new bucket +1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaHistogram {
    /// Delta per bucket (positions beyond the real buckets may encode the
    /// below-/above-window virtual buckets).
    pub deltas: Vec<i64>,
}

impl DeltaHistogram {
    /// An all-zero delta vector of length `b`.
    pub fn zeros(b: usize) -> Self {
        DeltaHistogram { deltas: vec![0; b] }
    }

    /// The move of one node from bucket `from` to bucket `to`.
    pub fn movement(b: usize, from: usize, to: usize) -> Self {
        let mut d = DeltaHistogram::zeros(b);
        d.set_movement(b, from, to);
        d
    }

    /// Overwrites the deltas with [`DeltaHistogram::movement`]`(b, from,
    /// to)`, keeping the storage.
    pub(crate) fn set_movement(&mut self, b: usize, from: usize, to: usize) {
        self.deltas.clear();
        self.deltas.resize(b, 0);
        self.deltas[from] -= 1;
        self.deltas[to] += 1;
    }

    /// Number of non-zero entries (wire size).
    pub fn nonzero(&self) -> usize {
        self.deltas.iter().filter(|&&d| d != 0).count()
    }
}

impl Aggregate for DeltaHistogram {
    fn merge(&mut self, other: Self) {
        self.merge_from(&mut Some(other));
    }
    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            debug_assert_eq!(self.deltas.len(), other.deltas.len());
            for (a, &b) in self.deltas.iter_mut().zip(other.deltas.iter()) {
                *a += b;
            }
        }
    }
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => to.deltas.clone_from(&from.deltas),
            (to, from) => *to = from.clone(),
        }
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        self.nonzero() as u64 * (sizes.bucket_bits + sizes.bucket_index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_list_merge_and_size() {
        let sizes = MessageSizes::default();
        let mut a = ValueList { vals: vec![1, 2] };
        a.merge(ValueList::single(3));
        assert_eq!(a.vals.len(), 3);
        assert_eq!(a.payload_bits(&sizes), 48);
        assert_eq!(a.value_count(), 3);
    }

    #[test]
    fn keep_smallest_with_ties_keeps_cutoff_ties() {
        let mut l = ValueList {
            vals: vec![5, 1, 3, 3, 3, 9],
        };
        l.keep_smallest_with_ties(3);
        assert_eq!(l.vals, vec![1, 3, 3, 3]);
    }

    #[test]
    fn keep_largest_with_ties_keeps_cutoff_ties() {
        let mut l = ValueList {
            vals: vec![5, 1, 3, 5, 5, 9],
        };
        l.keep_largest_with_ties(2);
        assert_eq!(l.vals, vec![9, 5, 5, 5]);
    }

    #[test]
    fn keep_smallest_drops_ties() {
        let mut l = ValueList {
            vals: vec![5, 1, 3, 3, 3, 9],
        };
        l.keep_smallest(3);
        assert_eq!(l.vals, vec![1, 3, 3]);
    }

    #[test]
    fn keep_zero_clears() {
        let mut l = ValueList { vals: vec![1, 2] };
        l.keep_largest_with_ties(0);
        assert!(l.vals.is_empty());
        let mut l = ValueList { vals: vec![1, 2] };
        l.keep_smallest_with_ties(0);
        assert!(l.vals.is_empty());
    }

    #[test]
    fn counters_merge_componentwise() {
        let sizes = MessageSizes::default();
        let mut a = MovementCounters {
            outof_lt: 1,
            into_lt: 0,
            outof_gt: 2,
            into_gt: 0,
        };
        Aggregate::merge(
            &mut a,
            MovementCounters {
                outof_lt: 1,
                into_lt: 5,
                outof_gt: 0,
                into_gt: 1,
            },
        );
        assert_eq!(a.outof_lt, 2);
        assert_eq!(a.into_lt, 5);
        assert_eq!(a.into_gt, 1);
        assert!(!a.is_zero());
        assert_eq!(a.payload_bits(&sizes), 64);
    }

    #[test]
    fn multi_counters_merge_lanewise_and_charge_the_concatenation() {
        let sizes = MessageSizes::default();
        let mut a = MultiCounters::zeros(2);
        a.lanes[0].outof_lt = 3;
        let mut b = MultiCounters::zeros(3);
        b.lanes[0].outof_lt = 1;
        b.lanes[2].into_gt = 7;
        a.merge(b);
        assert_eq!(a.lanes.len(), 3, "shorter side zero-extends");
        assert_eq!(a.lanes[0].outof_lt, 4);
        assert_eq!(a.lanes[1], MovementCounters::default());
        assert_eq!(a.lanes[2].into_gt, 7);
        assert!(!a.is_zero());
        // The charge is the exact concatenation of the solo payloads.
        let solo = MovementCounters::default().payload_bits(&sizes);
        assert_eq!(a.payload_bits(&sizes), 3 * solo);
        assert_eq!(MultiCounters::zeros(0).payload_bits(&sizes), 0);
    }

    #[test]
    fn histogram_compressed_size_counts_nonempty() {
        let sizes = MessageSizes::default();
        let mut h = Histogram::zeros(8);
        h.counts_mut()[2] = 3;
        h.counts_mut()[5] = 1;
        assert_eq!(h.nonempty(), 2);
        assert_eq!(h.payload_bits(&sizes), 2 * (16 + 8));
        h.merge(Histogram::unit(8, 2));
        assert_eq!(h.counts()[2], 4);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn delta_histogram_cancels_opposite_moves() {
        let sizes = MessageSizes::default();
        let mut d = DeltaHistogram::movement(4, 0, 1);
        d.merge(DeltaHistogram::movement(4, 1, 0));
        assert_eq!(d.nonzero(), 0);
        assert_eq!(d.payload_bits(&sizes), 0);
    }
}
