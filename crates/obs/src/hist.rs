//! Fixed-size log-bucketed histograms.
//!
//! Shrivastava et al.'s q-digest and every hierarchical-aggregation study
//! since motivate *distributions*, not just means: a per-node histogram of
//! message sizes separates the one 40-fragment initialization burst from
//! ten thousand 3-byte counters that average to the same number. The
//! histograms here are built for the simulator's hot path:
//!
//! * **fixed size** — [`LogHistogram`] is a `Copy` array of
//!   [`LogHistogram::BUCKETS`] counters; recording is two integer ops and
//!   an array increment, never an allocation;
//! * **log-bucketed** — bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 is
//!   exactly zero), so the 1-bit-to-gigabit range fits 32 buckets;
//! * **mergeable** — bucket-wise addition aggregates nodes into networks
//!   and runs into experiments without losing the shape.
//!
//! **Bucket-edge convention.** Bucket 0 holds *exactly* the value zero.
//! Bucket `i ≥ 1` holds the values whose highest set bit is `i - 1`, i.e.
//! the closed range `[2^(i-1), 2^i - 1]` — so boundaries land on powers
//! of two and a value `2^k` opens bucket `k + 1`, never closes bucket
//! `k`. The last bucket (index 31) is open-ended: it absorbs every value
//! `≥ 2^30`, all the way to `u64::MAX`, and reports `u64::MAX` as its
//! inclusive upper bound. Only the `sum` accumulator saturates instead of
//! wrapping, so even adversarial streams of `u64::MAX` samples can
//! bucket-index, record and merge without overflowing it; `count` and the
//! bucket counters are plain integer sums, and `count` is always exactly
//! the bucket total.

/// One log-bucketed histogram over `u64` samples.
///
/// Bucket 0 counts exact zeros; bucket `i ≥ 1` counts samples whose
/// highest set bit is `i - 1`, i.e. values in `[2^(i-1), 2^i - 1]`. The
/// last bucket absorbs everything too large.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; LogHistogram::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; LogHistogram::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Number of buckets. 32 buckets cover zero plus `[1, 2^31)` with the
    /// last bucket absorbing larger samples — sensor frames, hop depths,
    /// retries and fan-ins all fit with room to spare.
    pub const BUCKETS: usize = 32;

    /// The bucket a sample falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(LogHistogram::BUCKETS - 1)
        }
    }

    /// Inclusive `(lo, hi)` sample range of bucket `i` (the last bucket is
    /// open-ended and reports `u64::MAX`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i >= LogHistogram::BUCKETS - 1 => (1 << (LogHistogram::BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample. Never allocates; `sum` saturates at
    /// `u64::MAX` rather than wrapping (see the module header).
    pub fn record(&mut self, value: u64) {
        self.counts[LogHistogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Records the same sample `times` times. All four counters are plain
    /// integer accumulators (with the same saturating `sum` as
    /// [`record`](Self::record)), so this is exactly equivalent to calling
    /// [`record`](Self::record) `times` times — engines may coalesce runs
    /// of identical samples without changing any observable state.
    pub fn record_n(&mut self, value: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.counts[LogHistogram::bucket_of(value)] += times;
        self.count += times;
        self.sum = self.sum.saturating_add(value.saturating_mul(times));
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Upper bound (inclusive) of the bucket containing the `q`-quantile
    /// of the recorded samples, `q ∈ [0, 1]`. `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(LogHistogram::bucket_range(i).1);
            }
        }
        Some(LogHistogram::bucket_range(LogHistogram::BUCKETS - 1).1)
    }

    /// Bucket-wise accumulation of `other` into `self` (`sum` saturates,
    /// matching [`record`](Self::record)).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// The quantities the network engine histograms per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Bits of each transmitted data frame (fragments individually).
    MsgBits,
    /// Routing-tree depth of the transmitter at each wave transmission.
    HopDepth,
    /// ARQ data-frame retransmissions spent per link payload.
    Retries,
    /// Child payloads merged per convergecast transmission (subtree
    /// fan-in of the node's inbox).
    FanIn,
}

impl HistKind {
    /// Number of histogram kinds.
    pub const COUNT: usize = 4;

    /// Every kind, in display order.
    pub const ALL: [HistKind; HistKind::COUNT] = [
        HistKind::MsgBits,
        HistKind::HopDepth,
        HistKind::Retries,
        HistKind::FanIn,
    ];

    /// Dense index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            HistKind::MsgBits => 0,
            HistKind::HopDepth => 1,
            HistKind::Retries => 2,
            HistKind::FanIn => 3,
        }
    }

    /// Snake-case display name (doubles as the metric name stem).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::MsgBits => "msg_bits",
            HistKind::HopDepth => "hop_depth",
            HistKind::Retries => "retries",
            HistKind::FanIn => "fan_in",
        }
    }
}

/// One histogram per [`HistKind`] — the full telemetry of one node (or,
/// merged, of a whole network or experiment). `Copy`, so it can ride on
/// plain-old-data metrics structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSet {
    hists: [LogHistogram; HistKind::COUNT],
}

impl HistogramSet {
    /// Records a sample under `kind`.
    pub fn record(&mut self, kind: HistKind, value: u64) {
        self.hists[kind.index()].record(value);
    }

    /// Records the same sample `times` times under `kind` (see
    /// [`LogHistogram::record_n`] for the exactness argument).
    pub fn record_n(&mut self, kind: HistKind, value: u64, times: u64) {
        self.hists[kind.index()].record_n(value, times);
    }

    /// The histogram of one kind.
    pub fn get(&self, kind: HistKind) -> &LogHistogram {
        &self.hists[kind.index()]
    }

    /// Accumulates `other` into `self`, histogram by histogram.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// True iff no kind recorded anything.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(LogHistogram::is_empty)
    }
}

/// Inline `(kind, bucket)` counters per node. No node on any benchmark
/// workload touches more than 15 of its 128 buckets; a node that needs a
/// 17th counter spills, exactly, to a dense [`HistogramSet`].
const INLINE: usize = 16;

/// [`Block::spill`] of a node whose counters are all inline.
const INLINE_ONLY: u32 = u32::MAX;

/// One node's histograms in 216 bytes instead of a dense set's 1,120: each
/// kind's `sum` and `max`, and up to [`INLINE`] counters keyed
/// `kind × 32 + bucket`, in first-touch order. A kind's `count` is the sum
/// of its counters, as [`LogHistogram`] keeps `count` equal to its bucket
/// total.
#[derive(Debug, Clone, Copy)]
struct Block {
    sum: [u64; HistKind::COUNT],
    max: [u64; HistKind::COUNT],
    counts: [u64; INLINE],
    keys: [u8; INLINE],
    used: u8,
    /// Index of the node's dense set in [`NodeHistograms`]' spill vector,
    /// or [`INLINE_ONLY`].
    spill: u32,
}

impl Block {
    const EMPTY: Block = Block {
        sum: [0; HistKind::COUNT],
        max: [0; HistKind::COUNT],
        counts: [0; INLINE],
        keys: [0; INLINE],
        used: 0,
        spill: INLINE_ONLY,
    };

    /// Merges this node's histograms into `out`, exactly as
    /// [`HistogramSet::merge`] merges the node's dense set.
    fn merge_into(&self, spilled: &[HistogramSet], out: &mut HistogramSet) {
        if self.spill != INLINE_ONLY {
            return out.merge(&spilled[self.spill as usize]);
        }
        let used = self.used as usize;
        for (&key, &c) in self.keys[..used].iter().zip(&self.counts[..used]) {
            let h = &mut out.hists[key as usize / LogHistogram::BUCKETS];
            h.counts[key as usize % LogHistogram::BUCKETS] += c;
            h.count += c;
        }
        for (h, (&sum, &max)) in out.hists.iter_mut().zip(self.sum.iter().zip(&self.max)) {
            h.sum = h.sum.saturating_add(sum);
            h.max = h.max.max(max);
        }
    }
}

/// Per-node histogram sets, stored as one compact 216-byte block per node
/// and allocated once at network construction: recording finds or appends
/// one inline counter, and allocates only when a node spills. Readers see
/// dense [`HistogramSet`]s, materialized on demand.
#[derive(Debug, Clone, Default)]
pub struct NodeHistograms {
    blocks: Vec<Block>,
    /// Dense sets of the nodes that outgrew their block, in spill order.
    spilled: Vec<HistogramSet>,
}

impl PartialEq for NodeHistograms {
    /// Compares what readers see, node by node: the order of a block's
    /// counters is not state.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.node(i) == other.node(i))
    }
}

impl Eq for NodeHistograms {}

impl NodeHistograms {
    /// Allocates empty histograms for `n` nodes.
    pub fn new(n: usize) -> Self {
        NodeHistograms {
            blocks: vec![Block::EMPTY; n],
            spilled: Vec::new(),
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True iff no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Records a sample for `node` (silently ignores out-of-range ids, so
    /// callers need no bounds logic on repaired/shrunk trees).
    #[inline]
    pub fn record(&mut self, node: usize, kind: HistKind, value: u64) {
        self.record_n(node, kind, value, 1);
    }

    /// Records the same sample `times` times for `node` — the bulk form of
    /// [`record`](Self::record), equivalent to `times` individual calls.
    /// Lets engines buffer runs of identical samples in a small hot cache
    /// and flush them here without touching the per-node blocks per sample.
    #[inline]
    pub fn record_n(&mut self, node: usize, kind: HistKind, value: u64, times: u64) {
        let Some(block) = self.blocks.get_mut(node) else {
            return;
        };
        if times == 0 {
            return;
        }
        if block.spill != INLINE_ONLY {
            return self.spilled[block.spill as usize].record_n(kind, value, times);
        }
        let k = kind.index();
        let key = (k * LogHistogram::BUCKETS + LogHistogram::bucket_of(value)) as u8;
        let used = block.used as usize;
        if let Some(j) = block.keys[..used].iter().position(|&x| x == key) {
            block.counts[j] += times;
        } else if used < INLINE {
            block.keys[used] = key;
            block.counts[used] = times;
            block.used += 1;
        } else {
            let mut set = HistogramSet::default();
            block.merge_into(&self.spilled, &mut set);
            set.record_n(kind, value, times);
            block.spill = u32::try_from(self.spilled.len()).expect("fewer spills than u32 ids");
            self.spilled.push(set);
            return;
        }
        block.sum[k] = block.sum[k].saturating_add(value.saturating_mul(times));
        block.max[k] = block.max[k].max(value);
    }

    /// One node's histograms, materialized as a dense set.
    pub fn node(&self, node: usize) -> HistogramSet {
        let mut set = HistogramSet::default();
        self.blocks[node].merge_into(&self.spilled, &mut set);
        set
    }

    /// Rearranges the slots in place so that slot `new` afterwards holds
    /// what slot `map(new)` held before. `map` must be a permutation of
    /// `0..len` (checked in debug builds). This is how the network engine
    /// keeps its histograms in wave order (contiguous along the
    /// convergecast hot path) while still presenting node-id order at its
    /// API boundary — and re-keys them when a tree repair changes the wave
    /// order.
    ///
    /// Follows the permutation's cycles, moving each 216-byte block once
    /// and holding one block aside per cycle, instead of copying all of
    /// them. A spilled node's dense set stays put: its block carries the
    /// index.
    pub fn reindex(&mut self, map: impl Fn(usize) -> usize) {
        permute_in_place(&mut self.blocks, map);
    }

    /// Network-wide totals: every node's histograms merged.
    pub fn total(&self) -> HistogramSet {
        let mut out = HistogramSet::default();
        for block in &self.blocks {
            block.merge_into(&self.spilled, &mut out);
        }
        out
    }
}

/// Rearranges `items` in place so that item `new` afterwards holds what
/// item `map(new)` held before. `map` must be a permutation of
/// `0..items.len()` (checked in debug builds).
///
/// Follows the permutation's cycles, moving each item once and holding one
/// aside per cycle, instead of copying all of them.
pub fn permute_in_place<T: Copy>(items: &mut [T], map: impl Fn(usize) -> usize) {
    let n = items.len();
    debug_assert!(
        {
            let mut hit = vec![false; n];
            (0..n).all(|i| map(i) < n && !std::mem::replace(&mut hit[map(i)], true))
        },
        "map is not a permutation of 0..{n}"
    );
    let mut done = vec![false; n];
    for first in 0..n {
        if done[first] {
            continue;
        }
        let held = items[first];
        let mut at = first;
        loop {
            done[at] = true;
            let from = map(at);
            // In a permutation only the cycle's first item is done here.
            if done[from] {
                items[at] = held;
                break;
            }
            items[at] = items[from];
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(7), 3);
        assert_eq!(LogHistogram::bucket_of(8), 4);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), LogHistogram::BUCKETS - 1);
        for i in 0..LogHistogram::BUCKETS {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(LogHistogram::bucket_of(lo), i, "lo of bucket {i}");
            if i < LogHistogram::BUCKETS - 1 {
                assert_eq!(LogHistogram::bucket_of(hi), i, "hi of bucket {i}");
            }
        }
    }

    #[test]
    fn boundary_samples_pin_the_edge_buckets() {
        // Zero: its own bucket, closed on both sides.
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_range(0), (0, 0));
        // One: the first log bucket, [1, 1].
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_range(1), (1, 1));
        // u64::MAX: the open-ended top bucket — no panic, no wrap.
        let top = LogHistogram::BUCKETS - 1;
        assert_eq!(LogHistogram::bucket_of(u64::MAX), top);
        assert_eq!(LogHistogram::bucket_range(top), (1 << (top - 1), u64::MAX));
        let mut h = LogHistogram::default();
        for v in [0, 1, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(top), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.quantile_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn repeated_max_samples_saturate_without_panicking() {
        let mut h = LogHistogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX); // would overflow a wrapping sum in debug builds
        h.record(7);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX);
        let mut bulk = LogHistogram::default();
        bulk.record_n(u64::MAX, 3);
        assert_eq!(bulk.sum(), u64::MAX, "record_n saturates identically");
        assert_eq!(bulk.count(), 3);
        // Merging two saturated histograms still saturates.
        let mut a = h;
        a.merge(&bulk);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 6);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 3, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1012);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.bucket_count(10), 1);
        assert!((h.mean() - 202.4).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        for (value, times) in [(0u64, 3u64), (1, 1), (7, 5), (1000, 17), (1 << 40, 2)] {
            let mut bulk = LogHistogram::default();
            let mut single = LogHistogram::default();
            bulk.record_n(value, times);
            for _ in 0..times {
                single.record(value);
            }
            assert_eq!(bulk, single, "value={value} times={times}");
        }
        let mut h = LogHistogram::default();
        h.record_n(42, 0);
        assert_eq!(h, LogHistogram::default());
        let mut nh = NodeHistograms::new(2);
        nh.record_n(1, HistKind::FanIn, 3, 4);
        nh.record_n(99, HistKind::FanIn, 3, 4); // silently dropped
        assert_eq!(nh.node(1).get(HistKind::FanIn).count(), 4);
        assert_eq!(nh.node(1).get(HistKind::FanIn).sum(), 12);
        assert!(nh.node(0).is_empty());
    }

    #[test]
    fn quantile_bound_walks_cumulative_counts() {
        let mut h = LogHistogram::default();
        assert_eq!(h.quantile_bound(0.5), None);
        for _ in 0..90 {
            h.record(5); // bucket 3, hi = 7
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, hi = 1023
        }
        assert_eq!(h.quantile_bound(0.5), Some(7));
        assert_eq!(h.quantile_bound(0.9), Some(7));
        assert_eq!(h.quantile_bound(0.95), Some(1023));
        assert_eq!(h.quantile_bound(1.0), Some(1023));
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(3);
        b.record(3);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_count(2), 2);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 106);
    }

    #[test]
    fn node_histograms_ignore_out_of_range_and_total() {
        let mut nh = NodeHistograms::new(3);
        nh.record(0, HistKind::MsgBits, 128);
        nh.record(2, HistKind::MsgBits, 256);
        nh.record(99, HistKind::MsgBits, 512); // silently dropped
        let total = nh.total();
        assert_eq!(total.get(HistKind::MsgBits).count(), 2);
        assert_eq!(total.get(HistKind::MsgBits).sum(), 384);
        assert_eq!(nh.node(1).get(HistKind::MsgBits).count(), 0);
        assert!(nh.node(1).is_empty());
    }

    #[test]
    fn reindex_permutes_slots() {
        let mut nh = NodeHistograms::new(3);
        nh.record(0, HistKind::MsgBits, 1);
        nh.record(1, HistKind::MsgBits, 2);
        nh.record(2, HistKind::MsgBits, 4);
        // Rotate: new slot i takes old slot (i + 1) % 3.
        nh.reindex(|i| (i + 1) % 3);
        assert_eq!(nh.node(0).get(HistKind::MsgBits).sum(), 2);
        assert_eq!(nh.node(1).get(HistKind::MsgBits).sum(), 4);
        assert_eq!(nh.node(2).get(HistKind::MsgBits).sum(), 1);
        assert_eq!(nh.total().get(HistKind::MsgBits).count(), 3);
    }

    #[test]
    fn reindex_follows_every_cycle_of_a_permutation() {
        // Cycles of length 1, 2 and 4: (0)(1 2)(3 4 5 6).
        let map = [0usize, 2, 1, 4, 5, 6, 3];
        let mut nh = NodeHistograms::new(map.len());
        for i in 0..map.len() {
            nh.record(i, HistKind::FanIn, i as u64);
        }
        nh.reindex(|i| map[i]);
        for (new, &old) in map.iter().enumerate() {
            assert_eq!(nh.node(new).get(HistKind::FanIn).sum(), old as u64);
            assert_eq!(nh.node(new).get(HistKind::FanIn).count(), 1);
        }
        NodeHistograms::new(0).reindex(|i| i);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a permutation")]
    fn reindex_rejects_a_non_permutation_in_debug_builds() {
        NodeHistograms::new(3).reindex(|_| 1);
    }

    #[test]
    fn a_seventeenth_counter_spills_the_node_to_a_dense_set() {
        assert_eq!(std::mem::size_of::<Block>(), 216);
        let mut nh = NodeHistograms::new(2);
        for bucket in 0..INLINE {
            let kind = HistKind::ALL[bucket % HistKind::COUNT];
            nh.record(1, kind, LogHistogram::bucket_range(bucket).0);
        }
        nh.record_n(1, HistKind::MsgBits, 0, 3); // an existing key
        assert_eq!((nh.blocks[1].used as usize, nh.spilled.len()), (INLINE, 0));
        nh.record(1, HistKind::MsgBits, 1 << 40);
        assert_eq!((nh.blocks[1].spill, nh.spilled.len()), (0, 1));
        nh.reindex(|i| 1 - i);
        assert_eq!((nh.blocks[0].spill, nh.blocks[1].spill), (0, INLINE_ONLY));
        nh.record(0, HistKind::MsgBits, 2);
        let bits = *nh.node(0).get(HistKind::MsgBits);
        assert_eq!((bits.count(), bits.max()), (9, 1 << 40));
        assert_eq!(bits.bucket_count(0), 4);
        assert!(nh.node(1).is_empty());
    }

    #[test]
    fn kind_indices_are_dense_and_named() {
        for (i, k) in HistKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
