//! Q-digest — the mergeable, compression-bounded quantile sketch of
//! Shrivastava et al. ("Medians and Beyond", SenSys 2004), built bottom-up
//! along the convergecast tree.
//!
//! The sketch is a sparse complete binary tree over the integer universe
//! `[range_min, range_max]` padded to a power of two `σ`: heap-indexed
//! nodes (root = 1, leaves `σ .. 2σ−1`) each carry a count of values known
//! to lie somewhere in the node's leaf range. Compression pushes
//! low-weight sibling pairs into their parent whenever the triple
//! `count(v) + count(sibling) + count(parent)` stays below the threshold
//! `⌊n/k⌋`, trading value resolution for size: after compression at most
//! `3k` entries survive, regardless of `n`.
//!
//! Two properties make the sketch safe to aggregate in-network:
//!
//! * **weight bound** — every *internal* entry's count stays `≤ ⌊n/k⌋`,
//!   where `n` is the digest's own total. Merging preserves it because
//!   `⌊n_a/k⌋ + ⌊n_b/k⌋ ≤ ⌊(n_a+n_b)/k⌋` (floor subadditivity), so the
//!   bound holds under *any* merge order — exactly what a convergecast
//!   tree with arbitrary shape needs.
//! * **rank error** — a φ-quantile answered from the digest is off by at
//!   most `depth · ⌊n/k⌋` ranks (the counts parked at ancestors of the
//!   reported value are the only ambiguity). Choosing
//!   `k = ⌈depth·1000/ε_milli⌉` certifies an `⌊ε·n⌋` error bound.
//!
//! [`QDigestQuantile`] wraps the sketch as a [`ContinuousQuantile`]: every
//! round is one convergecast of per-sensor singleton digests, merged and
//! re-compressed at each hop inside the wave sweep, answered at the sink.

use wsn_net::{Aggregate, MessageSizes, Network, NodeId, WaveStore};

use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::Value;

/// A q-digest sketch over a power-of-two integer universe.
///
/// Entries are kept sorted by heap node id. The digest is a deterministic
/// function of its merge sequence — merging the same values in another
/// order or tree shape can compress differently, within the same error
/// bound — and the convergecast fixes that sequence, so every run
/// reproduces its digests bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDigest {
    /// Smallest representable value (universe offset).
    range_min: Value,
    /// Largest *declared* value; answers are clamped to it (the power-of-
    /// two padding can make the tree span values beyond the query range).
    range_max: Value,
    /// Universe size: smallest power of two `≥ range_max − range_min + 1`.
    sigma: u64,
    /// Compression parameter `k`: threshold is `⌊n/k⌋`.
    k: u64,
    /// `(heap node id, count)`, sorted by node id, counts non-zero.
    entries: Vec<(u64, u64)>,
    /// Total number of summarized values `n`.
    count: u64,
}

/// Smallest power of two `≥ x` (for `x ≥ 1`).
fn next_pow2(x: u64) -> u64 {
    x.max(1).next_power_of_two()
}

impl QDigest {
    /// An empty digest for values in `[range_min, range_max]` with
    /// compression parameter `k ≥ 1`.
    pub fn new(range_min: Value, range_max: Value, k: u64) -> Self {
        assert!(range_min <= range_max, "empty value range");
        QDigest {
            range_min,
            range_max,
            sigma: next_pow2((range_max - range_min + 1) as u64),
            k: k.max(1),
            entries: Vec::new(),
            count: 0,
        }
    }

    /// A digest holding a single value (a sensor's per-round
    /// contribution). Values outside the declared range are clamped —
    /// the continuous-query contract already promises measurements in
    /// `[range_min, range_max]`.
    pub fn singleton(range_min: Value, range_max: Value, k: u64, v: Value) -> Self {
        let mut d = QDigest::new(range_min, range_max, k);
        d.set_singleton(range_min, range_max, k, v);
        d
    }

    /// Overwrites the digest with [`QDigest::singleton`]`(range_min,
    /// range_max, k, v)`, keeping the entry storage (a contribution written
    /// into a reused wave slot).
    pub(crate) fn set_singleton(&mut self, range_min: Value, range_max: Value, k: u64, v: Value) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        *self = QDigest {
            entries,
            ..QDigest::new(range_min, range_max, k)
        };
        let off = (v.clamp(range_min, range_max) - range_min) as u64;
        self.entries.push((self.sigma + off, 1));
        self.count = 1;
    }

    /// Tree depth: `log2(σ)` (0 for a single-value universe).
    pub fn depth(&self) -> u32 {
        self.sigma.trailing_zeros()
    }

    /// Total number of summarized values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of live `(node, count)` entries — what goes on the wire.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no values have been summarized.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The live `(heap node id, count)` entries, sorted by node id — the
    /// exact content the wire codec serializes.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Rebuilds a digest from decoded wire entries. The total count is
    /// re-derived as the entry-count sum (compression moves counts, never
    /// drops them). Returns `None` if entries are unsorted, zero-count, or
    /// name nodes outside the universe tree.
    pub fn from_entries(
        range_min: Value,
        range_max: Value,
        k: u64,
        entries: Vec<(u64, u64)>,
    ) -> Option<Self> {
        let mut d = QDigest::new(range_min, range_max, k);
        let mut count = 0u64;
        for (i, &(id, c)) in entries.iter().enumerate() {
            if c == 0 || id < 1 || id >= 2 * d.sigma {
                return None;
            }
            if i > 0 && entries[i - 1].0 >= id {
                return None;
            }
            count += c;
        }
        d.entries = entries;
        d.count = count;
        Some(d)
    }

    /// The compression threshold `⌊n/k⌋` at the current count.
    pub fn threshold(&self) -> u64 {
        self.count / self.k
    }

    /// Merges `other` (same universe and `k`) into `self` by node-wise
    /// count addition, then re-compresses. The weight bound survives:
    /// each side's internal entries are `≤ ⌊n_side/k⌋`, and floor
    /// subadditivity makes their sum `≤ ⌊(n_a+n_b)/k⌋`.
    pub fn merge_digest(&mut self, other: &QDigest) {
        debug_assert_eq!(self.sigma, other.sigma, "universe mismatch");
        debug_assert_eq!(self.range_min, other.range_min, "universe mismatch");
        debug_assert_eq!(self.k, other.k, "compression mismatch");
        if other.count == 0 {
            return;
        }
        if let [(id, c)] = other.entries[..] {
            // A sensor's singleton: the common merge on every hop.
            match self.entries.binary_search_by_key(&id, |&(p, _)| p) {
                Ok(idx) => self.entries[idx].1 += c,
                Err(idx) => self.entries.insert(idx, (id, c)),
            }
        } else {
            self.add_entries(&other.entries);
        }
        self.count += other.count;
        self.compress();
    }

    /// Node-wise addition of the sorted entries `b`, in place: the vector
    /// grows by `b.len()` and fills from the back, so the write cursor
    /// never drops below the unread prefix of the old entries. Ids both
    /// sides hold leave a gap, closed by one `copy_within`.
    fn add_entries(&mut self, b: &[(u64, u64)]) {
        let (mut i, mut j) = (self.entries.len(), b.len());
        let mut w = i + j;
        let e = &mut self.entries;
        e.resize(w, (0, 0));
        while j > 0 {
            let (ib, cb) = b[j - 1];
            w -= 1;
            e[w] = match i.checked_sub(1).map(|a| e[a]) {
                Some((ia, ca)) if ia > ib => {
                    i -= 1;
                    (ia, ca)
                }
                Some((ia, ca)) if ia == ib => {
                    i -= 1;
                    j -= 1;
                    (ia, ca + cb)
                }
                _ => {
                    j -= 1;
                    (ib, cb)
                }
            };
        }
        // `e[..i]` never moved; the merged tail starts at `w`.
        let len = e.len();
        e.copy_within(w..len, i);
        e.truncate(len - (w - i));
    }

    /// One bottom-up compression pass: for every sibling pair (deepest
    /// level first) whose triple sum with the parent stays below the
    /// threshold, the children's counts move into the parent. Bounds the
    /// digest to `O(k)` entries without ever *losing* a count — only its
    /// value resolution.
    ///
    /// The parent's count in the test is the one it had before its own
    /// children's promotion, and the root never compresses. The pass
    /// reads the entries backwards — deepest level first, a sibling pair
    /// odd id first — and writes survivors from the back of the same
    /// vector: every survivor or queued promotion is backed by at least
    /// one consumed entry, so the write cursor never overtakes the read
    /// cursor. `O(n)` time; promotions queue in the vector's spare
    /// capacity past the entries, so a digest whose storage is reused
    /// compresses without allocating.
    pub fn compress(&mut self) {
        let threshold = self.threshold();
        // Every count is ≥ 1, so no triple sums below a threshold of 1.
        if threshold <= 1 {
            return;
        }
        let e = &mut self.entries;
        let len = e.len();
        let mut input = Backward {
            read: len,
            head: len,
        };
        // Survivors go to `e[write..]`, ascending by id; parents are found
        // in the unread prefix by the cursor `up`. Both only move down.
        let (mut write, mut up) = (len, len);
        while let Some((id, c)) = input.pop(e) {
            if id == 1 {
                write -= 1;
                e[write] = (id, c);
                continue;
            }
            let sibling = if id & 1 == 1 && input.peek(e) == Some(id - 1) {
                input.pop(e)
            } else {
                None
            };
            let moved = c + sibling.map_or(0, |(_, s)| s);
            let parent = id >> 1;
            up = up.min(input.read);
            while up > 0 && e[up - 1].0 > parent {
                up -= 1;
            }
            let present = up > 0 && e[up - 1].0 == parent;
            let parent_c = if present { e[up - 1].1 } else { 0 };
            if moved + parent_c < threshold {
                // Each parent is looked up once, by its only pair of
                // children, so adding in place leaves every test as it was.
                if present {
                    e[up - 1].1 += moved;
                } else {
                    e.push((parent, moved));
                }
            } else {
                write -= 1;
                e[write] = (id, c);
                if let Some(s) = sibling {
                    write -= 1;
                    e[write] = s;
                }
            }
        }
        // Survivors move to the front; truncating drops the queue too.
        e.copy_within(write..len, 0);
        e.truncate(len - write);
    }

    /// Leaf range `[lo, hi]` of heap node `id`, as 0-based value offsets
    /// from `range_min` (heap leaf ids shifted down by `σ`).
    fn leaf_span(&self, id: u64) -> (u64, u64) {
        let level = 63 - id.leading_zeros();
        let shift = self.depth() - level;
        let lo = (id << shift) - self.sigma;
        let hi = lo + (1u64 << shift) - 1;
        (lo, hi)
    }

    /// Answers the `k_rank`-th smallest value (1-based, clamped to
    /// `[1, n]`): scan entries in q-digest order (increasing max-leaf,
    /// deeper node first on ties) accumulating counts until `≥ k_rank`,
    /// and report that node's largest representable value. `None` on an
    /// empty digest.
    ///
    /// The reported value's true rank is within `depth·⌊n/k⌋` of
    /// `k_rank`: everything scanned before it is certainly `≤` it, and
    /// only counts parked at its ancestors (each `≤ ⌊n/k⌋` by the weight
    /// bound) are ambiguous.
    pub fn query(&self, k_rank: u64) -> Option<Value> {
        if self.count == 0 {
            return None;
        }
        let k_rank = k_rank.clamp(1, self.count);
        let mut order: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .map(|&(id, c)| {
                let (lo, hi) = self.leaf_span(id);
                (hi, lo, c)
            })
            .collect();
        // Increasing hi; ties broken deeper-first (larger lo), so a node
        // precedes its ancestors — the postorder the error bound needs.
        order.sort_unstable_by(|a, b| {
            (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1)))
        });
        let mut cum = 0u64;
        for (hi, _, c) in order {
            cum += c;
            if cum >= k_rank {
                // Clamping to range_max is sound: no value lives beyond
                // it, so the scanned counts stay ≤ the clamped answer.
                return Some((self.range_min + hi as Value).min(self.range_max));
            }
        }
        // Counts always sum to `count ≥ k_rank`; unreachable in practice.
        None
    }

    /// Asserts the structural invariants (test/debug aid): entries sorted
    /// and unique, counts positive and summing to `n`, and every internal
    /// entry `≤ ⌊n/k⌋`.
    pub fn assert_invariants(&self) {
        let threshold = self.threshold();
        let mut sum = 0u64;
        for w in self.entries.windows(2) {
            assert!(w[0].0 < w[1].0, "entries unsorted: {w:?}");
        }
        for &(id, c) in &self.entries {
            assert!(c > 0, "zero-count entry at node {id}");
            assert!(id >= 1 && id < 2 * self.sigma, "node {id} out of tree");
            if id < self.sigma {
                assert!(
                    c <= threshold,
                    "internal node {id} weight {c} exceeds ⌊n/k⌋ = {threshold}"
                );
            }
            sum += c;
        }
        assert_eq!(sum, self.count, "counts do not sum to n");
    }
}

/// The compression pass's input in descending id order: the unread
/// prefix `entries[..read]` merged with the promotions queued for absent
/// parents, which are descending too, appended past the pass's entries
/// and consumed from `head`. The two never share an id: a promotion into a
/// present parent is added to it.
struct Backward {
    read: usize,
    head: usize,
}

impl Backward {
    /// The id [`Backward::pop`] would return next.
    fn peek(&self, e: &[(u64, u64)]) -> Option<u64> {
        let unread = self.read.checked_sub(1).map(|r| e[r].0);
        unread.max(e.get(self.head).map(|q| q.0))
    }

    /// Consumes the entry with the larger id.
    fn pop(&mut self, e: &[(u64, u64)]) -> Option<(u64, u64)> {
        let queued = e.get(self.head).copied();
        match self.read.checked_sub(1).map(|r| e[r]) {
            Some(x) if queued.is_none_or(|q| q.0 < x.0) => {
                self.read -= 1;
                Some(x)
            }
            _ => {
                self.head += queued.is_some() as usize;
                queued
            }
        }
    }
}

impl Aggregate for QDigest {
    fn merge(&mut self, other: Self) {
        self.merge_digest(&other);
    }
    fn merge_from(&mut self, other: &mut Option<Self>) {
        if let Some(other) = other {
            self.merge_digest(other);
        }
    }
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>) {
        match (slot, other) {
            (Some(to), Some(from)) => {
                to.entries.clone_from(&from.entries);
                *to = QDigest {
                    entries: std::mem::take(&mut to.entries),
                    ..*from
                };
            }
            (to, from) => *to = from.clone(),
        }
    }
    /// Wire size: the total count plus one sketch entry (node id +
    /// count) per live node — see [`MessageSizes::sketch_entry_bits`].
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits + self.entries.len() as u64 * sizes.sketch_entry_bits()
    }
    fn value_count(&self) -> usize {
        self.entries.len()
    }
}

/// The q-digest protocol: one sketch convergecast per round, answered at
/// the sink with a certified `⌊ε·n⌋` rank-error bound.
#[derive(Debug, Clone)]
pub struct QDigestQuantile {
    query: QueryConfig,
    /// Error budget, in thousandths (`ε = eps_milli / 1000`).
    eps_milli: u32,
    /// Compression parameter `k = ⌈depth·1000/eps_milli⌉`.
    k_comp: u64,
    /// `log2(σ)` for the query universe.
    depth: u32,
    last: Option<Value>,
    /// Digest storage, reused every round.
    digests: WaveStore<QDigest>,
}

impl QDigestQuantile {
    /// Creates a q-digest query with error budget `ε = eps_milli/1000`
    /// (clamped to `[1, 1000]`).
    pub fn new(query: QueryConfig, eps_milli: u32) -> Self {
        let eps_milli = eps_milli.clamp(1, 1000);
        let depth = next_pow2(query.range_size()).trailing_zeros();
        // k ≥ depth/ε ⇒ per-level slack ⌊n/k⌋ ≤ ε·n/depth ⇒ total rank
        // error ≤ depth·⌊n/k⌋ ≤ ⌊ε·n⌋.
        let k_comp = ((depth as u64) * 1000).div_ceil(eps_milli as u64).max(1);
        QDigestQuantile {
            query,
            eps_milli,
            k_comp,
            depth,
            last: None,
            digests: WaveStore::new(),
        }
    }

    /// The compression parameter in use.
    pub fn compression(&self) -> u64 {
        self.k_comp
    }

    /// The configured error budget in thousandths.
    pub fn eps_milli(&self) -> u32 {
        self.eps_milli
    }
}

impl ContinuousQuantile for QDigestQuantile {
    fn name(&self) -> &'static str {
        "QD"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        // Every round is a fresh snapshot sweep, like TAG — charged as
        // the init phase (no validation/refinement split exists here).
        net.set_phase(wsn_net::Phase::Init);
        let (range_min, range_max, k_comp) =
            (self.query.range_min, self.query.range_max, self.k_comp);
        let own = |id: NodeId, slot: &mut Option<QDigest>| {
            let v = crate::protocol::measurement(values, id);
            slot.get_or_insert_with(|| QDigest::new(range_min, range_max, k_comp))
                .set_singleton(range_min, range_max, k_comp, v);
            true
        };
        // Merge already re-compresses; nothing extra per hop.
        let digest = net.convergecast_in(&mut self.digests, own, |_, _| {});
        let q = digest
            .and_then(|d| d.query(self.query.k))
            .unwrap_or(self.last.unwrap_or(range_min));
        self.last = Some(q);
        q
    }

    /// Certified bound: `depth · ⌊n/k⌋ ≤ ⌊ε·n⌋`. For small `n < k` the
    /// threshold is 0, no compression happens, and the sketch is exact.
    fn rank_tolerance(&self, n: u64) -> u64 {
        (self.depth as u64) * (n / self.k_comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    /// True rank error of answer `v` against the full multiset.
    fn rank_error(values: &[Value], v: Value, k: u64) -> u64 {
        let l = values.iter().filter(|&&x| x < v).count() as u64;
        let le = values.iter().filter(|&&x| x <= v).count() as u64;
        if l < k && k <= le {
            0
        } else if k <= l {
            l + 1 - k
        } else {
            k - le
        }
    }

    fn pseudo_values(n: usize, salt: u64, range: u64) -> Vec<Value> {
        (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_add(salt).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                ((z >> 33) % range) as Value
            })
            .collect()
    }

    #[test]
    fn weight_bound_holds_under_insert_and_merge() {
        for k in [2u64, 5, 20] {
            let values = pseudo_values(500, 1, 1 << 12);
            let mut d = QDigest::new(0, (1 << 12) - 1, k);
            for &v in &values {
                d.merge_digest(&QDigest::singleton(0, (1 << 12) - 1, k, v));
                d.assert_invariants();
            }
            assert_eq!(d.count(), 500);
            // Post-compression size is O(k), independent of n.
            assert!(
                d.len() as u64 <= 3 * k + d.depth() as u64,
                "k={k}: {} entries",
                d.len()
            );
        }
    }

    #[test]
    fn merge_is_build_order_independent_in_error() {
        // Mergeability: whatever tree shape builds the digest, the answer
        // stays within the certified bound (exact equality of the digests
        // is NOT promised — only the bound).
        let n = 400;
        let values = pseudo_values(n, 7, 1 << 10);
        let k_comp = 40u64;
        let build = |chunk: usize| {
            let mut acc = QDigest::new(0, 1023, k_comp);
            for group in values.chunks(chunk) {
                let mut sub = QDigest::new(0, 1023, k_comp);
                for &v in group {
                    sub.merge_digest(&QDigest::singleton(0, 1023, k_comp, v));
                }
                acc.merge_digest(&sub);
            }
            acc.assert_invariants();
            acc
        };
        let bound = 10 * (n as u64 / k_comp); // depth 10 universe
        for chunk in [1usize, 3, 50, 400] {
            let d = build(chunk);
            for k in [1u64, 100, 200, 399] {
                let ans = d.query(k).unwrap();
                assert!(
                    rank_error(&values, ans, k) <= bound,
                    "chunk={chunk} k={k}: answer {ans}"
                );
            }
        }
    }

    #[test]
    fn uncompressed_digest_is_exact() {
        // n < k ⇒ threshold 0 ⇒ no compression ⇒ exact answers.
        let values = pseudo_values(30, 3, 1 << 9);
        let mut d = QDigest::new(0, 511, 1000);
        for &v in &values {
            d.merge_digest(&QDigest::singleton(0, 511, 1000, v));
        }
        for k in 1..=30u64 {
            assert_eq!(d.query(k), Some(rank::kth_smallest(&values, k)), "k={k}");
        }
    }

    #[test]
    fn empty_and_degenerate_universes() {
        let d = QDigest::new(5, 5, 4);
        assert!(d.is_empty());
        assert_eq!(d.query(1), None);
        assert_eq!(d.depth(), 0);
        let s = QDigest::singleton(5, 5, 4, 5);
        assert_eq!(s.query(1), Some(5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn protocol_meets_its_advertised_tolerance() {
        let n = 120;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 4095);
        for eps_milli in [50u32, 100, 250] {
            let mut alg = QDigestQuantile::new(query, eps_milli);
            let tol = alg.rank_tolerance(n as u64);
            assert!(tol <= (eps_milli as u64 * n as u64) / 1000);
            for t in 0..6u64 {
                let values = pseudo_values(n, t * 13 + 1, 4096);
                let ans = alg.round(&mut net, &values);
                assert!(
                    rank_error(&values, ans, query.k) <= tol,
                    "eps={eps_milli} t={t}: answer {ans}, tol {tol}"
                );
            }
        }
    }

    fn grid_net(n_sensors: usize) -> Network {
        let cols = (n_sensors as f64).sqrt().ceil() as usize + 1;
        let positions: Vec<Point> = (0..=n_sensors)
            .map(|i| Point::new((i % cols) as f64 * 9.0, (i / cols) as f64 * 9.0))
            .collect();
        let topo = Topology::build(positions, 13.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn sketch_hotspot_beats_value_forwarding_at_scale() {
        // The headline: the funnel link carries O(k) sketch entries
        // (independent of n), not TAG's k = n/2 raw values. The win
        // appears once n/2 values outweigh the ~3k-entry sketch.
        let n = 600;
        let query = QueryConfig::median(n, 0, 1023);
        let values = pseudo_values(n, 5, 1024);
        let mut net_q = grid_net(n);
        let mut qd = QDigestQuantile::new(query, 250);
        qd.round(&mut net_q, &values);
        let mut net_t = grid_net(n);
        let mut tag = crate::Tag::new(query);
        tag.round(&mut net_t, &values);
        let (qd_hot, tag_hot) = (
            net_q.ledger().max_sensor_consumption(),
            net_t.ledger().max_sensor_consumption(),
        );
        assert!(
            qd_hot < tag_hot,
            "sketch hotspot {qd_hot} vs TAG hotspot {tag_hot}"
        );
    }

    #[test]
    fn payload_bits_charge_every_entry() {
        let sizes = MessageSizes::default();
        let mut d = QDigest::new(0, 1023, 4);
        d.merge_digest(&QDigest::singleton(0, 1023, 4, 17));
        d.merge_digest(&QDigest::singleton(0, 1023, 4, 900));
        assert_eq!(
            d.payload_bits(&sizes),
            sizes.counter_bits + 2 * sizes.sketch_entry_bits()
        );
        assert_eq!(d.value_count(), 2);
    }
}
