//! Reference equivalence of the compact per-node histogram store.
//!
//! [`NodeHistograms`] below is the earlier store: one dense
//! [`HistogramSet`] (1,120 bytes) per node. The `hist per_node fnv` parity
//! digest and every reader of [`crate::hist::NodeHistograms`] were written
//! against its sets, so the compact store must present exactly the same
//! set for every node, the same totals and the same length, over random
//! call sequences that mix single and bulk samples at the bucket edges,
//! zero-times runs, out-of-range nodes, permutations and spills.

use crate::hist::{self as compact, HistKind, HistogramSet, LogHistogram};

/// The dense store: one [`HistogramSet`] per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeHistograms {
    nodes: Vec<HistogramSet>,
}

impl NodeHistograms {
    pub fn new(n: usize) -> Self {
        NodeHistograms {
            nodes: vec![HistogramSet::default(); n],
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn record(&mut self, node: usize, kind: HistKind, value: u64) {
        if let Some(set) = self.nodes.get_mut(node) {
            set.record(kind, value);
        }
    }

    pub fn record_n(&mut self, node: usize, kind: HistKind, value: u64, times: u64) {
        if let Some(set) = self.nodes.get_mut(node) {
            set.record_n(kind, value, times);
        }
    }

    pub fn node(&self, node: usize) -> &HistogramSet {
        &self.nodes[node]
    }

    /// Slot `new` afterwards holds what slot `map(new)` held before.
    pub fn reindex(&mut self, map: impl Fn(usize) -> usize) {
        self.nodes = (0..self.nodes.len()).map(|i| self.nodes[map(i)]).collect();
    }

    pub fn total(&self) -> HistogramSet {
        let mut out = HistogramSet::default();
        for set in &self.nodes {
            out.merge(set);
        }
        out
    }
}

/// A splitmix64 stream (the crate has no dependencies to borrow one from).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A sample at a bucket edge: 0, 1, `2^k − 1`, `2^k` or `u64::MAX`.
    fn value(&mut self) -> u64 {
        let k = self.below(64) as u32;
        match self.below(5) {
            0 => 0,
            1 => 1,
            2 => (1u64 << k) - 1,
            3 => 1u64 << k,
            _ => u64::MAX,
        }
    }

    /// A run length in `0..=2^20`: often 0 or 1, else a power of two or
    /// anything up to the cap.
    fn times(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(2),
            1 => 1 << self.below(21),
            _ => self.below((1 << 20) + 1),
        }
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// One sample for the stores: `(node, kind, value, times)`, where `None`
/// means a single [`record`](compact::NodeHistograms::record).
type Sample = (usize, HistKind, u64, Option<u64>);

/// A compact store and its dense reference, fed the same calls.
struct Pair {
    compact: compact::NodeHistograms,
    dense: NodeHistograms,
}

impl Pair {
    fn new(n: usize) -> Pair {
        Pair {
            compact: compact::NodeHistograms::new(n),
            dense: NodeHistograms::new(n),
        }
    }

    fn apply(&mut self, (node, kind, value, times): Sample) {
        match times {
            None => {
                self.compact.record(node, kind, value);
                self.dense.record(node, kind, value);
            }
            Some(t) => {
                self.compact.record_n(node, kind, value, t);
                self.dense.record_n(node, kind, value, t);
            }
        }
    }

    fn reindex(&mut self, map: &[usize]) {
        self.compact.reindex(|i| map[i]);
        self.dense.reindex(|i| map[i]);
    }

    /// Every reader agrees with the reference.
    fn check(&self, at: &str) {
        assert_eq!(self.compact.len(), self.dense.len(), "{at}: len");
        for i in 0..self.dense.len() {
            assert_eq!(&self.compact.node(i), self.dense.node(i), "{at}: node {i}");
        }
        assert_eq!(self.compact.total(), self.dense.total(), "{at}: total");
    }
}

fn sample(rng: &mut Rng, n: usize) -> Sample {
    let node = rng.below(n as u64 + 2) as usize;
    let kind = HistKind::ALL[rng.below(HistKind::COUNT as u64) as usize];
    let times = (rng.below(2) == 0).then(|| rng.times());
    (node, kind, rng.value(), times)
}

#[test]
fn the_compact_store_matches_the_dense_reference_on_random_call_sequences() {
    let mut rng = Rng(0x4157);
    for case in 0..300 {
        let n = rng.below(7) as usize;
        // `a` takes each sample as it is drawn; `b` takes the same samples
        // shuffled, each batch before the next permutation, so the two
        // stores are equal exactly at batch ends.
        let (mut a, mut b) = (Pair::new(n), Pair::new(n));
        let mut batch: Vec<Sample> = Vec::new();
        let steps = rng.below(400);
        for step in 0..=steps {
            let at = format!("case {case} step {step}");
            if step == steps || rng.below(25) == 0 {
                let order = rng.permutation(batch.len());
                for &j in &order {
                    b.apply(batch[j]);
                }
                batch.clear();
                b.check(&at);
                assert!(a.compact == b.compact, "{at}: same samples, other order");
                let map = rng.permutation(n);
                a.reindex(&map);
                b.reindex(&map);
            } else {
                let s = sample(&mut rng, n);
                a.apply(s);
                batch.push(s);
            }
            a.check(&at);
            assert_eq!(
                a.compact == b.compact,
                a.dense == b.dense,
                "{at}: == disagrees with the reference"
            );
        }
    }
}

#[test]
fn a_node_through_all_128_keys_spills_and_reindexes_exactly() {
    let mut pair = Pair::new(3);
    let mut rng = Rng(128);
    for kind in HistKind::ALL {
        for bucket in 0..LogHistogram::BUCKETS {
            let (lo, hi) = LogHistogram::bucket_range(bucket);
            pair.apply((1, kind, hi, Some(1 + rng.below(1 << 20))));
            pair.apply((1, kind, lo, None));
            pair.apply((rng.below(3) as usize, kind, lo, None));
            pair.check(&format!("{} bucket {bucket}", kind.name()));
        }
    }
    let mut full = 1;
    for map in [[1, 2, 0], [0, 2, 1], [2, 1, 0]] {
        pair.reindex(&map);
        pair.check(&format!("after {map:?}"));
        full = map.iter().position(|&m| m == full).unwrap();
        pair.apply((full, HistKind::Retries, 3, None));
        pair.check(&format!("recorded after {map:?}"));
    }
}
