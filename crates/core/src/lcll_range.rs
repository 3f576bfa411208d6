//! LCLL-R — the *range-anchored* reconstruction of Liu et al.'s
//! hierarchical refining \[16\].
//!
//! [`crate::lcll`] reconstructs LCLL's refinement as a search relative to
//! the last quantile (displacement-driven). This module implements the
//! other faithful reading of \[16\]: a **static two-level bucket hierarchy
//! anchored to the value range**.
//!
//! * Level 0: `b` equal buckets over the whole universe `[r_min, r_max]`
//!   (with the default 128-byte payload, `b = 64`).
//! * Level 1: the *focus bucket* — the top-level bucket currently holding
//!   the quantile — is kept subdivided (unit buckets whenever the top
//!   bucket is at most `b` wide, which holds for every workload in the
//!   paper).
//!
//! Validation: a node whose measurement moved between cells of this
//! partition (top-level buckets, or unit cells inside the focus bucket)
//! transmits two signed deltas (§5.1.6's improved validation). The root
//! therefore always knows the exact histogram, and as long as the quantile
//! stays inside the focus bucket it answers **without any refinement**.
//! When the quantile escapes to another top-level bucket, one *refocus*
//! round-trip (zoom-out/zoom-in) rebuilds the sub-histogram there.
//!
//! Compared to the displacement-driven variants this trades much heavier
//! validation (every bucket crossing reports, and inside the focus bucket
//! *every* value change reports) for near-zero refinement — and, crucially,
//! it reacts to value-range re-scaling: wider ranges mean wider top
//! buckets, fewer escapes, fewer refinements (§5.2.5's pessimistic-setting
//! behaviour of LCLL-H).

use wsn_net::{Network, NodeId, WaveStore};

use crate::buckets::{bucket_holding, BucketPartition};
use crate::descent::{descend, histogram_request, DescentConfig, DescentStore};
use crate::filter::Sensors;
use crate::init::{run_init, InitStrategy};
use crate::lcll::apply_delta;
use crate::payloads::DeltaHistogram;
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::retrieval::RankAnchor;
use crate::Value;

/// The range-anchored LCLL variant.
#[derive(Debug, Clone)]
pub struct LcllRange {
    query: QueryConfig,
    /// Top-level partition over the full range (static).
    top: BucketPartition,
    /// Count per top-level bucket; the focus bucket's entry equals the sum
    /// of `sub_counts`.
    top_counts: Vec<u64>,
    /// Index of the focus bucket.
    focus: usize,
    /// Partition of the focus bucket.
    sub: BucketPartition,
    /// Count per focus sub-bucket.
    sub_counts: Vec<u64>,
    /// Each node's view of the focus bucket (index into `top`; may go
    /// stale under message loss) and each sensor's previous measurement.
    sensors: Sensors<usize>,
    last_quantile: Value,
    initialized: bool,
    last_refinements: u32,
    init: InitStrategy,
    /// Validation and descent wave storage, reused every round.
    deltas: WaveStore<DeltaHistogram>,
    descent: DescentStore,
}

impl LcllRange {
    /// Creates an LCLL-R query; `b` comes from the message size like the
    /// other LCLL variants.
    pub fn new(query: QueryConfig, sizes: &wsn_net::MessageSizes) -> Self {
        let b = (sizes.max_payload_bits / sizes.bucket_bits).max(2) as usize;
        let top = BucketPartition::new(query.range_min, query.range_max, b);
        let (lo, hi) = top.bounds(0);
        let sub = BucketPartition::new(lo, hi, b);
        LcllRange {
            query,
            top,
            top_counts: vec![0; top.buckets],
            focus: 0,
            sub,
            sub_counts: vec![0; sub.buckets],
            sensors: Sensors::default(),
            last_quantile: query.range_min,
            initialized: false,
            last_refinements: 0,
            init: InitStrategy::default(),
            deltas: WaveStore::new(),
            descent: DescentStore::default(),
        }
    }

    /// Selects the initialization strategy.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Number of top-level buckets.
    pub fn buckets(&self) -> usize {
        self.top.buckets
    }

    /// Refinement convergecasts in the most recent round.
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    /// Rebuilds root state from a full collection (initialization).
    fn rebuild_from_values(&mut self, sorted: &[Value], quantile: Value) {
        self.top_counts = vec![0; self.top.buckets];
        for &v in sorted {
            self.top_counts[self.top.index_of(v).expect("in range")] += 1;
        }
        self.focus = self.top.index_of(quantile).expect("in range");
        self.sub = sub_partition(&self.top, self.focus);
        self.sub_counts = vec![0; self.sub.buckets];
        for &v in sorted {
            if let Some(j) = self.sub.index_of(v) {
                self.sub_counts[j] += 1;
            }
        }
    }

    /// Refocuses onto top bucket `bucket`: broadcasts its bounds, collects
    /// the unit sub-histogram from the nodes inside, updates node focus
    /// views, and returns the quantile (descending further if the bucket is
    /// wider than `b`).
    fn refocus(&mut self, net: &mut Network, values: &[Value], bucket: usize, below: u64) -> Value {
        // The old focus bucket's total re-materializes at top level.
        self.top_counts[self.focus] = self.sub_counts.iter().sum();

        let part = sub_partition(&self.top, bucket);
        self.last_refinements += 1;
        let sensors = &mut self.sensors;
        let hist = histogram_request(net, &mut self.descent, values, part, |idx, _, _| {
            sensors.set(idx, bucket)
        });

        self.focus = bucket;
        self.sub = part;
        self.sub_counts.clear();
        self.sub_counts.extend_from_slice(hist.counts());

        // Locate within the fresh sub histogram.
        let k = self.query.k;
        let cells = self.sub_counts.iter().copied();
        let Some((j, before)) = bucket_holding(cells, k.saturating_sub(below)) else {
            return self.last_quantile; // inconsistent (loss)
        };
        let (lo, hi) = self.sub.bounds(j);
        if lo == hi {
            return lo;
        }
        // Top bucket wider than b (huge universes): descend.
        let cfg = DescentConfig {
            b: self.top.buckets,
            k,
            n_total: self.query_n(),
            direct_capacity: Some(net.sizes().values_per_message() as u64),
            max_refinements: 100,
        };
        let outcome = descend(
            net,
            &mut self.descent,
            values,
            cfg,
            lo,
            hi,
            RankAnchor::BelowLo(below + before),
            Some(self.sub_counts[j]),
            &mut self.last_refinements,
            |_, _, _| {},
        );
        outcome.map(|o| o.quantile).unwrap_or(self.last_quantile)
    }

    fn query_n(&self) -> u64 {
        self.top_counts
            .iter()
            .enumerate()
            .map(|(t, &c)| {
                if t == self.focus {
                    self.sub_counts.iter().sum()
                } else {
                    c
                }
            })
            .sum()
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        self.sensors.start(net.len(), values, self.focus);
        let b = self.top.buckets;
        self.deltas
            .fill(net.tree(), || DeltaHistogram::zeros(2 * b));
        self.descent.fill(net.tree(), b);
        let out = run_init(net, values, self.query, self.init);
        let q = out.quantile;
        // LCLL-R needs the full histogram; with a b-ary init we fall back
        // to deriving it from ground truth... which we refuse to do:
        // instead, always derive state from a collection. With the TAG
        // strategy the collection is already paid for; with BarySearch we
        // charge one extra full histogram convergecast (top + focus).
        match out.sorted {
            Some(sorted) => self.rebuild_from_values(&sorted, q),
            None => {
                // One histogram convergecast over the full range plus one
                // over the focus bucket re-establishes the exact state.
                self.last_refinements += 1;
                let hist =
                    histogram_request(net, &mut self.descent, values, self.top, |_, _, _| {});
                self.top_counts = hist.counts().to_vec();
                // Materialize focus from the known values (root-side
                // bookkeeping only; focus histogram is fetched next).
                self.focus = self.top.index_of(q).expect("in range");
                self.sub = sub_partition(&self.top, self.focus);
                let below: u64 = self.top_counts[..self.focus].iter().sum();
                let q2 = self.refocus(net, values, self.focus, below);
                debug_assert_eq!(q2, q);
            }
        }

        // Every node starts from the init focus (see crate::filter).
        self.sensors.install_everywhere(self.focus);
        self.last_quantile = q;
        // Focus announcement (bucket bounds) so every node can classify
        // itself; with the BarySearch path the refocus broadcast already
        // did this, but the TAG path needs it.
        let bits = net.sizes().refinement_request_bits();
        self.sensors.broadcast(net, bits, self.focus);
        self.initialized = true;
        q
    }
}

/// Wire code of a value in the disjoint partition {top buckets except the
/// focus} ∪ {sub-buckets of the focus}: codes `0..b` are top-level buckets,
/// codes `b..b+sub.buckets` are focus cells.
fn code(top: &BucketPartition, v: Value, focus: usize, sub: &BucketPartition) -> usize {
    let t = top.index_of(v).expect("values stay in range");
    if t == focus {
        top.buckets + sub.index_of(v).expect("inside focus")
    } else {
        t
    }
}

/// The partition of top bucket `i` into at most `top.buckets` cells.
fn sub_partition(top: &BucketPartition, i: usize) -> BucketPartition {
    let (lo, hi) = top.bounds(i);
    BucketPartition::new(lo, hi, top.buckets)
}

/// Locates the 1-based rank `k` in the two-level histogram: the top-level
/// bucket counts (the focus bucket's own entry is not read), the focus
/// bucket and its cell counts. `None` is a loss inconsistency.
pub(crate) fn locate(
    top_counts: &[u64],
    focus: usize,
    sub_counts: &[u64],
    k: u64,
) -> Option<Located> {
    let focus_total = sub_counts.iter().sum();
    let tops = top_counts.iter().enumerate();
    let tops = tops.map(|(t, &c)| if t == focus { focus_total } else { c });
    let (bucket, below) = bucket_holding(tops, k)?;
    if bucket != focus {
        return Some(Located::TopBucket { bucket, below });
    }
    // Walk the focus cells.
    let (cell, before) = bucket_holding(sub_counts.iter().copied(), k - below)?;
    Some(Located::SubCell {
        cell,
        below: below + before,
        inside: sub_counts[cell],
    })
}

/// Where the k-th value sits in the two-level histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Located {
    /// In a non-focus top-level bucket (a refocus is needed unless the
    /// bucket is a single value wide).
    TopBucket { bucket: usize, below: u64 },
    /// In cell `cell` of the focus bucket.
    SubCell {
        cell: usize,
        below: u64,
        inside: u64,
    },
}

impl ContinuousQuantile for LcllRange {
    fn name(&self) -> &'static str {
        "LCLL-R"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;
        let (top, focus, sub) = (self.top, self.focus, self.sub);
        let code_len = top.buckets + sub.buckets;

        // --- Validation: deltas over the two-level partition ---
        net.set_phase(wsn_net::Phase::Validation);
        let sensors = &self.sensors;
        let report = |id: NodeId, slot: &mut Option<DeltaHistogram>| {
            let idx = id.index();
            // Nodes with a stale focus view (loss) classify against their
            // own view; their codes may then disagree with the root's —
            // exactly the desynchronization loss causes in reality. For
            // wire-length simplicity the stale view is clamped to the
            // current sub length.
            let (prev, own) = sensors.node(idx);
            let own_sub = if own == focus {
                sub
            } else {
                sub_partition(&top, own)
            };
            let old = code(&top, prev, own, &own_sub);
            let new = code(&top, values[idx - 1], own, &own_sub);
            if old != new {
                slot.get_or_insert_with(|| DeltaHistogram::zeros(0))
                    .set_movement(
                        code_len.max(top.buckets + own_sub.buckets),
                        old.min(code_len - 1),
                        new.min(code_len - 1),
                    );
            }
            old != new
        };
        let deltas = net.convergecast_in(&mut self.deltas, report, |_, _| {});
        if let Some(deltas) = deltas {
            for t in 0..self.top.buckets {
                if t != self.focus {
                    self.top_counts[t] = apply_delta(self.top_counts[t], deltas.deltas[t]);
                }
            }
            for j in 0..self.sub.buckets {
                let d = deltas.deltas[self.top.buckets + j];
                self.sub_counts[j] = apply_delta(self.sub_counts[j], d);
            }
        }
        self.sensors.roll(values);

        // --- Locate; refocus only when the quantile escaped ---
        // (Refocus/descent traffic below is refinement; during the init
        // round `refocus` runs under the Init phase instead.)
        net.set_phase(wsn_net::Phase::Refinement);
        let result = match locate(&self.top_counts, focus, &self.sub_counts, self.query.k) {
            Some(Located::SubCell {
                cell,
                below,
                inside,
            }) => {
                let (lo, hi) = self.sub.bounds(cell);
                if lo == hi {
                    lo
                } else {
                    // Huge universes: one descent inside the cell.
                    let cfg = DescentConfig {
                        b: self.top.buckets,
                        k: self.query.k,
                        n_total: self.query_n(),
                        direct_capacity: Some(net.sizes().values_per_message() as u64),
                        max_refinements: 100,
                    };
                    let outcome = descend(
                        net,
                        &mut self.descent,
                        values,
                        cfg,
                        lo,
                        hi,
                        RankAnchor::BelowLo(below),
                        Some(inside),
                        &mut self.last_refinements,
                        |_, _, _| {},
                    );
                    outcome.map(|o| o.quantile).unwrap_or(self.last_quantile)
                }
            }
            Some(Located::TopBucket { bucket, below }) => {
                let (lo, hi) = self.top.bounds(bucket);
                if lo == hi {
                    lo
                } else {
                    self.refocus(net, values, bucket, below)
                }
            }
            None => self.last_quantile, // loss-induced inconsistency
        };

        self.last_quantile = result;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    fn drifting_values(n: usize, t: u32) -> Vec<Value> {
        (0..n)
            .map(|i| 200 + (i as Value * 13) % 90 + ((t as Value * 9) % 150))
            .collect()
    }

    #[test]
    fn lcll_r_is_exact_over_many_rounds() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        for t in 0..50 {
            let values = drifting_values(n, t);
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "round {t}"
            );
        }
    }

    #[test]
    fn quantile_inside_focus_needs_no_refinement() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        let v0: Vec<Value> = (0..n).map(|i| 500 + i as Value).collect();
        alg.round(&mut net, &v0);
        // Shuffle values *within* buckets — the two-level histogram stays
        // exact through deltas, so no refinement convergecast fires.
        for t in 1..6 {
            let values: Vec<Value> = (0..n).map(|i| 500 + ((i + t) % n) as Value).collect();
            let got = alg.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k));
            assert_eq!(alg.last_refinements(), 0, "t={t}");
        }
    }

    #[test]
    fn escaping_the_focus_costs_exactly_one_refocus() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        let v0: Vec<Value> = (0..n).map(|i| 100 + i as Value).collect();
        alg.round(&mut net, &v0);
        // Jump far: quantile lands in a distant top bucket.
        let v1: Vec<Value> = (0..n).map(|i| 900 + i as Value).collect();
        let got = alg.round(&mut net, &v1);
        assert_eq!(got, rank::kth_smallest(&v1, query.k));
        assert_eq!(alg.last_refinements(), 1, "distance-independent refocus");
    }

    #[test]
    fn wider_range_means_fewer_refocuses() {
        // The §5.2.5 pessimistic-setting effect: same absolute movement,
        // wider buckets, fewer escapes.
        let count_refinements = |range_max: Value| {
            let n = 30;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, range_max);
            let mut alg = LcllRange::new(query, &MessageSizes::default());
            let mut total = 0u32;
            for t in 0..60 {
                let values: Vec<Value> = (0..n).map(|i| 500 + i as Value + t * 7).collect();
                alg.round(&mut net, &values);
                total += alg.last_refinements();
            }
            total
        };
        let narrow = count_refinements(1023); // bucket width 16, unit cells
        let wide = count_refinements(4095); // bucket width 64, unit cells
        assert!(
            wide < narrow,
            "wider buckets ({wide}) must refocus less than narrow ({narrow})"
        );
    }

    #[test]
    fn handles_extreme_ranks_and_duplicates() {
        let n = 24;
        for &k in &[1u64, 12, 24] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 255,
            };
            let mut alg = LcllRange::new(query, &MessageSizes::default());
            for t in 0..15 {
                let values: Vec<Value> = (0..n)
                    .map(|i| (((i + t as usize) % 7) * 30) as Value)
                    .collect();
                assert_eq!(
                    alg.round(&mut net, &values),
                    rank::kth_smallest(&values, k),
                    "k={k} t={t}"
                );
            }
        }
    }

    #[test]
    fn works_on_huge_universes_via_descent() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, (1 << 20) - 1);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        for t in 0..10 {
            let values: Vec<Value> = (0..n)
                .map(|i| 500_000 + i as Value * 97 + t as Value * 1313)
                .collect();
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "t={t}"
            );
        }
    }

    #[test]
    fn bary_init_is_exact_too() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 2047);
        let mut alg =
            LcllRange::new(query, &MessageSizes::default()).with_init(InitStrategy::BarySearch);
        for t in 0..20 {
            let values = drifting_values(n, t);
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "t={t}"
            );
        }
    }
}
