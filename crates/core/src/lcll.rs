//! LCLL — the message-size-driven histogram baseline (Liu et al. \[16\], as
//! configured in §5.1.6 of the paper).
//!
//! LCLL chooses its bucket count from the message size — with the default
//! 128-byte payload and 2-byte counts, `b = 64` — and comes in two
//! refinement flavors:
//!
//! * **Hierarchical refining (LCLL-H)**: zoom *out* of the last quantile
//!   position through geometrically growing probe windows until the new
//!   k-th value is covered, then zoom back *in* with `b`-ary histogram
//!   descents — `O(log_b d)` refinement convergecasts for a quantile
//!   displacement `d`, independent of `|N|` and of measurement noise.
//! * **Slip refining (LCLL-S)**: slide a width-`b` window of *unit*
//!   buckets step by step from the old quantile toward the new one —
//!   `O(d / b)` highly selective refinements (only nodes inside the small
//!   window respond).
//!
//! Validation uses the improved scheme of §5.1.6: a node whose measurement
//! slipped between the three partitions (`below` / `at` / `above` the last
//! quantile) transmits two signed bucket deltas; boundary-partition nodes
//! stay silent. LCLL sends no hints, which is exactly why LCLL-H needs the
//! geometric zoom-out stage.

use wsn_net::{Network, WaveStore};

use crate::buckets::{bucket_holding, BucketPartition};
use crate::descent::{descend, histogram_request, DescentConfig, DescentStore};
use crate::filter::Sensors;
use crate::init::{run_init, InitStrategy};
use crate::payloads::DeltaHistogram;
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{side, Counts, Direction, Side};
use crate::recovery;
use crate::retrieval::RankAnchor;
use crate::Value;

/// Refinement strategy of LCLL (§5.1.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefiningStrategy {
    /// Geometric zoom-out + `b`-ary zoom-in: `O(log d)` refinements.
    Hierarchical,
    /// Stepwise window sliding with unit buckets: `O(d / b)` refinements.
    Slip,
}

/// Safety cap on refinement convergecasts per round.
const MAX_REFINEMENTS: u32 = 10_000;

/// The LCLL continuous quantile protocol.
#[derive(Debug, Clone)]
pub struct Lcll {
    query: QueryConfig,
    strategy: RefiningStrategy,
    b: usize,
    /// Whether direct value retrieval (\[21\]) may shortcut H-descents.
    direct_retrieval: bool,
    counts: Counts,
    root_filter: Value,
    /// Each node's filter and each sensor's previous measurement.
    sensors: Sensors<Value>,
    initialized: bool,
    last_refinements: u32,
    init: InitStrategy,
    /// Validation and refinement wave storage, reused every round.
    deltas: WaveStore<DeltaHistogram>,
    descent: DescentStore,
}

impl Lcll {
    /// Creates an LCLL query; `b` is derived from the message size as \[16\]
    /// suggests (`payload / bucket size`).
    pub fn new(
        query: QueryConfig,
        strategy: RefiningStrategy,
        sizes: &wsn_net::MessageSizes,
    ) -> Self {
        let b = (sizes.max_payload_bits / sizes.bucket_bits).max(2) as usize;
        Lcll {
            query,
            strategy,
            b,
            direct_retrieval: true,
            counts: Counts::default(),
            root_filter: 0,
            sensors: Sensors::default(),
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

    /// Disables the direct-retrieval improvement (ablation).
    pub fn without_direct_retrieval(mut self) -> Self {
        self.direct_retrieval = false;
        self
    }

    /// The bucket count in use (64 with default message sizes).
    pub fn buckets(&self) -> usize {
        self.b
    }

    /// Refinement convergecasts in the most recent round.
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let out = run_init(net, values, self.query, self.init);
        let q = out.quantile;
        self.counts = out.counts;
        self.root_filter = q;
        self.sensors.start(net.len(), values, q);
        self.deltas.fill(net.tree(), || DeltaHistogram::zeros(3));
        self.descent.fill(net.tree(), self.b);
        let bits = net.sizes().value_bits;
        self.sensors.broadcast(net, bits, q);
        self.initialized = true;
        q
    }

    /// Refinement: probes windows stepping away from the old quantile until
    /// one covers the k-th value, then pins it down inside that window.
    /// LCLL-H zooms out through windows of width `b, b², b³, …` and
    /// descends inside the covering one; LCLL-S slides a width-`b` window
    /// of unit buckets, so the covering window names the value itself.
    fn refine(&mut self, net: &mut Network, values: &[Value], dir: Direction) -> Value {
        net.set_phase(wsn_net::Phase::Refinement);
        let (k, b) = (self.query.k, self.b);
        let (range_min, range_max) = (self.query.range_min, self.query.range_max);
        let n_total = self.counts.n();
        // `near` is the window's end next to the old quantile. Going down,
        // `edge` counts the values up to it (k ≤ edge); going up, the values
        // below it (edge < k).
        let (mut edge, mut near) = match dir {
            Direction::Down => (self.counts.l, self.root_filter - 1),
            Direction::Up => (self.counts.l + self.counts.e, self.root_filter + 1),
        };
        let mut width = b as u64;
        loop {
            let exhausted = match dir {
                Direction::Down => near < range_min,
                Direction::Up => near > range_max,
            };
            if exhausted || self.last_refinements >= MAX_REFINEMENTS {
                return self.root_filter;
            }
            let w = match self.strategy {
                RefiningStrategy::Hierarchical => width.min(self.query.range_size()) as Value,
                RefiningStrategy::Slip => b as Value,
            };
            let (lo, hi) = match dir {
                Direction::Down => ((near - w + 1).max(range_min), near),
                Direction::Up => (near, (near + w - 1).min(range_max)),
            };
            self.last_refinements += 1;
            let buckets = match self.strategy {
                RefiningStrategy::Hierarchical => b,
                // Unit buckets: one bucket per value in the window.
                RefiningStrategy::Slip => (hi - lo + 1) as usize,
            };
            let part = BucketPartition::new(lo, hi, buckets);
            let hist = histogram_request(net, &mut self.descent, values, part, |_, _, _| {});
            // `below` counts the values under the window, so it covers the
            // k-th value iff below < k ≤ below + c. The invariant on `edge`
            // keeps one half true: k ≤ below + c going down, below < k up.
            let c = hist.total();
            let below = match dir {
                Direction::Down => edge - c.min(edge),
                Direction::Up => edge,
            };
            if below < k && k <= below + c {
                let found = bucket_holding(hist.counts().iter().copied(), k - below);
                if self.strategy == RefiningStrategy::Slip {
                    let Some((i, before)) = found else {
                        return self.root_filter; // loss inconsistency
                    };
                    self.counts = Counts::new(below + before, hist.counts()[i], n_total);
                    return lo + i as Value;
                }
                // Covered: descend inside the probed window using the
                // histogram we already have.
                let (i, before) = found.unwrap_or((part.buckets - 1, c));
                let (s, e) = part.bounds(i);
                let anchor = RankAnchor::BelowLo(below + before);
                let inside = Some(hist.counts()[i]);
                let capacity = net.sizes().values_per_message() as u64;
                let cfg = DescentConfig {
                    b,
                    k,
                    n_total,
                    direct_capacity: self.direct_retrieval.then_some(capacity),
                    max_refinements: MAX_REFINEMENTS,
                };
                let outcome = descend(
                    net,
                    &mut self.descent,
                    values,
                    cfg,
                    s,
                    e,
                    anchor,
                    inside,
                    &mut self.last_refinements,
                    |_, _, _| {},
                );
                return match outcome {
                    Some(o) => {
                        self.counts = o.counts;
                        o.quantile
                    }
                    None => self.root_filter,
                };
            }
            (edge, near) = match dir {
                Direction::Down => (below, lo - 1),
                Direction::Up => (edge + c, hi + 1),
            };
            width = width.saturating_mul(b as u64);
        }
    }
}

impl ContinuousQuantile for Lcll {
    fn name(&self) -> &'static str {
        match self.strategy {
            RefiningStrategy::Hierarchical => "LCLL-H",
            RefiningStrategy::Slip => "LCLL-S",
        }
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;

        // --- Validation: delta pairs over {below, at, above} ---
        net.set_phase(wsn_net::Phase::Validation);
        // Incomplete validations corrupt the maintained counts; re-issue
        // the wave for missing subtrees when wave recovery is enabled. The
        // contribution is rewritten from the same inputs on a re-issue
        // (`prev` only rolls forward afterwards).
        let sensors = &self.sensors;
        let moved = |id: wsn_net::NodeId, slot: &mut Option<DeltaHistogram>| {
            let idx = id.index();
            let (prev, filter) = sensors.node(idx);
            let old = side(prev, filter);
            let new = side(values[idx - 1], filter);
            if old != new {
                slot.get_or_insert_with(|| DeltaHistogram::zeros(3))
                    .set_movement(3, bucket_code(old), bucket_code(new));
            }
            old != new
        };
        let validation = recovery::collect_with_recovery(net, &mut self.deltas, moved);
        self.sensors.roll(values);
        if let Some(deltas) = validation {
            self.counts = Counts {
                l: apply_delta(self.counts.l, deltas.deltas[0]),
                e: apply_delta(self.counts.e, deltas.deltas[1]),
                g: apply_delta(self.counts.g, deltas.deltas[2]),
            };
        }

        let k = self.query.k;
        let result = if self.counts.is_valid_quantile(k) {
            self.root_filter
        } else {
            let dir = self.counts.quantile_moved(k).expect("invalid counts");
            self.refine(net, values, dir)
        };

        if result != self.root_filter {
            self.root_filter = result;
            let bits = net.sizes().value_bits;
            self.sensors.broadcast(net, bits, result);
        }
        result
    }
}

/// Wire code of a partition side: 0 = below, 1 = at, 2 = above.
fn bucket_code(s: Side) -> usize {
    match s {
        Side::Lt => 0,
        Side::Eq => 1,
        Side::Gt => 2,
    }
}

/// A count after a validation's signed delta (LCLL-H/S and LCLL-R), never
/// below zero.
pub(crate) fn apply_delta(count: u64, delta: i64) -> u64 {
    if delta >= 0 {
        count + delta as u64
    } else {
        count.saturating_sub(delta.unsigned_abs())
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

    fn new_lcll(query: QueryConfig, strategy: RefiningStrategy) -> Lcll {
        Lcll::new(query, strategy, &MessageSizes::default())
    }

    fn drifting_values(n: usize, t: u32) -> Vec<Value> {
        (0..n)
            .map(|i| 200 + (i as Value * 13) % 90 + ((t as Value * 9) % 150))
            .collect()
    }

    #[test]
    fn bucket_count_from_message_size() {
        let lcll = new_lcll(
            QueryConfig::median(10, 0, 1023),
            RefiningStrategy::Hierarchical,
        );
        assert_eq!(lcll.buckets(), 64);
    }

    #[test]
    fn both_strategies_are_exact() {
        for strategy in [RefiningStrategy::Hierarchical, RefiningStrategy::Slip] {
            let n = 30;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, 1023);
            let mut lcll = new_lcll(query, strategy);
            for t in 0..40 {
                let values = drifting_values(n, t);
                let got = lcll.round(&mut net, &values);
                assert_eq!(
                    got,
                    rank::kth_smallest(&values, query.k),
                    "{strategy:?} round {t}"
                );
            }
        }
    }

    #[test]
    fn slip_refinements_grow_linearly_with_distance() {
        let n = 20;
        let query = QueryConfig::median(n, 0, 100_000);
        let jump = |d: Value| {
            let mut net = line_net(n);
            let mut lcll = new_lcll(query, RefiningStrategy::Slip);
            let v0: Vec<Value> = (0..n).map(|i| 50_000 + i as Value).collect();
            lcll.round(&mut net, &v0);
            let v1: Vec<Value> = v0.iter().map(|v| v + d).collect();
            assert_eq!(lcll.round(&mut net, &v1), rank::kth_smallest(&v1, query.k));
            lcll.last_refinements()
        };
        let small = jump(100);
        let large = jump(6_400);
        assert!(
            large >= small * 8,
            "slip should be ~linear: d=100 -> {small}, d=6400 -> {large}"
        );
    }

    #[test]
    fn hierarchical_refinements_grow_logarithmically() {
        let n = 20;
        let query = QueryConfig::median(n, 0, 10_000_000);
        let jump = |d: Value| {
            let mut net = line_net(n);
            let mut lcll =
                new_lcll(query, RefiningStrategy::Hierarchical).without_direct_retrieval();
            let v0: Vec<Value> = (0..n).map(|i| 5_000_000 + i as Value).collect();
            lcll.round(&mut net, &v0);
            let v1: Vec<Value> = v0.iter().map(|v| v + d).collect();
            assert_eq!(lcll.round(&mut net, &v1), rank::kth_smallest(&v1, query.k));
            lcll.last_refinements()
        };
        let small = jump(1_000);
        let large = jump(4_000_000);
        assert!(
            large <= small + 6,
            "hierarchical should be ~log: d=1e3 -> {small}, d=4e6 -> {large}"
        );
    }

    #[test]
    fn quiet_rounds_are_free() {
        let n = 15;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut lcll = new_lcll(query, RefiningStrategy::Slip);
        let values = drifting_values(n, 2);
        lcll.round(&mut net, &values);
        let before = net.stats().messages;
        lcll.round(&mut net, &values);
        assert_eq!(net.stats().messages, before);
    }

    #[test]
    fn exact_with_heavy_duplicates_and_small_range() {
        for strategy in [RefiningStrategy::Hierarchical, RefiningStrategy::Slip] {
            let n = 16;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, 7);
            let mut lcll = new_lcll(query, strategy);
            for t in 0..12 {
                let values: Vec<Value> = (0..n).map(|i| ((i as u32 + t) % 5) as Value).collect();
                assert_eq!(
                    lcll.round(&mut net, &values),
                    rank::kth_smallest(&values, query.k),
                    "{strategy:?} t={t}"
                );
            }
        }
    }

    #[test]
    fn exact_for_extreme_ranks() {
        for strategy in [RefiningStrategy::Hierarchical, RefiningStrategy::Slip] {
            let n = 20;
            let mut net = line_net(n);
            for &k in &[1u64, 20] {
                let query = QueryConfig {
                    k,
                    range_min: 0,
                    range_max: 1023,
                };
                let mut lcll = new_lcll(query, strategy);
                for t in 0..10 {
                    let values = drifting_values(n, t * 4);
                    assert_eq!(
                        lcll.round(&mut net, &values),
                        rank::kth_smallest(&values, k),
                        "{strategy:?} k={k} t={t}"
                    );
                }
            }
        }
    }
}
