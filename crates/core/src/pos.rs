//! POS — binary-search continuous quantiles (Cox et al. \[9\], §3.2).
//!
//! Rounds after initialization consist of a *validation* convergecast
//! (movement counters + min/max hints) and, when the filter is no longer
//! the k-th value, a *refinement* phase: the root repeatedly broadcasts the
//! midpoint of the candidate interval as a probe threshold; nodes whose
//! measurement switches interval answer with counter messages, halving the
//! interval each time. When the remaining candidates are guaranteed to fit
//! into a single message the root requests them directly and broadcasts the
//! final filter (§3.2 improvements).

use wsn_net::{Network, NodeId, WaveStore};

use crate::filter::Sensors;
use crate::init::{run_init, InitStrategy};
use crate::payloads::MovementCounters;
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{side, Counts, Direction};
use crate::recovery;
use crate::retrieval::{direct_retrieval, RankAnchor, RetrievalStore};
use crate::validation::{write_node_validation, HintStyle, ValidationPayload};
use crate::Value;

/// Safety cap on refinement iterations: a clean binary search over a 64-bit
/// universe needs at most 64; only message loss can exceed this.
const MAX_REFINEMENTS: u32 = 80;

/// The POS continuous quantile protocol.
#[derive(Debug, Clone)]
pub struct Pos {
    query: QueryConfig,
    /// Root state: counts w.r.t. `root_filter`.
    counts: Counts,
    root_filter: Value,
    /// Each node's filter / probe threshold (may diverge under message
    /// loss) and each sensor's previous measurement.
    sensors: Sensors<Value>,
    initialized: bool,
    /// Refinement iterations executed in the most recent round.
    last_refinements: u32,
    /// Direct value retrieval enabled (§3.2 improvement; on by default).
    direct_retrieval: bool,
    init: InitStrategy,
    /// Validation and retrieval wave storage, reused every round.
    validations: WaveStore<ValidationPayload>,
    retrieval: RetrievalStore,
}

impl Pos {
    /// Creates a POS query.
    pub fn new(query: QueryConfig) -> Self {
        Pos {
            query,
            counts: Counts::default(),
            root_filter: 0,
            sensors: Sensors::default(),
            initialized: false,
            last_refinements: 0,
            direct_retrieval: true,
            init: InitStrategy::default(),
            validations: WaveStore::new(),
            retrieval: RetrievalStore::default(),
        }
    }

    /// Selects the initialization strategy (§3.2: TAG by default).
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Disables the direct-retrieval improvement (ablation studies).
    pub fn without_direct_retrieval(mut self) -> Self {
        self.direct_retrieval = false;
        self
    }

    /// Refinement iterations used by the last round (0 when validation
    /// alone settled the quantile).
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let out = run_init(net, values, self.query, self.init);
        let q = out.quantile;
        self.counts = out.counts;
        self.root_filter = q;
        self.sensors.start(net.len(), values, q);
        self.retrieval.fill(net.tree());
        // Filter broadcast: one value.
        let bits = net.sizes().value_bits;
        self.sensors.broadcast(net, bits, q);
        self.initialized = true;
        q
    }

    /// Broadcasts probe threshold `mid` and collects movement counters from
    /// nodes whose measurement switched interval, updating per-node
    /// thresholds and the root counts.
    fn probe(&mut self, net: &mut Network, values: &[Value], mid: Value) -> Counts {
        let bits = net.sizes().value_bits;
        self.sensors.request(net, bits);
        let sensors = &mut self.sensors;
        let merged = net
            .convergecast(|id: NodeId| {
                let idx = id.index();
                // A node that missed the probe cannot react.
                let old_thr = sensors.swap_received(idx, mid)?;
                let v = values[idx - 1];
                let (old_side, new_side) = (side(v, old_thr), side(v, mid));
                (old_side != new_side).then(|| MovementCounters::between(old_side, new_side))
            })
            .unwrap_or_default();
        self.root_filter = mid;
        self.counts.moved(&merged)
    }

    /// Requests all values in `[lo, hi]` directly, determines the quantile
    /// and re-establishes root/node state. `anchor` is what the root knows
    /// about ranks outside the interval.
    fn retrieve(
        &mut self,
        net: &mut Network,
        values: &[Value],
        lo: Value,
        hi: Value,
        anchor: RankAnchor,
    ) -> Value {
        let (k, n) = (self.query.k, self.counts.n());
        let r = direct_retrieval(net, &mut self.retrieval, values, lo, hi, k, n, anchor);
        // An empty collection is only possible under message loss; keep the
        // previous filter, with the interval's values counted as absent.
        let (q, counts) = match r.quantile {
            Some(q) => (q, r.counts),
            None => (self.root_filter, Counts::new(anchor.below(0), 0, n)),
        };
        self.counts = counts;
        self.root_filter = q;
        // Final filter broadcast (§3.2: "with this improvement a final
        // broadcast becomes necessary").
        let bits = net.sizes().value_bits;
        self.sensors.broadcast(net, bits, q);
        q
    }
}

impl ContinuousQuantile for Pos {
    fn name(&self) -> &'static str {
        "POS"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;

        // --- Validation ---
        net.set_phase(wsn_net::Phase::Validation);
        // A silently incomplete validation would corrupt the maintained
        // rank forever; with wave recovery enabled the collection re-issues
        // the wave for missing subtrees, rewriting each contribution from
        // the same inputs (`prev` only rolls forward afterwards).
        let sensors = &self.sensors;
        let changed = |id: NodeId, slot: &mut Option<ValidationPayload>| {
            let idx = id.index();
            let (old, filter) = sensors.node(idx);
            write_node_validation(slot, old, values[idx - 1], filter, HintStyle::MinMax, None)
        };
        let validation = recovery::collect_with_recovery(net, &mut self.validations, changed);
        // The counters and the hint bounds are all the rest of the round
        // reads (an empty validation bounds nothing: both sit at the filter).
        let filter = self.root_filter;
        let (moved, hint_lo, hint_hi) = match validation {
            Some(v) => (
                Some(v.counters),
                v.lower_bound(filter),
                v.upper_bound(filter),
            ),
            None => (None, filter, filter),
        };
        self.sensors.roll(values);

        if let Some(c) = moved {
            self.counts = self.counts.moved(&c);
        }

        if self.counts.is_valid_quantile(self.query.k) {
            return self.root_filter;
        }

        // --- Refinement: binary search with hints ---
        net.set_phase(wsn_net::Phase::Refinement);
        let dir = self
            .counts
            .quantile_moved(self.query.k)
            .expect("invalid counts imply a direction");
        // `below`/`above`: exact counts outside [lo, hi] when known
        // (None = only the trivial bound is available).
        let (mut lo, mut hi, mut below, mut above) = match dir {
            Direction::Down => (
                hint_lo.max(self.query.range_min),
                filter - 1,
                None,
                Some(self.counts.n() - self.counts.l),
            ),
            Direction::Up => (
                filter + 1,
                hint_hi.min(self.query.range_max),
                Some(self.counts.l + self.counts.e),
                None,
            ),
        };

        let capacity = net.sizes().values_per_message() as u64;
        loop {
            if lo > hi {
                // Inconsistent state: only reachable under message loss.
                break self.root_filter;
            }
            // Upper bound on candidate count in [lo, hi].
            let known_outside = below.unwrap_or(0) + above.unwrap_or(0);
            let ub = self.counts.n().saturating_sub(known_outside);
            if self.direct_retrieval && ub <= capacity {
                self.last_refinements += 1;
                let anchor = match (below, above) {
                    (Some(b), _) => RankAnchor::BelowLo(b),
                    // #≤hi = n − #>hi is exact; the retrieval response
                    // resolves the split around lo.
                    (None, Some(a)) => RankAnchor::AtMostHi(self.counts.n() - a),
                    (None, None) => unreachable!("one side is always known"),
                };
                break self.retrieve(net, values, lo, hi, anchor);
            }

            if self.last_refinements >= MAX_REFINEMENTS {
                break self.root_filter;
            }
            self.last_refinements += 1;
            let mid = lo + (hi - lo) / 2;
            self.counts = self.probe(net, values, mid);
            if self.counts.is_valid_quantile(self.query.k) {
                break mid;
            }
            match self.counts.quantile_moved(self.query.k).expect("invalid") {
                Direction::Down => {
                    hi = mid - 1;
                    above = Some(self.counts.n() - self.counts.l);
                }
                Direction::Up => {
                    lo = mid + 1;
                    below = Some(self.counts.l + self.counts.e);
                }
            }
        }
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
            .map(|i| 100 + (i as Value * 7) % 50 + (t as Value * 3) % 40)
            .collect()
    }

    #[test]
    fn pos_is_exact_over_many_rounds() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        for t in 0..40 {
            let values = drifting_values(n, t);
            let got = pos.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
        }
    }

    #[test]
    fn stable_values_need_no_refinement() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        let values = drifting_values(n, 0);
        pos.round(&mut net, &values);
        let msgs_before = net.stats().messages;
        pos.round(&mut net, &values);
        assert_eq!(pos.last_refinements(), 0);
        // An unchanged round generates zero traffic: no node moved.
        assert_eq!(net.stats().messages, msgs_before);
    }

    #[test]
    fn pos_tracks_abrupt_changes() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        let v0: Vec<Value> = (0..n).map(|i| 100 + i as Value).collect();
        pos.round(&mut net, &v0);
        // Jump the whole distribution far up.
        let v1: Vec<Value> = (0..n).map(|i| 900 + ((i * 3) % 50) as Value).collect();
        let got = pos.round(&mut net, &v1);
        assert_eq!(got, rank::kth_smallest(&v1, query.k));
        // And far down.
        let v2: Vec<Value> = (0..n).map(|i| 5 + ((i * 5) % 30) as Value).collect();
        let got = pos.round(&mut net, &v2);
        assert_eq!(got, rank::kth_smallest(&v2, query.k));
    }

    #[test]
    fn pos_handles_duplicate_heavy_data() {
        let n = 16;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 15);
        let mut pos = Pos::new(query);
        for t in 0..10 {
            let values: Vec<Value> = (0..n).map(|i| ((i + t as usize) % 4) as Value).collect();
            let got = pos.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
        }
    }

    #[test]
    fn pos_exact_for_non_median_quantiles() {
        let n = 20;
        let mut net = line_net(n);
        for &k in &[1u64, 5, 15, 20] {
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 1023,
            };
            let mut pos = Pos::new(query);
            for t in 0..12 {
                let values = drifting_values(n, t * 5);
                let got = pos.round(&mut net, &values);
                assert_eq!(got, rank::kth_smallest(&values, k), "k={k} t={t}");
            }
        }
    }

    #[test]
    fn refinements_stay_logarithmic() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1 << 16);
        let mut pos = Pos::new(query);
        let v0: Vec<Value> = (0..n).map(|i| (i as Value) * 100).collect();
        pos.round(&mut net, &v0);
        let v1: Vec<Value> = v0.iter().map(|v| v + 1500).collect();
        pos.round(&mut net, &v1);
        assert!(
            pos.last_refinements() <= 17,
            "refinements {}",
            pos.last_refinements()
        );
    }
}
