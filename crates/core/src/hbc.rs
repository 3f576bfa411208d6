//! HBC — the Histogram Based Continuous algorithm (paper §4.1).
//!
//! POS-style validation plus a `b`-ary histogram descent in place of POS's
//! binary search, with `b` chosen by the cost model of \[21\]
//! ([`crate::cost_model`]). Includes both improvements the paper evaluates:
//!
//! * **direct value retrieval** once the candidate interval is known to
//!   hold at most one message's worth of values (\[21\]),
//! * the **§4.1.2 broadcast-elimination variant**, where nodes partition
//!   the value space by the bounds of the last refinement request instead
//!   of a single filter value, making the final threshold broadcast
//!   unnecessary (mutually exclusive with direct retrieval, as the paper
//!   notes).

use wsn_net::{Network, WaveStore};

use crate::cost_model;
use crate::descent::{descend, DescentConfig, DescentStore};
use crate::filter::Sensors;
use crate::init::{run_init, InitStrategy};
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{Counts, Direction};
use crate::recovery;
use crate::retrieval::RankAnchor;
use crate::validation::{write_node_validation_interval, HintStyle, ValidationPayload};
use crate::Value;

/// Safety cap on histogram iterations (only message loss can exceed the
/// logarithmic bound).
const MAX_REFINEMENTS: u32 = 100;

/// Configuration of the HBC algorithm.
#[derive(Debug, Clone, Copy)]
pub struct HbcConfig {
    /// Bucket count; `None` derives it from the cost model (§4.1: `b` is
    /// computed once, not per round — the paper found recomputation
    /// marginal).
    pub buckets: Option<usize>,
    /// Enable direct value retrieval (\[21\]).
    pub direct_retrieval: bool,
    /// Enable the §4.1.2 variant (disables `direct_retrieval`; the paper
    /// notes the two cannot simply be combined).
    pub eliminate_threshold_broadcast: bool,
    /// Initialization strategy (§3.2: TAG by default).
    pub init: InitStrategy,
}

impl Default for HbcConfig {
    fn default() -> Self {
        HbcConfig {
            buckets: None,
            direct_retrieval: true,
            eliminate_threshold_broadcast: false,
            init: InitStrategy::Tag,
        }
    }
}

/// The HBC continuous quantile protocol.
#[derive(Debug, Clone)]
pub struct Hbc {
    query: QueryConfig,
    config: HbcConfig,
    b: usize,
    counts: Counts,
    /// Root's current `eq` interval (a single value in the basic variant).
    root_lb: Value,
    root_ub: Value,
    /// Each node's `eq` interval bounds and each sensor's previous
    /// measurement.
    sensors: Sensors<(Value, Value)>,
    /// Validation and refinement wave storage, reused every round.
    validations: WaveStore<ValidationPayload>,
    descent: DescentStore,
    initialized: bool,
    last_refinements: u32,
}

impl Hbc {
    /// Creates an HBC query.
    pub fn new(query: QueryConfig, config: HbcConfig, sizes: &wsn_net::MessageSizes) -> Self {
        let b = config
            .buckets
            .unwrap_or_else(|| cost_model::optimal_buckets(sizes, query.range_size()));
        assert!(b >= 2, "need at least two buckets");
        Hbc {
            query,
            config,
            b,
            counts: Counts::default(),
            root_lb: 0,
            root_ub: 0,
            sensors: Sensors::default(),
            validations: WaveStore::new(),
            descent: DescentStore::default(),
            initialized: false,
            last_refinements: 0,
        }
    }

    /// The bucket count in use.
    pub fn buckets(&self) -> usize {
        self.b
    }

    /// Histogram/retrieval convergecasts in the most recent round.
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    fn variant(&self) -> bool {
        self.config.eliminate_threshold_broadcast
    }

    /// The state shared by all POS-family protocols (filter + counts),
    /// used by [`crate::adaptive::Adaptive`] to switch algorithms without
    /// reinitializing the network (§4.2).
    pub(crate) fn shared_state(&self) -> (Value, Counts, &[Value]) {
        (self.root_lb, self.counts, self.sensors.prev())
    }

    /// Adopts shared state exported by a sibling protocol. `n` is the node
    /// count including the root.
    pub(crate) fn adopt(&mut self, n: usize, filter: Value, counts: Counts, prev: &[Value]) {
        self.root_lb = filter;
        self.root_ub = filter;
        self.sensors.start(n, prev, (filter, filter));
        self.counts = counts;
        self.initialized = true;
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let out = run_init(net, values, self.query, self.config.init);
        let q = out.quantile;
        self.counts = out.counts;
        self.root_lb = q;
        self.root_ub = q;
        self.sensors.start(net.len(), values, (q, q));
        self.descent.fill(net.tree(), self.b);
        let bits = net.sizes().value_bits;
        self.sensors.broadcast(net, bits, (q, q));
        self.initialized = true;
        q
    }

    /// Descends through histogram refinements until the quantile is pinned
    /// down, starting from interval `[lo, hi]`.
    fn refine(
        &mut self,
        net: &mut Network,
        values: &[Value],
        lo: Value,
        hi: Value,
        anchor: RankAnchor,
        inside: Option<u64>,
    ) -> Value {
        net.set_phase(wsn_net::Phase::Refinement);
        let capacity = net.sizes().values_per_message() as u64;
        let cfg = DescentConfig {
            b: self.b,
            k: self.query.k,
            n_total: self.counts.n(),
            direct_capacity: (self.config.direct_retrieval && !self.variant()).then_some(capacity),
            max_refinements: MAX_REFINEMENTS,
        };
        let variant = self.variant();
        let sensors = &mut self.sensors;
        let outcome = descend(
            net,
            &mut self.descent,
            values,
            cfg,
            lo,
            hi,
            anchor,
            inside,
            &mut self.last_refinements,
            |idx, req_lo, req_hi| {
                if variant {
                    // §4.1.2: refinement bounds take over the node's
                    // partition of the value space.
                    sensors.set(idx, (req_lo, req_hi));
                }
            },
        );
        match outcome {
            Some(o) => {
                if self.variant() {
                    // §4.1.2: root and nodes both keep the bounds of the
                    // last refinement request as their partition; counts
                    // are relative to that interval.
                    let (lb, ub) = o.last_request.unwrap_or((o.quantile, o.quantile));
                    self.root_lb = lb;
                    self.root_ub = ub;
                    self.counts = o.last_request_counts.unwrap_or(o.counts);
                } else {
                    self.counts = o.counts;
                }
                o.quantile
            }
            // Only reachable under message loss.
            None => self.root_lb,
        }
    }

    /// Basic variant: updates root and node filters to the newly found
    /// quantile, broadcasting it when it changed.
    fn conclude(&mut self, net: &mut Network, q: Value) {
        // The threshold broadcast disseminates the refined answer.
        net.set_phase(wsn_net::Phase::Refinement);
        let changed = q != self.root_lb || q != self.root_ub;
        self.root_lb = q;
        self.root_ub = q;
        if changed {
            let bits = net.sizes().value_bits;
            self.sensors.broadcast(net, bits, (q, q));
        }
    }
}

impl ContinuousQuantile for Hbc {
    fn name(&self) -> &'static str {
        if self.variant() {
            "HBC-nb"
        } else {
            "HBC"
        }
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;

        // --- Validation ---
        net.set_phase(wsn_net::Phase::Validation);
        // Incomplete validations corrupt the maintained counts; re-issue
        // the wave for missing subtrees when wave recovery is enabled. The
        // contribution is rewritten from the same inputs on a re-issue
        // (`prev` only rolls forward afterwards).
        let sensors = &self.sensors;
        let changed = |id: wsn_net::NodeId, slot: &mut Option<ValidationPayload>| {
            let idx = id.index();
            let (old, (lb, ub)) = sensors.node(idx);
            let cur = values[idx - 1];
            write_node_validation_interval(slot, old, cur, lb, ub, HintStyle::MaxDiff, None)
        };
        let validation = recovery::collect_with_recovery(net, &mut self.validations, changed);
        // The counters and the hint bounds are all the rest of the round
        // reads (an empty validation bounds nothing: both sit at the filter).
        let (root_lb, root_ub) = (self.root_lb, self.root_ub);
        let (moved, hint_lo, hint_hi) = match validation {
            Some(v) => (
                Some(v.counters),
                v.lower_bound(root_lb),
                v.upper_bound(root_ub),
            ),
            None => (None, root_lb, root_ub),
        };
        self.sensors.roll(values);

        if let Some(c) = moved {
            self.counts = self.counts.moved(&c);
        }

        let k = self.query.k;
        let result = if self.counts.is_valid_quantile(k) {
            if self.root_lb == self.root_ub {
                self.root_lb
            } else {
                // §4.1.2: the k-th value sits inside the last refinement
                // interval; refine it (inside count = e is known).
                let (lo, hi) = (self.root_lb, self.root_ub);
                let anchor = RankAnchor::BelowLo(self.counts.l);
                let inside = Some(self.counts.e);
                self.refine(net, values, lo, hi, anchor, inside)
            }
        } else {
            let dir = self.counts.quantile_moved(k).expect("invalid counts");
            match dir {
                Direction::Down => {
                    let lo = hint_lo.max(self.query.range_min);
                    let hi = self.root_lb - 1;
                    self.refine(
                        net,
                        values,
                        lo,
                        hi,
                        RankAnchor::AtMostHi(self.counts.l),
                        None,
                    )
                }
                Direction::Up => {
                    let lo = self.root_ub + 1;
                    let hi = hint_hi.min(self.query.range_max);
                    let anchor = RankAnchor::BelowLo(self.counts.l + self.counts.e);
                    self.refine(net, values, lo, hi, anchor, None)
                }
            }
        };

        if !self.variant() {
            self.conclude(net, result);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    fn new_hbc(query: QueryConfig, config: HbcConfig) -> Hbc {
        Hbc::new(query, config, &MessageSizes::default())
    }

    fn drifting_values(n: usize, t: u32) -> Vec<Value> {
        (0..n)
            .map(|i| 100 + (i as Value * 11) % 80 + ((t as Value * 17) % 120))
            .collect()
    }

    #[test]
    fn bucket_count_comes_from_cost_model() {
        let hbc = new_hbc(QueryConfig::median(100, 0, 1023), HbcConfig::default());
        let expect = cost_model::optimal_buckets(&MessageSizes::default(), 1024);
        assert_eq!(hbc.buckets(), expect);
    }

    #[test]
    fn hbc_is_exact_over_many_rounds() {
        for config in [
            HbcConfig::default(),
            HbcConfig {
                direct_retrieval: false,
                ..HbcConfig::default()
            },
            HbcConfig {
                eliminate_threshold_broadcast: true,
                direct_retrieval: false,
                ..HbcConfig::default()
            },
        ] {
            let n = 30;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, 1023);
            let mut hbc = new_hbc(query, config);
            for t in 0..40 {
                let values = drifting_values(n, t);
                let got = hbc.round(&mut net, &values);
                assert_eq!(
                    got,
                    rank::kth_smallest(&values, query.k),
                    "round {t} cfg {config:?}"
                );
            }
        }
    }

    #[test]
    fn unchanged_rounds_are_free() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut hbc = new_hbc(query, HbcConfig::default());
        let values = drifting_values(n, 3);
        hbc.round(&mut net, &values);
        let before = net.stats().messages;
        hbc.round(&mut net, &values);
        assert_eq!(net.stats().messages, before);
        assert_eq!(hbc.last_refinements(), 0);
    }

    #[test]
    fn hbc_survives_extreme_jumps() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 100_000);
        let mut hbc = new_hbc(query, HbcConfig::default());
        let v0: Vec<Value> = (0..n).map(|i| 50_000 + i as Value).collect();
        hbc.round(&mut net, &v0);
        let v1: Vec<Value> = (0..n).map(|i| (i as Value * 13) % 300).collect();
        assert_eq!(hbc.round(&mut net, &v1), rank::kth_smallest(&v1, query.k));
        let v2: Vec<Value> = (0..n).map(|i| 99_000 + (i as Value * 7) % 500).collect();
        assert_eq!(hbc.round(&mut net, &v2), rank::kth_smallest(&v2, query.k));
    }

    #[test]
    fn variant_skips_final_broadcast() {
        let n = 20;
        let query = QueryConfig::median(n, 0, 1023);

        let run = |config: HbcConfig| {
            let mut net = line_net(n);
            let mut hbc = new_hbc(query, config);
            let v0 = drifting_values(n, 0);
            hbc.round(&mut net, &v0);
            let base = net.stats().broadcasts;
            let v1 = drifting_values(n, 1); // shifts the median
            hbc.round(&mut net, &v1);
            net.stats().broadcasts - base
        };

        let basic = run(HbcConfig {
            direct_retrieval: false,
            ..HbcConfig::default()
        });
        let variant = run(HbcConfig {
            direct_retrieval: false,
            eliminate_threshold_broadcast: true,
            ..HbcConfig::default()
        });
        assert!(
            variant < basic,
            "variant {variant} should broadcast less than basic {basic}"
        );
    }

    #[test]
    fn direct_retrieval_reduces_refinements() {
        let n = 30;
        let query = QueryConfig::median(n, 0, 1 << 16);
        let run = |direct: bool| {
            let mut net = line_net(n);
            let mut hbc = new_hbc(
                query,
                HbcConfig {
                    direct_retrieval: direct,
                    ..HbcConfig::default()
                },
            );
            let v0: Vec<Value> = (0..n).map(|i| 1000 * i as Value).collect();
            hbc.round(&mut net, &v0);
            let v1: Vec<Value> = v0.iter().map(|v| v + 4000).collect();
            let got = hbc.round(&mut net, &v1);
            assert_eq!(got, rank::kth_smallest(&v1, query.k));
            hbc.last_refinements()
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn exact_for_skewed_quantiles() {
        let n = 24;
        let mut net = line_net(n);
        for &k in &[1u64, 6, 18, 24] {
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 1023,
            };
            let mut hbc = new_hbc(query, HbcConfig::default());
            for t in 0..15 {
                let values = drifting_values(n, t * 3);
                assert_eq!(
                    hbc.round(&mut net, &values),
                    rank::kth_smallest(&values, k),
                    "k={k} t={t}"
                );
            }
        }
    }
}
