//! IQ — Interval-based Quantiles, the paper's heuristic contribution
//! (§4.2).
//!
//! IQ bets on temporal correlation: nodes transmit their raw measurement
//! during validation whenever it falls inside an adaptive interval
//! `Ξ = [v_k + ξ_l, v_k + ξ_r]` around the last quantile. If the new k-th
//! value lands inside Ξ the root reads it straight out of the validation
//! payload — zero refinements. Otherwise a *single* refinement convergecast
//! requests exactly the `f` largest (or smallest) values beyond Ξ, with
//! intermediate nodes pruning to the top `f` (§4.2.2), so a round ends
//! after at most two convergecasts. The interval bounds adapt to the
//! recent quantile trend:
//!
//! ```text
//! ξ_l = min( min_{i=t−m+2..t} (v_k^i − v_k^{i−1}), 0 )
//! ξ_r = max( max_{i=t−m+2..t} (v_k^i − v_k^{i−1}), 0 )
//! ```
//!
//! Worst case the validation forwards `O(|N|)` values per node — the price
//! for avoiding refinement rounds, and the reason HBC wins when the
//! quantile moves fast (§5.2.2).

use std::collections::VecDeque;

use wsn_net::{Network, NodeId, PayloadSize, WaveStore};

use crate::filter::Sensors;
use crate::init::{initial_xi_mean_gap, initial_xi_median_gap, run_init, InitStrategy};
use crate::payloads::ValueList;
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{Counts, Direction};
use crate::recovery;
use crate::retrieval::{delivered, values_inside};
use crate::validation::{write_node_validation, HintStyle, ValidationPayload};
use crate::Value;

/// How IQ's initial interval half-width ξ is derived from the init-round
/// distribution (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XiInit {
    /// `ξ = c·(v_k − v_1)/k` — the mean gap below the quantile.
    MeanGap,
    /// The median gap between consecutive values up to the quantile
    /// (outlier-robust).
    MedianGap,
}

/// Configuration of the IQ algorithm.
#[derive(Debug, Clone, Copy)]
pub struct IqConfig {
    /// History window `m`: how many recent quantiles feed the ξ update.
    pub m: usize,
    /// Tweaking constant `c` of the mean-gap initializer.
    pub c: f64,
    /// Initializer choice.
    pub xi_init: XiInit,
    /// Bound the refinement interval with HBC-style hints (§5.1.6: "IQ was
    /// implemented … with the same hints as HBC").
    pub use_hints: bool,
    /// Initialization strategy (§4.2.1: "The initialization algorithm is
    /// independent from our solution"; TAG by default like POS).
    pub init: InitStrategy,
}

impl Default for IqConfig {
    fn default() -> Self {
        IqConfig {
            m: 4,
            c: 1.0,
            xi_init: XiInit::MeanGap,
            use_hints: true,
            init: InitStrategy::Tag,
        }
    }
}

/// The IQ continuous quantile protocol.
#[derive(Debug, Clone)]
pub struct Iq {
    query: QueryConfig,
    config: IqConfig,
    counts: Counts,
    root_filter: Value,
    root_history: VecDeque<Value>,
    root_xi: (Value, Value),
    /// Each node's filter and each sensor's previous measurement.
    sensors: Sensors<Value>,
    /// Each node's Ξ offsets and quantile history.
    node_xi: Vec<(Value, Value)>,
    node_history: Vec<VecDeque<Value>>,
    initialized: bool,
    last_refinements: u32,
    last_a_size: usize,
    /// Validation and refinement wave storage, reused every round.
    validations: WaveStore<ValidationPayload>,
    lists: WaveStore<ValueList>,
}

impl Iq {
    /// Creates an IQ query.
    pub fn new(query: QueryConfig, config: IqConfig) -> Self {
        assert!(config.m >= 2, "history window m must be at least 2");
        Iq {
            query,
            config,
            counts: Counts::default(),
            root_filter: 0,
            root_history: VecDeque::new(),
            root_xi: (0, 0),
            sensors: Sensors::default(),
            node_xi: Vec::new(),
            node_history: Vec::new(),
            initialized: false,
            last_refinements: 0,
            last_a_size: 0,
            validations: WaveStore::new(),
            lists: WaveStore::new(),
        }
    }

    /// Refinement convergecasts in the last round (0 or 1 absent loss).
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    /// Size of the validation multiset `A` received in the last round.
    pub fn last_validation_set_size(&self) -> usize {
        self.last_a_size
    }

    /// The root's current interval offsets `(ξ_l, ξ_r)`.
    pub fn xi(&self) -> (Value, Value) {
        self.root_xi
    }

    /// The state shared by all POS-family protocols (see
    /// [`crate::adaptive::Adaptive`]).
    pub(crate) fn shared_state(&self) -> (Value, Counts, &[Value]) {
        (self.root_filter, self.counts, self.sensors.prev())
    }

    /// Adopts shared state exported by a sibling protocol. Ξ restarts
    /// degenerate and re-adapts from the quantile trend.
    pub(crate) fn adopt(&mut self, n: usize, filter: Value, counts: Counts, prev: &[Value]) {
        self.root_filter = filter;
        self.counts = counts;
        self.root_xi = (0, 0);
        self.root_history = VecDeque::from(vec![filter]);
        self.sensors.start(n, prev, filter);
        self.node_xi = vec![(0, 0); n];
        self.node_history = vec![VecDeque::from(vec![filter]); n];
        self.initialized = true;
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let out = run_init(net, values, self.query, self.config.init);
        let q = out.quantile;
        self.counts = out.counts;
        self.root_filter = q;
        let xi = match &out.sorted {
            Some(sorted) if !sorted.is_empty() => {
                let k_avail = self.query.k.min(sorted.len() as u64);
                match self.config.xi_init {
                    XiInit::MeanGap => initial_xi_mean_gap(sorted, k_avail, self.config.c),
                    XiInit::MedianGap => initial_xi_median_gap(sorted, k_avail),
                }
            }
            // §4.2.1 for b-ary init: a representative refinement
            // interval's length divided by its candidate count.
            _ => match out.last_interval {
                Some((width, count)) if count > 0 => {
                    (self.config.c * width as f64 / count as f64).ceil() as Value
                }
                _ => 1,
            },
        }
        .max(1);
        self.root_xi = (-xi, xi);
        self.root_history = VecDeque::with_capacity(self.config.m);
        self.root_history.push_back(q);

        // Every node starts from the init filter and Ξ (see crate::filter).
        let n = net.len();
        self.sensors.start(n, values, q);
        self.node_xi = vec![(-xi, xi); n];
        self.node_history = vec![VecDeque::with_capacity(self.config.m); n];
        let room = crate::retrieval::LIST_ROOM;
        self.validations.fill(net.tree(), || ValidationPayload {
            extra: ValueList::with_capacity(room),
            ..ValidationPayload::empty(HintStyle::MaxDiff)
        });
        self.lists
            .fill(net.tree(), || ValueList::with_capacity(room));

        // Filter broadcast carries the tuple (v_k, ξ) (§4.2.1).
        let bits = PayloadSize::new(net.sizes()).values(2).bits();
        self.sensors.broadcast(net, bits, q);
        for history in &mut self.node_history {
            history.push_back(q);
        }
        self.initialized = true;
        q
    }

    /// One refinement convergecast requesting the `f` extreme values in
    /// `[lo, hi]`; intermediate nodes prune to the top `f` (+ ties).
    /// Returns the values that reached the root, kept in `lists`.
    #[allow(clippy::too_many_arguments)]
    fn refine<'s>(
        net: &mut Network,
        lists: &'s mut WaveStore<ValueList>,
        sensors: &mut Sensors<Value>,
        values: &[Value],
        lo: Value,
        hi: Value,
        f: u64,
        largest: bool,
    ) -> &'s mut [Value] {
        net.set_phase(wsn_net::Phase::Refinement);
        // Request: f plus the interval bounds.
        let bits = PayloadSize::new(net.sizes()).counters(1).values(2).bits();
        let respond = values_inside(sensors.request(net, bits), values, lo, hi);
        let f = f as usize;
        let prune = |_: NodeId, l: &mut ValueList| {
            if largest {
                l.keep_largest_with_ties(f);
            } else {
                l.keep_smallest_with_ties(f);
            }
        };
        delivered(net.convergecast_in(lists, respond, prune))
    }

    /// Appends `q` to a quantile history and derives the new `(ξ_l, ξ_r)`.
    fn update_history(history: &mut VecDeque<Value>, m: usize, q: Value) -> (Value, Value) {
        if history.len() == m {
            history.pop_front();
        }
        history.push_back(q);
        if history.len() < 2 {
            return (0, 0);
        }
        let mut xi_l = 0;
        let mut xi_r = 0;
        for w in 0..history.len() - 1 {
            let delta = history[w + 1] - history[w];
            xi_l = xi_l.min(delta);
            xi_r = xi_r.max(delta);
        }
        (xi_l, xi_r)
    }

    /// Concludes the round: broadcasts the new quantile when it changed and
    /// updates every node's filter, ξ and history (nodes infer "unchanged"
    /// from the absence of a broadcast, §4.2.2).
    fn conclude(&mut self, net: &mut Network, q: Value) {
        // The filter broadcast disseminates the refined answer.
        net.set_phase(wsn_net::Phase::Refinement);
        let changed = q != self.root_filter;
        self.root_filter = q;
        self.root_xi = Self::update_history(&mut self.root_history, self.config.m, q);

        if changed {
            let bits = net.sizes().value_bits;
            self.sensors.broadcast(net, bits, q);
        } else {
            self.sensors.install_everywhere(q);
        }
        let histories = self.node_xi.iter_mut().zip(&mut self.node_history);
        for (i, (xi, history)) in histories.enumerate() {
            *xi = Self::update_history(history, self.config.m, self.sensors.filter(i));
        }
    }
}

impl ContinuousQuantile for Iq {
    fn name(&self) -> &'static str {
        "IQ"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;

        // --- Validation (counters + hint + multiset A) ---
        net.set_phase(wsn_net::Phase::Validation);
        // Incomplete validations corrupt the maintained counts; re-issue
        // the wave for missing subtrees when wave recovery is enabled,
        // rewriting each contribution from the same inputs (`prev` only
        // rolls forward afterwards).
        let (sensors, node_xi) = (&self.sensors, &self.node_xi);
        let changed = |id: NodeId, slot: &mut Option<ValidationPayload>| {
            let idx = id.index();
            let (old, filter) = sensors.node(idx);
            let xi = Some(node_xi[idx]);
            write_node_validation(slot, old, values[idx - 1], filter, HintStyle::MaxDiff, xi)
        };
        let validation = recovery::collect_with_recovery(net, &mut self.validations, changed);
        self.sensors.roll(values);

        let (a_set, max_diff) = match validation {
            Some(v) => {
                self.counts = self.counts.moved(&v.counters);
                (&mut v.extra.vals[..], v.max_diff)
            }
            None => (&mut [][..], 0),
        };
        a_set.sort_unstable();
        self.last_a_size = a_set.len();

        let k = self.query.k;
        let q_old = self.root_filter;
        let n_total = self.counts.n();
        let Counts { l, e, .. } = self.counts;

        let result = match self.counts.quantile_moved(k) {
            None => q_old,
            Some(Direction::Down) => {
                // a: values of A below the old quantile (Fig. 3).
                let a = a_set.partition_point(|&x| x < q_old) as u64;
                if l - a < k {
                    // The new k-th value is inside A (§4.2.2).
                    let idx = (a - (l - k) - 1) as usize;
                    let q = a_set[idx.min(a_set.len() - 1)];
                    let lt = a_set[..a as usize].partition_point(|&x| x < q) as u64;
                    let lnew = (l - a) + lt;
                    let enew = a_set.iter().filter(|&&x| x == q).count() as u64;
                    self.counts = Counts::new(lnew, enew, n_total);
                    q
                } else {
                    // One refinement: the f₁ largest values below Ξ.
                    let f1 = (l - a) - k + 1;
                    let hi = q_old + self.root_xi.0 - 1;
                    let lo = if self.config.use_hints && max_diff > 0 {
                        (q_old - max_diff as Value).max(self.query.range_min)
                    } else {
                        self.query.range_min
                    };
                    self.last_refinements += 1;
                    let (lists, sensors) = (&mut self.lists, &mut self.sensors);
                    let r = Self::refine(net, lists, sensors, values, lo, hi, f1, true);
                    r.sort_unstable_by(|x, y| y.cmp(x)); // descending
                    if (r.len() as u64) < f1 {
                        q_old // inconsistency: only possible under loss
                    } else {
                        let q = r[f1 as usize - 1];
                        let count_ge = r.iter().filter(|&&x| x >= q).count() as u64;
                        let lnew = (l - a).saturating_sub(count_ge);
                        let enew = r.iter().filter(|&&x| x == q).count() as u64;
                        self.counts = Counts::new(lnew, enew, n_total);
                        q
                    }
                }
            }
            Some(Direction::Up) => {
                let b = (a_set.len() - a_set.partition_point(|&x| x <= q_old)) as u64;
                if l + e + b >= k {
                    let skip = a_set.partition_point(|&x| x <= q_old);
                    let idx = skip + (k - (l + e) - 1) as usize;
                    let q = a_set[idx.min(a_set.len() - 1)];
                    let gt_before = a_set[skip..].partition_point(|&x| x < q) as u64;
                    let lnew = (l + e) + gt_before;
                    let enew = a_set.iter().filter(|&&x| x == q).count() as u64;
                    self.counts = Counts::new(lnew, enew, n_total);
                    q
                } else {
                    // One refinement: the f₂ smallest values above Ξ.
                    let f2 = k - (l + e + b);
                    let lo = q_old + self.root_xi.1 + 1;
                    let hi = if self.config.use_hints && max_diff > 0 {
                        (q_old + max_diff as Value).min(self.query.range_max)
                    } else {
                        self.query.range_max
                    };
                    self.last_refinements += 1;
                    let (lists, sensors) = (&mut self.lists, &mut self.sensors);
                    let r = Self::refine(net, lists, sensors, values, lo, hi, f2, false);
                    r.sort_unstable();
                    if (r.len() as u64) < f2 {
                        q_old
                    } else {
                        let q = r[f2 as usize - 1];
                        let lt = r.iter().filter(|&&x| x < q).count() as u64;
                        let lnew = (l + e + b) + lt;
                        let enew = r.iter().filter(|&&x| x == q).count() as u64;
                        self.counts = Counts::new(lnew, enew, n_total);
                        q
                    }
                }
            }
        };

        self.conclude(net, result);
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
            .map(|i| 300 + (i as Value * 17) % 120 + ((t as Value * 5) % 200))
            .collect()
    }

    #[test]
    fn iq_is_exact_over_many_rounds() {
        for config in [
            IqConfig::default(),
            IqConfig {
                use_hints: false,
                ..IqConfig::default()
            },
            IqConfig {
                xi_init: XiInit::MedianGap,
                m: 6,
                ..IqConfig::default()
            },
        ] {
            let n = 30;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, 1023);
            let mut iq = Iq::new(query, config);
            for t in 0..50 {
                let values = drifting_values(n, t);
                let got = iq.round(&mut net, &values);
                assert_eq!(
                    got,
                    rank::kth_smallest(&values, query.k),
                    "round {t}, cfg {config:?}"
                );
            }
        }
    }

    #[test]
    fn at_most_one_refinement_per_round() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 100_000);
        let mut iq = Iq::new(query, IqConfig::default());
        for t in 0..30 {
            // Erratic jumps to force refinements.
            let values: Vec<Value> = (0..n)
                .map(|i| (i as Value * 997 + t as Value * 7919) % 100_000)
                .collect();
            let got = iq.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
            assert!(iq.last_refinements() <= 1, "round {t}");
        }
    }

    #[test]
    fn steady_trend_avoids_refinements() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 10_000);
        let mut iq = Iq::new(query, IqConfig::default());
        let mut refinements = 0;
        for t in 0..40 {
            // Uniform upward drift of 3 per round: after Ξ adapts, the new
            // quantile is always inside Ξ.
            let values: Vec<Value> = (0..n)
                .map(|i| 1000 + i as Value * 10 + t as Value * 3)
                .collect();
            let got = iq.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k));
            if t > 5 {
                refinements += iq.last_refinements();
            }
        }
        assert_eq!(refinements, 0, "adapted Ξ should absorb a steady trend");
    }

    #[test]
    fn xi_tracks_trend_direction() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 10_000);
        let mut iq = Iq::new(query, IqConfig::default());
        for t in 0..10 {
            let values: Vec<Value> = (0..n).map(|i| 1000 + i as Value + t as Value * 5).collect();
            iq.round(&mut net, &values);
        }
        let (xl, xr) = iq.xi();
        assert_eq!(xl, 0, "upward trend zeroes ξ_l (§4.2.2)");
        assert!(xr > 0, "upward trend grows ξ_r");
    }

    #[test]
    fn unchanged_quantile_is_silent_except_xi_members() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut iq = Iq::new(query, IqConfig::default());
        let values = drifting_values(n, 1);
        iq.round(&mut net, &values);
        iq.round(&mut net, &values);
        // Third identical round: Ξ has collapsed ((0,0) deltas) and nothing
        // moves — zero traffic.
        let before = net.stats().messages;
        iq.round(&mut net, &values);
        assert_eq!(net.stats().messages, before);
    }

    #[test]
    fn exact_with_duplicates() {
        let n = 18;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 31);
        let mut iq = Iq::new(query, IqConfig::default());
        for t in 0..15 {
            let values: Vec<Value> = (0..n)
                .map(|i| ((i + t as usize) % 6) as Value * 3)
                .collect();
            assert_eq!(
                iq.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "t={t}"
            );
        }
    }

    #[test]
    fn exact_for_extreme_ranks() {
        let n = 20;
        for &k in &[1u64, 4, 19, 20] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 2047,
            };
            let mut iq = Iq::new(query, IqConfig::default());
            for t in 0..20 {
                let values = drifting_values(n, t * 2);
                assert_eq!(
                    iq.round(&mut net, &values),
                    rank::kth_smallest(&values, k),
                    "k={k} t={t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_history_window() {
        let _ = Iq::new(
            QueryConfig::median(10, 0, 100),
            IqConfig {
                m: 1,
                ..IqConfig::default()
            },
        );
    }
}
