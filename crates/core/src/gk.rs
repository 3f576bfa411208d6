//! GK — the summary-based exact method of §3.1 (\[10\]): compute a
//! mergeable quantile summary in-network, use its rank bounds to narrow a
//! candidate interval, count exactly, and recurse — "transmitting
//! O(log³ |N|) values" instead of TAG's O(|N|).
//!
//! The paper classifies this as an exact *snapshot* technique and does not
//! evaluate it; we include it as an extension baseline (`exactcmp` sweep)
//! because it rounds out the design space: per-node cost independent of
//! the value range (unlike POS/HBC/LCLL) *and* sublinear in `|N|` (unlike
//! TAG/IQ validation) — at the price of ignoring temporal correlation
//! entirely (every round is a fresh snapshot).
//!
//! Each iteration is: (1) a [`RankSummary`] convergecast restricted to the
//! candidate interval, pruned to one message's worth of entries at every
//! hop; (2) an exact counting round-trip for the summary-derived
//! sub-interval; (3) direct value retrieval once few enough candidates
//! remain.

use wsn_net::{Aggregate, MessageSizes, Network, NodeBits, NodeId, WaveStore};

use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::retrieval::{direct_retrieval, RankAnchor, RetrievalStore};
use crate::summary::RankSummary;
use crate::Value;

/// Exact counting response: values below / inside a probed sub-interval.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CountPair {
    pub(crate) below: u64,
    pub(crate) inside: u64,
}

impl Aggregate for CountPair {
    fn merge(&mut self, other: Self) {
        self.below += other.below;
        self.inside += other.inside;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        2 * sizes.counter_bits
    }
}

/// The GK-style exact quantile protocol (per-round snapshot).
#[derive(Debug, Clone)]
pub struct Gk {
    query: QueryConfig,
    /// Summary entries per forwarded message (derived from payload size).
    capacity: usize,
    last: Option<Value>,
    last_iterations: u32,
    stores: Stores,
}

/// Hard cap on narrowing iterations per round (GK) or epoch (GKS).
const MAX_ITERATIONS: u32 = 64;

/// GK's and GKS's reception flags, summary and retrieval wave storage,
/// reused every round (scratch only, never observable state).
#[derive(Debug, Clone, Default)]
pub(crate) struct Stores {
    pub(crate) recv: NodeBits,
    summaries: WaveStore<RankSummary>,
    retrieval: RetrievalStore,
}

/// The candidate interval `[lo, hi]` of a narrowing loop, with the exact
/// numbers of values below `lo` and inside the interval.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidates {
    pub(crate) lo: Value,
    pub(crate) hi: Value,
    pub(crate) below: u64,
    pub(crate) inside: u64,
}

/// The narrowing loop of GK and GKS, from `from` towards rank `k`: a
/// summary pass over the candidates, then an exact counting pass over the
/// sub-interval the summary says holds rank `k` (a bisection when that
/// makes no progress), until one value is left or few enough candidates
/// for direct retrieval. `early_exit(summary, below)` may end the loop
/// with an answer after each summary pass (GKS's certified ε exit). When
/// `iterations` reaches [`MAX_ITERATIONS`] or loss makes the counts
/// disagree, `fallback` — else `lo` — is the answer. Returns the answer
/// and the interval it was found in.
#[allow(clippy::too_many_arguments)]
pub(crate) fn narrow(
    net: &mut Network,
    stores: &mut Stores,
    capacity: usize,
    values: &[Value],
    k: u64,
    fallback: Option<Value>,
    iterations: &mut u32,
    from: Candidates,
    early_exit: impl Fn(&RankSummary, u64) -> Option<Value>,
) -> (Value, (Value, Value)) {
    let n_total = values.len() as u64;
    let capacity_direct = net.sizes().values_per_message() as u64;
    let Candidates {
        mut lo,
        mut hi,
        mut below,
        mut inside,
    } = from;
    let answer = loop {
        if *iterations >= MAX_ITERATIONS {
            break fallback.unwrap_or(lo);
        }
        if lo == hi {
            break lo;
        }
        if inside <= capacity_direct {
            *iterations += 1;
            let anchor = RankAnchor::BelowLo(below);
            let store = &mut stores.retrieval;
            let r = direct_retrieval(net, store, values, lo, hi, k, n_total, anchor);
            break match r.quantile {
                Some(q) => q,
                None => fallback.unwrap_or(lo),
            };
        }

        *iterations += 1;
        let (summaries, recv) = (&mut stores.summaries, &mut stores.recv);
        let summary = summary_pass(net, summaries, recv, capacity, values, lo, hi);
        let rank_in = k.saturating_sub(below);
        let Some(summary) = summary.filter(|s| rank_in != 0 && rank_in <= s.count) else {
            break fallback.unwrap_or(lo); // loss inconsistency
        };
        if let Some(q) = early_exit(summary, below) {
            break q;
        }
        let Some((s_lo, s_hi)) = summary.enclosing_interval(rank_in) else {
            break fallback.unwrap_or(lo);
        };

        // Exact counting pins the anchor for the next iteration.
        let counts = counting_pass(net, &mut stores.recv, values, lo, hi, s_lo, s_hi);
        let new_below = below + counts.below;
        if k <= new_below || k > new_below + counts.inside {
            // Bounds were conservative but the count disagrees — only
            // possible under loss.
            break fallback.unwrap_or(lo);
        }
        if (s_lo, s_hi) == (lo, hi) && counts.inside == inside {
            // No progress (pathological duplicates): bisect instead.
            let mid = lo + (hi - lo) / 2;
            let half = counting_pass(net, &mut stores.recv, values, lo, hi, lo, mid);
            *iterations += 1;
            if k <= below + half.inside {
                hi = mid;
                inside = half.inside;
            } else {
                below += half.inside;
                lo = mid + 1;
                inside -= half.inside;
            }
            continue;
        }
        lo = s_lo;
        hi = s_hi;
        below = new_below;
        inside = counts.inside;
    };
    (answer, (lo, hi))
}

impl Gk {
    /// Creates a GK query; the summary capacity is whatever fits one
    /// payload (entries cost one value plus two counters).
    pub fn new(query: QueryConfig, sizes: &MessageSizes) -> Self {
        let entry_bits = sizes.summary_entry_bits();
        let capacity = ((sizes.max_payload_bits - sizes.counter_bits) / entry_bits).max(4) as usize;
        Gk {
            query,
            capacity,
            last: None,
            last_iterations: 0,
            stores: Stores::default(),
        }
    }

    /// Summary capacity per message.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Narrowing iterations used by the last round.
    pub fn last_iterations(&self) -> u32 {
        self.last_iterations
    }
}

/// Summary convergecast over the values inside `[lo, hi]` of the sensors
/// that hear the interval announcement, pruned to `capacity` entries at
/// every hop; `None` when no value answered. GK's and GKS's.
pub(crate) fn summary_pass<'s>(
    net: &mut Network,
    summaries: &'s mut WaveStore<RankSummary>,
    recv: &mut NodeBits,
    capacity: usize,
    values: &[Value],
    lo: Value,
    hi: Value,
) -> Option<&'s mut RankSummary> {
    net.broadcast_into(net.sizes().refinement_request_bits(), recv);
    let respond = |id: NodeId, slot: &mut Option<RankSummary>| {
        let v = values[id.index() - 1];
        let inside = recv.get(id.index()) && v >= lo && v <= hi;
        if inside {
            slot.get_or_insert_with(RankSummary::empty).set_singleton(v);
        }
        inside
    };
    net.convergecast_in(summaries, respond, |_, s: &mut RankSummary| {
        s.prune(capacity)
    })
}

/// Exact counting round-trip: how many values of `[lo, hi]` fall below
/// `probe_lo`, and how many inside `[probe_lo, probe_hi]`. GK's and GKS's.
pub(crate) fn counting_pass(
    net: &mut Network,
    recv: &mut NodeBits,
    values: &[Value],
    lo: Value,
    hi: Value,
    probe_lo: Value,
    probe_hi: Value,
) -> CountPair {
    let bits = 2 * net.sizes().value_bits + net.sizes().refinement_request_bits();
    net.broadcast_into(bits, recv);
    let count = |id: NodeId| {
        let v = values[id.index() - 1];
        if !recv.get(id.index()) || v < lo || v > hi {
            None
        } else if v < probe_lo {
            Some(CountPair {
                below: 1,
                inside: 0,
            })
        } else if v <= probe_hi {
            Some(CountPair {
                below: 0,
                inside: 1,
            })
        } else {
            None
        }
    };
    net.convergecast(count).unwrap_or_default()
}

impl ContinuousQuantile for Gk {
    fn name(&self) -> &'static str {
        "GK"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if self.last.is_none() {
            // The retrieval wave is answered by a different few nodes each
            // round: give its slots storage up front.
            self.stores.retrieval.fill(net.tree());
        }
        self.last_iterations = 0;
        let all = Candidates {
            lo: self.query.range_min,
            hi: self.query.range_max,
            below: 0,
            inside: values.len() as u64,
        };
        let (result, _) = narrow(
            net,
            &mut self.stores,
            self.capacity,
            values,
            self.query.k,
            self.last,
            &mut self.last_iterations,
            all,
            |_, _| None,
        );
        self.last = Some(result);
        result
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

    #[test]
    fn gk_is_exact_over_many_rounds() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 65_535);
        let mut gk = Gk::new(query, &MessageSizes::default());
        for t in 0..20u32 {
            let values: Vec<Value> = (0..n)
                .map(|i| {
                    ((i as u32).wrapping_mul(2654435761).wrapping_add(t * 97) % 60_000) as Value
                })
                .collect();
            assert_eq!(
                gk.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "round {t}"
            );
        }
    }

    #[test]
    fn gk_is_exact_for_every_rank() {
        let n = 30;
        let values: Vec<Value> = (0..n).map(|i| ((i * 313) % 1000) as Value).collect();
        for k in [1u64, 7, 15, 23, 30] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 1023,
            };
            let mut gk = Gk::new(query, &MessageSizes::default());
            assert_eq!(gk.round(&mut net, &values), rank::kth_smallest(&values, k));
        }
    }

    #[test]
    fn duplicates_trigger_bisection_fallback_safely() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut gk = Gk::new(query, &MessageSizes::default());
        let values = vec![512; n];
        assert_eq!(gk.round(&mut net, &values), 512);
    }

    #[test]
    fn iterations_stay_logarithmic() {
        let n = 60;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, (1 << 30) - 1);
        let mut gk = Gk::new(query, &MessageSizes::default());
        let values: Vec<Value> = (0..n)
            .map(|i| ((i as i64 * 7_777_777) % (1 << 30)).abs())
            .collect();
        assert_eq!(
            gk.round(&mut net, &values),
            rank::kth_smallest(&values, query.k)
        );
        assert!(
            gk.last_iterations() <= 8,
            "iterations {}",
            gk.last_iterations()
        );
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
    fn per_node_values_are_sublinear_in_n() {
        // The headline property of [10]: intermediate nodes forward a
        // bounded summary, not the whole subtree. (On realistic tree
        // depths; a degenerate line topology compounds prune slack, which
        // is the known weakness of merge-prune summaries on paths.)
        // (per-hop value average, hotspot energy)
        let run = |n: usize, alg: &mut dyn ContinuousQuantile| {
            let mut net = grid_net(n);
            let values: Vec<Value> = (0..n).map(|i| (i * 131 % 60_000) as Value).collect();
            alg.round(&mut net, &values);
            (
                net.stats().values as f64 / n as f64,
                net.ledger().max_sensor_consumption(),
            )
        };
        let sizes = MessageSizes::default();
        // Both sizes engage the summary machinery (> 64 candidates).
        let q_small = QueryConfig::median(160, 0, 65_535);
        let q_large = QueryConfig::median(640, 0, 65_535);
        let (small, gk_hot_small) = run(160, &mut Gk::new(q_small, &sizes));
        let (large, gk_hot_large) = run(640, &mut Gk::new(q_large, &sizes));
        assert!(
            large < small * 2.5,
            "per-hop values grew {small} -> {large}"
        );
        // The paper's metric is the hotspot. TAG's funnel node forwards
        // k = |N|/2 values, so its hotspot scales ~linearly in |N|; GK's
        // bounded summaries must scale much slower (the O(log³) claim).
        let (_, tag_hot_small) = run(160, &mut crate::Tag::new(q_small));
        let (_, tag_hot_large) = run(640, &mut crate::Tag::new(q_large));
        let gk_growth = gk_hot_large / gk_hot_small;
        let tag_growth = tag_hot_large / tag_hot_small;
        assert!(
            gk_growth < tag_growth * 0.85,
            "GK hotspot growth ({gk_growth:.2}x) should be well below TAG's ({tag_growth:.2}x)"
        );
    }

    #[test]
    fn capacity_derived_from_message_size() {
        let gk = Gk::new(QueryConfig::median(10, 0, 100), &MessageSizes::default());
        // (1024 - 16) / 48 = 21 entries.
        assert_eq!(gk.capacity(), 21);
    }
}
