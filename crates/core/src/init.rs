//! Initialization-round helpers.
//!
//! All continuous protocols bootstrap with a TAG-equivalent full collection
//! (§3.2: "During the initialization round t = 0, POS computes the first
//! quantile by using an aggregation technique equivalent to TAG, i.e., all
//! measurements are forwarded to the root node"). IQ reuses the collected
//! distribution to size its initial interval Ξ (§4.2.1).

use wsn_net::Network;

use crate::payloads::ValueList;
use crate::protocol::{measurement, QueryConfig};
use crate::rank::Counts;
use crate::snapshot::SnapshotQuery;
use crate::Value;

/// How a continuous protocol bootstraps its first quantile (§3.2 / §4.2.1:
/// "The initialization can be performed by using TAG or by using a
/// histogram-based solution like the one described in \[21\]").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// TAG-equivalent full collection (what POS does; the default).
    #[default]
    Tag,
    /// The cost-model `b`-ary snapshot search of \[21\].
    BarySearch,
}

/// What an initialization round produced.
#[derive(Debug, Clone)]
pub struct InitOutcome {
    /// The initial quantile `v_k⁰`.
    pub quantile: Value,
    /// Root counts relative to it.
    pub counts: Counts,
    /// The full sorted collection (TAG strategy only).
    pub sorted: Option<Vec<Value>>,
    /// Width/occupancy of the last refinement interval (`b`-ary strategy),
    /// for IQ's Ξ sizing (§4.2.1).
    pub last_interval: Option<(u64, u64)>,
}

/// Runs the chosen initialization and returns the quantile plus whatever
/// distribution knowledge the strategy yields.
pub fn run_init(
    net: &mut Network,
    values: &[Value],
    query: QueryConfig,
    strategy: InitStrategy,
) -> InitOutcome {
    // Everything from here until the protocol's first validation —
    // including the filter broadcast callers issue afterwards — is
    // initialization traffic.
    net.set_phase(wsn_net::Phase::Init);
    match strategy {
        InitStrategy::Tag => {
            let sorted = collect_all(net, values);
            let quantile = quantile_from_sorted(&sorted, query.k, query.range_min);
            let counts = Counts::of(&sorted, quantile);
            InitOutcome {
                quantile,
                counts,
                sorted: Some(sorted),
                last_interval: None,
            }
        }
        InitStrategy::BarySearch => {
            let sizes = *net.sizes();
            let snap = SnapshotQuery::new(query, &sizes);
            match snap.run(net, values) {
                Some(out) => InitOutcome {
                    quantile: out.quantile,
                    counts: out.counts,
                    sorted: None,
                    last_interval: out.last_interval,
                },
                // Loss corrupted the init; start from a degenerate state
                // that the continuous rounds will repair.
                None => InitOutcome {
                    quantile: query.range_min,
                    counts: Counts {
                        l: 0,
                        e: 0,
                        g: values.len() as u64,
                    },
                    sorted: None,
                    last_interval: None,
                },
            }
        }
    }
}

/// Collects every sensor measurement at the root and returns them sorted
/// ascending. Charges the full convergecast cost.
pub fn collect_all(net: &mut Network, values: &[Value]) -> Vec<Value> {
    let collected = net
        .convergecast(|id| Some(ValueList::single(measurement(values, id))))
        .map(|l: ValueList| l.vals)
        .unwrap_or_default();
    let mut sorted = collected;
    sorted.sort_unstable();
    // Under message loss (§6 extension) the collection may be incomplete;
    // callers clamp the rank via `quantile_from_sorted`.
    sorted
}

/// The k-th value of an init collection, tolerating short collections
/// caused by message loss (clamps the rank; falls back to `fallback` when
/// nothing arrived at all).
pub fn quantile_from_sorted(sorted: &[Value], k: u64, fallback: Value) -> Value {
    if sorted.is_empty() {
        return fallback;
    }
    sorted[(k as usize - 1).min(sorted.len() - 1)]
}

/// IQ's initial half-width `ξ` from the collected distribution: the mean
/// gap below the quantile, `ξ = c · (v_k − v_1)/k` (§4.2.1), rounded up so
/// a non-degenerate interval survives integer truncation. Floored at 1:
/// with a single sensor (`k = 1`) or a constant prefix the span is 0, and
/// a zero half-width would collapse IQ's interval Ξ to a point.
pub fn initial_xi_mean_gap(sorted: &[Value], k: u64, c: f64) -> Value {
    assert!(k >= 1 && (k as usize) <= sorted.len());
    let span = (sorted[k as usize - 1] - sorted[0]) as f64;
    ((c * span / k as f64).ceil() as Value).max(1)
}

/// IQ's outlier-robust alternative: the median gap between consecutive
/// values up to the quantile (§4.2.1).
pub fn initial_xi_median_gap(sorted: &[Value], k: u64) -> Value {
    assert!(k >= 1 && (k as usize) <= sorted.len());
    if k < 2 {
        return 1;
    }
    let mut gaps: Vec<Value> = sorted[..k as usize]
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    let mid = gaps.len() / 2;
    let (_, m, _) = gaps.select_nth_unstable(mid);
    (*m).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};

    fn line_net(sensors: usize) -> Network {
        let positions = (0..=sensors)
            .map(|i| Point::new(i as f64 * 8.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 10.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn mean_gap_xi() {
        // sorted = 0..=9, k = 5: span v_5 - v_1 = 4, xi = ceil(1 * 4/5) = 1.
        let sorted: Vec<Value> = (0..10).collect();
        assert_eq!(initial_xi_mean_gap(&sorted, 5, 1.0), 1);
        assert_eq!(initial_xi_mean_gap(&sorted, 5, 3.0), 3);
    }

    #[test]
    fn mean_gap_xi_survives_a_degenerate_span() {
        // One sensor (k = 1) or a constant prefix: span 0 must not collapse
        // IQ's interval to a point.
        assert_eq!(initial_xi_mean_gap(&[42], 1, 1.0), 1);
        assert_eq!(initial_xi_mean_gap(&[5, 5, 5, 9], 3, 1.0), 1);
    }

    #[test]
    fn single_sensor_init_is_exact_under_both_strategies() {
        // The 1-node network of the fuzzer's degenerate class: the sink has
        // exactly one sensor below it, k = 1, and both init strategies must
        // report that sensor's measurement.
        let query = QueryConfig::phi(0.5, 1, 0, 1023);
        for strategy in [InitStrategy::Tag, InitStrategy::BarySearch] {
            let mut net = line_net(1);
            let out = run_init(&mut net, &[77], query, strategy);
            assert_eq!(out.quantile, 77, "{strategy:?}");
            assert!(out.counts.is_valid_quantile(query.k), "{strategy:?}");
        }
    }

    #[test]
    fn empty_collection_falls_back_gracefully() {
        // A sink-only network is rejected at `Topology::build` ("need a
        // root and at least one sensor"), but message loss can still leave
        // an init collection empty — the quantile helper must fall back
        // instead of indexing.
        assert_eq!(quantile_from_sorted(&[], 1, -1), -1);
        assert_eq!(
            quantile_from_sorted(&[8], 5, -1),
            8,
            "short collections clamp the rank"
        );
    }

    #[test]
    fn median_gap_ignores_outliers() {
        // Gaps below k: 1,1,1,100 -> median gap 1 (mean would be ~26).
        let sorted = vec![0, 1, 2, 3, 103, 200];
        assert_eq!(initial_xi_median_gap(&sorted, 5), 1);
    }

    #[test]
    fn median_gap_floor_is_one() {
        let sorted = vec![5, 5, 5, 5];
        assert_eq!(initial_xi_median_gap(&sorted, 4), 1);
        assert_eq!(initial_xi_median_gap(&sorted, 1), 1);
    }
}
