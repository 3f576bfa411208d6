//! Snapshot quantile queries — the cost-model `b`-ary search of the
//! authors' prior work \[21\], which both HBC (§4.1) and the protocol
//! initializations (§3.2, §4.2.1) build on.
//!
//! A snapshot query knows nothing about previous rounds: the root descends
//! from the full value universe `[r_min, r_max]` with histogram
//! convergecasts of `b = b_opt` buckets (`b_opt` from
//! [`crate::cost_model`]) until the k-th value is isolated, optionally
//! short-circuiting through direct value retrieval (\[21\]).

use wsn_net::Network;

use crate::cost_model;
use crate::descent::{descend, DescentConfig, DescentStore};
use crate::protocol::QueryConfig;
use crate::rank::Counts;
use crate::retrieval::RankAnchor;
use crate::Value;

/// Result of a snapshot query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotOutcome {
    /// The k-th smallest value.
    pub quantile: Value,
    /// Counts relative to the quantile — exactly the state a continuous
    /// protocol needs to take over (§3.2).
    pub counts: Counts,
    /// Histogram/retrieval convergecasts spent.
    pub refinements: u32,
    /// Width and occupancy of the last refinement interval, when a
    /// histogram request was made — what IQ's §4.2.1 uses to size its
    /// initial Ξ ("selecting a representative refinement interval and
    /// dividing its length by the number of candidates contained in it").
    pub last_interval: Option<(u64, u64)>,
}

/// A snapshot φ-quantile query using the \[21\] cost model.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotQuery {
    query: QueryConfig,
    b: usize,
    direct_retrieval: bool,
}

impl SnapshotQuery {
    /// Creates a snapshot query; `b` comes from the cost model.
    pub fn new(query: QueryConfig, sizes: &wsn_net::MessageSizes) -> Self {
        SnapshotQuery {
            query,
            b: cost_model::optimal_buckets(sizes, query.range_size()),
            direct_retrieval: true,
        }
    }

    /// Overrides the bucket count (e.g. `b = 2` reproduces the binary
    /// search of Shamir \[22\] / POS \[9\]).
    pub fn with_buckets(mut self, b: usize) -> Self {
        assert!(b >= 2, "need at least two buckets");
        self.b = b;
        self
    }

    /// Disables direct value retrieval (ablation).
    pub fn without_direct_retrieval(mut self) -> Self {
        self.direct_retrieval = false;
        self
    }

    /// The bucket count in use.
    pub fn buckets(&self) -> usize {
        self.b
    }

    /// Executes the query over the current measurements. Assumes (like
    /// §5.1.6 does for TAG) that the root knows `|N|`.
    pub fn run(&self, net: &mut Network, values: &[Value]) -> Option<SnapshotOutcome> {
        let n_total = values.len() as u64;
        let capacity = net.sizes().values_per_message() as u64;
        let cfg = DescentConfig {
            b: self.b,
            k: self.query.k,
            n_total,
            direct_capacity: self.direct_retrieval.then_some(capacity),
            max_refinements: 200,
        };
        let mut refinements = 0;
        let outcome = descend(
            net,
            &mut DescentStore::default(),
            values,
            cfg,
            self.query.range_min,
            self.query.range_max,
            RankAnchor::BelowLo(0),
            Some(n_total),
            &mut refinements,
            |_, _, _| {},
        )?;
        Some(SnapshotOutcome {
            quantile: outcome.quantile,
            counts: outcome.counts,
            refinements,
            last_interval: outcome.last_request.map(|(lo, hi)| {
                let width = (hi - lo + 1) as u64;
                let count = outcome.last_request_counts.map(|c| c.e).unwrap_or_default();
                (width, count)
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::kth_smallest;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn snapshot_finds_every_rank() {
        let n = 30;
        let values: Vec<Value> = (0..n).map(|i| ((i * 37) % 500) as Value).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for k in [1u64, 7, 15, 23, 30] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 511,
            };
            let snap =
                SnapshotQuery::new(query, &MessageSizes::default()).without_direct_retrieval();
            let out = snap.run(&mut net, &values).unwrap();
            assert_eq!(out.quantile, sorted[k as usize - 1], "k={k}");
            assert!(out.counts.is_valid_quantile(k));
            assert!(out.refinements >= 1);
        }
    }

    #[test]
    fn binary_override_reproduces_b2_search() {
        let n = 20;
        let values: Vec<Value> = (0..n).map(|i| i as Value * 13).collect();
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let snap = SnapshotQuery::new(query, &MessageSizes::default())
            .with_buckets(2)
            .without_direct_retrieval();
        assert_eq!(snap.buckets(), 2);
        let out = snap.run(&mut net, &values).unwrap();
        assert_eq!(out.quantile, kth_smallest(&values, query.k));
        // Binary search: roughly log2(1024) = 10 iterations.
        assert!(
            out.refinements >= 8 && out.refinements <= 12,
            "{}",
            out.refinements
        );
    }

    #[test]
    fn cost_model_b_beats_binary_in_refinements() {
        let n = 40;
        let values: Vec<Value> = (0..n).map(|i| ((i * 97) % 4096) as Value).collect();
        let query = QueryConfig::median(n, 0, 4095);
        let sizes = MessageSizes::default();
        let run = |snap: SnapshotQuery| {
            let mut net = line_net(n);
            snap.run(&mut net, &values).unwrap().refinements
        };
        let opt = run(SnapshotQuery::new(query, &sizes).without_direct_retrieval());
        let bin = run(SnapshotQuery::new(query, &sizes)
            .with_buckets(2)
            .without_direct_retrieval());
        assert!(opt < bin, "b_opt {opt} vs binary {bin}");
    }

    #[test]
    fn direct_retrieval_collapses_small_networks() {
        let n = 20; // everything fits one message
        let values: Vec<Value> = (0..n).map(|i| i as Value).collect();
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1 << 20);
        let snap = SnapshotQuery::new(query, &MessageSizes::default());
        let out = snap.run(&mut net, &values).unwrap();
        assert_eq!(out.quantile, kth_smallest(&values, query.k));
        assert_eq!(out.refinements, 1);
    }

    #[test]
    fn last_interval_feeds_xi_estimation() {
        let n = 30;
        let values: Vec<Value> = (0..n).map(|i| i as Value * 11).collect();
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let snap = SnapshotQuery::new(query, &MessageSizes::default()).without_direct_retrieval();
        let out = snap.run(&mut net, &values).unwrap();
        let (width, count) = out.last_interval.unwrap();
        assert!(width >= 1);
        assert!(count >= 1, "the quantile sits in the last interval");
    }
}
