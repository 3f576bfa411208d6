//! TAG exact quantile baseline (Madden et al. \[17\]).
//!
//! Every round, measurements flow to the root. With the §5.1.6 optimization
//! the root is assumed to know `|N|` and to have disseminated `k` once, so
//! each node only forwards the `k` smallest values of its subtree — the
//! worst-case `O(|N|)` per-node transmitted values the paper quotes.

use wsn_net::{Network, WaveStore};

use crate::payloads::ValueList;
use crate::protocol::{measurement, ContinuousQuantile, QueryConfig};
use crate::rank::kth_smallest_mut;
use crate::retrieval::delivered;
use crate::Value;

/// The TAG quantile protocol.
#[derive(Debug, Clone)]
pub struct Tag {
    query: QueryConfig,
    last: Option<Value>,
    /// Collection storage, reused every round.
    store: WaveStore<ValueList>,
}

impl Tag {
    /// Creates a TAG query for the given configuration.
    pub fn new(query: QueryConfig) -> Self {
        Tag {
            query,
            last: None,
            store: WaveStore::new(),
        }
    }

    /// The most recent result, if any round has run.
    pub fn last_quantile(&self) -> Option<Value> {
        self.last
    }
}

impl ContinuousQuantile for Tag {
    fn name(&self) -> &'static str {
        "TAG"
    }

    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value {
        // Every TAG round *is* the initialization collection (§3.2 calls
        // POS's init "an aggregation technique equivalent to TAG"), so its
        // traffic is attributed to the Init phase.
        net.set_phase(wsn_net::Phase::Init);
        let k = self.query.k as usize;
        let own = |id, slot: &mut Option<ValueList>| {
            let v = measurement(values, id);
            slot.get_or_insert_with(ValueList::default).set_single(v);
            true
        };
        let prune = |_, l: &mut ValueList| l.keep_smallest(k);
        let collected = delivered(net.convergecast_in(&mut self.store, own, prune));
        // The root holds the k smallest network values; the answer is their
        // maximum. An empty collection (total message loss) keeps the last
        // answer.
        let q = if collected.is_empty() {
            self.last.unwrap_or(self.query.range_min)
        } else {
            let k = self.query.k.min(collected.len() as u64).max(1);
            kth_smallest_mut(collected, k)
        };
        self.last = Some(q);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> wsn_net::Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        wsn_net::Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn tag_returns_exact_median_every_round() {
        let mut net = line_net(9);
        let query = QueryConfig::median(9, 0, 100);
        let mut tag = Tag::new(query);
        for round in 0..5 {
            let values: Vec<Value> = (0..9)
                .map(|i| ((i * 13 + round * 7) % 100) as Value)
                .collect();
            let got = tag.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {round}");
        }
        assert_eq!(tag.last_quantile(), Some(tag.last.unwrap()));
    }

    #[test]
    fn intermediate_nodes_forward_at_most_k_values() {
        let mut net = line_net(10);
        let query = QueryConfig {
            k: 3,
            range_min: 0,
            range_max: 100,
        };
        let mut tag = Tag::new(query);
        let values: Vec<Value> = (0..10).map(|i| i as Value).collect();
        tag.round(&mut net, &values);
        // Along a 10-node line, unpruned forwarding would carry
        // 1+2+...+10 = 55 values; with k = 3 pruning it is 1+2+3*8 = 27.
        assert_eq!(net.stats().values, 27);
    }

    #[test]
    fn works_for_extreme_ranks() {
        let mut net = line_net(7);
        let values: Vec<Value> = vec![4, 9, 2, 7, 7, 1, 5];
        let mut min_q = Tag::new(QueryConfig {
            k: 1,
            range_min: 0,
            range_max: 10,
        });
        assert_eq!(min_q.round(&mut net, &values), 1);
        let mut max_q = Tag::new(QueryConfig {
            k: 7,
            range_min: 0,
            range_max: 10,
        });
        assert_eq!(max_q.round(&mut net, &values), 9);
    }
}
