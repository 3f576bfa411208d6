//! Direct value retrieval — the "send values directly if the refinement
//! interval is nearly empty" improvement from \[21\], used by POS, HBC and
//! LCLL.
//!
//! The root broadcasts an interval request; every node whose measurement
//! lies inside responds, lists are merged on the way up, and the root
//! selects the k-th value from the received multiset.

use wsn_net::{Network, NodeBits, NodeId, RoutingTree, WaveStore};

use crate::payloads::ValueList;
use crate::rank::{kth_smallest_mut, Counts};
use crate::Value;

/// What a direct retrieval reuses from one call to the next: the request's
/// reception mask and the response wave's payload storage.
#[derive(Debug, Clone, Default)]
pub struct RetrievalStore {
    received: NodeBits,
    lists: WaveStore<ValueList>,
}

/// Room for measurements every slot of a retrieval or refinement wave's
/// value lists starts with: a responder's own value and a few merged ones.
pub(crate) const LIST_ROOM: usize = 4;

/// A node's answer to a request for the values in `[lo, hi]`: its own
/// measurement, written into `slot`, when it received the request and the
/// value lies inside — a contribution for [`Network::convergecast_in`].
pub(crate) fn values_inside<'a>(
    received: &'a NodeBits,
    values: &'a [Value],
    lo: Value,
    hi: Value,
) -> impl FnMut(NodeId, &mut Option<ValueList>) -> bool + 'a {
    move |id, slot| {
        let v = values[id.index() - 1];
        let inside = received.get(id.index()) && v >= lo && v <= hi;
        if inside {
            slot.get_or_insert_with(ValueList::default).set_single(v);
        }
        inside
    }
}

/// The measurements a value-list wave delivered to the root (none when
/// every node stayed silent).
pub(crate) fn delivered(result: Option<&mut ValueList>) -> &mut [Value] {
    result.map_or(&mut [][..], |l| &mut l.vals[..])
}

impl RetrievalStore {
    /// Gives the value-list slots a wave over `tree` can need their storage
    /// up front (see [`WaveStore::fill`]).
    pub fn fill(&mut self, tree: &RoutingTree) {
        self.lists
            .fill(tree, || ValueList::with_capacity(LIST_ROOM));
    }
}

/// What the root knows about ranks outside a retrieval interval `[lo, hi]`:
/// either the exact count of values `< lo`, or the exact count of values
/// `≤ hi` (from which `< lo` follows once the interval's content arrives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankAnchor {
    /// Exact number of network values strictly below `lo`.
    BelowLo(u64),
    /// Exact number of network values at most `hi`.
    AtMostHi(u64),
}

impl RankAnchor {
    /// The exact count of values `< lo`, given that `inside` values lie in
    /// `[lo, hi]`.
    pub(crate) fn below(self, inside: u64) -> u64 {
        match self {
            RankAnchor::BelowLo(b) => b,
            RankAnchor::AtMostHi(t) => t.saturating_sub(inside),
        }
    }
}

/// Result of a direct retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retrieved {
    /// The k-th value, or `None` when nothing was received (message loss).
    pub quantile: Option<Value>,
    /// Fresh root counts relative to `quantile` (meaningless when `None`).
    pub counts: Counts,
}

/// Broadcasts a request for all values in `[lo, hi]` and determines the
/// global k-th value from the responses. `n_total` is `|N|`.
#[allow(clippy::too_many_arguments)]
pub fn direct_retrieval(
    net: &mut Network,
    store: &mut RetrievalStore,
    values: &[Value],
    lo: Value,
    hi: Value,
    k: u64,
    n_total: u64,
    anchor: RankAnchor,
) -> Retrieved {
    let RetrievalStore { received, lists } = store;
    net.broadcast_into(net.sizes().refinement_request_bits(), received);
    let respond = values_inside(received, values, lo, hi);
    let collected = delivered(net.convergecast_in(lists, respond, |_, _| {}));

    if collected.is_empty() {
        return Retrieved {
            quantile: None,
            counts: Counts::default(),
        };
    }

    let below = anchor.below(collected.len() as u64);
    let rank_within = k.saturating_sub(below).max(1).min(collected.len() as u64);
    let q = kth_smallest_mut(collected, rank_within);

    let in_lt = collected.iter().filter(|&&v| v < q).count() as u64;
    let in_eq = collected.iter().filter(|&&v| v == q).count() as u64;
    Retrieved {
        quantile: Some(q),
        counts: Counts::new(below + in_lt, in_eq, n_total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn retrieval_finds_kth_with_below_anchor() {
        let mut net = line_net(10);
        let values: Vec<Value> = vec![1, 2, 3, 10, 11, 12, 13, 20, 21, 22];
        // k = 5 -> 11. Values < 10: three. Interval [10, 15].
        let r = direct_retrieval(
            &mut net,
            &mut RetrievalStore::default(),
            &values,
            10,
            15,
            5,
            10,
            RankAnchor::BelowLo(3),
        );
        assert_eq!(r.quantile, Some(11));
        assert_eq!(r.counts, Counts { l: 4, e: 1, g: 5 });
    }

    #[test]
    fn retrieval_finds_kth_with_atmost_anchor() {
        let mut net = line_net(10);
        let values: Vec<Value> = vec![1, 2, 3, 10, 11, 12, 13, 20, 21, 22];
        // #<= 15 is 7; interval [10, 15] holds 4 values, so below = 3.
        let r = direct_retrieval(
            &mut net,
            &mut RetrievalStore::default(),
            &values,
            10,
            15,
            5,
            10,
            RankAnchor::AtMostHi(7),
        );
        assert_eq!(r.quantile, Some(11));
    }

    #[test]
    fn retrieval_handles_duplicates() {
        let mut net = line_net(8);
        let values: Vec<Value> = vec![5, 5, 5, 7, 7, 7, 7, 9];
        let r = direct_retrieval(
            &mut net,
            &mut RetrievalStore::default(),
            &values,
            6,
            8,
            5,
            8,
            RankAnchor::BelowLo(3),
        );
        assert_eq!(r.quantile, Some(7));
        assert_eq!(r.counts.e, 4);
        assert_eq!(r.counts.l, 3);
    }

    #[test]
    fn empty_interval_returns_none() {
        let mut net = line_net(4);
        let values: Vec<Value> = vec![1, 2, 3, 4];
        let r = direct_retrieval(
            &mut net,
            &mut RetrievalStore::default(),
            &values,
            50,
            60,
            2,
            4,
            RankAnchor::BelowLo(4),
        );
        assert_eq!(r.quantile, None);
    }

    #[test]
    fn only_interval_nodes_transmit() {
        let mut net = line_net(6);
        let values: Vec<Value> = vec![1, 2, 50, 51, 90, 91];
        direct_retrieval(
            &mut net,
            &mut RetrievalStore::default(),
            &values,
            40,
            60,
            3,
            6,
            RankAnchor::BelowLo(2),
        );
        // Exactly the values 50 and 51 travel; along the line each is
        // forwarded toward the root by every intermediate hop.
        // Node ids 3,4 hold 50,51 at depths 3 and 4 -> 3 + 4 = 7 value hops.
        assert_eq!(net.stats().values, 7);
    }
}
