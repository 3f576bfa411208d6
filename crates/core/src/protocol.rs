//! The common protocol interface all algorithms implement.

use wsn_net::{Network, NodeId};

use crate::rank;
use crate::Value;

/// Static parameters of a continuous quantile query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryConfig {
    /// The requested rank `k` (1-based): the k-th smallest value is the
    /// answer. `k = ⌊φ·|N|⌋` per Definition 2.1.
    pub k: u64,
    /// Smallest possible measurement `r_min`.
    pub range_min: Value,
    /// Largest possible measurement `r_max`.
    pub range_max: Value,
}

impl QueryConfig {
    /// A query for the `φ`-quantile over `n` sensors.
    pub fn phi(phi: f64, n: usize, range_min: Value, range_max: Value) -> Self {
        assert!(range_min <= range_max, "empty value range");
        QueryConfig {
            k: rank::rank_of_phi(phi, n),
            range_min,
            range_max,
        }
    }

    /// The median query (`φ = 0.5`), the paper's focus.
    pub fn median(n: usize, range_min: Value, range_max: Value) -> Self {
        Self::phi(0.5, n, range_min, range_max)
    }

    /// Number of values in the integer universe, `τ = r_max − r_min + 1`.
    pub fn range_size(&self) -> u64 {
        (self.range_max - self.range_min + 1) as u64
    }
}

/// A continuous quantile query protocol.
///
/// The first [`ContinuousQuantile::execute`] call, directly or through
/// `round`, is the initialization round `t = 0`; later calls are update
/// rounds. `values[i]` is the current measurement of sensor
/// `NodeId(i+1)` (the root measures nothing).
///
/// A protocol only [`ContinuousQuantile::execute`]s a round's waves; the
/// driver closes the accounting round ([`Network::end_round`]). A solo run
/// calls `round`, which executes and then closes; the multi-query service
/// executes every due query and closes once, so all of them share one
/// accounting round.
///
/// The paper's protocols are **exact**: absent message loss, the returned
/// value equals `kth_smallest(values, k)` each round. The sketch family
/// ([`crate::QDigestQuantile`], [`crate::GkSinkQuantile`]) instead
/// guarantees a bounded rank error, advertised via
/// [`ContinuousQuantile::rank_tolerance`].
pub trait ContinuousQuantile {
    /// Short identifier used in reports ("TAG", "POS", "HBC", …).
    fn name(&self) -> &'static str;

    /// Runs one query round's waves over the given measurements and returns
    /// the quantile as determined at the root node, leaving the accounting
    /// round open.
    fn execute(&mut self, net: &mut Network, values: &[Value]) -> Value;

    /// Executes one query round, then closes the accounting round.
    fn round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let q = self.execute(net, values);
        net.end_round();
        q
    }

    /// Largest rank error (distance of the answer's true rank span from
    /// `k`) this protocol may commit on a reliable network over `n`
    /// values. Exact protocols return 0 (the default); approximate ones
    /// return their certified bound, e.g. `⌊ε·n⌋`. The differential
    /// oracle holds every protocol to exactly this bound.
    fn rank_tolerance(&self, n: u64) -> u64 {
        let _ = n;
        0
    }

    /// Notifies the protocol that the routing tree was rebuilt by the
    /// dynamics layer (mobility epoch, churn, drift) before the next
    /// round. The default is a no-op: the paper's protocols keep only
    /// value state at the sink and per-node filters keyed by node id, both
    /// of which survive a re-parented tree — the next validation round
    /// re-collects over the new topology. Protocols that cache
    /// tree-structural state (subtree sizes, per-slot buffers sized to a
    /// wave order) must override this and invalidate it.
    fn topology_changed(&mut self) {}
}

/// The measurement of sensor `id` in a round's value slice.
#[inline]
pub fn measurement(values: &[Value], id: NodeId) -> Value {
    debug_assert!(!id.is_root(), "the root takes no measurements");
    values[id.index() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_rank() {
        let q = QueryConfig::median(1000, 0, 1023);
        assert_eq!(q.k, 500);
        assert_eq!(q.range_size(), 1024);
    }

    #[test]
    fn phi_rank_extremes() {
        assert_eq!(QueryConfig::phi(0.0, 10, 0, 9).k, 1);
        assert_eq!(QueryConfig::phi(1.0, 10, 0, 9).k, 10);
        assert_eq!(QueryConfig::phi(0.25, 100, 0, 9).k, 25);
    }

    #[test]
    fn measurement_maps_node_ids() {
        let values = vec![10, 20, 30];
        assert_eq!(measurement(&values, NodeId(1)), 10);
        assert_eq!(measurement(&values, NodeId(3)), 30);
    }

    #[test]
    #[should_panic(expected = "empty value range")]
    fn rejects_inverted_range() {
        let _ = QueryConfig::median(10, 5, 4);
    }
}
