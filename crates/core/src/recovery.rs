//! Protocol-level wave recovery: detect incomplete convergecasts and
//! re-issue them.
//!
//! The network's ARQ and recovery passes (see `wsn_net::reliability`) fight
//! losses link by link, but a wave can still come up short — the retry
//! budget runs out, or a relay's whole subtree payload dies. The exact
//! continuous protocols cannot tolerate that silently: a missing `into`
//! counter corrupts the maintained rank forever, not just for one round.
//!
//! [`collect_with_recovery`] closes the loop end-to-end. It runs a
//! convergecast, consults the [`WaveReport`](wsn_net::WaveReport) for the
//! subtrees whose contribution never arrived, and re-issues the wave for
//! exactly those nodes — repeating until the wave is complete or the
//! re-issue budget is spent. Contribution closures must therefore be
//! idempotent (cheap clones of precomputed payloads, not fresh state
//! transitions).

use wsn_net::{Aggregate, Network, NodeId, Phase};

/// Upper bound on wave re-issues per [`collect_with_recovery`] call, so a
/// hopeless wave (e.g. a partitioned subtree) terminates.
pub const MAX_WAVE_REISSUES: u32 = 4;

/// Runs a convergecast and, when the network reports an incomplete wave,
/// re-issues it for the still-missing subtrees (up to
/// [`MAX_WAVE_REISSUES`] times), merging late contributions into the
/// result.
///
/// `contribute` may be called more than once per node and must return the
/// same payload each time. With wave recovery disabled
/// (`recovery_passes == 0`) this is exactly [`Network::convergecast`]: the
/// protocols keep their unreliable-path behaviour bit for bit.
pub fn collect_with_recovery<T, F>(net: &mut Network, mut contribute: F) -> Option<T>
where
    T: Aggregate + Send + 'static,
    F: FnMut(NodeId) -> Option<T>,
{
    let result = net.convergecast(&mut contribute);
    reissue_incomplete(net, result, contribute)
}

/// [`collect_with_recovery`] over caller-materialised contribution slots
/// (`slots[i]` is node `i`'s payload; the wave *takes* them). Steady-state
/// loops that rebuild their contributions every round keep one reusable
/// buffer this way instead of funnelling per-node clones through a closure.
///
/// `contribute` is only consulted for re-issued waves, to regenerate the
/// payloads of nodes whose subtree dropped; it must reproduce exactly what
/// the caller put in `slots`. With wave recovery disabled it is never
/// called.
pub fn collect_slots_with_recovery<T, F>(
    net: &mut Network,
    slots: &mut [Option<T>],
    contribute: F,
) -> Option<T>
where
    T: Aggregate + Send + 'static,
    F: FnMut(NodeId) -> Option<T>,
{
    let result = net.convergecast_slots(slots, |_, _| {});
    reissue_incomplete(net, result, contribute)
}

/// Shared re-issue loop: merges late contributions from the still-missing
/// subtrees into `result` until the wave is complete or the budget is
/// spent.
fn reissue_incomplete<T, F>(
    net: &mut Network,
    mut result: Option<T>,
    mut contribute: F,
) -> Option<T>
where
    T: Aggregate + Send + 'static,
    F: FnMut(NodeId) -> Option<T>,
{
    if net.reliability().recovery_passes == 0 || net.last_wave().is_complete() {
        return result;
    }

    // Union of the dropped subtrees: the nodes whose contribution the sink
    // has not seen yet. The re-issued waves are recovery traffic, whatever
    // phase the original wave ran in.
    let caller_phase = net.phase();
    net.set_phase(Phase::Recovery);
    let mut missing = Vec::new();
    net.mark_dropped_subtrees(&mut missing);
    let mut scratch = Vec::new();
    for _ in 0..MAX_WAVE_REISSUES {
        let reissued = net.convergecast(|id| {
            if missing[id.index()] {
                contribute(id)
            } else {
                None
            }
        });
        if let Some(late) = reissued {
            match result.as_mut() {
                Some(acc) => acc.merge(late),
                None => result = Some(late),
            }
        }
        if net.last_wave().is_complete() {
            break;
        }
        // Keep only nodes that are *still* missing: the intersection with
        // this wave's dropped subtrees. Without this, contributions that
        // did arrive would be re-collected — and double-counted — on the
        // next round of the loop.
        net.mark_dropped_subtrees(&mut scratch);
        for (m, s) in missing.iter_mut().zip(&scratch) {
            *m = *m && *s;
        }
        if !missing.contains(&true) {
            break;
        }
    }
    net.set_phase(caller_phase);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::loss::LossModel;
    use wsn_net::{MessageSizes, Point, RadioModel, ReliabilityConfig, RoutingTree, Topology};

    /// Counts contributors; each node contributes exactly 1.
    #[derive(Debug, Clone, PartialEq)]
    struct Count(u64);

    impl Aggregate for Count {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
        fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
            sizes.counter_bits
        }
    }

    fn line_network(n: usize) -> Network {
        let positions = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn reissue_collects_every_contribution_exactly_once() {
        let mut net = line_network(8);
        net.set_loss(Some(LossModel::new(0.3, 17)));
        net.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut complete = 0;
        for _ in 0..200 {
            let got = collect_with_recovery(&mut net, |_| Some(Count(1)));
            // Recovery may still fall short under sustained bad luck, but a
            // complete collection must count every sensor exactly once —
            // never more (the double-count hazard this module guards
            // against).
            if let Some(Count(c)) = got {
                assert!(c <= 7, "double-counted contributions: {c}");
                if c == 7 {
                    complete += 1;
                }
            }
        }
        assert!(complete > 190, "complete {complete}/200");
    }

    #[test]
    fn disabled_recovery_is_a_plain_convergecast() {
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 5)));
        let mut gated = plain.clone();
        for _ in 0..100 {
            let a = plain.convergecast(|_| Some(Count(1)));
            let b = collect_with_recovery(&mut gated, |_| Some(Count(1)));
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), gated.stats());
    }

    #[test]
    fn slot_and_closure_collection_are_identical() {
        // The slot-based entry point must replay the closure-based one bit
        // for bit: same traffic, same results, same recovery behaviour.
        let mut by_closure = line_network(8);
        by_closure.set_loss(Some(LossModel::new(0.3, 99)));
        by_closure.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut by_slots = by_closure.clone();
        let mut slots: Vec<Option<Count>> = Vec::new();
        for _ in 0..100 {
            let a = collect_with_recovery(&mut by_closure, |_| Some(Count(1)));
            slots.clear();
            slots.resize(by_slots.len(), None);
            for s in slots.iter_mut().skip(1) {
                *s = Some(Count(1));
            }
            let b = collect_slots_with_recovery(&mut by_slots, &mut slots, |_| Some(Count(1)));
            assert_eq!(a, b);
        }
        assert_eq!(by_closure.stats(), by_slots.stats());
        assert_eq!(
            by_closure.ledger().consumed_per_node(),
            by_slots.ledger().consumed_per_node(),
            "bit-identical energy trace"
        );
    }

    #[test]
    fn total_loss_gives_up_after_the_reissue_budget() {
        let mut net = line_network(4);
        net.set_loss(Some(LossModel::new(1.0, 1)));
        net.set_reliability(ReliabilityConfig::recovering(1, 1));
        let got = collect_with_recovery(&mut net, |_| Some(Count(1)));
        assert!(got.is_none());
        // 1 initial wave + at most MAX_WAVE_REISSUES re-issues.
        assert!(net.stats().convergecasts <= 1 + MAX_WAVE_REISSUES as u64);
    }
}
