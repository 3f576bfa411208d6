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
//! idempotent (they rewrite the same payload from unchanged inputs, not
//! fresh state transitions).

use wsn_net::{Aggregate, Network, NodeId, Phase, WaveStore};

/// Upper bound on wave re-issues per [`collect_with_recovery`] call, so a
/// hopeless wave (e.g. a partitioned subtree) terminates.
pub const MAX_WAVE_REISSUES: u32 = 4;

/// Runs a convergecast over `store` ([`Network::convergecast_in`]) and,
/// when the network reports an incomplete wave, re-issues it for the
/// still-missing subtrees (up to [`MAX_WAVE_REISSUES`] times), merging
/// late contributions into the result.
///
/// `contribute` may be called more than once per node and must write the
/// same payload each time. With wave recovery disabled
/// (`recovery_passes == 0`) this is exactly one convergecast: the
/// protocols keep their unreliable-path behaviour bit for bit.
pub fn collect_with_recovery<'s, T, F>(
    net: &mut Network,
    store: &'s mut WaveStore<T>,
    mut contribute: F,
) -> Option<&'s mut T>
where
    T: Aggregate,
    F: FnMut(NodeId, &mut Option<T>) -> bool,
{
    net.convergecast_in(store, &mut contribute, |_, _| {});
    if net.reliability().recovery_passes == 0 || net.last_wave().is_complete() {
        return store.result();
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
        net.convergecast_late(store, |id, slot| {
            missing[id.index()] && contribute(id, slot)
        });
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
    store.result()
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

    /// Every sensor contributes a count of one.
    fn one(_: NodeId, slot: &mut Option<Count>) -> bool {
        *slot = Some(Count(1));
        true
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
        let mut store = WaveStore::new();
        net.set_loss(Some(LossModel::new(0.3, 17)));
        net.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut complete = 0;
        for _ in 0..200 {
            let got = collect_with_recovery(&mut net, &mut store, one).cloned();
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
        let mut store = WaveStore::new();
        for _ in 0..100 {
            let a = plain.convergecast(|_| Some(Count(1)));
            let b = collect_with_recovery(&mut gated, &mut store, one).cloned();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), gated.stats());
    }

    #[test]
    fn slot_and_closure_collection_are_identical() {
        // Collecting into reused slots must replay collecting from fresh
        // storage bit for bit: same traffic, same results, same recovery
        // behaviour.
        let mut fresh = line_network(8);
        fresh.set_loss(Some(LossModel::new(0.3, 99)));
        fresh.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut reused = fresh.clone();
        let mut store = WaveStore::new();
        for _ in 0..100 {
            let a = collect_with_recovery(&mut fresh, &mut WaveStore::new(), one).cloned();
            let b = collect_with_recovery(&mut reused, &mut store, one).cloned();
            assert_eq!(a, b);
        }
        assert_eq!(fresh.stats(), reused.stats());
        let (a, b) = (fresh.ledger(), reused.ledger());
        assert_eq!(
            a.tx_bits_per_node(),
            b.tx_bits_per_node(),
            "same energy trace"
        );
        assert_eq!(
            a.rx_bits_per_node(),
            b.rx_bits_per_node(),
            "same energy trace"
        );
    }

    #[test]
    fn total_loss_gives_up_after_the_reissue_budget() {
        let mut net = line_network(4);
        net.set_loss(Some(LossModel::new(1.0, 1)));
        net.set_reliability(ReliabilityConfig::recovering(1, 1));
        let mut store = WaveStore::new();
        let got = collect_with_recovery(&mut net, &mut store, one);
        assert!(got.is_none());
        // 1 initial wave + at most MAX_WAVE_REISSUES re-issues.
        assert!(net.stats().convergecasts <= 1 + MAX_WAVE_REISSUES as u64);
    }
}
