//! Reused wave storage is invisible.
//!
//! Convergecast payloads live in storage that outlives the wave: each
//! protocol's own `WaveStore`s, and the network's pooled stores behind the
//! by-value convergecast entry points. A wave overwrites whatever a slot
//! held before, so storage that earlier waves have used — this protocol's
//! earlier rounds, and every other battery protocol's waves on the same
//! network — must leave no trace. Each battery protocol is forked after
//! four such rounds into a twin with the same state but storage that was
//! never used (protocol clones and network clones start with empty
//! storage), and both run the same further rounds: answers, ledger,
//! traffic, phase and lane books, reliability counters and histograms must
//! agree bit for bit — lossless, and under loss with wave recovery, where
//! stranded payloads wait in their slots and dropped subtrees re-issue.

use cqp_core::{
    ContinuousQuantile, GkSinkQuantile, Hbc, HbcConfig, Iq, IqConfig, Lcll, Pos, QDigestQuantile,
    QueryConfig, RefiningStrategy, Tag, Value,
};
use wsn_net::loss::LossModel;
use wsn_net::splitmix::SplitMix64;
use wsn_net::{MessageSizes, Network, Point, RadioModel, ReliabilityConfig, RoutingTree, Topology};

/// A battery protocol that can be forked with fresh storage.
trait Protocol: ContinuousQuantile {
    fn fork(&self) -> Box<dyn Protocol>;
}

impl<P: ContinuousQuantile + Clone + 'static> Protocol for P {
    fn fork(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

/// `AlgorithmKind::battery(100, 0)`: the eight battery protocols.
fn battery(query: QueryConfig, sizes: &MessageSizes) -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(Tag::new(query)),
        Box::new(Pos::new(query)),
        Box::new(Lcll::new(query, RefiningStrategy::Hierarchical, sizes)),
        Box::new(Lcll::new(query, RefiningStrategy::Slip, sizes)),
        Box::new(Hbc::new(query, HbcConfig::default(), sizes)),
        Box::new(Iq::new(query, IqConfig::default())),
        Box::new(QDigestQuantile::new(query, 100)),
        Box::new(GkSinkQuantile::new(query, sizes, 100, 0)),
    ]
}

fn grid_network(side: usize) -> Network {
    let positions = (0..side * side)
        .map(|i| Point::new((i % side) as f64 * 8.0, (i / side) as f64 * 8.0))
        .collect();
    let topo = Topology::build(positions, 12.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

/// Asserts that two networks hold bit-identical books.
fn assert_same_books(dirty: &Network, clean: &Network, name: &str) {
    let bits = |net: &Network| -> Vec<u64> {
        let ledger = net.ledger();
        let per_node = ledger.tx_bits_per_node().iter();
        per_node.chain(ledger.rx_bits_per_node()).copied().collect()
    };
    assert_eq!(bits(dirty), bits(clean), "{name}: ledger");
    assert_eq!(dirty.stats(), clean.stats(), "{name}: traffic");
    assert_eq!(dirty.phases(), clean.phases(), "{name}: phases");
    let (dl, cl) = (dirty.lane_book(), clean.lane_book());
    assert_eq!(dl, cl, "{name}: lanes");
    assert_eq!(
        dirty.reliability_stats(),
        clean.reliability_stats(),
        "{name}: reliability"
    );
    assert_eq!(dirty.histograms(), clean.histograms(), "{name}: histograms");
}

fn reused_storage_is_invisible(lossy: bool) {
    const DIRTY: usize = 4;
    const COMPARED: usize = 8;
    let side = 12;
    let sensors = side * side - 1;
    let mut base = grid_network(side);
    if lossy {
        base.set_loss(Some(LossModel::new(0.2, 5)));
        base.set_reliability(ReliabilityConfig::recovering(3, 4));
    }
    let query = QueryConfig::median(sensors, 0, 1023);
    // A 512-wide band whose floor drifts upwards: the quantile moves, and
    // every protocol refines with a different set of responders each round.
    let mut rng = SplitMix64::new(11);
    let rounds: Vec<Vec<Value>> = (0..DIRTY + COMPARED)
        .map(|t| {
            let floor = 100 + 20 * t as Value;
            (0..sensors)
                .map(|_| floor + (rng.next_u64() % 512) as Value)
                .collect()
        })
        .collect();
    for i in 0..8 {
        let mut net = base.clone();
        let mut protocols = battery(query, net.sizes());
        for values in &rounds[..DIRTY] {
            for p in protocols.iter_mut() {
                p.round(&mut net, values);
            }
        }
        let mut dirty = protocols.swap_remove(i);
        let mut clean = dirty.fork();
        let mut clean_net = net.clone();
        let name = dirty.name();
        for (t, values) in rounds[DIRTY..].iter().enumerate() {
            let (a, b) = (
                dirty.round(&mut net, values),
                clean.round(&mut clean_net, values),
            );
            assert_eq!(a, b, "{name}: answer in round {}", DIRTY + t);
        }
        assert_same_books(&net, &clean_net, name);
    }
}

#[test]
fn reused_storage_is_invisible_lossless() {
    reused_storage_is_invisible(false);
}

#[test]
fn reused_storage_is_invisible_under_loss_with_recovery() {
    reused_storage_is_invisible(true);
}
