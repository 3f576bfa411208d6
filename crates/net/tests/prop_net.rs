//! Property-based tests of the network substrate.
//!
//! Compiled only with `--features proptest` (plus an ad-hoc
//! `cargo add proptest --dev`) so the default build needs no network
//! access; see crates/net/Cargo.toml.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use wsn_net::{
    Aggregate, EnergyLedger, MessageSizes, Network, NodeId, Point, RadioModel, RoutingTree,
    Topology,
};

#[derive(Debug, Clone, Default)]
struct Sum(u64);
impl Aggregate for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits
    }
}

fn topology_from(points: &[(f64, f64)], range: f64) -> Topology {
    let positions: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
    Topology::build(positions, range)
}

proptest! {
    #[test]
    fn disk_graph_is_symmetric_and_respects_range(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..80),
        range in 5.0f64..60.0,
    ) {
        let topo = topology_from(&points, range);
        for u in topo.node_ids() {
            for v in topo.neighbors(u) {
                prop_assert!(topo.neighbors(v).contains(&u));
                prop_assert!(topo.position(u).dist(&topo.position(v)) <= range + 1e-9);
                prop_assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn spt_depths_are_shortest_hop_counts(
        points in prop::collection::vec((0.0f64..60.0, 0.0f64..60.0), 2..50),
        range in 15.0f64..40.0,
    ) {
        let topo = topology_from(&points, range);
        let Ok(tree) = RoutingTree::shortest_path_tree(&topo) else {
            return Ok(()); // disconnected draw: nothing to check
        };
        // BFS depths from scratch must match the tree's depths.
        let n = topo.len();
        let mut dist = vec![u32::MAX; n];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([NodeId::ROOT]);
        while let Some(u) = queue.pop_front() {
            for v in topo.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        for id in topo.node_ids() {
            prop_assert_eq!(tree.depth(id), dist[id.index()]);
            if let Some(p) = tree.parent(id) {
                prop_assert_eq!(tree.depth(p) + 1, tree.depth(id));
                prop_assert!(tree.children(p).contains(&id));
            }
        }
        // Subtree sizes sum to n at the root.
        prop_assert_eq!(tree.subtree_sizes()[0], n);
    }

    #[test]
    fn fragmentation_never_loses_bits(payload in 0u64..100_000) {
        let sizes = MessageSizes::default();
        let (frags, total) = sizes.fragment(payload);
        prop_assert!(frags >= 1);
        prop_assert_eq!(total, payload + frags * sizes.header_bits);
        // Each fragment's payload fits.
        prop_assert!(payload <= frags * sizes.max_payload_bits);
        if frags > 1 {
            prop_assert!(payload > (frags - 1) * sizes.max_payload_bits);
        }
    }

    #[test]
    fn convergecast_reaches_root_with_full_aggregate(
        points in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 2..40),
        contributions in prop::collection::vec(0u64..100, 40),
    ) {
        let topo = topology_from(&points, 25.0);
        let Ok(tree) = RoutingTree::shortest_path_tree(&topo) else {
            return Ok(());
        };
        let n = topo.sensor_count();
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        let agg = net.convergecast(|id| Some(Sum(contributions[id.index() % contributions.len()])));
        let expect: u64 = (1..=n).map(|i| contributions[i % contributions.len()]).sum();
        prop_assert_eq!(agg.map(|s| s.0), Some(expect));
    }

    #[test]
    fn broadcast_reaches_every_node_without_loss(
        points in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 2..40),
        payload in 0u64..4096,
    ) {
        let topo = topology_from(&points, 25.0);
        let Ok(tree) = RoutingTree::shortest_path_tree(&topo) else {
            return Ok(());
        };
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        let received = net.broadcast(payload);
        prop_assert!(received.all());
    }

    #[test]
    fn ledger_totals_match_charges(charges in prop::collection::vec((0u32..5, 0u64..100_000, any::<bool>()), 1..100)) {
        let prices = RadioModel::default().prices(35.0);
        let mut ledger = EnergyLedger::new(5, prices);
        let mut expect = [(0u64, 0u64); 5];
        for &(node, bits, tx) in &charges {
            if tx {
                ledger.charge_tx(NodeId(node), bits);
                expect[node as usize].0 += bits;
            } else {
                ledger.charge_rx(NodeId(node), bits);
                expect[node as usize].1 += bits;
            }
        }
        let joules = |&(tx, rx): &(u64, u64)| prices.joules(tx, rx);
        for i in 0..5u32 {
            prop_assert_eq!(ledger.consumed(NodeId(i)), joules(&expect[i as usize]));
        }
        let max_sensor = expect[1..].iter().map(joules).fold(0.0, f64::max);
        prop_assert_eq!(ledger.max_sensor_consumption(), max_sensor);
    }

    #[test]
    fn tx_energy_is_monotone_in_bits_and_range(
        bits_a in 0u64..10_000, bits_b in 0u64..10_000,
        r_a in 1.0f64..100.0, r_b in 1.0f64..100.0,
    ) {
        let m = RadioModel::default();
        let (lo_bits, hi_bits) = (bits_a.min(bits_b), bits_a.max(bits_b));
        prop_assert!(m.tx_energy(lo_bits, 35.0) <= m.tx_energy(hi_bits, 35.0));
        let (lo_r, hi_r) = (r_a.min(r_b), r_a.max(r_b));
        prop_assert!(m.tx_energy(1000, lo_r) <= m.tx_energy(1000, hi_r));
    }
}
