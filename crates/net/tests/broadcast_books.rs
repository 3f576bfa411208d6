//! A lossless, solo-framed, unaudited broadcast is booked in bulk from a
//! per-tree plan instead of one reception at a time. This test holds the
//! bulk path to the per-child loop it replaces: an audited twin takes that
//! loop (the audit witnesses every reception, and otherwise only observes).
//! Over random placements and random sequences of convergecasts,
//! broadcasts, phase and lane switches, failures, rebuilds, churn, round
//! ends and clones, both must hold the same bit patterns in every node's
//! ledger entries and the same phase, lane and traffic books and reception
//! masks after every step.

use wsn_net::splitmix::SplitMix64;
use wsn_net::{
    Aggregate, EnergyAuditor, FailureModel, MessageSizes, Network, NodeBits, NodeId, Phase,
    PhaseBreakdown, Point, RadioModel, RoutingTree, Topology,
};

/// A counter plus `n` values.
#[derive(Debug, Clone)]
struct Values(u64);

impl Aggregate for Values {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits + self.0 * sizes.value_bits
    }
    fn value_count(&self) -> usize {
        self.0 as usize
    }
}

/// `n` nodes uniform on a `side`-wide square, the sink in its centre.
fn placement(rng: &mut SplitMix64, n: usize, side: f64) -> Vec<Point> {
    let mut at = |_| Point::new(rng.next_f64() * side, rng.next_f64() * side);
    let mut points: Vec<Point> = (0..n).map(&mut at).collect();
    points[0] = Point::new(side / 2.0, side / 2.0);
    points
}

/// A value of `salt` mixed with `id`: the same draw on both sides.
fn draw(salt: u64, id: NodeId) -> u64 {
    SplitMix64::new(salt ^ (u64::from(id.0) << 32)).next_u64()
}

/// A breakdown as bit patterns: messages, bits and joules per phase.
fn bit_patterns(b: &PhaseBreakdown) -> Vec<u64> {
    let joules = b.joules().map(f64::to_bits);
    [b.messages(), b.bits(), joules].concat()
}

fn assert_same(bulk: &Network, per_child: &Network, ctx: &str) {
    let (a, b) = (bulk.ledger(), per_child.ledger());
    for i in 0..bulk.len() {
        let id = NodeId(i as u32);
        let node = |l: &wsn_net::EnergyLedger| {
            [
                l.consumed(id),
                l.consumed_tx(id),
                l.max_round_consumption(id),
            ]
            .map(f64::to_bits)
        };
        assert_eq!(node(a), node(b), "{ctx}: node {i}");
    }
    assert_eq!(a.rounds(), b.rounds(), "{ctx}");
    assert_eq!(bulk.stats(), per_child.stats(), "{ctx}");
    assert_eq!(
        bit_patterns(bulk.phases()),
        bit_patterns(per_child.phases()),
        "{ctx}"
    );
    let lanes = |net: &Network| -> Vec<Vec<u64>> {
        net.lane_book()
            .breakdowns()
            .iter()
            .map(bit_patterns)
            .collect()
    };
    assert_eq!(lanes(bulk), lanes(per_child), "{ctx}");
    assert!(
        bulk.audit_log().is_empty(),
        "{ctx}: the bulk side is unaudited"
    );
}

#[test]
fn bulk_broadcasts_book_as_the_per_child_loop() {
    const RANGE: f64 = 25.0;
    let mut broadcasts = 0;
    let mut emptied = 0;
    for world in 0..8u64 {
        let mut rng = SplitMix64::new(0xb00c + world);
        let n = 20 + (rng.next_u64() % 120) as usize;
        let side = 40.0 + (n as f64).sqrt() * 9.0;
        let topo = Topology::build(placement(&mut rng, n, side), RANGE);
        let (tree, _) = RoutingTree::spanning_alive(&topo, &vec![true; n]);
        let mut bulk = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        bulk.set_failures(Some(FailureModel::new(0.01, world)));
        let mut per_child = bulk.clone();
        per_child.set_audit(true);
        let (mut recv_b, mut recv_p) = (NodeBits::new(), NodeBits::new());

        for step in 0..400 {
            let ctx = format!("world {world} ({n} nodes), step {step}");
            match rng.next_u64() % 20 {
                0..=3 => {
                    let salt = rng.next_u64();
                    let local = |id| {
                        let d = draw(salt, id);
                        (!d.is_multiple_of(4)).then_some(Values(d % 80))
                    };
                    bulk.convergecast(local);
                    per_child.convergecast(local);
                }
                4..=9 => {
                    // A few sizes recur, some fragment, one is empty.
                    let bits = match rng.next_u64() % 8 {
                        0..=2 => 16,
                        3 => 32,
                        4 => 0,
                        5 => 1_500,
                        6 => 3_000,
                        _ => rng.next_u64() % 3_000,
                    };
                    if rng.next_u64().is_multiple_of(4) {
                        let received = bulk.broadcast(bits).clone();
                        assert_eq!(&received, per_child.broadcast(bits), "{ctx}");
                    } else {
                        bulk.broadcast_into(bits, &mut recv_b);
                        per_child.broadcast_into(bits, &mut recv_p);
                        assert_eq!(recv_b, recv_p, "{ctx}: the same nodes receive");
                    }
                    broadcasts += 1;
                }
                10 => {
                    let phase = Phase::ALL[(rng.next_u64() % Phase::ALL.len() as u64) as usize];
                    bulk.set_phase(phase);
                    per_child.set_phase(phase);
                }
                11 => {
                    let lane = (rng.next_u64() % 3) as u32;
                    bulk.set_lane(lane);
                    per_child.set_lane(lane);
                }
                12 => {
                    assert_eq!(bulk.fail_round(), per_child.fail_round(), "{ctx}");
                }
                13 => {
                    let topo = rng
                        .next_u64()
                        .is_multiple_of(2)
                        .then(|| Topology::build(placement(&mut rng, n, side), RANGE));
                    bulk.dynamics_rebuild(topo.clone());
                    per_child.dynamics_rebuild(topo);
                }
                14 => {
                    let id = NodeId(1 + (rng.next_u64() % (n as u64 - 1)) as u32);
                    let alive = !rng.next_u64().is_multiple_of(3);
                    bulk.set_node_alive(id, alive);
                    per_child.set_node_alive(id, alive);
                }
                15 => {
                    // Every sensor dies: the tree is the sink alone, which
                    // transmits nothing. Then everyone comes back.
                    for net in [&mut bulk, &mut per_child] {
                        for i in 1..n {
                            net.set_node_alive(NodeId(i as u32), false);
                        }
                        net.dynamics_rebuild(None);
                    }
                    assert_eq!(bulk.tree().tree_size(), 1, "{ctx}");
                    for _ in 0..3 {
                        bulk.broadcast_into(48, &mut recv_b);
                        per_child.broadcast_into(48, &mut recv_p);
                        assert_eq!(recv_b, recv_p, "{ctx}");
                        assert_eq!(recv_b.count_ones(), 1, "{ctx}: only the sink");
                        assert_same(&bulk, &per_child, &ctx);
                    }
                    for net in [&mut bulk, &mut per_child] {
                        for i in 1..n {
                            net.set_node_alive(NodeId(i as u32), true);
                        }
                        net.dynamics_rebuild(None);
                    }
                    emptied += 1;
                }
                16 => {
                    // A clone carries the plan and books the same.
                    let copy = bulk.clone();
                    assert_same(&copy, &per_child, &ctx);
                    bulk = copy;
                    per_child = per_child.clone();
                }
                _ => {
                    bulk.end_round();
                    per_child.end_round();
                }
            }
            assert_same(&bulk, &per_child, &ctx);
        }
        per_child.end_round();
        let report = EnergyAuditor::verify(&per_child);
        assert!(
            report.is_clean(),
            "world {world}: {:?}",
            report.discrepancies
        );
    }
    assert!(broadcasts > 700, "only {broadcasts} broadcasts");
    assert!(emptied > 3, "only {emptied} emptied worlds");
}
