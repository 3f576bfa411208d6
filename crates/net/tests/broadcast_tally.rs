//! Lossless broadcasts record their telemetry once per wave, in a tally
//! that is folded into the per-node histograms when they are read and
//! before the routing tree changes. This test holds that fold, for
//! solo-framed waves, to the per-transmitter path it replaces: a twin with
//! a zero-probability loss model records every transmitter's samples one
//! by one and loses nothing. (Shared-frame waves, which a lossy twin
//! cannot send, are held to the per-child reference inside the crate.) Over random placements and random sequences of convergecasts,
//! broadcasts, failures, rebuilds, churn and clones, both must read the
//! same histograms — full dense sets, per-node `sum` and `max` included —
//! and the same traffic after every step.

use wsn_net::obs::HistKind;
use wsn_net::splitmix::SplitMix64;
use wsn_net::{
    Aggregate, FailureModel, LossModel, MessageSizes, Network, NodeBits, NodeId, Point, RadioModel,
    RoutingTree, Topology,
};

/// A counter plus `n` values: up to 63 values fit one 1,024-bit frame, so
/// larger payloads fragment.
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

fn assert_same(tallied: &Network, reference: &Network, ctx: &str) {
    assert_eq!(tallied.histograms(), reference.histograms(), "{ctx}");
    let totals = tallied.histogram_totals();
    assert_eq!(totals, reference.histogram_totals(), "{ctx}");
    assert_eq!(totals, tallied.histograms().total(), "{ctx}");
    assert_eq!(tallied.stats(), reference.stats(), "{ctx}");
    // Every data frame is one MsgBits sample.
    let frames = totals.get(HistKind::MsgBits).count();
    assert_eq!(frames, tallied.stats().messages, "{ctx}");
}

#[test]
fn tallied_broadcasts_read_as_the_per_transmitter_path() {
    const RANGE: f64 = 25.0;
    let mut broadcasts = 0;
    for world in 0..6u64 {
        let mut rng = SplitMix64::new(0x7a11 + world);
        let n = 20 + (rng.next_u64() % 120) as usize;
        let side = 40.0 + (n as f64).sqrt() * 9.0;
        let topo = Topology::build(placement(&mut rng, n, side), RANGE);
        let (tree, _) = RoutingTree::spanning_alive(&topo, &vec![true; n]);
        let mut tallied = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        tallied.set_failures(Some(FailureModel::new(0.01, world)));
        let mut reference = tallied.clone();
        reference.set_loss(Some(LossModel::new(0.0, world)));
        let (mut recv_t, mut recv_r) = (NodeBits::new(), NodeBits::new());

        for step in 0..240 {
            let ctx = format!("world {world} ({n} nodes), step {step}");
            match rng.next_u64() % 16 {
                0..=4 => {
                    let salt = rng.next_u64();
                    let local = |id| {
                        let d = draw(salt, id);
                        (!d.is_multiple_of(4)).then_some(Values(d % 80))
                    };
                    tallied.convergecast(local);
                    reference.convergecast(local);
                }
                5..=10 => {
                    // A few sizes recur, one fragments; a fresh size now
                    // and then keeps new entries coming into the tally.
                    let bits = match rng.next_u64() % 8 {
                        0..=2 => 16,
                        3 | 4 => 32,
                        5 => 1_500,
                        _ => rng.next_u64() % 3_000,
                    };
                    tallied.broadcast_into(bits, &mut recv_t);
                    reference.broadcast_into(bits, &mut recv_r);
                    assert_eq!(
                        recv_t, recv_r,
                        "{ctx}: a lossless wave reaches the same nodes"
                    );
                    broadcasts += 1;
                }
                11 => {
                    // More distinct sizes than the tally holds, in a row.
                    for bits in 0..12 {
                        tallied.broadcast_into(40 + 8 * bits, &mut recv_t);
                        reference.broadcast_into(40 + 8 * bits, &mut recv_r);
                    }
                    broadcasts += 12;
                }
                12 => {
                    assert_eq!(tallied.fail_round(), reference.fail_round(), "{ctx}");
                }
                13 => {
                    let topo = rng
                        .next_u64()
                        .is_multiple_of(2)
                        .then(|| Topology::build(placement(&mut rng, n, side), RANGE));
                    tallied.dynamics_rebuild(topo.clone());
                    reference.dynamics_rebuild(topo);
                }
                14 => {
                    let id = NodeId(1 + (rng.next_u64() % (n as u64 - 1)) as u32);
                    let alive = !rng.next_u64().is_multiple_of(3);
                    tallied.set_node_alive(id, alive);
                    reference.set_node_alive(id, alive);
                }
                _ => {
                    // A clone carries the pending tally and reads the same.
                    let copy = tallied.clone();
                    assert_same(&copy, &reference, &ctx);
                    tallied = copy;
                    reference = reference.clone();
                }
            }
            assert_same(&tallied, &reference, &ctx);
            tallied.end_round();
            reference.end_round();
        }
    }
    assert!(broadcasts > 1_000, "only {broadcasts} broadcasts");
}
