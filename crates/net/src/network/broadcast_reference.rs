//! Reference equivalence of the bulk broadcast path.
//!
//! [`per_child_broadcast`] below is the earlier booking of a lossless
//! broadcast wave: the per-child loop, one [`Books::charge`] per
//! transmission and one per reception, each witnessed by the audit log as
//! an event of its own, every transmitter's histogram samples recorded one
//! by one, and shared frames priced per transmitter from its own
//! accumulator. Every digest in the repository was recorded over it, so
//! [`Network::broadcast_into`] — which books every lossless wave from the
//! tree's [`BroadcastPlan`], tallies its samples and has the audit log keep
//! one record for it — must leave every book where the loop leaves it:
//! the same bits in every node's ledger entries, the same traffic,
//! phase and lane books, histograms and reception masks, and an audit log
//! of the same length that reads back the same events, replays the same
//! lane books at every round boundary and verifies clean. The random call
//! sequences run audited and unaudited, solo and in shared frames, with
//! rounds of several broadcasts, lane and phase switches (lanes past
//! 255 included, which the audit cannot pack), failures, rebuilds, churn
//! and emptied trees, both between rounds and in the middle of one. A tree
//! change ends the shared-frame window on both sides: the engine resets
//! its accumulators, and the reference clears its own.

use super::*;
use crate::audit::{lane_breakdowns, lane_breakdowns_by_round, EnergyAuditor, TxEvent};
use crate::energy::EnergyLedger;
use crate::geometry::Point;
use crate::reliability::FailureModel;
use crate::splitmix::SplitMix64;
use crate::topology::Topology;

/// The per-child loop over `net`'s routing tree, lossless: shared frames
/// priced from `down`, one accumulator per node, when given; solo frames
/// otherwise.
fn per_child_broadcast(
    net: &mut Network,
    mut down: Option<&mut [u64]>,
    payload_bits: u64,
    received: &mut NodeBits,
) {
    let wire = net.wire();
    let n = net.len();
    net.books.stats.broadcasts += 1;
    let Network {
        tree, books, phase, ..
    } = net;
    let phase = *phase;
    let order = tree.bottom_up();
    let solo = wire.sizes.fragment(payload_bits);
    received.reset(n);
    received.set(NodeId::ROOT.index());
    for pos in (0..order.len()).rev() {
        let u = order[pos];
        if !received.get(u.index()) || tree.is_leaf(u) {
            continue;
        }
        let shared = down
            .as_mut()
            .map(|down| SharedWave::frame(&mut down[u.index()], payload_bits, &wire.sizes));
        let (fragments, bits) = shared.unwrap_or(solo);
        books.charge(phase, TxKind::BroadcastTx, u, u, fragments, bits);
        match shared {
            Some((fragments, bits)) => {
                for _ in 0..fragments {
                    books
                        .hists
                        .record(pos, HistKind::MsgBits, bits / fragments.max(1));
                }
            }
            None => {
                for frag_bits in wire.sizes.fragment_bits(payload_bits) {
                    books.hists.record(pos, HistKind::MsgBits, frag_bits);
                }
            }
        }
        books
            .hists
            .record(pos, HistKind::HopDepth, tree.depth(u) as u64);
        for &c in tree.children(u) {
            books.charge(phase, TxKind::BroadcastRx, u, c, fragments, bits);
            received.set(c.index());
        }
    }
}

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

/// A breakdown's counters per phase, with its joules by bit pattern.
fn bit_patterns(b: &PhaseBreakdown) -> Vec<u64> {
    let joules = b.joules().map(f64::to_bits);
    [b.messages(), b.bits(), b.rx_bits(), joules].concat()
}

fn lanes_bits(lanes: &[PhaseBreakdown]) -> Vec<Vec<u64>> {
    lanes.iter().map(bit_patterns).collect()
}

/// Every field of an event, `f64`s by bit pattern.
fn event_bits(e: &TxEvent) -> (u32, u32, usize, usize, u32, u32, u64, u64, u64, u64) {
    (
        e.round,
        e.lane,
        e.phase.index(),
        e.kind.index(),
        e.src.0,
        e.dst.0,
        e.fragments,
        e.bits,
        e.joules_tx.to_bits(),
        e.joules_rx.to_bits(),
    )
}

/// Compares the books of the two sides; with `log`, every view of their
/// audit logs too.
fn assert_same(bulk: &Network, reference: &Network, log: bool, ctx: &str) {
    let (a, b) = (bulk.ledger(), reference.ledger());
    for i in 0..bulk.len() {
        let id = NodeId(i as u32);
        let node = |l: &EnergyLedger| {
            (
                l.tx_bits_per_node()[i],
                l.rx_bits_per_node()[i],
                l.max_round_consumption(id).to_bits(),
            )
        };
        assert_eq!(node(a), node(b), "{ctx}: node {i}");
    }
    assert_eq!(a.rounds(), b.rounds(), "{ctx}");
    assert_eq!(bulk.stats(), reference.stats(), "{ctx}");
    assert_eq!(
        bit_patterns(bulk.phases()),
        bit_patterns(reference.phases()),
        "{ctx}"
    );
    let lanes = |net: &Network| lanes_bits(&net.lane_book().breakdowns(0));
    assert_eq!(lanes(bulk), lanes(reference), "{ctx}");
    assert_eq!(bulk.histograms(), reference.histograms(), "{ctx}");
    assert_eq!(
        bulk.histogram_totals(),
        reference.histogram_totals(),
        "{ctx}"
    );
    let (a, b) = (bulk.audit_log(), reference.audit_log());
    assert_eq!(a.len(), b.len(), "{ctx}: events logged");
    if !log || !a.is_enabled() {
        return;
    }
    let mut events = 0;
    for (i, (e, f)) in a.events().zip(b.events()).enumerate() {
        assert_eq!(event_bits(&e), event_bits(&f), "{ctx}: event {i}");
        events += 1;
    }
    assert_eq!(events, a.len(), "{ctx}: events read back");
    let n_lanes = bulk.lane_book().len();
    for net in [bulk, reference] {
        let replayed = lane_breakdowns(net.audit_log(), n_lanes);
        assert_eq!(lanes_bits(&replayed), lanes(net), "{ctx}: lane replay");
        let report = EnergyAuditor::verify(net);
        assert!(report.is_clean(), "{ctx}: {:?}", report.discrepancies);
        assert_eq!(report.events as usize, a.len(), "{ctx}");
    }
    let rounds = a.round() + 1;
    let (x, y) = (
        lane_breakdowns_by_round(a, n_lanes, rounds),
        lane_breakdowns_by_round(b, n_lanes, rounds),
    );
    for (r, (x, y)) in x.iter().zip(&y).enumerate() {
        assert_eq!(lanes_bits(x), lanes_bits(y), "{ctx}: lanes at round {r}");
    }
    assert!(a.boundaries().eq(b.boundaries()), "{ctx}: boundaries");
}

/// The reference side: a network whose broadcasts take the per-child
/// loop, with its own downward accumulators when frames are shared,
/// cleared when its round closes or its tree changes.
struct Reference {
    net: Network,
    down: Option<Vec<u64>>,
}

impl Reference {
    fn broadcast(&mut self, bits: u64, received: &mut NodeBits) {
        per_child_broadcast(&mut self.net, self.down.as_deref_mut(), bits, received);
    }

    /// Closes the round, which ends the shared-frame window.
    fn end_round(&mut self) {
        self.net.end_round();
        self.tree_changed();
    }

    /// Ends the shared-frame window: clears the accumulators, as the
    /// engine does on a round end or a tree change.
    fn tree_changed(&mut self) {
        if let Some(down) = self.down.as_mut() {
            down.fill(0);
        }
    }
}

#[test]
fn bulk_broadcasts_book_as_the_per_child_loop() {
    const RANGE: f64 = 25.0;
    let (mut broadcasts, mut emptied, mut ended, mut multiwave) = (0, 0, 0, 0);
    for world in 0..8u64 {
        let (audit, shared) = (world & 1 == 1, world & 2 == 2);
        let mut rng = SplitMix64::new(0xb00c + world);
        let n = 20 + (rng.next_u64() % 120) as usize;
        let side = 40.0 + (n as f64).sqrt() * 9.0;
        let topo = Topology::build(placement(&mut rng, n, side), RANGE);
        let (tree, _) = RoutingTree::spanning_alive(&topo, &vec![true; n]);
        let mut bulk = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        bulk.set_failures(Some(FailureModel::new(0.01, world)));
        bulk.set_audit(audit);
        bulk.set_shared_frames(shared);
        let mut reference = Reference {
            net: bulk.clone(),
            down: shared.then(|| vec![0; n]),
        };
        let (mut recv_b, mut recv_r) = (NodeBits::new(), NodeBits::new());
        let mut round_waves = 0;

        for step in 0..400 {
            let ctx =
                format!("world {world} ({n} nodes, audit {audit}, shared {shared}), step {step}");
            let pending = bulk.share.down > 0;
            match rng.next_u64() % 22 {
                0..=3 => {
                    let salt = rng.next_u64();
                    let local = |id| {
                        let d = draw(salt, id);
                        (!d.is_multiple_of(4)).then_some(Values(d % 80))
                    };
                    bulk.convergecast(local);
                    reference.net.convergecast(local);
                    round_waves += 1;
                }
                4..=10 => {
                    // One to four broadcasts: a few sizes recur, some
                    // fragment, one is empty.
                    for _ in 0..1 + rng.next_u64() % 4 {
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
                            reference.broadcast(bits, &mut recv_r);
                            assert_eq!(received, recv_r, "{ctx}");
                        } else {
                            bulk.broadcast_into(bits, &mut recv_b);
                            reference.broadcast(bits, &mut recv_r);
                            assert_eq!(recv_b, recv_r, "{ctx}: the same nodes receive");
                        }
                        broadcasts += 1;
                        round_waves += 1;
                    }
                }
                11 => {
                    let phase = Phase::ALL[(rng.next_u64() % Phase::ALL.len() as u64) as usize];
                    bulk.set_phase(phase);
                    reference.net.set_phase(phase);
                }
                12 => {
                    // Lanes past 255 do not fit a record: their waves are
                    // logged event by event.
                    let lane = match rng.next_u64() % 5 {
                        4 => 300,
                        l => l as u32,
                    };
                    bulk.set_lane(lane);
                    reference.net.set_lane(lane);
                }
                13 => {
                    let died = bulk.fail_round();
                    assert_eq!(died, reference.net.fail_round(), "{ctx}");
                    if died > 0 {
                        reference.tree_changed();
                        ended += usize::from(pending);
                    }
                }
                14 => {
                    let topo = rng
                        .next_u64()
                        .is_multiple_of(2)
                        .then(|| Topology::build(placement(&mut rng, n, side), RANGE));
                    bulk.dynamics_rebuild(topo.clone());
                    reference.net.dynamics_rebuild(topo);
                    reference.tree_changed();
                    ended += usize::from(pending);
                }
                15 => {
                    let id = NodeId(1 + (rng.next_u64() % (n as u64 - 1)) as u32);
                    let alive = !rng.next_u64().is_multiple_of(3);
                    bulk.set_node_alive(id, alive);
                    reference.net.set_node_alive(id, alive);
                }
                16 => {
                    // Every sensor dies: the tree is the sink alone, which
                    // transmits nothing. Then everyone comes back.
                    for net in [&mut bulk, &mut reference.net] {
                        for i in 1..n {
                            net.set_node_alive(NodeId(i as u32), false);
                        }
                        net.dynamics_rebuild(None);
                    }
                    reference.tree_changed();
                    assert_eq!(bulk.tree().tree_size(), 1, "{ctx}");
                    for _ in 0..3 {
                        bulk.broadcast_into(48, &mut recv_b);
                        reference.broadcast(48, &mut recv_r);
                        assert_eq!(recv_b, recv_r, "{ctx}");
                        assert_eq!(recv_b.count_ones(), 1, "{ctx}: only the sink");
                        assert_same(&bulk, &reference.net, false, &ctx);
                    }
                    for net in [&mut bulk, &mut reference.net] {
                        for i in 1..n {
                            net.set_node_alive(NodeId(i as u32), true);
                        }
                        net.dynamics_rebuild(None);
                    }
                    reference.tree_changed();
                    emptied += 1;
                }
                17 => {
                    // A clone carries the plan, the shape and the
                    // accumulators, and books the same.
                    let copy = bulk.clone();
                    assert_same(&copy, &reference.net, false, &ctx);
                    bulk = copy;
                    reference.net = reference.net.clone();
                }
                _ => {
                    bulk.end_round();
                    reference.end_round();
                    multiwave += usize::from(shared && round_waves >= 2);
                    round_waves = 0;
                }
            }
            assert_same(&bulk, &reference.net, step % 16 == 15, &ctx);
        }
        bulk.end_round();
        reference.end_round();
        assert_same(&bulk, &reference.net, true, &format!("world {world} end"));
    }
    assert!(broadcasts > 2_000, "only {broadcasts} broadcasts");
    assert!(emptied > 3, "only {emptied} emptied worlds");
    assert!(
        ended > 3,
        "only {ended} tree changes ended a shared-frame window"
    );
    assert!(
        multiwave > 100,
        "only {multiwave} rounds of several waves in shared frames"
    );
}
