//! Reference equivalence of the bulk convergecast path.
//!
//! [`per_sender_wave`] below is the earlier booking of a convergecast, and
//! [`per_sender_rebuild`] of a rebuild's beacon wave: every sender goes
//! through [`per_sender_send`], which sends its payload through
//! [`send_over_link`] over a lossy link, or books it with one
//! [`Books::charge`] over a perfect one — either way the ledger, traffic,
//! phase and lane books and one audit event per sender. Every digest in
//! the repository was recorded over it, so [`Network::convergecast_in`],
//! [`Network::convergecast`], [`Network::convergecast_late`] and
//! [`Network::dynamics_rebuild`] — which book a lossless wave's senders
//! with [`Books::charge_sender`], the rest once per wave, and have the
//! audit log keep one record for it — must leave every book where the
//! per-sender loop leaves it: the same
//! aggregate and wave report, the same bits in every node's ledger
//! entries, the same traffic, phase, lane and reliability books and
//! histograms, and an audit log of the same length that reads back the
//! same events, replays the same lane books at every round boundary and
//! the same boundaries, and verifies clean.
//!
//! The random call sequences run audited and unaudited, solo and in
//! shared frames, lossless and lossy (with ARQ, with recovery passes, and
//! worlds whose loss switches on and off between waves), with lanes 0–4
//! and 300 (which the audit cannot pack), phase switches, rounds of
//! several waves, clones, failures, rebuilds and churn, over empty,
//! single-value and fragmenting payloads, some too wide for the audit's
//! column.

use super::*;
use crate::audit::{lane_breakdowns, lane_breakdowns_by_round, EnergyAuditor, TxEvent};
use crate::energy::EnergyLedger;
use crate::geometry::Point;
use crate::reliability::FailureModel;
use crate::splitmix::SplitMix64;
use crate::topology::Topology;

/// The per-sender booking of one unicast `from → to`: over a lossy link
/// the payload goes through [`send_over_link`]; over a perfect one it is
/// one [`Books::charge`] of its solo frames, or of the shared frame's
/// marginal `(fragments, bits)` that `shared` gives, with its `MsgBits`
/// samples, a zero `Retries` sample and one delivery.
#[allow(clippy::too_many_arguments)]
fn per_sender_send(
    books: &mut Books,
    loss: &mut Option<LossModel>,
    wire: &Wire,
    phase: Phase,
    (from, slot, to): (NodeId, usize, NodeId),
    payload_bits: u64,
    values: usize,
    shared: Option<(u64, u64)>,
) -> bool {
    if let Some(loss) = loss.as_mut() {
        return send_over_link(
            books,
            loss,
            wire,
            phase,
            from,
            slot,
            to,
            payload_bits,
            values,
        );
    }
    let framing = shared.map_or(Framing::Solo(payload_bits), |(fragments, bits)| {
        Framing::Shared(fragments, bits)
    });
    let (fragments, bits) = framing.frames(&wire.sizes);
    books.stats.values += values as u64;
    books.charge(phase, TxKind::Data, from, to, fragments, bits);
    books.hists.frames(slot, &wire.sizes, framing);
    books.hists.record(slot, HistKind::Retries, 0);
    books.rel.delivered += 1;
    true
}

/// The per-sender convergecast over `net`'s routing tree: the engine's
/// wave, every send booked by [`per_sender_send`].
fn per_sender_wave<T: Aggregate>(
    net: &mut Network,
    store: &mut WaveStore<T>,
    mut local: impl FnMut(NodeId, &mut Option<T>) -> bool,
    mut prune: impl FnMut(NodeId, &mut T),
    late: bool,
) {
    let wire = net.wire();
    net.books.stats.convergecasts += 1;
    net.wave.clear();
    let tsize = net.tree.tree_size();
    let Network {
        tree,
        books,
        loss,
        reliability,
        wave,
        phase,
        share,
        fanin,
        stranded,
        ..
    } = net;
    let phase = *phase;
    fanin.clear();
    fanin.resize(tsize, 0);
    stranded.clear();
    store.slots.resize_with(tsize, || None);
    let WaveStore { slots, spare, .. } = store;
    let order = tree.bottom_up();
    let parent_slot = tree.parent_slots();
    let level_offsets = tree.level_offsets();
    let sharing = share.enabled && loss.is_none();
    for lvl in 0..tree.levels().saturating_sub(1) {
        let start = level_offsets[lvl] as usize;
        let end = level_offsets[lvl + 1] as usize;
        let depth = tree.depth(order[start]) as u64;
        for pos in start..end {
            let u = order[pos];
            let from_children = fanin[pos] > 0;
            let own = local(u, spare);
            if !(from_children || own) {
                continue;
            }
            let pslot = parent_slot[pos] as usize;
            let (below, above) = slots.split_at_mut(pslot);
            let held = if from_children {
                let acc = below[pos].as_mut().expect("a live slot holds a payload");
                if own {
                    acc.merge_from(spare);
                }
                &mut below[pos]
            } else {
                &mut *spare
            };
            let merged_in = fanin[pos] as u64 + own as u64;
            let payload = held.as_mut().expect("a live payload");
            prune(u, payload);
            wave.senders += 1;
            books.hists.record(pos, HistKind::HopDepth, depth);
            books.hists.record(pos, HistKind::FanIn, merged_in);
            let bits = payload.payload_bits(&wire.sizes);
            let values = payload.value_count();
            let parent = order[pslot];
            let shared =
                sharing.then(|| SharedWave::frame(&mut share.up[u.index()], bits, &wire.sizes));
            let link = (u, pos, parent);
            let arrived = per_sender_send(books, loss, &wire, phase, link, bits, values, shared);
            if arrived {
                let live = fanin[pslot] > 0;
                fanin[pslot] += 1;
                fold(held, &mut above[0], live);
            } else if reliability.recovery_passes > 0 {
                if !from_children {
                    std::mem::swap(&mut below[pos], spare);
                }
                stranded.push((u, pos as u32));
            } else {
                wave.dropped_roots.push(u);
            }
        }
    }
    let root = tsize - 1;
    let mut root_live = fanin[root] > 0;
    let recovery = Phase::Recovery;
    let mut pass = 0;
    while !stranded.is_empty() && pass < reliability.recovery_passes {
        pass += 1;
        stranded.retain_mut(|(holder, slot)| {
            let slot = *slot as usize;
            let payload = slots[slot].as_ref().expect("a stranded payload");
            let bits = payload.payload_bits(&wire.sizes);
            let values = payload.value_count();
            let mut at = *holder;
            let delivered = loop {
                let parent = tree.parent(at).expect("stranded below the root");
                let hop = tree.wave_slot(at).expect("stranded node is in the tree");
                let link = (at, hop, parent);
                if !per_sender_send(books, loss, &wire, recovery, link, bits, values, None) {
                    break false;
                }
                if parent.is_root() {
                    break true;
                }
                at = parent;
            };
            *holder = at;
            if delivered {
                books.rel.recovered += 1;
                let (below, above) = slots.split_at_mut(root);
                fold(&mut below[slot], &mut above[0], root_live);
                root_live = true;
            }
            !delivered
        });
    }
    for &(_, slot) in stranded.iter() {
        wave.dropped_roots.push(order[slot as usize]);
    }
    if root_live {
        let payload = slots[root].as_mut().expect("a live slot holds a payload");
        prune(NodeId::ROOT, payload);
    }
    if late && store.has_result {
        if root_live {
            let result = store.result.as_mut().expect("a standing result");
            result.merge_from(&mut store.slots[root]);
        }
    } else {
        store.has_result = root_live;
        if root_live {
            std::mem::swap(&mut store.result, &mut store.slots[root]);
        }
    }
}

/// The per-sender rebuild: [`Network::dynamics_rebuild`]'s new tree, its
/// beacon wave booked by [`per_sender_send`] over perfect links.
fn per_sender_rebuild(net: &mut Network, topo: Option<Topology>) -> usize {
    if let Some(t) = topo {
        net.topo = t;
    }
    let (tree, orphans) = RoutingTree::spanning_alive(&net.topo, &net.alive);
    net.install_tree(tree, orphans.len());
    net.books.rel.rebuilds += 1;
    let (wire, beacon) = (net.wire(), net.sizes.counter_bits);
    let Network { tree, books, .. } = net;
    for (s, &u) in tree.bottom_up().iter().enumerate() {
        if let Some(parent) = tree.parent(u) {
            let link = (u, s, parent);
            per_sender_send(
                books,
                &mut None,
                &wire,
                Phase::Rebuild,
                link,
                beacon,
                0,
                None,
            );
        }
    }
    orphans.len()
}

/// `n` values: no values is an empty payload, and more than 64 fragment
/// under the default sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Values(u64);

impl Aggregate for Values {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        self.0 * sizes.value_bits
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

/// Compares the books of the two sides and, when audited, every view of
/// their audit logs.
fn assert_same(bulk: &Network, reference: &Network, ctx: &str) {
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
    assert_eq!(
        bulk.reliability_stats(),
        reference.reliability_stats(),
        "{ctx}"
    );
    let report = |net: &Network| {
        (
            net.last_wave().senders,
            net.last_wave().dropped_roots.clone(),
        )
    };
    assert_eq!(report(bulk), report(reference), "{ctx}: wave report");
    assert_eq!(bulk.histograms(), reference.histograms(), "{ctx}");
    assert_eq!(
        bulk.histogram_totals(),
        reference.histogram_totals(),
        "{ctx}"
    );
    let (a, b) = (bulk.audit_log(), reference.audit_log());
    assert_eq!(a.len(), b.len(), "{ctx}: events logged");
    if !a.is_enabled() {
        return;
    }
    // Every field of every event, joules included: equal bits at equal
    // prices.
    let mut events = 0;
    for (i, (e, f)) in a.events().zip(b.events()).enumerate() {
        if e != f {
            assert_eq!(event_bits(&e), event_bits(&f), "{ctx}: event {i}");
        }
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
    assert!(x == y, "{ctx}: lanes by round");
    assert!(a.boundaries().eq(b.boundaries()), "{ctx}: boundaries");
}

/// The contributions of one wave, the same draw on both sides: most waves
/// have every sensor send none to 40 values (none is an empty payload),
/// sparse ones a few sensors one value each, and, over lossless links,
/// heavy ones also a few sensors a payload of 300 fragments, too wide for
/// an audit column entry.
#[derive(Debug, Clone, Copy)]
struct Draw {
    salt: u64,
    style: u64,
}

impl Draw {
    fn of(rng: &mut SplitMix64, lossless: bool) -> Draw {
        let style = rng.next_u64() % 8;
        Draw {
            salt: rng.next_u64(),
            style: if style == 2 && !lossless { 3 } else { style },
        }
    }

    fn local(self, id: NodeId) -> Option<Values> {
        let d = SplitMix64::new(self.salt ^ (u64::from(id.0) << 32)).next_u64();
        match self.style {
            0 | 1 => d.is_multiple_of(5).then_some(Values(1)),
            2 if d % 13 == 3 => Some(Values(300 * 64)),
            _ => (!d.is_multiple_of(4)).then_some(Values(d % 41)),
        }
    }
}

/// Drives one bulk network and its per-sender reference through the same
/// random call sequence, checking every book after every step.
fn run_world(world: u64) -> [usize; 5] {
    const RANGE: f64 = 25.0;
    let (audit, shared, lossy) = (world & 1 == 1, world & 2 == 2, world & 4 == 4);
    let mut rng = SplitMix64::new(0xc0c0 + world);
    let n = 10 + (rng.next_u64() % 40) as usize;
    let side = 40.0 + (n as f64).sqrt() * 9.0;
    let topo = Topology::build(placement(&mut rng, n, side), RANGE);
    let (tree, _) = RoutingTree::spanning_alive(&topo, &vec![true; n]);
    let mut bulk = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
    bulk.set_failures(Some(FailureModel::new(0.01, world)));
    bulk.set_audit(audit);
    bulk.set_shared_frames(shared);
    if lossy {
        bulk.set_loss(Some(LossModel::new(0.2, world)));
        bulk.set_reliability(match world % 3 {
            0 => ReliabilityConfig::arq(2),
            1 => ReliabilityConfig::recovering(1, 3),
            _ => ReliabilityConfig::default(),
        });
    }
    let mut reference = bulk.clone();
    // The reference's stores: one for the by-value waves, whose bulk side
    // runs over the network's pool, and one beside the bulk side's own.
    let (mut pooled, mut store_b, mut store_r) =
        (WaveStore::new(), WaveStore::new(), WaveStore::new());
    let mut mask = NodeBits::new();
    // Lossless waves, lossy waves, audited lossless waves of more than one
    // sender recorded as one record and event by event, and rounds closed
    // after two or more lossless waves in shared frames.
    let mut seen = [0; 5];
    let mut round_waves = 0;
    for step in 0..200 {
        let ctx = format!("world {world} ({n} nodes, audit {audit}, shared {shared}), step {step}");
        match rng.next_u64() % 22 {
            0..=9 => {
                let draw = Draw::of(&mut rng, bulk.loss.is_none());
                let cap = 1 + rng.next_u64() % 60;
                let prune = |_, v: &mut Values| v.0 = v.0.min(cap);
                let local = |id, slot: &mut Option<Values>| {
                    *slot = draw.local(id);
                    slot.is_some()
                };
                let entry = rng.next_u64() % 3;
                let log = |net: &Network| (net.audit_log().records(), net.audit_log().len());
                let before = log(&bulk);
                let (got, want) = match entry {
                    0 => {
                        let got = bulk.convergecast(|id| draw.local(id));
                        per_sender_wave(&mut reference, &mut pooled, local, |_, _| {}, false);
                        (got, pooled.result().copied())
                    }
                    1 => {
                        let got = bulk.convergecast_in(&mut store_b, local, prune).copied();
                        per_sender_wave(&mut reference, &mut store_r, local, prune, false);
                        (got, store_r.result().copied())
                    }
                    _ => {
                        let got = bulk.convergecast_late(&mut store_b, local).copied();
                        per_sender_wave(&mut reference, &mut store_r, local, |_, _| {}, true);
                        (got, store_r.result().copied())
                    }
                };
                assert_eq!(got, want, "{ctx}: aggregate");
                let lossless = bulk.loss.is_none();
                seen[usize::from(!lossless)] += 1;
                round_waves += usize::from(lossless);
                let (records, events) = log(&bulk);
                let (records, events) = (records - before.0, events - before.1);
                if audit && lossless && events > 1 {
                    seen[2] += usize::from(records == 1);
                    seen[3] += usize::from(records == events);
                }
            }
            10..=11 => {
                let bits = [0, 16, 48, 3_000][(rng.next_u64() % 4) as usize];
                bulk.broadcast_into(bits, &mut mask);
                reference.broadcast_into(bits, &mut mask);
                round_waves += usize::from(bulk.loss.is_none());
            }
            12 => {
                let phase = Phase::ALL[(rng.next_u64() % Phase::ALL.len() as u64) as usize];
                bulk.set_phase(phase);
                reference.set_phase(phase);
            }
            13 => {
                let lane = match rng.next_u64() % 6 {
                    5 => 300,
                    l => l as u32,
                };
                bulk.set_lane(lane);
                reference.set_lane(lane);
            }
            14 => {
                let died = bulk.fail_round();
                assert_eq!(died, reference.fail_round(), "{ctx}");
            }
            15 => {
                let topo = rng
                    .next_u64()
                    .is_multiple_of(2)
                    .then(|| Topology::build(placement(&mut rng, n, side), RANGE));
                let orphans = bulk.dynamics_rebuild(topo.clone());
                assert_eq!(orphans, per_sender_rebuild(&mut reference, topo), "{ctx}");
            }
            16 => {
                let id = NodeId(1 + (rng.next_u64() % (n as u64 - 1)) as u32);
                let alive = !rng.next_u64().is_multiple_of(3);
                bulk.set_node_alive(id, alive);
                reference.set_node_alive(id, alive);
            }
            17 => {
                // A clone carries the log's shapes, masks and column, and
                // books the same.
                let copy = bulk.clone();
                assert_same(&copy, &reference, &ctx);
                bulk = copy;
                reference = reference.clone();
            }
            18 => {
                // Loss switches on or off between waves, on both sides
                // alike.
                let loss = bulk
                    .loss
                    .is_none()
                    .then(|| LossModel::new(0.15, rng.next_u64()));
                bulk.set_loss(loss.clone());
                reference.set_loss(loss);
            }
            _ => {
                bulk.end_round();
                reference.end_round();
                seen[4] += usize::from(shared && round_waves >= 2);
                round_waves = 0;
            }
        }
        assert_same(&bulk, &reference, &ctx);
    }
    bulk.end_round();
    reference.end_round();
    assert_same(&bulk, &reference, &format!("world {world} end"));
    seen
}

#[test]
fn convergecasts_book_as_the_per_sender_loop() {
    let mut seen = [0; 5];
    for world in 0..16 {
        for (total, count) in seen.iter_mut().zip(run_world(world)) {
            *total += count;
        }
    }
    let [lossless, lossy, packed, unpacked, multiwave] = seen;
    assert!(lossless > 400, "only {lossless} lossless waves");
    assert!(lossy > 200, "only {lossy} lossy waves");
    assert!(packed > 100, "only {packed} audited waves in one record");
    // Lane 300, or a sender too wide for a column entry.
    assert!(unpacked > 20, "only {unpacked} audited waves unpacked");
    assert!(
        multiwave > 50,
        "only {multiwave} rounds of several lossless waves in shared frames"
    );
}
