//! Reference equivalence of the running audit.
//!
//! [`AuditLog`], [`EnergyAuditor::verify_parts`], [`lane_breakdowns`],
//! [`lane_breakdowns_by_round`] and [`AuditLog::capture`] below are the
//! plain audit: a log that keeps every 56-byte [`TxEvent`], its joules
//! recomputed from the [`RadioModel`], and a ledger snapshot per round,
//! and an auditor that replays the whole log after the run, adding each
//! event's bits to the node that paid them. The running audit of
//! [`crate::audit`] must reproduce it exactly: the same events bit for bit,
//! the same capture, the same report with its discrepancies in the same
//! order, the same lane books and the same digest hashes, over random call
//! sequences that include every kind and phase, out-of-range nodes,
//! over-wide fields, ACKs of the wrong size, disagreeing ledgers and
//! mid-run enabling. The sequences include lossless broadcast and
//! convergecast waves over random routing trees, which the plain log
//! records event by event — in the per-child loop's order, and sender by
//! sender in wave-slot order — and the running log as one wave record, or
//! event by event where one record cannot hold the wave (a lane past 255,
//! a field too wide); the trees change between waves.

use crate::audit::{
    self as running, AuditReport, Discrepancy, LaneBook, Phase, PhaseBreakdown, Tariff, TxEvent,
    TxKind,
};
use crate::energy::{EnergyLedger, Prices, RadioModel};
use crate::geometry::Point;
use crate::message::MessageSizes;
use crate::splitmix::SplitMix64;
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;
use wsn_obs::PacketRecord;

/// Rebuilds the per-lane [`PhaseBreakdown`]s from an enabled run's audit
/// log, priced at `prices`: every event charges exactly one lane with the
/// same per-kind tally the engine booked live. `n_lanes` floors the result
/// length so callers can compare books of equal size.
pub fn lane_breakdowns(log: &AuditLog, prices: Prices, n_lanes: usize) -> Vec<PhaseBreakdown> {
    let mut book = LaneBook::new(prices);
    for ev in log.events() {
        let (messages, bits, rx_bits) = ev.tally();
        book.charge(ev.lane, ev.phase, messages, bits, rx_bits);
    }
    book.breakdowns(n_lanes)
}

/// Rebuilds the cumulative per-lane [`PhaseBreakdown`]s at *every* round
/// boundary from an enabled run's audit log: `result[r][lane]` is the
/// lane book as it stood at the end of round `r`. Every inner vector is
/// padded to `n_lanes`; rounds past the last recorded event repeat the
/// final state.
pub fn lane_breakdowns_by_round(
    log: &AuditLog,
    prices: Prices,
    n_lanes: usize,
    rounds: u32,
) -> Vec<Vec<PhaseBreakdown>> {
    let mut book = LaneBook::new(prices);
    let mut out: Vec<Vec<PhaseBreakdown>> = Vec::with_capacity(rounds as usize);
    let mut events = log.events().iter().peekable();
    for r in 0..rounds {
        while let Some(ev) = events.next_if(|e| e.round <= r) {
            let (messages, bits, rx_bits) = ev.tally();
            book.charge(ev.lane, ev.phase, messages, bits, rx_bits);
        }
        out.push(book.breakdowns(n_lanes));
    }
    out
}

/// Per-node ledger state captured at a round boundary, so the auditor can
/// reconcile not just final totals but every intermediate round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSnapshot {
    /// The round that just ended (0-based).
    pub round: u32,
    /// Events recorded before the boundary.
    pub events_seen: usize,
    /// Bits each node transmitted, at the boundary.
    pub tx_bits: Vec<u64>,
    /// Bits each node received, at the boundary.
    pub rx_bits: Vec<u64>,
}

/// The per-run transmission log. Disabled by default; enabling it records
/// every [`TxEvent`], its joules recomputed from the radio model, plus a
/// [`RoundSnapshot`] per completed round.
#[derive(Debug, Clone)]
pub struct AuditLog {
    model: RadioModel,
    sizes: MessageSizes,
    range: f64,
    enabled: bool,
    round: u32,
    lane: u32,
    events: Vec<TxEvent>,
    snapshots: Vec<RoundSnapshot>,
}

impl AuditLog {
    /// A disabled log over a network of `model` and `sizes` whose radios
    /// reach `range` meters.
    pub fn new(model: RadioModel, sizes: MessageSizes, range: f64) -> Self {
        AuditLog {
            model,
            sizes,
            range,
            enabled: false,
            round: 0,
            lane: 0,
            events: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Turns event recording on or off (clears any previously recorded
    /// events so a log is always internally consistent).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.events.clear();
        self.snapshots.clear();
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Rounds completed so far (the `round` stamped on new events).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Sets the service lane stamped on subsequent events (sticky until
    /// the next call; rounds do not reset it).
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    /// The lane currently stamped on new events.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Records one transmission (no-op when disabled), its joules
    /// recomputed from first principles: an ACK at the ACK frame size, a
    /// one-sided kind at zero on its missing side.
    pub fn record(
        &mut self,
        phase: Phase,
        kind: TxKind,
        src: NodeId,
        dst: NodeId,
        fragments: u64,
        bits: u64,
    ) {
        if !self.enabled {
            return;
        }
        let (model, range, ack) = (&self.model, self.range, self.sizes.ack_bits);
        let (joules_tx, joules_rx) = match kind {
            TxKind::Data => (model.tx_energy(bits, range), model.rx_energy(bits)),
            TxKind::Ack => (model.tx_energy(ack, range), model.rx_energy(ack)),
            TxKind::BroadcastTx => (model.tx_energy(bits, range), 0.0),
            TxKind::BroadcastRx | TxKind::Idle => (0.0, model.rx_energy(bits)),
        };
        self.events.push(TxEvent {
            round: self.round,
            lane: self.lane,
            phase,
            kind,
            src,
            dst,
            fragments,
            bits,
            joules_tx,
            joules_rx,
        });
    }

    /// Marks a round boundary, snapshotting the ledger when enabled.
    pub fn end_round(&mut self, tx_bits: &[u64], rx_bits: &[u64]) {
        if self.enabled {
            self.snapshots.push(RoundSnapshot {
                round: self.round,
                events_seen: self.events.len(),
                tx_bits: tx_bits.to_vec(),
                rx_bits: rx_bits.to_vec(),
            });
        }
        self.round += 1;
    }

    /// All recorded events, in ledger-charge order.
    pub fn events(&self) -> &[TxEvent] {
        &self.events
    }

    /// The full packet capture of the run: every recorded event as a
    /// [`PacketRecord`], in transmission order (empty unless enabled).
    pub fn capture(&self) -> Vec<PacketRecord> {
        self.events.iter().map(TxEvent::to_packet_record).collect()
    }

    /// All round snapshots, in order.
    pub fn snapshots(&self) -> &[RoundSnapshot] {
        &self.snapshots
    }
}

/// Replays an [`AuditLog`] and reconciles the bits it says each node paid
/// for with the [`EnergyLedger`] — exactly, at every round boundary and on
/// the final totals.
#[derive(Debug, Clone, Copy)]
pub struct EnergyAuditor;

impl EnergyAuditor {
    /// Checks `log` against `ledger`, ACKs against `sizes`' frame size.
    pub fn verify_parts(
        log: &AuditLog,
        sizes: &MessageSizes,
        ledger: &EnergyLedger,
    ) -> AuditReport {
        let n = ledger.len();
        let mut tx_bits = vec![0u64; n];
        let mut rx_bits = vec![0u64; n];
        let mut report = AuditReport {
            events: log.events().len() as u64,
            ..AuditReport::default()
        };

        let mut snaps = log.snapshots().iter().peekable();
        let check_snapshot =
            |snap: &RoundSnapshot, tx_bits: &[u64], rx_bits: &[u64], report: &mut AuditReport| {
                for i in 0..n.min(snap.tx_bits.len()) {
                    let sides = [
                        ("round tx bits", tx_bits[i], snap.tx_bits[i]),
                        ("round rx bits", rx_bits[i], snap.rx_bits[i]),
                    ];
                    for (what, expected, actual) in sides {
                        if expected != actual {
                            report.discrepancies.push(Discrepancy {
                                node: NodeId(i as u32),
                                round: Some(snap.round),
                                what,
                                expected,
                                actual,
                            });
                        }
                    }
                }
                report.rounds_checked += 1;
            };

        for (idx, ev) in log.events().iter().enumerate() {
            while let Some(snap) = snaps.next_if(|s| s.events_seen <= idx) {
                check_snapshot(snap, &tx_bits, &rx_bits, &mut report);
            }
            if ev.kind == TxKind::Ack && ev.bits != sizes.ack_bits {
                report.discrepancies.push(Discrepancy {
                    node: ev.src,
                    round: Some(ev.round),
                    what: "ack frame size",
                    expected: sizes.ack_bits,
                    actual: ev.bits,
                });
            }
            // The bits each end pays for: an ACK costs the ACK frame size,
            // whatever size it claims.
            let paid = match ev.kind {
                TxKind::Ack => sizes.ack_bits,
                _ => ev.bits,
            };
            let (tx, rx) = match ev.kind {
                TxKind::Data | TxKind::Ack => (paid, paid),
                TxKind::BroadcastTx => (paid, 0),
                TxKind::BroadcastRx | TxKind::Idle => (0, paid),
            };
            if ev.src.index() < n {
                tx_bits[ev.src.index()] += tx;
            }
            if ev.dst.index() < n {
                rx_bits[ev.dst.index()] += rx;
            }
        }
        for snap in snaps {
            check_snapshot(snap, &tx_bits, &rx_bits, &mut report);
        }

        for i in 0..n {
            let sides = [
                ("final tx bits", tx_bits[i], ledger.tx_bits_per_node()[i]),
                ("final rx bits", rx_bits[i], ledger.rx_bits_per_node()[i]),
            ];
            for (what, expected, actual) in sides {
                if expected != actual {
                    report.discrepancies.push(Discrepancy {
                        node: NodeId(i as u32),
                        round: None,
                        what,
                        expected,
                        actual,
                    });
                }
            }
        }
        report
    }
}

/// Draws below `n`.
fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Both logs, driven by one random call sequence, the ledger the sequence
/// charges as an honest network would, and the routing tree its waves
/// cross (none for a lone sink, which has no topology).
struct Pair {
    n: usize,
    model: RadioModel,
    sizes: MessageSizes,
    range: f64,
    ledger: EnergyLedger,
    old: AuditLog,
    new: running::AuditLog,
    tree: Option<RoutingTree>,
}

/// A routing tree over `n` nodes placed at random in a 30 m square with a
/// 12 m radio range, some sensors dead: chains, stars, forks and the sink
/// alone. `None` for fewer than two nodes.
fn random_tree(rng: &mut SplitMix64, n: usize) -> Option<RoutingTree> {
    if n < 2 {
        return None;
    }
    let mut at = |_| Point::new(rng.next_f64() * 30.0, rng.next_f64() * 30.0);
    let positions: Vec<Point> = (0..n).map(&mut at).collect();
    let alive: Vec<bool> = (0..n).map(|i| i == 0 || below(rng, 5) != 0).collect();
    Some(RoutingTree::spanning_alive(&Topology::build(positions, 12.0), &alive).0)
}

impl Pair {
    fn new(n: usize, range: f64, rng: &mut SplitMix64) -> Pair {
        let (model, sizes) = (RadioModel::default(), MessageSizes::default());
        Pair {
            n,
            model,
            sizes,
            range,
            ledger: EnergyLedger::new(n, model.prices(range)),
            old: AuditLog::new(model, sizes, range),
            new: running::AuditLog::default(),
            tree: random_tree(rng, n),
        }
    }

    /// Replaces the routing tree.
    fn new_tree(&mut self, rng: &mut SplitMix64) {
        self.tree = random_tree(rng, self.n);
        self.new.tree_changed();
    }

    /// One lossless broadcast wave over the tree, charged to the ledger,
    /// reception before transmission at every node, and recorded in both
    /// logs: event by event in the per-child loop's order in the plain
    /// log, as one wave in the running one. Unless `honest`, its fields are
    /// sometimes too wide for a wave record.
    fn wave(&mut self, rng: &mut SplitMix64, honest: bool) {
        let phase = Phase::ALL[below(rng, Phase::COUNT as u64) as usize];
        let fragments = match below(rng, 8) {
            0 if !honest => u16::MAX as u64 + below(rng, 3),
            1 => 0,
            _ => 1 + below(rng, 4),
        };
        let bits = match below(rng, 10) {
            0 if !honest => u32::MAX as u64 + below(rng, 3),
            1 => 0,
            _ => below(rng, 4000),
        };
        let Some(tree) = &self.tree else {
            return;
        };
        for &u in tree.bottom_up().iter().rev() {
            if tree.is_leaf(u) {
                continue;
            }
            self.ledger.charge_tx(u, bits);
            let (f, b) = (fragments, bits);
            self.old.record(phase, TxKind::BroadcastTx, u, u, f, b);
            for &c in tree.children(u) {
                self.ledger.charge_rx(c, bits);
                self.old.record(phase, TxKind::BroadcastRx, u, c, f, b);
            }
        }
        self.new.record_wave(tree, phase, fragments, bits);
    }

    /// One lossless convergecast wave over the tree, charged to the ledger
    /// sender by sender and recorded in both logs: a data event from each
    /// sender to its parent, in wave-slot order, in the plain log, and one
    /// wave in the running one. Some nodes stay silent; unless `honest`,
    /// some waves have senders too wide for a column entry.
    fn convergecast(&mut self, rng: &mut SplitMix64, honest: bool) {
        let phase = Phase::ALL[below(rng, Phase::COUNT as u64) as usize];
        let wide = !honest && below(rng, 4) == 0;
        let Some(tree) = &self.tree else {
            return;
        };
        self.new.open_convergecast(tree, phase);
        for (slot, &u) in tree.bottom_up().iter().enumerate() {
            let Some(parent) = tree.parent(u) else {
                continue;
            };
            if below(rng, 3) == 0 {
                continue;
            }
            let fragments = match below(rng, 10) {
                0 if wide => 255 + below(rng, 3),
                1 => 0,
                _ => 1 + below(rng, 4),
            };
            let bits = match below(rng, 10) {
                0 if wide => (1 << 24) - 1 + below(rng, 3),
                1 if wide => u32::MAX as u64 + below(rng, 3),
                2 => 0,
                _ => below(rng, 4000),
            };
            self.ledger.charge_tx(u, bits);
            self.ledger.charge_rx(parent, bits);
            self.old
                .record(phase, TxKind::Data, u, parent, fragments, bits);
            self.new.record_sender(slot, fragments, bits);
        }
        self.new.close_convergecast();
    }

    fn enable(&mut self, on: bool) {
        self.old.set_enabled(on);
        let tariff = Tariff::of(&self.model, &self.sizes, self.range);
        self.new.set_enabled(on, self.n, tariff);
    }

    /// One random transmission, charged to the ledger at the bits it
    /// claims and recorded in both logs. An ACK sometimes claims the wrong
    /// size, so its charge disagrees with the audit's.
    fn record(&mut self, rng: &mut SplitMix64) {
        let kind = TxKind::ALL[below(rng, 5) as usize];
        let phase = Phase::ALL[below(rng, Phase::COUNT as u64) as usize];
        let node = |rng: &mut SplitMix64| NodeId(below(rng, self.n as u64 + 2) as u32);
        let (src, dst) = (node(rng), node(rng));
        let fragments = match below(rng, 8) {
            0 => u16::MAX as u64 + below(rng, 3),
            1 => 0,
            _ => 1 + below(rng, 4),
        };
        let bits = match (kind, below(rng, 10)) {
            (_, 0) => u32::MAX as u64 + below(rng, 3),
            (_, 1) => 0,
            (TxKind::Ack, 2) => self.sizes.ack_bits + 1,
            (TxKind::Ack, _) => self.sizes.ack_bits,
            _ => below(rng, 4000),
        };
        let sends = !matches!(kind, TxKind::BroadcastRx | TxKind::Idle);
        if sends && src.index() < self.n {
            self.ledger.charge_tx(src, bits);
        }
        if kind != TxKind::BroadcastTx && dst.index() < self.n {
            self.ledger.charge_rx(dst, bits);
        }
        self.old.record(phase, kind, src, dst, fragments, bits);
        self.new.record(phase, kind, src, dst, fragments, bits);
    }

    /// A round boundary over the ledger's arrays, one entry sometimes
    /// forged.
    fn end_round(&mut self, rng: &mut SplitMix64) {
        self.ledger.end_round();
        let mut tx_bits = self.ledger.tx_bits_per_node().to_vec();
        let mut rx_bits = self.ledger.rx_bits_per_node().to_vec();
        match below(rng, 6) {
            0 => tx_bits[below(rng, self.n as u64) as usize] += 1,
            1 => rx_bits[below(rng, self.n as u64) as usize] += 1,
            _ => {}
        }
        self.old.end_round(&tx_bits, &rx_bits);
        self.new.end_round(&tx_bits, &rx_bits);
    }

    /// Compares every view of the two logs.
    fn check(&self, what: &str) {
        assert_eq!(self.old.is_enabled(), self.new.is_enabled(), "{what}");
        assert_eq!(self.old.round(), self.new.round(), "{what}: round");
        assert_eq!(self.old.lane(), self.new.lane(), "{what}: lane");
        let old: Vec<TxEvent> = self.old.events().to_vec();
        let new: Vec<TxEvent> = self.new.events().collect();
        assert_eq!(new.len(), self.new.len(), "{what}: len");
        assert_eq!(old.len(), new.len(), "{what}: event count");
        for (i, (o, n)) in old.iter().zip(&new).enumerate() {
            assert_eq!(event_bits(o), event_bits(n), "{what}: event {i}");
        }
        let capture: Vec<PacketRecord> = new.iter().map(TxEvent::to_packet_record).collect();
        assert_eq!(self.old.capture(), capture, "{what}: capture");

        let mut forged = self.ledger.clone();
        forged.charge_rx(NodeId(0), 1);
        for ledger in [&self.ledger, &forged] {
            let old = EnergyAuditor::verify_parts(&self.old, &self.sizes, ledger);
            for _ in 0..2 {
                let new = running::EnergyAuditor::verify_parts(&self.new, ledger);
                assert_eq!(old.events, new.events, "{what}: events audited");
                assert_eq!(old.rounds_checked, new.rounds_checked, "{what}");
                assert_eq!(old.discrepancies, new.discrepancies, "{what}: report");
            }
        }

        let prices = self.model.prices(self.range);
        let lanes = 1 + below(&mut SplitMix64::new(old.len() as u64), 4) as usize;
        let (o, n) = (
            lane_breakdowns(&self.old, prices, lanes),
            running::lane_breakdowns(&self.new, lanes),
        );
        assert_eq!(lanes_bits(&o), lanes_bits(&n), "{what}: lane books");
        let rounds = self.new.round() + 2;
        let (o, n) = (
            lane_breakdowns_by_round(&self.old, prices, lanes, rounds),
            running::lane_breakdowns_by_round(&self.new, lanes, rounds),
        );
        assert_eq!(o.len(), n.len(), "{what}: rounds replayed");
        for (r, (o, n)) in o.iter().zip(&n).enumerate() {
            assert_eq!(lanes_bits(o), lanes_bits(n), "{what}: lanes at round {r}");
        }

        assert_eq!(
            events_fnv(&old, true),
            events_fnv(&new, true),
            "{what}: serve digest"
        );
        assert_eq!(
            events_fnv(&old, false),
            events_fnv(&new, false),
            "{what}: config digest"
        );
        let mut hash = Fnv::new();
        for snap in self.old.snapshots() {
            hash.push(snap.round as u64);
            for &b in snap.tx_bits.iter().chain(&snap.rx_bits) {
                hash.push(b);
            }
        }
        let mut running_hash = Fnv::new();
        for (round, tx_bits, rx_bits) in self.new.boundaries() {
            running_hash.push(round as u64);
            for &b in tx_bits.iter().chain(&rx_bits) {
                running_hash.push(b);
            }
        }
        assert_eq!(self.old.snapshots().len(), self.new.boundaries().len());
        assert_eq!(hash.0, running_hash.0, "{what}: boundary digest");
    }
}

type EventBits = (u32, u32, usize, usize, u32, u32, u64, u64, u64, u64);

/// Every field of an event, `f64`s by bit pattern.
fn event_bits(e: &TxEvent) -> EventBits {
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

type LaneBits = [[u64; Phase::COUNT]; 4];

/// Lane books' counters, with their joules by bit pattern.
fn lanes_bits(lanes: &[PhaseBreakdown]) -> Vec<LaneBits> {
    lanes
        .iter()
        .map(|b| {
            let joules = b.joules().map(f64::to_bits);
            [b.messages(), b.bits(), b.rx_bits(), joules]
        })
        .collect()
}

/// The FNV-1a hash of `wsn_sim::parity`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// The events hash of the serve digest (`lane`) or the config digest.
fn events_fnv(events: &[TxEvent], lane: bool) -> u64 {
    let mut hash = Fnv::new();
    for e in events {
        hash.push(e.round as u64);
        if lane {
            hash.push(e.lane as u64);
        }
        for v in [e.phase.index() as u64, e.kind.index() as u64] {
            hash.push(v);
        }
        for v in [e.src.0 as u64, e.dst.0 as u64, e.fragments, e.bits] {
            hash.push(v);
        }
        hash.push(e.joules_tx.to_bits());
        hash.push(e.joules_rx.to_bits());
    }
    hash.0
}

#[test]
fn the_running_audit_matches_the_replay_on_random_call_sequences() {
    let mut rng = SplitMix64::new(0xA0D1);
    for case in 0..400 {
        let n = 1 + below(&mut rng, 6) as usize;
        let range = [12.0, 20.0, 37.5][below(&mut rng, 3) as usize];
        let mut pair = Pair::new(n, range, &mut rng);
        // Most sequences enable before any traffic; the rest enable (or
        // re-enable) mid-run, after rounds the logs did not see.
        let enable_at = if below(&mut rng, 3) == 0 {
            below(&mut rng, 40)
        } else {
            0
        };
        let steps = below(&mut rng, 300);
        for step in 0..steps {
            if step == enable_at || below(&mut rng, 200) == 0 {
                pair.enable(true);
            }
            match below(&mut rng, 24) {
                0..=1 => pair.end_round(&mut rng),
                17..=19 => pair.convergecast(&mut rng, false),
                20..=22 => pair.wave(&mut rng, false),
                23 => pair.new_tree(&mut rng),
                2 => {
                    let lane = match below(&mut rng, 4) {
                        0 => 250 + below(&mut rng, 20) as u32,
                        l => l as u32 - 1,
                    };
                    pair.old.set_lane(lane);
                    pair.new.set_lane(lane);
                }
                3 if below(&mut rng, 8) == 0 => pair.check(&format!("case {case} step {step}")),
                _ => pair.record(&mut rng),
            }
        }
        pair.check(&format!("case {case} end"));
    }
}

#[test]
fn a_clean_run_escapes_nothing() {
    let mut rng = SplitMix64::new(7);
    let mut pair = Pair::new(5, 20.0, &mut rng);
    pair.enable(true);
    for _ in 0..50 {
        if below(&mut rng, 4) == 0 {
            pair.new_tree(&mut rng);
        }
        for _ in 0..3 {
            pair.wave(&mut rng, true);
            pair.convergecast(&mut rng, true);
        }
        for _ in 0..20 {
            // Honest, in-range transmissions only.
            let kind = TxKind::ALL[below(&mut rng, 5) as usize];
            let bits = if kind == TxKind::Ack {
                pair.sizes.ack_bits
            } else {
                below(&mut rng, 4000)
            };
            let (src, dst) = (NodeId(1 + below(&mut rng, 4) as u32), NodeId(0));
            if !matches!(kind, TxKind::BroadcastRx | TxKind::Idle) {
                pair.ledger.charge_tx(src, bits);
            }
            if kind != TxKind::BroadcastTx {
                pair.ledger.charge_rx(dst, bits);
            }
            pair.old.record(Phase::Validation, kind, src, dst, 1, bits);
            pair.new.record(Phase::Validation, kind, src, dst, 1, bits);
        }
        pair.ledger.end_round();
        let (t, r) = (
            pair.ledger.tx_bits_per_node().to_vec(),
            pair.ledger.rx_bits_per_node().to_vec(),
        );
        pair.old.end_round(&t, &r);
        pair.new.end_round(&t, &r);
    }
    pair.check("clean run");
    assert!(running::EnergyAuditor::verify_parts(&pair.new, &pair.ledger).is_clean());
    assert_eq!(pair.new.escaped(), 0, "a clean run keeps only records");
    assert!(
        pair.new.records() + 100 <= pair.new.len(),
        "one record per wave: {} records for {} events",
        pair.new.records(),
        pair.new.len()
    );
}
