//! Reference equivalence of the running audit.
//!
//! [`AuditLog`], [`EnergyAuditor::verify_parts`], [`lane_breakdowns`],
//! [`lane_breakdowns_by_round`] and [`AuditLog::capture`] below are the
//! earlier audit: a log that keeps every 56-byte [`TxEvent`] and a ledger
//! snapshot per round, and an auditor that replays the whole log after the
//! run. Every digest in the repository was recorded over their output, so
//! the running audit of [`crate::audit`] must reproduce it exactly: the
//! same events bit for bit, the same capture, the same report with its
//! discrepancies in the same order, the same lane books and the same
//! digest hashes, over random call sequences that include every kind and
//! phase, out-of-range nodes, over-wide fields, mispriced, `-0.0` and NaN
//! joules, disagreeing ledgers and mid-run enabling. The sequences include
//! lossless broadcast waves over random routing trees, which the earlier
//! log records event by event in the per-child loop's order and the
//! running log as one wave record, or event by event where one record
//! cannot reproduce the wave; the trees change between waves.

use crate::audit::{
    self as running, AuditReport, Discrepancy, LaneBook, Phase, PhaseBreakdown, Tariff, TxEvent,
    TxKind,
};
use crate::energy::{EnergyLedger, RadioModel};
use crate::geometry::Point;
use crate::message::MessageSizes;
use crate::splitmix::SplitMix64;
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;
use wsn_obs::PacketRecord;

/// Rebuilds the per-lane [`PhaseBreakdown`]s from an enabled run's audit
/// log. Bit-exact against the live [`LaneBook`] the network maintained:
/// every event charges exactly one lane with the same per-kind
/// `(messages, bits, joules)` the engine booked live, so per-lane
/// accumulation order — hence `f64` rounding — is identical. `n_lanes`
/// floors the result length so callers can compare books of equal size.
pub fn lane_breakdowns(log: &AuditLog, n_lanes: usize) -> Vec<PhaseBreakdown> {
    let mut book = LaneBook::default();
    for ev in log.events() {
        let (messages, bits, joules) = ev.tally();
        book.charge(ev.lane, ev.phase, messages, bits, joules);
    }
    let mut lanes = book.breakdowns().to_vec();
    if lanes.len() < n_lanes {
        lanes.resize(n_lanes, PhaseBreakdown::default());
    }
    lanes
}

/// Rebuilds the cumulative per-lane [`PhaseBreakdown`]s at *every* round
/// boundary from an enabled run's audit log: `result[r][lane]` is the
/// lane book as it stood at the end of round `r`. Each snapshot is
/// bit-exact against what the live [`LaneBook`] held at that boundary
/// (same argument as [`lane_breakdowns`]: per-lane, per-phase `f64`
/// accumulation order is preserved), which is what lets the fuzzer replay
/// the monitoring plane's watchdog conditions — a budget overrun raised
/// at `(round, slot)` must reconcile against the lane's replayed
/// cumulative charge crossing the budget exactly at that round. Every
/// inner vector is padded to `n_lanes`; rounds past the last recorded
/// event repeat the final state.
pub fn lane_breakdowns_by_round(
    log: &AuditLog,
    n_lanes: usize,
    rounds: u32,
) -> Vec<Vec<PhaseBreakdown>> {
    let mut book = LaneBook::default();
    let snapshot = |book: &LaneBook| -> Vec<PhaseBreakdown> {
        let mut lanes = book.breakdowns().to_vec();
        if lanes.len() < n_lanes {
            lanes.resize(n_lanes, PhaseBreakdown::default());
        }
        lanes
    };
    let mut out: Vec<Vec<PhaseBreakdown>> = Vec::with_capacity(rounds as usize);
    let mut events = log.events().iter().peekable();
    for r in 0..rounds {
        while events.peek().is_some_and(|e| e.round <= r) {
            let ev = events.next().expect("peeked");
            let (messages, bits, joules) = ev.tally();
            book.charge(ev.lane, ev.phase, messages, bits, joules);
        }
        out.push(snapshot(&book));
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
    /// Cumulative consumption per node at the boundary.
    pub consumed: Vec<f64>,
    /// Cumulative transmit consumption per node at the boundary.
    pub consumed_tx: Vec<f64>,
}

/// The per-run transmission log. Disabled by default (the hot path then
/// only pays one branch per link); enabling it records every [`TxEvent`]
/// plus a [`RoundSnapshot`] per completed round. One log belongs to one
/// simulation run, so appends are plain `Vec` pushes — no synchronization,
/// which is what keeps audited runs bit-identical across thread counts.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    enabled: bool,
    round: u32,
    lane: u32,
    events: Vec<TxEvent>,
    snapshots: Vec<RoundSnapshot>,
}

impl AuditLog {
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

    /// Records one transmission (no-op when disabled).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        phase: Phase,
        kind: TxKind,
        src: NodeId,
        dst: NodeId,
        fragments: u64,
        bits: u64,
        joules_tx: f64,
        joules_rx: f64,
    ) {
        if !self.enabled {
            return;
        }
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
    pub fn end_round(&mut self, consumed: &[f64], consumed_tx: &[f64]) {
        if self.enabled {
            self.snapshots.push(RoundSnapshot {
                round: self.round,
                events_seen: self.events.len(),
                consumed: consumed.to_vec(),
                consumed_tx: consumed_tx.to_vec(),
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

/// Replays an [`AuditLog`] against the radio model and message sizes and
/// reconciles the recomputed per-node costs with the [`EnergyLedger`] —
/// bit-exactly, at every round boundary and on the final totals.
#[derive(Debug, Clone, Copy)]
pub struct EnergyAuditor;

impl EnergyAuditor {
    /// [`EnergyAuditor::verify`] over explicit parts, so tests can replay
    /// a log against a deliberately corrupted ledger.
    pub fn verify_parts(
        log: &AuditLog,
        model: &RadioModel,
        sizes: &MessageSizes,
        range: f64,
        ledger: &EnergyLedger,
    ) -> AuditReport {
        let n = ledger.len();
        let mut consumed = vec![0.0f64; n];
        let mut consumed_tx = vec![0.0f64; n];
        let mut report = AuditReport {
            events: log.events().len() as u64,
            ..AuditReport::default()
        };

        let mut snaps = log.snapshots().iter().peekable();
        let check_snapshot = |snap: &RoundSnapshot,
                              consumed: &[f64],
                              consumed_tx: &[f64],
                              report: &mut AuditReport| {
            for i in 0..n.min(snap.consumed.len()) {
                if consumed[i] != snap.consumed[i] {
                    report.discrepancies.push(Discrepancy {
                        node: NodeId(i as u32),
                        round: Some(snap.round),
                        what: "round total",
                        expected: consumed[i],
                        actual: snap.consumed[i],
                    });
                }
                if consumed_tx[i] != snap.consumed_tx[i] {
                    report.discrepancies.push(Discrepancy {
                        node: NodeId(i as u32),
                        round: Some(snap.round),
                        what: "round tx total",
                        expected: consumed_tx[i],
                        actual: snap.consumed_tx[i],
                    });
                }
            }
            report.rounds_checked += 1;
        };

        for (idx, ev) in log.events().iter().enumerate() {
            while snaps.peek().is_some_and(|s| s.events_seen <= idx) {
                let snap = snaps.next().expect("peeked");
                check_snapshot(snap, &consumed, &consumed_tx, &mut report);
            }
            // Recompute the on-air cost from first principles: the same
            // model calls over the same bits the engine made, in the same
            // order — so agreement must be bit-exact.
            let (tx, rx) = match ev.kind {
                TxKind::Data => (model.tx_energy(ev.bits, range), model.rx_energy(ev.bits)),
                TxKind::Ack => (
                    model.tx_energy(sizes.ack_bits, range),
                    model.rx_energy(sizes.ack_bits),
                ),
                TxKind::BroadcastTx => (model.tx_energy(ev.bits, range), 0.0),
                TxKind::BroadcastRx => (0.0, model.rx_energy(ev.bits)),
                TxKind::Idle => (0.0, model.rx_energy(ev.bits)),
            };
            if ev.kind == TxKind::Ack && ev.bits != sizes.ack_bits {
                report.discrepancies.push(Discrepancy {
                    node: ev.src,
                    round: Some(ev.round),
                    what: "ack frame size",
                    expected: sizes.ack_bits as f64,
                    actual: ev.bits as f64,
                });
            }
            if tx != ev.joules_tx {
                report.discrepancies.push(Discrepancy {
                    node: ev.src,
                    round: Some(ev.round),
                    what: "event tx energy",
                    expected: tx,
                    actual: ev.joules_tx,
                });
            }
            if rx != ev.joules_rx {
                report.discrepancies.push(Discrepancy {
                    node: ev.dst,
                    round: Some(ev.round),
                    what: "event rx energy",
                    expected: rx,
                    actual: ev.joules_rx,
                });
            }
            // Accumulate exactly like EnergyLedger::charge_tx / charge:
            // tx to the sender first, then rx to the receiver.
            if ev.src.index() < n {
                consumed[ev.src.index()] += tx;
                consumed_tx[ev.src.index()] += tx;
            }
            if ev.dst.index() < n {
                consumed[ev.dst.index()] += rx;
            }
        }
        for snap in snaps {
            check_snapshot(snap, &consumed, &consumed_tx, &mut report);
        }

        let ledger_consumed = ledger.consumed_per_node();
        let ledger_tx = ledger.consumed_tx_per_node();
        for i in 0..n {
            if consumed[i] != ledger_consumed[i] {
                report.discrepancies.push(Discrepancy {
                    node: NodeId(i as u32),
                    round: None,
                    what: "final total",
                    expected: consumed[i],
                    actual: ledger_consumed[i],
                });
            }
            if consumed_tx[i] != ledger_tx[i] {
                report.discrepancies.push(Discrepancy {
                    node: NodeId(i as u32),
                    round: None,
                    what: "final tx total",
                    expected: consumed_tx[i],
                    actual: ledger_tx[i],
                });
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
        Pair {
            n,
            model: RadioModel::default(),
            sizes: MessageSizes::default(),
            range,
            ledger: EnergyLedger::new(n),
            old: AuditLog::default(),
            new: running::AuditLog::default(),
            tree: random_tree(rng, n),
        }
    }

    /// Replaces the routing tree.
    fn new_tree(&mut self, rng: &mut SplitMix64) {
        self.tree = random_tree(rng, self.n);
        self.new.tree_changed();
    }

    /// One lossless broadcast wave over the tree, charged to the ledger at
    /// its true prices, reception before transmission at every node, and
    /// recorded in both logs at those prices when `honest`, else at
    /// sometimes-wrong ones and with fields sometimes too wide: event by
    /// event in the per-child loop's order in the earlier log, as one wave
    /// in the running one.
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
        let (tx, rx) = (
            self.model.tx_energy(bits, self.range),
            self.model.rx_energy(bits),
        );
        let wrong = if honest { 16 } else { below(rng, 16) };
        let (joules_tx, joules_rx) = match wrong {
            0 => (tx * 2.0, rx),
            1 => (tx, rx + 1e-12),
            2 => (-tx, rx),
            3 => (tx, -rx),
            4 => (f64::NAN, rx),
            5 => (tx, f64::NAN),
            _ => (tx, rx),
        };
        let Some(tree) = &self.tree else {
            return;
        };
        for &u in tree.bottom_up().iter().rev() {
            if tree.is_leaf(u) {
                continue;
            }
            self.ledger.charge_tx(u, tx);
            let (f, b) = (fragments, bits);
            let tx_kind = TxKind::BroadcastTx;
            self.old.record(phase, tx_kind, u, u, f, b, joules_tx, 0.0);
            for &c in tree.children(u) {
                self.ledger.charge(c, rx);
                let rx_kind = TxKind::BroadcastRx;
                self.old.record(phase, rx_kind, u, c, f, b, 0.0, joules_rx);
            }
        }
        self.new
            .record_wave(tree, phase, fragments, bits, joules_tx, joules_rx);
    }

    fn enable(&mut self, on: bool) {
        self.old.set_enabled(on);
        let tariff = Tariff::of(&self.model, &self.sizes, self.range);
        self.new.set_enabled(on, self.n, tariff);
    }

    /// One random transmission, charged to the ledger at its true price
    /// and recorded in both logs at a sometimes-wrong one.
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
        let priced = if kind == TxKind::Ack {
            self.sizes.ack_bits
        } else {
            bits
        };
        let (tx, rx) = (
            self.model.tx_energy(priced, self.range),
            self.model.rx_energy(priced),
        );
        let (tx, rx) = match kind {
            TxKind::Data | TxKind::Ack => (tx, rx),
            TxKind::BroadcastTx => (tx, 0.0),
            TxKind::BroadcastRx | TxKind::Idle => (0.0, rx),
        };
        let sends = !matches!(kind, TxKind::BroadcastRx | TxKind::Idle);
        if sends && src.index() < self.n {
            self.ledger.charge_tx(src, tx);
        }
        if kind != TxKind::BroadcastTx && dst.index() < self.n {
            self.ledger.charge(dst, rx);
        }
        let (joules_tx, joules_rx) = match below(rng, 16) {
            0 => (tx * 2.0, rx),
            1 => (tx, rx + 1e-12),
            2 => (-tx, rx),
            3 => (tx, -rx),
            4 => (f64::NAN, rx),
            5 => (tx, f64::NAN),
            _ => (tx, rx),
        };
        for log in [&mut self.old as &mut dyn Recording, &mut self.new] {
            log.record(phase, kind, src, dst, fragments, bits, joules_tx, joules_rx);
        }
    }

    /// A round boundary over the ledger's arrays, one entry sometimes
    /// forged.
    fn end_round(&mut self, rng: &mut SplitMix64) {
        self.ledger.end_round();
        let mut consumed = self.ledger.consumed_per_node().to_vec();
        let mut consumed_tx = self.ledger.consumed_tx_per_node().to_vec();
        match below(rng, 6) {
            0 => consumed[below(rng, self.n as u64) as usize] += 1e-9,
            1 => consumed_tx[below(rng, self.n as u64) as usize] += 1e-9,
            _ => {}
        }
        self.old.end_round(&consumed, &consumed_tx);
        self.new.end_round(&consumed, &consumed_tx);
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
        forged.charge(NodeId(0), 1e-9);
        for ledger in [&self.ledger, &forged] {
            let old = EnergyAuditor::verify_parts(
                &self.old,
                &self.model,
                &self.sizes,
                self.range,
                ledger,
            );
            for _ in 0..2 {
                let new = running::EnergyAuditor::verify_parts(&self.new, ledger);
                assert_eq!(report_bits(&old), report_bits(&new), "{what}: report");
            }
        }

        let lanes = 1 + below(&mut SplitMix64::new(old.len() as u64), 4) as usize;
        let (o, n) = (
            lane_breakdowns(&self.old, lanes),
            running::lane_breakdowns(&self.new, lanes),
        );
        assert_eq!(lanes_bits(&o), lanes_bits(&n), "{what}: lane books");
        let rounds = self.new.round() + 2;
        let (o, n) = (
            lane_breakdowns_by_round(&self.old, lanes, rounds),
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
            for &j in snap.consumed.iter().chain(&snap.consumed_tx) {
                hash.push(j.to_bits());
            }
        }
        let mut running_hash = Fnv::new();
        for (round, consumed, consumed_tx) in self.new.boundaries() {
            running_hash.push(round as u64);
            for &j in consumed.iter().chain(consumed_tx) {
                running_hash.push(j.to_bits());
            }
        }
        assert_eq!(self.old.snapshots().len(), self.new.boundaries().len());
        assert_eq!(hash.0, running_hash.0, "{what}: boundary digest");
    }
}

/// The one call both logs share, so a sequence drives them alike.
trait Recording {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        p: Phase,
        k: TxKind,
        s: NodeId,
        d: NodeId,
        f: u64,
        b: u64,
        tx: f64,
        rx: f64,
    );
}

impl Recording for AuditLog {
    fn record(
        &mut self,
        p: Phase,
        k: TxKind,
        s: NodeId,
        d: NodeId,
        f: u64,
        b: u64,
        tx: f64,
        rx: f64,
    ) {
        AuditLog::record(self, p, k, s, d, f, b, tx, rx);
    }
}

impl Recording for running::AuditLog {
    fn record(
        &mut self,
        p: Phase,
        k: TxKind,
        s: NodeId,
        d: NodeId,
        f: u64,
        b: u64,
        tx: f64,
        rx: f64,
    ) {
        running::AuditLog::record(self, p, k, s, d, f, b, tx, rx);
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

type ReportBits = (u64, u32, Vec<(NodeId, Option<u32>, &'static str, u64, u64)>);

/// A report with every `f64` by bit pattern.
fn report_bits(r: &AuditReport) -> ReportBits {
    let d = |d: &Discrepancy| {
        (
            d.node,
            d.round,
            d.what,
            d.expected.to_bits(),
            d.actual.to_bits(),
        )
    };
    (
        r.events,
        r.rounds_checked,
        r.discrepancies.iter().map(d).collect(),
    )
}

type LaneBits = (
    [u64; Phase::COUNT],
    [u64; Phase::COUNT],
    [u64; Phase::COUNT],
);

/// Lane books with every `f64` by bit pattern.
fn lanes_bits(lanes: &[PhaseBreakdown]) -> Vec<LaneBits> {
    lanes
        .iter()
        .map(|b| (b.messages(), b.bits(), b.joules().map(f64::to_bits)))
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
        }
        for _ in 0..20 {
            // Honest, in-range transmissions only.
            let kind = TxKind::ALL[below(&mut rng, 5) as usize];
            let bits = if kind == TxKind::Ack {
                pair.sizes.ack_bits
            } else {
                below(&mut rng, 4000)
            };
            let (tx, rx) = (
                pair.model.tx_energy(bits, pair.range),
                pair.model.rx_energy(bits),
            );
            let (tx, rx) = match kind {
                TxKind::Data | TxKind::Ack => (tx, rx),
                TxKind::BroadcastTx => (tx, 0.0),
                TxKind::BroadcastRx | TxKind::Idle => (0.0, rx),
            };
            let (src, dst) = (NodeId(1 + below(&mut rng, 4) as u32), NodeId(0));
            if !matches!(kind, TxKind::BroadcastRx | TxKind::Idle) {
                pair.ledger.charge_tx(src, tx);
            }
            if kind != TxKind::BroadcastTx {
                pair.ledger.charge(dst, rx);
            }
            for log in [&mut pair.old as &mut dyn Recording, &mut pair.new] {
                log.record(Phase::Validation, kind, src, dst, 1, bits, tx, rx);
            }
        }
        pair.ledger.end_round();
        let (c, t) = (
            pair.ledger.consumed_per_node().to_vec(),
            pair.ledger.consumed_tx_per_node().to_vec(),
        );
        pair.old.end_round(&c, &t);
        pair.new.end_round(&c, &t);
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
