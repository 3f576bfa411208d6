//! Transmission auditing: structured per-transmission events, per-phase
//! energy attribution, and an auditor that replays the event log against
//! the radio model to prove the ledger was charged correctly.
//!
//! The paper's two headline indicators — maximum per-node energy
//! consumption and network lifetime (§5.1.5) — are only as trustworthy as
//! the ledger behind them, and after the reliability extension the ledger
//! is charged by many send paths (plain convergecast, broadcast, ARQ
//! retransmissions, recovery waves, rebuild beacons, idle listening). This
//! module closes the loop:
//!
//! * every transmission emits a [`TxEvent`] into a per-run [`AuditLog`]
//!   (each simulation run owns its network, so the log needs no locking —
//!   run-level parallelism keeps it contention-free by construction);
//! * an always-on [`PhaseBreakdown`] attributes traffic and joules to the
//!   protocol [`Phase`] that caused them (initialization, validation,
//!   refinement, recovery), the Figure-level energy attribution of §5.2;
//! * [`EnergyAuditor`] replays the log through [`RadioModel`] and asserts,
//!   per node and per round, that the ledger's charges equal the recomputed
//!   on-air costs **bit for bit** — including ARQ retries, ACK frames and
//!   recovery waves.
//!
//! Bit-exactness is possible (not just approximate agreement) because the
//! ledger accumulates `f64` charges in event order; an auditor that replays
//! the same charges in the same order through the same model arrives at the
//! same rounding, so any divergence is a real accounting bug, never noise.

use crate::energy::{EnergyLedger, RadioModel};
use crate::message::MessageSizes;
use crate::topology::NodeId;
use wsn_obs::PacketRecord;

/// The protocol phase a transmission belongs to (the paper's round
/// anatomy: an initialization collection, per-round validation of the
/// previous answer, refinement waves when validation fails, and — with the
/// reliability extension — recovery traffic repairing lost waves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Initialization round: the TAG-equivalent full collection (§3.2) or
    /// `b`-ary snapshot search. TAG's per-round full collection is also
    /// tagged `Init` — every TAG round *is* the initialization collection.
    Init,
    /// Validation: the per-round counter collection checking whether the
    /// previous quantile still holds (§4.1/§4.2).
    Validation,
    /// Refinement: histogram descents, interval probes and direct value
    /// retrievals issued when validation rejects the old answer.
    Refinement,
    /// Recovery: wave re-issues, stranded-payload climbs and broadcast
    /// repairs generated by the reliability layer — never by the paper's
    /// protocols themselves.
    Recovery,
    /// Traffic not attributed to a protocol phase (custom protocol steps
    /// and callers that never tag phases).
    #[default]
    Other,
    /// Rebuild: routing-tree reconstruction traffic triggered by the
    /// dynamics layer (mobility epochs, churn, link drift) — the beacon
    /// wave every surviving tree node sends to its new parent. Distinct
    /// from [`Phase::Recovery`], which repairs *lost waves* inside a
    /// round; `Rebuild` is topology maintenance between rounds.
    Rebuild,
}

impl Phase {
    /// Number of distinct phases.
    pub const COUNT: usize = 6;

    /// Every phase, in display order. `Rebuild` is appended last (after
    /// `Other`) so the first five indices — and every legacy per-phase
    /// table derived from them — stay stable.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Init,
        Phase::Validation,
        Phase::Refinement,
        Phase::Recovery,
        Phase::Other,
        Phase::Rebuild,
    ];

    /// Number of phases that existed before the dynamics layer; the first
    /// [`Phase::LEGACY_COUNT`] entries of any per-phase array are exactly
    /// the pre-dynamics array (digest-compatibility contract).
    pub const LEGACY_COUNT: usize = 5;

    /// Dense index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Init => 0,
            Phase::Validation => 1,
            Phase::Refinement => 2,
            Phase::Recovery => 3,
            Phase::Other => 4,
            Phase::Rebuild => 5,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Validation => "validation",
            Phase::Refinement => "refinement",
            Phase::Recovery => "recovery",
            Phase::Other => "other",
            Phase::Rebuild => "rebuild",
        }
    }
}

/// What kind of transmission a [`TxEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// A unicast data frame (one convergecast fragment, or one ARQ
    /// attempt of one): transmitter pays tx, receiver pays rx.
    Data,
    /// A link-layer acknowledgement frame (`src` is the data *receiver*
    /// acknowledging back to `dst`).
    Ack,
    /// One broadcast transmission by an internal node (`src == dst`);
    /// receptions are separate [`TxKind::BroadcastRx`] events.
    BroadcastTx,
    /// One child's reception of a broadcast (`src` is the transmitting
    /// parent, `dst` the receiving child): only rx energy.
    BroadcastRx,
    /// Duty-cycled idle listening (`src == dst`): the rx-priced cost of
    /// keeping the radio awake for a fraction of the round with nothing
    /// addressed to the node. `bits` carries the listen-window equivalent
    /// bit count (the per-mille duty fraction); no frame is on the air,
    /// so neither traffic stats nor histograms count it.
    Idle,
}

impl TxKind {
    /// Stable dense index (for fixed-size tables and hashing).
    pub fn index(self) -> usize {
        match self {
            TxKind::Data => 0,
            TxKind::Ack => 1,
            TxKind::BroadcastTx => 2,
            TxKind::BroadcastRx => 3,
            TxKind::Idle => 4,
        }
    }

    /// Snake-case display name (the `kind` field of a packet capture).
    pub fn name(self) -> &'static str {
        match self {
            TxKind::Data => "data",
            TxKind::Ack => "ack",
            TxKind::BroadcastTx => "bcast_tx",
            TxKind::BroadcastRx => "bcast_rx",
            TxKind::Idle => "idle",
        }
    }

    /// The booking rule, shared by the live network books and every replay
    /// of the audit log: what one charge of this kind adds to the traffic,
    /// phase and lane counters, as `(messages, bits, joules)`. Data frames
    /// count their fragments and bits and cost both ends; ACKs cost both
    /// ends and count bits but not messages (§5.1 counts data messages); a
    /// broadcast counts its frames and bits once, at the transmitter;
    /// broadcast receptions and idle listening add receive energy only.
    #[inline]
    pub(crate) fn tally(self, fragments: u64, bits: u64, tx: f64, rx: f64) -> (u64, u64, f64) {
        match self {
            TxKind::Data => (fragments, bits, tx + rx),
            TxKind::Ack => (0, bits, tx + rx),
            TxKind::BroadcastTx => (fragments, bits, tx),
            TxKind::BroadcastRx | TxKind::Idle => (0, 0, rx),
        }
    }
}

/// One audited transmission, in ledger-charge order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxEvent {
    /// Round index at the time of transmission (completed `end_round`s).
    pub round: u32,
    /// Service lane (query slot) active at transmission time; `0` for
    /// single-query runs and callers that never set a lane.
    pub lane: u32,
    /// Protocol phase that caused the transmission.
    pub phase: Phase,
    /// Transmission kind.
    pub kind: TxKind,
    /// Paying transmitter ([`TxKind::BroadcastRx`]: the parent).
    pub src: NodeId,
    /// Paying receiver ([`TxKind::BroadcastTx`]: equals `src`).
    pub dst: NodeId,
    /// 802.15.4 frames covered by this event.
    pub fragments: u64,
    /// Bits on air.
    pub bits: u64,
    /// Transmit energy charged to `src` (J).
    pub joules_tx: f64,
    /// Receive energy charged to `dst` (J).
    pub joules_rx: f64,
}

impl TxEvent {
    /// This event's [`TxKind::tally`]: what it added to the live books.
    pub(crate) fn tally(&self) -> (u64, u64, f64) {
        self.kind
            .tally(self.fragments, self.bits, self.joules_tx, self.joules_rx)
    }

    /// The packet-capture view of this event (energies are derived data —
    /// the auditor recomputes them — so the capture carries only the
    /// discrete fields two runs must agree on bit for bit).
    pub fn to_packet_record(&self) -> PacketRecord {
        PacketRecord {
            round: self.round,
            phase: self.phase.name().to_string(),
            kind: self.kind.name().to_string(),
            src: self.src.0,
            dst: self.dst.0,
            frames: self.fragments,
            bits: self.bits,
        }
    }
}

/// Per-phase traffic/energy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCounters {
    /// Data messages transmitted (fragments count individually; ACKs do
    /// not count, matching [`crate::network::TrafficStats::messages`]).
    pub messages: u64,
    /// Bits on air (ACKs included, receptions not double-counted).
    pub bits: u64,
    /// Total energy charged to the ledger (tx + rx), joules.
    pub joules: f64,
}

/// Always-on attribution of every ledger charge to a [`Phase`]. Fixed-size
/// and allocation-free, so it rides the zero-allocation hot path; summing
/// the per-phase counters reproduces the global
/// [`crate::network::TrafficStats`] and ledger totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    counters: [PhaseCounters; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Accumulates one charge under `phase`.
    pub fn charge(&mut self, phase: Phase, messages: u64, bits: u64, joules: f64) {
        let c = &mut self.counters[phase.index()];
        c.messages += messages;
        c.bits += bits;
        c.joules += joules;
    }

    /// The counters of one phase.
    pub fn get(&self, phase: Phase) -> &PhaseCounters {
        &self.counters[phase.index()]
    }

    /// Per-phase joules, indexed by [`Phase::index`].
    pub fn joules(&self) -> [f64; Phase::COUNT] {
        self.counters.map(|c| c.joules)
    }

    /// Per-phase bits, indexed by [`Phase::index`].
    pub fn bits(&self) -> [u64; Phase::COUNT] {
        self.counters.map(|c| c.bits)
    }

    /// Per-phase messages, indexed by [`Phase::index`].
    pub fn messages(&self) -> [u64; Phase::COUNT] {
        self.counters.map(|c| c.messages)
    }

    /// Total joules across phases.
    pub fn total_joules(&self) -> f64 {
        self.counters.iter().map(|c| c.joules).sum()
    }
}

/// Per-lane [`PhaseBreakdown`]s: the service layer's per-query energy and
/// traffic attribution. A *lane* is the query slot whose execution caused
/// a charge; the network charges the book live, right next to every
/// [`PhaseBreakdown::charge`], so each lane accumulates its own `f64` sums
/// in its own event order. That makes the live book reproducible from the
/// audit log by [`lane_breakdowns`] bit for bit: filtering the global
/// event sequence to one lane preserves that lane's accumulation order.
#[derive(Debug, Clone, Default)]
pub struct LaneBook {
    lanes: Vec<PhaseBreakdown>,
}

impl LaneBook {
    /// Accumulates one charge under `lane`/`phase`, growing the book on
    /// first sight of a lane (amortized allocation-free once every lane
    /// has been seen).
    #[inline]
    pub fn charge(&mut self, lane: u32, phase: Phase, messages: u64, bits: u64, joules: f64) {
        self.reserve(lane);
        self.lanes[lane as usize].charge(phase, messages, bits, joules);
    }

    /// Grows the book to cover `lane` (with zeros), so a later charge to
    /// it never allocates.
    #[inline]
    pub(crate) fn reserve(&mut self, lane: u32) {
        let lane = lane as usize;
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, PhaseBreakdown::default());
        }
    }

    /// The breakdown of one lane (zeros for lanes never charged).
    pub fn get(&self, lane: u32) -> PhaseBreakdown {
        self.lanes.get(lane as usize).copied().unwrap_or_default()
    }

    /// Lanes seen so far (highest charged lane + 1).
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True iff no lane was ever charged.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// All per-lane breakdowns, indexed by lane.
    pub fn breakdowns(&self) -> &[PhaseBreakdown] {
        &self.lanes
    }

    /// Clears every lane (keeps capacity).
    pub fn clear(&mut self) {
        self.lanes.clear();
    }
}

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
    let mut lanes = book.lanes;
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

/// One reconciliation failure found by [`EnergyAuditor`].
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// The node whose account disagrees.
    pub node: NodeId,
    /// The round at whose boundary the disagreement was seen (`None` for
    /// final-total or per-event checks).
    pub round: Option<u32>,
    /// Which check failed.
    pub what: &'static str,
    /// What the replay computed.
    pub expected: f64,
    /// What the ledger (or event) recorded.
    pub actual: f64,
}

/// Outcome of one audit replay.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events replayed.
    pub events: u64,
    /// Round boundaries reconciled.
    pub rounds_checked: u32,
    /// Every failed check (empty on a clean audit).
    pub discrepancies: Vec<Discrepancy>,
}

impl AuditReport {
    /// True iff every check passed.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Replays an [`AuditLog`] against the radio model and message sizes and
/// reconciles the recomputed per-node costs with the [`EnergyLedger`] —
/// bit-exactly, at every round boundary and on the final totals.
#[derive(Debug, Clone, Copy)]
pub struct EnergyAuditor;

impl EnergyAuditor {
    /// Audits a network's own log against its own ledger. Meaningful only
    /// if the log was enabled before any traffic flowed.
    pub fn verify(net: &crate::network::Network) -> AuditReport {
        EnergyAuditor::verify_parts(
            net.audit_log(),
            net.model(),
            net.sizes(),
            net.topology().radio_range(),
            net.ledger(),
        )
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_named() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Phase::default(), Phase::Other);
    }

    #[test]
    fn breakdown_accumulates_per_phase() {
        let mut b = PhaseBreakdown::default();
        b.charge(Phase::Init, 2, 100, 1e-6);
        b.charge(Phase::Init, 1, 50, 1e-6);
        b.charge(Phase::Recovery, 1, 10, 5e-7);
        assert_eq!(b.get(Phase::Init).messages, 3);
        assert_eq!(b.get(Phase::Init).bits, 150);
        assert_eq!(b.bits()[Phase::Recovery.index()], 10);
        assert_eq!(b.get(Phase::Validation).messages, 0);
        assert!((b.total_joules() - 2.5e-6).abs() < 1e-18);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = AuditLog::default();
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(1),
            NodeId(0),
            1,
            128,
            1e-6,
            1e-7,
        );
        log.end_round(&[0.0], &[0.0]);
        assert!(log.events().is_empty());
        assert!(log.snapshots().is_empty());
        assert_eq!(log.round(), 1, "rounds still tick while disabled");
    }

    #[test]
    fn auditor_replays_a_hand_built_log_cleanly() {
        let model = RadioModel::default();
        let sizes = MessageSizes::default();
        let range = 20.0;
        let mut ledger = EnergyLedger::new(3);
        let mut log = AuditLog::default();
        log.set_enabled(true);

        // One data frame 2 -> 1, then its ACK back, then a round boundary.
        let bits = 300u64;
        let (tx, rx) = (model.tx_energy(bits, range), model.rx_energy(bits));
        ledger.charge_tx(NodeId(2), tx);
        ledger.charge(NodeId(1), rx);
        log.record(
            Phase::Validation,
            TxKind::Data,
            NodeId(2),
            NodeId(1),
            1,
            bits,
            tx,
            rx,
        );
        let (atx, arx) = (
            model.tx_energy(sizes.ack_bits, range),
            model.rx_energy(sizes.ack_bits),
        );
        ledger.charge_tx(NodeId(1), atx);
        ledger.charge(NodeId(2), arx);
        log.record(
            Phase::Validation,
            TxKind::Ack,
            NodeId(1),
            NodeId(2),
            1,
            sizes.ack_bits,
            atx,
            arx,
        );
        ledger.end_round();
        log.end_round(ledger.consumed_per_node(), ledger.consumed_tx_per_node());

        let report = EnergyAuditor::verify_parts(&log, &model, &sizes, range, &ledger);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
        assert_eq!(report.events, 2);
        assert_eq!(report.rounds_checked, 1);
    }

    #[test]
    fn auditor_flags_a_corrupted_ledger() {
        let model = RadioModel::default();
        let sizes = MessageSizes::default();
        let range = 20.0;
        let mut ledger = EnergyLedger::new(2);
        let mut log = AuditLog::default();
        log.set_enabled(true);
        let bits = 128u64;
        let (tx, rx) = (model.tx_energy(bits, range), model.rx_energy(bits));
        ledger.charge_tx(NodeId(1), tx);
        ledger.charge(NodeId(0), rx);
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(1),
            NodeId(0),
            1,
            bits,
            tx,
            rx,
        );
        // Corrupt: an extra charge the log never saw.
        ledger.charge(NodeId(1), 1e-9);
        let report = EnergyAuditor::verify_parts(&log, &model, &sizes, range, &ledger);
        assert!(!report.is_clean());
        assert!(report
            .discrepancies
            .iter()
            .any(|d| d.node == NodeId(1) && d.what == "final total"));
    }

    #[test]
    fn auditor_flags_a_mispriced_event() {
        let model = RadioModel::default();
        let sizes = MessageSizes::default();
        let range = 20.0;
        let mut ledger = EnergyLedger::new(2);
        let mut log = AuditLog::default();
        log.set_enabled(true);
        let bits = 128u64;
        let wrong_tx = model.tx_energy(bits, range) * 2.0; // double-charged
        ledger.charge_tx(NodeId(1), wrong_tx);
        ledger.charge(NodeId(0), model.rx_energy(bits));
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(1),
            NodeId(0),
            1,
            bits,
            wrong_tx,
            model.rx_energy(bits),
        );
        let report = EnergyAuditor::verify_parts(&log, &model, &sizes, range, &ledger);
        assert!(report
            .discrepancies
            .iter()
            .any(|d| d.what == "event tx energy"));
    }

    #[test]
    fn lane_book_grows_on_demand_and_sums_to_the_global_breakdown() {
        let mut book = LaneBook::default();
        let mut global = PhaseBreakdown::default();
        for (lane, bits) in [(0u32, 100u64), (3, 50), (0, 25), (1, 10)] {
            book.charge(lane, Phase::Validation, 1, bits, bits as f64 * 1e-9);
            global.charge(Phase::Validation, 1, bits, bits as f64 * 1e-9);
        }
        assert_eq!(book.len(), 4);
        assert_eq!(book.get(0).get(Phase::Validation).bits, 125);
        assert_eq!(book.get(2), PhaseBreakdown::default(), "never charged");
        let bits: u64 = book
            .breakdowns()
            .iter()
            .map(|b| b.get(Phase::Validation).bits)
            .sum();
        assert_eq!(bits, global.get(Phase::Validation).bits);
        let msgs: u64 = book
            .breakdowns()
            .iter()
            .map(|b| b.get(Phase::Validation).messages)
            .sum();
        assert_eq!(msgs, global.get(Phase::Validation).messages);
    }

    #[test]
    fn lane_replay_reproduces_a_live_lane_book_bit_for_bit() {
        let model = RadioModel::default();
        let range = 20.0;
        let mut log = AuditLog::default();
        log.set_enabled(true);
        let mut live = LaneBook::default();

        // Interleave lanes 0 and 2 the way the engine would: set the lane,
        // then charge the live book and the log with identical arguments.
        for (lane, kind, bits) in [
            (0u32, TxKind::Data, 300u64),
            (2, TxKind::Data, 144),
            (0, TxKind::BroadcastTx, 80),
            (2, TxKind::BroadcastRx, 80),
            (0, TxKind::Ack, 88),
            (1, TxKind::Idle, 100),
        ] {
            log.set_lane(lane);
            let (tx, rx) = match kind {
                TxKind::Data | TxKind::Ack => (model.tx_energy(bits, range), model.rx_energy(bits)),
                TxKind::BroadcastTx => (model.tx_energy(bits, range), 0.0),
                TxKind::BroadcastRx | TxKind::Idle => (0.0, model.rx_energy(bits)),
            };
            let (messages, counted_bits, joules) = match kind {
                TxKind::Data => (1, bits, tx + rx),
                TxKind::Ack => (0, bits, tx + rx),
                TxKind::BroadcastTx => (1, bits, tx),
                TxKind::BroadcastRx | TxKind::Idle => (0, 0, rx),
            };
            live.charge(lane, Phase::Validation, messages, counted_bits, joules);
            log.record(
                Phase::Validation,
                kind,
                NodeId(1),
                NodeId(0),
                1,
                bits,
                tx,
                rx,
            );
        }

        let replayed = lane_breakdowns(&log, 4);
        assert_eq!(replayed.len(), 4, "floored to n_lanes");
        for (lane, replay) in replayed.iter().enumerate() {
            assert_eq!(
                *replay,
                live.get(lane as u32),
                "lane {lane} must replay bit-exactly"
            );
        }
        assert_eq!(replayed[3], PhaseBreakdown::default(), "padded lane");
    }

    #[test]
    fn per_round_lane_replay_snapshots_every_boundary() {
        let mut log = AuditLog::default();
        log.set_enabled(true);
        // Round 0: lane 0 sends one data frame.
        log.set_lane(0);
        log.record(
            Phase::Validation,
            TxKind::Data,
            NodeId(1),
            NodeId(0),
            1,
            100,
            1e-6,
            2e-7,
        );
        log.end_round(&[], &[]);
        // Round 1: lane 2 sends, lane 0 silent.
        log.set_lane(2);
        log.record(
            Phase::Refinement,
            TxKind::Data,
            NodeId(2),
            NodeId(0),
            1,
            40,
            5e-7,
            1e-7,
        );
        log.end_round(&[], &[]);
        // Rounds 2..4: silence.

        let by_round = lane_breakdowns_by_round(&log, 3, 4);
        assert_eq!(by_round.len(), 4);
        assert!(by_round.iter().all(|lanes| lanes.len() == 3));
        // End of round 0: only lane 0 charged.
        assert_eq!(by_round[0][0].get(Phase::Validation).bits, 100);
        assert_eq!(by_round[0][2], PhaseBreakdown::default());
        // End of round 1: lane 2 joined, lane 0 unchanged.
        assert_eq!(by_round[1][0], by_round[0][0]);
        assert_eq!(by_round[1][2].get(Phase::Refinement).bits, 40);
        // Quiet rounds repeat the final state.
        assert_eq!(by_round[3], by_round[1]);
        // The last snapshot agrees with the whole-log replay.
        assert_eq!(by_round[3], lane_breakdowns(&log, 3));
    }

    #[test]
    fn events_carry_the_sticky_lane() {
        let mut log = AuditLog::default();
        log.set_enabled(true);
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(1),
            NodeId(0),
            1,
            64,
            0.0,
            0.0,
        );
        log.set_lane(5);
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(2),
            NodeId(0),
            1,
            64,
            0.0,
            0.0,
        );
        log.end_round(&[], &[]);
        log.record(
            Phase::Other,
            TxKind::Data,
            NodeId(3),
            NodeId(0),
            1,
            64,
            0.0,
            0.0,
        );
        let lanes: Vec<u32> = log.events().iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![0, 5, 5], "lane sticks across rounds");
    }
}
