//! Convergecast / broadcast engines with in-network aggregation.
//!
//! All quantile protocols in the paper are built from exactly two
//! communication patterns over the routing tree:
//!
//! * **Convergecast** (leaf → root): every node may contribute a local
//!   payload; intermediate nodes *merge* the payloads of their children
//!   with their own (TAG-style aggregation) and forward a single message to
//!   their parent — possibly pruning the merged payload first (e.g. IQ
//!   refinement responses keep only the `f` largest values, §4.2.2).
//!   A node stays silent iff neither it nor any descendant has anything to
//!   say.
//! * **Broadcast** (root → leaves): a payload flooded down the tree; every
//!   internal node transmits once and every node receives once.
//!
//! The engine charges transmit/receive energy per the [`RadioModel`] and
//! fragments payloads per [`MessageSizes`]. Protocol logic never touches the
//! ledger directly, and inside the engine one function books every radio
//! charge — data frame, ACK, broadcast transmission or reception, idle
//! listening — into the ledger, the traffic stats, the phase and lane
//! breakdowns and the audit log, by one per-kind booking rule. One function
//! sends every unicast, whatever the telemetry setting: wall-clock spans
//! time rounds, phases and waves, never a single send.
//!
//! With a [`LossModel`] installed, every 802.15.4 fragment is lost
//! independently; the optional reliability layer (see
//! [`crate::reliability`]) adds per-link ARQ, end-to-end wave recovery, and
//! crash-stop node failures with routing-tree repair — all charged to the
//! same ledger, so reliability has a measurable energy price.

use std::any::{Any, TypeId};

use crate::audit::{AuditLog, LaneBook, Phase, PhaseBreakdown, Tariff, TxKind};
use crate::bitset::NodeBits;
use crate::energy::{EnergyLedger, RadioModel};
use crate::loss::LossModel;
use crate::message::MessageSizes;
use crate::reliability::{FailureModel, ReliabilityConfig, ReliabilityStats, WaveReport};
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;
use wsn_obs::{HistKind, NodeHistograms, Recorder, SpanStart};

/// A mergeable convergecast payload.
///
/// Implementations describe both the algebra (how payloads combine) and the
/// wire format (how many bits the payload occupies).
pub trait Aggregate {
    /// Merges `other` into `self` (TAG-style in-network aggregation).
    fn merge(&mut self, other: Self);

    /// Size of this payload on the wire, in bits, excluding headers.
    fn payload_bits(&self, sizes: &MessageSizes) -> u64;

    /// Number of raw measurements contained in the payload, for the
    /// "transmitted values" statistic of §5.1. Defaults to zero for
    /// counter-only payloads.
    fn value_count(&self) -> usize {
        0
    }
}

/// Per-round traffic statistics (§5.1 performance indicators).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages transmitted (fragments count individually).
    pub messages: u64,
    /// Raw measurements transmitted hop-by-hop (each hop counts).
    pub values: u64,
    /// Total bits on air.
    pub bits: u64,
    /// Convergecast waves executed.
    pub convergecasts: u64,
    /// Broadcast waves executed.
    pub broadcasts: u64,
}

impl TrafficStats {
    /// Component-wise sum.
    pub fn add(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.values += other.values;
        self.bits += other.bits;
        self.convergecasts += other.convergecasts;
        self.broadcasts += other.broadcasts;
    }
}

/// Reusable convergecast inboxes, so the wave hot path performs no heap
/// allocation in steady state. Inboxes are generic over the payload type,
/// so they are stored type-erased and recycled per payload type: the first
/// wave of each type allocates, every later wave reuses that buffer.
///
/// Scratch holds no observable state — clearing (or cloning to empty) never
/// changes simulation results, only allocation behaviour.
#[derive(Default)]
struct ScratchPool {
    /// One recycled `Vec<Option<T>>` per payload type.
    bufs: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchPool {
    /// Takes the recycled buffer for payload type `T` (empty on first
    /// use), cleared and resized to `n` empty slots.
    fn take_buf<T: Send + 'static>(&mut self, n: usize) -> Vec<Option<T>> {
        let key = TypeId::of::<Vec<Option<T>>>();
        let mut buf = self
            .bufs
            .iter_mut()
            .find(|(k, _)| *k == key)
            .and_then(|(_, b)| b.downcast_mut::<Vec<Option<T>>>())
            .map(std::mem::take)
            .unwrap_or_default();
        buf.clear();
        buf.resize_with(n, || None);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    fn put_buf<T: Send + 'static>(&mut self, mut buf: Vec<Option<T>>) {
        buf.clear();
        let key = TypeId::of::<Vec<Option<T>>>();
        match self.bufs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => {
                if let Some(slot) = b.downcast_mut::<Vec<Option<T>>>() {
                    *slot = buf;
                }
            }
            None => self.bufs.push((key, Box::new(buf))),
        }
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("bufs", &self.bufs.len())
            .finish()
    }
}

impl Clone for ScratchPool {
    /// Scratch is not meaningful state; clones start empty.
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

/// The simulated network: topology + routing tree + energy accounting.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    tree: RoutingTree,
    model: RadioModel,
    sizes: MessageSizes,
    loss: Option<LossModel>,
    reliability: ReliabilityConfig,
    wave: WaveReport,
    failures: Option<FailureModel>,
    alive: Vec<bool>,
    /// Duty-cycle listen fraction in per-mille (see
    /// [`Network::set_duty_cycle`]); `0` = always-off idle radio, the
    /// pre-dynamics behavior.
    duty_milli: u32,
    /// The protocol phase currently charged for traffic (see
    /// [`Network::set_phase`]).
    phase: Phase,
    /// Per-round shared-frame state for multi-query rounds (see
    /// [`Network::set_shared_frames`]). Off by default.
    share: SharedWave,
    /// When true, [`Network::end_round`] is deferred: protocol-internal
    /// round boundaries become no-ops and the service runner closes the
    /// real round with [`Network::finish_round`] once every due query has
    /// executed — so shared frames span the whole multi-query round.
    round_hold: bool,
    /// Every record a send writes.
    books: Books,
    scratch: ScratchPool,
    /// Wall-clock span recorder for rounds, phases and waves (off by
    /// default; see [`Network::set_telemetry`]). No send reads it.
    recorder: Recorder,
    /// Open span for the current round (null while telemetry is off).
    round_start: SpanStart,
    /// Open span for the current phase (null while telemetry is off).
    phase_start: SpanStart,
    /// Per-wave scratch: delivered-child-payload counts for the fan-in
    /// histogram (cleared each convergecast; no steady-state allocation).
    fanin: Vec<u32>,
    /// Reusable reception mask for [`Network::broadcast`]; steady-state
    /// broadcasts perform no heap allocation.
    bcast_recv: NodeBits,
}

/// Everything a send writes, split off [`Network`] so the wave engines can
/// charge while they read the routing tree in place.
///
/// The five accounting books — energy ledger, traffic stats, per-phase and
/// per-lane breakdowns, audit log — change only through [`Books::charge`],
/// one call per radio charge, so they cannot disagree with each other or
/// with the audit log's own books ([`crate::audit::lane_breakdowns`]).
#[derive(Debug, Clone)]
struct Books {
    ledger: EnergyLedger,
    stats: TrafficStats,
    phases: PhaseBreakdown,
    /// Per-lane twin of `phases`, charged under the audit log's current
    /// lane, so multi-query service runs get bit-exact per-query accounting.
    lanes: LaneBook,
    audit: AuditLog,
    rel: ReliabilityStats,
    hists: Hists,
}

impl Books {
    /// Books one radio charge: in the ledger `src` pays `tx` and `dst` pays
    /// `rx` (one-sided kinds skip the side they lack), the traffic, phase
    /// and lane books add the kind's [`TxKind::tally`], and the audit log
    /// witnesses the charge under the current round and lane.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        phase: Phase,
        kind: TxKind,
        src: NodeId,
        dst: NodeId,
        fragments: u64,
        bits: u64,
        tx: f64,
        rx: f64,
    ) {
        if kind.has_tx() {
            self.ledger.charge_tx(src, tx);
        }
        if kind.has_rx() {
            self.ledger.charge(dst, rx);
        }
        let (messages, counted, joules) = kind.tally(fragments, bits, tx, rx);
        self.stats.messages += messages;
        self.stats.bits += counted;
        self.phases.charge(phase, messages, counted, joules);
        let lane = self.audit.lane();
        self.lanes.charge(lane, phase, messages, counted, joules);
        self.audit
            .record(phase, kind, src, dst, fragments, bits, tx, rx);
    }
}

/// A wave's radio constants, hoisted off the per-send path: framing rules,
/// per-bit energies at the network's radio range and the ARQ retry budget.
#[derive(Debug, Clone, Copy)]
struct Wire {
    sizes: MessageSizes,
    tx_coef: f64,
    rx_coef: f64,
    arq: u32,
}

impl Wire {
    /// Transmit and receive joules of `bits` on air: bit-exact against
    /// [`RadioModel::tx_energy`] / [`RadioModel::rx_energy`] (see
    /// [`RadioModel::tx_coef`]), without their per-call `powf`.
    #[inline(always)]
    fn energy(&self, bits: u64) -> (f64, f64) {
        (bits as f64 * self.tx_coef, bits as f64 * self.rx_coef)
    }
}

/// Sends one logical payload over the single link `from → to`, charging
/// the grouped [`Books`] so the wave engines can iterate the routing tree
/// in place. Every unicast is booked here: convergecast sends, recovery
/// climbs, broadcast repairs and rebuild beacons. `slot` is `from`'s
/// histogram slot. Returns whether the *entire* payload (every fragment)
/// arrived.
///
/// Without a loss model the link is perfect: the payload is charged in one
/// piece — one data charge at the wire's per-bit energies, its `MsgBits`
/// samples and a zero-retry sample — and always arrives (ARQ never acts:
/// there is nothing to retransmit, and link-layer ACKs are not modelled on
/// reliable links). `shared` is then a shared frame's marginal
/// `(fragments, bits)` (see [`SharedWave`]); `None` frames the payload
/// solo. Lossy links always frame solo: `shared` must be `None` whenever a
/// loss model is installed.
/// With a loss model every 802.15.4 fragment is lost independently (a
/// ten-fragment histogram really is more fragile than a one-value payload)
/// and, when `wire.arq > 0`, each data frame is acknowledged and
/// retransmitted up to the budget. Retries and ACKs are charged to the
/// ledger like any other traffic; ACK frames count towards bits on air but
/// not towards the message count (§5.1 counts data messages).
#[allow(clippy::too_many_arguments)]
fn send_over_link(
    books: &mut Books,
    loss: &mut Option<LossModel>,
    wire: &Wire,
    phase: Phase,
    from: NodeId,
    slot: usize,
    to: NodeId,
    payload_bits: u64,
    values: usize,
    shared: Option<(u64, u64)>,
) -> bool {
    books.stats.values += values as u64;
    let Some(loss) = loss.as_mut() else {
        let (fragments, bits) = shared.unwrap_or_else(|| wire.sizes.fragment(payload_bits));
        let (tx, rx) = wire.energy(bits);
        books.charge(phase, TxKind::Data, from, to, fragments, bits, tx, rx);
        books.hists.frames(slot, &wire.sizes, payload_bits, shared);
        books.hists.record(slot, HistKind::Retries, 0);
        books.rel.delivered += 1;
        return true;
    };
    let mut all_arrived = true;
    let mut link_retries = 0u64;
    for frag_bits in wire.sizes.fragment_bits(payload_bits) {
        let mut frag_arrived = false;
        let mut attempt = 0u32;
        loop {
            let (tx, rx) = wire.energy(frag_bits);
            books.charge(phase, TxKind::Data, from, to, 1, frag_bits, tx, rx);
            books.hists.record(slot, HistKind::MsgBits, frag_bits);
            if attempt > 0 {
                books.rel.retransmissions += 1;
                link_retries += 1;
            }
            let arrived = !loss.lose();
            frag_arrived |= arrived;
            if wire.arq == 0 {
                // Fire-and-forget: the plain lossy path, no ACKs on air.
                break;
            }
            if arrived {
                // Immediate ACK `to → from`. A lost ACK burns a retry on a
                // harmless duplicate — the data is already through.
                let ack = wire.sizes.ack_bits;
                let (tx, rx) = wire.energy(ack);
                books.charge(phase, TxKind::Ack, to, from, 1, ack, tx, rx);
                books.rel.acks += 1;
                if !loss.lose() {
                    break;
                }
            }
            if attempt >= wire.arq {
                break;
            }
            attempt += 1;
        }
        all_arrived &= frag_arrived;
    }
    books.hists.record(slot, HistKind::Retries, link_retries);
    if all_arrived {
        books.rel.delivered += 1;
    } else {
        books.rel.dropped += 1;
    }
    all_arrived
}

/// Per-node telemetry histograms: message bits, hop depth, ARQ retries,
/// convergecast fan-in. Always on: a sample extends a run-length cell, and
/// a flushed run bumps one inline counter of the node's compact 216-byte
/// [`NodeHistograms`] block, all in storage allocated once at construction.
///
/// The blocks live in *wave-slot* order — slot `s` belongs to the node at
/// `tree.bottom_up()[s]`, and nodes outside the routing tree (dead or
/// orphaned) are packed after the tree nodes in ascending id order — so
/// the wave engines touch the blocks in their iteration order instead of
/// scattering over node ids. In front of the blocks sits a hot cache of one
/// run-length [`HistDelta`] cell per `(slot, HistKind)`, slot-major,
/// through which every sample is recorded.
#[derive(Debug, Clone)]
struct Hists {
    blocks: NodeHistograms,
    hot: Vec<HistDelta>,
    /// Node id → storage slot; re-derived (with a matching permutation of
    /// the blocks) whenever the routing tree is replaced.
    slot: Vec<u32>,
}

/// One run-length cell of the histogram hot cache: `repeat` pending samples
/// of `value`, not yet applied to the node's 216-byte [`NodeHistograms`]
/// block. `repeat == 0` means empty.
///
/// Wave traffic records the *same* value per (node, kind) almost every wave
/// — hop depth and fan-in are topology constants, retries are 0 on a
/// perfect channel — so coalescing runs here shrinks the engines' per-wave
/// histogram traffic from a search of the node's block to one 16-byte cell
/// (the node's four cells share a cache line). `MsgBits` coalesces least:
/// where broadcast and convergecast frame sizes alternate, nearly every
/// frame flushes a run of one. Deferral is exact: histogram counters are
/// plain integers, so applying a run later via [`NodeHistograms::record_n`]
/// yields bit-identical state to recording each sample eagerly.
#[derive(Debug, Clone, Copy, Default)]
struct HistDelta {
    value: u64,
    repeat: u64,
}

impl Hists {
    fn new(tree: &RoutingTree, n: usize) -> Self {
        Hists {
            blocks: NodeHistograms::new(n),
            hot: vec![HistDelta::default(); n * HistKind::COUNT],
            slot: Hists::slots(tree, n),
        }
    }

    /// The node-id → slot map for `tree`: tree nodes take their `bottom_up`
    /// position, everyone else is packed afterwards in ascending id order.
    fn slots(tree: &RoutingTree, n: usize) -> Vec<u32> {
        let mut slot = vec![u32::MAX; n];
        for (pos, &u) in tree.bottom_up().iter().enumerate() {
            slot[u.index()] = pos as u32;
        }
        let mut next = tree.tree_size() as u32;
        for s in slot.iter_mut() {
            if *s == u32::MAX {
                *s = next;
                next += 1;
            }
        }
        slot
    }

    /// Records one sample: extends the cell's run when the value repeats,
    /// otherwise flushes the old run into the block and starts a new one.
    #[inline(always)]
    fn record(&mut self, slot: usize, kind: HistKind, value: u64) {
        let cell = &mut self.hot[slot * HistKind::COUNT + kind.index()];
        if cell.repeat != 0 && cell.value == value {
            cell.repeat += 1;
        } else {
            if cell.repeat != 0 {
                self.blocks.record_n(slot, kind, cell.value, cell.repeat);
            }
            *cell = HistDelta { value, repeat: 1 };
        }
    }

    /// One `MsgBits` sample per frame of a delivered payload: solo frames
    /// at their exact fragment sizes; a shared frame's marginal
    /// `(fragments, bits)` as that many samples of the average size, which
    /// keeps the `MsgBits` count equal to the message count.
    #[inline(always)]
    fn frames(
        &mut self,
        slot: usize,
        sizes: &MessageSizes,
        payload_bits: u64,
        shared: Option<(u64, u64)>,
    ) {
        match shared {
            Some((fragments, bits)) => {
                for _ in 0..fragments {
                    self.record(slot, HistKind::MsgBits, bits / fragments.max(1));
                }
            }
            None => {
                for frag_bits in sizes.fragment_bits(payload_bits) {
                    self.record(slot, HistKind::MsgBits, frag_bits);
                }
            }
        }
    }

    /// The id-ordered view (index `i` = node `i`), with the pending runs
    /// folded in; the live cells stay put.
    fn snapshot(&self) -> NodeHistograms {
        let mut out = self.blocks.clone();
        fold_runs(&self.hot, &mut out);
        out.reindex(|id| self.slot[id] as usize);
        out
    }

    /// Re-slots the storage for `tree` so every node keeps its own history.
    /// The hot cache is flushed first: its cells are keyed by the old slots.
    fn reslot(&mut self, tree: &RoutingTree) {
        fold_runs(&self.hot, &mut self.blocks);
        self.hot.fill(HistDelta::default());
        let n = self.slot.len();
        let old = std::mem::replace(&mut self.slot, Hists::slots(tree, n));
        let mut id_of_slot = vec![0u32; n];
        for (id, &s) in self.slot.iter().enumerate() {
            id_of_slot[s as usize] = id as u32;
        }
        self.blocks
            .reindex(|s| old[id_of_slot[s] as usize] as usize);
    }
}

/// Applies every pending hot-cache run to `blocks` (exact: see
/// [`HistDelta`]).
fn fold_runs(hot: &[HistDelta], blocks: &mut NodeHistograms) {
    for (i, cell) in hot.iter().enumerate() {
        if cell.repeat != 0 {
            let kind = HistKind::ALL[i % HistKind::COUNT];
            blocks.record_n(i / HistKind::COUNT, kind, cell.value, cell.repeat);
        }
    }
}

/// Shared-frame state for multi-query service rounds: when enabled, the
/// concurrent waves of one round pack their payloads into shared 802.15.4
/// frames per link, so a link that already sent `b` payload bits this round
/// charges a later `p`-bit payload only its *marginal* frames. The
/// invariant (pinned in tests): after sends `p₁..pₖ` over one link in one
/// round, the cumulative bits on air equal
/// `MessageSizes::fragment(p₁ + … + pₖ)` — exactly what one concatenated
/// payload would cost. The first send of a round reproduces the solo
/// `fragment` cost bit for bit, so enabling sharing never *increases* any
/// link's traffic and single-query rounds are unchanged.
///
/// Sharing applies only on lossless waves (convergecasts and broadcasts);
/// lossy/ARQ traffic keeps solo per-payload framing, which only
/// over-approximates — the inequality "shared ≤ solo" still holds.
#[derive(Debug, Clone, Default)]
struct SharedWave {
    enabled: bool,
    /// Payload bits already framed this round per transmitter, upward
    /// (convergecast sends to the parent; one parent per node).
    up: Vec<u64>,
    /// Same, downward (one broadcast transmission reaches all children).
    down: Vec<u64>,
}

impl SharedWave {
    /// Frames a `payload_bits` send over a link that already carried
    /// `*accum` payload bits this round, advancing the accumulator.
    /// Returns `(new_fragments, bits_on_air)` — the marginal cost.
    #[inline]
    fn frame(accum: &mut u64, payload_bits: u64, sizes: &MessageSizes) -> (u64, u64) {
        let before = *accum;
        *accum = before + payload_bits;
        if before == 0 {
            // First payload on this link this round: exactly the solo cost.
            return sizes.fragment(payload_bits);
        }
        if payload_bits == 0 {
            // Free piggyback on frames already on air.
            return (0, 0);
        }
        let mp = sizes.max_payload_bits.max(1);
        let frames = |p: u64| p.div_ceil(mp).max(1);
        let new = frames(before + payload_bits) - frames(before);
        (new, payload_bits + new * sizes.header_bits)
    }

    /// Clears the per-round accumulators (keeps capacity).
    fn reset(&mut self) {
        self.up.iter_mut().for_each(|b| *b = 0);
        self.down.iter_mut().for_each(|b| *b = 0);
    }
}

impl Network {
    /// Assembles a network from its parts.
    pub fn new(topo: Topology, tree: RoutingTree, model: RadioModel, sizes: MessageSizes) -> Self {
        let n = topo.len();
        assert_eq!(n, tree.len(), "tree and topology disagree on node count");
        if let Err(e) = sizes.validate() {
            panic!("invalid MessageSizes: {e}");
        }
        let mut lanes = LaneBook::default();
        // Pre-size lane 0 so default (single-lane) runs never allocate on
        // the warm path.
        lanes.reserve(0);
        let books = Books {
            ledger: EnergyLedger::new(n),
            stats: TrafficStats::default(),
            phases: PhaseBreakdown::default(),
            lanes,
            audit: AuditLog::default(),
            rel: ReliabilityStats::default(),
            hists: Hists::new(&tree, n),
        };
        Network {
            topo,
            tree,
            model,
            sizes,
            loss: None,
            reliability: ReliabilityConfig::default(),
            wave: WaveReport::default(),
            failures: None,
            alive: vec![true; n],
            duty_milli: 0,
            phase: Phase::default(),
            share: SharedWave::default(),
            round_hold: false,
            books,
            scratch: ScratchPool::default(),
            recorder: Recorder::default(),
            round_start: SpanStart::default(),
            phase_start: SpanStart::default(),
            fanin: Vec::new(),
            bcast_recv: NodeBits::new(),
        }
    }

    /// Does nothing: every wave runs on the caller's thread. Within-run
    /// wave workers were removed because no measured machine ran them
    /// faster than one thread (DESIGN.md §3.3g); the setter stays so
    /// existing callers keep compiling.
    pub fn set_wave_workers(&mut self, _workers: usize) {}

    /// Sets the protocol phase that subsequent traffic is attributed to
    /// (per-phase counters and audit events). Protocols call this at each
    /// step boundary; the phase sticks until changed. With telemetry on, a
    /// phase change closes the open phase span and opens the next.
    pub fn set_phase(&mut self, phase: Phase) {
        let rec = &mut self.recorder;
        if phase != self.phase && rec.is_enabled() {
            rec.end(
                self.phase.name(),
                self.books.audit.round(),
                self.phase_start,
            );
            self.phase_start = rec.start();
        }
        self.phase = phase;
    }

    /// The phase currently charged for traffic.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Per-phase traffic/energy attribution since construction.
    pub fn phases(&self) -> &PhaseBreakdown {
        &self.books.phases
    }

    /// Sets the service lane (query slot) that subsequent traffic is
    /// attributed to, in both the live [`LaneBook`] and the audit log's
    /// events. Sticky until changed; `0` is the default lane. The service
    /// runner sets this before executing each query's waves so per-query
    /// charges stay bit-exact.
    pub fn set_lane(&mut self, lane: u32) {
        self.books.audit.set_lane(lane);
        // Pre-size the book outside the hot path, so switching lanes never
        // allocates mid-wave.
        self.books.lanes.reserve(lane);
    }

    /// The lane currently charged for traffic.
    pub fn lane(&self) -> u32 {
        self.books.audit.lane()
    }

    /// Per-lane traffic/energy attribution since construction (lane 0
    /// holds everything unless [`Network::set_lane`] was used).
    pub fn lane_book(&self) -> &LaneBook {
        &self.books.lanes
    }

    /// Enables or disables shared-frame packing for multi-query rounds
    /// (the internal `SharedWave` accumulators): concurrent waves of one
    /// round share 802.15.4
    /// frames per link, so each extra payload pays only its marginal
    /// frames. Applies to lossless wave traffic only; accumulators reset
    /// at every [`Network::end_round`]. Off by default — the disabled path
    /// is byte-identical to releases without this feature.
    pub fn set_shared_frames(&mut self, on: bool) {
        self.share.enabled = on;
        let n = self.len();
        if on {
            self.share.up.resize(n, 0);
            self.share.down.resize(n, 0);
        }
        self.share.reset();
    }

    /// Holds or releases round boundaries. While held, protocol-internal
    /// [`Network::end_round`] calls are no-ops; the caller closes each
    /// real round with [`Network::finish_round`]. The multi-query service
    /// runner holds rounds so that all due queries execute inside one
    /// accounting round (one ledger snapshot, one shared-frame window).
    pub fn set_round_hold(&mut self, on: bool) {
        self.round_hold = on;
    }

    /// Closes the current round even while a round hold is active.
    pub fn finish_round(&mut self) {
        let hold = self.round_hold;
        self.round_hold = false;
        self.end_round();
        self.round_hold = hold;
    }

    /// Enables or disables transmission-event recording. Enable *before*
    /// any traffic flows: [`crate::audit::EnergyAuditor::verify`] can only
    /// reconcile a ledger whose every charge was witnessed. Enabling hands
    /// the log this network's node count and prices ([`Tariff`]).
    pub fn set_audit(&mut self, on: bool) {
        let tariff = Tariff::of(&self.model, &self.sizes, self.topo.radio_range());
        self.books.audit.set_enabled(on, self.len(), tariff);
    }

    /// The transmission log (empty unless auditing is enabled).
    pub fn audit_log(&self) -> &AuditLog {
        &self.books.audit
    }

    /// Enables or disables wall-clock span recording at wave granularity:
    /// one span per round, protocol phase and convergecast/broadcast wave,
    /// none per send. Off by default: a disabled recorder costs one branch
    /// per round, phase change and wave, and never reads the clock or
    /// allocates. On or off, spans only observe — no send path reads the
    /// recorder, so a telemetered run charges exactly what a bare one does.
    /// Enabling resets the span clock to now.
    pub fn set_telemetry(&mut self, on: bool) {
        let rec = &mut self.recorder;
        rec.set_enabled(on);
        self.round_start = rec.start();
        self.phase_start = rec.start();
    }

    /// The span recorder (its events feed [`wsn_obs::export::chrome_trace`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Per-node telemetry histograms: message bits, hop depth, ARQ
    /// retries, convergecast fan-in. Always recorded (run-length cells and
    /// inline counters on the hot path, no allocation). Internally the
    /// compact blocks live in wave-slot order for locality; this assembles
    /// an id-ordered copy (index `i` = node `i`, 216 bytes per node), so
    /// call it per run, not per round.
    pub fn histograms(&self) -> NodeHistograms {
        self.books.hists.snapshot()
    }

    /// Enables Bernoulli message loss (the §6 future-work extension).
    /// Without a reliability layer, protocols are *not* informed of losses;
    /// the resulting rank error is what the loss experiments measure. With
    /// one ([`Network::set_reliability`]), ARQ and wave recovery fight the
    /// losses and [`Network::last_wave`] reports what still went missing.
    pub fn set_loss(&mut self, loss: Option<LossModel>) {
        self.loss = loss;
    }

    /// Configures the reliability layer (per-link ARQ retries and end-to-end
    /// recovery passes). The default config reproduces the plain lossy path
    /// bit for bit. Reliability only acts when a loss model is installed.
    pub fn set_reliability(&mut self, cfg: ReliabilityConfig) {
        self.reliability = cfg;
    }

    /// The active reliability configuration.
    pub fn reliability(&self) -> ReliabilityConfig {
        self.reliability
    }

    /// Cumulative reliability counters (retransmissions, ACKs, recoveries,
    /// failures, …).
    pub fn reliability_stats(&self) -> &ReliabilityStats {
        &self.books.rel
    }

    /// Report of the most recent convergecast wave: who sent, and the roots
    /// of the subtrees whose contribution never reached the sink.
    pub fn last_wave(&self) -> &WaveReport {
        &self.wave
    }

    /// Marks, in a caller-owned mask (cleared and resized in place), every
    /// node whose contribution to the most recent convergecast failed to
    /// reach the sink: the union of the subtrees under
    /// [`WaveReport::dropped_roots`].
    pub fn mark_dropped_subtrees(&self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(self.len(), false);
        for &r in &self.wave.dropped_roots {
            self.tree.mark_subtree(r, mask);
        }
    }

    /// Installs (or removes) the crash-stop node-failure process.
    pub fn set_failures(&mut self, failures: Option<FailureModel>) {
        self.failures = failures;
    }

    /// Per-node liveness under the crash-stop failure process (all `true`
    /// without one; the root never fails).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// True iff `id` is alive *and* connected to the sink through the
    /// current (possibly repaired) routing tree.
    pub fn is_reachable(&self, id: NodeId) -> bool {
        self.alive[id.index()] && self.tree.contains(id)
    }

    /// Advances the failure process by one round: every live sensor dies
    /// independently with the model's probability, and if anyone died the
    /// routing tree is repaired over the surviving disk graph
    /// ([`RoutingTree::spanning_alive`]), re-parenting orphaned subtrees
    /// where a path exists. Returns the number of nodes that died this
    /// round. A no-op without a failure model.
    pub fn fail_round(&mut self) -> usize {
        let Some(fm) = self.failures.as_mut() else {
            return 0;
        };
        let mut newly = 0usize;
        for alive in self.alive.iter_mut().skip(1) {
            if *alive && fm.strike() {
                *alive = false;
                newly += 1;
            }
        }
        if newly > 0 {
            self.books.rel.failed_nodes += newly as u64;
            let (tree, orphans) = RoutingTree::spanning_alive(&self.topo, &self.alive);
            self.install_tree(tree, orphans.len());
            self.books.rel.repairs += 1;
        }
        newly
    }

    /// Installs a freshly built routing tree, re-slotting the histogram
    /// storage so every node keeps its own history, and updating the orphan
    /// count. Shared by failure-driven repairs ([`Network::fail_round`])
    /// and dynamics-driven rebuilds ([`Network::dynamics_rebuild`]);
    /// charges nothing.
    fn install_tree(&mut self, tree: RoutingTree, orphans: usize) {
        self.books.hists.reslot(&tree);
        self.tree = tree;
        self.books.rel.orphaned_nodes = orphans as u64;
    }

    /// Flips the liveness of one sensor without rebuilding anything — the
    /// churn process toggles bits first, then forces one
    /// [`Network::dynamics_rebuild`] covering every change. Joins
    /// (re-)enable a node that the crash-stop process or an earlier churn
    /// departure had removed; the node universe itself never changes size.
    ///
    /// # Panics
    /// Panics on the root: the sink neither departs nor joins.
    pub fn set_node_alive(&mut self, id: NodeId, alive: bool) {
        assert!(!id.is_root(), "the sink cannot churn");
        self.alive[id.index()] = alive;
    }

    /// Rebuilds the routing tree after a dynamics event: optionally
    /// installs a re-derived disk graph (mobility moved the nodes), spans
    /// the surviving nodes over it ([`RoutingTree::spanning_alive`]), and
    /// charges a *beacon wave* under [`Phase::Rebuild`] — every non-root
    /// tree node confirms its (possibly new) parent link with one
    /// counter-sized control message, in wave order. Beacons are control
    /// traffic on a freshly negotiated link, so they bypass the loss model
    /// (the fate stream is untouched); they do count as ordinary data
    /// messages in traffic stats, histograms and the audit log, which is
    /// what lets the auditor replay rebuild joules bit-exactly.
    ///
    /// Returns the number of orphaned (alive but disconnected) sensors.
    ///
    /// # Panics
    /// Panics if `topo` disagrees with the node universe size.
    pub fn dynamics_rebuild(&mut self, topo: Option<Topology>) -> usize {
        if let Some(t) = topo {
            assert_eq!(
                t.len(),
                self.len(),
                "dynamics cannot resize the node universe"
            );
            self.topo = t;
        }
        let (tree, orphans) = RoutingTree::spanning_alive(&self.topo, &self.alive);
        self.install_tree(tree, orphans.len());
        self.books.rel.rebuilds += 1;

        // Beacon wave over the new tree, lossless by construction.
        let (wire, rebuild) = (self.wire(), Phase::Rebuild);
        let beacon = self.sizes.counter_bits;
        let Network { tree, books, .. } = self;
        for (s, &u) in tree.bottom_up().iter().enumerate() {
            if let Some(parent) = tree.parent(u) {
                send_over_link(
                    books, &mut None, &wire, rebuild, u, s, parent, beacon, 0, None,
                );
            }
        }
        orphans.len()
    }

    /// Sets the duty-cycle listen fraction in per-mille of a round
    /// (`0..=1000`). A duty-cycled radio stays awake listening for that
    /// fraction of every round even when nothing is addressed to it;
    /// [`Network::end_round`] charges each live sensor the rx-priced cost
    /// of a `duty_milli`-bit listen window and witnesses it with a
    /// [`TxKind::Idle`] audit event. `0` (the default) charges nothing and
    /// emits nothing — byte-identical to the pre-dynamics engine. `1000`
    /// is an always-on receiver.
    ///
    /// # Panics
    /// Panics when `duty_milli > 1000`.
    pub fn set_duty_cycle(&mut self, duty_milli: u32) {
        assert!(duty_milli <= 1000, "duty cycle is per-mille");
        self.duty_milli = duty_milli;
    }

    /// The duty-cycle listen fraction in per-mille.
    pub fn duty_cycle(&self) -> u32 {
        self.duty_milli
    }

    /// Retunes the installed loss model's probability in place (the drift
    /// schedule's per-round update). The fate stream keeps its position,
    /// so drift-free and drift-pinned runs draw identical sequences. A
    /// no-op when no loss model is installed.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0` (with a loss model installed).
    pub fn set_loss_probability(&mut self, p: f64) {
        if let Some(loss) = self.loss.as_mut() {
            loss.set_probability(p);
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Never true.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of sensor nodes `|N|`.
    pub fn sensor_count(&self) -> usize {
        self.topo.sensor_count()
    }

    /// The routing tree.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Message sizing constants.
    pub fn sizes(&self) -> &MessageSizes {
        &self.sizes
    }

    /// Radio model parameters.
    pub fn model(&self) -> &RadioModel {
        &self.model
    }

    /// The energy ledger (read access for metrics).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.books.ledger
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.books.stats
    }

    /// The radio constants of the current topology and configuration.
    fn wire(&self) -> Wire {
        Wire {
            sizes: self.sizes,
            tx_coef: self.model.tx_coef(self.topo.radio_range()),
            rx_coef: self.model.rx_coef(),
            arq: self.reliability.max_retries,
        }
    }

    /// Marks the end of a protocol round in the ledger. When auditing, the
    /// audit log then folds the round's events into its own books and
    /// reconciles them with the ledger's per-node totals at this boundary,
    /// so every round is checked, not just the final totals. With
    /// telemetry on, closes the round's phase and round spans and opens
    /// the next round's.
    pub fn end_round(&mut self) {
        if self.round_hold {
            return;
        }
        let round = self.books.audit.round();
        if self.share.enabled {
            self.share.reset();
        }
        if self.duty_milli > 0 {
            // Idle listening: each live sensor pays the rx-priced cost of
            // keeping its radio awake for `duty_milli`‰ of the round, in
            // ascending node-id order (a deterministic charge order the
            // auditor replays). Nothing is on the air, so the kind's tally
            // leaves traffic stats untouched and no histogram records it.
            let bits = self.duty_milli as u64;
            let rx = self.model.rx_energy(bits);
            for i in 1..self.alive.len() {
                if self.alive[i] {
                    let id = NodeId(i as u32);
                    self.books
                        .charge(Phase::Other, TxKind::Idle, id, id, 0, bits, 0.0, rx);
                }
            }
        }
        let books = &mut self.books;
        books.ledger.end_round();
        books.audit.end_round(
            books.ledger.consumed_per_node(),
            books.ledger.consumed_tx_per_node(),
        );
        let rec = &mut self.recorder;
        if rec.is_enabled() {
            rec.end(self.phase.name(), round, self.phase_start);
            rec.end("round", round, self.round_start);
            self.round_start = rec.start();
            self.phase_start = rec.start();
        }
    }

    /// Runs a convergecast. `local` yields each *sensor* node's own
    /// contribution (the root takes no measurements). Returns the aggregate
    /// that reaches the root, or `None` if every node stayed silent.
    pub fn convergecast<T: Aggregate + Send + 'static>(
        &mut self,
        local: impl FnMut(NodeId) -> Option<T>,
    ) -> Option<T> {
        self.convergecast_with(local, |_, _| {})
    }

    /// Runs a convergecast where every sending node may prune/transform the
    /// merged payload before forwarding it (`prune` receives the node id and
    /// the payload about to be sent — or, at the root, the final payload).
    ///
    /// Pruning at the root is deliberate: the root applies the same logic
    /// (e.g. keeping the `f` largest values) when consuming the data.
    pub fn convergecast_with<T: Aggregate + Send + 'static>(
        &mut self,
        mut local: impl FnMut(NodeId) -> Option<T>,
        mut prune: impl FnMut(NodeId, &mut T),
    ) -> Option<T> {
        let wire = self.wire();
        self.books.stats.convergecasts += 1;
        self.wave.clear();
        let tsize = self.tree.tree_size();
        let mut inbox = self.scratch.take_buf::<T>(tsize);

        // Split field borrows: the traversal reads the tree while the
        // charging mutates the books, so the wave walks `bottom_up()` in
        // place instead of cloning the order.
        let Network {
            tree,
            books,
            loss,
            reliability,
            wave,
            phase,
            share,
            fanin,
            recorder,
            ..
        } = self;
        let phase = *phase;
        let wave_span = recorder.start();
        let round = books.audit.round();
        fanin.clear();
        fanin.resize(tsize, 0);

        let order = tree.bottom_up();
        let parent_slot = tree.parent_slots();
        let level_offsets = tree.level_offsets();
        // Shared frames apply to lossless waves only (per-fragment loss
        // draws must see the solo fragment stream).
        let sharing = share.enabled && loss.is_none();

        // (holder, origin, payload): payloads that died on a link, stashed
        // at the last node that held them so the recovery passes can resume
        // the climb where it stopped. `origin` is the node that first sent
        // the payload — the root of the subtree whose contributions it
        // carries (the tree gives a unique path, so the subtrees of the
        // origins are exactly the unaccounted nodes, with no overlap).
        let mut stranded: Vec<(NodeId, NodeId, T)> = Vec::new();

        // Level-batched waves over the struct-of-arrays order: each run of
        // `bottom_up` is one tree level (deepest first, children before
        // parents), so by the time a run starts, every inbox in it already
        // holds the merged payloads of its children, written by the
        // previous (denser) run. Depth is constant per run; inbox, fan-in
        // and histograms are indexed by wave slot, i.e. walked densely in
        // exactly this order. The final run is the root alone — its inbox
        // is collected after the loop.
        for lvl in 0..tree.levels().saturating_sub(1) {
            let start = level_offsets[lvl] as usize;
            let end = level_offsets[lvl + 1] as usize;
            let depth = tree.depth(order[start]) as u64;
            for pos in start..end {
                let u = order[pos];
                let from_children = inbox[pos].take();
                let own = local(u);
                let merged_in = fanin[pos] as u64 + own.is_some() as u64;
                let combined = match (from_children, own) {
                    (Some(mut a), Some(b)) => {
                        a.merge(b);
                        Some(a)
                    }
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (None, None) => None,
                };
                let Some(mut payload) = combined else {
                    continue;
                };
                prune(u, &mut payload);
                wave.senders += 1;
                books.hists.record(pos, HistKind::HopDepth, depth);
                books.hists.record(pos, HistKind::FanIn, merged_in);
                let bits = payload.payload_bits(&wire.sizes);
                let values = payload.value_count();
                let pslot = parent_slot[pos] as usize;
                let parent = order[pslot];
                let shared =
                    sharing.then(|| SharedWave::frame(&mut share.up[u.index()], bits, &wire.sizes));
                let arrived = send_over_link(
                    books, loss, &wire, phase, u, pos, parent, bits, values, shared,
                );
                if arrived {
                    fanin[pslot] += 1;
                    match &mut inbox[pslot] {
                        Some(existing) => existing.merge(payload),
                        None => inbox[pslot] = Some(payload),
                    }
                } else if reliability.recovery_passes > 0 {
                    stranded.push((u, u, payload));
                } else {
                    wave.dropped_roots.push(u);
                }
            }
        }
        // The root is always the last wave slot (the only depth-0 node).
        let mut result = inbox[tsize - 1].take();

        // Recovery passes: stranded payloads resume their climb towards the
        // root hop by hop, each hop a fresh (ARQ-protected) transmission
        // charged as reliability traffic, whatever phase stranded it.
        // Recovered payloads merge directly into the root's aggregate —
        // the intermediate nodes already forwarded their own wave upward.
        let recovery = Phase::Recovery;
        let mut pass = 0;
        while !stranded.is_empty() && pass < reliability.recovery_passes {
            pass += 1;
            let mut still = Vec::new();
            for (start, origin, payload) in stranded {
                let bits = payload.payload_bits(&wire.sizes);
                let values = payload.value_count();
                let mut at = start;
                let delivered = loop {
                    let parent = tree.parent(at).expect("stranded below the root");
                    let slot = tree.wave_slot(at).expect("stranded node is in the tree");
                    let arrived = send_over_link(
                        books, loss, &wire, recovery, at, slot, parent, bits, values, None,
                    );
                    if !arrived {
                        break false;
                    }
                    if parent.is_root() {
                        break true;
                    }
                    at = parent;
                };
                if delivered {
                    books.rel.recovered += 1;
                    match result.as_mut() {
                        Some(existing) => (*existing).merge(payload),
                        None => result = Some(payload),
                    }
                } else {
                    still.push((at, origin, payload));
                }
            }
            stranded = still;
        }
        for (_, origin, _) in &stranded {
            wave.dropped_roots.push(*origin);
        }

        recorder.end("convergecast", round, wave_span);

        // The root applies its prune exactly once, after recovery merged in
        // the late arrivals (it applies the same logic when consuming the
        // data, e.g. keeping the `f` largest values).
        if let Some(p) = result.as_mut() {
            prune(NodeId::ROOT, p);
        }
        self.scratch.put_buf(inbox);
        result
    }

    /// Runs a convergecast whose contributions are already materialised in
    /// a per-node slot array: `contributions[i]` is node `i`'s payload,
    /// taken by the engine (slots of nodes outside the routing tree are
    /// left in place). Exactly [`Network::convergecast_with`] with a
    /// take-from-slot closure; steady-state loops that rebuild their
    /// contributions every round keep one reusable buffer this way.
    pub fn convergecast_slots<T: Aggregate + Send + 'static>(
        &mut self,
        contributions: &mut [Option<T>],
        prune: impl FnMut(NodeId, &mut T),
    ) -> Option<T> {
        assert_eq!(contributions.len(), self.len(), "one slot per node");
        self.convergecast_with(|u| contributions[u.index()].take(), prune)
    }

    /// Floods a payload of `payload_bits` bits from the root to every node.
    /// Returns the set of nodes that actually received it (all of them
    /// without loss; possibly a subtree-prefix with loss enabled).
    ///
    /// The mask lives in a reusable scratch bitset owned by the network, so
    /// repeated broadcasts perform no heap allocation. Callers that need to
    /// keep the mask across further network calls should use
    /// [`Network::broadcast_into`] with their own buffer instead.
    pub fn broadcast(&mut self, payload_bits: u64) -> &NodeBits {
        // Detach the scratch mask so the wave engine's split field borrows
        // stay disjoint, then park it back and hand out a shared view.
        let mut received = std::mem::take(&mut self.bcast_recv);
        self.broadcast_into(payload_bits, &mut received);
        self.bcast_recv = received;
        &self.bcast_recv
    }

    /// [`Network::broadcast`] writing the per-node reception flags into a
    /// caller-owned bitset (cleared and resized in place), so repeated
    /// waves perform no heap allocation.
    pub fn broadcast_into(&mut self, payload_bits: u64, received: &mut NodeBits) {
        let wire = self.wire();
        self.books.stats.broadcasts += 1;
        received.reset(self.len());
        received.set(NodeId::ROOT.index());

        // Split field borrows, as in `convergecast_with`: traversal and
        // child lookups read the tree in place while the books and the
        // loss stream are mutated — no per-node clone of the children list.
        let Network {
            tree,
            books,
            loss,
            reliability,
            phase,
            share,
            recorder,
            ..
        } = self;
        let phase = *phase;
        let wave_span = recorder.start();
        let round = books.audit.round();
        let order = tree.bottom_up();
        // Every transmitter sends the same payload, so its solo framing is
        // a wave constant. Shared frames apply to lossless broadcasts only
        // (per-fragment loss draws must see the solo fragment stream).
        let solo = wire.sizes.fragment(payload_bits);
        let sharing = share.enabled && loss.is_none();
        // Walk the wave slots in reverse (parents before children, the
        // top-down order): histogram blocks and CSR child lists are then
        // visited in storage order.
        for pos in (0..order.len()).rev() {
            let u = order[pos];
            if !received.get(u.index()) || tree.is_leaf(u) {
                continue;
            }
            let shared = sharing
                .then(|| SharedWave::frame(&mut share.down[u.index()], payload_bits, &wire.sizes));
            let (fragments, bits) = shared.unwrap_or(solo);
            let (tx, rx) = wire.energy(bits);
            // One radio transmission reaches all children (§5.1.4: receivers
            // pay because the schedule tells them when to listen). Broadcast
            // frames are unacknowledged, as in 802.15.4; reliability comes
            // from the repair passes below.
            books.charge(phase, TxKind::BroadcastTx, u, u, fragments, bits, tx, 0.0);
            books.hists.frames(pos, &wire.sizes, payload_bits, shared);
            let depth = tree.depth(u) as u64;
            books.hists.record(pos, HistKind::HopDepth, depth);
            for &c in tree.children(u) {
                books.charge(phase, TxKind::BroadcastRx, u, c, fragments, bits, 0.0, rx);
                let arrived = match loss {
                    // Each 802.15.4 frame is lost independently and the
                    // child needs every fragment. No short-circuit: every
                    // fragment draws from the loss stream.
                    Some(loss) => (0..fragments).fold(true, |ok, _| !loss.lose() && ok),
                    None => true,
                };
                if arrived {
                    received.set(c.index());
                }
            }
        }

        // Repair passes: a parent holding the payload re-offers it to
        // children that missed it as an ARQ-protected unicast (the missing
        // link-layer ACK tells the parent who is short), charged as
        // reliability traffic. Children repaired early in a pass repair
        // their own children later in the same pass, since the reverse
        // wave order visits parents before children.
        if loss.is_some() {
            let recovery = Phase::Recovery;
            for _ in 0..reliability.recovery_passes {
                let mut repaired_any = false;
                for pos in (0..order.len()).rev() {
                    let u = order[pos];
                    if !received.get(u.index()) || tree.is_leaf(u) {
                        continue;
                    }
                    for &c in tree.children(u) {
                        if received.get(c.index()) {
                            continue;
                        }
                        let arrived = send_over_link(
                            books,
                            loss,
                            &wire,
                            recovery,
                            u,
                            pos,
                            c,
                            payload_bits,
                            0,
                            None,
                        );
                        if arrived {
                            received.set(c.index());
                            books.rel.recovered += 1;
                            repaired_any = true;
                        }
                    }
                }
                if !repaired_any {
                    break;
                }
            }
        }
        recorder.end("broadcast", round, wave_span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::EnergyAuditor;
    use crate::geometry::Point;

    /// Payload: a sum plus a vector of values.
    #[derive(Debug, Clone, PartialEq)]
    struct SumVals {
        sum: i64,
        vals: Vec<i64>,
    }

    impl Aggregate for SumVals {
        fn merge(&mut self, other: Self) {
            self.sum += other.sum;
            self.vals.extend(other.vals);
        }
        fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
            sizes.counter_bits + self.vals.len() as u64 * sizes.value_bits
        }
        fn value_count(&self) -> usize {
            self.vals.len()
        }
    }

    fn line_network(n: usize) -> Network {
        let positions = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn convergecast_aggregates_all_contributions() {
        let mut net = line_network(5);
        let agg = net
            .convergecast(|id| {
                Some(SumVals {
                    sum: id.0 as i64,
                    vals: vec![id.0 as i64 * 100],
                })
            })
            .unwrap();
        assert_eq!(agg.sum, 1 + 2 + 3 + 4);
        let mut vals = agg.vals.clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![100, 200, 300, 400]);
    }

    #[test]
    fn silent_nodes_send_nothing() {
        let mut net = line_network(5);
        let agg: Option<SumVals> = net.convergecast(|_| None);
        assert!(agg.is_none());
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.ledger().max_sensor_consumption(), 0.0);
    }

    #[test]
    fn intermediate_node_forwards_descendant_payload() {
        let mut net = line_network(4);
        // Only the farthest leaf (node 3) talks; nodes 2 and 1 must relay.
        let agg = net
            .convergecast(|id| {
                (id == NodeId(3)).then(|| SumVals {
                    sum: 7,
                    vals: vec![],
                })
            })
            .unwrap();
        assert_eq!(agg.sum, 7);
        // Three hops: 3->2, 2->1, 1->0.
        assert_eq!(net.stats().messages, 3);
        // Relays pay both rx and tx; leaf pays only tx; root pays only rx.
        let e1 = net.ledger().consumed(NodeId(1));
        let e3 = net.ledger().consumed(NodeId(3));
        assert!(e1 > e3);
    }

    #[test]
    fn pruning_shrinks_forwarded_payload() {
        let mut net = line_network(4);
        // Every node contributes 10 values; relays keep only 2.
        let agg = net
            .convergecast_with(
                |id| {
                    Some(SumVals {
                        sum: 0,
                        vals: vec![id.0 as i64; 10],
                    })
                },
                |_, p: &mut SumVals| {
                    p.vals.truncate(2);
                },
            )
            .unwrap();
        assert_eq!(agg.vals.len(), 2);
        // Hop 3->2 carries 2 values, hop 2->1 carries 2 (pruned from 12)...
        assert_eq!(net.stats().values, 6);
    }

    #[test]
    fn broadcast_reaches_everyone_and_charges_tx_per_internal_node() {
        let mut net = line_network(4);
        let received = net.broadcast(16);
        assert!(received.all());
        // Internal nodes 0,1,2 each transmit once.
        assert_eq!(net.stats().messages, 3);
        assert_eq!(net.stats().broadcasts, 1);
        // Leaf 3 only receives.
        let total = 16 + net.sizes().header_bits;
        let rx = net.model().rx_energy(total);
        assert!((net.ledger().consumed(NodeId(3)) - rx).abs() < 1e-18);
    }

    #[test]
    fn star_broadcast_single_transmission() {
        // Root with 4 direct children: one tx, four rx.
        let mut positions = vec![Point::new(0.0, 0.0)];
        for i in 0..4 {
            let a = i as f64 * std::f64::consts::FRAC_PI_2;
            positions.push(Point::new(a.cos() * 5.0, a.sin() * 5.0));
        }
        let topo = Topology::build(positions, 6.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        net.broadcast(0);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn fragmentation_inflates_message_count() {
        let mut net = line_network(2);
        // 100 values of 16 bits = 1600 bits > 1024-bit payload -> 2 fragments.
        net.convergecast(|_| {
            Some(SumVals {
                sum: 0,
                vals: vec![1; 100],
            })
        })
        .unwrap();
        // One payload too big for a single message... minus the sum counter.
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn end_round_snapshots_ledger() {
        let mut net = line_network(3);
        net.broadcast(0);
        net.end_round();
        assert_eq!(net.ledger().rounds(), 1);
    }

    fn one_value(id: NodeId) -> Option<SumVals> {
        Some(SumVals {
            sum: id.0 as i64,
            vals: vec![id.0 as i64],
        })
    }

    #[test]
    fn each_fragment_is_lost_independently() {
        // Fire-and-forget over a single 2-fragment link: the empirical
        // delivery rate must track (1-p)², not (1-p).
        let mut net = line_network(2);
        net.set_loss(Some(LossModel::new(0.4, 42)));
        let waves = 4000;
        for _ in 0..waves {
            net.convergecast(|_| {
                Some(SumVals {
                    sum: 0,
                    vals: vec![1; 100], // 1600 bits -> 2 fragments
                })
            });
        }
        let rate = net.reliability_stats().delivery_rate();
        let expected = 0.6 * 0.6;
        assert!((rate - expected).abs() < 0.03, "rate {rate}");
        // No ARQ traffic on the fire-and-forget path.
        assert_eq!(net.reliability_stats().acks, 0);
        assert_eq!(net.reliability_stats().retransmissions, 0);
    }

    #[test]
    fn arq_buys_delivery_with_retransmission_energy() {
        let mut lossy = line_network(2);
        lossy.set_loss(Some(LossModel::new(0.4, 7)));
        let mut arq = lossy.clone();
        arq.set_reliability(ReliabilityConfig::arq(6));
        let waves = 500;
        for _ in 0..waves {
            lossy.convergecast(one_value);
            arq.convergecast(one_value);
        }
        let plain = lossy.reliability_stats();
        let reliable = arq.reliability_stats();
        assert!(reliable.delivery_rate() > plain.delivery_rate());
        // P(all 7 data frames lost) = 0.4⁷ ≈ 0.0016 per hop.
        assert!(reliable.delivery_rate() > 0.99, "six retries at p=0.4");
        assert!(reliable.retransmissions > 0);
        assert!(reliable.acks as usize >= waves);
        // Reliability is never free: retries and ACKs hit the ledger.
        assert!(arq.ledger().max_sensor_consumption() > lossy.ledger().max_sensor_consumption());
    }

    #[test]
    fn retry_budget_zero_is_bit_identical_to_plain_loss() {
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 99)));
        let mut budget0 = plain.clone();
        budget0.set_reliability(ReliabilityConfig::arq(0));
        for _ in 0..200 {
            plain.convergecast(one_value);
            budget0.convergecast(one_value);
        }
        assert_eq!(plain.stats(), budget0.stats());
        assert_eq!(plain.reliability_stats(), budget0.reliability_stats());
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == budget0.ledger().consumed(id));
        }
    }

    #[test]
    fn total_loss_terminates_with_empty_result_and_full_report() {
        let mut net = line_network(4);
        net.set_loss(Some(LossModel::new(1.0, 1)));
        net.set_reliability(ReliabilityConfig::recovering(3, 4));
        let agg: Option<SumVals> = net.convergecast(one_value);
        assert!(agg.is_none());
        let wave = net.last_wave();
        assert!(!wave.is_complete());
        assert_eq!(wave.senders, 3);
        // The first hop (node 3 -> 2) already fails, so every sensor is a
        // dropped root and the dropped mask covers all sensors.
        let mut mask = Vec::new();
        net.mark_dropped_subtrees(&mut mask);
        assert_eq!(mask, vec![false, true, true, true]);
        // Broadcast under total loss terminates too (repair passes give up).
        let received = net.broadcast(16);
        assert!(!received.get(1) && !received.get(2) && !received.get(3));
    }

    #[test]
    fn recovery_passes_salvage_stranded_payloads() {
        let mut net = line_network(5);
        net.set_loss(Some(LossModel::new(0.35, 3)));
        net.set_reliability(ReliabilityConfig::recovering(2, 4));
        let mut complete = 0;
        let waves = 300;
        for _ in 0..waves {
            let agg = net.convergecast(one_value);
            if net.last_wave().is_complete() {
                complete += 1;
                // A complete wave carries every sensor's contribution.
                assert_eq!(agg.unwrap().sum, 1 + 2 + 3 + 4);
            }
        }
        assert!(complete > waves * 9 / 10, "complete {complete}/{waves}");
        assert!(net.reliability_stats().recovered > 0);
    }

    #[test]
    fn broadcast_repair_reoffers_to_missed_children() {
        let mut net = line_network(6);
        net.set_loss(Some(LossModel::new(0.4, 11)));
        net.set_reliability(ReliabilityConfig::recovering(6, 6));
        let mut all = 0;
        let waves = 200;
        let mut received = NodeBits::new();
        for _ in 0..waves {
            net.broadcast_into(64, &mut received);
            if received.all() {
                all += 1;
            }
        }
        assert!(all > waves * 9 / 10, "all {all}/{waves}");
        assert!(net.reliability_stats().recovered > 0);
    }

    #[test]
    fn fail_round_kills_and_repairs_the_tree() {
        let mut net = line_network(4);
        assert_eq!(net.fail_round(), 0, "no failure model installed");
        net.set_failures(Some(FailureModel::new(1.0, 5)));
        assert_eq!(net.fail_round(), 3);
        assert!(net.alive()[0]);
        assert!(!net.alive()[1] && !net.alive()[2] && !net.alive()[3]);
        assert!(net.is_reachable(NodeId::ROOT));
        assert!(!net.is_reachable(NodeId(2)));
        let stats = *net.reliability_stats();
        assert_eq!(stats.failed_nodes, 3);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.orphaned_nodes, 0, "dead nodes are not orphans");
        // Dead nodes neither contribute nor relay: the wave is root-only.
        let agg: Option<SumVals> = net.convergecast(one_value);
        assert!(agg.is_none());
        assert_eq!(net.stats().messages, 0);
        // Further rounds are no-ops: everyone is already dead.
        assert_eq!(net.fail_round(), 0);
        assert_eq!(net.reliability_stats().repairs, 1);
    }

    #[test]
    #[should_panic(expected = "invalid MessageSizes")]
    fn network_rejects_degenerate_sizes() {
        let positions = (0..2).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let sizes = MessageSizes {
            value_bits: 0,
            ..MessageSizes::default()
        };
        Network::new(topo, tree, RadioModel::default(), sizes);
    }

    #[test]
    fn phase_breakdown_sums_to_global_stats() {
        let mut net = line_network(5);
        net.set_loss(Some(LossModel::new(0.3, 21)));
        net.set_reliability(ReliabilityConfig::recovering(2, 3));
        net.set_phase(Phase::Validation);
        for _ in 0..50 {
            net.convergecast(one_value);
        }
        net.set_phase(Phase::Refinement);
        let mut buf = NodeBits::new();
        for _ in 0..20 {
            net.broadcast_into(64, &mut buf);
        }
        let b = *net.phases();
        assert_eq!(b.messages().iter().sum::<u64>(), net.stats().messages);
        assert_eq!(b.bits().iter().sum::<u64>(), net.stats().bits);
        assert!(b.get(Phase::Validation).messages > 0);
        assert!(b.get(Phase::Refinement).messages > 0);
        assert_eq!(b.get(Phase::Init).messages, 0);
        // Every joule the ledger saw is attributed to some phase.
        let total: f64 = net.ledger().consumed_per_node().iter().sum();
        assert!((b.total_joules() - total).abs() <= 1e-12 * total.max(1.0));
    }

    #[test]
    fn audited_lossy_run_reconciles_bit_exactly() {
        use crate::audit::EnergyAuditor;
        let mut net = line_network(6);
        net.set_audit(true);
        net.set_loss(Some(LossModel::new(0.35, 13)));
        net.set_reliability(ReliabilityConfig::recovering(3, 4));
        net.set_failures(Some(FailureModel::new(0.01, 17)));
        let mut buf = NodeBits::new();
        for _ in 0..30 {
            net.fail_round();
            net.set_phase(Phase::Validation);
            net.convergecast(one_value);
            net.set_phase(Phase::Refinement);
            net.broadcast_into(100, &mut buf);
            net.end_round();
        }
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
        assert!(report.events > 0);
        assert_eq!(report.rounds_checked, 30);
        assert!(net.audit_log().events().any(|e| e.phase == Phase::Recovery));
    }

    #[test]
    fn dynamics_rebuild_charges_beacons_and_replays_bit_exactly() {
        let mut net = line_network(5);
        net.set_audit(true);
        net.set_phase(Phase::Validation);
        net.convergecast(one_value);
        net.end_round();

        let before = net.phases().get(Phase::Rebuild).joules;
        assert_eq!(before, 0.0, "no rebuild charged yet");
        let orphans = net.dynamics_rebuild(None);
        assert_eq!(orphans, 0);
        assert_eq!(net.reliability_stats().rebuilds, 1);
        let rebuilt = net.phases().get(Phase::Rebuild);
        assert!(rebuilt.joules > 0.0, "beacon wave must cost energy");
        assert_eq!(rebuilt.messages, 4, "one beacon per non-root node");

        net.convergecast(one_value);
        net.end_round();
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
        assert!(report.events > 0);
    }

    #[test]
    fn rebuild_beacons_bypass_the_loss_model_and_its_fate_stream() {
        // Beacons negotiate fresh links, so they must neither be lost nor
        // consume fate draws: a run with a rebuild sandwiched between two
        // lossy rounds sees the same post-rebuild fates as one without.
        let mut a = line_network(4);
        a.set_loss(Some(LossModel::new(0.5, 77)));
        a.set_phase(Phase::Validation);
        let mut b = a.clone();
        a.convergecast(one_value);
        b.convergecast(one_value);
        a.end_round();
        b.end_round();
        a.dynamics_rebuild(None); // same topology: an identical tree
        a.convergecast(one_value);
        b.convergecast(one_value);
        // Beacons are always delivered (3 of them here); the *data* fates
        // after the rebuild must match the rebuild-free run exactly.
        assert_eq!(
            a.reliability_stats().delivered,
            b.reliability_stats().delivered + 3
        );
        assert_eq!(
            a.phases().get(Phase::Validation),
            b.phases().get(Phase::Validation),
            "data traffic is bit-identical with and without the rebuild"
        );
        assert_eq!(a.reliability_stats().rebuilds, 1);
        assert_eq!(b.reliability_stats().rebuilds, 0);
    }

    #[test]
    fn rebuild_reindexes_per_node_histograms() {
        // Regression: per-node histograms live in wave-slot order, and a
        // dynamics rebuild re-derives that order. Each node must keep its
        // *own* history across the rebuild, not inherit whichever node now
        // occupies its old slot.
        let mut net = line_network(5);
        net.set_phase(Phase::Validation);
        net.convergecast(one_value); // depths 1, 2, 3, 4 down the chain
        net.end_round();

        // Node 4 walks next to the sink; everyone else stays put. New
        // depths: 1→1, 2→2, 3→3, 4→1.
        let mut positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        positions[4] = Point::new(0.0, 10.0);
        net.dynamics_rebuild(Some(Topology::build(positions, 12.0)));
        net.convergecast(one_value);
        net.end_round();

        let hists = net.histograms();
        let depth = |id: usize| *hists.node(id).get(HistKind::HopDepth);
        assert_eq!(depth(4).max(), 4, "node 4 keeps its old depth-4 sample");
        assert_eq!(depth(4).sum(), 4 + 1);
        assert_eq!(depth(1).max(), 1, "node 1 was always depth 1");
        assert_eq!(depth(1).sum(), 1 + 1);
        assert_eq!(depth(3).sum(), 3 + 3);
        for id in 1..5 {
            assert_eq!(depth(id).count(), 2, "two samples per node");
        }
    }

    #[test]
    fn duty_cycled_idle_listening_audits_cleanly() {
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_duty_cycle(250);
        net.set_phase(Phase::Validation);
        let idle_leaf = net.ledger().consumed(NodeId(3));
        for _ in 0..3 {
            net.convergecast(|id| (id == NodeId(1)).then(|| one_value(id)).flatten());
            net.end_round();
        }
        // Node 3 never transmitted or received, yet its radio listened.
        assert!(net.ledger().consumed(NodeId(3)) > idle_leaf);
        let idles = net
            .audit_log()
            .events()
            .filter(|e| e.kind == TxKind::Idle)
            .count();
        assert_eq!(idles, 3 * 3, "one idle event per alive sensor per round");
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn zero_duty_cycle_matches_the_static_engine_bit_for_bit() {
        let mut plain = line_network(4);
        plain.set_phase(Phase::Validation);
        let mut duty = plain.clone();
        duty.set_duty_cycle(0);
        for _ in 0..5 {
            plain.convergecast(one_value);
            duty.convergecast(one_value);
            plain.end_round();
            duty.end_round();
        }
        for id in 0..4 {
            assert_eq!(
                plain.ledger().consumed(NodeId(id)),
                duty.ledger().consumed(NodeId(id))
            );
        }
        assert_eq!(plain.phases(), duty.phases());
    }

    #[test]
    #[should_panic(expected = "the sink cannot churn")]
    fn the_sink_never_churns() {
        let mut net = line_network(3);
        net.set_node_alive(NodeId(0), false);
    }

    #[test]
    fn all_but_sink_crash_then_rejoin() {
        // Boundary: every sensor departs (the tree collapses to the root),
        // then everyone rejoins — the engine must survive both rebuilds
        // and the audit must reconcile across them.
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_phase(Phase::Validation);
        for id in 1..4 {
            net.set_node_alive(NodeId(id), false);
        }
        let orphans = net.dynamics_rebuild(None);
        assert_eq!(orphans, 0, "dead nodes are not orphans");
        assert!(net.convergecast(one_value).is_none(), "no sensors left");
        net.end_round();

        for id in 1..4 {
            net.set_node_alive(NodeId(id), true);
        }
        net.dynamics_rebuild(None);
        let agg = net.convergecast(one_value).expect("everyone is back");
        assert_eq!(agg.sum, 1 + 2 + 3);
        net.end_round();
        assert_eq!(net.reliability_stats().rebuilds, 2);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        // Histograms are always-on and the recorder is a pure observer: a
        // fully telemetered run must be bit-identical to a bare one, over
        // lossy ARQ links and over lossless shared frames alike.
        let run = |mut plain: Network, waves: usize| {
            plain.set_phase(Phase::Validation);
            let mut telem = plain.clone();
            telem.set_audit(true);
            telem.set_telemetry(true);
            for _ in 0..50 {
                for _ in 0..waves {
                    plain.convergecast(one_value);
                    telem.convergecast(one_value);
                }
                plain.end_round();
                telem.end_round();
            }
            assert_eq!(plain.stats(), telem.stats());
            assert_eq!(plain.histograms(), telem.histograms());
            assert!(plain.ledger().consumed_per_node() == telem.ledger().consumed_per_node());
            // Wave granularity: one round, one phase and `waves` wave
            // spans per round, none per send.
            assert_eq!(telem.recorder().events().len(), 50 * (2 + waves));
            (plain, telem)
        };
        // Two convergecasts per round: the second rides the first's
        // frames, so each of the four links pays both payloads (1-4
        // values) and one 128-bit header per round, spans on or off.
        let mut shared = line_network(5);
        shared.set_shared_frames(true);
        let (plain, _) = run(shared, 2);
        assert_eq!(plain.stats().bits, 50 * (2 * (32 + 48 + 64 + 80) + 4 * 128));

        let mut lossy = line_network(5);
        lossy.set_loss(Some(LossModel::new(0.3, 5)));
        lossy.set_reliability(ReliabilityConfig::arq(2));
        let (plain, telem) = run(lossy, 1);
        // Every data frame (retransmissions included, ACKs excluded) is a
        // MsgBits sample, so the histogram count equals the message count.
        let total = telem.histograms().total();
        assert_eq!(
            total.get(wsn_obs::HistKind::MsgBits).count(),
            telem.stats().messages
        );
        assert_eq!(total.get(wsn_obs::HistKind::HopDepth).max(), 4);
        let events = telem.recorder().events();
        assert!(events.iter().any(|e| e.name == "round"));
        assert!(events.iter().any(|e| e.name == "convergecast"));
        assert!(events.iter().any(|e| e.name == "validation"));
        assert!(plain.recorder().events().is_empty());
        let cap: Vec<_> = telem
            .audit_log()
            .events()
            .map(|e| e.to_packet_record())
            .collect();
        assert_eq!(cap.len(), telem.audit_log().len());
        assert!(cap
            .iter()
            .any(|r| r.kind == "data" && r.phase == "validation"));
        assert!(plain.audit_log().is_empty());
    }

    #[test]
    fn auditing_perturbs_neither_stats_nor_ledger() {
        // The audit log must be a pure observer: it consumes no randomness
        // and charges nothing, so an audited run is bit-identical to an
        // unaudited one.
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 99)));
        plain.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut audited = plain.clone();
        audited.set_audit(true);
        for _ in 0..100 {
            plain.convergecast(one_value);
            audited.convergecast(one_value);
        }
        assert_eq!(plain.stats(), audited.stats());
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == audited.ledger().consumed(id));
        }
        assert!(plain.audit_log().is_empty());
        assert!(!audited.audit_log().is_empty());
    }

    #[test]
    fn shared_frames_cost_one_concatenated_payload_per_link() {
        // Three identical waves in one round: under sharing each link must
        // cost exactly fragment(sum of payloads), i.e. the payload bits of
        // every wave plus ONE set of headers per link.
        let mut solo = line_network(3);
        let mut shared = line_network(3);
        shared.set_shared_frames(true);
        for _ in 0..3 {
            solo.convergecast(one_value);
            shared.convergecast(one_value);
        }
        // Node 2 sends 1 value (counter + value = 32 bits), node 1 merges
        // and sends 2 values (48 bits); defaults: 128-bit header.
        let link2 = 3 * 32 + 128;
        let link1 = 3 * 48 + 128;
        assert_eq!(shared.stats().bits, link2 + link1);
        assert_eq!(solo.stats().bits, 3 * (32 + 128) + 3 * (48 + 128));
        // Only the first wave opens frames; later waves piggyback.
        assert_eq!(shared.stats().messages, 2);
        // The MsgBits histogram still counts one sample per frame.
        assert_eq!(
            shared
                .histograms()
                .total()
                .get(wsn_obs::HistKind::MsgBits)
                .count(),
            shared.stats().messages
        );
        // A round boundary resets the accumulators: the next wave pays the
        // full solo cost again.
        shared.end_round();
        let before = shared.stats().bits;
        shared.convergecast(one_value);
        assert_eq!(shared.stats().bits - before, (32 + 128) + (48 + 128));
    }

    #[test]
    fn shared_first_send_is_bit_identical_to_solo() {
        // One wave per round: sharing never engages beyond the first
        // payload, so everything (bits, energies, events) is unchanged.
        let mut plain = line_network(5);
        let mut shared = line_network(5);
        plain.set_audit(true);
        shared.set_audit(true);
        shared.set_shared_frames(true);
        for _ in 0..4 {
            plain.convergecast(one_value);
            plain.broadcast(64);
            plain.end_round();
            shared.convergecast(one_value);
            shared.broadcast(64);
            shared.end_round();
        }
        assert_eq!(plain.stats(), shared.stats());
        assert!(plain.audit_log().events().eq(shared.audit_log().events()));
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == shared.ledger().consumed(id));
        }
    }

    #[test]
    fn shared_broadcasts_pay_marginal_frames_only() {
        let mut net = line_network(4);
        net.set_shared_frames(true);
        net.broadcast(64);
        let first = net.stats().bits;
        // 3 internal transmitters × (64 + 128).
        assert_eq!(first, 3 * (64 + 128));
        net.broadcast(64);
        // Same round: the second broadcast rides the open frames.
        assert_eq!(net.stats().bits - first, 3 * 64);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean() || net.audit_log().is_empty());
    }

    #[test]
    fn lane_book_partitions_charges_and_replays_bit_exactly() {
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_shared_frames(true);
        // Two lanes interleaved within one round, plus broadcast traffic.
        for _ in 0..3 {
            net.set_lane(0);
            net.convergecast(one_value);
            net.broadcast(32);
            net.set_lane(1);
            net.convergecast(one_value);
            net.broadcast(32);
            net.end_round();
        }
        let book = net.lane_book();
        assert_eq!(book.len(), 2);
        // Lanes partition the global breakdown exactly (integer fields).
        let phases = *net.phases();
        for phase in Phase::ALL {
            let bits: u64 = book.breakdowns().iter().map(|b| b.get(phase).bits).sum();
            let msgs: u64 = book
                .breakdowns()
                .iter()
                .map(|b| b.get(phase).messages)
                .sum();
            assert_eq!(bits, phases.get(phase).bits, "{}", phase.name());
            assert_eq!(msgs, phases.get(phase).messages, "{}", phase.name());
        }
        // Lane 1 piggybacks on lane 0's frames, so it is strictly cheaper.
        assert!(
            book.get(1).get(Phase::Other).bits < book.get(0).get(Phase::Other).bits,
            "piggybacking lane must pay fewer bits"
        );
        // The audit-log replay reproduces the live book bit for bit.
        let replayed = crate::audit::lane_breakdowns(net.audit_log(), book.len());
        for (lane, b) in replayed.iter().enumerate() {
            assert_eq!(*b, book.get(lane as u32), "lane {lane}");
        }
        // And the energy audit still reconciles under sharing.
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn every_charge_kind_books_alike_in_stats_phases_lanes_and_audit() {
        // One audited two-lane run through every send path: lossless
        // shared-frame waves, then lossy ARQ data with ACKs, recovery
        // climbs and broadcast repairs, with duty-cycle idle charges every
        // round and a rebuild's beacon wave near the end.
        let run = |duty_milli: u32| {
            let mut net = line_network(6);
            net.set_audit(true);
            net.set_shared_frames(true);
            net.set_duty_cycle(duty_milli);
            let mut buf = NodeBits::new();
            let mut rounds = |net: &mut Network, n: usize| {
                for _ in 0..n {
                    for lane in [0, 1] {
                        net.set_lane(lane);
                        net.set_phase(Phase::Validation);
                        net.convergecast(one_value);
                        net.set_phase(Phase::Refinement);
                        net.broadcast_into(64, &mut buf);
                    }
                    net.end_round();
                }
            };
            rounds(&mut net, 3);
            net.set_loss(Some(LossModel::new(0.4, 23)));
            net.set_reliability(ReliabilityConfig::recovering(1, 3));
            rounds(&mut net, 20);
            net.dynamics_rebuild(None);
            rounds(&mut net, 2);
            net
        };
        let net = run(100);
        // Idle listening is not traffic: the duty cycle moves no message
        // and no bit, only joules.
        assert_eq!(*net.stats(), *run(0).stats());

        let events: Vec<_> = net.audit_log().events().collect();
        for kind in [
            TxKind::Data,
            TxKind::Ack,
            TxKind::BroadcastTx,
            TxKind::BroadcastRx,
            TxKind::Idle,
        ] {
            assert!(events.iter().any(|e| e.kind == kind), "{}", kind.name());
        }
        assert!(events.iter().any(|e| e.phase == Phase::Rebuild));
        // On a line, node i's parent is i - 1: recovery data flowing up is
        // a stranded payload's climb, flowing down a broadcast repair.
        let recovery = |up: bool| {
            events.iter().any(|e| {
                e.phase == Phase::Recovery && e.kind == TxKind::Data && (e.src.0 > e.dst.0) == up
            })
        };
        assert!(recovery(true), "a stranded payload climbed");
        assert!(recovery(false), "a broadcast repair re-offered");
        for lane in [0, 1] {
            assert!(events.iter().any(|e| e.lane == lane), "lane {lane}");
        }

        // Traffic stats equal the sum over phases and the sum over lanes.
        let stats = *net.stats();
        let phases = net.phases();
        assert_eq!(phases.messages().iter().sum::<u64>(), stats.messages);
        assert_eq!(phases.bits().iter().sum::<u64>(), stats.bits);
        let book = net.lane_book();
        assert_eq!(book.len(), 2);
        let lane_total = |counts: fn(&PhaseBreakdown) -> [u64; Phase::COUNT]| -> u64 {
            book.breakdowns().iter().flat_map(counts).sum()
        };
        assert_eq!(lane_total(PhaseBreakdown::messages), stats.messages);
        assert_eq!(lane_total(PhaseBreakdown::bits), stats.bits);
        // Independently of the booking rule, every data frame on air — and
        // nothing else — is one `MsgBits` sample.
        let msg_bits = net.histograms().total();
        assert_eq!(msg_bits.get(HistKind::MsgBits).count(), stats.messages);
        // The live lane book is the audit log's own, bit for bit, and the
        // log reproduced every charge from its 16-byte records.
        let replayed = crate::audit::lane_breakdowns(net.audit_log(), book.len());
        assert_eq!(replayed, book.breakdowns());
        assert_eq!(net.audit_log().escaped(), 0);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }
}
