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
//! The engine charges the bits each node sends and receives, which the
//! ledger prices per the [`RadioModel`], and fragments payloads per
//! [`MessageSizes`]. Protocol logic never touches the ledger directly.
//! Inside the engine one per-kind booking rule (`TxKind::tally`) counts
//! every radio charge — data frame, ACK, broadcast transmission or
//! reception, idle listening — in bits into the ledger, the traffic stats,
//! the phase and lane breakdowns and the audit log, and three paths apply
//! it. One function books one charge at a time: lossy sends, ACKs,
//! recovery, repairs and idle listening. A lossless broadcast, audited or
//! not, solo or in shared frames, books its whole wave at once from a
//! per-tree plan. A lossless convergecast, a rebuild's beacon wave
//! included, books each sender's ledger entries, histogram samples and
//! audit column entry as it sends, and the traffic, phase, lane and
//! reliability books once per wave. Every book counts integers, so each
//! path leaves every book exactly where one charge at a time would. One
//! function sends every unicast over a lossy link, whatever the telemetry
//! setting: wall-clock spans time rounds, phases and waves, never a single
//! send.
//!
//! With a [`LossModel`] installed, every 802.15.4 fragment is lost
//! independently; the optional reliability layer (see
//! [`crate::reliability`]) adds per-link ARQ, end-to-end wave recovery, and
//! crash-stop node failures with routing-tree repair — all charged to the
//! same ledger, so reliability has a measurable energy price.

use std::any::{Any, TypeId};

use crate::audit::{wave_tally, AuditLog, LaneBook, Phase, PhaseBreakdown, Tariff, TxKind};
use crate::bitset::NodeBits;
use crate::energy::{EnergyLedger, RadioModel};
use crate::loss::LossModel;
use crate::message::MessageSizes;
use crate::reliability::{FailureModel, ReliabilityConfig, ReliabilityStats, WaveReport};
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;
use wsn_obs::hist::permute_in_place;
use wsn_obs::{HistKind, HistogramSet, NodeHistograms, Recorder, SpanStart};

/// A mergeable convergecast payload.
///
/// Implementations describe both the algebra (how payloads combine) and the
/// wire format (how many bits the payload occupies).
pub trait Aggregate {
    /// Merges `other` into `self` (TAG-style in-network aggregation).
    fn merge(&mut self, other: Self);

    /// Merges the payload held in `other` (always `Some`) into `self`, as
    /// [`Aggregate::merge`] does. The default takes it out of `other` and
    /// forwards to `merge`; payloads that own heap storage override this to
    /// merge by borrowing and leave `other` holding its spent payload, whose
    /// storage a [`WaveStore`] reuses for a later one.
    fn merge_from(&mut self, other: &mut Option<Self>)
    where
        Self: Sized,
    {
        if let Some(other) = other.take() {
            self.merge(other);
        }
    }

    /// Overwrites `slot` — a spent payload, or nothing yet — with an exact
    /// copy of the payload held in `other` (always `Some`). The default
    /// moves it out of `other`; payloads that own heap storage override
    /// this to copy into `slot`'s storage (cloning when it has none) and
    /// leave `other` its own, so every slot keeps the storage it was given.
    fn copy_from(slot: &mut Option<Self>, other: &mut Option<Self>)
    where
        Self: Sized,
    {
        *slot = other.take();
    }

    /// Size of this payload on the wire, in bits, excluding headers.
    fn payload_bits(&self, sizes: &MessageSizes) -> u64;

    /// Number of raw measurements contained in the payload, for the
    /// "transmitted values" statistic of §5.1. Defaults to zero for
    /// counter-only payloads.
    fn value_count(&self) -> usize {
        0
    }
}

/// Moves the live payload in `from` into `into`: merged into `into`'s
/// payload when that is live, otherwise copied over whatever `into` held.
fn fold<T: Aggregate>(from: &mut Option<T>, into: &mut Option<T>, live: bool) {
    match into {
        Some(acc) if live => acc.merge_from(from),
        _ => T::copy_from(into, from),
    }
}

/// Convergecast payload storage that outlives the wave: one slot per wave
/// slot (slot `s` belongs to the node at `tree.bottom_up()[s]`), holding the
/// payloads the node's children send it; a spare, into which each node
/// writes its own contribution ([`Network::convergecast_in`]); and the
/// wave's result.
///
/// A slot keeps its payload after the wave, spent, and the next payload to
/// pass through that slot overwrites it in place: a payload moves up the
/// tree by [`Aggregate::merge_from`] or [`Aggregate::copy_from`] into its
/// parent's slot, never by handing its storage on (only the root's
/// aggregate trades places with the previous result). So each slot's
/// storage settles at the largest payload that slot carries, and with both
/// methods borrowing, a steady-state wave neither allocates nor frees.
///
/// The storage holds no observable state: a wave's result never depends on
/// what the slots held before, and clones start empty.
pub struct WaveStore<T> {
    slots: Vec<Option<T>>,
    spare: Option<T>,
    result: Option<T>,
    /// Whether `result` holds the last wave's aggregate (else it is spent).
    has_result: bool,
}

impl<T> WaveStore<T> {
    /// Empty storage; the first waves through it allocate.
    pub fn new() -> Self {
        WaveStore {
            slots: Vec::new(),
            spare: None,
            result: None,
            has_result: false,
        }
    }

    /// Gives every slot a wave over `tree` can need — the slots of nodes
    /// with children (a childless node sends from the spare), the spare and
    /// the result — storage made by `make`, where it has none yet. A wave
    /// that reaches a different few slots each time (a refinement or
    /// retrieval wave, answered only by the nodes whose value falls in the
    /// requested interval) would otherwise allocate whenever it first
    /// reaches a slot, for as many rounds as it takes to reach them all;
    /// filled, the store allocates only when a payload outgrows its slot.
    pub fn fill(&mut self, tree: &RoutingTree, mut make: impl FnMut() -> T) {
        let order = tree.bottom_up();
        if self.slots.len() < order.len() {
            self.slots.resize_with(order.len(), || None);
        }
        let relays = self
            .slots
            .iter_mut()
            .zip(order)
            .filter(|(_, &u)| !tree.is_leaf(u))
            .map(|(slot, _)| slot);
        for slot in relays.chain([&mut self.spare, &mut self.result]) {
            if slot.is_none() {
                *slot = Some(make());
            }
        }
    }

    /// The aggregate of the last wave through this store, or `None` when
    /// every node stayed silent.
    pub fn result(&mut self) -> Option<&mut T> {
        if self.has_result {
            self.result.as_mut()
        } else {
            None
        }
    }

    /// Takes the last wave's aggregate out of the store.
    fn take_result(&mut self) -> Option<T> {
        std::mem::take(&mut self.has_result)
            .then(|| self.result.take())
            .flatten()
    }
}

impl<T> Default for WaveStore<T> {
    fn default() -> Self {
        WaveStore::new()
    }
}

impl<T> Clone for WaveStore<T> {
    /// Storage is not meaningful state; clones start empty.
    fn clone(&self) -> Self {
        WaveStore::new()
    }
}

impl<T> std::fmt::Debug for WaveStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveStore")
            .field("slots", &self.slots.len())
            .finish()
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

/// The [`WaveStore`]s behind the by-value [`Network::convergecast`], one
/// per payload type, so it stays allocation-free in steady state for
/// payloads without heap storage.
/// Payload types are open-ended, so the stores are kept type-erased.
///
/// Scratch holds no observable state — clearing (or cloning to empty) never
/// changes simulation results, only allocation behaviour.
#[derive(Default)]
struct ScratchPool {
    stores: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchPool {
    /// Takes the store for payload type `T` (empty on first use).
    fn take<T: Send + 'static>(&mut self) -> WaveStore<T> {
        let key = TypeId::of::<WaveStore<T>>();
        self.stores
            .iter_mut()
            .find(|(k, _)| *k == key)
            .and_then(|(_, b)| b.downcast_mut::<WaveStore<T>>())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Returns a store to the pool for later reuse.
    fn put<T: Send + 'static>(&mut self, store: WaveStore<T>) {
        let key = TypeId::of::<WaveStore<T>>();
        match self.stores.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => {
                if let Some(slot) = b.downcast_mut::<WaveStore<T>>() {
                    *slot = store;
                }
            }
            None => self.stores.push((key, Box::new(store))),
        }
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("stores", &self.stores.len())
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
    /// histogram, and so which wave slots hold a live payload (cleared each
    /// convergecast; no steady-state allocation).
    fanin: Vec<u32>,
    /// Per-wave scratch: `(holder, slot)` of every payload that died on a
    /// link, for the recovery passes. The payload waits in the wave slot of
    /// the node that first sent it — the root of the subtree whose
    /// contributions it carries.
    stranded: Vec<(NodeId, u32)>,
    /// Reusable reception mask for [`Network::broadcast`]; steady-state
    /// broadcasts perform no heap allocation.
    bcast_recv: NodeBits,
    /// The charges of a lossless broadcast over the current tree.
    broadcast_plan: BroadcastPlan,
}

/// Everything a send writes, split off [`Network`] so the wave engines can
/// charge while they read the routing tree in place.
///
/// The five accounting books — energy ledger, traffic stats, per-phase and
/// per-lane breakdowns, audit log — change only through [`Books::charge`],
/// one call per radio charge; [`BroadcastPlan::charge`], which books a
/// lossless broadcast as exactly those calls would; or
/// [`Books::charge_sender`] and [`Books::charge_convergecast`], which book
/// a lossless convergecast likewise, sender by sender in the ledger and
/// once per wave in the other books. All of them count bits, so they
/// cannot disagree with each other or with the audit log's own books
/// ([`crate::audit::lane_breakdowns`]), whatever order they are added in.
#[derive(Debug, Clone)]
struct Books {
    ledger: EnergyLedger,
    stats: TrafficStats,
    phases: PhaseBreakdown,
    /// Per-lane twin of `phases`, charged under the audit log's current
    /// lane, so multi-query service runs get exact per-query accounting.
    lanes: LaneBook,
    audit: AuditLog,
    rel: ReliabilityStats,
    hists: Hists,
}

impl Books {
    /// Books one radio charge of a `kind` event of `(fragments, bits)`: by
    /// the kind's [`TxKind::tally`], `src` pays for its transmitted bits
    /// and `dst` for its received ones in the ledger, the traffic, phase
    /// and lane books add the tally, and the audit log witnesses the charge
    /// under the current round and lane.
    #[inline(always)]
    fn charge(
        &mut self,
        phase: Phase,
        kind: TxKind,
        src: NodeId,
        dst: NodeId,
        fragments: u64,
        bits: u64,
    ) {
        let (messages, tx_bits, rx_bits) = kind.tally(fragments, bits);
        self.ledger.charge_tx(src, tx_bits);
        self.ledger.charge_rx(dst, rx_bits);
        self.count(phase, (messages, tx_bits, rx_bits));
        self.audit.record(phase, kind, src, dst, fragments, bits);
    }

    /// Adds a `(messages, tx_bits, rx_bits)` tally under `phase` to the
    /// traffic stats and to the phase and lane books, the lane being the
    /// audit log's current one.
    #[inline(always)]
    fn count(&mut self, phase: Phase, (messages, tx_bits, rx_bits): (u64, u64, u64)) {
        self.stats.messages += messages;
        self.stats.bits += tx_bits;
        self.phases.charge(phase, messages, tx_bits, rx_bits);
        let lane = self.audit.lane();
        self.lanes.charge(lane, phase, messages, tx_bits, rx_bits);
    }

    /// Books what varies by sender in a lossless convergecast wave, whose
    /// audit record is open: the payload framed as `framing` is one
    /// [`TxKind::Data`] charge `from → to` in the ledger, its `MsgBits`
    /// samples and a zero `Retries` sample in `from`'s histogram `slot`,
    /// and a sender of the audit log's wave; its counts go into `tally`.
    #[inline(always)]
    fn charge_sender(
        &mut self,
        tally: &mut ConvergecastTally,
        sizes: &MessageSizes,
        (from, slot, to): (NodeId, usize, NodeId),
        framing: Framing,
        values: usize,
    ) {
        let (fragments, bits) = framing.frames(sizes);
        let (_, tx_bits, rx_bits) = TxKind::Data.tally(fragments, bits);
        self.ledger.charge_tx(from, tx_bits);
        self.ledger.charge_rx(to, rx_bits);
        self.hists.frames(slot, sizes, framing);
        self.hists.record(slot, HistKind::Retries, 0);
        self.audit.record_sender(slot, fragments, bits);
        tally.senders += 1;
        tally.fragments += fragments;
        tally.bits += bits;
        tally.values += values as u64;
    }

    /// Ends a lossless convergecast wave of `tally` under `phase`: the
    /// traffic, phase and lane books and the delivery count take what its
    /// senders' [`Books::charge`]s would have added, in one addition each,
    /// and the audit log closes the wave's record.
    fn charge_convergecast(&mut self, phase: Phase, tally: ConvergecastTally) {
        self.audit.close_convergecast();
        if tally.senders == 0 {
            return;
        }
        self.count(phase, TxKind::Data.tally(tally.fragments, tally.bits));
        self.stats.values += tally.values;
        self.rel.delivered += tally.senders;
    }
}

/// What a lossless convergecast wave's senders sent, summed for the books
/// [`Books::charge_convergecast`] charges once per wave.
#[derive(Debug, Clone, Copy, Default)]
struct ConvergecastTally {
    senders: u64,
    fragments: u64,
    bits: u64,
    values: u64,
}

/// A wave's radio constants, hoisted off the per-send path: framing rules
/// and the ARQ retry budget.
#[derive(Debug, Clone, Copy)]
struct Wire {
    sizes: MessageSizes,
    arq: u32,
}

/// Sends one logical payload, framed solo, over the single lossy link
/// `from → to`, charging the grouped [`Books`] so the wave engines can
/// iterate the routing tree in place. Every unicast over a lossy link is
/// booked here: lossy convergecast sends, recovery climbs and broadcast
/// repairs (the senders of a lossless convergecast, rebuild beacons
/// included, are booked by [`Books::charge_sender`]). `slot` is `from`'s
/// histogram slot. Returns whether the *entire* payload (every fragment)
/// arrived.
///
/// Every 802.15.4 fragment is lost independently (a ten-fragment histogram
/// really is more fragile than a one-value payload) and, when
/// `wire.arq > 0`, each data frame is acknowledged and retransmitted up to
/// the budget. Retries and ACKs are charged to the ledger like any other
/// traffic; ACK frames count towards bits on air but not towards the
/// message count (§5.1 counts data messages).
#[allow(clippy::too_many_arguments)]
fn send_over_link(
    books: &mut Books,
    loss: &mut LossModel,
    wire: &Wire,
    phase: Phase,
    from: NodeId,
    slot: usize,
    to: NodeId,
    payload_bits: u64,
    values: usize,
) -> bool {
    books.stats.values += values as u64;
    let mut all_arrived = true;
    let mut link_retries = 0u64;
    for frag_bits in wire.sizes.fragment_bits(payload_bits) {
        let mut frag_arrived = false;
        let mut attempt = 0u32;
        loop {
            books.charge(phase, TxKind::Data, from, to, 1, frag_bits);
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
                books.charge(phase, TxKind::Ack, to, from, 1, ack);
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
/// convergecast fan-in. Always on: a sample extends a run in a two-run
/// cell, and a flushed run bumps one inline counter of the node's compact
/// 216-byte [`NodeHistograms`] block, all in storage allocated once at
/// construction.
///
/// The blocks live in *wave-slot* order — slot `s` belongs to the node at
/// `tree.bottom_up()[s]`, and nodes outside the routing tree (dead or
/// orphaned) are packed after the tree nodes in ascending id order — so
/// the wave engines touch the blocks in their iteration order instead of
/// scattering over node ids. In front of the blocks sits a hot cache of one
/// [`HistDelta`] cell per `(slot, HistKind)`, slot-major, through which
/// every sample is recorded — except those of lossless broadcasts, which a
/// [`BroadcastTally`] counts once per wave.
#[derive(Debug, Clone)]
struct Hists {
    blocks: NodeHistograms,
    hot: Vec<HistDelta>,
    /// Node id → storage slot; re-derived (with a matching permutation of
    /// the blocks) whenever the routing tree is replaced.
    slot: Vec<u32>,
    /// Broadcasts over the current routing tree whose samples are not yet
    /// in the blocks.
    tally: BroadcastTally,
}

/// One cell of the histogram hot cache: two runs of pending samples not yet
/// applied to the node's 216-byte [`NodeHistograms`] block, most recent
/// first — `repeat` samples of `value`, then `older_repeat` samples of
/// `older`. A run of length 0 is empty.
///
/// Wave traffic records the *same* value per (node, kind) almost every wave
/// — hop depth and fan-in are topology constants, retries are 0 on a
/// perfect channel — so coalescing runs here shrinks the engines' per-wave
/// histogram traffic from a search of the node's block to one 16-byte cell
/// (the node's four cells share a cache line). The second run catches two
/// alternating values, such as the frame sizes of a protocol's validation
/// and refinement convergecasts in a node's `MsgBits` cell: a value that
/// matches neither run flushes the older one and takes the front. Values
/// and run lengths are `u32`, which keeps the cell at 16 bytes: a value
/// above `u32::MAX` goes straight to the block, and a run about to pass
/// `u32::MAX` flushes first.
///
/// Deferral is exact: histogram counters are plain integers, `sum`
/// saturates and `max` is a max, so applying runs later, and in any order
/// via [`NodeHistograms::record_n`], yields the state eager recording
/// would.
#[derive(Debug, Clone, Copy, Default)]
struct HistDelta {
    value: u32,
    repeat: u32,
    older: u32,
    older_repeat: u32,
}

impl Hists {
    fn new(tree: &RoutingTree, n: usize) -> Self {
        Hists {
            blocks: NodeHistograms::new(n),
            hot: vec![HistDelta::default(); n * HistKind::COUNT],
            slot: Hists::slots(tree, n),
            tally: BroadcastTally::default(),
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

    /// Records one sample: extends the cell's front run when the value
    /// repeats it (an empty run of the same value included), otherwise
    /// [`Hists::record_miss`].
    #[inline(always)]
    fn record(&mut self, slot: usize, kind: HistKind, value: u64) {
        let at = slot * HistKind::COUNT + kind.index();
        match u32::try_from(value) {
            Ok(v) if self.hot[at].value == v && self.hot[at].repeat < u32::MAX => {
                self.hot[at].repeat += 1;
            }
            Ok(v) => self.record_miss(slot, kind, at, v),
            Err(_) => self.blocks.record_n(slot, kind, value, 1),
        }
    }

    /// Records a sample that does not extend cell `at`'s front run. A full
    /// front run of the value is flushed and restarted. Otherwise the old
    /// front run moves behind a front run of the value: the older run
    /// extended, when it holds the value (flushed first if full), else a
    /// new one, the older run flushed.
    fn record_miss(&mut self, slot: usize, kind: HistKind, at: usize, v: u32) {
        let blocks = &mut self.blocks;
        let mut flush = |value: u32, n: u32| blocks.record_n(slot, kind, value.into(), n.into());
        let cell = &mut self.hot[at];
        if cell.value == v {
            flush(v, cell.repeat);
            cell.repeat = 1;
            return;
        }
        let mut repeat = 0;
        if cell.older == v {
            repeat = cell.older_repeat;
        } else {
            flush(cell.older, cell.older_repeat);
        }
        if repeat == u32::MAX {
            flush(v, repeat);
            repeat = 0;
        }
        *cell = HistDelta {
            value: v,
            repeat: repeat + 1,
            older: cell.value,
            older_repeat: cell.repeat,
        };
    }

    /// The `MsgBits` samples of one delivered payload framed as `framing`
    /// ([`Framing::msg_bits`]).
    #[inline(always)]
    fn frames(&mut self, slot: usize, sizes: &MessageSizes, framing: Framing) {
        framing.msg_bits(sizes, |value, times| {
            for _ in 0..times {
                self.record(slot, HistKind::MsgBits, value);
            }
        });
    }

    /// Counts one lossless broadcast over `tree` in the tally instead of
    /// recording each transmitter's samples. A tally full of other
    /// framings is folded into the blocks first.
    fn tally_broadcast(&mut self, tree: &RoutingTree, sizes: &MessageSizes, framing: Framing) {
        if !self.tally.add(framing) {
            self.fold_tally(tree, sizes);
            self.tally.add(framing);
        }
    }

    /// Applies the tally, kept over `tree`, to the blocks and clears it.
    fn fold_tally(&mut self, tree: &RoutingTree, sizes: &MessageSizes) {
        self.tally.samples(tree, sizes, |slot, kind, value, times| {
            self.blocks.record_n(slot, kind, value, times)
        });
        self.tally = BroadcastTally::default();
    }

    /// The id-ordered view (index `i` = node `i`), with the pending runs
    /// and the tally over the current `tree` folded in; the live cells and
    /// the tally stay put.
    fn snapshot(&self, tree: &RoutingTree, sizes: &MessageSizes) -> NodeHistograms {
        let mut out = self.blocks.clone();
        for (i, cell) in self.hot.iter().enumerate() {
            let kind = HistKind::ALL[i % HistKind::COUNT];
            for (value, repeat) in cell.runs() {
                out.record_n(i / HistKind::COUNT, kind, value, repeat);
            }
        }
        self.tally.samples(tree, sizes, |slot, kind, value, times| {
            out.record_n(slot, kind, value, times)
        });
        out.reindex(|id| self.slot[id] as usize);
        out
    }

    /// Network-wide totals, folded straight from the slot-ordered blocks,
    /// the pending runs and the tally over the current `tree`: no
    /// id-ordered copy. Exact — counts and `max` are plain integers and
    /// `sum` saturates, so no grouping or order of the samples changes the
    /// totals.
    fn total(&self, tree: &RoutingTree, sizes: &MessageSizes) -> HistogramSet {
        let mut out = self.blocks.total();
        for (i, cell) in self.hot.iter().enumerate() {
            for (value, repeat) in cell.runs() {
                out.record_n(HistKind::ALL[i % HistKind::COUNT], value, repeat);
            }
        }
        self.tally.samples(tree, sizes, |_, kind, value, times| {
            out.record_n(kind, value, times)
        });
        out
    }

    /// Re-slots the storage from the outgoing routing tree `old` to `tree`
    /// so every node keeps its own history: each node's block and hot
    /// cells, pending runs included, move to its new slot. The tally is
    /// folded first: it is kept over `old`.
    fn reslot(&mut self, old: &RoutingTree, tree: &RoutingTree, sizes: &MessageSizes) {
        self.fold_tally(old, sizes);
        let n = self.slot.len();
        let old = std::mem::replace(&mut self.slot, Hists::slots(tree, n));
        let mut id_of_slot = vec![0u32; n];
        for (id, &s) in self.slot.iter().enumerate() {
            id_of_slot[s as usize] = id as u32;
        }
        let from = |s: usize| old[id_of_slot[s] as usize] as usize;
        self.blocks.reindex(from);
        let (cells, _) = self.hot.as_chunks_mut::<{ HistKind::COUNT }>();
        permute_in_place(cells, from);
    }
}

impl HistDelta {
    /// Both runs as `(value, samples)`; an empty run has 0 samples.
    fn runs(&self) -> [(u64, u64); 2] {
        [
            (self.value.into(), self.repeat.into()),
            (self.older.into(), self.older_repeat.into()),
        ]
    }
}

/// How one transmission of a payload is framed: solo, by
/// [`MessageSizes::fragment`] of its `payload_bits`, or as a shared frame's
/// marginal `(fragments, bits)` (see [`SharedWave`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    Solo(u64),
    Shared(u64, u64),
}

impl Default for Framing {
    fn default() -> Self {
        Framing::Solo(0)
    }
}

impl Framing {
    /// How one transmission of `payload_bits` is framed: as the marginal
    /// frames of an open shared-frame window whose accumulator is `accum`
    /// (advancing it), when given; solo otherwise.
    #[inline(always)]
    fn of(payload_bits: u64, accum: Option<&mut u64>, sizes: &MessageSizes) -> Framing {
        match accum {
            Some(accum) => {
                let (fragments, bits) = SharedWave::frame(accum, payload_bits, sizes);
                Framing::Shared(fragments, bits)
            }
            None => Framing::Solo(payload_bits),
        }
    }

    /// The `(fragments, bits)` on air.
    #[inline(always)]
    fn frames(self, sizes: &MessageSizes) -> (u64, u64) {
        match self {
            Framing::Solo(payload_bits) => sizes.fragment(payload_bits),
            Framing::Shared(fragments, bits) => (fragments, bits),
        }
    }

    /// Calls `run(value, times)` with the `MsgBits` samples of one
    /// transmission, one per frame: solo frames at their exact fragment
    /// sizes; a shared frame's marginal `(fragments, bits)` as that many
    /// samples of the average size, which keeps the `MsgBits` count equal
    /// to the message count.
    #[inline(always)]
    fn msg_bits(self, sizes: &MessageSizes, mut run: impl FnMut(u64, u64)) {
        match self {
            Framing::Solo(payload_bits) => {
                for frag_bits in sizes.fragment_bits(payload_bits) {
                    run(frag_bits, 1);
                }
            }
            Framing::Shared(fragments, bits) => {
                if let Some(average) = bits.checked_div(fragments) {
                    run(average, fragments);
                }
            }
        }
    }
}

/// Most distinct framings a [`BroadcastTally`] holds. Protocols broadcast
/// a handful of sizes (a value, a refinement request, a filter pair), and
/// shared frames add a few marginal framings of each, so the tally is
/// folded on overflow only by a protocol that keeps sending new sizes, and
/// it never grows.
const TALLY_SIZES: usize = 8;

/// The telemetry of the lossless broadcasts sent over one routing tree:
/// `waves` broadcasts of each distinct [`Framing`], in first-sent order.
///
/// Such a wave reaches every tree node, so every tree node with children
/// transmits the same frames and records its own depth: the tree and the
/// counts determine every sample, and [`BroadcastTally::samples`] replays
/// them. Folding them in later, in bulk, is exact for the same reason as a
/// [`HistDelta`] run: counters are plain integers, `sum` saturates (which is
/// associative over unsigned samples) and `max` is a max. The tally must be
/// folded before the tree changes, as [`Hists::reslot`] does.
#[derive(Debug, Clone, Copy, Default)]
struct BroadcastTally {
    framings: [(Framing, u64); TALLY_SIZES],
    len: usize,
}

impl BroadcastTally {
    /// Counts one wave framed as `framing`; `false` when the tally is full
    /// of other framings.
    #[inline]
    fn add(&mut self, framing: Framing) -> bool {
        let live = &mut self.framings[..self.len];
        if let Some((_, waves)) = live.iter_mut().find(|(f, _)| *f == framing) {
            *waves += 1;
        } else if self.len < TALLY_SIZES {
            self.framings[self.len] = (framing, 1);
            self.len += 1;
        } else {
            return false;
        }
        true
    }

    /// Calls `sample(slot, kind, value, times)` with every sample the
    /// tallied waves would have recorded over `tree`: per transmitter,
    /// `waves` of each frame of each framing under `MsgBits` and one per
    /// wave of its depth under `HopDepth` — exactly the broadcast loop's
    /// transmitters when nothing is lost.
    fn samples(
        &self,
        tree: &RoutingTree,
        sizes: &MessageSizes,
        mut sample: impl FnMut(usize, HistKind, u64, u64),
    ) {
        let tallied = &self.framings[..self.len];
        if tallied.is_empty() {
            return;
        }
        let all: u64 = tallied.iter().map(|&(_, waves)| waves).sum();
        for (slot, &u) in tree.bottom_up().iter().enumerate() {
            if tree.is_leaf(u) {
                continue;
            }
            for &(framing, waves) in tallied {
                framing.msg_bits(sizes, |value, times| {
                    sample(slot, HistKind::MsgBits, value, times * waves)
                });
            }
            sample(slot, HistKind::HopDepth, tree.depth(u) as u64, all);
        }
    }
}

/// What one lossless broadcast of a given framing charges over a routing
/// tree, which is the same for every such wave over that tree. The paper's
/// radio model (§5.1.4) has one transmission reach all of a node's
/// children and every child pay the same reception, so with nothing lost
/// every tree node receives, every tree node with children transmits once,
/// and the tree and the wave's framing fix every charge.
///
/// Built on the first lossless wave after a tree change and marked stale
/// by [`Network::install_tree`] (its storage is kept); it costs three bits
/// per node. [`BroadcastPlan::charge`] books a wave from it in one pass.
#[derive(Debug, Clone, Default)]
struct BroadcastPlan {
    /// Whether the masks describe the current routing tree.
    current: bool,
    /// The tree's nodes: a lossless wave's reception mask.
    members: NodeBits,
    /// Members that receive: all but the root.
    receivers: NodeBits,
    /// Members that transmit: those with children.
    transmitters: NodeBits,
    transmitter_count: u64,
    receiver_count: u64,
}

impl BroadcastPlan {
    /// Rebuilds the plan for `tree` over `n` nodes, unless it is current.
    fn refresh(&mut self, tree: &RoutingTree, n: usize) {
        if self.current {
            return;
        }
        let order = tree.bottom_up();
        self.members.reset(n);
        self.receivers.reset(n);
        self.transmitters.reset(n);
        let mut transmitters = 0;
        for &u in order {
            self.members.set(u.index());
            if tree.parent(u).is_some() {
                self.receivers.set(u.index());
            }
            if !tree.is_leaf(u) {
                self.transmitters.set(u.index());
                transmitters += 1;
            }
        }
        self.transmitter_count = transmitters;
        self.receiver_count = order.len() as u64 - 1;
        self.current = true;
    }

    /// Books one wave over `tree` (the plan's tree) of `(fragments, bits)`
    /// per transmission, as the per-child loop would: every receiver
    /// receives `bits` and every transmitter sends them, in one pass over
    /// the ledger; the traffic, phase and lane books take the wave's
    /// [`wave_tally`] in one addition each; and the audit log records the
    /// wave ([`AuditLog::record_wave`]). A wave with no transmitter books
    /// nothing.
    fn charge(
        &self,
        books: &mut Books,
        tree: &RoutingTree,
        phase: Phase,
        (fragments, bits): (u64, u64),
    ) {
        if self.transmitter_count == 0 {
            return;
        }
        books
            .ledger
            .charge_broadcast(&self.receivers, &self.transmitters, bits);
        let (t, r) = (self.transmitter_count, self.receiver_count);
        books.count(phase, wave_tally(fragments, bits, t, r));
        books.audit.record_wave(tree, phase, fragments, bits);
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
///
/// Downward, one broadcast transmission reaches all of a node's children,
/// and a lossless broadcast reaches every tree node, so every node with
/// children transmits it. A tree change ends the window
/// ([`Network::install_tree`] resets the accumulators), so within one every
/// transmitter has framed the same bits, `down`, and a wave's marginal
/// framing is one per wave. Every `World`-driven run changes trees only
/// between rounds, where the window has ended anyway.
#[derive(Debug, Clone, Default)]
struct SharedWave {
    enabled: bool,
    /// Payload bits already framed this window per transmitter, upward
    /// (convergecast sends to the parent; one parent per node).
    up: Vec<u64>,
    /// Payload bits every transmitter of the current tree has framed
    /// downward this window; no other node has.
    down: u64,
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

    /// Ends the window: clears the accumulators (keeps the upward
    /// capacity).
    fn reset(&mut self) {
        self.up.iter_mut().for_each(|b| *b = 0);
        self.down = 0;
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
        let prices = model.prices(topo.radio_range());
        let mut lanes = LaneBook::new(prices);
        // Pre-size lane 0 so default (single-lane) runs never allocate on
        // the warm path.
        lanes.reserve(0);
        let books = Books {
            ledger: EnergyLedger::new(n, prices),
            stats: TrafficStats::default(),
            phases: PhaseBreakdown::new(prices),
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
            books,
            scratch: ScratchPool::default(),
            recorder: Recorder::default(),
            round_start: SpanStart::default(),
            phase_start: SpanStart::default(),
            fanin: Vec::new(),
            stranded: Vec::new(),
            bcast_recv: NodeBits::new(),
            broadcast_plan: BroadcastPlan::default(),
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
    /// round share 802.15.4 frames per link, so each extra payload pays
    /// only its marginal frames. Applies to lossless wave traffic only;
    /// accumulators reset at every [`Network::end_round`] and tree change.
    /// Off by default — the disabled path is byte-identical to releases
    /// without this feature.
    pub fn set_shared_frames(&mut self, on: bool) {
        self.share.enabled = on;
        if on {
            self.share.up.resize(self.len(), 0);
        }
        self.share.reset();
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
    /// inline counters on the hot path, lossless broadcasts tallied once
    /// per wave; no allocation). Internally the compact blocks live in
    /// wave-slot order for locality; this assembles an id-ordered copy
    /// (index `i` = node `i`, 216 bytes per node) with the tally replayed
    /// over the current tree, so call it per run, not per round.
    pub fn histograms(&self) -> NodeHistograms {
        self.books.hists.snapshot(&self.tree, &self.sizes)
    }

    /// Network-wide totals of the per-node telemetry histograms: exactly
    /// `histograms().total()`, folded without the id-ordered copy.
    pub fn histogram_totals(&self) -> HistogramSet {
        self.books.hists.total(&self.tree, &self.sizes)
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
    /// storage so every node keeps its own history, marking the broadcast
    /// plan and the audit's shape stale, ending the shared-frame window
    /// (the links it framed may be gone) and updating the orphan count.
    /// Shared by failure-driven repairs ([`Network::fail_round`]) and
    /// dynamics-driven rebuilds ([`Network::dynamics_rebuild`]); charges
    /// nothing.
    fn install_tree(&mut self, tree: RoutingTree, orphans: usize) {
        self.books.hists.reslot(&self.tree, &tree, &self.sizes);
        self.broadcast_plan.current = false;
        self.books.audit.tree_changed();
        self.share.reset();
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
    /// counter-sized control message, in wave order, booked as a lossless
    /// convergecast's senders are. Beacons are control traffic on a
    /// freshly negotiated link, so they bypass the loss model (the fate
    /// stream is untouched); they do count as ordinary data messages in
    /// traffic stats, histograms and the audit log, which is what lets the
    /// auditor reconcile rebuild bits exactly.
    ///
    /// Returns the number of orphaned (alive but disconnected) sensors.
    ///
    /// # Panics
    /// Panics if `topo` disagrees with the node universe size or the radio
    /// range, which fixes the ledger's transmit price.
    pub fn dynamics_rebuild(&mut self, topo: Option<Topology>) -> usize {
        if let Some(t) = topo {
            assert_eq!(
                t.len(),
                self.len(),
                "dynamics cannot resize the node universe"
            );
            assert_eq!(
                t.radio_range(),
                self.topo.radio_range(),
                "dynamics cannot change the radio range"
            );
            self.topo = t;
        }
        let (tree, orphans) = RoutingTree::spanning_alive(&self.topo, &self.alive);
        self.install_tree(tree, orphans.len());
        self.books.rel.rebuilds += 1;

        // Beacon wave over the new tree, a lossless convergecast in which
        // every node but the root sends.
        let beacon = Framing::Solo(self.sizes.counter_bits);
        let Network {
            tree, books, sizes, ..
        } = self;
        let mut tally = ConvergecastTally::default();
        books.audit.open_convergecast(tree, Phase::Rebuild);
        for (s, &u) in tree.bottom_up().iter().enumerate() {
            if let Some(parent) = tree.parent(u) {
                books.charge_sender(&mut tally, sizes, (u, s, parent), beacon, 0);
            }
        }
        books.charge_convergecast(Phase::Rebuild, tally);
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
            arq: self.reliability.max_retries,
        }
    }

    /// Marks the end of a protocol round in the ledger. When auditing, the
    /// audit log then folds the round's events into its own books and
    /// reconciles them with the ledger's per-node bit totals at this boundary,
    /// so every round is checked, not just the final totals. With
    /// telemetry on, closes the round's phase and round spans and opens
    /// the next round's.
    pub fn end_round(&mut self) {
        let round = self.books.audit.round();
        if self.share.enabled {
            self.share.reset();
        }
        if self.duty_milli > 0 {
            // Idle listening: each live sensor pays for `duty_milli`
            // received bits, the rx-priced cost of keeping its radio awake
            // for `duty_milli`‰ of the round, in ascending node-id order.
            // Nothing is on the air, so the kind's tally leaves traffic
            // stats untouched and no histogram records it.
            let bits = self.duty_milli as u64;
            for i in 1..self.alive.len() {
                if self.alive[i] {
                    let id = NodeId(i as u32);
                    self.books
                        .charge(Phase::Other, TxKind::Idle, id, id, 0, bits);
                }
            }
        }
        let books = &mut self.books;
        books.ledger.end_round();
        books.audit.end_round(
            books.ledger.tx_bits_per_node(),
            books.ledger.rx_bits_per_node(),
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
    ///
    /// A by-value front to [`Network::convergecast_in`] over a pooled
    /// [`WaveStore`]: payloads that own heap storage are better sent
    /// through a store of the caller's, which keeps that storage.
    pub fn convergecast<T: Aggregate + Send + 'static>(
        &mut self,
        mut local: impl FnMut(NodeId) -> Option<T>,
    ) -> Option<T> {
        let mut store = self.scratch.take::<T>();
        let own = |u, slot: &mut Option<T>| match local(u) {
            Some(payload) => {
                *slot = Some(payload);
                true
            }
            None => false,
        };
        self.wave(&mut store, own, |_, _| {}, false);
        let result = store.take_result();
        self.scratch.put(store);
        result
    }

    /// Runs a convergecast over `store`'s payload storage and returns the
    /// aggregate that reaches the root (kept in the store), or `None` if
    /// every node stayed silent.
    ///
    /// `local(u, slot)` writes sensor `u`'s own contribution into `slot` and
    /// returns `true`, or returns `false` to stay silent. `slot` holds
    /// either nothing or a spent payload from an earlier wave, which the
    /// contribution overwrites in place (keeping its storage) — so whatever
    /// `slot` held must not show in what `local` writes.
    ///
    /// Every sending node may prune or transform the merged payload before
    /// forwarding it: `prune` receives the node id and the payload about to
    /// be sent — or, at the root, the final payload. Pruning at the root is
    /// deliberate: the root applies the same logic (e.g. keeping the `f`
    /// largest values) when consuming the data.
    pub fn convergecast_in<'s, T: Aggregate>(
        &mut self,
        store: &'s mut WaveStore<T>,
        local: impl FnMut(NodeId, &mut Option<T>) -> bool,
        prune: impl FnMut(NodeId, &mut T),
    ) -> Option<&'s mut T> {
        self.wave(store, local, prune, false);
        store.result()
    }

    /// [`Network::convergecast_in`] for a re-issued wave: its aggregate
    /// merges into the store's standing result (as `result.merge(late)`),
    /// which it returns, instead of replacing it — so the late
    /// contributions of dropped subtrees join what earlier waves collected.
    pub fn convergecast_late<'s, T: Aggregate>(
        &mut self,
        store: &'s mut WaveStore<T>,
        local: impl FnMut(NodeId, &mut Option<T>) -> bool,
    ) -> Option<&'s mut T> {
        self.wave(store, local, |_, _| {}, true);
        store.result()
    }

    /// The one convergecast engine behind every entry point; see
    /// [`Network::convergecast_in`]. With `late`, the wave's aggregate
    /// merges into `store`'s standing result instead of replacing it.
    fn wave<T: Aggregate>(
        &mut self,
        store: &mut WaveStore<T>,
        mut local: impl FnMut(NodeId, &mut Option<T>) -> bool,
        mut prune: impl FnMut(NodeId, &mut T),
        late: bool,
    ) {
        let wire = self.wire();
        self.books.stats.convergecasts += 1;
        self.wave.clear();
        let tsize = self.tree.tree_size();

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
            stranded,
            recorder,
            ..
        } = self;
        let phase = *phase;
        let wave_span = recorder.start();
        let round = books.audit.round();
        fanin.clear();
        fanin.resize(tsize, 0);
        stranded.clear();
        store.slots.resize_with(tsize, || None);
        let WaveStore { slots, spare, .. } = store;

        let order = tree.bottom_up();
        let parent_slot = tree.parent_slots();
        let level_offsets = tree.level_offsets();
        // A lossless wave books each sender's ledger entries, samples and
        // audit entry as it sends, and the rest once, after the loop. Shared
        // frames apply to lossless waves only (per-fragment loss draws must
        // see the solo fragment stream).
        let lossless = loss.is_none();
        let sharing = share.enabled && lossless;
        let mut tally = ConvergecastTally::default();
        if lossless {
            books.audit.open_convergecast(tree, phase);
        }

        // Level-batched waves over the struct-of-arrays order: each run of
        // `bottom_up` is one tree level (deepest first, children before
        // parents), so by the time a run starts, every slot in it already
        // holds the merged payloads of its children (`fanin` of them),
        // written by the previous (denser) run. Depth is constant per run;
        // payload slots, fan-in and histograms are indexed by wave slot,
        // i.e. walked densely in exactly this order. The final run is the
        // root alone — its slot is collected after the loop.
        for lvl in 0..tree.levels().saturating_sub(1) {
            let start = level_offsets[lvl] as usize;
            let end = level_offsets[lvl + 1] as usize;
            let depth = tree.depth(order[start]) as u64;
            for pos in start..end {
                let u = order[pos];
                // The node's own contribution is written into the spare. It
                // merges into the children's payloads in the node's slot,
                // or, when none arrived, is sent from the spare itself: a
                // node's slot needs storage only once a child sends to it.
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
                let arrived = match loss {
                    None => {
                        let accum = sharing.then(|| &mut share.up[u.index()]);
                        let framing = Framing::of(bits, accum, &wire.sizes);
                        let link = (u, pos, parent);
                        books.charge_sender(&mut tally, &wire.sizes, link, framing, values);
                        true
                    }
                    Some(loss) => {
                        send_over_link(books, loss, &wire, phase, u, pos, parent, bits, values)
                    }
                };
                if arrived {
                    let live = fanin[pslot] > 0;
                    fanin[pslot] += 1;
                    fold(held, &mut above[0], live);
                } else if reliability.recovery_passes > 0 {
                    // The payload waits in its own slot (nothing writes
                    // there again this wave), the spare's storage trading
                    // places with whatever the slot held.
                    if !from_children {
                        std::mem::swap(&mut below[pos], spare);
                    }
                    stranded.push((u, pos as u32));
                } else {
                    wave.dropped_roots.push(u);
                }
            }
        }
        if lossless {
            books.charge_convergecast(phase, tally);
        }
        // The root is always the last wave slot (the only depth-0 node).
        let root = tsize - 1;
        let mut root_live = fanin[root] > 0;

        // Recovery passes: stranded payloads resume their climb towards the
        // root hop by hop, each hop a fresh (ARQ-protected) transmission
        // charged as reliability traffic, whatever phase stranded it.
        // Recovered payloads merge directly into the root's aggregate —
        // the intermediate nodes already forwarded their own wave upward.
        let recovery = Phase::Recovery;
        let mut pass = 0;
        while !stranded.is_empty() && pass < reliability.recovery_passes {
            let loss = loss.as_mut().expect("only a lossy link strands a payload");
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
                    let arrived =
                        send_over_link(books, loss, &wire, recovery, at, hop, parent, bits, values);
                    if !arrived {
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

        recorder.end("convergecast", round, wave_span);

        // The root applies its prune exactly once, after recovery merged in
        // the late arrivals (it applies the same logic when consuming the
        // data, e.g. keeping the `f` largest values).
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
            // The root's slot keeps the previous result's spent storage.
            store.has_result = root_live;
            if root_live {
                std::mem::swap(&mut store.result, &mut store.slots[root]);
            }
        }
    }

    /// Floods a payload of `payload_bits` bits from the root down the
    /// routing tree. Returns the set of nodes that actually received it:
    /// every tree node without loss (dead and orphaned nodes are outside
    /// the tree and never receive), possibly fewer with loss enabled.
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
    ///
    /// A lossless wave is booked in bulk from the tree's broadcast plan
    /// (built on the first lossless wave after a tree change), audited or
    /// not, solo-framed or in shared frames: the reception mask is the
    /// plan's member mask, the ledger is charged in one pass over the
    /// nodes, the audit log records the wave once, and every book ends
    /// where the per-child loop would leave it. Lossy waves run
    /// that loop, solo-framed, since loss draws per child.
    pub fn broadcast_into(&mut self, payload_bits: u64, received: &mut NodeBits) {
        let wire = self.wire();
        let n = self.len();
        self.books.stats.broadcasts += 1;

        // Split field borrows, as in `wave`: traversal and
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
            broadcast_plan: plan,
            ..
        } = self;
        let phase = *phase;
        let wave_span = recorder.start();
        let round = books.audit.round();
        let order = tree.bottom_up();
        let Some(lossy) = loss.as_mut() else {
            // Every transmitter sends the same frames: the wave's framing
            // is one, its histogram samples are tallied once (see
            // `BroadcastTally`) and its charges booked from the plan.
            let accum = share.enabled.then_some(&mut share.down);
            let framing = Framing::of(payload_bits, accum, &wire.sizes);
            let frames = framing.frames(&wire.sizes);
            books.hists.tally_broadcast(tree, &wire.sizes, framing);
            plan.refresh(tree, n);
            plan.charge(books, tree, phase, frames);
            received.copy_from(&plan.members);
            recorder.end("broadcast", round, wave_span);
            return;
        };
        // Shared frames apply to lossless broadcasts only (per-fragment
        // loss draws must see the solo fragment stream).
        let framing = Framing::Solo(payload_bits);
        let (fragments, bits) = framing.frames(&wire.sizes);
        received.reset(n);
        received.set(NodeId::ROOT.index());
        // Walk the wave slots in reverse (parents before children, the
        // top-down order): histogram blocks and CSR child lists are then
        // visited in storage order.
        for pos in (0..order.len()).rev() {
            let u = order[pos];
            if !received.get(u.index()) || tree.is_leaf(u) {
                continue;
            }
            // One radio transmission reaches all children (§5.1.4: receivers
            // pay because the schedule tells them when to listen). Broadcast
            // frames are unacknowledged, as in 802.15.4; reliability comes
            // from the repair passes below.
            books.charge(phase, TxKind::BroadcastTx, u, u, fragments, bits);
            books.hists.frames(pos, &wire.sizes, framing);
            let depth = tree.depth(u) as u64;
            books.hists.record(pos, HistKind::HopDepth, depth);
            for &c in tree.children(u) {
                books.charge(phase, TxKind::BroadcastRx, u, c, fragments, bits);
                // Each 802.15.4 frame is lost independently and the child
                // needs every fragment. No short-circuit: every fragment
                // draws from the loss stream.
                if (0..fragments).fold(true, |ok, _| !lossy.lose() && ok) {
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
                    let arrived =
                        send_over_link(books, lossy, &wire, recovery, u, pos, c, payload_bits, 0);
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
        recorder.end("broadcast", round, wave_span);
    }
}

#[cfg(test)]
mod broadcast_reference;

#[cfg(test)]
mod convergecast_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{EnergyAuditor, PhaseCounters};
    use crate::geometry::Point;
    use wsn_obs::LogHistogram;

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
        let mut store = WaveStore::new();
        let agg = net
            .convergecast_in(
                &mut store,
                |id, slot| {
                    *slot = Some(SumVals {
                        sum: 0,
                        vals: vec![id.0 as i64; 10],
                    });
                    true
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
        // Every bit the ledger charged is attributed to some phase.
        let ledger = net.ledger();
        let sent: u64 = ledger.tx_bits_per_node().iter().sum();
        let received: u64 = ledger.rx_bits_per_node().iter().sum();
        assert_eq!(b.bits().iter().sum::<u64>(), sent);
        assert_eq!(b.rx_bits().iter().sum::<u64>(), received);
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

        let before = net.phases().joules()[Phase::Rebuild.index()];
        assert_eq!(before, 0.0, "no rebuild charged yet");
        let (records, events) = (net.audit_log().records(), net.audit_log().len());
        let orphans = net.dynamics_rebuild(None);
        assert_eq!(orphans, 0);
        assert_eq!(net.reliability_stats().rebuilds, 1);
        let rebuilt = net.phases().get(Phase::Rebuild);
        assert!(net.phases().joules()[Phase::Rebuild.index()] > 0.0);
        assert_eq!(rebuilt.bits, rebuilt.rx_bits, "beacons are unicasts");
        assert_eq!(rebuilt.messages, 4, "one beacon per non-root node");
        // The beacon wave is one convergecast record: a data event from
        // every non-root node to its parent, in wave order.
        assert_eq!(net.audit_log().records(), records + 1);
        let tree = net.tree();
        let beacons: Vec<_> = (tree.bottom_up().iter())
            .filter_map(|&u| Some((Phase::Rebuild, TxKind::Data, u, tree.parent(u)?)))
            .collect();
        let logged: Vec<_> = (net.audit_log().events().skip(events))
            .map(|e| (e.phase, e.kind, e.src, e.dst))
            .collect();
        assert_eq!(logged, beacons);

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
    fn a_tree_change_folds_pending_broadcast_telemetry_against_the_old_tree() {
        // Lossless broadcasts are tallied per tree, not recorded per
        // transmitter. Relay 2 (depth 2, parent of 3) then walks next to
        // the sink and becomes a leaf, and 3 re-parents to 4: relay 2 must
        // keep its earlier broadcast samples at its old depth and get none
        // as a leaf, whichever tree a read or a repair folds against.
        let world = |two: Point| {
            let points = [
                (0.0, 0.0),
                (10.0, 0.0),
                (two.x, two.y),
                (30.0, 0.0),
                (20.0, 6.0),
            ];
            Topology::build(
                points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
                12.0,
            )
        };
        let topo = world(Point::new(20.0, 0.0));
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        assert_eq!(net.tree().parent(NodeId(3)), Some(NodeId(2)));
        let header = net.sizes().header_bits;
        for bits in [16, 16, 16, 100, 100] {
            net.broadcast(bits);
        }
        let before = net.histograms();
        let pending = net.clone();
        let sample = |h: &NodeHistograms, id: usize, kind| *h.node(id).get(kind);
        let depth = sample(&before, 2, HistKind::HopDepth);
        assert_eq!((depth.count(), depth.sum(), depth.max()), (5, 2 * 5, 2));
        let frames = sample(&before, 2, HistKind::MsgBits);
        assert_eq!(frames.count(), 5);
        assert_eq!(frames.sum(), 3 * (16 + header) + 2 * (100 + header));
        assert_eq!(
            sample(&before, 4, HistKind::HopDepth).count(),
            0,
            "4 is a leaf"
        );

        net.dynamics_rebuild(Some(world(Point::new(0.0, 10.0))));
        assert!(net.tree().is_leaf(NodeId(2)) && net.tree().depth(NodeId(2)) == 1);
        assert_eq!(net.tree().parent(NodeId(3)), Some(NodeId(4)));
        let rebuilt = net.histograms();
        for id in 0..5 {
            let kinds = [HistKind::HopDepth, HistKind::FanIn];
            for kind in kinds {
                assert_eq!(sample(&rebuilt, id, kind), sample(&before, id, kind));
            }
        }
        // One beacon frame per non-root node, nothing else.
        let beacons = rebuilt.total().get(HistKind::MsgBits).count();
        assert_eq!(beacons, before.total().get(HistKind::MsgBits).count() + 4);

        for _ in 0..4 {
            net.broadcast(16);
        }
        net.set_failures(Some(FailureModel::new(1.0, 3)));
        let read = net.histograms();
        assert_eq!(net.fail_round(), 4, "a repair down to the sink alone");
        assert_eq!(
            net.histograms(),
            read,
            "a repair moves samples, never changes them"
        );
        assert_eq!(net.histogram_totals(), read.total());
        let depth = sample(&read, 2, HistKind::HopDepth);
        assert_eq!((depth.count(), depth.max()), (5, 2), "no samples as a leaf");
        let depth = sample(&read, 4, HistKind::HopDepth);
        assert_eq!(
            (depth.count(), depth.sum()),
            (4, 2 * 4),
            "4 relays at depth 2"
        );

        // The clone kept the tally pending and reads as before.
        assert_eq!(pending.histograms(), before);
        assert_eq!(pending.histogram_totals(), before.total());
    }

    #[test]
    fn histogram_totals_fold_the_slot_ordered_store_exactly() {
        // Random samples straight into the slot-ordered store, re-slotted
        // by rebuilds that move node 4 next to the sink and back, with one
        // slot drawing from a wide value range so its node spills past the
        // inline counters, and runs left pending in the hot cache: the fold
        // must equal the id-ordered copy's totals after every step.
        let mut net = line_network(6);
        let mut rng = crate::splitmix::SplitMix64::new(7);
        let line: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let mut moved = line.clone();
        moved[4] = Point::new(0.0, 10.0);
        let mut runs = false;
        for step in 0..600 {
            let slot = (rng.next_u64() % 6) as usize;
            let kind = HistKind::ALL[(rng.next_u64() % HistKind::COUNT as u64) as usize];
            let value = match slot {
                0 => rng.next_u64() % (1 << 30),
                _ => rng.next_u64() % 3,
            };
            net.books.hists.record(slot, kind, value);
            if step % 150 == 149 {
                let positions = if step % 300 == 149 { &moved } else { &line };
                net.dynamics_rebuild(Some(Topology::build(positions.clone(), 12.0)));
            }
            assert_eq!(
                net.histogram_totals(),
                net.histograms().total(),
                "step {step}"
            );
            runs |= net.books.hists.hot.iter().any(|c| c.repeat > 1);
        }
        // More than the 16 inline counters: that node spilled.
        let hists = net.histograms();
        let counters = |id: usize| -> usize {
            let set = hists.node(id);
            let kinds = HistKind::ALL.iter().map(|&k| set.get(k));
            kinds
                .map(|h| {
                    (0..LogHistogram::BUCKETS)
                        .filter(|&b| h.bucket_count(b) > 0)
                        .count()
                })
                .sum()
        };
        assert!((0..6).any(|id| counters(id) > 16), "a node spilled");
        assert!(runs, "runs of repeated samples were pending");
    }

    #[test]
    fn two_run_cells_read_as_eager_recording() {
        // Random per-(node, kind) streams through the two-run cells — two
        // and three alternating values, long bursts, values above
        // `u32::MAX` — and cells one sample short of full runs, re-slotted
        // between two trees now and then: the snapshot, the totals and each
        // re-slot must read as the same samples recorded eagerly by id.
        let sizes = MessageSizes::default();
        let points = |moved: bool| {
            let mut p: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
            if moved {
                p[4] = Point::new(0.0, 10.0);
            }
            RoutingTree::spanning_alive(&Topology::build(p, 12.0), &[true; 6]).0
        };
        // Moving node 4 next to the sink orphans node 5.
        let trees = [points(false), points(true)];
        let mut on = 0;
        let mut hists = Hists::new(&trees[on], 6);
        let mut eager = NodeHistograms::new(6);
        let mut rng = crate::splitmix::SplitMix64::new(23);
        let check = |hists: &Hists, eager: &NodeHistograms, tree: &RoutingTree, ctx: &str| {
            assert_eq!(hists.snapshot(tree, &sizes), *eager, "{ctx}");
            assert_eq!(hists.total(tree, &sizes), eager.total(), "{ctx}");
        };

        // Node 2's MsgBits cell holds a front run one short of full and a
        // full older run; node 3's FanIn cell an older run one short.
        let full = u32::MAX;
        let cells = [
            (2, HistKind::MsgBits, [7, full - 1, 9, full]),
            (3, HistKind::FanIn, [5, 3, 6, full - 1]),
        ];
        for (id, kind, [value, repeat, older, older_repeat]) in cells {
            let at = hists.slot[id] as usize * HistKind::COUNT + kind.index();
            hists.hot[at] = HistDelta {
                value,
                repeat,
                older,
                older_repeat,
            };
            eager.record_n(id, kind, value.into(), repeat.into());
            eager.record_n(id, kind, older.into(), older_repeat.into());
        }
        let edges = [
            (2, HistKind::MsgBits, [7, 7, 9, 7, 9, 9]),
            (3, HistKind::FanIn, [6, 6, 5, 6, 6, 4]),
        ];
        for (id, kind, values) in edges {
            for value in values {
                hists.record(hists.slot[id] as usize, kind, value);
                eager.record(id, kind, value);
                check(&hists, &eager, &trees[on], "full runs");
            }
        }

        let wide = u64::from(u32::MAX);
        let (mut front, mut older) = (false, false);
        for stream in 0..400 {
            let id = (rng.next_u64() % 6) as usize;
            let kind = HistKind::ALL[(rng.next_u64() % HistKind::COUNT as u64) as usize];
            let mut pick = || match rng.next_u64() % 4 {
                0 => rng.next_u64() % 3,
                1 => 100 + rng.next_u64() % 1_100,
                2 => wide - 1 + rng.next_u64() % 3,
                _ => rng.next_u64(),
            };
            let distinct = [pick(), pick(), pick()];
            let len = 1 + rng.next_u64() % 40;
            let values: Vec<u64> = match rng.next_u64() % 3 {
                0 => (0..len).map(|i| distinct[(i % 2) as usize]).collect(),
                1 => (0..len).map(|i| distinct[(i % 3) as usize]).collect(),
                _ => vec![distinct[0]; 200 + len as usize],
            };
            for value in values {
                hists.record(hists.slot[id] as usize, kind, value);
                eager.record(id, kind, value);
            }
            let ctx = format!("stream {stream}");
            check(&hists, &eager, &trees[on], &ctx);
            front |= hists.hot.iter().any(|c| c.repeat > 1);
            older |= hists.hot.iter().any(|c| c.older_repeat > 1);
            if stream % 25 == 24 {
                hists.reslot(&trees[on], &trees[1 - on], &sizes);
                on = 1 - on;
                check(&hists, &eager, &trees[on], &ctx);
            }
        }
        assert!(front && older, "both runs held pending repeats");
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
            let (a, b) = (plain.ledger(), telem.ledger());
            assert_eq!(a.tx_bits_per_node(), b.tx_bits_per_node());
            assert_eq!(a.rx_bits_per_node(), b.rx_bits_per_node());
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
    fn a_tree_change_ends_the_shared_frame_window() {
        // Within one round, a rebuild between two sends makes the second
        // pay full solo frames, upward and downward, as a new round would.
        let mut net = line_network(4);
        net.set_shared_frames(true);
        let sent = |net: &mut Network| {
            let before = net.stats().bits;
            net.convergecast(one_value);
            net.broadcast(64);
            net.stats().bits - before
        };
        let solo = sent(&mut net);
        assert!(sent(&mut net) < solo, "the open window shares frames");
        net.dynamics_rebuild(None);
        let after_rebuild = net.stats().bits;
        assert_eq!(sent(&mut net), solo, "a tree change ends the window");
        assert!(net.stats().bits > after_rebuild);
        net.set_failures(Some(FailureModel::new(1.0, 3)));
        assert!(net.fail_round() > 0);
        assert_eq!(sent(&mut net), 0, "only the sink is left");
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
        // Lanes partition the global breakdown exactly.
        let (phases, lanes) = (*net.phases(), book.breakdowns(0));
        for phase in Phase::ALL {
            let sum = |side: fn(&PhaseCounters) -> u64| -> u64 {
                lanes.iter().map(|b| side(b.get(phase))).sum()
            };
            let whole = phases.get(phase);
            assert_eq!(sum(|c| c.bits), whole.bits, "{}", phase.name());
            assert_eq!(sum(|c| c.rx_bits), whole.rx_bits, "{}", phase.name());
            assert_eq!(sum(|c| c.messages), whole.messages, "{}", phase.name());
        }
        // Lane 1 piggybacks on lane 0's frames, so it is strictly cheaper.
        assert!(
            book.get(1).get(Phase::Other).bits < book.get(0).get(Phase::Other).bits,
            "piggybacking lane must pay fewer bits"
        );
        // The audit-log replay reproduces the live book exactly.
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
        // and no bit on air, only received (listened) bits.
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

        // Traffic stats equal the sum over phases and the sum over lanes,
        // and the ledger's bits the phases' and the lanes' per side.
        let stats = *net.stats();
        let phases = net.phases();
        assert_eq!(phases.messages().iter().sum::<u64>(), stats.messages);
        assert_eq!(phases.bits().iter().sum::<u64>(), stats.bits);
        let book = net.lane_book();
        assert_eq!(book.len(), 2);
        let lanes = book.breakdowns(0);
        let lane_total = |counts: fn(&PhaseBreakdown) -> [u64; Phase::COUNT]| -> u64 {
            lanes.iter().flat_map(counts).sum()
        };
        assert_eq!(lane_total(PhaseBreakdown::messages), stats.messages);
        assert_eq!(lane_total(PhaseBreakdown::bits), stats.bits);
        let ledger = net.ledger();
        let received: u64 = ledger.rx_bits_per_node().iter().sum();
        assert_eq!(ledger.tx_bits_per_node().iter().sum::<u64>(), stats.bits);
        assert_eq!(lane_total(PhaseBreakdown::rx_bits), received);
        assert_eq!(phases.rx_bits().iter().sum::<u64>(), received);
        // Independently of the booking rule, every data frame on air — and
        // nothing else — is one `MsgBits` sample.
        let msg_bits = net.histograms().total();
        assert_eq!(msg_bits.get(HistKind::MsgBits).count(), stats.messages);
        // The live lane book is the audit log's own, and the log
        // reproduced every charge from its 16-byte records.
        let replayed = crate::audit::lane_breakdowns(net.audit_log(), book.len());
        assert_eq!(replayed, lanes);
        assert_eq!(net.audit_log().escaped(), 0);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }
}
