//! The network's long-lived state must cost a bounded number of heap bytes
//! per unit it stores, measured with a live-byte counting global
//! allocator.
//!
//! * **The audit.** An audited network keeps at most one 16-byte record
//!   per transmission event: two identical 32×32 grid networks run the
//!   same 40 protocol-shaped rounds, one audited and one not, and the
//!   audited one may hold at most 40 extra bytes per event (a doubling
//!   `Vec` of 16-byte records stays below 32).
//! * **The audit of convergecast waves.** A lossless convergecast wave is
//!   one 16-byte record, a bit per wave slot and a 4-byte column entry per
//!   sender: over 40 rounds of one full collection each, every sensor
//!   sending, as TAG's are, the audited grid may hold at most 8 extra bytes
//!   per event, where one 16-byte record per event would hold 16 or more.
//! * **The audit's round boundaries.** A boundary keeps its record count,
//!   not the ledger: an audited 32×32 grid that closes 200 rounds without
//!   traffic may grow by at most 64 bytes per boundary, where a copy of the
//!   ledger's two per-node totals would take 16,384.
//! * **The audit of broadcast waves.** A lossless broadcast wave is one
//!   16-byte record however many transmissions and receptions it holds:
//!   over 40 rounds of one convergecast and eight broadcasts in shared
//!   frames, the audited grid may hold at most 6 extra bytes per event,
//!   where one record per event would hold 16 or more.
//! * **The topology.** A `Topology` holds `O(n)` bytes at any density: the
//!   32×32 grid at ρ = 40 (69.5 neighbours per node on average) may hold at
//!   most 1.1× the bytes it holds at ρ = 12 (7.6).
//! * **The network.** The plain (unaudited) 32×32 grid network, after the
//!   same 40 rounds, may hold at most 512 bytes per node, of which its
//!   compact per-node histogram block takes 216.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsn_net::{
    Aggregate, MessageSizes, Network, NodeBits, Point, RadioModel, RoutingTree, Topology,
};

/// Wraps the system allocator and tracks live heap bytes **per thread**
/// (a realloc counts its size change), so the gate sees only the networks
/// built on this test's thread.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: a thread allocating during its own TLS teardown must
    // not panic inside the allocator.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the byte counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// A Copy payload: per-subtree contribution count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Count(u64);

impl Aggregate for Count {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits
    }
}

fn grid_positions(side: usize) -> Vec<Point> {
    (0..side * side)
        .map(|i| Point::new((i % side) as f64 * 8.0, (i / side) as f64 * 8.0))
        .collect()
}

fn grid_network(side: usize) -> Network {
    let topo = Topology::build(grid_positions(side), 12.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

/// One protocol-shaped round: refill the contribution slots in place, run
/// a convergecast over them, answer with two broadcasts, close the round.
fn round(net: &mut Network, slots: &mut [Option<Count>], mask: &mut NodeBits) {
    for s in slots.iter_mut().skip(1) {
        *s = Some(Count(1));
    }
    net.convergecast(|u| slots[u.index()].take());
    net.broadcast_into(64, mask);
    net.broadcast(64);
    net.end_round();
}

/// A broadcast-heavy service round: one convergecast and eight
/// broadcasts of four sizes, all in one round, closed once.
fn broadcast_round(net: &mut Network, slots: &mut [Option<Count>], mask: &mut NodeBits) {
    for s in slots.iter_mut().skip(1) {
        *s = Some(Count(1));
    }
    net.convergecast(|u| slots[u.index()].take());
    for b in 0..8 {
        net.broadcast_into(32 + 48 * (b % 4), mask);
    }
    net.end_round();
}

/// A full collection round: every sensor contributes to one convergecast,
/// as in TAG's rounds; then the round closes.
fn collection_round(net: &mut Network, slots: &mut [Option<Count>], _: &mut NodeBits) {
    for s in slots.iter_mut().skip(1) {
        *s = Some(Count(1));
    }
    net.convergecast(|u| slots[u.index()].take());
    net.end_round();
}

type Round = fn(&mut Network, &mut [Option<Count>], &mut NodeBits);

/// Builds a 32×32 grid network, runs 40 `round`s (`shared`: in shared
/// frames) and returns it with the live bytes the whole run left behind.
fn run(audit: bool, shared: bool, round: Round) -> (Network, i64) {
    let before = live_bytes();
    let mut net = grid_network(32);
    net.set_audit(audit);
    net.set_shared_frames(shared);
    let mut slots: Vec<Option<Count>> = vec![None; net.len()];
    let mut mask = NodeBits::new();
    for _ in 0..40 {
        round(&mut net, &mut slots, &mut mask);
    }
    drop((slots, mask));
    let bytes = live_bytes() - before;
    (net, bytes)
}

#[test]
fn the_audit_keeps_at_most_40_bytes_per_event() {
    let (_plain, plain_bytes) = run(false, false, round);
    let (audited, audited_bytes) = run(true, false, round);
    let events = audited.audit_log().len();
    assert!(
        events > 100_000,
        "40 rounds of 1023 sensors: {events} events"
    );
    let per_event = (audited_bytes - plain_bytes) as f64 / events as f64;
    eprintln!("audit: {events} events, {per_event:.1} extra heap bytes per event");
    assert!(
        per_event <= 40.0,
        "the audit holds {per_event:.1} bytes per event over {events} events"
    );
}

#[test]
fn the_audit_keeps_a_broadcast_wave_in_one_record() {
    let (_plain, plain_bytes) = run(false, true, broadcast_round);
    let (audited, audited_bytes) = run(true, true, broadcast_round);
    let events = audited.audit_log().len();
    assert!(
        events > 400_000,
        "40 rounds of nine waves over 1023 sensors: {events} events"
    );
    let per_event = (audited_bytes - plain_bytes) as f64 / events as f64;
    eprintln!(
        "audit of broadcast rounds: {events} events, {per_event:.2} extra heap bytes per event"
    );
    assert!(
        per_event <= 6.0,
        "the audit holds {per_event:.2} bytes per event over {events} events"
    );
}

#[test]
fn the_audit_keeps_a_convergecast_wave_in_a_column() {
    let (_plain, plain_bytes) = run(false, false, collection_round);
    let (audited, audited_bytes) = run(true, false, collection_round);
    let events = audited.audit_log().len();
    assert_eq!(events, 40 * 1023, "every sensor sends once a round");
    let per_event = (audited_bytes - plain_bytes) as f64 / events as f64;
    eprintln!("audit of collections: {events} events, {per_event:.2} extra heap bytes per event");
    assert!(
        per_event <= 8.0,
        "the audit holds {per_event:.2} bytes per event over {events} events"
    );
}

#[test]
fn a_network_holds_at_most_512_bytes_per_node() {
    let (net, bytes) = run(false, false, round);
    let per_node = bytes as f64 / net.len() as f64;
    eprintln!("network: {per_node:.1} heap bytes per node after 40 rounds");
    assert!(
        per_node <= 512.0,
        "the 32x32 grid network holds {per_node:.1} bytes per node"
    );
}

#[test]
fn a_round_boundary_keeps_at_most_64_bytes() {
    let mut net = grid_network(32);
    net.set_audit(true);
    let before = live_bytes();
    for _ in 0..200 {
        net.end_round();
    }
    let per_boundary = (live_bytes() - before) as f64 / 200.0;
    assert_eq!(net.audit_log().boundaries().len(), 200);
    eprintln!("audit: {per_boundary:.1} heap bytes per quiet round boundary");
    assert!(
        per_boundary <= 64.0,
        "the audit holds {per_boundary:.1} bytes per round boundary"
    );
}

/// Live heap bytes held by the 32×32 grid's `Topology` at radio range
/// `range`, its positions included.
fn topology_bytes(range: f64) -> i64 {
    let before = live_bytes();
    let topo = Topology::build(grid_positions(32), range);
    let bytes = live_bytes() - before;
    drop(topo);
    bytes
}

#[test]
fn a_topology_holds_o_n_bytes_at_any_density() {
    let (sparse, dense) = (topology_bytes(12.0), topology_bytes(40.0));
    let nodes = 32.0 * 32.0;
    eprintln!(
        "topology: {:.1} bytes per node at rho 12, {:.1} at rho 40",
        sparse as f64 / nodes,
        dense as f64 / nodes
    );
    assert!(
        dense as f64 <= 1.1 * sparse as f64,
        "a Topology holds {dense} bytes at rho 40 against {sparse} at rho 12"
    );
}
