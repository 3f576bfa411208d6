//! Protocol rounds must not allocate per sensor.
//!
//! Every convergecast payload of the eight battery protocols, LCLL-R and
//! GK lives in wave storage that outlives the wave, so once the storage
//! has reached the sizes a world needs, a protocol round writes its
//! contributions into reused slots and merges them by borrowing. This test
//! pins that with a counting global allocator: after two warm-up rounds
//! (the init round and one continuous round), each protocol's measured
//! rounds must average at most 0.05 allocations per sensor — the few
//! per-round scratch vectors (a root-side selection copy, a q-digest query
//! order) and an occasional storage growth, never one per sensor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqp_core::{QueryConfig, Value};
use wsn_net::splitmix::SplitMix64;
use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};
use wsn_sim::AlgorithmKind;

/// Wraps the system allocator and counts allocation events (allocs and
/// grows; frees are irrelevant) **per thread**, so the gate sees only the
/// rounds running on this test's thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread allocating during its own TLS teardown must
    // not panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` receives exactly the guarantees `GlobalAlloc`'s caller gives;
// the count is a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn grid_network(side: usize) -> Network {
    let positions = (0..side * side)
        .map(|i| Point::new((i % side) as f64 * 8.0, (i / side) as f64 * 8.0))
        .collect();
    let topo = Topology::build(positions, 12.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

#[test]
fn battery_rounds_allocate_nothing_per_sensor() {
    const WARM_UP: usize = 2;
    const MEASURED: usize = 10;
    let mut over = Vec::new();
    for side in [14usize, 32] {
        let sensors = side * side - 1;
        let query = QueryConfig::median(sensors, 0, 1023);
        // Every round's measurements, drawn before anything is counted: a
        // 512-wide band whose floor drifts upwards, so the quantile moves
        // and every protocol refines.
        let mut rng = SplitMix64::new(side as u64);
        let rounds: Vec<Vec<Value>> = (0..WARM_UP + MEASURED)
            .map(|t| {
                let floor = 100 + 30 * t as Value;
                (0..sensors)
                    .map(|_| floor + (rng.next_u64() % 512) as Value)
                    .collect()
            })
            .collect();
        let kinds = AlgorithmKind::battery(100, 0).into_iter();
        for kind in kinds.chain([AlgorithmKind::LcllR, AlgorithmKind::Gk]) {
            let mut net = grid_network(side);
            let mut alg = kind.build(query, net.sizes());
            for values in &rounds[..WARM_UP] {
                alg.round(&mut net, values);
            }
            let before = allocations();
            for values in &rounds[WARM_UP..] {
                alg.round(&mut net, values);
            }
            let per_sensor = (allocations() - before) as f64 / (MEASURED * sensors) as f64;
            if per_sensor > 0.05 {
                over.push(format!("{side}x{side} {}: {per_sensor:.3}", kind.name()));
            }
        }
    }
    assert!(
        over.is_empty(),
        "allocations per sensor per round above 0.05: {over:?}"
    );
}
