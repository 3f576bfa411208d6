//! Sketch rounds must not allocate per merge.
//!
//! A q-digest round sends one singleton digest per sensor up the tree and
//! merges it at every hop. The merge and compression kernels work in place,
//! so what a round allocates is one singleton `Vec` per sensor plus the
//! occasional growth of the digests that absorb them. This test pins that
//! with a counting global allocator: after two warm-up rounds, the measured
//! rounds must average at most two allocations per sensor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqp_core::{ContinuousQuantile, QDigestQuantile, QueryConfig, Value};
use wsn_net::splitmix::SplitMix64;
use wsn_net::{MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};

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
fn qdigest_rounds_allocate_at_most_two_per_sensor() {
    const WARM_UP: usize = 2;
    const MEASURED: usize = 10;
    for side in [14usize, 32] {
        let mut net = grid_network(side);
        let sensors = net.len() - 1;
        let query = QueryConfig::median(sensors, 0, 1023);
        let mut qd = QDigestQuantile::new(query, 100);
        // Every round's measurements, drawn from a 512-wide band before
        // anything is counted.
        let mut rng = SplitMix64::new(side as u64);
        let rounds: Vec<Vec<Value>> = (0..WARM_UP + MEASURED)
            .map(|_| {
                (0..sensors)
                    .map(|_| 256 + (rng.next_u64() % 512) as Value)
                    .collect()
            })
            .collect();
        for values in &rounds[..WARM_UP] {
            qd.round(&mut net, values);
        }
        let before = allocations();
        for values in &rounds[WARM_UP..] {
            qd.round(&mut net, values);
        }
        let per_sensor = (allocations() - before) as f64 / (MEASURED * sensors) as f64;
        assert!(
            per_sensor <= 2.0,
            "{side}x{side}: {per_sensor:.2} allocations per sensor per round"
        );
    }
}
