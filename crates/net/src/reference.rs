//! Reference equivalence of the flat disk-graph and routing-tree constructors.
//!
//! [`reference_neighbors`] and [`reference_spanning`] are the earlier,
//! straightforward constructors: a `HashMap` cell grid of side `ρ` with one
//! growing `Vec` per node and a final sort of every list, and a BFS with a
//! fresh frontier `Vec` per level that takes both square roots on every
//! tie. Every digest in the repository was recorded on their output, so
//! [`Topology::build`] and the [`RoutingTree`] constructors must reproduce
//! it exactly: the same neighbour lists, parents, depths, children, wave
//! order, level runs, parent slots and orphan lists (or `Err`).

use std::collections::HashMap;

use crate::geometry::Point;
use crate::splitmix::SplitMix64;
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;

/// The earlier `Topology::build`. Its `i64` cell keys overflow on infinite
/// coordinates (a panic in debug builds), so degenerate layouts are checked
/// against [`brute_force_neighbors`] instead.
fn reference_neighbors(positions: &[Point], radio_range: f64) -> Vec<Vec<NodeId>> {
    let n = positions.len();
    let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
    }
    let cell = radio_range;
    let key = |p: &Point| -> (i64, i64) {
        (
            ((p.x - min_x) / cell).floor() as i64,
            ((p.y - min_y) / cell).floor() as i64,
        )
    };
    let mut grid: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    for (i, p) in positions.iter().enumerate() {
        grid.entry(key(p)).or_default().push(i as u32);
    }
    let range_sq = radio_range * radio_range;
    for (i, p) in positions.iter().enumerate() {
        let (cx, cy) = key(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if (j as usize) > i && positions[j as usize].dist_sq(p) <= range_sq {
                        neighbors[i].push(NodeId(j));
                        neighbors[j as usize].push(NodeId(i as u32));
                    }
                }
            }
        }
    }
    for adj in &mut neighbors {
        adj.sort_unstable();
    }
    neighbors
}

/// The disk graph by definition: every pair within range, `O(n²)`.
fn brute_force_neighbors(positions: &[Point], radio_range: f64) -> Vec<Vec<NodeId>> {
    let range_sq = radio_range * radio_range;
    (0..positions.len())
        .map(|i| {
            (0..positions.len())
                .filter(|&j| j != i && positions[j].dist_sq(&positions[i]) <= range_sq)
                .map(|j| NodeId(j as u32))
                .collect()
        })
        .collect()
}

/// Everything [`reference_spanning`] derives, in the earlier nested form.
struct ReferenceTree {
    parent: Vec<Option<NodeId>>,
    depth: Vec<u32>,
    children: Vec<Vec<NodeId>>,
    bottom_up: Vec<NodeId>,
    level_offsets: Vec<u32>,
    parent_slots: Vec<u32>,
    orphans: Vec<NodeId>,
}

/// The earlier `spanning_alive` (and, over an all-alive mask, the earlier
/// `shortest_path_tree`, whose `Err` was the same unreachable list).
fn reference_spanning(topo: &Topology, alive: &[bool]) -> ReferenceTree {
    let n = topo.len();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut depth = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    depth[0] = 0;
    let mut frontier = vec![NodeId::ROOT];
    order.push(NodeId::ROOT);
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for v in topo.neighbors(u) {
                if !alive[v.index()] {
                    continue;
                }
                if depth[v.index()] == u32::MAX {
                    depth[v.index()] = depth[u.index()] + 1;
                    parent[v.index()] = Some(u);
                    next.push(v);
                } else if depth[v.index()] == depth[u.index()] + 1 {
                    let cur = parent[v.index()].expect("tie implies parent set");
                    let d_cur = topo.position(v).dist(&topo.position(cur));
                    let d_new = topo.position(v).dist(&topo.position(u));
                    if d_new < d_cur {
                        parent[v.index()] = Some(u);
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        order.extend_from_slice(&next);
        frontier = next;
    }
    let orphans = topo
        .node_ids()
        .filter(|id| alive[id.index()] && depth[id.index()] == u32::MAX)
        .collect();
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &id in order.iter().skip(1) {
        children[parent[id.index()].expect("tree node").index()].push(id);
    }
    let mut bottom_up = order;
    bottom_up.reverse();
    let mut wave_slot = vec![u32::MAX; n];
    for (pos, &u) in bottom_up.iter().enumerate() {
        wave_slot[u.index()] = pos as u32;
    }
    let mut level_offsets = vec![0u32];
    for pos in 1..bottom_up.len() {
        if depth[bottom_up[pos].index()] != depth[bottom_up[pos - 1].index()] {
            level_offsets.push(pos as u32);
        }
    }
    level_offsets.push(bottom_up.len() as u32);
    let parent_slots = bottom_up
        .iter()
        .map(|&u| parent[u.index()].map_or(u32::MAX, |p| wave_slot[p.index()]))
        .collect();
    ReferenceTree {
        parent,
        depth,
        children,
        bottom_up,
        level_offsets,
        parent_slots,
        orphans,
    }
}

fn assert_same_graph(topo: &Topology, expect: &[Vec<NodeId>], what: &str) {
    assert_eq!(topo.len(), expect.len(), "{what}");
    for (i, list) in expect.iter().enumerate() {
        assert_eq!(
            topo.neighbors(NodeId(i as u32)),
            &list[..],
            "{what}: node {i}"
        );
    }
}

fn assert_same_tree(tree: &RoutingTree, orphans: &[NodeId], r: &ReferenceTree, what: &str) {
    for i in 0..tree.len() {
        let id = NodeId(i as u32);
        assert_eq!(tree.parent(id), r.parent[i], "{what}: parent of {id}");
        assert_eq!(tree.depth(id), r.depth[i], "{what}: depth of {id}");
        assert_eq!(
            tree.children(id),
            &r.children[i][..],
            "{what}: children of {id}"
        );
    }
    assert_eq!(tree.bottom_up(), &r.bottom_up[..], "{what}: bottom_up");
    assert_eq!(tree.level_offsets(), &r.level_offsets[..], "{what}: levels");
    assert_eq!(
        tree.parent_slots(),
        &r.parent_slots[..],
        "{what}: parent slots"
    );
    assert_eq!(orphans, &r.orphans[..], "{what}: orphans");
}

/// Checks the disk graph of `positions` against `expect`, then both tree
/// constructors against the reference BFS: the full tree (or its `Err`)
/// and the tree spanning `alive`, whose level count it returns.
fn check(
    positions: Vec<Point>,
    range: f64,
    alive: &[bool],
    expect: &[Vec<NodeId>],
    what: &str,
) -> usize {
    let topo = Topology::build(positions, range);
    assert_same_graph(&topo, expect, what);

    let full = reference_spanning(&topo, &vec![true; topo.len()]);
    match RoutingTree::shortest_path_tree(&topo) {
        Ok(tree) => assert_same_tree(&tree, &[], &full, what),
        Err(unreachable) => assert_eq!(unreachable, full.orphans, "{what}: Err"),
    }
    let (tree, orphans) = RoutingTree::spanning_alive(&topo, alive);
    let reference = reference_spanning(&topo, alive);
    assert_same_tree(&tree, &orphans, &reference, what);
    tree.levels()
}

/// A random alive mask: the sink lives, each sensor with probability
/// `keep`.
fn alive_mask(n: usize, keep: f64, rng: &mut SplitMix64) -> Vec<bool> {
    (0..n).map(|i| i == 0 || rng.next_f64() < keep).collect()
}

#[test]
fn flat_constructors_match_the_reference_on_random_placements() {
    let mut rng = SplitMix64::new(0x5eed);
    for case in 0..200 {
        let n = 2 + (rng.next_u64() % 300) as usize;
        let side = 10.0 + rng.next_f64() * 290.0;
        let range = 1.0 + rng.next_f64() * side / 3.0;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.next_f64() * side, rng.next_f64() * side))
            .collect();
        let alive = alive_mask(n, 0.5 + rng.next_f64() / 2.0, &mut rng);
        let expect = reference_neighbors(&positions, range);
        // The disk graph by definition: symmetric, in range, loop-free.
        assert_eq!(
            expect,
            brute_force_neighbors(&positions, range),
            "case {case}"
        );
        check(positions, range, &alive, &expect, &format!("case {case}"));
    }
}

#[test]
fn flat_constructors_match_the_reference_over_waypoint_epochs_of_the_table2_world() {
    // Table 2: 1000 sensors on 200 m × 200 m, ρ = 35 m, with the dynamic
    // world's random-waypoint walk at ρ/4 per epoch and a fixed sink.
    let levels = waypoint_epochs(1000, 200.0, false, 50);
    assert!(levels >= 5, "Table 2 world: {levels} levels");
    // `scale_10k`'s density (about 13 neighbours at ρ = 35 m) on 3000
    // sensors with the sink at a corner: dozens of levels, each one's
    // discoveries leaving the BFS's grid before the next is expanded.
    let side = (3001.0 * std::f64::consts::PI * 35.0 * 35.0 / 13.0_f64).sqrt();
    let levels = waypoint_epochs(3000, side, true, 4);
    assert!(levels >= 40, "sparse world: {levels} levels");
}

/// Walks `sensors` sensors on an `area` × `area` field through `epochs`
/// random-waypoint epochs at ρ/4 (ρ = 35 m) with a fixed sink, drawn or at
/// the corner, checking every epoch against the reference under a 0.97
/// alive mask. Returns the most levels any spanning tree had.
fn waypoint_epochs(sensors: usize, area: f64, corner_sink: bool, epochs: usize) -> usize {
    const RANGE: f64 = 35.0;
    let mut rng = SplitMix64::new(2014);
    let mut draw = move || Point::new(rng.next_f64() * area, rng.next_f64() * area);
    let mut positions: Vec<Point> = (0..=sensors).map(|_| draw()).collect();
    if corner_sink {
        positions[0] = Point::new(0.0, 0.0);
    }
    let mut targets: Vec<Point> = (0..=sensors).map(|_| draw()).collect();
    let mut churn = SplitMix64::new(7);
    let mut levels = 0;
    for epoch in 0..epochs {
        let alive = alive_mask(positions.len(), 0.97, &mut churn);
        let expect = reference_neighbors(&positions, RANGE);
        let what = format!("{sensors} sensors, epoch {epoch}");
        levels = levels.max(check(positions.clone(), RANGE, &alive, &expect, &what));
        for (p, t) in positions.iter_mut().zip(&mut targets).skip(1) {
            let d = p.dist(t);
            if d <= RANGE / 4.0 {
                *p = *t;
                *t = draw();
            } else {
                let f = RANGE / 4.0 / d;
                *p = Point::new(p.x + (t.x - p.x) * f, p.y + (t.y - p.y) * f);
            }
        }
    }
    levels
}

/// Layouts at the edges of the cell grid's arithmetic, with their radio
/// ranges. None may panic or make the grid larger than `O(n)` cells.
pub(crate) fn degenerate_layouts() -> Vec<(&'static str, Vec<Point>, f64)> {
    let line = |n: usize, range: f64| (0..n).map(|i| Point::new(i as f64 * range, 0.0)).collect();
    let lattice: Vec<Point> = (0..64)
        .map(|i| Point::new((i % 8) as f64, (i / 8) as f64))
        .collect();
    let mut spread: Vec<Point> = (0..64)
        .map(|i| Point::new(i as f64 * 1.5e7, (i % 3) as f64))
        .collect();
    spread.push(Point::new(1e9, 0.5));
    let non_finite = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(f64::NAN, 0.0),
        Point::new(0.5, f64::NAN),
        Point::new(f64::INFINITY, 0.0),
        Point::new(f64::NEG_INFINITY, 1.0),
        Point::new(0.0, f64::INFINITY),
        Point::new(f64::INFINITY, f64::INFINITY),
        Point::new(2.0, 0.5),
    ];
    vec![
        ("coincident", vec![Point::new(3.0, 3.0); 40], 1.0),
        ("line at exactly rho", line(30, 2.0), 2.0),
        // Every lattice node past the first row and column is equidistant
        // from two parents one level up: all tie-breaks are exact ties.
        ("lattice at exactly rho", lattice.clone(), 1.0),
        ("lattice with diagonals", lattice, 1.5),
        ("line at rho 0.1, inexact in binary", line(30, 0.1), 0.1),
        ("line at rho 0.3, inexact in binary", line(30, 0.3), 0.3),
        (
            "negative coordinates",
            (0..60)
                .map(|i| Point::new(-500.0 + (i % 8) as f64 * 3.0, -(i / 8) as f64 * 3.0))
                .collect(),
            4.0,
        ),
        (
            "two nodes",
            vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5)],
            1.0,
        ),
        ("1e9 m spread at rho 1", spread, 1.0),
        ("NaN and infinite coordinates", non_finite.clone(), 1.5),
        (
            "NaN and infinite coordinates, infinite rho",
            non_finite,
            f64::INFINITY,
        ),
    ]
}

#[test]
fn flat_constructors_match_brute_force_on_degenerate_layouts() {
    for (what, positions, range) in degenerate_layouts() {
        let expect = brute_force_neighbors(&positions, range);
        let finite =
            range.is_finite() && positions.iter().all(|p| p.x.is_finite() && p.y.is_finite());
        if finite {
            assert_eq!(reference_neighbors(&positions, range), expect, "{what}");
        }
        let alive = vec![true; positions.len()];
        check(positions, range, &alive, &expect, what);
    }
}
