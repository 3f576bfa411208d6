//! The physical network graph `G_p = (N ∪ {r}, E_p)`.
//!
//! Nodes are placed in a rectangular deployment area; two nodes are
//! physically connected iff their Euclidean distance is at most the radio
//! range `ρ` (a unit-disk graph). Node `0` is by convention the root/sink
//! `r`: it has an infinite energy supply and takes no measurements
//! (paper §2). The graph is never materialized: a cell grid over the
//! positions answers every neighbourhood query.

use std::ops::Range;

use crate::geometry::Point;
use crate::tree::RoutingTree;

/// Identifier of a network node. Index `0` is always the root (sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The distinguished root node `r`.
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True iff this is the root node.
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The physical topology: node positions and the radio range, indexed by a
/// cell grid. The disk graph is never materialized: neighbour lists and
/// the routing-tree BFS ([`RoutingTree::spanning_alive`]) scan the
/// grid's 3×3 cell blocks.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    radio_range: f64,
    grid: CellGrid,
}

impl Topology {
    /// Indexes `positions` for the disk graph of radio range `radio_range`
    /// (meters). `positions\[0\]` is the root.
    ///
    /// Runs in `O(n)` with a constant number of allocations (DESIGN.md
    /// §3.3g): one counting sort into a cell grid. Non-finite coordinates
    /// are legal: such nodes are clamped into edge cells, and the distance
    /// test alone decides their links.
    ///
    /// # Panics
    /// Panics if fewer than two positions are given or the range is not
    /// strictly positive.
    pub fn build(positions: Vec<Point>, radio_range: f64) -> Self {
        assert!(positions.len() >= 2, "need a root and at least one sensor");
        assert!(radio_range > 0.0, "radio range must be positive");

        let grid = CellGrid::new(&positions, radio_range);
        Topology {
            positions,
            radio_range,
            grid,
        }
    }

    /// Total number of nodes including the root (`|N| + 1`).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Never true: a topology always has at least a root and one sensor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of sensor nodes `|N|` (root excluded).
    pub fn sensor_count(&self) -> usize {
        self.positions.len() - 1
    }

    /// The radio range ρ in meters.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    /// Physical neighbors of `id` in the disk graph, computed on demand
    /// from the cell grid, in ascending id order.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let (g, p) = (&self.grid, self.position(id));
        let range_sq = self.radio_range * self.radio_range;
        let mut list = Vec::new();
        for row in g.block(g.cell[id.index()] as usize) {
            for &v in &g.ids[g.start[row.start] as usize..g.start[row.end] as usize] {
                if v != id && self.positions[v.index()].dist_sq(&p) <= range_sq {
                    list.push(v);
                }
            }
        }
        list.sort_unstable();
        list
    }

    /// Returns `true` iff every node can reach the root over physical links
    /// (the paper assumes an unpartitioned network): the all-alive
    /// [`RoutingTree::spanning_alive`] tree has no orphans.
    pub fn is_connected(&self) -> bool {
        let (_, orphans) = RoutingTree::spanning_alive(self, &vec![true; self.len()]);
        orphans.is_empty()
    }

    /// Iterator over all node ids, root first.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterator over sensor node ids (everything but the root).
    pub fn sensor_ids(&self) -> impl Iterator<Item = NodeId> {
        (1..self.len() as u32).map(NodeId)
    }
}

/// Groups the ids `0..len` by `key` with one counting sort: group `g` is
/// `items[offs[g] .. offs[g + 1]]`, in ascending id order; ids keyed `None`
/// are left out. Builds the cell grid here and every routing tree's CSR
/// children.
pub(crate) fn group_ids(
    len: usize,
    groups: usize,
    key: impl Fn(usize) -> Option<usize>,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut offs = vec![0u32; groups + 1];
    for i in 0..len {
        if let Some(g) = key(i) {
            offs[g] += 1;
        }
    }
    // Inclusive prefix sums put each group's end in its own entry; filling
    // backwards then walks every entry down to its group's start.
    let mut total = 0u32;
    for o in &mut offs {
        total += *o;
        *o = total;
    }
    let mut items = vec![NodeId::ROOT; total as usize];
    for i in (0..len).rev() {
        if let Some(g) = key(i) {
            offs[g] -= 1;
            items[offs[g] as usize] = NodeId(i as u32);
        }
    }
    (offs, items)
}

/// The nodes counting-sorted into a uniform grid of square cells whose side
/// is at least `ρ`, so every neighbour of a node lies in its own cell or an
/// adjacent one. Node `i` lies in cell `cell[i]`, and cell
/// `c = row · cols + col` holds `ids[start[c] .. start[c + 1]]`; the cells
/// of one row are contiguous, so a 3×3 block is three runs.
#[derive(Debug, Clone)]
struct CellGrid {
    cols: usize,
    rows: usize,
    cell: Vec<u32>,
    start: Vec<u32>,
    ids: Vec<NodeId>,
}

impl CellGrid {
    /// Sides `max(ρ, extent / ⌈√n⌉)` over the finite bounding box keep the
    /// grid at most `(⌈√n⌉ + 1)²` cells for any spread. The `1e-9` slack
    /// keeps two nodes at distance `ρ` in adjacent cells despite rounding
    /// in the cell arithmetic.
    fn new(positions: &[Point], radio_range: f64) -> CellGrid {
        let n = positions.len();
        let (x0, wx) = finite_span(positions.iter().map(|p| p.x));
        let (y0, wy) = finite_span(positions.iter().map(|p| p.y));
        let side = (n as f64).sqrt().ceil();
        let inv = 1.0 / (radio_range.max(wx.max(wy) / side) * (1.0 + 1e-9));
        // `as usize` saturates (NaN → 0), so `min` clamps non-finite
        // coordinates into the edge cells.
        let (cols, rows) = ((wx * inv) as usize + 1, (wy * inv) as usize + 1);
        let cell: Vec<u32> = positions
            .iter()
            .map(|p| {
                let col = (((p.x - x0) * inv) as usize).min(cols - 1);
                let row = (((p.y - y0) * inv) as usize).min(rows - 1);
                (row * cols + col) as u32
            })
            .collect();
        let (start, ids) = group_ids(n, cols * rows, |i| Some(cell[i] as usize));
        CellGrid {
            cols,
            rows,
            cell,
            start,
            ids,
        }
    }

    /// The 3×3 block of cells around cell `c`, clipped at the grid's edges:
    /// one range of cell indices per row.
    fn block(&self, c: usize) -> impl Iterator<Item = Range<usize>> + Clone {
        let (row, col, cols) = (c / self.cols, c % self.cols, self.cols);
        let (c0, c1) = (col.saturating_sub(1), (col + 2).min(cols));
        (row.saturating_sub(1)..(row + 2).min(self.rows)).map(move |r| r * cols + c0..r * cols + c1)
    }
}

/// The routing-tree BFS's working copy of the cell grid: the live sensors
/// not yet settled in the tree, as `(x, y, id)` slots. Cell `c` holds
/// `slots[start[c] .. end[c]]`, and node `i` sits in slot `slot[i]` while
/// it is in the grid.
pub(crate) struct LiveGrid<'a> {
    topo: &'a Topology,
    slots: Vec<(f64, f64, NodeId)>,
    end: Vec<u32>,
    slot: Vec<u32>,
    /// `(id, d²)` of each candidate of the last scan; the in-range ones
    /// first.
    hits: Vec<(NodeId, f64)>,
}

impl<'a> LiveGrid<'a> {
    /// Inserts every sensor with `alive[i]`; dead nodes and the sink never
    /// enter the grid.
    pub(crate) fn new(topo: &'a Topology, alive: &[bool]) -> Self {
        let (g, n) = (&topo.grid, topo.len());
        let mut slots = vec![(0.0, 0.0, NodeId::ROOT); n];
        let mut end = g.start[..g.start.len() - 1].to_vec();
        let mut slot = vec![u32::MAX; n];
        for &v in &g.ids {
            if alive[v.index()] && !v.is_root() {
                let (c, p) = (g.cell[v.index()] as usize, topo.position(v));
                let s = end[c] as usize;
                (slots[s], slot[v.index()]) = ((p.x, p.y, v), s as u32);
                end[c] += 1;
            }
        }
        LiveGrid {
            topo,
            slots,
            end,
            slot,
            hits: vec![(NodeId::ROOT, 0.0); n],
        }
    }

    /// Every node still in the grid within radio range of `u`, with its
    /// squared distance to `u`. The scan of `u`'s 3×3 block is branch-free:
    /// each candidate is written unconditionally and the write position
    /// advances by `d² ≤ ρ²`.
    pub(crate) fn within_range(&mut self, u: NodeId) -> &[(NodeId, f64)] {
        let (g, p) = (&self.topo.grid, self.topo.position(u));
        let range_sq = self.topo.radio_range * self.topo.radio_range;
        let mut k = 0;
        for row in g.block(g.cell[u.index()] as usize) {
            for c in row {
                let run = g.start[c] as usize..self.end[c] as usize;
                for &(x, y, v) in &self.slots[run] {
                    let (dx, dy) = (x - p.x, y - p.y);
                    let d_sq = dx * dx + dy * dy;
                    self.hits[k] = (v, d_sq);
                    k += usize::from(d_sq <= range_sq);
                }
            }
        }
        &self.hits[..k]
    }

    /// Removes `v` from its cell in `O(1)`: the cell's last live slot moves
    /// into `v`'s.
    pub(crate) fn remove(&mut self, v: NodeId) {
        let c = self.topo.grid.cell[v.index()] as usize;
        let (s, last) = (self.slot[v.index()] as usize, self.end[c] as usize - 1);
        self.slots[s] = self.slots[last];
        self.slot[self.slots[s].2.index()] = s as u32;
        self.end[c] -= 1;
    }
}

/// `(min, max − min)` of the finite values, `(0, 0)` when there are none.
fn finite_span(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let (lo, hi) = values
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    if lo <= hi {
        (lo, hi - lo)
    } else {
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology(n: usize, spacing: f64, range: f64) -> Topology {
        let positions = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::build(positions, range)
    }

    #[test]
    fn disk_graph_edges_respect_range() {
        let topo = line_topology(5, 10.0, 10.5);
        // Each interior node sees exactly its two line neighbors.
        assert_eq!(topo.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert!(topo.is_connected());
    }

    #[test]
    fn larger_range_adds_edges() {
        let topo = line_topology(5, 10.0, 20.5);
        assert_eq!(topo.neighbors(NodeId(2)).len(), 4);
    }

    #[test]
    fn disconnected_topology_detected() {
        let mut positions: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        positions.push(Point::new(100.0, 100.0));
        let topo = Topology::build(positions, 2.0);
        assert!(!topo.is_connected());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let topo = line_topology(20, 7.0, 15.0);
        for u in topo.node_ids() {
            for v in topo.neighbors(u) {
                assert!(topo.neighbors(v).contains(&u), "{u} -> {v} not symmetric");
                assert_ne!(u, v, "self loop at {u}");
            }
        }
    }

    #[test]
    fn grid_index_matches_bruteforce() {
        // Deterministic pseudo-random placement.
        let mut s: u64 = 42;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let range = 12.0;
        let topo = Topology::build(positions.clone(), range);
        for i in 0..positions.len() {
            let mut expect: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].dist(&positions[j]) <= range)
                .map(|j| NodeId(j as u32))
                .collect();
            expect.sort_unstable();
            assert_eq!(topo.neighbors(NodeId(i as u32)), expect.as_slice());
        }
    }

    #[test]
    fn degenerate_layouts_keep_the_grid_at_o_n_cells() {
        for (what, positions, range) in crate::reference::degenerate_layouts() {
            let n = positions.len();
            let side = (n as f64).sqrt().ceil() as usize;
            let grid = CellGrid::new(&positions, range);
            assert!(
                grid.cols * grid.rows <= (side + 1) * (side + 1),
                "{what}: {}×{} cells for {n} nodes",
                grid.cols,
                grid.rows
            );
        }
    }

    #[test]
    fn counts_exclude_root() {
        let topo = line_topology(5, 1.0, 2.0);
        assert_eq!(topo.len(), 5);
        assert_eq!(topo.sensor_count(), 4);
        assert_eq!(topo.sensor_ids().count(), 4);
        assert!(NodeId::ROOT.is_root());
        assert!(!NodeId(1).is_root());
    }
}
