//! The physical network graph `G_p = (N ∪ {r}, E_p)`.
//!
//! Nodes are placed in a rectangular deployment area; two nodes are
//! physically connected iff their Euclidean distance is at most the radio
//! range `ρ` (a unit-disk graph). Node `0` is by convention the root/sink
//! `r`: it has an infinite energy supply and takes no measurements
//! (paper §2).

use crate::geometry::Point;

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

/// The physical topology: node positions plus the disk connectivity graph.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    radio_range: f64,
    /// CSR adjacency of the disk graph (symmetric, no self loops): the
    /// neighbours of node `i` are `adj[offs[i] .. offs[i + 1]]`, ascending.
    offs: Vec<u32>,
    adj: Vec<NodeId>,
}

impl Topology {
    /// Builds the disk graph over `positions` with radio range
    /// `radio_range` (meters). `positions\[0\]` is the root.
    ///
    /// Runs in `O(n · d)` (`d` the average neighbourhood size) over flat
    /// arrays, with a constant number of allocations (DESIGN.md §3.3g):
    /// a counting-sort cell grid finds each node's candidates, a
    /// branch-free scan keeps the half-edges `i < j` within range, and two
    /// counting-sort sweeps emit every neighbour list in ascending id order
    /// without sorting one. Non-finite coordinates are legal: such nodes
    /// are clamped into edge cells, and the distance test alone decides
    /// their links.
    ///
    /// # Panics
    /// Panics if fewer than two positions are given or the range is not
    /// strictly positive.
    pub fn build(positions: Vec<Point>, radio_range: f64) -> Self {
        assert!(positions.len() >= 2, "need a root and at least one sensor");
        assert!(radio_range > 0.0, "radio range must be positive");

        let grid = CellGrid::new(&positions, radio_range);
        let (up, half) = grid.upper_neighbors(radio_range * radio_range);
        let (offs, adj) = symmetric_csr(&up, &half);
        Topology {
            positions,
            radio_range,
            offs,
            adj,
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

    /// Physical neighbors of `id` in the disk graph, in ascending id order.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.adj[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    /// Returns `true` iff every node can reach the root over physical links
    /// (the paper assumes an unpartitioned network).
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::ROOT];
        seen[0] = true;
        let mut visited = 0usize;
        while let Some(u) = stack.pop() {
            visited += 1;
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        visited == n
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
/// adjacent one. Cell `c = row · cols + col` holds
/// `ids[start[c] .. start[c + 1]]`, with the coordinates alongside in
/// `xs`/`ys`; the cells of one row are contiguous, so a 3×3 block is three
/// runs.
struct CellGrid {
    cols: usize,
    rows: usize,
    start: Vec<u32>,
    ids: Vec<NodeId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
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
        let cell_of = |i: usize| {
            let p = positions[i];
            let col = (((p.x - x0) * inv) as usize).min(cols - 1);
            let row = (((p.y - y0) * inv) as usize).min(rows - 1);
            Some(row * cols + col)
        };
        let (start, ids) = group_ids(n, cols * rows, cell_of);
        let xs = ids.iter().map(|id| positions[id.index()].x).collect();
        let ys = ids.iter().map(|id| positions[id.index()].y).collect();
        CellGrid {
            cols,
            rows,
            start,
            ids,
            xs,
            ys,
        }
    }

    /// Every half-edge `i < j` with `dist²(i, j) ≤ range_sq`: node `i`'s
    /// upper neighbours are `half[up[i].0 .. up[i].1]`, in grid order.
    ///
    /// The scan is branch-free: each candidate is written unconditionally
    /// and the write position advances by `(j > i) & in_range`.
    fn upper_neighbors(&self, range_sq: f64) -> (Vec<(u32, u32)>, Vec<NodeId>) {
        let n = self.ids.len();
        let mut up = vec![(0u32, 0u32); n];
        let mut half = vec![NodeId::ROOT; 8 * n];
        let mut k = 0usize;
        for row in 0..self.rows {
            let block_rows = row.saturating_sub(1)..(row + 2).min(self.rows);
            for col in 0..self.cols {
                let (c0, c1) = (col.saturating_sub(1), (col + 2).min(self.cols));
                let run = |r: usize| {
                    self.start[r * self.cols + c0] as usize..self.start[r * self.cols + c1] as usize
                };
                let span: usize = block_rows.clone().map(|r| run(r).len()).sum();
                let cell = row * self.cols + col;
                for s in self.start[cell] as usize..self.start[cell + 1] as usize {
                    let (i, x, y) = (self.ids[s], self.xs[s], self.ys[s]);
                    if half.len() < k + span {
                        let len = (k + span).max(2 * half.len());
                        assert!(len <= u32::MAX as usize / 2, "disk graph too dense");
                        half.resize(len, NodeId::ROOT);
                    }
                    let from = k;
                    for r in block_rows.clone() {
                        let t = run(r);
                        for ((&j, &xj), &yj) in self.ids[t.clone()]
                            .iter()
                            .zip(&self.xs[t.clone()])
                            .zip(&self.ys[t])
                        {
                            let (dx, dy) = (xj - x, yj - y);
                            half[k] = j;
                            k += usize::from((j > i) & (dx * dx + dy * dy <= range_sq));
                        }
                    }
                    up[i.index()] = (from as u32, k as u32);
                }
            }
        }
        half.truncate(k);
        (up, half)
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

/// Turns the half-edges into symmetric CSR lists, each in ascending id
/// order, with two counting-sort sweeps. Sweeping `i` ascending and
/// pushing `i` into each upper neighbour's list fills every list's lower
/// neighbours, ascending; sweeping each `j` ascending over its now-sorted
/// lower list and pushing `j` into those lists then appends every list's
/// upper neighbours, ascending.
fn symmetric_csr(up: &[(u32, u32)], half: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
    let n = up.len();
    let mut offs = vec![0u32; n + 1];
    for (i, &(from, to)) in up.iter().enumerate() {
        offs[i + 1] += to - from;
    }
    for j in half {
        offs[j.index() + 1] += 1;
    }
    for i in 0..n {
        offs[i + 1] += offs[i];
    }
    let mut adj = vec![NodeId::ROOT; offs[n] as usize];
    let mut fill = offs[..n].to_vec();
    for (i, &(from, to)) in up.iter().enumerate() {
        for j in &half[from as usize..to as usize] {
            adj[fill[j.index()] as usize] = NodeId(i as u32);
            fill[j.index()] += 1;
        }
    }
    for j in 0..n {
        for at in offs[j] as usize..fill[j] as usize {
            let i = adj[at].index();
            adj[fill[i] as usize] = NodeId(j as u32);
            fill[i] += 1;
        }
    }
    (offs, adj)
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
            for &v in topo.neighbors(u) {
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
