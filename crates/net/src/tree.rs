//! The logical routing tree `G_l = (N ∪ {r}, E_l)`.
//!
//! The paper reduces the physical connectivity `E_p` to an acyclic connected
//! subset `E_l` and routes all traffic along it: every node may only talk to
//! its parent and its children (§5.1.1). We build a *Shortest Path Tree*
//! rooted at the sink, exactly as the paper's simulations do: BFS by hop
//! count with Euclidean distance as the tie-breaker, which makes tree
//! construction deterministic for a given topology.

use crate::topology::{group_ids, LiveGrid, NodeId, Topology};

/// A routing tree over a [`Topology`], rooted at [`NodeId::ROOT`].
///
/// Beyond the parent/children pointers, the tree precomputes the
/// struct-of-arrays wave index the network engine runs on (DESIGN.md
/// §3.3g): children in one flat CSR array (each parent's children
/// contiguous), the bottom-up order with its equal-depth runs delimited by
/// [`RoutingTree::level_offsets`], the id → wave-position permutation and
/// each position's parent position. All of it is derived once per tree
/// build; the wave engines never chase `Vec<Vec<…>>` pointers.
#[derive(Debug, Clone)]
pub struct RoutingTree {
    parent: Vec<Option<NodeId>>,
    /// CSR children: the children of `id` are
    /// `children_flat[child_offsets[id] .. child_offsets[id + 1]]`, in
    /// ascending id order.
    children_flat: Vec<NodeId>,
    child_offsets: Vec<u32>,
    depth: Vec<u32>,
    /// Nodes ordered children-before-parents (reverse BFS); iterating this
    /// order performs a convergecast, the reverse a broadcast. Each
    /// routing-tree level is one contiguous run (deepest level first, the
    /// root alone at the end).
    bottom_up: Vec<NodeId>,
    /// id → position in `bottom_up` (`u32::MAX` for nodes outside the
    /// tree: dead or orphaned after a repair).
    wave_slot: Vec<u32>,
    /// Boundaries of the equal-depth runs of `bottom_up`: run `k` is
    /// `bottom_up[level_offsets[k] .. level_offsets[k + 1]]`.
    level_offsets: Vec<u32>,
    /// Wave position of each node's parent, aligned with `bottom_up`
    /// (`u32::MAX` for the root's own entry).
    parent_slot: Vec<u32>,
}

impl RoutingTree {
    /// Builds the shortest-path tree of `topo` rooted at the sink: the
    /// [`RoutingTree::spanning_alive`] tree of an all-alive mask.
    ///
    /// # Errors
    /// Returns `Err` with the set of unreachable nodes if the physical graph
    /// is partitioned (the paper assumes this never happens, but callers on
    /// random placements need to detect and resample).
    pub fn shortest_path_tree(topo: &Topology) -> Result<Self, Vec<NodeId>> {
        let (tree, unreachable) = RoutingTree::spanning_alive(topo, &vec![true; topo.len()]);
        if unreachable.is_empty() {
            // On a 1-sensor network the BFS order is the whole tree, so a
            // mismatch would silently drop the only measurement.
            debug_assert_eq!(
                tree.tree_size(),
                topo.len(),
                "BFS order must cover the graph"
            );
            Ok(tree)
        } else {
            Err(unreachable)
        }
    }

    /// Rebuilds the shortest-path tree over the *surviving* disk graph
    /// after crash-stop node failures: only nodes with `alive[i] == true`
    /// participate, orphaned subtrees are re-parented through whatever live
    /// detour exists, and nodes that end up with no live path to the sink
    /// are returned as the orphan list (never an error — a partitioned
    /// survivor graph is an expected runtime condition, unlike a
    /// partitioned deployment).
    ///
    /// The BFS visits each level in ascending id order, finding each
    /// node's neighbours by scanning its 3×3 block of the cell grid for
    /// the live sensors not yet settled (DESIGN.md §3.3g). A node's parent
    /// is the first one of the previous level to reach it, replaced only by
    /// a strictly closer one (Euclidean tie-break, deterministic and
    /// cheaper links); the squared distance to the current parent is
    /// cached, so square roots are taken only when a candidate is strictly
    /// closer squared — exact, as `sqrt` is monotone.
    ///
    /// Dead and orphaned nodes keep their slots (the tree stays
    /// full-length) but have no parent, no children, depth `u32::MAX`, and
    /// do not appear in [`RoutingTree::bottom_up`] — the wave engines skip
    /// them naturally.
    ///
    /// # Panics
    /// Panics if `alive` is shorter than the topology or the sink itself
    /// (`alive\[0\]`) is dead — the sink is mains-powered and outside the
    /// failure model.
    pub fn spanning_alive(topo: &Topology, alive: &[bool]) -> (Self, Vec<NodeId>) {
        let n = topo.len();
        assert!(alive.len() >= n, "alive mask shorter than topology");
        assert!(alive[0], "the sink cannot fail");
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![u32::MAX; n];
        let mut parent_dist_sq = vec![0.0f64; n];
        let mut grid = LiveGrid::new(topo, alive);
        // The visit order doubles as the BFS queue: `order[head..]` is the
        // level being expanded, and the next level is sorted once complete.
        let mut order = Vec::with_capacity(n);
        depth[0] = 0;
        order.push(NodeId::ROOT);
        let mut head = 0;
        while head < order.len() {
            let level_end = order.len();
            for k in head..level_end {
                let u = order[k];
                let d = depth[u.index()] + 1;
                for &(v, new) in grid.within_range(u) {
                    let i = v.index();
                    if depth[i] == u32::MAX {
                        depth[i] = d;
                        parent[i] = Some(u);
                        parent_dist_sq[i] = new;
                        order.push(v);
                    } else {
                        // Settled levels have left the grid: `v` was found
                        // earlier in this level, at depth `d`.
                        let cur = parent_dist_sq[i];
                        if new < cur && new.sqrt() < cur.sqrt() {
                            parent[i] = Some(u);
                            parent_dist_sq[i] = new;
                        }
                    }
                }
            }
            for &v in &order[level_end..] {
                grid.remove(v);
            }
            order[level_end..].sort_unstable();
            head = level_end;
        }

        let orphans: Vec<NodeId> = topo
            .node_ids()
            .filter(|id| alive[id.index()] && depth[id.index()] == u32::MAX)
            .collect();
        let children = group_ids(n, n, |i| parent[i].map(NodeId::index));
        let mut bottom_up = order;
        bottom_up.reverse();
        (
            RoutingTree::finish(parent, children, depth, bottom_up),
            orphans,
        )
    }

    /// Builds a routing tree from explicit parent pointers (`None` exactly
    /// for the root at index 0). Used for custom logical topologies, e.g.
    /// the §2 multi-measurement expansion where artificial children must
    /// hang off their real node regardless of hop-count ties.
    ///
    /// # Errors
    /// Returns the offending node ids if the pointers do not form a tree
    /// rooted at node 0 (cycle, unreachable node, or non-root without a
    /// parent).
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Result<Self, Vec<NodeId>> {
        let n = parent.len();
        if n == 0 || parent[0].is_some() {
            return Err(vec![NodeId::ROOT]);
        }
        let bad: Vec<NodeId> = (1..n)
            .filter(|&i| !matches!(parent[i], Some(p) if p.index() < n && p.index() != i))
            .map(|i| NodeId(i as u32))
            .collect();
        if !bad.is_empty() {
            return Err(bad);
        }
        // BFS from the root assigns depths and detects unreachable nodes
        // (which is what a cycle reduces to).
        let children = group_ids(n, n, |i| parent[i].map(NodeId::index));
        let (offs, kids) = (&children.0, &children.1);
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        let mut order = Vec::with_capacity(n);
        order.push(NodeId::ROOT);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head].index();
            head += 1;
            for &c in &kids[offs[u] as usize..offs[u + 1] as usize] {
                depth[c.index()] = depth[u] + 1;
                order.push(c);
            }
        }
        let unreachable: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|id| depth[id.index()] == u32::MAX)
            .collect();
        if !unreachable.is_empty() {
            return Err(unreachable);
        }
        let mut bottom_up = order;
        bottom_up.reverse();
        Ok(RoutingTree::finish(parent, children, depth, bottom_up))
    }

    /// Completes the struct-of-arrays form every wave runs on from the
    /// constructor state — the CSR children (one counting sort over the
    /// parent pointers, so each parent's children are in ascending id
    /// order) — with the id → wave-slot permutation, level runs and
    /// per-position parent slots. Shared by all three constructors so the
    /// invariants hold for built, repaired, and hand-made trees alike.
    fn finish(
        parent: Vec<Option<NodeId>>,
        (child_offsets, children_flat): (Vec<u32>, Vec<NodeId>),
        depth: Vec<u32>,
        bottom_up: Vec<NodeId>,
    ) -> RoutingTree {
        let n = parent.len();

        let mut wave_slot = vec![u32::MAX; n];
        for (pos, &u) in bottom_up.iter().enumerate() {
            wave_slot[u.index()] = pos as u32;
        }

        // bottom_up is reversed BFS, so depth is weakly decreasing along
        // it: the levels are exactly its maximal equal-depth runs.
        let mut level_offsets = vec![0u32];
        for pos in 1..bottom_up.len() {
            if depth[bottom_up[pos].index()] != depth[bottom_up[pos - 1].index()] {
                level_offsets.push(pos as u32);
            }
        }
        level_offsets.push(bottom_up.len() as u32);

        let parent_slot: Vec<u32> = bottom_up
            .iter()
            .map(|&u| parent[u.index()].map_or(u32::MAX, |p| wave_slot[p.index()]))
            .collect();

        RoutingTree {
            parent,
            children_flat,
            child_offsets,
            depth,
            bottom_up,
            wave_slot,
            level_offsets,
            parent_slot,
        }
    }

    /// Number of nodes in the tree (root included).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Never true (a tree always contains at least the root).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of `id`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent[id.index()]
    }

    /// Children of `id` in the routing tree.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.children_flat[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Hop distance from the root (`u32::MAX` for nodes outside a repaired
    /// tree, see [`RoutingTree::spanning_alive`]).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depth[id.index()]
    }

    /// True iff `id` is connected to the sink through this tree. Always
    /// true for trees built by [`RoutingTree::shortest_path_tree`] /
    /// [`RoutingTree::from_parents`]; repaired trees exclude dead and
    /// orphaned nodes.
    pub fn contains(&self, id: NodeId) -> bool {
        self.depth[id.index()] != u32::MAX
    }

    /// Marks every node of the subtree rooted at `root` (root included) in
    /// `mask`. The mask is *not* cleared first, so callers can union
    /// several subtrees.
    pub fn mark_subtree(&self, root: NodeId, mask: &mut [bool]) {
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            if !mask[u.index()] {
                mask[u.index()] = true;
                stack.extend_from_slice(self.children(u));
            }
        }
    }

    /// True iff `id` has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.child_offsets[id.index()] == self.child_offsets[id.index() + 1]
    }

    /// Nodes in children-before-parents order (ends at the root).
    /// Processing nodes in this order implements a convergecast wave.
    pub fn bottom_up(&self) -> &[NodeId] {
        &self.bottom_up
    }

    /// Number of nodes actually in the tree (excluding dead/orphaned
    /// slots): the length of [`RoutingTree::bottom_up`].
    pub fn tree_size(&self) -> usize {
        self.bottom_up.len()
    }

    /// Position of `id` in [`RoutingTree::bottom_up`] (its *wave slot*),
    /// or `None` for nodes outside the tree.
    pub fn wave_slot(&self, id: NodeId) -> Option<usize> {
        let s = self.wave_slot[id.index()];
        (s != u32::MAX).then_some(s as usize)
    }

    /// Number of equal-depth runs of [`RoutingTree::bottom_up`] (the tree
    /// height plus one; the deepest level is run 0, the root run last).
    pub fn levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Boundaries of the equal-depth runs of [`RoutingTree::bottom_up`]:
    /// level run `k` is `bottom_up[offsets[k] .. offsets[k + 1]]`. Always
    /// `levels() + 1` entries, first `0`, last `tree_size()`.
    pub fn level_offsets(&self) -> &[u32] {
        &self.level_offsets
    }

    /// Wave slot of each node's parent, aligned with
    /// [`RoutingTree::bottom_up`] (`u32::MAX` for the root's entry). Lets
    /// the wave engine deliver to parent-indexed scratch without chasing
    /// `parent()` and re-permuting per node.
    pub(crate) fn parent_slots(&self) -> &[u32] {
        &self.parent_slot
    }

    /// Nodes in parents-before-children order (starts at the root).
    pub fn top_down(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bottom_up.iter().rev().copied()
    }

    /// Size of the subtree rooted at each node (including the node itself;
    /// the root's entry equals [`RoutingTree::len`]).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.len()];
        for &u in self.bottom_up() {
            if let Some(p) = self.parent(u) {
                size[p.index()] += size[u.index()];
            }
        }
        size
    }

    /// Maximum node depth (tree height in hops). Nodes outside a repaired
    /// tree do not count.
    pub fn height(&self) -> u32 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn line(n: usize) -> (Topology, RoutingTree) {
        let positions = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let topo = Topology::build(positions, 1.5);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        (topo, tree)
    }

    #[test]
    fn line_tree_is_a_path() {
        let (_, tree) = line(6);
        for i in 1..6u32 {
            assert_eq!(tree.parent(NodeId(i)), Some(NodeId(i - 1)));
            assert_eq!(tree.depth(NodeId(i)), i);
        }
        assert_eq!(tree.parent(NodeId::ROOT), None);
        assert!(tree.is_leaf(NodeId(5)));
        assert_eq!(tree.height(), 5);
    }

    #[test]
    fn bottom_up_visits_children_first() {
        let (_, tree) = line(10);
        let mut seen = [false; 10];
        for &u in tree.bottom_up() {
            for &c in tree.children(u) {
                assert!(seen[c.index()], "child {c} not before parent {u}");
            }
            seen[u.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn top_down_visits_parents_first() {
        let (_, tree) = line(10);
        let mut seen = [false; 10];
        for u in tree.top_down() {
            if let Some(p) = tree.parent(u) {
                assert!(seen[p.index()], "parent {p} not before child {u}");
            }
            seen[u.index()] = true;
        }
    }

    #[test]
    fn subtree_sizes_sum_up() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        let topo = Topology::build(positions, 1.2);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let sizes = tree.subtree_sizes();
        assert_eq!(sizes[NodeId::ROOT.index()], 5);
        // Node 1 has children {3, 4}.
        assert_eq!(sizes[1], 3);
        assert_eq!(sizes[2], 1);
    }

    #[test]
    fn single_sensor_tree() {
        // The smallest legal network: the sink plus one sensor. The whole
        // fuzz battery runs on this shape, so every accessor must behave.
        let (_, tree) = line(2);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId::ROOT));
        assert_eq!(tree.children(NodeId::ROOT), &[NodeId(1)]);
        assert!(tree.is_leaf(NodeId(1)));
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.bottom_up(), &[NodeId(1), NodeId::ROOT]);
        assert_eq!(tree.subtree_sizes(), vec![2, 1]);
    }

    #[test]
    fn coincident_positions_collapse_to_a_star() {
        // A degenerate "line" where every node sits on the same point:
        // zero-length links everywhere and all tie-breaks are exact ties.
        // BFS must still terminate with a depth-1 star (everyone hears the
        // sink directly) and a deterministic parent assignment.
        let positions = vec![Point::new(3.0, 3.0); 5];
        let topo = Topology::build(positions, 1.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        for i in 1..5u32 {
            assert_eq!(tree.parent(NodeId(i)), Some(NodeId::ROOT));
            assert_eq!(tree.depth(NodeId(i)), 1);
        }
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn line_at_exact_radio_range_stays_connected() {
        // Nodes spaced exactly one radio range apart: the boundary case the
        // fuzzer's density knob can hit. The disk graph treats `dist ==
        // range` as connected, so the line must build, not partition.
        let positions = (0..6).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
        let topo = Topology::build(positions, 2.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        assert_eq!(tree.height(), 5);
        for i in 1..6u32 {
            assert_eq!(tree.parent(NodeId(i)), Some(NodeId(i - 1)));
        }
    }

    #[test]
    fn tie_break_compares_rounded_distances() {
        // Node 3 hears nodes 1 and 2 one level up at squared distances
        // 2 + 2⁻⁵¹ and 2, whose square roots round to the same f64: the
        // strict `<` on the distances keeps the first parent.
        let positions = vec![
            Point::new(2.2, 2.2),
            Point::new(1.0, 1.0 + f64::EPSILON),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ];
        let topo = Topology::build(positions, 1.8);
        let p = |i: u32| topo.position(NodeId(i));
        assert!(p(3).dist_sq(&p(2)) < p(3).dist_sq(&p(1)));
        assert_eq!(p(3).dist(&p(2)), p(3).dist(&p(1)));
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        assert_eq!(tree.depth(NodeId(3)), 2);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn partitioned_graph_reports_unreachable() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(50.0, 50.0),
        ];
        let topo = Topology::build(positions, 2.0);
        let err = RoutingTree::shortest_path_tree(&topo).unwrap_err();
        assert_eq!(err, vec![NodeId(2)]);
    }

    #[test]
    fn from_parents_builds_custom_trees() {
        // root <- 1 <- 2, root <- 3.
        let tree = RoutingTree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(0)),
        ])
        .unwrap();
        assert_eq!(tree.depth(NodeId(2)), 2);
        assert_eq!(tree.children(NodeId(0)), &[NodeId(1), NodeId(3)]);
        // Convergecast order still respects children-before-parents.
        let mut seen = [false; 4];
        for &u in tree.bottom_up() {
            for &c in tree.children(u) {
                assert!(seen[c.index()]);
            }
            seen[u.index()] = true;
        }
    }

    #[test]
    fn from_parents_rejects_cycles_and_orphans() {
        // 1 and 2 point at each other: unreachable from the root.
        let err =
            RoutingTree::from_parents(vec![None, Some(NodeId(2)), Some(NodeId(1))]).unwrap_err();
        assert_eq!(err, vec![NodeId(1), NodeId(2)]);
        // Root with a parent is invalid.
        assert!(RoutingTree::from_parents(vec![Some(NodeId(1)), None]).is_err());
        // Self-parent is invalid.
        assert!(RoutingTree::from_parents(vec![None, Some(NodeId(1))]).is_err());
    }

    #[test]
    fn spanning_alive_reparents_around_a_dead_relay() {
        // 0 - 1 - 2 with a detour 0 - 3 - 2: killing 1 re-parents 2 via 3.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 1.0), // within 1.5 of both 0 and 2
        ];
        let topo = Topology::build(positions, 1.5);
        let full = RoutingTree::shortest_path_tree(&topo).unwrap();
        assert_eq!(full.parent(NodeId(2)), Some(NodeId(1)));

        let alive = vec![true, false, true, true];
        let (repaired, orphans) = RoutingTree::spanning_alive(&topo, &alive);
        assert!(orphans.is_empty());
        assert_eq!(repaired.parent(NodeId(2)), Some(NodeId(3)));
        assert!(!repaired.contains(NodeId(1)));
        assert!(repaired.bottom_up().iter().all(|&u| u != NodeId(1)));
        assert_eq!(repaired.len(), 4, "repaired trees keep every slot");
        assert_eq!(repaired.height(), 2);
    }

    #[test]
    fn spanning_alive_returns_orphans_on_partition() {
        // A line 0-1-2-3: killing 1 strands {2, 3} with no detour. The
        // repair must terminate and report them instead of looping.
        let (topo, _) = line(4);
        let alive = vec![true, false, true, true];
        let (repaired, orphans) = RoutingTree::spanning_alive(&topo, &alive);
        assert_eq!(orphans, vec![NodeId(2), NodeId(3)]);
        assert!(!repaired.contains(NodeId(2)));
        assert!(!repaired.contains(NodeId(3)));
        assert!(repaired.contains(NodeId(0)));
        assert_eq!(repaired.bottom_up(), &[NodeId(0)]);
        // Dead nodes are not orphans: they are simply gone.
        assert!(!orphans.contains(&NodeId(1)));
    }

    #[test]
    fn mark_subtree_unions() {
        let tree = RoutingTree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(0)),
        ])
        .unwrap();
        let mut mask = vec![false; 4];
        tree.mark_subtree(NodeId(1), &mut mask);
        assert_eq!(mask, vec![false, true, true, false]);
        tree.mark_subtree(NodeId(3), &mut mask);
        assert_eq!(mask, vec![false, true, true, true]);
    }

    /// Exhaustively checks the struct-of-arrays index invariants the wave
    /// engine relies on (DESIGN.md §3.3g).
    fn assert_soa_invariants(tree: &RoutingTree) {
        let t = tree.tree_size();
        let bu = tree.bottom_up();
        // wave_slot is the inverse of bottom_up.
        for (pos, &u) in bu.iter().enumerate() {
            assert_eq!(tree.wave_slot(u), Some(pos));
        }
        // Levels partition bottom_up into weakly-shallower runs; the root
        // run is last and holds exactly the root.
        let lo = tree.level_offsets();
        assert_eq!(lo[0], 0);
        assert_eq!(*lo.last().unwrap() as usize, t);
        for k in 0..tree.levels() {
            let run = &bu[lo[k] as usize..lo[k + 1] as usize];
            let d = tree.depth(run[0]);
            assert!(run.iter().all(|&u| tree.depth(u) == d));
            if k + 1 < tree.levels() {
                assert!(tree.depth(bu[lo[k + 1] as usize]) < d);
            }
        }
        assert_eq!(bu[t - 1], NodeId::ROOT);
        // parent_slots points each wave position at its parent's position.
        let ps = tree.parent_slots();
        for (pos, &u) in bu.iter().enumerate() {
            match tree.parent(u) {
                Some(p) => assert_eq!(ps[pos] as usize, tree.wave_slot(p).unwrap()),
                None => assert_eq!(ps[pos], u32::MAX),
            }
        }
    }

    #[test]
    fn soa_indexes_hold_on_built_trees() {
        // A branching random-ish placement, a line, and the minimal tree.
        let mut positions = vec![Point::new(0.0, 0.0)];
        for i in 0..40u32 {
            let a = i as f64 * 0.7;
            let r = 0.6 + (i % 7) as f64 * 0.45;
            positions.push(Point::new(a.cos() * r, a.sin() * r));
        }
        let topo = Topology::build(positions, 1.1);
        if let Ok(tree) = RoutingTree::shortest_path_tree(&topo) {
            assert_soa_invariants(&tree);
        }
        let (_, line_tree) = line(9);
        assert_soa_invariants(&line_tree);
        let (_, tiny) = line(2);
        assert_soa_invariants(&tiny);
    }

    #[test]
    fn soa_indexes_hold_on_repaired_and_custom_trees() {
        let (topo, _) = line(6);
        let alive = vec![true, true, true, false, true, true];
        let (repaired, _) = RoutingTree::spanning_alive(&topo, &alive);
        assert_soa_invariants(&repaired);
        let custom = RoutingTree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(0)),
            Some(NodeId(3)),
            Some(NodeId(1)),
        ])
        .unwrap();
        assert_soa_invariants(&custom);
    }

    #[test]
    fn parents_are_strictly_shallower() {
        let (_, tree) = line(8);
        for i in 1..8u32 {
            let id = NodeId(i);
            let p = tree.parent(id).unwrap();
            assert_eq!(tree.depth(p) + 1, tree.depth(id));
        }
    }
}
