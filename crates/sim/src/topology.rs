//! Node positions and the neighbor graph.

use sensjoin_field::{Area, Position};
use sensjoin_relation::NodeId;
use sensjoin_zorder::{Dimension, ZSpace};
use std::sync::Arc;

/// A static network topology: positions plus the bidirectional-link
/// adjacency induced by the communication range.
///
/// "Each node is aware of the nodes within its wireless range, which form
/// its neighborhood" (§III). Adjacency is computed with a uniform grid of
/// buckets at least range-sized and at most one per node, so construction
/// is `O(n · expected neighbors)` whatever the area, and stored in CSR form
/// — one offsets array plus one flat neighbor buffer — so a million-node
/// topology is two contiguous allocations instead of a million small
/// vectors.
///
/// # Storage order
///
/// Node ids are arbitrary labels, random in space, while everything a wave
/// does is local in space: a node talks to its tree neighbors, which are
/// radio neighbors. The topology therefore fixes one *storage permutation*,
/// [`Topology::slot_of`] — a node's rank along the Z-order curve of its
/// position (the paper's §V device applied to physical positions: what is
/// near in the space is near in the encoding), ties by id — and keeps its
/// neighbor rows in that order. The per-node columns a wave touches on
/// every node-event ([`crate::NetworkStats`]' counters and the protocol
/// state in `sensjoin-core`) follow the same permutation, so one
/// node-event's working set is a few nearby cache lines instead of one miss
/// per column. The order is a pure function of the build inputs and never
/// changes afterwards: churn, repair and restore leave it alone. It is a
/// layout only — ids, iteration orders and tie-breaks are untouched, and
/// nothing public is indexed by slot.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    /// `slot_of[id]`: where node `id`'s per-node data lives.
    slot_of: Arc<[u32]>,
    /// CSR offsets by slot: node `v`'s neighbors live at
    /// `nbr_buf[nbr_off[s]..nbr_off[s + 1]]` for `s = slot_of[v]`.
    nbr_off: Vec<u32>,
    /// Flat neighbor buffer, each node's slice sorted by id.
    nbr_buf: Vec<NodeId>,
    area: Area,
    range: f64,
}

/// Cells per axis of the position grid the storage order interleaves: far
/// finer than any radio range, and two 16-bit axes sit well inside a
/// Z-number.
const ORDER_CELLS: f64 = 65536.0;

/// Node ids sorted along the Z-order curve of their positions, ties (one
/// grid cell, or one position) by id.
fn z_order(positions: &[Position], area: Area) -> Vec<u32> {
    let axis = |name, extent: f64| Dimension::new(name, 0.0, extent, extent / (ORDER_CELLS - 1.0));
    let space = ZSpace::new(vec![axis("x", area.width), axis("y", area.height)])
        .expect("two 16-bit axes fit a Z-number");
    let (x, y) = (&space.dims()[0], &space.dims()[1]);
    let key = |p: &Position| space.encode_cells(&[x.coordinate(p.x), y.coordinate(p.y)]);
    let mut keyed: Vec<(u64, u32)> = positions.iter().map(key).zip(0..).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The build's grid of buckets, in CSR form (counting sort by cell): cell
/// `c`'s members are `buf[off[c]..off[c + 1]]`, ascending by id.
struct Grid<'a> {
    positions: &'a [Position],
    range: f64,
    /// Cell side: at least `range`, so the 3x3 scan is exact, and large
    /// enough that there are at most `max(n, 1)` cells, so a sparse area
    /// (a huge `--area`, far-apart CSV coordinates) costs O(n), not O(area).
    side: f64,
    cols: usize,
    rows: usize,
    off: Vec<u32>,
    buf: Vec<u32>,
}

impl<'a> Grid<'a> {
    fn new(positions: &'a [Position], area: Area, range: f64) -> Self {
        let cap = positions.len().max(1) as f64;
        let cells =
            |side: f64| (area.width / side).ceil().max(1.0) * (area.height / side).ceil().max(1.0);
        // `width · height` may overflow to ∞: then one cell holds everyone.
        let mut side = range.max((area.width * area.height / cap).sqrt());
        while cells(side) > cap {
            side *= 2.0;
        }
        let cols = (area.width / side).ceil().max(1.0) as usize;
        let rows = (area.height / side).ceil().max(1.0) as usize;
        let mut grid = Self {
            positions,
            range,
            side,
            cols,
            rows,
            off: vec![0u32; cols * rows + 1],
            buf: vec![0u32; positions.len()],
        };
        let ncells = cols * rows;
        let cell: Vec<u32> = positions
            .iter()
            .map(|p| {
                let (cx, cy) = grid.cell_of(p);
                (cy * cols + cx) as u32
            })
            .collect();
        for &c in &cell {
            grid.off[c as usize + 1] += 1;
        }
        for c in 0..ncells {
            grid.off[c + 1] += grid.off[c];
        }
        for (i, &c) in cell.iter().enumerate() {
            grid.buf[grid.off[c as usize] as usize] = i as u32;
            grid.off[c as usize] += 1;
        }
        // The fill advanced every offset to its cell's end; shift right to
        // recover the starts.
        grid.off.copy_within(0..ncells, 1);
        grid.off[0] = 0;
        grid
    }

    fn cell_of(&self, p: &Position) -> (usize, usize) {
        let cx = ((p.x / self.side) as usize).min(self.cols - 1);
        let cy = ((p.y / self.side) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Calls `hit` with every node within range of node `i`, cell by cell
    /// over the 3x3 neighborhood.
    fn scan(&self, i: u32, mut hit: impl FnMut(u32)) {
        let p = &self.positions[i as usize];
        let (cx, cy) = self.cell_of(p);
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let nx = cx as isize + dx;
                let ny = cy as isize + dy;
                if nx < 0 || ny < 0 || nx >= self.cols as isize || ny >= self.rows as isize {
                    continue;
                }
                let c = ny as usize * self.cols + nx as usize;
                for &j in &self.buf[self.off[c] as usize..self.off[c + 1] as usize] {
                    if j != i && self.positions[j as usize].distance(p) <= self.range {
                        hit(j);
                    }
                }
            }
        }
    }
}

impl Topology {
    /// Builds the topology for `positions` with communication `range`.
    pub fn new(positions: Vec<Position>, area: Area, range: f64) -> Self {
        assert!(range > 0.0, "range must be positive");
        let n = positions.len();
        let grid = Grid::new(&positions, area, range);
        let order = z_order(&positions, area);
        let mut slot_of = vec![0u32; n];
        for (s, &i) in order.iter().enumerate() {
            slot_of[i as usize] = s as u32;
        }

        // Two passes over the nodes in storage order: count, then fill.
        // Each node's slice is produced wholesale, so a running cursor
        // suffices; a final per-slice sort orders neighbors by id.
        let mut nbr_off = vec![0u32; n + 1];
        for (s, &i) in order.iter().enumerate() {
            let mut count = 0u32;
            grid.scan(i, |_| count += 1);
            nbr_off[s + 1] = nbr_off[s] + count;
        }
        let mut nbr_buf = vec![NodeId(0); nbr_off[n] as usize];
        for (s, &i) in order.iter().enumerate() {
            let mut k = nbr_off[s] as usize;
            grid.scan(i, |j| {
                nbr_buf[k] = NodeId(j);
                k += 1;
            });
            debug_assert_eq!(k, nbr_off[s + 1] as usize);
            nbr_buf[nbr_off[s] as usize..k].sort_unstable();
        }
        Self {
            positions,
            slot_of: slot_of.into(),
            nbr_off,
            nbr_buf,
            area,
            range,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.0 as usize]
    }

    /// Neighbors of a node (nodes within range), sorted by id.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let s = self.slot_of[node.0 as usize] as usize;
        &self.nbr_buf[self.nbr_off[s] as usize..self.nbr_off[s + 1] as usize]
    }

    /// The storage permutation: `slot_of()[id]` is where node `id`'s entry
    /// of a per-node column lives (see the type's "Storage order"). Shared,
    /// so a column family holds the order it was laid out in for one
    /// reference count.
    pub fn slot_of(&self) -> &Arc<[u32]> {
        &self.slot_of
    }

    /// The deployment area.
    pub fn area(&self) -> Area {
        self.area
    }

    /// The communication range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Nodes reachable from `start` via neighbor links (including `start`),
    /// as a boolean per node.
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.0 as usize] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Like [`Topology::reachable_from`], but only traversing live nodes:
    /// a node is reachable if a path of `alive` nodes connects it to
    /// `start`. Dead nodes are never reachable. This is the ground truth the
    /// routing repair must span — the base-reachable live set.
    pub fn reachable_from_alive(&self, start: NodeId, alive: &[bool]) -> Vec<bool> {
        assert_eq!(alive.len(), self.len(), "one liveness flag per node");
        let mut seen = vec![false; self.len()];
        if !alive[start.0 as usize] {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        seen[start.0 as usize] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if alive[v.0 as usize] && !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology(n: usize, spacing: f64, range: f64) -> Topology {
        let positions: Vec<Position> = (0..n)
            .map(|i| Position::new(i as f64 * spacing + 0.5, 0.5))
            .collect();
        Topology::new(positions, Area::new(n as f64 * spacing + 1.0, 1.0), range)
    }

    /// Brute-force O(n²) adjacency for cross-checking the CSR build.
    fn brute_neighbors(positions: &[Position], range: f64) -> Vec<Vec<NodeId>> {
        (0..positions.len())
            .map(|i| {
                (0..positions.len())
                    .filter(|&j| j != i && positions[i].distance(&positions[j]) <= range)
                    .map(|j| NodeId(j as u32))
                    .collect()
            })
            .collect()
    }

    fn assert_matches_brute_force(t: &Topology) {
        let positions: Vec<Position> = t.nodes().map(|v| t.position(v)).collect();
        let expect = brute_neighbors(&positions, t.range());
        for v in t.nodes() {
            assert_eq!(t.neighbors(v), &expect[v.0 as usize][..], "{v}");
        }
    }

    #[test]
    fn line_neighbors() {
        let t = line_topology(5, 10.0, 15.0);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(4)), &[NodeId(3)]);
    }

    #[test]
    fn links_are_symmetric() {
        let positions = sensjoin_field::Placement::UniformRandom { n: 300 }
            .generate(Area::new(400.0, 400.0), 9);
        let t = Topology::new(positions, Area::new(400.0, 400.0), 50.0);
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                assert!(t.neighbors(v).contains(&u), "{u} -> {v} not symmetric");
            }
        }
    }

    #[test]
    fn range_respected() {
        let positions = sensjoin_field::Placement::UniformRandom { n: 200 }
            .generate(Area::new(300.0, 300.0), 4);
        let t = Topology::new(positions, Area::new(300.0, 300.0), 50.0);
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                assert!(t.position(u).distance(&t.position(v)) <= 50.0);
            }
            // And no in-range node is missed: brute-force check.
            for v in t.nodes() {
                if u != v && t.position(u).distance(&t.position(v)) <= 50.0 {
                    assert!(t.neighbors(u).contains(&v));
                }
            }
        }
    }

    #[test]
    fn reachability() {
        // Two far-apart pairs.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(500.0, 0.0),
            Position::new(510.0, 0.0),
        ];
        let t = Topology::new(positions, Area::new(600.0, 1.0), 20.0);
        let r = t.reachable_from(NodeId(0));
        assert_eq!(r, vec![true, true, false, false]);
    }

    #[test]
    fn positions_on_the_area_boundary_are_bucketed() {
        // Positions exactly at x = width / y = height land past the last
        // grid column/row before clamping; the clamp must keep them inside
        // and adjacency must still match brute force.
        let area = Area::new(100.0, 100.0);
        let positions = vec![
            Position::new(100.0, 100.0), // far corner, exactly on boundary
            Position::new(100.0, 0.0),
            Position::new(0.0, 100.0),
            Position::new(95.0, 95.0),
            Position::new(0.0, 0.0),
            Position::new(50.0, 100.0), // boundary edge midpoints
            Position::new(100.0, 50.0),
        ];
        let t = Topology::new(positions, area, 30.0);
        assert_matches_brute_force(&t);
        assert!(t.neighbors(NodeId(0)).contains(&NodeId(3)));
    }

    #[test]
    fn range_larger_than_area_is_a_single_cell() {
        // range > max(width, height): the grid degenerates to one cell and
        // every pair within range must still be adjacent.
        let area = Area::new(40.0, 25.0);
        let positions = vec![
            Position::new(1.0, 1.0),
            Position::new(39.0, 24.0),
            Position::new(20.0, 12.0),
            Position::new(5.0, 20.0),
        ];
        let t = Topology::new(positions, area, 1000.0);
        assert_matches_brute_force(&t);
        // Everybody sees everybody: the range dwarfs the diagonal.
        for v in t.nodes() {
            assert_eq!(t.neighbors(v).len(), t.len() - 1, "{v}");
        }
    }

    #[test]
    fn single_cell_grid_close_range() {
        // width == height == range: a 1x1 grid where the 3x3 scan collapses
        // to the one cell, with genuinely out-of-range pairs.
        let area = Area::new(50.0, 50.0);
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(49.0, 49.0),
            Position::new(25.0, 25.0),
        ];
        let t = Topology::new(positions, area, 50.0);
        assert_matches_brute_force(&t);
        assert!(!t.neighbors(NodeId(0)).contains(&NodeId(2)));
    }

    #[test]
    fn huge_sparse_areas_build_a_grid_bounded_by_the_node_count() {
        // A range-sized grid over these areas would need 4·10²⁴ (or an
        // overflowing number of) cells for 10 nodes.
        for (w, h) in [(1e14, 1e14), (1e300, 1e300), (1e300, 1.0)] {
            let area = Area::new(w, h);
            let mut positions =
                sensjoin_field::Placement::UniformRandom { n: 10 }.generate(area, 11);
            // Two pairs in range of each other, so some rows are non-empty.
            positions[1] = Position::new(positions[0].x + 30.0, positions[0].y);
            positions[2] = Position::new(0.0, 0.0);
            positions[3] = Position::new(20.0, 0.0);
            let t = Topology::new(positions, area, 50.0);
            assert_matches_brute_force(&t);
            assert_eq!(t.neighbors(NodeId(2)), &[NodeId(3)], "{w} x {h}");
        }
    }

    #[test]
    fn storage_order_ranks_positions_along_the_z_curve_ties_by_id() {
        let area = Area::new(100.0, 100.0);
        // Two exact duplicates, one node a hair away in the same grid cell,
        // and one node per remaining quadrant.
        let at = |x, y| Position::new(x, y);
        let positions = vec![
            at(75.0, 75.0),
            at(10.0, 10.0),
            at(75.0, 75.0),
            at(10.0, 10.0),
            at(10.0, 10.0 + 1e-9),
            at(75.0, 10.0),
            at(10.0, 75.0),
        ];
        let t = Topology::new(positions.clone(), area, 30.0);
        // x is the more significant axis of a level: the quadrants come
        // (low, low), (low, high), (high, low), (high, high).
        let order = [1, 3, 4, 6, 5, 0, 2];
        for (slot, &v) in order.iter().enumerate() {
            assert_eq!(t.slot_of()[v], slot as u32, "node {v}");
        }
        assert_matches_brute_force(&t);
        // Labelled along the curve, every node is stored at its own id.
        let sorted: Vec<Position> = order.iter().map(|&v| positions[v]).collect();
        let t = Topology::new(sorted, area, 30.0);
        assert!(t.slot_of().iter().copied().eq(0..7));
        assert_matches_brute_force(&t);
    }

    mod csr_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite proptest: the grid-bucketed CSR adjacency equals
            /// the brute-force O(n²) neighbor computation, including
            /// positions on cell and area boundaries.
            #[test]
            fn csr_adjacency_matches_brute_force(
                seed in 0u64..500,
                n in 2usize..40,
                range in 10.0f64..200.0,
                side in 20.0f64..300.0,
            ) {
                let area = Area::new(side, side);
                let mut positions = sensjoin_field::Placement::UniformRandom { n }
                    .generate(area, seed);
                // Pin some nodes onto exact cell/area boundaries.
                positions[0] = Position::new(side, side);
                if n > 2 {
                    positions[1] = Position::new(range.min(side), 0.0);
                }
                let t = Topology::new(positions.clone(), area, range);
                let expect = brute_neighbors(&positions, range);
                for v in t.nodes() {
                    prop_assert_eq!(t.neighbors(v), &expect[v.0 as usize][..]);
                }
            }
        }
    }
}
