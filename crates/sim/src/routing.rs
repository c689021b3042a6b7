//! CTP-style collection tree.

use crate::{NetworkError, Topology};
use sensjoin_relation::NodeId;
use std::collections::BTreeMap;

/// Flat-array sentinel for "no parent" (the base station and unreachable
/// nodes).
const NO_PARENT: u32 = u32::MAX;

/// How a node picks among equally-shallow candidate parents.
///
/// Depth is never traded away: both policies keep every node at its
/// BFS-minimal hop count, which is what preserves the repair machinery's
/// rebuild-identical-depths guarantee (and with it the executors'
/// liveness-projected exactness). The policies differ only in which
/// depth-minimal neighbor carries the node's subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParentPolicy {
    /// CTP's converged state: ties broken by link quality (shorter link),
    /// then node id. Deterministic and battery-oblivious. The default.
    #[default]
    MinHop,
    /// Power-aware parent selection per the PAR recipe: among the
    /// depth-minimal candidates, pick the one with the most residual
    /// battery energy (ties by shorter link, then id). Re-evaluated at
    /// every churn/repair boundary via [`RoutingTree::reselect_parents`],
    /// so load rotates away from nearly-drained relays instead of pinning
    /// the bottleneck subtree on one node until it dies. A no-op unless a
    /// [`crate::BatteryBank`] is attached to supply residuals.
    PowerAware,
}

/// [`ParentPolicy::PowerAware`]'s rotation dead band: a sibling only adopts
/// a subtree when its residual energy exceeds the current parent's by this
/// factor. See [`RoutingTree::reselect_parents`] for why the dead band is
/// load-bearing and not a tuning nicety.
pub const POWER_AWARE_HYSTERESIS: f64 = 1.25;

/// A collection (routing) tree rooted at the base station.
///
/// "Based on a periodic beaconing mechanism, each node maintains a parent
/// that minimizes the hop count to the base station" (§III, citing the
/// TinyOS collection-tree protocol). We emulate the converged state of that
/// protocol: a breadth-first tree where ties between candidate parents are
/// broken by link quality — proxied, as is standard for distance-dependent
/// packet-reception rates, by the shorter link — then by node id, making
/// tree construction deterministic.
///
/// All per-node state is struct-of-arrays: `parent` and `depth` are flat
/// `u32` arrays (sentinel `u32::MAX`), children live in one CSR buffer
/// (offsets + one flat id array), and the bottom-up processing order is a
/// cached *subtree-major post-order* — each node's subtree occupies a
/// contiguous block, child subtrees appear in ascending child-id order, and
/// the root comes last. Rebuilds and repairs reuse every buffer instead of
/// reallocating, so a million-node tree is a handful of flat allocations for
/// its whole lifetime.
///
/// Nodes that cannot reach the base station (disconnected placements, or
/// partitions after failures) have no parent and are reported by
/// [`RoutingTree::unreachable`].
///
/// # Example
///
/// ```
/// use sensjoin_sim::{RoutingTree, Topology, NodeId};
/// use sensjoin_field::{Area, Position};
///
/// // A 3-hop line: 0 - 1 - 2 - 3.
/// let positions = (0..4).map(|i| Position::new(40.0 * i as f64 + 1.0, 1.0)).collect();
/// let topo = Topology::new(positions, Area::new(200.0, 2.0), 50.0);
/// let tree = RoutingTree::build(&topo, NodeId(0));
/// assert_eq!(tree.depth(NodeId(3)), Some(3));
/// assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
/// assert_eq!(tree.descendants(NodeId(0)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTree {
    base: NodeId,
    /// Parent id per node; [`NO_PARENT`] for the base and unreachable nodes.
    parent: Vec<u32>,
    /// Hop count per node; `u32::MAX` for unreachable nodes.
    depth: Vec<u32>,
    descendants: Vec<u32>,
    /// CSR offsets: node `v`'s children are
    /// `child_buf[child_off[v]..child_off[v + 1]]`, ascending by id.
    child_off: Vec<u32>,
    child_buf: Vec<NodeId>,
    /// Cached subtree-major post-order over reachable nodes: children before
    /// parents, each subtree contiguous, child subtrees ascending, root last.
    post_order: Vec<NodeId>,
    /// `(parent, depth)` of `post_order[i]`, so a bottom-up walk reads the
    /// tree forwards instead of by random node id. The root's parent is
    /// `NodeId(NO_PARENT)`.
    post_links: Vec<(NodeId, u32)>,
    max_depth: u32,
    /// Epoch-marked repair scratch: `mark[v] == epoch` means `v` belongs to
    /// the floating set of the repair in progress. Bumping `epoch` clears the
    /// whole array in O(1), so a localized repair never pays an O(n) reset.
    mark: Vec<u32>,
    epoch: u32,
    /// Reusable DFS stack.
    scratch: Vec<NodeId>,
}

/// What [`RoutingTree::repair`] did.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Dead nodes that were removed from the tree.
    pub detached: Vec<NodeId>,
    /// Live nodes that selected a new parent (orphan-subtree members and
    /// previously-unreachable nodes that found a route).
    pub reattached: Vec<NodeId>,
    /// Live nodes left without any route to the base station.
    pub orphaned: Vec<NodeId>,
}

impl RepairReport {
    /// Whether the repair changed nothing.
    pub fn is_empty(&self) -> bool {
        self.detached.is_empty() && self.reattached.is_empty() && self.orphaned.is_empty()
    }
}

impl RoutingTree {
    /// Builds the tree over `topology` rooted at `base`.
    pub fn build(topology: &Topology, base: NodeId) -> Self {
        Self::build_excluding(topology, base, &|_, _| false)
    }

    /// Builds the tree while treating links for which `link_down(u, v)`
    /// returns `true` as unusable (used after failure injection; the
    /// predicate must be symmetric).
    pub fn build_excluding(
        topology: &Topology,
        base: NodeId,
        link_down: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> Self {
        let n = topology.len();
        let mut tree = Self {
            base,
            parent: vec![NO_PARENT; n],
            depth: vec![u32::MAX; n],
            descendants: vec![0; n],
            child_off: vec![0; n + 1],
            child_buf: Vec::new(),
            post_order: Vec::new(),
            post_links: Vec::new(),
            max_depth: 0,
            mark: vec![0; n],
            epoch: 0,
            scratch: Vec::new(),
        };
        tree.rebuild_excluding(topology, link_down);
        tree
    }

    /// Rebuilds the tree in place over the same topology, reusing every
    /// flat buffer (no per-node reallocation).
    pub fn rebuild(&mut self, topology: &Topology) {
        self.rebuild_excluding(topology, &|_, _| false);
    }

    /// [`RoutingTree::rebuild`] with a `link_down` exclusion predicate —
    /// the in-place, buffer-reusing equivalent of
    /// [`RoutingTree::build_excluding`].
    pub fn rebuild_excluding(
        &mut self,
        topology: &Topology,
        link_down: &dyn Fn(NodeId, NodeId) -> bool,
    ) {
        let n = topology.len();
        assert_eq!(self.parent.len(), n, "rebuild must keep the node count");
        self.depth.fill(u32::MAX);
        self.parent.fill(NO_PARENT);
        self.depth[self.base.0 as usize] = 0;
        let mut frontier = std::mem::take(&mut self.scratch);
        frontier.clear();
        frontier.push(self.base);
        let mut next: Vec<NodeId> = Vec::new();
        // Level-synchronous BFS so that parent selection at depth d+1 can
        // deterministically pick the best depth-d candidate.
        while !frontier.is_empty() {
            next.clear();
            for &u in &frontier {
                for &v in topology.neighbors(u) {
                    if link_down(u, v) {
                        continue;
                    }
                    let i = v.0 as usize;
                    let vd = self.depth[i];
                    let cand = self.depth[u.0 as usize] + 1;
                    if vd > cand {
                        if vd == u32::MAX {
                            next.push(v);
                        }
                        self.depth[i] = cand;
                        self.parent[i] = u.0;
                    } else if vd == cand {
                        // Tie-break: shorter link, then smaller id.
                        let cur = NodeId(self.parent[i]);
                        let pv = topology.position(v);
                        let d_cur = topology.position(cur).distance(&pv);
                        let d_new = topology.position(u).distance(&pv);
                        if d_new < d_cur - 1e-12 || (d_new <= d_cur + 1e-12 && u < cur) {
                            self.parent[i] = u.0;
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            std::mem::swap(&mut frontier, &mut next);
        }
        self.scratch = frontier;
        self.rebuild_derived();
    }

    /// Localized self-healing after liveness changes: dead nodes
    /// (`!alive[v]`) are detached, and every live node whose route to the
    /// base broke — orphan-subtree members below a dead node, plus nodes
    /// that had no route at all (e.g. just revived) — re-selects a parent
    /// among live neighbors that still have a route. The attached region
    /// keeps its routes untouched; only the floating set moves.
    ///
    /// This wrapper derives the change epicenters with one O(n) scan (any
    /// node whose liveness disagrees with its routed state); when the caller
    /// knows which nodes flipped, [`RoutingTree::repair_localized`] skips
    /// even that scan.
    ///
    /// Parent re-selection replays [`RoutingTree::build_excluding`]'s
    /// level-synchronous relaxation (same shorter-link-then-smaller-id
    /// tie-break) restricted to the floating set, seeded with the attached
    /// nodes bordering it at their existing depths. Under pure node
    /// *removals* the attached depths are still BFS-minimal (removals only
    /// lengthen shortest paths, and the surviving parent chain attains the
    /// old distance), so the repaired tree assigns every node the exact
    /// depth a full rebuild would — the repaired tree spans exactly the
    /// base-reachable live set at rebuild-identical depths. (Attached nodes
    /// adjacent to a reattached subtree may keep a different — equally
    /// shallow — parent than a rebuild would pick; that is the point of
    /// locality.) After *revivals* the attached region does not re-optimize
    /// through the revived bridge, so only set-coverage parity is
    /// guaranteed.
    ///
    /// Returns which nodes were detached, reattached and left orphaned.
    pub fn repair(&mut self, topology: &Topology, alive: &[bool]) -> RepairReport {
        let n = topology.len();
        assert_eq!(alive.len(), n, "one liveness flag per node");
        let mut epicenters = Vec::new();
        for v in topology.nodes() {
            let routed = self.depth[v.0 as usize] != u32::MAX;
            // Dead-but-routed = crash epicenter; live-but-routeless =
            // revival or an orphan worth re-examining.
            if alive[v.0 as usize] != routed {
                epicenters.push(v);
            }
        }
        self.repair_localized(topology, alive, &epicenters)
    }

    /// [`RoutingTree::repair`] given the *epicenters* — the nodes whose
    /// liveness flipped since the last repair. Work is proportional to the
    /// affected region (floating subtrees, orphan neighborhoods and their
    /// attached boundary), never the full node array: floating-set discovery
    /// walks only the epicenters' subtrees / routeless neighborhoods, and
    /// the epoch-marked scratch avoids O(n) clears.
    ///
    /// The epicenter list must cover every node whose liveness changed since
    /// the previous repair; missing one leaves the tree referencing a dead
    /// node or ignoring a revived one.
    pub fn repair_localized(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        epicenters: &[NodeId],
    ) -> RepairReport {
        let n = topology.len();
        assert_eq!(alive.len(), n, "one liveness flag per node");
        assert!(alive[self.base.0 as usize], "the base station never fails");
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let mut report = RepairReport::default();
        // The floating set: live nodes that must re-select a parent, each
        // with whether it had a route before (only lost routes count as
        // newly orphaned).
        let mut floating: Vec<(NodeId, bool)> = Vec::new();
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        for &e in epicenters {
            let i = e.0 as usize;
            if self.mark[i] == epoch {
                continue; // already swept up by an earlier epicenter
            }
            if !alive[i] {
                // Crash: the whole subtree under `e` floats. Traverse
                // through dead members — a dead node inside the subtree cuts
                // the nodes below it loose as well.
                if self.depth[i] == u32::MAX {
                    continue; // already detached
                }
                self.mark[i] = epoch;
                stack.push(e);
                while let Some(u) = stack.pop() {
                    let ui = u.0 as usize;
                    let had = self.depth[ui] != u32::MAX;
                    self.depth[ui] = u32::MAX;
                    self.parent[ui] = NO_PARENT;
                    if alive[ui] {
                        floating.push((u, had));
                    } else if had {
                        report.detached.push(u);
                    }
                    let s = self.child_off[ui] as usize;
                    let t = self.child_off[ui + 1] as usize;
                    for &c in &self.child_buf[s..t] {
                        if self.mark[c.0 as usize] != epoch {
                            self.mark[c.0 as usize] = epoch;
                            stack.push(c);
                        }
                    }
                }
            } else {
                // Revival (or orphan re-examination): flood the routeless
                // live region around `e` — exactly the nodes whose
                // attachability the revival may have changed.
                if self.depth[i] != u32::MAX {
                    continue; // already attached
                }
                self.mark[i] = epoch;
                stack.push(e);
                while let Some(u) = stack.pop() {
                    floating.push((u, false));
                    for &v in topology.neighbors(u) {
                        let vi = v.0 as usize;
                        if self.mark[vi] != epoch && alive[vi] && self.depth[vi] == u32::MAX {
                            self.mark[vi] = epoch;
                            stack.push(v);
                        }
                    }
                }
            }
        }
        self.scratch = stack;
        if floating.is_empty() && report.detached.is_empty() {
            return report; // nothing moved; derived state is still valid
        }
        // Multi-source level-synchronous BFS relaxing only floating nodes,
        // with the identical fold order and tie-break as build_excluding.
        // Seeding only the attached *boundary* (attached neighbors of
        // floating nodes, at their current depths) is equivalent to seeding
        // the whole attached region: a non-boundary attached node has no
        // floating neighbor, so it relaxes nothing.
        let mut by_depth: BTreeMap<u32, Vec<NodeId>> = Default::default();
        for &(f, _) in &floating {
            for &u in topology.neighbors(f) {
                let ui = u.0 as usize;
                if alive[ui] && self.depth[ui] != u32::MAX {
                    by_depth.entry(self.depth[ui]).or_default().push(u);
                }
            }
        }
        while let Some((d, mut level)) = by_depth.pop_first() {
            level.sort_unstable();
            level.dedup();
            for &u in &level {
                for &v in topology.neighbors(u) {
                    let i = v.0 as usize;
                    if self.mark[i] != epoch || !alive[i] {
                        continue;
                    }
                    let vd = self.depth[i];
                    let cand = d + 1;
                    if vd > cand {
                        debug_assert_eq!(vd, u32::MAX, "levels are processed in order");
                        self.depth[i] = cand;
                        self.parent[i] = u.0;
                        by_depth.entry(cand).or_default().push(v);
                    } else if vd == cand {
                        // Tie-break: shorter link, then smaller id.
                        let cur = NodeId(self.parent[i]);
                        let pv = topology.position(v);
                        let d_cur = topology.position(cur).distance(&pv);
                        let d_new = topology.position(u).distance(&pv);
                        if d_new < d_cur - 1e-12 || (d_new <= d_cur + 1e-12 && u < cur) {
                            self.parent[i] = u.0;
                        }
                    }
                }
            }
        }
        for &(f, had) in &floating {
            if self.depth[f.0 as usize] == u32::MAX {
                // Nodes that never had a route (isolated stragglers) are
                // not *newly* orphaned — report only lost routes.
                if had {
                    report.orphaned.push(f);
                }
            } else {
                report.reattached.push(f);
            }
        }
        report.detached.sort_unstable();
        report.reattached.sort_unstable();
        report.orphaned.sort_unstable();
        self.rebuild_derived();
        report
    }

    /// [`ParentPolicy::PowerAware`]'s boundary re-evaluation: every routed
    /// live node re-picks its parent among *all* live depth-(d−1) routed
    /// neighbors — the same candidate set BFS tie-breaking chose from —
    /// ranked by *residual energy per unit of routed load*,
    /// `residual[u] / (descendants(u) + 1)`, ties broken by shorter link
    /// then smaller id. A relay's drain rate is proportional to the subtree
    /// it forwards for, so this score is (up to the shared per-round
    /// constant) the candidate's rounds-to-exhaustion: ranking by it moves
    /// subtrees to the parent that will *survive longest after adopting
    /// them*, not merely the one with the fullest battery right now.
    /// Loads are tracked intra-boundary — a candidate that just adopted a
    /// subtree earlier in this pass scores lower for the next mover, and a
    /// parent that shed one scores higher — so movers fan out across the
    /// sibling ring instead of dogpiling onto the single richest node.
    /// Depths are untouched, so the tree stays BFS-minimal and every
    /// repair invariant holds; only which sibling carries each subtree
    /// changes.
    ///
    /// A rotation only happens when the best candidate's post-adoption
    /// score exceeds the current parent's by the
    /// [`POWER_AWARE_HYSTERESIS`] factor. Without the dead band, every
    /// boundary re-ranks on last round's noise: subtrees ping-pong between
    /// near-equal siblings and the rotation beacons (a broadcast charges
    /// every neighbor's receiver) drain the network faster than min-hop
    /// ever would.
    ///
    /// Returns the nodes whose parent changed (their new ancestors hold no
    /// synopses about them — executors must reconcile them exactly like
    /// repair reattachments). Derived state is rebuilt iff anything moved.
    pub fn reselect_parents(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        residual: &[f64],
    ) -> Vec<NodeId> {
        let n = topology.len();
        assert_eq!(alive.len(), n, "one liveness flag per node");
        assert_eq!(residual.len(), n, "one residual per node");
        let mut changed = Vec::new();
        // Subtree weight adopted (+) or shed (−) per candidate within this
        // pass, so later movers see the loads earlier moves already created.
        let mut delta = vec![0i64; n];
        for v in topology.nodes() {
            let i = v.0 as usize;
            let d = self.depth[i];
            if v == self.base || d == u32::MAX || !alive[i] {
                continue;
            }
            let cur = NodeId(self.parent[i]);
            let pv = topology.position(v);
            // The load `v` brings: its whole subtree plus itself.
            let w = self.descendants[i] as i64 + 1;
            // Rounds-to-exhaustion proxy for keeping the status quo (the
            // current parent's load already includes `w`) vs. adopting
            // (candidates are charged `w` on top of their present load).
            let load_of = |u: NodeId, extra: i64| -> f64 {
                let ui = u.0 as usize;
                (self.descendants[ui] as i64 + 1 + delta[ui] + extra).max(1) as f64
            };
            let cur_score = residual[cur.0 as usize] / load_of(cur, 0);
            let mut best = cur;
            let mut best_score = cur_score;
            for &u in topology.neighbors(v) {
                let ui = u.0 as usize;
                if u == cur || !alive[ui] || self.depth[ui] != d - 1 {
                    continue;
                }
                let score = residual[ui] / load_of(u, w);
                let better = match score.total_cmp(&best_score) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        // Tie-break: shorter link, then smaller id.
                        let d_best = topology.position(best).distance(&pv);
                        let d_new = topology.position(u).distance(&pv);
                        d_new < d_best - 1e-12 || (d_new <= d_best + 1e-12 && u < best)
                    }
                };
                if better {
                    best = u;
                    best_score = score;
                }
            }
            if best != cur && best_score > cur_score * POWER_AWARE_HYSTERESIS {
                self.parent[i] = best.0;
                delta[best.0 as usize] += w;
                delta[cur.0 as usize] -= w;
                changed.push(v);
            }
        }
        if !changed.is_empty() {
            self.rebuild_derived();
        }
        changed
    }

    /// Exports the defining array of the tree — the parent per node
    /// (`NO_PARENT` for the base and unreachable nodes) — the
    /// checkpoint/restore surface. Everything else the tree holds, hop
    /// counts included, is derived from it.
    pub fn export_tree(&self) -> Vec<u32> {
        self.parent.clone()
    }

    /// Restores a tree previously exported with
    /// [`RoutingTree::export_tree`], rebuilding the derived structures (hop
    /// counts, children CSR, post-order, descendant counts, maximum depth).
    ///
    /// The array comes from a checkpoint file, so it is checked before
    /// anything is rebuilt from it: one entry per node, the base a live root
    /// without a parent, every other parent a live topology neighbour of a
    /// live node, and every node with a parent reachable from the base —
    /// which rules out a cycle.
    pub fn import_tree(
        &mut self,
        parent: &[u32],
        topology: &Topology,
        alive: &[bool],
    ) -> Result<(), NetworkError> {
        let bad = |what| Err(NetworkError::BadSnapshot(what));
        let n = self.parent.len();
        if parent.len() != n || alive.len() != n {
            return bad("routing tree of another node count");
        }
        let base = self.base.0 as usize;
        if parent[base] != NO_PARENT || !alive[base] {
            return bad("base station is not the live root of the routing tree");
        }
        let linked = |v: usize, p: usize| {
            let neighbours = topology.neighbors(NodeId(v as u32));
            p < n && alive[v] && alive[p] && neighbours.contains(&NodeId(p as u32))
        };
        // A hop count is the parent's plus one: walk up to a known count,
        // then assign the path back down — O(n). A walk that ends without a
        // count met another parentless node or, after `n` steps, a cycle.
        let mut depth = vec![u32::MAX; n];
        depth[base] = 0;
        let mut path = Vec::new();
        for v in 0..n {
            let mut u = v;
            while depth[u] == u32::MAX && parent[u] != NO_PARENT && path.len() < n {
                if !linked(u, parent[u] as usize) {
                    return bad("routing parent is not a live neighbour");
                }
                path.push(u);
                u = parent[u] as usize;
            }
            if depth[u] == u32::MAX && !path.is_empty() {
                return bad("routing parent is not reachable from the base");
            }
            for w in path.drain(..).rev() {
                depth[w] = depth[parent[w] as usize] + 1;
            }
        }
        self.parent.copy_from_slice(parent);
        self.depth = depth;
        self.rebuild_derived();
        Ok(())
    }

    /// Rebuilds the children CSR, the cached post-order, descendant counts
    /// and the maximum depth from the parent/depth arrays — allocation-free
    /// O(n) passes over the reused flat buffers.
    fn rebuild_derived(&mut self) {
        let n = self.parent.len();
        // Children CSR by counting sort: count into child_off[p + 1],
        // prefix-sum, fill using child_off[p] as a cursor, then shift right
        // to restore the row starts. Filling in ascending child id keeps
        // every row sorted without a sort pass.
        self.child_off.fill(0);
        for i in 0..n {
            let p = self.parent[i];
            if p != NO_PARENT {
                self.child_off[p as usize + 1] += 1;
            }
        }
        for c in 0..n {
            self.child_off[c + 1] += self.child_off[c];
        }
        let total = self.child_off[n] as usize;
        self.child_buf.resize(total, NodeId(0));
        for i in 0..n {
            let p = self.parent[i] as usize;
            if p != NO_PARENT as usize {
                self.child_buf[self.child_off[p] as usize] = NodeId(i as u32);
                self.child_off[p] += 1;
            }
        }
        self.child_off.copy_within(0..n, 1);
        self.child_off[0] = 0;
        // Subtree-major post-order: pop-append with children pushed in
        // ascending id order yields root-first with child subtrees
        // descending; reversing gives children-before-parents with child
        // subtrees ascending and the root last.
        self.post_order.clear();
        self.post_order.reserve(total + 1);
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        stack.push(self.base);
        while let Some(u) = stack.pop() {
            self.post_order.push(u);
            let s = self.child_off[u.0 as usize] as usize;
            let t = self.child_off[u.0 as usize + 1] as usize;
            stack.extend_from_slice(&self.child_buf[s..t]);
        }
        self.scratch = stack;
        self.post_order.reverse();
        // Children precede parents in post-order, so one forward pass folds
        // descendant counts bottom-up; max depth and the per-position links
        // ride along.
        self.descendants.fill(0);
        self.max_depth = 0;
        self.post_links.clear();
        self.post_links.reserve(total + 1);
        for idx in 0..self.post_order.len() {
            let v = self.post_order[idx];
            let i = v.0 as usize;
            self.max_depth = self.max_depth.max(self.depth[i]);
            let p = self.parent[i];
            self.post_links.push((NodeId(p), self.depth[i]));
            if p != NO_PARENT {
                let sub = self.descendants[i] + 1;
                self.descendants[p as usize] += sub;
            }
        }
    }

    /// The root of the tree.
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// Parent of `node` (`None` for the base station and unreachable nodes).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let p = self.parent[node.0 as usize];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Children of `node`, sorted by id.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.0 as usize;
        &self.child_buf[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Hop count from `node` to the base (`None` if unreachable).
    pub fn depth(&self, node: NodeId) -> Option<u32> {
        let d = self.depth[node.0 as usize];
        (d != u32::MAX).then_some(d)
    }

    /// Number of descendants of `node` in the tree.
    pub fn descendants(&self, node: NodeId) -> u32 {
        self.descendants[node.0 as usize]
    }

    /// Maximum tree depth.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Nodes with no route to the base station.
    pub fn unreachable(&self) -> Vec<NodeId> {
        (0..self.parent.len() as u32)
            .map(NodeId)
            .filter(|&v| v != self.base && self.parent[v.0 as usize] == NO_PARENT)
            .collect()
    }

    /// All reachable nodes in *subtree-major post-order* — the processing
    /// order of collection phases. Children appear before their parents,
    /// every subtree occupies one contiguous block (child subtrees in
    /// ascending child-id order), and the root comes last. The contiguity is
    /// what lets wave execution hand each root-child subtree to a different
    /// thread as one slice.
    pub fn bottom_up_order(&self) -> &[NodeId] {
        &self.post_order
    }

    /// [`RoutingTree::bottom_up_order`] with each node's parent and depth
    /// beside it: `(node, parent, depth)`, the root last with an unspecified
    /// parent. An up wave walks this instead of looking both up per node.
    pub fn bottom_up_links(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        let links = self.post_order.iter().zip(&self.post_links);
        links.map(|(&v, &(parent, depth))| (v, parent, depth))
    }

    /// All reachable nodes in *subtree-major pre-order* — the processing
    /// order of dissemination phases: parents before children, each subtree
    /// contiguous, child subtrees in ascending child-id order, root first.
    pub fn top_down_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.post_order.len());
        let mut stack = vec![self.base];
        while let Some(u) = stack.pop() {
            order.push(u);
            let s = self.child_off[u.0 as usize] as usize;
            let t = self.child_off[u.0 as usize + 1] as usize;
            // Push descending so the smallest child pops first.
            stack.extend(self.child_buf[s..t].iter().rev().copied());
        }
        order
    }

    /// The path from `node` up to the base station (inclusive), or `None`
    /// if unreachable.
    pub fn path_to_base(&self, node: NodeId) -> Option<Vec<NodeId>> {
        self.depth(node)?;
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_field::{Area, Placement, Position};

    fn random_topology(n: usize, side: f64, seed: u64) -> Topology {
        let area = Area::new(side, side);
        let pos = Placement::UniformRandom { n }.generate(area, seed);
        Topology::new(pos, area, 50.0)
    }

    #[test]
    fn line_tree_depths() {
        let positions: Vec<Position> = (0..5)
            .map(|i| Position::new(i as f64 * 40.0 + 1.0, 1.0))
            .collect();
        let t = Topology::new(positions, Area::new(200.0, 2.0), 50.0);
        let tree = RoutingTree::build(&t, NodeId(0));
        for i in 0..5u32 {
            assert_eq!(tree.depth(NodeId(i)), Some(i));
        }
        assert_eq!(tree.descendants(NodeId(0)), 4);
        assert_eq!(tree.descendants(NodeId(4)), 0);
        assert_eq!(tree.path_to_base(NodeId(4)).unwrap().len(), 5);
    }

    #[test]
    fn depths_are_shortest_paths() {
        let t = random_topology(400, 500.0, 3);
        let tree = RoutingTree::build(&t, NodeId(0));
        // Verify BFS optimality: every node's depth is <= neighbor depth + 1.
        for u in t.nodes() {
            if let Some(du) = tree.depth(u) {
                for &v in t.neighbors(u) {
                    if let Some(dv) = tree.depth(v) {
                        assert!(du <= dv + 1, "{u}:{du} vs {v}:{dv}");
                    }
                }
            }
        }
    }

    #[test]
    fn parent_child_consistency() {
        let t = random_topology(300, 450.0, 8);
        let tree = RoutingTree::build(&t, NodeId(0));
        for u in t.nodes() {
            for &c in tree.children(u) {
                assert_eq!(tree.parent(c), Some(u));
                assert_eq!(tree.depth(c), tree.depth(u).map(|d| d + 1));
            }
        }
        // Descendant counts sum to reachable nodes - 1.
        let reachable = t.nodes().filter(|&v| tree.depth(v).is_some()).count();
        assert_eq!(tree.descendants(NodeId(0)) as usize, reachable - 1);
    }

    #[test]
    fn deterministic_construction() {
        let t = random_topology(300, 450.0, 8);
        let a = RoutingTree::build(&t, NodeId(0));
        let b = RoutingTree::build(&t, NodeId(0));
        for v in t.nodes() {
            assert_eq!(a.parent(v), b.parent(v));
        }
    }

    #[test]
    fn rebuild_in_place_matches_fresh_build() {
        let t = random_topology(250, 420.0, 11);
        let fresh = RoutingTree::build(&t, NodeId(0));
        let mut reused = RoutingTree::build_excluding(&t, NodeId(0), &|a, b| {
            // Start from a different tree so the rebuild has real work.
            a == NodeId(1) || b == NodeId(1)
        });
        reused.rebuild(&t);
        for v in t.nodes() {
            assert_eq!(reused.parent(v), fresh.parent(v), "{v}");
            assert_eq!(reused.depth(v), fresh.depth(v), "{v}");
            assert_eq!(reused.descendants(v), fresh.descendants(v), "{v}");
            assert_eq!(reused.children(v), fresh.children(v), "{v}");
        }
        assert_eq!(reused.bottom_up_order(), fresh.bottom_up_order());
        assert_eq!(reused.max_depth(), fresh.max_depth());
    }

    #[test]
    fn excluded_links_reroute() {
        // Line 0-1-2 plus a detour 0-3-2 with longer links.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(30.0, 0.0),
            Position::new(60.0, 0.0),
            Position::new(30.0, 35.0),
        ];
        let t = Topology::new(positions, Area::new(100.0, 50.0), 50.0);
        let normal = RoutingTree::build(&t, NodeId(0));
        assert_eq!(normal.parent(NodeId(2)), Some(NodeId(1)));
        let broken = RoutingTree::build_excluding(&t, NodeId(0), &|a, b| {
            (a, b) == (NodeId(1), NodeId(2)) || (a, b) == (NodeId(2), NodeId(1))
        });
        assert_eq!(broken.parent(NodeId(2)), Some(NodeId(3)));
        assert_eq!(broken.depth(NodeId(2)), Some(2));
    }

    #[test]
    fn orders_are_consistent() {
        let t = random_topology(200, 400.0, 1);
        let tree = RoutingTree::build(&t, NodeId(0));
        let up = tree.bottom_up_order();
        // Every child appears before its parent.
        let pos: std::collections::HashMap<NodeId, usize> =
            up.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for v in t.nodes() {
            if let Some(p) = tree.parent(v) {
                assert!(pos[&v] < pos[&p]);
            }
        }
        assert_eq!(tree.top_down_order().first(), Some(&NodeId(0)));
    }

    #[test]
    fn post_order_is_subtree_major() {
        let t = random_topology(200, 400.0, 7);
        let tree = RoutingTree::build(&t, NodeId(0));
        let up = tree.bottom_up_order();
        // Root last; every subtree is a contiguous block ending at its root,
        // of exactly descendants + 1 nodes; root-child blocks ascend by id.
        assert_eq!(up.last(), Some(&tree.base()));
        let pos: std::collections::HashMap<NodeId, usize> =
            up.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for &v in up {
            let end = pos[&v];
            let size = tree.descendants(v) as usize + 1;
            assert!(end + 1 >= size, "{v}: block runs off the front");
            let block = &up[end + 1 - size..=end];
            // Every block member's path to the root of the block stays in
            // the block — i.e. the block is exactly subtree(v).
            for &m in block {
                let mut cur = m;
                while cur != v {
                    cur = tree.parent(cur).expect("block member below v");
                }
            }
        }
        // Pre-order mirrors it: root first, children ascending.
        let down = tree.top_down_order();
        assert_eq!(down.len(), up.len());
        let base_children = tree.children(tree.base());
        if !base_children.is_empty() {
            assert_eq!(down[1], base_children[0]);
        }
    }

    /// The repaired tree must be a valid tree over the live reachable set:
    /// live parents, consistent depths, base-anchored.
    fn assert_valid_tree(tree: &RoutingTree, t: &Topology, alive: &[bool]) {
        for v in t.nodes() {
            let i = v.0 as usize;
            if let Some(p) = tree.parent(v) {
                assert!(alive[i], "{v} is dead but has a parent");
                assert!(alive[p.0 as usize], "{v}'s parent {p} is dead");
                assert!(t.neighbors(v).contains(&p), "{v} -> {p} not a link");
                assert_eq!(tree.depth(v), tree.depth(p).map(|d| d + 1));
            } else if v != tree.base() {
                assert_eq!(tree.depth(v), None);
            }
        }
        // The per-position links are the post-order's own parents and depths.
        let order = tree.bottom_up_order().iter();
        for (&v, (u, p, d)) in order.zip(tree.bottom_up_links()) {
            assert_eq!((v, tree.depth(v)), (u, Some(d)));
            assert!(v == tree.base() || tree.parent(v) == Some(p));
        }
    }

    #[test]
    fn repair_after_removals_matches_rebuild_depths() {
        // Satellite invariant, deterministic instance: killing arbitrary
        // nodes and repairing locally spans exactly the base-reachable live
        // set, at the exact depths a full rebuild assigns.
        let t = random_topology(300, 450.0, 8);
        let base = NodeId(0);
        for kill_seed in 0..6u64 {
            let mut alive = vec![true; t.len()];
            for k in 0..12 {
                let victim = ((kill_seed * 131 + k * 37) % (t.len() as u64 - 1)) + 1;
                alive[victim as usize] = false;
            }
            let mut repaired = RoutingTree::build(&t, base);
            let rep = repaired.repair(&t, &alive);
            let rebuilt = RoutingTree::build_excluding(&t, base, &|a, b| {
                !alive[a.0 as usize] || !alive[b.0 as usize]
            });
            assert_valid_tree(&repaired, &t, &alive);
            for v in t.nodes() {
                assert_eq!(
                    repaired.depth(v),
                    rebuilt.depth(v),
                    "seed {kill_seed}: depth of {v} diverges"
                );
            }
            // The spanned set is exactly the base-reachable live set.
            let reach = t.reachable_from_alive(base, &alive);
            for v in t.nodes() {
                assert_eq!(
                    repaired.depth(v).is_some(),
                    alive[v.0 as usize] && reach[v.0 as usize],
                    "seed {kill_seed}: coverage of {v}"
                );
            }
            for &d in &rep.detached {
                assert!(!alive[d.0 as usize]);
            }
            for &r in &rep.reattached {
                assert!(repaired.depth(r).is_some());
            }
            for &o in &rep.orphaned {
                assert!(alive[o.0 as usize] && repaired.depth(o).is_none());
            }
        }
    }

    #[test]
    fn localized_epicenters_match_full_scan_repair() {
        // repair_localized fed exactly the flipped nodes must agree with the
        // wrapper's O(n) epicenter scan.
        let t = random_topology(300, 450.0, 13);
        let base = NodeId(0);
        let mut by_scan = RoutingTree::build(&t, base);
        let mut by_epicenter = by_scan.clone();
        let mut alive = vec![true; t.len()];
        let victims = [NodeId(17), NodeId(42), NodeId(108), NodeId(211)];
        for &v in &victims {
            alive[v.0 as usize] = false;
        }
        let ra = by_scan.repair(&t, &alive);
        let rb = by_epicenter.repair_localized(&t, &alive, &victims);
        assert_eq!(ra.detached, rb.detached);
        assert_eq!(ra.reattached, rb.reattached);
        assert_eq!(ra.orphaned, rb.orphaned);
        for v in t.nodes() {
            assert_eq!(by_scan.parent(v), by_epicenter.parent(v), "{v}");
            assert_eq!(by_scan.depth(v), by_epicenter.depth(v), "{v}");
        }
        // Now revive two of them; epicenters are just the revived pair.
        for &v in &victims[..2] {
            alive[v.0 as usize] = true;
        }
        let ra = by_scan.repair(&t, &alive);
        let rb = by_epicenter.repair_localized(&t, &alive, &victims[..2]);
        assert_eq!(ra.reattached, rb.reattached);
        assert_eq!(ra.orphaned, rb.orphaned);
        for v in t.nodes() {
            assert_eq!(by_scan.parent(v), by_epicenter.parent(v), "{v}");
            assert_eq!(by_scan.depth(v), by_epicenter.depth(v), "{v}");
        }
    }

    mod repair_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite proptest: after arbitrary node removals, localized
            /// repair spans exactly the base-station-reachable live set, at
            /// rebuild-identical depths, on random topologies.
            #[test]
            fn repair_spans_reachable_live_set(
                topo_seed in 0u64..50,
                n in 60usize..160,
                kills in prop::collection::vec(1u32..160, 0..25),
            ) {
                let t = random_topology(n, 380.0, topo_seed);
                let base = NodeId(0);
                let mut alive = vec![true; n];
                for k in kills {
                    let v = (k as usize) % n;
                    if v != base.0 as usize {
                        alive[v] = false;
                    }
                }
                let mut repaired = RoutingTree::build(&t, base);
                repaired.repair(&t, &alive);
                let rebuilt = RoutingTree::build_excluding(&t, base, &|a, b| {
                    !alive[a.0 as usize] || !alive[b.0 as usize]
                });
                assert_valid_tree(&repaired, &t, &alive);
                let reach = t.reachable_from_alive(base, &alive);
                for v in t.nodes() {
                    prop_assert_eq!(repaired.depth(v), rebuilt.depth(v), "depth of {}", v);
                    prop_assert_eq!(
                        repaired.depth(v).is_some(),
                        alive[v.0 as usize] && reach[v.0 as usize],
                        "coverage of {}", v
                    );
                }
            }
        }
    }

    #[test]
    fn repair_reattaches_revived_nodes() {
        let t = random_topology(200, 400.0, 5);
        let base = NodeId(0);
        let mut tree = RoutingTree::build(&t, base);
        let mut alive = vec![true; t.len()];
        // Kill a depth-1 node with a subtree, then revive it.
        let victim = *tree
            .children(base)
            .iter()
            .max_by_key(|&&c| tree.descendants(c))
            .unwrap();
        alive[victim.0 as usize] = false;
        let rep = tree.repair(&t, &alive);
        assert!(rep.detached.contains(&victim));
        assert_eq!(tree.depth(victim), None);
        assert_valid_tree(&tree, &t, &alive);
        alive[victim.0 as usize] = true;
        let rep2 = tree.repair(&t, &alive);
        assert!(rep2.reattached.contains(&victim));
        assert_eq!(
            tree.depth(victim),
            Some(1),
            "a base neighbor rejoins at depth 1"
        );
        assert_valid_tree(&tree, &t, &alive);
        // Set parity with a clean rebuild after the full crash+revive cycle.
        let rebuilt = RoutingTree::build(&t, base);
        for v in t.nodes() {
            assert_eq!(tree.depth(v).is_some(), rebuilt.depth(v).is_some());
        }
    }

    #[test]
    fn repair_without_changes_is_identity() {
        let t = random_topology(150, 350.0, 2);
        let mut tree = RoutingTree::build(&t, NodeId(0));
        let reference = tree.clone();
        let rep = tree.repair(&t, &vec![true; t.len()]);
        assert!(rep.is_empty());
        for v in t.nodes() {
            assert_eq!(tree.parent(v), reference.parent(v));
            assert_eq!(tree.depth(v), reference.depth(v));
            assert_eq!(tree.descendants(v), reference.descendants(v));
        }
    }

    /// A repaired tree (some nodes dead, some unreachable) imported from its
    /// parent array alone onto a fresh tree has the same depths and derived
    /// structures.
    #[test]
    fn import_derives_depths_from_parents() {
        let t = random_topology(200, 400.0, 5);
        let mut tree = RoutingTree::build(&t, NodeId(0));
        let mut alive = vec![true; t.len()];
        for v in (3..t.len()).step_by(7) {
            alive[v] = false;
        }
        tree.repair(&t, &alive);
        assert!(t
            .nodes()
            .any(|v| alive[v.0 as usize] && tree.depth(v).is_none()));
        let mut imported = RoutingTree::build(&t, NodeId(0));
        imported
            .import_tree(&tree.export_tree(), &t, &alive)
            .unwrap();
        for v in t.nodes() {
            assert_eq!(imported.depth(v), tree.depth(v), "{v}");
            assert_eq!(imported.children(v), tree.children(v), "{v}");
            assert_eq!(imported.descendants(v), tree.descendants(v), "{v}");
        }
        let links = |t: &RoutingTree| t.bottom_up_links().collect::<Vec<_>>();
        assert_eq!(links(&imported), links(&tree));
        assert_eq!(imported.max_depth(), tree.max_depth());
    }

    /// A parent array with a cycle, or with a chain that ends at a parentless
    /// node other than the base, is refused and leaves the tree as it was.
    #[test]
    fn import_refuses_parents_unreachable_from_the_base() {
        // A 5-hop line: 0 - 1 - 2 - 3 - 4.
        let positions = (0..5).map(|i| Position::new(40.0 * i as f64 + 1.0, 1.0));
        let t = Topology::new(positions.collect(), Area::new(200.0, 2.0), 50.0);
        let mut tree = RoutingTree::build(&t, NodeId(0));
        let alive = vec![true; 5];
        let good = tree.export_tree();
        let mut cycle = good.clone();
        (cycle[2], cycle[3]) = (3, 2);
        let mut dangling = good.clone();
        (dangling[3], dangling[4]) = (4, NO_PARENT);
        for parents in [cycle, dangling] {
            assert!(matches!(
                tree.import_tree(&parents, &t, &alive),
                Err(NetworkError::BadSnapshot(_))
            ));
            assert_eq!(tree.export_tree(), good);
            assert_eq!(tree.depth(NodeId(4)), Some(4));
        }
    }

    #[test]
    fn power_aware_reselection_rotates_by_residual() {
        // Diamond: base 0; 1 and 2 both at depth 1, equidistant from 3.
        let positions = vec![
            Position::new(50.0, 25.0),
            Position::new(90.0, 5.0),
            Position::new(90.0, 45.0),
            Position::new(130.0, 25.0),
        ];
        let t = Topology::new(positions, Area::new(200.0, 50.0), 50.0);
        let mut tree = RoutingTree::build(&t, NodeId(0));
        // Min-hop tie-break (equal links) lands on the smaller id.
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
        let alive = vec![true; 4];
        // Equal residuals: the min-hop choice is already the best.
        let same = tree.reselect_parents(&t, &alive, &[f64::INFINITY, 50.0, 50.0, 50.0]);
        assert!(same.is_empty());
        // Node 2 has more battery left: 3 rotates its subtree over.
        let moved = tree.reselect_parents(&t, &alive, &[f64::INFINITY, 10.0, 100.0, 50.0]);
        assert_eq!(moved, vec![NodeId(3)]);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.depth(NodeId(3)), Some(2), "depths never change");
        assert_eq!(tree.children(NodeId(2)), &[NodeId(3)]);
        assert_eq!(tree.children(NodeId(1)), &[] as &[NodeId]);
        assert_eq!(tree.descendants(NodeId(2)), 1);
        assert_valid_tree(&tree, &t, &alive);
        // And back, once 1 recovers the lead.
        let back = tree.reselect_parents(&t, &alive, &[f64::INFINITY, 100.0, 10.0, 50.0]);
        assert_eq!(back, vec![NodeId(3)]);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn unreachable_reported() {
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(900.0, 0.0),
        ];
        let t = Topology::new(positions, Area::new(1000.0, 1.0), 50.0);
        let tree = RoutingTree::build(&t, NodeId(0));
        assert_eq!(tree.unreachable(), vec![NodeId(2)]);
    }
}
