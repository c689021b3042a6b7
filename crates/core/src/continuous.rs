//! Continuous queries with temporal filter reuse — the paper's stated
//! follow-on work (§VIII: "we currently investigate if the filtering can be
//! optimized for continuous queries by exploiting temporal correlations").
//!
//! A `SAMPLE PERIOD` query re-executes every period. Re-running SENS-Join
//! from scratch repays the full pre-computation each round even when the
//! physical fields barely moved. [`ContinuousSensJoin`] keeps state between
//! rounds and ships only *deltas*:
//!
//! * **Delta collection** — a node reports its quantized join-attribute cell
//!   only when it *changed*; deltas are counted (two descendants may occupy
//!   the same cell), aggregated up the tree, and the base station maintains
//!   a reference-counted cell population.
//! * **Filter-delta dissemination** — the base recomputes the filter
//!   (CPU-only) and disseminates only added/removed filter cells, pruned per
//!   subtree exactly like Selective Filter Forwarding.
//! * **ε-suppressed final phase** — a matching node re-sends its complete
//!   tuple only when it newly matches or a referenced attribute drifted by
//!   more than `epsilon` since it last reported; nodes leaving the filter
//!   send a 2-byte retraction. The base answers each round from a
//!   streaming join over the tuples shipped so far.
//!
//! With `epsilon = 0` every value change of a matching node is re-reported
//! and the result is **exact** each round; with `epsilon > 0` the result is
//! computed from ≤ε-stale attribute values (the standard approximate-caching
//! trade-off in sensor databases). Treecut is disabled in continuous mode —
//! proxies would hold stale tuples across rounds — and nodes spend a little
//! more memory on counted subtree synopses; both trade-offs are inherent to
//! the delta design.
//!
//! Round 0 flows through the very same delta machinery (everything is an
//! "add"), so a single code path serves cold start and steady state.

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{prejoin_filter, JoinSpace};
use crate::ingest::{LiveTuple, StreamJoinEngine, StreamOp};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::persist::{self, Persist};
use crate::repr::{JoinAttrMsg, NodeTable};
use crate::snetwork::SensorNetwork;
use crate::wave::{down_wave, up_wave, DownArrival};
use std::vec::Drain;

/// Maximum number of times a continuous round is (re-)executed when data
/// loss survives the ARQ budget (first attempt included).
pub const MAX_ROUND_ATTEMPTS: u32 = 3;
use sensjoin_quadtree::{merge, Merged, Point, PointSet, RelFlags};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{DeltaBatchStats, NetworkStats, RoutingTree, Time};
use std::cell::RefCell;
use std::collections::HashMap;

/// Phase labels of the continuous rounds.
pub const PHASE_DELTA_COLLECTION: &str = "1-delta-collection";
/// Filter-delta dissemination label.
pub const PHASE_FILTER_DELTA: &str = "2-filter-delta";
/// ε-suppressed final phase label.
pub const PHASE_FINAL_DELTA: &str = "3-final-delta";

/// Counted cell population: per cell, one reference counter per
/// relation-role flag bit (two descendants of a routing-tree node may occupy
/// the same cell, so plain set semantics would lose removals).
pub type CellCounts = HashMap<u64, [i64; 8]>;

/// A cell's role presence: the flag bits whose counters are positive.
fn presence(counts: &[i64; 8]) -> u8 {
    debug_assert!(counts.iter().all(|&c| c >= 0), "negative cell count");
    (0..8).filter(|&b| counts[b] > 0).fold(0, |f, b| f | 1 << b)
}

/// Folds `delta` into `into`, dropping cells whose counters all return to
/// zero, and calls `moved(z, flags)` for each cell whose presence changed.
fn fold_delta(into: &mut CellCounts, delta: &CellCounts, mut moved: impl FnMut(u64, u8)) {
    for (&z, d) in delta {
        let e = into.entry(z).or_insert([0; 8]);
        let old = presence(e);
        e.iter_mut().zip(d).for_each(|(c, d)| *c += d);
        let new = presence(e);
        if e.iter().all(|&c| c == 0) {
            into.remove(&z);
        }
        if old != new {
            moved(z, new);
        }
    }
}

/// The present cells of `counts`, each with its role presence.
fn counts_to_set(counts: &CellCounts) -> PointSet {
    let points = counts.iter().map(|(&z, c)| Point {
        z,
        flags: RelFlags(presence(c)),
    });
    PointSet::from_points(points.filter(|p| !p.flags.is_empty()))
}

/// A round's own counted cells: the [`CellCounts`] of a delta's additions
/// or removals, or of a node's subtree, as a vector sorted by z with no
/// all-zero entry. Folding, sizing and pruning are then closures over the
/// z-sorted [`merge`], like the paper's `Union` and `Intersect` (§V); the
/// hash-keyed [`CellCounts`] is what [`FilterEngine`] takes, built once per
/// round at the base ([`Delta::net`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SortedCounts(Vec<(u64, [i64; 8])>);

impl SortedCounts {
    /// Every cell of `cells` counted once in each of its flag bits.
    fn of_cells(cells: impl IntoIterator<Item = (u64, u8)>) -> Self {
        let mut cells: Vec<(u64, u8)> = cells.into_iter().filter(|c| c.1 != 0).collect();
        cells.sort_unstable_by_key(|c| c.0);
        let mut out: Vec<(u64, [i64; 8])> = Vec::new();
        for (z, flags) in cells {
            if out.last().is_none_or(|e| e.0 != z) {
                out.push((z, [0; 8]));
            }
            let counts = &mut out.last_mut().expect("just pushed").1;
            counts
                .iter_mut()
                .zip(once(flags))
                .for_each(|(c, d)| *c += d);
        }
        Self(out)
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Adds `sign` times `delta`, dropping cells whose counters all return
    /// to zero, and calls `moved(z, flags)` for each cell whose role
    /// presence changed — [`fold_delta`] over sorted cells. Cells counted
    /// here before and after are updated in place; the first cell to
    /// appear or vanish sends the rest of `delta` through one merge.
    fn fold(&mut self, delta: &[(u64, [i64; 8])], sign: i64, mut moved: impl FnMut(u64, u8)) {
        let mut at = 0;
        for (j, (z, d)) in delta.iter().enumerate() {
            at += self.0[at..].partition_point(|e| e.0 < *z);
            let Some((_, counts)) = self.0.get_mut(at).filter(|e| e.0 == *z) else {
                return self.merge(&delta[j..], sign, moved);
            };
            let was = *counts;
            counts.iter_mut().zip(d).for_each(|(c, d)| *c += sign * d);
            if *counts == [0; 8] {
                *counts = was;
                return self.merge(&delta[j..], sign, moved);
            }
            if presence(&was) != presence(counts) {
                moved(*z, presence(counts));
            }
        }
    }

    /// [`SortedCounts::fold`] as one merge of the two sequences.
    fn merge(&mut self, b: &[(u64, [i64; 8])], sign: i64, mut moved: impl FnMut(u64, u8)) {
        self.0 = sum(&self.0, b, sign, |z, was, now| {
            if presence(was) != presence(now) {
                moved(z, presence(now));
            }
        });
    }

    /// The present cells, each with its role presence.
    fn presence_set(&self) -> PointSet {
        let points = self.0.iter().map(|(z, c)| Point {
            z: *z,
            flags: RelFlags(presence(c)),
        });
        PointSet::from_sorted(points.filter(|p| !p.flags.is_empty()).collect())
    }

    /// The points of `set` at cells counted here, their flags masked by
    /// `mask` of the cell's counters, those left empty dropped.
    fn restrict(&self, set: &PointSet, mask: impl Fn(&[i64; 8]) -> u8) -> PointSet {
        let mut out = Vec::new();
        merge(set.points(), &self.0, |m| {
            if let Merged::Both(p, (_, counts)) = m {
                let flags = RelFlags(p.flags.0 & mask(counts));
                out.extend((!flags.is_empty()).then_some(Point { z: p.z, flags }));
            }
        });
        PointSet::from_sorted(out)
    }

    /// `set` narrowed to the cells present here, each to its role presence:
    /// `set.intersect(&counts_to_set(..))` of these counts, with no set
    /// built.
    fn prune(&self, set: &PointSet) -> PointSet {
        self.restrict(set, presence)
    }

    /// The hash-keyed form.
    fn to_counts(&self) -> CellCounts {
        self.0.iter().copied().collect()
    }
}

/// Cell-wise `a + sign · b` of two counted-cell sequences, all-zero cells
/// dropped; `each(z, was, now)` sees every cell of `b`.
fn sum(
    a: &[(u64, [i64; 8])],
    b: &[(u64, [i64; 8])],
    sign: i64,
    mut each: impl FnMut(u64, &[i64; 8], &[i64; 8]),
) -> Vec<(u64, [i64; 8])> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut add = |out: &mut Vec<_>, z, was: &[i64; 8], d: &[i64; 8]| {
        let now = std::array::from_fn(|k| was[k] + sign * d[k]);
        if now != [0; 8] {
            out.push((z, now));
        }
        each(z, was, &now);
    };
    merge(a, b, |m| match m {
        Merged::Left(run) => out.extend_from_slice(run),
        Merged::Right(run) => run.iter().for_each(|(z, d)| add(&mut out, *z, &[0; 8], d)),
        Merged::Both((z, was), (_, d)) => add(&mut out, *z, was, d),
    });
    out
}

/// The base station's pre-join filter over the population the nodes
/// reported, kept across the rounds of a continuous query. Each round's
/// counted cell delta is folded into the counts; if it changed some cell's
/// role presence, the filter is the batch semi-join [`prejoin_filter`] over
/// the new population, and otherwise the cached filter stands. There is one
/// filter for both wires: a round's is the one a one-shot over the same
/// cells computes, and the delta wire decides only what is shipped.
///
/// ```
/// use sensjoin_core::*;
/// use sensjoin_field::{Area, Placement};
///
/// let snet = SensorNetworkBuilder::new()
///     .area(Area::new(200.0, 200.0))
///     .placement(Placement::UniformRandom { n: 40 })
///     .build()
///     .unwrap();
/// let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.0 ONCE";
/// let cq = snet.compile(&sensjoin_query::parse(sql).unwrap()).unwrap();
/// let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
/// let mut engine = FilterEngine::new(&cq, &space);
/// // Two nodes appear one cell apart, each counted once in both roles.
/// let mut delta = CellCounts::new();
/// for temp in [20.0, 22.0] {
///     let e = delta.entry(space.encode(&[Some(temp)])).or_insert([0; 8]);
///     (0..2).for_each(|r| e[space.flag(r).0.trailing_zeros() as usize] += 1);
/// }
/// let filter = engine.apply_delta(&cq, &space, &delta).clone();
/// assert_eq!(filter, prejoin_filter(&cq, &space, engine.population()));
/// ```
#[derive(Clone, Default)]
pub struct FilterEngine {
    counts: CellCounts,
    /// The present cells of `counts`, each with its role presence.
    population: PointSet,
    filter: PointSet,
}

impl FilterEngine {
    /// The engine over the empty population, whose filter is empty.
    pub fn new(_query: &CompiledQuery, _space: &JoinSpace) -> Self {
        Self::default()
    }

    /// The population: every present cell with its role presence.
    pub fn population(&self) -> &PointSet {
        &self.population
    }

    /// The reference-counted population.
    pub fn counts(&self) -> &CellCounts {
        &self.counts
    }

    /// The filter: `prejoin_filter` over [`FilterEngine::population`].
    pub fn filter(&self) -> &PointSet {
        &self.filter
    }

    /// Folds one round's counted cell delta into the population and returns
    /// the filter, rebuilt only if some cell's role presence changed.
    pub fn apply_delta(
        &mut self,
        query: &CompiledQuery,
        space: &JoinSpace,
        delta: &CellCounts,
    ) -> &PointSet {
        let mut moved = Vec::new();
        fold_delta(&mut self.counts, delta, |z, flags| {
            moved.push(Point {
                z,
                flags: RelFlags(flags),
            })
        });
        if !moved.is_empty() {
            // The moved cells overwrite the population's: one merge, which
            // drops the cells no role is present in any more.
            moved.sort_unstable_by_key(|p| p.z);
            let mut population = Vec::with_capacity(self.population.len() + moved.len());
            merge(self.population.points(), &moved, |m| match m {
                Merged::Left(run) | Merged::Right(run) => population.extend_from_slice(run),
                Merged::Both(_, p) => population.extend((!p.flags.is_empty()).then_some(*p)),
            });
            self.population = PointSet::from_sorted(population);
            self.filter = prejoin_filter(query, space, &self.population);
        }
        &self.filter
    }
}

/// The counters of a cell held once in each role of `flags`.
fn once(flags: u8) -> [i64; 8] {
    std::array::from_fn(|b| i64::from(flags >> b & 1))
}

/// Folds one engine batch's counters into the cumulative accounting.
fn record_batch(into: &mut DeltaBatchStats, b: &crate::ingest::BatchStats) {
    into.record(
        b.ops as u64,
        b.inserted as u64,
        b.expired as u64,
        b.rows_added as u64,
        b.rows_removed as u64,
        b.candidates as u64,
    );
}

/// A cell-population delta traveling up the tree in phase 1. Additions and
/// removals aggregate *separately*: two nodes swapping cells must not cancel
/// each other out, or the base could never re-announce the filter state of
/// the swapped-into cell to its new holder.
#[derive(Debug, Clone, Default)]
struct Delta {
    adds: SortedCounts,
    dels: SortedCounts,
    /// Wire size, once computed; dropped when the content changes. A relay
    /// with nothing of its own to report forwards its only child's delta —
    /// and its size — unchanged.
    bytes: Option<usize>,
}

impl Delta {
    fn record(&mut self, cell: Point, sign: i64) {
        self.bytes = None;
        let counts = if sign > 0 {
            &mut self.adds
        } else {
            &mut self.dels
        };
        counts.fold(&[(cell.z, once(cell.flags.0))], 1, |_, _| {});
    }

    fn merge(&mut self, other: &Delta) {
        self.bytes = None;
        self.adds.fold(&other.adds.0, 1, |_, _| {});
        self.dels.fold(&other.dels.0, 1, |_, _| {});
    }

    /// The net population change (adds − dels) in the form
    /// [`FilterEngine::apply_delta`] takes.
    fn net(&self) -> CellCounts {
        sum(&self.adds.0, &self.dels.0, -1, |_, _, _| {})
            .into_iter()
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.dels.is_empty()
    }

    /// Wire size: the added and removed cell sets travel quadtree-encoded;
    /// multiplicities beyond the first per (cell, role) cost one extra byte.
    fn wire_size(&mut self, space: &JoinSpace) -> usize {
        if let Some(bytes) = self.bytes {
            return bytes;
        }
        let bytes = self.compute_wire_size(space);
        self.bytes = Some(bytes);
        bytes
    }

    fn compute_wire_size(&self, space: &JoinSpace) -> usize {
        if self.is_empty() {
            return 0;
        }
        let extra: i64 = (self.adds.0.iter().chain(&self.dels.0))
            .flat_map(|(_, counts)| counts)
            .map(|&cnt| (cnt - 1).max(0))
            .sum();
        let adds = self.adds.presence_set();
        let dels = self.dels.presence_set();
        JoinAttrMsg::filter_wire_size(&adds, Representation::Quadtree, space)
            + JoinAttrMsg::filter_wire_size(&dels, Representation::Quadtree, space)
            + extra as usize
            + 1 // add/del split marker
    }
}

/// A filter delta traveling down the tree in phase 2.
#[derive(Debug, Clone, Default)]
struct FilterDelta {
    added: PointSet,
    removed: PointSet,
    /// Per cell either side holds, its `[added, removed]` flags: what
    /// [`FilterDelta::apply`] merges a view with.
    change: Vec<(u64, [u8; 2])>,
}

impl FilterDelta {
    fn new(added: PointSet, removed: PointSet) -> Self {
        let mut change = Vec::with_capacity(added.len() + removed.len());
        merge(added.points(), removed.points(), |m| match m {
            Merged::Left(run) => change.extend(run.iter().map(|p| (p.z, [p.flags.0, 0]))),
            Merged::Right(run) => change.extend(run.iter().map(|p| (p.z, [0, p.flags.0]))),
            Merged::Both(a, r) => change.push((a.z, [a.flags.0, r.flags.0])),
        });
        Self {
            added,
            removed,
            change,
        }
    }

    fn is_empty(&self) -> bool {
        self.change.is_empty()
    }

    fn wire_size(&self, space: &JoinSpace) -> usize {
        if self.is_empty() {
            return 0;
        }
        JoinAttrMsg::filter_wire_size(&self.added, Representation::Quadtree, space)
            + JoinAttrMsg::filter_wire_size(&self.removed, Representation::Quadtree, space)
            + 1
    }

    /// Appends a node's filter view with the delta applied, `(view ∪
    /// added) − removed`, to `out`: one merge of the view with `change`.
    fn apply(&self, view: &[Point], out: &mut Vec<Point>) {
        let put = |out: &mut Vec<Point>, z, flags: u8| {
            out.extend((flags != 0).then_some(Point {
                z,
                flags: RelFlags(flags),
            }))
        };
        merge(view, &self.change, |m| match m {
            Merged::Left(run) => out.extend_from_slice(run),
            Merged::Right(run) => run.iter().for_each(|&(z, [a, r])| put(out, z, a & !r)),
            Merged::Both(p, &(z, [a, r])) => put(out, z, (p.flags.0 | a) & !r),
        });
    }

    /// The delta a node forwards to its children: each side narrowed to the
    /// cells of the node's subtree synopsis `sub` (Selective Filter
    /// Forwarding on deltas). Debug builds derive it the old way as well —
    /// intersecting with the subtree's presence set — and must agree.
    fn prune(&self, sub: &SortedCounts) -> FilterDelta {
        let pruned = FilterDelta::new(sub.prune(&self.added), sub.prune(&self.removed));
        debug_assert!(
            {
                let cells = counts_to_set(&sub.to_counts());
                pruned.added == self.added.intersect(&cells)
                    && pruned.removed == self.removed.intersect(&cells)
            },
            "a pruned filter delta is not its intersection with the subtree's cells"
        );
        pruned
    }
}

/// A per-node table as one column: a presence bitmap — bit `v % 8` of
/// byte `v / 8` marks node `v`, the layout the image writes — and one flat
/// buffer of `width` values a node, node `v`'s row at `v · width`. A
/// decoded column is *packed* — its marked rows back to back, as the image
/// holds them, so it allocates no more than the image backs — until
/// [`NodeRows::spread`] lays it out per node, once a round's network has
/// confirmed its shape.
#[derive(Debug, Clone)]
struct NodeRows<T> {
    present: Vec<u8>,
    nodes: usize,
    width: usize,
    data: Vec<T>,
    packed: bool,
}

impl<T: Copy> NodeRows<T> {
    /// `nodes` unmarked rows of `width` values `fill`.
    fn new(nodes: usize, width: usize, fill: T) -> Self {
        Self {
            present: vec![0; nodes.div_ceil(8)],
            nodes,
            width,
            data: vec![fill; nodes * width],
            packed: false,
        }
    }

    fn has(&self, v: usize) -> bool {
        self.present[v / 8] >> (v % 8) & 1 == 1
    }

    /// Node `v`'s row, if marked.
    fn row(&self, v: usize) -> Option<&[T]> {
        debug_assert!(!self.packed, "a packed column is indexed by rank");
        let at = v * self.width;
        self.has(v).then(|| &self.data[at..at + self.width])
    }

    /// Marks node `v` and overwrites its row with `row`.
    fn set(&mut self, v: usize, row: &[T]) {
        debug_assert!(!self.packed, "a packed column is indexed by rank");
        self.present[v / 8] |= 1 << (v % 8);
        self.data[v * self.width..(v + 1) * self.width].copy_from_slice(row);
    }

    /// Unmarks node `v`; returns whether it was marked.
    fn clear(&mut self, v: usize) -> bool {
        let was = self.has(v);
        self.present[v / 8] &= !(1 << (v % 8));
        was
    }

    /// The column a decoded `present` bitmap and its marked rows make.
    fn packed(nodes: usize, present: &[u8], width: usize, data: Vec<T>) -> Self {
        Self {
            present: present.to_vec(),
            nodes,
            width,
            data,
            packed: true,
        }
    }

    fn marked(&self) -> usize {
        ones(&self.present)
    }

    /// The marked nodes in id order, each with its row.
    fn rows(&self) -> impl Iterator<Item = (usize, &[T])> {
        let marked = (0..self.nodes).filter(|&v| self.has(v));
        marked.enumerate().map(|(rank, v)| {
            let at = if self.packed { rank } else { v } * self.width;
            (v, &self.data[at..at + self.width])
        })
    }

    /// Lays a packed column out per node, unmarked rows `fill`.
    fn spread(&mut self, fill: T) {
        if self.packed {
            let mut data = vec![fill; self.nodes * self.width];
            for (v, row) in self.rows() {
                data[v * self.width..(v + 1) * self.width].copy_from_slice(row);
            }
            (self.data, self.packed) = (data, false);
        }
    }
}

/// How many nodes a presence bitmap marks.
fn ones(bitmap: &[u8]) -> usize {
    bitmap.iter().map(|b| b.count_ones() as usize).sum()
}

/// Every node's filter view in one buffer (CSR): node `v`'s z-sorted view
/// is `points[offsets[v]..offsets[v + 1]]`. A round rewrites every view in
/// one pass into the spare buffers, then swaps them in.
#[derive(Debug, Clone, Default)]
struct Views {
    offsets: Vec<u32>,
    points: Vec<Point>,
    spare: (Vec<u32>, Vec<Point>),
}

impl Views {
    /// `nodes` empty views.
    fn new(nodes: usize) -> Self {
        Self {
            offsets: vec![0; nodes + 1],
            ..Self::default()
        }
    }

    fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, v: usize) -> &[Point] {
        &self.points[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether node `v`'s view holds cell `z` in a role of `flags`.
    fn matches(&self, v: usize, z: u64, flags: RelFlags) -> bool {
        let view = self.row(v);
        let at = view.binary_search_by_key(&z, |p| p.z);
        at.is_ok_and(|i| view[i].flags.intersects(flags))
    }

    /// Rewrites every view: `view(v, old, out)` appends node `v`'s new view,
    /// given its old one, to `out`.
    fn rebuild(&mut self, mut view: impl FnMut(usize, &[Point], &mut Vec<Point>)) {
        let (mut offsets, mut points) = std::mem::take(&mut self.spare);
        offsets.clear();
        points.clear();
        offsets.push(0);
        for v in 0..self.nodes() {
            view(v, self.row(v), &mut points);
            offsets.push(u32::try_from(points.len()).expect("views fit u32 offsets"));
        }
        self.spare = (
            std::mem::replace(&mut self.offsets, offsets),
            std::mem::replace(&mut self.points, points),
        );
    }
}

/// Per-round persistent state. A checkpoint holds the inputs — `space`'s
/// dimension ranges, `last_cell`, `last_values`, `node_filter`, `rounds` —
/// and a restore derives the rest.
struct State {
    space: JoinSpace,
    /// Per node: the cell last reported into the population.
    last_cell: NodeRows<Point>,
    /// Per node: master values last shipped to the base, a row of the
    /// master arity; marked exactly while the node's tuple is live in
    /// `stream`, which holds their projection ([`shipped_tuples`]).
    last_values: NodeRows<f64>,
    /// Per node: current (delta-maintained) filter view.
    node_filter: Views,
    /// Per node: counted cell population of its subtree (incl. itself) —
    /// [`subtree_counts`] of `last_cell` over the routing tree. Empty after
    /// a restore, until the next round rebuilds it.
    subtree: Vec<SortedCounts>,
    /// Base station: the filter over the global population (the sum of
    /// `last_cell`), and the filter as of the last round (for delta
    /// dissemination).
    engine: FilterEngine,
    filter: PointSet,
    /// Base station: persistent streaming join over the shipped tuples.
    /// Each round's tuple deltas update the cached result in O(Δ) instead
    /// of re-running the batch join over every shipped tuple. Empty after a
    /// restore, until the next round replays [`shipped_tuples`].
    stream: StreamJoinEngine,
    rounds: u64,
}

/// The unmarked row of a cell column.
const NO_CELL: Point = Point {
    z: 0,
    flags: RelFlags(0),
};

/// The nodes of `last_cell` that reported a cell, each with its
/// `(z, flags)`.
fn cells(last_cell: &NodeRows<Point>) -> impl Iterator<Item = (usize, (u64, u8))> + '_ {
    last_cell
        .rows()
        .map(|(v, row)| (v, (row[0].z, row[0].flags.0)))
}

/// Per node, the counted cell population of its subtree: every reported
/// cell counts at its node and at each of the node's ancestors.
fn subtree_counts(last_cell: &NodeRows<Point>, routing: &RoutingTree) -> Vec<SortedCounts> {
    let mut counted: Vec<Vec<(u64, u8)>> = vec![Vec::new(); last_cell.nodes];
    for (i, cell) in cells(last_cell) {
        let mut at = Some(NodeId(i as u32));
        while let Some(u) = at {
            counted[u.0 as usize].push(cell);
            at = routing.parent(u);
        }
    }
    counted.into_iter().map(SortedCounts::of_cells).collect()
}

/// The `per_rel` of node `v`'s [`StreamOp::Upsert`] when its master row is
/// `row`: per relation of `query`, the row's values in the relation's schema
/// if `v` belongs to it and they pass its local predicates.
pub fn node_tuples(
    snet: &SensorNetwork,
    query: &CompiledQuery,
    v: NodeId,
    row: &[f64],
) -> Vec<Option<Vec<f64>>> {
    (0..query.num_relations())
        .map(|r| {
            let schema = query.schema(r);
            let cols = snet.master_columns(schema);
            let tuple: Vec<f64> = cols.iter().map(|&c| row[c]).collect();
            (snet.belongs(v, schema.name()) && query.eval_local(r, &tuple)).then_some(tuple)
        })
        .collect()
}

/// What the nodes shipped, as the stream holds it: per node with shipped
/// values, in origin order, its [`node_tuples`] of those values.
fn shipped_tuples(st: &State, snet: &SensorNetwork, query: &CompiledQuery) -> Vec<LiveTuple> {
    let tuples = st.last_values.rows().map(|(v, row)| {
        let v = NodeId(v as u32);
        (v, node_tuples(snet, query, v, row))
    });
    tuples.collect()
}

/// Master indices of the attributes `query` references: the columns whose
/// drift past `epsilon` makes a matching node re-report.
fn drift_attrs(snet: &SensorNetwork, query: &CompiledQuery) -> Vec<usize> {
    let mut attrs: Vec<usize> = Vec::new();
    for r in 0..query.num_relations() {
        let cols = snet.master_columns(query.schema(r));
        for col in query.referenced_attrs(r).iter().map(|&a| cols[a]) {
            if !attrs.contains(&col) {
                attrs.push(col);
            }
        }
    }
    attrs
}

/// The continuous SENS-Join executor. Create once per `SAMPLE PERIOD`
/// query; call [`ContinuousSensJoin::execute_round`] after each resample.
///
/// # Example
///
/// ```
/// use sensjoin_core::{ContinuousSensJoin, SensorNetworkBuilder};
/// use sensjoin_field::{presets, Area, Placement};
/// use sensjoin_query::parse;
///
/// let mut snet = SensorNetworkBuilder::new()
///     .area(Area::new(300.0, 300.0))
///     .placement(Placement::UniformRandom { n: 100 })
///     .seed(3)
///     .build()
///     .unwrap();
/// let q = parse(
///     "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
///      WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30",
/// ).unwrap();
/// let cq = snet.compile(&q).unwrap();
/// let mut cont = ContinuousSensJoin::new(); // epsilon = 0: exact rounds
/// let cold = cont.execute_round(&mut snet, &cq).unwrap();
/// // Unchanged snapshot: the steady state is free.
/// let warm = cont.execute_round(&mut snet, &cq).unwrap();
/// assert_eq!(warm.stats.total_tx_packets(), 0);
/// assert!(warm.result.same_result(&cold.result));
/// ```
pub struct ContinuousSensJoin {
    /// Protocol parameters (Treecut is ignored — continuous mode keeps every
    /// node active).
    pub config: SensJoinConfig,
    /// Value-drift threshold for re-reporting (0 = exact results).
    pub epsilon: f64,
    state: Option<State>,
    /// Streaming-ingestion accounting, cumulative across rounds (survives
    /// re-execution resyncs, which rebuild the engine).
    delta_stats: DeltaBatchStats,
    /// Previous round's latency — the simulated time that elapsed since the
    /// last churn boundary (rounds are the continuous executor's boundaries).
    last_latency_us: Time,
}

impl ContinuousSensJoin {
    /// An exact (`epsilon = 0`) continuous executor with paper defaults.
    pub fn new() -> Self {
        Self::with_epsilon(0.0)
    }

    /// A continuous executor tolerating ≤`epsilon` staleness per referenced
    /// attribute.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0);
        Self {
            config: SensJoinConfig::default(),
            epsilon,
            state: None,
            delta_stats: DeltaBatchStats::default(),
            last_latency_us: 0,
        }
    }

    /// Number of rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.rounds)
    }

    /// Accumulated streaming-ingestion accounting: how much incremental
    /// join work the base station performed across all rounds so far.
    pub fn delta_stats(&self) -> DeltaBatchStats {
        self.delta_stats
    }

    /// Serializes what the executor cannot recompute: the cumulative
    /// accounting plus, when warm, the inputs of the per-round `State`
    /// (quantization ranges, per-node baselines and filter views, the
    /// round count). The query and config are *not*
    /// serialized — the resuming process reconstructs them
    /// deterministically and passes the query to
    /// [`ContinuousSensJoin::restore_state`] — and neither is anything
    /// derived from the inputs, so an image cannot disagree with itself.
    ///
    /// Each per-node column is one bulk write: the node count; the cells'
    /// presence bitmap and the marked cells bit-packed at the space's key
    /// width ([`persist::put_points`]); the values' bitmap, the row width
    /// and the marked rows as raw `f64` bits; the view lengths as `u32`s
    /// and every view's points packed like the cells.
    pub fn encode_state(&self, w: &mut persist::Writer) {
        self.delta_stats.put(w);
        w.put_u64(self.last_latency_us);
        w.put_bool(self.state.is_some());
        if let Some(st) = &self.state {
            st.space.to_parts().put(w);
            let shape = st.space.shape();
            let (cells, values, views) = (&st.last_cell, &st.last_values, &st.node_filter);
            let packed = |count: usize| 8 + (count * shape.total_bits() as usize).div_ceil(8);
            let bitmap = cells.present.len();
            let reserved = 8
                + bitmap
                + packed(cells.marked())
                + bitmap
                + 8
                + 8 * values.marked() * values.width
                + 8
                + 4 * views.nodes()
                + packed(views.points.len())
                + 8;
            w.reserve(reserved);
            let start = w.len();
            w.put_usize(cells.nodes);
            w.put_raw(&cells.present);
            let marked = cells.rows().map(|(_, row)| &row[0]);
            persist::put_points(w, shape, cells.marked(), marked);
            w.put_raw(&values.present);
            w.put_usize(values.width);
            values.rows().for_each(|(_, row)| w.put_f64s(row));
            let lens = views.offsets.windows(2).map(|o| o[1] - o[0]);
            w.put_fixed(lens, u32::to_le_bytes);
            persist::put_points(w, shape, views.points.len(), &views.points);
            w.put_u64(st.rounds);
            debug_assert_eq!(w.len() - start, reserved, "the columns' reserved size");
        }
    }

    /// Restores state serialized by [`ContinuousSensJoin::encode_state`].
    /// `query` must be the same compiled query the state was saved under.
    /// The filter engine is rebuilt by applying the population the nodes
    /// last reported as one delta from empty: the live engine's counts, so
    /// its population and filter. The subtree synopses and the stream need
    /// the network, which is restored after the executor: the next round
    /// rebuilds them. An image that fails to decode changes nothing.
    pub fn restore_state(
        &mut self,
        r: &mut persist::Reader<'_>,
        query: &CompiledQuery,
    ) -> Result<(), persist::CodecError> {
        use persist::CodecError;
        let delta_stats = Persist::get(r)?;
        let last_latency_us = r.get_u64()?;
        let state = if r.get_bool()? {
            let space = persist::join_space_from_parts(query, Persist::get(r)?)?;
            let shape = space.shape();
            let nodes = r.get_usize()?;
            // Every node has a bit in each bitmap, so the input bounds it.
            let present = r.get_bitmap(nodes)?;
            if nodes > u32::MAX as usize {
                return Err(CodecError::Oversize);
            }
            let mut reported = Vec::new();
            persist::get_points(r, shape, ones(present), &mut reported)?;
            let last_cell = NodeRows::packed(nodes, present, 1, reported);
            let present = r.get_bitmap(nodes)?;
            let width = r.get_usize()?;
            let values = ones(present).checked_mul(width);
            let values = r.get_f64s(values.ok_or(CodecError::Oversize)?)?;
            let last_values = NodeRows::packed(nodes, present, width, values);
            if r.get_usize()? != nodes {
                return Err(CodecError::Invariant("view lengths of another node count"));
            }
            let lens = r.get_raw(nodes.checked_mul(4).ok_or(CodecError::Oversize)?)?;
            let mut offsets = Vec::with_capacity(nodes + 1);
            offsets.push(0u32);
            for len in lens.chunks_exact(4) {
                let len = u32::from_le_bytes(len.try_into().expect("four bytes"));
                let end = offsets[offsets.len() - 1].checked_add(len);
                offsets.push(end.ok_or(CodecError::Oversize)?);
            }
            let mut node_filter = Views {
                offsets,
                ..Views::default()
            };
            let total = node_filter.offsets[nodes] as usize;
            persist::get_points(r, shape, total, &mut node_filter.points)?;
            let rounds = r.get_u64()?;
            if (0..nodes).any(|v| node_filter.row(v).windows(2).any(|p| p[0].z >= p[1].z)) {
                return Err(CodecError::Invariant("view not strictly sorted"));
            }
            let population = SortedCounts::of_cells(cells(&last_cell).map(|(_, cell)| cell));
            let mut engine = FilterEngine::new(query, &space);
            let filter = engine
                .apply_delta(query, &space, &population.to_counts())
                .clone();
            Some(State {
                space,
                last_cell,
                last_values,
                node_filter,
                subtree: Vec::new(),
                engine,
                filter,
                stream: StreamJoinEngine::new(query.clone()),
                rounds,
            })
        } else {
            None
        };
        (self.delta_stats, self.last_latency_us, self.state) =
            (delta_stats, last_latency_us, state);
        Ok(())
    }

    /// Executes one round on the network's current snapshot.
    ///
    /// On a lossy channel, a permanently lost delta (after the ARQ budget)
    /// desynchronizes the distributed per-node state the incremental
    /// protocol relies on. The recovery is the paper's §IV-F re-execution:
    /// drop all state and re-run the round as a cold full collection, up to
    /// [`MAX_ROUND_ATTEMPTS`] times. All attempts' traffic is charged to the
    /// returned stats; `complete` is `false` only if even the last attempt
    /// lost data.
    pub fn execute_round(
        &mut self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        snet.net_mut().reset_stats();
        self.adopt_restored(snet, query)?;
        // Rounds are the continuous executor's churn boundaries: crashes and
        // revivals take effect between rounds, never mid-round, so every
        // round's contributing set is the population alive at its start.
        let mut churned = false;
        if snet.net().has_churn() {
            let out = snet.net_mut().apply_churn(self.last_latency_us);
            churned = !out.crashed.is_empty() || !out.revived.is_empty();
            if !out.is_empty() {
                self.reconcile_churn(snet, query);
            }
        }
        let mut out = self.round_once(snet, query)?;
        let mut attempts = 1;
        while !out.complete && attempts < MAX_ROUND_ATTEMPTS {
            attempts += 1;
            // Resync: discard every node's delta baseline and the base's
            // tuples, then replay the round as a first (full) round.
            self.state = None;
            let prev = out;
            out = self.round_once(snet, query)?;
            // Re-execution is sequential: latencies add up. Stats are
            // cumulative already (reset only happens above).
            out.latency_us += prev.latency_us;
            out.latency_slotted_us += prev.latency_slotted_us;
        }
        if !out.complete {
            // Even the last attempt lost data: nodes advanced their delta
            // baselines for messages the base never saw, so the distributed
            // state is desynchronized. Drop it — the next round cold-starts
            // as a full collection instead of trusting poisoned baselines
            // (whose retractions could underflow the base's cell counts).
            self.state = None;
        }
        out.stats = snet.net_mut().take_stats();
        out.churned = churned;
        self.last_latency_us = out.latency_us;
        Ok(out)
    }

    /// First round after a restore: checks that the restored per-node
    /// tables describe `snet` — `restore_state` cannot see the network —
    /// and rebuilds the subtree synopses over its routing tree and the
    /// stream from the shipped values.
    fn adopt_restored(
        &mut self,
        snet: &SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<(), ProtocolError> {
        let Some(st) = self.state.as_mut().filter(|st| st.subtree.is_empty()) else {
            return Ok(());
        };
        if st.last_cell.nodes != snet.len() || st.last_values.width != snet.master_schema().arity()
        {
            return Err(ProtocolError::ForeignCheckpoint);
        }
        st.last_cell.spread(NO_CELL);
        st.last_values.spread(0.0);
        st.subtree = subtree_counts(&st.last_cell, snet.net().routing());
        st.stream = StreamJoinEngine::restore(query.clone(), &shipped_tuples(st, snet, query));
        Ok(())
    }

    /// Reconciles the persistent round state with a churn boundary so the
    /// next round's deltas stay sound over the repaired tree.
    ///
    /// Every node that is dead or detached sheds its distributed state: its
    /// last reported cell leaves the base population as a synthesized
    /// deletion (the base learned of the death from the repair
    /// notifications, so this is radio-free), its cached tuple is retracted,
    /// and its delta baselines are cleared so a later revival or
    /// reattachment re-adds it as a fresh node. The counted subtree
    /// synopses are positional — a reattached subtree's cells must move to
    /// its new ancestors for filter-delta pruning to stay sound — so they
    /// are recomputed over the repaired tree from the surviving baselines.
    fn reconcile_churn(&mut self, snet: &SensorNetwork, query: &CompiledQuery) {
        let Some(st) = &mut self.state else { return };
        let net = snet.net();
        let routing = net.routing();
        let mut departed = Vec::new();
        let mut expirations: Vec<StreamOp> = Vec::new();
        let attached =
            |i: usize| net.is_alive(NodeId(i as u32)) && routing.depth(NodeId(i as u32)).is_some();
        for i in (0..st.last_cell.nodes).filter(|&i| !attached(i)) {
            departed.extend(st.last_cell.row(i).map(|row| (row[0].z, row[0].flags.0)));
            st.last_cell.clear(i);
            if st.last_values.clear(i) {
                expirations.push(StreamOp::Expire {
                    origin: NodeId(i as u32),
                });
            }
        }
        st.node_filter.rebuild(|i, view, out| {
            if attached(i) {
                out.extend_from_slice(view);
            }
        });
        if !expirations.is_empty() {
            let b = st.stream.apply_batch(&expirations);
            record_batch(&mut self.delta_stats, &b);
        }
        st.subtree = subtree_counts(&st.last_cell, routing);
        if !departed.is_empty() {
            // The filter shrinks accordingly; the removals reach the
            // survivors through the next round's ordinary filter delta
            // (computed against `st.filter`).
            let departed = Delta {
                dels: SortedCounts::of_cells(departed),
                ..Delta::default()
            };
            st.engine.apply_delta(query, &st.space, &departed.net());
        }
    }

    fn round_once(
        &mut self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        let n = snet.len();
        if self.state.is_none() {
            let space = JoinSpace::build(query, snet, &self.config);
            self.state = Some(State {
                engine: FilterEngine::new(query, &space),
                stream: StreamJoinEngine::new(query.clone()),
                space,
                last_cell: NodeRows::new(n, 1, NO_CELL),
                last_values: NodeRows::new(n, snet.master_schema().arity(), 0.0),
                node_filter: Views::new(n),
                subtree: vec![SortedCounts::default(); n],
                filter: PointSet::new(),
                rounds: 0,
            });
        }
        let st = self.state.as_mut().expect("just initialized");
        let space = &st.space;
        let table = NodeTable::build(snet, query, space, Representation::Quadtree);
        let base = snet.base();

        // ---- Phase 1: delta collection ----
        let last_cell = &mut st.last_cell;
        let subtree = &mut st.subtree;
        let (base_delta, rep1) = up_wave(
            snet.net_mut(),
            &|_| true,
            |v, received: Drain<Delta>| {
                // The first child's delta is taken as it is (with the size
                // its sender computed); merging the rest, or recording an
                // own change, re-sizes.
                let mut received = received.into_iter();
                let mut merged = received.next().unwrap_or_default();
                for d in received {
                    merged.merge(&d);
                }
                let i = v.0 as usize;
                let cur = table.tuple(v).map(|r| Point {
                    z: r.z,
                    flags: r.flags,
                });
                let last = last_cell.row(i).map(|row| row[0]);
                if cur != last {
                    if let Some(cell) = last {
                        merged.record(cell, -1);
                    }
                    match cur {
                        Some(cell) => {
                            merged.record(cell, 1);
                            last_cell.set(i, &[cell]);
                        }
                        None => _ = last_cell.clear(i),
                    }
                }
                // Adds first: the synopsis never dips below zero on the way.
                let sub = &mut subtree[i];
                sub.fold(&merged.adds.0, 1, |_, _| {});
                sub.fold(&merged.dels.0, -1, |_, _| {});
                merged
            },
            |d| d.wire_size(space),
            PHASE_DELTA_COLLECTION,
        );

        // ---- Base station: the filter ----
        // The engine folds the round's net delta into the population and,
        // if any cell's role presence changed, re-runs `prejoin_filter` over
        // it — the filter a one-shot computes. What ships is its difference
        // from the last round's.
        let new_filter = st
            .engine
            .apply_delta(query, &st.space, &base_delta.net())
            .clone();
        // Re-announce filter entries for cells whose population grew this
        // round: a node that just *moved into* an already-filtered cell has
        // no way to know the cell matches (its filter view predates its
        // move), so the unchanged filter entry must flow to it again. The
        // subtree pruning then routes it exactly to the mover's branch.
        let regrown = base_delta.adds.restrict(&new_filter, |_| u8::MAX);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        merge(new_filter.points(), st.filter.points(), |m| match m {
            Merged::Left(run) => added.extend_from_slice(run),
            Merged::Right(run) => removed.extend_from_slice(run),
            Merged::Both(new, old) => {
                for (out, have, lack) in [(&mut added, new, old), (&mut removed, old, new)] {
                    let flags = RelFlags(have.flags.0 & !lack.flags.0);
                    out.extend((!flags.is_empty()).then_some(Point { z: new.z, flags }));
                }
            }
        });
        st.filter = new_filter;
        let full_delta = FilterDelta::new(
            PointSet::from_sorted(added).union(&regrown),
            PointSet::from_sorted(removed),
        );

        // ---- Phase 2: filter-delta dissemination ----
        // A message is the index of its delta in `deltas`, with its wire
        // size once sized: a broadcast's children share the one delta. Each
        // node notes the delta it received; its view takes it after the
        // wave, when every view is rewritten in one pass.
        const NOT_REACHED: u32 = u32::MAX;
        let deltas = RefCell::new(vec![full_delta]);
        let mut delivered = vec![NOT_REACHED; n];
        let subtree = &st.subtree;
        let rep2 = down_wave(
            snet.net_mut(),
            &|_| true,
            |v, arrival: DownArrival<'_, (u32, Option<usize>)>| {
                let at = match arrival {
                    DownArrival::Intact(&(at, _)) => {
                        delivered[v.0 as usize] = at;
                        at
                    }
                    DownArrival::Origin => 0, // base station originates
                    // The delta is gone and this node's filter view is now
                    // stale; the round-level resync rebuilds everything, so
                    // don't forward anything further.
                    DownArrival::Damaged => return None,
                };
                let mut deltas = deltas.borrow_mut();
                let fd = &deltas[at as usize];
                if fd.is_empty() {
                    return None;
                }
                // Prune to the child subtrees' cells (Selective Filter
                // Forwarding on deltas).
                let pruned = fd.prune(&subtree[v.0 as usize]);
                if pruned.is_empty() {
                    return None;
                }
                deltas.push(pruned);
                Some((deltas.len() as u32 - 1, None))
            },
            |(at, bytes)| {
                *bytes.get_or_insert_with(|| deltas.borrow()[*at as usize].wire_size(space))
            },
            PHASE_FILTER_DELTA,
        );
        let deltas = deltas.into_inner();
        let filter = st.filter.points();
        st.node_filter.rebuild(|v, view, out| {
            if v == base.0 as usize {
                // The base's own filter view is the filter itself.
                out.extend_from_slice(filter);
            } else if let Some(fd) = deltas.get(delivered[v] as usize) {
                fd.apply(view, out);
            } else {
                out.extend_from_slice(view);
            }
        });

        // ---- Phase 3: ε-suppressed final phase ----
        // A node's message is its subtree's wire bytes; the origins it
        // ships or retracts go to `shipped` in wave order, which is the
        // order the base would read them off the merged messages.
        let epsilon = self.epsilon;
        let node_filter = &st.node_filter;
        let last_values = &mut st.last_values;
        let drift_attrs = drift_attrs(snet, query);
        let (net, readings) = snet.net_mut_and_readings();
        let mut shipped: Vec<(NodeId, bool)> = Vec::new();
        let (_, rep3) = up_wave(
            net,
            &|_| true,
            |v, received: Drain<usize>| {
                let mut bytes: usize = received.sum();
                let i = v.0 as usize;
                let rec = table.rec(v);
                if node_filter.matches(i, rec.z, rec.flags) {
                    let values = &readings[i];
                    // A node that did not match last round has shipped
                    // nothing: it reports as if everything had drifted.
                    let drifted = last_values.row(i).is_none_or(|old| {
                        drift_attrs
                            .iter()
                            .any(|&a| (old[a] - values[a]).abs() > epsilon)
                    });
                    if drifted {
                        last_values.set(i, values);
                        if v != base {
                            bytes += rec.bytes as usize;
                        }
                        shipped.push((v, true));
                    }
                } else if last_values.clear(i) {
                    if v != base {
                        bytes += 2; // origin id retraction
                    }
                    shipped.push((v, false));
                }
                bytes
            },
            |bytes| *bytes,
            PHASE_FINAL_DELTA,
        );
        if !rep3.damaged.is_empty() {
            // A lost message took its sender's whole subtree with it.
            let routing = snet.net().routing();
            let mut lost = vec![false; n];
            rep3.damaged.iter().for_each(|d| lost[d.0 as usize] = true);
            let reached = |v: NodeId| {
                let mut path = std::iter::successors(Some(v), |&u| routing.parent(u));
                !path.any(|u| lost[u.0 as usize])
            };
            shipped.retain(|&(v, _)| reached(v));
        }

        // ---- Base station: streaming join ----
        // The round's tuple deltas feed the persistent streaming engine,
        // which re-enumerates only the bindings anchored at changed tuples —
        // or, when the round re-ships every tuple of a relation, reruns the
        // batch join over its stores; its cached result is bit-identical to
        // re-running `exact_join` over every shipped tuple (the
        // pre-streaming behavior).
        let (snet, table) = (&*snet, &table);
        let project =
            |origin| (0..query.num_relations()).map(move |r| table.project(snet, origin, r));
        let upserts = shipped
            .iter()
            .filter(|s| s.1)
            .map(|&(origin, _)| StreamOp::Upsert {
                origin,
                per_rel: project(origin).collect(),
            });
        let expiries = shipped.iter().filter(|s| !s.1);
        let ops: Vec<StreamOp> = upserts
            .chain(expiries.map(|&(origin, _)| StreamOp::Expire { origin }))
            .collect();
        let batch = st.stream.apply_batch(&ops);
        record_batch(&mut self.delta_stats, &batch);
        // Any lost delta (either direction) desynchronizes state; the
        // wrapper resyncs by cold-restarting the round.
        let complete =
            rep1.damaged.is_empty() && rep2.damaged.is_empty() && rep3.damaged.is_empty();
        // A lost final delta leaves shipped values the base never received;
        // otherwise the base holds exactly what the nodes shipped.
        debug_assert!(
            !complete
                || st.stream.live_tuples().to_bytes() == shipped_tuples(st, snet, query).to_bytes(),
            "the stream's live tuples are not the projection of `last_values`"
        );
        let computation = st.stream.result();
        st.rounds += 1;
        Ok(JoinOutcome {
            result: computation.result,
            // `execute_round` takes the network's (all-attempt) numbers
            // once the last attempt is done.
            stats: NetworkStats::default(),
            latency_us: rep1.timing.then(rep2.timing).then(rep3.timing).pipelined,
            latency_slotted_us: rep1.timing.then(rep2.timing).then(rep3.timing).slotted,
            contributors: computation.contributors,
            complete,
            // The wrapper stamps the real value after applying boundaries.
            churned: false,
        })
    }
}

impl Default for ContinuousSensJoin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::{ExternalJoin, JoinMethod};
    use proptest::prelude::*;
    use sensjoin_field::{presets, Area, FieldSpec, Placement};
    use sensjoin_query::parse;

    fn snet(seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(400.0, 400.0))
            .placement(Placement::UniformRandom { n: 150 })
            .seed(seed)
            .build()
            .unwrap()
    }

    const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                       WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30";

    #[test]
    fn exact_rounds_match_fresh_execution() {
        let mut s = snet(4);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let mut cont = ContinuousSensJoin::new();
        for round in 0..4u64 {
            s.resample(&presets::indoor_climate(), 500 + round);
            let fresh = ExternalJoin.execute(&mut s, &cq).unwrap();
            let cont_out = cont.execute_round(&mut s, &cq).unwrap();
            assert!(
                fresh.result.same_result(&cont_out.result),
                "round {round}: {} vs {} rows",
                fresh.result.len(),
                cont_out.result.len()
            );
            assert_eq!(fresh.contributors, cont_out.contributors, "round {round}");
        }
        assert_eq!(cont.rounds(), 4);
    }

    #[test]
    fn unchanged_snapshot_costs_nothing() {
        let mut s = snet(5);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let mut cont = ContinuousSensJoin::new();
        let first = cont.execute_round(&mut s, &cq).unwrap();
        assert!(first.stats.total_tx_packets() > 0);
        // Same snapshot again: no cell changed, no value drifted.
        let second = cont.execute_round(&mut s, &cq).unwrap();
        assert_eq!(
            second.stats.total_tx_packets(),
            0,
            "steady state must be free"
        );
        assert!(first.result.same_result(&second.result));
    }

    #[test]
    fn slow_drift_with_epsilon_is_cheap() {
        let mut s = snet(6);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let mut cont = ContinuousSensJoin::with_epsilon(0.5);
        // Drifting fields: tiny per-round noise.
        let drift_fields = |round: u64| -> Vec<FieldSpec> {
            let mut f = presets::indoor_climate();
            for spec in &mut f {
                spec.noise = 0.001 * (round as f64 + 1.0);
            }
            f
        };
        s.resample(&drift_fields(0), 100);
        let cold = cont.execute_round(&mut s, &cq).unwrap();
        let mut warm_total = 0u64;
        for round in 1..5u64 {
            // Re-generate with the *same* seed: the underlying field is
            // identical, only the white noise differs slightly.
            s.resample(&drift_fields(round), 100);
            let out = cont.execute_round(&mut s, &cq).unwrap();
            warm_total += out.stats.total_tx_packets();
        }
        assert!(
            warm_total / 4 < cold.stats.total_tx_packets() / 4,
            "warm rounds ({warm_total} pkts over 4) should be far below the cold \
             round ({} pkts)",
            cold.stats.total_tx_packets()
        );
    }

    #[test]
    fn epsilon_bounds_staleness() {
        let mut s = snet(7);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let eps = 0.25;
        let mut cont = ContinuousSensJoin::with_epsilon(eps);
        for round in 0..3u64 {
            s.resample(&presets::indoor_climate(), 900 + round);
            let out = cont.execute_round(&mut s, &cq).unwrap();
            // Every shipped value is within eps of the node's true reading
            // on the referenced attributes.
            let st = cont.state.as_ref().unwrap();
            assert!(st.last_values.marked() > 0);
            for (i, shipped) in st.last_values.rows() {
                let origin = NodeId(i as u32);
                for a in drift_attrs(&s, &cq) {
                    let truth = s.readings(origin)[a];
                    assert!(
                        (shipped[a] - truth).abs() <= eps + 1e-12,
                        "round {round}: tuple of {origin} stale by {}",
                        (shipped[a] - truth).abs()
                    );
                }
            }
            let _ = out;
        }
    }

    #[test]
    fn retractions_shrink_the_cache() {
        let mut s = snet(8);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let mut cont = ContinuousSensJoin::new();
        s.resample(&presets::indoor_climate(), 1);
        cont.execute_round(&mut s, &cq).unwrap();
        let live_origins = |cont: &ContinuousSensJoin| -> Vec<NodeId> {
            let tuples = cont.state.as_ref().unwrap().stream.live_tuples();
            tuples.into_iter().map(|(origin, _)| origin).collect()
        };
        assert!(!live_origins(&cont).is_empty());
        // A radically different snapshot: most old matches dissolve.
        s.resample(&presets::uncorrelated(), 2);
        cont.execute_round(&mut s, &cq).unwrap();
        // The base holds exactly the currently matched nodes' tuples.
        let st = cont.state.as_ref().unwrap();
        let shipped: Vec<NodeId> = (st.last_values.rows())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        assert_eq!(live_origins(&cont), shipped);
    }

    /// The field of round `r`: the same draws every round with the noise
    /// scaled by `1 + 2r`, so each round moves every reading a little — some
    /// matching nodes drift by more than ε = 0.25 and re-ship, the rest keep
    /// their stale tuple.
    fn drifting(r: u64) -> Vec<FieldSpec> {
        let mut specs = presets::indoor_climate();
        specs
            .iter_mut()
            .for_each(|s| s.noise *= 1.0 + 2.0 * r as f64);
        specs
    }

    /// A restore rebuilds `subtree` and the stream instead of reading them:
    /// restored mid-run, the rebuilt stream holds the uninterrupted
    /// executor's live tuples bit for bit, and the next rounds — with a
    /// churn boundary before the first or without — leave the synopses,
    /// results and contributors the uninterrupted executor has. At ε > 0 a
    /// node that did not drift past ε keeps a tuple that only `last_values`
    /// holds, so a stream rebuilt from the current readings would differ.
    #[test]
    fn restored_subtree_matches_the_uninterrupted_run() {
        for (churn, epsilon) in [(true, 0.0), (false, 0.0), (true, 0.25), (false, 0.25)] {
            let build = || {
                let mut s = snet(9);
                if churn {
                    // A third of the nodes crash at the boundary of round 2.
                    let events = (0..s.len() as u32)
                        .filter(|&i| i % 3 == 1 && NodeId(i) != s.base())
                        .map(|i| (NodeId(i), sensjoin_sim::ChurnAction::Crash))
                        .collect();
                    let timeline =
                        sensjoin_sim::ChurnTimeline::from_events(Vec::new(), vec![(2, events)]);
                    s.net_mut().set_churn(Some(timeline));
                }
                s
            };
            let (mut live_net, mut resumed_net) = (build(), build());
            let cq = live_net.compile(&parse(SQL).unwrap()).unwrap();
            let mut live = ContinuousSensJoin::with_epsilon(epsilon);
            for round in 0..2u64 {
                live_net.resample(&drifting(round), 40);
                live.execute_round(&mut live_net, &cq).unwrap();
            }
            let mut w = persist::Writer::new();
            live.encode_state(&mut w);
            persist::put_net_snapshot(&mut w, &live_net.net().export_state());
            let image = w.into_bytes();
            let mut r = persist::Reader::new(&image);
            let mut resumed = ContinuousSensJoin::with_epsilon(epsilon);
            resumed.restore_state(&mut r, &cq).unwrap();
            let snap = persist::get_net_snapshot(&mut r).unwrap();
            resumed_net.net_mut().restore_state(&snap).unwrap();
            assert!(resumed.state.as_ref().unwrap().subtree.is_empty());
            live_net.resample(&drifting(2), 40);
            resumed_net.resample(&drifting(2), 40);
            // What the next round does first.
            resumed.adopt_restored(&resumed_net, &cq).unwrap();
            let live_tuples = |cont: &ContinuousSensJoin| {
                cont.state.as_ref().unwrap().stream.live_tuples().to_bytes()
            };
            let what = format!("churn {churn}, ε {epsilon}");
            assert!(live_tuples(&resumed) == live_tuples(&live), "{what}");
            let mut stale = 0;
            for round in 2..5u64 {
                let mut outs = Vec::new();
                for (cont, net) in [(&mut live, &mut live_net), (&mut resumed, &mut resumed_net)] {
                    net.resample(&drifting(round), 40);
                    let out = cont.execute_round(net, &cq).unwrap();
                    assert_eq!(out.churned, churn && round == 2);
                    outs.push(out);
                }
                let what = format!("round {round}, {what}");
                assert!(outs[0].result.same_result(&outs[1].result), "{what}");
                assert_eq!(outs[0].contributors, outs[1].contributors, "{what}");
                if round == 2 {
                    let (a, b) = (
                        live.state.as_ref().unwrap(),
                        resumed.state.as_ref().unwrap(),
                    );
                    assert!(a.subtree.iter().any(|c| !c.is_empty()));
                    assert_eq!(a.subtree, b.subtree, "{what}");
                }
                let last_values = &live.state.as_ref().unwrap().last_values;
                stale += (0..live_net.len())
                    .filter(|&i| {
                        let row = live_net.readings(NodeId(i as u32));
                        last_values.row(i).is_some_and(|shipped| shipped != row)
                    })
                    .count();
            }
            assert!(live_tuples(&resumed) == live_tuples(&live), "{what}");
            assert_eq!(stale > 0, epsilon > 0.0, "stale tuples at ε {epsilon}");
        }
    }

    /// An image that fails to decode leaves the executor it was decoded
    /// into as it was, counters included.
    #[test]
    fn a_failed_restore_leaves_the_executor_unchanged() {
        let mut s = snet(10);
        let cq = s.compile(&parse(SQL).unwrap()).unwrap();
        let mut other = ContinuousSensJoin::new();
        for round in 0..3u64 {
            s.resample(&presets::indoor_climate(), 60 + round);
            other.execute_round(&mut s, &cq).unwrap();
        }
        let mut w = persist::Writer::new();
        other.encode_state(&mut w);
        let image = w.into_bytes();

        let mut warm = ContinuousSensJoin::new();
        s.resample(&presets::indoor_climate(), 70);
        warm.execute_round(&mut s, &cq).unwrap();
        let before = {
            let mut w = persist::Writer::new();
            warm.encode_state(&mut w);
            w.into_bytes()
        };
        assert_ne!(before, image);
        for cut in [image.len() / 2, image.len() - 1] {
            let mut r = persist::Reader::new(&image[..cut]);
            assert!(warm.restore_state(&mut r, &cq).is_err(), "cut at {cut}");
            let mut w = persist::Writer::new();
            warm.encode_state(&mut w);
            assert!(w.into_bytes() == before, "cut at {cut}");
        }
    }

    /// Deterministic LCG, independent of the rand shim's stream.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn setup(sql: &str) -> (CompiledQuery, JoinSpace) {
        let snet = SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .placement(Placement::UniformRandom { n: 60 })
            .seed(13)
            .build()
            .unwrap();
        let cq = snet.compile(&parse(sql).unwrap()).unwrap();
        let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
        (cq, space)
    }

    /// One random population move: a counted add, removal, or role flip.
    fn random_delta(
        rng: &mut Lcg,
        counts: &CellCounts,
        space: &JoinSpace,
        num_rels: usize,
        moves: usize,
    ) -> CellCounts {
        let mut delta = CellCounts::default();
        let max_z = 1u64 << space.zspace().total_bits().min(12);
        let present: Vec<(u64, usize)> = counts
            .iter()
            .flat_map(|(&z, c)| {
                c.iter()
                    .enumerate()
                    .filter(|&(_, &cnt)| cnt > 0)
                    .map(move |(b, _)| (z, b))
            })
            .collect();
        for _ in 0..moves {
            // Role r occupies flag bit `num_rels - 1 - r`, so the valid
            // count slots are exactly 0..num_rels.
            let flag_bit = rng.below(num_rels as u64) as usize;
            if !present.is_empty() && rng.below(2) == 0 {
                // Remove one occupancy (may keep the cell via other counts).
                let (z, b) = present[rng.below(present.len() as u64) as usize];
                let have = counts.get(&z).map_or(0, |c| c[b]) + delta.get(&z).map_or(0, |c| c[b]);
                if have > 0 {
                    delta.entry(z).or_insert([0; 8])[b] -= 1;
                    continue;
                }
            }
            let z = rng.below(max_z);
            delta.entry(z).or_insert([0; 8])[flag_bit] += 1;
        }
        delta
    }

    /// After random counted adds, removals and role flips, the engine's
    /// population is the presence set of an independently folded
    /// `CellCounts`, and its filter is `prejoin_filter` of that set, across
    /// predicate classes.
    #[test]
    fn population_is_the_presence_of_the_folded_counts() {
        for sql in [
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp = B.temp ONCE",
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.4 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| > 1.0 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE",
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < 60.0 ONCE",
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.5 AND B.temp - C.temp > 0.5 ONCE",
            "SELECT A.temp, B.hum, C.hum FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - C.temp| < 0.5 AND B.hum = C.hum ONCE",
        ] {
            let (cq, space) = setup(sql);
            let rels = cq.num_relations();
            let mut engine = FilterEngine::new(&cq, &space);
            let mut folded = CellCounts::default();
            let mut rng = Lcg(0xC0FFEE ^ sql.len() as u64);
            let (mut flips, mut nonempty) = (0, 0);
            for round in 0..12 {
                let moves = if round == 0 {
                    40
                } else {
                    1 + rng.below(6) as usize
                };
                let mut delta = random_delta(&mut rng, &folded, &space, rels, moves);
                // A role flip: one occupancy of a present cell moves to the
                // next role's counter of the same cell.
                let present: Vec<(u64, usize)> = folded
                    .iter()
                    .flat_map(|(&z, c)| (0..rels).filter(|&b| c[b] > 0).map(move |b| (z, b)))
                    .filter(|(z, b)| folded[z][*b] + delta.get(z).map_or(0, |d| d[*b]) > 0)
                    .collect();
                if !present.is_empty() {
                    let (z, b) = present[rng.below(present.len() as u64) as usize];
                    let d = delta.entry(z).or_insert([0; 8]);
                    d[b] -= 1;
                    d[(b + 1) % rels] += 1;
                    flips += 1;
                }
                for (&z, d) in &delta {
                    let c = folded.entry(z).or_insert([0; 8]);
                    for (c, d) in c.iter_mut().zip(d) {
                        *c += d;
                    }
                }
                folded.retain(|_, c| c.iter().any(|&n| n != 0));

                let filter = engine.apply_delta(&cq, &space, &delta).clone();
                let present = PointSet::from_points(folded.iter().filter_map(|(&z, c)| {
                    let flags = (0..8).filter(|&b| c[b] > 0).fold(0u8, |f, b| f | 1 << b);
                    (flags != 0).then_some(Point {
                        z,
                        flags: RelFlags(flags),
                    })
                }));
                assert_eq!(engine.counts(), &folded, "round {round} of {sql}");
                assert_eq!(
                    engine.population().points(),
                    present.points(),
                    "round {round} of {sql}"
                );
                let fresh = prejoin_filter(&cq, &space, &present);
                assert_eq!(filter.points(), fresh.points(), "round {round} of {sql}");
                nonempty += usize::from(!fresh.is_empty());
            }
            // Guard against a vacuously-green comparison of empty filters.
            assert!(flips > 0, "no role flipped for {sql}");
            assert!(nonempty > 0, "filter never populated for {sql}");
        }
    }

    /// A presence-preserving delta (count changes only) must leave the
    /// cached filter untouched — the steady-state fast path.
    #[test]
    fn count_only_delta_is_free() {
        let (cq, space) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.4 ONCE",
        );
        let mut engine = FilterEngine::new(&cq, &space);
        let mut rng = Lcg(7);
        let delta = random_delta(&mut rng, engine.counts(), &space, 2, 30);
        engine.apply_delta(&cq, &space, &delta);
        let before = engine.filter().clone();
        // Duplicate an existing occupancy, then retract the duplicate.
        let (&z, c) = engine.counts().iter().next().expect("population nonempty");
        let b = c.iter().position(|&x| x > 0).expect("nonempty counters");
        let mut dup = CellCounts::default();
        dup.entry(z).or_insert([0; 8])[b] = 1;
        assert_eq!(
            engine.apply_delta(&cq, &space, &dup).points(),
            before.points()
        );
        let mut retract = CellCounts::default();
        retract.entry(z).or_insert([0; 8])[b] = -1;
        assert_eq!(
            engine.apply_delta(&cq, &space, &retract).points(),
            before.points()
        );
        assert_eq!(
            engine
                .apply_delta(&cq, &space, &CellCounts::default())
                .points(),
            before.points()
        );
    }

    /// Disconnected predicate components: a cell holding every role
    /// satisfies both, and draining one component's role must empty the
    /// whole filter, since then no binding of the query exists.
    #[test]
    fn component_satisfiability_gates_the_filter() {
        let (cq, space) = setup(
            "SELECT A.temp, B.temp, C.hum, D.hum \
             FROM Sensors A, Sensors B, Sensors C, Sensors D \
             WHERE |A.temp - B.temp| < 5.0 AND C.hum = D.hum ONCE",
        );
        let mut engine = FilterEngine::new(&cq, &space);
        let mut rng = Lcg(99);
        for round in 0..8 {
            let delta = random_delta(&mut rng, engine.counts(), &space, 4, 12);
            engine.apply_delta(&cq, &space, &delta);
            let fresh = prejoin_filter(&cq, &space, engine.population());
            assert_eq!(engine.filter().points(), fresh.points(), "round {round}");
        }
        // The random rounds only check the filter is the batch one; pin
        // satisfiability deterministically. One cell holding every role
        // satisfies both components (a cell trivially joins itself), so the
        // filter cannot be empty afterwards.
        let mut seed_cell = CellCounts::default();
        let all_roles = seed_cell
            .entry(space.encode(&[Some(20.0), Some(50.0)]))
            .or_insert([0; 8]);
        for role in all_roles.iter_mut().take(4) {
            *role += 1;
        }
        engine.apply_delta(&cq, &space, &seed_cell);
        let fresh = prejoin_filter(&cq, &space, engine.population());
        assert_eq!(engine.filter().points(), fresh.points(), "seeded cell");
        assert!(!engine.filter().is_empty(), "both components satisfiable");
        // Drain role D entirely: no D-binding can exist, filter must empty.
        let mut drain = CellCounts::default();
        let dbit = 0; // role D (r = 3 of 4) occupies flag bit 4 - 1 - 3

        for (&z, c) in engine.counts() {
            if c[dbit] > 0 {
                drain.entry(z).or_insert([0; 8])[dbit] = -c[dbit];
            }
        }
        engine.apply_delta(&cq, &space, &drain);
        assert!(engine.filter().is_empty(), "unsatisfiable component");
        let fresh = prejoin_filter(&cq, &space, engine.population());
        assert!(fresh.points().is_empty());
    }

    /// Counted cells at z in `0..24`, every flag bit, counters in `0..3`:
    /// sorted, all-zero cells dropped, possibly none.
    fn counted() -> impl Strategy<Value = SortedCounts> {
        let cell = (0u64..24, prop::collection::vec(0i64..3, 8));
        prop::collection::vec(cell, 0..12).prop_map(|cells| {
            let mut map = CellCounts::default();
            for (z, counts) in cells {
                let c = map.entry(z).or_insert([0; 8]);
                c.iter_mut().zip(&counts).for_each(|(c, d)| *c += d);
            }
            let mut out: Vec<(u64, [i64; 8])> =
                map.into_iter().filter(|(_, c)| *c != [0; 8]).collect();
            out.sort_unstable_by_key(|e| e.0);
            SortedCounts(out)
        })
    }

    /// Points at z in `0..24` with any non-empty flags, possibly none.
    fn points() -> impl Strategy<Value = PointSet> {
        prop::collection::vec((0u64..24, 1u8..=255), 0..12).prop_map(|points| {
            PointSet::from_points(points.into_iter().map(|(z, f)| Point {
                z,
                flags: RelFlags(f),
            }))
        })
    }

    /// The role flags of `a`'s cells that `b` does not hold for the same
    /// cell.
    fn minus(a: &PointSet, b: &PointSet) -> PointSet {
        a.minus(b)
    }

    /// `into` with `delta` folded in, and the presence changes the fold
    /// reported, in z order.
    fn folded(
        into: &mut SortedCounts,
        delta: &SortedCounts,
        sign: i64,
    ) -> (SortedCounts, Vec<(u64, u8)>) {
        let mut moved = Vec::new();
        into.fold(&delta.0, sign, |z, f| moved.push((z, f)));
        moved.sort_unstable();
        (into.clone(), moved)
    }

    /// What `fold_delta` does to the hash-keyed form of `into`.
    fn oracle_folded(into: &SortedCounts, delta: &CellCounts) -> (CellCounts, Vec<(u64, u8)>) {
        let (mut map, mut moved) = (into.to_counts(), Vec::new());
        fold_delta(&mut map, delta, |z, f| moved.push((z, f)));
        moved.sort_unstable();
        (map, moved)
    }

    proptest! {
        /// The sorted fold, the merge-walk prune and the one-pass apply are
        /// the set algebra they replace: `fold_delta` on the hash-keyed
        /// counts (the presence changes it reports included), `intersect`
        /// with `counts_to_set`, and `union` then `minus`. The removals
        /// take each counter back by nothing, all of it or half of it, so
        /// cells return to zero.
        #[test]
        fn the_merges_are_the_set_algebra(
            base in counted(),
            adds in counted(),
            cuts in prop::collection::vec(0u8..3, 24 * 8),
            set in points(),
            view in points(),
            added in points(),
            removed in points(),
        ) {
            let mut sorted = base.clone();
            let (after_adds, moved) = folded(&mut sorted, &adds, 1);
            let (map, oracle_moved) = oracle_folded(&base, &adds.to_counts());
            prop_assert_eq!(after_adds.to_counts(), map);
            prop_assert_eq!(moved, oracle_moved);
            let dels = SortedCounts(
                after_adds
                    .0
                    .iter()
                    .map(|&(z, c)| {
                        let cut = |b: usize| match cuts[z as usize * 8 + b] {
                            0 => 0,
                            1 => c[b],
                            _ => c[b] / 2,
                        };
                        (z, std::array::from_fn(cut))
                    })
                    .filter(|(_, c)| *c != [0; 8])
                    .collect(),
            );
            let negated = dels.0.iter().map(|&(z, c)| (z, c.map(|c| -c))).collect();
            let (after_dels, moved) = folded(&mut sorted, &dels, -1);
            let (map, oracle_moved) = oracle_folded(&after_adds, &negated);
            prop_assert_eq!(after_dels.to_counts(), map);
            prop_assert_eq!(moved, oracle_moved);
            prop_assert!(after_dels.0.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(after_dels.0.iter().all(|(_, c)| *c != [0; 8]));

            for counts in [&base, &adds, &after_dels] {
                let cells = counts_to_set(&counts.to_counts());
                prop_assert_eq!(counts.prune(&set), set.intersect(&cells));
            }

            let fd = FilterDelta::new(added, removed);
            let mut applied = Vec::new();
            fd.apply(view.points(), &mut applied);
            prop_assert_eq!(applied, minus(&view.union(&fd.added), &fd.removed).points());
        }
    }
}
