//! The base-station join engine: conservative pre-join and exact join.
//!
//! Both entry points ([`prejoin_filter`], [`exact_join`]) run one
//! **partitioned** descent ([`exact_descent`]), generic over its key domain
//! and its sink, so each instance is a loop of its own. The exact join keys
//! tuples by their values (`f64`); the pre-join is the same join over the
//! quantization cells ([`Cells`], [`Interval`]). Per level, the predicate
//! classification of [`sensjoin_query::analyze`] drives one sorted-key index
//! *per band predicate* (equality included); the probe with the fewest
//! candidates drives the scan and the other indexed predicates become O(1)
//! membership tests, so the level scans the **intersection** of all indexed
//! candidate sets. A pruning point probe is an exact window and decides its
//! predicate; a cell window holds the possible checks only (`partition`
//! module docs), so a cell level checks every predicate. A level's undecided
//! checks run once per candidate batch, column at a time
//! ([`ExactRun::batch`]), every verdict bit for bit the per-binding
//! [`holds`] ([`BatchEval`]). The sink ([`Sink`]) says what a full binding
//! does and walks the last level: [`Emit`] writes rows, draining the
//! candidates in one flat loop; [`Marks`] ORs role bits, in a witness search
//! that steps over cells already marked. Levels without an indexable
//! predicate scan exactly like the nested-loop reference.
//!
//! The probes of level 1 depend on the outer tuple alone, so they are taken
//! once, ahead of the descent ([`Hoisted`]); their candidate counts are the
//! work estimate that decides whether the outermost level is chunked across
//! threads, where the chunks are cut, and how many rows a chunk reserves.
//! Per-chunk outputs are merged in chunk order, so results — rows, their
//! order, contributors, and the filter bitmask — are bit-identical to
//! [`exact_join_nested`] / [`prejoin_filter_nested`], one nested loop
//! ([`nested`]) retained as the plain reference (and as the baseline of the
//! `engine_scaling` benchmark).

use crate::config::SensJoinConfig;
use crate::outcome::{cmp_bits, GroupResult, JoinResult, Rows};
#[cfg(debug_assertions)]
use crate::partition::decided;
use crate::partition::{
    candidates, exact_plan, unmarked_candidates, Key, LevelIndex, PosSet, Probe, Unmarked,
};
use crate::snetwork::SensorNetwork;
use sensjoin_quadtree::{Point, PointSet, RelFlags, TreeShape, MAX_RELATIONS};
use sensjoin_query::{eval, holds, BatchEval, Columns, CompiledQuery, Interval, NumExpr};
use sensjoin_relation::{NodeId, TupleBatch};
use sensjoin_zorder::{Dimension, ZSpace};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::OnceLock;

/// The shared quantization space of a query (§V-B) plus the bookkeeping to
/// move between relations, dimensions and quadtree keys.
#[derive(Debug, Clone)]
pub struct JoinSpace {
    zspace: ZSpace,
    /// Per relation: dimension index of each join attribute (parallel to
    /// `CompiledQuery::join_attrs(rel)`).
    maps: Vec<Vec<usize>>,
    shape: TreeShape,
}

impl JoinSpace {
    /// Builds the space for `query` over `snet`'s environment: ranges come
    /// from the quantization config or, failing that, from setup-time
    /// estimation ([`SensorNetwork::attr_bounds`]); resolutions come from
    /// the config or the per-type defaults, scaled by
    /// `config.resolution_scale`.
    pub fn build(query: &CompiledQuery, snet: &SensorNetwork, config: &SensJoinConfig) -> Self {
        let (dim_specs, maps) = query.join_layout();
        let dims: Vec<Dimension> = if dim_specs.is_empty() {
            // No join attributes (pure cross product): a degenerate
            // single-cell space. Every tuple lands in the same cell and the
            // pre-join keeps everything — correct, never beneficial.
            vec![Dimension::new("_any", 0.0, 0.0, 1.0)]
        } else {
            dim_specs
                .iter()
                .map(|(name, ty)| {
                    let (min, max, res) = match config.quantization.get(name) {
                        Some(cfg) => cfg,
                        None => {
                            let (lo, hi) = snet
                                .attr_bounds(name)
                                .unwrap_or_else(|| panic!("no range for attribute {name:?}"));
                            let res = crate::config::QuantizationConfig::default_resolution(*ty);
                            (lo, hi, res)
                        }
                    };
                    Dimension::new(name.clone(), min, max, res * config.resolution_scale)
                })
                .collect()
        };
        Self::with_dimensions(query, maps, dims).expect("join space dimensions fit 64 bits")
    }

    /// `None` when the dimensions do not fit one 64-bit Z-number.
    fn with_dimensions(
        query: &CompiledQuery,
        maps: Vec<Vec<usize>>,
        dims: Vec<Dimension>,
    ) -> Option<Self> {
        let zspace = ZSpace::new(dims).ok()?;
        let flag_bits = query.num_relations().min(MAX_RELATIONS) as u8;
        let shape = TreeShape::new(zspace.level_schedule(), flag_bits);
        Some(Self {
            zspace,
            maps,
            shape,
        })
    }

    /// The part of the space a checkpoint must carry: per dimension
    /// `(name, min, max, resolution)`. It must be *serialized*, never rebuilt
    /// from resume-time readings — [`SensorNetwork::attr_bounds`] would see
    /// different samples and yield a different quantization. The relation
    /// maps and flag bits are the query's layout and are not part of it.
    pub fn to_parts(&self) -> Vec<(String, f64, f64, f64)> {
        self.zspace
            .dims()
            .iter()
            .map(|d| (d.name().to_owned(), d.min(), d.max(), d.resolution()))
            .collect()
    }

    /// Rebuilds `query`'s space from [`JoinSpace::to_parts`] output.
    /// [`Dimension::new`] stores its arguments verbatim, so the round trip
    /// is exact. `None` when `dims` is not one dimension per dimension of the
    /// query's layout, or does not fit one 64-bit Z-number.
    pub fn from_parts(query: &CompiledQuery, dims: Vec<(String, f64, f64, f64)>) -> Option<Self> {
        let (layout, maps) = query.join_layout();
        if dims.len() != layout.len().max(1) {
            return None;
        }
        let dims = dims
            .into_iter()
            .map(|(name, min, max, res)| Dimension::new(name, min, max, res))
            .collect();
        Self::with_dimensions(query, maps, dims)
    }

    /// The underlying Z-order space.
    pub fn zspace(&self) -> &ZSpace {
        &self.zspace
    }

    /// The quadtree shape (flag level + interleave levels).
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// Relation flag for relation `rel`.
    pub fn flag(&self, rel: usize) -> RelFlags {
        RelFlags::relation(rel, self.maps.len())
    }

    /// The dimension of each join attribute of relation `rel` (parallel to
    /// `CompiledQuery::join_attrs(rel)`).
    pub(crate) fn dims_of(&self, rel: usize) -> impl Iterator<Item = usize> + '_ {
        self.maps[rel].iter().copied()
    }

    /// Encodes a node's join-attribute values. `dim_values[d]` is the value
    /// for dimension `d`, or `None` when no member relation of the node
    /// covers that dimension (encoded as cell 0).
    pub fn encode(&self, dim_values: &[Option<f64>]) -> u64 {
        let coords: Vec<u64> = self
            .zspace
            .dims()
            .iter()
            .zip(dim_values)
            .map(|(d, v)| v.map_or(0, |v| d.coordinate(v)))
            .collect();
        self.zspace.encode_cells(&coords)
    }

    /// Collects the dimension values of `node` for its member relations:
    /// dimension `maps[rel][p]` receives the value of join attribute `p` of
    /// relation `rel`.
    pub fn dim_values(
        &self,
        query: &CompiledQuery,
        values_per_rel: &[Option<Vec<f64>>],
    ) -> Vec<Option<f64>> {
        let mut out = vec![None; self.zspace.arity()];
        for (rel, vals) in values_per_rel.iter().enumerate() {
            if let Some(vals) = vals {
                for (p, &attr) in query.join_attrs(rel).iter().enumerate() {
                    out[self.maps[rel][p]] = Some(vals[attr]);
                }
            }
        }
        out
    }
}

/// Highest relation referenced per join predicate, so a partial binding of
/// relations `0..=k` can check each predicate as early as possible.
pub(crate) fn pred_max_rels(query: &CompiledQuery) -> Vec<usize> {
    query
        .join_preds()
        .iter()
        .map(|p| p.relations().into_iter().max().unwrap_or(0))
        .collect()
}

/// Counted descent steps below which a descent runs inline. A step of a
/// decided two-way join costs some 11–20 ns into the flat sink and 70–95 ns
/// into the vector one (one thread of the 2-core bench host, 1 000 tuples a
/// side), a spawned worker some tens of µs, and the callers with many small
/// joins — a serve tick's per-plan joins — already run on one thread per
/// deployment. Two chunks measured a wash into the flat sink at 36 k steps
/// (0.56–0.58 → 0.60–0.67 ms) and 0.67–0.69× into either sink at 71 k.
const PAR_MIN_WORK: usize = 1 << 16;

/// [`PAR_MIN_WORK`] of the pre-join filter, whose counted step is a
/// last-level candidate. The count cannot tell the two regimes apart. When
/// most cells find a partner, the witness search visits O(cells) of the
/// candidates and every chunk repeats that on marks of its own: on the
/// paper's Q3 two chunks read 1.61× at 25 k candidates (0.38 → 0.62 ms),
/// 1.13× at 242 k (1.43 → 1.61 ms) and 1.03–1.04× at 0.85–2.3 M (2.8 and
/// 4.3 ms). When few do (`distance < 10` under a wide band), every candidate
/// up to a cell's first witness is checked: 0.67× at 64 k (6.0 → 4.0 ms),
/// 0.62× at 242 k (23 → 14 ms) and 0.58–0.67× at 0.43–1.7 M. The bar keeps
/// Q3-sized populations on one chunk, where two lose the most.
const FILTER_PAR_MIN_WORK: usize = 1 << 19;

/// The level-1 probes of every outer position, taken ahead of the descent
/// (they depend on the outer tuple alone), with the work they announce.
struct Hoisted<P> {
    /// Probes per outer position: the number of indexes on level 1.
    per: usize,
    probes: Vec<P>,
    /// `work[i]`: descent steps counted for the outer positions below `i` —
    /// one per outer position plus one per level-1 candidate of its driver.
    work: Vec<usize>,
}

impl<P> Hoisted<P> {
    /// `probe(pos, out)` pushes outer position `pos`'s `per` probes and
    /// returns the number of level-1 candidates they leave.
    fn build(outer: usize, per: usize, mut probe: impl FnMut(usize, &mut Vec<P>) -> usize) -> Self {
        let mut probes = Vec::with_capacity(outer * per);
        let mut work = Vec::with_capacity(outer + 1);
        let mut total = 0;
        work.push(total);
        for pos in 0..outer {
            total += 1 + probe(pos, &mut probes);
            work.push(total);
        }
        Self { per, probes, work }
    }

    fn of(&self, pos: usize) -> &[P] {
        &self.probes[pos * self.per..][..self.per]
    }

    /// Level-1 candidates counted for the outer positions in `range`.
    fn candidates(&self, range: &Range<usize>) -> usize {
        self.work[range.end] - self.work[range.start] - range.len()
    }

    /// Cuts the outer positions into the chunks to run: up to `parts` of
    /// about equal counted work when the work — times `deeper`, the search
    /// space below level 1 — reaches `min_work`; otherwise a single chunk.
    fn cuts(&self, deeper: usize, parts: usize, min_work: usize) -> Vec<Range<usize>> {
        let total = *self.work.last().expect("cumulative work starts with a 0");
        let fan_out = total.saturating_mul(deeper) >= min_work;
        equal_work_cuts(&self.work, if fan_out { parts } else { 1 })
    }
}

/// The chunk count of a join that fans out: one per thread the host grants
/// this process. Read once, at the first join or filter — asking again
/// re-reads the cgroup files, some 20 µs a call — and a `taskset -c 0` run
/// sets its affinity before that, so it is single-threaded.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Cuts the positions `0..work.len() - 1` into at most `parts` contiguous
/// ranges at the quantiles of the cumulative `work` (strictly increasing,
/// from 0). No range is empty unless there is no position at all; a
/// position heavier than a whole share leaves fewer ranges.
fn equal_work_cuts(work: &[usize], parts: usize) -> Vec<Range<usize>> {
    let outer = work.len() - 1;
    let total = work[outer] as u128;
    let mut cuts = Vec::with_capacity(parts);
    let mut lo = 0;
    for part in 1..parts {
        let target = (total * part as u128 / parts as u128) as usize;
        let hi = work.partition_point(|&w| w < target);
        if hi > lo {
            cuts.push(lo..hi);
            lo = hi;
        }
    }
    if lo < outer || cuts.is_empty() {
        cuts.push(lo..outer);
    }
    cuts
}

/// Runs `f(chunk index, range)` over `cuts` and returns the results **in
/// chunk order**: the first chunk on the calling thread, every further one
/// on a scoped thread of its own. Order-preserving merging keeps the
/// parallel engine bit-identical to the sequential one.
fn run_chunked<T, F>(cuts: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let (first, rest) = cuts.split_first().expect("at least one chunk");
    if rest.is_empty() {
        return vec![f(0, first.clone())];
    }
    std::thread::scope(|s| {
        let f = &f;
        let workers: Vec<_> = rest
            .iter()
            .enumerate()
            .map(|(i, range)| {
                let range = range.clone();
                s.spawn(move || f(i + 1, range))
            })
            .collect();
        let mut parts = Vec::with_capacity(cuts.len());
        parts.push(f(0, first.clone()));
        parts.extend(
            workers
                .into_iter()
                .map(|w| w.join().expect("join worker panicked")),
        );
        parts
    })
}

/// Size of the search space below level 1: what one level-1 candidate can
/// fan out to at worst.
fn deeper_space(sizes: impl Iterator<Item = usize>) -> usize {
    sizes
        .skip(2)
        .fold(1usize, |a, b| a.saturating_mul(b.max(1)))
}

/// Computes the join filter (§IV step 1a): the set of quantized
/// join-attribute tuples that *possibly* have a join partner, with the
/// relation roles in which they matched.
///
/// Conservative by construction — every real match survives quantization
/// because predicates are evaluated with interval arithmetic over the cells.
///
/// The exact join's partitioned descent over the cells into the mark sink:
/// levels with a band predicate on plain column sides probe a sorted array
/// of cell intervals instead of scanning every point, and the marked bitmask
/// is identical to [`prejoin_filter_nested`]'s because a cell window only
/// leaves out points whose interval check is definitely false. The output is a set of cells, not of pairs, so the last
/// level only looks for witnesses: a binding that could mark nothing new is
/// stepped over unvisited, and both the visits and the checks follow the
/// cells rather than the candidate pairs.
pub fn prejoin_filter(query: &CompiledQuery, space: &JoinSpace, points: &PointSet) -> PointSet {
    prejoin_filter_in(query, space, points, host_threads(), FILTER_PAR_MIN_WORK)
}

/// [`prejoin_filter`] fanning out over at most `threads` chunks once the
/// counted work reaches `min_work`.
fn prejoin_filter_in(
    query: &CompiledQuery,
    space: &JoinSpace,
    points: &PointSet,
    threads: usize,
    min_work: usize,
) -> PointSet {
    if query.is_const_false() || query.num_relations() == 0 {
        return PointSet::new();
    }
    let cells = Cells::new(query, space, points);
    let done = exact_descent(query, &cells, threads, min_work, |run, _, _| {
        Marks::new(run)
    });
    #[cfg(test)]
    {
        tests::RESIDUAL_EVALS.with(|n| n.set(n.get() + done.steps));
        tests::LAST_LEVEL_VISITS.with(|n| n.set(n.get() + done.sink.visits));
    }
    collect_filter(points, &done.sink.matched)
}

/// The nested-loop reference pre-join filter (the original implementation):
/// kept for equivalence testing and as the benchmark baseline. Produces the
/// same [`PointSet`] as [`prejoin_filter`].
pub fn prejoin_filter_nested(
    query: &CompiledQuery,
    space: &JoinSpace,
    points: &PointSet,
) -> PointSet {
    let cells = Cells::new(query, space, points);
    let mut matched: Vec<u8> = vec![0; points.len()];
    // The query's truth value is binding-independent: check it once instead
    // of per loop iteration.
    if !query.is_const_false() {
        let pred_rels = pred_max_rels(query);
        nested(query, &cells, &pred_rels, &mut Vec::new(), &mut |binding| {
            // Full binding survived every predicate: mark all roles.
            for (r, &pos) in binding.iter().enumerate() {
                matched[cells.lists[r][pos]] |= space.flag(r).0;
            }
        });
    }
    collect_filter(points, &matched)
}

/// The pre-join's input, a [`Tuples`] over cells: per relation its role
/// list — the points that can play it — and each listed point's join
/// attributes as the intervals of its cell, laid out once by attribute as
/// a tuple's values are.
struct Cells {
    /// Points of the input.
    points: usize,
    /// Per relation: the point at each role-list position.
    lists: Vec<Vec<usize>>,
    /// Per relation: the role bit a full binding marks.
    roles: Vec<u8>,
    /// Per relation: the values of a position, its attributes up to its
    /// last join attribute.
    arity: Vec<usize>,
    /// Per relation: `arity` intervals a position; an attribute that no
    /// join predicate reads is the whole line.
    values: Vec<Vec<Interval>>,
}

impl Cells {
    fn new(query: &CompiledQuery, space: &JoinSpace, points: &PointSet) -> Self {
        let k = query.num_relations();
        let join_arity = |rel: usize| query.join_attrs(rel).iter().max().map_or(0, |&a| a + 1);
        let mut cells = Self {
            points: points.len(),
            lists: vec![Vec::new(); k],
            roles: (0..k).map(|rel| space.flag(rel).0).collect(),
            arity: (0..k).map(join_arity).collect(),
            values: vec![Vec::new(); k],
        };
        let mut cell = Vec::with_capacity(space.zspace.arity());
        for (idx, point) in points.points().iter().enumerate() {
            cell.clear();
            cell.extend((0..space.zspace.arity()).map(|d| space.zspace.cell_interval(point.z, d)));
            for rel in (0..k).filter(|&rel| point.flags.0 & cells.roles[rel] != 0) {
                cells.lists[rel].push(idx);
                let values = &mut cells.values[rel];
                let row = values.len();
                values.resize(row + cells.arity[rel], Interval::whole());
                for (&attr, dim) in query.join_attrs(rel).iter().zip(space.dims_of(rel)) {
                    let (lo, hi) = cell[dim];
                    values[row + attr] = Interval::new(lo, hi);
                }
            }
        }
        cells
    }
}

impl Tuples for Cells {
    type Key = Interval;

    #[inline]
    fn count(&self, rel: usize) -> usize {
        self.lists[rel].len()
    }

    #[inline]
    fn values(&self, rel: usize, pos: usize) -> &[Interval] {
        &self.values[rel][pos * self.arity[rel]..][..self.arity[rel]]
    }
}

fn collect_filter(points: &PointSet, matched: &[u8]) -> PointSet {
    PointSet::from_sorted(
        matched
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f != 0)
            .map(|(i, &f)| Point {
                z: points.points()[i].z,
                flags: RelFlags(f),
            })
            .collect(),
    )
}

/// The pre-join's sink. A full binding ORs each bound cell's role bit into
/// `matched`, so the filter is a semi-join, and the last level is a witness
/// search: `matched` never clears, so once every bound cell holds its bit
/// a candidate whose own bit is set can change nothing, and the walk steps
/// over it ([`unmarked_candidates`]; DESIGN §4.5).
struct Marks {
    /// Per point: the relation roles it matched in.
    matched: Vec<u8>,
    /// The last level's positions whose cells lack its role bit in
    /// `matched`: its witness search's skip arrays.
    unmarked: Unmarked,
    /// Last-level candidates the witness search checked.
    #[cfg(test)]
    visits: usize,
}

impl Marks {
    fn new(run: &ExactRun<Cells>) -> Self {
        let last = run.k - 1;
        Self {
            matched: vec![0; run.tuples.points],
            unmarked: Unmarked::new(&run.plan[last], run.tuples.count(last)),
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Marks every cell of the full binding `binding` in its role.
    fn mark(matched: &mut [u8], cells: &Cells, binding: &[usize]) {
        for (rel, &pos) in binding.iter().enumerate() {
            matched[cells.lists[rel][pos]] |= cells.roles[rel];
        }
    }
}

impl Sink<Cells> for Marks {
    fn full(&mut self, run: &ExactRun<Cells>, binding: &[usize]) {
        Self::mark(&mut self.matched, run.tuples, binding);
    }

    /// Checks the last level's candidates one at a time, each against every
    /// predicate of the level — a cell window decides none — and steps over
    /// marked ones once every bound cell holds its bit.
    fn last(run: &ExactRun<Cells>, st: &mut ExactChunk<Interval, Self>, base: usize, _: bool) {
        let ExactChunk {
            sink,
            binding,
            steps,
            probes,
            ..
        } = st;
        let (rel, cells, preds) = (binding.len(), run.tuples, run.query.join_preds());
        let (indexes, probes, checks) = (&run.plan[rel], &probes[base..], &run.checks[rel]);
        let settled = (binding.iter().enumerate())
            .all(|(r, &pos)| sink.matched[cells.lists[r][pos]] & cells.roles[r] != 0);
        let mut unmarked = std::mem::take(&mut sink.unmarked);
        binding.push(0);
        unmarked_candidates(indexes, probes, &mut unmarked, settled, |pos| {
            #[cfg(test)]
            {
                sink.visits += 1;
            }
            *steps += 1;
            binding[rel] = pos as usize;
            let env = |r: usize, a: usize| cells.values(r, binding[r])[a];
            let full = checks
                .iter()
                .all(|c| holds(&preds[c.pred], &env).possible());
            if full {
                Self::mark(&mut sink.matched, cells, binding);
            }
            full
        });
        binding.pop();
        sink.unmarked = unmarked;
    }

    fn merge(&mut self, later: Self) {
        for (m, p) in self.matched.iter_mut().zip(later.matched) {
            *m |= p;
        }
        #[cfg(test)]
        {
            self.visits += later.visits;
        }
    }
}

/// The nested-loop reference of both joins: every position of each level
/// in order, each level's join predicates checked per binding; `full`
/// takes every full binding that no check made false.
fn nested<T: Tuples + ?Sized>(
    query: &CompiledQuery,
    tuples: &T,
    pred_rels: &[usize],
    binding: &mut Vec<usize>,
    full: &mut impl FnMut(&[usize]),
) {
    let rel = binding.len();
    if rel == query.num_relations() {
        full(binding);
        return;
    }
    for pos in 0..tuples.count(rel) {
        binding.push(pos);
        let env = |r: usize, a: usize| tuples.values(r, binding[r])[a];
        let ok = query
            .join_preds()
            .iter()
            .zip(pred_rels)
            .filter(|&(_, &maxrel)| maxrel == rel)
            .all(|(p, _)| holds(p, &env) != false.into());
        if ok {
            nested(query, tuples, pred_rels, binding, full);
        }
        binding.pop();
    }
}

/// The exact join at the base station plus contribution tracking.
#[derive(Debug, Clone)]
pub struct JoinComputation<R = JoinResult> {
    /// The query answer: a [`JoinResult`], or a group epoch's
    /// [`GroupResult`].
    pub result: R,
    /// Origins of tuples appearing in at least one result row.
    pub contributors: BTreeSet<NodeId>,
}

/// A join's input: per relation, its tuples by position, each its values
/// aligned to the relation's schema in the key domain — a [`TupleBatch`]
/// per relation from the protocol executors and [`exact_join`], the
/// streaming engine's slot stores for its rejoin, the pre-join's [`Cells`].
/// A type parameter of the descent, like its [`Sink`].
pub(crate) trait Tuples: Sync {
    /// Points (`f64`) or cells ([`Interval`]).
    type Key: Key;
    /// Tuples of relation `rel`.
    fn count(&self, rel: usize) -> usize;
    /// The values of tuple `pos` of relation `rel`.
    fn values(&self, rel: usize, pos: usize) -> &[Self::Key];
}

impl Tuples for [TupleBatch] {
    type Key = f64;

    #[inline]
    fn count(&self, rel: usize) -> usize {
        self[rel].len()
    }

    #[inline]
    fn values(&self, rel: usize, pos: usize) -> &[f64] {
        self[rel].values(pos)
    }
}

/// One batch per relation of `tuples`; a relation without tuples gets
/// arity 0, which nothing reads.
pub(crate) fn batches(tuples: &[Vec<(NodeId, Vec<f64>)>]) -> Vec<TupleBatch> {
    let batch = |rel: &Vec<(NodeId, Vec<f64>)>| rel.iter().map(|(o, v)| (*o, &v[..])).collect();
    tuples.iter().map(batch).collect()
}

/// Where the exact join's sink ([`Emit`]) writes a full binding's row: a
/// vector per row ([`VecRows`], behind [`exact_join`]), one flat buffer
/// ([`Rows`], behind a group epoch's [`exact_join_flat`]) or the streaming
/// engine's cached run, which also keeps each row's binding
/// (`ingest::RowRun`). A type parameter of the descent, so each sink gets a
/// loop of its own with no per-row branch.
pub(crate) trait RowSink: Send + Sized {
    /// The empty row and key sinks of one chunk of a join of `query`.
    fn sinks(query: &CompiledQuery) -> (Self, Self);
    /// Room for `rows` more rows, if the allocator grants it: room that
    /// stays unused is never touched, and a refusal only means growing
    /// later.
    fn try_reserve(&mut self, rows: usize);
    /// Appends `later`'s rows after these.
    fn append(&mut self, later: Self);
    /// Appends the row of the full binding `binding` (a tuple position per
    /// relation): its SELECT values `select` to these rows and its group
    /// key `key`, if the query groups, to `keys`.
    fn emit(&mut self, keys: &mut Self, binding: &[usize], select: &[f64], key: &[f64]);
}

/// A [`RowSink`] that answers the query: its rows are grouped, folded or
/// returned by [`finish`].
pub(crate) trait ResultSink: RowSink {
    /// What a finished join answers.
    type Result;
    /// No rows yet, each to hold `arity` values.
    fn new(arity: usize) -> Self;
    fn len(&self) -> usize;
    fn row(&self, i: usize) -> &[f64];
    /// Appends the row `fill` writes into an empty or growing buffer.
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<f64>));
    /// The answer of a row query: these rows.
    fn into_rows(self) -> Self::Result;
    /// The answer of an aggregate query.
    fn aggregate(values: Vec<Option<f64>>) -> Self::Result;
}

/// [`JoinResult::Rows`] under construction: a vector per row, each sized
/// exactly.
pub(crate) struct VecRows {
    arity: usize,
    rows: Vec<Vec<f64>>,
}

impl RowSink for VecRows {
    fn sinks(query: &CompiledQuery) -> (Self, Self) {
        let (select, group) = (query.select().len(), query.group_by().len());
        (Self::new(select), Self::new(group))
    }

    fn try_reserve(&mut self, rows: usize) {
        let _ = self.rows.try_reserve_exact(rows);
    }

    fn append(&mut self, later: Self) {
        self.rows.extend(later.rows);
    }

    fn emit(&mut self, keys: &mut Self, _: &[usize], select: &[f64], key: &[f64]) {
        self.rows.push(select.to_vec());
        if !key.is_empty() {
            keys.rows.push(key.to_vec());
        }
    }
}

impl ResultSink for VecRows {
    type Result = JoinResult;

    fn new(arity: usize) -> Self {
        Self {
            arity,
            rows: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        let mut row = Vec::with_capacity(self.arity);
        fill(&mut row);
        self.rows.push(row);
    }

    fn into_rows(self) -> JoinResult {
        JoinResult::Rows(self.rows)
    }

    fn aggregate(values: Vec<Option<f64>>) -> JoinResult {
        JoinResult::Aggregate(values)
    }
}

/// The raw outputs of an exact join, before grouping and aggregation. Also
/// the bridge the streaming engine ([`crate::ingest::StreamJoinEngine`])
/// feeds its row cache through, so both paths share one finalization.
#[derive(Default)]
pub(crate) struct ExactAcc {
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) keys: Vec<Vec<f64>>,
    pub(crate) contributors: BTreeSet<NodeId>,
}

/// Computes the exact join over complete tuples. `tuples[rel]` are the
/// candidate tuples of relation `rel`: `(origin node, values aligned to the
/// relation's schema)`. Local predicates are assumed already applied at the
/// nodes; join predicates are evaluated here with full precision.
///
/// Partitioned evaluation: each descend level with a band predicate probes
/// a sorted-key index for its candidate tuples; the outer level is
/// chunked across the host's threads once the counted work pays for them.
/// Rows, row order, grouping and contributors are bit-identical to
/// [`exact_join_nested`]. The tuples are copied into one [`TupleBatch`] per
/// relation first, the input the protocol executors hand the join.
pub fn exact_join(query: &CompiledQuery, tuples: &[Vec<(NodeId, Vec<f64>)>]) -> JoinComputation {
    exact_join_batches(query, &batches(tuples))
}

/// [`exact_join`] over one batch per relation: the join of the protocol
/// executors, which read their tuples into batches
/// ([`NodeTable::tuples_per_rel`](crate::NodeTable::tuples_per_rel)).
pub(crate) fn exact_join_batches(query: &CompiledQuery, tuples: &[TupleBatch]) -> JoinComputation {
    assert_eq!(tuples.len(), query.num_relations());
    exact_join_in::<VecRows, _>(query, tuples, host_threads())
}

/// [`exact_join_batches`] with the rows in one flat buffer, the same rows in
/// the same order: the join of a group epoch, which allocates nothing per
/// row.
pub(crate) fn exact_join_flat(
    query: &CompiledQuery,
    tuples: &[TupleBatch],
) -> JoinComputation<GroupResult> {
    assert_eq!(tuples.len(), query.num_relations());
    exact_join_in::<Rows, _>(query, tuples, host_threads())
}

/// [`exact_join`] into sink `S`, fanning out over at most `threads` chunks.
fn exact_join_in<S: ResultSink, T: AsRef<[TupleBatch]> + ?Sized>(
    query: &CompiledQuery,
    tuples: &T,
    threads: usize,
) -> JoinComputation<S::Result> {
    let tuples = tuples.as_ref();
    let Some((rows, keys, seen, _)) = exact_emit::<S, _>(query, tuples, threads) else {
        let (rows, keys) = S::sinks(query);
        return JoinComputation {
            result: finish(query, rows, keys),
            contributors: BTreeSet::new(),
        };
    };
    let mut origins: Vec<NodeId> = Vec::new();
    for (rel, mut seen) in seen.into_iter().enumerate() {
        seen.drain(|pos| origins.push(tuples[rel].origin(pos as usize)));
    }
    JoinComputation {
        result: finish(query, rows, keys),
        contributors: origins.into_iter().collect(),
    }
}

/// The rows of the exact join of `tuples` into sink `S`, in emission order,
/// and the bindings the descent examined — one per tuple it bound, at any
/// level: the streaming engine's rejoin (`ingest` module docs).
pub(crate) fn exact_rows<S: RowSink, T: Tuples<Key = f64> + ?Sized>(
    query: &CompiledQuery,
    tuples: &T,
) -> (S, usize) {
    match exact_emit::<S, T>(query, tuples, host_threads()) {
        Some((rows, _, _, steps)) => (rows, steps),
        None => (S::sinks(query).0, 0),
    }
}

/// The exact join of `tuples` into row sink `S` over at most `threads`
/// chunks: its rows and group keys in emission order, per relation the
/// tuples that reached a row, and the tuples the descent bound at any
/// level; `None` for a query that is constant false.
#[allow(clippy::type_complexity)]
fn exact_emit<S: RowSink, T: Tuples<Key = f64> + ?Sized>(
    query: &CompiledQuery,
    tuples: &T,
    threads: usize,
) -> Option<(S, S, Vec<PosSet>, usize)> {
    if query.is_const_false() {
        return None;
    }
    let items = Projections::new(query, tuples);
    let done = exact_descent(query, tuples, threads, PAR_MIN_WORK, |run, i, range| {
        Emit::new(run, &items, i, range)
    });
    #[cfg(test)]
    tests::ITEM_EVALS.with(|n| n.set(n.get() + done.sink.item_evals));
    let Emit {
        rows, keys, seen, ..
    } = done.sink;
    Some((rows, keys, seen, done.steps))
}

/// The partitioned descent of a join of `tuples` into sink `W` — one for
/// both joins — over at most `threads` chunks once the counted work reaches
/// `min_work`, merged in chunk order. `sink(run, i, range)` is the empty
/// sink of chunk `i`, which walks the outer positions `range`.
fn exact_descent<T: Tuples + ?Sized, W: Sink<T>>(
    query: &CompiledQuery,
    tuples: &T,
    threads: usize,
    min_work: usize,
    sink: impl Fn(&ExactRun<T>, usize, &Range<usize>) -> W + Sync,
) -> ExactChunk<T::Key, W> {
    let k = query.num_relations();
    let pred_rels = pred_max_rels(query);
    let plan = exact_plan(query, tuples, &pred_rels);
    let hoisted = exact_hoisted(tuples, &plan);
    let run = ExactRun {
        query,
        k,
        tuples,
        checks: level_checks(&pred_rels, &plan),
        plan: &plan,
        hoisted: &hoisted,
    };
    let first = if k == 0 {
        // Zero relations: descend's base case takes the single empty
        // binding, exactly like the nested reference.
        let mut chunk = run.chunk(sink(&run, 0, &(0..0)));
        run.descend(&mut chunk);
        chunk
    } else {
        let deeper = deeper_space((0..k).map(|rel| tuples.count(rel)));
        let cuts = hoisted.cuts(deeper, threads, min_work);
        let mut parts = run_chunked(&cuts, |i, range| {
            let mut chunk = run.chunk(sink(&run, i, &range));
            chunk.steps += range.len();
            for pos in range {
                run.enter(0, pos, &mut chunk);
            }
            chunk
        })
        .into_iter();
        // Chunk-order merge: rows and keys concatenate to the sequential
        // order, contributors and marks union.
        let mut first = parts.next().expect("at least one chunk");
        for part in parts {
            first.sink.merge(part.sink);
            first.steps += part.steps;
            #[cfg(test)]
            for (all, n) in first.evals.iter_mut().zip(part.evals) {
                *all += n;
            }
        }
        first
    };
    #[cfg(test)]
    tests::PRED_EVALS.with(|evals| {
        let mut evals = evals.borrow_mut();
        evals.resize(first.evals.len(), 0);
        for (all, n) in evals.iter_mut().zip(&first.evals) {
            *all += n;
        }
    });
    first
}

/// The level-1 probes of the join `plan` for every outer tuple.
fn exact_hoisted<T: Tuples + ?Sized>(
    tuples: &T,
    plan: &[Vec<LevelIndex<T::Key>>],
) -> Hoisted<Probe> {
    let level1 = plan.get(1).map_or(&[][..], |l| l.as_slice());
    let outer = if plan.is_empty() { 0 } else { tuples.count(0) };
    Hoisted::build(outer, level1.len(), |pos, out| {
        let env = |_: usize, a: usize| tuples.values(0, pos)[a];
        let mut count = if plan.len() > 1 { tuples.count(1) } else { 0 };
        for ix in level1 {
            let probe = ix.probe(&env);
            count = count.min(probe.count());
            out.push(probe);
        }
        count
    })
}

/// The nested-loop reference exact join (the original implementation): kept
/// for equivalence testing and as the benchmark baseline. Produces the same
/// [`JoinComputation`] as [`exact_join`].
pub fn exact_join_nested(
    query: &CompiledQuery,
    tuples: &[Vec<(NodeId, Vec<f64>)>],
) -> JoinComputation {
    assert_eq!(tuples.len(), query.num_relations());
    let mut acc = ExactAcc::default();
    // Per relation and tuple: whether it appears in a result row.
    let mut used: Vec<Vec<bool>> = tuples.iter().map(|t| vec![false; t.len()]).collect();
    if !query.is_const_false() {
        let pred_rels = pred_max_rels(query);
        let input = batches(tuples);
        nested(
            query,
            &input[..],
            &pred_rels,
            &mut Vec::new(),
            &mut |binding| {
                let env = |r: usize, a: usize| -> f64 { tuples[r][binding[r]].1[a] };
                acc.rows.push(query.eval_select_row(&env));
                if query.has_group_by() {
                    acc.keys.push(query.eval_group_key(&env));
                }
                for (r, &idx) in binding.iter().enumerate() {
                    used[r][idx] = true;
                }
            },
        );
    }
    for (rel, used) in used.iter().enumerate() {
        for (idx, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            acc.contributors.insert(tuples[rel][idx].0);
        }
    }
    finalize_exact(query, acc)
}

/// [`finish`] for the nested reference and the streaming engine.
pub(crate) fn finalize_exact(query: &CompiledQuery, acc: ExactAcc) -> JoinComputation {
    let rows = VecRows {
        arity: query.select().len(),
        rows: acc.rows,
    };
    let keys = VecRows {
        arity: query.group_by().len(),
        rows: acc.keys,
    };
    JoinComputation {
        result: finish(query, rows, keys),
        contributors: acc.contributors,
    }
}

/// Grouping / aggregation folding shared by every exact join: a GROUP BY
/// query folds each group's rows in emission order, the groups in ascending
/// order of their keys' bit patterns (all methods compute the same
/// expressions, so grouping is deterministic); an aggregate query folds
/// every row; a row query answers its rows.
fn finish<S: ResultSink>(query: &CompiledQuery, rows: S, keys: S) -> S::Result {
    if query.has_group_by() {
        let by_key = |a: &usize, b: &usize| cmp_bits(keys.row(*a), keys.row(*b));
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(by_key);
        let mut out = S::new(query.select().len());
        for group in order.chunk_by(|a, b| by_key(a, b).is_eq()) {
            out.push_with(|row| query.fold_group(group.iter().map(|&i| rows.row(i)), row));
        }
        out.into_rows()
    } else if query.is_aggregate() {
        S::aggregate(query.aggregate((0..rows.len()).map(|i| rows.row(i))))
    } else {
        rows.into_rows()
    }
}

/// Shared context of the partitioned descent.
struct ExactRun<'a, T: Tuples + ?Sized> {
    query: &'a CompiledQuery,
    /// The relations joined.
    k: usize,
    tuples: &'a T,
    /// Per level: the join predicates checked there ([`level_checks`]).
    checks: Vec<Vec<Check>>,
    plan: &'a [Vec<LevelIndex<'a, T::Key>>],
    hoisted: &'a Hoisted<Probe>,
}

/// What the descent does with the bindings that pass its levels, a type
/// parameter beside the key domain, so each gets a loop of its own:
/// [`Emit`] writes the exact join's rows, [`Marks`] ORs the pre-join's role
/// bits.
trait Sink<T: Tuples + ?Sized>: Send + Sized {
    /// Binds tuple `pos` at inner level `rel`.
    fn bind(&mut self, _rel: usize, _pos: usize) {}
    /// Takes the full binding `binding`, which passed every level: the
    /// descent's base case, which a join of at most one relation reaches.
    fn full(&mut self, run: &ExactRun<T>, binding: &[usize]);
    /// Walks the last level for the binding in `st`, whose probes start at
    /// `base`; `decided`: its probes decide every check of the level.
    fn last(run: &ExactRun<T>, st: &mut ExactChunk<T::Key, Self>, base: usize, decided: bool);
    /// Adds a later chunk's output after this one's.
    fn merge(&mut self, later: Self);
}

/// The exact join's sink: a full binding's row into `rows` (its group key
/// into `keys`), and its tuples into `seen`.
struct Emit<'a, S> {
    rows: S,
    keys: S,
    /// Per relation: the tuples that reached a result row.
    seen: Vec<PosSet>,
    /// The SELECT items and GROUP BY keys a row is made of.
    items: &'a Projections<'a>,
    /// The row under construction, laid out as [`Projections::row`].
    row: Vec<f64>,
    /// SELECT items and GROUP BY keys evaluated per row.
    #[cfg(test)]
    item_evals: usize,
}

impl<'a, S: RowSink> Emit<'a, S> {
    /// The sink of chunk `i`, walking outer positions `range`.
    fn new<T: Tuples + ?Sized>(
        run: &ExactRun<T>,
        items: &'a Projections<'a>,
        i: usize,
        range: &Range<usize>,
    ) -> Self {
        let (mut rows, keys) = S::sinks(run.query);
        if run.k == 2 {
            // Every row of a two-way join is a counted candidate. The first
            // chunk's buffer becomes the result: it takes the other chunks'
            // rows too.
            let ahead = if i == 0 {
                0..run.tuples.count(0)
            } else {
                range.clone()
            };
            rows.try_reserve(run.hoisted.candidates(&ahead));
        }
        Self {
            rows,
            keys,
            seen: (0..run.k)
                .map(|rel| PosSet::new(run.tuples.count(rel)))
                .collect(),
            items,
            row: items.row.clone(),
            #[cfg(test)]
            item_evals: 0,
        }
    }

    /// Marks the tuples of `binding` as seen.
    fn mark_seen(&mut self, binding: &[usize]) {
        for (seen, &pos) in self.seen.iter_mut().zip(binding) {
            seen.insert(pos as u32);
        }
    }

    /// Emits the row of `binding` with tuple `pos` at the last level
    /// `rel`, whose slot the caller has pushed.
    #[inline]
    fn emit_last<T: Tuples<Key = f64> + ?Sized>(
        &mut self,
        run: &ExactRun<T>,
        rel: usize,
        pos: usize,
        binding: &mut [usize],
    ) {
        binding[rel] = pos;
        #[cfg(debug_assertions)]
        run.assert_checks(rel, binding);
        self.items.bind(rel, pos, &mut self.row);
        self.emit(run, binding);
    }

    /// Emits the row of the full binding `binding` into the sinks
    /// ([`RowSink::emit`]). The bound levels have written their items into
    /// `row`; the items that read several relations are evaluated here. The
    /// one emission of the descent: its base case and the flat last level.
    #[inline]
    fn emit<T: Tuples<Key = f64> + ?Sized>(&mut self, run: &ExactRun<T>, binding: &[usize]) {
        let env = |r: usize, a: usize| -> f64 { run.tuples.values(r, binding[r])[a] };
        for &(slot, expr) in &self.items.per_row {
            self.row[slot] = eval(expr, &env);
        }
        let (select, key) = self.row.split_at(self.items.select);
        self.rows.emit(&mut self.keys, binding, select, key);
        #[cfg(test)]
        {
            self.item_evals += self.items.per_row.len();
        }
    }
}

impl<S: RowSink, T: Tuples<Key = f64> + ?Sized> Sink<T> for Emit<'_, S> {
    fn bind(&mut self, rel: usize, pos: usize) {
        self.items.bind(rel, pos, &mut self.row);
    }

    fn full(&mut self, run: &ExactRun<T>, binding: &[usize]) {
        self.mark_seen(binding);
        self.emit(run, binding);
    }

    /// Emits the level's candidates that pass its checks — all of them,
    /// straight from the marks, when every check is decided — as rows in one
    /// flat loop that also marks them seen, and marks the levels above seen
    /// once.
    fn last(run: &ExactRun<T>, st: &mut ExactChunk<f64, Self>, base: usize, decided: bool) {
        let rel = st.binding.len();
        let mut marks = run.marked(rel, base, st);
        if decided {
            let mut seen = std::mem::take(&mut st.sink.seen[rel]);
            st.binding.push(0);
            let drained = marks.drain_into(&mut seen, |pos| {
                st.sink.emit_last(run, rel, pos as usize, &mut st.binding)
            });
            st.binding.pop();
            st.sink.seen[rel] = seen;
            st.steps += drained;
            if drained > 0 {
                st.sink.mark_seen(&st.binding);
            }
        } else {
            let batch = run.batch(rel, &mut marks, base, st);
            st.binding.push(0);
            for &pos in &batch {
                st.sink.seen[rel].insert(pos);
                st.sink.emit_last(run, rel, pos as usize, &mut st.binding);
            }
            st.binding.pop();
            if !batch.is_empty() {
                st.sink.mark_seen(&st.binding);
            }
            st.batches[rel] = batch;
        }
        st.cand[rel] = marks;
    }

    fn merge(&mut self, later: Self) {
        self.rows.append(later.rows);
        self.keys.append(later.keys);
        for (all, seen) in self.seen.iter_mut().zip(&later.seen) {
            all.union_with(seen);
        }
        #[cfg(test)]
        {
            self.item_evals += later.item_evals;
        }
    }
}

/// The SELECT items and GROUP BY keys of an exact join, each evaluated at
/// the level it depends on. A row is built in one buffer, its SELECT values
/// followed by its group key: an item that reads no relation is written
/// once, one that reads a single relation is evaluated once per tuple of it
/// and copied in when the descent binds that tuple, and one that reads
/// several is evaluated per row. The same expression over the same inputs
/// gives the same bits, so where it is evaluated changes no row.
struct Projections<'a> {
    /// The buffer every chunk starts from, with the constant items in place.
    row: Vec<f64>,
    /// How many of the items are SELECT items.
    select: usize,
    /// Per level: `(slot, value per tuple)` of each item that reads that
    /// level's relation alone.
    per_tuple: Vec<Vec<(usize, Vec<f64>)>>,
    /// `(slot, expression)` of each item that reads several relations.
    per_row: Vec<(usize, &'a NumExpr)>,
}

impl<'a> Projections<'a> {
    fn new<T: Tuples<Key = f64> + ?Sized>(query: &'a CompiledQuery, tuples: &T) -> Self {
        let mut items = Self {
            row: Vec::new(),
            select: query.select().len(),
            per_tuple: (0..query.num_relations()).map(|_| Vec::new()).collect(),
            per_row: Vec::new(),
        };
        let exprs = query.select().iter().map(|s| &s.expr);
        for (slot, expr) in exprs.chain(query.group_by()).enumerate() {
            let rels = expr.relations();
            let mut constant = f64::NAN;
            match (rels.first(), rels.len()) {
                (None, _) => {
                    constant = eval(expr, &|_: usize, _: usize| -> f64 {
                        unreachable!("a constant reads no relation")
                    })
                }
                (Some(&rel), 1) => {
                    let values = (0..tuples.count(rel))
                        .map(|pos| eval(expr, &|_: usize, a: usize| tuples.values(rel, pos)[a]))
                        .collect();
                    items.per_tuple[rel].push((slot, values));
                }
                _ => items.per_row.push((slot, expr)),
            }
            items.row.push(constant);
        }
        #[cfg(test)]
        tests::ITEM_EVALS.with(|n| {
            let per_tuple = items.per_tuple.iter().flatten();
            let constants = items.row.len() - items.per_row.len() - per_tuple.clone().count();
            n.set(n.get() + constants + per_tuple.map(|(_, values)| values.len()).sum::<usize>());
        });
        items
    }

    /// Writes the items of level `rel` for its tuple `pos` into `row`.
    #[inline]
    fn bind(&self, rel: usize, pos: usize, row: &mut [f64]) {
        for (slot, values) in &self.per_tuple[rel] {
            row[*slot] = values[pos];
        }
    }
}

/// A join predicate the descent checks at one level.
struct Check {
    /// Its position in `join_preds`.
    pred: usize,
    /// The position in the level's plan of the index built from it, which
    /// decides it where it prunes (`None`: a `General` predicate, or a cell
    /// index, which decides nothing).
    index: Option<usize>,
}

impl Check {
    /// Whether the level's `probes` decide the predicate for the current
    /// binding: its own index pruned, and a pruning probe is an exact window.
    fn decided(&self, probes: &[Probe]) -> bool {
        self.index.is_some_and(|i| probes[i].prunes())
    }
}

/// Per level: every join predicate whose highest relation is that level —
/// where a partial binding first can check it — with its index on the
/// level if that decides it. A join predicate reads two relations or more,
/// so the outermost level checks nothing.
fn level_checks<K: Key>(pred_rels: &[usize], plan: &[Vec<LevelIndex<K>>]) -> Vec<Vec<Check>> {
    let mut checks: Vec<Vec<Check>> = plan.iter().map(|_| Vec::new()).collect();
    for (pred, &rel) in pred_rels.iter().enumerate() {
        let index = plan[rel].iter().position(|ix| ix.pred() == pred);
        checks[rel].push(Check {
            pred,
            index: index.filter(|_| K::DECIDES),
        });
    }
    debug_assert!(checks.first().is_none_or(Vec::is_empty));
    checks
}

/// Mutable state and outputs of one chunk of the descent over keys `K`
/// into sink `W`. Everything but the sink's output is sized once per
/// chunk: emitting a row allocates the row's own vector into a [`VecRows`]
/// and nothing into [`Rows`] with room, binding a tuple or walking a
/// candidate nothing.
struct ExactChunk<K: Key, W> {
    sink: W,
    /// Per level: the marks that put its candidates in position order
    /// ([`candidates`]; empty between bindings).
    cand: Vec<PosSet>,
    /// Per level: the candidates of a batch with an undecided check, in
    /// position order ([`ExactRun::batch`]). Made on the chunk's first
    /// such batch, each with room for its whole relation.
    batches: Vec<Vec<u32>>,
    /// Evaluates the undecided checks over a batch.
    eval: BatchEval<K>,
    /// The open levels' probes, each level's parallel to its plan entry.
    probes: Vec<Probe>,
    /// Tuple positions bound so far, one per level.
    binding: Vec<usize>,
    /// Tuples bound so far, at any level ([`exact_rows`]).
    steps: usize,
    /// Per join predicate: residual evaluations (the counter test's tally).
    #[cfg(test)]
    evals: Vec<usize>,
}

impl<T: Tuples + ?Sized> ExactRun<'_, T> {
    fn chunk<W>(&self, sink: W) -> ExactChunk<T::Key, W> {
        let set = |rel: usize| PosSet::new(self.tuples.count(rel));
        ExactChunk {
            sink,
            cand: (0..self.k).map(set).collect(),
            batches: Vec::new(),
            eval: BatchEval::new(
                (0..self.k)
                    .map(|rel| self.tuples.count(rel))
                    .max()
                    .unwrap_or(0),
            ),
            probes: Vec::with_capacity(self.plan.iter().map(Vec::len).sum()),
            binding: Vec::with_capacity(self.k),
            steps: 0,
            #[cfg(test)]
            evals: vec![0; self.query.join_preds().len()],
        }
    }

    /// Probes the next level for the binding in `st` and hands its
    /// candidates on: the sink walks the last level; an inner level marks
    /// them and binds each in ascending position order, and the descent
    /// recurses. A level with a check its index did not decide for this
    /// binding drains them into a batch first, which the undecided checks
    /// thin out column at a time ([`ExactRun::batch`]).
    fn descend<W: Sink<T>>(&self, st: &mut ExactChunk<T::Key, W>) {
        let rel = st.binding.len();
        if rel == self.k {
            st.sink.full(self, &st.binding);
            return;
        }
        let base = st.probes.len();
        if rel == 1 {
            st.probes.extend_from_slice(self.hoisted.of(st.binding[0]));
        } else {
            let binding = &st.binding;
            let env = |r: usize, a: usize| self.tuples.values(r, binding[r])[a];
            st.probes
                .extend(self.plan[rel].iter().map(|ix| ix.probe(&env)));
        }
        let decided = self.checks[rel]
            .iter()
            .all(|c| c.decided(&st.probes[base..]));
        if rel + 1 == self.k {
            W::last(self, st, base, decided);
        } else {
            let mut marks = self.marked(rel, base, st);
            if decided {
                marks.drain(|pos| {
                    st.steps += 1;
                    self.enter(rel, pos as usize, st);
                });
            } else {
                let batch = self.batch(rel, &mut marks, base, st);
                for &pos in &batch {
                    self.enter(rel, pos as usize, st);
                }
                st.batches[rel] = batch;
            }
            st.cand[rel] = marks;
        }
        st.probes.truncate(base);
    }

    /// The candidates of level `rel`, whose probes start at `base`, marked
    /// in the level's [`PosSet`], which the caller puts back once drained.
    fn marked<W>(&self, rel: usize, base: usize, st: &mut ExactChunk<T::Key, W>) -> PosSet {
        let mut marks = std::mem::take(&mut st.cand[rel]);
        let probes = &st.probes[base..];
        candidates(&self.plan[rel], probes, self.tuples.count(rel), |pos| {
            marks.insert(pos)
        });
        marks
    }

    /// Drains the candidates of level `rel` from `marks` into the level's
    /// batch and keeps those that pass every check of the level, in order:
    /// an undecided check is evaluated over the whole batch
    /// ([`BatchEval::retain`]) and the survivors compacted before the next,
    /// as `all` would stop at the first false; a decided one holds by
    /// construction ([`decided`]). The level's probes start at `base`.
    fn batch<W>(
        &self,
        rel: usize,
        marks: &mut PosSet,
        base: usize,
        st: &mut ExactChunk<T::Key, W>,
    ) -> Vec<u32> {
        if st.batches.is_empty() {
            st.batches = (0..self.k).map(|_| Vec::new()).collect();
        }
        let mut batch = std::mem::take(&mut st.batches[rel]);
        batch.clear();
        batch.reserve_exact(self.tuples.count(rel));
        marks.drain(|pos| batch.push(pos));
        st.steps += batch.len();
        let binding = &st.binding;
        let bound = |r: usize, a: usize| self.tuples.values(r, binding[r])[a];
        let value = |pos: u32, a: usize| self.tuples.values(rel, pos as usize)[a];
        for c in &self.checks[rel] {
            let pred = &self.query.join_preds()[c.pred];
            if c.decided(&st.probes[base..]) {
                continue;
            }
            #[cfg(test)]
            {
                st.evals[c.pred] += batch.len();
            }
            st.eval.retain(pred, rel, &bound, &value, &mut batch);
        }
        batch
    }

    /// Binds tuple `pos` at level `rel`, a candidate that passed the
    /// level's checks, and descends.
    fn enter<W: Sink<T>>(&self, rel: usize, pos: usize, st: &mut ExactChunk<T::Key, W>) {
        st.binding.push(pos);
        #[cfg(debug_assertions)]
        self.assert_checks(rel, &st.binding);
        st.sink.bind(rel, pos);
        self.descend(st);
        st.binding.pop();
    }

    /// Evaluates, for a binding bound up to level `rel` that passed the
    /// level, every predicate checked there, none of which may be false
    /// ([`decided`] asserts it): by construction where an index decided
    /// it, by the batch's verdict where none did.
    #[cfg(debug_assertions)]
    fn assert_checks(&self, rel: usize, binding: &[usize]) {
        let env = |r: usize, a: usize| self.tuples.values(r, binding[r])[a];
        for c in &self.checks[rel] {
            decided(&self.query.join_preds()[c.pred], &env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use proptest::prelude::*;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Bindings whose residual interval check ran in the
        /// [`prejoin_filter_in`] calls of this thread, all chunks summed.
        pub(super) static RESIDUAL_EVALS: Cell<usize> = const { Cell::new(0) };
        /// Last-level candidates the witness search visited in the
        /// [`prejoin_filter_in`] calls of this thread, all chunks summed.
        pub(super) static LAST_LEVEL_VISITS: Cell<usize> = const { Cell::new(0) };
        /// Per join predicate: its residual evaluations in the
        /// [`exact_join_in`] calls of this thread, all chunks summed.
        pub(super) static PRED_EVALS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
        /// SELECT item and GROUP BY key evaluations in the [`exact_join_in`]
        /// calls of this thread, all chunks summed.
        pub(super) static ITEM_EVALS: Cell<usize> = const { Cell::new(0) };
    }

    /// [`exact_join_in`] over the batches of `tuples`.
    fn join_in<S: ResultSink>(
        cq: &CompiledQuery,
        tuples: &[Vec<(NodeId, Vec<f64>)>],
        threads: usize,
    ) -> JoinComputation<S::Result> {
        exact_join_in::<S, _>(cq, &batches(tuples)[..], threads)
    }

    fn setup(sql: &str) -> (SensorNetwork, CompiledQuery, JoinSpace) {
        setup_nodes(sql, 80)
    }

    fn setup_nodes(sql: &str, n: usize) -> (SensorNetwork, CompiledQuery, JoinSpace) {
        setup_in(sql, n, Area::new(300.0, 300.0))
    }

    fn setup_in(sql: &str, n: usize, area: Area) -> (SensorNetwork, CompiledQuery, JoinSpace) {
        let snet = SensorNetworkBuilder::new()
            .area(area)
            .placement(Placement::UniformRandom { n })
            .seed(11)
            .build()
            .unwrap();
        let q = parse(sql).unwrap();
        let cq = snet.compile(&q).unwrap();
        let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
        (snet, cq, space)
    }

    /// All tuples of the network, per relation.
    fn all_tuples(snet: &SensorNetwork, cq: &CompiledQuery) -> Vec<Vec<(NodeId, Vec<f64>)>> {
        (0..cq.num_relations())
            .map(|r| {
                let schema = cq.schema(r);
                (0..snet.len() as u32)
                    .map(NodeId)
                    .filter(|&n| snet.belongs(n, schema.name()))
                    .map(|n| (n, snet.values_for(n, schema)))
                    .filter(|(_, v)| cq.eval_local(r, v))
                    .collect()
            })
            .collect()
    }

    /// Encodes every node into the join space (test helper mirroring the
    /// protocol's node-side encoding).
    fn all_points(snet: &SensorNetwork, cq: &CompiledQuery, space: &JoinSpace) -> PointSet {
        let mut set = PointSet::new();
        for n in (0..snet.len() as u32).map(NodeId) {
            let per_rel: Vec<Option<Vec<f64>>> = (0..cq.num_relations())
                .map(|r| {
                    let schema = cq.schema(r);
                    if snet.belongs(n, schema.name()) {
                        let v = snet.values_for(n, schema);
                        cq.eval_local(r, &v).then_some(v)
                    } else {
                        None
                    }
                })
                .collect();
            let mut flags = 0u8;
            for (r, v) in per_rel.iter().enumerate() {
                if v.is_some() {
                    flags |= space.flag(r).0;
                }
            }
            if flags != 0 {
                let dims = space.dim_values(cq, &per_rel);
                set.insert(space.encode(&dims), RelFlags(flags));
            }
        }
        set
    }

    #[test]
    fn work_cuts_cover_every_position_without_empty_chunks() {
        let cuts = |work: &[usize], parts: usize| -> Vec<(usize, usize)> {
            let cuts = equal_work_cuts(work, parts);
            cuts.iter().map(|r| (r.start, r.end)).collect()
        };
        // Ten equal positions halve; one chunk is everything.
        let even: Vec<usize> = (0..=10).map(|i| i * 10).collect();
        assert_eq!(cuts(&even, 2), [(0, 5), (5, 10)]);
        assert_eq!(cuts(&even, 1), [(0, 10)]);
        // A position heavier than a share: no empty chunk after or before.
        assert_eq!(cuts(&[0, 1, 2, 100], 2), [(0, 3)]);
        assert_eq!(cuts(&[0, 98, 99, 100], 4), [(0, 1), (1, 3)]);
        // More threads than positions, and no position at all.
        assert_eq!(cuts(&[0, 1, 2], 8), [(0, 1), (1, 2)]);
        assert_eq!(cuts(&[0], 4), [(0, 0)]);
    }

    #[test]
    fn filter_never_loses_a_joining_tuple() {
        let (snet, cq, space) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.2 ONCE",
        );
        let tuples = all_tuples(&snet, &cq);
        let exact = exact_join(&cq, &tuples);
        let points = all_points(&snet, &cq, &space);
        let filter = prejoin_filter(&cq, &space, &points);
        // Every contributing node's cell must be in the filter with its role.
        for &n in &exact.contributors {
            let v = snet.values_for(n, cq.schema(0));
            let dims = space.dim_values(&cq, &[Some(v.clone()), Some(v)]);
            let z = space.encode(&dims);
            assert!(
                filter.contains_matching(z, RelFlags::BOTH),
                "contributor {n} missing from filter"
            );
        }
        // And the filter is selective (not everything).
        assert!(filter.len() <= points.len());
    }

    #[test]
    fn exact_join_matches_bruteforce() {
        let (snet, cq, _) = setup(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.5 ONCE",
        );
        let tuples = all_tuples(&snet, &cq);
        let res = exact_join(&cq, &tuples);
        // Brute force over pairs.
        let mut expect = 0;
        let ti = 2; // temp index in schema
        for (_, a) in &tuples[0] {
            for (_, b) in &tuples[1] {
                if a[ti] - b[ti] > 1.5 {
                    expect += 1;
                }
            }
        }
        assert_eq!(res.result.len(), expect);
    }

    #[test]
    fn aggregate_query_result() {
        let (snet, cq, _) = setup(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.0 ONCE",
        );
        let tuples = all_tuples(&snet, &cq);
        let res = exact_join(&cq, &tuples);
        match res.result {
            JoinResult::Aggregate(vals) => {
                assert_eq!(vals.len(), 1);
                if !res.contributors.is_empty() {
                    assert!(vals[0].is_some());
                    assert!(vals[0].unwrap() >= 0.0);
                }
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn cross_join_degenerate_space() {
        let (snet, cq, space) = setup("SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE");
        // No join predicates: single-cell space, everything in the filter.
        assert_eq!(space.zspace().total_bits(), 0);
        let points = all_points(&snet, &cq, &space);
        assert_eq!(points.len(), 1);
        let filter = prejoin_filter(&cq, &space, &points);
        assert_eq!(filter.len(), 1);
        assert_eq!(filter.points()[0].flags, RelFlags::BOTH);
    }

    #[test]
    fn three_way_join_filter() {
        let (snet, cq, space) = setup(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.1 AND |B.temp - C.temp| < 0.1 ONCE",
        );
        let tuples = all_tuples(&snet, &cq);
        let exact = exact_join(&cq, &tuples);
        let points = all_points(&snet, &cq, &space);
        let filter = prejoin_filter(&cq, &space, &points);
        for &n in &exact.contributors {
            let v = snet.values_for(n, cq.schema(0));
            let dims = space.dim_values(&cq, &[Some(v.clone()), Some(v.clone()), Some(v)]);
            let z = space.encode(&dims);
            assert!(filter.contains_matching(z, RelFlags(0b111)));
        }
    }

    /// Regression: on the probe side of an `|f(A) − g(B)| op c` predicate
    /// the index is built on the *rhs* relation, so the probe coordinate is
    /// decreasing and the two accepted d-intervals of `Gt`/`Ge`/`Eq` map to
    /// a suffix run followed by a prefix run of the sorted keys; both runs
    /// must survive the range merge (a naive ascending merge drops the
    /// prefix and loses rows).
    #[test]
    fn abs_gt_band_keeps_both_runs() {
        use sensjoin_relation::{AttrType, Attribute, Schema};
        let schema = Schema::new("Sensors", vec![Attribute::new("temp", AttrType::Celsius)]);
        let temps = [-4.0, -2.0, 0.0, 2.0, 4.0];
        let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..2)
            .map(|r| {
                temps
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (NodeId((r * 100 + i) as u32), vec![t]))
                    .collect()
            })
            .collect();
        for (sql, expect) in [
            // 20 ordered pairs differ by more than 1: all but the diagonal.
            ("|A.temp - B.temp| > 1.0", 20),
            ("|A.temp - B.temp| >= 2.0", 20),
            // |d| = 2 holds for the 8 adjacent pairs.
            ("|A.temp - B.temp| = 2.0", 8),
        ] {
            let q = parse(&format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE {sql} ONCE"
            ))
            .unwrap();
            let cq = CompiledQuery::compile(&q, &[schema.clone(), schema.clone()]).unwrap();
            let new = exact_join(&cq, &tuples);
            let old = exact_join_nested(&cq, &tuples);
            assert_eq!(old.result.len(), expect, "reference sanity for {sql}");
            assert_eq!(new.result.len(), expect, "partitioned lost rows for {sql}");
            assert_eq!(new.contributors, old.contributors, "{sql}");
        }
    }

    /// Index intersection: a 3-way join whose last descent level carries
    /// *two* indexable predicates (a band `A–C` and an equality `B–C`) must
    /// use both — smallest window drives, the other becomes a membership
    /// probe — and still match the nested reference bit for bit, for the
    /// exact join and the pre-join filter alike.
    #[test]
    fn index_intersection_on_shared_level_matches_nested() {
        for sql in [
            // Both predicates' highest relation is C: level 2 gets two
            // sorted-key indexes, the band's and the equality's.
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - C.temp| < 0.4 AND B.hum = C.hum ONCE",
            // Three predicates, two of them (band + band) on level C.
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - C.temp| < 0.5 AND B.temp - C.temp > -0.5 \
             AND A.hum - B.hum > -30.0 ONCE",
        ] {
            let (snet, cq, space) = setup(sql);
            // Sanity: the last level really holds two indexes.
            let pred_rels = pred_max_rels(&cq);
            assert!(
                pred_rels.iter().filter(|&&r| r == 2).count() >= 2,
                "test premise: two predicates on level 2 for {sql}"
            );
            let tuples = all_tuples(&snet, &cq);
            let new = exact_join(&cq, &tuples);
            let old = exact_join_nested(&cq, &tuples);
            assert_eq!(new.contributors, old.contributors, "{sql}");
            match (&new.result, &old.result) {
                (JoinResult::Rows(a), JoinResult::Rows(b)) => {
                    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                        rows.iter()
                            .map(|r| r.iter().map(|v| v.to_bits()).collect())
                            .collect()
                    };
                    assert_eq!(bits(a), bits(b), "row mismatch for {sql}");
                }
                (a, b) => panic!("result kind mismatch for {sql}: {a:?} vs {b:?}"),
            }
            let points = all_points(&snet, &cq, &space);
            let new_f = prejoin_filter(&cq, &space, &points);
            let old_f = prejoin_filter_nested(&cq, &space, &points);
            assert_eq!(new_f.points(), old_f.points(), "filter mismatch for {sql}");
        }
    }

    /// Shapes of the items a row is made of, each with the humidity grid its
    /// tuples are coarsened to (`A.hum = B.hum` finds partners on a grid
    /// only): SELECT items spanning relations, `distance` and a constant
    /// among them; GROUP BY keys on one relation and on two; a flat last
    /// level decided by two indexes (the band drives, the equality is a
    /// membership test) and one driven by an equality; and a three-way join
    /// whose last level is flat. Wide enough to fan out at 480 nodes.
    const ITEM_SHAPES: [(&str, Option<f64>); 6] = [
        (
            "SELECT A.hum - B.hum, distance(A.x, A.y, B.x, B.y), 2.5 FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 2.5 ONCE",
            None,
        ),
        (
            "SELECT A.light, COUNT(B.hum), SUM(B.hum) FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 2.5 GROUP BY A.light ONCE",
            None,
        ),
        (
            "SELECT A.light - B.light, MAX(A.hum) FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 2.5 GROUP BY A.light - B.light ONCE",
            None,
        ),
        (
            "SELECT A.hum, B.temp FROM Sensors A, Sensors B \
             WHERE A.hum = B.hum AND A.temp - B.temp > 0.25 ONCE",
            Some(10.0),
        ),
        (
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.hum = B.hum ONCE",
            Some(10.0),
        ),
        (
            "SELECT A.hum - C.hum, B.temp, 1.5 FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.05 AND B.hum - C.hum > 6.0 ONCE",
            None,
        ),
    ];

    /// Every tuple's humidity rounded to a multiple of `grid`.
    fn coarsen_hum(cq: &CompiledQuery, tuples: &mut [Vec<(NodeId, Vec<f64>)>], grid: Option<f64>) {
        let Some(grid) = grid else { return };
        for (rel, tuples) in tuples.iter_mut().enumerate() {
            let hum = cq
                .schema(rel)
                .index_of("hum")
                .expect("a humidity attribute");
            for (_, values) in tuples {
                values[hum] = (values[hum] / grid).round() * grid;
            }
        }
    }

    /// The partitioned engine and the nested-loop reference agree exactly —
    /// rows, row order, contributors and filter bitmask — across predicate
    /// classes (equality / band / abs-band / general / mixed) and the item
    /// shapes of [`ITEM_SHAPES`].
    #[test]
    fn partitioned_engine_matches_nested_reference() {
        for (sql, grid) in [
            "SELECT A.temp, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp = B.temp ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.5 ONCE",
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.2 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| > 1.0 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| >= 1.0 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| = 0.0 ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp < B.temp AND A.hum - B.hum > 10.0 ONCE",
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < 40.0 ONCE",
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.3 AND B.temp - C.temp > 0.5 ONCE",
        ]
        .into_iter()
        .map(|sql| (sql, None))
        .chain(ITEM_SHAPES)
        {
            let (snet, cq, space) = setup(sql);
            let mut tuples = all_tuples(&snet, &cq);
            coarsen_hum(&cq, &mut tuples, grid);
            let new = exact_join(&cq, &tuples);
            let old = exact_join_nested(&cq, &tuples);
            assert_eq!(new.contributors, old.contributors, "{sql}");
            match (&new.result, &old.result) {
                (JoinResult::Rows(a), JoinResult::Rows(b)) => {
                    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                        rows.iter()
                            .map(|r| r.iter().map(|v| v.to_bits()).collect())
                            .collect()
                    };
                    assert!(!a.is_empty(), "premise: rows for {sql}");
                    assert_eq!(bits(a), bits(b), "row mismatch for {sql}");
                }
                (a, b) => panic!("result kind mismatch for {sql}: {a:?} vs {b:?}"),
            }
            let points = all_points(&snet, &cq, &space);
            let new_f = prejoin_filter(&cq, &space, &points);
            let old_f = prejoin_filter_nested(&cq, &space, &points);
            assert_eq!(new_f.points(), old_f.points(), "filter mismatch for {sql}");
        }
    }

    /// A flat result's rows as bit patterns, in order.
    fn flat_bits(result: &GroupResult) -> Vec<Vec<u64>> {
        let GroupResult::Rows(rows) = result else {
            panic!("expected rows, got {result:?}");
        };
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The flat sink answers exactly what the vector sink does — the same
    /// rows in the same order, the same aggregates, the same groups in the
    /// same order, the same contributors — for every result shape: rows of
    /// two- and three-way joins, no rows, aggregates over rows and over
    /// none, GROUP BY, a cross join, and the item shapes of [`ITEM_SHAPES`].
    #[test]
    fn flat_sink_matches_vector_sink() {
        for (sql, grid) in [
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.5 ONCE",
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.3 AND B.temp - C.temp > 0.5 ONCE",
            "SELECT A.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1000 ONCE",
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)), COUNT(A.hum), AVG(B.hum) \
             FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.0 ONCE",
            "SELECT SUM(A.hum), MAX(B.temp) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1000 ONCE",
            "SELECT A.light, COUNT(B.hum), SUM(B.hum) FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.5 GROUP BY A.light ONCE",
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE",
        ]
        .into_iter()
        .map(|sql| (sql, None))
        .chain(ITEM_SHAPES)
        {
            let (snet, cq, _) = setup(sql);
            let mut tuples = all_tuples(&snet, &cq);
            coarsen_hum(&cq, &mut tuples, grid);
            let want = join_in::<VecRows>(&cq, &tuples, 1);
            let got = join_in::<Rows>(&cq, &tuples, 1);
            assert_eq!(got.contributors, want.contributors, "{sql}");
            match (&want.result, &got.result) {
                (JoinResult::Rows(rows), flat @ GroupResult::Rows(_)) => {
                    let bits: Vec<Vec<u64>> = rows
                        .iter()
                        .map(|r| r.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    assert_eq!(flat_bits(flat), bits, "{sql}");
                }
                (JoinResult::Aggregate(a), GroupResult::Aggregate(b)) => {
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|x| x.map(f64::to_bits)).collect()
                    };
                    assert_eq!(bits(a), bits(b), "{sql}");
                }
                (a, b) => panic!("result kind mismatch for {sql}: {a:?} vs {b:?}"),
            }
            assert!(got.result.same_result(&want.result), "{sql}");
        }
    }

    /// What the host's thread count must not change: joins whose counted
    /// work is past [`PAR_MIN_WORK`] return the same rows in the same order
    /// into either sink, the same contributors and the same filter from 1,
    /// 2, 3 and 7 chunks — the item shapes of [`ITEM_SHAPES`] included.
    #[test]
    fn chunk_count_does_not_change_a_join() {
        const NODES: usize = 480;
        for (sql, grid) in [
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 2.5 AND A.hum - B.hum > -60.0 ONCE",
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.05 AND B.hum - C.hum > 6.0 ONCE",
        ]
        .into_iter()
        .map(|sql| (sql, None))
        .chain(ITEM_SHAPES)
        {
            let (snet, cq, space) = setup_nodes(sql, NODES);
            let mut tuples = all_tuples(&snet, &cq);
            coarsen_hum(&cq, &mut tuples, grid);
            let points = all_points(&snet, &cq, &space);
            let row_bits = |res: &JoinComputation| -> Vec<Vec<u64>> {
                let JoinResult::Rows(rows) = &res.result else {
                    panic!("expected rows for {sql}");
                };
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let one = join_in::<VecRows>(&cq, &tuples, 1);
            let rows = row_bits(&one);
            assert!(!rows.is_empty(), "{sql}");
            // Premise — the counts above 1 really are chunked. The filter
            // is chunked whatever its work: it is run with no minimum.
            let input = batches(&tuples);
            let plan = exact_plan(&cq, &input[..], &pred_max_rels(&cq));
            let deeper = deeper_space(tuples.iter().map(Vec::len));
            let cuts = exact_hoisted(&input[..], &plan).cuts(deeper, 2, PAR_MIN_WORK);
            assert_eq!(cuts.len(), 2, "premise: {sql} fans out");
            let filter = prejoin_filter_in(&cq, &space, &points, 1, 0);
            for threads in [2, 3, 7] {
                let got = join_in::<VecRows>(&cq, &tuples, threads);
                assert_eq!(row_bits(&got), rows, "{threads} chunks: {sql}");
                assert_eq!(
                    got.contributors, one.contributors,
                    "{threads} chunks: {sql}"
                );
                let got = prejoin_filter_in(&cq, &space, &points, threads, 0);
                assert_eq!(got.points(), filter.points(), "{threads} chunks: {sql}");
            }
            for threads in [1, 2, 3, 7] {
                let got = join_in::<Rows>(&cq, &tuples, threads);
                assert_eq!(flat_bits(&got.result), rows, "{threads} flat chunks: {sql}");
                assert_eq!(got.contributors, one.contributors, "{threads} flat chunks");
            }
        }
    }

    /// The witness search changes which bindings are checked, never the
    /// marks: over populations that exercise its edges the filter equals the
    /// nested reference from one to seven chunks. Points draw their roles at
    /// random, so role lists differ in length and a self-join cell can hold
    /// one role, or both, and be marked in one before the other.
    #[test]
    fn witness_search_matches_nested_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let two =
            |pred: &str| format!("SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE {pred} ONCE");
        // (query, whether its filter is empty / everything — `None`: neither)
        let cases = [
            (
                two("|A.temp - B.temp| < 0.02 AND distance(A.x, A.y, B.x, B.y) > 150"),
                None,
            ),
            (
                "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
                 WHERE |A.temp - B.temp| < 0.1 AND |B.temp - C.temp| < 0.1 ONCE"
                    .to_owned(),
                None,
            ),
            // Predicates whose index cannot prune: every cell is a candidate.
            (two("A.temp != B.temp"), None),
            (
                two("|A.temp - B.temp| >= 0.0 AND A.hum - B.hum > 5.0"),
                None,
            ),
            // A complement band: a prefix and a suffix run.
            (two("|A.temp - B.temp| > 0.8"), None),
            (two("A.temp - B.temp > 1000.0"), Some(false)),
            (two("A.temp - B.temp > -1000.0"), Some(true)),
        ];
        for (sql, all) in &cases {
            let (snet, cq, space) = setup_nodes(sql, 90);
            let everyone = all_points(&snet, &cq, &space);
            let roles = (1u8 << cq.num_relations()) - 1;
            let mut partial_roles = all.is_some();
            for seed in 0..4 {
                // Seed 0 keeps every point in every role; the others thin
                // the later roles out more than the first.
                let mut rng = SmallRng::seed_from_u64(seed);
                let points = PointSet::from_points(everyone.iter().filter_map(|p| {
                    let drawn = (0..cq.num_relations())
                        .filter(|&r| seed == 0 || rng.gen_bool(0.9 - 0.25 * r as f64))
                        .fold(0, |f, r| f | space.flag(r).0);
                    (drawn != 0).then_some(Point {
                        z: p.z,
                        flags: RelFlags(drawn),
                    })
                }));
                let reference = prejoin_filter_nested(&cq, &space, &points);
                match all {
                    Some(false) => assert!(reference.is_empty(), "{sql}"),
                    Some(true) => assert_eq!(reference.points(), points.points(), "{sql}"),
                    None => {
                        assert!(!reference.is_empty(), "{sql}");
                        partial_roles |= reference.iter().any(|p| p.flags.0 != roles);
                    }
                }
                for threads in 1..=7 {
                    let got = prejoin_filter_in(&cq, &space, &points, threads, 0);
                    assert_eq!(
                        got.points(),
                        reference.points(),
                        "{threads} chunks, seed {seed}: {sql}"
                    );
                }
            }
            assert!(
                partial_roles,
                "premise: some cell matched in one role only for {sql}"
            );
        }
    }

    /// Query shapes for the witness search's random populations, each with
    /// a band bound `{c}` (of `temp`), `{h}` (of `hum`) and a distance
    /// `{d}`: what the last level holds — one index; two; a complement
    /// band's two rays; a band that prunes nothing, beside a pruning one and
    /// alone; no index — in two-way joins, then in three-way ones with one
    /// index and with two.
    const WITNESS_SHAPES: [&str; 8] = [
        "|A.temp - B.temp| < {c} AND distance(A.x, A.y, B.x, B.y) > {d}",
        "|A.temp - B.temp| < {c} AND |A.hum - B.hum| <= {h}",
        "|A.temp - B.temp| > {c} AND distance(A.x, A.y, B.x, B.y) < {d}",
        "|A.temp - B.temp| >= -1.0 AND A.hum - B.hum > {h}",
        "|A.temp - B.temp| >= 0.0 AND distance(A.x, A.y, B.x, B.y) < {d}",
        "distance(A.x, A.y, B.x, B.y) < {d}",
        "|A.temp - B.temp| < {c} AND |B.temp - C.temp| < {c} AND \
         distance(A.x, A.y, C.x, C.y) > {d}",
        "|A.temp - B.temp| < {c} AND |A.temp - C.temp| < {c} AND |B.hum - C.hum| < {h}",
    ];

    proptest! {
        /// The witness search against the nested reference on random
        /// populations, one to seven chunks: random cells holding random
        /// role subsets (single roles included), under every shape of
        /// [`WITNESS_SHAPES`], and bounds from ones no cell meets to ones
        /// every cell does.
        #[test]
        fn witness_search_matches_nested_on_random_populations(
            shape in 0..WITNESS_SHAPES.len(),
            cells in prop::collection::vec((any::<u64>(), 1u8..=255), 1..48),
            bounds in (0u32..=1000, 0u32..=1000, 0u32..=1000),
        ) {
            let spread = |per_mille: u32, span: f64| span * per_mille as f64 / 1000.0;
            let (c, h, d) = (spread(bounds.0, 1.0), spread(bounds.1, 30.0), spread(bounds.2, 430.0));
            let pred = WITNESS_SHAPES[shape];
            let from = if pred.contains("C.") {
                "Sensors A, Sensors B, Sensors C"
            } else {
                "Sensors A, Sensors B"
            };
            let pred = pred
                .replace("{c}", &format!("{c:?}"))
                .replace("{h}", &format!("{h:?}"))
                .replace("{d}", &format!("{d:?}"));
            let sql = format!("SELECT A.hum FROM {from} WHERE {pred} ONCE");
            let (_, cq, space) = setup_nodes(&sql, 40);
            let dims = space.zspace().dims();
            let points = PointSet::from_points(cells.iter().map(|&(at, drawn)| {
                let mut at = at;
                let coords: Vec<u64> = dims
                    .iter()
                    .map(|dim| {
                        let coord = at % dim.cells();
                        at /= dim.cells();
                        coord
                    })
                    .collect();
                let roles = (0..cq.num_relations())
                    .filter(|r| drawn & (1 << r) != 0)
                    .fold(0, |f, r| f | space.flag(r).0);
                Point {
                    z: space.zspace().encode_cells(&coords),
                    flags: RelFlags(if roles == 0 { space.flag(0).0 } else { roles }),
                }
            }));
            let reference = prejoin_filter_nested(&cq, &space, &points);
            for threads in 1..=7 {
                let got = prejoin_filter_in(&cq, &space, &points, threads, 0);
                prop_assert_eq!(got.points(), reference.points(), "{} chunks: {}", threads, sql);
            }
        }
    }

    /// Brute force over all pairs: how many `(A, B)` cell pairs the first
    /// (band) predicate alone lets through — the candidates the partitioned
    /// descent walks, each of which paid a residual check before the last
    /// level became a witness search.
    fn band_candidates(cq: &CompiledQuery, space: &JoinSpace, points: &PointSet) -> usize {
        let cells = Cells::new(cq, space, points);
        let band = &cq.join_preds()[0];
        let mut candidates = 0;
        for a in 0..cells.count(0) {
            for b in 0..cells.count(1) {
                let env = |r: usize, attr: usize| cells.values(r, [a, b][r])[attr];
                if holds(band, &env).possible() {
                    candidates += 1;
                }
            }
        }
        candidates
    }

    /// The gain of the witness search as a count: on a Q3-shaped population
    /// (a band that leaves every cell hundreds of candidates, a distance
    /// conjunct most of them pass) the residual checks follow the cells, not
    /// the candidate pairs — per chunk, since each chunk keeps its own marks.
    #[test]
    fn residual_checks_follow_cells_not_candidate_pairs() {
        let (snet, cq, space) = setup_in(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
            1500,
            Area::for_constant_density(1500),
        );
        let points = all_points(&snet, &cq, &space);
        let cells = points.len();
        assert!(cells >= 1000, "{cells} cells");
        let candidates = band_candidates(&cq, &space, &points);
        let reference = prejoin_filter_nested(&cq, &space, &points);
        assert!(
            reference.len() * 10 >= cells * 9,
            "premise: most cells have a partner ({} of {cells})",
            reference.len()
        );
        for chunks in [1, 2, 7] {
            RESIDUAL_EVALS.with(|n| n.set(0));
            let got = prejoin_filter_in(&cq, &space, &points, chunks, 0);
            let evals = RESIDUAL_EVALS.with(Cell::get);
            assert_eq!(got.points(), reference.points(), "{chunks} chunks");
            // A checked last-level binding either fails the distance
            // conjunct or sets a role bit that was clear: at most two
            // successes per cell and chunk, plus one level-0 binding a cell.
            assert!(
                evals <= 4 * cells * chunks,
                "{chunks} chunks: {evals} residual checks for {cells} cells"
            );
            // Checking every candidate pair once, whatever the chunking, is
            // what the descent did before.
            assert!(
                chunks > 1 || candidates >= 20 * evals,
                "{evals} residual checks against {candidates} candidate pairs"
            );
        }
    }

    /// The witness search's walk as a count, on the population of
    /// `residual_checks_follow_cells_not_candidate_pairs`: once a binding's
    /// cells hold their bits, the last level jumps from one unmarked
    /// candidate to the next, so its visits follow the cells and the checks
    /// rather than the 241 882 candidate pairs a per-candidate walk visits.
    /// The checks themselves are those of that walk, witness for witness.
    #[test]
    fn last_level_visits_follow_cells_and_checks() {
        let (snet, cq, space) = setup_in(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
            1500,
            Area::for_constant_density(1500),
        );
        let points = all_points(&snet, &cq, &space);
        let cells = points.len();
        let reference = prejoin_filter_nested(&cq, &space, &points);
        for (chunks, checks) in [(1, 5_515), (2, 7_998), (7, 15_815)] {
            RESIDUAL_EVALS.with(|n| n.set(0));
            LAST_LEVEL_VISITS.with(|n| n.set(0));
            let got = prejoin_filter_in(&cq, &space, &points, chunks, 0);
            let evals = RESIDUAL_EVALS.with(Cell::get);
            let visits = LAST_LEVEL_VISITS.with(Cell::get);
            assert_eq!(got.points(), reference.points(), "{chunks} chunks");
            assert_eq!(evals, checks, "{chunks} chunks: residual checks");
            assert!(
                visits <= 2 * (cells * chunks + evals),
                "{chunks} chunks: {visits} last-level visits for {cells} cells and {evals} checks"
            );
        }
    }

    /// [`exact_join_in`] at `threads` chunks, checked bit for bit against
    /// the nested reference, with its residual evaluations per join
    /// predicate.
    fn counted_join(
        cq: &CompiledQuery,
        tuples: &[Vec<(NodeId, Vec<f64>)>],
        threads: usize,
    ) -> (usize, Vec<usize>) {
        PRED_EVALS.take();
        let got = join_in::<VecRows>(cq, tuples, threads);
        let mut evals = PRED_EVALS.take();
        evals.resize(cq.join_preds().len(), 0);
        let want = exact_join_nested(cq, tuples);
        assert_eq!(got.contributors, want.contributors, "{threads} chunks");
        let (JoinResult::Rows(a), JoinResult::Rows(b)) = (&got.result, &want.result) else {
            panic!("a row query");
        };
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{threads} chunks");
        (a.len(), evals)
    }

    /// SELECT items and GROUP BY keys are evaluated at the level they
    /// depend on ([`Projections`]): one that reads a single relation once
    /// per tuple of it, one that reads no relation once per join, one that
    /// reads several once per row — whatever the chunk count.
    #[test]
    fn select_items_are_evaluated_at_their_level() {
        // (items, evaluations per tuple of A, per tuple of B, per row and
        // per join)
        let cases = [
            ("A.hum, B.hum", [1, 1, 0, 0]),
            ("A.hum - B.hum", [0, 0, 1, 0]),
            ("2.5, A.hum", [1, 0, 0, 1]),
            ("A.light, COUNT(B.hum) GROUP BY A.light", [2, 1, 0, 0]),
        ];
        for (items, per) in cases {
            let (select, group) = items.split_once(" GROUP").unwrap_or((items, ""));
            let (snet, cq, _) = setup_nodes(
                &format!(
                    "SELECT {select} FROM Sensors A, Sensors B \
                     WHERE A.temp - B.temp > 0.5{}{group} ONCE",
                    if group.is_empty() { "" } else { " GROUP" }
                ),
                480,
            );
            let tuples = all_tuples(&snet, &cq);
            let rows = exact_join_nested(&cq, &tuples).result.len();
            for threads in [1, 2, 7] {
                ITEM_EVALS.take();
                let got = join_in::<VecRows>(&cq, &tuples, threads);
                let evals = ITEM_EVALS.take();
                assert_eq!(got.result.len(), rows, "{threads} chunks: {items}");
                let (a, b) = (tuples[0].len(), tuples[1].len());
                let want = per[0] * a + per[1] * b + per[2] * rows + per[3];
                assert_eq!(evals, want, "{threads} chunks: {items}");
            }
        }
        // Premise: the joins fan out, and a row is far more than a tuple.
        let (snet, cq, _) = setup_nodes(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 0.5 ONCE",
            480,
        );
        let tuples = all_tuples(&snet, &cq);
        let rows = exact_join_nested(&cq, &tuples).result.len();
        assert!(
            rows > PAR_MIN_WORK && rows > 100 * tuples[0].len(),
            "{rows} rows"
        );
    }

    /// Undecided checks on two levels of a three-way join — an `OR` on level
    /// 1, and on level 2 a `<>` and a product, each evaluated over the
    /// survivors of the one before — with ±∞ and NaN keys: a batch at a
    /// time, the join gives the nested reference's rows, in its order, and
    /// its contributors, bit for bit at 1, 2 and 7 chunks.
    #[test]
    fn undecided_checks_on_two_levels_match_nested() {
        let (snet, cq, _) = setup_nodes(
            "SELECT A.temp, B.hum, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 1.0 \
             AND (A.hum - B.hum > 10.0 OR distance(A.x, A.y, B.x, B.y) < 60.0) \
             AND B.hum - C.hum > 5.0 AND C.temp <> B.temp AND A.hum * C.hum < 2500.0 ONCE",
            120,
        );
        let mut tuples = all_tuples(&snet, &cq);
        for (rel, tuples) in tuples.iter_mut().enumerate() {
            let schema = cq.schema(rel);
            let (temp, hum) = (schema.index_of("temp"), schema.index_of("hum"));
            let (temp, hum) = (temp.expect("temp"), hum.expect("hum"));
            let keys = [
                (temp, f64::INFINITY),
                (temp, f64::NEG_INFINITY),
                (temp, f64::NAN),
                (hum, f64::INFINITY),
                (hum, f64::NEG_INFINITY),
                (hum, f64::NAN),
            ];
            for (i, (attr, key)) in keys.into_iter().enumerate() {
                tuples[3 * i + rel].1[attr] = key;
            }
        }
        // Premise: the join fans out.
        let input = batches(&tuples);
        let plan = exact_plan(&cq, &input[..], &pred_max_rels(&cq));
        let deeper = deeper_space(tuples.iter().map(Vec::len));
        let cuts = exact_hoisted(&input[..], &plan).cuts(deeper, 2, PAR_MIN_WORK);
        assert_eq!(cuts.len(), 2, "premise: the join fans out");
        let (rows, evals) = counted_join(&cq, &tuples, 1);
        assert!(rows > 0, "premise: rows");
        // Premise: each general check is evaluated, the product only on
        // what the `<>` kept.
        let [_, or, _, ne, product] = evals[..] else {
            panic!("five join predicates: {evals:?}");
        };
        assert!(or > 0 && product > 0 && product < ne, "{evals:?}");
        // `counted_join` holds the vector sink to the nested rows; the flat
        // sink is held to them here.
        let want = exact_join_nested(&cq, &tuples);
        let JoinResult::Rows(want_rows) = &want.result else {
            panic!("a row query");
        };
        let want_bits: Vec<Vec<u64>> = (want_rows.iter())
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        for threads in [1, 2, 7] {
            let counted = counted_join(&cq, &tuples, threads);
            assert_eq!(counted, (rows, evals.clone()), "{threads} chunks");
            let got = join_in::<Rows>(&cq, &tuples, threads);
            assert_eq!(flat_bits(&got.result), want_bits, "{threads} flat chunks");
            assert_eq!(got.contributors, want.contributors, "{threads} flat chunks");
        }
    }

    /// A predicate whose own index pruned for a binding is decided there:
    /// the residual evaluates only the rest, and falls back to a predicate
    /// whose probe could not prune.
    #[test]
    fn residual_checks_follow_undecided_predicates() {
        const TEMP: usize = 2;
        // The dense shape: its band decides every candidate, so nothing is
        // evaluated and the last level emits flat.
        let (snet, cq, _) = setup_nodes(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 0.5 ONCE",
            480,
        );
        let mut tuples = all_tuples(&snet, &cq);
        for threads in [1, 2] {
            let (rows, evals) = counted_join(&cq, &tuples, threads);
            assert!(rows > PAR_MIN_WORK, "premise: {rows} rows fan out");
            assert_eq!(evals, [0], "{threads} chunks");
        }
        // Keys the window must place exactly: ±∞ and NaN on the keyed
        // side, and an outer tuple at +∞, whose difference probe (∞ − key)
        // cannot prune. That one binding falls back to the residual, once
        // per inner tuple; every other stays decided.
        tuples[1][0].1[TEMP] = f64::INFINITY;
        tuples[1][1].1[TEMP] = f64::NEG_INFINITY;
        tuples[1][2].1[TEMP] = f64::NAN;
        tuples[0][7].1[TEMP] = f64::INFINITY;
        for threads in [1, 2] {
            let (_, evals) = counted_join(&cq, &tuples, threads);
            assert_eq!(evals, [tuples[1].len()], "{threads} chunks");
        }
        // The paper's Q3: the band drives and decides, `distance` is
        // evaluated once per band candidate.
        let (snet, cq, _) = setup_in(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
            1000,
            Area::for_constant_density(1000),
        );
        let tuples = all_tuples(&snet, &cq);
        let band = &cq.join_preds()[0];
        let mut band_candidates = 0;
        for (_, a) in &tuples[0] {
            for (_, b) in &tuples[1] {
                let env = |r: usize, attr: usize| if r == 0 { a[attr] } else { b[attr] };
                band_candidates += holds(band, &env) as usize;
            }
        }
        let (rows, evals) = counted_join(&cq, &tuples, 1);
        assert!(rows > 0 && band_candidates > 10 * rows / 9, "premise");
        assert_eq!(evals, [0, band_candidates]);
    }
}
