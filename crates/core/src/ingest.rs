//! Streaming ingestion engine: O(Δ) steady-state joins over tuple deltas.
//!
//! The continuous pipeline originally recomputed [`crate::exact_join`] from
//! scratch every round, even when only a handful of readings changed. This
//! module maintains the join *incrementally*: a persistent
//! [`StreamJoinEngine`] is fed per-relation tuple deltas
//! ([`StreamOp::Upsert`] / [`StreamOp::Expire`]) and re-enumerates the
//! bindings anchored at the changed tuples only, so a batch of `Δ` changes
//! costs `O(Δ · candidates-per-probe)` probing plus one sequential pass over
//! the cached rows, instead of `O(Π |Rᵢ|)`.
//!
//! # Delta indexes
//!
//! Each indexable join conjunct (a band, equality included, see
//! [`sensjoin_query::PredClass`]) gets one incremental index *per side*, so
//! a delta anchored in either relation can probe the other. It is the batch
//! engine's index — one [`SortedKeys`] `(key, slot)` array ascending by key
//! — kept under upsert/expire, and probed through the batch engine's window
//! derivation ([`SortedKeys::runs`]): at most two exact runs per probe,
//! complement bands (`|a − b| >= c`) and equality's [p, p] included.
//!
//! The window is exact (the `partition` module docs), so the conjunct
//! whose index produced a level's candidates is decided for them and is not
//! evaluated again; the full-precision gate runs every other conjunct the
//! binding closes (and, under debug assertions, the decided one too).
//!
//! # A cold load is the batch join
//!
//! A batch that leaves every live tuple of some relation fresh — a cold
//! load, a restore, a continuous round that re-ships every matched node —
//! leaves no cached row alive: each bound a tuple of that relation, and all
//! of those are new. Such a batch is not enumerated from its anchors, which
//! finds each binding once from every fresh tuple it binds. The stores are
//! compacted into ascending origin order (a refresh, whose tuples keep their
//! slots, is in that order already) and the batch join's own plan, hoisted
//! probes and chunked descent run over them in place, writing the run
//! through a third row sink; the engine's indexes are left stale until an
//! anchored batch needs them, and one sort each rebuilds them. The run is
//! bit-identical to the one the anchored path would leave: it is the same
//! descent over the same tuples in the same order as [`crate::exact_join`]
//! over the live tuples, whose emission order is ascending origin vectors.
//!
//! # The cached result and its equivalence to the batch join
//!
//! The cached rows are one flat run (`RowRun`): per row a slot per relation
//! and the projected values, ascending by the rows' per-relation origin
//! vectors. An anchored batch rewrites it in one merge pass that drops the
//! rows binding an expired tuple and lands the freshly enumerated ones;
//! there is no per-row entry, key or reverse map. Lexicographic origin order
//! is the batch descent's emission order over tuples in ascending
//! [`NodeId`] order, so [`StreamJoinEngine::result`] — which replays the
//! run through the same finalization as [`crate::exact_join`] — is
//! *bit-identical* to recomputing the batch join over the live tuples: same
//! rows, same order, same grouping folds, same contributor set.

use crate::engine::{exact_rows, finalize_exact, ExactAcc, JoinComputation, RowSink, Tuples};
use crate::partition::{decided, runs_len, Runs, SortedKeys};
use sensjoin_query::{eval, holds, Columns, CompiledQuery, NumExpr, Pred, PredClass};
use sensjoin_relation::{NodeId, TupleBatch};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A node's live tuples: its origin and the `per_rel` of its upsert.
pub type LiveTuple = (NodeId, Vec<Option<Vec<f64>>>);

/// One tuple-level change fed to [`StreamJoinEngine::apply_batch`].
///
/// A node contributes at most one tuple per relation (its current reading),
/// so deltas are keyed by origin node.
#[derive(Debug, Clone)]
pub enum StreamOp {
    /// Insert or replace every tuple of `origin`: `per_rel[r]` carries the
    /// schema-aligned values for relation `r` (`None`: the node does not
    /// currently contribute to `r`). Replaces the node's previous
    /// membership wholesale (an upsert is an expire followed by inserts).
    Upsert {
        /// The producing node.
        origin: NodeId,
        /// Per-relation values, aligned to each relation's schema. Local
        /// predicates are assumed already applied (tuples failing them are
        /// `None`), mirroring [`crate::exact_join`]'s contract.
        per_rel: Vec<Option<Vec<f64>>>,
    },
    /// Remove every tuple of `origin`.
    Expire {
        /// The node whose tuples leave the window.
        origin: NodeId,
    },
}

/// Accounting for one delta batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchStats {
    /// Ops applied.
    pub ops: usize,
    /// Tuples inserted (one per `(relation, origin)` pair).
    pub inserted: usize,
    /// Tuples expired.
    pub expired: usize,
    /// Result rows added by this batch.
    pub rows_added: usize,
    /// Result rows removed by this batch.
    pub rows_removed: usize,
    /// Candidate bindings examined — the steady-state work metric (`O(Δ)`
    /// claim: stays proportional to the batch, not the relations). Anchored
    /// re-enumeration finds a binding once from each fresh tuple it binds; a
    /// rejoin examines each once (one per tuple its descent binds).
    pub candidates: usize,
}

impl BatchStats {
    /// Folds another batch's counters into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        self.ops += other.ops;
        self.inserted += other.inserted;
        self.expired += other.expired;
        self.rows_added += other.rows_added;
        self.rows_removed += other.rows_removed;
        self.candidates += other.candidates;
    }
}

/// What a slot of a [`RelStore`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Free,
    Live,
    /// Live, and inserted by the batch being applied.
    Fresh,
}

/// Hashes an origin with one multiplication (the golden-ratio constant): the
/// origin map is probed once per op and relation, where SipHash's
/// resistance to chosen keys buys nothing — the keys are node ids.
#[derive(Debug, Default)]
struct OriginHasher(u64);

impl Hasher for OriginHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32 ^ (self.0 as u32).rotate_left(8));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Slot-based tuple store of one relation: per slot an origin and `arity`
/// values in one [`TupleBatch`], so a tuple costs no allocation of its own.
#[derive(Debug, Default)]
struct RelStore {
    /// Per slot: the producing node and its schema-aligned values (stale
    /// when the slot is free).
    tuples: TupleBatch,
    /// Per slot: what it holds.
    state: Vec<Slot>,
    /// Per slot: the cached result rows binding it (0 when free) — an origin
    /// contributes iff one of its tuples has a row.
    rows: Vec<u32>,
    /// Origin → live slot.
    by_origin: HashMap<NodeId, u32, BuildHasherDefault<OriginHasher>>,
    /// Reusable free slots.
    free: Vec<u32>,
}

impl RelStore {
    /// Room for `n` more tuples.
    fn reserve(&mut self, n: usize) {
        self.by_origin.reserve(n);
        self.tuples.reserve(n);
        self.state.reserve(n);
        self.rows.reserve(n);
    }

    fn values_of(&self, slot: u32) -> &[f64] {
        self.tuples.values(slot as usize)
    }

    /// Stores `values` as `origin`'s tuple: in `old`, its slot if it has
    /// one, else in a free or new one. The slot is left fresh with no row.
    fn put(&mut self, origin: NodeId, old: Option<u32>, values: &[f64]) -> u32 {
        let slot = match old.or_else(|| self.free.pop()) {
            Some(slot) => {
                self.tuples.set(slot as usize, origin, values);
                (self.state[slot as usize], self.rows[slot as usize]) = (Slot::Fresh, 0);
                slot
            }
            None => {
                self.tuples.push(origin, values);
                self.state.push(Slot::Fresh);
                self.rows.push(0);
                self.tuples.len() as u32 - 1
            }
        };
        if old.is_none() {
            self.by_origin.insert(origin, slot);
        }
        slot
    }

    /// Frees `slot`. The cached rows binding it stay in the run until the
    /// batch's merge pass, which recognises them by the slot's state.
    fn free_slot(&mut self, slot: u32) {
        self.by_origin.remove(&self.tuples.origin(slot as usize));
        (self.state[slot as usize], self.rows[slot as usize]) = (Slot::Free, 0);
        self.free.push(slot);
    }

    /// Renumbers the live slots `0..live` in ascending origin order and drops
    /// the free ones: the store becomes the batch join's input for this
    /// relation. Every slot is left [`Slot::Live`] with no row.
    fn compact(&mut self) {
        self.state.fill(Slot::Live);
        self.rows.fill(0);
        let origins = self.tuples.origins();
        if self.free.is_empty() && origins.windows(2).all(|o| o[0] < o[1]) {
            return; // already in origin order, as a refresh leaves it
        }
        let mut live: Vec<(NodeId, u32)> = self.by_origin.iter().map(|(&o, &s)| (o, s)).collect();
        live.sort_unstable();
        let mut tuples = TupleBatch::with_capacity(self.tuples.arity(), live.len());
        for (pos, &(origin, slot)) in live.iter().enumerate() {
            tuples.push(origin, self.values_of(slot));
            self.by_origin.insert(origin, pos as u32);
        }
        self.tuples = tuples;
        self.free.clear();
        self.state.truncate(self.tuples.len());
        self.rows.truncate(self.tuples.len());
    }
}

/// The stores as the batch join reads them: positions are slots, so only a
/// compacted store is a valid input.
impl Tuples for [RelStore] {
    type Key = f64;

    #[inline]
    fn count(&self, rel: usize) -> usize {
        self[rel].tuples.len()
    }

    #[inline]
    fn values(&self, rel: usize, pos: usize) -> &[f64] {
        self[rel].tuples.values(pos)
    }
}

/// The candidate slots of one level of a descent, borrowed from the index
/// (or, when no index can prune, from the store).
enum Cands<'a> {
    Runs(&'a [(f64, u32)], Runs),
    /// Every slot that is not free.
    Scan(&'a [Slot]),
}

impl Cands<'_> {
    fn len(&self) -> usize {
        match self {
            Cands::Runs(_, runs) => runs_len(runs),
            Cands::Scan(_) => usize::MAX,
        }
    }

    fn for_each(&self, mut f: impl FnMut(u32)) {
        match self {
            Cands::Runs(keys, runs) => runs
                .iter()
                .flat_map(|run| &keys[run.clone()])
                .for_each(|&(_, slot)| f(slot)),
            Cands::Scan(state) => (0..state.len() as u32)
                .filter(|&slot| state[slot as usize] != Slot::Free)
                .for_each(f),
        }
    }
}

/// One incremental index: the keyed side of a band conjunct on one
/// relation — its slots' keys, sorted — probed with the other side's value.
#[derive(Debug)]
struct IngestIndex {
    /// The join predicate (position in `join_preds`) it was built from.
    pred: usize,
    /// The relation the probe expression reads (must be bound first).
    other_rel: usize,
    /// Key expression over the indexed relation.
    key_expr: NumExpr,
    /// Probe expression over `other_rel`.
    probe_expr: NumExpr,
    keys: SortedKeys<f64>,
}

impl IngestIndex {
    /// The key of `values` under this index (the key expression only reads
    /// the indexed relation).
    fn key_of(&self, rel: usize, values: &[f64]) -> f64 {
        eval(&self.key_expr, &|r: usize, a: usize| {
            debug_assert_eq!(r, rel);
            values[a]
        })
    }

    /// Candidate slots for probe value `p`: `None` when the index cannot
    /// prune (the caller scans), otherwise `Some` with exactly the slots
    /// whose tuple satisfies the conjunct against `p` — the conjunct is
    /// decided for them.
    fn probe(&self, p: f64) -> Option<Cands<'_>> {
        Some(Cands::Runs(&self.keys.entries, self.keys.runs(p)?))
    }

    /// Re-sorts the index over the live slots of `store`.
    fn rebuild(&mut self, rel: usize, store: &RelStore) {
        let live =
            (0..store.tuples.len() as u32).filter(|&s| store.state[s as usize] != Slot::Free);
        let keyed = live.map(|slot| (self.key_of(rel, store.values_of(slot)), slot));
        self.keys = SortedKeys::build(self.keys.form, self.keys.key_is_lhs, keyed);
    }
}

/// A change one op of a batch makes to an index, kept until the batch
/// knows its path: `(relation, index of it, key, slot, inserted?)`.
type IndexMove = (usize, usize, f64, u32, bool);

/// The cached result: one flat run of rows, ascending by the origin vector
/// their slots name — the batch emission order. A row lives as long as every
/// tuple it binds, so its slots always name the origins it was found for.
#[derive(Debug, Default)]
struct RowRun {
    /// Slots per row: one per relation.
    k: usize,
    /// Values per row: the SELECT items, then the GROUP BY keys.
    w: usize,
    /// Per row one slot per relation (stride `k`).
    slots: Vec<u32>,
    /// Per row its SELECT values, then its group key (stride `w`).
    vals: Vec<f64>,
}

impl RowRun {
    fn new(query: &CompiledQuery) -> Self {
        Self {
            k: query.num_relations(),
            w: projection(query).count(),
            ..Self::default()
        }
    }
}

/// The rejoin's sink: a row is its binding — on compacted stores a slot
/// per relation — then its values, both appended to the one run. The key
/// sink stays empty.
impl RowSink for RowRun {
    fn sinks(query: &CompiledQuery) -> (Self, Self) {
        (Self::new(query), Self::default())
    }

    fn try_reserve(&mut self, rows: usize) {
        let _ = self.slots.try_reserve_exact(rows.saturating_mul(self.k));
        let _ = self.vals.try_reserve_exact(rows.saturating_mul(self.w));
    }

    fn append(&mut self, later: Self) {
        self.slots.extend_from_slice(&later.slots);
        self.vals.extend_from_slice(&later.vals);
    }

    fn emit(&mut self, _: &mut Self, binding: &[usize], select: &[f64], key: &[f64]) {
        self.slots.extend(binding.iter().map(|&slot| slot as u32));
        self.vals.extend_from_slice(select);
        self.vals.extend_from_slice(key);
    }
}

/// Orders two bindings (a slot per relation) by their origin vectors.
fn cmp_rows(rels: &[RelStore], a: &[u32], b: &[u32]) -> Ordering {
    let origin = |r: usize, row: &[u32]| rels[r].tuples.origin(row[r] as usize);
    let differ = (0..rels.len()).find(|&r| origin(r, a) != origin(r, b));
    differ.map_or(Ordering::Equal, |r| origin(r, a).cmp(&origin(r, b)))
}

/// The expressions a cached row stores the values of: the SELECT items, then
/// the GROUP BY keys.
fn projection(query: &CompiledQuery) -> impl Iterator<Item = &NumExpr> {
    let select = query.select().iter().map(|s| &s.expr);
    select.chain(query.group_by())
}

/// One batch's anchored enumerations: the bind order (anchor first), the slots
/// bound so far, and the bindings kept (a slot per relation each).
struct Descent<'a> {
    order: Vec<usize>,
    binding: Vec<u32>,
    found: Vec<u32>,
    stats: &'a mut BatchStats,
}

/// A persistent streaming join over per-relation tuple deltas.
///
/// Feed batches of [`StreamOp`]s with [`StreamJoinEngine::apply_batch`];
/// read the full current answer with [`StreamJoinEngine::result`], which is
/// bit-identical to [`crate::exact_join`] over the live tuples (in ascending
/// origin order per relation).
#[derive(Debug)]
pub struct StreamJoinEngine {
    query: CompiledQuery,
    rels: Vec<RelStore>,
    /// Per relation: its incremental indexes.
    indexes: Vec<Vec<IngestIndex>>,
    /// Whether the indexes hold the stores' keys. A rejoin does not need
    /// them and leaves them stale; the next anchored batch re-sorts them.
    indexed: bool,
    /// Per join predicate: bitmask of referenced relations.
    pred_masks: Vec<u32>,
    /// The cached result rows.
    run: RowRun,
    /// Scratch of one batch, kept for its capacity: the bindings it found
    /// (a slot per relation each), their sort order, and the run it merges
    /// them into.
    fresh: Vec<u32>,
    order: Vec<u32>,
    spare: RowRun,
}

impl StreamJoinEngine {
    /// Creates an empty engine for `query`.
    ///
    /// # Panics
    /// Panics if the query joins more than 32 relations (the binding
    /// bitmask width; far beyond any sensor query).
    pub fn new(query: CompiledQuery) -> Self {
        let k = query.num_relations();
        assert!(k <= 32, "at most 32 relations");
        let pred_masks = query
            .join_preds()
            .iter()
            .map(|p| p.relations().into_iter().fold(0u32, |m, r| m | 1 << r))
            .collect();
        let mut indexes: Vec<Vec<IngestIndex>> = (0..k).map(|_| Vec::new()).collect();
        for (pred, pc) in query.pred_classes().iter().enumerate() {
            let PredClass::Band { lhs, rhs, form } = pc else {
                continue;
            };
            if lhs.rel == rhs.rel {
                continue;
            }
            for (key, probe, key_is_lhs) in [(lhs, rhs, true), (rhs, lhs, false)] {
                indexes[key.rel].push(IngestIndex {
                    pred,
                    other_rel: probe.rel,
                    key_expr: key.expr.clone(),
                    probe_expr: probe.expr.clone(),
                    keys: SortedKeys {
                        form: *form,
                        key_is_lhs,
                        entries: Vec::new(),
                    },
                });
            }
        }
        let store = |r: usize| RelStore {
            tuples: TupleBatch::new(query.schema(r).arity()),
            ..RelStore::default()
        };
        Self {
            rels: (0..k).map(store).collect(),
            indexes,
            indexed: false,
            pred_masks,
            run: RowRun::new(&query),
            fresh: Vec::new(),
            order: Vec::new(),
            spare: RowRun::new(&query),
            query,
        }
    }

    /// The compiled query this engine maintains.
    pub fn query(&self) -> &CompiledQuery {
        &self.query
    }

    /// Cached result-row count (pre-grouping).
    pub fn cached_rows(&self) -> usize {
        self.run.slots.len() / self.rels.len()
    }

    /// Every live tuple as `(origin, per-relation values)` in ascending
    /// origin order. Replaying these through
    /// [`StreamJoinEngine::apply_batch`] as one upsert batch rebuilds an
    /// equivalent engine: result rows are ordered by origin vectors, so slot
    /// numbering (which replay does not reproduce) is unobservable.
    pub fn live_tuples(&self) -> Vec<LiveTuple> {
        let mut origins: BTreeSet<NodeId> = BTreeSet::new();
        for rs in &self.rels {
            origins.extend(rs.by_origin.keys().copied());
        }
        origins
            .into_iter()
            .map(|o| {
                let per_rel = self
                    .rels
                    .iter()
                    .map(|rs| Some(rs.values_of(*rs.by_origin.get(&o)?).to_vec()))
                    .collect();
                (o, per_rel)
            })
            .collect()
    }

    /// Rebuilds an engine from live tuples by replaying them — a cold load,
    /// so a rejoin. The replay's [`BatchStats`] are deliberately discarded:
    /// they are reconstruction work, not traffic.
    pub fn restore(query: CompiledQuery, tuples: &[LiveTuple]) -> Self {
        let mut engine = Self::new(query);
        let upsert = |(origin, per_rel): &LiveTuple| StreamOp::Upsert {
            origin: *origin,
            per_rel: per_rel.clone(),
        };
        let _ = engine.apply_batch(&tuples.iter().map(upsert).collect::<Vec<_>>());
        engine
    }

    /// Applies one delta batch and updates the cached result.
    ///
    /// All store changes land first. If every live tuple of some relation
    /// was inserted by this batch, no cached row survives, and the run is
    /// rebuilt as the batch join of the live tuples (the module docs, "A
    /// cold load is the batch join").
    /// Otherwise the index changes land in op order, the join is
    /// re-enumerated anchored at each tuple inserted (and still live) in
    /// this batch, and one merge pass over the run drops the rows binding an
    /// expired tuple and lands the rows found. A binding is enumerated once
    /// from each fresh tuple it binds and kept from the first only, so
    /// tuples arriving together — a self-join's `(a, a)` included — join
    /// once, no lookup.
    pub fn apply_batch(&mut self, ops: &[StreamOp]) -> BatchStats {
        let mut stats = BatchStats {
            ops: ops.len(),
            ..BatchStats::default()
        };
        let k = self.rels.len();
        let mut touched: Vec<(usize, u32)> = Vec::new();
        let mut moves: Vec<IndexMove> = Vec::new();
        if self.rels.iter().any(|rs| rs.by_origin.is_empty()) {
            // A cold relation takes its upserts at the size they need.
            let mut incoming = vec![0; k];
            for op in ops {
                if let StreamOp::Upsert { per_rel, .. } = op {
                    incoming
                        .iter_mut()
                        .zip(per_rel)
                        .for_each(|(n, v)| *n += v.is_some() as usize);
                }
            }
            for (rs, n) in self.rels.iter_mut().zip(incoming) {
                if rs.by_origin.is_empty() {
                    rs.reserve(n);
                }
            }
        }
        for op in ops {
            let (origin, per_rel) = match op {
                StreamOp::Upsert { origin, per_rel } => {
                    assert_eq!(per_rel.len(), k);
                    (*origin, Some(per_rel))
                }
                StreamOp::Expire { origin } => (*origin, None),
            };
            for r in 0..k {
                let values = per_rel.and_then(|per_rel| per_rel[r].as_deref());
                if let Some(slot) = self.replace(r, origin, values, &mut stats, &mut moves) {
                    touched.push((r, slot));
                }
            }
        }
        // Every live tuple of a relation fresh: no cached row survives.
        let refreshed = |rs: &RelStore| {
            let live = rs.by_origin.len();
            live > 0
                && touched.len() >= live
                && rs.state.iter().filter(|&&s| s == Slot::Fresh).count() == live
        };
        if self.rels.iter().any(refreshed) {
            self.rejoin(&mut stats);
            return stats;
        }
        // The anchors: slots still fresh (not expired by a later op), each
        // once (a slot refilled within the batch was pushed twice).
        touched.retain(|&(r, slot)| self.rels[r].state[slot as usize] == Slot::Fresh);
        touched.sort_unstable();
        touched.dedup();
        if self.indexed {
            for (r, i, key, slot, inserted) in moves {
                let keys = &mut self.indexes[r][i].keys;
                if inserted {
                    keys.insert(key, slot);
                } else {
                    keys.remove(key, slot);
                }
            }
        } else {
            for (r, (indexes, rs)) in self.indexes.iter_mut().zip(&self.rels).enumerate() {
                indexes.iter_mut().for_each(|ix| ix.rebuild(r, rs));
            }
            self.indexed = true;
        }
        let mut walk = Descent {
            order: Vec::with_capacity(k),
            binding: vec![u32::MAX; k],
            found: std::mem::take(&mut self.fresh),
            stats: &mut stats,
        };
        walk.found.clear();
        for &(rel, slot) in touched.iter().filter(|_| !self.query.is_const_false()) {
            walk.order.clear();
            walk.order.push(rel);
            walk.order.extend((0..k).filter(|&r| r != rel));
            self.try_bind(&mut walk, 0, slot, 0, None);
        }
        self.fresh = walk.found;
        stats.rows_added = self.fresh.len() / k;
        stats.rows_removed = self.merge_fresh();
        for (r, slot) in touched {
            self.rels[r].state[slot as usize] = Slot::Live;
        }
        stats
    }

    /// The current query answer — bit-identical to [`crate::exact_join`]
    /// over the live tuples of every relation in ascending origin order.
    pub fn result(&self) -> JoinComputation {
        let (sa, w) = (self.query.select().len(), self.run.w);
        let mut acc = ExactAcc::default();
        for i in 0..self.cached_rows() {
            let (row, gkey) = self.run.vals[i * w..(i + 1) * w].split_at(sa);
            acc.rows.push(row.to_vec());
            if self.query.has_group_by() {
                acc.keys.push(gkey.to_vec());
            }
        }
        let tuples = self
            .rels
            .iter()
            .flat_map(|rs| rs.rows.iter().zip(rs.tuples.origins()));
        acc.contributors = tuples
            .filter(|(&rows, _)| rows > 0)
            .map(|(_, &o)| o)
            .collect();
        finalize_exact(&self.query, acc)
    }

    /// Replaces `origin`'s tuple of relation `r` with `values`, or removes
    /// it (`None`), and logs the index changes while the indexes are kept.
    /// A replaced tuple keeps its slot. Returns the slot filled, now fresh.
    fn replace(
        &mut self,
        r: usize,
        origin: NodeId,
        values: Option<&[f64]>,
        stats: &mut BatchStats,
        moves: &mut Vec<IndexMove>,
    ) -> Option<u32> {
        let (rs, indexes) = (&mut self.rels[r], &self.indexes[r]);
        let mut log = |slot: u32, values: &[f64], inserted: bool| {
            if self.indexed {
                let keyed = indexes.iter().enumerate();
                moves.extend(keyed.map(|(i, ix)| (r, i, ix.key_of(r, values), slot, inserted)));
            }
        };
        let old = rs.by_origin.get(&origin).copied();
        if let Some(slot) = old {
            log(slot, rs.values_of(slot), false);
            stats.expired += 1;
        }
        let Some(values) = values else {
            rs.free_slot(old?);
            return None;
        };
        debug_assert_eq!(values.len(), rs.tuples.arity());
        let slot = rs.put(origin, old, values);
        log(slot, values, true);
        stats.inserted += 1;
        Some(slot)
    }

    /// Replaces the run with the batch join of the live tuples: each store
    /// is compacted into ascending origin order and the batch join's descent
    /// ([`exact_rows`]) writes the run — the same rows in the same order as
    /// [`crate::exact_join`], each binding examined once. Every cached row
    /// goes; the indexes are left stale.
    fn rejoin(&mut self, stats: &mut BatchStats) {
        stats.rows_removed = self.cached_rows();
        self.rels.iter_mut().for_each(RelStore::compact);
        self.indexed = false;
        let (run, candidates) = exact_rows::<RowRun, _>(&self.query, &self.rels[..]);
        for row in run.slots.chunks_exact(run.k) {
            for (rs, &slot) in self.rels.iter_mut().zip(row) {
                rs.rows[slot as usize] += 1;
            }
        }
        stats.rows_added = run.slots.len() / run.k;
        stats.candidates += candidates;
        self.spare = std::mem::replace(&mut self.run, run);
    }

    /// Rewrites the run in one merge pass: a cached row binding a tuple this
    /// batch expired — its slot is free, or was refilled and is fresh — is
    /// dropped (the tuples it still binds lose a row each), and the batch's
    /// fresh bindings, sorted, land where they belong, projected as they do.
    /// Returns the number of rows dropped.
    fn merge_fresh(&mut self) -> usize {
        let (query, fresh, order) = (&self.query, &self.fresh, &mut self.order);
        let (rels, run, out) = (&mut self.rels, &mut self.run, &mut self.spare);
        let (k, w) = (run.k, run.w);
        let binding = |f: &u32| &fresh[*f as usize * k..][..k];
        order.clear();
        order.extend(0..(fresh.len() / k) as u32);
        order.sort_unstable_by(|a, b| cmp_rows(rels, binding(a), binding(b)));
        let land = |out: &mut RowRun, rels: &mut [RelStore], new: &[u32]| {
            out.slots.extend_from_slice(new);
            let env = |r: usize, a: usize| -> f64 { rels[r].values_of(new[r])[a] };
            out.vals.extend(projection(query).map(|e| eval(e, &env)));
            for (rs, &slot) in rels.iter_mut().zip(new) {
                rs.rows[slot as usize] += 1;
            }
        };
        out.slots.clear();
        out.vals.clear();
        let copy = |out: &mut RowRun, from: usize, to: usize| {
            out.slots.extend_from_slice(&run.slots[from * k..to * k]);
            out.vals.extend_from_slice(&run.vals[from * w..to * w]);
        };
        let mut next = order.iter().map(binding).peekable();
        // Rows `from..i` are kept and not yet copied: they go as one block.
        let (mut dropped, mut from) = (0, 0);
        for (i, row) in run.slots.chunks_exact(k).enumerate() {
            let live = |(rs, &slot): (&RelStore, &u32)| rs.state[slot as usize] == Slot::Live;
            if rels.iter().zip(row).all(live) {
                while let Some(new) = next.next_if(|new| cmp_rows(rels, new, row).is_lt()) {
                    copy(out, from, i);
                    from = i;
                    land(out, rels, new);
                }
                continue;
            }
            copy(out, from, i);
            (from, dropped) = (i + 1, dropped + 1);
            for (rs, &slot) in rels.iter_mut().zip(row) {
                let slot = slot as usize;
                rs.rows[slot] -= (rs.state[slot] == Slot::Live) as u32;
            }
        }
        copy(out, from, run.slots.len() / k);
        next.for_each(|new| land(out, rels, new));
        std::mem::swap(run, out);
        dropped
    }

    /// Binds `slot` at `depth` of the walk's order (the anchor first, the
    /// remaining relations ascending) and, if every predicate whose last
    /// referenced relation just bound holds, goes on to each candidate of
    /// the next relation, or keeps the full binding. `decided_pred` is the
    /// predicate whose index produced `slot`, which holds by construction;
    /// the others are evaluated at full precision.
    fn try_bind(
        &self,
        walk: &mut Descent<'_>,
        depth: usize,
        slot: u32,
        bound: u32,
        decided_pred: Option<usize>,
    ) {
        let rel = walk.order[depth];
        walk.binding[rel] = slot;
        let bound = bound | 1 << rel;
        walk.stats.candidates += 1;
        let binding = &walk.binding;
        let env = |r: usize, a: usize| -> f64 { self.rels[r].values_of(binding[r])[a] };
        let preds = self.query.join_preds().iter().zip(&self.pred_masks);
        let check = |(i, (p, &m)): (usize, (&Pred, &u32))| {
            if m & !bound != 0 || m >> rel & 1 == 0 {
                true // not closed by this bind
            } else if Some(i) == decided_pred {
                decided(p, &env)
            } else {
                holds(p, &env)
            }
        };
        if !preds.enumerate().all(check) {
            return;
        }
        if let Some(&next) = walk.order.get(depth + 1) {
            let (cands, decided_pred) = self.level_candidates(next, bound, binding);
            return cands.for_each(|slot| {
                self.try_bind(walk, depth + 1, slot, bound, decided_pred);
            });
        }
        // Kept from its first fresh position only (see `apply_batch`).
        let fresh = |r: usize| self.rels[r].state[binding[r] as usize] == Slot::Fresh;
        if !(0..walk.order[0]).any(fresh) {
            walk.found.extend_from_slice(&walk.binding);
        }
    }

    /// The smallest candidate set over the relation's indexes whose probe
    /// side is already bound, with the predicate its index decides for
    /// them; the relation's live slots, deciding nothing, when none can
    /// prune.
    fn level_candidates(
        &self,
        rel: usize,
        bound: u32,
        binding: &[u32],
    ) -> (Cands<'_>, Option<usize>) {
        let mut best = (Cands::Scan(&self.rels[rel].state), None);
        for ix in &self.indexes[rel] {
            if bound >> ix.other_rel & 1 == 0 {
                continue;
            }
            let p = eval(&ix.probe_expr, &|r: usize, a: usize| {
                debug_assert_eq!(r, ix.other_rel);
                self.rels[r].values_of(binding[r])[a]
            });
            if let Some(cands) = ix.probe(p).filter(|c| c.len() < best.0.len()) {
                best = (cands, Some(ix.pred));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::exact_join;
    use crate::snetwork::{SensorNetwork, SensorNetworkBuilder};
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    fn setup(sql: &str, n: usize, seed: u64) -> (SensorNetwork, CompiledQuery) {
        let snet = SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .placement(Placement::UniformRandom { n })
            .seed(seed)
            .build()
            .unwrap();
        let q = parse(sql).unwrap();
        let cq = snet.compile(&q).unwrap();
        (snet, cq)
    }

    /// The per-relation values of node `n` after local predicates, i.e. the
    /// `per_rel` payload of its upsert.
    fn per_rel_of(snet: &SensorNetwork, cq: &CompiledQuery, n: NodeId) -> Vec<Option<Vec<f64>>> {
        (0..cq.num_relations())
            .map(|r| {
                let schema = cq.schema(r);
                if snet.belongs(n, schema.name()) {
                    let v = snet.values_for(n, schema);
                    cq.eval_local(r, &v).then_some(v)
                } else {
                    None
                }
            })
            .collect()
    }

    /// One upsert per node of `snet`, in ascending origin order.
    fn upsert_all(snet: &SensorNetwork, cq: &CompiledQuery) -> Vec<StreamOp> {
        (0..snet.len() as u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(snet, cq, NodeId(i)),
            })
            .collect()
    }

    /// Batch-join reference over a set of live nodes (ascending origins).
    fn reference(
        snet: &SensorNetwork,
        cq: &CompiledQuery,
        live: &BTreeSet<NodeId>,
    ) -> JoinComputation {
        let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
            .map(|r| {
                live.iter()
                    .filter_map(|&n| per_rel_of(snet, cq, n)[r].clone().map(|v| (n, v)))
                    .collect()
            })
            .collect();
        exact_join(cq, &tuples)
    }

    fn assert_same(a: &JoinComputation, b: &JoinComputation) {
        assert_eq!(a.contributors, b.contributors);
        match (&a.result, &b.result) {
            (crate::JoinResult::Rows(x), crate::JoinResult::Rows(y)) => {
                let xb: Vec<Vec<u64>> = x
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let yb: Vec<Vec<u64>> = y
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect();
                assert_eq!(xb, yb);
            }
            (crate::JoinResult::Aggregate(x), crate::JoinResult::Aggregate(y)) => {
                let xb: Vec<Option<u64>> = x.iter().map(|v| v.map(f64::to_bits)).collect();
                let yb: Vec<Option<u64>> = y.iter().map(|v| v.map(f64::to_bits)).collect();
                assert_eq!(xb, yb);
            }
            _ => panic!("result kinds differ"),
        }
    }

    /// Drives the engine through insert/expire waves, checking bit-identity
    /// with the batch join after every batch.
    fn drive(sql: &str) {
        let (snet, cq) = setup(sql, 60, 7);
        let mut engine = StreamJoinEngine::new(cq.clone());
        let mut live: BTreeSet<NodeId> = BTreeSet::new();
        let n = snet.len() as u32;
        // Wave 1: everything arrives in two batches.
        for half in [0..n / 2, n / 2..n] {
            let ops: Vec<StreamOp> = half
                .clone()
                .map(|i| StreamOp::Upsert {
                    origin: NodeId(i),
                    per_rel: per_rel_of(&snet, &cq, NodeId(i)),
                })
                .collect();
            engine.apply_batch(&ops);
            live.extend(half.map(NodeId));
            assert_same(&engine.result(), &reference(&snet, &cq, &live));
        }
        // Wave 2: every third node expires.
        let ops: Vec<StreamOp> = (0..n)
            .step_by(3)
            .map(|i| StreamOp::Expire { origin: NodeId(i) })
            .collect();
        engine.apply_batch(&ops);
        live.retain(|o| o.0 % 3 != 0);
        assert_same(&engine.result(), &reference(&snet, &cq, &live));
        // Wave 3: some expired nodes return (slot reuse), mixed with fresh
        // expires in the same batch.
        let mut ops: Vec<StreamOp> = (0..n)
            .step_by(6)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(&snet, &cq, NodeId(i)),
            })
            .collect();
        ops.push(StreamOp::Expire { origin: NodeId(1) });
        engine.apply_batch(&ops);
        for i in (0..n).step_by(6) {
            live.insert(NodeId(i));
        }
        live.remove(&NodeId(1));
        assert_same(&engine.result(), &reference(&snet, &cq, &live));
    }

    #[test]
    fn band_join_matches_batch() {
        drive(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.4 ONCE",
        );
    }

    #[test]
    fn diff_band_join_matches_batch() {
        drive(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.5 ONCE",
        );
    }

    #[test]
    fn aggregate_join_matches_batch() {
        drive(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.0 ONCE",
        );
    }

    #[test]
    fn local_pred_membership_changes_match_batch() {
        drive(
            "SELECT A.hum, B.pres FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.5 AND A.hum > 40 ONCE",
        );
    }

    #[test]
    fn upsert_replaces_previous_tuple() {
        let (snet, cq) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.4 ONCE",
            40,
            3,
        );
        let mut engine = StreamJoinEngine::new(cq.clone());
        let all = upsert_all(&snet, &cq);
        engine.apply_batch(&all);
        // Re-upsert node 5 with shifted values: the old tuple must vanish.
        let mut shifted = per_rel_of(&snet, &cq, NodeId(5));
        for v in shifted.iter_mut().flatten() {
            v[2] += 100.0; // temp attribute: move it out of every band
        }
        engine.apply_batch(&[StreamOp::Upsert {
            origin: NodeId(5),
            per_rel: shifted.clone(),
        }]);
        // Reference: all nodes, but node 5 carries the shifted values.
        let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
            .map(|r| {
                (0..snet.len() as u32)
                    .filter_map(|i| {
                        let pr = if i == 5 {
                            shifted.clone()
                        } else {
                            per_rel_of(&snet, &cq, NodeId(i))
                        };
                        pr[r].clone().map(|v| (NodeId(i), v))
                    })
                    .collect()
            })
            .collect();
        assert_same(&engine.result(), &exact_join(&cq, &tuples));
    }

    #[test]
    fn skewed_keys_match_batch() {
        // Every tuple carries the same band key (±0.0), so every insert and
        // expiry lands in one run of ties and every probe returns it whole.
        drive(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp * 0 - B.temp * 0| < 1000.0 ONCE",
        );
    }

    #[test]
    fn complement_band_probes_prune() {
        // `|a − b| >= c` accepts two rays of the key line: a probe examines
        // those two runs, not every live tuple of the other relation.
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE |A.temp - B.temp| >= 2.5 ONCE";
        drive(sql);
        let (snet, cq) = setup(sql, 120, 13);
        let mut engine = StreamJoinEngine::new(cq.clone());
        let n = snet.len();
        let all = upsert_all(&snet, &cq);
        engine.apply_batch(&all);
        for origin in [0, 40, 119].map(NodeId) {
            let stats = engine.apply_batch(&[StreamOp::Upsert {
                origin,
                per_rel: per_rel_of(&snet, &cq, origin),
            }]);
            // Two anchors (the node's A and B tuple), one probe each.
            let probed = stats.candidates - 2;
            assert!(stats.rows_added > 0, "the band should select something");
            assert!(
                probed < 2 * n,
                "{probed} candidates for 2 probes over {n} live tuples: a scan"
            );
            // With one conjunct the runs are exact: every candidate joins.
            assert_eq!(probed, stats.rows_added);
        }
    }

    /// A band self-join that admits `(a, a)`, a 3-way join with every origin
    /// in all three relations, a grouped query, an aggregate, a complement
    /// band and an equality join (each node pairs with itself at least).
    const SHAPES: [&str; 6] = [
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE |A.temp - B.temp| < 0.4 ONCE",
        "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
         WHERE |A.temp - B.temp| < 0.6 AND B.temp - C.temp > 2.0 ONCE",
        "SELECT A.hum / 10, COUNT(B.temp), MAX(A.temp - B.temp) \
         FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.0 \
         GROUP BY A.hum / 10 ONCE",
        "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 1.0 ONCE",
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE |A.temp - B.temp| >= 2.5 ONCE",
        "SELECT A.hum, B.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp ONCE",
    ];

    /// Checks `engine` after the batch `step`: its answer is the batch join
    /// of its live tuples, and an engine restored from those tuples answers
    /// the same from as many cached rows.
    fn assert_is_the_batch_join(engine: &StreamJoinEngine, step: &str) {
        let (cq, live) = (engine.query(), engine.live_tuples());
        let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
            .map(|r| {
                let member = |(o, per_rel): &LiveTuple| Some((*o, per_rel[r].clone()?));
                live.iter().filter_map(member).collect()
            })
            .collect();
        let restored = StreamJoinEngine::restore(cq.clone(), &live);
        let result = engine.result();
        assert_same(&result, &exact_join(cq, &tuples));
        assert_same(&result, &restored.result());
        assert_eq!(engine.cached_rows(), restored.cached_rows(), "{step}");
    }

    /// Every shape through one sequence that takes both paths, with
    /// relations that overlap in part (origin `n` is in relation `r` iff
    /// `(n + r) % 3 != 0`): a cold load, a 10 % re-upsert, a refresh of every
    /// tuple of relation 0 only, expiring everything and then reloading, and
    /// a mixed batch. The reload refills the freed slots last-freed first, so
    /// slot order is the reverse of origin order there.
    #[test]
    fn both_paths_are_the_batch_join() {
        for sql in SHAPES {
            let (mut snet, cq) = setup(sql, 60, 7);
            let upsert = |snet: &SensorNetwork, i: u32| {
                let mut per_rel = per_rel_of(snet, &cq, NodeId(i));
                for (r, values) in per_rel.iter_mut().enumerate() {
                    if (i as usize + r).is_multiple_of(3) {
                        *values = None;
                    }
                }
                let origin = NodeId(i);
                StreamOp::Upsert { origin, per_rel }
            };
            let expire = |i: u32| StreamOp::Expire { origin: NodeId(i) };
            let n = snet.len() as u32;
            let mut engine = StreamJoinEngine::new(cq.clone());
            let mut apply = |ops: Vec<StreamOp>, step: &str, rejoins: bool| {
                engine.apply_batch(&ops);
                assert_eq!(
                    !engine.indexed, rejoins,
                    "{sql}: {step} took the other path"
                );
                assert_is_the_batch_join(&engine, &format!("{sql}: {step}"));
                engine.cached_rows()
            };
            let loaded = apply(
                (0..n).map(|i| upsert(&snet, i)).collect(),
                "cold load",
                true,
            );
            assert!(loaded > 0, "{sql} selects nothing");
            snet.resample(&sensjoin_field::presets::indoor_climate(), 99);
            let tenth = (0..n).step_by(10).map(|i| upsert(&snet, i)).collect();
            apply(tenth, "10 % re-upsert", false);
            snet.resample(&sensjoin_field::presets::indoor_climate(), 100);
            let rel0 = (0..n)
                .filter(|i| i % 3 != 0)
                .map(|i| upsert(&snet, i))
                .collect();
            apply(rel0, "refresh of relation 0", true);
            let gone = apply((0..n).map(expire).collect(), "expire everything", false);
            assert_eq!(gone, 0);
            apply((0..n).map(|i| upsert(&snet, i)).collect(), "reload", true);
            snet.resample(&sensjoin_field::presets::indoor_climate(), 101);
            let mut mixed: Vec<StreamOp> = (20..30).map(|i| upsert(&snet, i)).collect();
            mixed.extend((25..35).map(expire));
            mixed.extend([upsert(&snet, 27), expire(50), upsert(&snet, 50)]);
            apply(mixed, "mixed batch", false);
        }
    }

    #[test]
    fn full_refresh_is_a_cold_load_is_the_batch_join() {
        for sql in SHAPES {
            let (mut snet, cq) = setup(sql, 60, 7);
            let mut warm = StreamJoinEngine::new(cq.clone());
            warm.apply_batch(&upsert_all(&snet, &cq));
            let before = warm.cached_rows();
            assert!(before > 0, "{sql} selects nothing");
            // Every node re-ships a new reading: every cached row goes and
            // the whole result is re-enumerated, each row exactly once.
            snet.resample(&sensjoin_field::presets::indoor_climate(), 99);
            let all = upsert_all(&snet, &cq);
            let stats = warm.apply_batch(&all);
            let mut cold = StreamJoinEngine::new(cq.clone());
            let cold_stats = cold.apply_batch(&all);
            assert_eq!(stats.rows_removed, before);
            assert_eq!(stats.rows_added, warm.cached_rows());
            assert_eq!(stats.rows_added, cold_stats.rows_added);
            assert_eq!(stats.candidates, cold_stats.candidates);
            let live: BTreeSet<NodeId> = (0..snet.len() as u32).map(NodeId).collect();
            assert_same(&warm.result(), &cold.result());
            assert_same(&warm.result(), &reference(&snet, &cq, &live));
        }
    }

    /// The paper's Q3, whose `distance` no index decides: a cold load and a
    /// full refresh are rejoins through `exact_join`'s descent, which
    /// evaluates it over each band candidate batch at a time, and answer
    /// what `exact_join` answers over the live tuples.
    #[test]
    fn a_rejoin_with_an_undecided_residual_is_the_batch_join() {
        let (mut snet, cq) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
            200,
            7,
        );
        let mut engine = StreamJoinEngine::new(cq.clone());
        for (step, seed) in [("cold load", 98), ("full refresh", 99)] {
            snet.resample(&sensjoin_field::presets::indoor_climate(), seed);
            engine.apply_batch(&upsert_all(&snet, &cq));
            assert!(!engine.indexed, "{step} took the anchored path");
            assert!(engine.cached_rows() > 0, "{step} selects nothing");
            assert_is_the_batch_join(&engine, step);
        }
    }

    #[test]
    fn one_batch_may_name_an_origin_twice() {
        for sql in SHAPES {
            let (snet, cq) = setup(sql, 60, 7);
            let mut engine = StreamJoinEngine::new(cq.clone());
            engine.apply_batch(&upsert_all(&snet, &cq));
            let upsert = |i: u32, shift: f64| {
                let mut per_rel = per_rel_of(&snet, &cq, NodeId(i));
                for v in per_rel.iter_mut().flatten() {
                    v[2] += shift; // temp
                }
                let origin = NodeId(i);
                StreamOp::Upsert { origin, per_rel }
            };
            let expire = |i: u32| StreamOp::Expire { origin: NodeId(i) };
            // Node 3 is upserted twice (the second reading stands — back to
            // its own), node 4 upserted then expired, node 5 expired then
            // upserted, node 6 expired twice.
            let ops = [
                upsert(3, 0.3),
                upsert(4, 0.1),
                expire(5),
                upsert(3, 0.0),
                expire(4),
                upsert(5, 0.0),
                expire(6),
                expire(6),
            ];
            let stats = engine.apply_batch(&ops);
            let k = cq.num_relations();
            assert_eq!((stats.inserted, stats.expired), (4 * k, 6 * k));
            let live = (0..snet.len() as u32).map(NodeId);
            let live: BTreeSet<NodeId> = live.filter(|o| o.0 != 4 && o.0 != 6).collect();
            assert_same(&engine.result(), &reference(&snet, &cq, &live));
        }
    }

    /// The counters of a scripted sequence: a cold load, a 10 % re-upsert, a
    /// mixed batch and a full refresh. The two anchored batches count as the
    /// per-row cache this run replaced counted them; the cold load and the
    /// full refresh are rejoins, which examine each binding once.
    #[test]
    fn batch_stats_are_the_row_caches() {
        let mut seen = Vec::new();
        for sql in &SHAPES[..2] {
            let (mut snet, cq) = setup(sql, 60, 7);
            let mut engine = StreamJoinEngine::new(cq.clone());
            let mut record =
                |s: BatchStats| seen.push([s.rows_added, s.rows_removed, s.candidates]);
            let all = upsert_all(&snet, &cq);
            record(engine.apply_batch(&all));
            record(engine.apply_batch(&all[10..16]));
            snet.resample(&sensjoin_field::presets::indoor_climate(), 99);
            let mut mixed = upsert_all(&snet, &cq)[20..30].to_vec();
            mixed.extend((25..35).map(|i| StreamOp::Expire { origin: NodeId(i) }));
            record(engine.apply_batch(&mixed));
            record(engine.apply_batch(&upsert_all(&snet, &cq)));
        }
        assert_eq!(seen, PINNED_STATS);
    }

    /// `[rows_added, rows_removed, candidates]` per batch. The anchored
    /// enumeration counted 1 464, 2 036, 44 029 and 26 380 candidates for the
    /// rejoined batches: every binding from each fresh tuple it binds.
    const PINNED_STATS: [[usize; 3]; 8] = [
        [672, 0, 732],
        [134, 134, 164],
        [9, 289, 28],
        [958, 392, 1018],
        [7961, 0, 8967],
        [2884, 2884, 4061],
        [2510, 4642, 2983],
        [4213, 5829, 5587],
    ];

    /// Ten full refreshes warm every buffer; a thousand more leave the row
    /// count and every capacity of the run and its scratch where they were.
    #[test]
    fn full_refreshes_do_not_grow_the_run() {
        let (snet, cq) = setup(SHAPES[0], 60, 7);
        let all = upsert_all(&snet, &cq);
        let mut engine = StreamJoinEngine::new(cq.clone());
        let footprint = |e: &StreamJoinEngine| {
            let mut runs = [&e.run, &e.spare].map(|r| (r.slots.capacity(), r.vals.capacity()));
            runs.sort_unstable(); // the two swap roles every batch
            (
                e.cached_rows(),
                runs,
                e.fresh.capacity(),
                e.order.capacity(),
            )
        };
        for _ in 0..10 {
            engine.apply_batch(&all);
        }
        let warm = footprint(&engine);
        for _ in 0..1000 {
            engine.apply_batch(&all);
        }
        assert_eq!(footprint(&engine), warm);
        let tuples: usize = engine.rels.iter().map(|rs| rs.tuples.len()).sum();
        assert_eq!(tuples, 2 * snet.len(), "no slot leaks either");
    }

    #[test]
    fn steady_state_work_is_delta_bound() {
        let (snet, cq) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
            200,
            21,
        );
        let mut engine = StreamJoinEngine::new(cq.clone());
        let all = upsert_all(&snet, &cq);
        let full = engine.apply_batch(&all);
        // A 2% delta re-upserting existing nodes examines far fewer
        // candidates than the initial full load.
        let delta: Vec<StreamOp> = (0..4u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i * 50),
                per_rel: per_rel_of(&snet, &cq, NodeId(i * 50)),
            })
            .collect();
        let small = engine.apply_batch(&delta);
        assert!(
            small.candidates * 10 <= full.candidates,
            "delta batch candidates {} vs full load {}",
            small.candidates,
            full.candidates
        );
    }
}
