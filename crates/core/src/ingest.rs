//! Streaming ingestion engine: O(Δ) steady-state joins over tuple deltas.
//!
//! The continuous pipeline originally recomputed [`crate::exact_join`] from
//! scratch every round, even when only a handful of readings changed. This
//! module maintains the join *incrementally*: a persistent
//! [`StreamJoinEngine`] is fed per-relation tuple deltas
//! ([`StreamOp::Upsert`] / [`StreamOp::Expire`]) and updates a cached result
//! set anchored at the changed tuples only, so a batch of `Δ` changes costs
//! `O(Δ · candidates-per-probe)` instead of `O(Π |Rᵢ|)`.
//!
//! # Delta indexes
//!
//! Each indexable join conjunct (equi or band, see
//! [`sensjoin_query::PredClass`]) gets one incremental index *per side*, so
//! a delta anchored in either relation can probe the other:
//!
//! * **Equi** conjuncts hash key bits to slot lists.
//! * **Band** conjuncts keep the batch engine's index — one `(key, slot)`
//!   array ascending by key — under upsert/expire, and probe it through the
//!   batch engine's window derivation (`partition::band_runs`): at most two
//!   exact runs per probe, complement bands (`|a − b| >= c`) included. The
//!   full-precision predicate gate still runs on every candidate, so
//!   correctness never rests on the window.
//!
//! # Equivalence to the batch join
//!
//! The cached result rows are keyed by the per-relation origin vector in a
//! `BTreeMap`. Tuple stores fed in ascending [`NodeId`] order (as the
//! continuous cache does) make lexicographic origin order coincide with the
//! batch descent's emission order, so [`StreamJoinEngine::result`] — which
//! replays the cache through the same finalization as [`crate::exact_join`]
//! — is *bit-identical* to recomputing the batch join over the live tuples:
//! same rows, same order, same grouping folds, same contributor set.

use crate::engine::{finalize_exact, ExactAcc, JoinComputation};
use crate::partition::{band_runs, key_bits, runs_len};
use sensjoin_query::{eval_expr, eval_predicate, BandForm, CExpr, CompiledQuery, PredClass};
use sensjoin_relation::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Candidate bindings examined during anchored re-enumeration — the
    /// steady-state work metric (`O(Δ)` claim: stays proportional to the
    /// batch, not the relations).
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

/// Slot-based tuple store of one relation.
#[derive(Debug, Default)]
struct RelStore {
    /// Slot → origin (stale when the slot is free).
    origins: Vec<NodeId>,
    /// Slot → schema-aligned values.
    values: Vec<Vec<f64>>,
    /// Slot liveness.
    live: Vec<bool>,
    /// Origin → live slot.
    by_origin: HashMap<NodeId, u32>,
    /// Reusable free slots.
    free: Vec<u32>,
}

impl RelStore {
    fn insert(&mut self, origin: NodeId, values: Vec<f64>) -> u32 {
        debug_assert!(!self.by_origin.contains_key(&origin));
        let slot = match self.free.pop() {
            Some(s) => {
                self.origins[s as usize] = origin;
                self.values[s as usize] = values;
                self.live[s as usize] = true;
                s
            }
            None => {
                self.origins.push(origin);
                self.values.push(values);
                self.live.push(true);
                (self.origins.len() - 1) as u32
            }
        };
        self.by_origin.insert(origin, slot);
        slot
    }

    fn free_slot(&mut self, slot: u32) {
        let origin = self.origins[slot as usize];
        self.by_origin.remove(&origin);
        self.live[slot as usize] = false;
        self.values[slot as usize] = Vec::new();
        self.free.push(slot);
    }
}

/// The incremental index kinds.
#[derive(Debug)]
enum IndexKind {
    /// Equi conjunct: key bits → ascending slot list.
    Equi { map: HashMap<u64, Vec<u32>> },
    /// Band conjunct: `(key, slot)` ascending by key (ties by slot), NaN
    /// keys left out — the batch engine's sorted key array.
    Band {
        form: BandForm,
        /// Whether the indexed relation is the `lhs` side of the form.
        key_is_lhs: bool,
        keys: Vec<(f64, u32)>,
    },
}

/// Where `(key, slot)` sits, or belongs, in a band index's array.
fn band_pos(keys: &[(f64, u32)], key: f64, slot: u32) -> usize {
    keys.partition_point(|&(k, s)| k.total_cmp(&key).then(s.cmp(&slot)).is_lt())
}

/// One incremental index: the keyed side of an indexable conjunct on one
/// relation, probed with the other side's value.
#[derive(Debug)]
struct IngestIndex {
    /// The relation the probe expression reads (must be bound first).
    other_rel: usize,
    /// Key expression over the indexed relation.
    key_expr: CExpr,
    /// Probe expression over `other_rel`.
    probe_expr: CExpr,
    kind: IndexKind,
}

impl IngestIndex {
    /// The key of `values` under this index (the key expression only reads
    /// the indexed relation).
    fn key_of(&self, rel: usize, values: &[f64]) -> f64 {
        eval_expr(&self.key_expr, &|r: usize, a: usize| {
            debug_assert_eq!(r, rel);
            values[a]
        })
    }

    fn insert(&mut self, key: f64, slot: u32) {
        match &mut self.kind {
            IndexKind::Equi { map } => {
                if let Some(bits) = key_bits(key) {
                    map.entry(bits).or_default().push(slot);
                }
            }
            // No comparison with a NaN operand is ever true: the tuple can
            // never pass this conjunct, so it needs no entry.
            IndexKind::Band { keys, .. } => {
                if !key.is_nan() {
                    keys.insert(band_pos(keys, key, slot), (key, slot));
                }
            }
        }
    }

    fn remove(&mut self, key: f64, slot: u32) {
        match &mut self.kind {
            IndexKind::Equi { map } => {
                if let Some(bits) = key_bits(key) {
                    if let Some(v) = map.get_mut(&bits) {
                        v.retain(|&s| s != slot);
                        if v.is_empty() {
                            map.remove(&bits);
                        }
                    }
                }
            }
            IndexKind::Band { keys, .. } => {
                if !key.is_nan() {
                    let at = band_pos(keys, key, slot);
                    debug_assert_eq!(keys.get(at).map(|e| e.1), Some(slot));
                    keys.remove(at);
                }
            }
        }
    }

    /// Candidate slots for probe value `p`: `None` when the index cannot
    /// prune (the caller scans), `Some` with a superset of the conjunct's
    /// true matches otherwise.
    fn probe(&self, p: f64) -> Option<Vec<u32>> {
        match &self.kind {
            IndexKind::Equi { map } => Some(
                key_bits(p)
                    .and_then(|b| map.get(&b))
                    .cloned()
                    .unwrap_or_default(),
            ),
            IndexKind::Band {
                form,
                key_is_lhs,
                keys,
            } => {
                let runs = band_runs(keys, *form, *key_is_lhs, p)?;
                let mut slots = Vec::with_capacity(runs_len(&runs));
                for run in runs {
                    slots.extend(keys[run].iter().map(|&(_, slot)| slot));
                }
                Some(slots)
            }
        }
    }
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
    /// Per join predicate: bitmask of referenced relations.
    pred_masks: Vec<u32>,
    /// Result cache: per-relation origin vector → projected row (+ group
    /// key). Lexicographic key order reproduces the batch emission order.
    rows: BTreeMap<Box<[u32]>, RowEntry>,
    /// Origin → result-row keys it appears in (the incremental contributor
    /// set: an entry exists iff the node contributes to ≥ 1 row).
    rows_of: HashMap<NodeId, BTreeSet<Box<[u32]>>>,
}

#[derive(Debug)]
struct RowEntry {
    row: Vec<f64>,
    gkey: Vec<f64>,
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
        for pc in query.pred_classes() {
            let (lhs, rhs, form) = match pc {
                PredClass::Equi { lhs, rhs } => (lhs, rhs, None),
                PredClass::Band { lhs, rhs, form } => (lhs, rhs, Some(*form)),
                PredClass::General => continue,
            };
            if lhs.rel == rhs.rel {
                continue;
            }
            for (key, probe, key_is_lhs) in [(lhs, rhs, true), (rhs, lhs, false)] {
                indexes[key.rel].push(IngestIndex {
                    other_rel: probe.rel,
                    key_expr: key.expr.clone(),
                    probe_expr: probe.expr.clone(),
                    kind: match form {
                        None => IndexKind::Equi {
                            map: HashMap::new(),
                        },
                        Some(form) => IndexKind::Band {
                            form,
                            key_is_lhs,
                            keys: Vec::new(),
                        },
                    },
                });
            }
        }
        Self {
            query,
            rels: (0..k).map(|_| RelStore::default()).collect(),
            indexes,
            pred_masks,
            rows: BTreeMap::new(),
            rows_of: HashMap::new(),
        }
    }

    /// The compiled query this engine maintains.
    pub fn query(&self) -> &CompiledQuery {
        &self.query
    }

    /// Live tuple count per relation.
    pub fn live_counts(&self) -> Vec<usize> {
        self.rels.iter().map(|s| s.by_origin.len()).collect()
    }

    /// Cached result-row count (pre-grouping).
    pub fn cached_rows(&self) -> usize {
        self.rows.len()
    }

    /// Every live tuple as `(origin, per-relation values)` in ascending
    /// origin order — the checkpoint export. Replaying these through
    /// [`StreamJoinEngine::apply_batch`] as one upsert batch rebuilds an
    /// equivalent engine: result rows are keyed by origin vectors, so slot
    /// numbering (which replay does not reproduce) is unobservable.
    #[allow(clippy::type_complexity)]
    pub fn live_tuples(&self) -> Vec<(NodeId, Vec<Option<Vec<f64>>>)> {
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
                    .map(|rs| {
                        rs.by_origin
                            .get(&o)
                            .map(|&slot| rs.values[slot as usize].clone())
                    })
                    .collect();
                (o, per_rel)
            })
            .collect()
    }

    /// Rebuilds an engine from checkpointed live tuples by replaying them.
    /// The replay's [`BatchStats`] are deliberately discarded — they are
    /// reconstruction work, not traffic.
    #[allow(clippy::type_complexity)]
    pub fn restore(query: CompiledQuery, tuples: &[(NodeId, Vec<Option<Vec<f64>>>)]) -> Self {
        let mut engine = Self::new(query);
        let ops: Vec<StreamOp> = tuples
            .iter()
            .map(|(origin, per_rel)| StreamOp::Upsert {
                origin: *origin,
                per_rel: per_rel.clone(),
            })
            .collect();
        let _ = engine.apply_batch(&ops);
        engine
    }

    /// Applies one delta batch and incrementally updates the cached result.
    ///
    /// All store/index changes land first; then the join is re-enumerated
    /// anchored at each tuple inserted (and still live) in this batch, so
    /// tuples arriving together join with each other exactly once.
    pub fn apply_batch(&mut self, ops: &[StreamOp]) -> BatchStats {
        let mut stats = BatchStats {
            ops: ops.len(),
            ..BatchStats::default()
        };
        let mut touched: BTreeSet<(usize, NodeId)> = BTreeSet::new();
        for op in ops {
            match op {
                StreamOp::Upsert { origin, per_rel } => {
                    assert_eq!(per_rel.len(), self.query.num_relations());
                    self.expire(*origin, &mut stats);
                    for (r, values) in per_rel.iter().enumerate() {
                        let Some(values) = values else { continue };
                        debug_assert_eq!(values.len(), self.query.schema(r).arity());
                        let slot = self.rels[r].insert(*origin, values.clone());
                        for ix in &mut self.indexes[r] {
                            let key = ix.key_of(r, &self.rels[r].values[slot as usize]);
                            ix.insert(key, slot);
                        }
                        touched.insert((r, *origin));
                        stats.inserted += 1;
                    }
                }
                StreamOp::Expire { origin } => self.expire(*origin, &mut stats),
            }
        }
        if self.query.is_const_false() {
            return stats;
        }
        let mut found: Vec<Vec<u32>> = Vec::new();
        for &(rel, origin) in &touched {
            // Skipped when a later op in the same batch expired the tuple.
            let Some(&slot) = self.rels[rel].by_origin.get(&origin) else {
                continue;
            };
            self.enumerate_anchored(rel, slot, &mut found, &mut stats);
        }
        for binding in found {
            self.insert_row(&binding, &mut stats);
        }
        stats
    }

    /// The current query answer — bit-identical to [`crate::exact_join`]
    /// over the live tuples of every relation in ascending origin order.
    pub fn result(&self) -> JoinComputation {
        let mut acc = ExactAcc::default();
        if !self.query.is_const_false() {
            for entry in self.rows.values() {
                acc.rows.push(entry.row.clone());
                if self.query.has_group_by() {
                    acc.keys.push(entry.gkey.clone());
                }
            }
            acc.contributors = self.rows_of.keys().copied().collect();
        }
        finalize_exact(&self.query, acc)
    }

    /// Removes every tuple and result row of `origin`.
    fn expire(&mut self, origin: NodeId, stats: &mut BatchStats) {
        if let Some(keys) = self.rows_of.remove(&origin) {
            for key in keys {
                self.rows.remove(&key);
                stats.rows_removed += 1;
                for &o in key.iter().collect::<BTreeSet<_>>() {
                    if o == origin.0 {
                        continue;
                    }
                    if let Some(set) = self.rows_of.get_mut(&NodeId(o)) {
                        set.remove(&key);
                        if set.is_empty() {
                            self.rows_of.remove(&NodeId(o));
                        }
                    }
                }
            }
        }
        for r in 0..self.rels.len() {
            let Some(&slot) = self.rels[r].by_origin.get(&origin) else {
                continue;
            };
            for ix in &mut self.indexes[r] {
                let key = ix.key_of(r, &self.rels[r].values[slot as usize]);
                ix.remove(key, slot);
            }
            self.rels[r].free_slot(slot);
            stats.expired += 1;
        }
    }

    /// Enumerates every full binding containing `(anchor_rel, anchor_slot)`:
    /// the anchor binds first, remaining relations bind in ascending order,
    /// each probed through whichever of its indexes (with the probe side
    /// already bound) yields the fewest candidates.
    fn enumerate_anchored(
        &self,
        anchor_rel: usize,
        anchor_slot: u32,
        found: &mut Vec<Vec<u32>>,
        stats: &mut BatchStats,
    ) {
        let k = self.rels.len();
        let mut order = Vec::with_capacity(k);
        order.push(anchor_rel);
        order.extend((0..k).filter(|&r| r != anchor_rel));
        let mut binding = vec![u32::MAX; k];
        self.try_bind(&order, 0, anchor_slot, 0, &mut binding, found, stats);
    }

    #[allow(clippy::too_many_arguments)]
    fn try_bind(
        &self,
        order: &[usize],
        depth: usize,
        slot: u32,
        bound: u32,
        binding: &mut Vec<u32>,
        found: &mut Vec<Vec<u32>>,
        stats: &mut BatchStats,
    ) {
        let rel = order[depth];
        binding[rel] = slot;
        let bound = bound | 1 << rel;
        stats.candidates += 1;
        // Full-precision gate: every predicate whose last referenced
        // relation just bound.
        let ok = {
            let env = |r: usize, a: usize| -> f64 { self.rels[r].values[binding[r] as usize][a] };
            self.query
                .join_preds()
                .iter()
                .zip(&self.pred_masks)
                .filter(|&(_, &m)| m & !bound == 0 && m >> rel & 1 == 1)
                .all(|(p, _)| eval_predicate(p, &env))
        };
        if ok {
            if depth + 1 == order.len() {
                found.push(binding.clone());
            } else {
                self.descend(order, depth + 1, bound, binding, found, stats);
            }
        }
        binding[rel] = u32::MAX;
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        order: &[usize],
        depth: usize,
        bound: u32,
        binding: &mut Vec<u32>,
        found: &mut Vec<Vec<u32>>,
        stats: &mut BatchStats,
    ) {
        let rel = order[depth];
        match self.level_candidates(rel, bound, binding) {
            Some(cands) => {
                for slot in cands {
                    self.try_bind(order, depth, slot, bound, binding, found, stats);
                }
            }
            None => {
                // No usable index: scan the relation's live slots.
                for slot in 0..self.rels[rel].live.len() {
                    if self.rels[rel].live[slot] {
                        self.try_bind(order, depth, slot as u32, bound, binding, found, stats);
                    }
                }
            }
        }
    }

    /// The smallest candidate list over the relation's indexes whose probe
    /// side is already bound (`None`: no index can prune).
    fn level_candidates(&self, rel: usize, bound: u32, binding: &[u32]) -> Option<Vec<u32>> {
        let mut best: Option<Vec<u32>> = None;
        for ix in &self.indexes[rel] {
            if bound >> ix.other_rel & 1 == 0 {
                continue;
            }
            let p = eval_expr(&ix.probe_expr, &|r: usize, a: usize| {
                debug_assert_eq!(r, ix.other_rel);
                self.rels[r].values[binding[r] as usize][a]
            });
            if let Some(cands) = ix.probe(p) {
                if best.as_ref().is_none_or(|b| cands.len() < b.len()) {
                    best = Some(cands);
                }
            }
        }
        best
    }

    /// Inserts a freshly enumerated full binding into the row cache
    /// (idempotent: a row found from several anchors lands once).
    fn insert_row(&mut self, binding: &[u32], stats: &mut BatchStats) {
        let key: Box<[u32]> = binding
            .iter()
            .enumerate()
            .map(|(r, &s)| self.rels[r].origins[s as usize].0)
            .collect();
        if self.rows.contains_key(&key) {
            return;
        }
        let env = |r: usize, a: usize| -> f64 { self.rels[r].values[binding[r] as usize][a] };
        let entry = RowEntry {
            row: self.query.eval_select_row(&env),
            gkey: if self.query.has_group_by() {
                self.query.eval_group_key(&env)
            } else {
                Vec::new()
            },
        };
        for &o in key.iter().collect::<BTreeSet<_>>() {
            self.rows_of
                .entry(NodeId(o))
                .or_default()
                .insert(key.clone());
        }
        self.rows.insert(key, entry);
        stats.rows_added += 1;
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
        let all: Vec<StreamOp> = (0..snet.len() as u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(&snet, &cq, NodeId(i)),
            })
            .collect();
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
        let all: Vec<StreamOp> = (0..n as u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(&snet, &cq, NodeId(i)),
            })
            .collect();
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

    #[test]
    fn steady_state_work_is_delta_bound() {
        let (snet, cq) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
            200,
            21,
        );
        let mut engine = StreamJoinEngine::new(cq.clone());
        let all: Vec<StreamOp> = (0..snet.len() as u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(&snet, &cq, NodeId(i)),
            })
            .collect();
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
