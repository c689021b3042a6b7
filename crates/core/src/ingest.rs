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
//! # Partitioned delta indexes
//!
//! Each indexable join conjunct (equi or band, see
//! [`sensjoin_query::PredClass`]) gets one incremental index *per side*, so
//! a delta anchored in either relation can probe the other:
//!
//! * **Equi** conjuncts hash key bits to slot lists.
//! * **Band** conjuncts partition the key line into fixed-width buckets
//!   (width derived from the band constant). Cold partitions stay single
//!   sorted runs; partitions that absorb many arrivals are *promoted* to a
//!   finer sub-bucket tier (PanJoin-style hot/cold split), bounding probe
//!   run lengths under skew. Probes compute a conservative bucket window
//!   from the probe value, then cut the gathered runs with the vectorized
//!   [`sensjoin_simd::band_mask`] residual kernel before the full-precision
//!   predicate gate runs.
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
use crate::partition::key_bits;
use sensjoin_query::{eval_expr, eval_predicate, BandForm, CExpr, CmpOp, CompiledQuery, PredClass};
use sensjoin_relation::NodeId;
use sensjoin_simd::{band_mask, for_each_set, CmpKind, MaskForm};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A band partition is promoted to sub-buckets once it holds this many
/// entries.
const PROMOTE_LEN: usize = 64;
/// Promotion splits a bucket into sub-buckets of `width / SUB_FACTOR`.
const SUB_FACTOR: f64 = 16.0;

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
    /// Band partitions promoted to sub-bucket tiers during this batch.
    pub promotions: usize,
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
        self.promotions += other.promotions;
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

/// A sorted key run: parallel `(keys, slots)` arrays, keys ascending. SoA so
/// the whole run feeds [`band_mask`] directly.
#[derive(Debug, Default, Clone)]
struct Run {
    keys: Vec<f64>,
    slots: Vec<u32>,
}

impl Run {
    fn insert(&mut self, key: f64, slot: u32) {
        let at = self.keys.partition_point(|&k| k < key);
        self.keys.insert(at, key);
        self.slots.insert(at, slot);
    }

    fn remove(&mut self, key: f64, slot: u32) {
        let lo = self.keys.partition_point(|&k| k < key);
        let hi = self.keys.partition_point(|&k| k <= key);
        for i in lo..hi {
            if self.slots[i] == slot {
                self.keys.remove(i);
                self.slots.remove(i);
                return;
            }
        }
        debug_assert!(false, "index entry missing on removal");
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// One bucket of a band index: a cold sorted run, or — once hot — a tier of
/// finer sub-bucket runs.
#[derive(Debug, Default)]
struct Partition {
    /// Lifetime arrivals (monotone; drives nothing once promoted but is the
    /// hotness signal reported by [`StreamJoinEngine::index_depth`]).
    arrivals: u64,
    cold: Run,
    hot: Option<BTreeMap<i64, Run>>,
}

impl Partition {
    /// Inserts, promoting to sub-buckets when the cold run grows past
    /// [`PROMOTE_LEN`]. Returns whether a promotion happened.
    fn insert(&mut self, key: f64, slot: u32, sub_width: f64) -> bool {
        self.arrivals += 1;
        if let Some(sub) = &mut self.hot {
            sub.entry(bucket_of(key, sub_width))
                .or_default()
                .insert(key, slot);
            return false;
        }
        self.cold.insert(key, slot);
        if self.cold.len() <= PROMOTE_LEN {
            return false;
        }
        self.promote(sub_width);
        true
    }

    /// Splits the cold run into sub-bucket runs. Checkpoint restore also
    /// forces this on partitions that were hot when snapshotted, since
    /// replaying only the *live* tuples may not cross the threshold again.
    fn promote(&mut self, sub_width: f64) {
        let mut sub: BTreeMap<i64, Run> = BTreeMap::new();
        for (&k, &s) in self.cold.keys.iter().zip(&self.cold.slots) {
            // Draining a sorted run in order keeps every sub-run sorted.
            let run = sub.entry(bucket_of(k, sub_width)).or_default();
            run.keys.push(k);
            run.slots.push(s);
        }
        self.cold = Run::default();
        self.hot = Some(sub);
    }

    fn remove(&mut self, key: f64, slot: u32, sub_width: f64) {
        if let Some(sub) = &mut self.hot {
            let b = bucket_of(key, sub_width);
            if let Some(run) = sub.get_mut(&b) {
                run.remove(key, slot);
                if run.len() == 0 {
                    sub.remove(&b);
                }
            }
        } else {
            self.cold.remove(key, slot);
        }
    }

    /// Visits every run overlapping the key window `[lo, hi]` (already
    /// widened by the caller at bucket granularity).
    fn for_runs_in(&self, lo: f64, hi: f64, sub_width: f64, f: &mut impl FnMut(&[f64], &[u32])) {
        match &self.hot {
            Some(sub) => {
                let lo_b = bucket_of(lo, sub_width).saturating_sub(1);
                let hi_b = bucket_of(hi, sub_width).saturating_add(1);
                for run in sub.range(lo_b..=hi_b).map(|(_, r)| r) {
                    f(&run.keys, &run.slots);
                }
            }
            None => f(&self.cold.keys, &self.cold.slots),
        }
    }
}

/// The incremental index kinds.
#[derive(Debug)]
enum IndexKind {
    /// Equi conjunct: key bits → ascending slot list.
    Equi { map: HashMap<u64, Vec<u32>> },
    /// Band conjunct: bucketed sorted runs with hot-partition promotion.
    Band {
        form: MaskForm,
        width: f64,
        buckets: BTreeMap<i64, Partition>,
    },
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

    fn insert(&mut self, key: f64, slot: u32) -> bool {
        match &mut self.kind {
            IndexKind::Equi { map } => {
                if let Some(bits) = key_bits(key) {
                    map.entry(bits).or_default().push(slot);
                }
                false
            }
            IndexKind::Band { width, buckets, .. } => {
                if key.is_nan() {
                    // No comparison with a NaN operand is ever true: the
                    // tuple can never pass this conjunct, so it needs no
                    // entry (mirrors the batch engine's sorted index).
                    return false;
                }
                let sub_width = *width / SUB_FACTOR;
                buckets
                    .entry(bucket_of(key, *width))
                    .or_default()
                    .insert(key, slot, sub_width)
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
            IndexKind::Band { width, buckets, .. } => {
                if key.is_nan() {
                    return;
                }
                let b = bucket_of(key, *width);
                let sub_width = *width / SUB_FACTOR;
                if let Some(part) = buckets.get_mut(&b) {
                    part.remove(key, slot, sub_width);
                    if part.cold.len() == 0 && part.hot.as_ref().is_none_or(|s| s.is_empty()) {
                        buckets.remove(&b);
                    }
                }
            }
        }
    }

    /// Candidate slots for probe value `p`: `None` when the index cannot
    /// prune (the caller scans), `Some` with a conservative superset of the
    /// conjunct's true matches otherwise.
    fn probe(&self, p: f64, scratch: &mut Vec<u64>) -> Option<Vec<u32>> {
        match &self.kind {
            IndexKind::Equi { map } => Some(
                key_bits(p)
                    .and_then(|b| map.get(&b))
                    .cloned()
                    .unwrap_or_default(),
            ),
            IndexKind::Band {
                form,
                width,
                buckets,
            } => {
                match probe_window(*form, p) {
                    Window::Empty => Some(Vec::new()),
                    Window::All => None,
                    Window::Range(lo, hi) => {
                        let lo_b = bucket_of(lo, *width).saturating_sub(1);
                        let hi_b = bucket_of(hi, *width).saturating_add(1);
                        let sub_width = *width / SUB_FACTOR;
                        let mut out = Vec::new();
                        for part in buckets.range(lo_b..=hi_b).map(|(_, p)| p) {
                            part.for_runs_in(lo, hi, sub_width, &mut |keys, slots| {
                                // Vectorized residual cut over the run; exact
                                // for this conjunct, so survivors only face
                                // the remaining predicates.
                                band_mask(keys, p, *form, scratch);
                                for_each_set(scratch, |i| out.push(slots[i]));
                            });
                        }
                        Some(out)
                    }
                }
            }
        }
    }
}

/// Clamped fixed-width bucket of a key (±∞ land in the extreme buckets;
/// NaN keys are never inserted).
fn bucket_of(key: f64, width: f64) -> i64 {
    let b = (key / width).floor();
    if b <= i64::MIN as f64 {
        i64::MIN
    } else if b >= i64::MAX as f64 {
        i64::MAX
    } else {
        b as i64
    }
}

fn cmp_kind(op: CmpOp) -> Option<CmpKind> {
    Some(match op {
        CmpOp::Lt => CmpKind::Lt,
        CmpOp::Le => CmpKind::Le,
        CmpOp::Gt => CmpKind::Gt,
        CmpOp::Ge => CmpKind::Ge,
        CmpOp::Eq => CmpKind::Eq,
        CmpOp::Ne => return None,
    })
}

fn mirror(op: CmpKind) -> CmpKind {
    match op {
        CmpKind::Lt => CmpKind::Gt,
        CmpKind::Le => CmpKind::Ge,
        CmpKind::Gt => CmpKind::Lt,
        CmpKind::Ge => CmpKind::Le,
        CmpKind::Eq => CmpKind::Eq,
    }
}

/// Conservative key window accepted by `form` at probe value `p`.
enum Window {
    /// No key can match (NaN probe, inverted band).
    Empty,
    /// The index cannot bound the match set — scan.
    All,
    /// Matching keys lie within `[lo, hi]` (inclusive; possibly infinite).
    Range(f64, f64),
}

fn probe_window(form: MaskForm, p: f64) -> Window {
    if p.is_nan() {
        return Window::Empty;
    }
    // Normalize to `key op pivot`.
    let ray = |op: CmpKind, pivot: f64| -> Window {
        if pivot.is_nan() {
            return Window::All;
        }
        match op {
            CmpKind::Lt | CmpKind::Le => Window::Range(f64::NEG_INFINITY, pivot),
            CmpKind::Gt | CmpKind::Ge => Window::Range(pivot, f64::INFINITY),
            CmpKind::Eq => Window::Range(pivot, pivot),
        }
    };
    match form {
        MaskForm::Direct { op, key_is_lhs } => {
            let op = if key_is_lhs { op } else { mirror(op) };
            ray(op, p)
        }
        MaskForm::Diff { op, c, key_is_lhs } => {
            // key − p op c  ≡  key op p + c;   p − key op c  ≡  key m(op) p − c.
            if key_is_lhs {
                ray(op, p + c)
            } else {
                ray(mirror(op), p - c)
            }
        }
        MaskForm::AbsDiff { op, c, .. } => match op {
            // |key − p| ≤ c: the window [p − c, p + c] (inverted, hence
            // empty, for negative c — correctly so).
            CmpKind::Lt | CmpKind::Le | CmpKind::Eq => {
                let (lo, hi) = (p - c, p + c);
                if lo.is_nan() || hi.is_nan() {
                    Window::All
                } else if lo > hi {
                    Window::Empty
                } else {
                    Window::Range(lo, hi)
                }
            }
            // Complement bands accept two rays — no single window.
            CmpKind::Gt | CmpKind::Ge => Window::All,
        },
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
            match pc {
                PredClass::Equi { lhs, rhs } if lhs.rel != rhs.rel => {
                    for (key, probe) in [(lhs, rhs), (rhs, lhs)] {
                        indexes[key.rel].push(IngestIndex {
                            other_rel: probe.rel,
                            key_expr: key.expr.clone(),
                            probe_expr: probe.expr.clone(),
                            kind: IndexKind::Equi {
                                map: HashMap::new(),
                            },
                        });
                    }
                }
                PredClass::Band { lhs, rhs, form } if lhs.rel != rhs.rel => {
                    let width = match form {
                        BandForm::Diff { c, .. } | BandForm::AbsDiff { c, .. }
                            if c.is_finite() && c.abs() > 0.0 =>
                        {
                            c.abs()
                        }
                        _ => 1.0,
                    };
                    for (key, probe, key_is_lhs) in [(lhs, rhs, true), (rhs, lhs, false)] {
                        let Some(mf) = mask_form(form, key_is_lhs) else {
                            continue;
                        };
                        indexes[key.rel].push(IngestIndex {
                            other_rel: probe.rel,
                            key_expr: key.expr.clone(),
                            probe_expr: probe.expr.clone(),
                            kind: IndexKind::Band {
                                form: mf,
                                width,
                                buckets: BTreeMap::new(),
                            },
                        });
                    }
                }
                _ => {}
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

    /// `(partitions, promoted partitions)` across every band index — the
    /// hot/cold split observability hook.
    pub fn index_depth(&self) -> (usize, usize) {
        let mut total = 0;
        let mut promoted = 0;
        for ix in self.indexes.iter().flatten() {
            if let IndexKind::Band { buckets, .. } = &ix.kind {
                total += buckets.len();
                promoted += buckets.values().filter(|p| p.hot.is_some()).count();
            }
        }
        (total, promoted)
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

    /// Per band index (relation-major order), per partition: `(bucket,
    /// lifetime arrivals, promoted)`. Tuple replay alone cannot reproduce
    /// this — arrivals count *lifetime* inserts, and a partition promoted by
    /// long-expired traffic may hold fewer than `PROMOTE_LEN` live tuples.
    pub fn band_state(&self) -> Vec<Vec<(i64, u64, bool)>> {
        let mut out = Vec::new();
        for ix in self.indexes.iter().flatten() {
            if let IndexKind::Band { buckets, .. } = &ix.kind {
                out.push(
                    buckets
                        .iter()
                        .map(|(&b, p)| (b, p.arrivals, p.hot.is_some()))
                        .collect(),
                );
            }
        }
        out
    }

    /// Restores band-index hotness exported by [`StreamJoinEngine::band_state`]
    /// after live-tuple replay: arrivals counters are set back and partitions
    /// that were promoted are force-promoted, so future promotion decisions
    /// and [`StreamJoinEngine::index_depth`] match the uninterrupted engine.
    pub fn restore_band_state(&mut self, state: &[Vec<(i64, u64, bool)>]) {
        let mut it = state.iter();
        for ix in self.indexes.iter_mut().flatten() {
            if let IndexKind::Band { width, buckets, .. } = &mut ix.kind {
                let Some(parts) = it.next() else { break };
                let sub_width = *width / SUB_FACTOR;
                for &(b, arrivals, hot) in parts {
                    if let Some(part) = buckets.get_mut(&b) {
                        part.arrivals = arrivals;
                        if hot && part.hot.is_none() {
                            part.promote(sub_width);
                        }
                    }
                }
            }
        }
    }

    /// Rebuilds an engine from checkpointed parts: replay the live tuples,
    /// then restore band-index hotness. The replay's [`BatchStats`] are
    /// deliberately discarded — they are reconstruction work, not traffic.
    #[allow(clippy::type_complexity)]
    pub fn restore(
        query: CompiledQuery,
        tuples: &[(NodeId, Vec<Option<Vec<f64>>>)],
        band: &[Vec<(i64, u64, bool)>],
    ) -> Self {
        let mut engine = Self::new(query);
        let ops: Vec<StreamOp> = tuples
            .iter()
            .map(|(origin, per_rel)| StreamOp::Upsert {
                origin: *origin,
                per_rel: per_rel.clone(),
            })
            .collect();
        let _ = engine.apply_batch(&ops);
        engine.restore_band_state(band);
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
                            if ix.insert(key, slot) {
                                stats.promotions += 1;
                            }
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
        let mut scratch = Vec::new();
        let mut found: Vec<Vec<u32>> = Vec::new();
        for &(rel, origin) in &touched {
            // Skipped when a later op in the same batch expired the tuple.
            let Some(&slot) = self.rels[rel].by_origin.get(&origin) else {
                continue;
            };
            self.enumerate_anchored(rel, slot, &mut found, &mut stats, &mut scratch);
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
        scratch: &mut Vec<u64>,
    ) {
        let k = self.rels.len();
        let mut order = Vec::with_capacity(k);
        order.push(anchor_rel);
        order.extend((0..k).filter(|&r| r != anchor_rel));
        let mut binding = vec![u32::MAX; k];
        self.try_bind(
            &order,
            0,
            anchor_slot,
            0,
            &mut binding,
            found,
            stats,
            scratch,
        );
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
        scratch: &mut Vec<u64>,
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
                self.descend(order, depth + 1, bound, binding, found, stats, scratch);
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
        scratch: &mut Vec<u64>,
    ) {
        let rel = order[depth];
        match self.level_candidates(rel, bound, binding, scratch) {
            Some(cands) => {
                for slot in cands {
                    self.try_bind(order, depth, slot, bound, binding, found, stats, scratch);
                }
            }
            None => {
                // No usable index: scan the relation's live slots.
                for slot in 0..self.rels[rel].live.len() {
                    if self.rels[rel].live[slot] {
                        self.try_bind(
                            order,
                            depth,
                            slot as u32,
                            bound,
                            binding,
                            found,
                            stats,
                            scratch,
                        );
                    }
                }
            }
        }
    }

    /// The smallest candidate list over the relation's indexes whose probe
    /// side is already bound (`None`: no index can prune).
    fn level_candidates(
        &self,
        rel: usize,
        bound: u32,
        binding: &[u32],
        scratch: &mut Vec<u64>,
    ) -> Option<Vec<u32>> {
        let mut best: Option<Vec<u32>> = None;
        for ix in &self.indexes[rel] {
            if bound >> ix.other_rel & 1 == 0 {
                continue;
            }
            let p = eval_expr(&ix.probe_expr, &|r: usize, a: usize| {
                debug_assert_eq!(r, ix.other_rel);
                self.rels[r].values[binding[r] as usize][a]
            });
            if let Some(cands) = ix.probe(p, scratch) {
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

fn mask_form(form: &BandForm, key_is_lhs: bool) -> Option<MaskForm> {
    Some(match form {
        BandForm::Direct(op) => MaskForm::Direct {
            op: cmp_kind(*op)?,
            key_is_lhs,
        },
        BandForm::Diff { op, c } => MaskForm::Diff {
            op: cmp_kind(*op)?,
            c: *c,
            key_is_lhs,
        },
        BandForm::AbsDiff { op, c } => MaskForm::AbsDiff {
            op: cmp_kind(*op)?,
            c: *c,
            key_is_lhs,
        },
    })
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
    fn hot_partitions_promote_and_stay_correct() {
        // A band far wider than the key spread: every key lands in the same
        // bucket, forcing promotions past PROMOTE_LEN arrivals.
        let (snet, cq) = setup(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 1000.0 ONCE",
            120,
            13,
        );
        let mut engine = StreamJoinEngine::new(cq.clone());
        let ops: Vec<StreamOp> = (0..snet.len() as u32)
            .map(|i| StreamOp::Upsert {
                origin: NodeId(i),
                per_rel: per_rel_of(&snet, &cq, NodeId(i)),
            })
            .collect();
        let stats = engine.apply_batch(&ops);
        assert!(stats.promotions > 0, "expected hot-partition promotions");
        let (parts, promoted) = engine.index_depth();
        assert!(promoted > 0 && promoted <= parts);
        let live: BTreeSet<NodeId> = (0..snet.len() as u32).map(NodeId).collect();
        assert_same(&engine.result(), &reference(&snet, &cq, &live));
        // Expiry out of promoted partitions must also hold up.
        let ops: Vec<StreamOp> = (0..snet.len() as u32)
            .step_by(2)
            .map(|i| StreamOp::Expire { origin: NodeId(i) })
            .collect();
        engine.apply_batch(&ops);
        let live: BTreeSet<NodeId> = live.into_iter().filter(|o| o.0 % 2 == 1).collect();
        assert_same(&engine.result(), &reference(&snet, &cq, &live));
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
