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
use crate::engine::JoinSpace;
use crate::incremental::{CellCounts, FilterEngine};
use crate::ingest::{StreamJoinEngine, StreamOp};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::persist::{self, Persist};
use crate::repr::{JoinAttrMsg, NodeTable};
use crate::snetwork::SensorNetwork;
use crate::wave::{down_wave, up_wave, DownArrival};

/// Maximum number of times a continuous round is (re-)executed when data
/// loss survives the ARQ budget (first attempt included).
pub const MAX_ROUND_ATTEMPTS: u32 = 3;
use sensjoin_quadtree::{Point, PointSet, RelFlags};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{DeltaBatchStats, RoutingTree, Time};

/// Phase labels of the continuous rounds.
pub const PHASE_DELTA_COLLECTION: &str = "1-delta-collection";
/// Filter-delta dissemination label.
pub const PHASE_FILTER_DELTA: &str = "2-filter-delta";
/// ε-suppressed final phase label.
pub const PHASE_FINAL_DELTA: &str = "3-final-delta";

/// Counted cell population: per cell, one counter per relation-role bit.
type Counts = CellCounts;

fn apply_delta(into: &mut Counts, delta: &Counts) {
    for (&z, d) in delta {
        let e = into.entry(z).or_insert([0; 8]);
        for b in 0..8 {
            e[b] += d[b];
        }
        if e.iter().all(|&c| c == 0) {
            into.remove(&z);
        }
    }
}

fn counts_to_set(counts: &Counts) -> PointSet {
    PointSet::from_points(counts.iter().filter_map(|(&z, c)| {
        let mut flags = 0u8;
        for (b, &cnt) in c.iter().enumerate() {
            debug_assert!(cnt >= 0, "negative cell count");
            if cnt > 0 {
                flags |= 1 << b;
            }
        }
        (flags != 0).then_some(Point {
            z,
            flags: RelFlags(flags),
        })
    }))
}

fn flag_bits(flags: u8) -> impl Iterator<Item = usize> {
    (0..8).filter(move |&b| flags & (1 << b) != 0)
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
    adds: Counts,
    dels: Counts,
    /// Wire size, once computed; dropped when the content changes. A relay
    /// with nothing of its own to report forwards its only child's delta —
    /// and its size — unchanged.
    bytes: Option<usize>,
}

impl Delta {
    fn record(&mut self, z: u64, flags: u8, sign: i64) {
        self.bytes = None;
        let map = if sign > 0 {
            &mut self.adds
        } else {
            &mut self.dels
        };
        let e = map.entry(z).or_insert([0; 8]);
        for b in flag_bits(flags) {
            e[b] += sign.abs();
        }
    }

    fn merge(&mut self, other: &Delta) {
        self.bytes = None;
        apply_delta(&mut self.adds, &other.adds);
        apply_delta(&mut self.dels, &other.dels);
    }

    /// The net population change (adds − dels), built in one pass without
    /// cloning the adds map.
    fn net(&self) -> Counts {
        let mut net = Counts::with_capacity(self.adds.len() + self.dels.len());
        for (&z, a) in &self.adds {
            let mut e = *a;
            if let Some(d) = self.dels.get(&z) {
                for b in 0..8 {
                    e[b] -= d[b];
                }
            }
            if e.iter().any(|&c| c != 0) {
                net.insert(z, e);
            }
        }
        for (&z, d) in &self.dels {
            if self.adds.contains_key(&z) {
                continue; // already netted above
            }
            let mut e = [0i64; 8];
            for b in 0..8 {
                e[b] = -d[b];
            }
            net.insert(z, e);
        }
        net
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
        let mut extra = 0usize;
        let to_set = |counts: &Counts, extra: &mut usize| -> PointSet {
            PointSet::from_points(counts.iter().filter_map(|(&z, c)| {
                let mut flags = 0u8;
                for (b, &cnt) in c.iter().enumerate() {
                    if cnt > 0 {
                        flags |= 1 << b;
                        *extra += (cnt - 1) as usize;
                    }
                }
                (flags != 0).then_some(Point {
                    z,
                    flags: RelFlags(flags),
                })
            }))
        };
        let adds = to_set(&self.adds, &mut extra);
        let dels = to_set(&self.dels, &mut extra);
        JoinAttrMsg::filter_wire_size(&adds, Representation::Quadtree, space)
            + JoinAttrMsg::filter_wire_size(&dels, Representation::Quadtree, space)
            + extra
            + 1 // add/del split marker
    }
}

/// A filter delta traveling down the tree in phase 2.
#[derive(Debug, Clone, Default)]
struct FilterDelta {
    added: PointSet,
    removed: PointSet,
}

impl FilterDelta {
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    fn wire_size(&self, space: &JoinSpace) -> usize {
        if self.is_empty() {
            return 0;
        }
        JoinAttrMsg::filter_wire_size(&self.added, Representation::Quadtree, space)
            + JoinAttrMsg::filter_wire_size(&self.removed, Representation::Quadtree, space)
            + 1
    }

    /// Applies the delta to a node's filter view.
    fn apply(&self, filter: &mut PointSet) {
        let mut merged = filter.union(&self.added);
        if !self.removed.is_empty() {
            merged = PointSet::from_points(merged.iter().filter_map(|p| {
                let lost = self.removed.flags_of(p.z).map_or(0, |f| f.0);
                let kept = p.flags.0 & !lost;
                (kept != 0).then_some(Point {
                    z: p.z,
                    flags: RelFlags(kept),
                })
            }));
        }
        *filter = merged;
    }
}

/// Final-phase message: fresh tuples plus retractions.
#[derive(Default)]
struct FinalDelta {
    /// Origins of the fresh tuples (the base reads their values from the
    /// snapshot, which does not change within a round).
    tuples: Vec<NodeId>,
    retractions: Vec<NodeId>,
    bytes: usize,
}

/// Per-round persistent state. A checkpoint holds the inputs — `space`'s
/// dimension ranges, `last_cell`, `last_values`, `node_filter`, the stream
/// engine's live tuples, `rounds` — and a restore derives the rest.
struct State {
    space: JoinSpace,
    /// Per node: (z, flags) last reported into the population.
    last_cell: Vec<Option<(u64, u8)>>,
    /// Per node: master values last shipped to the base; `Some` exactly
    /// while the node's tuple is live in `stream`.
    last_values: Vec<Option<Vec<f64>>>,
    /// Per node: current (delta-maintained) filter view.
    node_filter: Vec<PointSet>,
    /// Per node: counted cell population of its subtree (incl. itself) —
    /// [`subtree_counts`] of `last_cell` over the routing tree. Empty after
    /// a restore, until the next round rebuilds it.
    subtree: Vec<Counts>,
    /// Base station: incremental filter engine (owns the global population,
    /// the sum of `last_cell`) and the filter as of the last round (for
    /// delta dissemination).
    engine: FilterEngine,
    filter: PointSet,
    /// Base station: persistent streaming join over the shipped tuples.
    /// Each round's tuple deltas update the cached result in O(Δ) instead
    /// of re-running the batch join over every shipped tuple.
    stream: StreamJoinEngine,
    rounds: u64,
}

/// Per node, the counted cell population of its subtree: every reported
/// cell counts at its node and at each of the node's ancestors.
fn subtree_counts(last_cell: &[Option<(u64, u8)>], routing: &RoutingTree) -> Vec<Counts> {
    let mut subtree: Vec<Counts> = last_cell.iter().map(|_| Counts::default()).collect();
    for (i, cell) in last_cell.iter().enumerate() {
        let Some((z, f)) = *cell else { continue };
        let mut at = Some(NodeId(i as u32));
        while let Some(u) = at {
            let e = subtree[u.0 as usize].entry(z).or_insert([0; 8]);
            for b in flag_bits(f) {
                e[b] += 1;
            }
            at = routing.parent(u);
        }
    }
    subtree
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
    /// stream engine's live tuples). The query and config are *not*
    /// serialized — the resuming process reconstructs them
    /// deterministically and passes the query to
    /// [`ContinuousSensJoin::restore_state`] — and neither is anything
    /// derived from the inputs, so an image cannot disagree with itself.
    pub fn encode_state(&self, w: &mut persist::Writer) {
        self.delta_stats.put(w);
        w.put_u64(self.last_latency_us);
        w.put_bool(self.state.is_some());
        if let Some(st) = &self.state {
            st.space.to_parts().put(w);
            st.last_cell.put(w);
            st.last_values.put(w);
            st.node_filter.put(w);
            st.stream.live_tuples().put(w);
            w.put_u64(st.rounds);
        }
    }

    /// Restores state serialized by [`ContinuousSensJoin::encode_state`].
    /// `query` must be the same compiled query the state was saved under.
    /// The filter engine is rebuilt by applying the population the nodes
    /// last reported as one delta from empty — bit-identical to the
    /// maintained engine by the incremental filter's core guarantee. The
    /// subtree synopses need the routing tree, which is restored after the
    /// executor: the next round rebuilds them.
    pub fn restore_state(
        &mut self,
        r: &mut persist::Reader<'_>,
        query: &CompiledQuery,
    ) -> Result<(), persist::CodecError> {
        use persist::CodecError;
        self.delta_stats = Persist::get(r)?;
        self.last_latency_us = r.get_u64()?;
        if !r.get_bool()? {
            self.state = None;
            return Ok(());
        }
        let space = persist::join_space_from_parts(query, Persist::get(r)?)?;
        let last_cell: Vec<Option<(u64, u8)>> = Persist::get(r)?;
        let last_values: Vec<Option<Vec<f64>>> = Persist::get(r)?;
        let node_filter: Vec<PointSet> = Persist::get(r)?;
        if last_values.len() != last_cell.len() || node_filter.len() != last_cell.len() {
            return Err(CodecError::Invariant("per-node tables differ in length"));
        }
        // Every cell a node reported or was told of is a point of `space`.
        let shape = space.shape();
        let in_space = |z: u64, flags: u8| {
            (shape.z_bits() == 64 || z >> shape.z_bits() == 0)
                && flags != 0
                && u32::from(flags) >> shape.flag_bits() == 0
        };
        let told = node_filter.iter().flat_map(|f| f.iter());
        if !last_cell.iter().flatten().all(|&(z, f)| in_space(z, f))
            || !told.into_iter().all(|p| in_space(p.z, p.flags.0))
        {
            return Err(CodecError::Invariant("cell outside the join space"));
        }
        let mut population = Delta::default();
        for &(z, f) in last_cell.iter().flatten() {
            population.record(z, f, 1);
        }
        let mut engine = FilterEngine::new(query, &space);
        let filter = engine.apply_delta(query, &space, &population.adds).clone();
        let stream = persist::stream_engine_from_tuples(query.clone(), &Vec::get(r)?)?;
        let rounds = r.get_u64()?;
        self.state = Some(State {
            space,
            last_cell,
            last_values,
            node_filter,
            subtree: Vec::new(),
            engine,
            filter,
            stream,
            rounds,
        });
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
        self.adopt_restored(snet)?;
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
    /// tables describe `snet` — `restore_state` cannot see the network — and
    /// rebuilds the subtree synopses over its routing tree.
    fn adopt_restored(&mut self, snet: &SensorNetwork) -> Result<(), ProtocolError> {
        let Some(st) = self.state.as_mut().filter(|st| st.subtree.is_empty()) else {
            return Ok(());
        };
        let arity = snet.master_schema().arity();
        if st.last_cell.len() != snet.len()
            || st.last_values.iter().flatten().any(|v| v.len() != arity)
        {
            return Err(ProtocolError::ForeignCheckpoint);
        }
        st.subtree = subtree_counts(&st.last_cell, snet.net().routing());
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
        let mut departed = Delta::default();
        let mut expirations: Vec<StreamOp> = Vec::new();
        for i in 0..st.last_cell.len() {
            let v = NodeId(i as u32);
            if net.is_alive(v) && routing.depth(v).is_some() {
                continue;
            }
            if let Some((z, f)) = st.last_cell[i].take() {
                departed.record(z, f, -1);
            }
            st.node_filter[i] = PointSet::new();
            if st.last_values[i].take().is_some() {
                expirations.push(StreamOp::Expire { origin: v });
            }
        }
        if !expirations.is_empty() {
            let b = st.stream.apply_batch(&expirations);
            record_batch(&mut self.delta_stats, &b);
        }
        st.subtree = subtree_counts(&st.last_cell, routing);
        if !departed.is_empty() {
            // The filter shrinks accordingly; the removals reach the
            // survivors through the next round's ordinary filter delta
            // (computed against `st.filter`).
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
                last_cell: vec![None; n],
                last_values: vec![None; n],
                node_filter: vec![PointSet::new(); n],
                subtree: (0..n).map(|_| Counts::default()).collect(),
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
            |v, received: Vec<Delta>| {
                // The first child's delta is taken as it is (with the size
                // its sender computed); merging the rest, or recording an
                // own change, re-sizes.
                let mut received = received.into_iter();
                let mut merged = received.next().unwrap_or_default();
                for d in received {
                    merged.merge(&d);
                }
                let cur = table.tuple(v).map(|r| (r.z, r.flags.0));
                let last = &mut last_cell[v.0 as usize];
                if cur != *last {
                    if let Some((z, f)) = *last {
                        merged.record(z, f, -1);
                    }
                    if let Some((z, f)) = cur {
                        merged.record(z, f, 1);
                    }
                    *last = cur;
                }
                apply_delta(&mut subtree[v.0 as usize], &merged.net());
                merged
            },
            |d| d.wire_size(space),
            PHASE_DELTA_COLLECTION,
        );

        // ---- Base station: incremental filter maintenance ----
        // The engine folds the round's net delta into its persistent
        // population and indexes and recomputes only the affected cells'
        // filter bits — bit-identical to a fresh `prejoin_filter` over the
        // full population, at cost proportional to the delta.
        let new_filter = st
            .engine
            .apply_delta(query, &st.space, &base_delta.net())
            .clone();
        let mut added = PointSet::new();
        let mut removed = PointSet::new();
        for p in new_filter.iter() {
            let old = st.filter.flags_of(p.z).map_or(0, |f| f.0);
            let gained = p.flags.0 & !old;
            if gained != 0 {
                added.insert(p.z, RelFlags(gained));
            }
        }
        for p in st.filter.iter() {
            let new = new_filter.flags_of(p.z).map_or(0, |f| f.0);
            let lost = p.flags.0 & !new;
            if lost != 0 {
                removed.insert(p.z, RelFlags(lost));
            }
        }
        // Re-announce filter entries for cells whose population grew this
        // round: a node that just *moved into* an already-filtered cell has
        // no way to know the cell matches (its filter view predates its
        // move), so the unchanged filter entry must flow to it again. The
        // subtree pruning then routes it exactly to the mover's branch.
        for (&z, c) in &base_delta.adds {
            if c.iter().any(|&x| x > 0) {
                if let Some(f) = new_filter.flags_of(z) {
                    added.insert(z, f);
                }
            }
        }
        st.filter = new_filter;
        let full_delta = FilterDelta { added, removed };

        // ---- Phase 2: filter-delta dissemination ----
        let node_filter = &mut st.node_filter;
        let subtree = &st.subtree;
        let rep2 = down_wave(
            snet.net_mut(),
            &|_| true,
            |v, arrival: DownArrival<'_, FilterDelta>| {
                let fd: &FilterDelta = match arrival {
                    DownArrival::Intact(fd) => {
                        fd.apply(&mut node_filter[v.0 as usize]);
                        fd
                    }
                    DownArrival::Origin => &full_delta, // base station originates
                    // The delta is gone and this node's filter view is now
                    // stale; the round-level resync rebuilds everything, so
                    // don't forward anything further.
                    DownArrival::Damaged => return None,
                };
                if fd.is_empty() {
                    return None;
                }
                // Prune to the child subtrees' cells (Selective Filter
                // Forwarding on deltas).
                let sub = counts_to_set(&subtree[v.0 as usize]);
                let pruned = FilterDelta {
                    added: fd.added.intersect(&sub),
                    removed: fd.removed.intersect(&sub),
                };
                (!pruned.is_empty()).then_some(pruned)
            },
            |fd| fd.wire_size(space),
            PHASE_FILTER_DELTA,
        );
        // The base's own filter view is the filter itself.
        st.node_filter[base.0 as usize] = st.filter.clone();

        // ---- Phase 3: ε-suppressed final phase ----
        let epsilon = self.epsilon;
        let node_filter = &st.node_filter;
        let last_values = &mut st.last_values;
        let drift_attrs = drift_attrs(snet, query);
        let (net, readings) = snet.net_mut_and_readings();
        let (final_delta, rep3) = up_wave(
            net,
            &|_| true,
            |v, received: Vec<FinalDelta>| {
                let mut out = FinalDelta::default();
                for mut f in received {
                    out.bytes += f.bytes;
                    out.tuples.append(&mut f.tuples);
                    out.retractions.append(&mut f.retractions);
                }
                let i = v.0 as usize;
                let rec = table.rec(v);
                let matching = node_filter[i].contains_matching(rec.z, rec.flags);
                let last = &mut last_values[i];
                if matching {
                    let values = &readings[i];
                    // A node that did not match last round has shipped
                    // nothing: it reports as if everything had drifted.
                    let drifted = last.as_ref().is_none_or(|old| {
                        drift_attrs
                            .iter()
                            .any(|&a| (old[a] - values[a]).abs() > epsilon)
                    });
                    if drifted {
                        *last = Some(values.to_vec());
                        if v != base {
                            out.bytes += rec.bytes as usize;
                        }
                        out.tuples.push(v);
                    }
                } else if last.take().is_some() {
                    if v != base {
                        out.bytes += 2; // origin id retraction
                    }
                    out.retractions.push(v);
                }
                out
            },
            |f| f.bytes,
            PHASE_FINAL_DELTA,
        );

        // ---- Base station: streaming join ----
        // The round's tuple deltas feed the persistent streaming engine,
        // which re-enumerates only the bindings anchored at changed tuples;
        // its cached result is bit-identical to re-running `exact_join`
        // over every shipped tuple (the pre-streaming behavior).
        let (snet, table) = (&*snet, &table);
        let project =
            |origin| (0..query.num_relations()).map(move |r| table.project(snet, origin, r));
        let ops: Vec<StreamOp> = final_delta
            .tuples
            .iter()
            .map(|&origin| StreamOp::Upsert {
                origin,
                per_rel: project(origin).collect(),
            })
            .chain(
                final_delta
                    .retractions
                    .iter()
                    .map(|&origin| StreamOp::Expire { origin }),
            )
            .collect();
        let batch = st.stream.apply_batch(&ops);
        record_batch(&mut self.delta_stats, &batch);
        let computation = st.stream.result();
        st.rounds += 1;
        Ok(JoinOutcome {
            result: computation.result,
            // Cumulative since `execute_round` reset them; the wrapper
            // replaces this with the final (all-attempt) numbers.
            stats: snet.net().stats().clone(),
            latency_us: rep1.timing.then(rep2.timing).then(rep3.timing).pipelined,
            latency_slotted_us: rep1.timing.then(rep2.timing).then(rep3.timing).slotted,
            contributors: computation.contributors,
            // Any lost delta (either direction) desynchronizes state; the
            // wrapper resyncs by cold-restarting the round.
            complete: rep1.damaged.is_empty() && rep2.damaged.is_empty() && rep3.damaged.is_empty(),
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
            assert!(st.last_values.iter().any(Option::is_some));
            for (i, shipped) in st.last_values.iter().enumerate() {
                let Some(shipped) = shipped else { continue };
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
        let shipped: Vec<NodeId> = (0..st.last_values.len())
            .filter(|&i| st.last_values[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect();
        assert_eq!(live_origins(&cont), shipped);
    }

    /// A restore rebuilds `subtree` instead of reading it: restored mid-run,
    /// the next round — with a churn boundary before it or without — leaves
    /// the synopses the uninterrupted executor has.
    #[test]
    fn restored_subtree_matches_the_uninterrupted_run() {
        for churn in [true, false] {
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
            let mut live = ContinuousSensJoin::new();
            for round in 0..2u64 {
                live_net.resample(&presets::indoor_climate(), 40 + round);
                live.execute_round(&mut live_net, &cq).unwrap();
            }
            let mut w = persist::Writer::new();
            live.encode_state(&mut w);
            persist::put_net_snapshot(&mut w, &live_net.net().export_state());
            let image = w.into_bytes();
            let mut r = persist::Reader::new(&image);
            let mut resumed = ContinuousSensJoin::new();
            resumed.restore_state(&mut r, &cq).unwrap();
            let snap = persist::get_net_snapshot(&mut r).unwrap();
            resumed_net.net_mut().restore_state(&snap).unwrap();
            assert!(resumed.state.as_ref().unwrap().subtree.is_empty());
            for (cont, net) in [(&mut live, &mut live_net), (&mut resumed, &mut resumed_net)] {
                net.resample(&presets::indoor_climate(), 42);
                let out = cont.execute_round(net, &cq).unwrap();
                assert_eq!(out.churned, churn);
            }
            let (a, b) = (live.state.unwrap(), resumed.state.unwrap());
            assert!(a.subtree.iter().any(|c| !c.is_empty()));
            assert_eq!(a.subtree, b.subtree, "churn {churn}");
        }
    }
}
