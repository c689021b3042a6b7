//! Multi-query scheduling: N concurrent queries over one network, sharing a
//! single Join-Attribute-Collection wave per epoch.
//!
//! The SENS-Join cost argument (paper §IV) is per-query; a base station
//! serving many standing queries would pay the expensive collection phase
//! once *per query* per sample period. [`QueryGroup`] amortizes it: every
//! registered query's join-attribute projection is collected in **one**
//! shared up-wave (per-link payloads are merged where queries' quantization
//! spaces coincide), the base station fans the shared cells out into one
//! persistent [`FilterEngine`] per query, and filter dissemination and the
//! final up-wave likewise travel as one merged message per link.
//!
//! Guarantees (enforced by the in-module tests and `tests/multi_query.rs`):
//!
//! * **Per-query bit-identity** — every due query's result (and contributor
//!   set) equals a solo [`SensJoin`](crate::SensJoin) execution over the
//!   same snapshot. Collection keeps per-query cell sets exact (the merge
//!   saves wire bytes, not information), and filter pruning applies each
//!   query's own subtree sets, so no query observes another's registration.
//! * **Amortization** — when queries share a quantization space, the shared
//!   collection's bytes approach the *maximum* (not the sum) of the solo
//!   collections: one union encoding per link plus a small per-query
//!   annotation overhead (a presence bitmap and one byte per diverging
//!   cell).
//!
//! The three phases themselves are [`crate::epoch`]'s — the same body a
//! one-shot [`SensJoin`](crate::SensJoin) runs with one query, under the
//! same phase labels and the same loss policy. What this module adds is
//! what makes a query *standing*: registration, the due schedule, the
//! persistent per-query filter engines, and the epoch retry loop.

use crate::config::SensJoinConfig;
use crate::engine::JoinSpace;
use crate::epoch::{run_epoch, Slot};
use crate::incremental::{CellCounts, FilterEngine};
use crate::outcome::{JoinResult, ProtocolError};
use crate::repr::collect_node_data;
use crate::sensjoin::{PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL};
use crate::snetwork::SensorNetwork;
use sensjoin_field::FieldSpec;
use sensjoin_quadtree::PointSet;
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{NetworkStats, Scheduler, Time};
use std::collections::BTreeSet;

/// Stable handle of a query registered with a [`QueryGroup`]; remains valid
/// across epochs and across other queries' removal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub usize);

/// One registered query and its persistent base-station state.
struct Registered {
    query: CompiledQuery,
    space: JoinSpace,
    /// Persistent pre-join filter engine, delta-fed across epochs.
    engine: FilterEngine,
    /// The previous epoch's collected cell population (delta baseline).
    population: PointSet,
    /// Runs every `every` epochs (1 = every epoch).
    every: u64,
    /// Epoch of registration; the query is due at `offset`, `offset +
    /// every`, ...
    offset: u64,
    alive: bool,
}

impl Registered {
    /// Whether the query is live and `epoch` is on its schedule.
    fn due_at(&self, epoch: u64) -> bool {
        self.alive && epoch >= self.offset && (epoch - self.offset).is_multiple_of(self.every)
    }
}

/// Per-epoch result of one query in the group.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Which registered query this is.
    pub id: QueryId,
    /// The query answer — bit-identical (as a multiset of rows) to a solo
    /// `SensJoin` execution over the same snapshot.
    pub result: JoinResult,
    /// Nodes whose tuples appear in at least one result row.
    pub contributors: BTreeSet<NodeId>,
}

/// What one query *would* have paid per phase had it shipped its payloads
/// unshared over the same routing tree and treecut decisions — the
/// denominator of the amortization curve. Like the shared statistics,
/// every phase is charged per *link*: a payload is paid again on each hop
/// it is forwarded toward (or from) the base station.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloCost {
    /// Which registered query this is.
    pub id: QueryId,
    /// Unshared Join-Attribute-Collection bytes.
    pub collection_bytes: u64,
    /// Unshared Filter-Dissemination bytes.
    pub filter_bytes: u64,
    /// Unshared Final-Result bytes.
    pub final_bytes: u64,
}

impl SoloCost {
    /// Total unshared bytes across the three phases.
    pub fn total_bytes(&self) -> u64 {
        self.collection_bytes + self.filter_bytes + self.final_bytes
    }
}

/// Maximum number of times an epoch is (re-)executed when the final wave
/// loses data despite the ARQ budget (first attempt included).
pub const MAX_EPOCH_ATTEMPTS: u32 = 3;

/// Everything one epoch of a [`QueryGroup`] produces.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The epoch index this report covers (0-based).
    pub epoch: u64,
    /// Per due query: result and contributors (non-due queries are absent).
    pub outcomes: Vec<GroupOutcome>,
    /// The epoch's transmission statistics, under the protocol's phase
    /// labels ([`PHASE_COLLECTION`], [`PHASE_FILTER`], [`PHASE_FINAL`]).
    pub stats: NetworkStats,
    /// End-to-end epoch latency (pipelined model), µs.
    pub latency_us: Time,
    /// End-to-end epoch latency (TAG-style slotted model), µs.
    pub latency_slotted_us: Time,
    /// Per due query: the unshared byte cost of the same messages.
    pub solo_equivalent: Vec<SoloCost>,
    /// Whether every due query's result is guaranteed exact. `false` only
    /// when the final wave lost data despite both the ARQ budget and the
    /// epoch retry loop (see [`MAX_EPOCH_ATTEMPTS`]) — loss in the first two
    /// phases only costs filter savings; always `true` on a lossless network.
    /// Under node churn, `true` means every due query's result is exact over
    /// the population alive and attached at the epoch boundary.
    pub complete: bool,
    /// Whether any churn event (crash or revival) was applied at this
    /// epoch's boundary.
    pub churned: bool,
}

impl EpochReport {
    /// Shared collection bytes actually transmitted this epoch.
    pub fn shared_collection_bytes(&self) -> u64 {
        self.stats.phase(PHASE_COLLECTION).tx_bytes
    }

    /// Shared filter-dissemination bytes actually transmitted this epoch.
    pub fn shared_filter_bytes(&self) -> u64 {
        self.stats.phase(PHASE_FILTER).tx_bytes
    }

    /// Shared final-result bytes actually transmitted this epoch.
    pub fn shared_final_bytes(&self) -> u64 {
        self.stats.phase(PHASE_FINAL).tx_bytes
    }

    /// Sum of the unshared (solo-equivalent) bytes across due queries.
    pub fn solo_equivalent_total(&self) -> u64 {
        self.solo_equivalent.iter().map(|s| s.total_bytes()).sum()
    }
}

/// Hard upper bound on concurrently *live* queries per [`QueryGroup`]:
/// per-query membership in merged wire messages is tracked with 64-bit
/// masks (one bit per registered slot), so a group can never serve more.
/// Admission layers must reject — or open another group — beyond this.
pub const MAX_GROUP_QUERIES: usize = 64;

/// Admission failure: the group already holds [`MAX_GROUP_QUERIES`] live
/// queries. Returned by [`QueryGroup::try_register`] and
/// [`QueryGroup::try_register_plan`]; a serving layer maps it to a
/// structured rejection or bin-packs the query into another group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupFull;

impl std::fmt::Display for GroupFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query group is at its {MAX_GROUP_QUERIES}-query capacity"
        )
    }
}

impl std::error::Error for GroupFull {}

/// The immutable, shareable part of a registration: the quantization space
/// derived from the network snapshot and the cold (empty-population)
/// [`FilterEngine`] classified from the query's predicate graph.
///
/// [`QueryPlan::build`] is a *pure function* of `(query, snapshot, config)`
/// — it reads only the compiled query, the network's current readings (the
/// attribute-bounds scan is the expensive part of admission) and the
/// protocol parameters. That purity is what makes plan caching sound: a
/// cached plan cloned into [`QueryGroup::try_register_plan`] is
/// byte-identical to the plan a fresh [`QueryGroup::try_register`] would
/// build from the same inputs, so per-tenant results cannot differ. See
/// [`PlanKey`] for the cache key that captures exactly those inputs.
#[derive(Clone)]
pub struct QueryPlan {
    space: JoinSpace,
    engine: FilterEngine,
}

impl QueryPlan {
    /// Builds the registration plan for `query` over the network's current
    /// snapshot.
    pub fn build(query: &CompiledQuery, snet: &SensorNetwork, config: &SensJoinConfig) -> Self {
        let space = JoinSpace::build(query, snet, config);
        let engine = FilterEngine::new(query, &space);
        Self { space, engine }
    }

    /// The quantization space the plan was built over.
    pub fn space(&self) -> &JoinSpace {
        &self.space
    }
}

/// Cache key under which a [`QueryPlan`] may be shared between tenants.
///
/// Soundness: [`QueryPlan::build`] is a pure function of the compiled
/// query, the network snapshot it scans for attribute bounds, and the
/// protocol config — and the key captures each of those inputs exactly:
///
/// * `sql` — the query text with runs of ASCII whitespace collapsed. The
///   dialect has no whitespace-sensitive tokens (no string literals), so
///   equal canonical texts tokenize, parse, and compile identically
///   against one deployment's fixed catalog.
/// * `deployment` / `snapshot` — which network, and a version its owner
///   bumps on every readings mutation (e.g. per resample), so plans built
///   over different snapshots never unify.
/// * `config` — the `Debug` rendering of [`SensJoinConfig`], which is
///   deterministic (the quantization table is an ordered `Vec`, not a
///   hash map).
///
/// Two submissions with equal keys therefore build byte-identical plans,
/// and handing one tenant a clone of another's cached [`QueryPlan`] cannot
/// change its results.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    deployment: u64,
    snapshot: u64,
    sql: String,
    config: String,
}

impl PlanKey {
    /// The key for `sql` against deployment `deployment` at readings
    /// version `snapshot` under `config`.
    pub fn new(deployment: u64, snapshot: u64, sql: &str, config: &SensJoinConfig) -> Self {
        Self::with_config_sig(deployment, snapshot, sql, Self::config_sig(config))
    }

    /// The deterministic rendering of `config` that [`PlanKey::new`]
    /// keys on. It is constant for a server's lifetime, so admission
    /// paths precompute it once instead of re-rendering per submission.
    pub fn config_sig(config: &SensJoinConfig) -> String {
        format!("{config:?}")
    }

    /// [`PlanKey::new`] with the config rendering precomputed (see
    /// [`PlanKey::config_sig`]).
    pub fn with_config_sig(deployment: u64, snapshot: u64, sql: &str, config_sig: String) -> Self {
        let canonical = sql.split_ascii_whitespace().collect::<Vec<_>>().join(" ");
        Self {
            deployment,
            snapshot,
            sql: canonical,
            config: config_sig,
        }
    }

    /// Decomposes the key for checkpointing: `(deployment, snapshot,
    /// canonical sql)`. The config component is not exposed — a restoring
    /// server recomputes it from its own config, which must equal the one
    /// the key was built under.
    pub fn parts(&self) -> (u64, u64, &str) {
        (self.deployment, self.snapshot, &self.sql)
    }
}

/// A multi-query scheduler over one network: registered queries share each
/// epoch's Join-Attribute-Collection and ride merged per-link filter and
/// final-result messages, while the base station maintains one persistent
/// [`FilterEngine`] per query.
///
/// # Example
///
/// ```
/// use sensjoin_core::{QueryGroup, SensorNetworkBuilder, SensJoinConfig};
/// use sensjoin_field::{Area, Placement};
/// use sensjoin_query::parse;
///
/// let mut snet = SensorNetworkBuilder::new()
///     .area(Area::new(300.0, 300.0))
///     .placement(Placement::UniformRandom { n: 80 })
///     .seed(9)
///     .build()
///     .unwrap();
/// let mut group = QueryGroup::new(SensJoinConfig::default());
/// let sql = |c: f64| {
///     format!(
///         "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
///          WHERE A.temp - B.temp > {c} SAMPLE PERIOD 30"
///     )
/// };
/// let q1 = snet.compile(&parse(&sql(1.0)).unwrap()).unwrap();
/// let q2 = snet.compile(&parse(&sql(2.0)).unwrap()).unwrap();
/// let a = group.register(&snet, q1, 1);
/// let _b = group.register(&snet, q2, 2); // staggered: every other epoch
/// let report = group.execute_epoch(&mut snet).unwrap();
/// assert_eq!(report.outcomes.len(), 2); // both due at their first epoch
/// let report = group.execute_epoch(&mut snet).unwrap();
/// assert_eq!(report.outcomes.len(), 1); // only the every-epoch query
/// assert_eq!(report.outcomes[0].id, a);
/// ```
pub struct QueryGroup {
    config: SensJoinConfig,
    queries: Vec<Registered>,
    epoch: u64,
    /// Previous epoch's latency — the simulated time that elapsed since the
    /// last churn boundary (epochs are the group's churn boundaries).
    last_latency_us: Time,
}

impl QueryGroup {
    /// An empty group with the given protocol parameters.
    pub fn new(config: SensJoinConfig) -> Self {
        Self {
            config,
            queries: Vec::new(),
            epoch: 0,
            last_latency_us: 0,
        }
    }

    /// Registers a query: builds its quantization space over `snet` and a
    /// cold [`FilterEngine`]. The query is first due at the *next* epoch
    /// and every `every` epochs after (`every` is clamped to ≥ 1).
    ///
    /// The quantization space is fixed at registration time — the
    /// persistent engine's delta maintenance requires it — so as readings
    /// drift, cell boundaries stay where they were when the query was
    /// installed. That is safe (boundary cells are unbounded, so clamped
    /// values only widen the conservative pre-join) and results stay exact,
    /// but wire sizes can differ from a one-shot [`crate::SensJoin`] run,
    /// which re-derives its space from the current snapshot.
    ///
    /// Registration is a pure base-station operation: no network traffic,
    /// and other queries' collection state (their engines and populations)
    /// is untouched — the shared collection simply starts including the new
    /// query's attribute projection from its next due epoch on.
    pub fn register(&mut self, snet: &SensorNetwork, query: CompiledQuery, every: u64) -> QueryId {
        let plan = QueryPlan::build(&query, snet, &self.config);
        self.push_plan(query, plan, every)
    }

    /// Fallible [`QueryGroup::register`]: rejects with [`GroupFull`] once
    /// the group holds [`MAX_GROUP_QUERIES`] live queries, instead of
    /// letting the epoch's membership-mask assertion fire later. This is
    /// the admission hook serving layers use.
    pub fn try_register(
        &mut self,
        snet: &SensorNetwork,
        query: CompiledQuery,
        every: u64,
    ) -> Result<QueryId, GroupFull> {
        if self.len() >= MAX_GROUP_QUERIES {
            return Err(GroupFull);
        }
        let plan = QueryPlan::build(&query, snet, &self.config);
        Ok(self.push_plan(query, plan, every))
    }

    /// Registers with a pre-built — possibly cached and cloned —
    /// [`QueryPlan`] instead of deriving one from the network: the
    /// admission fast path that lets N tenants asking the same template
    /// pay the attribute-bounds scan once. The caller owes key discipline
    /// ([`PlanKey`]): the plan must have been built for this query text,
    /// this group's config, and the snapshot the registration targets.
    ///
    /// ```
    /// use sensjoin_core::{PlanKey, QueryGroup, QueryPlan};
    /// use sensjoin_core::{SensJoinConfig, SensorNetworkBuilder};
    /// use sensjoin_field::{Area, Placement};
    /// use sensjoin_query::parse;
    /// use std::collections::HashMap;
    ///
    /// let snet = SensorNetworkBuilder::new()
    ///     .area(Area::new(200.0, 200.0))
    ///     .placement(Placement::UniformRandom { n: 40 })
    ///     .seed(3)
    ///     .build()
    ///     .unwrap();
    /// let config = SensJoinConfig::default();
    /// let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
    ///            WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
    ///
    /// // Two tenants, same template: one plan build, one cache hit.
    /// let mut cache: HashMap<PlanKey, QueryPlan> = HashMap::new();
    /// let mut group = QueryGroup::new(config.clone());
    /// for _tenant in 0..2 {
    ///     let key = PlanKey::new(0, 0, sql, &config);
    ///     let plan = cache
    ///         .entry(key)
    ///         .or_insert_with(|| {
    ///             let cq = snet.compile(&parse(sql).unwrap()).unwrap();
    ///             QueryPlan::build(&cq, &snet, &config)
    ///         })
    ///         .clone();
    ///     let cq = snet.compile(&parse(sql).unwrap()).unwrap();
    ///     group.try_register_plan(cq, plan, 1).unwrap();
    /// }
    /// assert_eq!(group.len(), 2);
    /// ```
    pub fn try_register_plan(
        &mut self,
        query: CompiledQuery,
        plan: QueryPlan,
        every: u64,
    ) -> Result<QueryId, GroupFull> {
        if self.len() >= MAX_GROUP_QUERIES {
            return Err(GroupFull);
        }
        Ok(self.push_plan(query, plan, every))
    }

    fn push_plan(&mut self, query: CompiledQuery, plan: QueryPlan, every: u64) -> QueryId {
        self.queries.push(Registered {
            query,
            space: plan.space,
            engine: plan.engine,
            population: PointSet::new(),
            every: every.max(1),
            offset: self.epoch,
            alive: true,
        });
        QueryId(self.queries.len() - 1)
    }

    /// Serializes the group's full mutable state: epoch position and, per
    /// registered slot (dead ones included, to keep [`QueryId`]s stable),
    /// schedule, quantization space, filter-engine population counts and
    /// delta baseline. Compiled queries are *not* serialized — the resuming
    /// process recompiles each slot's SQL deterministically and passes them
    /// to [`QueryGroup::restore_state`] in slot order.
    pub fn encode_state(&self, w: &mut crate::persist::Writer) {
        use crate::persist;
        w.put_u64(self.epoch);
        w.put_u64(self.last_latency_us);
        w.put_usize(self.queries.len());
        for reg in &self.queries {
            w.put_u64(reg.every);
            w.put_u64(reg.offset);
            w.put_bool(reg.alive);
            persist::put_join_space(w, &reg.space);
            persist::put_cell_counts(w, reg.engine.counts());
            persist::put_point_set(w, &reg.population);
        }
    }

    /// Rebuilds a group from [`QueryGroup::encode_state`] output. `queries`
    /// must hold the recompiled query of every slot, in slot order. Each
    /// slot's filter engine is rebuilt by applying its saved counted
    /// population as one delta from empty — bit-identical to the maintained
    /// engine by the incremental filter's core guarantee.
    pub fn restore_state(
        config: SensJoinConfig,
        queries: Vec<CompiledQuery>,
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<Self, crate::persist::CodecError> {
        use crate::persist::{self, CodecError};
        let epoch = r.get_u64()?;
        let last_latency_us = r.get_u64()?;
        let nslots = r.get_count(8)?;
        if nslots != queries.len() {
            return Err(CodecError::Invariant("slot count != recompiled queries"));
        }
        let mut regs = Vec::new();
        for query in queries {
            let every = r.get_u64()?;
            let offset = r.get_u64()?;
            let alive = r.get_bool()?;
            let space = persist::get_join_space(r)?;
            let counts = persist::get_cell_counts(r)?;
            let mut engine = FilterEngine::new(&query, &space);
            engine.apply_delta(&query, &space, &counts);
            let population = persist::get_point_set(r)?;
            regs.push(Registered {
                query,
                space,
                engine,
                population,
                every: every.max(1),
                offset,
                alive,
            });
        }
        Ok(Self {
            config,
            queries: regs,
            epoch,
            last_latency_us,
        })
    }

    /// Removes a query from the group. Its engine and population are
    /// dropped; nothing else restarts — remaining queries keep their
    /// collection state and schedules. Returns whether the id was live.
    pub fn remove(&mut self, id: QueryId) -> bool {
        match self.queries.get_mut(id.0) {
            Some(r) if r.alive => {
                r.alive = false;
                r.population = PointSet::new();
                true
            }
            _ => false,
        }
    }

    /// Number of live registered queries.
    pub fn len(&self) -> usize {
        self.queries.iter().filter(|r| r.alive).count()
    }

    /// Whether no live query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next epoch index [`QueryGroup::execute_epoch`] will run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `id` is live and due at the upcoming epoch.
    pub fn due(&self, id: QueryId) -> bool {
        self.queries.get(id.0).is_some_and(|r| r.due_at(self.epoch))
    }

    /// Runs one epoch: a single shared collection up-wave for every due
    /// query, per-query filter fan-out at the base station, one merged
    /// filter down-wave, and one shared final up-wave. Returns the
    /// per-query results plus shared and solo-equivalent accounting.
    ///
    /// Queries not due this epoch are untouched (their engines keep their
    /// state for their next due epoch); with no due query the epoch is a
    /// no-op that only advances the epoch counter.
    ///
    /// On a lossy channel the epoch degrades per subtree exactly as a
    /// one-shot does (damaged collection or filter traffic costs filter
    /// savings, never a result row). Only an epoch whose *final* wave was
    /// permanently damaged (after the ARQ budget) is re-executed in place,
    /// up to [`MAX_EPOCH_ATTEMPTS`] times: the base's per-query populations
    /// and engines stay consistent (each attempt's presence delta simply
    /// moves them to what that attempt collected), so no state reset is
    /// needed. All attempts' traffic is charged to the returned stats and
    /// solo-equivalent costs.
    pub fn execute_epoch(
        &mut self,
        snet: &mut SensorNetwork,
    ) -> Result<EpochReport, ProtocolError> {
        let epoch = self.epoch;
        self.epoch += 1;
        snet.net_mut().reset_stats();
        // Epochs are the group's churn boundaries: crashes and revivals take
        // effect between epochs, never mid-epoch. No state reconciliation is
        // needed beyond the tree repair the network performs itself — each
        // due query's collection is a full per-epoch presence snapshot, so
        // `presence_delta` below sheds departed nodes' cells and re-adds
        // revived ones as ordinary population transitions.
        let mut churned = false;
        if snet.net().has_churn() {
            let out = snet.net_mut().apply_churn(self.last_latency_us);
            churned = !out.crashed.is_empty() || !out.revived.is_empty();
        }
        let due: Vec<usize> = (0..self.queries.len())
            .filter(|&i| self.queries[i].due_at(epoch))
            .collect();
        if due.is_empty() {
            return Ok(EpochReport {
                epoch,
                outcomes: Vec::new(),
                stats: snet.net().stats().clone(),
                latency_us: 0,
                latency_slotted_us: 0,
                solo_equivalent: Vec::new(),
                complete: true,
                churned,
            });
        }
        let mut report = self.epoch_once(snet, epoch, &due);
        let mut attempts = 1;
        while !report.complete && attempts < MAX_EPOCH_ATTEMPTS {
            attempts += 1;
            let prev = report;
            report = self.epoch_once(snet, epoch, &due);
            // Re-execution is sequential, and a solo execution would have
            // had to retry too: latencies and solo costs accumulate.
            report.latency_us += prev.latency_us;
            report.latency_slotted_us += prev.latency_slotted_us;
            for (a, b) in report.solo_equivalent.iter_mut().zip(&prev.solo_equivalent) {
                a.collection_bytes += b.collection_bytes;
                a.filter_bytes += b.filter_bytes;
                a.final_bytes += b.final_bytes;
            }
        }
        report.stats = snet.net().stats().clone();
        report.churned = churned;
        self.last_latency_us = report.latency_us;
        Ok(report)
    }

    /// One attempt of an epoch over the due slots: the full-wire epoch of
    /// [`crate::epoch`], with each slot's filter step fed into its
    /// persistent engine and no mid-epoch churn poll.
    fn epoch_once(&mut self, snet: &mut SensorNetwork, epoch: u64, due: &[usize]) -> EpochReport {
        // Split each due registration into what the epoch reads (the slot)
        // and what the base-station filter step maintains.
        let mut slots = Vec::with_capacity(due.len());
        let mut engines = Vec::with_capacity(due.len());
        for (qi, reg) in self.queries.iter_mut().enumerate() {
            if due.contains(&qi) {
                let query = &reg.query;
                let space = &reg.space;
                slots.push(Slot {
                    query,
                    space,
                    data: collect_node_data(snet, query, space),
                });
                engines.push((&mut reg.engine, &mut reg.population));
            }
        }
        // Each due query's collected set is exactly its solo population;
        // feed the presence transition into its persistent engine. The
        // resulting filter is bit-identical to a fresh `prejoin_filter`.
        let base_filter = |s: usize, collected: &PointSet| {
            let (engine, population) = &mut engines[s];
            let delta = presence_delta(population, collected);
            **population = collected.clone();
            engine
                .apply_delta(slots[s].query, slots[s].space, &delta)
                .clone()
        };
        let run = run_epoch(snet, &self.config, &slots, base_filter, false);
        let mut solo_equivalent = run.solo;
        let mut outcomes = Vec::with_capacity(due.len());
        for ((&qi, join), cost) in due.iter().zip(run.joins).zip(&mut solo_equivalent) {
            cost.id = QueryId(qi);
            outcomes.push(GroupOutcome {
                id: QueryId(qi),
                result: join.result,
                contributors: join.contributors,
            });
        }
        EpochReport {
            epoch,
            outcomes,
            // Cumulative since `execute_epoch` reset them; it replaces this
            // with the final (all-attempt) numbers, and stamps `churned`.
            stats: snet.net().stats().clone(),
            latency_us: run.timing.pipelined,
            latency_slotted_us: run.timing.slotted,
            solo_equivalent,
            complete: run.complete,
            churned: false,
        }
    }
}

/// The counted delta turning the presence set `old` into `new`: +1 for each
/// appearing `(cell, role)` bit, −1 for each disappearing one. Feeding it
/// to a [`FilterEngine`] whose population is `old` moves it to `new`.
fn presence_delta(old: &PointSet, new: &PointSet) -> CellCounts {
    let mut delta = CellCounts::new();
    for p in new.iter() {
        let old_f = old.flags_of(p.z).map_or(0, |f| f.0);
        if old_f != p.flags.0 {
            let e = delta.entry(p.z).or_insert([0; 8]);
            for (b, c) in e.iter_mut().enumerate() {
                *c += i64::from(p.flags.0 >> b & 1) - i64::from(old_f >> b & 1);
            }
        }
    }
    for p in old.iter() {
        if new.flags_of(p.z).is_none() {
            let e = delta.entry(p.z).or_insert([0; 8]);
            for (b, c) in e.iter_mut().enumerate() {
                *c -= i64::from(p.flags.0 >> b & 1);
            }
        }
    }
    delta
}

/// Events a [`GroupRunner`] processes on its discrete-event timeline.
enum GroupEvent {
    /// Run the next epoch.
    Epoch,
    /// Register a query (compiled against the runner's network) with the
    /// given `every` period, just before the epoch at the same timestamp.
    Add(Box<CompiledQuery>, u64),
    /// Remove a query just before the epoch at the same timestamp.
    Remove(QueryId),
}

/// Drives a [`QueryGroup`] over simulated time with the discrete-event
/// [`Scheduler`]: epochs fire every `period_us`, the network resamples
/// before each epoch (`SAMPLE PERIOD` semantics), and query add/remove
/// events can be scheduled mid-run — they take effect at the epoch sharing
/// their timestamp.
///
/// Staggered `EVERY` intervals fall out of the epoch grid: a query
/// registered with `every = j` shares collection waves only on epochs where
/// it coincides with other due queries.
pub struct GroupRunner {
    group: QueryGroup,
    period_us: Time,
    sched: Scheduler<GroupEvent>,
}

impl GroupRunner {
    /// A runner firing one epoch every `period_us` microseconds.
    pub fn new(config: SensJoinConfig, period_us: Time) -> Self {
        Self {
            group: QueryGroup::new(config),
            period_us: period_us.max(1),
            sched: Scheduler::new(),
        }
    }

    /// The underlying group (e.g. to register initial queries).
    pub fn group_mut(&mut self) -> &mut QueryGroup {
        &mut self.group
    }

    /// Immutable access to the underlying group.
    pub fn group(&self) -> &QueryGroup {
        &self.group
    }

    /// Schedules `query` to join the group at epoch `at_epoch` with period
    /// `every`.
    pub fn add_at(&mut self, at_epoch: u64, query: CompiledQuery, every: u64) {
        self.sched.schedule(
            at_epoch * self.period_us,
            GroupEvent::Add(Box::new(query), every),
        );
    }

    /// Schedules `id`'s removal at epoch `at_epoch`.
    pub fn remove_at(&mut self, at_epoch: u64, id: QueryId) {
        self.sched
            .schedule(at_epoch * self.period_us, GroupEvent::Remove(id));
    }

    /// Runs `epochs` epochs, resampling the network's fields before each
    /// one (with `seed + epoch` so rounds drift deterministically), and
    /// returns each epoch's timestamped report. Scheduled add/remove events
    /// apply before the epoch at their timestamp; an add that finds the
    /// group at [`MAX_GROUP_QUERIES`] fails the run with
    /// [`ProtocolError::GroupFull`].
    pub fn run(
        &mut self,
        snet: &mut SensorNetwork,
        epochs: u64,
        specs: &[FieldSpec],
        seed: u64,
    ) -> Result<Vec<(Time, EpochReport)>, ProtocolError> {
        let first = self.group.epoch();
        for e in first..first + epochs {
            self.sched.schedule(e * self.period_us, GroupEvent::Epoch);
        }
        let mut reports = Vec::with_capacity(epochs as usize);
        while let Some((t, event)) = self.sched.pop() {
            if !matches!(event, GroupEvent::Epoch) {
                self.control(snet, event)?;
                continue;
            }
            // Control events due at this very instant apply before the
            // epoch, whatever order they were scheduled in.
            while let Some((tn, GroupEvent::Add(..) | GroupEvent::Remove(..))) = self.sched.peek() {
                if tn != t {
                    break;
                }
                let (_, event) = self.sched.pop().expect("peeked");
                self.control(snet, event)?;
            }
            if !specs.is_empty() {
                snet.resample(specs, seed.wrapping_add(self.group.epoch()));
            }
            reports.push((t, self.group.execute_epoch(snet)?));
        }
        Ok(reports)
    }

    /// Applies one add/remove event. An add into a full group is the
    /// caller's scheduling error and ends the run.
    fn control(&mut self, snet: &SensorNetwork, event: GroupEvent) -> Result<(), GroupFull> {
        match event {
            GroupEvent::Add(query, every) => {
                self.group.try_register(snet, *query, every)?;
            }
            GroupEvent::Remove(id) => {
                self.group.remove(id);
            }
            GroupEvent::Epoch => unreachable!("epochs are run, not applied"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensjoin::SensJoin;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::JoinMethod;
    use sensjoin_field::{presets, Area, Placement};
    use sensjoin_query::parse;

    fn snet(n: usize, seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(400.0, 400.0))
            .placement(Placement::UniformRandom { n })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn compiled(s: &SensorNetwork, sql: &str) -> CompiledQuery {
        s.compile(&parse(sql).unwrap()).unwrap()
    }

    fn assert_matches_solo(
        report: &EpochReport,
        snet: &mut SensorNetwork,
        queries: &[&CompiledQuery],
    ) {
        assert_eq!(report.outcomes.len(), queries.len());
        for (out, q) in report.outcomes.iter().zip(queries) {
            let solo = SensJoin::default().execute(snet, q).unwrap();
            assert!(
                solo.result.same_result(&out.result),
                "query {:?}: solo {} rows vs group {} rows",
                out.id,
                solo.result.len(),
                out.result.len()
            );
            assert_eq!(solo.contributors, out.contributors, "query {:?}", out.id);
        }
    }

    #[test]
    fn group_results_bit_identical_to_solo() {
        for seed in [1, 2, 5] {
            let mut s = snet(110, seed);
            let q1 = compiled(
                &s,
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > 1.5 SAMPLE PERIOD 30",
            );
            let q2 = compiled(
                &s,
                "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < 0.05 SAMPLE PERIOD 30",
            );
            let q3 = compiled(
                &s,
                "SELECT A.temp FROM Sensors A, Sensors B \
                 WHERE A.hum - B.hum > 8 AND A.temp - B.temp > 1 SAMPLE PERIOD 30",
            );
            let mut group = QueryGroup::new(SensJoinConfig::default());
            for q in [&q1, &q2, &q3] {
                group.register(&s, q.clone(), 1);
            }
            let report = group.execute_epoch(&mut s).unwrap();
            assert_matches_solo(&report, &mut s, &[&q1, &q2, &q3]);
        }
    }

    #[test]
    fn shared_collection_cheaper_than_sum_of_solos() {
        let mut s = snet(150, 3);
        let sqls: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE A.temp - B.temp > {} SAMPLE PERIOD 30",
                    1.0 + 0.2 * i as f64
                )
            })
            .collect();
        let queries: Vec<CompiledQuery> = sqls.iter().map(|q| compiled(&s, q)).collect();
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for q in &queries {
            group.register(&s, q.clone(), 1);
        }
        let report = group.execute_epoch(&mut s).unwrap();
        let shared = report.shared_collection_bytes();
        let solo_sum: u64 = queries
            .iter()
            .map(|q| {
                SensJoin::default()
                    .execute(&mut s, q)
                    .unwrap()
                    .stats
                    .phase(crate::sensjoin::PHASE_COLLECTION)
                    .tx_bytes
            })
            .sum();
        assert!(
            shared < solo_sum,
            "shared collection {shared} !< solo sum {solo_sum}"
        );
        // The per-epoch report's own accounting agrees: the solo-equivalent
        // collection bytes of the 4 queries also exceed the shared cost.
        let solo_equiv: u64 = report
            .solo_equivalent
            .iter()
            .map(|c| c.collection_bytes)
            .sum();
        assert!(shared < solo_equiv, "shared {shared} !< equiv {solo_equiv}");
    }

    #[test]
    fn single_query_group_costs_exactly_solo() {
        let mut s = snet(120, 7);
        let q = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.2 SAMPLE PERIOD 30",
        );
        let mut group = QueryGroup::new(SensJoinConfig::default());
        group.register(&s, q.clone(), 1);
        let report = group.execute_epoch(&mut s).unwrap();
        let solo = SensJoin::default().execute(&mut s, &q).unwrap();
        use crate::sensjoin::{PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL};
        assert_eq!(
            report.shared_collection_bytes(),
            solo.stats.phase(PHASE_COLLECTION).tx_bytes
        );
        assert_eq!(
            report.shared_filter_bytes(),
            solo.stats.phase(PHASE_FILTER).tx_bytes
        );
        assert_eq!(
            report.shared_final_bytes(),
            solo.stats.phase(PHASE_FINAL).tx_bytes
        );
        assert!(solo.result.same_result(&report.outcomes[0].result));
    }

    #[test]
    fn staggered_intervals_share_only_coinciding_epochs() {
        let mut s = snet(90, 11);
        let q1 = compiled(
            &s,
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2 SAMPLE PERIOD 10",
        );
        let q2 = compiled(
            &s,
            "SELECT B.hum FROM Sensors A, Sensors B \
             WHERE A.hum - B.hum > 10 SAMPLE PERIOD 20",
        );
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let a = group.register(&s, q1.clone(), 1);
        let b = group.register(&s, q2.clone(), 2);
        // Epoch 0: both due. Epoch 1: only q1. Epoch 2: both again.
        for (epoch, expect) in [(0u64, vec![a, b]), (1, vec![a]), (2, vec![a, b])] {
            assert_eq!(group.epoch(), epoch);
            let report = group.execute_epoch(&mut s).unwrap();
            let ids: Vec<QueryId> = report.outcomes.iter().map(|o| o.id).collect();
            assert_eq!(ids, expect, "epoch {epoch}");
            let due: Vec<&CompiledQuery> = expect
                .iter()
                .map(|id| if *id == a { &q1 } else { &q2 })
                .collect();
            assert_matches_solo(&report, &mut s, &due);
        }
    }

    #[test]
    fn removal_and_late_registration_between_epochs() {
        let mut s = snet(100, 13);
        let q1 = compiled(
            &s,
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.5 SAMPLE PERIOD 10",
        );
        let q2 = compiled(
            &s,
            "SELECT A.pres FROM Sensors A, Sensors B \
             WHERE |A.hum - B.hum| < 0.5 SAMPLE PERIOD 10",
        );
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let a = group.register(&s, q1.clone(), 1);
        let r0 = group.execute_epoch(&mut s).unwrap();
        assert_matches_solo(&r0, &mut s, &[&q1]);
        // Add q2 mid-run (readings drift), remove q1: only q2 runs, and the
        // persistent engines survive both changes.
        let b = group.register(&s, q2.clone(), 1);
        assert!(group.remove(a));
        assert!(!group.remove(a), "double removal reports dead id");
        s.resample(&presets::indoor_climate(), 99);
        let r1 = group.execute_epoch(&mut s).unwrap();
        assert_eq!(r1.outcomes.len(), 1);
        assert_eq!(r1.outcomes[0].id, b);
        assert_matches_solo(&r1, &mut s, &[&q2]);
        // Drift again and keep running q2: the engine's delta path stays
        // bit-identical to solo across epochs.
        s.resample(&presets::indoor_climate(), 100);
        let r2 = group.execute_epoch(&mut s).unwrap();
        assert_matches_solo(&r2, &mut s, &[&q2]);
    }

    #[test]
    fn runner_drives_epochs_with_scheduled_changes() {
        let mut s = snet(80, 17);
        let q1 = compiled(
            &s,
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2 SAMPLE PERIOD 10",
        );
        let q2 = compiled(
            &s,
            "SELECT B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 3 SAMPLE PERIOD 10",
        );
        let mut runner = GroupRunner::new(SensJoinConfig::default(), 10_000_000);
        let a = runner.group_mut().register(&s, q1, 1);
        runner.add_at(2, q2, 1);
        runner.remove_at(3, a);
        let reports = runner
            .run(&mut s, 4, &presets::indoor_climate(), 7)
            .unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].1.outcomes.len(), 1);
        assert_eq!(reports[1].1.outcomes.len(), 1);
        assert_eq!(reports[2].1.outcomes.len(), 2, "q2 joins at epoch 2");
        assert_eq!(reports[3].1.outcomes.len(), 1, "q1 leaves at epoch 3");
        assert_ne!(reports[3].1.outcomes[0].id, a);
        for (i, (t, r)) in reports.iter().enumerate() {
            assert_eq!(*t, i as Time * 10_000_000);
            assert_eq!(r.epoch, i as u64);
        }
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let mut s = snet(60, 19);
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let report = group.execute_epoch(&mut s).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.total_tx_packets(), 0);
        assert_eq!(group.epoch(), 1);
    }
}
