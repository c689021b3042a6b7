//! Multi-query scheduling: N concurrent queries over one network, sharing a
//! single Join-Attribute-Collection wave per epoch.
//!
//! The SENS-Join cost argument (paper §IV) is per-query; a base station
//! serving many standing queries would pay the expensive collection phase
//! once *per query* per sample period. [`QueryGroup`] amortizes it: every
//! registered query's join-attribute projection is collected in **one**
//! shared up-wave (per-link payloads are merged where queries' quantization
//! spaces coincide), the base station computes each query's pre-join filter
//! from its share of the collected cells, and filter dissemination and the
//! final up-wave likewise travel as one merged message per link.
//!
//! **Plans and subscribers.** What a *query* owns — its compiled form and
//! its quantization space — is kept once per distinct [`CompiledQuery`] (a
//! *plan*); what a *tenant* owns — a [`QueryId`] and a schedule — is a
//! *subscriber* of that plan. Tenants that register equal queries ride one
//! slot on the wire, one pre-join filter, one exact join and one `Arc`'d
//! result — its rows in one flat buffer ([`GroupResult`]); an epoch's k is
//! the number of distinct queries due, not the number of tenants.
//!
//! Guarantees (enforced by the in-module tests and `tests/multi_query.rs`):
//!
//! * **Per-query bit-identity** — every due query's result (and contributor
//!   set) equals a solo [`SensJoin`](crate::SensJoin) execution over the
//!   same snapshot. Collection keeps per-query cell sets exact (the merge
//!   saves wire bytes, not information), and filter pruning applies each
//!   query's own subtree sets, so no query observes another's registration.
//!   A subscriber that joins a live plan adopts that plan's quantization
//!   space; exactness never depended on the space (boundary cells are
//!   unbounded), only wire sizes do.
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
//! quantization space fixed at registration, and the epoch retry loop.

use crate::config::SensJoinConfig;
use crate::engine::{exact_join_flat, JoinSpace};
use crate::epoch::{run_epoch, Slot};
use crate::outcome::{GroupResult, ProtocolError};
use crate::persist::Persist;
use crate::sensjoin::{PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL};
use crate::snetwork::SensorNetwork;
use sensjoin_field::FieldSpec;
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{NetworkStats, Scheduler, Time};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Stable handle of a query registered with a [`QueryGroup`]; remains valid
/// across epochs and across other queries' removal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub usize);

/// What a distinct query owns, kept once however many subscribers
/// registered an equal query.
struct Plan {
    query: CompiledQuery,
    space: JoinSpace,
}

/// What a tenant owns: the plan it rides and its own schedule. A removed
/// subscriber stays behind as a tombstone so later [`QueryId`]s keep their
/// meaning; its plan is freed with the plan's last live subscriber.
struct Subscriber {
    /// Index into the group's plan table (stale once `alive` is false).
    plan: usize,
    /// Runs every `every` epochs (1 = every epoch).
    every: u64,
    /// Epoch of registration; the subscriber is due at `offset`, `offset +
    /// every`, ...
    offset: u64,
    alive: bool,
}

crate::persist_struct!(Subscriber {
    plan: usize,
    every: u64,
    offset: u64,
    alive: bool,
});

impl Subscriber {
    /// Whether the subscriber is live and `epoch` is on its schedule.
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
    /// `SensJoin` execution over the same snapshot
    /// ([`GroupResult::same_result`]). Subscribers of one plan share the one
    /// result their plan's join produced.
    pub result: Arc<GroupResult>,
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
    /// Distinct plans the epoch ran — its k on the wire and at the base
    /// station. `outcomes.len() / plans` is the epoch's sharing ratio.
    pub plans: usize,
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

/// Hard upper bound on concurrently *live* subscribers (tenants) per
/// [`QueryGroup`]: per-query membership in merged wire messages is tracked
/// with 64-bit masks (one bit per due plan), and in the worst case every
/// subscriber registered a different query. Subscribers of one plan share
/// a bit, but the cap counts them all the same, so admission never depends
/// on what the other tenants asked.
/// Admission layers must reject — or open another group — beyond this.
pub const MAX_GROUP_QUERIES: usize = 64;

/// Admission failure: the group already holds [`MAX_GROUP_QUERIES`] live
/// queries. Returned by [`QueryGroup::try_register`]; a serving layer maps
/// it to a structured rejection or bin-packs the query into another group.
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

/// A multi-query scheduler over one network: registered queries share each
/// epoch's Join-Attribute-Collection and ride merged per-link filter and
/// final-result messages, and the base station runs one pre-join filter and
/// one exact join per distinct query (equal registrations subscribe to one
/// plan and share its slot, filter, join and result).
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
    /// One entry per distinct live query; a slot freed with its last
    /// subscriber is reused by the next new query.
    plans: Vec<Option<Plan>>,
    /// One entry per registration ever made, indexed by [`QueryId`].
    subscribers: Vec<Subscriber>,
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
            plans: Vec::new(),
            subscribers: Vec::new(),
            epoch: 0,
            last_latency_us: 0,
        }
    }

    /// Registers a query: subscribes to the live plan of an equal query
    /// when the group has one, else builds a quantization space over `snet`.
    /// The query is first due at the *next* epoch and every `every` epochs
    /// after (`every` is clamped to ≥ 1).
    ///
    /// The quantization space is fixed at registration time. No base-station
    /// state depends on it from one epoch to the next, but the space is what
    /// the wire is laid out in: subscribers share a plan's slot only
    /// while they share its space, slots whose spaces coincide merge into
    /// one encoding per link, and a restored group must charge byte for
    /// byte what the uninterrupted one does. So as readings drift, cell
    /// boundaries stay where they were when the query was installed. That
    /// is safe (boundary cells are unbounded, so clamped values only widen
    /// the conservative pre-join) and results stay exact, but wire sizes can
    /// differ from a one-shot [`crate::SensJoin`] run, which re-derives its
    /// space from the current snapshot. For the same reason a late
    /// subscriber may adopt the space of a plan built on an earlier
    /// snapshot.
    ///
    /// Registration is a pure base-station operation: no network traffic,
    /// and other queries are untouched — the shared collection simply starts
    /// including the new query's attribute projection from its next due
    /// epoch on.
    pub fn register(&mut self, snet: &SensorNetwork, query: CompiledQuery, every: u64) -> QueryId {
        let live = self
            .plans
            .iter()
            .position(|p| p.as_ref().is_some_and(|p| p.query == query));
        let plan = live.unwrap_or_else(|| {
            let space = JoinSpace::build(&query, snet, &self.config);
            let plan = Some(Plan { query, space });
            match self.plans.iter().position(Option::is_none) {
                Some(free) => {
                    self.plans[free] = plan;
                    free
                }
                None => {
                    self.plans.push(plan);
                    self.plans.len() - 1
                }
            }
        });
        self.subscribers.push(Subscriber {
            plan,
            every: every.max(1),
            offset: self.epoch,
            alive: true,
        });
        QueryId(self.subscribers.len() - 1)
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
        Ok(self.register(snet, query, every))
    }

    /// Serializes the group's full mutable state: epoch position, the plan
    /// table (per slot, free ones included: the quantization space) and the
    /// subscriber table (dead ones included, to keep [`QueryId`]s stable:
    /// plan slot and schedule). Compiled queries are *not* serialized — the
    /// resuming process recompiles each live plan's SQL deterministically
    /// and passes them to [`QueryGroup::restore_state`] in plan-slot order.
    pub fn encode_state(&self, w: &mut crate::persist::Writer) {
        w.put_u64(self.epoch);
        w.put_u64(self.last_latency_us);
        let spaces: Vec<Option<_>> = (self.plans.iter())
            .map(|p| p.as_ref().map(|p| p.space.to_parts()))
            .collect();
        spaces.put(w);
        self.subscribers.put(w);
    }

    /// Rebuilds a group from [`QueryGroup::encode_state`] output. `queries`
    /// must hold the recompiled query of every plan slot, in slot order
    /// (`None` for a free slot).
    pub fn restore_state(
        config: SensJoinConfig,
        queries: Vec<Option<CompiledQuery>>,
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<Self, crate::persist::CodecError> {
        use crate::persist::{self, CodecError};
        let epoch = r.get_u64()?;
        let last_latency_us = r.get_u64()?;
        let spaces: Vec<Option<Vec<_>>> = Persist::get(r)?;
        if spaces.len() != queries.len() {
            return Err(CodecError::Invariant("plan count != recompiled queries"));
        }
        let mut plans = Vec::new();
        for (dims, query) in spaces.into_iter().zip(queries) {
            plans.push(match (dims, query) {
                (None, None) => None,
                (Some(dims), Some(query)) => {
                    let space = persist::join_space_from_parts(&query, dims)?;
                    Some(Plan { query, space })
                }
                _ => return Err(CodecError::Invariant("plan slot liveness != its query's")),
            });
        }
        let mut subscribers: Vec<Subscriber> = Persist::get(r)?;
        let mut subscribed = vec![false; plans.len()];
        for sub in &mut subscribers {
            sub.every = sub.every.max(1);
            if sub.alive {
                if !plans.get(sub.plan).is_some_and(Option::is_some) {
                    return Err(CodecError::Invariant("live subscriber of no live plan"));
                }
                subscribed[sub.plan] = true;
            }
        }
        if plans
            .iter()
            .zip(&subscribed)
            .any(|(p, &s)| p.is_some() && !s)
        {
            return Err(CodecError::Invariant("live plan without a subscriber"));
        }
        let group = Self {
            config,
            plans,
            subscribers,
            epoch,
            last_latency_us,
        };
        if group.len() > MAX_GROUP_QUERIES {
            return Err(CodecError::Invariant(
                "more live subscribers than a group holds",
            ));
        }
        Ok(group)
    }

    /// Removes a query from the group. Its schedule ends; its plan is
    /// dropped when no other live subscriber shares it. Nothing else
    /// restarts — remaining queries keep their spaces and schedules.
    /// Returns whether the id was live.
    pub fn remove(&mut self, id: QueryId) -> bool {
        let Some(sub) = self.subscribers.get_mut(id.0).filter(|s| s.alive) else {
            return false;
        };
        sub.alive = false;
        let plan = sub.plan;
        if self.subscribers_of(plan) == 0 {
            self.plans[plan] = None;
        }
        true
    }

    /// Number of live registered queries (subscribers, not plans).
    pub fn len(&self) -> usize {
        self.subscribers.iter().filter(|s| s.alive).count()
    }

    /// Number of [`QueryId`]s the group has issued, live or removed: ids are
    /// `0..ids_issued()` and are never reused.
    pub fn ids_issued(&self) -> usize {
        self.subscribers.len()
    }

    /// Number of live plans: the distinct queries among the live
    /// subscribers.
    pub fn plans(&self) -> usize {
        self.plans.iter().flatten().count()
    }

    /// The plan-table slot `id` subscribes to, if `id` is live. A slot is
    /// stable while any subscriber holds it and is reused after.
    pub fn plan_of(&self, id: QueryId) -> Option<usize> {
        let sub = self.subscribers.get(id.0).filter(|s| s.alive);
        sub.map(|s| s.plan)
    }

    /// Number of live subscribers of plan-table slot `plan` (0 for a free
    /// slot).
    pub fn subscribers_of(&self, plan: usize) -> usize {
        self.subscribers
            .iter()
            .filter(|s| s.alive && s.plan == plan)
            .count()
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
        self.subscribers
            .get(id.0)
            .is_some_and(|s| s.due_at(self.epoch))
    }

    /// Runs one epoch: a single shared collection up-wave for every due
    /// query, per-query filter fan-out at the base station, one merged
    /// filter down-wave, and one shared final up-wave. Returns the
    /// per-query results plus shared and solo-equivalent accounting.
    ///
    /// Queries not due this epoch are untouched; with no due query the
    /// epoch is a no-op that only advances the epoch counter.
    ///
    /// On a lossy channel the epoch degrades per subtree exactly as a
    /// one-shot does (damaged collection or filter traffic costs filter
    /// savings, never a result row). Only an epoch whose *final* wave was
    /// permanently damaged (after the ARQ budget) is re-executed in place,
    /// up to [`MAX_EPOCH_ATTEMPTS`] times: an attempt leaves nothing behind
    /// at the base station, so no state reset is needed. All attempts'
    /// traffic is charged to the returned stats and solo-equivalent costs.
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
        // departed nodes' cells are simply absent from it and revived ones
        // present again.
        let mut churned = false;
        if snet.net().has_churn() {
            let out = snet.net_mut().apply_churn(self.last_latency_us);
            churned = !out.crashed.is_empty() || !out.revived.is_empty();
        }
        let due: Vec<usize> = (0..self.subscribers.len())
            .filter(|&i| self.subscribers[i].due_at(epoch))
            .collect();
        if due.is_empty() {
            return Ok(EpochReport {
                epoch,
                outcomes: Vec::new(),
                stats: snet.net().stats().clone(),
                latency_us: 0,
                latency_slotted_us: 0,
                solo_equivalent: Vec::new(),
                plans: 0,
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

    /// One attempt of an epoch for the due subscribers: the full-wire epoch
    /// of [`crate::epoch`] over their distinct plans, with no mid-epoch
    /// churn poll. Every due subscriber receives its plan's one result.
    fn epoch_once(&self, snet: &mut SensorNetwork, epoch: u64, due: &[usize]) -> EpochReport {
        // A plan is due when any subscriber is, and takes the epoch slot of
        // its first due subscriber — so pairwise-distinct queries lay out
        // in `QueryId` order.
        let mut slot_of = vec![usize::MAX; self.plans.len()];
        let mut slots = Vec::new();
        for &si in due {
            let plan = self.subscribers[si].plan;
            if slot_of[plan] == usize::MAX {
                slot_of[plan] = slots.len();
                let Plan { query, space } = self.plans[plan]
                    .as_ref()
                    .expect("a live subscriber's plan is live");
                slots.push(Slot { query, space });
            }
        }
        let run = run_epoch(snet, &self.config, &slots, false, exact_join_flat);
        let joins: Vec<_> = run
            .joins
            .into_iter()
            .map(|join| (Arc::new(join.result), join.contributors))
            .collect();
        let mut outcomes = Vec::with_capacity(due.len());
        let mut solo_equivalent = Vec::with_capacity(due.len());
        for &si in due {
            let id = QueryId(si);
            let slot = slot_of[self.subscribers[si].plan];
            let (result, contributors) = &joins[slot];
            outcomes.push(GroupOutcome {
                id,
                result: Arc::clone(result),
                contributors: contributors.clone(),
            });
            solo_equivalent.push(SoloCost {
                id,
                ..run.solo[slot]
            });
        }
        EpochReport {
            epoch,
            outcomes,
            // `execute_epoch` copies the network's (all-attempt) numbers
            // once the last attempt is done, and stamps `churned`.
            stats: NetworkStats::default(),
            latency_us: run.timing.pipelined,
            latency_slotted_us: run.timing.slotted,
            solo_equivalent,
            plans: slots.len(),
            complete: run.complete,
            churned: false,
        }
    }
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
        // Add q2 mid-run (readings drift), remove q1: only q2 runs.
        let b = group.register(&s, q2.clone(), 1);
        assert!(group.remove(a));
        assert!(!group.remove(a), "double removal reports dead id");
        s.resample(&presets::indoor_climate(), 99);
        let r1 = group.execute_epoch(&mut s).unwrap();
        assert_eq!(r1.outcomes.len(), 1);
        assert_eq!(r1.outcomes[0].id, b);
        assert_matches_solo(&r1, &mut s, &[&q2]);
        // Drift again and keep running q2: its space stays the one of its
        // registration, its results stay solo's.
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

    const Q1: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                      WHERE A.temp - B.temp > 1.2 SAMPLE PERIOD 30";
    const Q2: &str = "SELECT A.pres FROM Sensors A, Sensors B \
                      WHERE |A.hum - B.hum| < 0.5 SAMPLE PERIOD 30";

    /// A fresh group over `s` with `sqls` registered in order, every epoch.
    fn group_of(s: &SensorNetwork, sqls: &[&str]) -> QueryGroup {
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for sql in sqls {
            group.register(s, compiled(s, sql), 1);
        }
        group
    }

    fn costs(c: &SoloCost) -> (u64, u64, u64) {
        (c.collection_bytes, c.filter_bytes, c.final_bytes)
    }

    /// Sharing is invisible on the wire and to every tenant: duplicates of
    /// a query add nothing to the epoch's charges, receive the very result
    /// their plan computed, and are each accounted the query's solo cost.
    #[test]
    fn duplicate_queries_charge_like_distinct_ones() {
        let mut dup_net = snet(120, 7);
        let mut distinct_net = dup_net.clone();
        let mut dup = group_of(&dup_net, &[Q1, Q1, Q2, Q1]);
        let mut distinct = group_of(&distinct_net, &[Q1, Q2]);
        assert_eq!((dup.len(), dup.plans()), (4, 2));
        assert_eq!(dup.subscribers_of(0), 3);
        for round in 0..3 {
            if round > 0 {
                dup_net.resample(&presets::indoor_climate(), 40 + round);
                distinct_net.resample(&presets::indoor_climate(), 40 + round);
            }
            let a = dup.execute_epoch(&mut dup_net).unwrap();
            let b = distinct.execute_epoch(&mut distinct_net).unwrap();
            assert_eq!((a.plans, a.outcomes.len()), (2, 4));
            assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(a.latency_us, b.latency_us);
            assert_eq!(a.latency_slotted_us, b.latency_slotted_us);
            assert_eq!(a.shared_collection_bytes(), b.shared_collection_bytes());
            assert_eq!(a.shared_filter_bytes(), b.shared_filter_bytes());
            assert_eq!(a.shared_final_bytes(), b.shared_final_bytes());
            // Subscribers 0, 1, 3 ride q1's plan; 2 rides q2's.
            for (i, of) in [0, 0, 1, 0].into_iter().enumerate() {
                assert_eq!(a.outcomes[i].id, QueryId(i));
                assert_eq!(a.solo_equivalent[i].id, QueryId(i));
                assert!(a.outcomes[i].result.same_result(&b.outcomes[of].result));
                assert_eq!(a.outcomes[i].contributors, b.outcomes[of].contributors);
                assert_eq!(costs(&a.solo_equivalent[i]), costs(&b.solo_equivalent[of]));
            }
            assert!(Arc::ptr_eq(&a.outcomes[0].result, &a.outcomes[1].result));
            assert!(Arc::ptr_eq(&a.outcomes[0].result, &a.outcomes[3].result));
            assert!(!Arc::ptr_eq(&a.outcomes[0].result, &a.outcomes[2].result));
        }
        // A group of duplicates only is a one-shot on the wire, and each
        // subscriber's solo cost is exactly that one-shot's.
        let mut s = snet(120, 7);
        let q1 = compiled(&s, Q1);
        let solo = SensJoin::default().execute(&mut s, &q1).unwrap();
        let wire = (
            solo.stats.phase(PHASE_COLLECTION).tx_bytes,
            solo.stats.phase(PHASE_FILTER).tx_bytes,
            solo.stats.phase(PHASE_FINAL).tx_bytes,
        );
        let r = group_of(&s, &[Q1, Q1, Q1]).execute_epoch(&mut s).unwrap();
        assert_eq!(
            (
                r.shared_collection_bytes(),
                r.shared_filter_bytes(),
                r.shared_final_bytes()
            ),
            wire
        );
        assert_eq!(r.latency_us, solo.latency_us);
        for cost in &r.solo_equivalent {
            assert_eq!(costs(cost), wire);
        }
        assert_matches_solo(&r, &mut s, &[&q1, &q1, &q1]);
    }

    /// A subscriber registered after the readings drifted adopts the live
    /// plan's quantization space instead of building its own — and stays
    /// exact on every later epoch.
    #[test]
    fn late_subscriber_adopts_the_live_plan() {
        let mut s = snet(110, 23);
        let q1 = compiled(&s, Q1);
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let a = group.register(&s, q1.clone(), 1);
        let r0 = group.execute_epoch(&mut s).unwrap();
        assert_matches_solo(&r0, &mut s, &[&q1]);
        s.resample(&presets::indoor_climate(), 501);
        let b = group.register(&s, q1.clone(), 1);
        assert_eq!(group.plan_of(b), group.plan_of(a));
        assert_eq!(group.plans(), 1);
        for round in 0..3 {
            s.resample(&presets::indoor_climate(), 600 + round);
            let r = group.execute_epoch(&mut s).unwrap();
            assert_eq!(r.plans, 1);
            assert!(Arc::ptr_eq(&r.outcomes[0].result, &r.outcomes[1].result));
            assert_matches_solo(&r, &mut s, &[&q1, &q1]);
        }
    }

    /// Subscribers of one plan keep their own schedules: the plan runs when
    /// any of them is due, and only the due ones get an outcome.
    #[test]
    fn subscribers_of_one_plan_are_due_on_their_own_schedules() {
        let mut s = snet(90, 29);
        let q1 = compiled(&s, Q1);
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let a = group.register(&s, q1.clone(), 1);
        let b = group.register(&s, q1.clone(), 3);
        for epoch in 0..7u64 {
            let expect = if epoch % 3 == 0 { vec![a, b] } else { vec![a] };
            assert_eq!(group.due(b), epoch % 3 == 0);
            let r = group.execute_epoch(&mut s).unwrap();
            let ids: Vec<QueryId> = r.outcomes.iter().map(|o| o.id).collect();
            assert_eq!(ids, expect, "epoch {epoch}");
            assert_eq!(r.plans, 1);
            assert_matches_solo(&r, &mut s, &vec![&q1; expect.len()]);
            s.resample(&presets::indoor_climate(), 700 + epoch);
        }
        // With only the sparse subscriber left, the plan idles between its
        // due epochs.
        assert!(group.remove(a));
        for epoch in 7..11u64 {
            let r = group.execute_epoch(&mut s).unwrap();
            assert_eq!(r.outcomes.len(), usize::from(epoch % 3 == 0));
            assert_eq!(r.plans, r.outcomes.len());
            assert_matches_solo(&r, &mut s, &vec![&q1; r.outcomes.len()]);
            s.resample(&presets::indoor_climate(), 700 + epoch);
        }
    }

    /// A plan outlives the subscriber that created it, goes with its last
    /// one, and its slot is reused by the next new query.
    #[test]
    fn plan_is_freed_with_its_last_subscriber() {
        let mut s = snet(100, 31);
        let (q1, q2) = (compiled(&s, Q1), compiled(&s, Q2));
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let a = group.register(&s, q1.clone(), 1);
        let b = group.register(&s, q1.clone(), 1);
        let c = group.register(&s, q2.clone(), 1);
        let r = group.execute_epoch(&mut s).unwrap();
        assert_matches_solo(&r, &mut s, &[&q1, &q1, &q2]);
        assert!(group.remove(a));
        assert_eq!(group.plan_of(a), None);
        assert_eq!((group.len(), group.plans()), (2, 2));
        s.resample(&presets::indoor_climate(), 801);
        let r = group.execute_epoch(&mut s).unwrap();
        let ids: Vec<QueryId> = r.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![b, c]);
        assert_matches_solo(&r, &mut s, &[&q1, &q2]);
        let freed = group.plan_of(b).unwrap();
        assert!(group.remove(b));
        assert_eq!((group.len(), group.plans()), (1, 1));
        assert_eq!(group.subscribers_of(freed), 0);
        // A new query takes the freed slot with a space of its own.
        let q3 = compiled(
            &s,
            "SELECT A.temp FROM Sensors A, Sensors B \
             WHERE A.hum - B.hum > 8 SAMPLE PERIOD 30",
        );
        let d = group.register(&s, q3.clone(), 1);
        assert_eq!(group.plan_of(d), Some(freed));
        s.resample(&presets::indoor_climate(), 802);
        let r = group.execute_epoch(&mut s).unwrap();
        assert_matches_solo(&r, &mut s, &[&q2, &q3]);
    }

    /// The cap counts tenants, not plans: 64 subscribers of one query fill
    /// the group.
    #[test]
    fn sixty_four_subscribers_of_one_query_fill_the_group() {
        let mut s = snet(60, 37);
        let q1 = compiled(&s, Q1);
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for _ in 0..MAX_GROUP_QUERIES {
            group.try_register(&s, q1.clone(), 1).unwrap();
        }
        assert_eq!(group.try_register(&s, q1.clone(), 1), Err(GroupFull));
        assert_eq!((group.len(), group.plans()), (MAX_GROUP_QUERIES, 1));
        let r = group.execute_epoch(&mut s).unwrap();
        assert_eq!((r.plans, r.outcomes.len()), (1, MAX_GROUP_QUERIES));
        assert!(group.remove(QueryId(5)));
        assert!(group.try_register(&s, q1.clone(), 1).is_ok());
        // An image that resurrects the tombstone holds a 65th live tenant.
        let mut w = crate::persist::Writer::new();
        group.encode_state(&mut w);
        let mut bytes = w.into_bytes();
        let alive_of_5 = bytes.len() - 25 * (MAX_GROUP_QUERIES + 1 - 5) + 24;
        bytes[alive_of_5] = 1;
        let restored = QueryGroup::restore_state(
            SensJoinConfig::default(),
            vec![Some(q1)],
            &mut crate::persist::Reader::new(&bytes),
        );
        assert_eq!(
            restored.err(),
            Some(crate::persist::CodecError::Invariant(
                "more live subscribers than a group holds"
            ))
        );
    }

    /// The plan and subscriber tables round-trip, and a subscriber table
    /// that does not fit its plan table is a structured error.
    #[test]
    fn state_roundtrip_and_table_invariants() {
        use crate::persist::{CodecError, Reader, Writer};
        let mut s = snet(80, 41);
        let (q1, q2) = (compiled(&s, Q1), compiled(&s, Q2));
        // Plan slot 0 free (its only subscriber left), slot 1 shared.
        let mut group = group_of(&s, &[Q2, Q1, Q1]);
        group.execute_epoch(&mut s).unwrap();
        assert!(group.remove(QueryId(0)));
        let encode = |g: &QueryGroup| {
            let mut w = Writer::new();
            g.encode_state(&mut w);
            w.into_bytes()
        };
        let restore = |bytes: &[u8], queries: Vec<Option<CompiledQuery>>| {
            let mut r = Reader::new(bytes);
            let group = QueryGroup::restore_state(SensJoinConfig::default(), queries, &mut r)?;
            r.expect_end()?;
            Ok::<_, CodecError>(group)
        };
        let bytes = encode(&group);
        let mut back = restore(&bytes, vec![None, Some(q1.clone())]).unwrap();
        assert_eq!(encode(&back), bytes, "restore is a fixpoint");
        s.resample(&presets::indoor_climate(), 901);
        let mut s2 = s.clone();
        let live = group.execute_epoch(&mut s).unwrap();
        let restored = back.execute_epoch(&mut s2).unwrap();
        assert_eq!(format!("{:?}", live.stats), format!("{:?}", restored.stats));
        assert_matches_solo(&restored, &mut s2, &[&q1, &q1]);
        // The image holds nothing an epoch derives: running one moves the
        // two counters at its head and not a byte after them.
        assert_eq!(encode(&group)[16..], bytes[16..]);

        let invariant = |bytes: &[u8], queries| match restore(bytes, queries) {
            Err(CodecError::Invariant(what)) => what,
            other => panic!("expected an invariant error, got {:?}", other.err()),
        };
        // The last 25 bytes are the last subscriber: plan, every, offset,
        // alive. Point it past the table, then at the free slot.
        let plan_at = bytes.len() - 25;
        for bad in [2u64, 0, u64::MAX] {
            let mut broken = bytes.clone();
            broken[plan_at..plan_at + 8].copy_from_slice(&bad.to_le_bytes());
            assert_eq!(
                invariant(&broken, vec![None, Some(q1.clone())]),
                "live subscriber of no live plan"
            );
        }
        // Both live subscribers killed: the plan has no one left.
        let mut orphaned = bytes.clone();
        let n = orphaned.len();
        orphaned[n - 1] = 0;
        orphaned[n - 26] = 0;
        assert_eq!(
            invariant(&orphaned, vec![None, Some(q1.clone())]),
            "live plan without a subscriber"
        );
        assert_eq!(
            invariant(&bytes, vec![Some(q2), Some(q1.clone())]),
            "plan slot liveness != its query's"
        );
        assert_eq!(
            invariant(&bytes, vec![Some(q1)]),
            "plan count != recompiled queries"
        );
    }

    /// The union of the slots' referenced columns has no width limit: on a
    /// 72-column master schema, queries that reference columns on both sides
    /// of the 64th share an epoch, and a tuple two of them ship is charged
    /// for the union of their attributes.
    #[test]
    fn wide_master_schema_runs_a_group_epoch() {
        use crate::snetwork::ExternalData;
        use sensjoin_field::Position;
        use sensjoin_relation::AttrType;
        let n = 60usize;
        let positions: Vec<Position> = (0..n)
            .map(|i| Position::new(5.0 + 35.0 * (i % 8) as f64, 5.0 + 35.0 * (i / 8) as f64))
            .collect();
        let attrs = (0..70).map(|a| (format!("a{a}"), AttrType::Raw(2)));
        let rows = (0..n).map(|i| (0..70).map(move |a| ((i * 7 + a * 3) % 23) as f64));
        let mut s = SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .data(ExternalData {
                positions,
                attrs: attrs.collect(),
                rows: rows.map(Iterator::collect).collect(),
            })
            .build()
            .unwrap();
        assert_eq!(s.master_schema().arity(), 72);
        // Treecut off, so that every tuple is shipped in the final phase.
        let config = SensJoinConfig {
            dmax: 0,
            ..SensJoinConfig::default()
        };
        let q1 = compiled(
            &s,
            "SELECT A.a3, B.a66 FROM Sensors A, Sensors B WHERE A.a65 - B.a65 > 5 ONCE",
        );
        let q2 = compiled(
            &s,
            "SELECT A.a69, B.a3 FROM Sensors A, Sensors B WHERE A.a65 - B.a65 > 5 ONCE",
        );
        let mut group = QueryGroup::new(config.clone());
        for q in [&q1, &q2] {
            group.register(&s, q.clone(), 1);
        }
        let report = group.execute_epoch(&mut s).unwrap();
        assert!(!report.outcomes[0].result.is_empty());
        assert_matches_solo(&report, &mut s, &[&q1, &q2]);
        // Same predicate, same filter: every shipped tuple matches both
        // slots. Alone each pays {a3, a65, a66 | a69} = 6 bytes per tuple
        // and hop, together the union's 8 bytes plus the 1-byte mask.
        let solo: Vec<u64> = report
            .solo_equivalent
            .iter()
            .map(|c| c.final_bytes)
            .collect();
        assert_eq!(solo[0], solo[1]);
        assert_eq!(report.shared_final_bytes() * 6, solo[0] * 9);
    }
}
