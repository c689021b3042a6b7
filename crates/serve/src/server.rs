//! The serving front-end: deployment registry, bounded admission queue,
//! per-deployment bin-packing into [`QueryGroup`]s, and the tick loop that
//! batches due epochs across tenants.
//!
//! # Determinism
//!
//! Everything the server does is a pure function of its construction
//! parameters and the submission schedule: deployments resample with
//! seeds derived from `(deployment seed, tick)`, admissions drain the
//! queue FIFO, and epoch results are collected in deployment order
//! however many worker threads the deployments fan out across. Two runs
//! over the same schedule produce identical decisions,
//! results, and metrics — and every tenant's results are bit-identical
//! to a solo [`GroupRunner`](sensjoin_core::GroupRunner) driven on the
//! tenant's registration snapshot (`tests/serving_equivalence.rs` at the
//! repository root proves this property-based).

use crate::metrics::ServeMetrics;
use sensjoin_core::persist::{CodecError, Persist, Reader, Writer};
use sensjoin_core::persist_struct;
use sensjoin_core::{
    EpochReport, GroupOutcome, ProtocolError, QueryGroup, QueryId, SensJoinConfig, SensorNetwork,
    SensorNetworkBuilder, SensorNetworkError, MAX_GROUP_QUERIES,
};
use sensjoin_field::{presets, Area, FieldSpec, Placement};
use sensjoin_query::parse;
use sensjoin_sim::Time;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// A simulated user of the serving layer. The serving model is one live
/// continuous query per tenant: a tenant whose query is admitted must
/// [`Server::cancel`] before submitting another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl Persist for TenantId {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64().map(TenantId)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a deployment in the server's registry (registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeploymentId(pub usize);

/// Recipe for one deployment: a deterministic sensor network the server
/// builds (and later resamples) itself, so equivalence tests can rebuild
/// the identical network from the same spec.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Registry name tenants address in [`Submission::deployment`].
    pub name: String,
    /// Node count; the area scales for constant density.
    pub nodes: usize,
    /// Placement / field / resample seed.
    pub seed: u64,
    /// Generated attribute fields (defaults to the indoor-climate preset).
    pub fields: Vec<FieldSpec>,
}

impl DeploymentSpec {
    /// A spec with the indoor-climate field preset.
    pub fn new(name: impl Into<String>, nodes: usize, seed: u64) -> Self {
        Self {
            name: name.into(),
            nodes,
            seed,
            fields: presets::indoor_climate(),
        }
    }

    /// Builds the deployment's network. Deterministic: equal specs build
    /// equal networks.
    pub fn build(&self) -> Result<SensorNetwork, SensorNetworkError> {
        SensorNetworkBuilder::new()
            .area(Area::for_constant_density(self.nodes))
            .placement(Placement::UniformRandom { n: self.nodes })
            .fields(self.fields.clone())
            .seed(self.seed)
            .build()
    }
}

/// Server tuning knobs. See `OPERATIONS.md` for operator guidance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Protocol parameters every group runs with.
    pub protocol: SensJoinConfig,
    /// Group budget per deployment; capacity is `max_groups` ×
    /// [`MAX_GROUP_QUERIES`] live queries.
    pub max_groups: usize,
    /// Bound on the admission queue; submissions arriving beyond it are
    /// shed ([`RejectReason::Shed`]).
    pub queue_depth: usize,
    /// Admissions processed per tick; 0 drains the whole queue. A finite
    /// budget bounds per-tick admission work at the price of queue wait —
    /// the knob that makes shedding reachable under sustained overload.
    pub admit_per_tick: usize,
    /// Epoch cadence in simulated µs — the serving deadline that a
    /// deployment's p99 epoch latency is judged against.
    pub period_us: Time,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            protocol: SensJoinConfig::default(),
            max_groups: 4,
            queue_depth: 256,
            admit_per_tick: 0,
            period_us: 30_000_000,
        }
    }
}

/// One tenant's continuous-query submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Who is asking.
    pub tenant: TenantId,
    /// Registry name of the target deployment.
    pub deployment: String,
    /// The continuous query (`SAMPLE PERIOD` dialect).
    pub sql: String,
    /// Run every `every`-th epoch (clamped to ≥ 1).
    pub every: u64,
}

persist_struct!(Submission {
    tenant: TenantId,
    deployment: String,
    sql: String,
    every: u64,
});

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// No deployment of that name is registered.
    UnknownDeployment(String),
    /// The tenant already has a live admitted query.
    DuplicateTenant,
    /// The SQL failed to parse or compile against the deployment schema.
    InvalidQuery(String),
    /// Every group is at [`MAX_GROUP_QUERIES`] live queries and the
    /// deployment's group budget is exhausted.
    DeploymentFull,
    /// The bounded admission queue was full on arrival.
    Shed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownDeployment(name) => write!(f, "unknown deployment `{name}`"),
            RejectReason::DuplicateTenant => write!(f, "tenant already has a live query"),
            RejectReason::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            RejectReason::DeploymentFull => {
                write!(f, "deployment at capacity ({MAX_GROUP_QUERIES} per group)")
            }
            RejectReason::Shed => write!(f, "admission queue full, submission shed"),
        }
    }
}

/// Where an admitted query lives: deployment, group slot within it, and
/// the group-local [`QueryId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryHandle {
    /// Deployment the query was admitted to.
    pub deployment: DeploymentId,
    /// Group index within the deployment (bin-packing order).
    pub group: usize,
    /// Slot within the group.
    pub id: QueryId,
}

/// Structured admission decision.
#[derive(Debug, Clone)]
pub enum Decision {
    /// The query is registered and will produce results from the next
    /// tick on.
    Admitted {
        /// Who asked.
        tenant: TenantId,
        /// Where the query was placed.
        handle: QueryHandle,
        /// Whether the tenant subscribed to a plan already live in its
        /// group (an equal query was running) instead of building one.
        joined_live_plan: bool,
    },
    /// The submission was refused.
    Rejected {
        /// Who asked.
        tenant: TenantId,
        /// Why.
        reason: RejectReason,
    },
}

impl Decision {
    /// The tenant the decision answers.
    pub fn tenant(&self) -> TenantId {
        match self {
            Decision::Admitted { tenant, .. } | Decision::Rejected { tenant, .. } => *tenant,
        }
    }

    /// Whether the submission was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self, Decision::Admitted { .. })
    }
}

/// One tenant's result for one due epoch.
#[derive(Debug, Clone)]
pub struct TenantEpoch {
    /// Whose result this is.
    pub tenant: TenantId,
    /// Deployment it ran on.
    pub deployment: DeploymentId,
    /// Group index within the deployment.
    pub group: usize,
    /// Group-local epoch index the result belongs to.
    pub epoch: u64,
    /// The scheduler outcome: result rows and contributor set,
    /// bit-identical to a solo run on the registration snapshot.
    pub outcome: GroupOutcome,
    /// Whether the epoch's traffic was fully delivered (false only after
    /// the lossy-channel retry budget is exhausted).
    pub complete: bool,
}

/// What one [`Server::tick`] did: the admission decisions it drained and
/// every due tenant-epoch it executed, in deployment order.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Tick index (0-based).
    pub tick: u64,
    /// Decisions for submissions drained from the queue this tick.
    pub decisions: Vec<Decision>,
    /// Due results, in (deployment, group, slot) order.
    pub epochs: Vec<TenantEpoch>,
}

struct Deployment {
    name: String,
    snet: SensorNetwork,
    specs: Vec<FieldSpec>,
    seed: u64,
    /// Readings version: bumped once per tick's resample.
    snapshot: u64,
    groups: Vec<QueryGroup>,
    /// Per group: tenant of each [`QueryId`] ever issued (ids are never
    /// reused, so this only grows — eight bytes per admission).
    tenants: Vec<Vec<TenantId>>,
    /// Per group: SQL of each plan-table slot of the group, `None` for a
    /// free one — restore recompiles one query per live plan.
    sqls: Vec<Vec<Option<String>>>,
}

impl Deployment {
    /// Resamples the readings and runs one epoch of every group, in group
    /// order. Returns each group's report.
    fn run_tick(&mut self) -> Result<Vec<EpochReport>, ProtocolError> {
        self.snapshot += 1;
        self.snet
            .resample(&self.specs, self.seed.wrapping_add(self.snapshot));
        let mut reports = Vec::with_capacity(self.groups.len());
        for group in &mut self.groups {
            reports.push(group.execute_epoch(&mut self.snet)?);
        }
        Ok(reports)
    }
}

/// The multi-tenant serving front-end. See the [crate docs](crate) for
/// the end-to-end flow and a runnable example.
pub struct Server {
    cfg: ServeConfig,
    deployments: Vec<Deployment>,
    queue: VecDeque<Submission>,
    handles: BTreeMap<TenantId, QueryHandle>,
    metrics: ServeMetrics,
    tick: u64,
}

impl Server {
    /// An empty server; add deployments before submitting.
    pub fn new(cfg: ServeConfig) -> Self {
        Self {
            cfg,
            deployments: Vec::new(),
            queue: VecDeque::new(),
            handles: BTreeMap::new(),
            metrics: ServeMetrics::default(),
            tick: 0,
        }
    }

    /// Builds and registers a deployment. Returns its id (registration
    /// order).
    pub fn add_deployment(
        &mut self,
        spec: &DeploymentSpec,
    ) -> Result<DeploymentId, SensorNetworkError> {
        let snet = spec.build()?;
        self.deployments.push(Deployment {
            name: spec.name.clone(),
            snet,
            specs: spec.fields.clone(),
            seed: spec.seed,
            snapshot: 0,
            groups: Vec::new(),
            tenants: Vec::new(),
            sqls: Vec::new(),
        });
        self.metrics.push_deployment();
        Ok(DeploymentId(self.deployments.len() - 1))
    }

    /// Submits a continuous query. Unknown deployments, duplicate
    /// tenants, and queue overflow are refused immediately (`Some`
    /// rejection); otherwise the submission is queued (`None`) and
    /// decided by the next [`Server::tick`].
    pub fn submit(&mut self, sub: Submission) -> Option<Decision> {
        let tenant = sub.tenant;
        self.metrics.totals.submitted += 1;
        self.metrics.tenant_mut(tenant).submitted += 1;
        let Some(dep_ix) = self
            .deployments
            .iter()
            .position(|d| d.name == sub.deployment)
        else {
            self.metrics.totals.rejected_unknown_deployment += 1;
            self.metrics.tenant_mut(tenant).rejected += 1;
            return Some(Decision::Rejected {
                tenant,
                reason: RejectReason::UnknownDeployment(sub.deployment),
            });
        };
        self.metrics.deployment_mut(dep_ix).admission.submitted += 1;
        if self.handles.contains_key(&tenant)
            || self.queue.iter().any(|queued| queued.tenant == tenant)
        {
            self.metrics.totals.rejected_duplicate += 1;
            self.metrics.tenant_mut(tenant).rejected += 1;
            return Some(Decision::Rejected {
                tenant,
                reason: RejectReason::DuplicateTenant,
            });
        }
        if self.queue.len() >= self.cfg.queue_depth {
            self.metrics.totals.shed += 1;
            self.metrics.deployment_mut(dep_ix).admission.shed += 1;
            self.metrics.tenant_mut(tenant).shed += 1;
            return Some(Decision::Rejected {
                tenant,
                reason: RejectReason::Shed,
            });
        }
        self.queue.push_back(sub);
        None
    }

    /// Cancels a tenant's live query mid-run. Its [`QueryId`] is retired
    /// (ids are not reused) and its plan goes with the plan's last
    /// subscriber; other tenants are untouched. Returns whether the tenant
    /// had a live query.
    pub fn cancel(&mut self, tenant: TenantId) -> bool {
        let Some(h) = self.handles.remove(&tenant) else {
            return false;
        };
        let dep = &mut self.deployments[h.deployment.0];
        let group = &mut dep.groups[h.group];
        let plan = group.plan_of(h.id);
        let was_live = group.remove(h.id);
        if let Some(plan) = plan.filter(|&p| group.subscribers_of(p) == 0) {
            dep.sqls[h.group][plan] = None;
        }
        was_live
    }

    fn admit_one(&mut self, sub: Submission) -> Decision {
        let tenant = sub.tenant;
        let dep_ix = self
            .deployments
            .iter()
            .position(|d| d.name == sub.deployment)
            .expect("queued submissions name validated deployments");
        let reject = |metrics: &mut ServeMetrics, reason: RejectReason| {
            match reason {
                RejectReason::InvalidQuery(_) => {
                    metrics.totals.rejected_invalid += 1;
                    metrics.deployment_mut(dep_ix).admission.rejected_invalid += 1;
                }
                RejectReason::DeploymentFull => {
                    metrics.totals.rejected_full += 1;
                    metrics.deployment_mut(dep_ix).admission.rejected_full += 1;
                }
                _ => {}
            }
            metrics.tenant_mut(tenant).rejected += 1;
            Decision::Rejected { tenant, reason }
        };
        let query = match compile_sql(&self.deployments[dep_ix].snet, &sub.sql) {
            Ok(cq) => cq,
            Err(e) => return reject(&mut self.metrics, RejectReason::InvalidQuery(e)),
        };

        // Bin-pack: first group with a free live slot, else open a group
        // if the budget allows, else reject.
        let group = match self.deployments[dep_ix]
            .groups
            .iter()
            .position(|g| g.len() < MAX_GROUP_QUERIES)
        {
            Some(g) => g,
            None if self.deployments[dep_ix].groups.len() < self.cfg.max_groups => {
                let dep = &mut self.deployments[dep_ix];
                dep.groups.push(QueryGroup::new(self.cfg.protocol.clone()));
                dep.tenants.push(Vec::new());
                dep.sqls.push(Vec::new());
                dep.groups.len() - 1
            }
            None => return reject(&mut self.metrics, RejectReason::DeploymentFull),
        };

        let dep = &mut self.deployments[dep_ix];
        // The group shares by meaning: a tenant whose compiled query equals
        // a live one subscribes to its plan, whatever the two texts look like.
        let id = dep.groups[group]
            .try_register(&dep.snet, query, sub.every)
            .expect("bin-packing picked a group with a free slot");
        debug_assert_eq!(id.0, dep.tenants[group].len(), "ids are append-only");
        dep.tenants[group].push(tenant);
        let plan = dep.groups[group].plan_of(id).expect("just registered");
        let sqls = &mut dep.sqls[group];
        if sqls.len() <= plan {
            sqls.resize(plan + 1, None);
        }
        // A slot's SQL is `None` exactly when the registration just built its
        // plan. A tenant joining a live plan leaves the plan's first SQL in
        // place: the texts compile equal, so restore may recompile either.
        let joined_live_plan = sqls[plan].is_some();
        sqls[plan].get_or_insert(sub.sql);
        if joined_live_plan {
            self.metrics.plans_joined += 1;
        } else {
            self.metrics.plans_built += 1;
        }
        let handle = QueryHandle {
            deployment: DeploymentId(dep_ix),
            group,
            id,
        };
        self.handles.insert(tenant, handle);
        self.metrics.totals.admitted += 1;
        self.metrics.deployment_mut(dep_ix).admission.admitted += 1;
        self.metrics.tenant_mut(tenant).admitted += 1;
        Decision::Admitted {
            tenant,
            handle,
            joined_live_plan,
        }
    }

    /// Processes every queued submission now — schema validation,
    /// bin-packing, plan subscription or build — without running an epoch,
    /// ignoring [`ServeConfig::admit_per_tick`]. [`Server::tick`] does this
    /// implicitly; the explicit form exists for operators (and benches)
    /// that want admission cost separate from epoch cost.
    pub fn admit(&mut self) -> Vec<Decision> {
        let budget = self.queue.len();
        self.drain_queue(budget)
    }

    fn drain_queue(&mut self, budget: usize) -> Vec<Decision> {
        let mut decisions = Vec::with_capacity(budget);
        for _ in 0..budget {
            let sub = self.queue.pop_front().expect("budget bounded by queue len");
            decisions.push(self.admit_one(sub));
        }
        decisions
    }

    /// Runs one serving tick: drains the admission queue (up to
    /// [`ServeConfig::admit_per_tick`]), then resamples every deployment
    /// and executes one epoch of every group, batching deployments across
    /// the host's threads. Results and metrics are collected in deployment
    /// order at any thread count.
    pub fn tick(&mut self) -> Result<TickReport, ProtocolError> {
        let tick = self.tick;
        self.tick += 1;

        // Admissions happen before the tick's resample: a query admitted
        // at tick t is planned on the snapshot left by tick t-1 — its
        // registration snapshot — exactly like a solo registration
        // followed by a `GroupRunner` run.
        let budget = if self.cfg.admit_per_tick == 0 {
            self.queue.len()
        } else {
            self.cfg.admit_per_tick.min(self.queue.len())
        };
        let decisions = self.drain_queue(budget);

        let results = run_deployments(&mut self.deployments, host_threads());
        let mut epochs = Vec::new();
        for (dep_ix, result) in results.into_iter().enumerate() {
            let reports = result?;
            let dep = &self.deployments[dep_ix];
            for (group, report) in reports.into_iter().enumerate() {
                let dm = self.metrics.deployment_mut(dep_ix);
                dm.epochs += 1;
                dm.epoch_latency_us.record(report.latency_us);
                dm.query_epochs += report.outcomes.len() as u64;
                dm.plan_epochs += report.plans as u64;
                dm.shared_bytes += report.shared_collection_bytes()
                    + report.shared_filter_bytes()
                    + report.shared_final_bytes();
                dm.solo_bytes += report.solo_equivalent_total();
                let mut solo_of = HashMap::new();
                for solo in &report.solo_equivalent {
                    solo_of.insert(solo.id, solo.total_bytes());
                }
                for outcome in report.outcomes {
                    let tenant = dep.tenants[group][outcome.id.0];
                    let rows = outcome.result.len() as u64;
                    self.metrics.deployment_mut(dep_ix).result_rows += rows;
                    let tm = self.metrics.tenant_mut(tenant);
                    tm.epochs += 1;
                    tm.result_rows += rows;
                    tm.solo_bytes += solo_of.get(&outcome.id).copied().unwrap_or(0);
                    epochs.push(TenantEpoch {
                        tenant,
                        deployment: DeploymentId(dep_ix),
                        group,
                        epoch: report.epoch,
                        outcome,
                        complete: report.complete,
                    });
                }
            }
        }
        Ok(TickReport {
            tick,
            decisions,
            epochs,
        })
    }

    /// The metrics surface.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Server tuning knobs in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Number of ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Submissions waiting for the next tick's admission pass.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of registered deployments.
    pub fn num_deployments(&self) -> usize {
        self.deployments.len()
    }

    /// The groups of deployment `dep`, in bin-packing order.
    pub fn groups(&self, dep: DeploymentId) -> &[QueryGroup] {
        &self.deployments[dep.0].groups
    }

    /// The current network snapshot of deployment `dep`.
    pub fn network(&self, dep: DeploymentId) -> &SensorNetwork {
        &self.deployments[dep.0].snet
    }

    /// Live handle of a tenant's admitted query, if any.
    pub fn handle(&self, tenant: TenantId) -> Option<QueryHandle> {
        self.handles.get(&tenant).copied()
    }

    /// Serializes the full server state — tick position, admission queue,
    /// metrics, and every deployment's groups with their tenant tables —
    /// with the checkpoint codec. Networks are not serialized: a
    /// deployment's readings are a pure function of `(spec, snapshot)`, so
    /// [`Server::restore_state`] resamples them back instead. Nor are tenant
    /// handles: they are the tenant tables read the other way round.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.tick);
        self.queue.put(&mut w);
        self.metrics.put(&mut w);
        w.put_usize(self.deployments.len());
        for dep in &self.deployments {
            w.put_str(&dep.name);
            w.put_u64(dep.snapshot);
            w.put_usize(dep.groups.len());
            for (g, group) in dep.groups.iter().enumerate() {
                dep.tenants[g].put(&mut w);
                dep.sqls[g].put(&mut w);
                group.encode_state(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Rebuilds a server from [`Server::export_state`] bytes. `specs`
    /// must be the same deployment specs (same order) the saved server
    /// was built from, and `cfg` the same configuration — both are
    /// validated where the state makes that possible. The decoded tables
    /// are cross-checked before anything indexes by them: every group's
    /// tenant table covers exactly the ids the group issued, no tenant owns
    /// two live queries, and every queued submission names a deployment and
    /// a tenant without a live query. An image that breaks one is a
    /// [`CodecError::Invariant`], never a server that panics later.
    ///
    /// Deployment networks are reconstructed, not deserialized:
    /// `spec.build()` gives readings version 0 and
    /// [`SensorNetwork::resample`] is a pure function of
    /// `(positions, fields, seed)`, so the live version is reachable
    /// directly.
    pub fn restore_state(
        cfg: ServeConfig,
        specs: &[DeploymentSpec],
        bytes: &[u8],
    ) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let tick = r.get_u64()?;
        let queue: VecDeque<Submission> = Persist::get(&mut r)?;
        let metrics = ServeMetrics::get(&mut r)?;
        let ndeps = r.get_count(24)?;
        if ndeps != specs.len() {
            return Err(CodecError::Invariant("deployment count != provided specs"));
        }
        if metrics.deployments().len() != ndeps {
            return Err(CodecError::Invariant("metrics deployments != deployments"));
        }
        let mut deployments: Vec<Deployment> = Vec::with_capacity(ndeps);
        for spec in specs {
            let name = r.get_str()?.to_string();
            if name != spec.name {
                return Err(CodecError::Invariant("deployment name != provided spec"));
            }
            let snapshot = r.get_u64()?;
            let mut snet = spec
                .build()
                .map_err(|_| CodecError::Invariant("deployment rebuild failed"))?;
            // Bring the network to the deployment's live readings version.
            if snapshot != 0 {
                snet.resample(&spec.fields, spec.seed.wrapping_add(snapshot));
            }
            let ngroups = r.get_count(24)?;
            let mut groups = Vec::with_capacity(ngroups);
            let mut tenants = Vec::with_capacity(ngroups);
            let mut sqls = Vec::with_capacity(ngroups);
            for _ in 0..ngroups {
                let group_tenants: Vec<TenantId> = Persist::get(&mut r)?;
                let group_sqls: Vec<Option<String>> = Persist::get(&mut r)?;
                // Each compiled when it was admitted: a failure means the
                // image and the deployment specs do not belong together.
                let queries = (group_sqls.iter())
                    .map(|sql| {
                        sql.as_deref()
                            .map(|sql| compile_sql(&snet, sql))
                            .transpose()
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| {
                        CodecError::Invariant("saved sql does not compile on its deployment")
                    })?;
                let group = QueryGroup::restore_state(cfg.protocol.clone(), queries, &mut r)?;
                if group_tenants.len() != group.ids_issued() {
                    return Err(CodecError::Invariant(
                        "tenant table != ids the group issued",
                    ));
                }
                groups.push(group);
                tenants.push(group_tenants);
                sqls.push(group_sqls);
            }
            deployments.push(Deployment {
                name,
                snet,
                specs: spec.fields.clone(),
                seed: spec.seed,
                snapshot,
                groups,
                tenants,
                sqls,
            });
        }
        r.expect_end()?;
        // Handles are not saved: a tenant's handle is where the tenant
        // tables put its live query, so no handle can point anywhere else.
        let mut handles = BTreeMap::new();
        for (d, dep) in deployments.iter().enumerate() {
            for (group, tenants) in dep.tenants.iter().enumerate() {
                for (i, &tenant) in tenants.iter().enumerate() {
                    let handle = QueryHandle {
                        deployment: DeploymentId(d),
                        group,
                        id: QueryId(i),
                    };
                    if dep.groups[group].plan_of(handle.id).is_some()
                        && handles.insert(tenant, handle).is_some()
                    {
                        return Err(CodecError::Invariant("tenant with two live queries"));
                    }
                }
            }
        }
        for sub in &queue {
            if !deployments.iter().any(|dep| dep.name == sub.deployment) {
                return Err(CodecError::Invariant("queued submission of no deployment"));
            }
            if handles.contains_key(&sub.tenant) {
                return Err(CodecError::Invariant("queued tenant has a live query"));
            }
        }
        Ok(Self {
            cfg,
            deployments,
            queue,
            handles,
            metrics,
            tick,
        })
    }
}

/// Parses `sql` and compiles it against `snet`'s catalog; the error is the
/// parser's or the compiler's message.
fn compile_sql(snet: &SensorNetwork, sql: &str) -> Result<sensjoin_query::CompiledQuery, String> {
    let parsed = parse(sql).map_err(|e| e.to_string())?;
    snet.compile(&parsed).map_err(|e| e.to_string())
}

/// The threads the host grants this process, read at the first tick:
/// asking again re-reads the cgroup files, some 20 µs a call. A `taskset -c
/// 0` run sets its affinity before that, so it ticks on one thread.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs one tick of every deployment serially, in order.
fn run_serial(deps: &mut [Deployment]) -> Vec<Result<Vec<EpochReport>, ProtocolError>> {
    deps.iter_mut().map(|d| d.run_tick()).collect()
}

/// Runs one tick of every deployment, fanning contiguous chunks out
/// across at most `workers` scoped threads. Deployments are independent
/// (disjoint `&mut` state) and results are stitched back in deployment
/// order, so output is bit-identical to [`run_serial`].
fn run_deployments(
    deps: &mut [Deployment],
    workers: usize,
) -> Vec<Result<Vec<EpochReport>, ProtocolError>> {
    let workers = workers.min(deps.len());
    if workers <= 1 {
        return run_serial(deps);
    }
    let chunk = deps.len().div_ceil(workers);
    let mut results = Vec::with_capacity(deps.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = deps
            .chunks_mut(chunk)
            .map(|c| s.spawn(move || c.iter_mut().map(|d| d.run_tick()).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            results.extend(h.join().expect("serve worker panicked"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four deployments of different sizes, two tenants each, admitted and
    /// one tick in.
    fn fixture() -> Server {
        let mut server = Server::new(ServeConfig::default());
        for dep in 0..4u64 {
            let name = format!("dep{dep}");
            server
                .add_deployment(&DeploymentSpec::new(
                    name.clone(),
                    40 + 10 * dep as usize,
                    dep,
                ))
                .unwrap();
            for (t, bound) in [(0, 3.0), (1, 5.0)] {
                server.submit(Submission {
                    tenant: TenantId(2 * dep + t),
                    deployment: name.clone(),
                    sql: format!(
                        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                         WHERE A.temp - B.temp > {bound} SAMPLE PERIOD 30"
                    ),
                    every: 1,
                });
            }
        }
        let first = server.tick().unwrap();
        assert_eq!(first.epochs.len(), 8);
        server
    }

    /// Sharing is by meaning, not by text: two spellings of one query end in
    /// one plan, built once.
    #[test]
    fn textual_variants_share_one_plan() {
        let mut server = Server::new(ServeConfig::default());
        let dep = server
            .add_deployment(&DeploymentSpec::new("lab", 40, 7))
            .unwrap();
        for (tenant, predicate) in [
            (0, "A.temp - B.temp > 2.0"),
            (1, "A.temp  -  B.temp  >  2.00"),
        ] {
            server.submit(Submission {
                tenant: TenantId(tenant),
                deployment: "lab".into(),
                sql: format!(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE {predicate} SAMPLE PERIOD 30"
                ),
                every: 1,
            });
        }
        let joined: Vec<bool> = server
            .admit()
            .iter()
            .map(|d| {
                matches!(
                    d,
                    Decision::Admitted {
                        joined_live_plan: true,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(joined, [false, true]);
        let groups = server.groups(dep);
        assert_eq!(
            (groups.len(), groups[0].len(), groups[0].plans()),
            (1, 2, 1)
        );
        let m = server.metrics();
        assert_eq!((m.plans_built, m.plans_joined), (1, 1));
    }

    /// A tenant's SQL nested past the parser's bound is rejected as an
    /// invalid query — before the bound, 20 000 parentheses overflowed the
    /// server's stack and aborted every deployment with it — and the
    /// server goes on serving the other tenants.
    #[test]
    fn sql_nested_too_deep_is_rejected_not_an_abort() {
        let mut server = fixture();
        for (tenant, depth) in [(100, sensjoin_query::MAX_EXPR_DEPTH + 1), (101, 20_000)] {
            let k = depth - 2; // (…(A.temp < B.temp)…): k pairs around 2 levels
            server.submit(Submission {
                tenant: TenantId(tenant),
                deployment: "dep0".into(),
                sql: format!(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE {}A.temp < B.temp{} SAMPLE PERIOD 30",
                    "(".repeat(k),
                    ")".repeat(k)
                ),
                every: 1,
            });
        }
        let decisions = server.admit();
        assert_eq!(decisions.len(), 2);
        for decision in decisions {
            let Decision::Rejected {
                reason: RejectReason::InvalidQuery(why),
                ..
            } = decision
            else {
                panic!("admitted: {decision:?}");
            };
            assert!(why.contains("expression nested deeper than"), "{why}");
        }
        assert_eq!(server.tick().unwrap().epochs.len(), 8);
    }

    /// A query wider than a point's relation flags is rejected at
    /// admission. It used to be admitted, and the next tick panicked in the
    /// executor and took every deployment down with it.
    #[test]
    fn a_join_of_nine_relations_is_rejected_not_an_abort() {
        let mut server = fixture();
        let from: Vec<String> = (0..9).map(|i| format!("Sensors R{i}")).collect();
        server.submit(Submission {
            tenant: TenantId(100),
            deployment: "dep0".into(),
            sql: format!("SELECT R0.hum FROM {} SAMPLE PERIOD 30", from.join(", ")),
            every: 1,
        });
        let decisions = server.admit();
        let [Decision::Rejected {
            reason: RejectReason::InvalidQuery(why),
            ..
        }] = &decisions[..]
        else {
            panic!("admitted: {decisions:?}");
        };
        assert!(why.contains("at most 8"), "{why}");
        assert_eq!(server.tick().unwrap().epochs.len(), 8);
    }

    /// What the host's thread count must not change: every worker count
    /// stitches the serial run's reports back in deployment order.
    #[test]
    fn worker_count_does_not_change_a_tick() {
        let mut serial = fixture();
        let want: Vec<String> = (0..2)
            .map(|_| format!("{:?}", run_serial(&mut serial.deployments)))
            .collect();
        for workers in 1..=4 {
            let mut server = fixture();
            for want in &want {
                let got = run_deployments(&mut server.deployments, workers);
                assert_eq!(&format!("{got:?}"), want, "{workers} workers");
            }
        }
    }
}
