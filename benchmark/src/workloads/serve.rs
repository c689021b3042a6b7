//! `serve_512t_churn`: many tenants on small in-cache deployments. An op is
//! one serve tick under tenant churn: 8 cancels and 8 submissions (4 on the
//! hot template, 4 with SQL no one has asked before), their admission, and
//! the `Server::tick` that runs every group's epoch.

use super::{
    median_ms, oracle_tuples, span_ms_per_op, splitmix, RunConfig, SimTally, Workload,
    DEPLOYMENT_SEED,
};
use crate::probes;
use crate::report::Metrics;
use crate::trace::{self, Span, Tracer};
use sensjoin::core::{exact_join, QueryGroup};
use sensjoin::field::presets;
use sensjoin::query::parse;
use sensjoin::serve::{
    Decision, DeploymentId, DeploymentSpec, ServeConfig, Server, Submission, TenantId, TickReport,
};
use std::collections::{HashMap, VecDeque};

const DEPLOYMENTS: usize = 4;
const NODES: usize = 250;
const TENANTS: u64 = 520;
const MAX_GROUPS: usize = 2;
const TEMPLATES: u64 = 16;
const WARM_UP: usize = 1;
const OPS_PER_SECOND: f64 = 1.0;
/// Tenant-epochs checked against `exact_join` per tick (`complete` is
/// checked on all of them).
const ORACLE_PER_TICK: usize = 8;

fn template_sql(t: u64) -> String {
    format!(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > {:.2} SAMPLE PERIOD 30",
        2.0 + 0.25 * t as f64
    )
}

/// SQL no tenant has submitted before: its own select list and a threshold
/// that moves with every call, so the plan cache cannot hit.
fn novel_sql(counter: u64) -> String {
    format!(
        "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > {:.3} SAMPLE PERIOD 30",
        2.0 + 0.001 * counter as f64
    )
}

pub struct Churned {
    decisions: Vec<Decision>,
    report: TickReport,
}

pub struct Serve {
    server: Server,
    /// Live tenants per deployment, oldest first.
    live: Vec<VecDeque<u64>>,
    sql_of: HashMap<u64, String>,
    next_tenant: u64,
    novel: u64,
    /// Rotates which tenant-epochs the oracle checks.
    rotation: usize,
    shared_bytes: u64,
    latency_sum_us: u128,
    latency_count: u64,
    tally: SimTally,
}

impl Serve {
    fn submit(&mut self, dep: usize, sql: String) {
        let tenant = self.next_tenant;
        self.next_tenant += 1;
        self.sql_of.insert(tenant, sql.clone());
        let refused = self.server.submit(Submission {
            tenant: TenantId(tenant),
            deployment: format!("dep{dep}"),
            sql,
            every: 1,
        });
        assert!(refused.is_none(), "the queue holds every submission");
        self.live[dep].push_back(tenant);
    }

    fn churn_and_tick(&mut self, tracer: &mut Tracer) -> Churned {
        let s = tracer.enter("serve.cancel");
        for dep in 0..DEPLOYMENTS {
            for _ in 0..2 {
                let tenant = self.live[dep].pop_front().expect("a live tenant");
                assert!(self.server.cancel(TenantId(tenant)), "tenant was live");
                self.sql_of.remove(&tenant);
            }
        }
        tracer.exit(s, 2 * DEPLOYMENTS as u64);

        let s = tracer.enter("serve.submit");
        for dep in 0..DEPLOYMENTS {
            self.submit(dep, template_sql(0));
            self.novel += 1;
            self.submit(dep, novel_sql(self.novel));
        }
        tracer.exit(s, 2 * DEPLOYMENTS as u64);

        // `tick` would drain the queue itself; the explicit form is the
        // same code path and gives admission its own span.
        let s = tracer.enter("serve.admit");
        let decisions = self.server.admit();
        tracer.exit(s, decisions.len() as u64);

        let s = tracer.enter("serve.tick");
        let report = self.server.tick().expect("every base station is connected");
        tracer.exit(s, report.epochs.len() as u64);
        Churned { decisions, report }
    }

    /// Simulated bytes and epoch-latency totals over all deployments.
    fn sim_totals(&self) -> (u64, u128, u64) {
        let m = self.server.metrics();
        let bytes = m.deployments().iter().map(|d| d.shared_bytes).sum();
        // The histogram keeps an exact sum but exposes only the mean.
        let (sum, count) = m.deployments().iter().fold((0u128, 0u64), |(s, c), d| {
            let h = &d.epoch_latency_us;
            (s + h.mean() as u128 * h.count() as u128, c + h.count())
        });
        (bytes, sum, count)
    }
}

impl Workload for Serve {
    type Out = Churned;

    fn setup(cfg: &RunConfig) -> Self {
        let tenants = cfg.scale(TENANTS as usize, 24) as u64;
        let mut server = Server::new(ServeConfig {
            max_groups: MAX_GROUPS,
            queue_depth: tenants as usize + 2 * DEPLOYMENTS,
            ..ServeConfig::default()
        });
        for d in 0..DEPLOYMENTS {
            server
                .add_deployment(&DeploymentSpec::new(
                    format!("dep{d}"),
                    cfg.scale(NODES, 60),
                    DEPLOYMENT_SEED + d as u64,
                ))
                .expect("a uniform placement at paper density is connected");
        }
        let mut w = Serve {
            server,
            live: vec![VecDeque::new(); DEPLOYMENTS],
            sql_of: HashMap::new(),
            next_tenant: 0,
            novel: 0,
            rotation: 0,
            shared_bytes: 0,
            latency_sum_us: 0,
            latency_count: 0,
            tally: SimTally::default(),
        };
        // The tenant mix: half the tenants ask the hot template, the rest
        // spread over the other fifteen; which is which comes from the seed.
        let mut rng = cfg.seed;
        for i in 0..tenants {
            rng = splitmix(rng);
            let t = if rng.is_multiple_of(2) {
                0
            } else {
                1 + (rng >> 8) % (TEMPLATES - 1)
            };
            w.submit(i as usize % DEPLOYMENTS, template_sql(t));
        }
        // Capacity is 2 groups × 64 per deployment: the overflow draws
        // structured `DeploymentFull` rejections and never goes live.
        for decision in w.server.admit() {
            if !decision.admitted() {
                let tenant = decision.tenant().0;
                w.live[tenant as usize % DEPLOYMENTS].retain(|&t| t != tenant);
                w.sql_of.remove(&tenant);
            }
        }
        let capacity = (MAX_GROUPS * sensjoin::core::MAX_GROUP_QUERIES * DEPLOYMENTS) as u64;
        assert_eq!(
            w.server.metrics().totals.admitted,
            tenants.min(capacity),
            "admission filled the deployments"
        );
        for _ in 0..WARM_UP {
            w.churn_and_tick(&mut Tracer::new(false));
        }
        (w.shared_bytes, w.latency_sum_us, w.latency_count) = w.sim_totals();
        w
    }

    /// The oracle is per tick: `exact_join` on the deployment's snapshot.
    fn build_oracle(&mut self) {}

    fn timed_ops(&self, cfg: &RunConfig) -> usize {
        cfg.timed_ops(OPS_PER_SECOND)
    }

    fn op(&mut self, _i: usize, tracer: &mut Tracer) -> Churned {
        self.churn_and_tick(tracer)
    }

    fn check(&mut self, _i: usize, _last: bool, out: Churned) -> bool {
        let (bytes, latency_sum, latency_count) = self.sim_totals();
        self.tally.ops += 1;
        self.tally.cost_bytes += bytes - self.shared_bytes;
        // Mean simulated latency of this tick's group epochs.
        self.tally.latency_us += ((latency_sum - self.latency_sum_us)
            / (latency_count - self.latency_count).max(1) as u128)
            as u64;
        (self.shared_bytes, self.latency_sum_us, self.latency_count) =
            (bytes, latency_sum, latency_count);
        for d in 0..DEPLOYMENTS {
            // What the deployment's network still holds: the statistics of
            // its last group epoch this tick.
            self.tally
                .add_stats(self.server.network(DeploymentId(d)).net().stats());
        }

        let epochs = &out.report.epochs;
        let mut ok = out.decisions.len() == 2 * DEPLOYMENTS
            && out.decisions.iter().all(Decision::admitted)
            && !epochs.is_empty()
            && epochs.iter().all(|e| e.complete);
        self.rotation += 1;
        for j in 0..ORACLE_PER_TICK.min(epochs.len()) {
            let e = &epochs[(self.rotation + j * epochs.len() / ORACLE_PER_TICK) % epochs.len()];
            let snet = self.server.network(e.deployment);
            let cq = snet
                .compile(&parse(&self.sql_of[&e.tenant.0]).expect("tenant SQL parses"))
                .expect("tenant SQL compiles");
            let reference = exact_join(&cq, &oracle_tuples(snet, &cq));
            ok &= e.outcome.result.same_result(&reference.result)
                && e.outcome.contributors == reference.contributors;
        }
        ok
    }

    fn tally(&self) -> &SimTally {
        &self.tally
    }

    fn probes(
        &mut self,
        spans: &[Span],
        traced_ops: usize,
        m: &mut Metrics,
        ledger: &mut Vec<(String, f64)>,
        family_only: bool,
    ) {
        let (submit_ns, _) = trace::total_ns(spans, "serve.submit");
        let (admit_ns, _) = trace::total_ns(spans, "serve.admit");
        let work = |name| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.work)
                .sum()
        };
        let tick = span_ms_per_op(spans, "serve.tick", traced_ops);
        m.set(
            "serve.submit_us",
            submit_ns as f64 / 1e3 / work("serve.submit").max(1) as f64,
        );
        m.set(
            "serve.admit_us_per_decision",
            admit_ns as f64 / 1e3 / work("serve.admit").max(1) as f64,
        );
        m.set("serve.tick_ms", tick);
        let metrics = self.server.metrics();
        m.set("serve.plan_cache_hit_share", metrics.cache_hit_rate());
        m.set(
            "serve.rejected_share",
            metrics.totals.rejected() as f64 / metrics.totals.submitted.max(1) as f64,
        );
        let (shared, solo) = metrics
            .deployments()
            .iter()
            .fold((0, 0), |(a, b), d| (a + d.shared_bytes, b + d.solo_bytes));
        m.set(
            "core.scheduler.shared_over_solo_bytes",
            shared as f64 / solo.max(1) as f64,
        );
        m.set(
            "serve.export_state_ms",
            median_ms(5, || self.server.export_state()),
        );

        // One group epoch with one query and with a full group, on a clone
        // of deployment 0 and the SQL its tenants run.
        let specs = presets::indoor_climate();
        let dep0 = self.server.network(DeploymentId(0));
        let sqls: Vec<&String> = self.live[0].iter().map(|t| &self.sql_of[t]).collect();
        for (name, k) in [
            ("core.scheduler.epoch_ms_k1", 1),
            ("core.scheduler.epoch_ms_k64", 64),
        ] {
            let mut snet = dep0.clone();
            let mut group = QueryGroup::new(self.server.config().protocol.clone());
            for sql in sqls.iter().cycle().take(k) {
                let cq = snet
                    .compile(&parse(sql).expect("tenant SQL parses"))
                    .expect("tenant SQL compiles");
                group.register(&snet, cq, 1);
            }
            let mut epoch = 0;
            m.set(
                name,
                median_ms(4, || {
                    epoch += 1;
                    snet.resample(&specs, epoch);
                    group.execute_epoch(&mut snet)
                }),
            );
        }

        // The tick resamples every deployment before its epochs; the same
        // call on clones is the field layer's share of the tick.
        let mut clones: Vec<_> = (0..DEPLOYMENTS)
            .map(|d| self.server.network(DeploymentId(d)).clone())
            .collect();
        let field = median_ms(5, || clones.iter_mut().for_each(|c| c.resample(&specs, 1)));
        let front = ["serve.cancel", "serve.submit", "serve.admit"]
            .iter()
            .map(|name| span_ms_per_op(spans, name, traced_ops))
            .sum();
        ledger.push(("serve".into(), front));
        ledger.push(("field".into(), field));
        ledger.push(("core.scheduler".into(), probes::residual(tick, &[field])));

        if !family_only {
            probes::oneshot_family(dep0, &template_sql(0), &specs, None, m);
        }
    }
}
