//! Serving-layer equivalence and admission invariants, end to end.
//!
//! The tentpole property: a [`sensjoin::serve::Server`] batching many
//! tenants' continuous queries — bin-packed into shared groups, admitted
//! at staggered ticks, running staggered `EVERY` intervals, some
//! cancelled mid-run — answers every tenant-epoch **bit-identically** to
//! driving that tenant's query alone in a fresh [`GroupRunner`] on its
//! registration snapshot. Sharing (grouped collection waves, plan
//! caching, one plan per distinct query) is an optimization, never a
//! semantic.
//!
//! The replay recipe mirrors the server's documented determinism
//! contract: a tenant admitted at tick `t` is planned on the network
//! state after tick `t − 1`'s resample (deployments resample with
//! `seed + tick + 1`), so the solo run rebuilds the network from the
//! [`DeploymentSpec`], fast-forwards with one resample at `seed + t`
//! (resampling fully overwrites the readings, so history does not
//! matter), registers, and then resamples `seed + t + 1 + e` before solo
//! epoch `e`.
//!
//! Also covered: the k = 64 per-group admission bound (65th concurrent
//! query on a one-group deployment draws a structured `DeploymentFull`)
//! and bounded-queue shedding under overload.

use proptest::prelude::*;
use proptest::TestCaseError;
use sensjoin::core::{GroupOutcome, GroupRunner, JoinResult, QueryId};
use sensjoin::query::parse;
use sensjoin::serve::{
    Decision, DeploymentSpec, RejectReason, ServeConfig, Server, Submission, TenantId,
};
use std::collections::BTreeMap;

const PERIOD_US: u64 = 30_000_000;
const TICKS: u64 = 4;

/// Query templates over the indoor-climate preset, spanning band,
/// absolute-band, general, and aggregate predicates.
fn sql(template: usize, c: f64) -> String {
    match template % 5 {
        0 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} SAMPLE PERIOD 30"
        ),
        1 => format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < {} SAMPLE PERIOD 30",
            c * 0.2
        ),
        2 => format!(
            "SELECT A.hum, B.pres FROM Sensors A, Sensors B \
             WHERE A.pres / B.pres > {} SAMPLE PERIOD 30",
            1.0 + c * 1e-4
        ),
        3 => format!(
            "SELECT MIN(|A.temp - B.temp|) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {} SAMPLE PERIOD 30",
            c * 0.5
        ),
        _ => format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| >= {c} SAMPLE PERIOD 30"
        ),
    }
}

/// Bitwise result equality: same rows (as f64 bit patterns, order-free via
/// sort), same aggregates, same contributor set.
fn assert_bit_identical(served: &GroupOutcome, solo: &GroupOutcome, ctx: &str) {
    assert_eq!(
        served.contributors, solo.contributors,
        "{ctx}: contributors"
    );
    match (&*served.result, &*solo.result) {
        (JoinResult::Rows(a), JoinResult::Rows(b)) => {
            let bits = |rows: &Vec<Vec<f64>>| {
                let mut v: Vec<Vec<u64>> = rows
                    .iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect())
                    .collect();
                v.sort();
                v
            };
            assert_eq!(bits(a), bits(b), "{ctx}: row payloads");
        }
        (JoinResult::Aggregate(a), JoinResult::Aggregate(b)) => {
            let ab: Vec<Option<u64>> = a.iter().map(|v| v.map(f64::to_bits)).collect();
            let bb: Vec<Option<u64>> = b.iter().map(|v| v.map(f64::to_bits)).collect();
            assert_eq!(ab, bb, "{ctx}: aggregates");
        }
        _ => panic!("{ctx}: result kinds differ"),
    }
}

#[derive(Debug, Clone)]
struct Tenant {
    dep: usize,
    sql: String,
    every: u64,
    admit_tick: u64,
    cancel_tick: Option<u64>,
}

/// Cancellation, when it happens, lands strictly after admission and
/// inside the run.
fn cancel_tick(admit_tick: u64, cancel_raw: u64) -> Option<u64> {
    (cancel_raw > 0)
        .then(|| admit_tick + cancel_raw)
        .filter(|&t| t < TICKS)
}

/// Drives `tenants` through a two-deployment server for [`TICKS`] ticks and
/// checks every tenant-epoch it emits against a solo `GroupRunner` replay
/// of that tenant on its registration snapshot. Returns the server's
/// (tenant-epochs, plan-epochs).
fn check_against_solo_replay(
    seed: u64,
    n0: usize,
    n1: usize,
    tenants: &[Tenant],
) -> Result<(u64, u64), TestCaseError> {
    let specs = [
        DeploymentSpec::new("d0", n0, seed),
        DeploymentSpec::new("d1", n1, seed.wrapping_add(7919)),
    ];
    let mut server = Server::new(ServeConfig {
        period_us: PERIOD_US,
        ..ServeConfig::default()
    });
    for spec in &specs {
        server.add_deployment(spec).unwrap();
    }

    // Drive the server; collect each tenant's (tick, outcome) stream.
    let mut served: BTreeMap<u64, Vec<(u64, GroupOutcome)>> = BTreeMap::new();
    for tick in 0..TICKS {
        for (i, t) in tenants.iter().enumerate() {
            if t.admit_tick == tick {
                let immediate = server.submit(Submission {
                    tenant: TenantId(i as u64),
                    deployment: format!("d{}", t.dep),
                    sql: t.sql.clone(),
                    every: t.every,
                });
                prop_assert!(immediate.is_none(), "no immediate rejection expected");
            }
            if t.cancel_tick == Some(tick) {
                prop_assert!(server.cancel(TenantId(i as u64)), "tenant was live");
            }
        }
        let report = server.tick().unwrap();
        for d in &report.decisions {
            prop_assert!(d.admitted(), "all submissions fit: {d:?}");
        }
        for te in report.epochs {
            prop_assert!(te.complete);
            served
                .entry(te.tenant.0)
                .or_default()
                .push((tick, te.outcome));
        }
    }

    // Replay every tenant solo on its registration snapshot.
    for (i, t) in tenants.iter().enumerate() {
        let spec = &specs[t.dep];
        let mut snet = spec.build().unwrap();
        if t.admit_tick > 0 {
            snet.resample(&spec.fields, spec.seed.wrapping_add(t.admit_tick));
        }
        let cq = snet.compile(&parse(&t.sql).unwrap()).unwrap();
        let mut runner = GroupRunner::new(server.config().protocol.clone(), PERIOD_US);
        runner.group_mut().register(&snet, cq, t.every);
        if let Some(cancel) = t.cancel_tick {
            runner.remove_at(cancel - t.admit_tick, QueryId(0));
        }
        let reports = runner
            .run(
                &mut snet,
                TICKS - t.admit_tick,
                &spec.fields,
                spec.seed.wrapping_add(t.admit_tick + 1),
            )
            .unwrap();

        let solo: Vec<(u64, GroupOutcome)> = reports
            .iter()
            .enumerate()
            .flat_map(|(e, (_, r))| {
                r.outcomes
                    .iter()
                    .map(move |o| (t.admit_tick + e as u64, o.clone()))
            })
            .collect();
        let stream = served.remove(&(i as u64)).unwrap_or_default();
        prop_assert_eq!(
            stream.len(),
            solo.len(),
            "tenant {}: due-epoch count (server {:?} vs solo {:?})",
            i,
            stream.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            solo.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        );
        for ((served_tick, served_out), (solo_tick, solo_out)) in stream.iter().zip(&solo) {
            prop_assert_eq!(served_tick, solo_tick, "tenant {}: due tick", i);
            assert_bit_identical(
                served_out,
                solo_out,
                &format!("tenant {i} tick {served_tick}"),
            );
        }
    }
    // No tenant got results it never asked for.
    prop_assert!(served.is_empty(), "unexpected tenants: {:?}", served.keys());
    let m = server.metrics();
    Ok(m.deployments()
        .iter()
        .fold((0, 0), |(q, p), d| (q + d.query_epochs, p + d.plan_epochs)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random tenant mixes against two deployments: every tenant-epoch the
    /// server emits matches a solo `GroupRunner` replay bit for bit, and
    /// the two timelines are due at exactly the same ticks.
    #[test]
    fn serving_matches_solo_group_runner(
        seed in 0u64..1000,
        n0 in 30usize..48,
        n1 in 30usize..48,
        raw in prop::collection::vec(
            (0usize..2, 0usize..5, 2.0f64..5.0, 1u64..4, 0u64..3, 0u64..4),
            1..6,
        ),
    ) {
        let tenants: Vec<Tenant> = raw
            .into_iter()
            .map(|(dep, template, c, every, admit_tick, cancel_raw)| Tenant {
                dep,
                sql: sql(template, c),
                every,
                admit_tick,
                cancel_tick: cancel_tick(admit_tick, cancel_raw),
            })
            .collect();
        check_against_solo_replay(seed, n0, n1, &tenants)?;
    }

    /// The same property with the tenants drawn from three SQL texts, so
    /// most of them subscribe to a plan another tenant built — often on an
    /// earlier snapshot, with another `every`, and surviving its creator's
    /// cancellation. Each still sees exactly its solo run.
    #[test]
    fn tenants_sharing_plans_match_solo_group_runner(
        seed in 0u64..1000,
        n0 in 30usize..48,
        n1 in 30usize..48,
        raw in prop::collection::vec(
            (0usize..2, 0usize..3, 1u64..4, 0u64..3, 0u64..4),
            4..10,
        ),
    ) {
        let tenants: Vec<Tenant> = raw
            .into_iter()
            .map(|(dep, text, every, admit_tick, cancel_raw)| Tenant {
                dep,
                sql: sql(text, 3.0),
                every,
                admit_tick,
                cancel_tick: cancel_tick(admit_tick, cancel_raw),
            })
            .collect();
        let (tenant_epochs, plan_epochs) = check_against_solo_replay(seed, n0, n1, &tenants)?;
        // Four or more tenants over two deployments and three texts: a
        // deployment's tick never runs more than three plans.
        prop_assert!(plan_epochs <= tenant_epochs);
        prop_assert!(plan_epochs <= 2 * 3 * TICKS, "{plan_epochs} plan-epochs");
    }
}

/// The 65th concurrent query on a one-group deployment draws a structured
/// `DeploymentFull`, and a slot freed by cancellation is admittable again.
#[test]
fn k64_deployment_full_rejection() {
    let mut server = Server::new(ServeConfig {
        max_groups: 1,
        ..ServeConfig::default()
    });
    server
        .add_deployment(&DeploymentSpec::new("d0", 30, 5))
        .unwrap();
    for i in 0..65u64 {
        server.submit(Submission {
            tenant: TenantId(i),
            deployment: "d0".into(),
            sql: sql(0, 4.0),
            every: 1,
        });
    }
    let report = server.tick().unwrap();
    assert_eq!(report.decisions.len(), 65);
    assert_eq!(
        report.decisions.iter().filter(|d| d.admitted()).count(),
        64,
        "exactly MAX_GROUP_QUERIES live queries admitted"
    );
    match &report.decisions[64] {
        Decision::Rejected { tenant, reason } => {
            assert_eq!(*tenant, TenantId(64));
            assert_eq!(*reason, RejectReason::DeploymentFull);
        }
        d => panic!("65th submission should be rejected, got {d:?}"),
    }
    assert_eq!(server.metrics().totals.admitted, 64);
    assert_eq!(server.metrics().totals.rejected_full, 1);

    // Cancel one → the live count drops below 64 → the next tenant fits.
    assert!(server.cancel(TenantId(3)));
    server.submit(Submission {
        tenant: TenantId(100),
        deployment: "d0".into(),
        sql: sql(1, 3.0),
        every: 2,
    });
    let report = server.tick().unwrap();
    assert!(
        report.decisions.iter().all(Decision::admitted),
        "freed slot admits a newcomer: {:?}",
        report.decisions
    );
}

/// Submissions beyond the bounded queue are shed immediately with a
/// structured decision, and the metrics account for every one.
#[test]
fn bounded_queue_sheds_overload() {
    let mut server = Server::new(ServeConfig {
        queue_depth: 4,
        ..ServeConfig::default()
    });
    server
        .add_deployment(&DeploymentSpec::new("d0", 30, 5))
        .unwrap();
    let mut shed = 0;
    for i in 0..7u64 {
        match server.submit(Submission {
            tenant: TenantId(i),
            deployment: "d0".into(),
            sql: sql(0, 4.0),
            every: 1,
        }) {
            None => {}
            Some(Decision::Rejected {
                reason: RejectReason::Shed,
                tenant,
            }) => {
                shed += 1;
                assert!(tenant.0 >= 4, "only overflow arrivals are shed");
            }
            Some(d) => panic!("unexpected immediate decision {d:?}"),
        }
    }
    assert_eq!(shed, 3);
    assert_eq!(server.queue_len(), 4);
    assert_eq!(server.metrics().totals.shed, 3);
    assert_eq!(server.metrics().totals.submitted, 7);

    let report = server.tick().unwrap();
    assert_eq!(report.decisions.len(), 4, "queued submissions all decided");
    assert_eq!(server.metrics().totals.admitted, 4);
}

/// Unknown deployments and duplicate tenants are refused at submit time.
#[test]
fn structured_immediate_rejections() {
    let mut server = Server::new(ServeConfig::default());
    server
        .add_deployment(&DeploymentSpec::new("d0", 30, 5))
        .unwrap();
    let sub = |tenant: u64, deployment: &str| Submission {
        tenant: TenantId(tenant),
        deployment: deployment.into(),
        sql: sql(0, 4.0),
        every: 1,
    };
    match server.submit(sub(0, "nope")) {
        Some(Decision::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::UnknownDeployment("nope".into()));
        }
        d => panic!("expected unknown-deployment rejection, got {d:?}"),
    }
    assert!(server.submit(sub(1, "d0")).is_none());
    match server.submit(sub(1, "d0")) {
        Some(Decision::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::DuplicateTenant, "still queued");
        }
        d => panic!("expected duplicate-tenant rejection, got {d:?}"),
    }
    server.tick().unwrap();
    match server.submit(sub(1, "d0")) {
        Some(Decision::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::DuplicateTenant, "already admitted");
        }
        d => panic!("expected duplicate-tenant rejection, got {d:?}"),
    }
    // Invalid SQL is decided at admission, not at submit.
    server.submit(Submission {
        tenant: TenantId(2),
        deployment: "d0".into(),
        sql: "SELECT garbage FROM nowhere".into(),
        every: 1,
    });
    let report = server.tick().unwrap();
    assert!(report.decisions.iter().any(|d| matches!(
        d,
        Decision::Rejected {
            tenant: TenantId(2),
            reason: RejectReason::InvalidQuery(_),
        }
    )));
    assert_eq!(server.metrics().totals.rejected_invalid, 1);
    assert_eq!(server.metrics().totals.rejected_duplicate, 2);
    assert_eq!(server.metrics().totals.rejected_unknown_deployment, 1);
    assert_eq!(server.metrics().totals.rejected(), 4);
}
