//! Liveness-projected exactness under node churn.
//!
//! The churn subsystem's contract: under any schedule of crash-stop
//! failures, reboots with state loss, and revivals, an execution's result is
//! *bit-identical* to a lossless join over the tuples of the contributing
//! set C — the nodes that participated at query start, were alive at query
//! end, and were attached to the routing tree at query end. Only rows whose
//! data was actually hosted on departed nodes are lost; everything else
//! (proxy re-election, origin restores, filter-population reconciliation)
//! keeps surviving rows intact.

use proptest::prelude::*;
use sensjoin_core::{
    ContinuousSensJoin, ExternalJoin, JoinMethod, QueryGroup, SensJoin, SensJoinConfig,
    SensorNetwork, SensorNetworkBuilder,
};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_relation::NodeId;
use sensjoin_sim::{ChurnAction, ChurnTimeline};

/// The paper's Q1: the minimal distance between two points with a
/// temperature difference over a threshold, here one every seed's field
/// spans.
const Q1: &str = "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
                  WHERE A.temp - B.temp > 1.0 ONCE";

/// An equality join: each node pairs with itself at least.
const EQUI: &str = "SELECT A.hum, B.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp ONCE";

/// The observed temperature span of `s`'s readings (`attr_bounds` widens
/// it by 5 % on each side).
fn temp_span(s: &SensorNetwork) -> f64 {
    let (lo, hi) = s.attr_bounds("temp").expect("a temp attribute");
    (hi - lo) / 1.1
}

/// The smallest temperature span of the fields a continuous test of `seed`
/// draws on `s` over `rounds` rounds.
fn min_span(s: &SensorNetwork, seed: u64, rounds: u64) -> f64 {
    let mut probe = s.clone();
    let mut span = temp_span(&probe);
    for round in 1..rounds {
        probe.resample(&presets::indoor_climate(), seed.wrapping_add(round));
        span = span.min(temp_span(&probe));
    }
    span
}

/// The band join, its threshold half of `span`: readings that span as much
/// answer the pair of their extremes at least.
fn band(span: f64) -> String {
    format!(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > {:.3} ONCE",
        span / 2.0
    )
}

/// The band join over readings that span `span`, [`Q1`] and [`EQUI`].
fn queries(span: f64) -> [String; 3] {
    [band(span), Q1.to_owned(), EQUI.to_owned()]
}

/// The continuous form of a `ONCE` query.
fn continuous(sql: &str) -> String {
    sql.replace("ONCE", "SAMPLE PERIOD 30")
}

const N: usize = 80;

fn snet(seed: u64) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(300.0, 300.0))
        .placement(Placement::UniformRandom { n: N })
        .seed(seed)
        .build()
        .unwrap()
}

/// A churn schedule: (boundary, victim, crash?) triples. One-shot
/// executions poll boundary 0 (pre-start), 1 (post-collection) and
/// 2 (post-filter); later boundaries never fire and exercise the
/// exhaustion path.
fn schedule_strategy() -> impl Strategy<Value = Vec<(u32, u16, bool)>> {
    prop::collection::vec((0..4u32, 0..(N as u16), any::<bool>()), 0..12)
}

fn timeline(schedule: &[(u32, u16, bool)]) -> ChurnTimeline {
    let mut tl = ChurnTimeline::new();
    for &(b, v, crash) in schedule {
        let action = if crash {
            ChurnAction::Crash
        } else {
            ChurnAction::Revive
        };
        tl = tl.at_boundary(b, NodeId(v as u32), action);
    }
    tl
}

/// Nodes alive and attached right now.
fn live_attached(s: &SensorNetwork) -> Vec<bool> {
    (0..s.len() as u32)
        .map(|v| {
            let v = NodeId(v);
            s.net().is_alive(v) && s.net().routing().depth(v).is_some()
        })
        .collect()
}

/// Makes `twin`'s alive set equal `mask` (twin has no churn timeline of its
/// own; its tree self-heals through the same localized repair path).
fn sync_alive(twin: &mut SensorNetwork, mask: &[bool]) {
    let base = twin.net().base();
    for (i, &want_alive) in mask.iter().enumerate() {
        let v = NodeId(i as u32);
        if v == base {
            continue;
        }
        if want_alive && !twin.net().is_alive(v) {
            twin.net_mut().revive_node(v);
        } else if !want_alive && twin.net().is_alive(v) {
            twin.net_mut().fail_node(v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot SENS-Join: the churned result equals a lossless external
    /// join over a twin network where exactly the non-contributing nodes
    /// are failed up front.
    #[test]
    fn one_shot_liveness_projected_exactness(
        seed in 1..48u64,
        schedule in schedule_strategy(),
    ) {
        let tl = timeline(&schedule);

        // P0 — the start population: what the pre-start boundary leaves
        // alive and attached. Replicated on a probe twin (same build, same
        // timeline, one boundary poll).
        let mut probe = snet(seed);
        probe.net_mut().set_churn(Some(tl.clone()));
        probe.net_mut().apply_churn(0);
        let p0 = live_attached(&probe);

        for sql in queries(temp_span(&snet(seed))) {
            let mut s = snet(seed);
            s.net_mut().set_churn(Some(tl.clone()));
            let cq = s.compile(&parse(&sql).unwrap()).unwrap();
            let out = SensJoin::default().execute(&mut s, &cq).unwrap();

            // C: participated at start, alive and attached at the end.
            let end = live_attached(&s);
            let c: Vec<bool> = p0.iter().zip(&end).map(|(&a, &b)| a && b).collect();

            // `complete` is honest: true iff no participant fell out of C.
            let all_survived = p0.iter().zip(&c).all(|(&p, &c)| !p || c);
            prop_assert_eq!(out.complete, all_survived);
            if schedule.is_empty() {
                prop_assert!(!out.churned);
            }

            // Twin: exactly C is alive. If the deaths partition C
            // differently than on the churned network (repair seams), the
            // twin is not a valid reference — skip.
            let mut twin = snet(seed);
            sync_alive(&mut twin, &c);
            prop_assume!(live_attached(&twin) == c);
            let reference = ExternalJoin.execute(&mut twin, &cq).unwrap();
            prop_assert!(
                out.result.same_result(&reference.result),
                "{}: churned result diverged from the lossless join over the survivors",
                sql
            );
        }
    }

    /// Continuous rounds under churn: every round's result equals a
    /// lossless one-shot join over the currently live attached population.
    #[test]
    fn continuous_liveness_projected_exactness(
        seed in 1..32u64,
        schedule in prop::collection::vec((0..5u32, 0..(N as u16), any::<bool>()), 0..10),
    ) {
        for sql in queries(min_span(&snet(seed), seed, 5)) {
            let mut s = snet(seed);
            s.net_mut().set_churn(Some(timeline(&schedule)));
            let cq = s.compile(&parse(&continuous(&sql)).unwrap()).unwrap();
            let ref_cq = s.compile(&parse(&sql).unwrap()).unwrap();
            let mut cont = ContinuousSensJoin::new();
            let mut twin = snet(seed);
            let specs = presets::indoor_climate();
            for round in 0..5u64 {
                if round > 0 {
                    s.resample(&specs, seed.wrapping_add(round));
                    twin.resample(&specs, seed.wrapping_add(round));
                }
                let out = cont.execute_round(&mut s, &cq).unwrap();
                prop_assert!(out.complete, "{}: round {} incomplete, no loss", sql, round);
                let live = live_attached(&s);
                sync_alive(&mut twin, &live);
                prop_assume!(live_attached(&twin) == live);
                let reference = ExternalJoin.execute(&mut twin, &ref_cq).unwrap();
                prop_assert!(
                    out.result.same_result(&reference.result),
                    "{}: round {} diverged from the live-population join", sql, round
                );
            }
        }
    }

    /// Multi-query epochs under churn: every due query's result equals its
    /// twin epoch over the synced live population.
    #[test]
    fn multi_query_liveness_projected_exactness(
        seed in 1..32u64,
        schedule in prop::collection::vec((0..4u32, 0..(N as u16), any::<bool>()), 0..10),
    ) {
        let mut s = snet(seed);
        s.net_mut().set_churn(Some(timeline(&schedule)));
        let mut twin = snet(seed);
        let sqls = [
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30",
            "SELECT B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30",
        ];
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let mut group_twin = QueryGroup::new(SensJoinConfig::default());
        for sql in sqls {
            let q = parse(sql).unwrap();
            let cq = s.compile(&q).unwrap();
            let cqt = twin.compile(&q).unwrap();
            group.register(&s, cq, 1);
            group_twin.register(&twin, cqt, 1);
        }
        let specs = presets::indoor_climate();
        for epoch in 0..4u64 {
            if epoch > 0 {
                s.resample(&specs, seed.wrapping_add(epoch));
                twin.resample(&specs, seed.wrapping_add(epoch));
            }
            let a = group.execute_epoch(&mut s).unwrap();
            prop_assert!(a.complete, "epoch {} incomplete on a lossless channel", epoch);
            let live = live_attached(&s);
            sync_alive(&mut twin, &live);
            prop_assume!(live_attached(&twin) == live);
            let b = group_twin.execute_epoch(&mut twin).unwrap();
            prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
            for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
                prop_assert!(
                    oa.result.same_result(&ob.result),
                    "epoch {} diverged from the twin epoch", epoch
                );
            }
        }
    }
}

/// Regression: crash + revive of the same node at the same boundary must
/// not double-count the node's tuple. The reconciliation used to judge
/// proxied rows by the *post-boundary* alive mask alone — a same-boundary
/// revival made the victim look alive again, so its row survived at the
/// treecut proxy while the revival path re-contributed it.
#[test]
fn same_boundary_crash_revive_is_exact() {
    for seed in 1..20u64 {
        let sql = band(temp_span(&snet(seed)));
        let cq = snet(seed).compile(&parse(&sql).unwrap()).unwrap();
        let reference = ExternalJoin.execute(&mut snet(seed), &cq).unwrap();
        for v in 1..N as u32 {
            let mut s = snet(seed);
            let tl = ChurnTimeline::new()
                .at_boundary(1, NodeId(v), ChurnAction::Crash)
                .at_boundary(1, NodeId(v), ChurnAction::Revive);
            s.net_mut().set_churn(Some(tl));
            let out = SensJoin::default().execute(&mut s, &cq).unwrap();
            // Everyone survived to the end, so the result must equal the
            // clean lossless join (modulo repair-seam partitions).
            if !live_attached(&s).iter().all(|&a| a) {
                continue;
            }
            assert!(
                out.result.same_result(&reference.result),
                "seed {seed}, victim {v}: crash+revive at one boundary diverged"
            );
        }
    }
}

/// A sampled MTBF/MTTR timeline drives repeated one-shot executions to
/// exhaustion; every execution stays liveness-projected exact and the whole
/// run is deterministic across identically-seeded twins.
#[test]
fn sampled_timeline_runs_to_exhaustion_deterministically() {
    let build = || {
        let mut s = snet(7);
        let tl =
            ChurnTimeline::sample(s.len(), s.net().base(), 400_000.0, 300_000.0, 4_000_000, 99);
        s.net_mut().set_churn(Some(tl));
        s
    };
    let sql = band(temp_span(&build()));
    let cq = build().compile(&parse(&sql).unwrap()).unwrap();
    let mut a = build();
    let mut b = build();
    let mut churn_seen = false;
    for _ in 0..12 {
        let oa = SensJoin::default().execute(&mut a, &cq).unwrap();
        let ob = SensJoin::default().execute(&mut b, &cq).unwrap();
        assert!(oa.result.same_result(&ob.result), "twin runs diverged");
        assert_eq!(oa.complete, ob.complete);
        assert_eq!(oa.churned, ob.churned);
        churn_seen |= oa.churned;
    }
    assert!(churn_seen, "timeline never fired — test is vacuous");
    assert_eq!(
        a.net().alive_mask(),
        b.net().alive_mask(),
        "twin alive sets diverged"
    );
}
