//! Multi-query scheduler equivalence and amortization, end to end: a
//! [`QueryGroup`] running N concurrent queries over drifting snapshots must
//! return, for every due query in every epoch, exactly what a solo
//! `SensJoin` execution computes on that epoch's data — while its single
//! shared Join-Attribute-Collection wave never costs more than the sum of
//! the unshared uploads it replaces, and costs far less when the queries
//! quantize over the same attributes.

use proptest::prelude::*;
use sensjoin::core::{GroupResult, JoinResult, JoinSpace, QueryGroup, QueryId, SoloCost};
use sensjoin::prelude::*;
use sensjoin_query::CompiledQuery;

fn build(seed: u64, n: usize) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(400.0, 400.0))
        .placement(Placement::UniformRandom { n })
        .seed(seed)
        .build()
        .unwrap()
}

/// Query templates across predicate classes and join-attribute sets: band
/// and abs-band over temperature, band over humidity, a spatial join, and a
/// 3-way join — so random groups mix queries with identical, overlapping
/// and disjoint quantization spaces.
fn sql(template: usize, c: f64) -> String {
    match template % 5 {
        0 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} SAMPLE PERIOD 30"
        ),
        1 => format!(
            "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < {} SAMPLE PERIOD 30",
            c * 0.1
        ),
        2 => format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.hum - B.hum > {} SAMPLE PERIOD 30",
            c * 2.0
        ),
        3 => format!(
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < {} SAMPLE PERIOD 30",
            c * 15.0
        ),
        _ => format!(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < {} AND B.temp - C.temp > {c} \
             SAMPLE PERIOD 30",
            c * 0.2
        ),
    }
}

fn compile(snet: &SensorNetwork, s: &str) -> CompiledQuery {
    snet.compile(&parse(s).unwrap()).unwrap()
}

/// Group-executes one epoch and checks every due query against a fresh solo
/// run on the same snapshot (rows as multisets, and contributor sets).
/// Returns (shared collection bytes, solo-equivalent collection bytes).
fn assert_epoch_matches_solo(
    group: &mut QueryGroup,
    snet: &mut SensorNetwork,
    queries: &[(QueryId, &CompiledQuery)],
) -> (u64, u64) {
    let report = group.execute_epoch(snet).unwrap();
    let shared = report.shared_collection_bytes();
    let unshared: u64 = report
        .solo_equivalent
        .iter()
        .map(|c| c.collection_bytes)
        .sum();
    let due: Vec<QueryId> = report.outcomes.iter().map(|o| o.id).collect();
    let expected: Vec<QueryId> = queries.iter().map(|(id, _)| *id).collect();
    assert_eq!(due, expected, "due set mismatch");
    for out in &report.outcomes {
        let (_, cq) = queries.iter().find(|(id, _)| *id == out.id).unwrap();
        let solo = SensJoin::default().execute(snet, cq).unwrap();
        assert!(
            solo.result.same_result(&out.result),
            "query {:?}: solo {} rows vs group {} rows",
            out.id,
            solo.result.len(),
            out.result.len()
        );
        assert_eq!(solo.contributors, out.contributors, "query {:?}", out.id);
    }
    (shared, unshared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random pairs/triples over drifting networks: every epoch, every due
    /// query is bit-identical to its solo run, and the shared collection
    /// never exceeds the unshared uploads it replaces.
    #[test]
    fn group_epochs_equal_solo_runs(
        seed in 0u64..1000,
        n in 60usize..100,
        specs in prop::collection::vec((0usize..5, 2.0f64..5.0), 2..=3),
        resample_seeds in prop::collection::vec(0u64..10_000, 2..4),
    ) {
        let mut snet = build(seed, n);
        let queries: Vec<CompiledQuery> = specs
            .iter()
            .map(|&(t, c)| compile(&snet, &sql(t, c)))
            .collect();
        let mut group = QueryGroup::new(SensJoinConfig::default());
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|q| group.register(&snet, q.clone(), 1))
            .collect();
        let expected: Vec<(QueryId, &CompiledQuery)> =
            ids.iter().copied().zip(queries.iter()).collect();
        for rs in resample_seeds {
            snet.resample(&presets::indoor_climate(), rs);
            let (shared, unshared) =
                assert_epoch_matches_solo(&mut group, &mut snet, &expected);
            prop_assert!(
                shared <= unshared,
                "shared collection {shared} exceeds unshared {unshared}"
            );
        }
    }
}

/// Same-template queries quantize over the same space, so the shared
/// collection approaches the cost of ONE solo collection: growing the group
/// keeps shrinking the per-query share, and at N = 4 the shared wave costs
/// at most half of what the four solo collections transmit.
#[test]
fn shared_collection_savings_grow_with_group_size() {
    let mut snet = build(23, 130);
    let queries: Vec<CompiledQuery> = (0..4)
        .map(|i| compile(&snet, &sql(0, 2.0 + 0.4 * i as f64)))
        .collect();
    let mut shared_at = Vec::new();
    for n in [1usize, 2, 4] {
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for q in &queries[..n] {
            group.register(&snet, q.clone(), 1);
        }
        let report = group.execute_epoch(&mut snet).unwrap();
        shared_at.push((n, report.shared_collection_bytes()));
    }
    let solo_sum: u64 = queries
        .iter()
        .map(|q| {
            SensJoin::default()
                .execute(&mut snet, q)
                .unwrap()
                .stats
                .phase(sensjoin::core::PHASE_COLLECTION)
                .tx_bytes
        })
        .sum();
    // Per-query share shrinks monotonically as the group grows...
    for w in shared_at.windows(2) {
        let (n0, b0) = w[0];
        let (n1, b1) = w[1];
        assert!(
            b1 * n0 as u64 <= b0 * n1 as u64,
            "per-query share grew: {b0}B/{n0}q vs {b1}B/{n1}q"
        );
    }
    // ...and at N = 4 the shared wave undercuts half the solo total.
    let (_, shared4) = shared_at[2];
    assert!(
        2 * shared4 <= solo_sum,
        "shared at N=4 ({shared4} B) > 0.5 x solo sum ({solo_sum} B)"
    );
}

/// Staggered EVERY intervals: queries share collection only on coinciding
/// epochs, and each due subset still matches its solo runs under drift.
#[test]
fn staggered_intervals_stay_exact_under_drift() {
    let mut snet = build(31, 90);
    let q1 = compile(&snet, &sql(0, 2.5));
    let q2 = compile(&snet, &sql(2, 1.5));
    let mut group = QueryGroup::new(SensJoinConfig::default());
    let a = group.register(&snet, q1.clone(), 1);
    let b = group.register(&snet, q2.clone(), 2);
    for epoch in 0..4u64 {
        snet.resample(&presets::indoor_climate(), 500 + epoch);
        let both: Vec<(QueryId, &CompiledQuery)> = vec![(a, &q1), (b, &q2)];
        let only_a: Vec<(QueryId, &CompiledQuery)> = vec![(a, &q1)];
        let expected = if epoch % 2 == 0 { &both } else { &only_a };
        assert_epoch_matches_solo(&mut group, &mut snet, expected);
    }
}

/// With a single due query nothing is amortized: the shared statistics and
/// the solo-equivalent accounting must agree byte-for-byte on every phase,
/// in every epoch, even as the snapshot drifts. This pins the accounting
/// basis — every phase's solo-equivalent is charged per *link* (a payload
/// is paid again on each hop), exactly like the network statistics.
#[test]
fn single_query_solo_equivalent_is_byte_exact() {
    let mut snet = build(41, 110);
    let q = compile(&snet, &sql(0, 2.2));
    let mut group = QueryGroup::new(SensJoinConfig::default());
    group.register(&snet, q.clone(), 1);
    for epoch in 0..3u64 {
        snet.resample(&presets::indoor_climate(), 900 + epoch);
        let r = group.execute_epoch(&mut snet).unwrap();
        let eq = &r.solo_equivalent[0];
        assert_eq!(
            r.shared_collection_bytes(),
            eq.collection_bytes,
            "epoch {epoch} collection"
        );
        assert_eq!(
            r.shared_filter_bytes(),
            eq.filter_bytes,
            "epoch {epoch} filter"
        );
        assert_eq!(
            r.shared_final_bytes(),
            eq.final_bytes,
            "epoch {epoch} final"
        );
    }
}

/// Mid-run removal (and a late registration): the surviving queries keep
/// producing solo-identical results.
#[test]
fn removal_mid_run_keeps_survivors_exact() {
    let mut snet = build(37, 100);
    let q1 = compile(&snet, &sql(0, 3.0));
    let q2 = compile(&snet, &sql(1, 3.0));
    let q3 = compile(&snet, &sql(2, 2.0));
    let mut group = QueryGroup::new(SensJoinConfig::default());
    let a = group.register(&snet, q1.clone(), 1);
    let b = group.register(&snet, q2.clone(), 1);
    snet.resample(&presets::indoor_climate(), 700);
    assert_epoch_matches_solo(&mut group, &mut snet, &[(a, &q1), (b, &q2)]);
    // Remove q1, add q3; drift; survivors and newcomers both stay exact.
    assert!(group.remove(a));
    let c = group.register(&snet, q3.clone(), 1);
    for epoch in 0..2u64 {
        snet.resample(&presets::indoor_climate(), 710 + epoch);
        assert_epoch_matches_solo(&mut group, &mut snet, &[(b, &q2), (c, &q3)]);
    }
}

/// Aggregate and GROUP BY queries ride a group beside a row query: the
/// group's flat join folds the same rows in the same order as a solo run, so
/// every aggregate and every group row is bit-identical to solo's — a NaN,
/// a −0.0 or a last-ulp difference in a sum would fail. Treecut is off:
/// a group decides it on the union of its slots' tuple sizes, so with it on
/// tuples can reach the base in another order than solo's, and a SUM or AVG
/// folded in another order may differ in its last bits.
#[test]
fn aggregate_and_grouped_queries_match_solo_bitwise() {
    let mut snet = build(43, 110);
    let queries = [
        compile(
            &snet,
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)), AVG(A.hum), SUM(B.temp), COUNT(A.temp) \
             FROM Sensors A, Sensors B WHERE A.temp - B.temp > 1.0 SAMPLE PERIOD 30",
        ),
        compile(
            &snet,
            "SELECT A.hum / 10, AVG(B.temp), SUM(A.temp - B.temp), COUNT(B.hum) \
             FROM Sensors A, Sensors B WHERE |A.temp - B.temp| < 0.5 \
             GROUP BY A.hum / 10 SAMPLE PERIOD 30",
        ),
        compile(&snet, &sql(1, 3.0)),
    ];
    let config = SensJoinConfig {
        dmax: 0,
        ..SensJoinConfig::default()
    };
    let mut group = QueryGroup::new(config.clone());
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| group.register(&snet, q.clone(), 1))
        .collect();
    let bits = |row: &[f64]| -> Vec<u64> { row.iter().map(|v| v.to_bits()).collect() };
    for epoch in 0..3u64 {
        snet.resample(&presets::indoor_climate(), 300 + epoch);
        let report = group.execute_epoch(&mut snet).unwrap();
        assert_eq!(report.plans, 3);
        for (out, (&id, q)) in report.outcomes.iter().zip(ids.iter().zip(&queries)) {
            assert_eq!(out.id, id);
            let solo = SensJoin::with_config(config.clone())
                .execute(&mut snet, q)
                .unwrap();
            assert_eq!(solo.contributors, out.contributors, "epoch {epoch}");
            match (&solo.result, &*out.result) {
                (JoinResult::Aggregate(a), GroupResult::Aggregate(b)) => {
                    assert!(a.iter().all(Option::is_some), "premise: rows to fold");
                    let opt = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|x| x.map(f64::to_bits)).collect()
                    };
                    assert_eq!(opt(a), opt(b), "epoch {epoch}: aggregates");
                }
                (JoinResult::Rows(a), GroupResult::Rows(b)) => {
                    // Groups come out in key order in both; plain rows in
                    // the join's emission order.
                    let a: Vec<Vec<u64>> = a.iter().map(|r| bits(r)).collect();
                    let b: Vec<Vec<u64>> = b.iter().map(bits).collect();
                    assert!(a.len() > 1, "premise: several rows or groups");
                    assert_eq!(a, b, "epoch {epoch}: rows of {id:?}");
                }
                (a, b) => panic!("result kinds differ: {a:?} vs {b:?}"),
            }
            assert!(out.result.same_result(&solo.result));
        }
    }
}

/// A group epoch shares one cell table, collection structure and memorized
/// subtree set per *collection class* — the plans whose nodes' cells
/// coincide — and never merges plans whose cells differ. One group mixes a
/// template at two thresholds (one class), the same template with a local
/// predicate (same space, other flags) and the template registered on an
/// earlier snapshot (another space); a second group runs the same mix under
/// `Representation::Raw`, whose collection bytes are per tuple. Every plan's
/// result, contributors and solo cost equal those of a one-plan group
/// registered on the same snapshot (Treecut off, so that solo costs are
/// comparable), and the shared bytes are what the epoch cost before plans
/// shared their cells.
#[test]
fn collection_classes_never_merge_plans_whose_cells_differ() {
    let template = |c: f64, local: &str| {
        format!(
            "SELECT A.hum, B.pres FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c}{local} SAMPLE PERIOD 30"
        )
    };
    // Per representation: shared (collection, filter, final) bytes.
    let mut shared = Vec::new();
    for repr in [Representation::Quadtree, Representation::Raw] {
        let config = SensJoinConfig {
            representation: repr,
            dmax: 0,
            ..SensJoinConfig::default()
        };
        let mut snet = build(23, 90);
        let mut group = QueryGroup::new(config.clone());
        let (mut solo, mut spaces) = (Vec::new(), Vec::new());
        let mut register = |snet: &SensorNetwork, sql: String| {
            let cq = compile(snet, &sql);
            spaces.push(JoinSpace::build(&cq, snet, &config).to_parts());
            let mut alone = QueryGroup::new(config.clone());
            alone.register(snet, cq.clone(), 1);
            solo.push(alone);
            group.register(snet, cq, 1)
        };
        // A plan's space is taken from the readings it is registered on.
        snet.resample(&presets::indoor_climate(), 11);
        let mut ids = vec![register(&snet, template(0.8, ""))];
        snet.resample(&presets::indoor_climate(), 12);
        for sql in [
            template(1.0, ""),
            template(1.5, ""),
            template(1.0, " AND A.hum > 43"),
        ] {
            ids.push(register(&snet, sql));
        }
        assert!(spaces[0] != spaces[1] && spaces[1..].iter().all(|s| *s == spaces[1]));
        snet.resample(&presets::indoor_climate(), 13);
        let report = group.execute_epoch(&mut snet).unwrap();
        assert_eq!(report.plans, 4);
        for ((out, cost), (id, alone)) in report
            .outcomes
            .iter()
            .zip(&report.solo_equivalent)
            .zip(ids.iter().zip(&mut solo))
        {
            assert_eq!(out.id, *id);
            let want = alone.execute_epoch(&mut snet).unwrap();
            let (want_out, want_cost) = (&want.outcomes[0], &want.solo_equivalent[0]);
            assert!(
                out.result.same_result(&*want_out.result),
                "{repr:?} {id:?}: {} rows vs {} alone",
                out.result.len(),
                want_out.result.len()
            );
            assert_eq!(out.contributors, want_out.contributors, "{repr:?} {id:?}");
            let bytes = |c: &SoloCost| (c.collection_bytes, c.filter_bytes, c.final_bytes);
            assert_eq!(bytes(cost), bytes(want_cost), "{repr:?} {id:?}");
        }
        // The premises: every plan answers rows, and the local predicate
        // changes who ships.
        assert!(report.outcomes.iter().all(|out| !out.result.is_empty()));
        assert_ne!(
            report.outcomes[1].contributors, report.outcomes[3].contributors,
            "premise"
        );
        shared.push((
            report.shared_collection_bytes(),
            report.shared_filter_bytes(),
            report.shared_final_bytes(),
        ));
    }
    // What the epoch cost when every plan had cells of its own.
    assert_eq!(shared, [(371, 296, 1183), (2028, 296, 1183)]);
}
