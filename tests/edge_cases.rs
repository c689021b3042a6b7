//! Deterministic edge cases: degenerate networks, empty relations,
//! base-station-only contributions, wide n-way joins.

use sensjoin::core::SensorNetworkError;
use sensjoin::prelude::*;
use sensjoin::quadtree::MAX_RELATIONS;
use sensjoin::query::{CompileError, PredClass};
use sensjoin::relation::{AttrType, Attribute, Schema, SensorRelation};

fn tiny(n: usize) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(120.0, 120.0))
        .placement(Placement::UniformRandom { n })
        .seed(2)
        .build()
        .unwrap()
}

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 0.5 ONCE";

#[test]
fn single_node_network() {
    // The base station is the only node: everything happens locally, no
    // transmissions at all.
    let mut snet = tiny(1);
    let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
    for method in [&ExternalJoin as &dyn JoinMethod, &SensJoin::default()] {
        let out = method.execute(&mut snet, &cq).unwrap();
        assert_eq!(out.stats.total_tx_packets(), 0, "{}", method.name());
        // A lone node can still self-join (SQL semantics) if the predicate
        // allowed it; with a strict inequality on itself it cannot.
        assert!(out.result.is_empty());
    }
}

#[test]
fn two_node_network() {
    let mut snet = tiny(2);
    let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.same_result(&sj.result));
    // The non-base node ships at most a couple of packets per method.
    assert!(ext.stats.total_tx_packets() <= 2);
    assert!(sj.stats.total_tx_packets() <= 4);
}

#[test]
fn four_way_join() {
    let mut snet = tiny(40);
    let q = parse(
        "SELECT A.temp, B.temp, C.temp, D.temp \
         FROM Sensors A, Sensors B, Sensors C, Sensors D \
         WHERE A.temp - B.temp > 1.0 AND B.temp - C.temp > 1.0 \
         AND C.temp - D.temp > 1.0 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    assert_eq!(cq.num_relations(), 4);
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.same_result(&sj.result));
    // Chained strict inequalities: every row is strictly descending.
    if let JoinResult::Rows(rows) = &sj.result {
        for row in rows {
            assert!(row[0] > row[1] && row[1] > row[2] && row[2] > row[3]);
        }
    }
}

/// `n` self-joined copies of `Sensors`, each warmer than the next.
fn descending_chain(n: usize) -> sensjoin::query::Query {
    let from: Vec<String> = (0..n).map(|i| format!("Sensors R{i}")).collect();
    let preds: Vec<String> = (1..n)
        .map(|i| format!("R{}.temp > R{i}.temp", i - 1))
        .collect();
    parse(&format!(
        "SELECT R0.temp, R{}.temp FROM {} WHERE {} ONCE",
        n - 1,
        from.join(", "),
        preds.join(" AND ")
    ))
    .unwrap()
}

#[test]
fn eight_way_join_and_no_wider() {
    // A point's relation flags are one byte: eight relations is the widest
    // join, and one more is a compile error rather than a panic in the
    // executor.
    let mut snet = tiny(11);
    let cq = snet.compile(&descending_chain(MAX_RELATIONS)).unwrap();
    assert_eq!(cq.num_relations(), 8);
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(!sj.result.is_empty());
    assert!(ext.result.same_result(&sj.result));
    let err = snet.compile(&descending_chain(MAX_RELATIONS + 1));
    assert!(
        matches!(
            err,
            Err(SensorNetworkError::Compile(
                CompileError::TooManyRelations { got: 9, max: 8 }
            ))
        ),
        "{err:?}"
    );
}

#[test]
fn base_station_only_relation() {
    // Relation B contains just the base station: its tuple never travels,
    // and relation A's side still matches against it.
    let schema = |name: &str| {
        Schema::new(
            name,
            vec![
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("hum", AttrType::Percent),
            ],
        )
    };
    let probe = tiny(30);
    let base = probe.base();
    let mut snet = SensorNetworkBuilder::new()
        .area(Area::new(120.0, 120.0))
        .placement(Placement::UniformRandom { n: 30 })
        .seed(2)
        .relations(vec![
            SensorRelation::homogeneous(schema("Field")),
            SensorRelation::over_nodes(schema("Gateway"), [base]),
        ])
        .build()
        .unwrap();
    assert_eq!(snet.base(), base);
    let q = parse(
        "SELECT F.hum, G.hum FROM Field F, Gateway G \
         WHERE F.temp - G.temp > 0.2 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.same_result(&sj.result));
    // Oracle: count field nodes warmer than the base by > 0.2.
    let ti = snet.master_index("temp").unwrap();
    let base_t = snet.readings(base)[ti];
    let expect = (0..snet.len() as u32)
        .map(NodeId)
        .filter(|&v| snet.net().routing().depth(v).is_some())
        .filter(|&v| snet.readings(v)[ti] - base_t > 0.2)
        .count();
    assert_eq!(sj.result.len(), expect);
}

#[test]
fn local_predicates_filter_everyone() {
    // A local predicate nobody satisfies: empty result, and SENS-Join's
    // collection degenerates to (nearly) empty traffic.
    let mut snet = tiny(30);
    let q = parse(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp > 10000 AND B.temp > 10000 \
         AND A.temp - B.temp > 0.5 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.is_empty() && sj.result.is_empty());
    assert_eq!(
        ext.stats.total_tx_bytes(),
        0,
        "early selection drops everything"
    );
    assert_eq!(sj.stats.total_tx_bytes(), 0);
}

#[test]
fn constant_false_predicate() {
    let mut snet = tiny(25);
    let q = parse(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE 1 > 2 AND A.temp - B.temp > 0.5 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    assert!(cq.is_const_false());
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(sj.result.is_empty());
    // The filter is empty, so no final-phase traffic.
    assert_eq!(sj.stats.phase(sensjoin::core::PHASE_FINAL).tx_bytes, 0);
}

#[test]
fn or_predicate_across_relations() {
    // Disjunctive join predicates exercise the Kleene-OR path of the
    // conservative pre-join.
    let mut snet = tiny(35);
    let q = parse(
        "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 2.0 OR B.hum - A.hum > 8.0 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    // The whole disjunction is one join predicate (not splittable).
    assert_eq!(cq.join_preds().len(), 1);
    assert_eq!(cq.join_attrs(0).len(), 2); // temp and hum
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    assert!(ext.result.same_result(&sj.result));
}

#[test]
fn nan_at_a_point_joins_nowhere() {
    // `0 · ∞` is NaN at a point but 0 on a cell. Were a NaN comparison true
    // at a point (a `<>`, or a `NOT` over any comparison), the exact join
    // would keep every pair while the pre-join, seeing `0 <> 0`, pruned
    // them all: a false negative. Every comparison with a NaN operand is
    // false, so both methods agree.
    let mut snet = SensorNetworkBuilder::new()
        .area(Area::for_constant_density(300))
        .placement(Placement::UniformRandom { n: 300 })
        .seed(2)
        .build()
        .unwrap();
    let method = SensJoin::with_config(SensJoinConfig {
        dmax: 0,
        ..SensJoinConfig::default()
    });
    for predicate in [
        "A.temp * 0 * 1e400 <> B.temp * 0",
        "NOT (A.temp * 1e308 * 10 * 0 >= B.temp * 0)",
    ] {
        let sql = format!("SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE {predicate} ONCE");
        let cq = snet.compile(&parse(&sql).unwrap()).unwrap();
        let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let sj = method.execute(&mut snet, &cq).unwrap();
        assert!(ext.result.same_result(&sj.result), "{predicate}");
    }
}

#[test]
fn negated_disjunction_splits_into_local_and_band() {
    // `NOT (A.temp < B.temp OR A.hum > 41.5)` is `A.temp >= B.temp AND
    // A.hum <= 41.5`: a band conjunct and a local one, which both methods
    // evaluate where they belong and agree on.
    let mut snet = tiny(35);
    let q = parse(
        "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
         WHERE NOT (A.temp < B.temp OR A.hum > 41.5) ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    assert_eq!(cq.join_preds().len(), 1);
    assert_eq!(cq.local_preds(0).len(), 1);
    assert!(matches!(cq.pred_classes(), [PredClass::Band { .. }]));
    let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
    let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
    let hum = snet.master_index("hum").unwrap();
    let kept = (0..35).filter(|&n| snet.readings(NodeId(n))[hum] <= 41.5);
    assert!(
        (1..35).contains(&kept.count()),
        "the local conjunct selects"
    );
    assert!(!ext.result.is_empty());
    assert!(ext.result.same_result(&sj.result));
}
