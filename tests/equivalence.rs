//! The central correctness property, end to end: every SENS-Join
//! configuration computes exactly the external join's result, on random
//! topologies, random data and a wide family of queries.

use proptest::prelude::*;
use sensjoin::prelude::*;

fn build(seed: u64, n: usize, corr: f64) -> SensorNetwork {
    let mut fields = presets::indoor_climate();
    for f in &mut fields {
        f.correlation_length = (f.correlation_length * corr).max(1.0);
    }
    SensorNetworkBuilder::new()
        .area(Area::new(420.0, 420.0))
        .placement(Placement::UniformRandom { n })
        .fields(fields)
        .seed(seed)
        .build()
        .unwrap()
}

/// Query templates covering operators, aggregates and join shapes.
fn query_strategy() -> impl Strategy<Value = String> {
    let c = -8.0f64..8.0;
    prop_oneof![
        c.clone().prop_map(|c| format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > {c} ONCE"
        )),
        c.clone().prop_map(|c| format!(
            "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < {} AND distance(A.x, A.y, B.x, B.y) > 150 ONCE",
            c.abs() / 8.0
        )),
        c.clone().prop_map(|c| format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| > {} ONCE",
            c.abs() / 4.0
        )),
        c.clone().prop_map(|c| format!(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)), COUNT(A.temp) \
             FROM Sensors A, Sensors B WHERE A.temp - B.temp > {c} ONCE"
        )),
        c.clone().prop_map(|c| format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} AND A.hum - B.hum > 1.0 ONCE"
        )),
        c.clone().prop_map(|c| format!(
            "SELECT A.light, B.light FROM Sensors A, Sensors B \
             WHERE A.temp * 2 - B.temp * 2 > {} OR A.hum - B.hum > 12 ONCE",
            2.0 * c
        )),
        Just(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE A.temp - B.temp > 2 AND B.temp - C.temp > 2 ONCE"
                .to_owned()
        ),
    ]
}

fn config_strategy() -> impl Strategy<Value = SensJoinConfig> {
    (
        prop_oneof![Just(0usize), Just(12), Just(30), Just(48)],
        prop_oneof![Just(0usize), Just(100), Just(500), Just(100_000)],
        any::<bool>(),
        prop_oneof![
            Just(Representation::Quadtree),
            Just(Representation::Raw),
            Just(Representation::Zlib),
        ],
        prop_oneof![Just(0.5f64), Just(1.0), Just(4.0), Just(20.0)],
    )
        .prop_map(|(dmax, mem, sel, representation, scale)| SensJoinConfig {
            dmax,
            filter_memory_limit: mem,
            selective_forwarding: sel,
            representation,
            quantization: QuantizationConfig::new(),
            resolution_scale: scale,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SENS-Join under arbitrary protocol parameters == external join.
    #[test]
    fn sensjoin_equals_external(
        seed in 0u64..1000,
        sql in query_strategy(),
        config in config_strategy(),
        n in 60usize..140,
        corr in prop_oneof![Just(0.02f64), Just(0.3), Just(1.0)],
    ) {
        let mut snet = build(seed, n, corr);
        let q = parse(&sql).unwrap();
        let cq = snet.compile(&q).unwrap();
        let reference = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let out = SensJoin::with_config(config.clone())
            .execute(&mut snet, &cq)
            .unwrap();
        prop_assert!(
            out.result.same_result(&reference.result),
            "divergence: sql={sql} config={config:?} ext_rows={} sens_rows={}",
            reference.result.len(),
            out.result.len()
        );
        prop_assert_eq!(reference.contributors, out.contributors);
    }
}

mod engine_equivalence {
    //! The partitioned base-station engine against the nested-loop
    //! reference it replaced: bit-identical rows (including order),
    //! aggregates and contributor sets on randomized tuples and queries.

    use proptest::prelude::*;
    use sensjoin::core::{exact_join, exact_join_nested};
    use sensjoin::prelude::*;
    use sensjoin::query::CompiledQuery;
    use sensjoin::relation::{AttrType, Attribute, Schema};

    fn schema() -> Schema {
        Schema::new(
            "Sensors",
            vec![
                Attribute::new("x", AttrType::Meters),
                Attribute::new("y", AttrType::Meters),
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("hum", AttrType::Percent),
            ],
        )
    }

    /// Templates covering every predicate class the engine partitions on —
    /// equi (plain and compound sides), band (difference, absolute,
    /// direct), general residuals, three-way joins and aggregates.
    fn query_strategy() -> impl Strategy<Value = String> {
        let c = -6.0f64..6.0;
        prop_oneof![
            Just(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp = B.temp ONCE"
                    .to_owned()
            ),
            Just(
                "SELECT A.x, B.x FROM Sensors A, Sensors B \
                 WHERE A.temp + A.hum = B.temp + B.hum ONCE"
                    .to_owned()
            ),
            c.clone().prop_map(|c| format!(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > {c} ONCE"
            )),
            c.clone().prop_map(|c| format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < {} ONCE",
                c.abs()
            )),
            c.clone().prop_map(|c| format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| > {} ONCE",
                c.abs()
            )),
            c.clone().prop_map(|c| format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| >= {} ONCE",
                c.abs()
            )),
            // The value pool quantizes to a 0.5 grid, so small grid-aligned
            // constants give |a − b| = c real matches to lose.
            c.clone().prop_map(|c| format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| = {} ONCE",
                (c.abs() * 2.0).floor() * 0.5
            )),
            c.clone().prop_map(|c| format!(
                "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
                 WHERE A.temp < B.temp AND A.hum - B.hum > {c} ONCE"
            )),
            c.clone().prop_map(|c| format!(
                "SELECT A.x, B.y FROM Sensors A, Sensors B \
                 WHERE distance(A.x, A.y, B.x, B.y) < {} ONCE",
                20.0 * c.abs()
            )),
            c.clone().prop_map(|c| format!(
                "SELECT MIN(A.temp), COUNT(B.hum) FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp >= {c} ONCE"
            )),
            c.prop_map(|c| format!(
                "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
                 WHERE A.temp = B.temp AND |B.hum - C.hum| < {} ONCE",
                c.abs()
            )),
        ]
    }

    /// Attribute values with heavy collisions (to exercise the hash index),
    /// a continuous range, and the occasional NaN / infinity (to exercise
    /// the index guards — the nested reference defines their semantics).
    fn value_strategy() -> impl Strategy<Value = f64> {
        (0u64..12, -12.0f64..12.0, -300.0f64..300.0).prop_map(|(sel, grid, cont)| match sel {
            0..=5 => (grid * 2.0).floor() * 0.5,
            6..=9 => cont,
            10 => f64::NAN,
            _ => f64::INFINITY,
        })
    }

    fn rows_bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn partitioned_exact_join_equals_nested_descent(
            sql in query_strategy(),
            pool in proptest::collection::vec(
                proptest::collection::vec(value_strategy(), 4),
                0..90,
            ),
        ) {
            let q = parse(&sql).unwrap();
            let schemas: Vec<Schema> = q.from.iter().map(|_| schema()).collect();
            let cq = CompiledQuery::compile(&q, &schemas).unwrap();
            // Distribute the generated pool round-robin over the relations,
            // with distinct origin ids per relation.
            let mut tuples: Vec<Vec<(NodeId, Vec<f64>)>> =
                vec![Vec::new(); cq.num_relations()];
            for (i, values) in pool.into_iter().enumerate() {
                let rel = i % cq.num_relations();
                let id = NodeId((rel * 1000 + i) as u32);
                tuples[rel].push((id, values));
            }
            let new = exact_join(&cq, &tuples);
            let old = exact_join_nested(&cq, &tuples);
            prop_assert_eq!(new.contributors, old.contributors, "contributors: {}", sql);
            match (&new.result, &old.result) {
                (JoinResult::Rows(a), JoinResult::Rows(b)) => {
                    // Bitwise AND order-exact: the partitioned engine must
                    // emit the very sequence of the nested loop.
                    prop_assert_eq!(rows_bits(a), rows_bits(b), "rows: {}", sql);
                }
                (JoinResult::Aggregate(a), JoinResult::Aggregate(b)) => {
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|o| o.map(|v| v.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(a), bits(b), "aggregates: {}", sql);
                }
                (a, b) => prop_assert!(false, "kind mismatch for {}: {:?} vs {:?}", sql, a, b),
            }
        }
    }
}

mod emission_kernel {
    //! Deterministic inputs aimed at the exact join's emission kernel —
    //! candidate runs put back in position order through a bitset, probes
    //! as plain data, contributors as position sets, work-counted chunks —
    //! each against the nested-loop reference: rows (and their order),
    //! aggregates and contributors bit for bit.

    use sensjoin::core::{exact_join, exact_join_nested};
    use sensjoin::prelude::*;
    use sensjoin::query::CompiledQuery;
    use sensjoin::relation::{AttrType, Attribute, Schema};

    type Tuples = Vec<Vec<(NodeId, Vec<f64>)>>;

    fn compile(sql: &str) -> CompiledQuery {
        let schema = Schema::new(
            "Sensors",
            vec![
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("hum", AttrType::Percent),
            ],
        );
        let q = parse(sql).unwrap();
        let schemas: Vec<Schema> = q.from.iter().map(|_| schema.clone()).collect();
        CompiledQuery::compile(&q, &schemas).unwrap()
    }

    /// One relation per `(temp, hum)` list, with distinct origins.
    fn relations(rels: &[&[(f64, f64)]]) -> Tuples {
        rels.iter()
            .enumerate()
            .map(|(r, rows)| {
                rows.iter()
                    .enumerate()
                    .map(|(i, &(t, h))| (NodeId((r * 100_000 + i) as u32), vec![t, h]))
                    .collect()
            })
            .collect()
    }

    /// `n` pseudo-random `(temp, hum)` pairs: temp on a 0.25 grid over
    /// [-8, 8) (so keys collide), hum continuous over [0, 100).
    fn random(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|_| ((next() * 64.0).floor() * 0.25 - 8.0, next() * 100.0))
            .collect()
    }

    fn assert_agree(sql: &str, tuples: &Tuples) -> usize {
        let cq = compile(&format!("{sql} ONCE"));
        let new = exact_join(&cq, tuples);
        let old = exact_join_nested(&cq, tuples);
        assert_eq!(new.contributors, old.contributors, "contributors: {sql}");
        match (&new.result, &old.result) {
            (JoinResult::Rows(a), JoinResult::Rows(b)) => {
                let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
                    rows.iter()
                        .map(|r| r.iter().map(|v| v.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(a), bits(b), "rows: {sql}");
            }
            (JoinResult::Aggregate(a), JoinResult::Aggregate(b)) => {
                let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                    v.iter().map(|o| o.map(f64::to_bits)).collect()
                };
                assert_eq!(bits(a), bits(b), "aggregates: {sql}");
            }
            (a, b) => panic!("kind mismatch for {sql}: {a:?} vs {b:?}"),
        }
        old.result.len()
    }

    const TWO_WAY: &str = "SELECT A.temp, A.hum, B.temp, B.hum FROM Sensors A, Sensors B WHERE";
    const THREE_WAY: &str =
        "SELECT A.temp, B.hum, C.temp FROM Sensors A, Sensors B, Sensors C WHERE";

    /// Every indexable predicate shape of a two-way join.
    const SHAPES: [&str; 12] = [
        "A.temp = B.temp",
        "A.temp < B.temp",
        "A.temp >= B.temp",
        "A.temp - B.temp > 0.5",
        "A.temp - B.temp <= -1.0",
        "|A.temp - B.temp| < 1.0",
        // Two runs of the sorted keys per probe …
        "|A.temp - B.temp| > 1.0",
        "|A.temp - B.temp| >= 1.5",
        "|A.temp - B.temp| = 1.5",
        // … and the degenerate constants: nothing, or no pruning at all.
        "|A.temp - B.temp| < 0.0",
        "|A.temp - B.temp| >= 0.0",
        "|A.temp - B.temp| = 0.0",
    ];

    /// Duplicate keys, both zeros, NaN and both infinities on either side:
    /// NaN keys are in no index, a non-finite difference probe cannot prune
    /// (`ExactProbe::All`), and equal keys must come out in position order.
    #[test]
    fn special_and_duplicate_keys() {
        let special: Vec<(f64, f64)> = [
            1.5,
            0.0,
            f64::NAN,
            -0.0,
            1.5,
            f64::INFINITY,
            -2.0,
            f64::NEG_INFINITY,
            0.0,
            3.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            0.5,
        ]
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as f64))
        .collect();
        let reversed: Vec<(f64, f64)> = special.iter().rev().copied().collect();
        let tuples = relations(&[&special, &reversed]);
        for shape in SHAPES {
            assert_agree(&format!("{TWO_WAY} {shape}"), &tuples);
        }
        // The same keys as the membership side of a shared level.
        assert_agree(
            &format!("{TWO_WAY} |A.temp - B.temp| >= 1.5 AND A.hum - B.hum > -6.0"),
            &tuples,
        );
        assert_agree(
            &format!("{TWO_WAY} A.temp = B.temp AND |A.hum - B.hum| > 2.0"),
            &tuples,
        );
    }

    /// Two and three indexable predicates on one level: the smallest
    /// candidate set drives (through the bitset when it is a band probe,
    /// from its bucket when it is an equi probe), the others are membership
    /// tests — whichever of them is smallest for a given binding.
    #[test]
    fn several_indexes_on_one_level() {
        let tuples = relations(&[&random(120, 7), &random(150, 8)]);
        for preds in [
            "|A.temp - B.temp| < 1.0 AND A.hum - B.hum > 10.0",
            "|A.temp - B.temp| > 6.0 AND |A.hum - B.hum| < 20.0",
            "A.temp = B.temp AND A.hum - B.hum > -20.0",
            "A.temp = B.temp AND |A.hum - B.hum| > 80.0",
            "A.temp - B.temp > -1.0 AND A.temp - B.temp < 1.0 AND A.hum < B.hum",
            // An indexed and a general predicate: the residual decides.
            "|A.temp - B.temp| < 2.0 AND A.hum * B.hum > 2500.0",
        ] {
            let rows = assert_agree(&format!("{TWO_WAY} {preds}"), &tuples);
            assert!(rows > 0, "vacuous case: {preds}");
        }
    }

    /// Three-way joins: indexes on level 1 and on level 2, probed from
    /// either bound relation; a level without any index in between.
    #[test]
    fn three_way_joins() {
        let tuples = relations(&[&random(40, 1), &random(45, 2), &random(50, 3)]);
        for preds in [
            "|A.temp - B.temp| < 1.0 AND B.hum - C.hum > 30.0",
            "|A.temp - B.temp| < 1.0 AND |A.hum - C.hum| < 5.0 AND B.temp = C.temp",
            "A.temp = B.temp AND |B.temp - C.temp| > 7.0",
            // No predicate reaches B before C is bound: level 1 scans.
            "A.temp - C.temp > 6.0 AND B.temp - C.temp > 6.0",
            "A.hum * B.hum > 5000.0 AND |B.temp - C.temp| = 0.25",
        ] {
            let rows = assert_agree(&format!("{THREE_WAY} {preds}"), &tuples);
            assert!(rows > 0, "vacuous case: {preds}");
        }
        assert_agree(
            "SELECT MAX(A.temp), COUNT(C.hum), SUM(B.hum) FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < 0.5 AND B.hum - C.hum > 40.0",
            &tuples,
        );
    }

    /// Relations without tuples and with a single one, on either side and
    /// at every level.
    #[test]
    fn empty_and_single_tuple_relations() {
        let some = random(30, 5);
        let one = [(1.0, 50.0)];
        for rels in [
            [&[][..], &[][..]],
            [&[][..], &some[..]],
            [&some[..], &[][..]],
            [&one[..], &some[..]],
            [&some[..], &one[..]],
            [&one[..], &one[..]],
        ] {
            let tuples = relations(&rels);
            for shape in SHAPES {
                assert_agree(&format!("{TWO_WAY} {shape}"), &tuples);
            }
        }
        for rels in [
            [&some[..], &[][..], &some[..]],
            [&some[..], &some[..], &[][..]],
            [&one[..], &one[..], &one[..]],
        ] {
            assert_agree(
                &format!("{THREE_WAY} |A.temp - B.temp| < 9.0 AND B.hum - C.hum > -200.0"),
                &relations(&rels),
            );
        }
    }

    /// Joins with enough counted work to be cut into chunks (on a host with
    /// more than one thread): chunk-order merging of rows, group keys and
    /// contributor sets. The skewed inputs put nearly all the work under a
    /// few outer tuples — at the front, at the back, in one tuple — so the
    /// cuts fall unevenly and trailing (or leading) shares hold one tuple
    /// or none.
    #[test]
    fn chunked_joins_merge_in_order() {
        let inner = random(400, 11);
        let uniform = random(400, 12);
        // Outer tuples far below every inner key match nothing under the
        // band predicates below; the few at 0.0 match a third of `inner`.
        let cold = (-100.0, 50.0);
        let hot = (0.0, 50.0);
        let skew = |hot_at: &[usize], n: usize| -> Vec<(f64, f64)> {
            (0..n)
                .map(|i| if hot_at.contains(&i) { hot } else { cold })
                .collect()
        };
        for outer in [
            uniform,
            skew(&[0], 3),
            skew(&[2], 3),
            skew(&[0, 1, 2], 600),
            skew(&[597, 598, 599], 600),
            skew(&[300], 601),
        ] {
            let tuples = relations(&[&outer, &inner]);
            for preds in [
                "|A.temp - B.temp| < 3.0",
                "|A.temp - B.temp| > 6.0",
                "A.temp - B.temp > -2.5 AND A.hum - B.hum > -40.0",
                "A.hum * B.hum > 100.0 AND A.temp - B.temp < 90.0",
            ] {
                assert_agree(&format!("{TWO_WAY} {preds}"), &tuples);
            }
            assert_agree(
                "SELECT A.temp, COUNT(B.temp), SUM(B.hum) FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < 3.0 GROUP BY A.temp",
                &tuples,
            );
        }
        // Heavy enough to be chunked whatever the thresholds: ~70 k rows.
        let tuples = relations(&[&random(500, 21), &inner]);
        let rows = assert_agree(&format!("{TWO_WAY} |A.temp - B.temp| < 3.0"), &tuples);
        assert!(rows > 60_000, "{rows} rows");
    }
}

/// A deterministic sweep across coarse resolutions: correctness must be
/// resolution-independent (§V-B: quantization affects cost, never the
/// result).
#[test]
fn resolution_never_affects_result() {
    let mut snet = build(5, 120, 1.0);
    let q = parse(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 4.0 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    let reference = ExternalJoin.execute(&mut snet, &cq).unwrap();
    for scale in [0.1, 1.0, 10.0, 100.0, 1000.0] {
        let out = SensJoin::with_config(SensJoinConfig {
            resolution_scale: scale,
            ..SensJoinConfig::default()
        })
        .execute(&mut snet, &cq)
        .unwrap();
        assert!(
            out.result.same_result(&reference.result),
            "result changed at resolution scale {scale}"
        );
    }
}

/// Coarser resolutions may only *increase* the final-phase traffic
/// (more false positives), never decrease it below the exact need.
#[test]
fn coarser_resolution_is_monotone_in_false_positives() {
    let mut snet = build(9, 150, 1.0);
    let q = parse(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > 5.0 ONCE",
    )
    .unwrap();
    let cq = snet.compile(&q).unwrap();
    let mut last = 0u64;
    for scale in [1.0, 8.0, 64.0] {
        let out = SensJoin::with_config(SensJoinConfig {
            resolution_scale: scale,
            ..SensJoinConfig::default()
        })
        .execute(&mut snet, &cq)
        .unwrap();
        let final_bytes = out.stats.phase(sensjoin::core::PHASE_FINAL).tx_bytes;
        assert!(
            final_bytes >= last,
            "final phase shrank from {last} to {final_bytes} at scale {scale}"
        );
        last = final_bytes;
    }
}
