//! Parser robustness: arbitrary input must never panic, every successfully
//! parsed query must round-trip through compilation checks without internal
//! inconsistencies, and no nesting depth can overflow a stack.

use proptest::prelude::*;
use sensjoin_query::{eval, holds, parse, CompiledQuery, Interval, MAX_EXPR_DEPTH};
use sensjoin_relation::{AttrType, Attribute, Schema};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings: parse returns Ok or Err, never panics.
    #[test]
    fn arbitrary_strings_never_panic(s in "\\PC{0,200}") {
        let _ = parse(&s);
    }

    /// Strings made of dialect tokens: much higher parse success rate, same
    /// no-panic requirement, and parsed queries compile or fail cleanly.
    #[test]
    fn token_soup_never_panics(
        toks in prop::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("AND"), Just("OR"),
                Just("NOT"), Just("ONCE"), Just("SAMPLE"), Just("PERIOD"), Just("MIN"),
                Just("("), Just(")"), Just(","), Just("."), Just("|"),
                Just("+"), Just("-"), Just("*"), Just("/"), Just("<"), Just(">"),
                Just("="), Just("A"), Just("B"), Just("Sensors"), Just("temp"),
                Just("distance"), Just("abs"), Just("1"), Just("2.5"),
            ],
            0..30,
        )
    ) {
        let s = toks.join(" ");
        if let Ok(q) = parse(&s) {
            let schema = Schema::new(
                "Sensors",
                vec![
                    Attribute::new("x", AttrType::Meters),
                    Attribute::new("y", AttrType::Meters),
                    Attribute::new("temp", AttrType::Celsius),
                ],
            );
            let schemas: Vec<Schema> = q.from.iter().map(|_| schema.clone()).collect();
            // Compiling may fail (unknown aliases, type errors) but must not
            // panic; on success the invariants hold.
            if let Ok(cq) = CompiledQuery::compile(&q, &schemas) {
                for r in 0..cq.num_relations() {
                    // Join attributes are referenced attributes.
                    for a in cq.join_attrs(r) {
                        prop_assert!(cq.referenced_attrs(r).contains(a));
                    }
                }
            }
        }
    }

    /// Well-formed generated queries always parse and compile.
    #[test]
    fn generated_queries_accepted(
        c in -100.0f64..100.0,
        op in prop_oneof![Just("<"), Just(">"), Just("<="), Just(">="), Just("="), Just("!=")],
        agg in prop_oneof![Just(""), Just("MIN"), Just("MAX"), Just("AVG"), Just("SUM"), Just("COUNT")],
    ) {
        let select = if agg.is_empty() {
            "A.temp".to_owned()
        } else {
            format!("{agg}(A.temp)")
        };
        let sql = format!(
            "SELECT {select} FROM Sensors A, Sensors B WHERE A.temp - B.temp {op} {c} ONCE"
        );
        let q = parse(&sql).expect("generated SQL parses");
        let schema = Schema::new(
            "Sensors",
            vec![Attribute::new("temp", AttrType::Celsius)],
        );
        CompiledQuery::compile(&q, &[schema.clone(), schema]).expect("compiles");
    }
}

/// The ways to nest an expression, each as a WHERE clause over `A.x` and
/// `B.x` of exactly `depth` levels ([`MAX_EXPR_DEPTH`]'s count): a
/// comparison of two leaves is 2, and every parenthesis pair, unary minus,
/// `NOT` and chained `AND` / `OR` adds one.
fn nested_where(shape: &str, depth: usize) -> String {
    let k = depth - 2;
    let cmp = "A.x < B.x";
    match shape {
        "parentheses" => format!("{}{cmp}{}", "(".repeat(k), ")".repeat(k)),
        "unary minus" => format!("{}{cmp}", "-".repeat(k)),
        "NOT" => format!("{}{cmp}", "NOT ".repeat(k)),
        "AND chain" => format!("{cmp}{}", " AND A.x < B.x".repeat(k)),
        "OR chain" => format!("{cmp}{}", " OR A.x < B.x".repeat(k)),
        _ => unreachable!("no shape {shape}"),
    }
}

const SHAPES: [&str; 5] = ["parentheses", "unary minus", "NOT", "AND chain", "OR chain"];

fn sql(predicate: &str) -> String {
    format!("SELECT A.x FROM S A, S B WHERE {predicate} ONCE")
}

#[test]
fn expressions_nest_to_the_bound_and_no_deeper() {
    let too_deep = format!("parse error: expression nested deeper than {MAX_EXPR_DEPTH}");
    for shape in SHAPES {
        assert!(
            parse(&sql(&nested_where(shape, MAX_EXPR_DEPTH))).is_ok(),
            "{shape} at the bound"
        );
        // One level more, and far more: refused by name, not by a stack
        // overflow (which 5 000 parentheses were before the bound).
        for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
            let got = parse(&sql(&nested_where(shape, depth))).map(|_| ());
            assert_eq!(
                got.map_err(|e| e.to_string()),
                Err(too_deep.clone()),
                "{shape} at {depth}"
            );
        }
    }
    // The bound counts enclosing constructs of every kind together.
    let half = MAX_EXPR_DEPTH / 2;
    let mixed = format!("{}{}", "-(".repeat(half), ")".repeat(half));
    assert!(parse(&sql(&format!("{mixed}A.x < B.x"))).is_err());
}

/// What [`MAX_EXPR_DEPTH`] promises: a query nested that deep goes through
/// every recursive pass — parse, compile (and so classify), both
/// evaluators, clone, compare, format and drop — within half the smallest
/// worker stack (2 MiB), in whatever build runs the test.
#[test]
fn the_depth_bound_fits_half_the_smallest_stack() {
    let run = || {
        let schema = Schema::new("S", vec![Attribute::new("x", AttrType::Meters)]);
        for shape in SHAPES {
            let predicate = nested_where(shape, MAX_EXPR_DEPTH);
            for sql in [
                sql(&predicate),
                // The same depth in a SELECT item (a number, so the
                // parentheses hold an arithmetic expression there).
                format!(
                    "SELECT {} FROM S A, S B ONCE",
                    predicate
                        .replace("A.x < B.x", "A.x - B.x")
                        .replace("NOT ", "-")
                ),
            ] {
                let q = parse(&sql).expect("at the bound");
                let Ok(cq) = CompiledQuery::compile(&q, &[schema.clone(), schema.clone()]) else {
                    // `A.x AND …` in a SELECT item is a type error, found
                    // by the same recursion.
                    assert!(sql.contains(" AND ") || sql.contains(" OR "), "{sql}");
                    continue;
                };
                let point = |_: usize, _: usize| 1.0;
                let cell = |_: usize, _: usize| Interval::new(0.0, 2.0);
                for p in cq.join_preds() {
                    holds(p, &point);
                    holds(p, &cell);
                }
                for s in cq.select() {
                    eval(&s.expr, &point);
                    eval(&s.expr, &cell);
                }
                assert_eq!(cq.clone(), cq);
                assert_eq!(q.clone(), q);
                assert!(format!("{q:?}{cq:?}").len() > MAX_EXPR_DEPTH);
            }
        }
    };
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(run)
        .expect("a thread")
        .join()
        .expect("every pass within 1 MiB");
}
