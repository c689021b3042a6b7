//! Property test: interval evaluation never produces false negatives.
//!
//! This is the correctness core of the SENS-Join pre-join. For any join
//! predicate and any pair of quantization cells, if some concrete values
//! inside the cells satisfy the predicate, then the interval evaluation must
//! report `True` or `Maybe` — never `False`. (The converse may fail: `Maybe`
//! with no witnesses is a tolerated false positive.)

use proptest::prelude::*;
use sensjoin_query::{holds, parse, CompiledQuery, Interval, Tri};
use sensjoin_relation::{AttrType, Attribute, Schema};

fn schema() -> Schema {
    Schema::new(
        "S",
        vec![
            Attribute::new("x", AttrType::Meters),
            Attribute::new("y", AttrType::Meters),
            Attribute::new("t", AttrType::Celsius),
        ],
    )
}

/// A pool of predicate templates exercising every operator the dialect has.
fn predicate_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("A.t - B.t > {c}".to_owned()),
        Just("|A.t - B.t| < {c}".to_owned()),
        Just("|A.t - B.t| <= {c}".to_owned()),
        Just("A.t + B.t >= {c}".to_owned()),
        Just("A.t * B.t < {c}".to_owned()),
        Just("A.t / B.t > {c}".to_owned()),
        Just("distance(A.x, A.y, B.x, B.y) > {c}".to_owned()),
        Just("distance(A.x, A.y, B.x, B.y) <= {c}".to_owned()),
        Just("A.t = B.t".to_owned()),
        Just("A.t != B.t".to_owned()),
        Just("NOT A.t < B.t".to_owned()),
        Just("A.t < B.t OR A.x > B.x".to_owned()),
        Just("A.t < B.t AND A.y <= B.y".to_owned()),
        Just("-A.t < B.t - {c}".to_owned()),
        // `0 · ∞` is NaN at a point and 0 on a cell: the comparisons must
        // not turn the point's NaN into a true.
        Just("A.t * 0 * 1e400 <> B.t * 0".to_owned()),
        Just("NOT (A.t * 1e308 * 10 * 0 >= B.t * 0)".to_owned()),
    ]
}

fn compile(pred: &str, c: f64) -> CompiledQuery {
    let sql = format!(
        "SELECT A.t, B.t FROM S A, S B WHERE {} ONCE",
        pred.replace("{c}", &format!("{c}"))
    );
    let q = parse(&sql).unwrap();
    CompiledQuery::compile(&q, &[schema(), schema()]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn no_false_negatives(
        pred in predicate_strategy(),
        c in -50.0f64..50.0,
        // Cell corners and widths per (rel, attr): 2 rels x 3 attrs.
        corners in prop::collection::vec(-100.0f64..100.0, 6),
        widths in prop::collection::vec(0.0f64..10.0, 6),
        // Sample point offsets within each cell in [0, 1).
        offsets in prop::collection::vec(0.0f64..1.0, 6),
    ) {
        let cq = compile(&pred, c);
        let cell = |rel: usize, attr: usize| -> Interval {
            let i = rel * 3 + attr;
            Interval::new(corners[i], corners[i] + widths[i])
        };
        // A concrete witness inside the cells.
        let point = |rel: usize, attr: usize| -> f64 {
            let i = rel * 3 + attr;
            corners[i] + offsets[i] * widths[i]
        };
        let scalar_true = cq.eval_join(&point);
        let interval_possible = cq.eval_join(&cell).possible();
        if scalar_true {
            prop_assert!(
                interval_possible,
                "predicate {pred} holds at a point inside cells the interval \
                 evaluation ruled out"
            );
        }
    }

    /// Degenerate cells (zero width) make interval evaluation exact for
    /// comparisons without Maybe-inducing operators.
    #[test]
    fn point_cells_agree_with_scalar(
        pred in predicate_strategy(),
        c in -50.0f64..50.0,
        vals in prop::collection::vec(-100.0f64..100.0, 6),
    ) {
        let cq = compile(&pred, c);
        let point = |rel: usize, attr: usize| vals[rel * 3 + attr];
        let cell = |rel: usize, attr: usize| Interval::point(vals[rel * 3 + attr]);
        let scalar = cq.eval_join(&point);
        // Degenerate intervals can still yield Maybe (e.g. at exact
        // equality boundaries), so only the sound direction is required.
        if scalar {
            prop_assert!(cq.eval_join(&cell).possible());
        }
    }

    /// Widening a cell never flips "possible" to "impossible".
    #[test]
    fn monotone_in_cell_width(
        pred in predicate_strategy(),
        c in -50.0f64..50.0,
        corners in prop::collection::vec(-100.0f64..100.0, 6),
        widths in prop::collection::vec(0.0f64..5.0, 6),
        extra in 0.0f64..5.0,
    ) {
        let cq = compile(&pred, c);
        let narrow = |rel: usize, attr: usize| {
            let i = rel * 3 + attr;
            Interval::new(corners[i], corners[i] + widths[i])
        };
        let wide = |rel: usize, attr: usize| {
            let i = rel * 3 + attr;
            Interval::new(corners[i] - extra, corners[i] + widths[i] + extra)
        };
        if cq.eval_join(&narrow).possible() {
            prop_assert!(cq.eval_join(&wide).possible(), "widening lost a possible match: {pred}");
        }
    }

    /// Three-valued logic: True results really are invariant over the cell.
    #[test]
    fn certain_true_has_no_counterexample(
        c in -20.0f64..20.0,
        corners in prop::collection::vec(-50.0f64..50.0, 6),
        offsets in prop::collection::vec(0.0f64..1.0, 6),
    ) {
        // Fixed simple predicate where True is reachable.
        let cq = compile("A.t - B.t > {c}", c);
        let width = 2.0;
        let cell = |rel: usize, attr: usize| {
            let i = rel * 3 + attr;
            Interval::new(corners[i], corners[i] + width)
        };
        let verdict = holds(&cq.join_preds()[0], &cell);
        if verdict == Tri::True {
            let point = |rel: usize, attr: usize| {
                let i = rel * 3 + attr;
                corners[i] + offsets[i] * width
            };
            prop_assert!(cq.eval_join(&point), "Tri::True but a counterexample exists");
        }
    }
}
