//! Property test: each operator's two implementations agree.
//!
//! The expression walk is shared by points and cells (`sensjoin_query::eval`
//! and `holds`), so the pre-join's no-false-negatives rule is a property of
//! each [`Domain`] operation alone. Points are drawn inside intervals —
//! zero-width ones, and ones with `0`, `−0`, `±∞` and `±f64::MAX`
//! endpoints, among them — and checked to satisfy:
//!
//! * every non-NaN point result lies in the interval result;
//! * a comparison true at the points is never `Tri::False` on the cells;
//! * a NaN operand makes all six point comparisons false.

use proptest::prelude::*;
use sensjoin_query::{BinOp, CmpOp, Domain, Interval, Tri};

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

const BIN_OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

const UNARY_OPS: [&str; 4] = ["neg", "abs", "square", "sqrt"];

fn unary<D: Domain>(op: &str, x: D) -> D {
    match op {
        "neg" => -x,
        "abs" => x.abs(),
        "square" => x.square(),
        _ => x.sqrt(),
    }
}

fn binary<D: Domain>(op: BinOp, x: D, y: D) -> D {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
    }
}

/// An interval endpoint: ordinary values (small integers, where rounding
/// is easiest to see), or the edges of `f64`.
fn endpoint() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-12i32..12).prop_map(f64::from),
        -1e3f64..1e3,
        -1e300f64..1e300,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        Just(-f64::MAX),
    ]
}

/// A cell, a fifth of them zero-width, and a point inside it: a third
/// endpoint clamped into the cell, so often one of its ends.
fn cell_and_point() -> impl Strategy<Value = (Interval, f64)> {
    (endpoint(), endpoint(), endpoint(), 0u8..5).prop_map(|(a, b, v, shape)| {
        let lo = a.min(b);
        let hi = if shape == 0 { lo } else { a.max(b) };
        (Interval::new(lo, hi), v.clamp(lo, hi))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn each_operation_contains_its_points(
        (x, px) in cell_and_point(),
        (y, py) in cell_and_point(),
    ) {
        for op in UNARY_OPS {
            let (p, i) = (unary(op, px), unary(op, x));
            prop_assert!(p.is_nan() || i.contains(p), "{op} {px:e} in {x:?}: {p:e} not in {i:?}");
        }
        for op in BIN_OPS {
            let (p, i) = (binary(op, px, py), binary(op, x, y));
            prop_assert!(
                p.is_nan() || i.contains(p),
                "{op:?} {px:e} in {x:?}, {py:e} in {y:?}: {p:e} not in {i:?}"
            );
        }
        prop_assert!(Interval::number(px).contains(px));
    }

    #[test]
    fn a_comparison_true_at_the_points_is_possible_on_the_cells(
        (x, px) in cell_and_point(),
        (y, py) in cell_and_point(),
    ) {
        for op in CMP_OPS {
            if f64::cmp(op, px, py) {
                prop_assert!(
                    Interval::cmp(op, x, y) != Tri::False,
                    "{op:?}: {px:e} in {x:?}, {py:e} in {y:?}"
                );
            }
        }
    }

    #[test]
    fn a_nan_operand_makes_every_point_comparison_false(v in endpoint()) {
        for op in CMP_OPS {
            prop_assert!(!f64::cmp(op, f64::NAN, v), "NaN {op:?} {v:e}");
            prop_assert!(!f64::cmp(op, v, f64::NAN), "{v:e} {op:?} NaN");
        }
    }
}
