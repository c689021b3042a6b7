//! Property test: the column-at-a-time evaluator agrees with `holds`.
//!
//! [`BatchEval::retain`] evaluates a predicate over a batch of bindings that
//! differ in one relation's tuple. Random predicate trees — `NEG`, `ABS`,
//! the four arithmetic operators (division by zero included), `distance`,
//! `AND`, `OR` and every comparison, `<>` among them — must keep exactly the
//! candidates whose binding `holds` does not make false, with each relation
//! in turn as the batch's (a column) and the others bound (scalars), in both
//! domains: points holding NaN, ±0, ±∞, subnormals and ±`f64::MAX`, and
//! cells (`Interval`, truth `Tri`) with those ends. One evaluator per
//! domain serves every batch of a case, so its reused buffers are exercised
//! too.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_query::{holds, BatchEval, BinOp, CmpOp, Domain, Interval, NumExpr, Pred};

const RELATIONS: usize = 3;
const ATTRS: usize = 3;

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

const BIN_OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

/// A value: ordinary ones, where ties and rounding are easy to hit, or the
/// edges of `f64`.
fn value(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MAX,
        6 => -f64::MAX,
        7 => f64::MIN_POSITIVE / 4.0,
        8 => -5e-324,
        9 => rng.gen_range(-1e3..1e3),
        _ => f64::from(rng.gen_range(-3i32..4)),
    }
}

/// A value that is no NaN: a literal over cells is the point cell of its
/// value, and a NaN point is no interval (`Interval::new` rejects it).
fn number(rng: &mut SmallRng) -> f64 {
    std::iter::repeat_with(|| value(rng))
        .find(|v| !v.is_nan())
        .expect("an endless draw")
}

/// A cell: two drawn values as its ends, the lower one first. A NaN end
/// stands for the infinity on its side — no interval has a NaN bound, and
/// interval addition widens a NaN sum (`−∞ + ∞`) to that infinity too.
fn cell(rng: &mut SmallRng) -> Interval {
    let (a, b) = (value(rng), value(rng));
    let (lo, hi) = if b < a { (b, a) } else { (a, b) };
    Interval::new(
        if lo.is_nan() { f64::NEG_INFINITY } else { lo },
        if hi.is_nan() { f64::INFINITY } else { hi },
    )
}

fn expr(rng: &mut SmallRng, depth: u32, literal: fn(&mut SmallRng) -> f64) -> NumExpr {
    let boxed = |e| Box::new(e);
    match rng.gen_range(0..if depth == 0 { 2 } else { 6 }) {
        0 => NumExpr::Number(literal(rng)),
        1 => NumExpr::Col {
            rel: rng.gen_range(0..RELATIONS),
            attr: rng.gen_range(0..ATTRS),
        },
        2 => NumExpr::Neg(boxed(expr(rng, depth - 1, literal))),
        3 => NumExpr::Abs(boxed(expr(rng, depth - 1, literal))),
        4 => NumExpr::Bin {
            op: BIN_OPS[rng.gen_range(0..BIN_OPS.len())],
            lhs: boxed(expr(rng, depth - 1, literal)),
            rhs: boxed(expr(rng, depth - 1, literal)),
        },
        _ => NumExpr::Distance {
            args: Box::new(std::array::from_fn(|_| expr(rng, depth - 1, literal))),
        },
    }
}

fn pred(rng: &mut SmallRng, depth: u32, literal: fn(&mut SmallRng) -> f64) -> Pred {
    match rng.gen_range(0..if depth == 0 { 1 } else { 4 }) {
        0 | 1 => Pred::Cmp {
            op: CMP_OPS[rng.gen_range(0..CMP_OPS.len())],
            lhs: Box::new(expr(rng, 3, literal)),
            rhs: Box::new(expr(rng, 3, literal)),
        },
        2 => Pred::And(
            Box::new(pred(rng, depth - 1, literal)),
            Box::new(pred(rng, depth - 1, literal)),
        ),
        _ => Pred::Or(
            Box::new(pred(rng, depth - 1, literal)),
            Box::new(pred(rng, depth - 1, literal)),
        ),
    }
}

/// Three random predicates over `count` candidates of `D` values drawn by
/// `draw`, each relation in turn the batch's, literals drawn by `literal`:
/// the evaluator keeps exactly the candidates `holds` does not make false.
fn batches_are_holds<D: Domain>(
    rng: &mut SmallRng,
    draw: fn(&mut SmallRng) -> D,
    literal: fn(&mut SmallRng) -> f64,
) -> Result<(), TestCaseError> {
    let count = rng.gen_range(0..12usize);
    // `count` tuples of every relation.
    let data: Vec<Vec<[D; ATTRS]>> = (0..RELATIONS)
        .map(|_| {
            (0..count.max(1))
                .map(|_| std::array::from_fn(|_| draw(rng)))
                .collect()
        })
        .collect();
    // Room for fewer candidates than some batches hold: a buffer that grows
    // must still give the same verdicts.
    let mut batches = BatchEval::<D>::new(4);
    for _ in 0..3 {
        let p = pred(rng, 2, literal);
        // The tuple every relation but the batch's is bound to.
        let at: [usize; RELATIONS] = std::array::from_fn(|_| rng.gen_range(0..count.max(1)));
        for rel in 0..RELATIONS {
            let bound = |r: usize, a: usize| {
                assert_ne!(r, rel, "a batch column read as bound");
                data[r][at[r]][a]
            };
            let value = |c: usize, a: usize| data[rel][c][a];
            let mut kept: Vec<usize> = (0..count).collect();
            batches.retain(&p, rel, &bound, &value, &mut kept);
            let want: Vec<usize> = (0..count)
                .filter(|&c| {
                    let env = |r: usize, a: usize| if r == rel { value(c, a) } else { bound(r, a) };
                    holds(&p, &env) != false.into()
                })
                .collect();
            prop_assert_eq!(&kept, &want, "{:?} over relation {}", p, rel);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_batch_verdict_is_the_bindings_holds(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        batches_are_holds::<f64>(&mut rng, value, value)?;
        batches_are_holds::<Interval>(&mut rng, cell, number)?;
    }
}
