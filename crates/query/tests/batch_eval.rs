//! Property test: the column-at-a-time evaluator agrees with `holds`.
//!
//! [`BatchEval::retain`] evaluates a predicate over a batch of bindings that
//! differ in one relation's tuple. Random predicate trees — `NEG`, `ABS`,
//! the four arithmetic operators (division by zero included), `distance`,
//! `AND`, `OR` and every comparison, `<>` among them — over columns holding
//! NaN, ±0, ±∞, subnormals and ±`f64::MAX` must keep exactly the candidates
//! whose binding `holds` accepts, with each relation in turn as the batch's
//! (a column) and the others bound (scalars). One evaluator serves every
//! batch of a case, so its reused buffers are exercised too.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_query::{holds, BatchEval, BinOp, CmpOp, NumExpr, Pred};

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

fn expr(rng: &mut SmallRng, depth: u32) -> NumExpr {
    let boxed = |e| Box::new(e);
    match rng.gen_range(0..if depth == 0 { 2 } else { 6 }) {
        0 => NumExpr::Number(value(rng)),
        1 => NumExpr::Col {
            rel: rng.gen_range(0..RELATIONS),
            attr: rng.gen_range(0..ATTRS),
        },
        2 => NumExpr::Neg(boxed(expr(rng, depth - 1))),
        3 => NumExpr::Abs(boxed(expr(rng, depth - 1))),
        4 => NumExpr::Bin {
            op: BIN_OPS[rng.gen_range(0..BIN_OPS.len())],
            lhs: boxed(expr(rng, depth - 1)),
            rhs: boxed(expr(rng, depth - 1)),
        },
        _ => NumExpr::Distance {
            args: Box::new(std::array::from_fn(|_| expr(rng, depth - 1))),
        },
    }
}

fn pred(rng: &mut SmallRng, depth: u32) -> Pred {
    match rng.gen_range(0..if depth == 0 { 1 } else { 4 }) {
        0 | 1 => Pred::Cmp {
            op: CMP_OPS[rng.gen_range(0..CMP_OPS.len())],
            lhs: Box::new(expr(rng, 3)),
            rhs: Box::new(expr(rng, 3)),
        },
        2 => Pred::And(
            Box::new(pred(rng, depth - 1)),
            Box::new(pred(rng, depth - 1)),
        ),
        _ => Pred::Or(
            Box::new(pred(rng, depth - 1)),
            Box::new(pred(rng, depth - 1)),
        ),
    }
}

/// `count` tuples of every relation.
fn tuples(rng: &mut SmallRng, count: usize) -> Vec<Vec<[f64; ATTRS]>> {
    (0..RELATIONS)
        .map(|_| {
            (0..count)
                .map(|_| std::array::from_fn(|_| value(rng)))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_batch_verdict_is_the_bindings_holds(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let count = rng.gen_range(0..12usize);
        let data = tuples(&mut rng, count.max(1));
        // Room for fewer candidates than some batches hold: a buffer that
        // grows must still give the same verdicts.
        let mut batches = BatchEval::new(4);
        for _ in 0..3 {
            let p = pred(&mut rng, 2);
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
                        holds(&p, &env)
                    })
                    .collect();
                prop_assert_eq!(&kept, &want, "{:?} over relation {}", p, rel);
            }
        }
    }
}
