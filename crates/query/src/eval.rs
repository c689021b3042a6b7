//! The one evaluator of compiled expressions, generic over the value
//! [`Domain`]: points (`f64`, truth `bool`) for the exact join and the
//! local predicates, cells ([`Interval`](crate::Interval), truth
//! [`Tri`](crate::Tri)) for the pre-join. The walk is shared, so the
//! pre-join's no-false-negatives rule is a property of each operation's two
//! implementations (the crate docs state it).

use crate::compile::{NumExpr, Pred};
use crate::{BinOp, CmpOp};
use std::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Sub};

/// A value domain the evaluator runs over: the arithmetic of [`NumExpr`]
/// (`-`, `+`, `-`, `*`, `/` and the methods) and the comparisons of [`Pred`].
pub trait Domain:
    Copy
    + Neg<Output = Self>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// What a comparison yields: `bool` for points, [`Tri`](crate::Tri) for cells. `&`
    /// and `|` are conjunction and disjunction, in which `false.into()` and
    /// `true.into()` absorb.
    type Truth: Copy
        + PartialEq
        + From<bool>
        + BitAnd<Output = Self::Truth>
        + BitOr<Output = Self::Truth>;
    /// A literal.
    fn number(v: f64) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `self · self`.
    fn square(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `l op r`.
    fn cmp(op: CmpOp, l: Self, r: Self) -> Self::Truth;
}

impl Domain for f64 {
    type Truth = bool;

    fn number(v: f64) -> f64 {
        v
    }

    fn abs(self) -> f64 {
        f64::abs(self)
    }

    fn square(self) -> f64 {
        self * self
    }

    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }

    /// IEEE comparison, with `<>` as `l < r || l > r`: false, like every
    /// other operator, when an operand is NaN (where `l != r` is true).
    #[allow(clippy::double_comparisons)]
    fn cmp(op: CmpOp, l: f64, r: f64) -> bool {
        match op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l < r || l > r,
        }
    }
}

/// Evaluates `expr`, with `env(rel, attr)` the value of attribute `attr` of
/// relation `rel` in the current binding.
pub fn eval<D: Domain>(expr: &NumExpr, env: &impl Fn(usize, usize) -> D) -> D {
    match expr {
        NumExpr::Number(n) => D::number(*n),
        NumExpr::Col { rel, attr } => env(*rel, *attr),
        NumExpr::Neg(e) => -eval(e, env),
        NumExpr::Abs(e) => eval(e, env).abs(),
        NumExpr::Bin { op, lhs, rhs } => {
            let (l, r) = (eval(lhs, env), eval(rhs, env));
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
            }
        }
        NumExpr::Distance { args } => {
            let [x1, y1, x2, y2] = args.as_ref();
            let dx = eval(x1, env) - eval(x2, env);
            let dy = eval(y1, env) - eval(y2, env);
            (dx.square() + dy.square()).sqrt()
        }
    }
}

/// Evaluates `pred` in `env` (as [`eval`]). `AND` stops at a false left
/// side and `OR` at a true one, in either domain.
pub fn holds<D: Domain>(pred: &Pred, env: &impl Fn(usize, usize) -> D) -> D::Truth {
    match pred {
        Pred::Cmp { op, lhs, rhs } => D::cmp(*op, eval(lhs, env), eval(rhs, env)),
        Pred::And(a, b) => match holds(a, env) {
            l if l == false.into() => l,
            l => l & holds(b, env),
        },
        Pred::Or(a, b) => match holds(a, env) {
            l if l == true.into() => l,
            l => l | holds(b, env),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(rel: usize, attr: usize) -> NumExpr {
        NumExpr::Col { rel, attr }
    }

    fn cmp(op: CmpOp, l: f64, r: f64) -> Pred {
        Pred::Cmp {
            op,
            lhs: Box::new(NumExpr::Number(l)),
            rhs: Box::new(NumExpr::Number(r)),
        }
    }

    #[test]
    fn arithmetic_evaluation() {
        // |(0,0) - (1,0)| * 2 with env values 5 and 8.
        let e = NumExpr::Bin {
            op: BinOp::Mul,
            lhs: Box::new(NumExpr::Abs(Box::new(NumExpr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(col(0, 0)),
                rhs: Box::new(col(1, 0)),
            }))),
            rhs: Box::new(NumExpr::Number(2.0)),
        };
        let env = |rel: usize, _attr: usize| if rel == 0 { 5.0 } else { 8.0 };
        assert_eq!(eval(&e, &env), 6.0);
    }

    #[test]
    fn distance_evaluation() {
        let e = NumExpr::Distance {
            args: Box::new([
                NumExpr::Number(0.0),
                NumExpr::Number(0.0),
                NumExpr::Number(3.0),
                NumExpr::Number(4.0),
            ]),
        };
        let env = |_: usize, _: usize| 0.0;
        assert!((eval(&e, &env) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn predicate_logic() {
        let lt = cmp(CmpOp::Lt, 1.0, 2.0);
        let gt = cmp(CmpOp::Gt, 1.0, 2.0);
        let env = |_: usize, _: usize| 0.0;
        assert!(holds(&lt, &env));
        assert!(!holds(&gt, &env));
        assert!(!holds(
            &Pred::And(Box::new(lt.clone()), Box::new(gt.clone())),
            &env
        ));
        assert!(holds(&Pred::Or(Box::new(lt), Box::new(gt)), &env));
        assert!(holds(&cmp(CmpOp::Ne, 1.0, 2.0), &env));
        assert!(!holds(&cmp(CmpOp::Ne, 0.0, -0.0), &env));
        assert!(!holds(&cmp(CmpOp::Ne, f64::NAN, 1.0), &env));
    }
}
