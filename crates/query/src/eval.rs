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

/// Column-at-a-time [`holds`] over a batch of bindings that differ only in
/// the tuple of one relation: the exact join's residual, evaluated once per
/// level's candidates instead of once per candidate.
///
/// The tree is walked once per batch. A column of a bound relation is read
/// once, as a scalar; a column of the batch's relation is gathered into a
/// column where the tree reads it; an operation on two scalars stays scalar,
/// so constant and bound subtrees are computed once. Every element operation is the
/// `Domain for f64` method [`eval`] and [`holds`] call, so each verdict is
/// bit for bit the per-binding one — debug builds check every verdict
/// against [`holds`].
///
/// Its buffers are kept between batches, each made with room for
/// `capacity` candidates: once a tree has been evaluated, a batch of it
/// with at most `capacity` candidates allocates nothing.
#[derive(Debug, Default)]
pub struct BatchEval {
    /// The room each new buffer is made with.
    capacity: usize,
    /// Spare number columns.
    numbers: Vec<Vec<f64>>,
    /// Spare truth columns.
    truths: Vec<Vec<bool>>,
}

/// A value over a batch: one for every binding, or one per binding.
enum Num {
    Scalar(f64),
    Column(Vec<f64>),
}

/// A truth over a batch, like [`Num`].
enum Truth {
    Scalar(bool),
    Column(Vec<bool>),
}

/// What a batch evaluation reads: the batch's relation, the bound
/// relations' values and the candidates' values.
struct Batch<'a, C, B, V> {
    rel: usize,
    bound: &'a B,
    value: &'a V,
    candidates: &'a [C],
}

impl BatchEval {
    /// An evaluator whose buffers hold `capacity` candidates; it allocates
    /// nothing until its first batch.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Keeps, in order, the candidates of `batch` — tuples of relation
    /// `rel` — whose binding satisfies `pred`. `bound(r, a)` is attribute
    /// `a` of the tuple bound to relation `r` (every relation `pred` reads
    /// but `rel`), `value(c, a)` attribute `a` of candidate `c`.
    pub fn retain<C: Copy>(
        &mut self,
        pred: &Pred,
        rel: usize,
        bound: &impl Fn(usize, usize) -> f64,
        value: &impl Fn(C, usize) -> f64,
        batch: &mut Vec<C>,
    ) {
        let cx = Batch {
            rel,
            bound,
            value,
            candidates: batch,
        };
        let verdict = self.truth(pred, &cx);
        #[cfg(debug_assertions)]
        for (i, &c) in batch.iter().enumerate() {
            let env = |r: usize, a: usize| if r == rel { value(c, a) } else { bound(r, a) };
            let got = match &verdict {
                Truth::Scalar(v) => *v,
                Truth::Column(v) => v[i],
            };
            assert_eq!(
                got,
                holds(pred, &env),
                "a batch verdict differs from holds: {pred:?}"
            );
        }
        match verdict {
            Truth::Scalar(true) => {}
            Truth::Scalar(false) => batch.clear(),
            Truth::Column(keep) => {
                let mut verdicts = keep.iter();
                batch.retain(|_| verdicts.next() == Some(&true));
                self.truths.push(keep);
            }
        }
    }

    fn truth<C: Copy>(
        &mut self,
        pred: &Pred,
        cx: &Batch<C, impl Fn(usize, usize) -> f64, impl Fn(C, usize) -> f64>,
    ) -> Truth {
        match pred {
            Pred::Cmp { op, lhs, rhs } => {
                let (l, r) = (self.num(lhs, cx), self.num(rhs, cx));
                self.compare(l, r, |a, b| <f64 as Domain>::cmp(*op, a, b))
            }
            Pred::And(a, b) => match self.truth(a, cx) {
                Truth::Scalar(false) => Truth::Scalar(false),
                Truth::Scalar(true) => self.truth(b, cx),
                Truth::Column(l) => {
                    let r = self.truth(b, cx);
                    self.combine(l, r, |x, y| x & y)
                }
            },
            Pred::Or(a, b) => match self.truth(a, cx) {
                Truth::Scalar(true) => Truth::Scalar(true),
                Truth::Scalar(false) => self.truth(b, cx),
                Truth::Column(l) => {
                    let r = self.truth(b, cx);
                    self.combine(l, r, |x, y| x | y)
                }
            },
        }
    }

    fn num<C: Copy>(
        &mut self,
        expr: &NumExpr,
        cx: &Batch<C, impl Fn(usize, usize) -> f64, impl Fn(C, usize) -> f64>,
    ) -> Num {
        match expr {
            NumExpr::Number(n) => Num::Scalar(<f64 as Domain>::number(*n)),
            NumExpr::Col { rel, attr } if *rel != cx.rel => Num::Scalar((cx.bound)(*rel, *attr)),
            NumExpr::Col { attr, .. } => Num::Column(spare(
                &mut self.numbers,
                self.capacity,
                cx.candidates.iter().map(|&c| (cx.value)(c, *attr)),
            )),
            NumExpr::Neg(e) => map(self.num(e, cx), |v| -v),
            NumExpr::Abs(e) => map(self.num(e, cx), <f64 as Domain>::abs),
            NumExpr::Bin { op, lhs, rhs } => {
                let (l, r) = (self.num(lhs, cx), self.num(rhs, cx));
                match op {
                    BinOp::Add => self.zip(l, r, |a, b| a + b),
                    BinOp::Sub => self.zip(l, r, |a, b| a - b),
                    BinOp::Mul => self.zip(l, r, |a, b| a * b),
                    BinOp::Div => self.zip(l, r, |a, b| a / b),
                }
            }
            NumExpr::Distance { args } => {
                let [x1, y1, x2, y2] = args.as_ref();
                let (a, b) = (self.num(x1, cx), self.num(x2, cx));
                let dx = map(self.zip(a, b, |a, b| a - b), <f64 as Domain>::square);
                let (a, b) = (self.num(y1, cx), self.num(y2, cx));
                let dy = map(self.zip(a, b, |a, b| a - b), <f64 as Domain>::square);
                map(self.zip(dx, dy, |a, b| a + b), <f64 as Domain>::sqrt)
            }
        }
    }

    /// `f(l, r)` per binding, into a column of `l` or `r`.
    fn zip(&mut self, l: Num, r: Num, f: impl Fn(f64, f64) -> f64) -> Num {
        match (l, r) {
            (Num::Scalar(a), Num::Scalar(b)) => Num::Scalar(f(a, b)),
            (Num::Column(mut l), Num::Scalar(b)) => {
                l.iter_mut().for_each(|a| *a = f(*a, b));
                Num::Column(l)
            }
            (Num::Scalar(a), Num::Column(mut r)) => {
                r.iter_mut().for_each(|b| *b = f(a, *b));
                Num::Column(r)
            }
            (Num::Column(mut l), Num::Column(r)) => {
                l.iter_mut().zip(&r).for_each(|(a, &b)| *a = f(*a, b));
                self.numbers.push(r);
                Num::Column(l)
            }
        }
    }

    /// `f(l, r)` per binding, into a truth column.
    fn compare(&mut self, l: Num, r: Num, f: impl Fn(f64, f64) -> bool) -> Truth {
        let verdicts = match (l, r) {
            (Num::Scalar(a), Num::Scalar(b)) => return Truth::Scalar(f(a, b)),
            (Num::Column(l), Num::Scalar(b)) => {
                let verdicts = spare(&mut self.truths, self.capacity, l.iter().map(|&a| f(a, b)));
                self.numbers.push(l);
                verdicts
            }
            (Num::Scalar(a), Num::Column(r)) => {
                let verdicts = spare(&mut self.truths, self.capacity, r.iter().map(|&b| f(a, b)));
                self.numbers.push(r);
                verdicts
            }
            (Num::Column(l), Num::Column(r)) => {
                let verdicts = spare(
                    &mut self.truths,
                    self.capacity,
                    l.iter().zip(&r).map(|(&a, &b)| f(a, b)),
                );
                self.numbers.extend([l, r]);
                verdicts
            }
        };
        Truth::Column(verdicts)
    }

    /// `f(l, r)` per binding, into `l`.
    fn combine(&mut self, mut l: Vec<bool>, r: Truth, f: impl Fn(bool, bool) -> bool) -> Truth {
        match r {
            Truth::Scalar(b) => l.iter_mut().for_each(|a| *a = f(*a, b)),
            Truth::Column(r) => {
                l.iter_mut().zip(&r).for_each(|(a, &b)| *a = f(*a, b));
                self.truths.push(r);
            }
        }
        Truth::Column(l)
    }
}

/// A buffer from `pool` — or a new one with room for `capacity` — holding
/// `items`.
fn spare<T>(pool: &mut Vec<Vec<T>>, capacity: usize, items: impl Iterator<Item = T>) -> Vec<T> {
    let mut buffer = pool.pop().unwrap_or_else(|| Vec::with_capacity(capacity));
    buffer.clear();
    buffer.extend(items);
    buffer
}

/// `f(v)` per binding, in place.
fn map(v: Num, f: impl Fn(f64) -> f64) -> Num {
    match v {
        Num::Scalar(a) => Num::Scalar(f(a)),
        Num::Column(mut c) => {
            c.iter_mut().for_each(|a| *a = f(*a));
            Num::Column(c)
        }
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
