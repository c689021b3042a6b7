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
        + Send
        + Sync
        + std::fmt::Debug
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
/// the tuple of one relation, in either [`Domain`]: the residual of a join
/// level, evaluated once per level's candidates instead of once per
/// candidate — over points in the exact join, over cells in the pre-join.
///
/// The tree is walked once per batch. A column of a bound relation is read
/// once, as a scalar; a column of the batch's relation is gathered into a
/// column where the tree reads it; an operation on two scalars stays scalar,
/// so constant and bound subtrees are computed once. Every element operation
/// is the `Domain` method [`eval`] and [`holds`] call, so each verdict is bit
/// for bit the per-binding one — debug builds check every verdict against
/// [`holds`].
///
/// Its buffers are kept between batches, each made with room for
/// `capacity` candidates: once a tree has been evaluated, a batch of it
/// with at most `capacity` candidates allocates nothing.
#[derive(Debug)]
pub struct BatchEval<D: Domain = f64> {
    /// The room each new buffer is made with.
    capacity: usize,
    /// Spare number columns.
    numbers: Vec<Vec<D>>,
    /// Spare truth columns.
    truths: Vec<Vec<D::Truth>>,
}

/// A value over a batch: one for every binding, or one per binding.
enum Col<T> {
    Scalar(T),
    Column(Vec<T>),
}

/// What a batch evaluation reads: the batch's relation, the bound
/// relations' values and the candidates' values.
struct Batch<'a, C, B, V> {
    rel: usize,
    bound: &'a B,
    value: &'a V,
    candidates: &'a [C],
}

impl<D: Domain> BatchEval<D> {
    /// An evaluator whose buffers hold `capacity` candidates; it allocates
    /// nothing until its first batch.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            numbers: Vec::new(),
            truths: Vec::new(),
        }
    }

    /// Keeps, in order, the candidates of `batch` — tuples of relation
    /// `rel` — whose binding `pred` does not make false (over points: that
    /// satisfy it; over cells: that possibly do). `bound(r, a)` is
    /// attribute `a` of the tuple bound to relation `r` (every relation
    /// `pred` reads but `rel`), `value(c, a)` attribute `a` of candidate `c`.
    pub fn retain<C: Copy>(
        &mut self,
        pred: &Pred,
        rel: usize,
        bound: &impl Fn(usize, usize) -> D,
        value: &impl Fn(C, usize) -> D,
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
                Col::Scalar(v) => *v,
                Col::Column(v) => v[i],
            };
            assert_eq!(
                got,
                holds(pred, &env),
                "a batch verdict differs from holds: {pred:?}"
            );
        }
        let no = D::Truth::from(false);
        match verdict {
            Col::Scalar(v) if v == no => batch.clear(),
            Col::Scalar(_) => {}
            Col::Column(keep) => {
                let mut verdicts = keep.iter();
                batch.retain(|_| verdicts.next() != Some(&no));
                self.truths.push(keep);
            }
        }
    }

    fn truth<C: Copy>(
        &mut self,
        pred: &Pred,
        cx: &Batch<C, impl Fn(usize, usize) -> D, impl Fn(C, usize) -> D>,
    ) -> Col<D::Truth> {
        // `AND` stops at a false left side and `OR` at a true one, as in
        // `holds`; a scalar that does not absorb is the identity (`true`,
        // `false`) or combines with every verdict of the right side.
        let (yes, no) = (D::Truth::from(true), D::Truth::from(false));
        match pred {
            Pred::Cmp { op, lhs, rhs } => {
                let (l, r) = (self.num(lhs, cx), self.num(rhs, cx));
                self.compare(l, r, |a, b| D::cmp(*op, a, b))
            }
            Pred::And(a, b) => match self.truth(a, cx) {
                Col::Scalar(l) if l == no => Col::Scalar(l),
                Col::Scalar(l) if l == yes => self.truth(b, cx),
                l => {
                    let r = self.truth(b, cx);
                    zip(&mut self.truths, l, r, |x, y| x & y)
                }
            },
            Pred::Or(a, b) => match self.truth(a, cx) {
                Col::Scalar(l) if l == yes => Col::Scalar(l),
                Col::Scalar(l) if l == no => self.truth(b, cx),
                l => {
                    let r = self.truth(b, cx);
                    zip(&mut self.truths, l, r, |x, y| x | y)
                }
            },
        }
    }

    fn num<C: Copy>(
        &mut self,
        expr: &NumExpr,
        cx: &Batch<C, impl Fn(usize, usize) -> D, impl Fn(C, usize) -> D>,
    ) -> Col<D> {
        match expr {
            NumExpr::Number(n) => Col::Scalar(D::number(*n)),
            NumExpr::Col { rel, attr } if *rel != cx.rel => Col::Scalar((cx.bound)(*rel, *attr)),
            NumExpr::Col { attr, .. } => Col::Column(spare(
                &mut self.numbers,
                self.capacity,
                cx.candidates.iter().map(|&c| (cx.value)(c, *attr)),
            )),
            NumExpr::Neg(e) => map(self.num(e, cx), |v| -v),
            NumExpr::Abs(e) => map(self.num(e, cx), D::abs),
            NumExpr::Bin { op, lhs, rhs } => {
                let (l, r) = (self.num(lhs, cx), self.num(rhs, cx));
                match op {
                    BinOp::Add => zip(&mut self.numbers, l, r, |a, b| a + b),
                    BinOp::Sub => zip(&mut self.numbers, l, r, |a, b| a - b),
                    BinOp::Mul => zip(&mut self.numbers, l, r, |a, b| a * b),
                    BinOp::Div => zip(&mut self.numbers, l, r, |a, b| a / b),
                }
            }
            NumExpr::Distance { args } => {
                let [x1, y1, x2, y2] = args.as_ref();
                let (a, b) = (self.num(x1, cx), self.num(x2, cx));
                let dx = map(zip(&mut self.numbers, a, b, |a, b| a - b), D::square);
                let (a, b) = (self.num(y1, cx), self.num(y2, cx));
                let dy = map(zip(&mut self.numbers, a, b, |a, b| a - b), D::square);
                map(zip(&mut self.numbers, dx, dy, |a, b| a + b), D::sqrt)
            }
        }
    }

    /// `f(l, r)` per binding, into a truth column.
    fn compare(&mut self, l: Col<D>, r: Col<D>, f: impl Fn(D, D) -> D::Truth) -> Col<D::Truth> {
        let verdicts = match (l, r) {
            (Col::Scalar(a), Col::Scalar(b)) => return Col::Scalar(f(a, b)),
            (Col::Column(l), Col::Scalar(b)) => {
                let verdicts = spare(&mut self.truths, self.capacity, l.iter().map(|&a| f(a, b)));
                self.numbers.push(l);
                verdicts
            }
            (Col::Scalar(a), Col::Column(r)) => {
                let verdicts = spare(&mut self.truths, self.capacity, r.iter().map(|&b| f(a, b)));
                self.numbers.push(r);
                verdicts
            }
            (Col::Column(l), Col::Column(r)) => {
                let verdicts = spare(
                    &mut self.truths,
                    self.capacity,
                    l.iter().zip(&r).map(|(&a, &b)| f(a, b)),
                );
                self.numbers.extend([l, r]);
                verdicts
            }
        };
        Col::Column(verdicts)
    }
}

/// `f(l, r)` per binding, into a column of `l` or `r`; a column it frees
/// goes back to `pool`.
fn zip<T: Copy>(pool: &mut Vec<Vec<T>>, l: Col<T>, r: Col<T>, f: impl Fn(T, T) -> T) -> Col<T> {
    match (l, r) {
        (Col::Scalar(a), Col::Scalar(b)) => Col::Scalar(f(a, b)),
        (Col::Column(mut l), Col::Scalar(b)) => {
            l.iter_mut().for_each(|a| *a = f(*a, b));
            Col::Column(l)
        }
        (Col::Scalar(a), Col::Column(mut r)) => {
            r.iter_mut().for_each(|b| *b = f(a, *b));
            Col::Column(r)
        }
        (Col::Column(mut l), Col::Column(r)) => {
            l.iter_mut().zip(&r).for_each(|(a, &b)| *a = f(*a, b));
            pool.push(r);
            Col::Column(l)
        }
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
fn map<T: Copy>(v: Col<T>, f: impl Fn(T) -> T) -> Col<T> {
    match v {
        Col::Scalar(a) => Col::Scalar(f(a)),
        Col::Column(mut c) => {
            c.iter_mut().for_each(|a| *a = f(*a));
            Col::Column(c)
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
