//! Interval arithmetic and three-valued predicate evaluation.
//!
//! The pre-join at the base station operates on *quantized* join-attribute
//! values — each value is only known up to its quantization cell. To decide
//! whether a pair of cells can contain joining tuples, every join expression
//! is evaluated over closed intervals; comparisons return three-valued truth
//! ([`Tri`]). A pair survives the pre-join iff the predicate is *possibly*
//! true. Over-approximation is safe (false positives: complete tuples are
//! shipped unnecessarily, §V-B footnote 2); under-approximation would lose
//! result rows and is impossible by construction: the expression walk is
//! the points' own ([`crate::eval`]), and each interval operation contains
//! every non-NaN point result over points drawn from its operands.

use crate::{CmpOp, Domain};
use std::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Not, Sub};

/// A closed interval `[lo, hi]`; bounds may be infinite (boundary
/// quantization cells extend to ±∞ to absorb range clamping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics (debug) if `lo > hi` or a bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(!lo.is_nan() && !hi.is_nan());
        debug_assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The whole real line.
    pub fn whole() -> Self {
        Self {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, o: Interval) -> Interval {
        Interval::new(
            add_or(self.lo, o.lo, f64::NEG_INFINITY),
            add_or(self.hi, o.hi, f64::INFINITY),
        )
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, o: Interval) -> Interval {
        self + -o
    }
}

/// Inf-safe: `0 · ±∞` is treated as 0, which is correct for images of real
/// sets (the point product is NaN there).
impl Mul for Interval {
    type Output = Interval;

    fn mul(self, o: Interval) -> Interval {
        hull([
            mul1(self.lo, o.lo),
            mul1(self.lo, o.hi),
            mul1(self.hi, o.lo),
            mul1(self.hi, o.hi),
        ])
    }
}

/// If the divisor contains zero the result widens to the whole line.
/// Otherwise the quotient is monotone in each operand, so its extremes are
/// quotients of endpoints, each rounded as the points' own division rounds
/// (`±∞ / ±∞`, NaN at the points too, is left out).
impl Div for Interval {
    type Output = Interval;

    fn div(self, o: Interval) -> Interval {
        if o.contains(0.0) {
            return Interval::whole();
        }
        hull([
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ])
    }
}

/// Each operation returns a superset of the image of its operands, and each
/// comparison is `True` (`False`) only if it holds (fails) for all values in
/// the operand intervals.
impl Domain for Interval {
    type Truth = Tri;

    fn number(v: f64) -> Interval {
        Interval::point(v)
    }

    fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            -self
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }

    /// Tighter than `self * self` when the interval spans zero.
    fn square(self) -> Interval {
        let a = self.abs();
        Interval::new(mul1(a.lo, a.lo), mul1(a.hi, a.hi))
    }

    /// Of the non-negative part (the points' square root of a negative is
    /// NaN).
    fn sqrt(self) -> Interval {
        Interval::new(self.lo.max(0.0).sqrt(), self.hi.max(0.0).sqrt())
    }

    /// A negated operator ([`CmpOp::negate`]) gives exactly the Kleene
    /// negation: `!cmp_lt(l, r)` is `cmp_le(r, l)`, and so on.
    fn cmp(op: CmpOp, l: Interval, r: Interval) -> Tri {
        match op {
            CmpOp::Lt => cmp_lt(l, r),
            CmpOp::Le => cmp_le(l, r),
            CmpOp::Gt => cmp_lt(r, l),
            CmpOp::Ge => cmp_le(r, l),
            CmpOp::Eq => cmp_eq(l, r),
            CmpOp::Ne => !cmp_eq(l, r),
        }
    }
}

/// `a + b`, or `nan_to` where that is NaN: `−∞ + ∞`, which the points leave
/// NaN too, widens the bound to its side's infinity.
fn add_or(a: f64, b: f64, nan_to: f64) -> f64 {
    let s = a + b;
    if s.is_nan() {
        nan_to
    } else {
        s
    }
}

/// The smallest interval holding the non-NaN `cands`; the whole line if
/// there are none.
fn hull(cands: [f64; 4]) -> Interval {
    let lo = cands.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = cands.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo <= hi {
        Interval::new(lo, hi)
    } else {
        Interval::whole()
    }
}

fn mul1(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Three-valued truth, ordered `False < Maybe < True`: Kleene `AND` (`&`)
/// is the minimum, `OR` (`|`) the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tri {
    /// Certainly false for all values in the cells.
    False,
    /// Depends on the concrete values.
    Maybe,
    /// Certainly true for all values in the cells.
    True,
}

impl Tri {
    /// Whether the predicate could hold — the pre-join's survival test.
    pub fn possible(self) -> bool {
        self != Tri::False
    }
}

impl From<bool> for Tri {
    fn from(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

impl BitAnd for Tri {
    type Output = Tri;

    fn bitand(self, o: Tri) -> Tri {
        self.min(o)
    }
}

impl BitOr for Tri {
    type Output = Tri;

    fn bitor(self, o: Tri) -> Tri {
        self.max(o)
    }
}

/// Kleene negation.
impl Not for Tri {
    type Output = Tri;

    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Maybe => Tri::Maybe,
        }
    }
}

fn cmp_lt(l: Interval, r: Interval) -> Tri {
    if l.hi < r.lo {
        Tri::True
    } else if l.lo >= r.hi {
        Tri::False
    } else {
        Tri::Maybe
    }
}

fn cmp_le(l: Interval, r: Interval) -> Tri {
    if l.hi <= r.lo {
        Tri::True
    } else if l.lo > r.hi {
        Tri::False
    } else {
        Tri::Maybe
    }
}

fn cmp_eq(l: Interval, r: Interval) -> Tri {
    if l.hi < r.lo || r.hi < l.lo {
        Tri::False
    } else if l.lo == l.hi && r.lo == r.hi && l.lo == r.lo {
        Tri::True
    } else {
        Tri::Maybe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(iv(1.0, 2.0) + iv(10.0, 20.0), iv(11.0, 22.0));
        assert_eq!(iv(1.0, 2.0) - iv(10.0, 20.0), iv(-19.0, -8.0));
        assert_eq!(iv(-2.0, 3.0) * iv(4.0, 5.0), iv(-10.0, 15.0));
        assert_eq!(iv(-2.0, 3.0).abs(), iv(0.0, 3.0));
        assert_eq!(iv(-3.0, -1.0).abs(), iv(1.0, 3.0));
        assert_eq!(iv(-2.0, 3.0).square(), iv(0.0, 9.0));
        assert_eq!(iv(4.0, 9.0).sqrt(), iv(2.0, 3.0));
    }

    #[test]
    fn division_with_zero_divisor_widens() {
        assert_eq!(iv(1.0, 2.0) / iv(-1.0, 1.0), Interval::whole());
        assert_eq!(iv(4.0, 8.0) / iv(2.0, 4.0), iv(1.0, 4.0));
    }

    #[test]
    fn division_rounds_as_the_points_do() {
        // `MAX · (1 / −MAX)` is not −1: the reciprocal is subnormal, and
        // multiplying by it rounds twice. The points divide once.
        let (max, inf) = (f64::MAX, f64::INFINITY);
        assert!((iv(-0.0, max) / iv(-inf, -max)).contains(max / -max));
        assert_eq!(iv(1.0, inf) / iv(1.0, inf), iv(0.0, inf));
        assert_eq!(iv(inf, inf) / iv(inf, inf), Interval::whole());
    }

    #[test]
    fn infinite_bounds_are_safe() {
        let unbounded = iv(f64::NEG_INFINITY, 5.0);
        let r = unbounded * iv(0.0, 2.0);
        assert_eq!(r.lo, f64::NEG_INFINITY);
        assert_eq!(r.hi, 10.0);
        let s = unbounded + iv(1.0, f64::INFINITY);
        assert_eq!(s, Interval::whole());
        assert_eq!(iv(0.0, f64::INFINITY).square().hi, f64::INFINITY);
    }

    #[test]
    fn tri_logic() {
        use Tri::*;
        assert_eq!(True & Maybe, Maybe);
        assert_eq!(False & Maybe, False);
        assert_eq!(True | Maybe, True);
        assert_eq!(False | Maybe, Maybe);
        assert_eq!(!Maybe, Maybe);
        assert!(Maybe.possible());
        assert!(!False.possible());
        let all = [False, Maybe, True];
        for a in all {
            for b in all {
                assert_eq!(a | b, !(!a & !b));
                assert_eq!(a & b == True, a == True && b == True);
                assert_eq!(a & b == False, a == False || b == False);
                assert_eq!(a | b == False, a == False && b == False);
            }
        }
    }

    /// What lets compilation push `NOT` into a comparison without moving a
    /// pre-join verdict: on every pair of cells, the negated operator is
    /// Kleene `NOT` of the original, bit for bit.
    #[test]
    fn a_negated_operator_is_kleene_not() {
        let ends = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let cells: Vec<Interval> = (ends.iter())
            .flat_map(|&lo| {
                ends.iter()
                    .filter(move |&&hi| lo <= hi)
                    .map(move |&hi| iv(lo, hi))
            })
            .collect();
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for &l in &cells {
            for &r in &cells {
                for op in ops {
                    let got = Interval::cmp(op.negate(), l, r);
                    assert_eq!(got, !Interval::cmp(op, l, r), "{op:?} {l:?} {r:?}");
                    assert_eq!(op.negate().negate(), op);
                }
            }
        }
    }

    #[test]
    fn comparisons() {
        assert_eq!(cmp_lt(iv(1.0, 2.0), iv(3.0, 4.0)), Tri::True);
        assert_eq!(cmp_lt(iv(3.0, 4.0), iv(1.0, 2.0)), Tri::False);
        assert_eq!(cmp_lt(iv(1.0, 3.0), iv(2.0, 4.0)), Tri::Maybe);
        // Touching intervals: 2 < 2 is false but 1.9 < 2 possible.
        assert_eq!(cmp_lt(iv(1.0, 2.0), iv(2.0, 4.0)), Tri::Maybe);
        assert_eq!(cmp_le(iv(1.0, 2.0), iv(2.0, 4.0)), Tri::True);
        assert_eq!(cmp_eq(iv(1.0, 2.0), iv(3.0, 4.0)), Tri::False);
        assert_eq!(cmp_eq(iv(2.0, 2.0), iv(2.0, 2.0)), Tri::True);
        assert_eq!(cmp_eq(iv(1.0, 3.0), iv(2.0, 5.0)), Tri::Maybe);
    }
}
