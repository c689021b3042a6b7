//! Join-predicate classification for partitioned evaluation.
//!
//! The base-station engine wants to avoid the nested-loop descent whenever a
//! join predicate has enough structure to drive an index: a comparison
//! between two single-relation expressions, or a difference-form one, can
//! be range-partitioned over sorted keys — equality included, as the
//! zero-width window. [`classify`] recognizes these shapes; everything else
//! stays [`PredClass::General`] and is evaluated by residual filtering only.
//!
//! Classification never rewrites the expressions algebraically: the engine
//! evaluates the *original* subtrees stored here, so every candidate test is
//! computation-for-computation identical to the plain predicate evaluation
//! it replaces. That (plus IEEE-754 comparison/subtraction monotonicity) is
//! what lets the partitioned engine guarantee bit-identical results.

use crate::ast::{BinOp, CmpOp};
use crate::compile::{Columns, NumExpr, Pred};

/// One side of a recognized two-relation predicate: an arithmetic expression
/// referencing exactly one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct PredSide {
    /// The only relation the expression references.
    pub rel: usize,
    /// The (unrewritten) subtree of the original predicate.
    pub expr: NumExpr,
}

/// The recognized comparison shape connecting the two sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandForm {
    /// `lhs cmp rhs` — the comparison operands already separate by relation.
    Direct(CmpOp),
    /// `(lhs - rhs) cmp c` (constant-comparison side mirrored into `op`).
    Diff {
        /// The comparison operator (after mirroring `c cmp (lhs-rhs)`).
        op: CmpOp,
        /// The constant bound.
        c: f64,
    },
    /// `|lhs - rhs| cmp c` (constant-comparison side mirrored into `op`).
    AbsDiff {
        /// The comparison operator (after mirroring).
        op: CmpOp,
        /// The constant bound.
        c: f64,
    },
}

/// The partitioning class of one join predicate (conjunct).
#[derive(Debug, Clone, PartialEq)]
pub enum PredClass {
    /// A direct or difference-form comparison, range-partitionable on
    /// sorted keys. Equality `f(A) = g(B)` is the direct band
    /// `Direct(Eq)`: for probe value `p` its window is the closed [p, p].
    Band {
        /// The `f` side (left operand of the comparison or subtraction).
        lhs: PredSide,
        /// The `g` side.
        rhs: PredSide,
        /// The comparison shape.
        form: BandForm,
    },
    /// No exploitable structure: residual evaluation only.
    General,
}

/// The relation index an expression references, if it references exactly one.
fn single_rel(e: &NumExpr) -> Option<usize> {
    let rels = e.relations();
    (rels.len() == 1).then(|| *rels.first().expect("len 1"))
}

/// Classifies one join predicate (a WHERE conjunct over ≥ 2 relations).
///
/// `Ne` comparisons are always [`PredClass::General`]: their candidate set
/// is a complement, which no index here accelerates.
pub fn classify(pred: &Pred) -> PredClass {
    let Pred::Cmp { op, lhs, rhs } = pred else {
        return PredClass::General; // AND / OR conjuncts
    };
    if *op == CmpOp::Ne {
        return PredClass::General;
    }
    let side = |rel, expr: &NumExpr| PredSide {
        rel,
        expr: expr.clone(),
    };
    // Direct: each comparison operand references exactly one relation.
    if let (Some(rl), Some(rr)) = (single_rel(lhs), single_rel(rhs)) {
        if rl != rr {
            return PredClass::Band {
                lhs: side(rl, lhs),
                rhs: side(rr, rhs),
                form: BandForm::Direct(*op),
            };
        }
    }
    // Difference forms: `X cmp c` or `c cmp X` with X = f-g or |f-g|.
    let (x, c, op) = match (&**lhs, &**rhs) {
        (x, NumExpr::Number(c)) => (x, *c, *op),
        (NumExpr::Number(c), x) => (x, *c, op.mirror()),
        _ => return PredClass::General,
    };
    let (diff, form) = match x {
        NumExpr::Abs(diff) => (&**diff, BandForm::AbsDiff { op, c }),
        diff => (diff, BandForm::Diff { op, c }),
    };
    let NumExpr::Bin {
        op: BinOp::Sub,
        lhs,
        rhs,
    } = diff
    else {
        return PredClass::General;
    };
    match (single_rel(lhs), single_rel(rhs)) {
        (Some(rl), Some(rr)) if rl != rr && !c.is_nan() => PredClass::Band {
            lhs: side(rl, lhs),
            rhs: side(rr, rhs),
            form,
        },
        _ => PredClass::General,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::CompiledQuery;
    use sensjoin_relation::{AttrType, Attribute, Schema};

    fn classes(sql: &str) -> Vec<PredClass> {
        let schema = Schema::new(
            "Sensors",
            vec![
                Attribute::new("x", AttrType::Meters),
                Attribute::new("y", AttrType::Meters),
                Attribute::new("temp", AttrType::Celsius),
            ],
        );
        let q = parse(sql).unwrap();
        let schemas: Vec<Schema> = q.from.iter().map(|_| schema.clone()).collect();
        let cq = CompiledQuery::compile(&q, &schemas).unwrap();
        cq.pred_classes().to_vec()
    }

    #[test]
    fn equality_is_the_direct_eq_band() {
        let c = classes("SELECT A.x, B.x FROM Sensors A, Sensors B WHERE A.temp = B.temp ONCE");
        assert!(matches!(
            &c[0],
            PredClass::Band { lhs, rhs, form: BandForm::Direct(CmpOp::Eq) }
                if lhs.rel == 0 && rhs.rel == 1
        ));
    }

    #[test]
    fn difference_threshold_is_band() {
        let c =
            classes("SELECT A.x, B.x FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4.0 ONCE");
        assert!(matches!(
            &c[0],
            PredClass::Band {
                form: BandForm::Diff { op: CmpOp::Gt, c },
                ..
            } if *c == 4.0
        ));
    }

    #[test]
    fn absolute_band_is_band() {
        let c =
            classes("SELECT A.x, B.x FROM Sensors A, Sensors B WHERE |A.temp - B.temp| < 0.5 ONCE");
        assert!(matches!(
            &c[0],
            PredClass::Band {
                form: BandForm::AbsDiff { op: CmpOp::Lt, c },
                ..
            } if *c == 0.5
        ));
    }

    #[test]
    fn mirrored_constant_side_is_normalized() {
        let c =
            classes("SELECT A.x, B.x FROM Sensors A, Sensors B WHERE 4.0 < A.temp - B.temp ONCE");
        assert!(matches!(
            &c[0],
            PredClass::Band {
                form: BandForm::Diff { op: CmpOp::Gt, .. },
                ..
            }
        ));
    }

    #[test]
    fn a_negated_comparison_is_classified_by_its_flipped_operator() {
        let c = classes(
            "SELECT A.x, B.x FROM Sensors A, Sensors B WHERE NOT A.temp - B.temp > 4.0 ONCE",
        );
        assert!(matches!(
            &c[0],
            PredClass::Band {
                form: BandForm::Diff { op: CmpOp::Le, c },
                ..
            } if *c == 4.0
        ));
    }

    #[test]
    fn direct_inequality_is_band() {
        let c = classes("SELECT A.x, B.x FROM Sensors A, Sensors B WHERE A.temp < B.temp ONCE");
        assert!(matches!(
            &c[0],
            PredClass::Band {
                form: BandForm::Direct(CmpOp::Lt),
                ..
            }
        ));
    }

    #[test]
    fn unstructured_predicates_are_general() {
        for sql in [
            // distance() is not a difference form.
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < 50 ONCE",
            // OR conjunct.
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE A.temp > B.temp OR A.x > B.x ONCE",
            // Ne comparison.
            "SELECT A.x, B.x FROM Sensors A, Sensors B WHERE A.temp != B.temp ONCE",
            // Three-relation conjunct.
            "SELECT A.x, B.x, C.x FROM Sensors A, Sensors B, Sensors C \
             WHERE A.temp - B.temp > C.temp ONCE",
        ] {
            let c = classes(sql);
            assert!(matches!(c[0], PredClass::General), "{sql}");
        }
    }

    #[test]
    fn compound_sides_keep_original_subtrees() {
        let c = classes(
            "SELECT A.x, B.x FROM Sensors A, Sensors B WHERE (A.x + A.y) - B.x > 10.0 ONCE",
        );
        match &c[0] {
            PredClass::Band { lhs, rhs, .. } => {
                assert!(matches!(lhs.expr, NumExpr::Bin { op: BinOp::Add, .. }));
                assert!(matches!(rhs.expr, NumExpr::Col { rel: 1, .. }));
            }
            other => panic!("expected band, got {other:?}"),
        }
    }
}
