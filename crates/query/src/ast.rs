//! Abstract syntax of the query dialect.

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
}

impl CmpOp {
    /// The operator across swapped operands: `l op r` ⇔ `r op.mirror() l`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op @ (CmpOp::Eq | CmpOp::Ne) => op,
        }
    }

    /// The operator of the negated comparison: `NOT (l op r)` is
    /// `l op.negate() r`. On points that holds except when an operand is
    /// NaN, where both are false; on cells it is exact, Kleene `NOT` of the
    /// three-valued comparison.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

/// Aggregate functions allowed in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Row count.
    Count,
}

/// An expression over attributes of the FROM relations.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// Qualified attribute reference `qualifier.attr` (Q1's `A.temp`).
    /// Resolution to relation/attribute indices happens at compile time.
    Attr {
        /// Relation alias (or name).
        qualifier: String,
        /// Attribute name.
        attr: String,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Absolute value — both `|x|` and `abs(x)` parse to this.
    Abs(Box<Expr>),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Euclidean distance `distance(x1, y1, x2, y2)` (used by Q1/Q2).
    Distance {
        /// The four coordinate arguments.
        args: Box<[Expr; 4]>,
    },
    /// Comparison (a predicate when it appears in WHERE).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Collects every qualified attribute reference in the expression.
    pub fn attrs(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Attr { qualifier, attr } = e {
                out.push((qualifier.as_str(), attr.as_str()));
            }
        });
        out
    }

    /// Visits every sub-expression depth-first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Number(_) | Expr::Attr { .. } => {}
            Expr::Neg(e) | Expr::Abs(e) | Expr::Not(e) => e.walk(f),
            Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Distance { args } => {
                for a in args.iter() {
                    a.walk(f);
                }
            }
        }
    }

    /// Splits a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// Optional aggregate wrapping the expression (Q1's `MIN(...)`).
    pub agg: Option<AggFunc>,
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// Temporal scope of a query (§III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Temporal {
    /// `ONCE` — a snapshot query over the current state.
    Once,
    /// `SAMPLE PERIOD x` — re-execute every `x` seconds on the most recent
    /// snapshot.
    SamplePeriod(f64),
}

/// A FROM-clause entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// Relation name.
    pub relation: String,
    /// Alias (defaults to the relation name; self-joins require distinct
    /// aliases).
    pub alias: String,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected items.
    pub select: Vec<SelectItem>,
    /// Input relations in order.
    pub from: Vec<FromItem>,
    /// The WHERE predicate, if any.
    pub predicate: Option<Expr>,
    /// GROUP BY expressions (empty = no grouping).
    pub group_by: Vec<Expr>,
    /// Snapshot or continuous execution.
    pub temporal: Temporal,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(q: &str, a: &str) -> Expr {
        Expr::Attr {
            qualifier: q.into(),
            attr: a.into(),
        }
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::And(
            Box::new(Expr::And(
                Box::new(Expr::Number(1.0)),
                Box::new(Expr::Number(2.0)),
            )),
            Box::new(Expr::Or(
                Box::new(Expr::Number(3.0)),
                Box::new(Expr::Number(4.0)),
            )),
        );
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert!(matches!(cs[2], Expr::Or(..)));
    }

    #[test]
    fn attr_collection() {
        let e = Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Abs(Box::new(Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(attr("A", "temp")),
                rhs: Box::new(attr("B", "temp")),
            }))),
            rhs: Box::new(Expr::Number(0.3)),
        };
        assert_eq!(e.attrs(), vec![("A", "temp"), ("B", "temp")]);
    }

    #[test]
    fn distance_walk_covers_args() {
        let e = Expr::Distance {
            args: Box::new([
                attr("A", "x"),
                attr("A", "y"),
                attr("B", "x"),
                attr("B", "y"),
            ]),
        };
        assert_eq!(e.attrs().len(), 4);
    }
}
