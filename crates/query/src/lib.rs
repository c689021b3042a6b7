#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Declarative join queries over sensor relations.
//!
//! The paper's interface (§III) is a TinyDB-flavored SQL dialect:
//!
//! ```sql
//! SELECT R1.attrs, ..., Rn.attrs
//! FROM Relation_1 R1, ..., Relation_n Rn
//! WHERE preds(R1) AND ... AND preds(Rn)
//!   AND join-exprs(R1.join-attrs, ..., Rn.join-attrs)
//! {SAMPLE PERIOD x | ONCE}
//! ```
//!
//! This crate provides:
//!
//! * a hand-written tokenizer and recursive-descent parser ([`parse`]) for that
//!   dialect, including `|x|` absolute-value bars, the `distance(x1,y1,x2,y2)`
//!   builtin and `MIN`/`MAX`/`SUM`/`AVG`/`COUNT` aggregates (queries Q1/Q2
//!   of the paper parse verbatim),
//! * the [`ast`] — untyped expressions over qualified attribute references,
//! * [`CompiledQuery`] — name resolution against schemas, conjunct
//!   classification (the WHERE clause is split at its `AND`s after `NOT` is
//!   pushed into the comparisons, so `NOT (a OR b)` gives two conjuncts)
//!   into *local* predicates (single relation, evaluated at
//!   the node, §III "Optionally, the WHERE-clauses can narrow down the
//!   scope") and *join* predicates (≥ 2 relations), and extraction of the
//!   per-relation **join attributes** (paper Definition 1),
//! * one evaluator ([`eval`], [`holds`]) of the typed compiled expressions
//!   ([`NumExpr`], [`Pred`]), generic over the value [`Domain`]: points
//!   (`f64`) for tuple bindings, and
//! * [`interval`] — cells ([`Interval`]) with three-valued truth ([`Tri`]).
//!   This generalizes the paper's footnote 2 (widening Θ-join constants to
//!   the quantization resolution) to *arbitrary* join expressions: the
//!   pre-join asks "can any concrete values inside these quantization cells
//!   satisfy the condition?", which can yield false positives but never
//!   false negatives.
//!
//! # NaN and the no-false-negatives rule
//!
//! Every point comparison with a NaN operand is false, `<>` included (it is
//! `l < r || l > r`), and a compiled predicate has no `NOT` that could turn
//! such a false into a true: compilation pushes `NOT` into the comparisons
//! (`NOT a < b` is `a >= b`). So a binding with a NaN value never joins on
//! the comparison that reads it, and no cell needs to admit it. For every
//! other binding the rule holds per operator: over points drawn from the
//! operand intervals, each interval operation contains every non-NaN point
//! result, and a comparison true at the points is never `Tri::False` on the
//! intervals (`tests/domain_containment.rs`).
//!
//! # MIN and MAX
//!
//! A `MIN` or `MAX` is a function of the multiset of its values, whatever
//! order the rows arrive in: the least or greatest non-NaN value under
//! [`f64::total_cmp`] (so `-0.0 < +0.0`, and a tie has one answer), NaN
//! only when every value is NaN, and SQL NULL over no rows. Grouped
//! ([`CompiledQuery::fold_group`]) and ungrouped
//! ([`CompiledQuery::aggregate`]) folds follow the same rule. `SUM` and
//! `AVG` add in arrival order, so their last bits can still depend on it.
//!
//! # Example
//!
//! ```
//! use sensjoin_query::{parse, CompiledQuery};
//! use sensjoin_relation::{Schema, Attribute, AttrType};
//!
//! let q = parse(
//!     "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
//!      WHERE |A.temp - B.temp| < 0.3 \
//!      AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
//! ).unwrap();
//! let schema = Schema::new("Sensors", vec![
//!     Attribute::new("x", AttrType::Meters),
//!     Attribute::new("y", AttrType::Meters),
//!     Attribute::new("temp", AttrType::Celsius),
//!     Attribute::new("hum", AttrType::Percent),
//! ]);
//! let cq = CompiledQuery::compile(&q, &[schema.clone(), schema]).unwrap();
//! assert_eq!(cq.join_attrs(0), &[0, 1, 2]); // x, y, temp
//! assert_eq!(cq.num_relations(), 2);
//! ```

pub mod analyze;
pub mod ast;
mod compile;
mod eval;
pub mod interval;
mod parser;
mod token;

pub use analyze::{BandForm, PredClass, PredSide};
pub use ast::{AggFunc, BinOp, CmpOp, Expr, Query, SelectItem, Temporal};
pub use compile::{Columns, CompileError, CompiledQuery, CompiledSelect, NumExpr, Pred};
pub use eval::{eval, holds, Domain};
pub use interval::{Interval, Tri};
pub use parser::{parse, ParseError, MAX_EXPR_DEPTH};
