//! Name resolution, type checking and predicate classification.

use crate::analyze::{classify, PredClass};
use crate::ast::{AggFunc, BinOp, CmpOp, Expr, Query, Temporal};
use crate::eval::{eval, holds, Domain};
use sensjoin_quadtree::MAX_RELATIONS;
use sensjoin_relation::{AttrType, Schema};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A compiled (name-resolved) arithmetic expression: attribute references
/// are `(relation index, attribute index)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum NumExpr {
    /// Numeric literal.
    Number(f64),
    /// Resolved attribute reference.
    Col {
        /// Index into the FROM list.
        rel: usize,
        /// Attribute index within that relation's schema.
        attr: usize,
    },
    /// Negation.
    Neg(Box<NumExpr>),
    /// Absolute value.
    Abs(Box<NumExpr>),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<NumExpr>,
        /// Right operand.
        rhs: Box<NumExpr>,
    },
    /// Euclidean distance.
    Distance {
        /// Coordinate arguments.
        args: Box<[NumExpr; 4]>,
    },
}

/// A compiled predicate. It has no `NOT`: compilation pushes a negation
/// into the comparisons ([`CmpOp::negate`]) and swaps `AND` and `OR` on
/// the way (De Morgan).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<NumExpr>,
        /// Right operand.
        rhs: Box<NumExpr>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
}

/// The columns an expression reads.
pub trait Columns {
    /// Calls `f(rel, attr)` for every attribute reference, depth first.
    fn each_col(&self, f: &mut impl FnMut(usize, usize));

    /// The set of relation indices referenced.
    fn relations(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.each_col(&mut |rel, _| {
            out.insert(rel);
        });
        out
    }
}

impl Columns for NumExpr {
    fn each_col(&self, f: &mut impl FnMut(usize, usize)) {
        match self {
            NumExpr::Number(_) => {}
            NumExpr::Col { rel, attr } => f(*rel, *attr),
            NumExpr::Neg(e) | NumExpr::Abs(e) => e.each_col(f),
            NumExpr::Bin { lhs, rhs, .. } => {
                lhs.each_col(f);
                rhs.each_col(f);
            }
            NumExpr::Distance { args } => args.iter().for_each(|a| a.each_col(f)),
        }
    }
}

impl Columns for Pred {
    fn each_col(&self, f: &mut impl FnMut(usize, usize)) {
        match self {
            Pred::Cmp { lhs, rhs, .. } => {
                lhs.each_col(f);
                rhs.each_col(f);
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.each_col(f);
                b.each_col(f);
            }
        }
    }
}

/// Errors during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// FROM item count differs from the supplied schemas.
    SchemaCount {
        /// FROM items.
        expected: usize,
        /// Schemas given.
        got: usize,
    },
    /// A schema's name does not match its FROM item.
    RelationMismatch {
        /// FROM position.
        index: usize,
        /// Expected relation name.
        expected: String,
        /// Schema name supplied.
        got: String,
    },
    /// Two FROM items share an alias.
    DuplicateAlias(String),
    /// An attribute qualifier matched no alias.
    UnknownQualifier(String),
    /// A referenced attribute is missing from its relation's schema.
    UnknownAttribute {
        /// The alias used.
        qualifier: String,
        /// The attribute name.
        attr: String,
    },
    /// A boolean expression appeared where a number was needed, or vice
    /// versa.
    TypeError(String),
    /// Fewer than two relations — not a join query.
    NotAJoin,
    /// More relations than a point's relation flags can tell apart.
    TooManyRelations {
        /// FROM items.
        got: usize,
        /// The limit, [`sensjoin_quadtree::MAX_RELATIONS`].
        max: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::SchemaCount { expected, got } => {
                write!(
                    f,
                    "query has {expected} relations but {got} schemas were supplied"
                )
            }
            CompileError::RelationMismatch {
                index,
                expected,
                got,
            } => {
                write!(
                    f,
                    "FROM item {index} is {expected:?} but schema {got:?} was supplied"
                )
            }
            CompileError::DuplicateAlias(a) => write!(f, "duplicate alias {a:?}"),
            CompileError::UnknownQualifier(q) => write!(f, "unknown relation alias {q:?}"),
            CompileError::UnknownAttribute { qualifier, attr } => {
                write!(f, "relation {qualifier:?} has no attribute {attr:?}")
            }
            CompileError::TypeError(msg) => write!(f, "type error: {msg}"),
            CompileError::NotAJoin => write!(f, "join queries need at least two relations"),
            CompileError::TooManyRelations { got, max } => {
                write!(
                    f,
                    "query joins {got} relations; at most {max} are supported"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One compiled SELECT item.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSelect {
    /// Optional aggregate.
    pub agg: Option<AggFunc>,
    /// The projected expression.
    pub expr: NumExpr,
    /// Output column name.
    pub name: String,
}

/// A fully analyzed join query.
///
/// Compilation classifies the WHERE conjuncts:
///
/// * conjuncts over **zero** relations are folded immediately,
/// * conjuncts over **one** relation become *local predicates*, evaluated at
///   the producing node (early selection),
/// * conjuncts over **two or more** relations are *join predicates*; the
///   attributes they reference are the query's **join attributes**
///   (paper Definition 1).
///
/// Equality is structural — same catalog, same resolved expressions, same
/// classification — so two equal queries compute the same answer over any
/// snapshot. It is what lets a scheduler run one plan for every tenant
/// that submitted the same query.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    schemas: Vec<Schema>,
    aliases: Vec<String>,
    select: Vec<CompiledSelect>,
    group_by: Vec<NumExpr>,
    local_preds: Vec<Vec<Pred>>,
    join_preds: Vec<Pred>,
    pred_classes: Vec<PredClass>,
    join_attrs: Vec<Vec<usize>>,
    referenced: Vec<Vec<usize>>,
    temporal: Temporal,
    const_false: bool,
}

impl CompiledQuery {
    /// Compiles `query` against one schema per FROM item (positional; names
    /// must match, letting self-joins bind the same schema twice).
    pub fn compile(query: &Query, schemas: &[Schema]) -> Result<Self, CompileError> {
        if query.from.len() < 2 {
            return Err(CompileError::NotAJoin);
        }
        if query.from.len() > MAX_RELATIONS {
            return Err(CompileError::TooManyRelations {
                got: query.from.len(),
                max: MAX_RELATIONS,
            });
        }
        if schemas.len() != query.from.len() {
            return Err(CompileError::SchemaCount {
                expected: query.from.len(),
                got: schemas.len(),
            });
        }
        let mut aliases = Vec::with_capacity(query.from.len());
        for (i, item) in query.from.iter().enumerate() {
            if schemas[i].name() != item.relation {
                return Err(CompileError::RelationMismatch {
                    index: i,
                    expected: item.relation.clone(),
                    got: schemas[i].name().to_owned(),
                });
            }
            if aliases.contains(&item.alias) {
                return Err(CompileError::DuplicateAlias(item.alias.clone()));
            }
            aliases.push(item.alias.clone());
        }

        let resolver = Resolver {
            aliases: &aliases,
            schemas,
        };
        let mut select = Vec::with_capacity(query.select.len());
        for (i, item) in query.select.iter().enumerate() {
            let expr = resolver.num(&item.expr)?;
            let name = item.alias.clone().unwrap_or_else(|| format!("col{i}"));
            select.push(CompiledSelect {
                agg: item.agg,
                expr,
                name,
            });
        }
        let group_by: Vec<NumExpr> = query
            .group_by
            .iter()
            .map(|e| resolver.num(e))
            .collect::<Result<_, _>>()?;
        // SQL grouping rules: without GROUP BY, aggregates must be all or
        // nothing; with GROUP BY, every bare select item must be one of the
        // grouping expressions.
        let n_agg = select.iter().filter(|s| s.agg.is_some()).count();
        if group_by.is_empty() {
            if n_agg != 0 && n_agg != select.len() {
                return Err(CompileError::TypeError(
                    "mixing aggregates and plain expressions requires GROUP BY".into(),
                ));
            }
        } else {
            for s in &select {
                if s.agg.is_none() && !group_by.contains(&s.expr) {
                    return Err(CompileError::TypeError(format!(
                        "select item {:?} is neither aggregated nor in GROUP BY",
                        s.name
                    )));
                }
            }
        }

        let mut local_preds = vec![Vec::new(); query.from.len()];
        let mut join_preds = Vec::new();
        let mut const_false = false;
        if let Some(pred) = &query.predicate {
            // Split after resolution, so the `AND`s a pushed-down `NOT`
            // makes (`NOT (a OR b)` is `NOT a AND NOT b`) split too.
            let mut conjuncts = Vec::new();
            push_conjuncts(resolver.pred(pred, false)?, &mut conjuncts);
            for c in conjuncts {
                let rels = c.relations();
                match rels.len() {
                    // Constant (its env is never read): fold now.
                    0 => const_false |= !holds(&c, &|_, _| f64::NAN),
                    1 => {
                        let rel = *rels.first().expect("len 1");
                        local_preds[rel].push(c);
                    }
                    _ => join_preds.push(c),
                }
            }
        }

        let pred_classes: Vec<PredClass> = join_preds.iter().map(classify).collect();

        // What the join predicates read of each relation (its join
        // attributes), then what the whole query reads of it.
        let mut read = vec![BTreeSet::new(); query.from.len()];
        for p in &join_preds {
            p.each_col(&mut |rel, attr| {
                read[rel].insert(attr);
            });
        }
        let sorted = |sets: &[BTreeSet<usize>]| -> Vec<Vec<usize>> {
            sets.iter().map(|s| s.iter().copied().collect()).collect()
        };
        let join_attrs = sorted(&read);
        let mut note = |rel: usize, attr: usize| {
            read[rel].insert(attr);
        };
        for e in select.iter().map(|s| &s.expr).chain(&group_by) {
            e.each_col(&mut note);
        }
        for p in local_preds.iter().flatten() {
            p.each_col(&mut note);
        }
        let referenced = sorted(&read);

        Ok(Self {
            schemas: schemas.to_vec(),
            aliases,
            select,
            group_by,
            local_preds,
            join_preds,
            pred_classes,
            join_attrs,
            referenced,
            temporal: query.temporal,
            const_false,
        })
    }

    /// Number of relations in the FROM clause.
    pub fn num_relations(&self) -> usize {
        self.schemas.len()
    }

    /// Schema of relation `rel`.
    pub fn schema(&self, rel: usize) -> &Schema {
        &self.schemas[rel]
    }

    /// Alias of relation `rel`.
    pub fn alias(&self, rel: usize) -> &str {
        &self.aliases[rel]
    }

    /// The compiled SELECT list.
    pub fn select(&self) -> &[CompiledSelect] {
        &self.select
    }

    /// Whether every SELECT item is an aggregate (Q1-style query). Grouped
    /// queries are not "aggregate queries" in this sense: they produce one
    /// row per group.
    pub fn is_aggregate(&self) -> bool {
        self.group_by.is_empty()
            && !self.select.is_empty()
            && self.select.iter().all(|s| s.agg.is_some())
    }

    /// The resolved GROUP BY expressions (empty = no grouping).
    pub fn group_by(&self) -> &[NumExpr] {
        &self.group_by
    }

    /// Whether the query groups its output.
    pub fn has_group_by(&self) -> bool {
        !self.group_by.is_empty()
    }

    /// Evaluates the grouping key on a binding.
    pub fn eval_group_key(&self, env: &impl Fn(usize, usize) -> f64) -> Vec<f64> {
        self.group_by.iter().map(|g| eval(g, env)).collect()
    }

    /// Folds one group's rows into an output row, appended to `out`
    /// (grouped queries): each aggregate item folds over the group, each
    /// bare item takes its (group-constant) value from the first row. `rows`
    /// must be non-empty.
    pub fn fold_group<'a>(
        &self,
        rows: impl ExactSizeIterator<Item = &'a [f64]> + Clone,
        out: &mut Vec<f64>,
    ) {
        assert!(self.has_group_by() && rows.len() > 0);
        let n = rows.len() as f64;
        out.extend(self.select.iter().enumerate().map(|(i, s)| {
            let mut col = rows.clone().map(|r| r[i]);
            match s.agg {
                None => col.next().expect("a non-empty group"),
                Some(AggFunc::Count) => n,
                Some(AggFunc::Min) => extreme(col, Ordering::Less).expect("a non-empty group"),
                Some(AggFunc::Max) => extreme(col, Ordering::Greater).expect("a non-empty group"),
                Some(AggFunc::Sum) => col.sum(),
                Some(AggFunc::Avg) => col.sum::<f64>() / n,
            }
        }));
    }

    /// Join predicates (conjuncts over ≥ 2 relations).
    pub fn join_preds(&self) -> &[Pred] {
        &self.join_preds
    }

    /// Partitioning classes of the join predicates (parallel to
    /// [`CompiledQuery::join_preds`]): band predicates carry the structure
    /// a partitioned engine can index on; everything else is
    /// [`PredClass::General`].
    pub fn pred_classes(&self) -> &[PredClass] {
        &self.pred_classes
    }

    /// Local predicates of relation `rel`.
    pub fn local_preds(&self, rel: usize) -> &[Pred] {
        &self.local_preds[rel]
    }

    /// Join-attribute indices of relation `rel`, sorted.
    pub fn join_attrs(&self, rel: usize) -> &[usize] {
        &self.join_attrs[rel]
    }

    /// Attributes of `rel` referenced anywhere in the query — the early
    /// projection both join methods apply before shipping tuples.
    pub fn referenced_attrs(&self, rel: usize) -> &[usize] {
        &self.referenced[rel]
    }

    /// The temporal clause.
    pub fn temporal(&self) -> Temporal {
        self.temporal
    }

    /// Whether a constant WHERE conjunct is false (empty result).
    pub fn is_const_false(&self) -> bool {
        self.const_false
    }

    /// Evaluates all local predicates of `rel` on a tuple's values
    /// (`values[i]` = attribute `i` of the schema).
    pub fn eval_local(&self, rel: usize, values: &[f64]) -> bool {
        let env = |r: usize, a: usize| -> f64 {
            debug_assert_eq!(r, rel, "local predicate touching another relation");
            values[a]
        };
        self.local_preds[rel].iter().all(|p| holds(p, &env))
    }

    /// Evaluates the conjunction of the join predicates on a binding: on a
    /// full binding of values (`bool`), or on one of quantization cells
    /// ([`Tri`](crate::Tri)) — the pre-join's conservative test, whose
    /// [`possible`](crate::Tri::possible) verdict is never false where some
    /// values inside the cells join.
    pub fn eval_join<D: Domain>(&self, env: &impl Fn(usize, usize) -> D) -> D::Truth {
        let mut t = D::Truth::from(!self.const_false);
        for p in &self.join_preds {
            if t == false.into() {
                break;
            }
            t = t & holds(p, env);
        }
        t
    }

    /// Evaluates the SELECT expressions on a binding (pre-aggregation).
    pub fn eval_select_row(&self, env: &impl Fn(usize, usize) -> f64) -> Vec<f64> {
        self.select.iter().map(|s| eval(&s.expr, env)).collect()
    }

    /// Folds aggregate SELECT items over the produced rows. `None` entries
    /// mean SQL NULL (aggregate over an empty input, except COUNT).
    ///
    /// # Panics
    /// Panics if the query is not an aggregate query.
    pub fn aggregate<'a>(
        &self,
        rows: impl ExactSizeIterator<Item = &'a [f64]> + Clone,
    ) -> Vec<Option<f64>> {
        assert!(
            self.is_aggregate(),
            "aggregate() requires an aggregate query"
        );
        let n = rows.len();
        self.select
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let col = rows.clone().map(|r| r[i]);
                match s.agg.expect("checked aggregate") {
                    AggFunc::Count => Some(n as f64),
                    AggFunc::Min => extreme(col, Ordering::Less),
                    AggFunc::Max => extreme(col, Ordering::Greater),
                    AggFunc::Sum => (n > 0).then(|| col.sum()),
                    AggFunc::Avg => (n > 0).then(|| col.sum::<f64>() / n as f64),
                }
            })
            .collect()
    }

    /// The layout of the shared quantization space: deduplicated join-
    /// attribute dimensions (name + type, first-seen order) and, per
    /// relation, the dimension index of each of its join attributes
    /// (parallel to [`CompiledQuery::join_attrs`]).
    ///
    /// Join attributes with equal names and types share a dimension — for
    /// the homogeneous self-joins of the paper's evaluation this reproduces
    /// its single shared space exactly; heterogeneous queries get extra
    /// dimensions which foreign points fill with cell 0.
    pub fn join_layout(&self) -> (Vec<(String, AttrType)>, Vec<Vec<usize>>) {
        let mut dims: Vec<(String, AttrType)> = Vec::new();
        let mut maps = Vec::with_capacity(self.num_relations());
        for rel in 0..self.num_relations() {
            let mut map = Vec::with_capacity(self.join_attrs[rel].len());
            for &a in &self.join_attrs[rel] {
                let attr = &self.schemas[rel].attrs()[a];
                let key = (attr.name().to_owned(), attr.ty());
                let dim = match dims.iter().position(|d| *d == key) {
                    Some(i) => i,
                    None => {
                        dims.push(key);
                        dims.len() - 1
                    }
                };
                map.push(dim);
            }
            maps.push(map);
        }
        (dims, maps)
    }

    /// This query with its relations in another order: relation `l` of the
    /// result is relation `order[l]` of this one. Every expression reads the
    /// same columns under the new numbers, so it computes the same bits, and
    /// a predicate keeps its position and its class.
    pub fn reordered(&self, order: &[usize]) -> Self {
        let mut number = vec![0; order.len()];
        for (l, &rel) in order.iter().enumerate() {
            number[rel] = l;
        }
        fn permute<T: Clone>(per_rel: &mut Vec<T>, order: &[usize]) {
            *per_rel = order.iter().map(|&rel| per_rel[rel].clone()).collect();
        }
        let mut query = self.clone();
        permute(&mut query.schemas, order);
        permute(&mut query.aliases, order);
        permute(&mut query.local_preds, order);
        permute(&mut query.join_attrs, order);
        permute(&mut query.referenced, order);
        let exprs = query.select.iter_mut().map(|s| &mut s.expr);
        exprs
            .chain(&mut query.group_by)
            .for_each(|e| e.renumber(&number));
        let preds = query.local_preds.iter_mut().flatten();
        preds
            .chain(&mut query.join_preds)
            .for_each(|p| p.renumber(&number));
        query.pred_classes = query.join_preds.iter().map(classify).collect();
        query
    }
}

impl NumExpr {
    /// Reads relation `number[rel]` wherever it read `rel`.
    fn renumber(&mut self, number: &[usize]) {
        match self {
            NumExpr::Number(_) => {}
            NumExpr::Col { rel, .. } => *rel = number[*rel],
            NumExpr::Neg(e) | NumExpr::Abs(e) => e.renumber(number),
            NumExpr::Bin { lhs, rhs, .. } => {
                [lhs, rhs].into_iter().for_each(|e| e.renumber(number))
            }
            NumExpr::Distance { args } => args.iter_mut().for_each(|a| a.renumber(number)),
        }
    }
}

impl Pred {
    /// [`NumExpr::renumber`] over every comparison.
    fn renumber(&mut self, number: &[usize]) {
        match self {
            Pred::Cmp { lhs, rhs, .. } => [lhs, rhs].into_iter().for_each(|e| e.renumber(number)),
            Pred::And(a, b) | Pred::Or(a, b) => [a, b].into_iter().for_each(|p| p.renumber(number)),
        }
    }
}

struct Resolver<'a> {
    aliases: &'a [String],
    schemas: &'a [Schema],
}

impl Resolver<'_> {
    /// Resolves the arithmetic expression `expr`. This and [`Self::pred`]
    /// are the recursion over the expression, so the column lookup and the
    /// type error live in helpers, off the stack frames a deep expression
    /// stacks up (`MAX_EXPR_DEPTH`).
    fn num(&self, expr: &Expr) -> Result<NumExpr, CompileError> {
        let num = |e: &Expr| Ok::<_, CompileError>(Box::new(self.num(e)?));
        Ok(match expr {
            Expr::Number(n) => NumExpr::Number(*n),
            Expr::Attr { qualifier, attr } => self.column(qualifier, attr)?,
            Expr::Neg(e) => NumExpr::Neg(num(e)?),
            Expr::Abs(e) => NumExpr::Abs(num(e)?),
            Expr::Bin { op, lhs, rhs } => NumExpr::Bin {
                op: *op,
                lhs: num(lhs)?,
                rhs: num(rhs)?,
            },
            Expr::Distance { args } => {
                let [a, b, c, d] = args.as_ref();
                NumExpr::Distance {
                    args: Box::new([*num(a)?, *num(b)?, *num(c)?, *num(d)?]),
                }
            }
            Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
                return Err(type_error("numeric", "boolean"))
            }
        })
    }

    /// Resolves the boolean expression `expr`, negated iff `negated`: a
    /// negation flips the operator of each comparison under it and swaps
    /// `AND` and `OR`.
    fn pred(&self, expr: &Expr, negated: bool) -> Result<Pred, CompileError> {
        let pred = |e: &Expr| Ok::<_, CompileError>(Box::new(self.pred(e, negated)?));
        Ok(match expr {
            Expr::Cmp { op, lhs, rhs } => Pred::Cmp {
                op: if negated { op.negate() } else { *op },
                lhs: Box::new(self.num(lhs)?),
                rhs: Box::new(self.num(rhs)?),
            },
            Expr::And(a, b) if !negated => Pred::And(pred(a)?, pred(b)?),
            Expr::Or(a, b) if negated => Pred::And(pred(a)?, pred(b)?),
            Expr::And(a, b) | Expr::Or(a, b) => Pred::Or(pred(a)?, pred(b)?),
            Expr::Not(e) => self.pred(e, !negated)?,
            _ => return Err(type_error("boolean", "numeric")),
        })
    }

    /// The column `qualifier.attr` names.
    fn column(&self, qualifier: &str, attr: &str) -> Result<NumExpr, CompileError> {
        let rel = self
            .aliases
            .iter()
            .position(|a| a == qualifier)
            .ok_or_else(|| CompileError::UnknownQualifier(qualifier.to_owned()))?;
        let idx =
            self.schemas[rel]
                .index_of(attr)
                .ok_or_else(|| CompileError::UnknownAttribute {
                    qualifier: qualifier.to_owned(),
                    attr: attr.to_owned(),
                })?;
        Ok(NumExpr::Col { rel, attr: idx })
    }
}

/// Appends the conjuncts of `pred` to `out`, left to right.
fn push_conjuncts(pred: Pred, out: &mut Vec<Pred>) {
    match pred {
        Pred::And(a, b) => {
            push_conjuncts(*a, out);
            push_conjuncts(*b, out);
        }
        p => out.push(p),
    }
}

/// MIN (`want` = `Less`) or MAX (`Greater`) of `col`: the least or greatest
/// non-NaN value under [`f64::total_cmp`] (so `-0.0 < +0.0`), NaN when every
/// value is NaN, `None` when there is none. The answer depends on the
/// multiset of values only, never on their order.
fn extreme(col: impl Iterator<Item = f64>, want: Ordering) -> Option<f64> {
    let mut any = false;
    let best = col
        .inspect(|_| any = true)
        .filter(|v| !v.is_nan())
        .reduce(|best, v| if v.total_cmp(&best) == want { v } else { best });
    any.then(|| best.unwrap_or(f64::NAN))
}

/// The error for an expression of kind `found` where one of kind `want` was
/// wanted.
fn type_error(want: &str, found: &str) -> CompileError {
    CompileError::TypeError(format!("expected {want} expression, found {found}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Interval};
    use sensjoin_relation::Attribute;

    fn sensors_schema() -> Schema {
        Schema::new(
            "Sensors",
            vec![
                Attribute::new("x", AttrType::Meters),
                Attribute::new("y", AttrType::Meters),
                Attribute::new("temp", AttrType::Celsius),
                Attribute::new("hum", AttrType::Percent),
                Attribute::new("pres", AttrType::Hectopascal),
            ],
        )
    }

    fn compile(sql: &str) -> CompiledQuery {
        let q = parse(sql).unwrap();
        let schemas: Vec<Schema> = q.from.iter().map(|_| sensors_schema()).collect();
        CompiledQuery::compile(&q, &schemas).unwrap()
    }

    #[test]
    fn q1_analysis() {
        let cq = compile(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 10.0 ONCE",
        );
        assert!(cq.is_aggregate());
        assert_eq!(cq.join_preds().len(), 1);
        assert_eq!(cq.join_attrs(0), &[2]); // temp
        assert_eq!(cq.join_attrs(1), &[2]);
        // Referenced: x, y (select) + temp (join) = 3 of 5 -> the paper's
        // "33% join attributes" default (1 join attr of 3 overall).
        assert_eq!(cq.referenced_attrs(0), &[0, 1, 2]);
    }

    #[test]
    fn q2_analysis() {
        let cq = compile(
            "SELECT |A.hum - B.hum|, |A.pres - B.pres| FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
        );
        assert!(!cq.is_aggregate());
        assert_eq!(cq.join_preds().len(), 2);
        assert_eq!(cq.join_attrs(0), &[0, 1, 2]); // x, y, temp
                                                  // Referenced: x y temp hum pres = 5; 3 join attrs of 5 -> 60%.
        assert_eq!(cq.referenced_attrs(0).len(), 5);
    }

    #[test]
    fn local_vs_join_predicates() {
        let cq = compile(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.hum > 50 AND B.hum > 50 AND A.temp < B.temp AND 1 < 2 ONCE",
        );
        assert_eq!(cq.local_preds(0).len(), 1);
        assert_eq!(cq.local_preds(1).len(), 1);
        assert_eq!(cq.join_preds().len(), 1);
        assert!(!cq.is_const_false());
        assert!(cq.eval_local(0, &[0.0, 0.0, 21.0, 60.0, 1000.0]));
        assert!(!cq.eval_local(0, &[0.0, 0.0, 21.0, 40.0, 1000.0]));
    }

    #[test]
    fn const_false_detected() {
        let cq = compile("SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE 2 < 1 ONCE");
        assert!(cq.is_const_false());
        let env = |_: usize, _: usize| 0.0;
        assert!(!cq.eval_join(&env));
    }

    #[test]
    fn not_is_pushed_into_the_comparisons() {
        let cq = compile(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE NOT (A.temp < B.temp OR NOT A.x = B.x) ONCE",
        );
        let cmp = |op, attr| Pred::Cmp {
            op,
            lhs: Box::new(NumExpr::Col { rel: 0, attr }),
            rhs: Box::new(NumExpr::Col { rel: 1, attr }),
        };
        // The `AND` De Morgan makes is split like a written one.
        assert_eq!(cq.join_preds(), &[cmp(CmpOp::Ge, 2), cmp(CmpOp::Eq, 0)]);
        // A NaN makes the negated comparison false, as it does the original.
        let nan = |_: usize, attr: usize| if attr == 2 { f64::NAN } else { 1.0 };
        assert!(!cq.eval_join(&nan));
    }

    /// `NOT (A.x < B.x OR A.y > 5)` is a local conjunct of A and a band,
    /// not one general join predicate.
    #[test]
    fn pushed_down_not_splits_into_classifiable_conjuncts() {
        let cq = compile(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE NOT (A.x < B.x OR A.y > 5) ONCE",
        );
        let col = |rel, attr| Box::new(NumExpr::Col { rel, attr });
        let local = Pred::Cmp {
            op: CmpOp::Le,
            lhs: col(0, 1),
            rhs: Box::new(NumExpr::Number(5.0)),
        };
        assert_eq!(cq.local_preds(0), &[local]);
        assert!(cq.local_preds(1).is_empty());
        let band = Pred::Cmp {
            op: CmpOp::Ge,
            lhs: col(0, 0),
            rhs: col(1, 0),
        };
        assert_eq!(cq.join_preds(), &[band]);
        assert!(matches!(
            cq.pred_classes(),
            [PredClass::Band {
                form: crate::BandForm::Direct(CmpOp::Ge),
                ..
            }]
        ));
        assert_eq!(cq.join_attrs(0), &[0]);
    }

    #[test]
    fn join_layout_shares_dimensions_for_self_join() {
        let cq = compile(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
        );
        let (dims, maps) = cq.join_layout();
        assert_eq!(dims.len(), 3); // x, y, temp shared by A and B
        assert_eq!(maps[0], maps[1]);
    }

    #[test]
    fn eval_join_pair() {
        let cq = compile(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.5 ONCE",
        );
        let a = [0.0, 0.0, 21.3, 40.0, 1000.0];
        let b = [5.0, 5.0, 21.6, 45.0, 1001.0];
        let env = move |rel: usize, attr: usize| if rel == 0 { a[attr] } else { b[attr] };
        assert!(cq.eval_join(&env));
        assert_eq!(cq.eval_select_row(&env), vec![40.0, 45.0]);
        let b2 = [5.0, 5.0, 25.0, 45.0, 1001.0];
        let env2 = move |rel: usize, attr: usize| if rel == 0 { a[attr] } else { b2[attr] };
        assert!(!cq.eval_join(&env2));
    }

    #[test]
    fn possibly_joins_is_conservative() {
        let cq = compile(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.5 ONCE",
        );
        // Cells of width 1 around 21 and 22: |diff| in [0, 2] -> maybe.
        let env = |rel: usize, _attr: usize| {
            if rel == 0 {
                Interval::new(21.0, 22.0)
            } else {
                Interval::new(22.0, 23.0)
            }
        };
        assert!(cq.eval_join(&env).possible());
        // Cells far apart -> impossible.
        let env2 = |rel: usize, _attr: usize| {
            if rel == 0 {
                Interval::new(10.0, 11.0)
            } else {
                Interval::new(30.0, 31.0)
            }
        };
        assert!(!cq.eval_join(&env2).possible());
    }

    #[test]
    fn aggregate_folding() {
        let cq = compile(
            "SELECT MIN(A.temp), MAX(B.temp), AVG(A.temp), COUNT(A.temp), SUM(B.temp) \
             FROM Sensors A, Sensors B WHERE A.temp < B.temp ONCE",
        );
        let rows: [&[f64]; 2] = [&[1.0, 5.0, 1.0, 0.0, 5.0], &[3.0, 7.0, 3.0, 0.0, 7.0]];
        let agg = cq.aggregate(rows.into_iter());
        assert_eq!(
            agg,
            vec![Some(1.0), Some(7.0), Some(2.0), Some(2.0), Some(12.0)]
        );
        let empty = cq.aggregate(std::iter::empty());
        assert_eq!(empty, vec![None, None, None, Some(0.0), None]);
    }

    /// MIN and MAX are functions of the multiset: every order of the same
    /// rows gives the same bits (a −0/+0 tie included, NaN skipped), and
    /// grouped and ungrouped folds agree, on an all-NaN column too.
    #[test]
    fn min_max_ignore_row_order() {
        let cq = compile(
            "SELECT MIN(A.temp), MAX(A.temp) FROM Sensors A, Sensors B \
             WHERE A.temp < B.temp ONCE",
        );
        let grouped = compile(
            "SELECT A.hum, MIN(A.temp), MAX(A.temp) FROM Sensors A, Sensors B \
             WHERE A.temp < B.temp GROUP BY A.hum ONCE",
        );
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|x| x.map(f64::to_bits)).collect()
        };
        let cases: [(&[f64], [f64; 2]); 3] = [
            (&[0.0, -0.0, f64::NAN, 0.0], [-0.0, 0.0]),
            (&[3.0, f64::NAN, -2.0, 7.5, -2.0], [-2.0, 7.5]),
            (&[f64::NAN, -f64::NAN, f64::NAN], [f64::NAN, f64::NAN]),
        ];
        for (values, [min, max]) in cases {
            let want = vec![Some(min.to_bits()), Some(max.to_bits())];
            // Every rotation, forwards and backwards.
            for turn in 0..values.len() {
                for reverse in [false, true] {
                    let mut col = values.to_vec();
                    col.rotate_left(turn);
                    if reverse {
                        col.reverse();
                    }
                    let rows: Vec<[f64; 2]> = col.iter().map(|&v| [v, v]).collect();
                    let got = cq.aggregate(rows.iter().map(|r| &r[..]));
                    assert_eq!(bits(&got), want, "{col:?}");
                    let rows: Vec<[f64; 3]> = col.iter().map(|&v| [1.0, v, v]).collect();
                    let mut out = Vec::new();
                    grouped.fold_group(rows.iter().map(|r| &r[..]), &mut out);
                    let out: Vec<Option<f64>> = out[1..].iter().copied().map(Some).collect();
                    assert_eq!(bits(&out), want, "grouped {col:?}");
                }
            }
        }
    }

    /// One more relation than a point's flag byte holds is a compile error
    /// naming the limit; the limit itself compiles.
    #[test]
    fn more_relations_than_flag_bits_are_rejected() {
        let cross = |n: usize| {
            let from: Vec<String> = (0..n).map(|i| format!("Sensors R{i}")).collect();
            let q = parse(&format!("SELECT R0.temp FROM {} ONCE", from.join(", "))).unwrap();
            CompiledQuery::compile(&q, &vec![sensors_schema(); n])
        };
        assert_eq!(cross(MAX_RELATIONS).unwrap().num_relations(), 8);
        let err = cross(MAX_RELATIONS + 1).unwrap_err();
        assert_eq!(err, CompileError::TooManyRelations { got: 9, max: 8 });
        assert_eq!(
            err.to_string(),
            "query joins 9 relations; at most 8 are supported"
        );
    }

    #[test]
    fn errors() {
        let q = parse("SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q, &[sensors_schema()]),
            Err(CompileError::SchemaCount { .. })
        ));
        let single = parse("SELECT Sensors.temp FROM Sensors ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&single, &[sensors_schema()]),
            Err(CompileError::NotAJoin)
        ));
        let q2 = parse("SELECT A.nope, B.temp FROM Sensors A, Sensors B ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q2, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::UnknownAttribute { .. })
        ));
        let q3 = parse("SELECT C.temp, B.temp FROM Sensors A, Sensors B ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q3, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::UnknownQualifier(_))
        ));
        let q4 = parse("SELECT A.temp, A.temp FROM Sensors A, Sensors A ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q4, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::DuplicateAlias(_))
        ));
        let q5 = parse("SELECT A.temp < B.temp FROM Sensors A, Sensors B ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q5, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::TypeError(_))
        ));
        let q6 =
            parse("SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp + 1 ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q6, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::TypeError(_))
        ));
        let q7 = parse("SELECT A.temp, B.temp FROM Sensors A, Other B ONCE").unwrap();
        assert!(matches!(
            CompiledQuery::compile(&q7, &[sensors_schema(), sensors_schema()]),
            Err(CompileError::RelationMismatch { .. })
        ));
    }
}
