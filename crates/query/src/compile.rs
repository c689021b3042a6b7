//! Name resolution, type checking and predicate classification.

use crate::analyze::{classify, PredClass};
use crate::ast::{AggFunc, BinOp, CmpOp, Expr, Query, Temporal};
use crate::eval::{eval_expr, eval_predicate, EvalEnv};
use crate::interval::{eval_predicate_interval, Interval, Tri};
use sensjoin_relation::{AttrType, Schema};
use std::collections::BTreeSet;

/// A compiled (name-resolved) expression: attribute references are
/// `(relation index, attribute index)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
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
    Neg(Box<CExpr>),
    /// Absolute value.
    Abs(Box<CExpr>),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Euclidean distance.
    Distance {
        /// Coordinate arguments.
        args: Box<[CExpr; 4]>,
    },
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Conjunction.
    And(Box<CExpr>, Box<CExpr>),
    /// Disjunction.
    Or(Box<CExpr>, Box<CExpr>),
    /// Negation (logical).
    Not(Box<CExpr>),
}

impl CExpr {
    /// The set of relation indices referenced.
    pub fn relations(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.walk(&mut |e| {
            if let CExpr::Col { rel, .. } = e {
                out.insert(*rel);
            }
        });
        out
    }

    /// Attribute indices of relation `rel` referenced in this expression.
    pub fn attrs_of(&self, rel: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.walk(&mut |e| {
            if let CExpr::Col { rel: r, attr } = e {
                if *r == rel {
                    out.insert(*attr);
                }
            }
        });
        out
    }

    fn walk(&self, f: &mut impl FnMut(&CExpr)) {
        f(self);
        match self {
            CExpr::Number(_) | CExpr::Col { .. } => {}
            CExpr::Neg(e) | CExpr::Abs(e) | CExpr::Not(e) => e.walk(f),
            CExpr::Bin { lhs, rhs, .. } | CExpr::Cmp { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            CExpr::And(a, b) | CExpr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            CExpr::Distance { args } => {
                for a in args.iter() {
                    a.walk(f);
                }
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
    pub expr: CExpr,
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
    group_by: Vec<CExpr>,
    local_preds: Vec<Vec<CExpr>>,
    join_preds: Vec<CExpr>,
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
            let expr = resolver.resolve(&item.expr, false)?;
            let name = item.alias.clone().unwrap_or_else(|| format!("col{i}"));
            select.push(CompiledSelect {
                agg: item.agg,
                expr,
                name,
            });
        }
        let group_by: Vec<CExpr> = query
            .group_by
            .iter()
            .map(|e| resolver.resolve(e, false))
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
            for conjunct in pred.conjuncts() {
                let c = resolver.resolve(conjunct, true)?;
                let rels = c.relations();
                match rels.len() {
                    0 => {
                        // Constant: fold now.
                        let env = |_: usize, _: usize| -> f64 {
                            unreachable!("constant predicate has no columns")
                        };
                        if !eval_predicate(&c, &env) {
                            const_false = true;
                        }
                    }
                    1 => {
                        let rel = *rels.first().expect("len 1");
                        local_preds[rel].push(c);
                    }
                    _ => join_preds.push(c),
                }
            }
        }

        let pred_classes: Vec<PredClass> = join_preds.iter().map(classify).collect();

        let join_attrs: Vec<Vec<usize>> = (0..query.from.len())
            .map(|rel| {
                let mut set = BTreeSet::new();
                for p in &join_preds {
                    set.extend(p.attrs_of(rel));
                }
                set.into_iter().collect()
            })
            .collect();

        let referenced: Vec<Vec<usize>> = (0..query.from.len())
            .map(|rel| {
                let mut set = BTreeSet::new();
                for s in &select {
                    set.extend(s.expr.attrs_of(rel));
                }
                for g in &group_by {
                    set.extend(g.attrs_of(rel));
                }
                for p in &join_preds {
                    set.extend(p.attrs_of(rel));
                }
                for p in &local_preds[rel] {
                    set.extend(p.attrs_of(rel));
                }
                set.into_iter().collect()
            })
            .collect();

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
    pub fn group_by(&self) -> &[CExpr] {
        &self.group_by
    }

    /// Whether the query groups its output.
    pub fn has_group_by(&self) -> bool {
        !self.group_by.is_empty()
    }

    /// Evaluates the grouping key on a binding.
    pub fn eval_group_key(&self, env: &impl EvalEnv) -> Vec<f64> {
        self.group_by.iter().map(|g| eval_expr(g, env)).collect()
    }

    /// [`CompiledQuery::eval_group_key`], appended to `out`.
    pub fn eval_group_key_into(&self, env: &impl EvalEnv, out: &mut Vec<f64>) {
        out.extend(self.group_by.iter().map(|g| eval_expr(g, env)));
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
                Some(AggFunc::Min) => col.fold(f64::INFINITY, f64::min),
                Some(AggFunc::Max) => col.fold(f64::NEG_INFINITY, f64::max),
                Some(AggFunc::Sum) => col.sum(),
                Some(AggFunc::Avg) => col.sum::<f64>() / n,
            }
        }));
    }

    /// Join predicates (conjuncts over ≥ 2 relations).
    pub fn join_preds(&self) -> &[CExpr] {
        &self.join_preds
    }

    /// Partitioning classes of the join predicates (parallel to
    /// [`CompiledQuery::join_preds`]): equi / band predicates carry the
    /// structure a partitioned engine can index on; everything else is
    /// [`PredClass::General`].
    pub fn pred_classes(&self) -> &[PredClass] {
        &self.pred_classes
    }

    /// Local predicates of relation `rel`.
    pub fn local_preds(&self, rel: usize) -> &[CExpr] {
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

    /// Wire size of a projected (complete) tuple of `rel`.
    pub fn tuple_wire_size(&self, rel: usize) -> usize {
        self.schemas[rel].projected_wire_size(&self.referenced[rel])
    }

    /// Wire size of a raw join-attribute tuple of `rel` (without the
    /// quadtree representation).
    pub fn join_attr_wire_size(&self, rel: usize) -> usize {
        self.schemas[rel].projected_wire_size(&self.join_attrs[rel])
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
        self.local_preds[rel]
            .iter()
            .all(|p| eval_predicate(p, &env))
    }

    /// Evaluates the join predicates on a full binding.
    pub fn eval_join(&self, env: &impl EvalEnv) -> bool {
        !self.const_false && self.join_preds.iter().all(|p| eval_predicate(p, env))
    }

    /// Conservative cell-level join test: `true` iff every join predicate is
    /// *possibly* satisfied when each attribute only known up to an interval.
    pub fn possibly_joins(&self, env: &impl Fn(usize, usize) -> Interval) -> bool {
        !self.const_false
            && self
                .join_preds
                .iter()
                .all(|p| eval_predicate_interval(p, env) != Tri::False)
    }

    /// Evaluates the SELECT expressions on a binding (pre-aggregation).
    pub fn eval_select_row(&self, env: &impl EvalEnv) -> Vec<f64> {
        self.select
            .iter()
            .map(|s| eval_expr(&s.expr, env))
            .collect()
    }

    /// [`CompiledQuery::eval_select_row`], appended to `out`.
    pub fn eval_select_into(&self, env: &impl EvalEnv, out: &mut Vec<f64>) {
        out.extend(self.select.iter().map(|s| eval_expr(&s.expr, env)));
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
                    AggFunc::Min => col.reduce(f64::min),
                    AggFunc::Max => col.reduce(f64::max),
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
}

struct Resolver<'a> {
    aliases: &'a [String],
    schemas: &'a [Schema],
}

impl Resolver<'_> {
    /// Resolves `expr`, which must be boolean iff `want_bool`. This is the
    /// recursion over the expression, so the column lookup and the type
    /// error live in helpers, off the stack frames a deep expression stacks
    /// up (`MAX_EXPR_DEPTH`).
    fn resolve(&self, expr: &Expr, want_bool: bool) -> Result<CExpr, CompileError> {
        let num = |e: &Expr| Ok::<_, CompileError>(Box::new(self.resolve(e, false)?));
        let boolean = |e: &Expr| Ok::<_, CompileError>(Box::new(self.resolve(e, true)?));
        let c = match expr {
            Expr::Number(n) => CExpr::Number(*n),
            Expr::Attr { qualifier, attr } => self.column(qualifier, attr)?,
            Expr::Neg(e) => CExpr::Neg(num(e)?),
            Expr::Abs(e) => CExpr::Abs(num(e)?),
            Expr::Bin { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                lhs: num(lhs)?,
                rhs: num(rhs)?,
            },
            Expr::Distance { args } => {
                let [a, b, c, d] = args.as_ref();
                CExpr::Distance {
                    args: Box::new([*num(a)?, *num(b)?, *num(c)?, *num(d)?]),
                }
            }
            Expr::Cmp { op, lhs, rhs } => CExpr::Cmp {
                op: *op,
                lhs: num(lhs)?,
                rhs: num(rhs)?,
            },
            Expr::And(a, b) => CExpr::And(boolean(a)?, boolean(b)?),
            Expr::Or(a, b) => CExpr::Or(boolean(a)?, boolean(b)?),
            Expr::Not(e) => CExpr::Not(boolean(e)?),
        };
        let is_bool = matches!(
            c,
            CExpr::Cmp { .. } | CExpr::And(..) | CExpr::Or(..) | CExpr::Not(..)
        );
        if is_bool != want_bool {
            return Err(type_error(want_bool));
        }
        Ok(c)
    }

    /// The column `qualifier.attr` names.
    fn column(&self, qualifier: &str, attr: &str) -> Result<CExpr, CompileError> {
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
        Ok(CExpr::Col { rel, attr: idx })
    }
}

/// The error for an expression of the wrong kind where a boolean one was
/// wanted iff `want_bool`.
fn type_error(want_bool: bool) -> CompileError {
    let (want, found) = if want_bool {
        ("boolean", "numeric")
    } else {
        ("numeric", "boolean")
    };
    CompileError::TypeError(format!("expected {want} expression, found {found}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
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
        assert_eq!(cq.tuple_wire_size(0), 6);
        assert_eq!(cq.join_attr_wire_size(0), 2);
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
        assert!(cq.possibly_joins(&env));
        // Cells far apart -> impossible.
        let env2 = |rel: usize, _attr: usize| {
            if rel == 0 {
                Interval::new(10.0, 11.0)
            } else {
                Interval::new(30.0, 31.0)
            }
        };
        assert!(!cq.possibly_joins(&env2));
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
