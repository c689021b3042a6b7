//! Execution outcomes: query results plus cost accounting.

use crate::engine::{ResultSink, RowSink};
use crate::scheduler::GroupFull;
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{NetworkStats, Time};
use std::collections::BTreeSet;

/// Errors during protocol execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The base station is cut off from every other node.
    BaseIsolated,
    /// Internal representation failure (decode of a wire message).
    Representation(String),
    /// A query was scheduled to join a [`crate::QueryGroup`] that already
    /// holds [`crate::MAX_GROUP_QUERIES`] live queries.
    GroupFull,
    /// A restored executor was run on a network its checkpoint does not
    /// describe (another node count or another master schema, or shipped
    /// tuples that are not its nodes' shipped values).
    ForeignCheckpoint,
}

impl From<GroupFull> for ProtocolError {
    fn from(_: GroupFull) -> Self {
        ProtocolError::GroupFull
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BaseIsolated => write!(f, "base station has no neighbors"),
            ProtocolError::Representation(msg) => write!(f, "representation error: {msg}"),
            ProtocolError::GroupFull => GroupFull.fmt(f),
            ProtocolError::ForeignCheckpoint => {
                write!(f, "checkpoint does not belong to this deployment")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The computed query answer.
#[derive(Debug, Clone)]
pub enum JoinResult {
    /// Non-aggregate query: one row of SELECT values per joining binding.
    Rows(Vec<Vec<f64>>),
    /// Aggregate query: one value per SELECT item (`None` = SQL NULL).
    Aggregate(Vec<Option<f64>>),
}

impl JoinResult {
    /// Number of result rows (aggregates count as one).
    pub fn len(&self) -> usize {
        match self {
            JoinResult::Rows(r) => r.len(),
            JoinResult::Aggregate(_) => 1,
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            JoinResult::Rows(r) => r.is_empty(),
            JoinResult::Aggregate(_) => false,
        }
    }

    /// Multiset equality of results, independent of row order. Values are
    /// compared by bit pattern: all join methods evaluate the same
    /// expressions on the same tuple values, so agreeing methods agree
    /// bitwise — a NaN equals a NaN of the same payload, and −0.0 differs
    /// from 0.0. `other` is a [`JoinResult`] or a [`GroupResult`].
    pub fn same_result(&self, other: &impl Answer) -> bool {
        same_answer(self.answer(), other.answer())
    }
}

/// Result rows in one row-major buffer: `len` rows of `arity` values each.
/// The row count is kept, not derived, so arity-0 rows still count.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    arity: usize,
    len: usize,
    values: Vec<f64>,
}

impl Rows {
    /// No rows yet, each to hold `arity` values.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            ..Self::default()
        }
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.values[i * self.arity..][..self.arity]
    }

    /// The rows in order.
    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            rows: self,
            at: 0..self.len,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row` does not hold [`Rows::arity`] values.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.arity, "row arity");
        self.values.extend_from_slice(row);
        self.len += 1;
    }
}

/// The flat sink: a row is `arity` values appended to the one buffer.
impl RowSink for Rows {
    fn sinks(query: &CompiledQuery) -> (Self, Self) {
        (
            Rows::new(query.select().len()),
            Rows::new(query.group_by().len()),
        )
    }

    fn try_reserve(&mut self, rows: usize) {
        let _ = (self.values).try_reserve_exact(rows.saturating_mul(self.arity));
    }

    fn append(&mut self, later: Rows) {
        debug_assert_eq!(self.arity, later.arity);
        self.values.extend_from_slice(&later.values);
        self.len += later.len;
    }

    fn emit(&mut self, keys: &mut Self, _: &[usize], select: &[f64], key: &[f64]) {
        debug_assert_eq!(select.len(), self.arity, "row arity");
        self.values.extend_from_slice(select);
        self.len += 1;
        if !key.is_empty() {
            debug_assert_eq!(key.len(), keys.arity, "key arity");
            keys.values.extend_from_slice(key);
            keys.len += 1;
        }
    }
}

impl ResultSink for Rows {
    type Result = GroupResult;

    fn new(arity: usize) -> Self {
        Rows::new(arity)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn row(&self, i: usize) -> &[f64] {
        Rows::row(self, i)
    }

    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        fill(&mut self.values);
        self.len += 1;
        debug_assert_eq!(self.values.len(), self.len * self.arity, "row arity");
    }

    fn into_rows(self) -> GroupResult {
        GroupResult::Rows(self)
    }

    fn aggregate(values: Vec<Option<f64>>) -> GroupResult {
        GroupResult::Aggregate(values)
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [f64];
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

/// The rows of a [`Rows`], in order ([`Rows::iter`]).
#[derive(Debug, Clone)]
pub struct RowsIter<'a> {
    rows: &'a Rows,
    at: std::ops::Range<usize>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        self.at.next().map(|i| self.rows.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

/// The answer a [`crate::QueryGroup`] epoch hands each due subscriber: the
/// variants of [`JoinResult`], with the rows in one flat buffer.
#[derive(Debug, Clone)]
pub enum GroupResult {
    /// Non-aggregate query: one row of SELECT values per joining binding
    /// (per group, under GROUP BY).
    Rows(Rows),
    /// Aggregate query: one value per SELECT item (`None` = SQL NULL).
    Aggregate(Vec<Option<f64>>),
}

impl GroupResult {
    /// Number of result rows (aggregates count as one).
    pub fn len(&self) -> usize {
        match self {
            GroupResult::Rows(r) => r.len(),
            GroupResult::Aggregate(_) => 1,
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            GroupResult::Rows(r) => r.is_empty(),
            GroupResult::Aggregate(_) => false,
        }
    }

    /// [`JoinResult::same_result`]: the same bitwise multiset comparison,
    /// against a [`JoinResult`] or a [`GroupResult`].
    pub fn same_result(&self, other: &impl Answer) -> bool {
        same_answer(self.answer(), other.answer())
    }
}

/// A query answer as [`JoinResult::same_result`] compares it: the rows,
/// borrowed, or the aggregate values.
#[derive(Debug)]
pub enum AnswerRef<'a> {
    /// Every row, in any order.
    Rows(Vec<&'a [f64]>),
    /// One value per SELECT item.
    Aggregate(&'a [Option<f64>]),
}

/// A result `same_result` compares: [`JoinResult`], [`GroupResult`], or a
/// reference or `Arc` of one.
pub trait Answer {
    /// The answer, borrowed.
    fn answer(&self) -> AnswerRef<'_>;
}

impl Answer for JoinResult {
    fn answer(&self) -> AnswerRef<'_> {
        match self {
            JoinResult::Rows(rows) => AnswerRef::Rows(rows.iter().map(Vec::as_slice).collect()),
            JoinResult::Aggregate(values) => AnswerRef::Aggregate(values),
        }
    }
}

impl Answer for GroupResult {
    fn answer(&self) -> AnswerRef<'_> {
        match self {
            GroupResult::Rows(rows) => AnswerRef::Rows(rows.iter().collect()),
            GroupResult::Aggregate(values) => AnswerRef::Aggregate(values),
        }
    }
}

impl<T: Answer + ?Sized> Answer for &T {
    fn answer(&self) -> AnswerRef<'_> {
        (**self).answer()
    }
}

impl<T: Answer + ?Sized> Answer for std::sync::Arc<T> {
    fn answer(&self) -> AnswerRef<'_> {
        (**self).answer()
    }
}

/// The one comparison behind every `same_result`: rows as a multiset of
/// bit patterns, aggregates bit pattern by bit pattern.
fn same_answer(a: AnswerRef<'_>, b: AnswerRef<'_>) -> bool {
    match (a, b) {
        (AnswerRef::Rows(mut a), AnswerRef::Rows(mut b)) => {
            if a.len() != b.len() {
                return false;
            }
            a.sort_unstable_by(|p, q| cmp_bits(p, q));
            b.sort_unstable_by(|p, q| cmp_bits(p, q));
            a.iter().zip(&b).all(|(p, q)| cmp_bits(p, q).is_eq())
        }
        (AnswerRef::Aggregate(a), AnswerRef::Aggregate(b)) => {
            let bits = |v: &Option<f64>| v.map(f64::to_bits);
            a.iter().map(bits).eq(b.iter().map(bits))
        }
        _ => false,
    }
}

/// Lexicographic order on two rows' bit patterns (a shorter row sorts
/// before its extensions).
pub(crate) fn cmp_bits(p: &[f64], q: &[f64]) -> std::cmp::Ordering {
    let bits = |v: &f64| v.to_bits();
    p.iter().map(bits).cmp(q.iter().map(bits))
}

/// Everything a protocol execution produces.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The query answer (identical across correct join methods).
    pub result: JoinResult,
    /// Per-node / per-phase transmission and energy statistics.
    pub stats: NetworkStats,
    /// End-to-end latency (query start to result availability) under the
    /// pipelined model, in µs (see `wave::WaveTiming`).
    pub latency_us: Time,
    /// End-to-end latency under TAG-style slotted level scheduling, in µs —
    /// the model the paper's §VII response-time bound reflects.
    pub latency_slotted_us: Time,
    /// Nodes whose tuples appear in at least one result row — the paper's
    /// "fraction of nodes that contribute to the result" numerator.
    pub contributors: BTreeSet<NodeId>,
    /// Whether the result is guaranteed exact. `false` only when data-plane
    /// traffic was permanently lost on a lossy channel in a way the
    /// protocol's conservative fallbacks could not absorb (e.g. final-result
    /// tuples dropped after the ARQ budget); always `true` on a lossless
    /// network. Under node churn, `true` means the result is exact over the
    /// *surviving* nodes (liveness-projected exactness): every node that was
    /// present at query start and alive at query end is fully represented.
    pub complete: bool,
    /// Whether any churn event (crash or revival) was applied during this
    /// execution — i.e. after the query started, excluding the pre-start
    /// boundary. Rebuild-and-re-execute baselines restart on this flag.
    pub churned: bool,
}

impl JoinOutcome {
    /// Fraction of network nodes contributing to the result.
    pub fn contributor_fraction(&self, network_size: usize) -> f64 {
        self.contributors.len() as f64 / network_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_equality_ignores_order() {
        let a = JoinResult::Rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![1.0, 2.0]]);
        let b = JoinResult::Rows(vec![vec![3.0, 4.0], vec![1.0, 2.0], vec![1.0, 2.0]]);
        let c = JoinResult::Rows(vec![vec![3.0, 4.0], vec![1.0, 2.0]]);
        assert!(a.same_result(&b));
        assert!(!a.same_result(&c));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn row_equality_is_bitwise() {
        let rows = |rows: &[&[f64]]| JoinResult::Rows(rows.iter().map(|r| r.to_vec()).collect());
        // A NaN equals itself, in any position of the multiset …
        let nan = f64::NAN;
        let a = rows(&[&[nan, 1.0], &[0.5, nan], &[2.0, 2.0]]);
        let b = rows(&[&[2.0, 2.0], &[nan, 1.0], &[0.5, nan]]);
        assert!(a.same_result(&a) && a.same_result(&b) && b.same_result(&a));
        // … but not a NaN of another payload or sign.
        let other = f64::from_bits(nan.to_bits() ^ 1);
        assert!(other.is_nan());
        assert!(!a.same_result(&rows(&[&[other, 1.0], &[0.5, nan], &[2.0, 2.0]])));
        assert!(!a.same_result(&rows(&[&[-nan, 1.0], &[0.5, nan], &[2.0, 2.0]])));
        // −0.0 and 0.0 are different values of a result.
        assert!(!rows(&[&[0.0]]).same_result(&rows(&[&[-0.0]])));
        assert!(rows(&[&[-0.0], &[0.0]]).same_result(&rows(&[&[0.0], &[-0.0]])));
        // Duplicates count: same rows, different multiplicities.
        let twice_a = rows(&[&[1.0], &[1.0], &[2.0]]);
        let twice_b = rows(&[&[1.0], &[2.0], &[2.0]]);
        assert!(!twice_a.same_result(&twice_b));
        assert!(twice_a.same_result(&rows(&[&[2.0], &[1.0], &[1.0]])));
        // Rows of unequal length: a prefix is not its extension, and row
        // boundaries matter.
        assert!(!rows(&[&[1.0]]).same_result(&rows(&[&[1.0, 2.0]])));
        assert!(!rows(&[&[1.0, 2.0], &[3.0]]).same_result(&rows(&[&[1.0], &[2.0, 3.0]])));
        assert!(rows(&[&[1.0, 2.0], &[1.0]]).same_result(&rows(&[&[1.0], &[1.0, 2.0]])));
        assert!(rows(&[]).same_result(&rows(&[])));
        assert!(!rows(&[]).same_result(&rows(&[&[]])));
    }

    #[test]
    fn aggregate_equality_is_bitwise() {
        let agg = |values: &[Option<f64>]| JoinResult::Aggregate(values.to_vec());
        // A NaN aggregate is the same answer as itself …
        let nan = agg(&[Some(f64::NAN), None]);
        assert!(nan.same_result(&nan));
        assert!(GroupResult::Aggregate(vec![Some(f64::NAN), None]).same_result(&nan));
        // … and −0.0 is not 0.0, nor a value NULL.
        assert!(!agg(&[Some(0.0)]).same_result(&agg(&[Some(-0.0)])));
        assert!(!agg(&[Some(0.0)]).same_result(&agg(&[None])));
        assert!(!agg(&[Some(1.0)]).same_result(&agg(&[Some(1.0), None])));
    }

    /// `a` against `b` in every pairing of [`JoinResult`] and
    /// [`GroupResult`], both directions — all must agree with the
    /// `JoinResult` pairing, whose answer is returned. Each side is
    /// `(arity, rows)`; the arity makes its flat form.
    fn agree(a: (usize, &[&[f64]]), b: (usize, &[&[f64]])) -> bool {
        let join = |rows: &[&[f64]]| JoinResult::Rows(rows.iter().map(|r| r.to_vec()).collect());
        let flat = |(arity, rows): (usize, &[&[f64]])| {
            let mut out = Rows::new(arity);
            for row in rows {
                out.push(row);
            }
            assert_eq!(out.len(), rows.len());
            GroupResult::Rows(out)
        };
        let (ja, jb, ga, gb) = (join(a.1), join(b.1), flat(a), flat(b));
        let want = ja.same_result(&jb);
        assert_eq!(jb.same_result(&ja), want);
        for got in [
            ja.same_result(&gb),
            gb.same_result(&ja),
            ga.same_result(&jb),
            jb.same_result(&ga),
            ga.same_result(&gb),
            gb.same_result(&ga),
            std::sync::Arc::new(ga.clone()).same_result(&std::sync::Arc::new(jb.clone())),
        ] {
            assert_eq!(got, want, "{a:?} vs {b:?}");
        }
        want
    }

    /// The flat result type compares exactly like the nested one, through
    /// the one comparison: the cases of `row_equality_is_bitwise`, plus row
    /// boundaries a flat buffer could blur.
    #[test]
    fn group_results_compare_like_join_results() {
        // NaN payloads and sign.
        let nan = f64::NAN;
        let other = f64::from_bits(nan.to_bits() ^ 1);
        let a: &[&[f64]] = &[&[nan, 1.0], &[0.5, nan], &[2.0, 2.0]];
        assert!(agree((2, a), (2, &[&[2.0, 2.0], &[nan, 1.0], &[0.5, nan]])));
        assert!(!agree(
            (2, a),
            (2, &[&[other, 1.0], &[0.5, nan], &[2.0, 2.0]])
        ));
        assert!(!agree(
            (2, a),
            (2, &[&[-nan, 1.0], &[0.5, nan], &[2.0, 2.0]])
        ));
        // ±0.
        assert!(!agree((1, &[&[0.0]]), (1, &[&[-0.0]])));
        assert!(agree((1, &[&[-0.0], &[0.0]]), (1, &[&[0.0], &[-0.0]])));
        // Duplicate multiplicities.
        let twice: &[&[f64]] = &[&[1.0], &[1.0], &[2.0]];
        assert!(!agree((1, twice), (1, &[&[1.0], &[2.0], &[2.0]])));
        assert!(agree((1, twice), (1, &[&[2.0], &[1.0], &[1.0]])));
        // Row boundaries and unequal arity: the same values in one buffer
        // are not the same rows.
        let pairs: &[&[f64]] = &[&[1.0, 2.0], &[3.0, 4.0]];
        assert!(!agree((1, &[&[1.0]]), (2, &[&[1.0, 2.0]])));
        assert!(!agree((2, pairs), (1, &[&[1.0], &[2.0], &[3.0], &[4.0]])));
        assert!(!agree((2, pairs), (4, &[&[1.0, 2.0, 3.0, 4.0]])));
        assert!(agree((2, pairs), (2, &[&[3.0, 4.0], &[1.0, 2.0]])));
        // `[]` against `[[]]`: an arity-0 row still counts.
        assert!(agree((0, &[]), (0, &[])));
        assert!(!agree((0, &[]), (0, &[&[]])));
        assert!(!agree((0, &[&[]]), (0, &[&[], &[]])));
        assert!(agree((0, &[&[], &[]]), (0, &[&[], &[]])));
        // Rows against Aggregate, either type on either side.
        let (rows, agg) = (
            GroupResult::Rows(Rows::new(1)),
            GroupResult::Aggregate(vec![Some(1.0), None]),
        );
        let join_agg = JoinResult::Aggregate(vec![Some(1.0), None]);
        assert!(agg.same_result(&join_agg) && join_agg.same_result(&agg));
        assert!(agg.same_result(&agg.clone()));
        assert!(!agg.same_result(&GroupResult::Aggregate(vec![Some(2.0), None])));
        assert!(!rows.same_result(&join_agg) && !join_agg.same_result(&rows));
        assert!(!rows.same_result(&agg) && !agg.same_result(&rows));
        assert!(!agg.same_result(&JoinResult::Rows(vec![])));
        assert!(!JoinResult::Rows(vec![]).same_result(&agg));
        assert_eq!((rows.len(), agg.len()), (0, 1));
        assert!(rows.is_empty() && !agg.is_empty());
    }

    #[test]
    fn aggregate_equality() {
        let a = JoinResult::Aggregate(vec![Some(1.0), None]);
        let b = JoinResult::Aggregate(vec![Some(1.0), None]);
        let c = JoinResult::Aggregate(vec![Some(2.0), None]);
        assert!(a.same_result(&b));
        assert!(!a.same_result(&c));
        assert!(!a.same_result(&JoinResult::Rows(vec![])));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        assert!(JoinResult::Rows(vec![]).is_empty());
    }
}
