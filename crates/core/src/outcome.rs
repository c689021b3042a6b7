//! Execution outcomes: query results plus cost accounting.

use crate::scheduler::GroupFull;
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
    /// describe (another node count or another master schema).
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
    /// from 0.0.
    pub fn same_result(&self, other: &JoinResult) -> bool {
        match (self, other) {
            (JoinResult::Rows(a), JoinResult::Rows(b)) => {
                if a.len() != b.len() {
                    return false;
                }
                let (x, y) = (sorted_by_bits(a), sorted_by_bits(b));
                x.iter().zip(&y).all(|(p, q)| cmp_bits(p, q).is_eq())
            }
            (JoinResult::Aggregate(a), JoinResult::Aggregate(b)) => a == b,
            _ => false,
        }
    }
}

/// Lexicographic order on two rows' bit patterns (a shorter row sorts
/// before its extensions).
fn cmp_bits(p: &[f64], q: &[f64]) -> std::cmp::Ordering {
    let bits = |v: &f64| v.to_bits();
    p.iter().map(bits).cmp(q.iter().map(bits))
}

/// The rows in [`cmp_bits`] order, borrowed: no row is copied.
fn sorted_by_bits(rows: &[Vec<f64>]) -> Vec<&[f64]> {
    let mut rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    rows.sort_unstable_by(|p, q| cmp_bits(p, q));
    rows
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
