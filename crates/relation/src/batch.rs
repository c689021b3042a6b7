//! One relation's tuples in one buffer.

use crate::NodeId;

/// The tuples of one relation: per tuple its origin and `arity` values
/// aligned to the relation's schema, all values in one row-major buffer, so
/// a tuple costs no allocation of its own.
///
/// ```
/// use sensjoin_relation::{NodeId, TupleBatch};
///
/// let mut batch = TupleBatch::new(2);
/// batch.push(NodeId(3), &[21.5, 40.0]);
/// batch.push(NodeId(1), &[19.0, 55.0]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!((batch.origin(1), batch.values(1)), (NodeId(1), &[19.0, 55.0][..]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleBatch {
    arity: usize,
    origins: Vec<NodeId>,
    values: Vec<f64>,
}

impl TupleBatch {
    /// No tuples yet, each to hold `arity` values.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            ..Self::default()
        }
    }

    /// No tuples yet, with room for `tuples` of `arity` values.
    pub fn with_capacity(arity: usize, tuples: usize) -> Self {
        Self {
            arity,
            origins: Vec::with_capacity(tuples),
            values: Vec::with_capacity(tuples * arity),
        }
    }

    /// Values per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// Whether there is no tuple.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// The origin of tuple `i`.
    pub fn origin(&self, i: usize) -> NodeId {
        self.origins[i]
    }

    /// Every tuple's origin, in order.
    pub fn origins(&self) -> &[NodeId] {
        &self.origins
    }

    /// The values of tuple `i`.
    pub fn values(&self, i: usize) -> &[f64] {
        &self.values[i * self.arity..][..self.arity]
    }

    /// Room for `tuples` more tuples.
    pub fn reserve(&mut self, tuples: usize) {
        self.origins.reserve(tuples);
        self.values.reserve(tuples * self.arity);
    }

    /// Appends `origin`'s tuple.
    ///
    /// # Panics
    /// Panics if `values` does not hold [`TupleBatch::arity`] values.
    pub fn push(&mut self, origin: NodeId, values: &[f64]) {
        assert_eq!(values.len(), self.arity, "tuple arity");
        self.origins.push(origin);
        self.values.extend_from_slice(values);
    }

    /// Appends `origin`'s tuple, its values the `arity` that `values` yields.
    ///
    /// # Panics
    /// Panics if `values` does not yield [`TupleBatch::arity`] values.
    pub fn push_from(&mut self, origin: NodeId, values: impl IntoIterator<Item = f64>) {
        self.values.extend(values);
        self.origins.push(origin);
        assert_eq!(
            self.values.len(),
            self.origins.len() * self.arity,
            "tuple arity"
        );
    }

    /// Replaces tuple `i` with `origin`'s tuple `values`.
    ///
    /// # Panics
    /// Panics if `values` does not hold [`TupleBatch::arity`] values.
    pub fn set(&mut self, i: usize, origin: NodeId, values: &[f64]) {
        self.origins[i] = origin;
        self.values[i * self.arity..][..self.arity].copy_from_slice(values);
    }
}

impl<'a> FromIterator<(NodeId, &'a [f64])> for TupleBatch {
    /// Collects tuples of one arity; an empty iterator gives an arity-0
    /// batch.
    ///
    /// # Panics
    /// Panics if the tuples' arities differ.
    fn from_iter<I: IntoIterator<Item = (NodeId, &'a [f64])>>(tuples: I) -> Self {
        let mut tuples = tuples.into_iter().peekable();
        let arity = tuples.peek().map_or(0, |(_, values)| values.len());
        let mut batch = Self::with_capacity(arity, tuples.size_hint().0);
        for (origin, values) in tuples {
            batch.push(origin, values);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_keep_their_order_origin_and_values() {
        let mut batch = TupleBatch::with_capacity(3, 2);
        batch.push(NodeId(7), &[1.0, 2.0, 3.0]);
        batch.push_from(NodeId(2), [4.0, 5.0, 6.0]);
        batch.set(0, NodeId(9), &[0.5, 0.5, 0.5]);
        assert_eq!(batch.origins(), &[NodeId(9), NodeId(2)]);
        assert_eq!(
            (batch.values(0), batch.values(1)),
            (&[0.5; 3][..], &[4.0, 5.0, 6.0][..])
        );
        let tuples = (0..batch.len()).map(|i| (batch.origin(i), batch.values(i)));
        assert_eq!(tuples.collect::<TupleBatch>(), batch);
    }

    #[test]
    fn arity_zero_tuples_still_count() {
        let mut batch = TupleBatch::new(0);
        batch.push(NodeId(1), &[]);
        batch.push(NodeId(4), &[]);
        assert_eq!((batch.len(), batch.values(1)), (2, &[][..]));
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn a_tuple_of_another_arity_is_refused() {
        TupleBatch::new(2).push(NodeId(0), &[1.0]);
    }
}
