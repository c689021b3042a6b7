//! Logical point sets: Z-numbers with relation-membership flags.

/// The most relations a query can join: a point's relation flags are one
/// byte, one bit per relation.
pub const MAX_RELATIONS: usize = u8::BITS as usize;

/// Relation-membership flags of a point (paper §V-C: `10` = Relation A,
/// `01` = Relation B, `11` = both). Generalized to [`MAX_RELATIONS`] relations;
/// relation *i* of a query corresponds to bit *i* counted from the most
/// significant of the configured flag width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelFlags(pub u8);

impl RelFlags {
    /// Membership in the first relation of the query (`10` for two-relation
    /// queries).
    pub const A: RelFlags = RelFlags(0b10);
    /// Membership in the second relation (`01`).
    pub const B: RelFlags = RelFlags(0b01);
    /// Membership in both (`11`, self-joins).
    pub const BOTH: RelFlags = RelFlags(0b11);

    /// Flag for relation index `i` (0-based) out of `n` relations.
    #[inline]
    pub fn relation(i: usize, n: usize) -> RelFlags {
        assert!(i < n && n <= MAX_RELATIONS);
        RelFlags(1 << (n - 1 - i))
    }

    /// Whether no relation bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether any relation overlaps with `other`.
    #[inline]
    pub fn intersects(self, other: RelFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Set union of memberships.
    #[inline]
    pub fn or(self, other: RelFlags) -> RelFlags {
        RelFlags(self.0 | other.0)
    }

    /// Set intersection of memberships.
    #[inline]
    pub fn and(self, other: RelFlags) -> RelFlags {
        RelFlags(self.0 & other.0)
    }
}

/// A quantized join-attribute tuple on the wire: its Z-number plus which
/// relations it appeared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Z-order cell number.
    pub z: u64,
    /// Relation memberships.
    pub flags: RelFlags,
}

/// A set of [`Point`]s: the logical content of the paper's
/// `Join_Attr_Structure`.
///
/// Invariants: points are sorted by Z-number, Z-numbers are unique (equal
/// cells from different relations merge by OR-ing flags — exactly what the
/// base station needs to know), and flags are never empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointSet {
    points: Vec<Point>,
}

impl PointSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from arbitrary points, merging duplicates: one sort, then one
    /// pass that ORs the flags of equal cells.
    ///
    /// # Panics
    /// Panics if a point belongs to no relation.
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Self {
        let mut points: Vec<Point> = points.into_iter().collect();
        assert!(
            points.iter().all(|p| !p.flags.is_empty()),
            "points must belong to at least one relation"
        );
        points.sort_unstable_by_key(|p| p.z);
        points.dedup_by(|p, kept| {
            let same = p.z == kept.z;
            if same {
                kept.flags = kept.flags.or(p.flags);
            }
            same
        });
        Self { points }
    }

    /// Builds from points already sorted by unique `z`, each with non-empty
    /// flags, without copying them: a merge's output.
    ///
    /// # Panics
    /// Panics if the invariants do not hold.
    pub fn from_sorted(points: Vec<Point>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].z < w[1].z)
                && points.iter().all(|p| !p.flags.is_empty()),
            "points must be sorted by unique z, each with flags"
        );
        Self { points }
    }

    /// Builds directly from a vector already sorted by unique `z` with
    /// non-empty flags. Used by the decoder.
    ///
    /// # Panics
    /// Panics in debug builds if the invariants do not hold.
    pub(crate) fn from_sorted_unchecked(points: Vec<Point>) -> Self {
        debug_assert!(points.windows(2).all(|w| w[0].z < w[1].z));
        debug_assert!(points.iter().all(|p| !p.flags.is_empty()));
        Self { points }
    }

    /// Inserts a point, OR-ing flags if the cell is already present
    /// (the paper's `Insert` primitive). Returns whether the set changed.
    pub fn insert(&mut self, z: u64, flags: RelFlags) -> bool {
        assert!(
            !flags.is_empty(),
            "points must belong to at least one relation"
        );
        match self.points.binary_search_by_key(&z, |p| p.z) {
            Ok(i) => {
                let merged = self.points[i].flags.or(flags);
                let changed = merged != self.points[i].flags;
                self.points[i].flags = merged;
                changed
            }
            Err(i) => {
                self.points.insert(i, Point { z, flags });
                true
            }
        }
    }

    /// Number of distinct cells in the set.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, sorted by Z-number.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Whether the set contains cell `z` with a membership overlapping
    /// `flags`. This is the test a node runs against the join filter: "does
    /// my join-attribute tuple appear in the filter for my relation?"
    pub fn contains_matching(&self, z: u64, flags: RelFlags) -> bool {
        self.points
            .binary_search_by_key(&z, |p| p.z)
            .map(|i| self.points[i].flags.intersects(flags))
            .unwrap_or(false)
    }

    /// The flags stored for cell `z`, if present.
    pub fn flags_of(&self, z: u64) -> Option<RelFlags> {
        self.points
            .binary_search_by_key(&z, |p| p.z)
            .ok()
            .map(|i| self.points[i].flags)
    }

    /// Set union — the paper's `Union` primitive: one [`merge`] of the two
    /// z-sorted sequences, OR-ing flags of equal cells.
    pub fn union(&self, other: &PointSet) -> PointSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        merge(&self.points, &other.points, |m| match m {
            Merged::Left(run) | Merged::Right(run) => out.extend_from_slice(run),
            Merged::Both(a, b) => out.push(Point {
                z: a.z,
                flags: a.flags.or(b.flags),
            }),
        });
        PointSet { points: out }
    }

    /// Set intersection — the paper's `Intersect` primitive, used by
    /// Selective Filter Forwarding: keeps cells present in both sets with the
    /// AND of the flags, dropping cells whose memberships do not overlap.
    pub fn intersect(&self, other: &PointSet) -> PointSet {
        self.at_shared_cells(other, false, RelFlags::and)
    }

    /// Set difference: the flags of this set's cells that `other` does not
    /// hold for the same cell, cells left without flags dropped.
    pub fn minus(&self, other: &PointSet) -> PointSet {
        self.at_shared_cells(other, true, |a, b| RelFlags(a.0 & !b.0))
    }

    /// One [`merge`] with `other` that keeps this set's own cells if
    /// `keep_own`, drops `other`'s, and keeps a shared cell with
    /// `flags(own, other's)` unless that is empty.
    fn at_shared_cells(
        &self,
        other: &PointSet,
        keep_own: bool,
        flags: impl Fn(RelFlags, RelFlags) -> RelFlags,
    ) -> PointSet {
        let mut out = Vec::new();
        merge(&self.points, &other.points, |m| match m {
            Merged::Left(run) if keep_own => out.extend_from_slice(run),
            Merged::Both(a, b) => {
                let flags = flags(a.flags, b.flags);
                out.extend((!flags.is_empty()).then_some(Point { z: a.z, flags }));
            }
            _ => {}
        });
        PointSet { points: out }
    }

    /// Iterates over points in Z order.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl FromIterator<Point> for PointSet {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Self::from_points(iter)
    }
}

/// An element of a slice sorted by a unique `u64` key: a [`Point`] by its
/// Z-number, or a cell's `(z, payload)` (a counted cell's counters).
pub trait Keyed {
    /// The sort key.
    fn key(&self) -> u64;
}

impl Keyed for Point {
    #[inline]
    fn key(&self) -> u64 {
        self.z
    }
}

impl<T> Keyed for (u64, T) {
    #[inline]
    fn key(&self) -> u64 {
        self.0
    }
}

/// One step of a [`merge`]: a maximal run of one side's elements at keys
/// the other side lacks, or the two elements at a key both sides hold.
#[derive(Debug)]
pub enum Merged<'a, L, R> {
    /// Elements of the left slice only.
    Left(&'a [L]),
    /// Elements of the right slice only.
    Right(&'a [R]),
    /// The two elements at a shared key.
    Both(&'a L, &'a R),
}

/// The merge of z-sorted streams under every set operation (paper §V):
/// walks `left` and `right`, each sorted by a unique key, and hands `emit`
/// each step in key order — the closure emits or drops. A one-sided run is
/// found by a galloping search, so a routine that drops it (intersection,
/// restriction) skips it in O(log run), and one that keeps it copies it
/// whole.
pub fn merge<'a, L: Keyed, R: Keyed>(
    mut left: &'a [L],
    mut right: &'a [R],
    mut emit: impl FnMut(Merged<'a, L, R>),
) {
    while let (Some(l), Some(r)) = (left.first(), right.first()) {
        let (kl, kr) = (l.key(), r.key());
        if kl == kr {
            emit(Merged::Both(l, r));
            (left, right) = (&left[1..], &right[1..]);
        } else if kl < kr {
            let (run, rest) = left.split_at(run_below(left, kr));
            emit(Merged::Left(run));
            left = rest;
        } else {
            let (run, rest) = right.split_at(run_below(right, kl));
            emit(Merged::Right(run));
            right = rest;
        }
    }
    if !left.is_empty() {
        emit(Merged::Left(left));
    }
    if !right.is_empty() {
        emit(Merged::Right(right));
    }
}

/// The length of the prefix of `s` keyed below `key`, given that `s[0]`
/// is: probes at 1, 2, 4, … then a binary search between the last two.
fn run_below<T: Keyed>(s: &[T], key: u64) -> usize {
    let mut probe = 1;
    while probe < s.len() && s[probe].key() < key {
        probe *= 2;
    }
    let from = probe / 2 + 1;
    from + s[from..probe.min(s.len())].partition_point(|e| e.key() < key)
}

/// The k-way [`merge`]: calls `emit(key, heads)` once per key any slice
/// holds, in key order, with `heads[i]` the element of `slices[i]` at that
/// key if it has one.
pub fn merge_k<'a, T: Keyed>(slices: &[&'a [T]], mut emit: impl FnMut(u64, &[Option<&'a T>])) {
    let mut rest = slices.to_vec();
    let mut heads = vec![None; slices.len()];
    while let Some(key) = rest.iter().filter_map(|s| s.first()).map(T::key).min() {
        for (s, head) in rest.iter_mut().zip(&mut heads) {
            *head = s.first().filter(|e| e.key() == key);
            if head.is_some() {
                *s = &s[1..];
            }
        }
        emit(key, &heads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pts: &[(u64, u8)]) -> PointSet {
        PointSet::from_points(pts.iter().map(|&(z, f)| Point {
            z,
            flags: RelFlags(f),
        }))
    }

    #[test]
    fn insert_merges_flags() {
        let mut s = PointSet::new();
        assert!(s.insert(5, RelFlags::A));
        assert!(s.insert(5, RelFlags::B));
        assert!(s.insert(3, RelFlags::A));
        assert!(!s.insert(5, RelFlags::A), "already a member: unchanged");
        assert_eq!(s.len(), 2);
        assert_eq!(s.flags_of(5), Some(RelFlags::BOTH));
        assert_eq!(s.points()[0].z, 3); // sorted
    }

    #[test]
    fn contains_matching_respects_flags() {
        let s = set(&[(7, 0b10)]);
        assert!(s.contains_matching(7, RelFlags::A));
        assert!(!s.contains_matching(7, RelFlags::B));
        assert!(s.contains_matching(7, RelFlags::BOTH));
        assert!(!s.contains_matching(8, RelFlags::BOTH));
    }

    #[test]
    fn union_is_set_union_with_flag_or() {
        let a = set(&[(1, 0b10), (3, 0b10)]);
        let b = set(&[(2, 0b01), (3, 0b01)]);
        let u = a.union(&b);
        assert_eq!(u, set(&[(1, 0b10), (2, 0b01), (3, 0b11)]));
    }

    #[test]
    fn intersect_drops_disjoint_flags() {
        let filter = set(&[(3, 0b10), (4, 0b11)]);
        let subtree = set(&[(3, 0b01), (4, 0b01), (5, 0b11)]);
        let i = filter.intersect(&subtree);
        // z=3: filter says "joins as A" but subtree only has it as B -> drop.
        assert_eq!(i, set(&[(4, 0b01)]));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = set(&[(1, 0b10), (9, 0b11)]);
        assert_eq!(a.union(&PointSet::new()), a);
        assert_eq!(PointSet::new().union(&a), a);
    }

    #[test]
    fn relation_flag_indexing() {
        assert_eq!(RelFlags::relation(0, 2), RelFlags::A);
        assert_eq!(RelFlags::relation(1, 2), RelFlags::B);
        assert_eq!(RelFlags::relation(2, 3), RelFlags(0b001));
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn empty_flags_rejected() {
        PointSet::new().insert(1, RelFlags(0));
    }

    #[test]
    fn from_points_sorts_and_ors_duplicates() {
        let s = set(&[(9, 0b01), (3, 0b10), (9, 0b10), (1, 0b01), (3, 0b10)]);
        let want = [(1, 0b01), (3, 0b10), (9, 0b11)].map(|(z, f)| Point {
            z,
            flags: RelFlags(f),
        });
        assert_eq!(s.points(), want);
    }

    #[test]
    #[should_panic(expected = "at least one relation")]
    fn from_points_rejects_empty_flags() {
        set(&[(4, 0b01), (2, 0)]);
    }
}
