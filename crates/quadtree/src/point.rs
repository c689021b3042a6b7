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

    /// Builds from arbitrary points, merging duplicates.
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Self {
        let mut set = Self::new();
        for p in points {
            set.insert(p.z, p.flags);
        }
        set
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

    /// Sets cell `z`'s membership to exactly `flags`: inserts when absent,
    /// overwrites when present, and removes the cell when `flags` is empty.
    /// How a counted population's presence set follows the cells whose
    /// role presence changed (unlike [`PointSet::insert`], which can only
    /// grow memberships).
    pub fn set_flags(&mut self, z: u64, flags: RelFlags) {
        match self.points.binary_search_by_key(&z, |p| p.z) {
            Ok(i) => {
                if flags.is_empty() {
                    self.points.remove(i);
                } else {
                    self.points[i].flags = flags;
                }
            }
            Err(i) => {
                if !flags.is_empty() {
                    self.points.insert(i, Point { z, flags });
                }
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

    /// Set union — the paper's `Union` primitive: a single merge pass over
    /// the two z-sorted sequences, OR-ing flags of equal cells.
    pub fn union(&self, other: &PointSet) -> PointSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() && j < other.points.len() {
            let (a, b) = (self.points[i], other.points[j]);
            match a.z.cmp(&b.z) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(Point {
                        z: a.z,
                        flags: a.flags.or(b.flags),
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.points[i..]);
        out.extend_from_slice(&other.points[j..]);
        PointSet { points: out }
    }

    /// Set intersection — the paper's `Intersect` primitive, used by
    /// Selective Filter Forwarding: keeps cells present in both sets with the
    /// AND of the flags, dropping cells whose memberships do not overlap.
    pub fn intersect(&self, other: &PointSet) -> PointSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() && j < other.points.len() {
            let (a, b) = (self.points[i], other.points[j]);
            match a.z.cmp(&b.z) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let f = a.flags.and(b.flags);
                    if !f.is_empty() {
                        out.push(Point { z: a.z, flags: f });
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        PointSet { points: out }
    }

    /// Iterates over points in Z order.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }
}

impl FromIterator<Point> for PointSet {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Self::from_points(iter)
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
    fn set_flags_inserts_overwrites_and_removes() {
        let mut s = set(&[(3, 0b10), (7, 0b11)]);
        s.set_flags(5, RelFlags::B); // insert between
        assert_eq!(s, set(&[(3, 0b10), (5, 0b01), (7, 0b11)]));
        s.set_flags(7, RelFlags::A); // overwrite (can shrink, unlike insert)
        assert_eq!(s.flags_of(7), Some(RelFlags::A));
        s.set_flags(3, RelFlags(0)); // empty flags remove the cell
        s.set_flags(100, RelFlags(0)); // removing an absent cell is a no-op
        assert_eq!(s, set(&[(5, 0b01), (7, 0b10)]));
    }
}
