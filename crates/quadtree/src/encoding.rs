//! The pointerless wire format (paper Fig. 9) and its codec.
//!
//! A subtree over `2^k`-ary level `l` is encoded as either
//!
//! * an **index node**: bit `0`, then a `2^levels[l]`-bit mask of the child
//!   quadrants that contain points, followed by the encodings of the present
//!   children in quadrant order, or
//! * a **point list**: each point as bit `1` followed by its position
//!   *relative to the current quadrant* (`bits_below(l)` bits), terminated by
//!   a `0` bit.
//!
//! The encoder picks whichever costs fewer bits, recursively — the paper's
//! decomposition-threshold rule ("compare both solutions and stop the
//! decomposition if a list of points is shorter", §V-C). Storing subtrees in
//! depth-first order makes the format pointerless and makes the stored point
//! sequence ascend in key order.

use crate::bits::{BitReader, BitWriter};
use crate::point::{Point, PointSet, RelFlags};
use crate::shape::TreeShape;
use std::borrow::Borrow;

/// An encoded point set: bytes plus the exact bit length.
///
/// Protocol layers account costs at byte granularity ([`EncodedTree::wire_size`])
/// while the decomposition threshold works on bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTree {
    /// Zero-padded bytes of the bitstring.
    pub bytes: Vec<u8>,
    /// Exact number of meaningful bits.
    pub len_bits: usize,
}

impl EncodedTree {
    /// Size on the wire, in whole bytes.
    pub fn wire_size(&self) -> usize {
        self.len_bits.div_ceil(8)
    }
}

/// Errors decoding a wire bitstring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstring ended inside a node or point.
    UnexpectedEnd,
    /// An index node with no present children is not producible by the
    /// encoder.
    EmptyMask,
    /// Meaningful bits remained after the root subtree was decoded.
    TrailingBits {
        /// How many bits were left over.
        extra: usize,
    },
    /// Two points decoded to the same Z-number.
    DuplicatePoint {
        /// The duplicated Z-number.
        z: u64,
    },
    /// A point carried empty relation flags.
    EmptyFlags,
    /// An index node appeared below the bottom level of the tree shape.
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "bitstring ended unexpectedly"),
            DecodeError::EmptyMask => write!(f, "index node with empty child mask"),
            DecodeError::TrailingBits { extra } => write!(f, "{extra} trailing bits"),
            DecodeError::DuplicatePoint { z } => write!(f, "duplicate point z={z}"),
            DecodeError::EmptyFlags => write!(f, "point with empty relation flags"),
            DecodeError::TooDeep => write!(f, "index node below the bottom tree level"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a point set into the pointerless quadtree bitstring.
///
/// The list-vs-subdivide decisions come from the same `Plan` pass that
/// [`encoded_len_bits`] runs; encoding only adds the pass that writes them
/// out.
pub fn encode(set: &PointSet, shape: &TreeShape) -> EncodedTree {
    let mut keys: Vec<u64> = Vec::with_capacity(set.len());
    for_each_key(set.points().iter(), shape, |k| keys.push(k));
    // marks[i] bit l: the node at level l whose first key is keys[i]
    // subdivides. (A node is identified by its level and first key.)
    let mut marks = vec![0u64; keys.len()];
    let mut plan = Plan::new(shape, |first, level| marks[first] |= 1 << level);
    for &k in &keys {
        plan.push(k);
    }
    let len_bits = plan.finish();
    let mut w = BitWriter::new();
    emit(&keys, &marks, shape, &mut w);
    debug_assert_eq!(w.len_bits(), len_bits);
    let (bytes, len_bits) = w.finish();
    EncodedTree { bytes, len_bits }
}

/// The exact bit length [`encode`] would produce for the set of `points` —
/// a [`PointSet`], or any points sorted by unique z with non-empty flags —
/// without encoding: one pass over them per flag class, no allocation.
pub fn encoded_len_bits<P>(points: P, shape: &TreeShape) -> usize
where
    P: IntoIterator,
    P::Item: Borrow<Point>,
    P::IntoIter: Clone,
{
    let mut plan = Plan::new(shape, |_, _| {});
    for_each_key(points.into_iter(), shape, |k| plan.push(k));
    plan.finish()
}

/// [`encoded_len_bits`] in whole bytes — what [`encode`]'s
/// [`EncodedTree::wire_size`] would report.
pub fn encoded_wire_size<P>(points: P, shape: &TreeShape) -> usize
where
    P: IntoIterator,
    P::Item: Borrow<Point>,
    P::IntoIter: Clone,
{
    encoded_len_bits(points, shape).div_ceil(8)
}

/// Calls `f` with every tree key of the z-sorted `points` in ascending key
/// order. The flag prefix is the top level, so the keys of one flag class
/// are a subsequence of the z-sorted points: walking the classes present in
/// ascending order yields sorted keys without materializing or sorting them.
fn for_each_key<I>(points: I, shape: &TreeShape, mut f: impl FnMut(u64))
where
    I: Iterator + Clone,
    I::Item: Borrow<Point>,
{
    if shape.flag_bits() == 0 {
        points.for_each(|p| f(p.borrow().z));
        return;
    }
    let mut classes = [0u64; 4];
    for p in points.clone() {
        let flags = p.borrow().flags.0;
        classes[usize::from(flags >> 6)] |= 1 << (flags & 63);
    }
    for (word, &present) in classes.iter().enumerate() {
        let mut rest = present;
        while rest != 0 {
            let flags = (word * 64) as u8 + rest.trailing_zeros() as u8;
            rest &= rest - 1;
            (points.clone())
                .filter(|p| p.borrow().flags.0 == flags)
                .for_each(|p| f(shape.key(p.borrow().z, flags)));
        }
    }
}

/// The size kernel: fed the keys in ascending order, it prices every node
/// of the tree as the cheaper of {point list, index node + children} — the
/// paper's decomposition threshold — and reports each node that subdivides.
///
/// Only nodes holding two or more keys get a frame; the frames of the
/// current root path live in fixed per-level arrays, so a pass allocates
/// nothing. A node with a single key always lists it (`2^k + 3 > k + 2`),
/// which costs `bits_below(level) + 2` without descending. Each key is
/// touched once per level it shares with a neighbour.
struct Plan<'s, F> {
    shape: &'s TreeShape,
    /// Per open frame: index of the node's first key.
    first: [usize; 64],
    /// Per open frame: index-node header plus the children priced so far.
    subdivided: [usize; 64],
    /// Open frames are levels `0..depth`.
    depth: usize,
    prev: u64,
    /// Keys pushed so far.
    n: usize,
    on_subdivide: F,
}

impl<'s, F: FnMut(usize, usize)> Plan<'s, F> {
    /// `on_subdivide(first_key_index, level)` is called for every node whose
    /// index-node encoding is strictly shorter than its point list.
    fn new(shape: &'s TreeShape, on_subdivide: F) -> Self {
        Self {
            shape,
            first: [0; 64],
            subdivided: [0; 64],
            depth: 0,
            prev: 0,
            n: 0,
            on_subdivide,
        }
    }

    fn push(&mut self, key: u64) {
        if self.n > 0 {
            debug_assert!(self.prev < key, "keys must ascend strictly");
            let shared = self.shape.divergence_level(self.prev ^ key) + 1;
            self.settle_last(shared);
        }
        self.prev = key;
        self.n += 1;
    }

    /// Prices the most recent key now that the next key is known to share
    /// exactly the nodes at levels `0..shared` with it (`shared == 0` at the
    /// end of input), closing every frame the next key is not part of.
    fn settle_last(&mut self, shared: usize) {
        let last = self.n - 1;
        // Nodes that so far held only the last key and now gain a second.
        while self.depth < shared {
            self.first[self.depth] = last;
            self.subdivided[self.depth] = 1 + (1usize << self.shape.levels()[self.depth]);
            self.depth += 1;
        }
        // The last key is alone below the deepest frame: a one-point list.
        self.subdivided[self.depth - 1] += self.shape.bits_below(self.depth) as usize + 2;
        while self.depth > shared.max(1) {
            let cost = self.close();
            self.subdivided[self.depth - 1] += cost;
        }
    }

    /// Closes the deepest frame and returns the cheaper encoding's length.
    fn close(&mut self) -> usize {
        self.depth -= 1;
        let l = self.depth;
        let count = self.n - self.first[l];
        let list = count * (1 + self.shape.bits_below(l) as usize) + 1;
        if self.subdivided[l] < list {
            (self.on_subdivide)(self.first[l], l);
            self.subdivided[l]
        } else {
            list
        }
    }

    /// Total bits of the root's encoding.
    fn finish(mut self) -> usize {
        match self.n {
            0 => 0,
            1 => self.shape.bits_below(0) as usize + 2,
            _ => {
                self.settle_last(0);
                self.close()
            }
        }
    }
}

/// Writes the encoding of sorted `keys` given the subdivision `marks` of
/// [`encode`], left to right in one pass. An index node's child mask is
/// written as zeros and each child sets its bit when its first key arrives.
fn emit(keys: &[u64], marks: &[u64], shape: &TreeShape, w: &mut BitWriter) {
    let levels = shape.levels();
    let mut mask_at = [0usize; 64];
    // Level of the point list being written.
    let mut list: Option<usize> = None;
    for (i, &key) in keys.iter().enumerate() {
        let diverged = (i > 0).then(|| shape.divergence_level(keys[i - 1] ^ key));
        let mut level = 0;
        if let (Some(open), Some(d)) = (list, diverged) {
            if d >= open {
                // Still inside the open list's node.
                w.push_bit(true);
                w.push_bits(key, shape.bits_below(open));
                continue;
            }
            w.push_bit(false);
            // Every ancestor of a written list is an index node, the one at
            // level `d` included: `key` starts a new child of it.
            w.set_bit(mask_at[d] + shape.quadrant(key, d) as usize);
            level = d + 1;
        }
        while level < levels.len() && marks[i] >> level & 1 == 1 {
            w.push_bit(false);
            mask_at[level] = w.len_bits();
            w.push_zeros(1 << levels[level]);
            w.set_bit(mask_at[level] + shape.quadrant(key, level) as usize);
            level += 1;
        }
        list = Some(level);
        w.push_bit(true);
        w.push_bits(key, shape.bits_below(level));
    }
    if list.is_some() {
        w.push_bit(false);
    }
}

/// Tests whether the encoded set contains a point with cell `z` whose flags
/// overlap `flags`, *directly on the wire format* — the check a node runs on
/// a received filter without materializing it. Walks only the branches whose
/// quadrants can contain matching keys.
pub fn contains_encoded(
    tree: &EncodedTree,
    shape: &TreeShape,
    z: u64,
    flags: RelFlags,
) -> Result<bool, DecodeError> {
    if tree.len_bits == 0 {
        return Ok(false);
    }
    // Candidate keys: one per flag combination that overlaps `flags`.
    let fb = shape.flag_bits();
    let mut found = false;
    let mut r = BitReader::with_len(&tree.bytes, tree.len_bits);
    let matches = |key: u64| -> bool {
        let (kz, kf) = shape.split_key(key);
        kz == z && (fb == 0 || RelFlags(kf).intersects(flags))
    };
    // Reuse the subtree reader but prune: quadrant q at level l covers keys
    // with that prefix; we can skip subtrees whose prefix cannot match any
    // candidate key. For simplicity and safety the pruning predicate checks
    // the z-part prefix and, within the flag level, flag overlap.
    scan_subtree(&mut r, 0, 0, shape, z, flags, &matches, &mut found)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBits {
            extra: r.remaining(),
        });
    }
    Ok(found)
}

/// Whether a subtree at `level` with path `prefix` could contain the target.
fn prefix_viable(prefix: u64, level: usize, shape: &TreeShape, z: u64, flags: RelFlags) -> bool {
    let below = shape.bits_below(level);
    let fb = u32::from(shape.flag_bits());
    let zb = shape.z_bits();
    // The target z occupies the low `zb` bits of the key; flags the top.
    for f in 0..(1u64 << fb.max(1)) {
        if fb > 0 && (f as u8) & flags.0 == 0 {
            continue;
        }
        let key = if fb == 0 { z } else { (f << zb) | z };
        // `below == 64` only at the root of a 64-bit shape, whose prefix is
        // empty.
        if key.checked_shr(below).unwrap_or(0) == prefix {
            return true;
        }
        if fb == 0 {
            break;
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn scan_subtree(
    r: &mut BitReader<'_>,
    level: usize,
    prefix: u64,
    shape: &TreeShape,
    z: u64,
    flags: RelFlags,
    matches: &dyn Fn(u64) -> bool,
    found: &mut bool,
) -> Result<(), DecodeError> {
    let rem = shape.bits_below(level);
    let first = r.read_bit().ok_or(DecodeError::UnexpectedEnd)?;
    if first {
        loop {
            let pos = r.read_bits(rem).ok_or(DecodeError::UnexpectedEnd)?;
            if matches(below_prefix(prefix, rem) | pos) {
                *found = true;
            }
            if !r.read_bit().ok_or(DecodeError::UnexpectedEnd)? {
                break;
            }
        }
        Ok(())
    } else {
        let k = u32::from(*shape.levels().get(level).ok_or(DecodeError::TooDeep)?);
        for_each_child(r, k, |r, q| {
            let child_prefix = (prefix << k) | q;
            // Even when the branch cannot match we must *parse* it to stay
            // positioned in the stream; but we can skip the match tests
            // inside. (The format is not indexed, so full skipping needs a
            // parse anyway; the saving is the key comparisons.)
            if prefix_viable(child_prefix, level + 1, shape, z, flags) {
                scan_subtree(r, level + 1, child_prefix, shape, z, flags, matches, found)
            } else {
                scan_subtree(
                    r,
                    level + 1,
                    child_prefix,
                    shape,
                    z,
                    flags,
                    &|_| false,
                    found,
                )
            }
        })
    }
}

/// Reads the `2^k`-bit child mask of an index node and calls `child` for
/// every present quadrant, in order, with the reader positioned at that
/// child's encoding. The mask is walked through a second cursor, so any
/// level width up to `TreeShape`'s 16 bits decodes without a buffer.
fn for_each_child<'a>(
    r: &mut BitReader<'a>,
    k: u32,
    mut child: impl FnMut(&mut BitReader<'a>, u64) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    let mut mask = r.clone();
    r.skip(1 << k).ok_or(DecodeError::UnexpectedEnd)?;
    let mut empty = true;
    for q in 0..(1u64 << k) {
        if mask.read_bit() == Some(true) {
            empty = false;
            child(r, q)?;
        }
    }
    if empty {
        return Err(DecodeError::EmptyMask);
    }
    Ok(())
}

/// `prefix` moved above the `rem` relative bits of a point. At the root of a
/// 64-bit shape `rem == 64` and the (empty) prefix shifts out entirely.
#[inline]
fn below_prefix(prefix: u64, rem: u32) -> u64 {
    prefix.checked_shl(rem).unwrap_or(0)
}

/// Decodes a wire bitstring back into the point set.
pub fn decode(tree: &EncodedTree, shape: &TreeShape) -> Result<PointSet, DecodeError> {
    let mut r = BitReader::with_len(&tree.bytes, tree.len_bits);
    let mut keys = Vec::new();
    if tree.len_bits > 0 {
        read_subtree(&mut r, 0, 0, shape, &mut keys)?;
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBits {
                extra: r.remaining(),
            });
        }
    }
    let mut points: Vec<Point> = keys
        .into_iter()
        .map(|k| {
            let (z, flags) = shape.split_key(k);
            if shape.flag_bits() > 0 && flags == 0 {
                return Err(DecodeError::EmptyFlags);
            }
            // Flagless shapes store pure z keys; report full membership.
            let flags = if shape.flag_bits() == 0 { 0b11 } else { flags };
            Ok(Point {
                z,
                flags: RelFlags(flags),
            })
        })
        .collect::<Result<_, _>>()?;
    points.sort_unstable_by_key(|p| p.z);
    for w in points.windows(2) {
        if w[0].z == w[1].z {
            return Err(DecodeError::DuplicatePoint { z: w[0].z });
        }
    }
    Ok(PointSet::from_sorted_unchecked(points))
}

fn read_subtree(
    r: &mut BitReader<'_>,
    level: usize,
    prefix: u64,
    shape: &TreeShape,
    out: &mut Vec<u64>,
) -> Result<(), DecodeError> {
    let rem = shape.bits_below(level);
    let first = r.read_bit().ok_or(DecodeError::UnexpectedEnd)?;
    if first {
        // Point list: we already consumed the leading '1' of the first point.
        loop {
            let pos = r.read_bits(rem).ok_or(DecodeError::UnexpectedEnd)?;
            out.push(below_prefix(prefix, rem) | pos);
            if !r.read_bit().ok_or(DecodeError::UnexpectedEnd)? {
                break;
            }
        }
        Ok(())
    } else {
        // Index node — illegal below the bottom level (only point lists can
        // appear there); corrupted streams may claim otherwise.
        let k = u32::from(*shape.levels().get(level).ok_or(DecodeError::TooDeep)?);
        for_each_child(r, k, |r, q| {
            read_subtree(r, level + 1, (prefix << k) | q, shape, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape2d() -> TreeShape {
        // Two 3-bit dimensions interleaved + 2 flag bits: levels [2,2,2,2].
        TreeShape::new(&[2, 2, 2], 2)
    }

    fn set(pts: &[(u64, u8)]) -> PointSet {
        PointSet::from_points(pts.iter().map(|&(z, f)| Point {
            z,
            flags: RelFlags(f),
        }))
    }

    #[test]
    fn empty_set_is_zero_bits() {
        let sh = shape2d();
        let e = encode(&PointSet::new(), &sh);
        assert_eq!(e.len_bits, 0);
        assert_eq!(decode(&e, &sh).unwrap(), PointSet::new());
    }

    #[test]
    fn single_point_roundtrip() {
        let sh = shape2d();
        let s = set(&[(0b101011, 0b10)]);
        let e = encode(&s, &sh);
        assert_eq!(decode(&e, &sh).unwrap(), s);
        // A single point is cheapest as a root-level list: 1 + 8 + 1 bits.
        assert_eq!(e.len_bits, 10);
    }

    #[test]
    fn clustered_points_subdivide() {
        let sh = shape2d();
        // Four points sharing the top 4 key bits: subdividing pays off.
        let s = set(&[(0b000000, 1), (0b000001, 1), (0b000010, 1), (0b000011, 1)]);
        let e = encode(&s, &sh);
        let flat_list_bits = 4 * (1 + 8) + 1;
        assert!(
            e.len_bits < flat_list_bits,
            "{} !< {flat_list_bits}",
            e.len_bits
        );
        assert_eq!(decode(&e, &sh).unwrap(), s);
    }

    #[test]
    fn scattered_points_stay_listed() {
        let sh = shape2d();
        // Two maximally distant points: no common structure, list is best.
        let s = set(&[(0, 0b10), (0b111111, 0b01)]);
        let e = encode(&s, &sh);
        assert_eq!(e.len_bits, 2 * 9 + 1);
        assert_eq!(decode(&e, &sh).unwrap(), s);
    }

    #[test]
    fn encoded_len_matches_encode() {
        let sh = shape2d();
        for pts in [
            vec![],
            vec![(5u64, 0b10u8)],
            vec![(0, 0b10), (1, 0b10), (2, 0b01), (3, 0b11), (60, 0b01)],
            (0..16).map(|i| (i as u64, 0b10)).collect::<Vec<_>>(),
        ] {
            let s = set(&pts);
            assert_eq!(encoded_len_bits(&s, &sh), encode(&s, &sh).len_bits);
        }
    }

    #[test]
    fn dense_set_compresses_well() {
        let sh = shape2d();
        // All 64 cells present in relation A: the tree should collapse far
        // below the flat list.
        let s = set(&(0..64u64).map(|z| (z, 0b10)).collect::<Vec<_>>());
        let e = encode(&s, &sh);
        let flat = 64 * 9 + 1;
        assert!(e.len_bits < flat / 2, "{} bits", e.len_bits);
        assert_eq!(decode(&e, &sh).unwrap(), s);
    }

    #[test]
    fn wire_size_rounds_up() {
        let t = EncodedTree {
            bytes: vec![0, 0],
            len_bits: 9,
        };
        assert_eq!(t.wire_size(), 2);
        let t0 = EncodedTree {
            bytes: vec![],
            len_bits: 0,
        };
        assert_eq!(t0.wire_size(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let sh = shape2d();
        let s = set(&[(0b101011, 0b10), (0b101010, 0b01)]);
        let e = encode(&s, &sh);
        let bad = EncodedTree {
            bytes: e.bytes.clone(),
            len_bits: e.len_bits - 3,
        };
        assert!(matches!(decode(&bad, &sh), Err(DecodeError::UnexpectedEnd)));
    }

    #[test]
    fn trailing_bits_error() {
        let sh = shape2d();
        let s = set(&[(3, 0b10)]);
        let mut e = encode(&s, &sh);
        e.bytes.push(0);
        e.len_bits += 8;
        assert!(matches!(
            decode(&e, &sh),
            Err(DecodeError::TrailingBits { .. })
        ));
    }

    #[test]
    fn flagless_shape_roundtrip() {
        let sh = TreeShape::without_flags(&[2, 2]);
        let s = PointSet::from_points([0u64, 3, 7, 12, 15].map(|z| Point {
            z,
            flags: RelFlags(0b11),
        }));
        let e = encode(&s, &sh);
        assert_eq!(decode(&e, &sh).unwrap(), s);
    }

    #[test]
    fn correlated_data_beats_flat_encoding() {
        // Spatially correlated readings -> nearby z values -> much smaller
        // encoding than n * (total_bits + overhead). This is the mechanism
        // behind Fig. 16.
        let sh = TreeShape::new(&[3, 3, 3, 3], 2);
        let s = set(&(0..100u64).map(|i| (1000 + i, 0b10)).collect::<Vec<_>>());
        let e = encode(&s, &sh);
        let flat = 100 * (1 + 14) + 1;
        assert!(
            e.len_bits * 2 < flat,
            "correlated encoding {} should be < half of flat {flat}",
            e.len_bits
        );
    }
}
