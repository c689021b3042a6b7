//! Partitioned candidate generation for the base-station join engines.
//!
//! For each descend level (relation) of a join, [`plan`] builds one
//! [`LevelIndex`] **per classified predicate landing on that level**,
//! driven by the predicate classification of [`sensjoin_query::analyze`].
//! The one join descent (`engine::exact_descent`) keys a level's tuples by
//! their values (`f64`) in the exact join and its quantized points by their
//! cells ([`Interval`]) in the pre-join filter. Either way ([`Key`]):
//!
//! * **band** predicates (direct and difference-form comparisons, equality
//!   included as the direct band `=`) get a sorted key array
//!   ([`SortedKeys`]), probed with binary searches,
//! * **general** predicates get no index; their levels fall back to the
//!   full scan of the nested-loop descent.
//!
//! When a level carries several indexable predicates, the engines
//! *intersect* their candidate sets ([`candidates`]): the probe with the
//! fewest candidates drives the scan and every other probe degrades to a
//! membership test per candidate ([`Entry`]: a stored rank, or the binary
//! search of a kept index's key), so the scan cost is `min` over the
//! predicates' windows rather than the first one's. The
//! pre-join filter's last level, a semi-join, walks the same intersection
//! through [`unmarked_candidates`], which jumps over positions it has
//! already marked.
//!
//! Whether a pruning probe *decides* its predicate is a property of the
//! domain ([`Key::DECIDES`]): points yes, cells no (below).
//!
//! # One window derivation
//!
//! [`SortedKeys::runs`] is the one place a [`BandForm`] becomes array
//! positions, for points and cells alike. The form accepts a set of
//! *d-values* — the key itself for a direct comparison, the difference
//! `key − p` or `p − key` otherwise — given as at most two intervals
//! ([`DIv`]). Each entry has a d-image `[lo, hi]`: a point's is `[d, d]`, a
//! cell's is the cell or its difference with the probe cell under the
//! `Interval` operations the residual check uses. An entry is kept unless
//! its image lies wholly below or wholly above an accepted interval. Both
//! bounds are monotone along the array, so `partition_point` finds the runs.
//!
//! # Points: exact windows
//!
//! A point probe that prunes ([`Probe::Runs`]) is an **exact window**: it
//! holds precisely the tuples whose predicate holds for the probing
//! binding, no more and no fewer. Two properties make that airtight without
//! any epsilon slack:
//!
//! 1. keys and probes are evaluated from the **original predicate
//!    subtrees** (see [`sensjoin_query::analyze`]) with the same evaluator
//!    as the predicate ([`sensjoin_query::eval`]), so both compute identical
//!    `f64`s, and
//! 2. the binary-search partition predicates evaluate the **same IEEE-754
//!    operations** as the predicate (one subtraction and one comparison —
//!    never an algebraically solved bound), and IEEE subtraction and
//!    comparison are monotone, so each predicate's accepted set is a union
//!    of at most two contiguous runs of the sorted key array, found exactly
//!    by `partition_point`. Equality's window [p, p] holds exactly the
//!    keys `== p`: −0 and +0 land together, and NaN is never indexed.
//!
//! So a predicate whose own index pruned for a binding is **decided** there,
//! and the joins over points evaluate it no more: the residual check runs
//! only the predicates no index decided — `General` ones, and those whose probe
//! is [`Probe::All`] for this binding (a difference form probed with ±∞, a
//! complement band whose bound admits everything), which claims nothing.
//! `exact_probes_decide_their_predicate` pins the window against
//! [`sensjoin_query::holds`] on adversarial keys and probes. Order is
//! restored by marking a level's candidates into a [`PosSet`] and draining
//! it, which reads positions ascending.
//!
//! # Cells: the pre-join's windows
//!
//! A cell's d-image is the exact image of the compared operand over the
//! cells, so a cell window holds precisely the entries whose interval check
//! is not `Tri::False` — `|X| = c` included, whose window is the two points
//! `±c`. A possible check is not a true one, so a cell window decides
//! nothing and the filter checks every predicate of a level on its
//! candidates. Cell keys must be plain columns: the
//! cells of one dimension are equal or meet at most at an endpoint, so
//! sorting them by lower bound sorts their upper bounds too, and both image
//! bounds stay monotone. `cell_windows_are_the_possible_checks` pins the
//! windows against `holds::<Interval>`.

use crate::engine::Tuples;
use sensjoin_query::{
    eval, BandForm, CmpOp, CompiledQuery, Domain, Interval, NumExpr, PredClass, PredSide,
};
use std::borrow::Cow;
use std::ops::Range;

/// At most two disjoint runs of a sorted key array, ascending; an unused
/// slot is the empty `0..0`. Two is the most any indexed predicate accepts
/// (`|d| > c` and `|d| = c`), so a probe result is plain data.
type Runs = [Range<usize>; 2];

/// Number of array positions covered by `runs`.
fn runs_len(runs: &Runs) -> usize {
    runs[0].len() + runs[1].len()
}

/// A set of tuple positions of one relation, as a bitset with a second
/// level marking the non-zero words: inserting is two ORs, and draining
/// visits the positions **in ascending order** in time proportional to
/// their number (plus one summary word per 4096 positions), whatever the
/// relation's size. The join descent uses it twice: to put a level's
/// candidates into the nested loop's position order, whatever order its
/// driving index holds them in, and to record which tuples reached a result
/// row.
#[derive(Default)]
pub(crate) struct PosSet {
    words: Vec<u64>,
    /// Bit `w` is set iff `words[w] != 0`.
    occupied: Vec<u64>,
}

impl PosSet {
    /// An empty set over positions `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Self {
            words: vec![0; words],
            occupied: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, pos: u32) {
        let w = (pos >> 6) as usize;
        self.words[w] |= 1 << (pos & 63);
        self.occupied[w >> 6] |= 1 << (w & 63);
    }

    /// Adds every position of `other` (a set over the same relation).
    pub(crate) fn union_with(&mut self, other: &PosSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        for (a, b) in self.occupied.iter_mut().zip(&other.occupied) {
            *a |= b;
        }
    }

    /// Calls `f` on every position in ascending order and leaves the set
    /// empty, ready for the next binding.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(u32)) {
        self.drain_words(|w, bits| for_each_bit(w, bits, &mut f));
    }

    /// [`PosSet::drain`] that also adds every position to `seen`, a set
    /// over the same relation, one word at a time. Returns how many there
    /// were.
    pub(crate) fn drain_into(&mut self, seen: &mut PosSet, mut f: impl FnMut(u32)) -> usize {
        let mut count = 0;
        self.drain_words(|w, bits| {
            seen.words[w] |= bits;
            seen.occupied[w >> 6] |= 1 << (w & 63);
            count += bits.count_ones() as usize;
            for_each_bit(w, bits, &mut f);
        });
        count
    }

    /// Takes every non-zero word out of the set, in ascending order, and
    /// hands it to `f` with its index.
    fn drain_words(&mut self, mut f: impl FnMut(usize, u64)) {
        for (hi, summary) in self.occupied.iter_mut().enumerate() {
            let mut live = std::mem::take(summary);
            while live != 0 {
                let w = hi * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                f(w, std::mem::take(&mut self.words[w]));
            }
        }
    }
}

/// Calls `f` on the position of every set bit of word `w`, ascending.
#[inline]
fn for_each_bit(w: usize, mut bits: u64, f: &mut impl FnMut(u32)) {
    while bits != 0 {
        f((w * 64) as u32 + bits.trailing_zeros());
        bits &= bits - 1;
    }
}

/// A half-open/closed interval of *d-values* (module docs); the accepted
/// set of one comparison in the monotone probe coordinate.
#[derive(Clone, Copy)]
struct DIv {
    lo: f64,
    lo_open: bool,
    hi: f64,
    hi_open: bool,
}

impl DIv {
    fn ray_below(hi: f64, hi_open: bool) -> Self {
        Self {
            lo: f64::NEG_INFINITY,
            lo_open: false,
            hi,
            hi_open,
        }
    }

    fn ray_above(lo: f64, lo_open: bool) -> Self {
        Self {
            lo,
            lo_open,
            hi: f64::INFINITY,
            hi_open: false,
        }
    }

    fn window(lo: f64, hi: f64, open: bool) -> Self {
        Self {
            lo,
            lo_open: open,
            hi,
            hi_open: open,
        }
    }

    /// `v` lies strictly below the interval.
    fn below(&self, v: f64) -> bool {
        v < self.lo || (self.lo_open && v == self.lo)
    }

    /// `v` lies strictly above the interval.
    fn above(&self, v: f64) -> bool {
        v > self.hi || (self.hi_open && v == self.hi)
    }
}

/// The d-values one comparison accepts: the union of the (at most two)
/// intervals present. No interval means "nothing".
type Accepted = [Option<DIv>; 2];

/// The d-intervals accepted by `d op r` for some `r` in `[lo, hi]` (a point
/// is `lo = hi`), or `None` for "everything".
fn cmp_intervals(op: CmpOp, lo: f64, hi: f64) -> Option<Accepted> {
    let iv = match op {
        CmpOp::Lt => DIv::ray_below(hi, true),
        CmpOp::Le => DIv::ray_below(hi, false),
        CmpOp::Gt => DIv::ray_above(lo, true),
        CmpOp::Ge => DIv::ray_above(lo, false),
        CmpOp::Eq => DIv::window(lo, hi, false),
        CmpOp::Ne => return None, // not indexed (classified General)
    };
    Some([Some(iv), None])
}

/// The d-intervals accepted by `|d| op c`.
fn abs_cmp_intervals(op: CmpOp, c: f64) -> Option<Accepted> {
    Some(match op {
        // |d| ≥ 0, so a non-positive upper bound accepts nothing …
        CmpOp::Lt if c <= 0.0 => [None, None],
        CmpOp::Le if c < 0.0 => [None, None],
        // … and a negative lower bound accepts everything.
        CmpOp::Gt if c < 0.0 => return None,
        CmpOp::Ge if c <= 0.0 => return None,
        CmpOp::Eq if c < 0.0 => [None, None],
        CmpOp::Lt => [Some(DIv::window(-c, c, true)), None],
        CmpOp::Le => [Some(DIv::window(-c, c, false)), None],
        CmpOp::Gt => [
            Some(DIv::ray_below(-c, true)),
            Some(DIv::ray_above(c, true)),
        ],
        CmpOp::Ge => [
            Some(DIv::ray_below(-c, false)),
            Some(DIv::ray_above(c, false)),
        ],
        CmpOp::Eq => [
            Some(DIv::window(-c, -c, false)),
            Some(DIv::window(c, c, false)),
        ],
        CmpOp::Ne => return None,
    })
}

/// `keys.partition_point(pred)` when that is at least `from`, and `from`
/// when it is less: a galloping search from `from`, so the end of a narrow
/// window costs a few steps, not a second full binary search.
fn gallop<K>(keys: &[(K, u32)], from: usize, pred: impl Fn(&(K, u32)) -> bool) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= keys.len() && pred(&keys[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    lo + keys[lo..keys.len().min(lo + step)].partition_point(pred)
}

/// Finds the positions of `keys` (ascending) whose d-image `image(key)`
/// meets one of `ivs`; both bounds of the image are monotone over the key
/// order, increasing iff `increasing`. Exact: `partition_point` over a
/// monotone predicate.
fn sorted_runs<K: Copy>(
    keys: &[(K, u32)],
    image: impl Fn(K) -> (f64, f64),
    increasing: bool,
    ivs: Accepted,
) -> Runs {
    let [a, b] = ivs.map(|iv| {
        let Some(iv) = iv else { return 0..0 };
        let (start, end) = if increasing {
            let start = keys.partition_point(|&(k, _)| iv.below(image(k).1));
            (start, gallop(keys, start, |&(k, _)| !iv.above(image(k).0)))
        } else {
            let start = keys.partition_point(|&(k, _)| iv.above(image(k).0));
            (start, gallop(keys, start, |&(k, _)| !iv.below(image(k).1)))
        };
        if start < end {
            start..end
        } else {
            0..0
        }
    });
    // When the image is decreasing, ascending d-intervals come out as
    // descending key ranges (e.g. `|d| > c`'s two rays map to a suffix run
    // *then* a prefix run) — order them before merging touching/overlapping
    // runs, so the positions stay duplicate-free without dropping any run.
    let (a, b) = if b.is_empty() || (!a.is_empty() && a.start <= b.start) {
        (a, b)
    } else {
        (b, a)
    };
    if !b.is_empty() && b.start <= a.end {
        [a.start..a.end.max(b.end), 0..0]
    } else {
        [a, b]
    }
}

/// The key domain of a [`SortedKeys`] array and of the join descent that
/// probes it: a tuple's value (`f64`) or a quantized point's cell
/// ([`Interval`]).
pub(crate) trait Key: Domain + Send + Sync {
    /// Whether a pruning probe decides its predicate: a point window is
    /// exact, a cell window holds the possible checks only (module docs).
    const DECIDES: bool;

    /// Its bounds `[lo, hi]`; a point's are itself.
    fn bounds(self) -> (f64, f64);

    /// Whether `key − self` and `self − key` are monotone along the keys,
    /// as the searches need. Not for a point at ±∞: `∞ − ∞` is NaN.
    fn differences_monotone(self) -> bool;

    /// Whether predicate side `expr` can key an index.
    fn can_key(expr: &NumExpr) -> bool;
}

impl Key for f64 {
    const DECIDES: bool = true;

    #[inline]
    fn bounds(self) -> (f64, f64) {
        (self, self)
    }

    fn differences_monotone(self) -> bool {
        self.is_finite()
    }

    /// Any expression: a tuple's key is one value.
    fn can_key(_: &NumExpr) -> bool {
        true
    }
}

impl Key for Interval {
    const DECIDES: bool = false;

    #[inline]
    fn bounds(self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Interval subtraction widens `∞ − ∞` to the infinite bound on its own
    /// side, which keeps each bound monotone in the key.
    fn differences_monotone(self) -> bool {
        true
    }

    /// A plain column only: its cells are aligned (module docs).
    fn can_key(expr: &NumExpr) -> bool {
        matches!(expr, NumExpr::Col { .. })
    }
}

/// The sorted-key index of one band predicate on one relation: `(key,
/// position)` ascending by (lower) key, ties by position, no NaN key (no
/// comparison with a NaN operand is ever true, so such a tuple can never
/// pass). The joins build one per level and predicate ([`LevelIndex`]);
/// the streaming join keeps one per side across batches, moving entries
/// as tuples change (`ingest.rs`). Equality is the direct band `=`, whose
/// point window is the closed [p, p].
#[derive(Debug, Clone)]
pub(crate) struct SortedKeys<K> {
    pub(crate) form: BandForm,
    /// Whether the indexed relation is the `lhs` side of the form.
    pub(crate) key_is_lhs: bool,
    /// `(key, position)`, in [`key_order`].
    pub(crate) entries: Vec<(K, u32)>,
}

/// The order of a [`SortedKeys`] array: by lower key bound under
/// `f64::total_cmp` (−0 before +0, both inside the same IEEE windows), ties
/// by position.
fn key_order<K: Key>(a: &(K, u32), b: &(K, u32)) -> std::cmp::Ordering {
    (a.0.bounds().0.total_cmp(&b.0.bounds().0)).then(a.1.cmp(&b.1))
}

impl<K: Key> SortedKeys<K> {
    /// The index of `keys`, `(key, position)` pairs in any order.
    pub(crate) fn build(
        form: BandForm,
        key_is_lhs: bool,
        keys: impl Iterator<Item = (K, u32)>,
    ) -> Self {
        let mut entries: Vec<(K, u32)> = keys.filter(|(k, _)| !k.bounds().0.is_nan()).collect();
        entries.sort_unstable_by(key_order);
        Self {
            form,
            key_is_lhs,
            entries,
        }
    }

    /// Where `(key, pos)` sits, or belongs, in the array.
    fn at(&self, key: K, pos: u32) -> usize {
        (self.entries).partition_point(|e| key_order(e, &(key, pos)).is_lt())
    }

    /// Moves position `pos` from key `from` to key `to`, where a NaN key
    /// has no entry (an insert, a removal). Only the entries between the
    /// old place and the new one shift, so a key that stays moves nothing.
    pub(crate) fn shift(&mut self, from: K, to: K, pos: u32) {
        let entry = |key: K| (!key.bounds().0.is_nan()).then_some(key);
        let old = entry(from).map(|key| self.at(key, pos));
        debug_assert!(old.is_none_or(|at| self.entries.get(at).map(|e| e.1) == Some(pos)));
        match (old, entry(to)) {
            (Some(old), Some(to)) => {
                // `at` counts the old entry when it lies below.
                let at = self.at(to, pos);
                let at = if at > old {
                    self.entries[old..at].rotate_left(1);
                    at - 1
                } else {
                    self.entries[at..=old].rotate_right(1);
                    at
                };
                self.entries[at] = (to, pos);
            }
            (Some(old), None) => {
                self.entries.remove(old);
            }
            (None, Some(to)) => self.entries.insert(self.at(to, pos), (to, pos)),
            (None, None) => {}
        }
    }

    /// The runs of the array whose key could satisfy the band predicate
    /// against probe `p` — for a point key, does. `None` when the predicate
    /// cannot prune (`!=`, a complement band with a negative bound, a
    /// difference form probed with a point at ±∞ — `inf − inf` is NaN,
    /// which breaks the monotonicity the searches rest on): every position
    /// is then a candidate. This is the one place a [`BandForm`] becomes key
    /// positions.
    pub(crate) fn runs(&self, p: K) -> Option<Runs> {
        let (keys, form, key_is_lhs) = (&self.entries, self.form, self.key_is_lhs);
        let (lo, hi) = p.bounds();
        let ivs = match form {
            // Direct comparisons probe the key value itself:
            // `key op p` or `p op key` ≡ `key op.mirror() p`.
            BandForm::Direct(op) => {
                cmp_intervals(if key_is_lhs { op } else { op.mirror() }, lo, hi)?
            }
            BandForm::Diff { op, c } => cmp_intervals(op, c, c)?,
            BandForm::AbsDiff { op, c } => abs_cmp_intervals(op, c)?,
        };
        if lo.is_nan() {
            // Every indexed comparison involving NaN is false.
            return Some([0..0, 0..0]);
        }
        // The coordinate the searches run in: the key itself, or the
        // difference the form compares — `key − p` when the keyed relation
        // is its lhs, `p − key` (decreasing along the array) when it is its
        // rhs.
        Some(match form {
            BandForm::Direct(_) => sorted_runs(keys, K::bounds, true, ivs),
            _ if !p.differences_monotone() => return None,
            _ if key_is_lhs => sorted_runs(keys, |k| (k - p).bounds(), true, ivs),
            _ => sorted_runs(keys, |k| (p - k).bounds(), false, ivs),
        })
    }
}

// ---------------------------------------------------------------------------
// Per-level indexes
// ---------------------------------------------------------------------------

/// One index of a join level: the sorted keys of the level's relation
/// under one band predicate — built with the plan, or kept by the streaming
/// join — and the other side's expression, which probes them.
pub(crate) struct LevelIndex<'q, K: Clone> {
    /// The join predicate (position in `join_preds`) it was built from.
    pred: usize,
    /// Probe-side expression (references already bound relations only).
    probe: &'q NumExpr,
    keys: Cow<'q, SortedKeys<K>>,
    /// How a position's entry is found, for the membership test.
    entry: Entry<'q, K>,
}

/// The keys of a [`LevelIndex`] and how it finds a position's entry.
pub(crate) type Keys<'q, K> = (Cow<'q, SortedKeys<K>>, Entry<'q, K>);

/// How a [`LevelIndex`] finds a position's entry.
pub(crate) enum Entry<'q, K> {
    /// Per position: its rank (`u32::MAX` for a NaN key, which has none).
    Rank(Vec<u32>),
    /// Per position: its key, whose entry a binary search finds: a kept
    /// index's ranks shift on every insert.
    Key(&'q [K]),
}

/// The outcome of probing one [`LevelIndex`] for a partial binding: an
/// abstract candidate set — plain data — that can be counted, walked, or
/// membership-tested.
#[derive(Clone)]
pub(crate) enum Probe {
    /// The index cannot prune for this binding (a complement band whose
    /// bound admits everything, a difference form probed with a point at
    /// ±∞): every position is a candidate.
    All,
    /// Runs of the sorted key array.
    Runs(Runs),
}

impl Probe {
    /// Number of candidate positions (`usize::MAX` for [`Probe::All`]).
    pub(crate) fn count(&self) -> usize {
        match self {
            Probe::All => usize::MAX,
            Probe::Runs(runs) => runs_len(runs),
        }
    }

    /// Whether the probe prunes — and so, for a point key, being an exact
    /// window, decides its index's predicate for the probing binding
    /// (module docs).
    pub(crate) fn prunes(&self) -> bool {
        !matches!(self, Probe::All)
    }
}

impl<K: Key> LevelIndex<'_, K> {
    /// The join predicate (position in `join_preds`) the index was built from.
    pub(crate) fn pred(&self) -> usize {
        self.pred
    }

    /// Probes the index for the current partial binding.
    pub(crate) fn probe(&self, env: &impl Fn(usize, usize) -> K) -> Probe {
        match self.keys.runs(eval(self.probe, env)) {
            Some(runs) => Probe::Runs(runs),
            None => Probe::All,
        }
    }

    /// Whether position `pos` is a candidate of `probe` — the membership
    /// test used when another index drives the scan.
    fn contains(&self, probe: &Probe, pos: u32) -> bool {
        match probe {
            Probe::All => true,
            Probe::Runs(runs) => self
                .rank(pos)
                .is_some_and(|rank| runs.iter().any(|r| r.contains(&rank))),
        }
    }

    /// The rank of position `pos`'s entry, if it has one.
    fn rank(&self, pos: u32) -> Option<usize> {
        match &self.entry {
            Entry::Rank(rank_of) => {
                (rank_of[pos as usize] != u32::MAX).then_some(rank_of[pos as usize] as usize)
            }
            Entry::Key(keys) => {
                let at = self.keys.at(keys[pos as usize], pos);
                (self.keys.entries.get(at).map(|e| e.1) == Some(pos)).then_some(at)
            }
        }
    }
}

/// Calls `f` on every candidate of a level with `len` positions: each
/// position that all of its `probes` (parallel to its `indexes`) admit. The
/// probe with the fewest candidates drives, in its key order, and each
/// other one is an O(1) membership test a candidate; with no pruning probe,
/// every position is a candidate, ascending.
pub(crate) fn candidates<K: Key>(
    indexes: &[LevelIndex<K>],
    probes: &[Probe],
    len: usize,
    mut f: impl FnMut(u32),
) {
    let Some((di, runs)) = driving_probe(probes) else {
        return (0..len as u32).for_each(f);
    };
    let entries = runs
        .iter()
        .flat_map(|run| &indexes[di].keys.entries[run.clone()]);
    if indexes.len() == 1 {
        return entries.for_each(|&(_, pos)| f(pos));
    }
    entries
        .filter(|&&(_, pos)| {
            (indexes.iter().zip(probes).enumerate())
                .all(|(i, (ix, probe))| i == di || ix.contains(probe, pos))
        })
        .for_each(|&(_, pos)| f(pos));
}

/// The pruning probe with the fewest candidates, the first on a tie, and
/// its runs: the one a level's walk drives.
fn driving_probe(probes: &[Probe]) -> Option<(usize, &Runs)> {
    (probes.iter().enumerate())
        .filter_map(|(i, probe)| match probe {
            Probe::All => None,
            Probe::Runs(runs) => Some((i, runs)),
        })
        .min_by_key(|&(_, runs)| runs_len(runs))
}

/// The slots `0..len` of one walk order, some of them marked, as a
/// path-halved successor array: `next[i] == i` iff slot `i` is unmarked,
/// and every slot in `i..next[i]` is marked. Slot `len` is never marked and
/// ends every walk.
#[derive(Default)]
struct NextUnmarked(Vec<u32>);

impl NextUnmarked {
    fn new(len: usize) -> Self {
        Self((0..=len as u32).collect())
    }

    /// The number of slots.
    fn len(&self) -> usize {
        self.0.len() - 1
    }

    /// The first unmarked slot at or after `i`.
    #[inline]
    fn find(&mut self, mut i: usize) -> usize {
        let next = &mut self.0;
        while next[i] as usize != i {
            next[i] = next[next[i] as usize];
            i = next[i] as usize;
        }
        i
    }

    /// Marks slot `i`: it unions with the slot after it.
    fn mark(&mut self, i: usize) {
        if self.0[i] as usize == i {
            self.0[i] += 1;
        }
    }
}

/// The positions of a semi-join's last level that are not yet marked, in
/// each order the level is walked in: ascending positions, and the key
/// order of each of its indexes. Marking a position marks it in all of them.
#[derive(Default)]
pub(crate) struct Unmarked {
    by_pos: NextUnmarked,
    /// Parallel to the level's indexes: over their ranks.
    by_rank: Vec<NextUnmarked>,
}

impl Unmarked {
    /// Every position of a level with `len` positions and `indexes`, none
    /// of them marked.
    pub(crate) fn new<K: Key>(indexes: &[LevelIndex<K>], len: usize) -> Self {
        Self {
            by_pos: NextUnmarked::new(len),
            by_rank: (indexes.iter())
                .map(|ix| NextUnmarked::new(ix.keys.entries.len()))
                .collect(),
        }
    }

    fn mark<K: Key>(&mut self, indexes: &[LevelIndex<K>], pos: u32) {
        self.by_pos.mark(pos as usize);
        for (ix, ranks) in indexes.iter().zip(&mut self.by_rank) {
            if let Some(rank) = ix.rank(pos) {
                ranks.mark(rank);
            }
        }
    }
}

/// [`candidates`] of a semi-join's last level, whose walk marks positions
/// as it goes: `f(pos)` checks candidate `pos` and returns whether its
/// binding held, which marks `pos` and every bound position. A marked
/// candidate can change nothing once every bound position is marked
/// (`settled`, or from the first binding that holds). Until then the walk
/// visits every candidate, in [`candidates`]' order; from then on it jumps
/// from one unmarked position of the driving order to the next, and the
/// other indexes stay membership tests. Marks never clear, so a position
/// skipped once is never needed again — in this walk or any later one over
/// the same `unmarked`.
pub(crate) fn unmarked_candidates<K: Key>(
    indexes: &[LevelIndex<K>],
    probes: &[Probe],
    unmarked: &mut Unmarked,
    mut settled: bool,
    mut f: impl FnMut(u32) -> bool,
) {
    let driving = driving_probe(probes);
    let di = driving.map(|(di, _)| di);
    let every = [0..unmarked.by_pos.len(), 0..0];
    for run in driving.map_or(&every, |(_, runs)| runs) {
        let mut slot = run.start;
        loop {
            if settled {
                slot = match di {
                    Some(di) => unmarked.by_rank[di].find(slot),
                    None => unmarked.by_pos.find(slot),
                };
            }
            if slot >= run.end {
                break;
            }
            let pos = di.map_or(slot as u32, |di| indexes[di].keys.entries[slot].1);
            let admitted = (indexes.iter().zip(probes).enumerate())
                .all(|(i, (ix, probe))| Some(i) == di || ix.contains(probe, pos));
            if admitted && f(pos) {
                settled = true;
                unmarked.mark(indexes, pos);
            }
            slot += 1;
        }
    }
}

/// The per-level index lists (empty list: full scan) of a join of `query`
/// whose predicates close at `pred_rels`. Level `rel` receives one index per
/// classified predicate whose highest relation is `rel` — the level where
/// the nested descent first evaluates it — for which `source(pred, key,
/// key_is_lhs, form)` hands keys over the `key` side, so a level constrained by
/// several indexable predicates intersects all of their candidate sets.
pub(crate) fn levels<'q, K: Key>(
    query: &'q CompiledQuery,
    pred_rels: &[usize],
    mut source: impl FnMut(usize, &'q PredSide, bool, BandForm) -> Option<Keys<'q, K>>,
) -> Vec<Vec<LevelIndex<'q, K>>> {
    let mut levels: Vec<Vec<LevelIndex<'q, K>>> =
        (0..query.num_relations()).map(|_| Vec::new()).collect();
    for (pi, class) in query.pred_classes().iter().enumerate() {
        let rel = pred_rels[pi];
        let PredClass::Band { lhs, rhs, form } = class else {
            continue;
        };
        debug_assert_eq!(lhs.rel.max(rhs.rel), rel, "a band spans two relations");
        let (key, probe, key_is_lhs) = if rhs.rel == rel {
            (rhs, lhs, false)
        } else {
            (lhs, rhs, true)
        };
        if let Some((keys, entry)) = source(pi, key, key_is_lhs, *form) {
            levels[rel].push(LevelIndex {
                pred: pi,
                probe: &probe.expr,
                keys,
                entry,
            });
        }
    }
    levels
}

/// [`levels`] with each index built here over a join whose relation `rel`
/// has `count(rel)` positions, and whose position `pos` of relation `rel`
/// has value `value(rel, pos, attr)` for attribute `attr` — where its side
/// can key one ([`Key::can_key`]).
pub(crate) fn plan<'q, K: Key>(
    query: &'q CompiledQuery,
    pred_rels: &[usize],
    count: impl Fn(usize) -> usize,
    value: impl Fn(usize, usize, usize) -> K,
) -> Vec<Vec<LevelIndex<'q, K>>> {
    levels(query, pred_rels, |_, key, key_is_lhs, form| {
        if !K::can_key(&key.expr) {
            return None;
        }
        let rel = key.rel;
        let keyed = (0..count(rel)).map(|pos| {
            let env = |r: usize, a: usize| -> K {
                debug_assert_eq!(r, rel);
                value(rel, pos, a)
            };
            (eval(&key.expr, &env), pos as u32)
        });
        let keys = SortedKeys::build(form, key_is_lhs, keyed);
        let mut rank_of = vec![u32::MAX; count(rel)];
        for (rank, &(_, pos)) in keys.entries.iter().enumerate() {
            rank_of[pos as usize] = rank as u32;
        }
        Some((Cow::Owned(keys), Entry::Rank(rank_of)))
    })
}

/// The index plan of a join over `tuples`, in their key domain.
pub(crate) fn exact_plan<'q, T: Tuples + ?Sized>(
    query: &'q CompiledQuery,
    tuples: &T,
    pred_rels: &[usize],
) -> Vec<Vec<LevelIndex<'q, T::Key>>> {
    plan(
        query,
        pred_rels,
        |rel| tuples.count(rel),
        |rel, pos, a| tuples.values(rel, pos)[a],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{StreamJoinEngine, StreamOp};
    use proptest::prelude::*;
    use sensjoin_query::holds;
    use sensjoin_relation::NodeId;

    fn point(k: f64) -> (f64, f64) {
        (k, k)
    }

    fn keys(values: &[f64]) -> Vec<(f64, u32)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect()
    }

    #[test]
    fn sorted_runs_windows_and_rays() {
        let keys = keys(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        // d = identity, window (2, 4]: {3, 4}.
        let iv = DIv {
            lo: 2.0,
            lo_open: true,
            hi: 4.0,
            hi_open: false,
        };
        assert_eq!(
            sorted_runs(&keys, point, true, [Some(iv), None]),
            [2..4, 0..0]
        );
        // d = 10 − k (decreasing), ray above 7 (strict): 10−k > 7 ⇔ k < 3.
        let r = sorted_runs(
            &keys,
            |k| point(10.0 - k),
            false,
            [Some(DIv::ray_above(7.0, true)), None],
        );
        assert_eq!(r, [0..2, 0..0]);
        // Two overlapping rays merge, in either slot order.
        let (below, above) = (DIv::ray_below(3.0, false), DIv::ray_above(2.0, false));
        for ivs in [[Some(below), Some(above)], [Some(above), Some(below)]] {
            assert_eq!(sorted_runs(&keys, point, true, ivs), [0..5, 0..0]);
        }
        // Nothing accepted, and an interval no key falls in.
        assert_eq!(sorted_runs(&keys, point, true, [None, None]), [0..0, 0..0]);
        let gap = DIv::window(2.25, 2.75, false);
        assert_eq!(
            sorted_runs(&keys, point, true, [None, Some(gap)]),
            [0..0, 0..0]
        );
    }

    #[test]
    fn sorted_runs_decreasing_two_runs_both_survive() {
        // Probe p = 0 against keys [-4, -2, 0, 2, 4] with d(k) = p − k
        // (decreasing) and `|d| > 1`'s intervals (−∞, −1) ∪ (1, ∞): the
        // first interval is the *suffix* {2, 4}, the second the *prefix*
        // {-4, -2}. Both runs must survive the merge.
        let keys = keys(&[-4.0, -2.0, 0.0, 2.0, 4.0]);
        let ivs = abs_cmp_intervals(CmpOp::Gt, 1.0).unwrap();
        let r = sorted_runs(&keys, |k| point(0.0 - k), false, ivs);
        assert_eq!(r, [0..2, 3..5]);
        // |d| = 2 on the same decreasing coordinate: two singleton runs.
        let ivs = abs_cmp_intervals(CmpOp::Eq, 2.0).unwrap();
        let r = sorted_runs(&keys, |k| point(0.0 - k), false, ivs);
        assert_eq!(r, [1..2, 3..4]);
        assert_eq!(runs_len(&r), 2);
    }

    #[test]
    fn band_runs_are_exactly_the_scalar_matches() {
        let cmp = |l: f64, op: CmpOp, r: f64| match op {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        };
        let sub = f64::from_bits(1); // smallest subnormal
        let specials = [
            f64::NEG_INFINITY,
            -1e308,
            -3.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -sub,
            -0.0,
            0.0,
            sub,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            1e308,
            f64::INFINITY,
        ];
        // The key array as an index holds it: ascending, duplicates kept,
        // NaN keys left out.
        let mut sorted: Vec<f64> = specials.iter().chain(&[1.0, -0.0]).copied().collect();
        sorted.sort_by(f64::total_cmp);
        let keys = keys(&sorted);
        let probes: Vec<f64> = specials.iter().copied().chain([f64::NAN]).collect();
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let mut pruned = 0;
        for op in ops {
            let mut forms = vec![BandForm::Direct(op)];
            for c in [-2.0, -0.0, 0.0, sub, 1.0, 4.5, f64::INFINITY] {
                forms.push(BandForm::Diff { op, c });
                forms.push(BandForm::AbsDiff { op, c });
            }
            for form in forms {
                for key_is_lhs in [true, false] {
                    let index = SortedKeys::build(form, key_is_lhs, keys.iter().copied());
                    for &p in &probes {
                        let runs = index.runs(p);
                        if op == CmpOp::Ne {
                            assert!(runs.is_none(), "{form:?} must not prune");
                        }
                        // `None` claims nothing: the caller scans.
                        let Some(runs) = runs else { continue };
                        pruned += 1;
                        assert!(runs[1].is_empty() || runs[0].end < runs[1].start);
                        for (i, &(k, _)) in index.entries.iter().enumerate() {
                            let (l, r) = if key_is_lhs { (k, p) } else { (p, k) };
                            let accepted = match form {
                                BandForm::Direct(op) => cmp(l, op, r),
                                BandForm::Diff { op, c } => cmp(l - r, op, c),
                                BandForm::AbsDiff { op, c } => cmp((l - r).abs(), op, c),
                            };
                            assert_eq!(
                                runs.iter().any(|run| run.contains(&i)),
                                accepted,
                                "{form:?} key_is_lhs={key_is_lhs} p={p:e} key={k:e}"
                            );
                        }
                    }
                }
            }
        }
        assert!(pruned > 1000, "only {pruned} probes pruned");
    }

    /// Values where exactness is hardest: NaN, ±0, ±∞, the smallest
    /// subnormals and normals, ±`f64::MAX` (whose differences overflow),
    /// and near-ties.
    const ADVERSARIAL: [f64; 19] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        1e308,
        -1e308,
        1.0,
        -1.0,
        1.0 + f64::EPSILON,
        0.5,
        2.0,
        -3.5,
    ];

    fn adversarial() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..ADVERSARIAL.len()).prop_map(|i| ADVERSARIAL[i]),
            // Half-steps: exact differences and ties with the bounds.
            (-8i32..=8).prop_map(|i| f64::from(i) * 0.5),
            -1e6..1e6f64,
        ]
    }

    /// Every predicate shape the indexes take, over `A.t` and `B.t` — each
    /// orientation, so the keyed relation `B` is either side — as written
    /// in SQL: direct comparisons (`=` is the equi hash), differences and
    /// absolute differences against a constant on either side, under every
    /// comparison operator. Each compiled as `SELECT A.t, B.t FROM S A, S B`.
    fn shapes(c: f64) -> Vec<CompiledQuery> {
        use sensjoin_query::ast::FromItem;
        use sensjoin_query::{BinOp, Expr, Query, SelectItem, Temporal};
        use sensjoin_relation::{AttrType, Attribute, Schema};
        let col = |q: &str| Expr::Attr {
            qualifier: q.into(),
            attr: "t".into(),
        };
        let cmp = |op, lhs: Expr, rhs: Expr| Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let mut shapes = Vec::new();
        for op in ops {
            for (l, r) in [("A", "B"), ("B", "A")] {
                let diff = Expr::Bin {
                    op: BinOp::Sub,
                    lhs: Box::new(col(l)),
                    rhs: Box::new(col(r)),
                };
                let abs = Expr::Abs(Box::new(diff.clone()));
                shapes.push(cmp(op, col(l), col(r)));
                for x in [diff, abs] {
                    shapes.push(cmp(op, x.clone(), Expr::Number(c)));
                    shapes.push(cmp(op, Expr::Number(c), x));
                }
            }
        }
        let schema = Schema::new("S", vec![Attribute::new("t", AttrType::Celsius)]);
        let from = |alias: &str| FromItem {
            relation: "S".into(),
            alias: alias.into(),
        };
        (shapes.into_iter())
            .map(|pred| {
                let query = Query {
                    select: ["A", "B"]
                        .map(|q| SelectItem {
                            agg: None,
                            expr: col(q),
                            alias: None,
                        })
                        .to_vec(),
                    from: vec![from("A"), from("B")],
                    predicate: Some(pred),
                    group_by: Vec::new(),
                    temporal: Temporal::Once,
                };
                CompiledQuery::compile(&query, &[schema.clone(), schema.clone()]).unwrap()
            })
            .collect()
    }

    /// Whether `class` is a band whose probe claims nothing — the
    /// documented cases of [`Probe::All`]; `infinite` is a point probe at ±∞.
    fn claims_nothing(class: &PredClass, infinite: bool) -> bool {
        match class {
            PredClass::Band {
                form: BandForm::Diff { .. },
                ..
            } => infinite,
            PredClass::Band {
                form: BandForm::AbsDiff { op, c },
                ..
            } => infinite || (*op == CmpOp::Gt && *c < 0.0) || (*op == CmpOp::Ge && *c <= 0.0),
            _ => false,
        }
    }

    /// The cells of one dimension cut at `cuts`: `[cut_i, cut_i+1]`, the
    /// first one from −∞ and the last one to +∞, as
    /// `Dimension::cell_interval` cuts them. Signed zeros are distinct cuts,
    /// so `[−0, +0]` can be a cell.
    fn grid(cuts: &[f64]) -> Vec<Interval> {
        let mut cuts: Vec<f64> = cuts.iter().copied().filter(|v| v.is_finite()).collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup_by(|a, b| a.total_cmp(b).is_eq());
        let bounds: Vec<f64> = std::iter::once(f64::NEG_INFINITY)
            .chain(cuts)
            .chain([f64::INFINITY])
            .collect();
        bounds
            .windows(2)
            .map(|w| Interval::new(w[0], w[1]))
            .collect()
    }

    proptest! {
        /// A pruning probe is an exact window: position `pos` is among its
        /// candidates iff the original predicate holds for the binding —
        /// over every `BandForm` × `CmpOp` × key side, `=` included. The
        /// probe claims nothing (`All`) only in the documented cases. The
        /// streaming join over the same tuples — one upsert batch, then
        /// every other key expired and upserted again — answers what the
        /// batch join does over its live tuples, bit for bit.
        #[test]
        fn exact_probes_decide_their_predicate(
            keys in prop::collection::vec(adversarial(), 0..24),
            p in adversarial(),
            c in adversarial(),
        ) {
            let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = vec![
                vec![(NodeId(0), vec![p])],
                keys.iter().enumerate().map(|(i, &k)| (NodeId(i as u32 + 1), vec![k])).collect(),
            ];
            for cq in shapes(c) {
                let join = &cq.join_preds()[0];
                let class = &cq.pred_classes()[0];
                let same = |stream: &StreamJoinEngine, live: &[Vec<(NodeId, Vec<f64>)>]| {
                    let (s, b) = (stream.result(), crate::engine::exact_join(&cq, live));
                    s.result.same_result(&b.result) && s.contributors == b.contributors
                };
                let upsert = |rel: usize, (origin, values): &(NodeId, Vec<f64>)| {
                    let mut per_rel = vec![None, None];
                    per_rel[rel] = Some(values.clone());
                    StreamOp::Upsert { origin: *origin, per_rel }
                };
                let mut stream = StreamJoinEngine::new(cq.clone());
                let all = (tuples.iter().enumerate())
                    .flat_map(|(rel, ts)| ts.iter().map(move |t| upsert(rel, t)));
                stream.apply_batch(&all.collect::<Vec<_>>());
                prop_assert!(same(&stream, &tuples), "{:?} p={:e}", join, p);
                let half = || tuples[1].iter().step_by(2);
                let expire = half().map(|&(origin, _)| StreamOp::Expire { origin });
                stream.apply_batch(&expire.collect::<Vec<_>>());
                let rest = tuples[1].iter().skip(1).step_by(2).cloned().collect();
                let live = [tuples[0].clone(), rest];
                prop_assert!(same(&stream, &live), "{:?} p={:e} half expired", join, p);
                stream.apply_batch(&half().map(|t| upsert(1, t)).collect::<Vec<_>>());
                prop_assert!(same(&stream, &tuples), "{:?} p={:e} half back", join, p);
                let input = crate::engine::batches(&tuples);
                let plan = exact_plan(&cq, &input[..], &crate::engine::pred_max_rels(&cq));
                let Some(ix) = plan[1].first() else {
                    // `!=` and a NaN bound are not indexed at all.
                    prop_assert!(matches!(class, PredClass::General), "{join:?}");
                    continue;
                };
                prop_assert_eq!(ix.pred(), 0);
                let probe = ix.probe(&|_: usize, a: usize| tuples[0][0].1[a]);
                prop_assert_eq!(!probe.prunes(), claims_nothing(class, p.is_infinite()), "{:?} p={:e}", join, p);
                if !probe.prunes() {
                    continue;
                }
                let mut marks = PosSet::new(keys.len());
                candidates(&plan[1], std::slice::from_ref(&probe), keys.len(), |pos| marks.insert(pos));
                let mut walked = Vec::new();
                marks.drain(|pos| walked.push(pos));
                let mut holds = Vec::new();
                for (pos, &k) in keys.iter().enumerate() {
                    let env = |r: usize, _: usize| if r == 0 { p } else { k };
                    let want = sensjoin_query::holds(join, &env);
                    prop_assert_eq!(
                        ix.contains(&probe, pos as u32), want,
                        "{:?} p={:e} key={:e}", join, p, k
                    );
                    if want {
                        holds.push(pos as u32);
                    }
                }
                prop_assert_eq!(walked, holds, "{:?} p={:e}", join, p);
            }
        }

        /// A cell window is the set of cells the interval check finds
        /// possible: an entry outside a pruning probe's runs is `Tri::False`
        /// under `holds::<Interval>`, one inside is not — over every
        /// `BandForm` × `CmpOp` × key side, with keys drawn from one
        /// dimension's aligned cells (±∞ at its ends, signed zeros as
        /// distinct cuts) and the probe a cell of another, which may hold 0.
        #[test]
        fn cell_windows_are_the_possible_checks(
            cuts in prop::collection::vec(adversarial(), 0..8),
            picks in prop::collection::vec(0..9usize, 0..24),
            probe_cuts in prop::collection::vec(adversarial(), 0..4),
            probe_pick in 0..5usize,
            c in adversarial(),
        ) {
            let cells = grid(&cuts);
            let keys: Vec<Interval> = picks.iter().map(|&i| cells[i % cells.len()]).collect();
            let probes = grid(&probe_cuts);
            let p = probes[probe_pick % probes.len()];
            let value = |rel: usize, pos: usize, _: usize| if rel == 0 { p } else { keys[pos] };
            let count = |rel: usize| if rel == 0 { 1 } else { keys.len() };
            for cq in shapes(c) {
                let join = &cq.join_preds()[0];
                let class = &cq.pred_classes()[0];
                let plan = plan(&cq, &crate::engine::pred_max_rels(&cq), count, value);
                let Some(ix) = plan[1].first() else {
                    prop_assert!(matches!(class, PredClass::General), "{join:?}");
                    continue;
                };
                let probe = ix.probe(&|_: usize, _: usize| p);
                prop_assert_eq!(!probe.prunes(), claims_nothing(class, false), "{:?} p={:?}", join, p);
                let mut walked = vec![false; keys.len()];
                candidates(&plan[1], &[probe], keys.len(), |pos| walked[pos as usize] = true);
                for (pos, &k) in keys.iter().enumerate() {
                    let env = |r: usize, _: usize| if r == 0 { p } else { k };
                    prop_assert_eq!(
                        walked[pos], holds(join, &env).possible(),
                        "{:?} p={:?} key={:?}", join, p, k
                    );
                }
            }
        }
    }

    proptest! {
        /// Moving entries in place leaves the array a rebuild sorts: keys
        /// changed, added (from NaN) and removed (to NaN) one position at a
        /// time, over adversarial keys.
        #[test]
        fn shifted_keys_are_the_rebuilt_keys(
            start in prop::collection::vec(adversarial(), 0..16),
            moves in prop::collection::vec((0..16usize, adversarial()), 0..32),
        ) {
            let mut keys = start.clone();
            keys.resize(16, f64::NAN);
            let build = |keys: &[f64]| {
                SortedKeys::build(BandForm::Direct(CmpOp::Lt), true, keys.iter().copied().zip(0..))
            };
            let mut kept = build(&keys);
            for (pos, key) in moves {
                kept.shift(keys[pos], key, pos as u32);
                keys[pos] = key;
            }
            let bits = |e: &[(f64, u32)]| e.iter().map(|&(k, p)| (k.to_bits(), p)).collect::<Vec<_>>();
            prop_assert_eq!(bits(&kept.entries), bits(&build(&keys).entries));
        }
    }

    #[test]
    fn pos_set_drains_ascending_and_empties() {
        // Positions across several words and two summary words.
        let mut set = PosSet::new(5000);
        let mut expect = vec![4999u32, 0, 63, 64, 4096, 4095, 777, 64];
        for &pos in &expect {
            set.insert(pos);
        }
        let mut other = PosSet::new(5000);
        other.insert(1);
        other.insert(4999);
        set.union_with(&other);
        expect.push(1);
        expect.sort_unstable();
        expect.dedup();
        let mut got = Vec::new();
        set.drain(|pos| got.push(pos));
        assert_eq!(got, expect);
        set.drain(|pos| panic!("{pos} left behind"));
        // Draining into a second set hands out the same order and leaves
        // the positions there, beside the ones it held.
        for &pos in &expect {
            set.insert(pos);
        }
        let mut seen = PosSet::new(5000);
        seen.insert(2);
        got.clear();
        assert_eq!(set.drain_into(&mut seen, |pos| got.push(pos)), expect.len());
        assert_eq!(got, expect);
        assert_eq!(
            set.drain_into(&mut seen, |pos| panic!("{pos} left behind")),
            0
        );
        expect.push(2);
        expect.sort_unstable();
        got.clear();
        seen.drain(|pos| got.push(pos));
        assert_eq!(got, expect);
        // A relation without tuples has a set without storage.
        PosSet::new(0).drain(|pos| panic!("{pos} in an empty relation"));
    }
}
