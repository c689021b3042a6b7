//! The multi-dimensional quantized space and its Z-order linearization.

use crate::{Dimension, ZNumber};

/// Errors building a [`ZSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZSpaceError {
    /// The combined coordinates need more than 64 bits.
    TooManyBits {
        /// Bits the configuration would need.
        needed: u32,
    },
    /// A space needs at least one dimension.
    NoDimensions,
}

impl std::fmt::Display for ZSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZSpaceError::TooManyBits { needed } => {
                write!(f, "z-space needs {needed} bits, more than the 64 supported")
            }
            ZSpaceError::NoDimensions => write!(f, "z-space needs at least one dimension"),
        }
    }
}

impl std::error::Error for ZSpaceError {}

/// A restricted, discrete, n-dimensional space with a Z-order linearization.
///
/// The Z-number of a point is computed by MSB-first bit interleaving of its
/// cell coordinates. Level `l` of the interleaving takes one bit from every
/// dimension that still has bits left (i.e. whose `bits() > l`); dimensions
/// with fewer bits stop contributing at deeper levels, matching the paper's
/// "each dimension contributes to the bit interleaving until its bits are
/// exhausted" (§V-B). Level 0 therefore halves *every* dimension — the
/// classic region-quadtree decomposition.
#[derive(Debug, Clone)]
pub struct ZSpace {
    dims: Vec<Dimension>,
    /// Number of contributing dimensions per interleave level (top first).
    schedule: Vec<u8>,
    total_bits: u32,
    /// Per-dimension deposit mask: the Z-number bit positions this
    /// dimension's coordinate bits land on. Coordinate bit 0 (LSB) maps to
    /// the lowest set mask bit, matching the MSB-first interleave schedule,
    /// so `encode_cells` is `OR_d deposit(coord_d, mask_d)` and `decode` is
    /// `extract(z, mask_d)`.
    dim_masks: Vec<u64>,
}

impl ZSpace {
    /// Builds a space from quantized dimensions.
    pub fn new(dims: Vec<Dimension>) -> Result<Self, ZSpaceError> {
        if dims.is_empty() {
            return Err(ZSpaceError::NoDimensions);
        }
        let total_bits: u32 = dims.iter().map(Dimension::bits).sum();
        if total_bits > 64 {
            return Err(ZSpaceError::TooManyBits { needed: total_bits });
        }
        let max_bits = dims.iter().map(Dimension::bits).max().unwrap_or(0);
        let schedule: Vec<u8> = (0..max_bits)
            .map(|l| dims.iter().filter(|d| d.bits() > l).count() as u8)
            .collect();
        // Walk the interleave in emission order (level-major, declaration
        // order within a level) and record where each dimension's bits land.
        let mut dim_masks = vec![0u64; dims.len()];
        let mut pos = total_bits;
        for l in 0..max_bits {
            for (i, d) in dims.iter().enumerate() {
                if d.bits() > l {
                    pos -= 1;
                    dim_masks[i] |= 1u64 << pos;
                }
            }
        }
        Ok(Self {
            dims,
            schedule,
            total_bits,
            dim_masks,
        })
    }

    /// The dimensions, in declaration order.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Total bits of a Z-number in this space.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bits consumed at each interleave level, topmost level first. This is
    /// the branching structure of the region quadtree built over this space:
    /// a level consuming `k` bits has `2^k` children.
    pub fn level_schedule(&self) -> &[u8] {
        &self.schedule
    }

    /// Quantizes a point and interleaves its coordinates into a Z-number
    /// (paper Fig. 7, `EncodeTuple`). Values outside the configured ranges
    /// are clamped to the boundary cells.
    ///
    /// # Panics
    /// Panics if `values.len() != self.arity()`.
    pub fn encode(&self, values: &[f64]) -> ZNumber {
        assert_eq!(values.len(), self.dims.len(), "arity mismatch");
        let coords: Vec<u64> = self
            .dims
            .iter()
            .zip(values)
            .map(|(d, &v)| d.coordinate(v))
            .collect();
        self.encode_cells(&coords)
    }

    /// Interleaves already-quantized cell coordinates.
    ///
    /// Each dimension's bits are deposited onto its precomputed interleave
    /// mask, one loop step per coordinate bit — bit-identical to the
    /// level-schedule loop of [`ZSpace::encode_cells_reference`]. (A BMI2
    /// `pdep` here measured no faster end to end: DESIGN.md §4.10.)
    ///
    /// # Panics
    /// Panics in debug builds if a coordinate is out of range.
    pub fn encode_cells(&self, coords: &[u64]) -> ZNumber {
        assert_eq!(coords.len(), self.dims.len(), "arity mismatch");
        let mut z: u64 = 0;
        for ((&c, &m), d) in coords.iter().zip(&self.dim_masks).zip(&self.dims) {
            debug_assert!(c < d.cells(), "coordinate {c} out of range");
            z |= deposit(c, m);
        }
        z
    }

    /// The paper's level-by-level interleave (Fig. 7, `EncodeTuple`): kept
    /// as the reference for equivalence tests and the other side of the
    /// interleave microbenchmark.
    pub fn encode_cells_reference(&self, coords: &[u64]) -> ZNumber {
        assert_eq!(coords.len(), self.dims.len(), "arity mismatch");
        let mut z: u64 = 0;
        for (l, _) in self.schedule.iter().enumerate() {
            let l = l as u32;
            for (d, &c) in self.dims.iter().zip(coords) {
                debug_assert!(c < d.cells(), "coordinate {c} out of range");
                if d.bits() > l {
                    let bit = (c >> (d.bits() - 1 - l)) & 1;
                    z = (z << 1) | bit;
                }
            }
        }
        z
    }

    /// Recovers the cell coordinates from a Z-number (inverse of
    /// [`ZSpace::encode_cells`]): one mask extraction per dimension.
    pub fn decode(&self, z: ZNumber) -> Vec<u64> {
        self.dim_masks.iter().map(|&m| extract(z, m)).collect()
    }

    /// The level-by-level deinterleave reference (inverse of
    /// [`ZSpace::encode_cells_reference`]).
    pub fn decode_reference(&self, z: ZNumber) -> Vec<u64> {
        let mut coords = vec![0u64; self.dims.len()];
        let mut pos = self.total_bits;
        for (l, _) in self.schedule.iter().enumerate() {
            let l = l as u32;
            for (i, d) in self.dims.iter().enumerate() {
                if d.bits() > l {
                    pos -= 1;
                    coords[i] = (coords[i] << 1) | ((z >> pos) & 1);
                }
            }
        }
        coords
    }

    /// The per-dimension interleave deposit masks (bit positions of each
    /// dimension's coordinate bits inside a Z-number).
    pub fn interleave_masks(&self) -> &[u64] {
        &self.dim_masks
    }

    /// The n-dimensional value box covered by the cell of `z`: one
    /// `(lo, hi)` interval per dimension. Boundary cells extend to infinity
    /// (see [`Dimension::cell_interval`]) so a conservative pre-join never
    /// misses clamped values.
    pub fn cell_box(&self, z: ZNumber) -> Vec<(f64, f64)> {
        (0..self.dims.len())
            .map(|d| self.cell_interval(z, d))
            .collect()
    }

    /// Dimension `d`'s interval of [`ZSpace::cell_box`], with nothing
    /// allocated.
    pub fn cell_interval(&self, z: ZNumber, d: usize) -> (f64, f64) {
        self.dims[d].cell_interval(extract(z, self.dim_masks[d]))
    }

    /// Convenience: quantize a point and return the *representative* value of
    /// its cell per dimension (the cell's midpoint, which re-encodes to the
    /// same cell regardless of floating-point rounding). Two points encode to
    /// the same Z-number iff they share all representatives.
    pub fn representative(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.dims.len(), "arity mismatch");
        self.dims
            .iter()
            .zip(values)
            .map(|(d, &v)| d.min() + (d.coordinate(v) as f64 + 0.5) * d.resolution())
            .collect()
    }
}

/// Bit deposit: the low `mask.count_ones()` bits of `src` (LSB first) land on
/// the set positions of `mask` (ascending).
#[inline]
fn deposit(mut src: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    while mask != 0 {
        if src & 1 != 0 {
            out |= mask & mask.wrapping_neg();
        }
        src >>= 1;
        mask &= mask - 1;
    }
    out
}

/// Bit extract (inverse of [`deposit`]): the bits of `src` at the set
/// positions of `mask` (ascending), gathered into the low bits.
#[inline]
fn extract(src: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0u32;
    while mask != 0 {
        if src & mask & mask.wrapping_neg() != 0 {
            out |= 1u64 << i;
        }
        i += 1;
        mask &= mask - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_2x2() -> ZSpace {
        // Two dimensions with 4 cells each (2 bits): classic quadtree.
        ZSpace::new(vec![
            Dimension::new("x", 0.0, 3.0, 1.0),
            Dimension::new("y", 0.0, 3.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn paper_fig6c_bit_interleaving() {
        // Fig. 6c: 4x4 grid, cell (x=1, y=2) -> interleave x=01, y=10.
        // MSB-first interleave, x first: 0,1,1,0 = 6... The figure numbers
        // cells row-major in z-order; what we verify here is the defining
        // property instead of a picture: z of (x,y) is the standard Morton
        // code.
        let s = space_2x2();
        // Exhaustively check Morton order for 4x4.
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..4u64 {
            for y in 0..4u64 {
                let z = s.encode_cells(&[x, y]);
                assert!(z < 16);
                assert!(seen.insert(z), "z collision at ({x},{y})");
                assert_eq!(s.decode(z), vec![x, y]);
            }
        }
    }

    #[test]
    fn morton_locality_quadrants() {
        let s = space_2x2();
        // All cells with x<2 and y<2 (first quadrant) share the top 2 bits.
        let prefixes: std::collections::BTreeSet<u64> = (0..2u64)
            .flat_map(|x| (0..2u64).map(move |y| (x, y)))
            .map(|(x, y)| s.encode_cells(&[x, y]) >> 2)
            .collect();
        assert_eq!(prefixes.len(), 1);
    }

    #[test]
    fn unequal_dims_schedule() {
        let s = ZSpace::new(vec![
            Dimension::new("a", 0.0, 7.0, 1.0), // 3 bits
            Dimension::new("b", 0.0, 1.0, 1.0), // 1 bit
        ])
        .unwrap();
        assert_eq!(s.total_bits(), 4);
        // Level 0: both dims contribute; levels 1 and 2: only dim a.
        assert_eq!(s.level_schedule(), &[2, 1, 1]);
        for a in 0..8u64 {
            for b in 0..2u64 {
                let z = s.encode_cells(&[a, b]);
                assert_eq!(s.decode(z), vec![a, b]);
            }
        }
    }

    #[test]
    fn encode_clamps_out_of_range() {
        let s = space_2x2();
        assert_eq!(s.encode(&[-100.0, 0.0]), s.encode(&[0.0, 0.0]));
        assert_eq!(s.encode(&[100.0, 3.9]), s.encode(&[3.0, 3.0]));
    }

    #[test]
    fn cell_box_covers_value() {
        let s = ZSpace::new(vec![
            Dimension::new("temp", -5.0, 45.0, 0.1),
            Dimension::new("x", 0.0, 1050.0, 1.0),
        ])
        .unwrap();
        let v = [21.57, 433.2];
        let b = s.cell_box(s.encode(&v));
        for (i, (lo, hi)) in b.iter().enumerate() {
            assert!(*lo <= v[i] && v[i] < *hi);
        }
    }

    #[test]
    fn representative_identifies_cells() {
        let s = space_2x2();
        assert_eq!(s.representative(&[1.2, 2.7]), vec![1.5, 2.5]);
    }

    #[test]
    fn too_many_bits_rejected() {
        let err = ZSpace::new(vec![
            Dimension::new("a", 0.0, 1e12, 0.001), // way past 64 bits alone? 2^50 cells
            Dimension::new("b", 0.0, 1e12, 0.001),
        ])
        .unwrap_err();
        matches!(err, ZSpaceError::TooManyBits { .. });
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(ZSpace::new(vec![]).unwrap_err(), ZSpaceError::NoDimensions);
    }

    #[test]
    fn pdep_interleave_matches_reference() {
        // Unequal bit widths exercise the mask layout hardest: 3+1+2 bits.
        let s = ZSpace::new(vec![
            Dimension::new("a", 0.0, 7.0, 1.0), // 3 bits
            Dimension::new("b", 0.0, 1.0, 1.0), // 1 bit
            Dimension::new("c", 0.0, 3.0, 1.0), // 2 bits
        ])
        .unwrap();
        for a in 0..8u64 {
            for b in 0..2u64 {
                for c in 0..4u64 {
                    let coords = [a, b, c];
                    let z = s.encode_cells(&coords);
                    assert_eq!(z, s.encode_cells_reference(&coords));
                    assert_eq!(s.decode(z), coords.to_vec());
                    assert_eq!(s.decode_reference(z), coords.to_vec());
                }
            }
        }
    }

    #[test]
    fn deposit_extract_roundtrip_on_edge_masks() {
        for (src, mask) in [
            (0u64, 0u64),
            (u64::MAX, u64::MAX),
            (0b1011, 0b0110_1100),
            (0xdead_beef, 0x00ff_00ff_00ff_00ff),
            (42, 1 << 63),
        ] {
            let dep = deposit(src, mask);
            assert_eq!(dep & !mask, 0);
            // deposit-then-extract recovers the low bits of src
            let low = src & u64::MAX.checked_shr(64 - mask.count_ones()).unwrap_or(0);
            assert_eq!(extract(dep, mask), low);
        }
        assert_eq!(deposit(0b1011, 0b0110_1100), 0b0100_1100);
    }

    #[test]
    fn interleave_masks_partition_the_key() {
        let s = ZSpace::new(vec![
            Dimension::new("a", 0.0, 7.0, 1.0),
            Dimension::new("b", 0.0, 1.0, 1.0),
        ])
        .unwrap();
        let masks = s.interleave_masks();
        assert_eq!(masks.iter().map(|m| m.count_ones()).sum::<u32>(), 4);
        assert_eq!(masks.iter().fold(0, |acc, m| acc | m), 0b1111);
        assert_eq!(masks[0] & masks[1], 0);
        // Level 0 takes one bit from each dim, a first: a gets bit 3, b bit 2.
        assert_eq!(masks[1], 0b0100);
    }

    #[test]
    fn z_order_is_monotone_in_prefix() {
        // The DFS order of a quadtree equals ascending z-number order: check
        // that encode_cells is a bijection onto 0..2^total_bits for a full
        // grid (already implied by fig6c test) and that sorting by z groups
        // quadrants contiguously.
        let s = space_2x2();
        let mut zs: Vec<(u64, (u64, u64))> = (0..4u64)
            .flat_map(|x| (0..4u64).map(move |y| (x, y)))
            .map(|(x, y)| (s.encode_cells(&[x, y]), (x, y)))
            .collect();
        zs.sort();
        // First four entries must be the first quadrant.
        for (_, (x, y)) in &zs[..4] {
            assert!(*x < 2 && *y < 2);
        }
    }
}
