//! Branching structure of the generalized region quadtree.

/// The per-level branching of the tree built over a Z-order space.
///
/// Level `l` of the tree consumes `levels[l]` key bits, i.e. has
/// `2^levels[l]` child quadrants. For an n-dimensional space with equal
/// per-dimension bit counts every level consumes `n` bits (the classic
/// region quadtree: 4 children in 2-D); unequal dimensions shrink later
/// levels as dimensions run out of bits (see
/// `sensjoin_zorder::ZSpace::level_schedule`).
///
/// The relation flags are the *first* level: the paper prefixes each point
/// with its two flag bits so "the topmost index node represents the relation
/// flags" (§V-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Bits consumed per level, top first (flag level included).
    levels: Vec<u8>,
    /// Total key bits = flag bits + z bits.
    total_bits: u32,
    /// Number of flag bits (0 if flags are not encoded).
    flag_bits: u8,
    /// `below[l]` = key bits below level `l`: suffix sums of `levels`, with
    /// `below[levels.len()] == 0`.
    below: Vec<u32>,
    /// `level_of_bit[b]` = the level whose quadrant bits include key bit `b`
    /// (counted from the least significant); bits past the key map to 0.
    level_of_bit: [u8; 64],
}

impl TreeShape {
    /// Builds a shape from a Z-order level schedule plus the relation-flag
    /// width (2 for two-relation queries; 0 to omit flags entirely).
    ///
    /// # Panics
    /// Panics if any level consumes 0 or more than 16 bits, or if the total
    /// exceeds 66 bits (64-bit Z-numbers + 2 flag bits is the paper setting;
    /// we allow up to 8 flag bits as long as flag + z bits fit in a u64 key
    /// when combined by the caller).
    pub fn new(z_schedule: &[u8], flag_bits: u8) -> Self {
        assert!(flag_bits <= 8);
        let mut levels = Vec::with_capacity(z_schedule.len() + 1);
        if flag_bits > 0 {
            levels.push(flag_bits);
        }
        levels.extend_from_slice(z_schedule);
        for &l in &levels {
            assert!(
                l > 0 && l <= 16,
                "level arity bits must be in 1..=16, got {l}"
            );
        }
        let total_bits: u32 = levels.iter().map(|&b| u32::from(b)).sum();
        assert!(total_bits <= 64, "total key bits {total_bits} exceed u64");
        let mut below = vec![0u32; levels.len() + 1];
        let mut level_of_bit = [0u8; 64];
        for l in (0..levels.len()).rev() {
            below[l] = below[l + 1] + u32::from(levels[l]);
            level_of_bit[below[l + 1] as usize..below[l] as usize].fill(l as u8);
        }
        Self {
            levels,
            total_bits,
            flag_bits,
            below,
            level_of_bit,
        }
    }

    /// A shape with no flag level (e.g. for single-relation synopses).
    pub fn without_flags(z_schedule: &[u8]) -> Self {
        Self::new(z_schedule, 0)
    }

    /// Bits consumed per level, top first.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Total key bits.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Width of the flag prefix.
    pub fn flag_bits(&self) -> u8 {
        self.flag_bits
    }

    /// Z-number bits (total minus flags).
    pub fn z_bits(&self) -> u32 {
        self.total_bits - u32::from(self.flag_bits)
    }

    /// Combines flags and Z-number into the full tree key.
    #[inline]
    pub fn key(&self, z: u64, flags: u8) -> u64 {
        debug_assert!(self.z_bits() == 64 || z < (1u64 << self.z_bits()).max(1));
        if self.flag_bits == 0 {
            z
        } else {
            (u64::from(flags) << self.z_bits()) | z
        }
    }

    /// Splits a full key back into `(z, flags)`.
    #[inline]
    pub fn split_key(&self, key: u64) -> (u64, u8) {
        if self.flag_bits == 0 {
            (key, 0)
        } else {
            let zb = self.z_bits();
            let z = if zb == 0 { 0 } else { key & ((1u64 << zb) - 1) };
            ((z), (key >> zb) as u8)
        }
    }

    /// Bits remaining *below* level `l` (the relative point width inside a
    /// quadrant at depth `l`).
    #[inline]
    pub fn bits_below(&self, l: usize) -> u32 {
        self.below[l]
    }

    /// The level at which two distinct keys part ways, given their XOR: they
    /// share a quadrant at every level above it and differ at this one.
    #[inline]
    pub(crate) fn divergence_level(&self, xor: u64) -> usize {
        debug_assert_ne!(xor, 0, "equal keys never diverge");
        usize::from(self.level_of_bit[63 - xor.leading_zeros() as usize])
    }

    /// The quadrant index of `key` at level `l` (its bits for that level).
    #[inline]
    pub(crate) fn quadrant(&self, key: u64, l: usize) -> u64 {
        (key >> self.below[l + 1]) & ((1u64 << self.levels[l]) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_level_is_first() {
        let s = TreeShape::new(&[2, 2, 1], 2);
        assert_eq!(s.levels(), &[2, 2, 2, 1]);
        assert_eq!(s.total_bits(), 7);
        assert_eq!(s.z_bits(), 5);
        assert_eq!(s.flag_bits(), 2);
    }

    #[test]
    fn key_roundtrip() {
        let s = TreeShape::new(&[3, 3], 2);
        let k = s.key(0b101010, 0b11);
        assert_eq!(s.split_key(k), (0b101010, 0b11));
        assert_eq!(k >> s.z_bits(), 0b11);
    }

    #[test]
    fn no_flags() {
        let s = TreeShape::without_flags(&[2, 2]);
        assert_eq!(s.flag_bits(), 0);
        assert_eq!(s.key(9, 0), 9);
        assert_eq!(s.split_key(9), (9, 0));
    }

    #[test]
    fn bits_below() {
        let s = TreeShape::new(&[2, 2, 1], 2);
        assert_eq!(s.bits_below(0), 7);
        assert_eq!(s.bits_below(1), 5);
        assert_eq!(s.bits_below(4), 0);
    }

    #[test]
    fn divergence_and_quadrant_follow_the_level_table() {
        let s = TreeShape::new(&[2, 2, 1], 2);
        // Key layout, MSB first: ff | aa | bb | c.
        assert_eq!(s.divergence_level(0b1000000), 0);
        assert_eq!(s.divergence_level(0b0010000), 1);
        assert_eq!(s.divergence_level(0b0000110), 2);
        assert_eq!(s.divergence_level(0b0000001), 3);
        let key = (0b10 << 5) | (0b01 << 3) | (0b11 << 1);
        assert_eq!(
            (0..4).map(|l| s.quadrant(key, l)).collect::<Vec<_>>(),
            [0b10, 0b01, 0b11, 0]
        );
        let wide = TreeShape::without_flags(&[16, 16, 16, 16]);
        assert_eq!(wide.bits_below(0), 64);
        assert_eq!(wide.divergence_level(1 << 63), 0);
        assert_eq!(wide.divergence_level(1), 3);
    }

    #[test]
    #[should_panic(expected = "level arity bits")]
    fn zero_level_rejected() {
        TreeShape::without_flags(&[2, 0]);
    }
}
