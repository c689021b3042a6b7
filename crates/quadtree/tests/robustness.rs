//! Adversarial-input robustness: the decoder must reject, never panic on or
//! misinterpret, arbitrary byte strings. Wire messages in a WSN can be
//! corrupted; a malformed structure must surface as `DecodeError`.

use proptest::prelude::*;
use sensjoin_quadtree::{
    contains_encoded, decode, encode, DecodeError, EncodedTree, Point, PointSet, RelFlags,
    TreeShape,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes either decode into a valid set or error cleanly.
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        trim in 0usize..8,
    ) {
        let shape = TreeShape::new(&[2, 2, 2, 2], 2);
        let len_bits = (bytes.len() * 8).saturating_sub(trim);
        let tree = EncodedTree { bytes, len_bits };
        if let Ok(set) = decode(&tree, &shape) {
            // Whatever decoded must re-encode and round-trip; errors are
            // clean rejections.
            let re = encode(&set, &shape);
            prop_assert_eq!(decode(&re, &shape).unwrap(), set);
        }
    }

    /// The same over the shapes the protocols use — 1-D, 2-D and the 3-D
    /// Q3 space, with and without a flag level — and over a claimed bit
    /// length that is free to disagree with the bytes in either direction:
    /// always a structured `DecodeError` or a set that re-encodes to itself.
    #[test]
    fn decoder_fuzz_on_protocol_shapes(
        shape in prop_oneof![
            Just(TreeShape::new(&[1; 16], 2)),
            Just(TreeShape::without_flags(&[1; 16])),
            Just(TreeShape::new(&[2, 2, 2, 2, 2, 2, 1], 2)),
            Just(TreeShape::new(&[3, 3, 3, 3, 3, 3, 2, 2, 2], 2)),
            Just(TreeShape::new(&[3, 3, 3, 3, 3, 3, 2, 2, 2], 3)),
            Just(TreeShape::without_flags(&[16, 16, 16, 16])),
        ],
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        claimed in 0usize..800,
    ) {
        let len_bits = claimed.min(bytes.len() * 8);
        let tree = EncodedTree { bytes, len_bits };
        match decode(&tree, &shape) {
            Ok(set) => {
                let re = encode(&set, &shape);
                prop_assert_eq!(decode(&re, &shape).unwrap(), set);
            }
            Err(
                DecodeError::UnexpectedEnd
                | DecodeError::EmptyMask
                | DecodeError::TrailingBits { .. }
                | DecodeError::DuplicatePoint { .. }
                | DecodeError::EmptyFlags
                | DecodeError::TooDeep,
            ) => {}
        }
    }

    /// Single-bit corruption of a valid encoding is either detected or
    /// yields a different-but-valid set — never a crash.
    #[test]
    fn bit_flips_handled(
        pts in prop::collection::vec((0u64..=255, 1u8..=3), 1..30),
        flip in 0usize..64,
    ) {
        let shape = TreeShape::new(&[2, 2, 2, 2], 2);
        let set = PointSet::from_points(
            pts.iter().map(|&(z, f)| Point { z, flags: RelFlags(f) }),
        );
        let mut tree = encode(&set, &shape);
        prop_assume!(tree.len_bits > 0);
        let bit = flip % tree.len_bits;
        tree.bytes[bit / 8] ^= 0x80 >> (bit % 8);
        match decode(&tree, &shape) {
            Ok(other) => {
                let re = encode(&other, &shape);
                prop_assert_eq!(decode(&re, &shape).unwrap(), other);
            }
            Err(
                DecodeError::UnexpectedEnd
                | DecodeError::EmptyMask
                | DecodeError::TrailingBits { .. }
                | DecodeError::DuplicatePoint { .. }
                | DecodeError::EmptyFlags
                | DecodeError::TooDeep,
            ) => {}
        }
    }
}

/// Regression: at the root of a 64-bit-key shape a point's relative width is
/// 64 bits, and both readers shifted the (empty) path prefix by it — a
/// shift overflow that panicked in debug builds.
#[test]
fn sixty_four_bit_keys_roundtrip() {
    let shape = TreeShape::without_flags(&[16, 16, 16, 16]);
    let set = PointSet::from_points(
        [0, 1, 0xFFFF, 1 << 48, (1 << 48) + 7, u64::MAX - 1, u64::MAX].map(|z| Point {
            z,
            flags: RelFlags(0b11),
        }),
    );
    let tree = encode(&set, &shape);
    assert_eq!(decode(&tree, &shape).unwrap(), set);
    for p in set.iter() {
        assert_eq!(contains_encoded(&tree, &shape, p.z, p.flags), Ok(true));
    }
    assert_eq!(
        contains_encoded(&tree, &shape, 2, RelFlags(0b11)),
        Ok(false)
    );
}
