//! The size kernel against the encoder it drives: `encoded_len_bits` must
//! equal `encode(..).len_bits` and the encoding must decode back, on the tree
//! shapes the protocols actually use.

use proptest::prelude::*;
use proptest::TestCaseError;
use sensjoin_quadtree::{
    decode, encode, encoded_len_bits, encoded_wire_size, Point, PointSet, RelFlags, TreeShape,
};

/// Z-order level schedules of a 1-D join space (16 one-bit levels — 17
/// levels with the flag prefix), a 2-D one and the paper's Q3 (3-D).
const SCHEDULES: [&[u8]; 3] = [
    &[1; 16],
    &[2, 2, 2, 2, 2, 2, 1],
    &[3, 3, 3, 3, 3, 3, 2, 2, 2],
];

/// Every schedule under flag widths 0, 2 and 3.
fn shape_strategy() -> impl Strategy<Value = TreeShape> {
    (
        0..SCHEDULES.len(),
        prop_oneof![Just(0u8), Just(2u8), Just(3u8)],
    )
        .prop_map(|(s, flag_bits)| TreeShape::new(SCHEDULES[s], flag_bits))
}

/// Points of `shape`: scattered over the whole space, packed into one
/// neighbourhood, or in a few clusters; one flag class or mixed.
fn points_strategy(shape: &TreeShape) -> impl Strategy<Value = Vec<(u64, u8)>> {
    let zmax = (1u64 << shape.z_bits()) - 1;
    let fmax: u8 = if shape.flag_bits() == 0 {
        0b11
    } else {
        (1u8 << shape.flag_bits()) - 1
    };
    let z = prop_oneof![
        (0..=zmax).prop_map(|z| (z, 0u64)),
        (0..=zmax, 0u64..200).prop_map(|(z, span)| (z, span)),
    ];
    (
        z,
        prop::collection::vec((any::<u64>(), 1..=fmax), 0..120),
        1..=fmax,
        any::<bool>(),
    )
        .prop_map(move |((base, span), raw, one_flag, mixed)| {
            raw.into_iter()
                .map(|(r, f)| {
                    let z = if span == 0 {
                        r % (zmax + 1)
                    } else {
                        (base + r % span).min(zmax)
                    };
                    (z, if mixed { f } else { one_flag })
                })
                .collect()
        })
}

fn build(pts: &[(u64, u8)]) -> PointSet {
    PointSet::from_points(pts.iter().map(|&(z, f)| Point {
        z,
        flags: RelFlags(f),
    }))
}

/// What `decode(encode(s))` must return: `s` itself, or — flags are not on
/// the wire of a flagless shape — its cells under full membership.
fn expected_back(set: &PointSet, shape: &TreeShape) -> PointSet {
    if shape.flag_bits() > 0 {
        return set.clone();
    }
    PointSet::from_points(set.iter().map(|p| Point {
        z: p.z,
        flags: RelFlags(0b11),
    }))
}

fn check(set: &PointSet, shape: &TreeShape) -> Result<(), TestCaseError> {
    let e = encode(set, shape);
    prop_assert_eq!(encoded_len_bits(set, shape), e.len_bits);
    prop_assert_eq!(encoded_wire_size(set, shape), e.wire_size());
    prop_assert_eq!(e.bytes.len(), e.wire_size());
    prop_assert_eq!(decode(&e, shape).unwrap(), expected_back(set, shape));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn size_equals_encoding_and_roundtrips((shape, pts) in shape_strategy().prop_flat_map(|s| {
        let ps = points_strategy(&s);
        (Just(s), ps)
    })) {
        check(&build(&pts), &shape)?;
    }

    /// Empty and singleton sets, on every shape.
    #[test]
    fn tiny_sets((shape, z, f) in shape_strategy().prop_flat_map(|s| {
        let zmax = (1u64 << s.z_bits()) - 1;
        let fmax = if s.flag_bits() == 0 { 0b11 } else { (1u8 << s.flag_bits()) - 1 };
        (Just(s), 0..=zmax, 1..=fmax)
    })) {
        check(&PointSet::new(), &shape)?;
        prop_assert_eq!(encoded_len_bits(&PointSet::new(), &shape), 0);
        let one = build(&[(z, f)]);
        check(&one, &shape)?;
        // One point is a root-level list: `1`, the key, `0`.
        prop_assert_eq!(encoded_len_bits(&one, &shape), shape.total_bits() as usize + 2);
    }
}

/// Every cell present: the tree subdivides all the way down, under one flag
/// class and under all of them.
#[test]
fn all_cells_sets() {
    for flag_bits in [0u8, 2, 3] {
        // `[7, 5]`: a 128-bit child mask, wider than a machine word.
        for schedule in [&[1u8; 10][..], &[2, 2, 2, 2, 1], &[3, 3, 2, 2], &[7, 5]] {
            let shape = TreeShape::new(schedule, flag_bits);
            let cells = 1u64 << shape.z_bits();
            let classes = if flag_bits == 0 {
                3
            } else {
                (1u8 << flag_bits) - 1
            };
            let one_class = build(&(0..cells).map(|z| (z, 1)).collect::<Vec<_>>());
            let mixed = build(
                &(0..cells)
                    .map(|z| (z, 1 + (z % u64::from(classes)) as u8))
                    .collect::<Vec<_>>(),
            );
            for set in [one_class, mixed] {
                let e = encode(&set, &shape);
                assert_eq!(encoded_len_bits(&set, &shape), e.len_bits);
                assert_eq!(decode(&e, &shape).unwrap(), expected_back(&set, &shape));
                let flat = set.len() * (1 + shape.total_bits() as usize) + 1;
                assert!(e.len_bits < flat, "{} !< {flat}", e.len_bits);
            }
        }
    }
}
