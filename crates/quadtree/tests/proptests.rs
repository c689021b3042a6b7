//! Property-based tests for the quadtree wire format and set primitives.

use proptest::prelude::*;
use sensjoin_quadtree::{
    decode, encode, encoded_len_bits, merge, merge_k, Merged, Point, PointSet, RelFlags, TreeShape,
};
use std::collections::BTreeMap;

/// Strategy for a tree shape with varied level structure.
fn shape_strategy() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::new(&[2, 2, 2], 2)),
        Just(TreeShape::new(&[3, 3, 2, 1], 2)),
        Just(TreeShape::new(&[1, 1, 1, 1, 1, 1], 2)),
        Just(TreeShape::without_flags(&[2, 2, 2, 2])),
        Just(TreeShape::new(&[4, 4, 4], 3)),
    ]
}

fn points_strategy(shape: &TreeShape) -> impl Strategy<Value = Vec<(u64, u8)>> {
    let zmax = if shape.z_bits() == 64 {
        u64::MAX
    } else {
        (1u64 << shape.z_bits()) - 1
    };
    let fmax: u8 = if shape.flag_bits() == 0 {
        0b11
    } else {
        ((1u16 << shape.flag_bits()) - 1) as u8
    };
    prop::collection::vec((0..=zmax, 1..=fmax), 0..80)
}

fn build(pts: &[(u64, u8)]) -> PointSet {
    PointSet::from_points(pts.iter().map(|&(z, f)| Point {
        z,
        flags: RelFlags(f),
    }))
}

/// Reference model: map z -> flag byte.
fn model(pts: &[(u64, u8)]) -> BTreeMap<u64, u8> {
    let mut m = BTreeMap::new();
    for &(z, f) in pts {
        *m.entry(z).or_insert(0) |= f;
    }
    m
}

proptest! {
    /// encode/decode are mutual inverses for any set that fits the shape.
    #[test]
    fn roundtrip((shape, pts) in shape_strategy().prop_flat_map(|s| {
        let ps = points_strategy(&s);
        (Just(s), ps)
    })) {
        let set = build(&pts);
        let e = encode(&set, &shape);
        let back = decode(&e, &shape).unwrap();
        if shape.flag_bits() > 0 {
            prop_assert_eq!(back, set);
        } else {
            // Flagless shapes drop membership info but keep the cells.
            let zs: Vec<u64> = back.iter().map(|p| p.z).collect();
            let want: Vec<u64> = set.iter().map(|p| p.z).collect();
            prop_assert_eq!(zs, want);
        }
    }

    /// The encoder never does worse than the flat root-level list (the list
    /// is always one of the candidates), and the predicted length is exact.
    #[test]
    fn size_bounded_by_flat_list((shape, pts) in shape_strategy().prop_flat_map(|s| {
        let ps = points_strategy(&s);
        (Just(s), ps)
    })) {
        let set = build(&pts);
        let e = encode(&set, &shape);
        prop_assert_eq!(encoded_len_bits(&set, &shape), e.len_bits);
        if !set.is_empty() {
            let flat = set.len() * (1 + shape.total_bits() as usize) + 1;
            prop_assert!(e.len_bits <= flat, "{} > {}", e.len_bits, flat);
        } else {
            prop_assert_eq!(e.len_bits, 0);
        }
    }

    /// union agrees with the BTreeMap model (flag-OR on collisions).
    #[test]
    fn union_matches_model(
        a in prop::collection::vec((0u64..4096, 1u8..=3), 0..60),
        b in prop::collection::vec((0u64..4096, 1u8..=3), 0..60),
    ) {
        let u = build(&a).union(&build(&b));
        let mut want = model(&a);
        for (z, f) in model(&b) {
            *want.entry(z).or_insert(0) |= f;
        }
        let got: BTreeMap<u64, u8> = u.iter().map(|p| (p.z, p.flags.0)).collect();
        prop_assert_eq!(got, want);
    }

    /// intersect agrees with the model (flag-AND, dropping empties).
    #[test]
    fn intersect_matches_model(
        a in prop::collection::vec((0u64..512, 1u8..=3), 0..60),
        b in prop::collection::vec((0u64..512, 1u8..=3), 0..60),
    ) {
        let i = build(&a).intersect(&build(&b));
        let (ma, mb) = (model(&a), model(&b));
        let want: BTreeMap<u64, u8> = ma
            .iter()
            .filter_map(|(z, fa)| {
                mb.get(z).map(|fb| (*z, fa & fb)).filter(|(_, f)| *f != 0)
            })
            .collect();
        let got: BTreeMap<u64, u8> = i.iter().map(|p| (p.z, p.flags.0)).collect();
        prop_assert_eq!(got, want);
    }

    /// minus agrees with the model (a's flags less b's, dropping empties).
    #[test]
    fn minus_matches_model(
        a in prop::collection::vec((0u64..512, 1u8..=3), 0..60),
        b in prop::collection::vec((0u64..512, 1u8..=3), 0..60),
    ) {
        let d = build(&a).minus(&build(&b));
        let mb = model(&b);
        let want: BTreeMap<u64, u8> = model(&a)
            .into_iter()
            .map(|(z, fa)| (z, fa & !mb.get(&z).copied().unwrap_or(0)))
            .filter(|(_, f)| *f != 0)
            .collect();
        prop_assert!(d.points().windows(2).all(|w| w[0].z < w[1].z));
        let got: BTreeMap<u64, u8> = d.iter().map(|p| (p.z, p.flags.0)).collect();
        prop_assert_eq!(got, want);
    }

    /// The two-way merge hands out every element of both sides once, in key
    /// order: one-sided runs hold keys the other side lacks, and no run
    /// follows one of the same side (runs are maximal). The k-way merge
    /// visits every key of any slice once, in order, with each slice's
    /// element there.
    #[test]
    fn merges_visit_every_key_once_in_order(
        a in prop::collection::vec((0u64..256, 1u8..=3), 0..80),
        b in prop::collection::vec((0u64..256, 1u8..=3), 0..80),
        c in prop::collection::vec((0u64..256, 1u8..=3), 0..80),
    ) {
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));
        // Each step as (side, its left elements, its right elements).
        let mut steps: Vec<(u8, Vec<Point>, Vec<Point>)> = vec![];
        merge(sa.points(), sb.points(), |m| {
            steps.push(match m {
                Merged::Left(run) => (1, run.to_vec(), vec![]),
                Merged::Right(run) => (2, vec![], run.to_vec()),
                Merged::Both(l, r) => (3, vec![*l], vec![*r]),
            })
        });
        let (ma, mb) = (model(&a), model(&b));
        for (i, (side, l, r)) in steps.iter().enumerate() {
            prop_assert!(!(l.is_empty() && r.is_empty()));
            prop_assert!(*side == 3 || i == 0 || steps[i - 1].0 != *side, "a run is not maximal");
            prop_assert!(l.iter().all(|p| (*side == 3) == mb.contains_key(&p.z)));
            prop_assert!(r.iter().all(|p| (*side == 3) == ma.contains_key(&p.z)));
        }
        let lefts: Vec<Point> = steps.iter().flat_map(|s| s.1.clone()).collect();
        let rights: Vec<Point> = steps.iter().flat_map(|s| s.2.clone()).collect();
        prop_assert_eq!(&lefts[..], sa.points());
        prop_assert_eq!(&rights[..], sb.points());
        let keys: Vec<u64> = steps.iter().map(|s| s.1.first().or(s.2.first()).unwrap().z).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));

        let sets = [&sa, &sb, &sc];
        let mut visited = vec![];
        merge_k(&sets.map(|s| s.points()), |z, heads| {
            for (set, head) in sets.iter().zip(heads) {
                assert_eq!(head.map(|p| p.flags), set.flags_of(z));
            }
            visited.push(z);
        });
        let want: Vec<u64> = sa.union(&sb).union(&sc).iter().map(|p| p.z).collect();
        prop_assert_eq!(visited, want);
    }

    /// Union and intersection survive an encode/decode round-trip: operating
    /// on decoded messages equals operating on the originals. This is the
    /// correctness core of ForwardJoinAttrValues / ForwardJoinFilter.
    #[test]
    fn wire_level_set_ops(
        a in prop::collection::vec((0u64..=255, 1u8..=3), 0..40),
        b in prop::collection::vec((0u64..=255, 1u8..=3), 0..40),
    ) {
        let shape = TreeShape::new(&[2, 2, 2, 2], 2);
        let (sa, sb) = (build(&a), build(&b));
        let da = decode(&encode(&sa, &shape), &shape).unwrap();
        let db = decode(&encode(&sb, &shape), &shape).unwrap();
        prop_assert_eq!(da.union(&db), sa.union(&sb));
        prop_assert_eq!(da.intersect(&db), sa.intersect(&sb));
    }

    /// Monotonicity: a subset never encodes larger than needed — specifically
    /// union(a, b) encodes within the sum of the parts plus the flat-list
    /// bound. (Regression guard against pathological cost decisions.)
    #[test]
    fn union_size_sanity(
        a in prop::collection::vec((0u64..=255, 1u8..=3), 1..40),
    ) {
        let shape = TreeShape::new(&[2, 2, 2, 2], 2);
        let sa = build(&a);
        // Self-union is idempotent and must not change the encoding.
        let u = sa.union(&sa);
        prop_assert_eq!(&u, &sa);
        prop_assert_eq!(encode(&u, &shape), encode(&sa, &shape));
    }
}

proptest! {
    /// contains_encoded on the wire format agrees with the decoded set's
    /// contains_matching for every queried cell.
    #[test]
    fn encoded_membership_agrees_with_decoded(
        pts in prop::collection::vec((0u64..=255, 1u8..=3), 0..50),
        queries in prop::collection::vec((0u64..=255, 1u8..=3), 1..20),
    ) {
        use sensjoin_quadtree::contains_encoded;
        let shape = TreeShape::new(&[2, 2, 2, 2], 2);
        let set = build(&pts);
        let wire = encode(&set, &shape);
        for (z, f) in queries {
            let flags = RelFlags(f);
            prop_assert_eq!(
                contains_encoded(&wire, &shape, z, flags).unwrap(),
                set.contains_matching(z, flags),
                "z={} flags={:?}", z, flags
            );
        }
    }
}
