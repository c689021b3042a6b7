//! The per-node query table against the per-node derivation it replaces,
//! spelled out through public functions: `belongs` → `values_for` →
//! `eval_local` give a node's member relations, `dim_values` →
//! `encode_cells` its cell, and the union of the member relations'
//! referenced attributes (by master attribute name) its tuple size.

use sensjoin_core::{
    JoinSpace, NodeTable, Representation, SensJoinConfig, SensorNetwork, SensorNetworkBuilder,
};
use sensjoin_field::{Area, Placement};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::{AttrType, Attribute, NodeId, Schema, SensorRelation};
use std::collections::BTreeSet;

const N: u32 = 150;

/// Three relations with different schemas over overlapping node groups, so
/// that nodes carry every flag pattern from none to all three.
fn heterogeneous(seed: u64) -> SensorNetwork {
    let schema = |name: &str, attrs: &[(&str, AttrType)]| {
        let attrs = attrs.iter().map(|&(a, ty)| Attribute::new(a, ty));
        Schema::new(name, attrs.collect())
    };
    let (m, c, pct) = (AttrType::Meters, AttrType::Celsius, AttrType::Percent);
    let warm = schema("Warm", &[("x", m), ("y", m), ("temp", c), ("hum", pct)]);
    let bright = schema(
        "Bright",
        &[
            ("temp", c),
            ("light", AttrType::Lux),
            ("pres", AttrType::Hectopascal),
        ],
    );
    let low = schema("Low", &[("pres", AttrType::Hectopascal), ("hum", pct)]);
    let every = |step: usize, from: u32| (from..N).step_by(step).map(NodeId);
    SensorNetworkBuilder::new()
        .area(Area::new(400.0, 400.0))
        .placement(Placement::UniformRandom { n: N as usize })
        .seed(seed)
        .relations(vec![
            SensorRelation::over_nodes(warm, every(2, 0)),
            SensorRelation::over_nodes(bright, every(3, 0)),
            SensorRelation::over_nodes(low, every(5, 1).chain(every(4, 0))),
        ])
        .build()
        .unwrap()
}

const SQL: &str = "SELECT W.hum, B.light, L.hum FROM Warm W, Bright B, Low L \
                   WHERE W.temp - B.temp > 0.5 AND |B.pres - L.pres| < 1.0 \
                   AND W.hum > 41.5 ONCE";

/// What one node knows about the query, the long way round.
struct Derived {
    flags: u8,
    z: u64,
    bytes: u32,
    coords: Vec<u64>,
    per_rel: Vec<Option<Vec<f64>>>,
}

fn derive(snet: &SensorNetwork, cq: &CompiledQuery, space: &JoinSpace, node: NodeId) -> Derived {
    let per_rel: Vec<Option<Vec<f64>>> = (0..cq.num_relations())
        .map(|r| {
            let schema = cq.schema(r);
            let member = snet.belongs(node, schema.name());
            let values = member.then(|| snet.values_for(node, schema));
            values.filter(|v| cq.eval_local(r, v))
        })
        .collect();
    let members = || (0..cq.num_relations()).filter(|&r| per_rel[r].is_some());
    let flags = members().fold(0, |f, r| f | space.flag(r).0);
    let names: BTreeSet<&str> = members()
        .flat_map(|r| {
            let attrs = cq.schema(r).attrs();
            cq.referenced_attrs(r).iter().map(|&a| attrs[a].name())
        })
        .collect();
    let master = snet.master_schema();
    let size = |name: &&str| master.attrs()[master.index_of(name).unwrap()].wire_size();
    let dim_values = space.dim_values(cq, &per_rel);
    let dims = space.zspace().dims().iter().zip(&dim_values);
    let coords: Vec<u64> = dims
        .map(|(d, v)| v.map_or(0, |v| d.coordinate(v)))
        .collect();
    let z = space.zspace().encode_cells(&coords);
    assert_eq!(z, space.encode(&dim_values));
    Derived {
        flags,
        z,
        bytes: names.iter().map(size).sum::<usize>() as u32,
        coords,
        per_rel,
    }
}

#[test]
fn every_node_equals_its_public_derivation() {
    let mut patterns = BTreeSet::new();
    for seed in 1..=6 {
        let snet = heterogeneous(seed);
        let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
        assert!(!cq.local_preds(0).is_empty() && cq.num_relations() == 3);
        let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
        // The table stores its columns in the topology's order, which on
        // random positions is not the id order every lookup here goes by.
        let slot_of = snet.net().topology().slot_of();
        assert!(!slot_of.iter().copied().eq(0..N), "seed {seed}");
        for repr in [
            Representation::Quadtree,
            Representation::Raw,
            Representation::Zlib,
            Representation::Bzip2,
        ] {
            let table = NodeTable::build(&snet, &cq, &space, repr);
            let mut with_tuple = Vec::new();
            for node in (0..N).map(NodeId) {
                let want = derive(&snet, &cq, &space, node);
                patterns.insert(want.flags);
                let rec = table.rec(node);
                assert_eq!(rec.flags.0, want.flags, "seed {seed} {repr:?} {node}");
                if want.flags == 0 {
                    assert_eq!(table.tuple(node), None, "seed {seed} {repr:?} {node}");
                } else {
                    assert_eq!(table.tuple(node), Some(rec));
                    assert_eq!(
                        (rec.z, rec.bytes),
                        (want.z, want.bytes),
                        "seed {seed} {node}"
                    );
                    with_tuple.push(node);
                    let serialized = repr != Representation::Quadtree;
                    let coords = if serialized { &want.coords[..] } else { &[] };
                    assert_eq!(table.coords(node), coords, "seed {seed} {repr:?} {node}");
                }
                for (r, values) in want.per_rel.iter().enumerate() {
                    assert_eq!(&table.project(&snet, node, r), values, "seed {seed} {node}");
                }
            }
            let listed: Vec<NodeId> = table.tuples().map(|(v, _)| v).collect();
            assert_eq!(listed, with_tuple, "seed {seed} {repr:?}");
        }
    }
    // The catalog and the local predicate produced the patterns this is about.
    assert!(patterns.len() >= 7, "flag patterns seen: {patterns:?}");
}
