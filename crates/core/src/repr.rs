//! Wire representations of join-attribute tuple sets, and per-node query
//! data shared by every join method.

use crate::config::Representation;
use crate::engine::JoinSpace;
use crate::snetwork::SensorNetwork;
use sensjoin_compress::{Bwt, Codec, Lz77Huffman};
use sensjoin_quadtree::{encoded_wire_size, PointSet, RelFlags, TreeShape};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use std::collections::BTreeSet;

/// A point set in flight together with its quadtree wire size.
///
/// The in-network phases never need the encoded bitstring, only its length
/// (the paper's cost is bytes on the air), and a relay often forwards a set
/// exactly as it received it. So the size is computed by the quadtree size
/// kernel — never by encoding — the first time it is asked for, travels with
/// every clone, and is dropped only when the content changes: a set is
/// costed at most once per distinct content.
#[derive(Debug, Clone, Default)]
pub struct SizedSet {
    set: PointSet,
    /// Quadtree wire size of `set` in bytes, if already computed.
    bytes: Option<usize>,
}

impl SizedSet {
    /// Wraps a set whose size is not known yet.
    pub fn new(set: PointSet) -> Self {
        Self { set, bytes: None }
    }

    /// Unwraps the set.
    pub fn into_set(self) -> PointSet {
        self.set
    }

    /// Size of the set's quadtree encoding under `shape`, in bytes. A set
    /// only ever travels under one shape — its join space's.
    pub fn wire_size(&mut self, shape: &TreeShape) -> usize {
        *self
            .bytes
            .get_or_insert_with(|| encoded_wire_size(&self.set, shape))
    }

    /// Inserts one point (paper `Insert`).
    pub fn insert(&mut self, z: u64, flags: RelFlags) {
        if self.set.insert(z, flags) {
            self.bytes = None;
        }
    }

    /// Merges `other` in (paper `Union`).
    pub fn union_with(&mut self, other: &PointSet) {
        if other.is_empty() {
            return;
        }
        self.set = self.set.union(other);
        self.bytes = None;
    }
}

impl std::ops::Deref for SizedSet {
    type Target = PointSet;

    fn deref(&self) -> &PointSet {
        &self.set
    }
}

/// A join-attribute tuple set in flight (the paper's
/// `Join_Attr_Structure`).
///
/// The semantic content is always the point set; `raw` additionally
/// carries the naive byte serialization (quantized coordinates + flags, in
/// contribution order, duplicates preserved) that the [`Representation::Raw`]
/// and compressed variants of §VI-B transmit.
#[derive(Debug, Clone)]
pub struct JoinAttrMsg {
    /// Deduplicated cells with relation flags.
    pub set: SizedSet,
    /// Naive serialization; `None` for a message built to travel as a
    /// quadtree, which never transmits it.
    pub raw: Option<Vec<u8>>,
}

impl JoinAttrMsg {
    /// An empty message that will be sized under `repr`.
    pub fn new(repr: Representation) -> Self {
        Self {
            set: SizedSet::default(),
            raw: (repr != Representation::Quadtree).then(Vec::new),
        }
    }

    /// Merges another message into this one (paper `Union`).
    pub fn merge(&mut self, other: &JoinAttrMsg) {
        self.set.union_with(&other.set);
        if let (Some(raw), Some(more)) = (&mut self.raw, &other.raw) {
            raw.extend_from_slice(more);
        }
    }

    /// Inserts one node's point (paper `Insert`): the Z-number with its
    /// relation flags, plus the raw serialization of its coordinates.
    pub fn insert(&mut self, z: u64, flags: RelFlags, coords: &[u64]) {
        self.set.insert(z, flags);
        if let Some(raw) = &mut self.raw {
            for &c in coords {
                raw.extend_from_slice(&(c as u16).to_le_bytes());
            }
            raw.push(flags.0);
        }
    }

    /// Size on the wire under `repr`, in bytes.
    ///
    /// # Panics
    ///
    /// If `repr` needs the raw serialization and the message was built
    /// ([`JoinAttrMsg::new`]) for the quadtree representation.
    pub fn wire_size(&mut self, repr: Representation, shape: &TreeShape) -> usize {
        let raw = || self.raw.as_deref().expect("built for a raw representation");
        match repr {
            Representation::Quadtree => self.set.wire_size(shape),
            Representation::Raw => raw().len(),
            Representation::Zlib => Lz77Huffman.compress(raw()).len(),
            Representation::Bzip2 => Bwt.compress(raw()).len(),
        }
    }

    /// Serializes a point set into the raw format (used for filter messages
    /// under non-quadtree representations).
    pub fn raw_of_set(set: &PointSet, space: &JoinSpace) -> Vec<u8> {
        let mut out = Vec::with_capacity(set.len() * (space.zspace().arity() * 2 + 1));
        for p in set.iter() {
            for c in space.zspace().decode(p.z) {
                out.extend_from_slice(&(c as u16).to_le_bytes());
            }
            out.push(p.flags.0);
        }
        out
    }

    /// Wire size of a filter under `repr`, for a set that is sized once
    /// (one that is forwarded travels as a [`SizedSet`]).
    pub fn filter_wire_size(set: &PointSet, repr: Representation, space: &JoinSpace) -> usize {
        match repr {
            Representation::Quadtree => encoded_wire_size(set, space.shape()),
            Representation::Raw => Self::raw_of_set(set, space).len(),
            Representation::Zlib => Lz77Huffman.compress(&Self::raw_of_set(set, space)).len(),
            Representation::Bzip2 => Bwt.compress(&Self::raw_of_set(set, space)).len(),
        }
    }
}

/// A complete tuple in flight: the origin node's master-aligned values plus
/// everything the protocols need to route and filter it.
#[derive(Debug, Clone)]
pub struct FullRec {
    /// Producing node.
    pub origin: NodeId,
    /// Relation-membership flags (after local predicates).
    pub flags: RelFlags,
    /// Master-schema-aligned values.
    pub values: Vec<f64>,
    /// Wire size of the projected tuple in bytes.
    pub bytes: usize,
    /// Quantized join-attribute cell (Z-number in the query's join space).
    pub z: u64,
    /// The quantized per-dimension coordinates (for raw serialization).
    pub coords: Vec<u64>,
}

/// Everything a node knows locally about the query: computed once per
/// execution and shared by SENS-Join and the external join (both apply the
/// same early selection and projection).
#[derive(Debug, Clone)]
pub struct NodeData {
    /// The node's tuple, if it belongs to at least one relation and passes
    /// that relation's local predicates.
    pub rec: Option<FullRec>,
}

/// Computes [`NodeData`] for every node.
pub fn collect_node_data(
    snet: &SensorNetwork,
    query: &CompiledQuery,
    space: &JoinSpace,
) -> Vec<NodeData> {
    let master = snet.master_schema().clone();
    (0..snet.len() as u32)
        .map(NodeId)
        .map(|node| {
            let per_rel: Vec<Option<Vec<f64>>> = (0..query.num_relations())
                .map(|r| {
                    let schema = query.schema(r);
                    if snet.belongs(node, schema.name()) {
                        let v = snet.values_for(node, schema);
                        query.eval_local(r, &v).then_some(v)
                    } else {
                        None
                    }
                })
                .collect();
            let mut flags = 0u8;
            for (r, v) in per_rel.iter().enumerate() {
                if v.is_some() {
                    flags |= space.flag(r).0;
                }
            }
            if flags == 0 {
                return NodeData { rec: None };
            }
            // Wire size: the union of referenced attributes across member
            // relations (deduplicated by master attribute name — the paper's
            // "the join attributes usually overlap ... we avoid sending
            // attribute values redundantly" applied to complete tuples).
            let mut names: BTreeSet<&str> = BTreeSet::new();
            for (r, v) in per_rel.iter().enumerate() {
                if v.is_some() {
                    for &a in query.referenced_attrs(r) {
                        names.insert(query.schema(r).attrs()[a].name());
                    }
                }
            }
            let bytes: usize = names
                .iter()
                .map(|n| {
                    let i = master.index_of(n).expect("validated attribute");
                    master.attrs()[i].wire_size()
                })
                .sum();
            let dim_values = space.dim_values(query, &per_rel);
            let coords: Vec<u64> = space
                .zspace()
                .dims()
                .iter()
                .zip(&dim_values)
                .map(|(d, v)| v.map_or(0, |v| d.coordinate(v)))
                .collect();
            let z = space.zspace().encode_cells(&coords);
            NodeData {
                rec: Some(FullRec {
                    origin: node,
                    flags: RelFlags(flags),
                    values: snet.readings(node).to_vec(),
                    bytes,
                    z,
                    coords,
                }),
            }
        })
        .collect()
}

/// Projects a master-aligned row onto a relation schema (by name).
pub fn project_to_schema(
    master: &sensjoin_relation::Schema,
    schema: &sensjoin_relation::Schema,
    values: &[f64],
) -> Vec<f64> {
    schema
        .attrs()
        .iter()
        .map(|a| values[master.index_of(a.name()).expect("validated attribute")])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SensJoinConfig;
    use crate::snetwork::SensorNetworkBuilder;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    fn setup() -> (SensorNetwork, CompiledQuery, JoinSpace) {
        let snet = SensorNetworkBuilder::new()
            .area(Area::new(250.0, 250.0))
            .placement(Placement::UniformRandom { n: 60 })
            .seed(3)
            .build()
            .unwrap();
        let q = parse(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.2 ONCE",
        )
        .unwrap();
        let cq = snet.compile(&q).unwrap();
        let space = JoinSpace::build(&cq, &snet, &SensJoinConfig::default());
        (snet, cq, space)
    }

    #[test]
    fn node_data_sizes() {
        let (snet, cq, space) = setup();
        let data = collect_node_data(&snet, &cq, &space);
        assert_eq!(data.len(), snet.len());
        for d in &data {
            let rec = d.rec.as_ref().expect("homogeneous: every node contributes");
            // Referenced: temp (join) + hum (select) = 2 attrs x 2 bytes.
            assert_eq!(rec.bytes, 4);
            assert_eq!(rec.flags, RelFlags::BOTH); // self-join membership
            assert_eq!(rec.coords.len(), space.zspace().arity());
        }
    }

    #[test]
    fn msg_sizes_by_representation() {
        let (snet, cq, space) = setup();
        let data = collect_node_data(&snet, &cq, &space);
        let mut msg = JoinAttrMsg::new(Representation::Raw);
        for d in &data {
            let rec = d.rec.as_ref().unwrap();
            msg.insert(rec.z, rec.flags, &rec.coords);
        }
        let quad = msg.wire_size(Representation::Quadtree, space.shape());
        let raw = msg.wire_size(Representation::Raw, space.shape());
        let zlib = msg.wire_size(Representation::Zlib, space.shape());
        // Raw: 60 nodes x (1 dim x 2 bytes + 1 flag byte).
        assert_eq!(raw, 60 * 3);
        // The quadtree representation is far smaller on correlated data.
        assert!(quad < raw, "quadtree {quad} !< raw {raw}");
        assert!(zlib > 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = JoinAttrMsg::new(Representation::Raw);
        a.insert(5, RelFlags::A, &[5]);
        let mut b = JoinAttrMsg::new(Representation::Raw);
        b.insert(5, RelFlags::B, &[5]);
        b.insert(9, RelFlags::B, &[9]);
        a.merge(&b);
        assert_eq!(a.set.len(), 2);
        assert_eq!(a.set.flags_of(5), Some(RelFlags::BOTH));
        // Raw stream keeps duplicates (naive baseline semantics).
        assert_eq!(a.raw.unwrap().len(), 3 * 3);
        // A message bound for the quadtree encoding carries no raw stream.
        let mut q = JoinAttrMsg::new(Representation::Quadtree);
        q.insert(5, RelFlags::A, &[5]);
        q.merge(&b);
        assert_eq!((q.set.len(), q.raw), (2, None));
    }

    #[test]
    fn filter_serialization_roundtrips_size() {
        let (_, _, space) = setup();
        let mut set = PointSet::new();
        set.insert(3, RelFlags::A);
        set.insert(7, RelFlags::BOTH);
        let raw = JoinAttrMsg::raw_of_set(&set, &space);
        assert_eq!(raw.len(), 2 * (space.zspace().arity() * 2 + 1));
        assert!(JoinAttrMsg::filter_wire_size(&set, Representation::Quadtree, &space) > 0);
    }
}
