//! Wire representations of join-attribute tuple sets, and the per-node
//! query table shared by every join method: per node a cell and flags,
//! shared by the queries of one collection class, and per query and flag
//! pattern the tuple's bytes, built by a projector that resolves every name
//! once per query.

use crate::config::Representation;
use crate::engine::JoinSpace;
use crate::snetwork::SensorNetwork;
use sensjoin_compress::{Bwt, Codec, Lz77Huffman};
use sensjoin_quadtree::{encoded_wire_size, PointSet, RelFlags, TreeShape};
use sensjoin_query::{CompiledQuery, Pred};
use sensjoin_relation::{NodeId, TupleBatch};
use std::sync::Arc;

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

/// One relation of a query resolved against the master schema, once.
#[derive(Debug, Clone, PartialEq)]
struct RelColumns {
    flag: RelFlags,
    /// The relation's schema as master columns.
    schema: Vec<usize>,
    /// `(master column, join-space dimension)` per join attribute.
    dims: Vec<(usize, usize)>,
}

/// Every relation of `query` resolved against `snet`'s master schema.
fn resolve(snet: &SensorNetwork, query: &CompiledQuery, space: &JoinSpace) -> Vec<RelColumns> {
    (0..query.num_relations())
        .map(|r| {
            let schema = snet.master_columns(query.schema(r));
            let attrs = query.join_attrs(r).iter();
            RelColumns {
                flag: space.flag(r),
                dims: attrs.map(|&a| schema[a]).zip(space.dims_of(r)).collect(),
                schema,
            }
        })
        .collect()
}

/// One node's local view of a query: what the paper's protocol needs of it
/// (Fig. 2/3, §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRec {
    /// Quantized join-attribute cell (Z-number in the query's join space).
    pub z: u64,
    /// Wire size of the projected tuple in bytes.
    pub bytes: u32,
    /// Relation-membership flags after local predicates; empty = the node
    /// has no tuple for the query.
    pub flags: RelFlags,
}

/// What [`NodeTable::build`] reads of a query to set a node's cell, flags
/// and coordinates, beyond the join space's signature: per relation the
/// catalog relation, its schema and join attributes as master columns (with
/// their dimensions) and its local predicates. Queries whose keys are equal
/// and whose spaces have equal signatures get equal [`CellTable`]s.
#[derive(Debug, PartialEq)]
pub(crate) struct CellKey<'q> {
    rels: Vec<(&'q str, RelColumns, &'q [Pred])>,
}

/// Every node's quantized cell and relation flags for a query — all a
/// collection wave reads of it — stored in the topology's storage order
/// ([`sensjoin_sim::Topology::slot_of`]): a wave reads them for a node and
/// the tuples it proxies, which are its radio neighborhood. The queries of
/// one collection class share one ([`NodeTable::with_cells`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CellTable {
    /// Node `v`'s entries are at `slot_of[v]`.
    slot_of: Arc<[u32]>,
    /// Per node: its Z-number and flags (empty: no tuple, Z-number 0).
    cells: Vec<(u64, RelFlags)>,
    /// Quantized per-dimension coordinates, `stride` per node: the space's
    /// arity under the representations that serialize them, 0 under the
    /// quadtree.
    coords: Vec<u64>,
    stride: usize,
}

impl CellTable {
    /// Projects every node onto `query`'s relations `rels`: membership and
    /// local predicates give the flags, the member relations' join
    /// attributes the cell.
    fn build(
        snet: &SensorNetwork,
        query: &CompiledQuery,
        space: &JoinSpace,
        rels: &[RelColumns],
        repr: Representation,
    ) -> Self {
        // The catalog relation deciding membership (`None`: nobody belongs).
        let members: Vec<_> = (0..rels.len())
            .map(|r| snet.relation(query.schema(r).name()))
            .collect();
        let zspace = space.zspace();
        let mut cell = vec![0u64; zspace.arity()];
        let serialized = repr != Representation::Quadtree;
        let stride = if serialized { cell.len() } else { 0 };
        let slot_of = Arc::clone(snet.net().topology().slot_of());
        let mut cells = vec![(0, RelFlags(0)); snet.len()];
        let mut coords = vec![0u64; snet.len() * stride];
        let mut values: Vec<f64> = Vec::new();
        for node in (0..snet.len() as u32).map(NodeId) {
            let row = snet.readings(node);
            let mut flags = 0u8;
            for (r, rel) in rels.iter().enumerate() {
                if !members[r].is_some_and(|m| m.contains(node)) {
                    continue;
                }
                if !query.local_preds(r).is_empty() {
                    values.clear();
                    values.extend(rel.schema.iter().map(|&c| row[c]));
                    if !query.eval_local(r, &values) {
                        continue;
                    }
                }
                flags |= rel.flag.0;
            }
            // A dimension no member relation covers encodes as cell 0 (and a
            // node without a tuple as Z-number 0).
            cell.fill(0);
            for rel in rels.iter().filter(|rel| flags & rel.flag.0 != 0) {
                for &(col, d) in &rel.dims {
                    cell[d] = zspace.dims()[d].coordinate(row[col]);
                }
            }
            let slot = slot_of[node.0 as usize] as usize;
            cells[slot] = (zspace.encode_cells(&cell), RelFlags(flags));
            coords[slot * stride..][..stride].copy_from_slice(&cell[..stride]);
        }
        Self {
            slot_of,
            cells,
            coords,
            stride,
        }
    }

    /// Where node `v`'s entries live.
    fn at(&self, v: NodeId) -> usize {
        self.slot_of[v.0 as usize] as usize
    }

    /// Node `v`'s Z-number and flags.
    fn cell(&self, v: NodeId) -> (u64, RelFlags) {
        self.cells[self.at(v)]
    }

    /// Node `v`'s Z-number and flags, if it has a tuple for the query.
    pub fn tuple(&self, v: NodeId) -> Option<(u64, RelFlags)> {
        let cell = self.cell(v);
        (!cell.1.is_empty()).then_some(cell)
    }

    /// Node `v`'s quantized per-dimension coordinates ([`NodeTable::coords`]).
    pub fn coords(&self, v: NodeId) -> &[u64] {
        &self.coords[self.at(v) * self.stride..][..self.stride]
    }
}

/// Every node's [`NodeRec`] for one query, computed once per execution and
/// shared by SENS-Join and the baselines (all apply the same early selection
/// and projection). Tuple *values* are not copied: whoever joins reads
/// [`SensorNetwork::readings`] of the origins that arrived
/// ([`NodeTable::tuples_per_rel`]).
///
/// A node's cell and flags are in a `CellTable`, which the queries of one
/// collection class share; the table itself holds only what is the query's
/// own — its relations' schema columns and, per flag pattern, the master
/// columns a tuple ships and their wire size.
#[derive(Debug, Clone)]
pub struct NodeTable {
    cells: Arc<CellTable>,
    rels: Vec<RelColumns>,
    /// Per flag pattern: the master columns its member relations reference,
    /// as a bitset of `words` words (any master-schema width).
    cols: Vec<u64>,
    words: usize,
    /// Per flag pattern: the summed wire size of its columns, in bytes.
    bytes: Vec<u32>,
}

impl NodeTable {
    /// Projects every node onto `query`: membership and local predicates
    /// give the flags, the member relations' join attributes the cell, and
    /// the union of their referenced attributes (deduplicated by master
    /// column — the paper's "we avoid sending attribute values redundantly"
    /// applied to complete tuples) the wire size.
    pub fn build(
        snet: &SensorNetwork,
        query: &CompiledQuery,
        space: &JoinSpace,
        repr: Representation,
    ) -> Self {
        let rels = resolve(snet, query, space);
        let cells = CellTable::build(snet, query, space, &rels, repr);
        Self::over(snet, query, rels, Arc::new(cells))
    }

    /// The table of `query`, whose cells are `cells`: those of a query of
    /// the same collection class ([`NodeTable::cell_key`]).
    pub(crate) fn with_cells(
        snet: &SensorNetwork,
        query: &CompiledQuery,
        space: &JoinSpace,
        cells: &Arc<CellTable>,
    ) -> Self {
        Self::over(snet, query, resolve(snet, query, space), Arc::clone(cells))
    }

    /// The table over `rels` and `cells`: per flag pattern, the referenced
    /// columns and their summed wire size.
    fn over(
        snet: &SensorNetwork,
        query: &CompiledQuery,
        rels: Vec<RelColumns>,
        cells: Arc<CellTable>,
    ) -> Self {
        let master = snet.master_schema().attrs();
        let words = master.len().div_ceil(64);
        let mut cols = vec![0u64; words << rels.len()];
        let mut bytes = vec![0u32; 1 << rels.len()];
        for (pattern, set) in cols.chunks_exact_mut(words).enumerate() {
            for (r, rel) in rels.iter().enumerate() {
                if pattern as u8 & rel.flag.0 != 0 {
                    for &a in query.referenced_attrs(r) {
                        set[rel.schema[a] / 64] |= 1 << (rel.schema[a] % 64);
                    }
                }
            }
            bytes[pattern] = columns(set).map(|c| master[c].wire_size() as u32).sum();
        }
        Self {
            cells,
            rels,
            cols,
            words,
            bytes,
        }
    }

    /// What [`NodeTable::build`] reads of `query` besides its space.
    pub(crate) fn cell_key<'q>(
        snet: &SensorNetwork,
        query: &'q CompiledQuery,
        space: &JoinSpace,
    ) -> CellKey<'q> {
        let rels = resolve(snet, query, space).into_iter().enumerate();
        CellKey {
            rels: rels
                .map(|(r, rel)| (query.schema(r).name(), rel, query.local_preds(r)))
                .collect(),
        }
    }

    /// The nodes' cells and flags.
    pub(crate) fn cells(&self) -> &Arc<CellTable> {
        &self.cells
    }

    /// Node `v`'s record; its `flags` are empty if it has no tuple.
    pub fn rec(&self, v: NodeId) -> NodeRec {
        let (z, flags) = self.cells.cell(v);
        NodeRec {
            z,
            bytes: self.bytes[flags.0 as usize],
            flags,
        }
    }

    /// Node `v`'s record, if it has a tuple for the query.
    pub fn tuple(&self, v: NodeId) -> Option<NodeRec> {
        let rec = self.rec(v);
        (!rec.flags.is_empty()).then_some(rec)
    }

    /// Every node that has a tuple for the query, ascending, with its record.
    pub fn tuples(&self) -> impl Iterator<Item = (NodeId, NodeRec)> + '_ {
        let recs = (0..self.cells.cells.len() as u32)
            .map(NodeId)
            .map(|v| (v, self.rec(v)));
        recs.filter(|(_, rec)| !rec.flags.is_empty())
    }

    /// Node `v`'s quantized per-dimension coordinates (the raw
    /// serialization's input); empty if the table was built for the quadtree
    /// representation, which never transmits them.
    pub fn coords(&self, v: NodeId) -> &[u64] {
        self.cells.coords(v)
    }

    /// The master columns a tuple with `flags` ships, as a bitset.
    pub(crate) fn columns_of(&self, flags: RelFlags) -> &[u64] {
        &self.cols[flags.0 as usize * self.words..][..self.words]
    }

    /// `origin`'s tuple of relation `rel`, projected from its readings onto
    /// the relation's schema; `None` if its flags exclude the relation.
    pub fn project(&self, snet: &SensorNetwork, origin: NodeId, rel: usize) -> Option<Vec<f64>> {
        let (rel, row) = (&self.rels[rel], snet.readings(origin));
        let belongs = self.cells.cell(origin).1.intersects(rel.flag);
        belongs.then(|| rel.schema.iter().map(|&c| row[c]).collect())
    }

    /// The base station's join input from the tuples that arrived: per
    /// relation, every origin whose flags include it, in arrival order, in
    /// one batch built in one pass. Each batch is reserved once, for as many
    /// tuples as `origins` says it may yield.
    pub fn tuples_per_rel(
        &self,
        snet: &SensorNetwork,
        origins: impl IntoIterator<Item = NodeId>,
    ) -> Vec<TupleBatch> {
        let origins = origins.into_iter();
        let (least, most) = origins.size_hint();
        let room = most.unwrap_or(least);
        let batch = |rel: &RelColumns| TupleBatch::with_capacity(rel.schema.len(), room);
        let mut batches: Vec<TupleBatch> = self.rels.iter().map(batch).collect();
        for origin in origins {
            let (flags, row) = (self.cells.cell(origin).1, snet.readings(origin));
            for (rel, batch) in self.rels.iter().zip(&mut batches) {
                if flags.intersects(rel.flag) {
                    batch.push_from(origin, rel.schema.iter().map(|&c| row[c]));
                }
            }
        }
        batches
    }
}

/// Complete tuples on their way up a tree: entries that name their origin,
/// the bytes they cost on this link, and — in an epoch of k > 1 queries —
/// what each query alone would pay for them.
pub(crate) struct Shipment<E> {
    pub entries: Vec<E>,
    pub bytes: usize,
    /// Per query, the summed solo tuple sizes of `entries` — empty at k = 1
    /// (where `bytes` is that sum) and while there are no entries.
    pub solo: Vec<u64>,
}

impl<E> Shipment<E> {
    /// The children's shipments as one, in arrival order: the first one
    /// that carries anything is the accumulator the rest are appended to.
    pub fn merged(received: impl IntoIterator<Item = Self>) -> Self {
        let mut all = Self {
            entries: Vec::new(),
            bytes: 0,
            solo: Vec::new(),
        };
        for mut more in received {
            if all.entries.is_empty() {
                all = more;
                continue;
            }
            all.entries.append(&mut more.entries);
            all.bytes += more.bytes;
            for (sum, more) in all.solo.iter_mut().zip(more.solo) {
                *sum += more;
            }
        }
        all
    }

    /// Per query, what the query alone would pay to forward this message.
    pub fn solo_bytes(&self) -> impl Iterator<Item = u64> + '_ {
        let own = self.solo.is_empty().then_some(self.bytes as u64);
        own.into_iter().chain(self.solo.iter().copied())
    }
}

/// The set bits of a column bitset, ascending.
pub(crate) fn columns(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let rest = |word: u64| (word != 0).then_some(word);
        std::iter::successors(rest(word), move |&word| rest(word & (word - 1)))
            .map(move |word| w * 64 + word.trailing_zeros() as usize)
    })
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
        let table = NodeTable::build(&snet, &cq, &space, Representation::Raw);
        // Homogeneous: every node contributes.
        assert_eq!(table.tuples().count(), snet.len());
        for (v, rec) in table.tuples() {
            // Referenced: temp (join) + hum (select) = 2 attrs x 2 bytes.
            assert_eq!(rec.bytes, 4);
            assert_eq!(rec.flags, RelFlags::BOTH); // self-join membership
            assert_eq!(table.coords(v).len(), space.zspace().arity());
        }
        // The quadtree representation never serializes coordinates.
        let quad = NodeTable::build(&snet, &cq, &space, Representation::Quadtree);
        assert_eq!(quad.coords(NodeId(0)), &[] as &[u64]);
        assert_eq!(quad.rec(NodeId(0)), table.rec(NodeId(0)));
    }

    #[test]
    fn msg_sizes_by_representation() {
        let (snet, cq, space) = setup();
        let table = NodeTable::build(&snet, &cq, &space, Representation::Raw);
        let mut msg = JoinAttrMsg::new(Representation::Raw);
        for (v, rec) in table.tuples() {
            msg.insert(rec.z, rec.flags, table.coords(v));
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
