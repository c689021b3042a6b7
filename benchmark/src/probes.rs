//! Shadow probes: a layer's public functions called standalone on a
//! workload's own network and query.
//!
//! `SensJoin::execute` is one opaque call from outside, so its layers are
//! measured beside it: the probes below redo, through public functions
//! only, the base-station work (`JoinSpace::build`, per-node quantization,
//! `prejoin_filter`, `exact_join`) and the quadtree work of the two
//! in-network phases (a shadow convergecast along the real routing tree,
//! with Treecut and the filter-memory cap applied as the protocol applies
//! them). What `execute` costs beyond their sum is the wave engine's own
//! time — message scheduling, fragmentation, statistics and battery
//! charging — reported as `core.wave.residual_ms`, never dropped.

use crate::report::Metrics;
use crate::workloads::{median_ms, DEPLOYMENT_SEED};
use sensjoin::core::{
    exact_join, prejoin_filter, JoinMethod, JoinSpace, SensJoin, SensJoinConfig, SensorNetwork,
};
use sensjoin::field::FieldSpec;
use sensjoin::quadtree::{decode, encode, EncodedTree, PointSet, RelFlags};
use sensjoin::query::{parse, CompiledQuery};
use sensjoin::relation::NodeId;
use sensjoin::sim::{RoutingTree, Topology};
use sensjoin_simd::{band_mask, CmpKind, MaskForm};
use std::time::{Duration, Instant};

/// Where one `SensJoin::execute` spends its time, in ms: the shadow-probed
/// layers and the residual that is the wave engine's.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    pub execute: f64,
    pub joinspace: f64,
    pub quantize: f64,
    pub quadtree: f64,
    pub prejoin: f64,
    pub exact_join: f64,
}

impl Breakdown {
    /// `execute` minus every probed layer. Slightly negative where the
    /// probes, which run outside `execute` on colder caches, overshoot it.
    pub fn residual(&self) -> f64 {
        residual(
            self.execute,
            &[
                self.joinspace,
                self.quantize,
                self.quadtree,
                self.prejoin,
                self.exact_join,
            ],
        )
    }

    /// Ledger rows that partition `execute`; an overshoot shows as zero.
    pub fn ledger(&self, rows: &mut Vec<(String, f64)>) {
        rows.push(("zorder".into(), self.quantize));
        rows.push(("quadtree".into(), self.quadtree));
        rows.push((
            "core.engine".into(),
            self.joinspace + self.prejoin + self.exact_join,
        ));
        rows.push(("core.wave".into(), self.residual().max(0.0)));
    }
}

/// A span's time not explained by the probes of its parts.
pub fn residual(whole: f64, parts: &[f64]) -> f64 {
    whole - parts.iter().sum::<f64>()
}

/// One node's contribution to the collection phase: its quantization cell
/// and the relations it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Own {
    pub z: u64,
    pub flags: RelFlags,
}

/// A timer with a work count: total time and the points it covered.
#[derive(Default)]
struct Meter {
    time: Duration,
    points: u64,
}

impl Meter {
    fn run<T>(&mut self, points: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.time += t0.elapsed();
        self.points += points as u64;
        out
    }

    fn ns_per_point(&self) -> f64 {
        self.time.as_nanos() as f64 / self.points.max(1) as f64
    }
}

/// Runs the probes of the one-shot family on `snet` and returns the
/// breakdown of one execution. `native_execute_ms` is the traced ops' own
/// `core.sensjoin.execute` span where the workload has one; otherwise the
/// execution is probed here, on a clone.
pub fn oneshot_family(
    snet: &SensorNetwork,
    sql: &str,
    specs: &[FieldSpec],
    native_execute_ms: Option<f64>,
    m: &mut Metrics,
) -> Breakdown {
    let n = snet.len();
    let parsed = parse(sql).expect("workload SQL parses");
    let cq = snet.compile(&parsed).expect("workload SQL compiles");
    m.set("query.parse_us", 1e3 * median_ms(25, || parse(sql)));
    m.set(
        "query.compile_us",
        1e3 * median_ms(25, || snet.compile(&parsed)),
    );

    let mut scratch = snet.clone();
    m.set(
        "field.resample_ms",
        median_ms(3, || scratch.resample(specs, DEPLOYMENT_SEED)),
    );

    let cfg = SensJoinConfig::default();
    let joinspace = median_ms(5, || JoinSpace::build(&cq, snet, &cfg));
    m.set("core.engine.joinspace_build_us", 1e3 * joinspace);
    let space = JoinSpace::build(&cq, snet, &cfg);

    let mut owns = Vec::new();
    let quantize = median_ms(3, || owns = quantize_all(snet, &cq, &space));
    m.set("zorder.quantize_ns_per_node", 1e6 * quantize / n as f64);

    // Collection phase of the quadtree shadow, the base station's pre-join
    // on what it collected, then the dissemination phase.
    let mut quad = QuadShadow::new(snet, &cq, &space, &cfg, &owns);
    let t0 = Instant::now();
    let collected = quad.collect();
    let mut quadtree = t0.elapsed().as_secs_f64() * 1e3;
    let prejoin = median_ms(3, || prejoin_filter(&cq, &space, &collected));
    m.set("core.engine.prejoin_filter_ms", prejoin);
    let filter = prejoin_filter(&cq, &space, &collected);
    let t0 = Instant::now();
    quad.disseminate(&filter);
    quadtree += t0.elapsed().as_secs_f64() * 1e3;
    quad.decode_all();
    m.set("quadtree.encode_ns_per_point", quad.encode.ns_per_point());
    m.set("quadtree.decode_ns_per_point", quad.decode.ns_per_point());
    m.set("quadtree.union_ns_per_point", quad.union.ns_per_point());
    m.set(
        "quadtree.intersect_ns_per_point",
        quad.intersect.ns_per_point(),
    );
    m.set(
        "quadtree.wire_bytes_per_point",
        quad.wire_bytes as f64 / quad.wire_points.max(1) as f64,
    );

    // Final phase: the tuples the filter lets through, joined exactly.
    let shipped: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
        .map(|r| {
            let flag = space.flag(r);
            owns.iter()
                .enumerate()
                .filter_map(|(v, own)| {
                    let own = own.as_ref()?;
                    (own.flags.intersects(flag) && filter.contains_matching(own.z, own.flags)).then(
                        || {
                            let v = NodeId(v as u32);
                            (v, snet.values_for(v, cq.schema(r)))
                        },
                    )
                })
                .collect()
        })
        .collect();
    let exact = median_ms(3, || exact_join(&cq, &shipped));
    let joined = exact_join(&cq, &shipped);
    m.set("core.engine.exact_join_ms", exact);
    m.set(
        "core.engine.rows_per_s",
        joined.result.len() as f64 / (exact / 1e3),
    );
    let mut origins: Vec<NodeId> = shipped.iter().flatten().map(|(v, _)| *v).collect();
    origins.sort_unstable();
    origins.dedup();
    m.set(
        "core.engine.filter_fp_share",
        1.0 - joined.contributors.len() as f64 / origins.len().max(1) as f64,
    );

    let execute = native_execute_ms.unwrap_or_else(|| {
        let mut clone = snet.clone();
        median_ms(3, || SensJoin::default().execute(&mut clone, &cq))
    });
    let breakdown = Breakdown {
        execute,
        joinspace,
        quantize,
        quadtree,
        prejoin,
        exact_join: exact,
    };
    m.set("core.sensjoin.execute_ms", execute);
    m.set("core.wave.residual_ms", breakdown.residual());
    m.set(
        "core.wave.ns_per_node_event",
        1e6 * breakdown.residual() / (3 * n) as f64,
    );

    simd_probe(snet, &cq, m);
    sim_probes(snet, m);
    breakdown
}

/// What `collect_node_data` does per node, through public functions: the
/// node's per-relation values, their join-space dimensions, the Z-number.
pub fn quantize_all(
    snet: &SensorNetwork,
    cq: &CompiledQuery,
    space: &JoinSpace,
) -> Vec<Option<Own>> {
    (0..snet.len() as u32)
        .map(NodeId)
        .map(|v| {
            let mut flags = 0u8;
            let per_rel: Vec<Option<Vec<f64>>> = (0..cq.num_relations())
                .map(|r| {
                    let schema = cq.schema(r);
                    if !snet.belongs(v, schema.name()) {
                        return None;
                    }
                    let vals = snet.values_for(v, schema);
                    cq.eval_local(r, &vals).then(|| {
                        flags |= space.flag(r).0;
                        vals
                    })
                })
                .collect();
            (flags != 0).then(|| Own {
                z: space.encode(&space.dim_values(cq, &per_rel)),
                flags: RelFlags(flags),
            })
        })
        .collect()
}

/// What a node sends up in the collection phase.
enum Up {
    /// Treecut: complete tuples, `bytes` on the wire.
    Tuples { bytes: usize, points: Vec<Own> },
    /// A join-attribute structure.
    Attrs(PointSet),
}

/// The quadtree work of one execution, redone along the real routing tree.
struct QuadShadow<'a> {
    routing: &'a RoutingTree,
    space: &'a JoinSpace,
    cfg: &'a SensJoinConfig,
    owns: &'a [Option<Own>],
    tuple_bytes: usize,
    /// Per node: the subtree synopsis it memorized for Selective Filter
    /// Forwarding (`None`: cut, or over the memory cap).
    memo: Vec<Option<PointSet>>,
    active: Vec<bool>,
    sent: Vec<(EncodedTree, usize)>,
    encode: Meter,
    decode: Meter,
    union: Meter,
    intersect: Meter,
    wire_bytes: u64,
    wire_points: u64,
}

impl<'a> QuadShadow<'a> {
    fn new(
        snet: &'a SensorNetwork,
        cq: &CompiledQuery,
        space: &'a JoinSpace,
        cfg: &'a SensJoinConfig,
        owns: &'a [Option<Own>],
    ) -> Self {
        // Every workload query reads one homogeneous relation under two
        // aliases, so a node's complete tuple is the union of the
        // attributes either alias references.
        let mut names = std::collections::BTreeSet::new();
        for r in 0..cq.num_relations() {
            for &a in cq.referenced_attrs(r) {
                let attr = &cq.schema(r).attrs()[a];
                names.insert((attr.name().to_owned(), attr.wire_size()));
            }
        }
        let n = snet.len();
        Self {
            routing: snet.net().routing(),
            space,
            cfg,
            owns,
            tuple_bytes: names.iter().map(|(_, size)| size).sum(),
            memo: vec![None; n],
            active: vec![false; n],
            sent: Vec::new(),
            encode: Meter::default(),
            decode: Meter::default(),
            union: Meter::default(),
            intersect: Meter::default(),
            wire_bytes: 0,
            wire_points: 0,
        }
    }

    fn wire(&mut self, set: &PointSet) -> EncodedTree {
        let shape = self.space.shape();
        self.encode.run(set.len(), || encode(set, shape))
    }

    /// Join-Attribute-Collection (paper Fig. 2): returns what reaches the
    /// base station.
    fn collect(&mut self) -> PointSet {
        let base = self.routing.base();
        let mut inbox: Vec<Option<Up>> = (0..self.memo.len()).map(|_| None).collect();
        for &v in self.routing.bottom_up_order() {
            let mut tuples = Vec::new();
            let mut tuple_bytes = 0;
            let mut merged: Option<PointSet> = None;
            for &c in self.routing.children(v) {
                match inbox[c.0 as usize].take() {
                    Some(Up::Tuples { bytes, mut points }) => {
                        tuple_bytes += bytes;
                        tuples.append(&mut points);
                    }
                    Some(Up::Attrs(set)) => {
                        merged = Some(match merged {
                            None => set,
                            Some(acc) => self.union.run(acc.len() + set.len(), || acc.union(&set)),
                        });
                    }
                    None => {}
                }
            }
            let own = self.owns[v.0 as usize];
            let own_bytes = own.map_or(0, |_| self.tuple_bytes);
            if v != base && merged.is_none() && tuple_bytes + own_bytes <= self.cfg.dmax {
                tuples.extend(own);
                inbox[v.0 as usize] = Some(Up::Tuples {
                    bytes: tuple_bytes + own_bytes,
                    points: tuples,
                });
                continue;
            }
            self.active[v.0 as usize] = true;
            let mut set = merged.unwrap_or_default();
            if self.cfg.selective_forwarding {
                let stored = self.wire(&set).wire_size();
                if v == base || stored <= self.cfg.filter_memory_limit {
                    self.memo[v.0 as usize] = Some(set.clone());
                }
            }
            for p in tuples.into_iter().chain(own) {
                set.insert(p.z, p.flags);
            }
            if v == base {
                return set;
            }
            let tree = self.wire(&set);
            self.wire_bytes += tree.wire_size() as u64;
            self.wire_points += set.len() as u64;
            self.sent.push((tree, set.len()));
            inbox[v.0 as usize] = Some(Up::Attrs(set));
        }
        unreachable!("the base station closes the bottom-up order")
    }

    /// Filter-Dissemination with Selective Filter Forwarding (paper Fig. 3).
    fn disseminate(&mut self, filter: &PointSet) {
        let base = self.routing.base();
        let mut forwarded: Vec<Option<PointSet>> = vec![None; self.memo.len()];
        for v in self.routing.top_down_order() {
            if !self.active[v.0 as usize] {
                continue;
            }
            let incoming = if v == base {
                Some(filter.clone())
            } else {
                self.routing
                    .parent(v)
                    .and_then(|p| forwarded[p.0 as usize].clone())
            };
            let Some(incoming) = incoming else { continue };
            let pruned = match &self.memo[v.0 as usize] {
                Some(atts) if self.cfg.selective_forwarding => self
                    .intersect
                    .run(incoming.len() + atts.len(), || incoming.intersect(atts)),
                _ => incoming,
            };
            if !pruned.is_empty() {
                self.wire(&pruned);
                forwarded[v.0 as usize] = Some(pruned);
            }
        }
    }

    /// Decodes every collection message again and checks the point count:
    /// the protocol simulation passes sets by value, so `execute` itself
    /// never decodes — this is the receiving node's cost, reported alone.
    fn decode_all(&mut self) {
        let shape = self.space.shape();
        for (tree, points) in std::mem::take(&mut self.sent) {
            let set = self
                .decode
                .run(points, || decode(&tree, shape))
                .expect("an encoded set decodes");
            assert_eq!(set.len(), points, "decode returned another set");
        }
    }
}

/// `band_mask` over the network's own join-attribute keys: the residual
/// check `key - probe > 1` for 64 probes spread over the sorted run.
fn simd_probe(snet: &SensorNetwork, cq: &CompiledQuery, m: &mut Metrics) {
    let attr = cq.join_attrs(0).first().copied().unwrap_or(0);
    let mut keys: Vec<f64> = (0..snet.len() as u32)
        .map(|v| snet.values_for(NodeId(v), cq.schema(0))[attr])
        .collect();
    keys.sort_by(|a, b| a.partial_cmp(b).expect("readings are not NaN"));
    let form = MaskForm::Diff {
        op: CmpKind::Gt,
        c: 1.0,
        key_is_lhs: true,
    };
    let rounds = (2_000_000 / (64 * keys.len())).max(1);
    let mut out = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for i in 0..64 {
            band_mask(&keys, keys[i * keys.len() / 64], form, &mut out);
            std::hint::black_box(&out);
        }
    }
    let evaluated = (rounds * 64 * keys.len()) as f64;
    m.set(
        "simd.band_mask_ns_per_key",
        t0.elapsed().as_nanos() as f64 / evaluated,
    );
    m.set(
        "simd.kernels_active",
        if sensjoin::core::kernels_active() == "scalar" {
            0.0
        } else {
            1.0
        },
    );
}

/// Topology and routing-tree builds on the network's own positions, and a
/// convergecast of bare `Network::unicast` calls along its tree.
fn sim_probes(snet: &SensorNetwork, m: &mut Metrics) {
    let topo = snet.net().topology();
    let positions: Vec<_> = topo.nodes().map(|v| topo.position(v)).collect();
    let (area, range, base) = (topo.area(), topo.range(), snet.base());
    m.set(
        "sim.topology_build_ms",
        median_ms(3, || Topology::new(positions.clone(), area, range)),
    );
    m.set(
        "sim.routing_build_ms",
        median_ms(3, || RoutingTree::build(topo, base)),
    );

    let mut net = snet.net().clone();
    net.reset_stats();
    let order: Vec<(NodeId, NodeId)> = net
        .routing()
        .bottom_up_order()
        .iter()
        .filter_map(|&v| Some((v, net.routing().parent(v)?)))
        .collect();
    let t0 = Instant::now();
    for bytes in [30, 500] {
        for &(v, parent) in &order {
            net.unicast(v, parent, bytes, "probe");
        }
    }
    let elapsed = t0.elapsed();
    m.set(
        "sim.unicast_ns_per_packet",
        elapsed.as_nanos() as f64 / net.stats().total_tx_packets().max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_what_the_probes_leave() {
        let b = Breakdown {
            execute: 100.0,
            joinspace: 1.0,
            quantize: 4.0,
            quadtree: 20.0,
            prejoin: 10.0,
            exact_join: 15.0,
        };
        assert_eq!(b.residual(), 50.0);
        let mut rows = Vec::new();
        b.ledger(&mut rows);
        assert_eq!(rows.iter().map(|(_, ms)| ms).sum::<f64>(), b.execute);
        assert_eq!(residual(10.0, &[6.0, 7.0]), -3.0);
        assert_eq!(residual(10.0, &[]), 10.0);
        // An overshoot is reported as measured but takes no ledger share.
        let over = Breakdown { execute: 30.0, ..b };
        assert_eq!(over.residual(), -20.0);
        let mut rows = Vec::new();
        over.ledger(&mut rows);
        assert_eq!(rows.last(), Some(&("core.wave".to_owned(), 0.0)));
    }
}
