//! Specialized related-work baseline: the mediated join.
//!
//! Coman et al. ("On join location in sensor networks", MDM 2007 — paper
//! §II) compute the join at a *mediator* node inside the network: all input
//! tuples are collected at the mediator over a collection tree rooted there,
//! the join is evaluated in-network, and only the result rows travel on to
//! the base station. The paper argues such methods are "only efficient if
//! the input relations are distributed over two small regions ... close to
//! each other, compared to their distance to the base station" and that the
//! external join outperformed them "in each of our experiments"; this
//! implementation lets the benchmark suite *verify* that claim instead of
//! assuming it (`related_work` bench).

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{exact_join, JoinSpace};
use crate::outcome::{JoinOutcome, JoinResult, ProtocolError};
use crate::repr::{NodeTable, Shipment};
use crate::snetwork::SensorNetwork;
use crate::wave::up_wave_on;
use crate::JoinMethod;
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::RoutingTree;

/// Phase label of the tuple collection towards the mediator.
pub const PHASE_MEDIATED_COLLECTION: &str = "mediated-collection";
/// Phase label of the result shipment mediator → base station.
pub const PHASE_MEDIATED_RESULT: &str = "mediated-result";

/// The mediated join: join at an in-network mediator, ship the result.
///
/// The mediator is the contributing-region node minimizing the total hop
/// count to all contributing nodes (approximated over a candidate sample,
/// which is how a coordinator would pick it from imprecise region
/// knowledge).
#[derive(Debug, Clone, Copy, Default)]
pub struct MediatedJoin;

impl MediatedJoin {
    /// Picks the mediator: among candidate nodes (contributors plus the node
    /// nearest their centroid), the one minimizing total hops to all
    /// contributors.
    fn pick_mediator(snet: &SensorNetwork, members: &[NodeId]) -> NodeId {
        let topo = snet.net().topology();
        let cx = members.iter().map(|&v| topo.position(v).x).sum::<f64>() / members.len() as f64;
        let cy = members.iter().map(|&v| topo.position(v).y).sum::<f64>() / members.len() as f64;
        let centroid_node = topo
            .nodes()
            .filter(|&v| snet.net().routing().depth(v).is_some())
            .min_by(|&a, &b| {
                let da = (topo.position(a).x - cx).hypot(topo.position(a).y - cy);
                let db = (topo.position(b).x - cx).hypot(topo.position(b).y - cy);
                da.total_cmp(&db)
            })
            .expect("network is non-empty");
        // Sample candidates: the centroid node plus a spread of members.
        let mut candidates = vec![centroid_node];
        let step = (members.len() / 8).max(1);
        candidates.extend(members.iter().step_by(step).copied());
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .min_by_key(|&cand| {
                let tree = RoutingTree::build(topo, cand);
                members
                    .iter()
                    .map(|&m| tree.depth(m).map_or(u64::from(u32::MAX), u64::from))
                    .sum::<u64>()
            })
            .expect("candidates are non-empty")
    }
}

impl JoinMethod for MediatedJoin {
    fn name(&self) -> &'static str {
        "mediated"
    }

    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        snet.net_mut().reset_stats();
        let space = JoinSpace::build(query, snet, &SensJoinConfig::default());
        let table = NodeTable::build(snet, query, &space, Representation::Quadtree);
        let base = snet.base();
        let members: Vec<NodeId> = (0..snet.len() as u32)
            .map(NodeId)
            .filter(|&v| snet.net().routing().depth(v).is_some())
            .filter(|&v| table.tuple(v).is_some())
            .collect();
        if members.is_empty() {
            // Nothing to join: no traffic at all.
            let result = if query.is_aggregate() {
                JoinResult::Aggregate(query.aggregate(std::iter::empty()))
            } else {
                JoinResult::Rows(Vec::new())
            };
            return Ok(JoinOutcome {
                result,
                stats: snet.net().stats().clone(),
                latency_us: 0,
                latency_slotted_us: 0,
                contributors: Default::default(),
                complete: true,
                churned: false,
            });
        }
        let mediator = Self::pick_mediator(snet, &members);
        // Collection tree rooted at the mediator.
        let tree = RoutingTree::build(snet.net().topology(), mediator);
        let (batch, rep_collect) = up_wave_on(
            snet.net_mut(),
            &tree,
            &|_| true,
            |v, received: Vec<Shipment<_>>| {
                let mut batch = Shipment::merged(received);
                if let Some(rec) = table.tuple(v) {
                    batch.bytes += rec.bytes as usize;
                    batch.entries.push(v);
                }
                batch
            },
            |b| b.bytes,
            PHASE_MEDIATED_COLLECTION,
        );

        // Join at the mediator.
        let tuples_per_rel = table.tuples_per_rel(snet, batch.entries);
        let computation = exact_join(query, &tuples_per_rel);

        // Ship the result rows mediator -> base along the shortest path.
        let row_bytes = 2 * query.select().len(); // 2 bytes per output value
        let result_bytes = match &computation.result {
            JoinResult::Rows(rows) => rows.len() * row_bytes,
            JoinResult::Aggregate(_) => row_bytes,
        };
        let mut t_ship = 0;
        let mut shipped = true;
        if mediator != base && result_bytes > 0 {
            // Path in the base-rooted tree's topology: BFS from the mediator
            // tree is not towards the base, so use the base tree's path.
            let base_tree = snet.net().routing().clone();
            // depth(mediator) is Some because members are reachable.
            let path = base_tree
                .path_to_base(mediator)
                .expect("mediator reaches the base station");
            for hop in path.windows(2) {
                let d = snet.net_mut().unicast_delivery(
                    hop[0],
                    hop[1],
                    result_bytes,
                    PHASE_MEDIATED_RESULT,
                );
                t_ship += d.time;
                // A result batch dropped on any hop never reaches the base.
                shipped &= d.complete;
            }
        }
        Ok(JoinOutcome {
            result: computation.result,
            stats: snet.net().stats().clone(),
            latency_us: rep_collect.timing.pipelined + t_ship,
            latency_slotted_us: rep_collect.timing.slotted + t_ship,
            contributors: computation.contributors,
            complete: rep_collect.damaged.is_empty() && shipped,
            churned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::ExternalJoin;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    fn snet(seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(400.0, 400.0))
            .placement(Placement::UniformRandom { n: 150 })
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn mediated_result_is_exact() {
        for seed in [1, 5] {
            let mut s = snet(seed);
            let cq = s
                .compile(
                    &parse(
                        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                         WHERE A.temp - B.temp > 3.0 ONCE",
                    )
                    .unwrap(),
                )
                .unwrap();
            let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
            let med = MediatedJoin.execute(&mut s, &cq).unwrap();
            assert!(ext.result.same_result(&med.result), "seed {seed}");
            assert_eq!(ext.contributors, med.contributors);
        }
    }

    #[test]
    fn uniform_placement_favors_external() {
        // The paper's claim: outside the "two small regions" scenario the
        // external join beats the mediated join (the result must travel to
        // the base anyway, and the mediator adds no filtering).
        let mut s = snet(2);
        let cq = s
            .compile(
                &parse(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE A.temp - B.temp > 1.0 ONCE",
                )
                .unwrap(),
            )
            .unwrap();
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let med = MediatedJoin.execute(&mut s, &cq).unwrap();
        assert!(
            ext.stats.total_tx_packets() <= med.stats.total_tx_packets(),
            "external {} should beat mediated {} on uniform placements",
            ext.stats.total_tx_packets(),
            med.stats.total_tx_packets()
        );
    }

    #[test]
    fn clustered_regions_can_favor_mediated() {
        // Two small relation regions far from the (corner) base: the
        // mediated join's home turf. With a selective query the result is
        // small, so joining in place and shipping a few rows beats hauling
        // every tuple across the network.
        use sensjoin_relation::{AttrType, Attribute, Schema, SensorRelation};
        use sensjoin_sim::BaseChoice;
        let area = Area::new(1000.0, 1000.0);
        let n = 1200usize;
        let schema = |name: &str| {
            Schema::new(
                name,
                vec![
                    Attribute::new("x", AttrType::Meters),
                    Attribute::new("y", AttrType::Meters),
                    Attribute::new("temp", AttrType::Celsius),
                    Attribute::new("hum", AttrType::Percent),
                ],
            )
        };
        // Build once to learn positions, then restrict the relations to two
        // small far-corner regions (same seed reproduces the topology).
        let probe = SensorNetworkBuilder::new()
            .area(area)
            .placement(Placement::UniformRandom { n })
            .base(BaseChoice::NearestCorner)
            .seed(3)
            .build()
            .unwrap();
        let region = |x0: f64, y0: f64| -> Vec<NodeId> {
            (0..n as u32)
                .map(NodeId)
                .filter(|&v| {
                    let p = probe.net().topology().position(v);
                    (p.x - x0).hypot(p.y - y0) < 120.0 && probe.net().routing().depth(v).is_some()
                })
                .collect()
        };
        let left = region(750.0, 850.0);
        let right = region(870.0, 750.0);
        assert!(
            left.len() >= 5 && right.len() >= 5,
            "scenario needs populated regions"
        );
        let mut snet = SensorNetworkBuilder::new()
            .area(area)
            .placement(Placement::UniformRandom { n })
            .base(BaseChoice::NearestCorner)
            .seed(3)
            .relations(vec![
                SensorRelation::over_nodes(schema("Left"), left),
                SensorRelation::over_nodes(schema("Right"), right),
            ])
            .build()
            .unwrap();
        let cq = snet
            .compile(
                &parse(
                    "SELECT L.hum, R.hum FROM Left L, Right R \
                     WHERE L.temp - R.temp > 5.0 ONCE",
                )
                .unwrap(),
            )
            .unwrap();
        let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let med = MediatedJoin.execute(&mut snet, &cq).unwrap();
        assert!(ext.result.same_result(&med.result));
        assert!(
            med.stats.total_tx_packets() < ext.stats.total_tx_packets(),
            "mediated {} should win on clustered far regions (external {})",
            med.stats.total_tx_packets(),
            ext.stats.total_tx_packets()
        );
    }
}
