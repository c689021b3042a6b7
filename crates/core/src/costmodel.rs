//! Analytical cost model and join-method advisor.
//!
//! The paper justifies its design by a cost analysis of candidate join
//! locations (its companion workshop paper [20], "Where in the sensor
//! network should the join be computed, after all?"). This module provides
//! that layer for downstream users: closed-form per-method cost estimates
//! computed from the *actual* routing tree (which the base station knows)
//! plus two workload parameters — the expected fraction of contributing
//! nodes and the expected result-row count — and a [`CostModel::recommend`]
//! call that picks the cheapest method *without running anything*.
//!
//! The estimates deliberately reuse the simulator's exact packetization
//! arithmetic, so for the external join the prediction is exact; for
//! SENS-Join the collection term depends on how well the quadtree compresses
//! a subtree's cells, summarized by a single calibratable "bits per point"
//! parameter ([`CostModel::estimate_beta`] measures it from one base-station
//! encoding of the current population — knowledge the base acquires for free
//! in every execution). The `cost_model` bench validates predictions against
//! simulation across the selectivity sweep.

use crate::config::{Representation, SensJoinConfig};
use crate::engine::JoinSpace;
use crate::repr::NodeTable;
use crate::snetwork::SensorNetwork;
use sensjoin_quadtree::{encoded_wire_size, PointSet};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;

/// A predicted execution cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted total transmissions.
    pub packets: f64,
    /// Predicted total payload bytes.
    pub bytes: f64,
}

/// Which join method the advisor picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodChoice {
    /// Ship everything, join at the base station.
    External,
    /// Run the SENS-Join pre-computation.
    SensJoin,
}

/// The analytical model, bound to a deployment and a compiled query.
///
/// # Example
///
/// ```
/// use sensjoin_core::{CostModel, SensJoinConfig, SensorNetworkBuilder};
/// use sensjoin_field::{Area, Placement};
/// use sensjoin_query::parse;
///
/// let snet = SensorNetworkBuilder::new()
///     .area(Area::new(300.0, 300.0))
///     .placement(Placement::UniformRandom { n: 120 })
///     .seed(7)
///     .build()
///     .unwrap();
/// let q = parse(
///     "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
///      WHERE A.temp - B.temp > 5.0 ONCE",
/// ).unwrap();
/// let cq = snet.compile(&q).unwrap();
/// let model = CostModel::new(&snet, &cq);
/// let beta = model.estimate_beta();
/// let ext = model.external();
/// let sens = model.sens_join(0.05, beta, &SensJoinConfig::default());
/// assert!(ext.packets > 0.0 && sens.packets > 0.0);
/// println!("advice: {:?}", model.recommend(0.05, beta));
/// ```
#[derive(Debug)]
pub struct CostModel<'a> {
    snet: &'a SensorNetwork,
    query: &'a CompiledQuery,
    /// Member-subtree sizes: contributing nodes in each node's subtree
    /// (including itself).
    member_subtree: Vec<u32>,
    /// Projected tuple bytes per contributing node.
    tuple_bytes: Vec<usize>,
}

impl<'a> CostModel<'a> {
    /// Builds the model (one linear pass over the tree).
    pub fn new(snet: &'a SensorNetwork, query: &'a CompiledQuery) -> Self {
        let space = JoinSpace::build(query, snet, &SensJoinConfig::default());
        let table = NodeTable::build(snet, query, &space, Representation::Quadtree);
        let routing = snet.net().routing();
        let n = snet.len();
        let mut member_subtree = vec![0u32; n];
        let mut tuple_bytes = vec![0usize; n];
        for &v in routing.bottom_up_order() {
            let i = v.0 as usize;
            if let Some(rec) = table.tuple(v) {
                member_subtree[i] += 1;
                tuple_bytes[i] = rec.bytes as usize;
            }
            if let Some(p) = routing.parent(v) {
                member_subtree[p.0 as usize] += member_subtree[i];
            }
        }
        Self {
            snet,
            query,
            member_subtree,
            tuple_bytes,
        }
    }

    fn payload(&self) -> f64 {
        self.snet.net().radio().max_payload as f64
    }

    /// Mean projected tuple size over contributing nodes.
    fn mean_tuple_bytes(&self) -> f64 {
        let (sum, count) = self
            .tuple_bytes
            .iter()
            .filter(|&&b| b > 0)
            .fold((0usize, 0usize), |(s, c), &b| (s + b, c + 1));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Exact cost of the external join: every non-base reachable node
    /// forwards its member subtree's tuples.
    pub fn external(&self) -> CostEstimate {
        let routing = self.snet.net().routing();
        let t = self.mean_tuple_bytes();
        let mut packets = 0.0;
        let mut bytes = 0.0;
        for v in self.snet.net().topology().nodes() {
            if v == self.snet.base() || routing.depth(v).is_none() {
                continue;
            }
            let b = self.member_subtree[v.0 as usize] as f64 * t;
            bytes += b;
            packets += (b / self.payload()).ceil();
        }
        CostEstimate { packets, bytes }
    }

    /// Measures the quadtree's effective bits per point by sizing the
    /// current population's encoding once (the base station learns this for free in any
    /// execution; 2.5 bytes/point is a reasonable prior for correlated
    /// climate data).
    pub fn estimate_beta(&self) -> f64 {
        let space = JoinSpace::build(self.query, self.snet, &SensJoinConfig::default());
        let table = NodeTable::build(self.snet, self.query, &space, Representation::Quadtree);
        let mut set = PointSet::new();
        let mut count = 0usize;
        for (_, rec) in table.tuples() {
            set.insert(rec.z, rec.flags);
            count += 1;
        }
        if count == 0 {
            return 8.0;
        }
        let bits = 8.0 * encoded_wire_size(&set, space.shape()) as f64;
        bits / count as f64
    }

    /// Predicted SENS-Join cost for a workload where a `fraction` of the
    /// contributing nodes appears in the result, with quadtree density
    /// `beta` bits per point (see [`CostModel::estimate_beta`]).
    pub fn sens_join(&self, fraction: f64, beta: f64, config: &SensJoinConfig) -> CostEstimate {
        assert!((0.0..=1.0).contains(&fraction));
        let routing = self.snet.net().routing();
        let base = self.snet.base();
        let t = self.mean_tuple_bytes();
        let p = self.payload();
        let n_members = self.member_subtree[base.0 as usize] as f64;
        let mut packets = 0.0;
        let mut bytes = 0.0;
        for v in self.snet.net().topology().nodes() {
            if v == base || routing.depth(v).is_none() {
                continue;
            }
            let s = self.member_subtree[v.0 as usize] as f64;
            // Collection: Treecut ships complete tuples while cheap.
            let b = if s * t <= config.dmax as f64 {
                s * t
            } else {
                // Quadtree of the subtree's cells (dedup makes this an
                // upper bound; beta absorbs the average effect).
                s * beta / 8.0
            };
            if b > 0.0 {
                bytes += b;
                packets += (b / p).ceil();
            }
            // Filter dissemination reaches a node iff a matching node is in
            // its subtree: P = 1 - (1 - s/N)^(fraction*N). Its broadcast
            // carries the pruned filter (≈ matching-in-subtree points).
            if !routing.children(v).is_empty() || v == base {
                let expect_matching = fraction * s;
                let covered = 1.0 - (1.0 - s / n_members).powf(fraction * n_members);
                let fb = expect_matching * beta / 8.0;
                if fb > 0.0 {
                    bytes += covered * fb;
                    packets += covered * (fb / p).ceil().max(1.0);
                }
            }
            // Final phase: matching tuples of the subtree flow up.
            let fin = fraction * s * t;
            if fin > 0.0 {
                bytes += fin;
                // A node transmits in the final phase only if its subtree
                // holds a matching tuple.
                let has_match = 1.0 - (1.0 - s / n_members).powf(fraction * n_members);
                packets += has_match * (fin / p).ceil().max(1.0);
            }
        }
        CostEstimate { packets, bytes }
    }

    /// Advises the cheaper of external join and SENS-Join for the expected
    /// `fraction` (using a measured or prior `beta`).
    pub fn recommend(&self, fraction: f64, beta: f64) -> MethodChoice {
        let ext = self.external();
        let sens = self.sens_join(fraction, beta, &SensJoinConfig::default());
        if sens.packets <= ext.packets {
            MethodChoice::SensJoin
        } else {
            MethodChoice::External
        }
    }

    /// Member-subtree size of a node (contributing nodes below and including
    /// it) — exposed for diagnostics.
    pub fn member_subtree(&self, v: NodeId) -> u32 {
        self.member_subtree[v.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::workload::RangeQueryFamily;
    use crate::{ExternalJoin, JoinMethod, SensJoin};
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;
    use sensjoin_sim::BaseChoice;

    fn setup(n: usize, seed: u64, target: f64) -> (SensorNetwork, CompiledQuery, f64) {
        let snet = SensorNetworkBuilder::new()
            .area(Area::for_constant_density(n))
            .placement(Placement::UniformRandom { n })
            .base(BaseChoice::NearestCorner)
            .seed(seed)
            .build()
            .unwrap();
        let cal = RangeQueryFamily::ratio_33().calibrate(&snet, target);
        let cq = snet.compile(&parse(&cal.sql).unwrap()).unwrap();
        (snet, cq, cal.achieved_fraction)
    }

    #[test]
    fn external_prediction_is_nearly_exact() {
        let (mut snet, cq, _) = setup(400, 3, 0.05);
        let model = CostModel::new(&snet, &cq);
        let predicted = model.external();
        let actual = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let err = (predicted.packets - actual.stats.total_tx_packets() as f64).abs()
            / actual.stats.total_tx_packets() as f64;
        assert!(
            err < 0.01,
            "external prediction off by {:.1} %",
            err * 100.0
        );
        assert!(
            (predicted.bytes - actual.stats.total_tx_bytes() as f64).abs()
                < 1.0 + 0.01 * actual.stats.total_tx_bytes() as f64
        );
    }

    #[test]
    fn sens_prediction_within_reason() {
        let (mut snet, cq, fraction) = setup(400, 5, 0.05);
        let model = CostModel::new(&snet, &cq);
        let beta = model.estimate_beta();
        let predicted = model.sens_join(fraction, beta, &SensJoinConfig::default());
        let actual = SensJoin::default().execute(&mut snet, &cq).unwrap();
        let err = (predicted.packets - actual.stats.total_tx_packets() as f64).abs()
            / actual.stats.total_tx_packets() as f64;
        assert!(
            err < 0.35,
            "SENS prediction {:.0} vs actual {} ({:.0} % off)",
            predicted.packets,
            actual.stats.total_tx_packets(),
            err * 100.0
        );
    }

    #[test]
    fn recommendation_matches_simulation_at_the_extremes() {
        // Very selective: SENS-Join must be advised and must actually win.
        let (mut snet, cq, fraction) = setup(350, 7, 0.02);
        let model = CostModel::new(&snet, &cq);
        let beta = model.estimate_beta();
        assert_eq!(model.recommend(fraction, beta), MethodChoice::SensJoin);
        let ext = ExternalJoin.execute(&mut snet, &cq).unwrap();
        let sens = SensJoin::default().execute(&mut snet, &cq).unwrap();
        assert!(sens.stats.total_tx_packets() < ext.stats.total_tx_packets());
        // Everything joins: external must be advised.
        let (snet2, cq2, fraction2) = setup(350, 7, 0.98);
        let model2 = CostModel::new(&snet2, &cq2);
        assert_eq!(
            model2.recommend(fraction2.max(0.95), beta),
            MethodChoice::External
        );
    }

    #[test]
    fn beta_is_plausible() {
        let (snet, cq, _) = setup(300, 9, 0.05);
        let model = CostModel::new(&snet, &cq);
        let beta = model.estimate_beta();
        // Structural bounds, not constants tuned to one RNG stream: beta is
        // the wire size in bits per inserted point, so it must be positive,
        // and a one-dimensional quadtree key is at most 64 bits wide.
        assert!(beta > 0.0 && beta < 64.0, "beta {beta}");
    }
}
