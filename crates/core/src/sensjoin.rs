//! The SENS-Join protocol (paper §IV) as a one-shot [`JoinMethod`]: an
//! epoch of one query ([`crate::epoch`]).

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{exact_join_batches, JoinSpace};
use crate::epoch::{run_epoch, Slot};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::snetwork::SensorNetwork;
use crate::JoinMethod;
use sensjoin_query::CompiledQuery;

/// Phase labels used in statistics (Fig. 15's cost breakdown).
pub const PHASE_COLLECTION: &str = "1-join-attribute-collection";
/// Filter-dissemination phase label.
pub const PHASE_FILTER: &str = "2-filter-dissemination";
/// Final-result phase label.
pub const PHASE_FINAL: &str = "3-final-result";

/// The SENS-Join method: pre-computation (join-attribute collection +
/// filter dissemination) followed by the final result computation.
///
/// All protocol parameters live in [`SensJoinConfig`]; the default is the
/// paper's configuration (`D_max` = 30 B, 500 B filter memory, quadtree
/// representation, Selective Filter Forwarding on).
#[derive(Debug, Clone, Default)]
pub struct SensJoin {
    /// Protocol parameters.
    pub config: SensJoinConfig,
}

impl SensJoin {
    /// A SENS-Join instance with explicit configuration.
    pub fn with_config(config: SensJoinConfig) -> Self {
        Self { config }
    }

    /// The Fig. 16 variant: no compact representation, raw join-attribute
    /// tuples during the pre-computation.
    pub fn no_quadtree() -> Self {
        Self::with_config(SensJoinConfig {
            representation: Representation::Raw,
            ..SensJoinConfig::default()
        })
    }
}

impl JoinMethod for SensJoin {
    fn name(&self) -> &'static str {
        match self.config.representation {
            Representation::Quadtree => "sens-join",
            Representation::Raw => "sens-join/no-quad",
            Representation::Zlib => "sens-join/zlib",
            Representation::Bzip2 => "sens-join/bzip2",
        }
    }

    /// One epoch of one query. What makes it a one-shot: the quantization
    /// space is built on the current snapshot, and the churn timeline is
    /// polled between the phases (there is no next epoch to defer a crash
    /// to).
    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        snet.net_mut().reset_stats();
        let space = JoinSpace::build(query, snet, &self.config);
        let slot = Slot {
            query,
            space: &space,
        };
        let mut run = run_epoch(snet, &self.config, &[slot], true, exact_join_batches);
        let join = run.joins.pop().expect("one slot");
        Ok(JoinOutcome {
            result: join.result,
            stats: snet.net().stats().clone(),
            latency_us: run.timing.pipelined,
            latency_slotted_us: run.timing.slotted,
            contributors: join.contributors,
            complete: run.complete,
            churned: run.churned,
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

    fn snet(n: usize, seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(350.0, 350.0))
            .placement(Placement::UniformRandom { n })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn compiled(s: &SensorNetwork, sql: &str) -> CompiledQuery {
        s.compile(&parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn result_identical_to_external_join() {
        for seed in [1, 2, 3] {
            let mut s = snet(90, seed);
            let cq = compiled(
                &s,
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE |A.temp - B.temp| < 0.1 ONCE",
            );
            let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
            let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
            assert!(
                ext.result.same_result(&sj.result),
                "seed {seed}: {} vs {} rows",
                ext.result.len(),
                sj.result.len()
            );
            assert_eq!(ext.contributors, sj.contributors);
        }
    }

    #[test]
    fn selective_query_saves_transmissions() {
        // Savings need a tree deep enough for packet aggregation to matter
        // (the paper uses 1500 nodes; 400 over a wider area with a corner
        // base station suffices here).
        let mut s = SensorNetworkBuilder::new()
            .area(Area::new(600.0, 600.0))
            .placement(Placement::UniformRandom { n: 400 })
            .base(sensjoin_sim::BaseChoice::NearestCorner)
            .seed(7)
            .build()
            .unwrap();
        let fam = crate::workload::RangeQueryFamily::ratio_33();
        let cal = fam.calibrate(&s, 0.05);
        let cq = compiled(&s, &cal.sql);
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(
            sj.stats.total_tx_packets() < ext.stats.total_tx_packets(),
            "sens {} !< ext {}",
            sj.stats.total_tx_packets(),
            ext.stats.total_tx_packets()
        );
    }

    #[test]
    fn phases_are_labeled() {
        let mut s = snet(100, 5);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
        );
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        let p1 = sj.stats.phase(PHASE_COLLECTION).tx_packets;
        let p2 = sj.stats.phase(PHASE_FILTER).tx_packets;
        let p3 = sj.stats.phase(PHASE_FINAL).tx_packets;
        assert!(p1 > 0);
        assert_eq!(p1 + p2 + p3, sj.stats.total_tx_packets());
    }

    #[test]
    fn no_quadtree_variant_is_larger_but_correct() {
        let mut s = snet(120, 11);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.05 ONCE",
        );
        let quad = SensJoin::default().execute(&mut s, &cq).unwrap();
        let raw = SensJoin::no_quadtree().execute(&mut s, &cq).unwrap();
        assert!(quad.result.same_result(&raw.result));
        let quad_p1 = quad.stats.phase(PHASE_COLLECTION).tx_bytes;
        let raw_p1 = raw.stats.phase(PHASE_COLLECTION).tx_bytes;
        assert!(quad_p1 < raw_p1, "quadtree {quad_p1} !< raw {raw_p1}");
    }

    #[test]
    fn treecut_disabled_still_correct() {
        let mut s = snet(80, 13);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let nocut = SensJoin::with_config(SensJoinConfig {
            dmax: 0,
            ..Default::default()
        })
        .execute(&mut s, &cq)
        .unwrap();
        assert!(ext.result.same_result(&nocut.result));
    }

    #[test]
    fn selective_forwarding_disabled_still_correct_but_costlier() {
        let mut s = snet(130, 17);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.01 AND distance(A.x, A.y, B.x, B.y) > 200 ONCE",
        );
        let on = SensJoin::default().execute(&mut s, &cq).unwrap();
        let off = SensJoin::with_config(SensJoinConfig {
            selective_forwarding: false,
            ..Default::default()
        })
        .execute(&mut s, &cq)
        .unwrap();
        assert!(on.result.same_result(&off.result));
        let on_f = on.stats.phase(PHASE_FILTER).tx_packets;
        let off_f = off.stats.phase(PHASE_FILTER).tx_packets;
        assert!(on_f <= off_f, "selective {on_f} > flooded {off_f}");
    }

    #[test]
    fn aggregate_query_identical() {
        let mut s = snet(70, 23);
        let cq = compiled(
            &s,
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(ext.result.same_result(&sj.result));
    }

    #[test]
    fn empty_result_sends_no_final_tuples() {
        let mut s = snet(90, 29);
        let cq = compiled(
            &s,
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1000 ONCE",
        );
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(sj.result.is_empty());
        assert_eq!(sj.stats.phase(PHASE_FINAL).tx_bytes, 0);
        // Filter dissemination is pruned at the root: nothing joins.
        assert_eq!(sj.stats.phase(PHASE_FILTER).tx_packets, 0);
    }

    #[test]
    fn latency_within_twice_external() {
        // §VII: "the response time of SENS-Join is upper bounded by at most
        // twice the duration of the external join".
        let mut s = snet(150, 31);
        let cq = compiled(
            &s,
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        );
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let sj = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(
            sj.latency_us <= 2 * ext.latency_us + 10_000,
            "sens {} vs ext {}",
            sj.latency_us,
            ext.latency_us
        );
    }
}
