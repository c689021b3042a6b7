//! The external join: the state-of-the-art general-purpose baseline (§VI).

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{exact_join_batches, JoinSpace};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::repr::{NodeTable, Shipment};
use crate::snetwork::SensorNetwork;
use crate::wave::up_wave;
use crate::JoinMethod;
use sensjoin_query::CompiledQuery;
use std::vec::Drain;

/// Sends both input relations to the base station and joins there.
///
/// The implementation is the paper's "state-of-the-art" variant: selections
/// and projections are performed as early as possible (nodes only ship the
/// attributes the query references, §VI), and tuples are aggregated into
/// packets as they move up the routing tree. Despite its simplicity it is
/// *optimal* when the join selectivity is very low, and it is the baseline
/// every figure of the evaluation compares against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExternalJoin;

impl JoinMethod for ExternalJoin {
    fn name(&self) -> &'static str {
        "external"
    }

    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        snet.net_mut().reset_stats();
        // The join space is only used to precompute node data uniformly with
        // SENS-Join (z-numbers are ignored here).
        let space = JoinSpace::build(query, snet, &SensJoinConfig::default());
        let table = NodeTable::build(snet, query, &space, Representation::Quadtree);

        let (base_batch, rep) = up_wave(
            snet.net_mut(),
            &|_| true,
            |v, received: Drain<Shipment<_>>| {
                let mut batch = Shipment::merged(received);
                if let Some(rec) = table.tuple(v) {
                    batch.bytes += rec.bytes as usize;
                    batch.entries.push(v);
                }
                batch
            },
            |b| b.bytes,
            "collection",
        );

        let tuples_per_rel = table.tuples_per_rel(snet, base_batch.entries);
        let computation = exact_join_batches(query, &tuples_per_rel);
        Ok(JoinOutcome {
            result: computation.result,
            stats: snet.net().stats().clone(),
            latency_us: rep.timing.pipelined,
            latency_slotted_us: rep.timing.slotted,
            contributors: computation.contributors,
            // The external join ships raw tuples: any permanent loss is a
            // missing result row, so the single wave must arrive intact.
            complete: rep.damaged.is_empty(),
            churned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::JoinResult;
    use crate::snetwork::SensorNetworkBuilder;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;
    use sensjoin_relation::NodeId;

    fn snet(n: usize, seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .placement(Placement::UniformRandom { n })
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_oracle_join() {
        let mut s = snet(70, 2);
        let q = parse(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 ONCE",
        )
        .unwrap();
        let cq = s.compile(&q).unwrap();
        let out = ExternalJoin.execute(&mut s, &cq).unwrap();
        // Oracle: brute force over readings of reachable nodes (nodes cut
        // off from the base station cannot contribute).
        let ti = s.master_index("temp").unwrap();
        let temps: Vec<f64> = (0..s.len() as u32)
            .filter(|&i| s.net().routing().depth(NodeId(i)).is_some())
            .map(|i| s.readings(NodeId(i))[ti])
            .collect();
        let mut expect = 0;
        for a in &temps {
            for b in &temps {
                if a - b > 2.0 {
                    expect += 1;
                }
            }
        }
        assert_eq!(out.result.len(), expect);
    }

    #[test]
    fn every_node_transmits_once_per_packetload() {
        let mut s = snet(60, 4);
        let q = parse(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.01 ONCE",
        )
        .unwrap();
        let cq = s.compile(&q).unwrap();
        let out = ExternalJoin.execute(&mut s, &cq).unwrap();
        // Every non-base reachable node ships >= 1 packet (it has a tuple).
        let base = s.base();
        for i in 0..s.len() as u32 {
            let v = NodeId(i);
            if v != base && s.net().routing().depth(v).is_some() {
                assert!(out.stats.node(v).tx_packets >= 1, "{v} silent");
            }
        }
        // Total bytes shipped = sum over nodes of (subtree tuples x 4 bytes):
        // spot-check the base's children carried everything.
        assert_eq!(
            out.stats.phase("collection").tx_packets,
            out.stats.total_tx_packets()
        );
    }

    #[test]
    fn aggregate_query() {
        let mut s = snet(50, 9);
        let q = parse(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.0 ONCE",
        )
        .unwrap();
        let cq = s.compile(&q).unwrap();
        let out = ExternalJoin.execute(&mut s, &cq).unwrap();
        match out.result {
            JoinResult::Aggregate(v) => assert_eq!(v.len(), 1),
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn latency_positive_and_bounded() {
        let mut s = snet(60, 1);
        let q = parse(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.1 ONCE",
        )
        .unwrap();
        let cq = s.compile(&q).unwrap();
        let out = ExternalJoin.execute(&mut s, &cq).unwrap();
        assert!(out.latency_us > 0);
    }
}
