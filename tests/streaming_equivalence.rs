//! Streaming/batch equivalence of the ingestion engine, end to end: a
//! persistent [`sensjoin::core::StreamJoinEngine`] driven through random
//! insert/expire/re-upsert batches over drifting field values must answer,
//! after every batch, bit-identically to a fresh `exact_join` over the
//! tuples it has been fed — same row sequence, same aggregates, same
//! contributor set — for every predicate class the classifier produces
//! (band, absolute band in both window and two-run shapes, equi, general,
//! and multi-conjunct 3-way joins). The band indexes are probed through
//! the batch engine's window derivation (`partition::band_runs`); CI runs
//! the suite under both feature configurations.

use proptest::prelude::*;
use sensjoin::core::{exact_join, JoinComputation, StreamJoinEngine, StreamOp};
use sensjoin::prelude::*;
use sensjoin::query::CompiledQuery;
use std::collections::BTreeMap;

fn build(seed: u64, n: usize) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(400.0, 400.0))
        .placement(Placement::UniformRandom { n })
        .seed(seed)
        .build()
        .unwrap()
}

/// Query templates across predicate classes. Equality over raw field
/// samples still matches on the diagonal (the same node on both sides), so
/// the equi index path is exercised with a non-empty result.
fn sql(template: usize, c: f64) -> String {
    match template % 7 {
        0 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} ONCE"
        ),
        1 => format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < {} ONCE",
            c * 0.1
        ),
        2 => format!(
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| >= {c} ONCE"
        ),
        3 => format!(
            "SELECT A.x, B.x FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) < {} ONCE",
            c * 15.0
        ),
        4 => "SELECT A.temp, B.temp FROM Sensors A, Sensors B \
              WHERE A.hum = B.hum ONCE"
            .to_owned(),
        5 => format!(
            "SELECT MIN(|A.temp - B.temp|) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {} ONCE",
            c * 0.3
        ),
        _ => format!(
            "SELECT A.temp, B.temp, C.temp FROM Sensors A, Sensors B, Sensors C \
             WHERE |A.temp - B.temp| < {} AND B.temp - C.temp > {c} ONCE",
            c * 0.2
        ),
    }
}

/// The per-relation values node `v` reports after local predicates — the
/// upsert payload the network-level protocol would feed the engine.
fn per_rel_of(snet: &SensorNetwork, cq: &CompiledQuery, v: NodeId) -> Vec<Option<Vec<f64>>> {
    (0..cq.num_relations())
        .map(|r| {
            let schema = cq.schema(r);
            if snet.belongs(v, schema.name()) {
                let vals = snet.values_for(v, schema);
                cq.eval_local(r, &vals).then_some(vals)
            } else {
                None
            }
        })
        .collect()
}

/// Fresh batch join over exactly what the engine has been fed.
fn reference(
    cq: &CompiledQuery,
    shadow: &BTreeMap<NodeId, Vec<Option<Vec<f64>>>>,
) -> JoinComputation {
    let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
        .map(|r| {
            shadow
                .iter()
                .filter_map(|(&v, pr)| pr[r].clone().map(|vals| (v, vals)))
                .collect()
        })
        .collect();
    exact_join(cq, &tuples)
}

/// Bit-level equality: row order, every f64 payload, and the contributor
/// set. `same_result` alone would tolerate reordering; the engine promises
/// the exact emission order of the batch join.
fn assert_bit_identical(streamed: &JoinComputation, batch: &JoinComputation) {
    assert_eq!(streamed.contributors, batch.contributors, "contributors");
    use sensjoin::core::JoinResult;
    match (&streamed.result, &batch.result) {
        (JoinResult::Rows(a), JoinResult::Rows(b)) => {
            let ab: Vec<Vec<u64>> = a
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect();
            let bb: Vec<Vec<u64>> = b
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(ab, bb, "row payloads");
        }
        (JoinResult::Aggregate(a), JoinResult::Aggregate(b)) => {
            let ab: Vec<Option<u64>> = a.iter().map(|v| v.map(f64::to_bits)).collect();
            let bb: Vec<Option<u64>> = b.iter().map(|v| v.map(f64::to_bits)).collect();
            assert_eq!(ab, bb, "aggregates");
        }
        _ => panic!("result kinds differ"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches of upserts (fresh nodes and re-upserts with drifted
    /// values) and expirations: after every batch the engine's cached
    /// result is bit-identical to a batch `exact_join` over its live feed.
    #[test]
    fn streaming_matches_batch_join(
        seed in 0u64..1000,
        n in 40usize..80,
        template in 0usize..7,
        c in 2.0f64..5.0,
        batches in prop::collection::vec(
            (0u64..10_000, prop::collection::vec(0u32..10_000, 1..20)),
            2..5,
        ),
    ) {
        let mut snet = build(seed, n);
        let cq = snet.compile(&parse(&sql(template, c)).unwrap()).unwrap();
        let mut engine = StreamJoinEngine::new(cq.clone());
        let mut shadow: BTreeMap<NodeId, Vec<Option<Vec<f64>>>> = BTreeMap::new();

        // Cold load: every node arrives.
        let ops: Vec<StreamOp> = (0..n as u32)
            .map(|i| {
                let v = NodeId(i);
                let per_rel = per_rel_of(&snet, &cq, v);
                shadow.insert(v, per_rel.clone());
                StreamOp::Upsert { origin: v, per_rel }
            })
            .collect();
        engine.apply_batch(&ops);
        assert_bit_identical(&engine.result(), &reference(&cq, &shadow));

        for (resample_seed, batch) in batches {
            snet.resample(&presets::indoor_climate(), resample_seed);
            let mut ops = Vec::new();
            for raw in batch {
                let v = NodeId((raw / 2) % n as u32);
                // Parity decides the op kind: even upserts, odd expires.
                if raw % 2 == 0 {
                    let per_rel = per_rel_of(&snet, &cq, v);
                    shadow.insert(v, per_rel.clone());
                    ops.push(StreamOp::Upsert { origin: v, per_rel });
                } else {
                    // Expiring an absent origin is a legal no-op.
                    shadow.remove(&v);
                    ops.push(StreamOp::Expire { origin: v });
                }
            }
            engine.apply_batch(&ops);
            assert_bit_identical(&engine.result(), &reference(&cq, &shadow));
        }
    }
}
