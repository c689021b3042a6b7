//! A Bloom-filter semi-join variant — the road not taken.
//!
//! §V of the paper dismisses Bloom filters as the compact representation:
//! "Mechanisms like Bloom Filters cannot serve ... since they only allow for
//! evaluating equi-joins." This module implements that alternative honestly
//! so the benchmark suite can *show* the trade-off instead of citing it:
//!
//! * [`BloomSemiJoin`] only accepts two-relation queries whose every join
//!   predicate is an equality between attributes ([`ProtocolError`] is
//!   returned for Q1/Q2-style range or distance conditions);
//! * the collection phase aggregates one fixed-size Bloom filter per
//!   relation by OR-ing along the tree — near the leaves this costs the full
//!   filter width where SENS-Join ships a handful of bytes;
//! * both filters are flooded during dissemination — a Bloom filter cannot
//!   be intersected with a subtree's join-attribute knowledge, so Selective
//!   Filter Forwarding has no analogue;
//! * a node ships its tuple when its (quantized) key might be in the *other*
//!   relation's filter; Bloom false positives, like quantization false
//!   positives, are weeded out by the exact final join.
//!
//! Equality is evaluated on quantization cells (equal values always share a
//! cell, so there are no false negatives), keeping result exactness.

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{exact_join_batches, JoinSpace};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::repr::{NodeTable, Shipment};
use crate::snetwork::SensorNetwork;
use crate::wave::{down_wave, up_wave, DownArrival};
use crate::JoinMethod;
use sensjoin_query::{CmpOp, CompiledQuery, NumExpr, Pred};
use std::vec::Drain;

/// Phase labels.
pub const PHASE_BLOOM_COLLECTION: &str = "1-bloom-collection";
/// Filter-flood phase label.
pub const PHASE_BLOOM_FLOOD: &str = "2-bloom-flood";
/// Final phase label.
pub const PHASE_BLOOM_FINAL: &str = "3-bloom-final";

/// A classic Bloom filter over `u64` keys.
///
/// # Example
///
/// ```
/// use sensjoin_core::BloomFilter;
///
/// let mut f = BloomFilter::new(1024, 5);
/// f.insert(42);
/// assert!(f.contains(42));        // never a false negative
/// assert_eq!(f.wire_size(), 128); // fixed width, the §V trade-off
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
}

impl BloomFilter {
    /// Creates an `m`-bit filter with `k` hash functions.
    ///
    /// # Panics
    /// Panics if `m` is 0 or `k` is 0.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0);
        Self {
            bits: vec![0; m.div_ceil(64)],
            m,
            k,
        }
    }

    #[inline]
    fn index(&self, key: u64, i: u32) -> usize {
        // SplitMix64 with per-hash seeding: independent, fast, no tables.
        let mut z = key ^ (u64::from(i).wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z % self.m as u64) as usize
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        for i in 0..self.k {
            let b = self.index(key, i);
            self.bits[b / 64] |= 1 << (b % 64);
        }
    }

    /// Membership test (false positives possible, no false negatives).
    pub fn contains(&self, key: u64) -> bool {
        (0..self.k).all(|i| {
            let b = self.index(key, i);
            self.bits[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Unions another filter into this one (same parameters).
    ///
    /// # Panics
    /// Panics on parameter mismatch.
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!((self.m, self.k), (other.m, other.k), "incompatible filters");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.m.div_ceil(8)
    }

    /// Fraction of set bits (load factor).
    pub fn load(&self) -> f64 {
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(ones) / self.m as f64
    }
}

/// The Bloom-filter semi-join method (equi-joins over two relations only).
#[derive(Debug, Clone)]
pub struct BloomSemiJoin {
    /// Protocol parameters (quantization config is shared with SENS-Join).
    pub config: SensJoinConfig,
    /// Filter width per relation, in bits.
    pub bits: usize,
    /// Number of hash functions.
    pub hashes: u32,
}

impl Default for BloomSemiJoin {
    fn default() -> Self {
        Self {
            config: SensJoinConfig::default(),
            bits: 4096,
            hashes: 7,
        }
    }
}

/// Checks that the query is a pure two-relation equi-join; returns the
/// offending reason otherwise.
fn validate(query: &CompiledQuery) -> Result<(), ProtocolError> {
    if query.num_relations() != 2 {
        return Err(ProtocolError::Representation(
            "Bloom semi-join supports exactly two relations".to_owned(),
        ));
    }
    for pred in query.join_preds() {
        match pred {
            Pred::Cmp {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } => {
                let ok = matches!(
                    (lhs.as_ref(), rhs.as_ref()),
                    (NumExpr::Col { rel: a, .. }, NumExpr::Col { rel: b, .. }) if a != b
                );
                if !ok {
                    return Err(ProtocolError::Representation(
                        "Bloom semi-join needs attribute = attribute equality predicates"
                            .to_owned(),
                    ));
                }
            }
            other => {
                return Err(ProtocolError::Representation(format!(
                    "Bloom filters only allow equi-joins (paper §V); cannot evaluate {other:?}"
                )))
            }
        }
    }
    Ok(())
}

struct BloomPair {
    a: BloomFilter,
    b: BloomFilter,
}

impl JoinMethod for BloomSemiJoin {
    fn name(&self) -> &'static str {
        "bloom-semi-join"
    }

    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError> {
        validate(query)?;
        snet.net_mut().reset_stats();
        let space = JoinSpace::build(query, snet, &self.config);
        let table = NodeTable::build(snet, query, &space, Representation::Quadtree);
        let (bits, hashes) = (self.bits, self.hashes);
        // Keys are the quantized join-attribute cells: equal values always
        // share a cell, so no true match is lost.
        let flag_a = space.flag(0);
        let flag_b = space.flag(1);

        // ---- Phase 1: OR-aggregate one filter per relation up the tree ----
        let (pair, rep1) = up_wave(
            snet.net_mut(),
            &|_| true,
            |v, received: Drain<BloomPair>| {
                let mut out = BloomPair {
                    a: BloomFilter::new(bits, hashes),
                    b: BloomFilter::new(bits, hashes),
                };
                for p in received {
                    out.a.union(&p.a);
                    out.b.union(&p.b);
                }
                if let Some(rec) = table.tuple(v) {
                    if rec.flags.intersects(flag_a) {
                        out.a.insert(rec.z);
                    }
                    if rec.flags.intersects(flag_b) {
                        out.b.insert(rec.z);
                    }
                }
                out
            },
            |p| p.a.wire_size() + p.b.wire_size(),
            PHASE_BLOOM_COLLECTION,
        );

        // If any collection message was lost, the base's filters miss keys
        // and could wrongly prune true matches: degrade to pass-through
        // (exactly like SENS-Join's conservative fallback).
        let collection_damaged = !rep1.damaged.is_empty();

        // ---- Phase 2: flood both filters (no pruning possible) ----
        let flood = BloomPair {
            a: pair.a,
            b: pair.b,
        };
        let mut node_seen: Vec<bool> = vec![false; snet.len()];
        // Nodes whose flood copy was lost have no filter and must ship
        // everything.
        let mut node_flooded: Vec<bool> = vec![false; snet.len()];
        let pair_size = flood.a.wire_size() + flood.b.wire_size();
        // `true` = the message carries the real filter pair; `false` = the
        // sender's own copy was lost, so only a (cheap) "no filter" marker
        // travels and the receiver must pass everything through too.
        type FloodMsg = bool;
        let rep2 = down_wave(
            snet.net_mut(),
            &|_| true,
            |v, arrival: DownArrival<'_, FloodMsg>| {
                node_seen[v.0 as usize] = true;
                let have = match arrival {
                    DownArrival::Origin => true,
                    DownArrival::Intact(&have) => have,
                    DownArrival::Damaged => false,
                };
                node_flooded[v.0 as usize] = have;
                Some(have)
            },
            |have| if *have { pair_size } else { 1 },
            PHASE_BLOOM_FLOOD,
        );

        // ---- Phase 3: semi-join check against the *other* side ----
        let base = snet.base();
        let (batch, rep3) = up_wave(
            snet.net_mut(),
            &|_| true,
            |v, received: Drain<Shipment<_>>| {
                let mut batch = Shipment::merged(received);
                if let Some(rec) = table.tuple(v) {
                    let survives = collection_damaged
                        || !node_flooded[v.0 as usize]
                        || (rec.flags.intersects(flag_a) && flood.b.contains(rec.z))
                        || (rec.flags.intersects(flag_b) && flood.a.contains(rec.z));
                    if survives {
                        if v != base {
                            batch.bytes += rec.bytes as usize;
                        }
                        batch.entries.push(v);
                    }
                }
                batch
            },
            |b| b.bytes,
            PHASE_BLOOM_FINAL,
        );

        // ---- Exact join at the base station ----
        let tuples_per_rel = table.tuples_per_rel(snet, batch.entries);
        let computation = exact_join_batches(query, &tuples_per_rel);
        Ok(JoinOutcome {
            result: computation.result,
            stats: snet.net().stats().clone(),
            latency_us: rep1.timing.then(rep2.timing).then(rep3.timing).pipelined,
            latency_slotted_us: rep1.timing.then(rep2.timing).then(rep3.timing).slotted,
            contributors: computation.contributors,
            complete: rep3.damaged.is_empty(),
            churned: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::{ExternalJoin, QuantizationConfig};
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    #[test]
    fn bloom_filter_basics() {
        let mut f = BloomFilter::new(1024, 5);
        for key in 0..100u64 {
            f.insert(key * 7919);
        }
        for key in 0..100u64 {
            assert!(f.contains(key * 7919), "no false negatives");
        }
        let fps = (0..10_000u64)
            .map(|k| 1_000_000 + k)
            .filter(|&k| f.contains(k))
            .count();
        // ~100 keys in 1024 bits with 5 hashes: fp rate well below 10 %.
        assert!(fps < 1000, "{fps} false positives");
        assert!(f.load() > 0.0 && f.load() < 0.6);
        assert_eq!(f.wire_size(), 128);
    }

    #[test]
    fn union_is_bitwise() {
        let mut a = BloomFilter::new(256, 3);
        let mut b = BloomFilter::new(256, 3);
        a.insert(1);
        b.insert(2);
        a.union(&b);
        assert!(a.contains(1) && a.contains(2));
    }

    fn snet(seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(400.0, 400.0))
            .placement(Placement::UniformRandom { n: 150 })
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_non_equi_joins() {
        let mut s = snet(1);
        for sql in [
            // Range condition (Q1-style).
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 1.0 ONCE",
            // Distance condition (Q2-style).
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE distance(A.x, A.y, B.x, B.y) > 100 ONCE",
            // Equality, but against an expression.
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp = B.temp + 1 ONCE",
        ] {
            let cq = s.compile(&parse(sql).unwrap()).unwrap();
            let err = BloomSemiJoin::default().execute(&mut s, &cq);
            assert!(
                matches!(err, Err(ProtocolError::Representation(_))),
                "{sql} should be rejected"
            );
        }
    }

    #[test]
    fn equi_join_is_exact() {
        let mut s = snet(2);
        // Fine quantization so that "equal cell" is a selective key.
        let config = SensJoinConfig {
            quantization: QuantizationConfig::new().with("light", 0.0, 1000.0, 0.01),
            ..Default::default()
        };
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.light = B.light ONCE";
        let cq = s.compile(&parse(sql).unwrap()).unwrap();
        let ext = ExternalJoin.execute(&mut s, &cq).unwrap();
        let bloom = BloomSemiJoin {
            config,
            ..Default::default()
        }
        .execute(&mut s, &cq)
        .unwrap();
        // Note: both evaluate exact equality at the base; cells only gate
        // shipping.
        assert!(ext.result.same_result(&bloom.result));
    }

    #[test]
    fn fixed_size_filters_cost_more_near_leaves() {
        let mut s = snet(3);
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.light = B.light ONCE";
        let cq = s.compile(&parse(sql).unwrap()).unwrap();
        let bloom = BloomSemiJoin::default().execute(&mut s, &cq).unwrap();
        let sens = crate::SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(sens.result.same_result(&bloom.result));
        // The paper's point: the adaptive quadtree beats fixed-width Bloom
        // filters on collection volume.
        let quad = sens.stats.phase(crate::PHASE_COLLECTION).tx_bytes;
        let blm = bloom.stats.phase(PHASE_BLOOM_COLLECTION).tx_bytes;
        assert!(quad < blm, "quadtree {quad} !< bloom {blm}");
    }
}
