//! `continuous_lossy_1500`: the steady state. An op is one continuous round
//! with durability: resample the drifting field, `execute_round` over a 5 %
//! lossy channel with ACK/retransmit, append the round's digest to the WAL,
//! and write a full snapshot through `CheckpointStore`.

use super::{
    build_network, median_ms, oracle_tuples, span_ms_per_op, RunConfig, SimTally, Workload,
    DEPLOYMENT_SEED,
};
use crate::probes::{self, quantize_all, Own};
use crate::report::Metrics;
use crate::stats;
use crate::trace::{Span, Tracer};
use sensjoin::core::persist::{self, CheckpointStore, Reader, Writer};
use sensjoin::core::{
    exact_join, CellCounts, ContinuousSensJoin, FilterEngine, JoinOutcome, JoinSpace,
    SensJoinConfig, SensorNetwork, StreamJoinEngine, StreamOp,
};
use sensjoin::field::{presets, FieldSpec};
use sensjoin::query::{parse, CompiledQuery};
use sensjoin::relation::NodeId;
use sensjoin::sim::{ArqPolicy, Channel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 30";
const NODES: usize = 1_500;
const WARM_UP: usize = 10;
const OPS_PER_SECOND: f64 = 36.0;
const LOSS: f64 = 0.05;
const MAX_RETRIES: u32 = 16;
/// Rounds between oracle checks (`complete` is checked every round).
const ORACLE_EVERY: usize = 10;
const RECOVERIES: usize = 30;
const PROBE_ROUNDS: usize = 8;

/// The field of round `r`: the fixed climate with every attribute's
/// measurement noise scaled by `1 + 0.25·tri(r/16)`. The noise draws are
/// the same every round (fixed seed), so readings drift slowly back and
/// forth and each round moves a small share of the nodes across a cell
/// boundary — the regime delta collection is built for.
fn field_of_round(base: &[FieldSpec], r: usize) -> Vec<FieldSpec> {
    let phase = (r % 16) as f64 / 16.0;
    let tri = 1.0 - (2.0 * phase - 1.0).abs();
    base.iter()
        .map(|s| FieldSpec {
            noise: s.noise * (1.0 + 0.25 * tri),
            ..s.clone()
        })
        .collect()
}

/// Checkpoint directories are per set-up: unique within the process by a
/// counter, across processes by the pid.
fn fresh_checkpoint_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = crate::out_dir().join(format!(
        "ckpt-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub struct Continuous {
    seed: u64,
    snet: SensorNetwork,
    cq: CompiledQuery,
    specs: Vec<FieldSpec>,
    cont: ContinuousSensJoin,
    store: CheckpointStore,
    snapshot_bytes: usize,
    tally: SimTally,
}

/// The full durable state: engine, then network.
fn encode_state(cont: &ContinuousSensJoin, snet: &SensorNetwork) -> Vec<u8> {
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    persist::put_net_snapshot(&mut w, &snet.net().export_state());
    w.into_bytes()
}

/// The workload's network: placement from `seed`, 5 % Bernoulli loss drawn
/// from `seed`, per-fragment ACK/retransmit.
fn lossy_network(nodes: usize, seed: u64, specs: &[FieldSpec]) -> SensorNetwork {
    let mut snet = build_network(nodes, seed, specs);
    snet.net_mut()
        .set_channel(Some(Channel::bernoulli(LOSS, seed)));
    snet.net_mut().set_arq(ArqPolicy::ack(MAX_RETRIES));
    snet
}

impl Continuous {
    fn round(&mut self, r: usize, tracer: &mut Tracer) -> JoinOutcome {
        let s = tracer.enter("field.resample");
        self.snet
            .resample(&field_of_round(&self.specs, r), DEPLOYMENT_SEED);
        tracer.exit(s, self.snet.len() as u64);

        let s = tracer.enter("core.continuous.execute_round");
        let out = self
            .cont
            .execute_round(&mut self.snet, &self.cq)
            .expect("the base station is connected");
        tracer.exit(s, out.result.len() as u64);

        let s = tracer.enter("core.persist.append_wal");
        let mut w = Writer::new();
        w.put_u64(r as u64);
        w.put_u64(out.stats.total_cost_bytes());
        self.store
            .append_wal(&w.into_bytes())
            .expect("the WAL is writable");
        tracer.exit(s, 16);

        let s = tracer.enter("core.persist.encode");
        let payload = encode_state(&self.cont, &self.snet);
        tracer.exit(s, payload.len() as u64);

        let s = tracer.enter("core.persist.save_snapshot");
        self.store
            .save_snapshot(r as u64 + 1, &payload)
            .expect("the checkpoint directory is writable");
        tracer.exit(s, payload.len() as u64);
        self.snapshot_bytes = payload.len();
        out
    }

    /// Recovery as a restarted process does it: rebuild the network from
    /// its recipe, restore the newest snapshot into it and a fresh engine.
    /// Returns whether the restored state re-encodes to the live bytes.
    fn recover_matches_live(&self, live: &[u8]) -> bool {
        let rec = self.store.recover().expect("the store is readable");
        let Some((_, payload)) = rec.snapshot else {
            return false;
        };
        let mut snet = lossy_network(self.snet.len(), self.seed, &self.specs);
        let mut cont = ContinuousSensJoin::new();
        let mut r = Reader::new(&payload);
        let restored = cont.restore_state(&mut r, &self.cq).is_ok()
            && persist::get_net_snapshot(&mut r)
                .map(|snap| snet.net_mut().restore_state(&snap))
                .is_ok()
            && r.expect_end().is_ok();
        restored && !rec.degraded && encode_state(&cont, &snet) == live
    }
}

/// Adds `by` to the counters of `cell`'s relation roles.
fn count(delta: &mut CellCounts, cell: Option<Own>, by: i64) {
    if let Some(Own { z, flags }) = cell {
        let slots = delta.entry(z).or_insert([0; 8]);
        for (bit, slot) in slots.iter_mut().enumerate() {
            if flags.0 & (1 << bit) != 0 {
                *slot += by;
            }
        }
    }
}

fn upsert(snet: &SensorNetwork, cq: &CompiledQuery, v: NodeId) -> StreamOp {
    StreamOp::Upsert {
        origin: v,
        per_rel: (0..cq.num_relations())
            .map(|r| {
                let vals = snet.values_for(v, cq.schema(r));
                cq.eval_local(r, &vals).then_some(vals)
            })
            .collect(),
    }
}

impl Workload for Continuous {
    type Out = JoinOutcome;

    fn setup(cfg: &RunConfig) -> Self {
        let specs = presets::indoor_climate();
        let snet = lossy_network(cfg.scale(NODES, 75), cfg.seed, &specs);
        let cq = snet
            .compile(&parse(SQL).expect("workload SQL parses"))
            .expect("workload SQL compiles");
        let mut w = Continuous {
            seed: cfg.seed,
            snet,
            cq,
            specs,
            cont: ContinuousSensJoin::new(),
            store: CheckpointStore::open(fresh_checkpoint_dir())
                .expect("the checkpoint directory is writable"),
            snapshot_bytes: 0,
            tally: SimTally::default(),
        };
        for r in 0..WARM_UP {
            w.round(r, &mut Tracer::new(false));
        }
        w
    }

    /// The oracle is per round: `exact_join` over the current readings.
    fn build_oracle(&mut self) {}

    fn timed_ops(&self, cfg: &RunConfig) -> usize {
        cfg.timed_ops(OPS_PER_SECOND)
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> JoinOutcome {
        self.round(WARM_UP + i, tracer)
    }

    fn check(&mut self, i: usize, last: bool, out: JoinOutcome) -> bool {
        self.tally.ops += 1;
        self.tally.cost_bytes += out.stats.total_cost_bytes();
        self.tally.latency_us += out.latency_us;
        self.tally.add_stats(&out.stats);
        if !out.complete {
            return false;
        }
        if !i.is_multiple_of(ORACLE_EVERY) && !last {
            return true;
        }
        let reference = exact_join(&self.cq, &oracle_tuples(&self.snet, &self.cq));
        out.result.same_result(&reference.result) && out.contributors == reference.contributors
    }

    fn tally(&self) -> &SimTally {
        &self.tally
    }

    fn probes(
        &mut self,
        spans: &[Span],
        traced_ops: usize,
        m: &mut Metrics,
        ledger: &mut Vec<(String, f64)>,
        family_only: bool,
    ) {
        let per_op = |name| span_ms_per_op(spans, name, traced_ops);
        let field = per_op("field.resample");
        let round = per_op("core.continuous.execute_round");
        let encode = per_op("core.persist.encode");
        let save = per_op("core.persist.save_snapshot");
        let wal_us = 1e3 * per_op("core.persist.append_wal");
        m.set("core.continuous.round_ms", round);
        m.set("core.persist.encode_ms", encode);
        m.set("core.persist.save_snapshot_ms", save);
        m.set("core.persist.append_wal_us", wal_us);
        m.set("core.persist.snapshot_bytes", self.snapshot_bytes as f64);
        m.set(
            "core.ingest.candidates_per_op",
            self.cont.delta_stats().candidates_per_op(),
        );
        ledger.push(("field".into(), field));
        ledger.push(("core.continuous".into(), round));
        ledger.push(("core.persist".into(), encode + save + wal_us / 1e3));

        // Recovery: restore the newest snapshot, verify it against live.
        let live = encode_state(&self.cont, &self.snet);
        let mut times = Vec::with_capacity(RECOVERIES);
        for _ in 0..RECOVERIES {
            let t0 = Instant::now();
            let same = self.recover_matches_live(&live);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(same, "recovered state differs from the live state");
        }
        m.set("core.persist.recover_ms", stats::median_of(times));

        // Shadow engines on further rounds of the same drift: the filter
        // engine takes each round's counted cell delta, the stream engine
        // an upsert per node that changed cell.
        let space = JoinSpace::build(&self.cq, &self.snet, &SensJoinConfig::default());
        let mut net = self.snet.clone();
        let mut before = quantize_all(&net, &self.cq, &space);
        let mut filter = FilterEngine::new(&self.cq, &space);
        let mut all = CellCounts::default();
        before.iter().for_each(|&c| count(&mut all, c, 1));
        filter.apply_delta(&self.cq, &space, &all);
        let load: Vec<StreamOp> = (0..net.len() as u32)
            .map(|v| upsert(&net, &self.cq, NodeId(v)))
            .collect();
        m.set(
            "core.ingest.cold_load_ms",
            median_ms(3, || {
                StreamJoinEngine::new(self.cq.clone()).apply_batch(&load)
            }),
        );
        let mut stream = StreamJoinEngine::new(self.cq.clone());
        stream.apply_batch(&load);
        let (mut delta_us, mut batch_us) = (Vec::new(), Vec::new());
        let first = WARM_UP + 2 * traced_ops;
        for r in first..first + PROBE_ROUNDS {
            net.resample(&field_of_round(&self.specs, r), DEPLOYMENT_SEED);
            let after = quantize_all(&net, &self.cq, &space);
            let mut delta = CellCounts::default();
            let mut moved = Vec::new();
            for (v, (&old, &new)) in before.iter().zip(&after).enumerate() {
                if old != new {
                    count(&mut delta, old, -1);
                    count(&mut delta, new, 1);
                    moved.push(upsert(&net, &self.cq, NodeId(v as u32)));
                }
            }
            let t0 = Instant::now();
            std::hint::black_box(filter.apply_delta(&self.cq, &space, &delta));
            delta_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            std::hint::black_box(stream.apply_batch(&moved));
            batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
            before = after;
        }
        m.set(
            "core.incremental.apply_delta_us",
            stats::median_of(delta_us),
        );
        m.set("core.ingest.apply_batch_us", stats::median_of(batch_us));

        if !family_only {
            probes::oneshot_family(&self.snet, SQL, &self.specs, None, m);
        }
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.dir());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_a_triangle_wave_of_period_sixteen() {
        let base = presets::indoor_climate();
        let scale = |r| field_of_round(&base, r)[0].noise / base[0].noise;
        assert_eq!(scale(0), 1.0);
        assert_eq!(scale(8), 1.25);
        assert_eq!(scale(4), 1.125);
        assert_eq!(scale(12), 1.125);
        assert_eq!(scale(16), 1.0);
        assert_eq!(field_of_round(&base, 5)[1].cross, base[1].cross);
    }
}
