//! Durability cost: what checkpointing adds to a steady-state continuous
//! round, and what recovery costs relative to cold re-execution.
//!
//! Workload: a continuous band join over `SENSJOIN_N` (default 1500)
//! nodes. The checkpointed run snapshots the full engine + network state
//! and appends one WAL digest record every round — the worst-case cadence
//! (`--checkpoint-every 1`).
//!
//! Acceptance gates (asserted here, recorded in `BENCH_engine.json`):
//!
//! * steady-state overhead: checkpointing every round costs ≤ 10 % of the
//!   plain per-round epoch cost — each round and the checkpoint that
//!   follows it are timed apart over one engine, and the gate reads
//!   Σ checkpoint / Σ round over `MEASURED_ROUNDS` rounds, so a round's own
//!   run-to-run swing does not enter the ratio;
//! * recovery: restoring the newest snapshot and replaying the WAL suffix
//!   costs ≤ 0.3× re-executing the crashed run from a cold start.

use criterion::{black_box, BenchmarkId, Criterion};
use sensjoin_bench::benchjson;
use sensjoin_core::persist::{self, CheckpointStore, Reader, Writer};
use sensjoin_core::{ContinuousSensJoin, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, FieldSpec, Placement};
use sensjoin_query::{parse, CompiledQuery};
use std::time::{Duration, Instant};

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
const SEED: u64 = 11;
const MEASURED_ROUNDS: u64 = 16;
const CRASHED_ROUNDS: u64 = 9;
const EVERY: u64 = 2;
const REPS: usize = 2;

fn nodes() -> usize {
    std::env::var("SENSJOIN_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sensjoin-recovery-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(n: usize) -> (SensorNetwork, CompiledQuery, Vec<FieldSpec>) {
    let specs = presets::indoor_climate();
    let snet = SensorNetworkBuilder::new()
        .area(Area::new(1000.0, 1000.0))
        .placement(Placement::UniformRandom { n })
        .fields(specs.clone())
        .seed(SEED)
        .build()
        .unwrap();
    let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
    (snet, cq, specs)
}

fn round(
    snet: &mut SensorNetwork,
    cont: &mut ContinuousSensJoin,
    cq: &CompiledQuery,
    specs: &[FieldSpec],
    r: u64,
) {
    if r > 0 {
        snet.resample(specs, SEED.wrapping_add(r));
    }
    black_box(cont.execute_round(snet, cq).unwrap());
}

fn checkpoint(
    store: &mut CheckpointStore,
    snet: &SensorNetwork,
    cont: &ContinuousSensJoin,
    r: u64,
) {
    let mut w = Writer::new();
    w.put_u64(r);
    w.put_u64(0x5ca1ab1e); // digest stand-in; cost is in the snapshot
    store.append_wal(&w.into_bytes()).unwrap();
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    persist::put_net_snapshot(&mut w, &snet.net().export_state());
    store.save_snapshot(r + 1, &w.into_bytes()).unwrap();
}

fn main() {
    let n = nodes();
    let mut criterion = Criterion::default();

    // Steady-state overhead: MEASURED_ROUNDS rounds after a warm-up
    // round, each followed by a checkpoint, over one engine and one store.
    let (mut round_t, mut ckpt_t) = (Duration::ZERO, Duration::ZERO);
    {
        let dir = tmpdir("overhead");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let (mut snet, cq, specs) = build(n);
        let mut cont = ContinuousSensJoin::new();
        round(&mut snet, &mut cont, &cq, &specs, 0);
        for r in 1..=MEASURED_ROUNDS {
            let t0 = Instant::now();
            round(&mut snet, &mut cont, &cq, &specs, r);
            let t1 = Instant::now();
            checkpoint(&mut store, &snet, &cont, r);
            round_t += t1 - t0;
            ckpt_t += t1.elapsed();
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let overhead = ckpt_t.as_secs_f64() / round_t.as_secs_f64();
    let per_round = |t: Duration| t.as_secs_f64() * 1e3 / MEASURED_ROUNDS as f64;

    // Crashed run: CRASHED_ROUNDS rounds, checkpoint every EVERY rounds,
    // then the process "dies". The newest snapshot covers all but the last
    // round; recovery restores it and replays the WAL suffix.
    let dir = tmpdir("recover");
    {
        let mut store = CheckpointStore::open(&dir).unwrap();
        let (mut snet, cq, specs) = build(n);
        let mut cont = ContinuousSensJoin::new();
        for r in 0..CRASHED_ROUNDS {
            round(&mut snet, &mut cont, &cq, &specs, r);
            let mut w = Writer::new();
            w.put_u64(r);
            w.put_u64(0x5ca1ab1e);
            store.append_wal(&w.into_bytes()).unwrap();
            if (r + 1) % EVERY == 0 {
                let mut w = Writer::new();
                cont.encode_state(&mut w);
                persist::put_net_snapshot(&mut w, &snet.net().export_state());
                store.save_snapshot(r + 1, &w.into_bytes()).unwrap();
            }
        }
    }

    // Recovery: restore + replay to the crashed run's last completed
    // round. Repeatable — replayed rounds are already in the WAL, so
    // nothing is appended.
    let recover_once = || {
        let store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        let (seq, payload) = rec.snapshot.as_ref().expect("snapshot durable");
        let (mut snet, cq, specs) = build(n);
        let mut cont = ContinuousSensJoin::new();
        let mut r = Reader::new(payload);
        cont.restore_state(&mut r, &cq).unwrap();
        let snap = persist::get_net_snapshot(&mut r).unwrap();
        snet.net_mut().restore_state(&snap).unwrap();
        r.expect_end().unwrap();
        for r in *seq..CRASHED_ROUNDS {
            round(&mut snet, &mut cont, &cq, &specs, r);
        }
        black_box((snet, cont));
    };
    let cold_once = || {
        let (mut snet, cq, specs) = build(n);
        let mut cont = ContinuousSensJoin::new();
        for r in 0..CRASHED_ROUNDS {
            round(&mut snet, &mut cont, &cq, &specs, r);
        }
        black_box((snet, cont));
    };
    let mut recover_t = Duration::MAX;
    let mut cold_t = Duration::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        recover_once();
        recover_t = recover_t.min(t0.elapsed());
        let t0 = Instant::now();
        cold_once();
        cold_t = cold_t.min(t0.elapsed());
    }
    let ratio = recover_t.as_secs_f64() / cold_t.as_secs_f64();

    // Gates.
    assert!(
        overhead <= 0.10,
        "gate violated: steady-state checkpoint overhead {:.1} % > 10 % \
         ({:.1} ms/round, {:.2} ms/checkpoint)",
        overhead * 100.0,
        per_round(round_t),
        per_round(ckpt_t)
    );
    assert!(
        ratio <= 0.3,
        "gate violated: recovery {:.2}× cold re-execution > 0.3× \
         ({:.1} ms recover vs {:.1} ms cold)",
        ratio,
        recover_t.as_secs_f64() * 1e3,
        cold_t.as_secs_f64() * 1e3
    );

    {
        let mut bg = criterion.benchmark_group("recovery_overhead");
        bg.bench_with_input(BenchmarkId::new("round_plain", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let (mut snet, cq, specs) = build(n);
                let mut cont = ContinuousSensJoin::new();
                round(&mut snet, &mut cont, &cq, &specs, 0);
                let start = Instant::now();
                for i in 0..iters {
                    round(&mut snet, &mut cont, &cq, &specs, i + 1);
                }
                start.elapsed()
            })
        });
        bg.bench_with_input(BenchmarkId::new("round_checkpointed", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let dir = tmpdir("crit");
                let mut store = CheckpointStore::open(&dir).unwrap();
                let (mut snet, cq, specs) = build(n);
                let mut cont = ContinuousSensJoin::new();
                round(&mut snet, &mut cont, &cq, &specs, 0);
                let start = Instant::now();
                for i in 0..iters {
                    round(&mut snet, &mut cont, &cq, &specs, i + 1);
                    checkpoint(&mut store, &snet, &cont, i + 1);
                }
                let t = start.elapsed();
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
                t
            })
        });
        bg.bench_with_input(BenchmarkId::new("recover", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    recover_once();
                }
                start.elapsed()
            })
        });
        bg.finish();
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "recovery_overhead: checkpoint-every-round overhead {:.1} % \
         ({:.1} ms/round, {:.2} ms/checkpoint at n = {n})",
        overhead * 100.0,
        per_round(round_t),
        per_round(ckpt_t)
    );
    println!(
        "recovery_overhead: recover {:.1} ms vs cold re-execution {:.1} ms \
         → {ratio:.2}× ({CRASHED_ROUNDS} rounds crashed, snapshot every {EVERY})",
        recover_t.as_secs_f64() * 1e3,
        cold_t.as_secs_f64() * 1e3
    );

    let results = criterion.results().to_vec();
    let extras = [
        ("nodes", format!("{n}")),
        ("measured_rounds", format!("{MEASURED_ROUNDS}")),
        ("crashed_rounds", format!("{CRASHED_ROUNDS}")),
        ("checkpoint_every", format!("{EVERY}")),
        ("overhead_fraction", format!("{overhead:.4}")),
        (
            "recover_ms",
            format!("{:.2}", recover_t.as_secs_f64() * 1e3),
        ),
        ("cold_ms", format!("{:.2}", cold_t.as_secs_f64() * 1e3)),
        ("recovery_ratio", format!("{ratio:.3}")),
        (
            "gate",
            "\"checkpoint-every-round overhead <= 10% of epoch cost, \
             recovery <= 0.3x cold re-execution\""
                .to_string(),
        ),
    ];
    benchjson::merge_section(
        "recovery_overhead",
        &benchjson::section_value(&results, &extras),
    );
}
