//! Crash-anywhere recovery equivalence.
//!
//! The durability subsystem's contract: a run that crashes at *any*
//! registered [`CrashPoint`] and resumes from its checkpoint directory is
//! bit-identical — results, stats, traces, RNG streams — to a run that
//! never crashed. Recovery is replay-by-re-execution: the snapshot restores
//! the full engine + network state, and the WAL's per-round digests pin the
//! re-executed suffix to what the pre-crash run produced. Corruption
//! (torn writes, bit flips, truncation) is detected by checksums and
//! degrades honestly: fall back to an older snapshot, then to a cold
//! start — never a panic, never a silently wrong answer.

use proptest::prelude::*;
use sensjoin_core::persist::{
    self, CheckpointStore, CrashPoint, Persist, Reader, RecoveryError, Writer,
};
use sensjoin_core::{
    exact_join, node_tuples, BatchStats, ContinuousSensJoin, JoinOutcome, JoinResult, QueryGroup,
    QueryId, SensJoinConfig, SensorNetwork, SensorNetworkBuilder, StreamJoinEngine, StreamOp,
};
use sensjoin_field::{presets, Area, FieldSpec, Placement};
use sensjoin_quadtree::PointSet;
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::NodeId;
use sensjoin_sim::{ArqPolicy, Channel, ChurnTimeline, NetworkStats};
use std::collections::BTreeMap;

const SQL_CONT: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                        WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30";
/// The paper's Q1 (the minimal distance between two points with a
/// temperature difference over a threshold every seed's field spans) and an
/// equality join (each node pairs with itself at least).
const SQL_Q1: &str = "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
                      WHERE A.temp - B.temp > 1.0 SAMPLE PERIOD 30";
const SQL_EQUI: &str = "SELECT A.hum, B.temp FROM Sensors A, Sensors B \
                        WHERE A.temp = B.temp SAMPLE PERIOD 30";
const SQL_STREAM: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                          WHERE A.temp - B.temp > 2.0 ONCE";

const N: usize = 80;
const ROUNDS: u64 = 6;
const EVERY: u64 = 2;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sensjoin-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deployment under both loss and churn, with tracing on so trace
/// equality is part of the bit-identity claim.
fn build(seed: u64, sql: &str) -> (SensorNetwork, CompiledQuery, Vec<FieldSpec>) {
    let specs = presets::indoor_climate();
    let mut snet = SensorNetworkBuilder::new()
        .area(Area::new(300.0, 300.0))
        .placement(Placement::UniformRandom { n: N })
        .fields(specs.clone())
        .seed(seed)
        .build()
        .unwrap();
    snet.net_mut()
        .set_channel(Some(Channel::bernoulli(0.05, 7)));
    snet.net_mut()
        .set_arq(ArqPolicy::AckRetransmit { max_retries: 8 });
    let tl = ChurnTimeline::sample(N, snet.net().base(), 60e6, 30e6, 200_000_000, 13);
    snet.net_mut().set_churn(Some(tl));
    snet.net_mut().set_tracing(true);
    let cq = snet.compile(&parse(sql).unwrap()).unwrap();
    (snet, cq, specs)
}

/// What the WAL records per round (mirrors the CLI driver).
fn outcome_digest(out: &JoinOutcome) -> u64 {
    let mut w = Writer::new();
    match &out.result {
        JoinResult::Rows(rows) => {
            w.put_u8(0);
            w.put_usize(rows.len());
            for row in rows {
                row.put(&mut w);
            }
        }
        JoinResult::Aggregate(vals) => {
            w.put_u8(1);
            w.put_usize(vals.len());
            for v in vals {
                match v {
                    Some(v) => {
                        w.put_bool(true);
                        w.put_f64(*v);
                    }
                    None => w.put_bool(false),
                }
            }
        }
    }
    w.put_u64(out.stats.total_tx_bytes());
    w.put_u64(out.latency_us);
    w.put_bool(out.complete);
    persist::fnv1a(&w.into_bytes())
}

/// Full observable state: engine + network (stats, trace, RNG streams).
fn full_state(cont: &ContinuousSensJoin, snet: &SensorNetwork) -> Vec<u8> {
    let mut w = Writer::new();
    cont.encode_state(&mut w);
    persist::put_net_snapshot(&mut w, &snet.net().export_state());
    w.into_bytes()
}

fn wal_digests(wal: &[Vec<u8>], start: u64) -> BTreeMap<u64, u64> {
    let mut digests = BTreeMap::new();
    for payload in wal {
        let mut r = Reader::new(payload);
        let round = r.get_u64().unwrap();
        let digest = r.get_u64().unwrap();
        r.expect_end().unwrap();
        if round >= start {
            digests.insert(round, digest);
        }
    }
    digests
}

/// Runs rounds `start..rounds`, checkpointing at the `EVERY` cadence when a
/// store is given; verifies replayed rounds against the WAL and logs fresh
/// ones. Propagates injected crashes. Returns how many rounds answered
/// something: a row or a non-empty aggregate.
#[allow(clippy::too_many_arguments)]
fn run_span(
    snet: &mut SensorNetwork,
    cont: &mut ContinuousSensJoin,
    cq: &CompiledQuery,
    specs: &[FieldSpec],
    seed: u64,
    mut store: Option<&mut CheckpointStore>,
    start: u64,
    rounds: u64,
    wal: &BTreeMap<u64, u64>,
    digests: &mut Vec<u64>,
) -> Result<usize, RecoveryError> {
    let mut answered = 0;
    for r in start..rounds {
        if r > 0 {
            snet.resample(specs, seed.wrapping_add(r));
        }
        let out = cont.execute_round(snet, cq).expect("round executes");
        answered += usize::from(match &out.result {
            JoinResult::Rows(rows) => !rows.is_empty(),
            JoinResult::Aggregate(values) => values.iter().any(Option::is_some),
        });
        let digest = outcome_digest(&out);
        digests.push(digest);
        if let Some(store) = store.as_deref_mut() {
            store.crash_check(CrashPoint::PostRound)?;
            match wal.get(&r) {
                Some(&logged) => assert_eq!(logged, digest, "replay diverged at round {r}"),
                None => {
                    let mut w = Writer::new();
                    w.put_u64(r);
                    w.put_u64(digest);
                    store.append_wal(&w.into_bytes())?;
                }
            }
            if (r + 1) % EVERY == 0 {
                snet.net_mut().note_checkpoint("continuous");
                let mut w = Writer::new();
                cont.encode_state(&mut w);
                persist::put_net_snapshot(&mut w, &snet.net().export_state());
                store.save_snapshot(r + 1, &w.into_bytes())?;
            }
        }
    }
    Ok(answered)
}

/// Opens the directory fresh (as a restarted process would), restores the
/// newest valid snapshot, re-executes the suffix against the WAL, and
/// returns the replayed digests plus the final full state.
fn recover_and_finish(
    dir: &std::path::Path,
    seed: u64,
    sql: &str,
    rounds: u64,
) -> (u64, Vec<u64>, Vec<u8>) {
    let (mut snet, cq, specs) = build(seed, sql);
    let mut cont = ContinuousSensJoin::new();
    let mut store = CheckpointStore::open(dir).unwrap();
    let rec = store.recover().unwrap();
    let mut start = 0;
    if let Some((seq, payload)) = &rec.snapshot {
        let mut r = Reader::new(payload);
        cont.restore_state(&mut r, &cq).unwrap();
        let snap = persist::get_net_snapshot(&mut r).unwrap();
        snet.net_mut().restore_state(&snap).unwrap();
        r.expect_end().unwrap();
        start = *seq;
    }
    let wal = wal_digests(&rec.wal, start);
    let mut digests = Vec::new();
    run_span(
        &mut snet,
        &mut cont,
        &cq,
        &specs,
        seed,
        Some(&mut store),
        start,
        rounds,
        &wal,
        &mut digests,
    )
    .unwrap();
    (start, digests, full_state(&cont, &snet))
}

/// Reference: one uninterrupted run with checkpointing at the same cadence.
/// Returns its digests, its final state and how many rounds answered
/// something.
fn reference_run(
    dir: &std::path::Path,
    seed: u64,
    sql: &str,
    rounds: u64,
) -> (Vec<u64>, Vec<u8>, usize) {
    let (mut snet, cq, specs) = build(seed, sql);
    let mut cont = ContinuousSensJoin::new();
    let mut store = CheckpointStore::open(dir).unwrap();
    let mut digests = Vec::new();
    let answered = run_span(
        &mut snet,
        &mut cont,
        &cq,
        &specs,
        seed,
        Some(&mut store),
        0,
        rounds,
        &BTreeMap::new(),
        &mut digests,
    )
    .unwrap();
    (digests, full_state(&cont, &snet), answered)
}

/// Crash at (point, occurrence), then recover; returns the recovered run's
/// final state and the digest trail `prefix + replay/suffix`.
fn crash_and_recover(
    tag: &str,
    seed: u64,
    sql: &str,
    point: CrashPoint,
    occurrence: u32,
) -> (Vec<u64>, Vec<u8>) {
    let dir = tmpdir(tag);
    let (mut snet, cq, specs) = build(seed, sql);
    let mut cont = ContinuousSensJoin::new();
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.arm_crash(point, occurrence);
    let mut pre_crash = Vec::new();
    let err = run_span(
        &mut snet,
        &mut cont,
        &cq,
        &specs,
        seed,
        Some(&mut store),
        0,
        ROUNDS,
        &BTreeMap::new(),
        &mut pre_crash,
    )
    .expect_err("armed crash must fire");
    assert!(
        matches!(err, RecoveryError::Crash(p) if p == point),
        "unexpected error for {point}: {err}"
    );
    drop(store); // the "process" died; recovery opens the dir fresh
    let (start, replayed, state) = recover_and_finish(&dir, seed, sql, ROUNDS);
    // The digest trail across crash + recovery covers every round exactly
    // once: rounds before the restored snapshot ran pre-crash, the rest
    // re-executed.
    let mut trail: Vec<u64> = pre_crash[..start as usize].to_vec();
    trail.extend(&replayed);
    let _ = std::fs::remove_dir_all(&dir);
    (trail, state)
}

/// The sweep runs the band join, Q1's aggregate and an equality join.
#[test]
fn crash_anywhere_sweep_is_bit_identical_under_loss_and_churn() {
    let seed = 42;
    for sql in [SQL_CONT, SQL_Q1, SQL_EQUI] {
        let ref_dir = tmpdir("cont-ref");
        let (ref_digests, ref_state, answered) = reference_run(&ref_dir, seed, sql, ROUNDS);
        let _ = std::fs::remove_dir_all(&ref_dir);
        if sql != SQL_CONT {
            assert!(answered > 0, "no round answered anything: {sql}");
        }

        // Checkpointing must not perturb the run it checkpoints (modulo the
        // checkpoint trace rows, which the digests exclude).
        let (mut snet, cq, specs) = build(seed, sql);
        let mut cont = ContinuousSensJoin::new();
        let mut plain = Vec::new();
        run_span(
            &mut snet,
            &mut cont,
            &cq,
            &specs,
            seed,
            None,
            0,
            ROUNDS,
            &BTreeMap::new(),
            &mut plain,
        )
        .unwrap();
        assert_eq!(plain, ref_digests, "checkpointing perturbed the run: {sql}");

        for point in CrashPoint::ALL {
            let (trail, state) = crash_and_recover("cont-sweep", seed, sql, point, 2);
            assert_eq!(
                trail, ref_digests,
                "digest trail diverged after crash at {point}: {sql}"
            );
            assert_eq!(
                state, ref_state,
                "final state diverged after crash at {point}: {sql}"
            );
        }
    }
}

/// A snapshot written under another format version — well-formed, checksum
/// valid — is passed over like a corrupt one: recovery falls back to the
/// older snapshot, or to a cold start when no snapshot of this version is
/// left, flags the run `degraded`, and the resumed run is still
/// bit-identical to the uninterrupted one.
#[test]
fn other_version_snapshots_are_passed_over() {
    let seed = 42;
    let ref_dir = tmpdir("cont-version-ref");
    let (ref_digests, ref_state, _) = reference_run(&ref_dir, seed, SQL_CONT, ROUNDS);
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Four rounds leave snapshots 2 and 4; `foreign` of them get re-framed.
    for (foreign, resume_at) in [(&[4u64][..], 2), (&[2, 4][..], 0)] {
        let dir = tmpdir("cont-version");
        let (mut snet, cq, specs) = build(seed, SQL_CONT);
        let mut cont = ContinuousSensJoin::new();
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut before = Vec::new();
        run_span(
            &mut snet,
            &mut cont,
            &cq,
            &specs,
            seed,
            Some(&mut store),
            0,
            4,
            &BTreeMap::new(),
            &mut before,
        )
        .unwrap();
        for &seq in foreign {
            // The checksum covers everything after the version field, so
            // the re-framed file is intact in every other respect.
            let path = store.snapshot_path(seq);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&(persist::SNAPSHOT_VERSION - 1).to_le_bytes());
            std::fs::write(&path, bytes).unwrap();
        }
        drop(store);

        let rec = CheckpointStore::open(&dir).unwrap().recover().unwrap();
        assert!(rec.degraded, "a skipped snapshot must be reported");
        assert_eq!(rec.snapshot.map_or(0, |(seq, _)| seq), resume_at);
        assert_eq!(rec.wal.len(), 4, "the WAL is untouched");

        let (start, replayed, state) = recover_and_finish(&dir, seed, SQL_CONT, ROUNDS);
        assert_eq!(start, resume_at);
        let mut trail = before[..start as usize].to_vec();
        trail.extend(&replayed);
        assert_eq!(trail, ref_digests, "digest trail diverged");
        assert_eq!(state, ref_state, "final state diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random crash site, occurrence and deployment seed: recovery is
    /// always bit-identical to the uninterrupted run.
    #[test]
    fn crash_recovery_bit_identical_proptest(
        point_ix in 0usize..CrashPoint::ALL.len(),
        occurrence in 1u32..3,
        seed in 1u64..500,
    ) {
        let point = CrashPoint::ALL[point_ix];
        let ref_dir = tmpdir("cont-prop-ref");
        let (ref_digests, ref_state, _) = reference_run(&ref_dir, seed, SQL_CONT, ROUNDS);
        let _ = std::fs::remove_dir_all(&ref_dir);
        let (trail, state) = crash_and_recover("cont-prop", seed, SQL_CONT, point, occurrence);
        prop_assert_eq!(trail, ref_digests);
        prop_assert_eq!(state, ref_state);
    }
}

// ---------------------------------------------------------------------------
// Streaming engine
// ---------------------------------------------------------------------------

fn stream_build(seed: u64) -> (SensorNetwork, CompiledQuery, Vec<FieldSpec>) {
    let specs = presets::indoor_climate();
    let snet = SensorNetworkBuilder::new()
        .area(Area::new(300.0, 300.0))
        .placement(Placement::UniformRandom { n: N })
        .fields(specs.clone())
        .seed(seed)
        .build()
        .unwrap();
    let cq = snet.compile(&parse(SQL_STREAM).unwrap()).unwrap();
    (snet, cq, specs)
}

fn lcg(rng: &mut u64, m: u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*rng >> 33) % m.max(1)
}

type Shadow = BTreeMap<NodeId, Vec<Option<Vec<f64>>>>;

struct StreamRun {
    engine: StreamJoinEngine,
    shadow: Shadow,
    rng: u64,
}

fn stream_snapshot(run: &StreamRun) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(run.rng);
    w.put_usize(run.shadow.len());
    for (v, pr) in &run.shadow {
        w.put_u32(v.0);
        w.put_usize(pr.len());
        for p in pr {
            match p {
                Some(vals) => {
                    w.put_bool(true);
                    vals.put(&mut w);
                }
                None => w.put_bool(false),
            }
        }
    }
    run.engine.live_tuples().put(&mut w);
    w.into_bytes()
}

fn stream_restore(payload: &[u8], cq: &CompiledQuery) -> StreamRun {
    let mut r = Reader::new(payload);
    let rng = r.get_u64().unwrap();
    let nshadow = r.get_count(5).unwrap();
    let mut shadow = Shadow::new();
    for _ in 0..nshadow {
        let v = NodeId(r.get_u32().unwrap());
        let nrel = r.get_count(1).unwrap();
        let mut pr = Vec::with_capacity(nrel);
        for _ in 0..nrel {
            pr.push(match r.get_bool().unwrap() {
                true => Some(Vec::<f64>::get(&mut r).unwrap()),
                false => None,
            });
        }
        shadow.insert(v, pr);
    }
    let tuples = Vec::get(&mut r).unwrap();
    let engine = persist::stream_engine_from_tuples(cq.clone(), &tuples).unwrap();
    r.expect_end().unwrap();
    StreamRun {
        engine,
        shadow,
        rng,
    }
}

/// One delta batch of the stream driver (5 % upserts against a drifting
/// field plus a couple of expirations), returning the batch digest.
fn stream_batch(
    run: &mut StreamRun,
    snet: &mut SensorNetwork,
    cq: &CompiledQuery,
    specs: &[FieldSpec],
    seed: u64,
    b: u64,
) -> u64 {
    snet.resample(specs, seed.wrapping_add(b));
    let n = snet.len() as u32;
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < 6 {
        chosen.insert(NodeId(lcg(&mut run.rng, n as u64) as u32));
    }
    let expirable: Vec<NodeId> = run
        .shadow
        .keys()
        .filter(|v| !chosen.contains(v))
        .copied()
        .collect();
    let mut victims = std::collections::BTreeSet::new();
    while victims.len() < 2.min(expirable.len()) {
        victims.insert(expirable[lcg(&mut run.rng, expirable.len() as u64) as usize]);
    }
    let mut ops = Vec::new();
    for &v in &chosen {
        let pr = node_tuples(snet, cq, v, snet.readings(v));
        run.shadow.insert(v, pr.clone());
        ops.push(StreamOp::Upsert {
            origin: v,
            per_rel: pr,
        });
    }
    for &v in &victims {
        run.shadow.remove(&v);
        ops.push(StreamOp::Expire { origin: v });
    }
    let stats = run.engine.apply_batch(&ops);
    let mut w = Writer::new();
    stats.put(&mut w);
    w.put_usize(run.engine.cached_rows());
    persist::fnv1a(&w.into_bytes())
}

fn stream_cold(run: &mut StreamRun, snet: &SensorNetwork, cq: &CompiledQuery) {
    let n = snet.len() as u32;
    let ops: Vec<StreamOp> = (0..n)
        .map(|i| {
            let v = NodeId(i);
            let pr = node_tuples(snet, cq, v, snet.readings(v));
            run.shadow.insert(v, pr.clone());
            StreamOp::Upsert {
                origin: v,
                per_rel: pr,
            }
        })
        .collect();
    run.engine.apply_batch(&ops);
}

#[test]
fn stream_crash_anywhere_sweep_is_bit_identical() {
    let seed = 7;
    let batches = 6u64;

    // Reference: uninterrupted, checkpoint every other batch.
    let run_reference = || -> (Vec<u64>, Vec<u8>) {
        let (mut snet, cq, specs) = stream_build(seed);
        let mut run = StreamRun {
            engine: StreamJoinEngine::new(cq.clone()),
            shadow: Shadow::new(),
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        };
        stream_cold(&mut run, &snet, &cq);
        let mut digests = Vec::new();
        for b in 1..=batches {
            digests.push(stream_batch(&mut run, &mut snet, &cq, &specs, seed, b));
        }
        (digests, stream_snapshot(&run))
    };
    let (ref_digests, ref_state) = run_reference();

    for point in CrashPoint::ALL {
        let dir = tmpdir("stream-sweep");
        let (mut snet, cq, specs) = stream_build(seed);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.arm_crash(point, 2);
        let mut run = StreamRun {
            engine: StreamJoinEngine::new(cq.clone()),
            shadow: Shadow::new(),
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        };
        stream_cold(&mut run, &snet, &cq);
        let mut trail = Vec::new();
        let mut crashed = false;
        for b in 1..=batches {
            let digest = stream_batch(&mut run, &mut snet, &cq, &specs, seed, b);
            trail.push(digest);
            let mut step = || -> Result<(), RecoveryError> {
                store.crash_check(CrashPoint::PostRound)?;
                let mut w = Writer::new();
                w.put_u64(b);
                w.put_u64(digest);
                store.append_wal(&w.into_bytes())?;
                if b % EVERY == 0 {
                    store.save_snapshot(b, &stream_snapshot(&run))?;
                }
                Ok(())
            };
            if let Err(err) = step() {
                assert!(matches!(err, RecoveryError::Crash(p) if p == point));
                crashed = true;
                trail.truncate(0); // rebuilt below from the recovery split
                break;
            }
        }
        assert!(crashed, "armed crash at {point} never fired");

        // Recover: fresh process, restore, replay.
        let store = CheckpointStore::open(&dir).unwrap();
        let rec = store.recover().unwrap();
        let (mut run, start) = match &rec.snapshot {
            Some((seq, payload)) => (stream_restore(payload, &cq), *seq),
            None => {
                let mut run = StreamRun {
                    engine: StreamJoinEngine::new(cq.clone()),
                    shadow: Shadow::new(),
                    rng: seed ^ 0x9e37_79b9_7f4a_7c15,
                };
                let (snet0, _, _) = stream_build(seed);
                stream_cold(&mut run, &snet0, &cq);
                (run, 0)
            }
        };
        let wal = wal_digests(&rec.wal, start + 1);
        let (mut snet2, _, _) = stream_build(seed);
        // Bring the field to the restored batch's readings version.
        let mut snet = if start > 0 {
            snet2.resample(&specs, seed.wrapping_add(start));
            snet2
        } else {
            snet2
        };
        trail.extend(ref_digests[..start as usize].iter());
        for b in (start + 1)..=batches {
            let digest = stream_batch(&mut run, &mut snet, &cq, &specs, seed, b);
            if let Some(&logged) = wal.get(&b) {
                assert_eq!(logged, digest, "stream replay diverged at batch {b}");
            }
            trail.push(digest);
        }
        assert_eq!(trail, ref_digests, "digest trail diverged at {point}");
        assert_eq!(
            stream_snapshot(&run),
            ref_state,
            "stream state diverged at {point}"
        );

        // And the recovered engine still agrees with the batch join.
        let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
            .map(|r| {
                run.shadow
                    .iter()
                    .filter_map(|(&v, pr)| pr[r].clone().map(|vals| (v, vals)))
                    .collect()
            })
            .collect();
        let reference = exact_join(&cq, &tuples);
        let streamed = run.engine.result();
        assert!(streamed.result.same_result(&reference.result));
        assert_eq!(streamed.contributors, reference.contributors);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Codec fuzzing: corruption yields structured errors, never panics and
// never silently-wrong state.
// ---------------------------------------------------------------------------

/// A store with two snapshots and a few WAL records, for corruption tests.
fn seeded_store(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u8>) {
    let dir = tmpdir(tag);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let snap1: Vec<u8> = (0u16..600).map(|i| (i % 251) as u8).collect();
    let snap2: Vec<u8> = (0u16..700).map(|i| (i % 241) as u8).collect();
    store.save_snapshot(1, &snap1).unwrap();
    store.save_snapshot(2, &snap2).unwrap();
    for round in 0..4u64 {
        let mut w = Writer::new();
        w.put_u64(round);
        w.put_u64(round.wrapping_mul(0x9e37));
        store.append_wal(&w.into_bytes()).unwrap();
    }
    (dir, snap1, snap2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single flipped byte anywhere in a snapshot file is always caught:
    /// recovery returns an *intact* payload (the other snapshot) or none,
    /// never the corrupted bytes.
    #[test]
    fn snapshot_bit_flips_never_yield_corrupt_state(
        which in 1u64..3,
        offset in 0u64..728,
    ) {
        let (dir, snap1, snap2) = seeded_store("fuzz-snap");
        let store = CheckpointStore::open(&dir).unwrap();
        let path = store.snapshot_path(which);
        let len = std::fs::metadata(&path).unwrap().len();
        persist::flip_byte(&path, offset % len).unwrap();
        let rec = store.recover().unwrap();
        match rec.snapshot {
            Some((2, payload)) => {
                // Newest snapshot intact: the flip hit snapshot 1, which
                // recovery never needed to inspect.
                prop_assert_eq!(which, 1);
                prop_assert_eq!(&payload, &snap2);
            }
            Some((1, payload)) => {
                // Newest corrupted: honest fallback to the older snapshot.
                prop_assert_eq!(which, 2);
                prop_assert!(rec.degraded);
                prop_assert_eq!(&payload, &snap1);
            }
            Some((seq, _)) => prop_assert!(false, "unexpected snapshot seq {}", seq),
            None => prop_assert!(false, "an intact snapshot existed"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the WAL anywhere yields a valid prefix of the records and
    /// at worst a degraded flag — every returned payload still decodes.
    #[test]
    fn wal_truncation_yields_valid_prefix(cut in 0u64..96) {
        let (dir, _, _) = seeded_store("fuzz-wal-trunc");
        let store = CheckpointStore::open(&dir).unwrap();
        let len = std::fs::metadata(store.wal_path()).unwrap().len();
        persist::truncate_file(&store.wal_path(), cut % (len + 1)).unwrap();
        let rec = store.recover().unwrap();
        for (i, payload) in rec.wal.iter().enumerate() {
            let mut r = Reader::new(payload);
            prop_assert_eq!(r.get_u64().unwrap(), i as u64);
            r.get_u64().unwrap();
            r.expect_end().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A flipped byte in the WAL stops the scan at the last good record —
    /// structured degradation, not a panic or a garbled record.
    #[test]
    fn wal_bit_flips_stop_at_last_good_record(offset in 0u64..96) {
        let (dir, _, _) = seeded_store("fuzz-wal-flip");
        let store = CheckpointStore::open(&dir).unwrap();
        let len = std::fs::metadata(store.wal_path()).unwrap().len();
        persist::flip_byte(&store.wal_path(), offset % len).unwrap();
        let rec = store.recover().unwrap();
        prop_assert!(rec.wal.len() < 4, "corrupted WAL returned all records");
        for (i, payload) in rec.wal.iter().enumerate() {
            let mut r = Reader::new(payload);
            prop_assert_eq!(r.get_u64().unwrap(), i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary byte soup into the state decoders yields a structured
    /// result — never a panic, never an absurd allocation. (A random prefix
    /// may legitimately decode as a trivial value; the property is safety,
    /// not rejection.)
    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = persist::get_net_snapshot(&mut Reader::new(&bytes));
        let _ = Persist::get(&mut Reader::new(&bytes))
            .and_then(|dims| persist::join_space_from_parts(&build(5, SQL_CONT).1, dims));
        let _ = PointSet::get(&mut Reader::new(&bytes));
        let _ = NetworkStats::get(&mut Reader::new(&bytes));
        let _ = BatchStats::get(&mut Reader::new(&bytes));
    }

    /// A `QueryGroup` image — a free plan slot, a plan with two
    /// subscribers, a tombstone — cut anywhere, or with any byte of its
    /// subscriber table overwritten, restores to a structured result: a
    /// plan index that fits no live plan is an invariant error, never a
    /// panic and never a group that would index past its plan table.
    #[test]
    fn group_tables_never_panic(
        frac in 0.0f64..1.0,
        back in 1usize..84,
        byte in any::<u8>(),
    ) {
        let (mut snet, cq, _) = build(5, SQL_CONT);
        let other = snet
            .compile(&parse("SELECT A.hum FROM Sensors A, Sensors B \
                             WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30").unwrap())
            .unwrap();
        let mut group = QueryGroup::new(SensJoinConfig::default());
        group.register(&snet, other, 1);
        group.register(&snet, cq.clone(), 1);
        group.register(&snet, cq.clone(), 2);
        group.execute_epoch(&mut snet).unwrap();
        prop_assert!(group.remove(QueryId(0)));
        let mut w = Writer::new();
        group.encode_state(&mut w);
        let full = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let queries = vec![None, Some(cq.clone())];
            QueryGroup::restore_state(SensJoinConfig::default(), queries, &mut r)
                .and_then(|group| r.expect_end().map(|()| group))
        };
        prop_assert!(restore(&full).is_ok());

        let cut = ((full.len() as f64) * frac) as usize;
        prop_assert!(restore(&full[..cut]).is_err(), "cut at {} of {}", cut, full.len());

        // The subscriber table is the tail: a count, then 25 bytes each.
        let mut flipped = full.clone();
        let at = full.len() - back;
        flipped[at] = byte;
        // Whatever decodes is a group that runs; the rest is a `CodecError`.
        if let Ok(mut group) = restore(&flipped) {
            group.execute_epoch(&mut snet).unwrap();
        }
    }

    /// Truncating a continuous-state snapshot payload anywhere yields a
    /// structured decode error — the engine restore path never panics on a
    /// short buffer.
    #[test]
    fn truncated_engine_state_is_structured_error(frac in 0.0f64..1.0) {
        let (mut snet, cq, specs) = build(3, SQL_CONT);
        let mut cont = ContinuousSensJoin::new();
        let mut digests = Vec::new();
        run_span(
            &mut snet, &mut cont, &cq, &specs, 3, None, 0, 2, &BTreeMap::new(), &mut digests,
        ).unwrap();
        let full = full_state(&cont, &snet);
        let cut = ((full.len() as f64) * frac) as usize;
        if cut < full.len() {
            let mut fresh = ContinuousSensJoin::new();
            let mut r = Reader::new(&full[..cut]);
            let res = fresh.restore_state(&mut r, &cq);
            if res.is_ok() {
                // The engine part happened to fit; the net snapshot can't.
                prop_assert!(persist::get_net_snapshot(&mut r).is_err());
            }
        }
    }
}
