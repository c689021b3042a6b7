//! Streaming-ingestion scaling: the steady-state cost of a small delta
//! batch through `StreamJoinEngine` against the full batch re-join it
//! replaces, the cost of loading the engine cold, and the cost of a full
//! refresh — every tuple re-upserted into a warm engine, the batch an
//! ε = 0 continuous round applies to its matched nodes.
//!
//! The engine's claims (DESIGN.md §4.11): O(Δ) steady-state work — applying
//! a batch touching 1 % of the tuples must not cost anywhere near a full
//! `exact_join` over both relations — and a batch that replaces every live
//! tuple of a relation is the batch join itself, run over the engine's
//! stores.
//!
//! Acceptance gates (asserted here, recorded in `BENCH_engine.json`), at
//! 2000 tuples per relation:
//! - a 1 % delta batch costs ≤ 0.1× the full `exact_join`, on the band join
//!   `|A.temp − B.temp| < ε`;
//! - a cold load and a full refresh each cost ≤ 1.5× the full `exact_join`,
//!   on the band join and on an equality join (`A.temp = B.temp`, temp
//!   quantized onto an n-value grid as in `engine_scaling/equi`, under
//!   `ingest_scaling/equi/`): equality is the zero-width band, served by
//!   the same sorted-key index. Its delta batch is a timing only.

use criterion::{black_box, BenchmarkId, Criterion};
use sensjoin_bench::benchjson;
use sensjoin_core::{exact_join, StreamJoinEngine, StreamOp};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::{AttrType, Attribute, NodeId, Schema};

const N: usize = 2000;
const DELTA_FRACTION: f64 = 0.01;
const DELTA_GATE: f64 = 0.1;
const REJOIN_GATE: f64 = 1.5;

fn schema() -> Schema {
    Schema::new(
        "Sensors",
        vec![
            Attribute::new("x", AttrType::Meters),
            Attribute::new("y", AttrType::Meters),
            Attribute::new("temp", AttrType::Celsius),
            Attribute::new("hum", AttrType::Percent),
        ],
    )
}

fn compile(sql: &str) -> CompiledQuery {
    let q = parse(sql).expect("valid query");
    let s = schema();
    CompiledQuery::compile(&q, &[s.clone(), s]).expect("compiles")
}

/// Deterministic pseudo-random tuples, the `engine_scaling` population.
fn tuples(n: usize, seed: u64) -> Vec<Vec<(NodeId, Vec<f64>)>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..2)
        .map(|rel| {
            (0..n)
                .map(|i| {
                    let values = vec![
                        1000.0 * next(),
                        1000.0 * next(),
                        10.0 + 22.0 * next(),
                        30.0 + 40.0 * next(),
                    ];
                    (NodeId((rel * 100_000 + i) as u32), values)
                })
                .collect()
        })
        .collect()
}

/// The streaming view of the batch data: one upsert per tuple, each origin
/// a member of exactly one relation.
fn upserts(data: &[Vec<(NodeId, Vec<f64>)>]) -> Vec<StreamOp> {
    let rels = data.len();
    data.iter()
        .enumerate()
        .flat_map(|(rel, tuples)| {
            tuples.iter().map(move |(origin, values)| {
                let mut per_rel = vec![None; rels];
                per_rel[rel] = Some(values.clone());
                StreamOp::Upsert {
                    origin: *origin,
                    per_rel,
                }
            })
        })
        .collect()
}

fn bench_ingest(
    c: &mut Criterion,
    name: &str,
    cq: &CompiledQuery,
    data: &[Vec<(NodeId, Vec<f64>)>],
) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("full_exact_join", N), &N, |b, _| {
        b.iter(|| exact_join(black_box(cq), black_box(data)))
    });
    let all = upserts(data);
    group.bench_with_input(BenchmarkId::new("cold_load", N), &N, |b, _| {
        b.iter(|| {
            let mut engine = StreamJoinEngine::new(cq.clone());
            black_box(engine.apply_batch(black_box(&all)))
        })
    });
    // Steady state: re-upsert 1 % of the tuples (half from each relation)
    // into a warm engine. Values are unchanged, so the engine state is a
    // fixed point and every iteration performs the same expire + insert +
    // anchored re-enumeration work.
    let k = ((DELTA_FRACTION * N as f64) as usize).max(1) / 2;
    let delta: Vec<StreamOp> = all
        .iter()
        .take(k)
        .chain(all.iter().skip(N).take(k))
        .cloned()
        .collect();
    let mut engine = StreamJoinEngine::new(cq.clone());
    engine.apply_batch(&all);
    group.bench_with_input(BenchmarkId::new("delta_batch_1pct", N), &N, |b, _| {
        b.iter(|| black_box(engine.apply_batch(black_box(&delta))))
    });
    // Every tuple re-ships: like the cold load, a rejoin of the stores.
    // Against `cold_load` the difference is that every tuple keeps its slot
    // and no store grows.
    group.bench_with_input(BenchmarkId::new("full_refresh", N), &N, |b, _| {
        b.iter(|| black_box(engine.apply_batch(black_box(&all))))
    });
    group.finish();
    // The fixed point really is one: the warm engine still answers exactly.
    let reference = exact_join(cq, data);
    let streamed = engine.result();
    assert!(
        streamed.result.same_result(&reference.result)
            && streamed.contributors == reference.contributors,
        "warm streaming engine diverged from exact_join"
    );
}

fn ns_of(results: &[(String, std::time::Duration)], name: &str) -> f64 {
    results
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("bench {name} was not run"))
        .1
        .as_nanos() as f64
}

fn main() {
    let eps = 11.0 / N as f64;
    let cq = compile(&format!(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE |A.temp - B.temp| < {eps} ONCE"
    ));
    let data = tuples(N, 42);
    let mut criterion = Criterion::default();
    bench_ingest(&mut criterion, "ingest_scaling", &cq, &data);
    let equi = compile(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp = B.temp ONCE",
    );
    let mut grid = data.clone();
    for (_, values) in grid.iter_mut().flatten() {
        values[2] = (values[2] * N as f64).round() / N as f64;
    }
    bench_ingest(&mut criterion, "ingest_scaling/equi", &equi, &grid);

    let results = criterion.results();
    // Each case's time over its group's full join.
    let ratio = |group: &str, case: &str| {
        ns_of(results, &format!("{group}/{case}/{N}"))
            / ns_of(results, &format!("{group}/full_exact_join/{N}"))
    };
    let delta_over_full = ratio("ingest_scaling", "delta_batch_1pct");
    assert!(
        delta_over_full <= DELTA_GATE,
        "gate violated: 1% delta batch is {delta_over_full:.3}x the full join (> {DELTA_GATE})"
    );
    let mut extras = vec![
        ("tuples_per_relation", format!("{N}")),
        ("delta_fraction", format!("{DELTA_FRACTION}")),
        ("delta_over_full", format!("{delta_over_full:.4}")),
    ];
    let rejoins = [
        ("ingest_scaling", "cold_load", "cold_load_over_full"),
        ("ingest_scaling", "full_refresh", "full_refresh_over_full"),
        (
            "ingest_scaling/equi",
            "cold_load",
            "equi_cold_load_over_full",
        ),
        (
            "ingest_scaling/equi",
            "full_refresh",
            "equi_full_refresh_over_full",
        ),
    ];
    for (group, case, key) in rejoins {
        let over_full = ratio(group, case);
        assert!(
            over_full <= REJOIN_GATE,
            "gate violated: {group}/{case} is {over_full:.2}x the full join (> {REJOIN_GATE})"
        );
        extras.push((key, format!("{over_full:.2}")));
    }
    extras.push((
        "gate",
        format!(
            "\"delta_batch_1pct/{N} <= {DELTA_GATE}x full_exact_join/{N}; \
             cold_load/{N} and full_refresh/{N} <= {REJOIN_GATE}x full_exact_join/{N}, \
             band and equi\""
        ),
    ));
    benchjson::merge_section(
        "ingest_scaling",
        &benchjson::section_value(results, &extras),
    );
}
