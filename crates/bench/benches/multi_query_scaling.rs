//! Multi-query amortization: the byte cost of ONE shared
//! Join-Attribute-Collection wave serving N = 1 / 2 / 4 / 8 / 16 concurrent
//! band-join queries, against the sum of the N solo collections it
//! replaces, plus the base-station time per shared epoch — and the time of
//! an epoch whose 64 tenants subscribe to 16 distinct queries, which must
//! stay near the 16-query epoch's (tenants of one plan add an `Arc` clone
//! and a contributor-set copy each, not a slot).
//!
//! The workload is the amortization best case the scheduler is built for: a
//! same-template query family (band joins over temperature with different
//! constants), so every query quantizes over the same space and the shared
//! wave carries one union encoding per link plus per-query annotations. The
//! derived `shared_over_solo_sum` map in `BENCH_engine.json` is
//! shared-collection-bytes / sum-of-solo-collection-bytes per group size —
//! the acceptance gate reads the N=4 entry (must be ≤ 0.5). The sharing
//! gate is asserted here: `group_epoch_shared/64over16` ≤ 1.5 ×
//! `group_epoch/16`.

use criterion::{black_box, BenchmarkId, Criterion};
use sensjoin_bench::benchjson;
use sensjoin_core::{
    JoinMethod, QueryGroup, SensJoin, SensJoinConfig, SensorNetwork, SensorNetworkBuilder,
    PHASE_COLLECTION,
};
use sensjoin_field::{Area, Placement};
use sensjoin_query::{parse, CompiledQuery};
use std::time::Instant;

const GROUP_SIZES: [usize; 5] = [1, 2, 4, 8, 16];
/// Tenants of the sharing measurement, spread round-robin over the largest
/// group size's distinct queries.
const SHARED_TENANTS: usize = 64;
/// How much dearer than its distinct queries' epoch the shared epoch may be.
const SHARED_GATE: f64 = 1.5;
const NODES: usize = 150;

fn network() -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(400.0, 400.0))
        .placement(Placement::UniformRandom { n: NODES })
        .seed(3)
        .build()
        .unwrap()
}

/// The query family: band joins over temperature, constants spread so the
/// filters differ while the collected join-attribute cells coincide.
fn family(snet: &SensorNetwork, n: usize) -> Vec<CompiledQuery> {
    (0..n)
        .map(|i| {
            let sql = format!(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > {} SAMPLE PERIOD 30",
                1.0 + 0.2 * i as f64
            );
            snet.compile(&parse(&sql).unwrap()).unwrap()
        })
        .collect()
}

fn main() {
    let mut criterion = Criterion::default();
    let mut snet = network();
    let queries = family(&snet, *GROUP_SIZES.iter().max().unwrap());

    // Byte accounting (deterministic, outside timing): one shared epoch per
    // group size vs the N solo collections on the same snapshot.
    let mut shared_bytes = Vec::new();
    let mut solo_sums = Vec::new();
    for &n in &GROUP_SIZES {
        let mut group = QueryGroup::new(SensJoinConfig::default());
        for q in &queries[..n] {
            group.register(&snet, q.clone(), 1);
        }
        let report = group.execute_epoch(&mut snet).unwrap();
        shared_bytes.push(report.shared_collection_bytes());
        let solo: u64 = queries[..n]
            .iter()
            .map(|q| {
                SensJoin::default()
                    .execute(&mut snet, q)
                    .unwrap()
                    .stats
                    .phase(PHASE_COLLECTION)
                    .tx_bytes
            })
            .sum();
        solo_sums.push(solo);
    }

    // Timing: one steady-state shared epoch (engines warm) per group size,
    // then 64 tenants over the largest size's distinct queries.
    let distinct = queries.len();
    {
        let mut bg = criterion.benchmark_group("multi_query_scaling");
        let shared = format!("{SHARED_TENANTS}over{distinct}");
        let cases = GROUP_SIZES
            .iter()
            .map(|&n| (BenchmarkId::new("group_epoch", n), n))
            .chain([(
                BenchmarkId::new("group_epoch_shared", shared),
                SHARED_TENANTS,
            )]);
        for (id, tenants) in cases {
            bg.bench_with_input(id, &tenants, |b, _| {
                b.iter_custom(|iters| {
                    let mut group = QueryGroup::new(SensJoinConfig::default());
                    for q in queries.iter().cycle().take(tenants) {
                        group.register(&snet, q.clone(), 1);
                    }
                    group.execute_epoch(&mut snet).unwrap(); // warm-up epoch
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(group.execute_epoch(&mut snet).unwrap());
                    }
                    start.elapsed()
                })
            });
        }
        bg.finish();
    }

    let fmt_map = |vals: &[String]| format!("{{\n{}\n  }}", vals.join(",\n"));
    let mut shared_lines = Vec::new();
    let mut solo_lines = Vec::new();
    let mut ratio_lines = Vec::new();
    for (i, &n) in GROUP_SIZES.iter().enumerate() {
        let ratio = shared_bytes[i] as f64 / solo_sums[i] as f64;
        println!(
            "multi_query_scaling: N={n} → shared {} B vs solo sum {} B (ratio {ratio:.3})",
            shared_bytes[i], solo_sums[i]
        );
        shared_lines.push(format!("    \"{n}\": {}", shared_bytes[i]));
        solo_lines.push(format!("    \"{n}\": {}", solo_sums[i]));
        ratio_lines.push(format!("    \"{n}\": {ratio:.3}"));
    }
    let results = criterion.results().to_vec();
    let ns_of = |name: &str| {
        let (_, t) = results
            .iter()
            .find(|(n, _)| n.ends_with(name))
            .expect("bench ran");
        t.as_nanos() as f64
    };
    let shared_over_distinct = ns_of(&format!(
        "group_epoch_shared/{SHARED_TENANTS}over{distinct}"
    )) / ns_of(&format!("group_epoch/{distinct}"));
    println!(
        "multi_query_scaling: {SHARED_TENANTS} tenants over {distinct} queries cost \
         {shared_over_distinct:.2}× the {distinct}-query epoch (gate ≤ {SHARED_GATE}×)"
    );
    assert!(
        shared_over_distinct <= SHARED_GATE,
        "gate violated: {SHARED_TENANTS} tenants over {distinct} distinct queries cost \
         {shared_over_distinct:.2}× the {distinct}-query epoch (> {SHARED_GATE}×)"
    );
    let extras = [
        ("nodes", format!("{NODES}")),
        ("host_threads", format!("{}", benchjson::host_threads())),
        ("shared_collection_bytes", fmt_map(&shared_lines)),
        ("solo_collection_bytes_sum", fmt_map(&solo_lines)),
        ("shared_over_solo_sum", fmt_map(&ratio_lines)),
        (
            "shared_epoch_over_distinct_epoch",
            format!("{shared_over_distinct:.3}"),
        ),
        (
            "gate",
            format!(
                "\"group_epoch_shared/{SHARED_TENANTS}over{distinct} <= {SHARED_GATE} x \
                 group_epoch/{distinct}\""
            ),
        ),
    ];
    benchjson::merge_section(
        "multi_query_scaling",
        &benchjson::section_value(&results, &extras),
    );
}
