//! The exact join allocates one vector per result row and, beyond that, a
//! fixed amount per chunk — nothing per outer binding and nothing per
//! candidate.
//!
//! A counting global allocator (`counting/mod.rs`: the measuring thread's
//! count plus those of the workers the measured call spawns, because chunks
//! run on worker threads) wraps `exact_join` on inputs that scale the outer bindings and the candidates
//! while the rows stay put, and on high-output joins — among them the dense
//! shape, whose last level emits its rows in one flat loop, at one chunk
//! and at two.
//!
//! The streaming engine keeps its tuples and its cached result in flat
//! buffers, so a full refresh — a rejoin — allocates what a join does
//! besides its rows, and nothing per tuple: the last test re-upserts every
//! tuple of a warm engine under a band ten times wider.

use sensjoin_core::{exact_join, JoinResult, StreamJoinEngine, StreamOp};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::{AttrType, Attribute, NodeId, Schema};

mod counting;
use counting::{allocations, serial};

/// Heap allocations (and reallocations) of one `exact_join`, on whatever
/// threads it runs, and the number of rows it returned.
fn join_allocations(cq: &CompiledQuery, tuples: &[Vec<(NodeId, Vec<f64>)>]) -> (u64, u64) {
    let (allocs, joined) = allocations(|| exact_join(cq, tuples));
    let JoinResult::Rows(rows) = &joined.result else {
        panic!("a row query");
    };
    (allocs, rows.len() as u64)
}

fn compile(preds: &str) -> CompiledQuery {
    let schema = Schema::new(
        "Sensors",
        vec![
            Attribute::new("temp", AttrType::Celsius),
            Attribute::new("hum", AttrType::Percent),
        ],
    );
    let q = parse(&format!(
        "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE {preds} ONCE"
    ))
    .unwrap();
    CompiledQuery::compile(&q, &[schema.clone(), schema]).unwrap()
}

/// Relation `rel` with `n` tuples: temps spread evenly over [0, 10), hum
/// 100 for the first `hot` tuples and 1 for the rest.
fn relation(rel: usize, n: usize, hot: usize) -> Vec<(NodeId, Vec<f64>)> {
    (0..n)
        .map(|i| {
            let temp = 10.0 * ((i * 7919) % n) as f64 / n as f64;
            let hum = if i < hot { 100.0 } else { 1.0 };
            (NodeId((rel * 100_000 + i) as u32), vec![temp, hum])
        })
        .collect()
}

/// Allocations a chunk may make besides its rows: its buffers, position
/// sets and probe stack, and — for every chunk but the first — a thread.
const PER_CHUNK: u64 = 40;

/// Allocations of a join besides its chunks: indexes, hoisted probes, the
/// contributor list.
const PER_JOIN: u64 = 40;

/// The most a join returning `rows` rows from `origins` tuples may
/// allocate: a vector per row, a B-tree node per ≥ 6 contributors, and the
/// fixed parts — with at most one chunk per available thread.
fn budget(rows: u64, origins: usize) -> u64 {
    let chunks = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    rows + origins as u64 / 6 + PER_JOIN + PER_CHUNK * chunks
}

#[test]
fn allocations_do_not_grow_with_bindings_or_candidates() {
    let _guard = serial();
    // Every inner tuple is a candidate of every outer tuple (the band
    // window spans all temps, and its index drives through the position
    // bitset); the general predicate then keeps hot × hot pairs only. From
    // 50 to 5 000 outer tuples the candidates go from 15 k to 1.5 M — past
    // the fan-out threshold — and the rows stay at 20.
    let cq = compile("|A.temp - B.temp| < 50.0 AND A.hum * B.hum > 5000.0");
    let inner = relation(1, 300, 4);
    for outer in [50, 500, 5000] {
        let tuples = vec![relation(0, outer, 5), inner.clone()];
        let (allocs, rows) = join_allocations(&cq, &tuples);
        assert_eq!(rows, 20);
        // 5 + 4 contributors: no outer tuple adds to the budget.
        assert!(
            allocs <= budget(rows, 9),
            "{allocs} allocations for {rows} rows from {outer} outer tuples"
        );
    }
    // The same through an equi driver (296 candidates per cold outer
    // tuple) with a band membership test that keeps next to none.
    let cq = compile("A.hum = B.hum AND |A.temp - B.temp| < 0.001");
    for outer in [50, 500, 5000] {
        let tuples = vec![relation(0, outer, 5), inner.clone()];
        let (allocs, rows) = join_allocations(&cq, &tuples);
        assert!(rows < 300, "{rows} rows");
        assert!(
            allocs <= budget(rows, 2 * rows as usize),
            "{allocs} allocations for {rows} rows from {outer} outer tuples"
        );
    }
}

#[test]
fn a_row_costs_one_allocation() {
    let _guard = serial();
    // ~7 % of 1 500 × 1 500 pairs: a high-output join, chunked when the
    // host has more than one thread.
    let cq = compile("A.temp - B.temp > 7.3");
    let tuples = vec![relation(0, 1500, 0), relation(1, 1500, 0)];
    let (allocs, rows) = join_allocations(&cq, &tuples);
    assert!(rows > 50_000, "{rows} rows");
    assert!(
        allocs <= budget(rows, 3000),
        "{allocs} allocations for {rows} rows"
    );
}

#[test]
fn a_flat_last_level_row_costs_one_allocation_at_one_and_two_chunks() {
    let _guard = serial();
    // The dense shape: its band decides every candidate, so the last level
    // emits its rows in one flat loop. 300 tuples a side stay under the
    // fan-out threshold (one chunk); 1 500 pass it (two chunks on a host
    // with two threads or more).
    let cq = compile("A.temp - B.temp > 7.3");
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()) as u64;
    for (n, chunks) in [(300, 1), (1500, threads.min(2))] {
        let tuples = vec![relation(0, n, 0), relation(1, n, 0)];
        let (allocs, rows) = join_allocations(&cq, &tuples);
        assert!(rows > 10 * n as u64, "{rows} rows");
        let fixed = (2 * n) as u64 / 6 + PER_JOIN + PER_CHUNK * chunks;
        assert!(
            allocs <= rows + fixed,
            "{allocs} allocations for {rows} rows at {chunks} chunks"
        );
    }
}

#[test]
fn a_full_refresh_allocates_nothing_per_row() {
    let _guard = serial();
    let (a, b) = (relation(0, 400, 0), relation(1, 400, 0));
    let upsert = |rel: usize, (origin, values): &(NodeId, Vec<f64>)| {
        let mut per_rel = vec![None; 2];
        per_rel[rel] = Some(values.clone());
        let origin = *origin;
        StreamOp::Upsert { origin, per_rel }
    };
    let all: Vec<StreamOp> = (a.iter().map(|t| upsert(0, t)))
        .chain(b.iter().map(|t| upsert(1, t)))
        .collect();
    // Allocations of re-upserting all 800 tuples into an engine that has
    // seen the batch three times (so the run and its scratch are sized),
    // and the rows that batch removed and re-added.
    let refresh = |band: f64| {
        let mut engine = StreamJoinEngine::new(compile(&format!("|A.temp - B.temp| < {band}")));
        for _ in 0..3 {
            engine.apply_batch(&all);
        }
        let (allocs, stats) = allocations(|| engine.apply_batch(&all));
        assert_eq!(stats.rows_added, engine.cached_rows());
        assert_eq!(stats.rows_removed, engine.cached_rows());
        (allocs, stats.rows_added as u64)
    };
    let (narrow, narrow_rows) = refresh(0.05);
    let (wide, wide_rows) = refresh(0.5);
    assert!(narrow_rows > 1_000 && wide_rows > 9 * narrow_rows);
    // The batch's few lists and one single-chunk join's fixed parts — the
    // same count whatever the band admits: none per row, none per tuple.
    assert_eq!(wide, narrow, "{narrow_rows} → {wide_rows} rows");
    assert!(wide <= PER_JOIN + PER_CHUNK, "{wide} allocations");
}
