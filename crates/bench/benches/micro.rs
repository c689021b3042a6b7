//! Micro-benchmarks of the building blocks: Z-order encoding, quadtree
//! codec and set primitives, compression codecs, query parsing and interval
//! evaluation. These are the per-node CPU costs; the paper argues they are
//! negligible next to communication (§I), which these numbers substantiate.
//! The `field` pair times a deployment's resample when its field is kept
//! and when every spec's wave sums are drawn anew.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sensjoin_compress::{Bwt, Codec, Lz77Huffman};
use sensjoin_field::{presets, FieldSpec};
use sensjoin_quadtree::{decode, encode, encoded_wire_size, Point, PointSet, RelFlags, TreeShape};
use sensjoin_query::{parse, CompiledQuery, Interval};
use sensjoin_relation::{AttrType, Attribute, Schema};
use sensjoin_zorder::{Dimension, ZSpace};

fn zspace() -> ZSpace {
    ZSpace::new(vec![
        Dimension::new("temp", 10.0, 32.0, 0.1),
        Dimension::new("x", 0.0, 1050.0, 1.0),
        Dimension::new("y", 0.0, 1050.0, 1.0),
    ])
    .expect("fits")
}

/// A correlated point population (mimics one subtree's join attributes).
fn point_population(n: usize, seed: u64) -> Vec<(u64, RelFlags)> {
    let space = zspace();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..n)
        .map(|_| {
            let cx = 200.0 + 400.0 * next();
            let cy = 300.0 + 300.0 * next();
            let t = 20.0 + 3.0 * next();
            (space.encode(&[t, cx, cy]), RelFlags::BOTH)
        })
        .collect()
}

fn bench_zorder(c: &mut Criterion) {
    let space = zspace();
    c.bench_function("zorder/encode", |b| {
        b.iter(|| space.encode(black_box(&[21.53, 433.2, 872.9])))
    });
    let z = space.encode(&[21.53, 433.2, 872.9]);
    c.bench_function("zorder/decode", |b| b.iter(|| space.decode(black_box(z))));
    c.bench_function("zorder/cell_box", |b| {
        b.iter(|| space.cell_box(black_box(z)))
    });
    // The mask-walking deposit/extract against the level-schedule
    // reference, on the cell interleave both the encoder and the quadtree
    // codec sit on: the evidence for which of the two `ZSpace` runs.
    let coords = space.decode(z);
    c.bench_function("zorder/interleave_fast", |b| {
        b.iter(|| space.encode_cells(black_box(&coords)))
    });
    c.bench_function("zorder/interleave_reference", |b| {
        b.iter(|| space.encode_cells_reference(black_box(&coords)))
    });
    c.bench_function("zorder/deinterleave_fast", |b| {
        b.iter(|| space.decode(black_box(z)))
    });
    c.bench_function("zorder/deinterleave_reference", |b| {
        b.iter(|| space.decode_reference(black_box(z)))
    });
}

fn bench_quadtree(c: &mut Criterion) {
    let space = zspace();
    let shape = TreeShape::new(space.level_schedule(), 2);
    let mut group = c.benchmark_group("quadtree");
    for n in [50usize, 500, 1500] {
        let set = PointSet::from_points(
            point_population(n, 7)
                .into_iter()
                .map(|(z, f)| Point { z, flags: f }),
        );
        let other = PointSet::from_points(
            point_population(n, 8)
                .into_iter()
                .map(|(z, f)| Point { z, flags: f }),
        );
        let encoded = encode(&set, &shape);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &set, |b, s| {
            b.iter(|| encode(black_box(s), &shape))
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &encoded, |b, e| {
            b.iter(|| decode(black_box(e), &shape).expect("valid"))
        });
        group.bench_with_input(
            BenchmarkId::new("union", n),
            &(&set, &other),
            |b, (s, o)| b.iter(|| s.union(black_box(o))),
        );
        group.bench_with_input(
            BenchmarkId::new("intersect", n),
            &(&set, &other),
            |b, (s, o)| b.iter(|| s.intersect(black_box(o))),
        );
    }
    group.finish();
}

/// What a relay pays to learn a message's wire size: the size kernel alone
/// against encoding and measuring, on a 1-D join space (one bit per level)
/// and the paper's 3-D Q3 space, at subtree sizes from a leaf's
/// neighbourhood to most of a network.
fn bench_quadtree_sizing(c: &mut Criterion) {
    // 80 000 cells: 17 one-bit levels.
    let one_d = ZSpace::new(vec![Dimension::new("temp", -20.0, 60.0, 0.001)]).expect("fits");
    let mut group = c.benchmark_group("quadtree");
    for (dims, space) in [("1d", one_d), ("3d", zspace())] {
        let shape = TreeShape::new(space.level_schedule(), 2);
        for n in [64usize, 512, 4096] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            };
            // Correlated readings: a few degrees, a few hundred metres.
            let set = PointSet::from_points((0..n).map(|_| {
                let v = [
                    20.0 + 8.0 * next(),
                    200.0 + 400.0 * next(),
                    300.0 + 300.0 * next(),
                ];
                Point {
                    z: space.encode(&v[..space.arity()]),
                    flags: RelFlags::BOTH,
                }
            }));
            group.throughput(Throughput::Elements(set.len() as u64));
            let id = format!("{dims}/{n}");
            group.bench_with_input(BenchmarkId::new("size_only", &id), &set, |b, s| {
                b.iter(|| encoded_wire_size(black_box(s), &shape))
            });
            group.bench_with_input(BenchmarkId::new("encode", &id), &set, |b, s| {
                b.iter(|| encode(black_box(s), &shape).wire_size())
            });
        }
    }
    group.finish();
}

/// One packet event on the charge path: a transmission recorded under an
/// interned phase, per-node and per-phase counters both.
fn bench_record_tx(c: &mut Criterion) {
    use sensjoin_sim::{NetworkStats, NodeId};
    let mut stats = NetworkStats::new(1024);
    let phases = [
        stats.intern("1-join-attribute-collection"),
        stats.intern("2-filter-dissemination"),
        stats.intern("3-final-result"),
    ];
    let mut i = 0u32;
    c.bench_function("sim/record_tx", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            stats.record_tx(
                NodeId(black_box(i) % 1024),
                48,
                12.5,
                phases[(i % 3) as usize],
            );
        })
    });
    black_box(stats.total_tx_packets());
}

fn bench_compression(c: &mut Criterion) {
    // A raw join-attribute stream like the §VI-B experiment compresses.
    let raw: Vec<u8> = point_population(1500, 3)
        .iter()
        .flat_map(|(z, f)| {
            let mut v = z.to_le_bytes()[..6].to_vec();
            v.push(f.0);
            v
        })
        .collect();
    let mut group = c.benchmark_group("compression");
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("zlib-like/compress", |b| {
        b.iter(|| Lz77Huffman.compress(black_box(&raw)))
    });
    group.bench_function("bzip2-like/compress", |b| {
        b.iter(|| Bwt.compress(black_box(&raw)))
    });
    let z = Lz77Huffman.compress(&raw);
    let bz = Bwt.compress(&raw);
    group.bench_function("zlib-like/decompress", |b| {
        b.iter(|| Lz77Huffman.decompress(black_box(&z)).expect("valid"))
    });
    group.bench_function("bzip2-like/decompress", |b| {
        b.iter(|| Bwt.decompress(black_box(&bz)).expect("valid"))
    });
    group.finish();
}

/// `SensorNetwork::resample` at 1 500 nodes: the same field with its noise
/// scaled each iteration (the kept wave sums are reused), and a new seed
/// each iteration (every spec's cosines are evaluated).
fn bench_resample(c: &mut Criterion) {
    let mut snet = sensjoin_bench::paper_network(1500, sensjoin_bench::SEED);
    let base = presets::indoor_climate();
    let scaled: Vec<Vec<FieldSpec>> = (0..16)
        .map(|r| {
            let scale = 1.0 + 0.25 * r as f64 / 16.0;
            let scale = |s: &FieldSpec| FieldSpec {
                noise: s.noise * scale,
                ..s.clone()
            };
            base.iter().map(scale).collect()
        })
        .collect();
    let mut i = 0;
    c.bench_function("field/resample_same_field", |b| {
        b.iter(|| {
            i += 1;
            snet.resample(black_box(&scaled[i % scaled.len()]), 7);
        })
    });
    let mut seed = 7;
    c.bench_function("field/resample_new_seed", |b| {
        b.iter(|| {
            seed += 1;
            snet.resample(black_box(&base), seed);
        })
    });
}

fn bench_query(c: &mut Criterion) {
    const Q2: &str = "SELECT |A.hum - B.hum|, |A.pres - B.pres| \
                      FROM Sensors A, Sensors B \
                      WHERE |A.temp - B.temp| < 0.3 \
                      AND distance(A.x, A.y, B.x, B.y) > 100 ONCE";
    c.bench_function("query/parse_q2", |b| {
        b.iter(|| parse(black_box(Q2)).expect("valid"))
    });
    let schema = Schema::new(
        "Sensors",
        vec![
            Attribute::new("x", AttrType::Meters),
            Attribute::new("y", AttrType::Meters),
            Attribute::new("temp", AttrType::Celsius),
            Attribute::new("hum", AttrType::Percent),
            Attribute::new("pres", AttrType::Hectopascal),
        ],
    );
    let cq = CompiledQuery::compile(&parse(Q2).expect("valid"), &[schema.clone(), schema])
        .expect("compiles");
    let a = [100.0, 200.0, 21.5, 40.0, 1013.0];
    let b_ = [400.0, 500.0, 21.6, 44.0, 1014.0];
    c.bench_function("query/eval_join_pair", |b| {
        b.iter(|| {
            let env = |rel: usize, attr: usize| if rel == 0 { a[attr] } else { b_[attr] };
            cq.eval_join(black_box(&env))
        })
    });
    c.bench_function("query/interval_pair", |b| {
        b.iter(|| {
            let env = |rel: usize, attr: usize| {
                let v = if rel == 0 { a[attr] } else { b_[attr] };
                Interval::new(v, v + 1.0)
            };
            cq.eval_join(black_box(&env))
        })
    });
}

criterion_group!(
    benches,
    bench_zorder,
    bench_quadtree,
    bench_quadtree_sizing,
    bench_record_tx,
    bench_compression,
    bench_resample,
    bench_query
);
criterion_main!(benches);
