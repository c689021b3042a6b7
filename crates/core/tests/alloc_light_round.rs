//! A continuous round allocates in proportion to what changed, not to the
//! deployment, and its durable half allocates nothing in proportion to its
//! bytes: the round keeps its per-node state in columns it rewrites in
//! place; the executor's image is written in one reserved buffer, so 1 500
//! nodes cost the allocations 300 do; a snapshot is written straight from
//! the caller's payload, so a 1 MB image costs the allocations a 10 KB one
//! does; the zeroed counters a round leaves behind export without a copy;
//! and a kept field sampler's redraw at an unchanged seed — the steady
//! state of a drifting deployment — allocates nothing at all.
//!
//! A counting global allocator (`counting/mod.rs`, shared with the other
//! `alloc_light_*` binaries) wraps the calls.

use sensjoin_core::persist::{CheckpointStore, CodecError, Persist, Reader, Writer};
use sensjoin_core::{ContinuousSensJoin, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{
    generate_readings, presets, Area, FieldSampler, FieldSpec, Placement, Position,
};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_sim::{ArqPolicy, BaseChoice, Channel, NetworkBuilder, NetworkStats, NodeStats};

mod counting;

/// Allocations a steady-state round of [`lossy_deployment`] may make
/// besides its result rows: half the 6 112 one made at most (rounds 20–39,
/// release build) when every node's filter view, shipped values and final
/// tuple list were objects of their own, and every up-wave relay got a
/// fresh inbox. This build's rounds make 1 586–2 427.
const BUDGET: u64 = 3_056;

/// What a debug build's self-checks — each phase-2 prune re-derived by set
/// intersection, the stream compared with the projection of the shipped
/// values — allocate at most in a round of [`lossy_deployment`] (debug
/// minus release counts, rounds 20–39).
const SELF_CHECKS: u64 = 4_427;
use counting::{allocations, serial};

#[test]
fn a_snapshot_write_allocates_the_same_for_any_payload_size() {
    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("sj-alloc-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).unwrap();
    let (small, large) = (vec![7u8; 10_000], vec![7u8; 1_000_000]);
    // Warm the record past its pruning window first: every measured save
    // then inserts one sequence number and prunes one.
    for seq in 1..=3 {
        store.save_snapshot(seq, &small).unwrap();
    }
    let mut save =
        |seq, payload: &[u8]| allocations(|| store.save_snapshot(seq, payload).unwrap()).0;
    let (a, b) = (save(4, &small), save(5, &large));
    assert_eq!(a, b, "10 KB: {a} allocations, 1 MB: {b}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_redraw_at_an_unchanged_seed_allocates_nothing() {
    let _guard = serial();
    let positions: Vec<Position> = (0..700)
        .map(|i| Position::new((i * 37 % 1000) as f64, (i * 91 % 1000) as f64))
        .collect();
    let base = [
        FieldSpec::simple("temp", 21.0, 2.0, 200.0, 0.05),
        FieldSpec::simple("hum", 40.0, 5.0, 300.0, 0.2).coupled_to(0, -1.5),
        FieldSpec::simple("light", 300.0, 80.0, 150.0, 4.0),
    ];
    let drift = |by: f64| -> Vec<FieldSpec> {
        let scale = |s: &FieldSpec| FieldSpec {
            noise: s.noise * by,
            ..s.clone()
        };
        base.iter().map(scale).collect()
    };
    let mut sampler = FieldSampler::new(positions.clone());
    let mut rows = vec![vec![0.0; base.len()]; positions.len()];
    let mut draw = |sampler: &mut FieldSampler, specs: &[FieldSpec], seed| {
        allocations(|| sampler.draw(specs, seed, |node, row| rows[node].copy_from_slice(row))).0
    };
    draw(&mut sampler, &drift(1.0), 5);
    draw(&mut sampler, &drift(1.1), 5);
    let specs = drift(1.2);
    assert_eq!(draw(&mut sampler, &specs, 5), 0);
    let bits =
        |rows: &[Vec<f64>]| -> Vec<u64> { rows.iter().flatten().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&rows), bits(&generate_readings(&positions, &specs, 5)));
}

/// The counters `take_stats` leaves behind — what a checkpoint between two
/// rounds exports — clone without an allocation at any node count, and so
/// do the ones their image decodes to.
#[test]
fn counters_left_by_a_round_clone_for_nothing() {
    let _guard = serial();
    for n in [80, 1500] {
        let side = (n as f64 * 200.0 * 200.0 / 60.0).sqrt();
        let area = Area::new(side, side);
        let positions = Placement::UniformRandom { n }.generate(area, 3);
        let mut net = NetworkBuilder::new().build(positions, area).unwrap();
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.unicast(child, base, 100, "p");
        assert_eq!(net.take_stats().total_tx_packets(), 3);
        let (allocs, copy) = allocations(|| net.stats().clone());
        assert_eq!(allocs, 0, "{n} nodes: {allocs} allocations");
        assert_eq!(copy.per_node().len(), n);
        assert!(copy.per_node().all(|s| *s == NodeStats::default()));
        let image = copy.to_bytes();
        assert_eq!(image.len(), 16 + n.div_ceil(8), "{n} nodes");
        let back = NetworkStats::from_bytes(&image).unwrap();
        assert_eq!(allocations(|| back.clone()).0, 0, "{n} nodes, decoded");
        // The next charge lays the counters out again.
        net.unicast(child, base, 100, "p");
        assert_eq!(net.stats().node(child).tx_packets, 3);
    }
}

/// A node count with fewer than ⌈n/8⌉ bytes behind it — too few for its
/// presence bitmap — is refused before anything is allocated for it.
#[test]
fn a_node_count_the_input_cannot_back_allocates_nothing() {
    let _guard = serial();
    for (n, behind) in [(9u64, 1), (1500, 187), (1 << 40, 4096), (u64::MAX, 64)] {
        let mut image = n.to_le_bytes().to_vec();
        image.resize(8 + behind, 0);
        let (allocs, got) = allocations(|| NetworkStats::get(&mut Reader::new(&image)).err());
        assert_eq!(got, Some(CodecError::Truncated), "{n} nodes");
        assert_eq!(allocs, 0, "{n} nodes: {allocs} allocations");
    }
}

/// A lossy continuous deployment at paper density: `n` nodes, 5 % loss
/// under ACK/retransmit, the drifting climate of `drift`, and a band join
/// that ships a few hundred tuples a round.
fn lossy_deployment(n: usize) -> (SensorNetwork, CompiledQuery) {
    let mut snet = SensorNetworkBuilder::new()
        .area(Area::for_constant_density(n))
        .placement(Placement::UniformRandom { n })
        .fields(presets::indoor_climate())
        .base(BaseChoice::NearestCorner)
        .seed(7)
        .build()
        .unwrap();
    snet.net_mut()
        .set_channel(Some(Channel::bernoulli(0.05, 7)));
    snet.net_mut().set_arq(ArqPolicy::ack(16));
    let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
               WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 30";
    let cq = snet.compile(&parse(sql).unwrap()).unwrap();
    (snet, cq)
}

/// The climate of round `r`: the noise scaled by a triangle wave of period
/// 16, so readings drift back and forth and a few nodes change cell a round.
fn drift(r: usize) -> Vec<FieldSpec> {
    let tri = 1.0 - (2.0 * (r % 16) as f64 / 16.0 - 1.0).abs();
    let scale = |s: FieldSpec| FieldSpec {
        noise: s.noise * (1.0 + 0.25 * tri),
        ..s
    };
    presets::indoor_climate().into_iter().map(scale).collect()
}

/// A steady-state round allocates what its changes need — a delta per
/// changed cell, a filter delta per forwarding node, a stream op per
/// shipped tuple — and none of the per-node objects a round once rebuilt
/// (a filter view per receiving node and a copy for each of its children,
/// a vector of shipped values per drifted node, a tuple list per relay).
/// The result's rows, one vector each, are what `JoinResult::Rows` needs
/// and are not counted.
#[test]
fn a_steady_state_round_allocates_half_what_it_did() {
    let _guard = serial();
    let (mut snet, cq) = lossy_deployment(1_500);
    let mut cont = ContinuousSensJoin::new();
    let mut worst = 0;
    for r in 0..40 {
        snet.resample(&drift(r), 20090331);
        let (allocs, out) = allocations(|| cont.execute_round(&mut snet, &cq).unwrap());
        assert!(out.complete, "round {r} lost data");
        if r >= 20 {
            worst = worst.max(allocs - out.result.len() as u64);
        }
    }
    let budget = BUDGET
        + if cfg!(debug_assertions) {
            SELF_CHECKS
        } else {
            0
        };
    assert!(worst <= budget, "{worst} allocations besides the rows");
}

/// The executor's image is one buffer reserved for the whole image and
/// written column by column: 1 500 nodes allocate what 300 do.
#[test]
fn an_executor_image_allocates_the_same_at_any_node_count() {
    let _guard = serial();
    let mut counts = Vec::new();
    for n in [300, 1_500] {
        let (mut snet, cq) = lossy_deployment(n);
        let mut cont = ContinuousSensJoin::new();
        for r in 0..3 {
            snet.resample(&drift(r), 20090331);
            cont.execute_round(&mut snet, &cq).unwrap();
        }
        let (allocs, bytes) = allocations(|| {
            let mut w = Writer::new();
            cont.encode_state(&mut w);
            w.len()
        });
        assert!(bytes > 0);
        counts.push(allocs);
    }
    assert_eq!(counts[0], counts[1], "300 nodes, then 1 500");
}
