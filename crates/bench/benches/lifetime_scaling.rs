//! Network lifetime: battery-powered continuous band join, min-hop routing
//! vs power-aware parent rotation, on a 1500-node deployment.
//!
//! Every node starts with a seeded battery; each round's transmissions are
//! debited through the energy model and exhausted nodes crash at the next
//! protocol boundary. The deployment is four times the paper's density
//! (same 50 m range): power-aware rotation balances load by moving subtrees
//! between interchangeable same-depth parents, and at paper density the
//! depth-1 ring around the base has almost no interchangeable members — the
//! first victim's children typically have *zero* alternative parents in
//! range, so no parent policy can shed its load. The dense deployment (a
//! base station near the center of it) is the regime the mechanism is for.
//!
//! Acceptance gates (asserted here, recorded in `BENCH_engine.json`):
//! power-aware must reach ≥ 1.3× the min-hop rounds-to-first-death on the
//! 1500-node continuous band join, and a continuous run whose batteries
//! never deplete must be bit-identical (per-node stats and results) to the
//! same run with no battery attached.

use criterion::{black_box, BenchmarkId, Criterion};
use sensjoin_bench::{benchjson, SEED};
use sensjoin_core::{ContinuousSensJoin, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_sim::{BaseChoice, BatteryBank, LifetimeRun, LifetimeUntil, ParentPolicy};
use std::time::Instant;

const NODES: usize = 1500;
/// Area sized for this many nodes at paper density → 4× density at `NODES`.
const DENSITY_N: usize = 375;
/// Initial battery, µJ (0.4 J: ~a dozen min-hop rounds at this scale).
const CAPACITY_UJ: f64 = 0.4e6;
const MAX_ROUNDS: u64 = 400;
/// Small-network configuration for the timing loop and the identity gate.
const TIMING_NODES: usize = 400;
const TIMING_DENSITY_N: usize = 100;
const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30";

fn dense_network(n: usize, density_n: usize, seed: u64) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .placement(Placement::UniformRandom { n })
        .area(Area::for_constant_density(density_n))
        .fields(presets::indoor_climate())
        .base(BaseChoice::NearestCenter)
        .seed(seed)
        .build()
        .expect("dense network builds")
}

/// Rounds until the first battery death under `policy` (resampling fields
/// every round), plus the number of boundary rotations that happened.
fn rounds_to_first_death(n: usize, density_n: usize, policy: ParentPolicy) -> u64 {
    let mut snet = dense_network(n, density_n, SEED);
    let bank = BatteryBank::with_jitter(snet.len(), snet.base(), CAPACITY_UJ, 0.0, SEED);
    snet.net_mut().set_battery(Some(bank));
    snet.net_mut().set_parent_policy(policy);
    let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
    let specs = presets::indoor_climate();
    let mut cont = ContinuousSensJoin::new();
    let mut run = LifetimeRun::new(snet.net(), LifetimeUntil::FirstDeath, MAX_ROUNDS);
    loop {
        let r = run.rounds();
        if r > 0 {
            snet.resample(&specs, SEED.wrapping_add(r));
        }
        let _ = cont.execute_round(&mut snet, &cq).expect("round executes");
        if run.observe(snet.net()).is_some() {
            break;
        }
    }
    run.rounds()
}

/// Zero-depletion identity gate: per-round per-node stats and results of a
/// battery-free run vs the same run with an (undepletable) jittered bank.
fn zero_depletion_identical(rounds: u64) -> bool {
    let mut logs: Vec<Vec<(Vec<sensjoin_sim::NodeStats>, usize)>> = Vec::new();
    for battery in [false, true] {
        let mut snet = dense_network(TIMING_NODES, TIMING_DENSITY_N, SEED);
        if battery {
            let bank = BatteryBank::with_jitter(snet.len(), snet.base(), 1.0e15, 0.2, SEED);
            snet.net_mut().set_battery(Some(bank));
        }
        let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
        let specs = presets::indoor_climate();
        let mut cont = ContinuousSensJoin::new();
        let mut log = Vec::new();
        for r in 0..rounds {
            if r > 0 {
                snet.resample(&specs, SEED.wrapping_add(r));
            }
            let out = cont.execute_round(&mut snet, &cq).expect("round executes");
            log.push((out.stats.per_node().copied().collect(), out.result.len()));
        }
        if battery {
            assert!(
                snet.net().battery().unwrap().death_order().is_empty(),
                "identity gate misconfigured: the undepletable bank depleted"
            );
        }
        logs.push(log);
    }
    logs[0] == logs[1]
}

fn main() {
    let mut criterion = Criterion::default();

    // Gate 1: power-aware rotation extends rounds-to-first-death ≥ 1.3×.
    let minhop = rounds_to_first_death(NODES, DENSITY_N, ParentPolicy::MinHop);
    let poweraware = rounds_to_first_death(NODES, DENSITY_N, ParentPolicy::PowerAware);
    let ratio = poweraware as f64 / minhop as f64;
    assert!(
        minhop > 1 && minhop < MAX_ROUNDS,
        "min-hop first death at round {minhop} — capacity miscalibrated, comparison vacuous"
    );
    assert!(
        ratio >= 1.3,
        "gate violated: power-aware {poweraware} rounds vs min-hop {minhop} \
         rounds to first death is {ratio:.2}× < 1.3×"
    );

    // Gate 2: an undepleted battery is pure observation.
    let identical = zero_depletion_identical(3);
    assert!(
        identical,
        "gate violated: zero-depletion run diverged from the no-battery run"
    );

    // Timing: one battery-powered continuous round per policy at the small
    // configuration (a fresh bank each iteration keeps rounds comparable).
    {
        let mut bg = criterion.benchmark_group("lifetime_scaling");
        for (name, policy) in [
            ("minhop", ParentPolicy::MinHop),
            ("poweraware", ParentPolicy::PowerAware),
        ] {
            let mut snet = dense_network(TIMING_NODES, TIMING_DENSITY_N, SEED);
            snet.net_mut().set_parent_policy(policy);
            let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
            let mut cont = ContinuousSensJoin::new();
            bg.bench_with_input(
                BenchmarkId::new("round", format!("{name}/{TIMING_NODES}")),
                &policy,
                |b, _| {
                    b.iter_custom(|iters| {
                        let start = Instant::now();
                        for _ in 0..iters {
                            let bank = BatteryBank::with_jitter(
                                snet.len(),
                                snet.base(),
                                CAPACITY_UJ,
                                0.0,
                                SEED,
                            );
                            snet.net_mut().set_battery(Some(bank));
                            black_box(cont.execute_round(&mut snet, &cq).expect("round"));
                        }
                        start.elapsed()
                    })
                },
            );
        }
        bg.finish();
    }

    println!(
        "lifetime_scaling: {NODES} nodes (density ×{:.0}, {:.1} J) → \
         min-hop {minhop} rounds, power-aware {poweraware} rounds to first \
         death ({ratio:.2}×); zero-depletion bit-identical: {identical}",
        NODES as f64 / DENSITY_N as f64,
        CAPACITY_UJ / 1e6,
    );
    let results = criterion.results().to_vec();
    let extras = [
        ("nodes", format!("{NODES}")),
        (
            "density_factor",
            format!("{:.1}", NODES as f64 / DENSITY_N as f64),
        ),
        ("capacity_j", format!("{:.2}", CAPACITY_UJ / 1e6)),
        ("minhop_rounds_to_first_death", format!("{minhop}")),
        ("poweraware_rounds_to_first_death", format!("{poweraware}")),
        ("poweraware_over_minhop", format!("{ratio:.2}")),
        ("zero_depletion_bit_identical", format!("{identical}")),
        (
            "gate",
            "\"poweraware_over_minhop >= 1.3 and zero-depletion bit-identity\"".to_string(),
        ),
    ];
    benchjson::merge_section(
        "lifetime_scaling",
        &benchjson::section_value(&results, &extras),
    );
}
