//! Serving-layer throughput: sustained multi-tenant query-epochs per
//! second and the cost of a cold bulk admission.
//!
//! Workload: 520 tenants submit continuous band-join queries against 4
//! deployments (round-robin, 130 per deployment; per-deployment capacity
//! is 2 groups × 64, so 512 are admitted and 8 draw structured
//! `DeploymentFull` rejections). Templates come from a 16-template pool
//! with 50 % skew: half the tenants ask the hottest template, the rest
//! spread uniformly over the other 15, so most admissions join a live plan.
//!
//! Acceptance gates (asserted here, recorded in `BENCH_engine.json`):
//!
//! * ≥ 500 tenants admitted across ≥ 4 deployments, and the p99 simulated
//!   epoch latency over the measured ticks stays within the 30 s epoch
//!   period (the serving deadline).
//!
//! `admission_us` — the 520 submissions admitted into a fresh server,
//! best-of — is recorded without a gate: it is a layer number, and DESIGN
//! §4.12 has what it read with an admission cache in front of it.

use criterion::{black_box, BenchmarkId, Criterion};
use sensjoin_bench::benchjson;
use sensjoin_serve::{DeploymentSpec, ServeConfig, Server, Submission, TenantId};
use std::time::Instant;

const NODES: usize = 250;
const DEPLOYMENTS: usize = 4;
const TENANTS: u64 = 520;
const MAX_GROUPS: usize = 2;
const TEMPLATE_POOL: usize = 16;
const SKEW: f64 = 0.5;
const PERIOD_US: u64 = 30_000_000;
const MEASURED_TICKS: u64 = 3;
const ADMISSION_REPS: usize = 3;

fn server() -> Server {
    let mut server = Server::new(ServeConfig {
        max_groups: MAX_GROUPS,
        queue_depth: TENANTS as usize,
        period_us: PERIOD_US,
        ..ServeConfig::default()
    });
    for d in 0..DEPLOYMENTS {
        server
            .add_deployment(&DeploymentSpec::new(
                format!("dep{d}"),
                NODES,
                11 + d as u64,
            ))
            .unwrap();
    }
    server
}

/// Template of tenant `i`: index 0 with probability `SKEW` (by fractional
/// accumulation, so any prefix holds the skew), else uniform over the
/// rest of the pool. Keyed on the round-robin round `i / DEPLOYMENTS`, so
/// the template mix is identical on every deployment instead of
/// correlating with the `i % DEPLOYMENTS` assignment.
fn template(i: u64) -> usize {
    let r = i / DEPLOYMENTS as u64;
    let hot = ((r + 1) as f64 * SKEW).floor() > (r as f64 * SKEW).floor();
    if hot {
        0
    } else {
        1 + (r as usize) % (TEMPLATE_POOL - 1)
    }
}

fn submit_all(server: &mut Server) {
    for i in 0..TENANTS {
        let t = template(i);
        let sql = format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {:.2} SAMPLE PERIOD 30",
            2.0 + 0.25 * t as f64
        );
        let immediate = server.submit(Submission {
            tenant: TenantId(i),
            deployment: format!("dep{}", i as usize % DEPLOYMENTS),
            sql,
            every: 1,
        });
        assert!(immediate.is_none(), "queue sized for the full tenant set");
    }
}

fn main() {
    let mut criterion = Criterion::default();

    // Cold admission cost: the 520 submissions into a fresh server per
    // repetition, best-of to shed scheduler noise.
    let mut admission_us = u128::MAX;
    for _ in 0..ADMISSION_REPS {
        let mut s = server();
        submit_all(&mut s);
        let t0 = Instant::now();
        black_box(s.admit());
        admission_us = admission_us.min(t0.elapsed().as_micros());
    }

    // The serving run the gates read: admit everyone, then measure ticks.
    let mut s = server();
    submit_all(&mut s);
    let t0 = Instant::now();
    let mut query_epochs = 0u64;
    for _ in 0..MEASURED_TICKS {
        let report = s.tick().unwrap();
        query_epochs += report.epochs.len() as u64;
    }
    let serve_elapsed = t0.elapsed();
    let m = s.metrics().clone();
    let admitted = m.totals.admitted;
    let rejected_full = m.totals.rejected_full;
    let p99_us = m.epoch_latency_us().p99();
    let qps = query_epochs as f64 / serve_elapsed.as_secs_f64();

    // Gates.
    assert!(s.num_deployments() >= 4, "gate needs ≥ 4 deployments");
    assert!(
        admitted >= 500,
        "gate violated: {admitted} < 500 admitted continuous queries"
    );
    assert!(
        p99_us <= PERIOD_US,
        "gate violated: p99 epoch latency {p99_us} µs exceeds the {PERIOD_US} µs epoch period"
    );

    // Timing: one full serving tick (resample + every group's epoch on
    // every deployment) at the admitted steady state.
    {
        let mut bg = criterion.benchmark_group("serve_throughput");
        bg.bench_with_input(
            BenchmarkId::new("tick", format!("{admitted}q_{DEPLOYMENTS}dep")),
            &admitted,
            |b, _| {
                b.iter_custom(|iters| {
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(s.tick().unwrap());
                    }
                    start.elapsed()
                })
            },
        );
        bg.finish();
    }

    println!(
        "serve_throughput: {admitted} admitted ({rejected_full} full-rejections) across \
         {DEPLOYMENTS} deployments; {qps:.0} query-epochs/s wall; p99 epoch latency \
         {:.1} ms (period {:.0} s)",
        p99_us as f64 / 1000.0,
        PERIOD_US as f64 / 1e6
    );
    println!(
        "serve_throughput: cold admission of {TENANTS} submissions {admission_us} µs \
         ({} joined a live plan / {} built one)",
        m.plans_joined, m.plans_built
    );

    let results = criterion.results().to_vec();
    let extras = [
        ("deployments", format!("{DEPLOYMENTS}")),
        ("host_threads", format!("{}", benchjson::host_threads())),
        ("nodes_per_deployment", format!("{NODES}")),
        ("tenants_submitted", format!("{TENANTS}")),
        ("admitted", format!("{admitted}")),
        ("rejected_deployment_full", format!("{rejected_full}")),
        ("template_pool", format!("{TEMPLATE_POOL}")),
        ("template_skew", format!("{SKEW}")),
        ("query_epochs_per_sec", format!("{qps:.1}")),
        ("p99_epoch_latency_us", format!("{p99_us}")),
        ("epoch_period_us", format!("{PERIOD_US}")),
        ("admission_us", format!("{admission_us}")),
        (
            "joined_live_plan_share",
            format!("{:.3}", m.cache_hit_rate()),
        ),
        (
            "gate",
            "\"admitted >= 500 across >= 4 deployments, p99 epoch latency <= period\"".to_string(),
        ),
    ];
    benchjson::merge_section(
        "serve_throughput",
        &benchjson::section_value(&results, &extras),
    );
}
