//! Battery depletion is just churn: determinism and replay equivalence.
//!
//! The energy subsystem's contract has two halves. First, the depletion
//! schedule — which nodes die, at which round boundary, in which order — is
//! a pure function of the build seed, the battery parameters and the
//! workload: running the same configuration twice yields the identical
//! schedule. Second, depletion deaths go through the very same crash-stop
//! path as exogenous churn, applied only at protocol boundaries — so
//! replaying a recorded death schedule as a [`ChurnTimeline`] on a
//! battery-free twin must reproduce every round's per-node statistics and
//! results *bit-identically*. Together these pin the PR-5
//! liveness-projected-exactness guarantees onto battery-driven churn.
//!
//! Scope: [`ParentPolicy::MinHop`] (the default). Power-aware parent
//! rotation reads residual energy at every boundary, which an exogenous
//! timeline cannot carry — its correctness is argued structurally
//! (depth-preserving rotation) and covered by the sim-level tests.

use proptest::prelude::*;
use sensjoin_core::{
    ContinuousSensJoin, JoinMethod, SensJoin, SensorNetwork, SensorNetworkBuilder,
};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_relation::NodeId;
use sensjoin_sim::{BatteryBank, ChurnAction, ChurnTimeline, NodeStats};

const SQL_CONT: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                        WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30";
const SQL_ONCE: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                        WHERE A.temp - B.temp > 3.0 ONCE";

const N: usize = 60;
const ROUNDS: u64 = 5;

fn snet(seed: u64) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::new(260.0, 260.0))
        .placement(Placement::UniformRandom { n: N })
        .seed(seed)
        .build()
        .unwrap()
}

/// Worst per-node energy of one clean (battery-free) continuous round —
/// the yardstick battery capacities are scaled against.
fn probe_round_energy(seed: u64) -> f64 {
    let mut s = snet(seed);
    let cq = s.compile(&parse(SQL_CONT).unwrap()).unwrap();
    let out = ContinuousSensJoin::new()
        .execute_round(&mut s, &cq)
        .unwrap();
    let base = s.base();
    out.stats
        .per_node()
        .enumerate()
        .filter(|&(i, _)| NodeId(i as u32) != base)
        .map(|(_, ns)| ns.energy_uj)
        .fold(0.0, f64::max)
}

/// One observed continuous round: everything the replay must reproduce.
struct RoundLog {
    per_node: Vec<NodeStats>,
    complete: bool,
    result: sensjoin_core::JoinResult,
}

/// Runs `ROUNDS` continuous rounds with a battery bank attached and
/// records the depletion schedule: `(boundary, victim)` pairs in
/// application order. Battery crossings latch mid-round and are applied at
/// the *next* round's churn poll; on a fresh network the poll at the start
/// of round `r` is boundary `r`, so deaths first visible after round `r`
/// carry boundary `r`.
fn battery_run(seed: u64, capacity_uj: f64, jitter: f64) -> (Vec<(u32, NodeId)>, Vec<RoundLog>) {
    let mut s = snet(seed);
    let bank = BatteryBank::with_jitter(s.len(), s.base(), capacity_uj, jitter, seed);
    s.net_mut().set_battery(Some(bank));
    let cq = s.compile(&parse(SQL_CONT).unwrap()).unwrap();
    let mut cont = ContinuousSensJoin::new();
    let specs = presets::indoor_climate();
    let mut schedule = Vec::new();
    let mut seen = 0usize;
    let mut logs = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            s.resample(&specs, seed.wrapping_add(round));
        }
        let out = cont.execute_round(&mut s, &cq).unwrap();
        let deaths = s.net().battery().unwrap().death_order();
        for &v in &deaths[seen..] {
            schedule.push((round as u32, v));
        }
        seen = deaths.len();
        logs.push(RoundLog {
            per_node: out.stats.per_node().copied().collect(),
            complete: out.complete,
            result: out.result,
        });
    }
    (schedule, logs)
}

/// Replays a recorded depletion schedule as exogenous crash-stop churn on a
/// battery-free twin and returns the same per-round observations.
fn replay_run(seed: u64, schedule: &[(u32, NodeId)]) -> Vec<RoundLog> {
    let mut s = snet(seed);
    let mut tl = ChurnTimeline::new();
    for &(b, v) in schedule {
        tl = tl.at_boundary(b, v, ChurnAction::Crash);
    }
    s.net_mut().set_churn(Some(tl));
    let cq = s.compile(&parse(SQL_CONT).unwrap()).unwrap();
    let mut cont = ContinuousSensJoin::new();
    let specs = presets::indoor_climate();
    let mut logs = Vec::new();
    for round in 0..ROUNDS {
        if round > 0 {
            s.resample(&specs, seed.wrapping_add(round));
        }
        let out = cont.execute_round(&mut s, &cq).unwrap();
        logs.push(RoundLog {
            per_node: out.stats.per_node().copied().collect(),
            complete: out.complete,
            result: out.result,
        });
    }
    logs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) The depletion schedule is a deterministic function of the seed
    /// and battery parameters: two identically-configured runs produce the
    /// same `(boundary, victim)` sequence and the same round outcomes.
    #[test]
    fn depletion_schedule_is_seed_deterministic(
        seed in 1..24u64,
        strength in 0.6..2.5f64,
        jitter in 0.0..0.3f64,
    ) {
        let capacity = probe_round_energy(seed) * strength;
        let (sched_a, logs_a) = battery_run(seed, capacity, jitter);
        let (sched_b, logs_b) = battery_run(seed, capacity, jitter);
        prop_assert_eq!(&sched_a, &sched_b, "death schedule diverged across twin runs");
        for (r, (a, b)) in logs_a.iter().zip(&logs_b).enumerate() {
            prop_assert_eq!(&a.per_node, &b.per_node, "round {} stats diverged", r);
            prop_assert!(a.result.same_result(&b.result), "round {} result diverged", r);
        }
    }

    /// (b) Replaying the recorded schedule as an exogenous [`ChurnTimeline`]
    /// on a battery-free twin reproduces every round bit-identically:
    /// per-node statistics (bytes, packets, energy f64s, death counters)
    /// and results. Battery deaths *are* crash-stop churn.
    #[test]
    fn depletion_replays_as_exogenous_churn(
        seed in 1..24u64,
        strength in 0.6..2.2f64,
        jitter in 0.0..0.3f64,
    ) {
        let capacity = probe_round_energy(seed) * strength;
        let (schedule, battery_logs) = battery_run(seed, capacity, jitter);
        // A sub-unit strength (even after upward jitter) guarantees the
        // heaviest relay cannot survive round 0 — the case is non-vacuous.
        if strength * (1.0 + jitter) < 1.0 {
            prop_assert!(!schedule.is_empty(), "expected at least one depletion");
        }
        let replay_logs = replay_run(seed, &schedule);
        prop_assert_eq!(battery_logs.len(), replay_logs.len());
        for (r, (a, b)) in battery_logs.iter().zip(&replay_logs).enumerate() {
            prop_assert_eq!(
                &a.per_node, &b.per_node,
                "round {} per-node stats diverged from the churn replay", r
            );
            prop_assert_eq!(a.complete, b.complete, "round {} completeness diverged", r);
            prop_assert!(
                a.result.same_result(&b.result),
                "round {} result diverged from the churn replay", r
            );
        }
    }
}

/// A battery large enough to never deplete leaves a one-shot execution
/// bit-identical to the same network without one — the debit path is
/// observation, not perturbation — while still metering every charged µJ.
#[test]
fn undepleted_battery_is_pure_observation() {
    for seed in [3u64, 9, 17] {
        let cq = snet(seed).compile(&parse(SQL_ONCE).unwrap()).unwrap();
        let mut bare = snet(seed);
        let reference = SensJoin::default().execute(&mut bare, &cq).unwrap();
        let mut powered = snet(seed);
        let bank = BatteryBank::with_jitter(powered.len(), powered.base(), 1.0e15, 0.25, seed);
        powered.net_mut().set_battery(Some(bank));
        let out = SensJoin::default().execute(&mut powered, &cq).unwrap();
        assert!(
            reference.stats.per_node().eq(out.stats.per_node()),
            "seed {seed}: battery observation perturbed the execution"
        );
        assert!(out.result.same_result(&reference.result), "seed {seed}");
        let bank = powered.net().battery().unwrap();
        assert!(bank.death_order().is_empty(), "seed {seed}");
        let drift = (bank.total_debited_uj() - out.stats.total_energy_uj()).abs();
        assert!(
            drift <= 1e-9 * out.stats.total_energy_uj(),
            "seed {seed}: metered {} µJ vs charged {} µJ",
            bank.total_debited_uj(),
            out.stats.total_energy_uj()
        );
    }
}
