//! Error tolerance (§IV-F): re-execution after link failures.
//!
//! SENS-Join keeps no state beyond a single execution and relies on the
//! collection-tree protocol to repair routes: "If a link goes down during
//! the execution of a query, we rely upon the tree protocol to re-establish
//! the routing structure. Afterwards, we simply re-execute the query."
//!
//! [`execute_with_recovery`] models exactly that: if any tree link is down,
//! one aborted attempt is charged (the traffic transmitted before the outage
//! is noticed — conservatively, a full attempt over the broken tree), the
//! routing tree is rebuilt around the failed links, and the query re-runs.
//! The returned result is the exact result; the returned statistics include
//! the wasted traffic.

use crate::epoch::{attempts, Report};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::snetwork::SensorNetwork;
use crate::JoinMethod;
use sensjoin_query::CompiledQuery;
use sensjoin_sim::{ArqPolicy, LinkFailures, RepairStrategy};

/// Default attempt cap for [`execute_with_reexecution`].
pub const MAX_REEXECUTION_ATTEMPTS: u32 = 5;

/// Report of a recovered execution.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The final (exact) outcome; its statistics include wasted attempts.
    pub outcome: JoinOutcome,
    /// Number of executions performed (1 = no failure encountered).
    pub attempts: u32,
    /// Number of tree links that were down at query start.
    pub affected_links: usize,
}

/// Executes `method` under `failures`. If the current routing tree uses a
/// failed link, a full attempt over the broken tree is charged as wasted
/// traffic, routing is repaired (CTP re-convergence) and the query is
/// re-executed on the new tree.
pub fn execute_with_recovery(
    method: &dyn JoinMethod,
    snet: &mut SensorNetwork,
    query: &CompiledQuery,
    failures: &LinkFailures,
) -> Result<RecoveryOutcome, ProtocolError> {
    // Which tree links are affected?
    let routing = snet.net().routing();
    let affected = (snet.net().topology().nodes())
        .filter(|&v| routing.parent(v).is_some_and(|p| failures.is_down(v, p)))
        .count();
    // Aborted attempt: traffic sent before the outage is detected. We charge
    // a full attempt over the stale tree — an upper bound on the waste. CTP
    // then repairs the tree around the failed links, and the query re-runs.
    let mut run = reexecute_while(
        method,
        snet,
        query,
        2,
        |_| affected > 0,
        |snet| {
            snet.net_mut()
                .rebuild_routing(&|a, b| failures.is_down(a, b))
        },
    )?;
    run.affected_links = affected;
    Ok(run)
}

/// The paper's §IV-F recipe applied to *per-packet* loss: no hop-by-hop
/// reliability at all — "we simply re-execute the query" until one run gets
/// everything through intact.
///
/// The network's ARQ policy is forced to [`ArqPolicy::None`] for the
/// duration of the call (and restored afterwards); the channel stays
/// whatever the caller configured. All attempts' traffic is merged into the
/// returned statistics and their latencies add up — this is exactly the
/// baseline cost the hop-by-hop ARQ policies are measured against. Attempts
/// are capped at `max_attempts`; if even the last one loses data, the final
/// outcome is returned with `complete = false`.
pub fn execute_with_reexecution(
    method: &dyn JoinMethod,
    snet: &mut SensorNetwork,
    query: &CompiledQuery,
    max_attempts: u32,
) -> Result<RecoveryOutcome, ProtocolError> {
    let saved = snet.net().arq();
    snet.net_mut().set_arq(ArqPolicy::None);
    let run = reexecute_while(method, snet, query, max_attempts, |o| !o.complete, |_| {});
    snet.net_mut().set_arq(saved);
    run
}

/// The §IV-F recipe applied to *node churn*: no localized repair — whenever
/// a node crashes or revives during an execution, the routing tree is
/// rebuilt from scratch (a network-wide beacon flood, charged to the energy
/// model) and the query is simply re-executed, until one run goes through
/// without a churn event or `max_attempts` is reached.
///
/// The network's repair strategy is forced to
/// [`RepairStrategy::FullRebuild`] for the duration of the call (and
/// restored afterwards). All attempts' traffic — including every rebuild
/// flood — is merged into the returned statistics and their latencies add
/// up: this is exactly the baseline cost the localized-repair path is
/// measured against in the `churn_tolerance` benchmark.
pub fn execute_with_rebuild_reexecution(
    method: &dyn JoinMethod,
    snet: &mut SensorNetwork,
    query: &CompiledQuery,
    max_attempts: u32,
) -> Result<RecoveryOutcome, ProtocolError> {
    let saved = snet.net().repair_strategy();
    snet.net_mut()
        .set_repair_strategy(RepairStrategy::FullRebuild);
    let run = reexecute_while(method, snet, query, max_attempts, |o| o.churned, |_| {});
    snet.net_mut().set_repair_strategy(saved);
    run
}

/// Executes `method`, and again for as long as `retry` says the last
/// outcome will not do, `max_attempts` times at most, with `before_retry`
/// before each retry. The returned outcome is the last attempt's, carrying
/// every attempt's traffic and latency: each [`JoinMethod::execute`] opens a
/// stats window of its own, so the windows merge, earliest first.
fn reexecute_while(
    method: &dyn JoinMethod,
    snet: &mut SensorNetwork,
    query: &CompiledQuery,
    max_attempts: u32,
    retry: impl Fn(&JoinOutcome) -> bool,
    before_retry: impl FnMut(&mut SensorNetwork),
) -> Result<RecoveryOutcome, ProtocolError> {
    let (outcome, attempts) = attempts(
        snet,
        max_attempts,
        retry,
        before_retry,
        |snet| method.execute(snet, query),
        |out, mut prev| {
            let mut stats = std::mem::take(&mut prev.stats);
            stats.merge(&out.stats);
            out.stats = stats;
            out.fold(prev);
        },
    )?;
    Ok(RecoveryOutcome {
        outcome,
        attempts,
        affected_links: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::{ExternalJoin, SensJoin};
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;

    fn snet(seed: u64) -> SensorNetwork {
        SensorNetworkBuilder::new()
            .area(Area::new(350.0, 350.0))
            .placement(Placement::UniformRandom { n: 120 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn query(s: &SensorNetwork) -> CompiledQuery {
        s.compile(
            &parse(
                "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                 WHERE A.temp - B.temp > 3.0 ONCE",
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn no_failures_single_attempt() {
        let mut s = snet(1);
        let cq = query(&s);
        let r = execute_with_recovery(&SensJoin::default(), &mut s, &cq, &LinkFailures::none())
            .unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(r.affected_links, 0);
    }

    #[test]
    fn recovery_preserves_exactness() {
        let mut s = snet(2);
        let cq = query(&s);
        // Reference result on the intact tree.
        let reference = ExternalJoin.execute(&mut s, &cq).unwrap();
        // Fail a handful of tree links.
        let base = s.base();
        let victims: Vec<_> = s
            .net()
            .routing()
            .children(base)
            .iter()
            .take(2)
            .map(|&c| (c, base))
            .collect();
        assert!(!victims.is_empty());
        let failures = LinkFailures::of_links(victims);
        let r = execute_with_recovery(&SensJoin::default(), &mut s, &cq, &failures).unwrap();
        assert_eq!(r.attempts, 2);
        assert!(r.affected_links >= 1);
        // Result identical despite rerouting — as long as the network stays
        // connected around the failures.
        if s.net().routing().unreachable().is_empty() {
            assert!(r.outcome.result.same_result(&reference.result));
        }
        // Wasted attempt charged: costlier than a clean run.
        let clean = SensJoin::default().execute(&mut s, &cq).unwrap();
        assert!(r.outcome.stats.total_tx_packets() > clean.stats.total_tx_packets());
    }

    #[test]
    fn reexecution_restores_exactness_under_packet_loss() {
        let mut s = SensorNetworkBuilder::new()
            .area(Area::new(250.0, 250.0))
            .placement(Placement::UniformRandom { n: 40 })
            .seed(11)
            .build()
            .unwrap();
        let cq = query(&s);
        let reference = ExternalJoin.execute(&mut s, &cq).unwrap();
        s.net_mut()
            .set_channel(Some(sensjoin_sim::Channel::bernoulli(0.01, 99)));
        let r = execute_with_reexecution(&SensJoin::default(), &mut s, &cq, 25).unwrap();
        assert!(r.outcome.complete, "no clean run in 25 attempts");
        assert!(r.outcome.result.same_result(&reference.result));
        // The ARQ policy was restored.
        assert_eq!(s.net().arq(), ArqPolicy::None);
        if r.attempts > 1 {
            // Wasted attempts were charged.
            s.net_mut().set_channel(None);
            let solo = SensJoin::default().execute(&mut s, &cq).unwrap();
            assert!(r.outcome.stats.total_tx_bytes() > solo.stats.total_tx_bytes());
        }
    }

    #[test]
    fn rebuild_reexecution_restarts_until_churn_free() {
        use sensjoin_sim::{ChurnAction, ChurnTimeline};
        let mut s = snet(5);
        let cq = query(&s);
        let base = s.net().base();
        let victim = s.net().routing().children(base)[0];
        // Twin reference: the victim is gone from the very start.
        let mut twin = snet(5);
        twin.net_mut().fail_node(victim);
        let reference = ExternalJoin.execute(&mut twin, &cq).unwrap();
        // The victim crashes mid-execution (after the collection phase).
        let tl = ChurnTimeline::new().at_boundary(1, victim, ChurnAction::Crash);
        s.net_mut().set_churn(Some(tl));
        let r = execute_with_rebuild_reexecution(&SensJoin::default(), &mut s, &cq, 5).unwrap();
        assert_eq!(r.attempts, 2, "one churned run, one clean re-execution");
        assert!(!r.outcome.churned);
        assert!(r.outcome.complete);
        assert!(r.outcome.result.same_result(&reference.result));
        // The strategy override was restored.
        assert_eq!(s.net().repair_strategy(), RepairStrategy::Localized);
        // The rebuild flood and the wasted attempt were charged.
        let clean = SensJoin::default().execute(&mut twin, &cq).unwrap();
        assert!(r.outcome.stats.total_cost_bytes() > clean.stats.total_cost_bytes());
    }

    /// Regression for the energy subsystem: retry wrappers merge statistics
    /// out-of-band (`mem::take` + `merge`), but battery debits happen at
    /// record time on the persistent network — so every µJ of every
    /// abandoned attempt must land on the batteries exactly once, and the
    /// bank's cumulative debit must equal the merged ledger sum.
    #[test]
    fn reexecution_debits_batteries_exactly_once() {
        use sensjoin_sim::{BatteryBank, ChurnAction, ChurnTimeline};
        let pin = |bank_total: f64, stats_total: f64, label: &str| {
            let drift = (bank_total - stats_total).abs();
            assert!(
                drift <= 1e-9 * stats_total.max(1.0),
                "{label}: batteries metered {bank_total} µJ, ledger charged {stats_total} µJ"
            );
        };

        // Lossy-channel re-execution: several abandoned attempts, all on
        // one persistent network.
        let mut s = SensorNetworkBuilder::new()
            .area(Area::new(250.0, 250.0))
            .placement(Placement::UniformRandom { n: 40 })
            .seed(11)
            .build()
            .unwrap();
        let cq = query(&s);
        let bank = BatteryBank::uniform(s.len(), s.base(), 1.0e15);
        s.net_mut().set_battery(Some(bank));
        s.net_mut()
            .set_channel(Some(sensjoin_sim::Channel::bernoulli(0.08, 3)));
        let r = execute_with_reexecution(&SensJoin::default(), &mut s, &cq, 40).unwrap();
        assert!(r.attempts > 1, "0.08 loss never forced a retry — vacuous");
        pin(
            s.net().battery().unwrap().total_debited_uj(),
            r.outcome.stats.total_energy_uj(),
            "lossy re-execution",
        );

        // Churn-triggered full-rebuild re-execution: the wasted attempt,
        // the repair flood and the clean rerun all debit exactly once.
        let mut s = snet(5);
        let cq = query(&s);
        let victim = s.net().routing().children(s.net().base())[0];
        let tl = ChurnTimeline::new().at_boundary(1, victim, ChurnAction::Crash);
        s.net_mut().set_churn(Some(tl));
        let bank = BatteryBank::uniform(s.len(), s.base(), 1.0e15);
        s.net_mut().set_battery(Some(bank));
        let r = execute_with_rebuild_reexecution(&SensJoin::default(), &mut s, &cq, 5).unwrap();
        assert_eq!(r.attempts, 2, "one churned run, one clean re-execution");
        pin(
            s.net().battery().unwrap().total_debited_uj(),
            r.outcome.stats.total_energy_uj(),
            "rebuild re-execution",
        );
    }

    #[test]
    fn random_failures_still_exact() {
        for seed in [3, 4] {
            let mut s = snet(seed);
            let cq = query(&s);
            let reference = ExternalJoin.execute(&mut s, &cq).unwrap();
            let failures = LinkFailures::sample(s.net().topology(), 0.05, seed.wrapping_mul(77));
            let r = execute_with_recovery(&SensJoin::default(), &mut s, &cq, &failures).unwrap();
            // With 5% of links down the giant component usually survives;
            // only compare when nothing was partitioned away.
            if s.net().routing().unreachable().is_empty() {
                assert!(
                    r.outcome.result.same_result(&reference.result),
                    "seed {seed}"
                );
            }
        }
    }
}
