//! Per-node battery state and network-lifetime scenario tracking.
//!
//! The paper measures join methods by communication cost because radio
//! bytes drain batteries and dead nodes end the network. This module closes
//! that loop: a [`BatteryBank`] holds per-node residual energy in the same
//! flat struct-of-arrays layout as the routing tree, every µJ the
//! [`crate::EnergyModel`] charges into [`crate::NetworkStats`] is debited
//! from the transmitting/receiving node's battery at the same call site,
//! and exhaustion is converted by [`crate::Network::apply_churn`] into the
//! existing crash-stop churn machinery — so the liveness-projected
//! exactness guarantees of the recovery paths carry over unchanged to
//! endogenous, energy-driven failure.
//!
//! Depletion is applied at protocol *boundaries* only: a node that crosses
//! its capacity mid-round keeps transmitting until the next
//! [`crate::Network::apply_churn`] poll, exactly like an exogenous
//! boundary-scoped [`crate::ChurnTimeline`] event. That boundary semantics
//! is what makes a recorded death schedule replayable as an exogenous
//! timeline with bit-identical statistics.
//!
//! [`LifetimeRun`] is the passive scenario tracker behind `sensjoin
//! lifetime`: drivers execute continuous/multi-query rounds and feed the
//! network back after each one; the tracker accumulates the death-order
//! trace and decides when the configured [`LifetimeUntil`] criterion ends
//! the run.

use crate::churn::{stream_seed, STREAM_BATTERY};
use crate::Network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_relation::NodeId;

/// Per-node battery state, flat struct-of-arrays.
///
/// The base station is powered: its capacity is infinite (debits are still
/// tracked, so its drawn energy remains observable). A node is *depleted*
/// once its cumulative debit reaches its capacity; the first crossing is
/// latched into a pending queue that [`crate::Network::apply_churn`] drains
/// into crash-stop failures at the next protocol boundary.
#[derive(Debug, Clone)]
pub struct BatteryBank {
    capacity_uj: Vec<f64>,
    debited_uj: Vec<f64>,
    depleted: Vec<bool>,
    /// Nodes whose first capacity crossing has not been applied yet, in
    /// crossing order.
    pending: Vec<NodeId>,
    /// Every drained pending node, in drain order — the death-order trace.
    death_order: Vec<NodeId>,
}

impl BatteryBank {
    /// A bank of `n` identical `capacity_uj`-µJ batteries; `base` is
    /// powered (infinite capacity).
    pub fn uniform(n: usize, base: NodeId, capacity_uj: f64) -> Self {
        assert!(capacity_uj > 0.0, "battery capacity must be positive");
        let mut capacity = vec![capacity_uj; n];
        capacity[base.0 as usize] = f64::INFINITY;
        Self {
            capacity_uj: capacity,
            debited_uj: vec![0.0; n],
            depleted: vec![false; n],
            pending: Vec::new(),
            death_order: Vec::new(),
        }
    }

    /// [`BatteryBank::uniform`] with seeded per-node capacity jitter:
    /// node `v` gets `capacity_uj · (1 + jitter · u_v)` with `u_v` drawn
    /// uniformly from `[-1, 1)` on the [`STREAM_BATTERY`] sub-stream of
    /// `seed` (split once more per node, the repo-wide convention), so one
    /// master seed reproduces loss, churn and battery spread together.
    pub fn with_jitter(n: usize, base: NodeId, capacity_uj: f64, jitter: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter fraction must be in [0, 1)"
        );
        let mut bank = Self::uniform(n, base, capacity_uj);
        if jitter == 0.0 {
            return bank;
        }
        let master = stream_seed(seed, STREAM_BATTERY);
        for v in 0..n as u32 {
            if v == base.0 {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(stream_seed(master, v as u64));
            let u: f64 = rng.gen_range(-1.0..1.0);
            bank.capacity_uj[v as usize] = capacity_uj * (1.0 + jitter * u);
        }
        bank
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.capacity_uj.len()
    }

    /// Whether the bank is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.capacity_uj.is_empty()
    }

    /// Debits `uj` from `node`, latching the first capacity crossing into
    /// the pending queue. Called from every charge site (the transfer
    /// sink, repair beacons), in the exact order the matching
    /// [`crate::NetworkStats`] energy additions happen — so the cumulative
    /// debit is bit-identical to the node's `energy_uj` counter sum.
    #[inline]
    pub fn debit(&mut self, node: NodeId, uj: f64) {
        let i = node.0 as usize;
        self.debited_uj[i] += uj;
        if !self.depleted[i] && self.debited_uj[i] >= self.capacity_uj[i] {
            self.depleted[i] = true;
            self.pending.push(node);
        }
    }

    /// Drains the pending first-crossings (in crossing order), appending
    /// them to the death-order trace. [`crate::Network::apply_churn`] calls
    /// this at each protocol boundary and converts the drained nodes into
    /// crash-stop failures.
    pub fn take_pending(&mut self) -> Vec<NodeId> {
        let drained = std::mem::take(&mut self.pending);
        self.death_order.extend_from_slice(&drained);
        drained
    }

    /// Initial capacity of `node` (µJ; infinite for the base).
    pub fn capacity_uj(&self, node: NodeId) -> f64 {
        self.capacity_uj[node.0 as usize]
    }

    /// Cumulative energy debited from `node` (µJ).
    pub fn debited_uj(&self, node: NodeId) -> f64 {
        self.debited_uj[node.0 as usize]
    }

    /// Residual energy of `node` (µJ), clamped at zero.
    pub fn residual_uj(&self, node: NodeId) -> f64 {
        (self.capacity_uj[node.0 as usize] - self.debited_uj[node.0 as usize]).max(0.0)
    }

    /// Residual energy of every node, indexed by id (the parent-selection
    /// metric of [`crate::ParentPolicy::PowerAware`]).
    pub fn residuals(&self) -> Vec<f64> {
        self.capacity_uj
            .iter()
            .zip(&self.debited_uj)
            .map(|(c, d)| (c - d).max(0.0))
            .collect()
    }

    /// Whether `node` has crossed its capacity.
    pub fn is_depleted(&self, node: NodeId) -> bool {
        self.depleted[node.0 as usize]
    }

    /// Total energy debited across all nodes (µJ). Equals the sum of every
    /// `energy_uj` the network charged while this bank was attached.
    pub fn total_debited_uj(&self) -> f64 {
        self.debited_uj.iter().sum()
    }

    /// Nodes whose exhaustion has been applied, in exhaustion order.
    pub fn death_order(&self) -> &[NodeId] {
        &self.death_order
    }

    /// Exports the bank's full mutable state — the checkpoint/restore
    /// surface.
    pub fn export_state(&self) -> BatterySnapshot {
        BatterySnapshot {
            capacity_uj: self.capacity_uj.clone(),
            debited_uj: self.debited_uj.clone(),
            depleted: self.depleted.clone(),
            pending: self.pending.clone(),
            death_order: self.death_order.clone(),
        }
    }

    /// Replaces the bank's state with a previously exported snapshot. The
    /// snapshot must describe a bank of the same node count.
    pub fn import_state(&mut self, s: &BatterySnapshot) {
        assert_eq!(
            s.capacity_uj.len(),
            self.capacity_uj.len(),
            "battery snapshot node count mismatch"
        );
        self.capacity_uj = s.capacity_uj.clone();
        self.debited_uj = s.debited_uj.clone();
        self.depleted = s.depleted.clone();
        self.pending = s.pending.clone();
        self.death_order = s.death_order.clone();
    }
}

/// Plain-data export of a [`BatteryBank`]'s mutable state (see
/// [`BatteryBank::export_state`]). All fields are per-node, indexed by id,
/// except the two event-ordered traces.
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySnapshot {
    /// Initial capacity per node (µJ; infinite for the base).
    pub capacity_uj: Vec<f64>,
    /// Cumulative debit per node (µJ).
    pub debited_uj: Vec<f64>,
    /// Whether each node has crossed its capacity.
    pub depleted: Vec<bool>,
    /// First-crossings not yet applied, in crossing order.
    pub pending: Vec<NodeId>,
    /// Applied exhaustions, in exhaustion order.
    pub death_order: Vec<NodeId>,
}

/// When a [`LifetimeRun`] ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifetimeUntil {
    /// The first battery death ends the run — the classic network-lifetime
    /// metric of the power-aware-routing literature.
    FirstDeath,
    /// The run ends when some live node that used to have a route can no
    /// longer reach the base station.
    BasePartition,
    /// The run ends once the given fraction of the non-base nodes is dead.
    DeathFraction(f64),
}

/// Why a [`LifetimeRun`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeEnd {
    /// The first node exhausted its battery.
    FirstDeath(NodeId),
    /// A live, previously-routed node lost every route to the base.
    BasePartition,
    /// The configured death fraction was reached.
    DeathFraction,
    /// The round cap was reached before the criterion fired.
    MaxRounds,
}

impl std::fmt::Display for LifetimeEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifetimeEnd::FirstDeath(n) => write!(f, "first death (node {})", n.0),
            LifetimeEnd::BasePartition => write!(f, "base partition"),
            LifetimeEnd::DeathFraction => write!(f, "death fraction reached"),
            LifetimeEnd::MaxRounds => write!(f, "round cap reached"),
        }
    }
}

/// Outcome of a finished [`LifetimeRun`].
#[derive(Debug, Clone)]
pub struct LifetimeReport {
    /// Rounds executed before (and including) the ending round.
    pub rounds: u64,
    /// Why the run ended.
    pub reason: LifetimeEnd,
    /// Every battery death, as `(round, node)` in death order.
    pub deaths: Vec<(u64, NodeId)>,
    /// Residual energy per node at the end (µJ, by id; base is infinite).
    pub residual_uj: Vec<f64>,
    /// Live non-base nodes remaining.
    pub live: usize,
}

impl LifetimeReport {
    /// Minimum residual among live non-base nodes (µJ), if any survive.
    pub fn min_residual_uj(&self) -> Option<f64> {
        self.finite_residuals().min_by(f64::total_cmp)
    }

    /// Mean residual across non-base nodes (µJ).
    pub fn mean_residual_uj(&self) -> f64 {
        let (sum, n) = self
            .finite_residuals()
            .fold((0.0, 0usize), |(s, n), r| (s + r, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn finite_residuals(&self) -> impl Iterator<Item = f64> + '_ {
        self.residual_uj.iter().copied().filter(|r| r.is_finite())
    }
}

/// Passive lifetime-scenario tracker: the driver executes rounds (continuous
/// or multi-query) and calls [`LifetimeRun::observe`] with the network after
/// each one; the tracker reads newly applied battery deaths off the attached
/// [`BatteryBank`]'s death order, attributes them to the round, and reports
/// when the [`LifetimeUntil`] criterion (or the round cap) ends the run.
#[derive(Debug, Clone)]
pub struct LifetimeRun {
    until: LifetimeUntil,
    max_rounds: u64,
    rounds: u64,
    deaths: Vec<(u64, NodeId)>,
    seen: usize,
    /// Nodes that had no route at the start — pre-existing stragglers never
    /// count as a partition.
    initially_routed: Vec<bool>,
}

impl LifetimeRun {
    /// Starts tracking `net` (snapshotting which nodes are routed, so
    /// pre-existing unreachable stragglers never trigger
    /// [`LifetimeUntil::BasePartition`]). `max_rounds` caps the run.
    pub fn new(net: &Network, until: LifetimeUntil, max_rounds: u64) -> Self {
        if let LifetimeUntil::DeathFraction(f) = until {
            assert!((0.0..=1.0).contains(&f), "death fraction must be in [0,1]");
        }
        assert!(max_rounds > 0, "the round cap must be positive");
        let initially_routed = net
            .topology()
            .nodes()
            .map(|v| net.routing().depth(v).is_some())
            .collect();
        Self {
            until,
            max_rounds,
            rounds: 0,
            deaths: Vec::new(),
            seen: 0,
            initially_routed,
        }
    }

    /// Records one executed round and returns the ending reason once the
    /// criterion (or the round cap) fires. Call after every round, with the
    /// round's boundary already polled via [`Network::apply_churn`].
    pub fn observe(&mut self, net: &Network) -> Option<LifetimeEnd> {
        self.rounds += 1;
        if let Some(bank) = net.battery() {
            let order = bank.death_order();
            for &node in &order[self.seen..] {
                self.deaths.push((self.rounds, node));
            }
            self.seen = order.len();
        }
        let ended = match self.until {
            LifetimeUntil::FirstDeath => self
                .deaths
                .first()
                .map(|&(_, n)| LifetimeEnd::FirstDeath(n)),
            LifetimeUntil::BasePartition => net
                .topology()
                .nodes()
                .any(|v| {
                    net.is_alive(v)
                        && self.initially_routed[v.0 as usize]
                        && net.routing().depth(v).is_none()
                })
                .then_some(LifetimeEnd::BasePartition),
            LifetimeUntil::DeathFraction(f) => {
                let base = net.base();
                let dead = net
                    .topology()
                    .nodes()
                    .filter(|&v| v != base && !net.is_alive(v))
                    .count();
                let total = net.len().saturating_sub(1);
                (total > 0 && dead as f64 >= f * total as f64).then_some(LifetimeEnd::DeathFraction)
            }
        };
        ended.or((self.rounds >= self.max_rounds).then_some(LifetimeEnd::MaxRounds))
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Deaths observed so far, as `(round, node)` in death order.
    pub fn deaths(&self) -> &[(u64, NodeId)] {
        &self.deaths
    }

    /// Summarizes the run against the network's final state.
    pub fn report(&self, net: &Network, reason: LifetimeEnd) -> LifetimeReport {
        let residual_uj = net
            .battery()
            .map(BatteryBank::residuals)
            .unwrap_or_default();
        let base = net.base();
        let live = net
            .topology()
            .nodes()
            .filter(|&v| v != base && net.is_alive(v))
            .count();
        LifetimeReport {
            rounds: self.rounds,
            reason,
            deaths: self.deaths.clone(),
            residual_uj,
            live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bank_powers_the_base() {
        let bank = BatteryBank::uniform(4, NodeId(2), 1000.0);
        assert_eq!(bank.len(), 4);
        assert_eq!(bank.capacity_uj(NodeId(0)), 1000.0);
        assert!(bank.capacity_uj(NodeId(2)).is_infinite());
        assert_eq!(bank.residual_uj(NodeId(1)), 1000.0);
    }

    #[test]
    fn debit_latches_first_crossing_in_order() {
        let mut bank = BatteryBank::uniform(3, NodeId(0), 100.0);
        bank.debit(NodeId(2), 60.0);
        bank.debit(NodeId(1), 150.0); // crosses first
        bank.debit(NodeId(2), 60.0); // crosses second
        bank.debit(NodeId(1), 10.0); // already depleted: no re-latch
        assert!(bank.is_depleted(NodeId(1)));
        assert!(bank.is_depleted(NodeId(2)));
        assert_eq!(bank.take_pending(), vec![NodeId(1), NodeId(2)]);
        assert!(bank.take_pending().is_empty());
        assert_eq!(bank.death_order(), &[NodeId(1), NodeId(2)]);
        assert_eq!(bank.residual_uj(NodeId(1)), 0.0);
        assert!((bank.total_debited_uj() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn base_never_depletes() {
        let mut bank = BatteryBank::uniform(2, NodeId(0), 10.0);
        bank.debit(NodeId(0), 1e18);
        assert!(!bank.is_depleted(NodeId(0)));
        assert!(bank.take_pending().is_empty());
        assert!(bank.residual_uj(NodeId(0)).is_infinite());
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let a = BatteryBank::with_jitter(50, NodeId(0), 1000.0, 0.2, 7);
        let b = BatteryBank::with_jitter(50, NodeId(0), 1000.0, 0.2, 7);
        let c = BatteryBank::with_jitter(50, NodeId(0), 1000.0, 0.2, 8);
        let mut differs = false;
        let mut spread = false;
        for v in 1..50u32 {
            let n = NodeId(v);
            assert_eq!(a.capacity_uj(n), b.capacity_uj(n), "same seed, node {v}");
            assert!(
                (800.0..1200.0).contains(&a.capacity_uj(n)),
                "jitter bound violated at {v}: {}",
                a.capacity_uj(n)
            );
            differs |= a.capacity_uj(n) != c.capacity_uj(n);
            spread |= a.capacity_uj(n) != 1000.0;
        }
        assert!(differs, "different seeds must differ");
        assert!(spread, "jitter must move capacities");
        assert!(a.capacity_uj(NodeId(0)).is_infinite());
        let zero = BatteryBank::with_jitter(10, NodeId(0), 500.0, 0.0, 3);
        assert_eq!(zero.capacity_uj(NodeId(4)), 500.0);
    }
}
