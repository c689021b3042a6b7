//! The network facade protocols run against.

use crate::battery::{BatteryBank, BatterySnapshot};
use crate::churn::{
    ChurnAction, ChurnOutcome, ChurnTimeline, RepairStrategy, BEACON_BYTES, PHASE_REPAIR,
};
use crate::reliability::{summary_bytes, ACK_BYTES};
use crate::routing::{ParentPolicy, RepairReport};
use crate::sink::ChargeSink;
use crate::{
    ArqPolicy, BroadcastDelivery, Channel, ChannelLinkState, Delivery, EnergyModel, NetworkStats,
    PhaseId, RadioConfig, RoutingTree, Time, Topology, Trace, TraceRecord,
};
use sensjoin_field::{Area, Position};
use sensjoin_relation::NodeId;
use std::sync::Arc;

/// Plain-data export of a [`Network`]'s mutable state (see
/// [`Network::export_state`]): liveness, routing tree, statistics, trace,
/// per-link channel streams, the undrained churn schedule and boundary
/// clock, and the battery bank. Construction-time configuration is *not*
/// included — a restore replays this on top of an identically-configured
/// network. Exported between rounds, after [`Network::take_stats`], the
/// statistics are zero counters of no per-node array: the export copies no
/// counter, and the checkpoint codec writes only the nodes with a non-zero
/// one.
#[derive(Debug, Clone)]
pub struct NetSnapshot {
    /// Per-node liveness flags.
    pub alive: Vec<bool>,
    /// Routing parents (`u32::MAX` for the base and unreachable nodes); the
    /// hop counts are derived from them on restore.
    pub parent: Vec<u32>,
    /// Accumulated statistics.
    pub stats: NetworkStats,
    /// Trace records, if tracing was enabled.
    pub trace: Option<Vec<TraceRecord>>,
    /// Per-link channel RNG/Markov states, if a channel is attached.
    pub channel_states: Option<Vec<ChannelLinkState>>,
    /// Undrained time-scoped churn events (pop order), if a timeline is
    /// attached.
    pub churn_timed: Option<Vec<(Time, NodeId, ChurnAction)>>,
    /// Undrained boundary-scoped churn events (boundary order).
    pub churn_boundary_events: Vec<(u32, Vec<(NodeId, ChurnAction)>)>,
    /// Next boundary index [`Network::apply_churn`] will poll.
    pub churn_boundary: u32,
    /// Accumulated churn clock (µs).
    pub churn_clock: Time,
    /// Battery bank state, if a bank is attached.
    pub battery: Option<BatterySnapshot>,
}

/// Errors constructing or restoring a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// No nodes were given.
    Empty,
    /// The chosen base station id is out of range.
    BadBase,
    /// A [`NetSnapshot`] does not describe this network (what was wrong).
    BadSnapshot(&'static str),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Empty => write!(f, "network needs at least one node"),
            NetworkError::BadBase => write!(f, "base station id out of range"),
            NetworkError::BadSnapshot(what) => write!(f, "bad network snapshot: {what}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// How the base station node is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseChoice {
    /// The node closest to the area center (default: minimizes and
    /// symmetrizes tree depth, as in typical deployments with a powered
    /// access point placed centrally).
    NearestCenter,
    /// The node closest to the origin corner (worst-case tree depth).
    NearestCorner,
    /// An explicit node.
    Node(NodeId),
}

/// Builder for [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    radio: RadioConfig,
    energy: EnergyModel,
    base: BaseChoice,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self {
            radio: RadioConfig::paper_default(),
            energy: EnergyModel::micaz(),
            base: BaseChoice::NearestCenter,
        }
    }
}

impl NetworkBuilder {
    /// Creates a builder with the paper-default radio and MicaZ energy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the radio configuration.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the energy model.
    pub fn energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Sets the base-station choice.
    pub fn base(mut self, base: BaseChoice) -> Self {
        self.base = base;
        self
    }

    /// Builds the network: topology, routing tree, zeroed statistics.
    ///
    /// Positional base choices (`NearestCenter` / `NearestCorner`) consider
    /// only nodes in the largest connected component — a powered access
    /// point would never be deployed on an isolated straggler node.
    pub fn build(self, positions: Vec<Position>, area: Area) -> Result<Network, NetworkError> {
        if positions.is_empty() {
            return Err(NetworkError::Empty);
        }
        let n = positions.len();
        let topology = Topology::new(positions, area, self.radio.range);
        // Largest connected component (candidates for positional bases).
        let mut seen = vec![false; n];
        let mut best_component: Vec<NodeId> = Vec::new();
        for start in topology.nodes() {
            if seen[start.0 as usize] {
                continue;
            }
            let reach = topology.reachable_from(start);
            let members: Vec<NodeId> = topology.nodes().filter(|&v| reach[v.0 as usize]).collect();
            for &v in &members {
                seen[v.0 as usize] = true;
            }
            if members.len() > best_component.len() {
                best_component = members;
            }
        }
        let nearest = |target: Position| -> NodeId {
            best_component
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    topology
                        .position(a)
                        .distance(&target)
                        .total_cmp(&topology.position(b).distance(&target))
                })
                .expect("component is non-empty")
        };
        let base = match self.base {
            BaseChoice::NearestCenter => nearest(area.center()),
            BaseChoice::NearestCorner => nearest(Position::new(0.0, 0.0)),
            BaseChoice::Node(id) => {
                if (id.0 as usize) >= n {
                    return Err(NetworkError::BadBase);
                }
                id
            }
        };
        let routing = RoutingTree::build(&topology, base);
        Ok(Network {
            stats: NetworkStats::in_order(Arc::clone(topology.slot_of())),
            topology: Arc::new(topology),
            routing,
            radio: self.radio,
            energy: self.energy,
            base,
            trace: None,
            channel: None,
            arq: ArqPolicy::None,
            alive: vec![true; n],
            churn: None,
            churn_boundary: 0,
            churn_clock: 0,
            repair_strategy: RepairStrategy::default(),
            battery: None,
            parent_policy: ParentPolicy::default(),
        })
    }
}

/// A simulated sensor network: topology + routing tree + charge-point for
/// every transmission.
///
/// All payload movement must go through [`Network::unicast`] /
/// [`Network::broadcast`] (or their `_delivery` variants), which fragment
/// the payload into packets of at most [`RadioConfig::max_payload`] bytes
/// and charge transmission/reception statistics and energy. The return
/// value is the hop's transfer latency, which protocol state machines feed
/// into the [`crate::Scheduler`].
///
/// With a lossy [`Channel`] attached ([`Network::set_channel`]), every
/// fragment is drawn through the channel and repaired by the configured
/// [`ArqPolicy`] ([`Network::set_arq`]); the `_delivery` variants report
/// what ultimately arrived. Without a channel — or with a provably perfect
/// one — the lossless fast path is taken and byte counts are identical to a
/// network that never heard of loss.
#[derive(Debug, Clone)]
pub struct Network {
    /// Shared with an attached channel, whose per-link slots it indexes.
    topology: Arc<Topology>,
    routing: RoutingTree,
    radio: RadioConfig,
    energy: EnergyModel,
    stats: NetworkStats,
    base: NodeId,
    trace: Option<Trace>,
    channel: Option<Channel>,
    arq: ArqPolicy,
    alive: Vec<bool>,
    churn: Option<ChurnTimeline>,
    churn_boundary: u32,
    churn_clock: Time,
    repair_strategy: RepairStrategy,
    battery: Option<BatteryBank>,
    parent_policy: ParentPolicy,
}

impl Network {
    /// Enables or disables transmission tracing (disabled by default; the
    /// trace is cleared on [`Network::reset_stats`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Trace::new()) } else { None };
    }

    /// The transmission trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The base station node.
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current routing tree.
    pub fn routing(&self) -> &RoutingTree {
        &self.routing
    }

    /// The radio configuration.
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// The energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// Whether the network is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// Moves the accumulated statistics out, leaving zeroed counters — what
    /// per-round executors want at round end, without cloning the per-node
    /// vectors (the next round resets anyway). The counters left behind
    /// have no per-node array until the next charge lays one out, so a
    /// checkpoint taken between rounds neither copies nor writes a counter
    /// per node.
    pub fn take_stats(&mut self) -> NetworkStats {
        let fresh = NetworkStats::unlaid(Arc::clone(self.topology.slot_of()));
        std::mem::replace(&mut self.stats, fresh)
    }

    /// Resets statistics and the trace (e.g. between repetitions). The
    /// per-node counters are zeroed in place, keeping their memory; the
    /// zeroed counters [`Network::take_stats`] leaves stay free.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some(t) = &mut self.trace {
            *t = Trace::new();
        }
    }

    /// Rebuilds the routing tree treating links with `link_down(u, v)` as
    /// unusable — the converged state of CTP after route repair (§IV-F).
    /// Dead nodes (after [`Network::fail_node`]) are always excluded. The
    /// rebuild runs in place, reusing the tree's flat per-node buffers.
    pub fn rebuild_routing(&mut self, link_down: &dyn Fn(NodeId, NodeId) -> bool) {
        let Self {
            routing,
            topology,
            alive,
            ..
        } = self;
        routing.rebuild_excluding(topology, &|a, b| {
            !alive[a.0 as usize] || !alive[b.0 as usize] || link_down(a, b)
        });
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0 as usize]
    }

    /// Per-node liveness flags, indexed by node id.
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Attaches (or removes, with `None`) a churn timeline. Executors poll
    /// it via [`Network::apply_churn`] at each protocol boundary.
    pub fn set_churn(&mut self, churn: Option<ChurnTimeline>) {
        self.churn = churn;
    }

    /// Whether executors must poll [`Network::apply_churn`] at protocol
    /// boundaries: true when a churn timeline is attached *or* a battery
    /// bank is — battery exhaustion is endogenous churn, and it only turns
    /// into crash-stop failures when a boundary is polled.
    pub fn has_churn(&self) -> bool {
        self.churn.is_some() || self.battery.is_some()
    }

    /// Attaches (or removes, with `None`) a per-node battery bank. While
    /// attached, every µJ charged into the statistics is also debited from
    /// the charged node's battery, and [`Network::apply_churn`] converts
    /// battery exhaustion into crash-stop failures at the next boundary.
    /// Batteries survive [`Network::reset_stats`] / [`Network::take_stats`],
    /// like liveness and the churn timeline.
    ///
    /// # Panics
    /// Panics if the bank's node count does not match the network's.
    pub fn set_battery(&mut self, battery: Option<BatteryBank>) {
        if let Some(b) = &battery {
            assert_eq!(b.len(), self.topology.len(), "one battery per node");
        }
        self.battery = battery;
    }

    /// The attached battery bank, if any.
    pub fn battery(&self) -> Option<&BatteryBank> {
        self.battery.as_ref()
    }

    /// Mutable access to the attached battery bank, if any.
    pub fn battery_mut(&mut self) -> Option<&mut BatteryBank> {
        self.battery.as_mut()
    }

    /// Selects how parents are picked among equally-shallow candidates
    /// (default: [`ParentPolicy::MinHop`]). [`ParentPolicy::PowerAware`]
    /// re-ranks parents by residual battery at every
    /// [`Network::apply_churn`] boundary; it requires an attached
    /// [`BatteryBank`] and is a no-op without one.
    pub fn set_parent_policy(&mut self, policy: ParentPolicy) {
        self.parent_policy = policy;
    }

    /// The configured parent policy.
    pub fn parent_policy(&self) -> ParentPolicy {
        self.parent_policy
    }

    /// Selects how liveness changes repair the routing tree (default:
    /// [`RepairStrategy::Localized`]).
    pub fn set_repair_strategy(&mut self, strategy: RepairStrategy) {
        self.repair_strategy = strategy;
    }

    /// The configured repair strategy.
    pub fn repair_strategy(&self) -> RepairStrategy {
        self.repair_strategy
    }

    /// The next boundary index [`Network::apply_churn`] will poll.
    pub fn churn_boundary(&self) -> u32 {
        self.churn_boundary
    }

    /// Appends a `checkpoint` event row to the trace (no-op when tracing
    /// is off): marks — relative to the data traffic — where a durability
    /// snapshot was taken, so a resumed trace shows its recovery point.
    pub fn note_checkpoint(&mut self, phase: &str) {
        let base = self.base;
        if let Some(t) = &mut self.trace {
            t.push_event(phase, "checkpoint", base, Vec::new());
        }
    }

    /// Exports every piece of state a mid-run network mutates — the
    /// checkpoint/restore surface. The static construction parameters
    /// (topology, radio, energy model, base choice, ARQ policy, repair
    /// strategy, parent policy, channel loss models and seed) are *not*
    /// captured: a restoring run rebuilds the network from the same
    /// configuration and then replays this snapshot on top via
    /// [`Network::restore_state`].
    pub fn export_state(&self) -> NetSnapshot {
        let (churn_timed, churn_boundary_events) = match &self.churn {
            Some(t) => {
                let (timed, boundary) = t.export_events();
                (Some(timed), boundary)
            }
            None => (None, Vec::new()),
        };
        NetSnapshot {
            alive: self.alive.clone(),
            parent: self.routing.export_tree(),
            stats: self.stats.clone(),
            trace: self.trace.as_ref().map(|t| t.records().to_vec()),
            channel_states: self.channel.as_ref().map(|c| c.export_states()),
            churn_timed,
            churn_boundary_events,
            churn_boundary: self.churn_boundary,
            churn_clock: self.churn_clock,
            battery: self.battery.as_ref().map(|b| b.export_state()),
        }
    }

    /// Restores a snapshot previously exported with
    /// [`Network::export_state`] onto an identically-configured network
    /// (same topology, radio, energy model, base, ARQ, channel models and
    /// seed, repair strategy, parent policy). After the call the network's
    /// future behavior — routing, liveness, loss draws, churn schedule,
    /// battery debits, statistics and trace — is bit-identical to the
    /// exporting network's.
    ///
    /// A snapshot comes from a checkpoint file: one that does not fit this
    /// network — another node count, a routing tree that is not a tree of
    /// live topology links, a churn event or battery entry of no node, a
    /// channel state of no topology link or out of `(from, to)` order — is
    /// refused before anything is restored from it.
    pub fn restore_state(&mut self, s: &NetSnapshot) -> Result<(), NetworkError> {
        let bad = |what| Err(NetworkError::BadSnapshot(what));
        let n = self.topology.len();
        let in_range = |v: &NodeId| (v.0 as usize) < n;
        if s.alive.len() != n || s.stats.per_node().len() != n {
            return bad("snapshot of another node count");
        }
        let timed = s.churn_timed.iter().flatten().map(|(_, v, _)| v);
        let at_boundary = s.churn_boundary_events.iter().flat_map(|(_, evs)| evs);
        if !timed.chain(at_boundary.map(|(v, _)| v)).all(in_range) {
            return bad("churn event of no node");
        }
        if let Some(b) = &s.battery {
            if [b.capacity_uj.len(), b.debited_uj.len(), b.depleted.len()] != [n; 3]
                || !b.pending.iter().chain(&b.death_order).all(in_range)
            {
                return bad("battery bank of another node count");
            }
        }
        if let Some(states) = &s.channel_states {
            Channel::check_states(&self.topology, states).map_err(NetworkError::BadSnapshot)?;
        }
        self.routing
            .import_tree(&s.parent, &self.topology, &s.alive)?;
        self.alive = s.alive.clone();
        self.stats = s.stats.clone();
        self.stats.adopt_order(self.topology.slot_of());
        if let Some(records) = &s.trace {
            self.trace = Some(Trace::from_records(records.clone()));
        }
        if let (Some(channel), Some(states)) = (&mut self.channel, &s.channel_states) {
            channel
                .import_states(states)
                .expect("checked against the topology above");
        }
        if let Some(timed) = &s.churn_timed {
            self.churn = Some(ChurnTimeline::from_events(
                timed.clone(),
                s.churn_boundary_events.clone(),
            ));
        }
        self.churn_boundary = s.churn_boundary;
        self.churn_clock = s.churn_clock;
        if let (Some(bank), Some(snap)) = (&mut self.battery, &s.battery) {
            bank.import_state(snap);
        }
        Ok(())
    }

    /// Polls the churn timeline at the next protocol boundary: advances the
    /// churn clock by `elapsed` (the simulated time spent since the previous
    /// boundary), drains every event due at the boundary index or at the
    /// advanced clock, and applies it ([`Network::fail_node`] /
    /// [`Network::revive_node`]). Boundaries and the clock count up
    /// monotonically over the network's lifetime — one boundary per protocol
    /// phase (one-shot joins), round (continuous queries) or epoch (query
    /// groups), so repeated executions on the same network keep consuming
    /// the same timeline.
    pub fn apply_churn(&mut self, elapsed: Time) -> ChurnOutcome {
        let boundary = self.churn_boundary;
        self.churn_boundary += 1;
        self.churn_clock = self.churn_clock.saturating_add(elapsed);
        let now = self.churn_clock;
        let events = match &mut self.churn {
            Some(tl) => tl.due(boundary, now),
            None => Vec::new(),
        };
        let mut out = ChurnOutcome {
            boundary,
            ..Default::default()
        };
        for (node, action) in events {
            match action {
                ChurnAction::Crash => {
                    if node == self.base || !self.alive[node.0 as usize] {
                        continue;
                    }
                    let rep = self.fail_node(node);
                    out.crashed.push(node);
                    out.reattached.extend(rep.reattached);
                }
                ChurnAction::Revive => {
                    if self.alive[node.0 as usize] {
                        continue;
                    }
                    let rep = self.revive_node(node);
                    out.revived.push(node);
                    out.reattached.extend(rep.reattached);
                }
            }
        }
        // Endogenous failures: batteries that crossed their capacity since
        // the previous boundary die now, through the very same crash-stop
        // path as timeline events.
        self.drain_depletions(&mut out);
        if self.parent_policy == ParentPolicy::PowerAware && self.battery.is_some() {
            let moved = self.reselect_power_aware();
            out.reattached.extend(moved);
            // Reselection beacons cost energy too; a battery they push over
            // the edge dies at this boundary, not a round later.
            self.drain_depletions(&mut out);
        }
        out.reattached.sort_unstable();
        out.reattached.dedup();
        // A node that crashed at this very boundary is not "reattached".
        out.reattached.retain(|v| self.alive[v.0 as usize]);
        out
    }

    /// Converts pending battery exhaustions into crash-stop failures,
    /// looping because the repair traffic a death charges can push further
    /// batteries over the edge (a depletion cascade resolves within one
    /// boundary). Trace rows: a `battery` event marking the exhaustion,
    /// then the `death(energy)` event of the crash itself.
    fn drain_depletions(&mut self, out: &mut ChurnOutcome) {
        loop {
            let pending = match &mut self.battery {
                Some(b) => b.take_pending(),
                None => return,
            };
            if pending.is_empty() {
                return;
            }
            for node in pending {
                if node == self.base || !self.alive[node.0 as usize] {
                    continue;
                }
                if let Some(t) = &mut self.trace {
                    t.push_event(PHASE_REPAIR, "battery", node, vec![]);
                }
                let rep = self.fail_node_with(node, "death(energy)");
                out.depleted.push(node);
                out.crashed.push(node);
                out.reattached.extend(rep.reattached);
            }
        }
    }

    /// [`ParentPolicy::PowerAware`]'s boundary step: re-rank every routed
    /// node's parent by residual battery and charge one probe beacon (plus
    /// the adopting parent's ack) per node that actually moved — the same
    /// control-traffic pricing as a repair reattachment.
    fn reselect_power_aware(&mut self) -> Vec<NodeId> {
        let residual = match &self.battery {
            Some(b) => b.residuals(),
            None => return Vec::new(),
        };
        let moved = self
            .routing
            .reselect_parents(&self.topology, &self.alive, &residual);
        for &v in &moved {
            self.charge_beacon_broadcast(v);
            let parent = self.routing.parent(v);
            if let Some(p) = parent {
                self.charge_beacon_unicast(p, v);
            }
            if let Some(t) = &mut self.trace {
                t.push_event(PHASE_REPAIR, "repair", v, parent.into_iter().collect());
            }
        }
        moved
    }

    /// Crash-stop failure of `node`: it leaves the network, losing all
    /// state, and the routing tree is repaired around it per the configured
    /// [`RepairStrategy`]. Detection probes (one control beacon from each
    /// former tree neighbor), the death notification relayed to the base
    /// station, and every repair beacon are charged through the energy
    /// model as control traffic under the `"repair"` phase. No-op if the
    /// node is already dead.
    ///
    /// # Panics
    /// Panics if `node` is the base station — the powered access point
    /// never fails.
    pub fn fail_node(&mut self, node: NodeId) -> RepairReport {
        self.fail_node_with(node, "death")
    }

    /// [`Network::fail_node`] with an explicit trace-event kind, so
    /// endogenous battery deaths write `death(energy)` rows while exogenous
    /// churn keeps plain `death` — the crash-stop mechanics are identical.
    fn fail_node_with(&mut self, node: NodeId, kind: &str) -> RepairReport {
        assert_ne!(node, self.base, "the base station never fails");
        if !self.alive[node.0 as usize] {
            return RepairReport::default();
        }
        self.alive[node.0 as usize] = false;
        let repair = self.stats.intern(PHASE_REPAIR);
        self.stats.record_death(node, repair);
        if let Some(t) = &mut self.trace {
            t.push_event(PHASE_REPAIR, kind, node, vec![]);
        }
        let former_parent = self.routing.parent(node);
        let former_children = self.routing.children(node).to_vec();
        let report = self.repair_tree(&[node]);
        // Silence-detection probes at the former tree neighbors.
        for probe in former_parent.into_iter().chain(former_children) {
            if self.alive[probe.0 as usize] {
                self.charge_beacon_broadcast(probe);
            }
        }
        // The former parent relays the death report to the base station so
        // proxies can drop the dead node's rows.
        if let Some(p) = former_parent {
            if self.alive[p.0 as usize] {
                self.charge_chain_to_base(p);
            }
        }
        report
    }

    /// Revival (reboot with state loss) of `node`: it rejoins the network
    /// with no protocol state and the routing tree re-adopts it (and any
    /// orphans it reconnects) per the configured [`RepairStrategy`]; repair
    /// beacons are charged as control traffic. No-op if already alive.
    pub fn revive_node(&mut self, node: NodeId) -> RepairReport {
        if self.alive[node.0 as usize] {
            return RepairReport::default();
        }
        self.alive[node.0 as usize] = true;
        if let Some(t) = &mut self.trace {
            t.push_event(PHASE_REPAIR, "revival", node, vec![]);
        }
        self.repair_tree(&[node])
    }

    /// Repairs routing after a liveness change and charges the repair
    /// traffic, per the configured strategy. `epicenters` are the nodes
    /// whose liveness just flipped — localized repair walks only their
    /// neighborhoods, never the full node array.
    fn repair_tree(&mut self, epicenters: &[NodeId]) -> RepairReport {
        match self.repair_strategy {
            RepairStrategy::Localized => {
                let report = self
                    .routing
                    .repair_localized(&self.topology, &self.alive, epicenters);
                for &f in &report.reattached {
                    // Parent re-selection: the floating node probes its
                    // neighborhood once, the chosen parent acknowledges.
                    self.charge_beacon_broadcast(f);
                    let parent = self.routing.parent(f);
                    if let Some(p) = parent {
                        self.charge_beacon_unicast(p, f);
                    }
                    if let Some(t) = &mut self.trace {
                        t.push_event(PHASE_REPAIR, "repair", f, parent.into_iter().collect());
                    }
                }
                report
            }
            RepairStrategy::FullRebuild => {
                // Baseline: global CTP re-convergence — every live node
                // beacons once, the whole tree is rebuilt.
                let before: Vec<Option<NodeId>> = self
                    .topology
                    .nodes()
                    .map(|v| self.routing.parent(v))
                    .collect();
                let before_depth: Vec<Option<u32>> = self
                    .topology
                    .nodes()
                    .map(|v| self.routing.depth(v))
                    .collect();
                self.rebuild_routing(&|_, _| false);
                for v in self.topology.nodes() {
                    if self.alive[v.0 as usize] {
                        self.charge_beacon_broadcast(v);
                    }
                }
                let mut report = RepairReport::default();
                for v in self.topology.nodes() {
                    let i = v.0 as usize;
                    if !self.alive[i] {
                        if before_depth[i].is_some() {
                            report.detached.push(v);
                        }
                        continue;
                    }
                    if self.routing.depth(v).is_none() {
                        if v != self.base {
                            report.orphaned.push(v);
                        }
                    } else if self.routing.parent(v) != before[i] {
                        report.reattached.push(v);
                        if let Some(t) = &mut self.trace {
                            let parent = self.routing.parent(v);
                            t.push_event(PHASE_REPAIR, "repair", v, parent.into_iter().collect());
                        }
                    }
                }
                report
            }
        }
    }

    /// Charges one control beacon broadcast at `from`: transmission at the
    /// sender, reception energy at every live neighbor. Control-plane
    /// beacons bypass the lossy channel and ARQ (CTP's beaconing has its own
    /// redundancy) — they are deterministic cost, not data traffic.
    fn charge_beacon_broadcast(&mut self, from: NodeId) {
        let on_air = BEACON_BYTES + self.radio.header_bytes;
        let tx = self.energy.tx(on_air);
        let rx = self.energy.rx(on_air);
        let repair = self.stats.intern(PHASE_REPAIR);
        self.stats.record_ack(from, BEACON_BYTES, tx, repair);
        if let Some(b) = &mut self.battery {
            b.debit(from, tx);
        }
        for &r in self.topology.neighbors(from) {
            if self.alive[r.0 as usize] {
                self.stats.record_energy(r, rx, repair);
                if let Some(b) = &mut self.battery {
                    b.debit(r, rx);
                }
            }
        }
    }

    /// Charges one control beacon from `from` heard only at `to` (e.g. a
    /// parent acknowledging an adoption).
    fn charge_beacon_unicast(&mut self, from: NodeId, to: NodeId) {
        let on_air = BEACON_BYTES + self.radio.header_bytes;
        let tx = self.energy.tx(on_air);
        let rx = self.energy.rx(on_air);
        let repair = self.stats.intern(PHASE_REPAIR);
        self.stats.record_ack(from, BEACON_BYTES, tx, repair);
        self.stats.record_energy(to, rx, repair);
        if let Some(b) = &mut self.battery {
            b.debit(from, tx);
            b.debit(to, rx);
        }
    }

    /// Charges a control-beacon relay chain from `from` up to the base
    /// station along the current tree.
    fn charge_chain_to_base(&mut self, from: NodeId) {
        let Some(path) = self.routing.path_to_base(from) else {
            return;
        };
        for hop in path.windows(2) {
            self.charge_beacon_unicast(hop[0], hop[1]);
        }
    }

    /// Attaches (or detaches, with `None`) a lossy channel, bound to this
    /// network's topology ([`Channel::bind`]). Fragments of every
    /// subsequent transfer are drawn through it.
    pub fn set_channel(&mut self, mut channel: Option<Channel>) {
        if let Some(c) = &mut channel {
            c.bind(Arc::clone(&self.topology));
        }
        self.channel = channel;
    }

    /// The attached channel, if any.
    pub fn channel(&self) -> Option<&Channel> {
        self.channel.as_ref()
    }

    /// Sets the hop-by-hop ARQ policy used when a lossy channel is attached
    /// (default: [`ArqPolicy::None`]).
    pub fn set_arq(&mut self, arq: ArqPolicy) {
        self.arq = arq;
    }

    /// The configured ARQ policy.
    pub fn arq(&self) -> ArqPolicy {
        self.arq
    }

    /// Whether transfers can actually lose packets: a channel is attached
    /// and it is not provably perfect. When `false`, the lossless fast path
    /// runs and byte counts match a channel-free network exactly.
    pub fn lossy(&self) -> bool {
        self.channel.as_ref().is_some_and(|c| !c.is_perfect())
    }

    /// The id of phase `label` in this network's statistics (see
    /// [`NetworkStats::intern`]) — what [`DeliveryPort`] charges under. Ids
    /// stay valid until the statistics are reset, taken or restored.
    pub fn intern_phase(&mut self, label: &str) -> PhaseId {
        self.stats.intern(label)
    }

    /// Sends `bytes` of application payload from `from` to neighbor `to`.
    /// Fragments into packets, charges both ends, and returns the transfer
    /// latency. Zero bytes cost nothing.
    ///
    /// On a lossy network this runs the ARQ machinery; use
    /// [`Network::unicast_delivery`] when the caller needs to know whether
    /// the message actually arrived.
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor of `from` (protocols only ever talk
    /// to tree neighbors).
    pub fn unicast(&mut self, from: NodeId, to: NodeId, bytes: usize, phase: &str) -> Time {
        self.unicast_delivery(from, to, bytes, phase).time
    }

    /// [`Network::unicast`] with a full delivery report: completeness,
    /// retransmissions and control frames.
    pub fn unicast_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        phase: &str,
    ) -> Delivery {
        let phase = self.intern_phase(phase);
        self.delivery_port()
            .1
            .unicast_delivery(from, to, bytes, phase)
    }

    /// Local broadcast: one transmission per fragment at `from`, reception
    /// charged at every node of `receivers` (used for filter dissemination:
    /// "broadcast(SubtreeFilter)", Fig. 3).
    ///
    /// # Panics
    /// Panics if any receiver is not a neighbor.
    pub fn broadcast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        bytes: usize,
        phase: &str,
    ) -> Time {
        self.broadcast_delivery(from, receivers, bytes, phase).time
    }

    /// [`Network::broadcast`] with a full delivery report (per-receiver
    /// completeness).
    pub fn broadcast_delivery(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        bytes: usize,
        phase: &str,
    ) -> BroadcastDelivery {
        let phase = self.intern_phase(phase);
        self.delivery_port()
            .1
            .broadcast_delivery(from, receivers, bytes, phase)
    }

    /// Splits the network into its routing tree and a [`DeliveryPort`]:
    /// the port charges transfers exactly like
    /// [`Network::unicast_delivery`] / [`Network::broadcast_delivery`]
    /// (which are thin wrappers over it) while the tree stays borrowable —
    /// so a wave engine can walk children/parents without cloning the tree
    /// (O(n) scratch at the scales the simulator now targets).
    pub fn delivery_port(&mut self) -> (&RoutingTree, DeliveryPort<'_>) {
        let Self {
            topology,
            routing,
            radio,
            energy,
            stats,
            trace,
            channel,
            arq,
            alive,
            battery,
            ..
        } = self;
        (
            routing,
            DeliveryPort {
                topology,
                alive,
                radio: *radio,
                energy: *energy,
                arq: *arq,
                channel: channel.as_mut(),
                sink: ChargeSink {
                    stats,
                    trace: trace.as_mut(),
                    battery: battery.as_mut(),
                },
            },
        )
    }
}

/// The delivery half of [`Network::delivery_port`]: mutable access to the
/// charging machinery (stats, trace, channel, batteries) while the routing
/// tree stays separately borrowed.
#[derive(Debug)]
pub struct DeliveryPort<'a> {
    topology: &'a Topology,
    alive: &'a [bool],
    radio: RadioConfig,
    energy: EnergyModel,
    arq: ArqPolicy,
    channel: Option<&'a mut Channel>,
    sink: ChargeSink<'a>,
}

impl DeliveryPort<'_> {
    fn link(&mut self, phase: PhaseId) -> Link<'_> {
        let loss_in_scope = self
            .channel
            .as_deref()
            .is_some_and(|c| c.lossy_in(self.sink.stats.label(phase)));
        Link {
            topology: self.topology,
            alive: self.alive,
            radio: &self.radio,
            energy: &self.energy,
            arq: self.arq,
            channel: self.channel.as_deref_mut(),
            sink: ChargeSink {
                stats: self.sink.stats,
                trace: self.sink.trace.as_deref_mut(),
                battery: self.sink.battery.as_deref_mut(),
            },
            phase,
            loss_in_scope,
        }
    }

    /// [`Network::unicast_delivery`] under an interned phase.
    pub fn unicast_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        phase: PhaseId,
    ) -> Delivery {
        self.link(phase).unicast(from, to, bytes)
    }

    /// [`Network::broadcast_delivery`] under an interned phase.
    pub fn broadcast_delivery(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        bytes: usize,
        phase: PhaseId,
    ) -> BroadcastDelivery {
        self.link(phase).broadcast(from, receivers, bytes)
    }
}

/// The one charge point: [`DeliveryPort`] (and through it [`Network`])
/// lends its parts to a `Link` per message, resolving the phase's loss
/// scope once before the neighbor checks, the lossless fast path or the ARQ
/// engine run.
struct Link<'a> {
    topology: &'a Topology,
    alive: &'a [bool],
    radio: &'a RadioConfig,
    energy: &'a EnergyModel,
    arq: ArqPolicy,
    channel: Option<&'a mut Channel>,
    sink: ChargeSink<'a>,
    phase: PhaseId,
    /// Whether the channel may lose packets of `phase` at all (see
    /// [`Channel::scope_to_phases`]); resolved once per message so the
    /// label never reaches the per-packet loop.
    loss_in_scope: bool,
}

impl Link<'_> {
    /// The rank of `to` in `from`'s neighbor row: where the channel finds
    /// the link `from → to`.
    ///
    /// # Panics
    /// Panics if they are not neighbors.
    fn link_of(&self, from: NodeId, to: NodeId) -> usize {
        debug_assert!(self.alive[from.0 as usize], "dead node {from} transmits");
        debug_assert!(self.alive[to.0 as usize], "transmission to dead node {to}");
        rank(self.topology, from, to).unwrap_or_else(|| panic!("{from} -> {to} are not neighbors"))
    }

    fn lossy(&self) -> bool {
        self.channel.as_ref().is_some_and(|c| !c.is_perfect())
    }

    fn unicast(mut self, from: NodeId, to: NodeId, bytes: usize) -> Delivery {
        if bytes == 0 {
            return Delivery::lossless(0, 0);
        }
        let out = self.link_of(from, to);
        if !self.lossy() {
            let (time, fragments) = self.charge_lossless(from, &[to], bytes);
            return Delivery::lossless(time, fragments);
        }
        let back = rank(self.topology, to, from).expect("links are symmetric");
        let mut marks = [true, false, false];
        let sent = self.transfer_lossy(from, &[to], bytes, Ends::One { out, back }, &mut marks);
        Delivery {
            time: sent.time,
            fragments: sent.fragments,
            delivered: sent.delivered,
            retransmissions: sent.retransmissions,
            control_packets: sent.control_packets,
            complete: marks[0],
        }
    }

    fn broadcast(mut self, from: NodeId, receivers: &[NodeId], bytes: usize) -> BroadcastDelivery {
        if bytes == 0 || receivers.is_empty() {
            return BroadcastDelivery::lossless(0, 0, receivers.len());
        }
        for &r in receivers {
            self.link_of(from, r);
        }
        if !self.lossy() {
            let (time, fragments) = self.charge_lossless(from, receivers, bytes);
            return BroadcastDelivery::lossless(time, fragments, receivers.len());
        }
        // The report's vector holds the transfer's per-receiver marks too,
        // and is cut down to the completeness flags afterwards.
        let nrecv = receivers.len();
        let mut marks = vec![false; 3 * nrecv];
        marks[..nrecv].fill(true);
        let ends = Ends::Many(self.topology);
        let sent = self.transfer_lossy(from, receivers, bytes, ends, &mut marks);
        marks.truncate(nrecv);
        BroadcastDelivery {
            time: sent.time,
            fragments: sent.fragments,
            complete: marks,
            retransmissions: sent.retransmissions,
            control_packets: sent.control_packets,
        }
    }

    /// Lossless fast path: identical charging to the pre-channel simulator,
    /// no ARQ traffic whatsoever — and no heap allocation: fragments are
    /// counted, not collected. Returns the transfer time and fragment count.
    fn charge_lossless(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        bytes: usize,
    ) -> (Time, usize) {
        let fragments = Fragments::of(self.radio, bytes);
        for size in fragments.sizes() {
            let on_air = size + self.radio.header_bytes;
            self.sink
                .record_tx(from, size, self.energy.tx(on_air), self.phase);
            let rx = self.energy.rx(on_air);
            for &r in receivers {
                self.sink.record_rx(r, size, rx, self.phase);
            }
        }
        self.sink
            .trace_lossless(self.phase, from, receivers, bytes, fragments.count());
        (self.radio.transfer_us(bytes), fragments.count())
    }

    /// The ARQ engine: moves a message from `from` to `receivers` over the
    /// lossy channel, charging every data fragment, retransmission and
    /// control frame into the sink.
    ///
    /// `marks` holds three runs of one flag per receiver: whether it decoded
    /// every fragment so far (`true` on entry, what the caller reports),
    /// whether it decoded the current fragment, and whether its ACK of the
    /// current fragment came back. So under [`ArqPolicy::None`] and
    /// [`ArqPolicy::AckRetransmit`] a transfer allocates nothing; summary
    /// repair keeps a fragment-by-receiver table.
    fn transfer_lossy(
        self,
        from: NodeId,
        receivers: &[NodeId],
        bytes: usize,
        ends: Ends<'_>,
        marks: &mut [bool],
    ) -> Sent {
        let Link {
            radio,
            energy,
            arq,
            channel,
            mut sink,
            phase,
            loss_in_scope,
            ..
        } = self;
        let ch = channel.expect("lossy implies a channel");
        let mut deliver = |a: NodeId, rank: usize, b: NodeId| !loss_in_scope || ch.draw(a, rank, b);
        let fragments = Fragments::of(radio, bytes);
        let nfrags = fragments.count();
        let nrecv = receivers.len();
        let (complete, marks) = marks.split_at_mut(nrecv);
        let (have, acked) = marks.split_at_mut(nrecv);
        let mut sent = Sent {
            time: 0,
            fragments: nfrags,
            delivered: 0,
            retransmissions: 0,
            control_packets: 0,
        };
        // After fragment `f`'s last attempt: the receivers without it lose it.
        let mut settle = |have: &[bool], sink: &mut ChargeSink<'_>, sent: &mut Sent| {
            for (ri, &r) in receivers.iter().enumerate() {
                if have[ri] {
                    sent.delivered += 1;
                } else {
                    complete[ri] = false;
                    sink.record_loss(r, phase);
                }
            }
        };
        let header = radio.header_bytes;
        match arq {
            ArqPolicy::None => {
                for size in fragments.sizes() {
                    let on_air = size + header;
                    sink.record_tx(from, size, energy.tx(on_air), phase);
                    sent.time += radio.airtime_us(size);
                    for (ri, &r) in receivers.iter().enumerate() {
                        have[ri] = deliver(from, ends.out(from, r), r);
                        if have[ri] {
                            sink.record_rx(r, size, energy.rx(on_air), phase);
                        }
                    }
                    settle(have, &mut sink, &mut sent);
                }
            }
            ArqPolicy::AckRetransmit { max_retries } => {
                // Stop-and-wait per fragment: retransmit until every
                // receiver's ACK came back or the retry budget is spent.
                for size in fragments.sizes() {
                    let on_air = size + header;
                    have.fill(false);
                    acked.fill(false);
                    let mut open = nrecv;
                    for attempt in 0..=max_retries {
                        if attempt == 0 {
                            sink.record_tx(from, size, energy.tx(on_air), phase);
                        } else {
                            sent.retransmissions += 1;
                            sink.record_retx(from, size, energy.tx(on_air), phase);
                            // Timeout stall before each retransmission.
                            sent.time += radio.hop_delay_us;
                        }
                        sent.time += radio.airtime_us(size);
                        for (ri, &r) in receivers.iter().enumerate() {
                            if acked[ri] {
                                continue; // receiver already done with f
                            }
                            if deliver(from, ends.out(from, r), r) {
                                if !have[ri] {
                                    have[ri] = true;
                                    sink.record_rx(r, size, energy.rx(on_air), phase);
                                } else {
                                    // Duplicate (its earlier ACK was lost):
                                    // energy only, the copy is discarded.
                                    sink.record_energy(r, energy.rx(on_air), phase);
                                }
                            }
                            if have[ri] {
                                sent.control_packets += 1;
                                sink.record_ack(r, ACK_BYTES, energy.tx(ACK_BYTES + header), phase);
                                sent.time += radio.airtime_us(ACK_BYTES);
                                if deliver(r, ends.back(from, r), from) {
                                    acked[ri] = true;
                                    open -= 1;
                                    sink.record_energy(from, energy.rx(ACK_BYTES + header), phase);
                                }
                            }
                        }
                        if open == 0 {
                            break;
                        }
                    }
                    settle(have, &mut sink, &mut sent);
                }
            }
            ArqPolicy::SummaryRepair { max_rounds } => {
                // have[f][ri]: ground truth — receiver ri decoded fragment f.
                let mut have = vec![vec![false; nrecv]; nfrags];
                // Round 0: ship the whole fragment train once.
                for (f, size) in fragments.sizes().enumerate() {
                    let on_air = size + header;
                    sink.record_tx(from, size, energy.tx(on_air), phase);
                    sent.time += radio.airtime_us(size);
                    for (ri, &r) in receivers.iter().enumerate() {
                        if deliver(from, ends.out(from, r), r) {
                            have[f][ri] = true;
                            sink.record_rx(r, size, energy.rx(on_air), phase);
                        }
                    }
                }
                // Repair rounds: each open receiver summarizes (OK or NACK
                // bitmap); the sender rebroadcasts the union of NACKed
                // fragments.
                let sbytes = summary_bytes(nfrags);
                let mut done = vec![false; nrecv]; // sender has the OK
                for round in 0..=max_rounds {
                    let mut requested = vec![false; nfrags];
                    for (ri, &r) in receivers.iter().enumerate() {
                        if done[ri] {
                            continue;
                        }
                        sent.control_packets += 1;
                        sink.record_ack(r, sbytes, energy.tx(sbytes + header), phase);
                        sent.time += radio.airtime_us(sbytes);
                        if deliver(r, ends.back(from, r), from) {
                            sink.record_energy(from, energy.rx(sbytes + header), phase);
                            let missing: Vec<usize> =
                                (0..nfrags).filter(|&f| !have[f][ri]).collect();
                            if missing.is_empty() {
                                done[ri] = true;
                            } else {
                                for f in missing {
                                    requested[f] = true;
                                }
                            }
                        }
                        // A lost summary stalls this receiver one round.
                    }
                    if done.iter().all(|&d| d) || round == max_rounds {
                        break;
                    }
                    for (f, size) in fragments.sizes().enumerate() {
                        if !requested[f] {
                            continue;
                        }
                        let on_air = size + header;
                        sent.retransmissions += 1;
                        sink.record_retx(from, size, energy.tx(on_air), phase);
                        sent.time += radio.airtime_us(size);
                        for (ri, &r) in receivers.iter().enumerate() {
                            if done[ri] {
                                continue;
                            }
                            if have[f][ri] {
                                // Overhears the repair it did not need.
                                sink.record_energy(r, energy.rx(on_air), phase);
                            } else if deliver(from, ends.out(from, r), r) {
                                have[f][ri] = true;
                                sink.record_rx(r, size, energy.rx(on_air), phase);
                            }
                        }
                    }
                    sent.time += radio.hop_delay_us; // round turnaround
                }
                for row in &have {
                    settle(row, &mut sink, &mut sent);
                }
            }
        }
        sent.time += radio.hop_delay_us;
        let acked = complete.iter().all(|&c| c);
        sink.trace_delivery(
            phase,
            from,
            receivers,
            bytes,
            nfrags,
            sent.retransmissions,
            acked,
        );
        sent
    }
}

/// What a lossy transfer adds up to; the per-receiver completeness is in
/// the marks it was handed.
struct Sent {
    time: Time,
    fragments: usize,
    /// Fragments decoded, summed over the receivers.
    delivered: usize,
    retransmissions: u64,
    control_packets: u64,
}

/// The rank of `to` in `from`'s neighbor row, if they are neighbors.
fn rank(topology: &Topology, from: NodeId, to: NodeId) -> Option<usize> {
    topology.neighbors(from).binary_search(&to).ok()
}

/// Where a transfer's links sit in their senders' neighbor rows (see
/// [`Channel`]): a unicast resolves its two once, a broadcast each
/// receiver's per draw.
#[derive(Clone, Copy)]
enum Ends<'a> {
    One { out: usize, back: usize },
    Many(&'a Topology),
}

impl Ends<'_> {
    /// The rank of `r` in `from`'s row.
    fn out(self, from: NodeId, r: NodeId) -> usize {
        match self {
            Ends::One { out, .. } => out,
            Ends::Many(t) => rank(t, from, r).expect("checked neighbors"),
        }
    }

    /// The rank of `from` in `r`'s row: the link ACKs and summaries take.
    fn back(self, from: NodeId, r: NodeId) -> usize {
        match self {
            Ends::One { back, .. } => back,
            Ends::Many(t) => rank(t, r, from).expect("links are symmetric"),
        }
    }
}

/// How a payload splits into packets: `full` fragments of
/// [`RadioConfig::max_payload`] bytes and, if `tail > 0`, one shorter one.
#[derive(Clone, Copy)]
struct Fragments {
    max_payload: usize,
    full: usize,
    tail: usize,
}

impl Fragments {
    fn of(radio: &RadioConfig, bytes: usize) -> Self {
        Self {
            max_payload: radio.max_payload,
            full: bytes / radio.max_payload,
            tail: bytes % radio.max_payload,
        }
    }

    fn count(self) -> usize {
        self.full + usize::from(self.tail > 0)
    }

    /// Fragment payload sizes in transmission order.
    fn sizes(self) -> impl Iterator<Item = usize> {
        std::iter::repeat_n(self.max_payload, self.full).chain((self.tail > 0).then_some(self.tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LossModel;
    use sensjoin_field::Placement;

    fn small_net() -> Network {
        let area = Area::new(200.0, 200.0);
        let positions = Placement::UniformRandom { n: 60 }.generate(area, 2);
        NetworkBuilder::new().build(positions, area).unwrap()
    }

    #[test]
    fn unicast_fragments_and_charges() {
        let mut net = small_net();
        let base = net.base();
        let child = net.routing().children(base)[0];
        let t = net.unicast(child, base, 100, "p");
        assert!(t > 0);
        // 100 bytes over 48-byte payloads = 3 packets.
        assert_eq!(net.stats().node(child).tx_packets, 3);
        assert_eq!(net.stats().node(child).tx_bytes, 100);
        assert_eq!(net.stats().node(base).rx_packets, 3);
        assert!(net.stats().node(child).energy_uj > 0.0);
    }

    #[test]
    fn zero_bytes_free() {
        let mut net = small_net();
        let base = net.base();
        let child = net.routing().children(base)[0];
        assert_eq!(net.unicast(child, base, 0, "p"), 0);
        assert_eq!(net.stats().total_tx_packets(), 0);
    }

    #[test]
    fn broadcast_single_tx_multi_rx() {
        let mut net = small_net();
        let base = net.base();
        let children: Vec<NodeId> = net.routing().children(base).to_vec();
        assert!(children.len() >= 2, "test topology needs >= 2 children");
        net.broadcast(base, &children, 30, "filter");
        assert_eq!(net.stats().node(base).tx_packets, 1);
        for c in &children {
            assert_eq!(net.stats().node(*c).rx_packets, 1);
        }
    }

    #[test]
    fn perfect_channel_is_byte_identical_to_no_channel() {
        let mut plain = small_net();
        let mut chan = small_net();
        chan.set_channel(Some(Channel::bernoulli(0.0, 9)));
        chan.set_arq(ArqPolicy::ack(5));
        let base = plain.base();
        let child = plain.routing().children(base)[0];
        for net in [&mut plain, &mut chan] {
            net.unicast(child, base, 100, "p");
            net.broadcast(base, &[child], 30, "q");
        }
        assert_eq!(plain.stats().node(child), chan.stats().node(child));
        assert_eq!(plain.stats().node(base), chan.stats().node(base));
        assert_eq!(chan.stats().total_retx_packets(), 0);
        assert_eq!(chan.stats().total_ack_packets(), 0);
        assert!((plain.stats().total_energy_uj() - chan.stats().total_energy_uj()).abs() < 1e-9);
    }

    #[test]
    fn arq_none_drops_fragments_permanently() {
        let mut net = small_net();
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.set_channel(Some(Channel::bernoulli(1.0, 3)));
        let d = net.unicast_delivery(child, base, 100, "p");
        assert!(!d.complete);
        assert_eq!(d.delivered, 0);
        assert_eq!(d.fragments, 3);
        assert_eq!(net.stats().node(base).rx_packets, 0);
        assert_eq!(net.stats().node(base).lost_packets, 3);
        // First attempts are still charged at the sender.
        assert_eq!(net.stats().node(child).tx_packets, 3);
    }

    #[test]
    fn ack_retransmit_repairs_heavy_loss() {
        let mut net = small_net();
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.set_channel(Some(Channel::bernoulli(0.4, 11)));
        net.set_arq(ArqPolicy::ack(20));
        let d = net.unicast_delivery(child, base, 100, "p");
        assert!(d.complete);
        assert!(d.retransmissions > 0, "40 % loss must retransmit");
        assert!(d.control_packets >= 3, "each fragment is acked");
        assert_eq!(net.stats().node(base).rx_packets, 3);
        assert_eq!(net.stats().node(base).lost_packets, 0);
        // tx counters stay loss-invariant; repair lives in retx/ack.
        assert_eq!(net.stats().node(child).tx_packets, 3);
        assert_eq!(net.stats().node(child).retx_packets, d.retransmissions);
        assert!(net.stats().total_overhead_bytes() > 0);
    }

    #[test]
    fn summary_repair_repairs_and_charges_summaries() {
        let mut net = small_net();
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.set_channel(Some(Channel::gilbert_elliott(0.3, 4.0, 13)));
        net.set_arq(ArqPolicy::summary(20));
        let d = net.unicast_delivery(child, base, 200, "p");
        assert!(d.complete);
        assert!(d.control_packets >= 1, "at least the final OK summary");
        assert_eq!(net.stats().node(base).rx_packets, 5);
        assert_eq!(net.stats().node(base).ack_packets, d.control_packets);
        assert_eq!(net.stats().node(child).tx_packets, 5);
    }

    #[test]
    fn dropped_then_retried_unicast_traces_one_logical_record() {
        let mut net = small_net();
        net.set_tracing(true);
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.set_channel(Some(Channel::bernoulli(0.5, 21)));
        net.set_arq(ArqPolicy::ack(30));
        let d = net.unicast_delivery(child, base, 40, "p");
        assert!(d.complete);
        assert!(d.retransmissions > 0, "seed 21 at 50 % loss must drop once");
        let trace = net.trace().unwrap();
        assert_eq!(trace.len(), 1, "retries must not add records");
        let rec = &trace.records()[0];
        assert_eq!(rec.retransmissions, d.retransmissions);
        assert!(rec.acked);
        assert_eq!(rec.packets, 1);
        let csv = trace.to_csv();
        assert!(csv.contains(&format!(",40,1,{},true\n", d.retransmissions)));
    }

    /// A channel image naming a node out of range, a pair that is no link,
    /// links out of order or a link twice is refused before anything is
    /// restored: the network exports what it did before.
    #[test]
    fn channel_states_of_no_link_are_refused() {
        let lossy = || {
            let mut net = small_net();
            net.set_channel(Some(Channel::bernoulli(0.3, 5)));
            net.set_arq(ArqPolicy::ack(4));
            net
        };
        let mut net = lossy();
        let base = net.base();
        let kids = net.routing().children(base).to_vec();
        for &kid in &kids {
            net.unicast(kid, base, 100, "p");
        }
        let snap = net.export_state();
        let states = snap.channel_states.clone().unwrap();
        assert!(states.len() >= 2, "{} link states", states.len());
        let mut other = lossy();
        other.unicast(base, kids[0], 60, "q");
        let before = format!("{:?}", other.export_state());
        let (from, n) = (states[0].0, net.len() as u32);
        let stranger = (0..n)
            .map(NodeId)
            .find(|&v| v != from && !net.topology().neighbors(from).contains(&v))
            .expect("a node out of range of the first");
        let doctor = |edit: &dyn Fn(&mut Vec<ChannelLinkState>)| {
            let mut bad = snap.clone();
            edit(bad.channel_states.as_mut().unwrap());
            bad
        };
        for (what, bad) in [
            ("node", doctor(&|s| s[0].1 = NodeId(n))),
            ("link", doctor(&|s| s[0].1 = stranger)),
            ("order", doctor(&|s| s.swap(0, 1))),
            ("twice", doctor(&|s| s.insert(1, s[0]))),
        ] {
            let err = other.restore_state(&bad).unwrap_err();
            assert!(matches!(err, NetworkError::BadSnapshot(_)), "{what}: {err}");
            assert_eq!(format!("{:?}", other.export_state()), before, "{what}");
        }
        other.restore_state(&snap).unwrap();
        assert_eq!(format!("{:?}", other.export_state()), format!("{snap:?}"));
    }

    #[test]
    fn broadcast_delivery_reports_per_receiver() {
        let mut net = small_net();
        let base = net.base();
        let children: Vec<NodeId> = net.routing().children(base).to_vec();
        assert!(children.len() >= 2);
        let mut ch = Channel::perfect();
        // Only the link to children[0] is dead.
        ch.set_link_model(base, children[0], LossModel::Bernoulli { p: 1.0 });
        net.set_channel(Some(ch));
        net.set_arq(ArqPolicy::summary(3));
        let d = net.broadcast_delivery(base, &children, 30, "p");
        assert!(!d.complete[0]);
        assert!(d.complete[1..].iter().all(|&c| c));
        assert_eq!(net.stats().node(children[0]).rx_packets, 0);
        assert_eq!(net.stats().node(children[1]).rx_packets, 1);
    }

    #[test]
    #[should_panic(expected = "not neighbors")]
    fn unicast_to_non_neighbor_panics() {
        // Two nodes far apart.
        let area = Area::new(500.0, 10.0);
        let positions = vec![Position::new(0.0, 5.0), Position::new(400.0, 5.0)];
        let mut net = NetworkBuilder::new()
            .base(BaseChoice::Node(NodeId(0)))
            .build(positions, area)
            .unwrap();
        net.unicast(NodeId(1), NodeId(0), 10, "p");
    }

    #[test]
    fn base_choices() {
        // A connected 3-node chain (positional base choices only consider
        // the largest connected component).
        let area = Area::new(100.0, 100.0);
        let positions = vec![
            Position::new(10.0, 10.0),
            Position::new(45.0, 45.0),
            Position::new(80.0, 80.0),
        ];
        let center = NetworkBuilder::new()
            .build(positions.clone(), area)
            .unwrap();
        assert_eq!(center.base(), NodeId(1));
        let corner = NetworkBuilder::new()
            .base(BaseChoice::NearestCorner)
            .build(positions.clone(), area)
            .unwrap();
        assert_eq!(corner.base(), NodeId(0));
        let explicit = NetworkBuilder::new()
            .base(BaseChoice::Node(NodeId(2)))
            .build(positions.clone(), area)
            .unwrap();
        assert_eq!(explicit.base(), NodeId(2));
        assert_eq!(
            NetworkBuilder::new()
                .base(BaseChoice::Node(NodeId(9)))
                .build(positions, area)
                .unwrap_err(),
            NetworkError::BadBase
        );
        assert_eq!(
            NetworkBuilder::new().build(vec![], area).unwrap_err(),
            NetworkError::Empty
        );
    }

    #[test]
    fn positional_base_avoids_isolated_stragglers() {
        // A big cluster plus one isolated node sitting exactly in the
        // corner: the corner base choice must land in the cluster, not on
        // the straggler.
        let area = Area::new(500.0, 500.0);
        let mut positions =
            Placement::UniformRandom { n: 120 }.generate(Area::new(200.0, 200.0), 3);
        for p in &mut positions {
            p.x += 250.0;
            p.y += 250.0;
        }
        positions.push(Position::new(1.0, 1.0)); // the isolated straggler
        let straggler = NodeId(positions.len() as u32 - 1);
        let net = NetworkBuilder::new()
            .base(BaseChoice::NearestCorner)
            .build(positions, area)
            .unwrap();
        assert_ne!(net.base(), straggler);
        assert!(net.routing().descendants(net.base()) > 100);
    }

    #[test]
    fn rebuild_after_failure_changes_tree() {
        let mut net = small_net();
        let base = net.base();
        let victim = net.routing().children(base)[0];
        let before = net.routing().parent(victim);
        assert_eq!(before, Some(base));
        net.rebuild_routing(&move |a, b| (a == victim && b == base) || (a == base && b == victim));
        assert_ne!(net.routing().parent(victim), Some(base));
    }

    #[test]
    fn fail_and_revive_round_trip() {
        let mut net = small_net();
        net.set_tracing(true);
        let base = net.base();
        let victim = *net
            .routing()
            .children(base)
            .iter()
            .max_by_key(|&&c| net.routing().descendants(c))
            .unwrap();
        let orphans = net.routing().children(victim).to_vec();
        assert!(net.is_alive(victim));
        let rep = net.fail_node(victim);
        assert!(!net.is_alive(victim));
        assert!(rep.detached.contains(&victim));
        assert_eq!(net.routing().depth(victim), None);
        for &o in &orphans {
            assert!(
                net.routing().depth(o).is_some() || rep.orphaned.contains(&o),
                "{o} neither reattached nor reported orphaned"
            );
        }
        // Repair traffic was charged as control frames under "repair".
        let by_phase = net.stats().phase(PHASE_REPAIR);
        assert!(by_phase.ack_packets > 0, "beacons must be charged");
        assert!(net.stats().total_overhead_bytes() > 0);
        // Second failure of the same node is a no-op.
        assert!(net.fail_node(victim).is_empty());
        let rep2 = net.revive_node(victim);
        assert!(net.is_alive(victim));
        assert!(rep2.reattached.contains(&victim));
        assert_eq!(net.routing().depth(victim), Some(1));
        assert!(net.revive_node(victim).is_empty());
        // Trace recorded the death and the revival.
        let kinds: Vec<&str> = net
            .trace()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.kind.as_str())
            .collect();
        assert!(kinds.contains(&"death"));
        assert!(kinds.contains(&"revival"));
        assert!(kinds.contains(&"repair"));
    }

    #[test]
    fn full_rebuild_floods_more_than_localized_repair() {
        let mut local = small_net();
        let mut full = small_net();
        full.set_repair_strategy(RepairStrategy::FullRebuild);
        let base = local.base();
        let victim = local.routing().children(base)[0];
        local.fail_node(victim);
        full.fail_node(victim);
        let lb = local.stats().total_cost_bytes();
        let fb = full.stats().total_cost_bytes();
        assert!(
            lb < fb,
            "localized repair ({lb} B) must beat the global flood ({fb} B)"
        );
        // Both end with valid trees over the same live set.
        for v in local.topology().nodes() {
            assert_eq!(
                local.routing().depth(v).is_some(),
                full.routing().depth(v).is_some()
            );
        }
    }

    #[test]
    fn apply_churn_drains_boundaries_deterministically() {
        let area = Area::new(200.0, 200.0);
        let positions = Placement::UniformRandom { n: 60 }.generate(area, 2);
        let make = || {
            let mut n = NetworkBuilder::new()
                .build(positions.clone(), area)
                .unwrap();
            let victim = n.routing().children(n.base())[0];
            n.set_churn(Some(
                ChurnTimeline::new()
                    .at_boundary(1, victim, ChurnAction::Crash)
                    .at_boundary(3, victim, ChurnAction::Revive),
            ));
            (n, victim)
        };
        let (mut a, victim) = make();
        let (mut b, _) = make();
        assert!(a.has_churn());
        assert!(a.apply_churn(0).is_empty());
        assert_eq!(a.churn_boundary(), 1);
        let out = a.apply_churn(0);
        assert_eq!(out.boundary, 1);
        assert_eq!(out.crashed, vec![victim]);
        assert!(!a.is_alive(victim));
        assert!(a.apply_churn(0).is_empty());
        let out3 = a.apply_churn(0);
        assert_eq!(out3.revived, vec![victim]);
        assert!(out3.reattached.contains(&victim));
        assert!(a.is_alive(victim));
        // Determinism: the twin replays the identical sequence.
        for _ in 0..4 {
            b.apply_churn(0);
        }
        assert_eq!(a.stats().total_cost_bytes(), b.stats().total_cost_bytes());
        for v in a.topology().nodes() {
            assert_eq!(a.routing().parent(v), b.routing().parent(v));
        }
    }

    #[test]
    fn battery_depletion_drives_crash_stop_churn() {
        let mut net = small_net();
        net.set_tracing(true);
        let base = net.base();
        let child = net.routing().children(base)[0];
        net.set_battery(Some(BatteryBank::uniform(net.len(), base, 5_000.0)));
        // Burn the child's battery with data traffic.
        let mut sent = 0;
        while !net.battery().unwrap().is_depleted(child) {
            net.unicast(child, base, 48, "p");
            sent += 1;
            assert!(sent < 100, "5 mJ cannot absorb 100 packets");
        }
        assert!(net.is_alive(child), "depletion waits for the boundary");
        let out = net.apply_churn(0);
        assert_eq!(out.depleted, vec![child]);
        assert!(out.crashed.contains(&child));
        assert!(!net.is_alive(child));
        assert_eq!(net.stats().node(child).deaths, 1);
        assert_eq!(net.stats().total_deaths(), 1);
        assert_eq!(net.battery().unwrap().death_order(), &[child]);
        let kinds: Vec<&str> = net
            .trace()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.kind.as_str())
            .collect();
        assert!(kinds.contains(&"battery"));
        assert!(kinds.contains(&"death(energy)"));
        // Batteries survive stats resets, like liveness and churn state.
        net.reset_stats();
        let _ = net.take_stats();
        assert!(net.battery().unwrap().is_depleted(child));
        assert!(net.battery().unwrap().total_debited_uj() > 0.0);
    }

    #[test]
    fn statistics_stay_in_the_topologys_order() {
        let mut net = small_net();
        let order = net.topology().slot_of();
        assert!(!order.iter().copied().eq(0..60), "random positions");
        let base = net.base();
        let child = net.routing().children(base)[0];
        let in_order = |net: &Network| Arc::ptr_eq(net.stats().order(), net.topology().slot_of());
        assert!(in_order(&net));
        net.unicast(child, base, 100, "p");
        let taken = net.take_stats();
        assert!(Arc::ptr_eq(taken.order(), net.topology().slot_of()) && in_order(&net));
        assert_eq!(net.stats().total_tx_packets(), 0);
        net.unicast(child, base, 100, "p");
        net.reset_stats();
        assert!(in_order(&net));
        assert!(net.stats().per_node().eq(NetworkStats::new(60).per_node()));
        assert_eq!(net.stats().phases().count(), 0);
        // A checkpoint decodes to the exported parts, in id order; the
        // restoring network re-lays them out in its own.
        net.unicast(child, base, 100, "p");
        let mut snap = net.export_state();
        let phases = snap.stats.phases().map(|(l, s)| (l.to_owned(), *s));
        let per_node = snap.stats.per_node().copied().collect();
        snap.stats = NetworkStats::from_parts(per_node, phases.collect());
        let mut twin = small_net();
        twin.restore_state(&snap).unwrap();
        assert!(in_order(&twin));
        for net in [&mut net, &mut twin] {
            net.unicast(child, base, 30, "q");
        }
        assert!(twin.stats().per_node().eq(net.stats().per_node()));
        assert!(twin.stats().phases().eq(net.stats().phases()));
    }

    #[test]
    fn undepleted_battery_is_bit_identical_to_no_battery() {
        let mut plain = small_net();
        let mut powered = small_net();
        plain.set_tracing(true);
        powered.set_tracing(true);
        let jittered = BatteryBank::with_jitter(powered.len(), powered.base(), 1e12, 0.2, 5);
        powered.set_battery(Some(jittered));
        let base = plain.base();
        let kids: Vec<NodeId> = plain.routing().children(base).to_vec();
        for net in [&mut plain, &mut powered] {
            net.unicast(kids[0], base, 100, "up");
            net.broadcast(base, &kids, 30, "down");
            net.fail_node(kids[1]);
            net.apply_churn(7);
        }
        for v in plain.topology().nodes() {
            assert_eq!(plain.stats().node(v), powered.stats().node(v));
        }
        assert_eq!(
            plain.trace().unwrap().records(),
            powered.trace().unwrap().records()
        );
        // Every charged µJ was debited, nothing more.
        let bank = powered.battery().unwrap();
        assert!(
            (bank.total_debited_uj() - powered.stats().total_energy_uj()).abs() < 1e-9,
            "debits must mirror the energy counters"
        );
    }

    #[test]
    fn power_aware_policy_rotates_parents_at_boundaries() {
        // Diamond: base 0; 1 and 2 at depth 1, equidistant from 3.
        let area = Area::new(200.0, 50.0);
        let positions = vec![
            Position::new(50.0, 25.0),
            Position::new(90.0, 5.0),
            Position::new(90.0, 45.0),
            Position::new(130.0, 25.0),
        ];
        let mut net = NetworkBuilder::new()
            .base(BaseChoice::Node(NodeId(0)))
            .build(positions, area)
            .unwrap();
        net.set_battery(Some(BatteryBank::uniform(4, NodeId(0), 1e9)));
        net.set_parent_policy(ParentPolicy::PowerAware);
        assert_eq!(net.routing().parent(NodeId(3)), Some(NodeId(1)));
        // Equal residuals: the boundary re-evaluation changes nothing.
        assert!(net.apply_churn(0).is_empty());
        // Drain node 1; at the next boundary 3 rotates its link to 2.
        net.battery_mut().unwrap().debit(NodeId(1), 5e8);
        let out = net.apply_churn(0);
        assert_eq!(out.reattached, vec![NodeId(3)]);
        assert!(out.crashed.is_empty() && out.depleted.is_empty());
        assert_eq!(net.routing().parent(NodeId(3)), Some(NodeId(2)));
        // The rotation was charged as repair control traffic.
        assert!(net.stats().phase(PHASE_REPAIR).ack_packets >= 2);
    }

    #[test]
    fn churn_state_survives_stats_reset() {
        let mut net = small_net();
        let victim = net.routing().children(net.base())[0];
        net.set_churn(Some(ChurnTimeline::new().at_boundary(
            5,
            victim,
            ChurnAction::Crash,
        )));
        net.fail_node(victim);
        net.reset_stats();
        let _ = net.take_stats();
        assert!(!net.is_alive(victim), "liveness survives stats resets");
        assert!(net.has_churn(), "the timeline survives stats resets");
        assert_eq!(net.stats().total_cost_bytes(), 0);
    }
}
