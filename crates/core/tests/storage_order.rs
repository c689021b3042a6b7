//! The storage order is a layout, not a renumbering.
//!
//! Per-node columns are stored in the Z-order of the nodes' positions
//! (`Topology::slot_of`), and nothing observable may depend on it. There is
//! no switch that selects another layout, so the same deployment is run
//! under two labellings instead: a node's slot follows its position, its id
//! does not, so relabelling moves every node's data to another place
//! relative to its id — in particular, labelled along the curve the layout
//! is the plain id order. With positions in general position nothing in the
//! protocol breaks a tie by id, so the two runs must agree node for node
//! once ids are mapped back: one one-shot epoch over dead links (the loss
//! fallbacks and their retained Treecut handoffs) with a crash, a revival
//! and their reattachments between the phases (the churn reconciliation).

use sensjoin_core::{
    ExternalData, JoinMethod, JoinOutcome, SensJoin, SensorNetwork, SensorNetworkBuilder,
    PHASE_COLLECTION, PHASE_FILTER,
};
use sensjoin_field::{generate_readings, presets, Area, Placement, Position};
use sensjoin_query::parse;
use sensjoin_relation::{AttrType, NodeId};
use sensjoin_sim::{ArqPolicy, Channel, ChurnAction, ChurnTimeline, LossModel, NodeStats};
use std::collections::BTreeSet;

const SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 2.0 ONCE";
const SIDE: f64 = 360.0;

/// A deployment under one labelling: `positions[v]` and `rows[v]` are node
/// `v`'s.
#[derive(Clone)]
struct Deployment {
    positions: Vec<Position>,
    rows: Vec<Vec<f64>>,
}

impl Deployment {
    fn new(positions: Vec<Position>) -> Self {
        let rows = generate_readings(&positions, &presets::indoor_climate(), 11);
        Self { positions, rows }
    }

    /// The same nodes with node `v` renamed `to[v]`.
    fn relabelled(&self, to: &[u32]) -> Self {
        let mut out = self.clone();
        for (v, &w) in to.iter().enumerate() {
            out.positions[w as usize] = self.positions[v];
            out.rows[w as usize] = self.rows[v].clone();
        }
        out
    }

    fn build(&self) -> SensorNetwork {
        let attrs = presets::indoor_climate()
            .iter()
            .map(|spec| (spec.name.clone(), AttrType::Raw(2)))
            .collect();
        SensorNetworkBuilder::new()
            .area(Area::new(SIDE, SIDE))
            .data(ExternalData {
                positions: self.positions.clone(),
                attrs,
                rows: self.rows.clone(),
            })
            .build()
            .unwrap()
    }
}

/// What happens to the network during the epoch, in one labelling's ids.
struct Scenario {
    /// Links that lose every packet of the first two phases.
    dead_links: Vec<(NodeId, NodeId)>,
    /// Crashes after collection, back after dissemination.
    bounces: NodeId,
    /// Crashes after dissemination.
    dies: NodeId,
}

impl Scenario {
    /// Picks the victims off the routing tree: the links of three leaves
    /// (Treecut senders, whose handoff the loss fallback must restore), an
    /// inner node below the base (a proxy with a subtree to re-home) and a
    /// second inner node.
    fn choose(snet: &SensorNetwork) -> Self {
        let tree = snet.net().routing();
        let nodes = || (0..snet.len() as u32).map(NodeId);
        let inner = |v: &NodeId| tree.depth(*v) >= Some(1) && tree.children(*v).len() >= 2;
        let leaf = |v: &NodeId| tree.depth(*v) >= Some(3) && tree.children(*v).is_empty();
        let mut inner = nodes().filter(inner);
        let (bounces, dies) = (inner.next().unwrap(), inner.nth(2).unwrap());
        let dead_links = nodes()
            .filter(leaf)
            .step_by(5)
            .take(3)
            .map(|v| (v, tree.parent(v).unwrap()))
            .collect();
        Self {
            dead_links,
            bounces,
            dies,
        }
    }

    fn relabelled(&self, to: &[u32]) -> Self {
        let to = |v: NodeId| NodeId(to[v.0 as usize]);
        Self {
            dead_links: self
                .dead_links
                .iter()
                .map(|&(a, b)| (to(a), to(b)))
                .collect(),
            bounces: to(self.bounces),
            dies: to(self.dies),
        }
    }

    fn run(&self, mut snet: SensorNetwork) -> JoinOutcome {
        let mut channel = Channel::perfect().scope_to_phases([PHASE_COLLECTION, PHASE_FILTER]);
        for &(a, b) in &self.dead_links {
            channel.set_link_model(a, b, LossModel::Bernoulli { p: 1.0 });
        }
        let net = snet.net_mut();
        net.set_channel(Some(channel));
        net.set_arq(ArqPolicy::ack(2));
        net.set_churn(Some(
            ChurnTimeline::new()
                .at_boundary(1, self.bounces, ChurnAction::Crash)
                .at_boundary(2, self.bounces, ChurnAction::Revive)
                .at_boundary(2, self.dies, ChurnAction::Crash),
        ));
        let cq = snet.compile(&parse(SQL).unwrap()).unwrap();
        SensJoin::default().execute(&mut snet, &cq).unwrap()
    }
}

/// Every counter equal, the energy up to the order it was summed in (a
/// node's charges arrive in its children's id order).
fn assert_same_counters(a: &NodeStats, b: &NodeStats, what: &str) {
    let close = (a.energy_uj - b.energy_uj).abs() <= 1e-9 * a.energy_uj.abs();
    assert!(
        close,
        "{what}: {} µJ against {} µJ",
        a.energy_uj, b.energy_uj
    );
    let energy_uj = a.energy_uj;
    assert_eq!(*a, NodeStats { energy_uj, ..*b }, "{what}");
}

/// Runs the scenario `choose` picks on `dep` under `dep`'s labelling and
/// under the one renaming node `v` to `to[v]`, and holds the second run
/// against the first, ids mapped back. Returns the two topologies' orders.
fn relabelling_does_not_show(dep: &Deployment, to: &[u32]) -> [Vec<u32>; 2] {
    let (snet, renamed) = (dep.build(), dep.relabelled(to).build());
    let scenario = Scenario::choose(&snet);
    let order = |s: &SensorNetwork| s.net().topology().slot_of().to_vec();
    let orders = [order(&snet), order(&renamed)];
    let want = scenario.run(snet);
    let got = scenario.relabelled(to).run(renamed);

    // The scenario bit: loss repaired and given up on, deaths (so the
    // result is exact over the survivors only), and still a result.
    assert!(want.churned && !want.complete);
    assert!(want.result.len() > 50, "{} rows", want.result.len());
    let stats = &want.stats;
    assert!(stats.total_retx_packets() > 0 && stats.total_lost_packets() > 0);
    assert_eq!(stats.total_deaths(), 2);
    assert!(stats.phase(sensjoin_sim::PHASE_REPAIR).ack_packets > 0);

    assert!(got.result.same_result(&want.result));
    assert_eq!(
        (
            got.latency_us,
            got.latency_slotted_us,
            got.complete,
            got.churned
        ),
        (
            want.latency_us,
            want.latency_slotted_us,
            want.complete,
            want.churned
        )
    );
    let renamed = |v: &NodeId| NodeId(to[v.0 as usize]);
    let contributors: BTreeSet<NodeId> = want.contributors.iter().map(renamed).collect();
    assert_eq!(contributors, got.contributors);
    for v in (0..dep.positions.len() as u32).map(NodeId) {
        let (a, b) = (want.stats.node(v), got.stats.node(renamed(&v)));
        assert_same_counters(a, b, &format!("{v}"));
    }
    let (a, b) = (want.stats.phases(), got.stats.phases());
    assert_eq!(a.count(), b.count());
    for ((label, a), (l, b)) in want.stats.phases().zip(got.stats.phases()) {
        assert_eq!(label, l);
        assert_same_counters(a, b, label);
    }
    orders
}

/// A fixed shuffle of `0..n`.
fn shuffle(n: usize) -> Vec<u32> {
    let (n, step) = (n as u32, 37);
    assert!(n % step != 0);
    (0..n).map(|v| (v * step + 11) % n).collect()
}

#[test]
fn ids_along_the_curve_against_a_shuffled_labelling() {
    let positions = Placement::UniformRandom { n: 120 }.generate(Area::new(SIDE, SIDE), 5);
    // Label the nodes by their slot: the layout is then the id order.
    let random = Deployment::new(positions);
    let slot_of = random.build().net().topology().slot_of().to_vec();
    let along = random.relabelled(&slot_of);
    let to = shuffle(120);
    let [identity, shuffled] = relabelling_does_not_show(&along, &to);
    assert!(identity.iter().copied().eq(0..120));
    assert!(!shuffled.iter().copied().eq(0..120));
    // A node keeps its slot whatever it is called.
    assert!((0..120).all(|v| shuffled[to[v] as usize] == identity[v]));
}

#[test]
fn nodes_of_one_cell_are_stored_in_id_order_under_any_labelling() {
    let mut positions = Placement::UniformRandom { n: 100 }.generate(Area::new(SIDE, SIDE), 9);
    // A row and a column of collinear nodes (unevenly spaced: no two links
    // of one length) ...
    let at = |x: f64, y: f64| Position::new(x, y);
    positions.extend([0.0, 31.0, 59.5, 96.0, 127.0, 161.5].map(|dx| at(40.0 + dx, 290.0)));
    positions.extend([0.0, 28.0, 61.0, 93.5, 118.0].map(|dy| at(310.0, 50.0 + dy)));
    // ... and three nodes within one cell of the position grid (5 mm a
    // side), micrometers apart: one rank along the curve, three slots.
    let cell = positions.len()..positions.len() + 3;
    positions.extend([0.0, 1e-6, 2e-6].map(|d| at(201.3 + d, 117.7 + 2.0 * d)));
    let n = positions.len();
    let dep = Deployment::new(positions);
    let to = shuffle(n);
    let orders = relabelling_does_not_show(&dep, &to);
    let mut members: Vec<usize> = cell.collect();
    for (order, rename) in orders.iter().zip([None, Some(&to)]) {
        if let Some(to) = rename {
            members = members.iter().map(|&v| to[v] as usize).collect();
            members.sort_unstable();
        }
        let slots: Vec<u32> = members.iter().map(|&v| order[v]).collect();
        assert_eq!(slots, [slots[0], slots[0] + 1, slots[0] + 2], "{members:?}");
    }
}
