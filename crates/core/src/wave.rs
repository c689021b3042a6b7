//! Tree-synchronized communication waves.
//!
//! SENS-Join and the external join are phase-structured (paper Fig. 1):
//! within a phase, data flows either leaf→root (*up waves*: collection
//! phases) or root→leaf (*down wave*: filter dissemination) along the
//! routing tree, with nodes waking exactly when their children's data is due
//! (TAG-style scheduling, [18]). Because siblings in different subtrees
//! transmit concurrently, a phase's latency is the longest chain of
//! dependent transfers — which these helpers compute while charging every
//! transmission through [`Network::unicast_delivery`] /
//! [`Network::broadcast_delivery`].
//!
//! Over a lossy network (a [`sensjoin_sim::Channel`] attached to the
//! [`Network`]), a message can be permanently lost despite the ARQ budget.
//! The waves surface this honestly: an undecodable (incomplete) message is
//! dropped whole — the parent's `produce` simply never sees it — and the
//! sender is reported in [`WaveReport::damaged`] so the protocol driver can
//! fall back conservatively. In a down wave, a child whose copy was lost is
//! visited with [`DownArrival::Damaged`] instead of the message content
//! (loss is locally detectable: the fragment train was on the air but did
//! not decode — unlike pruning, where the parent stays silent).
//!
//! # Execution order
//!
//! Waves run serially and visit nodes in *subtree-major* order: an up wave
//! walks the cached post-order of the routing tree (each base-child subtree
//! is one contiguous block, blocks in ascending child order, the root
//! last), a down wave walks the matching pre-order. Callbacks are plain
//! `FnMut` closures over the caller's per-node state. (Why there is no
//! parallel engine: DESIGN.md §4.10, "Why waves are serial".)
//!
//! Every wave interns its phase label once ([`Network::intern_phase`]) and
//! charges by [`sensjoin_sim::PhaseId`] through the network's
//! [`sensjoin_sim::DeliveryPort`]; `size_of` sees each message once,
//! mutably, so a message can carry its size to wherever it is forwarded
//! unchanged ([`crate::SizedSet`]).

use sensjoin_relation::NodeId;
use sensjoin_sim::{DeliveryPort, Network, PhaseId, RoutingTree, Time};
use std::vec::Drain;

/// A phase's latency under the two scheduling models.
///
/// * `pipelined` — data-volume-driven: a node forwards as soon as all its
///   children reported; siblings in disjoint subtrees transmit concurrently.
///   The phase takes as long as its longest chain of dependent transfers.
/// * `slotted` — TAG-style level scheduling: each tree level gets a time
///   window sized for that level's slowest transmitter, and the phase walks
///   the levels one window at a time. This is the schedule the paper's
///   response-time bound (§VII) reflects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveTiming {
    /// Longest dependent-transfer chain.
    pub pipelined: Time,
    /// Sum over levels of the level's slowest transfer.
    pub slotted: Time,
}

impl WaveTiming {
    /// Sequential composition of phases.
    pub fn then(self, next: WaveTiming) -> WaveTiming {
        WaveTiming {
            pipelined: self.pipelined + next.pipelined,
            slotted: self.slotted + next.slotted,
        }
    }
}

/// What a wave reports back: its timing plus every node whose message was
/// permanently lost (empty on a lossless network).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveReport {
    /// Phase latency under both scheduling models.
    pub timing: WaveTiming,
    /// Up wave: nodes whose message to their parent was undecodable after
    /// the ARQ budget. Down wave: nodes that missed their parent's message.
    /// These nodes are alive and attached — their *data* was damaged in
    /// transit, and retransmission-style fallbacks can recover it.
    pub damaged: Vec<NodeId>,
    /// Participants the wave never visited because they are not part of the
    /// routing tree — dead or detached after node churn (plus permanently
    /// unreachable stragglers). Unlike `damaged`, an absent subtree holds no
    /// recoverable in-flight data: the protocol must reconcile its loss at
    /// the churn boundary (proxy re-election, origin restore) rather than
    /// retransmit.
    pub absent: Vec<NodeId>,
}

impl WaveReport {
    /// Whether every message of the wave arrived intact.
    pub fn is_lossless(&self) -> bool {
        self.damaged.is_empty()
    }
}

/// How a node of a down wave was reached.
#[derive(Debug, Clone, Copy)]
pub enum DownArrival<'a, M> {
    /// The wave's origin (the tree root): nothing was received.
    Origin,
    /// The parent's message, fully decoded.
    Intact(&'a M),
    /// The parent sent a message but it did not survive the channel — the
    /// content is unknown and the node must fall back conservatively.
    Damaged,
}

/// The one way waves execute.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveMode {
    /// One thread, subtree-major order.
    Serial,
}

/// Kept for its only caller, `benchmark/src/main.rs:160`, which prints it
/// into the host fingerprint; the next `benchmark` PR drops that field and
/// this function (and [`WaveMode`]) together.
#[doc(hidden)]
pub fn wave_mode() -> WaveMode {
    WaveMode::Serial
}

/// Participants the wave never visited: alive-and-claimed nodes that are
/// not on the routing tree (none when the tree spans every node).
fn absent_nodes(
    n: usize,
    tree: &RoutingTree,
    participates: &dyn Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    if tree.bottom_up_order().len() == n {
        return Vec::new();
    }
    (0..n as u32)
        .map(NodeId)
        .filter(|&v| participates(v) && tree.depth(v).is_none())
        .collect()
}

/// Per tree level, the slowest transfer a wave saw there — the window sizes
/// of the slotted schedule. Levels are dense, so this is a vector, not a map.
#[derive(Default)]
struct LevelMax(Vec<Time>);

impl LevelMax {
    fn note(&mut self, level: u32, t: Time) {
        let l = level as usize;
        if l >= self.0.len() {
            self.0.resize(l + 1, 0);
        }
        self.0[l] = self.0[l].max(t);
    }

    fn slotted(&self) -> Time {
        self.0.iter().sum()
    }
}

/// A message on its way to a parent the wave has not visited yet.
struct InFlight<M> {
    to: NodeId,
    /// `None` if undecodable: dropped whole at the parent, which still
    /// waits for the transfer to end.
    msg: Option<M>,
    done: Time,
}

/// Runs a leaf→root wave over all nodes for which `participates` holds
/// (participants must form a root-closed subtree: every participant's parent
/// participates). The wave runs on the network's current routing tree; use
/// [`up_wave_on`] to run on a different tree (e.g. one rooted at an
/// in-network mediator).
///
/// For each node, `produce(node, received_from_children)` builds the message
/// to forward, draining what it received from one inbox the wave reuses;
/// `size_of` gives its wire size in bytes (0-byte messages cost nothing) and
/// is called once per message, before it leaves — it may cache the size in
/// the message, so a relay that forwards the content unchanged need not cost
/// it again. A child message lost on the lossy channel is
/// dropped whole (the parent receives fewer messages) and the child lands in
/// [`WaveReport::damaged`]. Returns the message produced at the root and the
/// wave's report.
pub fn up_wave<M>(
    net: &mut Network,
    participates: &dyn Fn(NodeId) -> bool,
    produce: impl FnMut(NodeId, Drain<'_, M>) -> M,
    size_of: impl FnMut(&mut M) -> usize,
    phase: &str,
) -> (M, WaveReport) {
    let n = net.len();
    let phase = net.intern_phase(phase);
    let (tree, port) = net.delivery_port();
    up_run(n, tree, port, participates, produce, size_of, phase)
}

/// [`up_wave`] over an explicit routing tree instead of the network's own.
pub fn up_wave_on<M>(
    net: &mut Network,
    tree: &RoutingTree,
    participates: &dyn Fn(NodeId) -> bool,
    produce: impl FnMut(NodeId, Drain<'_, M>) -> M,
    size_of: impl FnMut(&mut M) -> usize,
    phase: &str,
) -> (M, WaveReport) {
    let n = net.len();
    let phase = net.intern_phase(phase);
    let (_, port) = net.delivery_port();
    up_run(n, tree, port, participates, produce, size_of, phase)
}

/// The up wave both entry points share: walks `tree`'s cached post-order
/// — each node with its parent and depth beside it, so the walk reads the
/// tree forwards — filtered by `participates` (filtering keeps subtree
/// blocks contiguous, the tree root comes last). In post-order a node is visited right after
/// the last of its children's subtrees, each of which consumed its own
/// children's messages — so a node's inbox is exactly the top of one stack
/// of in-flight messages. No per-node table, no lookup; scratch is the
/// stack, at most as deep as the wave has participants, and one inbox.
fn up_run<M>(
    n: usize,
    tree: &RoutingTree,
    mut port: DeliveryPort<'_>,
    participates: &dyn Fn(NodeId) -> bool,
    mut produce: impl FnMut(NodeId, Drain<'_, M>) -> M,
    mut size_of: impl FnMut(&mut M) -> usize,
    phase: PhaseId,
) -> (M, WaveReport) {
    let root = tree.base();
    assert!(participates(root), "the tree root always participates");
    let mut level_max = LevelMax::default();
    let mut damaged = Vec::new();
    let mut in_flight: Vec<InFlight<M>> = Vec::new();
    let mut inbox: Vec<M> = Vec::new();
    for (v, parent, level) in tree.bottom_up_links() {
        if v == root || !participates(v) {
            continue;
        }
        let mine = in_flight
            .iter()
            .rposition(|m| m.to != v)
            .map_or(0, |i| i + 1);
        // When v's slowest child transfer finished.
        let mut ready: Time = 0;
        for m in in_flight.drain(mine..) {
            ready = ready.max(m.done);
            inbox.extend(m.msg);
        }
        let mut msg = produce(v, inbox.drain(..));
        // The stack discipline relies on it: a message to a parent that is
        // never visited would sit on the stack under its siblings' inboxes.
        assert!(
            parent == root || participates(parent),
            "participants must be root-closed"
        );
        let bytes = size_of(&mut msg);
        let d = port.unicast_delivery(v, parent, bytes, phase);
        if d.time > 0 {
            level_max.note(level, d.time);
        }
        if !d.complete {
            damaged.push(v);
        }
        in_flight.push(InFlight {
            to: parent,
            // Undecodable message: dropped whole at the parent.
            msg: d.complete.then_some(msg),
            done: ready + d.time,
        });
    }
    // What is still in flight is the root's inbox, in arrival order.
    let mut ready: Time = 0;
    for m in in_flight {
        debug_assert!(m.to == root, "every message met its parent");
        ready = ready.max(m.done);
        inbox.extend(m.msg);
    }
    let msg = produce(root, inbox.drain(..));
    let report = WaveReport {
        timing: WaveTiming {
            pipelined: ready,
            slotted: level_max.slotted(),
        },
        damaged,
        absent: absent_nodes(n, tree, participates),
    };
    (msg, report)
}

/// Owned arrival state queued for a down-wave node.
enum Arrival<M> {
    Origin,
    Msg(M),
    Damaged,
}

/// Runs a root→leaf wave. `produce(node, arrival)` is called with
/// [`DownArrival::Origin`] at the base station, [`DownArrival::Intact`] at
/// nodes that received their parent's message, and [`DownArrival::Damaged`]
/// at nodes whose copy was permanently lost on the channel; it returns the
/// message to broadcast to the node's participating children (`None`
/// suppresses forwarding — Selective Filter Forwarding's pruning). A single
/// broadcast reaches all participating children (one transmission, one
/// reception each — paper Fig. 3 `broadcast(SubtreeFilter)`). `size_of` is
/// called once per broadcast, before the children's copies are made, so a
/// size it caches in the message travels with every copy.
///
/// The walk is depth-first, each subtree in full before the next (the
/// pre-order matching [`up_wave`]'s post-order); scratch is the DFS stack,
/// proportional to the visited region. Children whose copy was lost appear
/// in [`WaveReport::damaged`].
pub fn down_wave<M: Clone>(
    net: &mut Network,
    participates: &dyn Fn(NodeId) -> bool,
    mut produce: impl FnMut(NodeId, DownArrival<'_, M>) -> Option<M>,
    mut size_of: impl FnMut(&mut M) -> usize,
    phase: &str,
) -> WaveReport {
    let n = net.len();
    let phase = net.intern_phase(phase);
    let (tree, mut port) = net.delivery_port();
    let mut latest: Time = 0;
    let mut level_max = LevelMax::default();
    let mut damaged = Vec::new();
    let mut stack: Vec<(NodeId, Arrival<M>, Time)> = vec![(tree.base(), Arrival::Origin, 0)];
    let mut kids: Vec<NodeId> = Vec::new();
    while let Some((v, arrival, at)) = stack.pop() {
        latest = latest.max(at);
        let out = match &arrival {
            Arrival::Origin => produce(v, DownArrival::Origin),
            Arrival::Msg(m) => produce(v, DownArrival::Intact(m)),
            Arrival::Damaged => produce(v, DownArrival::Damaged),
        };
        let Some(mut out) = out else { continue };
        kids.clear();
        kids.extend(
            tree.children(v)
                .iter()
                .copied()
                .filter(|&c| participates(c)),
        );
        if kids.is_empty() {
            continue;
        }
        let bytes = size_of(&mut out);
        let d = port.broadcast_delivery(v, &kids, bytes, phase);
        if d.time > 0 {
            let level = tree.depth(v).expect("broadcaster is reachable");
            level_max.note(level, d.time);
        }
        // Reversed push: the lowest-id child's subtree is walked first.
        for (i, &c) in kids.iter().enumerate().rev() {
            // A zero-byte message reaches nobody physically, but carries no
            // content either: treat it as intact (matches lossless runs).
            if bytes == 0 || d.complete[i] {
                stack.push((c, Arrival::Msg(out.clone()), at + d.time));
            } else {
                stack.push((c, Arrival::Damaged, at + d.time));
            }
        }
        // Damage is reported in child order, not visiting order.
        for (i, &c) in kids.iter().enumerate() {
            if bytes > 0 && !d.complete[i] {
                damaged.push(c);
            }
        }
    }
    WaveReport {
        timing: WaveTiming {
            pipelined: latest,
            slotted: level_max.slotted(),
        },
        damaged,
        absent: absent_nodes(n, tree, participates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_field::{Area, Placement};
    use sensjoin_sim::{ArqPolicy, Channel, NetworkBuilder};

    fn net() -> Network {
        let area = Area::new(250.0, 250.0);
        let pos = Placement::UniformRandom { n: 80 }.generate(area, 5);
        NetworkBuilder::new().build(pos, area).unwrap()
    }

    #[test]
    fn up_wave_counts_every_node() {
        let mut net = net();
        let reachable = net.len() - net.routing().unreachable().len();
        // Each node sends one 4-byte unit per subtree node: message = count.
        let (total, rep) = up_wave(
            &mut net,
            &|_| true,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        assert_eq!(total, reachable);
        assert!(rep.is_lossless());
        let t = rep.timing;
        assert!(t.pipelined > 0);
        // The slotted schedule can never beat pipelining.
        assert!(t.slotted >= t.pipelined);
        // Every non-base node transmitted at least one packet.
        let zero_tx = (0..net.len() as u32)
            .filter(|&i| {
                let v = sensjoin_relation::NodeId(i);
                v != net.base()
                    && net.routing().depth(v).is_some()
                    && net.stats().node(v).tx_packets == 0
            })
            .count();
        assert_eq!(zero_tx, 0);
    }

    #[test]
    fn up_wave_latency_exceeds_single_hop() {
        let mut net = net();
        let depth = net.routing().max_depth() as u64;
        let (_, rep) = up_wave(&mut net, &|_| true, |_, _: Drain<()>| (), |_| 10, "test");
        let t = rep.timing;
        let hop = net.radio().transfer_us(10);
        assert!(
            t.pipelined >= depth * hop,
            "latency {} < {depth} hops x {hop}",
            t.pipelined
        );
        // Equal-size messages: the slotted schedule is exactly depth x hop.
        assert_eq!(t.slotted, depth * hop);
    }

    #[test]
    fn down_wave_reaches_everyone_once() {
        let mut net = net();
        let mut visits = vec![0u32; net.len()];
        down_wave(
            &mut net,
            &|_| true,
            |v, _recv: DownArrival<'_, u8>| {
                visits[v.0 as usize] += 1;
                Some(7u8)
            },
            |_| 5,
            "test",
        );
        let reachable = net.len() - net.routing().unreachable().len();
        let visited = visits.iter().filter(|&&v| v == 1).count();
        assert_eq!(visited, reachable);
        assert!(visits.iter().all(|&v| v <= 1));
        // Broadcast economy: #transmissions = #nodes with children, while
        // #receptions = #reachable nodes - 1.
        let rx: u64 = (0..net.len() as u32)
            .map(|i| net.stats().node(sensjoin_relation::NodeId(i)).rx_packets)
            .sum();
        assert_eq!(rx, reachable as u64 - 1);
    }

    #[test]
    fn down_wave_pruning_stops_subtrees() {
        let mut net = net();
        let base = net.base();
        // Forward only from the base: depth-1 nodes receive, nobody deeper.
        let mut received = vec![false; net.len()];
        down_wave(
            &mut net,
            &|_| true,
            |v, recv: DownArrival<'_, u8>| {
                if matches!(recv, DownArrival::Intact(_)) {
                    received[v.0 as usize] = true;
                }
                (v == base).then_some(1u8)
            },
            |_| 3,
            "test",
        );
        for i in 0..net.len() as u32 {
            let v = sensjoin_relation::NodeId(i);
            let expect = net.routing().parent(v) == Some(base);
            assert_eq!(received[i as usize], expect, "{v}");
        }
    }

    #[test]
    fn up_wave_partial_participation() {
        let mut net = net();
        // Only depth <= 1 participates (root-closed set).
        let depths: Vec<Option<u32>> = (0..net.len() as u32)
            .map(|i| net.routing().depth(sensjoin_relation::NodeId(i)))
            .collect();
        let participates = move |v: NodeId| depths[v.0 as usize].is_some_and(|d| d <= 1);
        let (count, _) = up_wave(
            &mut net,
            &participates,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |_| 2,
            "test",
        );
        let expect = (0..net.len() as u32)
            .filter(|&i| {
                net.routing()
                    .depth(sensjoin_relation::NodeId(i))
                    .is_some_and(|d| d <= 1)
            })
            .count();
        assert_eq!(count, expect);
    }

    #[test]
    fn up_wave_drops_undecodable_messages_and_reports_damage() {
        let mut net = net();
        // Total loss, no repair: every non-root transfer is damaged.
        net.set_channel(Some(Channel::bernoulli(1.0, 1)));
        let reachable = net.len() - net.routing().unreachable().len();
        let (total, rep) = up_wave(
            &mut net,
            &|_| true,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        // The base only counts itself: all child messages were dropped whole.
        assert_eq!(total, 1);
        assert_eq!(rep.damaged.len(), reachable - 1);
    }

    #[test]
    fn up_wave_arq_repairs_moderate_loss() {
        let mut net = net();
        net.set_channel(Some(Channel::bernoulli(0.2, 5)));
        net.set_arq(ArqPolicy::ack(10));
        let reachable = net.len() - net.routing().unreachable().len();
        let (total, rep) = up_wave(
            &mut net,
            &|_| true,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        assert_eq!(total, reachable);
        assert!(rep.is_lossless());
        assert!(net.stats().total_retx_packets() > 0);
    }

    #[test]
    fn dead_subtrees_are_absent_not_damaged() {
        let mut net = net();
        let base = net.base();
        let victim = *net
            .routing()
            .children(base)
            .iter()
            .max_by_key(|&&c| net.routing().descendants(c))
            .unwrap();
        net.fail_node(victim);
        // The wave still claims everyone participates — the dead node and
        // any of its descendants that could not reattach are *absent*, never
        // *damaged* (there was no in-flight data to lose).
        let (count, rep) = up_wave(
            &mut net,
            &|_| true,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        assert!(rep.damaged.is_empty());
        assert!(rep.absent.contains(&victim));
        for &v in &rep.absent {
            assert!(net.routing().depth(v).is_none());
        }
        // The wave visits exactly the post-repair tree.
        let reachable_now = (0..net.len() as u32)
            .map(NodeId)
            .filter(|&v| net.routing().depth(v).is_some())
            .count();
        assert_eq!(count, reachable_now);
        assert_eq!(rep.absent.len(), net.len() - reachable_now);
    }

    #[test]
    fn down_wave_marks_damaged_children() {
        let mut net = net();
        net.set_channel(Some(Channel::bernoulli(1.0, 2)));
        let base = net.base();
        let mut damaged_seen = 0;
        let rep = down_wave(
            &mut net,
            &|_| true,
            |v, recv: DownArrival<'_, u8>| {
                if matches!(recv, DownArrival::Damaged) {
                    damaged_seen += 1;
                }
                (v == base).then_some(1u8)
            },
            |_| 3,
            "test",
        );
        let expect = net.routing().children(base).len();
        assert_eq!(damaged_seen, expect);
        assert_eq!(rep.damaged.len(), expect);
    }

    /// Both up-wave entry points charge through the same port: on a twin
    /// network the explicit-tree path must reproduce the message, the
    /// report, every per-node counter and the per-phase totals.
    #[test]
    fn up_wave_matches_explicit_tree_run() {
        let lossy = |net: &mut Network| {
            net.set_channel(Some(Channel::bernoulli(0.3, 7)));
            net.set_arq(ArqPolicy::ack(2));
        };
        let mut a = net();
        lossy(&mut a);
        // Depth-bounded participation is root-closed by construction.
        let depths: Vec<Option<u32>> = (0..a.len() as u32)
            .map(|i| a.routing().depth(NodeId(i)))
            .collect();
        let participates = move |v: NodeId| depths[v.0 as usize].is_some_and(|d| d <= 2);
        let (ma, ra) = up_wave(
            &mut a,
            &participates,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        let mut b = net();
        lossy(&mut b);
        let tree = b.routing().clone();
        let (mb, rb) = up_wave_on(
            &mut b,
            &tree,
            &participates,
            |_, recv: Drain<usize>| recv.sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        assert_eq!(ma, mb);
        assert_eq!(ra, rb);
        for v in a.topology().nodes() {
            assert_eq!(a.stats().node(v), b.stats().node(v), "{v}");
        }
        assert!(a.stats().phases().eq(b.stats().phases()));
    }
}
