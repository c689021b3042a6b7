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
//! # Execution order and parallelism
//!
//! Waves visit nodes in *subtree-major* order: an up wave walks the cached
//! post-order of the routing tree (each base-child subtree is one
//! contiguous block, blocks in ascending child order, the root last), a
//! down wave walks the matching pre-order. Because independent subtrees
//! occupy disjoint radio links and disjoint node state, the `_sync` wave
//! variants ([`up_wave_sync`], [`down_wave_sync`]) can hand whole subtree
//! blocks to worker threads: each thread charges its transfers into a
//! [`sensjoin_sim::StatLedger`]-backed lane ([`Network::open_lane`]) and
//! draws packet fates from its own clone of the per-link channel streams.
//! Replaying the lanes in block order afterwards re-issues *exactly* the
//! serial call sequence — every byte/packet counter, every floating-point
//! energy accumulation and every trace row is bit-identical to serial
//! execution, and the per-link RNG streams end up in the same position.
//! [`set_wave_mode`] pins execution to serial or parallel per thread (the
//! equivalence tests rely on this); [`WaveMode::Auto`] parallelizes only
//! past a participant threshold, and only when the routing tree actually
//! splits into lanes. Per-node protocol state mutated from `Fn + Sync`
//! callbacks goes through [`crate::NodeCells`].
//!
//! Every wave interns its phase label once ([`Network::intern_phase`]) and
//! charges by [`sensjoin_sim::PhaseId`]; `size_of` sees each message once,
//! mutably, so a message can carry its size to wherever it is forwarded
//! unchanged ([`crate::SizedSet`]).

use sensjoin_relation::NodeId;
use sensjoin_sim::{Delivery, Network, RoutingTree, Time};
use std::cell::Cell;

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

/// How the `_sync` waves execute (per thread; see [`set_wave_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaveMode {
    /// Parallelize when it pays: at least [`PAR_MIN_PARTICIPANTS`]
    /// participating nodes, a multi-core host, and a routing tree whose
    /// subtree blocks split into at least two lanes none of which holds
    /// more than [`PAR_MAX_LANE_SHARE`] of the wave.
    #[default]
    Auto,
    /// Always run serially (reference executions).
    ForceSerial,
    /// Always take the parallel path, even for tiny waves — used by the
    /// equivalence tests to exercise the lane machinery. Without the
    /// `parallel` feature this degrades to serial execution.
    ForceParallel,
}

/// Minimum participating nodes before [`WaveMode::Auto`] parallelizes: at
/// paper scale (hundreds of nodes) thread spawn + ledger replay cost more
/// than they save, so waves stay serial until well past it.
pub const PAR_MIN_PARTICIPANTS: usize = 4096;

/// The largest share of a wave's nodes one lane may hold before
/// [`WaveMode::Auto`] declines to parallelize: beyond it the split cannot
/// save a quarter of the serial time, less than recording and replaying
/// every charge costs.
pub const PAR_MAX_LANE_SHARE: f64 = 0.75;

thread_local! {
    static WAVE_MODE: Cell<WaveMode> = const { Cell::new(WaveMode::Auto) };
}

/// Sets the execution mode of subsequent `_sync` waves *on this thread*.
/// Thread-local so concurrently running tests (and drivers) cannot race
/// each other's setting; worker threads a wave spawns are unaffected — the
/// mode is read once at wave entry.
pub fn set_wave_mode(mode: WaveMode) {
    WAVE_MODE.with(|m| m.set(mode));
}

/// The current thread's wave execution mode.
pub fn wave_mode() -> WaveMode {
    WAVE_MODE.with(|m| m.get())
}

#[cfg(feature = "parallel")]
fn worker_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How a wave over `items` (independent subtree blocks, `weight` nodes
/// each, `participants` in all) is split across worker threads: contiguous
/// runs of items, one charging lane each — or `None` to run serially.
///
/// [`WaveMode::Auto`] declines unless the tree can actually be split: a
/// lane that holds more than [`PAR_MAX_LANE_SHARE`] of the wave leaves the
/// other threads idle while the ledger replay is paid in full. That is a
/// property of the routing tree (a corner base station whose four children
/// include one ancestor of 99.9 % of the network), not of a workload.
#[cfg(feature = "parallel")]
fn lane_split<T>(
    items: &[T],
    weight: impl Fn(&T) -> usize,
    participants: usize,
) -> Option<Vec<std::ops::Range<usize>>> {
    let auto = match wave_mode() {
        WaveMode::ForceSerial => return None,
        WaveMode::ForceParallel => false,
        WaveMode::Auto => true,
    };
    if items.is_empty() || (auto && (participants < PAR_MIN_PARTICIPANTS || worker_threads() < 2)) {
        return None;
    }
    let lanes = balance(items, &weight, worker_threads());
    if auto {
        let heaviest = lanes
            .iter()
            .map(|r| items[r.clone()].iter().map(&weight).sum::<usize>())
            .max()
            .unwrap_or(0);
        if lanes.len() < 2 || heaviest as f64 > PAR_MAX_LANE_SHARE * participants as f64 {
            return None;
        }
    }
    Some(lanes)
}

/// The wave's participants in visiting order: the routing tree's cached
/// post-order filtered by `participates`. Subtree blocks stay contiguous
/// (filtering preserves order, and root-closedness means a block is either
/// fully absent or keeps its root-child as its last element); the tree root
/// is the final element.
fn collect_participants(
    tree: &RoutingTree,
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
) -> Vec<NodeId> {
    let mut parts: Vec<NodeId> = tree
        .bottom_up_order()
        .iter()
        .copied()
        .filter(|&v| participates(v))
        .collect();
    assert_eq!(
        parts.pop(),
        Some(tree.base()),
        "the tree root always participates"
    );
    parts
}

/// Participants the wave never visited: alive-and-claimed nodes that are
/// not on the routing tree.
fn absent_nodes(
    n: usize,
    tree: &RoutingTree,
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
) -> Vec<NodeId> {
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

    fn absorb(&mut self, other: LevelMax) {
        for (l, t) in other.0.into_iter().enumerate() {
            self.note(l as u32, t);
        }
    }

    fn slotted(&self) -> Time {
        self.0.iter().sum()
    }
}

/// A message that reached the wave's root, in serial arrival order.
struct RootArrival<M> {
    /// `None` if the root-child's message was undecodable.
    msg: Option<M>,
    /// When the transfer into the root finished (pipelined schedule).
    done: Time,
}

/// Everything one contiguous run of subtree blocks contributes to an up
/// wave. Merging chunks in block order reproduces the serial outcome.
struct UpChunk<M> {
    level_max: LevelMax,
    damaged: Vec<NodeId>,
    arrivals: Vec<RootArrival<M>>,
}

/// A message on its way to a parent the wave has not visited yet.
struct InFlight<M> {
    to: NodeId,
    /// `None` if undecodable: dropped whole at the parent, which still
    /// waits for the transfer to end.
    msg: Option<M>,
    done: Time,
}

/// Runs the non-root part of an up wave over `order` (a contiguous run of
/// participant subtree blocks in post-order). In post-order a node is
/// visited right after the last of its children's subtrees, each of which
/// consumed its own children's messages — so a node's inbox is exactly the
/// top of one stack of in-flight messages. No per-node table, no lookup;
/// scratch is the stack, at most `order.len()` deep.
fn up_chunk<M>(
    tree: &RoutingTree,
    root: NodeId,
    order: &[NodeId],
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
    produce: &mut impl FnMut(NodeId, Vec<M>) -> M,
    size_of: &impl Fn(&mut M) -> usize,
    deliver: &mut impl FnMut(NodeId, NodeId, usize) -> Delivery,
) -> UpChunk<M> {
    let mut in_flight: Vec<InFlight<M>> = Vec::new();
    let mut chunk = UpChunk {
        level_max: LevelMax::default(),
        damaged: Vec::new(),
        arrivals: Vec::new(),
    };
    for &v in order {
        let mine = in_flight
            .iter()
            .rposition(|m| m.to != v)
            .map_or(0, |i| i + 1);
        // When v's slowest child transfer finished.
        let mut ready: Time = 0;
        let mut received = Vec::with_capacity(in_flight.len() - mine);
        for m in in_flight.drain(mine..) {
            ready = ready.max(m.done);
            received.extend(m.msg);
        }
        let mut msg = produce(v, received);
        let parent = tree.parent(v).expect("only the root has no parent");
        // The stack discipline relies on it: a message to a parent that is
        // never visited would sit on the stack under its siblings' inboxes.
        assert!(
            parent == root || participates(parent),
            "participants must be root-closed"
        );
        let bytes = size_of(&mut msg);
        let d = deliver(v, parent, bytes);
        if d.time > 0 {
            let level = tree.depth(v).expect("participant is reachable");
            chunk.level_max.note(level, d.time);
        }
        let done = ready + d.time;
        if !d.complete {
            chunk.damaged.push(v);
        }
        // Undecodable message: dropped whole at the parent.
        let msg = d.complete.then_some(msg);
        if parent == root {
            chunk.arrivals.push(RootArrival { msg, done });
        } else {
            in_flight.push(InFlight {
                to: parent,
                msg,
                done,
            });
        }
    }
    debug_assert!(in_flight.is_empty(), "every message met its parent");
    chunk
}

/// Merges up-wave chunks in block order, runs the root's `produce` and
/// assembles the report — the tail every up-wave flavor shares.
fn finish_up<M>(
    n: usize,
    tree: &RoutingTree,
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
    root: NodeId,
    chunks: Vec<UpChunk<M>>,
    produce: &mut impl FnMut(NodeId, Vec<M>) -> M,
) -> (M, WaveReport) {
    let mut level_max = LevelMax::default();
    let mut damaged = Vec::new();
    let mut inbox = Vec::new();
    let mut ready: Time = 0;
    for chunk in chunks {
        level_max.absorb(chunk.level_max);
        damaged.extend(chunk.damaged);
        for arrival in chunk.arrivals {
            ready = ready.max(arrival.done);
            inbox.extend(arrival.msg);
        }
    }
    let msg = produce(root, inbox);
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

/// Runs a leaf→root wave over all nodes for which `participates` holds
/// (participants must form a root-closed subtree: every participant's parent
/// participates). The wave runs on the network's current routing tree; use
/// [`up_wave_on`] to run on a different tree (e.g. one rooted at an
/// in-network mediator).
///
/// For each node, `produce(node, received_from_children)` builds the message
/// to forward; `size_of` gives its wire size in bytes (0-byte messages cost
/// nothing) and is called once per message, before it leaves — it may cache
/// the size in the message, so a relay that forwards the content unchanged
/// need not cost it again. A child message lost on the lossy channel is
/// dropped whole (the parent receives fewer messages) and the child lands in
/// [`WaveReport::damaged`]. Returns the message produced at the root and the
/// wave's report.
pub fn up_wave<M>(
    net: &mut Network,
    participates: &dyn Fn(NodeId) -> bool,
    produce: impl FnMut(NodeId, Vec<M>) -> M,
    size_of: impl Fn(&mut M) -> usize,
    phase: &str,
) -> (M, WaveReport) {
    let order = collect_participants(net.routing(), participates);
    up_serial(net, &order, participates, produce, size_of, phase)
}

/// The serial up wave over already collected participants, charged straight
/// through the network's [`sensjoin_sim::DeliveryPort`].
fn up_serial<M>(
    net: &mut Network,
    order: &[NodeId],
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
    mut produce: impl FnMut(NodeId, Vec<M>) -> M,
    size_of: impl Fn(&mut M) -> usize,
    phase: &str,
) -> (M, WaveReport) {
    let n = net.len();
    let phase = net.intern_phase(phase);
    let (tree, mut port) = net.delivery_port();
    let root = tree.base();
    let chunk = up_chunk(
        tree,
        root,
        order,
        participates,
        &mut produce,
        &size_of,
        &mut |f, t, b| port.unicast_delivery(f, t, b, phase),
    );
    finish_up(n, tree, participates, root, vec![chunk], &mut produce)
}

/// [`up_wave`] over an explicit routing tree with a serial `FnMut`
/// callback; the thread-shareable variant is [`up_wave_on_sync`].
#[cfg(test)]
fn up_wave_on<M>(
    net: &mut Network,
    tree: &RoutingTree,
    participates: &dyn Fn(NodeId) -> bool,
    mut produce: impl FnMut(NodeId, Vec<M>) -> M,
    size_of: impl Fn(&mut M) -> usize,
    phase: &str,
) -> (M, WaveReport) {
    let root = tree.base();
    let order = collect_participants(tree, participates);
    let chunk = up_chunk(
        tree,
        root,
        &order,
        participates,
        &mut produce,
        &size_of,
        &mut |f, t, b| net.unicast_delivery(f, t, b, phase),
    );
    finish_up(
        net.len(),
        tree,
        participates,
        root,
        vec![chunk],
        &mut produce,
    )
}

/// Splits `order` (contiguous subtree blocks) at block boundaries — a block
/// ends at each direct child of `root`.
#[cfg(feature = "parallel")]
fn subtree_blocks(
    tree: &RoutingTree,
    root: NodeId,
    order: &[NodeId],
) -> Vec<std::ops::Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0;
    for (i, &v) in order.iter().enumerate() {
        if tree.parent(v) == Some(root) {
            blocks.push(start..i + 1);
            start = i + 1;
        }
    }
    debug_assert_eq!(start, order.len(), "trailing nodes outside any block");
    blocks
}

/// Greedily groups consecutive items into at most `max_chunks` contiguous
/// runs of roughly equal total weight.
#[cfg(feature = "parallel")]
fn balance<T>(
    items: &[T],
    weight: impl Fn(&T) -> usize,
    max_chunks: usize,
) -> Vec<std::ops::Range<usize>> {
    let chunks = max_chunks.clamp(1, items.len().max(1));
    let total: usize = items.iter().map(&weight).sum();
    let mut out: Vec<std::ops::Range<usize>> = Vec::with_capacity(chunks);
    let mut start = 0;
    let mut acc = 0usize;
    let mut spent = 0usize;
    for (i, item) in items.iter().enumerate() {
        acc += weight(item);
        let left = chunks - out.len();
        if left == 1 {
            continue; // the last chunk takes the rest
        }
        let target = (total - spent).div_ceil(left);
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            spent += acc;
            acc = 0;
        }
    }
    if start < items.len() {
        out.push(start..items.len());
    }
    out
}

/// The up wave's lanes: runs of whole subtree blocks of `order`, as ranges
/// into `order` (see [`lane_split`]).
#[cfg(feature = "parallel")]
fn up_lanes(
    tree: &RoutingTree,
    root: NodeId,
    order: &[NodeId],
) -> Option<Vec<std::ops::Range<usize>>> {
    let blocks = subtree_blocks(tree, root, order);
    let lanes = lane_split(&blocks, |b| b.len(), order.len())?;
    Some(
        lanes
            .into_iter()
            .map(|r| blocks[r.start].start..blocks[r.end - 1].end)
            .collect(),
    )
}

/// Runs up-wave chunks on worker threads, one charging lane each. Returns
/// outcomes in block order, so absorbing + merging sequentially
/// ([`absorb_lanes`]) reproduces the serial event sequence.
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn up_parallel<M: Send>(
    net: &Network,
    tree: &RoutingTree,
    order: &[NodeId],
    lanes: Vec<std::ops::Range<usize>>,
    participates: &(dyn Fn(NodeId) -> bool + Sync),
    produce: &(impl Fn(NodeId, Vec<M>) -> M + Sync),
    size_of: &(impl Fn(&mut M) -> usize + Sync),
    phase: sensjoin_sim::PhaseId,
) -> Vec<(sensjoin_sim::LaneOutcome, UpChunk<M>)> {
    let root = tree.base();
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|span| {
                let mut lane = net.open_lane();
                let order = &order[span];
                s.spawn(move || {
                    let mut p = |v, msgs| produce(v, msgs);
                    let mut d = |f, t, b| lane.unicast_delivery(f, t, b, phase);
                    let chunk = up_chunk(tree, root, order, participates, &mut p, size_of, &mut d);
                    (lane.finish(), chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("up-wave worker panicked"))
            .collect()
    })
}

/// Replays finished lanes onto the network in block order and hands back
/// their chunks in that order.
#[cfg(feature = "parallel")]
fn absorb_lanes<C>(net: &mut Network, results: Vec<(sensjoin_sim::LaneOutcome, C)>) -> Vec<C> {
    results
        .into_iter()
        .map(|(outcome, chunk)| {
            net.absorb_lane(outcome);
            chunk
        })
        .collect()
}

/// [`up_wave`] with thread-shareable callbacks: parallelizes across subtree
/// blocks per [`set_wave_mode`], with byte/packet counters, energy sums,
/// trace rows and channel streams bit-identical to serial execution (see
/// the module docs). Mutate per-node state through [`crate::NodeCells`].
pub fn up_wave_sync<M: Send>(
    net: &mut Network,
    participates: &(dyn Fn(NodeId) -> bool + Sync),
    produce: impl Fn(NodeId, Vec<M>) -> M + Sync,
    size_of: impl Fn(&mut M) -> usize + Sync,
    phase: &str,
) -> (M, WaveReport) {
    let order = collect_participants(net.routing(), participates);
    #[cfg(feature = "parallel")]
    if let Some(lanes) = up_lanes(net.routing(), net.base(), &order) {
        let phase = net.intern_phase(phase);
        let results = up_parallel(
            net,
            net.routing(),
            &order,
            lanes,
            participates,
            &produce,
            &size_of,
            phase,
        );
        let chunks = absorb_lanes(net, results);
        let tree = net.routing();
        let mut p = |v, msgs| produce(v, msgs);
        return finish_up(net.len(), tree, participates, tree.base(), chunks, &mut p);
    }
    up_serial(net, &order, participates, produce, size_of, phase)
}

/// [`up_wave_on`] with thread-shareable callbacks; see [`up_wave_sync`].
pub fn up_wave_on_sync<M: Send>(
    net: &mut Network,
    tree: &RoutingTree,
    participates: &(dyn Fn(NodeId) -> bool + Sync),
    produce: impl Fn(NodeId, Vec<M>) -> M + Sync,
    size_of: impl Fn(&mut M) -> usize + Sync,
    phase: &str,
) -> (M, WaveReport) {
    let root = tree.base();
    let order = collect_participants(tree, participates);
    let mut p = |v, msgs| produce(v, msgs);
    #[cfg(feature = "parallel")]
    if let Some(lanes) = up_lanes(tree, root, &order) {
        let phase = net.intern_phase(phase);
        let results = up_parallel(
            net,
            tree,
            &order,
            lanes,
            participates,
            &produce,
            &size_of,
            phase,
        );
        let chunks = absorb_lanes(net, results);
        return finish_up(net.len(), tree, participates, root, chunks, &mut p);
    }
    let chunk = up_chunk(
        tree,
        root,
        &order,
        participates,
        &mut p,
        &size_of,
        &mut |f, t, b| net.unicast_delivery(f, t, b, phase),
    );
    finish_up(net.len(), tree, participates, root, vec![chunk], &mut p)
}

/// Owned arrival state queued for a down-wave node.
enum Arrival<M> {
    Origin,
    Msg(M),
    Damaged,
}

/// What one contiguous run of down-wave subtrees contributes.
#[derive(Default)]
struct DownChunk {
    latest: Time,
    level_max: LevelMax,
    damaged: Vec<NodeId>,
}

/// Depth-first down wave over `seeds` (each a subtree root with its arrival
/// state), visiting each seed's whole subtree before the next — the serial
/// pre-order. Scratch is the DFS stack: proportional to the visited region.
fn down_chunk<M: Clone>(
    tree: &RoutingTree,
    participates: &(impl Fn(NodeId) -> bool + ?Sized),
    produce: &mut impl FnMut(NodeId, DownArrival<'_, M>) -> Option<M>,
    size_of: &impl Fn(&mut M) -> usize,
    seeds: Vec<(NodeId, Arrival<M>, Time)>,
    deliver: &mut impl FnMut(NodeId, &[NodeId], usize) -> sensjoin_sim::BroadcastDelivery,
) -> DownChunk {
    let mut chunk = DownChunk::default();
    let mut stack: Vec<(NodeId, Arrival<M>, Time)> = seeds;
    stack.reverse(); // pop order = seed order
    let mut kids: Vec<NodeId> = Vec::new();
    while let Some((v, arrival, at)) = stack.pop() {
        chunk.latest = chunk.latest.max(at);
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
        let d = deliver(v, &kids, bytes);
        if d.time > 0 {
            let level = tree.depth(v).expect("broadcaster is reachable");
            chunk.level_max.note(level, d.time);
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
                chunk.damaged.push(c);
            }
        }
    }
    chunk
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
/// Children whose copy was lost appear in [`WaveReport::damaged`].
pub fn down_wave<M: Clone>(
    net: &mut Network,
    participates: &dyn Fn(NodeId) -> bool,
    mut produce: impl FnMut(NodeId, DownArrival<'_, M>) -> Option<M>,
    size_of: impl Fn(&mut M) -> usize,
    phase: &str,
) -> WaveReport {
    let n = net.len();
    let phase = net.intern_phase(phase);
    let (tree, mut port) = net.delivery_port();
    let base = tree.base();
    let chunk = down_chunk(
        tree,
        participates,
        &mut produce,
        &size_of,
        vec![(base, Arrival::Origin, 0)],
        &mut |f, r, b| port.broadcast_delivery(f, r, b, phase),
    );
    WaveReport {
        timing: WaveTiming {
            pipelined: chunk.latest,
            slotted: chunk.level_max.slotted(),
        },
        damaged: chunk.damaged,
        absent: absent_nodes(n, tree, participates),
    }
}

/// [`down_wave`] with thread-shareable callbacks: the root's broadcast is
/// charged serially, then the child subtrees fan out across worker threads
/// per [`set_wave_mode`] — bit-identical to serial execution (see the
/// module docs). Mutate per-node state through [`crate::NodeCells`].
pub fn down_wave_sync<M: Clone + Send>(
    net: &mut Network,
    participates: &(dyn Fn(NodeId) -> bool + Sync),
    produce: impl Fn(NodeId, DownArrival<'_, M>) -> Option<M> + Sync,
    size_of: impl Fn(&mut M) -> usize + Sync,
    phase: &str,
) -> WaveReport {
    #[cfg(feature = "parallel")]
    {
        let base = net.base();
        let tree = net.routing();
        let kids: Vec<NodeId> = tree
            .children(base)
            .iter()
            .copied()
            .filter(|&c| participates(c))
            .collect();
        let subtree = |c: &NodeId| tree.descendants(*c) as usize + 1;
        let potential: usize = kids.iter().map(subtree).sum();
        if let Some(lanes) = lane_split(&kids, subtree, potential) {
            return down_parallel(net, &kids, lanes, participates, &produce, &size_of, phase);
        }
    }
    down_wave(net, &participates, produce, size_of, phase)
}

/// The parallel down wave: the root's broadcast to `kids` is charged
/// serially (it, and the ACK frames flowing back, precede every subtree
/// event), then each lane — a run of `kids` — walks its subtrees on a
/// worker thread; see [`up_parallel`].
#[cfg(feature = "parallel")]
fn down_parallel<M: Clone + Send>(
    net: &mut Network,
    kids: &[NodeId],
    lanes: Vec<std::ops::Range<usize>>,
    participates: &(dyn Fn(NodeId) -> bool + Sync),
    produce: &(impl Fn(NodeId, DownArrival<'_, M>) -> Option<M> + Sync),
    size_of: &(impl Fn(&mut M) -> usize + Sync),
    phase: &str,
) -> WaveReport {
    let n = net.len();
    let base = net.base();
    let phase_id = net.intern_phase(phase);
    let mut total = DownChunk::default();
    let mut seeds: Vec<(NodeId, Arrival<M>, Time)> = Vec::with_capacity(kids.len());
    if let Some(mut out) = produce(base, DownArrival::Origin) {
        let bytes = size_of(&mut out);
        let d = net.broadcast_delivery(base, kids, bytes, phase);
        if d.time > 0 {
            total.level_max.note(0, d.time);
        }
        for (i, &c) in kids.iter().enumerate() {
            if bytes == 0 || d.complete[i] {
                seeds.push((c, Arrival::Msg(out.clone()), d.time));
            } else {
                total.damaged.push(c);
                seeds.push((c, Arrival::Damaged, d.time));
            }
        }
    }
    if !seeds.is_empty() {
        // One group of seeds per lane, split off back to front.
        let mut groups: Vec<Vec<(NodeId, Arrival<M>, Time)>> = Vec::with_capacity(lanes.len());
        for r in lanes.into_iter().rev() {
            groups.push(seeds.split_off(r.start));
        }
        groups.reverse();
        let shared: &Network = net;
        let tree = shared.routing();
        let results: Vec<(sensjoin_sim::LaneOutcome, DownChunk)> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|seeds| {
                    let mut lane = shared.open_lane();
                    s.spawn(move || {
                        let mut p = |v, a: DownArrival<'_, M>| produce(v, a);
                        let mut d = |f, r: &[NodeId], b| lane.broadcast_delivery(f, r, b, phase_id);
                        let chunk = down_chunk(tree, participates, &mut p, size_of, seeds, &mut d);
                        (lane.finish(), chunk)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("down-wave worker panicked"))
                .collect()
        });
        for chunk in absorb_lanes(net, results) {
            total.latest = total.latest.max(chunk.latest);
            total.level_max.absorb(chunk.level_max);
            total.damaged.extend(chunk.damaged);
        }
    }
    WaveReport {
        timing: WaveTiming {
            pipelined: total.latest,
            slotted: total.level_max.slotted(),
        },
        damaged: total.damaged,
        absent: absent_nodes(n, net.routing(), participates),
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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
        let (_, rep) = up_wave(&mut net, &|_| true, |_, _: Vec<()>| (), |_| 10, "test");
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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

    /// Regression for the O(n)-scratch fix: the participant-table engine
    /// (and the split-borrow delivery port) must behave exactly like the
    /// explicit-tree path on a twin network — message, report and every
    /// per-node counter.
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
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
            |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
            |m| *m * 4,
            "test",
        );
        assert_eq!(ma, mb);
        assert_eq!(ra, rb);
        for v in a.topology().nodes() {
            assert_eq!(a.stats().node(v), b.stats().node(v), "{v}");
        }
    }

    /// A corner base station whose few children include one ancestor of
    /// nearly the whole network: the tree cannot be split into lanes, so
    /// `Auto` must run serially (one lane would do all the work and the
    /// ledger replay would come on top) while `ForceParallel` still takes
    /// the lane machinery.
    #[cfg(feature = "parallel")]
    #[test]
    fn auto_declines_when_the_tree_does_not_split() {
        // Placement seed 6 at paper density: base-child subtrees of 1, 4996
        // and 2 nodes.
        let area = Area::for_constant_density(5000);
        let pos = Placement::UniformRandom { n: 5000 }.generate(area, 6);
        let net = NetworkBuilder::new()
            .base(sensjoin_sim::BaseChoice::NearestCorner)
            .build(pos, area)
            .unwrap();
        let tree = net.routing();
        let order = collect_participants(tree, &|_| true);
        assert!(order.len() >= PAR_MIN_PARTICIPANTS);
        let blocks = subtree_blocks(tree, tree.base(), &order);
        let heaviest = blocks.iter().map(|b| b.len()).max().unwrap();
        assert!(
            blocks.len() >= 2 && heaviest as f64 > PAR_MAX_LANE_SHARE * order.len() as f64,
            "the deployment is meant to be lopsided: {:?}",
            blocks.iter().map(|b| b.len()).collect::<Vec<_>>()
        );
        set_wave_mode(WaveMode::Auto);
        assert_eq!(up_lanes(tree, tree.base(), &order), None);
        set_wave_mode(WaveMode::ForceParallel);
        let forced = up_lanes(tree, tree.base(), &order);
        set_wave_mode(WaveMode::Auto);
        let forced = forced.expect("ForceParallel always takes lanes");
        assert_eq!(forced.first().unwrap().start, 0);
        assert_eq!(forced.last().unwrap().end, order.len());
    }

    /// The split rule itself, on block weights: `Auto` wants at least two
    /// lanes and none above the share cap, wherever the heavy block sits.
    #[cfg(feature = "parallel")]
    #[test]
    fn lane_split_rule() {
        let split = |blocks: &[usize]| lane_split(blocks, |&b| b, blocks.iter().sum());
        set_wave_mode(WaveMode::Auto);
        // Heavy block last: `balance` yields one chunk. Heavy block second:
        // two chunks, one of them 99.9 % of the wave. Neither is a split.
        assert_eq!(split(&[10, 50, 33, 99_900]), None);
        assert_eq!(split(&[10, 99_900, 50, 33]), None);
        assert_eq!(split(&[99_993]), None);
        // Too small to bother, however even.
        assert_eq!(split(&[1000, 1000, 1000]), None);
        if worker_threads() >= 2 {
            let lanes = split(&[30_000, 30_000, 40_000]).expect("an even tree splits");
            assert!(lanes.len() >= 2);
        }
        set_wave_mode(WaveMode::ForceParallel);
        assert_eq!(split(&[10, 50, 33, 99_900]).map(|l| l.len()), Some(1));
        set_wave_mode(WaveMode::ForceSerial);
        assert_eq!(split(&[30_000, 30_000, 40_000]), None);
        set_wave_mode(WaveMode::Auto);
    }

    #[test]
    fn sync_up_wave_forced_parallel_matches_serial() {
        let run = |mode: WaveMode| {
            set_wave_mode(mode);
            let mut net = net();
            net.set_tracing(true);
            net.set_channel(Some(Channel::bernoulli(0.25, 9)));
            net.set_arq(ArqPolicy::ack(3));
            let out = up_wave_sync(
                &mut net,
                &|_| true,
                |_, recv: Vec<usize>| recv.iter().sum::<usize>() + 1,
                |m| *m * 4,
                "test",
            );
            set_wave_mode(WaveMode::Auto);
            (out, net)
        };
        let ((ms, rs), nets) = run(WaveMode::ForceSerial);
        let ((mp, rp), netp) = run(WaveMode::ForceParallel);
        assert_eq!(ms, mp);
        assert_eq!(rs, rp);
        for v in nets.topology().nodes() {
            assert_eq!(nets.stats().node(v), netp.stats().node(v), "{v}");
        }
        assert_eq!(
            nets.trace().unwrap().records(),
            netp.trace().unwrap().records()
        );
    }

    #[test]
    fn sync_down_wave_forced_parallel_matches_serial() {
        let run = |mode: WaveMode| {
            set_wave_mode(mode);
            let mut net = net();
            net.set_tracing(true);
            net.set_channel(Some(Channel::gilbert_elliott(0.3, 4.0, 13)));
            net.set_arq(ArqPolicy::summary(6));
            let rep = down_wave_sync(
                &mut net,
                &|_| true,
                |v, a: DownArrival<'_, u32>| match a {
                    DownArrival::Origin => Some(0),
                    DownArrival::Intact(d) => (v.0 % 5 != 4).then_some(d + 1),
                    DownArrival::Damaged => None,
                },
                |_| 24,
                "test",
            );
            set_wave_mode(WaveMode::Auto);
            (rep, net)
        };
        let (rs, nets) = run(WaveMode::ForceSerial);
        let (rp, netp) = run(WaveMode::ForceParallel);
        assert_eq!(rs, rp);
        for v in nets.topology().nodes() {
            assert_eq!(nets.stats().node(v), netp.stats().node(v), "{v}");
        }
        assert_eq!(
            nets.trace().unwrap().records(),
            netp.trace().unwrap().records()
        );
    }
}
