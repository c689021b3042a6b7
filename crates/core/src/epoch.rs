//! The one full-wire SENS-Join epoch (paper §IV): Join-Attribute-Collection
//! with Treecut (Fig. 2), Filter-Dissemination with Selective Filter
//! Forwarding (Fig. 3) and Final-Result-Computation (§IV-D), for the *k*
//! queries due together on one network.
//!
//! [`SensJoin::execute`](crate::SensJoin) runs it with one slot;
//! [`QueryGroup::execute_epoch`](crate::QueryGroup) with every due query.
//! The callers differ in exactly two things, passed to [`run_epoch`]: whether
//! churn is polled between the phases, and the exact join's result shape
//! (a one-shot's [`exact_join`](crate::exact_join) answers a
//! [`JoinResult`](crate::JoinResult), a group's flat join a
//! [`GroupResult`](crate::GroupResult)). Everything else — the wire format,
//! the phase labels, the base-station filter step, the loss fallback, the
//! churn reconciliation — is written here once, and so is the epoch a
//! standing executor runs it or its delta wire in, [`standing_epoch`].
//!
//! **What k adds.** Messages identify complete tuples by origin node; each
//! slot's projection of a node is in that slot's [`NodeTable`], and tuple
//! values are read from the snapshot only when the base station joins. A
//! collection or filter message carries one cell set per slot, and sets
//! whose quantization spaces coincide share one quadtree encoding on the
//! wire ([`merged_wire_size`]; a quadtree-only saving — under the §VI-B
//! representation variants each slot's set is sized on its own). A final
//! tuple ships once with a membership mask of the slots it matched, charged
//! for the union of their referenced attributes; at k = 1 the mask is
//! omitted and every message costs exactly what a single query's would. As
//! a message leaves, what each slot would have paid for it alone is metered
//! into that slot's [`SoloCost`] — from per-slot sums the message carries
//! ([`Shipment`]), so a hop costs O(k), not a pass over its tuples.
//!
//! **Loss policy.** Results stay exact as long as the final wave arrives:
//! a node whose collection message was permanently lost re-enters the query
//! in pass-through mode (its Treecut handoff restored), the base then orders
//! pass-through for everyone, and a node whose filter copy was lost ships
//! everything it holds. `complete` is false only when the final wave itself
//! lost data.

use crate::config::{Representation, SensJoinConfig};
use crate::engine::{prejoin_filter, JoinComputation, JoinSpace};
use crate::outcome::{JoinOutcome, ProtocolError};
use crate::repr::{columns, CellTable, JoinAttrMsg, NodeTable, Shipment, SizedSet};
use crate::scheduler::{EpochReport, SoloCost};
use crate::sensjoin::{PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL};
use crate::snetwork::SensorNetwork;
use crate::wave::{down_wave, up_wave, DownArrival, WaveTiming};
use sensjoin_quadtree::{encoded_wire_size, merge_k, Point, PointSet, RelFlags};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::{NodeId, TupleBatch};
use sensjoin_sim::{ChurnOutcome, Network, RoutingTree, Time};
use std::sync::Arc;
use std::vec::Drain;

/// One query of the epoch, with its quantization space.
pub(crate) struct Slot<'a> {
    pub query: &'a CompiledQuery,
    pub space: &'a JoinSpace,
}

/// What one run of the three phases produced.
pub(crate) struct EpochRun<R> {
    /// Per slot: the exact join over the tuples that reached the base.
    pub joins: Vec<JoinComputation<R>>,
    /// Per slot: what the slot's payloads would have cost unshared (`id` is
    /// left for the caller to stamp).
    pub solo: Vec<SoloCost>,
    /// The three phases' latencies, composed.
    pub timing: WaveTiming,
    /// Whether every slot's result is guaranteed exact: the final wave lost
    /// nothing and — when churn was polled — every node that participated
    /// at the start survived to the end (otherwise the result is exact over
    /// the survivors only).
    pub complete: bool,
    /// Whether a crash or revival was applied between the phases.
    pub churned: bool,
}

/// Collection message: a node forwards either complete tuples (below the
/// Treecut threshold) or one join-attribute structure per collection class
/// (paper §IV-B).
enum UpMsg {
    Full(Shipment<NodeId>),
    Attrs(Vec<JoinAttrMsg>),
}

/// Dissemination message. On a lossless network only `Filter` occurs and it
/// costs exactly the filters' wire size; on a lossy network every message
/// carries a one-byte tag so that a conservative `PassThrough` order (ship
/// everything, prune nothing) can be disseminated after collection damage.
#[derive(Clone)]
enum FilterMsg {
    /// Per slot: the (possibly subtree-pruned) join filter, `None` where
    /// nothing below joins.
    Filter(Vec<Option<SizedSet>>),
    PassThrough,
}

/// Final-phase message: shipped tuples with their slot-membership masks.
type Batch = Shipment<(NodeId, u64)>;

/// Per-node protocol state surviving between the phases, one column per
/// field (per-slot fields are `k` consecutive entries per node, per-class
/// ones `classes`), every
/// column in the topology's storage order: a node-event touches a node, its
/// children and the origins it proxies — radio neighbors all.
struct Nodes {
    k: usize,
    classes: usize,
    /// Node `v`'s entries are at `slot_of[v]` ([`Nodes::at`]).
    slot_of: Arc<[u32]>,
    /// Stays awake after collection (Treecut nodes exit the query, Fig. 2
    /// line 18).
    active: Vec<bool>,
    /// Holds its own tuple.
    own: Vec<bool>,
    /// Complete tuples stored on behalf of cut descendants (proxy role).
    proxy: Vec<Vec<NodeId>>,
    /// Conservative mode: the node lost protocol state (to the channel or
    /// to churn) and ships every tuple it holds rather than risk dropping a
    /// real result.
    passthrough: Vec<bool>,
    /// Per collection class: the subtree's received cells, memorized for
    /// Selective Filter Forwarding (`None` if over the memory cap).
    subtree_atts: Vec<Option<PointSet>>,
    /// Per slot: the filter as received (`None` = pruned away).
    received: Vec<Option<PointSet>>,
}

impl Nodes {
    fn new(slot_of: Arc<[u32]>, k: usize, classes: usize) -> Self {
        let n = slot_of.len();
        Self {
            k,
            classes,
            slot_of,
            active: vec![false; n],
            own: vec![false; n],
            proxy: vec![Vec::new(); n],
            passthrough: vec![false; n],
            subtree_atts: vec![None; n * classes],
            received: vec![None; n * k],
        }
    }

    /// Where node `v`'s entries live.
    fn at(&self, v: NodeId) -> usize {
        self.slot_of[v.0 as usize] as usize
    }

    /// A crash or reboot: the node loses all state. Returns what it proxied.
    fn wipe(&mut self, v: NodeId) -> Vec<NodeId> {
        let v = self.at(v);
        self.active[v] = false;
        self.own[v] = false;
        self.passthrough[v] = false;
        self.subtree_atts[v * self.classes..][..self.classes].fill(None);
        self.received[v * self.k..][..self.k].fill(None);
        std::mem::take(&mut self.proxy[v])
    }

    /// Re-enters the query holding data its ancestors know nothing about.
    fn conservative(&mut self, v: NodeId) {
        let v = self.at(v);
        self.active[v] = true;
        self.passthrough[v] = true;
    }

    /// Re-activates `v`'s ancestor chain so the participant set stays
    /// root-closed. Re-activated relays hold no data and only forward.
    fn close_to_root(&mut self, routing: &RoutingTree, v: NodeId) {
        let mut u = v;
        while let Some(p) = routing.parent(u) {
            let pi = self.at(p);
            if self.active[pi] {
                break;
            }
            self.active[pi] = true;
            u = p;
        }
    }

    /// Reconciles the state with the liveness changes of one churn
    /// boundary, keeping the surviving population's data exactly once in
    /// the network:
    ///
    /// * **Crashed** nodes lose all state. Tuples they proxied for *live*
    ///   origins are re-elected back to those origins (the origin still
    ///   stores its own reading, so this recovery is radio-free); tuples
    ///   *originating* at a dead node are dropped at every live holder (the
    ///   death notification the network charges under the repair phase).
    /// * **Revived** nodes reboot with no protocol state. One that
    ///   participated at the start re-contributes its reading (every other
    ///   copy was dropped when it died), conservatively.
    /// * **Reattached** nodes hang below ancestors whose memorized subtree
    ///   synopses do not cover them, so Selective Filter Forwarding could
    ///   wrongly prune them — any that holds data ships it unconditionally.
    ///
    /// Finally the participant set is re-closed towards the root.
    fn reconcile_churn(
        &mut self,
        out: &ChurnOutcome,
        net: &Network,
        contributes: impl Fn(NodeId) -> bool,
        p0: &[bool],
    ) {
        let alive = net.alive_mask();
        // A crash wipes the node's copies everywhere even if the node
        // revived at this very boundary: liveness alone is not enough to
        // keep a tuple — its origin must also not have crashed just now
        // (the revival arm re-contributes the reading exactly once).
        let mut crashed_now = vec![false; alive.len()];
        for &d in &out.crashed {
            crashed_now[d.0 as usize] = true;
        }
        let survives = |u: &NodeId| alive[u.0 as usize] && !crashed_now[u.0 as usize];
        let mut restore: Vec<NodeId> = Vec::new();
        for &d in &out.crashed {
            restore.extend(self.wipe(d));
        }
        if !out.crashed.is_empty() {
            for held in &mut self.proxy {
                held.retain(&survives);
            }
        }
        // The origin died too: the tuple is genuinely lost.
        for u in restore.into_iter().filter(&survives) {
            let ui = self.at(u);
            self.own[ui] = true;
            self.conservative(u);
        }
        for &v in &out.revived {
            self.wipe(v);
            // (not if it crashed again at the same boundary)
            if alive[v.0 as usize] && p0[v.0 as usize] && contributes(v) {
                let vi = self.at(v);
                self.own[vi] = true;
                self.conservative(v);
            }
        }
        for &v in &out.reattached {
            let vi = self.at(v);
            if self.active[vi] || self.own[vi] || !self.proxy[vi].is_empty() {
                self.conservative(v);
            }
        }
        let routing = net.routing();
        for v in (0..self.active.len() as u32).map(NodeId) {
            // Orphans are not part of any wave until reattached.
            if self.active[self.at(v)] && routing.depth(v).is_some() {
                self.close_to_root(routing, v);
            }
        }
    }
}

/// Per node: alive and attached to the routing tree.
pub(crate) fn live_attached(net: &Network) -> Vec<bool> {
    (0..net.len() as u32)
        .map(NodeId)
        .map(|v| net.is_alive(v) && net.routing().depth(v).is_some())
        .collect()
}

/// Polls churn at one boundary, `elapsed` after the previous one, and hands
/// a non-empty outcome to `reconcile`. Returns whether a node crashed or
/// revived.
fn churn_boundary(
    snet: &mut SensorNetwork,
    elapsed: Time,
    reconcile: impl FnOnce(&ChurnOutcome, &SensorNetwork),
) -> bool {
    let out = snet.net_mut().apply_churn(elapsed);
    if !out.is_empty() {
        reconcile(&out, snet);
    }
    !out.crashed.is_empty() || !out.revived.is_empty()
}

/// The attempt cap of a standing executor's epoch, the first included.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// A standing executor's outcome, as [`standing_epoch`] folds and closes it.
pub(crate) trait Report {
    fn complete(&self) -> bool;
    /// Adds the costs of `prev`, the attempt before: latencies add up.
    fn fold(&mut self, prev: Self);
    /// Closes the epoch's stats window into the report and stamps `churned`.
    /// Returns the latency to record, `None` for an epoch that ran no wave.
    fn close(&mut self, net: &mut Network, churned: bool) -> Option<Time>;
}

/// A continuous round takes the window's stats.
impl Report for JoinOutcome {
    fn complete(&self) -> bool {
        self.complete
    }
    fn fold(&mut self, prev: Self) {
        self.latency_us += prev.latency_us;
        self.latency_slotted_us += prev.latency_slotted_us;
    }
    fn close(&mut self, net: &mut Network, churned: bool) -> Option<Time> {
        (self.stats, self.churned) = (net.take_stats(), churned);
        Some(self.latency_us)
    }
}

/// A group epoch clones the window's stats, and one with nothing due keeps
/// the recorded latency. A solo execution would have retried too: each
/// slot's solo costs add up as well.
impl Report for EpochReport {
    fn complete(&self) -> bool {
        self.complete
    }
    fn fold(&mut self, prev: Self) {
        self.latency_us += prev.latency_us;
        self.latency_slotted_us += prev.latency_slotted_us;
        for (a, b) in self.solo_equivalent.iter_mut().zip(&prev.solo_equivalent) {
            a.collection_bytes += b.collection_bytes;
            a.filter_bytes += b.filter_bytes;
            a.final_bytes += b.final_bytes;
        }
    }
    fn close(&mut self, net: &mut Network, churned: bool) -> Option<Time> {
        (self.stats, self.churned) = (net.stats().clone(), churned);
        (self.plans > 0).then_some(self.latency_us)
    }
}

/// Runs `attempt` until `retry` lets its outcome stand or `max_attempts`
/// ran, with `before_retry` before each retry. Returns the last outcome,
/// each earlier one folded into it by `fold(last, earlier)`, and the number
/// of attempts.
pub(crate) fn attempts<C, T>(
    cx: &mut C,
    max_attempts: u32,
    retry: impl Fn(&T) -> bool,
    mut before_retry: impl FnMut(&mut C),
    mut attempt: impl FnMut(&mut C) -> Result<T, ProtocolError>,
    fold: impl Fn(&mut T, T),
) -> Result<(T, u32), ProtocolError> {
    assert!(max_attempts >= 1, "at least one attempt is needed");
    let mut out = attempt(cx)?;
    let mut attempts = 1;
    while retry(&out) && attempts < max_attempts {
        attempts += 1;
        before_retry(cx);
        let prev = std::mem::replace(&mut out, attempt(cx)?);
        fold(&mut out, prev);
    }
    Ok((out, attempts))
}

/// One epoch of a standing executor `x` around its `attempt` body: resets
/// the stats; polls churn once at the boundary, the recorded latency after
/// the last one, and hands a non-empty outcome to `reconcile`; runs
/// attempts until one is complete or [`MAX_ATTEMPTS`] ran, with `reset`
/// before each retry and after a last failed one; and closes the one stats
/// window over every attempt and records the epoch's latency.
pub(crate) fn standing_epoch<X, T: Report>(
    x: &mut X,
    snet: &mut SensorNetwork,
    last_latency_us: fn(&mut X) -> &mut Time,
    reconcile: impl FnOnce(&mut X, &SensorNetwork),
    mut reset: impl FnMut(&mut X),
    mut attempt: impl FnMut(&mut X, &mut SensorNetwork) -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    snet.net_mut().reset_stats();
    let elapsed = *last_latency_us(x);
    let churned = snet.net().has_churn() && churn_boundary(snet, elapsed, |_, s| reconcile(x, s));
    let (mut report, _) = attempts(
        &mut (&mut *x, &mut *snet),
        MAX_ATTEMPTS,
        |r: &T| !r.complete(),
        |(x, _)| reset(x),
        |(x, snet)| attempt(x, snet),
        T::fold,
    )?;
    if !report.complete() {
        reset(x);
    }
    if let Some(latency) = report.close(snet.net_mut(), churned) {
        *last_latency_us(x) = latency;
    }
    Ok(report)
}

/// Runs collection → dissemination → final for `slots` on the network's
/// current snapshot and joins what reaches the base, per slot.
///
/// `poll_churn` says whether the churn timeline is polled before the first
/// phase and after each of the first two (with state reconciliation); a
/// caller with a next epoch to defer liveness changes to passes `false`, and
/// [`standing_epoch`] polls between its epochs. `join` is the base station's
/// exact join, run once per slot.
///
/// Slots whose nodes' cells coincide form one collection class
/// ([`collection_classes`]): the class has one cell table, and a
/// collection message one structure, one memorized subtree set and one wire
/// size per class. What differs per slot — the tuple bytes, the filter, the
/// final masks — is kept per slot.
pub(crate) fn run_epoch<R>(
    snet: &mut SensorNetwork,
    cfg: &SensJoinConfig,
    slots: &[Slot<'_>],
    poll_churn: bool,
    join: impl Fn(&CompiledQuery, &[TupleBatch]) -> JoinComputation<R>,
) -> EpochRun<R> {
    let k = slots.len();
    assert!(
        (1..=64).contains(&k),
        "slot membership masks are 64-bit and an epoch has at least one query"
    );
    let base = snet.base();
    let n = snet.len();
    let repr = cfg.representation;
    let spaces = space_classes(slots);
    let (class_of, firsts) = collection_classes(snet, slots, &spaces);
    // Per class: the slots it holds, and the shape its sets are encoded in.
    let mut members = vec![0u64; firsts.len()];
    for (s, &c) in class_of.iter().enumerate() {
        members[c] |= 1 << s;
    }
    let shape = |c: usize| slots[firsts[c]].space.shape();

    let master = snet.master_schema().attrs();
    let attr_sizes: Vec<usize> = master.iter().map(|a| a.wire_size()).collect();
    // Per slot: every node's local view of the query, the cells built once
    // per class.
    let mut tables: Vec<NodeTable> = Vec::with_capacity(k);
    for (s, slot) in slots.iter().enumerate() {
        let first = firsts[class_of[s]];
        tables.push(if first == s {
            NodeTable::build(snet, slot.query, slot.space, repr)
        } else {
            NodeTable::with_cells(snet, slot.query, slot.space, tables[first].cells())
        });
        #[cfg(debug_assertions)]
        if first != s {
            let own = NodeTable::build(snet, slot.query, slot.space, repr);
            assert!(
                own.cells() == tables[first].cells(),
                "slots {first} and {s} share a collection class but not their cells"
            );
        }
    }
    let cells: Vec<&CellTable> = firsts.iter().map(|&s| &**tables[s].cells()).collect();
    let rec = |s: usize, v: NodeId| tables[s].rec(v);

    // Wire size of node `v`'s tuple across the slots in `mask`: the union
    // of their referenced attributes, deduplicated by master column. For a
    // single slot that is the slot's own tuple size.
    let mut cols = vec![0u64; attr_sizes.len().div_ceil(64)];
    let mut union_bytes = |v: NodeId, mask: u64| -> usize {
        if mask.is_power_of_two() {
            return rec(mask.trailing_zeros() as usize, v).bytes as usize;
        }
        cols.fill(0);
        for s in (0..k).filter(|s| mask >> s & 1 == 1) {
            let referenced = tables[s].columns_of(rec(s, v).flags);
            for (word, more) in cols.iter_mut().zip(referenced) {
                *word |= more;
            }
        }
        columns(&cols).map(|c| attr_sizes[c]).sum()
    };
    // The slots node `v` has a tuple for: those of the classes it has a
    // cell in.
    let member_mask = |v: NodeId| -> u64 {
        let with_cell = members
            .iter()
            .zip(&cells)
            .filter(|(_, c)| c.tuple(v).is_some());
        with_cell.fold(0, |m, (&slots, _)| m | slots)
    };
    // Adds to a message's per-slot sums what the slots in `mask` would each
    // pay for node `v`'s tuple (nothing to keep at k = 1).
    let add_solo = |solo: &mut Vec<u64>, v: NodeId, mask: u64| {
        solo.resize(if k == 1 { 0 } else { k }, 0);
        for (s, sum) in solo.iter_mut().enumerate() {
            if mask >> s & 1 == 1 {
                *sum += u64::from(rec(s, v).bytes);
            }
        }
    };
    let contributes = |v: NodeId| member_mask(v) != 0;
    // A single query's final tuples need no membership annotation.
    let mask_bytes = if k == 1 { 0 } else { k.div_ceil(8) };

    // ---- Churn boundary 0 (pre-start) ----
    // Nodes that leave before the query starts simply never participate;
    // nothing needs reconciling. `p0` is the participated-at-start set —
    // the population the completeness guarantee is measured against.
    let churn = poll_churn && snet.net().has_churn();
    let mut churned = false;
    let p0 = if churn {
        churn_boundary(snet, 0, |_, _| {});
        live_attached(snet.net())
    } else {
        Vec::new()
    };

    // Where a node's entries of `nodes` and `kept` live.
    let slot_of = Arc::clone(snet.net().topology().slot_of());
    let at = |v: NodeId| slot_of[v.0 as usize] as usize;
    let mut nodes = Nodes::new(Arc::clone(&slot_of), k, firsts.len());
    let mut solo = vec![SoloCost::default(); k];

    // ---- Phase 1: Join-Attribute-Collection (Fig. 2) ----
    // One up-wave. Treecut is decided on the union tuple size, so a subtree
    // cheap for *all* slots together exits the epoch entirely.
    let lossy = snet.net().lossy();
    // Treecut handoffs `(own, proxied)`, retained while the lossy channel
    // can still eat the message: restored if the handoff is reported
    // damaged, so the data survives at exactly one place.
    let mut kept: Vec<Option<(bool, Vec<NodeId>)>> = vec![None; if lossy { n } else { 0 }];
    let (base_msg, rep1) = up_wave(
        snet.net_mut(),
        &|_| true,
        |v, received: Drain<UpMsg>| {
            let vi = at(v);
            // The first message of a kind is the accumulator the rest are
            // merged into (Fig. 2 line 10): a lone structure is taken as it
            // is, with the sizes its sender computed.
            let mut sets: Option<Vec<JoinAttrMsg>> = None;
            let fulls = received
                .into_iter()
                .filter_map(|msg| match (msg, &mut sets) {
                    (UpMsg::Full(full), _) => Some(full),
                    (UpMsg::Attrs(first), None) => {
                        sets = Some(first);
                        None
                    }
                    (UpMsg::Attrs(more), Some(sets)) => {
                        for (ja, other) in sets.iter_mut().zip(&more) {
                            ja.merge(other);
                        }
                        None
                    }
                });
            let mut fulls = Shipment::merged(fulls);
            let own = member_mask(v);
            let own_bytes = union_bytes(v, own);
            let treecut =
                v != base && cfg.dmax > 0 && sets.is_none() && fulls.bytes + own_bytes <= cfg.dmax;
            if treecut {
                // Hand the complete tuples to the parent and exit the query
                // (Fig. 2 lines 14-18).
                if lossy {
                    kept[vi] = Some((own != 0, fulls.entries.clone()));
                }
                if own != 0 {
                    fulls.entries.push(v);
                    fulls.bytes += own_bytes;
                    add_solo(&mut fulls.solo, v, own);
                }
                return UpMsg::Full(fulls);
            }
            nodes.active[vi] = true;
            let mut sets = sets.unwrap_or_else(|| vec![JoinAttrMsg::new(repr); cells.len()]);
            // Memorize the subtree's cells for Selective Filter Forwarding —
            // the *received* ones only (Fig. 2 line 21; own and proxied
            // tuples are checked directly against the incoming filter
            // later), per class under its own memory-cap check. The stored
            // form is always the compact quadtree; the base station is
            // powered and ignores the cap.
            if cfg.selective_forwarding {
                let memorized = &mut nodes.subtree_atts[vi * cells.len()..];
                for (c, (ja, memo)) in sets.iter_mut().zip(memorized).enumerate() {
                    if v == base || ja.set.wire_size(shape(c)) <= cfg.filter_memory_limit {
                        *memo = Some(PointSet::clone(&ja.set));
                    }
                }
            }
            // Act as proxy for received complete tuples (line 20) and fold
            // their — and the node's own — projections in (line 22).
            nodes.own[vi] = own != 0;
            for &u in fulls.entries.iter().chain(nodes.own[vi].then_some(&v)) {
                for (ja, cells) in sets.iter_mut().zip(&cells) {
                    if let Some((z, flags)) = cells.tuple(u) {
                        ja.insert(z, flags, cells.coords(u));
                    }
                }
            }
            nodes.proxy[vi] = fulls.entries;
            UpMsg::Attrs(sets)
        },
        |m| match m {
            UpMsg::Full(full) => {
                #[cfg(test)]
                tests::check_solo(&tables, full, |&u| (u, u64::MAX));
                for (cost, bytes) in solo.iter_mut().zip(full.solo_bytes()) {
                    cost.collection_bytes += bytes;
                }
                full.bytes
            }
            UpMsg::Attrs(sets) => {
                // Each slot alone would send its class's structure (at most
                // one class per slot, and at most 64 slots).
                let mut bytes = [0usize; 64];
                for (c, ja) in sets.iter_mut().enumerate() {
                    bytes[c] = ja.wire_size(repr, shape(c));
                }
                for (cost, &c) in solo.iter_mut().zip(&class_of) {
                    cost.collection_bytes += bytes[c] as u64;
                }
                if repr == Representation::Quadtree {
                    let present: Vec<_> = (class_of.iter().enumerate())
                        .map(|(s, &c)| (s, &*sets[c].set, bytes[c]))
                        .collect();
                    merged_wire_size(&present, &spaces, slots)
                } else {
                    class_of.iter().map(|&c| bytes[c]).sum()
                }
            }
        },
        PHASE_COLLECTION,
    );

    // ---- Collection-damage fallback ----
    // A node whose collection message was permanently lost re-enters the
    // query in pass-through mode (its handoff is restored if it had
    // treecut), and its ancestor chain is re-activated. Because the base's
    // view of the join attributes is now incomplete, *any* filter it
    // computed could wrongly prune other subtrees — the dissemination phase
    // therefore degrades to an explicit conservative PassThrough order for
    // everyone (results stay exact; only the filter savings are lost).
    let collection_damaged = !rep1.damaged.is_empty();
    for &v in &rep1.damaged {
        let vi = at(v);
        nodes.conservative(v);
        if let Some((own, proxy)) = kept[vi].take() {
            nodes.own[vi] = own;
            nodes.proxy[vi] = proxy;
        }
        nodes.close_to_root(snet.net().routing(), v);
    }

    // ---- Churn boundary 1 (after collection) ----
    // A node dying here takes its proxied tuples down with it: proxy
    // re-election restores each at its (surviving) origin, dead origins'
    // tuples are dropped everywhere, and the subtree the repair machinery
    // re-homed switches to pass-through.
    churned |= churn
        && churn_boundary(snet, rep1.timing.pipelined, |out, snet| {
            nodes.reconcile_churn(out, snet.net(), contributes, &p0);
        });

    // ---- Base station: conservative pre-join (step 1a), per slot ----
    let UpMsg::Attrs(collected) = base_msg else {
        unreachable!("base never applies Treecut")
    };
    // The wire carried every slot's full cell population, so the filter is
    // the batch semi-join over it; nothing is kept for the next epoch.
    let filters: Vec<SizedSet> = (slots.iter().zip(&class_of))
        .map(|(slot, &c)| SizedSet::new(prejoin_filter(slot.query, slot.space, &collected[c].set)))
        .collect();

    // ---- Phase 2: Filter-Dissemination (Fig. 3) ----
    // On a lossy network every message carries a one-byte tag to tell a
    // real filter from a PassThrough order; lossless runs pay nothing. The
    // filter always travels in the compact quadtree form (the §VI-B
    // representation knob only varies the collection step).
    let tag = usize::from(lossy);
    let rep2 = down_wave(
        snet.net_mut(),
        &|v| nodes.active[at(v)],
        |v, arrival: DownArrival<'_, FilterMsg>| {
            let vi = at(v);
            let incoming: Vec<Option<&SizedSet>> = match arrival {
                DownArrival::Origin if !collection_damaged => filters.iter().map(Some).collect(),
                DownArrival::Intact(FilterMsg::Filter(f)) => {
                    for (mine, got) in nodes.received[vi * k..].iter_mut().zip(f) {
                        *mine = got.as_deref().cloned();
                    }
                    f.iter().map(Option::as_ref).collect()
                }
                // The base orders global pass-through, an explicit
                // PassThrough order arrived, or the channel ate this node's
                // filter copy: either way the node must not prune and must
                // ship everything (missing filter = pass-through, never
                // drop a real result).
                DownArrival::Origin
                | DownArrival::Intact(FilterMsg::PassThrough)
                | DownArrival::Damaged => {
                    nodes.passthrough[vi] = true;
                    return Some(FilterMsg::PassThrough);
                }
            };
            let mut out: Vec<Option<SizedSet>> = vec![None; k];
            for (s, inc) in incoming.into_iter().enumerate() {
                let Some(inc) = inc else { continue };
                out[s] = match &nodes.subtree_atts[vi * cells.len() + class_of[s]] {
                    Some(atts) => {
                        let pruned = inc.intersect(atts);
                        (!pruned.is_empty()).then(|| SizedSet::new(pruned))
                    }
                    // Nothing memorized (the flooding ablation, over the
                    // memory cap, or a relay re-activated after damage):
                    // cannot prune, forward as-is.
                    None => Some(inc.clone()),
                };
            }
            out.iter()
                .any(Option::is_some)
                .then_some(FilterMsg::Filter(out))
        },
        |m| match m {
            FilterMsg::Filter(sets) => {
                let present: Vec<_> = sets
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(s, set)| {
                        let set = set.as_mut()?;
                        let bytes = set.wire_size(slots[s].space.shape());
                        Some((s, &**set, bytes))
                    })
                    .collect();
                for &(s, _, bytes) in &present {
                    solo[s].filter_bytes += bytes as u64;
                }
                tag + merged_wire_size(&present, &spaces, slots)
            }
            FilterMsg::PassThrough => 1,
        },
        PHASE_FILTER,
    );
    debug_assert!(lossy || rep2.is_lossless());

    // ---- Churn boundary 2 (after filter dissemination) ----
    // The stale filter stays sound: it was computed over a superset of the
    // surviving population, and a superset filter never prunes a tuple that
    // still joins. Only re-homed nodes must ignore it.
    churned |= churn
        && churn_boundary(snet, rep2.timing.pipelined, |out, snet| {
            nodes.reconcile_churn(out, snet.net(), contributes, &p0);
        });

    // ---- Phase 3: Final-Result-Computation (§IV-D) ----
    // A node's tuple ships once, with a mask of the slots whose received
    // filter it matched; the wire charges the union of those slots'
    // referenced attributes plus the mask.
    let (mut shipped, rep3) = up_wave(
        snet.net_mut(),
        &|v| nodes.active[at(v)],
        |v, inbox: Drain<Batch>| {
            let vi = at(v);
            let mut out = Batch::merged(inbox);
            let received = &nodes.received[vi * k..(vi + 1) * k];
            let held = nodes.own[vi].then_some(v).into_iter();
            for u in held.chain(nodes.proxy[vi].iter().copied()) {
                // Base-held tuples are already at their destination
                // (attached free of charge); a pass-through node ships
                // everything; anyone else what its filters match.
                let mask = if v == base || nodes.passthrough[vi] {
                    member_mask(u)
                } else {
                    let matches = |&s: &usize| {
                        let (f, rec) = (&received[s], rec(s, u));
                        f.as_ref()
                            .is_some_and(|f| f.contains_matching(rec.z, rec.flags))
                    };
                    (0..k).filter(matches).fold(0, |m, s| m | 1 << s)
                };
                if mask != 0 {
                    if v != base {
                        out.bytes += union_bytes(u, mask) + mask_bytes;
                        add_solo(&mut out.solo, u, mask);
                    }
                    out.entries.push((u, mask));
                }
            }
            out
        },
        // Like the collection phase, solo-equivalent bytes are charged per
        // link: an entry's per-slot payload is paid again on every hop it
        // is forwarded, exactly as an unshared final up-wave would.
        |b| {
            #[cfg(test)]
            tests::check_solo(&tables, b, |&entry| entry);
            for (cost, bytes) in solo.iter_mut().zip(b.solo_bytes()) {
                cost.final_bytes += bytes;
            }
            b.bytes
        },
        PHASE_FINAL,
    );

    // ---- Liveness sweep (base side) ----
    // Tuples can reach the base from origins that fell out of the
    // contributing set mid-epoch (e.g. a proxy shipped a tuple whose origin
    // is now orphaned). The base knows the final liveness picture and
    // projects the result onto the surviving population: origins that
    // participated at start and are alive and attached at the end. Hence
    // the honest `complete`: a mid-epoch death means the answer is exact
    // only over the survivors, not over the start population.
    let mut complete = rep3.damaged.is_empty();
    if churn {
        let end = live_attached(snet.net());
        // Absent subtrees in the final wave are exactly the dead or
        // detached participants — no live attached node is skipped.
        debug_assert!(rep3.absent.iter().all(|&v| !end[v.0 as usize]));
        shipped
            .entries
            .retain(|&(u, _)| end[u.0 as usize] && p0[u.0 as usize]);
        complete &= p0.iter().zip(&end).all(|(&start, &end)| !start || end);
    }

    // ---- Exact joins over the shipped tuples, per slot ----
    // Each slot joins the tuples whose mask names it, in arrival order,
    // projected from the origins' readings onto each member relation.
    let joins = slots
        .iter()
        .enumerate()
        .map(|(s, slot)| {
            let mine = shipped
                .entries
                .iter()
                .filter(|(_, mask)| mask >> s & 1 == 1);
            join(
                slot.query,
                &tables[s].tuples_per_rel(snet, mine.map(|&(u, _)| u)),
            )
        })
        .collect();

    EpochRun {
        joins,
        solo,
        timing: rep1.timing.then(rep2.timing).then(rep3.timing),
        complete,
        churned,
    }
}

/// Two spaces with equal signatures assign every value the same cell
/// coordinates and quadtree shape, so their point sets can share one wire
/// encoding.
type SpaceSig = (Vec<(String, u64, u64, u64)>, u8);

/// Per slot: the first slot whose space signature equals its own — a class
/// id, computed once an epoch, so a message compares two integers where it
/// compared two signatures.
fn space_classes(slots: &[Slot<'_>]) -> Vec<usize> {
    let sigs: Vec<SpaceSig> = slots.iter().map(|s| space_signature(s.space)).collect();
    sigs.iter()
        .map(|sig| sigs.iter().position(|s| s == sig).expect("equals itself"))
        .collect()
}

fn space_signature(space: &JoinSpace) -> SpaceSig {
    let dims = space
        .zspace()
        .dims()
        .iter()
        .map(|d| {
            (
                d.name().to_owned(),
                d.min().to_bits(),
                d.max().to_bits(),
                d.resolution().to_bits(),
            )
        })
        .collect();
    (dims, space.shape().flag_bits())
}

/// Per slot: its collection class, numbered in order of first member; and
/// per class: its first member. Two slots are of one class when their
/// spaces have one signature ([`space_classes`]) and their queries read the
/// same of every node ([`NodeTable::cell_key`]): their nodes' cells, flags
/// and coordinates are then equal, which debug builds check.
fn collection_classes(
    snet: &SensorNetwork,
    slots: &[Slot<'_>],
    spaces: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let keys: Vec<_> = (slots.iter().zip(spaces))
        .map(|(slot, &space)| (space, NodeTable::cell_key(snet, slot.query, slot.space)))
        .collect();
    let mut firsts: Vec<usize> = Vec::new();
    let mut class_of = Vec::with_capacity(slots.len());
    for (s, key) in keys.iter().enumerate() {
        class_of.push(match firsts.iter().position(|&f| keys[f] == *key) {
            Some(c) => c,
            None => {
                firsts.push(s);
                firsts.len() - 1
            }
        });
    }
    (class_of, firsts)
}

/// Wire size of a merged multi-slot payload, given each present slot's set
/// and what it costs encoded on its own: slots of one signature class
/// ([`space_classes`]) are encoded as one union quadtree plus, per member, a
/// cell-presence bitmap and one byte per cell whose flags diverge from the
/// union's. When the member sets diverge so much that merging doesn't pay,
/// the sender falls back to concatenating the individual encodings, so a
/// merged message never costs more than its unshared parts — and a
/// single-slot message costs exactly its solo encoding.
///
/// Members that are one set — the slots of a collection class — are merged
/// once: the union and every distinct set's divergence come from one merge
/// pass ([`union_and_divergence`]), and a class whose members are all one
/// set is its own union, with no divergence.
fn merged_wire_size(
    present: &[(usize, &PointSet, usize)],
    classes: &[usize],
    slots: &[Slot<'_>],
) -> usize {
    // A message carries at most one set per slot: the sizing allocates
    // nothing of its own unless a class holds distinct sets.
    assert!(present.len() <= 64, "at most 64 slots");
    let mut total = 0usize;
    let mut used = 0u64;
    // Of the signature class being sized: its distinct sets (as the first
    // member that sends each), and how many members send each.
    let (mut distinct, mut copies) = ([0usize; 64], [0usize; 64]);
    for i in 0..present.len() {
        if used >> i & 1 == 1 {
            continue;
        }
        let (slot_i, set_i, bytes_i) = present[i];
        let (mut separate, mut sets) = (0, 0);
        for (j, &(slot_j, set_j, bytes_j)) in present.iter().enumerate().skip(i) {
            if used >> j & 1 == 1 || classes[slot_j] != classes[slot_i] {
                continue;
            }
            used |= 1 << j;
            separate += bytes_j;
            match (distinct[..sets].iter()).position(|&d| std::ptr::eq(present[d].1, set_j)) {
                Some(d) => copies[d] += 1,
                None => {
                    (distinct[sets], copies[sets]) = (j, 1);
                    sets += 1;
                }
            }
        }
        if copies[..sets] == [1] {
            total += separate;
            continue;
        }
        let bitmap_of = |union: &PointSet| union.len().div_ceil(8);
        let (distinct, copies) = (&distinct[..sets], &copies[..sets]);
        let merged = if sets == 1 {
            bytes_i + copies[0] * bitmap_of(set_i)
        } else {
            let distinct: Vec<&[Point]> = distinct.iter().map(|&d| present[d].1.points()).collect();
            let (union, diverging) = union_and_divergence(&distinct);
            // Members that send equal sets (a filter that prunes alike for
            // two plans) make the union the first member, already sized.
            let mut merged = if diverging[0] == 0 {
                bytes_i
            } else {
                encoded_wire_size(&union, slots[slot_i].space.shape())
            };
            for (&diverging, &copies) in diverging.iter().zip(copies) {
                merged += copies * (bitmap_of(&union) + diverging);
            }
            merged
        };
        total += merged.min(separate);
    }
    total
}

/// The union of `sets` and, per set, how many of the union's points it
/// does not hold with the union's flags, from one k-way [`merge_k`] over
/// their z-sorted points: O(sets · |union|), and the union is the one
/// allocation that grows with the sets.
fn union_and_divergence(sets: &[&[Point]]) -> (PointSet, Vec<usize>) {
    let mut diverging = vec![0usize; sets.len()];
    let widest = sets.iter().map(|set| set.len()).max().unwrap_or(0);
    let mut union: Vec<Point> = Vec::with_capacity(widest);
    merge_k(sets, |z, heads| {
        let own = |head: &Option<&Point>| head.map_or(RelFlags(0), |p| p.flags);
        let flags = heads
            .iter()
            .fold(RelFlags(0), |all, head| all.or(own(head)));
        for (head, diverging) in heads.iter().zip(&mut diverging) {
            *diverging += usize::from(own(head) != flags);
        }
        union.push(Point { z, flags });
    });
    (PointSet::from_sorted(union), diverging)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snetwork::SensorNetworkBuilder;
    use crate::{JoinMethod, QueryGroup, SensJoin};
    use proptest::prelude::*;
    use sensjoin_field::{Area, Placement};
    use sensjoin_query::parse;
    use sensjoin_sim::{ArqPolicy, Channel, ChurnAction, ChurnTimeline};
    use std::cell::Cell;

    thread_local! {
        /// Messages [`check_solo`] has checked on this thread.
        static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// The metering oracle, run on every tuple-carrying message of every
    /// epoch a unit test of this crate executes: what each slot alone would
    /// pay for the message, recomputed per tuple from the slots' tables (the
    /// loop `size_of` ran before messages carried their sums), equals the
    /// sums the message carries. `entry` gives an entry's origin and the
    /// mask of the slots it ships for.
    pub(super) fn check_solo<E>(
        tables: &[NodeTable],
        msg: &Shipment<E>,
        entry: impl Fn(&E) -> (NodeId, u64),
    ) {
        let mut per_slot = vec![0u64; tables.len()];
        for (u, mask) in msg.entries.iter().map(entry) {
            for (s, table) in tables.iter().enumerate() {
                if mask >> s & 1 == 1 {
                    per_slot[s] += table.tuple(u).map_or(0, |rec| u64::from(rec.bytes));
                }
            }
        }
        assert_eq!(msg.solo_bytes().collect::<Vec<_>>(), per_slot);
        CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// `k` pairwise distinct queries from three templates that reference
    /// different attribute sets.
    fn mixed_templates(k: usize) -> Vec<String> {
        (0..k)
            .map(|i| {
                let step = (i / 3) as f64;
                let (select, pred) = match i % 3 {
                    0 => (
                        "A.hum, B.hum",
                        format!("A.temp - B.temp > {}", 1.0 + 0.05 * step),
                    ),
                    1 => (
                        "A.pres, B.temp",
                        format!("|A.hum - B.hum| < {}", 0.2 + 0.02 * step),
                    ),
                    _ => (
                        "A.light",
                        format!("A.pres - B.pres > {}", 0.5 + 0.05 * step),
                    ),
                };
                format!("SELECT {select} FROM Sensors A, Sensors B WHERE {pred} SAMPLE PERIOD 30")
            })
            .collect()
    }

    #[test]
    fn carried_solo_sums_equal_the_per_tuple_recomputation() {
        for k in [1, 3, 64] {
            let mut snet = SensorNetworkBuilder::new()
                .area(Area::new(400.0, 400.0))
                .placement(Placement::UniformRandom { n: 130 })
                .seed(k as u64)
                .build()
                .unwrap();
            snet.net_mut()
                .set_channel(Some(Channel::bernoulli(0.12, 5)));
            snet.net_mut().set_arq(ArqPolicy::ack(2));
            let base = snet.base();
            let victims = snet.net().routing().children(base).to_vec();
            let mut churn = ChurnTimeline::new();
            for (i, &v) in victims.iter().take(3).enumerate() {
                churn = churn
                    .at_boundary(1 + i as u32, v, ChurnAction::Crash)
                    .at_boundary(3 + i as u32, v, ChurnAction::Revive);
            }
            snet.net_mut().set_churn(Some(churn));
            let queries: Vec<CompiledQuery> = mixed_templates(k)
                .iter()
                .map(|sql| snet.compile(&parse(sql).unwrap()).unwrap())
                .collect();
            let before = CHECKED.with(Cell::get);
            // Mid-epoch churn boundaries (a one-shot polls them) ...
            if k == 1 {
                SensJoin::default().execute(&mut snet, &queries[0]).unwrap();
            }
            // ... and between-epoch ones, with loss throughout.
            let mut group = QueryGroup::new(SensJoinConfig::default());
            for q in &queries {
                group.register(&snet, q.clone(), 1);
            }
            let mut forwarded = 0;
            for _ in 0..5 {
                let report = group.execute_epoch(&mut snet).unwrap();
                assert_eq!(report.plans, k);
                forwarded += report
                    .solo_equivalent
                    .iter()
                    .map(|c| c.final_bytes)
                    .sum::<u64>();
            }
            assert!(forwarded > 0, "k = {k}: no final tuple was ever forwarded");
            let checked = CHECKED.with(Cell::get) - before;
            assert!(checked > 200, "k = {k}: only {checked} messages checked");
        }
    }

    /// [`merged_wire_size`] as it was written before the one-pass merge: a
    /// union per additional member of a signature class, and a `flags_of`
    /// search per union point and member. The oracle of
    /// `one_merge_pass_sizes_what_successive_unions_did`.
    fn merged_wire_size_by_unions(
        present: &[(usize, &PointSet, usize)],
        classes: &[usize],
        slots: &[Slot<'_>],
    ) -> usize {
        let mut total = 0usize;
        let mut used = vec![false; present.len()];
        for i in 0..present.len() {
            if used[i] {
                continue;
            }
            used[i] = true;
            let (slot_i, set_i, bytes_i) = present[i];
            let mut members: Vec<&PointSet> = vec![set_i];
            let mut separate = bytes_i;
            for j in i + 1..present.len() {
                let (slot_j, set_j, bytes_j) = present[j];
                if !used[j] && classes[slot_j] == classes[slot_i] {
                    used[j] = true;
                    members.push(set_j);
                    separate += bytes_j;
                }
            }
            if members.len() == 1 {
                total += separate;
            } else {
                let mut union = PointSet::new();
                for m in &members {
                    union = union.union(m);
                }
                let mut merged = if union == *set_i {
                    bytes_i
                } else {
                    encoded_wire_size(&union, slots[slot_i].space.shape())
                };
                let bitmap = union.len().div_ceil(8);
                for m in &members {
                    let diverging = union
                        .iter()
                        .filter(|p| m.flags_of(p.z).map_or(0, |f| f.0) != p.flags.0)
                        .count();
                    merged += bitmap + diverging;
                }
                total += merged.min(separate);
            }
        }
        total
    }

    /// Two queries over one network whose spaces differ (temperature and
    /// humidity cells), with the spaces.
    fn two_spaces() -> (Vec<CompiledQuery>, Vec<JoinSpace>) {
        let snet = SensorNetworkBuilder::new()
            .area(Area::new(300.0, 300.0))
            .placement(Placement::UniformRandom { n: 60 })
            .seed(5)
            .build()
            .unwrap();
        let queries: Vec<CompiledQuery> = ["A.temp - B.temp > 1", "A.hum - B.hum > 1"]
            .iter()
            .map(|pred| {
                let sql = format!("SELECT A.light FROM Sensors A, Sensors B WHERE {pred} ONCE");
                snet.compile(&parse(&sql).unwrap()).unwrap()
            })
            .collect();
        let config = SensJoinConfig::default();
        let spaces = queries
            .iter()
            .map(|q| JoinSpace::build(q, &snet, &config))
            .collect();
        (queries, spaces)
    }

    /// Points on cells `shift..shift + half` with flags A, B or both.
    fn point_set(points: &[(u64, u8)], shift: u64, half: u64) -> PointSet {
        let point = |&(z, f): &(u64, u8)| Point {
            z: z % half + shift,
            flags: RelFlags(f),
        };
        PointSet::from_points(points.iter().map(point))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-pass merge sizes every payload exactly as successive
        /// unions did: members that are one set (a collection class's
        /// slots), equal copies, nested, disjoint, flag-diverging and
        /// overlapping sets, in one signature class or spread over two.
        #[test]
        fn one_merge_pass_sizes_what_successive_unions_did(
            base in prop::collection::vec((0u64..48, 1u8..4), 0..40),
            other in prop::collection::vec((0u64..48, 1u8..4), 0..40),
            // Kinds 0 and 6 up are the shared set itself: most cases hold
            // a signature class whose members are all one set.
            members in prop::collection::vec((0u8..10, 0usize..2), 1..12),
        ) {
            let (queries, spaces) = two_spaces();
            let bits = spaces.iter().map(|s| s.shape().z_bits()).min().unwrap();
            prop_assert!(bits >= 4, "premise: {} bits hold the cells", bits);
            // The lower half of both spaces' cells, and the upper for sets
            // disjoint from them.
            let half = 1 << (bits - 1);
            let slots: Vec<Slot<'_>> = members
                .iter()
                .map(|&(_, sig)| Slot { query: &queries[sig], space: &spaces[sig] })
                .collect();
            let classes = space_classes(&slots);
            let shared = point_set(&base, 0, half);
            let flipped: Vec<(u64, u8)> =
                base.iter().map(|&(z, f)| (z, if f == 3 { 1 } else { f ^ 3 })).collect();
            let sets: Vec<PointSet> = members
                .iter()
                .map(|&(kind, _)| match kind {
                    1 => shared.clone(),
                    2 => point_set(&base.iter().copied().step_by(2).collect::<Vec<_>>(), 0, half),
                    3 => point_set(&other, half, half),
                    4 => point_set(&flipped, 0, half),
                    5 => point_set(&other, 0, half),
                    _ => PointSet::new(), // unused: the shared set itself
                })
                .collect();
            let present: Vec<(usize, &PointSet, usize)> = members
                .iter()
                .enumerate()
                .map(|(s, &(kind, _))| {
                    let identical = kind == 0 || kind >= 6;
                    let set = if identical { &shared } else { &sets[s] };
                    (s, set, encoded_wire_size(set, slots[s].space.shape()))
                })
                .collect();
            prop_assert_eq!(
                merged_wire_size(&present, &classes, &slots),
                merged_wire_size_by_unions(&present, &classes, &slots)
            );
        }
    }
}
