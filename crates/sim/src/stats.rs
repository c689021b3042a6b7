//! Per-node and per-phase communication statistics.

use sensjoin_relation::NodeId;
use std::sync::Arc;

/// Counters of one node.
///
/// `tx_packets` / `tx_bytes` count *first-attempt data fragments only* — the
/// paper's primary metric, which stays invariant under packet loss.
/// Reliability traffic lives in the dedicated retransmit / ack counters and
/// everything (including control-frame receptions) is charged into
/// `energy_uj`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Data packets transmitted (first attempts).
    pub tx_packets: u64,
    /// Application payload bytes transmitted (first attempts).
    pub tx_bytes: u64,
    /// Data packets received (decoded copies; duplicates excluded).
    pub rx_packets: u64,
    /// Application payload bytes received.
    pub rx_bytes: u64,
    /// Data-fragment retransmissions performed by the ARQ layer.
    pub retx_packets: u64,
    /// Payload bytes retransmitted by the ARQ layer.
    pub retx_bytes: u64,
    /// ACK / summary control frames transmitted.
    pub ack_packets: u64,
    /// ACK / summary payload bytes transmitted.
    pub ack_bytes: u64,
    /// Data fragments addressed to this node that were permanently lost
    /// (never delivered within the retry budget).
    pub lost_packets: u64,
    /// Crash-stop deaths of this node (exogenous churn or battery
    /// exhaustion; a node that revives and dies again counts twice).
    pub deaths: u64,
    /// Energy spent (µJ), transmission + reception, including all
    /// reliability traffic.
    pub energy_uj: f64,
}

/// Counters that nothing was charged to: what every node of unlaid
/// statistics reads as.
static ZERO: NodeStats = NodeStats {
    tx_packets: 0,
    tx_bytes: 0,
    rx_packets: 0,
    rx_bytes: 0,
    retx_packets: 0,
    retx_bytes: 0,
    ack_packets: 0,
    ack_bytes: 0,
    lost_packets: 0,
    deaths: 0,
    energy_uj: 0.0,
};

impl NodeStats {
    /// Reliability overhead bytes (retransmissions + control frames).
    pub fn overhead_bytes(&self) -> u64 {
        self.retx_bytes + self.ack_bytes
    }

    /// Total bytes put on the air: data + retransmissions + control.
    pub fn cost_bytes(&self) -> u64 {
        self.tx_bytes + self.overhead_bytes()
    }

    fn add(&mut self, other: &NodeStats) {
        self.tx_packets += other.tx_packets;
        self.tx_bytes += other.tx_bytes;
        self.rx_packets += other.rx_packets;
        self.rx_bytes += other.rx_bytes;
        self.retx_packets += other.retx_packets;
        self.retx_bytes += other.retx_bytes;
        self.ack_packets += other.ack_packets;
        self.ack_bytes += other.ack_bytes;
        self.lost_packets += other.lost_packets;
        self.deaths += other.deaths;
        self.energy_uj += other.energy_uj;
    }
}

/// An interned phase label: an index into one [`NetworkStats`]' dense
/// per-phase table, obtained from [`NetworkStats::intern`]. Charging by id
/// keeps strings (and their allocation and comparison) off the per-packet
/// path; an id is only meaningful for the statistics object that issued it
/// (and its clones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseId(u16);

/// One row of the per-phase table.
#[derive(Debug, Clone)]
struct PhaseEntry {
    label: String,
    stats: NodeStats,
    /// Whether anything was ever charged under the label. Interning alone
    /// (a wave that moved no bytes) must not make a phase appear in
    /// [`NetworkStats::phases`].
    charged: bool,
}

/// Aggregated statistics of a protocol execution.
///
/// Phases are free-form labels (`"collection"`, `"filter"`, ...) so the cost
/// breakdown of Fig. 15 can be produced directly. Labels are interned into
/// [`PhaseId`]s once per message or wave; the `record_*` methods index a
/// dense table and never touch a string.
///
/// The per-node counters are stored in a fixed permutation of the node ids
/// — a network's are in its topology's storage order
/// ([`crate::Topology::slot_of`]), so the counters of radio neighbors share
/// cache lines — and everything observable is by id: accessors take a
/// [`NodeId`], exports and the float total iterate in id order, and two
/// objects combine whatever order each is in.
///
/// The per-node array is laid out by the first charge: counters a network
/// hands over at the end of a round ([`crate::Network::take_stats`]) leave
/// behind counters of no array, which read as zero everywhere, clone and
/// reset for nothing, and cost a checkpoint no per-node bytes.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Node `v`'s counters are `per_node[slot_of[v]]`. Shared with whoever
    /// fixed the order, so a clone copies the counters and nothing else.
    slot_of: Arc<[u32]>,
    /// Either one entry per node or, until the first charge lays it out,
    /// none: every node's counters are then zero.
    per_node: Vec<NodeStats>,
    /// Indexed by [`PhaseId`], in interning order.
    phases: Vec<PhaseEntry>,
}

impl NetworkStats {
    /// Creates zeroed statistics for `n` nodes, stored in id order.
    pub fn new(n: usize) -> Self {
        Self::in_order((0..n as u32).collect())
    }

    /// Zeroed statistics stored in the order `slot_of` (a permutation of
    /// the node ids).
    pub(crate) fn in_order(slot_of: Arc<[u32]>) -> Self {
        let mut stats = Self::unlaid(slot_of);
        stats.lay_out();
        stats
    }

    /// Zeroed statistics stored in the order `slot_of`, without their
    /// per-node array: the first charge lays it out.
    pub(crate) fn unlaid(slot_of: Arc<[u32]>) -> Self {
        Self {
            slot_of,
            per_node: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Lays out the zeroed per-node array of unlaid statistics.
    #[cold]
    #[inline(never)]
    fn lay_out(&mut self) {
        self.per_node = vec![NodeStats::default(); self.slot_of.len()];
    }

    /// Whether the per-node array is laid out (always, with no nodes).
    fn is_laid(&self) -> bool {
        self.per_node.len() == self.slot_of.len()
    }

    /// Re-lays the counters out in the order `slot_of` (a permutation of
    /// the same node ids): what a network does with statistics that come
    /// from a checkpoint.
    pub(crate) fn adopt_order(&mut self, slot_of: &Arc<[u32]>) {
        assert_eq!(
            slot_of.len(),
            self.slot_of.len(),
            "an order of the same nodes"
        );
        if !self.is_laid() {
            self.slot_of = Arc::clone(slot_of);
            return;
        }
        let mut moved = vec![NodeStats::default(); slot_of.len()];
        for (s, to) in self.per_node().zip(slot_of.iter()) {
            moved[*to as usize] = *s;
        }
        self.per_node = moved;
        self.slot_of = Arc::clone(slot_of);
    }

    /// The order the counters are stored in.
    #[cfg(test)]
    pub(crate) fn order(&self) -> &Arc<[u32]> {
        &self.slot_of
    }

    /// Zeroes every counter and forgets every phase, in place: the state of
    /// a fresh object of the same order, without returning the counters'
    /// memory to the allocator and faulting it back in. Unlaid counters
    /// stay unlaid.
    pub(crate) fn reset(&mut self) {
        self.per_node.fill(NodeStats::default());
        self.phases.clear();
    }

    /// Rebuilds statistics from exported parts — the checkpoint/restore
    /// surface, pairing with [`NetworkStats::per_node`] (so `per_node` is
    /// indexed by node id, and the result is stored in id order) and
    /// [`NetworkStats::phases`]. A label listed twice keeps its last entry.
    pub fn from_parts(per_node: Vec<NodeStats>, per_phase: Vec<(String, NodeStats)>) -> Self {
        let stats = Self {
            slot_of: (0..per_node.len() as u32).collect(),
            per_node,
            phases: Vec::new(),
        };
        stats.with_phases(per_phase)
    }

    /// Rebuilds statistics of `n` nodes, stored in id order, from the
    /// counters of the nodes `nodes` lists — every other node's are zero —
    /// and [`NetworkStats::phases`]: the sparse form of
    /// [`NetworkStats::from_parts`]. A node listed twice keeps its last
    /// entry, like a label does.
    ///
    /// # Panics
    /// Panics on a node id of `n` or more.
    pub fn from_nodes(
        n: usize,
        nodes: impl IntoIterator<Item = (NodeId, NodeStats)>,
        per_phase: Vec<(String, NodeStats)>,
    ) -> Self {
        let mut stats = Self::unlaid((0..n as u32).collect());
        for (v, s) in nodes {
            if !stats.is_laid() {
                stats.lay_out();
            }
            stats.per_node[v.0 as usize] = s;
        }
        stats.with_phases(per_phase)
    }

    /// Charges each `(label, totals)` of `per_phase` as a phase.
    fn with_phases(mut self, per_phase: Vec<(String, NodeStats)>) -> Self {
        for (label, s) in per_phase {
            let id = self.intern(&label);
            let entry = &mut self.phases[usize::from(id.0)];
            entry.stats = s;
            entry.charged = true;
        }
        self
    }

    /// The id of phase `label` in this object's table, adding it if new.
    /// Linear in the number of distinct labels (a handful); allocates only
    /// the first time a label is seen.
    pub fn intern(&mut self, label: &str) -> PhaseId {
        let i = match self.phases.iter().position(|p| p.label == label) {
            Some(i) => i,
            None => {
                self.phases.push(PhaseEntry {
                    label: label.to_owned(),
                    stats: NodeStats::default(),
                    charged: false,
                });
                self.phases.len() - 1
            }
        };
        PhaseId(u16::try_from(i).expect("fewer than 65536 distinct phase labels"))
    }

    /// The label `phase` was interned from.
    pub fn label(&self, phase: PhaseId) -> &str {
        &self.phases[usize::from(phase.0)].label
    }

    /// The two counter sets a charge lands on.
    #[inline]
    fn charge(&mut self, node: NodeId, phase: PhaseId) -> (&mut NodeStats, &mut NodeStats) {
        if self.per_node.is_empty() {
            self.lay_out();
        }
        let entry = &mut self.phases[usize::from(phase.0)];
        entry.charged = true;
        let slot = self.slot_of[node.0 as usize] as usize;
        (&mut self.per_node[slot], &mut entry.stats)
    }

    /// Records one transmitted packet at `node` with `payload` bytes and
    /// energy `uj`, under phase `phase`.
    #[inline]
    pub fn record_tx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        for c in [s, p] {
            c.tx_packets += 1;
            c.tx_bytes += payload as u64;
            c.energy_uj += uj;
        }
    }

    /// Records one received packet at `node`.
    #[inline]
    pub fn record_rx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        for c in [s, p] {
            c.rx_packets += 1;
            c.rx_bytes += payload as u64;
            c.energy_uj += uj;
        }
    }

    /// Records one retransmitted data fragment at `node`.
    pub fn record_retx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        for c in [s, p] {
            c.retx_packets += 1;
            c.retx_bytes += payload as u64;
            c.energy_uj += uj;
        }
    }

    /// Records one transmitted ACK / summary control frame at `node`.
    pub fn record_ack(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        for c in [s, p] {
            c.ack_packets += 1;
            c.ack_bytes += payload as u64;
            c.energy_uj += uj;
        }
    }

    /// Records a permanently lost data fragment addressed to `node`.
    pub fn record_loss(&mut self, node: NodeId, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        s.lost_packets += 1;
        p.lost_packets += 1;
    }

    /// Records one crash-stop death of `node` (exogenous churn or battery
    /// exhaustion).
    pub fn record_death(&mut self, node: NodeId, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        s.deaths += 1;
        p.deaths += 1;
    }

    /// Charges pure energy at `node` (e.g. receiving a control frame or a
    /// duplicate fragment) without touching any packet counter.
    pub fn record_energy(&mut self, node: NodeId, uj: f64, phase: PhaseId) {
        let (s, p) = self.charge(node, phase);
        s.energy_uj += uj;
        p.energy_uj += uj;
    }

    /// Counters of one node.
    pub fn node(&self, node: NodeId) -> &NodeStats {
        let slot = self.slot_of[node.0 as usize] as usize;
        self.per_node.get(slot).unwrap_or(&ZERO)
    }

    /// Every node's counters, in id order — the export (the storage is in
    /// another order, so there is no slice to hand out).
    pub fn per_node(&self) -> impl ExactSizeIterator<Item = &NodeStats> {
        self.slot_of
            .iter()
            .map(|&s| self.per_node.get(s as usize).unwrap_or(&ZERO))
    }

    /// Counters aggregated for a phase label (zeroes if unseen).
    pub fn phase(&self, phase: &str) -> NodeStats {
        self.phases
            .iter()
            .find(|p| p.label == phase)
            .map_or_else(NodeStats::default, |p| p.stats)
    }

    /// Every phase something was charged under, in label order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &NodeStats)> {
        let mut charged: Vec<&PhaseEntry> = self.phases.iter().filter(|p| p.charged).collect();
        charged.sort_by(|a, b| a.label.cmp(&b.label));
        charged.into_iter().map(|p| (p.label.as_str(), &p.stats))
    }

    /// Total packets transmitted network-wide — the paper's primary metric.
    pub fn total_tx_packets(&self) -> u64 {
        self.per_node.iter().map(|s| s.tx_packets).sum()
    }

    /// Total payload bytes transmitted network-wide.
    pub fn total_tx_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.tx_bytes).sum()
    }

    /// Total energy spent network-wide (µJ), summed in id order (a float
    /// sum depends on its order; the storage order must not show).
    pub fn total_energy_uj(&self) -> f64 {
        self.per_node().map(|s| s.energy_uj).sum()
    }

    /// Total data-fragment retransmissions network-wide.
    pub fn total_retx_packets(&self) -> u64 {
        self.per_node.iter().map(|s| s.retx_packets).sum()
    }

    /// Total ACK / summary frames transmitted network-wide.
    pub fn total_ack_packets(&self) -> u64 {
        self.per_node.iter().map(|s| s.ack_packets).sum()
    }

    /// Total reliability overhead bytes (retransmissions + control frames).
    pub fn total_overhead_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.overhead_bytes()).sum()
    }

    /// Total bytes put on the air network-wide: data + retransmissions +
    /// control frames. The honest cost metric when comparing reliability
    /// strategies.
    pub fn total_cost_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.cost_bytes()).sum()
    }

    /// Total permanently lost data fragments network-wide.
    pub fn total_lost_packets(&self) -> u64 {
        self.per_node.iter().map(|s| s.lost_packets).sum()
    }

    /// Total crash-stop deaths network-wide (revive-and-die-again counts
    /// every time).
    pub fn total_deaths(&self) -> u64 {
        self.per_node.iter().map(|s| s.deaths).sum()
    }

    /// The highest per-node transmission count and the node attaining it
    /// (the "most loaded node" of Fig. 11). Returns `None` for empty nets.
    pub fn most_loaded(&self) -> Option<(NodeId, u64)> {
        self.per_node()
            .enumerate()
            .max_by_key(|(i, s)| (s.tx_packets, std::cmp::Reverse(*i)))
            .map(|(i, s)| (NodeId(i as u32), s.tx_packets))
    }

    /// Sums another statistics object into this one (same node count; each
    /// may be stored in its own order).
    pub fn merge(&mut self, other: &NetworkStats) {
        assert_eq!(self.slot_of.len(), other.slot_of.len());
        // Adding zeros to zeros changes nothing; adding them to laid
        // counters still turns a -0.0 energy into +0.0.
        if self.is_laid() || other.is_laid() {
            if !self.is_laid() {
                self.lay_out();
            }
            for (mine, theirs) in self.slot_of.iter().zip(other.per_node()) {
                self.per_node[*mine as usize].add(theirs);
            }
        }
        // The two tables may have interned their labels in different
        // orders: match by label, never by id.
        for theirs in other.phases.iter().filter(|p| p.charged) {
            let id = self.intern(&theirs.label);
            let mine = &mut self.phases[usize::from(id.0)];
            mine.stats.add(&theirs.stats);
            mine.charged = true;
        }
    }
}

/// Accumulated accounting of streaming-ingestion delta batches: the
/// base-station CPU side of the continuous protocol, where each round's
/// tuple deltas update the cached join incrementally instead of recomputing
/// it. `candidates` is the steady-state work metric — it grows with the
/// deltas, not with the relation sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaBatchStats {
    /// Batches applied.
    pub batches: u64,
    /// Stream ops across all batches.
    pub ops: u64,
    /// Tuples inserted.
    pub inserted: u64,
    /// Tuples expired.
    pub expired: u64,
    /// Result rows added.
    pub rows_added: u64,
    /// Result rows removed.
    pub rows_removed: u64,
    /// Candidate bindings examined: by anchored re-enumeration, or once
    /// each by a rejoin.
    pub candidates: u64,
}

impl DeltaBatchStats {
    /// Records one applied batch's counters.
    pub fn record(
        &mut self,
        ops: u64,
        inserted: u64,
        expired: u64,
        rows_added: u64,
        rows_removed: u64,
        candidates: u64,
    ) {
        self.batches += 1;
        self.ops += ops;
        self.inserted += inserted;
        self.expired += expired;
        self.rows_added += rows_added;
        self.rows_removed += rows_removed;
        self.candidates += candidates;
    }

    /// Sums another accumulator into this one.
    pub fn merge(&mut self, other: &DeltaBatchStats) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.inserted += other.inserted;
        self.expired += other.expired;
        self.rows_added += other.rows_added;
        self.rows_removed += other.rows_removed;
        self.candidates += other.candidates;
    }

    /// Mean candidate bindings examined per stream op — the per-delta cost.
    pub fn candidates_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.candidates as f64 / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_totals() {
        let mut s = NetworkStats::new(3);
        let (collect, fin) = (s.intern("collect"), s.intern("final"));
        s.record_tx(NodeId(1), 30, 100.0, collect);
        s.record_tx(NodeId(1), 18, 80.0, fin);
        s.record_rx(NodeId(2), 30, 60.0, collect);
        assert_eq!(s.total_tx_packets(), 2);
        assert_eq!(s.total_tx_bytes(), 48);
        assert_eq!(s.node(NodeId(1)).tx_packets, 2);
        assert_eq!(s.node(NodeId(2)).rx_bytes, 30);
        assert_eq!(s.phase("collect").tx_packets, 1);
        assert_eq!(s.phase("collect").rx_packets, 1);
        assert_eq!(s.phase("nope"), NodeStats::default());
        assert!((s.total_energy_uj() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn reliability_counters() {
        let mut s = NetworkStats::new(2);
        let p = s.intern("p");
        s.record_tx(NodeId(0), 48, 10.0, p);
        s.record_retx(NodeId(0), 48, 10.0, p);
        s.record_ack(NodeId(1), 2, 1.0, p);
        s.record_loss(NodeId(1), p);
        s.record_energy(NodeId(0), 0.5, p);
        assert_eq!(s.total_tx_packets(), 1);
        assert_eq!(s.total_retx_packets(), 1);
        assert_eq!(s.total_ack_packets(), 1);
        assert_eq!(s.total_lost_packets(), 1);
        assert_eq!(s.total_overhead_bytes(), 50);
        assert_eq!(s.total_cost_bytes(), 98);
        assert_eq!(s.phase("p").retx_bytes, 48);
        assert_eq!(s.phase("p").ack_bytes, 2);
        assert_eq!(s.phase("p").lost_packets, 1);
        assert!((s.total_energy_uj() - 21.5).abs() < 1e-9);
        let mut other = NetworkStats::new(2);
        let p = other.intern("p");
        other.record_retx(NodeId(0), 10, 1.0, p);
        s.merge(&other);
        assert_eq!(s.node(NodeId(0)).retx_packets, 2);
        assert_eq!(s.node(NodeId(0)).retx_bytes, 58);
    }

    #[test]
    fn most_loaded() {
        let mut s = NetworkStats::new(3);
        assert_eq!(s.most_loaded(), Some((NodeId(0), 0)));
        let p = s.intern("p");
        s.record_tx(NodeId(2), 10, 1.0, p);
        s.record_tx(NodeId(2), 10, 1.0, p);
        s.record_tx(NodeId(0), 10, 1.0, p);
        assert_eq!(s.most_loaded(), Some((NodeId(2), 2)));
    }

    #[test]
    fn merge_sums() {
        let mut a = NetworkStats::new(2);
        let x = a.intern("x");
        a.record_tx(NodeId(0), 10, 5.0, x);
        let mut b = NetworkStats::new(2);
        let (y, x) = (b.intern("y"), b.intern("x"));
        b.record_tx(NodeId(0), 20, 7.0, x);
        b.record_rx(NodeId(1), 20, 3.0, y);
        a.merge(&b);
        assert_eq!(a.node(NodeId(0)).tx_packets, 2);
        assert_eq!(a.node(NodeId(0)).tx_bytes, 30);
        assert_eq!(a.phase("y").rx_packets, 1);
    }

    fn labels(s: &NetworkStats) -> Vec<&str> {
        s.phases().map(|(label, _)| label).collect()
    }

    #[test]
    fn phases_come_in_label_order_and_only_once_charged() {
        let mut s = NetworkStats::new(2);
        // Interned in an order that is neither sorted nor reverse-sorted.
        let ids: Vec<PhaseId> = ["2-filter", "repair", "1-collect", "3-final"]
            .iter()
            .map(|l| s.intern(l))
            .collect();
        assert_eq!(s.intern("repair"), ids[1], "interning is idempotent");
        assert_eq!(s.label(ids[2]), "1-collect");
        assert!(labels(&s).is_empty(), "interned is not charged");
        s.record_energy(NodeId(0), 1.0, ids[3]);
        s.record_loss(NodeId(1), ids[0]);
        s.record_death(NodeId(1), ids[1]);
        assert_eq!(labels(&s), ["2-filter", "3-final", "repair"]);
        assert_eq!(s.phase("1-collect"), NodeStats::default());
        // A clone keeps the table, so ids stay valid on it.
        let mut c = s.clone();
        c.record_tx(NodeId(0), 5, 1.0, ids[2]);
        assert_eq!(labels(&c), ["1-collect", "2-filter", "3-final", "repair"]);
    }

    #[test]
    fn merge_matches_labels_across_different_intern_tables() {
        let mut a = NetworkStats::new(1);
        let (a_x, a_y) = (a.intern("x"), a.intern("y"));
        a.record_tx(NodeId(0), 1, 1.0, a_x);
        a.record_tx(NodeId(0), 2, 1.0, a_y);
        let mut b = NetworkStats::new(1);
        // Same labels, opposite ids, plus one `a` never saw and one that was
        // interned but never charged.
        let (b_z, b_y, b_x, _idle) = (b.intern("z"), b.intern("y"), b.intern("x"), b.intern("w"));
        assert_ne!(a_x, b_x);
        b.record_tx(NodeId(0), 10, 1.0, b_x);
        b.record_tx(NodeId(0), 20, 1.0, b_y);
        b.record_tx(NodeId(0), 40, 1.0, b_z);
        a.merge(&b);
        assert_eq!(labels(&a), ["x", "y", "z"]);
        assert_eq!(a.phase("x").tx_bytes, 11);
        assert_eq!(a.phase("y").tx_bytes, 22);
        assert_eq!(a.phase("z").tx_bytes, 40);
        assert_eq!(a.total_tx_bytes(), 73);
    }

    #[test]
    fn from_parts_round_trips_the_exported_phases() {
        let mut s = NetworkStats::new(2);
        let (late, early) = (s.intern("b-late"), s.intern("a-early"));
        s.record_tx(NodeId(0), 7, 0.25, late);
        s.record_ack(NodeId(1), 2, 0.5, early);
        let exported: Vec<(String, NodeStats)> =
            s.phases().map(|(l, st)| (l.to_owned(), *st)).collect();
        assert_eq!(exported[0].0, "a-early");
        let back = NetworkStats::from_parts(s.per_node().copied().collect(), exported.clone());
        let again: Vec<(String, NodeStats)> =
            back.phases().map(|(l, st)| (l.to_owned(), *st)).collect();
        assert_eq!(again, exported);
        assert!(back.per_node().eq(s.per_node()));
        // Like the map it replaces, a repeated label keeps its last entry.
        let twice = NetworkStats::from_parts(
            vec![NodeStats::default()],
            vec![("p".into(), exported[0].1), ("p".into(), exported[1].1)],
        );
        assert_eq!(twice.phases().count(), 1);
        assert_eq!(twice.phase("p"), exported[1].1);
    }

    /// One fixed series of charges: energies that sum differently in
    /// different orders, and nodes 1 and 4 tied for most loaded.
    fn charge(mut s: NetworkStats) -> NetworkStats {
        let (p, q) = (s.intern("p"), s.intern("q"));
        for (v, uj) in [
            (4, 1e16),
            (1, 0.1),
            (0, -1e16),
            (3, 0.3),
            (1, 0.2),
            (4, 0.7),
        ] {
            s.record_tx(NodeId(v), 10 + v as usize, uj, p);
        }
        s.record_rx(NodeId(2), 9, 1e-3, q);
        s.record_retx(NodeId(3), 8, 1e-7, q);
        s.record_ack(NodeId(0), 2, 0.5, q);
        s.record_loss(NodeId(2), p);
        s.record_death(NodeId(3), q);
        s
    }

    fn assert_same(a: &NetworkStats, b: &NetworkStats) {
        for v in (0..5).map(NodeId) {
            assert_eq!(a.node(v), b.node(v), "{v}");
        }
        assert!(a.per_node().eq(b.per_node()));
        assert_eq!(a.total_energy_uj().to_bits(), b.total_energy_uj().to_bits());
        let totals = |s: &NetworkStats| {
            [
                s.total_tx_packets(),
                s.total_tx_bytes(),
                s.total_retx_packets(),
                s.total_ack_packets(),
                s.total_overhead_bytes(),
                s.total_cost_bytes(),
                s.total_lost_packets(),
                s.total_deaths(),
            ]
        };
        assert_eq!(totals(a), totals(b));
        assert_eq!(a.most_loaded(), b.most_loaded());
        assert!(a.phases().eq(b.phases()));
    }

    #[test]
    fn the_storage_order_does_not_show() {
        let reference = charge(NetworkStats::new(5));
        // The float sum is order-sensitive, so a sum in storage order would show.
        let by_slot: f64 = [3, 0, 4, 2, 1]
            .iter()
            .map(|&v| reference.node(NodeId(v)).energy_uj)
            .sum();
        assert_ne!(by_slot.to_bits(), reference.total_energy_uj().to_bits());
        // Ties go to the lower id wherever it is stored.
        assert_eq!(reference.most_loaded(), Some((NodeId(1), 2)));
        let stored = charge(NetworkStats::in_order([1, 4, 3, 0, 2].into()));
        assert_same(&stored, &reference);

        // Merging across two orders, either way round.
        let other = charge(NetworkStats::in_order([2, 0, 1, 4, 3].into()));
        let mut twice = reference.clone();
        twice.merge(&reference);
        for mut sum in [stored.clone(), other.clone(), reference.clone()] {
            sum.merge(&other);
            assert_same(&sum, &twice);
        }

        // An import is in id order until a network adopts it into its own;
        // the reset keeps the order and nothing else.
        let phases = stored.phases().map(|(l, s)| (l.to_owned(), *s)).collect();
        let mut back = NetworkStats::from_parts(stored.per_node().copied().collect(), phases);
        assert_eq!(&back.slot_of[..], [0, 1, 2, 3, 4]);
        assert_same(&back, &reference);
        back.adopt_order(&stored.slot_of);
        assert!(Arc::ptr_eq(&back.slot_of, &stored.slot_of));
        assert_same(&back, &reference);
        back.reset();
        assert!(back.per_node().eq(NetworkStats::new(5).per_node()));
        assert_eq!(back.phases().count(), 0);
        assert_same(&charge(back), &reference);
    }

    /// Every node's counters, bit for bit.
    fn node_bits(s: &NetworkStats) -> Vec<(u64, u64, u64)> {
        let bits = |s: &NodeStats| (s.tx_packets, s.deaths, s.energy_uj.to_bits());
        s.per_node().map(bits).collect()
    }

    #[test]
    fn unlaid_counters_read_as_zeroed_laid_ones() {
        let order: Arc<[u32]> = [1, 4, 3, 0, 2].into();
        let unlaid = NetworkStats::unlaid(Arc::clone(&order));
        let laid = NetworkStats::in_order(Arc::clone(&order));
        assert!(unlaid.per_node.is_empty() && laid.is_laid());
        assert_same(&unlaid, &laid);
        assert_eq!(unlaid.per_node().len(), 5);
        assert_eq!(unlaid.most_loaded(), Some((NodeId(0), 0)));
        assert_eq!(node_bits(&unlaid), node_bits(&laid));

        // A clone or a reset leaves them unlaid, an adoption too.
        let mut copy = unlaid.clone();
        copy.reset();
        copy.adopt_order(&[0, 1, 2, 3, 4].into());
        assert!(copy.per_node.is_empty());
        assert_same(&copy, &laid);

        // The first charge lays them out in their order.
        let charged = charge(unlaid.clone());
        assert!(Arc::ptr_eq(&charged.slot_of, &order));
        assert_same(&charged, &charge(laid.clone()));

        // Merging either way round, with the other unlaid or laid.
        let signed = NetworkStats::from_parts(
            (0..5)
                .map(|v| NodeStats {
                    energy_uj: if v % 2 == 0 { -0.0 } else { 0.5 },
                    ..NodeStats::default()
                })
                .collect(),
            vec![("p".into(), NodeStats::default())],
        );
        for other in [&charged, &signed, &unlaid, &laid] {
            let (mut a, mut b) = (unlaid.clone(), laid.clone());
            a.merge(other);
            b.merge(other);
            assert_same(&a, &b);
            assert_eq!(node_bits(&a), node_bits(&b));
            let (mut a, mut b) = (other.clone(), other.clone());
            a.merge(&unlaid);
            b.merge(&laid);
            assert_same(&a, &b);
            // Adding zeros turns a −0.0 energy into +0.0 either way.
            assert_eq!(node_bits(&a), node_bits(&b));
        }
        let mut both = unlaid.clone();
        both.merge(&unlaid);
        assert!(both.per_node.is_empty());
    }
}
