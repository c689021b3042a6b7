//! Seeded per-packet loss models (the lossy channel under the MAC layer).
//!
//! Every fragment a [`crate::Network`] puts on the air is drawn through the
//! attached [`Channel`]: it survives or drops independently per (directed)
//! link, per packet. Two models are provided — i.i.d. [`LossModel::Bernoulli`]
//! loss and the bursty two-state [`LossModel::GilbertElliott`] chain — with
//! optional per-link overrides, so a whole-link outage is just the special
//! case "loss probability 1.0" (see [`Channel::with_failures`], which unifies
//! [`crate::LinkFailures`] with this layer).
//!
//! Draws are deterministic: each directed link owns its own RNG stream seeded
//! from the channel seed and the link endpoints, so the loss pattern of one
//! link does not depend on how much traffic other links carried.

use crate::failure::LinkFailures;
use crate::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_relation::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-link packet-loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Every packet is delivered.
    Perfect,
    /// Each packet is lost independently with probability `p`.
    Bernoulli {
        /// Per-packet loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst loss: the link alternates
    /// between a good and a bad state with the given transition
    /// probabilities, and packets are lost with a state-dependent
    /// probability. Captures the bursty fading real links exhibit.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_good_to_bad: f64,
        /// P(bad → good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A Gilbert–Elliott model with stationary loss rate `p` and mean burst
    /// length `burst` packets (classic simplified Gilbert: good state is
    /// loss-free, bad state loses everything).
    pub fn burst(p: f64, burst: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "stationary loss rate out of range");
        assert!(burst >= 1.0, "mean burst length must be >= 1 packet");
        if p == 0.0 {
            return LossModel::Perfect;
        }
        let p_bad_to_good = 1.0 / burst;
        // Stationary P(bad) = p_gb / (p_gb + p_bg) = p.
        let p_good_to_bad = p_bad_to_good * p / (1.0 - p);
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Whether this model provably never drops a packet.
    pub fn is_perfect(&self) -> bool {
        match *self {
            LossModel::Perfect => true,
            LossModel::Bernoulli { p } => p == 0.0,
            LossModel::GilbertElliott {
                p_good_to_bad,
                loss_good,
                loss_bad,
                ..
            } => loss_good == 0.0 && (loss_bad == 0.0 || p_good_to_bad == 0.0),
        }
    }
}

/// Mutable per-directed-link channel state: its RNG stream, (for
/// Gilbert–Elliott) the current Markov state, and where its loss model —
/// read once, when the link is first drawn on — sits in the channel's
/// table of the models in use.
#[derive(Debug, Clone)]
struct LinkState {
    rng: SmallRng,
    bad: bool,
    model: u32,
    /// The link's receiving end, for export.
    to: NodeId,
}

impl LinkState {
    /// The state a link starts from: its own deterministic stream.
    fn fresh(seed: u64, from: NodeId, to: NodeId, model: u32) -> Self {
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        Self {
            rng: SmallRng::seed_from_u64(seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            bad: false,
            model,
            to,
        }
    }

    /// Draws one packet's fate under the link's `model`: `true` = delivered.
    fn draw(&mut self, model: LossModel) -> bool {
        match model {
            LossModel::Perfect => true,
            LossModel::Bernoulli { p } => !self.rng.gen_bool(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.bad {
                    p_bad_to_good
                } else {
                    p_good_to_bad
                };
                if self.rng.gen_bool(flip) {
                    self.bad = !self.bad;
                }
                let loss = if self.bad { loss_bad } else { loss_good };
                !self.rng.gen_bool(loss)
            }
        }
    }
}

/// One exported per-link state: `(from, to, rng words, Markov bad flag)` —
/// the checkpoint/restore surface of [`Channel::export_states`].
pub type ChannelLinkState = (NodeId, NodeId, [u64; 4], bool);

/// The slot of a link no draw has touched.
const UNDRAWN: u32 = u32::MAX;

/// A lossy channel: per-packet survival draws for every directed link.
///
/// Attach one to a [`crate::Network`] with [`crate::Network::set_channel`];
/// from then on every fragment is drawn through the channel. A
/// channel whose models are all [`LossModel::is_perfect`] behaves exactly
/// like no channel at all (the network takes the lossless fast path, so
/// zero-loss runs reproduce lossless byte counts bit for bit).
///
/// Draws happen on the directed links of one [`Topology`], the one the
/// channel is bound to ([`Channel::bind`]; attaching it to a network binds
/// it to the network's). Each link has one `u32` slot, at its position in
/// the neighbor rows taken in node-id order (row `from`, rank of `to` in
/// it), naming its entry in a dense vector of the links drawn on so far: a
/// draw is two array reads once the sender knows the rank, and once each
/// link in use has its entry a transfer touches no allocator. Export walks
/// a bitmap of the drawn slots front to back, which is `(from, to)` order,
/// and skips the undrawn ones — most of them — a word at a time.
#[derive(Debug, Clone)]
pub struct Channel {
    default_model: LossModel,
    per_link: BTreeMap<(NodeId, NodeId), LossModel>,
    /// How many entries of `per_link` may lose packets, so that
    /// [`Channel::is_perfect`] is decided when the models change.
    lossy_overrides: usize,
    /// If set, only these phases are lossy; packets of other phases always
    /// survive. Used by tests to confine loss to specific protocol phases.
    lossy_phases: Option<BTreeSet<String>>,
    seed: u64,
    topology: Option<Arc<Topology>>,
    /// Per node id, where its row of links starts in `slots`.
    rows: Vec<u32>,
    /// Per directed link of `topology`, rows in node-id order: its index in
    /// `states`, or [`UNDRAWN`].
    slots: Vec<u32>,
    /// The slots that are not [`UNDRAWN`], one bit each (bit `l % 64` of
    /// word `l / 64`): what an export walks instead of every slot.
    drawn: Vec<u64>,
    states: Vec<LinkState>,
    /// The distinct loss models of the links in `states`.
    models: Vec<LossModel>,
}

impl Channel {
    /// A channel applying `model` to every link, seeded for reproducibility.
    pub fn new(model: LossModel, seed: u64) -> Self {
        Self {
            default_model: model,
            per_link: BTreeMap::new(),
            lossy_overrides: 0,
            lossy_phases: None,
            seed,
            topology: None,
            rows: Vec::new(),
            slots: Vec::new(),
            drawn: Vec::new(),
            states: Vec::new(),
            models: Vec::new(),
        }
    }

    /// A perfect channel (no loss anywhere).
    pub fn perfect() -> Self {
        Self::new(LossModel::Perfect, 0)
    }

    /// An i.i.d. Bernoulli channel: every packet on every link is lost
    /// independently with probability `p`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Self::new(LossModel::Bernoulli { p }, seed)
    }

    /// A bursty Gilbert–Elliott channel with stationary loss `p` and mean
    /// burst length `burst` packets on every link.
    pub fn gilbert_elliott(p: f64, burst: f64, seed: u64) -> Self {
        Self::new(LossModel::burst(p, burst), seed)
    }

    /// Binds the channel to the links of `topology`. Streams already drawn
    /// on move to the same links of the new topology (a link it lacks
    /// loses its stream); rebinding to the topology already bound changes
    /// nothing.
    pub fn bind(&mut self, topology: Arc<Topology>) {
        if self
            .topology
            .as_ref()
            .is_some_and(|t| Arc::ptr_eq(t, &topology))
        {
            return;
        }
        let kept = self.export_states();
        self.rows = vec![0];
        for v in topology.nodes() {
            let end = self.rows[v.0 as usize] + topology.neighbors(v).len() as u32;
            self.rows.push(end);
        }
        self.slots = vec![UNDRAWN; self.rows[topology.len()] as usize];
        self.drawn = vec![0; self.slots.len().div_ceil(64)];
        self.states.clear();
        self.topology = Some(topology);
        for (from, to, words, bad) in kept {
            if let Some(link) = self.link(from, to) {
                self.adopt(link, from, to, words, bad);
            }
        }
    }

    /// The slot of link `from → to`, if the bound topology has it.
    fn link(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let t = self.topology.as_ref()?;
        let rank = t.neighbors(from).binary_search(&to).ok()?;
        Some(self.rows[from.0 as usize] as usize + rank)
    }

    /// Overrides the loss model of the link between `a` and `b` (both
    /// directions); their streams restart from the channel seed.
    pub fn set_link_model(&mut self, a: NodeId, b: NodeId, model: LossModel) {
        for key in [(a, b), (b, a)] {
            let old = self.per_link.insert(key, model);
            self.lossy_overrides -= usize::from(old.is_some_and(|m| !m.is_perfect()));
            self.lossy_overrides += usize::from(!model.is_perfect());
            if let Some(link) = self.link(key.0, key.1) {
                // The dense entry stays behind, unreachable; the next draw
                // on the link starts a fresh one.
                self.slots[link] = UNDRAWN;
                self.drawn[link / 64] &= !(1 << (link % 64));
            }
        }
    }

    /// Expresses whole-link outages in channel terms: every failed link of
    /// `failures` gets loss probability 1.0. This is the single degradation
    /// path shared by the §IV-F recovery machinery and the ARQ layer — a
    /// "failed link" is nothing but the extreme point of the loss scale.
    pub fn with_failures(mut self, failures: &LinkFailures, topology: &Topology) -> Self {
        for u in topology.nodes() {
            for &v in topology.neighbors(u) {
                if u < v && failures.is_down(u, v) {
                    self.set_link_model(u, v, LossModel::Bernoulli { p: 1.0 });
                }
            }
        }
        self
    }

    /// Restricts loss to the given phase labels; packets sent under any
    /// other phase always survive. Intended for tests that need loss
    /// confined to specific protocol phases.
    pub fn scope_to_phases<I: IntoIterator<Item = S>, S: Into<String>>(
        mut self,
        phases: I,
    ) -> Self {
        self.lossy_phases = Some(phases.into_iter().map(Into::into).collect());
        self
    }

    /// Whether no packet can ever be lost on any link.
    pub fn is_perfect(&self) -> bool {
        self.lossy_overrides == 0 && self.default_model.is_perfect()
    }

    /// Exports the per-link generator and Markov states in `(from, to)`
    /// order — the checkpoint/restore surface. Links never drawn on have no
    /// entry; their streams are recreated lazily from the channel seed on
    /// first use, so omitting them is lossless.
    pub fn export_states(&self) -> Vec<ChannelLinkState> {
        let mut out = Vec::with_capacity(self.states.len());
        let mut from = 0;
        for (at, &word) in self.drawn.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let link = at * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                while self.rows[from + 1] as usize <= link {
                    from += 1;
                }
                let st = &self.states[self.slots[link] as usize];
                out.push((NodeId(from as u32), st.to, st.rng.state(), st.bad));
            }
        }
        out
    }

    /// Checks that `states` is an export of a channel over `topology`:
    /// every entry names a link of it, in strictly ascending `(from, to)`
    /// order. Returns what is wrong otherwise.
    pub fn check_states(
        topology: &Topology,
        states: &[ChannelLinkState],
    ) -> Result<(), &'static str> {
        let n = topology.len();
        for (i, &(from, to, ..)) in states.iter().enumerate() {
            if from.0 as usize >= n || to.0 as usize >= n {
                return Err("channel state of no node");
            }
            if topology.neighbors(from).binary_search(&to).is_err() {
                return Err("channel state of no link");
            }
            if i > 0 && (states[i - 1].0, states[i - 1].1) >= (from, to) {
                return Err("channel states out of link order");
            }
        }
        Ok(())
    }

    /// Replaces the per-link states with ones previously exported from an
    /// identically-configured channel (same models, seed and topology):
    /// every stream resumes exactly where the exporting channel left it.
    /// States that [`Channel::check_states`] refuses against the bound
    /// topology — or any state, if the channel is bound to none — are an
    /// error, and then nothing is replaced.
    pub fn import_states(&mut self, states: &[ChannelLinkState]) -> Result<(), &'static str> {
        match &self.topology {
            Some(t) => Self::check_states(t, states)?,
            None if states.is_empty() => return Ok(()),
            None => return Err("channel bound to no topology"),
        }
        self.slots.fill(UNDRAWN);
        self.drawn.fill(0);
        self.states.clear();
        for &(from, to, words, bad) in states {
            let link = self.link(from, to).expect("checked above");
            self.adopt(link, from, to, words, bad);
        }
        Ok(())
    }

    /// Gives link `link` (`from → to`) a state resumed from `words`.
    fn adopt(&mut self, link: usize, from: NodeId, to: NodeId, words: [u64; 4], bad: bool) {
        // A state on a link whose model cannot lose (one restored onto a
        // perfect override) is kept for export but never draws.
        let model = Some(self.model_for(from, to)).filter(|m| !m.is_perfect());
        let model = self.model_id(model.unwrap_or(LossModel::Perfect));
        self.slots[link] = self.states.len() as u32;
        self.drawn[link / 64] |= 1 << (link % 64);
        self.states.push(LinkState {
            rng: SmallRng::from_state(words),
            bad,
            model,
            to,
        });
    }

    /// `model`'s index in `models`, added if new.
    fn model_id(&mut self, model: LossModel) -> u32 {
        let at = self.models.iter().position(|m| *m == model);
        at.unwrap_or_else(|| {
            self.models.push(model);
            self.models.len() - 1
        }) as u32
    }

    fn model_for(&self, from: NodeId, to: NodeId) -> LossModel {
        self.per_link
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_model)
    }

    /// Whether packets sent under `phase` can be lost at all — `false` only
    /// for phases outside a [`Channel::scope_to_phases`] restriction.
    pub fn lossy_in(&self, phase: &str) -> bool {
        self.lossy_phases
            .as_ref()
            .is_none_or(|scope| scope.contains(phase))
    }

    /// Draws the fate of one packet on the directed link `from → to` under
    /// phase `phase`: `true` = delivered, `false` = lost. Deterministic in
    /// the channel seed and the per-link draw sequence.
    ///
    /// # Panics
    /// Panics if the packet can be lost and `from → to` is not a link of
    /// the topology the channel is bound to (or it is bound to none).
    pub fn deliver(&mut self, from: NodeId, to: NodeId, phase: &str) -> bool {
        if !self.lossy_in(phase) {
            return true;
        }
        let link = self.link(from, to);
        let link = link.unwrap_or_else(|| panic!("{from} -> {to} is no link of the channel"));
        self.draw_link(link, from, to)
    }

    /// [`Channel::deliver`] for a phase already known to be in scope
    /// ([`Channel::lossy_in`]) on the link from `from` to its neighbor
    /// `to`, the `rank`-th of its neighbor row.
    pub(crate) fn draw(&mut self, from: NodeId, rank: usize, to: NodeId) -> bool {
        self.draw_link(self.rows[from.0 as usize] as usize + rank, from, to)
    }

    /// Draws on link `from → to`, whose slot is `link`.
    fn draw_link(&mut self, link: usize, from: NodeId, to: NodeId) -> bool {
        let slot = self.slots[link];
        if slot != UNDRAWN {
            let state = &mut self.states[slot as usize];
            return state.draw(self.models[state.model as usize]);
        }
        let model = self.model_for(from, to);
        if model.is_perfect() {
            return true;
        }
        let id = self.model_id(model);
        self.slots[link] = self.states.len() as u32;
        self.drawn[link / 64] |= 1 << (link % 64);
        let mut state = LinkState::fresh(self.seed, from, to, id);
        let delivered = state.draw(model);
        self.states.push(state);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_field::{Area, Position};

    /// `ch` bound to five nodes within range of each other: every ordered
    /// pair of `0..5` is a link.
    fn bound(mut ch: Channel) -> Channel {
        let positions = (0..5).map(|i| Position::new(i as f64, i as f64)).collect();
        ch.bind(Arc::new(Topology::new(
            positions,
            Area::new(10.0, 10.0),
            50.0,
        )));
        ch
    }

    #[test]
    fn perfect_models() {
        assert!(LossModel::Perfect.is_perfect());
        assert!(LossModel::Bernoulli { p: 0.0 }.is_perfect());
        assert!(!LossModel::Bernoulli { p: 0.1 }.is_perfect());
        assert!(LossModel::burst(0.0, 4.0).is_perfect());
        assert!(!LossModel::burst(0.1, 4.0).is_perfect());
        assert!(Channel::perfect().is_perfect());
        assert!(Channel::bernoulli(0.0, 7).is_perfect());
        assert!(!Channel::bernoulli(0.2, 7).is_perfect());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let mut ch = bound(Channel::bernoulli(0.3, seed));
            (0..64)
                .map(|_| ch.deliver(NodeId(1), NodeId(2), "p"))
                .collect()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn links_have_independent_streams() {
        // Interleaving draws on another link must not change this link's
        // pattern.
        let mut a = bound(Channel::bernoulli(0.3, 9));
        let solo: Vec<bool> = (0..32)
            .map(|_| a.deliver(NodeId(1), NodeId(2), "p"))
            .collect();
        let mut b = bound(Channel::bernoulli(0.3, 9));
        let mixed: Vec<bool> = (0..32)
            .map(|_| {
                b.deliver(NodeId(3), NodeId(4), "p");
                b.deliver(NodeId(1), NodeId(2), "p")
            })
            .collect();
        assert_eq!(solo, mixed);
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let mut ch = bound(Channel::bernoulli(0.2, 11));
        let lost = (0..10_000)
            .filter(|_| !ch.deliver(NodeId(0), NodeId(1), "p"))
            .count();
        assert!((1_500..2_500).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn gilbert_elliott_is_bursty_at_equal_rate() {
        // Same stationary loss, but losses should clump: count loss runs.
        let runs = |ch: Channel| -> (usize, usize) {
            let mut ch = bound(ch);
            let mut lost = 0;
            let mut runs = 0;
            let mut prev = true;
            for _ in 0..20_000 {
                let ok = ch.deliver(NodeId(0), NodeId(1), "p");
                if !ok {
                    lost += 1;
                    if prev {
                        runs += 1;
                    }
                }
                prev = ok;
            }
            (lost, runs)
        };
        let (b_lost, b_runs) = runs(Channel::bernoulli(0.2, 3));
        let (g_lost, g_runs) = runs(Channel::gilbert_elliott(0.2, 8.0, 3));
        // Comparable stationary rates...
        assert!((3_000..5_000).contains(&b_lost), "bernoulli lost {b_lost}");
        assert!((3_000..5_000).contains(&g_lost), "ge lost {g_lost}");
        // ...but far fewer, longer runs under Gilbert–Elliott.
        assert!(
            g_runs * 3 < b_runs,
            "ge runs {g_runs} not bursty vs bernoulli {b_runs}"
        );
    }

    #[test]
    fn per_link_override_and_failures() {
        let mut ch = bound(Channel::perfect());
        ch.set_link_model(NodeId(1), NodeId(2), LossModel::Bernoulli { p: 1.0 });
        assert!(!ch.is_perfect());
        assert!(!ch.deliver(NodeId(1), NodeId(2), "p"));
        assert!(!ch.deliver(NodeId(2), NodeId(1), "p"));
        assert!(ch.deliver(NodeId(1), NodeId(3), "p"));
    }

    #[test]
    fn phase_scoping_confines_loss() {
        let mut ch = bound(Channel::bernoulli(1.0, 1).scope_to_phases(["bad-phase"]));
        assert!(ch.deliver(NodeId(0), NodeId(1), "good-phase"));
        assert!(!ch.deliver(NodeId(0), NodeId(1), "bad-phase"));
    }

    /// Perfectness is decided when the models change: a lossy override makes
    /// a perfect channel lossy, and a perfect one over the same link makes
    /// it perfect again.
    #[test]
    fn is_perfect_follows_overrides() {
        let mut ch = Channel::perfect();
        let (a, b) = (NodeId(1), NodeId(2));
        ch.set_link_model(a, b, LossModel::Bernoulli { p: 0.5 });
        assert!(!ch.is_perfect());
        ch.set_link_model(b, a, LossModel::Perfect);
        assert!(ch.is_perfect());
        let mut lossy = Channel::bernoulli(0.1, 3);
        lossy.set_link_model(a, b, LossModel::Perfect);
        assert!(!lossy.is_perfect());
    }

    /// Export walks the links in `(from, to)` order whatever order they
    /// were drawn in; an import resumes every stream, and refuses states of
    /// no link or out of order without replacing anything.
    #[test]
    fn states_export_in_link_order_and_import_checked() {
        let mut ch = bound(Channel::bernoulli(0.5, 4));
        for (from, to) in [(3, 1), (0, 4), (1, 3), (0, 2)] {
            ch.deliver(NodeId(from), NodeId(to), "p");
        }
        let states = ch.export_states();
        let links: Vec<(u32, u32)> = states.iter().map(|s| (s.0 .0, s.1 .0)).collect();
        assert_eq!(links, [(0, 2), (0, 4), (1, 3), (3, 1)]);
        let mut resumed = bound(Channel::bernoulli(0.5, 4));
        resumed.import_states(&states).unwrap();
        let next = |ch: &mut Channel| -> Vec<bool> {
            (0..32)
                .map(|_| ch.deliver(NodeId(3), NodeId(1), "p"))
                .collect()
        };
        assert_eq!(next(&mut resumed), next(&mut ch));
        let before = resumed.export_states();
        let mut twice = states.clone();
        twice.swap(0, 1);
        let mut foreign = states.clone();
        foreign[0].1 = NodeId(9);
        for bad in [twice, foreign] {
            assert!(resumed.import_states(&bad).is_err());
            assert_eq!(resumed.export_states(), before);
        }
    }
}
