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
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_relation::NodeId;
use std::collections::{BTreeMap, BTreeSet};

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

/// Mutable per-directed-link channel state: the RNG stream and (for
/// Gilbert–Elliott) the current Markov state.
#[derive(Debug, Clone)]
struct LinkState {
    rng: SmallRng,
    bad: bool,
}

/// One exported per-link state: `(from, to, rng words, Markov bad flag)` —
/// the checkpoint/restore surface of [`Channel::export_states`].
pub type ChannelLinkState = (NodeId, NodeId, [u64; 4], bool);

/// A lossy channel: per-packet survival draws for every directed link.
///
/// Attach one to a [`crate::Network`] with [`crate::Network::set_channel`];
/// from then on every fragment is drawn through [`Channel::deliver`]. A
/// channel whose models are all [`LossModel::is_perfect`] behaves exactly
/// like no channel at all (the network takes the lossless fast path, so
/// zero-loss runs reproduce lossless byte counts bit for bit).
#[derive(Debug, Clone)]
pub struct Channel {
    default_model: LossModel,
    per_link: BTreeMap<(NodeId, NodeId), LossModel>,
    /// If set, only these phases are lossy; packets of other phases always
    /// survive. Used by tests to confine loss to specific protocol phases.
    lossy_phases: Option<BTreeSet<String>>,
    seed: u64,
    states: BTreeMap<(NodeId, NodeId), LinkState>,
}

impl Channel {
    /// A channel applying `model` to every link, seeded for reproducibility.
    pub fn new(model: LossModel, seed: u64) -> Self {
        Self {
            default_model: model,
            per_link: BTreeMap::new(),
            lossy_phases: None,
            seed,
            states: BTreeMap::new(),
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

    /// Overrides the loss model of the link between `a` and `b` (both
    /// directions).
    pub fn set_link_model(&mut self, a: NodeId, b: NodeId, model: LossModel) {
        self.per_link.insert((a, b), model);
        self.per_link.insert((b, a), model);
        self.states.remove(&(a, b));
        self.states.remove(&(b, a));
    }

    /// Expresses whole-link outages in channel terms: every failed link of
    /// `failures` gets loss probability 1.0. This is the single degradation
    /// path shared by the §IV-F recovery machinery and the ARQ layer — a
    /// "failed link" is nothing but the extreme point of the loss scale.
    pub fn with_failures(mut self, failures: &LinkFailures, topology: &crate::Topology) -> Self {
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
        self.default_model.is_perfect() && self.per_link.values().all(LossModel::is_perfect)
    }

    /// Exports the per-link generator and Markov states in link order — the
    /// checkpoint/restore surface. Links never drawn on have no entry; their
    /// streams are recreated lazily from the channel seed on first use, so
    /// omitting them is lossless.
    pub fn export_states(&self) -> Vec<ChannelLinkState> {
        self.states
            .iter()
            .map(|(&(from, to), st)| (from, to, st.rng.state(), st.bad))
            .collect()
    }

    /// Replaces the per-link states with ones previously exported from an
    /// identically-configured channel (same models and seed): every stream
    /// resumes exactly where the exporting channel left it.
    pub fn import_states(&mut self, states: &[ChannelLinkState]) {
        self.states.clear();
        for &(from, to, words, bad) in states {
            self.states.insert(
                (from, to),
                LinkState {
                    rng: SmallRng::from_state(words),
                    bad,
                },
            );
        }
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
    pub fn deliver(&mut self, from: NodeId, to: NodeId, phase: &str) -> bool {
        !self.lossy_in(phase) || self.draw(from, to)
    }

    /// [`Channel::deliver`] for a phase already known to be in scope
    /// ([`Channel::lossy_in`]).
    pub(crate) fn draw(&mut self, from: NodeId, to: NodeId) -> bool {
        let model = self.model_for(from, to);
        if model.is_perfect() {
            return true;
        }
        let seed = self.seed;
        let state = self.states.entry((from, to)).or_insert_with(|| {
            // Distinct deterministic stream per directed link.
            let link = ((from.0 as u64) << 32) | to.0 as u64;
            LinkState {
                rng: SmallRng::seed_from_u64(seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                bad: false,
            }
        });
        match model {
            LossModel::Perfect => true,
            LossModel::Bernoulli { p } => !state.rng.gen_bool(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let flip = if state.bad {
                    p_bad_to_good
                } else {
                    p_good_to_bad
                };
                if state.rng.gen_bool(flip) {
                    state.bad = !state.bad;
                }
                let loss = if state.bad { loss_bad } else { loss_good };
                !state.rng.gen_bool(loss)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut ch = Channel::bernoulli(0.3, seed);
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
        let mut a = Channel::bernoulli(0.3, 9);
        let solo: Vec<bool> = (0..32)
            .map(|_| a.deliver(NodeId(1), NodeId(2), "p"))
            .collect();
        let mut b = Channel::bernoulli(0.3, 9);
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
        let mut ch = Channel::bernoulli(0.2, 11);
        let lost = (0..10_000)
            .filter(|_| !ch.deliver(NodeId(0), NodeId(1), "p"))
            .count();
        assert!((1_500..2_500).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn gilbert_elliott_is_bursty_at_equal_rate() {
        // Same stationary loss, but losses should clump: count loss runs.
        let runs = |mut ch: Channel| -> (usize, usize) {
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
        let mut ch = Channel::perfect();
        ch.set_link_model(NodeId(1), NodeId(2), LossModel::Bernoulli { p: 1.0 });
        assert!(!ch.is_perfect());
        assert!(!ch.deliver(NodeId(1), NodeId(2), "p"));
        assert!(!ch.deliver(NodeId(2), NodeId(1), "p"));
        assert!(ch.deliver(NodeId(1), NodeId(3), "p"));
    }

    #[test]
    fn phase_scoping_confines_loss() {
        let mut ch = Channel::bernoulli(1.0, 1).scope_to_phases(["bad-phase"]);
        assert!(ch.deliver(NodeId(0), NodeId(1), "good-phase"));
        assert!(!ch.deliver(NodeId(0), NodeId(1), "bad-phase"));
    }
}
