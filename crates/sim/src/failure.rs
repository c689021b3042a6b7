//! Seeded link-failure injection (§IV-F error tolerance).

use crate::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sensjoin_relation::NodeId;
use std::collections::BTreeSet;

/// A set of failed (bidirectional) links for one query execution.
///
/// The paper's error handling assumes the tree protocol re-establishes the
/// routing structure after an outage and the query is simply re-executed
/// (§IV-F). Tests and benches sample failures, rebuild the tree with
/// [`crate::Network::rebuild_routing`], re-run the query and check that the
/// result is still exact.
#[derive(Debug, Clone, Default)]
pub struct LinkFailures {
    down: BTreeSet<(NodeId, NodeId)>,
}

impl LinkFailures {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fails each link independently with probability `p`, deterministically
    /// from `seed`.
    ///
    /// `seed` is a *master* seed in the repo-wide namespace
    /// ([`crate::stream_seed`]): the sampler draws from the
    /// [`crate::STREAM_LINK_FAILURE`] sub-stream, so the same master seed
    /// can drive per-packet loss, link failures and node churn with
    /// mutually independent randomness.
    pub fn sample(topology: &Topology, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut rng = SmallRng::seed_from_u64(crate::stream_seed(seed, crate::STREAM_LINK_FAILURE));
        let mut down = BTreeSet::new();
        for u in topology.nodes() {
            for &v in topology.neighbors(u) {
                if u < v && rng.gen_bool(p) {
                    down.insert((u, v));
                }
            }
        }
        Self { down }
    }

    /// Fails the specific links given (pairs are normalized internally).
    pub fn of_links(links: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let down = links
            .into_iter()
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        Self { down }
    }

    /// Expresses the outages as a [`crate::Channel`]: every failed link gets
    /// loss probability 1.0, every other link stays perfect. This is the
    /// thin-constructor end of the unification between whole-link failures
    /// and per-packet loss — downstream degradation handling (ARQ, recovery)
    /// sees one mechanism.
    pub fn to_channel(&self, topology: &Topology) -> crate::Channel {
        crate::Channel::perfect().with_failures(self, topology)
    }

    /// Whether the link between `a` and `b` is down (symmetric).
    pub fn is_down(&self, a: NodeId, b: NodeId) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.down.contains(&key)
    }

    /// Number of failed links.
    pub fn len(&self) -> usize {
        self.down.len()
    }

    /// Whether no links failed.
    pub fn is_empty(&self) -> bool {
        self.down.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_field::{Area, Placement};

    fn topo() -> Topology {
        let area = Area::new(300.0, 300.0);
        Topology::new(
            Placement::UniformRandom { n: 150 }.generate(area, 3),
            area,
            50.0,
        )
    }

    #[test]
    fn sampling_is_deterministic_and_symmetric() {
        let t = topo();
        let a = LinkFailures::sample(&t, 0.1, 7);
        let b = LinkFailures::sample(&t, 0.1, 7);
        assert_eq!(a.len(), b.len());
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                assert_eq!(a.is_down(u, v), a.is_down(v, u));
                assert_eq!(a.is_down(u, v), b.is_down(u, v));
            }
        }
    }

    #[test]
    fn probability_extremes() {
        let t = topo();
        assert!(LinkFailures::sample(&t, 0.0, 1).is_empty());
        let all = LinkFailures::sample(&t, 1.0, 1);
        let total_links: usize = t.nodes().map(|u| t.neighbors(u).len()).sum::<usize>() / 2;
        assert_eq!(all.len(), total_links);
    }

    #[test]
    fn failures_as_channel() {
        let t = topo();
        let f = LinkFailures::sample(&t, 0.2, 5);
        assert!(!f.is_empty());
        let mut ch = f.to_channel(&t);
        ch.bind(std::sync::Arc::new(t.clone()));
        assert!(!ch.is_perfect());
        for u in t.nodes() {
            for &v in t.neighbors(u) {
                // A down link never delivers; an up link always does.
                assert_eq!(ch.deliver(u, v, "p"), !f.is_down(u, v));
            }
        }
        assert!(LinkFailures::none().to_channel(&t).is_perfect());
    }

    #[test]
    fn explicit_links_normalized() {
        let f = LinkFailures::of_links([(NodeId(5), NodeId(2))]);
        assert!(f.is_down(NodeId(2), NodeId(5)));
        assert!(f.is_down(NodeId(5), NodeId(2)));
        assert!(!f.is_down(NodeId(2), NodeId(6)));
    }
}
