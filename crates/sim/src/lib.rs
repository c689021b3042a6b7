#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A discrete-event wireless-sensor-network simulator.
//!
//! The paper prototypes SENS-Join in ns-2 (§VI). This crate is the
//! corresponding substrate, scoped to what the evaluation measures: packet
//! transmissions (and the energy they cost) along a collection tree, under a
//! configurable radio/energy model, with reproducible topologies and
//! optional link failures.
//!
//! Components:
//!
//! * [`Topology`] — node positions plus the bidirectional-link neighbor
//!   graph for a fixed communication range (the paper uses 50 m),
//! * [`RoutingTree`] — a CTP-style collection tree: every node picks a
//!   parent minimizing the hop count to the base station, deterministic
//!   tie-breaking by link quality proxy (distance) then id; rebuildable
//!   after failures,
//! * [`Scheduler`] — a generic discrete-event queue (time in microseconds)
//!   that protocol state machines run on,
//! * [`Network`] — the MAC/PHY charge point: fragments application payloads
//!   into packets of at most [`RadioConfig::max_payload`] bytes, counts per-
//!   node and per-phase transmissions/receptions, applies the
//!   [`EnergyModel`], and computes transfer latencies,
//! * [`Channel`] — seeded per-packet loss models (i.i.d. [`LossModel::Bernoulli`]
//!   and bursty [`LossModel::GilbertElliott`], per-link overrides): every
//!   fragment the network puts on the air survives or drops independently,
//! * [`ArqPolicy`] — hop-by-hop reliability over the lossy channel (none /
//!   per-fragment ack+retransmit / per-message summary-and-repair), with
//!   retransmissions, control frames and timeouts charged through the
//!   energy model, the retransmit/ack counters of [`NetworkStats`] and the
//!   retransmission fields of [`TraceRecord`],
//! * [`LinkFailures`] — seeded per-execution link outages for the §IV-F
//!   error-tolerance experiments; a failed link is just the loss-probability-1.0
//!   corner of the channel ([`Channel::with_failures`]),
//! * [`ChurnTimeline`] — seeded node churn (crash-stop, reboot-with-state-
//!   loss, revival) applied at protocol boundaries via
//!   [`Network::apply_churn`]; the routing tree self-heals per the
//!   configured [`RepairStrategy`] (localized orphan reattachment by
//!   default, a full CTP re-convergence flood as the baseline), with repair
//!   beacons charged through the energy model under the
//!   [`PHASE_REPAIR`] phase. One master seed drives loss, link failures and
//!   churn through independent sub-streams ([`stream_seed`]),
//! * [`BatteryBank`] — per-node battery state (flat SoA, seeded capacity
//!   jitter on the same seed namespace) debited by every energy charge;
//!   exhaustion becomes endogenous crash-stop churn at the next
//!   [`Network::apply_churn`] boundary, [`ParentPolicy::PowerAware`]
//!   rotates subtrees toward battery-rich parents at each boundary, and
//!   [`LifetimeRun`] tracks rounds-to-first-death / partition / N%-death
//!   network-lifetime scenarios with a death-order trace.
//!
//! Per-packet loss and retransmissions *are* modeled (the channel +
//! reliability layer above); what is deliberately not modeled — and why it
//! does not bias the comparisons: RF collisions and capture effects (both
//! join methods are tree-synchronized and would suffer identically; loss is
//! injected probabilistically per packet instead of via interference
//! geometry), and routing-maintenance beacons (CTP runs regardless of the
//! query; the paper charges queries only). First-attempt data fragments
//! keep the plain `tx` counters, so the paper's primary metric stays
//! loss-invariant and a perfect channel reproduces lossless byte counts bit
//! for bit.
//!
//! # Example
//!
//! ```
//! use sensjoin_sim::{ArqPolicy, Channel, NetworkBuilder, RadioConfig, EnergyModel};
//! use sensjoin_field::{Area, Placement};
//!
//! let area = Area::new(300.0, 300.0);
//! let positions = Placement::UniformRandom { n: 120 }.generate(area, 1);
//! let mut net = NetworkBuilder::new()
//!     .radio(RadioConfig::paper_default())
//!     .energy(EnergyModel::micaz())
//!     .build(positions, area)
//!     .expect("connected network");
//! let child = net.routing().children(net.base()).first().copied().unwrap();
//! net.unicast(child, net.base(), 30, "collection");
//! assert_eq!(net.stats().total_tx_packets(), 1);
//!
//! // The same transfer over a 20 %-loss channel with ack+retransmit:
//! net.reset_stats();
//! net.set_channel(Some(Channel::bernoulli(0.2, 7)));
//! net.set_arq(ArqPolicy::ack(8));
//! let d = net.unicast_delivery(child, net.base(), 30, "collection");
//! assert!(d.complete, "the retry budget absorbs 20 % loss");
//! assert_eq!(net.stats().total_tx_packets(), 1); // first attempts only
//! ```

mod battery;
mod channel;
mod churn;
mod energy;
mod failure;
mod network;
mod radio;
mod reliability;
mod routing;
mod scheduler;
mod sink;
mod stats;
mod topology;
mod trace;

pub use battery::{
    BatteryBank, BatterySnapshot, LifetimeEnd, LifetimeReport, LifetimeRun, LifetimeUntil,
};
pub use channel::{Channel, ChannelLinkState, LossModel};
pub use churn::{
    stream_seed, ChurnAction, ChurnOutcome, ChurnTimeline, RepairStrategy, BEACON_BYTES,
    PHASE_REPAIR, STREAM_BATTERY, STREAM_CHURN, STREAM_LINK_FAILURE,
};
pub use energy::EnergyModel;
pub use failure::LinkFailures;
pub use network::{BaseChoice, DeliveryPort, NetSnapshot, Network, NetworkBuilder, NetworkError};
pub use radio::RadioConfig;
pub use reliability::{summary_bytes, ArqPolicy, BroadcastDelivery, Delivery, ACK_BYTES};
pub use routing::{ParentPolicy, RepairReport, RoutingTree, POWER_AWARE_HYSTERESIS};
pub use scheduler::{Scheduler, Time};
pub use stats::{DeltaBatchStats, NetworkStats, NodeStats, PhaseId};
pub use topology::Topology;
pub use trace::{Trace, TraceRecord};

pub use sensjoin_relation::NodeId;
