//! Where transfer charging lands.
//!
//! [`crate::Network`]'s single charge point writes through one
//! [`ChargeSink`]: the statistics record, the battery debit and the trace
//! row of a charge happen at the same call site, in call order. Per-node
//! f64 energy sums, debit order (and so the depletion schedule) and trace
//! sequence numbers therefore follow the wave's visiting order and nothing
//! else.

use crate::{BatteryBank, NetworkStats, PhaseId, Trace};
use sensjoin_relation::NodeId;

/// The charge-call surface of a transfer, mirroring [`NetworkStats`]'
/// recording methods one-to-one: charges land immediately on the network's
/// counters — and, when a battery bank is attached, every µJ is debited
/// from the charged node's battery at the same call site.
#[derive(Debug)]
pub(crate) struct ChargeSink<'a> {
    pub stats: &'a mut NetworkStats,
    pub trace: Option<&'a mut Trace>,
    pub battery: Option<&'a mut BatteryBank>,
}

impl ChargeSink<'_> {
    #[inline]
    fn debit(&mut self, node: NodeId, uj: f64) {
        if let Some(b) = &mut self.battery {
            b.debit(node, uj);
        }
    }

    pub fn record_tx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_tx(node, payload, uj, phase);
        self.debit(node, uj);
    }

    pub fn record_rx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_rx(node, payload, uj, phase);
        self.debit(node, uj);
    }

    pub fn record_retx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_retx(node, payload, uj, phase);
        self.debit(node, uj);
    }

    pub fn record_ack(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_ack(node, payload, uj, phase);
        self.debit(node, uj);
    }

    pub fn record_energy(&mut self, node: NodeId, uj: f64, phase: PhaseId) {
        self.stats.record_energy(node, uj, phase);
        self.debit(node, uj);
    }

    pub fn record_loss(&mut self, node: NodeId, phase: PhaseId) {
        self.stats.record_loss(node, phase);
    }

    /// Trace row of a lossless transfer; a no-op (and no receiver-list
    /// allocation) when tracing is off.
    pub fn trace_lossless(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
    ) {
        if let Some(t) = &mut self.trace {
            t.push(self.stats.label(phase), from, to.to_vec(), bytes, packets);
        }
    }

    /// Trace row of a transfer over the lossy channel; a no-op when tracing
    /// is off.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_delivery(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
        retransmissions: u64,
        acked: bool,
    ) {
        if let Some(t) = &mut self.trace {
            t.push_delivery(
                self.stats.label(phase),
                from,
                to.to_vec(),
                bytes,
                packets,
                retransmissions,
                acked,
            );
        }
    }
}
