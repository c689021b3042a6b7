//! Where transfer charging lands.
//!
//! [`crate::Network`]'s single charge point is generic over a [`StatSink`]:
//! the serial path writes straight into the network's counters and trace
//! ([`DirectSink`]), while parallel wave execution gives each worker thread
//! a [`StatLedger`] that *records* the exact sequence of charge calls. After
//! the threads join, the ledgers are replayed in deterministic (serial
//! traversal) order through the very same [`crate::NetworkStats`] methods —
//! the replayed call sequence is verbatim what the serial path would have
//! issued, so every byte/packet counter, every floating-point energy
//! accumulation (same addition order) and every trace row (same sequence
//! numbers) is bit-identical to serial execution.

use crate::{BatteryBank, NetworkStats, PhaseId, Trace};
use sensjoin_relation::NodeId;

/// The charge-call surface of a transfer: statistics records plus trace
/// rows. Mirrors [`NetworkStats`]' recording methods one-to-one.
pub(crate) trait StatSink {
    fn record_tx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId);
    fn record_rx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId);
    fn record_retx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId);
    fn record_ack(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId);
    fn record_energy(&mut self, node: NodeId, uj: f64, phase: PhaseId);
    fn record_loss(&mut self, node: NodeId, phase: PhaseId);
    /// Whether trace rows should be materialized at all (gates the
    /// receiver-list allocation on the hot path).
    fn wants_trace(&self) -> bool;
    fn trace_lossless(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
    );
    #[allow(clippy::too_many_arguments)]
    fn trace_delivery(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
        retransmissions: u64,
        acked: bool,
    );
}

/// The serial sink: charges land immediately on the network's counters —
/// and, when a battery bank is attached, every µJ is debited from the
/// charged node's battery at the same call site.
#[derive(Debug)]
pub(crate) struct DirectSink<'a> {
    pub stats: &'a mut NetworkStats,
    pub trace: Option<&'a mut Trace>,
    pub battery: Option<&'a mut BatteryBank>,
}

impl DirectSink<'_> {
    #[inline]
    fn debit(&mut self, node: NodeId, uj: f64) {
        if let Some(b) = &mut self.battery {
            b.debit(node, uj);
        }
    }
}

impl StatSink for DirectSink<'_> {
    fn record_tx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_tx(node, payload, uj, phase);
        self.debit(node, uj);
    }
    fn record_rx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_rx(node, payload, uj, phase);
        self.debit(node, uj);
    }
    fn record_retx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_retx(node, payload, uj, phase);
        self.debit(node, uj);
    }
    fn record_ack(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.stats.record_ack(node, payload, uj, phase);
        self.debit(node, uj);
    }
    fn record_energy(&mut self, node: NodeId, uj: f64, phase: PhaseId) {
        self.stats.record_energy(node, uj, phase);
        self.debit(node, uj);
    }
    fn record_loss(&mut self, node: NodeId, phase: PhaseId) {
        self.stats.record_loss(node, phase);
    }
    fn wants_trace(&self) -> bool {
        self.trace.is_some()
    }
    fn trace_lossless(
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
    fn trace_delivery(
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

/// One recorded charge call, phase by its id in the owning network's
/// statistics (interned before the lane opened).
#[derive(Debug, Clone)]
enum StatEvent {
    Tx {
        node: NodeId,
        payload: usize,
        uj: f64,
        phase: PhaseId,
    },
    Rx {
        node: NodeId,
        payload: usize,
        uj: f64,
        phase: PhaseId,
    },
    Retx {
        node: NodeId,
        payload: usize,
        uj: f64,
        phase: PhaseId,
    },
    Ack {
        node: NodeId,
        payload: usize,
        uj: f64,
        phase: PhaseId,
    },
    Energy {
        node: NodeId,
        uj: f64,
        phase: PhaseId,
    },
    Loss {
        node: NodeId,
        phase: PhaseId,
    },
    TraceLossless {
        phase: PhaseId,
        from: NodeId,
        to: Vec<NodeId>,
        bytes: usize,
        packets: usize,
    },
    TraceDelivery {
        phase: PhaseId,
        from: NodeId,
        to: Vec<NodeId>,
        bytes: usize,
        packets: usize,
        retransmissions: u64,
        acked: bool,
    },
}

/// A replayable recording of charge calls, used as the per-thread sink of
/// parallel wave execution. Replaying issues the identical call sequence
/// against the real counters, preserving bit-identity with serial charging
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct StatLedger {
    events: Vec<StatEvent>,
    tracing: bool,
}

impl StatLedger {
    /// An empty ledger; `tracing` mirrors whether the owning network has a
    /// trace attached (gates trace-row recording).
    pub(crate) fn new(tracing: bool) -> Self {
        Self {
            events: Vec::new(),
            tracing,
        }
    }

    /// Replays every recorded call, in order, against `stats`, `trace` and
    /// (when attached) `battery`. Battery debits happen during the serial
    /// replay — never inside the worker threads — so the per-node f64 debit
    /// order, and therefore the depletion schedule, is bit-identical
    /// between serial and parallel wave execution.
    pub(crate) fn replay(
        self,
        stats: &mut NetworkStats,
        mut trace: Option<&mut Trace>,
        mut battery: Option<&mut BatteryBank>,
    ) {
        let debit = |battery: &mut Option<&mut BatteryBank>, node: NodeId, uj: f64| {
            if let Some(b) = battery.as_deref_mut() {
                b.debit(node, uj);
            }
        };
        for ev in self.events {
            match ev {
                StatEvent::Tx {
                    node,
                    payload,
                    uj,
                    phase: p,
                } => {
                    stats.record_tx(node, payload, uj, p);
                    debit(&mut battery, node, uj);
                }
                StatEvent::Rx {
                    node,
                    payload,
                    uj,
                    phase: p,
                } => {
                    stats.record_rx(node, payload, uj, p);
                    debit(&mut battery, node, uj);
                }
                StatEvent::Retx {
                    node,
                    payload,
                    uj,
                    phase: p,
                } => {
                    stats.record_retx(node, payload, uj, p);
                    debit(&mut battery, node, uj);
                }
                StatEvent::Ack {
                    node,
                    payload,
                    uj,
                    phase: p,
                } => {
                    stats.record_ack(node, payload, uj, p);
                    debit(&mut battery, node, uj);
                }
                StatEvent::Energy { node, uj, phase: p } => {
                    stats.record_energy(node, uj, p);
                    debit(&mut battery, node, uj);
                }
                StatEvent::Loss { node, phase: p } => {
                    stats.record_loss(node, p);
                }
                StatEvent::TraceLossless {
                    phase: p,
                    from,
                    to,
                    bytes,
                    packets,
                } => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(stats.label(p), from, to, bytes, packets);
                    }
                }
                StatEvent::TraceDelivery {
                    phase: p,
                    from,
                    to,
                    bytes,
                    packets,
                    retransmissions,
                    acked,
                } => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push_delivery(
                            stats.label(p),
                            from,
                            to,
                            bytes,
                            packets,
                            retransmissions,
                            acked,
                        );
                    }
                }
            }
        }
    }
}

impl StatSink for StatLedger {
    fn record_tx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.events.push(StatEvent::Tx {
            node,
            payload,
            uj,
            phase,
        });
    }
    fn record_rx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.events.push(StatEvent::Rx {
            node,
            payload,
            uj,
            phase,
        });
    }
    fn record_retx(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.events.push(StatEvent::Retx {
            node,
            payload,
            uj,
            phase,
        });
    }
    fn record_ack(&mut self, node: NodeId, payload: usize, uj: f64, phase: PhaseId) {
        self.events.push(StatEvent::Ack {
            node,
            payload,
            uj,
            phase,
        });
    }
    fn record_energy(&mut self, node: NodeId, uj: f64, phase: PhaseId) {
        self.events.push(StatEvent::Energy { node, uj, phase });
    }
    fn record_loss(&mut self, node: NodeId, phase: PhaseId) {
        self.events.push(StatEvent::Loss { node, phase });
    }
    fn wants_trace(&self) -> bool {
        self.tracing
    }
    fn trace_lossless(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
    ) {
        if !self.tracing {
            return;
        }
        self.events.push(StatEvent::TraceLossless {
            phase,
            from,
            to: to.to_vec(),
            bytes,
            packets,
        });
    }
    fn trace_delivery(
        &mut self,
        phase: PhaseId,
        from: NodeId,
        to: &[NodeId],
        bytes: usize,
        packets: usize,
        retransmissions: u64,
        acked: bool,
    ) {
        if !self.tracing {
            return;
        }
        self.events.push(StatEvent::TraceDelivery {
            phase,
            from,
            to: to.to_vec(),
            bytes,
            packets,
            retransmissions,
            acked,
        });
    }
}
