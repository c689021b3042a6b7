#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! SENS-Join: efficient general-purpose join processing in sensor networks.
//!
//! This crate implements the protocols of the paper on top of the simulator
//! substrate:
//!
//! * [`ExternalJoin`] — the state-of-the-art general-purpose baseline (§VI):
//!   every node ships its (early-projected, early-selected) tuple to the
//!   base station, tuples are aggregated into packets as they move up the
//!   routing tree, and the join is computed externally.
//! * [`SensJoin`] — the paper's contribution (§IV): a pre-computation
//!   collects compactly-encoded join-attribute tuples (with **Treecut**
//!   switching to complete tuples near the leaves), the base station joins
//!   them conservatively on quantization cells and disseminates a **join
//!   filter** (pruned per subtree by **Selective Filter Forwarding**), and
//!   only filtered tuples are shipped for the exact final join.
//!
//! Both protocols implement [`JoinMethod`] and produce a [`JoinOutcome`]
//! carrying the (identical) query result, per-phase transmission statistics
//! and the end-to-end latency. Representation variants
//! ([`Representation::Raw`], zlib-like / bzip2-like compression) reproduce
//! the §VI-B comparison, and every protocol parameter of the paper
//! (`D_max` = 30 bytes, the 500-byte filter-memory cap, quantization
//! resolutions) is configurable through [`SensJoinConfig`].
//!
//! # Quickstart
//!
//! ```
//! use sensjoin_core::{SensorNetworkBuilder, SensJoin, ExternalJoin, JoinMethod};
//! use sensjoin_field::{Area, Placement};
//! use sensjoin_query::parse;
//! use sensjoin_sim::BaseChoice;
//!
//! let mut snet = SensorNetworkBuilder::new()
//!     .area(Area::for_constant_density(500))
//!     .placement(Placement::UniformRandom { n: 500 })
//!     .base(BaseChoice::NearestCorner)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! // A selective Q1-style query whose tuples are wider than the single
//! // join attribute — the regime the pre-join filter is built for. (Note
//! // that symmetric conditions like |A.temp - B.temp| < c make *every*
//! // node contribute, because SQL semantics pair each node with itself.)
//! let query = parse(
//!     "SELECT A.hum, A.pres, B.hum, B.pres FROM Sensors A, Sensors B \
//!      WHERE A.temp - B.temp > 5.0 ONCE",
//! ).unwrap();
//! let cq = snet.compile(&query).unwrap();
//!
//! let ext = ExternalJoin::default().execute(&mut snet, &cq).unwrap();
//! let sj = SensJoin::default().execute(&mut snet, &cq).unwrap();
//! assert!(ext.result.same_result(&sj.result)); // identical results,
//! // and on selective queries SENS-Join ships far less data:
//! assert!(sj.stats.total_tx_bytes() < ext.stats.total_tx_bytes());
//! assert!(sj.stats.total_tx_packets() < ext.stats.total_tx_packets());
//! ```

mod adaptive;
mod baselines;
mod bloom;
mod config;
mod continuous;
mod costmodel;
mod engine;
mod epoch;
mod external;
mod ingest;
mod outcome;
mod partition;
pub mod persist;
mod recovery;
mod repr;
mod scheduler;
mod sensjoin;
mod snetwork;
mod wave;
pub mod workload;

pub use adaptive::AdaptiveJoin;
pub use baselines::{MediatedJoin, PHASE_MEDIATED_COLLECTION, PHASE_MEDIATED_RESULT};
pub use bloom::{
    BloomFilter, BloomSemiJoin, PHASE_BLOOM_COLLECTION, PHASE_BLOOM_FINAL, PHASE_BLOOM_FLOOD,
};
pub use config::{QuantizationConfig, Representation, SensJoinConfig};
pub use continuous::{
    node_tuples, CellCounts, ContinuousSensJoin, FilterEngine, MAX_ROUND_ATTEMPTS,
    PHASE_DELTA_COLLECTION, PHASE_FILTER_DELTA, PHASE_FINAL_DELTA,
};
pub use costmodel::{CostEstimate, CostModel, MethodChoice};
pub use engine::{
    exact_join, exact_join_nested, prejoin_filter, prejoin_filter_nested, JoinComputation,
    JoinSpace,
};
pub use external::ExternalJoin;
pub use ingest::{BatchStats, LiveTuple, StreamJoinEngine, StreamOp};
pub use outcome::{
    Answer, AnswerRef, GroupResult, JoinOutcome, JoinResult, ProtocolError, Rows, RowsIter,
};
pub use recovery::{
    execute_with_rebuild_reexecution, execute_with_recovery, execute_with_reexecution,
    RecoveryOutcome, MAX_REEXECUTION_ATTEMPTS,
};
pub use repr::{JoinAttrMsg, NodeRec, NodeTable, SizedSet};
pub use scheduler::{
    EpochReport, GroupFull, GroupOutcome, GroupRunner, QueryGroup, QueryId, SoloCost,
    MAX_EPOCH_ATTEMPTS, MAX_GROUP_QUERIES,
};
pub use sensjoin::{SensJoin, PHASE_COLLECTION, PHASE_FILTER, PHASE_FINAL};
pub use sensjoin_simd::kernels_active;
pub use snetwork::{
    attr_type_for, ExternalData, SensorNetwork, SensorNetworkBuilder, SensorNetworkError,
};
#[doc(hidden)]
pub use wave::{wave_mode, WaveMode};

/// The trait every join method implements.
pub trait JoinMethod {
    /// Human-readable method name for experiment output.
    fn name(&self) -> &'static str;

    /// Executes the query once over the network's current snapshot,
    /// returning the result and the communication costs. Statistics in the
    /// network are reset at the start of the execution.
    fn execute(
        &self,
        snet: &mut SensorNetwork,
        query: &sensjoin_query::CompiledQuery,
    ) -> Result<JoinOutcome, ProtocolError>;
}
