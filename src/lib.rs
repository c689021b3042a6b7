#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # SENS-Join
//!
//! A full reproduction of *"Towards Efficient Processing of General-Purpose
//! Joins in Sensor Networks"* (Stern, Buchmann, Böhm — ICDE 2009): an
//! energy-efficient, general-purpose join operator for wireless sensor
//! networks, together with the entire evaluation substrate the paper used —
//! a discrete-event WSN simulator with a CTP-style routing tree and a
//! calibrated energy model, spatially correlated sensor-data generation, a
//! TinyDB-flavored SQL dialect, Z-order quantization, the pointerless
//! quadtree wire format, and from-scratch zlib/bzip2-like compression
//! baselines.
//!
//! The umbrella crate re-exports every sub-crate:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the protocols: [`core::SensJoin`], [`core::ExternalJoin`], outcomes, workloads |
//! | [`serve`] | multi-tenant serving layer: admission, epoch batching, plan caching, metrics |
//! | [`query`] | SQL parser, compiled queries, interval arithmetic |
//! | [`sim`] | topology, routing tree, scheduler, energy model, failures |
//! | [`field`] | placements and correlated field generation |
//! | [`relation`] | schemas, tuples, sensor relations |
//! | [`zorder`] | quantization and Z-order encoding |
//! | [`quadtree`] | the compact join-attribute-set representation |
//! | [`compress`] | LZ77+Huffman and BWT compression baselines |
//!
//! ## Example
//!
//! ```
//! use sensjoin::prelude::*;
//!
//! // Deploy 300 nodes with Intel-Lab-like climate data.
//! let mut snet = SensorNetworkBuilder::new()
//!     .area(Area::new(500.0, 500.0))
//!     .placement(Placement::UniformRandom { n: 300 })
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! // The paper's Q1: minimal distance between points differing by > 10 °C.
//! let q = parse(
//!     "SELECT MIN(distance(A.x, A.y, B.x, B.y)) \
//!      FROM Sensors A, Sensors B WHERE A.temp - B.temp > 10.0 ONCE",
//! ).unwrap();
//! let cq = snet.compile(&q).unwrap();
//!
//! let outcome = SensJoin::default().execute(&mut snet, &cq).unwrap();
//! println!("result: {:?}", outcome.result);
//! println!("packets: {}", outcome.stats.total_tx_packets());
//! ```

pub use sensjoin_compress as compress;
pub use sensjoin_core as core;
pub use sensjoin_field as field;
pub use sensjoin_quadtree as quadtree;
pub use sensjoin_query as query;
pub use sensjoin_relation as relation;
pub use sensjoin_serve as serve;
pub use sensjoin_sim as sim;
pub use sensjoin_zorder as zorder;

/// The most common imports in one place.
pub mod prelude {
    pub use sensjoin_core::{
        execute_with_recovery, ExternalJoin, JoinMethod, JoinOutcome, JoinResult,
        QuantizationConfig, Representation, SensJoin, SensJoinConfig, SensorNetwork,
        SensorNetworkBuilder,
    };
    pub use sensjoin_field::{presets, Area, FieldSpec, Placement};
    pub use sensjoin_query::parse;
    pub use sensjoin_relation::NodeId;
    pub use sensjoin_sim::{BaseChoice, EnergyModel, LinkFailures, RadioConfig};
}
