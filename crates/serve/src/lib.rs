#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Multi-tenant serving layer for SENS-Join: many simulated users submit
//! continuous queries against a registry of sensor-network deployments
//! through one mediating [`Server`].
//!
//! The base-station library underneath
//! ([`QueryGroup`](sensjoin_core::QueryGroup) / `GroupRunner` in
//! `sensjoin-core`) runs up to 64 concurrent tenants per
//! group with one shared collection wave per epoch, and runs each
//! *distinct* query among them once: tenants that submit equal queries
//! subscribe to one plan — one slot on the wire, one pre-join filter, one
//! exact join, one `Arc`'d result. That plan table is the only sharing
//! mechanism: admission is parse → compile →
//! [`QueryGroup::try_register`](sensjoin_core::QueryGroup::try_register),
//! and two texts that compile equal share whatever they look like (DESIGN
//! §4.12 has the measurements behind "no admission cache"). This crate adds
//! the operational shell around it:
//!
//! * **Admission control** — structured accept/reject [`Decision`]s:
//!   schema validation against the deployment's catalog, the per-group
//!   64-tenant hard limit ([`MAX_GROUP_QUERIES`](sensjoin_core::MAX_GROUP_QUERIES),
//!   counted in live tenants whatever they ask, so admission never depends
//!   on the other tenants' SQL) with per-deployment group budgets, and a
//!   bounded admission queue that sheds on overflow.
//! * **Bin-packing** — admitted queries fill a deployment's existing
//!   groups before a new group is opened, so shared collection waves stay
//!   as full (and as amortized) as possible.
//! * **Epoch batching** — one [`Server::tick`] resamples every deployment
//!   and runs every group's epoch, fanning independent deployments across
//!   scoped worker threads (one chunk per thread the host grants) while
//!   collecting results in deployment order.
//! * **Metrics** — per-tenant and per-deployment admission counters,
//!   log₂-bucketed epoch-latency histograms with p50/p99, how many
//!   admissions joined a live plan and how many built one, shared-vs-solo
//!   byte accounting and the sharing ratio (tenant-epochs per plan-epoch)
//!   pulled from the scheduler's reports ([`ServeMetrics`]).
//!
//! Results are **bit-identical to solo execution**: every tenant's
//! per-epoch rows and contributor sets equal a solo
//! [`GroupRunner`](sensjoin_core::GroupRunner) driven on the tenant's
//! registration snapshot (`tests/serving_equivalence.rs` proves it
//! property-based across tenant mixes, staggered intervals, and mid-run
//! cancellation).
//!
//! # Example: submit → admit → epoch → metrics
//!
//! ```
//! use sensjoin_serve::{DeploymentSpec, ServeConfig, Server, Submission, TenantId};
//!
//! let mut server = Server::new(ServeConfig::default());
//! server.add_deployment(&DeploymentSpec::new("lab", 60, 7)).unwrap();
//!
//! // Two tenants ask the same query (one plan build), one is distinct.
//! let shared = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
//!               WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
//! let solo = "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
//!             WHERE A.temp - B.temp > 6.0 SAMPLE PERIOD 30";
//! for (tenant, sql) in [(0, shared), (1, shared), (2, solo)] {
//!     let pending = server.submit(Submission {
//!         tenant: TenantId(tenant),
//!         deployment: "lab".into(),
//!         sql: sql.into(),
//!         every: 1,
//!     });
//!     assert!(pending.is_none(), "queued, decided at the next tick");
//! }
//!
//! let report = server.tick().unwrap();
//! assert_eq!(report.decisions.iter().filter(|d| d.admitted()).count(), 3);
//! assert_eq!(report.epochs.len(), 3); // every tenant got its first epoch
//!
//! let m = server.metrics();
//! assert_eq!(m.totals.admitted, 3);
//! // The second "shared" tenant joined the first one's plan ...
//! assert_eq!((m.plans_joined, m.plans_built), (1, 2));
//! // ... and rides it: 3 tenant-epochs, 2 plans run.
//! assert_eq!((m.deployment(0).query_epochs, m.deployment(0).plan_epochs), (3, 2));
//! assert!(m.epoch_latency_us().p99() > 0);
//! ```

mod metrics;
mod server;

pub use metrics::{
    AdmissionCounters, DeploymentMetrics, Histogram, ServeMetrics, TenantMetrics, HISTOGRAM_BUCKETS,
};
pub use server::{
    Decision, DeploymentId, DeploymentSpec, QueryHandle, RejectReason, ServeConfig, Server,
    Submission, TenantEpoch, TenantId, TickReport,
};
