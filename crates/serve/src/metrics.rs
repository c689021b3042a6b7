//! The serving metrics surface: admission counters per tenant and per
//! deployment, epoch-latency histograms with p50/p99, shared-vs-solo byte
//! accounting pulled from the scheduler's [`EpochReport`]s, and how many
//! admissions joined a live plan instead of building one.
//!
//! Everything here is plain deterministic state updated by
//! [`Server`](crate::Server) in deployment order after each tick — there
//! is no sampling and no wall-clock dependence, so two runs over the same
//! submission schedule report identical metrics.
//!
//! [`EpochReport`]: sensjoin_core::EpochReport

use crate::server::TenantId;
use sensjoin_core::persist_struct;
use std::collections::BTreeMap;

/// Number of power-of-two buckets in a [`Histogram`]: bucket `i` holds
/// samples whose bit length is `i`, i.e. values in `[2^(i-1), 2^i)`
/// (bucket 0 holds exactly the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram over non-negative integer samples (epoch
/// latencies in simulated microseconds, here).
///
/// Quantiles are resolved to the upper bound of the bucket in which the
/// requested rank falls (clamped to the observed maximum), so a reported
/// p99 is an upper bound on the true 99th percentile within a factor of
/// two — the usual operator-metrics tradeoff for O(1) memory.
///
/// ```
/// use sensjoin_serve::Histogram;
///
/// let mut h = Histogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert!(h.p50() >= 500 && h.p50() <= 1000);
/// assert!(h.p99() >= 990);
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, resolved to the containing
    /// bucket's upper bound and clamped to the observed maximum. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolved; see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (bucket-resolved; see [`Histogram::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

persist_struct!(Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
});

/// Admission outcome counters. `submitted` counts every submission that
/// named this scope; the other counters partition their fates (a queued
/// submission is counted under `submitted` immediately and under its
/// outcome once the admitting tick drains it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Submissions received (including ones still queued).
    pub submitted: u64,
    /// Admitted into a [`QueryGroup`](sensjoin_core::QueryGroup).
    pub admitted: u64,
    /// Rejected: the named deployment does not exist.
    pub rejected_unknown_deployment: u64,
    /// Rejected: the tenant already has a live (or queued) query.
    pub rejected_duplicate: u64,
    /// Rejected: the SQL failed to parse or compile against the
    /// deployment's schema.
    pub rejected_invalid: u64,
    /// Rejected: every group of the deployment is at its 64-query
    /// capacity and the per-deployment group budget is exhausted.
    pub rejected_full: u64,
    /// Shed: the bounded admission queue was full on arrival.
    pub shed: u64,
}

impl AdmissionCounters {
    /// All structured rejections (excluding shed submissions).
    pub fn rejected(&self) -> u64 {
        self.rejected_unknown_deployment
            + self.rejected_duplicate
            + self.rejected_invalid
            + self.rejected_full
    }
}

persist_struct!(AdmissionCounters {
    submitted: u64,
    admitted: u64,
    rejected_unknown_deployment: u64,
    rejected_duplicate: u64,
    rejected_invalid: u64,
    rejected_full: u64,
    shed: u64,
});

/// Per-deployment serving metrics.
#[derive(Debug, Clone, Default)]
pub struct DeploymentMetrics {
    /// Admission counters scoped to submissions naming this deployment.
    pub admission: AdmissionCounters,
    /// Group epochs executed (one per group per tick).
    pub epochs: u64,
    /// Due-query results produced (tenant-epochs).
    pub query_epochs: u64,
    /// Distinct plans those results came from, summed over group epochs.
    /// `query_epochs / plan_epochs` is the sharing ratio: how many tenants
    /// one epoch slot, pre-join filter and exact join served on average.
    pub plan_epochs: u64,
    /// Result rows delivered across all tenant-epochs.
    pub result_rows: u64,
    /// Bytes actually transmitted by the shared protocol phases.
    pub shared_bytes: u64,
    /// Solo-equivalent bytes: what the same due queries would have cost
    /// run one-at-a-time (the scheduler's per-query accounting).
    pub solo_bytes: u64,
    /// Simulated epoch latency, one sample per executed group epoch.
    pub epoch_latency_us: Histogram,
}

persist_struct!(DeploymentMetrics {
    admission: AdmissionCounters,
    epochs: u64,
    query_epochs: u64,
    plan_epochs: u64,
    result_rows: u64,
    shared_bytes: u64,
    solo_bytes: u64,
    epoch_latency_us: Histogram,
});

/// Per-tenant serving metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantMetrics {
    /// Submissions by this tenant.
    pub submitted: u64,
    /// Admissions granted to this tenant.
    pub admitted: u64,
    /// Structured rejections returned to this tenant.
    pub rejected: u64,
    /// Submissions shed on a full queue.
    pub shed: u64,
    /// Due epochs in which this tenant received a result.
    pub epochs: u64,
    /// Result rows delivered to this tenant.
    pub result_rows: u64,
    /// Solo-equivalent bytes attributed to this tenant's due epochs.
    pub solo_bytes: u64,
}

persist_struct!(TenantMetrics {
    submitted: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    epochs: u64,
    result_rows: u64,
    solo_bytes: u64,
});

/// The whole metrics surface of a [`Server`](crate::Server).
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    per_deployment: Vec<DeploymentMetrics>,
    per_tenant: BTreeMap<TenantId, TenantMetrics>,
    /// Admission counters over every submission, regardless of deployment
    /// (this is the only scope that sees unknown-deployment rejections).
    pub totals: AdmissionCounters,
    /// Admissions that subscribed to a plan already live in their group.
    pub plans_joined: u64,
    /// Admissions that built a plan: no equal query was live in the group.
    pub plans_built: u64,
}

persist_struct!(ServeMetrics {
    per_deployment: Vec<DeploymentMetrics>,
    per_tenant: BTreeMap<TenantId, TenantMetrics>,
    totals: AdmissionCounters,
    plans_joined: u64,
    plans_built: u64,
});

impl ServeMetrics {
    pub(crate) fn push_deployment(&mut self) {
        self.per_deployment.push(DeploymentMetrics::default());
    }

    pub(crate) fn deployment_mut(&mut self, ix: usize) -> &mut DeploymentMetrics {
        &mut self.per_deployment[ix]
    }

    pub(crate) fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantMetrics {
        self.per_tenant.entry(tenant).or_default()
    }

    /// Metrics of deployment `ix` (registration order).
    pub fn deployment(&self, ix: usize) -> &DeploymentMetrics {
        &self.per_deployment[ix]
    }

    /// Per-deployment metrics, in registration order.
    pub fn deployments(&self) -> &[DeploymentMetrics] {
        &self.per_deployment
    }

    /// Metrics of one tenant, if it ever submitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantMetrics> {
        self.per_tenant.get(&tenant)
    }

    /// All tenants that ever submitted, ascending by id.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &TenantMetrics)> {
        self.per_tenant.iter().map(|(t, m)| (*t, m))
    }

    /// Epoch-latency histogram merged over all deployments.
    pub fn epoch_latency_us(&self) -> Histogram {
        let mut h = Histogram::default();
        for d in &self.per_deployment {
            h.merge(&d.epoch_latency_us);
        }
        h
    }

    /// Share of admissions that joined a live plan instead of building one
    /// (0 before the first admission). There is no cache behind the name:
    /// the repo benchmark calls it, and `benchmark/` changes only in
    /// benchmark PRs (ROADMAP item 7 renames it).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.plans_joined + self.plans_built;
        if total == 0 {
            0.0
        } else {
            self.plans_joined as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.p50(), 0);
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1000);
        assert!(h.p99() >= 1000 || h.p99() == h.max());
        // p50 of {0,1,2,3,4,100,1000} has rank 4 → sample 3 → bucket [2,4).
        assert!(h.p50() <= 3);
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 8);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0);
    }
}
