//! The three one-shot workloads. An op is one query from SQL text to exact
//! result: `parse` + `compile` + `SensJoin::execute`.

use super::{
    build_network, fingerprint, span_ms_per_op, Fingerprint, RunConfig, SimTally, Workload,
};
use crate::probes;
use crate::report::Metrics;
use crate::trace::{Span, Tracer};
use sensjoin::core::{ExternalJoin, JoinMethod, JoinOutcome, JoinResult, SensJoin, SensorNetwork};
use sensjoin::field::{presets, FieldSpec};
use sensjoin::query::parse;
use sensjoin::relation::NodeId;
use std::collections::BTreeSet;

struct Spec {
    name: &'static str,
    nodes: usize,
    sql: &'static str,
    warm_up: usize,
    /// Timed ops per second of `--seconds` (what the reference host
    /// sustains, rounded down).
    ops_per_second: f64,
}

const SPECS: [Spec; 3] = [
    // ~0.5 % of the nodes contribute: the three waves over a working set
    // far outside cache are ~95 % of the op, the base-station join is noise.
    Spec {
        name: "oneshot_sparse_100k",
        nodes: 100_000,
        sql: "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 15.0 ONCE",
        warm_up: 1,
        ops_per_second: 1.25,
    },
    // Every node contributes and the result has ~1.8 M rows: index build
    // and pair enumeration in `exact_join` dominate, the waves are small.
    Spec {
        name: "oneshot_dense_5k",
        nodes: 5_000,
        sql: "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE",
        warm_up: 2,
        ops_per_second: 2.25,
    },
    // The paper's Q3 at the paper's size: a 3-D join space whose quadtree
    // payloads and Selective Filter Forwarding carry most of the op.
    Spec {
        name: "oneshot_q3_1500",
        nodes: 1_500,
        sql: "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
              WHERE |A.temp - B.temp| < 0.3 AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
        warm_up: 3,
        ops_per_second: 5.0,
    },
];

/// The reference result, held as a fingerprint plus the contributor set.
struct Oracle {
    result: JoinResult,
    fingerprint: Fingerprint,
    contributors: BTreeSet<NodeId>,
}

pub struct OneShot {
    spec: &'static Spec,
    snet: SensorNetwork,
    specs: Vec<FieldSpec>,
    oracle: Option<Oracle>,
    tally: SimTally,
}

impl OneShot {
    fn execute(&mut self, tracer: &mut Tracer) -> JoinOutcome {
        let s = tracer.enter("query.parse");
        let parsed = parse(self.spec.sql).expect("workload SQL parses");
        tracer.exit(s, 0);
        let s = tracer.enter("query.compile");
        let cq = self.snet.compile(&parsed).expect("workload SQL compiles");
        tracer.exit(s, 0);
        let s = tracer.enter("core.sensjoin.execute");
        let out = SensJoin::default()
            .execute(&mut self.snet, &cq)
            .expect("the base station is connected");
        tracer.exit(s, out.result.len() as u64);
        out
    }
}

impl Workload for OneShot {
    type Out = JoinOutcome;

    fn setup(cfg: &RunConfig) -> Self {
        let spec = SPECS
            .iter()
            .find(|s| s.name == cfg.workload)
            .expect("a one-shot workload name");
        let specs = presets::indoor_climate();
        let mut w = OneShot {
            spec,
            snet: build_network(cfg.scale(spec.nodes, 75), cfg.seed, &specs),
            specs,
            oracle: None,
            tally: SimTally::default(),
        };
        for _ in 0..spec.warm_up {
            w.execute(&mut Tracer::new(false));
        }
        w
    }

    fn build_oracle(&mut self) {
        let parsed = parse(self.spec.sql).expect("workload SQL parses");
        let cq = self.snet.compile(&parsed).expect("workload SQL compiles");
        let ext = ExternalJoin
            .execute(&mut self.snet, &cq)
            .expect("the base station is connected");
        self.oracle = Some(Oracle {
            fingerprint: fingerprint(&ext.result),
            result: ext.result,
            contributors: ext.contributors,
        });
    }

    fn timed_ops(&self, cfg: &RunConfig) -> usize {
        cfg.timed_ops(self.spec.ops_per_second)
    }

    fn op(&mut self, _i: usize, tracer: &mut Tracer) -> JoinOutcome {
        self.execute(tracer)
    }

    fn check(&mut self, i: usize, _last: bool, out: JoinOutcome) -> bool {
        self.tally.ops += 1;
        self.tally.cost_bytes += out.stats.total_cost_bytes();
        self.tally.latency_us += out.latency_us;
        self.tally.add_stats(&out.stats);
        let oracle = self.oracle.as_ref().expect("oracle built before ops");
        out.complete
            && fingerprint(&out.result) == oracle.fingerprint
            && out.contributors == oracle.contributors
            && (i > 0 || out.result.same_result(&oracle.result))
    }

    fn tally(&self) -> &SimTally {
        &self.tally
    }

    fn probes(
        &mut self,
        spans: &[Span],
        traced_ops: usize,
        m: &mut Metrics,
        ledger: &mut Vec<(String, f64)>,
        _family_only: bool,
    ) {
        let execute = span_ms_per_op(spans, "core.sensjoin.execute", traced_ops);
        let breakdown =
            probes::oneshot_family(&self.snet, self.spec.sql, &self.specs, Some(execute), m);
        let query = span_ms_per_op(spans, "query.parse", traced_ops)
            + span_ms_per_op(spans, "query.compile", traced_ops);
        ledger.push(("query".into(), query));
        breakdown.ledger(ledger);
    }
}
