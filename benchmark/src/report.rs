//! Metric definitions and result output.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`:
//! a run with tracing off reports exactly [`END_TO_END`], a traced run
//! exactly [`PER_LAYER`], on every workload.

use crate::json::Json;
use std::collections::BTreeMap;

/// `(name, unit)`. All are lower-is-better; bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("sim_bytes_per_op", "bytes"),
    ("sim_latency_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)`, grouped by layer (= library module).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.host_speed", "ratio"),
    ("bench.op_ms_p50_raw", "ms"),
    ("bench.op_ms_tail_raw", "ms"),
    ("query.parse_us", "us"),
    ("query.compile_us", "us"),
    ("field.resample_ms", "ms"),
    ("zorder.quantize_ns_per_node", "ns"),
    ("quadtree.encode_ns_per_point", "ns"),
    ("quadtree.decode_ns_per_point", "ns"),
    ("quadtree.union_ns_per_point", "ns"),
    ("quadtree.intersect_ns_per_point", "ns"),
    ("quadtree.wire_bytes_per_point", "bytes"),
    ("simd.band_mask_ns_per_key", "ns"),
    ("simd.kernels_active", "count"),
    ("sim.topology_build_ms", "ms"),
    ("sim.routing_build_ms", "ms"),
    ("sim.unicast_ns_per_packet", "ns"),
    ("sim.tx_packets", "packets"),
    ("sim.retx_share", "ratio"),
    ("sim.ack_packets", "packets"),
    ("sim.lost_packets", "packets"),
    ("sim.bytes_collection", "bytes"),
    ("sim.bytes_filter", "bytes"),
    ("sim.bytes_final", "bytes"),
    ("sim.energy_uj_per_op", "uJ"),
    ("core.engine.joinspace_build_us", "us"),
    ("core.engine.prejoin_filter_ms", "ms"),
    ("core.engine.exact_join_ms", "ms"),
    ("core.engine.rows_per_s", "1/s"),
    ("core.engine.filter_fp_share", "ratio"),
    ("core.sensjoin.execute_ms", "ms"),
    ("core.wave.residual_ms", "ms"),
    ("core.wave.ns_per_node_event", "ns"),
    ("core.continuous.round_ms", "ms"),
    ("core.incremental.apply_delta_us", "us"),
    ("core.ingest.apply_batch_us", "us"),
    ("core.ingest.cold_load_ms", "ms"),
    ("core.ingest.candidates_per_op", "count"),
    ("core.scheduler.epoch_ms_k1", "ms"),
    ("core.scheduler.epoch_ms_k64", "ms"),
    ("core.scheduler.shared_over_solo_bytes", "ratio"),
    ("core.persist.encode_ms", "ms"),
    ("core.persist.save_snapshot_ms", "ms"),
    ("core.persist.append_wal_us", "us"),
    ("core.persist.recover_ms", "ms"),
    ("core.persist.snapshot_bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.admit_us_per_decision", "us"),
    ("serve.tick_ms", "ms"),
    ("serve.plan_cache_hit_share", "ratio"),
    ("serve.rejected_share", "ratio"),
    ("serve.export_state_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Takes over every metric of `other` whose name starts with one of
    /// `prefixes`.
    pub fn adopt(&mut self, other: &Metrics, prefixes: &[&str]) {
        for (&name, &value) in &other.0 {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.0.insert(name, value);
            }
        }
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// in table order.
    ///
    /// # Panics
    /// Panics when a metric of the table was not measured — the result line
    /// must never silently lack one.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
            )
        }))
    }

    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        for &(name, unit) in table {
            if let Some(v) = self.get(name) {
                println!("  {name:<40} {v:>16.4} {unit}");
            }
        }
    }
}

/// The last line of a run's standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_and_full_digits() {
        let mut m = Metrics::default();
        for &(name, _) in END_TO_END {
            m.set(name, 1.203456789012);
        }
        let line = result_line(30, 0, m.to_json(END_TO_END)).to_string();
        assert!(
            line.starts_with(
                "{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": {"
            ),
            "{line}"
        );
        assert!(
            line.contains("\"op_ms_p50\": {\"value\": 1.203456789012, \"unit\": \"ms\"}"),
            "{line}"
        );
        assert!(!line.contains('\n'));
        let failed = result_line(30, 2, m.to_json(END_TO_END)).to_string();
        assert!(failed.starts_with("{\"correct\": false"), "{failed}");
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug_not_a_gap() {
        Metrics::default().to_json(END_TO_END);
    }

    #[test]
    fn adopt_takes_only_the_named_families() {
        let mut foreign = Metrics::default();
        foreign.set("serve.tick_ms", 2.0);
        foreign.set("query.parse_us", 9.0);
        let mut own = Metrics::default();
        own.set("query.parse_us", 1.0);
        own.adopt(&foreign, &["serve.", "core.scheduler."]);
        assert_eq!(own.get("serve.tick_ms"), Some(2.0));
        assert_eq!(own.get("query.parse_us"), Some(1.0));
    }
}
