#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Experiment harness: one function per table/figure of the paper's
//! evaluation (§VI), shared across the `fig*` binaries and `run_all`.
//!
//! Every experiment returns a Markdown report; the binaries print it, and
//! `run_all` assembles `EXPERIMENTS.md`. The default setting matches §VI:
//! 1500 nodes at the density of 1500/(1050 m)², 50 m range, 48-byte packets,
//! 5 % of the nodes in the result, `D_max` = 30 B. The base station sits at
//! a corner of the area (the paper does not state its position; a corner
//! maximizes tree depth and reproduces the paper's savings magnitudes best —
//! see EXPERIMENTS.md for the sensitivity to this choice).

pub mod ab;
pub mod benchjson;
pub mod experiments;
#[path = "../../../benchmark/src/json.rs"]
#[allow(dead_code)]
mod json;
pub mod report;

use sensjoin_core::{JoinMethod, JoinOutcome, SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, Placement};
use sensjoin_query::parse;
use sensjoin_sim::{BaseChoice, RadioConfig};

/// Default experiment seed (vary for repetitions).
pub const SEED: u64 = 20090331;

/// Builds the paper-default network with `n` nodes at constant density.
pub fn paper_network(n: usize, seed: u64) -> SensorNetwork {
    paper_network_with_radio(n, seed, RadioConfig::paper_default())
}

/// Like [`paper_network`] with an explicit radio configuration (used by the
/// packet-size experiment).
pub fn paper_network_with_radio(n: usize, seed: u64, radio: RadioConfig) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(Area::for_constant_density(n))
        .placement(Placement::UniformRandom { n })
        .fields(presets::indoor_climate())
        .base(BaseChoice::NearestCorner)
        .radio(radio)
        .seed(seed)
        .build()
        .expect("paper network builds")
}

/// Compiles `sql` and executes `method` on `snet`.
pub fn run(snet: &mut SensorNetwork, method: &dyn JoinMethod, sql: &str) -> JoinOutcome {
    let q = parse(sql).unwrap_or_else(|e| panic!("experiment query parses: {e}\n{sql}"));
    let cq = snet.compile(&q).expect("experiment query compiles");
    method.execute(snet, &cq).expect("execution succeeds")
}

/// Percentage saving of `ours` relative to `baseline`.
pub fn saving_pct(baseline: u64, ours: u64) -> f64 {
    100.0 * (1.0 - ours as f64 / baseline as f64)
}

/// Process-wide peak resident set size in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable. A high-water mark: it only ever
/// grows, so sample it right after the allocation of interest.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensjoin_core::{ExternalJoin, SensJoin};

    #[test]
    fn paper_network_scales_with_density() {
        let small = paper_network(200, 1);
        assert_eq!(small.len(), 200);
        let area = small.net().topology().area();
        let density = 200.0 / (area.width * area.height);
        let paper_density = 1500.0 / (1050.0 * 1050.0);
        assert!((density - paper_density).abs() < 1e-9);
    }

    #[test]
    fn run_executes_both_methods() {
        let mut s = paper_network(150, 2);
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 8.0 ONCE";
        let ext = run(&mut s, &ExternalJoin, sql);
        let sj = run(&mut s, &SensJoin::default(), sql);
        assert!(ext.result.same_result(&sj.result));
    }

    #[test]
    fn saving_formula() {
        assert_eq!(saving_pct(100, 20), 80.0);
        assert_eq!(saving_pct(100, 100), 0.0);
        assert!(saving_pct(100, 150) < 0.0);
    }
}
