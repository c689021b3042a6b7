//! The pairs protocol behind every speed claim: two built benchmark
//! binaries, run one after the other on each seed of a list, compared pair
//! by pair.
//!
//! The host drifts by tens of percent for minutes at a time, so a number is
//! only comparable with one taken back to back with it. A pair is the
//! parent's and the change's run on one seed; which binary runs first
//! alternates from pair to pair. Per metric the report gives both sides'
//! median and quartiles, how many pairs the change won, and the exact
//! two-sided sign-test p-value of that count; an end-to-end metric also
//! says whether it held — the change's median at most the parent's upper
//! quartile, the bar every metric a change does not claim must meet. A run
//! that is not `correct`,
//! or a pair whose simulated metrics (`sim_*`, deterministic in the seed)
//! differ, makes the comparison fail: the two binaries then do not run the
//! same protocol, and their times mean nothing side by side.
//!
//! This module holds the statistics and the reading of a result line;
//! `src/bin/ab.rs` runs the binaries. The result line's grammar, its metric
//! table and the quartile rule are the repo benchmark's own files, compiled
//! in here rather than copied.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[path = "../../../benchmark/src/report.rs"]
#[allow(dead_code)]
mod report_line;
#[path = "../../../benchmark/src/stats.rs"]
#[allow(dead_code)]
mod stats;

/// The end-to-end metrics a result line carries, all lower-is-better.
pub fn metrics() -> impl Iterator<Item = &'static str> {
    report_line::END_TO_END.iter().map(|&(name, _)| name)
}

/// What one benchmark run reported: its result line's verdict and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The run's own check of every op's result.
    pub correct: bool,
    /// Ops that failed.
    pub failed: f64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Reads the result object (`{"correct": …, "failed": …, "metrics":
    /// {name: {"value": v, …}, …}}`) from the last line of `output` that
    /// holds one.
    pub fn from_output(output: &str) -> Result<Run, String> {
        let line = output
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{') && l.contains("\"correct\""))
            .ok_or("no result line in the output")?;
        let json = Json::parse(line)?;
        let correct = json.get("correct") == Some(&Json::Bool(true));
        let failed = json
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let Some(Json::Obj(fields)) = json.get("metrics") else {
            return Err("the result line has no metrics object".into());
        };
        let metrics = fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Run {
            correct,
            failed,
            metrics,
        })
    }

    /// The value of `metric`, NaN if the run did not report it.
    pub fn metric(&self, metric: &str) -> f64 {
        self.metrics.get(metric).copied().unwrap_or(f64::NAN)
    }
}

/// One seed's parent and change runs.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The seed both ran.
    pub seed: u64,
    /// The parent binary's run.
    pub parent: Run,
    /// The change's run.
    pub change: Run,
}

impl Pair {
    /// Why this pair cannot be compared: a run that is not correct or that
    /// failed ops, or simulated metrics that differ between the two.
    pub fn fault(&self) -> Option<String> {
        for (side, run) in [("parent", &self.parent), ("change", &self.change)] {
            if !run.correct || run.failed != 0.0 {
                return Some(format!(
                    "seed {}: the {side} run is not correct ({} failed ops)",
                    self.seed, run.failed
                ));
            }
        }
        for m in metrics().filter(|m| m.starts_with("sim_")) {
            let (p, c) = (self.parent.metric(m), self.change.metric(m));
            if p.to_bits() != c.to_bits() {
                return Some(format!(
                    "seed {}: {m} differs, parent {p} and change {c}",
                    self.seed
                ));
            }
        }
        None
    }
}

/// Median and quartiles, the quartiles by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`), which is the benchmark's spread rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `values`, at least two. A metric a run did not
    /// report is NaN and sorts last.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = stats::quartiles(&v);
        Quartiles {
            q1,
            median: stats::median(&v),
            q3,
        }
    }

    /// The distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Exact two-sided sign-test p-value of `wins` against `losses` (ties
/// dropped): the chance, under a fair coin over `wins + losses` tosses, of
/// a split at least as uneven. 1 when there is no untied pair.
pub fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    let k = wins.min(losses);
    // Σ_{i ≤ k} C(n, i) / 2ⁿ, with C(n, i) built up in floating point.
    let (mut c, mut tail) = (1.0f64, 0.0f64);
    for i in 0..=k {
        if i > 0 {
            c = c * (n + 1 - i) as f64 / i as f64;
        }
        tail += c;
    }
    (2.0 * tail / 2f64.powi(n as i32)).min(1.0)
}

/// One metric over all pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// The parent's runs.
    pub parent: Quartiles,
    /// The change's runs.
    pub change: Quartiles,
    /// Pairs summarized.
    pub pairs: usize,
    /// Pairs in which the change read lower.
    pub wins: usize,
    /// Pairs in which the change read higher.
    pub losses: usize,
    /// [`sign_test_p`] of the two.
    pub p: f64,
}

impl MetricSummary {
    /// Summarizes `metric` over `pairs` (at least two).
    pub fn of(pairs: &[Pair], metric: &str) -> MetricSummary {
        let side = |f: fn(&Pair) -> &Run| -> Vec<f64> {
            pairs.iter().map(|p| f(p).metric(metric)).collect()
        };
        let (parent, change) = (side(|p| &p.parent), side(|p| &p.change));
        let wins = parent.iter().zip(&change).filter(|(p, c)| c < p).count();
        let losses = parent.iter().zip(&change).filter(|(p, c)| c > p).count();
        MetricSummary {
            parent: Quartiles::of(&parent),
            change: Quartiles::of(&change),
            pairs: pairs.len(),
            wins,
            losses,
            p: sign_test_p(wins, losses),
        }
    }

    /// The change's median over the parent's.
    pub fn ratio(&self) -> f64 {
        self.change.median / self.parent.median
    }

    /// Whether the metric held: the change's median is at most the
    /// parent's upper quartile. `None` when a side did not report it.
    pub fn held(&self) -> Option<bool> {
        let (change, bar) = (self.change.median, self.parent.q3);
        (!change.is_nan() && !bar.is_nan()).then_some(change <= bar)
    }
}

/// A claimed gain: `metric`'s change median at most `ratio` times the
/// parent's, lower in at least nine pairs of ten, and below the parent's
/// median by more than the parent's quartile spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The metric the gain is claimed on.
    pub metric: String,
    /// The largest change/parent median ratio the claim admits.
    pub ratio: f64,
}

impl Claim {
    /// Parses `metric:ratio`, e.g. `op_ms_p50:0.88`.
    pub fn parse(text: &str) -> Result<Claim, String> {
        let (metric, ratio) = text
            .split_once(':')
            .ok_or_else(|| format!("--claim {text}: expected METRIC:RATIO"))?;
        if !metrics().any(|m| m == metric) {
            return Err(format!("--claim: unknown metric {metric}"));
        }
        let ratio: f64 = ratio
            .parse()
            .map_err(|e| format!("--claim ratio {ratio}: {e}"))?;
        if !(ratio > 0.0 && ratio.is_finite()) {
            return Err(format!("--claim ratio {ratio} is not a positive number"));
        }
        Ok(Claim {
            metric: metric.to_owned(),
            ratio,
        })
    }

    /// The verdict over `s`, the claimed metric's summary: whether the
    /// claim holds, and one line saying why.
    pub fn verdict(&self, s: &MetricSummary) -> (bool, String) {
        let need = (9 * s.pairs).div_ceil(10);
        let gap = s.parent.median - s.change.median;
        let met = s.ratio() <= self.ratio && s.wins >= need && gap > s.parent.iqr();
        let line = format!(
            "claim `{}` ≤ {}×: **{}** — {:.3}×, lower in {} of {} (need {}), \
             median gap {:.4} against the parent's quartile spread {:.4}",
            self.metric,
            self.ratio,
            if met { "met" } else { "not met" },
            s.ratio(),
            s.wins,
            s.pairs,
            need,
            gap,
            s.parent.iqr(),
        );
        (met, line)
    }
}

/// The Markdown block a CHANGES.md entry carries: the setting, one row per
/// metric with whether it held ([`MetricSummary::held`]), and the claim's
/// verdict if there is one.
pub fn report(header: &str, pairs: &[Pair], claim: Option<&Claim>) -> (bool, String) {
    let mut out = String::new();
    let _ = writeln!(out, "{header}\n");
    let _ = writeln!(out, "{TABLE_HEAD} held |\n{TABLE_RULE}---|");
    let mut met = true;
    let mut verdict = None;
    for m in metrics() {
        let s = MetricSummary::of(pairs, m);
        let held = match s.held() {
            Some(true) => "held",
            Some(false) => "**moved**",
            None => "—",
        };
        let _ = writeln!(out, "{} {held} |", row(m, &s));
        if let Some(c) = claim.filter(|c| c.metric == m) {
            let (ok, line) = c.verdict(&s);
            met &= ok;
            verdict = Some(line);
        }
    }
    if let Some(line) = verdict {
        let _ = writeln!(out, "\n{line}");
    }
    (met, out)
}

/// The per-layer block printed under [`report`]'s: one row for every
/// metric that every traced run of both sides reports, in name order (so
/// grouped by layer). "Lower" and "higher" count pairs whatever the
/// metric's direction; a layer's unit and direction are in the benchmark's
/// table.
pub fn layer_report(header: &str, traced: &[Pair]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n{header}\n");
    let _ = writeln!(out, "{TABLE_HEAD}\n{TABLE_RULE}");
    let runs = || traced.iter().flat_map(|p| [&p.parent, &p.change]);
    let Some(first) = runs().next() else {
        return out;
    };
    for m in first.metrics.keys() {
        if runs().all(|r| r.metrics.contains_key(m)) {
            let _ = writeln!(out, "{}", row(m, &MetricSummary::of(traced, m)));
        }
    }
    out
}

const TABLE_HEAD: &str = "| metric | parent median | parent q1–q3 | change median | change q1–q3 | change/parent | lower | higher | sign-test p |";
const TABLE_RULE: &str = "|---|---|---|---|---|---|---|---|---|";

/// One metric's row of a table, without a line end.
fn row(metric: &str, s: &MetricSummary) -> String {
    format!(
        "| `{}` | {} | {}–{} | {} | {}–{} | {:.3}× | {} | {} | {:.4} |",
        metric,
        sig(s.parent.median),
        sig(s.parent.q1),
        sig(s.parent.q3),
        sig(s.change.median),
        sig(s.change.q1),
        sig(s.change.q3),
        s.ratio(),
        s.wins,
        s.losses,
        s.p,
    )
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(op_ms: f64, sim_bytes: f64) -> Run {
        let line = format!(
            "{{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"setup_s\": {{\"value\": 0.25, \"unit\": \"s\"}}, \
             \"op_ms_p50\": {{\"value\": {op_ms}, \"unit\": \"ms\"}}, \
             \"sim_bytes_per_op\": {{\"value\": {sim_bytes}, \"unit\": \"bytes\"}}, \
             \"sim_latency_ms\": {{\"value\": 996.5, \"unit\": \"ms\"}}, \
             \"peak_rss_mib\": {{\"value\": null, \"unit\": \"MiB\"}}}}}}"
        );
        Run::from_output(&format!(
            "continuous_lossy_1500 seed 3\n  op_ms_p50 5 ms\n{line}\n"
        ))
        .unwrap()
    }

    #[test]
    fn a_result_line_is_read_from_the_end_of_the_output() {
        let r = run(4.5, 35915.75);
        assert!(r.correct);
        assert_eq!(r.failed, 0.0);
        assert_eq!(r.metric("op_ms_p50"), 4.5);
        assert_eq!(r.metric("sim_bytes_per_op"), 35915.75);
        assert!(r.metric("peak_rss_mib").is_nan());
        assert!(r.metric("absent").is_nan());
        assert!(Run::from_output("no json here\n").is_err());
        assert!(Run::from_output("{\"correct\": true, \"metrics\": [}").is_err());
        let wrong = Run::from_output("{\"correct\": false, \"failed\": 2, \"metrics\": {}}");
        assert!(!wrong.unwrap().correct);
    }

    #[test]
    fn quartiles_are_the_exclusive_method() {
        let q = Quartiles::of(&[7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 5.0, 8.0));
        let q = Quartiles::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 2.5, 3.75));
        assert_eq!(q.iqr(), 2.5);
        // A metric one run did not report sorts last.
        let q = Quartiles::of(&[f64::NAN, 1.0, 2.0]);
        assert_eq!((q.q1, q.median), (1.0, 2.0));
        assert!(q.q3.is_nan());
    }

    #[test]
    fn the_sign_test_is_the_exact_binomial_tail() {
        // 10 of 10: 2 / 1024.
        assert_eq!(sign_test_p(10, 0), 2.0 / 1024.0);
        assert_eq!(sign_test_p(0, 10), 2.0 / 1024.0);
        // 8 of 10: 2 · (1 + 10 + 45) / 1024.
        assert_eq!(sign_test_p(8, 2), 112.0 / 1024.0);
        // 6 of 12: the whole distribution, capped at 1.
        assert_eq!(sign_test_p(6, 6), 1.0);
        assert_eq!(sign_test_p(0, 0), 1.0);
        // 9 of 12: 2 · (1 + 12 + 66 + 220) / 4096.
        assert_eq!(sign_test_p(9, 3), 598.0 / 4096.0);
    }

    #[test]
    fn a_pair_faults_on_an_incorrect_run_or_differing_simulated_metrics() {
        let pair = |parent: Run, change: Run| Pair {
            seed: 4,
            parent,
            change,
        };
        assert_eq!(pair(run(5.0, 100.0), run(4.0, 100.0)).fault(), None);
        let differs = pair(run(5.0, 100.0), run(4.0, 101.0)).fault().unwrap();
        assert!(differs.contains("sim_bytes_per_op differs"), "{differs}");
        let mut wrong = run(4.0, 100.0);
        wrong.correct = false;
        let fault = pair(run(5.0, 100.0), wrong).fault().unwrap();
        assert!(fault.contains("change run is not correct"), "{fault}");
        let mut failed = run(4.0, 100.0);
        failed.failed = 1.0;
        assert!(pair(failed, run(4.0, 100.0)).fault().is_some());
    }

    #[test]
    fn a_claim_needs_the_ratio_the_wins_and_a_gap_beyond_the_spread() {
        let pairs = |change: &[f64]| -> Vec<Pair> {
            let parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0];
            (parent.iter().zip(change).enumerate())
                .map(|(i, (&p, &c))| Pair {
                    seed: i as u64,
                    parent: run(p, 1.0),
                    change: run(c, 1.0),
                })
                .collect()
        };
        let claim = Claim::parse("op_ms_p50:0.88").unwrap();
        let check = |change: &[f64]| {
            let s = MetricSummary::of(&pairs(change), "op_ms_p50");
            (claim.verdict(&s).0, s.wins, s.losses)
        };
        // 0.85×, lower in 10 of 10.
        assert_eq!(check(&[8.5; 10]), (true, 10, 0));
        // Lower in 10 of 10 but only 0.95×: the ratio fails.
        assert_eq!(check(&[9.5; 10]), (false, 10, 0));
        // 0.85× in the median but lower in only 8 of 10.
        let eight = [8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 11.0, 11.0];
        assert_eq!(check(&eight), (false, 8, 2));
        // Ties count as pairs, not wins: 9 of 10 with one equal is enough,
        // 8 of 10 with two equal is not.
        let tied = [8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 10.0];
        assert_eq!(check(&tied), (true, 9, 0));
        let tied = [8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 8.5, 10.0, 10.0];
        assert_eq!(check(&tied), (false, 8, 0));
        // Lower in 4 of 4 at 0.92×, but by less than the parent's spread.
        let spread: Vec<Pair> = [(10.0, 9.0), (12.0, 11.0), (14.0, 13.0), (16.0, 15.0)]
            .iter()
            .map(|&(p, c)| Pair {
                seed: 0,
                parent: run(p, 1.0),
                change: run(c, 1.0),
            })
            .collect();
        let s = MetricSummary::of(&spread, "op_ms_p50");
        let claim = Claim::parse("op_ms_p50:0.95").unwrap();
        assert_eq!(
            (claim.verdict(&s).0, s.wins, s.parent.iqr()),
            (false, 4, 5.0)
        );
        let (_, line) = claim.verdict(&MetricSummary::of(&pairs(&[8.5; 10]), "op_ms_p50"));
        assert!(
            line.contains("**met**") && line.contains("lower in 10 of 10"),
            "{line}"
        );
        assert!(Claim::parse("op_ms_p50").is_err());
        assert!(Claim::parse("nope:0.9").is_err());
        assert!(Claim::parse("op_ms_p50:-1").is_err());
    }

    /// A traced run's result line: per-layer metrics only.
    fn traced(encode_ms: f64, extra: &str) -> Run {
        let line = format!(
            "{{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"core.persist.encode_ms\": {{\"value\": {encode_ms}, \"unit\": \"ms\"}}, \
             \"core.persist.snapshot_bytes\": {{\"value\": 239487, \"unit\": \"bytes\"}}, \
             \"core.wave.residual_ms\": {{\"value\": -0.5, \"unit\": \"ms\"}}{extra}}}}}"
        );
        Run::from_output(&line).unwrap()
    }

    #[test]
    fn the_layer_report_has_a_row_per_metric_every_run_reports() {
        let only_parent = ", \"serve.tick_ms\": {\"value\": 3, \"unit\": \"ms\"}";
        let pairs: Vec<Pair> = (0..4)
            .map(|i| Pair {
                seed: i,
                parent: traced(0.7 + 0.01 * i as f64, only_parent),
                change: traced(0.5 + 0.01 * i as f64, ""),
            })
            .collect();
        let text = layer_report("per layer", &pairs);
        assert!(text.starts_with("\nper layer\n\n| metric |"), "{text}");
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(
            rows,
            [
                "| `core.persist.encode_ms` | 0.7150 | 0.7025–0.7275 | 0.5150 | 0.5025–0.5275 | 0.720× | 4 | 0 | 0.1250 |",
                "| `core.persist.snapshot_bytes` | 239487 | 239487–239487 | 239487 | 239487–239487 | 1.000× | 0 | 0 | 1.0000 |",
                "| `core.wave.residual_ms` | -0.5000 | -0.5000–-0.5000 | -0.5000 | -0.5000–-0.5000 | 1.000× | 0 | 0 | 1.0000 |",
            ],
            "{text}"
        );
        assert!(!text.contains("serve.tick_ms"));
        assert_eq!(layer_report("none", &[]).lines().count(), 5);
    }

    /// An end-to-end metric held when the change's median is at most the
    /// parent's upper quartile, over fixed result lines.
    #[test]
    fn a_metric_held_when_the_change_median_is_within_the_parent_quartiles() {
        let pairs = |change: [f64; 4]| -> Vec<Pair> {
            (change.iter().enumerate())
                .map(|(i, &c)| Pair {
                    seed: i as u64,
                    parent: run(10.0 + i as f64, 5.0),
                    change: run(c, 5.0),
                })
                .collect()
        };
        // The parent reads 10–13: quartiles 10.25 and 12.75.
        let held = |change| MetricSummary::of(&pairs(change), "op_ms_p50").held();
        assert_eq!(held([9.0, 9.5, 10.0, 10.5]), Some(true));
        assert_eq!(held([12.0, 12.5, 13.0, 13.5]), Some(true), "median 12.75");
        assert_eq!(held([12.5, 13.0, 13.0, 14.0]), Some(false), "median 13");
        let (_, text) = report("`ab`: held", &pairs([12.5, 13.0, 13.0, 14.0]), None);
        let row = |metric: &str| {
            let head = format!("| `{metric}` |");
            text.lines()
                .find(|l| l.starts_with(&head))
                .unwrap_or_default()
        };
        assert!(row("op_ms_p50").ends_with(" | **moved** |"), "{text}");
        assert!(row("sim_bytes_per_op").ends_with(" | held |"), "{text}");
        // The test runs report no `peak_rss_mib`.
        assert!(row("peak_rss_mib").ends_with(" | — |"), "{text}");
        assert!(text.contains("| sign-test p | held |\n|---|---|---|---|---|---|---|---|---|---|"));
    }

    #[test]
    fn the_report_has_a_row_per_metric_and_the_verdict() {
        let pairs: Vec<Pair> = (0..4)
            .map(|i| Pair {
                seed: i,
                parent: run(10.0 + i as f64, 5.0),
                change: run(6.0 + i as f64, 5.0),
            })
            .collect();
        let claim = Claim::parse("op_ms_p50:0.9").unwrap();
        let (met, text) = report("`ab`: test", &pairs, Some(&claim));
        assert!(met, "{text}");
        assert!(text.starts_with("`ab`: test\n"));
        assert!(text.contains("| `op_ms_p50` | 11.50 | 10.25–12.75 | 7.500 | 6.250–8.750 | 0.652× | 4 | 0 | 0.1250 | held |"), "{text}");
        assert_eq!(text.matches("\n| `").count(), metrics().count());
        assert!(text.contains("claim `op_ms_p50` ≤ 0.9×: **met**"));
    }
}
