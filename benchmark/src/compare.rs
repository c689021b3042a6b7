//! `compare A B`: per (workload, end-to-end metric) both medians, the
//! relative change, the bound from `BENCHMARK.json`, and a verdict.
//!
//! `A` and `B` are result files written with `--out`, or comma-separated
//! lists of them (several runs of one commit). With several runs a side's
//! value is its median and its spread the distance between its quartiles as
//! a share of that median. All end-to-end metrics are lower-is-better.

use crate::json::Json;
use crate::report::END_TO_END;
use crate::stats;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell — unless every run of `B` reads better than every run
    /// of `A`.
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let med = |v: &[f64]| stats::median_of(v.to_vec());
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { stats::spread(v) };
    let worst_b = b.iter().copied().fold(f64::MIN, f64::max);
    let best_a = a.iter().copied().fold(f64::MAX, f64::min);
    if (spread(a) > bound || spread(b) > bound) && worst_b >= best_a {
        Verdict::Unresolved
    } else if med(b) > med(a) * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Every run's value of `workload`/`metric` in a comma-separated file list.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Bounds by metric name, from the `BENCHMARK.json` above this package.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

pub fn run(a: &str, b: &str) -> ExitCode {
    let loaded = load(a).and_then(|a| Ok((a, load(b)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut worse = false;
    for workload in crate::workloads::NAMES {
        for &(metric, _) in END_TO_END {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bounds
                .iter()
                .find(|(name, _)| name == metric)
                .map_or(0.0, |(_, bound)| *bound);
            let (ma, mb) = (stats::median_of(va.clone()), stats::median_of(vb.clone()));
            let verdict = verdict(&va, &vb, bound);
            worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<24} {metric:<18} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%  {}",
                100.0 * (mb - ma) / ma,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Single runs: the medians decide.
        assert_eq!(verdict(&[100.0], &[109.0], 0.10), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[111.0], 0.10), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[50.0], 0.10), Verdict::Ok);
        // Tight runs on both sides.
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0], 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &[104.0, 105.0, 103.0], 0.10), Verdict::Ok);
        // A side noisier than the bound cannot show "unchanged" ...
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(verdict(&noisy, &[100.0, 101.0], 0.10), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &[70.0, 75.0], 0.10), Verdict::Ok);
        // A zero bound accepts only values that do not rise.
        assert_eq!(verdict(&[5.0], &[5.0], 0.0), Verdict::Ok);
        assert_eq!(verdict(&[5.0], &[5.1], 0.0), Verdict::Worse);
    }
}
