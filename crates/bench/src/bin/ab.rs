//! `ab`: compares two built benchmark binaries by alternated pairs.
//!
//! ```text
//! ab --parent BIN --change BIN --workload W --seeds 41-50 [--seconds 16] [--claim op_ms_p50:0.88] [--trace]
//! ```
//!
//! Each seed is one pair: both binaries run `--workload W --seed S
//! --seconds N --trace 0`, one after the other, the parent first on the
//! first pair and the change first on the next. With `--trace` both then
//! run again with `--trace 1`, in the same order, for the per-layer
//! metrics. Every run's result line is echoed to stderr as it lands. The
//! comparison stops with an error on a run that is not `correct` or a pair
//! whose `sim_*` metrics differ. At the end it prints the Markdown block a
//! CHANGES.md entry carries (per metric: medians, quartiles, wins, sign-test
//! p), with `--trace` the per-layer block under it, and, with `--claim`,
//! the verdict, exiting non-zero if the claim is not met.
//!
//! Only one comparison runs on a host at a time: a second one started
//! while the first holds `sensjoin-ab.lock` in the temp directory refuses
//! to start, because overlapping runs slow each other down.

use sensjoin_bench::ab::{layer_report, report, Claim, Pair, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    seeds: Vec<u64>,
    seconds: u64,
    claim: Option<Claim>,
    trace: bool,
}

const USAGE: &str = "usage: ab --parent BIN --change BIN --workload W --seeds A-B|A,B,.. \
                     [--seconds N] [--claim METRIC:RATIO] [--trace]";

fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    let num = |s: &str| s.parse::<u64>().map_err(|e| format!("--seeds {text}: {e}"));
    let seeds: Vec<u64> = match text.split_once('-') {
        Some((a, b)) => (num(a)?..=num(b)?).collect(),
        None => text.split(',').map(num).collect::<Result<_, _>>()?,
    };
    if seeds.len() < 2 {
        return Err(format!("--seeds {text}: quartiles need at least two pairs"));
    }
    Ok(seeds)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut parent, mut change, mut workload, mut seeds) = (None, None, None, None);
    let (mut seconds, mut claim, mut trace) = (16, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value()?)),
            "--change" => change = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?.clone()),
            "--seeds" => seeds = Some(parse_seeds(value()?)?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--claim" => claim = Some(Claim::parse(value()?)?),
            "--trace" => trace = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Args {
        parent: parent.ok_or_else(|| missing("--parent"))?,
        change: change.ok_or_else(|| missing("--change"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seeds: seeds.ok_or_else(|| missing("--seeds"))?,
        seconds,
        claim,
        trace,
    })
}

/// The host-wide lock of one comparison, released on drop.
struct Lock(PathBuf);

impl Lock {
    fn take() -> Result<Lock, String> {
        let path = std::env::temp_dir().join("sensjoin-ab.lock");
        for _ in 0..2 {
            match std::fs::File::create_new(&path) {
                Ok(_) => {
                    std::fs::write(&path, std::process::id().to_string())
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    return Ok(Lock(path));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    let alive = holder
                        .trim()
                        .parse::<u32>()
                        .is_ok_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
                    if alive {
                        return Err(format!(
                            "another comparison (pid {}) holds {}: runs must not overlap",
                            holder.trim(),
                            path.display()
                        ));
                    }
                    // Its holder is gone: a stale lock.
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(format!("{}: {e}", path.display())),
            }
        }
        Err(format!("could not take {}", path.display()))
    }
}

impl Drop for Lock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn run(bin: &Path, args: &Args, seed: u64, traced: bool) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run::from_output(&stdout).map_err(|e| {
        format!(
            "{} seed {seed} ({}): {e}\n{}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// The `i`-th pair, on `seed`: the parent first on even pairs.
fn run_pair(args: &Args, i: usize, seed: u64, traced: bool) -> Result<Pair, String> {
    let parent_first = i.is_multiple_of(2);
    let mut sides = [("parent", &args.parent), ("change", &args.change)];
    if !parent_first {
        sides.reverse();
    }
    let mut runs = Vec::new();
    for (side, bin) in sides {
        let r = run(bin, args, seed, traced)?;
        let shown: Vec<String> = r.metrics.iter().map(|(k, v)| format!("{k} {v}")).collect();
        eprintln!(
            "pair {}/{} seed {seed} {side}{}: correct {}, {}",
            i + 1,
            args.seeds.len(),
            if traced { " traced" } else { "" },
            r.correct,
            shown.join(", ")
        );
        runs.push(r);
    }
    let (first, second) = (runs.remove(0), runs.remove(0));
    let (parent, change) = if parent_first {
        (first, second)
    } else {
        (second, first)
    };
    let pair = Pair {
        seed,
        parent,
        change,
    };
    match pair.fault() {
        Some(fault) => Err(fault),
        None => Ok(pair),
    }
}

fn compare(args: &Args) -> Result<bool, String> {
    let _lock = Lock::take()?;
    let (mut pairs, mut traced) = (Vec::new(), Vec::new());
    for (i, &seed) in args.seeds.iter().enumerate() {
        pairs.push(run_pair(args, i, seed, false)?);
        if args.trace {
            traced.push(run_pair(args, i, seed, true)?);
        }
    }
    let seeds = match (args.seeds.first(), args.seeds.last()) {
        (Some(a), Some(b)) => format!("{a}–{b}"),
        _ => String::new(),
    };
    let header = format!(
        "`ab` over {} alternated pairs: `{}`, seeds {seeds}, `--seconds {}`, parent `{}`, change `{}`; every run `correct`, `sim_*` equal in every pair.",
        pairs.len(),
        args.workload,
        args.seconds,
        args.parent.display(),
        args.change.display(),
    );
    let (met, text) = report(&header, &pairs, args.claim.as_ref());
    print!("{text}");
    if args.trace {
        let header = "Per layer, from a `--trace 1` run of each binary after each pair:";
        print!("{}", layer_report(header, &traced));
    }
    Ok(met)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match compare(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seeds_are_a_range_or_a_list() {
        assert_eq!(parse_seeds("41-44").unwrap(), vec![41, 42, 43, 44]);
        assert_eq!(parse_seeds("7,3,9").unwrap(), vec![7, 3, 9]);
        assert!(parse_seeds("9-3").is_err());
        assert!(parse_seeds("5").is_err());
        assert!(parse_seeds("x").is_err());
    }

    #[test]
    fn arguments_need_both_binaries_a_workload_and_seeds() {
        let a = parse_args(&strings(&[
            "--parent",
            "p",
            "--change",
            "c",
            "--workload",
            "w",
            "--seeds",
            "1-2",
            "--claim",
            "op_ms_p50:0.9",
            "--trace",
        ]))
        .unwrap();
        assert_eq!((a.seeds.len(), a.seconds), (2, 16));
        assert!(a.claim.is_some() && a.trace);
        assert!(parse_args(&strings(&["--parent", "p", "--change", "c"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
        assert!(parse_args(&strings(&["--seeds"])).is_err());
    }
}
