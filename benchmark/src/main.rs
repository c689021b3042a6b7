//! The repo benchmark. See `README.md` beside `Cargo.toml` for every
//! workload and metric by name.
//!
//! ```text
//! sensjoin-benchmark --workload W --seed S --seconds N --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     the result object (end-to-end metrics untraced, per-layer traced)
//! sensjoin-benchmark [--workload W] [--seed S] [--seconds N] [--trace] [--quick] [--out FILE]
//!     without --workload: every workload, each in its own child process,
//!     one after the other; --out collects their results in one file
//! sensjoin-benchmark compare A.json B.json
//! sensjoin-benchmark host-clock
//! sensjoin-benchmark --workload W --seed S --memory-pass
//!     what a run starts for itself: the host clock of a pass, and the
//!     process that reads `peak_rss_mib`
//! ```

mod compare;
mod hostclock;
mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::continuous::Continuous;
use workloads::oneshot::OneShot;
use workloads::serve::Serve;
use workloads::{RunConfig, NAMES};

const DEFAULT_SEED: u64 = 20090331;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

/// Calls `workloads::$f::<W>` with the workload type `$workload` names.
macro_rules! dispatch {
    ($workload:expr, $f:ident($($arg:expr),*)) => {
        match $workload {
            "continuous_lossy_1500" => workloads::$f::<Continuous>($($arg),*),
            "serve_512t_churn" => workloads::$f::<Serve>($($arg),*),
            _ => workloads::$f::<OneShot>($($arg),*),
        }
    };
}

/// Where trace files and checkpoint directories go: `out/` beside the
/// package's `Cargo.toml`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    /// Only between this binary and itself: see `workloads::measure`.
    memory_pass: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        memory_pass: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "run" => {}
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    NAMES
                        .iter()
                        .find(|&&n| n == name)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {name}; one of {NAMES:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--quick" => parsed.quick = true,
            workloads::MEMORY_PASS_ARG => parsed.memory_pass = true,
            "--out" => parsed.out = Some(value("a file")?.into()),
            // `--trace 0|1` from the driver, a bare `--trace` from a person.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// What a run can tell about the host it measured on.
fn host_fingerprint() -> Json {
    static CACHE: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
    CACHE.get_or_init(probe_host).clone()
}

fn probe_host() -> Json {
    let output_of = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let or_unknown = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernels_active",
            Json::from(sensjoin::core::kernels_active()),
        ),
        (
            "wave_mode",
            Json::Str(format!("{:?}", sensjoin::core::wave_mode())),
        ),
        ("rustc", or_unknown(output_of("rustc", &["--version"]))),
        (
            "commit",
            or_unknown(output_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// The traced run of one workload: its own traced pass and probes, plus —
/// for the layers its op never enters — the same measurements on the
/// quick-size variant of the workload that does enter them, so that every
/// traced run reports every layer.
fn run_traced(cfg: &RunConfig) -> (u64, u64, Metrics, Json) {
    const CONTINUOUS: &[&str] = &[
        "core.continuous.",
        "core.incremental.",
        "core.ingest.",
        "core.persist.",
    ];
    const SERVE: &[&str] = &["core.scheduler.", "serve."];
    let foreign = |workload| RunConfig {
        workload,
        quick: true,
        ..cfg.clone()
    };
    let own = dispatch!(cfg.workload, trace(cfg, false));
    let mut metrics = own.metrics.clone();
    let mut failed = own.failed;
    if cfg.workload != "continuous_lossy_1500" {
        let t = workloads::trace::<Continuous>(&foreign("continuous_lossy_1500"), true);
        metrics.adopt(&t.metrics, CONTINUOUS);
        failed += t.failed;
    }
    if cfg.workload != "serve_512t_churn" {
        let t = workloads::trace::<Serve>(&foreign("serve_512t_churn"), true);
        metrics.adopt(&t.metrics, SERVE);
        failed += t.failed;
    }

    let total: f64 = own.ledger.iter().map(|(_, ms)| ms).sum();
    println!("  ledger (ms per op, share of the op's attributed time):");
    for (layer, ms) in &own.ledger {
        println!("    {layer:<18} {ms:>12.4} {:>6.1} %", 100.0 * ms / total);
    }
    let file = Json::obj([
        ("workload", Json::from(cfg.workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("fingerprint", host_fingerprint()),
        (
            "ledger_ms_per_op",
            Json::obj(own.ledger.iter().map(|(l, ms)| (l.clone(), Json::Num(*ms)))),
        ),
        (
            "self_ms_by_layer",
            Json::obj(
                trace::layer_self_ns(own.spans.spans())
                    .into_iter()
                    .map(|(layer, ns)| (layer, Json::Num(ns as f64 / 1e6))),
            ),
        ),
        ("spans", own.spans.to_json()),
    ]);
    (own.attempted, failed, metrics, file)
}

/// One workload in this process. Returns the result line.
fn run_one(cfg: &RunConfig, traced: bool) -> Json {
    println!(
        "{} seed {} seconds {} trace {}{}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        traced as u8,
        if cfg.quick { " quick" } else { "" }
    );
    println!("  host {}", host_fingerprint());
    if traced {
        let (attempted, failed, metrics, file) = run_traced(cfg);
        let path = out_dir().join(format!("trace-{}.json", cfg.workload));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, file.to_string()))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("  spans written to {}", path.display());
        metrics.print(PER_LAYER);
        report::result_line(attempted, failed, metrics.to_json(PER_LAYER))
    } else {
        let m = dispatch!(cfg.workload, measure(cfg));
        m.metrics.print(END_TO_END);
        report::result_line(m.attempted, m.failed, m.metrics.to_json(END_TO_END))
    }
}

/// Runs `workload` in a child process and returns its result line.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Json, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's report goes straight to this terminal; only the last
    // line is needed back.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Json::parse(stdout.lines().last().unwrap_or_default())
}

fn is_correct(line: &Json) -> bool {
    line.get("correct") == Some(&Json::Bool(true))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in NAMES {
        let mut entry = vec![("end_to_end".to_owned(), run_child(args, workload, false)?)];
        if args.trace {
            entry.push(("per_layer".to_owned(), run_child(args, workload, true)?));
        }
        all_correct &= entry.iter().all(|(_, line)| is_correct(line));
        results.push((workload.to_owned(), Json::Obj(entry)));
    }
    if let Some(path) = &args.out {
        let file = Json::obj([
            ("fingerprint", host_fingerprint()),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("workloads", Json::Obj(results)),
        ]);
        std::fs::write(path, file.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(hostclock::CHILD_ARG) {
        hostclock::serve();
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("usage: compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload {
        Some(workload) => {
            let cfg = RunConfig {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                quick: args.quick,
            };
            if args.memory_pass {
                println!("{}", dispatch!(workload, memory(&cfg)));
                return ExitCode::SUCCESS;
            }
            let line = run_one(&cfg, args.trace);
            println!("{line}");
            is_correct(&line)
        }
        None => match run_all(&args) {
            Ok(correct) => correct,
            Err(e) => {
                eprintln!("{e}");
                false
            }
        },
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_and_human_forms_of_the_command_line_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "oneshot_q3_1500",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some("oneshot_q3_1500"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 10, true, false));
        let a = parse_args(&strings(&["--trace", "0", "--seed", "3"])).unwrap();
        assert_eq!((a.seed, a.trace), (3, false));
        let a = parse_args(&strings(&["run", "--quick", "--trace", "--out", "A.json"])).unwrap();
        assert!(a.trace && a.quick && a.workload.is_none());
        assert_eq!(a.out.as_deref(), Some(Path::new("A.json")));
        assert_eq!((a.seed, a.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to what the
    /// program reports.
    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = spec.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            items
                .iter()
                .map(|item| item.get(field).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let (names, units): (Vec<_>, Vec<_>) = END_TO_END.iter().copied().unzip();
        assert_eq!(listed("end_to_end", "name"), names);
        assert_eq!(listed("end_to_end", "unit"), units);
        let (names, units): (Vec<_>, Vec<_>) = PER_LAYER.iter().copied().unzip();
        assert_eq!(listed("per_layer", "name"), names);
        assert_eq!(listed("per_layer", "unit"), units);
        assert_eq!(listed("workloads", "name"), NAMES);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
