//! How fast the host is right now, measured by a fixed piece of work that
//! calls nothing of the library.
//!
//! The sandbox host drifts: within two hours the same binary on the same
//! inputs ran every workload 25 to 45 % slower, then faster again, for tens
//! of minutes at a time. Wall-clock metrics are therefore stated at
//! reference host speed: each reading is multiplied by
//! [`REFERENCE_TICK_MS`] over the tick taken just before it, which cancels
//! a slowdown that hits the tick and the measured work alike. The readings
//! as measured are printed beside them.
//!
//! The work runs in a child process of its own (this binary, started as
//! `host-clock`), so that neither its memory nor what it does to the
//! allocator's thresholds is the workload's.

use crate::stats;
use crate::workloads::{splitmix, DEPLOYMENT_SEED};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A tick on the reference host (2 cores, avx2+bmi2) in a quiet phase, ms.
pub const REFERENCE_TICK_MS: f64 = 13.5;

/// The argument that makes this binary the clock's child.
pub const CHILD_ARG: &str = "host-clock";

/// The child: one tick per line read, its milliseconds printed back; ends
/// when the parent closes the pipe.
pub fn serve() {
    // Sattolo's shuffle: a permutation with a single cycle, so the walk
    // below visits slots in an order caches cannot predict.
    let mut chain: Vec<u32> = (0..1 << 21).collect();
    let mut rng = DEPLOYMENT_SEED;
    for i in (1..chain.len()).rev() {
        rng = splitmix(rng);
        chain.swap(i, (rng % i as u64) as usize);
    }
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).is_ok_and(|n| n > 0) {
        line.clear();
        println!("{}", work(&chain));
    }
}

/// Small allocations, trigonometry, a sort, one write to each page of
/// 16 MiB, and a dependent walk over 8 MiB. Returns the milliseconds taken.
fn work(chain: &[u32]) -> f64 {
    let t0 = Instant::now();
    let rows: Vec<Vec<f64>> = (0..40_000)
        .map(|i| vec![i as f64, (i as f64 * 1e-3).cos()])
        .collect();
    let mut keys: Vec<u64> = (0..50_000).map(splitmix).collect();
    keys.sort_unstable();
    let mut pages = vec![0u8; 16 << 20];
    for page in pages.chunks_mut(4096) {
        page[0] = 1;
    }
    let mut at = 0u32;
    for _ in 0..50_000 {
        at = chain[at as usize];
    }
    std::hint::black_box((rows, keys, pages, at));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The parent's handle on the clock.
pub struct HostClock {
    child: Child,
    answers: BufReader<ChildStdout>,
    ticks: Vec<f64>,
}

impl HostClock {
    pub fn start() -> Self {
        let mut child = Command::new(std::env::current_exe().expect("this binary has a path"))
            .arg(CHILD_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the benchmark can start itself");
        let answers = BufReader::new(child.stdout.take().expect("piped above"));
        Self {
            child,
            answers,
            ticks: Vec::new(),
        }
    }

    fn ask(&mut self) -> f64 {
        let pipe = self.child.stdin.as_mut().expect("piped at start");
        pipe.write_all(b"\n").expect("the clock is listening");
        let mut line = String::new();
        self.answers
            .read_line(&mut line)
            .expect("the clock answers");
        line.trim().parse().expect("the clock answers in ms")
    }

    /// Runs the work once. Returns the factor that states a reading taken
    /// right now at reference host speed.
    pub fn tick(&mut self) -> f64 {
        let mut ms = 0.0;
        // A tick the hypervisor interrupted measures the neighbours, not
        // the host's speed; take another.
        for _ in 0..3 {
            let stolen = steal_jiffies();
            ms = self.ask();
            if steal_jiffies() == stolen {
                break;
            }
        }
        self.ticks.push(ms);
        REFERENCE_TICK_MS / ms
    }

    /// The run's median factor.
    pub fn speed(&self) -> f64 {
        REFERENCE_TICK_MS / stats::median_of(self.ticks.clone())
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        // `wait` closes the child's stdin first, which ends its loop.
        let _ = self.child.wait();
    }
}

/// Hundredths of a second, summed over the CPUs, in which a CPU of this
/// guest was ready to run and the hypervisor ran something else (`steal`
/// of `/proc/stat`); 0 where `/proc` is unavailable.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}
