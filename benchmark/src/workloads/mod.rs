//! The five workloads and the driver that measures them.
//!
//! A workload is a closed loop with one client: the driver issues the next
//! op only when the previous one has returned and been checked. Op counts
//! are a fixed function of `--seconds`, not of how fast the host is, so the
//! simulated metrics and every count repeat exactly for a given seed.

pub mod continuous;
pub mod oneshot;
pub mod serve;

use crate::hostclock::{steal_jiffies, HostClock};
use crate::report::Metrics;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use sensjoin::core::{
    attr_type_for, ExternalData, JoinResult, SensorNetwork, SensorNetworkBuilder,
};
use sensjoin::field::{generate_readings, Area, FieldSpec, Placement};
use sensjoin::query::CompiledQuery;
use sensjoin::relation::NodeId;
use sensjoin::sim::{BaseChoice, NetworkStats};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = [
    "oneshot_sparse_100k",
    "oneshot_dense_5k",
    "oneshot_q3_1500",
    "continuous_lossy_1500",
    "serve_512t_churn",
];

/// The deployment every seed shares: where the nodes stand (and with it the
/// routing tree) and the climate they sample. The seed draws what differs
/// from one day to the next on a fixed deployment — each node's measurement
/// noise, the channel's losses, the tenant mix. A fresh placement and field
/// per seed changes result sizes severalfold and simulated latency by a
/// fifth from one seed to the next, and the workloads would stop being the
/// regimes they are named after.
pub const DEPLOYMENT_SEED: u64 = 20090331;

/// How many set-ups one run times; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    /// Sizes and op counts divided by twenty; same code paths and checks.
    pub quick: bool,
}

impl RunConfig {
    /// Timed ops of a workload that sustains `per_second` ops on the
    /// reference host: `--seconds` worth of them, a twentieth in quick mode.
    pub fn timed_ops(&self, per_second: f64) -> usize {
        let full = per_second * self.seconds as f64;
        let n = if self.quick { full / 20.0 } else { full };
        (n as usize).max(4)
    }

    pub fn scale(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// Simulated cost summed over ops. The counts come from the library's own
/// `NetworkStats`; nothing here is timed.
#[derive(Debug, Default, Clone)]
pub struct SimTally {
    pub ops: u64,
    pub cost_bytes: u64,
    pub latency_us: u64,
    pub tx_packets: u64,
    pub retx_packets: u64,
    pub ack_packets: u64,
    pub lost_packets: u64,
    pub bytes_collection: u64,
    pub bytes_filter: u64,
    pub bytes_final: u64,
    pub energy_uj: f64,
}

impl SimTally {
    /// Adds one execution's statistics. Every protocol labels its phases
    /// `1-…` (collection), `2-…` (filter dissemination) and `3-…` (final).
    pub fn add_stats(&mut self, stats: &NetworkStats) {
        self.tx_packets += stats.total_tx_packets();
        self.retx_packets += stats.total_retx_packets();
        self.ack_packets += stats.total_ack_packets();
        self.lost_packets += stats.total_lost_packets();
        self.energy_uj += stats.total_energy_uj();
        for (phase, s) in stats.phases() {
            let slot = match phase.as_bytes().first() {
                Some(b'1') => &mut self.bytes_collection,
                Some(b'2') => &mut self.bytes_filter,
                Some(b'3') => &mut self.bytes_final,
                _ => continue,
            };
            *slot += s.cost_bytes();
        }
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.ops as f64
    }

    pub fn layer_metrics(&self, m: &mut Metrics) {
        let sent = self.tx_packets + self.retx_packets;
        m.set("sim.tx_packets", self.per_op(self.tx_packets as f64));
        m.set(
            "sim.retx_share",
            if sent == 0 {
                0.0
            } else {
                self.retx_packets as f64 / sent as f64
            },
        );
        m.set("sim.ack_packets", self.per_op(self.ack_packets as f64));
        m.set("sim.lost_packets", self.per_op(self.lost_packets as f64));
        m.set(
            "sim.bytes_collection",
            self.per_op(self.bytes_collection as f64),
        );
        m.set("sim.bytes_filter", self.per_op(self.bytes_filter as f64));
        m.set("sim.bytes_final", self.per_op(self.bytes_final as f64));
        m.set("sim.energy_uj_per_op", self.per_op(self.energy_uj));
    }
}

pub trait Workload: Sized {
    /// What an op hands to its check.
    type Out;

    /// Builds networks and deployments, compiles, admits, and runs the
    /// warm-up ops: everything `setup_s` covers.
    fn setup(cfg: &RunConfig) -> Self;

    /// Builds the reference results. Not part of `setup_s`.
    fn build_oracle(&mut self);

    fn timed_ops(&self, cfg: &RunConfig) -> usize;

    /// One op, spans around each call into a layer.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> Self::Out;

    /// Verifies the op's result and adds its simulated cost to the tally;
    /// runs outside the timed interval. `last` marks the run's final op.
    /// `false` is a failed op.
    fn check(&mut self, i: usize, last: bool, out: Self::Out) -> bool;

    fn tally(&self) -> &SimTally;

    /// Shadow probes and per-layer metrics of the traced pass. `ledger`
    /// receives `(layer, ms per op)` rows that partition the op.
    fn probes(
        &mut self,
        spans: &[Span],
        traced_ops: usize,
        m: &mut Metrics,
        ledger: &mut Vec<(String, f64)>,
        family_only: bool,
    );

    /// Removes what the run left on disk.
    fn teardown(&mut self) {}
}

pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Op times of one pass.
struct OpTimes {
    /// As measured, ms.
    raw: Vec<f64>,
    /// At reference host speed, ms.
    reference: Vec<f64>,
    /// Per op: stolen CPU time over the op's time as measured.
    stolen: Vec<f64>,
    failed: u64,
    /// Seconds the whole pass took: ops, their checks, and the ticks.
    pass_s: f64,
}

impl OpTimes {
    /// Median op time at reference host speed over the ops the hypervisor
    /// left alone.
    fn p50(&self) -> f64 {
        stats::calm_median(&self.reference, &self.stolen)
    }
}

/// Runs up to `n` ops, each timed on its own and checked outside the timed
/// interval; stops early once `budget` has passed.
fn run_ops<W: Workload>(
    w: &mut W,
    first: usize,
    n: usize,
    budget: Option<Duration>,
    clock: &mut HostClock,
    tracer: &mut Tracer,
) -> OpTimes {
    let mut times = OpTimes {
        raw: Vec::with_capacity(n),
        reference: Vec::with_capacity(n),
        stolen: Vec::with_capacity(n),
        failed: 0,
        pass_s: 0.0,
    };
    let started = Instant::now();
    // About thirty ticks a pass, spread evenly between the ops.
    let every = (n / 32).max(1);
    let mut speed = 1.0;
    for i in first..first + n {
        if (i - first).is_multiple_of(every) {
            speed = clock.tick();
        }
        tracer.next_op();
        let stolen = steal_jiffies();
        let t0 = Instant::now();
        let root = tracer.enter("bench.op");
        let out = w.op(i, tracer);
        tracer.exit(root, 0);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stolen = steal_jiffies() - stolen;
        times.raw.push(ms);
        times.reference.push(ms * speed);
        times.stolen.push(10.0 * stolen as f64 / ms);
        if !w.check(i, i + 1 == first + n, out) {
            times.failed += 1;
        }
        if budget.is_some_and(|b| started.elapsed() > b) {
            break;
        }
    }
    times.pass_s = started.elapsed().as_secs_f64();
    times
}

/// Sets a workload up and returns it with the seconds that took.
fn timed_setup<W: Workload>(cfg: &RunConfig, clock: &mut HostClock) -> (W, f64) {
    clock.tick();
    let t0 = Instant::now();
    let w = W::setup(cfg);
    (w, t0.elapsed().as_secs_f64())
}

/// The untraced pass: every end-to-end metric.
pub fn measure<W: Workload>(cfg: &RunConfig) -> Measured {
    let mut clock = HostClock::start();
    let (mut w, first_setup_s) = timed_setup::<W>(cfg, &mut clock);
    w.build_oracle();
    // The op count is planned from `--seconds`; a host much slower than the
    // reference one gets a quarter more time and then fewer ops, so a run
    // stays within what the driver budgets for it.
    let planned = w.timed_ops(cfg);
    let budget = Duration::from_secs_f64(1.25 * cfg.seconds as f64);
    let ops = run_ops(
        &mut w,
        0,
        planned,
        Some(budget),
        &mut clock,
        &mut Tracer::new(false),
    );
    let n = ops.raw.len();
    if n < planned {
        eprintln!(
            "  slow host: {n} of {planned} planned ops fit in {budget:?}; simulated metrics of \
             workloads whose ops differ (continuous, serve) cover fewer ops than usual"
        );
    }
    w.teardown();
    let tally = w.tally().clone();
    drop(w);
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUP_REPS {
        let (mut again, seconds) = timed_setup::<W>(cfg, &mut clock);
        again.teardown();
        setups.push(seconds);
    }
    // One set-up is too long for the tick before it to speak for it; the
    // run's median speed does.
    let setup_s = stats::median_of(setups);

    let op_ms_p50 = ops.p50();
    let raw = stats::sorted(ops.raw);
    let (tail, pct) = stats::supported_tail(&raw);
    println!(
        "  as measured: setup {:.4} s, op p50 {:.4} ms, op p{pct} {tail:.4} ms over {n} timed \
         ops in {:.1} s ({:.1} s of it checks and ticks); host speed x{:.4} of reference",
        setup_s,
        stats::median(&raw),
        ops.pass_s,
        ops.pass_s - raw.iter().sum::<f64>() / 1e3,
        clock.speed()
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s * clock.speed());
    m.set("op_ms_p50", op_ms_p50);
    m.set(
        "sim_bytes_per_op",
        tally.cost_bytes as f64 / tally.ops as f64,
    );
    m.set(
        "sim_latency_ms",
        tally.latency_us as f64 / tally.ops as f64 / 1e3,
    );
    m.set("peak_rss_mib", memory_pass(cfg));
    Measured {
        attempted: n as u64,
        failed: ops.failed,
        metrics: m,
    }
}

/// The argument that makes this binary the memory pass of a workload.
pub const MEMORY_PASS_ARG: &str = "--memory-pass";

/// `peak_rss_mib` of `cfg`'s workload: this binary once more, as the memory
/// pass ([`memory`]), with glibc held to one arena.
///
/// By default every thread gets a heap of its own that keeps what the thread
/// freed, so how much stays resident depends on which thread happened to do
/// which share of the work: `oneshot_sparse_100k` peaked at 146, 162, 187 or
/// 210 MiB from one run to the next, and at 127.7 ± 0.3 MiB with one arena.
/// One arena makes two allocating threads wait for each other (a serve tick
/// takes three times as long), which is why timing and memory are measured
/// in separate processes.
fn memory_pass(cfg: &RunConfig) -> f64 {
    let mut cmd = Command::new(std::env::current_exe().expect("this binary has a path"));
    cmd.args(["--workload", cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .arg(MEMORY_PASS_ARG)
        .env("MALLOC_ARENA_MAX", "1");
    if cfg.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    assert!(output.status.success(), "memory pass: {}", output.status);
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("the memory pass prints MiB")
}

/// The memory pass, which runs in a process of its own: sets the workload
/// up, then runs one op and returns the highest resident set during it, in
/// MiB. What stays resident between ops is in; set-up's transient memory,
/// the oracle and the checks are not.
pub fn memory<W: Workload>(cfg: &RunConfig) -> f64 {
    // glibc raises its mmap threshold to the largest block freed so far, up
    // to 32 MiB, and from then on keeps blocks of that size on the heap.
    // Which op first frees a large block depends on thread timing; freeing
    // one of the largest size first puts every run in the state a
    // long-lived process reaches anyway.
    drop(std::hint::black_box(Vec::<u8>::with_capacity(
        (32 << 20) - (8 << 10),
    )));
    let mut w = W::setup(cfg);
    reset_peak_rss();
    std::hint::black_box(w.op(0, &mut Tracer::new(false)));
    let peak = peak_rss_mib();
    w.teardown();
    peak
}

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub ledger: Vec<(String, f64)>,
    pub spans: Tracer,
}

/// The traced pass: a quarter of the ops untraced, to have a baseline taken
/// in the same process, then a quarter traced, then the shadow probes.
pub fn trace<W: Workload>(cfg: &RunConfig, family_only: bool) -> Traced {
    let mut w = W::setup(cfg);
    w.build_oracle();
    let n = (w.timed_ops(cfg) / 4).max(4);
    let mut clock = HostClock::start();
    let plain = run_ops(&mut w, 0, n, None, &mut clock, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = run_ops(&mut w, n, n, None, &mut clock, &mut tracer);

    let mut m = Metrics::default();
    let mut ledger = Vec::new();
    w.probes(tracer.spans(), n, &mut m, &mut ledger, family_only);
    w.teardown();
    if !family_only {
        w.tally().layer_metrics(&mut m);
        m.set("trace.overhead_share", traced.p50() / plain.p50() - 1.0);
        let raw = stats::sorted(plain.raw);
        m.set("bench.host_speed", clock.speed());
        m.set("bench.op_ms_p50_raw", stats::median(&raw));
        m.set("bench.op_ms_tail_raw", stats::supported_tail(&raw).0);
        m.set(
            "trace.unattributed_share",
            trace::unattributed_share(tracer.spans()),
        );
    }
    Traced {
        attempted: 2 * n as u64,
        failed: plain.failed + traced.failed,
        metrics: m,
        ledger,
        spans: tracer,
    }
}

/// Mean duration in ms of the spans called `name`, per traced op.
pub fn span_ms_per_op(spans: &[Span], name: &str, traced_ops: usize) -> f64 {
    trace::total_ns(spans, name).0 as f64 / 1e6 / traced_ops as f64
}

/// Times `f` `reps` times and returns the median in ms.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    stats::median_of(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// A network of `n` nodes at the paper's density with the base station in a
/// corner: the fixed deployment's placement and climate `specs`, plus
/// per-node measurement noise drawn from `seed`.
pub fn build_network(n: usize, seed: u64, specs: &[FieldSpec]) -> SensorNetwork {
    let area = Area::for_constant_density(n);
    let positions = Placement::UniformRandom { n }.generate(area, DEPLOYMENT_SEED);
    let quiet: Vec<FieldSpec> = specs
        .iter()
        .map(|s| FieldSpec {
            noise: 0.0,
            ..s.clone()
        })
        .collect();
    let mut rows = generate_readings(&positions, &quiet, DEPLOYMENT_SEED);
    let mut rng = seed;
    for row in &mut rows {
        for (v, spec) in row.iter_mut().zip(specs) {
            *v += spec.noise * gauss(&mut rng);
        }
    }
    let attrs = specs
        .iter()
        .map(|s| (s.name.clone(), attr_type_for(&s.name)))
        .collect();
    SensorNetworkBuilder::new()
        .area(area)
        .data(ExternalData {
            positions,
            attrs,
            rows,
        })
        .base(BaseChoice::NearestCorner)
        .build()
        .expect("a uniform placement at paper density is connected")
}

/// A standard normal draw (Box–Muller over two SplitMix64 steps).
fn gauss(state: &mut u64) -> f64 {
    let mut unit = || {
        *state = splitmix(*state);
        ((*state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    };
    let (u1, u2) = (unit(), unit());
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The inputs `exact_join` takes, read straight from the network: per
/// relation, every live attached node's tuple that passes the relation's
/// local predicates.
pub fn oracle_tuples(snet: &SensorNetwork, cq: &CompiledQuery) -> Vec<Vec<(NodeId, Vec<f64>)>> {
    (0..cq.num_relations())
        .map(|r| {
            let schema = cq.schema(r);
            (0..snet.len() as u32)
                .map(NodeId)
                .filter(|&v| {
                    snet.net().is_alive(v)
                        && snet.net().routing().depth(v).is_some()
                        && snet.belongs(v, schema.name())
                })
                .map(|v| (v, snet.values_for(v, schema)))
                .filter(|(_, vals)| cq.eval_local(r, vals))
                .collect()
        })
        .collect()
}

/// An order-independent fingerprint of a result: row count plus two
/// independent wrapping sums of per-row hashes. Checking every op of a
/// workload whose result has 10⁶ rows with `same_result` (clone and sort
/// both sides) would cost more than the op; the first op is checked that
/// way and the rest by fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    rows: u64,
    sum_a: u64,
    sum_b: u64,
}

pub fn fingerprint(result: &JoinResult) -> Fingerprint {
    let mut fp = Fingerprint {
        rows: result.len() as u64,
        sum_a: 0,
        sum_b: 0,
    };
    let mut add = |values: &mut dyn Iterator<Item = u64>| {
        let mut h = 0xcbf29ce484222325u64;
        for bits in values {
            h = splitmix(h ^ bits);
        }
        fp.sum_a = fp.sum_a.wrapping_add(h);
        fp.sum_b = fp.sum_b.wrapping_add(splitmix(h));
    };
    match result {
        JoinResult::Rows(rows) => {
            for row in rows {
                add(&mut row.iter().map(|v| v.to_bits()));
            }
        }
        JoinResult::Aggregate(vals) => {
            add(&mut vals.iter().map(|v| v.map_or(u64::MAX, f64::to_bits)));
        }
    }
    fp
}

/// SplitMix64's output function; also the benchmark's only random source.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Starts the kernel's high-water mark of this process's resident set
/// again from what is resident now (`5` to `clear_refs`, proc(5)). Where
/// that is refused the mark keeps rising and every op reads the peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_row_order_but_not_content() {
        let a = JoinResult::Rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![1.0, 2.0]]);
        let b = JoinResult::Rows(vec![vec![3.0, 4.0], vec![1.0, 2.0], vec![1.0, 2.0]]);
        let c = JoinResult::Rows(vec![vec![3.0, 4.0], vec![1.0, 2.0], vec![1.0, 2.5]]);
        let d = JoinResult::Rows(vec![vec![3.0, 4.0], vec![1.0, 2.0]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a), fingerprint(&d));
        // Swapping values inside a row is a different row.
        let e = JoinResult::Rows(vec![vec![2.0, 1.0]]);
        let f = JoinResult::Rows(vec![vec![1.0, 2.0]]);
        assert_ne!(fingerprint(&e), fingerprint(&f));
    }

    #[test]
    fn op_counts_follow_seconds_and_quick_mode() {
        let mut cfg = RunConfig {
            workload: NAMES[0],
            seed: 1,
            seconds: 16,
            quick: false,
        };
        assert_eq!(cfg.timed_ops(1.5), 24);
        assert_eq!(cfg.scale(100_000, 60), 100_000);
        cfg.quick = true;
        assert_eq!(cfg.timed_ops(30.0), 24);
        assert_eq!(cfg.timed_ops(1.5), 4);
        assert_eq!(cfg.scale(100_000, 60), 5_000);
        assert_eq!(cfg.scale(250, 60), 60);
    }
}
