//! Subcommand implementations. Each subcommand is a [`Command`] entry —
//! the options it takes and its body; what an option means is the option
//! table's ([`crate::spec`]).

use crate::args::Args;
use crate::csvdata;
use crate::spec::{self, Command, Opts, Unset, Value, CHANNEL, CHECKPOINT, CHURN, ENERGY, NETWORK};
use sensjoin_core::persist::{self, CheckpointStore, CrashPoint, Persist, Reader, Writer};
use sensjoin_core::workload::RangeQueryFamily;
use sensjoin_core::{
    exact_join, node_tuples, persist_struct, BatchStats, ContinuousSensJoin, CostModel,
    ExternalJoin, GroupRunner, JoinMethod, JoinOutcome, JoinResult, MediatedJoin, SensJoin,
    SensJoinConfig, SensorNetwork, SensorNetworkBuilder, StreamJoinEngine, StreamOp,
};
use sensjoin_field::{presets, Area, FieldSpec, Placement};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::NodeId;
use sensjoin_serve::{DeploymentSpec, ServeConfig, Server, Submission, TenantId};
use sensjoin_sim::{
    ArqPolicy, BaseChoice, BatteryBank, Channel, ChurnTimeline, EnergyModel, LifetimeRun,
    LifetimeUntil, ParentPolicy,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};

/// Every subcommand, in `sensjoin help` order.
#[rustfmt::skip]
pub const COMMANDS: &[&Command] =
    &[&RUN, &SHELL, &TOPOLOGY, &SWEEP, &ADVISE, &MULTI, &CONTINUOUS, &STREAM, &SERVE, &LIFETIME];

/// Dispatches a parsed command line; returns the process exit code.
pub fn dispatch(args: &Args) -> i32 {
    let name = args.command.as_deref().unwrap_or("help");
    // What to print: a help text, or nothing after a command ran.
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) if args.options.contains_key("help") => Ok(cmd.help()),
        Some(cmd) => (cmd.run)(args).map(|()| String::new()),
        None if name == "help" => Ok(spec::usage(COMMANDS)),
        None => Err(format!(
            "unknown command {name:?}\n\n{}",
            spec::usage(COMMANDS)
        )),
    };
    match &result {
        Ok(text) => print!("{text}"),
        Err(msg) => eprintln!("error: {msg}"),
    }
    i32::from(result.is_err())
}

/// The deployment of the network options, with the channel of `--loss …`
/// and the churn of `--churn …` attached when the command takes them.
fn build_network(o: &Opts) -> Result<SensorNetwork, String> {
    let nodes = o.value("nodes").count() as usize;
    let external = match o.get("data").map(Value::text) {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(csvdata::parse_csv(&text)?)
        }
        None => None,
    };
    let area = match (o.get("area"), &external) {
        (Some(side), _) => Area::new(side.real(), side.real()),
        (None, Some(d)) => csvdata::bounding_area(d),
        (None, None) => Area::for_constant_density(nodes),
    };
    let base = match o.value("base").word() {
        "center" => BaseChoice::NearestCenter,
        _ => BaseChoice::NearestCorner,
    };
    let mut builder = SensorNetworkBuilder::new()
        .area(area)
        .placement(Placement::UniformRandom { n: nodes })
        .fields(field_specs(o))
        .base(base)
        .energy(energy_model(o).0)
        .seed(o.value("seed").count());
    if let Some(d) = external {
        builder = builder.data(d);
    }
    let mut snet = builder.build().map_err(|e| e.to_string())?;
    apply_channel(o, &mut snet);
    apply_churn(o, &mut snet);
    Ok(snet)
}

/// Parses `sql` and compiles it against the network's schema.
fn compile(snet: &SensorNetwork, sql: &str) -> Result<CompiledQuery, String> {
    let query = parse(sql).map_err(|e| e.to_string())?;
    snet.compile(&query).map_err(|e| e.to_string())
}

/// `--energy-model`'s model plus a label for run headers (micaz for a
/// command without the option).
fn energy_model(o: &Opts) -> (EnergyModel, String) {
    match o.get("energy-model").map(|m| (m.word(), m.tail())) {
        Some(("byte", Some(cost))) => (
            EnergyModel::byte_proportional(cost.real()),
            format!("byte-proportional ({} µJ/B)", cost.real()),
        ),
        Some(("sunspot", _)) => (EnergyModel::sunspot(), "sunspot".into()),
        _ => (EnergyModel::micaz(), "micaz".into()),
    }
}

/// Attaches the channel / ARQ configuration of `--loss`, `--burst`,
/// `--arq`, `--retries` and `--loss-seed` to the network, if the command
/// takes them.
fn apply_channel(o: &Opts, snet: &mut SensorNetwork) {
    let Some(p) = o.get("loss").map(Value::real) else {
        return;
    };
    let seed = o.value("loss-seed").count();
    let retries = o.value("retries").count() as u32;
    let lossy_default = if p > 0.0 { "ack" } else { "none" };
    let arq = match o.get("arq").map_or(lossy_default, Value::word) {
        "ack" => ArqPolicy::AckRetransmit {
            max_retries: retries,
        },
        "summary" => ArqPolicy::SummaryRepair {
            max_rounds: retries,
        },
        _ => ArqPolicy::None,
    };
    if p > 0.0 {
        let channel = match o.get("burst") {
            Some(burst) => Channel::gilbert_elliott(p, burst.real(), seed),
            None => Channel::bernoulli(p, seed),
        };
        snet.net_mut().set_channel(Some(channel));
    }
    snet.net_mut().set_arq(arq);
}

/// Attaches a sampled fault timeline from `--churn`, `--mtbf`, `--mttr` and
/// `--churn-seed` to the network, on the simulator's µs clock, if churn is on.
fn apply_churn(o: &Opts, snet: &mut SensorNetwork) {
    let Some(horizon) = o.get("churn") else {
        return;
    };
    let mtbf_s = o.value("mtbf").real();
    let mttr_s = o.get("mttr").map_or(mtbf_s / 2.0, Value::real);
    let tl = ChurnTimeline::sample(
        snet.len(),
        snet.net().base(),
        mtbf_s * 1e6,
        mttr_s * 1e6,
        horizon.micros(),
        o.value("churn-seed").count(),
    );
    snet.net_mut().set_churn(Some(tl));
}

fn field_specs(o: &Opts) -> Vec<FieldSpec> {
    match o.value("fields").word() {
        "outdoor" => presets::outdoor_environment(),
        "uncorrelated" => presets::uncorrelated(),
        _ => presets::indoor_climate(),
    }
}

/// The fields rounds resample: none for a loaded trace, a fixed snapshot.
fn drifting_fields(o: &Opts) -> Vec<FieldSpec> {
    o.get("data").map_or_else(|| field_specs(o), |_| Vec::new())
}

/// Writes the trace of a network that had tracing switched on.
fn write_trace(snet: &SensorNetwork, path: &str) -> Result<(), String> {
    let trace = (snet.net().trace()).ok_or("internal: trace missing after enabling tracing")?;
    std::fs::write(path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
    let (records, packets) = (trace.len(), trace.total_packets());
    println!("\nwrote {records} trace records ({packets} packets) to {path}");
    Ok(())
}

/// Parsed `--checkpoint-dir` / `--checkpoint-every` / `--resume` /
/// `--crash-at` configuration. `store` is `None` when checkpointing is off.
struct Checkpointing {
    store: Option<CheckpointStore>,
    every: u64,
    resume: bool,
    /// `round → digest` of every WAL record a `--resume` recovered: what the
    /// re-executed rounds must reproduce.
    logged: BTreeMap<u64, u64>,
}

impl Checkpointing {
    /// `--resume`: loads the WAL and returns the newest valid snapshot as
    /// `(sequence number, payload)`, if the directory holds one. Without
    /// `--resume`, `None` and an empty log.
    fn recover(&mut self) -> Result<Option<(u64, Vec<u8>)>, String> {
        if !self.resume {
            return Ok(None);
        }
        let store = self
            .store
            .as_ref()
            .expect("--resume needs --checkpoint-dir");
        let rec = store.recover().map_err(|e| e.to_string())?;
        if rec.degraded {
            eprintln!("warning: corrupt checkpoint artifacts skipped; resuming from older state");
        }
        for payload in &rec.wal {
            let (round, digest) =
                Persist::from_bytes(payload).map_err(|e| format!("bad WAL record: {e}"))?;
            self.logged.insert(round, digest);
        }
        Ok(rec.snapshot)
    }

    /// Logged rounds from `first` on: the ones a resumed run re-executes
    /// (earlier ones are covered by the snapshot).
    fn to_replay(&self, first: u64) -> usize {
        self.logged.range(first..).count()
    }

    /// Verifies a re-executed round against its WAL digest, or appends a
    /// fresh record for a round the WAL has not seen.
    fn log_or_verify(&mut self, round: u64, digest: impl FnOnce() -> u64) -> Result<(), String> {
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        let digest = digest();
        match self.logged.get(&round) {
            Some(&logged) if logged != digest => Err(format!(
                "resume replay diverged at round {round}: result digest does not match the WAL \
                 (checkpoint directory does not belong to this configuration?)"
            )),
            Some(_) => Ok(()),
            None => store
                .append_wal(&(round, digest).to_bytes())
                .map_err(|e| e.to_string()),
        }
    }

    /// The durable end of round `round`: the `PostRound` crash point, the
    /// round's WAL record, and — when the `completed` rounds so far are a
    /// multiple of `--checkpoint-every` — snapshot `completed` of `image()`.
    fn commit(
        &mut self,
        round: u64,
        digest: impl FnOnce() -> u64,
        completed: u64,
        image: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), String> {
        if let Some(store) = &mut self.store {
            store
                .crash_check(CrashPoint::PostRound)
                .map_err(|e| e.to_string())?;
        }
        self.log_or_verify(round, digest)?;
        match &mut self.store {
            Some(store) if completed.is_multiple_of(self.every) => store
                .save_snapshot(completed, &image())
                .map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }
}

/// Opens (and possibly crash-arms) the store of the checkpoint options.
fn checkpoint_args(o: &Opts) -> Result<Checkpointing, String> {
    let mut store = match o.get("checkpoint-dir") {
        Some(dir) => Some(CheckpointStore::open(dir.text()).map_err(|e| e.to_string())?),
        None => None,
    };
    if let (Some(store), Some(at)) = (&mut store, o.get("crash-at")) {
        let point = (CrashPoint::ALL.into_iter())
            .find(|p| p.to_string() == at.word())
            .expect("--crash-at's words are the crash points' names");
        store.arm_crash(point, at.tail().map_or(1, |n| n.count() as u32));
    }
    Ok(Checkpointing {
        store,
        every: o.value("checkpoint-every").count(),
        resume: o.get("resume").is_some(),
        logged: BTreeMap::new(),
    })
}

/// FNV-1a digest of a round outcome — what the WAL records per round so a
/// resumed run can verify its re-executed suffix is bit-identical.
fn outcome_digest(out: &JoinOutcome) -> u64 {
    let mut w = Writer::new();
    match &out.result {
        JoinResult::Rows(rows) => {
            w.put_u8(0);
            rows.put(&mut w);
        }
        JoinResult::Aggregate(vals) => {
            w.put_u8(1);
            vals.put(&mut w);
        }
    }
    w.put_u64(out.stats.total_tx_bytes());
    w.put_u64(out.latency_us);
    w.put_bool(out.complete);
    persist::fnv1a(&w.into_bytes())
}

#[rustfmt::skip]
const MULTI: Command = Command {
    name: "multi", about: "concurrent queries sharing one collection wave", positional: "QUERY...",
    takes: &[&["epochs", "every", "period"], NETWORK, ENERGY, CHANNEL, CHURN], defaults: &[], run: cmd_multi,
};

fn cmd_multi(args: &Args) -> Result<(), String> {
    let o = MULTI.validate(args)?;
    let (queries, epochs) = (&o.positional, o.value("epochs").count());
    let (period_s, period_us) = (o.value("period").real(), o.value("period").micros());
    let every: Vec<u64> = o.value("every").list().iter().map(Value::count).collect();
    let every = match (every.len(), queries.len()) {
        (1, q) => vec![every[0]; q],
        (n, q) if n == q => every,
        (n, q) => return Err(format!("--every lists {n} periods for {q} queries")),
    };
    // The last epoch's timestamp must fit the µs clock too.
    (epochs.saturating_sub(1).checked_mul(period_us))
        .ok_or("--period: the last epoch overflows the µs clock")?;
    let mut snet = build_network(&o)?;
    let specs = drifting_fields(&o);
    let mut runner = GroupRunner::new(SensJoinConfig::default(), period_us);
    for (sql, &every) in queries.iter().zip(&every) {
        let cq = compile(&snet, sql)?;
        runner
            .group_mut()
            .try_register(&snet, cq, every)
            .map_err(|e| e.to_string())?;
    }
    println!(
        "network: {} nodes, {} concurrent queries, epoch every {period_s} s, energy model {}",
        snet.len(),
        queries.len(),
        energy_model(&o).1
    );
    let reports = runner
        .run(&mut snet, epochs, &specs, o.value("seed").count())
        .map_err(|e| e.to_string())?;
    println!(
        "\n{:>5} {:>4} {:>5} {:>12} {:>12} {:>8}  rows",
        "epoch", "due", "plans", "shared [B]", "unshared [B]", "saving"
    );
    for (_, r) in &reports {
        let shared = r.shared_collection_bytes() + r.shared_filter_bytes() + r.shared_final_bytes();
        let unshared = r.solo_equivalent_total();
        let saving = if unshared > 0 {
            100.0 * (1.0 - shared as f64 / unshared as f64)
        } else {
            0.0
        };
        let rows: Vec<String> = (r.outcomes.iter())
            .map(|o| format!("q{}:{}", o.id.0, o.result.len()))
            .collect();
        let marker = if r.complete { "" } else { "  [INCOMPLETE]" };
        println!(
            "{:>5} {:>4} {:>5} {:>12} {:>12} {:>7.1}%  {}{marker}",
            r.epoch,
            r.outcomes.len(),
            r.plans,
            shared,
            unshared,
            saving,
            rows.join(" ")
        );
    }
    Ok(())
}

#[rustfmt::skip]
const CONTINUOUS: Command = Command {
    name: "continuous", about: "delta rounds of one SAMPLE PERIOD query", positional: "",
    takes: &[&["sql", "rounds", "epsilon"], NETWORK, ENERGY, CHANNEL, CHURN, CHECKPOINT],
    defaults: &[], run: cmd_continuous,
};

fn cmd_continuous(args: &Args) -> Result<(), String> {
    let o = CONTINUOUS.validate(args)?;
    let (rounds, epsilon) = (o.value("rounds").count(), o.value("epsilon").real());
    let seed = o.value("seed").count();
    let mut snet = build_network(&o)?;
    let specs = drifting_fields(&o);
    let cq = compile(&snet, o.value("sql").text())?;
    let mut cont = ContinuousSensJoin::with_epsilon(epsilon);
    let mut ckpt = checkpoint_args(&o)?;
    let mut start_round = 0;
    if let Some((seq, payload)) = ckpt.recover()? {
        let decode_failed = |e| format!("snapshot state decode failed: {e}");
        let mut r = Reader::new(&payload);
        cont.restore_state(&mut r, &cq).map_err(decode_failed)?;
        let snap = persist::get_net_snapshot(&mut r).map_err(decode_failed)?;
        r.expect_end().map_err(decode_failed)?;
        (snet.net_mut().restore_state(&snap)).map_err(|e| e.to_string())?;
        start_round = seq;
    }
    println!(
        "network: {} nodes, {} rounds, epsilon {epsilon}, energy model {}",
        snet.len(),
        rounds,
        energy_model(&o).1
    );
    if start_round > 0 {
        println!(
            "resumed from checkpoint: {start_round} rounds restored, {} logged rounds to replay",
            ckpt.to_replay(start_round)
        );
    }
    println!(
        "\n{:>5} {:>6} {:>10} {:>9} {:>10}",
        "round", "rows", "bytes", "retx", "overhead"
    );
    for r in start_round..rounds {
        if r > 0 && !specs.is_empty() {
            snet.resample(&specs, seed.wrapping_add(r));
        }
        let out = cont
            .execute_round(&mut snet, &cq)
            .map_err(|e| e.to_string())?;
        let marker = if out.complete { "" } else { "  [INCOMPLETE]" };
        println!(
            "{r:>5} {:>6} {:>10} {:>9} {:>10}{marker}",
            out.result.len(),
            out.stats.total_tx_bytes(),
            out.stats.total_retx_packets(),
            out.stats.total_overhead_bytes()
        );
        ckpt.commit(
            r,
            || outcome_digest(&out),
            r + 1,
            || {
                // The checkpoint trace row must land inside the snapshot so a
                // resumed run's trace matches the uninterrupted one.
                snet.net_mut().note_checkpoint("continuous");
                let mut w = Writer::new();
                cont.encode_state(&mut w);
                persist::put_net_snapshot(&mut w, &snet.net().export_state());
                w.into_bytes()
            },
        )?;
    }
    Ok(())
}

#[rustfmt::skip]
const LIFETIME: Command = Command {
    name: "lifetime", about: "battery-powered rounds until the network dies", positional: "",
    takes: &[
        &["sql", "battery", "jitter", "parent-policy", "until", "max-rounds", "trace"],
        NETWORK, ENERGY, CHANNEL, CHURN,
    ],
    defaults: &[("sql", Unset::Is(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30",
    ))],
    run: cmd_lifetime,
};

/// `sensjoin lifetime`: continuous rounds of one query on battery-powered
/// nodes until the network dies — first battery death, base-station
/// partition or an N %-death fraction, whichever the `--until` criterion
/// selects — reporting rounds survived, the death order and the residual
/// energy distribution.
fn cmd_lifetime(args: &Args) -> Result<(), String> {
    let o = LIFETIME.validate(args)?;
    let (battery_j, jitter) = (o.value("battery").real(), o.value("jitter").real());
    let policy_name = o.value("parent-policy").word();
    let policy = match policy_name {
        "power-aware" => ParentPolicy::PowerAware,
        _ => ParentPolicy::MinHop,
    };
    let until_v = o.value("until");
    let until = match (until_v.word(), until_v.tail()) {
        ("death", Some(pct)) => LifetimeUntil::DeathFraction(pct.real() / 100.0),
        ("partition", _) => LifetimeUntil::BasePartition,
        _ => LifetimeUntil::FirstDeath,
    };
    let until_s = (until_v.tail()).map_or(until_v.word().into(), |p| format!("death:{}", p.real()));
    let (max_rounds, seed) = (o.value("max-rounds").count(), o.value("seed").count());
    let trace_path = o.get("trace").map(Value::text);
    let mut snet = build_network(&o)?;
    let bank = BatteryBank::with_jitter(snet.len(), snet.base(), battery_j * 1e6, jitter, seed);
    snet.net_mut().set_battery(Some(bank));
    snet.net_mut().set_parent_policy(policy);
    snet.net_mut().set_tracing(trace_path.is_some());
    let specs = drifting_fields(&o);
    let cq = compile(&snet, o.value("sql").text())?;
    println!(
        "network: {} nodes, energy model {}, battery {battery_j} J \
         (jitter {:.0} %), parent policy {policy_name}, until {until_s}",
        snet.len(),
        energy_model(&o).1,
        jitter * 100.0
    );
    let mut cont = ContinuousSensJoin::new();
    let mut run = LifetimeRun::new(snet.net(), until, max_rounds);
    println!(
        "\n{:>5} {:>6} {:>6} {:>12} {:>12}  deaths",
        "round", "rows", "live", "min res [J]", "mean res [J]"
    );
    let reason = loop {
        let r = run.rounds();
        if r > 0 && !specs.is_empty() {
            snet.resample(&specs, seed.wrapping_add(r));
        }
        let out = cont
            .execute_round(&mut snet, &cq)
            .map_err(|e| e.to_string())?;
        let end = run.observe(snet.net());
        let bank = snet
            .net()
            .battery()
            .ok_or("internal: battery bank missing after attach")?;
        let base = snet.base();
        let others: Vec<NodeId> = (0..snet.len() as u32)
            .map(NodeId)
            .filter(|&v| v != base)
            .collect();
        let alive: Vec<f64> = (others.iter().filter(|&&v| snet.net().is_alive(v)))
            .map(|&v| bank.residual_uj(v))
            .collect();
        let (live, min_res) = (
            alive.len(),
            alive.iter().fold(f64::INFINITY, |m, &r| m.min(r)),
        );
        let sum = (others.iter()).fold(0.0, |s, &v| s + bank.residual_uj(v).max(0.0));
        let mean_res = sum / others.len().max(1) as f64;
        let this_round: Vec<String> = (run.deaths().iter())
            .filter(|&&(round, _)| round == run.rounds())
            .map(|&(_, v)| v.0.to_string())
            .collect();
        println!(
            "{r:>5} {:>6} {live:>6} {:>12.4} {:>12.4}  {}",
            out.result.len(),
            min_res / 1e6,
            mean_res / 1e6,
            this_round.join(",")
        );
        if let Some(reason) = end {
            break reason;
        }
    };
    let report = run.report(snet.net(), reason);
    println!(
        "\nlifetime: {} rounds until {reason}; {} battery deaths, {} live nodes",
        report.rounds,
        report.deaths.len(),
        report.live
    );
    println!(
        "residual energy: min {} J, mean {:.4} J",
        report
            .min_residual_uj()
            .map_or("-".into(), |r| format!("{:.4}", r / 1e6)),
        report.mean_residual_uj() / 1e6
    );
    if !report.deaths.is_empty() {
        let order: Vec<String> = (report.deaths.iter())
            .map(|&(round, v)| format!("{}@r{round}", v.0))
            .collect();
        println!("death order: {}", order.join(" "));
    }
    trace_path.map_or(Ok(()), |path| write_trace(&snet, path))
}
/// One step of the stream driver's LCG; the state is a plain `u64` so
/// checkpoints can carry it.
fn lcg_pick(rng: &mut u64, m: u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*rng >> 33) % m.max(1)
}

/// What the engine has been fed, keyed by origin: the batch-join reference
/// must see the values at upsert time, not the drifted field.
type Shadow = BTreeMap<NodeId, Vec<Option<Vec<f64>>>>;

/// The `stream` driver's state, and its checkpoint image. The engine is not
/// in the image: its live tuples are `shadow`'s, and a resume replays them.
struct StreamState {
    cold: BatchStats,
    total: BatchStats,
    /// State of the driver's LCG.
    rng: u64,
    shadow: Shadow,
}

persist_struct!(StreamState {
    cold: BatchStats,
    total: BatchStats,
    rng: u64,
    shadow: Shadow,
});

/// Decodes a `stream` image and rebuilds the engine of `cq` from it.
fn restore_stream(
    payload: &[u8],
    cq: &CompiledQuery,
) -> Result<(StreamState, StreamJoinEngine), persist::CodecError> {
    let st = StreamState::from_bytes(payload)?;
    let tuples: Vec<_> = st.shadow.iter().map(|(&v, pr)| (v, pr.clone())).collect();
    let engine = persist::stream_engine_from_tuples(cq.clone(), &tuples)?;
    Ok((st, engine))
}

/// One delta batch: upserts a `rate` share of the nodes with their current
/// readings and expires an `expire` share of the rest of the shadow.
fn stream_batch(
    st: &mut StreamState,
    engine: &mut StreamJoinEngine,
    snet: &SensorNetwork,
    cq: &CompiledQuery,
    rate: f64,
    expire: f64,
) -> BatchStats {
    let n = snet.len();
    let upserts = ((rate * n as f64).ceil() as usize).clamp(1, n);
    let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
    while chosen.len() < upserts {
        chosen.insert(NodeId(lcg_pick(&mut st.rng, n as u64) as u32));
    }
    let expirable: Vec<NodeId> = (st.shadow.keys())
        .filter(|v| !chosen.contains(v))
        .copied()
        .collect();
    let expires = ((expire * st.shadow.len() as f64).ceil() as usize).min(expirable.len());
    let mut victims: BTreeSet<NodeId> = BTreeSet::new();
    while victims.len() < expires {
        victims.insert(expirable[lcg_pick(&mut st.rng, expirable.len() as u64) as usize]);
    }
    let mut ops: Vec<StreamOp> = Vec::with_capacity(chosen.len() + victims.len());
    for &v in &chosen {
        let per_rel = node_tuples(snet, cq, v, snet.readings(v));
        st.shadow.insert(v, per_rel.clone());
        ops.push(StreamOp::Upsert { origin: v, per_rel });
    }
    for &v in &victims {
        st.shadow.remove(&v);
        ops.push(StreamOp::Expire { origin: v });
    }
    let stats = engine.apply_batch(&ops);
    st.total.merge(&stats);
    stats
}

/// Checks the engine's cached result against the batch join over `shadow`;
/// returns the row count.
fn verify_stream(
    cq: &CompiledQuery,
    engine: &StreamJoinEngine,
    shadow: &Shadow,
) -> Result<usize, String> {
    let tuples: Vec<Vec<(NodeId, Vec<f64>)>> = (0..cq.num_relations())
        .map(|r| {
            shadow
                .iter()
                .filter_map(|(&v, pr)| pr[r].clone().map(|vals| (v, vals)))
                .collect()
        })
        .collect();
    let reference = exact_join(cq, &tuples);
    let streamed = engine.result();
    if streamed.result.same_result(&reference.result)
        && streamed.contributors == reference.contributors
    {
        Ok(reference.result.len())
    } else {
        Err("streaming result diverged from the batch join — bug!".into())
    }
}

#[rustfmt::skip]
const STREAM: Command = Command {
    name: "stream", about: "the streaming-ingestion engine: a cold load, then delta batches",
    positional: "", takes: &[&["sql", "batches", "rate", "expire", "verify-every"], NETWORK, CHECKPOINT],
    defaults: &[], run: cmd_stream,
};

fn cmd_stream(args: &Args) -> Result<(), String> {
    let o = STREAM.validate(args)?;
    let (batches, verify_every) = (o.value("batches").count(), o.value("verify-every").count());
    let (rate, expire) = (o.value("rate").real(), o.value("expire").real());
    let seed = o.value("seed").count();
    let mut snet = build_network(&o)?;
    let specs = drifting_fields(&o);
    let cq = compile(&snet, o.value("sql").text())?;
    let mut engine = StreamJoinEngine::new(cq.clone());
    let mut st = StreamState {
        cold: BatchStats::default(),
        total: BatchStats::default(),
        rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        shadow: BTreeMap::new(),
    };
    let (nodes, relations) = (snet.len(), cq.num_relations());
    println!("network: {nodes} nodes, {relations} relations");
    let stream_digest = |stats: &BatchStats, cached_rows: usize| -> u64 {
        persist::fnv1a(&(*stats, cached_rows).to_bytes())
    };
    let mut ckpt = checkpoint_args(&o)?;
    let start_batch = match ckpt.recover()? {
        Some((seq, payload)) => {
            (st, engine) = restore_stream(&payload, &cq)
                .map_err(|e| format!("snapshot state decode failed: {e}"))?;
            // Batch indexes are the WAL keys; the snapshot covers batch
            // `seq` itself, so only strictly later records replay.
            println!(
                "resumed from checkpoint: {seq} batches restored, \
                 {} logged batches to replay",
                ckpt.to_replay(seq + 1)
            );
            seq
        }
        None => {
            // Cold load: every node arrives in one batch.
            let ops: Vec<StreamOp> = (0..snet.len() as u32)
                .map(|i| {
                    let v = NodeId(i);
                    let per_rel = node_tuples(&snet, &cq, v, snet.readings(v));
                    st.shadow.insert(v, per_rel.clone());
                    StreamOp::Upsert { origin: v, per_rel }
                })
                .collect();
            st.cold = engine.apply_batch(&ops);
            println!(
                "cold load: {} ops, {} result rows cached, {} candidates",
                st.cold.ops,
                engine.cached_rows(),
                st.cold.candidates,
            );
            ckpt.log_or_verify(0, || stream_digest(&st.cold, engine.cached_rows()))?;
            0
        }
    };
    println!(
        "\n{:>5} {:>5} {:>7} {:>7} {:>7} {:>11}",
        "batch", "ops", "+rows", "-rows", "result", "candidates"
    );
    for b in (start_batch + 1)..=batches {
        if !specs.is_empty() {
            snet.resample(&specs, seed.wrapping_add(b));
        }
        let stats = stream_batch(&mut st, &mut engine, &snet, &cq, rate, expire);
        println!(
            "{b:>5} {:>5} {:>7} {:>7} {:>7} {:>11}",
            stats.ops,
            stats.rows_added,
            stats.rows_removed,
            engine.cached_rows(),
            stats.candidates
        );
        let digest = || stream_digest(&stats, engine.cached_rows());
        ckpt.commit(b, digest, b, || st.to_bytes())?;
        if (verify_every > 0 && b.is_multiple_of(verify_every)) || b == batches {
            let rows = verify_stream(&cq, &engine, &st.shadow)?;
            println!("       verify: streaming matches batch join ({rows} rows)");
        }
    }
    let per_op = if st.total.ops > 0 {
        st.total.candidates as f64 / st.total.ops as f64
    } else {
        0.0
    };
    println!(
        "\ndelta totals: {} ops, {} candidates ({per_op:.1}/op vs {} at cold load)",
        st.total.ops, st.total.candidates, st.cold.candidates
    );
    Ok(())
}

#[rustfmt::skip]
const ADVISE: Command = Command {
    name: "advise", about: "cost-model advice: SENS-Join or the external join?", positional: "",
    takes: &[&["sql", "fraction"], NETWORK], defaults: &[], run: cmd_advise,
};

fn cmd_advise(args: &Args) -> Result<(), String> {
    let o = ADVISE.validate(args)?;
    let fraction = o.value("fraction").real();
    let snet = build_network(&o)?;
    let cq = compile(&snet, o.value("sql").text())?;
    let model = CostModel::new(&snet, &cq);
    let beta = model.estimate_beta();
    let ext = model.external();
    let sens = model.sens_join(fraction, beta, &SensJoinConfig::default());
    let depth = snet.net().routing().max_depth();
    println!("network: {} nodes, tree depth {depth}", snet.len());
    println!("assumed result fraction: {:.1} %", fraction * 100.0);
    println!("quadtree density: {beta:.1} bits/point (measured)\n");
    println!(
        "predicted external join: {:>8.0} packets {:>10.0} bytes",
        ext.packets, ext.bytes
    );
    println!(
        "predicted SENS-Join:     {:>8.0} packets {:>10.0} bytes",
        sens.packets, sens.bytes
    );
    println!("\nadvice: {:?}", model.recommend(fraction, beta));
    Ok(())
}

/// The join methods `--method` names.
fn methods_for(name: &str) -> Vec<Box<dyn JoinMethod>> {
    match name {
        "sens" => vec![Box::new(SensJoin::default())],
        "external" => vec![Box::new(ExternalJoin)],
        "mediated" => vec![Box::new(MediatedJoin)],
        "noquad" => vec![Box::new(SensJoin::no_quadtree())],
        _ => vec![
            Box::new(ExternalJoin),
            Box::new(SensJoin::default()),
            Box::new(MediatedJoin),
        ],
    }
}

fn execute_and_print(snet: &mut SensorNetwork, sql: &str, methods: &str) -> Result<(), String> {
    let cq = compile(snet, sql)?;
    let mut outcomes: Vec<(String, JoinOutcome)> = Vec::new();
    for method in methods_for(methods) {
        let out = method.execute(snet, &cq).map_err(|e| e.to_string())?;
        outcomes.push((method.name().to_owned(), out));
    }
    // Result (identical across methods by construction).
    let (_, first) = &outcomes[0];
    match &first.result {
        JoinResult::Aggregate(vals) => {
            print!("result:");
            for (item, v) in cq.select().iter().zip(vals) {
                match v {
                    Some(v) => print!("  {} = {v:.4}", item.name),
                    None => print!("  {} = NULL", item.name),
                }
            }
            println!();
        }
        JoinResult::Rows(rows) => {
            println!(
                "result: {} rows ({} contributing nodes)",
                rows.len(),
                first.contributors.len()
            );
            for row in rows.iter().take(10) {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:.3}")).collect();
                println!("  ({})", cells.join(", "));
            }
            if rows.len() > 10 {
                println!("  ... {} more", rows.len() - 10);
            }
        }
    }
    // The retransmission columns only on a lossy channel.
    let lossy = snet.net().lossy();
    let retx = |a: String, b: String| {
        if lossy {
            format!(" {a:>9} {b:>10}")
        } else {
            String::new()
        }
    };
    let head = retx("retx".into(), "overhead".into());
    let head = format!(
        "{:<12} {:>9} {:>10}{head} {:>12} {:>10}",
        "method", "packets", "bytes", "energy [mJ]", "time [ms]"
    );
    println!("\n{head}");
    for (name, out) in &outcomes {
        let (s, marker) = (&out.stats, if out.complete { "" } else { "  [INCOMPLETE]" });
        println!(
            "{name:<12} {:>9} {:>10}{} {:>12.1} {:>10.0}{marker}",
            s.total_tx_packets(),
            s.total_tx_bytes(),
            retx(
                s.total_retx_packets().to_string(),
                s.total_overhead_bytes().to_string()
            ),
            s.total_energy_uj() / 1000.0,
            out.latency_us as f64 / 1000.0
        );
    }
    // Cross-check. An incomplete execution lost result data by definition,
    // so only complete outcomes must agree.
    for (name, out) in &outcomes[1..] {
        if first.complete && out.complete && !out.result.same_result(&first.result) {
            return Err(format!("method {name} produced a different result — bug!"));
        }
    }
    Ok(())
}

#[rustfmt::skip]
const RUN: Command = Command {
    name: "run", about: "run one query with one or all join methods", positional: "",
    takes: &[&["sql", "method", "trace"], NETWORK, ENERGY, CHANNEL, CHURN], defaults: &[], run: cmd_run,
};

fn cmd_run(args: &Args) -> Result<(), String> {
    let o = RUN.validate(args)?;
    let method = o.value("method").word();
    let trace_path = o.get("trace").map(Value::text);
    if trace_path.is_some() && method == "all" {
        return Err("--trace needs a single --method (the trace covers one execution)".into());
    }
    let mut snet = build_network(&o)?;
    println!(
        "network: {} nodes, tree depth {}, base {}, energy model {}",
        snet.len(),
        snet.net().routing().max_depth(),
        snet.base(),
        energy_model(&o).1
    );
    if snet.net().lossy() {
        let loss_pct = 100.0 * o.value("loss").real();
        println!("channel: loss {loss_pct:.1} %, arq {:?}", snet.net().arq());
    }
    if snet.net().has_churn() {
        println!("churn: sampled fault timeline enabled (see --mtbf / --mttr / --churn-seed)");
    }
    snet.net_mut().set_tracing(trace_path.is_some());
    execute_and_print(&mut snet, o.value("sql").text(), method)?;
    trace_path.map_or(Ok(()), |path| write_trace(&snet, path))
}

#[rustfmt::skip]
const SHELL: Command = Command {
    name: "shell", about: "interactive SQL loop", positional: "",
    takes: &[&["method"], NETWORK], defaults: &[], run: cmd_shell,
};

fn cmd_shell(args: &Args) -> Result<(), String> {
    let o = SHELL.validate(args)?;
    let mut snet = build_network(&o)?;
    println!(
        "network: {} nodes, tree depth {} — enter a query ending in ONCE, or 'quit'",
        snet.len(),
        snet.net().routing().max_depth()
    );
    let stdin = std::io::stdin();
    loop {
        print!("sensjoin> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("exit") {
            break;
        }
        if let Err(e) = execute_and_print(&mut snet, line, o.value("method").word()) {
            eprintln!("error: {e}");
        }
    }
    Ok(())
}

/// Renders an ASCII map of the deployment: digits are routing-tree depths
/// (mod 10), `B` the base station, `!` unreachable nodes, `.` empty space.
fn ascii_map(snet: &SensorNetwork, cols: usize, rows: usize) -> String {
    let topo = snet.net().topology();
    let routing = snet.net().routing();
    let area = topo.area();
    let mut grid = vec![vec!['.'; cols]; rows];
    for v in (0..snet.len() as u32).map(NodeId) {
        let p = topo.position(v);
        let cx = ((p.x / area.width * cols as f64) as usize).min(cols - 1);
        let cy = ((p.y / area.height * rows as f64) as usize).min(rows - 1);
        let ch = if v == snet.base() {
            'B'
        } else {
            match routing.depth(v) {
                Some(d) => char::from_digit(d % 10, 10).unwrap_or('?'),
                None => '!',
            }
        };
        // Base station and failures win over plain depth digits.
        let cur = grid[rows - 1 - cy][cx];
        if cur == '.' || ch == 'B' || (ch == '!' && cur != 'B') {
            grid[rows - 1 - cy][cx] = ch;
        }
    }
    let border = format!("+{}+\n", "-".repeat(cols));
    let rows: String = grid
        .into_iter()
        .map(|row| format!("|{}|\n", String::from_iter(row)))
        .collect();
    format!("{border}{rows}{border}")
}

#[rustfmt::skip]
const TOPOLOGY: Command = Command {
    name: "topology", about: "routing-tree statistics", positional: "",
    takes: &[&["map"], NETWORK], defaults: &[], run: cmd_topology,
};

fn cmd_topology(args: &Args) -> Result<(), String> {
    let o = TOPOLOGY.validate(args)?;
    let snet = build_network(&o)?;
    let routing = snet.net().routing();
    let topo = snet.net().topology();
    let n = snet.len();
    let reachable = n - routing.unreachable().len();
    let mut depth_hist: std::collections::BTreeMap<u32, usize> = Default::default();
    let mut max_children = 0usize;
    let mut leaf = 0usize;
    for v in (0..n as u32).map(NodeId) {
        if let Some(d) = routing.depth(v) {
            *depth_hist.entry(d).or_default() += 1;
            max_children = max_children.max(routing.children(v).len());
            if routing.children(v).is_empty() {
                leaf += 1;
            }
        }
    }
    let avg_neighbors: f64 = (0..n as u32)
        .map(|i| topo.neighbors(NodeId(i)).len())
        .sum::<usize>() as f64
        / n as f64;
    println!("nodes:         {n} ({reachable} reachable)");
    let area = topo.area();
    println!("area:          {:.0} m x {:.0} m", area.width, area.height);
    println!("radio range:   {:.0} m", topo.range());
    println!("avg neighbors: {avg_neighbors:.1}");
    println!("base station:  {}", snet.base());
    println!("tree depth:    {}", routing.max_depth());
    println!("leaf nodes:    {leaf}");
    println!("max children:  {max_children}");
    println!("depth histogram:");
    for (d, count) in depth_hist {
        println!("  {d:>3}: {}", "#".repeat((count * 60 / n).max(1)));
    }
    if o.get("map").is_some() {
        println!("\nmap (digits = tree depth mod 10, B = base, ! = unreachable):");
        print!("{}", ascii_map(&snet, 72, 24));
    }
    Ok(())
}

#[rustfmt::skip]
const SWEEP: Command = Command {
    name: "sweep", about: "selectivity sweep, SENS-Join against the external join", positional: "",
    takes: &[&["fractions"], NETWORK], defaults: &[], run: cmd_sweep,
};

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let o = SWEEP.validate(args)?;
    let fractions = o.value("fractions").list().iter().map(|p| p.real() / 100.0);
    let mut snet = build_network(&o)?;
    let family = RangeQueryFamily::ratio_33();
    println!(
        "{:>10} {:>16} {:>16} {:>9}",
        "fraction", "external [pkts]", "SENS-Join [pkts]", "saving"
    );
    for f in fractions {
        let cal = family.calibrate(&snet, f);
        let cq = compile(&snet, &cal.sql)?;
        let ext = ExternalJoin
            .execute(&mut snet, &cq)
            .map_err(|e| e.to_string())?;
        let sj = SensJoin::default()
            .execute(&mut snet, &cq)
            .map_err(|e| e.to_string())?;
        println!(
            "{:>9.1}% {:>16} {:>16} {:>8.1}%",
            100.0 * cal.achieved_fraction,
            ext.stats.total_tx_packets(),
            sj.stats.total_tx_packets(),
            100.0
                * (1.0 - sj.stats.total_tx_packets() as f64 / ext.stats.total_tx_packets() as f64)
        );
    }
    Ok(())
}

#[rustfmt::skip]
const SERVE: Command = Command {
    name: "serve", positional: "",
    about: "multi-tenant serving: tenants submit continuous queries to --deployments networks",
    takes: &[
        &["nodes", "seed", "tenants", "deployments", "qps", "duration", "period", "skew", "max-groups",
          "queue-depth", "admit-per-tick"],
        CHECKPOINT,
    ],
    defaults: &[("nodes", Unset::Is("80"))], run: cmd_serve,
};

/// `sensjoin serve`: simulate tenants submitting continuous queries
/// against a registry of deployments through the serving layer —
/// admission decisions, epoch batching, plan sharing, and the metrics
/// surface, printed per tick and summarized at the end.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let o = SERVE.validate(args)?;
    let (nodes, seed) = (o.value("nodes").count() as usize, o.value("seed").count());
    let (tenants, deployments) = (o.value("tenants").count(), o.value("deployments").count());
    let (qps, skew) = (o.value("qps").real(), o.value("skew").real());
    let (duration, period) = (o.value("duration"), o.value("period"));
    let (duration_s, period_s) = (duration.real(), period.real());
    let cfg = ServeConfig {
        period_us: period.micros(),
        max_groups: o.value("max-groups").count() as usize,
        queue_depth: o.value("queue-depth").count() as usize,
        admit_per_tick: o.value("admit-per-tick").count() as usize,
        ..ServeConfig::default()
    };

    let mut ckpt = checkpoint_args(&o)?;
    let specs: Vec<DeploymentSpec> = (0..deployments)
        .map(|d| DeploymentSpec::new(format!("dep{d}"), nodes, seed.wrapping_add(d)))
        .collect();
    let (start_tick, mut next_tenant, mut server) = match ckpt.recover()? {
        // The image: the next tenant to submit, then the server's bytes.
        Some((seq, payload)) => <(u64, Vec<u8>)>::from_bytes(&payload)
            .and_then(|(nt, bytes)| Ok((seq, nt, Server::restore_state(cfg, &specs, &bytes)?)))
            .map_err(|e| format!("snapshot state decode failed: {e}"))?,
        None => {
            let mut server = Server::new(cfg);
            for spec in &specs {
                server.add_deployment(spec).map_err(|e| e.to_string())?;
            }
            (0, 0, server)
        }
    };
    println!(
        "serving {deployments} deployments × {nodes} nodes; {tenants} tenants, \
         {qps} submissions/s for {duration_s} s (epoch every {period_s} s)"
    );
    if start_tick > 0 {
        println!(
            "resumed from checkpoint: {start_tick} ticks restored, {} logged ticks to replay",
            ckpt.to_replay(start_tick)
        );
    }

    let ticks = duration.micros().div_ceil(period.micros());
    let per_tick = (qps * period_s).round().max(0.0) as u64;
    println!(
        "\n{:>5} {:>9} {:>9} {:>9} {:>6} {:>6} {:>7}",
        "tick", "submitted", "admitted", "rejected", "shed", "queue", "epochs"
    );
    for t in start_tick..ticks {
        let (mut submitted, mut shed) = (0u64, 0u64);
        while submitted < per_tick && next_tenant < tenants {
            let i = next_tenant;
            next_tenant += 1;
            submitted += 1;
            // Template skew by fractional accumulation: any prefix of the
            // tenant sequence contains ⌊n·skew⌋±1 shared-template tenants,
            // interleaved with unique-constant ones.
            let shares = ((i + 1) as f64 * skew).floor() > (i as f64 * skew).floor();
            let sql = if shares {
                format!(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD {period_s}"
                )
            } else {
                format!(
                    "SELECT A.pres, B.pres FROM Sensors A, Sensors B \
                     WHERE A.temp - B.temp > {:.2} SAMPLE PERIOD {period_s}",
                    3.0 + 0.01 * (i % 200) as f64
                )
            };
            // Deployment choice: a multiplicative hash, so it does not
            // correlate with the skew interleaving above.
            let dep = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % deployments;
            let decision = server.submit(Submission {
                tenant: TenantId(i),
                deployment: format!("dep{dep}"),
                sql,
                every: 1 + i % 3,
            });
            if decision.is_some_and(|d| !d.admitted()) {
                shed += 1;
            }
        }
        let report = server.tick().map_err(|e| format!("{e:?}"))?;
        let admitted = report.decisions.iter().filter(|d| d.admitted()).count();
        let rejected = report.decisions.len() - admitted;
        println!(
            "{t:>5} {submitted:>9} {admitted:>9} {rejected:>9} {shed:>6} {:>6} {:>7}",
            server.queue_len(),
            report.epochs.len()
        );
        let digest = || {
            let mut w = Writer::new();
            w.put_u64(submitted);
            w.put_u64(shed);
            w.put_usize(admitted);
            w.put_usize(rejected);
            w.put_usize(server.queue_len());
            w.put_usize(report.epochs.len());
            for e in &report.epochs {
                w.put_u64(e.tenant.0);
                w.put_usize(e.outcome.result.len());
            }
            persist::fnv1a(&w.into_bytes())
        };
        let image = || (next_tenant, server.export_state()).to_bytes();
        ckpt.commit(t, digest, t + 1, image)?;
    }

    let m = server.metrics();
    let lat = m.epoch_latency_us();
    println!(
        "\ntotals: {} submitted, {} admitted, {} rejected, {} shed",
        m.totals.submitted,
        m.totals.admitted,
        m.totals.rejected(),
        m.totals.shed
    );
    println!(
        "epoch latency: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms over {} group epochs",
        lat.p50() as f64 / 1000.0,
        lat.p99() as f64 / 1000.0,
        lat.max() as f64 / 1000.0,
        lat.count()
    );
    println!(
        "plans: {} admissions joined a live plan, {} built one ({:.0} % joined)",
        m.plans_joined,
        m.plans_built,
        100.0 * m.cache_hit_rate()
    );
    println!(
        "\n{:<8} {:>9} {:>8} {:>12} {:>12} {:>8} {:>12}",
        "dep", "admitted", "epochs", "shared [B]", "solo-eq [B]", "saving", "tenants/plan"
    );
    for (d, dm) in m.deployments().iter().enumerate() {
        let saving = if dm.solo_bytes > 0 {
            100.0 * (1.0 - dm.shared_bytes as f64 / dm.solo_bytes as f64)
        } else {
            0.0
        };
        // Tenant-epochs served per plan-epoch run: what one epoch slot,
        // pre-join filter and exact join were shared across.
        let sharing = dm.query_epochs as f64 / dm.plan_epochs.max(1) as f64;
        println!(
            "dep{d:<5} {:>9} {:>8} {:>12} {:>12} {saving:>7.1}% {sharing:>12.2}",
            dm.admission.admitted, dm.epochs, dm.shared_bytes, dm.solo_bytes
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, Tail};
    use sensjoin_core::MAX_GROUP_QUERIES;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    /// The network `topology` builds from `args`.
    fn build_network(args: &Args) -> Result<SensorNetwork, String> {
        super::build_network(&TOPOLOGY.validate(args)?)
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(dispatch(&args("help")), 0);
        assert_eq!(dispatch(&Args::default()), 0);
    }

    #[test]
    fn unknown_command_fails() {
        assert_ne!(dispatch(&args("frobnicate")), 0);
    }

    #[test]
    fn multi_rejects_a_query_beyond_group_capacity() {
        let sql = "SELECT A.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
        let run = |queries: usize| {
            let mut a = args("multi --nodes 60 --epochs 1");
            a.positional = vec![sql.to_owned(); queries];
            dispatch(&a)
        };
        assert_eq!(run(MAX_GROUP_QUERIES), 0);
        assert_ne!(run(MAX_GROUP_QUERIES + 1), 0);
    }

    #[test]
    fn continuous_rejects_negative_and_non_finite_epsilon() {
        for epsilon in ["-1", "nan", "inf"] {
            let mut a = args("continuous --nodes 40 --rounds 1");
            a.options.insert("epsilon".into(), epsilon.into());
            let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                       WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
            a.options.insert("sql".into(), sql.into());
            assert_ne!(dispatch(&a), 0, "--epsilon {epsilon}");
        }
    }

    #[test]
    fn serve_runs_and_rejects_bad_flags() {
        let a = args(
            "serve --nodes 50 --seed 3 --tenants 6 --deployments 2 \
             --qps 1 --duration 90 --period 30 --skew 0.5",
        );
        assert_eq!(dispatch(&a), 0);
        assert_ne!(dispatch(&args("serve --bogus 1")), 0);
        assert_ne!(dispatch(&args("serve --deployments 0")), 0);
        // There is no admission cache, so no switch for one (DESIGN §4.12).
        let removed = args("serve --no-cache");
        assert_eq!(cmd_serve(&removed), Err("unknown option --no-cache".into()));
        assert_ne!(dispatch(&removed), 0);
    }

    #[test]
    fn checkpoint_flags_require_dir_and_sane_values() {
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
        let with_sql = |spec: &str| {
            let mut a = args(spec);
            a.options.insert("sql".into(), sql.into());
            a
        };
        // Dependent flags without --checkpoint-dir are structured errors.
        assert_ne!(
            dispatch(&with_sql("continuous --nodes 40 --rounds 2 --resume")),
            0
        );
        assert_ne!(
            dispatch(&with_sql(
                "continuous --nodes 40 --rounds 2 --checkpoint-every 2"
            )),
            0
        );
        assert_ne!(
            dispatch(&with_sql(
                "continuous --nodes 40 --rounds 2 --crash-at PostRound"
            )),
            0
        );
        // Zero cadence and unknown crash points are rejected too.
        let dir = std::env::temp_dir().join(format!("sensjoin-cli-ckpt-{}", std::process::id()));
        let dirs = dir.to_string_lossy().into_owned();
        assert_ne!(
            dispatch(&with_sql(&format!(
                "continuous --nodes 40 --rounds 2 --checkpoint-dir {dirs} --checkpoint-every 0"
            ))),
            0
        );
        assert_ne!(
            dispatch(&with_sql(&format!(
                "continuous --nodes 40 --rounds 2 --checkpoint-dir {dirs} --crash-at Nowhere"
            ))),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn continuous_crash_then_resume_completes() {
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
        let dir = std::env::temp_dir().join(format!("sensjoin-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = dir.to_string_lossy().into_owned();
        let with_sql = |spec: &str| {
            let mut a = args(spec);
            a.options.insert("sql".into(), sql.into());
            a
        };
        // Injected crash exits nonzero but leaves durable state...
        assert_ne!(
            dispatch(&with_sql(&format!(
                "continuous --nodes 40 --rounds 4 --checkpoint-dir {dirs} \
                 --checkpoint-every 2 --crash-at PostRound:3"
            ))),
            0
        );
        // ...and --resume finishes the run cleanly.
        assert_eq!(
            dispatch(&with_sql(&format!(
                "continuous --nodes 40 --rounds 4 --checkpoint-dir {dirs} --resume"
            ))),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_executes_query() {
        let a = args("run --nodes 80 --seed 2 --method sens --sql placeholder");
        // Patch in a real query (whitespace split would break it).
        let mut a = a;
        a.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 ONCE"
                .into(),
        );
        assert_eq!(dispatch(&a), 0);
    }

    #[test]
    fn run_rejects_sql_nested_too_deep() {
        // One level past the bound, and 20 000 parentheses — a 40 kB string
        // that overflowed the stack and aborted the process before there was
        // a bound: both are an error naming it.
        for depth in [sensjoin_query::MAX_EXPR_DEPTH + 1, 20_000] {
            let k = depth - 2; // (…(A.temp < B.temp)…): k pairs around 2 levels
            let mut a = args("run --nodes 30 --method sens");
            a.options.insert(
                "sql".into(),
                format!(
                    "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                     WHERE {}A.temp < B.temp{} ONCE",
                    "(".repeat(k),
                    ")".repeat(k)
                ),
            );
            let err = cmd_run(&a).expect_err("too deep");
            assert!(err.contains("expression nested deeper than"), "{err}");
            assert_ne!(dispatch(&a), 0);
        }
    }

    #[test]
    fn run_rejects_a_join_of_nine_relations() {
        let from: Vec<String> = (0..9).map(|i| format!("Sensors R{i}")).collect();
        let mut a = args("run --nodes 30 --method sens");
        let sql = format!("SELECT R0.hum FROM {} ONCE", from.join(", "));
        a.options.insert("sql".into(), sql);
        let err = cmd_run(&a).expect_err("nine relations");
        assert!(err.contains("at most 8 are supported"), "{err}");
        assert_ne!(dispatch(&a), 0);
    }

    #[test]
    fn run_rejects_bad_sql() {
        let mut a = args("run --nodes 50 --method sens");
        a.options.insert("sql".into(), "SELEKT nonsense".into());
        assert_ne!(dispatch(&a), 0);
        // And missing --sql entirely.
        assert_ne!(dispatch(&args("run --nodes 50")), 0);
    }

    #[test]
    fn ascii_map_renders() {
        let a = args("topology --nodes 120 --seed 4 --map");
        assert_eq!(dispatch(&a), 0);
        // Direct render check.
        let snet = build_network(&args("topology --nodes 120 --seed 4")).unwrap();
        let map = ascii_map(&snet, 40, 16);
        assert_eq!(map.matches('B').count(), 1);
        assert!(map.lines().count() == 18); // 16 rows + 2 borders
        assert!(map.chars().any(|c| c.is_ascii_digit()));
    }

    #[test]
    fn topology_and_sweep_run() {
        assert_eq!(dispatch(&args("topology --nodes 100 --seed 3")), 0);
        assert_eq!(
            dispatch(&args("sweep --nodes 120 --seed 3 --fractions 5,25")),
            0
        );
    }

    #[test]
    fn trace_writes_csv_consistent_with_stats() {
        let dir = std::env::temp_dir().join("sensjoin-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let mut a = args("run --nodes 80 --seed 2 --method sens");
        a.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 ONCE"
                .into(),
        );
        a.options
            .insert("trace".into(), path.to_str().unwrap().to_owned());
        assert_eq!(dispatch(&a), 0);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("seq,phase,kind,from,to,bytes,packets,retransmissions,acked\n"));
        assert!(csv.lines().count() > 10);
        // --trace with --method all is ambiguous.
        let mut bad = args("run --nodes 50 --method all --trace /tmp/x.csv");
        bad.options.insert(
            "sql".into(),
            "SELECT A.temp, B.temp FROM Sensors A, Sensors B ONCE".into(),
        );
        assert_ne!(dispatch(&bad), 0);
    }

    #[test]
    fn churn_flags_run_on_every_executor() {
        let sql_once = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                        WHERE A.temp - B.temp > 3.0 ONCE";
        let sql_cont = "SELECT A.hum FROM Sensors A, Sensors B \
                        WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30";
        // Aggressive churn so the timeline actually fires at test scale.
        let mut a = args(
            "run --nodes 80 --seed 3 --method sens --churn 60 --mtbf 20 --mttr 10 --churn-seed 5",
        );
        a.options.insert("sql".into(), sql_once.into());
        assert_eq!(dispatch(&a), 0);
        let mut c = args("continuous --nodes 70 --seed 3 --rounds 3 --churn 60 --mtbf 20");
        c.options.insert("sql".into(), sql_cont.into());
        assert_eq!(dispatch(&c), 0);
        let mut m = args("multi --nodes 70 --seed 3 --epochs 2 --churn 60 --mtbf 20");
        m.positional = vec![sql_cont.into()];
        assert_eq!(dispatch(&m), 0);
        // --mtbf without --churn is rejected, as are nonsense values.
        let mut bad = args("run --nodes 50 --mtbf 20");
        bad.options.insert("sql".into(), sql_once.into());
        assert_ne!(dispatch(&bad), 0);
        let mut bad = args("run --nodes 50 --churn 0");
        bad.options.insert("sql".into(), sql_once.into());
        assert_ne!(dispatch(&bad), 0);
    }

    #[test]
    fn energy_model_flag_selects_and_prints() {
        let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                   WHERE A.temp - B.temp > 4.0 ONCE";
        for model in ["micaz", "sunspot", "byte:2.5"] {
            let mut a = args("run --nodes 60 --seed 2 --method sens");
            a.options.insert("energy-model".into(), model.into());
            a.options.insert("sql".into(), sql.into());
            assert_eq!(dispatch(&a), 0, "--energy-model {model} failed");
        }
        // The flag reaches the continuous executor too.
        let mut c = args("continuous --nodes 60 --seed 3 --rounds 2 --energy-model sunspot");
        c.options.insert(
            "sql".into(),
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30"
                .into(),
        );
        assert_eq!(dispatch(&c), 0);
        // Unknown models and nonsense byte costs are rejected.
        let mut bad = args("run --nodes 50 --energy-model fusion");
        bad.options.insert("sql".into(), sql.into());
        assert_ne!(dispatch(&bad), 0);
        let mut bad = args("run --nodes 50 --energy-model byte:-1");
        bad.options.insert("sql".into(), sql.into());
        assert_ne!(dispatch(&bad), 0);
    }

    #[test]
    fn lifetime_runs_until_criterion() {
        // A tiny battery guarantees deaths well inside the round cap.
        let a = args("lifetime --nodes 50 --seed 3 --battery 0.005 --jitter 0.1 --max-rounds 30");
        assert_eq!(dispatch(&a), 0);
        let b = args(
            "lifetime --nodes 50 --seed 3 --battery 0.005 --parent-policy power-aware \
             --until death:10 --max-rounds 30",
        );
        assert_eq!(dispatch(&b), 0);
        let c = args(
            "lifetime --nodes 50 --seed 3 --battery 0.005 --until partition \
             --max-rounds 10 --energy-model sunspot",
        );
        assert_eq!(dispatch(&c), 0);
        // Bad parameters are rejected.
        assert_ne!(dispatch(&args("lifetime --battery 0")), 0);
        assert_ne!(dispatch(&args("lifetime --jitter 1.5")), 0);
        assert_ne!(dispatch(&args("lifetime --parent-policy psychic")), 0);
        assert_ne!(dispatch(&args("lifetime --until death:0")), 0);
        assert_ne!(dispatch(&args("lifetime --until eventually")), 0);
        assert_ne!(dispatch(&args("lifetime --max-rounds 0")), 0);
        assert_ne!(dispatch(&args("lifetime --bogus 1")), 0);
    }

    #[test]
    fn multi_runs_concurrent_queries() {
        let mut a = args("multi --nodes 70 --seed 5 --epochs 2 --every 1,2");
        a.positional = vec![
            "SELECT A.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 2 SAMPLE PERIOD 30"
                .into(),
            "SELECT B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 3 SAMPLE PERIOD 30"
                .into(),
        ];
        assert_eq!(dispatch(&a), 0);
        // No queries, or a mismatched --every list, is an error.
        assert_ne!(dispatch(&args("multi --nodes 50")), 0);
        let mut bad = args("multi --nodes 50 --every 1,2,3");
        bad.positional = vec!["SELECT A.temp FROM Sensors A, Sensors B ONCE".into()];
        assert_ne!(dispatch(&bad), 0);
    }

    #[test]
    fn bad_options_rejected() {
        assert_ne!(dispatch(&args("run --bogus 1")), 0);
        assert_ne!(dispatch(&args("topology --base nowhere")), 0);
        assert_ne!(dispatch(&args("topology --fields lava")), 0);
        // Out-of-domain values that used to reach a library assert.
        for area in ["0", "-3", "nan", "inf"] {
            assert_ne!(dispatch(&args(&format!("topology --area {area}"))), 0);
        }
        assert_ne!(dispatch(&args("topology --nodes 0")), 0);
        assert_ne!(dispatch(&args("serve --nodes 0 --duration 30")), 0);
    }

    #[test]
    fn lossy_run_with_arq() {
        let mut a = args("run --nodes 60 --seed 3 --method sens --loss 0.05 --retries 8");
        a.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 ONCE"
                .into(),
        );
        assert_eq!(dispatch(&a), 0);
        // Bursty variant with summary-and-repair.
        let mut b = args(
            "run --nodes 60 --seed 3 --method sens --loss 0.05 --burst 4 \
             --arq summary --retries 8",
        );
        b.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 4.0 ONCE"
                .into(),
        );
        assert_eq!(dispatch(&b), 0);
        // Bad channel parameters are rejected.
        assert_ne!(dispatch(&args("run --nodes 50 --loss 1.5 --sql x")), 0);
        assert_ne!(
            dispatch(&args("run --nodes 50 --loss 0.1 --arq wishful --sql x")),
            0
        );
        for burst in ["0.5", "nan", "inf"] {
            let mut bad = b.clone();
            bad.options.insert("burst".into(), burst.into());
            assert_ne!(dispatch(&bad), 0, "--burst {burst}");
        }
    }

    #[test]
    fn continuous_runs_rounds() {
        let mut a = args("continuous --nodes 60 --seed 5 --rounds 3");
        a.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30"
                .into(),
        );
        assert_eq!(dispatch(&a), 0);
        // Lossy continuous rounds with the default ack ARQ.
        let mut b = args("continuous --nodes 60 --seed 5 --rounds 3 --loss 0.05 --retries 8");
        b.options.insert(
            "sql".into(),
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30"
                .into(),
        );
        assert_eq!(dispatch(&b), 0);
        // Missing --sql is an error.
        assert_ne!(dispatch(&args("continuous --nodes 50")), 0);
    }

    /// A checkpoint directory of another deployment (here: another node
    /// count) ends a `--resume` with exit 1, not with an index panic.
    #[test]
    fn continuous_resume_on_another_deployment_fails_cleanly() {
        let dir = std::env::temp_dir().join(format!("sensjoin-cli-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |spec: &str| {
            let mut a = args(&format!(
                "continuous {spec} --rounds 2 --checkpoint-dir {}",
                dir.display()
            ));
            let sql = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                       WHERE A.temp - B.temp > 4.0 SAMPLE PERIOD 30";
            a.options.insert("sql".into(), sql.into());
            dispatch(&a)
        };
        assert_eq!(run("--nodes 40"), 0);
        assert_eq!(run("--nodes 50 --resume"), 1);
        assert_eq!(run("--nodes 40 --resume"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const STREAM_SQL: &str = "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
                              WHERE A.temp - B.temp > 0.1 ONCE";

    #[test]
    fn stream_crash_then_resume_completes() {
        let dir = std::env::temp_dir().join(format!("sensjoin-cli-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |spec: &str| {
            let mut a = args(&format!(
                "stream --nodes 40 --batches 5 --expire 0.1 --checkpoint-dir {} {spec}",
                dir.display()
            ));
            a.options.insert("sql".into(), STREAM_SQL.into());
            dispatch(&a)
        };
        assert_ne!(run("--checkpoint-every 2 --crash-at PostRound:3"), 0);
        // The resumed run ends on the driver's own batch-join verification.
        assert_eq!(run("--resume"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `stream` image — cut at every length, and with every byte
    /// overwritten by `00`, `01`, `40` and `FF` — either fails structurally
    /// or restores to a driver that runs two batches and whose engine still
    /// agrees with the batch join (same sweep as
    /// `crates/core/tests/image_hardening.rs`).
    #[test]
    fn stream_image_never_panics() {
        let mut snet = SensorNetworkBuilder::new()
            .area(Area::new(120.0, 120.0))
            .placement(Placement::UniformRandom { n: 10 })
            .seed(5)
            .build()
            .unwrap();
        let cq = snet.compile(&parse(STREAM_SQL).unwrap()).unwrap();
        let mut engine = StreamJoinEngine::new(cq.clone());
        let mut st = StreamState {
            cold: BatchStats::default(),
            total: BatchStats::default(),
            rng: 17,
            shadow: Shadow::new(),
        };
        let ops: Vec<StreamOp> = (0..snet.len() as u32)
            .map(|i| {
                let per_rel = node_tuples(&snet, &cq, NodeId(i), snet.readings(NodeId(i)));
                st.shadow.insert(NodeId(i), per_rel.clone());
                StreamOp::Upsert {
                    origin: NodeId(i),
                    per_rel,
                }
            })
            .collect();
        st.cold = engine.apply_batch(&ops);
        stream_batch(&mut st, &mut engine, &snet, &cq, 0.2, 0.1);
        assert!(engine.cached_rows() > 0, "the image holds no joining tuple");
        let mut w = Writer::new();
        st.put(&mut w);
        let full = w.into_bytes();
        assert!(restore_stream(&full, &cq).is_ok());
        snet.resample(&presets::indoor_climate(), 70);

        for cut in 0..full.len() {
            assert!(restore_stream(&full[..cut], &cq).is_err(), "cut at {cut}");
        }

        let mut restored = 0;
        for at in 0..full.len() {
            for byte in [0x00, 0x01, 0x40, 0xFF] {
                if full[at] == byte {
                    continue;
                }
                let mut image = full.clone();
                image[at] = byte;
                let Ok((mut st, mut engine)) = restore_stream(&image, &cq) else {
                    continue;
                };
                restored += 1;
                for _ in 0..2 {
                    stream_batch(&mut st, &mut engine, &snet, &cq, 0.2, 0.1);
                }
                verify_stream(&cq, &engine, &st.shadow)
                    .unwrap_or_else(|e| panic!("byte {at} = {byte:#04x}: {e}"));
            }
        }
        assert!(restored > 0, "the sweep never reached a batch");
    }

    #[test]
    fn serve_defaults_are_the_library_defaults() {
        let o = SERVE.validate(&args("serve")).unwrap();
        let cfg = ServeConfig::default();
        assert_eq!(o.value("max-groups").count() as usize, cfg.max_groups);
        assert_eq!(o.value("queue-depth").count() as usize, cfg.queue_depth);
        assert_eq!(
            o.value("admit-per-tick").count() as usize,
            cfg.admit_per_tick
        );
        assert_eq!(o.value("period").micros(), cfg.period_us);
    }

    #[test]
    fn help_is_an_option_of_every_command() {
        for cmd in COMMANDS {
            let line = format!("{} --nodes 0 --help", cmd.name);
            assert_eq!(dispatch(&args(&line)), 0, "{line}");
        }
    }

    /// A tiny command line per subcommand: ~30 nodes, one round / batch /
    /// epoch / tick; lossy where the command takes `--loss`, so `--burst`,
    /// `--arq` and `--retries` matter.
    fn tiny(cmd: &Command) -> Args {
        let once = "SELECT A.hum, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 4.0 ONCE";
        let sampled = "SELECT A.hum FROM Sensors A, Sensors B \
                       WHERE A.temp - B.temp > 2.0 SAMPLE PERIOD 30";
        let mut a = args(&format!("{} --nodes 30", cmd.name));
        let extra: &[(&str, &str)] = match cmd.name {
            "run" => &[("sql", once), ("method", "sens")],
            "advise" | "stream" => &[("sql", once), ("batches", "1")],
            "continuous" => &[("sql", sampled), ("rounds", "1")],
            "multi" => &[("epochs", "1")],
            "lifetime" => &[("max-rounds", "1")],
            "sweep" => &[("fractions", "5")],
            "serve" => &[("deployments", "1"), ("tenants", "2"), ("duration", "30")],
            _ => &[],
        };
        for (k, v) in extra.iter().chain([("loss", "0.05")].iter()) {
            if cmd.options().any(|(o, _)| o.name == *k) {
                a.options.insert((*k).into(), (*v).into());
            }
        }
        if !cmd.positional.is_empty() {
            a.positional = vec![sampled.into()];
        }
        a
    }

    /// Every numeric option of every subcommand, the numeric tails of
    /// `byte:<µJ>`, `death:<pct>` and `P[:N]` included, fed the values that
    /// used to panic, overflow, saturate the µs clock or pass silently:
    /// each is rejected by validation with an error naming the option, or
    /// the command runs to exit 0. A panic fails the test.
    #[test]
    fn numeric_flags_are_rejected_by_name_or_run() {
        let dir = std::env::temp_dir().join(format!("sensjoin-cli-abuse-{}", std::process::id()));
        let dirs = dir.to_string_lossy().into_owned();
        let mut ran = 0;
        for cmd in COMMANDS {
            for (opt, _) in cmd.options() {
                let spell: &dyn Fn(&str) -> String = match opt.kind {
                    Kind::Count(..) | Kind::Real(..) | Kind::Seconds | Kind::List(_) => {
                        &|v| v.to_owned()
                    }
                    Kind::Choice(_, Tail::Tagged(tag, ..)) => &move |v| format!("{tag}:{v}"),
                    Kind::Choice(words, Tail::Suffix(..)) => &move |v| format!("{}:{v}", words[0]),
                    _ => continue,
                };
                let mut values = vec!["0", "-1", "nan", "inf", "1e300", "18446744073709551616"];
                if matches!(opt.kind, Kind::Seconds) {
                    values.push("18446744073710");
                }
                for v in values {
                    let mut a = tiny(cmd);
                    match opt.needs {
                        Some("churn") => a.options.insert("churn".into(), "60".into()),
                        Some(dep) => a.options.insert(dep.into(), dirs.clone()),
                        None => None,
                    };
                    a.options.insert(opt.name.into(), spell(v));
                    let line = format!("{} --{} {}", cmd.name, opt.name, spell(v));
                    match cmd.validate(&a) {
                        Err(e) => {
                            let e = e.to_string();
                            assert!(e.starts_with(&format!("--{}", opt.name)), "{line}: {e}");
                        }
                        // `shell` would read stdin; what it runs first is this.
                        Ok(o) if cmd.name == "shell" => drop(super::build_network(&o).unwrap()),
                        Ok(_) => assert_eq!(dispatch(&a), 0, "{line}"),
                    }
                    ran += 1;
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
        assert!(ran > 500, "{ran} cases");
    }
}
