//! Subcommand implementations.

use crate::args::Args;
use crate::csvdata;
use sensjoin_core::persist::{self, CheckpointStore, CrashPoint, Persist, Reader, Writer};
use sensjoin_core::workload::RangeQueryFamily;
use sensjoin_core::{
    exact_join, persist_struct, BatchStats, ContinuousSensJoin, CostModel, ExternalJoin,
    GroupRunner, JoinMethod, JoinOutcome, JoinResult, MediatedJoin, SensJoin, SensJoinConfig,
    SensorNetwork, SensorNetworkBuilder, StreamJoinEngine, StreamOp,
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

const USAGE: &str = "\
sensjoin — SENS-Join over a simulated wireless sensor network

USAGE:
  sensjoin run --sql \"SELECT ...\"  run one query
  sensjoin shell                     interactive SQL loop
  sensjoin topology                  routing-tree statistics
  sensjoin sweep                     selectivity sweep (SENS vs external)
  sensjoin advise --sql ... --fraction F   cost-model method advice
  sensjoin multi \"SQL1\" \"SQL2\" ...    concurrent queries, shared collection
  sensjoin continuous --sql \"... SAMPLE PERIOD n\"   delta rounds of one query
  sensjoin stream --sql \"SELECT ...\"   streaming-ingestion engine driver
  sensjoin serve                     multi-tenant serving simulation
  sensjoin lifetime                  battery-powered rounds until the network dies

COMMON OPTIONS:
  --data FILE      load a trace CSV (x,y,attrs...) instead of generating
  --nodes N        network size                      [default: 500]
  --area  S        square side length in meters      [default: density-scaled]
  --seed  S        placement/data seed               [default: 1]
  --base  POS      base station: corner|center       [default: corner]
  --fields PRESET  indoor|outdoor|uncorrelated       [default: indoor]

ENERGY OPTIONS (run, multi, continuous, lifetime):
  --energy-model M micaz|sunspot|byte:<µJ>         [default: micaz]
                   radio energy model; byte:<µJ> charges a flat per-byte cost

CHANNEL OPTIONS (run, multi, continuous, lifetime):
  --loss P         per-packet loss probability 0..1  [default: 0 = lossless]
  --burst L        mean loss-burst length (packets): Gilbert-Elliott channel
                   instead of independent (Bernoulli) losses
  --arq POLICY     none|ack|summary                  [default: ack when lossy]
  --retries R      ARQ retry / repair-round budget   [default: 3]
  --loss-seed S    channel randomness seed           [default: 7]

CHECKPOINT OPTIONS (continuous, stream, serve):
  --checkpoint-dir DIR   snapshot + write-ahead-log directory; enables
                         crash recovery for the run
  --checkpoint-every K   rounds/batches/ticks between snapshots [default: 1]
  --resume               resume from the latest valid checkpoint in DIR;
                         the completed prefix is skipped and the suffix
                         re-executes bit-identically
  --crash-at P[:N]       inject a crash at point P (PostRound, MidWalAppend,
                         PostWalAppend, MidSnapshotWrite, PostSnapshotTmp,
                         PostSnapshotRename), on its N-th occurrence

CHURN OPTIONS (run, multi, continuous, lifetime):
  --churn H        enable node churn, sampled over a horizon of H seconds
                   of simulated time (crash-stop + reboot with state loss)
  --mtbf S         per-node mean time between failures, seconds [default: 600]
  --mttr S         per-node mean time to repair, seconds [default: mtbf/2]
  --churn-seed S   fault-timeline randomness seed    [default: 13]

run/shell OPTIONS:
  --sql QUERY      the join query (run only)
  --method M       sens|external|mediated|noquad|all [default: all]

sweep OPTIONS:
  --fractions L    comma list of result percentages  [default: 1,5,25,60]

multi OPTIONS (queries are positional arguments):
  --epochs E       number of sample epochs to run    [default: 4]
  --every L        comma list of per-query periods in epochs [default: 1]
  --period S       epoch period in seconds           [default: 30]

continuous OPTIONS:
  --rounds R       number of rounds to run           [default: 4]
  --epsilon E      value-drift suppression threshold [default: 0 = exact]

lifetime OPTIONS (continuous rounds on battery-powered nodes):
  --battery J      per-node battery capacity in joules   [default: 0.5]
  --jitter F       seeded per-node capacity jitter fraction in [0,1)
                                                     [default: 0]
  --parent-policy P  min-hop|power-aware parent selection [default: min-hop]
  --until C        first-death|partition|death:<pct> end criterion
                                                     [default: first-death]
  --max-rounds R   round cap                         [default: 200]
  --sql QUERY      the continuous query to round over [default: a band join]
  --trace FILE     write the packet/repair/battery trace CSV

stream OPTIONS:
  --batches B      delta batches after the cold load [default: 8]
  --rate P         fraction of nodes re-sampled (upserted) per batch
                                                     [default: 0.05]
  --expire P       fraction of live nodes expired per batch [default: 0]
  --verify-every K cross-check against the batch join every K batches
                   (always checked after the last batch)    [default: 0]

serve OPTIONS (simulated tenants submit continuous queries against a
registry of deployments; --nodes/--seed size and seed each deployment):
  --tenants T      total tenants that will submit    [default: 64]
  --deployments D  number of deployments             [default: 4]
  --qps Q          tenant submissions per simulated second [default: 2]
  --duration S     simulated seconds to serve        [default: 300]
  --period S       epoch cadence per deployment, seconds [default: 30]
  --skew F         fraction of tenants submitting the shared template
                   (the rest get unique queries)     [default: 0.5]
  --max-groups G   query groups per deployment (64 queries each)
                                                     [default: 4]
  --queue-depth N  admission queue bound (overflow is shed) [default: 256]
  --admit-per-tick N  admissions per tick, 0 = drain all  [default: 0]
";

/// Dispatches a parsed command line; returns the process exit code.
pub fn dispatch(args: &Args) -> i32 {
    let result = match args.command.as_deref() {
        Some("run") => cmd_run(args),
        Some("advise") => cmd_advise(args),
        Some("shell") => cmd_shell(args),
        Some("topology") => cmd_topology(args),
        Some("sweep") => cmd_sweep(args),
        Some("multi") => cmd_multi(args),
        Some("continuous") => cmd_continuous(args),
        Some("stream") => cmd_stream(args),
        Some("serve") => cmd_serve(args),
        Some("lifetime") => cmd_lifetime(args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

fn build_network(args: &Args) -> Result<SensorNetwork, String> {
    let nodes: usize = args
        .get_or("nodes", 500, "integer")
        .map_err(|e| e.to_string())?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let external = match args.get_str("data") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            Some(csvdata::parse_csv(&text)?)
        }
        None => None,
    };
    let area = match args.get_str("area") {
        Some(s) => {
            let side: f64 = s.parse().map_err(|_| format!("bad --area {s:?}"))?;
            if !side.is_finite() || side <= 0.0 {
                return Err("--area must be a positive side length in metres".into());
            }
            Area::new(side, side)
        }
        None => match &external {
            Some(d) => csvdata::bounding_area(d),
            None => Area::for_constant_density(nodes),
        },
    };
    let base = match args.get_str("base").unwrap_or("corner") {
        "corner" => BaseChoice::NearestCorner,
        "center" => BaseChoice::NearestCenter,
        other => return Err(format!("bad --base {other:?} (corner|center)")),
    };
    let fields = field_specs(args)?;
    let (energy, _) = energy_model(args)?;
    let mut builder = SensorNetworkBuilder::new()
        .area(area)
        .placement(Placement::UniformRandom { n: nodes })
        .fields(fields)
        .base(base)
        .energy(energy)
        .seed(seed);
    if let Some(d) = external {
        builder = builder.data(d);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Options shared by every subcommand that charges through the energy model.
const ENERGY_OPTS: &[&str] = &["energy-model"];

/// Parses `--energy-model micaz|sunspot|byte:<µJ>` into the model plus a
/// human-readable label for run headers.
fn energy_model(args: &Args) -> Result<(EnergyModel, String), String> {
    let spec = args.get_str("energy-model").unwrap_or("micaz");
    if let Some(rest) = spec.strip_prefix("byte:") {
        let per_byte: f64 = rest
            .parse()
            .map_err(|_| format!("bad --energy-model {spec:?}"))?;
        if !per_byte.is_finite() || per_byte <= 0.0 {
            return Err("--energy-model byte:<µJ> needs a positive per-byte cost".into());
        }
        return Ok((
            EnergyModel::byte_proportional(per_byte),
            format!("byte-proportional ({per_byte} µJ/B)"),
        ));
    }
    match spec {
        "micaz" => Ok((EnergyModel::micaz(), "micaz".into())),
        "sunspot" => Ok((EnergyModel::sunspot(), "sunspot".into())),
        other => Err(format!(
            "bad --energy-model {other:?} (micaz|sunspot|byte:<µJ>)"
        )),
    }
}

/// Options shared by every subcommand that can run over a lossy channel.
const CHANNEL_OPTS: &[&str] = &["loss", "burst", "arq", "retries", "loss-seed"];

/// Attaches the channel / ARQ configuration from `--loss`, `--burst`,
/// `--arq`, `--retries` and `--loss-seed` to the network.
fn apply_channel(args: &Args, snet: &mut SensorNetwork) -> Result<(), String> {
    let p: f64 = args
        .get_or("loss", 0.0, "probability")
        .map_err(|e| e.to_string())?;
    if !(0.0..1.0).contains(&p) {
        return Err("--loss must be in [0, 1)".into());
    }
    let seed: u64 = args
        .get_or("loss-seed", 7, "integer")
        .map_err(|e| e.to_string())?;
    let retries: u32 = args
        .get_or("retries", 3, "integer")
        .map_err(|e| e.to_string())?;
    let arq = match args
        .get_str("arq")
        .unwrap_or(if p > 0.0 { "ack" } else { "none" })
    {
        "none" => ArqPolicy::None,
        "ack" => ArqPolicy::AckRetransmit {
            max_retries: retries,
        },
        "summary" => ArqPolicy::SummaryRepair {
            max_rounds: retries,
        },
        other => return Err(format!("bad --arq {other:?} (none|ack|summary)")),
    };
    if p > 0.0 {
        let channel = match args.get_str("burst") {
            Some(b) => {
                let burst: f64 = b.parse().map_err(|_| format!("bad --burst {b:?}"))?;
                if !(1.0..f64::INFINITY).contains(&burst) {
                    return Err("--burst must be a mean burst length of at least 1 packet".into());
                }
                Channel::gilbert_elliott(p, burst, seed)
            }
            None => Channel::bernoulli(p, seed),
        };
        snet.net_mut().set_channel(Some(channel));
    }
    snet.net_mut().set_arq(arq);
    Ok(())
}

/// Options shared by every subcommand that can run under node churn.
const CHURN_OPTS: &[&str] = &["churn", "mtbf", "mttr", "churn-seed"];

/// Attaches a sampled fault timeline from `--churn`, `--mtbf`, `--mttr` and
/// `--churn-seed` to the network. Times are given in seconds of simulated
/// time and converted to the simulator's microsecond clock.
fn apply_churn(args: &Args, snet: &mut SensorNetwork) -> Result<(), String> {
    let Some(h) = args.get_str("churn") else {
        for opt in &CHURN_OPTS[1..] {
            if args.get_str(opt).is_some() {
                return Err(format!("--{opt} needs --churn HORIZON_S"));
            }
        }
        return Ok(());
    };
    let horizon_s: f64 = h.parse().map_err(|_| format!("bad --churn {h:?}"))?;
    if !horizon_s.is_finite() || horizon_s <= 0.0 {
        return Err("--churn horizon must be positive".into());
    }
    let mtbf_s: f64 = args
        .get_or("mtbf", 600.0, "seconds")
        .map_err(|e| e.to_string())?;
    if !mtbf_s.is_finite() || mtbf_s <= 0.0 {
        return Err("--mtbf must be positive".into());
    }
    let mttr_s: f64 = match args.get_str("mttr") {
        Some(s) => s.parse().map_err(|_| format!("bad --mttr {s:?}"))?,
        None => mtbf_s / 2.0,
    };
    if !mttr_s.is_finite() || mttr_s <= 0.0 {
        return Err("--mttr must be positive".into());
    }
    let seed: u64 = args
        .get_or("churn-seed", 13, "integer")
        .map_err(|e| e.to_string())?;
    let tl = ChurnTimeline::sample(
        snet.len(),
        snet.net().base(),
        mtbf_s * 1e6,
        mttr_s * 1e6,
        (horizon_s * 1e6) as sensjoin_sim::Time,
        seed,
    );
    snet.net_mut().set_churn(Some(tl));
    Ok(())
}

fn field_specs(args: &Args) -> Result<Vec<FieldSpec>, String> {
    Ok(match args.get_str("fields").unwrap_or("indoor") {
        "indoor" => presets::indoor_climate(),
        "outdoor" => presets::outdoor_environment(),
        "uncorrelated" => presets::uncorrelated(),
        other => return Err(format!("bad --fields {other:?}")),
    })
}

/// Options shared by every subcommand that can checkpoint and resume.
const CHECKPOINT_OPTS: &[&str] = &["checkpoint-dir", "checkpoint-every", "resume", "crash-at"];

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
        let store = self.store.as_ref().expect("--resume implies a store");
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

/// Parses the checkpoint flags, opening (and possibly crash-arming) the
/// store. The dependent flags are rejected without `--checkpoint-dir`.
fn checkpoint_args(args: &Args) -> Result<Checkpointing, String> {
    let every: u64 = args
        .get_or("checkpoint-every", 1, "integer")
        .map_err(|e| e.to_string())?;
    if every == 0 {
        return Err("--checkpoint-every must be positive".into());
    }
    let Some(dir) = args.get_str("checkpoint-dir") else {
        for opt in &CHECKPOINT_OPTS[1..] {
            if args.get_str(opt).is_some() {
                return Err(format!("--{opt} needs --checkpoint-dir DIR"));
            }
        }
        return Ok(Checkpointing {
            store: None,
            every,
            resume: false,
            logged: BTreeMap::new(),
        });
    };
    let mut store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    if let Some(spec) = args.get_str("crash-at") {
        let (name, occurrence) = match spec.split_once(':') {
            Some((n, o)) => (
                n,
                o.parse()
                    .map_err(|_| format!("bad --crash-at occurrence in {spec:?}"))?,
            ),
            None => (spec, 1),
        };
        let point = CrashPoint::ALL
            .into_iter()
            .find(|p| p.to_string().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!(
                    "bad --crash-at point {name:?} (one of {:?})",
                    CrashPoint::ALL
                )
            })?;
        store.arm_crash(point, occurrence);
    }
    Ok(Checkpointing {
        store: Some(store),
        every,
        resume: args.flag("resume"),
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

fn cmd_multi(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes", "area", "seed", "base", "fields", "epochs", "every", "period", "data",
    ];
    known.extend_from_slice(ENERGY_OPTS);
    known.extend_from_slice(CHANNEL_OPTS);
    known.extend_from_slice(CHURN_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    if args.positional.is_empty() {
        return Err("multi needs one or more SQL queries as positional arguments".into());
    }
    let epochs: u64 = args
        .get_or("epochs", 4, "integer")
        .map_err(|e| e.to_string())?;
    let period_s: u64 = args
        .get_or("period", 30, "integer")
        .map_err(|e| e.to_string())?;
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let every: Vec<u64> = match args.get_str("every") {
        None => vec![1; args.positional.len()],
        Some(s) => {
            let list: Vec<u64> = s
                .split(',')
                .map(|p| p.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad --every: {e}"))?;
            if list.len() == 1 {
                vec![list[0]; args.positional.len()]
            } else if list.len() == args.positional.len() {
                list
            } else {
                return Err(format!(
                    "--every lists {} periods for {} queries",
                    list.len(),
                    args.positional.len()
                ));
            }
        }
    };
    let mut snet = build_network(args)?;
    apply_channel(args, &mut snet)?;
    apply_churn(args, &mut snet)?;
    // A loaded trace is a fixed snapshot; only generated fields drift.
    let specs = if args.get_str("data").is_some() {
        Vec::new()
    } else {
        field_specs(args)?
    };
    let mut runner = GroupRunner::new(SensJoinConfig::default(), period_s * 1_000_000);
    for (sql, &every) in args.positional.iter().zip(&every) {
        let q = parse(sql).map_err(|e| e.to_string())?;
        let cq = snet.compile(&q).map_err(|e| e.to_string())?;
        runner
            .group_mut()
            .try_register(&snet, cq, every)
            .map_err(|e| e.to_string())?;
    }
    println!(
        "network: {} nodes, {} concurrent queries, epoch every {period_s} s, energy model {}",
        snet.len(),
        args.positional.len(),
        energy_model(args)?.1
    );
    let reports = runner
        .run(&mut snet, epochs, &specs, seed)
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
        let rows: Vec<String> = r
            .outcomes
            .iter()
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

fn cmd_continuous(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes", "area", "seed", "base", "fields", "sql", "rounds", "epsilon", "data",
    ];
    known.extend_from_slice(ENERGY_OPTS);
    known.extend_from_slice(CHANNEL_OPTS);
    known.extend_from_slice(CHURN_OPTS);
    known.extend_from_slice(CHECKPOINT_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    let sql = args
        .get_str("sql")
        .ok_or("continuous needs --sql \"SELECT ... SAMPLE PERIOD n\"")?
        .to_owned();
    let rounds: u64 = args
        .get_or("rounds", 4, "integer")
        .map_err(|e| e.to_string())?;
    let epsilon: f64 = args
        .get_or("epsilon", 0.0, "number")
        .map_err(|e| e.to_string())?;
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(format!(
            "--epsilon must be a finite, non-negative number, got {epsilon}"
        ));
    }
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let mut snet = build_network(args)?;
    apply_channel(args, &mut snet)?;
    apply_churn(args, &mut snet)?;
    // A loaded trace is a fixed snapshot; only generated fields drift.
    let specs = if args.get_str("data").is_some() {
        Vec::new()
    } else {
        field_specs(args)?
    };
    let q = parse(&sql).map_err(|e| e.to_string())?;
    let cq = snet.compile(&q).map_err(|e| e.to_string())?;
    let mut cont = ContinuousSensJoin::with_epsilon(epsilon);
    let mut ckpt = checkpoint_args(args)?;
    let mut start_round = 0u64;
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
        energy_model(args)?.1
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

/// `sensjoin lifetime`: continuous rounds of one query on battery-powered
/// nodes until the network dies — first battery death, base-station
/// partition or an N %-death fraction, whichever the `--until` criterion
/// selects — reporting rounds survived, the death order and the residual
/// energy distribution.
fn cmd_lifetime(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes",
        "area",
        "seed",
        "base",
        "fields",
        "sql",
        "data",
        "battery",
        "jitter",
        "parent-policy",
        "until",
        "max-rounds",
        "trace",
    ];
    known.extend_from_slice(ENERGY_OPTS);
    known.extend_from_slice(CHANNEL_OPTS);
    known.extend_from_slice(CHURN_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    let sql = args
        .get_str("sql")
        .unwrap_or(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 3.0 SAMPLE PERIOD 30",
        )
        .to_owned();
    let battery_j: f64 = args
        .get_or("battery", 0.5, "joules")
        .map_err(|e| e.to_string())?;
    if !battery_j.is_finite() || battery_j <= 0.0 {
        return Err("--battery must be a positive capacity in joules".into());
    }
    let jitter: f64 = args
        .get_or("jitter", 0.0, "fraction")
        .map_err(|e| e.to_string())?;
    if !(0.0..1.0).contains(&jitter) {
        return Err("--jitter must be in [0, 1)".into());
    }
    let policy_name = args.get_str("parent-policy").unwrap_or("min-hop");
    let policy = match policy_name {
        "min-hop" => ParentPolicy::MinHop,
        "power-aware" => ParentPolicy::PowerAware,
        other => {
            return Err(format!(
                "bad --parent-policy {other:?} (min-hop|power-aware)"
            ))
        }
    };
    let until_s = args.get_str("until").unwrap_or("first-death");
    let until = if let Some(pct) = until_s.strip_prefix("death:") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad --until {until_s:?}"))?;
        if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
            return Err("--until death:<pct> needs a percentage in (0, 100]".into());
        }
        LifetimeUntil::DeathFraction(pct / 100.0)
    } else {
        match until_s {
            "first-death" => LifetimeUntil::FirstDeath,
            "partition" => LifetimeUntil::BasePartition,
            other => {
                return Err(format!(
                    "bad --until {other:?} (first-death|partition|death:<pct>)"
                ))
            }
        }
    };
    let max_rounds: u64 = args
        .get_or("max-rounds", 200, "integer")
        .map_err(|e| e.to_string())?;
    if max_rounds == 0 {
        return Err("--max-rounds must be positive".into());
    }
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let trace_path = args.get_str("trace").map(str::to_owned);
    let mut snet = build_network(args)?;
    apply_channel(args, &mut snet)?;
    apply_churn(args, &mut snet)?;
    let capacity_uj = battery_j * 1e6;
    let bank = BatteryBank::with_jitter(snet.len(), snet.base(), capacity_uj, jitter, seed);
    snet.net_mut().set_battery(Some(bank));
    snet.net_mut().set_parent_policy(policy);
    if trace_path.is_some() {
        snet.net_mut().set_tracing(true);
    }
    // A loaded trace is a fixed snapshot; only generated fields drift.
    let specs = if args.get_str("data").is_some() {
        Vec::new()
    } else {
        field_specs(args)?
    };
    let q = parse(&sql).map_err(|e| e.to_string())?;
    let cq = snet.compile(&q).map_err(|e| e.to_string())?;
    println!(
        "network: {} nodes, energy model {}, battery {battery_j} J \
         (jitter {:.0} %), parent policy {policy_name}, until {until_s}",
        snet.len(),
        energy_model(args)?.1,
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
        let live = (0..snet.len() as u32)
            .map(NodeId)
            .filter(|&v| v != base && snet.net().is_alive(v))
            .count();
        let min_res = (0..snet.len() as u32)
            .map(NodeId)
            .filter(|&v| v != base && snet.net().is_alive(v))
            .map(|v| bank.residual_uj(v))
            .fold(f64::INFINITY, f64::min);
        let mean_res = {
            let (sum, n) = (0..snet.len() as u32)
                .map(NodeId)
                .filter(|&v| v != base)
                .map(|v| bank.residual_uj(v).max(0.0))
                .fold((0.0, 0usize), |(s, n), r| (s + r, n + 1));
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        let this_round: Vec<String> = run
            .deaths()
            .iter()
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
        let order: Vec<String> = report
            .deaths
            .iter()
            .map(|&(round, v)| format!("{}@r{round}", v.0))
            .collect();
        println!("death order: {}", order.join(" "));
    }
    if let Some(path) = trace_path {
        let trace = snet
            .net()
            .trace()
            .ok_or("internal: trace missing after enabling tracing")?;
        std::fs::write(&path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "\nwrote {} trace records ({} packets) to {path}",
            trace.len(),
            trace.total_packets()
        );
    }
    Ok(())
}

/// The per-relation values node `v` would report after local predicates —
/// the `per_rel` payload of its upsert.
fn stream_per_rel(snet: &SensorNetwork, cq: &CompiledQuery, v: NodeId) -> Vec<Option<Vec<f64>>> {
    (0..cq.num_relations())
        .map(|r| {
            let schema = cq.schema(r);
            if snet.belongs(v, schema.name()) {
                let vals = snet.values_for(v, schema);
                cq.eval_local(r, &vals).then_some(vals)
            } else {
                None
            }
        })
        .collect()
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
        let per_rel = stream_per_rel(snet, cq, v);
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

fn cmd_stream(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes",
        "area",
        "seed",
        "base",
        "fields",
        "sql",
        "batches",
        "rate",
        "expire",
        "verify-every",
        "data",
    ];
    known.extend_from_slice(CHECKPOINT_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    let sql = args
        .get_str("sql")
        .ok_or("stream needs --sql \"SELECT ...\"")?
        .to_owned();
    let batches: u64 = args
        .get_or("batches", 8, "integer")
        .map_err(|e| e.to_string())?;
    let rate: f64 = args
        .get_or("rate", 0.05, "fraction")
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&rate) || rate == 0.0 {
        return Err("--rate must be in (0, 1]".into());
    }
    let expire: f64 = args
        .get_or("expire", 0.0, "fraction")
        .map_err(|e| e.to_string())?;
    if !(0.0..1.0).contains(&expire) {
        return Err("--expire must be in [0, 1)".into());
    }
    let verify_every: u64 = args
        .get_or("verify-every", 0, "integer")
        .map_err(|e| e.to_string())?;
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let mut snet = build_network(args)?;
    // A loaded trace is a fixed snapshot; only generated fields drift.
    let specs = if args.get_str("data").is_some() {
        Vec::new()
    } else {
        field_specs(args)?
    };
    let q = parse(&sql).map_err(|e| e.to_string())?;
    let cq = snet.compile(&q).map_err(|e| e.to_string())?;
    let mut engine = StreamJoinEngine::new(cq.clone());
    let mut st = StreamState {
        cold: BatchStats::default(),
        total: BatchStats::default(),
        rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        shadow: BTreeMap::new(),
    };
    println!(
        "network: {} nodes, {} relations",
        snet.len(),
        cq.num_relations()
    );
    let stream_digest = |stats: &BatchStats, cached_rows: usize| -> u64 {
        persist::fnv1a(&(*stats, cached_rows).to_bytes())
    };
    let mut ckpt = checkpoint_args(args)?;
    let mut start_batch = 0u64;
    match ckpt.recover()? {
        Some((seq, payload)) => {
            (st, engine) = restore_stream(&payload, &cq)
                .map_err(|e| format!("snapshot state decode failed: {e}"))?;
            start_batch = seq;
            // Batch indexes are the WAL keys; the snapshot covers batch
            // `start_batch` itself, so only strictly later records replay.
            println!(
                "resumed from checkpoint: {start_batch} batches restored, \
                 {} logged batches to replay",
                ckpt.to_replay(start_batch + 1)
            );
        }
        None => {
            // Cold load: every node arrives in one batch.
            let ops: Vec<StreamOp> = (0..snet.len() as u32)
                .map(|i| {
                    let v = NodeId(i);
                    let per_rel = stream_per_rel(&snet, &cq, v);
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
        }
    }
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

fn cmd_advise(args: &Args) -> Result<(), String> {
    args.ensure_known(&[
        "nodes", "area", "seed", "base", "fields", "sql", "fraction", "data",
    ])
    .map_err(|e| e.to_string())?;
    let sql = args
        .get_str("sql")
        .ok_or("advise needs --sql \"SELECT ...\"")?
        .to_owned();
    let fraction: f64 = args
        .get_or("fraction", 0.05, "number in 0..=1")
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err("--fraction must be between 0 and 1".into());
    }
    let snet = build_network(args)?;
    let query = parse(&sql).map_err(|e| e.to_string())?;
    let cq = snet.compile(&query).map_err(|e| e.to_string())?;
    let model = CostModel::new(&snet, &cq);
    let beta = model.estimate_beta();
    let ext = model.external();
    let sens = model.sens_join(fraction, beta, &SensJoinConfig::default());
    println!(
        "network: {} nodes, tree depth {}",
        snet.len(),
        snet.net().routing().max_depth()
    );
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

fn methods_for(name: &str) -> Result<Vec<Box<dyn JoinMethod>>, String> {
    Ok(match name {
        "sens" => vec![Box::new(SensJoin::default())],
        "external" => vec![Box::new(ExternalJoin)],
        "mediated" => vec![Box::new(MediatedJoin)],
        "noquad" => vec![Box::new(SensJoin::no_quadtree())],
        "all" => vec![
            Box::new(ExternalJoin),
            Box::new(SensJoin::default()),
            Box::new(MediatedJoin),
        ],
        other => return Err(format!("bad --method {other:?}")),
    })
}

fn execute_and_print(snet: &mut SensorNetwork, sql: &str, methods: &str) -> Result<(), String> {
    let query = parse(sql).map_err(|e| e.to_string())?;
    let cq = snet.compile(&query).map_err(|e| e.to_string())?;
    let mut outcomes: Vec<(String, JoinOutcome)> = Vec::new();
    for method in methods_for(methods)? {
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
    let lossy = snet.net().lossy();
    if lossy {
        println!(
            "\n{:<12} {:>9} {:>10} {:>9} {:>10} {:>12} {:>10}",
            "method", "packets", "bytes", "retx", "overhead", "energy [mJ]", "time [ms]"
        );
    } else {
        println!(
            "\n{:<12} {:>9} {:>10} {:>12} {:>10}",
            "method", "packets", "bytes", "energy [mJ]", "time [ms]"
        );
    }
    for (name, out) in &outcomes {
        let marker = if out.complete { "" } else { "  [INCOMPLETE]" };
        if lossy {
            println!(
                "{:<12} {:>9} {:>10} {:>9} {:>10} {:>12.1} {:>10.0}{marker}",
                name,
                out.stats.total_tx_packets(),
                out.stats.total_tx_bytes(),
                out.stats.total_retx_packets(),
                out.stats.total_overhead_bytes(),
                out.stats.total_energy_uj() / 1000.0,
                out.latency_us as f64 / 1000.0
            );
        } else {
            println!(
                "{:<12} {:>9} {:>10} {:>12.1} {:>10.0}{marker}",
                name,
                out.stats.total_tx_packets(),
                out.stats.total_tx_bytes(),
                out.stats.total_energy_uj() / 1000.0,
                out.latency_us as f64 / 1000.0
            );
        }
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

fn cmd_run(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes", "area", "seed", "base", "fields", "sql", "method", "trace", "data",
    ];
    known.extend_from_slice(ENERGY_OPTS);
    known.extend_from_slice(CHANNEL_OPTS);
    known.extend_from_slice(CHURN_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    let sql = args
        .get_str("sql")
        .ok_or("run needs --sql \"SELECT ...\"")?
        .to_owned();
    let methods = args.get_str("method").unwrap_or("all").to_owned();
    let trace_path = args.get_str("trace").map(str::to_owned);
    if trace_path.is_some() && methods == "all" {
        return Err("--trace needs a single --method (the trace covers one execution)".into());
    }
    let mut snet = build_network(args)?;
    apply_channel(args, &mut snet)?;
    apply_churn(args, &mut snet)?;
    println!(
        "network: {} nodes, tree depth {}, base {}, energy model {}",
        snet.len(),
        snet.net().routing().max_depth(),
        snet.base(),
        energy_model(args)?.1
    );
    if snet.net().lossy() {
        println!(
            "channel: loss {:.1} %, arq {:?}",
            100.0
                * args
                    .get_or("loss", 0.0, "probability")
                    .map_err(|e| e.to_string())?,
            snet.net().arq()
        );
    }
    if snet.net().has_churn() {
        println!("churn: sampled fault timeline enabled (see --mtbf / --mttr / --churn-seed)");
    }
    if trace_path.is_some() {
        snet.net_mut().set_tracing(true);
    }
    execute_and_print(&mut snet, &sql, &methods)?;
    if let Some(path) = trace_path {
        let trace = snet
            .net()
            .trace()
            .ok_or("internal: trace missing after enabling tracing")?;
        std::fs::write(&path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "\nwrote {} trace records ({} packets) to {path}",
            trace.len(),
            trace.total_packets()
        );
    }
    Ok(())
}

fn cmd_shell(args: &Args) -> Result<(), String> {
    args.ensure_known(&["nodes", "area", "seed", "base", "fields", "method", "data"])
        .map_err(|e| e.to_string())?;
    let methods = args.get_str("method").unwrap_or("all").to_owned();
    let mut snet = build_network(args)?;
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
        if let Err(e) = execute_and_print(&mut snet, line, &methods) {
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
    let mut out = String::new();
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push_str("+\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push_str("+\n");
    out
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    args.ensure_known(&["nodes", "area", "seed", "base", "fields", "map", "data"])
        .map_err(|e| e.to_string())?;
    let snet = build_network(args)?;
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
    println!(
        "area:          {:.0} m x {:.0} m",
        topo.area().width,
        topo.area().height
    );
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
    if args.flag("map") {
        println!("\nmap (digits = tree depth mod 10, B = base, ! = unreachable):");
        print!("{}", ascii_map(&snet, 72, 24));
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    args.ensure_known(&[
        "nodes",
        "area",
        "seed",
        "base",
        "fields",
        "fractions",
        "data",
    ])
    .map_err(|e| e.to_string())?;
    let fractions: Vec<f64> = args
        .get_str("fractions")
        .unwrap_or("1,5,25,60")
        .split(',')
        .map(|s| s.trim().parse::<f64>().map(|p| p / 100.0))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad --fractions: {e}"))?;
    let mut snet = build_network(args)?;
    let family = RangeQueryFamily::ratio_33();
    println!(
        "{:>10} {:>16} {:>16} {:>9}",
        "fraction", "external [pkts]", "SENS-Join [pkts]", "saving"
    );
    for f in fractions {
        let cal = family.calibrate(&snet, f);
        let q = parse(&cal.sql).map_err(|e| e.to_string())?;
        let cq = snet.compile(&q).map_err(|e| e.to_string())?;
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

/// `sensjoin serve`: simulate tenants submitting continuous queries
/// against a registry of deployments through the serving layer —
/// admission decisions, epoch batching, plan sharing, and the metrics
/// surface, printed per tick and summarized at the end.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut known = vec![
        "nodes",
        "seed",
        "tenants",
        "deployments",
        "qps",
        "duration",
        "period",
        "skew",
        "max-groups",
        "queue-depth",
        "admit-per-tick",
    ];
    known.extend_from_slice(CHECKPOINT_OPTS);
    args.ensure_known(&known).map_err(|e| e.to_string())?;
    let nodes: usize = args
        .get_or("nodes", 80, "integer")
        .map_err(|e| e.to_string())?;
    let seed: u64 = args
        .get_or("seed", 1, "integer")
        .map_err(|e| e.to_string())?;
    let tenants: u64 = args
        .get_or("tenants", 64, "integer")
        .map_err(|e| e.to_string())?;
    let deployments: usize = args
        .get_or("deployments", 4, "integer")
        .map_err(|e| e.to_string())?;
    let qps: f64 = args
        .get_or("qps", 2.0, "number")
        .map_err(|e| e.to_string())?;
    let duration_s: u64 = args
        .get_or("duration", 300, "integer")
        .map_err(|e| e.to_string())?;
    let period_s: u64 = args
        .get_or("period", 30, "integer")
        .map_err(|e| e.to_string())?;
    let skew: f64 = args
        .get_or("skew", 0.5, "number")
        .map_err(|e| e.to_string())?;
    if nodes == 0 || deployments == 0 || period_s == 0 {
        return Err("serve needs --nodes ≥ 1, --deployments ≥ 1 and --period ≥ 1".into());
    }
    let mut cfg = ServeConfig {
        period_us: period_s * 1_000_000,
        ..ServeConfig::default()
    };
    cfg.max_groups = args
        .get_or("max-groups", cfg.max_groups, "integer")
        .map_err(|e| e.to_string())?;
    cfg.queue_depth = args
        .get_or("queue-depth", cfg.queue_depth, "integer")
        .map_err(|e| e.to_string())?;
    cfg.admit_per_tick = args
        .get_or("admit-per-tick", cfg.admit_per_tick, "integer")
        .map_err(|e| e.to_string())?;

    let mut ckpt = checkpoint_args(args)?;
    let specs: Vec<DeploymentSpec> = (0..deployments)
        .map(|d| DeploymentSpec::new(format!("dep{d}"), nodes, seed.wrapping_add(d as u64)))
        .collect();
    let mut start_tick = 0u64;
    let mut next_tenant = 0u64;
    let mut restored = None;
    if let Some((seq, payload)) = ckpt.recover()? {
        // The image: the next tenant to submit, then the server's bytes.
        let (nt, server) = <(u64, Vec<u8>)>::from_bytes(&payload)
            .and_then(|(nt, bytes)| Ok((nt, Server::restore_state(cfg.clone(), &specs, &bytes)?)))
            .map_err(|e| format!("snapshot state decode failed: {e}"))?;
        next_tenant = nt;
        restored = Some(server);
        start_tick = seq;
    }
    let mut server = match restored {
        Some(server) => server,
        None => {
            let mut server = Server::new(cfg);
            for spec in &specs {
                server.add_deployment(spec).map_err(|e| e.to_string())?;
            }
            server
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

    let ticks = duration_s.div_ceil(period_s);
    let per_tick = (qps * period_s as f64).round().max(0.0) as u64;
    println!(
        "\n{:>5} {:>9} {:>9} {:>9} {:>6} {:>6} {:>7}",
        "tick", "submitted", "admitted", "rejected", "shed", "queue", "epochs"
    );
    for t in start_tick..ticks {
        let mut submitted = 0u64;
        let mut shed = 0u64;
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
            let dep = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % deployments;
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
        ckpt.commit(t, digest, t + 1, || {
            (next_tenant, server.export_state()).to_bytes()
        })?;
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
    use sensjoin_core::MAX_GROUP_QUERIES;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
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
                let per_rel = stream_per_rel(&snet, &cq, NodeId(i));
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
}
