//! The option table: every `sensjoin` option once — value kind, default,
//! dependency, help line — and the [`Command`] type each subcommand fills
//! in with the options it takes. Parsing (flag or valued), validation, the
//! typed values the commands read, `--help` and OPERATIONS.md's option
//! blocks are all read off it.
//!
//! [`Command::validate`] is the one entry point:
//! * **pre:** `args` came from [`Args::parse`] (or was built by hand);
//! * **post (`Ok`):** every given option is one the command takes and its
//!   value is of its kind, every option it depends on is given, the
//!   required options and positionals are present, and every option with a
//!   default has a value — so no library assert is reachable from text;
//! * **errors:** an [`OptError`]; a bad value reads
//!   `--skew: expected a number in [0, 1], got "7"`.

use crate::args::Args;
use std::collections::BTreeMap;
use std::fmt;

type S = &'static str;

/// One end of a real interval and whether it is inclusive.
pub type Bound = (f64, bool);

const fn inc(x: f64) -> Bound {
    (x, true)
}

const fn exc(x: f64) -> Bound {
    (x, false)
}

/// What an option's value must be. The set is closed: no validator callbacks.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// An integer in `[min, max]`.
    Count(u64, u64),
    /// A finite real in an interval.
    Real(Bound, Bound),
    /// Simulated seconds: finite, and × 10⁶ a µs count in `[1, 2⁶⁴)`, so the
    /// µs clock can neither overflow nor saturate.
    Seconds,
    /// One of the words (matched case-insensitively), with an optional tail.
    Choice(&'static [S], Tail),
    /// A comma list of counts or reals.
    List(&'static Kind),
    /// Free text: SQL, a path.
    Text,
    /// Given or not; never takes a value.
    Flag,
}

/// The numeric tail of a composite [`Kind::Choice`], checked by its own kind.
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    Never,
    /// `word:<meta>` for this one word, which requires it (`byte:<µJ>`).
    Tagged(S, S, &'static Kind),
    /// An optional `:<meta>` after any word (`P[:N]`).
    Suffix(S, &'static Kind),
}

/// What an unset option means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unset {
    /// Absent: the feature is off.
    Off,
    /// This value, validated like a given one.
    Is(S),
    /// Computed by the command from other inputs, as the text says.
    Derived(S),
    /// An error.
    Required,
}

/// One option.
pub struct Opt {
    pub name: S,
    /// Placeholder in `--help`; empty for a flag.
    pub meta: S,
    pub kind: Kind,
    pub unset: Unset,
    /// The option it only makes sense with.
    pub needs: Option<S>,
    pub help: S,
}

#[rustfmt::skip]
const fn opt(name: S, meta: S, kind: Kind, unset: Unset, needs: Option<S>, help: S) -> Opt {
    Opt { name, meta, kind, unset, needs, help }
}

const INF: f64 = f64::INFINITY;
const U32: u64 = u32::MAX as u64;
const ANY: Kind = Kind::Count(0, u64::MAX);
const POSITIVE: Kind = Kind::Count(1, u64::MAX);

/// Every option, once. `--crash-at`'s words are `CrashPoint`'s names.
#[rustfmt::skip]
pub const OPTIONS: &[Opt] = {
    use Kind::*;
    use Unset::*;
    &[
        opt("data", "FILE", Text, Off, None, "load a trace CSV (x,y,attrs...) instead of generating readings"),
        opt("nodes", "N", Count(1, U32), Is("500"), None, "network size"),
        opt("area", "S", Real(exc(0.0), exc(INF)), Derived("density-scaled, or the --data bounding box"), None, "square side length in metres"),
        opt("seed", "S", ANY, Is("1"), None, "placement and readings seed"),
        opt("base", "POS", Choice(&["corner", "center"], Tail::Never), Is("corner"), None, "base station position"),
        opt("fields", "PRESET", Choice(&["indoor", "outdoor", "uncorrelated"], Tail::Never), Is("indoor"), None, "generated reading fields"),
        opt("energy-model", "M", Choice(&["micaz", "sunspot", "byte"], Tail::Tagged("byte", "<µJ>", &Real(exc(0.0), exc(INF)))), Is("micaz"), None, "radio energy model (byte:<µJ>: a flat per-byte cost)"),
        opt("loss", "P", Real(inc(0.0), exc(1.0)), Is("0"), None, "per-packet loss probability"),
        opt("burst", "L", Real(inc(1.0), exc(INF)), Off, None, "mean loss-burst length in packets (Gilbert-Elliott instead of Bernoulli losses)"),
        opt("arq", "POLICY", Choice(&["none", "ack", "summary"], Tail::Never), Derived("ack when lossy, else none"), None, "loss recovery"),
        opt("retries", "R", Count(0, U32), Is("3"), None, "ARQ retry / repair-round budget"),
        opt("loss-seed", "S", ANY, Is("7"), None, "channel randomness seed"),
        opt("churn", "H", Seconds, Off, None, "node churn (crash-stop, reboot with state loss) over a horizon of H"),
        opt("mtbf", "S", Seconds, Is("600"), Some("churn"), "per-node mean time between failures"),
        opt("mttr", "S", Seconds, Derived("mtbf/2"), Some("churn"), "per-node mean time to repair"),
        opt("churn-seed", "S", ANY, Is("13"), Some("churn"), "fault-timeline randomness seed"),
        opt("checkpoint-dir", "DIR", Text, Off, None, "snapshot + write-ahead-log directory; enables crash recovery"),
        opt("checkpoint-every", "K", POSITIVE, Is("1"), Some("checkpoint-dir"), "rounds/batches/ticks between snapshots"),
        opt("resume", "", Flag, Off, Some("checkpoint-dir"), "resume from the newest valid snapshot; the logged rest re-executes, verified"),
        opt("crash-at", "P[:N]", Choice(&["PostRound", "MidWalAppend", "PostWalAppend", "MidSnapshotWrite", "PostSnapshotTmp", "PostSnapshotRename"], Tail::Suffix("N", &Count(1, U32))), Off, Some("checkpoint-dir"), "test hook: crash at point P, on its N-th occurrence (default 1)"),
        opt("sql", "QUERY", Text, Required, None, "the query"),
        opt("method", "M", Choice(&["sens", "external", "mediated", "noquad", "all"], Tail::Never), Is("all"), None, "join method(s) to run"),
        opt("trace", "FILE", Text, Off, None, "write the packet / repair / battery trace CSV"),
        opt("map", "", Flag, Off, None, "print an ASCII map (digits: tree depth mod 10, B: base, !: unreachable)"),
        opt("fractions", "L", List(&Real(inc(0.0), inc(100.0))), Is("1,5,25,60"), None, "result percentages"),
        opt("fraction", "F", Real(inc(0.0), inc(1.0)), Is("0.05"), None, "assumed result fraction"),
        opt("epochs", "E", ANY, Is("4"), None, "sample epochs to run"),
        opt("every", "L", List(&POSITIVE), Is("1"), None, "per-query periods in epochs (one value: every query)"),
        opt("period", "S", Seconds, Is("30"), None, "epoch period"),
        opt("rounds", "R", ANY, Is("4"), None, "rounds to run"),
        opt("epsilon", "E", Real(inc(0.0), exc(INF)), Is("0"), None, "value-drift suppression threshold (0 = exact)"),
        opt("battery", "J", Real(exc(0.0), exc(INF)), Is("0.5"), None, "per-node battery capacity, joules"),
        opt("jitter", "F", Real(inc(0.0), exc(1.0)), Is("0"), None, "seeded per-node capacity jitter fraction"),
        opt("parent-policy", "P", Choice(&["min-hop", "power-aware"], Tail::Never), Is("min-hop"), None, "parent selection"),
        opt("until", "C", Choice(&["first-death", "partition", "death"], Tail::Tagged("death", "<pct>", &Real(exc(0.0), inc(100.0)))), Is("first-death"), None, "end criterion (death:<pct>: that share of the nodes dead)"),
        opt("max-rounds", "R", POSITIVE, Is("200"), None, "round cap"),
        opt("batches", "B", ANY, Is("8"), None, "delta batches after the cold load"),
        opt("rate", "P", Real(exc(0.0), inc(1.0)), Is("0.05"), None, "fraction of nodes re-sampled (upserted) per batch"),
        opt("expire", "P", Real(inc(0.0), exc(1.0)), Is("0"), None, "fraction of live nodes expired per batch"),
        opt("verify-every", "K", ANY, Is("0"), None, "cross-check against the batch join every K batches (and after the last)"),
        opt("tenants", "T", ANY, Is("64"), None, "tenants that will submit"),
        opt("deployments", "D", POSITIVE, Is("4"), None, "deployments in the registry"),
        opt("qps", "Q", Real(inc(0.0), exc(INF)), Is("2"), None, "tenant submissions per simulated second"),
        opt("duration", "S", Seconds, Is("300"), None, "simulated time to serve"),
        opt("skew", "F", Real(inc(0.0), inc(1.0)), Is("0.5"), None, "fraction of tenants submitting the shared query template"),
        opt("max-groups", "G", ANY, Is("4"), None, "query groups per deployment, 64 tenants each"),
        opt("queue-depth", "N", ANY, Is("256"), None, "admission queue bound (overflow is shed)"),
        opt("admit-per-tick", "N", ANY, Is("0"), None, "admissions per tick (0 = drain the queue)"),
        opt("help", "", Flag, Off, None, "print this command's options"),
    ]
};

/// Option groups several subcommands take.
pub const NETWORK: &[S] = &["data", "nodes", "area", "seed", "base", "fields"];
pub const ENERGY: &[S] = &["energy-model"];
pub const CHANNEL: &[S] = &["loss", "burst", "arq", "retries", "loss-seed"];
pub const CHURN: &[S] = &["churn", "mtbf", "mttr", "churn-seed"];
pub const CHECKPOINT: &[S] = &["checkpoint-dir", "checkpoint-every", "resume", "crash-at"];

/// The table's entry for `--name`.
pub fn lookup(name: &str) -> Option<&'static Opt> {
    OPTIONS.iter().find(|o| o.name == name)
}

impl Kind {
    /// The typed value of `raw`, or `None` if it is not one of this kind.
    fn parse(&self, raw: &str) -> Option<Value> {
        let real = |raw: &str| raw.parse::<f64>().ok().filter(|x| x.is_finite());
        match *self {
            Kind::Count(min, max) => (raw.parse().ok())
                .filter(|n| (min..=max).contains(n))
                .map(Value::Count),
            Kind::Real((a, a_in), (b, b_in)) => {
                let inside = |&x: &f64| (a < x || a_in && a == x) && (x < b || b_in && x == b);
                real(raw).filter(inside).map(Value::Real)
            }
            Kind::Seconds => (real(raw))
                .filter(|s| (1.0..2f64.powi(64)).contains(&(s * 1e6)))
                .map(Value::Real),
            Kind::Choice(words, tail) => {
                let (word, rest) = raw
                    .split_once(':')
                    .map_or((raw, None), |(w, r)| (w, Some(r)));
                let word = *words.iter().find(|w| w.eq_ignore_ascii_case(word))?;
                let tail = match (tail, rest) {
                    (Tail::Tagged(tag, _, kind), Some(r)) if word == tag => Some(kind.parse(r)?),
                    (Tail::Tagged(tag, ..), None) if word != tag => None,
                    (Tail::Suffix(_, kind), Some(r)) => Some(kind.parse(r)?),
                    (Tail::Never | Tail::Suffix(..), None) => None,
                    _ => return None,
                };
                Some(Value::Word(word, tail.map(Box::new)))
            }
            Kind::List(item) => (raw.split(',').map(|r| item.parse(r.trim())))
                .collect::<Option<_>>()
                .map(Value::List),
            Kind::Text => Some(Value::Text(raw.to_owned())),
            Kind::Flag => (raw == "true").then_some(Value::Flag),
        }
    }

    /// What a value of this kind is: the range `--help` shows and errors state.
    fn describe(&self) -> String {
        match *self {
            Kind::Count(min, u64::MAX) => format!("an integer ≥ {min}"),
            Kind::Count(min, max) => format!("an integer in [{min}, {max}]"),
            Kind::Real((a, a_in), (b, b_in)) => {
                let (open, close) = (if a_in { '[' } else { '(' }, if b_in { ']' } else { ')' });
                format!("a number in {open}{a}, {b}{close}")
            }
            Kind::Seconds => "seconds, from 1 µs to under 2^64 µs".into(),
            Kind::Choice(words, tail) => {
                let alts: Vec<String> = (words.iter())
                    .map(|&w| match tail {
                        Tail::Tagged(tag, meta, _) if w == tag => format!("{w}:{meta}"),
                        _ => w.to_owned(),
                    })
                    .collect();
                let alts = alts.join("|");
                match tail {
                    Tail::Never => format!("one of {alts}"),
                    Tail::Tagged(_, meta, kind) => {
                        format!("one of {alts} with {meta} {}", kind.describe())
                    }
                    Tail::Suffix(meta, kind) => {
                        format!("one of {alts}[:{meta}] with {meta} {}", kind.describe())
                    }
                }
            }
            Kind::List(item) => format!("a comma list, each {}", item.describe()),
            Kind::Text => "a value".into(),
            Kind::Flag => "no value".into(),
        }
    }
}

/// A validated option value.
#[derive(Debug, PartialEq)]
pub enum Value {
    Count(u64),
    /// A [`Kind::Real`] or [`Kind::Seconds`].
    Real(f64),
    /// A choice's word, as the table spells it, and its tail.
    Word(S, Option<Box<Value>>),
    List(Vec<Value>),
    Text(String),
    Flag,
}

/// `Value` accessors: each reads one variant, and a command that reads the
/// wrong one disagrees with its own spec — a bug, not an input error.
macro_rules! accessors {
    ($($name:ident -> $ty:ty { $pat:pat => $out:expr })*) => {$(
        pub fn $name(&self) -> $ty {
            match self {
                $pat => $out,
                v => panic!("option value {v:?} read by {}()", stringify!($name)),
            }
        }
    )*};
}

impl Value {
    accessors! {
        count -> u64 { Value::Count(n) => *n }
        real -> f64 { Value::Real(x) => *x }
        word -> S { Value::Word(w, _) => w }
        tail -> Option<&Value> { Value::Word(_, tail) => tail.as_deref() }
        list -> &[Value] { Value::List(items) => items }
        text -> &str { Value::Text(s) => s }
    }

    /// Seconds on the simulator's µs clock; [`Kind::Seconds`] makes it fit.
    pub fn micros(&self) -> u64 {
        (self.real() * 1e6) as u64
    }
}

/// Why a command line does not fit its command.
#[derive(Debug)]
pub enum OptError {
    /// An option the command does not take.
    Unknown(String),
    /// A positional argument of a command that takes none.
    Stray(String),
    /// A value outside its option's kind: the option, what it takes, the value.
    Invalid(S, String, String),
    /// A given option without the option it depends on.
    Needs(S, S),
    /// A required option (`--sql QUERY`) or positional (`QUERY...`) is missing.
    Missing(S, String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Unknown(name) => write!(f, "unknown option --{name}"),
            OptError::Stray(arg) => write!(f, "unexpected argument {arg:?}"),
            OptError::Invalid(name, kind, got) => {
                write!(f, "--{name}: expected {kind}, got {got:?}")
            }
            OptError::Needs(name, dep) => write!(f, "--{name} needs --{dep}"),
            OptError::Missing(cmd, what) => write!(f, "{cmd} needs {what}"),
        }
    }
}

impl From<OptError> for String {
    fn from(e: OptError) -> String {
        e.to_string()
    }
}

/// A subcommand: its help, the options it takes and its body.
pub struct Command {
    pub name: S,
    /// Its line in `sensjoin help`.
    pub about: S,
    /// Placeholder of its one-or-more positional arguments; empty: none.
    pub positional: S,
    /// The options it takes, in `--help` order; `--help` is implied.
    pub takes: &'static [&'static [S]],
    /// Where its defaults differ from the table's.
    pub defaults: &'static [(S, Unset)],
    pub run: fn(&Args) -> Result<(), String>,
}

/// A command line that fits its command: the typed value of every option
/// it takes that is given or has a default, and the positional arguments.
#[derive(Debug)]
pub struct Opts {
    values: BTreeMap<S, Value>,
    pub positional: Vec<String>,
}

impl Opts {
    /// `--name`'s value, given or defaulted; `None` when it is unset and
    /// off (or derived), or not the command's.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// [`Opts::get`] of an option the command always has a value for.
    pub fn value(&self, name: &str) -> &Value {
        (self.get(name)).unwrap_or_else(|| panic!("--{name} has no value: its spec has no default"))
    }
}

impl Command {
    /// The options this command takes, with its defaults.
    pub fn options(&self) -> impl Iterator<Item = (&'static Opt, Unset)> + '_ {
        let names = self.takes.iter().flat_map(|group| group.iter());
        names.chain(&["help"]).map(|name| {
            let opt = lookup(name).unwrap_or_else(|| panic!("--{name} is not in the table"));
            let own = self.defaults.iter().find(|(n, _)| n == name);
            (opt, own.map_or(opt.unset, |&(_, unset)| unset))
        })
    }

    /// Checks `args` against this command (see the module docs).
    pub fn validate(&self, args: &Args) -> Result<Opts, OptError> {
        let mut values = BTreeMap::new();
        for (name, raw) in &args.options {
            let (opt, _) = (self.options().find(|(o, _)| o.name == name))
                .ok_or_else(|| OptError::Unknown(name.clone()))?;
            let value = (opt.kind.parse(raw))
                .ok_or_else(|| OptError::Invalid(opt.name, opt.kind.describe(), raw.clone()))?;
            values.insert(opt.name, value);
        }
        for (opt, unset) in self.options() {
            let given = |name| args.options.contains_key(name);
            match (opt.needs, unset) {
                (Some(dep), _) if given(opt.name) && !given(dep) => {
                    return Err(OptError::Needs(opt.name, dep))
                }
                (_, Unset::Required) if !given(opt.name) => {
                    return Err(OptError::Missing(
                        self.name,
                        format!("--{} {}", opt.name, opt.meta),
                    ))
                }
                (_, Unset::Is(default)) if !given(opt.name) => {
                    let value = opt
                        .kind
                        .parse(default)
                        .expect("the table's defaults are valid");
                    values.insert(opt.name, value);
                }
                _ => {}
            }
        }
        match (self.positional, args.positional.first()) {
            ("", Some(arg)) => Err(OptError::Stray(arg.clone())),
            (what, None) if !what.is_empty() => Err(OptError::Missing(self.name, what.into())),
            _ => Ok(Opts {
                values,
                positional: args.positional.clone(),
            }),
        }
    }

    /// `sensjoin <name> --help`.
    pub fn help(&self) -> String {
        let (name, about, positional) = (self.name, self.about, self.positional);
        let required: String = (self.options())
            .filter(|&(_, unset)| unset == Unset::Required)
            .map(|(opt, _)| format!(" --{} {}", opt.name, opt.meta))
            .collect();
        let usage = format!("sensjoin {name}{required} [options] {positional}");
        let mut out = format!(
            "sensjoin {name} — {about}\n\nusage: {}\n\n",
            usage.trim_end()
        );
        for (opt, unset) in self.options() {
            let left = format!("--{} {}", opt.name, opt.meta);
            let mut line = format!("  {left:<22} {}", opt.help);
            if !matches!(opt.kind, Kind::Text | Kind::Flag) {
                line += &format!(": {}", opt.kind.describe());
            }
            match unset {
                Unset::Is(d) | Unset::Derived(d) => line += &format!(" [default: {d}]"),
                Unset::Required => line += " (required)",
                Unset::Off => {}
            }
            if let Some(dep) = opt.needs {
                line += &format!(" [needs --{dep}]");
            }
            out += &(line + "\n");
        }
        out
    }
}

/// `sensjoin help`: the commands.
pub fn usage(commands: &[&Command]) -> String {
    let list: String = (commands.iter())
        .map(|cmd| format!("  {:<12} {}\n", cmd.name, cmd.about))
        .collect();
    format!(
        "sensjoin — SENS-Join over a simulated wireless sensor network\n\n\
         usage: sensjoin <command> [options]\n\ncommands:\n{list}\n\
         `sensjoin <command> --help` lists a command's options.\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::COMMANDS;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn error(line: &str) -> String {
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        let cmd = command(args.command.as_deref().unwrap());
        cmd.validate(&args).unwrap_err().to_string()
    }

    #[test]
    fn errors_name_the_option_and_what_it_takes() {
        assert_eq!(
            error("serve --skew 7"),
            r#"--skew: expected a number in [0, 1], got "7""#
        );
        assert_eq!(
            error("multi --period 18446744073710 q"),
            r#"--period: expected seconds, from 1 µs to under 2^64 µs, got "18446744073710""#
        );
        assert_eq!(
            error("sweep --fractions 5,nan"),
            r#"--fractions: expected a comma list, each a number in [0, 100], got "5,nan""#
        );
        assert_eq!(
            error("run --sql q --energy-model byte:0"),
            "--energy-model: expected one of micaz|sunspot|byte:<µJ> with <µJ> a number \
             in (0, inf), got \"byte:0\""
        );
        assert_eq!(
            error("multi --every 0 q"),
            r#"--every: expected a comma list, each an integer ≥ 1, got "0""#
        );
        assert_eq!(error("topology extra"), r#"unexpected argument "extra""#);
        assert_eq!(error("serve --resume"), "--resume needs --checkpoint-dir");
        assert_eq!(error("stream"), "stream needs --sql QUERY");
        assert_eq!(error("multi"), "multi needs QUERY...");
        assert_eq!(error("serve --area 9"), "unknown option --area");
    }

    #[test]
    fn values_are_typed_once() {
        let line = "lifetime --until DEATH:12.5 --nodes 7 --churn 0.5";
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        let o = command("lifetime").validate(&args).unwrap();
        let until = o.value("until");
        assert_eq!(until.word(), "death");
        assert_eq!(until.tail(), Some(&Value::Real(12.5)));
        assert_eq!(o.value("nodes").count(), 7);
        assert_eq!(o.value("churn").micros(), 500_000);
        // Unset: the command's default, or nothing for an option that is off.
        assert!(o.value("sql").text().ends_with("SAMPLE PERIOD 30"));
        assert_eq!(o.value("mtbf").real(), 600.0);
        assert!(o.get("mttr").is_none() && o.get("trace").is_none());
    }

    /// Every default parses as its kind, every dependency is an option of
    /// the same command, every option of the table is some command's, and
    /// `--crash-at` lists the crash points.
    #[test]
    fn the_table_is_consistent() {
        for cmd in COMMANDS {
            let names: Vec<&str> = cmd.options().map(|(o, _)| o.name).collect();
            for (opt, unset) in cmd.options() {
                let at = format!("{} --{}", cmd.name, opt.name);
                assert_eq!(names.iter().filter(|&&n| n == opt.name).count(), 1, "{at}");
                if let Unset::Is(default) = unset {
                    assert!(opt.kind.parse(default).is_some(), "{at}: {default:?}");
                }
                assert!(opt.needs.is_none_or(|dep| names.contains(&dep)), "{at}");
            }
        }
        for opt in OPTIONS {
            let used = (COMMANDS.iter()).any(|c| c.options().any(|(o, _)| o.name == opt.name));
            assert!(used, "--{} is no command's", opt.name);
        }
        let Some(Opt {
            kind: Kind::Choice(points, _),
            ..
        }) = lookup("crash-at")
        else {
            panic!("--crash-at is a choice");
        };
        let names = sensjoin_core::persist::CrashPoint::ALL.map(|p| p.to_string());
        assert_eq!(names.as_slice(), *points);
    }

    /// OPERATIONS.md holds `sensjoin help` and every `sensjoin <cmd> --help`
    /// verbatim, each in a `text` block after a `<!-- … -->` marker, so the
    /// guide's option blocks cannot drift from the table.
    #[test]
    fn operations_option_blocks_are_the_rendered_help() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OPERATIONS.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let blocks = (COMMANDS.iter())
            .map(|c| (format!("sensjoin {} --help", c.name), c.help()))
            .chain([("sensjoin help".to_owned(), usage(COMMANDS))]);
        for (marker, want) in blocks {
            let open = format!("<!-- {marker} -->\n```text\n");
            let got = (doc.split_once(&open))
                .and_then(|(_, rest)| rest.split_once("```\n"))
                .map(|(block, _)| block);
            assert!(
                got == Some(want.as_str()),
                "OPERATIONS.md must hold, verbatim:\n\n<!-- {marker} -->\n```text\n{want}```\n"
            );
        }
    }
}
