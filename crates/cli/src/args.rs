//! A small, dependency-free command-line tokenizer. Which options exist,
//! which of them are flags and what their values mean is the option table's
//! business ([`crate::spec`]).

use crate::spec::{self, Kind};
use std::collections::BTreeMap;

/// Raw command line: a subcommand, `--key value` options and positionals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first non-option argument).
    pub command: Option<String>,
    /// `--key value` / `--flag` options (flags map to `"true"`).
    pub options: BTreeMap<String, String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
}

/// Errors tokenizing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given twice.
    Duplicate(String),
    /// A valued option at the end of the line, or followed by another option.
    MissingValue(String),
    /// `--flag=value`.
    FlagValue(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "--{k}: given twice"),
            ArgError::MissingValue(k) => write!(f, "--{k}: expected a value"),
            ArgError::FlagValue(k) => write!(f, "--{k}: takes no value"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name). Options may appear
    /// before or after the subcommand, as `--key value` or `--key=value`. A
    /// flag of the option table never takes a value and a valued option
    /// always does; an unknown option takes the next argument unless that
    /// is an option (validation then rejects it by name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut raw = raw.into_iter().peekable();
        while let Some(a) = raw.next() {
            let Some(key) = a.strip_prefix("--") else {
                match args.command {
                    None => args.command = Some(a),
                    Some(_) => args.positional.push(a),
                }
                continue;
            };
            let (key, inline) = key
                .split_once('=')
                .map_or((key, None), |(k, v)| (k, Some(v)));
            let flag = spec::lookup(key).map(|opt| matches!(opt.kind, Kind::Flag));
            let value = match (flag, inline) {
                (Some(true), Some(_)) => return Err(ArgError::FlagValue(key.into())),
                (_, Some(v)) => v.to_owned(),
                (Some(true), None) => "true".into(),
                (_, None) => match raw.next_if(|next| !next.starts_with("--")) {
                    Some(v) => v,
                    None if flag.is_some() => return Err(ArgError::MissingValue(key.into())),
                    None => "true".into(),
                },
            };
            if args.options.insert(key.to_owned(), value).is_some() {
                return Err(ArgError::Duplicate(key.into()));
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("run --nodes 500 --seed 7 extra");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.options["nodes"], "500");
        assert_eq!(a.options["seed"], "7");
        assert_eq!(a.positional, vec!["extra"]);
    }

    #[test]
    fn equals_syntax_and_flags() {
        let a = parse("topology --nodes=200 --map extra");
        assert_eq!(a.options["nodes"], "200");
        // A flag never swallows the next argument...
        assert_eq!(a.options["map"], "true");
        assert_eq!(a.positional, vec!["extra"]);
        // ...and never takes an inline value.
        let err = Args::parse(["--map=yes".into()]);
        assert_eq!(err, Err(ArgError::FlagValue("map".into())));
    }

    #[test]
    fn defaults_apply() {
        // Tokenizing adds nothing; validation fills in the table's defaults.
        let a = parse("topology");
        assert!(a.options.is_empty());
        let topology = crate::commands::COMMANDS
            .iter()
            .find(|c| c.name == "topology");
        let o = topology.unwrap().validate(&a).unwrap();
        assert_eq!(o.value("nodes").count(), 500);
    }

    #[test]
    fn errors() {
        assert_eq!(
            Args::parse(["--x".into(), "1".into(), "--x".into(), "2".into()]),
            Err(ArgError::Duplicate("x".into()))
        );
        // A valued option needs its value: no silent "true" SQL.
        for line in ["run --sql", "run --sql --nodes 5"] {
            let err = Args::parse(line.split_whitespace().map(String::from));
            assert_eq!(err, Err(ArgError::MissingValue("sql".into())), "{line}");
        }
        // Unknown options still tokenize; validation names them.
        assert_eq!(parse("run --bogus 1").options["bogus"], "1");
    }

    #[test]
    fn option_before_command() {
        let a = parse("--seed 3 run");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.options["seed"], "3");
    }
}
