//! Flag parsing for the CLI (no external argument-parsing crate).
//!
//! Every command declares its flag set in [`COMMANDS`]; unknown flags are
//! rejected at parse time with a "did you mean" hint, so typos like
//! `--thread` or `--thета` fail loudly instead of being silently ignored.

use std::collections::BTreeMap;

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage: oipa-cli <command> [flags]

commands:
  generate  --dataset lastfm|dblp|tweet [--scale tiny|small|medium|full]
            [--seed N] --out-graph FILE --out-probs FILE
  import    --edges FILE --out-graph FILE [--topics N] [--avg-support F]
            [--max-prob F] [--seed N] [--out-probs FILE]
  stats     --graph FILE [--probs FILE]
  sample    --graph FILE --probs FILE --ell N [--theta N] [--seed N]
            [--threads N] --out-pool FILE --out-campaign FILE
  solve     (--pool FILE | --graph FILE --probs FILE --ell N)
            [--method bab|bab-p|plain|greedy|brute|im|tim]
            [--k N] [--ratio F] [--eps F] [--gap F] [--promoter-fraction F]
            [--max-nodes N] [--seed N] [--theta N] [--out-plan FILE]
            [--store-dir DIR] [--region-bytes N] [--fault-schedule SPEC]
  simulate  --graph FILE --probs FILE --campaign FILE --plan FILE
            [--ratio F] [--runs N] [--seed N]
  batch     --requests FILE (--graph FILE --probs FILE | --pool FILE)
            [--out FILE] [--check true] [--store-dir DIR] [--region-bytes N]
            [--threads N] [--fault-schedule SPEC]
  store     ls|verify|gc --dir DIR
  obs       dump --addr HOST:PORT

--fault-schedule (dev): inject disk faults into the attached store, e.g.
  \"write:enospc=1,seed=7\" or \"crash=12\" or \"down\" — see oipa-store docs";

/// One command's grammar: its name, whether it takes a positional
/// subject, and the flags it accepts.
struct CommandSpec {
    name: &'static str,
    takes_positional: bool,
    flags: &'static [&'static str],
}

/// The complete CLI grammar. `ParsedArgs::parse` validates against this,
/// so adding a flag to a command means adding it here.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "generate",
        takes_positional: false,
        flags: &["dataset", "scale", "seed", "out-graph", "out-probs"],
    },
    CommandSpec {
        name: "import",
        takes_positional: false,
        flags: &[
            "edges",
            "out-graph",
            "topics",
            "avg-support",
            "max-prob",
            "seed",
            "out-probs",
        ],
    },
    CommandSpec {
        name: "stats",
        takes_positional: false,
        flags: &["graph", "probs"],
    },
    CommandSpec {
        name: "sample",
        takes_positional: false,
        flags: &[
            "graph",
            "probs",
            "ell",
            "theta",
            "seed",
            "threads",
            "out-pool",
            "out-campaign",
        ],
    },
    CommandSpec {
        name: "solve",
        takes_positional: false,
        flags: &[
            "pool",
            "method",
            "k",
            "ratio",
            "eps",
            "gap",
            "promoter-fraction",
            "max-nodes",
            "seed",
            "out-plan",
            "graph",
            "probs",
            "theta",
            "ell",
            "store-dir",
            "region-bytes",
            "fault-schedule",
        ],
    },
    CommandSpec {
        name: "simulate",
        takes_positional: false,
        flags: &[
            "graph", "probs", "campaign", "plan", "ratio", "runs", "seed",
        ],
    },
    CommandSpec {
        name: "batch",
        takes_positional: false,
        flags: &[
            "requests",
            "graph",
            "probs",
            "pool",
            "out",
            "check",
            "store-dir",
            "region-bytes",
            "threads",
            "fault-schedule",
        ],
    },
    CommandSpec {
        name: "store",
        takes_positional: true,
        flags: &["dir"],
    },
    CommandSpec {
        name: "obs",
        takes_positional: true,
        flags: &["addr"],
    },
];

/// A parse/validation error.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError(s.to_string())
    }
}

/// Levenshtein edit distance, for "did you mean" hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest candidate within an edit distance of 2, if any.
fn suggest<'c>(got: &str, candidates: impl Iterator<Item = &'c str>) -> Option<&'c str> {
    candidates
        .map(|c| (edit_distance(got, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

fn hint(got: &str, candidates: &[&'static str]) -> String {
    match suggest(got, candidates.iter().copied()) {
        Some(s) => format!(" (did you mean --{s}?)"),
        None => String::new(),
    }
}

/// Parsed command plus `--flag value` map.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: String,
    /// The positional subject of `store` and `obs`: the action, e.g.
    /// `store ls`.
    pub positional: Option<String>,
    flags: BTreeMap<String, String>,
}

impl ParsedArgs {
    /// Parses raw arguments (without `argv(0)`), validating flags against
    /// the command's declared set.
    pub fn parse(args: Vec<String>) -> Result<ParsedArgs, CliError> {
        let mut it = args.into_iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| CliError("missing command".to_string()))?;
        let Some(spec) = COMMANDS.iter().find(|s| s.name == command) else {
            let names: Vec<&str> = COMMANDS.iter().map(|s| s.name).collect();
            let hint = match suggest(&command, names.iter().copied()) {
                Some(s) => format!(" (did you mean {s}?)"),
                None => String::new(),
            };
            return Err(CliError(format!("unknown command {command:?}{hint}")));
        };
        let positional = if spec.takes_positional {
            match it.peek() {
                Some(word) if !word.starts_with("--") => it.next(),
                _ => None,
            }
        } else {
            None
        };
        let mut flags = BTreeMap::new();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError(format!("expected --flag, got {flag:?}")));
            };
            if !spec.flags.contains(&name) {
                return Err(CliError(format!(
                    "unknown flag --{name} for {command}{}",
                    hint(name, spec.flags)
                )));
            }
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("--{name} needs a value")))?;
            flags.insert(name.to_string(), value);
        }
        Ok(ParsedArgs {
            command,
            positional,
            flags,
        })
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError(format!("missing required --{name}")))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// An optional parsed flag (`None` when absent).
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError(format!("bad value for --{name}: {raw:?}"))),
        }
    }

    /// An optional parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let p = ParsedArgs::parse(args(&["solve", "--pool", "x.bin", "--k", "7"])).unwrap();
        assert_eq!(p.command, "solve");
        assert_eq!(p.required("pool").unwrap(), "x.bin");
        assert_eq!(p.parsed_or("k", 1usize).unwrap(), 7);
        assert_eq!(p.parsed_or("ratio", 0.5f64).unwrap(), 0.5);
        assert!(p.optional("eps").is_none());
    }

    #[test]
    fn rejects_unknown_command() {
        assert!(ParsedArgs::parse(args(&["frobnicate"])).is_err());
        let e = ParsedArgs::parse(args(&["solv"])).unwrap_err();
        assert!(e.0.contains("did you mean solve?"), "{e}");
    }

    #[test]
    fn rejects_unknown_flag_with_hint() {
        let e = ParsedArgs::parse(args(&["solve", "--thета", "4000"])).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        let e = ParsedArgs::parse(args(&["sample", "--thread", "4"])).unwrap_err();
        assert!(e.0.contains("did you mean --threads?"), "{e}");
        let e = ParsedArgs::parse(args(&["solve", "--methd", "bab"])).unwrap_err();
        assert!(e.0.contains("did you mean --method?"), "{e}");
        // A flag valid for another command is still unknown here.
        let e = ParsedArgs::parse(args(&["stats", "--pool", "x.bin"])).unwrap_err();
        assert!(e.0.contains("unknown flag --pool for stats"), "{e}");
    }

    #[test]
    fn rejects_missing_value() {
        assert!(ParsedArgs::parse(args(&["stats", "--graph"])).is_err());
    }

    #[test]
    fn rejects_positional_garbage() {
        assert!(ParsedArgs::parse(args(&["stats", "graph.bin"])).is_err());
    }

    #[test]
    fn required_reports_flag_name() {
        let p = ParsedArgs::parse(args(&["stats"])).unwrap();
        let e = p.required("graph").unwrap_err();
        assert!(e.0.contains("--graph"));
    }

    #[test]
    fn bad_number_reported() {
        let p = ParsedArgs::parse(args(&["solve", "--k", "banana"])).unwrap();
        assert!(p.parsed_or("k", 1usize).is_err());
    }

    #[test]
    fn edit_distance_sanity() {
        assert_eq!(edit_distance("theta", "theta"), 0);
        assert_eq!(edit_distance("thread", "threads"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert!(suggest("zzzzzz", ["theta", "seed"].into_iter()).is_none());
    }
}
