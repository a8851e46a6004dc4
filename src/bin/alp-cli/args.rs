//! The one `argv` parser.  A flag is a row of data, a command is a row
//! of flags plus a positional rule and a `run` function, and [`parse`]
//! is the only loop that consumes arguments.  Values stay strings until
//! a command reads them ([`Args::get`] and friends), so per-command
//! defaults live at the use site; every command reads its flags before
//! doing any work, which keeps a bad value a usage error (exit 2) with
//! nothing else printed.

use std::process::ExitCode;
use std::str::FromStr;

pub enum Kind {
    /// Present or absent.
    Switch,
    /// Takes the next argument, whatever it is; the string names it in
    /// the usage text.
    Value(&'static str),
}

pub struct Flag {
    /// Every spelling; the first one keys the parsed value.
    pub names: &'static [&'static str],
    pub kind: Kind,
    pub help: &'static str,
}

pub const fn switch(names: &'static [&'static str], help: &'static str) -> Flag {
    let kind = Kind::Switch;
    Flag { names, kind, help }
}

pub const fn value(names: &'static [&'static str], meta: &'static str, help: &'static str) -> Flag {
    let kind = Kind::Value(meta);
    Flag { names, kind, help }
}

// Rows more than one command lists.
pub const PROCESSORS: Flag = value(&["-p", "--processors"], "N", "processors to partition for");
pub const MESH: Flag = value(&["-m", "--mesh"], "WxH", "2-D mesh for placement and hops");
pub const PARAM: Flag = value(&["--param"], "NAME=VAL", "bind a loop-bound parameter");
pub const LINE_SIZE: Flag = value(&["--line-size"], "N", "cache line size in elements");
pub const SEED: Flag = value(&["--seed"], "N", "array-content / traffic seed");
pub const THREADS: Flag = value(&["--threads"], "N", "OS threads");
pub const NO_CHECK: Flag = switch(&["--no-check"], "skip the doall legality analysis");
pub const EMIT: Flag = value(&["--emit"], "FILE|-", "where to write the JSON artifact");
pub const FROM_PLAN: Flag = value(&["--from-plan"], "FILE|-", "use a saved plan, not an input");
pub const TIMEOUT_MS: Flag = value(&["--timeout-ms"], "N", "wall-clock deadline for the run");
pub const MAX_STORE_BYTES: Flag = value(&["--max-store-bytes"], "N", "memory budget for the run");
pub const CERTIFY: Flag = switch(&["--certify"], "prove and embed the plan certificate");
pub const SKEWED: Flag = switch(&["--skewed"], "partition with skewed parallelepiped tiles");
pub const STORE: Flag = value(&["--store"], "DIR", "journal computed plans crash-safely");
pub const SHARDS: Flag = value(&["--shards"], "N", "plan-cache shards");
pub const CAPACITY: Flag = value(&["--capacity", "--cache-capacity"], "N", "plan-cache size");
pub const QUEUE: Flag = value(&["--queue"], "N", "admission queue capacity");
pub const WORKERS: Flag = value(&["--workers"], "N", "compile/run worker threads");

/// How many bare words (`-`, or anything not starting with `-`) a
/// command takes.
pub enum Positional {
    None,
    Optional,
    Required,
    /// Required unless the named flag is given.
    RequiredUnless(&'static str),
    /// Exactly two (`store ACTION DIR`).
    Two,
}

pub struct Command {
    /// The subcommand word; empty for the default mode.
    pub name: &'static str,
    pub flags: &'static [Flag],
    pub positional: Positional,
    /// What follows the command word on the usage line.
    pub synopsis: &'static str,
    pub run: fn(&Args) -> Result<ExitCode, ExitCode>,
}

impl Command {
    /// The usage text, generated from the row.
    pub fn usage(&self) -> String {
        let words = ["usage: alp-cli", self.name, self.synopsis];
        let words: Vec<&str> = words.into_iter().filter(|w| !w.is_empty()).collect();
        let mut text = words.join(" ") + "\n";
        for flag in self.flags {
            let mut left = flag.names.join(", ");
            if let Kind::Value(meta) = flag.kind {
                left = format!("{left} <{meta}>");
            }
            text.push_str(&format!("  {left:<28} {}\n", flag.help));
        }
        if self.name.is_empty() {
            let names: Vec<&str> = crate::COMMANDS[1..].iter().map(|c| c.name).collect();
            text.push_str(&format!(
                "commands (alp-cli <COMMAND> --help): {}\n",
                names.join(", ")
            ));
        }
        text
    }

    /// Print the usage (and why, when there is a reason) and exit 2.
    pub fn usage_error(&self, why: &str) -> ! {
        eprint!("{}", self.usage());
        if !why.is_empty() {
            eprintln!("alp-cli: {why}");
        }
        std::process::exit(2)
    }
}

/// One parsed command line: the flag occurrences in `argv` order, keyed
/// by their index in the command's row, plus the positionals.
pub struct Args {
    pub cmd: &'static Command,
    values: Vec<(usize, String)>,
    positionals: Vec<String>,
}

pub fn parse(cmd: &'static Command, mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        cmd,
        values: Vec::new(),
        positionals: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        if arg == "-h" || arg == "--help" {
            cmd.usage_error("");
        }
        let row = cmd.flags.iter().position(|f| f.names.contains(&&*arg));
        if let Some(row) = row {
            let value = match cmd.flags[row].kind {
                Kind::Switch => String::new(),
                Kind::Value(_) => argv
                    .next()
                    .unwrap_or_else(|| cmd.usage_error(&format!("{arg} needs a value"))),
            };
            args.values.push((row, value));
        } else if arg.starts_with('-') && arg != "-" {
            cmd.usage_error(&format!("unknown option {arg}"));
        } else {
            args.positionals.push(arg);
        }
    }
    let (min, max) = match cmd.positional {
        Positional::None => (0, 0),
        Positional::Optional => (0, 1),
        Positional::Required => (1, 1),
        Positional::RequiredUnless(flag) => (usize::from(!args.has(flag)), 1),
        Positional::Two => (2, 2),
    };
    if !(min..=max).contains(&args.positionals.len()) {
        cmd.usage_error(&format!("expected {}", cmd.synopsis));
    }
    args
}

impl Args {
    /// Every value given for the flag spelled `name`, in `argv` order
    /// (an empty string per occurrence of a switch).  Nothing when the
    /// command does not list the flag.
    fn raw<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> {
        let row = self.cmd.flags.iter().position(|f| f.names.contains(&name));
        self.values
            .iter()
            .filter(move |(r, _)| Some(*r) == row)
            .map(|(_, v)| v.as_str())
    }

    fn invalid(&self, name: &str, text: &str) -> ! {
        self.cmd
            .usage_error(&format!("invalid value '{text}' for {name}"))
    }

    pub fn has(&self, name: &str) -> bool {
        self.raw(name).next().is_some()
    }

    /// The last value given for `name`; exits 2 when it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let text = self.raw(name).last()?;
        Some(text.parse().unwrap_or_else(|_| self.invalid(name, text)))
    }

    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).unwrap_or(default)
    }

    /// Every `A<sep>B` value given for `name` (`-m WxH`, `--param
    /// NAME=VAL`); exits 2 when one does not parse.
    pub fn pairs<A: FromStr, B: FromStr>(&self, name: &str, sep: char) -> Vec<(A, B)> {
        let pair = |text: &str| {
            let (a, b) = text.split_once(sep)?;
            Some((a.parse().ok()?, b.parse().ok()?))
        };
        self.raw(name)
            .map(|text| pair(text).unwrap_or_else(|| self.invalid(name, text)))
            .collect()
    }

    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }
}
