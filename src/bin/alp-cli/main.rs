//! `alp-cli` — analyze, partition, and natively execute a `doall`
//! program from the command line.
//!
//! ```sh
//! alp-cli [OPTIONS] <FILE|->            # analyze + partition ('-' = stdin)
//! alp-cli plan [OPTIONS] <FILE|->       # emit the partition plan as JSON
//! alp-cli run [OPTIONS] <FILE|->        # partition AND execute on threads
//! alp-cli certify [OPTIONS] <PLAN|->    # prove/re-check a plan's certificate
//! alp-cli serve --socket PATH [...]     # the plan service (daemon / --connect)
//! alp-cli store verify|stats|compact DIR
//! ```
//!
//! Every command is one row of [`COMMANDS`]: its flags, its positional
//! rule and its `run` function.  `alp-cli [COMMAND] --help` prints the
//! options, generated from those rows; an unknown option is a usage
//! error (exit 2).
//!
//! The legality analysis (races, lints) runs by default before
//! partitioning; racy nests are refused.  `plan` runs the analysis and
//! partitioning phases only and writes the decision as a versioned JSON
//! `PartitionPlan` artifact; `run --from-plan` / `--from-plan`
//! re-execute or re-simulate such an artifact without repeating the
//! analysis (the embedded nest is fingerprint-verified on load).  `run`
//! compiles the nest's partition to a native kernel, executes it on OS
//! threads over real `f64` arrays, prints per-thread metrics plus the
//! measured-vs-modeled footprint ratio, and checks the parallel result
//! bitwise against a sequential reference run.
//!
//! Exit codes (the table is `report::exit_for`; README "Exit codes"
//! describes each): `0` success, `1` I/O, parse or artifact-decode
//! failure, `2` usage, `3` `--check` warnings, `4` legality errors,
//! `5` result mismatch, `6` deadline, `7` tile fault, `8` memory
//! budget, `9` certificate, `10` shed under load, `11` corrupt store,
//! `12` draining.
//!
//! ```sh
//! echo 'doall (i, 1, N) { doall (j, 1, N) {
//!         A[i,j] = B[i,j] + B[i+1,j+3]; } }' \
//!   | alp-cli --param N=64 -p 16 --simulate --para -
//!
//! alp-cli plan -p 24 --emit plan.json examples/ex8.alp
//! alp-cli run --from-plan plan.json --threads 8 --steal
//! alp-cli --from-plan plan.json --simulate
//! ```

mod analyze;
mod args;
mod certify;
mod front;
mod plan;
mod report;
mod run;
mod serve;
mod store;

use args::Command;
use std::process::ExitCode;

/// Every command; the first row is the default mode, chosen when the
/// first argument names no other.
pub static COMMANDS: [Command; 6] = [
    analyze::COMMAND,
    plan::COMMAND,
    run::COMMAND,
    certify::COMMAND,
    serve::COMMAND,
    store::COMMAND,
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let named = argv
        .peek()
        .and_then(|word| COMMANDS[1..].iter().find(|c| c.name == word));
    if named.is_some() {
        argv.next();
    }
    let cmd = named.unwrap_or(&COMMANDS[0]);
    (cmd.run)(&args::parse(cmd, argv)).unwrap_or_else(|code| code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::Positional;

    /// A flag added to a command's row cannot be missing from its help,
    /// nor shadow another flag of the same command.
    #[test]
    fn usage_names_every_flag_of_every_command() {
        for cmd in &COMMANDS {
            let usage = cmd.usage();
            assert!(usage.starts_with("usage: alp-cli"), "{usage}");
            let mut seen = std::collections::HashSet::new();
            for flag in cmd.flags {
                assert!(usage.contains(flag.help), "{}: {}", cmd.name, flag.help);
                for name in flag.names {
                    assert!(usage.contains(name), "{}: {name} not in usage", cmd.name);
                    assert!(seen.insert(name), "{}: {name} listed twice", cmd.name);
                }
            }
            if let Positional::RequiredUnless(flag) = cmd.positional {
                assert!(seen.contains(&flag), "{}: {flag} not listed", cmd.name);
            }
        }
    }

    #[test]
    fn command_names_are_distinct_and_the_default_is_first() {
        assert_eq!(COMMANDS[0].name, "");
        let names: std::collections::HashSet<_> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), COMMANDS.len());
    }
}
