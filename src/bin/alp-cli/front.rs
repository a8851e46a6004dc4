//! What the commands share on the way in and out: reading sources and
//! artifacts, the flag-driven [`Compiler`], certification, the traffic
//! printer, and the one writer behind `--emit` / `--json`.

use crate::args::Args;
use crate::report::{fail, fail_io};
use alp::prelude::*;
use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

/// The plural suffix for a count.
pub fn plural<N: PartialEq + From<u8>>(n: N) -> &'static str {
    if n == N::from(1) {
        ""
    } else {
        "s"
    }
}

/// Read a file, or stdin for `-`.
pub fn read_source(input: &str) -> Result<String, ExitCode> {
    if input == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("alp-cli: failed to read stdin");
            return Err(ExitCode::FAILURE);
        }
        Ok(buf)
    } else {
        std::fs::read_to_string(input).map_err(|e| fail_io(input, e))
    }
}

/// Load and decode a saved plan.  Structurally damaged certificates
/// (truncated block, stale fingerprint) are caught here by the decoder
/// and exit 9.
pub fn load_plan(path: &str) -> Result<PartitionPlan, ExitCode> {
    PartitionPlan::from_json_str(&read_source(path)?).map_err(fail)
}

/// Read and parse the positional DSL program under the `--param`
/// bindings.
pub fn load_program(args: &Args) -> Result<(String, Vec<LoopNest>), ExitCode> {
    let params: HashMap<String, i128> = args.pairs("--param", '=').into_iter().collect();
    let src = read_source(args.positional(0).expect("the command requires an input"))?;
    let nests = parse_program_with_params(&src, &params).map_err(fail)?;
    Ok((src, nests))
}

/// [`load_program`] for the commands that plan exactly one nest.
pub fn load_single_nest(args: &Args) -> Result<(String, LoopNest), ExitCode> {
    let (src, mut nests) = load_program(args)?;
    if nests.len() != 1 {
        eprintln!(
            "alp-cli: {} expects a single-nest program ({} nests found)",
            args.cmd.name,
            nests.len()
        );
        return Err(ExitCode::FAILURE);
    }
    Ok((src, nests.remove(0)))
}

/// The [`Compiler`] the flags describe: `-p`, `-m`, `--no-check` and
/// `--skewed`, each applied when the command lists it and the user gave
/// it.
pub fn compiler_from(args: &Args) -> Compiler {
    let mut compiler = Compiler::new(args.get_or("--processors", 16));
    if let Some((w, h)) = args.pairs("--mesh", 'x').pop() {
        compiler = compiler.with_mesh(w, h);
    }
    if args.has("--no-check") {
        compiler = compiler.unchecked();
    }
    if args.has("--skewed") {
        compiler = compiler.with_skewed_tiles();
    }
    compiler
}

/// Prove the four certificate facts and embed them in the plan.
pub fn certify_into(plan: PartitionPlan) -> Result<PartitionPlan, ExitCode> {
    let report = alp::certify::certify(&plan).map_err(fail)?;
    for note in &report.notes {
        eprintln!("alp-cli: certify: {note}");
    }
    Ok(plan.with_certificate(report.certificate))
}

/// Write an artifact: to stdout for `-`, else to the file, noting on
/// stderr `what` was written (when there is something to say).
pub fn emit(path: &str, text: &str, what: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{text}");
        return Ok(());
    }
    std::fs::write(path, text).map_err(|e| fail_io(path, e))?;
    if !what.is_empty() {
        eprintln!("alp-cli: wrote {what} to {path}");
    }
    Ok(())
}

pub fn print_traffic(report: &TrafficReport) {
    println!("  accesses        : {}", report.total_accesses());
    println!(
        "  misses          : {} (rate {:.4})",
        report.total_misses(),
        report.miss_rate()
    );
    println!("    cold          : {}", report.total_cold_misses());
    println!("    coherence     : {}", report.total_coherence_misses());
    println!("  invalidations   : {}", report.total_invalidations());
}
