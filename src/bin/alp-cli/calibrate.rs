//! `alp-cli calibrate`: probe candidate tilings on this machine, fit
//! the latency model, and write it as a reusable artifact for `plan
//! --calibrated`.

use crate::args::{self, value, Args, Command, Positional};
use crate::front::{self, plural};
use crate::report::fail;
use alp::prelude::*;
use std::process::ExitCode;

pub const COMMAND: Command = Command {
    name: "calibrate",
    flags: &[
        args::PROCESSORS,
        args::PARAM,
        args::THREADS,
        value(&["--trials"], "N", "timed trials per tiling"),
        value(&["--warmup"], "N", "untimed warmup runs"),
        args::LINE_SIZE,
        args::SEED,
        args::EMIT,
    ],
    positional: Positional::Optional,
    synopsis: "[OPTIONS] [FILE|-]",
    run,
};

/// The built-in probe corpus, used when no program is given: small
/// nests with deliberately different footprint/span/iteration profiles,
/// so the fit sees diverse feature regimes.
const PROBE_CORPUS: &[&str] = &[
    // 2-D stencil: footprint dominated, modest span.
    "doall (i, 1, 96) { doall (j, 1, 96) {
       A[i,j] = B[i-1,j] + B[i,j+1] + B[i+1,j-1];
     } }",
    // Skewed references: span and footprint pull candidate shapes in
    // opposite directions (the Example-2 profile).
    "doall (i, 101, 292) { doall (j, 1, 192) {
       A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3];
     } }",
    // Streaming row sweep: iteration dominated, minimal reuse.
    "doall (i, 0, 63) { doall (j, 0, 511) {
       A[i,j] = B[i,j] + B[i,j+1];
     } }",
];

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let processors = args.get_or("--processors", 16i128);
    let cfg = ProbeConfig {
        threads: args.get_or("--threads", 4),
        trials: args.get_or("--trials", 3),
        warmup: args.get_or("--warmup", 1),
        line_size: args.get_or("--line-size", 1),
        seed: args.get_or("--seed", 42),
        max_grids: 8,
    };
    let emit = args.get_or("--emit", "-".to_string());
    let nests: Vec<LoopNest> = if args.positional(0).is_some() {
        front::load_program(args)?.1
    } else {
        PROBE_CORPUS
            .iter()
            .map(|src| alp::loopir::parse(src).expect("built-in probe nest parses"))
            .collect()
    };
    let pairs: Vec<(&LoopNest, i128)> = nests.iter().map(|n| (n, processors)).collect();
    eprintln!(
        "alp-cli: probing {} nest{} x {} processors ({} threads, {} trial{} + {} warmup)",
        pairs.len(),
        plural(pairs.len()),
        processors,
        cfg.threads,
        cfg.trials,
        plural(cfg.trials),
        cfg.warmup
    );
    let model = fit_nest(&pairs, &cfg).map_err(fail)?;
    eprintln!(
        "alp-cli: fitted over {} samples: per-tile {} ns, per-line {} ns, per-span-line {} ns, \
         per-iter {} ns, per-rep {} ns",
        model.samples,
        model.per_tile_ns.to_f64(),
        model.per_line_ns.to_f64(),
        model.per_span_line_ns.to_f64(),
        model.per_iter_ns.to_f64(),
        model.per_rep_ns.to_f64()
    );
    let calib = Calibration {
        model,
        threads: cfg.threads,
        trials: cfg.trials,
    };
    front::emit(&emit, &calib.to_json_string(), "calibration")?;
    Ok(ExitCode::SUCCESS)
}
