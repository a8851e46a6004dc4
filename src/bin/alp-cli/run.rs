//! `alp-cli run`: partition a nest (or load a saved plan), execute it on
//! OS threads over real `f64` arrays, and check the parallel result
//! bitwise against a sequential reference run.

use crate::args::{self, switch, value, Args, Command, Positional};
use crate::front;
use crate::report::{fail, fail_in, EXIT_MISMATCH};
use alp::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

pub const COMMAND: Command = Command {
    name: "run",
    flags: &[
        args::PROCESSORS,
        args::PARAM,
        args::THREADS,
        switch(&["--steal"], "dynamic self-scheduling instead of static"),
        args::LINE_SIZE,
        args::SEED,
        args::NO_CHECK,
        args::FROM_PLAN,
        args::TIMEOUT_MS,
        value(&["--retry"], "N", "retries for a panicked retry-safe tile"),
        args::MAX_STORE_BYTES,
        switch(&["--fallback-seq"], "over budget: run sequentially"),
        switch(&["--require-cert"], "refuse to run uncertified"),
        args::SKEWED,
    ],
    positional: Positional::RequiredUnless("--from-plan"),
    synopsis: "[OPTIONS] <FILE|->",
    run,
};

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let seed = args.get_or("--seed", 42u64);
    let exec_opts = ExecOptions {
        threads: args.get_or("--threads", 0),
        schedule: if args.has("--steal") {
            Schedule::Dynamic
        } else {
            Schedule::Static
        },
        line_size: args.get_or("--line-size", 1),
        deadline: args.get("--timeout-ms").map(Duration::from_millis),
        max_retries: args.get_or("--retry", 0),
        memory_budget: args.get("--max-store-bytes"),
        ..ExecOptions::default()
    };
    let compiler = front::compiler_from(args);
    let require_cert = args.has("--require-cert");

    let plan = if let Some(path) = args.get::<String>("--from-plan") {
        let plan = front::load_plan(&path)?;
        if require_cert && plan.certificate.is_none() {
            return Err(fail(CertifyError::Missing));
        }
        // A hand-edited grid is a plan-artifact error (`ALP0006`) here,
        // not a lowering failure once the executor trips over it.
        (plan.nest().and_then(|nest| plan.tiling(&nest))).map_err(fail)?;
        plan
    } else {
        let (src, nest) = front::load_single_nest(args)?;
        let (plan, report) = (compiler.plan_with_report(&nest)).map_err(|e| fail_in(&src, e))?;
        eprint!("{}", report.render(&src));
        if require_cert {
            // A DSL nest has no saved certificate to demand — certify it
            // in process and attach the proof, so execute() re-checks
            // the same path a saved certified plan takes.
            front::certify_into(plan)?
        } else {
            plan
        }
    };
    println!(
        "partition: grid {:?}, tile λ {:?}, modeled cost {}",
        plan.proc_grid, plan.tile_extents, plan.cost
    );
    if let Some(t) = &plan.transform {
        println!(
            "transform: skewed tiles, U rows {:?} (grid and λ are j-space)",
            (0..t.depth())
                .map(|r| (0..t.depth()).map(|c| t.u()[(r, c)]).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
    }
    if let Some(cert) = &plan.certificate {
        println!(
            "certificate: coverage {}, write-disjoint {}, in-bounds {}, idempotent {}",
            cert.coverage, cert.write_disjoint, cert.in_bounds, cert.idempotent
        );
    }

    let summary = match Compiler::execute(&plan, &exec_opts, seed) {
        Ok(s) => s,
        Err(e @ AlpError::Runtime(RuntimeError::ResourceExceeded { .. }))
            if args.has("--fallback-seq") =>
        {
            // Degraded mode: run the interpreted sequential reference
            // directly (no threads, no touch bitsets, no snapshots).
            eprintln!("alp-cli: warning[{}]: {e}", e.code());
            eprintln!("alp-cli: falling back to a sequential interpreted run");
            let exec = Executor::from_plan(&plan).map_err(fail)?;
            let data = exec.run_sequential(seed);
            println!("\n== run (sequential fallback) ==");
            println!(
                "threads 1  tiles {}  elements {}",
                exec.tile_count(),
                data.len()
            );
            println!("result: sequential fallback completed");
            return Ok(ExitCode::SUCCESS);
        }
        Err(e) => return Err(fail(e)),
    };

    println!("\n== run ==");
    if summary.certified_fastpath {
        println!("certified fast path: relaxed (non-atomic) accumulate stores");
    }
    print!("{}", summary.outcome.report.render());
    if let Some(mc) = &summary.model_comparison {
        println!(
            "model footprint: predicted {:.1} lines/tile, measured max {}{}, ratio {:.2}",
            mc.predicted_per_tile,
            if mc.exact { "" } else { "~" },
            mc.measured_max_tile,
            mc.ratio
        );
    }
    if summary.outcome.matches_reference {
        println!("result: parallel output matches the sequential reference bitwise");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("alp-cli: parallel result DIFFERS from the sequential reference");
        Ok(ExitCode::from(EXIT_MISMATCH))
    }
}
