//! `alp-cli certify`: prove the four certificate facts for a saved plan
//! (or re-check an embedded certificate against recomputation) and
//! optionally write the certified plan back out.

use crate::args::{self, Args, Command, Positional};
use crate::front;
use crate::report::fail;
use std::process::ExitCode;

pub const COMMAND: Command = Command {
    name: "certify",
    flags: &[args::EMIT],
    positional: Positional::Required,
    synopsis: "[OPTIONS] <PLAN|->",
    run,
};

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let mut plan = front::load_plan(args.positional(0).expect("certify requires a plan"))?;
    if plan.certificate.is_some() {
        // Every embedded verdict must agree with fresh recomputation;
        // a stale or tampered certificate exits 9.
        let proven = alp::certify::recheck(&plan).map_err(fail)?;
        println!("certificate: verified against recomputation");
        plan = plan.with_certificate(proven);
    } else {
        plan = front::certify_into(plan)?;
    }
    let certificate = plan.certificate.as_ref().expect("attached above");
    println!(
        "plan {} (grid {:?}):\n  coverage       {}\n  write-disjoint {}\n  in-bounds      \
         {}\n  idempotent     {}",
        plan.fingerprint,
        plan.proc_grid,
        certificate.coverage,
        certificate.write_disjoint,
        certificate.in_bounds,
        certificate.idempotent
    );
    if let Some(path) = args.get::<String>("--emit") {
        front::emit(&path, &plan.to_json_string(), "certified plan")?;
    }
    Ok(ExitCode::SUCCESS)
}
