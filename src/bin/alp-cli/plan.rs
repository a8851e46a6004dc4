//! `alp-cli plan`: run analysis and partitioning only and write the
//! decision as the versioned JSON plan artifact.

use crate::args::{self, value, Args, Command, Positional};
use crate::front;
use crate::report::fail_in;
use crate::serve::call_server;
use alp::serve::client::RetryPolicy;
use alp::serve::{ClientConfig, Request};
use std::process::ExitCode;

pub const COMMAND: Command = Command {
    name: "plan",
    flags: &[
        args::PROCESSORS,
        args::MESH,
        args::PARAM,
        args::NO_CHECK,
        args::EMIT,
        args::CERTIFY,
        args::SKEWED,
        value(&["--via-server"], "SOCK", "plan through a `serve` daemon"),
    ],
    positional: Positional::Required,
    synopsis: "[OPTIONS] <FILE|->",
    run,
};

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let emit = args.get_or("--emit", "-".to_string());
    if let Some(sock) = args.get::<String>("--via-server") {
        return via_server(args, &sock, &emit);
    }
    let compiler = front::compiler_from(args);
    let (src, nest) = front::load_single_nest(args)?;
    let mut plan = compiler.plan(&nest).map_err(|e| fail_in(&src, e))?;
    if args.has("--certify") {
        plan = front::certify_into(plan)?;
    }
    let what = format!(
        "plan (fingerprint {}, grid {:?}, {} tiles{})",
        plan.fingerprint,
        plan.proc_grid,
        plan.tiles(),
        if plan.transform.is_some() {
            ", skewed"
        } else {
            ""
        }
    );
    front::emit(&emit, &plan.to_json_string(), &what)?;
    Ok(ExitCode::SUCCESS)
}

/// Plan through a daemon instead of compiling in process — hot nests
/// come back as cache hits without paying the optimizer.  What the wire
/// protocol cannot carry plans locally, so it is refused rather than
/// silently dropped.
fn via_server(args: &Args, sock: &str, emit: &str) -> Result<ExitCode, ExitCode> {
    let processors = args.get_or("--processors", 16);
    // The source is read before anything can refuse the request, so a
    // caller piping it in never writes to a closed pipe.
    let src = front::read_source(args.positional(0).expect("plan requires an input"))?;
    if ["--mesh", "--skewed", "--param"]
        .iter()
        .any(|local| args.has(local))
    {
        eprintln!(
            "alp-cli: plan --via-server supports -p/--no-check/--certify/--emit only \
             (--mesh, --skewed, --param plan locally)"
        );
        return Err(ExitCode::from(2));
    }
    let mut req = Request::plan(1, &src);
    req.plan.processors = processors;
    req.plan.check = !args.has("--no-check");
    req.plan.certify = args.has("--certify");
    req.want_plan = true;
    let resp = call_server(
        "plan",
        sock,
        &req,
        RetryPolicy::Idempotent,
        ClientConfig::default(),
    )?;
    let Some(json) = &resp.plan else {
        eprintln!("alp-cli: plan: server answered without a plan artifact");
        return Err(ExitCode::FAILURE);
    };
    let what = format!(
        "plan (fingerprint {}, tiles {}, cache {})",
        resp.fingerprint.as_deref().unwrap_or("?"),
        resp.tiles.unwrap_or(0),
        resp.cache.as_deref().unwrap_or("?")
    );
    front::emit(emit, json, &what)?;
    Ok(ExitCode::SUCCESS)
}
