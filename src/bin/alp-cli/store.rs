//! `alp-cli store`: offline plan-store maintenance.  `verify` scans the
//! journal read-only and exits 11 (`ALP0014`) when any frame is
//! corrupt; `stats` prints the same summary but always exits 0;
//! `compact` rewrites the live set into one fresh segment.  All three
//! refuse a directory that does not exist (exit 1) and create nothing.

use crate::args::{Args, Command, Positional};
use crate::report::{fail_code, fail_io};
use alp::plan::PlanStore;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

pub const COMMAND: Command = Command {
    name: "store",
    flags: &[],
    positional: Positional::Two,
    synopsis: "verify|stats|compact DIR",
    run,
};

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let action = args.positional(0).expect("store takes two words");
    let dir = args.positional(1).expect("store takes two words");
    let io = |e| fail_io(format_args!("store: {dir}"), e);
    // Maintenance is for a store that exists: scanning a mistyped path
    // would verify an empty journal, and opening it would create one.
    // An unknown action stays a usage error whatever DIR is.
    if matches!(action, "verify" | "stats" | "compact") {
        std::fs::read_dir(dir).map_err(io)?;
    }
    match action {
        "verify" | "stats" => {
            let report = PlanStore::scan(Path::new(dir)).map_err(io)?;
            println!(
                "store {dir}: {} segment(s), {} frame(s), {} bytes, {} live plan(s), \
                 {} quarantined",
                report.segments,
                report.frames,
                report.bytes,
                report.live.len(),
                report.quarantined.len()
            );
            for q in &report.quarantined {
                eprintln!(
                    "alp-cli: store: warning[ALP0014]: segment {:06} offset {}: {} \
                     ({} bytes)",
                    q.segment, q.offset, q.reason, q.bytes
                );
            }
            if action == "verify" && report.corrupt() {
                return Err(fail_code("ALP0014", "store has corrupt frames"));
            }
        }
        "compact" => {
            let (mut store, report) = PlanStore::open(Path::new(dir)).map_err(io)?;
            let live: Vec<_> = report
                .live
                .iter()
                .map(|e| (e.key, Arc::clone(&e.plan)))
                .collect();
            let c = store
                .compact(&live)
                .map_err(|e| fail_io(format_args!("store: compact {dir}"), e))?;
            println!(
                "compacted {dir}: {} -> {} bytes, {} frame(s) kept, {} segment(s) removed",
                c.bytes_before, c.bytes_after, c.frames, c.segments_removed
            );
        }
        other => args
            .cmd
            .usage_error(&format!("unknown store action {other}")),
    }
    Ok(ExitCode::SUCCESS)
}
