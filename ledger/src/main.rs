//! `ledger` — one command that seeds its inputs, checks every output,
//! and prints every metric by name and unit.
//!
//! ```text
//! ledger --seed N[,N…] [--workload NAME] [--seconds S] [--trace 0|1]
//!        [--quick] [--out FILE] [--trace-out FILE]
//!        [--threads N] [--connections N]
//! ledger --compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! With one `--seed`, a `--workload` and a `--trace` it runs that one
//! pass and ends with the one-line JSON result `BENCHMARK.json`
//! describes.  Asked for more — every workload, untraced then traced, for
//! every seed — it runs each pass as a child process of that form and
//! gathers the results.

use alp_ledger::host::{self, Host};
use alp_ledger::json::{self, Value};
use alp_ledger::pass::{Ctx, Pass};
use alp_ledger::report::Record;
use alp_ledger::spec::WORKLOADS;
use alp_ledger::{compare, compile_cold, exec, serve_zipf, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage: ledger --seed N[,N...] [--workload NAME] [--seconds S] [--trace 0|1] \
[--quick] [--out FILE] [--trace-out FILE] [--threads N] [--connections N]\n       \
ledger --compare A.json B.json [--spec BENCHMARK.json]";

#[derive(Debug)]
struct Args {
    seeds: Vec<u64>,
    workload: Option<&'static str>,
    seconds: Option<u64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    threads: Option<usize>,
    connections: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    spec: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seeds: Vec::new(),
        workload: None,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        trace_out: None,
        threads: None,
        connections: None,
        compare: None,
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: `{s}` is not a number"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seeds = value()?
                    .split(',')
                    .map(|s| number(&s.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == name)
                        .ok_or(format!("unknown workload `{name}`; one of {WORKLOADS:?}"))?,
                );
            }
            "--seconds" => args.seconds = Some(number(value()?)?.clamp(1, 60)),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--threads" => args.threads = Some(number(value()?)? as usize),
            "--connections" => args.connections = Some(number(value()?)? as usize),
            "--spec" => args.spec = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.compare.is_none() && args.seeds.is_empty() {
        return Err("--seed is required".into());
    }
    Ok(args)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(ctx: &Ctx, workload: &str) -> Result<Pass, String> {
    match workload {
        "compile-cold" => compile_cold::run(ctx),
        "serve-zipf" => serve_zipf::run(ctx),
        _ => exec::run(ctx, workload),
    }
}

/// Where reports go, relative to the working directory: a Unix socket
/// path must stay under 108 bytes, however deep the checkout lives.
const REPORT_DIR: &str = "target/ledger";

/// One pass: workload, seed, traced.
type PassKey = (&'static str, u64, bool);

fn passes(args: &Args) -> Vec<PassKey> {
    let workloads: Vec<&'static str> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut out = Vec::new();
    for &seed in &args.seeds {
        for &workload in &workloads {
            out.extend(modes.iter().map(|&traced| (workload, seed, traced)));
        }
    }
    out
}

fn seconds(args: &Args) -> u64 {
    args.seconds.unwrap_or(if args.quick { 1 } else { 20 })
}

/// The report directory and a scratch directory of this process's own
/// inside it, created.
fn directories() -> Result<(PathBuf, PathBuf), String> {
    let dir = PathBuf::from(REPORT_DIR);
    let scratch = dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok((dir, scratch))
}

fn write_report(path: &Path, doc: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one pass in this process and end with the line the driver reads.
fn run_one(args: &Args, (workload, seed, traced): PassKey) -> Result<bool, String> {
    let host = Host::probe(args.threads, args.connections);
    println!("{}", host.line());
    let (dir, scratch) = directories()?;
    let ctx = Ctx {
        seed,
        window: Duration::from_secs(seconds(args)),
        traced,
        quick: args.quick,
        host: &host,
        scratch: &scratch,
    };
    let pass = run_workload(&ctx, workload).map_err(|e| format!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut pass = pass?;

    if traced {
        pass.metrics
            .set("host.parallel_speedup_2t", host.parallel_speedup_2t, 3);
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| dir.join(format!("trace.{workload}.seed{seed}.json")));
        trace::write_file(&path, workload, seed, &pass.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        pass.rows.push(format!(
            "{} spans written to {}",
            pass.spans.len(),
            path.display()
        ));
        pass.spans = Vec::new();
        for name in [
            "compile.residual_rel",
            "exec.residual_rel",
            "serve.residual_rel",
        ] {
            if pass.metrics.get(name).is_some_and(|m| m.value > 0.10) {
                pass.rows.push(format!("{name} > 0.10: layer missing"));
            }
        }
    } else {
        let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        pass.metrics.set("peak_rss_mb", rss, 1);
    }
    let record = Record {
        workload,
        seed,
        traced,
        seconds: seconds(args) as f64,
        pass,
    };
    print!("{}", record.human());
    let out = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    let doc = format!(
        "{{\"ledger\": 1, \"quick\": {}, \"host\": {}, \"passes\": [{}]}}\n",
        args.quick,
        host.json(),
        record.json()
    );
    write_report(&out, &doc)?;
    println!("result written to {}", out.display());
    println!("{}", record.contract_line());
    Ok(record.correct())
}

/// Run several passes, each in a process of its own — the form the driver
/// uses — so no pass inherits another's heap or peak memory.  Children
/// print their own reports; this process gathers their result files into
/// one.
fn run_each(args: &Args, keys: &[PassKey]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let (dir, scratch) = directories()?;
    let mut gathered: Vec<Value> = Vec::new();
    let mut all_correct = true;
    let result = (|| {
        for (k, &(workload, seed, traced)) in keys.iter().enumerate() {
            let pass_out = scratch.join(format!("pass-{k}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--seconds", &seconds(args).to_string()])
                .arg("--out")
                .arg(&pass_out);
            if args.quick {
                child.arg("--quick");
            }
            if let Some(n) = args.threads {
                child.args(["--threads", &n.to_string()]);
            }
            if let Some(n) = args.connections {
                child.args(["--connections", &n.to_string()]);
            }
            if let Some(p) = &args.trace_out {
                // One file per traced pass, named after the one asked for.
                let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                child
                    .arg("--trace-out")
                    .arg(p.with_file_name(format!("{stem}.{workload}.seed{seed}.json")));
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{workload} seed {seed} traced={traced}: {status}")),
            }
            gathered.push(json::parse(&read(&pass_out)?)?);
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    let host = gathered.first().and_then(|d| d.get("host")).cloned();
    let passes: Vec<Value> = gathered
        .iter()
        .filter_map(|d| d.get("passes")?.as_arr()?.first().cloned())
        .collect();
    let doc = Value::Obj(
        [
            ("ledger".to_string(), Value::Num(1.0)),
            ("quick".to_string(), Value::Bool(args.quick)),
            ("host".to_string(), host.unwrap_or(Value::Null)),
            ("passes".to_string(), Value::Arr(passes)),
        ]
        .into(),
    );
    let out = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    write_report(&out, &(json::write(&doc) + "\n"))?;
    println!("{} passes gathered into {}", keys.len(), out.display());
    Ok(all_correct)
}

fn run(args: &Args) -> Result<bool, String> {
    match passes(args).as_slice() {
        [one] => run_one(args, *one),
        many => run_each(args, many),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.compare {
        Some((a, b)) => (|| {
            let (table, worse) = compare::compare(&read(&args.spec)?, &read(a)?, &read(b)?)?;
            print!("{table}");
            Ok(!worse)
        })(),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(3)
        }
    }
}
