//! `alp-cli serve`: the plan service.  Daemon mode binds the socket and
//! runs until a protocol `shutdown` or a termination signal starts the
//! graceful drain: stop admitting work (`ALP0015`), finish what is
//! queued within `--drain-deadline-ms`, flush the `--store` journal,
//! exit 0; a second signal aborts the drain and exits 12.  `--connect`
//! sends one request through the resilient retrying client.

use crate::args::{self, switch, value, Args, Command, Positional};
use crate::front::{self, plural};
use crate::report::{fail_client, fail_io, fail_response, EXIT_DRAINING};
use alp::serve::client::RetryPolicy;
use alp::serve::{Client, ClientConfig, Request, RequestOp, Response, ServeConfig, Server};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub const COMMAND: Command = Command {
    name: "serve",
    flags: &[
        value(&["--socket"], "PATH", "Unix socket to bind or connect to"),
        switch(&["--connect"], "client: send one request to a daemon"),
        value(&["--op"], "OP", "client: plan|run|stats|ping|shutdown"),
        args::PROCESSORS,
        args::NO_CHECK,
        switch(&["--want-plan"], "client: print the plan artifact"),
        args::CERTIFY,
        args::THREADS,
        args::SEED,
        args::TIMEOUT_MS,
        args::MAX_STORE_BYTES,
        value(&["--retries"], "N", "client: transient-failure retries"),
        value(&["--deadline-ms"], "N", "client: cap on the whole call"),
        args::SHARDS,
        args::CAPACITY,
        args::QUEUE,
        value(&["--run-high-water"], "N", "queue depth that sheds runs"),
        args::WORKERS,
        args::STORE,
        value(&["--drain-deadline-ms"], "N", "bound on the graceful drain"),
    ],
    positional: Positional::Optional,
    synopsis: "--socket PATH [OPTIONS] [FILE|-]",
    run,
};

// The daemon and the benchmark want graceful-drain semantics for
// SIGTERM/SIGINT without a libc crate: the handler (async-signal-safe —
// it only touches an atomic) counts deliveries, and a watcher thread
// polls.  First signal: begin the drain.  Second: abort it (exit 12).

static SIGNALS: AtomicUsize = AtomicUsize::new(0);

extern "C" fn note_signal(_sig: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Install the handlers and start the watcher.  The returned flag is
/// set by the first signal; the second exits the process with 12, from
/// the watcher's own thread so that it cuts a blocking drain short.
fn drain_signals() -> Arc<AtomicBool> {
    // SAFETY: `signal` is the C library's; `note_signal` has the handler
    // ABI and is async-signal-safe (one atomic add, no allocation, no
    // locks), and the handlers are installed before any thread that
    // could race with them is started.
    unsafe {
        signal(SIGINT, note_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, note_signal as extern "C" fn(i32) as usize);
    }
    let first = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&first);
    std::thread::spawn(move || loop {
        let seen = SIGNALS.load(Ordering::SeqCst);
        if seen >= 2 {
            eprintln!("alp-cli: serve: second signal — aborting drain (exit 12)");
            std::process::exit(EXIT_DRAINING as i32);
        }
        if seen == 1 {
            flag.store(true, Ordering::SeqCst);
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    first
}

/// One request through the resilient client — per-attempt timeouts,
/// jittered backoff, retry budget gated on idempotence.  A refusal, by
/// the transport or by the server, is reported and mapped onto the
/// exit-code table here.
pub fn call_server(
    who: &str,
    sock: &str,
    req: &Request,
    policy: RetryPolicy,
    cfg: ClientConfig,
) -> Result<Response, ExitCode> {
    let resp = Client::new(Path::new(sock), cfg)
        .call(req, policy)
        .map_err(|e| fail_client(who, sock, &e))?;
    if resp.ok {
        Ok(resp)
    } else {
        Err(fail_response(&resp))
    }
}

fn daemon(sock: &str, cfg: ServeConfig) -> Result<ExitCode, ExitCode> {
    let stop = drain_signals();
    let drain_deadline_ms = cfg.drain_deadline_ms;
    let store = cfg.store_dir.clone();
    let (server, recovery) = Server::try_new(cfg).map_err(|e| {
        let store = store.as_deref().unwrap_or(Path::new("store")).display();
        fail_io(format_args!("serve: {store}"), e)
    })?;
    if let Some(report) = &recovery {
        // Quarantined frames are never fatal: warn and keep going.
        for q in &report.quarantined {
            eprintln!(
                "alp-cli: serve: warning[ALP0014]: segment {:06} offset {}: {} \
                 ({} bytes quarantined)",
                q.segment, q.offset, q.reason, q.bytes
            );
        }
        eprintln!(
            "alp-cli: serve: store replayed {} plan{} from {} frame{} in {} segment{}",
            report.live.len(),
            plural(report.live.len()),
            report.frames,
            plural(report.frames),
            report.segments,
            plural(report.segments)
        );
    }
    let handle = server
        .serve(Path::new(sock))
        .map_err(|e| fail_io(format_args!("serve: {sock}"), e))?;
    eprintln!("alp-cli: serving on {sock}");
    while !stop.load(Ordering::SeqCst) && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(25));
    }
    if stop.load(Ordering::SeqCst) {
        eprintln!("alp-cli: serve: signal received — draining (deadline {drain_deadline_ms} ms)");
    }
    let out = handle.finish(Duration::from_millis(drain_deadline_ms));
    let stats = out.stats;
    eprintln!(
        "alp-cli: serve: {} after {} hits, {} compiles, {} coalesced, {} shed, \
         {} refused{}{}",
        if out.drained {
            "drained cleanly".to_string()
        } else {
            format!(
                "drain deadline hit ({} job(s) answered ALP0015)",
                out.abandoned
            )
        },
        stats.hits,
        stats.misses.saturating_sub(stats.journal_reads),
        stats.coalesced,
        stats.shed(),
        stats.refused,
        if stats.replayed > 0 {
            format!(", {} replayed", stats.replayed)
        } else {
            String::new()
        },
        if stats.journal_reads > 0 {
            format!(", {} read back", stats.journal_reads)
        } else {
            String::new()
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn print_response(resp: &Response) {
    if let Some(stats) = &resp.stats {
        println!("{}", stats.encode());
        for (i, s) in resp.shards.iter().flatten().enumerate() {
            let lookups = s.hits + s.misses + s.coalesced;
            println!(
                "shard {i:>3}: {}/{} plans, {} hits / {} misses / {} coalesced \
                 (hit rate {:.3})",
                s.len,
                s.capacity,
                s.hits,
                s.misses,
                s.coalesced,
                if lookups == 0 {
                    0.0
                } else {
                    s.hits as f64 / lookups as f64
                }
            );
        }
    } else if let Some(plan) = &resp.plan {
        println!("{plan}");
    } else if let Some(fp) = &resp.fingerprint {
        let extra = match resp.matches_reference {
            Some(m) => format!(", matches_reference: {m}"),
            None => String::new(),
        };
        println!(
            "fingerprint {fp}, tiles {}, cache {}{extra}",
            resp.tiles.unwrap_or(0),
            resp.cache.as_deref().unwrap_or("?")
        );
    } else {
        println!("ok");
    }
}

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let defaults = ServeConfig::default();
    let sock: String = args
        .get("--socket")
        .unwrap_or_else(|| args.cmd.usage_error("--socket is required"));
    let cfg = ServeConfig {
        shards: args.get_or("--shards", defaults.shards),
        cache_capacity: args.get_or("--capacity", defaults.cache_capacity),
        queue_cap: args.get_or("--queue", defaults.queue_cap),
        run_high_water: args.get("--run-high-water"),
        workers: args.get_or("--workers", defaults.workers),
        prewarm: Vec::new(),
        store_dir: args.get("--store"),
        drain_deadline_ms: args.get_or("--drain-deadline-ms", defaults.drain_deadline_ms),
    };
    let mut req = Request::plan(1, "");
    let op = args.get_or("--op", "plan".to_string());
    req.op = RequestOp::parse(&op)
        .unwrap_or_else(|| args.cmd.usage_error(&format!("unknown --op {op}")));
    req.plan.processors = args.get_or("--processors", 16);
    req.plan.check = !args.has("--no-check");
    req.plan.certify = args.has("--certify");
    req.want_plan = args.has("--want-plan");
    req.run.threads = args.get_or("--threads", 0);
    req.run.seed = args.get_or("--seed", 42);
    req.run.timeout_ms = args.get("--timeout-ms");
    req.run.max_store_bytes = args.get("--max-store-bytes");
    let client = ClientConfig {
        max_attempts: args
            .get::<u32>("--retries")
            .map_or(ClientConfig::default().max_attempts, |r| r + 1),
        deadline_ms: args.get("--deadline-ms"),
        ..ClientConfig::default()
    };
    if !args.has("--connect") {
        return daemon(&sock, cfg);
    }

    if matches!(req.op, RequestOp::Plan | RequestOp::Run) {
        let input = args
            .positional(0)
            .unwrap_or_else(|| args.cmd.usage_error("this --op needs a <FILE|->"));
        req.plan.source = front::read_source(input)?;
    } else {
        req = Request::control(1, req.op);
    }
    // A certified run is provably idempotent, so its retry budget
    // survives ambiguous transport failures; an uncertified run stops
    // at the first failure that may have executed.
    let policy = if req.plan.certify && req.op == RequestOp::Run {
        RetryPolicy::Certified
    } else {
        Client::default_policy(&req)
    };
    print_response(&call_server("serve", &sock, &req, policy, client)?);
    Ok(ExitCode::SUCCESS)
}
