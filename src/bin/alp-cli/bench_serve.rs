//! `alp-cli bench-serve`: drive the Zipf-mix load generator against an
//! in-process server and write the `BENCH_serve.json` report.  The
//! server journals to `--store` (default: a temp dir) so the report's
//! `recovery` block can measure warm-restart behavior; Ctrl-C stops
//! traffic cooperatively and the final drained counters still print.

use crate::args::{self, switch, value, Args, Command, Positional};
use crate::front;
use crate::report::fail_io;
use crate::serve::drain_signals;
use alp::serve::{LoadGenConfig, LoadGenReport, Request, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const COMMAND: Command = Command {
    name: "bench-serve",
    flags: &[
        switch(&["--smoke"], "a bounded CI-sized burst (seconds)"),
        value(&["--json"], "FILE|-", "where to write the report"),
        value(&["--clients"], "N", "concurrent client connections"),
        value(&["--window"], "N", "in-flight requests per client"),
        value(&["--requests"], "N", "total requests"),
        value(&["--corpus"], "N", "distinct nests in the corpus"),
        value(&["--hot"], "N", "corpus prefix prewarmed into the cache"),
        value(&["--run-percent"], "N", "percent of requests that are runs"),
        args::SEED,
        args::PROCESSORS,
        args::SHARDS,
        args::CAPACITY,
        args::QUEUE,
        args::WORKERS,
        args::STORE,
    ],
    positional: Positional::None,
    synopsis: "[OPTIONS]",
    run,
};

/// What the post-crash warm-start probe measured: the benchmark's
/// journal is reopened by a fresh server and the hot set is replayed —
/// `warm_hits` of `hot_set` come back as cache hits without a compile.
struct RecoveryProbe {
    replayed: usize,
    hot_set: usize,
    warm_hits: usize,
}

/// Render the load-generator report as the `BENCH_serve.json` schema.
fn bench_serve_json(
    cfg: &LoadGenConfig,
    serve: &ServeConfig,
    r: &LoadGenReport,
    recovery: Option<&RecoveryProbe>,
) -> String {
    let recovery = match recovery {
        Some(p) => format!(
            "{{\"replayed\": {}, \"hot_set\": {}, \"warm_hits\": {}, \"warm_rate\": {:.4}}}",
            p.replayed,
            p.hot_set,
            p.warm_hits,
            if p.hot_set == 0 {
                0.0
            } else {
                p.warm_hits as f64 / p.hot_set as f64
            }
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"bench\": \"serve\",\n  \"config\": {{\n    \"clients\": {}, \"window\": {}, \
         \"requests\": {}, \"corpus\": {}, \"hot\": {},\n    \"run_percent\": {}, \
         \"processors\": {}, \"seed\": {},\n    \"shards\": {}, \"cache_capacity\": {}, \
         \"queue_cap\": {}, \"workers\": {}\n  }},\n  \"cores\": {},\n  \"oversubscribed\": {},\n  \
         \"interrupted\": {},\n  \
         \"max_concurrent\": {},\n  \"elapsed_ms\": {},\n  \"latency_us\": {{\"p50\": {}, \
         \"p99\": {}, \"max\": {}}},\n  \"plans_per_sec\": {},\n  \"requests\": {{\"sent\": {}, \
         \"ok\": {}, \"errors\": {}, \"shed\": {}}},\n  \"cache\": {{\"hit\": {}, \
         \"coalesced\": {}, \"computed\": {}}},\n  \"recovery\": {},\n  \"server\": {}\n}}\n",
        cfg.clients,
        cfg.window,
        cfg.requests,
        cfg.corpus,
        cfg.hot,
        cfg.run_percent,
        cfg.processors,
        cfg.seed,
        serve.shards,
        serve.cache_capacity,
        serve.queue_cap,
        serve.workers,
        r.cores,
        r.oversubscribed,
        r.interrupted,
        r.max_concurrent,
        r.elapsed_ms,
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.plans_per_sec,
        r.sent,
        r.ok,
        r.errors,
        r.shed,
        r.hits,
        r.coalesced,
        r.computed,
        recovery,
        r.server.encode()
    )
}

/// Reopen the benchmark's plan-store journal with a fresh server (the
/// "post-crash restart") and replay the hot corpus prefix against it,
/// counting how many come back as warm cache hits.
fn recovery_probe(
    load: &LoadGenConfig,
    serve: &ServeConfig,
    store_dir: &Path,
) -> std::io::Result<RecoveryProbe> {
    let (server, report) = Server::try_new(ServeConfig {
        store_dir: Some(store_dir.to_path_buf()),
        prewarm: Vec::new(),
        ..serve.clone()
    })?;
    let hot_set = load.hot.min(load.corpus);
    let mut warm_hits = 0usize;
    for rank in 0..hot_set {
        let mut req = Request::plan(rank as i128, &alp::serve::loadgen::corpus_source(rank));
        req.plan.processors = load.processors;
        let resp = server.handle_now(&req);
        if resp.ok && resp.cache.as_deref() == Some("hit") {
            warm_hits += 1;
        }
    }
    Ok(RecoveryProbe {
        replayed: report.map_or(0, |r| r.live.len()),
        hot_set,
        warm_hits,
    })
}

fn run(args: &Args) -> Result<ExitCode, ExitCode> {
    let (load, serve) = (LoadGenConfig::default(), ServeConfig::default());
    let mut load = LoadGenConfig {
        clients: args.get_or("--clients", load.clients),
        window: args.get_or("--window", load.window),
        requests: args.get_or("--requests", load.requests),
        corpus: args.get_or("--corpus", load.corpus),
        hot: args.get_or("--hot", load.hot),
        run_percent: args.get_or("--run-percent", load.run_percent),
        seed: args.get_or("--seed", load.seed),
        processors: args.get_or("--processors", load.processors),
        stop: None,
    };
    if args.has("--smoke") {
        load.clients = load.clients.min(8);
        load.window = load.window.min(16);
        load.requests = load.requests.min(400);
        load.corpus = load.corpus.min(48);
    }
    let pid = std::process::id();
    // Without --store the journal is ours to create and to remove.
    let ephemeral_store = !args.has("--store");
    let store_dir: PathBuf = args.get_or(
        "--store",
        std::env::temp_dir().join(format!("alp-bench-store-{pid}")),
    );
    if ephemeral_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    let serve = ServeConfig {
        shards: args.get_or("--shards", serve.shards),
        cache_capacity: args.get_or("--capacity", serve.cache_capacity),
        queue_cap: args.get_or("--queue", serve.queue_cap),
        workers: args.get_or("--workers", serve.workers),
        store_dir: Some(store_dir.clone()),
        ..serve
    };
    let json: Option<String> = args.get("--json");

    // First SIGINT/SIGTERM: stop sending, drain in-flight traffic, and
    // report what completed.  Second: give up immediately.
    load.stop = Some(drain_signals("bench-serve"));

    let sock = std::env::temp_dir().join(format!("alp-bench-serve-{pid}.sock"));
    let report = alp::serve::run_loadgen(&load, serve.clone(), &sock)
        .map_err(|e| fail_io("bench-serve", e))?;
    if report.interrupted {
        eprintln!(
            "bench-serve: interrupted — traffic stopped early, counters below cover \
             everything sent and drained"
        );
    }
    eprintln!(
        "bench-serve: {} requests in {} ms ({} ok/s), p50 {} us, p99 {} us, \
         {} hit / {} coalesced / {} computed / {} shed, cores {}{}",
        report.sent,
        report.elapsed_ms,
        report.plans_per_sec,
        report.p50_us,
        report.p99_us,
        report.hits,
        report.coalesced,
        report.computed,
        report.shed,
        report.cores,
        if report.oversubscribed {
            " (oversubscribed)"
        } else {
            ""
        }
    );
    if report.interrupted {
        eprintln!(
            "bench-serve: final drained server counters: {}",
            report.server.encode()
        );
    }

    // Warm-restart probe: reopen the journal like a post-crash restart
    // and replay the hot set against the fresh server.
    let recovery = match recovery_probe(&load, &serve, &store_dir) {
        Ok(p) => {
            eprintln!(
                "bench-serve: recovery: {} plan(s) replayed from the journal, hot-set warm \
                 hits {}/{}",
                p.replayed, p.warm_hits, p.hot_set
            );
            Some(p)
        }
        Err(e) => {
            eprintln!("alp-cli: bench-serve: warning: recovery probe failed: {e}");
            None
        }
    };
    if ephemeral_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    if let Some(path) = json {
        let text = bench_serve_json(&load, &serve, &report, recovery.as_ref());
        front::emit(&path, &text, "")?;
    }
    Ok(ExitCode::SUCCESS)
}
