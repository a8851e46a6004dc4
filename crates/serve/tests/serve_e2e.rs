//! End-to-end tests of the plan service over its real Unix socket:
//! protocol round trips, coalescing under concurrency, admission
//! control and class-based shedding, inline serving of cached plans
//! under total overload, and graceful shutdown.

use alp_serve::pipeline::PlanSpec;
use alp_serve::server::MAX_REQUEST_BYTES;
use alp_serve::{Request, RequestOp, Response, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SRC: &str = "doall (i, 0, 63) { A[i] = A[i] + B[i]; }";

fn sock_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "alp-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

/// A tiny synchronous protocol client.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(path: &std::path::Path) -> Client {
        let stream = UnixStream::connect(path).expect("connect");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, req: &Request) {
        let mut line = req.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        Response::decode(&line).expect("decode")
    }

    fn round_trip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }
}

#[test]
fn plan_run_stats_ping_over_the_socket() {
    let path = sock_path("basic");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);

    let pong = c.round_trip(&Request::control(1, RequestOp::Ping));
    assert!(pong.ok && pong.id == 1);

    let mut plan_req = Request::plan(2, SRC);
    plan_req.want_plan = true;
    let planned = c.round_trip(&plan_req);
    assert!(planned.ok, "plan failed: {:?}", planned.error);
    assert_eq!(planned.cache.as_deref(), Some("computed"));
    assert_eq!(planned.tiles, Some(16));
    let plan_json = planned.plan.expect("want_plan returns the artifact");
    let decoded = alp_plan::PartitionPlan::from_json_str(&plan_json).expect("valid plan JSON");
    assert_eq!(Some(decoded.fingerprint), planned.fingerprint);

    // Same nest again: inline cache hit.
    let again = c.round_trip(&Request::plan(3, SRC));
    assert!(again.ok);
    assert_eq!(again.cache.as_deref(), Some("hit"));

    let mut run_req = Request::run(4, SRC);
    run_req.run.threads = 2;
    let ran = c.round_trip(&run_req);
    assert!(ran.ok, "run failed: {:?}", ran.error);
    assert_eq!(ran.matches_reference, Some(true));
    assert_eq!(ran.iterations, Some(64));
    assert_eq!(ran.cache.as_deref(), Some("hit"), "run reused the plan");

    let stats = c.round_trip(&Request::control(5, RequestOp::Stats));
    let s = stats.stats.expect("stats payload");
    assert_eq!(s.misses, 1, "one compile total");
    assert!(s.hits >= 2);
    assert_eq!(s.runs_ok, 1);
    assert_eq!(s.inline_hits, 1, "plan #3 was served on the reader thread");

    assert!(c.round_trip(&Request::control(6, RequestOp::Shutdown)).ok);
    handle.wait();
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn errors_map_to_stable_codes() {
    let path = sock_path("errors");
    // One worker: every request below is served by the same thread, so
    // each refusal also shows that worker is still serving afterwards.
    let handle = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .serve(&path)
    .unwrap();
    let mut c = Client::connect(&path);

    let bad = c.round_trip(&Request::plan(1, "doall (i, 0"));
    assert!(!bad.ok);
    assert_eq!(bad.code.as_deref(), Some("ALP0001"), "parse error");

    let racy = c.round_trip(&Request::plan(2, "doall (i, 0, 31) { A[0] = A[i]; }"));
    assert!(!racy.ok);
    assert_eq!(racy.code.as_deref(), Some("ALP0003"), "illegal doall");

    // The same racy nest compiles with no_check.
    let mut unchecked = Request::plan(3, "doall (i, 0, 31) { A[0] = A[i]; }");
    unchecked.plan.check = false;
    let ok = c.round_trip(&unchecked);
    assert!(ok.ok, "unchecked plan: {:?}", ok.error);

    // Memory budget: ALP0009 through the server path.
    let mut tiny = Request::run(4, SRC);
    tiny.run.max_store_bytes = Some(16);
    let refused = c.round_trip(&tiny);
    assert!(!refused.ok);
    assert_eq!(refused.code.as_deref(), Some("ALP0009"));

    // More processors than a 1-D nest has iterations: infeasible, not a
    // worker panic (`ALP0008`) — counted once per request, and the
    // key's cache slot stays usable (the repeat is refused the same way
    // and a feasible count on the same nest still plans).
    let failures = |c: &mut Client, id| {
        let stats = c.round_trip(&Request::control(id, RequestOp::Stats));
        stats.stats.expect("stats payload").failures
    };
    let before = failures(&mut c, 5);
    let mut crowded = Request::plan(6, "doall (i, 0, 2) { A[i] = B[i]; }");
    crowded.plan.processors = 4;
    for id in [6, 7] {
        crowded.id = id;
        let infeasible = c.round_trip(&crowded);
        assert!(!infeasible.ok);
        assert_eq!(infeasible.code.as_deref(), Some("ALP0004"));
        let msg = infeasible.error.expect("diagnostic");
        assert!(
            msg.starts_with("infeasible: no feasible factorization"),
            "{msg}"
        );
    }
    assert_eq!(failures(&mut c, 8), before + 2);
    crowded.plan.processors = 3;
    crowded.id = 9;
    let fits = c.round_trip(&crowded);
    assert!(fits.ok, "3 processors fit 3 iterations: {:?}", fits.error);
    assert_eq!(fits.tiles, Some(3));

    // Arrays of 2^64 elements: a lowering failure (`ALP0005`) before
    // anything is allocated — not a two-element store that passes the
    // budget and a worker wedged in the reference interpreter.  The
    // plan itself is fine and stays cached; the worker moves on.
    let before = failures(&mut c, 10);
    let oversized = "doall (i, 0, 4294967295) { doall (j, 0, 4294967295) { A[i,j] = B[i,j]; } }";
    let mut wedge = Request::run(11, oversized);
    wedge.plan.processors = 4;
    wedge.run.timeout_ms = Some(2000);
    wedge.run.max_store_bytes = Some(1_000_000);
    for id in [11, 12] {
        wedge.id = id;
        let refused = c.round_trip(&wedge);
        assert!(!refused.ok);
        assert_eq!(
            refused.code.as_deref(),
            Some("ALP0005"),
            "{:?}",
            refused.error
        );
    }
    assert_eq!(failures(&mut c, 13), before + 2);
    let mut planned = Request::plan(14, oversized);
    planned.plan.processors = 4;
    let planned = c.round_trip(&planned);
    assert!(
        planned.ok,
        "the oversized nest still plans: {:?}",
        planned.error
    );
    assert_eq!(planned.cache.as_deref(), Some("hit"));
    let ran = c.round_trip(&Request::run(15, SRC));
    assert_eq!(ran.matches_reference, Some(true), "{:?}", ran.error);

    handle.shutdown();
}

impl Client {
    /// Send a raw line (protocol-violation testing).
    fn round_trip_raw(&mut self, line: &str) -> Response {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.recv()
    }
}

#[test]
fn malformed_frames_are_answered_not_fatal() {
    let path = sock_path("frames");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);
    let r = c.round_trip_raw("this is not json");
    assert!(!r.ok);
    assert_eq!(r.code.as_deref(), Some("ALP0006"));
    let r = c.round_trip_raw("{\"alp-serve\": 1, \"op\": \"nonsense\"}");
    assert!(!r.ok);
    // The connection survives protocol violations.
    assert!(c.round_trip(&Request::control(9, RequestOp::Ping)).ok);
    handle.shutdown();
}

#[test]
fn a_frame_with_no_newline_is_answered_at_the_size_limit() {
    let path = sock_path("endless");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);
    // A reader that waits for the newline buffers this frame for ever
    // and never answers: the timeout turns that hang into a failure.
    let timeout = Some(Duration::from_secs(10));
    c.reader.get_ref().set_read_timeout(timeout).unwrap();
    c.writer
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send");
    let r = c.recv();
    assert_eq!(r.code.as_deref(), Some("ALP0006"), "{r:?}");
    let stats = Client::connect(&path).round_trip(&Request::control(1, RequestOp::Stats));
    assert_eq!(stats.stats.expect("stats payload").malformed, 1);
    // The rest of the frame is read past, not stored; after its newline
    // the same connection serves again.
    c.writer.write_all(b"still the same frame\n").expect("send");
    assert!(c.round_trip(&Request::control(2, RequestOp::Ping)).ok);
    assert_eq!(handle.shutdown().malformed, 1, "one frame, counted once");
}

#[test]
fn a_frame_that_is_not_utf8_is_malformed_not_fatal() {
    let path = sock_path("utf8");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);
    c.writer.write_all(b"\xff\xfe\n").expect("send");
    let r = c.recv();
    assert_eq!(r.code.as_deref(), Some("ALP0006"), "{r:?}");
    assert!(c.round_trip(&Request::control(1, RequestOp::Ping)).ok);
    assert_eq!(handle.shutdown().malformed, 1);
}

#[test]
fn a_frame_with_a_mistyped_field_is_refused_not_defaulted() {
    let path = sock_path("mistyped");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);
    // A string where the processor count goes: this used to be planned
    // for the default 16 tiles and answered `ok: true`.
    let frame =
        format!("{{\"alp-serve\": 1, \"id\": 5, \"op\": \"plan\", \"source\": \"{SRC}\", \"processors\": \"64\"}}\n");
    c.writer.write_all(frame.as_bytes()).expect("send");
    let r = c.recv();
    assert_eq!(r.code.as_deref(), Some("ALP0006"), "{r:?}");
    assert!(
        r.error.as_deref().unwrap_or("").contains("`processors`"),
        "{r:?}"
    );
    // The connection serves the next request, and nothing was planned.
    let stats = c.round_trip(&Request::control(6, RequestOp::Stats));
    let stats = stats.stats.expect("stats payload");
    assert_eq!((stats.malformed, stats.misses, stats.hits), (1, 0, 0));
    assert_eq!(handle.shutdown().malformed, 1);
}

#[test]
fn a_frame_at_the_size_limit_is_answered_promptly() {
    let path = sock_path("limit");
    let handle = Server::new(ServeConfig::default()).serve(&path).unwrap();
    let mut c = Client::connect(&path);
    // The largest legal frame, nearly all of it one string: a decoder
    // that is quadratic in a string's length holds this connection's
    // reader for twenty seconds.  The timeout turns that into a failure.
    let head = "{\"alp-serve\": 1, \"id\": 9, \"op\": \"plan\", \"source\": \"";
    let mut frame = String::from(head);
    frame.push_str(&"x".repeat(MAX_REQUEST_BYTES - head.len() - 2));
    frame.push_str("\"}");
    assert_eq!(frame.len(), MAX_REQUEST_BYTES);
    frame.push('\n');
    let timeout = Some(Duration::from_secs(2));
    c.reader.get_ref().set_read_timeout(timeout).unwrap();
    c.writer.write_all(frame.as_bytes()).expect("send");
    let r = c.recv();
    // Well-formed and within the limit, so it is decoded and its source
    // parsed: one identifier is not a loop nest.
    assert_eq!((r.id, r.code.as_deref()), (9, Some("ALP0001")), "{r:?}");
    assert!(c.round_trip(&Request::control(10, RequestOp::Ping)).ok);
    let stats = handle.shutdown();
    assert_eq!((stats.malformed, stats.failures), (0, 1));
}

#[test]
fn concurrent_same_key_requests_coalesce_to_one_compile() {
    const CLIENTS: usize = 12;
    let path = sock_path("coalesce");
    let handle = Server::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .serve(&path)
    .unwrap();

    // A nest heavy enough that its compile window is wide.
    let src = "doall (i, 1, 40) { doall (j, 1, 40) { doall (k, 1, 40) {
        A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }";
    let joins: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let path = path.clone();
            let src = src.to_string();
            std::thread::spawn(move || {
                Client::connect(&path).round_trip(&Request::plan(i as i128, &src))
            })
        })
        .collect();
    let mut computed = 0;
    for j in joins {
        let resp = j.join().expect("client thread");
        assert!(resp.ok, "plan failed: {:?}", resp.error);
        if resp.cache.as_deref() == Some("computed") {
            computed += 1;
        }
    }
    assert_eq!(computed, 1, "exactly one compile leader");
    let stats = handle.shutdown();
    assert_eq!(stats.misses, 1, "server-side: one compile for the key");
    assert_eq!(
        stats.hits + stats.coalesced + stats.misses,
        CLIENTS as u64,
        "every request accounted for"
    );
}

#[test]
fn overload_sheds_runs_before_plans_and_serves_cached_inline() {
    let path = sock_path("overload");
    // queue_cap 0: every queue-bound request sheds.  The prewarmed
    // plan must still be served inline.
    let handle = Server::new(ServeConfig {
        queue_cap: 0,
        workers: 1,
        prewarm: vec![PlanSpec {
            source: SRC.to_string(),
            processors: 16,
            check: true,
            certify: false,
        }],
        ..ServeConfig::default()
    })
    .serve(&path)
    .unwrap();
    let mut c = Client::connect(&path);

    // Tier 1: cached plan answers even though the queue admits nothing.
    let cached = c.round_trip(&Request::plan(1, SRC));
    assert!(cached.ok, "cached plan served under total overload");
    assert_eq!(cached.cache.as_deref(), Some("hit"));

    // An uncached plan and any run shed with ALP0012.
    let cold = c.round_trip(&Request::plan(2, "doall (i, 0, 7) { C[i] = C[i]; }"));
    assert!(!cold.ok);
    assert_eq!(cold.code.as_deref(), Some("ALP0012"));
    let run = c.round_trip(&Request::run(3, SRC));
    assert!(!run.ok);
    assert_eq!(run.code.as_deref(), Some("ALP0012"), "runs shed too");

    let stats = handle.shutdown();
    assert_eq!(stats.shed_plan, 1);
    assert_eq!(stats.shed_run, 1);
    assert_eq!(stats.inline_hits, 1);
    // The shed run's plan was cached, but it was never served: only the
    // inline plan counts as a hit.
    assert_eq!(stats.hits, 1);
}

#[test]
fn run_high_water_sheds_runs_only() {
    let path = sock_path("highwater");
    // run_high_water 0 with a roomy queue: runs always shed, plans
    // always admit.
    let handle = Server::new(ServeConfig {
        queue_cap: 64,
        run_high_water: Some(0),
        ..ServeConfig::default()
    })
    .serve(&path)
    .unwrap();
    let mut c = Client::connect(&path);
    let run = c.round_trip(&Request::run(1, SRC));
    assert_eq!(run.code.as_deref(), Some("ALP0012"));
    let plan = c.round_trip(&Request::plan(2, SRC));
    assert!(plan.ok, "plans still admitted: {:?}", plan.error);
    let stats = handle.shutdown();
    assert_eq!(stats.shed_run, 1);
    assert_eq!(stats.shed_plan, 0);
}

#[test]
fn pipelined_mixed_traffic_accounts_for_every_request() {
    const CONNECTIONS: u64 = 4;
    const WINDOW: u64 = 50;
    const NESTS: u64 = 24;
    let path = sock_path("pipelined");
    let handle = Server::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .serve(&path)
    .unwrap();

    // Each connection writes its whole window before reading anything
    // back.  Request k names nest k² mod 24, so a few nests are hot;
    // every tenth request is a run.
    let joins: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&path);
                for k in conn * WINDOW..(conn + 1) * WINDOW {
                    let nest = (k * k) % NESTS;
                    // Distinct trip counts are distinct fingerprints.
                    let source = format!(
                        "doall (i, 0, {}) {{ doall (j, 0, 15) {{ A[i,j] = B[i,j] + A[i,j]; }} }}",
                        15 + nest
                    );
                    let mut req = if k % 10 == 0 {
                        Request::run(k as i128, &source)
                    } else {
                        Request::plan(k as i128, &source)
                    };
                    req.run.threads = 1;
                    c.send(&req);
                }
                (0..WINDOW).map(|_| c.recv()).collect::<Vec<Response>>()
            })
        })
        .collect();
    let responses: Vec<Response> = joins
        .into_iter()
        .flat_map(|j| j.join().expect("client thread"))
        .collect();
    let stats = handle.shutdown();

    let sent = CONNECTIONS * WINDOW;
    fn count(responses: &[Response], pred: impl Fn(&Response) -> bool) -> u64 {
        responses.iter().filter(|r| pred(r)).count() as u64
    }
    let is_shed = |r: &Response| r.code.as_deref() == Some("ALP0012");
    let ok = count(&responses, |r| r.ok);
    let shed = count(&responses, |r| !r.ok && is_shed(r));
    let errors = count(&responses, |r| !r.ok && !is_shed(r));
    let mut ids: Vec<i128> = responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert!(
        ids.into_iter().eq(0..sent as i128),
        "one answer per request"
    );
    assert_eq!(ok + errors + shed, sent);
    let fetched = |how: &str| count(&responses, |r| r.ok && r.cache.as_deref() == Some(how));
    let computed = fetched("computed");
    assert_eq!(fetched("hit") + fetched("coalesced") + computed, ok);
    let distinct: std::collections::HashSet<u64> = (0..sent).map(|k| (k * k) % NESTS).collect();
    assert!(
        computed <= distinct.len() as u64,
        "at most one compile per distinct nest"
    );
    // Server-side and client-side views agree on sheds.
    assert_eq!(stats.shed(), shed);
    // A worker takes one job per wakeup: nothing is a batch tail.
    assert_eq!(stats.batched, 0, "{stats:?}");
}
