//! Workload `serve-zipf`: the daemon end to end.
//!
//! An in-process `Server::serve` listens on a Unix socket with its
//! journal on.  Requests follow Zipf(1) over a seeded corpus larger than
//! the plan cache; 5 % are `run` ops and 5 % ask for a certified plan.
//! The loop is **closed**: callers of a compile service wait for their
//! reply, so each connection sends its next request only after the last
//! one answered.  About 70 % of requests are cache hits, so the median
//! is transport and protocol, and the tail is planning plus journal.
//!
//! The untraced pass replays the first `CYCLE` requests of each
//! connection's stream in cycles and reports one undisturbed cycle
//! (`end_to_end`); the traced pass draws on the endless stream over
//! stretches of time.

use crate::gen::{self, Kind, NestSpec, Schedule, Scheduled};
use crate::host;
use crate::pass::{repeat_setup, Ctx, Pass, Pieces, Slices};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use alp::plan::{PartitionPlan, PlanKey, PlanStore, ShardedPlanCache};
use alp::serve::pipeline::{build_plan, run_plan, PlanSpec, RunSpec};
use alp::serve::server::ServerHandle;
use alp::serve::{Request, Response, ServeConfig, ServeError, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nests compiled before the first request.
const PREWARM: usize = 8;

/// The corpus with what a correct reply about each nest must say.
struct Corpus {
    specs: Vec<NestSpec>,
    fingerprints: Vec<String>,
    cdf: Arc<Vec<u64>>,
}

impl Corpus {
    /// Generate the nests, then parse and fingerprint each: one piece of
    /// the set-up for the text and the table, one per nest.
    fn generate(seed: u64, n: usize, pieces: &mut Pieces) -> Result<Corpus, String> {
        let (specs, cdf) = pieces.time(|| {
            let specs = gen::corpus(seed, n, &gen::SERVE_SHAPE);
            (specs, Arc::new(gen::zipf_cdf(n)))
        });
        let fingerprints = specs
            .iter()
            .map(|s| {
                pieces.time(|| {
                    alp::loopir::parse(&s.source)
                        .map(|nest| alp::plan::fingerprint_hex(&nest))
                        .map_err(|e| format!("{e}\n  nest: {}", s.source))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Corpus {
            cdf,
            specs,
            fingerprints,
        })
    }

    fn plan_spec(&self, rank: usize, certify: bool) -> PlanSpec {
        PlanSpec {
            source: self.specs[rank].source.clone(),
            processors: self.specs[rank].processors,
            check: true,
            certify,
        }
    }

    fn request(&self, s: &Scheduled) -> Request {
        let spec = &self.specs[s.rank];
        let mut req = match s.kind {
            Kind::Run => Request::run(s.id, &spec.source),
            Kind::Plan | Kind::PlanCertified => Request::plan(s.id, &spec.source),
        };
        req.plan.processors = spec.processors;
        req.plan.certify = s.kind == Kind::PlanCertified;
        if s.kind == Kind::Run {
            req.run = run_spec(s.rank);
        }
        req
    }
}

fn run_spec(rank: usize) -> RunSpec {
    RunSpec {
        threads: 1,
        seed: rank as u64 + 1,
        timeout_ms: Some(30_000),
        ..RunSpec::default()
    }
}

fn serve_config(ctx: &Ctx, corpus: &Corpus, store_dir: &Path) -> ServeConfig {
    ServeConfig {
        cache_capacity: if ctx.quick { 64 } else { 512 },
        workers: ctx.host.connections,
        prewarm: (0..PREWARM).map(|r| corpus.plan_spec(r, false)).collect(),
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// A running daemon with its clients connected.
struct Live {
    corpus: Arc<Corpus>,
    handle: Option<ServerHandle>,
    streams: Vec<UnixStream>,
    dir: PathBuf,
}

impl Drop for Live {
    fn drop(&mut self) {
        // Clients hang up first so the daemon's readers see EOF; then the
        // drain joins its workers and removes the socket.
        self.streams.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Start a daemon over a fresh corpus and journal, its clients connected.
/// The pieces: the corpus's own; the server, which compiles and journals
/// its prewarm set; listening and the connections.
fn setup(ctx: &Ctx, nests: usize, generation: usize, pieces: &mut Pieces) -> Result<Live, String> {
    let dir = ctx.scratch.join(format!("serve-{generation}"));
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let corpus = Arc::new(Corpus::generate(ctx.seed, nests, pieces)?);
    let (server, _) = pieces
        .time(|| {
            std::fs::create_dir_all(&dir)?;
            Server::try_new(serve_config(ctx, &corpus, &dir.join("store")))
        })
        .map_err(io)?;
    pieces.time(|| {
        let socket = dir.join("s.sock");
        let handle = server.serve(&socket).map_err(io)?;
        let mut live = Live {
            corpus,
            handle: Some(handle),
            streams: Vec::new(),
            dir: dir.clone(),
        };
        for _ in 0..ctx.host.connections {
            live.streams.push(UnixStream::connect(&socket).map_err(io)?);
        }
        Ok(live)
    })
}

/// How a reply was produced, which decides what its latency is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A `plan` answered from the cache.
    Hit,
    /// A `plan` that was compiled (or waited on a compile) and journaled.
    Computed,
    /// A `run`, whatever its plan cost.
    Run,
}

const CLASSES: [Class; 3] = [Class::Hit, Class::Computed, Class::Run];

/// What one client saw in one window.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    shed: u64,
    failures: Vec<String>,
    /// Whole-operation latency (encode, round trip, decode), µs, by class.
    class_us: [Vec<f64>; 3],
    /// Round trip alone (write to line read), µs, by class; traced
    /// windows only, so an untraced pass's peak memory does not carry it.
    rtt_us: [Vec<f64>; 3],
    /// Requests per second: each client's best slice, summed.
    rate: f64,
    /// Median latency of every slice of every client, µs.
    slice_p50_us: Vec<f64>,
    /// Requests each client sent, in client order.
    per_client: Vec<u64>,
    spans: Vec<Span>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Every successful request's latency, ascending, µs.
    fn sorted_us(&self) -> Vec<f64> {
        stats::sorted(self.class_us.iter().flatten().copied().collect())
    }

    /// Fold in another tally: of other clients that ran beside this one
    /// (rates add, one more entry per client), or of the same clients
    /// over a later window (the better window speaks for the rate, each
    /// client's count grows).
    fn merge(&mut self, other: Tally, how: Merge) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.failures.extend(other.failures);
        for c in 0..CLASSES.len() {
            self.class_us[c].extend_from_slice(&other.class_us[c]);
            self.rtt_us[c].extend_from_slice(&other.rtt_us[c]);
        }
        self.slice_p50_us.extend(other.slice_p50_us);
        match how {
            Merge::Beside => {
                self.rate += other.rate;
                self.per_client.extend(other.per_client);
            }
            Merge::After if self.per_client.is_empty() => {
                self.rate = other.rate;
                self.per_client = other.per_client;
            }
            Merge::After => {
                self.rate = self.rate.max(other.rate);
                for (mine, theirs) in self.per_client.iter_mut().zip(other.per_client) {
                    *mine += theirs;
                }
            }
        }
        // Parent links index within one tally's list; shift them.
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

#[derive(Clone, Copy)]
enum Merge {
    Beside,
    After,
}

/// Hold a reply to what the generator knows about the request's nest.
fn check(corpus: &Corpus, s: &Scheduled, resp: &Response) -> Result<Class, String> {
    let spec = &corpus.specs[s.rank];
    if !resp.ok {
        return Err(format!(
            "{} {}",
            resp.code.as_deref().unwrap_or("no code"),
            resp.error.as_deref().unwrap_or("")
        ));
    }
    if resp.id != s.id {
        return Err(format!("reply id {} for request {}", resp.id, s.id));
    }
    if resp.fingerprint.as_deref() != Some(corpus.fingerprints[s.rank].as_str()) {
        return Err(format!("wrong fingerprint {:?}", resp.fingerprint));
    }
    if resp.tiles != Some(spec.processors) {
        return Err(format!(
            "{:?} tiles for {} processors",
            resp.tiles, spec.processors
        ));
    }
    if s.kind == Kind::Run {
        return match resp.matches_reference {
            Some(true) => Ok(Class::Run),
            other => Err(format!("run reports matches_reference={other:?}")),
        };
    }
    match resp.cache.as_deref() {
        Some("hit") => Ok(Class::Hit),
        Some("computed" | "coalesced") => Ok(Class::Computed),
        other => Err(format!("unknown cache label {other:?}")),
    }
}

/// One connection's client side.
struct Wire<'a> {
    corpus: &'a Corpus,
    reader: BufReader<&'a UnixStream>,
    writer: &'a UnixStream,
    line: String,
}

/// One request as the client saw it.
struct Exchange {
    /// Before encode, before write, after the reply's line, after decode.
    at: [Instant; 4],
    /// The reply's class, or why the request counts as failed.
    outcome: Result<Class, String>,
    shed: bool,
}

impl Exchange {
    /// Whole-operation latency, encode to decode, in µs.
    fn latency_us(&self) -> f64 {
        self.at[3].duration_since(self.at[0]).as_secs_f64() * 1e6
    }
}

impl<'a> Wire<'a> {
    fn new(corpus: &'a Corpus, stream: &'a UnixStream) -> Self {
        Wire {
            corpus,
            reader: BufReader::new(stream),
            writer: stream,
            line: String::new(),
        }
    }

    /// Encode, write, read one line, decode, check.
    fn exchange(&mut self, s: &Scheduled, tracer: &mut Tracer) -> Exchange {
        let req = self.corpus.request(s);
        tracer.set_op(s.id as u64);
        let root = tracer.open("serve.request");
        let t0 = Instant::now();
        let mut frame = req.encode();
        frame.push('\n');
        let t1 = Instant::now();
        self.line.clear();
        let io = self
            .writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.reader.read_line(&mut self.line));
        let t2 = Instant::now();
        let resp = Response::decode(&self.line);
        let t3 = Instant::now();
        tracer.record("serve.protocol.request_encode", t0, t1);
        tracer.record("serve.round_trip", t1, t2);
        tracer.record("serve.protocol.response_decode", t2, t3);
        tracer.close(root);
        let mut shed = false;
        let outcome = match (io, resp) {
            (Err(e), _) => Err(format!("socket: {e}")),
            (Ok(_), Err(e)) => Err(format!("undecodable reply: {e}")),
            (Ok(_), Ok(resp)) => {
                shed = resp.code.as_deref() == Some("ALP0012");
                check(self.corpus, s, &resp)
            }
        }
        .map_err(|e| format!("request {} (rank {}, {:?}): {e}", s.id, s.rank, s.kind));
        Exchange {
            at: [t0, t1, t2, t3],
            outcome,
            shed,
        }
    }
}

/// The closed loop of one connection over a stretch of time: one request,
/// its reply, then the next.
fn client_loop(
    corpus: &Corpus,
    stream: &UnixStream,
    schedule: &mut Schedule,
    window: Duration,
    traced: bool,
) -> Tally {
    // Room for 100 k requests a second up front: untouched capacity costs
    // no memory, and growing by doubling would make peak RSS jump with
    // the request count.
    let room = (window.as_secs_f64() * 1e5) as usize;
    let mut tally = Tally::default();
    for samples in &mut tally.class_us {
        samples.reserve(room);
    }
    if traced {
        for samples in &mut tally.rtt_us {
            samples.reserve(room);
        }
    }
    let mut tracer = Tracer::new(traced);
    let mut slices = Slices::new(window);
    let mut wire = Wire::new(corpus, stream);
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let s = schedule.next().expect("the schedule is endless");
        let x = wire.exchange(&s, &mut tracer);
        tally.attempted += 1;
        tally.shed += u64::from(x.shed);
        slices.tick(x.at[3], x.latency_us());
        match x.outcome {
            Ok(class) => {
                tally.class_us[class as usize].push(x.latency_us());
                if traced {
                    let rtt = x.at[2].duration_since(x.at[1]);
                    tally.rtt_us[class as usize].push(rtt.as_secs_f64() * 1e6);
                }
            }
            Err(e) => tally.fail(e),
        }
    }
    tally.rate = slices.per_second();
    tally.per_client = vec![tally.attempted];
    tally.slice_p50_us = slices.slice_p50_us().to_vec();
    tally.spans = tracer.finish();
    tally
}

/// Requests in one client's cycle: short enough that a 20 s window at the
/// daemon's 13 k requests a second visits every position sixty times,
/// long enough that its distinct nests are still twice the cache.
const CYCLE: usize = 4096;

/// What one position of a cycle cost in the visits so far, by the class
/// the reply had.
#[derive(Debug, Clone, Copy)]
struct Position {
    floor_us: [f64; 3],
    visits: [u32; 3],
}

impl Position {
    const UNVISITED: Position = Position {
        floor_us: [f64::INFINITY; 3],
        visits: [0; 3],
    };

    /// The class this position's replies had most often (the earlier of
    /// [`CLASSES`] on a tie) and the floor of its latency in that class.
    /// With one connection the cache is in the same state every time the
    /// cycle comes round and there is only one class; with several, whose
    /// requests interleave differently every cycle, a position may be a
    /// hit one time and a compile the next, and the cheaper class must
    /// not speak for it just because it is cheaper.
    fn settled(&self) -> Option<(Class, f64)> {
        let c = (0..CLASSES.len()).rev().max_by_key(|&c| self.visits[c])?;
        (self.visits[c] > 0).then_some((CLASSES[c], self.floor_us[c]))
    }
}

/// Latencies as run, counted in 1 µs buckets: as many samples as the
/// daemon is fast would make the pass's peak memory a measure of its
/// speed.
struct Histogram {
    buckets: Vec<u32>,
    count: u64,
}

impl Histogram {
    /// Everything from this many µs up shares the last bucket.
    const CEILING_US: usize = 1 << 14;

    fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::CEILING_US + 1],
            count: 0,
        }
    }

    fn add(&mut self, us: f64) {
        self.buckets[(us as usize).min(Self::CEILING_US)] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Nearest-rank percentile, to the µs below.
    fn percentile_us(&self, pct: f64) -> f64 {
        let rank = ((pct / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (us, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return us as f64;
            }
        }
        Self::CEILING_US as f64
    }
}

/// What one client saw replaying its cycle.
struct Cycled {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    positions: Vec<Position>,
    as_run: Histogram,
}

/// The closed loop of one connection over its cycle: the same requests in
/// the same order, again and again until `window` is over (`None`: once
/// round, untimed — the warm-up that leaves cache and journal in the state
/// every later round starts from).
fn cycle_loop(
    corpus: &Corpus,
    stream: &UnixStream,
    cycle: &[Scheduled],
    window: Option<Duration>,
) -> Cycled {
    let mut out = Cycled {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        positions: vec![Position::UNVISITED; cycle.len()],
        as_run: Histogram::new(),
    };
    let mut tracer = Tracer::new(false);
    let mut wire = Wire::new(corpus, stream);
    let begin = Instant::now();
    'window: loop {
        for (s, position) in cycle.iter().zip(&mut out.positions) {
            if window.is_some_and(|w| begin.elapsed() >= w) {
                break 'window;
            }
            let x = wire.exchange(s, &mut tracer);
            out.attempted += 1;
            match x.outcome {
                Ok(class) => {
                    let (c, us) = (class as usize, x.latency_us());
                    position.floor_us[c] = position.floor_us[c].min(us);
                    position.visits[c] += 1;
                    out.as_run.add(us);
                }
                Err(e) => {
                    out.failed += 1;
                    if out.failures.len() < 5 {
                        out.failures.push(e);
                    }
                }
            }
        }
        if window.is_none() {
            break;
        }
    }
    out
}

/// [`cycle_loop`] on every connection at once, each over its own cycle.
fn cycle_window(live: &Live, cycles: &[Vec<Scheduled>], window: Option<Duration>) -> Vec<Cycled> {
    let corpus = &*live.corpus;
    std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .streams
            .iter()
            .zip(cycles)
            .map(|(stream, cycle)| scope.spawn(move || cycle_loop(corpus, stream, cycle, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// One window over every connection at once; tallies merged.
fn window(live: &Live, schedules: &mut [Schedule], length: Duration, traced: bool) -> Tally {
    let corpus = &*live.corpus;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .streams
            .iter()
            .zip(schedules.iter_mut())
            .map(|(stream, schedule)| {
                scope.spawn(move || client_loop(corpus, stream, schedule, length, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t, Merge::Beside);
    }
    all
}

fn absorb(pass: &mut Pass, tally: &Tally) {
    pass.attempted += tally.attempted;
    pass.failed += tally.failed;
    for f in &tally.failures {
        if pass.failures.len() < 5 {
            pass.failures.push(f.clone());
        }
    }
}

fn p50(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(xs.to_vec()), 50.0)
    }
}

fn schedules(ctx: &Ctx, corpus: &Corpus, stream_base: usize) -> Vec<Schedule> {
    (0..ctx.host.connections)
        .map(|c| Schedule::new(ctx.seed, stream_base + c, Arc::clone(&corpus.cdf)))
        .collect()
}

/// Replay `counts[c]` requests of each client's traced stream through a
/// twin server's `handle_now`, in process: what a request costs without
/// socket, framing, admission or queueing.
fn replay_in_process(
    ctx: &Ctx,
    corpus: &Corpus,
    counts: &[u64],
    stream_base: usize,
    pass: &mut Pass,
) -> Result<([Vec<f64>; 3], Vec<Response>), String> {
    let dir = ctx.scratch.join("serve-twin");
    let (twin, _) = Server::try_new(serve_config(ctx, corpus, &dir.join("store")))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut by_class: [Vec<f64>; 3] = Default::default();
    let mut replies = Vec::new();
    for (mut schedule, &n) in schedules(ctx, corpus, stream_base).into_iter().zip(counts) {
        for _ in 0..n {
            let s = schedule.next().expect("the schedule is endless");
            let req = corpus.request(&s);
            let t0 = Instant::now();
            let resp = twin.handle_now(&req);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            pass.attempted += 1;
            match check(corpus, &s, &resp) {
                Ok(class) => by_class[class as usize].push(us),
                Err(e) => pass.fail(|| format!("in-process request {}: {e}", s.id)),
            }
            if replies.len() < 1024 {
                replies.push(resp);
            }
        }
    }
    drop(twin);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((by_class, replies))
}

/// Direct timed calls into the layers under the daemon.
fn probe_layers(
    ctx: &Ctx,
    corpus: &Corpus,
    replies: &[Response],
    pass: &mut Pass,
) -> Result<(), String> {
    let sample: Vec<usize> = (0..corpus.specs.len())
        .step_by((corpus.specs.len() / 256).max(1))
        .collect();
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;

    // pipeline: the compile and the run behind a request.
    let mut build_us = Vec::new();
    let mut plans: Vec<(PlanKey, Arc<PartitionPlan>)> = Vec::new();
    for &rank in &sample {
        let spec = corpus.plan_spec(rank, false);
        let t0 = Instant::now();
        let plan = build_plan(&spec);
        build_us.push(us(t0));
        let key = spec.key().map_err(|e| e.to_string())?;
        plans.push((key, Arc::new(plan.map_err(|e| e.to_string())?)));
    }
    let mut run_us = Vec::new();
    for (k, (_, plan)) in plans.iter().enumerate().step_by(4) {
        let t0 = Instant::now();
        let summary = run_plan(plan, &run_spec(sample[k]));
        run_us.push(us(t0));
        pass.attempted += 1;
        match summary {
            Ok(s) if s.matches_reference => {}
            Ok(_) => pass.fail(|| "run_plan reports a mismatch".to_string()),
            Err(e) => pass.fail(|| format!("run_plan: {e}")),
        }
    }

    // protocol: the server's half of the codec.
    let frames: Vec<String> = sample
        .iter()
        .map(|&rank| {
            corpus
                .request(&Scheduled {
                    id: rank as i128,
                    rank,
                    kind: Kind::Plan,
                })
                .encode()
        })
        .collect();
    let mut decode_us = Vec::new();
    for f in &frames {
        let t0 = Instant::now();
        let req = std::hint::black_box(Request::decode(f));
        decode_us.push(us(t0));
        req.map_err(|e| e.to_string())?;
    }
    let mut encode_us = Vec::new();
    for r in replies {
        let t0 = Instant::now();
        std::hint::black_box(r.encode());
        encode_us.push(us(t0));
    }

    // plan.store: journal the sampled plans into a fresh store, then
    // replay it.
    let dir = ctx.scratch.join("serve-store-probe");
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let (mut store, _) = PlanStore::open(&dir).map_err(io)?;
    let mut append_us = Vec::new();
    for (key, plan) in &plans {
        let t0 = Instant::now();
        let seq = store.append(key, plan);
        append_us.push(us(t0));
        seq.map_err(io)?;
    }
    store.sync().map_err(io)?;
    drop(store);
    let t0 = Instant::now();
    let recovered = PlanStore::scan(&dir).map_err(io)?;
    let replay_ms = us(t0) / 1e3;
    if recovered.corrupt() || recovered.replayed() != plans.len() {
        pass.fail(|| {
            format!(
                "journal replayed {} of {} plans",
                recovered.replayed(),
                plans.len()
            )
        });
    }
    pass.attempted += 1;
    let _ = std::fs::remove_dir_all(&dir);

    // plan.cache: lookups of resident keys; too short to time one by
    // one, so time sixteen sweeps and divide.
    let cache = ShardedPlanCache::<ServeError>::new(
        ShardedPlanCache::<ServeError>::DEFAULT_SHARDS,
        plans.len(),
    );
    for (key, plan) in &plans {
        cache.warm(*key, Arc::clone(plan));
    }
    const SWEEPS: usize = 16;
    let t0 = Instant::now();
    for _ in 0..SWEEPS {
        for (key, _) in &plans {
            std::hint::black_box(cache.get_cached(key));
        }
    }
    let get_us = us(t0) / (SWEEPS * plans.len()) as f64;

    let m = &mut pass.metrics;
    m.set(
        "serve.pipeline.build_plan_us",
        p50(&build_us),
        build_us.len(),
    );
    m.set("serve.pipeline.run_plan_us", p50(&run_us), run_us.len());
    m.set(
        "serve.protocol.request_decode_us",
        p50(&decode_us),
        decode_us.len(),
    );
    m.set(
        "serve.protocol.response_encode_us",
        p50(&encode_us),
        encode_us.len(),
    );
    m.set("plan.store.append_us", p50(&append_us), append_us.len());
    m.set(
        "plan.store.bytes_per_plan",
        recovered.bytes as f64 / recovered.frames.max(1) as f64,
        recovered.frames as usize,
    );
    m.set("plan.store.replay_ms", replay_ms, 1);
    m.set("plan.cache.get_us", get_us, SWEEPS * plans.len());
    Ok(())
}

/// The untraced pass: every connection replays the first [`CYCLE`]
/// requests of its stream in cycles, and the figures are those of one
/// undisturbed cycle, in which every position takes the floor of its
/// latency across the cycles.
///
/// The same request against the same cache state costs the same every
/// time round; what differs is the host, which slows everything by a
/// third for seconds to a minute at a time and leaves quiet moments far
/// more often 30 µs long than 200 ms long: medians of time slices of the
/// same windows spread three times as far from run to run.
fn end_to_end(ctx: &Ctx, live: &Live, pass: &mut Pass) -> Result<(), String> {
    let length = if ctx.quick { CYCLE / 8 } else { CYCLE };
    let cycles: Vec<Vec<Scheduled>> = schedules(ctx, &live.corpus, 0)
        .into_iter()
        .map(|schedule| schedule.take(length).collect())
        .collect();
    // Once round, untimed: the cache fills to the state every later
    // round starts from.
    for warmed in cycle_window(live, &cycles, None) {
        if warmed.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warmed.failures));
        }
    }
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let clients = cycle_window(live, &cycles, Some(ctx.window));
    let cpu = host::cpu_seconds().unwrap_or(0.0) - cpu0;

    let mut as_run = Histogram::new();
    let mut by_class: [Vec<f64>; 3] = Default::default();
    let mut rate = 0.0;
    for client in &clients {
        pass.attempted += client.attempted;
        pass.failed += client.failed;
        for f in &client.failures {
            if pass.failures.len() < 5 {
                pass.failures.push(f.clone());
            }
        }
        as_run.merge(&client.as_run);
        let settled: Vec<(Class, f64)> = client
            .positions
            .iter()
            .filter_map(Position::settled)
            .collect();
        if settled.is_empty() {
            return Err(format!("no request succeeded: {:?}", client.failures));
        }
        // Connections work side by side: their rates add.
        rate += settled.len() as f64 / (settled.iter().map(|(_, us)| us).sum::<f64>() / 1e6);
        for (class, us) in settled {
            by_class[class as usize].push(us);
        }
    }
    let floors: Vec<f64> = by_class.iter().flatten().copied().collect();
    let rounds = pass.attempted as f64 / (length * clients.len()) as f64;
    pass.rows.push(format!(
        "cycle: {length} requests per connection, {rounds:.1} rounds; cpu {cpu:.2} s over the window, {:.1} us per request",
        cpu * 1e6 / pass.attempted.max(1) as f64
    ));
    for (c, class) in CLASSES.iter().enumerate() {
        pass.rows.push(format!(
            "class {class:?} positions={} floor latency_us.p50={:.1}",
            by_class[c].len(),
            p50(&by_class[c])
        ));
    }
    pass.rows.push(format!(
        "latency_ms as run: p50={:.3} p95={:.3} p99={:.3} n={} mean_req_per_s={:.0}",
        as_run.percentile_us(50.0) / 1e3,
        as_run.percentile_us(95.0) / 1e3,
        as_run.percentile_us(99.0) / 1e3,
        as_run.count,
        pass.attempted as f64 / ctx.window.as_secs_f64()
    ));
    let m = &mut pass.metrics;
    m.set("work_per_s", rate, rounds as usize);
    m.set("op_ms", stats::median(&floors) / 1e3, rounds as usize);
    Ok(())
}

/// Run one pass of the workload.
pub fn run(ctx: &Ctx) -> Result<Pass, String> {
    let nests = if ctx.quick { 256 } else { 2048 };
    let mut pass = Pass::default();
    // Each connection's client and the daemon threads serving it take
    // turns; give each connection one processor so they share it.
    let pinned = host::pin_to_first(ctx.host.connections);
    let (live, setup_s, setup_reps) = repeat_setup(ctx.setup_budget(), |rep, pieces| {
        setup(ctx, nests, rep, pieces)
    })?;
    pass.rows.push(format!(
        "closed loop: {} connection(s), {} worker(s), pinned to {} processor(s): {}, corpus {nests}, cache {}, set-up x{setup_reps}",
        ctx.host.connections,
        ctx.host.connections,
        ctx.host.connections,
        pinned.is_some(),
        if ctx.quick { 64 } else { 512 },
    ));

    // Client and worker take turns, so each connection keeps one
    // processor's worth of threads busy.
    ctx.condition(ctx.host.connections);
    if !ctx.traced {
        end_to_end(ctx, &live, &mut pass)?;
        pass.metrics.set("setup_s", setup_s, setup_reps);
        return Ok(pass);
    }

    // Warm-up: let the cache fill to its steady hit rate.
    let mut streams = schedules(ctx, &live.corpus, 0);
    let warm = (ctx.window / 10).max(Duration::from_millis(200));
    let warmed = window(&live, &mut streams, warm, false);
    if warmed.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warmed.failures));
    }

    // A third of the window untraced and a third under spans, in
    // alternating turns so a slow phase of the host falls on both.  The
    // traced turns draw from streams of their own, so the in-process twin
    // can replay exactly their requests from the beginning.
    const TRACED_STREAMS: usize = 1000;
    const TURNS: u32 = 3;
    let turn = ctx.window / (3 * TURNS);
    let mut traced_streams = schedules(ctx, &live.corpus, TRACED_STREAMS);
    let (mut base, mut traced) = (Tally::default(), Tally::default());
    for _ in 0..TURNS {
        base.merge(window(&live, &mut streams, turn, false), Merge::After);
        traced.merge(window(&live, &mut traced_streams, turn, true), Merge::After);
    }
    absorb(&mut pass, &base);
    absorb(&mut pass, &traced);
    let base_sorted = base.sorted_us();
    if base_sorted.is_empty() || traced.sorted_us().is_empty() {
        return Err(format!("no request succeeded: {:?}", pass.failures));
    }
    let server = live
        .handle
        .as_ref()
        .expect("the daemon runs until `live` drops")
        .stats();
    let corpus = Arc::clone(&live.corpus);
    // Stop the daemon before the in-process replay so the two never
    // compete for the host's processors.
    drop(live);

    let (handled, replies) =
        replay_in_process(ctx, &corpus, &traced.per_client, TRACED_STREAMS, &mut pass)?;

    let summary = trace::summarize(&traced.spans);
    let span_p50 = |name: &str| summary.get(name).map_or(0.0, |s| s.p50_us());
    let span_n = |name: &str| summary.get(name).map_or(0, |s| s.count);
    let total = (base.attempted + traced.attempted + warmed.attempted).max(1);
    let m = &mut pass.metrics;
    m.set(
        "serve.protocol.request_encode_us",
        span_p50("serve.protocol.request_encode"),
        span_n("serve.protocol.request_encode"),
    );
    m.set(
        "serve.protocol.response_decode_us",
        span_p50("serve.protocol.response_decode"),
        span_n("serve.protocol.response_decode"),
    );
    for (c, name) in [
        "serve.handle_now.hit_us",
        "serve.handle_now.computed_us",
        "serve.handle_now.run_us",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, p50(&handled[c]), handled[c].len());
    }
    for (c, name) in [
        "serve.hit.latency_us.p50",
        "serve.computed.latency_us.p50",
        "serve.run.latency_us.p50",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, p50(&base.class_us[c]), base.class_us[c].len());
    }
    // Hits are the median request, so their transport is the figure to
    // watch; the other classes' are in the rows below.
    m.set(
        "serve.transport_us",
        p50(&traced.rtt_us[0]) - p50(&handled[0]),
        traced.rtt_us[0].len(),
    );
    m.set(
        "serve.latency_ms.p95",
        stats::percentile(&base_sorted, 95.0) / 1e3,
        base_sorted.len(),
    );
    m.set(
        "serve.latency_us.p99",
        stats::percentile(&base_sorted, 99.0),
        base_sorted.len(),
    );
    m.set(
        "serve.shed_share",
        (base.shed + traced.shed + warmed.shed) as f64 / total as f64,
        total as usize,
    );
    m.set("serve.coalesced", server.coalesced as f64, 1);
    m.set("serve.batched", server.batched as f64, 1);
    m.set(
        "plan.cache.hit_rate",
        server.hits as f64 / (server.hits + server.misses).max(1) as f64,
        (server.hits + server.misses) as usize,
    );
    m.set("plan.cache.evictions", server.evictions as f64, 1);
    m.set(
        "serve.residual_rel",
        trace::residual_rel(&summary, "serve.request"),
        span_n("serve.request"),
    );
    m.set(
        "trace.overhead_rel",
        1.0 - traced.rate / base.rate,
        traced.slice_p50_us.len(),
    );
    for (c, class) in CLASSES.iter().enumerate() {
        pass.rows.push(format!(
            "class {class:?}: socket rtt_us.p50={:.1} (n={}) handle_now_us.p50={:.1} (n={}) transport_us={:.1}",
            p50(&traced.rtt_us[c]),
            traced.rtt_us[c].len(),
            p50(&handled[c]),
            handled[c].len(),
            p50(&traced.rtt_us[c]) - p50(&handled[c]),
        ));
    }
    pass.rows
        .extend(trace::share_rows(&summary, "serve.request"));
    pass.spans = traced.spans;
    probe_layers(ctx, &corpus, &replies, &mut pass)?;
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_position_speaks_for_the_class_it_mostly_had() {
        assert!(Position::UNVISITED.settled().is_none());
        // Two compiles at 90 and 80 µs, one hit at 20: a compile, 80.
        let p = Position {
            floor_us: [20.0, 80.0, f64::INFINITY],
            visits: [1, 2, 0],
        };
        assert_eq!(p.settled(), Some((Class::Computed, 80.0)));
        // A tie goes to the earlier class.
        let p = Position {
            floor_us: [20.0, 80.0, f64::INFINITY],
            visits: [2, 2, 0],
        };
        assert_eq!(p.settled(), Some((Class::Hit, 20.0)));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank_to_the_microsecond() {
        let mut h = Histogram::new();
        for us in [10.2, 10.9, 11.5, 30.0, 1e9] {
            h.add(us);
        }
        // ceil(0.5·5) = 3rd: 11; ceil(0.8·5) = 4th: 30; the 5th is off
        // the scale and reads as its ceiling.
        assert_eq!(h.percentile_us(50.0), 11.0);
        assert_eq!(h.percentile_us(80.0), 30.0);
        assert_eq!(h.percentile_us(100.0), Histogram::CEILING_US as f64);
        let mut both = Histogram::new();
        both.merge(&h);
        both.merge(&h);
        assert_eq!((both.count, both.percentile_us(50.0)), (10, 11.0));
    }
}
