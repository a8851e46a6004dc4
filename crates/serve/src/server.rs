//! The plan service: admission control, worker pool, and the Unix
//! socket front end.
//!
//! ## Overload-shedding policy
//!
//! Three tiers, cheapest first:
//!
//! 1. **Inline cache hits** — a `plan` request whose key is already
//!    cached is answered directly on the connection's reader thread,
//!    bypassing the admission queue entirely.  Under total overload
//!    the server still answers every request whose plan it has.
//! 2. **Bounded queue** — work that needs a worker (compiles, all
//!    executions) passes admission: the queue never exceeds
//!    [`ServeConfig::queue_cap`].
//! 3. **Graceful degradation** — `run` requests cost strictly more
//!    than `plan` requests (compile *plus* native execution), so they
//!    shed earlier: at [`ServeConfig::run_high_water`] (default half
//!    the queue) rather than at full capacity.  Shed requests fail
//!    fast with the stable `ALP0012` code and were never partially
//!    executed — retrying is always safe.
//!
//! Within an admitted request, the hardened executor's own guards
//! apply: per-request deadline (`ALP0007`) and memory budget
//! (`ALP0009`).  A tile panic (chaos-injected or real) is contained by
//! the executor (`ALP0008`) and, because compiles run outside the
//! shard locks and publish through the leader-abandon protocol, a
//! panicking request can never poison a shard or wedge coalesced
//! waiters of other requests.
//!
//! ## Durability and graceful drain
//!
//! With [`ServeConfig::store_dir`] set, every *computed* plan is also
//! appended to a crash-safe [`PlanStore`] journal, and startup replays
//! the journal into the sharded cache before the first request —
//! a restarted daemon keeps its hot set instead of paying a recompile
//! storm (`replayed` counter; corrupt tail frames are quarantined with
//! `ALP0014`, never fatal).
//!
//! Shutdown is a two-phase drain rather than a cliff: a protocol
//! `shutdown` (or the daemon's SIGTERM) flips the server to
//! **draining** — new `plan`/`run` requests are refused with
//! `ALP0015` (`stats`/`ping` still answer) while workers finish
//! everything already admitted.  [`ServerHandle::finish`] bounds the
//! drain with a deadline; past it, still-queued jobs are answered with
//! `ALP0015` *unexecuted* and the journal is fsynced before the
//! process exits.

use crate::pipeline::{build_plan, run_plan};
use crate::protocol::{Request, RequestOp, Response};
use crate::ServeError;
use alp_plan::{Fetched, Json, PlanStore, RecoveryReport, ShardedPlanCache};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards in the plan cache.
    pub shards: usize,
    /// Total cached plans across shards.
    pub cache_capacity: usize,
    /// Admission-queue bound; 0 sheds every queue-bound request
    /// (inline cache hits still serve).
    pub queue_cap: usize,
    /// Queue depth at which `run` requests start shedding; `None`
    /// means half of `queue_cap`.
    pub run_high_water: Option<usize>,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Specs to compile before accepting traffic (deterministic warm
    /// cache for tests and benchmarks).
    pub prewarm: Vec<crate::pipeline::PlanSpec>,
    /// Directory of the durable plan journal; `None` disables
    /// persistence.  Computed plans are appended, startup replays.
    pub store_dir: Option<PathBuf>,
    /// Default bound on the graceful drain, in milliseconds; past it,
    /// still-queued jobs are refused unexecuted.
    pub drain_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServeConfig {
            shards: ShardedPlanCache::<ServeError>::DEFAULT_SHARDS,
            cache_capacity: 128,
            queue_cap: 64,
            run_high_water: None,
            workers: cores.clamp(1, 8),
            prewarm: Vec::new(),
            store_dir: None,
            drain_deadline_ms: 5_000,
        }
    }
}

impl ServeConfig {
    fn run_limit(&self) -> usize {
        self.run_high_water
            .unwrap_or(self.queue_cap / 2)
            .min(self.queue_cap)
    }
}

/// Cumulative server counters, exposed through the `stats` op and the
/// load generator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Cache hits (inline fast path plus worker-path hits).
    pub hits: u64,
    /// Compile leaders (each built one plan).
    pub misses: u64,
    /// Requests that waited on another request's in-flight compile.
    pub coalesced: u64,
    /// LRU evictions across shards.
    pub evictions: u64,
    /// Subset of `hits` answered on reader threads without queueing.
    pub inline_hits: u64,
    /// `plan` requests shed with `ALP0012`.
    pub shed_plan: u64,
    /// `run` requests shed with `ALP0012`.
    pub shed_run: u64,
    /// Successful runs.
    pub runs_ok: u64,
    /// Requests that failed in the pipeline (any code but `ALP0012`).
    pub failures: u64,
    /// Queue depth at snapshot time.
    pub depth: u64,
    /// Jobs drained as the *tail* of a worker-wakeup batch: a waking
    /// worker takes every queued job with a distinct plan key (up to a
    /// small cap) instead of one job per wakeup, and this counts the
    /// extras beyond the first.
    pub batched: u64,
    /// Malformed or oversized request frames (undecodable JSON, bad
    /// version, frames past the size limit) — answered with `ALP0006`
    /// but counted here so an operator can see protocol abuse.
    pub malformed: u64,
    /// Queued jobs shed unexecuted because the client's propagated
    /// deadline passed before a worker reached them (`ALP0007`).
    pub expired: u64,
    /// Requests refused with `ALP0015` while draining (including jobs
    /// abandoned past the drain deadline).
    pub refused: u64,
    /// Plans re-warmed from the durable journal at startup.
    pub replayed: u64,
}

impl ServerStats {
    /// Encode as a single-line JSON object.
    pub fn encode(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \
             \"inline_hits\": {}, \"shed_plan\": {}, \"shed_run\": {}, \"runs_ok\": {}, \
             \"failures\": {}, \"depth\": {}, \"batched\": {}, \"malformed\": {}, \
             \"expired\": {}, \"refused\": {}, \"replayed\": {}}}",
            self.hits,
            self.misses,
            self.coalesced,
            self.evictions,
            self.inline_hits,
            self.shed_plan,
            self.shed_run,
            self.runs_ok,
            self.failures,
            self.depth,
            self.batched,
            self.malformed,
            self.expired,
            self.refused,
            self.replayed
        )
    }

    /// Decode from the JSON value embedded in a `stats` response;
    /// absent fields read as zero.
    pub fn decode(v: &Json) -> ServerStats {
        let f = |key: &str| v.get(key).and_then(Json::as_int).unwrap_or(0).max(0) as u64;
        ServerStats {
            hits: f("hits"),
            misses: f("misses"),
            coalesced: f("coalesced"),
            evictions: f("evictions"),
            inline_hits: f("inline_hits"),
            shed_plan: f("shed_plan"),
            shed_run: f("shed_run"),
            runs_ok: f("runs_ok"),
            failures: f("failures"),
            depth: f("depth"),
            batched: f("batched"),
            malformed: f("malformed"),
            expired: f("expired"),
            refused: f("refused"),
            replayed: f("replayed"),
        }
    }

    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_plan + self.shed_run
    }
}

struct Job {
    req: Request,
    /// Plan key computed on the reader thread at admission time (None
    /// when the spec is undecodable); lets the worker's batch drain
    /// check fingerprint distinctness without re-parsing under the
    /// queue lock.
    key: Option<alp_plan::PlanKey>,
    /// Absolute expiry derived from the client's `deadline_ms` at
    /// admission; a worker sheds the job unexecuted once past it.
    expires: Option<Instant>,
    out: Arc<Mutex<UnixStream>>,
}

impl Job {
    fn expired(&self) -> bool {
        self.expires.is_some_and(|t| Instant::now() > t)
    }
}

/// Request frames longer than this are counted as malformed and
/// refused without parsing — a corrupt or hostile peer cannot make the
/// reader buffer unbounded JSON.
const MAX_REQUEST_BYTES: usize = 1 << 20;

struct Inner {
    cfg: ServeConfig,
    cache: ShardedPlanCache<ServeError>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    depth: AtomicUsize,
    shutdown: AtomicBool,
    /// Drain phase: refuse new plan/run work (`ALP0015`) while workers
    /// finish what was already admitted.
    draining: AtomicBool,
    /// Set when the drain deadline passed: workers answer remaining
    /// queued jobs with `ALP0015` instead of executing them.
    abort: AtomicBool,
    /// Workers currently executing a batch (drain completion is
    /// "queue empty AND busy == 0", not just an empty queue).
    busy: AtomicUsize,
    /// Parked `wait()` callers; notified when draining begins.
    drain_mx: Mutex<()>,
    drain_cv: Condvar,
    /// Durable journal of computed plans, when configured.
    store: Option<Mutex<PlanStore>>,
    /// Bound socket path, once serving; lets a protocol `shutdown`
    /// wake the blocking accept loop with a throwaway connection.
    sock: Mutex<Option<PathBuf>>,
    inline_hits: AtomicU64,
    shed_plan: AtomicU64,
    shed_run: AtomicU64,
    runs_ok: AtomicU64,
    failures: AtomicU64,
    batched: AtomicU64,
    malformed: AtomicU64,
    expired: AtomicU64,
    refused: AtomicU64,
    /// Journal entries re-warmed into the cache at startup (fixed at
    /// construction).
    replayed: u64,
}

/// Max jobs one worker wakeup drains.  Small enough that a batch never
/// starves the other workers of queued work, large enough to amortize
/// the lock/condvar round trip under bursts.
const WORKER_BATCH: usize = 8;

impl Inner {
    /// Process one plan/run request end to end (worker side; admission
    /// already happened or was bypassed by a direct caller).
    fn handle_now(&self, req: &Request) -> Response {
        match req.op {
            RequestOp::Ping | RequestOp::Shutdown => Response::ok(req.id),
            RequestOp::Stats => {
                Response::stats_with_shards(req.id, self.stats(), self.cache.per_shard())
            }
            RequestOp::Plan | RequestOp::Run => {
                let key = match req.plan.key() {
                    Ok(k) => k,
                    Err(e) => {
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        return Response::err(req.id, &e);
                    }
                };
                let spec = req.plan.clone();
                let fetched = self.cache.get_or_compute(key, move || build_plan(&spec));
                let (plan, how) = match fetched {
                    Ok(x) => x,
                    Err(e) => {
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        return Response::err(req.id, &e);
                    }
                };
                if how == Fetched::Computed {
                    self.journal(&key, &plan);
                }
                match req.op {
                    RequestOp::Plan => Response::plan_ok(
                        req.id,
                        how.label(),
                        &plan.fingerprint,
                        plan.tiles(),
                        req.want_plan.then(|| plan.to_json_string()),
                    ),
                    _ => match run_plan(&plan, &req.run) {
                        Ok(run) => {
                            self.runs_ok.fetch_add(1, Ordering::Relaxed);
                            Response::run_ok(
                                req.id,
                                how.label(),
                                &plan.fingerprint,
                                plan.tiles(),
                                &run,
                            )
                        }
                        Err(e) => {
                            self.failures.fetch_add(1, Ordering::Relaxed);
                            Response::err(req.id, &e)
                        }
                    },
                }
            }
        }
    }

    /// Append a freshly computed plan to the durable journal, if one is
    /// configured.  Journaling is best-effort: the serving path never
    /// fails because the disk did — the plan is already cached and the
    /// response already correct — but each incident is logged.
    fn journal(&self, key: &alp_plan::PlanKey, plan: &Arc<alp_plan::PartitionPlan>) {
        if let Some(store) = &self.store {
            if let Ok(mut s) = store.lock() {
                if let Err(e) = s.append(key, plan) {
                    eprintln!("alp-serve: warning: journal append failed: {e}");
                }
            }
        }
    }

    /// Flip to the draining phase: refuse new plan/run work, wake
    /// workers (so idle ones observe the flag) and any parked `wait()`.
    fn begin_drain(&self) {
        let _g = self.drain_mx.lock().expect("drain lock");
        self.draining.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        self.drain_cv.notify_all();
    }

    /// True when no admitted work remains: nothing queued and no worker
    /// mid-batch.
    fn queue_idle(&self) -> bool {
        let q = self.queue.lock().expect("queue lock");
        q.is_empty() && self.busy.load(Ordering::SeqCst) == 0
    }

    /// Admission: push the job or shed it with `ALP0012` (or refuse it
    /// with `ALP0015` once draining).  The depth check and the push are
    /// atomic under the queue lock, so the bound is exact.
    fn submit(&self, job: Job) -> Result<(), ServeError> {
        let limit = match job.req.op {
            RequestOp::Run => self.cfg.run_limit(),
            _ => self.cfg.queue_cap,
        };
        let mut q = self.queue.lock().expect("queue lock");
        if self.draining.load(Ordering::SeqCst) {
            drop(q);
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::draining());
        }
        let depth = q.len();
        if depth >= limit || self.shutdown.load(Ordering::SeqCst) {
            drop(q);
            let ctr = match job.req.op {
                RequestOp::Run => &self.shed_run,
                _ => &self.shed_plan,
            };
            ctr.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::overloaded(depth, self.cfg.queue_cap));
        }
        q.push_back(job);
        self.depth.store(q.len(), Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    fn stats(&self) -> ServerStats {
        let c = self.cache.stats();
        ServerStats {
            hits: c.hits,
            misses: c.misses,
            coalesced: c.coalesced,
            evictions: c.evictions,
            inline_hits: self.inline_hits.load(Ordering::Relaxed),
            shed_plan: self.shed_plan.load(Ordering::Relaxed),
            shed_run: self.shed_run.load(Ordering::Relaxed),
            runs_ok: self.runs_ok.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed) as u64,
            batched: self.batched.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            replayed: self.replayed,
        }
    }

    /// Worker loop: each wakeup drains a *batch* of queued jobs with
    /// pairwise-distinct plan keys (up to [`WORKER_BATCH`]) instead of
    /// one job per wakeup, amortizing the lock/condvar round trip under
    /// bursts.  The batch stops at the first job whose key repeats one
    /// already taken: by the time a later wakeup reaches that job its
    /// leader has published the plan, so it resolves as a cache hit
    /// instead of serializing behind an identical compile in the same
    /// batch.  On shutdown, workers finish what is queued, then exit.
    /// Each job runs under panic containment so a handler bug drops one
    /// response, never a worker.
    fn worker(&self) {
        loop {
            let batch = {
                let mut q = self.queue.lock().expect("queue lock");
                loop {
                    if !q.is_empty() {
                        let mut batch: Vec<Job> = Vec::new();
                        while batch.len() < WORKER_BATCH {
                            let dup = match q.front().and_then(|j| j.key) {
                                Some(k) => batch.iter().any(|b| b.key == Some(k)),
                                None => false,
                            };
                            if dup {
                                break;
                            }
                            match q.pop_front() {
                                Some(j) => batch.push(j),
                                None => break,
                            }
                        }
                        self.depth.store(q.len(), Ordering::Relaxed);
                        self.batched
                            .fetch_add((batch.len() - 1) as u64, Ordering::Relaxed);
                        // Claimed under the queue lock, so a drain
                        // observer never sees "queue empty" between a
                        // pop and the busy increment.
                        self.busy.fetch_add(1, Ordering::SeqCst);
                        break batch;
                    }
                    if self.shutdown.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst)
                    {
                        return;
                    }
                    q = self.cv.wait(q).expect("queue lock");
                }
            };
            for job in batch {
                let resp = if self.abort.load(Ordering::SeqCst) {
                    // Drain deadline passed: answer fast, execute
                    // nothing.  The job never started, so the client's
                    // retry policy treats it like a shed.
                    self.refused.fetch_add(1, Ordering::Relaxed);
                    Response::err(job.req.id, &ServeError::draining())
                } else if job.expired() {
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    Response::err(
                        job.req.id,
                        &ServeError::new(
                            "ALP0007",
                            "client deadline passed while queued; shed unexecuted",
                        ),
                    )
                } else {
                    catch_unwind(AssertUnwindSafe(|| self.handle_now(&job.req))).unwrap_or_else(
                        |_| {
                            self.failures.fetch_add(1, Ordering::Relaxed);
                            Response::err(
                                job.req.id,
                                &ServeError::new(
                                    "ALP0008",
                                    "request handler panicked; fault contained",
                                ),
                            )
                        },
                    )
                };
                write_line(&job.out, &resp);
            }
            self.busy.fetch_sub(1, Ordering::SeqCst);
            if self.draining.load(Ordering::SeqCst) {
                self.drain_cv.notify_all();
            }
        }
    }

    /// Per-connection reader: decode frames, answer control ops and
    /// inline cache hits directly, hand the rest to admission.
    fn connection(self: &Arc<Self>, stream: UnixStream) {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let out = Arc::new(Mutex::new(stream));
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if line.len() > MAX_REQUEST_BYTES {
                self.malformed.fetch_add(1, Ordering::Relaxed);
                write_line(
                    &out,
                    &Response::err(
                        0,
                        &ServeError::new(
                            "ALP0006",
                            format!(
                                "request frame of {} bytes exceeds the {} byte limit",
                                line.len(),
                                MAX_REQUEST_BYTES
                            ),
                        ),
                    ),
                );
                continue;
            }
            let req = match Request::decode(&line) {
                Ok(r) => r,
                Err(e) => {
                    self.malformed.fetch_add(1, Ordering::Relaxed);
                    write_line(&out, &Response::err(0, &e));
                    continue;
                }
            };
            match req.op {
                RequestOp::Ping => write_line(&out, &Response::ok(req.id)),
                RequestOp::Stats => write_line(
                    &out,
                    &Response::stats_with_shards(req.id, self.stats(), self.cache.per_shard()),
                ),
                RequestOp::Shutdown => {
                    // Drain first, ack second: once the client reads
                    // the ack, refusal of new work is already in
                    // force.  The accept loop keeps running (stats/
                    // ping still answer; plan/run get `ALP0015`) while
                    // the daemon's `wait()`/`finish()` bounds the
                    // drain and performs the actual stop.
                    self.begin_drain();
                    write_line(&out, &Response::ok(req.id));
                    break;
                }
                RequestOp::Plan | RequestOp::Run => {
                    if self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst)
                    {
                        self.refused.fetch_add(1, Ordering::Relaxed);
                        write_line(&out, &Response::err(req.id, &ServeError::draining()));
                        continue;
                    }
                    // The key is computed once here, on the reader
                    // thread: the inline fast path needs it, and the
                    // worker batch drain reuses it for fingerprint
                    // distinctness without re-parsing.  Parse errors
                    // (key: None) fall through to handle_now via a
                    // worker so the reader stays responsive; they are
                    // cheap to re-derive.
                    let key = req.plan.key().ok();
                    // Tier 1: answer cached plans inline — no queue,
                    // no admission, works even under total overload.
                    if req.op == RequestOp::Plan {
                        if let Some(k) = &key {
                            if let Some(plan) = self.cache.get_cached(k) {
                                self.inline_hits.fetch_add(1, Ordering::Relaxed);
                                write_line(
                                    &out,
                                    &Response::plan_ok(
                                        req.id,
                                        Fetched::Hit.label(),
                                        &plan.fingerprint,
                                        plan.tiles(),
                                        req.want_plan.then(|| plan.to_json_string()),
                                    ),
                                );
                                continue;
                            }
                        }
                    }
                    // Tiers 2–3: bounded queue with class-based limits.
                    let id = req.id;
                    let expires = req
                        .deadline_ms
                        .map(|d| Instant::now() + Duration::from_millis(d));
                    if let Err(e) = self.submit(Job {
                        req,
                        key,
                        expires,
                        out: Arc::clone(&out),
                    }) {
                        write_line(&out, &Response::err(id, &e));
                    }
                }
            }
        }
    }
}

fn write_line(out: &Arc<Mutex<UnixStream>>, resp: &Response) {
    let mut line = resp.encode();
    line.push('\n');
    if let Ok(mut s) = out.lock() {
        // The peer may have hung up mid-flight; a failed write only
        // affects this connection.
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }
}

/// The plan service.  Construct with [`Server::new`], then either call
/// [`Server::handle_now`] directly (in-process use, tests) or bind a
/// socket with [`Server::serve`].
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Build a server (prewarming the cache per the config) without
    /// binding a socket.  Panics when the configured plan store cannot
    /// be opened — use [`Server::try_new`] to handle that and to see
    /// the recovery report.
    pub fn new(cfg: ServeConfig) -> Server {
        Server::try_new(cfg).expect("plan store opens").0
    }

    /// Build a server, opening (and replaying) the durable plan store
    /// when [`ServeConfig::store_dir`] is set.  Corrupt journal frames
    /// are quarantined inside the returned [`RecoveryReport`]
    /// (`ALP0014` warnings), never an error; `Err` is reserved for real
    /// I/O failures (permissions, full disk) opening the store.
    pub fn try_new(cfg: ServeConfig) -> std::io::Result<(Server, Option<RecoveryReport>)> {
        let cache = ShardedPlanCache::new(cfg.shards, cfg.cache_capacity);
        let (store, report) = match &cfg.store_dir {
            Some(dir) => {
                let (store, report) = PlanStore::open(dir)?;
                (Some(Mutex::new(store)), Some(report))
            }
            None => (None, None),
        };
        let mut replayed = 0u64;
        if let Some(r) = &report {
            // Later journal entries supersede earlier ones per key (the
            // store already resolved that); warm every survivor.
            for e in &r.live {
                if cache.warm(e.key, Arc::clone(&e.plan)) {
                    replayed += 1;
                }
            }
        }
        let inner = Arc::new(Inner {
            cache,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            drain_mx: Mutex::new(()),
            drain_cv: Condvar::new(),
            store,
            sock: Mutex::new(None),
            inline_hits: AtomicU64::new(0),
            shed_plan: AtomicU64::new(0),
            shed_run: AtomicU64::new(0),
            runs_ok: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            replayed,
            cfg,
        });
        for spec in &inner.cfg.prewarm {
            if let Ok(key) = spec.key() {
                let spec = spec.clone();
                // Prewarmed plans are journaled like any other compute:
                // the store must cover the hot set, or a restart would
                // cold-start exactly the plans that matter most.
                if let Ok((plan, how)) = inner.cache.get_or_compute(key, move || build_plan(&spec))
                {
                    if how == Fetched::Computed {
                        inner.journal(&key, &plan);
                    }
                }
            }
        }
        Ok((Server { inner }, report))
    }

    /// Process one request synchronously, bypassing admission (the
    /// caller owns its own thread).  Control ops work too.
    pub fn handle_now(&self, req: &Request) -> Response {
        self.inner.handle_now(req)
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Bind `path` and serve until a `shutdown` request arrives.
    /// Returns immediately; the returned handle joins the accept loop
    /// and worker pool.
    pub fn serve(self, path: &Path) -> std::io::Result<ServerHandle> {
        // A stale socket file from a dead server would fail the bind.
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        let inner = self.inner;
        *inner.sock.lock().expect("sock lock") = Some(path.to_path_buf());
        let workers: Vec<JoinHandle<()>> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker())
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let inner = Arc::clone(&inner);
                    // Readers exit on EOF or shutdown; they are not
                    // joined (a daemon outlives any one connection).
                    std::thread::spawn(move || inner.connection(stream));
                }
            })
        };
        Ok(ServerHandle {
            path: path.to_path_buf(),
            inner,
            accept: Some(accept),
            workers,
        })
    }
}

/// Outcome of a bounded graceful drain ([`ServerHandle::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct DrainOutcome {
    /// Final counters at stop time.
    pub stats: ServerStats,
    /// True when every admitted job completed inside the deadline;
    /// false when the drain was cut short.
    pub drained: bool,
    /// Jobs still queued when the deadline passed — each was answered
    /// `ALP0015` without being executed.
    pub abandoned: usize,
}

/// A running server bound to a socket.
pub struct ServerHandle {
    path: PathBuf,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// True once the server stopped admitting new plan/run work — a
    /// `shutdown` request arrived, a drain began, or
    /// [`ServerHandle::shutdown`] was called.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst) || self.inner.draining.load(Ordering::SeqCst)
    }

    /// True once the graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Begin the graceful drain without blocking: new plan/run work is
    /// refused with `ALP0015` while admitted jobs keep executing.
    /// Idempotent.  Call [`ServerHandle::finish`] (or
    /// [`ServerHandle::shutdown`]) to bound the drain and stop.
    pub fn begin_drain(&self) {
        self.inner.begin_drain();
    }

    /// Bounded graceful stop: begin the drain (idempotent), wait up to
    /// `deadline` for every admitted job to finish, then stop the
    /// accept loop, join workers, fsync the journal, and remove the
    /// socket file.  Past the deadline, still-queued jobs are answered
    /// `ALP0015` unexecuted and counted as `abandoned`.
    pub fn finish(mut self, deadline: Duration) -> DrainOutcome {
        let start = Instant::now();
        self.inner.begin_drain();
        let mut drained = true;
        {
            let mut g = self.inner.drain_mx.lock().expect("drain lock");
            while !self.inner.queue_idle() {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    drained = false;
                    break;
                }
                let (ng, _) = self
                    .inner
                    .drain_cv
                    .wait_timeout(g, (deadline - elapsed).min(Duration::from_millis(20)))
                    .expect("drain lock");
                g = ng;
            }
        }
        let abandoned = if drained {
            0
        } else {
            let n = self.inner.queue.lock().expect("queue lock").len();
            // Workers answer the leftovers with `ALP0015` on their way
            // out instead of executing them.
            self.inner.abort.store(true, Ordering::SeqCst);
            n
        };
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        // Wake the blocking accept with a throwaway connection.
        let _ = UnixStream::connect(&self.path);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(store) = &self.inner.store {
            if let Ok(s) = store.lock() {
                if let Err(e) = s.sync() {
                    eprintln!("alp-serve: warning: journal fsync failed: {e}");
                }
            }
        }
        let _ = std::fs::remove_file(&self.path);
        DrainOutcome {
            stats: self.inner.stats(),
            drained,
            abandoned,
        }
    }

    /// Stop accepting, drain the queue (bounded by the config's drain
    /// deadline), join every worker, and remove the socket file.
    pub fn shutdown(self) -> ServerStats {
        let deadline = Duration::from_millis(self.inner.cfg.drain_deadline_ms);
        self.finish(deadline).stats
    }

    /// Block until a drain begins (a client sent `shutdown`, a signal
    /// handler called [`ServerHandle::begin_drain`], or someone set the
    /// shutdown flag), then run the bounded drain and clean up — the
    /// daemon's main thread parks here.
    pub fn wait(self) -> ServerStats {
        {
            let mut g = self.inner.drain_mx.lock().expect("drain lock");
            while !self.inner.draining.load(Ordering::SeqCst)
                && !self.inner.shutdown.load(Ordering::SeqCst)
            {
                g = self.inner.drain_cv.wait(g).expect("drain lock");
            }
        }
        let deadline = Duration::from_millis(self.inner.cfg.drain_deadline_ms);
        self.finish(deadline).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Preload the queue with plan requests for `sources`, set the
    /// shutdown flag, and run one worker to completion: every batch the
    /// worker takes is observable through the `batched` counter, with
    /// no socket or timing in the loop.
    fn drain_once(sources: &[&str]) -> (ServerStats, Vec<UnixStream>) {
        let server = Server::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let inner = Arc::clone(&server.inner);
        let mut readers = Vec::new();
        {
            let mut q = inner.queue.lock().expect("queue lock");
            for (i, src) in sources.iter().enumerate() {
                let req = Request::plan(i as i128, src);
                let key = req.plan.key().ok();
                let (a, b) = UnixStream::pair().expect("socketpair");
                readers.push(b);
                q.push_back(Job {
                    req,
                    key,
                    expires: None,
                    out: Arc::new(Mutex::new(a)),
                });
            }
        }
        // The worker drains everything queued, then exits on the flag.
        inner.shutdown.store(true, Ordering::SeqCst);
        inner.worker();
        (inner.stats(), readers)
    }

    fn responses(readers: Vec<UnixStream>) -> usize {
        let mut answered = 0;
        for r in readers {
            // Drop the server-side writer clones first: worker already
            // ran, so the response (if any) is buffered in the socket.
            r.set_nonblocking(true).expect("nonblocking");
            let mut line = String::new();
            if BufReader::new(r).read_line(&mut line).is_ok() && !line.trim().is_empty() {
                Response::decode(&line).expect("response decodes");
                answered += 1;
            }
        }
        answered
    }

    #[test]
    fn one_wakeup_drains_all_distinct_fingerprints() {
        // Four distinct nests queued before the worker wakes: one batch
        // takes them all, so three are batch tails.
        let sources: Vec<String> = (0..4)
            .map(|k| format!("doall (i, 0, {}) {{ A[i] = A[i]; }}", 15 + k))
            .collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let (stats, readers) = drain_once(&refs);
        assert_eq!(stats.batched, 3, "one wakeup, four distinct jobs");
        assert_eq!(stats.misses, 4, "each distinct nest compiled once");
        assert_eq!(responses(readers), 4, "every job answered");
    }

    #[test]
    fn duplicate_fingerprint_splits_the_batch() {
        // Keys A B A C: the first batch stops at the repeated A (by the
        // time a later wakeup takes it, its leader has published the
        // plan), so the drain is [A B] then [A C] — one tail each.
        let a = "doall (i, 0, 15) { A[i] = A[i]; }";
        let b = "doall (i, 0, 31) { B[i] = B[i]; }";
        let c = "doall (i, 0, 63) { C[i] = C[i]; }";
        let (stats, readers) = drain_once(&[a, b, a, c]);
        assert_eq!(stats.batched, 2, "two batches of two");
        assert_eq!(stats.misses, 3, "three distinct nests compiled");
        assert_eq!(stats.hits, 1, "the repeated key hits the cache");
        assert_eq!(responses(readers), 4);
    }

    #[test]
    fn abandoned_leader_is_re_elected_during_drain() {
        // A compile leader that dies mid-flight marks its shard slot
        // Abandoned; the drain phase must not prevent a successor from
        // claiming the slot and finishing the admitted work — drain
        // refuses *new* requests at the door, it never wedges work
        // already inside.
        let server = Server::new(ServeConfig::default());
        let inner = Arc::clone(&server.inner);
        inner.begin_drain();
        let req = Request::plan(1, "doall (i, 0, 63) { A[i] = A[i]; }");
        let key = req.plan.key().expect("key");
        {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    inner
                        .cache
                        .get_or_compute(key, || -> Result<_, ServeError> {
                            panic!("injected leader death")
                        })
                }));
            })
            .join()
            .expect("leader thread joins");
        }
        // The successor — an admitted job a worker is draining — takes
        // over the abandoned slot and completes.
        let resp = inner.handle_now(&req);
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.cache.as_deref(), Some("computed"), "{resp:?}");
    }

    #[test]
    fn batch_cap_bounds_a_single_drain() {
        let sources: Vec<String> = (0..WORKER_BATCH + 3)
            .map(|k| format!("doall (i, 0, {}) {{ A[i] = A[i]; }}", 7 + k))
            .collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let (stats, readers) = drain_once(&refs);
        // Two wakeups: a full batch of WORKER_BATCH, then the 3 left.
        assert_eq!(stats.batched, (WORKER_BATCH - 1 + 2) as u64);
        assert_eq!(responses(readers), WORKER_BATCH + 3);
    }
}
