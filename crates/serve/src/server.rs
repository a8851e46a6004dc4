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
//!    [`ServeConfig::queue_cap`].  Admission is one value under one
//!    lock — the queued jobs, the lifecycle phase and the count of jobs
//!    in execution — so the phase check, the depth check and the push
//!    are one step, and a worker takes one job per wakeup.
//! 3. **Graceful degradation** — `run` requests cost strictly more
//!    than `plan` requests (compile *plus* native execution), so they
//!    shed earlier: at [`ServeConfig::run_high_water`] (default half
//!    the queue) rather than at full capacity.  Shed requests fail
//!    fast with the stable `ALP0012` code and were never partially
//!    executed — retrying is always safe.
//!
//! ## One request path
//!
//! A request is read as one bounded frame ([`MAX_REQUEST_BYTES`]; a
//! longer one, one that is not UTF-8, or one the codec refuses is an
//! `ALP0006` counted under `malformed`, and the connection goes on),
//! and its spec is resolved to a key once, on the reader thread: a
//! source text the cache has recorded gives its key by the text alone
//! ([`ShardedPlanCache::key_by_text`]: no parse, no fingerprint); any
//! other is parsed and fingerprinted ([`PlanSpec::resolve`]), and its
//! key is recorded for the next time.  A hit counts where its plan is
//! taken, never at resolution, so a request shed after it counts none.
//! The resolution rides in the queued job, so the worker plans the nest
//! it was handed; the socket reader, an in-process
//! [`Server::handle_now`] and the prewarm loop resolve through one
//! function and take the plan through one more (memoize; on a miss read
//! the journal, else build and journal), one function words the plan
//! reply, one answers the control ops.
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
//! With [`ServeConfig::store_dir`] set, every plan the daemon *builds*
//! is also appended to a crash-safe [`PlanStore`] journal, and startup
//! replays the journal into the sharded cache before the first request —
//! a restarted daemon keeps its hot set instead of paying a recompile
//! storm (`replayed` counter; corrupt tail frames are quarantined with
//! `ALP0014`, never fatal).  The journal also stands beneath the cache
//! while serving: a key the cache evicted is read back from its frame
//! (`journal_reads` counter) instead of re-planned, and is not journaled
//! again, so each key compiles and is journaled once.  Its reply is still
//! labelled `computed`.  A frame that cannot be read or does not check
//! is logged and the plan is built and appended, superseding it.
//!
//! Shutdown is a two-phase drain rather than a cliff, and the
//! lifecycle only moves forward (serving → draining → stopped): a
//! protocol `shutdown` (or the daemon's SIGTERM) moves the server to
//! **draining** — new `plan`/`run` requests are refused with `ALP0015`
//! (`stats`/`ping` still answer) while workers finish everything
//! already admitted.  [`ServerHandle::finish`] bounds the drain with a
//! deadline; past it, the move to **stopped** takes the still-queued
//! jobs under the same lock that moves the phase, `finish` answers each
//! with `ALP0015` *unexecuted*, and the journal is fsynced before the
//! process exits.

use crate::pipeline::{run_plan, PlanSpec};
use crate::protocol::{Request, RequestOp, Response};
use crate::ServeError;
use alp_loopir::LoopNest;
use alp_plan::json::{self, FieldError, Item, ObjWriter};
use alp_plan::{Fetched, PartitionPlan, PlanKey, PlanStore, RecoveryReport, ShardedPlanCache};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    pub prewarm: Vec<PlanSpec>,
    /// Directory of the durable plan journal; `None` disables
    /// persistence.  Built plans are appended, startup replays, and a
    /// cache miss reads the key's plan back before it builds one.
    pub store_dir: Option<PathBuf>,
    /// Default bound on the graceful drain, in milliseconds; past it,
    /// still-queued jobs are refused unexecuted.
    pub drain_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = crate::pipeline::host_cores();
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

/// Declares [`ServerStats`], its codec and its live form from one list
/// of counters: the struct's fields, the keys `encode` writes (in this
/// order), the keys `decode` reads and the atomics a server bumps are
/// the same names by construction.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Cumulative server counters, exposed through the `stats` op.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// Encode as a single-line JSON object.
            pub fn encode(&self) -> String {
                json::line(|w| self.write_fields(w))
            }

            /// Append every counter, in declaration order.
            pub(crate) fn write_fields(&self, w: &mut ObjWriter<'_>) {
                $(w.field(stringify!($name)).int(self.$name);)*
            }

            /// Decode from the object embedded in a `stats` response;
            /// absent fields read as zero.
            pub fn decode(f: Item<'_>) -> Result<ServerStats, FieldError> {
                Ok(ServerStats {
                    $($name: f.opt(stringify!($name), Item::int)?.unwrap_or(0),)*
                })
            }
        }

        /// [`ServerStats`] while the server runs.  The cache counts its
        /// own four under the shard locks and admission holds the depth;
        /// theirs here stay zero and [`Inner::stats`] overlays them.
        #[derive(Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl Counters {
            fn snapshot(&self) -> ServerStats {
                ServerStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

server_stats! {
    /// Cache hits (inline fast path plus worker-path hits).
    hits,
    /// Compile leaders: each built one plan or read it back from the
    /// journal (`journal_reads`).
    misses,
    /// Requests that waited on another request's in-flight compile.
    coalesced,
    /// SIEVE evictions across shards.
    evictions,
    /// Subset of `hits` answered on reader threads without queueing.
    inline_hits,
    /// `plan` requests shed with `ALP0012`.
    shed_plan,
    /// `run` requests shed with `ALP0012`.
    shed_run,
    /// Successful runs.
    runs_ok,
    /// Requests that failed in the pipeline (any code but `ALP0012`).
    failures,
    /// Queue depth at snapshot time.
    depth,
    /// Always 0: a worker takes one job per wakeup, so no job is the
    /// tail of a batch.  The counter stays so every `stats` frame keeps
    /// its keys.
    batched,
    /// Malformed or oversized request frames (undecodable JSON, bytes
    /// that are not UTF-8, bad version, a field that is mistyped or
    /// outside its type's range, frames past the size limit) — answered
    /// with `ALP0006` but counted here so an operator can see protocol
    /// abuse.
    malformed,
    /// Queued jobs shed unexecuted because the client's propagated
    /// deadline passed before a worker reached them (`ALP0007`).
    expired,
    /// Requests refused with `ALP0015` while draining (including jobs
    /// abandoned past the drain deadline).
    refused,
    /// Plans re-warmed from the durable journal at startup.
    replayed,
    /// Cache misses answered by reading the key's plan back from the
    /// durable journal instead of building it.
    journal_reads,
}

impl ServerStats {
    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_plan + self.shed_run
    }
}

/// What [`Inner::resolve`] made of a plan or run request's spec.
enum Resolved {
    /// The key an earlier request of exactly this text parsed to, known
    /// without a parse.
    Known(PlanKey),
    /// What [`PlanSpec::resolve`] made of the source.
    Parsed(Result<(LoopNest, PlanKey), ServeError>),
}

impl Resolved {
    fn key(&self) -> Option<PlanKey> {
        match self {
            Resolved::Known(key) | Resolved::Parsed(Ok((_, key))) => Some(*key),
            Resolved::Parsed(Err(_)) => None,
        }
    }
}

struct Job {
    req: Request,
    /// The reader thread's resolution of `req.plan`, made once at
    /// admission: the inline fast path needed the key, and the worker
    /// plans the nest (or reports the parse error) it carries instead of
    /// resolving again.
    resolved: Resolved,
    /// Absolute expiry derived from the client's `deadline_ms` at
    /// admission; a worker sheds the job unexecuted once past it.
    expires: Option<Instant>,
    out: Arc<Mutex<UnixStream>>,
}

/// The longest request frame (newline excluded) the server reads.  The
/// reader stops one byte past it, answers `ALP0006` and discards the
/// rest of the frame unstored, so a corrupt or hostile peer cannot make
/// it buffer unbounded JSON — with or without a newline in sight.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The server's lifecycle; it only moves forward.  `Draining` refuses
/// new plan/run work (`ALP0015`) while workers finish what was already
/// admitted; `Stopped` ends the accept loop and hands back whatever is
/// still queued — the drain deadline passed — to be answered `ALP0015`
/// instead of executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Serving,
    Draining,
    Stopped,
}

/// Why [`Admission::admit`] turned a job away.
enum Refusal {
    /// The server is past `Serving` (`ALP0015`).
    Draining,
    /// The queue already held `depth` jobs, the job's class limit or
    /// more (`ALP0012`).
    Full { depth: usize },
}

/// Admission as one value: the queued jobs, the lifecycle phase, and how
/// many taken jobs workers are still executing.  The server keeps it
/// under one mutex; its transitions are plain steps with no socket,
/// thread or clock, so a test walks their schedules directly.
struct Admission<J> {
    jobs: VecDeque<J>,
    phase: Phase,
    busy: usize,
}

impl<J> Admission<J> {
    fn new() -> Self {
        Admission {
            jobs: VecDeque::new(),
            phase: Phase::Serving,
            busy: 0,
        }
    }

    /// Queue `job`, unless the server is past `Serving` or the queue
    /// already holds `limit` jobs (the job's class limit): the bound is
    /// exact.
    fn admit(&mut self, job: J, limit: usize) -> Result<(), Refusal> {
        if self.phase != Phase::Serving {
            return Err(Refusal::Draining);
        }
        let depth = self.jobs.len();
        if depth >= limit {
            return Err(Refusal::Full { depth });
        }
        self.jobs.push_back(job);
        Ok(())
    }

    /// The oldest queued job, counted busy until [`Admission::done`].
    fn take(&mut self) -> Option<J> {
        self.busy += usize::from(!self.jobs.is_empty());
        self.jobs.pop_front()
    }

    /// A worker finished the job it took.
    fn done(&mut self) {
        self.busy -= 1;
    }

    /// Move on to `phase`, never back.  The move to `Stopped` hands back
    /// the jobs still queued; no other move hands back any.
    fn advance(&mut self, phase: Phase) -> VecDeque<J> {
        self.phase = self.phase.max(phase);
        match self.phase {
            Phase::Stopped => std::mem::take(&mut self.jobs),
            _ => VecDeque::new(),
        }
    }

    /// No admitted work remains: nothing queued and no job in execution.
    fn idle(&self) -> bool {
        self.jobs.is_empty() && self.busy == 0
    }
}

struct Inner {
    cfg: ServeConfig,
    cache: ShardedPlanCache<ServeError>,
    admission: Mutex<Admission<Job>>,
    /// Wakes workers: a job was admitted or the phase moved.
    work: Condvar,
    /// Wakes a parked `wait()` or `finish()`: the phase moved, or the
    /// last admitted job finished after the drain began.
    idle: Condvar,
    /// Durable journal of built plans, when configured.
    store: Option<Mutex<PlanStore>>,
    /// `replayed` is fixed at construction.
    n: Counters,
}

impl Inner {
    /// Answer a control op (`ping` / `stats` / `shutdown`).
    fn control(&self, req: &Request) -> Response {
        match req.op {
            RequestOp::Stats => {
                Response::stats_with_shards(req.id, self.stats(), self.cache.per_shard())
            }
            _ => Response::ok(req.id),
        }
    }

    /// A request's key by its text alone, when the cache has recorded the
    /// text; otherwise the source is parsed and fingerprinted, and the
    /// key it gives is recorded for the next time.
    fn resolve(&self, spec: &PlanSpec) -> Resolved {
        if let Some(key) = self.cache.key_by_text(&spec.source, |f| spec.key_for(f)) {
            return Resolved::Known(key);
        }
        let parsed = spec.resolve();
        if let Ok((_, key)) = &parsed {
            self.cache.record_text(&spec.source, *key);
        }
        Resolved::Parsed(parsed)
    }

    /// The plan for `spec`, from its resolution.  A known key whose plan
    /// is no longer cached parses the source after all.
    fn plan(
        &self,
        spec: &PlanSpec,
        resolved: Resolved,
    ) -> Result<(Arc<PartitionPlan>, Fetched), ServeError> {
        let (nest, key) = match resolved {
            Resolved::Known(key) => match self.cache.get_cached(&key) {
                Some(plan) => return Ok((plan, Fetched::Hit)),
                None => spec.resolve()?,
            },
            Resolved::Parsed(parsed) => parsed?,
        };
        self.fetch(key, || spec.build(&nest))
    }

    /// Answer a plan/run request from the resolution of its spec —
    /// the reader thread's, carried by the [`Job`], or an in-process
    /// caller's own.  Every pipeline failure, the resolution's included,
    /// counts one `failures` here.
    fn answer(&self, req: &Request, resolved: Resolved) -> Response {
        let outcome = self.plan(&req.plan, resolved).and_then(|(plan, how)| {
            if req.op != RequestOp::Run {
                return Ok(plan_reply(req, &plan, how));
            }
            let run = run_plan(&plan, &req.run)?;
            self.n.runs_ok.fetch_add(1, Ordering::Relaxed);
            Ok(Response::run_ok(
                req.id,
                how.label(),
                &plan.fingerprint,
                plan.tiles(),
                &run,
            ))
        });
        outcome.unwrap_or_else(|e| {
            self.n.failures.fetch_add(1, Ordering::Relaxed);
            Response::err(req.id, &e)
        })
    }

    /// The plan under `key`: cached, awaited from another request's
    /// in-flight compile, or fetched here — read back from the journal
    /// when it holds the key, otherwise made and then journaled, whoever
    /// asked (a worker, an in-process caller, the prewarm loop): the
    /// store must cover everything computed, or a restart would
    /// cold-start exactly the plans that matter most.  The read runs as
    /// the compile does, so coalesced waiters share it.
    fn fetch(
        &self,
        key: PlanKey,
        make: impl FnOnce() -> Result<PartitionPlan, ServeError>,
    ) -> Result<(Arc<PartitionPlan>, Fetched), ServeError> {
        let mut built = false;
        let (plan, how) = self.cache.get_or_compute(key, || {
            if let Some(plan) = self.read_back(&key) {
                return Ok(plan);
            }
            built = true;
            make()
        })?;
        if built {
            self.journal(&key, &plan);
        }
        Ok((plan, how))
    }

    /// The plan the journal holds for `key`, if one is configured and
    /// holds it.  The frame's bytes are read under the store's lock and
    /// checked and decoded after it; a frame that cannot be read or does
    /// not check is logged and reads as nothing, and the plan the caller
    /// then builds supersedes it.
    fn read_back(&self, key: &PlanKey) -> Option<PartitionPlan> {
        let store = self.store.as_ref()?;
        let frame = store.lock().ok()?.read(key);
        let plan = match frame {
            Ok(None) => return None,
            Ok(Some(frame)) => frame.plan(),
            Err(e) => Err(e.to_string()),
        };
        match plan {
            Ok(plan) => {
                self.n.journal_reads.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            Err(e) => {
                eprintln!("alp-serve: warning: journal read failed: {e}");
                None
            }
        }
    }

    /// Append a freshly built plan to the durable journal, if one is
    /// configured.  Journaling is best-effort: the serving path never
    /// fails because the disk did — the plan is already cached and the
    /// response already correct — but each incident is logged.
    fn journal(&self, key: &PlanKey, plan: &Arc<PartitionPlan>) {
        if let Some(store) = &self.store {
            if let Ok(mut s) = store.lock() {
                if let Err(e) = s.append(key, plan) {
                    eprintln!("alp-serve: warning: journal append failed: {e}");
                }
            }
        }
    }

    fn admission(&self) -> MutexGuard<'_, Admission<Job>> {
        self.admission.lock().expect("admission lock")
    }

    fn reached(&self, phase: Phase) -> bool {
        self.admission().phase >= phase
    }

    /// Move on to `phase` (never back) and wake whoever waits on it:
    /// idle workers, and any parked `wait()` or `finish()`.  The jobs
    /// the move to `Stopped` hands back are answered `ALP0015` here,
    /// unexecuted; returns how many there were.
    fn advance(&self, phase: Phase) -> usize {
        let left = self.admission().advance(phase);
        self.work.notify_all();
        self.idle.notify_all();
        for job in &left {
            write_line(&job.out, &Response::err(job.req.id, &self.refuse()));
        }
        left.len()
    }

    /// Count and word one `ALP0015` refusal.
    fn refuse(&self) -> ServeError {
        self.n.refused.fetch_add(1, Ordering::Relaxed);
        ServeError::draining()
    }

    /// Admission: queue the job or shed it with `ALP0012` at its class
    /// limit (or refuse it with `ALP0015` once draining).
    fn submit(&self, job: Job) -> Result<(), ServeError> {
        let cap = self.cfg.queue_cap;
        let (limit, shed) = match job.req.op {
            RequestOp::Run => (
                self.cfg.run_high_water.unwrap_or(cap / 2).min(cap),
                &self.n.shed_run,
            ),
            _ => (cap, &self.n.shed_plan),
        };
        let admitted = self.admission().admit(job, limit);
        match admitted {
            Ok(()) => self.work.notify_one(),
            Err(Refusal::Draining) => return Err(self.refuse()),
            Err(Refusal::Full { depth }) => {
                shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::overloaded(depth, cap));
            }
        }
        Ok(())
    }

    fn stats(&self) -> ServerStats {
        let c = self.cache.stats();
        ServerStats {
            hits: c.hits,
            misses: c.misses,
            coalesced: c.coalesced,
            evictions: c.evictions,
            depth: self.admission().jobs.len() as u64,
            ..self.n.snapshot()
        }
    }

    /// Worker loop: take one job per wakeup and answer it under panic
    /// containment, so a handler bug drops one response, never a
    /// worker.  Past `Serving`, workers finish what is queued, then
    /// exit; the worker that finishes the last job of a drain wakes
    /// `finish`.
    fn worker(&self) {
        let waiting = |a: &mut Admission<Job>| a.jobs.is_empty() && a.phase == Phase::Serving;
        let mut a = self.admission();
        a = self.work.wait_while(a, waiting).expect("admission lock");
        while let Some(job) = a.take() {
            drop(a);
            let answered = if job.expires.is_some_and(|t| Instant::now() > t) {
                self.n.expired.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::new(
                    "ALP0007",
                    "client deadline passed while queued; shed unexecuted",
                ))
            } else {
                let answer = AssertUnwindSafe(|| self.answer(&job.req, job.resolved));
                catch_unwind(answer).map_err(|_| {
                    self.n.failures.fetch_add(1, Ordering::Relaxed);
                    ServeError::new("ALP0008", "request handler panicked; fault contained")
                })
            };
            let resp = answered.unwrap_or_else(|e| Response::err(job.req.id, &e));
            write_line(&job.out, &resp);
            a = self.admission();
            a.done();
            if a.idle() && a.phase != Phase::Serving {
                self.idle.notify_all();
            }
            a = self.work.wait_while(a, waiting).expect("admission lock");
        }
    }

    /// Per-connection reader: read bounded frames, answer control ops
    /// and inline cache hits directly, hand the rest to admission.
    fn connection(self: &Arc<Self>, stream: UnixStream) {
        let Ok(mut reader) = stream.try_clone().map(BufReader::new) else {
            return;
        };
        let out = Arc::new(Mutex::new(stream));
        let mut frame = Vec::new();
        loop {
            frame.clear();
            // The largest legal frame is the limit plus its newline, so
            // one byte more without a newline is an oversized frame.
            let mut bounded = (&mut reader).take(MAX_REQUEST_BYTES as u64 + 1);
            match bounded.read_until(b'\n', &mut frame) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let oversized = frame.len() > MAX_REQUEST_BYTES && !frame.ends_with(b"\n");
            let decoded = if oversized {
                Err(ServeError::bad_frame(format_args!(
                    "request exceeds the {MAX_REQUEST_BYTES} byte limit"
                )))
            } else {
                match std::str::from_utf8(&frame).map(str::trim) {
                    Ok("") => continue,
                    Ok(line) => Request::decode(line),
                    Err(e) => Err(ServeError::bad_frame(e)),
                }
            };
            let req = match decoded {
                Ok(req) => req,
                Err(e) => {
                    self.n.malformed.fetch_add(1, Ordering::Relaxed);
                    write_line(&out, &Response::err(0, &e));
                    // Answered at once; what is left of an oversized
                    // frame is then read past without being stored, and
                    // the connection survives it like any other
                    // malformed frame.
                    if oversized && reader.skip_until(b'\n').is_err() {
                        break;
                    }
                    continue;
                }
            };
            match req.op {
                RequestOp::Plan | RequestOp::Run => {
                    if self.reached(Phase::Draining) {
                        write_line(&out, &Response::err(req.id, &self.refuse()));
                        continue;
                    }
                    let resolved = self.resolve(&req.plan);
                    // Tier 1: answer cached plans inline — no queue,
                    // no admission, works even under total overload.
                    if let (RequestOp::Plan, Some(key)) = (&req.op, resolved.key()) {
                        if let Some(plan) = self.cache.get_cached(&key) {
                            self.n.inline_hits.fetch_add(1, Ordering::Relaxed);
                            write_line(&out, &plan_reply(&req, &plan, Fetched::Hit));
                            continue;
                        }
                    }
                    // Tiers 2–3: bounded queue with class-based limits.
                    // A source that did not parse queues too — a worker
                    // reports it, so the reader stays responsive and
                    // admission sheds it like any other request.
                    let id = req.id;
                    let expires = req
                        .deadline_ms
                        .map(|d| Instant::now() + Duration::from_millis(d));
                    if let Err(e) = self.submit(Job {
                        req,
                        resolved,
                        expires,
                        out: Arc::clone(&out),
                    }) {
                        write_line(&out, &Response::err(id, &e));
                    }
                }
                RequestOp::Shutdown => {
                    // Drain first, ack second: once the client reads
                    // the ack, refusal of new work is already in
                    // force.  The accept loop keeps running (stats/
                    // ping still answer; plan/run get `ALP0015`) while
                    // the daemon's `wait()`/`finish()` bounds the
                    // drain and performs the actual stop.
                    self.advance(Phase::Draining);
                    write_line(&out, &self.control(&req));
                    break;
                }
                _ => write_line(&out, &self.control(&req)),
            }
        }
    }
}

/// The reply to a `plan` request, from the inline hit and the worker
/// alike.
fn plan_reply(req: &Request, plan: &PartitionPlan, how: Fetched) -> Response {
    Response::plan_ok(
        req.id,
        how.label(),
        &plan.fingerprint,
        plan.tiles(),
        req.want_plan.then(|| plan.to_json_string()),
    )
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
        // Later journal entries supersede earlier ones per key (the
        // store already resolved that); warm every survivor.
        let live = report.iter().flat_map(|r| &r.live);
        let replayed = live
            .filter(|e| cache.warm(e.key, Arc::clone(&e.plan)))
            .count();
        let inner = Arc::new(Inner {
            cache,
            admission: Mutex::new(Admission::new()),
            work: Condvar::new(),
            idle: Condvar::new(),
            store,
            n: Counters {
                replayed: AtomicU64::new(replayed as u64),
                ..Counters::default()
            },
            cfg,
        });
        for spec in &inner.cfg.prewarm {
            let _ = inner.plan(spec, inner.resolve(spec));
        }
        Ok((Server { inner }, report))
    }

    /// Process one request synchronously, bypassing admission (the
    /// caller owns its own thread).  Control ops work too; a `shutdown`
    /// is only acknowledged — draining is the socket's and the
    /// [`ServerHandle`]'s business.
    pub fn handle_now(&self, req: &Request) -> Response {
        match req.op {
            RequestOp::Plan | RequestOp::Run => {
                self.inner.answer(req, self.inner.resolve(&req.plan))
            }
            _ => self.inner.control(req),
        }
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
                    if inner.reached(Phase::Stopped) {
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

    /// True once the graceful drain has begun: the server stopped
    /// admitting new plan/run work because a `shutdown` request arrived
    /// or [`ServerHandle::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.inner.reached(Phase::Draining)
    }

    /// Begin the graceful drain without blocking: new plan/run work is
    /// refused with `ALP0015` while admitted jobs keep executing.
    /// Idempotent.  Call [`ServerHandle::finish`] (or
    /// [`ServerHandle::shutdown`]) to bound the drain and stop.
    pub fn begin_drain(&self) {
        self.inner.advance(Phase::Draining);
    }

    /// Bounded graceful stop: begin the drain (idempotent), wait up to
    /// `deadline` for every admitted job to finish, then stop the
    /// accept loop, join workers, fsync the journal, and remove the
    /// socket file.  Past the deadline, still-queued jobs are answered
    /// `ALP0015` unexecuted and counted as `abandoned`.
    pub fn finish(mut self, deadline: Duration) -> DrainOutcome {
        self.inner.advance(Phase::Draining);
        let busy = |a: &mut Admission<Job>| !a.idle();
        let a = self.inner.admission();
        let waited = self.inner.idle.wait_timeout_while(a, deadline, busy);
        let drained = !waited.expect("admission lock").1.timed_out();
        // Drained, nothing is queued and nothing can be any more; cut
        // short, the move to `Stopped` takes the leftovers and answers
        // them with `ALP0015` instead of executing them.
        let abandoned = self.inner.advance(Phase::Stopped);
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

    /// Block until a drain begins (a client sent `shutdown`, or a signal
    /// handler called [`ServerHandle::begin_drain`]), then run the
    /// bounded drain and clean up — the daemon's main thread parks here.
    pub fn wait(self) -> ServerStats {
        let serving = |a: &mut Admission<Job>| a.phase == Phase::Serving;
        let waited = self.inner.idle.wait_while(self.inner.admission(), serving);
        drop(waited.expect("admission lock"));
        self.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream of events for the schedule walk.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn admission_keeps_its_invariants_over_seeded_schedules() {
        // Random interleavings of what the reader, the workers and the
        // drain do to admission, checked against a model after every
        // event: the jobs admitted and not yet taken or handed back, in
        // order, and the jobs taken and not yet done.
        const CAP: usize = 5;
        const HIGH_WATER: usize = 2;
        for seed in 0..2_000 {
            let mut rng = Rng(seed);
            let mut a = Admission::<u32>::new();
            let mut queued = VecDeque::new();
            let mut busy = 0;
            let mut next = 0;
            for step in 0..200 {
                let before = a.phase;
                match rng.below(1_000) {
                    // Admit a plan (30 %) or a run (20 %).
                    event @ 0..=499 => {
                        let limit = if event < 300 { CAP } else { HIGH_WATER };
                        let depth = queued.len();
                        match a.admit(next, limit) {
                            Ok(()) => {
                                assert!(
                                    before == Phase::Serving && depth < limit,
                                    "seed {seed} step {step}: admitted at depth {depth} \
                                     of limit {limit} while {before:?}"
                                );
                                queued.push_back(next);
                                next += 1;
                            }
                            Err(Refusal::Draining) => {
                                assert_ne!(before, Phase::Serving, "seed {seed} step {step}")
                            }
                            Err(Refusal::Full { depth: d }) => assert!(
                                before == Phase::Serving && d == depth && depth >= limit,
                                "seed {seed} step {step}: shed at depth {d} of limit {limit}"
                            ),
                        }
                    }
                    // A worker takes a job.
                    500..=749 => {
                        let job = a.take();
                        busy += usize::from(job.is_some());
                        assert_eq!(job, queued.pop_front(), "seed {seed} step {step}: FIFO");
                    }
                    // A worker finishes one.
                    750..=979 => {
                        if busy > 0 {
                            a.done();
                            busy -= 1;
                        }
                    }
                    // The drain begins.
                    980..=994 => assert!(
                        a.advance(Phase::Draining).is_empty(),
                        "seed {seed} step {step}: only the move to Stopped hands jobs back"
                    ),
                    // The drain deadline passes.
                    _ => assert!(
                        a.advance(Phase::Stopped).into_iter().eq(queued.drain(..)),
                        "seed {seed} step {step}: Stopped hands back the queue, in order"
                    ),
                }
                assert!(
                    a.jobs.len() <= CAP,
                    "seed {seed} step {step}: over capacity"
                );
                assert!(
                    a.phase >= before,
                    "seed {seed} step {step}: phase moved back"
                );
                assert!(
                    a.jobs.iter().eq(queued.iter()),
                    "seed {seed} step {step}: the queue is not the jobs admitted and not taken"
                );
                assert_eq!(
                    a.idle(),
                    queued.is_empty() && busy == 0,
                    "seed {seed} step {step}: idle with {} queued and {busy} busy",
                    queued.len()
                );
            }
        }
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
        inner.advance(Phase::Draining);
        let req = Request::plan(1, "doall (i, 0, 63) { A[i] = A[i]; }");
        let key = req.plan.key().expect("key");
        {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    inner.fetch(key, || panic!("injected leader death"))
                }));
            })
            .join()
            .expect("leader thread joins");
        }
        // The successor — an admitted job a worker is draining — takes
        // over the abandoned slot and completes.
        let resp = server.handle_now(&req);
        assert!(resp.ok, "{resp:?}");
        assert_eq!(resp.cache.as_deref(), Some("computed"), "{resp:?}");
    }

    #[test]
    fn the_worker_reports_the_parse_error_the_reader_saw() {
        // The job carries the reader thread's resolution, not a key: a
        // source that did not parse must still come out of the worker
        // as its own `ALP0001`, counted once.  Admitted, then drained by
        // one worker on this thread: no socket or timing in the loop.
        let server = Server::new(ServeConfig::default());
        let inner = Arc::clone(&server.inner);
        let req = Request::plan(1, "doall (i, 0");
        let resolved = inner.resolve(&req.plan);
        let (out, reply) = UnixStream::pair().expect("socketpair");
        let out = Arc::new(Mutex::new(out));
        let job = Job {
            req,
            resolved,
            expires: None,
            out,
        };
        inner.submit(job).expect("admitted");
        inner.advance(Phase::Draining);
        inner.worker();
        let mut line = String::new();
        BufReader::new(reply).read_line(&mut line).expect("reply");
        let answer = Response::decode(&line).expect("response decodes");
        assert_eq!(answer.code.as_deref(), Some("ALP0001"), "{answer:?}");
        let stats = inner.stats();
        assert_eq!((stats.failures, stats.misses), (1, 0), "{stats:?}");
    }
}
