//! The serve wire protocol: newline-delimited JSON frames, versioned
//! like the plan codec.
//!
//! Each request is one line, a JSON object carrying the protocol
//! version under the `"alp-serve"` key:
//!
//! ```json
//! {"alp-serve": 1, "id": 7, "op": "plan", "source": "doall (i, 0, 63) { A[i] = A[i]; }", "processors": 16}
//! {"alp-serve": 1, "id": 8, "op": "run", "source": "…", "processors": 16, "threads": 2, "timeout_ms": 5000}
//! {"alp-serve": 1, "id": 9, "op": "stats"}
//! ```
//!
//! A `run`'s `threads` (absent or 0: as many as the host has
//! processors) is a ceiling, not a demand: the daemon runs on no more
//! threads than the plan has tiles or the host has processors, since
//! `processors` — and so the tile count — is unbounded.
//!
//! Each response is one line, echoing `id`:
//!
//! ```json
//! {"id": 7, "ok": true, "cache": "computed", "fingerprint": "…", "tiles": 16}
//! {"id": 8, "ok": false, "code": "ALP0012", "error": "server overloaded: …"}
//! ```
//!
//! `cache` says how the plan was had: `hit` from the memory cache,
//! `coalesced` from another request's in-flight fetch, `computed` when
//! this request fetched it — planned, or read back from the daemon's
//! journal after the cache evicted it.
//!
//! Frames are read and written by [`alp_plan::json`], the tree's one
//! codec (no serde, no floats, byte-deterministic output), in its
//! one-line layout: a frame is a single line — the framing IS the
//! newline, so a reader never needs lookahead.  Its rule for a field
//! holds here as in a plan file: absent is the default, present but
//! mistyped or outside its type's range is refused (`ALP0006`, naming
//! the key) — `"processors": "64"` is not planned for 16.

use crate::pipeline::{PlanSpec, RunSpec, RunSummary};
use crate::server::ServerStats;
use crate::ServeError;
use alp_plan::json::{self, parse, FieldError, Item, ValueWriter};
use alp_plan::ShardOccupancy;

/// Version of this wire protocol; bumped on incompatible change.
pub const PROTOCOL_VERSION: i128 = 1;

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Compile (or fetch) the partition plan for a nest.
    Plan,
    /// Compile if needed, then natively execute and verify the nest.
    Run,
    /// Report the server's cumulative counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and drain the queue.
    Shutdown,
}

impl RequestOp {
    /// The operation's wire (and command-line) name.
    pub fn name(&self) -> &'static str {
        match self {
            RequestOp::Plan => "plan",
            RequestOp::Run => "run",
            RequestOp::Stats => "stats",
            RequestOp::Ping => "ping",
            RequestOp::Shutdown => "shutdown",
        }
    }

    /// The operation a wire (or command-line) name denotes.
    pub fn parse(s: &str) -> Option<RequestOp> {
        use RequestOp::*;
        [Plan, Run, Stats, Ping, Shutdown]
            .into_iter()
            .find(|op| op.name() == s)
    }
}

/// One decoded request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: i128,
    /// The operation.
    pub op: RequestOp,
    /// Compile parameters (`plan` / `run` ops).
    pub plan: PlanSpec,
    /// Execution parameters (`run` op).
    pub run: RunSpec,
    /// Include the full plan JSON (as a string field) in the response.
    pub want_plan: bool,
    /// Client deadline in milliseconds from receipt.  A queued job
    /// whose deadline has already passed is shed unexecuted — the
    /// client has abandoned it, so the server should too.
    pub deadline_ms: Option<u64>,
}

/// Default processor count when a request does not specify one.
pub const DEFAULT_PROCESSORS: i128 = 16;

impl Request {
    /// A `plan` request for `source` with default parameters.
    pub fn plan(id: i128, source: &str) -> Request {
        Request {
            id,
            op: RequestOp::Plan,
            plan: PlanSpec {
                source: source.to_string(),
                processors: DEFAULT_PROCESSORS,
                check: true,
                certify: false,
            },
            run: RunSpec::default(),
            want_plan: false,
            deadline_ms: None,
        }
    }

    /// A `run` request for `source` with default parameters.
    pub fn run(id: i128, source: &str) -> Request {
        Request {
            id,
            op: RequestOp::Run,
            ..Request::plan(id, source)
        }
    }

    /// A bare control request (`stats` / `ping` / `shutdown`).
    pub fn control(id: i128, op: RequestOp) -> Request {
        Request {
            op,
            ..Request::plan(id, "")
        }
    }

    /// Decode one request line.  Violations are protocol errors
    /// (`ALP0006` — same family as other artifact-decode failures),
    /// except an unsupported version which names itself.
    pub fn decode(line: &str) -> Result<Request, ServeError> {
        let v = parse(line).map_err(ServeError::bad_frame)?;
        let f = Item::root(&v);
        f.req("alp-serve", |v| match v.int::<i128>()? {
            PROTOCOL_VERSION => Ok(()),
            other => Err(v.refuse(format!(
                "protocol version {other} not supported (this server speaks \
                 {PROTOCOL_VERSION})"
            ))),
        })?;
        let id = f.opt("id", Item::int)?.unwrap_or(0);
        let op = f.req("op", |op| {
            RequestOp::parse(op.str()?).ok_or_else(|| op.refuse("is not an operation"))
        })?;
        let source = f.opt("source", Item::str)?.unwrap_or("");
        if matches!(op, RequestOp::Plan | RequestOp::Run) && source.is_empty() {
            return Err(ServeError::bad_frame("`source` is required for plan/run"));
        }
        let fault_rep = f.opt("fault_rep", Item::int)?.unwrap_or(0);
        Ok(Request {
            id,
            op,
            plan: PlanSpec {
                source: source.to_string(),
                processors: f
                    .opt("processors", Item::int)?
                    .unwrap_or(DEFAULT_PROCESSORS),
                check: !f.opt("no_check", Item::bool)?.unwrap_or(false),
                certify: f.opt("certify", Item::bool)?.unwrap_or(false),
            },
            run: RunSpec {
                threads: f.opt("threads", Item::int)?.unwrap_or(0),
                seed: f.opt("seed", Item::int)?.unwrap_or(0),
                timeout_ms: f.opt("timeout_ms", Item::int)?,
                max_store_bytes: f.opt("max_store_bytes", Item::int)?,
                fault_panic: (f.opt("fault_tile", Item::int)?).map(|tile| (tile, fault_rep)),
            },
            want_plan: f.opt("want_plan", Item::bool)?.unwrap_or(false),
            deadline_ms: f.opt("deadline_ms", Item::int)?,
        })
    }

    /// Encode this request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        // A flag travels only when set, a count only when not its default.
        let set = |flag: bool| flag.then_some(true);
        json::line(|w| {
            w.field("alp-serve").int(PROTOCOL_VERSION);
            w.field("id").int(self.id);
            w.field("op").str(self.op.name());
            if matches!(self.op, RequestOp::Plan | RequestOp::Run) {
                w.field("source").str(&self.plan.source);
                w.field("processors").int(self.plan.processors);
                w.opt("no_check", set(!self.plan.check), ValueWriter::bool);
                w.opt("certify", set(self.plan.certify), ValueWriter::bool);
                w.opt("want_plan", set(self.want_plan), ValueWriter::bool);
                w.opt("deadline_ms", self.deadline_ms, ValueWriter::int);
            }
            if self.op == RequestOp::Run {
                let run = &self.run;
                if run.threads != 0 {
                    w.field("threads").int(run.threads);
                }
                if run.seed != 0 {
                    w.field("seed").int(run.seed);
                }
                w.opt("timeout_ms", run.timeout_ms, ValueWriter::int);
                w.opt("max_store_bytes", run.max_store_bytes, ValueWriter::int);
                if let Some((tile, rep)) = run.fault_panic {
                    w.field("fault_tile").int(tile);
                    w.field("fault_rep").int(rep);
                }
            }
        })
    }
}

/// One decoded response frame.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: i128,
    /// Success flag; `false` pairs with `code`/`error`.
    pub ok: bool,
    /// How the cache satisfied the request (`hit` / `coalesced` /
    /// `computed`, which also covers a plan read back from the journal),
    /// when applicable.
    pub cache: Option<String>,
    /// Plan fingerprint (plan/run successes).
    pub fingerprint: Option<String>,
    /// Tile count of the plan (plan/run successes).
    pub tiles: Option<i128>,
    /// Full plan JSON (when the request set `want_plan`).
    pub plan: Option<String>,
    /// Run outcome: bitwise match against the sequential reference.
    pub matches_reference: Option<bool>,
    /// Run outcome: iterations executed.
    pub iterations: Option<u64>,
    /// Server counters (`stats` op).
    pub stats: Option<ServerStats>,
    /// Per-shard cache occupancy and hit counters (`stats` op) — the
    /// observable behind `--cache-capacity` tuning.
    pub shards: Option<Vec<ShardOccupancy>>,
    /// Stable error code on failure.
    pub code: Option<String>,
    /// Error message on failure.
    pub error: Option<String>,
}

fn encode_shard(shard: ValueWriter<'_>, s: &ShardOccupancy) {
    shard.obj(|w| {
        w.field("len").int(s.len);
        w.field("capacity").int(s.capacity);
        w.field("hits").int(s.hits);
        w.field("misses").int(s.misses);
        w.field("coalesced").int(s.coalesced);
    })
}

/// Absent counters read as zero: a newer peer may drop one.
fn decode_shard(f: Item<'_>) -> Result<ShardOccupancy, FieldError> {
    Ok(ShardOccupancy {
        len: f.opt("len", Item::int)?.unwrap_or(0),
        capacity: f.opt("capacity", Item::int)?.unwrap_or(0),
        hits: f.opt("hits", Item::int)?.unwrap_or(0),
        misses: f.opt("misses", Item::int)?.unwrap_or(0),
        coalesced: f.opt("coalesced", Item::int)?.unwrap_or(0),
    })
}

impl Response {
    /// A bare success (ping/shutdown acks).
    pub fn ok(id: i128) -> Response {
        Response {
            id,
            ok: true,
            ..Response::default()
        }
    }

    /// A failure carrying the error's stable code.
    pub fn err(id: i128, e: &ServeError) -> Response {
        Response {
            id,
            code: Some(e.code.clone()),
            error: Some(e.message.clone()),
            ..Response::default()
        }
    }

    /// A plan success.
    pub fn plan_ok(
        id: i128,
        cache: &str,
        fingerprint: &str,
        tiles: i128,
        plan_json: Option<String>,
    ) -> Response {
        Response {
            cache: Some(cache.to_string()),
            fingerprint: Some(fingerprint.to_string()),
            tiles: Some(tiles),
            plan: plan_json,
            ..Response::ok(id)
        }
    }

    /// A run success (plan provenance plus execution outcome).
    pub fn run_ok(
        id: i128,
        cache: &str,
        fingerprint: &str,
        tiles: i128,
        run: &RunSummary,
    ) -> Response {
        Response {
            matches_reference: Some(run.matches_reference),
            iterations: Some(run.iterations),
            ..Response::plan_ok(id, cache, fingerprint, tiles, None)
        }
    }

    /// A stats snapshot.
    pub fn stats(id: i128, stats: ServerStats) -> Response {
        Response {
            stats: Some(stats),
            ..Response::ok(id)
        }
    }

    /// A stats snapshot carrying the per-shard breakdown.
    pub fn stats_with_shards(
        id: i128,
        stats: ServerStats,
        shards: Vec<ShardOccupancy>,
    ) -> Response {
        Response {
            shards: Some(shards),
            ..Response::stats(id, stats)
        }
    }

    /// Encode this response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let (matches, stats, shards) = (self.matches_reference, &self.stats, &self.shards);
        json::line(|w| {
            w.field("id").int(self.id);
            w.field("ok").bool(self.ok);
            w.opt("cache", self.cache.as_deref(), ValueWriter::str);
            w.opt("fingerprint", self.fingerprint.as_deref(), ValueWriter::str);
            w.opt("tiles", self.tiles, ValueWriter::int);
            w.opt("matches_reference", matches, ValueWriter::bool);
            w.opt("iterations", self.iterations, ValueWriter::int);
            w.opt("stats", stats.as_ref(), |v, s| v.obj(|w| s.write_fields(w)));
            w.opt("shards", shards.as_ref(), |v, s| v.list(s, encode_shard));
            w.opt("plan", self.plan.as_deref(), ValueWriter::str);
            w.opt("code", self.code.as_deref(), ValueWriter::str);
            w.opt("error", self.error.as_deref(), ValueWriter::str);
        })
    }

    /// Decode one response line.  Every field but `ok` may be absent (a
    /// newer server may add or drop one); none may be mistyped.
    pub fn decode(line: &str) -> Result<Response, ServeError> {
        let v = parse(line).map_err(ServeError::bad_frame)?;
        let f = Item::root(&v);
        let text = |s: Item<'_>| s.str().map(str::to_string);
        Ok(Response {
            id: f.opt("id", Item::int)?.unwrap_or(0),
            ok: f.req("ok", Item::bool)?,
            cache: f.opt("cache", text)?,
            fingerprint: f.opt("fingerprint", text)?,
            tiles: f.opt("tiles", Item::int)?,
            plan: f.opt("plan", text)?,
            matches_reference: f.opt("matches_reference", Item::bool)?,
            iterations: f.opt("iterations", Item::int)?,
            stats: f.opt("stats", ServerStats::decode)?,
            shards: f.opt("shards", |s| s.list(decode_shard))?,
            code: f.opt("code", text)?,
            error: f.opt("error", text)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "doall (i, 0, 63) { A[i] = A[i]; }";

    #[test]
    fn request_round_trips() {
        let mut r = Request::run(42, SRC);
        r.plan.processors = 8;
        r.plan.check = false;
        r.run.threads = 2;
        r.run.seed = 7;
        r.run.timeout_ms = Some(5000);
        r.run.max_store_bytes = Some(1 << 20);
        r.run.fault_panic = Some((3, 1));
        r.want_plan = true;
        let d = Request::decode(&r.encode()).expect("round trip");
        assert_eq!(d.id, 42);
        assert_eq!(d.op, RequestOp::Run);
        assert_eq!(d.plan.source, SRC);
        assert_eq!(d.plan.processors, 8);
        assert!(!d.plan.check);
        assert_eq!(d.run.threads, 2);
        assert_eq!(d.run.seed, 7);
        assert_eq!(d.run.timeout_ms, Some(5000));
        assert_eq!(d.run.max_store_bytes, Some(1 << 20));
        assert_eq!(d.run.fault_panic, Some((3, 1)));
        assert!(d.want_plan);
    }

    #[test]
    fn response_round_trips() {
        let e = ServeError::overloaded(64, 64);
        let d = Response::decode(&Response::err(9, &e).encode()).unwrap();
        assert_eq!(d.id, 9);
        assert!(!d.ok);
        assert_eq!(d.code.as_deref(), Some("ALP0012"));
        let ok = Response::plan_ok(3, "hit", "deadbeef", 16, Some("{\"v\": 1}".into()));
        let d = Response::decode(&ok.encode()).unwrap();
        assert!(d.ok);
        assert_eq!(d.cache.as_deref(), Some("hit"));
        assert_eq!(d.tiles, Some(16));
        assert_eq!(d.plan.as_deref(), Some("{\"v\": 1}"));
    }

    #[test]
    fn certify_and_deadline_round_trip() {
        let mut r = Request::plan(7, SRC);
        r.plan.certify = true;
        r.deadline_ms = Some(2500);
        let d = Request::decode(&r.encode()).expect("round trip");
        assert!(d.plan.certify);
        assert_eq!(d.deadline_ms, Some(2500));
        // Absent fields decode to their defaults, not to stale values.
        let d = Request::decode(&Request::plan(8, SRC).encode()).unwrap();
        assert!(!d.plan.certify);
        assert_eq!(d.deadline_ms, None);
    }

    #[test]
    fn shard_occupancy_round_trips() {
        let shards = vec![
            ShardOccupancy {
                len: 3,
                capacity: 64,
                hits: 10,
                misses: 2,
                coalesced: 1,
            },
            ShardOccupancy {
                len: 0,
                capacity: 64,
                hits: 0,
                misses: 0,
                coalesced: 0,
            },
        ];
        let resp = Response::stats_with_shards(4, ServerStats::default(), shards);
        let d = Response::decode(&resp.encode()).unwrap();
        let got = d.shards.expect("shards present");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].len, 3);
        assert_eq!(got[0].capacity, 64);
        assert_eq!(got[0].hits, 10);
        assert_eq!(got[0].misses, 2);
        assert_eq!(got[0].coalesced, 1);
        // Plain stats responses carry no shard block.
        let plain = Response::decode(&Response::stats(1, ServerStats::default()).encode()).unwrap();
        assert!(plain.shards.is_none());
    }

    #[test]
    fn a_stats_object_without_journal_reads_decodes_it_as_zero() {
        // What a daemon from before the counter answers.
        let old = r#"{"id": 6, "ok": true, "stats": {"hits": 1, "misses": 2, "replayed": 3}}"#;
        let stats = Response::decode(old).unwrap().stats.expect("stats");
        assert_eq!((stats.replayed, stats.journal_reads), (3, 0));
    }

    #[test]
    fn version_is_enforced() {
        let err = Request::decode("{\"alp-serve\": 99, \"op\": \"ping\"}").unwrap_err();
        assert_eq!(err.code, "ALP0006");
        assert!(err.message.contains("version 99"));
        let err = Request::decode("{\"op\": \"ping\"}").unwrap_err();
        assert!(err.message.contains("`alp-serve` is missing"), "{err}");
    }

    #[test]
    fn a_mistyped_or_out_of_range_field_is_refused_by_key() {
        // Each of these used to be answered `ok: true` for a request the
        // client did not make: 16 processors, seed 0, one thread.
        let two_64_plus_1 = "18446744073709551617";
        for (field, key) in [
            ("\"processors\": \"64\"", "processors"),
            ("\"seed\": -5", "seed"),
            (&format!("\"threads\": {two_64_plus_1}"), "threads"),
            ("\"timeout_ms\": -1", "timeout_ms"),
            ("\"max_store_bytes\": true", "max_store_bytes"),
            ("\"fault_tile\": -3", "fault_tile"),
            ("\"fault_rep\": -1", "fault_rep"),
            ("\"deadline_ms\": -1", "deadline_ms"),
            ("\"id\": \"7\"", "id"),
            ("\"no_check\": 1", "no_check"),
            ("\"certify\": \"yes\"", "certify"),
            ("\"want_plan\": 0", "want_plan"),
        ] {
            let frame =
                format!("{{\"alp-serve\": 1, \"op\": \"run\", \"source\": \"{SRC}\", {field}}}");
            let err = Request::decode(&frame).expect_err(&frame);
            assert_eq!(err.code, "ALP0006", "{frame}");
            assert!(err.message.contains(&format!("`{key}`")), "{frame}: {err}");
        }
        for frame in [
            "{\"alp-serve\": \"1\", \"op\": \"ping\"}",
            "{\"alp-serve\": 1, \"op\": 7}",
            "{\"alp-serve\": 1, \"op\": \"dance\"}",
            "{\"alp-serve\": 1, \"op\": \"plan\", \"source\": 3}",
            "[1]",
        ] {
            assert_eq!(Request::decode(frame).expect_err(frame).code, "ALP0006");
        }
        // Absent (or null) is still the default, and the full range of
        // each type still decodes.
        let frame = format!(
            "{{\"alp-serve\": 1, \"op\": \"run\", \"source\": \"{SRC}\", \"threads\": null, \
             \"seed\": {}, \"fault_tile\": 2}}",
            u64::MAX
        );
        let d = Request::decode(&frame).expect("in range");
        assert_eq!((d.id, d.plan.processors, d.run.threads), (0, 16, 0));
        assert_eq!((d.run.seed, d.run.timeout_ms), (u64::MAX, None));
        assert_eq!(d.run.fault_panic, Some((2, 0)));
    }

    #[test]
    fn responses_tolerate_absent_fields_but_not_clamped_ones() {
        let d =
            Response::decode("{\"ok\": true, \"stats\": {\"hits\": 3}, \"shards\": [{}]}").unwrap();
        assert_eq!(d.id, 0);
        let stats = d.stats.expect("stats");
        assert_eq!((stats.hits, stats.misses), (3, 0));
        assert_eq!(d.shards.expect("shards")[0].capacity, 0);
        for frame in [
            "{\"ok\": true, \"iterations\": -1}",
            "{\"ok\": true, \"stats\": {\"hits\": -3}}",
            "{\"ok\": true, \"shards\": [{\"len\": -1}]}",
            "{\"ok\": true, \"shards\": {}}",
            "{\"ok\": 1}",
            "{\"id\": 4}",
        ] {
            assert_eq!(Response::decode(frame).expect_err(frame).code, "ALP0006");
        }
    }

    #[test]
    fn frames_are_single_lines() {
        let mut r = Request::plan(1, "doall (i, 0, 7) {\n  A[i] = A[i];\n}");
        r.want_plan = true;
        let line = r.encode();
        assert!(!line.contains('\n'), "newlines must be escaped: {line}");
        let d = Request::decode(&line).unwrap();
        assert!(d.plan.source.contains('\n'), "escaping round-trips");
    }
}
