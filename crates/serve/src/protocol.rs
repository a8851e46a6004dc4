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
//! Each response is one line, echoing `id`:
//!
//! ```json
//! {"id": 7, "ok": true, "cache": "computed", "fingerprint": "…", "tiles": 16}
//! {"id": 8, "ok": false, "code": "ALP0012", "error": "server overloaded: …"}
//! ```
//!
//! The codec is hand-rolled on `alp_plan::json` (no serde, no floats,
//! byte-deterministic output) and every frame is a single line — the
//! framing IS the newline, so a reader never needs lookahead.

use crate::pipeline::{PlanSpec, RunSpec, RunSummary};
use crate::server::ServerStats;
use crate::ServeError;
use alp_plan::json::{parse, write_string};
use alp_plan::Json;

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
    /// The operation a wire (or command-line) name denotes.
    pub fn parse(s: &str) -> Option<RequestOp> {
        match s {
            "plan" => Some(RequestOp::Plan),
            "run" => Some(RequestOp::Run),
            "stats" => Some(RequestOp::Stats),
            "ping" => Some(RequestOp::Ping),
            "shutdown" => Some(RequestOp::Shutdown),
            _ => None,
        }
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
        let bad = |m: &str| ServeError::new("ALP0006", format!("bad request frame: {m}"));
        let v = parse(line).map_err(|e| bad(&e.to_string()))?;
        let version = v
            .get("alp-serve")
            .and_then(Json::as_int)
            .ok_or_else(|| bad("missing \"alp-serve\" version field"))?;
        if version != PROTOCOL_VERSION {
            return Err(bad(&format!(
                "protocol version {version} not supported (this server speaks \
                 {PROTOCOL_VERSION})"
            )));
        }
        let id = v.get("id").and_then(Json::as_int).unwrap_or(0);
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .and_then(RequestOp::parse)
            .ok_or_else(|| bad("missing or unknown \"op\""))?;
        let source = v.get("source").and_then(Json::as_str).unwrap_or("");
        if matches!(op, RequestOp::Plan | RequestOp::Run) && source.is_empty() {
            return Err(bad("\"source\" is required for plan/run"));
        }
        let int = |key: &str| v.get(key).and_then(Json::as_int);
        let fault_panic = match (int("fault_tile"), int("fault_rep")) {
            (Some(tile), rep) => Some((tile.max(0) as usize, rep.unwrap_or(0).max(0) as u64)),
            (None, _) => None,
        };
        Ok(Request {
            id,
            op,
            plan: PlanSpec {
                source: source.to_string(),
                processors: int("processors").unwrap_or(DEFAULT_PROCESSORS),
                check: !v.get("no_check").and_then(Json::as_bool).unwrap_or(false),
                certify: v.get("certify").and_then(Json::as_bool).unwrap_or(false),
            },
            run: RunSpec {
                threads: int("threads").unwrap_or(0).max(0) as usize,
                seed: int("seed").unwrap_or(0).max(0) as u64,
                timeout_ms: int("timeout_ms").map(|t| t.max(0) as u64),
                max_store_bytes: int("max_store_bytes").map(|b| b.max(0) as u64),
                fault_panic,
            },
            want_plan: v.get("want_plan").and_then(Json::as_bool).unwrap_or(false),
            deadline_ms: int("deadline_ms").map(|d| d.max(0) as u64),
        })
    }

    /// Encode this request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"alp-serve\": {PROTOCOL_VERSION}, \"id\": {}, \"op\": ",
            self.id
        ));
        let op = match self.op {
            RequestOp::Plan => "plan",
            RequestOp::Run => "run",
            RequestOp::Stats => "stats",
            RequestOp::Ping => "ping",
            RequestOp::Shutdown => "shutdown",
        };
        write_string(&mut out, op);
        if matches!(self.op, RequestOp::Plan | RequestOp::Run) {
            out.push_str(", \"source\": ");
            write_string(&mut out, &self.plan.source);
            out.push_str(&format!(", \"processors\": {}", self.plan.processors));
            if !self.plan.check {
                out.push_str(", \"no_check\": true");
            }
            if self.plan.certify {
                out.push_str(", \"certify\": true");
            }
            if self.want_plan {
                out.push_str(", \"want_plan\": true");
            }
            if let Some(d) = self.deadline_ms {
                out.push_str(&format!(", \"deadline_ms\": {d}"));
            }
        }
        if self.op == RequestOp::Run {
            if self.run.threads != 0 {
                out.push_str(&format!(", \"threads\": {}", self.run.threads));
            }
            if self.run.seed != 0 {
                out.push_str(&format!(", \"seed\": {}", self.run.seed));
            }
            if let Some(t) = self.run.timeout_ms {
                out.push_str(&format!(", \"timeout_ms\": {t}"));
            }
            if let Some(b) = self.run.max_store_bytes {
                out.push_str(&format!(", \"max_store_bytes\": {b}"));
            }
            if let Some((tile, rep)) = self.run.fault_panic {
                out.push_str(&format!(", \"fault_tile\": {tile}, \"fault_rep\": {rep}"));
            }
        }
        out.push('}');
        out
    }
}

/// One decoded response frame.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: i128,
    /// Success flag; `false` pairs with `code`/`error`.
    pub ok: bool,
    /// How the cache satisfied the request (`hit` / `coalesced` /
    /// `computed`), when applicable.
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
    pub shards: Option<Vec<alp_plan::ShardOccupancy>>,
    /// Stable error code on failure.
    pub code: Option<String>,
    /// Error message on failure.
    pub error: Option<String>,
}

fn encode_shard(out: &mut String, s: &alp_plan::ShardOccupancy) {
    out.push_str(&format!(
        "{{\"len\": {}, \"capacity\": {}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}}}",
        s.len, s.capacity, s.hits, s.misses, s.coalesced
    ));
}

fn decode_shard(v: &Json) -> alp_plan::ShardOccupancy {
    let int = |key: &str| v.get(key).and_then(Json::as_int).unwrap_or(0);
    alp_plan::ShardOccupancy {
        len: int("len").max(0) as usize,
        capacity: int("capacity").max(0) as usize,
        hits: int("hits").max(0) as u64,
        misses: int("misses").max(0) as u64,
        coalesced: int("coalesced").max(0) as u64,
    }
}

impl Response {
    fn base(id: i128, ok: bool) -> Response {
        Response {
            id,
            ok,
            cache: None,
            fingerprint: None,
            tiles: None,
            plan: None,
            matches_reference: None,
            iterations: None,
            stats: None,
            shards: None,
            code: None,
            error: None,
        }
    }

    /// A bare success (ping/shutdown acks).
    pub fn ok(id: i128) -> Response {
        Response::base(id, true)
    }

    /// A failure carrying the error's stable code.
    pub fn err(id: i128, e: &ServeError) -> Response {
        Response {
            code: Some(e.code.clone()),
            error: Some(e.message.clone()),
            ..Response::base(id, false)
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
            ..Response::base(id, true)
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
            ..Response::base(id, true)
        }
    }

    /// A stats snapshot carrying the per-shard breakdown.
    pub fn stats_with_shards(
        id: i128,
        stats: ServerStats,
        shards: Vec<alp_plan::ShardOccupancy>,
    ) -> Response {
        Response {
            shards: Some(shards),
            ..Response::stats(id, stats)
        }
    }

    /// Encode this response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = format!("{{\"id\": {}, \"ok\": {}", self.id, self.ok);
        if let Some(c) = &self.cache {
            out.push_str(", \"cache\": ");
            write_string(&mut out, c);
        }
        if let Some(fp) = &self.fingerprint {
            out.push_str(", \"fingerprint\": ");
            write_string(&mut out, fp);
        }
        if let Some(t) = self.tiles {
            out.push_str(&format!(", \"tiles\": {t}"));
        }
        if let Some(m) = self.matches_reference {
            out.push_str(&format!(", \"matches_reference\": {m}"));
        }
        if let Some(i) = self.iterations {
            out.push_str(&format!(", \"iterations\": {i}"));
        }
        if let Some(s) = &self.stats {
            out.push_str(&format!(", \"stats\": {}", s.encode()));
        }
        if let Some(shards) = &self.shards {
            out.push_str(", \"shards\": [");
            for (i, s) in shards.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                encode_shard(&mut out, s);
            }
            out.push(']');
        }
        if let Some(p) = &self.plan {
            out.push_str(", \"plan\": ");
            write_string(&mut out, p);
        }
        if let Some(c) = &self.code {
            out.push_str(", \"code\": ");
            write_string(&mut out, c);
        }
        if let Some(e) = &self.error {
            out.push_str(", \"error\": ");
            write_string(&mut out, e);
        }
        out.push('}');
        out
    }

    /// Decode one response line.
    pub fn decode(line: &str) -> Result<Response, ServeError> {
        let bad = |m: &str| ServeError::new("ALP0006", format!("bad response frame: {m}"));
        let v = parse(line).map_err(|e| bad(&e.to_string()))?;
        let str_field = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(Response {
            id: v.get("id").and_then(Json::as_int).unwrap_or(0),
            ok: v
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("missing \"ok\""))?,
            cache: str_field("cache"),
            fingerprint: str_field("fingerprint"),
            tiles: v.get("tiles").and_then(Json::as_int),
            plan: str_field("plan"),
            matches_reference: v.get("matches_reference").and_then(Json::as_bool),
            iterations: v
                .get("iterations")
                .and_then(Json::as_int)
                .map(|i| i.max(0) as u64),
            stats: v.get("stats").map(ServerStats::decode),
            shards: v
                .get("shards")
                .and_then(Json::as_arr)
                .map(|arr| arr.iter().map(decode_shard).collect()),
            code: str_field("code"),
            error: str_field("error"),
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
            alp_plan::ShardOccupancy {
                len: 3,
                capacity: 64,
                hits: 10,
                misses: 2,
                coalesced: 1,
            },
            alp_plan::ShardOccupancy {
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
    fn version_is_enforced() {
        let err = Request::decode("{\"alp-serve\": 99, \"op\": \"ping\"}").unwrap_err();
        assert_eq!(err.code, "ALP0006");
        assert!(err.message.contains("version 99"));
        let err = Request::decode("{\"op\": \"ping\"}").unwrap_err();
        assert!(err.message.contains("version"));
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
