//! Seeded mutation harness for the wire protocol: encoded `Request`
//! frames (plan, certified plan, run, stats, shutdown) and `Response`
//! frames (ok with and without a plan, run, stats, error), mutated by
//! the mutators the DSL and plan-codec harnesses use.  Whatever comes
//! out, `Request::decode` and `Response::decode` must return without
//! unwinding — a frame, or a `ServeError` with its `ALP` code — and a
//! frame they return must re-encode to bytes that decode and re-encode
//! to the same bytes.
//!
//! Seeds `0..2000` by default; `PROTOCOL_MUTATION_SEEDS=lo..hi` picks
//! the range (CI runs a wider one on the release build).  A failure
//! names the seed and the mutant.

#[path = "../../plan/tests/mutation/mod.rs"]
mod mutation;

use alp_plan::ShardOccupancy;
use alp_serve::pipeline::RunSummary;
use alp_serve::{Request, RequestOp, Response, ServeError, ServerStats};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bytes an insert draws from: JSON's punctuation, a digit, the letters
/// that start a literal or an exponent, an escape, and bytes outside it.
const INSERTS: &[u8] = b"{}[],:\"-.0179eEtfnu\\ \n#\xc3\xa9";

/// A nest whose text escapes on the wire: newlines and a quote-free
/// `l$` accumulate.
const SOURCE: &str = "doall (i, 1, 64) {\n  doall (j, 1, 64) {\n    l$C[i] += A[i, j-1];\n  }\n}\n";

fn requests() -> Vec<String> {
    let plan = Request::plan(7, SOURCE);
    let mut certified = Request::plan(-8, SOURCE);
    (certified.plan.certify, certified.want_plan) = (true, true);
    certified.deadline_ms = Some(2500);
    let mut run = Request::run(170141183460469231731687303715884105727, SOURCE);
    run.plan.processors = 4;
    run.plan.check = false;
    (run.run.threads, run.run.seed) = (2, 9);
    (run.run.timeout_ms, run.run.max_store_bytes) = (Some(5000), Some(1 << 40));
    run.run.fault_panic = Some((3, 1));
    [
        plan,
        certified,
        run,
        Request::control(10, RequestOp::Stats),
        Request::control(11, RequestOp::Shutdown),
    ]
    .iter()
    .map(Request::encode)
    .collect()
}

fn responses() -> Vec<String> {
    let plan_json = include_str!("../../../tests/golden/example2.v4.plan.json");
    let run = RunSummary {
        matches_reference: true,
        iterations: 4096,
        threads: 2,
    };
    let stats = ServerStats {
        hits: 12,
        malformed: 3,
        ..ServerStats::default()
    };
    let shard = ShardOccupancy {
        len: 3,
        capacity: 64,
        hits: 10,
        misses: 2,
        coalesced: 1,
    };
    [
        Response::plan_ok(7, "computed", "6158092473315baf", 16, None),
        Response::plan_ok(-8, "hit", "d4a2e4012c2cc4a2", 32, Some(plan_json.into())),
        Response::run_ok(9, "coalesced", "b9f66dc0365fe5ea", 4, &run),
        Response::stats_with_shards(10, stats, vec![shard; 2]),
        Response::err(12, &ServeError::overloaded(64, 64)),
        Response::err(
            13,
            &ServeError::bad_frame("`source` is required for plan/run"),
        ),
    ]
    .iter()
    .map(Response::encode)
    .collect()
}

/// A decode error must carry an `ALP` code, and showing it must not
/// unwind.
fn check_error(e: &ServeError) -> Result<(), String> {
    match catch_unwind(|| (e.code.clone(), e.to_string())) {
        Ok((code, _)) if is_alp_code(&code) => Ok(()),
        Ok((code, text)) => Err(format!("error without an ALP code: {code} {text}")),
        Err(_) => Err("the error unwound when shown".to_string()),
    }
}

fn is_alp_code(code: &str) -> bool {
    code.len() == 7 && code.starts_with("ALP") && code[3..].bytes().all(|b| b.is_ascii_digit())
}

/// `decode`, then `encode → decode → encode` to a fixed point.
fn check<T>(
    line: &str,
    decode: fn(&str) -> Result<T, ServeError>,
    encode: fn(&T) -> String,
) -> Result<(), String> {
    let frame = match catch_unwind(|| decode(line)).map_err(|_| "decode unwound".to_string())? {
        Ok(frame) => frame,
        Err(e) => return check_error(&e),
    };
    let text = catch_unwind(AssertUnwindSafe(|| encode(&frame)))
        .map_err(|_| "encode unwound".to_string())?;
    let again =
        decode(&text).map_err(|e| format!("the re-encoding does not decode: {e}\n{text}"))?;
    if encode(&again) != text {
        return Err(format!("the re-encoding is not a fixed point:\n{text}"));
    }
    Ok(())
}

fn check_request(line: &str) -> Result<(), String> {
    check(line, Request::decode, Request::encode)
}

fn check_response(line: &str) -> Result<(), String> {
    check(line, Response::decode, Response::encode)
}

#[test]
fn mutated_frames_decode_or_fail_cleanly_and_re_encode_to_a_fixed_point() {
    let (requests, responses) = (requests(), responses());
    let requests: Vec<&str> = requests.iter().map(String::as_str).collect();
    let responses: Vec<&str> = responses.iter().map(String::as_str).collect();
    // The unmutated frames decode, and hold it too.
    for line in &requests {
        Request::decode(line).unwrap_or_else(|e| panic!("{e}\n  frame: {line}"));
        check_request(line).unwrap_or_else(|e| panic!("{e}\n  frame: {line}"));
    }
    for line in &responses {
        Response::decode(line).unwrap_or_else(|e| panic!("{e}\n  frame: {line}"));
        check_response(line).unwrap_or_else(|e| panic!("{e}\n  frame: {line}"));
    }
    for seed in mutation::seeds("PROTOCOL_MUTATION_SEEDS", 2000) {
        let line = mutation::mutant(seed, &requests, INSERTS);
        check_request(&line).unwrap_or_else(|e| panic!("seed {seed}: {e}\n  request: {line:?}"));
        let line = mutation::mutant(seed, &responses, INSERTS);
        check_response(&line).unwrap_or_else(|e| panic!("seed {seed}: {e}\n  response: {line:?}"));
    }
}
