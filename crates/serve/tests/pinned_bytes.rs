//! The exact bytes of the wire and the journal.
//!
//! Round trips prove a codec agrees with itself; these literals prove it
//! agrees with every peer and every journal segment already written.
//! One `Request` per op with every optional field set, one `Response`
//! per constructor, and the journal payload of one fixed
//! `(seq, PlanKey, plan)`.

use alp_plan::{LegalityVerdict, PartitionPlan, PlanKey, PlanStore, ShardOccupancy};
use alp_serve::pipeline::RunSummary;
use alp_serve::{Request, RequestOp, Response, ServeError, ServerStats};

const SRC: &str = "doall (i, 0, 7) {\n  A[i] = \"q\\\" + B[i];\n}";

fn full(mut r: Request) -> Request {
    r.plan.processors = 8;
    r.plan.check = false;
    r.plan.certify = true;
    r.want_plan = true;
    r.deadline_ms = Some(2500);
    r.run.threads = 2;
    r.run.seed = 7;
    r.run.timeout_ms = Some(5000);
    r.run.max_store_bytes = Some(1 << 20);
    r.run.fault_panic = Some((3, 1));
    r
}

#[test]
fn request_frames_are_pinned() {
    let frames = [
        full(Request::plan(41, SRC)).encode(),
        full(Request::run(-42, SRC)).encode(),
        full(Request::control(43, RequestOp::Stats)).encode(),
        full(Request::control(44, RequestOp::Ping)).encode(),
        full(Request::control(45, RequestOp::Shutdown)).encode(),
        Request::plan(0, "A").encode(),
        Request::run(0, "A").encode(),
    ];
    let pinned = [
        r#"{"alp-serve": 1, "id": 41, "op": "plan", "source": "doall (i, 0, 7) {\n  A[i] = \"q\\\" + B[i];\n}", "processors": 8, "no_check": true, "certify": true, "want_plan": true, "deadline_ms": 2500}"#,
        r#"{"alp-serve": 1, "id": -42, "op": "run", "source": "doall (i, 0, 7) {\n  A[i] = \"q\\\" + B[i];\n}", "processors": 8, "no_check": true, "certify": true, "want_plan": true, "deadline_ms": 2500, "threads": 2, "seed": 7, "timeout_ms": 5000, "max_store_bytes": 1048576, "fault_tile": 3, "fault_rep": 1}"#,
        r#"{"alp-serve": 1, "id": 43, "op": "stats"}"#,
        r#"{"alp-serve": 1, "id": 44, "op": "ping"}"#,
        r#"{"alp-serve": 1, "id": 45, "op": "shutdown"}"#,
        r#"{"alp-serve": 1, "id": 0, "op": "plan", "source": "A", "processors": 16}"#,
        r#"{"alp-serve": 1, "id": 0, "op": "run", "source": "A", "processors": 16}"#,
    ];
    assert_eq!(frames.each_ref().map(String::as_str), pinned);
}

fn stats() -> ServerStats {
    ServerStats {
        hits: 1,
        misses: 2,
        coalesced: 3,
        evictions: 4,
        inline_hits: 5,
        shed_plan: 6,
        shed_run: 7,
        runs_ok: 8,
        failures: 9,
        depth: 10,
        batched: 11,
        malformed: 12,
        expired: 13,
        refused: 14,
        replayed: u64::MAX,
        journal_reads: 15,
    }
}

#[test]
fn response_frames_are_pinned() {
    let run = RunSummary {
        matches_reference: true,
        iterations: 4096,
        threads: 2,
    };
    let shard = |len| ShardOccupancy {
        len,
        capacity: 64,
        hits: 10,
        misses: 2,
        coalesced: 1,
    };
    let frames = [
        Response::ok(1).encode(),
        Response::err(-2, &ServeError::overloaded(3, 64)).encode(),
        Response::plan_ok(3, "hit", "fnv1a64:00ff", 16, None).encode(),
        Response::plan_ok(
            4,
            "computed",
            "fnv1a64:00ff",
            16,
            Some("{\n  \"v\": 1\n}\n".into()),
        )
        .encode(),
        Response::run_ok(5, "coalesced", "fnv1a64:00ff", 4, &run).encode(),
        Response::stats(6, stats()).encode(),
        Response::stats_with_shards(7, stats(), vec![shard(3), shard(0)]).encode(),
        Response::stats_with_shards(8, ServerStats::default(), Vec::new()).encode(),
    ];
    let pinned = [
        r#"{"id": 1, "ok": true}"#,
        r#"{"id": -2, "ok": false, "code": "ALP0012", "error": "server overloaded: admission queue at depth 3 of 64; request shed — retry later"}"#,
        r#"{"id": 3, "ok": true, "cache": "hit", "fingerprint": "fnv1a64:00ff", "tiles": 16}"#,
        r#"{"id": 4, "ok": true, "cache": "computed", "fingerprint": "fnv1a64:00ff", "tiles": 16, "plan": "{\n  \"v\": 1\n}\n"}"#,
        r#"{"id": 5, "ok": true, "cache": "coalesced", "fingerprint": "fnv1a64:00ff", "tiles": 4, "matches_reference": true, "iterations": 4096}"#,
        r#"{"id": 6, "ok": true, "stats": {"hits": 1, "misses": 2, "coalesced": 3, "evictions": 4, "inline_hits": 5, "shed_plan": 6, "shed_run": 7, "runs_ok": 8, "failures": 9, "depth": 10, "batched": 11, "malformed": 12, "expired": 13, "refused": 14, "replayed": 18446744073709551615, "journal_reads": 15}}"#,
        r#"{"id": 7, "ok": true, "stats": {"hits": 1, "misses": 2, "coalesced": 3, "evictions": 4, "inline_hits": 5, "shed_plan": 6, "shed_run": 7, "runs_ok": 8, "failures": 9, "depth": 10, "batched": 11, "malformed": 12, "expired": 13, "refused": 14, "replayed": 18446744073709551615, "journal_reads": 15}, "shards": [{"len": 3, "capacity": 64, "hits": 10, "misses": 2, "coalesced": 1}, {"len": 0, "capacity": 64, "hits": 10, "misses": 2, "coalesced": 1}]}"#,
        r#"{"id": 8, "ok": true, "stats": {"hits": 0, "misses": 0, "coalesced": 0, "evictions": 0, "inline_hits": 0, "shed_plan": 0, "shed_run": 0, "runs_ok": 0, "failures": 0, "depth": 0, "batched": 0, "malformed": 0, "expired": 0, "refused": 0, "replayed": 0, "journal_reads": 0}, "shards": []}"#,
    ];
    assert_eq!(frames.each_ref().map(String::as_str), pinned);
}

/// The payloads of a fresh store's first segment, in order: the 10-byte
/// magic, then `[u32 LE length][u64 LE checksum][payload]` frames.
fn payloads(dir: &std::path::Path) -> Vec<String> {
    let bytes = std::fs::read(dir.join("segment-000001.alpj")).expect("segment");
    let mut out = Vec::new();
    let mut pos = 10;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        out.push(String::from_utf8(payload.to_vec()).expect("utf-8 payload"));
        pos += 12 + len;
    }
    out
}

#[test]
fn journal_payload_is_pinned() {
    let dir = std::env::temp_dir().join(format!("alp-pinned-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nest = alp_loopir::parse("doall (i, 0, 31) { A[i] = A[i]; }").unwrap();
    let plan = PartitionPlan::build(&nest, 4, None, LegalityVerdict::Unchecked).unwrap();
    let meshed = PlanKey {
        fingerprint: u64::MAX - 1,
        processors: 4,
        mesh: Some((2, 3)),
        checked: true,
        calibrated: false,
        skewed: true,
        certified: false,
    };
    let bare = PlanKey {
        fingerprint: 5,
        mesh: None,
        checked: false,
        calibrated: true,
        skewed: false,
        certified: true,
        ..meshed
    };
    let (mut store, _) = PlanStore::open(&dir).unwrap();
    store.append(&meshed, &plan).unwrap();
    store.append(&bare, &plan).unwrap();
    drop(store);
    let got = payloads(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    // The plan travels as one escaped string, the same in both frames.
    let plan = r#""{\n  \"alp-plan\": 3,\n  \"fingerprint\": \"b38baff8c370ad5f\",\n  \"processors\": 4,\n  \"mesh\": null,\n  \"legality\": {\n    \"checked\": false,\n    \"warnings\": 0\n  },\n  \"optimizer\": \"rect-exhaustive\",\n  \"chosen_by\": \"analytic\",\n  \"proc_grid\": [4],\n  \"tile_extents\": [7],\n  \"cost\": \"8/1\",\n  \"store_bytes\": 256,\n  \"class_footprints\": [\n    {\n      \"array\": \"A\",\n      \"refs\": 2,\n      \"shape_invariant\": true,\n      \"footprint\": \"8/1\"\n    }\n  ],\n  \"comm_free_normals\": [\n    [1]\n  ],\n  \"source\": \"doall (i, 0, 31) {\\n  A[i] = A[i];\\n}\\n\"\n}\n""#;
    let pinned = [
        format!(
            r#"{{"alp-store": 1, "seq": 0, "fingerprint": 18446744073709551614, "processors": 4, "mesh_rows": 2, "mesh_cols": 3, "checked": true, "calibrated": false, "skewed": true, "certified": false, "plan": {plan}}}"#
        ),
        format!(
            r#"{{"alp-store": 1, "seq": 1, "fingerprint": 5, "processors": 4, "mesh_rows": -1, "mesh_cols": -1, "checked": false, "calibrated": true, "skewed": false, "certified": true, "plan": {plan}}}"#
        ),
    ];
    assert_eq!(got, pinned);
}
