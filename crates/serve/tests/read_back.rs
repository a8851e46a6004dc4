//! The journal stands beneath the plan cache: a plan the cache evicted
//! is read back from its frame, not planned and journaled again.  These
//! tests hold the read-back to the bytes a fresh `build_plan` gives, to
//! one frame per key, and to a re-plan that supersedes a corrupt frame.

use alp_plan::PlanStore;
use alp_serve::pipeline::build_plan;
use alp_serve::{Request, Response, ServeConfig, Server};
use std::path::{Path, PathBuf};

const NESTS: [&str; 2] = [
    "doall (i, 0, 63) { doall (j, 0, 63) { A[i,j] = B[i,j] + B[i+1,j]; } }",
    "doall (i, 0, 127) { A[i] = A[i] + B[i]; }",
];

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alp-read-back-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server whose cache holds one plan, journaling into `dir`.
fn server(dir: &Path) -> Server {
    Server::new(ServeConfig {
        shards: 1,
        cache_capacity: 1,
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
}

/// Plan `source` through `handle_now`, asking for the plan's bytes, and
/// check them against a fresh build.
fn plan(server: &Server, source: &str) -> Response {
    let mut req = Request::plan(1, source);
    req.want_plan = true;
    let resp = server.handle_now(&req);
    assert!(resp.ok, "{source}: {resp:?}");
    let fresh = build_plan(&req.plan).expect("the nest plans");
    assert_eq!(
        resp.plan.as_deref(),
        Some(fresh.to_json_string().as_str()),
        "{source}: the reply's plan bytes are a fresh build's"
    );
    let label = resp.cache.as_deref();
    assert!(matches!(label, Some("computed" | "hit")), "{resp:?}");
    resp
}

#[test]
fn an_evicted_plan_is_read_back_not_re_planned() {
    let dir = store_dir("alternate");
    let server = server(&dir);
    // Two nests through a one-plan cache: every request after the first
    // two misses, and each miss finds its key in the journal.
    for _ in 0..10 {
        for source in NESTS {
            plan(&server, source);
        }
    }
    let stats = server.stats();
    assert_eq!(stats.misses, 20, "{stats:?}");
    assert_eq!(stats.journal_reads, 18, "{stats:?}");
    let report = PlanStore::scan(&dir).expect("scan");
    assert_eq!(report.frames, 2, "one frame per key: {report:?}");
    assert_eq!(report.replayed(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_frame_is_planned_again_and_superseded() {
    let dir = store_dir("corrupt");
    let server = server(&dir);
    for source in NESTS {
        plan(&server, source);
    }
    // Flip one payload byte of the first frame (10-byte segment magic,
    // 12-byte frame header): the first nest's next miss cannot read it.
    let segment = dir.join("segment-000001.alpj");
    let mut bytes = std::fs::read(&segment).expect("segment");
    bytes[10 + 12 + 20] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("rewrite segment");
    assert_eq!(plan(&server, NESTS[0]).cache.as_deref(), Some("computed"));
    assert_eq!(
        server.stats().journal_reads,
        0,
        "the corrupt frame reads nothing"
    );
    // Its new frame supersedes the bad one and reads back from now on.
    plan(&server, NESTS[1]);
    plan(&server, NESTS[0]);
    assert_eq!(server.stats().journal_reads, 2);
    let bytes = std::fs::read(&segment).expect("segment");
    assert_eq!(
        frames(&bytes),
        3,
        "one more frame, for the corrupt key only"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frames in a segment's bytes, walked by their length prefixes alone
/// (a scan stops at the corrupt one).
fn frames(segment: &[u8]) -> usize {
    let mut pos = 10;
    let mut n = 0;
    while pos < segment.len() {
        let len = u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
        n += 1;
    }
    n
}
