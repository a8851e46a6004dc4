//! Crash-safety tests for the durable plan store behind `alp-cli serve`.
//!
//! The two halves of the durability contract:
//!
//! * **`kill -9` loses at most the last frame.**  A real daemon process
//!   is SIGKILLed mid-service; the journal then decodes byte-stably,
//!   every surviving certified plan re-proves its certificate via
//!   `recheck`, and a warm restart answers ≥90% of the pre-crash hot
//!   set from cache.
//! * **Corrupt bytes die at their documented layer.**  A committed
//!   corpus of damaged journals (bad checksum, truncated length prefix,
//!   garbage tail) is quarantined by `scan` — each at a distinct
//!   validation layer, never a fatal error — and `store verify` maps
//!   the corruption to exit 11 (`ALP0014`).

use alp::plan::{PlanStore, RecoveryReport};
use alp::serve::{Request, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "alp-recovery-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Structurally distinct 2-D nests: distinct trip counts give distinct
/// fingerprints.
fn source(rank: usize) -> String {
    let outer = 15 + rank;
    let inner = 15 + (rank * 7) % 17;
    format!("doall (i, 0, {outer}) {{ doall (j, 0, {inner}) {{ A[i,j] = B[i,j] + A[i,j]; }} }}")
}

/// One certified plan request over an open connection.
fn certified_plan_request(stream: &mut UnixStream, reader: &mut impl BufRead, rank: usize) -> bool {
    let mut req = Request::plan(rank as i128, &source(rank));
    req.plan.processors = 16;
    req.plan.certify = true;
    let mut line = req.encode();
    line.push('\n');
    if stream.write_all(line.as_bytes()).is_err() {
        return false;
    }
    let mut resp = String::new();
    if reader.read_line(&mut resp).is_err() {
        return false;
    }
    alp::serve::Response::decode(&resp).is_ok_and(|r| r.ok)
}

/// Fingerprint + full JSON of every live entry — the byte-stability
/// footprint of one scan.
fn decode_footprint(report: &RecoveryReport) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> = report
        .live
        .iter()
        .map(|e| (e.key.fingerprint, e.plan.to_json_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn sigkill_loses_at_most_one_frame_and_warm_restart_reproves_certificates() {
    let store = tmp_path("kill-store");
    let sock = tmp_path("kill.sock");
    let _ = std::fs::remove_dir_all(&store);

    // Two crash rounds against the same journal: the second round must
    // replay the first round's plans before appending its own.
    const HOT: usize = 8;
    let mut acked: Vec<usize> = Vec::new();
    for round in 0..2 {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_alp-cli"))
            .args(["serve", "--socket"])
            .arg(&sock)
            .arg("--store")
            .arg(&store)
            .args(["--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        for _ in 0..300 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(sock.exists(), "daemon round {round} never bound the socket");

        let mut stream = UnixStream::connect(&sock).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for i in 0..HOT {
            let rank = round * HOT + i;
            assert!(
                certified_plan_request(&mut stream, &mut reader, rank),
                "round {round}: plan {rank} acked"
            );
            acked.push(rank);
        }
        // The ack means the plan was computed and journaled (appends
        // happen before the response); now die the hard way.
        daemon.kill().expect("SIGKILL");
        daemon.wait().expect("reaped");
        let _ = std::fs::remove_file(&sock);
    }

    // Decode is byte-stable: two independent scans agree exactly.
    let scan1 = PlanStore::scan(&store).expect("scan");
    let scan2 = PlanStore::scan(&store).expect("scan again");
    assert_eq!(
        decode_footprint(&scan1),
        decode_footprint(&scan2),
        "independent scans decode identically"
    );

    // kill -9 loses at most the in-flight tail frame (and every ack
    // above was written with an OS-level write before the response, so
    // in practice nothing is lost).
    assert!(
        scan1.live.len() + 1 >= acked.len(),
        "{} acked, only {} survived — more than one frame lost",
        acked.len(),
        scan1.live.len()
    );

    // Every surviving plan carries its certificate and re-proves it.
    for e in &scan1.live {
        let plan = e.plan.as_ref();
        assert!(
            plan.certificate.is_some(),
            "journaled plan {} lost its certificate",
            e.key.fingerprint
        );
        alp::certify::recheck(plan).unwrap_or_else(|err| {
            panic!(
                "replayed certificate for {} fails recheck: {err}",
                e.key.fingerprint
            )
        });
    }

    // Warm restart: a fresh server over the same journal answers the
    // pre-crash hot set from cache — ≥90% warm hits.
    let (server, report) = Server::try_new(ServeConfig {
        store_dir: Some(store.clone()),
        ..ServeConfig::default()
    })
    .expect("reopen");
    assert!(report.is_some(), "restart produced a recovery report");
    let mut warm = 0usize;
    for &rank in &acked {
        let mut req = Request::plan(rank as i128, &source(rank));
        req.plan.processors = 16;
        req.plan.certify = true;
        let resp = server.handle_now(&req);
        assert!(resp.ok, "warm probe {rank} failed: {resp:?}");
        if resp.cache.as_deref() == Some("hit") {
            warm += 1;
        }
    }
    assert!(
        warm * 10 >= acked.len() * 9,
        "warm hit rate below 90%: {warm}/{}",
        acked.len()
    );

    let _ = std::fs::remove_dir_all(&store);
}

// --------------------------------------------------------------- corpus

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/store")
}

/// Copy one corpus file into a fresh store directory as its only
/// segment and scan it.
fn scan_corpus(name: &str) -> RecoveryReport {
    let dir = tmp_path(&format!("corpus-{name}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(corpus_dir().join(name), dir.join("segment-000001.alpj")).expect("copy corpus");
    let report = PlanStore::scan(&dir).expect("scan never hard-fails on corruption");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn corrupted_corpus_files_die_at_their_documented_layers() {
    // (file, validation layer that must reject it)
    let cases = [
        ("bad-checksum.alpj", "checksum mismatch"),
        ("truncated-length.alpj", "truncated frame header"),
        ("garbage-tail.alpj", "implausible frame length"),
    ];
    for (name, layer) in cases {
        let report = scan_corpus(name);
        assert!(report.corrupt(), "{name}: corruption detected");
        assert_eq!(
            report.live.len(),
            1,
            "{name}: the valid leading frame survives"
        );
        let reasons: Vec<&str> = report
            .quarantined
            .iter()
            .map(|q| q.reason.as_str())
            .collect();
        assert!(
            reasons.iter().any(|r| r.contains(layer)),
            "{name}: expected the {layer:?} layer to reject it, got {reasons:?}"
        );
    }
}

#[test]
fn store_verify_maps_corruption_to_exit_11_and_stats_stays_zero() {
    let dir = tmp_path("verify");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(
        corpus_dir().join("bad-checksum.alpj"),
        dir.join("segment-000001.alpj"),
    )
    .expect("copy corpus");

    let verify = Command::new(env!("CARGO_BIN_EXE_alp-cli"))
        .args(["store", "verify"])
        .arg(&dir)
        .output()
        .expect("store verify runs");
    assert_eq!(verify.status.code(), Some(11), "corrupt store exits 11");
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(stderr.contains("ALP0014"), "{stderr}");

    let stats = Command::new(env!("CARGO_BIN_EXE_alp-cli"))
        .args(["store", "stats"])
        .arg(&dir)
        .output()
        .expect("store stats runs");
    assert_eq!(
        stats.status.code(),
        Some(0),
        "stats reports but does not gate"
    );

    // `open` (repair) then `verify` again: clean, exit 0.
    let (_store, _) = PlanStore::open(&dir).expect("repair open");
    let verify2 = Command::new(env!("CARGO_BIN_EXE_alp-cli"))
        .args(["store", "verify"])
        .arg(&dir)
        .output()
        .expect("store verify runs");
    assert_eq!(verify2.status.code(), Some(0), "repaired store verifies");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_frame_before_a_good_one_loses_only_itself() {
    // Two journaled plans, one payload byte of the first frame flipped:
    // the first is quarantined, the second still replays and reads back.
    use alp::plan::{LegalityVerdict, PartitionPlan, PlanKey};
    let dir = tmp_path("skip");
    let (mut store, _) = PlanStore::open(&dir).expect("open");
    let mut keys = Vec::new();
    for i in 0..2 {
        let nest = alp::loopir::parse(&source(i)).expect("parses");
        let key = PlanKey {
            fingerprint: alp::plan::fingerprint(&nest),
            processors: 8,
            mesh: None,
            checked: true,
            calibrated: false,
            skewed: false,
            certified: false,
        };
        let plan = PartitionPlan::build(&nest, 8, None, LegalityVerdict::Unchecked).expect("plan");
        store.append(&key, &plan).expect("append");
        keys.push((key, plan.to_json_string()));
    }
    drop(store);
    let segment = dir.join("segment-000001.alpj");
    let mut bytes = std::fs::read(&segment).expect("read segment");
    bytes[b"ALPSTORE1\n".len() + 12 + 5] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("write segment");

    let stats = Command::new(env!("CARGO_BIN_EXE_alp-cli"))
        .args(["store", "stats"])
        .arg(&dir)
        .output()
        .expect("store stats runs");
    let stdout = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stdout.contains(" 1 frame(s), ") && stdout.contains(" 1 live plan(s), 1 quarantined"),
        "{stdout}"
    );

    // Opened twice: the repair the first open makes cuts nothing.
    let (_, report) = PlanStore::open(&dir).expect("open");
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    let (mut store, report) = PlanStore::open(&dir).expect("reopen");
    assert_eq!(
        (report.frames, report.quarantined.len()),
        (1, 1),
        "{report:?}"
    );
    let (key, want) = &keys[1];
    let frame = store.read(key).expect("read").expect("journaled");
    assert_eq!(&frame.plan().expect("checks").to_json_string(), want);
    assert!(store.read(&keys[0].0).expect("read").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regenerates `tests/corpus/store/` — run once with `--ignored` when
/// the frame format changes, then commit the bytes.
#[test]
#[ignore = "generator: writes the committed corpus files"]
fn generate_store_corpus() {
    use alp::plan::{LegalityVerdict, PartitionPlan, PlanKey};
    let dir = tmp_path("corpus-gen");
    let (mut store, _) = PlanStore::open(&dir).expect("open");
    for i in 0..2u64 {
        let nest = alp::loopir::parse(&format!(
            "doall (i, 0, {}) {{ A[i] = A[i] + B[i]; }}",
            31 + i
        ))
        .expect("parses");
        let key = PlanKey {
            fingerprint: alp::plan::fingerprint(&nest),
            processors: 8,
            mesh: None,
            checked: true,
            calibrated: false,
            skewed: false,
            certified: false,
        };
        let plan = PartitionPlan::build(&nest, 8, None, LegalityVerdict::Unchecked).expect("plan");
        store.append(&key, &plan).expect("append");
    }
    drop(store);
    let bytes = std::fs::read(dir.join("segment-000001.alpj")).expect("read segment");

    // Find the boundary between frame 1 and frame 2: magic, then
    // [u32 len][u64 checksum][payload].
    let magic = b"ALPSTORE1\n".len();
    let len1 = u32::from_le_bytes(bytes[magic..magic + 4].try_into().unwrap()) as usize;
    let frame1_end = magic + 12 + len1;

    let out = corpus_dir();
    std::fs::create_dir_all(&out).expect("mkdir corpus");

    // 1. Checksum layer: flip one payload byte of frame 2.
    let mut bad = bytes.clone();
    let victim = frame1_end + 12 + 5;
    bad[victim] ^= 0x40;
    std::fs::write(out.join("bad-checksum.alpj"), &bad).expect("write");

    // 2. Framing layer: frame 1 plus two bytes of frame 2's length
    //    prefix — the torn-write shape a power cut leaves.
    std::fs::write(out.join("truncated-length.alpj"), &bytes[..frame1_end + 2]).expect("write");

    // 3. Length-plausibility layer: frame 1 plus 64 bytes of 0xFF —
    //    a length prefix of u32::MAX can never be a real frame.
    let mut garbage = bytes[..frame1_end].to_vec();
    garbage.extend(std::iter::repeat_n(0xFFu8, 64));
    std::fs::write(out.join("garbage-tail.alpj"), &garbage).expect("write");

    let _ = std::fs::remove_dir_all(&dir);
}
