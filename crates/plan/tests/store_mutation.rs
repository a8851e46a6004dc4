//! Seeded mutation harness for the journal's segment scan: segments
//! built by appending the golden plans through `PlanStore`, mutated by
//! the mutators the DSL and plan-codec harnesses use, then scanned,
//! opened (which repairs) and scanned again.  An even seed mutates the
//! segment's bytes, which a frame's checksum catches; an odd seed
//! mutates one frame's payload and frames it again, length and checksum
//! recomputed, so the payload decoder sees the mutant.  Whatever the
//! bytes,
//!
//! - `PlanStore::scan` and `PlanStore::open` return without unwinding;
//! - the valid bytes and the quarantined bytes add up to the segment's
//!   length;
//! - every live entry is one of the appended `(key, plan)` pairs, and
//!   its plan re-encodes to the bytes that were appended — but for one
//!   entry of a re-framed mutant, whose plan re-encodes to a fixed
//!   point;
//! - after `open` repairs the store, a second scan finds no bad tail and
//!   the same live set, every live key reads back through the store's
//!   index, and a fresh append reads back.
//!
//! Seeds `0..2000` by default; `STORE_MUTATION_SEEDS=lo..hi` picks the
//! range (CI runs a wider one on the release build).  A failure names
//! the seed.

// `mutation::mutant` makes text mutants, and a segment is bytes.
#[allow(dead_code)]
mod mutation;

use alp_plan::{PartitionPlan, PlanKey, PlanStore, RecoveryReport};
use std::collections::HashMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Bytes an insert draws from: zero and `0xff` (length and checksum
/// bytes), the magic's letters and newline, JSON punctuation and digits.
const INSERTS: &[u8] = b"\x00\x01\xffALPSTORE1\n{}[],:\"-09";

/// Bytes a payload insert draws from: JSON's punctuation, a digit, the
/// letters that start a literal or an exponent, and an escape.
const PAYLOAD_INSERTS: &[u8] = b"{}[],:\"-.0179eEtfnu\\ ";

/// A segment's magic, and a frame's header: length and checksum.
const MAGIC_BYTES: usize = 10;
const HEADER: usize = 12;

/// The only segment of a fresh store.
const SEGMENT: &str = "segment-000001.alpj";

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("alp-store-mutation-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The golden plans, each under a key of its own; the keys vary every
/// field the envelope carries.
fn pairs() -> Vec<(PlanKey, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".plan.json"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "the goldens: {files:?}");
    files
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let plan = PartitionPlan::from_json_str(&fs::read_to_string(path).unwrap()).unwrap();
            let key = PlanKey {
                fingerprint: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
                processors: plan.processors,
                mesh: (i % 2 == 1).then_some((4, 4)),
                checked: i % 2 == 0,
                calibrated: false,
                skewed: i % 3 == 0,
                certified: i % 4 == 1,
            };
            (key, plan.to_json_string())
        })
        .collect()
}

/// The bytes of a segment holding `order`'s pairs, appended in turn.
fn segment(tag: &str, pairs: &[(PlanKey, String)], order: &[usize]) -> Vec<u8> {
    let dir = tmp_dir(tag);
    let (mut store, _) = PlanStore::open(&dir).unwrap();
    for &i in order {
        let (key, json) = &pairs[i];
        store
            .append(key, &PartitionPlan::from_json_str(json).unwrap())
            .unwrap();
    }
    drop(store);
    let bytes = fs::read(dir.join(SEGMENT)).unwrap();
    let _ = fs::remove_dir_all(&dir);
    bytes
}

/// The mutant of odd seed `seed`: one frame of a master with its
/// payload mutated one to three times, another frame's payload the
/// second input of a splice, framed again as `PlanStore` frames it.
fn reframed(seed: u64, masters: &[&[u8]]) -> Vec<u8> {
    let mut rng = mutation::Rng(seed);
    let master = masters[rng.below(masters.len())];
    let mut frames = Vec::new();
    let mut at = MAGIC_BYTES;
    while at < master.len() {
        let len = u32::from_le_bytes(master[at..at + 4].try_into().unwrap());
        frames.push(at..at + HEADER + len as usize);
        at = frames.last().unwrap().end;
    }
    let frame = frames[rng.below(frames.len())].clone();
    let mut payload = master[frame.start + HEADER..frame.end].to_vec();
    for _ in 0..1 + rng.below(3) {
        let other = &frames[rng.below(frames.len())];
        let other = &master[other.start + HEADER..other.end];
        mutation::mutate(&mut payload, other, PAYLOAD_INSERTS, &mut rng);
    }
    let len = (payload.len() as u32).to_le_bytes();
    let sum = alp_plan::fnv1a64(&[&len[..], &payload].concat()).to_le_bytes();
    let head = &master[..frame.start];
    [head, &len, &sum, &payload, &master[frame.end..]].concat()
}

/// A report's live set as `(key, plan bytes)`, in sequence order.
fn live(report: &RecoveryReport) -> Vec<(PlanKey, String)> {
    (report.live.iter())
        .map(|e| (e.key, e.plan.to_json_string()))
        .collect()
}

/// A report's quarantined regions as `(offset, bytes)`.
fn regions(report: &RecoveryReport) -> Vec<(u64, u64)> {
    (report.quarantined.iter())
        .map(|q| (q.offset, q.bytes))
        .collect()
}

fn unwound<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} unwound"))
}

/// The checks of the module doc on one segment's bytes, in `dir`;
/// `strangers` live entries may be other than an appended pair.
fn check(
    dir: &Path,
    bytes: &[u8],
    pairs: &HashMap<PlanKey, String>,
    strangers: usize,
) -> Result<(), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    let path = dir.join(SEGMENT);
    fs::write(&path, bytes).unwrap();

    let scanned = unwound("scan", || PlanStore::scan(dir))?.map_err(|e| format!("scan: {e}"))?;
    let quarantined: u64 = scanned.quarantined.iter().map(|q| q.bytes).sum();
    if scanned.bytes + quarantined != bytes.len() as u64 {
        return Err(format!(
            "{} valid + {quarantined} quarantined bytes of {}",
            scanned.bytes,
            bytes.len()
        ));
    }
    let others: Vec<_> = (live(&scanned).into_iter())
        .filter(|(key, json)| pairs.get(key) != Some(json))
        .collect();
    if others.len() > strangers {
        return Err(format!("replays what was never appended: {others:?}"));
    }
    for (key, json) in &others {
        let again = PartitionPlan::from_json_str(json).map(|plan| plan.to_json_string());
        if again.as_ref() != Ok(json) {
            return Err(format!("{key:?}'s plan is no fixed point: {again:?}"));
        }
    }

    let (mut store, opened) =
        unwound("open", || PlanStore::open(dir))?.map_err(|e| format!("open: {e}"))?;
    if (live(&opened), regions(&opened)) != (live(&scanned), regions(&scanned)) {
        return Err("open found other than scan".to_string());
    }

    // The repair cut the bad tail, if any; the skipped frames stay.
    let len = fs::metadata(&path).map_or(0, |m| m.len());
    let again = PlanStore::scan(dir).map_err(|e| format!("second scan: {e}"))?;
    if let Some(q) = (again.quarantined.iter()).find(|q| q.offset + q.bytes >= len) {
        return Err(format!("a bad tail after the repair: {q}"));
    }
    // A region of the first scan that ran to the segment's end was its
    // bad tail; the others were skipped frames.
    let skipped: Vec<_> = (regions(&scanned).into_iter())
        .filter(|&(offset, n)| offset + n < bytes.len() as u64)
        .collect();
    if regions(&again) != skipped {
        return Err(format!(
            "the second scan quarantined {:?}, not the skipped frames {skipped:?}",
            regions(&again)
        ));
    }
    if live(&again) != live(&scanned) {
        return Err("the second scan replays another live set".to_string());
    }
    for (key, want) in live(&again) {
        let read = store.read(&key).map_err(|e| format!("read {key:?}: {e}"))?;
        let plan = read.ok_or_else(|| format!("{key:?} is live but not indexed"))?;
        let plan = plan.plan().map_err(|e| format!("read {key:?}: {e}"))?;
        if plan.to_json_string() != want {
            return Err(format!("{key:?} reads back another plan"));
        }
    }

    let (key, json) = pairs.iter().next().unwrap();
    let fresh = PlanKey {
        fingerprint: key.fingerprint ^ 1,
        ..*key
    };
    let plan = PartitionPlan::from_json_str(json).unwrap();
    store
        .append(&fresh, &plan)
        .map_err(|e| format!("append: {e}"))?;
    let read = store.read(&fresh).map_err(|e| format!("read: {e}"))?;
    match read.map(|frame| frame.plan()) {
        Some(Ok(back)) if back.to_json_string() == *json => Ok(()),
        other => Err(format!("a fresh append reads back {other:?}")),
    }
}

#[test]
fn mutated_segments_scan_repair_and_replay_only_what_was_appended() {
    let pairs = pairs();
    let all: Vec<usize> = (0..pairs.len()).collect();
    // The second master appends in reverse and then supersedes the
    // first pair, so its sequence numbers and frame order differ.
    let mut reversed: Vec<usize> = all.iter().rev().copied().collect();
    reversed.push(0);
    let masters = [
        segment("master-a", &pairs, &all),
        segment("master-b", &pairs, &reversed),
    ];
    let masters: Vec<&[u8]> = masters.iter().map(Vec::as_slice).collect();
    let pairs: HashMap<PlanKey, String> = pairs.into_iter().collect();
    let dir = tmp_dir("seed");
    // The unmutated segments hold it too.
    for (m, bytes) in masters.iter().enumerate() {
        check(&dir, bytes, &pairs, 0).unwrap_or_else(|e| panic!("master {m}: {e}"));
    }
    for seed in mutation::seeds("STORE_MUTATION_SEEDS", 2000) {
        let (bytes, strangers) = match seed % 2 {
            0 => (mutation::mutant_bytes(seed, &masters, INSERTS), 0),
            _ => (reframed(seed, &masters), 1),
        };
        check(&dir, &bytes, &pairs, strangers).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Two frames of one sequence number, the heads of the two masters: the
/// splice of seed 162868, shrunk.  Recovery listed them in its hash
/// map's order, which changed from scan to scan; they replay in the
/// order they lie.
#[test]
fn frames_of_one_sequence_number_replay_in_the_order_they_lie() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/store");
    let bytes = fs::read(corpus.join("equal-seqs.alpj")).unwrap();
    let len = u32::from_le_bytes(bytes[MAGIC_BYTES..][..4].try_into().unwrap());
    let first = MAGIC_BYTES + HEADER + len as usize;
    let dir = tmp_dir("equal-seqs");
    fs::create_dir_all(&dir).unwrap();
    let live = |bytes: &[u8]| {
        fs::write(dir.join(SEGMENT), bytes).unwrap();
        let report = PlanStore::scan(&dir).unwrap();
        assert!(!report.corrupt(), "{report:?}");
        (report.live.iter())
            .map(|e| (e.seq, e.key))
            .collect::<Vec<_>>()
    };
    let head = live(&bytes[..first]);
    let tail = live(&[&bytes[..MAGIC_BYTES], &bytes[first..]].concat());
    assert_eq!((head.len(), tail.len()), (1, 1));
    assert_eq!(head[0].0, tail[0].0, "one sequence number");
    assert_ne!(head[0].1, tail[0].1, "two keys");
    for _ in 0..32 {
        assert_eq!(live(&bytes), [head[0], tail[0]]);
    }
    let _ = fs::remove_dir_all(&dir);
}
