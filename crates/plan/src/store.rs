//! A durable, crash-safe journal of partition-plan artifacts — what
//! lets `alp-serve` survive a restart without a recompile storm.
//!
//! The paper's premise is that partitioning decisions are expensive to
//! derive and cheap to reuse; the serve layer memoizes them in a
//! [`ShardedPlanCache`](crate::ShardedPlanCache), but that cache dies
//! with the process.  [`PlanStore`] is the persistence layer beneath
//! it: an append-only journal of `(key, plan)` records that a daemon
//! replays on startup to re-warm its cache.
//!
//! # Frame format
//!
//! A store is a directory of numbered segment files
//! (`segment-NNNNNN.alpj`).  Each segment opens with the 10-byte magic
//! `ALPSTORE1\n` followed by frames:
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a checksum][payload bytes]
//! ```
//!
//! The checksum is [`fnv1a64`](crate::fnv1a64) over the length prefix
//! *and* the payload, streamed rather than copied into one buffer, so a
//! frame whose length field was torn fails the checksum even when the
//! bytes at the (wrong) payload boundary happen to look plausible.  The payload is a single-line integer-only JSON envelope
//! carrying the journal sequence number, every [`PlanKey`] field, and
//! the canonical plan artifact itself.
//!
//! # Crash safety
//!
//! Appends are single buffered `write` calls with **no** fsync: a
//! `kill -9` after `append` returns can lose at most the frames still
//! in the page cache, and a kill *during* the write leaves at most one
//! torn frame at the tail.  Recovery ([`PlanStore::open`]) walks every
//! segment frame by frame.  A frame whose header is plausible (its
//! length is in bounds and fits the segment) but whose checksum or
//! payload fails is *skipped* when the frame after it is good: its
//! bytes are copied to a `quarantine/` sidecar and reported at every
//! open until [`PlanStore::compact`] rewrites the segment, and the
//! frames behind it still replay.  Any other bad frame (short header,
//! oversized or truncated length, a bad frame followed by another or
//! by the segment's end) begins the segment's bad *tail*: the tail
//! bytes are copied to a sidecar, the segment is truncated back to
//! where the tail begins, and replay continues — corruption is
//! diagnosed (`ALP0014`) but **never fatal**.  [`PlanStore::sync`]
//! exists for the graceful-drain path, where the daemon wants the
//! journal on stable storage before exiting 0.
//!
//! # Rotation and compaction
//!
//! When the active segment exceeds [`StoreConfig::segment_bytes`] the
//! store rotates to a fresh segment.  [`PlanStore::compact`] rewrites
//! the live set into a brand-new segment via tempfile + fsync +
//! atomic rename, then deletes every older segment — a crash at any
//! point leaves either the old segments or the complete new one, never
//! a half-state.  Within and across segments, a later sequence number
//! for the same key supersedes earlier frames, so a plan built again for
//! a key — its frame read back corrupt, say — simply appends.
//!
//! # Reading back
//!
//! The store keeps, in memory, where each journaled key's newest
//! committed frame lies (segment, offset, length): Bitcask's keydir
//! over an append-only log.  Replay builds it in the same scan that
//! resolves the live set, [`PlanStore::append`] adds a frame only once
//! the whole frame is written, and [`PlanStore::compact`] rebuilds it
//! from the frames it rewrites.  [`PlanStore::read`] then fetches a
//! key's frame with one positioned read, and [`JournalFrame::plan`]
//! checks it the way replay does — checksum, envelope, plan decode —
//! and gives the plan only when the frame holds the key asked for.  So a
//! plan the daemon's memory cache evicted is read back, not re-planned,
//! and each key is journaled once.  Entries are a 64-bit hash of the key
//! and a packed location; two keys whose hashes collide share one entry,
//! and the key check turns the other key's read into a miss, never into
//! a wrong plan.

use crate::fingerprint::Fnv1a;
use crate::json::{self, FieldError, Item};
use crate::{PartitionPlan, PlanKey};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::BuildHasher as _;
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Stable diagnostic code for quarantined store corruption.  Never
/// fatal: recovery repairs the store and keeps serving.
pub const CORRUPT_CODE: &str = "ALP0014";

/// Envelope schema version inside each frame payload.
pub const STORE_VERSION: i128 = 1;

/// Per-segment magic header.
const MAGIC: &[u8] = b"ALPSTORE1\n";

/// Frame header bytes: u32 length + u64 checksum.
const HEADER: usize = 12;

/// Upper bound on one frame's payload — anything larger is corruption,
/// not a plan.
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A fault the write hook can inject into one store `write` operation.
/// This is how the chaos crate reaches inside the journal without the
/// journal depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The kernel accepted only the first `n` bytes (they really are
    /// written); the store must resume with the remainder.
    Short(usize),
    /// The write failed with this error kind.  `Interrupted` (EINTR)
    /// and `WouldBlock` (EAGAIN) must be retried transparently; hard
    /// kinds abort the append and leave a torn tail for recovery.
    Err(io::ErrorKind),
}

/// Hook consulted before every store write operation, keyed by a
/// monotone operation index.  Returning `None` lets the write proceed.
pub type WriteFaultHook = Arc<dyn Fn(u64, usize) -> Option<WriteFault> + Send + Sync>;

/// Tunables for a [`PlanStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (checked before each append).
    pub segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 4 << 20,
        }
    }
}

/// One live record replayed from the journal.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// Journal sequence number (later supersedes earlier per key).
    pub seq: u64,
    /// The cache key the plan was stored under.
    pub key: PlanKey,
    /// The decoded plan artifact.
    pub plan: Arc<PartitionPlan>,
}

/// One corrupt region found (and, under [`PlanStore::open`], repaired)
/// during recovery.
#[derive(Debug, Clone)]
pub struct QuarantineEvent {
    /// Segment index the corruption was found in.
    pub segment: u64,
    /// Byte offset of the first bad byte.
    pub offset: u64,
    /// Number of bytes quarantined: a skipped frame's own length, or,
    /// for a bad tail, from the bad byte to the end of the segment.
    pub bytes: u64,
    /// What failed: header, length bound, checksum, or payload decode.
    pub reason: String,
}

impl std::fmt::Display for QuarantineEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warning[{CORRUPT_CODE}]: store segment {:06} byte {}: {} ({} bytes quarantined)",
            self.segment, self.offset, self.reason, self.bytes
        )
    }
}

/// What [`PlanStore::open`] / [`PlanStore::scan`] found.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments examined.
    pub segments: usize,
    /// Valid frames decoded across all segments (including superseded
    /// ones).
    pub frames: u64,
    /// Total valid bytes scanned.
    pub bytes: u64,
    /// The live set: latest frame per key, ordered by sequence number.
    pub live: Vec<StoredEntry>,
    /// Corrupt regions found; empty for a clean store.
    pub quarantined: Vec<QuarantineEvent>,
}

impl RecoveryReport {
    /// True when any corruption was found (`ALP0014`).
    pub fn corrupt(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Number of live plans replayed.
    pub fn replayed(&self) -> usize {
        self.live.len()
    }
}

/// Outcome of one [`PlanStore::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Segments deleted after the rewrite.
    pub segments_removed: usize,
    /// Frames written into the fresh segment (the live set size).
    pub frames: usize,
    /// Journal bytes before compaction.
    pub bytes_before: u64,
    /// Journal bytes after compaction.
    pub bytes_after: u64,
}

fn seg_name(index: u64) -> String {
    format!("segment-{index:06}.alpj")
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(seg_name(index))
}

fn retriable(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Encode one record's frame payload (single-line envelope JSON).
fn encode_payload(seq: u64, key: &PlanKey, plan: &PartitionPlan) -> Vec<u8> {
    json::line(|w| {
        w.field("alp-store").int(STORE_VERSION);
        w.field("seq").int(seq);
        w.field("fingerprint").int(key.fingerprint);
        w.field("processors").int(key.processors);
        match key.mesh {
            Some((rows, cols)) => {
                w.field("mesh_rows").int(rows);
                w.field("mesh_cols").int(cols);
            }
            None => {
                w.field("mesh_rows").int(-1);
                w.field("mesh_cols").int(-1);
            }
        }
        w.field("checked").bool(key.checked);
        w.field("calibrated").bool(key.calibrated);
        w.field("skewed").bool(key.skewed);
        w.field("certified").bool(key.certified);
        w.field("plan").str(&plan.to_json_string());
    })
    .into_bytes()
}

/// A frame's checksum: over the length prefix and the payload.
fn checksum(len: [u8; 4], payload: &[u8]) -> u64 {
    let mut sum = Fnv1a::new();
    sum.update(&len);
    sum.update(payload);
    sum.finish()
}

/// Frame a payload: length, checksum over length + payload, payload.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let mut frame = Vec::with_capacity(HEADER + payload.len());
    frame.extend_from_slice(&len);
    frame.extend_from_slice(&checksum(len, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// One frame's record, decoded.
struct Record {
    seq: u64,
    key: PlanKey,
    plan: PartitionPlan,
}

fn decode_payload(payload: &[u8]) -> Result<Record, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let j = json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let (seq, key, plan_text) = decode_envelope(Item::root(&j)).map_err(|e| e.to_string())?;
    let plan =
        PartitionPlan::from_json_str(plan_text).map_err(|e| format!("embedded plan: {e}"))?;
    Ok(Record { seq, key, plan })
}

/// The envelope around the plan text: a frame that passed its checksum
/// is still refused when a field is missing, mistyped or does not fit
/// the key's own integer types — replaying a fingerprint `k + 2⁶⁴`
/// under `k` would warm the cache with another nest's plan.
fn decode_envelope(f: Item<'_>) -> Result<(u64, PlanKey, &str), FieldError> {
    f.req("alp-store", |v| match v.int::<i128>()? {
        STORE_VERSION => Ok(()),
        other => Err(v.refuse(format!("version {other} is not supported"))),
    })?;
    // "No mesh" travels as -1, -1.
    let dim = |d: Item<'_>| match d.int::<i128>()? {
        -1 => Ok(None),
        _ => d.int::<usize>().map(Some),
    };
    let mesh = f.req("mesh_rows", dim)?.zip(f.req("mesh_cols", dim)?);
    let key = PlanKey {
        fingerprint: f.req("fingerprint", Item::int)?,
        processors: f.req("processors", Item::int)?,
        mesh,
        checked: f.req("checked", Item::bool)?,
        calibrated: f.req("calibrated", Item::bool)?,
        skewed: f.req("skewed", Item::bool)?,
        certified: f.req("certified", Item::bool)?,
    };
    Ok((f.req("seq", Item::int)?, key, f.req("plan", Item::str)?))
}

struct SegmentScan {
    /// Valid frames.
    frames: u64,
    /// Frames skipped inside the segment: offset, length, why.
    skipped: Vec<(u64, u64, String)>,
    /// Where the bad tail begins: the segment's length when it has none.
    good_len: u64,
    /// Why the segment has a bad tail, if it does.
    bad: Option<String>,
}

/// The length (header included) of the frame at the head of `rest`,
/// `None` at the segment's end, or why its header cannot be trusted.
fn frame_extent(rest: &[u8]) -> Result<Option<usize>, String> {
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < HEADER {
        let got = rest.len();
        return Err(format!("truncated frame header ({got} of {HEADER} bytes)"));
    }
    let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(format!("implausible frame length {len}"));
    }
    let end = HEADER + len as usize;
    if end > rest.len() {
        let got = rest.len() - HEADER;
        return Err(format!("truncated frame payload ({got} of {len} bytes)"));
    }
    Ok(Some(end))
}

/// The record one whole frame holds, or why it holds none: its checksum
/// fails or its payload does not decode.
fn check_frame(frame: &[u8]) -> Result<Record, String> {
    let prefix: [u8; 4] = frame[..4].try_into().expect("4 bytes");
    let stored = u64::from_le_bytes(frame[4..HEADER].try_into().expect("8 bytes"));
    if checksum(prefix, &frame[HEADER..]) != stored {
        return Err("frame checksum mismatch".to_string());
    }
    decode_payload(&frame[HEADER..])
        .map_err(|reason| format!("undecodable frame payload: {reason}"))
}

/// The frame at the head of `rest`: its record and its length, `None`
/// at the segment's end, or why it is bad.
fn read_frame(rest: &[u8]) -> Result<Option<(Record, usize)>, String> {
    let Some(end) = frame_extent(rest)? else {
        return Ok(None);
    };
    Ok(Some((check_frame(&rest[..end])?, end)))
}

/// Walk one segment's bytes, handing each valid frame's record, offset
/// and length to `frame`; never fails.  A frame whose header is
/// plausible but whose checksum or payload fails is skipped when the
/// frame after it is good; any other bad frame, one at the segment's
/// end included, begins the segment's bad tail.
fn scan_segment(buf: &[u8], mut frame: impl FnMut(Record, u64, usize)) -> SegmentScan {
    let mut scan = SegmentScan {
        frames: 0,
        skipped: Vec::new(),
        good_len: 0,
        bad: Some("bad segment header".to_string()),
    };
    if !buf.starts_with(MAGIC) {
        return scan;
    }
    let mut pos = MAGIC.len();
    // A whole frame that failed its checks, skipped once a good frame
    // follows it.
    let mut suspect: Option<(usize, String)> = None;
    let tail = loop {
        let end = match frame_extent(&buf[pos..]) {
            Ok(Some(end)) => end,
            Ok(None) => break None,
            Err(reason) => break Some(reason),
        };
        match check_frame(&buf[pos..pos + end]) {
            Ok(record) => {
                if let Some((at, reason)) = suspect.take() {
                    scan.skipped.push((at as u64, (pos - at) as u64, reason));
                }
                frame(record, pos as u64, end);
                scan.frames += 1;
            }
            // Two bad frames in a row: the tail begins at the first.
            Err(_) if suspect.is_some() => break None,
            Err(reason) => suspect = Some((pos, reason)),
        }
        pos += end;
    };
    // A bad frame with no good frame after it begins the bad tail.
    (scan.good_len, scan.bad) = match suspect {
        Some((at, reason)) => (at as u64, Some(reason)),
        None => (pos as u64, tail),
    };
    scan
}

fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("segment-")
            .and_then(|s| s.strip_suffix(".alpj"))
        {
            if let Ok(n) = num.parse::<u64>() {
                indices.push(n);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Where one frame lies: its segment, its byte offset there and its
/// length, header included.  Packed to 16 bytes; a frame whose segment
/// index or length does not fit is not indexed, and reads as a miss.
#[derive(Debug, Clone, Copy)]
struct FrameLoc {
    segment: u32,
    len: u32,
    offset: u64,
}

impl FrameLoc {
    fn new(segment: u64, offset: u64, len: usize) -> Option<FrameLoc> {
        Some(FrameLoc {
            segment: u32::try_from(segment).ok()?,
            len: u32::try_from(len).ok()?,
            offset,
        })
    }
}

/// Each journaled key's newest committed frame (see the module docs),
/// by a 64-bit hash of the key rather than the key itself (24 bytes an
/// entry, not 64), and [`JournalFrame::plan`] checks the key it reads.  The hash
/// is keyed per process, so no client can pick nests whose keys collide.
#[derive(Debug, Default)]
struct KeyIndex {
    hasher: RandomState,
    locs: HashMap<u64, FrameLoc>,
}

impl KeyIndex {
    fn hash(&self, key: &PlanKey) -> u64 {
        self.hasher.hash_one(key)
    }

    fn get(&self, key: &PlanKey) -> Option<FrameLoc> {
        self.locs.get(&self.hash(key)).copied()
    }

    /// Point `key` at its newest frame; a frame that cannot be located
    /// in 16 bytes (`None`) unindexes the key instead, since the older
    /// frame it would otherwise read is superseded.
    fn set(&mut self, key: &PlanKey, loc: Option<FrameLoc>) {
        let hash = self.hash(key);
        match loc {
            Some(loc) => self.locs.insert(hash, loc),
            None => self.locs.remove(&hash),
        };
    }
}

/// A key's journaled frame as [`PlanStore::read`] read it: raw bytes,
/// so the caller can check and decode them after releasing whatever
/// lock guards the store.
#[derive(Debug)]
pub struct JournalFrame {
    key: PlanKey,
    bytes: Vec<u8>,
}

impl JournalFrame {
    /// The plan this frame holds: the frame must pass the checks replay
    /// makes (checksum, envelope, plan decode), fill the bytes read, and
    /// hold the key it was read for.  `Err` says which check failed.
    pub fn plan(self) -> Result<PartitionPlan, String> {
        match read_frame(&self.bytes)? {
            Some((record, len)) if len == self.bytes.len() && record.key == self.key => {
                Ok(record.plan)
            }
            Some((record, _)) if record.key != self.key => {
                Err("indexed frame holds another key's plan".to_string())
            }
            _ => Err("indexed frame does not fill its extent".to_string()),
        }
    }
}

/// The append handle over a store directory.  Not internally
/// synchronized — the server wraps it in a mutex.  Appends happen only
/// for a plan that was built, which already paid a compile; reads, on a
/// memory-cache miss, copy one frame's bytes out under that mutex and
/// leave the decode to the caller.
pub struct PlanStore {
    dir: PathBuf,
    cfg: StoreConfig,
    active: File,
    active_index: u64,
    /// Bytes physically in the active segment (including any torn tail
    /// from a failed append).
    active_len: u64,
    /// Bytes up to the last fully acknowledged frame; a failed append
    /// is rolled back to this watermark before the next one.
    committed_len: u64,
    next_seq: u64,
    ops: u64,
    appended: u64,
    hook: Option<WriteFaultHook>,
    /// Where each journaled key's newest committed frame lies.
    index: KeyIndex,
    /// Read handles of the segments [`PlanStore::read`] has read from,
    /// opened on first use.
    readers: HashMap<u64, File>,
}

impl std::fmt::Debug for PlanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStore")
            .field("dir", &self.dir)
            .field("active_index", &self.active_index)
            .field("committed_len", &self.committed_len)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl PlanStore {
    /// Open (creating if needed) the store at `dir` with default
    /// tunables, repairing and reporting any corruption found.
    pub fn open(dir: &Path) -> io::Result<(PlanStore, RecoveryReport)> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// [`open`](PlanStore::open) with explicit tunables.
    pub fn open_with(dir: &Path, cfg: StoreConfig) -> io::Result<(PlanStore, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let (report, index) = recover(dir, true)?;
        let next_seq = report.live.iter().map(|e| e.seq + 1).max().unwrap_or(0);
        let indices = segment_indices(dir)?;
        let (active_index, active, active_len) = match indices.last() {
            Some(&last) => {
                let path = seg_path(dir, last);
                let len = fs::metadata(&path)?.len();
                let file = OpenOptions::new().append(true).open(&path)?;
                (last, file, len)
            }
            None => new_segment(dir, 1)?,
        };
        Ok((
            PlanStore {
                dir: dir.to_path_buf(),
                cfg,
                active,
                active_index,
                active_len,
                committed_len: active_len,
                next_seq,
                ops: 0,
                appended: 0,
                hook: None,
                index,
                readers: HashMap::new(),
            },
            report,
        ))
    }

    /// Read-only integrity scan: decode every segment without
    /// repairing anything.  What `alp-cli store verify` runs.
    pub fn scan(dir: &Path) -> io::Result<RecoveryReport> {
        Ok(recover(dir, false)?.0)
    }

    /// The directory this store journals into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames appended through this handle (not counting replay).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Install a write-fault hook (chaos injection).
    pub fn set_write_fault(&mut self, hook: WriteFaultHook) {
        self.hook = Some(hook);
    }

    /// Journal one plan.  Returns the record's sequence number.  On
    /// error the frame may be partially on disk; the next append (or
    /// the next recovery) rolls the tail back to the last committed
    /// frame, so a failed append never corrupts its successors.  The
    /// key index points at the frame only once all of it is written.
    pub fn append(&mut self, key: &PlanKey, plan: &PartitionPlan) -> io::Result<u64> {
        self.repair_tail()?;
        let seq = self.next_seq;
        let frame = encode_frame(&encode_payload(seq, key, plan));
        if self.committed_len + frame.len() as u64 > self.cfg.segment_bytes
            && self.committed_len > MAGIC.len() as u64
        {
            self.rotate()?;
        }
        let offset = self.committed_len;
        self.write_faulty(&frame)?;
        let loc = FrameLoc::new(self.active_index, offset, frame.len());
        self.index.set(key, loc);
        self.committed_len = self.active_len;
        self.next_seq += 1;
        self.appended += 1;
        Ok(seq)
    }

    /// The newest committed frame journaled under `key`, read with one
    /// positioned read: `Ok(None)` when the journal holds none.  Check
    /// and decode it with [`JournalFrame::plan`].
    pub fn read(&mut self, key: &PlanKey) -> io::Result<Option<JournalFrame>> {
        let Some(loc) = self.index.get(key) else {
            return Ok(None);
        };
        let segment = u64::from(loc.segment);
        let file = match self.readers.entry(segment) {
            Entry::Occupied(file) => file.into_mut(),
            Entry::Vacant(slot) => slot.insert(File::open(seg_path(&self.dir, segment))?),
        };
        let mut bytes = vec![0; loc.len as usize];
        file.read_exact_at(&mut bytes, loc.offset)?;
        Ok(Some(JournalFrame { key: *key, bytes }))
    }

    /// Flush the active segment to stable storage (fsync).  Appends
    /// deliberately skip this — a process crash cannot lose buffered
    /// `write`s, only power loss can — so the daemon calls it once, on
    /// graceful drain.
    pub fn sync(&self) -> io::Result<()> {
        self.active.sync_all()
    }

    /// Rewrite the live set into one fresh segment (tempfile + fsync +
    /// atomic rename), then delete every older segment.  From the
    /// rename on, the key index knows only the rewritten frames: a key
    /// `live` does not name reads nothing.
    pub fn compact(&mut self, live: &[(PlanKey, Arc<PartitionPlan>)]) -> io::Result<CompactReport> {
        let bytes_before = segment_indices(&self.dir)?
            .iter()
            .map(|&i| fs::metadata(seg_path(&self.dir, i)).map(|m| m.len()))
            .sum::<io::Result<u64>>()?;
        let next_index = self.active_index + 1;
        let tmp = self.dir.join("compact.tmp");
        let mut index = KeyIndex::default();
        {
            let mut f = File::create(&tmp)?;
            f.write_all(MAGIC)?;
            let mut offset = MAGIC.len() as u64;
            for (key, plan) in live {
                let seq = self.next_seq;
                self.next_seq += 1;
                let frame = encode_frame(&encode_payload(seq, key, plan));
                f.write_all(&frame)?;
                index.set(key, FrameLoc::new(next_index, offset, frame.len()));
                offset += frame.len() as u64;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, seg_path(&self.dir, next_index))?;
        self.index = index;
        self.readers.clear();
        // Make the rename itself durable before deleting the old
        // segments (best effort: not every filesystem lets you fsync a
        // directory handle).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let mut removed = 0;
        for i in segment_indices(&self.dir)? {
            if i < next_index {
                fs::remove_file(seg_path(&self.dir, i))?;
                removed += 1;
            }
        }
        let path = seg_path(&self.dir, next_index);
        self.active_len = fs::metadata(&path)?.len();
        self.committed_len = self.active_len;
        self.active = OpenOptions::new().append(true).open(&path)?;
        self.active_index = next_index;
        Ok(CompactReport {
            segments_removed: removed,
            frames: live.len(),
            bytes_before,
            bytes_after: self.active_len,
        })
    }

    /// Roll a torn tail (from a previously failed append) back to the
    /// last committed frame.
    fn repair_tail(&mut self) -> io::Result<()> {
        if self.active_len != self.committed_len {
            self.active.set_len(self.committed_len)?;
            self.active_len = self.committed_len;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        let (index, file, len) = new_segment(&self.dir, self.active_index + 1)?;
        self.active = file;
        self.active_index = index;
        self.active_len = len;
        self.committed_len = len;
        Ok(())
    }

    /// One `write` call with transparent EINTR/EAGAIN retry; tracks
    /// how far the physical file has advanced.
    fn write_some(&mut self, chunk: &[u8]) -> io::Result<usize> {
        loop {
            match self.active.write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.active_len += n as u64;
                    return Ok(n);
                }
                Err(e) if retriable(e.kind()) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Write a whole frame, consulting the fault hook before every
    /// operation.  Injected short writes and EINTR/EAGAIN are absorbed
    /// the way a robust writer absorbs the real thing; injected hard
    /// errors abort mid-frame, leaving the torn tail recovery handles.
    fn write_faulty(&mut self, frame: &[u8]) -> io::Result<()> {
        let hook = self.hook.clone();
        let mut buf = frame;
        while !buf.is_empty() {
            let op = self.ops;
            self.ops += 1;
            let fault = hook.as_ref().and_then(|h| h(op, buf.len()));
            match fault {
                Some(WriteFault::Short(keep)) => {
                    let keep = keep.min(buf.len());
                    if keep > 0 {
                        let n = self.write_some(&buf[..keep])?;
                        buf = &buf[n..];
                    }
                }
                Some(WriteFault::Err(kind)) if retriable(kind) => {}
                Some(WriteFault::Err(kind)) => {
                    return Err(io::Error::new(kind, "injected store write fault"))
                }
                None => {
                    let n = self.write_some(buf)?;
                    buf = &buf[n..];
                }
            }
        }
        Ok(())
    }
}

fn new_segment(dir: &Path, index: u64) -> io::Result<(u64, File, u64)> {
    let path = seg_path(dir, index);
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)?;
    file.write_all(MAGIC)?;
    Ok((index, file, MAGIC.len() as u64))
}

/// Scan every segment; with `repair` also copy every bad region to
/// `quarantine/` and truncate each bad tail off its segment.  The scan keeps
/// only the newest frame per key as it goes (a later sequence number
/// supersedes, wherever it lies), and gives the key index of those
/// frames beside the report.
fn recover(dir: &Path, repair: bool) -> io::Result<(RecoveryReport, KeyIndex)> {
    let mut report = RecoveryReport::default();
    if !dir.exists() {
        return Ok((report, KeyIndex::default()));
    }
    let mut latest: HashMap<PlanKey, (StoredEntry, Option<FrameLoc>)> = HashMap::new();
    for index in segment_indices(dir)? {
        report.segments += 1;
        let path = seg_path(dir, index);
        let buf = fs::read(&path)?;
        let scan = scan_segment(&buf, |record, offset, len| match latest.entry(record.key) {
            Entry::Occupied(prev) if prev.get().0.seq >= record.seq => {}
            slot => {
                let entry = StoredEntry {
                    seq: record.seq,
                    key: record.key,
                    plan: Arc::new(record.plan),
                };
                slot.insert_entry((entry, FrameLoc::new(index, offset, len)));
            }
        });
        let skipped: u64 = scan.skipped.iter().map(|&(_, bytes, _)| bytes).sum();
        report.frames += scan.frames;
        report.bytes += scan.good_len - skipped;
        let tail = scan.bad.map(|reason| {
            let bytes = buf.len() as u64 - scan.good_len;
            (scan.good_len, bytes, reason)
        });
        // Skipped frames stay in place until compaction rewrites the
        // segment; only a bad tail is cut off, once it is copied aside.
        let cut = repair && tail.is_some();
        for (offset, bytes, reason) in scan.skipped.into_iter().chain(tail) {
            if repair {
                let bad = &buf[offset as usize..(offset + bytes) as usize];
                fs::create_dir_all(dir.join("quarantine"))?;
                fs::write(sidecar(dir, index, offset), bad)?;
            }
            report.quarantined.push(QuarantineEvent {
                segment: index,
                offset,
                bytes,
                reason,
            });
        }
        if cut {
            truncate(&path, scan.good_len)?;
        }
    }
    let mut live: Vec<_> = latest.into_values().collect();
    live.sort_by_key(|(entry, _)| entry.seq);
    let mut keys = KeyIndex::default();
    for (entry, loc) in &live {
        keys.set(&entry.key, *loc);
    }
    report.live = live.into_iter().map(|(entry, _)| entry).collect();
    Ok((report, keys))
}

/// Where a quarantined region's bytes are copied for post-mortem.
fn sidecar(dir: &Path, index: u64, offset: u64) -> PathBuf {
    dir.join("quarantine")
        .join(format!("segment-{index:06}-at-{offset}.bad"))
}

/// Cut a segment back to `good_len`, where its bad tail begins; a
/// segment whose header itself is bad (`good_len` 0) is removed.
fn truncate(path: &Path, good_len: u64) -> io::Result<()> {
    if good_len == 0 {
        fs::remove_file(path)
    } else {
        OpenOptions::new().write(true).open(path)?.set_len(good_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LegalityVerdict;
    use alp_loopir::parse;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "alp-store-unit-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key(fp: u64) -> PlanKey {
        PlanKey {
            fingerprint: fp,
            processors: 16,
            mesh: None,
            checked: true,
            calibrated: false,
            skewed: false,
            certified: false,
        }
    }

    fn plan(trip: i128) -> PartitionPlan {
        let nest = parse(&format!("doall (i, 0, {trip}) {{ A[i] = A[i]; }}")).unwrap();
        PartitionPlan::build(&nest, 4, None, LegalityVerdict::Unchecked).unwrap()
    }

    /// What `store` reads back for `key`, as the plan's bytes.
    fn read_back(store: &mut PlanStore, key: &PlanKey) -> Option<String> {
        let frame = store.read(key).unwrap()?;
        Some(frame.plan().unwrap().to_json_string())
    }

    #[test]
    fn the_checksum_of_a_fixed_frame_is_pinned() {
        // Frames on disk carry it, so streaming the two slices into the
        // hash must give what hashing one copy of them gave.
        let len = 5u32.to_le_bytes();
        assert_eq!(checksum(len, b"hello"), 0x578b_e629_69f4_2978);
        let copied = [&len[..], b"hello"].concat();
        assert_eq!(checksum(len, b"hello"), crate::fnv1a64(&copied));
    }

    #[test]
    fn an_appended_plan_reads_back_byte_identical() {
        let dir = tmp_dir("read");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        assert!(store.read(&key(1)).unwrap().is_none(), "nothing journaled");
        for fp in 0..3u64 {
            store.append(&key(fp), &plan(31 + fp as i128)).unwrap();
        }
        for fp in 0..3u64 {
            let want = plan(31 + fp as i128).to_json_string();
            assert_eq!(read_back(&mut store, &key(fp)), Some(want), "key {fp}");
        }
        // A later frame supersedes an earlier one for the same key.
        store.append(&key(1), &plan(255)).unwrap();
        let want = plan(255).to_json_string();
        assert_eq!(read_back(&mut store, &key(1)), Some(want));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_plan_reads_back_from_a_rotated_away_segment() {
        let dir = tmp_dir("read-rotate");
        let cfg = StoreConfig { segment_bytes: 1 };
        let (mut store, _) = PlanStore::open_with(&dir, cfg).unwrap();
        for fp in 0..4u64 {
            store.append(&key(fp), &plan(31 + fp as i128)).unwrap();
        }
        assert!(segment_indices(&dir).unwrap().len() >= 4);
        for fp in 0..4u64 {
            let want = plan(31 + fp as i128).to_json_string();
            assert_eq!(read_back(&mut store, &key(fp)), Some(want), "key {fp}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_store_reads_back_through_the_index_replay_built() {
        let dir = tmp_dir("read-reopen");
        let cfg = StoreConfig { segment_bytes: 1 };
        let (mut store, _) = PlanStore::open_with(&dir, cfg).unwrap();
        for fp in 0..3u64 {
            store.append(&key(fp), &plan(31)).unwrap();
        }
        // Superseded across segments: replay must index the newest.
        store.append(&key(0), &plan(127)).unwrap();
        drop(store);
        let (mut store, report) = PlanStore::open_with(&dir, cfg).unwrap();
        assert_eq!((report.frames, report.replayed()), (4, 3));
        let seqs: Vec<u64> = report.live.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3], "the live set in sequence order");
        let want = plan(127).to_json_string();
        assert_eq!(read_back(&mut store, &key(0)), Some(want));
        for fp in 1..3u64 {
            let want = plan(31).to_json_string();
            assert_eq!(read_back(&mut store, &key(fp)), Some(want), "key {fp}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reindexes_the_frames_it_keeps_and_drops_the_rest() {
        let dir = tmp_dir("read-compact");
        let cfg = StoreConfig { segment_bytes: 1 };
        let (mut store, _) = PlanStore::open_with(&dir, cfg).unwrap();
        for fp in 0..3u64 {
            store.append(&key(fp), &plan(31 + fp as i128)).unwrap();
        }
        for fp in 0..3u64 {
            assert!(
                read_back(&mut store, &key(fp)).is_some(),
                "key {fp} opens a reader"
            );
        }
        let kept: Vec<(PlanKey, Arc<PartitionPlan>)> = [0u64, 2]
            .iter()
            .map(|&fp| (key(fp), Arc::new(plan(31 + fp as i128))))
            .collect();
        store.compact(&kept).unwrap();
        assert_eq!(segment_indices(&dir).unwrap().len(), 1);
        assert!(
            store.read(&key(1)).unwrap().is_none(),
            "not kept, not indexed"
        );
        for fp in [0u64, 2] {
            let want = plan(31 + fp as i128).to_json_string();
            assert_eq!(read_back(&mut store, &key(fp)), Some(want), "key {fp}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_indexed_frame_reads_nothing_until_an_append_supersedes_it() {
        let dir = tmp_dir("read-corrupt");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &plan(63)).unwrap();
        store.append(&key(2), &plan(127)).unwrap();
        // Flip one payload byte of the first frame.
        let path = seg_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[MAGIC.len() + HEADER + 20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let frame = store.read(&key(1)).unwrap().expect("indexed");
        assert_eq!(frame.plan().unwrap_err(), "frame checksum mismatch");
        // The untouched neighbour still reads.
        let want = plan(127).to_json_string();
        assert_eq!(read_back(&mut store, &key(2)), Some(want));
        // Built again, the key's new frame supersedes the bad one.
        store.append(&key(1), &plan(63)).unwrap();
        let want = plan(63).to_json_string();
        assert_eq!(read_back(&mut store, &key(1)), Some(want));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_frame_before_a_good_one_is_skipped_until_compaction() {
        let dir = tmp_dir("skip");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &plan(63)).unwrap();
        store.append(&key(2), &plan(127)).unwrap();
        drop(store);
        // Flip one payload byte of the first frame.
        let path = seg_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let first = MAGIC.len() + frame_extent(&bytes[MAGIC.len()..]).unwrap().unwrap();
        bytes[MAGIC.len() + HEADER + 20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        // Reported at every open, and never cut: the frame behind it
        // replays and reads back.
        for _ in 0..2 {
            let (mut store, report) = PlanStore::open(&dir).unwrap();
            let counts = (report.frames, report.live.len(), report.quarantined.len());
            assert_eq!(counts, (1, 1, 1), "{report:?}");
            let q = &report.quarantined[0];
            assert_eq!(
                (q.offset, q.bytes),
                (MAGIC.len() as u64, (first - MAGIC.len()) as u64)
            );
            assert_eq!(q.reason, "frame checksum mismatch");
            assert_eq!(report.bytes, (bytes.len() - first + MAGIC.len()) as u64);
            assert_eq!(
                fs::read(&path).unwrap(),
                bytes,
                "a skipped frame is not cut"
            );
            let sidecar = fs::read(sidecar(&dir, 1, MAGIC.len() as u64)).unwrap();
            assert_eq!(sidecar, bytes[MAGIC.len()..first]);
            assert_eq!(read_back(&mut store, &key(1)), None);
            let want = plan(127).to_json_string();
            assert_eq!(read_back(&mut store, &key(2)), Some(want));
        }
        // Compaction rewrites the segment without it.
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.compact(&[(key(2), Arc::new(plan(127)))]).unwrap();
        drop(store);
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert!(!report.corrupt(), "{report:?}");
        assert_eq!(report.replayed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_bad_frames_in_a_row_begin_the_bad_tail() {
        let dir = tmp_dir("skip-two");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        for k in 1..=3 {
            store.append(&key(k), &plan(31 + k as i128)).unwrap();
        }
        drop(store);
        let path = seg_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let second = MAGIC.len() + frame_extent(&bytes[MAGIC.len()..]).unwrap().unwrap();
        let third = second + frame_extent(&bytes[second..]).unwrap().unwrap();
        bytes[second + HEADER + 20] ^= 0x01;
        bytes[third + HEADER + 20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert_eq!((report.frames, report.replayed()), (1, 1), "{report:?}");
        let q = &report.quarantined;
        assert_eq!(q.len(), 1, "{q:?}");
        assert_eq!(
            (q[0].offset, q[0].bytes),
            (second as u64, (bytes.len() - second) as u64)
        );
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            second as u64,
            "the tail is cut"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_read_for_another_key_gives_no_plan() {
        let dir = tmp_dir("read-collide");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &plan(63)).unwrap();
        // What a hash collision does: key 2's entry points at key 1's
        // frame.
        let loc = store.index.get(&key(1));
        store.index.set(&key(2), loc);
        let frame = store.read(&key(2)).unwrap().expect("indexed");
        assert_eq!(
            frame.plan().unwrap_err(),
            "indexed frame holds another key's plan"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_is_not_indexed() {
        let dir = tmp_dir("read-fault");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.set_write_fault(Arc::new(|op, _| match op {
            0 => Some(WriteFault::Short(7)),
            1 => Some(WriteFault::Err(io::ErrorKind::ConnectionReset)),
            _ => None,
        }));
        store.append(&key(2), &plan(127)).unwrap_err();
        assert!(store.read(&key(2)).unwrap().is_none(), "a torn frame");
        // The next append repairs the tail and is read back.
        store.append(&key(3), &plan(255)).unwrap();
        assert!(store.read(&key(2)).unwrap().is_none());
        let want = plan(255).to_json_string();
        assert_eq!(read_back(&mut store, &key(3)), Some(want));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_and_replay_round_trips_byte_stably() {
        let dir = tmp_dir("roundtrip");
        let (mut store, report) = PlanStore::open(&dir).unwrap();
        assert_eq!(report.replayed(), 0);
        let plans: Vec<PartitionPlan> = (0..4).map(|i| plan(31 + i)).collect();
        for (i, p) in plans.iter().enumerate() {
            store.append(&key(i as u64), p).unwrap();
        }
        drop(store);
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert!(!report.corrupt());
        assert_eq!(report.replayed(), 4);
        for (i, entry) in report.live.iter().enumerate() {
            assert_eq!(entry.key, key(i as u64));
            assert_eq!(
                entry.plan.to_json_string(),
                plans[i].to_json_string(),
                "replayed plan re-encodes to the exact bytes that were stored"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_seq_supersedes_earlier_for_the_same_key() {
        let dir = tmp_dir("supersede");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.append(&key(9), &plan(63)).unwrap();
        store.append(&key(9), &plan(127)).unwrap();
        drop(store);
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert_eq!(report.frames, 2);
        assert_eq!(report.replayed(), 1);
        assert_eq!(
            report.live[0].plan.to_json_string(),
            plan(127).to_json_string()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_replay_sees_all() {
        let dir = tmp_dir("rotate");
        let cfg = StoreConfig { segment_bytes: 1 };
        let (mut store, _) = PlanStore::open_with(&dir, cfg).unwrap();
        for fp in 0..5u64 {
            store.append(&key(fp), &plan(63)).unwrap();
        }
        drop(store);
        assert!(
            segment_indices(&dir).unwrap().len() >= 5,
            "1-byte budget forces one frame per segment"
        );
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert!(!report.corrupt());
        assert_eq!(report.replayed(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_collapses_to_one_segment_and_preserves_live_bytes() {
        let dir = tmp_dir("compact");
        let cfg = StoreConfig { segment_bytes: 1 };
        let (mut store, _) = PlanStore::open_with(&dir, cfg).unwrap();
        for fp in 0..4u64 {
            store.append(&key(fp), &plan(63)).unwrap();
        }
        // Two superseded rewrites bloat the journal.
        store.append(&key(0), &plan(127)).unwrap();
        store.append(&key(0), &plan(255)).unwrap();
        let live: Vec<(PlanKey, Arc<PartitionPlan>)> = PlanStore::scan(&dir)
            .unwrap()
            .live
            .into_iter()
            .map(|e| (e.key, e.plan))
            .collect();
        let report = store.compact(&live).unwrap();
        assert_eq!(report.frames, 4);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(segment_indices(&dir).unwrap().len(), 1);
        // Appends continue into the compacted segment; replay agrees.
        store.append(&key(40), &plan(63)).unwrap();
        drop(store);
        let (_, after) = PlanStore::open(&dir).unwrap();
        assert!(!after.corrupt());
        assert_eq!(after.replayed(), 5);
        let k0 = after.live.iter().find(|e| e.key == key(0)).unwrap();
        assert_eq!(k0.plan.to_json_string(), plan(255).to_json_string());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checksum_valid_frame_with_an_out_of_range_key_is_quarantined_not_replayed() {
        // `k + 2⁶⁴` and `-1` both narrowed to a valid `u64` under `as`:
        // the frame replayed under a key it was never stored under.
        let honest = String::from_utf8(encode_payload(1, &key(5), &plan(63))).unwrap();
        for (field, from, forged) in [
            (
                "fingerprint",
                "\"fingerprint\": 5,",
                "\"fingerprint\": 18446744073709551621,",
            ),
            ("fingerprint", "\"fingerprint\": 5,", "\"fingerprint\": -1,"),
            ("seq", "\"seq\": 1,", "\"seq\": -1,"),
            ("mesh_rows", "\"mesh_rows\": -1,", "\"mesh_rows\": -7,"),
        ] {
            let payload = honest.replacen(from, forged, 1);
            assert_ne!(payload, honest, "{forged} did not apply");
            let dir = tmp_dir("forged");
            fs::create_dir_all(&dir).unwrap();
            let mut segment = MAGIC.to_vec();
            segment.extend(encode_frame(&encode_payload(0, &key(9), &plan(31))));
            segment.extend(encode_frame(payload.as_bytes()));
            fs::write(seg_path(&dir, 1), segment).unwrap();
            let report = PlanStore::scan(&dir).unwrap();
            assert_eq!(report.quarantined.len(), 1, "{forged}");
            let reason = &report.quarantined[0].reason;
            assert!(reason.contains(&format!("`{field}`")), "{forged}: {reason}");
            let replayed: Vec<u64> = report.live.iter().map(|e| e.key.fingerprint).collect();
            assert_eq!(replayed, [9], "{forged}: only the honest frame replays");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn injected_short_writes_and_eintr_are_absorbed() {
        let dir = tmp_dir("softfaults");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        store.set_write_fault(Arc::new(move |op, _| {
            f.fetch_add(1, Ordering::Relaxed);
            match op {
                0 => Some(WriteFault::Short(3)),
                1 => Some(WriteFault::Err(io::ErrorKind::Interrupted)),
                2 => Some(WriteFault::Err(io::ErrorKind::WouldBlock)),
                3 => Some(WriteFault::Short(1)),
                _ => None,
            }
        }));
        store.append(&key(1), &plan(63)).unwrap();
        assert!(fired.load(Ordering::Relaxed) >= 5, "hook consulted per op");
        drop(store);
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert!(!report.corrupt());
        assert_eq!(report.replayed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hard_write_fault_leaves_a_torn_tail_that_the_next_append_repairs() {
        let dir = tmp_dir("hardfault");
        let (mut store, _) = PlanStore::open(&dir).unwrap();
        store.append(&key(1), &plan(63)).unwrap();
        store.set_write_fault(Arc::new(|op, _| match op {
            // Land a partial prefix, then die: a torn frame on disk.
            0 => Some(WriteFault::Short(7)),
            1 => Some(WriteFault::Err(io::ErrorKind::ConnectionReset)),
            _ => None,
        }));
        let err = store.append(&key(2), &plan(127)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The next append rolls the tail back and succeeds.
        store.append(&key(3), &plan(255)).unwrap();
        drop(store);
        let (_, report) = PlanStore::open(&dir).unwrap();
        assert!(!report.corrupt(), "torn tail was repaired in-process");
        assert_eq!(report.replayed(), 2);
        assert!(report.live.iter().all(|e| e.key != key(2)));
        let _ = fs::remove_dir_all(&dir);
    }
}
