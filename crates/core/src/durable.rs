//! Crash-safe persistence for the evidence cache and the daily advance.
//!
//! The nightly moving-landscape job (§1.2's "around the clock" miners)
//! runs on shared infrastructure where it gets preempted, OOM-killed,
//! or dies mid-write. A single-file serde dump fails that world twice
//! over: a torn write corrupts the whole cache, and a kill between two
//! window advances loses a week of warm evidence. This module replaces
//! the dump with a small durable store:
//!
//! * **Checkpoint** — `<path>` holds a checksummed, version-stamped
//!   snapshot: one header line plus one segment per UTC day of cached
//!   evidence. Every segment carries an FNV checksum over its day and
//!   payload; the header carries its own checksum and the segment
//!   count, so truncation at any byte — even an exact segment boundary
//!   — is detected. Checkpoints are only ever replaced via
//!   write-to-temp + atomic rename, so the visible file is always a
//!   complete past snapshot.
//! * **Journal** — `<path>.journal` is an append-only log of per-step
//!   cache deltas written *between* checkpoints. A crash mid-run
//!   leaves the old checkpoint plus a (possibly torn) journal;
//!   recovery replays the intact prefix and re-runs only the step that
//!   was in flight.
//! * **Quarantine + ledger** — corrupt byte regions are appended to
//!   `<path>.quarantine` (framed, for post-mortems) and every recovery
//!   decision is appended to `<path>.ledger` as a JSON-lines
//!   [`RecoveryEvent`] stream. Neither file participates in
//!   byte-identity: equal cache state ⇒ equal checkpoint bytes.
//!
//! Because the checkpoint is a pure function of `(cache, completed,
//! plan signature)` and cache entries are content-addressed, a run
//! killed at *any* durable write and resumed converges to the exact
//! bytes of an uninterrupted run — the property the `crash_recovery`
//! harness sweeps exhaustively with [`WritePolicy`] injection points
//! and `logdep-faults`' crash primitives.

use crate::cache::{
    l1_fingerprint, l2_fingerprint, l3_fingerprint, EvidenceCache, EvidenceKey, Fnv, L3DayCounts,
};
use crate::error::MineError;
use crate::health::{record_detector_health, DetectorHealth, DetectorKind, PipelineConfig};
use crate::l2::BigramCounts;
use crate::window::{run_window_cached, WindowOutcome};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis};
use logdep_obs::{record, Field};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The durable writes the store performs, in the order a run meets
/// them. Crash harnesses key their "abort at the Kth write" sweeps on
/// these, and [`WritePolicy::before_write`] receives the one about to
/// happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableOp {
    /// Writing the checkpoint bytes to the temp file.
    CheckpointWrite,
    /// Atomically renaming the checkpoint temp file into place.
    CheckpointRename,
    /// Appending one step record to the journal.
    JournalAppend,
    /// Rewriting the journal (repair or post-checkpoint reset) to temp.
    JournalWrite,
    /// Atomically renaming the journal temp file into place.
    JournalRename,
    /// Appending a corrupt byte region to the quarantine file.
    QuarantineAppend,
    /// Appending recovery events to the ledger.
    LedgerAppend,
    /// A caller-owned file written through [`persist_atomic`] (temp write).
    FileWrite,
    /// A caller-owned file written through [`persist_atomic`] (rename).
    FileRename,
}

impl DurableOp {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DurableOp::CheckpointWrite => "checkpoint-write",
            DurableOp::CheckpointRename => "checkpoint-rename",
            DurableOp::JournalAppend => "journal-append",
            DurableOp::JournalWrite => "journal-write",
            DurableOp::JournalRename => "journal-rename",
            DurableOp::QuarantineAppend => "quarantine-append",
            DurableOp::LedgerAppend => "ledger-append",
            DurableOp::FileWrite => "file-write",
            DurableOp::FileRename => "file-rename",
        }
    }
}

impl std::fmt::Display for DurableOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`WritePolicy`] decides for one durable write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteDecision {
    /// Perform the write normally.
    Proceed,
    /// Simulate a crash at this write. For plain writes/appends,
    /// `partial` (when present) is flushed to the destination first —
    /// the torn or bit-flipped wreck the next open must survive. For
    /// rename ops `partial` is ignored: renames are atomic, so a crash
    /// simply leaves the old file.
    Abort {
        /// Bytes that "made it to the platter" before the crash.
        partial: Option<Vec<u8>>,
    },
}

/// Interception point for every durable write the store performs.
/// Production uses [`NoopPolicy`]; crash harnesses count ops and abort
/// at a scheduled one.
pub trait WritePolicy {
    /// Called immediately before each durable write with the exact
    /// bytes about to be persisted.
    fn before_write(&mut self, op: DurableOp, bytes: &[u8]) -> WriteDecision;
}

/// The production policy: every write proceeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPolicy;

impl WritePolicy for NoopPolicy {
    fn before_write(&mut self, _op: DurableOp, _bytes: &[u8]) -> WriteDecision {
        WriteDecision::Proceed
    }
}

/// Errors of the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// A [`WritePolicy`] aborted the run at a durable write (simulated
    /// crash).
    Crashed {
        /// The write that was interrupted.
        op: DurableOp,
    },
    /// A real I/O failure (not a detected corruption — those degrade).
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Serialization of state that must be persistable failed.
    Codec(String),
    /// The pipeline itself failed under the durable driver.
    Pipeline(MineError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Crashed { op } => {
                write!(f, "simulated crash at durable write ({op})")
            }
            DurableError::Io { path, source } => write!(f, "i/o error on {path}: {source}"),
            DurableError::Codec(msg) => write!(f, "codec error: {msg}"),
            DurableError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MineError> for DurableError {
    fn from(e: MineError) -> Self {
        DurableError::Pipeline(e)
    }
}

/// One recovery decision, as recorded in memory, in
/// [`DetectorHealth`], and in the on-disk ledger (JSON lines).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Stable machine-readable code (e.g. `segment-corrupt`).
    pub code: String,
    /// Whether this event means on-disk corruption was detected (as
    /// opposed to a benign cold start or plan change).
    pub corruption: bool,
    /// Human-readable detail.
    pub detail: String,
}

fn io_err(path: &Path, source: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.display().to_string(),
        source,
    }
}

fn codec_err(context: &str, e: impl std::fmt::Display) -> DurableError {
    DurableError::Codec(format!("{context}: {e}"))
}

/// `path` with `suffix` appended to its final component.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Writes `bytes` to `path` (whole-file), consulting `policy` first.
fn guarded_write(
    path: &Path,
    bytes: &[u8],
    op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    match policy.before_write(op, bytes) {
        WriteDecision::Proceed => std::fs::write(path, bytes).map_err(|e| io_err(path, e)),
        WriteDecision::Abort { partial } => {
            if let Some(p) = partial {
                // The crash left a wreck behind; best-effort, the
                // "crash" wins either way.
                match std::fs::write(path, &p) {
                    Ok(()) | Err(_) => {}
                }
            }
            Err(DurableError::Crashed { op })
        }
    }
}

/// Appends `bytes` to `path` (creating it), consulting `policy` first.
fn guarded_append(
    path: &Path,
    bytes: &[u8],
    op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    match policy.before_write(op, bytes) {
        WriteDecision::Proceed => {
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)
                .map_err(|e| io_err(path, e))?;
            fh.write_all(bytes).map_err(|e| io_err(path, e))
        }
        WriteDecision::Abort { partial } => {
            if let Some(p) = partial {
                if let Ok(mut fh) = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(path)
                {
                    match fh.write_all(&p) {
                        Ok(()) | Err(_) => {}
                    }
                }
            }
            Err(DurableError::Crashed { op })
        }
    }
}

/// Write-to-temp + atomic rename, with both steps as policy-visible
/// durable ops. The visible `path` is always either the old complete
/// file or the new complete file, never a mixture.
fn write_atomic(
    path: &Path,
    bytes: &[u8],
    write_op: DurableOp,
    rename_op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    let tmp = sibling(path, ".tmp");
    guarded_write(&tmp, bytes, write_op, policy)?;
    match policy.before_write(rename_op, bytes) {
        WriteDecision::Proceed => std::fs::rename(&tmp, path).map_err(|e| io_err(path, e)),
        WriteDecision::Abort { .. } => Err(DurableError::Crashed { op: rename_op }),
    }
}

/// Atomically persists caller-owned bytes (temp write + rename). The
/// workspace `non-atomic-persist` lint points direct writers of
/// persistent state here.
pub fn persist_atomic(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    write_atomic(
        path,
        bytes,
        DurableOp::FileWrite,
        DurableOp::FileRename,
        &mut NoopPolicy,
    )
}

/// One day's worth of cache entries — the unit of checkpoint
/// checksumming and of journal deltas. Vectors stay in `BTreeMap`
/// iteration order, so encoding is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentPayload {
    /// L1 slot-evidence entries.
    pub l1: Vec<(EvidenceKey, Vec<(u32, u32, bool)>)>,
    /// L2 session-day bigram entries.
    pub l2: Vec<(EvidenceKey, BigramCounts)>,
    /// L3 day-scan entries.
    pub l3: Vec<(EvidenceKey, L3DayCounts)>,
}

impl SegmentPayload {
    /// Total entries across layers.
    pub fn len(&self) -> usize {
        self.l1.len() + self.l2.len() + self.l3.len()
    }

    /// Whether the delta carries no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `cache`'s entries grouped into payloads by `bucket`, which sees
    /// each entry's layer and key and leaves the entry out on `None`.
    /// Every payload keeps the cache's key order.
    fn group<B: Ord>(
        cache: &EvidenceCache,
        mut bucket: impl FnMut(Layer, &EvidenceKey) -> Option<B>,
    ) -> BTreeMap<B, Self> {
        let mut out: BTreeMap<B, Self> = BTreeMap::new();
        for (k, v) in &cache.l1 {
            if let Some(b) = bucket(Layer::L1, k) {
                out.entry(b).or_default().l1.push((*k, v.clone()));
            }
        }
        for (k, v) in &cache.l2 {
            if let Some(b) = bucket(Layer::L2, k) {
                out.entry(b).or_default().l2.push((*k, v.clone()));
            }
        }
        for (k, v) in &cache.l3 {
            if let Some(b) = bucket(Layer::L3, k) {
                out.entry(b).or_default().l3.push((*k, v.clone()));
            }
        }
        out
    }

    /// Inserts every entry into `cache`; returns how many.
    fn insert_into(self, cache: &mut EvidenceCache) -> usize {
        let n = self.len();
        cache.l1.extend(self.l1);
        cache.l2.extend(self.l2);
        cache.l3.extend(self.l3);
        n
    }
}

/// The cached layer an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    L1,
    L2,
    L3,
}

/// One journal record: the cache delta of a completed step plus the
/// window it settled, so replay can re-apply the step's eviction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalPayload {
    /// Window start (ms) of the completed step.
    pub window_start: i64,
    /// Window end (ms, exclusive) of the completed step.
    pub window_end: i64,
    /// Entries the step inserted.
    pub delta: SegmentPayload,
}

const MAGIC: &str = "LOGDEP-DUR v1";

fn day_of(key: &EvidenceKey) -> i64 {
    key.start.div_euclid(MS_PER_DAY)
}

/// One kind of framed record. Checkpoint segments, journal records and
/// quarantined regions share one grammar,
/// `<TAG> <fields…> <len> <fnv>\n<payload>\n`: the header fields are
/// decimal integers, `<len>` is the payload's byte length and `<fnv>` is
/// [`frame_fnv`] under the kind's salt.
struct FrameKind<const N: usize> {
    tag: &'static str,
    /// Checksum salt; frames of an unsalted kind carry no `<fnv>` token.
    salt: Option<&'static str>,
    /// Per header field: whether it is written and parsed as signed.
    signed: [bool; N],
}

/// A checkpoint segment: one UTC day of entries. Days before the epoch
/// are negative.
const SEGMENT: FrameKind<1> = FrameKind {
    tag: "SEG",
    salt: Some("seg"),
    signed: [true],
};

/// A journal record: the completed step and the plan signature it ran
/// under.
const JOURNAL: FrameKind<2> = FrameKind {
    tag: "J",
    salt: Some("jrn"),
    signed: [false, false],
};

/// A corrupt byte region kept for post-mortems. Written, never decoded.
const QUARANTINE: FrameKind<0> = FrameKind {
    tag: "QUAR",
    salt: None,
    signed: [],
};

/// The salted frame checksum over the header fields, the payload length
/// and the payload. Every field folds as its 8 little-endian bytes, so a
/// signed field folds exactly as `push_i64` would fold it.
fn frame_fnv(salt: &str, fields: &[u64], payload: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.push_str(salt);
    for &v in fields {
        f.push_u64(v);
    }
    f.push_u64(payload.len() as u64);
    f.push_bytes(payload);
    f.finish()
}

/// The checkpoint header's checksum. The header line carries no payload,
/// so unlike [`frame_fnv`] it folds no length.
fn header_fnv(cache_version: u32, n_segments: u64, completed: u64, plan_fp: u64) -> u64 {
    let mut f = Fnv::new();
    f.push_str(MAGIC);
    f.push_u64(u64::from(cache_version));
    f.push_u64(n_segments);
    f.push_u64(completed);
    f.push_u64(plan_fp);
    f.finish()
}

/// Encodes one `kind` frame around `payload`. A signed field holds its
/// value's two's-complement bits and is written as a signed decimal.
fn encode_frame<const N: usize>(kind: &FrameKind<N>, fields: [u64; N], payload: &[u8]) -> Vec<u8> {
    let mut line = kind.tag.to_string();
    for (&v, signed) in fields.iter().zip(kind.signed) {
        let token = if signed {
            (v as i64).to_string()
        } else {
            v.to_string()
        };
        line.push(' ');
        line.push_str(&token);
    }
    line.push_str(&format!(" {}", payload.len()));
    if let Some(salt) = kind.salt {
        line.push_str(&format!(" {}", frame_fnv(salt, &fields, payload)));
    }
    line.push('\n');
    let mut out = line.into_bytes();
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

fn find_byte(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes
        .get(from..)
        .and_then(|tail| tail.iter().position(|&b| b == needle))
        .map(|i| from + i)
}

/// The whitespace tokens of one header line: the checkpoint header's or
/// a frame's. Errors name the line by its tag.
struct Tokens<'a> {
    it: std::str::SplitAsciiWhitespace<'a>,
    tag: &'a str,
}

impl<'a> Tokens<'a> {
    /// Splits the line starting at `pos` and checks that it opens with
    /// `tag`'s tokens. Also returns the offset just past the line.
    fn open(bytes: &'a [u8], pos: usize, tag: &'a str) -> Result<(Self, usize), String> {
        let nl = find_byte(bytes, pos, b'\n').ok_or_else(|| format!("unterminated {tag} line"))?;
        let line = bytes
            .get(pos..nl)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("{tag} line not utf-8"))?;
        let mut it = line.split_ascii_whitespace();
        if !tag
            .split_ascii_whitespace()
            .all(|want| it.next() == Some(want))
        {
            return Err(format!("missing {tag} tag"));
        }
        Ok((Self { it, tag }, nl + 1))
    }

    /// The next decimal field; a signed field yields its bits.
    fn field(&mut self, signed: bool) -> Result<u64, String> {
        let token = self.it.next();
        let value = if signed {
            token.and_then(|t| t.parse::<i64>().ok()).map(|v| v as u64)
        } else {
            token.and_then(|t| t.parse::<u64>().ok())
        };
        value.ok_or_else(|| format!("bad {} field", self.tag))
    }

    /// Fails when tokens are left over.
    fn end(mut self) -> Result<(), String> {
        match self.it.next() {
            Some(_) => Err(format!("trailing {} tokens", self.tag)),
            None => Ok(()),
        }
    }
}

/// Decodes the `kind` frame at `pos` and its JSON payload, checking the
/// tag, the field count, the length, the terminator, the checksum and
/// UTF-8. Returns the header fields, the payload and the offset of the
/// next frame.
fn decode_frame<const N: usize, T: Deserialize>(
    kind: &FrameKind<N>,
    bytes: &[u8],
    pos: usize,
) -> Result<([u64; N], T, usize), String> {
    let tag = kind.tag;
    let (mut tokens, pay_start) = Tokens::open(bytes, pos, tag)?;
    let mut fields = [0u64; N];
    for (slot, signed) in fields.iter_mut().zip(kind.signed) {
        *slot = tokens.field(signed)?;
    }
    let len = tokens.field(false)?;
    let fnv = kind.salt.map(|_| tokens.field(false)).transpose()?;
    tokens.end()?;
    let pay_end = usize::try_from(len)
        .ok()
        .and_then(|len| pay_start.checked_add(len))
        .ok_or_else(|| format!("{tag} length overflow"))?;
    let payload = bytes
        .get(pay_start..pay_end)
        .ok_or_else(|| format!("{tag} payload truncated"))?;
    if bytes.get(pay_end) != Some(&b'\n') {
        return Err(format!("missing {tag} terminator"));
    }
    if kind.salt.map(|salt| frame_fnv(salt, &fields, payload)) != fnv {
        return Err(format!("{tag} checksum mismatch"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| format!("{tag} payload not utf-8"))?;
    let value = serde_json::from_str(text).map_err(|e| format!("{tag} payload unparsable: {e}"))?;
    Ok((fields, value, pay_end + 1))
}

/// Encodes a checkpoint: header line + one checksummed segment per day.
/// A pure function of its arguments — equal state ⇒ equal bytes, the
/// anchor of the crash sweep's byte-identity assertion.
fn encode_checkpoint(
    cache: &EvidenceCache,
    completed: u64,
    plan_fp: u64,
) -> Result<Vec<u8>, DurableError> {
    let days = SegmentPayload::group(cache, |_, k| Some(day_of(k)));
    let n = days.len() as u64;
    let hfnv = header_fnv(EvidenceCache::VERSION, n, completed, plan_fp);
    let mut out = format!(
        "{MAGIC} {} {n} {completed} {plan_fp} {hfnv}\n",
        EvidenceCache::VERSION
    )
    .into_bytes();
    for (day, payload) in &days {
        let json = serde_json::to_string(payload).map_err(|e| codec_err("segment", e))?;
        out.extend(encode_frame(&SEGMENT, [*day as u64], json.as_bytes()));
    }
    Ok(out)
}

/// First offset `>= from` where the resync marker `\nSEG ` begins.
fn find_resync(bytes: &[u8], from: usize) -> Option<usize> {
    let marker = b"\nSEG ";
    let mut at = from;
    while let Some(i) = find_byte(bytes, at, b'\n') {
        if bytes.get(i..i + marker.len()) == Some(&marker[..]) {
            return Some(i);
        }
        at = i + 1;
    }
    None
}

/// Everything a checkpoint decode learned, including the wrecks.
struct DecodedCheckpoint {
    cache: EvidenceCache,
    completed: u64,
    plan_fp: u64,
    /// Header parsed and checksummed clean.
    header_ok: bool,
    /// Snapshot format version matches [`EvidenceCache::VERSION`].
    version_ok: bool,
    /// No corruption anywhere — the file re-encodes to itself.
    intact: bool,
    events: Vec<RecoveryEvent>,
    quarantined: Vec<Vec<u8>>,
    restored: usize,
}

fn event(code: &str, corruption: bool, detail: String) -> RecoveryEvent {
    RecoveryEvent {
        code: code.to_string(),
        corruption,
        detail,
    }
}

/// Decodes checkpoint bytes, verifying every checksum. Corrupt regions
/// are collected for quarantine and reported as events; intact
/// segments are restored. Never fails: worst case is an empty cache
/// plus corruption events — degraded, not dead.
fn decode_checkpoint(bytes: &[u8]) -> DecodedCheckpoint {
    let mut d = DecodedCheckpoint {
        cache: EvidenceCache::new(),
        completed: 0,
        plan_fp: 0,
        header_ok: false,
        version_ok: false,
        intact: true,
        events: Vec::new(),
        quarantined: Vec::new(),
        restored: 0,
    };
    let header = match decode_header(bytes) {
        Ok(h) => h,
        Err(reason) => {
            d.intact = false;
            d.events.push(event(
                "checkpoint-header-corrupt",
                true,
                format!("{reason}; discarding checkpoint"),
            ));
            d.quarantined.push(bytes.to_vec());
            return d;
        }
    };
    d.header_ok = true;
    d.completed = header.completed;
    d.plan_fp = header.plan_fp;
    if header.cache_version != EvidenceCache::VERSION {
        d.events.push(event(
            "version-mismatch",
            false,
            format!(
                "snapshot format v{} != current v{}; starting cold",
                header.cache_version,
                EvidenceCache::VERSION
            ),
        ));
        return d;
    }
    d.version_ok = true;

    let mut pos = header.body_start;
    let mut decoded = 0u64;
    while pos < bytes.len() {
        let seg_start = pos;
        match decode_frame::<1, SegmentPayload>(&SEGMENT, bytes, pos) {
            Ok((_day, payload, next)) => {
                d.restored += payload.insert_into(&mut d.cache);
                decoded += 1;
                pos = next;
            }
            Err(reason) => {
                d.intact = false;
                let (skip_to, region) = match find_resync(bytes, seg_start + 1) {
                    Some(i) => (i + 1, bytes.get(seg_start..i + 1)),
                    None => (bytes.len(), bytes.get(seg_start..)),
                };
                d.events.push(event(
                    "segment-corrupt",
                    true,
                    format!(
                        "{reason}; quarantined {} bytes at offset {seg_start}",
                        region.map(<[u8]>::len).unwrap_or(0)
                    ),
                ));
                if let Some(r) = region {
                    d.quarantined.push(r.to_vec());
                }
                pos = skip_to;
            }
        }
    }
    if decoded != header.n_segments {
        d.intact = false;
        d.events.push(event(
            "checkpoint-truncated",
            true,
            format!(
                "header promises {} segments, {decoded} decoded cleanly",
                header.n_segments
            ),
        ));
    }
    d
}

struct Header {
    cache_version: u32,
    n_segments: u64,
    completed: u64,
    plan_fp: u64,
    body_start: usize,
}

fn decode_header(bytes: &[u8]) -> Result<Header, String> {
    let (mut tokens, body_start) = Tokens::open(bytes, 0, MAGIC)?;
    let mut next = || tokens.field(false);
    let (version, n_segments, completed, plan_fp, hfnv) =
        (next()?, next()?, next()?, next()?, next()?);
    tokens.end()?;
    let cache_version = u32::try_from(version).map_err(|_| "version overflow".to_string())?;
    if header_fnv(cache_version, n_segments, completed, plan_fp) != hfnv {
        return Err("header checksum mismatch".to_string());
    }
    Ok(Header {
        cache_version,
        n_segments,
        completed,
        plan_fp,
        body_start,
    })
}

fn encode_journal_record(
    step: u64,
    plan_fp: u64,
    payload: &JournalPayload,
) -> Result<Vec<u8>, DurableError> {
    let json = serde_json::to_string(payload).map_err(|e| codec_err("journal record", e))?;
    Ok(encode_frame(&JOURNAL, [step, plan_fp], json.as_bytes()))
}

struct DecodedJournal {
    records: Vec<(u64, u64, JournalPayload)>,
    /// Byte length of the longest cleanly-decoding record prefix.
    clean_len: usize,
    /// Whether bytes beyond the clean prefix exist (a torn tail).
    torn: bool,
}

/// Decodes the journal's clean record prefix. Append-only files tear
/// at the tail, so everything before the first damaged record is
/// trustworthy and everything from it on is not. A record whose window
/// ends before it starts counts as damaged.
fn decode_journal(bytes: &[u8]) -> DecodedJournal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_frame::<2, JournalPayload>(&JOURNAL, bytes, pos) {
            Ok(([step, plan_fp], payload, next)) if payload.window_start <= payload.window_end => {
                records.push((step, plan_fp, payload));
                pos = next;
            }
            _ => {
                return DecodedJournal {
                    records,
                    clean_len: pos,
                    torn: true,
                }
            }
        }
    }
    DecodedJournal {
        records,
        clean_len: pos,
        torn: false,
    }
}

/// The crash-safe on-disk store: checkpoint + journal + quarantine +
/// ledger, all derived from one base path. Opening never fails on
/// corruption — damage is quarantined, reported as [`RecoveryEvent`]s,
/// and the affected day-ranges simply rebuild as cache misses.
pub struct DurableStore {
    path: PathBuf,
    cache: EvidenceCache,
    completed: u64,
    plan_fp: u64,
    completed_at_load: u64,
    journal_records_at_load: usize,
    checkpoint_valid_at_load: bool,
    events: Vec<RecoveryEvent>,
    ledgered: usize,
    restored_entries: usize,
}

impl DurableStore {
    /// Opens (or cold-starts) the store at `path` for a run whose plan
    /// signature is `plan_fp`: decodes and verifies the checkpoint,
    /// quarantines corrupt regions, repairs a torn journal, and
    /// replays intact journal records on top of the checkpoint.
    pub fn open(
        path: &Path,
        plan_fp: u64,
        policy: &mut dyn WritePolicy,
    ) -> Result<Self, DurableError> {
        let mut store = Self {
            path: path.to_path_buf(),
            cache: EvidenceCache::new(),
            completed: 0,
            plan_fp,
            completed_at_load: 0,
            journal_records_at_load: 0,
            checkpoint_valid_at_load: false,
            events: Vec::new(),
            ledgered: 0,
            restored_entries: 0,
        };
        match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                store.events.push(event(
                    "cold-start",
                    false,
                    format!("no checkpoint at {}; starting cold", path.display()),
                ));
            }
            Err(e) => return Err(io_err(path, e)),
            Ok(bytes) => {
                let d = decode_checkpoint(&bytes);
                for region in &d.quarantined {
                    store.quarantine(region, policy)?;
                }
                store.events.extend(d.events);
                if d.header_ok && d.version_ok {
                    store.cache = d.cache;
                    store.completed = d.completed;
                    store.restored_entries = d.restored;
                    store.checkpoint_valid_at_load = d.intact;
                    if d.plan_fp != plan_fp {
                        store.events.push(event(
                            "plan-changed",
                            false,
                            format!(
                                "plan signature {} != stored {}; keeping warm cache, restarting progress",
                                plan_fp, d.plan_fp
                            ),
                        ));
                        store.completed = 0;
                        store.checkpoint_valid_at_load = false;
                    }
                }
            }
        }
        store.completed_at_load = store.completed;
        store.replay_journal(policy)?;
        Ok(store)
    }

    /// Opens the store against whatever plan signature it records — the
    /// entry point for `cache repair`, which must preserve intact state
    /// verbatim. The signature comes from the checkpoint header or, when
    /// no header is readable, from the first intact journal record (a run
    /// killed before its first checkpoint); 0 when neither exists.
    pub fn open_existing(path: &Path, policy: &mut dyn WritePolicy) -> Result<Self, DurableError> {
        let from_header = std::fs::read(path)
            .ok()
            .and_then(|bytes| decode_header(&bytes).ok())
            .map(|h| h.plan_fp);
        let stored_fp = from_header
            .or_else(|| {
                let journal = std::fs::read(sibling(path, ".journal")).ok()?;
                decode_journal(&journal).records.first().map(|r| r.1)
            })
            .unwrap_or(0);
        Self::open(path, stored_fp, policy)
    }

    fn replay_journal(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        let jpath = self.journal_path();
        let jbytes = match std::fs::read(&jpath) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(&jpath, e)),
            Ok(b) => b,
        };
        let dj = decode_journal(&jbytes);
        let mut rewrite = dj.torn;
        if dj.torn {
            let torn = jbytes.len().saturating_sub(dj.clean_len);
            self.events.push(event(
                "journal-torn",
                true,
                format!("{torn} damaged bytes past the clean prefix; truncating"),
            ));
            if let Some(tail) = jbytes.get(dj.clean_len..) {
                self.quarantine(tail, policy)?;
            }
        }
        let mut retained: Vec<u8> = Vec::new();
        let mut stale = 0usize;
        let mut kept = 0usize;
        let mut applied = 0usize;
        let mut applied_entries = 0usize;
        for (step, rec_fp, payload) in dj.records {
            if rec_fp != self.plan_fp {
                stale += 1;
                rewrite = true;
                continue;
            }
            if step <= self.completed {
                // Already folded into the checkpoint (a crash landed
                // between the checkpoint rename and the journal reset).
                retained.extend_from_slice(&encode_journal_record(step, rec_fp, &payload)?);
                kept += 1;
                continue;
            }
            if step == self.completed + 1 {
                retained.extend_from_slice(&encode_journal_record(step, rec_fp, &payload)?);
                let window =
                    TimeRange::new(Millis(payload.window_start), Millis(payload.window_end));
                applied_entries += payload.delta.insert_into(&mut self.cache);
                self.cache.evict_outside(window);
                self.completed = step;
                kept += 1;
                applied += 1;
                continue;
            }
            self.events.push(event(
                "journal-gap",
                true,
                format!(
                    "expected step {}, found {step}; truncating",
                    self.completed + 1
                ),
            ));
            rewrite = true;
            break;
        }
        if stale > 0 {
            self.events.push(event(
                "journal-stale-plan",
                false,
                format!("{stale} records from a different plan discarded"),
            ));
        }
        if applied > 0 {
            self.events.push(event(
                "journal-replayed",
                false,
                format!("replayed {applied} steps ({applied_entries} entries) past the checkpoint"),
            ));
            self.restored_entries += applied_entries;
        }
        if rewrite {
            self.write_journal(&retained, policy)?;
        }
        self.journal_records_at_load = kept;
        Ok(())
    }

    fn journal_path(&self) -> PathBuf {
        sibling(&self.path, ".journal")
    }

    fn write_journal(
        &self,
        bytes: &[u8],
        policy: &mut dyn WritePolicy,
    ) -> Result<(), DurableError> {
        write_atomic(
            &self.journal_path(),
            bytes,
            DurableOp::JournalWrite,
            DurableOp::JournalRename,
            policy,
        )
    }

    fn quarantine(&self, region: &[u8], policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        guarded_append(
            &sibling(&self.path, ".quarantine"),
            &encode_frame(&QUARANTINE, [], region),
            DurableOp::QuarantineAppend,
            policy,
        )
    }

    /// Journals the delta of a freshly completed step and advances the
    /// progress counter. The in-memory cache must already hold the
    /// step's result (the driver runs the window first, then journals).
    pub fn append_step(
        &mut self,
        step: u64,
        window: TimeRange,
        delta: SegmentPayload,
        policy: &mut dyn WritePolicy,
    ) -> Result<(), DurableError> {
        let payload = JournalPayload {
            window_start: window.start.0,
            window_end: window.end.0,
            delta,
        };
        let rec = encode_journal_record(step, self.plan_fp, &payload)?;
        guarded_append(&self.journal_path(), &rec, DurableOp::JournalAppend, policy)?;
        self.completed = step;
        Ok(())
    }

    /// Atomically replaces the checkpoint with the current state and
    /// resets the journal. Crash-ordering is safe in both directions:
    /// the journal is only emptied *after* the new checkpoint is
    /// visible, and a crash in between is healed by the skip-replay
    /// path on the next open.
    pub fn checkpoint(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        let bytes = encode_checkpoint(&self.cache, self.completed, self.plan_fp)?;
        write_atomic(
            &self.path,
            &bytes,
            DurableOp::CheckpointWrite,
            DurableOp::CheckpointRename,
            policy,
        )?;
        self.write_journal(&[], policy)?;
        self.completed_at_load = self.completed;
        self.journal_records_at_load = 0;
        self.checkpoint_valid_at_load = true;
        Ok(())
    }

    /// Forgets resumable progress (a run invoked without `--resume`):
    /// the warm cache is kept, the step counter restarts at zero, and
    /// stale journal records are dropped so they can never replay.
    pub fn discard_progress(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        if self.journal_records_at_load > 0 {
            self.write_journal(&[], policy)?;
            self.journal_records_at_load = 0;
        }
        if self.completed > 0 {
            self.events.push(event(
                "progress-discarded",
                false,
                format!(
                    "run restarted without --resume at completed step {}",
                    self.completed
                ),
            ));
        }
        self.completed = 0;
        if self.completed_at_load > 0 {
            self.checkpoint_valid_at_load = false;
        }
        self.completed_at_load = 0;
        Ok(())
    }

    /// Appends any not-yet-ledgered [`RecoveryEvent`]s to
    /// `<path>.ledger` as JSON lines.
    pub fn append_ledger(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        if self.ledgered >= self.events.len() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for e in self.events.get(self.ledgered..).unwrap_or_default() {
            let json = serde_json::to_string(e).map_err(|err| codec_err("ledger event", err))?;
            buf.extend_from_slice(json.as_bytes());
            buf.push(b'\n');
        }
        guarded_append(
            &sibling(&self.path, ".ledger"),
            &buf,
            DurableOp::LedgerAppend,
            policy,
        )?;
        self.ledgered = self.events.len();
        Ok(())
    }

    /// Whether on-disk state lags the in-memory state — i.e. a final
    /// [`checkpoint`](Self::checkpoint) must run before exit.
    pub fn dirty(&self) -> bool {
        !self.checkpoint_valid_at_load
            || self.completed > self.completed_at_load
            || self.journal_records_at_load > 0
    }

    /// The restored (and since mutated) evidence cache.
    pub fn cache(&self) -> &EvidenceCache {
        &self.cache
    }

    /// Mutable access for the window driver.
    pub fn cache_mut(&mut self) -> &mut EvidenceCache {
        &mut self.cache
    }

    /// Last completed step (0 = nothing completed).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Every recovery event this open observed, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The base checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store's standing as a detector-style health row: `ok` while
    /// no corruption was detected, `detected` counting restored
    /// entries, so `daily` reports surface recovery alongside L1–L3.
    pub fn health(&self) -> DetectorHealth {
        let first_corrupt = self.events.iter().find(|e| e.corruption);
        DetectorHealth {
            detector: DetectorKind::Store,
            ok: first_corrupt.is_none(),
            error: first_corrupt.map(|e| format!("{}: {}", e.code, e.detail)),
            enabled: true,
            detected: self.restored_entries,
            elapsed_us: 0,
        }
    }
}

/// The nightly advance schedule: `steps` windows of `window_days`
/// days, the first starting at `start_day`, each advancing by
/// `advance_days`. Steps are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailyPlan {
    /// Day the first window starts at.
    pub start_day: i64,
    /// Width of every window, in days.
    pub window_days: i64,
    /// Days the window advances per step.
    pub advance_days: i64,
    /// Number of advances to run.
    pub steps: u64,
}

impl DailyPlan {
    /// The analysis window of 1-based `step`.
    pub fn window(&self, step: u64) -> TimeRange {
        let offset = i64::try_from(step.saturating_sub(1)).unwrap_or(i64::MAX);
        let start = self
            .start_day
            .saturating_add(offset.saturating_mul(self.advance_days));
        TimeRange::new(
            Millis::from_days(start),
            Millis::from_days(start.saturating_add(self.window_days)),
        )
    }

    /// Rejects degenerate schedules.
    pub fn validate(&self) -> Result<(), MineError> {
        if self.window_days < 1 {
            return Err(MineError::InvalidConfig {
                name: "window_days",
                reason: format!("must be >= 1 day, got {}", self.window_days),
            });
        }
        if self.advance_days < 1 {
            return Err(MineError::InvalidConfig {
                name: "advance_days",
                reason: format!("must be >= 1 day, got {}", self.advance_days),
            });
        }
        if self.steps < 1 {
            return Err(MineError::InvalidConfig {
                name: "steps",
                reason: "must run at least one step".to_string(),
            });
        }
        Ok(())
    }
}

/// Signature binding a resumable run to its exact inputs: the plan,
/// every enabled layer's config fingerprint, and the identity of the
/// log store. Any change ⇒ different signature ⇒ progress restarts
/// from step zero (the warm cache is kept — content addressing makes
/// stale entries plain misses). Deliberately *not* named
/// `*_fingerprint`: it folds no config struct of its own, and `par`
/// must stay out of it (thread count cannot change results).
pub fn plan_signature(
    store: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
    plan: &DailyPlan,
) -> u64 {
    let mut f = Fnv::new();
    f.push_str("daily-plan");
    f.push_i64(plan.start_day);
    f.push_i64(plan.window_days);
    f.push_i64(plan.advance_days);
    f.push_u64(plan.steps);
    let sources = store.active_sources();
    match &cfg.l1 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l1_fingerprint(c, &sources));
        }
        None => f.push_bool(false),
    }
    match &cfg.l2 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l2_fingerprint(c));
        }
        None => f.push_bool(false),
    }
    match &cfg.l3 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l3_fingerprint(c, service_ids));
        }
        None => f.push_bool(false),
    }
    f.push_u64(store.len() as u64);
    for s in &sources {
        f.push_u64(u64::from(s.0));
    }
    let records = store.records();
    if let Some(first) = records.first() {
        f.push_i64(first.client_ts.0);
    }
    if let Some(last) = records.last() {
        f.push_i64(last.client_ts.0);
    }
    f.finish()
}

/// Every entry's layer and key: the `before` side of [`delta_since`].
fn key_snapshot(cache: &EvidenceCache) -> BTreeSet<(Layer, EvidenceKey)> {
    let l1 = cache.l1.keys().map(|k| (Layer::L1, *k));
    let l2 = cache.l2.keys().map(|k| (Layer::L2, *k));
    let l3 = cache.l3.keys().map(|k| (Layer::L3, *k));
    l1.chain(l2).chain(l3).collect()
}

/// Entries present now but absent from `before` — exactly what one
/// step inserted (content addressing: a key is never overwritten with
/// a different value, so key-set difference is the full delta).
fn delta_since(cache: &EvidenceCache, before: &BTreeSet<(Layer, EvidenceKey)>) -> SegmentPayload {
    SegmentPayload::group(cache, |layer, k| {
        (!before.contains(&(layer, *k))).then_some(())
    })
    .into_values()
    .next()
    .unwrap_or_default()
}

/// What a durable daily run reports back.
#[derive(Debug)]
pub struct DailyReport {
    /// Step the run resumed from (0 = started from the beginning).
    pub resumed_from: u64,
    /// Steps actually executed this invocation.
    pub steps_run: u64,
    /// The final window's full outcome (recomputed from cache hits
    /// when the run was already complete on open).
    pub final_outcome: WindowOutcome,
    /// Every recovery event of this run, in order.
    pub events: Vec<RecoveryEvent>,
    /// The store's health row (alongside the L1–L3 detectors).
    pub store_health: DetectorHealth,
    /// Cache entries held after the final step.
    pub cache_entries: usize,
    /// Cache entries restored at open (checkpoint + journal replay),
    /// before any step ran.
    pub loaded_entries: usize,
    /// Whether this run rewrote the checkpoint (false when a fully
    /// resumed run left the on-disk state untouched).
    pub checkpointed: bool,
}

/// Runs (or resumes) a whole daily advance crash-safely: open the
/// store, replay whatever survived, execute the remaining steps with
/// one journal append per completed step, and checkpoint atomically at
/// the end. `on_step` observes every executed step (for progress
/// output). With `resume` false, prior progress is discarded but the
/// warm cache is kept.
#[allow(clippy::too_many_arguments)] // lint:allow — the durable driver genuinely binds logs, plan, path, policy and callback in one call
pub fn run_daily_durable(
    logs: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
    plan: &DailyPlan,
    cache_path: &Path,
    resume: bool,
    policy: &mut dyn WritePolicy,
    on_step: &mut dyn FnMut(u64, &WindowOutcome),
) -> Result<DailyReport, DurableError> {
    plan.validate()?;
    record(|r| {
        r.span_begin(
            "daily",
            &[
                ("steps", Field::from(plan.steps)),
                ("start_day", Field::from(plan.start_day)),
                ("window_days", Field::from(plan.window_days)),
                ("advance_days", Field::from(plan.advance_days)),
                ("resume", Field::from(resume)),
            ],
        );
    });
    let fp = plan_signature(logs, service_ids, cfg, plan);
    let mut store = DurableStore::open(cache_path, fp, policy)?;
    if !resume {
        store.discard_progress(policy)?;
    }
    store.append_ledger(policy)?;
    // Surface what opening the store observed (cold start, plan change,
    // corruption recovery, quarantine) as point events. The free-text
    // detail can carry filesystem paths, so only the stable code and
    // the corruption flag enter the deterministic trace.
    let events_seen = store.events().len();
    record(|r| {
        for e in store.events() {
            r.point(
                "durable.recovery",
                &[
                    ("code", Field::from(e.code.as_str())),
                    ("corruption", Field::from(e.corruption)),
                ],
            );
        }
    });
    let loaded_entries = store.cache().len();
    let resumed_from = store.completed();
    if resume {
        record(|r| {
            r.point(
                "durable.resume",
                &[("resumed_from", Field::from(resumed_from))],
            );
        });
    }
    let mut steps_run = 0u64;
    let mut final_outcome: Option<WindowOutcome> = None;
    let first = store.completed().saturating_add(1);
    for step in first..=plan.steps {
        let window = plan.window(step);
        record(|r| {
            r.span_begin(
                "daily.step",
                &[
                    ("step", Field::from(step)),
                    ("start_ms", Field::from(window.start.0)),
                    ("end_ms", Field::from(window.end.0)),
                ],
            );
        });
        let before = key_snapshot(store.cache());
        let outcome = run_window_cached(logs, window, service_ids, cfg, store.cache_mut())?;
        let delta = delta_since(store.cache(), &before);
        let delta_entries = delta.len();
        store.append_step(step, window, delta, policy)?;
        steps_run += 1;
        record(|r| {
            r.counter_add("durable.steps", 1);
            r.span_end(
                "daily.step",
                &[
                    ("step", Field::from(step)),
                    ("journaled", Field::from(delta_entries)),
                ],
            );
        });
        on_step(step, &outcome);
        final_outcome = Some(outcome);
    }
    let final_outcome = match final_outcome {
        Some(o) => o,
        None => {
            // Fully resumed: recompute the last window for the report.
            // Every probe hits, so the cache (and checkpoint bytes)
            // are unchanged.
            let window = plan.window(plan.steps);
            run_window_cached(logs, window, service_ids, cfg, store.cache_mut())?
        }
    };
    let checkpointed = store.dirty();
    if checkpointed {
        store.checkpoint(policy)?;
        record(|r| {
            r.counter_add("durable.checkpoints", 1);
            r.point(
                "durable.checkpoint",
                &[("entries", Field::from(store.cache().len()))],
            );
        });
    }
    store.append_ledger(policy)?;
    // Any event raised after open (none today, but the schema must not
    // silently drop future ones) plus the store's own health row.
    record(|r| {
        for e in store.events().iter().skip(events_seen) {
            r.point(
                "durable.recovery",
                &[
                    ("code", Field::from(e.code.as_str())),
                    ("corruption", Field::from(e.corruption)),
                ],
            );
        }
    });
    record_detector_health(&store.health());
    record(|r| {
        r.span_end(
            "daily",
            &[
                ("steps_run", Field::from(steps_run)),
                ("resumed_from", Field::from(resumed_from)),
                ("checkpointed", Field::from(checkpointed)),
            ],
        );
    });
    Ok(DailyReport {
        resumed_from,
        steps_run,
        final_outcome,
        events: store.events().to_vec(),
        store_health: store.health(),
        cache_entries: store.cache().len(),
        loaded_entries,
        checkpointed,
    })
}

/// Read-only integrity report over a store's on-disk files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreReport {
    /// Everything verification observed, corruption and otherwise.
    pub events: Vec<RecoveryEvent>,
    /// Entries that decode cleanly from the checkpoint.
    pub cache_entries: usize,
    /// Progress counter the checkpoint records.
    pub completed: u64,
    /// Intact journal records on disk.
    pub journal_records: usize,
}

impl StoreReport {
    /// Whether no corruption was detected anywhere.
    pub fn clean(&self) -> bool {
        !self.events.iter().any(|e| e.corruption)
    }
}

/// Verifies every checksum of the store at `path` without writing a
/// single byte — safe to run against a live store.
pub fn verify_store(path: &Path) -> Result<StoreReport, DurableError> {
    let mut events = Vec::new();
    let mut cache_entries = 0usize;
    let mut completed = 0u64;
    let mut plan_fp = 0u64;
    match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            events.push(event(
                "missing",
                false,
                format!("no checkpoint at {}", path.display()),
            ));
        }
        Err(e) => return Err(io_err(path, e)),
        Ok(bytes) => {
            let d = decode_checkpoint(&bytes);
            events.extend(d.events);
            cache_entries = d.restored;
            completed = d.completed;
            plan_fp = d.plan_fp;
        }
    }
    let jpath = sibling(path, ".journal");
    let mut journal_records = 0usize;
    match std::fs::read(&jpath) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err(&jpath, e)),
        Ok(bytes) => {
            let dj = decode_journal(&bytes);
            if dj.torn {
                events.push(event(
                    "journal-torn",
                    true,
                    format!(
                        "{} damaged bytes past the clean prefix",
                        bytes.len().saturating_sub(dj.clean_len)
                    ),
                ));
            }
            let mut expect = completed + 1;
            for (step, rec_fp, _payload) in &dj.records {
                journal_records += 1;
                if *rec_fp != plan_fp {
                    continue;
                }
                if *step > completed && *step != expect {
                    events.push(event(
                        "journal-gap",
                        true,
                        format!("expected step {expect}, found {step}"),
                    ));
                    break;
                }
                if *step == expect {
                    expect += 1;
                }
            }
        }
    }
    Ok(StoreReport {
        events,
        cache_entries,
        completed,
        journal_records,
    })
}

/// Repairs the store at `path` in place: quarantines damage, replays
/// the journal's intact prefix, and rewrites a clean checkpoint (with
/// an emptied journal) atomically. Intact state is preserved verbatim.
pub fn repair_store(path: &Path) -> Result<StoreReport, DurableError> {
    let mut policy = NoopPolicy;
    let mut store = DurableStore::open_existing(path, &mut policy)?;
    store.checkpoint(&mut policy)?;
    store.events.push(event(
        "repaired",
        false,
        format!(
            "checkpoint rewritten with {} entries at completed step {}",
            store.cache.len(),
            store.completed
        ),
    ));
    store.append_ledger(&mut policy)?;
    Ok(StoreReport {
        events: store.events.clone(),
        cache_entries: store.cache.len(),
        completed: store.completed,
        journal_records: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_faults::crash::{corrupt_bytes, Corruption};
    use logdep_logstore::SourceId;
    use proptest::prelude::*;

    fn key(day: i64, fp: u64, digest: u64) -> EvidenceKey {
        EvidenceKey {
            fingerprint: fp,
            start: day * MS_PER_DAY,
            end: (day + 1) * MS_PER_DAY,
            digest,
        }
    }

    fn sample_cache() -> EvidenceCache {
        let mut c = EvidenceCache::new();
        c.l1.insert(key(0, 1, 11), vec![(3, 4, true), (0, 2, false)]);
        c.l1.insert(key(1, 1, 12), vec![(1, 1, true)]);
        let mut bg = BigramCounts::default();
        bg.joint.insert((SourceId(0), SourceId(1)), 5);
        bg.first_margin.insert(SourceId(0), 5);
        bg.second_margin.insert(SourceId(1), 5);
        bg.total = 9;
        c.l2.insert(key(1, 2, 21), bg);
        let mut l3 = L3DayCounts::default();
        l3.citations.insert((SourceId(2), 0), 7);
        l3.scanned = 40;
        l3.stopped = 2;
        c.l3.insert(key(2, 3, 31), l3);
        c
    }

    fn caches_equal(a: &EvidenceCache, b: &EvidenceCache) -> bool {
        a.l1 == b.l1 && a.l2 == b.l2 && a.l3 == b.l3
    }

    /// A store path in a fresh scratch dir with no leftover siblings.
    fn fresh_store_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("logdep-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        for suffix in [
            "",
            ".journal",
            ".ledger",
            ".quarantine",
            ".tmp",
            ".journal.tmp",
        ] {
            match std::fs::remove_file(sibling(&path, suffix)) {
                Ok(()) | Err(_) => {}
            }
        }
        path
    }

    #[test]
    fn checkpoint_roundtrip_is_byte_stable() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 4, 99).expect("encode");
        let d = decode_checkpoint(&bytes);
        assert!(d.header_ok && d.version_ok && d.intact, "{:?}", d.events);
        assert!(d.events.is_empty());
        assert_eq!(d.completed, 4);
        assert_eq!(d.plan_fp, 99);
        assert_eq!(d.restored, cache.len());
        assert!(caches_equal(&d.cache, &cache));
        let again = encode_checkpoint(&d.cache, d.completed, d.plan_fp).expect("re-encode");
        assert_eq!(again, bytes, "checkpoint encoding is not a pure function");
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let bytes = encode_checkpoint(&EvidenceCache::new(), 0, 7).expect("encode");
        let d = decode_checkpoint(&bytes);
        assert!(d.intact && d.events.is_empty());
        assert_eq!(d.restored, 0);
    }

    #[test]
    fn header_damage_discards_the_checkpoint() {
        let mut bytes = encode_checkpoint(&sample_cache(), 2, 5).expect("encode");
        bytes[3] ^= 0x10; // inside the magic
        let d = decode_checkpoint(&bytes);
        assert!(!d.header_ok && !d.intact);
        assert!(d
            .events
            .iter()
            .any(|e| e.code == "checkpoint-header-corrupt"));
        assert_eq!(d.restored, 0);
        assert_eq!(d.quarantined.len(), 1);
        assert_eq!(d.quarantined[0], bytes);
    }

    #[test]
    fn segment_damage_resyncs_and_restores_the_rest() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 2, 5).expect("encode");
        let header_end = find_byte(&bytes, 0, b'\n').expect("header");
        // Damage the first segment's header line; later segments must
        // still be found via the resync marker.
        let mut damaged = bytes.clone();
        damaged[header_end + 2] ^= 0x01;
        let d = decode_checkpoint(&damaged);
        assert!(!d.intact);
        assert!(d.events.iter().any(|e| e.code == "segment-corrupt"));
        assert!(d.restored > 0, "resync recovered nothing");
        assert!(d.restored < cache.len(), "damage restored everything?");
        for (k, v) in &d.cache.l1 {
            assert_eq!(cache.l1.get(k), Some(v));
        }
        assert!(!d.quarantined.is_empty());
    }

    #[test]
    fn truncation_at_exact_segment_boundary_is_detected() {
        let bytes = encode_checkpoint(&sample_cache(), 2, 5).expect("encode");
        // Cut the entire last segment (a "clean" truncation no payload
        // checksum can see — the header's segment count catches it).
        let last_seg = {
            let mut at = 0;
            let mut last = None;
            while let Some(i) = find_resync(&bytes, at) {
                last = Some(i + 1);
                at = i + 1;
            }
            last.expect("no segment markers")
        };
        let d = decode_checkpoint(&bytes[..last_seg]);
        assert!(!d.intact);
        assert!(d.events.iter().any(|e| e.code == "checkpoint-truncated"));
    }

    #[test]
    fn version_mismatch_is_a_cold_start_not_corruption() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 2, 5).expect("encode");
        // Re-stamp the header with a future version (and a matching
        // checksum, as a future writer would).
        let n = 3u64;
        let hfnv = header_fnv(EvidenceCache::VERSION + 1, n, 2, 5);
        let header_end = find_byte(&bytes, 0, b'\n').expect("header");
        let mut restamped =
            format!("{MAGIC} {} {n} 2 5 {hfnv}\n", EvidenceCache::VERSION + 1).into_bytes();
        restamped.extend_from_slice(&bytes[header_end + 1..]);
        let d = decode_checkpoint(&restamped);
        assert!(d.header_ok && !d.version_ok);
        assert!(d
            .events
            .iter()
            .any(|e| e.code == "version-mismatch" && !e.corruption));
        assert_eq!(d.restored, 0);
    }

    fn sample_journal_records() -> Vec<(u64, u64, JournalPayload)> {
        (1..=3u64)
            .map(|step| {
                let mut delta = SegmentPayload::default();
                delta
                    .l1
                    .push((key(step as i64, 1, step), vec![(step as u32, 0, true)]));
                (
                    step,
                    77u64,
                    JournalPayload {
                        window_start: 0,
                        window_end: 10 * MS_PER_DAY,
                        delta,
                    },
                )
            })
            .collect()
    }

    fn encode_records(records: &[(u64, u64, JournalPayload)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (step, fp, payload) in records {
            out.extend_from_slice(&encode_journal_record(*step, *fp, payload).expect("encode"));
        }
        out
    }

    #[test]
    fn journal_roundtrips_and_tears_to_a_prefix() {
        let records = sample_journal_records();
        let bytes = encode_records(&records);
        let dj = decode_journal(&bytes);
        assert!(!dj.torn);
        assert_eq!(dj.records, records);
        assert_eq!(dj.clean_len, bytes.len());

        let cut = bytes.len() - 3;
        let dj = decode_journal(&bytes[..cut]);
        assert!(dj.torn);
        assert_eq!(dj.records, records[..2]);
        assert_eq!(&bytes[..dj.clean_len], &encode_records(&records[..2])[..]);
    }

    #[test]
    fn store_replays_journal_after_a_crash_without_checkpoint() {
        let path = fresh_store_path("replay.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        assert!(store.events().iter().any(|e| e.code == "cold-start"));
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        for (step, _fp, payload) in sample_journal_records() {
            for (k, v) in &payload.delta.l1 {
                store.cache_mut().l1.insert(*k, v.clone());
            }
            store
                .append_step(step, window, payload.delta, &mut policy)
                .expect("append");
        }
        let live_cache = store.cache().clone();
        drop(store); // simulated kill: no checkpoint ever written

        let reopened = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(reopened.completed(), 3);
        assert!(caches_equal(reopened.cache(), &live_cache));
        assert!(reopened
            .events()
            .iter()
            .any(|e| e.code == "journal-replayed"));
        assert!(reopened.dirty());
    }

    #[test]
    fn checkpointed_store_reopens_clean_and_byte_identical() {
        let path = fresh_store_path("clean.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");
        let on_disk = std::fs::read(&path).expect("read");

        let mut reopened = DurableStore::open(&path, 42, &mut policy).expect("reopen");
        assert!(reopened.events().is_empty(), "{:?}", reopened.events());
        assert!(!reopened.dirty());
        assert_eq!(reopened.completed(), 5);
        assert!(caches_equal(reopened.cache(), &sample_cache()));
        reopened.checkpoint(&mut policy).expect("re-checkpoint");
        assert_eq!(std::fs::read(&path).expect("read"), on_disk);
    }

    #[test]
    fn plan_change_keeps_the_warm_cache_but_restarts_progress() {
        let path = fresh_store_path("plan.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");

        let reopened = DurableStore::open(&path, 43, &mut policy).expect("reopen");
        assert_eq!(reopened.completed(), 0);
        assert_eq!(reopened.cache().len(), sample_cache().len());
        assert!(reopened
            .events()
            .iter()
            .any(|e| e.code == "plan-changed" && !e.corruption));
        assert!(reopened.dirty());
    }

    #[test]
    fn discard_progress_resets_counter_and_journal() {
        let path = fresh_store_path("discard.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        store
            .append_step(1, window, SegmentPayload::default(), &mut policy)
            .expect("append");
        drop(store);
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(store.completed(), 1);
        store.discard_progress(&mut policy).expect("discard");
        assert_eq!(store.completed(), 0);
        drop(store);
        let store = DurableStore::open(&path, 77, &mut policy).expect("reopen2");
        assert_eq!(store.completed(), 0, "discarded journal replayed");
    }

    #[test]
    fn verify_then_repair_heals_a_bit_flipped_checkpoint() {
        let path = fresh_store_path("repair.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");
        assert!(verify_store(&path).expect("verify").clean());

        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).expect("damage"); // lint:allow(non-atomic-persist) — deliberately simulating torn storage in a test

        let report = verify_store(&path).expect("verify damaged");
        assert!(!report.clean());
        let repaired = repair_store(&path).expect("repair");
        assert!(repaired.cache_entries <= sample_cache().len());
        let after = verify_store(&path).expect("verify repaired");
        assert!(after.clean(), "{:?}", after.events);
        assert!(std::fs::metadata(sibling(&path, ".quarantine")).is_ok());
        assert!(std::fs::metadata(sibling(&path, ".ledger")).is_ok());
    }

    #[test]
    fn repair_keeps_the_journal_of_a_store_killed_before_its_first_checkpoint() {
        let path = fresh_store_path("repair-journal.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        for (step, _fp, payload) in sample_journal_records() {
            for (k, v) in &payload.delta.l1 {
                store.cache_mut().l1.insert(*k, v.clone());
            }
            store
                .append_step(step, window, payload.delta, &mut policy)
                .expect("append");
        }
        let live_cache = store.cache().clone();
        drop(store); // simulated kill before the first checkpoint

        let report = verify_store(&path).expect("verify");
        assert!(report.clean(), "{:?}", report.events);
        assert_eq!(report.journal_records, 3);
        let repaired = repair_store(&path).expect("repair");
        assert_eq!(repaired.completed, 3);
        assert_eq!(repaired.cache_entries, live_cache.len());

        let reopened = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(reopened.completed(), 3);
        assert!(caches_equal(reopened.cache(), &live_cache));
        assert!(!reopened.dirty());
    }

    #[test]
    fn daily_plan_windows_and_validation() {
        let plan = DailyPlan {
            start_day: 3,
            window_days: 7,
            advance_days: 1,
            steps: 4,
        };
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.window(1),
            TimeRange::new(Millis::from_days(3), Millis::from_days(10))
        );
        assert_eq!(
            plan.window(4),
            TimeRange::new(Millis::from_days(6), Millis::from_days(13))
        );
        assert!(DailyPlan {
            window_days: 0,
            ..plan
        }
        .validate()
        .is_err());
        assert!(DailyPlan {
            advance_days: 0,
            ..plan
        }
        .validate()
        .is_err());
        assert!(DailyPlan { steps: 0, ..plan }.validate().is_err());
    }

    /// Plan signature of the format-pin fixture; above `i64::MAX`, so the
    /// unsigned header fields are pinned at full width.
    const PIN_PLAN_FP: u64 = 0xdead_beef_0123_4567;

    /// The cache the checkpoint fixture holds: L1, L2 and L3 entries over
    /// days -1, 0 and 3.
    fn pin_cache() -> EvidenceCache {
        let mut c = EvidenceCache::new();
        c.l1.insert(key(-1, 0x11, 0xa1), vec![(0, 1, true), (2, 3, false)]);
        c.l1.insert(key(0, 0x11, 0xa2), vec![(1, 0, true)]);
        let mut bg = BigramCounts::default();
        bg.joint.insert((SourceId(0), SourceId(1)), 4);
        bg.first_margin.insert(SourceId(0), 4);
        bg.second_margin.insert(SourceId(1), 4);
        bg.total = 6;
        c.l2.insert(key(0, 0x22, 0xb1), bg.clone());
        bg.joint.insert((SourceId(1), SourceId(2)), 2);
        bg.total = 8;
        c.l2.insert(key(3, 0x22, 0xb2), bg);
        let mut l3 = L3DayCounts::default();
        l3.citations.insert((SourceId(2), 0), 3);
        l3.scanned = 10;
        l3.stopped = 1;
        c.l3.insert(key(-1, 0x33, 0xc1), l3.clone());
        l3.citations.insert((SourceId(0), 1), 5);
        l3.scanned = 12;
        c.l3.insert(key(3, 0x33, 0xc2), l3);
        c
    }

    /// The two records the journal fixture holds (steps 3 and 4).
    fn pin_journal() -> Vec<(u64, u64, JournalPayload)> {
        let window_start = -MS_PER_DAY;
        let window_end = 6 * MS_PER_DAY;
        let mut step3 = SegmentPayload::default();
        step3.l1.push((key(4, 0x11, 0xa3), vec![(0, 1, true)]));
        let mut step4 = SegmentPayload::default();
        let mut l3 = L3DayCounts::default();
        l3.citations.insert((SourceId(1), 2), 9);
        l3.scanned = 20;
        step4.l3.push((key(-1, 0x33, 0xc9), l3));
        [(3, step3), (4, step4)]
            .into_iter()
            .map(|(step, delta)| {
                (
                    step,
                    PIN_PLAN_FP,
                    JournalPayload {
                        window_start,
                        window_end,
                        delta,
                    },
                )
            })
            .collect()
    }

    const PIN_CHECKPOINT: &[u8] = include_bytes!("../tests/fixtures/durable_v1.ck");
    const PIN_JOURNAL: &[u8] = include_bytes!("../tests/fixtures/durable_v1.journal");

    #[test]
    fn on_disk_format_is_pinned() {
        // Checkpoint: the fixture decodes to exactly the pinned entries,
        // and the encoder reproduces it byte for byte.
        let d = decode_checkpoint(PIN_CHECKPOINT);
        assert!(d.header_ok && d.version_ok && d.intact, "{:?}", d.events);
        assert_eq!((d.completed, d.plan_fp), (2, PIN_PLAN_FP));
        assert!(caches_equal(&d.cache, &pin_cache()));
        assert_eq!(d.restored, pin_cache().len());
        let encoded = encode_checkpoint(&pin_cache(), 2, PIN_PLAN_FP).expect("encode");
        assert_eq!(encoded, PIN_CHECKPOINT, "checkpoint format drifted");

        // Journal: same, record by record.
        let dj = decode_journal(PIN_JOURNAL);
        assert!(!dj.torn);
        assert_eq!(dj.records, pin_journal());
        assert_eq!(
            encode_records(&pin_journal()),
            PIN_JOURNAL,
            "journal format drifted"
        );

        // The store opens the pair, replaying both records on top.
        let path = fresh_store_path("pin.ck");
        std::fs::write(&path, PIN_CHECKPOINT).expect("fixture"); // lint:allow(non-atomic-persist) — test fixture setup
        std::fs::write(sibling(&path, ".journal"), PIN_JOURNAL).expect("fixture"); // lint:allow(non-atomic-persist) — test fixture setup
        let store = DurableStore::open(&path, PIN_PLAN_FP, &mut NoopPolicy).expect("open");
        assert_eq!(store.completed(), 4);
        let codes: Vec<&str> = store.events().iter().map(|e| e.code.as_str()).collect();
        assert_eq!(codes, ["journal-replayed"]);
        let mut expected = pin_cache();
        for (_, _, payload) in pin_journal() {
            expected.l1.extend(payload.delta.l1);
            expected.l2.extend(payload.delta.l2);
            expected.l3.extend(payload.delta.l3);
        }
        assert!(caches_equal(store.cache(), &expected));

        // Quarantine: a checkpoint with a damaged header is framed whole.
        let mut damaged = PIN_CHECKPOINT.to_vec();
        damaged[0] ^= 0x20;
        let path = fresh_store_path("pin-quarantine.ck");
        std::fs::write(&path, &damaged).expect("fixture"); // lint:allow(non-atomic-persist) — test fixture setup
        DurableStore::open(&path, PIN_PLAN_FP, &mut NoopPolicy).expect("open");
        let mut framed = format!("QUAR {}\n", damaged.len()).into_bytes();
        framed.extend_from_slice(&damaged);
        framed.push(b'\n');
        let quarantined = std::fs::read(sibling(&path, ".quarantine")).expect("quarantine");
        assert_eq!(quarantined, framed, "quarantine format drifted");
    }

    fn cache_from(entries: &[(u64, i64, u64)]) -> EvidenceCache {
        let mut c = EvidenceCache::new();
        for &(fp, day, digest) in entries {
            match fp % 3 {
                0 => {
                    c.l1.insert(
                        key(day, fp, digest),
                        vec![(fp as u32, digest as u32, day % 2 == 0)],
                    );
                }
                1 => {
                    let mut bg = BigramCounts::default();
                    bg.joint
                        .insert((SourceId(fp as u32 % 7), SourceId(digest as u32 % 7)), fp);
                    bg.total = digest;
                    c.l2.insert(key(day, fp, digest), bg);
                }
                _ => {
                    let mut l3 = L3DayCounts::default();
                    l3.citations
                        .insert((SourceId(fp as u32 % 7), digest as usize % 5), fp);
                    l3.scanned = digest;
                    c.l3.insert(key(day, fp, digest), l3);
                }
            }
        }
        c
    }

    proptest! {
        #[test]
        fn intact_checkpoints_roundtrip_exactly(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 0..12),
            completed in 0u64..30,
            plan_fp in any::<u64>(),
        ) {
            let cache = cache_from(&entries);
            let bytes = encode_checkpoint(&cache, completed, plan_fp).expect("encode");
            let d = decode_checkpoint(&bytes);
            prop_assert!(d.intact && d.header_ok && d.version_ok, "{:?}", d.events);
            prop_assert_eq!(d.completed, completed);
            prop_assert_eq!(d.plan_fp, plan_fp);
            prop_assert!(caches_equal(&d.cache, &cache));
            let again = encode_checkpoint(&d.cache, d.completed, d.plan_fp).expect("re-encode");
            prop_assert_eq!(again, bytes);
        }

        #[test]
        fn corrupted_checkpoints_are_detected_and_never_misdecoded(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 0..10),
            completed in 0u64..30,
            plan_fp in any::<u64>(),
            mode in 0usize..3,
            seed in any::<u64>(),
        ) {
            let cache = cache_from(&entries);
            let bytes = encode_checkpoint(&cache, completed, plan_fp).expect("encode");
            let kind = Corruption::ALL[mode];
            let corrupted = corrupt_bytes(&bytes, kind, seed);
            prop_assert!(corrupted != bytes, "injector returned the input");
            let d = decode_checkpoint(&corrupted);
            // Every corruption is detected...
            prop_assert!(!d.intact, "{kind} (seed {seed}) went undetected");
            prop_assert!(
                d.events.iter().any(|e| e.corruption),
                "{kind} (seed {seed}) raised no corruption event"
            );
            // ...and nothing is ever mis-decoded: whatever was restored
            // is a verbatim subset of the truth.
            for (k, v) in &d.cache.l1 {
                prop_assert_eq!(cache.l1.get(k), Some(v));
            }
            for (k, v) in &d.cache.l2 {
                prop_assert_eq!(cache.l2.get(k), Some(v));
            }
            for (k, v) in &d.cache.l3 {
                prop_assert_eq!(cache.l3.get(k), Some(v));
            }
        }

        #[test]
        fn corrupted_journals_decode_to_an_exact_record_prefix(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 1..8),
            plan_fp in any::<u64>(),
            mode in 0usize..3,
            seed in any::<u64>(),
        ) {
            let records: Vec<(u64, u64, JournalPayload)> = entries
                .chunks(2)
                .enumerate()
                .map(|(i, chunk)| {
                    (
                        i as u64 + 1,
                        plan_fp,
                        JournalPayload {
                            window_start: 0,
                            window_end: 10 * MS_PER_DAY,
                            delta: SegmentPayload {
                                l1: cache_from(chunk).l1.into_iter().collect(),
                                l2: cache_from(chunk).l2.into_iter().collect(),
                                l3: cache_from(chunk).l3.into_iter().collect(),
                            },
                        },
                    )
                })
                .collect();
            let bytes = encode_records(&records);
            let kind = Corruption::ALL[mode];
            let corrupted = corrupt_bytes(&bytes, kind, seed);
            let dj = decode_journal(&corrupted);
            // An append-only log damaged anywhere decodes to an exact
            // prefix of what was appended — never reordered, invented,
            // or silently altered records.
            prop_assert!(dj.records.len() <= records.len());
            prop_assert_eq!(&dj.records[..], &records[..dj.records.len()]);
            prop_assert_eq!(
                corrupted.get(..dj.clean_len),
                bytes.get(..dj.clean_len),
                "clean prefix bytes diverge from the original log"
            );
        }
    }
}
