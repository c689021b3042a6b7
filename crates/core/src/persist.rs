//! Base-station crash recovery: versioned snapshots plus a write-ahead log.
//!
//! The paper's protocols are stateless per query, but the *base station* of
//! a continuous deployment accumulates state across rounds: filter-engine
//! cell counts, streaming join caches, scheduler epochs, serving-layer
//! registries. This module makes that state durable with two artifacts in a
//! checkpoint directory:
//!
//! * **Snapshots** (`snap-NNNNNNNNNN.ckpt`): a full, versioned, CRC-guarded
//!   image of the mutable base-station state, written every
//!   `--checkpoint-every` rounds via a write-to-temp + atomic-rename
//!   protocol. The latest two valid snapshots are retained so a torn write
//!   of the newest one degrades to the previous one.
//! * **Write-ahead log** (`wal.log`): one small record per completed round,
//!   holding the round index plus a digest of that round's observable
//!   output. Recovery restores the latest valid snapshot and deterministically
//!   *re-executes* the rounds after it (every RNG stream is part of the
//!   snapshot), checking each re-executed round's digest against the log.
//!
//! Because re-execution is bit-identical — same results, statistics, traces
//! and RNG draws as the uninterrupted run — the WAL does not need to carry
//! deltas, only enough to detect divergence. Corruption anywhere (torn WAL
//! tail, bit-flipped record, truncated snapshot) is detected by checksums and
//! degrades honestly: fall back to the previous snapshot or to a cold start,
//! re-execute the gap, never panic, never serve a wrong answer.
//!
//! [`CrashPoint`] names every durability-relevant site; [`CheckpointStore`]
//! can be armed to fail at any of them, leaving exactly the torn artifacts a
//! real crash would. The recovery tests sweep all sites.

use crate::engine::JoinSpace;
use crate::ingest::{BatchStats, LiveTuple, StreamJoinEngine};
use sensjoin_quadtree::{Point, RelFlags, TreeShape};
use sensjoin_query::CompiledQuery;
use sensjoin_relation::NodeId;
use sensjoin_sim::{
    BatterySnapshot, ChannelLinkState, ChurnAction, DeltaBatchStats, NetSnapshot, NetworkStats,
    NodeStats, TraceRecord,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// On-disk snapshot format version. Bump on any incompatible layout change;
/// recovery rejects (degrades past) snapshots of other versions.
pub const SNAPSHOT_VERSION: u32 = 9;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SJSN";

/// How many valid snapshots to retain (latest + one fallback).
pub const SNAPSHOTS_KEPT: usize = 2;

/// Upper bound on a single WAL record or snapshot payload. Anything larger
/// in a length prefix is treated as corruption, not an allocation request.
pub const MAX_RECORD_BYTES: u64 = 1 << 32;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A malformed byte stream fed to the state codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the encoding requires.
    Truncated,
    /// A length prefix larger than the remaining input allows.
    Oversize,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown enum tag.
    BadTag(u8),
    /// A decoded value violated a structural invariant.
    Invariant(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::Oversize => write!(f, "length prefix exceeds remaining input"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Invariant(what) => write!(f, "invariant violated: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Why a checkpoint operation or recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// A checkpoint artifact failed validation.
    Corrupt {
        /// File the corruption was found in.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// `--resume` was requested but the directory holds no usable state.
    NoCheckpoint,
    /// An armed [`CrashPoint`] fired (test injection, not a real failure).
    Crash(CrashPoint),
    /// Snapshot payload failed to decode.
    State(CodecError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            RecoveryError::Corrupt { file, detail } => {
                write!(f, "corrupt checkpoint artifact {file}: {detail}")
            }
            RecoveryError::NoCheckpoint => write!(f, "no usable checkpoint to resume from"),
            RecoveryError::Crash(p) => write!(f, "injected crash at {p}"),
            RecoveryError::State(e) => write!(f, "snapshot state decode failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e.to_string())
    }
}

impl From<CodecError> for RecoveryError {
    fn from(e: CodecError) -> Self {
        RecoveryError::State(e)
    }
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// Every durability-relevant site where the base station can die. Arming a
/// [`CheckpointStore`] with one of these makes the matching operation stop
/// exactly there — leaving the same torn artifacts a real crash would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After a round's results are produced but before anything is logged.
    PostRound,
    /// Mid WAL append: half of the record's bytes reach the file.
    MidWalAppend,
    /// Immediately after a WAL record is fully appended.
    PostWalAppend,
    /// Mid snapshot write: the temp file is left partially written.
    MidSnapshotWrite,
    /// Temp snapshot fully written but never renamed into place.
    PostSnapshotTmp,
    /// Snapshot renamed into place, crash before pruning old snapshots.
    PostSnapshotRename,
}

impl CrashPoint {
    /// All registered sites, in pipeline order — the sweep the recovery
    /// tests iterate.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::PostRound,
        CrashPoint::MidWalAppend,
        CrashPoint::PostWalAppend,
        CrashPoint::MidSnapshotWrite,
        CrashPoint::PostSnapshotTmp,
        CrashPoint::PostSnapshotRename,
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[derive(Debug, Clone, Copy)]
struct CrashPlan {
    point: CrashPoint,
    /// Fire on the `occurrence`-th time the site is reached (1-based).
    occurrence: u32,
    seen: u32,
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// State recovered from a checkpoint directory.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Latest valid snapshot: its sequence number and payload bytes.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Payloads of the WAL's valid prefix, in append order.
    pub wal: Vec<Vec<u8>>,
    /// Whether any artifact had to be skipped due to corruption — the run
    /// continues from older state, honestly, instead of failing.
    pub degraded: bool,
}

/// A checkpoint directory: snapshot files plus one append-only WAL.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    crash: Option<CrashPlan>,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory and deletes the
    /// temp snapshots a crash mid-save left (recovery never reads them, and
    /// pruning never lists them).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RecoveryError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if (name.to_string_lossy().strip_suffix(".tmp"))
                .and_then(snapshot_seq)
                .is_some()
            {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(Self { dir, crash: None })
    }

    /// The directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the snapshot with sequence number `seq`.
    pub fn snapshot_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:010}.ckpt"))
    }

    /// Arms a crash: the `occurrence`-th time `point` is reached (1-based),
    /// the operation stops there and returns [`RecoveryError::Crash`].
    pub fn arm_crash(&mut self, point: CrashPoint, occurrence: u32) {
        self.crash = Some(CrashPlan {
            point,
            occurrence: occurrence.max(1),
            seen: 0,
        });
    }

    /// Driver-visible injection site: call at a named point; returns
    /// `Err(Crash)` iff that site is armed and due.
    pub fn crash_check(&mut self, point: CrashPoint) -> Result<(), RecoveryError> {
        if let Some(plan) = &mut self.crash {
            if plan.point == point {
                plan.seen += 1;
                if plan.seen >= plan.occurrence {
                    self.crash = None;
                    return Err(RecoveryError::Crash(point));
                }
            }
        }
        Ok(())
    }

    /// Whether an armed crash at `point` would fire on its next check,
    /// *without* consuming it.
    fn crash_due(&self, point: CrashPoint) -> bool {
        self.crash
            .is_some_and(|p| p.point == point && p.seen + 1 >= p.occurrence)
    }

    /// Appends one record (`len | crc | payload`) to the WAL. The WAL is
    /// append-only for the lifetime of a run; snapshots never truncate it —
    /// recovery skips records at or before the snapshot's round.
    pub fn append_wal(&mut self, payload: &[u8]) -> Result<(), RecoveryError> {
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())?;
        if self.crash_due(CrashPoint::MidWalAppend) {
            f.write_all(&rec[..rec.len() / 2])?;
            f.flush()?;
            return self.crash_check(CrashPoint::MidWalAppend);
        }
        // Consume a non-due MidWalAppend occurrence.
        self.crash_check(CrashPoint::MidWalAppend)?;
        f.write_all(&rec)?;
        f.flush()?;
        self.crash_check(CrashPoint::PostWalAppend)
    }

    /// Writes snapshot `seq` via temp-file + atomic rename, then prunes all
    /// but the newest [`SNAPSHOTS_KEPT`] snapshots.
    ///
    /// The frame is written straight from `payload`: the header, the payload
    /// and the CRC trailer, checksummed in one streamed pass over
    /// `seq ‖ len ‖ payload` and never copied into one buffer.
    pub fn save_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), RecoveryError> {
        let mut head = [0u8; SNAPSHOT_HEADER];
        head[..4].copy_from_slice(&SNAPSHOT_MAGIC);
        head[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        head[8..16].copy_from_slice(&seq.to_le_bytes());
        head[16..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&head[8..]);
        crc.update(payload);
        let tail = crc.finish().to_le_bytes();
        let frame = [&head[..], payload, &tail[..]];
        let tmp = self.dir.join(format!("snap-{seq:010}.ckpt.tmp"));
        {
            let mut f = File::create(&tmp)?;
            if self.crash_due(CrashPoint::MidSnapshotWrite) {
                // The frame's first half.
                let mut left = (SNAPSHOT_HEADER + payload.len() + 4) / 2;
                for part in frame {
                    let n = part.len().min(left);
                    f.write_all(&part[..n])?;
                    left -= n;
                }
                f.flush()?;
                return self.crash_check(CrashPoint::MidSnapshotWrite);
            }
            self.crash_check(CrashPoint::MidSnapshotWrite)?;
            for part in frame {
                f.write_all(part)?;
            }
            f.flush()?;
        }
        self.crash_check(CrashPoint::PostSnapshotTmp)?;
        fs::rename(&tmp, self.snapshot_path(seq))?;
        self.crash_check(CrashPoint::PostSnapshotRename)?;
        // Prune: keep the newest SNAPSHOTS_KEPT by sequence number.
        let mut seqs = self.list_snapshot_seqs()?;
        seqs.sort_unstable();
        while seqs.len() > SNAPSHOTS_KEPT {
            let old = seqs.remove(0);
            let _ = fs::remove_file(self.snapshot_path(old));
        }
        Ok(())
    }

    /// Sequence numbers of the snapshot files in the directory, unordered.
    fn list_snapshot_seqs(&self) -> Result<Vec<u64>, RecoveryError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            seqs.extend(snapshot_seq(&entry?.file_name().to_string_lossy()));
        }
        Ok(seqs)
    }

    /// Loads the newest valid snapshot and the WAL's valid prefix.
    ///
    /// Corrupt or torn artifacts are *skipped*, never fatal: a bad newest
    /// snapshot falls back to the previous one (then to a cold start), and
    /// the WAL scan stops at the first record whose length or checksum does
    /// not verify. `degraded` reports whether anything was skipped.
    pub fn recover(&self) -> Result<Recovered, RecoveryError> {
        let mut degraded = false;
        let mut seqs = self.list_snapshot_seqs()?;
        seqs.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let mut snapshot = None;
        for seq in seqs {
            match load_snapshot(&self.snapshot_path(seq), seq) {
                Ok(payload) => {
                    snapshot = Some((seq, payload));
                    break;
                }
                Err(_) => degraded = true,
            }
        }
        let (wal, wal_degraded) = match fs::read(self.wal_path()) {
            Ok(bytes) => scan_wal(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), false),
            Err(e) => return Err(e.into()),
        };
        Ok(Recovered {
            snapshot,
            wal,
            degraded: degraded || wal_degraded,
        })
    }
}

/// Bytes of a snapshot file before its payload: magic, version, seq and
/// payload length. A 4-byte CRC over everything after the version field
/// follows the payload.
const SNAPSHOT_HEADER: usize = 24;

/// The sequence number of snapshot file `name` (`snap-NNNNNNNNNN.ckpt`).
fn snapshot_seq(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Validates one snapshot file; any failure means "try an older one".
fn load_snapshot(path: &Path, expect_seq: u64) -> Result<Vec<u8>, RecoveryError> {
    let corrupt = |detail: &str| RecoveryError::Corrupt {
        file: path.display().to_string(),
        detail: detail.to_string(),
    };
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < SNAPSHOT_HEADER + 4 {
        return Err(corrupt("shorter than header"));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(corrupt("unsupported version"));
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if seq != expect_seq {
        return Err(corrupt("sequence number does not match file name"));
    }
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if len > MAX_RECORD_BYTES || bytes.len() as u64 != SNAPSHOT_HEADER as u64 + 4 + len {
        return Err(corrupt("payload length mismatch"));
    }
    let payload_end = SNAPSHOT_HEADER + len as usize;
    let stored = u32::from_le_bytes(bytes[payload_end..payload_end + 4].try_into().unwrap());
    if crc32(&bytes[8..payload_end]) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(bytes[SNAPSHOT_HEADER..payload_end].to_vec())
}

/// Returns the WAL's valid-prefix payloads plus whether a torn/corrupt tail
/// was skipped.
fn scan_wal(bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return (out, true); // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len as u64 > MAX_RECORD_BYTES || bytes.len() - pos - 8 < len {
            return (out, true); // torn or insane payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != stored {
            return (out, true); // bit-flipped record: stop at last good one
        }
        out.push(payload.to_vec());
        pos += 8 + len;
    }
    (out, false)
}

// ---------------------------------------------------------------------------
// Test corruption helpers
// ---------------------------------------------------------------------------

/// XORs `0xFF` into the byte at `offset` (fuzz/corruption tests).
pub fn flip_byte(path: &Path, offset: u64) -> std::io::Result<()> {
    let mut bytes = fs::read(path)?;
    let ix = (offset as usize).min(bytes.len().saturating_sub(1));
    if let Some(b) = bytes.get_mut(ix) {
        *b ^= 0xFF;
    }
    fs::write(path, bytes)
}

/// Truncates the file to `len` bytes (torn-write tests).
pub fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let bytes = fs::read(path)?;
    let keep = (len as usize).min(bytes.len());
    fs::write(path, &bytes[..keep])
}

// ---------------------------------------------------------------------------
// Checksums and digests
// ---------------------------------------------------------------------------

/// Slice-by-16 tables of the reflected IEEE polynomial: `[0]` is the classic
/// byte table, and `[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A CRC-32 fed in pieces: the checksum of the pieces' concatenation,
/// sixteen bytes a step with a bytewise tail per piece.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][(lo >> 8 & 0xFF) as usize]
                ^ t[13][(lo >> 16 & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// FNV-1a 64-bit hash — the WAL's round-output digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------------

/// Little-endian, length-prefixed binary encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Makes room for `additional` more bytes, so writing that many
    /// allocates nothing.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes raw bytes, without a length (the reader knows it).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes `items` as an element count and `N` bytes each, `bytes` of
    /// every item in one reserved pass: the bytes `put_seq` writes for a
    /// type whose encoding is `bytes`.
    pub fn put_fixed<T, const N: usize>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        bytes: impl Fn(T) -> [u8; N],
    ) {
        self.put_usize(items.len());
        self.buf.reserve(N * items.len());
        for item in items {
            self.buf.extend_from_slice(&bytes(item));
        }
    }

    /// Writes `values` as their IEEE-754 bit patterns back to back, without
    /// a count.
    pub fn put_f64s(&mut self, values: &[f64]) {
        self.buf.reserve(8 * values.len());
        for v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Writes the `count` `keys`, each below `2^width`, as one
    /// little-endian bit stream — key `i` at bits `i·width ..` — behind its
    /// byte length (`⌈count · width / 8⌉`); the last byte's unused bits are
    /// zero.
    pub fn put_packed(&mut self, width: u32, count: usize, keys: impl Iterator<Item = u64>) {
        debug_assert!((1..=64).contains(&width));
        let bytes = (count * width as usize).div_ceil(8);
        self.put_usize(bytes);
        self.buf.reserve(bytes);
        let (mut acc, mut bits) = (0u128, 0);
        let mut written = 0;
        for key in keys {
            debug_assert!(
                width == 64 || key >> width == 0,
                "key wider than its column"
            );
            written += 1;
            acc |= u128::from(key) << bits;
            bits += width;
            if bits >= 64 {
                self.buf.extend_from_slice(&(acc as u64).to_le_bytes());
                (acc, bits) = (acc >> 64, bits - 64);
            }
        }
        self.buf
            .extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
        assert_eq!(written, count, "packed column length");
    }

    /// Writes `items` back to back, without a count (the reader knows it).
    pub fn put_items<T: Persist>(&mut self, items: &[T]) {
        for item in items {
            item.put(self);
        }
    }

    /// Writes an element count, then the elements.
    pub fn put_seq<T: Persist>(&mut self, items: &[T]) {
        self.put_usize(items.len());
        self.put_items(items);
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage means a
    /// corrupt or mismatched payload.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invariant("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Oversize)
    }

    /// Reads an element count whose elements occupy at least
    /// `min_elem_bytes` each — bounding the count by the remaining input so
    /// corrupt prefixes can never drive huge allocations.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        let bound = self.remaining() / min_elem_bytes.max(1);
        if n > bound {
            return Err(CodecError::Oversize);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a presence bitmap of `n` nodes — ⌈n/8⌉ bytes, bit `v % 8` of
    /// byte `v / 8` marking node `v` — refusing a bit past the last node.
    /// The bytes must be in the input, so `n` is bounded by it.
    pub fn get_bitmap(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let bitmap = self.take(n.div_ceil(8))?;
        if bitmap
            .last()
            .is_some_and(|&b| !n.is_multiple_of(8) && b >> (n % 8) != 0)
        {
            return Err(CodecError::Invariant("presence bit of no node"));
        }
        Ok(bitmap)
    }

    /// Reads `n` `f64`s written by [`Writer::put_f64s`].
    pub fn get_f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let bytes = self.take(n.checked_mul(8).ok_or(CodecError::Oversize)?)?;
        let words = bytes.chunks_exact(8);
        Ok(words
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("eight bytes"))))
            .collect())
    }

    /// Reads `count` keys of `width` bits written by
    /// [`Writer::put_packed`], handing each to `each` in order. A stream of
    /// another length than `count` keys of `width` bits take, or with a set
    /// padding bit, is refused before any key is read, so nothing `each`
    /// allocates can exceed what the input backs.
    pub fn get_packed(
        &mut self,
        width: u32,
        count: usize,
        mut each: impl FnMut(u64) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        debug_assert!((1..=64).contains(&width));
        let stated = self.get_usize()?;
        let bits = count.checked_mul(width as usize);
        if bits.map(|b| b.div_ceil(8)) != Some(stated) {
            return Err(CodecError::Invariant("packed column of another length"));
        }
        let bytes = self.take(stated)?;
        let padding = (stated * 8 - count * width as usize) as u32;
        if bytes
            .last()
            .is_some_and(|&b| padding > 0 && b >> (8 - padding) != 0)
        {
            return Err(CodecError::Invariant("packed column with padding set"));
        }
        let mask = u64::MAX >> (64 - width);
        let (mut acc, mut have, mut next) = (0u128, 0, bytes.iter());
        for _ in 0..count {
            while have < width {
                acc |= u128::from(*next.next().expect("length checked")) << have;
                have += 8;
            }
            each(acc as u64 & mask)?;
            (acc, have) = (acc >> width, have - width);
        }
        Ok(())
    }

    /// Reads `n` elements written back to back. `n` is bounded by the
    /// remaining input like a count is, so no `n` drives an allocation the
    /// input could not fill.
    pub fn get_items<T: Persist>(&mut self, n: usize) -> Result<Vec<T>, CodecError> {
        if n > self.remaining() / T::MIN_BYTES.max(1) {
            return Err(CodecError::Oversize);
        }
        (0..n).map(|_| T::get(self)).collect()
    }
}

// ---------------------------------------------------------------------------
// One codec definition per persisted type
// ---------------------------------------------------------------------------

/// A type's checkpoint encoding, stated once: the writer and the reader of
/// a format are the two halves of one `impl`, so they cannot drift apart.
/// Containers compose — `Vec<Option<(NodeId, Vec<f64>)>>` needs no code of
/// its own — and plain structs list their fields with [`persist_struct!`].
///
/// [`persist_struct!`]: crate::persist_struct
pub trait Persist: Sized {
    /// Fewest bytes an encoded value occupies: what bounds a decoded
    /// element count by the remaining input ([`Reader::get_count`]).
    const MIN_BYTES: usize;

    /// Appends the value's encoding.
    fn put(&self, w: &mut Writer);

    /// Decodes one value, checking every invariant the type has.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// The value's encoding as a buffer of its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decodes a buffer that holds exactly one value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::get(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }
}

macro_rules! persist_primitive {
    ($($ty:ty = $bytes:literal, $put:ident, $get:ident;)+) => {$(
        impl Persist for $ty {
            const MIN_BYTES: usize = $bytes;
            fn put(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )+};
}

persist_primitive! {
    u8 = 1, put_u8, get_u8;
    u32 = 4, put_u32, get_u32;
    u64 = 8, put_u64, get_u64;
    f64 = 8, put_f64, get_f64;
    bool = 1, put_bool, get_bool;
    usize = 8, put_usize, get_usize;
}

/// High word first.
impl Persist for u128 {
    const MIN_BYTES: usize = 16;
    fn put(&self, w: &mut Writer) {
        w.put_u64((self >> 64) as u64);
        w.put_u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(((r.get_u64()? as u128) << 64) | r.get_u64()? as u128)
    }
}

impl Persist for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_str()
    }
}

/// A presence flag, then the value.
impl<T: Persist> Persist for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_bool()?.then(|| T::get(r)).transpose()
    }
}

/// An element count, then the elements.
impl<T: Persist> Persist for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.put_seq(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        r.get_items(n)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::get(r).map(Self::from)
    }
}

/// An entry count, then `(key, value)` in key order (deterministic bytes).
/// A key listed twice keeps its last value.
impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::<(K, V)>::get(r).map(Self::from_iter)
    }
}

impl<T: Persist + Copy + Default, const N: usize> Persist for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut Writer) {
        w.put_items(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::get(r)?;
        }
        Ok(out)
    }
}

macro_rules! persist_tuple {
    ($($name:ident),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            const MIN_BYTES: usize = 0 $(+ $name::MIN_BYTES)+;
            #[allow(non_snake_case)]
            fn put(&self, w: &mut Writer) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

persist_tuple!(A, B);
persist_tuple!(A, B, C);
persist_tuple!(A, B, C, D);

/// Implements [`Persist`](crate::persist::Persist) for a plain struct from
/// its field list: fields are written and read in the order given, each by
/// its own `Persist` impl. A field written `name: Vec<T>[other]` is a
/// *column* of `other`: it has `other`'s length and carries no count of its
/// own.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ty { $($field:ident: $fty:ty $([$len:ident])?),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            const MIN_BYTES: usize = 0 $(+ $crate::persist_struct!(@min $fty $(, $len)?))+;
            fn put(&self, w: &mut $crate::persist::Writer) {
                $($crate::persist_struct!(@put self, w, $field $(, $len)?);)+
            }
            fn get(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::CodecError> {
                $(let $field: $fty = $crate::persist_struct!(@get r $(, $len)?);)+
                Ok(Self { $($field),+ })
            }
        }
    };
    (@min $fty:ty) => { <$fty as $crate::persist::Persist>::MIN_BYTES };
    (@min $fty:ty, $len:ident) => { 0 };
    (@put $s:tt, $w:ident, $field:ident) => { $crate::persist::Persist::put(&$s.$field, $w) };
    (@put $s:tt, $w:ident, $field:ident, $len:ident) => {{
        assert_eq!($s.$field.len(), $s.$len.len(), "column length");
        $w.put_items(&$s.$field)
    }};
    (@get $r:ident) => { $crate::persist::Persist::get($r)? };
    (@get $r:ident, $len:ident) => { $r.get_items($len.len())? };
}

impl Persist for NodeId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u32().map(NodeId)
    }
}

impl Persist for ChurnAction {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.put_u8(match self {
            ChurnAction::Crash => 0,
            ChurnAction::Revive => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ChurnAction::Crash),
            1 => Ok(ChurnAction::Revive),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

persist_struct!(NodeStats {
    tx_packets: u64,
    tx_bytes: u64,
    rx_packets: u64,
    rx_bytes: u64,
    retx_packets: u64,
    retx_bytes: u64,
    ack_packets: u64,
    ack_bytes: u64,
    lost_packets: u64,
    deaths: u64,
    energy_uj: f64,
});

/// Whether any of `s`'s counters has a non-zero bit pattern (a −0.0 or NaN
/// energy does).
fn charged(s: &NodeStats) -> bool {
    let counts = [
        s.tx_packets,
        s.tx_bytes,
        s.rx_packets,
        s.rx_bytes,
        s.retx_packets,
        s.retx_bytes,
        s.ack_packets,
        s.ack_bytes,
        s.lost_packets,
        s.deaths,
        s.energy_uj.to_bits(),
    ];
    counts.iter().any(|&c| c != 0)
}

/// The node count; a presence bitmap of ⌈n/8⌉ bytes, bit `v % 8` of byte
/// `v / 8` marking node `v` as `charged`; the marked nodes' counters in
/// id order; then the charged phases as `(label, totals)`. The bytes
/// depend on the counter values alone, so a network between rounds, whose
/// counters are all zero, writes no per-node counter.
impl Persist for NetworkStats {
    const MIN_BYTES: usize = 16;
    fn put(&self, w: &mut Writer) {
        let n = self.per_node().len();
        w.put_usize(n);
        let mut nodes = self.per_node();
        for _ in 0..n.div_ceil(8) {
            let eight = nodes.by_ref().take(8).enumerate();
            w.put_u8(eight.fold(0, |byte, (i, s)| byte | (u8::from(charged(s)) << i)));
        }
        for node in self.per_node().filter(|s| charged(s)) {
            node.put(w);
        }
        let phases: Vec<(String, NodeStats)> =
            self.phases().map(|(l, s)| (l.to_owned(), *s)).collect();
        phases.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        // The bitmap bounds `n` by the input: ⌈n/8⌉ bytes must follow.
        let bitmap = r.get_bitmap(n)?;
        if n > u32::MAX as usize {
            return Err(CodecError::Oversize);
        }
        let marked = bitmap.iter().map(|b| b.count_ones() as usize).sum();
        let counters = r.get_items::<NodeStats>(marked)?;
        if !counters.iter().all(charged) {
            return Err(CodecError::Invariant("marked node with zero counters"));
        }
        let ids = (0..n as u32).filter(|&v| (bitmap[v as usize / 8] >> (v % 8)) & 1 == 1);
        let nodes = ids.map(NodeId).zip(counters);
        Ok(NetworkStats::from_nodes(n, nodes, Vec::get(r)?))
    }
}

persist_struct!(TraceRecord {
    seq: u64,
    phase: String,
    kind: String,
    from: NodeId,
    to: Vec<NodeId>,
    bytes: usize,
    packets: usize,
    retransmissions: u64,
    acked: bool,
});

persist_struct!(BatterySnapshot {
    capacity_uj: Vec<f64>,
    debited_uj: Vec<f64>[capacity_uj],
    depleted: Vec<bool>[capacity_uj],
    pending: Vec<NodeId>,
    death_order: Vec<NodeId>,
});

/// The fields in order, each in its own `Persist` encoding. The per-node
/// and per-link columns — liveness, parents, channel link states — are
/// written in one reserved pass each ([`Writer::put_fixed`]), to the bytes
/// their element-wise encodings give, which is how they are read.
impl Persist for NetSnapshot {
    const MIN_BYTES: usize = 8 + 8 + NetworkStats::MIN_BYTES + 1 + 1 + 1 + 8 + 4 + 8 + 1;
    fn put(&self, w: &mut Writer) {
        // Room for the columns and the counters' bitmap at once, so the
        // buffer grows once for them.
        let (n, links) = (
            self.alive.len(),
            self.channel_states.as_ref().map_or(0, Vec::len),
        );
        w.reserve(8 + n + 8 + 4 * n + 16 + n.div_ceil(8) + 1 + 8 + 41 * links);
        w.put_fixed(self.alive.iter(), |&alive| [u8::from(alive)]);
        w.put_fixed(self.parent.iter(), |parent| parent.to_le_bytes());
        self.stats.put(w);
        self.trace.put(w);
        w.put_bool(self.channel_states.is_some());
        if let Some(states) = &self.channel_states {
            w.put_fixed(states.iter(), |&(from, to, words, bad)| {
                let mut b = [0u8; 41];
                b[..4].copy_from_slice(&from.0.to_le_bytes());
                b[4..8].copy_from_slice(&to.0.to_le_bytes());
                for (at, word) in words.iter().enumerate() {
                    b[8 + 8 * at..16 + 8 * at].copy_from_slice(&word.to_le_bytes());
                }
                b[40] = u8::from(bad);
                b
            });
        }
        self.churn_timed.put(w);
        self.churn_boundary_events.put(w);
        w.put_u32(self.churn_boundary);
        w.put_u64(self.churn_clock);
        self.battery.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NetSnapshot {
            alive: Persist::get(r)?,
            parent: Persist::get(r)?,
            stats: Persist::get(r)?,
            trace: Persist::get(r)?,
            channel_states: Option::<Vec<ChannelLinkState>>::get(r)?,
            churn_timed: Persist::get(r)?,
            churn_boundary_events: Persist::get(r)?,
            churn_boundary: r.get_u32()?,
            churn_clock: r.get_u64()?,
            battery: Persist::get(r)?,
        })
    }
}

persist_struct!(BatchStats {
    ops: usize,
    inserted: usize,
    expired: usize,
    rows_added: usize,
    rows_removed: usize,
    candidates: usize,
});

persist_struct!(DeltaBatchStats {
    batches: u64,
    ops: u64,
    inserted: u64,
    expired: u64,
    rows_added: u64,
    rows_removed: u64,
    candidates: u64,
});

/// Encodes a full network-state snapshot ([`NetSnapshot`]).
pub fn put_net_snapshot(w: &mut Writer, s: &NetSnapshot) {
    s.put(w);
}

/// Decodes a [`NetSnapshot`].
pub fn get_net_snapshot(r: &mut Reader<'_>) -> Result<NetSnapshot, CodecError> {
    NetSnapshot::get(r)
}

/// Writes `count` cells of `shape` as their tree keys ([`TreeShape::key`]: the
/// flags above the z-number) packed at the shape's total bits
/// ([`Writer::put_packed`]): 9 bits a cell under two relations and a 7-bit
/// z-number.
pub fn put_points<'a>(
    w: &mut Writer,
    shape: &TreeShape,
    count: usize,
    points: impl IntoIterator<Item = &'a Point>,
) {
    let keys = points.into_iter().map(|p| shape.key(p.z, p.flags.0));
    w.put_packed(shape.total_bits(), count, keys);
}

/// Reads `count` cells written by [`put_points`] onto the end of `out`.
/// A key unpacks to a z-number below `2^z_bits` by construction, and one
/// whose flags name no relation is refused.
pub fn get_points(
    r: &mut Reader<'_>,
    shape: &TreeShape,
    count: usize,
    out: &mut Vec<Point>,
) -> Result<(), CodecError> {
    let z_bits = shape.z_bits();
    let z_mask = 1u64.checked_shl(z_bits).map_or(u64::MAX, |b| b - 1);
    r.get_packed(shape.total_bits(), count, |key| {
        let flags = RelFlags(key.checked_shr(z_bits).unwrap_or(0) as u8);
        if flags.is_empty() {
            return Err(CodecError::Invariant("cell of no relation"));
        }
        out.push(Point {
            z: key & z_mask,
            flags,
        });
        Ok(())
    })
}

/// Rebuilds the [`JoinSpace`] of `query` from the dimension ranges an image
/// holds ([`JoinSpace::to_parts`]); the relation maps and flag bits come
/// from the query, so the engines can index the space by the query's
/// relations. The ranges must be stored, never rebuilt from resume-time
/// readings: setup-time range estimation would see different samples and
/// quantize differently.
pub fn join_space_from_parts(
    query: &CompiledQuery,
    dims: Vec<(String, f64, f64, f64)>,
) -> Result<JoinSpace, CodecError> {
    for &(_, min, max, res) in &dims {
        // The last clause keeps `Dimension::new`'s cell count inside a u64.
        if !(min.is_finite() && max.is_finite() && res.is_finite() && min <= max && res > 0.0)
            || (max - min) / res >= 2f64.powi(63)
        {
            return Err(CodecError::Invariant(
                "non-finite, inverted or oversized dimension",
            ));
        }
    }
    JoinSpace::from_parts(query, dims)
        .ok_or(CodecError::Invariant("join space does not fit its query"))
}

/// Rebuilds a [`StreamJoinEngine`] by replaying the live tuples an image
/// holds ([`StreamJoinEngine::live_tuples`]) into a fresh engine for `query`
/// — the query itself is not stored, the caller recompiles it. A tuple that
/// does not have the query's shape (one entry per relation, each of its
/// schema's arity) is refused.
pub fn stream_engine_from_tuples(
    query: CompiledQuery,
    tuples: &[LiveTuple],
) -> Result<StreamJoinEngine, CodecError> {
    let fits = |per_rel: &Vec<Option<Vec<f64>>>| {
        per_rel.len() == query.num_relations()
            && per_rel.iter().enumerate().all(|(rel, values)| {
                let arity = query.schema(rel).arity();
                values.as_ref().is_none_or(|v| v.len() == arity)
            })
    };
    if !tuples.iter().all(|(_, per_rel)| fits(per_rel)) {
        return Err(CodecError::Invariant("stream tuple does not fit its query"));
    }
    Ok(StreamJoinEngine::restore(query, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A node's counters, by `kind`: zero; a −0.0 energy alone; a NaN
    /// energy with a payload; or counts and an energy drawn from `bits`.
    fn node_stats(kind: u8, bits: u64) -> NodeStats {
        let count = |shift: u32| (bits >> shift) & 0xff;
        match kind {
            0 => NodeStats::default(),
            1 => NodeStats {
                energy_uj: -0.0,
                ..NodeStats::default()
            },
            2 => NodeStats {
                energy_uj: f64::from_bits(0x7ff8_0000_0000_0000 | (bits & 0xf_ffff)),
                ..NodeStats::default()
            },
            _ => NodeStats {
                tx_packets: count(0),
                tx_bytes: count(8) * 48,
                rx_packets: count(16),
                retx_packets: count(24) % 3,
                ack_bytes: count(32) % 5,
                lost_packets: count(40) % 2,
                deaths: count(48) % 2,
                energy_uj: (bits % 10_000) as f64 / 7.0,
                ..NodeStats::default()
            },
        }
    }

    /// Every bit of a node's counters.
    fn bits(s: &NodeStats) -> [u64; 11] {
        [
            s.tx_packets,
            s.tx_bytes,
            s.rx_packets,
            s.rx_bytes,
            s.retx_packets,
            s.retx_bytes,
            s.ack_packets,
            s.ack_bytes,
            s.lost_packets,
            s.deaths,
            s.energy_uj.to_bits(),
        ]
    }

    fn node_bits(s: &NetworkStats) -> Vec<[u64; 11]> {
        s.per_node().map(bits).collect()
    }

    fn phase_bits(s: &NetworkStats) -> Vec<(String, [u64; 11])> {
        s.phases().map(|(l, p)| (l.to_owned(), bits(p))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Network counters round-trip bit for bit, whether a node is
        /// zero, −0.0, NaN or counted, and their bytes do not depend on how
        /// they are stored: the dense parts, the sparse ones and, when every
        /// node is zero, counters of no per-node array write the same.
        #[test]
        fn network_stats_round_trip_bit_for_bit(
            nodes in prop::collection::vec((0u8..6, any::<u64>()), 0..=300),
            phases in prop::collection::vec((0u8..4, 0u8..4, any::<u64>()), 0..4),
            all_zero in any::<bool>(),
        ) {
            let per_node: Vec<NodeStats> = nodes
                .iter()
                .map(|&(kind, b)| node_stats(if all_zero { 0 } else { kind % 4 }, b))
                .collect();
            let per_phase: Vec<(String, NodeStats)> = phases
                .iter()
                .map(|&(label, kind, b)| (format!("phase-{label}"), node_stats(kind, b)))
                .collect();
            let dense = NetworkStats::from_parts(per_node.clone(), per_phase.clone());
            let bytes = dense.to_bytes();
            let back = NetworkStats::from_bytes(&bytes).unwrap();
            prop_assert_eq!(node_bits(&back), node_bits(&dense));
            prop_assert_eq!(phase_bits(&back), phase_bits(&dense));
            prop_assert_eq!(back.to_bytes(), bytes.clone());

            let marked = per_node.iter().filter(|s| charged(s)).count();
            let n = per_node.len();
            prop_assert_eq!(bytes.len(), 16 + n.div_ceil(8) + 88 * marked
                + phase_bits(&dense).iter().map(|(l, _)| 8 + l.len() + 88).sum::<usize>());
            let sparse = per_node.iter().enumerate().filter(|(_, s)| charged(s));
            let sparse = sparse.map(|(v, s)| (NodeId(v as u32), *s));
            let sparse = NetworkStats::from_nodes(n, sparse, per_phase.clone());
            prop_assert_eq!(sparse.to_bytes(), bytes.clone());
            if marked == 0 {
                let unlaid = NetworkStats::from_nodes(n, [], per_phase);
                prop_assert_eq!(unlaid.to_bytes(), bytes);
            }
        }
    }

    /// The bitmap holds no bit past the last node, and a marked node has a
    /// non-zero counter: anything else is not an encoding.
    #[test]
    fn network_stats_have_one_encoding() {
        let one = NodeStats {
            deaths: 1,
            ..NodeStats::default()
        };
        let stats = NetworkStats::from_nodes(3, [(NodeId(1), one)], Vec::new());
        let bytes = stats.to_bytes();
        assert_eq!(bytes[8], 0b010);
        let mut stray = bytes.clone();
        stray[8] |= 0b1000;
        assert_eq!(
            NetworkStats::from_bytes(&stray).err(),
            Some(CodecError::Invariant("presence bit of no node"))
        );
        let zero = NetworkStats::from_parts(vec![NodeStats::default(); 3], Vec::new());
        let mut hollow = zero.to_bytes();
        hollow[8] = 0b100;
        hollow.splice(9..9, NodeStats::default().to_bytes());
        assert_eq!(
            NetworkStats::from_bytes(&hollow).err(),
            Some(CodecError::Invariant("marked node with zero counters"))
        );
    }

    #[test]
    fn crc32_known_answer() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The slice-by-16 loop computes the bytewise loop's checksum: lengths
    /// 0–80 (every tail length, after zero to four 16-byte steps) and a
    /// 1 MiB buffer entered at every alignment.
    #[test]
    fn crc32_matches_the_bytewise_loop() {
        let bytewise = |bytes: &[u8]| {
            let step =
                |c: u32, &b: &u8| CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            bytes.iter().fold(0xFFFF_FFFFu32, step) ^ 0xFFFF_FFFF
        };
        let buf = noise((1 << 20) + 16);
        for len in 0..=80 {
            assert_eq!(crc32(&buf[..len]), bytewise(&buf[..len]), "length {len}");
        }
        for align in 0..16 {
            let slice = &buf[align..align + (1 << 20)];
            assert_eq!(crc32(slice), bytewise(slice), "alignment {align}");
        }
    }

    /// `len` bytes of a fixed pseudo-random stream.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// A checksum fed in two pieces is the one-shot checksum, at every split
    /// point, and so is one fed byte by byte.
    #[test]
    fn crc32_streamed_is_the_one_shot_value() {
        let buf = noise(100);
        let whole = crc32(&buf);
        for at in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..at]);
            crc.update(&buf[at..]);
            assert_eq!(crc.finish(), whole, "split at {at}");
        }
        let mut crc = Crc32::new();
        buf.chunks(1).for_each(|b| crc.update(b));
        assert_eq!(crc.finish(), whole);
    }

    /// The frame as one buffer — magic, version, seq, length, payload, CRC
    /// over everything after the version field — which `save_snapshot`
    /// writes in pieces.
    fn frame_snapshot(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(4 + 4 + 8 + 8 + payload.len() + 4);
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let crc = crc32(&bytes[8..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// A saved snapshot is the one-buffer frame byte for byte, and a crash
    /// mid-write leaves the frame's first half in the temp file.
    #[test]
    fn a_saved_snapshot_is_the_framed_payload() {
        let dir = std::env::temp_dir().join(format!("sj-persist-frame-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        for (seq, len) in [(1, 0), (2, 1), (3, 37), (4, 4099)] {
            let payload = noise(len);
            let frame = frame_snapshot(seq, &payload);
            store.save_snapshot(seq, &payload).unwrap();
            assert_eq!(
                fs::read(store.snapshot_path(seq)).unwrap(),
                frame,
                "{len} bytes"
            );
            let torn = frame_snapshot(seq + 10, &payload);
            store.arm_crash(CrashPoint::MidSnapshotWrite, 1);
            assert!(store.save_snapshot(seq + 10, &payload).is_err());
            let tmp = dir.join(format!("snap-{:010}.ckpt.tmp", seq + 10));
            assert_eq!(
                fs::read(tmp).unwrap(),
                torn[..torn.len() / 2],
                "{len} bytes"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_known_answer() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("φ-join");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "φ-join");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn oversize_count_is_error_not_allocation() {
        // A length prefix of u64::MAX must fail fast, not allocate.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_count(9), Err(CodecError::Oversize));
        // A packed column whose stated length no key count fits.
        let mut r3 = Reader::new(&bytes);
        assert_eq!(
            r3.get_packed(9, 3, |_| Ok(())),
            Err(CodecError::Invariant("packed column of another length"))
        );
    }

    /// Cells round-trip through their packed keys at every width up to a
    /// full word; a set padding bit, a cell of no relation and a column
    /// cut short are refused.
    #[test]
    fn packed_cells_roundtrip_and_invariants() {
        for (z_bits, flag_bits) in [(7, 2), (0, 1), (13, 3), (56, 8), (63, 1)] {
            let schedule: Vec<u8> = std::iter::repeat_n(1, z_bits).collect();
            let shape = TreeShape::new(&schedule, flag_bits);
            let top = (1u64 << z_bits) - 1;
            let points: Vec<Point> = [
                (0, 1),
                (top / 3, 1 << (flag_bits - 1)),
                (top, (1 << flag_bits) - 1),
            ]
            .into_iter()
            .map(|(z, f): (u64, u16)| Point {
                z,
                flags: RelFlags(f as u8),
            })
            .collect();
            let mut w = Writer::new();
            put_points(&mut w, &shape, points.len(), &points);
            let bytes = w.into_bytes();
            let width = z_bits + usize::from(flag_bits);
            assert_eq!(bytes.len(), 8 + (3 * width).div_ceil(8), "{width} bits");
            let mut back = Vec::new();
            let mut r = Reader::new(&bytes);
            get_points(&mut r, &shape, points.len(), &mut back).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, points, "{width} bits");
            let mut cut = Vec::new();
            let short = get_points(
                &mut Reader::new(&bytes[..bytes.len() - 1]),
                &shape,
                3,
                &mut cut,
            );
            assert_eq!(short, Err(CodecError::Truncated));
        }
        let shape = TreeShape::new(&[2, 2, 2], 2);
        let cell = |z, f| Point {
            z,
            flags: RelFlags(f),
        };
        let mut w = Writer::new();
        put_points(&mut w, &shape, 2, &[cell(5, 1), cell(9, 2)]);
        let bytes = w.into_bytes();
        // Two 8-bit keys, flags in each byte's top two bits: setting bit 6
        // of the second turns its flags from 0b10 to 0b11 ...
        let mut both = bytes.clone();
        both[9] |= 0x40;
        let mut back = Vec::new();
        get_points(&mut Reader::new(&both), &shape, 2, &mut back).unwrap();
        assert_eq!(back, [cell(5, 1), cell(9, 3)]);
        // ... clearing its flags leaves a cell of no relation.
        let mut none = bytes.clone();
        none[9] &= 0x3f;
        let got = get_points(&mut Reader::new(&none), &shape, 2, &mut Vec::new());
        assert_eq!(got, Err(CodecError::Invariant("cell of no relation")));
        // One cell of 8 bits in one byte has no padding; one of 6 bits has two.
        let shape = TreeShape::new(&[2, 2], 2);
        let mut w = Writer::new();
        put_points(&mut w, &shape, 1, &[cell(5, 1)]);
        let mut padded = w.into_bytes();
        padded[8] |= 0x80;
        let got = get_points(&mut Reader::new(&padded), &shape, 1, &mut Vec::new());
        assert_eq!(
            got,
            Err(CodecError::Invariant("packed column with padding set"))
        );
    }

    #[test]
    fn wal_append_and_scan() {
        let dir = std::env::temp_dir().join(format!("sj-persist-wal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.append_wal(b"one").unwrap();
        store.append_wal(b"two").unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.wal, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!rec.degraded);

        // A torn third record: only the good prefix survives, degraded set.
        store.arm_crash(CrashPoint::MidWalAppend, 1);
        assert!(matches!(
            store.append_wal(b"three"),
            Err(RecoveryError::Crash(CrashPoint::MidWalAppend))
        ));
        let rec = store.recover().unwrap();
        assert_eq!(rec.wal.len(), 2);
        assert!(rec.degraded);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_fallback_and_prune() {
        let dir = std::env::temp_dir().join(format!("sj-persist-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save_snapshot(1, b"alpha").unwrap();
        store.save_snapshot(2, b"beta").unwrap();
        store.save_snapshot(3, b"gamma").unwrap();
        // Prune keeps the newest two.
        assert!(!store.snapshot_path(1).exists());
        let rec = store.recover().unwrap();
        assert_eq!(rec.snapshot, Some((3, b"gamma".to_vec())));

        // Corrupt the newest: falls back to seq 2, degraded.
        flip_byte(&store.snapshot_path(3), 30).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.snapshot, Some((2, b"beta".to_vec())));
        assert!(rec.degraded);

        // Truncate that one too: cold start, still no panic.
        truncate_file(&store.snapshot_path(2), 10).unwrap();
        flip_byte(&store.snapshot_path(3), 30).unwrap(); // restore not guaranteed; corrupt anyway
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none() || rec.snapshot.as_ref().unwrap().0 == 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot file of an older format `version`, well-formed in every
    /// other respect, is refused by name and recovery cold-starts past it.
    fn assert_version_refused(version: u32) {
        assert_ne!(version, SNAPSHOT_VERSION);
        let dir =
            std::env::temp_dir().join(format!("sj-persist-v{version}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save_snapshot(1, b"alpha").unwrap();
        let path = store.snapshot_path(1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        match load_snapshot(&path, 1) {
            Err(RecoveryError::Corrupt { detail, .. }) => assert_eq!(detail, "unsupported version"),
            other => panic!("expected a corrupt-artifact error, got {other:?}"),
        }
        let rec = store.recover().unwrap();
        assert!(rec.snapshot.is_none() && rec.degraded);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Version 2: the slot-per-tenant `QueryGroup` layout.
    #[test]
    fn v2_image_is_an_unsupported_version() {
        assert_version_refused(2);
    }

    /// Version 3: a serve image that carried an admission-cache key table.
    #[test]
    fn v3_image_is_an_unsupported_version() {
        assert_version_refused(3);
    }

    /// Version 4: a group image that carried, per plan, the filter engine's
    /// cell counts and the previous epoch's population.
    #[test]
    fn v4_image_is_an_unsupported_version() {
        assert_version_refused(4);
    }

    /// Version 5: a continuous image that carried what the executor derives
    /// (per-node subtree counts, the base's tuple cache, the filter and the
    /// filter engine's counts).
    #[test]
    fn v5_image_is_an_unsupported_version() {
        assert_version_refused(5);
    }

    /// Version 6: a continuous image that carried the stream engine's live
    /// tuples (the projection of `last_values`), and a network image that
    /// carried each node's routing `depth` beside its `parent`.
    #[test]
    fn v6_image_is_an_unsupported_version() {
        assert_version_refused(6);
    }

    /// Version 7: a network image that carried every node's counters, all
    /// of them zero between the rounds of a continuous run.
    #[test]
    fn v7_image_is_an_unsupported_version() {
        assert_version_refused(7);
    }

    /// Version 8: a continuous image that wrote its per-node tables element
    /// by element — an optional cell, an optional value vector and a
    /// counted point set per node — where v9 writes packed columns.
    #[test]
    fn v8_image_is_an_unsupported_version() {
        assert_eq!(SNAPSHOT_VERSION, 9);
        assert_version_refused(8);
    }

    #[test]
    fn crash_points_leave_recoverable_state() {
        for (ix, point) in CrashPoint::ALL.iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("sj-persist-crash-{}-{ix}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.save_snapshot(1, b"base").unwrap();
            store.append_wal(b"r1").unwrap();
            store.arm_crash(*point, 1);
            let crashed = store.crash_check(CrashPoint::PostRound).is_err()
                || store.append_wal(b"r2").is_err()
                || store.save_snapshot(2, b"next").is_err();
            assert!(crashed, "{point} never fired");
            // Recovery after the crash always finds a consistent prefix.
            let rec = CheckpointStore::open(&dir).unwrap().recover().unwrap();
            let (seq, payload) = rec.snapshot.expect("some snapshot survives");
            assert!(seq == 1 || seq == 2);
            assert_eq!(
                payload,
                if seq == 1 {
                    b"base".to_vec()
                } else {
                    b"next".to_vec()
                }
            );
            assert!(!rec.wal.is_empty());
            assert_eq!(rec.wal[0], b"r1".to_vec());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A crash that leaves a temp snapshot behind: reopening the directory
    /// deletes it, and recovery finds what it found before the reopen.
    #[test]
    fn reopening_deletes_torn_temp_snapshots() {
        for point in [CrashPoint::MidSnapshotWrite, CrashPoint::PostSnapshotTmp] {
            let dir =
                std::env::temp_dir().join(format!("sj-persist-tmp-{point}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.save_snapshot(1, b"base").unwrap();
            store.append_wal(b"r1").unwrap();
            store.arm_crash(point, 1);
            assert!(store.save_snapshot(2, b"next").is_err(), "{point}");
            let temps = || {
                fs::read_dir(&dir)
                    .unwrap()
                    .filter(|e| {
                        e.as_ref()
                            .unwrap()
                            .file_name()
                            .to_string_lossy()
                            .ends_with(".tmp")
                    })
                    .count()
            };
            assert_eq!(temps(), 1, "{point}");
            let before = store.recover().unwrap();
            let after = CheckpointStore::open(&dir).unwrap().recover().unwrap();
            assert_eq!(temps(), 0, "{point}");
            assert_eq!(after.snapshot, before.snapshot, "{point}");
            assert_eq!(after.snapshot, Some((1, b"base".to_vec())), "{point}");
            assert_eq!((after.wal, after.degraded), (before.wal, before.degraded));
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
