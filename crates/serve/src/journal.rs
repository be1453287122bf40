//! The durable event journal: an append-only, length-prefixed and
//! checksummed record log, written *before* the scheduler consumes each
//! event (write-ahead) and made durable by one sync per acknowledged call
//! (group commit) — rotated into numbered **segments** so the records a
//! recovery replays and the files on disk stay bounded however long the
//! stream runs (each snapshot still holds every job ever accepted).
//!
//! An append writes its frame with one `write_all` and no sync; the caller
//! issues [`SegmentedJournal::sync`] once it has written every frame of a
//! call and before it acknowledges that call.  A crash of the process alone
//! keeps every written frame (the kernel holds them); a power loss can drop
//! frames written since the last sync, and recovery then reads a prefix of
//! them, possibly none.  Either way only the call not yet acknowledged loses
//! frames.
//!
//! A journal is a *directory* containing
//!
//! ```text
//! segment-000000.strj      sealed segments (immutable, fully synced)
//! segment-000001.strj
//! segment-000002.open      the single active segment being appended to
//! snapshot-000001.strsnp   scheduler-state snapshots (see `snapshot`)
//! ```
//!
//! Every segment file has the layout
//!
//! ```text
//! [ 8-byte magic "STRJRN01" ]
//! [ u32 payload_len | u32 crc32(payload) | payload ]*
//! [ zero bytes ]*          the zero tail: only in the active segment
//! ```
//!
//! All integers little-endian.  The journal is the *only* source of truth:
//! scheduler state is a pure function of the record sequence, so recovery is
//! replay.  A crash can leave a torn tail — a partial header, a partial
//! payload, or a payload whose checksum no longer matches; [`load`] stops at
//! the first such record and reports where the valid prefix ends, and
//! [`JournalWriter::append_at`] truncates the file there before appending
//! again.  Torn tails are *data loss of at most the frames of the one
//! unacknowledged call*, never corruption of the prefix — and they can only
//! occur in the **last** segment of the chain: sealing fsyncs the data
//! before the atomic rename, so a torn sealed segment mid-chain is disk
//! corruption, not a crash artefact.
//!
//! **The zero tail.**  The active segment carries [`ZERO_TAIL_LEN`] bytes of
//! written zeros past its last frame, laid down when the segment is created
//! (or a torn tail is cut on reopen) and made durable by that step's sync.
//! An append overwrites the tail in place, so the file's length does not
//! change between syncs and each commit's `sync_data` flushes data blocks
//! only: `fdatasync` persists the metadata a later read needs, and an
//! overwrite of blocks already written and synced needs none, so an
//! acknowledged frame is exactly as durable as an appended one.  The
//! zeros are real writes, not a sparse `set_len`: a hole would make the
//! first write allocate its block, which is a metadata commit again.  An
//! append that would run past the tail first extends it by a fresh tail
//! (counted by [`SegmentedJournal::tail_growths`]); the largest frame is 49
//! bytes, so a segment of the default [`RotationPolicy`]'s 1024 records
//! (at most about 50 KB) never grows.  The parser reads an all-zero
//! remainder after the last whole frame as a clean end
//! ([`TailStatus::Clean`] with the frame end): a frame never starts with a
//! zero byte, since every payload is at least ten bytes long, but a zero
//! header followed by any non-zero byte is still a torn tail.  Sealing
//! ([`SegmentedJournal::rotate`]) and draining
//! ([`SegmentedJournal::finish`]) cut the tail before their sync, so every
//! file except a live or crashed active segment holds exactly its frames.
//! A journal written before the tail existed parses as before (no tail is
//! a clean end too); a padded journal read by a parser that knows no tail
//! ends in a zero header, which that parser reports as a torn tail at the
//! frame end, recovering the same records.
//!
//! [`SegmentedJournal`] owns rotation: when the active segment exceeds the
//! [`RotationPolicy`] record/byte threshold it is sealed
//! (`.open` → `.strj`, an atomic rename), optionally a snapshot covering
//! everything up to the sealed segment is written (temp file → fsync →
//! atomic rename), sealed segments older than the oldest retained snapshot
//! are garbage-collected, and a fresh active segment opens.  Recovery picks
//! the newest snapshot whose digest verifies and replays only the segment
//! suffix past it — see `service::recover` for the decision tree.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::event::{decode_payload, encode_payload, JournalRecord, PayloadError};

/// Magic bytes opening every journal file (format version 01).
pub const MAGIC: [u8; 8] = *b"STRJRN01";

/// Frame header size: `u32` length + `u32` checksum.
pub const RECORD_HEADER_LEN: usize = 8;

/// Sanity cap on a single payload: anything larger is torn/garbage, not a
/// record this crate ever writes.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// Zero bytes the active segment carries past its last frame (64 KiB): more
/// than the frames of a full segment under the default [`RotationPolicy`]
/// (1024 records of at most 49 bytes), so its appends never change the
/// file's length.
pub const ZERO_TAIL_LEN: u64 = 64 << 10;

/// The reflected CRC-32/IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight bitwise steps, and `CRC32_TABLES[k][b]`
/// is that byte followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the ubiquitous
/// `crc32` of zlib/PNG.  Table-driven, eight bytes per step: besides
/// journal records of tens of bytes it checks every snapshot, which holds
/// every job ever accepted (about 0.8 MB at 20,000 jobs), at each seal and
/// at each recovery.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// I/O or format failure of the journal itself (as opposed to a torn tail,
/// which is an expected crash artefact reported via [`TailStatus`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An OS-level I/O operation failed.
    Io {
        /// What the journal was doing (`"open"`, `"append"`, …).
        op: &'static str,
        /// The journal path.
        path: PathBuf,
        /// The rendered OS error.
        message: String,
    },
    /// The file does not start with [`MAGIC`]: it is not a journal (or the
    /// creating process died before the header hit the disk).  Refusing to
    /// guess beats replaying garbage.
    BadMagic {
        /// The offending path.
        path: PathBuf,
    },
    /// The journal directory's segment files contradict the rotation
    /// invariants (e.g. two `.open` segments).  No crash of this crate's own
    /// write sequence can produce this — it means external interference.
    BadLayout {
        /// The journal directory.
        dir: PathBuf,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, path, message } => {
                write!(f, "journal {op} failed on {}: {message}", path.display())
            }
            JournalError::BadMagic { path } => {
                write!(f, "{} is not a journal (bad magic)", path.display())
            }
            JournalError::BadLayout { dir, reason } => {
                write!(
                    f,
                    "journal directory {} is malformed: {reason}",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> JournalError {
    JournalError::Io {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Why the tail of a journal was discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained.
    TruncatedHeader,
    /// The length prefix exceeds [`MAX_PAYLOAD_LEN`].
    OversizedLength,
    /// The payload is shorter than its length prefix.
    TruncatedPayload,
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// The checksum matched but the payload does not decode (only reachable
    /// through a checksum collision on corrupted bytes).
    MalformedPayload(PayloadError),
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedHeader => write!(f, "truncated record header"),
            TornReason::OversizedLength => write!(f, "oversized record length"),
            TornReason::TruncatedPayload => write!(f, "truncated record payload"),
            TornReason::ChecksumMismatch => write!(f, "record checksum mismatch"),
            TornReason::MalformedPayload(e) => write!(f, "malformed record payload: {e}"),
        }
    }
}

/// State of the journal tail after [`load`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte past the last whole record is zero: the active segment's
    /// zero tail, or nothing at all.
    Clean {
        /// The frame end: magic + whole records, where the next frame goes.
        valid_bytes: u64,
    },
    /// The file ends in a torn record starting at `valid_bytes`.
    Torn {
        /// Length of the valid prefix (magic + whole records); the file
        /// should be truncated here before appending.
        valid_bytes: u64,
        /// What was wrong with the first invalid record.
        reason: TornReason,
    },
}

impl TailStatus {
    /// Length of the valid prefix in bytes (magic + whole records), clean
    /// or torn: never the file length, which counts the zero tail.
    pub fn valid_bytes(&self) -> u64 {
        match *self {
            TailStatus::Clean { valid_bytes } | TailStatus::Torn { valid_bytes, .. } => valid_bytes,
        }
    }

    /// Where the torn record starts, or `None` for a clean tail.
    pub fn torn_at(&self) -> Option<u64> {
        match self {
            TailStatus::Clean { .. } => None,
            TailStatus::Torn { valid_bytes, .. } => Some(*valid_bytes),
        }
    }
}

/// Parses journal bytes (already read from disk) into records plus the tail
/// status.  Pure function of the bytes — the testable core of [`load`].
///
/// An all-zero remainder after the last whole record is the zero tail, a
/// clean end; a remainder holding any non-zero byte is torn at its start.
pub fn parse(bytes: &[u8], path: &Path) -> Result<(Vec<JournalRecord>, TailStatus), JournalError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let mut records = Vec::new();
    let mut offset = MAGIC.len();
    let torn = |offset: usize, reason: TornReason| TailStatus::Torn {
        valid_bytes: offset as u64,
        reason,
    };
    let clean = |offset: usize| TailStatus::Clean {
        valid_bytes: offset as u64,
    };
    // Asked only at a short remainder or a zero header, after which the
    // parse ends either way: the scan runs at most once.
    let zero_tail = |offset: usize| bytes[offset..].iter().all(|&b| b == 0);
    loop {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_LEN {
            let tail = if zero_tail(offset) {
                clean(offset)
            } else {
                torn(offset, TornReason::TruncatedHeader)
            };
            return Ok((records, tail));
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len == 0 && crc == 0 && zero_tail(offset) {
            return Ok((records, clean(offset)));
        }
        if len > MAX_PAYLOAD_LEN {
            return Ok((records, torn(offset, TornReason::OversizedLength)));
        }
        let len = len as usize;
        if remaining - RECORD_HEADER_LEN < len {
            return Ok((records, torn(offset, TornReason::TruncatedPayload)));
        }
        let payload = &bytes[offset + RECORD_HEADER_LEN..offset + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return Ok((records, torn(offset, TornReason::ChecksumMismatch)));
        }
        match decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(e) => return Ok((records, torn(offset, TornReason::MalformedPayload(e)))),
        }
        offset += RECORD_HEADER_LEN + len;
    }
}

/// Reads a journal file and parses its valid prefix.
///
/// A torn tail is *not* an error: the records of the valid prefix are
/// returned together with [`TailStatus::Torn`] telling the caller where to
/// truncate.  Errors are reserved for I/O failures and non-journal files.
pub fn load(path: &Path) -> Result<(Vec<JournalRecord>, TailStatus), JournalError> {
    let mut file = File::open(path).map_err(|e| io_err("open", path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read", path, e))?;
    parse(&bytes, path)
}

/// Append handle on a journal file.
///
/// Every append writes the full frame with a single `write_all` over the
/// zero tail and does not sync: the frame is written before the scheduler
/// consumes the event, and [`JournalWriter::sync`] makes every frame written
/// so far durable.  Whoever acknowledges an append syncs first (the
/// write-ahead contract).  The file cursor always sits at the frame end.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    /// Magic + frames: where the next frame goes.
    frame_end: u64,
    /// The file's length: the frame end plus the zero tail.
    file_len: u64,
    /// `sync_data` calls this handle has issued.
    syncs: u64,
    /// Appends that ran past the zero tail and extended the file.
    tail_growths: u64,
}

impl JournalWriter {
    /// Creates (or truncates) a fresh journal at `path` and writes the magic
    /// header and the zero tail durably.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, e))?;
        file.write_all(&MAGIC)
            .map_err(|e| io_err("write-magic", path, e))?;
        let magic_len = MAGIC.len() as u64;
        let mut writer = JournalWriter {
            file,
            path: path.to_path_buf(),
            frame_end: magic_len,
            file_len: magic_len,
            syncs: 0,
            tail_growths: 0,
        };
        writer.extend_tail(0)?;
        writer.sync()?;
        Ok(writer)
    }

    /// Reopens an existing journal for appending at `valid_bytes`, the frame
    /// end [`load`] validated.  A tail past it that is all zero is reused
    /// as it is; one holding any other byte (a torn frame) is cut and a
    /// fresh zero tail laid down, so a torn tail can never shadow future
    /// appends.  Either way it syncs once, which also makes durable any
    /// frame a crashed writer left unsynced before recovery replayed it.
    pub fn append_at(path: &Path, valid_bytes: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(valid_bytes))
            .and_then(|_| file.read_to_end(&mut tail))
            .map_err(|e| io_err("read-tail", path, e))?;
        let mut writer = JournalWriter {
            file,
            path: path.to_path_buf(),
            frame_end: valid_bytes,
            file_len: valid_bytes + tail.len() as u64,
            syncs: 0,
            tail_growths: 0,
        };
        if tail.iter().any(|&b| b != 0) {
            writer
                .file
                .set_len(valid_bytes)
                .map_err(|e| io_err("truncate", path, e))?;
            writer.file_len = valid_bytes;
            writer.extend_tail(0)?;
        } else {
            writer
                .file
                .seek(SeekFrom::Start(valid_bytes))
                .map_err(|e| io_err("seek", path, e))?;
        }
        writer.sync()?;
        Ok(writer)
    }

    /// Writes zeros from the end of the file up to `need` bytes past the
    /// frame end plus a fresh [`ZERO_TAIL_LEN`], then puts the cursor back
    /// at the frame end.  The growth is durable once the next sync returns.
    fn extend_tail(&mut self, need: u64) -> Result<(), JournalError> {
        let new_len = self.frame_end + need + ZERO_TAIL_LEN;
        let zeros = vec![0; (new_len - self.file_len) as usize];
        self.file
            .seek(SeekFrom::Start(self.file_len))
            .and_then(|_| self.file.write_all(&zeros))
            .and_then(|_| self.file.seek(SeekFrom::Start(self.frame_end)))
            .map_err(|e| io_err("write-tail", &self.path, e))?;
        self.file_len = new_len;
        Ok(())
    }

    /// Writes one record's frame with a single `write_all` over the zero
    /// tail, without a sync: the record is durable once
    /// [`JournalWriter::sync`] returns.  A frame that would run past the
    /// tail first extends it.  Returns the frame length in bytes, which
    /// rotation accounting sums.
    pub fn append(&mut self, record: &JournalRecord) -> Result<u64, JournalError> {
        let payload = encode_payload(record);
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let frame_len = frame.len() as u64;
        if self.frame_end + frame_len > self.file_len {
            self.extend_tail(frame_len)?;
            self.tail_growths += 1;
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", &self.path, e))?;
        self.frame_end += frame_len;
        Ok(frame_len)
    }

    /// Cuts the zero tail (`set_len` to the frame end), without a sync: the
    /// file then holds exactly its magic and frames once the next sync
    /// returns.
    fn trim(&mut self) -> Result<(), JournalError> {
        self.file
            .set_len(self.frame_end)
            .map_err(|e| io_err("trim", &self.path, e))?;
        self.file_len = self.frame_end;
        Ok(())
    }

    /// Makes every frame appended so far durable (`sync_data`): the commit
    /// point of the appends before it.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.path, e))?;
        self.syncs += 1;
        Ok(())
    }

    /// The frame end: magic + frames written, where the next frame goes.
    pub fn frame_end(&self) -> u64 {
        self.frame_end
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// File extension of sealed (immutable, fully synced) segments.
pub const SEGMENT_SEALED_EXT: &str = "strj";

/// File extension of the single active segment being appended to.
pub const SEGMENT_OPEN_EXT: &str = "open";

/// File extension of scheduler-state snapshots.
pub const SNAPSHOT_EXT: &str = "strsnp";

/// File name of segment `index` (`segment-000042.strj` / `.open`).
pub fn segment_file_name(index: u64, sealed: bool) -> String {
    let ext = if sealed {
        SEGMENT_SEALED_EXT
    } else {
        SEGMENT_OPEN_EXT
    };
    format!("segment-{index:06}.{ext}")
}

/// Path of segment `index` inside journal directory `dir`.
pub fn segment_path(dir: &Path, index: u64, sealed: bool) -> PathBuf {
    dir.join(segment_file_name(index, sealed))
}

/// File name of the snapshot covering every record up to and including
/// sealed segment `upto` (`snapshot-000042.strsnp`).
pub fn snapshot_file_name(upto: u64) -> String {
    format!("snapshot-{upto:06}.{SNAPSHOT_EXT}")
}

/// Path of the snapshot covering sealed segment `upto` inside `dir`.
pub fn snapshot_path(dir: &Path, upto: u64) -> PathBuf {
    dir.join(snapshot_file_name(upto))
}

fn snapshot_tmp_path(dir: &Path, upto: u64) -> PathBuf {
    dir.join(format!("snapshot-{upto:06}.tmp"))
}

/// Parses `segment-NNNNNN.<ext>` / `snapshot-NNNNNN.strsnp` names.
fn parse_artefact(name: &str) -> Option<(&'static str, u64)> {
    let (kind, rest) = if let Some(rest) = name.strip_prefix("segment-") {
        ("segment", rest)
    } else if let Some(rest) = name.strip_prefix("snapshot-") {
        ("snapshot", rest)
    } else {
        return None;
    };
    let (digits, ext) = rest.split_once('.')?;
    let index: u64 = digits.parse().ok()?;
    match (kind, ext) {
        ("segment", e) if e == SEGMENT_SEALED_EXT => Some(("sealed", index)),
        ("segment", e) if e == SEGMENT_OPEN_EXT => Some(("open", index)),
        ("snapshot", e) if e == SNAPSHOT_EXT => Some(("snapshot", index)),
        // `.tmp` snapshots are in-flight writes abandoned by a crash: the
        // scan ignores them (recovery must never trust an un-renamed file).
        _ => None,
    }
}

/// What a journal directory holds: the segment chain and the snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentScan {
    /// Indices of sealed segments, ascending.
    pub sealed: Vec<u64>,
    /// Index of the active (`.open`) segment, if one exists (a crash between
    /// sealing and opening the next segment leaves none).
    pub open: Option<u64>,
    /// `upto` indices of snapshot files, ascending.
    pub snapshots: Vec<u64>,
}

impl SegmentScan {
    /// Every segment index in replay order (sealed then active).
    pub fn chain(&self) -> Vec<u64> {
        let mut chain = self.sealed.clone();
        if let Some(open) = self.open {
            chain.push(open);
        }
        chain
    }
}

/// Lists the segments and snapshots of a journal directory.
///
/// Unknown files (and abandoned `snapshot-*.tmp` writes) are ignored; two
/// `.open` segments, or an `.open` segment that also exists sealed, are
/// reported as [`JournalError::BadLayout`] — no crash of this crate's own
/// rotation sequence can produce either.
pub fn scan_dir(dir: &Path) -> Result<SegmentScan, JournalError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("scan", dir, e))?;
    let mut scan = SegmentScan::default();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("scan", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match parse_artefact(name) {
            Some(("sealed", index)) => scan.sealed.push(index),
            Some(("open", index)) => {
                if let Some(previous) = scan.open.replace(index) {
                    return Err(JournalError::BadLayout {
                        dir: dir.to_path_buf(),
                        reason: format!("two active segments ({previous} and {index})"),
                    });
                }
            }
            Some(("snapshot", upto)) => scan.snapshots.push(upto),
            _ => {}
        }
    }
    scan.sealed.sort_unstable();
    scan.snapshots.sort_unstable();
    if let Some(open) = scan.open {
        if scan.sealed.contains(&open) {
            return Err(JournalError::BadLayout {
                dir: dir.to_path_buf(),
                reason: format!("segment {open} exists both sealed and open"),
            });
        }
        if scan.sealed.iter().any(|&s| s > open) {
            return Err(JournalError::BadLayout {
                dir: dir.to_path_buf(),
                reason: format!("active segment {open} is older than a sealed segment"),
            });
        }
    }
    Ok(scan)
}

/// Durably fsyncs a directory so a just-renamed/created file name survives a
/// crash (the file *data* is synced separately, before the rename), and
/// counts the sync in `syncs`.
fn sync_dir(dir: &Path, syncs: &mut u64) -> Result<(), JournalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync-dir", dir, e))?;
    *syncs += 1;
    Ok(())
}

/// When the record/byte threshold rotates the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RotationPolicy {
    /// Seal the active segment once it holds this many records.
    pub max_records: u64,
    /// … or once its frame bytes (excluding the magic) reach this many.
    pub max_bytes: u64,
}

impl Default for RotationPolicy {
    /// 1024 records or 1 MiB per segment — recovery replays at most one
    /// segment's worth of records past the newest snapshot.
    fn default() -> Self {
        RotationPolicy {
            max_records: 1024,
            max_bytes: 1 << 20,
        }
    }
}

/// Where a chaos-injected crash aborts the rotation sequence — the tool
/// behind the crash-during-rotation recovery tests.  Each point maps to a
/// real crash window of the seal → snapshot → reopen sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotationCrashPoint {
    /// After the seal rename, before the snapshot temp file is written.
    AfterSeal,
    /// After the snapshot temp file is written and fsynced, before the
    /// atomic rename publishes it.
    AfterSnapshotTemp,
    /// After the snapshot rename, before garbage collection and before the
    /// next active segment is created.
    AfterSnapshotRename,
}

/// What one [`SegmentedJournal::rotate`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RotationOutcome {
    /// Index of the segment just sealed.
    pub sealed: u64,
    /// `true` when a snapshot covering the sealed segment was published.
    pub snapshot_written: bool,
    /// Sealed segments garbage-collected.
    pub gc_segments: usize,
    /// Snapshots garbage-collected.
    pub gc_snapshots: usize,
}

/// Append handle on a segment-rotated journal directory.
///
/// Owns the active segment's [`JournalWriter`] plus the rotation counters;
/// the *caller* (the service) decides when to check [`should_rotate`] and
/// supplies the encoded snapshot bytes, because only it can serialize
/// scheduler state at a record boundary.
///
/// [`should_rotate`]: SegmentedJournal::should_rotate
#[derive(Debug)]
pub struct SegmentedJournal {
    dir: PathBuf,
    policy: RotationPolicy,
    /// Index of the active segment.
    index: u64,
    writer: JournalWriter,
    /// Records in the active segment.
    segment_records: u64,
    /// Frame bytes (headers + payloads, not the magic) in the active segment.
    segment_bytes: u64,
    /// Records across every segment ever written (sealed + active), i.e. the
    /// journal's logical length.
    total_records: u64,
    /// Syncs this handle issued other than the active writer's own:
    /// directory syncs, snapshot-file syncs and the writers of segments it
    /// sealed.
    syncs: u64,
    /// Tail growths of the writers of segments this handle sealed.
    tail_growths: u64,
}

impl SegmentedJournal {
    /// Creates a fresh journal directory at `dir` (wiping any journal
    /// artefacts already there) and opens segment 0.
    pub fn create(dir: &Path, policy: RotationPolicy) -> Result<Self, JournalError> {
        if dir.is_file() {
            // Pre-rotation journals were single files; a stale one at the
            // directory path would shadow the new layout.
            std::fs::remove_file(dir).map_err(|e| io_err("create", dir, e))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
        for scan in [scan_dir(dir)?] {
            for index in scan.sealed {
                let p = segment_path(dir, index, true);
                std::fs::remove_file(&p).map_err(|e| io_err("create", &p, e))?;
            }
            if let Some(index) = scan.open {
                let p = segment_path(dir, index, false);
                std::fs::remove_file(&p).map_err(|e| io_err("create", &p, e))?;
            }
            for upto in scan.snapshots {
                let p = snapshot_path(dir, upto);
                std::fs::remove_file(&p).map_err(|e| io_err("create", &p, e))?;
            }
        }
        let writer = JournalWriter::create(&segment_path(dir, 0, false))?;
        let mut syncs = 0;
        sync_dir(dir, &mut syncs)?;
        Ok(SegmentedJournal {
            dir: dir.to_path_buf(),
            policy,
            index: 0,
            writer,
            segment_records: 0,
            segment_bytes: 0,
            total_records: 0,
            syncs,
            tail_growths: 0,
        })
    }

    /// Reopens a recovered journal directory for appending.
    ///
    /// `last_segment` is the final segment of the recovered chain (`None`
    /// when every segment was garbage-collected and only a snapshot
    /// remains); `valid_bytes` is its frame end as [`load`] parsed it
    /// (never its file length, which counts the zero tail) and
    /// `records_in_last` the records before it.  An active last segment is
    /// reopened at its frame end by [`JournalWriter::append_at`], which
    /// keeps an intact zero tail and cuts a torn one.  If the last segment
    /// is sealed (a crash hit between sealing and opening the successor) a
    /// fresh active segment opens after it — sealed segments are never
    /// reopened.
    pub fn open_after_recovery(
        dir: &Path,
        policy: RotationPolicy,
        last_segment: Option<(u64, bool)>,
        valid_bytes: u64,
        records_in_last: u64,
        total_records: u64,
    ) -> Result<Self, JournalError> {
        let mut syncs = 0;
        let (index, writer, segment_records, segment_bytes) = match last_segment {
            Some((index, false)) => {
                let path = segment_path(dir, index, false);
                // A valid prefix shorter than the magic means the segment
                // file was created but its header never hit the disk —
                // recreate it rather than appending after garbage.
                let writer = if valid_bytes < MAGIC.len() as u64 {
                    JournalWriter::create(&path)?
                } else {
                    JournalWriter::append_at(&path, valid_bytes)?
                };
                let bytes = valid_bytes.saturating_sub(MAGIC.len() as u64);
                (index, writer, records_in_last, bytes)
            }
            Some((index, true)) => {
                let writer = JournalWriter::create(&segment_path(dir, index + 1, false))?;
                sync_dir(dir, &mut syncs)?;
                (index + 1, writer, 0, 0)
            }
            None => {
                // Only snapshots survive: continue the chain after the
                // newest one (`total_records` already counts its records).
                let index = scan_dir(dir)?.snapshots.last().map_or(0, |&s| s + 1);
                let writer = JournalWriter::create(&segment_path(dir, index, false))?;
                sync_dir(dir, &mut syncs)?;
                (index, writer, 0, 0)
            }
        };
        Ok(SegmentedJournal {
            dir: dir.to_path_buf(),
            policy,
            index,
            writer,
            segment_records,
            segment_bytes,
            total_records,
            syncs,
            tail_growths: 0,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Index of the active segment.
    pub fn active_index(&self) -> u64 {
        self.index
    }

    /// Records across every segment ever written (the journal's logical
    /// length).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Makes every record appended so far durable: the one commit point of
    /// each call that appends (group commit).  Nothing appended may be
    /// acknowledged before this returns.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.writer.sync()
    }

    /// Syncs this handle has issued since it was created or reopened:
    /// segment `sync_data`, directory `sync_all` and snapshot-file syncs.  A
    /// pure count with no clock.
    pub fn syncs(&self) -> u64 {
        self.syncs + self.writer.syncs
    }

    /// Appends since this handle was created or reopened that ran past the
    /// active segment's zero tail and had to extend the file, so that the
    /// sync committing them also committed a size change.  A pure count
    /// with no clock.  Under the default [`RotationPolicy`] no segment
    /// outgrows its tail; only a segment reopened without one (drained, or
    /// written before the tail existed) counts a growth, at its first
    /// append.
    pub fn tail_growths(&self) -> u64 {
        self.tail_growths + self.writer.tail_growths
    }

    /// Cuts the active segment's zero tail and syncs once: the durability
    /// point of a drained stream, after which the segment holds exactly its
    /// frames.  A later append extends the file again.
    pub fn finish(&mut self) -> Result<(), JournalError> {
        self.writer.trim()?;
        self.writer.sync()
    }

    /// Writes one record's frame to the active segment, before the caller
    /// applies it, without a sync: it is durable once [`sync`] or a rotation
    /// returns.
    ///
    /// [`sync`]: SegmentedJournal::sync
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let frame_bytes = self.writer.append(record)?;
        self.segment_records += 1;
        self.segment_bytes += frame_bytes;
        self.total_records += 1;
        Ok(())
    }

    /// `true` once the active segment exceeds the rotation policy.  The
    /// caller checks this *after* the appended record has been applied to
    /// the scheduler, so a snapshot taken at rotation covers exactly the
    /// sealed prefix.
    pub fn should_rotate(&self) -> bool {
        self.segment_records >= self.policy.max_records
            || self.segment_bytes >= self.policy.max_bytes
    }

    /// Seals the active segment and opens the next one.
    ///
    /// The sequence — each step durable before the next — is
    ///
    /// 1. cut the active segment's zero tail and fsync it (committing any
    ///    record appended since the last [`sync`], so no seal or snapshot
    ///    covers an unsynced record), rename `.open` → `.strj` (atomic),
    ///    fsync the directory: the seal either happened or it did not;
    /// 2. if `snapshot` bytes were supplied: write them to
    ///    `snapshot-NNNNNN.tmp`, fsync, rename to `.strsnp`, fsync the
    ///    directory — a crash mid-write leaves only an ignored `.tmp`;
    /// 3. garbage-collect: keep the newest `retain_snapshots` snapshots,
    ///    delete older ones, and delete sealed segments at or below the
    ///    oldest *kept* snapshot (their records are all covered by it);
    /// 4. create the next active segment.
    ///
    /// `chaos` aborts the process at the named point — the deterministic
    /// stand-in for a crash landing inside the rotation window.
    ///
    /// [`sync`]: SegmentedJournal::sync
    pub fn rotate(
        &mut self,
        snapshot: Option<&[u8]>,
        retain_snapshots: usize,
        chaos: Option<RotationCrashPoint>,
    ) -> Result<RotationOutcome, JournalError> {
        let sealed = self.index;
        let open_path = segment_path(&self.dir, sealed, false);
        let sealed_path = segment_path(&self.dir, sealed, true);
        self.writer.trim()?;
        self.writer.sync()?;
        std::fs::rename(&open_path, &sealed_path).map_err(|e| io_err("seal", &open_path, e))?;
        sync_dir(&self.dir, &mut self.syncs)?;
        if chaos == Some(RotationCrashPoint::AfterSeal) {
            std::process::abort();
        }

        let snapshot_written = if let Some(bytes) = snapshot {
            let tmp = snapshot_tmp_path(&self.dir, sealed);
            let publish = snapshot_path(&self.dir, sealed);
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err("snapshot-write", &tmp, e))?;
            file.write_all(bytes)
                .map_err(|e| io_err("snapshot-write", &tmp, e))?;
            file.sync_data()
                .map_err(|e| io_err("snapshot-sync", &tmp, e))?;
            self.syncs += 1;
            drop(file);
            if chaos == Some(RotationCrashPoint::AfterSnapshotTemp) {
                std::process::abort();
            }
            std::fs::rename(&tmp, &publish).map_err(|e| io_err("snapshot-publish", &tmp, e))?;
            sync_dir(&self.dir, &mut self.syncs)?;
            if chaos == Some(RotationCrashPoint::AfterSnapshotRename) {
                std::process::abort();
            }
            true
        } else {
            false
        };

        let (gc_segments, gc_snapshots) = gc(&self.dir, retain_snapshots)?;

        self.index = sealed + 1;
        let next = JournalWriter::create(&segment_path(&self.dir, self.index, false))?;
        let retired = std::mem::replace(&mut self.writer, next);
        self.syncs += retired.syncs;
        self.tail_growths += retired.tail_growths;
        sync_dir(&self.dir, &mut self.syncs)?;
        self.segment_records = 0;
        self.segment_bytes = 0;
        Ok(RotationOutcome {
            sealed,
            snapshot_written,
            gc_segments,
            gc_snapshots,
        })
    }
}

/// Garbage-collects a journal directory: keeps the newest
/// `retain_snapshots` snapshots, deletes older snapshots, and deletes sealed
/// segments at or below the oldest kept snapshot (every record they hold is
/// covered by it).  With no snapshot on disk nothing is deleted.  Returns
/// `(segments deleted, snapshots deleted)`.
pub fn gc(dir: &Path, retain_snapshots: usize) -> Result<(usize, usize), JournalError> {
    let scan = scan_dir(dir)?;
    if scan.snapshots.is_empty() {
        return Ok((0, 0));
    }
    let retain = retain_snapshots.max(1);
    let kept_from = scan.snapshots.len().saturating_sub(retain);
    let oldest_kept = scan.snapshots[kept_from];
    let mut gc_snapshots = 0;
    for &upto in &scan.snapshots[..kept_from] {
        let p = snapshot_path(dir, upto);
        std::fs::remove_file(&p).map_err(|e| io_err("gc", &p, e))?;
        gc_snapshots += 1;
    }
    let mut gc_segments = 0;
    for &index in scan.sealed.iter().filter(|&&s| s <= oldest_kept) {
        let p = segment_path(dir, index, true);
        std::fs::remove_file(&p).map_err(|e| io_err("gc", &p, e))?;
        gc_segments += 1;
    }
    Ok((gc_segments, gc_snapshots))
}

/// Current wall clock in microseconds since the Unix epoch (0 if the clock
/// reads before the epoch).  Stamped into records for debugging; replay
/// never reads it.
pub fn wall_clock_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Copies journal directory `src` to `dst` with every wall-clock stamp in
/// every segment zeroed — the tool behind the "timestamps never influence
/// replay" pin.  Each copied segment holds exactly its frames (no zero
/// tail).  Snapshot files carry no wall clocks and are copied
/// byte-identical.  Fails on a torn segment (the caller should recover
/// first).
pub fn rewrite_zeroed(src: &Path, dst: &Path) -> Result<usize, JournalError> {
    let scan = scan_dir(src)?;
    std::fs::create_dir_all(dst).map_err(|e| io_err("rewrite-zeroed", dst, e))?;
    let mut total = 0;
    for &index in &scan.chain() {
        let sealed = scan.sealed.contains(&index);
        let segment = segment_path(src, index, sealed);
        let (records, tail) = load(&segment)?;
        if tail.torn_at().is_some() {
            return Err(JournalError::Io {
                op: "rewrite-zeroed",
                path: segment,
                message: "source segment has a torn tail; recover it first".into(),
            });
        }
        let mut writer = JournalWriter::create(&segment_path(dst, index, sealed))?;
        for record in &records {
            writer.append(&JournalRecord {
                wall_micros: 0,
                event: record.event,
            })?;
        }
        writer.trim()?;
        writer.sync()?;
        total += records.len();
    }
    for &upto in &scan.snapshots {
        std::fs::copy(snapshot_path(src, upto), snapshot_path(dst, upto))
            .map_err(|e| io_err("rewrite-zeroed", &snapshot_path(src, upto), e))?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{JournalEvent, SolveTier};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "stretch-serve-journal-{name}-{}",
            std::process::id()
        ));
        p
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord {
                wall_micros: 11,
                event: JournalEvent::Submitted {
                    seq: 0,
                    release: 0.0,
                    work: 120.0,
                    databank: 0,
                },
            },
            JournalRecord {
                wall_micros: 22,
                event: JournalEvent::Decision {
                    tier: SolveTier::Monge,
                },
            },
            JournalRecord {
                wall_micros: 33,
                event: JournalEvent::Submitted {
                    seq: 1,
                    release: 2.5,
                    work: 60.0,
                    databank: 1,
                },
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/PNG check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The CRC, one bit per step: the oracle the table-driven `crc32`
    /// must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_oracle_at_every_length() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // xorshift64: a fixed pseudo-random byte stream.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let bytes: Vec<u8> = (0..2048)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        for len in 0..2048 {
            // Slices starting at different offsets, so every length is
            // checked on distinct contents.
            let start = (len * 7) % (2048 - len);
            let slice = &bytes[start..start + len];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "length {len}");
        }
    }

    /// The frame of `record` exactly as [`JournalWriter::append`] writes it.
    fn frame_of(record: &JournalRecord) -> Vec<u8> {
        let payload = encode_payload(record);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Magic plus the frames of `records`: a segment with no zero tail.
    fn frames_of(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&frame_of(r));
        }
        bytes
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let (records, tail) = load(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(
            tail,
            TailStatus::Clean {
                valid_bytes: frames_of(&sample_records()).len() as u64
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_live_segment_is_magic_then_frames_then_zeros() {
        let path = tmp("layout");
        let mut w = JournalWriter::create(&path).unwrap();
        let tail_end = MAGIC.len() as u64 + ZERO_TAIL_LEN;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), tail_end);
        for r in sample_records() {
            w.append(&r).unwrap();
            // Appends overwrite the tail: the length a sync would commit
            // never changes.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), tail_end);
        }
        assert_eq!(w.tail_growths, 0);
        let frames = frames_of(&sample_records());
        assert_eq!(w.frame_end(), frames.len() as u64);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[..frames.len()], frames[..]);
        assert!(bytes[frames.len()..].iter().all(|&b| b == 0));
        let (records, tail) = load(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(
            tail,
            TailStatus::Clean {
                valid_bytes: frames.len() as u64
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_zero_header_followed_by_a_non_zero_byte_is_torn_at_that_frame() {
        let frames = frames_of(&sample_records());
        let path = Path::new("zero-header");
        // A zero header, then any non-zero byte anywhere after it.
        for at in [RECORD_HEADER_LEN, RECORD_HEADER_LEN + 40, 4096] {
            let mut bytes = frames.clone();
            bytes.resize(frames.len() + 8192, 0);
            bytes[frames.len() + at] = 0x01;
            let (records, tail) = parse(&bytes, path).unwrap();
            assert_eq!(
                records,
                sample_records(),
                "non-zero byte {at} past the frames"
            );
            assert_eq!(
                tail,
                TailStatus::Torn {
                    valid_bytes: frames.len() as u64,
                    reason: TornReason::MalformedPayload(PayloadError::Empty),
                },
                "non-zero byte {at} past the frames"
            );
        }
        // Short remainders: all zero is a clean end, anything else torn.
        for short in 1..RECORD_HEADER_LEN {
            let mut bytes = frames.clone();
            bytes.resize(frames.len() + short, 0);
            assert_eq!(
                parse(&bytes, path).unwrap().1,
                TailStatus::Clean {
                    valid_bytes: frames.len() as u64
                }
            );
            *bytes.last_mut().unwrap() = 0x80;
            assert_eq!(
                parse(&bytes, path).unwrap().1,
                TailStatus::Torn {
                    valid_bytes: frames.len() as u64,
                    reason: TornReason::TruncatedHeader,
                }
            );
        }
    }

    #[test]
    fn a_frame_torn_inside_the_tail_is_torn_at_its_start() {
        // A crash mid-append leaves a prefix of the frame over the zero
        // tail: every such prefix is torn at the frame's start, never read
        // as padding.  A prefix whose unwritten rest is zero already is
        // the whole frame, byte for byte.
        let records = sample_records();
        let prefix = frames_of(&records[..2]);
        let frame = frame_of(&records[2]);
        let mut torn = 0;
        for written in 1..frame.len() {
            let mut bytes = prefix.clone();
            bytes.extend_from_slice(&frame[..written]);
            bytes.resize(prefix.len() + ZERO_TAIL_LEN as usize, 0);
            let (parsed, tail) = parse(&bytes, Path::new("torn-in-tail")).unwrap();
            if frame[written..].iter().all(|&b| b == 0) {
                assert_eq!(parsed, records, "{written} bytes written");
                assert_eq!(
                    tail,
                    TailStatus::Clean {
                        valid_bytes: (prefix.len() + frame.len()) as u64
                    }
                );
                continue;
            }
            torn += 1;
            assert_eq!(parsed, records[..2], "{written} bytes written");
            assert_eq!(
                tail.torn_at(),
                Some(prefix.len() as u64),
                "{written} bytes written: {tail:?}"
            );
        }
        // The payload ends in the high bytes of `databank: 1`.
        assert_eq!(torn, 41);
    }

    #[test]
    fn rotate_and_finish_leave_exactly_magic_plus_frames() {
        let dir = tmp("trim");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = SegmentedJournal::create(
            &dir,
            RotationPolicy {
                max_records: 2,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();
        let records = sample_records();
        for r in &records {
            journal.append(r).unwrap();
            if journal.should_rotate() {
                journal.rotate(None, usize::MAX, None).unwrap();
            }
        }
        let sealed = std::fs::read(segment_path(&dir, 0, true)).unwrap();
        assert_eq!(sealed, frames_of(&records[..2]));
        // The active segment still carries its tail until the drain.
        let open = segment_path(&dir, 1, false);
        assert_eq!(
            std::fs::metadata(&open).unwrap().len(),
            MAGIC.len() as u64 + ZERO_TAIL_LEN
        );
        let syncs = journal.syncs();
        journal.finish().unwrap();
        assert_eq!(journal.syncs(), syncs + 1, "finish must sync once");
        assert_eq!(std::fs::read(&open).unwrap(), frames_of(&records[2..]));
        assert_eq!(journal.tail_growths(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_policy_segments_never_outgrow_the_tail() {
        // The largest frame is a `Submitted`; a segment holds at most
        // `max_records` frames, plus one more when a recovery reopens a
        // full segment before its rotation.
        let largest = sample_records()
            .iter()
            .map(|r| frame_of(r).len() as u64)
            .max()
            .unwrap();
        assert_eq!(largest, 49);
        let policy = RotationPolicy::default();
        assert!((policy.max_records + 1) * largest <= ZERO_TAIL_LEN);
    }

    #[test]
    fn a_tiny_tail_forces_growth_and_every_record_survives() {
        // A segment whose zero tail is 16 bytes (shorter than one frame):
        // the first append extends the file by a fresh tail, the later ones
        // overwrite it again.
        let dir = tmp("growth");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = segment_path(&dir, 0, false);
        let records = sample_records();
        let mut bytes = frames_of(&records[..1]);
        let frame_end = bytes.len() as u64;
        bytes.resize(bytes.len() + 16, 0);
        std::fs::write(&path, &bytes).unwrap();
        let reopen = |valid_bytes, in_segment| {
            SegmentedJournal::open_after_recovery(
                &dir,
                RotationPolicy::default(),
                Some((0, false)),
                valid_bytes,
                in_segment,
                in_segment,
            )
            .unwrap()
        };
        let mut journal = reopen(frame_end, 1);
        // Reopening kept the intact 16-byte tail.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), frame_end + 16);
        assert_eq!(journal.tail_growths(), 0);
        let mut stream = records[..1].to_vec();
        for r in records[1..].iter().cycle().take(40) {
            journal.append(r).unwrap();
            stream.push(*r);
        }
        assert_eq!(journal.tail_growths(), 1, "one growth covers the rest");
        drop(journal); // a crash: no sync, no trim
        let (loaded, tail) = load(&path).unwrap();
        assert_eq!(loaded, stream);
        let frames = frames_of(&stream).len() as u64;
        assert_eq!(
            tail,
            TailStatus::Clean {
                valid_bytes: frames
            }
        );
        // Recovery reopens at the parsed frame end, not at the file length.
        let mut journal = reopen(tail.valid_bytes(), stream.len() as u64);
        journal.append(&records[0]).unwrap();
        stream.push(records[0]);
        journal.finish().unwrap();
        let (loaded, tail) = load(&path).unwrap();
        assert_eq!(loaded, stream);
        assert_eq!(
            tail,
            TailStatus::Clean {
                valid_bytes: frames_of(&stream).len() as u64
            }
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), tail.valid_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_yields_valid_prefix_and_torn_tail() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-way through the last record's payload (the frame end,
        // not the file end: the file ends in the zero tail).
        let cut = w.frame_end() as usize - 5;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (records, tail) = load(&path).unwrap();
        assert_eq!(records, sample_records()[..2]);
        match tail {
            TailStatus::Torn { valid_bytes, .. } => {
                // Truncate + append must recover a writable journal.
                let mut w = JournalWriter::append_at(&path, valid_bytes).unwrap();
                w.append(&sample_records()[2]).unwrap();
                let (records, tail) = load(&path).unwrap();
                assert_eq!(records, sample_records());
                assert_eq!(
                    tail,
                    TailStatus::Clean {
                        valid_bytes: frames_of(&sample_records()).len() as u64
                    }
                );
            }
            TailStatus::Clean { .. } => panic!("expected torn tail"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_byte_is_a_checksum_mismatch_not_a_panic() {
        let path = tmp("corrupt");
        let mut w = JournalWriter::create(&path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Three bytes before the frame end: inside the last payload.
        let flip = w.frame_end() as usize - 3;
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, tail) = load(&path).unwrap();
        assert_eq!(records, sample_records()[..2]);
        assert!(matches!(
            tail,
            TailStatus::Torn {
                reason: TornReason::ChecksumMismatch,
                ..
            }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_file_is_a_typed_error() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(matches!(load(&path), Err(JournalError::BadMagic { .. })));
        std::fs::write(&path, b"STR").unwrap();
        assert!(matches!(load(&path), Err(JournalError::BadMagic { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_zeroed_strips_wall_clock_only() {
        let src = tmp("zero-src");
        let dst = tmp("zero-dst");
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
        let mut journal = SegmentedJournal::create(
            &src,
            RotationPolicy {
                max_records: 2,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();
        for r in sample_records() {
            journal.append(&r).unwrap();
            if journal.should_rotate() {
                journal.rotate(None, usize::MAX, None).unwrap();
            }
        }
        assert_eq!(rewrite_zeroed(&src, &dst).unwrap(), 3);
        let scan = scan_dir(&dst).unwrap();
        assert_eq!(scan.sealed, vec![0]);
        assert_eq!(scan.open, Some(1));
        let mut zeroed = Vec::new();
        for &index in &scan.chain() {
            let sealed = scan.sealed.contains(&index);
            let path = segment_path(&dst, index, sealed);
            let (records, tail) = load(&path).unwrap();
            // Copies hold exactly their frames.
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(tail, TailStatus::Clean { valid_bytes: len });
            zeroed.extend(records);
        }
        for (zeroed, original) in zeroed.iter().zip(sample_records()) {
            assert_eq!(zeroed.wall_micros, 0);
            assert_eq!(zeroed.event, original.event);
        }
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_scan_orders_the_chain() {
        let dir = tmp("rotate");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = SegmentedJournal::create(
            &dir,
            RotationPolicy {
                max_records: 1,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();
        for (i, r) in sample_records().iter().enumerate() {
            journal.append(r).unwrap();
            assert!(journal.should_rotate());
            let outcome = journal.rotate(None, usize::MAX, None).unwrap();
            assert_eq!(outcome.sealed, i as u64);
            assert!(!outcome.snapshot_written);
        }
        assert_eq!(journal.total_records(), 3);
        assert_eq!(journal.active_index(), 3);
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.sealed, vec![0, 1, 2]);
        assert_eq!(scan.open, Some(3));
        assert_eq!(scan.chain(), vec![0, 1, 2, 3]);
        assert!(scan.snapshots.is_empty());
        // Each sealed segment holds exactly one record, torn-free.
        for (&index, record) in scan.sealed.iter().zip(sample_records()) {
            let (records, tail) = load(&segment_path(&dir, index, true)).unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(
                tail,
                TailStatus::Clean {
                    valid_bytes: frames_of(&[record]).len() as u64
                }
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_keeps_newest_snapshots_and_covered_suffix_segments() {
        let dir = tmp("gc");
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = SegmentedJournal::create(
            &dir,
            RotationPolicy {
                max_records: 1,
                max_bytes: u64::MAX,
            },
        )
        .unwrap();
        let records = sample_records();
        // Three rotations, each publishing a snapshot, retaining 2.  Every
        // rotation deletes the sealed segments at or below the oldest *kept*
        // snapshot (their records are covered by it), so the just-sealed
        // segment dies immediately while two snapshots cover it; the third
        // rotation additionally expires snapshot 0.
        for (i, r) in records.iter().enumerate() {
            journal.append(r).unwrap();
            let outcome = journal.rotate(Some(b"snapshot-bytes"), 2, None).unwrap();
            assert!(outcome.snapshot_written);
            match i {
                0 => {
                    // Snapshot 0 covers segment 0: gone at once.
                    assert_eq!((outcome.gc_segments, outcome.gc_snapshots), (1, 0));
                }
                1 => {
                    // Oldest kept is still snapshot 0; nothing new to drop.
                    assert_eq!((outcome.gc_segments, outcome.gc_snapshots), (0, 0));
                }
                _ => {
                    // Snapshot 0 expires; segment 1 is covered by the new
                    // oldest kept (snapshot 1).
                    assert_eq!((outcome.gc_segments, outcome.gc_snapshots), (1, 1));
                }
            }
        }
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.snapshots, vec![1, 2]);
        assert_eq!(scan.sealed, vec![2]);
        assert_eq!(scan.open, Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_rejects_contradictory_layouts() {
        let dir = tmp("badlayout");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0, false), MAGIC).unwrap();
        std::fs::write(segment_path(&dir, 1, false), MAGIC).unwrap();
        assert!(matches!(
            scan_dir(&dir),
            Err(JournalError::BadLayout { .. })
        ));
        std::fs::remove_file(segment_path(&dir, 1, false)).unwrap();
        std::fs::write(segment_path(&dir, 0, true), MAGIC).unwrap();
        assert!(matches!(
            scan_dir(&dir),
            Err(JournalError::BadLayout { .. })
        ));
        // An active segment older than a sealed one is equally impossible.
        std::fs::remove_file(segment_path(&dir, 0, false)).unwrap();
        std::fs::write(segment_path(&dir, 1, true), MAGIC).unwrap();
        std::fs::write(segment_path(&dir, 0, false), MAGIC).unwrap();
        assert!(matches!(
            scan_dir(&dir),
            Err(JournalError::BadLayout { .. })
        ));
        // Abandoned `.tmp` snapshots and foreign files are ignored.
        std::fs::remove_file(segment_path(&dir, 0, false)).unwrap();
        std::fs::write(dir.join("snapshot-000001.tmp"), b"half-written").unwrap();
        std::fs::write(dir.join("README"), b"not a journal artefact").unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.sealed, vec![0, 1]);
        assert_eq!(scan.open, None);
        assert!(scan.snapshots.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
