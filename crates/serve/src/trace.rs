//! Recorded-trace format (`.strt`): portable, replayable serve runs.
//!
//! A *trace* captures what a live serve run actually scheduled — every
//! accepted submission, in arrival order, plus the completion times the
//! drained scheduler assigned — in a single CRC-framed, versioned file.
//! Traces turn any stream (synthetic, adversarial, production) into a
//! portable differential test case: [`replay`] re-runs the submissions
//! through the full [`ServeScheduler`] pipeline under any
//! [`SolverConfig`] cell and must land on bit-identical state, pinned by
//! the trace's sealed FNV-1a digest.
//!
//! ## File layout
//!
//! The format reuses the journal's framing discipline byte for byte
//! (`[u32 len][u32 crc32(payload)][payload]`, little-endian, floats as
//! exact bit patterns) under its own magic:
//!
//! ```text
//! STRTRC01
//! [frame: header    — version, recording solver cell, wall stamp]
//! [frame: submission]*      (seq, release, work, databank + wall stamp)
//! [frame: completion]*      (job id, completion time)
//! [frame: seal      — state digest, event counts]
//! ```
//!
//! A trace whose seal frame is present is *sealed*: the recording ran to
//! completion and the embedded digest is authoritative.  A torn tail
//! (truncated or checksum-corrupt suffix) is **not an error** — loading
//! recovers the exact valid prefix, mirroring the journal's torn-tail
//! semantics — but only sealed traces replay.
//!
//! ## Determinism contract for the recorder
//!
//! Wall-clock stamps are recorded through [`journal::wall_clock_micros`]
//! for debugging only and are **never** consulted on replay; replay state
//! is a pure function of the submission sequence and the replay
//! [`SolverConfig`].  Two replays of the same sealed trace under the same
//! cell are bit-identical, warm and cold replays are bit-identical, and a
//! replay under the recording backend reproduces the sealed digest
//! exactly.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use stretch_core::{SiteView, SolverConfig};
use stretch_flow::BackendKind;
use stretch_platform::Platform;

use crate::config::ServeConfig;
use crate::event::{validate_submission, SolveTier, Submission};
use crate::journal::{self, JournalError, MAX_PAYLOAD_LEN, RECORD_HEADER_LEN};
use crate::scheduler::{ServeScheduler, SolveFailure, EVENT_TOL};
use crate::service::{StretchServe, SubmitOutcome};

/// Magic prefix of a trace file; the trailing `01` is the on-disk
/// generation (frames additionally carry [`TRACE_VERSION`]).
pub const TRACE_MAGIC: [u8; 8] = *b"STRTRC01";

/// Version of the frame payload codec; bumped on any layout change.  A
/// trace recorded under a different version is rejected with
/// [`TraceError::UnsupportedVersion`], never misdecoded.
pub const TRACE_VERSION: u32 = 1;

/// Conventional file extension of recorded traces.
pub const TRACE_EXT: &str = "strt";

const TAG_HEADER: u8 = 1;
const TAG_SUBMISSION: u8 = 2;
const TAG_COMPLETION: u8 = 3;
const TAG_SEAL: u8 = 4;

const HEADER_LEN: usize = 15;
const SUBMISSION_LEN: usize = 41;
const COMPLETION_LEN: usize = 17;
const SEAL_LEN: usize = 25;

/// Why a trace file could not be used at all (torn tails are *not*
/// errors; see [`TraceTail`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The underlying file operation failed.
    Io {
        /// Operation that failed (`create`, `read`, `append`, `sync`).
        op: &'static str,
        /// File involved.
        path: PathBuf,
        /// OS error rendering.
        message: String,
    },
    /// The file does not start with [`TRACE_MAGIC`] — not a trace.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// The header frame declares a codec version this build cannot
    /// decode.
    UnsupportedVersion {
        /// Offending file.
        path: PathBuf,
        /// The version the header declares.
        found: u32,
    },
    /// The first decodable frame is not a header frame.
    MissingHeader {
        /// Offending file.
        path: PathBuf,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { op, path, message } => {
                write!(f, "trace {op} failed on {}: {message}", path.display())
            }
            TraceError::BadMagic { path } => {
                write!(f, "{} is not a stretch trace (bad magic)", path.display())
            }
            TraceError::UnsupportedVersion { path, found } => write!(
                f,
                "{} uses trace codec version {found}; this build reads version {TRACE_VERSION}",
                path.display()
            ),
            TraceError::MissingHeader { path } => {
                write!(f, "{} has no decodable header frame", path.display())
            }
        }
    }
}

impl std::error::Error for TraceError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> TraceError {
    TraceError::Io {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Why the tail of a trace was discarded (the trace analogue of the
/// journal's `TornReason`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTornReason {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained.
    TruncatedHeader,
    /// The length prefix is zero or exceeds [`MAX_PAYLOAD_LEN`].
    OversizedLength,
    /// The payload is shorter than its length prefix.
    TruncatedPayload,
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// The checksum matched but the payload does not decode, or a frame
    /// appears where the codec forbids it (after the seal, or a second
    /// header).
    MalformedFrame,
}

impl std::fmt::Display for TraceTornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceTornReason::TruncatedHeader => write!(f, "truncated frame header"),
            TraceTornReason::OversizedLength => write!(f, "oversized frame length"),
            TraceTornReason::TruncatedPayload => write!(f, "truncated frame payload"),
            TraceTornReason::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            TraceTornReason::MalformedFrame => write!(f, "malformed frame"),
        }
    }
}

/// Whether the trace file ends cleanly.  Mirrors the journal's
/// [`journal::TailStatus`]: a torn tail recovers the exact valid prefix
/// and is normal after a crash mid-recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceTail {
    /// Every byte belongs to a valid frame.
    Clean,
    /// The file ends in a torn frame.
    Torn {
        /// Bytes of the valid prefix (magic + whole frames).
        valid_bytes: u64,
        /// What was wrong with the first invalid frame.
        reason: TraceTornReason,
    },
}

/// The header frame: recording metadata, never consulted on replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceMeta {
    /// Codec version ([`TRACE_VERSION`] for traces this build writes).
    pub version: u32,
    /// Solver tier of the recording run's configured backend.
    pub tier: SolveTier,
    /// Whether the recording run warm-started its solvers.
    pub warm_start: bool,
    /// Wall-clock microseconds at recording start (debugging only).
    pub wall_micros: u64,
}

/// One accepted submission of the recorded run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSubmission {
    /// Wall-clock stamp at acceptance (debugging only).
    pub wall_micros: u64,
    /// Submission sequence number (dense, starting at 0).
    pub seq: u64,
    /// Release date.
    pub release: f64,
    /// Total work.
    pub work: f64,
    /// Target databank.
    pub databank: u64,
}

/// One completion of the recorded (drained) run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceCompletion {
    /// Job id (== submission sequence number).
    pub job: u64,
    /// Completion time.
    pub completion: f64,
}

/// The seal frame: the recorded run's final state, authoritative for
/// replay verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSeal {
    /// FNV-1a state digest of the drained recording scheduler.
    pub digest: u64,
    /// Submissions recorded.
    pub submissions: u64,
    /// Completions recorded.
    pub completions: u64,
}

/// A decoded trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Header metadata (`None` only when the tail tore inside the very
    /// first frame).
    pub meta: Option<TraceMeta>,
    /// Accepted submissions, in recorded order.
    pub submissions: Vec<TraceSubmission>,
    /// Completions, in recorded order.
    pub completions: Vec<TraceCompletion>,
    /// The seal, when the recording ran to completion.
    pub seal: Option<TraceSeal>,
}

impl Trace {
    /// `true` when the seal frame is present and its counts match the
    /// decoded events — the precondition for replay.
    pub fn is_sealed(&self) -> bool {
        match self.seal {
            Some(seal) => {
                seal.submissions == self.submissions.len() as u64
                    && seal.completions == self.completions.len() as u64
            }
            None => false,
        }
    }
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(v)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(v)
}

/// One decoded frame payload.
enum Frame {
    Header(TraceMeta),
    Submission(TraceSubmission),
    Completion(TraceCompletion),
    Seal(TraceSeal),
}

/// Decodes one CRC-verified payload; `None` on any layout violation (the
/// caller maps it to a torn tail, mirroring the journal's
/// `MalformedPayload`).
fn decode_frame(payload: &[u8]) -> Option<Frame> {
    let (&tag, body) = payload.split_first()?;
    match tag {
        TAG_HEADER if payload.len() == HEADER_LEN => {
            let version = read_u32(body, 0);
            let tier = SolveTier::from_code(body[4])?;
            let warm_start = match body[5] {
                0 => false,
                1 => true,
                _ => return None,
            };
            Some(Frame::Header(TraceMeta {
                version,
                tier,
                warm_start,
                wall_micros: read_u64(body, 6),
            }))
        }
        TAG_SUBMISSION if payload.len() == SUBMISSION_LEN => {
            Some(Frame::Submission(TraceSubmission {
                wall_micros: read_u64(body, 0),
                seq: read_u64(body, 8),
                release: f64::from_bits(read_u64(body, 16)),
                work: f64::from_bits(read_u64(body, 24)),
                databank: read_u64(body, 32),
            }))
        }
        TAG_COMPLETION if payload.len() == COMPLETION_LEN => {
            Some(Frame::Completion(TraceCompletion {
                job: read_u64(body, 0),
                completion: f64::from_bits(read_u64(body, 8)),
            }))
        }
        TAG_SEAL if payload.len() == SEAL_LEN => Some(Frame::Seal(TraceSeal {
            digest: read_u64(body, 0),
            submissions: read_u64(body, 8),
            completions: read_u64(body, 16),
        })),
        _ => None,
    }
}

/// Parses trace bytes.  Torn tails recover the valid prefix; only a
/// missing magic, an undecodable first frame or a version mismatch are
/// errors.
pub fn parse(bytes: &[u8], path: &Path) -> Result<(Trace, TraceTail), TraceError> {
    if bytes.len() < TRACE_MAGIC.len() || bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
        return Err(TraceError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let mut trace = Trace {
        meta: None,
        submissions: Vec::new(),
        completions: Vec::new(),
        seal: None,
    };
    let mut offset = TRACE_MAGIC.len();
    let mut first = true;
    let torn = |offset: usize, reason: TraceTornReason| TraceTail::Torn {
        valid_bytes: offset as u64,
        reason,
    };
    let tail = loop {
        if offset == bytes.len() {
            break TraceTail::Clean;
        }
        if trace.seal.is_some() {
            // Frames after the seal can only be an interrupted rewrite;
            // the sealed prefix is the trace.
            break torn(offset, TraceTornReason::MalformedFrame);
        }
        if bytes.len() - offset < RECORD_HEADER_LEN {
            break torn(offset, TraceTornReason::TruncatedHeader);
        }
        let len = read_u32(bytes, offset);
        if len == 0 || len > MAX_PAYLOAD_LEN {
            break torn(offset, TraceTornReason::OversizedLength);
        }
        let len = len as usize;
        let start = offset + RECORD_HEADER_LEN;
        if bytes.len() - start < len {
            break torn(offset, TraceTornReason::TruncatedPayload);
        }
        let payload = &bytes[start..start + len];
        if journal::crc32(payload) != read_u32(bytes, offset + 4) {
            break torn(offset, TraceTornReason::ChecksumMismatch);
        }
        let Some(frame) = decode_frame(payload) else {
            break torn(offset, TraceTornReason::MalformedFrame);
        };
        match frame {
            Frame::Header(meta) if first => {
                if meta.version != TRACE_VERSION {
                    return Err(TraceError::UnsupportedVersion {
                        path: path.to_path_buf(),
                        found: meta.version,
                    });
                }
                trace.meta = Some(meta);
            }
            // A header frame may only open the file; anything else first,
            // or a second header, is a foreign or spliced frame.
            Frame::Header(_) => break torn(offset, TraceTornReason::MalformedFrame),
            _ if first => {
                return Err(TraceError::MissingHeader {
                    path: path.to_path_buf(),
                })
            }
            Frame::Submission(s) => trace.submissions.push(s),
            Frame::Completion(c) => trace.completions.push(c),
            Frame::Seal(seal) => trace.seal = Some(seal),
        }
        first = false;
        offset = start + len;
    };
    Ok((trace, tail))
}

/// Loads and parses a trace file.
pub fn load(path: &Path) -> Result<(Trace, TraceTail), TraceError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read", path, e))?;
    parse(&bytes, path)
}

/// Streaming trace writer.  Frames are appended in recording order; the
/// trace is usable for replay only after [`TraceRecorder::seal`].
pub struct TraceRecorder {
    file: File,
    path: PathBuf,
    submissions: u64,
    completions: u64,
}

impl TraceRecorder {
    /// Creates (truncating) a trace at `path`, writing the magic and the
    /// header frame for the given recording solver cell.
    pub fn create(path: &Path, solver: SolverConfig) -> Result<Self, TraceError> {
        let mut file = File::create(path).map_err(|e| io_err("create", path, e))?;
        file.write_all(&TRACE_MAGIC)
            .map_err(|e| io_err("create", path, e))?;
        let mut recorder = TraceRecorder {
            file,
            path: path.to_path_buf(),
            submissions: 0,
            completions: 0,
        };
        let mut payload = [0u8; HEADER_LEN];
        payload[0] = TAG_HEADER;
        payload[1..5].copy_from_slice(&TRACE_VERSION.to_le_bytes());
        payload[5] = SolveTier::of_backend(solver.backend).code();
        payload[6] = u8::from(solver.warm_start);
        payload[7..15].copy_from_slice(&journal::wall_clock_micros().to_le_bytes());
        recorder.append(&payload)?;
        Ok(recorder)
    }

    fn append(&mut self, payload: &[u8]) -> Result<(), TraceError> {
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&journal::crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", &self.path, e))
    }

    /// Records one accepted submission (stamped with the wall clock for
    /// debugging; replay never reads the stamp).
    pub fn record_submission(
        &mut self,
        seq: u64,
        release: f64,
        work: f64,
        databank: u64,
    ) -> Result<(), TraceError> {
        let mut payload = [0u8; SUBMISSION_LEN];
        payload[0] = TAG_SUBMISSION;
        payload[1..9].copy_from_slice(&journal::wall_clock_micros().to_le_bytes());
        payload[9..17].copy_from_slice(&seq.to_le_bytes());
        payload[17..25].copy_from_slice(&release.to_bits().to_le_bytes());
        payload[25..33].copy_from_slice(&work.to_bits().to_le_bytes());
        payload[33..41].copy_from_slice(&databank.to_le_bytes());
        self.append(&payload)?;
        self.submissions += 1;
        Ok(())
    }

    /// Records one completion of the drained run.
    pub fn record_completion(&mut self, job: u64, completion: f64) -> Result<(), TraceError> {
        let mut payload = [0u8; COMPLETION_LEN];
        payload[0] = TAG_COMPLETION;
        payload[1..9].copy_from_slice(&job.to_le_bytes());
        payload[9..17].copy_from_slice(&completion.to_bits().to_le_bytes());
        self.append(&payload)?;
        self.completions += 1;
        Ok(())
    }

    /// Writes the seal frame with the drained scheduler's state digest
    /// and syncs the file; the trace is complete after this returns.
    pub fn seal(mut self, digest: u64) -> Result<(), TraceError> {
        let mut payload = [0u8; SEAL_LEN];
        payload[0] = TAG_SEAL;
        payload[1..9].copy_from_slice(&digest.to_le_bytes());
        payload[9..17].copy_from_slice(&self.submissions.to_le_bytes());
        payload[17..25].copy_from_slice(&self.completions.to_le_bytes());
        self.append(&payload)?;
        self.file
            .sync_data()
            .map_err(|e| io_err("sync", &self.path, e))
    }
}

/// Why recording a run failed.
#[derive(Debug)]
pub enum RecordError {
    /// The trace file could not be written.
    Trace(TraceError),
    /// The serve run's journal could not be written.
    Journal(JournalError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Trace(e) => write!(f, "{e}"),
            RecordError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<TraceError> for RecordError {
    fn from(e: TraceError) -> Self {
        RecordError::Trace(e)
    }
}

impl From<JournalError> for RecordError {
    fn from(e: JournalError) -> Self {
        RecordError::Journal(e)
    }
}

/// Summary of a recorded run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecordedRun {
    /// Submissions accepted (and recorded).
    pub accepted: u64,
    /// Submissions rejected into the DLQ (not recorded).
    pub rejected: u64,
    /// State digest of the drained recording scheduler (also sealed into
    /// the trace).
    pub digest: u64,
}

/// Records a full serve run: feeds `submissions` through a fresh
/// [`StretchServe`] journaling into `journal_dir`, writes every accepted
/// submission and every completion into a sealed trace at `trace_path`.
pub fn record_run(
    trace_path: &Path,
    journal_dir: &Path,
    platform: Platform,
    config: ServeConfig,
    submissions: &[Submission],
) -> Result<RecordedRun, RecordError> {
    let mut recorder = TraceRecorder::create(trace_path, config.solver)?;
    let mut serve = StretchServe::create(journal_dir, platform, config)?;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for submission in submissions {
        match serve.submit(*submission)? {
            SubmitOutcome::Accepted(id) => {
                recorder.record_submission(
                    id,
                    submission.release,
                    submission.work,
                    submission.databank as u64,
                )?;
                accepted += 1;
            }
            SubmitOutcome::Rejected(_) => rejected += 1,
        }
    }
    serve.finish()?;
    for (job, &completion) in serve.completions().iter().enumerate() {
        recorder.record_completion(job as u64, completion)?;
    }
    let digest = serve.state_digest();
    recorder.seal(digest)?;
    Ok(RecordedRun {
        accepted,
        rejected,
        digest,
    })
}

/// Why a trace did not replay.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The trace is not sealed (torn recording, or counts inconsistent
    /// with the seal) — there is no authoritative state to verify
    /// against.
    Unsealed,
    /// A recorded submission cannot be applied at its position.
    Record {
        /// Index into the trace's submission sequence.
        index: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Unsealed => write!(f, "trace is not sealed; refusing to replay"),
            ReplayError::Record { index, reason } => {
                write!(f, "trace submission {index} does not replay: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What one replay produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    /// FNV-1a state digest of the drained replay scheduler.
    pub digest: u64,
    /// Completion time per job.
    pub completions: Vec<f64>,
    /// Decisions taken during the replay.
    pub decisions: u64,
    /// `true` when `digest` equals the trace's sealed digest *and* every
    /// completion matches the recorded one bit for bit.  Expected to hold
    /// when replaying under the recording backend; other backends may
    /// legitimately pick different degenerate optima.
    pub matches_recorded: bool,
}

/// Replays a sealed trace through the full scheduler pipeline under
/// `solver`, deterministically: each due decision solves with the
/// configured backend's tier and, if that tier fails, the EDF shed tier
/// (no wall-clock budgets — replay has no timing policy).
pub fn replay(
    trace: &Trace,
    platform: &Platform,
    solver: SolverConfig,
) -> Result<ReplayOutcome, ReplayError> {
    if !trace.is_sealed() {
        return Err(ReplayError::Unsealed);
    }
    let mut scheduler = ServeScheduler::new(
        SiteView::of_platform(platform),
        solver.warm_start,
        solver.incremental,
    );
    let tier = SolveTier::of_backend(solver.backend);
    let decide = |scheduler: &mut ServeScheduler| {
        match scheduler.try_solve(tier) {
            Ok(prepared) => scheduler.install(prepared),
            Err(SolveFailure::NothingPending) => {}
            Err(_) => {
                // Same shape as the live degradation ladder's last
                // resort: EDF only fails when nothing is pending.
                if let Ok(prepared) = scheduler.try_solve(SolveTier::Edf) {
                    scheduler.install(prepared);
                }
            }
        }
    };
    for (index, s) in trace.submissions.iter().enumerate() {
        if s.seq != index as u64 {
            return Err(ReplayError::Record {
                index,
                reason: format!("expected sequence {index}, found {}", s.seq),
            });
        }
        let databank = usize::try_from(s.databank).map_err(|_| ReplayError::Record {
            index,
            reason: format!("databank id {} overflows usize", s.databank),
        })?;
        let submission = Submission::new(s.release, s.work, databank);
        validate_submission(&submission, platform).map_err(|e| ReplayError::Record {
            index,
            reason: format!("recorded submission invalid: {e}"),
        })?;
        if scheduler.started() {
            let frontier = scheduler.stage_time();
            if s.release < frontier - EVENT_TOL {
                return Err(ReplayError::Record {
                    index,
                    reason: format!("release {} behind the frontier {frontier}", s.release),
                });
            }
            if s.release > frontier + EVENT_TOL {
                if scheduler.needs_decision() {
                    decide(&mut scheduler);
                }
                scheduler.advance(s.release);
            }
        }
        scheduler.stage(s.release, s.work, databank);
    }
    if scheduler.needs_decision() {
        decide(&mut scheduler);
    }
    scheduler.advance(f64::INFINITY);
    let digest = scheduler.state_digest();
    let completions = scheduler.completions().to_vec();
    let matches_recorded = match trace.seal {
        Some(seal) => {
            seal.digest == digest
                && completions.len() == trace.completions.len()
                && trace.completions.iter().enumerate().all(|(job, c)| {
                    c.job == job as u64
                        && completions
                            .get(job)
                            .is_some_and(|r| r.to_bits() == c.completion.to_bits())
                })
        }
        None => false,
    };
    Ok(ReplayOutcome {
        digest,
        completions,
        decisions: scheduler.decisions(),
        matches_recorded,
    })
}

/// The full replay matrix of a sealed trace: every backend × warm/cold.
/// Returns one `(config, outcome)` row per cell, in
/// [`BackendKind::ALL`] × `[warm, cold]` order.
pub fn replay_matrix(
    trace: &Trace,
    platform: &Platform,
) -> Result<Vec<(SolverConfig, ReplayOutcome)>, ReplayError> {
    let mut rows = Vec::with_capacity(BackendKind::ALL.len() * 2);
    for backend in BackendKind::ALL {
        for warm_start in [true, false] {
            let config = SolverConfig {
                backend,
                warm_start,
                incremental: true,
            };
            let outcome = replay(trace, platform, config)?;
            rows.push((config, outcome));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stretch_platform::fixtures::small_platform;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("stretch-trace-mod-{name}-{}", std::process::id()));
        p
    }

    fn reference_stream() -> Vec<Submission> {
        [
            (0.0, 300.0, 0),
            (0.0, 60.0, 1),
            (2.5, 120.0, 0),
            (4.0, 30.0, 1),
            (6.0, 90.0, 0),
            (7.5, 45.0, 1),
        ]
        .into_iter()
        .map(|(release, work, databank)| Submission::new(release, work, databank))
        .collect()
    }

    #[test]
    fn record_replay_round_trip_reproduces_the_digest() {
        let trace_path = tmp("roundtrip.strt");
        let journal_dir = tmp("roundtrip-journal");
        let run = record_run(
            &trace_path,
            &journal_dir,
            small_platform(),
            ServeConfig::default(),
            &reference_stream(),
        )
        .unwrap();
        assert_eq!(run.accepted, 6);
        assert_eq!(run.rejected, 0);
        let (trace, tail) = load(&trace_path).unwrap();
        assert_eq!(tail, TraceTail::Clean);
        assert!(trace.is_sealed());
        assert_eq!(trace.submissions.len(), 6);
        assert_eq!(trace.completions.len(), 6);
        let outcome = replay(&trace, &small_platform(), SolverConfig::default()).unwrap();
        assert_eq!(outcome.digest, run.digest);
        assert!(outcome.matches_recorded);
        std::fs::remove_file(&trace_path).unwrap();
        std::fs::remove_dir_all(&journal_dir).unwrap();
    }

    #[test]
    fn unsealed_traces_refuse_to_replay() {
        let path = tmp("unsealed.strt");
        let mut recorder = TraceRecorder::create(&path, SolverConfig::default()).unwrap();
        recorder.record_submission(0, 0.0, 60.0, 0).unwrap();
        drop(recorder);
        let (trace, tail) = load(&path).unwrap();
        assert_eq!(tail, TraceTail::Clean);
        assert!(!trace.is_sealed());
        assert_eq!(
            replay(&trace, &small_platform(), SolverConfig::default()),
            Err(ReplayError::Unsealed)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected_with_bad_magic() {
        let path = tmp("foreign.strt");
        std::fs::write(&path, b"STRJRN01 definitely not a trace").unwrap();
        assert!(matches!(load(&path), Err(TraceError::BadMagic { .. })));
        std::fs::remove_file(&path).unwrap();
    }
}
