//! The long-lived serve loop: validation → dead-letter queue, write-ahead
//! journaling, the degradation ladder with retry/backoff and a circuit
//! breaker, and crash recovery by journal replay.
//!
//! ## The write-ahead contract
//!
//! Every state transition of the [`ServeScheduler`] is *written* to the
//! journal before it is applied, and is *durable* before the public call
//! that caused it returns:
//!
//! * a decision is written as [`JournalEvent::Decision`] (the tier the
//!   ladder settled on) before [`ServeScheduler::install`];
//! * an accepted submission is written as [`JournalEvent::Submitted`]
//!   before [`ServeScheduler::stage`] — and any decision/advance *caused* by
//!   the submission (the frontier moving to its release date) happens, and
//!   is written, first, so the journal order is exactly the transition
//!   order;
//! * the drain to an infinite horizon is written as
//!   [`JournalEvent::Drained`] right *after* it is applied, because the
//!   record carries the drained state's digest; nothing is acknowledged in
//!   between, and it is the journal's last record;
//! * each public call that appends has exactly one durability point (group
//!   commit): [`StretchServe::submit`] syncs once after its `Submitted`
//!   frame, which also commits the forced `Decision` frame before it, and
//!   [`StretchServe::finish`] syncs once after its `Drained` frame, which
//!   also commits the drain decision before it.  A rotation syncs the
//!   active segment before it seals it.  The frames overwrite the active
//!   segment's pre-written zero tail, so these syncs flush data only (see
//!   [`journal`]).
//!
//! A crash of the process keeps every written frame.  A power loss inside a
//! call keeps some prefix of that call's frames, possibly none; either way
//! only the unacknowledged call is lost, and recovery replays whatever byte
//! prefix survived.
//!
//! Replay applies the same transitions in the same order, so a recovered
//! process reaches bit-identical scheduler state; a journal that ends in
//! its `Drained` record recovers as a finished service whose digest is
//! checked against the record's.  Timing, fallbacks and
//! circuit breaking are *live-only policy*: their outcome (which tier
//! decided) is journaled, the wall clock never is consulted on replay.
//!
//! ## The degradation ladder
//!
//! A decision tries the solver tiers from the configured backend's rung
//! downwards (simplex → primal-dual), each rung with an escalating
//! (`retry_backoff`×) time budget.  A rung that fails (infeasible /
//! certification failure / injected chaos) or overruns its budget falls
//! through to the next; the last rung keeps its result even when late
//! (a late decision beats none).  When every rung fails, or when the circuit
//! breaker is open after `breaker_threshold` consecutive over-budget
//! decisions, the EDF shed tier — plain list scheduling by virtual
//! deadlines, no flow solve — takes the decision instead.
//!
//! ## Bounded-replay recovery
//!
//! The journal is a *directory* of rotated segments plus scheduler-state
//! snapshots (see [`journal`] and [`snapshot`]).  After
//! each applied record the service checks the [`journal::RotationPolicy`] threshold;
//! when due, the active segment is sealed, a snapshot of the exact
//! post-record state may be published (every `snapshot_every`th seal), and
//! sealed segments wholly covered by the oldest retained snapshot are
//! garbage-collected — so recovery work and disk stay bounded however long
//! the stream runs.
//!
//! [`StretchServe::recover`] walks a candidate ladder:
//!
//! 1. **newest snapshot first** — decode it (CRC), rebuild the scheduler,
//!    recompute the FNV-1a state digest against the embedded one, and
//!    replay only the segment suffix past the snapshot's record count;
//! 2. any failure (unreadable/corrupt snapshot, digest mismatch, missing
//!    suffix segments, a suffix record that does not replay) **rejects the
//!    candidate with a typed [`SnapshotRejectReason`]** and recovery falls
//!    back to the next-older snapshot;
//! 3. the final candidate is **full replay** from segment 0 — exactly the
//!    pre-rotation recovery path — available as long as segment 0 has not
//!    been garbage-collected.
//!
//! Whatever candidate wins, the recovered state is bit-identical to the
//! uninterrupted run (the same digest-compare contract as before; extended
//! by the rotation tests to every crash point of the seal → snapshot →
//! reopen sequence).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stretch_core::SiteView;
use stretch_platform::Platform;

use crate::config::ServeConfig;
use crate::dlq::{DeadLetter, DeadLetterQueue};
use crate::event::{
    validate_submission, JournalEvent, JournalRecord, RejectReason, SolveTier, Submission,
};
use crate::journal::{self, JournalError, SegmentScan, SegmentedJournal, TailStatus, TornReason};
use crate::metrics::ServeMetrics;
use crate::scheduler::{PreparedDecision, ServeScheduler, SolveFailure, EVENT_TOL};
use crate::snapshot::{self, ServiceCounters, Snapshot, SnapshotError};

/// What [`StretchServe::submit`] did with a submission.  Rejection is normal
/// flow (the letter is parked in the DLQ), not an error; the `Err` channel
/// of `submit` is reserved for journal I/O failures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitOutcome {
    /// Validated, journaled and staged; carries the assigned job id.
    Accepted(u64),
    /// Dead-lettered with this reason.
    Rejected(RejectReason),
}

impl SubmitOutcome {
    /// `true` for [`SubmitOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted(_))
    }
}

/// Why a snapshot candidate was rejected during recovery — one entry per
/// skipped snapshot in [`RecoveryReport::rejected_snapshots`].
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotRejectReason {
    /// The snapshot file could not be read or decoded (I/O, bad magic,
    /// truncation, checksum mismatch, malformed payload).
    Decode(SnapshotError),
    /// The snapshot decoded, but the scheduler rebuilt from it does not
    /// reproduce the embedded FNV-1a state digest — the state is not the
    /// one it claims to be (checksum collision or encoder/decoder skew).
    DigestMismatch {
        /// The digest embedded in the snapshot.
        expected: u64,
        /// The digest of the rebuilt scheduler.
        actual: u64,
    },
    /// The segment suffix past the snapshot has a gap: segment `needed` is
    /// neither on disk nor covered by the snapshot.
    MissingSegments {
        /// The first missing segment index.
        needed: u64,
    },
    /// A mid-chain sealed segment of the suffix is torn or unreadable —
    /// sealed data is fsynced before the rename, so this is disk
    /// corruption, not a crash artefact.
    Segment {
        /// The offending segment index.
        segment: u64,
        /// What was wrong.
        reason: String,
    },
    /// A suffix record does not replay on top of the restored state.
    Replay {
        /// Journal-global index of the offending record.
        record: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotRejectReason::Decode(e) => write!(f, "{e}"),
            SnapshotRejectReason::DigestMismatch { expected, actual } => write!(
                f,
                "state digest mismatch: snapshot claims {expected:#018x}, rebuilt state is {actual:#018x}"
            ),
            SnapshotRejectReason::MissingSegments { needed } => {
                write!(f, "segment {needed} of the replay suffix is missing")
            }
            SnapshotRejectReason::Segment { segment, reason } => {
                write!(f, "sealed segment {segment} is corrupt: {reason}")
            }
            SnapshotRejectReason::Replay { record, reason } => {
                write!(f, "record {record} does not replay: {reason}")
            }
        }
    }
}

/// Why recovery failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoverError {
    /// The journal directory could not be read or is not a journal.
    Journal(JournalError),
    /// The journal parsed but its record sequence is semantically impossible
    /// (bad sequence number, out-of-order releases, a decision that does not
    /// replay) — checksum-valid garbage or a foreign file.
    Corrupt {
        /// Journal-global index of the offending record.
        record: usize,
        /// What was wrong.
        reason: String,
    },
    /// Every candidate failed: each snapshot was rejected for the paired
    /// typed reason, and full replay was impossible (segment 0 has been
    /// garbage-collected — its records exist only inside the snapshots).
    Unrecoverable {
        /// The rejected snapshots, newest first.
        rejected: Vec<(u64, SnapshotRejectReason)>,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Journal(e) => write!(f, "{e}"),
            RecoverError::Corrupt { record, reason } => {
                write!(f, "journal record {record} is corrupt: {reason}")
            }
            RecoverError::Unrecoverable { rejected } => {
                write!(
                    f,
                    "no recovery candidate survived ({} snapshots rejected",
                    rejected.len()
                )?;
                for (upto, reason) in rejected {
                    write!(f, "; snapshot {upto}: {reason}")?;
                }
                write!(f, ") and segment 0 is garbage-collected")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<JournalError> for RecoverError {
    fn from(e: JournalError) -> Self {
        RecoverError::Journal(e)
    }
}

/// Summary of a successful recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Records accounted for in total: those covered by the snapshot (if
    /// one was used) plus those replayed from the segment suffix.
    pub records: usize,
    /// Submissions among them (total, snapshot + replayed).
    pub submissions: u64,
    /// Decisions among them (total, snapshot + replayed).
    pub decisions: u64,
    /// Sealed-segment index of the snapshot recovery restored from
    /// (`None` = full replay).
    pub snapshot: Option<u64>,
    /// Records covered by that snapshot (0 for full replay).
    pub snapshot_records: u64,
    /// Records actually replayed from segments.
    pub replayed_records: usize,
    /// Snapshots rejected before the winning candidate, newest first, each
    /// with its typed reason.
    pub rejected_snapshots: Vec<(u64, SnapshotRejectReason)>,
    /// Why the tail of the last segment was torn, when it was.  A zero
    /// tail past the last whole frame is not torn.
    pub torn: Option<TornReason>,
    /// Bytes past the valid prefix cut before reopening for append: the
    /// torn record and any zero tail after it (0 when the tail is clean).
    pub truncated_bytes: u64,
    /// Sealed segments garbage-collected after recovery.
    pub gc_segments: usize,
    /// Snapshots garbage-collected after recovery.
    pub gc_snapshots: usize,
}

/// What one replayed record was.
enum ReplayedEvent {
    Submission,
    Decision(SolveTier),
    Drained,
}

/// Replays one journaled submission `(seq, release, work, databank)`: checks
/// its sequence number against `seq`, its databank width, its validity and
/// its release against the frontier, moves the frontier to its release and
/// stages it.  A decision due when the frontier moves goes to `due`:
/// recovery refuses it, since the journal holds every decision as a record
/// of its own, and trace replay takes it on the replayed solver cell.  The
/// error is just the reason string — the caller knows the record's index.
pub(crate) fn replay_submission(
    platform: &Platform,
    scheduler: &mut ServeScheduler,
    seq: &mut u64,
    (s, release, work, databank): (u64, f64, f64, u64),
    due: impl FnOnce(&mut ServeScheduler) -> Result<(), String>,
) -> Result<(), String> {
    if s != *seq {
        return Err(format!("expected sequence {}, found {s}", *seq));
    }
    let databank =
        usize::try_from(databank).map_err(|_| format!("databank id {databank} overflows usize"))?;
    let submission = Submission::new(release, work, databank);
    validate_submission(&submission, platform)
        .map_err(|e| format!("journaled submission invalid: {e}"))?;
    if scheduler.started() {
        let frontier = scheduler.stage_time();
        if release < frontier - EVENT_TOL
            || (scheduler.has_active() && release <= frontier + EVENT_TOL)
        {
            return Err(format!(
                "release {release} behind the replayed frontier {frontier}"
            ));
        }
        if release > frontier + EVENT_TOL {
            if scheduler.needs_decision() {
                due(scheduler)?;
            }
            scheduler.advance(release);
        }
    }
    scheduler.stage(release, work, databank);
    *seq += 1;
    Ok(())
}

/// Applies one journaled event to a replaying scheduler.  The error is just
/// the reason string — the caller knows the record's journal-global index.
fn replay_one(
    platform: &Platform,
    scheduler: &mut ServeScheduler,
    seq: &mut u64,
    event: &JournalEvent,
) -> Result<ReplayedEvent, String> {
    match *event {
        JournalEvent::Submitted {
            seq: s,
            release,
            work,
            databank,
        } => {
            replay_submission(
                platform,
                scheduler,
                seq,
                (s, release, work, databank),
                |_| Err("frontier moves with a decision due but no decision record".into()),
            )?;
            Ok(ReplayedEvent::Submission)
        }
        JournalEvent::Decision { tier } => {
            if !scheduler.needs_decision() {
                return Err(format!(
                    "{} decision record but no decision is due",
                    tier.name()
                ));
            }
            match scheduler.try_solve(tier) {
                Ok(prepared) => scheduler.install(prepared),
                Err(e) => {
                    return Err(format!(
                        "journaled {} decision does not replay: {e}",
                        tier.name()
                    ))
                }
            }
            Ok(ReplayedEvent::Decision(tier))
        }
        JournalEvent::Drained { digest, .. } => {
            if scheduler.needs_decision() {
                return Err("drain record with a decision due but no decision record".into());
            }
            scheduler.advance(f64::INFINITY);
            // The digest covers the job and decision counts the record
            // also carries.
            let actual = scheduler.state_digest();
            if actual != digest {
                return Err(format!(
                    "drain record claims digest {digest:#018x}, the drained replay is {actual:#018x}"
                ));
            }
            Ok(ReplayedEvent::Drained)
        }
    }
}

/// What replaying a run of segments accumulated.
struct SegmentReplay {
    /// Submissions replayed (suffix only, not the snapshot's).
    submissions: u64,
    /// Decisions replayed.
    decisions: u64,
    /// Replayed decisions per tier.
    decisions_by_tier: [u64; 4],
    /// Records replayed.
    replayed: usize,
    /// Torn-tail reason of the last segment, when its tail was torn.
    torn: Option<TornReason>,
    /// Bytes past the last segment's valid prefix, when its tail was torn.
    truncated_bytes: u64,
    /// The final segment's frame end as the parser found it (where reopen
    /// appends), never its file length.
    last_valid_bytes: u64,
    /// Records in the final segment.
    last_records: u64,
    /// `true` once a `Drained` record replayed; no record may follow it.
    drained: bool,
}

/// Why a segment suffix did not replay — mapped by the caller to
/// [`RecoverError`] (full replay) or [`SnapshotRejectReason`] (candidate).
enum ReplayError {
    /// A segment could not be loaded at all.
    Segment { segment: u64, error: JournalError },
    /// A *sealed* segment has a torn tail: sealed data is fsynced before the
    /// rename, so this is disk corruption, not a crash artefact.
    SealedTorn {
        segment: u64,
        reason: TornReason,
        record: usize,
    },
    /// A record does not replay (journal-global index).
    Record { record: usize, reason: String },
}

/// Replays `segments` (in chain order) on top of `scheduler`, which already
/// holds the state of the first `base_records` records.  A torn tail is
/// tolerated only on the last segment when it is the active (`.open`) one;
/// `tolerate_empty_last` additionally forgives a last open segment whose
/// magic header never reached the disk (created, crashed before the sync).
fn replay_segments(
    dir: &Path,
    platform: &Platform,
    scheduler: &mut ServeScheduler,
    seq: &mut u64,
    base_records: u64,
    segments: &[(u64, bool)],
    tolerate_empty_last: bool,
) -> Result<SegmentReplay, ReplayError> {
    let mut out = SegmentReplay {
        submissions: 0,
        decisions: 0,
        decisions_by_tier: [0; 4],
        replayed: 0,
        torn: None,
        truncated_bytes: 0,
        last_valid_bytes: 0,
        last_records: 0,
        drained: false,
    };
    for (pos, &(index, sealed)) in segments.iter().enumerate() {
        let last = pos + 1 == segments.len();
        let path = journal::segment_path(dir, index, sealed);
        let (records, tail) = match journal::load(&path) {
            Ok(v) => v,
            Err(JournalError::BadMagic { .. }) if last && !sealed && tolerate_empty_last => {
                // The segment file was created but its header never hit the
                // disk: an empty segment, recreated on reopen.
                out.last_valid_bytes = 0;
                out.last_records = 0;
                continue;
            }
            Err(e) => {
                return Err(ReplayError::Segment {
                    segment: index,
                    error: e,
                })
            }
        };
        if let TailStatus::Torn {
            valid_bytes,
            reason,
        } = tail
        {
            if sealed {
                return Err(ReplayError::SealedTorn {
                    segment: index,
                    reason,
                    record: base_records as usize + out.replayed + records.len(),
                });
            }
            let file_len = std::fs::metadata(&path)
                .map(|m| m.len())
                .unwrap_or(valid_bytes);
            out.torn = Some(reason);
            out.truncated_bytes = file_len.saturating_sub(valid_bytes);
        }
        if last {
            // The frame end, clean or torn: a clean active segment ends in
            // its zero tail, and reopening at the file length would append
            // after the zeros, where the next parse never looks.
            out.last_valid_bytes = tail.valid_bytes();
            out.last_records = records.len() as u64;
        }
        for record in &records {
            let idx = base_records as usize + out.replayed;
            if out.drained {
                return Err(ReplayError::Record {
                    record: idx,
                    reason: "a record follows the drain record".into(),
                });
            }
            match replay_one(platform, scheduler, seq, &record.event) {
                Ok(ReplayedEvent::Submission) => out.submissions += 1,
                Ok(ReplayedEvent::Decision(tier)) => {
                    out.decisions += 1;
                    out.decisions_by_tier[tier.code() as usize] += 1;
                }
                Ok(ReplayedEvent::Drained) => out.drained = true,
                Err(reason) => {
                    return Err(ReplayError::Record {
                        record: idx,
                        reason,
                    })
                }
            }
            out.replayed += 1;
        }
    }
    Ok(out)
}

/// The state a winning recovery candidate produced, before the journal is
/// reopened and the report assembled.
struct Recovered {
    scheduler: ServeScheduler,
    seq: u64,
    metrics: ServeMetrics,
    breaker_busts: u32,
    breaker_open_cooldown: u32,
    snapshot: Option<u64>,
    snapshot_records: u64,
    replayed: usize,
    torn: Option<TornReason>,
    truncated_bytes: u64,
    last_valid_bytes: u64,
    last_records: u64,
    drained: bool,
}

/// The crash-safe streaming scheduler service.
pub struct StretchServe {
    platform: Platform,
    config: ServeConfig,
    scheduler: ServeScheduler,
    journal: SegmentedJournal,
    dlq: DeadLetterQueue,
    metrics: ServeMetrics,
    /// Next submission sequence number.
    seq: u64,
    finished: bool,
    /// Consecutive over-budget decisions (breaker arming state).
    breaker_busts: u32,
    /// Shed decisions left before the breaker closes; `> 0` means open.
    breaker_open_cooldown: u32,
}

impl StretchServe {
    /// Starts a fresh service journaling into directory `path` (wiping any
    /// journal artefacts already there).
    pub fn create(
        path: &Path,
        platform: Platform,
        config: ServeConfig,
    ) -> Result<Self, JournalError> {
        let journal = SegmentedJournal::create(path, config.rotation)?;
        Ok(Self::assemble(platform, config, journal))
    }

    fn assemble(platform: Platform, config: ServeConfig, journal: SegmentedJournal) -> Self {
        let scheduler = ServeScheduler::new(
            SiteView::of_platform(&platform),
            config.solver.warm_start,
            config.solver.incremental,
        );
        let dlq = DeadLetterQueue::new(config.dlq_capacity);
        StretchServe {
            platform,
            config,
            scheduler,
            journal,
            dlq,
            metrics: ServeMetrics::new(),
            seq: 0,
            finished: false,
            breaker_busts: 0,
            breaker_open_cooldown: 0,
        }
    }

    /// Recovers a service from an existing journal directory, walking the
    /// candidate ladder of the module docs: newest snapshot + segment-suffix
    /// replay first, falling back one snapshot at a time (each rejection
    /// recorded with its typed [`SnapshotRejectReason`]), and finally full
    /// replay from segment 0 — reaching bit-identical state to the process
    /// that wrote the journal (pinned by the kill-and-recover tests).
    ///
    /// Snapshots that failed verification are deleted (they can never heal),
    /// then the directory is garbage-collected against the surviving ones.
    ///
    /// Circuit-breaker arming state is recovered only through a snapshot
    /// (it is live timing policy the journal never records): full replay
    /// restarts it at zero.  The dead-letter queue's *letters* are likewise
    /// live-only — a snapshot carries the `dead_lettered` count, not the
    /// parked submissions.
    pub fn recover(
        path: &Path,
        platform: Platform,
        config: ServeConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let scan = journal::scan_dir(path)?;
        let chain = scan.chain();
        if chain.is_empty() && scan.snapshots.is_empty() {
            return Err(JournalError::BadLayout {
                dir: path.to_path_buf(),
                reason: "no segments and no snapshots".into(),
            }
            .into());
        }
        let mut rejected: Vec<(u64, SnapshotRejectReason)> = Vec::new();
        let mut winner = None;
        for &upto in scan.snapshots.iter().rev() {
            match Self::recover_from_snapshot(path, &platform, &config, upto, &scan, &chain) {
                Ok(r) => {
                    winner = Some(r);
                    break;
                }
                Err(reason) => rejected.push((upto, reason)),
            }
        }
        let recovered = match winner {
            Some(r) => r,
            None if chain.first() == Some(&0) => {
                Self::recover_full(path, &platform, &config, &scan, &chain)?
            }
            None => return Err(RecoverError::Unrecoverable { rejected }),
        };
        // Rejected snapshots failed verification and can never heal; delete
        // them so the GC below never computes segment coverage from a
        // snapshot recovery itself refused to trust.
        for &(upto, _) in &rejected {
            let p = journal::snapshot_path(path, upto);
            std::fs::remove_file(&p).map_err(|e| {
                RecoverError::Journal(JournalError::Io {
                    op: "gc",
                    path: p.clone(),
                    message: e.to_string(),
                })
            })?;
        }
        let (gc_segments, gc_snapshots) = journal::gc(path, config.snapshot_retain)?;
        let last_segment = chain.last().map(|&i| (i, scan.sealed.contains(&i)));
        let journal = SegmentedJournal::open_after_recovery(
            path,
            config.rotation,
            last_segment,
            recovered.last_valid_bytes,
            recovered.last_records,
            recovered.snapshot_records + recovered.replayed as u64,
        )?;
        let Recovered {
            scheduler,
            seq,
            mut metrics,
            breaker_busts,
            breaker_open_cooldown,
            snapshot,
            snapshot_records,
            replayed,
            torn,
            truncated_bytes,
            drained,
            ..
        } = recovered;
        metrics.replayed_records = replayed as u64;
        metrics.torn_bytes_truncated = truncated_bytes;
        let report = RecoveryReport {
            records: snapshot_records as usize + replayed,
            submissions: seq,
            decisions: scheduler.decisions(),
            snapshot,
            snapshot_records,
            replayed_records: replayed,
            rejected_snapshots: rejected,
            torn,
            truncated_bytes,
            gc_segments,
            gc_snapshots,
        };
        let dlq = DeadLetterQueue::new(config.dlq_capacity);
        let serve = StretchServe {
            platform,
            config,
            scheduler,
            journal,
            dlq,
            metrics,
            seq,
            finished: drained,
            breaker_busts,
            breaker_open_cooldown,
        };
        Ok((serve, report))
    }

    /// One rung of the candidate ladder: restore from the snapshot covering
    /// sealed segment `upto` and replay the segment suffix past it.
    fn recover_from_snapshot(
        dir: &Path,
        platform: &Platform,
        config: &ServeConfig,
        upto: u64,
        scan: &SegmentScan,
        chain: &[u64],
    ) -> Result<Recovered, SnapshotRejectReason> {
        let snap = snapshot::load(&journal::snapshot_path(dir, upto))
            .map_err(SnapshotRejectReason::Decode)?;
        if let Some(open) = scan.open {
            if upto >= open {
                // Snapshots only ever cover *sealed* segments; a snapshot
                // claiming the active one is contradictory.
                return Err(SnapshotRejectReason::Segment {
                    segment: open,
                    reason: "active segment is claimed covered by the snapshot".into(),
                });
            }
        }
        let mut scheduler = ServeScheduler::from_state(
            SiteView::of_platform(platform),
            config.solver.warm_start,
            config.solver.incremental,
            snap.state,
        );
        let actual = scheduler.state_digest();
        if actual != snap.digest {
            return Err(SnapshotRejectReason::DigestMismatch {
                expected: snap.digest,
                actual,
            });
        }
        let mut segments = Vec::new();
        for (expect, &i) in (upto + 1..).zip(chain.iter().filter(|&&i| i > upto)) {
            if i != expect {
                return Err(SnapshotRejectReason::MissingSegments { needed: expect });
            }
            segments.push((i, scan.sealed.contains(&i)));
        }
        let counters = snap.counters;
        let mut seq = counters.seq;
        let stats = replay_segments(
            dir,
            platform,
            &mut scheduler,
            &mut seq,
            counters.records,
            &segments,
            true,
        )
        .map_err(|e| match e {
            ReplayError::Segment { segment, error } => SnapshotRejectReason::Segment {
                segment,
                reason: error.to_string(),
            },
            ReplayError::SealedTorn {
                segment, reason, ..
            } => SnapshotRejectReason::Segment {
                segment,
                reason: format!("torn tail in a sealed segment: {reason}"),
            },
            ReplayError::Record { record, reason } => {
                SnapshotRejectReason::Replay { record, reason }
            }
        })?;
        let mut metrics = ServeMetrics::new();
        metrics.submitted = counters.submitted + stats.submissions;
        metrics.accepted = counters.accepted + stats.submissions;
        metrics.dead_lettered = counters.dead_lettered;
        metrics.decisions = counters.decisions + stats.decisions;
        for (tally, (snap_t, replay_t)) in metrics.decisions_by_tier.iter_mut().zip(
            counters
                .decisions_by_tier
                .iter()
                .zip(stats.decisions_by_tier.iter()),
        ) {
            *tally = snap_t + replay_t;
        }
        metrics.fallbacks = counters.fallbacks;
        metrics.budget_busts = counters.budget_busts;
        metrics.breaker_opens = counters.breaker_opens;
        metrics.shed_decisions = counters.shed_decisions;
        Ok(Recovered {
            scheduler,
            seq,
            metrics,
            breaker_busts: counters.breaker_busts,
            breaker_open_cooldown: counters.breaker_open_cooldown,
            snapshot: Some(upto),
            snapshot_records: counters.records,
            replayed: stats.replayed,
            torn: stats.torn,
            truncated_bytes: stats.truncated_bytes,
            last_valid_bytes: stats.last_valid_bytes,
            last_records: stats.last_records,
            drained: stats.drained,
        })
    }

    /// The last candidate: full replay of the whole chain from segment 0 —
    /// exactly the pre-rotation recovery path.
    fn recover_full(
        dir: &Path,
        platform: &Platform,
        config: &ServeConfig,
        scan: &SegmentScan,
        chain: &[u64],
    ) -> Result<Recovered, RecoverError> {
        let mut scheduler = ServeScheduler::new(
            SiteView::of_platform(platform),
            config.solver.warm_start,
            config.solver.incremental,
        );
        let mut seq = 0u64;
        let segments: Vec<(u64, bool)> = chain
            .iter()
            .map(|&i| (i, scan.sealed.contains(&i)))
            .collect();
        let stats = replay_segments(
            dir,
            platform,
            &mut scheduler,
            &mut seq,
            0,
            &segments,
            chain.len() > 1,
        )
        .map_err(|e| match e {
            ReplayError::Segment { error, .. } => RecoverError::Journal(error),
            ReplayError::SealedTorn {
                segment,
                reason,
                record,
            } => RecoverError::Corrupt {
                record,
                reason: format!(
                    "sealed segment {segment} has a torn tail ({reason}); sealed data is \
                     fsynced before the rename, so this is disk corruption"
                ),
            },
            ReplayError::Record { record, reason } => RecoverError::Corrupt { record, reason },
        })?;
        let mut metrics = ServeMetrics::new();
        metrics.submitted = stats.submissions;
        metrics.accepted = stats.submissions;
        metrics.decisions = stats.decisions;
        metrics.decisions_by_tier = stats.decisions_by_tier;
        Ok(Recovered {
            scheduler,
            seq,
            metrics,
            breaker_busts: 0,
            breaker_open_cooldown: 0,
            snapshot: None,
            snapshot_records: 0,
            replayed: stats.replayed,
            torn: stats.torn,
            truncated_bytes: stats.truncated_bytes,
            last_valid_bytes: stats.last_valid_bytes,
            last_records: stats.last_records,
            drained: stats.drained,
        })
    }

    /// Freezes the full service state — scheduler + counters + the
    /// self-verification digest — as of the last applied record.
    fn export_snapshot(&self) -> Snapshot {
        Snapshot {
            state: self.scheduler.export_state(),
            counters: ServiceCounters {
                seq: self.seq,
                records: self.journal.total_records(),
                breaker_busts: self.breaker_busts,
                breaker_open_cooldown: self.breaker_open_cooldown,
                submitted: self.metrics.submitted,
                accepted: self.metrics.accepted,
                dead_lettered: self.metrics.dead_lettered,
                decisions: self.metrics.decisions,
                decisions_by_tier: self.metrics.decisions_by_tier,
                fallbacks: self.metrics.fallbacks,
                budget_busts: self.metrics.budget_busts,
                breaker_opens: self.metrics.breaker_opens,
                shed_decisions: self.metrics.shed_decisions,
            },
            digest: self.scheduler.state_digest(),
        }
    }

    /// Rotates the active segment when the policy threshold is reached.
    /// Called *after* the appended record has been applied to the scheduler,
    /// so a snapshot taken here covers exactly the sealed prefix.
    fn rotate_if_due(&mut self) -> Result<(), JournalError> {
        if !self.journal.should_rotate() {
            return Ok(());
        }
        let sealed = self.journal.active_index();
        // Seals so far number `sealed + 1`; publish on every
        // `snapshot_every`th one.
        let snapshot_due = (sealed + 1).is_multiple_of(self.config.snapshot_every.max(1));
        let bytes = snapshot_due.then(|| snapshot::encode(&self.export_snapshot()));
        let chaos = self
            .config
            .chaos_rotation_abort
            .and_then(|(index, point)| (index == sealed).then_some(point));
        self.journal
            .rotate(bytes.as_deref(), self.config.snapshot_retain, chaos)?;
        Ok(())
    }

    fn reject(
        &mut self,
        submission: Submission,
        reason: RejectReason,
    ) -> Result<SubmitOutcome, JournalError> {
        self.metrics.dead_lettered += 1;
        self.dlq.push(DeadLetter {
            submission,
            reason,
            wall_micros: journal::wall_clock_micros(),
        });
        Ok(SubmitOutcome::Rejected(reason))
    }

    /// Offers a submission to the service.
    ///
    /// An accepted submission is durable when this returns: the call writes
    /// the decision it forces (if any) and its `Submitted` record, then
    /// syncs the journal once.  Malformed, infeasible or out-of-order
    /// submissions are dead-lettered without touching the journal (that is
    /// the `Ok(Rejected)` arm — never a panic, never an `Err`); `Err` is
    /// reserved for journal I/O failures, after which the service should be
    /// abandoned and recovered from the journal.
    pub fn submit(&mut self, submission: Submission) -> Result<SubmitOutcome, JournalError> {
        self.metrics.submitted += 1;
        if self.finished {
            return self.reject(submission, RejectReason::Closed);
        }
        if let Err(reason) = validate_submission(&submission, &self.platform) {
            return self.reject(submission, reason);
        }
        if self.scheduler.started() {
            let frontier = self.scheduler.stage_time();
            // Behind the frontier, or *at* the frontier after its decision
            // was already taken (only possible right after a recovery whose
            // journal ended in a decision record): accepting would rewrite
            // scheduled history.
            if submission.release < frontier - EVENT_TOL
                || (self.scheduler.has_active() && submission.release <= frontier + EVENT_TOL)
            {
                return self.reject(
                    submission,
                    RejectReason::OutOfOrder {
                        release: submission.release,
                        frontier,
                    },
                );
            }
            if submission.release > frontier + EVENT_TOL {
                // The frontier moves: decide for the jobs pending at the old
                // frontier (unless an installed decision already covers
                // them), then execute up to the new event time.
                if self.scheduler.needs_decision() {
                    self.decide()?;
                }
                self.scheduler.advance(submission.release);
            }
        }
        self.journal.append(&JournalRecord {
            wall_micros: journal::wall_clock_micros(),
            event: JournalEvent::Submitted {
                seq: self.seq,
                release: submission.release,
                work: submission.work,
                databank: submission.databank as u64,
            },
        })?;
        // The call's one durability point: it also commits the `Decision`
        // frame, if `decide` wrote one above.
        self.journal.sync()?;
        self.seq += 1;
        let id = self
            .scheduler
            .stage(submission.release, submission.work, submission.databank);
        self.metrics.accepted += 1;
        self.rotate_if_due()?;
        Ok(SubmitOutcome::Accepted(id as u64))
    }

    /// Runs the degradation ladder for the decision due at the frontier,
    /// writes the winning tier to the journal (write-ahead) and installs the
    /// decision.  It does not sync: the public call that forced the decision
    /// ([`StretchServe::submit`] or [`StretchServe::finish`]) commits the
    /// record with its own sync before it returns.
    fn decide(&mut self) -> Result<(), JournalError> {
        let decision_index = self.scheduler.decisions();
        let shedding = self.breaker_open_cooldown > 0;
        let mut chosen: Option<(PreparedDecision, Duration)> = None;
        let mut busted = false;
        if !shedding {
            let ladder = self.config.solve_ladder();
            let rungs = ladder.len();
            let mut budget = self.config.solve_budget;
            for (i, tier) in ladder.into_iter().enumerate() {
                if self
                    .config
                    .chaos_tier_failures
                    .contains(&(decision_index, tier))
                {
                    self.metrics.fallbacks += 1;
                    budget = budget.saturating_mul(self.config.retry_backoff.max(1));
                    continue;
                }
                let t0 = Instant::now();
                match self.scheduler.try_solve(tier) {
                    // Nothing pending: no decision to take at all.
                    Err(SolveFailure::NothingPending) => return Ok(()),
                    Err(_) => self.metrics.fallbacks += 1,
                    Ok(prepared) => {
                        let elapsed = t0.elapsed();
                        if elapsed <= budget || i + 1 == rungs {
                            // Within budget, or the last rung: a late
                            // decision beats none, so keep it (but count the
                            // bust below).
                            busted = busted || elapsed > budget;
                            chosen = Some((prepared, elapsed));
                            break;
                        }
                        // Over budget with rungs left: discard and fall
                        // through (the prepared decision was never
                        // installed, so state is untouched).
                        busted = true;
                        self.metrics.fallbacks += 1;
                    }
                }
                budget = budget.saturating_mul(self.config.retry_backoff.max(1));
            }
        }
        let (prepared, elapsed) = match chosen {
            Some(c) => c,
            None => {
                // Breaker open, or every solver rung failed: shed to EDF,
                // which cannot fail on pending work.
                let t0 = Instant::now();
                match self.scheduler.try_solve(SolveTier::Edf) {
                    Ok(prepared) => {
                        if shedding {
                            self.metrics.shed_decisions += 1;
                        }
                        (prepared, t0.elapsed())
                    }
                    Err(_) => return Ok(()),
                }
            }
        };
        // Breaker bookkeeping — live-only policy; replay reproduces its
        // *effects* from the journaled tiers, never this arithmetic.
        if busted {
            self.metrics.budget_busts += 1;
            self.breaker_busts += 1;
            if self.breaker_open_cooldown == 0
                && self.breaker_busts >= self.config.breaker_threshold
            {
                self.breaker_open_cooldown = self.config.breaker_cooldown;
                self.metrics.breaker_opens += 1;
                self.breaker_busts = 0;
            }
        } else if self.breaker_open_cooldown == 0 {
            self.breaker_busts = 0;
        }
        if shedding {
            self.breaker_open_cooldown -= 1;
        }
        self.journal.append(&JournalRecord {
            wall_micros: journal::wall_clock_micros(),
            event: JournalEvent::Decision {
                tier: prepared.tier(),
            },
        })?;
        self.metrics
            .observe_decision(prepared.tier(), elapsed.as_secs_f64());
        self.scheduler.install(prepared);
        self.rotate_if_due()?;
        Ok(())
    }

    /// Drains the service: takes the final decision if one is due, executes
    /// to completion (infinite horizon), writes the [`JournalEvent::Drained`]
    /// record with the drained state's digest, cuts the active segment's
    /// zero tail and syncs the journal once (committing the drain decision
    /// and the drain record) and closes the stream.  Idempotent: a second
    /// call neither decides, appends nor syncs, and neither does `finish` on
    /// a service recovered from a drained journal.
    pub fn finish(&mut self) -> Result<(), JournalError> {
        if !self.finished {
            if self.scheduler.needs_decision() {
                self.decide()?;
            }
            self.scheduler.advance(f64::INFINITY);
            self.journal.append(&JournalRecord {
                wall_micros: journal::wall_clock_micros(),
                event: JournalEvent::Drained {
                    digest: self.scheduler.state_digest(),
                    submissions: self.seq,
                    decisions: self.scheduler.decisions(),
                },
            })?;
            self.journal.finish()?;
            self.finished = true;
        }
        Ok(())
    }

    /// `true` after [`StretchServe::finish`], and after recovering a
    /// journal that ends in its drain record.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Completion time per accepted job (`NaN` while unfinished).
    pub fn completions(&self) -> &[f64] {
        self.scheduler.completions()
    }

    /// Digest of the replayed scheduler state (see
    /// [`ServeScheduler::state_digest`]).
    pub fn state_digest(&self) -> u64 {
        self.scheduler.state_digest()
    }

    /// The underlying scheduler state (read-only).
    pub fn scheduler(&self) -> &ServeScheduler {
        &self.scheduler
    }

    /// Live counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The dead-letter queue.
    pub fn dlq(&self) -> &DeadLetterQueue {
        &self.dlq
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The journal directory.
    pub fn journal_path(&self) -> PathBuf {
        self.journal.dir().to_path_buf()
    }

    /// Syncs the journal has issued since this service created or recovered
    /// it: segment `sync_data`, directory `sync_all` and snapshot-file
    /// syncs.  Each accepted [`submit`](StretchServe::submit) adds one, a
    /// dead-lettered one none, [`finish`](StretchServe::finish) one, and a
    /// rotation its seal and snapshot syncs.  A pure count with no clock;
    /// it is not a [`ServeMetrics`] counter, because snapshots persist
    /// those and this count belongs to one process.
    pub fn journal_syncs(&self) -> u64 {
        self.journal.syncs()
    }

    /// Appends since this service created or recovered its journal that ran
    /// past the active segment's zero tail, so that their sync also
    /// committed a file-size change (see [`journal`]).  Under the default
    /// rotation policy no segment outgrows its tail, so this reads 0 unless
    /// the service recovered a journal left without one (written before the
    /// tail existed, or drained before `finish` wrote a `Drained` record),
    /// whose first append lays one down.
    /// A pure count with no clock, and not a [`ServeMetrics`] counter, for
    /// the reason [`journal_syncs`](StretchServe::journal_syncs) gives.
    pub fn tail_growths(&self) -> u64 {
        self.journal.tail_growths()
    }
}
