//! Recorded runs: a drained journal directory, replayed under any solver
//! cell.
//!
//! A serve run's journal already holds every accepted submission in
//! arrival order, every decision with the tier that took it, and, once
//! [`StretchServe::finish`] drained the run, the
//! [`JournalEvent::Drained`] record with the drained state's FNV-1a digest.
//! That directory *is* the recording: [`record_run`] streams submissions
//! through a fresh service and drains it, and [`replay`] re-runs the
//! journal's submissions through the full [`ServeScheduler`] pipeline
//! under any [`SolverConfig`] cell.  Completions come out of the replay,
//! and the digest covers them.
//!
//! Replay only reads the directory ([`journal::scan_dir`], then
//! [`journal::load`] per segment), so a checked-in recording stays as it
//! is.  Only a whole drained journal replays, and each refusal is a typed
//! [`ReplayError`]: the chain must start at segment 0 (a garbage-collected
//! prefix survives only inside snapshots), no segment may end in a torn
//! tail, and the last record must be the `Drained` one.
//!
//! ## Determinism contract
//!
//! Replay never reads the records' wall-clock stamps, nor the recorded
//! decision tiers: each cell takes its own decision at each frontier, so
//! replay state is a pure function of the submission sequence and the
//! replay [`SolverConfig`].  Two replays of the same journal under the same
//! cell are bit-identical, warm and cold replays are bit-identical, and a
//! replay under the recording backend reproduces the drained digest
//! exactly.

use std::path::Path;

use stretch_core::{SiteView, SolverConfig};
use stretch_flow::BackendKind;
use stretch_platform::Platform;

use crate::config::ServeConfig;
use crate::event::{JournalEvent, SolveTier, Submission};
use crate::journal::{self, JournalError, TailStatus, TornReason};
use crate::scheduler::{ServeScheduler, SolveFailure};
use crate::service::{replay_submission, StretchServe, SubmitOutcome};

/// Summary of a recorded run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecordedRun {
    /// Submissions accepted (and journaled).
    pub accepted: u64,
    /// Submissions rejected into the DLQ (not journaled).
    pub rejected: u64,
    /// State digest of the drained recording scheduler (also the digest
    /// of the journal's `Drained` record).
    pub digest: u64,
}

/// Records a full serve run: feeds `submissions` through a fresh
/// [`StretchServe`] journaling into `journal_dir` and drains it, leaving a
/// drained journal that [`replay`] accepts.
pub fn record_run(
    journal_dir: &Path,
    platform: Platform,
    config: ServeConfig,
    submissions: &[Submission],
) -> Result<RecordedRun, JournalError> {
    let mut serve = StretchServe::create(journal_dir, platform, config)?;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for submission in submissions {
        match serve.submit(*submission)? {
            SubmitOutcome::Accepted(_) => accepted += 1,
            SubmitOutcome::Rejected(_) => rejected += 1,
        }
    }
    serve.finish()?;
    Ok(RecordedRun {
        accepted,
        rejected,
        digest: serve.state_digest(),
    })
}

/// Why a journal directory did not replay.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The directory could not be listed, or a segment is not a journal.
    Journal(JournalError),
    /// Segment `needed` of the chain is not on disk: segment 0 was
    /// garbage-collected, or the chain has a gap.
    MissingSegment {
        /// The first missing segment index.
        needed: u64,
    },
    /// A segment ends in a torn tail: the run crashed, or the file was cut.
    Torn {
        /// The torn segment's index.
        segment: u64,
        /// What was wrong with its first invalid record.
        reason: TornReason,
    },
    /// The last record is not the `Drained` one: the run was never drained,
    /// so there is no digest to verify against.
    NotDrained,
    /// A record cannot be applied at its position.
    Record {
        /// Index of the record in the journal.
        index: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Journal(e) => write!(f, "{e}"),
            ReplayError::MissingSegment { needed } => {
                write!(f, "segment {needed} of the journal is missing")
            }
            ReplayError::Torn { segment, reason } => {
                write!(f, "segment {segment} has a torn tail: {reason}")
            }
            ReplayError::NotDrained => {
                write!(
                    f,
                    "the journal does not end in a drain record; refusing to replay"
                )
            }
            ReplayError::Record { index, reason } => {
                write!(f, "journal record {index} does not replay: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<JournalError> for ReplayError {
    fn from(e: JournalError) -> Self {
        ReplayError::Journal(e)
    }
}

/// A drained journal directory, read for replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Recording {
    /// Every record's event, in journal order; the last one is `Drained`.
    events: Vec<JournalEvent>,
    /// The digest the `Drained` record carries.
    digest: u64,
}

impl Recording {
    /// Reads the drained journal directory `dir` without writing to it.
    pub fn load(dir: &Path) -> Result<Recording, ReplayError> {
        let scan = journal::scan_dir(dir)?;
        let mut events = Vec::new();
        for (needed, index) in (0u64..).zip(scan.chain()) {
            if index != needed {
                return Err(ReplayError::MissingSegment { needed });
            }
            let sealed = scan.sealed.contains(&index);
            let (records, tail) = journal::load(&journal::segment_path(dir, index, sealed))?;
            if let TailStatus::Torn { reason, .. } = tail {
                return Err(ReplayError::Torn {
                    segment: index,
                    reason,
                });
            }
            events.extend(records.into_iter().map(|r| r.event));
        }
        let (drain, digest) = events
            .iter()
            .enumerate()
            .find_map(|(at, e)| match *e {
                JournalEvent::Drained { digest, .. } => Some((at, digest)),
                _ => None,
            })
            .ok_or(ReplayError::NotDrained)?;
        if drain + 1 < events.len() {
            return Err(ReplayError::Record {
                index: drain + 1,
                reason: "a record follows the drain record".into(),
            });
        }
        Ok(Recording { events, digest })
    }

    /// The accepted submissions `(release, work, databank)`, in order.
    pub fn submissions(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.events.iter().filter_map(|e| match *e {
            JournalEvent::Submitted {
                release,
                work,
                databank,
                ..
            } => Some((release, work, databank)),
            _ => None,
        })
    }
}

/// What one replay produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    /// FNV-1a state digest of the drained replay scheduler.
    pub digest: u64,
    /// Completion time per job.
    pub completions: Vec<f64>,
    /// Decisions taken during the replay.
    pub decisions: u64,
    /// `true` when `digest` equals the digest of the journal's `Drained`
    /// record, which covers every completion bit for bit.  Expected to
    /// hold when replaying under the recording backend; other backends may
    /// legitimately pick different degenerate optima.
    pub matches_recorded: bool,
}

/// Takes the decision due at the frontier on `tier` and, if that tier
/// fails, on the EDF shed tier (no wall-clock budgets — replay has no
/// timing policy).
fn decide(scheduler: &mut ServeScheduler, tier: SolveTier) {
    match scheduler.try_solve(tier) {
        Ok(prepared) => scheduler.install(prepared),
        Err(SolveFailure::NothingPending) => {}
        Err(_) => {
            // Same shape as the live degradation ladder's last resort: EDF
            // only fails when nothing is pending.
            if let Ok(prepared) = scheduler.try_solve(SolveTier::Edf) {
                scheduler.install(prepared);
            }
        }
    }
}

/// Replays the drained journal directory `dir` through the full scheduler
/// pipeline under `solver`, deterministically: each due decision solves
/// with the configured backend's tier, then drains as the `Drained` record
/// did.
pub fn replay(
    dir: &Path,
    platform: &Platform,
    solver: SolverConfig,
) -> Result<ReplayOutcome, ReplayError> {
    let recording = Recording::load(dir)?;
    let mut scheduler = ServeScheduler::new(
        SiteView::of_platform(platform),
        solver.warm_start,
        solver.incremental,
    );
    let tier = SolveTier::of_backend(solver.backend);
    let mut seq = 0;
    for (index, event) in recording.events.iter().enumerate() {
        // Decision records name the recording cell's tiers; the replayed
        // cell takes its own decisions.
        if let JournalEvent::Submitted {
            seq: s,
            release,
            work,
            databank,
        } = *event
        {
            let submitted = (s, release, work, databank);
            replay_submission(platform, &mut scheduler, &mut seq, submitted, |at| {
                decide(at, tier);
                Ok(())
            })
            .map_err(|reason| ReplayError::Record { index, reason })?;
        }
    }
    if scheduler.needs_decision() {
        decide(&mut scheduler, tier);
    }
    scheduler.advance(f64::INFINITY);
    let digest = scheduler.state_digest();
    Ok(ReplayOutcome {
        digest,
        completions: scheduler.completions().to_vec(),
        decisions: scheduler.decisions(),
        matches_recorded: digest == recording.digest,
    })
}

/// The full replay matrix of a drained journal directory: every backend ×
/// warm/cold.  Returns one `(config, outcome)` row per cell, in
/// [`BackendKind::ALL`] × `[warm, cold]` order.
pub fn replay_matrix(
    dir: &Path,
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
            let outcome = replay(dir, platform, config)?;
            rows.push((config, outcome));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
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
        let dir = tmp("roundtrip");
        let run = record_run(
            &dir,
            small_platform(),
            ServeConfig::default(),
            &reference_stream(),
        )
        .unwrap();
        assert_eq!(run.accepted, 6);
        assert_eq!(run.rejected, 0);
        let recording = Recording::load(&dir).unwrap();
        assert_eq!(recording.submissions().count(), 6);
        let outcome = replay(&dir, &small_platform(), SolverConfig::default()).unwrap();
        assert_eq!(outcome.digest, run.digest);
        assert_eq!(outcome.completions.len(), 6);
        assert!(outcome.matches_recorded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsealed_traces_refuse_to_replay() {
        // A run dropped before `finish` journals no drain record.
        let dir = tmp("undrained");
        let mut serve =
            StretchServe::create(&dir, small_platform(), ServeConfig::default()).unwrap();
        serve.submit(Submission::new(0.0, 60.0, 0)).unwrap();
        drop(serve);
        assert_eq!(
            replay(&dir, &small_platform(), SolverConfig::default()),
            Err(ReplayError::NotDrained)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected_with_bad_magic() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            journal::segment_path(&dir, 0, false),
            b"definitely not a journal",
        )
        .unwrap();
        assert!(matches!(
            Recording::load(&dir),
            Err(ReplayError::Journal(JournalError::BadMagic { .. }))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
