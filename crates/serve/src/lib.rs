//! # stretch-serve
//!
//! A crash-safe streaming front-end for the on-line max-stretch scheduler:
//! the paper's per-event algorithm (§4.3.2 of Legrand–Su–Vivien, SPAA 2006)
//! packaged as a long-lived service you can feed forever, kill at any
//! instant, and recover bit-identically.
//!
//! The design follows the execution-journal pattern: an append-only,
//! length-prefixed and checksummed [`journal`] is the *only* source of
//! truth, written before the scheduler consumes each event (write-ahead)
//! and made durable by one sync per acknowledged call (group commit: a
//! submission's forced decision commits with it); scheduler state is a pure
//! function of the record sequence, so crash recovery is replay
//! ([`StretchServe::recover`]), tolerating torn tails by truncating at the
//! first bad checksum.  [`StretchServe::finish`] journals its drain as the
//! terminal [`JournalEvent::Drained`] record with the drained state's
//! digest, so a drained journal recovers as a finished service, and it is
//! also the one recording format: [`trace`] replays a drained journal
//! directory under any solver cell.  Wall-clock timestamps are stamped
//! into records for debugging but **never** consulted on replay.
//!
//! Replay is *bounded*: the journal is a directory of rotated segments
//! ([`journal::SegmentedJournal`]) interleaved with self-verifying scheduler
//! [`snapshot`]s, and recovery restores the newest snapshot whose digest
//! verifies, replaying only the segment suffix past it (falling back one
//! snapshot at a time — ultimately to full replay — on corruption, each
//! rejection typed as a [`SnapshotRejectReason`]).
//!
//! Around the scheduler sit the robustness layers:
//!
//! * **validation + dead-letter queue** ([`dlq`]) — malformed or infeasible
//!   submissions (NaN work, unknown databank, out-of-order release) are
//!   parked with a typed [`RejectReason`], never panicking;
//! * **degradation ladder** ([`service`]) — each decision tries
//!   simplex → primal-dual with escalating time budgets, falls back
//!   on failure or timeout, and a circuit breaker sheds to the EDF heuristic
//!   after consecutive budget busts; the chosen tier is journaled so replay
//!   reproduces the degradation exactly;
//! * **live counters** ([`metrics`]) — accept/reject/dead-letter tallies,
//!   fallbacks, breaker state, queue depth and solve-latency quantiles.

#![deny(missing_docs)]

pub mod bus;
pub mod config;
pub mod dlq;
pub mod event;
pub mod journal;
pub mod metrics;
pub mod scheduler;
pub mod service;
pub mod snapshot;
pub mod trace;

pub use bus::{spawn_service, BusHandle, BusMessage, BusSendError};
pub use config::ServeConfig;
pub use dlq::{DeadLetter, DeadLetterQueue};
pub use event::{
    validate_submission, JournalEvent, JournalRecord, RejectReason, SolveTier, Submission,
};
pub use journal::{
    JournalError, JournalWriter, RotationCrashPoint, RotationPolicy, SegmentedJournal, TailStatus,
    TornReason,
};
pub use metrics::ServeMetrics;
pub use scheduler::{AcceptedJob, PreparedDecision, ServeScheduler, SolveFailure};
pub use service::{
    RecoverError, RecoveryReport, SnapshotRejectReason, StretchServe, SubmitOutcome,
};
pub use snapshot::{ServiceCounters, Snapshot, SnapshotError};
pub use trace::{RecordedRun, Recording, ReplayError, ReplayOutcome};
