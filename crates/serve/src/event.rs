//! Events of the serve layer: submissions, journal records and typed
//! rejection reasons.
//!
//! A [`Submission`] is what clients put on the bus — a job request *before*
//! validation, so every field is allowed to be garbage (NaN work, unknown
//! databank, …).  Validation turns it either into an accepted job (journaled
//! as [`JournalEvent::Submitted`]) or into a [`RejectReason`] carried by the
//! dead-letter queue.  Nothing on this path panics: the acceptance contract
//! of the serve layer is "malformed input is data, not a crash".

use stretch_core::BackendKind;
use stretch_platform::Platform;
use stretch_workload::{Job, JobValidationError};

/// A raw job submission, as received from a client.
///
/// Unlike [`stretch_workload::Job`] this type carries no invariants: it is
/// the *input* of validation, not its output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Submission {
    /// Claimed release date (seconds).  Submissions must arrive in
    /// nondecreasing release order (the on-line model); late arrivals are
    /// dead-lettered as [`RejectReason::OutOfOrder`].
    pub release: f64,
    /// Claimed work (MB of databank to scan).
    pub work: f64,
    /// Target databank id.
    pub databank: usize,
}

impl Submission {
    /// Convenience constructor.
    pub fn new(release: f64, work: f64, databank: usize) -> Self {
        Submission {
            release,
            work,
            databank,
        }
    }
}

/// Why a submission was dead-lettered instead of scheduled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// The job fields themselves are malformed (NaN/negative release,
    /// non-positive or non-finite work).
    InvalidJob(JobValidationError),
    /// The databank id is not known to the platform.
    UnknownDatabank {
        /// The offending databank id.
        databank: usize,
        /// How many databanks the platform actually has.
        num_databanks: usize,
    },
    /// The databank exists but no cluster hosts it: the job could never run
    /// and no finite stretch would be achievable.
    UnhostedDatabank {
        /// The offending databank id.
        databank: usize,
    },
    /// The submission's release date is behind the scheduler's decision
    /// frontier: accepting it would rewrite the past.
    OutOfOrder {
        /// The submission's release date.
        release: f64,
        /// The scheduler's current frontier (last decision instant).
        frontier: f64,
    },
    /// The service has already been finished (drained to completion) and
    /// accepts no further submissions.
    Closed,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InvalidJob(e) => write!(f, "invalid job: {e}"),
            RejectReason::UnknownDatabank {
                databank,
                num_databanks,
            } => write!(
                f,
                "unknown databank {databank} (platform has {num_databanks})"
            ),
            RejectReason::UnhostedDatabank { databank } => {
                write!(f, "databank {databank} is hosted by no cluster")
            }
            RejectReason::OutOfOrder { release, frontier } => write!(
                f,
                "release {release} is behind the decision frontier {frontier}"
            ),
            RejectReason::Closed => write!(f, "service is closed"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Validates the *content* of a submission against a platform (field sanity
/// and databank eligibility).  Ordering is checked separately by the service,
/// which knows the scheduler frontier.
pub fn validate_submission(s: &Submission, platform: &Platform) -> Result<(), RejectReason> {
    Job::try_new(0, s.release, s.work, s.databank).map_err(RejectReason::InvalidJob)?;
    let num_databanks = platform.num_databanks();
    if s.databank >= num_databanks {
        return Err(RejectReason::UnknownDatabank {
            databank: s.databank,
            num_databanks,
        });
    }
    if platform.eligible_processors(s.databank).is_empty() {
        return Err(RejectReason::UnhostedDatabank {
            databank: s.databank,
        });
    }
    Ok(())
}

/// One rung of the degradation ladder: which engine produced a scheduling
/// decision.
///
/// The tier chosen live (after timeouts, fallbacks and circuit breaking) is
/// written to the journal, so replay re-runs exactly the same engine and
/// reproduces the degradation bit for bit — wall-clock never participates in
/// recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveTier {
    /// Legacy tier code 0: decisions recorded by the deleted `monge`
    /// backend, whose warm solves ran the warm simplex's own code.  It
    /// still decodes from journals and snapshots, and replays on the
    /// network simplex; the live ladder never picks it.
    Monge,
    /// Network simplex backend (the default).
    Simplex,
    /// Primal-dual reference backend (slowest, most robust).
    PrimalDual,
    /// Earliest-virtual-deadline-first heuristic: the load-shedding tier,
    /// used when every solver tier failed or the circuit breaker is open.
    /// Never fails.
    Edf,
}

impl SolveTier {
    /// Every tier, by code: the legacy tier, then the live ladder
    /// (fast → robust → shed).
    pub const ALL: [SolveTier; 4] = [
        SolveTier::Monge,
        SolveTier::Simplex,
        SolveTier::PrimalDual,
        SolveTier::Edf,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            SolveTier::Monge => "monge",
            SolveTier::Simplex => "simplex",
            SolveTier::PrimalDual => "primal-dual",
            SolveTier::Edf => "edf",
        }
    }

    /// Stable one-byte code used in the journal encoding.
    pub fn code(&self) -> u8 {
        match self {
            SolveTier::Monge => 0,
            SolveTier::Simplex => 1,
            SolveTier::PrimalDual => 2,
            SolveTier::Edf => 3,
        }
    }

    /// Inverse of [`SolveTier::code`].
    pub fn from_code(code: u8) -> Option<SolveTier> {
        SolveTier::ALL.into_iter().find(|t| t.code() == code)
    }

    /// The min-cost backend this tier solves with (`None` for the EDF shed
    /// tier, which uses no flow solver at all).
    pub fn backend(&self) -> Option<BackendKind> {
        match self {
            SolveTier::Monge | SolveTier::Simplex => Some(BackendKind::NetworkSimplex),
            SolveTier::PrimalDual => Some(BackendKind::PrimalDual),
            SolveTier::Edf => None,
        }
    }

    /// The tier that solves with `backend`.
    pub fn of_backend(backend: BackendKind) -> SolveTier {
        match backend {
            BackendKind::NetworkSimplex => SolveTier::Simplex,
            BackendKind::PrimalDual => SolveTier::PrimalDual,
        }
    }
}

/// The replay-relevant payload of a journal record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JournalEvent {
    /// An accepted submission, staged into the scheduler *after* this record
    /// is written (write-ahead) and acknowledged only after the journal sync
    /// that makes it durable.
    Submitted {
        /// Monotone per-journal sequence number (detects splices).
        seq: u64,
        /// Validated release date.
        release: f64,
        /// Validated work.
        work: f64,
        /// Validated databank id.
        databank: u64,
    },
    /// The intent record of a scheduling decision: which tier the ladder
    /// settled on.  Written *before* the decision is installed, so a crash
    /// between the two replays to the identical decision (exactly-once); it
    /// becomes durable with the sync of the call that forced it.
    Decision {
        /// The tier that produced the decision.
        tier: SolveTier,
    },
    /// The terminal record: the drain to an infinite horizon, written by
    /// [`finish`](crate::StretchServe::finish) after the drain it stands
    /// for (it carries the drained state's digest) and committed by that
    /// call's one sync.  Recovery replays it as the drain and checks the
    /// digest, which also covers the two counts; no record may follow it.
    Drained {
        /// FNV-1a state digest of the drained scheduler.
        digest: u64,
        /// Submissions the journal accepted before the drain.
        submissions: u64,
        /// Decisions the journal holds before the drain.
        decisions: u64,
    },
}

/// A full journal record: wall-clock stamp (debugging only — replay must
/// never read it) plus the replayed event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JournalRecord {
    /// Microseconds since the Unix epoch at append time.  **Debugging only**:
    /// recovery ignores this field entirely, pinned by the zeroed-timestamp
    /// replay test.
    pub wall_micros: u64,
    /// The replayed event.
    pub event: JournalEvent,
}

/// Why a record payload failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadError {
    /// Empty payload (no tag byte).
    Empty,
    /// Unknown tag byte.
    UnknownTag(u8),
    /// Payload length does not match the tag's fixed frame.
    BadLength {
        /// The tag whose frame was violated.
        tag: u8,
        /// Expected payload length.
        expected: usize,
        /// Actual payload length.
        actual: usize,
    },
    /// A decision record carries an unknown tier code.
    UnknownTier(u8),
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::Empty => write!(f, "empty payload"),
            PayloadError::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            PayloadError::BadLength {
                tag,
                expected,
                actual,
            } => write!(
                f,
                "tag {tag} payload must be {expected} bytes, got {actual}"
            ),
            PayloadError::UnknownTier(c) => write!(f, "unknown solve-tier code {c}"),
        }
    }
}

impl std::error::Error for PayloadError {}

const TAG_SUBMITTED: u8 = 1;
const TAG_DECISION: u8 = 2;
const TAG_DRAINED: u8 = 3;
/// `tag + wall + seq + release + work + databank`.
const SUBMITTED_LEN: usize = 1 + 8 + 8 + 8 + 8 + 8;
/// `tag + wall + tier`.
const DECISION_LEN: usize = 1 + 8 + 1;
/// `tag + wall + digest + submissions + decisions`.
const DRAINED_LEN: usize = 1 + 8 + 8 + 8 + 8;

/// Encodes a record payload (the checksummed bytes between the frame header
/// and the next record).  Floats are stored as IEEE-754 bit patterns so the
/// round trip is exact — replay determinism depends on it.
pub fn encode_payload(record: &JournalRecord) -> Vec<u8> {
    match record.event {
        JournalEvent::Submitted {
            seq,
            release,
            work,
            databank,
        } => {
            let mut out = Vec::with_capacity(SUBMITTED_LEN);
            out.push(TAG_SUBMITTED);
            out.extend_from_slice(&record.wall_micros.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&release.to_bits().to_le_bytes());
            out.extend_from_slice(&work.to_bits().to_le_bytes());
            out.extend_from_slice(&databank.to_le_bytes());
            out
        }
        JournalEvent::Decision { tier } => {
            let mut out = Vec::with_capacity(DECISION_LEN);
            out.push(TAG_DECISION);
            out.extend_from_slice(&record.wall_micros.to_le_bytes());
            out.push(tier.code());
            out
        }
        JournalEvent::Drained {
            digest,
            submissions,
            decisions,
        } => {
            let mut out = Vec::with_capacity(DRAINED_LEN);
            out.push(TAG_DRAINED);
            out.extend_from_slice(&record.wall_micros.to_le_bytes());
            out.extend_from_slice(&digest.to_le_bytes());
            out.extend_from_slice(&submissions.to_le_bytes());
            out.extend_from_slice(&decisions.to_le_bytes());
            out
        }
    }
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Decodes a record payload; strict about frame lengths so a checksum
/// collision on garbage still surfaces as a typed error, never a panic.
pub fn decode_payload(bytes: &[u8]) -> Result<JournalRecord, PayloadError> {
    let &tag = bytes.first().ok_or(PayloadError::Empty)?;
    match tag {
        TAG_SUBMITTED => {
            if bytes.len() != SUBMITTED_LEN {
                return Err(PayloadError::BadLength {
                    tag,
                    expected: SUBMITTED_LEN,
                    actual: bytes.len(),
                });
            }
            Ok(JournalRecord {
                wall_micros: read_u64(bytes, 1),
                event: JournalEvent::Submitted {
                    seq: read_u64(bytes, 9),
                    release: f64::from_bits(read_u64(bytes, 17)),
                    work: f64::from_bits(read_u64(bytes, 25)),
                    databank: read_u64(bytes, 33),
                },
            })
        }
        TAG_DECISION => {
            if bytes.len() != DECISION_LEN {
                return Err(PayloadError::BadLength {
                    tag,
                    expected: DECISION_LEN,
                    actual: bytes.len(),
                });
            }
            let tier = SolveTier::from_code(bytes[9]).ok_or(PayloadError::UnknownTier(bytes[9]))?;
            Ok(JournalRecord {
                wall_micros: read_u64(bytes, 1),
                event: JournalEvent::Decision { tier },
            })
        }
        TAG_DRAINED => {
            if bytes.len() != DRAINED_LEN {
                return Err(PayloadError::BadLength {
                    tag,
                    expected: DRAINED_LEN,
                    actual: bytes.len(),
                });
            }
            Ok(JournalRecord {
                wall_micros: read_u64(bytes, 1),
                event: JournalEvent::Drained {
                    digest: read_u64(bytes, 9),
                    submissions: read_u64(bytes, 17),
                    decisions: read_u64(bytes, 25),
                },
            })
        }
        other => Err(PayloadError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stretch_platform::fixtures::small_platform;

    #[test]
    fn payload_round_trips_exactly() {
        let records = [
            JournalRecord {
                wall_micros: 123_456,
                event: JournalEvent::Submitted {
                    seq: 7,
                    release: 1.5e-3,
                    work: 300.25,
                    databank: 1,
                },
            },
            JournalRecord {
                wall_micros: 0,
                event: JournalEvent::Decision {
                    tier: SolveTier::Edf,
                },
            },
            JournalRecord {
                wall_micros: u64::MAX,
                event: JournalEvent::Drained {
                    digest: 0x97b1_b8a4_f8e4_36c0,
                    submissions: 22,
                    decisions: 21,
                },
            },
        ];
        for r in records {
            let bytes = encode_payload(&r);
            assert_eq!(decode_payload(&bytes), Ok(r));
        }
    }

    #[test]
    fn decode_rejects_malformed_payloads_with_typed_errors() {
        assert_eq!(decode_payload(&[]), Err(PayloadError::Empty));
        assert_eq!(decode_payload(&[99]), Err(PayloadError::UnknownTag(99)));
        for tag in [TAG_SUBMITTED, TAG_DRAINED] {
            assert!(matches!(
                decode_payload(&[tag, 0, 0]),
                Err(PayloadError::BadLength { .. })
            ));
        }
        let mut decision = vec![TAG_DECISION];
        decision.extend_from_slice(&0u64.to_le_bytes());
        decision.push(77);
        assert_eq!(
            decode_payload(&decision),
            Err(PayloadError::UnknownTier(77))
        );
    }

    #[test]
    fn tier_codes_round_trip_and_map_to_backends() {
        for tier in SolveTier::ALL {
            assert_eq!(SolveTier::from_code(tier.code()), Some(tier));
        }
        for backend in BackendKind::ALL {
            assert_eq!(SolveTier::of_backend(backend).backend(), Some(backend));
        }
        // Legacy code 0 replays on the simplex backend.
        assert_eq!(SolveTier::from_code(0), Some(SolveTier::Monge));
        assert_eq!(
            SolveTier::Monge.backend(),
            Some(BackendKind::NetworkSimplex)
        );
        assert_eq!(SolveTier::from_code(200), None);
    }

    #[test]
    fn validation_dead_letters_each_malformed_shape() {
        let platform = small_platform();
        let cases = [
            (
                Submission::new(f64::NAN, 10.0, 0),
                "invalid job: release must be finite",
            ),
            (
                Submission::new(-1.0, 10.0, 0),
                "invalid job: release must be nonnegative",
            ),
            (
                Submission::new(0.0, -5.0, 0),
                "invalid job: work must be positive",
            ),
            (Submission::new(0.0, 10.0, 99), "unknown databank 99"),
        ];
        for (submission, needle) in cases {
            let err = validate_submission(&submission, &platform).unwrap_err();
            let rendered = err.to_string();
            assert!(
                rendered.contains(needle),
                "expected {rendered:?} to contain {needle:?}"
            );
        }
        assert!(validate_submission(&Submission::new(0.0, 10.0, 0), &platform).is_ok());
    }
}
