//! Torn-write recovery contract: for *any* truncation or single-byte
//! corruption of a recorded journal segment, recovery either succeeds with
//! state bit-identical to some valid record prefix, or fails with a typed
//! error — it never panics and never silently diverges.
//!
//! The reference journal is drained, so it ends in its `Drained` record,
//! and the same journal is what trace replay takes as a recorded run.  The
//! truncation sweep is exhaustive (every byte offset of the segment file)
//! and holds replay to the same bytes: it refuses every cut that loses the
//! `Drained` record, with a typed error, and replays the whole file to the
//! drained digest.  The proptest adds random byte corruption on top, which
//! replay refuses every time.  A third test cuts the journal right after
//! each decision record — the state a crash leaves between the decision a
//! submission forces and the submission's own record, which share one
//! sync — and requires the re-submitted continuation to land on the
//! uninterrupted run; a fourth appends a frame after the `Drained` record,
//! which recovery and replay both refuse.  All of them operate on an
//! unrotated journal — a single active segment, the layout every journal
//! starts in; the rotated-chain and snapshot corruption sweeps live in
//! `rotation.rs`.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use stretch_core::SolverConfig;
use stretch_platform::fixtures::small_platform;
use stretch_platform::Platform;
use stretch_serve::journal::{self, JournalWriter};
use stretch_serve::trace::{self, ReplayError};
use stretch_serve::{
    JournalEvent, JournalRecord, RecoverError, ServeConfig, StretchServe, Submission,
};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("stretch-serve-torn-{name}-{}", std::process::id()));
    p
}

/// The reference stream: six jobs `(release, work, databank)` over five
/// distinct events on the small fixture platform.
const REFERENCE_STREAM: [(f64, f64, usize); 6] = [
    (0.0, 300.0, 0),
    (0.0, 60.0, 1),
    (2.5, 120.0, 0),
    (4.0, 30.0, 1),
    (6.0, 90.0, 0),
    (7.5, 45.0, 1),
];

/// Submits `stream` to `serve`, requiring every job to be accepted.
fn submit_all(serve: &mut StretchServe, stream: &[(f64, f64, usize)]) {
    for &(release, work, databank) in stream {
        assert!(serve
            .submit(Submission::new(release, work, databank))
            .unwrap()
            .is_accepted());
    }
}

/// Records a reference journal: [`REFERENCE_STREAM`] drained to completion
/// — submissions, decisions, the final drain decision and the `Drained`
/// record all present — and returns the drained service.  The default
/// rotation policy never triggers on a stream this short, so the journal
/// directory holds exactly one active segment.
fn record_reference_journal(path: &Path) -> StretchServe {
    let mut serve = StretchServe::create(path, small_platform(), ServeConfig::default()).unwrap();
    submit_all(&mut serve, &REFERENCE_STREAM);
    serve.finish().unwrap();
    serve
}

/// Bytes of the single active segment of an unrotated journal directory.
fn sole_segment_bytes(dir: &Path) -> Vec<u8> {
    let scan = journal::scan_dir(dir).unwrap();
    assert!(scan.sealed.is_empty(), "reference journal rotated");
    assert!(scan.snapshots.is_empty());
    std::fs::read(journal::segment_path(dir, scan.open.unwrap(), false)).unwrap()
}

/// Digest of the recovered state after replaying exactly the first `k`
/// records — the ground truth every truncated/corrupted recovery must land
/// on.
fn prefix_digests(bytes: &[u8], platform: &Platform, scratch: &Path) -> Vec<u64> {
    // Parse inside the caller's own scratch directory: the tests of this
    // binary run in parallel, and a shared parse path lets one test delete
    // or overwrite the file another is reading.
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    let parse_path = scratch.join("parse");
    std::fs::write(&parse_path, bytes).unwrap();
    let (records, tail) = journal::load(&parse_path).unwrap();
    assert_eq!(
        tail,
        journal::TailStatus::Clean {
            valid_bytes: bytes.len() as u64
        }
    );
    std::fs::remove_file(&parse_path).unwrap();

    let mut digests = Vec::with_capacity(records.len() + 1);
    for k in 0..=records.len() {
        let _ = std::fs::remove_dir_all(scratch);
        std::fs::create_dir_all(scratch).unwrap();
        let mut writer = JournalWriter::create(&journal::segment_path(scratch, 0, false)).unwrap();
        for record in &records[..k] {
            writer.append(record).unwrap();
        }
        drop(writer);
        let (serve, report) =
            StretchServe::recover(scratch, platform.clone(), ServeConfig::default()).unwrap();
        assert_eq!(report.records, k);
        digests.push(serve.state_digest());
    }
    std::fs::remove_dir_all(scratch).unwrap();
    digests
}

/// Writes `bytes` as the sole active segment of a fresh journal directory.
fn write_sole_segment(dir: &Path, bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(journal::segment_path(dir, 0, false), bytes).unwrap();
}

#[test]
fn recovery_from_every_truncation_offset_is_prefix_exact() {
    let journal_path = tmp("exhaustive");
    record_reference_journal(&journal_path);
    let bytes = sole_segment_bytes(&journal_path);
    std::fs::remove_dir_all(&journal_path).unwrap();
    let platform = small_platform();
    let digests = prefix_digests(&bytes, &platform, &tmp("exhaustive-prefix"));

    let case_path = tmp("exhaustive-case");
    for cut in 0..=bytes.len() {
        write_sole_segment(&case_path, &bytes[..cut]);
        // Replay first: it only reads, while recovery cuts a torn tail.
        match trace::replay(&case_path, &platform, SolverConfig::default()) {
            Ok(outcome) => {
                assert_eq!(cut, bytes.len(), "cut {cut}: replayed without the drain");
                assert!(outcome.matches_recorded, "the drained journal mis-replayed");
                assert_eq!(outcome.digest, digests[digests.len() - 1]);
            }
            Err(ReplayError::Journal(journal::JournalError::BadMagic { .. })) => {
                assert!(cut < journal::MAGIC.len(), "cut {cut}: spurious bad-magic");
            }
            Err(ReplayError::NotDrained | ReplayError::Torn { .. }) => {
                assert!(cut < bytes.len(), "cut {cut}: the whole journal refused");
            }
            Err(e) => panic!("cut {cut}: unexpected replay error {e}"),
        }
        match StretchServe::recover(&case_path, platform.clone(), ServeConfig::default()) {
            Ok((serve, report)) => {
                assert!(
                    cut >= journal::MAGIC.len(),
                    "cut {cut}: accepted torn magic"
                );
                assert_eq!(
                    serve.state_digest(),
                    digests[report.records],
                    "cut {cut}: recovered state is not the {}-record prefix state",
                    report.records
                );
            }
            Err(RecoverError::Journal(journal::JournalError::BadMagic { .. })) => {
                assert!(
                    cut < journal::MAGIC.len(),
                    "cut {cut}: spurious bad-magic on a well-formed prefix"
                );
            }
            Err(e) => panic!("cut {cut}: unexpected recovery error {e}"),
        }
    }
    std::fs::remove_dir_all(&case_path).unwrap();
}

#[test]
fn recovery_from_a_journal_ending_in_a_decision_converges_to_the_uninterrupted_run() {
    // A submission that moves the frontier writes the decision it forces,
    // then its own record, and syncs once for both: a crash between the two
    // writes leaves a journal whose last frame is that decision.  Cut the
    // journal right after every decision frame, recover, re-submit the
    // stream from the first submission the journal lost and drain.
    let journal_path = tmp("decision-cut");
    let live = record_reference_journal(&journal_path);
    let bytes = sole_segment_bytes(&journal_path);
    std::fs::remove_dir_all(&journal_path).unwrap();
    let (records, tail) = journal::parse(&bytes, &journal_path).unwrap();
    assert_eq!(
        tail,
        journal::TailStatus::Clean {
            valid_bytes: bytes.len() as u64
        }
    );

    let case_path = tmp("decision-cut-case");
    let mut frame_end = journal::MAGIC.len();
    let mut submitted = 0;
    let mut cuts = 0;
    for (k, record) in records.iter().enumerate() {
        let len = u32::from_le_bytes(bytes[frame_end..frame_end + 4].try_into().unwrap());
        frame_end += journal::RECORD_HEADER_LEN + len as usize;
        match record.event {
            JournalEvent::Submitted { .. } => {
                submitted += 1;
                continue;
            }
            JournalEvent::Decision { .. } => cuts += 1,
            JournalEvent::Drained { .. } => continue,
        }
        write_sole_segment(&case_path, &bytes[..frame_end]);
        let (mut serve, report) =
            StretchServe::recover(&case_path, small_platform(), ServeConfig::default()).unwrap();
        assert_eq!(report.records, k + 1, "decision {k}: records lost");
        assert_eq!(report.torn, None, "decision {k}: torn tail at a frame end");
        assert_eq!(report.submissions, submitted as u64);
        submit_all(&mut serve, &REFERENCE_STREAM[submitted..]);
        serve.finish().unwrap();
        assert_eq!(
            serve.state_digest(),
            live.state_digest(),
            "cut after decision record {k}: continuation diverged"
        );
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(serve.completions()), bits(live.completions()));
    }
    // Each of the four later events forces a decision, and the drain takes
    // one.
    assert_eq!(cuts, 5, "decision records in the reference journal");
    assert_eq!(frame_end, bytes.len());
    std::fs::remove_dir_all(&case_path).unwrap();
}

#[test]
fn a_frame_after_the_drain_record_is_refused_by_recovery_and_replay() {
    // A submission that would be a valid continuation, had the stream not
    // been drained: only the drain record's place as the last one refuses it.
    let journal_path = tmp("after-drain");
    let live = record_reference_journal(&journal_path);
    let bytes = sole_segment_bytes(&journal_path);
    std::fs::remove_dir_all(&journal_path).unwrap();
    let (records, _) = journal::parse(&bytes, &journal_path).unwrap();
    assert!(matches!(
        records.last().map(|r| r.event),
        Some(JournalEvent::Drained { digest, .. }) if digest == live.state_digest()
    ));

    let case_path = tmp("after-drain-case");
    write_sole_segment(&case_path, &bytes);
    let segment = journal::segment_path(&case_path, 0, false);
    let mut writer = JournalWriter::append_at(&segment, bytes.len() as u64).unwrap();
    writer
        .append(&JournalRecord {
            wall_micros: 0,
            event: JournalEvent::Submitted {
                seq: REFERENCE_STREAM.len() as u64,
                release: 9.0,
                work: 10.0,
                databank: 0,
            },
        })
        .unwrap();
    drop(writer);
    let appended = records.len();
    match trace::replay(&case_path, &small_platform(), SolverConfig::default()) {
        Err(ReplayError::Record { index, .. }) => assert_eq!(index, appended),
        other => panic!("replay accepted a frame after the drain: {other:?}"),
    }
    match StretchServe::recover(&case_path, small_platform(), ServeConfig::default()) {
        Err(RecoverError::Corrupt { record, .. }) => assert_eq!(record, appended),
        Err(e) => panic!("unexpected recovery error {e}"),
        Ok(_) => panic!("recovery accepted a frame after the drain"),
    }
    std::fs::remove_dir_all(&case_path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_from_corrupted_bytes_never_panics_or_diverges(
        offset in 0u64..1_000_000,
        mask in 1u64..256,
    ) {
        let journal_path = tmp("proptest");
        record_reference_journal(&journal_path);
        let mut bytes = sole_segment_bytes(&journal_path);
        std::fs::remove_dir_all(&journal_path).unwrap();
        let platform = small_platform();
        let digests = prefix_digests(&bytes, &platform, &tmp("proptest-prefix"));

        let offset = (offset as usize) % bytes.len();
        bytes[offset] ^= mask as u8;
        let case_path = tmp("proptest-case");
        write_sole_segment(&case_path, &bytes);
        // CRC-32 catches every single-byte error, so replay refuses each
        // one, typed: the magic, or a torn frame at or before the byte.
        match trace::replay(&case_path, &platform, SolverConfig::default()) {
            Err(ReplayError::Journal(journal::JournalError::BadMagic { .. })) => {
                prop_assert!(offset < journal::MAGIC.len());
            }
            Err(ReplayError::Torn { .. }) => prop_assert!(offset >= journal::MAGIC.len()),
            other => panic!("replay of a corrupted journal: {other:?}"),
        }
        match StretchServe::recover(&case_path, platform, ServeConfig::default()) {
            Ok((serve, report)) => {
                // A corrupted byte must truncate at (or before) the record
                // containing it; whatever prefix survives, the recovered
                // state is bit-identical to that prefix's state.
                prop_assert!(offset >= journal::MAGIC.len());
                prop_assert_eq!(serve.state_digest(), digests[report.records]);
            }
            Err(RecoverError::Journal(journal::JournalError::BadMagic { .. })) => {
                prop_assert!(offset < journal::MAGIC.len());
            }
            // Checksum-colliding garbage surfaces as a typed corrupt-record
            // error — acceptable; panicking or silent divergence is not.
            Err(RecoverError::Corrupt { .. }) => {}
            Err(e) => panic!("unexpected recovery error {e}"),
        }
        std::fs::remove_dir_all(&case_path).unwrap();
    }
}
