//! On-disk contract of a recorded run, a drained journal directory, as
//! [`trace::replay`] reads it when the recording spans a rotated chain of
//! sealed segments plus the active one: for *any* truncation or single-byte
//! corruption of *any* segment of the chain, parsing the segment recovers a
//! bit-exact record prefix, and replay refuses the recording with a typed
//! error naming the damaged segment, while the whole chain replays to the
//! `Drained` record's digest.  It never panics and never misdecodes.
//!
//! The truncation sweep is exhaustive (every byte offset of every segment);
//! the proptest adds random single-byte corruption on top.  The sweeps of a
//! single unrotated segment, with recovery's side of the same bytes, live in
//! `torn_journal.rs`.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use stretch_core::SolverConfig;
use stretch_platform::fixtures::small_platform;
use stretch_serve::journal::{self, JournalError, RotationPolicy};
use stretch_serve::trace::{self, ReplayError};
use stretch_serve::{JournalRecord, Recording, ServeConfig, Submission};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("stretch-trace-fmt-{name}-{}", std::process::id()));
    p
}

/// The journal tests' reference stream: six jobs `(release, work, databank)`
/// on the small fixture platform.
const REFERENCE_STREAM: [(f64, f64, u64); 6] = [
    (0.0, 300.0, 0),
    (0.0, 60.0, 1),
    (2.5, 120.0, 0),
    (4.0, 30.0, 1),
    (6.0, 90.0, 0),
    (7.5, 45.0, 1),
];

/// One segment file of a recorded chain.
struct Segment {
    index: u64,
    sealed: bool,
    bytes: Vec<u8>,
}

/// Records [`REFERENCE_STREAM`] into `dir`, rotating every four records and never snapshotting, so nothing is
/// garbage-collected: the chain starts at segment 0 and ends in the active
/// segment holding the `Drained` record.  Returns the chain and the drained
/// digest; `dir` is removed.
fn record_rotated_chain(dir: &Path) -> (Vec<Segment>, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let config = ServeConfig {
        rotation: RotationPolicy {
            max_records: 4,
            max_bytes: u64::MAX,
        },
        snapshot_every: u64::MAX,
        ..ServeConfig::default()
    };
    let submissions: Vec<Submission> = REFERENCE_STREAM
        .iter()
        .map(|&(release, work, databank)| Submission::new(release, work, databank as usize))
        .collect();
    let run = trace::record_run(dir, small_platform(), config, &submissions).unwrap();
    assert_eq!(run.accepted, 6);

    let scan = journal::scan_dir(dir).unwrap();
    assert!(scan.snapshots.is_empty());
    assert!(scan.sealed.len() >= 2, "reference run did not rotate");
    let chain = scan
        .chain()
        .into_iter()
        .map(|index| {
            let sealed = scan.sealed.contains(&index);
            let bytes = std::fs::read(journal::segment_path(dir, index, sealed)).unwrap();
            Segment {
                index,
                sealed,
                bytes,
            }
        })
        .collect();
    std::fs::remove_dir_all(dir).unwrap();
    (chain, run.digest)
}

/// Writes `chain` into a fresh directory `dir`, segment `at` replaced by
/// `replacement`.
fn write_chain(dir: &Path, chain: &[Segment], at: usize, replacement: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for (i, segment) in chain.iter().enumerate() {
        let bytes = if i == at { replacement } else { &segment.bytes };
        std::fs::write(
            journal::segment_path(dir, segment.index, segment.sealed),
            bytes,
        )
        .unwrap();
    }
}

/// Parses every segment of an untouched chain, each ending clean.
fn chain_records(chain: &[Segment]) -> Vec<Vec<JournalRecord>> {
    chain
        .iter()
        .map(|segment| {
            let (records, tail) = journal::parse(&segment.bytes, Path::new("chain")).unwrap();
            assert_eq!(
                tail,
                journal::TailStatus::Clean {
                    valid_bytes: segment.bytes.len() as u64
                }
            );
            records
        })
        .collect()
}

/// `(release, work, databank)` triples as bit patterns.
fn bits(stream: impl Iterator<Item = (f64, f64, u64)>) -> Vec<(u64, u64, u64)> {
    stream
        .map(|(release, work, databank)| (release.to_bits(), work.to_bits(), databank))
        .collect()
}

#[test]
fn parsing_every_truncation_offset_recovers_an_exact_prefix() {
    let (chain, digest) = record_rotated_chain(&tmp("truncate-record"));
    let full = chain_records(&chain);
    let platform = small_platform();
    let solver = SolverConfig::default();
    let last = chain.len() - 1;

    let case = tmp("truncate-case");
    write_chain(&case, &chain, last, &chain[last].bytes);
    assert_eq!(
        bits(Recording::load(&case).unwrap().submissions()),
        bits(REFERENCE_STREAM.into_iter())
    );
    let whole = trace::replay(&case, &platform, solver).unwrap();
    assert!(whole.matches_recorded);
    assert_eq!(whole.digest, digest);

    for (at, segment) in chain.iter().enumerate() {
        // Each segment ends exactly at its last frame, so every cut short
        // of the whole file loses at least that frame.
        for cut in 0..segment.bytes.len() {
            let context = format!("segment {} cut {cut}", segment.index);
            let bytes = &segment.bytes[..cut];
            // `Some(torn)` once the magic survives: whether the cut lands
            // inside a frame rather than on a frame boundary.
            let torn = match journal::parse(bytes, Path::new("cut")) {
                Ok((records, tail)) => {
                    assert!(cut >= journal::MAGIC.len(), "{context}: torn magic");
                    assert!(
                        records.len() < full[at].len(),
                        "{context}: kept every frame"
                    );
                    assert_eq!(records[..], full[at][..records.len()], "{context}");
                    assert!(
                        tail.valid_bytes() as usize <= cut,
                        "{context}: prefix past cut"
                    );
                    Some(tail.torn_at().is_some())
                }
                Err(JournalError::BadMagic { .. }) => {
                    assert!(cut < journal::MAGIC.len(), "{context}: spurious bad-magic");
                    None
                }
                Err(e) => panic!("{context}: unexpected parse error {e}"),
            };

            write_chain(&case, &chain, at, bytes);
            match (trace::replay(&case, &platform, solver), torn) {
                (Err(ReplayError::Journal(JournalError::BadMagic { .. })), None) => {}
                (Err(ReplayError::Torn { segment: torn, .. }), Some(true)) => {
                    assert_eq!(torn, segment.index, "{context}: torn elsewhere");
                }
                // Only the active segment holds the drain record.
                (Err(ReplayError::NotDrained), Some(false)) => assert_eq!(at, last, "{context}"),
                // A sealed segment cut at a frame boundary loses the
                // submission it ends in (rotation follows a submission's
                // record): the next segment's first one is out of sequence.
                (Err(ReplayError::Record { .. }), Some(false)) => {
                    assert!(at < last, "{context}");
                }
                (other, _) => panic!("{context}: unexpected replay {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&case).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parsing_corrupted_bytes_never_panics_or_misdecodes(
        pick in 0u64..1_000,
        offset in 0u64..1_000_000,
        mask in 1u64..256,
    ) {
        let (chain, _) = record_rotated_chain(&tmp("proptest-record"));
        let full = chain_records(&chain);
        let at = (pick as usize) % chain.len();
        let segment = &chain[at];
        let mut bytes = segment.bytes.clone();
        let offset = (offset as usize) % bytes.len();
        bytes[offset] ^= mask as u8;

        // CRC-32 catches every single-byte error: the frame holding the
        // byte is torn, and only the frames before it survive, bit-exact.
        match journal::parse(&bytes, Path::new("corrupt")) {
            Ok((records, tail)) => {
                prop_assert!(offset >= journal::MAGIC.len());
                prop_assert!(records.len() < full[at].len());
                prop_assert_eq!(&records[..], &full[at][..records.len()]);
                prop_assert!(tail.torn_at().is_some_and(|torn| torn as usize <= offset));
            }
            Err(JournalError::BadMagic { .. }) => {
                prop_assert!(offset < journal::MAGIC.len());
            }
            Err(e) => panic!("offset {offset}: unexpected parse error {e}"),
        }

        // Replay refuses every corrupted chain, typed, at the segment
        // holding the byte.
        let case = tmp("proptest-case");
        write_chain(&case, &chain, at, &bytes);
        match trace::replay(&case, &small_platform(), SolverConfig::default()) {
            Err(ReplayError::Journal(JournalError::BadMagic { .. })) => {
                prop_assert!(offset < journal::MAGIC.len());
            }
            Err(ReplayError::Torn { segment: torn, .. }) => {
                prop_assert!(offset >= journal::MAGIC.len());
                prop_assert_eq!(torn, segment.index);
            }
            other => panic!("segment {} offset {offset}: replayed {other:?}", segment.index),
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
}
