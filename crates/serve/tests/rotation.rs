//! Bounded-replay recovery contract of the rotated journal.
//!
//! * **Suffix-only replay**: after a stream long enough to seal several
//!   segments and publish snapshots, recovery restores the newest snapshot
//!   and replays only the records past it — asserted through the
//!   [`RecoveryReport`] record counts — yet reaches state bit-identical to
//!   the uninterrupted run, on every backend, warm and cold.
//! * **Snapshot corruption**: flipping *any* byte of the newest snapshot
//!   demotes recovery one rung (typed rejection, older snapshot wins) with
//!   no state divergence; a wrong embedded digest is equally rejected.
//! * **Mid-rotation crash states**: directory surgery reproduces each crash
//!   window of the seal → snapshot → reopen sequence; recovery diffs clean
//!   from every one of them.
//! * **Unrecoverable**: when every snapshot is rejected and segment 0 has
//!   been garbage-collected, recovery fails with the full typed rejection
//!   ladder instead of fabricating state.

use std::path::{Path, PathBuf};

use stretch_core::refstream::reference_instance;
use stretch_core::{BackendKind, SolverConfig};
use stretch_serve::journal::{self, RotationPolicy};
use stretch_serve::{
    snapshot, RecoverError, RecoveryReport, ServeConfig, SnapshotRejectReason, StretchServe,
    Submission,
};
use stretch_workload::Instance;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "stretch-serve-rotation-{name}-{}",
        std::process::id()
    ));
    p
}

/// A config rotating every `max_records` records, snapshotting every
/// `snapshot_every`th seal, retaining 2 snapshots.
fn rotated_config(solver: SolverConfig, max_records: u64, snapshot_every: u64) -> ServeConfig {
    let mut config = ServeConfig::with_solver(solver);
    config.solve_budget = std::time::Duration::from_secs(60);
    config.rotation = RotationPolicy {
        max_records,
        max_bytes: u64::MAX,
    };
    config.snapshot_every = snapshot_every;
    config.snapshot_retain = 2;
    config
}

/// Streams every job of `instance` through a fresh service *without*
/// draining it — the pre-crash half of each scenario — and returns the
/// service for digest capture before the simulated crash (drop).
fn stream_jobs(path: &Path, instance: &Instance, config: ServeConfig) -> StretchServe {
    let _ = std::fs::remove_dir_all(path);
    let mut serve = StretchServe::create(path, instance.platform.clone(), config).unwrap();
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "rejected: {outcome:?}");
    }
    serve
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Copies a (flat) journal directory byte-for-byte.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The internal consistency every successful report must satisfy.
fn assert_report_consistent(report: &RecoveryReport) {
    assert_eq!(
        report.records,
        report.snapshot_records as usize + report.replayed_records,
        "record accounting does not add up: {report:?}"
    );
    if report.snapshot.is_none() {
        assert_eq!(report.snapshot_records, 0);
    }
}

#[test]
fn suffix_only_replay_matches_uninterrupted_run_on_every_backend() {
    let instance = reference_instance(3, 3, 20, 3);
    for backend in BackendKind::ALL {
        for warm_start in [true, false] {
            let solver = SolverConfig {
                backend,
                warm_start,
                incremental: true,
            };
            let config = rotated_config(solver, 4, 3);
            let name = format!("suffix-{}-{warm_start}", backend.name());

            // Uninterrupted run: the ground truth for digest + completions.
            let full_path = tmp(&format!("{name}-full"));
            let mut full = stream_jobs(&full_path, &instance, config.clone());
            let crash_digest = full.state_digest();
            full.finish().unwrap();

            // Crashed run: same stream, dropped without finish().
            let path = tmp(&name);
            drop(stream_jobs(&path, &instance, config.clone()));

            let scan = journal::scan_dir(&path).unwrap();
            assert!(
                scan.sealed.len() >= 3,
                "{name}: want >= 3 sealed segments on disk, got {:?}",
                scan.sealed
            );
            assert!(scan.snapshots.len() >= 2, "{name}: {:?}", scan.snapshots);
            let newest = *scan.snapshots.last().unwrap();

            let (mut recovered, report) =
                StretchServe::recover(&path, instance.platform.clone(), config).unwrap();
            assert_report_consistent(&report);
            assert_eq!(report.snapshot, Some(newest), "{name}: wrong candidate");
            assert!(report.snapshot_records > 0, "{name}: empty snapshot");
            assert!(
                report.replayed_records > 0 && report.replayed_records < report.records,
                "{name}: replay was not a proper suffix: {report:?}"
            );
            assert_eq!(report.submissions, instance.jobs.len() as u64);
            assert!(report.rejected_snapshots.is_empty());
            assert_eq!(
                recovered.state_digest(),
                crash_digest,
                "{name}: snapshot + suffix replay diverged from the live state"
            );
            // Draining the recovered service lands on the uninterrupted
            // run's exact completions.
            recovered.finish().unwrap();
            assert_eq!(bits(recovered.completions()), bits(full.completions()));
            std::fs::remove_dir_all(&path).unwrap();
            std::fs::remove_dir_all(&full_path).unwrap();
        }
    }
}

/// The reference stream for the corruption/surgery scenarios: short enough
/// to sweep every snapshot byte, long enough to seal several segments.
fn surgery_instance() -> Instance {
    reference_instance(3, 3, 12, 7)
}

fn surgery_config() -> ServeConfig {
    rotated_config(SolverConfig::default(), 2, 1)
}

#[test]
fn corrupting_any_snapshot_byte_falls_back_one_rung_without_divergence() {
    let instance = surgery_instance();
    let pristine = tmp("snapcorrupt-pristine");
    let live = stream_jobs(&pristine, &instance, surgery_config());
    let crash_digest = live.state_digest();
    drop(live);

    let scan = journal::scan_dir(&pristine).unwrap();
    assert!(scan.snapshots.len() >= 2, "{:?}", scan.snapshots);
    let newest = *scan.snapshots.last().unwrap();
    let previous = scan.snapshots[scan.snapshots.len() - 2];
    let snapshot_bytes = std::fs::read(journal::snapshot_path(&pristine, newest)).unwrap();

    let case = tmp("snapcorrupt-case");
    for offset in 0..snapshot_bytes.len() {
        copy_dir(&pristine, &case);
        let mut corrupted = snapshot_bytes.clone();
        corrupted[offset] ^= 0x40;
        std::fs::write(journal::snapshot_path(&case, newest), &corrupted).unwrap();

        let (recovered, report) =
            StretchServe::recover(&case, instance.platform.clone(), surgery_config())
                .unwrap_or_else(|e| panic!("offset {offset}: {e}"));
        assert_report_consistent(&report);
        assert_eq!(
            report.snapshot,
            Some(previous),
            "offset {offset}: fallback skipped the next-older snapshot"
        );
        assert_eq!(report.rejected_snapshots.len(), 1, "offset {offset}");
        let (rejected_upto, reason) = &report.rejected_snapshots[0];
        assert_eq!(*rejected_upto, newest);
        assert!(
            matches!(reason, SnapshotRejectReason::Decode(_)),
            "offset {offset}: single-byte corruption must be caught at decode, got {reason:?}"
        );
        // The rejected snapshot can never heal: recovery deletes it.
        assert!(!journal::snapshot_path(&case, newest).exists());
        assert_eq!(
            recovered.state_digest(),
            crash_digest,
            "offset {offset}: fallback recovery diverged"
        );
    }
    std::fs::remove_dir_all(&case).unwrap();
    std::fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn wrong_embedded_digest_is_rejected_as_digest_mismatch() {
    let instance = surgery_instance();
    let pristine = tmp("digest-pristine");
    let live = stream_jobs(&pristine, &instance, surgery_config());
    let crash_digest = live.state_digest();
    drop(live);

    let scan = journal::scan_dir(&pristine).unwrap();
    let newest = *scan.snapshots.last().unwrap();
    // A snapshot whose framing and checksum are perfectly valid but whose
    // embedded digest disagrees with the state it carries: only the
    // recompute-and-compare layer can catch this.
    let snap_path = journal::snapshot_path(&pristine, newest);
    let mut snap = snapshot::load(&snap_path).unwrap();
    let claimed = snap.digest.wrapping_add(1);
    snap.digest = claimed;
    std::fs::write(&snap_path, snapshot::encode(&snap)).unwrap();

    let (recovered, report) =
        StretchServe::recover(&pristine, instance.platform.clone(), surgery_config()).unwrap();
    assert_report_consistent(&report);
    assert_eq!(report.rejected_snapshots.len(), 1);
    match &report.rejected_snapshots[0] {
        (upto, SnapshotRejectReason::DigestMismatch { expected, actual }) => {
            assert_eq!(*upto, newest);
            assert_eq!(*expected, claimed);
            assert_eq!(*actual, claimed.wrapping_sub(1));
        }
        other => panic!("expected a digest mismatch, got {other:?}"),
    }
    assert_eq!(recovered.state_digest(), crash_digest);
    std::fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn mid_rotation_crash_states_recover_to_the_live_state() {
    let instance = surgery_instance();
    let pristine = tmp("midrot-pristine");
    let live = stream_jobs(&pristine, &instance, surgery_config());
    let crash_digest = live.state_digest();
    drop(live);
    let scan = journal::scan_dir(&pristine).unwrap();
    let open = scan.open.expect("active segment");

    // Crash window 1 — after the seal rename, before the snapshot: the
    // chain ends in a sealed segment, no fresh `.open` exists yet.
    let case = tmp("midrot-afterseal");
    copy_dir(&pristine, &case);
    std::fs::rename(
        journal::segment_path(&case, open, false),
        journal::segment_path(&case, open, true),
    )
    .unwrap();
    let (recovered, report) =
        StretchServe::recover(&case, instance.platform.clone(), surgery_config()).unwrap();
    assert_report_consistent(&report);
    assert_eq!(recovered.state_digest(), crash_digest, "after-seal state");
    // Reopening never reuses a sealed segment: a fresh successor appears.
    let rescan = journal::scan_dir(&recovered.journal_path()).unwrap();
    assert_eq!(rescan.open, Some(open + 1));
    drop(recovered);
    std::fs::remove_dir_all(&case).unwrap();

    // Crash window 2 — after the snapshot temp write, before its rename:
    // same as window 1 plus an abandoned `.tmp`, which must be ignored.
    let case = tmp("midrot-aftertmp");
    copy_dir(&pristine, &case);
    std::fs::rename(
        journal::segment_path(&case, open, false),
        journal::segment_path(&case, open, true),
    )
    .unwrap();
    std::fs::write(case.join(format!("snapshot-{open:06}.tmp")), b"in-flight").unwrap();
    let (recovered, report) =
        StretchServe::recover(&case, instance.platform.clone(), surgery_config()).unwrap();
    assert_report_consistent(&report);
    assert!(report.rejected_snapshots.is_empty(), "trusted a .tmp file");
    assert_eq!(recovered.state_digest(), crash_digest, "after-tmp state");
    drop(recovered);
    std::fs::remove_dir_all(&case).unwrap();

    // Crash window 3 — after the snapshot rename, before the next segment
    // opens.  With `max_records: 1` every append rotates at the end of the
    // call that wrote it, so after any submit() the active segment holds
    // no frame yet (its magic header and zero tail); deleting that fresh
    // `.open` then reproduces the crash state exactly, and the newest
    // snapshot covers *every* record: replay is empty.
    let every_record = rotated_config(SolverConfig::default(), 1, 1);
    let case = tmp("midrot-aftersnap");
    let _ = std::fs::remove_dir_all(&case);
    let mut serve =
        StretchServe::create(&case, instance.platform.clone(), every_record.clone()).unwrap();
    let mut boundary = None;
    for job in &instance.jobs {
        serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        let scan = journal::scan_dir(&case).unwrap();
        let open = scan.open.unwrap();
        let (_, open_tail) = journal::load(&journal::segment_path(&case, open, false)).unwrap();
        let no_frame_yet = journal::TailStatus::Clean {
            valid_bytes: journal::MAGIC.len() as u64,
        };
        if !scan.snapshots.is_empty() && open_tail == no_frame_yet {
            boundary = Some((serve.state_digest(), open, *scan.snapshots.last().unwrap()));
            break;
        }
    }
    let (boundary_digest, open, newest) =
        boundary.expect("stream never landed on a rotation boundary");
    drop(serve);
    std::fs::remove_file(journal::segment_path(&case, open, false)).unwrap();
    let (recovered, report) =
        StretchServe::recover(&case, instance.platform.clone(), every_record).unwrap();
    assert_report_consistent(&report);
    assert_eq!(report.snapshot, Some(newest));
    assert_eq!(
        report.replayed_records, 0,
        "snapshot covers the whole stream; nothing should replay: {report:?}"
    );
    assert_eq!(
        recovered.state_digest(),
        boundary_digest,
        "after-snap state"
    );
    drop(recovered);
    std::fs::remove_dir_all(&case).unwrap();
    std::fs::remove_dir_all(&pristine).unwrap();
}

#[test]
fn recovery_is_unrecoverable_only_when_every_candidate_is_exhausted() {
    let instance = surgery_instance();
    let pristine = tmp("unrec-pristine");
    drop(stream_jobs(&pristine, &instance, surgery_config()));
    let scan = journal::scan_dir(&pristine).unwrap();
    assert!(
        !scan.sealed.contains(&0),
        "segment 0 should be garbage-collected: {:?}",
        scan.sealed
    );

    // Every snapshot corrupted + segment 0 long gone: nothing left to trust.
    let case = tmp("unrec-case");
    copy_dir(&pristine, &case);
    for &upto in &scan.snapshots {
        let p = journal::snapshot_path(&case, upto);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
    }
    match StretchServe::recover(&case, instance.platform.clone(), surgery_config()) {
        Err(RecoverError::Unrecoverable { rejected }) => {
            assert_eq!(rejected.len(), scan.snapshots.len());
            assert!(rejected
                .iter()
                .all(|(_, r)| matches!(r, SnapshotRejectReason::Decode(_))));
            // Failed recovery must not destroy evidence: the rejected
            // snapshots stay on disk for the operator.
            for &upto in &scan.snapshots {
                assert!(journal::snapshot_path(&case, upto).exists());
            }
        }
        Err(other) => panic!("expected Unrecoverable, got {other}"),
        Ok((_, report)) => panic!("expected Unrecoverable, recovered with {report:?}"),
    }
    std::fs::remove_dir_all(&case).unwrap();

    // A corrupt sealed segment inside the only remaining suffix is equally
    // fatal once the newest snapshot is gone — but with a *typed* ladder:
    // Decode for the snapshot, Segment for the torn sealed suffix.
    let newest = *scan.snapshots.last().unwrap();
    let previous = scan.snapshots[scan.snapshots.len() - 2];
    let suffix_seal = *scan
        .sealed
        .iter()
        .find(|&&s| s > previous && s <= newest)
        .expect("a sealed segment between the two snapshots");
    let case = tmp("unrec-seg-case");
    copy_dir(&pristine, &case);
    let snap_path = journal::snapshot_path(&case, newest);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap_path, &bytes).unwrap();
    let seg_path = journal::segment_path(&case, suffix_seal, true);
    let seg = std::fs::read(&seg_path).unwrap();
    std::fs::write(&seg_path, &seg[..seg.len() - 3]).unwrap();
    match StretchServe::recover(&case, instance.platform.clone(), surgery_config()) {
        Err(RecoverError::Unrecoverable { rejected }) => {
            assert!(matches!(
                rejected[0],
                (u, SnapshotRejectReason::Decode(_)) if u == newest
            ));
            assert!(
                rejected[1..].iter().all(|(_, r)| matches!(
                    r,
                    SnapshotRejectReason::Segment { segment, .. } if *segment == suffix_seal
                )),
                "{rejected:?}"
            );
        }
        Err(other) => panic!("expected Unrecoverable, got {other}"),
        Ok((_, report)) => panic!("expected Unrecoverable, recovered with {report:?}"),
    }
    std::fs::remove_dir_all(&case).unwrap();
    std::fs::remove_dir_all(&pristine).unwrap();
}
