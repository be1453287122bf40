//! The kill-and-recover harness: SIGKILL `repro_serve` at an arbitrary
//! instant mid-stream (possibly mid-journal-write), recover by replaying the
//! journal, continue the stream, and require the final scheduler state to be
//! bit-identical to an uninterrupted run, recovered warm and cold.  The
//! child always runs the default configuration (the warm simplex); the
//! cell's warm/cold setting applies to the recovery and to the
//! uninterrupted reference, so a cold recovery of a warm journal is checked
//! too.  Primal-dual recovery is covered in process, by the serve crate's
//! `rotation.rs` and `serve_replay.rs`.
//!
//! The child process is the `crash` mode of `repro_serve`: it touches a
//! marker file and then submits the reference stream with a small delay per
//! submission, so the parent's SIGKILL lands at a genuinely arbitrary point
//! — before the stream, between two submissions, inside a `write`/`fsync`,
//! or after the last submission.  Whatever tail the journal is left with,
//! recovery must reach the valid prefix and the continued run must converge
//! to the uninterrupted result.  This is the CI serve-smoke leg.
//!
//! Two rotation-aware legs ride along: the same SIGKILL with a segment
//! threshold small enough that the kill lands in a *rotated* directory
//! (recovery goes through the snapshot ladder, not full replay), and a
//! deterministic sweep of the three seal → snapshot → reopen crash windows
//! via `STRETCH_SERVE_CRASH_POINT`, where the child aborts itself at the
//! exact instant instead of relying on kill-timing luck.

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use stretch_core::refstream::reference_instance;
use stretch_core::SolverConfig;
use stretch_serve::journal::RotationPolicy;
use stretch_serve::{ServeConfig, StretchServe, Submission};
use stretch_workload::Instance;

/// Kills the child on drop so a failing assertion never leaks a hung
/// `repro_serve` process.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("serve-recover-{name}-{}", std::process::id()));
    p
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn run_uninterrupted(instance: &Instance, solver: SolverConfig, name: &str) -> StretchServe {
    let path = tmp(name);
    let mut serve = StretchServe::create(
        &path,
        instance.platform.clone(),
        ServeConfig::with_solver(solver),
    )
    .unwrap();
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted());
    }
    serve.finish().unwrap();
    std::fs::remove_dir_all(&path).unwrap();
    serve
}

/// The rotation the child is driven with (`STRETCH_SERVE_SEGMENT_RECORDS=4`)
/// mirrored on the recovery side: rotate every 4 records, snapshot every
/// seal, retain 2 snapshots.
fn rotated(solver: SolverConfig) -> ServeConfig {
    let mut config = ServeConfig::with_solver(solver);
    config.rotation = RotationPolicy {
        max_records: 4,
        max_bytes: u64::MAX,
    };
    config.snapshot_every = 1;
    config.snapshot_retain = 2;
    config
}

#[test]
fn sigkill_mid_stream_recovers_bit_identically_warm_and_cold() {
    let instance = reference_instance(3, 3, 20, 3);
    for warm_start in [true, false] {
        let solver = SolverConfig::default().with_warm_start(warm_start);
        let cell = format!("warm-{warm_start}");
        let journal = tmp(&format!("journal-{cell}"));
        let marker = tmp(&format!("marker-{cell}"));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&marker);

        let child = Command::new(env!("CARGO_BIN_EXE_repro_serve"))
            .env("STRETCH_SERVE_MODE", "crash")
            .env("STRETCH_SERVE_JOURNAL", &journal)
            .env("STRETCH_SERVE_MARKER", &marker)
            .env("STRETCH_SERVE_SUBMIT_DELAY_US", "2000")
            .spawn()
            .expect("spawn repro_serve crash mode");
        let mut child = ChildGuard(child);

        // Wait for the service to come up, then kill it mid-stream.
        let deadline = Instant::now() + Duration::from_secs(120);
        while !marker.exists() {
            assert!(
                Instant::now() < deadline,
                "{cell}: repro_serve never touched its marker"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(23));
        child.0.kill().expect("SIGKILL repro_serve");
        child.0.wait().expect("reap repro_serve");

        // Recover in-process, continue the stream, drain.
        let (mut recovered, report) = StretchServe::recover(
            &journal,
            instance.platform.clone(),
            ServeConfig::with_solver(solver),
        )
        .unwrap_or_else(|e| panic!("{cell}: recovery failed: {e}"));
        let done = report.submissions as usize;
        assert!(
            done <= instance.jobs.len(),
            "{cell}: journal holds {done} submissions"
        );
        for job in &instance.jobs[done..] {
            let outcome = recovered
                .submit(Submission::new(job.release, job.work, job.databank))
                .unwrap();
            assert!(outcome.is_accepted(), "{cell}: {outcome:?}");
        }
        recovered.finish().unwrap();

        let reference = run_uninterrupted(&instance, solver, &format!("full-{cell}"));
        assert_eq!(
            recovered.state_digest(),
            reference.state_digest(),
            "{cell}: killed at submission {done} (torn tail: {:?}), recovered state \
                 diverged from the uninterrupted run",
            report.torn
        );
        assert_eq!(
            bits(recovered.completions()),
            bits(reference.completions()),
            "{cell}: recovered completions diverged"
        );

        std::fs::remove_dir_all(&journal).unwrap();
        std::fs::remove_file(&marker).unwrap();
    }
}

#[test]
fn sigkill_under_rotation_recovers_through_the_snapshot_ladder() {
    let instance = reference_instance(3, 3, 20, 3);
    let solver = SolverConfig::default();
    let journal = tmp("journal-rotation");
    let marker = tmp("marker-rotation");
    let _ = std::fs::remove_dir_all(&journal);
    let _ = std::fs::remove_file(&marker);

    let child = Command::new(env!("CARGO_BIN_EXE_repro_serve"))
        .env("STRETCH_SERVE_MODE", "crash")
        .env("STRETCH_SERVE_JOURNAL", &journal)
        .env("STRETCH_SERVE_MARKER", &marker)
        .env("STRETCH_SERVE_SUBMIT_DELAY_US", "2000")
        .env("STRETCH_SERVE_SEGMENT_RECORDS", "4")
        .spawn()
        .expect("spawn repro_serve crash mode");
    let mut child = ChildGuard(child);

    let deadline = Instant::now() + Duration::from_secs(120);
    while !marker.exists() {
        assert!(
            Instant::now() < deadline,
            "rotation: repro_serve never touched its marker"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(37));
    child.0.kill().expect("SIGKILL repro_serve");
    child.0.wait().expect("reap repro_serve");

    let (mut recovered, report) =
        StretchServe::recover(&journal, instance.platform.clone(), rotated(solver))
            .unwrap_or_else(|e| panic!("rotation: recovery failed: {e}"));
    // Whenever the kill landed past the first seal, recovery must have gone
    // through a snapshot and replayed only the suffix.
    assert_eq!(
        report.records,
        report.snapshot_records as usize + report.replayed_records,
        "rotation: record accounting does not add up: {report:?}"
    );
    if report.snapshot.is_some() {
        assert!(
            report.snapshot_records > 0,
            "rotation: empty snapshot trusted: {report:?}"
        );
        assert!(
            report.replayed_records < report.records,
            "rotation: snapshot did not bound the replay: {report:?}"
        );
    }
    let done = report.submissions as usize;
    assert!(done <= instance.jobs.len());
    for job in &instance.jobs[done..] {
        let outcome = recovered
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "rotation: {outcome:?}");
    }
    recovered.finish().unwrap();

    let reference = run_uninterrupted(&instance, solver, "full-rotation");
    assert_eq!(
        recovered.state_digest(),
        reference.state_digest(),
        "rotation: killed at submission {done} (snapshot {:?}, torn {:?}), recovered \
         state diverged from the uninterrupted run",
        report.snapshot,
        report.torn
    );
    assert_eq!(
        bits(recovered.completions()),
        bits(reference.completions()),
        "rotation: recovered completions diverged"
    );
    std::fs::remove_dir_all(&journal).unwrap();
    std::fs::remove_file(&marker).unwrap();
}

#[test]
fn chaos_rotation_crash_points_recover_bit_identically() {
    let instance = reference_instance(3, 3, 20, 3);
    let solver = SolverConfig::default();
    for point in ["after-seal", "after-snapshot-temp", "after-snapshot-rename"] {
        let journal = tmp(&format!("journal-chaos-{point}"));
        let marker = tmp(&format!("marker-chaos-{point}"));
        let _ = std::fs::remove_dir_all(&journal);
        let _ = std::fs::remove_file(&marker);

        // The child aborts *itself* at the requested window of the second
        // seal — no kill-timing needed; just reap it.
        let child = Command::new(env!("CARGO_BIN_EXE_repro_serve"))
            .env("STRETCH_SERVE_MODE", "crash")
            .env("STRETCH_SERVE_JOURNAL", &journal)
            .env("STRETCH_SERVE_MARKER", &marker)
            .env("STRETCH_SERVE_SUBMIT_DELAY_US", "0")
            .env("STRETCH_SERVE_SEGMENT_RECORDS", "4")
            .env("STRETCH_SERVE_CRASH_POINT", format!("1:{point}"))
            .spawn()
            .expect("spawn repro_serve crash mode");
        let mut child = ChildGuard(child);
        let deadline = Instant::now() + Duration::from_secs(120);
        let status = loop {
            if let Some(status) = child.0.try_wait().expect("poll repro_serve") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "{point}: repro_serve never reached its crash point"
            );
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(
            !status.success(),
            "{point}: child exited cleanly instead of aborting mid-rotation"
        );

        let (mut recovered, report) =
            StretchServe::recover(&journal, instance.platform.clone(), rotated(solver))
                .unwrap_or_else(|e| panic!("{point}: recovery failed: {e}"));
        let done = report.submissions as usize;
        assert!(done <= instance.jobs.len());
        for job in &instance.jobs[done..] {
            let outcome = recovered
                .submit(Submission::new(job.release, job.work, job.databank))
                .unwrap();
            assert!(outcome.is_accepted(), "{point}: {outcome:?}");
        }
        recovered.finish().unwrap();

        let reference = run_uninterrupted(&instance, solver, &format!("full-chaos-{point}"));
        assert_eq!(
            recovered.state_digest(),
            reference.state_digest(),
            "{point}: aborted at submission {done} (snapshot {:?}), recovered state \
             diverged from the uninterrupted run",
            report.snapshot
        );
        assert_eq!(
            bits(recovered.completions()),
            bits(reference.completions()),
            "{point}: recovered completions diverged"
        );
        std::fs::remove_dir_all(&journal).unwrap();
        std::fs::remove_file(&marker).unwrap();
    }
}
