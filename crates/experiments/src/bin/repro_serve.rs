//! Drives the reference stream through the crash-safe `stretch-serve`
//! service, and provides the two halves of the kill-and-recover harness.
//!
//! Modes, selected by `STRETCH_SERVE_MODE` (malformed values abort loudly,
//! like every other `STRETCH_*` knob):
//!
//! * unset or `verify` — feed the reference stream (plus deliberately
//!   malformed submissions) through the event bus, drain, and check the
//!   completions are bit-identical to `run_online_with` on the same
//!   instance, that the journal synced once per accepted submission plus
//!   once for the drain (group commit), and that under the default rotation
//!   policy no append outgrew the active segment's zero tail (so no sync
//!   committed a file-size change); prints the live counters, the journal
//!   syncs, the tail growths and the dead-letter reasons.
//! * `crash` — create a service on `STRETCH_SERVE_JOURNAL`, touch
//!   `STRETCH_SERVE_MARKER`, then submit the stream with a small delay per
//!   submission (`STRETCH_SERVE_SUBMIT_DELAY_US`, default 2000) and hang
//!   forever: the harness SIGKILLs the process at an arbitrary instant
//!   mid-stream, possibly mid-write.
//! * `resume` — recover from `STRETCH_SERVE_JOURNAL`, submit whatever part
//!   of the stream the journal does not already hold, drain, and check the
//!   final state is bit-identical to an uninterrupted in-process run.
//! * `rotate` — stream with the configured rotation policy, simulate a
//!   crash (drop without drain), and check recovery restores the newest
//!   snapshot and replays *only* the segment suffix past it, with state
//!   bit-identical to the pre-crash service.  Requires a segment threshold
//!   small enough that the stream actually rotates
//!   (`STRETCH_SERVE_SEGMENT_RECORDS`).
//! * `compact` — stream to completion under rotation and check the on-disk
//!   footprint is bounded: at most `STRETCH_SERVE_SNAPSHOT_RETAIN`
//!   snapshots survive, every sealed segment covered by the oldest kept
//!   snapshot is garbage-collected, and the compacted directory still
//!   recovers to the drained state.
//!
//! Every mode runs the default solver configuration (the warm simplex); the
//! segment and snapshot knobs (`STRETCH_SERVE_SEGMENT_RECORDS`,
//! `STRETCH_SERVE_SEGMENT_BYTES`, `STRETCH_SERVE_SNAPSHOT_EVERY`,
//! `STRETCH_SERVE_SNAPSHOT_RETAIN`) come via [`ServeConfig::from_env`].  In
//! crash mode, `STRETCH_SERVE_CRASH_POINT=<seal-index>:<point>` (point one
//! of `after-seal`, `after-snapshot-temp`, `after-snapshot-rename`) aborts
//! the process at that window of the given rotation — the deterministic
//! complement to the harness's arbitrary SIGKILL.

use std::path::PathBuf;
use std::time::Duration;

use stretch_core::online::run_online_with;
use stretch_core::refstream::reference_instance;
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_serve::{
    journal, spawn_service, RotationCrashPoint, RotationPolicy, ServeConfig, StretchServe,
    Submission,
};
use stretch_workload::Instance;

/// The reference stream every mode replays: the §5.3 bench instance.
fn reference_stream() -> Instance {
    reference_instance(3, 3, 20, 3)
}

fn env_var(name: &str) -> Option<String> {
    stretch_experiments::campaign::read_env(name, None, |_, raw| Some(raw.to_string()))
}

fn env_path(name: &str) -> Option<PathBuf> {
    env_var(name).map(PathBuf::from)
}

fn required_path(name: &str, mode: &str) -> PathBuf {
    env_path(name).unwrap_or_else(|| panic!("STRETCH_SERVE_MODE={mode} requires {name}"))
}

fn submit_delay() -> Duration {
    match env_var("STRETCH_SERVE_SUBMIT_DELAY_US") {
        None => Duration::from_micros(2000),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(us) => Duration::from_micros(us),
            Err(_) => panic!("STRETCH_SERVE_SUBMIT_DELAY_US must be an integer, got `{raw}`"),
        },
    }
}

/// Parses `STRETCH_SERVE_CRASH_POINT=<seal-index>:<point>` into the chaos
/// rotation abort, with the strict `STRETCH_*` policy on malformed values.
fn crash_point() -> Option<(u64, RotationCrashPoint)> {
    let raw = env_var("STRETCH_SERVE_CRASH_POINT")?;
    let (index, point) = raw.split_once(':').unwrap_or_else(|| {
        panic!("STRETCH_SERVE_CRASH_POINT must be `<seal-index>:<point>`, got `{raw}`")
    });
    let index = index.trim().parse::<u64>().unwrap_or_else(|_| {
        panic!("STRETCH_SERVE_CRASH_POINT seal index must be an integer, got `{raw}`")
    });
    let point = match point.trim() {
        "after-seal" => RotationCrashPoint::AfterSeal,
        "after-snapshot-temp" => RotationCrashPoint::AfterSnapshotTemp,
        "after-snapshot-rename" => RotationCrashPoint::AfterSnapshotRename,
        other => panic!(
            "STRETCH_SERVE_CRASH_POINT point must be after-seal, after-snapshot-temp or \
             after-snapshot-rename, got `{other}`"
        ),
    };
    Some((index, point))
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::from_env();
    config.chaos_rotation_abort = crash_point();
    config
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Uninterrupted in-process run of the reference stream — the ground truth
/// the resume mode compares against.
fn run_uninterrupted(instance: &Instance, config: ServeConfig) -> StretchServe {
    let mut path = std::env::temp_dir();
    path.push(format!("repro-serve-uninterrupted-{}", std::process::id()));
    let mut serve = StretchServe::create(&path, instance.platform.clone(), config)
        .expect("create uninterrupted journal");
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("journal append");
        assert!(outcome.is_accepted(), "reference job rejected: {outcome:?}");
    }
    serve.finish().expect("drain uninterrupted run");
    let _ = std::fs::remove_dir_all(&path);
    serve
}

fn verify_mode() {
    let instance = reference_stream();
    let solver = SolverConfig::default();
    let expected = run_online_with(&instance, OnlineVariant::Online, solver)
        .expect("run_online on the reference instance");

    let journal = env_path("STRETCH_SERVE_JOURNAL").unwrap_or_else(|| {
        let mut p = std::env::temp_dir();
        p.push(format!("repro-serve-verify-{}", std::process::id()));
        p
    });
    let config = config();
    let default_rotation = config.rotation == RotationPolicy::default();
    let serve =
        StretchServe::create(&journal, instance.platform.clone(), config).expect("create journal");
    let syncs_at_create = serve.journal_syncs();
    let (handle, consumer) = spawn_service(serve, 64);
    for (i, job) in instance.jobs.iter().enumerate() {
        // Interleave garbage with the real stream: it must all dead-letter
        // without disturbing the schedule.
        if i % 5 == 0 {
            handle
                .submit(Submission::new(f64::NAN, job.work, job.databank))
                .expect("bus send");
            handle
                .submit(Submission::new(job.release, -1.0, job.databank))
                .expect("bus send");
            handle
                .submit(Submission::new(job.release, job.work, usize::MAX))
                .expect("bus send");
        }
        handle
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("bus send");
    }
    handle.finish().expect("bus finish");
    let serve = consumer
        .join()
        .expect("consumer thread")
        .expect("serve loop");

    let metrics = serve.metrics();
    let syncs = serve.journal_syncs() - syncs_at_create;
    let growths = serve.tail_growths();
    println!(
        "repro_serve verify: {} journal_syncs={syncs} tail_growths={growths}",
        metrics.render(handle.depth())
    );
    for letter in serve.dlq().letters().take(6) {
        println!("  dead-letter: {}", letter.reason);
    }
    assert_eq!(metrics.accepted as usize, instance.jobs.len());
    assert_eq!(
        metrics.dead_lettered as usize,
        3 * instance.jobs.len().div_ceil(5)
    );
    // One durability point per acknowledged call: each accepted submission
    // syncs once (the decision it forces commits with it), a dead letter
    // never, the drain once.  A rotation adds its seal and snapshot syncs,
    // so the count is exact only while the journal stays in segment 0.
    let rotated = journal::scan_dir(&journal).expect("scan journal dir").open != Some(0);
    assert!(
        rotated || syncs == metrics.accepted + 1,
        "journal synced {syncs} times for {} accepted submissions and one drain",
        metrics.accepted
    );
    // Every frame overwrote the active segment's zero tail: no sync
    // committed a file-size change.  Only a custom policy with segments
    // longer than the tail can grow one.
    assert!(
        !default_rotation || growths == 0,
        "{growths} appends outgrew the zero tail under the default rotation policy"
    );
    assert_eq!(
        bits(serve.completions()),
        bits(&expected),
        "service completions diverged from run_online"
    );
    let _ = std::fs::remove_dir_all(&journal);
    println!("repro_serve: OK (backend {})", solver.backend.name());
}

fn crash_mode() {
    let instance = reference_stream();
    let journal = required_path("STRETCH_SERVE_JOURNAL", "crash");
    let marker = required_path("STRETCH_SERVE_MARKER", "crash");
    let delay = submit_delay();
    let mut serve = StretchServe::create(&journal, instance.platform.clone(), config())
        .expect("create journal");
    std::fs::write(&marker, b"serving\n").expect("write marker");
    for job in &instance.jobs {
        serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("journal append");
        std::thread::sleep(delay);
    }
    // Stream fully submitted but never drained: wait for the SIGKILL.
    println!("repro_serve crash mode: stream submitted, awaiting kill");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn resume_mode() {
    let instance = reference_stream();
    let journal = required_path("STRETCH_SERVE_JOURNAL", "resume");
    let (mut serve, report) = StretchServe::recover(&journal, instance.platform.clone(), config())
        .expect("recover from journal");
    println!(
        "repro_serve resume: {} records ({} from snapshot {:?} + {} replayed; {} submissions, \
         {} decisions), torn tail: {}",
        report.records,
        report.snapshot_records,
        report.snapshot,
        report.replayed_records,
        report.submissions,
        report.decisions,
        report.torn.map_or_else(
            || "none".to_string(),
            |r| format!("{r} ({} bytes)", report.truncated_bytes)
        ),
    );
    let done = usize::try_from(report.submissions).expect("submission count");
    assert!(
        done <= instance.jobs.len(),
        "journal holds {done} submissions but the stream has {}",
        instance.jobs.len()
    );
    for job in &instance.jobs[done..] {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("journal append");
        assert!(outcome.is_accepted(), "continuation rejected: {outcome:?}");
    }
    serve.finish().expect("drain recovered run");

    let reference = run_uninterrupted(&instance, config());
    assert_eq!(
        serve.state_digest(),
        reference.state_digest(),
        "recovered state digest diverged from the uninterrupted run"
    );
    assert_eq!(
        bits(serve.completions()),
        bits(reference.completions()),
        "recovered completions diverged from the uninterrupted run"
    );
    println!(
        "repro_serve: RECOVERED OK (digest {:016x}, {} jobs)",
        serve.state_digest(),
        serve.completions().len()
    );
}

fn rotate_mode() {
    let instance = reference_stream();
    let journal_dir = required_path("STRETCH_SERVE_JOURNAL", "rotate");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut serve = StretchServe::create(&journal_dir, instance.platform.clone(), config())
        .expect("create journal");
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("journal append");
        assert!(outcome.is_accepted(), "reference job rejected: {outcome:?}");
    }
    let crash_digest = serve.state_digest();
    drop(serve); // simulated crash: never drained, never finally synced

    let scan = journal::scan_dir(&journal_dir).expect("scan journal dir");
    assert!(
        !scan.snapshots.is_empty(),
        "the stream never rotated — lower STRETCH_SERVE_SEGMENT_RECORDS (policy: {:?})",
        config().rotation
    );
    let newest = *scan.snapshots.last().unwrap();
    let (mut recovered, report) =
        StretchServe::recover(&journal_dir, instance.platform.clone(), config())
            .expect("recover rotated journal");
    assert_eq!(
        report.snapshot,
        Some(newest),
        "recovery skipped the newest snapshot: {report:?}"
    );
    assert!(
        report.snapshot_records > 0 && report.replayed_records < report.records,
        "replay was not bounded by the snapshot: {report:?}"
    );
    assert_eq!(
        recovered.state_digest(),
        crash_digest,
        "suffix-only recovery diverged from the pre-crash state"
    );
    recovered.finish().expect("drain recovered run");
    let reference = run_uninterrupted(&instance, config());
    assert_eq!(
        bits(recovered.completions()),
        bits(reference.completions()),
        "recovered completions diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!(
        "repro_serve rotate: OK (snapshot {newest}, replayed {} of {} records)",
        report.replayed_records, report.records
    );
}

fn compact_mode() {
    let instance = reference_stream();
    let journal_dir = required_path("STRETCH_SERVE_JOURNAL", "compact");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let config = config();
    let retain = config.snapshot_retain.max(1);
    let mut serve = StretchServe::create(&journal_dir, instance.platform.clone(), config.clone())
        .expect("create journal");
    for job in &instance.jobs {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .expect("journal append");
        assert!(outcome.is_accepted(), "reference job rejected: {outcome:?}");
    }
    serve.finish().expect("drain");
    let digest = serve.state_digest();
    drop(serve);

    let scan = journal::scan_dir(&journal_dir).expect("scan journal dir");
    assert!(
        !scan.snapshots.is_empty(),
        "the stream never rotated — lower STRETCH_SERVE_SEGMENT_RECORDS (policy: {:?})",
        config.rotation
    );
    assert!(
        scan.snapshots.len() <= retain,
        "GC retained {} snapshots, cap is {retain}",
        scan.snapshots.len()
    );
    let oldest_kept = scan.snapshots[0];
    assert!(
        scan.sealed.iter().all(|&s| s > oldest_kept),
        "sealed segments {:?} covered by snapshot {oldest_kept} escaped garbage collection",
        scan.sealed
    );

    // The drain itself (`advance(∞)`) is not a journaled event, so recovery
    // lands just before it; finishing the recovered service must then reach
    // the drained state exactly.
    let (mut recovered, report) =
        StretchServe::recover(&journal_dir, instance.platform.clone(), config)
            .expect("recover compacted journal");
    recovered.finish().expect("drain recovered run");
    assert_eq!(
        recovered.state_digest(),
        digest,
        "recovery from the compacted directory diverged from the drained state"
    );
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!(
        "repro_serve compact: OK ({} sealed + {} snapshots on disk, replayed {} records \
         past snapshot {:?})",
        scan.sealed.len(),
        scan.snapshots.len(),
        report.replayed_records,
        report.snapshot
    );
}

fn main() {
    match env_var("STRETCH_SERVE_MODE").as_deref() {
        None | Some("verify") => verify_mode(),
        Some("crash") => crash_mode(),
        Some("resume") => resume_mode(),
        Some("rotate") => rotate_mode(),
        Some("compact") => compact_mode(),
        Some(other) => {
            panic!("STRETCH_SERVE_MODE must be verify, crash, resume, rotate or compact, got `{other}`")
        }
    }
}
