//! A stream with a history: about 2000 jobs at a tenth of full load, where
//! the jobs pending at a decision are a handful and the jobs ever staged
//! are thousands.  The other serve suites stream at most ~20 jobs, where
//! the two sets barely differ.
//!
//! * **Backlog**: after every submission the scheduler's backlog equals a
//!   count over its remaining works.
//! * **Recovery**: the rotated stream (sealed segments, snapshots, garbage
//!   collection) is crashed and recovered to the pre-crash digest, and
//!   drains bit-identical to `run_online_with`.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stretch_core::online::{run_online_with, PENDING_REMAINING_EPS};
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_platform::{PlatformConfig, PlatformGenerator};
use stretch_serve::journal::{self, RotationPolicy};
use stretch_serve::{ServeConfig, StretchServe, Submission};
use stretch_workload::{Instance, WorkloadConfig, WorkloadGenerator};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("stretch-serve-long-{name}-{}", std::process::id()));
    p
}

/// About `target_jobs` jobs on 3 sites × 3 databanks at availability 0.6
/// and density 0.1: the light-load stream shape of the `serve-light`
/// benchmark workload, drawn as the experiment runner draws a
/// target-size instance.
fn light_stream(target_jobs: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let platform = PlatformGenerator::new(PlatformConfig::new(3, 3, 0.6)).generate(&mut rng);
    let workload = |window| WorkloadConfig {
        density: 0.1,
        window,
        scan_fraction: 1.0,
        ..Default::default()
    };
    let rate = WorkloadGenerator::new(workload(1.0))
        .expected_job_count(&platform)
        .max(1e-9);
    WorkloadGenerator::new(workload((target_jobs as f64 / rate).max(1e-3)))
        .generate_instance(platform, &mut rng)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_long_rotated_stream_keeps_its_backlog_and_recovers_bit_identical() {
    let instance = light_stream(2000, 2006);
    let n = instance.num_jobs();
    assert!(n > 1500, "the stream drew only {n} jobs");

    let config = ServeConfig {
        // Every decision at the configured tier, as `run_online_with`
        // takes it.
        solve_budget: Duration::from_secs(60),
        rotation: RotationPolicy {
            max_records: 500,
            max_bytes: u64::MAX,
        },
        snapshot_every: 2,
        snapshot_retain: 2,
        ..ServeConfig::default()
    };

    let path = tmp("rotated");
    let _ = std::fs::remove_dir_all(&path);
    let mut serve = StretchServe::create(&path, instance.platform.clone(), config.clone()).unwrap();
    let mut max_backlog = 0;
    for (i, job) in instance.jobs.iter().enumerate() {
        let outcome = serve
            .submit(Submission::new(job.release, job.work, job.databank))
            .unwrap();
        assert!(outcome.is_accepted(), "job {i} rejected: {outcome:?}");
        let scheduler = serve.scheduler();
        let unfinished = scheduler
            .remaining()
            .iter()
            .filter(|&&r| r > PENDING_REMAINING_EPS)
            .count();
        assert_eq!(scheduler.backlog(), unfinished, "after job {i}");
        max_backlog = max_backlog.max(unfinished);
    }
    // The history is what the test is about: far more jobs staged than
    // ever pending at once.
    assert!(
        max_backlog * 10 < n,
        "backlog peaked at {max_backlog} of {n} jobs"
    );
    let crash_digest = serve.state_digest();
    drop(serve);

    let scan = journal::scan_dir(&path).unwrap();
    assert!(
        scan.snapshots.len() >= 2,
        "want snapshots on disk, got {:?}",
        scan.snapshots
    );
    assert!(
        scan.sealed.first().is_some_and(|&first| first > 0),
        "garbage collection should have deleted segment 0: {:?}",
        scan.sealed
    );

    let (mut recovered, report) =
        StretchServe::recover(&path, instance.platform.clone(), config).unwrap();
    assert!(report.snapshot.is_some(), "recovery replayed from scratch");
    assert!(report.replayed_records < report.records);
    assert_eq!(recovered.state_digest(), crash_digest);
    recovered.finish().unwrap();

    let expected = run_online_with(&instance, OnlineVariant::Online, SolverConfig::default())
        .expect("the on-line heuristic completes the stream");
    assert_eq!(bits(recovered.completions()), bits(&expected));
    std::fs::remove_dir_all(&path).unwrap();
}
