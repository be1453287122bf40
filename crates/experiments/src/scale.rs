//! The scaling-trajectory study recorded as `BENCH_scale.json`.
//!
//! ROADMAP's "Scale experiments" item asks for the campaign engine's
//! throughput trajectory as instances grow towards paper scale and as the
//! thread pool widens.  This module measures both axes for each min-cost
//! backend on the on-line scheduler (the paper's recommended policy and the
//! engine's hot path):
//!
//! * `scale/jobs-per-sec/n<N>/<backend>` — scheduling throughput on
//!   instances of ~`N` jobs (full parallelism);
//! * `scale/wall-clock/n<N>/<backend>` — wall-clock seconds for that rung;
//! * `scale/jobs-per-sec/threads<T>-n<N>/<backend>` — throughput at the
//!   largest `N` with the pool pinned to `T` workers (the speedup
//!   trajectory; `N` is in the key so studies at different sizes can never
//!   silently overwrite each other's rungs);
//! * `scale/wall-clock/threads<T>-n<N>/<backend>` — wall-clock for that
//!   rung.
//!
//! Each rung repeats its pass until the passes add up to
//! [`ScaleSettings::min_rung_seconds`] (at least one pass) and records the
//! median pass: a rung of a few hundredths of a second timed once swings
//! by a factor of two from one run to the next.
//!
//! The flat `"section/name" → seconds-or-rate` format is the same one
//! `BENCH_baseline.json` uses ([`stretch_metrics::baseline`]), so the two
//! trajectories diff with the same tooling.

use crate::campaign::instance_seed;
use crate::config::ExperimentConfig;
use crate::heuristics::HeuristicKind;
use crate::runner::{draw_instance_scaled, InstanceScale};
use rayon::prelude::*;
use stretch_core::SolverConfig;

/// Settings of one scale study.
#[derive(Clone, Debug)]
pub struct ScaleSettings {
    /// Instance sizes (expected jobs) for the n-scaling axis.
    pub job_sizes: Vec<usize>,
    /// Thread counts for the speedup axis (measured at the largest size).
    pub thread_counts: Vec<usize>,
    /// Instances measured per rung.
    pub instances_per_point: usize,
    /// Base seed (instances are derived with [`instance_seed`]).
    pub base_seed: u64,
    /// Wall-clock seconds each rung spends at least: its pass repeats until
    /// the passes add up to this, and the rung records the median pass.
    /// Zero times one pass.
    pub min_rung_seconds: f64,
}

impl Default for ScaleSettings {
    fn default() -> Self {
        // Sized so the full study (both backends, both axes) completes in a
        // few minutes even on one core: the on-line scheduler's
        // per-instance cost grows roughly cubically in n, so the largest
        // rung dominates.  `instances_per_point` must cover the widest
        // thread rung (the pool clamps to the item count, so fewer items
        // than threads would silently measure a narrower pool).
        ScaleSettings {
            job_sizes: vec![50, 100, 200],
            thread_counts: vec![1, 2, 4],
            instances_per_point: 4,
            base_seed: 2006,
            min_rung_seconds: 1.0,
        }
    }
}

/// A bounded smoke variant for CI: one rung per axis, tiny instances.
impl ScaleSettings {
    /// CI-sized study: still exercises both axes and both backends, in
    /// seconds instead of minutes.
    pub fn smoke() -> Self {
        ScaleSettings {
            job_sizes: vec![20, 40],
            thread_counts: vec![1, 2],
            instances_per_point: 2,
            base_seed: 2006,
            min_rung_seconds: 0.0,
        }
    }
}

/// One measured rung of the trajectory.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// `BENCH_scale.json` key.
    pub key: String,
    /// Measured value (jobs/sec for throughput keys, seconds for wall-clock
    /// keys).
    pub value: f64,
}

/// The reference configuration the study schedules (3 sites, the platform
/// on which every heuristic of the paper runs).
fn scale_config() -> ExperimentConfig {
    ExperimentConfig {
        sites: 3,
        databanks: 3,
        availability: 0.6,
        density: 1.5,
        ..Default::default()
    }
}

/// Schedules `instances` instances of ~`jobs` jobs on the on-line scheduler
/// and returns `(total_jobs, wall_clock_seconds)`.  Fans out over the
/// current thread-pool width; the caller pins the width (`rayon::
/// with_threads`) for the speedup axis.
fn measure(jobs: usize, instances: usize, base_seed: u64, solver: SolverConfig) -> (usize, f64) {
    let config = scale_config();
    let work: Vec<usize> = (0..instances).collect();
    let start = std::time::Instant::now();
    let counts: Vec<usize> = work
        .par_iter()
        .map(|&i| {
            let seed = instance_seed(base_seed, jobs, i);
            let instance = draw_instance_scaled(&config, InstanceScale::TargetJobs(jobs), seed);
            let scheduler = HeuristicKind::Online.scheduler_with(solver);
            scheduler
                .schedule(&instance)
                .expect("online scheduler never fails on reference configs");
            instance.num_jobs()
        })
        .collect();
    (counts.iter().sum(), start.elapsed().as_secs_f64())
}

/// One rung: [`measure`] repeated until the passes add up to
/// `settings.min_rung_seconds` (at least once), returning the jobs of one
/// pass (every pass draws the same instances) and the median pass time.
fn measure_rung(settings: &ScaleSettings, jobs: usize, solver: SolverConfig) -> (usize, f64) {
    let mut walls = Vec::new();
    let mut spent = 0.0;
    let mut total_jobs = 0;
    while walls.is_empty() || spent < settings.min_rung_seconds {
        let (pass_jobs, wall) = measure(
            jobs,
            settings.instances_per_point,
            settings.base_seed,
            solver,
        );
        total_jobs = pass_jobs;
        spent += wall;
        walls.push(wall);
    }
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    let median = if walls.len() % 2 == 1 {
        walls[mid]
    } else {
        (walls[mid - 1] + walls[mid]) / 2.0
    };
    (total_jobs, median)
}

/// Runs the full study: both axes, both backends.
pub fn run_scale_study(settings: &ScaleSettings) -> Vec<ScalePoint> {
    let widest = settings.thread_counts.iter().copied().max().unwrap_or(1);
    assert!(
        settings.instances_per_point >= widest,
        "instances_per_point ({}) must cover the widest thread rung ({widest}): \
         the pool clamps to the item count, so the rung would silently measure \
         a narrower pool",
        settings.instances_per_point,
    );
    let mut points = Vec::new();
    for solver in SolverConfig::all_backends() {
        let backend = solver.backend.name();
        for &n in &settings.job_sizes {
            let (total_jobs, wall) = measure_rung(settings, n, solver);
            points.push(ScalePoint {
                key: format!("scale/jobs-per-sec/n{n}/{backend}"),
                value: total_jobs as f64 / wall.max(1e-12),
            });
            points.push(ScalePoint {
                key: format!("scale/wall-clock/n{n}/{backend}"),
                value: wall,
            });
        }
        let n = *settings.job_sizes.last().expect("at least one size");
        for &threads in &settings.thread_counts {
            let (total_jobs, wall) =
                rayon::with_threads(threads, || measure_rung(settings, n, solver));
            points.push(ScalePoint {
                key: format!("scale/jobs-per-sec/threads{threads}-n{n}/{backend}"),
                value: total_jobs as f64 / wall.max(1e-12),
            });
            points.push(ScalePoint {
                key: format!("scale/wall-clock/threads{threads}-n{n}/{backend}"),
                value: wall,
            });
        }
    }
    points
}

/// Renders the study as an aligned table for the binary's stdout.
pub fn render(points: &[ScalePoint]) -> String {
    let mut out = String::from("Scaling trajectory (jobs/sec and wall-clock per rung)\n");
    for p in points {
        out.push_str(&format!("{:<44} {:>14.4}\n", p.key, p.value));
    }
    out
}

/// Merges the study into a `BENCH_scale.json`-format file.
pub fn write_bench_scale(path: &std::path::Path, points: &[ScalePoint]) -> std::io::Result<()> {
    let entries: Vec<(String, f64)> = points.iter().map(|p| (p.key.clone(), p.value)).collect();
    stretch_metrics::baseline::upsert(path, &entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stretch_core::BackendKind;

    #[test]
    fn smoke_study_covers_both_axes_and_backends() {
        let points = run_scale_study(&ScaleSettings::smoke());
        // One rung set per backend: (2 sizes + 2 thread counts) × 2 metrics.
        let backends = SolverConfig::all_backends().count();
        assert_eq!(points.len(), backends * (2 + 2) * 2);
        for p in &points {
            assert!(
                p.value.is_finite() && p.value > 0.0,
                "{}: {}",
                p.key,
                p.value
            );
        }
        for backend in BackendKind::ALL.map(|kind| kind.name()) {
            assert!(points
                .iter()
                .any(|p| p.key == format!("scale/jobs-per-sec/n20/{backend}")));
            assert!(points
                .iter()
                .any(|p| p.key == format!("scale/wall-clock/threads1-n40/{backend}")));
        }
        let rendered = render(&points);
        assert!(rendered.contains("scale/jobs-per-sec/n20/primal-dual"));
    }
}
