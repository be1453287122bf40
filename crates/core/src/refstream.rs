//! The 3-cluster reference stream shared by benches, the perf-drift gate
//! and the warm-start regression test.
//!
//! Three consumers replay the *same* deterministic workload — the
//! `scheduler_overhead` bench (which records the `engine/*` rows of
//! `BENCH_baseline.json`), the CI perf-drift gate
//! (`stretch_experiments::drift`, which re-measures those rows and must
//! run identical work for the ratios to compare like with like), and the
//! warm-simplex remap regression in
//! `crates/core/tests/backend_diff.rs`.  This module holds the one copy
//! of the generator constants, and captures the events by observing the
//! on-line loop itself rather than a copy of it.

use crate::deadline::{certified_slack, DeadlineProblem};
use crate::online::run_online_observed;
use crate::{OnlineVariant, SolverConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use stretch_platform::{PlatformConfig, PlatformGenerator};
use stretch_workload::{Instance, WorkloadConfig, WorkloadGenerator};

/// Draws the deterministic reference instance of roughly `target_jobs`
/// jobs on a `sites`-cluster platform (availability 0.6, density 1.5,
/// full-scan workload — the §5.3 bench constants).  Same `(sites,
/// databanks, target_jobs, seed)` ⇒ byte-identical instance; the bench
/// rows and the drift gate both use `(3, 3, 20, 3)`.
pub fn reference_instance(
    sites: usize,
    databanks: usize,
    target_jobs: usize,
    seed: u64,
) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let platform =
        PlatformGenerator::new(PlatformConfig::new(sites, databanks, 0.6)).generate(&mut rng);
    let probe = WorkloadGenerator::new(WorkloadConfig {
        density: 1.5,
        window: 1.0,
        scan_fraction: 1.0,
        ..Default::default()
    });
    let rate = probe.expected_job_count(&platform).max(1e-9);
    let generator = WorkloadGenerator::new(WorkloadConfig {
        density: 1.5,
        window: (target_jobs as f64 / rate).max(1e-3),
        scan_fraction: 1.0,
        ..Default::default()
    });
    generator.generate_instance(platform, &mut rng)
}

/// Runs the `Online` loop of [`crate::online::run_online_with`] once,
/// capturing every per-event System-(2) problem together with the
/// slackened objective it is solved at — the exact min-cost workload the
/// backends compete on (the `engine/system2-events/*` rows).
///
/// `config` selects the solver that *drives the replay* (whose plans
/// decide how remaining work evolves between events).  Degenerate optima
/// are backend-dependent, so different configurations may legitimately
/// capture different streams; the bench and the drift gate use the
/// default configuration ([`capture_system2_events`]), while tests that
/// pin a backend pass an explicit configuration.
pub fn capture_system2_events_with(
    instance: &Instance,
    config: SolverConfig,
) -> Vec<(DeadlineProblem, f64)> {
    let mut captured = Vec::new();
    run_online_observed(instance, OnlineVariant::Online, config, |problem, best| {
        captured.push((problem.clone(), certified_slack(best)));
    })
    .expect("feasible");
    captured
}

/// [`capture_system2_events_with`] under the default
/// [`SolverConfig`] — what the bench and the drift gate run.
pub fn capture_system2_events(instance: &Instance) -> Vec<(DeadlineProblem, f64)> {
    capture_system2_events_with(instance, SolverConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_instance_is_deterministic_and_nonempty() {
        let a = reference_instance(3, 3, 12, 1);
        let b = reference_instance(3, 3, 12, 1);
        assert_eq!(a.num_jobs(), b.num_jobs());
        assert!(a.num_jobs() > 0);
    }

    #[test]
    fn capture_yields_one_problem_per_busy_event() {
        let instance = reference_instance(3, 3, 10, 7);
        let events = capture_system2_events_with(&instance, SolverConfig::primal_dual());
        assert!(!events.is_empty());
        for (problem, slack) in &events {
            assert!(!problem.jobs.is_empty());
            assert!(slack.is_finite() && *slack >= 0.0);
        }
    }
}
