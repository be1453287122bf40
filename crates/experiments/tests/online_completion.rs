//! Every job completes under the on-line heuristic, on every backend ×
//! warm-start × incremental configuration, on instances that used to leave
//! a job unfinished.
//!
//! * **Residual starvation.**  System (2) accepts a solve that leaves up to
//!   `max(1e-6, 1e-9 · demand)` of the whole instance unshipped.  When that
//!   whole shortfall landed on one job, the job stayed pending with a
//!   residual of a few 1e-6 that no later solve shipped.  It happened
//!   under `simplex` but not under `primal-dual`, on the instances of
//!   [`STARVING`].  The completion test of `plan::execute_sequences`
//!   accepts any shortfall System (2) accepts.
//! * **An allocation rejecting the certified slack.**  The min-stretch
//!   probes accept an objective at a looser flow tolerance than a
//!   transport solve does, so on some instances the allocation at
//!   `certified_slack(best)` was rejected: System (2) on every backend
//!   ([`REJECTED`]), and the zero-cost feasibility allocation that
//!   `Offline` realises its optimum with ([`OFFLINE_REJECTED`]) and that
//!   the non-optimized variant serialises ([`REJECTED`] again).
//!   `ParametricDeadlineSolver::certified_allocation` and
//!   `certified_feasibility_allocation` retry at a slightly looser
//!   objective.

use stretch_core::online::run_online_with;
use stretch_core::{BackendKind, OfflineScheduler, OnlineVariant, Scheduler, SolverConfig};
use stretch_experiments::campaign::instance_seed;
use stretch_experiments::runner::{draw_instance_scaled, InstanceScale};
use stretch_experiments::ExperimentConfig;
use stretch_workload::{Instance, Scenario};

/// Ten sites and ten databanks: many bins per epochal interval.
const WIDE: ExperimentConfig = ExperimentConfig {
    sites: 10,
    databanks: 10,
    availability: 0.6,
    density: 0.75,
    scenario: Scenario::Steady,
};

/// A wide instance: `(base, config, index, jobs)` draws
/// `instance_seed(base, config, index)` at about `jobs` jobs.
type Case = (u64, usize, usize, usize);

/// The instances that starved a job.
const STARVING: [Case; 8] = [
    (2006, 60, 6, 60),
    (2006, 1, 634, 30),
    (2006, 1, 901, 30),
    (2006, 1, 930, 30),
    (2006, 1, 956, 30),
    (2006, 1, 1112, 30),
    (2006, 1, 1393, 30),
    (2006, 1, 1978, 30),
];

/// The instance on which System (2), and the non-optimized variant's
/// feasibility allocation, rejected the certified slack.
const REJECTED: Case = (2006, 1, 0, 30);

/// An instance on which `Offline`'s feasibility allocation rejected the
/// certified slack at the optimal max-stretch.
const OFFLINE_REJECTED: Case = (2006, 1, 148, 30);

fn draw((base, config, index, jobs): Case) -> Instance {
    draw_instance_scaled(
        &WIDE,
        InstanceScale::TargetJobs(jobs),
        instance_seed(base, config, index),
    )
}

/// Runs every case under `backend` with warm start and incremental
/// solving each off and on, and requires every job to complete.
fn assert_every_job_completes(backend: BackendKind, cases: &[Case]) {
    for &case in cases {
        let instance = draw(case);
        for warm_start in [false, true] {
            for incremental in [false, true] {
                let config = SolverConfig {
                    backend,
                    warm_start,
                    incremental,
                };
                let completions = run_online_with(&instance, OnlineVariant::Online, config)
                    .unwrap_or_else(|e| panic!("instance {case:?} under {config:?}: {e}"));
                assert!(
                    completions.iter().all(|c| c.is_finite()),
                    "instance {case:?} under {config:?}: a job has no completion time"
                );
            }
        }
    }
}

#[test]
fn no_job_starves_under_primal_dual() {
    assert_every_job_completes(BackendKind::PrimalDual, &STARVING);
}

#[test]
fn no_job_starves_under_simplex() {
    assert_every_job_completes(BackendKind::NetworkSimplex, &STARVING);
}

#[test]
fn a_rejected_certified_slack_is_retried_on_every_backend() {
    for backend in BackendKind::ALL {
        assert_every_job_completes(backend, &[REJECTED]);
    }
}

#[test]
fn offline_retries_a_rejected_certified_slack() {
    let instance = draw(OFFLINE_REJECTED);
    let result = OfflineScheduler::new()
        .schedule(&instance)
        .unwrap_or_else(|e| panic!("instance {OFFLINE_REJECTED:?}: {e}"));
    assert!(result.outcomes.iter().all(|o| o.completion.is_finite()));
}

#[test]
fn non_optimized_retries_a_rejected_certified_slack() {
    let instance = draw(REJECTED);
    let completions = run_online_with(
        &instance,
        OnlineVariant::NonOptimized,
        SolverConfig::default(),
    )
    .unwrap_or_else(|e| panic!("instance {REJECTED:?}: {e}"));
    assert!(completions.iter().all(|c| c.is_finite()));
}
