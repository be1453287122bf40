//! Probe-count regression for the Newton min-cut search.
//!
//! Each Newton step lands at the root of the failed probe's cut capacity,
//! not at the next crossing of two epochal times, so a search on an
//! overloaded on-line problem takes two or three max-flow probes and never
//! needs the bisection fallback.  A search that walked milestones one at a
//! time took about seven probes per event here and stalled into the
//! fallback twice.

use stretch_core::refstream::capture_system2_events_with;
use stretch_core::{ParametricDeadlineSolver, SolverConfig};
use stretch_experiments::campaign::instance_seed;
use stretch_experiments::runner::{draw_instance_scaled, InstanceScale};
use stretch_experiments::ExperimentConfig;
use stretch_workload::{Instance, Scenario};

/// Entry 588 of the `online-overload` benchmark pool: 3 sites × 3
/// databanks, availability 0.3, density 1.2, 119 jobs.
fn overload_entry_588() -> Instance {
    let config = ExperimentConfig {
        sites: 3,
        databanks: 3,
        availability: 0.3,
        density: 1.2,
        scenario: Scenario::Steady,
    };
    draw_instance_scaled(
        &config,
        InstanceScale::TargetJobs(120),
        instance_seed(2006, 0, 588),
    )
}

#[test]
fn newton_search_lands_in_few_probes_without_fallback() {
    let instance = overload_entry_588();
    assert_eq!(instance.num_jobs(), 119);
    let events = capture_system2_events_with(&instance, SolverConfig::network_simplex());
    let mut solver = ParametricDeadlineSolver::with_config(SolverConfig::network_simplex());
    for (problem, _) in &events {
        solver.min_feasible_stretch(problem).expect("feasible");
    }
    let stats = solver.search_stats();
    assert_eq!(stats.searches, events.len() as u64);
    assert_eq!(
        stats.fallbacks, 0,
        "searches fell back to bisection: {stats:?}"
    );
    assert!(
        stats.probes <= 3 * stats.searches,
        "{} probes over {} searches",
        stats.probes,
        stats.searches
    );
    // The count is a pure function of the problem stream: a change that
    // moves it changed the search itself, whatever the host.
    assert_eq!(stats.probes, 259, "the probe count moved: {stats:?}");
}
