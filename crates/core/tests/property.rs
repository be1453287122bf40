//! Property-based tests on the scheduler implementations.
//!
//! Random small instances are generated structurally (not through the random
//! workload generator, so shrinking produces readable counter-examples) and
//! the fundamental invariants of the model are checked on every scheduler:
//! completions after releases, optimality of the off-line solver, work
//! conservation bounds, and determinism.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use stretch_core::deadline::{DeadlineProblem, STRETCH_TOL};
use stretch_core::offline::{offline_problem, optimal_max_stretch, OfflineBackend};
use stretch_core::refstream::capture_system2_events_with;
use stretch_core::{
    Bender98Scheduler, ListScheduler, MctScheduler, OfflineScheduler, OnlineScheduler,
    ParametricDeadlineSolver, Scheduler, SolverConfig,
};
use stretch_platform::{Cluster, Databank, Platform, PlatformConfig, PlatformGenerator, Processor};
use stretch_workload::{Instance, Job, WorkloadConfig, WorkloadGenerator};

/// Builds a two-cluster platform from a compact description.
fn platform(speed_a: f64, speed_b: f64, shared_only: bool) -> Platform {
    let clusters = vec![
        Cluster {
            id: 0,
            speed: speed_a,
            processors: vec![0, 1],
            hosted_databanks: if shared_only { vec![0] } else { vec![0, 1] },
        },
        Cluster {
            id: 1,
            speed: speed_b,
            processors: vec![2, 3],
            hosted_databanks: vec![0, 1],
        },
    ];
    let processors = vec![
        Processor::new(0, 0, speed_a),
        Processor::new(1, 0, speed_a),
        Processor::new(2, 1, speed_b),
        Processor::new(3, 1, speed_b),
    ];
    let databanks = vec![
        Databank::new(0, "shared", 100.0),
        Databank::new(1, "restricted", 200.0),
    ];
    Platform::new(clusters, processors, databanks)
}

/// Strategy producing a small random instance.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        2.0f64..40.0,
        2.0f64..40.0,
        proptest::bool::ANY,
        proptest::collection::vec((0.0f64..30.0, 5.0f64..300.0, 0usize..2), 1..7),
    )
        .prop_map(|(speed_a, speed_b, shared_only, jobs)| {
            let platform = platform(speed_a, speed_b, shared_only);
            let jobs: Vec<Job> = jobs
                .into_iter()
                .enumerate()
                .map(|(i, (release, work, databank))| Job::new(i, release, work, databank))
                .collect();
            Instance::new(platform, jobs)
        })
}

fn fast_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(ListScheduler::fcfs()),
        Box::new(ListScheduler::srpt()),
        Box::new(ListScheduler::spt()),
        Box::new(ListScheduler::swrpt()),
        Box::new(ListScheduler::bender02()),
        Box::new(MctScheduler::mct()),
        Box::new(MctScheduler::mct_div()),
    ]
}

fn optimisation_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(OfflineScheduler::new()),
        Box::new(OnlineScheduler::online()),
        Box::new(OnlineScheduler::online_edf()),
        Box::new(OnlineScheduler::online_egdf()),
        Box::new(Bender98Scheduler::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn priority_and_greedy_schedulers_respect_model_invariants(instance in instance_strategy()) {
        let lower_bound = instance.total_work() / instance.platform.aggregate_speed();
        for scheduler in fast_schedulers() {
            let result = scheduler.schedule(&instance).unwrap();
            prop_assert_eq!(result.outcomes.len(), instance.num_jobs());
            for o in &result.outcomes {
                prop_assert!(o.completion >= o.release - 1e-9,
                    "{}: completion before release", scheduler.name());
            }
            prop_assert!(result.metrics.makespan >= lower_bound - 1e-6,
                "{}: makespan beats work conservation", scheduler.name());
        }
    }

    #[test]
    fn single_job_instances_are_served_at_full_eligible_speed(
        work in 10.0f64..500.0,
        release in 0.0f64..10.0,
        databank in 0usize..2,
        speed_a in 2.0f64..40.0,
        speed_b in 2.0f64..40.0,
    ) {
        let platform = platform(speed_a, speed_b, true);
        let eligible_speed = if databank == 0 {
            2.0 * speed_a + 2.0 * speed_b
        } else {
            2.0 * speed_b
        };
        let instance = Instance::new(platform, vec![Job::new(0, release, work, databank)]);
        let expected = release + work / eligible_speed;
        for scheduler in [
            Box::new(ListScheduler::srpt()) as Box<dyn Scheduler>,
            Box::new(MctScheduler::mct_div()),
            Box::new(OnlineScheduler::online()),
        ] {
            let result = scheduler.schedule(&instance).unwrap();
            prop_assert!((result.completion(0) - expected).abs() < 1e-3 * expected.max(1.0),
                "{}: completion {} vs expected {}", scheduler.name(),
                result.completion(0), expected);
        }
    }
}

/// Draws a random instance through the `stretch-workload` generator (the
/// distribution of §5.1) at density 1.2, scaled to roughly `target_jobs`
/// jobs, each databank replicated on a site with probability
/// `availability`.
fn workload_instance(
    sites: usize,
    databanks: usize,
    availability: f64,
    target_jobs: usize,
    seed: u64,
) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let platform = PlatformGenerator::new(PlatformConfig::new(sites, databanks, availability))
        .generate(&mut rng);
    let probe = WorkloadGenerator::new(WorkloadConfig {
        density: 1.2,
        window: 1.0,
        scan_fraction: 1.0,
        ..Default::default()
    });
    let rate = probe.expected_job_count(&platform).max(1e-9);
    let generator = WorkloadGenerator::new(WorkloadConfig {
        density: 1.2,
        window: (target_jobs as f64 / rate).max(1e-3),
        scan_fraction: 1.0,
        ..Default::default()
    });
    generator.generate_instance(platform, &mut rng)
}

proptest! {
    // The parametric engine against the from-scratch reference, on the
    // paper's own workload distribution.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parametric_solver_matches_the_from_scratch_path(seed in 0u64..10_000) {
        let instance = workload_instance(3, 3, 0.6, 10, seed);
        let problem = offline_problem(&instance);
        let mut solver = ParametricDeadlineSolver::new();

        // Same optimal stretch, within the bisection tolerance.
        let fast = solver.min_feasible_stretch(&problem).expect("feasible");
        let slow = problem.min_feasible_stretch_reference().expect("feasible");
        prop_assert!(
            (fast - slow).abs() <= STRETCH_TOL * slow.abs().max(1.0),
            "parametric {fast} vs reference {slow} (seed {seed})"
        );

        // A feasible allocation identical in total work to the from-scratch
        // path (and to the total remaining work).
        let slack = fast.max(slow) * (1.0 + 1e-4) + 1e-9;
        let plan_fast = solver
            .system2_allocation(&problem, slack)
            .expect("allocation feasible at slack");
        let plan_slow = problem
            .system2_allocation(slack)
            .expect("allocation feasible at slack");
        let total_fast: f64 = plan_fast.pieces.iter().map(|p| p.work).sum();
        let total_slow: f64 = plan_slow.pieces.iter().map(|p| p.work).sum();
        let remaining: f64 = problem.jobs.iter().map(|j| j.remaining).sum();
        let tol = 1e-6_f64.max(remaining * 1e-6);
        prop_assert!(
            (total_fast - total_slow).abs() <= tol,
            "total work {total_fast} vs {total_slow} (seed {seed})"
        );
        prop_assert!(
            (total_fast - remaining).abs() <= tol,
            "total work {total_fast} vs remaining {remaining} (seed {seed})"
        );
        // Per-job totals also agree: every job ships its remaining work.
        for (j, job) in problem.jobs.iter().enumerate() {
            prop_assert!(
                (plan_fast.work_of(j) - job.remaining).abs()
                    <= 1e-6_f64.max(job.remaining * 1e-6),
                "job {j} shipped {} of {} (seed {seed})",
                plan_fast.work_of(j),
                job.remaining
            );
        }
    }
}

/// An on-line problem with 40 to 120 pending jobs, all ready at `now`: an
/// event of the simplex replay of the first overload-shaped instance (3 sites
/// × 3 databanks, availability 0.3, 120 jobs expected) at or after `seed`
/// whose pending set grows that large.  `pick` chooses among its events.
fn large_online_problem(seed: u64, pick: usize) -> DeadlineProblem {
    (seed..)
        .find_map(|s| {
            let instance = workload_instance(3, 3, 0.3, 120, s);
            let mut large: Vec<DeadlineProblem> =
                capture_system2_events_with(&instance, SolverConfig::network_simplex())
                    .into_iter()
                    .map(|(problem, _)| problem)
                    .filter(|problem| (40..=120).contains(&problem.jobs.len()))
                    .collect();
            let count = large.len();
            (count > 0).then(|| large.swap_remove(pick % count))
        })
        .expect("an overload-shaped instance reaches 40 pending jobs")
}

proptest! {
    // The same comparison at on-line scale, where a search crosses many
    // milestones: the Newton search must land on the optimum without its
    // bisection fallback.  A debug build takes about a second per case.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parametric_solver_matches_the_from_scratch_path_on_large_online_problems(
        seed in 0u64..10_000,
        pick in 0usize..1_000,
    ) {
        let problem = large_online_problem(seed, pick);
        let mut solver = ParametricDeadlineSolver::new();
        let fast = solver.min_feasible_stretch(&problem).expect("feasible");
        let slow = problem.min_feasible_stretch_reference().expect("feasible");
        prop_assert!(
            (fast - slow).abs() <= STRETCH_TOL * slow.max(1.0),
            "parametric {fast} vs reference {slow} ({} jobs, seed {seed})",
            problem.jobs.len()
        );
        prop_assert!(problem.feasible(fast), "{fast} infeasible (seed {seed})");
        prop_assert_eq!(solver.search_stats().fallbacks, 0, "seed {seed}");
    }
}

proptest! {
    // The LP/flow-based schedulers are slower, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimisation_schedulers_respect_model_invariants(instance in instance_strategy()) {
        for scheduler in optimisation_schedulers() {
            let result = scheduler.schedule(&instance).unwrap();
            prop_assert_eq!(result.outcomes.len(), instance.num_jobs());
            for o in &result.outcomes {
                prop_assert!(o.completion >= o.release - 1e-6,
                    "{}: completion before release", scheduler.name());
            }
        }
    }

    #[test]
    fn offline_optimum_is_a_lower_bound_for_every_scheduler(instance in instance_strategy()) {
        let optimum = optimal_max_stretch(&instance, OfflineBackend::Flow).unwrap().stretch
            * instance.platform.aggregate_speed();
        for scheduler in fast_schedulers().into_iter().chain(optimisation_schedulers()) {
            let result = scheduler.schedule(&instance).unwrap();
            prop_assert!(result.metrics.max_stretch >= optimum * (1.0 - 5e-3),
                "{} beat the optimum: {} < {}", scheduler.name(),
                result.metrics.max_stretch, optimum);
        }
    }

    #[test]
    fn online_variants_meet_the_recomputed_deadline_guarantee(instance in instance_strategy()) {
        // The on-line heuristics recompute the best achievable max-stretch at
        // every arrival; their realised max-stretch can exceed the off-line
        // optimum but stays within a small factor on these tiny instances.
        let optimum = optimal_max_stretch(&instance, OfflineBackend::Flow).unwrap().stretch
            * instance.platform.aggregate_speed();
        for scheduler in [OnlineScheduler::online(), OnlineScheduler::online_edf()] {
            let result = scheduler.schedule(&instance).unwrap();
            prop_assert!(result.metrics.max_stretch <= optimum * 5.0 + 1e-6,
                "{}: {} vs optimum {}", scheduler.name(),
                result.metrics.max_stretch, optimum);
        }
    }
}
