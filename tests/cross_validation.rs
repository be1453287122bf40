//! Cross-validation between the independent back-ends of the workspace:
//!
//! * the flow-based and LP-based solvers of Systems (1) and (2);
//! * the multi-machine off-line optimum and the single-processor optimum on
//!   Lemma-1-uniform instances;
//! * the floating-point and exact-rational simplex.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use stretch_core::deadline::{DeadlineProblem, PendingJob};
use stretch_core::offline::{offline_problem, optimal_max_stretch, OfflineBackend};
use stretch_core::sites::{Site, SiteView};
use stretch_core::system1;
use stretch_core::system2;
use stretch_core::uniproc;
use stretch_platform::{Cluster, Databank, Platform, PlatformConfig, PlatformGenerator, Processor};
use stretch_workload::{Instance, Job, WorkloadConfig, WorkloadGenerator};

fn random_instance(seed: u64, target: usize) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let platform = PlatformGenerator::new(PlatformConfig::new(3, 3, 0.6)).generate(&mut rng);
    let probe = WorkloadGenerator::new(WorkloadConfig {
        density: 1.5,
        window: 1.0,
        scan_fraction: 1.0,
        ..Default::default()
    });
    let window = (target as f64 / probe.expected_job_count(&platform).max(1e-9)).max(1e-3);
    let generator = WorkloadGenerator::new(WorkloadConfig {
        density: 1.5,
        window,
        scan_fraction: 1.0,
        ..Default::default()
    });
    generator.generate_instance(platform, &mut rng)
}

#[test]
fn offline_flow_and_lp_backends_agree_on_random_instances() {
    for seed in [1u64, 2, 3, 4, 5] {
        let instance = random_instance(seed, 10);
        let flow = optimal_max_stretch(&instance, OfflineBackend::Flow).unwrap();
        let lp = optimal_max_stretch(&instance, OfflineBackend::Lp).unwrap();
        assert!(
            (flow.stretch - lp.stretch).abs() <= 2e-3 * flow.stretch.max(1e-9),
            "seed {seed}: flow {} vs LP {}",
            flow.stretch,
            lp.stretch
        );
    }
}

#[test]
fn milestone_search_and_bisection_agree_on_random_instances() {
    for seed in [7u64, 8, 9] {
        let instance = random_instance(seed, 10);
        let problem = offline_problem(&instance);
        let bisect = problem.min_feasible_stretch_reference().unwrap();
        let milestones = problem.min_feasible_stretch().unwrap();
        assert!(
            (bisect - milestones).abs() <= 2e-3 * bisect.max(1e-9),
            "seed {seed}: bisection {bisect} vs milestones {milestones}"
        );
    }
}

#[test]
fn system2_flow_and_lp_agree_on_random_instances() {
    for seed in [11u64, 13] {
        let instance = random_instance(seed, 8);
        let problem = offline_problem(&instance);
        let stretch = problem.min_feasible_stretch().unwrap() * 1.001;
        let flow_plan = problem.system2_allocation(stretch).expect("flow feasible");
        let lp_plan = system2::solve_system2_lp(&problem, stretch).expect("lp feasible");
        let flow_cost = system2::system2_cost(&problem, &flow_plan);
        let lp_cost = system2::system2_cost(&problem, &lp_plan);
        assert!(
            (flow_cost - lp_cost).abs() <= 5e-3 * flow_cost.max(1.0),
            "seed {seed}: flow {flow_cost} vs LP {lp_cost}"
        );
        for (j, job) in problem.jobs.iter().enumerate() {
            assert!((flow_plan.work_of(j) - job.remaining).abs() < 1e-4);
            assert!((lp_plan.work_of(j) - job.remaining).abs() < 1e-4);
        }
    }
}

/// Fully replicated single-databank platform: the multi-machine optimum must
/// equal the single-processor optimum of the Lemma-1 equivalent instance
/// (after converting between the two stretch conventions).
#[test]
fn multi_machine_optimum_matches_uniprocessor_optimum_when_uniform() {
    let clusters = vec![Cluster {
        id: 0,
        speed: 25.0,
        processors: vec![0, 1],
        hosted_databanks: vec![0],
    }];
    let processors = vec![Processor::new(0, 0, 25.0), Processor::new(1, 0, 25.0)];
    let databanks = vec![Databank::new(0, "db", 100.0)];
    let platform = Platform::new(clusters, processors, databanks);
    let aggregate = platform.aggregate_speed();
    let jobs = vec![
        Job::new(0, 0.0, 120.0, 0),
        Job::new(1, 0.5, 30.0, 0),
        Job::new(2, 1.0, 80.0, 0),
        Job::new(3, 3.0, 20.0, 0),
    ];
    let instance = Instance::new(platform, jobs);
    let multi = optimal_max_stretch(&instance, OfflineBackend::Flow).unwrap();
    let uni = uniproc::optimal_max_stretch(&instance.uniprocessor_equivalent());
    // Multi-machine stretch is F_j / W_j; the single-processor one divides by
    // the processing time W_j / aggregate, so they differ by the factor
    // `aggregate`.
    assert!(
        (multi.stretch * aggregate - uni).abs() < 2e-3 * uni,
        "multi {} (×{aggregate}) vs uniproc {uni}",
        multi.stretch
    );
}

fn two_sites() -> SiteView {
    SiteView {
        sites: vec![
            Site {
                cluster: 0,
                speed: 1.0,
                hosted_databanks: vec![0],
            },
            Site {
                cluster: 1,
                speed: 2.0,
                hosted_databanks: vec![0, 1],
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small deadline problems: the System-(1) LP on the bracketing
    /// interval agrees with the flow bisection.
    #[test]
    fn system1_lp_matches_flow_on_random_deadline_problems(
        works in proptest::collection::vec(0.5f64..4.0, 1..5),
        releases in proptest::collection::vec(0.0f64..5.0, 1..5),
        banks in proptest::collection::vec(0usize..2, 1..5),
    ) {
        let n = works.len().min(releases.len()).min(banks.len());
        let jobs: Vec<PendingJob> = (0..n)
            .map(|i| PendingJob {
                job_id: i,
                release: releases[i],
                ready: releases[i],
                work: works[i],
                remaining: works[i],
                databank: banks[i],
            })
            .collect();
        let problem = DeadlineProblem::new(jobs, two_sites(), 0.0);
        let flow = problem.min_feasible_stretch();
        let lp = system1::optimal_stretch_lp(&problem);
        match (flow, lp) {
            (Some(f), Some(l)) => {
                prop_assert!((f - l).abs() <= 5e-3 * f.max(1e-6),
                    "flow {f} vs lp {l}");
            }
            (None, None) => {}
            (f, l) => prop_assert!(false, "disagreement: flow {f:?} lp {l:?}"),
        }
    }

    /// The achievable max-stretch never improves when work is added.
    #[test]
    fn optimum_is_monotone_in_the_workload(
        works in proptest::collection::vec(0.5f64..4.0, 2..6),
    ) {
        let make_problem = |count: usize| {
            let jobs: Vec<PendingJob> = works[..count]
                .iter()
                .enumerate()
                .map(|(i, &w)| PendingJob {
                    job_id: i,
                    release: 0.0,
                    ready: 0.0,
                    work: w,
                    remaining: w,
                    databank: 0,
                })
                .collect();
            DeadlineProblem::new(jobs, two_sites(), 0.0)
        };
        let smaller = make_problem(works.len() - 1).min_feasible_stretch().unwrap();
        let larger = make_problem(works.len()).min_feasible_stretch().unwrap();
        // Allow the combined bisection + flow-feasibility tolerance.
        prop_assert!(larger >= smaller * (1.0 - 1e-4),
            "adding a job improved the optimum: {smaller} -> {larger}");
    }
}
