//! Differential-oracle harness for the min-cost backends.
//!
//! A second solver is only trustworthy if it provably agrees with the first,
//! so this suite cross-checks the network simplex against the primal-dual
//! reference on proptest-generated platforms and workloads, at two levels:
//!
//! * **transport level** — random bipartite transportation instances: both
//!   backends must agree on feasibility and on the minimum cost, and every
//!   solution must actually ship each demand within each capacity;
//! * **scheduler level** — random deadline problems (sites, databanks,
//!   pending jobs): at a feasible objective both backends' System-(2)
//!   allocations must have equal cost and both must be *feasible* plans
//!   (work conserved, bin capacities respected, eligibility respected).
//!
//! The vendored `proptest` stub does not shrink, so on a divergence the
//! harness minimises the counter-example itself — greedily dropping jobs
//! (or routes) while the divergence persists — and panics with the minimal
//! reproducer in the message.
//!
//! Together with `ProptestConfig::with_cases`, the two generators below
//! exercise well over 200 distinct instances per run.

use proptest::prelude::*;
use stretch_core::deadline::{AllocationPlan, DeadlineProblem, PendingJob};
use stretch_core::sites::{Site, SiteView};
use stretch_core::SolverConfig;
use stretch_flow::{FlowWorkspace, TransportInstance};

/// Relative/absolute tolerance for cost and work comparisons.
const TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

// ---------------------------------------------------------------------------
// Transport level
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct TransportCase {
    demands: Vec<f64>,
    capacities: Vec<f64>,
    routes: Vec<(usize, usize, f64)>,
}

impl TransportCase {
    fn build(&self) -> TransportInstance {
        let mut t = TransportInstance::new(self.demands.len(), self.capacities.len());
        for (j, &d) in self.demands.iter().enumerate() {
            t.set_demand(j, d);
        }
        for (b, &c) in self.capacities.iter().enumerate() {
            t.set_capacity(b, c);
        }
        for &(j, b, cost) in &self.routes {
            t.add_route(j, b, cost);
        }
        t
    }

    /// `Some(divergence report)` when the backends disagree on this case.
    fn divergence(&self) -> Option<String> {
        let t = self.build();
        let mut results = Vec::new();
        for config in SolverConfig::all_backends() {
            let mut backend = config.instantiate();
            let solution =
                t.solve_min_cost_with_backend(backend.as_mut(), &mut FlowWorkspace::new());
            if let Some(s) = &solution {
                if let Some(err) = check_transport_feasibility(self, s) {
                    return Some(format!(
                        "{} produced an invalid solution: {err}",
                        backend.name()
                    ));
                }
            }
            results.push((backend.name(), solution.map(|s| s.cost)));
        }
        let (ref_name, ref_cost) = results[0];
        for (name, cost) in &results[1..] {
            match (&ref_cost, cost) {
                (Some(a), Some(b)) if !close(*a, *b) => {
                    return Some(format!("cost mismatch: {ref_name}={a} vs {name}={b}"));
                }
                (Some(_), None) | (None, Some(_)) => {
                    return Some(format!(
                        "feasibility mismatch: {ref_name}={ref_cost:?} vs {name}={cost:?}"
                    ));
                }
                _ => {}
            }
        }
        None
    }

    /// Greedy shrink: drop routes one at a time while the divergence holds.
    fn minimise(mut self) -> TransportCase {
        loop {
            let mut shrunk = false;
            for idx in (0..self.routes.len()).rev() {
                let mut candidate = self.clone();
                candidate.routes.remove(idx);
                if candidate.divergence().is_some() {
                    self = candidate;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                return self;
            }
        }
    }
}

/// Every demand shipped, every capacity respected, every amount on a
/// declared route.
fn check_transport_feasibility(
    case: &TransportCase,
    solution: &stretch_flow::TransportSolution,
) -> Option<String> {
    for (j, &d) in case.demands.iter().enumerate() {
        let shipped = solution.shipped_from(j);
        if !close(shipped, d) {
            return Some(format!("source {j} ships {shipped}, demand {d}"));
        }
    }
    for (b, &c) in case.capacities.iter().enumerate() {
        let received = solution.received_by(b);
        if received > c + TOL * (1.0 + c) {
            return Some(format!("bin {b} receives {received}, capacity {c}"));
        }
    }
    for &(j, b, amount) in &solution.allocations {
        if amount < -TOL {
            return Some(format!("negative amount {amount} on ({j}, {b})"));
        }
        if !case.routes.iter().any(|&(rj, rb, _)| rj == j && rb == b) {
            return Some(format!("allocation on undeclared route ({j}, {b})"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backends_agree_on_random_transport_instances(
        num_sources in 1usize..6,
        num_bins in 1usize..6,
        demand_seed in proptest::collection::vec(0.25f64..5.0, 1..6),
        capacity_seed in proptest::collection::vec(0.25f64..6.0, 1..6),
        cost_seed in proptest::collection::vec(0.0f64..8.0, 1..32),
        density in 0.3f64..1.0,
    ) {
        let demands: Vec<f64> = (0..num_sources)
            .map(|j| demand_seed[j % demand_seed.len()])
            .collect();
        let capacities: Vec<f64> = (0..num_bins)
            .map(|b| capacity_seed[b % capacity_seed.len()])
            .collect();
        let mut routes = Vec::new();
        for j in 0..num_sources {
            for b in 0..num_bins {
                let key = ((j * 31 + b * 17) % 10) as f64 / 10.0;
                if key <= density {
                    routes.push((j, b, cost_seed[(j * num_bins + b) % cost_seed.len()]));
                }
            }
        }
        let case = TransportCase { demands, capacities, routes };
        if let Some(report) = case.divergence() {
            let minimal = case.minimise();
            prop_assert!(
                false,
                "backend divergence: {report}\nminimal reproducer: {minimal:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler level
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct SchedulerCase {
    sites: Vec<(f64, Vec<usize>)>,
    jobs: Vec<(f64, f64, usize)>, // (release, work, databank)
}

impl SchedulerCase {
    fn problem(&self) -> DeadlineProblem {
        let sites = SiteView {
            sites: self
                .sites
                .iter()
                .enumerate()
                .map(|(cluster, (speed, banks))| Site {
                    cluster,
                    speed: *speed,
                    hosted_databanks: banks.clone(),
                })
                .collect(),
        };
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(id, &(release, work, databank))| PendingJob {
                job_id: id,
                release,
                ready: release,
                work,
                remaining: work,
                databank,
            })
            .collect();
        DeadlineProblem::new(jobs, sites, 0.0)
    }

    /// System-(2) objective value of a plan (interval midpoint over job
    /// size, summed over pieces), recomputed from first principles.
    fn objective(&self, plan: &AllocationPlan) -> f64 {
        plan.pieces
            .iter()
            .map(|p| {
                let (start, end) = plan.intervals[p.interval];
                p.work * 0.5 * (start + end) / self.jobs[p.job_index].1
            })
            .sum()
    }

    /// The plan ships every remaining unit within capacity and eligibility.
    fn check_plan_feasibility(
        &self,
        problem: &DeadlineProblem,
        stretch: f64,
        plan: &AllocationPlan,
    ) -> Option<String> {
        for (j, job) in problem.jobs.iter().enumerate() {
            let assigned = plan.work_of(j);
            if !close(assigned, job.remaining) {
                return Some(format!(
                    "job {j} assigned {assigned}, remaining {}",
                    job.remaining
                ));
            }
        }
        let mut received = vec![0.0; problem.sites.len() * plan.intervals.len()];
        for p in &plan.pieces {
            let job = &problem.jobs[p.job_index];
            let site = &problem.sites.sites[p.site];
            if !site.hosts(job.databank) {
                return Some(format!(
                    "piece of job {} on site {} which does not host databank {}",
                    p.job_index, p.site, job.databank
                ));
            }
            let (start, end) = plan.intervals[p.interval];
            let deadline = job.deadline(stretch);
            if job.ready > start + 1e-6 || deadline < end - 1e-6 {
                return Some(format!(
                    "piece of job {} in [{start}, {end}) outside [{}, {deadline}]",
                    p.job_index, job.ready
                ));
            }
            received[p.site * plan.intervals.len() + p.interval] += p.work;
        }
        for (bin, &r) in received.iter().enumerate() {
            let site = bin / plan.intervals.len();
            let (start, end) = plan.intervals[bin % plan.intervals.len()];
            let capacity = problem.sites.sites[site].speed * (end - start);
            if r > capacity + TOL * (1.0 + capacity) {
                return Some(format!("bin {bin} receives {r}, capacity {capacity}"));
            }
        }
        None
    }

    /// `Some(report)` when the backends diverge on this problem.
    fn divergence(&self) -> Option<String> {
        let problem = self.problem();
        if problem.is_trivial() {
            return None;
        }
        let best = problem.min_feasible_stretch()?;
        let stretch = stretch_core::deadline::certified_slack(best);
        let mut plans = Vec::new();
        for config in SolverConfig::all_backends() {
            let mut backend = config.instantiate();
            let plan = problem.system2_allocation_with_backend(
                stretch,
                backend.as_mut(),
                &mut FlowWorkspace::new(),
            );
            let Some(plan) = plan else {
                return Some(format!(
                    "{} found the certified objective {stretch} infeasible",
                    backend.name()
                ));
            };
            if let Some(err) = self.check_plan_feasibility(&problem, stretch, &plan) {
                return Some(format!(
                    "{} produced an infeasible plan: {err}",
                    backend.name()
                ));
            }
            plans.push((backend.name(), self.objective(&plan)));
        }
        let (ref_name, ref_cost) = plans[0];
        for &(name, cost) in &plans[1..] {
            if !close(ref_cost, cost) {
                return Some(format!(
                    "System-(2) objective mismatch: {ref_name}={ref_cost} vs {name}={cost}"
                ));
            }
        }
        None
    }

    /// Greedy shrink: drop jobs one at a time while the divergence holds.
    fn minimise(mut self) -> SchedulerCase {
        loop {
            let mut shrunk = false;
            for idx in (0..self.jobs.len()).rev() {
                let mut candidate = self.clone();
                candidate.jobs.remove(idx);
                if candidate.divergence().is_some() {
                    self = candidate;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                return self;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn backends_agree_on_random_deadline_problems(
        num_sites in 1usize..4,
        num_banks in 1usize..4,
        speed_seed in proptest::collection::vec(0.5f64..4.0, 1..4),
        hosting_seed in proptest::collection::vec(0u64..1_000_000, 1..12),
        release_seed in proptest::collection::vec(0.0f64..6.0, 1..8),
        work_seed in proptest::collection::vec(0.5f64..5.0, 1..8),
        num_jobs in 1usize..8,
    ) {
        // Sites: pseudo-random hosting pattern; every databank is forced
        // onto at least one site so a finite stretch always exists.
        let mut sites: Vec<(f64, Vec<usize>)> = (0..num_sites)
            .map(|s| {
                let speed = speed_seed[s % speed_seed.len()];
                let banks: Vec<usize> = (0..num_banks)
                    .filter(|&d| hosting_seed[(s * num_banks + d) % hosting_seed.len()] % 2 == 0)
                    .collect();
                (speed, banks)
            })
            .collect();
        for d in 0..num_banks {
            if !sites.iter().any(|(_, banks)| banks.contains(&d)) {
                let fallback = d % num_sites;
                sites[fallback].1.push(d);
            }
        }
        let jobs: Vec<(f64, f64, usize)> = (0..num_jobs)
            .map(|j| {
                (
                    release_seed[j % release_seed.len()],
                    work_seed[j % work_seed.len()],
                    (hosting_seed[j % hosting_seed.len()] as usize) % num_banks,
                )
            })
            .collect();
        let case = SchedulerCase { sites, jobs };
        if let Some(report) = case.divergence() {
            let minimal = case.minimise();
            prop_assert!(
                false,
                "backend divergence: {report}\nminimal reproducer: {minimal:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Warm vs cold: cross-event solver memory must be invisible in the results
// ---------------------------------------------------------------------------
//
// `warm_start` carries one kind of state across the events of an on-line
// run: the network simplex remaps its spanning-tree basis onto the next
// event's System-(2) network (stretch_flow::BasisRemap).  The contract is
// that it is a pure speed lever: a warm-started run returns
// **bit-identical** objectives, allocations and completions to a cold run.
// (The solver earns this with a lexicographic tie-break and a canonical
// basis extraction — the System-(2) costs are site-tied, so without them
// each start basis would legitimately land on a different optimal
// vertex.)

/// Runs one instance through the on-line loop warm and cold and reports the
/// first bitwise divergence, if any.
fn warm_cold_divergence(instance: &stretch_workload::Instance) -> Option<String> {
    use stretch_core::online::run_online_with;
    use stretch_core::OnlineVariant;

    for config in SolverConfig::all_backends() {
        let warm = run_online_with(
            instance,
            OnlineVariant::Online,
            config.with_warm_start(true),
        );
        let cold = run_online_with(
            instance,
            OnlineVariant::Online,
            config.with_warm_start(false),
        );
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                for (job, (a, b)) in w.iter().zip(&c).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        return Some(format!(
                            "{}: job {job} completes at {a:?} warm vs {b:?} cold",
                            config.backend.name()
                        ));
                    }
                }
            }
            (w, c) => {
                return Some(format!(
                    "{}: warm {:?} vs cold {:?}",
                    config.backend.name(),
                    w.is_ok(),
                    c.is_ok()
                ))
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised event streams (every distinct release date is an event at
    /// which the solver re-runs): completions must be bit-identical with
    /// cross-event solver memory on and off, on both backends.
    #[test]
    fn warm_and_cold_event_streams_are_bit_identical(
        num_jobs in 3usize..14,
        release_seed in proptest::collection::vec(0.0f64..10.0, 1..12),
        work_seed in proptest::collection::vec(20.0f64..400.0, 1..12),
        bank_seed in proptest::collection::vec(0u64..1_000, 1..12),
    ) {
        use stretch_platform::fixtures::small_platform;
        use stretch_workload::{Instance, Job};

        let jobs: Vec<Job> = (0..num_jobs)
            .map(|j| {
                Job::new(
                    j,
                    release_seed[j % release_seed.len()] * (1.0 + 0.13 * j as f64),
                    work_seed[j % work_seed.len()] * (1.0 + 0.07 * j as f64),
                    (bank_seed[j % bank_seed.len()] as usize) % 2,
                )
            })
            .collect();
        let instance = Instance::new(small_platform(), jobs);
        if let Some(report) = warm_cold_divergence(&instance) {
            prop_assert!(false, "warm/cold divergence: {report}");
        }
    }
}

/// The solver-level version of the same contract, with the remap tier
/// *proven* to fire: a shared network-simplex backend is fed the System-(2)
/// instances of a synthetic event stream (jobs completing, jobs arriving,
/// intervals moving — so the topology never repeats exactly), and every
/// allocation must match a cold backend's bit for bit while the cross-event
/// basis remap is actually exercised.
#[test]
fn remapped_system2_solves_match_cold_solves_bitwise() {
    use stretch_flow::NetworkSimplexBackend;

    let sites = SiteView {
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
    };
    let job = |id: usize, release: f64, work: f64, remaining: f64, bank: usize| PendingJob {
        job_id: id,
        release,
        ready: release,
        work,
        remaining,
        databank: bank,
    };
    // Four events: job 0 shrinks and completes, jobs 2/3 arrive, job 1
    // persists throughout — overlapping job sets, never-identical topology.
    let events: Vec<(f64, Vec<PendingJob>)> = vec![
        (
            0.0,
            vec![job(0, 0.0, 4.0, 4.0, 0), job(1, 0.0, 3.0, 3.0, 1)],
        ),
        (
            1.0,
            vec![
                job(0, 0.0, 4.0, 2.5, 0),
                job(1, 0.0, 3.0, 2.0, 1),
                job(2, 1.0, 2.0, 2.0, 0),
            ],
        ),
        (
            2.5,
            vec![
                job(1, 0.0, 3.0, 1.0, 1),
                job(2, 1.0, 2.0, 1.25, 0),
                job(3, 2.5, 5.0, 5.0, 1),
            ],
        ),
        (
            4.0,
            vec![job(2, 1.0, 2.0, 0.5, 0), job(3, 2.5, 5.0, 3.0, 1)],
        ),
    ];

    let mut warm = NetworkSimplexBackend::new();
    let mut warm_ws = FlowWorkspace::new();
    for (now, jobs) in &events {
        let problem = DeadlineProblem::new(jobs.clone(), sites.clone(), *now);
        let best = problem.min_feasible_stretch().expect("feasible");
        let stretch = stretch_core::deadline::certified_slack(best);
        let warm_plan = problem
            .system2_allocation_with_backend(stretch, &mut warm, &mut warm_ws)
            .expect("feasible warm");
        let mut cold = NetworkSimplexBackend::with_warm_start(false);
        let cold_plan = problem
            .system2_allocation_with_backend(stretch, &mut cold, &mut FlowWorkspace::new())
            .expect("feasible cold");
        assert_eq!(
            warm_plan.pieces.len(),
            cold_plan.pieces.len(),
            "piece count diverged at t={now}"
        );
        for (w, c) in warm_plan.pieces.iter().zip(&cold_plan.pieces) {
            assert_eq!(
                (w.job_index, w.site, w.interval),
                (c.job_index, c.site, c.interval),
                "piece placement diverged at t={now}"
            );
            assert_eq!(
                w.work.to_bits(),
                c.work.to_bits(),
                "piece amount diverged at t={now}: {} vs {}",
                w.work,
                c.work
            );
        }
    }
    assert!(
        warm.remap_count() >= 2,
        "the cross-event basis remap never fired ({} remaps): the warm/cold \
         test would be vacuous",
        warm.remap_count()
    );
    assert_eq!(warm.fallback_count(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: the full on-line loop on either backend
// ---------------------------------------------------------------------------

#[test]
fn online_schedulers_complete_identical_workloads_on_both_backends() {
    use stretch_core::{OnlineScheduler, OnlineVariant, Scheduler};
    use stretch_platform::fixtures::small_platform;
    use stretch_workload::{Instance, Job};

    let instance = Instance::new(
        small_platform(),
        vec![
            Job::new(0, 0.0, 300.0, 0),
            Job::new(1, 1.0, 60.0, 1),
            Job::new(2, 2.5, 120.0, 0),
            Job::new(3, 4.0, 30.0, 1),
            Job::new(4, 6.0, 90.0, 0),
        ],
    );
    for variant in [
        OnlineVariant::Online,
        OnlineVariant::OnlineEdf,
        OnlineVariant::OnlineEgdf,
    ] {
        let results: Vec<_> = SolverConfig::all_backends()
            .map(|config| {
                OnlineScheduler::with_config(variant, config)
                    .schedule(&instance)
                    .expect("schedulable")
            })
            .collect();
        // Both backends realise (near-)optimal max-stretch: the achieved
        // objective may differ only within the allocation slack, whatever
        // degenerate optimum each backend picked.
        let reference = results[0].metrics.max_stretch;
        for r in &results[1..] {
            assert!(
                (r.metrics.max_stretch - reference).abs() <= 1e-3 * (1.0 + reference),
                "{variant:?}: max-stretch {} vs reference {reference}",
                r.metrics.max_stretch
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Reference stream: warm remap starts against fresh cold solves
// ---------------------------------------------------------------------------

/// Feeds the per-event System-(2) instances of the 3-cluster reference
/// workload (the platform/workload the benches measure:
/// `bench_instance(3, 3, 20, 3)`) in order to one warm simplex, and each
/// one to a fresh cold simplex; the middle event is solved twice in a row,
/// as a retried allocation solves it.  The plans must match bit for bit at
/// every solve, and every solve after the first must start from the
/// remapped basis of the solve before — the repeated one included: if a
/// keying or re-priming change ever makes the remap decline on this
/// stream, the warm path silently degrades into cold solves, and this test
/// makes that loud.  The warm backend's pivot totals are pinned exactly,
/// and its primary pivots must stay below the fresh cold solves' sum.
#[test]
fn warm_simplex_starts_every_later_event_from_the_remapped_basis() {
    use stretch_core::refstream::{capture_system2_events_with, reference_instance};
    use stretch_flow::NetworkSimplexBackend;

    // The stream is captured under an explicit configuration so it stays
    // the simplex's stream whatever the default (degenerate optima differ
    // between backends).
    let instance = reference_instance(3, 3, 20, 3);
    let captured = capture_system2_events_with(&instance, SolverConfig::network_simplex());
    assert!(
        captured.len() >= 10,
        "the reference stream must exercise a real event sequence, got {}",
        captured.len()
    );

    let repeated = captured.len() / 2;
    let solves: Vec<&(DeadlineProblem, f64)> = captured
        .iter()
        .enumerate()
        .flat_map(|(e, event)| std::iter::repeat_n(event, if e == repeated { 2 } else { 1 }))
        .collect();
    let mut warm = NetworkSimplexBackend::new();
    let mut warm_ws = FlowWorkspace::new();
    let mut cold_pivots = (0, 0);
    for (problem, slack) in solves.iter().copied() {
        let now = problem.now;
        let warm_plan = problem
            .system2_allocation_with_backend(*slack, &mut warm, &mut warm_ws)
            .expect("feasible");
        let mut cold = NetworkSimplexBackend::with_warm_start(false);
        let cold_plan = problem
            .system2_allocation_with_backend(*slack, &mut cold, &mut FlowWorkspace::new())
            .expect("feasible");
        let (primary, lexicographic) = cold.pivot_counts();
        cold_pivots = (cold_pivots.0 + primary, cold_pivots.1 + lexicographic);
        assert_eq!(
            warm_plan.pieces.len(),
            cold_plan.pieces.len(),
            "piece count diverged at t={now}"
        );
        for (w, c) in warm_plan.pieces.iter().zip(&cold_plan.pieces) {
            assert_eq!(
                (w.job_index, w.site, w.interval),
                (c.job_index, c.site, c.interval),
                "piece placement diverged at t={now}"
            );
            assert_eq!(
                w.work.to_bits(),
                c.work.to_bits(),
                "piece amount diverged at t={now}: {} vs {}",
                w.work,
                c.work
            );
        }
    }
    assert_eq!(solves.len(), captured.len() + 1);
    assert_eq!(warm.remap_count(), solves.len() - 1);
    assert_eq!(warm.rejected_remap_count(), 0);
    assert_eq!(warm.fallback_count(), 0);
    // Count gate: the pivots are a function of the stream, so a change
    // that lengthens the warm path shows here however noisy the host.
    // Re-bless on purpose only, with the reason in CHANGES.md.
    assert_eq!(
        warm.pivot_counts(),
        (838, 356),
        "warm pivots (primary, lexicographic) over the reference stream changed"
    );
    // The arcs those pivots' pricing evaluated: equal pivots with a
    // different count would mean a loop pricing other blocks than the
    // per-arc walk did.  Same re-bless rule.
    assert_eq!(
        warm.priced_arcs(),
        69021,
        "arcs priced by the warm backend over the reference stream changed"
    );
    assert!(
        warm.pivot_counts().0 < cold_pivots.0,
        "warm starts took {:?} pivots against {cold_pivots:?} for fresh cold solves",
        warm.pivot_counts()
    );
}

/// The reference backend must also agree with the `stretch-lp` simplex on
/// the exact LP formulation — this closes the oracle triangle (primal-dual ↔
/// network simplex ↔ LP); the flow-vs-LP edge lives in
/// `crates/flow/tests/lp_cross_validation.rs`.
#[test]
fn both_backends_match_the_lp_simplex_on_a_fixed_instance() {
    use stretch_lp::problem::{Problem, Relation, Sense};

    let case = TransportCase {
        demands: vec![2.0, 3.0, 1.5],
        capacities: vec![3.0, 2.5, 4.0],
        routes: vec![
            (0, 0, 1.0),
            (0, 1, 4.0),
            (1, 0, 2.0),
            (1, 2, 1.0),
            (2, 1, 0.5),
            (2, 2, 3.0),
        ],
    };
    // LP oracle.
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..case.routes.len())
        .map(|k| p.add_var(format!("x{k}")))
        .collect();
    for (k, &(_, _, cost)) in case.routes.iter().enumerate() {
        p.set_objective_coeff(vars[k], cost);
    }
    for (j, &d) in case.demands.iter().enumerate() {
        let coeffs: Vec<_> = case
            .routes
            .iter()
            .enumerate()
            .filter(|(_, &(src, _, _))| src == j)
            .map(|(k, _)| (vars[k], 1.0))
            .collect();
        p.add_constraint_coeffs(&coeffs, Relation::Eq, d);
    }
    for (b, &c) in case.capacities.iter().enumerate() {
        let coeffs: Vec<_> = case
            .routes
            .iter()
            .enumerate()
            .filter(|(_, &(_, bin, _))| bin == b)
            .map(|(k, _)| (vars[k], 1.0))
            .collect();
        p.add_constraint_coeffs(&coeffs, Relation::Le, c);
    }
    let lp_cost = p.solve().expect("feasible").objective;

    let t = case.build();
    for config in SolverConfig::all_backends() {
        let mut backend = config.instantiate();
        let solution = t
            .solve_min_cost_with_backend(backend.as_mut(), &mut FlowWorkspace::new())
            .expect("feasible");
        assert!(
            close(solution.cost, lp_cost),
            "{}: {} vs LP {}",
            backend.name(),
            solution.cost,
            lp_cost
        );
    }
}

// ---------------------------------------------------------------------------
// Incremental vs rebuild: persistent refilled structures must be
// invisible in the results
// ---------------------------------------------------------------------------
//
// `incremental` (default on) keeps the solver's parametric structure and
// System-(2) arena alive across events and refills them in place instead
// of filling fresh memory.  Like warm_start, it is a pure speed lever: an
// incremental run must return **bit-identical** objectives, allocations
// and completions to a rebuild run, on every backend and in every
// warm/cold cell — the two axes are independent and must compose.

/// Runs one instance through the on-line loop with the incremental engine on
/// and off — across both backends and both warm-start settings — and
/// reports the first bitwise divergence, if any.
fn incremental_rebuild_divergence(instance: &stretch_workload::Instance) -> Option<String> {
    use stretch_core::online::run_online_with;
    use stretch_core::OnlineVariant;

    for config in SolverConfig::all_backends() {
        for warm_start in [true, false] {
            let cell = config.with_warm_start(warm_start);
            let incremental =
                run_online_with(instance, OnlineVariant::Online, cell.with_incremental(true));
            let rebuild = run_online_with(
                instance,
                OnlineVariant::Online,
                cell.with_incremental(false),
            );
            match (incremental, rebuild) {
                (Ok(inc), Ok(reb)) => {
                    for (job, (a, b)) in inc.iter().zip(&reb).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            return Some(format!(
                                "{} (warm_start={warm_start}): job {job} completes at \
                                 {a:?} incremental vs {b:?} rebuild",
                                config.backend.name()
                            ));
                        }
                    }
                }
                (i, r) => {
                    return Some(format!(
                        "{} (warm_start={warm_start}): incremental {:?} vs rebuild {:?}",
                        config.backend.name(),
                        i.is_ok(),
                        r.is_ok()
                    ))
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised event streams interleaving arrivals and completions (every
    /// distinct release date re-runs the solver; completions drop jobs from
    /// the pending set): completions must be bit-identical with the
    /// incremental engine on and off, across both backends × warm/cold.
    #[test]
    fn incremental_and_rebuild_event_streams_are_bit_identical(
        num_jobs in 3usize..14,
        release_seed in proptest::collection::vec(0.0f64..10.0, 1..12),
        work_seed in proptest::collection::vec(20.0f64..400.0, 1..12),
        bank_seed in proptest::collection::vec(0u64..1_000, 1..12),
    ) {
        use stretch_platform::fixtures::small_platform;
        use stretch_workload::{Instance, Job};

        let jobs: Vec<Job> = (0..num_jobs)
            .map(|j| {
                Job::new(
                    j,
                    release_seed[j % release_seed.len()] * (1.0 + 0.13 * j as f64),
                    work_seed[j % work_seed.len()] * (1.0 + 0.07 * j as f64),
                    (bank_seed[j % bank_seed.len()] as usize) % 2,
                )
            })
            .collect();
        let instance = Instance::new(small_platform(), jobs);
        if let Some(report) = incremental_rebuild_divergence(&instance) {
            prop_assert!(false, "incremental/rebuild divergence: {report}");
        }
    }
}

/// The solver-level version of the same contract, with the in-place refill
/// *proven* to run: a persistent incremental solver is fed a synthetic event
/// stream (arrivals, completions, a shrink to a single job, and an empty
/// final event — the edge shapes of the on-line loop — plus inputs the
/// scheduler never produces but the raw API admits: a `-0.0` release, a
/// duplicated `job_id` and a reused id whose release and work changed), and
/// every objective and System-(2) allocation must match a per-event rebuild
/// solver's bit for bit while the persistent memory is actually refilled.
#[test]
fn incremental_solver_matches_rebuild_solver_bitwise_per_event() {
    use stretch_core::ParametricDeadlineSolver;

    let sites = SiteView {
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
    };
    let job = |id: usize, release: f64, work: f64, remaining: f64, bank: usize| PendingJob {
        job_id: id,
        release,
        ready: release,
        work,
        remaining,
        databank: bank,
    };
    // Arrivals and completions interleaved; the last two events are the
    // edge shapes (single pending job, empty pending set).
    let events: Vec<(f64, Vec<PendingJob>)> = vec![
        (
            0.0,
            vec![job(0, 0.0, 4.0, 4.0, 0), job(1, 0.0, 3.0, 3.0, 1)],
        ),
        (
            1.0,
            vec![
                job(0, 0.0, 4.0, 2.5, 0),
                job(1, 0.0, 3.0, 2.0, 1),
                job(2, 1.0, 2.0, 2.0, 0),
            ],
        ),
        (
            2.5,
            vec![
                job(1, 0.0, 3.0, 1.0, 1),
                job(2, 1.0, 2.0, 1.25, 0),
                job(3, 2.5, 5.0, 5.0, 1),
            ],
        ),
        (4.0, vec![job(3, 2.5, 5.0, 3.0, 1)]),
        // A negative-zero release (it sorts before +0.0 but compares equal).
        (
            4.5,
            vec![job(3, 2.5, 5.0, 2.5, 1), job(4, -0.0, 1.0, 0.5, 0)],
        ),
        // Two pending jobs under one id.
        (
            5.0,
            vec![job(5, 4.0, 2.0, 2.0, 0), job(5, 5.0, 1.0, 1.0, 1)],
        ),
        // Id 3 again, with a different release and work.
        (6.0, vec![job(3, 6.0, 1.5, 1.5, 0)]),
        (7.0, vec![]),
    ];

    for config in SolverConfig::all_backends() {
        for base in [config, config.with_warm_start(false)] {
            let cell = format!("{} (warm_start={})", base.backend.name(), base.warm_start);
            let mut incremental =
                ParametricDeadlineSolver::with_config(base.with_incremental(true));
            let mut rebuild = ParametricDeadlineSolver::with_config(base.with_incremental(false));
            assert!(rebuild.incremental_stats().is_none());
            for (now, jobs) in &events {
                let problem = DeadlineProblem::new(jobs.clone(), sites.clone(), *now);
                let inc_best = incremental.min_feasible_stretch(&problem);
                let reb_best = rebuild.min_feasible_stretch(&problem);
                match (inc_best, reb_best) {
                    (Some(a), Some(b)) => assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{cell}: objective diverged at t={now}: {a} vs {b}"
                    ),
                    (a, b) => assert_eq!(a, b, "{cell}: verdict diverged at t={now}"),
                }
                let Some(best) = inc_best else { continue };
                if problem.is_trivial() {
                    continue;
                }
                let stretch = stretch_core::deadline::certified_slack(best);
                let inc_plan = incremental
                    .system2_allocation(&problem, stretch)
                    .expect("feasible incremental");
                let reb_plan = rebuild
                    .system2_allocation(&problem, stretch)
                    .expect("feasible rebuild");
                assert_eq!(
                    inc_plan.pieces.len(),
                    reb_plan.pieces.len(),
                    "{cell}: piece count diverged at t={now}"
                );
                for (i, r) in inc_plan.pieces.iter().zip(&reb_plan.pieces) {
                    assert_eq!(
                        (i.job_index, i.site, i.interval),
                        (r.job_index, r.site, r.interval),
                        "{cell}: piece placement diverged at t={now}"
                    );
                    assert_eq!(
                        i.work.to_bits(),
                        r.work.to_bits(),
                        "{cell}: piece amount diverged at t={now}: {} vs {}",
                        i.work,
                        r.work
                    );
                }
            }
            let stats = incremental
                .incremental_stats()
                .expect("incremental engine present");
            assert!(
                stats.splices >= 3,
                "{cell}: the in-place refill never ran ({stats:?}): the \
                 incremental/rebuild test would be vacuous"
            );
            assert_eq!(
                stats.rebuilds, 1,
                "{cell}: only the first event should fill fresh memory ({stats:?})"
            );
        }
    }
}

/// Single-job and empty-instance edges of the incremental engine: the very
/// shapes where a refill in place has the least structure to reuse.
#[test]
fn incremental_engine_handles_single_job_and_empty_edges() {
    use stretch_core::ParametricDeadlineSolver;

    let sites = SiteView {
        sites: vec![Site {
            cluster: 0,
            speed: 1.0,
            hosted_databanks: vec![0],
        }],
    };
    let job = |id: usize, release: f64, work: f64| PendingJob {
        job_id: id,
        release,
        ready: release,
        work,
        remaining: work,
        databank: 0,
    };
    for base in SolverConfig::all_backends() {
        let mut solver = ParametricDeadlineSolver::with_config(base.with_incremental(true));
        // Empty instance first: trivially zero, engine untouched.
        let empty = DeadlineProblem::new(vec![], sites.clone(), 0.0);
        assert_eq!(solver.min_feasible_stretch(&empty), Some(0.0));
        // A single job, then the same solver drained back to empty, then a
        // fresh single job again — each answer matches a fresh solver's.
        let single = DeadlineProblem::new(vec![job(0, 0.0, 2.0)], sites.clone(), 0.0);
        let a = solver.min_feasible_stretch(&single).expect("feasible");
        let fresh = ParametricDeadlineSolver::with_config(base.with_incremental(false))
            .min_feasible_stretch(&single)
            .expect("feasible");
        assert_eq!(a.to_bits(), fresh.to_bits());
        assert_eq!(solver.min_feasible_stretch(&empty), Some(0.0));
        let late = DeadlineProblem::new(vec![job(1, 5.0, 1.0)], sites.clone(), 5.0);
        let b = solver.min_feasible_stretch(&late).expect("feasible");
        let fresh_late = ParametricDeadlineSolver::with_config(base.with_incremental(false))
            .min_feasible_stretch(&late)
            .expect("feasible");
        assert_eq!(b.to_bits(), fresh_late.to_bits());
    }
}

/// Regression on the reference event stream: the captured System-(2)
/// certified verdicts (per-event problems and slack objectives) must be
/// bit-identical with the incremental engine on and off.  This pins the
/// whole solve pipeline — refill, Newton, certification — on the
/// same 3-cluster workload the benches measure.
#[test]
fn incremental_capture_of_the_reference_stream_is_bit_identical() {
    use stretch_core::refstream::{capture_system2_events_with, reference_instance};

    let instance = reference_instance(3, 3, 20, 3);
    let base = stretch_core::SolverConfig::network_simplex();
    let incremental = capture_system2_events_with(&instance, base.with_incremental(true));
    let rebuild = capture_system2_events_with(&instance, base.with_incremental(false));
    assert_eq!(incremental.len(), rebuild.len(), "event count diverged");
    assert!(
        incremental.len() >= 10,
        "the reference stream must exercise a real event sequence, got {}",
        incremental.len()
    );
    for (event, ((ip, islack), (rp, rslack))) in incremental.iter().zip(&rebuild).enumerate() {
        assert_eq!(
            islack.to_bits(),
            rslack.to_bits(),
            "certified slack diverged at event {event}: {islack} vs {rslack}"
        );
        assert_eq!(ip.now.to_bits(), rp.now.to_bits(), "event {event} time");
        assert_eq!(ip.jobs.len(), rp.jobs.len(), "event {event} pending set");
        for (a, b) in ip.jobs.iter().zip(&rp.jobs) {
            assert_eq!(a.job_id, b.job_id, "event {event} job identity");
            assert_eq!(
                a.remaining.to_bits(),
                b.remaining.to_bits(),
                "event {event} job {} remaining",
                a.job_id
            );
        }
    }
}
