//! The off-line optimal max-stretch scheduler (§4.3.1).
//!
//! With every release date known in advance, minimising the max-stretch
//! reduces to a deadline-scheduling problem parametrised by the objective
//! `F`: binary-search the milestones, check feasibility on each candidate
//! interval, and take the smallest feasible `F`.  Two back-ends compute the
//! optimum ([`optimal_max_stretch`]):
//!
//! * [`OfflineBackend::Flow`] (default, and the one [`OfflineScheduler`]
//!   runs): feasibility as a transportation max-flow plus a numeric
//!   bisection — fast, used for the simulation sweeps;
//! * [`OfflineBackend::Lp`]: the paper's System (1) solved exactly on the
//!   final milestone interval with the `stretch-lp` simplex.
//!
//! The optimal objective value is then realised as an actual schedule by
//! serialising the interval allocation per site (deadline order), which keeps
//! every completion within its deadline and therefore achieves the optimal
//! max-stretch.

use crate::deadline::{DeadlineProblem, PendingJob};
use crate::parametric::ParametricDeadlineSolver;
use crate::plan::{execute_sequences, site_sequences, PieceOrdering};
use crate::scheduler::{ScheduleError, ScheduleResult, Scheduler};
use crate::sites::SiteView;
use crate::system1;
use stretch_workload::Instance;

/// Which engine computes the optimal max-stretch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OfflineBackend {
    /// Transportation max-flow feasibility + bisection (fast, default).
    #[default]
    Flow,
    /// The paper's System (1) linear program on the final milestone interval.
    Lp,
}

/// The optimal max-stretch value together with the problem it was computed on.
#[derive(Clone, Debug)]
pub struct OptimalStretch {
    /// The minimal achievable max-stretch, in the paper's `F_j / W_j` units.
    pub stretch: f64,
    /// The deadline problem (site view + pending jobs) used to compute it.
    pub problem: DeadlineProblem,
}

/// Builds the off-line deadline problem of an instance: every job pending
/// with its full work, ready at its release date.
pub fn offline_problem(instance: &Instance) -> DeadlineProblem {
    let sites = SiteView::of(instance);
    // Release dates are nonnegative in this model, so the off-line problem
    // always starts at time zero (the seed computed the same value through a
    // min/max chain).
    let now = 0.0;
    let jobs = instance
        .jobs
        .iter()
        .map(|j| PendingJob {
            job_id: j.id,
            release: j.release,
            ready: j.release,
            work: j.work,
            remaining: j.work,
            databank: j.databank,
        })
        .collect();
    DeadlineProblem::new(jobs, sites, now)
}

/// Computes the optimal (off-line) max-stretch of an instance.
pub fn optimal_max_stretch(
    instance: &Instance,
    backend: OfflineBackend,
) -> Result<OptimalStretch, ScheduleError> {
    let problem = offline_problem(instance);
    let stretch = match backend {
        OfflineBackend::Flow => problem.min_feasible_stretch(),
        OfflineBackend::Lp => system1::optimal_stretch_lp(&problem),
    }
    .ok_or_else(|| ScheduleError::Unschedulable("no finite max-stretch is achievable".into()))?;
    Ok(OptimalStretch { stretch, problem })
}

/// The off-line optimal max-stretch scheduler.
///
/// It has no knobs.  The optimum is searched with the flow engine
/// ([`OfflineBackend::Flow`]) and realised with the zero-cost feasibility
/// allocation, so no min-cost backend takes part; the LP engine stays
/// reachable as [`optimal_max_stretch`]`(.., OfflineBackend::Lp)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OfflineScheduler;

impl OfflineScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        OfflineScheduler
    }
}

impl Scheduler for OfflineScheduler {
    fn name(&self) -> &'static str {
        "Offline"
    }

    fn schedule(&self, instance: &Instance) -> Result<ScheduleResult, ScheduleError> {
        let OptimalStretch { stretch, problem } =
            optimal_max_stretch(instance, OfflineBackend::Flow)?;
        // Realise the optimum: compute a feasible allocation at (marginally
        // above) the optimal objective, then serialise it per site.  The
        // allocation is the plain feasibility solution — the paper's Offline
        // algorithm does not re-optimise the sum-stretch, which is exactly why
        // its sum-stretch column in Table 1 is mediocre.
        //
        // The objective is the certified slack above the optimum, retried
        // at a looser one when the transport solve rejects it (the same
        // rule as the on-line allocation).
        let plan = ParametricDeadlineSolver::new()
            .certified_feasibility_allocation(&problem, stretch)
            .ok_or_else(|| {
                ScheduleError::Optimisation("allocation infeasible at the optimal stretch".into())
            })?;
        let sequences = site_sequences(&problem, &plan, PieceOrdering::Online);
        let execution = execute_sequences(&problem, &sequences, problem.now, f64::INFINITY);

        let mut completions = vec![f64::NAN; instance.num_jobs()];
        for (pending_idx, job) in problem.jobs.iter().enumerate() {
            let c = execution
                .completions
                .get(&pending_idx)
                .copied()
                .ok_or_else(|| {
                    ScheduleError::Optimisation(format!(
                        "job {} not completed by the serialised optimal plan",
                        job.job_id
                    ))
                })?;
            completions[job.job_id] = c;
        }
        Ok(ScheduleResult::from_completions(
            self.name(),
            instance,
            &completions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::MctScheduler;
    use crate::list::ListScheduler;
    use stretch_platform::fixtures::small_platform;
    use stretch_workload::Job;

    fn instance(jobs: Vec<Job>) -> Instance {
        Instance::new(small_platform(), jobs)
    }

    #[test]
    fn single_job_optimum_matches_full_platform_speed() {
        let inst = instance(vec![Job::new(0, 0.0, 120.0, 0)]);
        let opt = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        // Alone, the job takes 2 s on the 60 MB/s platform: stretch (in the
        // F/W unit) = 2/120.
        assert!((opt.stretch - 2.0 / 120.0).abs() < 1e-6);
        let r = OfflineScheduler::new().schedule(&inst).unwrap();
        // The realised schedule works at the optimum plus the allocation
        // slack (1e-4 relative), hence the 1e-3 margin.
        assert!((r.completion(0) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn flow_and_lp_backends_agree() {
        let inst = instance(vec![
            Job::new(0, 0.0, 200.0, 0),
            Job::new(1, 1.0, 50.0, 1),
            Job::new(2, 2.0, 100.0, 0),
        ]);
        let flow = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        let lp = optimal_max_stretch(&inst, OfflineBackend::Lp).unwrap();
        assert!(
            (flow.stretch - lp.stretch).abs() < 1e-3 * flow.stretch.max(1e-9),
            "flow {} vs lp {}",
            flow.stretch,
            lp.stretch
        );
    }

    #[test]
    fn offline_schedule_realises_the_optimal_max_stretch() {
        let inst = instance(vec![
            Job::new(0, 0.0, 300.0, 0),
            Job::new(1, 1.0, 60.0, 1),
            Job::new(2, 3.0, 120.0, 0),
            Job::new(3, 4.0, 30.0, 0),
        ]);
        let opt = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        let r = OfflineScheduler::new().schedule(&inst).unwrap();
        // The realised schedule meets every deadline of the optimal objective,
        // so its max-stretch (converted to the same unit) matches the optimum
        // within tolerance.
        let aggregate = inst.platform.aggregate_speed();
        let realised = r.metrics.max_stretch / aggregate; // back to F/W units
        assert!(
            realised <= opt.stretch * (1.0 + 1e-3) + 1e-9,
            "realised {realised} vs optimal {}",
            opt.stretch
        );
    }

    #[test]
    fn offline_is_never_beaten_on_max_stretch() {
        let inst = instance(vec![
            Job::new(0, 0.0, 250.0, 0),
            Job::new(1, 0.5, 80.0, 1),
            Job::new(2, 1.0, 40.0, 0),
            Job::new(3, 2.0, 160.0, 1),
            Job::new(4, 5.0, 20.0, 0),
        ]);
        let offline = OfflineScheduler::new().schedule(&inst).unwrap();
        let heuristics: Vec<Box<dyn Scheduler>> = vec![
            Box::new(ListScheduler::fcfs()),
            Box::new(ListScheduler::srpt()),
            Box::new(ListScheduler::swrpt()),
            Box::new(MctScheduler::mct()),
            Box::new(MctScheduler::mct_div()),
        ];
        for h in heuristics {
            let r = h.schedule(&inst).unwrap();
            assert!(
                offline.metrics.max_stretch <= r.metrics.max_stretch * (1.0 + 5e-4) + 1e-9,
                "{} beat the optimal max-stretch: {} < {}",
                h.name(),
                r.metrics.max_stretch,
                offline.metrics.max_stretch
            );
        }
    }
}
