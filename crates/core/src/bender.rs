//! The Bender, Chakrabarti, Muthukrishnan (SODA'98) on-line algorithm.
//!
//! At every arrival the algorithm recomputes, *from scratch*, the off-line
//! optimal max-stretch `S*` of all the jobs released so far, gives every job
//! the deadline `r_j + α · S* · W_j` with the expansion factor `α = √Δ`, and
//! schedules by Earliest Deadline First.  It is `O(√Δ)`-competitive but, as
//! §5.3 shows, both expensive (one full off-line optimisation per arrival)
//! and pessimistic in practice.
//!
//! (The companion SODA'02 algorithm, `Bender02`, is a simple pseudo-stretch
//! priority rule and lives in [`crate::list`] as [`crate::list::ListRule::Bender02`].)

use crate::deadline::{DeadlineProblem, PendingJob};
use crate::online::{decision_points, fold_execution, pending_jobs, EVENT_TOL};
use crate::parametric::ParametricDeadlineSolver;
use crate::plan::execute_list_order;
use crate::scheduler::{ScheduleError, ScheduleResult, Scheduler};
use crate::sites::SiteView;
use stretch_workload::Instance;

/// The Bender et al. 1998 guaranteed on-line algorithm.
///
/// It has no knobs.  The per-arrival optimisation is the flow engine's
/// min-stretch search, whose max-flow probes involve no min-cost backend,
/// and the EDF plan runs no solve, so no
/// [`SolverConfig`](crate::SolverConfig) applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bender98Scheduler;

impl Bender98Scheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Bender98Scheduler
    }
}

impl Scheduler for Bender98Scheduler {
    fn name(&self) -> &'static str {
        "Bender98"
    }

    fn schedule(&self, instance: &Instance) -> Result<ScheduleResult, ScheduleError> {
        let n = instance.num_jobs();
        let sites = SiteView::of(instance);
        let mut remaining: Vec<f64> = instance.jobs.iter().map(|j| j.work).collect();
        let mut completions = vec![f64::NAN; n];

        let events = decision_points(instance);
        // One parametric engine across the per-arrival re-optimisations.
        let mut solver = ParametricDeadlineSolver::new();

        for (e, &now) in events.iter().enumerate() {
            let horizon = events.get(e + 1).copied().unwrap_or(f64::INFINITY);
            let arrived: Vec<&stretch_workload::Job> = instance
                .jobs
                .iter()
                .filter(|j| j.release <= now + EVENT_TOL)
                .collect();
            if arrived.is_empty() {
                continue;
            }

            // Off-line optimal max-stretch of every job arrived so far, from
            // scratch (full works, original release dates) — exactly what the
            // original algorithm prescribes, and the source of its overhead.
            let scratch_jobs: Vec<PendingJob> = arrived
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
            let scratch = DeadlineProblem::new(scratch_jobs, sites.clone(), 0.0);
            let optimal = solver.min_feasible_stretch(&scratch).ok_or_else(|| {
                ScheduleError::Unschedulable("no finite max-stretch achievable".into())
            })?;

            // Expansion factor √Δ over the jobs seen so far.
            let min_w = arrived.iter().map(|j| j.work).fold(f64::INFINITY, f64::min);
            let max_w = arrived.iter().map(|j| j.work).fold(0.0, f64::max);
            let alpha = (max_w / min_w).max(1.0).sqrt();
            let target = optimal * alpha;

            // EDF over the pending jobs with the expanded deadlines.
            let pending = pending_jobs(instance, &remaining, now);
            if pending.is_empty() {
                continue;
            }
            let problem = DeadlineProblem::new(pending, sites.clone(), now);
            let mut order: Vec<usize> = (0..problem.jobs.len()).collect();
            order.sort_by(|&a, &b| {
                let da = problem.jobs[a].deadline(target);
                let db = problem.jobs[b].deadline(target);
                da.total_cmp(&db)
            });
            let execution = execute_list_order(&problem, &order, &sites, now, horizon);
            fold_execution(&problem, &execution, &mut remaining, &mut completions);
        }

        if completions.iter().any(|c| c.is_nan()) {
            return Err(ScheduleError::Simulation(
                "some job never completed under Bender98".into(),
            ));
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
    use crate::offline::{optimal_max_stretch, OfflineBackend};
    use stretch_platform::fixtures::small_platform;
    use stretch_workload::Job;

    fn instance(jobs: Vec<Job>) -> Instance {
        Instance::new(small_platform(), jobs)
    }

    #[test]
    fn single_job_is_served_immediately() {
        let inst = instance(vec![Job::new(0, 0.0, 120.0, 0)]);
        let r = Bender98Scheduler::new().schedule(&inst).unwrap();
        assert!((r.completion(0) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn all_jobs_complete_and_respect_releases() {
        let inst = instance(vec![
            Job::new(0, 0.0, 200.0, 0),
            Job::new(1, 1.0, 60.0, 1),
            Job::new(2, 2.0, 90.0, 0),
            Job::new(3, 5.0, 30.0, 1),
        ]);
        let r = Bender98Scheduler::new().schedule(&inst).unwrap();
        assert_eq!(r.outcomes.len(), 4);
        for o in &r.outcomes {
            assert!(o.completion >= o.release - 1e-9);
        }
    }

    #[test]
    fn bender98_never_beats_the_offline_optimum_on_max_stretch() {
        let inst = instance(vec![
            Job::new(0, 0.0, 250.0, 0),
            Job::new(1, 0.5, 100.0, 1),
            Job::new(2, 1.5, 50.0, 0),
            Job::new(3, 3.0, 75.0, 1),
        ]);
        let r = Bender98Scheduler::new().schedule(&inst).unwrap();
        let opt = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        let aggregate = inst.platform.aggregate_speed();
        assert!(r.metrics.max_stretch / aggregate >= opt.stretch * (1.0 - 1e-3));
    }
}
