//! The paper's on-line max-stretch heuristics (§4.3.2).
//!
//! Every time a new job arrives:
//!
//! 1. the running work is preempted;
//! 2. the best max-stretch still achievable *given the work already executed*
//!    is recomputed (the remaining works and the current time enter the
//!    deadline problem — this is the improvement over Bender et al., who look
//!    for the from-scratch optimum);
//! 3. System (2) redistributes the remaining work under those deadlines,
//!    minimising the rational relaxation of the sum-stretch;
//! 4. the interval allocation is serialised into an actual schedule; the
//!    three published variants differ only in this step:
//!    * [`OnlineVariant::Online`] — per site and interval, terminal jobs
//!      first (SWRPT order), then non-terminal jobs;
//!    * [`OnlineVariant::OnlineEdf`] — per site, jobs ordered by the interval
//!      in which their share on that site completes;
//!    * [`OnlineVariant::OnlineEgdf`] — one global list ordered by the
//!      interval in which the whole job completes, dispatched with the §3
//!      rule.
//!
//! The extra variant [`OnlineVariant::NonOptimized`] stops after step 2 and
//! simply runs EDF on the resulting deadlines: it is the baseline of the
//! Figure 3 comparison, showing what the System-(2) refinement buys.
//!
//! # The event rule
//!
//! Every on-line loop of the crate (this one, [`crate::Bender98Scheduler`],
//! the serve layer's replayable scheduler) shares one rule for *when* it
//! decides and *what* is pending, written once here:
//!
//! * the decision points are the distinct release dates, two dates at most
//!   [`EVENT_TOL`] apart being one point ([`decision_points`]);
//! * a job is pending at a decision point once released (within
//!   [`EVENT_TOL`]) while more than [`PENDING_REMAINING_EPS`] of its work
//!   remains, and its remaining work may start right away
//!   ([`pending_job`]);
//! * the pending jobs are read, in ascending job index, from a
//!   [`PendingIndex`]: a job enters it once released and leaves it when a
//!   fold leaves it at most [`PENDING_REMAINING_EPS`] of work, so a
//!   decision costs O(pending), not O(jobs seen so far);
//! * after a decision executes, each pending job's executed work is
//!   subtracted from its remaining work, clamped at zero, completions are
//!   recorded and finished jobs leave the index ([`fold_execution`]).
//!
//! The serve layer must drain bit-identical to [`run_online_with`], which
//! is why it calls these instead of restating them.

use crate::config::SolverConfig;
use crate::deadline::{DeadlineProblem, PendingJob};
use crate::parametric::ParametricDeadlineSolver;
use crate::plan::{
    execute_list_order, execute_sequences, site_sequences, PieceOrdering, PlanExecution,
};
use crate::scheduler::{ScheduleError, ScheduleResult, Scheduler};
use crate::sites::SiteView;
use stretch_workload::Instance;

/// Two release dates at most this far apart are one decision point.
pub const EVENT_TOL: f64 = 1e-12;

/// A job with at most this much remaining work is no longer pending.
pub const PENDING_REMAINING_EPS: f64 = 1e-9;

/// The decision points of an on-line run: the release dates in ascending
/// order, each date within [`EVENT_TOL`] of the one before merged into it.
pub fn decision_points(instance: &Instance) -> Vec<f64> {
    let mut events: Vec<f64> = instance.jobs.iter().map(|j| j.release).collect();
    events.sort_by(|a, b| a.total_cmp(b));
    events.dedup_by(|a, b| (*a - *b).abs() <= EVENT_TOL);
    events
}

/// Job `job_id` — released at `release`, of size `work`, on `databank`,
/// with `remaining` work left — as an on-line loop sees it at decision
/// point `now`: ready at `now`, or `None` when it is not pending there.
pub fn pending_job(
    job_id: usize,
    release: f64,
    work: f64,
    databank: usize,
    remaining: f64,
    now: f64,
) -> Option<PendingJob> {
    (released(release, now) && remaining > PENDING_REMAINING_EPS).then_some(PendingJob {
        job_id,
        release,
        ready: now,
        work,
        remaining,
        databank,
    })
}

/// `true` when a job released at `release` has arrived by decision point
/// `now`.
fn released(release: f64, now: f64) -> bool {
    release <= now + EVENT_TOL
}

/// The jobs of an on-line run that are released and unfinished, in
/// ascending job index — the pending set of the next decision, kept
/// across decisions instead of re-scanned from every job seen so far.
///
/// Jobs are offered to [`PendingIndex::admit`] once each, in job order,
/// when released; a job enters with more than [`PENDING_REMAINING_EPS`]
/// of work left and leaves when [`fold_execution`] leaves it at most that.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PendingIndex {
    /// Jobs offered so far: ids `0..offered`.
    offered: usize,
    /// The unfinished ones among them, ascending.
    ids: Vec<usize>,
}

impl PendingIndex {
    /// An index no job has been offered to.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers job `job_id`, released at the current decision point with
    /// `remaining` work left; it enters the index unless that work is at
    /// most [`PENDING_REMAINING_EPS`].  Jobs must be offered in job order,
    /// starting at 0, which keeps the index ascending.
    pub fn admit(&mut self, job_id: usize, remaining: f64) {
        assert_eq!(job_id, self.offered, "jobs are offered in job order");
        self.offered += 1;
        if remaining > PENDING_REMAINING_EPS {
            self.ids.push(job_id);
        }
    }

    /// Offers every job of `instance` released by `now` and not offered
    /// yet.  `instance.jobs` is sorted by release, so they are the next
    /// ones in job order.
    pub(crate) fn admit_released(&mut self, instance: &Instance, remaining: &[f64], now: f64) {
        while let Some(job) = instance.jobs.get(self.offered) {
            if !released(job.release, now) {
                break;
            }
            self.admit(job.id, remaining[job.id]);
        }
    }

    /// The unfinished jobs, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Number of unfinished jobs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no job is unfinished.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Audit (feature `invariant-audit`): the index must list exactly the
    /// jobs a full scan finds pending at `now` — released (within
    /// [`EVENT_TOL`]), more than [`PENDING_REMAINING_EPS`] of work left —
    /// in ascending job index.  `releases` and `remaining` are indexed by
    /// job id.
    #[cfg(feature = "invariant-audit")]
    pub fn audit(
        &self,
        context: &str,
        releases: impl Iterator<Item = f64>,
        remaining: &[f64],
        now: f64,
    ) {
        let scan: Vec<usize> = releases
            .zip(remaining)
            .enumerate()
            .filter(|&(_, (release, &left))| released(release, now) && left > PENDING_REMAINING_EPS)
            .map(|(id, _)| id)
            .collect();
        if scan != self.ids {
            stretch_flow::audit::fail(
                "pending-index",
                &format!(
                    "{context}: the index lists {:?} but a full scan at {now} finds {scan:?}",
                    self.ids
                ),
            );
        }
    }
}

/// The pending jobs of `instance` at decision point `now`, in ascending
/// job index, given each job's remaining work (indexed by job id).
pub(crate) fn pending_jobs(
    instance: &Instance,
    index: &PendingIndex,
    remaining: &[f64],
    now: f64,
) -> Vec<PendingJob> {
    index
        .ids()
        .iter()
        .filter_map(|&id| {
            let j = &instance.jobs[id];
            pending_job(id, j.release, j.work, j.databank, remaining[id], now)
        })
        .collect()
}

/// Folds an executed decision on `problem` back into the per-job state
/// (indexed by job id): each pending job's executed work is subtracted
/// from its remaining work, clamped at zero, and a completed job gets its
/// completion time and no remaining work.  Jobs left with at most
/// [`PENDING_REMAINING_EPS`] of work leave `index`.
pub fn fold_execution(
    problem: &DeadlineProblem,
    execution: &PlanExecution,
    remaining: &mut [f64],
    completions: &mut [f64],
    index: &mut PendingIndex,
) {
    for (pending_idx, job) in problem.jobs.iter().enumerate() {
        remaining[job.job_id] = (remaining[job.job_id] - execution.executed[pending_idx]).max(0.0);
        if let Some(&c) = execution.completions.get(&pending_idx) {
            remaining[job.job_id] = 0.0;
            completions[job.job_id] = c;
        }
    }
    index
        .ids
        .retain(|&id| remaining[id] > PENDING_REMAINING_EPS);
}

/// The serialisation variants of the on-line heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnlineVariant {
    /// Terminal-jobs-first serialisation (the paper's `Online`).
    Online,
    /// Per-site EDF-like serialisation (the paper's `Online-EDF`).
    OnlineEdf,
    /// Global list serialisation (the paper's `Online-EGDF`).
    OnlineEgdf,
    /// No System-(2) refinement: EDF on the optimal-stretch deadlines
    /// (the "non-optimized" baseline of Figure 3).
    NonOptimized,
}

impl OnlineVariant {
    /// Display name used in the tables.
    pub fn name(&self) -> &'static str {
        match self {
            OnlineVariant::Online => "Online",
            OnlineVariant::OnlineEdf => "Online-EDF",
            OnlineVariant::OnlineEgdf => "Online-EGDF",
            OnlineVariant::NonOptimized => "Online-NoOpt",
        }
    }
}

/// The on-line LP/flow-based scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineScheduler {
    variant: OnlineVariant,
    config: SolverConfig,
}

impl OnlineScheduler {
    /// Creates a scheduler for the given variant with the default
    /// [`SolverConfig`].
    pub fn new(variant: OnlineVariant) -> Self {
        Self::with_config(variant, SolverConfig::default())
    }

    /// Creates a scheduler for the given variant on an explicit solver
    /// configuration (min-cost backend selection).
    pub fn with_config(variant: OnlineVariant, config: SolverConfig) -> Self {
        OnlineScheduler { variant, config }
    }

    /// The `Online` variant.
    pub fn online() -> Self {
        Self::new(OnlineVariant::Online)
    }
    /// The `Online-EDF` variant.
    pub fn online_edf() -> Self {
        Self::new(OnlineVariant::OnlineEdf)
    }
    /// The `Online-EGDF` variant.
    pub fn online_egdf() -> Self {
        Self::new(OnlineVariant::OnlineEgdf)
    }
    /// The non-optimized baseline (stops after the max-stretch computation).
    pub fn non_optimized() -> Self {
        Self::new(OnlineVariant::NonOptimized)
    }
}

impl Scheduler for OnlineScheduler {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn schedule(&self, instance: &Instance) -> Result<ScheduleResult, ScheduleError> {
        let completions = run_online_with(instance, self.variant, self.config)?;
        Ok(ScheduleResult::from_completions(
            self.name(),
            instance,
            &completions,
        ))
    }
}

/// Runs the on-line heuristic and returns per-job completion times.
pub fn run_online(instance: &Instance, variant: OnlineVariant) -> Result<Vec<f64>, ScheduleError> {
    run_online_with(instance, variant, SolverConfig::default())
}

/// [`run_online`] on an explicit solver configuration.
pub fn run_online_with(
    instance: &Instance,
    variant: OnlineVariant,
    config: SolverConfig,
) -> Result<Vec<f64>, ScheduleError> {
    let completions = run_online_observed(instance, variant, config, |_, _| {})?;
    if completions.iter().any(|c| c.is_nan()) {
        return Err(ScheduleError::Simulation(
            "some job never completed under the on-line heuristic".into(),
        ));
    }
    Ok(completions)
}

/// The event loop of [`run_online_with`], calling `observe(problem, best)`
/// at every decision with its deadline problem and optimal max-stretch,
/// before the allocation step.  Returns the completion times, `NaN` for a
/// job that never completed.
pub(crate) fn run_online_observed(
    instance: &Instance,
    variant: OnlineVariant,
    config: SolverConfig,
    mut observe: impl FnMut(&DeadlineProblem, f64),
) -> Result<Vec<f64>, ScheduleError> {
    let n = instance.num_jobs();
    let sites = SiteView::of(instance);
    let mut remaining: Vec<f64> = instance.jobs.iter().map(|j| j.work).collect();
    let mut completions = vec![f64::NAN; n];
    if n == 0 {
        return Ok(completions);
    }
    // One parametric engine for the whole run: every per-event optimisation
    // (the min-stretch search and the System-(2) re-allocation) reuses its
    // scratch buffers — and the configured min-cost backend, which may carry
    // a warm-startable basis — instead of reallocating them at each arrival.
    let mut solver = ParametricDeadlineSolver::with_config(config);
    let mut index = PendingIndex::new();

    let events = decision_points(instance);
    for (e, &now) in events.iter().enumerate() {
        let horizon = events.get(e + 1).copied().unwrap_or(f64::INFINITY);
        index.admit_released(instance, &remaining, now);
        #[cfg(feature = "invariant-audit")]
        index.audit(
            "run_online",
            instance.jobs.iter().map(|j| j.release),
            &remaining,
            now,
        );
        let pending = pending_jobs(instance, &index, &remaining, now);
        if pending.is_empty() {
            continue;
        }
        let problem = DeadlineProblem::new(pending, sites.clone(), now);

        // Step 2: best achievable max-stretch given the decisions already made.
        let best = solver.min_feasible_stretch(&problem).ok_or_else(|| {
            ScheduleError::Unschedulable("no finite max-stretch achievable on-line".into())
        })?;
        observe(&problem, best);

        // Steps 3-4: allocate and serialise according to the variant.
        let mut allocate = || {
            solver.certified_allocation(&problem, best).ok_or_else(|| {
                ScheduleError::Optimisation(
                    "System (2) infeasible at the optimal max-stretch".into(),
                )
            })
        };
        let execution = match variant {
            OnlineVariant::Online | OnlineVariant::OnlineEdf => {
                let plan = allocate()?;
                let ordering = if variant == OnlineVariant::Online {
                    PieceOrdering::Online
                } else {
                    PieceOrdering::OnlineEdf
                };
                let sequences = site_sequences(&problem, &plan, ordering);
                execute_sequences(&problem, &sequences, now, horizon)
            }
            OnlineVariant::OnlineEgdf => {
                let plan = allocate()?;
                // Global order: interval in which the job's total work
                // completes, ties broken by SWRPT.  The completion intervals
                // are indexed once so the comparator is O(1).
                let index = plan.index(problem.jobs.len(), sites.len());
                let mut order: Vec<usize> = (0..problem.jobs.len()).collect();
                order.sort_by(|&a, &b| {
                    let ia = index.completion_interval(a).unwrap_or(usize::MAX);
                    let ib = index.completion_interval(b).unwrap_or(usize::MAX);
                    ia.cmp(&ib)
                        .then_with(|| {
                            let ka = problem.jobs[a].remaining * problem.jobs[a].work;
                            let kb = problem.jobs[b].remaining * problem.jobs[b].work;
                            ka.total_cmp(&kb)
                        })
                        .then_with(|| a.cmp(&b))
                });
                execute_list_order(&problem, &order, &sites, now, horizon)
            }
            OnlineVariant::NonOptimized => {
                // Stop after step 2: keep the raw feasibility allocation that
                // certifies the optimal max-stretch, without re-optimising how
                // early each job finishes.  This is the behaviour the paper
                // criticises ("all jobs scheduled so that their stretch is
                // equal to the objective") and the baseline of Figure 3.
                let plan = solver
                    .certified_feasibility_allocation(&problem, best)
                    .ok_or_else(|| {
                        ScheduleError::Optimisation(
                            "feasibility allocation unavailable at the optimal max-stretch".into(),
                        )
                    })?;
                let sequences = site_sequences(&problem, &plan, PieceOrdering::OnlineEdf);
                execute_sequences(&problem, &sequences, now, horizon)
            }
        };
        fold_execution(
            &problem,
            &execution,
            &mut remaining,
            &mut completions,
            &mut index,
        );
    }
    Ok(completions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListScheduler;
    use crate::offline::{optimal_max_stretch, OfflineBackend};
    use stretch_platform::fixtures::small_platform;
    use stretch_workload::Job;

    fn instance(jobs: Vec<Job>) -> Instance {
        Instance::new(small_platform(), jobs)
    }

    fn mixed_instance() -> Instance {
        instance(vec![
            Job::new(0, 0.0, 300.0, 0),
            Job::new(1, 1.0, 60.0, 1),
            Job::new(2, 2.5, 120.0, 0),
            Job::new(3, 4.0, 30.0, 1),
            Job::new(4, 6.0, 90.0, 0),
        ])
    }

    #[test]
    fn single_job_completes_at_platform_speed() {
        let inst = instance(vec![Job::new(0, 0.0, 120.0, 0)]);
        for variant in [
            OnlineVariant::Online,
            OnlineVariant::OnlineEdf,
            OnlineVariant::OnlineEgdf,
            OnlineVariant::NonOptimized,
        ] {
            let r = OnlineScheduler::new(variant).schedule(&inst).unwrap();
            assert!(
                (r.completion(0) - 2.0).abs() < 1e-3,
                "{}: completion {}",
                variant.name(),
                r.completion(0)
            );
        }
    }

    #[test]
    fn all_variants_complete_every_job_and_respect_releases() {
        let inst = mixed_instance();
        for variant in [
            OnlineVariant::Online,
            OnlineVariant::OnlineEdf,
            OnlineVariant::OnlineEgdf,
            OnlineVariant::NonOptimized,
        ] {
            let r = OnlineScheduler::new(variant).schedule(&inst).unwrap();
            assert_eq!(r.outcomes.len(), 5, "{}", variant.name());
            for o in &r.outcomes {
                assert!(o.completion >= o.release - 1e-9, "{}", variant.name());
            }
        }
    }

    #[test]
    fn online_max_stretch_is_close_to_the_offline_optimum() {
        // Table 1: Online and Online-EDF are within a fraction of a percent of
        // the off-line optimum on average; on this small instance we allow a
        // loose factor but verify they are not wildly off.
        let inst = mixed_instance();
        let opt = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        let aggregate = inst.platform.aggregate_speed();
        for scheduler in [OnlineScheduler::online(), OnlineScheduler::online_edf()] {
            let r = scheduler.schedule(&inst).unwrap();
            let achieved = r.metrics.max_stretch / aggregate;
            assert!(
                achieved <= opt.stretch * 1.6 + 1e-9,
                "{}: achieved {achieved} vs optimal {}",
                scheduler.name(),
                opt.stretch
            );
            // And of course never better than the optimum.
            assert!(achieved >= opt.stretch * (1.0 - 1e-3));
        }
    }

    #[test]
    fn non_optimized_variant_still_achieves_near_optimal_max_stretch() {
        // Figure 3(a): both the optimized and the non-optimized versions stay
        // close to the optimal max-stretch; only the sum-stretch differs (the
        // average gain of Figure 3(b) is checked in the experiments crate,
        // where it is measured over many random instances as in the paper).
        let inst = mixed_instance();
        let opt = optimal_max_stretch(&inst, OfflineBackend::Flow).unwrap();
        let aggregate = inst.platform.aggregate_speed();
        let refined = OnlineScheduler::online().schedule(&inst).unwrap();
        let baseline = OnlineScheduler::non_optimized().schedule(&inst).unwrap();
        for r in [&refined, &baseline] {
            let achieved = r.metrics.max_stretch / aggregate;
            assert!(
                achieved <= opt.stretch * 1.6 + 1e-9,
                "{}: achieved {achieved} vs optimal {}",
                r.scheduler,
                opt.stretch
            );
        }
    }

    #[test]
    fn egdf_tracks_good_sum_stretch() {
        // Table 1: Online-EGDF trades a bit of max-stretch for sum-stretch
        // close to SWRPT's.
        let inst = mixed_instance();
        let egdf = OnlineScheduler::online_egdf().schedule(&inst).unwrap();
        let swrpt = ListScheduler::swrpt().schedule(&inst).unwrap();
        assert!(egdf.metrics.sum_stretch <= swrpt.metrics.sum_stretch * 1.25);
    }

    #[test]
    fn empty_instance_is_rejected_upstream() {
        // Instance::new with zero jobs is legal; the scheduler returns no
        // completions and ScheduleResult::from_completions would panic on the
        // empty metric set, so run_online is exercised directly.
        let inst = instance(vec![Job::new(0, 0.0, 10.0, 0)]);
        let completions = run_online(&inst, OnlineVariant::Online).unwrap();
        assert_eq!(completions.len(), 1);
    }
}
