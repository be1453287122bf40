//! Turning an interval allocation (System (1)/(2) output) into an executable
//! schedule, and executing it for a while.
//!
//! The linear programs only say *how much* of each job runs on each site
//! within each epochal interval; §4.3.2 describes three ways of serialising
//! those fractions into an actual schedule (the `Online`, `Online-EDF` and
//! `Online-EGDF` variants).  This module implements the serialisations and a
//! small site-level executor able to stop at a horizon (the next release
//! date), reporting how much of every job was executed and which jobs
//! completed — exactly what the on-line schedulers need between two arrivals.

use crate::deadline::{AllocationPlan, DeadlineProblem};
use crate::sites::SiteView;
use std::collections::BTreeMap;

/// How per-site pieces are ordered before sequential execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PieceOrdering {
    /// The paper's `Online` variant: within each interval, *terminal* jobs
    /// (jobs whose share on this site completes in this interval) run first,
    /// in SWRPT order; non-terminal jobs follow.
    Online,
    /// The paper's `Online-EDF` variant: on each site, jobs run in the order
    /// of the interval in which their share on that site completes, ties
    /// broken by SWRPT.
    OnlineEdf,
}

/// The result of executing (part of) a plan.
#[derive(Clone, Debug, Default)]
pub struct PlanExecution {
    /// Work executed for each pending-job index (same indexing as the
    /// [`DeadlineProblem`] the plan was built from).
    pub executed: Vec<f64>,
    /// Completion time of the pending jobs that finished before the horizon.
    pub completions: BTreeMap<usize, f64>,
}

/// Builds, for every site, the ordered list of `(job_index, work)` chunks to
/// execute sequentially.
pub fn site_sequences(
    problem: &DeadlineProblem,
    plan: &AllocationPlan,
    ordering: PieceOrdering,
) -> Vec<Vec<(usize, f64)>> {
    let num_sites = problem.sites.len();
    let swrpt_key =
        |job_index: usize| problem.jobs[job_index].remaining * problem.jobs[job_index].work;
    // Index the plan once: the sort comparators below would otherwise scan
    // every piece per comparison (O(pieces · n log n) per serialisation).
    let index = plan.index(problem.jobs.len(), num_sites);
    let mut sequences = vec![Vec::new(); num_sites];

    for (site, sequence) in sequences.iter_mut().enumerate() {
        match ordering {
            PieceOrdering::Online => {
                // Gather this site's pieces and sort them by
                // (interval, terminal-first, SWRPT).
                let mut pieces: Vec<(usize, usize, f64)> = plan
                    .pieces
                    .iter()
                    .filter(|p| p.site == site && p.work > 1e-12)
                    .map(|p| (p.interval, p.job_index, p.work))
                    .collect();
                pieces.sort_by(|a, b| {
                    let terminal_a = index.completion_interval_on_site(a.1, site) == Some(a.0);
                    let terminal_b = index.completion_interval_on_site(b.1, site) == Some(b.0);
                    a.0.cmp(&b.0)
                        .then_with(|| terminal_b.cmp(&terminal_a)) // terminal first
                        .then_with(|| swrpt_key(a.1).total_cmp(&swrpt_key(b.1)))
                        // Final deterministic tie-break on the job index
                        // (jobs of the same databank have identical sizes,
                        // so SWRPT ties are common).
                        .then_with(|| a.1.cmp(&b.1))
                });
                *sequence = pieces.into_iter().map(|(_, j, w)| (j, w)).collect();
            }
            PieceOrdering::OnlineEdf => {
                // Aggregate the site's work per job (dense accumulator, job
                // order — deterministic by construction), then order jobs by
                // the interval in which their share on this site completes.
                let mut per_job = vec![0.0f64; problem.jobs.len()];
                for p in plan.pieces.iter().filter(|p| p.site == site) {
                    per_job[p.job_index] += p.work;
                }
                let mut jobs: Vec<(usize, f64)> = per_job
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, w)| w > 1e-12)
                    .collect();
                jobs.sort_by(|a, b| {
                    let ia = index.completion_interval_on_site(a.0, site).unwrap_or(0);
                    let ib = index.completion_interval_on_site(b.0, site).unwrap_or(0);
                    ia.cmp(&ib)
                        .then_with(|| swrpt_key(a.0).total_cmp(&swrpt_key(b.0)))
                        // Final deterministic tie-break on the job index.
                        .then_with(|| a.0.cmp(&b.0))
                });
                *sequence = jobs;
            }
        }
    }
    sequences
}

/// Executes per-site sequential chunk lists from `start` until `horizon`.
///
/// Each site processes its chunks back to back at its aggregate speed; a job
/// completes when the last of its chunks (across all sites) finishes.  Chunks
/// interrupted by the horizon contribute partial work.
pub fn execute_sequences(
    problem: &DeadlineProblem,
    sequences: &[Vec<(usize, f64)>],
    start: f64,
    horizon: f64,
) -> PlanExecution {
    let n = problem.jobs.len();
    let mut executed = vec![0.0; n];
    let mut last_finish: Vec<f64> = vec![start; n];
    let mut truncated = vec![false; n];

    for (site_idx, seq) in sequences.iter().enumerate() {
        let speed = problem.sites.sites[site_idx].speed;
        let mut clock = start;
        for &(job_index, work) in seq {
            // Never start a chunk before its job is released (relevant for the
            // off-line serialisation, where future jobs are part of the plan);
            // the plan assigns the chunk to an interval starting at or after
            // the ready time, so waiting here cannot push any later chunk past
            // its own interval.
            clock = clock.max(problem.jobs[job_index].ready.max(problem.now));
            if clock >= horizon - 1e-12 {
                truncated[job_index] = true;
                continue;
            }
            let duration = work / speed;
            let end = clock + duration;
            if end <= horizon + 1e-12 {
                executed[job_index] += work;
                last_finish[job_index] = last_finish[job_index].max(end);
                clock = end;
            } else {
                let done = (horizon - clock) * speed;
                executed[job_index] += done;
                truncated[job_index] = true;
                clock = horizon;
            }
        }
    }

    // A job whose pieces all ran completes when its shortfall is within what
    // the flow solve behind the plan may leave unshipped over the whole
    // instance, or within a relative rounding error of the job's size (on
    // multi-hundred-MB jobs that exceeds any fixed absolute epsilon).  The
    // first term matters when the solve's whole slack lands on one job:
    // left pending, that residual is not guaranteed to ship at any later
    // event, and the job would never complete.
    let demand: f64 = problem.jobs.iter().map(|job| job.remaining).sum();
    let accepted = stretch_flow::acceptance_tolerance(demand);
    let mut completions = BTreeMap::new();
    for (j, job) in problem.jobs.iter().enumerate() {
        let tolerance = accepted.max(job.work * 1e-6);
        if !truncated[j] && executed[j] >= job.remaining - tolerance {
            completions.insert(j, last_finish[j]);
        }
    }
    PlanExecution {
        executed,
        completions,
    }
}

/// Executes the §3 list-scheduling rule at site granularity for a *fixed*
/// priority order of the pending jobs, from `start` until `horizon`.
///
/// `order` lists pending-job indices from highest to lowest priority.  At any
/// instant the highest-priority unfinished job runs on every eligible site
/// not already grabbed by a higher-priority job; allocations are recomputed
/// whenever a job completes.  This is the executor used by `Online-EGDF`,
/// by the non-optimized on-line variant (EDF order) and by Bender98.
pub fn execute_list_order(
    problem: &DeadlineProblem,
    order: &[usize],
    sites: &SiteView,
    start: f64,
    horizon: f64,
) -> PlanExecution {
    let n = problem.jobs.len();
    let mut remaining: Vec<f64> = problem.jobs.iter().map(|j| j.remaining).collect();
    let mut executed = vec![0.0; n];
    let mut completions = BTreeMap::new();
    let mut now = start;

    loop {
        let unfinished: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&j| remaining[j] > 1e-9)
            .collect();
        if unfinished.is_empty() || now >= horizon - 1e-12 {
            break;
        }
        // Assign sites greedily in priority order.
        let mut site_taken = vec![false; sites.len()];
        let mut rates = vec![0.0; n];
        for &j in &unfinished {
            for (s, site) in sites.sites.iter().enumerate() {
                if !site_taken[s] && site.hosts(problem.jobs[j].databank) {
                    site_taken[s] = true;
                    rates[j] += site.speed;
                }
            }
        }
        // Next event: first completion under these rates, or the horizon.
        let mut next = horizon;
        for &j in &unfinished {
            if rates[j] > 1e-12 {
                next = next.min(now + remaining[j] / rates[j]);
            }
        }
        if !next.is_finite() || next <= now + 1e-12 {
            // No progress possible (e.g. no eligible site); avoid spinning.
            if next <= now + 1e-12 && next < horizon {
                next = now + 1e-9;
            } else {
                break;
            }
        }
        let dt = next - now;
        for &j in &unfinished {
            if rates[j] > 1e-12 {
                let done = (rates[j] * dt).min(remaining[j]);
                remaining[j] -= done;
                executed[j] += done;
                if remaining[j] <= 1e-9 {
                    remaining[j] = 0.0;
                    completions.insert(j, next);
                }
            }
        }
        now = next;
    }

    PlanExecution {
        executed,
        completions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::PendingJob;
    use crate::sites::{Site, SiteView};

    fn sites() -> SiteView {
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

    fn job(id: usize, release: f64, work: f64, databank: usize) -> PendingJob {
        PendingJob {
            job_id: id,
            release,
            ready: release,
            work,
            remaining: work,
            databank,
        }
    }

    fn problem(jobs: Vec<PendingJob>) -> DeadlineProblem {
        DeadlineProblem::new(jobs, sites(), 0.0)
    }

    #[test]
    fn sequences_cover_all_planned_work() {
        let p = problem(vec![job(0, 0.0, 3.0, 0), job(1, 0.0, 2.0, 1)]);
        let f = p.min_feasible_stretch().unwrap() * 1.01;
        let plan = p.system2_allocation(f).unwrap();
        for ordering in [PieceOrdering::Online, PieceOrdering::OnlineEdf] {
            let seqs = site_sequences(&p, &plan, ordering);
            let total: f64 = seqs.iter().flatten().map(|&(_, w)| w).sum();
            assert!((total - 5.0).abs() < 1e-5, "{ordering:?}: total {total}");
            // Databank 1 chunks only appear on site 1.
            for &(j, _) in &seqs[0] {
                assert_eq!(p.jobs[j].databank, 0);
            }
        }
    }

    #[test]
    fn execute_sequences_to_completion() {
        let p = problem(vec![job(0, 0.0, 2.0, 0), job(1, 0.0, 4.0, 1)]);
        let f = p.min_feasible_stretch().unwrap() * 1.01;
        let plan = p.system2_allocation(f).unwrap();
        let seqs = site_sequences(&p, &plan, PieceOrdering::OnlineEdf);
        let exec = execute_sequences(&p, &seqs, 0.0, f64::INFINITY);
        assert!((exec.executed[0] - 2.0).abs() < 1e-5);
        assert!((exec.executed[1] - 4.0).abs() < 1e-5);
        assert_eq!(exec.completions.len(), 2);
        // Completions never exceed the max-stretch deadlines.
        for (j, &c) in &exec.completions {
            assert!(c <= p.jobs[*j].deadline(f) + 1e-6);
        }
    }

    #[test]
    fn execute_sequences_respects_the_horizon() {
        let p = problem(vec![job(0, 0.0, 6.0, 0)]);
        let f = p.min_feasible_stretch().unwrap() * 1.01;
        let plan = p.system2_allocation(f).unwrap();
        let seqs = site_sequences(&p, &plan, PieceOrdering::Online);
        let exec = execute_sequences(&p, &seqs, 0.0, 1.0);
        // Both sites together run at 3 MB/s, so at most 3 units are executed
        // by t = 1 and the job is not completed.
        assert!(exec.executed[0] <= 3.0 + 1e-6);
        assert!(exec.completions.is_empty());
    }

    #[test]
    fn a_shortfall_within_the_solve_tolerance_completes_the_job() {
        // Demand 6002 lets a solve leave max(1e-6, 1e-9 · 6002) ≈ 6.0e-6
        // unshipped; job 0's relative slack is only 1e-6 · 2 = 2e-6.
        let p = problem(vec![job(0, 0.0, 2.0, 0), job(1, 0.0, 6000.0, 1)]);
        let shipped = 2.0 - 5e-6;
        let seqs = vec![vec![(0, shipped)], vec![]];
        let exec = execute_sequences(&p, &seqs, 0.0, f64::INFINITY);
        assert_eq!(exec.executed[0], shipped);
        assert_eq!(exec.completions.get(&0), Some(&shipped));
        assert!(!exec.completions.contains_key(&1), "job 1 never ran");

        // Cut off by the horizon, the same job does not complete, however
        // small the part the horizon cut.
        let horizon = shipped - 5e-7;
        let exec = execute_sequences(&p, &seqs, 0.0, horizon);
        assert_eq!(exec.executed[0], horizon);
        assert!(exec.completions.is_empty());
    }

    #[test]
    fn list_order_executor_serves_priorities_first() {
        let p = problem(vec![job(0, 0.0, 6.0, 0), job(1, 0.0, 2.0, 0)]);
        // Priority to job 1.
        let exec = execute_list_order(&p, &[1, 0], &sites(), 0.0, f64::INFINITY);
        // Job 1 takes both sites (3 MB/s): completes at 2/3.
        let c1 = exec.completions[&1];
        assert!((c1 - 2.0 / 3.0).abs() < 1e-6);
        // Job 0 then takes everything; total work 8 at 3 MB/s => makespan 8/3.
        let c0 = exec.completions[&0];
        assert!((c0 - 8.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn list_order_executor_respects_restricted_availability() {
        let p = problem(vec![job(0, 0.0, 4.0, 1), job(1, 0.0, 4.0, 0)]);
        // Job 0 first, but it can only use site 1; job 1 gets site 0.
        let exec = execute_list_order(&p, &[0, 1], &sites(), 0.0, f64::INFINITY);
        assert!((exec.completions[&0] - 2.0).abs() < 1e-6);
        // Job 1: 1 MB/s for 2 s, then 3 MB/s for the remaining 2 MB.
        assert!((exec.completions[&1] - (2.0 + 2.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    fn list_order_executor_stops_at_horizon() {
        let p = problem(vec![job(0, 0.0, 30.0, 0)]);
        let exec = execute_list_order(&p, &[0], &sites(), 0.0, 2.0);
        assert!((exec.executed[0] - 6.0).abs() < 1e-6);
        assert!(exec.completions.is_empty());
    }
}
