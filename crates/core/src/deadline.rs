//! Deadline-scheduling machinery shared by the off-line optimal solver
//! (§4.3.1) and the on-line heuristics (§4.3.2).
//!
//! Looking for a schedule of max-stretch at most `F` is equivalent to asking
//! every job `J_j` to finish before the deadline `d_j(F) = r_j + F · W_j`.
//! Once `F` is fixed, the *epochal times* (ready times and deadlines) cut the
//! time axis into intervals on which the paper's Systems (1) and (2) are
//! written.  With jobs divisible and sites collapsed per Lemma 1, the
//! resulting problems are transportation problems, solved here with
//! `stretch-flow`; the LP formulations of [`crate::system1`] and
//! [`crate::system2`] are kept for fidelity and cross-validation.

use crate::parametric::ParametricDeadlineSolver;
use crate::sites::SiteView;
use stretch_flow::{
    FlowWorkspace, MinCostBackend, PrimalDualBackend, TransportArena, TransportInstance,
    TransportSolution,
};

/// Relative tolerance used when bisecting on the objective `F`.
pub const STRETCH_TOL: f64 = 1e-7;

// ---------------------------------------------------------------------------
// The numerical-tolerance family.
//
// Every epsilon below used to be an ad-hoc literal scattered through this
// file; they are named (and related) here so paper-scale magnitudes (release
// dates ~1e3 s, works ~1e3 MB, stretches spanning 1e-2…1e2) meet one
// consistent hierarchy:
//
//     WORK_EPS  =  MILESTONE_DEDUP_RTOL  «  EPOCHAL_DEDUP_RTOL
//               =  INTERVAL_SLACK_RTOL   «  STRETCH_TOL
//
// The *_RTOL values are relative (scaled by `|x|.max(1.0)` at the use
// site); WORK_EPS is absolute, far below the smallest meaningful amount of
// work (databanks are ≥ 10 MB).  EPOCHAL_DEDUP_RTOL and
// INTERVAL_SLACK_RTOL are deliberately the same value *and the same
// units*: whenever the dedup merges a job's ready time into a slightly
// earlier epochal time, the membership slack must re-admit the job into
// the interval starting there, at any clock magnitude.  STRETCH_TOL — the
// objective-search tolerance — must dominate them all, otherwise the
// search can terminate on a value whose epochal structure is still
// numerically ambiguous.
// ---------------------------------------------------------------------------

/// Relative tolerance for deduplicating milestone values of `F`
/// (§4.3.1): two milestones closer than this are one candidate.
pub const MILESTONE_DEDUP_RTOL: f64 = 1e-12;

/// Relative tolerance for deduplicating epochal times (ready times and
/// deadlines): coarser than [`MILESTONE_DEDUP_RTOL`] because epochal times
/// feed interval widths, where near-zero gaps create degenerate
/// transportation bins.
pub const EPOCHAL_DEDUP_RTOL: f64 = 1e-9;

/// Absolute work threshold (MB) below which a piece, or a job's remaining
/// work, is treated as zero.
pub const WORK_EPS: f64 = 1e-12;

/// Relative slack for interval-membership tests when routing work into
/// `(site, interval)` bins: a job may use an interval whose start precedes
/// its ready time (or whose end overshoots its deadline) by up to
/// `INTERVAL_SLACK_RTOL · |t|.max(1.0)`.  Must be at least
/// [`EPOCHAL_DEDUP_RTOL`]: the dedup may move a ready time *backwards* by
/// that relative amount, and the job must still be admitted into the
/// interval starting at the merged epoch.
pub const INTERVAL_SLACK_RTOL: f64 = 1e-9;

/// The objective an allocation is solved at, given the optimal max-stretch
/// `best` returned by the bisection/Newton search.
///
/// The slack must dominate both the search tolerance ([`STRETCH_TOL`],
/// relative) and the flow feasibility tolerance, otherwise an allocation at
/// the search's answer can be judged infeasible by the tighter-toleranced
/// min-cost solve.  Every consumer of a computed optimum (the on-line loop,
/// the off-line realisation, the benches and the differential tests) must
/// use this one formula so they solve the same instances.
pub fn certified_slack(best: f64) -> f64 {
    best * (1.0 + 1e-4) + 1e-9
}

/// A job still needing work, as seen by the deadline-scheduling problems.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingJob {
    /// Job id in the instance.
    pub job_id: usize,
    /// Original release date `r_j` (enters the deadline formula).
    pub release: f64,
    /// Earliest time the remaining work may execute (`max(r_j, now)` for
    /// on-line schedulers, `r_j` off-line).
    pub ready: f64,
    /// Original size `W_j` (enters the deadline formula).
    pub work: f64,
    /// Remaining work to schedule.
    pub remaining: f64,
    /// Target databank (eligibility).
    pub databank: usize,
}

impl PendingJob {
    /// Deadline under max-stretch objective `F`.
    pub fn deadline(&self, stretch: f64) -> f64 {
        self.release + stretch * self.work
    }
}

/// A work piece of the allocation produced by System (2): `work` units of
/// `job_id` assigned to `site` within interval `interval`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Piece {
    /// Index into the pending-job list.
    pub job_index: usize,
    /// Job id in the instance.
    pub job_id: usize,
    /// Site index (cluster).
    pub site: usize,
    /// Index into [`AllocationPlan::intervals`].
    pub interval: usize,
    /// Amount of work (MB).
    pub work: f64,
}

/// The full allocation of remaining work over sites and epochal intervals.
#[derive(Clone, Debug, Default)]
pub struct AllocationPlan {
    /// Epochal intervals `[start, end)`, in increasing order.
    pub intervals: Vec<(f64, f64)>,
    /// Work pieces; several pieces may refer to the same `(job, site,
    /// interval)` triple (they are simply summed by consumers).
    pub pieces: Vec<Piece>,
}

/// Precomputed per-job views of an [`AllocationPlan`].
///
/// [`AllocationPlan::work_of`] and the `completion_interval*` lookups are
/// `O(pieces)` linear scans; the serialisation step calls them inside
/// `O(n log n)` sort comparators, turning every scheduling decision into
/// `O(pieces · n log n)`.  Building this index once per plan makes each
/// comparator lookup `O(1)`.
#[derive(Clone, Debug)]
pub struct PlanIndex {
    num_sites: usize,
    /// Total work assigned to each job.
    work: Vec<f64>,
    /// Last interval in which each job receives work, over all sites.
    completion: Vec<Option<usize>>,
    /// Last interval in which each job receives work on each site
    /// (row-major `job × site`).
    completion_on_site: Vec<Option<usize>>,
}

impl PlanIndex {
    /// Total work assigned to one job (see [`AllocationPlan::work_of`]).
    pub fn work_of(&self, job_index: usize) -> f64 {
        self.work[job_index]
    }

    /// Completion interval of one job over all sites (see
    /// [`AllocationPlan::completion_interval`]).
    pub fn completion_interval(&self, job_index: usize) -> Option<usize> {
        self.completion[job_index]
    }

    /// Completion interval of one job on one site (see
    /// [`AllocationPlan::completion_interval_on_site`]).
    pub fn completion_interval_on_site(&self, job_index: usize, site: usize) -> Option<usize> {
        self.completion_on_site[job_index * self.num_sites + site]
    }
}

impl AllocationPlan {
    /// Builds the per-job piece index in one pass over the pieces.
    pub fn index(&self, num_jobs: usize, num_sites: usize) -> PlanIndex {
        let mut index = PlanIndex {
            num_sites,
            work: vec![0.0; num_jobs],
            completion: vec![None; num_jobs],
            completion_on_site: vec![None; num_jobs * num_sites],
        };
        for p in &self.pieces {
            index.work[p.job_index] += p.work;
            if p.work > WORK_EPS {
                let all = &mut index.completion[p.job_index];
                *all = Some(all.map_or(p.interval, |i| i.max(p.interval)));
                let on_site = &mut index.completion_on_site[p.job_index * num_sites + p.site];
                *on_site = Some(on_site.map_or(p.interval, |i| i.max(p.interval)));
            }
        }
        index
    }

    /// Assembles a plan from a transportation solution over `site ×
    /// interval` bins (the common post-processing of the System-(1)/(2)
    /// solves).
    pub fn from_transport(
        problem: &DeadlineProblem,
        intervals: Vec<(f64, f64)>,
        solution: &TransportSolution,
    ) -> AllocationPlan {
        let num_intervals = intervals.len();
        let pieces = solution
            .allocations
            .iter()
            .map(|&(job_index, bin, work)| Piece {
                job_index,
                job_id: problem.jobs[job_index].job_id,
                site: bin / num_intervals,
                interval: bin % num_intervals,
                work,
            })
            .collect();
        AllocationPlan { intervals, pieces }
    }

    /// Total work assigned to one job across all pieces.
    pub fn work_of(&self, job_index: usize) -> f64 {
        self.pieces
            .iter()
            .filter(|p| p.job_index == job_index)
            .map(|p| p.work)
            .sum()
    }

    /// Index of the last interval in which `job_index` receives work (over
    /// all sites), if any.
    pub fn completion_interval(&self, job_index: usize) -> Option<usize> {
        self.pieces
            .iter()
            .filter(|p| p.job_index == job_index && p.work > WORK_EPS)
            .map(|p| p.interval)
            .max()
    }

    /// Index of the last interval in which `job_index` receives work on
    /// `site`, if any.
    pub fn completion_interval_on_site(&self, job_index: usize, site: usize) -> Option<usize> {
        self.pieces
            .iter()
            .filter(|p| p.job_index == job_index && p.site == site && p.work > WORK_EPS)
            .map(|p| p.interval)
            .max()
    }
}

/// A deadline-scheduling / max-stretch-minimisation problem at a given time.
#[derive(Clone, Debug)]
pub struct DeadlineProblem {
    /// Jobs with remaining work.
    pub jobs: Vec<PendingJob>,
    /// Site-level platform view.
    pub sites: SiteView,
    /// Current time: no work may be scheduled before it.
    pub now: f64,
}

impl DeadlineProblem {
    /// Creates a problem; jobs with no remaining work are dropped.
    pub fn new(jobs: Vec<PendingJob>, sites: SiteView, now: f64) -> Self {
        let jobs = jobs
            .into_iter()
            .filter(|j| j.remaining > WORK_EPS)
            .collect();
        DeadlineProblem { jobs, sites, now }
    }

    /// `true` when no work remains to be scheduled.
    pub fn is_trivial(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The milestone values of `F`: candidate points where the relative order
    /// of ready times and deadlines changes (§4.3.1).  Sorted, deduplicated,
    /// strictly positive.
    pub fn milestones(&self) -> Vec<f64> {
        let mut ms = Vec::new();
        for j in &self.jobs {
            for k in &self.jobs {
                // Deadline of j meets the ready time of k.
                let f = (k.ready - j.release) / j.work;
                if f > 0.0 && f.is_finite() {
                    ms.push(f);
                }
                // Deadline of j meets deadline of k.
                if (j.work - k.work).abs() > WORK_EPS {
                    let f = (k.release - j.release) / (j.work - k.work);
                    if f > 0.0 && f.is_finite() {
                        ms.push(f);
                    }
                }
            }
        }
        ms.sort_by(|a, b| a.total_cmp(b));
        ms.dedup_by(|a, b| (*a - *b).abs() <= MILESTONE_DEDUP_RTOL * b.abs().max(1.0));
        ms
    }

    /// The epochal times for a fixed objective `F`: `now`, every ready time
    /// and every deadline, clamped to `[now, ∞)`, sorted and deduplicated.
    pub fn epochal_times(&self, stretch: f64) -> Vec<f64> {
        let mut times = Vec::new();
        self.epochal_times_into(stretch, &mut times);
        times
    }

    /// [`Self::epochal_times`] filling a caller-held buffer — the
    /// allocation-free variant for [`System2Arena`], identical fill (same
    /// values, same sort, same dedup) by construction.
    pub fn epochal_times_into(&self, stretch: f64, times: &mut Vec<f64>) {
        times.clear();
        times.push(self.now);
        for j in &self.jobs {
            times.push(j.ready.max(self.now));
            times.push(j.deadline(stretch).max(self.now));
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times.dedup_by(|a, b| (*a - *b).abs() <= EPOCHAL_DEDUP_RTOL * b.abs().max(1.0));
    }

    /// The epochal intervals `[t_k, t_{k+1})` for a fixed objective `F`.
    pub fn intervals(&self, stretch: f64) -> Vec<(f64, f64)> {
        let times = self.epochal_times(stretch);
        times.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Builds the transportation instance expressing deadline feasibility for
    /// a fixed `F` (the flow form of System (1)): jobs ship their remaining
    /// work into `(site, interval)` bins.
    ///
    /// Route costs are set by `cost`, a function of the interval `(start,
    /// end)` and of the job index; pass `|_, _| 0.0` for a pure feasibility
    /// check or the System-(2) cost for the refined allocation.
    pub fn transport(
        &self,
        stretch: f64,
        cost: impl Fn(usize, (f64, f64)) -> f64,
    ) -> (TransportInstance, Vec<(f64, f64)>) {
        let mut t = TransportInstance::new(0, 0);
        let mut intervals = Vec::new();
        let mut times = Vec::new();
        self.transport_into(stretch, cost, &mut t, &mut intervals, &mut times);
        (t, intervals)
    }

    /// [`Self::transport`] filling a caller-held instance and buffers — the
    /// allocation-free variant for [`System2Arena`].
    ///
    /// This is the single fill sequence (the from-scratch
    /// [`Self::transport`] delegates here with fresh buffers): same epochal
    /// times, same capacity loop, same admissibility slacks, same route
    /// declaration order — which is what makes a solve in a reused arena
    /// bit-identical to one in a fresh arena by construction.  `times` is
    /// pure scratch; `t` keeps any stable keys it carried (see
    /// [`TransportInstance::reset`]).
    pub fn transport_into(
        &self,
        stretch: f64,
        cost: impl Fn(usize, (f64, f64)) -> f64,
        t: &mut TransportInstance,
        intervals: &mut Vec<(f64, f64)>,
        times: &mut Vec<f64>,
    ) {
        self.epochal_times_into(stretch, times);
        intervals.clear();
        intervals.extend(times.windows(2).map(|w| (w[0], w[1])));
        let num_sites = self.sites.len();
        t.reset(self.jobs.len(), num_sites * intervals.len());
        for (j, job) in self.jobs.iter().enumerate() {
            t.set_demand(j, job.remaining);
        }
        for (s, site) in self.sites.sites.iter().enumerate() {
            for (i, &(start, end)) in intervals.iter().enumerate() {
                let bin = s * intervals.len() + i;
                t.set_capacity(bin, site.speed * (end - start));
            }
        }
        for (j, job) in self.jobs.iter().enumerate() {
            let deadline = job.deadline(stretch);
            for (s, site) in self.sites.sites.iter().enumerate() {
                if !site.hosts(job.databank) {
                    continue;
                }
                for (i, &(start, end)) in intervals.iter().enumerate() {
                    let start_slack = INTERVAL_SLACK_RTOL * start.abs().max(1.0);
                    let end_slack = INTERVAL_SLACK_RTOL * end.abs().max(1.0);
                    if job.ready.max(self.now) <= start + start_slack && deadline >= end - end_slack
                    {
                        let bin = s * intervals.len() + i;
                        t.add_route(j, bin, cost(j, (start, end)));
                    }
                }
            }
        }
    }

    /// `true` when a schedule with max-stretch at most `F` exists.
    pub fn feasible(&self, stretch: f64) -> bool {
        if self.is_trivial() {
            return true;
        }
        let (t, _) = self.transport(stretch, |_, _| 0.0);
        t.is_feasible()
    }

    /// A lower bound on the achievable max-stretch: every job needs at least
    /// `remaining / (speed of its eligible sites)` seconds starting from its
    /// ready time.
    pub fn stretch_lower_bound(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| {
                let speed = self.sites.speed_for(j.databank);
                if speed <= 0.0 {
                    return f64::INFINITY;
                }
                let earliest_completion = j.ready.max(self.now) + j.remaining / speed;
                (earliest_completion - j.release) / j.work
            })
            .fold(0.0, f64::max)
    }

    /// A *certified* upper bound on the achievable max-stretch: serialise
    /// the pending jobs in ready order, each running alone on every site
    /// hosting its databank.  That is a valid schedule, so its max-stretch
    /// is always feasible — no exponential search for an upper bound is
    /// needed.  Returns `None` when some job has no eligible site.
    pub fn serialized_upper_bound(&self) -> Option<f64> {
        let mut order: Vec<&PendingJob> = self.jobs.iter().collect();
        order.sort_by(|a, b| a.ready.total_cmp(&b.ready));
        let mut clock = self.now;
        let mut bound = 0.0f64;
        for job in order {
            let speed = self.sites.speed_for(job.databank);
            if speed <= 0.0 {
                return None;
            }
            clock = clock.max(job.ready) + job.remaining / speed;
            bound = bound.max((clock - job.release) / job.work);
        }
        Some(bound)
    }

    /// The smallest achievable max-stretch.  Returns `None` when some job
    /// cannot be served by any site (no finite stretch is feasible).
    ///
    /// Delegates to the parametric engine
    /// ([`crate::parametric::ParametricDeadlineSolver`]): a Newton search on
    /// minimum-cut capacities with frozen-topology, warm-started probes.
    /// It answers the question of the paper's milestone search (§4.3.1),
    /// but one Newton step certifies a whole run of milestones infeasible
    /// with a single minimum cut instead of testing them one by one.
    /// Callers solving many problems (the on-line schedulers) should hold
    /// one solver and feed it every problem instead, so scratch memory is
    /// reused.
    pub fn min_feasible_stretch(&self) -> Option<f64> {
        ParametricDeadlineSolver::new().min_feasible_stretch(self)
    }

    /// The from-scratch reference bisection: every probe rebuilds the
    /// transportation instance and solves an independent max-flow.
    ///
    /// Kept (and cross-checked by the property tests) as the semantic
    /// reference for [`Self::min_feasible_stretch`]; it shares the certified
    /// upper bound of [`Self::serialized_upper_bound`] but none of the
    /// parametric machinery.
    pub fn min_feasible_stretch_reference(&self) -> Option<f64> {
        if self.is_trivial() {
            return Some(0.0);
        }
        let lo_bound = self.stretch_lower_bound();
        if !lo_bound.is_finite() {
            return None;
        }
        if self.feasible(lo_bound) {
            return Some(lo_bound);
        }
        // Certified upper bound; the loop only absorbs numerical slack.
        let mut hi = self.serialized_upper_bound()?.max(lo_bound) * (1.0 + 1e-9);
        let mut widenings = 0;
        while !self.feasible(hi) {
            hi *= if widenings < 8 { 1.0 + 1e-3 } else { 2.0 };
            widenings += 1;
            if widenings > 48 {
                return None;
            }
        }
        let mut lo = lo_bound;
        while (hi - lo) > STRETCH_TOL * hi.max(1.0) {
            let mid = 0.5 * (lo + hi);
            if self.feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Solves System (2) at objective `F`: ship every remaining unit of work,
    /// minimising the sum over jobs of (interval midpoint) × (fraction of the
    /// job placed there) — the rational relaxation of the sum-stretch used by
    /// the paper's on-line heuristics.  Returns `None` when `F` is
    /// infeasible.
    pub fn system2_allocation(&self, stretch: f64) -> Option<AllocationPlan> {
        self.system2_allocation_with(stretch, &mut FlowWorkspace::new())
    }

    /// [`Self::system2_allocation`] reusing caller scratch.
    pub fn system2_allocation_with(
        &self,
        stretch: f64,
        workspace: &mut FlowWorkspace,
    ) -> Option<AllocationPlan> {
        self.system2_allocation_with_backend(stretch, &mut PrimalDualBackend, workspace)
    }

    /// [`Self::system2_allocation`] on an explicit min-cost backend.
    ///
    /// This is where the [`stretch_flow::MinCostBackend`] abstraction meets
    /// the scheduler: the System-(2) objective is the only nonzero-cost
    /// transportation solve on the hot path, so the backend choice of
    /// [`crate::SolverConfig`] lands here.
    ///
    /// The instance is labelled with **stable identities** — jobs by their
    /// instance-wide [`PendingJob::job_id`] (unchanged however many events a
    /// job survives), bins by `(site, interval position)` — and those labels
    /// reach the backend as a [`MinCostBackend::warm_hint`].  A
    /// basis-carrying backend (the network simplex) uses them to remap its
    /// previous event's basis onto this event's network; stateless backends
    /// ignore them.  Either way the allocation is bit-identical: the hint
    /// only changes how many pivots the solve needs.
    pub fn system2_allocation_with_backend(
        &self,
        stretch: f64,
        backend: &mut dyn MinCostBackend,
        workspace: &mut FlowWorkspace,
    ) -> Option<AllocationPlan> {
        System2Arena::new().solve(self, stretch, backend, workspace)
    }

    /// The System-(1) feasibility allocation at objective `stretch`: ship
    /// every remaining unit of work under the deadlines, with no cost
    /// refinement.  This is what the paper's `Offline` scheduler serialises,
    /// and the baseline of the Figure 3 comparison.  Returns `None` when
    /// `stretch` is infeasible.
    pub fn feasibility_allocation_with(
        &self,
        stretch: f64,
        workspace: &mut FlowWorkspace,
    ) -> Option<AllocationPlan> {
        if self.is_trivial() {
            return Some(AllocationPlan::default());
        }
        let (t, intervals) = self.transport(stretch, |_, _| 0.0);
        let solution = t.solve_min_cost_with(workspace)?;
        Some(AllocationPlan::from_transport(self, intervals, &solution))
    }
}

/// The memory of a System-(2) solve: the [`TransportInstance`], the
/// interval and key buffers, and the [`TransportArena`] holding the flow
/// network.
///
/// [`DeadlineProblem::system2_allocation_with_backend`] solves on a fresh
/// arena; a [`crate::ParametricDeadlineSolver`] keeps one alive across
/// events, so a steady stream of events solves System (2) without
/// allocating.  Both run the same fill and the same backend call, so a
/// reused arena returns bit for bit what a fresh one does.
#[derive(Debug, Default)]
pub struct System2Arena {
    instance: TransportInstance,
    intervals: Vec<(f64, f64)>,
    times: Vec<f64>,
    source_keys: Vec<u64>,
    bin_keys: Vec<u64>,
    arena: TransportArena,
}

impl System2Arena {
    /// An empty arena; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves System (2) for `problem` at objective `stretch` in this
    /// arena's buffers; see
    /// [`DeadlineProblem::system2_allocation_with_backend`].
    pub fn solve(
        &mut self,
        problem: &DeadlineProblem,
        stretch: f64,
        backend: &mut dyn MinCostBackend,
        workspace: &mut FlowWorkspace,
    ) -> Option<AllocationPlan> {
        if problem.is_trivial() {
            return Some(AllocationPlan::default());
        }
        problem.transport_into(
            stretch,
            |job_idx, (start, end)| 0.5 * (start + end) / problem.jobs[job_idx].work,
            &mut self.instance,
            &mut self.intervals,
            &mut self.times,
        );
        let num_intervals = self.intervals.len();
        self.source_keys.clear();
        self.source_keys
            .extend(problem.jobs.iter().map(|j| j.job_id as u64));
        // Bins are keyed by (site, position-from-now); tagged into a range
        // disjoint from any realistic job id.
        self.bin_keys.clear();
        self.bin_keys
            .extend((0..problem.sites.len() * num_intervals).map(|bin| {
                (1u64 << 48) | (((bin / num_intervals) as u64) << 24) | (bin % num_intervals) as u64
            }));
        self.instance
            .set_stable_keys_from(&self.source_keys, &self.bin_keys);
        let solution = self
            .instance
            .solve_min_cost_in(backend, workspace, &mut self.arena)?;
        Some(AllocationPlan::from_transport(
            problem,
            self.intervals.clone(),
            &solution,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{Site, SiteView};

    fn one_site(speed: f64) -> SiteView {
        SiteView {
            sites: vec![Site {
                cluster: 0,
                speed,
                hosted_databanks: vec![0, 1],
            }],
        }
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

    #[test]
    fn single_job_min_stretch_is_one_on_unit_speed_site() {
        let p = DeadlineProblem::new(vec![job(0, 0.0, 4.0, 0)], one_site(1.0), 0.0);
        let s = p.min_feasible_stretch().unwrap();
        assert!((s - 1.0).abs() < 1e-5, "stretch {s}");
    }

    #[test]
    fn two_simultaneous_jobs_share_the_processor() {
        // Two unit jobs at t=0 on a unit-speed site: both finish by 2, so the
        // minimal max-stretch is 2.
        let p = DeadlineProblem::new(
            vec![job(0, 0.0, 1.0, 0), job(1, 0.0, 1.0, 0)],
            one_site(1.0),
            0.0,
        );
        let s = p.min_feasible_stretch().unwrap();
        assert!((s - 2.0).abs() < 1e-4, "stretch {s}");
    }

    #[test]
    fn milestone_search_matches_bisection() {
        let p = DeadlineProblem::new(
            vec![
                job(0, 0.0, 3.0, 0),
                job(1, 1.0, 1.0, 0),
                job(2, 2.0, 2.0, 1),
            ],
            two_sites(),
            0.0,
        );
        let a = p.min_feasible_stretch_reference().unwrap();
        let b = p.min_feasible_stretch().unwrap();
        assert!((a - b).abs() < 1e-4, "bisection {a} vs milestones {b}");
    }

    #[test]
    fn restricted_availability_raises_the_optimum() {
        // Databank 1 only on site 1 (speed 2): a databank-1 job cannot use
        // site 0, so its earliest completion is bounded by site 1 alone.
        let jobs = vec![job(0, 0.0, 4.0, 1)];
        let restricted = DeadlineProblem::new(jobs.clone(), two_sites(), 0.0);
        let s = restricted.min_feasible_stretch().unwrap();
        // Alone on site 1 (speed 2): completes at 2, stretch = 2/4 = 0.5.
        assert!((s - 0.5).abs() < 1e-5, "stretch {s}");
    }

    #[test]
    fn infeasible_when_no_site_hosts_the_databank() {
        let sites = SiteView {
            sites: vec![Site {
                cluster: 0,
                speed: 1.0,
                hosted_databanks: vec![0],
            }],
        };
        let p = DeadlineProblem::new(vec![job(0, 0.0, 1.0, 7)], sites, 0.0);
        assert_eq!(p.min_feasible_stretch(), None);
    }

    #[test]
    fn feasibility_is_monotone_in_stretch() {
        let p = DeadlineProblem::new(
            vec![
                job(0, 0.0, 2.0, 0),
                job(1, 0.5, 1.0, 0),
                job(2, 1.0, 3.0, 1),
            ],
            two_sites(),
            0.0,
        );
        let opt = p.min_feasible_stretch().unwrap();
        assert!(!p.feasible(opt * 0.9));
        assert!(p.feasible(opt * 1.1));
        assert!(p.feasible(opt * 4.0));
    }

    #[test]
    fn system2_allocation_ships_all_remaining_work() {
        let p = DeadlineProblem::new(
            vec![job(0, 0.0, 2.0, 0), job(1, 0.0, 1.0, 0)],
            two_sites(),
            0.0,
        );
        let f = p.min_feasible_stretch().unwrap();
        let plan = p.system2_allocation(f * 1.01).expect("feasible");
        assert!((plan.work_of(0) - 2.0).abs() < 1e-5);
        assert!((plan.work_of(1) - 1.0).abs() < 1e-5);
        // Pieces respect eligibility: databank 0 may use both sites.
        for piece in &plan.pieces {
            assert!(piece.site < 2);
        }
        // Completion intervals exist for both jobs.
        assert!(plan.completion_interval(0).is_some());
        assert!(plan.completion_interval(1).is_some());
    }

    #[test]
    fn system2_prefers_early_intervals() {
        // One job, plenty of time: all its work should land in the earliest
        // feasible interval(s), not be spread gratuitously late.
        let p = DeadlineProblem::new(vec![job(0, 0.0, 1.0, 0)], one_site(1.0), 0.0);
        let plan = p.system2_allocation(10.0).expect("feasible");
        let last = plan.completion_interval(0).unwrap();
        // With deadline far away there are only two epochal times (ready and
        // deadline), i.e. a single interval; the point is that the work is
        // assigned, entirely, as early as possible.
        assert!((plan.work_of(0) - 1.0).abs() < 1e-6);
        assert_eq!(last, plan.completion_interval(0).unwrap());
    }

    #[test]
    fn milestones_are_positive_sorted_and_deduplicated() {
        let p = DeadlineProblem::new(
            vec![
                job(0, 0.0, 2.0, 0),
                job(1, 3.0, 1.0, 0),
                job(2, 5.0, 2.0, 0),
            ],
            one_site(1.0),
            0.0,
        );
        let ms = p.milestones();
        assert!(!ms.is_empty());
        assert!(ms.iter().all(|&m| m > 0.0));
        for w in ms.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn near_duplicate_milestones_dedup_at_paper_scale_magnitudes() {
        // Paper-scale magnitudes: release dates across a 15-minute window,
        // works of thousands of MB, milestone values in the thousands.  Two
        // milestones differing by less than MILESTONE_DEDUP_RTOL·|m| must
        // collapse into one candidate; a clearly distinct one must survive.
        let jobs = vec![
            job(0, 0.0, 1.0, 0),
            // Ready times produce milestones f = k.ready / 1.0 for job 0.
            job(1, 10_000.0, 2.0, 0),
            job(2, 10_000.0 * (1.0 + 1e-13), 3.0, 0),
            job(3, 10_001.0, 5.0, 0),
        ];
        let p = DeadlineProblem::new(jobs, one_site(1.0), 0.0);
        let ms = p.milestones();
        let near_10k = ms.iter().filter(|&&m| (m - 10_000.0).abs() < 0.5).count();
        assert_eq!(near_10k, 1, "near-duplicates must dedup: {ms:?}");
        assert!(
            ms.iter().any(|&m| (m - 10_001.0).abs() < 0.5),
            "distinct milestones must survive: {ms:?}"
        );
        // The dedup hierarchy: consecutive milestones are separated by more
        // than the dedup tolerance at their own magnitude.
        for w in ms.windows(2) {
            assert!(w[1] - w[0] > MILESTONE_DEDUP_RTOL * w[1].abs().max(1.0));
        }
    }

    #[test]
    fn near_duplicate_epochal_times_dedup_at_large_clocks() {
        // Simulated clocks far from zero (hour-long traces): ready times
        // closer than EPOCHAL_DEDUP_RTOL·t must merge into one epochal
        // time, otherwise the transport gets degenerate zero-width bins.
        let t0 = 1.0e6;
        let jobs = vec![
            PendingJob {
                job_id: 0,
                release: t0,
                ready: t0,
                work: 100.0,
                remaining: 100.0,
                databank: 0,
            },
            PendingJob {
                job_id: 1,
                release: t0 + 1.0e-4,
                ready: t0 + 1.0e-4,
                work: 100.0,
                remaining: 100.0,
                databank: 0,
            },
        ];
        let p = DeadlineProblem::new(jobs, one_site(1.0), t0);
        let times = p.epochal_times(1.0);
        let near_t0 = times.iter().filter(|&&t| (t - t0).abs() < 1.0).count();
        assert_eq!(
            near_t0, 1,
            "near-duplicate ready times must merge: {times:?}"
        );
        // And the resulting intervals all have positive width.
        for (start, end) in p.intervals(1.0) {
            assert!(end > start, "degenerate interval [{start}, {end})");
        }
        // The solve still goes through at this magnitude.
        let s = p.min_feasible_stretch().expect("feasible");
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn interval_membership_survives_epochal_dedup_at_large_clocks() {
        // Translation invariance of stretch: the same two-job problem
        // solved at clock 0 and at clock 1e6 must give (nearly) the same
        // optimum.  At 1e6 the relative epochal dedup merges the ready
        // times (1e-4 apart < 1e-9·1e6); the membership slack must then
        // re-admit the later job into the interval starting at the merged
        // epoch, or it loses that interval's entire capacity and the
        // optimum inflates.
        let problem_at = |t0: f64| {
            let jobs = (0..2)
                .map(|k| PendingJob {
                    job_id: k,
                    release: t0 + k as f64 * 1.0e-4,
                    ready: t0 + k as f64 * 1.0e-4,
                    work: 100.0,
                    remaining: 100.0,
                    databank: 0,
                })
                .collect();
            DeadlineProblem::new(jobs, one_site(1.0), t0)
        };
        let at_zero = problem_at(0.0).min_feasible_stretch().expect("feasible");
        let large = problem_at(1.0e6);
        let at_large = large.min_feasible_stretch().expect("feasible");
        assert!(
            (at_zero - at_large).abs() <= 1e-4 * at_zero,
            "stretch must be translation-invariant: {at_zero} at t=0 vs {at_large} at t=1e6"
        );
        // The transport-based paths must agree: with the absolute slack this
        // returned false/None (the merged-epoch interval rejected job 1, so
        // a comfortably feasible stretch was judged infeasible).
        assert!(
            large.feasible(at_zero * 1.05),
            "transport membership lost a job"
        );
        let reference = large
            .min_feasible_stretch_reference()
            .expect("reference bisection must agree the problem is feasible");
        assert!(
            (reference - at_zero).abs() <= 1e-4 * at_zero,
            "reference {reference}"
        );
        // And the System-(2) allocation at the optimum ships all the work.
        let plan = large
            .system2_allocation(certified_slack(at_large))
            .expect("allocation at the certified objective");
        assert!((plan.work_of(0) - 100.0).abs() < 1e-5);
        assert!((plan.work_of(1) - 100.0).abs() < 1e-5);
    }

    #[test]
    fn trivial_problem_shortcuts() {
        let p = DeadlineProblem::new(vec![], one_site(1.0), 0.0);
        assert!(p.is_trivial());
        assert_eq!(p.min_feasible_stretch(), Some(0.0));
        assert!(p.feasible(0.1));
        assert!(p.system2_allocation(1.0).unwrap().pieces.is_empty());
    }

    #[test]
    fn arena_system2_solves_match_the_rebuild_path_bitwise() {
        use stretch_flow::NetworkSimplexBackend;
        let mut arena = System2Arena::new();
        let mut backend = NetworkSimplexBackend::new();
        let mut reference_backend = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        let mut reference_ws = FlowWorkspace::new();
        let events = [
            DeadlineProblem::new(vec![job(0, 0.0, 2.0, 0)], two_sites(), 0.0),
            DeadlineProblem::new(
                vec![job(0, 0.0, 2.0, 0), job(1, 0.4, 1.0, 1)],
                two_sites(),
                0.4,
            ),
            DeadlineProblem::new(vec![job(1, 0.4, 1.0, 1)], two_sites(), 1.1),
            DeadlineProblem::new(vec![], two_sites(), 2.0),
        ];
        for (i, problem) in events.iter().enumerate() {
            let stretch = 1.8;
            let reused = arena.solve(problem, stretch, &mut backend, &mut ws);
            let fresh = problem.system2_allocation_with_backend(
                stretch,
                &mut reference_backend,
                &mut reference_ws,
            );
            match (reused, fresh) {
                (Some(a), Some(b)) => {
                    let bits = |plan: &AllocationPlan| {
                        let intervals: Vec<_> = plan
                            .intervals
                            .iter()
                            .map(|x| (x.0.to_bits(), x.1.to_bits()))
                            .collect();
                        let pieces: Vec<_> = plan
                            .pieces
                            .iter()
                            .map(|x| (x.job_index, x.job_id, x.site, x.interval, x.work.to_bits()))
                            .collect();
                        (intervals, pieces)
                    };
                    assert_eq!(bits(&a), bits(&b), "event {i}");
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "event {i} verdicts diverged"),
            }
        }
    }
}
