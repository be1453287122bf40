//! The parametric deadline-solver engine.
//!
//! [`DeadlineProblem::min_feasible_stretch`] minimises over the monotone
//! feasibility predicate `F ↦ "a schedule of max-stretch ≤ F exists"`.  The
//! naive loop rebuilds the epochal intervals, the route set and a fresh flow
//! network for every bisection probe — ~25 times per scheduling decision, at
//! *every arrival* for the on-line schedulers.  Legrand–Su–Vivien's own
//! milestone analysis (§4.3.1) says most of that work is redundant: every
//! epochal time is a *linear* function `a + b·F` of the objective, so the
//! whole family of transportation instances shares one structure:
//!
//! * the **network is built once per problem** (`ParametricStructure`):
//!   one bin per (site × sorted-time-gap) position, one route per eligible
//!   (job, site, position) triple.  A probe at any `F` re-sorts the symbolic
//!   times (an `O(k)` pass on the nearly-sorted permutation), rebinds bin
//!   and route capacities in place — route *admissibility* is just a zero
//!   capacity — and warm-starts the early-exit max-flow from the previous
//!   residual flow ([`ParametricNetwork`]).
//! * the search is a **Newton iteration on minimum cuts**: an infeasible
//!   probe's maximum flow yields a minimum cut, whose source side holds a
//!   job set `X` that cannot ship its remaining work.  For *any* `F` the
//!   same job set defines a cut of capacity
//!
//!   `C_X(F) = Σ_{j∉X} remaining_j + Σ_s speed_s · |⋃_{j∈X on s} [ready_j, deadline_j(F))|`,
//!
//!   which never decreases in `F` and does not depend on how the epochal
//!   times are ordered.  Every `F` below the root of
//!   `C_X(F) = demand − tol` is therefore *certified* infeasible by that
//!   one cut, however many milestones (crossings of two epochal times) lie
//!   on the way; the root, found by bisection on `C_X` alone, is the next
//!   candidate.  On the on-line workloads the iteration ends in two to
//!   three max-flow runs per search instead of ~25 bisection probes.
//! * the blind exponential search for a feasible upper bound is replaced by
//!   a **certified bound**: serialising all pending work
//!   ([`DeadlineProblem::serialized_upper_bound`]) is a valid schedule, so
//!   its max-stretch is always feasible.
//!
//! A numerical safety net falls back to plain bisection on from-scratch
//! probes if the Newton iteration ever stalls; [`SearchStats`] counts how
//! often it does.
//!
//! One solver holds its scratch ([`FlowWorkspace`], capacity and cut
//! buffers) across calls, so the on-line schedulers allocate almost nothing
//! inside the probe loop.
//!
//! # Cross-event solver memory
//!
//! A solver fed a *stream* of problems — the on-line schedulers call it at
//! every arrival and completion — additionally carries state **across
//! events** when its [`SolverConfig`] has `warm_start` on (the default):
//!
//! * **Residual carry-over.**  The flow of the last feasible probe is
//!   remembered per `(job id, site, interval position)` — all three stable
//!   across events — and replayed, clamped to the new capacities, into the
//!   next event's network before its first probe
//!   ([`ParametricNetwork::seed_route_flow`]).  Consecutive events share
//!   most of their jobs, so the first (most expensive) probe only has to
//!   route the new arrivals and whatever the capacity shift displaced,
//!   instead of rebuilding the whole flow from zero.
//! * **Basis remapping.**  The System-(2) min-cost solve hands the backend
//!   stable node keys (same identities as above), letting the network
//!   simplex remap its previous spanning-tree basis onto the new event's
//!   network — see [`stretch_flow::BasisRemap`].
//!
//! Both are speed levers only: warm-started and cold solves return
//! **bit-identical** objectives and allocations (pinned by the
//! differential-oracle suite, which builds the cold reference through
//! [`SolverConfig::with_warm_start`]).
//!
//! # Persistent per-event memory
//!
//! With `incremental` on (the default) the solver also keeps its
//! parametric structure and its [`System2Arena`] alive from event to
//! event and refills both in place: the same fill code a fresh structure
//! runs (sort and deduplicate the symbolic times, rebuild the route table
//! and the network), over buffers that have already grown to size.  Only
//! the memory is reused, so the results are bit-identical to solves on
//! fresh memory; [`SolverConfig::with_incremental`]`(false)` builds that
//! reference for the differential tests.

use crate::config::SolverConfig;
use crate::deadline::{
    certified_slack, AllocationPlan, DeadlineProblem, System2Arena, STRETCH_TOL,
};
use stretch_flow::{FastMap, FlowWorkspace, MinCostBackend, ParametricNetwork};

/// Feasibility tolerance of the flow probes, matching
/// [`stretch_flow::TransportInstance::is_feasible`].
const FEAS_TOL: f64 = 1e-6;

/// How many looser objectives
/// [`ParametricDeadlineSolver::certified_allocation`] tries after System (2)
/// rejects the certified slack.
const ALLOCATION_RETRIES: usize = 2;

/// Relative width to which a cut's root is bisected (about 45 capacity
/// evaluations over the widest bracket).
const ROOT_RTOL: f64 = 1e-13;

/// Cumulative counters of a solver's optimal-stretch searches; see
/// [`ParametricDeadlineSolver::search_stats`].  Pure counts: the same
/// problem stream gives the same counters on every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Newton searches run (non-trivial problems with a finite bound).
    pub searches: u64,
    /// Max-flow probes of the Newton iterations.
    pub probes: u64,
    /// Searches that stalled and finished by from-scratch bisection.
    pub fallbacks: u64,
}

/// How a solver's persistent per-event memory was filled; see
/// [`ParametricDeadlineSolver::incremental_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Searches that refilled the persistent structure in place.
    pub splices: u64,
    /// Searches that filled fresh memory: the solver's first one.
    pub rebuilds: u64,
}

/// A reusable engine solving deadline problems by parametric flow probes.
///
/// Create one per scheduler (or per run) and feed it every
/// [`DeadlineProblem`] the scheduler encounters; all scratch memory — and
/// the min-cost backend named by its [`SolverConfig`], which may carry a
/// warm-startable basis — is reused across calls.
pub struct ParametricDeadlineSolver {
    workspace: FlowWorkspace,
    /// Min-cut scratch, refilled after every infeasible probe.
    cut: JobCut,
    /// Cumulative counters, read by [`Self::search_stats`].
    stats: SearchStats,
    /// The configured System-(2) min-cost engine, held across events so a
    /// warm-startable backend keeps (and remaps) its basis.
    backend: Box<dyn MinCostBackend + Send>,
    /// Cross-event residual carry: flow of the previous event's final
    /// feasible probe, grouped per job.  `carry_jobs` maps an instance-wide
    /// job id to a `(start, len)` slice of `carry_flows`, whose entries are
    /// `(site, interval position, flow)` — all identities stable across
    /// events even though every event rebuilds the epochal structure from
    /// scratch.  Empty when `config.warm_start` is off or the previous solve
    /// exited through a fallback path.
    ///
    /// Grouping by job (instead of one map entry per route) keeps the
    /// per-event seeding cost proportional to the *carried flow pattern* —
    /// a handful of entries per surviving job — rather than to the route
    /// count, which is orders of magnitude larger.
    carry_jobs: FastMap<usize, (u32, u32)>,
    carry_flows: Vec<(u32, u32, f64)>,
    /// Memory refilled in place at every event (`config.incremental`, the
    /// default); `None` when every event fills fresh memory.
    persistent: Option<PersistentMemory>,
    config: SolverConfig,
}

/// The parametric structure and the System-(2) arena a solver refills
/// from event to event, with the counters of those refills.
#[derive(Default)]
struct PersistentMemory {
    structure: ParametricStructure,
    arena: System2Arena,
    stats: DeltaStats,
}

impl Default for ParametricDeadlineSolver {
    fn default() -> Self {
        Self::with_config(SolverConfig::default())
    }
}

/// The shared structure of a deadline problem's transportation instances,
/// valid for *every* objective `F`: symbolic epochal times, one bin per
/// (site, sorted-gap) position and one route per eligible (job, site,
/// position) triple.
#[derive(Default)]
pub(crate) struct ParametricStructure {
    /// Symbolic times `a + b·F`, deduplicated by exact `(a, b)` identity.
    times: Vec<(f64, f64)>,
    /// Permutation of `times`, sorted by value at the last probed `F`.
    order: Vec<usize>,
    /// Values of the ordered times at the last probed `F`.
    sorted_vals: Vec<f64>,
    network: ParametricNetwork,
    num_intervals: usize,
    site_speeds: Vec<f64>,
    demands: Vec<f64>,
    /// Effective ready time (`max(ready, now)`) per job.
    ready: Vec<f64>,
    /// Deadline coefficients (release, work) per job.
    deadline: Vec<(f64, f64)>,
    /// Capacity scratch, refilled per probe.
    bin_caps: Vec<f64>,
    route_caps: Vec<f64>,
    /// Deadline values at the current probe point, refilled per probe.
    deadline_vals: Vec<f64>,
    /// Per-job route layout (`jobs.len() + 1` prefix offsets into the route
    /// list, which is built job-contiguous): the carry-over seeding jumps
    /// straight to a job's routes instead of scanning all of them.
    route_start: Vec<usize>,
    /// Per-job first admissible interval position (routes cover
    /// `i_min..=i_max` per hosting site).
    route_imin: Vec<usize>,
    /// Per-job one-past-last admissible position.
    route_iend: Vec<usize>,
    /// Hosting sites of each job, in route construction order.
    hosting: Vec<Vec<usize>>,
    /// Route construction scratch, kept so [`Self::refill`] builds the
    /// route list without allocating.
    routes_scratch: Vec<(usize, usize)>,
}

impl ParametricStructure {
    /// Builds the structure once, for probes within `[lo, hi]`; capacities
    /// are bound per probe.
    pub(crate) fn new(problem: &DeadlineProblem, lo: f64, hi: f64) -> Self {
        let mut structure = Self::default();
        structure.refill(problem, lo, hi);
        structure
    }

    /// (Re)populates the structure for `problem`, for probes within
    /// `[lo, hi]`.  Every field is overwritten, so refilling last event's
    /// structure in place gives the same structure as [`Self::new`].
    pub(crate) fn refill(&mut self, problem: &DeadlineProblem, lo: f64, hi: f64) {
        self.times.clear();
        self.times.push((problem.now, 0.0));
        for job in &problem.jobs {
            self.times.push((job.ready.max(problem.now), 0.0));
            // For any probed F (at or above the stretch lower bound) every
            // deadline lies after `now`, so the `max(now, ·)` clamp of
            // `epochal_times` is inactive and the deadline is linear.
            self.times.push((job.release, job.work));
        }
        // Identical linear functions never separate: deduplicate by exact
        // identity (e.g. the shared ready time of the on-line problems).
        self.times
            .sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
        self.times.dedup();
        let times = &self.times;
        let k = times.len() - 1;
        let num_sites = problem.sites.len();
        self.demands.clear();
        self.demands
            .extend(problem.jobs.iter().map(|j| j.remaining));
        // One route per (job, hosting site, sorted position) triple; per
        // probe, inadmissible routes simply get capacity zero.  Positions a
        // job can never use anywhere in `[lo, hi]` are pruned up front: a
        // linear time function sits below a job's ready time (or above its
        // deadline) on the whole range iff it does at both endpoints.
        let eval = |&(a, b): &(f64, f64), f: f64| a + b * f;
        self.routes_scratch.clear();
        self.route_start.clear();
        self.route_imin.clear();
        self.route_iend.clear();
        for host in &mut self.hosting {
            host.clear();
        }
        self.hosting.resize_with(problem.jobs.len(), Vec::new);
        for (j, job) in problem.jobs.iter().enumerate() {
            self.route_start.push(self.routes_scratch.len());
            let ready = job.ready.max(problem.now);
            let (d_lo, d_hi) = (job.deadline(lo), job.deadline(hi));
            // Positions below `i_min` always start before the ready time.
            let i_min = times
                .iter()
                .filter(|t| eval(t, lo) < ready - 1e-9 && eval(t, hi) < ready - 1e-9)
                .count();
            // At most `cnt_max` times ever sit at or before the deadline, so
            // positions needing `i + 2` of them are never admissible.
            let cnt_max = times
                .iter()
                .filter(|t| eval(t, lo) <= d_lo + 1e-9 || eval(t, hi) <= d_hi + 1e-9)
                .count();
            let i_max = cnt_max.saturating_sub(2).min(k.saturating_sub(1));
            for (s, site) in problem.sites.sites.iter().enumerate() {
                if !site.hosts(job.databank) {
                    continue;
                }
                self.hosting[j].push(s);
                for i in i_min..=i_max {
                    self.routes_scratch.push((j, s * k + i));
                }
            }
            self.route_imin.push(i_min);
            self.route_iend.push(
                if self.routes_scratch.len() > *self.route_start.last().unwrap() {
                    i_max + 1
                } else {
                    i_min
                },
            );
        }
        self.route_start.push(self.routes_scratch.len());
        self.network
            .rebuild(&self.demands, num_sites * k, &self.routes_scratch);
        // Seed the permutation with the order at `lo` so the per-probe
        // insertion sort starts from a (nearly) sorted state: construction
        // order — sorted by the (a, b) tuples — can be arbitrarily far from
        // value order, which would make the first probe quadratic.
        self.order.clear();
        self.order.extend(0..times.len());
        self.order.sort_unstable_by(|&x, &y| {
            let vx = times[x].0 + times[x].1 * lo;
            let vy = times[y].0 + times[y].1 * lo;
            vx.total_cmp(&vy)
        });
        self.sorted_vals.clear();
        self.sorted_vals.resize(self.times.len(), 0.0);
        self.num_intervals = k;
        self.site_speeds.clear();
        self.site_speeds
            .extend(problem.sites.sites.iter().map(|s| s.speed));
        self.ready.clear();
        self.ready
            .extend(problem.jobs.iter().map(|j| j.ready.max(problem.now)));
        self.deadline.clear();
        self.deadline
            .extend(problem.jobs.iter().map(|j| (j.release, j.work)));
    }

    /// Binds the structure to objective `stretch`: re-sort the symbolic
    /// times and rebind every capacity in place.  [`Self::probe_current`]
    /// then runs the flow; splitting the two lets the caller seed
    /// carried-over flow in between.
    fn bind(&mut self, stretch: f64) {
        // The permutation is nearly sorted across probes; a stable insertion
        // sort keeps this O(k) in the common case.
        let times = &self.times;
        let eval = |idx: usize| times[idx].0 + times[idx].1 * stretch;
        for i in 1..self.order.len() {
            let mut j = i;
            while j > 0 && eval(self.order[j - 1]) > eval(self.order[j]) {
                self.order.swap(j - 1, j);
                j -= 1;
            }
        }
        for (pos, &idx) in self.order.iter().enumerate() {
            self.sorted_vals[pos] = eval(idx);
        }

        let k = self.num_intervals;
        self.bin_caps.clear();
        for &speed in &self.site_speeds {
            for i in 0..k {
                let len = self.sorted_vals[i + 1] - self.sorted_vals[i];
                self.bin_caps.push(speed * len.max(0.0));
            }
        }
        self.deadline_vals.clear();
        self.deadline_vals
            .extend(self.deadline.iter().map(|&(r, w)| r + w * stretch));
        self.route_caps.clear();
        for &(j, bin) in self.network.routes() {
            let i = bin % k;
            let admissible = self.ready[j] <= self.sorted_vals[i] + 1e-9
                && self.deadline_vals[j] >= self.sorted_vals[i + 1] - 1e-9;
            self.route_caps
                .push(if admissible { self.demands[j] } else { 0.0 });
        }
        let (bin_caps, route_caps) = (&self.bin_caps, &self.route_caps);
        self.network.set_capacities(bin_caps, route_caps);
    }

    /// One feasibility probe at the currently bound objective: resume the
    /// early-exit max-flow from whatever residual flow survived the rebind
    /// (previous probe, or carried-over seed).
    fn probe_current(&mut self, ws: &mut FlowWorkspace) -> bool {
        self.network.probe_feasible(FEAS_TOL, ws)
    }
}

/// The job side of the minimum cut an infeasible probe ends at, and its
/// capacity `C_X(F)` as a function of the objective.
///
/// For a job set `X`, the source, `X` and every bin some job of `X` may use
/// form a cut of capacity `Σ_{j∉X} remaining_j` plus, per site, the site's
/// speed times the length of the union of `X`'s windows
/// `[ready_j, deadline_j(F))` on it.  That is an upper bound on the maximum
/// flow at every `F`, it never decreases as `F` grows, and it depends on
/// `X` and the structure's per-job fields only — not on the order of the
/// epochal times, nor on the flow the probe started from.
#[derive(Default)]
struct JobCut {
    /// Source-side flags over jobs: the set `X`.
    reachable: Vec<bool>,
    /// `X`'s jobs grouped by hosting site, each group sorted by ready time
    /// (then index).
    members: Vec<usize>,
    /// `num_sites + 1` prefix offsets of the site groups in `members`.
    site_start: Vec<usize>,
    /// Remaining work of the jobs outside `X`.
    outside: f64,
}

impl JobCut {
    /// Reads `X` off the residual graph of the probe that just failed and
    /// prepares the per-site merge order.
    fn extract(&mut self, structure: &ParametricStructure, workspace: &mut FlowWorkspace) {
        structure
            .network
            .residual_cut(workspace, &mut self.reachable);
        self.outside = 0.0;
        for (j, &inside) in self.reachable.iter().enumerate() {
            if !inside {
                self.outside += structure.demands[j];
            }
        }
        self.members.clear();
        self.site_start.clear();
        for s in 0..structure.site_speeds.len() {
            let from = self.members.len();
            self.site_start.push(from);
            self.members.extend(
                (0..self.reachable.len())
                    .filter(|&j| self.reachable[j] && structure.hosting[j].contains(&s)),
            );
            self.members[from..].sort_by(|&x, &y| {
                structure.ready[x]
                    .total_cmp(&structure.ready[y])
                    .then(x.cmp(&y))
            });
        }
        self.site_start.push(self.members.len());
    }

    /// `C_X(stretch)`: one merge pass over each site's windows.
    fn capacity(&self, structure: &ParametricStructure, stretch: f64) -> f64 {
        let mut total = self.outside;
        for (s, &speed) in structure.site_speeds.iter().enumerate() {
            let mut covered = 0.0;
            let mut span: Option<(f64, f64)> = None;
            for &j in &self.members[self.site_start[s]..self.site_start[s + 1]] {
                let start = structure.ready[j];
                let (release, work) = structure.deadline[j];
                let end = release + work * stretch;
                if end <= start {
                    continue;
                }
                span = match span {
                    Some((lo, hi)) if start <= hi => Some((lo, hi.max(end))),
                    Some((lo, hi)) => {
                        covered += hi - lo;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((lo, hi)) = span {
                covered += hi - lo;
            }
            total += speed * covered;
        }
        total
    }

    /// The first objective in `(lo, hi]` this cut does not certify
    /// infeasible, bisected on `C_X` to a relative width of [`ROOT_RTOL`]
    /// (the upper end of the final bracket, where `C_X ≥ target`).
    ///
    /// `Some(∞)` when the cut certifies the whole bracket infeasible
    /// (`C_X(hi) < target`); `None` when `C_X(lo) ≥ target` already, i.e.
    /// this continuous cut and the probe's discrete one disagree at `lo`.
    fn root(&self, structure: &ParametricStructure, lo: f64, hi: f64, target: f64) -> Option<f64> {
        if self.capacity(structure, hi) < target {
            return Some(f64::INFINITY);
        }
        if self.capacity(structure, lo) >= target {
            return None;
        }
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > ROOT_RTOL * hi {
            let mid = 0.5 * (lo + hi);
            if self.capacity(structure, mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }
}

impl ParametricDeadlineSolver {
    /// Creates a solver with empty scratch (grows on first use) and the
    /// default [`SolverConfig`] (the warm, incremental simplex).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        ParametricDeadlineSolver {
            workspace: FlowWorkspace::new(),
            cut: JobCut::default(),
            stats: SearchStats::default(),
            backend: config.instantiate(),
            carry_jobs: FastMap::default(),
            carry_flows: Vec::new(),
            persistent: config.incremental.then(PersistentMemory::default),
            config,
        }
    }

    /// How often the persistent structure was refilled in place against
    /// filled fresh; `None` when the solver fills fresh memory at every
    /// event (`incremental` off in its config).
    pub fn incremental_stats(&self) -> Option<DeltaStats> {
        self.persistent.as_ref().map(|memory| memory.stats)
    }

    /// Cumulative counters of every [`Self::min_feasible_stretch`] search
    /// this solver ran: Newton searches, their max-flow probes, and the
    /// searches that stalled into the bisection fallback.
    pub fn search_stats(&self) -> SearchStats {
        self.stats
    }

    /// The configuration this solver was built with.
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// One from-scratch feasibility probe (fresh topology, reused scratch).
    pub fn feasible(&mut self, problem: &DeadlineProblem, stretch: f64) -> bool {
        if problem.is_trivial() {
            return true;
        }
        let (t, _) = problem.transport(stretch, |_, _| 0.0);
        t.is_feasible_with(FEAS_TOL, &mut self.workspace)
    }

    /// The smallest achievable max-stretch; `None` when some job cannot be
    /// served by any site.
    ///
    /// Functionally equivalent to the from-scratch
    /// [`DeadlineProblem::min_feasible_stretch_reference`] (within
    /// [`STRETCH_TOL`]; cross-checked by the property tests), but solved by
    /// Newton iteration on parametric minimum cuts over a structure built
    /// once.
    pub fn min_feasible_stretch(&mut self, problem: &DeadlineProblem) -> Option<f64> {
        if problem.is_trivial() {
            return Some(0.0);
        }
        let lo_bound = problem.stretch_lower_bound();
        if !lo_bound.is_finite() {
            self.clear_carry();
            return None;
        }
        // Certified upper bound: serialising the pending jobs is a valid
        // schedule, so its stretch is feasible (up to flow tolerances).
        let Some(ub) = problem.serialized_upper_bound() else {
            self.clear_carry();
            return None;
        };
        let ub = ub.max(lo_bound) * (1.0 + 1e-9);

        let demand: f64 = problem.jobs.iter().map(|j| j.remaining).sum();
        let slack = FEAS_TOL.max(demand * FEAS_TOL);
        let target = demand - slack;

        let Some(mut memory) = self.persistent.take() else {
            let mut structure = ParametricStructure::new(problem, lo_bound, ub);
            return self.newton_search(problem, &mut structure, lo_bound, ub, target);
        };
        let stats = &mut memory.stats;
        if stats.rebuilds == 0 {
            stats.rebuilds = 1;
        } else {
            stats.splices += 1;
        }
        memory.structure.refill(problem, lo_bound, ub);
        let answer = self.newton_search(problem, &mut memory.structure, lo_bound, ub, target);
        self.persistent = Some(memory);
        answer
    }

    /// The Newton-on-minimum-cuts iteration (with its bisection safety
    /// net) over an already filled `structure`.
    fn newton_search(
        &mut self,
        problem: &DeadlineProblem,
        structure: &mut ParametricStructure,
        lo_bound: f64,
        ub: f64,
        target: f64,
    ) -> Option<f64> {
        self.stats.searches += 1;
        // The iteration starts at the lower bound; its first probe doubles
        // as the `feasible(lo_bound)` fast path.
        let mut f = lo_bound;
        let mut first_probe = true;
        for _ in 0..64 {
            structure.bind(f);
            if std::mem::take(&mut first_probe) && self.config.warm_start {
                // Cross-event residual carry: replay the previous event's
                // flow (surviving jobs only — departed keys simply miss)
                // before the expensive first augmentation run.
                self.seed_carry(problem, structure);
            }
            self.stats.probes += 1;
            if structure.probe_current(&mut self.workspace) {
                if self.config.warm_start {
                    self.record_carry(problem, structure);
                }
                return Some(f);
            }
            // The probe ended at a maximum flow; the job set of its minimum
            // cut certifies every F below the root of that cut's capacity
            // infeasible — all of `[f, ub)` when the root lies past `ub`.
            self.cut.extract(structure, &mut self.workspace);
            // Land a hair *above* the cut root: at the exact root the cut
            // capacity equals the probe target, so the feasibility verdict
            // there would hinge on floating-point noise — and the verdict
            // must not depend on which residual flow (cold, or carried
            // over) the probe happened to start from.  The overshoot gives
            // the comparison a real margin at a cost of ≤1e-9 relative on
            // the answer, far inside STRETCH_TOL.
            let mut next = self
                .cut
                .root(structure, f, ub, target)
                .map_or(f64::NAN, |root| root * (1.0 + 1e-9));
            // Strict-progress guard against floating-point stalls and
            // against a NaN `next`, which marks a capacity that already
            // meets the target at `f` (the continuous cut and the probe's
            // discrete one disagree).  The negation catches the NaN — which
            // is exactly why the "hard to read" negated comparison is the
            // right tool.
            let floor = f * (1.0 + 1e-12) + 1e-300;
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(next > floor) {
                next = f * (1.0 + 1e-9) + 1e-300;
            }
            if next >= ub {
                // Every F below `next` is infeasible, and the serialised
                // bound certifies `ub`: the optimum is `ub` itself.
                self.clear_carry();
                return self.confirm_upper_bound(problem, ub);
            }
            f = next;
        }
        // Newton stalled (pathological numerics): fall back to a plain
        // bisection on from-scratch probes (the structure's route pruning
        // only covers `[lo_bound, ub]`, and a widened upper bound may lie
        // beyond it).  Everything at or below `f` failed a probe, and `ub`
        // is certified feasible.  The fallback probes don't maintain the
        // carry, so the next event starts its probes cold.
        self.stats.fallbacks += 1;
        self.clear_carry();
        let mut hi = self.confirm_upper_bound(problem, ub)?.max(f);
        let mut lo = f;
        while (hi - lo) > STRETCH_TOL * hi.max(1.0) {
            let mid = 0.5 * (lo + hi);
            if self.feasible(problem, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Drops the cross-event carry (fallback exits, infeasible problems).
    fn clear_carry(&mut self) {
        self.carry_jobs.clear();
        self.carry_flows.clear();
    }

    /// Seeds the freshly bound `structure` with the remembered flow of the
    /// previous event, restricted to surviving `(job, site, position)`
    /// routes and clamped to the new capacities.  Purely a warm start: the
    /// subsequent probe computes the same maximum flow either way.
    ///
    /// Cost: one map lookup per pending job plus one O(1) route-index
    /// computation per carried flow entry, using the job-contiguous route
    /// layout recorded by [`ParametricStructure::refill`].
    fn seed_carry(&mut self, problem: &DeadlineProblem, structure: &mut ParametricStructure) {
        if self.carry_jobs.is_empty() {
            return;
        }
        for (j, job) in problem.jobs.iter().enumerate() {
            let Some(&(start, len)) = self.carry_jobs.get(&job.job_id) else {
                continue;
            };
            let i_min = structure.route_imin[j];
            let i_end = structure.route_iend[j];
            let span = i_end - i_min;
            if span == 0 {
                continue;
            }
            for &(site, pos, amount) in &self.carry_flows[start as usize..(start + len) as usize] {
                let (site, pos) = (site as usize, pos as usize);
                if pos < i_min || pos >= i_end {
                    continue;
                }
                let Some(rank) = structure.hosting[j].iter().position(|&s| s == site) else {
                    continue;
                };
                let idx = structure.route_start[j] + rank * span + (pos - i_min);
                structure.network.seed_route_flow(idx, amount);
            }
        }
    }

    /// Remembers where the final (feasible) probe of this event routed its
    /// flow, as the seed for the next event's first probe.
    fn record_carry(&mut self, problem: &DeadlineProblem, structure: &ParametricStructure) {
        self.clear_carry();
        let k = structure.num_intervals;
        for (j, job) in problem.jobs.iter().enumerate() {
            let start = self.carry_flows.len() as u32;
            for idx in structure.route_start[j]..structure.route_start[j + 1] {
                let flow = structure.network.flow_on_route(idx);
                if flow > 1e-12 {
                    let (_, bin) = structure.network.routes()[idx];
                    self.carry_flows
                        .push(((bin / k) as u32, (bin % k) as u32, flow));
                }
            }
            let len = self.carry_flows.len() as u32 - start;
            if len > 0 {
                self.carry_jobs.insert(job.job_id, (start, len));
            }
        }
    }

    /// Verifies the certified upper bound with an actual probe, absorbing
    /// numerical slack at the feasibility tolerance if needed.
    fn confirm_upper_bound(&mut self, problem: &DeadlineProblem, ub: f64) -> Option<f64> {
        let mut hi = ub;
        let mut widenings = 0;
        while !self.feasible(problem, hi) {
            hi *= if widenings < 8 { 1.0 + 1e-3 } else { 2.0 };
            widenings += 1;
            if widenings > 48 {
                return None;
            }
        }
        Some(hi)
    }

    /// Solves System (2) at objective `stretch` on the configured min-cost
    /// backend, reusing the solver scratch; see
    /// [`DeadlineProblem::system2_allocation`].
    pub fn system2_allocation(
        &mut self,
        problem: &DeadlineProblem,
        stretch: f64,
    ) -> Option<AllocationPlan> {
        match self.persistent.as_mut() {
            Some(memory) => {
                memory
                    .arena
                    .solve(problem, stretch, self.backend.as_mut(), &mut self.workspace)
            }
            None => problem.system2_allocation_with_backend(
                stretch,
                self.backend.as_mut(),
                &mut self.workspace,
            ),
        }
    }

    /// Solves System (2) at [`certified_slack`]`(best)`, where `best` is the
    /// optimal max-stretch [`Self::min_feasible_stretch`] returned: the
    /// allocation step of the on-line heuristic.
    ///
    /// The probes call an objective feasible once the maximum flow covers
    /// the demand up to a relative `1e-6`; System (2) accepts a shortfall of
    /// only [`stretch_flow::acceptance_tolerance`], and the slack's relative
    /// step does not always cover the gap.  When System (2) rejects the
    /// certified slack, the allocation is retried at most twice, each time
    /// at an objective `1e-3` (relative) looser.  A solve accepted at the
    /// first attempt is never retried, so the retry leaves every decision
    /// that succeeded without it unchanged.
    pub fn certified_allocation(
        &mut self,
        problem: &DeadlineProblem,
        best: f64,
    ) -> Option<AllocationPlan> {
        let mut stretch = certified_slack(best);
        for _ in 0..ALLOCATION_RETRIES {
            if let Some(plan) = self.system2_allocation(problem, stretch) {
                return Some(plan);
            }
            stretch *= 1.0 + 1e-3;
        }
        self.system2_allocation(problem, stretch)
    }

    /// Ships every remaining unit of work at zero cost (the System-(1)
    /// feasibility allocation), reusing the solver scratch.
    pub fn feasibility_allocation(
        &mut self,
        problem: &DeadlineProblem,
        stretch: f64,
    ) -> Option<AllocationPlan> {
        problem.feasibility_allocation_with(stretch, &mut self.workspace)
    }
}

#[cfg(test)]
impl ParametricStructure {
    /// The symbolic epochal times of the last fill.
    pub(crate) fn times(&self) -> &[(f64, f64)] {
        &self.times
    }

    /// Bit patterns of every field a fill writes, the network's inputs
    /// (demands, bin count, route list) included, each vector prefixed by
    /// its length: equal snapshots mean two fills built the same structure.
    pub(crate) fn fill_bits(&self) -> Vec<u64> {
        fn put(out: &mut Vec<u64>, values: &[u64]) {
            out.push(values.len() as u64);
            out.extend_from_slice(values);
        }
        let floats = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lines = |v: &[(f64, f64)]| {
            v.iter()
                .flat_map(|&(a, b)| [a.to_bits(), b.to_bits()])
                .collect::<Vec<_>>()
        };
        let indices = |v: &[usize]| v.iter().map(|&i| i as u64).collect::<Vec<_>>();
        let mut out = vec![self.num_intervals as u64, self.sorted_vals.len() as u64];
        put(&mut out, &lines(&self.times));
        put(&mut out, &indices(&self.order));
        put(&mut out, &floats(&self.site_speeds));
        put(&mut out, &floats(&self.demands));
        put(&mut out, &floats(&self.ready));
        put(&mut out, &lines(&self.deadline));
        put(&mut out, &indices(&self.route_start));
        put(&mut out, &indices(&self.route_imin));
        put(&mut out, &indices(&self.route_iend));
        out.push(self.hosting.len() as u64);
        for host in &self.hosting {
            put(&mut out, &indices(host));
        }
        let routes: Vec<u64> = self
            .routes_scratch
            .iter()
            .flat_map(|&(j, bin)| [j as u64, bin as u64])
            .collect();
        put(&mut out, &routes);
        out
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

    #[test]
    fn matches_the_reference_bisection() {
        let problems = vec![
            vec![job(0, 0.0, 4.0, 0)],
            vec![job(0, 0.0, 1.0, 0), job(1, 0.0, 1.0, 0)],
            vec![
                job(0, 0.0, 3.0, 0),
                job(1, 1.0, 1.0, 0),
                job(2, 2.0, 2.0, 1),
            ],
            vec![
                job(0, 0.0, 2.5, 1),
                job(1, 0.5, 1.5, 0),
                job(2, 0.75, 4.0, 0),
                job(3, 3.0, 0.5, 1),
            ],
        ];
        let mut solver = ParametricDeadlineSolver::new();
        for jobs in problems {
            let p = DeadlineProblem::new(jobs, sites(), 0.0);
            let fast = solver.min_feasible_stretch(&p).unwrap();
            let slow = p.min_feasible_stretch_reference().unwrap();
            assert!(
                (fast - slow).abs() <= STRETCH_TOL * slow.max(1.0) * 2.0,
                "parametric {fast} vs reference {slow}"
            );
        }
    }

    #[test]
    fn matches_reference_on_identical_sibling_jobs() {
        // Jobs sharing release AND size produce exactly-identical deadline
        // functions (merged at construction); jobs of equal size but
        // different release produce parallel ones.
        let jobs = vec![
            job(0, 0.0, 2.0, 0),
            job(1, 0.0, 2.0, 0),
            job(2, 1.0, 2.0, 1),
            job(3, 1.0, 2.0, 1),
        ];
        let p = DeadlineProblem::new(jobs, sites(), 0.0);
        let fast = ParametricDeadlineSolver::new()
            .min_feasible_stretch(&p)
            .unwrap();
        let slow = p.min_feasible_stretch_reference().unwrap();
        assert!(
            (fast - slow).abs() <= STRETCH_TOL * slow.max(1.0) * 2.0,
            "parametric {fast} vs reference {slow}"
        );
    }

    #[test]
    fn solver_is_reusable_across_problems() {
        let mut solver = ParametricDeadlineSolver::new();
        let p1 = DeadlineProblem::new(vec![job(0, 0.0, 4.0, 0)], sites(), 0.0);
        let p2 = DeadlineProblem::new(
            vec![job(0, 0.0, 1.0, 1), job(1, 0.25, 2.0, 0)],
            sites(),
            0.25,
        );
        let a1 = solver.min_feasible_stretch(&p1).unwrap();
        let a2 = solver.min_feasible_stretch(&p2).unwrap();
        // Solving p1 again after p2 gives the same answer: no state leaks.
        let a1_again = solver.min_feasible_stretch(&p1).unwrap();
        assert!((a1 - a1_again).abs() <= STRETCH_TOL * a1.max(1.0));
        assert!(a2.is_finite() && a2 > 0.0);
    }

    #[test]
    fn infeasible_databank_is_rejected() {
        let p = DeadlineProblem::new(vec![job(0, 0.0, 1.0, 9)], sites(), 0.0);
        assert_eq!(
            ParametricDeadlineSolver::new().min_feasible_stretch(&p),
            None
        );
    }

    #[test]
    fn trivial_problem_is_zero() {
        let p = DeadlineProblem::new(vec![], sites(), 0.0);
        assert_eq!(
            ParametricDeadlineSolver::new().min_feasible_stretch(&p),
            Some(0.0)
        );
    }

    #[test]
    fn answers_sit_on_the_feasibility_boundary() {
        let p = DeadlineProblem::new(
            vec![
                job(0, 0.0, 2.0, 0),
                job(1, 0.5, 1.0, 0),
                job(2, 1.0, 3.0, 1),
            ],
            sites(),
            0.0,
        );
        let mut solver = ParametricDeadlineSolver::new();
        let opt = solver.min_feasible_stretch(&p).unwrap();
        assert!(!solver.feasible(&p, opt * 0.99));
        assert!(solver.feasible(&p, opt * 1.01));
    }

    #[test]
    fn cut_capacity_merges_each_sites_windows() {
        // Site 0 (speed 1) hosts databank 0; site 1 (speed 2) hosts both.
        let p = DeadlineProblem::new(
            vec![
                job(0, 0.0, 1.0, 0),
                job(1, 5.0, 1.0, 0),
                job(2, 1.0, 2.0, 1),
            ],
            sites(),
            0.0,
        );
        let structure = ParametricStructure::new(&p, 0.1, 10.0);
        // X = every job: windows [0, F), [5, 5 + F) and [1, 1 + 2F).
        let all = JobCut {
            reachable: vec![true; 3],
            members: vec![0, 1, 0, 2, 1],
            site_start: vec![0, 2, 5],
            outside: 0.0,
        };
        // F = 2: site 0 covers [0, 2) ∪ [5, 7), site 1 all of [0, 7).
        assert_eq!(all.capacity(&structure, 2.0), 4.0 + 2.0 * 7.0);
        // F = 0.5: three disjoint windows on site 1.
        assert_eq!(all.capacity(&structure, 0.5), 1.0 + 2.0 * 2.0);

        // X = {job 1}: C_X(F) = 3 + 3F, whose root at target 4.5 is 0.5.
        let one = JobCut {
            reachable: vec![false, true, false],
            members: vec![1, 1],
            site_start: vec![0, 1, 2],
            outside: 3.0,
        };
        let root = one.root(&structure, 0.1, 10.0, 4.5).unwrap();
        assert!((root - 0.5).abs() <= 1e-12, "root {root}");
        assert_eq!(one.root(&structure, 0.1, 10.0, 100.0), Some(f64::INFINITY));
        assert_eq!(one.root(&structure, 1.0, 10.0, 4.5), None);
    }
}
