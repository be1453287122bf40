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
//!   probe's maximum flow yields a minimum cut whose capacity is linear in
//!   `F` up to the next milestone (the next crossing of two adjacent
//!   symbolic times); solving `capacity(F) = demand − tol` — clamped at the
//!   milestone — gives the next candidate, and every `F` below it is
//!   *certified* infeasible by that same cut.  The iteration terminates on
//!   the exact boundary of the feasibility predicate, typically within a
//!   handful of max-flow runs instead of ~25 bisection probes.
//! * the blind exponential search for a feasible upper bound is replaced by
//!   a **certified bound**: serialising all pending work
//!   ([`DeadlineProblem::serialized_upper_bound`]) is a valid schedule, so
//!   its max-stretch is always feasible.
//!
//! A numerical safety net falls back to plain bisection — still on the
//! shared parametric structure — if the Newton iteration ever stalls.
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
//! **bit-identical** objectives and allocations (`STRETCH_WARM_START={0,1}`
//! in CI, pinned by the differential-oracle suite).

use crate::config::SolverConfig;
use crate::deadline::{certified_slack, AllocationPlan, DeadlineProblem, STRETCH_TOL};
use crate::delta::{DeltaStats, EpochSplicer, System2Arena};
use stretch_flow::{FastMap, FlowWorkspace, MinCostBackend, ParametricNetwork};

/// Feasibility tolerance of the flow probes, matching
/// [`stretch_flow::TransportInstance::is_feasible`].
const FEAS_TOL: f64 = 1e-6;

/// How many looser objectives
/// [`ParametricDeadlineSolver::certified_allocation`] tries after System (2)
/// rejects the certified slack.
const ALLOCATION_RETRIES: usize = 2;

/// A reusable engine solving deadline problems by parametric flow probes.
///
/// Create one per scheduler (or per run) and feed it every
/// [`DeadlineProblem`] the scheduler encounters; all scratch memory — and
/// the min-cost backend named by its [`SolverConfig`], which may carry a
/// warm-startable basis — is reused across calls.
pub struct ParametricDeadlineSolver {
    workspace: FlowWorkspace,
    /// Min-cut scratch: source-side flags over jobs and bins.
    cut_sources: Vec<bool>,
    cut_bins: Vec<bool>,
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
    /// Persistent cross-event engine of the incremental path
    /// (`STRETCH_INCREMENTAL`, default on): the epochal line splicer, the
    /// persistent parametric structure it refills, and the System-(2)
    /// solve arena.  `None` when the config runs rebuilds.
    incremental: Option<IncrementalEngine>,
    config: SolverConfig,
}

/// The solver's persistent incremental state (see [`crate::delta`]): the
/// spliced line multiset, the parametric structure whose buffers survive
/// from event to event, and the System-(2) arena.
#[derive(Default)]
struct IncrementalEngine {
    splicer: EpochSplicer,
    structure: Option<ParametricStructure>,
    arena: System2Arena,
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
struct ParametricStructure {
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
    fn new(problem: &DeadlineProblem, lo: f64, hi: f64) -> Self {
        let mut structure = Self::empty();
        structure.refill(problem, lo, hi, None);
        structure
    }

    /// A structure with every buffer empty; [`Self::refill`] populates it.
    /// The incremental path keeps one of these alive across events.
    fn empty() -> Self {
        ParametricStructure {
            times: Vec::new(),
            order: Vec::new(),
            sorted_vals: Vec::new(),
            network: ParametricNetwork::empty(),
            num_intervals: 0,
            site_speeds: Vec::new(),
            demands: Vec::new(),
            ready: Vec::new(),
            deadline: Vec::new(),
            bin_caps: Vec::new(),
            route_caps: Vec::new(),
            deadline_vals: Vec::new(),
            route_start: Vec::new(),
            route_imin: Vec::new(),
            route_iend: Vec::new(),
            hosting: Vec::new(),
            routes_scratch: Vec::new(),
        }
    }

    /// (Re)populates the structure for `problem`, for probes within
    /// `[lo, hi]`.  This is the single fill sequence of both solver paths:
    /// the rebuild path runs it over a fresh [`Self::empty`], the
    /// incremental path over last event's buffers — with the symbolic times
    /// handed in pre-spliced (`spliced_times`, from
    /// [`crate::delta::EpochSplicer`]) instead of re-sorted from scratch.
    /// A spliced line set is bitwise-equal to the fresh construction by
    /// the splicer's contract (checked here in debug builds), so both
    /// paths produce identical structures by construction.
    fn refill(
        &mut self,
        problem: &DeadlineProblem,
        lo: f64,
        hi: f64,
        spliced_times: Option<&[(f64, f64)]>,
    ) {
        match spliced_times {
            Some(lines) => {
                #[cfg(debug_assertions)]
                {
                    let mut fresh: Vec<(f64, f64)> = Vec::with_capacity(2 * problem.jobs.len() + 1);
                    fresh.push((problem.now, 0.0));
                    for job in &problem.jobs {
                        fresh.push((job.ready.max(problem.now), 0.0));
                        fresh.push((job.release, job.work));
                    }
                    fresh.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
                    fresh.dedup();
                    let bits = |ts: &[(f64, f64)]| -> Vec<(u64, u64)> {
                        ts.iter().map(|t| (t.0.to_bits(), t.1.to_bits())).collect()
                    };
                    debug_assert_eq!(
                        bits(lines),
                        bits(&fresh),
                        "spliced symbolic times diverged from the rebuild construction"
                    );
                }
                self.times.clear();
                self.times.extend_from_slice(lines);
            }
            None => {
                self.times.clear();
                self.times.reserve(2 * problem.jobs.len() + 1);
                self.times.push((problem.now, 0.0));
                for job in &problem.jobs {
                    self.times.push((job.ready.max(problem.now), 0.0));
                    // For any probed F (at or above the stretch lower bound)
                    // every deadline lies after `now`, so the `max(now, ·)`
                    // clamp of `epochal_times` is inactive and the deadline
                    // is linear.
                    self.times.push((job.release, job.work));
                }
                // Identical linear functions never separate: deduplicate by
                // exact identity (e.g. the shared ready time of the on-line
                // problems).
                self.times
                    .sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
                self.times.dedup();
            }
        }
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

    /// The minimum-cut capacity as a linear function `a + b·F`, valid from
    /// the last probed `F` up to [`ParametricStructure::next_crossing`].
    ///
    /// Only meaningful right after an unsuccessful probe (the residual flow
    /// then is a maximum flow).  Crossing source and route edges contribute
    /// their (constant) capacities; crossing bin edges contribute their
    /// linear lengths — except bins already degenerate and shrinking, whose
    /// true capacity is pinned at zero.
    fn cut_coefficients(
        &self,
        workspace: &mut FlowWorkspace,
        sources: &mut Vec<bool>,
        bins: &mut Vec<bool>,
    ) -> (f64, f64) {
        self.network.residual_cut(workspace, sources, bins);
        let mut a = 0.0;
        let mut b = 0.0;
        for (j, &reachable) in sources.iter().enumerate() {
            if !reachable {
                a += self.demands[j];
            }
        }
        for (idx, &(j, bin)) in self.network.routes().iter().enumerate() {
            if sources[j] && !bins[bin] {
                a += self.route_caps[idx];
            }
        }
        let k = self.num_intervals;
        for (bin, &reach) in bins.iter().enumerate() {
            if !reach {
                continue;
            }
            let speed = self.site_speeds[bin / k];
            let i = bin % k;
            let (a0, b0) = self.times[self.order[i]];
            let (a1, b1) = self.times[self.order[i + 1]];
            let (la, lb) = (a1 - a0, b1 - b0);
            let len_now = self.sorted_vals[i + 1] - self.sorted_vals[i];
            if len_now <= 1e-12 && lb <= 0.0 {
                // Degenerate and shrinking: capacity stays zero.
                continue;
            }
            a += speed * la;
            b += speed * lb;
        }
        (a, b)
    }

    /// The smallest objective strictly above `stretch` where two adjacent
    /// symbolic times cross (the next milestone), if any.  Cut
    /// extrapolations are only sound up to this point: beyond it interval
    /// lengths change sign and route admissibilities flip.
    fn next_crossing(&self, stretch: f64) -> Option<f64> {
        let floor = stretch * (1.0 + 1e-12);
        let mut next: Option<f64> = None;
        for w in self.order.windows(2) {
            let (a0, b0) = self.times[w[0]];
            let (a1, b1) = self.times[w[1]];
            let (da, db) = (a1 - a0, b1 - b0);
            // Only converging pairs ever cross.
            if db >= 0.0 {
                continue;
            }
            let root = -da / db;
            if root > floor && root.is_finite() {
                next = Some(next.map_or(root, |n: f64| n.min(root)));
            }
        }
        next
    }
}

impl ParametricDeadlineSolver {
    /// Creates a solver with empty scratch (grows on first use) and the
    /// default [`SolverConfig`] (`STRETCH_MINCOST_BACKEND`, read once).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        ParametricDeadlineSolver {
            workspace: FlowWorkspace::new(),
            cut_sources: Vec::new(),
            cut_bins: Vec::new(),
            backend: config.instantiate(),
            carry_jobs: FastMap::default(),
            carry_flows: Vec::new(),
            incremental: config.incremental.then(IncrementalEngine::default),
            config,
        }
    }

    /// Splice/rebuild counters of the incremental engine, `None` when the
    /// solver runs per-event rebuilds (`incremental` off in its config).
    pub fn incremental_stats(&self) -> Option<DeltaStats> {
        self.incremental.as_ref().map(|engine| DeltaStats {
            splices: engine.splicer.splices(),
            rebuilds: engine.splicer.rebuilds(),
        })
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

        if let Some(mut engine) = self.incremental.take() {
            // Incremental path: splice this event's delta into the
            // persistent line multiset, then refill the persistent
            // structure's buffers with the pre-spliced times.  The Newton
            // search below is the same code over the same values either
            // way — only the memory is reused.
            engine.splicer.apply(problem);
            let mut structure = engine
                .structure
                .take()
                .unwrap_or_else(ParametricStructure::empty);
            structure.refill(problem, lo_bound, ub, Some(engine.splicer.times()));
            let answer = self.newton_search(problem, &mut structure, lo_bound, ub, target);
            engine.structure = Some(structure);
            self.incremental = Some(engine);
            answer
        } else {
            let mut structure = ParametricStructure::new(problem, lo_bound, ub);
            self.newton_search(problem, &mut structure, lo_bound, ub, target)
        }
    }

    /// The Newton-on-minimum-cuts iteration (with its bisection safety
    /// net) over an already refilled `structure`.  Shared verbatim by the
    /// rebuild and incremental paths of [`Self::min_feasible_stretch`].
    fn newton_search(
        &mut self,
        problem: &DeadlineProblem,
        structure: &mut ParametricStructure,
        lo_bound: f64,
        ub: f64,
        target: f64,
    ) -> Option<f64> {
        let debug = crate::config::SolverConfig::env_flag("STRETCH_NEWTON_DEBUG");
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
            if structure.probe_current(&mut self.workspace) {
                if self.config.warm_start {
                    self.record_carry(problem, structure);
                }
                return Some(f);
            }
            // The probe ended at a maximum flow; its minimum cut bounds the
            // feasible region from below, up to the next milestone.
            let (a, b) = structure.cut_coefficients(
                &mut self.workspace,
                &mut self.cut_sources,
                &mut self.cut_bins,
            );
            // Land a hair *above* the cut root: at the exact root the cut
            // capacity equals the probe target, so the feasibility verdict
            // there would hinge on floating-point noise — and the verdict
            // must not depend on which residual flow (cold, or carried
            // over) the probe happened to start from.  The overshoot gives
            // the comparison a real margin at a cost of ≤1e-9 relative on
            // the answer, far inside STRETCH_TOL.
            let cut_root = if b > 1e-12 {
                ((target - a) / b) * (1.0 + 1e-9)
            } else {
                f64::INFINITY
            };
            let crossing = structure.next_crossing(f).unwrap_or(f64::INFINITY);
            if debug {
                eprintln!(
                    "newton: f={f:.9} cut=({a:.6}, {b:.6}) root={cut_root:.9} crossing={crossing:.9} target={target:.6}"
                );
            }
            let mut next = cut_root.min(crossing);
            // Strict-progress guard against floating-point stalls (the
            // negation also catches a NaN `next` — which is exactly why
            // the "hard to read" negated comparison is the right tool).
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
    /// layout recorded by [`ParametricStructure::new`].
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
        if let Some(engine) = self.incremental.as_mut() {
            // Same fill, same solve, persistent memory: see
            // [`crate::delta::System2Arena`].
            engine
                .arena
                .solve(problem, stretch, self.backend.as_mut(), &mut self.workspace)
        } else {
            problem.system2_allocation_with_backend(
                stretch,
                self.backend.as_mut(),
                &mut self.workspace,
            )
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
}
