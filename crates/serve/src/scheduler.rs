//! The replayable scheduler state machine.
//!
//! [`ServeScheduler`] re-expresses one iteration of
//! `stretch_core::online::run_online_with` as two explicit transitions so
//! that a write-ahead journal can sit between them:
//!
//! * [`ServeScheduler::try_solve`] + [`ServeScheduler::install`] — the
//!   decision at the current frontier (steps 2–4 of the paper's on-line
//!   algorithm: min-stretch search, System-(2) allocation, serialisation).
//!   `try_solve` is *pure* with respect to scheduler state (only the solver
//!   scratch warms up), so the degradation ladder can probe several tiers
//!   and discard losers without rollback; `install` commits exactly one.
//! * [`ServeScheduler::advance`] — executes the installed decision from the
//!   frontier to the next event time and folds the executed work back.
//!
//! Replaying the same transition sequence therefore reproduces the exact
//! state of the live run, bit for bit — the property the whole serve layer
//! leans on, pinned by the differential and kill-and-recover tests.  The
//! warm/cold identity contract makes the solver caches irrelevant to
//! outputs, so a recovered (cold) process matches a long-lived (warm) one —
//! but only through that contract holding at *every* later decision: the
//! simplex remembers the basis its last pivot path stopped at, so a
//! cold-restarted solver's memory does not re-converge to the live one's
//! after one solve, and the two may pivot differently for the rest of the
//! stream.  They agree on outputs exactly where warm and cold solves agree
//! (ARCHITECTURE.md, *The determinism contract*, lists the benchmark pool
//! entries where those differ).

use stretch_core::deadline::{DeadlineProblem, PendingJob};
use stretch_core::online::{fold_execution, pending_job, PendingIndex};
use stretch_core::plan::{
    execute_list_order, execute_sequences, site_sequences, PieceOrdering, PlanExecution,
};
use stretch_core::{ParametricDeadlineSolver, SiteView, SolverConfig};

use crate::event::SolveTier;

// The on-line event rule's tolerances, shared with `run_online_with`:
// release dates at most `EVENT_TOL` apart are one event, and a job with at
// most `PENDING_REMAINING_EPS` of work left is no longer pending.
pub use stretch_core::online::{EVENT_TOL, PENDING_REMAINING_EPS};

/// A validated, accepted job as staged into the scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcceptedJob {
    /// Release date.
    pub release: f64,
    /// Total work.
    pub work: f64,
    /// Target databank.
    pub databank: usize,
}

/// How an installed decision executes its pending jobs.
#[derive(Clone, Debug)]
enum DecisionKind {
    /// Per-site chunk sequences (the LP/flow tiers, `Online` serialisation).
    Sequences(Vec<Vec<(usize, f64)>>),
    /// A fixed priority order (the EDF shed tier).
    ListOrder(Vec<usize>),
}

/// A solved-but-not-yet-installed scheduling decision.
#[derive(Clone, Debug)]
pub struct PreparedDecision {
    tier: SolveTier,
    problem: DeadlineProblem,
    kind: DecisionKind,
    stretch: Option<f64>,
}

impl PreparedDecision {
    /// The tier that produced this decision.
    pub fn tier(&self) -> SolveTier {
        self.tier
    }

    /// The certified max-stretch of the solve (`None` for the EDF tier).
    pub fn stretch(&self) -> Option<f64> {
        self.stretch
    }
}

/// Why a solve tier produced no decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveFailure {
    /// No job is pending at the frontier — there is nothing to decide.
    NothingPending,
    /// The min-stretch search found no finite feasible stretch.
    Infeasible,
    /// The System-(2) allocation failed at the certified stretch
    /// (certification failure).
    Allocation,
}

impl std::fmt::Display for SolveFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveFailure::NothingPending => write!(f, "no pending job at the frontier"),
            SolveFailure::Infeasible => write!(f, "no finite max-stretch achievable"),
            SolveFailure::Allocation => {
                write!(f, "System (2) infeasible at the certified stretch")
            }
        }
    }
}

impl std::error::Error for SolveFailure {}

/// Deterministic scheduler state, a pure function of the staged/decided
/// transition sequence.
pub struct ServeScheduler {
    sites: SiteView,
    warm_start: bool,
    incremental: bool,
    jobs: Vec<AcceptedJob>,
    remaining: Vec<f64>,
    completions: Vec<f64>,
    /// The unfinished jobs: derived from `jobs` and `remaining`, so it is
    /// neither exported nor digested.
    unfinished: PendingIndex,
    /// `false` until the first job is staged (the frontier is meaningless
    /// before that).
    started: bool,
    /// The decision frontier: the event time of the last staged/advanced
    /// transition.
    stage_time: f64,
    active: Option<PreparedDecision>,
    /// Max-stretch of the most recent successful solve; seeds the virtual
    /// deadlines of the EDF shed tier.  Part of the replayed state.
    last_stretch: f64,
    decisions: u64,
    /// One lazily-created parametric engine per solver tier (indexed by tier
    /// code; the legacy tier replays on a simplex engine of its own), so
    /// warm-start bases never leak across tiers.
    solvers: [Option<ParametricDeadlineSolver>; 3],
}

impl ServeScheduler {
    /// A fresh scheduler over `sites`; `warm_start` and `incremental` are
    /// forwarded to every tier's solver (performance only — results are
    /// warm/cold and incremental/rebuild identical).
    pub fn new(sites: SiteView, warm_start: bool, incremental: bool) -> Self {
        ServeScheduler {
            sites,
            warm_start,
            incremental,
            jobs: Vec::new(),
            remaining: Vec::new(),
            completions: Vec::new(),
            unfinished: PendingIndex::new(),
            started: false,
            stage_time: 0.0,
            active: None,
            last_stretch: 1.0,
            decisions: 0,
            solvers: [None, None, None],
        }
    }

    /// Stages an accepted job at the frontier.  The caller (service or
    /// replay) guarantees `release >= stage_time - EVENT_TOL` and that any
    /// due decision/advance has already happened, so the job is released
    /// at the frontier.
    pub fn stage(&mut self, release: f64, work: f64, databank: usize) -> usize {
        if !self.started {
            self.started = true;
            self.stage_time = release;
        }
        debug_assert!(
            release <= self.stage_time + EVENT_TOL,
            "the frontier must reach a job's release before it is staged"
        );
        let id = self.jobs.len();
        self.jobs.push(AcceptedJob {
            release,
            work,
            databank,
        });
        self.remaining.push(work);
        self.completions.push(f64::NAN);
        self.unfinished.admit(id, work);
        #[cfg(feature = "invariant-audit")]
        self.audit_transition("stage");
        id
    }

    /// `true` once a first job has been staged.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The decision frontier.
    pub fn stage_time(&self) -> f64 {
        self.stage_time
    }

    /// `true` while a decision is installed but not yet advanced past.
    pub fn has_active(&self) -> bool {
        self.active.is_some()
    }

    /// Tier of the installed decision, if any.
    pub fn active_tier(&self) -> Option<SolveTier> {
        self.active.as_ref().map(|d| d.tier)
    }

    /// Decisions installed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Max-stretch of the most recent successful solve.
    pub fn last_stretch(&self) -> f64 {
        self.last_stretch
    }

    /// Jobs staged so far, in arrival order (`job id == index`).
    pub fn jobs(&self) -> &[AcceptedJob] {
        &self.jobs
    }

    /// Remaining work per job.
    pub fn remaining(&self) -> &[f64] {
        &self.remaining
    }

    /// Completion time per job (`NaN` while unfinished).
    pub fn completions(&self) -> &[f64] {
        &self.completions
    }

    /// Number of jobs whose remaining work is above the pending threshold
    /// (every staged job is released at the frontier, so these are the
    /// pending jobs).
    pub fn backlog(&self) -> usize {
        self.unfinished.len()
    }

    /// `true` when the frontier has pending jobs and no installed decision —
    /// i.e. a decision is due before the frontier may move.
    pub fn needs_decision(&self) -> bool {
        self.started && self.active.is_none() && !self.unfinished.is_empty()
    }

    /// Pending jobs at the frontier, by the rule `run_online_with` uses
    /// ([`pending_job`]): released (within [`EVENT_TOL`]) and not completed,
    /// read from the pending index in ascending job index.
    fn pending(&self) -> Vec<PendingJob> {
        self.unfinished
            .ids()
            .iter()
            .filter_map(|&id| {
                let j = &self.jobs[id];
                pending_job(
                    id,
                    j.release,
                    j.work,
                    j.databank,
                    self.remaining[id],
                    self.stage_time,
                )
            })
            .collect()
    }

    /// Solves the decision at the frontier with `tier`, without committing
    /// anything.  Scheduler state is untouched on both success and failure
    /// (only the tier's solver scratch warms up — irrelevant to outputs by
    /// the warm/cold identity contract), so the ladder can discard this
    /// result freely.  [`SolveTier::Edf`] only fails with
    /// [`SolveFailure::NothingPending`].
    pub fn try_solve(&mut self, tier: SolveTier) -> Result<PreparedDecision, SolveFailure> {
        let pending = self.pending();
        if pending.is_empty() {
            return Err(SolveFailure::NothingPending);
        }
        let problem = DeadlineProblem::new(pending, self.sites.clone(), self.stage_time);
        let Some(backend) = tier.backend() else {
            // EDF shed tier: order by virtual deadline r_j + S * W_j, where S
            // is the last certified stretch — the deadline each job would
            // have under that objective.  Ties broken by pending index for
            // determinism.
            let mut order: Vec<usize> = (0..problem.jobs.len()).collect();
            order.sort_by(|&a, &b| {
                let da = problem.jobs[a].release + self.last_stretch * problem.jobs[a].work;
                let db = problem.jobs[b].release + self.last_stretch * problem.jobs[b].work;
                da.total_cmp(&db).then_with(|| a.cmp(&b))
            });
            return Ok(PreparedDecision {
                tier,
                problem,
                kind: DecisionKind::ListOrder(order),
                stretch: None,
            });
        };
        let warm_start = self.warm_start;
        let incremental = self.incremental;
        let solver = self.solvers[tier.code() as usize].get_or_insert_with(|| {
            ParametricDeadlineSolver::with_config(SolverConfig {
                backend,
                warm_start,
                incremental,
            })
        });
        let best = solver
            .min_feasible_stretch(&problem)
            .ok_or(SolveFailure::Infeasible)?;
        let plan = solver
            .certified_allocation(&problem, best)
            .ok_or(SolveFailure::Allocation)?;
        let sequences = site_sequences(&problem, &plan, PieceOrdering::Online);
        Ok(PreparedDecision {
            tier,
            problem,
            kind: DecisionKind::Sequences(sequences),
            stretch: Some(best),
        })
    }

    /// Commits a prepared decision at the frontier.  The matching journal
    /// record must already be written (write-ahead); the caller makes it
    /// durable before it acknowledges the call that forced the decision.
    pub fn install(&mut self, decision: PreparedDecision) {
        if let Some(s) = decision.stretch {
            self.last_stretch = s;
        }
        self.decisions += 1;
        self.active = Some(decision);
        #[cfg(feature = "invariant-audit")]
        self.audit_transition("install");
    }

    /// Moves the frontier to `t` (the next event time, or `f64::INFINITY` to
    /// drain), executing the installed decision over `[stage_time, t)` and
    /// folding executed work and completions back with the bookkeeping step
    /// of `run_online_with` ([`fold_execution`]).
    pub fn advance(&mut self, t: f64) {
        debug_assert!(
            t >= self.stage_time - EVENT_TOL,
            "frontier may not move back"
        );
        if let Some(decision) = self.active.take() {
            let execution: PlanExecution = match &decision.kind {
                DecisionKind::Sequences(sequences) => {
                    execute_sequences(&decision.problem, sequences, self.stage_time, t)
                }
                DecisionKind::ListOrder(order) => {
                    execute_list_order(&decision.problem, order, &self.sites, self.stage_time, t)
                }
            };
            fold_execution(
                &decision.problem,
                &execution,
                &mut self.remaining,
                &mut self.completions,
                &mut self.unfinished,
            );
        }
        if t.is_finite() {
            self.stage_time = t;
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_transition("advance");
    }

    /// Audits at a serve transition (feature `invariant-audit`):
    ///
    /// * the pending index lists exactly the jobs a full scan finds
    ///   pending at the frontier, and a scheduler rebuilt from the
    ///   exported state rebuilds the same index;
    /// * exporting the state and rebuilding a scheduler from it reproduces
    ///   the digest bit-for-bit.  This is exactly the crash-recovery
    ///   contract — a snapshot taken here and replayed later must land on
    ///   this state — checked continuously instead of only in the recovery
    ///   tests.
    #[cfg(feature = "invariant-audit")]
    fn audit_transition(&self, context: &str) {
        self.unfinished.audit(
            context,
            self.jobs.iter().map(|j| j.release),
            &self.remaining,
            self.stage_time,
        );
        let digest = self.state_digest();
        let restored = Self::from_state(
            self.sites.clone(),
            self.warm_start,
            self.incremental,
            self.export_state(),
        );
        if restored.unfinished != self.unfinished {
            stretch_flow::audit::fail(
                "pending-index",
                &format!("{context}: the rebuilt index differs from the live one"),
            );
        }
        let round_trip = restored.state_digest();
        if digest != round_trip {
            stretch_flow::audit::fail(
                "serve-digest",
                &format!(
                    "{context}: live digest {digest:#018x} but export/rebuild \
                     round-trip digests {round_trip:#018x}"
                ),
            );
        }
    }

    /// FNV-1a digest of the replayed state: job parameters, remaining works,
    /// completions, frontier, decision count, last stretch and the installed
    /// decision (if any) — everything replay must reproduce, all floats as
    /// exact bit patterns.  Solver caches and metrics are deliberately
    /// excluded (performance state, not replayed state).
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.jobs.len() as u64);
        for job in &self.jobs {
            h.f64(job.release);
            h.f64(job.work);
            h.u64(job.databank as u64);
        }
        for &r in &self.remaining {
            h.f64(r);
        }
        for &c in &self.completions {
            h.f64(c);
        }
        h.u64(u64::from(self.started));
        h.f64(self.stage_time);
        h.f64(self.last_stretch);
        h.u64(self.decisions);
        match &self.active {
            None => h.u64(0),
            Some(d) => {
                h.u64(1 + u64::from(d.tier.code()));
                h.f64(d.stretch.unwrap_or(f64::NAN));
                match &d.kind {
                    DecisionKind::Sequences(sequences) => {
                        h.u64(sequences.len() as u64);
                        for seq in sequences {
                            h.u64(seq.len() as u64);
                            for &(job_index, work) in seq {
                                h.u64(job_index as u64);
                                h.f64(work);
                            }
                        }
                    }
                    DecisionKind::ListOrder(order) => {
                        h.u64(u64::MAX);
                        for &j in order {
                            h.u64(j as u64);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// How an exported active decision executes — the serializable mirror of
/// the private `DecisionKind`.
#[derive(Clone, Debug, PartialEq)]
pub enum DecisionKindState {
    /// Per-site chunk sequences (the LP/flow tiers).
    Sequences(Vec<Vec<(usize, f64)>>),
    /// A fixed priority order (the EDF shed tier).
    ListOrder(Vec<usize>),
}

/// Serializable image of an installed-but-not-advanced decision: the tier,
/// the frozen [`DeadlineProblem`] it solved (minus the [`SiteView`], which
/// the platform reconstructs), and its execution plan.
#[derive(Clone, Debug, PartialEq)]
pub struct ActiveDecisionState {
    /// The tier that produced the decision.
    pub tier: SolveTier,
    /// Certified max-stretch (`None` for the EDF tier).
    pub stretch: Option<f64>,
    /// The frontier time the problem was frozen at.
    pub now: f64,
    /// The pending jobs of the frozen problem, verbatim.
    pub jobs: Vec<PendingJob>,
    /// The execution plan.
    pub kind: DecisionKindState,
}

/// Plain-data image of the replayed scheduler state — exactly what
/// [`ServeScheduler::state_digest`] covers, in serializable form (the
/// snapshot layer encodes it to bytes).
///
/// Solver engines and their warm-start carryover (bases, remapping keys) are
/// deliberately **absent**: the warm/cold identity contract makes them
/// performance-only, so a scheduler restored from this state restarts cold
/// and still replays bit-identically.  It does so only as long as warm and
/// cold solves agree at every later decision: the remembered basis is the
/// one the previous solve's pivot path stopped at, so the restored solver's
/// memory never re-converges to the live solver's, and no later solve
/// re-synchronises them.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerState {
    /// Jobs staged so far, in arrival order.
    pub jobs: Vec<AcceptedJob>,
    /// Remaining work per job.
    pub remaining: Vec<f64>,
    /// Completion time per job (`NaN` while unfinished).
    pub completions: Vec<f64>,
    /// Whether a first job has been staged.
    pub started: bool,
    /// The decision frontier.
    pub stage_time: f64,
    /// Max-stretch of the most recent successful solve.
    pub last_stretch: f64,
    /// Decisions installed so far.
    pub decisions: u64,
    /// The installed decision, if the journal ended between a decision
    /// record and the advance it precedes.
    pub active: Option<ActiveDecisionState>,
}

impl ServeScheduler {
    /// Exports the full replayed state (see [`SchedulerState`]).
    pub fn export_state(&self) -> SchedulerState {
        SchedulerState {
            jobs: self.jobs.clone(),
            remaining: self.remaining.clone(),
            completions: self.completions.clone(),
            started: self.started,
            stage_time: self.stage_time,
            last_stretch: self.last_stretch,
            decisions: self.decisions,
            active: self.active.as_ref().map(|d| ActiveDecisionState {
                tier: d.tier,
                stretch: d.stretch,
                now: d.problem.now,
                jobs: d.problem.jobs.clone(),
                kind: match &d.kind {
                    DecisionKind::Sequences(s) => DecisionKindState::Sequences(s.clone()),
                    DecisionKind::ListOrder(o) => DecisionKindState::ListOrder(o.clone()),
                },
            }),
        }
    }

    /// Rebuilds a scheduler from an exported state.  The caller supplies
    /// `sites` (reconstructed from the platform — it is not serialized),
    /// `warm_start` and `incremental`; solvers restart cold on empty
    /// memory, which is output-identical by the warm/cold and
    /// incremental/rebuild contracts.
    ///
    /// The active decision's `DeadlineProblem` is rebuilt by *struct
    /// literal*, not `DeadlineProblem::new` — the constructor filters
    /// near-complete jobs, which would shift pending indices and corrupt
    /// the frozen plan.
    pub fn from_state(
        sites: SiteView,
        warm_start: bool,
        incremental: bool,
        state: SchedulerState,
    ) -> Self {
        let active = state.active.map(|d| PreparedDecision {
            tier: d.tier,
            problem: DeadlineProblem {
                jobs: d.jobs,
                sites: sites.clone(),
                now: d.now,
            },
            kind: match d.kind {
                DecisionKindState::Sequences(s) => DecisionKind::Sequences(s),
                DecisionKindState::ListOrder(o) => DecisionKind::ListOrder(o),
            },
            stretch: d.stretch,
        });
        // Every staged job is released at the frontier, so each is offered
        // to the index.
        let mut unfinished = PendingIndex::new();
        for (id, &left) in state.remaining.iter().enumerate() {
            unfinished.admit(id, left);
        }
        ServeScheduler {
            sites,
            warm_start,
            incremental,
            jobs: state.jobs,
            remaining: state.remaining,
            completions: state.completions,
            unfinished,
            started: state.started,
            stage_time: state.stage_time,
            active,
            last_stretch: state.last_stretch,
            decisions: state.decisions,
            solvers: [None, None, None],
        }
    }
}

/// Minimal FNV-1a 64-bit hasher (stable across platforms and runs, unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stretch_platform::fixtures::small_platform;

    fn scheduler() -> ServeScheduler {
        ServeScheduler::new(SiteView::of_platform(&small_platform()), true, true)
    }

    #[test]
    fn solve_install_advance_completes_a_single_job() {
        let mut s = scheduler();
        s.stage(0.0, 120.0, 0);
        assert!(s.needs_decision());
        let decision = s.try_solve(SolveTier::PrimalDual).unwrap();
        assert!(decision.stretch().is_some());
        s.install(decision);
        s.advance(f64::INFINITY);
        // 120 MB over the 60 MB/s platform: completion at t = 2.
        assert!((s.completions()[0] - 2.0).abs() < 1e-3);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn edf_tier_never_fails_on_pending_work() {
        let mut s = scheduler();
        s.stage(0.0, 120.0, 0);
        s.stage(0.0, 30.0, 1);
        let decision = s.try_solve(SolveTier::Edf).unwrap();
        assert_eq!(decision.tier(), SolveTier::Edf);
        assert_eq!(decision.stretch(), None);
        s.install(decision);
        s.advance(f64::INFINITY);
        assert_eq!(s.backlog(), 0);
        assert!(s.completions().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn try_solve_leaves_state_untouched() {
        let mut s = scheduler();
        s.stage(0.0, 120.0, 0);
        let before = s.state_digest();
        let _ = s.try_solve(SolveTier::Simplex).unwrap();
        let _ = s.try_solve(SolveTier::Edf).unwrap();
        assert_eq!(s.state_digest(), before);
        assert_eq!(s.decisions(), 0);
    }

    #[test]
    fn digest_tracks_every_transition() {
        let mut s = scheduler();
        let d0 = s.state_digest();
        s.stage(0.0, 120.0, 0);
        let d1 = s.state_digest();
        assert_ne!(d0, d1);
        let decision = s.try_solve(SolveTier::Simplex).unwrap();
        s.install(decision);
        let d2 = s.state_digest();
        assert_ne!(d1, d2);
        s.advance(1.0);
        let d3 = s.state_digest();
        assert_ne!(d2, d3);
    }

    #[test]
    fn export_restore_round_trips_mid_decision() {
        // Restore with an *installed* decision pending: the frozen problem
        // and plan must survive, and advancing both schedulers from the
        // restored point must produce bit-identical completions.
        let mut live = scheduler();
        live.stage(0.0, 300.0, 0);
        let d = live.try_solve(SolveTier::Simplex).unwrap();
        live.install(d);
        live.advance(1.0);
        live.stage(1.0, 60.0, 1);
        let d = live.try_solve(SolveTier::Simplex).unwrap();
        live.install(d);

        let state = live.export_state();
        let mut restored =
            ServeScheduler::from_state(SiteView::of_platform(&small_platform()), true, true, state);
        assert_eq!(restored.state_digest(), live.state_digest());
        assert_eq!(restored.decisions(), live.decisions());
        assert!(restored.has_active());

        live.advance(f64::INFINITY);
        restored.advance(f64::INFINITY);
        assert_eq!(restored.state_digest(), live.state_digest());
        assert_eq!(
            restored
                .completions()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            live.completions()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn identical_transition_sequences_digest_identically() {
        let run = || {
            let mut s = scheduler();
            s.stage(0.0, 300.0, 0);
            let d = s.try_solve(SolveTier::Simplex).unwrap();
            s.install(d);
            s.advance(1.0);
            s.stage(1.0, 60.0, 1);
            let d = s.try_solve(SolveTier::Simplex).unwrap();
            s.install(d);
            s.advance(f64::INFINITY);
            (s.state_digest(), s.completions().to_vec())
        };
        let (da, ca) = run();
        let (db, cb) = run();
        assert_eq!(da, db);
        assert_eq!(
            ca.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            cb.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        );
    }
}
