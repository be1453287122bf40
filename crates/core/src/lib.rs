//! # stretch-core
//!
//! The heart of the reproduction of *Minimizing the stretch when scheduling
//! flows of biological requests* (Legrand, Su, Vivien — SPAA 2006): every
//! scheduling algorithm discussed in the paper, implemented for the divisible
//! load / restricted availability model of the GriPPS application.
//!
//! ## Schedulers
//!
//! | Scheduler | Paper section | Summary |
//! |---|---|---|
//! | [`ListScheduler`] (FCFS) | §4.1 | first come first served — optimal for max-flow |
//! | [`ListScheduler`] (SRPT) | §4.1–4.2 | shortest remaining processing time — optimal for sum-flow, 2-competitive for sum-stretch |
//! | [`ListScheduler`] (SPT / SWPT) | §4.2 | shortest (weighted) processing time |
//! | [`ListScheduler`] (SWRPT) | §4.2 | shortest weighted remaining processing time |
//! | [`ListScheduler`] (Bender02) | §4.3.2 | pseudo-stretch priority, `O(√Δ)`-competitive |
//! | [`MctScheduler`] | §5.3 | minimum completion time, with or without divisibility (the GriPPS production policy) |
//! | [`OfflineScheduler`] | §4.3.1 | optimal max-stretch via milestones + deadline scheduling |
//! | [`OnlineScheduler`] | §4.3.2 | the paper's on-line heuristics: `Online`, `Online-EDF`, `Online-EGDF`, plus the non-optimized variant used in Figure 3 |
//! | [`Bender98Scheduler`] | §4.3.2 | Bender, Chakrabarti, Muthukrishnan (1998): recompute the off-line optimum at each arrival, then EDF with a `√Δ` expansion factor |
//!
//! All of them implement the [`Scheduler`] trait and return comparable
//! [`ScheduleResult`]s.
//!
//! ## Single-processor theory module
//!
//! The [`uniproc`] module contains an exact single-machine preemptive
//! simulator and the adversarial instances of Theorems 1 and 2, which are
//! stated on one processor; the equivalence with the divisible multi-machine
//! model is Lemma 1, implemented in `stretch-workload`.
//!
//! ## Performance
//!
//! Every optimisation-based scheduler bottoms out in
//! [`deadline::DeadlineProblem::min_feasible_stretch`], and the on-line
//! schedulers re-run it (plus a System-(2) re-allocation) at **every
//! arrival**.  The hot path is organised around the paper's own milestone
//! observation (§4.3.1): between two milestones of the objective `F`, the
//! epochal-interval *structure* is invariant — only interval endpoints move,
//! linearly in `F`.  The [`parametric`] module exploits this end to end:
//!
//! * the transportation network of a deadline problem is built **once**
//!   and probed at any `F` by re-sorting the symbolic `a + b·F` times and
//!   rebinding bin/route capacities in place, warm-starting max-flow from
//!   the previous residual flow (no per-probe allocation or rebuild);
//! * the minimum feasible stretch is found by **Newton iteration on
//!   parametric minimum cuts** (each infeasible probe certifies, via its
//!   cut, the infeasibility of every smaller `F` up to the next milestone),
//!   which replaces ~25 bisection probes with a handful of max-flow runs;
//! * the feasible upper bound is **certified** by serialising the pending
//!   work ([`deadline::DeadlineProblem::serialized_upper_bound`]) instead of
//!   searched for by blind doubling;
//! * allocation post-processing indexes each plan once
//!   ([`deadline::AllocationPlan::index`]) so the serialisation comparators
//!   are `O(1)` instead of `O(pieces)`.
//!
//! Long-running schedulers hold one [`ParametricDeadlineSolver`] and feed it
//! every problem, so flow scratch ([`stretch_flow::FlowWorkspace`]) is
//! reused across events.  The `scheduler_overhead` bench records the effect
//! in `BENCH_baseline.json`.
//!
//! The remaining per-event cost is the System-(2) min-cost solve, which runs
//! on a pluggable [`stretch_flow::MinCostBackend`] selected by
//! [`SolverConfig`]: a warm-startable network simplex (the default) or the
//! primal-dual reference kernel.  The backends are cross-checked on
//! generated workloads by the differential-oracle suite in
//! `tests/backend_diff.rs`.
//!
//! Across *events*, the solver keeps its parametric structure and its
//! System-(2) arena ([`deadline::System2Arena`]) and refills both in place
//! at every event — the same fill code as on fresh memory, so the results
//! are bit-identical to it.

pub mod adversarial;
pub mod bender;
pub mod config;
pub mod deadline;
pub mod greedy;
pub mod list;
pub mod offline;
pub mod online;
pub mod parametric;
pub mod plan;
pub mod priority;
pub mod refstream;
pub mod scheduler;
pub mod sites;
pub mod system1;
pub mod system2;
pub mod uniproc;

pub use bender::Bender98Scheduler;
pub use config::SolverConfig;
pub use greedy::MctScheduler;
pub use list::ListScheduler;
pub use offline::{OfflineBackend, OfflineScheduler, OptimalStretch};
pub use online::{OnlineScheduler, OnlineVariant};
pub use parametric::ParametricDeadlineSolver;
pub use priority::PriorityRule;
pub use scheduler::{ScheduleError, ScheduleResult, Scheduler};
pub use sites::SiteView;
pub use stretch_flow::BackendKind;

/// The per-event refill that [`parametric::DeltaStats`] counts: the
/// structure a solver keeps from event to event, refilled in place, must
/// equal a fresh fill of the same problem bit for bit.
#[cfg(test)]
mod delta {
    mod tests {
        use crate::deadline::{DeadlineProblem, PendingJob};
        use crate::parametric::{DeltaStats, ParametricStructure};
        use crate::sites::{Site, SiteView};
        use crate::{ParametricDeadlineSolver, SolverConfig};

        /// Probe range of every fill below.
        const LO: f64 = 1.0;
        const HI: f64 = 8.0;

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

        /// The epochal times of a problem, written out: `now`, then each
        /// job's ready line and deadline line, sorted and deduplicated.
        fn fresh_times(problem: &DeadlineProblem) -> Vec<(f64, f64)> {
            let mut times = vec![(problem.now, 0.0)];
            for j in &problem.jobs {
                times.push((j.ready.max(problem.now), 0.0));
                times.push((j.release, j.work));
            }
            times.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
            times.dedup();
            times
        }

        fn bits(times: &[(f64, f64)]) -> Vec<(u64, u64)> {
            times
                .iter()
                .map(|t| (t.0.to_bits(), t.1.to_bits()))
                .collect()
        }

        /// Refills `structure` in place with `problem`, then compares it with
        /// the written-out times and with a fresh fill.
        fn refill_matches_fresh(structure: &mut ParametricStructure, problem: &DeadlineProblem) {
            structure.refill(problem, LO, HI);
            assert_eq!(bits(structure.times()), bits(&fresh_times(problem)));
            assert_eq!(
                structure.fill_bits(),
                ParametricStructure::new(problem, LO, HI).fill_bits()
            );
        }

        #[test]
        fn splice_tracks_an_event_stream_exactly() {
            // Arrivals, a completion, a shared-ready move, a shrink to one
            // job, then drain to empty — every step compared bitwise.
            let events = [
                DeadlineProblem::new(vec![job(0, 0.0, 2.0, 0)], sites(), 0.0),
                DeadlineProblem::new(vec![job(0, 0.0, 2.0, 0), job(1, 0.4, 1.0, 1)], sites(), 0.4),
                DeadlineProblem::new(
                    vec![
                        job(0, 0.0, 2.0, 0),
                        job(1, 0.4, 1.0, 1),
                        job(2, 0.9, 3.0, 0),
                    ],
                    sites(),
                    0.9,
                ),
                DeadlineProblem::new(vec![job(0, 0.0, 2.0, 0), job(2, 0.9, 3.0, 0)], sites(), 1.3),
                DeadlineProblem::new(vec![job(2, 0.9, 3.0, 0)], sites(), 2.0),
                DeadlineProblem::new(vec![], sites(), 3.0),
            ];
            let mut structure = ParametricStructure::default();
            for problem in &events {
                refill_matches_fresh(&mut structure, problem);
            }
            // A solver counts its first fill as the rebuild and every later
            // one as a splice; the empty event is trivial and fills nothing.
            let config = SolverConfig::default().with_incremental(true);
            let mut solver = ParametricDeadlineSolver::with_config(config);
            for problem in &events {
                solver.min_feasible_stretch(problem).expect("feasible");
            }
            let fills = events.iter().filter(|p| !p.is_trivial()).count() as u64;
            assert_eq!(
                solver.incremental_stats(),
                Some(DeltaStats {
                    splices: fills - 1,
                    rebuilds: 1
                })
            );
        }

        #[test]
        fn shared_ready_lines_merge_and_split_by_refcount() {
            let mut structure = ParametricStructure::default();
            // Three on-line jobs share ready == now with the problem's own
            // now line: one line for the four.
            let p1 = DeadlineProblem::new(
                vec![
                    job(0, 1.0, 2.0, 0),
                    job(1, 1.0, 1.0, 0),
                    job(2, 1.0, 3.0, 1),
                ],
                sites(),
                1.0,
            );
            refill_matches_fresh(&mut structure, &p1);
            assert_eq!(structure.times().len(), 1 + 3, "shared line merged");
            // One job leaves: the shared line stays, its deadline line goes.
            let p2 =
                DeadlineProblem::new(vec![job(0, 1.0, 2.0, 0), job(2, 1.0, 3.0, 1)], sites(), 1.0);
            refill_matches_fresh(&mut structure, &p2);
            assert_eq!(
                structure.times().len(),
                1 + 2,
                "departed deadline line dropped"
            );
        }

        #[test]
        fn degenerate_values_bail_to_the_rebuild_construction() {
            let mut structure = ParametricStructure::default();
            // A negative-zero release sorts before +0.0 yet compares equal
            // to it: the refills before, on and after that event all match
            // the fresh construction.
            let events = [
                DeadlineProblem::new(vec![job(0, 0.0, 2.0, 0)], sites(), 0.0),
                DeadlineProblem::new(
                    vec![job(0, -0.0, 2.0, 0), job(1, 0.5, 1.0, 0)],
                    sites(),
                    0.5,
                ),
                DeadlineProblem::new(vec![job(1, 0.5, 1.0, 0)], sites(), 1.0),
                DeadlineProblem::new(vec![job(1, 0.5, 1.0, 0)], sites(), 1.5),
            ];
            for problem in &events {
                refill_matches_fresh(&mut structure, problem);
            }
        }

        #[test]
        fn duplicate_job_ids_force_a_rebuild() {
            let mut structure = ParametricStructure::default();
            // Two pending jobs under one id, between two clean events.
            let clean = DeadlineProblem::new(vec![job(6, 0.0, 2.0, 0)], sites(), 0.0);
            let dup =
                DeadlineProblem::new(vec![job(7, 0.0, 2.0, 0), job(7, 0.5, 1.0, 0)], sites(), 0.0);
            for problem in [&clean, &dup, &clean] {
                refill_matches_fresh(&mut structure, problem);
            }
        }

        #[test]
        fn reused_ids_with_changed_identity_are_respliced_not_corrupted() {
            let mut structure = ParametricStructure::default();
            let p1 = DeadlineProblem::new(vec![job(3, 0.0, 2.0, 0)], sites(), 0.0);
            refill_matches_fresh(&mut structure, &p1);
            // Same id, different release and work (never happens through the
            // scheduler; the raw API allows it).
            let p2 = DeadlineProblem::new(vec![job(3, 0.5, 4.0, 0)], sites(), 0.5);
            refill_matches_fresh(&mut structure, &p2);
            assert!(
                !structure.times().contains(&(0.0, 2.0)),
                "stale deadline line kept"
            );
        }
    }
}
