//! The §5.3 scheduling-overhead comparison as a Criterion benchmark: how much
//! wall-clock time each scheduler spends making decisions on a 3-cluster
//! platform.  The paper reports ~0.28 s for the on-line heuristics, ~0.54 s
//! for the off-line optimal and ~19.8 s for Bender98 on 15-minute workloads;
//! here the workload is scaled down but the ranking (list/greedy ≪ on-line LP
//! ≤ off-line < Bender98) must be preserved.
//!
//! The `engine` group compares the parametric deadline solver (frozen
//! milestone-bracket topology, warm-started allocation-free probes) against
//! the from-scratch reference path that rebuilds a transportation instance
//! per probe on a single off-line min-stretch solve, and measures every
//! min-cost backend on the per-event System-(2) solves and the on-line
//! loop.  Every measurement is merged into `BENCH_baseline.json`, the
//! repository's perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use stretch_bench::bench_instance;
use stretch_core::online::run_online_with;
use stretch_core::{
    Bender98Scheduler, ListScheduler, MctScheduler, OfflineScheduler, OnlineScheduler,
    OnlineVariant, ParametricDeadlineSolver, Scheduler, SolverConfig,
};
use stretch_experiments::run_overhead_study;
use stretch_flow::FlowWorkspace;

fn bench_scheduler_overhead(c: &mut Criterion) {
    let report = run_overhead_study(2, 20, 11);
    println!("\n{}\n", report.render());

    let instance = bench_instance(3, 3, 20, 3);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(MctScheduler::mct()),
        Box::new(MctScheduler::mct_div()),
        Box::new(ListScheduler::srpt()),
        Box::new(ListScheduler::swrpt()),
        Box::new(ListScheduler::bender02()),
        Box::new(OnlineScheduler::online()),
        Box::new(OnlineScheduler::online_edf()),
        Box::new(OnlineScheduler::online_egdf()),
        Box::new(OfflineScheduler::new()),
        Box::new(Bender98Scheduler::new()),
    ];
    let mut group = c.benchmark_group("overhead");
    group.sample_size(10);
    for scheduler in &schedulers {
        group.bench_function(scheduler.name(), |b| {
            b.iter(|| {
                let r = scheduler.schedule(black_box(&instance)).unwrap();
                black_box(r.metrics.max_stretch)
            })
        });
    }
    group.finish();

    // The parametric engine against the from-scratch reference search on a
    // single off-line min-stretch solve.
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let offline = stretch_core::offline::offline_problem(&instance);
    group.bench_function("min-stretch/from-scratch", |b| {
        b.iter(|| black_box(offline.min_feasible_stretch_reference().unwrap()))
    });
    group.bench_function("min-stretch/parametric", |b| {
        let mut solver = ParametricDeadlineSolver::new();
        b.iter(|| black_box(solver.min_feasible_stretch(&offline).unwrap()))
    });

    // Min-cost backend comparison on the same 3-cluster workload: the
    // captured per-event System-(2) solves (where the backends actually
    // differ — the feasibility probes are backend-independent) and the full
    // on-line loop end to end.  One row per backend, measured **cold across
    // events** (no cross-event solver memory — the PR 2 baseline semantics),
    // plus `-warm` rows with the cross-event memory on: basis remapping for
    // the System-(2) sweep, basis remapping *and* residual carry-over for
    // the full loop.  Warm and cold produce bit-identical schedules (pinned
    // by the differential-oracle suite), so the row pairs measure the same
    // work — only the solver state differs.  The CI bench-smoke step checks
    // all of these keys exist in BENCH_baseline.json.
    // The captured per-event System-(2) instances — the exact min-cost
    // workload the backends compete on (shared with the CI perf-drift gate
    // through `stretch_core::refstream`, so both measure identical work).
    let system2_events = stretch_core::refstream::capture_system2_events(&instance);
    assert!(!system2_events.is_empty());
    for config in SolverConfig::all_backends() {
        let cold = config.with_warm_start(false);
        let mut backend = cold.instantiate();
        let mut ws = FlowWorkspace::new();
        group.bench_function(format!("system2-events/{}", cold.backend.name()), |b| {
            b.iter(|| {
                let mut pieces = 0usize;
                for (problem, slack) in &system2_events {
                    let plan = problem
                        .system2_allocation_with_backend(*slack, backend.as_mut(), &mut ws)
                        .expect("feasible at the captured objective");
                    pieces += plan.pieces.len();
                }
                black_box(pieces)
            })
        });
        group.bench_function(format!("online-loop/{}", cold.backend.name()), |b| {
            b.iter(|| {
                black_box(
                    run_online_with(&instance, OnlineVariant::Online, cold)
                        .expect("schedulable")
                        .len(),
                )
            })
        });
        group.bench_function(format!("online-loop/{}-warm", config.backend.name()), |b| {
            b.iter(|| {
                black_box(
                    run_online_with(&instance, OnlineVariant::Online, config)
                        .expect("schedulable")
                        .len(),
                )
            })
        });
    }
    // The warm System-(2) sweep only exists for the basis-carrying backends
    // (the primal-dual kernel is stateless, so its warm row would re-measure
    // the cold one).  Derived from the backend list — the same rule the
    // drift gate's `engine_row_keys()` and the CI completeness list encode —
    // so a future backend records its warm row without touching this file.
    for warm in SolverConfig::all_backends()
        .filter(|config| config.backend != stretch_flow::BackendKind::PrimalDual)
    {
        let mut backend = warm.instantiate();
        let mut ws = FlowWorkspace::new();
        group.bench_function(
            format!("system2-events/{}-warm", warm.backend.name()),
            |b| {
                b.iter(|| {
                    let mut pieces = 0usize;
                    for (problem, slack) in &system2_events {
                        let plan = problem
                            .system2_allocation_with_backend(*slack, backend.as_mut(), &mut ws)
                            .expect("feasible at the captured objective");
                        pieces += plan.pieces.len();
                    }
                    black_box(pieces)
                })
            },
        );
    }
    // The incremental System-(2) sweep: one persistent solver per backend
    // (`incremental` on, the default), so every event's solve runs through
    // the solver's `System2Arena` — instance, intervals, keys and flow
    // network reused across events instead of reallocated.  Identical work and bit-identical plans
    // (pinned by the differential-oracle suite); measured against the
    // `-warm` rows above, which rebuild those buffers per event.
    for config in SolverConfig::all_backends() {
        let mut solver = ParametricDeadlineSolver::with_config(config.with_incremental(true));
        group.bench_function(
            format!("system2-events/{}-incremental", config.backend.name()),
            |b| {
                b.iter(|| {
                    let mut pieces = 0usize;
                    for (problem, slack) in &system2_events {
                        let plan = solver
                            .system2_allocation(problem, *slack)
                            .expect("feasible at the captured objective");
                        pieces += plan.pieces.len();
                    }
                    black_box(pieces)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler_overhead);
criterion_main!(benches);
