//! The CI perf-drift gate (`STRETCH_DRIFT_CHECK=1` mode of `repro_overhead`).
//!
//! `BENCH_baseline.json` records the engine's perf trajectory, but until now
//! nothing *enforced* it: a PR could regress a solver by an order of
//! magnitude and CI would stay green as long as the results were right.
//! This module re-measures every `engine/system2-events/*` and
//! `engine/online-loop/*` row on the same 3-cluster reference workload the
//! benches use and fails when any row is more than [`DRIFT_FACTOR`]× slower
//! than its recorded baseline entry.
//!
//! The bound is deliberately generous: CI runners are noisy, shared and
//! throttled, so a tight bound would flake — but an accidental
//! O(n²)-in-the-wrong-place regression shows up as 10×+ at this size, and
//! 3× catches it with a wide margin on both sides.  The re-measurement uses
//! the same minimum-estimator the vendored Criterion harness uses
//! (interference only ever adds time), which is what makes a small sample
//! count usable on shared runners.  One assumption is deliberate: the gate
//! compares *absolute* times, so the baseline should be re-recorded when
//! the CI runner class changes materially — a runner 3× slower than the
//! recording machine reads as drift (loud, actionable), while a faster one
//! merely widens the effective bound.
//!
//! [`ENGINE_ROWS`] is the one table of engine rows: each row's key, the
//! solver configuration it runs and the body it times.  The gate and the
//! `engine` group of `crates/bench/benches/scheduler_overhead.rs` both
//! iterate it over the same [`EngineWorkload`] (the reference instance and
//! its captured per-event System-(2) problems, both from
//! `stretch_core::refstream`), so the ratios compare like with like and a
//! row is written once.

use std::hint::black_box;
use std::time::Instant;
use stretch_core::deadline::DeadlineProblem;
use stretch_core::online::run_online_with;
use stretch_core::refstream::{capture_system2_events, reference_instance};
use stretch_core::{OnlineVariant, ParametricDeadlineSolver, SolverConfig};
use stretch_flow::FlowWorkspace;
use stretch_workload::Instance;
use EngineBody::{OnlineLoop, System2Incremental, System2Sweep};

/// Failure threshold: a row this many times slower than its baseline fails
/// the gate.
pub const DRIFT_FACTOR: f64 = 3.0;

/// Timed samples per row (minimum estimator, plus one warm-up run).
pub const DRIFT_SAMPLES: usize = 10;

/// One re-measured engine row.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// `BENCH_baseline.json` key.
    pub key: String,
    /// Recorded baseline, seconds.
    pub baseline: f64,
    /// Re-measured minimum, seconds.
    pub measured: f64,
}

impl DriftRow {
    /// Measured-over-baseline slowdown.
    pub fn ratio(&self) -> f64 {
        self.measured / self.baseline.max(1e-300)
    }

    /// `true` when the row is within the drift bound.
    pub fn ok(&self, factor: f64) -> bool {
        self.measured <= factor * self.baseline
    }
}

/// Result of one drift check.
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// One row per engine row, in [`ENGINE_ROWS`] order.
    pub rows: Vec<DriftRow>,
    /// The threshold the check ran with.
    pub factor: f64,
}

impl DriftReport {
    /// Rows exceeding the bound.
    pub fn violations(&self) -> Vec<&DriftRow> {
        self.rows.iter().filter(|r| !r.ok(self.factor)).collect()
    }

    /// Aligned plain-text rendering for the binary's stdout.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Perf-drift gate (fail when measured > {:.1}x baseline)\n{:<42} {:>12} {:>12} {:>8}\n",
            self.factor, "engine row", "baseline s", "measured s", "ratio"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<42} {:>12.6} {:>12.6} {:>7.2}x{}\n",
                r.key,
                r.baseline,
                r.measured,
                r.ratio(),
                if r.ok(self.factor) { "" } else { "  << DRIFT" }
            ));
        }
        out
    }
}

/// The Criterion group every engine row is recorded under.
pub const ENGINE_GROUP: &str = "engine";

/// What one engine row times per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EngineBody {
    /// Every captured System-(2) event, solved in order on one backend
    /// instance that lives across iterations.
    System2Sweep,
    /// Every captured System-(2) event, solved in order through one
    /// persistent [`ParametricDeadlineSolver`], which refills its
    /// System-(2) arena in place.
    System2Incremental,
    /// The full on-line loop over the reference instance.
    OnlineLoop,
}

/// One engine row: where it is recorded, what it runs and what it times.
#[derive(Clone, Copy, Debug)]
pub struct EngineRow {
    /// Benchmark id within [`ENGINE_GROUP`].
    pub id: &'static str,
    /// The solver configuration the row runs.
    config: SolverConfig,
    /// What the row times.
    body: EngineBody,
}

const fn row(id: &'static str, config: SolverConfig, body: EngineBody) -> EngineRow {
    EngineRow { id, config, body }
}

const PRIMAL_DUAL: SolverConfig = SolverConfig::primal_dual();
const COLD_PRIMAL_DUAL: SolverConfig = PRIMAL_DUAL.with_warm_start(false);
const SIMPLEX: SolverConfig = SolverConfig::network_simplex();
const COLD_SIMPLEX: SolverConfig = SIMPLEX.with_warm_start(false);

/// The engine rows the `scheduler_overhead` bench records and the gate
/// re-measures: per backend a cold System-(2) sweep, an incremental sweep
/// (warm start and persistent memory on) and a cold on-line loop, plus a
/// warm System-(2) sweep and a warm on-line loop for the simplex.  The
/// primal-dual kernel is stateless and the feasibility probes carry
/// nothing across events, so its warm rows would re-measure the cold ones.
#[rustfmt::skip]
pub const ENGINE_ROWS: [EngineRow; 8] = [
    row("system2-events/primal-dual",             COLD_PRIMAL_DUAL, System2Sweep),
    row("system2-events/primal-dual-incremental", PRIMAL_DUAL,      System2Incremental),
    row("online-loop/primal-dual",                COLD_PRIMAL_DUAL, OnlineLoop),
    row("system2-events/simplex",                 COLD_SIMPLEX,     System2Sweep),
    row("system2-events/simplex-warm",            SIMPLEX,          System2Sweep),
    row("system2-events/simplex-incremental",     SIMPLEX,          System2Incremental),
    row("online-loop/simplex",                    COLD_SIMPLEX,     OnlineLoop),
    row("online-loop/simplex-warm",               SIMPLEX,          OnlineLoop),
];

/// The reference workload every engine row runs on.
pub struct EngineWorkload {
    /// The 3-cluster reference instance the on-line loop schedules.
    instance: Instance,
    /// Its captured per-event System-(2) problems with their slackened
    /// objectives, the work the System-(2) sweeps solve.
    events: Vec<(DeadlineProblem, f64)>,
}

impl EngineWorkload {
    /// The reference instance (`reference_instance(3, 3, 20, 3)`) and its
    /// captured event stream.
    pub fn reference() -> Self {
        let instance = reference_instance(3, 3, 20, 3);
        let events = capture_system2_events(&instance);
        assert!(!events.is_empty());
        EngineWorkload { instance, events }
    }
}

impl EngineRow {
    /// The `BENCH_baseline.json` key: `engine/<id>`.
    pub fn key(&self) -> String {
        format!("{ENGINE_GROUP}/{}", self.id)
    }

    /// The row's timed body on `workload`: each call runs the row's work
    /// once and returns the number of allocation pieces or completions it
    /// produced.  State a row keeps across iterations (the sweep's backend,
    /// the incremental solver) is created here, once.
    pub fn timed_body<'a>(&self, workload: &'a EngineWorkload) -> Box<dyn FnMut() -> usize + 'a> {
        let config = self.config;
        let events = &workload.events;
        match self.body {
            System2Sweep => {
                let mut backend = config.instantiate();
                let mut ws = FlowWorkspace::new();
                Box::new(move || {
                    events
                        .iter()
                        .map(|(problem, slack)| {
                            problem
                                .system2_allocation_with_backend(*slack, backend.as_mut(), &mut ws)
                                .expect("feasible at the captured objective")
                                .pieces
                                .len()
                        })
                        .sum()
                })
            }
            System2Incremental => {
                let mut solver = ParametricDeadlineSolver::with_config(config);
                Box::new(move || {
                    events
                        .iter()
                        .map(|(problem, slack)| {
                            solver
                                .system2_allocation(problem, *slack)
                                .expect("feasible at the captured objective")
                                .pieces
                                .len()
                        })
                        .sum()
                })
            }
            OnlineLoop => Box::new(move || {
                run_online_with(&workload.instance, OnlineVariant::Online, config)
                    .expect("schedulable")
                    .len()
            }),
        }
    }
}

/// Minimum wall-clock over `samples` runs of `f`, after one warm-up run.
fn min_time(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Runs the gate: re-measures every engine row and compares against the
/// baseline file.  `Err` means the gate could not run at all (missing file
/// or missing baseline entry); a successful run may still report
/// violations ([`DriftReport::violations`]).
pub fn run_drift_check(
    baseline_path: &std::path::Path,
    samples: usize,
) -> Result<DriftReport, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let baseline = crate::baseline::parse(&text);
    let recorded = ENGINE_ROWS
        .iter()
        .map(|row| {
            let key = row.key();
            baseline
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| (key.clone(), v))
                .ok_or_else(|| format!("{} has no entry for `{key}`", baseline_path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let workload = EngineWorkload::reference();
    let rows = ENGINE_ROWS
        .iter()
        .zip(recorded)
        .map(|(row, (key, baseline))| {
            let mut body = row.timed_body(&workload);
            let measured = min_time(samples, || {
                black_box(body());
            });
            DriftRow {
                key,
                baseline,
                measured,
            }
        })
        .collect();
    Ok(DriftReport {
        rows,
        factor: DRIFT_FACTOR,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory named per process, so concurrent test
    /// runs (say, with and without `invariant-audit`) never share a
    /// baseline file.
    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn engine_row_keys_cover_every_backend_and_warm_tier() {
        let keys: Vec<String> = ENGINE_ROWS.iter().map(EngineRow::key).collect();
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(
            unique.len(),
            keys.len(),
            "duplicate engine-row keys: {keys:?}"
        );
        let has = |body, config| {
            ENGINE_ROWS
                .iter()
                .any(|r| r.body == body && r.config == config)
        };
        for warm in SolverConfig::all_backends() {
            let cold = warm.with_warm_start(false);
            assert!(has(System2Sweep, cold), "{warm:?}: cold sweep");
            assert!(has(System2Incremental, warm), "{warm:?}: incremental sweep");
            assert!(has(OnlineLoop, cold), "{warm:?}: cold on-line loop");
        }
        for body in [System2Sweep, OnlineLoop] {
            assert!(has(body, SIMPLEX), "the simplex has a warm {body:?} row");
            assert!(
                !has(body, PRIMAL_DUAL),
                "the stateless kernel has no warm {body:?} row"
            );
        }
        // Each key spells its row: the backend's name, `-incremental` on
        // the incremental sweeps, `-warm` on every other warm row.
        for row in &ENGINE_ROWS {
            let incremental = row.body == System2Incremental;
            assert!(row.id.contains(row.config.backend.name()), "{row:?}");
            assert_eq!(row.id.ends_with("-incremental"), incremental, "{row:?}");
            assert_eq!(
                row.id.ends_with("-warm"),
                row.config.warm_start && !incremental,
                "{row:?}"
            );
            assert!(row.config.incremental, "{row:?}");
        }
    }

    #[test]
    fn drift_rows_flag_slowdowns_beyond_the_factor() {
        let fast = DriftRow {
            key: "engine/x/y".into(),
            baseline: 1e-3,
            measured: 2.5e-3,
        };
        let slow = DriftRow {
            key: "engine/x/z".into(),
            baseline: 1e-3,
            measured: 3.5e-3,
        };
        assert!(fast.ok(DRIFT_FACTOR));
        assert!(!slow.ok(DRIFT_FACTOR));
        let report = DriftReport {
            rows: vec![fast, slow],
            factor: DRIFT_FACTOR,
        };
        assert_eq!(report.violations().len(), 1);
        assert!(report.render().contains("<< DRIFT"));
    }

    #[test]
    fn drift_check_runs_end_to_end_against_a_synthetic_baseline() {
        // A generous synthetic baseline (1000 s per row) must pass; the
        // same measurements against a 1 ns baseline must all violate.  This
        // exercises the full measurement path (capture, sweeps, loops)
        // without depending on the absolute speed of the test machine.
        let dir = tmp("stretch_drift_check_test");
        let path = dir.join("BENCH_baseline.json");
        let baseline = |seconds: f64| {
            let rows: Vec<(String, f64)> = ENGINE_ROWS.iter().map(|r| (r.key(), seconds)).collect();
            crate::baseline::render(&rows)
        };
        std::fs::write(&path, baseline(1e3)).unwrap();
        let report = run_drift_check(&path, 1).expect("baseline is complete");
        assert_eq!(report.rows.len(), ENGINE_ROWS.len());
        assert!(report.violations().is_empty(), "{}", report.render());

        std::fs::write(&path, baseline(1e-9)).unwrap();
        let report = run_drift_check(&path, 1).expect("baseline is complete");
        assert_eq!(report.violations().len(), report.rows.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_baseline_entries_error_out() {
        let dir = tmp("stretch_drift_missing_test");
        let path = dir.join("BENCH_baseline.json");
        std::fs::write(&path, "{\n}\n").unwrap();
        let err = run_drift_check(&path, 1).expect_err("empty baseline must fail");
        assert!(err.contains("engine/system2-events/"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
