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
//! The measured rows mirror `crates/bench/benches/scheduler_overhead.rs`
//! exactly — same reference workload and captured per-event System-(2)
//! instances (both come from `stretch_core::refstream`, the single
//! implementation), same cold/warm tiers — so the ratios compare like with
//! like.  [`engine_row_keys`] is the single source of truth for which rows
//! exist; the `ci_matrix` test cross-checks it against the CI
//! baseline-completeness list so the two can never drift apart.

use std::time::Instant;
use stretch_core::online::run_online_with;
use stretch_core::refstream::{capture_system2_events, reference_instance};
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_flow::{BackendKind, FlowWorkspace};

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
    /// One row per engine key, in [`engine_row_keys`] order.
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

/// The engine rows the gate re-measures — the exact key set the
/// `scheduler_overhead` bench records and the CI baseline-completeness step
/// requires: per backend a cold System-(2) sweep, an incremental System-(2)
/// sweep (one solver refilling its System-(2) arena in place) and a
/// cold + warm on-line loop, plus warm System-(2) sweeps for the
/// basis-carrying backends (the primal-dual kernel is stateless, so its
/// warm sweep would re-measure the cold one).
pub fn engine_row_keys() -> Vec<String> {
    let mut keys = Vec::new();
    for kind in BackendKind::ALL {
        keys.push(format!("engine/system2-events/{}", kind.name()));
        if kind != BackendKind::PrimalDual {
            keys.push(format!("engine/system2-events/{}-warm", kind.name()));
        }
        keys.push(format!("engine/system2-events/{}-incremental", kind.name()));
        keys.push(format!("engine/online-loop/{}", kind.name()));
        keys.push(format!("engine/online-loop/{}-warm", kind.name()));
    }
    keys
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
/// or missing baseline entry — the CI baseline-completeness step should
/// have caught the latter first); a successful run may still report
/// violations ([`DriftReport::violations`]).
pub fn run_drift_check(
    baseline_path: &std::path::Path,
    samples: usize,
) -> Result<DriftReport, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
    let baseline = crate::baseline::parse(&text);
    let baseline_of = |key: &str| {
        baseline
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("{} has no entry for `{key}`", baseline_path.display()))
    };

    let instance = reference_instance(3, 3, 20, 3);
    let events = capture_system2_events(&instance);
    assert!(!events.is_empty());

    let sweep = |config: SolverConfig| {
        let mut backend = config.instantiate();
        let mut ws = FlowWorkspace::new();
        min_time(samples, || {
            for (problem, slack) in &events {
                problem
                    .system2_allocation_with_backend(*slack, backend.as_mut(), &mut ws)
                    .expect("feasible at the captured objective");
            }
        })
    };
    // The incremental sweep routes through one persistent solver so the
    // System-(2) arena (instance, intervals, keys, flow network) is reused
    // across events — mirroring the bench's `-incremental` rows exactly,
    // which run with warm start on (the `all_backends` default).
    let incremental_sweep = |config: SolverConfig| {
        let mut solver = stretch_core::ParametricDeadlineSolver::with_config(
            config.with_warm_start(true).with_incremental(true),
        );
        min_time(samples, || {
            for (problem, slack) in &events {
                solver
                    .system2_allocation(problem, *slack)
                    .expect("feasible at the captured objective");
            }
        })
    };
    let online = |config: SolverConfig| {
        min_time(samples, || {
            run_online_with(&instance, OnlineVariant::Online, config).expect("schedulable");
        })
    };

    let mut rows = Vec::new();
    for key in engine_row_keys() {
        let tail = key
            .strip_prefix("engine/")
            .expect("engine_row_keys emits engine rows");
        let (group, mut backend_name) = tail.split_once('/').expect("group/backend keys");
        let warm = backend_name.ends_with("-warm");
        if warm {
            backend_name = &backend_name[..backend_name.len() - "-warm".len()];
        }
        let incremental = backend_name.ends_with("-incremental");
        if incremental {
            backend_name = &backend_name[..backend_name.len() - "-incremental".len()];
        }
        let config = SolverConfig::parse_backend(backend_name).with_warm_start(warm);
        let measured = match (group, incremental) {
            ("system2-events", false) => sweep(config),
            ("system2-events", true) => incremental_sweep(config),
            ("online-loop", false) => online(config),
            (other, inc) => unreachable!("unknown engine group `{other}` (incremental={inc})"),
        };
        rows.push(DriftRow {
            key: key.clone(),
            baseline: baseline_of(&key)?,
            measured,
        });
    }
    Ok(DriftReport {
        rows,
        factor: DRIFT_FACTOR,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_row_keys_cover_every_backend_and_warm_tier() {
        let keys = engine_row_keys();
        for kind in BackendKind::ALL {
            assert!(keys.contains(&format!("engine/system2-events/{}", kind.name())));
            assert!(keys.contains(&format!(
                "engine/system2-events/{}-incremental",
                kind.name()
            )));
            assert!(keys.contains(&format!("engine/online-loop/{}", kind.name())));
            assert!(keys.contains(&format!("engine/online-loop/{}-warm", kind.name())));
        }
        assert!(keys.contains(&"engine/system2-events/simplex-warm".to_string()));
        assert!(
            !keys.contains(&"engine/system2-events/primal-dual-warm".to_string()),
            "the stateless kernel has no warm sweep row"
        );
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
        let dir = std::env::temp_dir().join("stretch_drift_check_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_baseline.json");
        let generous: Vec<(String, f64)> =
            engine_row_keys().into_iter().map(|k| (k, 1e3)).collect();
        std::fs::write(&path, crate::baseline::render(&generous)).unwrap();
        let report = run_drift_check(&path, 1).expect("baseline is complete");
        assert_eq!(report.rows.len(), engine_row_keys().len());
        assert!(report.violations().is_empty(), "{}", report.render());

        let stingy: Vec<(String, f64)> = engine_row_keys().into_iter().map(|k| (k, 1e-9)).collect();
        std::fs::write(&path, crate::baseline::render(&stingy)).unwrap();
        let report = run_drift_check(&path, 1).expect("baseline is complete");
        assert_eq!(report.violations().len(), report.rows.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_baseline_entries_error_out() {
        let dir = std::env::temp_dir().join("stretch_drift_missing_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_baseline.json");
        std::fs::write(&path, "{\n}\n").unwrap();
        let err = run_drift_check(&path, 1).expect_err("empty baseline must fail");
        assert!(err.contains("engine/system2-events/"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
