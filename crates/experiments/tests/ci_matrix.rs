//! CI-coverage pins: the legs of `.github/workflows/ci.yml` that guard a
//! contract cannot be dropped silently.
//!
//! The workflow is YAML, which nothing type-checks, so these tests read it
//! and require each guarded job and the commands of its steps.  The last
//! test checks the recorded perf trajectory itself: `BENCH_baseline.json`
//! must carry every row of `stretch_experiments::ENGINE_ROWS`, the table
//! the bench records and the perf-drift gate re-measures.

use stretch_experiments::ENGINE_ROWS;

fn ci_yml() -> String {
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn test_step_runs_every_target() {
    // `cargo test` stops at the first failing test target, so one failure
    // would hide the verdict of every target after it.
    let yml = ci_yml();
    assert!(
        yml.contains("run: cargo test -q --no-fail-fast\n"),
        "ci.yml build-and-test `Test` step must run `cargo test -q --no-fail-fast`"
    );
}

#[test]
fn build_and_test_gates_are_pinned() {
    // The gates of the one build cell besides the test step: lints with
    // warnings denied, formatting, warning-free rustdoc, and the
    // paper-scale streaming smoke.  Dropping any of them would let lint,
    // format or doc debt, or a broken paper preset, land with CI green.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  build-and-test:"),
        "ci.yml lost the `build-and-test` job"
    );
    for needle in [
        "run: cargo clippy --all-targets -- -D warnings\n",
        "run: cargo fmt --check\n",
        "run: RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps\n",
        "STRETCH_INSTANCES=1 STRETCH_WINDOW=30 STRETCH_PAPER_CONFIGS=2\n          \
         cargo run --release -p stretch-experiments --bin repro_paper",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml build-and-test job is missing the `{needle}` step"
        );
    }
}

#[test]
fn thread_matrix_leg_is_pinned() {
    // Campaign determinism across pool widths: the experiments suite (its
    // golden fixtures included) and the scale smoke under one worker and
    // under four.  Without the matrix, or the env line that feeds it to
    // the pool, a width-dependent result would only show on hosts of
    // another core count.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  thread-matrix:"),
        "ci.yml lost the `thread-matrix` job"
    );
    for needle in [
        "threads: [1, 4]\n",
        "STRETCH_THREADS: ${{ matrix.threads }}\n",
        "run: cargo test -q -p stretch-experiments -p rayon\n",
        "STRETCH_SCALE_SMOKE=1\n          \
         cargo run --release -p stretch-experiments --bin repro_scale",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml thread-matrix job is missing the `{needle}` step"
        );
    }
}

#[test]
fn serve_smoke_leg_is_pinned() {
    // The crash-safety leg: reference stream through `stretch-serve`,
    // SIGKILL mid-stream, journal-replay recovery, diff against the
    // uninterrupted run — plus the rotation-under-load pass, which seals
    // segments, publishes snapshots and recovers suffix-only with a small
    // segment threshold.  Dropping the job (or any of its steps) would
    // silently un-test the serve layer's recovery contract, so the job
    // name and each command/knob are pinned here.
    let yml = ci_yml();
    assert!(
        yml.contains("serve-smoke:"),
        "ci.yml lost the `serve-smoke` job"
    );
    for needle in [
        "--bin repro_serve",
        "--test serve_recover",
        "cargo test -q -p stretch-serve",
        "STRETCH_SERVE_SEGMENT_RECORDS=4",
        "for mode in rotate compact",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml serve-smoke job is missing the `{needle}` step"
        );
    }
}

#[test]
fn analyze_leg_is_pinned() {
    // The determinism-contract lint: `stretch-analyze -- check` over the
    // workspace sources with the JSON gate, plus the analyzer's own
    // fixture and allowlist-drift tests.  Dropping the job would let the
    // contract (float ordering, hash collections, env reads, wall clocks,
    // ingest panics) rot unenforced, so the job and both steps are pinned.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  analyze:"),
        "ci.yml lost the `analyze` job"
    );
    for needle in [
        "cargo run --release -p stretch-analyze -- check --json",
        "cargo test -q -p stretch-analyze",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml analyze job is missing the `{needle}` step"
        );
    }
}

#[test]
fn invariant_audit_leg_is_pinned() {
    // The runtime-audit leg: tier-1 suite plus the kill-and-recover smoke
    // with the `invariant-audit` feature armed, and clippy over the same
    // build.  Without this job the audit layer would compile (cfg'd out)
    // but never actually run, nor be linted, in CI.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  invariant-audit:"),
        "ci.yml lost the `invariant-audit` job"
    );
    for needle in [
        "cargo test -q --features invariant-audit",
        "--features invariant-audit --test serve_recover",
        "cargo clippy --all-targets --features invariant-audit -- -D warnings",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml invariant-audit job is missing the `{needle}` step"
        );
    }
}

#[test]
fn trace_replay_leg_is_pinned() {
    // The recorded-trace leg: `.strt` format suite (exhaustive corruption
    // sweep, version fencing), record-and-replay smoke across the full
    // backend × warm matrix, and the cross-backend replay contract tests.
    // Dropping any step would silently un-test the trace codec or the
    // replay determinism contract.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  trace-replay:"),
        "ci.yml lost the `trace-replay` job"
    );
    for needle in [
        "cargo test -q -p stretch-serve --test trace_format",
        "--bin repro_trace",
        "cargo test -q -p stretch-serve --test serve_replay",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml trace-replay job is missing the `{needle}` step"
        );
    }
}

#[test]
fn adversary_regression_leg_is_pinned() {
    // The adversary leg: per-backend golden fixtures of the worst-found
    // streams, the pinned theorems margin over the trivial ratio bound,
    // and the end-to-end search smoke (which also records the worst
    // stream as a sealed trace).  Without this job the adversary could
    // lose its teeth — or the scheduler could get quietly easier to
    // attack — with no CI signal.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  adversary-regression:"),
        "ci.yml lost the `adversary-regression` job"
    );
    for needle in [
        "cargo test -q -p stretch-experiments --test adversary_golden",
        "cargo test -q -p stretch-experiments --test theorems",
        "STRETCH_TRACE_MODE=adversary",
        "STRETCH_TRACE_OUT=",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml adversary-regression job is missing the `{needle}` step"
        );
    }
}

#[test]
fn benchmark_self_test_is_pinned() {
    // The benchmark of record is a separate Cargo workspace linking the
    // solver crates by path, so no other step builds it.  Without this
    // step, a solver API change that breaks the benchmark would only show
    // when the benchmark is next run, not in the change that broke it.
    let yml = ci_yml();
    assert!(
        yml.contains("run: cargo test --manifest-path perfbench/Cargo.toml\n"),
        "ci.yml lost the benchmark self-test step \
         (`cargo test --manifest-path perfbench/Cargo.toml`)"
    );
}

#[test]
fn bench_smoke_and_drift_gate_are_pinned() {
    // The bench smoke runs every bench target of `stretch-bench` once
    // without timing, in one command, so a new bench target cannot slip
    // past it; the perf-drift gate re-measures every engine row against
    // `BENCH_baseline.json`.  Dropping either step would let a bench rot
    // or an engine regress by an order of magnitude with CI green.
    let yml = ci_yml();
    assert!(
        yml.contains("\n  bench-smoke:"),
        "ci.yml lost the `bench-smoke` job"
    );
    for needle in [
        "run: cargo bench -p stretch-bench -- --test\n",
        "STRETCH_DRIFT_CHECK=1\n          cargo run --release -p stretch-experiments --bin repro_overhead",
    ] {
        assert!(
            yml.contains(needle),
            "ci.yml bench-smoke job is missing the `{needle}` step"
        );
    }
}

#[test]
fn recorded_baseline_carries_every_engine_row() {
    // The checked-in trajectory must already have every engine row, so a
    // missing re-record fails here, before the drift gate runs.
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let entries = stretch_experiments::baseline::parse(&text);
    for key in ENGINE_ROWS.iter().map(|row| row.key()) {
        assert!(
            entries.iter().any(|(k, _)| *k == key),
            "BENCH_baseline.json is missing \"{key}\"; re-record with \
             `cargo bench -p stretch-bench --bench scheduler_overhead`"
        );
    }
}
