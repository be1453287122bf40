//! Records, replays and attacks scheduler runs through the `.strt` trace
//! harness.
//!
//! Modes, selected by `STRETCH_TRACE_MODE` (malformed values abort loudly,
//! like every other `STRETCH_*` knob):
//!
//! * unset or `smoke` — record a serve run of the reference stream into a
//!   temporary trace, then replay it on both backends × warm/cold and
//!   assert every cell lands on the same state digest and bit-identical
//!   completions, including the sealed digest of the recording run itself.
//!   This is the CI trace-replay leg.
//! * `adversary` — run the seeded hill-climb adversary over the reference
//!   stream, scoring candidates by the achieved-online vs.
//!   offline-clairvoyant max-stretch ratio under the configured solver
//!   cell; prints the score trajectory and, when `STRETCH_TRACE_OUT` is
//!   set, records the worst stream found as a sealed trace there.
//! * `bless` — re-record the checked-in trace fixture
//!   (`tests/fixtures/trace_0.strt`): the adversary's worst stream under
//!   the pinned search seed, recorded through a full serve run.  Run after
//!   any change to the scheduler pipeline, trace codec or adversary, then
//!   commit the fixture together with the change.
//!
//! The solver backend comes from the usual `STRETCH_MINCOST_BACKEND`
//! variable.  The adversary budget is pinned (seed
//! and rounds are part of the fixture contract), so every mode is
//! reproducible bit for bit.

use std::path::{Path, PathBuf};

use stretch_core::adversarial::online_offline_ratio;
use stretch_core::refstream::reference_instance;
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_experiments::trace_fixture_path;
use stretch_serve::trace::{self, TraceTail};
use stretch_serve::{ServeConfig, Submission};
use stretch_workload::adversary::{self, AdversaryConfig};
use stretch_workload::Instance;

/// The pinned adversary budget: part of the fixture contract — changing
/// any field requires re-blessing `trace_0.strt` and the adversary
/// goldens.  Must stay identical to
/// `stretch_experiments::adversary_budget` (pinned by a test there).
fn adversary_budget() -> AdversaryConfig {
    stretch_experiments::adversary_budget()
}

/// The base stream the adversary attacks: the §5.3 bench instance, small
/// enough that the search runs in seconds.
fn reference_stream() -> Instance {
    reference_instance(3, 3, 20, 3)
}

/// The stream the smoke mode records: the six-job reference stream of the
/// journal tests, on the fixture platform.  Its System-(2) optima are
/// unique at every decision point, so both backends × warm/cold must
/// reproduce the recorded digest **bit for bit** — the strongest form of
/// the replay contract, pinned in CI.  (Generic streams admit degenerate
/// optima where the primal-dual backend legitimately picks a different
/// allocation; those replay bit-identically per backend, not across.)
fn smoke_stream() -> Instance {
    let platform = stretch_platform::fixtures::small_platform();
    let jobs = [
        (0.0, 300.0, 0),
        (0.0, 60.0, 1),
        (2.5, 120.0, 0),
        (4.0, 30.0, 1),
        (6.0, 90.0, 0),
        (7.5, 45.0, 1),
    ]
    .iter()
    .map(|&(release, work, databank)| stretch_workload::Job::new(0, release, work, databank))
    .collect();
    Instance::new(platform, jobs)
}

fn env_var(name: &str) -> Option<String> {
    stretch_experiments::campaign::read_env(name, None, |_, raw| Some(raw.to_string()))
}

fn submissions_of(instance: &Instance) -> Vec<Submission> {
    instance
        .jobs
        .iter()
        .map(|j| Submission::new(j.release, j.work, j.databank))
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("repro-trace-{name}-{}", std::process::id()));
    p
}

/// Records `instance` through a full serve run into `trace_path`, then
/// asserts the trace replays to the same digest and completions on every
/// backend × warm/cold cell.
fn record_and_check(instance: &Instance, trace_path: &Path) -> trace::RecordedRun {
    let journal_dir = tmp_dir("journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let config = ServeConfig::from_env();
    let run = trace::record_run(
        trace_path,
        &journal_dir,
        instance.platform.clone(),
        config,
        &submissions_of(instance),
    )
    .expect("record serve run");
    let _ = std::fs::remove_dir_all(&journal_dir);
    assert_eq!(
        run.rejected, 0,
        "reference submissions must all be accepted"
    );

    let (recorded, tail) = trace::load(trace_path).expect("load recorded trace");
    assert_eq!(tail, TraceTail::Clean, "fresh recording has a torn tail");
    assert!(recorded.is_sealed(), "fresh recording is unsealed");

    let matrix =
        trace::replay_matrix(&recorded, &instance.platform).expect("replay recorded trace");
    for (cell, outcome) in &matrix {
        println!(
            "  replay {}/{}: digest {:016x}, {} decisions{}",
            cell.backend.name(),
            if cell.warm_start { "warm" } else { "cold" },
            outcome.digest,
            outcome.decisions,
            if outcome.matches_recorded {
                " (= recorded)"
            } else {
                ""
            }
        );
    }
    let reference = &matrix[0].1;
    for (cell, outcome) in &matrix {
        assert_eq!(
            outcome.digest,
            reference.digest,
            "replay digest diverged on {}/{}",
            cell.backend.name(),
            if cell.warm_start { "warm" } else { "cold" }
        );
        let bits: Vec<u64> = outcome.completions.iter().map(|c| c.to_bits()).collect();
        let ref_bits: Vec<u64> = reference.completions.iter().map(|c| c.to_bits()).collect();
        assert_eq!(
            bits,
            ref_bits,
            "replay completions diverged on {}/{}",
            cell.backend.name(),
            if cell.warm_start { "warm" } else { "cold" }
        );
        assert!(
            outcome.matches_recorded,
            "replay on {}/{} does not reproduce the sealed digest {:016x}",
            cell.backend.name(),
            if cell.warm_start { "warm" } else { "cold" },
            run.digest
        );
    }
    run
}

fn smoke_mode() {
    let instance = smoke_stream();
    let trace_path = tmp_dir("smoke.strt");
    let run = record_and_check(&instance, &trace_path);
    let _ = std::fs::remove_file(&trace_path);
    println!(
        "repro_trace smoke: OK ({} submissions, digest {:016x}, backend {})",
        run.accepted,
        run.digest,
        SolverConfig::from_env().backend.name()
    );
}

/// The adversary search every adversarial mode runs: hill-climb from the
/// reference stream, scored by the online-vs-offline max-stretch ratio
/// under `solver`.
fn attack(solver: SolverConfig) -> (adversary::AdversaryResult, f64) {
    let base = reference_stream();
    let score = |inst: &Instance| {
        online_offline_ratio(inst, OnlineVariant::Online, solver).unwrap_or(f64::NAN)
    };
    let start = score(&base);
    let result = adversary::search(&base, adversary_budget(), score);
    (result, start)
}

fn adversary_mode() {
    let solver = SolverConfig::from_env();
    let (result, start) = attack(solver);
    println!(
        "repro_trace adversary: base ratio {start:.6} -> worst {:.6} \
         ({} evaluations, {} improving rounds, backend {})",
        result.best_score,
        result.evaluations,
        result.improvements,
        solver.backend.name()
    );
    assert!(
        result.best_score >= start,
        "search lost ground: {} < {start}",
        result.best_score
    );
    if let Some(out) = env_var("STRETCH_TRACE_OUT").map(PathBuf::from) {
        let trace_path = out;
        let journal_dir = tmp_dir("adversary-journal");
        let _ = std::fs::remove_dir_all(&journal_dir);
        let run = trace::record_run(
            &trace_path,
            &journal_dir,
            result.best.platform.clone(),
            ServeConfig::from_env(),
            &submissions_of(&result.best),
        )
        .expect("record adversarial trace");
        let _ = std::fs::remove_dir_all(&journal_dir);
        println!(
            "repro_trace adversary: worst stream recorded to {} (digest {:016x})",
            trace_path.display(),
            run.digest
        );
    }
}

fn bless_mode() {
    // The fixture pins the *simplex* cell so blessing is independent of the
    // caller's environment matrix.
    let solver = SolverConfig::network_simplex();
    let (result, start) = attack(solver);
    let fixture = trace_fixture_path(0);
    let journal_dir = tmp_dir("bless-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut config = ServeConfig::from_env();
    config.solver = solver;
    let run = trace::record_run(
        &fixture,
        &journal_dir,
        result.best.platform.clone(),
        config,
        &submissions_of(&result.best),
    )
    .expect("record fixture trace");
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!(
        "repro_trace bless: {} rewritten ({} submissions, digest {:016x}, \
         ratio {start:.6} -> {:.6})",
        fixture.display(),
        run.accepted,
        run.digest,
        result.best_score
    );
}

fn main() {
    match env_var("STRETCH_TRACE_MODE").as_deref() {
        None | Some("smoke") => smoke_mode(),
        Some("adversary") => adversary_mode(),
        Some("bless") => bless_mode(),
        Some(other) => {
            panic!("STRETCH_TRACE_MODE must be smoke, adversary or bless, got `{other}`")
        }
    }
}
