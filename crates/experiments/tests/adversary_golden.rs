//! Golden snapshots of the adversary search: the worst-found stream and
//! its achieved online-vs-offline max-stretch ratio, per min-cost backend.
//!
//! The hill-climb is seed-deterministic (a pure function of the base
//! instance, the pinned [`adversary_budget`] and the scoring callback), so
//! the worst stream it finds — every release date, work amount and
//! databank, as exact f64 bit patterns — and the blessed ratio are frozen
//! into checked-in fixtures and compared **exactly**.  Each backend owns
//! its fixture: degenerate System-(2) optima let the primal-dual backend
//! pick different allocations than the simplex, which changes the
//! online schedule the adversary is attacking and therefore the search
//! trajectory itself.
//!
//! To re-bless after an intentional change to the scheduler, the ratio
//! oracle or the adversary:
//!
//! ```text
//! STRETCH_BLESS=1 cargo test -p stretch-experiments --test adversary_golden
//! ```
//!
//! then re-check the pinned margin in `tests/theorems.rs` and re-bless the
//! trace fixture (`STRETCH_TRACE_MODE=bless cargo run --release -p
//! stretch-experiments --bin repro_trace`).

use std::fmt::Write as _;
use std::path::PathBuf;

use stretch_core::adversarial::online_offline_ratio;
use stretch_core::refstream::reference_instance;
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_experiments::adversary_budget;
use stretch_workload::{adversary, Instance};

fn fixture_path(backend_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("adversary_smoke_{backend_name}.golden"))
}

/// The base stream the adversary attacks — must match `repro_trace`.
fn base_stream() -> Instance {
    reference_instance(3, 3, 20, 3)
}

/// Runs the pinned-budget search scored under `solver` and returns
/// `(base ratio, result)`.
fn attack(solver: SolverConfig) -> (f64, adversary::AdversaryResult) {
    let base = base_stream();
    let score = |inst: &Instance| {
        online_offline_ratio(inst, OnlineVariant::Online, solver).unwrap_or(f64::NAN)
    };
    let start = score(&base);
    let result = adversary::search(&base, adversary_budget(), score);
    (start, result)
}

/// Canonical rendering: ratios and every job of the worst stream as exact
/// bit patterns (hex) alongside a readable decimal, one line per job.
fn canonicalise(start: f64, result: &adversary::AdversaryResult) -> String {
    let mut out = String::new();
    writeln!(out, "base_ratio {:016x} {:.9}", start.to_bits(), start).unwrap();
    writeln!(
        out,
        "best_ratio {:016x} {:.9}",
        result.best_score.to_bits(),
        result.best_score
    )
    .unwrap();
    writeln!(
        out,
        "evaluations {} improvements {}",
        result.evaluations, result.improvements
    )
    .unwrap();
    for job in &result.best.jobs {
        writeln!(
            out,
            "job {} release {:016x} {:.9} work {:016x} {:.9} databank {}",
            job.id,
            job.release.to_bits(),
            job.release,
            job.work.to_bits(),
            job.work,
            job.databank
        )
        .unwrap();
    }
    out
}

fn check_backend(solver: SolverConfig) {
    let (start, result) = attack(solver);
    let rendered = canonicalise(start, &result);
    let path = fixture_path(solver.backend.name());
    if std::env::var_os("STRETCH_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with STRETCH_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "adversary search results changed for backend `{}`.\n\
         If intentional, re-bless with STRETCH_BLESS=1 (and re-bless the\n\
         trace fixture + re-check tests/theorems.rs); otherwise a scheduler\n\
         or search change silently altered the attack trajectory.",
        solver.backend.name()
    );
}

#[test]
fn adversary_search_matches_the_golden_fixture_primal_dual() {
    check_backend(SolverConfig::primal_dual());
}

#[test]
fn adversary_search_matches_the_golden_fixture_simplex() {
    check_backend(SolverConfig::network_simplex());
}

#[test]
fn the_search_budget_is_pinned() {
    // Every field of the shared budget is fixture contract — this pin
    // makes any drive-by change show up as a test diff, not as silently
    // stale fixtures.  `repro_trace` delegates to the same function.
    let budget = adversary_budget();
    assert_eq!(budget.seed, 0xADC0_FFEE);
    assert_eq!(budget.rounds, 32);
    assert_eq!(budget.candidates, 6);
    assert_eq!(budget.release_jitter, 0.25);
    assert_eq!(budget.work_factor, 16.0);
}

#[test]
fn the_search_is_reproducible_within_a_process() {
    // The precondition of golden testing: identical inputs → identical
    // trajectory, bit for bit.
    let solver = SolverConfig::network_simplex();
    let (start_a, a) = attack(solver);
    let (start_b, b) = attack(solver);
    assert_eq!(canonicalise(start_a, &a), canonicalise(start_b, &b));
}
