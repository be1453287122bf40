//! Golden snapshots of the §5 reference-workload aggregates.
//!
//! The Table-1 statistics (max-stretch and sum-stretch degradation per
//! heuristic) on the deterministic smoke campaign are frozen into
//! checked-in fixtures, one per min-cost backend (`primal-dual` and
//! `simplex` — blessing writes both), and compared **exactly**:
//! the instance generator is seed-deterministic, the vendored `rayon` pool
//! collects results at their input index (byte-identical whatever the
//! thread count), and every scheduler is deterministic, so any diff means a
//! solver change altered observable results.  Degenerate min-cost optima
//! are real (several allocations share the optimal cost), which is why each
//! backend owns its fixture — a swap can change which optimum is picked,
//! but it must never change it *silently*.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! STRETCH_BLESS=1 cargo test -p stretch-experiments --test table1_golden
//! ```

use std::path::PathBuf;
use stretch_core::SolverConfig;
use stretch_experiments::campaign::{run_campaign, CampaignSettings};
use stretch_experiments::config::reduced_grid;
use stretch_experiments::tables::table1;
use stretch_metrics::MetricsTable;

fn fixture_path(backend_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("table1_smoke_{backend_name}.golden"))
}

/// Canonical, diff-friendly rendering: one line per heuristic with all six
/// statistics at fixed precision (enough digits that any behavioural change
/// shows, few enough that the file stays readable).
fn canonicalise(table: &MetricsTable) -> String {
    let mut out = String::new();
    for row in &table.rows {
        let fmt = |s: &Option<stretch_metrics::AggregateStats>| match s {
            Some(s) => format!("{:.9} {:.9} {:.9} n={}", s.mean, s.sd, s.max, s.count),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{} | max: {} | sum: {}\n",
            row.name,
            fmt(&row.max_stretch),
            fmt(&row.sum_stretch)
        ));
    }
    out
}

fn render(config: SolverConfig) -> String {
    let settings = CampaignSettings::smoke().with_solver(config);
    let result = run_campaign(&reduced_grid(), settings);
    canonicalise(&table1(&result.observations))
}

/// Compares `config` — and the same backend cold and without persistent
/// per-event memory, which must give the same bytes — with the backend's
/// fixture.  Blessing writes the default configuration's rendering only.
fn check_backend(config: SolverConfig) {
    let path = fixture_path(config.backend.name());
    if std::env::var_os("STRETCH_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(config)).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with STRETCH_BLESS=1 to create it",
            path.display()
        )
    });
    let cold_rebuild = config.with_warm_start(false).with_incremental(false);
    for cell in [config, cold_rebuild] {
        assert_eq!(
            render(cell),
            expected,
            "Table-1 smoke aggregates changed for backend `{}` (warm_start={}, \
             incremental={}).\n\
             If intentional, re-bless with STRETCH_BLESS=1; otherwise a solver\n\
             change silently altered scheduling results.",
            config.backend.name(),
            cell.warm_start,
            cell.incremental
        );
    }
}

#[test]
fn table1_smoke_aggregates_match_the_golden_fixture_primal_dual() {
    check_backend(SolverConfig::primal_dual());
}

#[test]
fn table1_smoke_aggregates_match_the_golden_fixture_simplex() {
    check_backend(SolverConfig::network_simplex());
}

#[test]
fn campaigns_are_reproducible_within_a_process() {
    // The precondition of golden testing: identical settings → identical
    // observations, bit for bit.
    let settings = CampaignSettings::smoke();
    let a = run_campaign(&reduced_grid(), settings);
    let b = run_campaign(&reduced_grid(), settings);
    let render =
        |r: &stretch_experiments::campaign::CampaignResult| canonicalise(&table1(&r.observations));
    assert_eq!(render(&a), render(&b));
}
