//! The scenario-family study: the reduced platform grid crossed with every
//! workload family (steady, bursty arrivals, heavy-tailed request sizes,
//! skewed databank popularity), one Table-1-style table per family.
//!
//! ```text
//! cargo run --release -p stretch-experiments --bin repro_scenarios
//! STRETCH_INSTANCES=20 STRETCH_JOBS=60 \
//!     cargo run --release -p stretch-experiments --bin repro_scenarios
//! ```
//!
//! Every family carries the **same expected load** as the steady scenario
//! (the generator preserves expected job count and total work), so ranking
//! differences between tables are attributable to flow shape, not load.

use stretch_experiments::tables::build_table;
use stretch_experiments::{run_campaign, scenario_families, scenario_grid, CampaignSettings};

fn main() {
    let settings = CampaignSettings::from_env();
    let grid = scenario_grid();
    eprintln!(
        "Scenario campaign: {} configurations ({} families) x {} instances, ~{} jobs each",
        grid.len(),
        scenario_families().len(),
        settings.instances_per_config,
        settings.target_jobs
    );
    let start = std::time::Instant::now();
    let result = run_campaign(&grid, settings);
    let elapsed = start.elapsed().as_secs_f64();

    for family in scenario_families() {
        let table = build_table(
            &format!("Scenario `{}`: degradation statistics", family.label()),
            &result.filtered(|c| c.scenario == family),
        );
        println!("{table}");
    }
    let jobs: usize = result.observations.iter().map(|o| o.num_jobs).sum();
    println!(
        "{} instances, {jobs} jobs, {:.1} jobs/sec",
        result.len(),
        jobs as f64 / elapsed.max(1e-12),
    );
}
