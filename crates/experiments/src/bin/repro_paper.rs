//! The paper-scale §5 campaign: 200 instances per configuration, fixed
//! 15-minute arrival windows, every observation retained (14.5 MB at the
//! full 162 × 200 grid).
//!
//! ```text
//! # The real thing (hours of CPU; fans out over STRETCH_THREADS workers):
//! cargo run --release -p stretch-experiments --bin repro_paper
//!
//! # The CI smoke leg: 1 instance per configuration, 30-second windows,
//! # first 2 grid configurations only:
//! STRETCH_INSTANCES=1 STRETCH_WINDOW=30 STRETCH_PAPER_CONFIGS=2 \
//!     cargo run --release -p stretch-experiments --bin repro_paper
//! ```
//!
//! `STRETCH_PAPER_CONFIGS` truncates the grid (strictly parsed, like every
//! other knob); everything else comes from `CampaignSettings::paper_from_env`.
//! The summary line reports the nearest-rank p50/p99 of the per-instance
//! job counts.

use stretch_experiments::campaign::{parse_positive_count, read_env};
use stretch_experiments::tables::build_table;
use stretch_experiments::{full_grid, run_campaign, table1, CampaignSettings};
use stretch_platform::reference;

fn main() {
    let settings = CampaignSettings::paper_from_env();
    let mut grid = full_grid();
    if let Some(n) = read_env("STRETCH_PAPER_CONFIGS", None, |name, raw| {
        Some(parse_positive_count(name, raw))
    }) {
        grid.truncate(n);
    }
    eprintln!(
        "Paper-scale campaign: {} configurations x {} instances, {}s windows, {} threads",
        grid.len(),
        settings.instances_per_config,
        settings.window_secs.unwrap_or(0.0),
        rayon::current_num_threads(),
    );

    let start = std::time::Instant::now();
    let result = run_campaign(&grid, settings);
    let elapsed = start.elapsed().as_secs_f64();

    println!("{}", table1(&result.observations));
    for &sites in &reference::PLATFORM_SIZES {
        let table = build_table(
            &format!("Paper-scale partition: configurations using {sites} sites"),
            &result.filtered(|c| c.sites == sites),
        );
        if table.rows.iter().any(|r| r.max_stretch.is_some()) {
            println!("{table}");
        }
    }

    let jobs: usize = result.observations.iter().map(|o| o.num_jobs).sum();
    println!(
        "{} instances, {jobs} jobs total (p50 {} / p99 {} per instance), \
         {elapsed:.1}s wall-clock, {:.1} jobs/sec",
        result.len(),
        result.job_count_quantile(0.5).unwrap_or(0),
        result.job_count_quantile(0.99).unwrap_or(0),
        jobs as f64 / elapsed.max(1e-12),
    );
}
