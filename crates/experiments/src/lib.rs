//! # stretch-experiments
//!
//! The reproduction harness for the evaluation section (§5) of the paper:
//! the 162-configuration experimental grid, the heuristic battery of Table 1,
//! the Figure 3 comparison of the optimized and non-optimized on-line
//! heuristics, and the scheduling-overhead study of §5.3.
//!
//! Every table and figure has a dedicated binary (`repro_table1`,
//! `repro_tables_by_sites`, `repro_figure3`, …) and a scaled-down Criterion
//! bench in the `stretch-bench` crate.  The default campaign settings are
//! smaller than the paper's (fewer instances per configuration and shorter
//! workloads) so a full reproduction runs on a laptop; `EXPERIMENTS.md`
//! records the exact settings used and the paper-vs-measured comparison.

pub mod baseline;
pub mod campaign;
pub mod config;
pub mod drift;
pub mod figure3;
pub mod heuristics;
pub mod json;
pub mod overhead;
pub mod runner;
pub mod scale;
pub mod tables;

pub use campaign::{instance_seed, run_campaign, CampaignResult, CampaignSettings};
pub use config::{
    adversary_budget, full_grid, reduced_grid, scenario_families, scenario_grid, ExperimentConfig,
};
pub use drift::{
    run_drift_check, DriftReport, EngineRow, EngineWorkload, DRIFT_FACTOR, DRIFT_SAMPLES,
    ENGINE_GROUP, ENGINE_ROWS,
};
pub use figure3::{run_figure3, Figure3Point, Figure3Settings};
pub use heuristics::{heuristic_battery, HeuristicKind, TABLE1_ORDER};
pub use overhead::{run_overhead_study, OverheadReport};
pub use runner::{run_instance, trace_fixture_path, InstanceObservation, InstanceScale};
pub use scale::{run_scale_study, ScaleSettings};
pub use tables::{
    table1, tables_by_availability, tables_by_databases, tables_by_density, tables_by_sites,
};
