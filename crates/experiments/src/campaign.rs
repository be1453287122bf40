//! Running a full campaign over the experimental grid, in parallel.
//!
//! Campaigns come in two shapes:
//!
//! * [`run_campaign`] — the batch engine: every
//!   [`InstanceObservation`] is retained, which the golden tests and the
//!   partitioned-table builders consume directly.  Fine up to a few
//!   thousand observations.
//! * [`run_campaign_streaming`] — the paper-scale engine: observations are
//!   produced in parallel, folded chunk-by-chunk into **streaming**
//!   accumulators ([`stretch_metrics::streaming`]) in deterministic order,
//!   then dropped.  Memory stays bounded by the chunk size whatever the
//!   campaign size, and the resulting [`CampaignSummary`] builds the same
//!   tables.
//!
//! Both engines fan out over the real thread pool of the vendored `rayon`
//! (`STRETCH_THREADS` workers, indexed collect), and both derive instance
//! seeds with [`instance_seed`], a splitmix64 hash of `(base_seed, config,
//! instance)` — collision-free across the paper grid, uncorrelated between
//! neighbouring configurations.

use crate::config::ExperimentConfig;
use crate::runner::{run_instance_scaled_with, InstanceObservation, InstanceScale};
use crate::tables::degradation_values;
use rayon::prelude::*;
use stretch_core::SolverConfig;
use stretch_metrics::{MetricsTable, P2Quantile, StreamingDegradation, StreamingStats};

/// Settings of a campaign run.
///
/// The paper uses 200 instances per configuration and 15-minute workloads
/// (thousands of jobs); the defaults here are scaled down so the full grid
/// completes in minutes on a laptop while preserving the heuristic ranking
/// (see EXPERIMENTS.md for the measured sensitivity to these settings).
/// [`CampaignSettings::paper`] restores the paper's scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignSettings {
    /// Random instances drawn per configuration (paper: 200).
    pub instances_per_config: usize,
    /// Expected number of jobs per instance (paper: the 15-minute window,
    /// i.e. hundreds to thousands of jobs depending on the configuration).
    /// Ignored when [`Self::window_secs`] is set.
    pub target_jobs: usize,
    /// Fixed arrival window in seconds (the paper's 900 s), overriding the
    /// `target_jobs` scaling when set.
    pub window_secs: Option<f64>,
    /// Base random seed; instance `(c, i)` uses
    /// [`instance_seed`]`(base_seed, c, i)`.
    pub base_seed: u64,
    /// Solver configuration handed to the LP/flow-based heuristics
    /// (min-cost backend selection).
    pub solver: SolverConfig,
}

impl Default for CampaignSettings {
    fn default() -> Self {
        CampaignSettings {
            instances_per_config: 5,
            target_jobs: 30,
            window_secs: None,
            base_seed: 42,
            solver: SolverConfig::default(),
        }
    }
}

impl CampaignSettings {
    /// A very small setting used by smoke tests and Criterion benches.
    pub fn smoke() -> Self {
        CampaignSettings {
            instances_per_config: 1,
            target_jobs: 10,
            window_secs: None,
            base_seed: 7,
            solver: SolverConfig::default(),
        }
    }

    /// The paper's §5 scale: 200 instances per configuration, fixed
    /// 15-minute arrival windows (thousands of jobs on the larger
    /// platforms).  Pair with [`run_campaign_streaming`] — retaining every
    /// observation at this scale is exactly what the streaming engine
    /// exists to avoid.
    pub fn paper() -> Self {
        CampaignSettings {
            instances_per_config: 200,
            target_jobs: 0, // unused: the window is fixed
            window_secs: Some(stretch_platform::reference::ARRIVAL_WINDOW_S),
            base_seed: 42,
            solver: SolverConfig::default(),
        }
    }

    /// This settings value on an explicit solver configuration.
    pub fn with_solver(self, solver: SolverConfig) -> Self {
        CampaignSettings { solver, ..self }
    }

    /// The [`InstanceScale`] these settings draw instances at.
    pub fn scale(&self) -> InstanceScale {
        match self.window_secs {
            Some(secs) => InstanceScale::FixedWindow(secs),
            None => InstanceScale::TargetJobs(self.target_jobs),
        }
    }

    /// Reads overrides from the environment, so the reproduction binaries can
    /// be scaled up towards the paper's 200 × 15-minute campaign without
    /// recompiling:
    ///
    /// * `STRETCH_INSTANCES` — instances per configuration (default 5);
    /// * `STRETCH_JOBS` — expected jobs per instance (default 30);
    /// * `STRETCH_WINDOW` — fixed arrival window in seconds (unset by
    ///   default; setting it switches to the paper's fixed-window semantics
    ///   and makes `STRETCH_JOBS` irrelevant);
    /// * `STRETCH_SEED` — base random seed (default 42);
    /// * `STRETCH_MINCOST_BACKEND` — min-cost backend of the LP/flow
    ///   heuristics (`simplex`, the default, or `primal-dual`).
    ///
    /// Malformed values **abort with the offending string** instead of
    /// silently running the defaults (`STRETCH_JOBS=3O` used to run the
    /// default grid with no hint that the typo was ignored).
    pub fn from_env() -> Self {
        CampaignSettings {
            instances_per_config: read_env("STRETCH_INSTANCES", 5, parse_positive_count),
            target_jobs: read_env("STRETCH_JOBS", 30, parse_positive_count),
            window_secs: read_env("STRETCH_WINDOW", None, |name, raw| {
                Some(parse_positive_seconds(name, raw))
            }),
            base_seed: read_env("STRETCH_SEED", 42, parse_seed),
            solver: SolverConfig::from_env(),
        }
    }

    /// [`Self::paper`] with the same environment overrides as
    /// [`Self::from_env`] — how `repro_paper` bounds the CI smoke leg
    /// (`STRETCH_INSTANCES=1 STRETCH_WINDOW=30`) without losing the paper
    /// defaults.  `STRETCH_JOBS` is meaningless under fixed windows, so
    /// setting it here aborts rather than being silently ignored.
    pub fn paper_from_env() -> Self {
        // read_env would supply a default for an unset variable; here *any*
        // set value (unicode or not) must abort.
        match std::env::var("STRETCH_JOBS") {
            Err(std::env::VarError::NotPresent) => {}
            Ok(raw) => panic!(
                "STRETCH_JOBS is ignored by the paper preset (instances are sized \
                 by the fixed arrival window); set STRETCH_WINDOW instead, got \
                 STRETCH_JOBS=`{raw}`"
            ),
            Err(std::env::VarError::NotUnicode(_)) => panic!(
                "STRETCH_JOBS is ignored by the paper preset (instances are sized \
                 by the fixed arrival window); set STRETCH_WINDOW instead, got \
                 undecodable bytes"
            ),
        }
        let paper = Self::paper();
        CampaignSettings {
            instances_per_config: read_env(
                "STRETCH_INSTANCES",
                paper.instances_per_config,
                parse_positive_count,
            ),
            target_jobs: paper.target_jobs,
            window_secs: read_env("STRETCH_WINDOW", paper.window_secs, |name, raw| {
                Some(parse_positive_seconds(name, raw))
            }),
            base_seed: read_env("STRETCH_SEED", paper.base_seed, parse_seed),
            solver: SolverConfig::from_env(),
        }
    }
}

/// Reads an environment variable through a strict parser; unset keeps the
/// default, malformed values (including non-unicode) panic with the
/// variable name and the offending string.  Public so every binary's extra
/// knob (`STRETCH_PAPER_CONFIGS`, `STRETCH_SCALE_SMOKE`, …) shares one
/// implementation of the loud-abort contract instead of drifting copies.
pub fn read_env<T>(name: &str, default: T, parse: impl Fn(&str, &str) -> T) -> T {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("{name} must be valid unicode, got undecodable bytes")
        }
        Ok(raw) => parse(name, &raw),
    }
}

/// Strict parser for count-valued settings: a positive integer.
pub fn parse_positive_count(name: &str, raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(0) => panic!("{name} must be at least 1, got `{raw}`"),
        Ok(n) => n,
        Err(_) => panic!("{name} must be a positive integer, got `{raw}`"),
    }
}

/// Strict parser for seed-valued settings: any u64.
fn parse_seed(name: &str, raw: &str) -> u64 {
    raw.trim()
        .parse::<u64>()
        .unwrap_or_else(|_| panic!("{name} must be an unsigned integer, got `{raw}`"))
}

/// Strict parser for duration-valued settings: positive finite seconds.
fn parse_positive_seconds(name: &str, raw: &str) -> f64 {
    match raw.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => secs,
        Ok(_) => panic!("{name} must be a positive number of seconds, got `{raw}`"),
        Err(_) => panic!("{name} must be a number of seconds, got `{raw}`"),
    }
}

/// SplitMix64 finaliser (the mixing function of the vendored `SmallRng`).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the workload seed of instance `i` of configuration `c`.
///
/// The historical scheme `base + c·10_000 + i` collided as soon as
/// `instances_per_config` reached 10 000 and gave neighbouring
/// configurations overlapping, correlated seed ranges.  Hashing the whole
/// tuple through two splitmix64 rounds gives every `(c, i)` pair its own
/// pseudorandom 64-bit stream index; the regression test pins that the
/// paper grid (162 × 200) — and far beyond — stays collision-free.
pub fn instance_seed(base_seed: u64, config: usize, instance: usize) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let c = splitmix64(base_seed ^ (config as u64).wrapping_add(1).wrapping_mul(GOLDEN));
    splitmix64(c ^ (instance as u64).wrapping_add(1).wrapping_mul(GOLDEN))
}

/// All observations of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// One entry per (configuration, instance) pair.
    pub observations: Vec<InstanceObservation>,
    /// The settings the campaign was run with.
    pub settings: Option<CampaignSettings>,
}

impl CampaignResult {
    /// Observations restricted by a configuration predicate (used to build
    /// the partitioned tables 2–16).
    pub fn filtered(
        &self,
        predicate: impl Fn(&ExperimentConfig) -> bool,
    ) -> Vec<&InstanceObservation> {
        self.observations
            .iter()
            .filter(|o| predicate(&o.config))
            .collect()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// `true` when the campaign produced no observation.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }
}

/// Runs the battery over every configuration of `grid`, in parallel over
/// (configuration, instance) pairs, retaining every observation.
pub fn run_campaign(grid: &[ExperimentConfig], settings: CampaignSettings) -> CampaignResult {
    let work: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|c| (0..settings.instances_per_config).map(move |i| (c, i)))
        .collect();
    let observations: Vec<InstanceObservation> = work
        .par_iter()
        .map(|&(c, i)| {
            let seed = instance_seed(settings.base_seed, c, i);
            run_instance_scaled_with(&grid[c], settings.scale(), seed, settings.solver)
        })
        .collect();
    CampaignResult {
        observations,
        settings: Some(settings),
    }
}

/// Streaming aggregates of one configuration.
#[derive(Clone, Debug)]
pub struct ConfigSummary {
    /// The configuration these aggregates describe.
    pub config: ExperimentConfig,
    /// Max-stretch degradation per heuristic (vs the off-line optimum).
    pub max_stretch: StreamingDegradation,
    /// Sum-stretch degradation per heuristic (vs the best heuristic).
    pub sum_stretch: StreamingDegradation,
    /// Job counts of the instances drawn from this configuration.
    pub jobs: StreamingStats,
    /// Arrival-event counts of those instances.
    pub events: StreamingStats,
}

/// Bounded-memory result of a paper-scale campaign: per-configuration
/// streaming aggregates instead of per-instance observations.
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// One summary per grid configuration, in grid order.
    pub per_config: Vec<ConfigSummary>,
    /// P² sketch of the per-instance job counts across the whole campaign
    /// (median): at paper scale the fixed window makes instance sizes vary
    /// by platform and scenario, and the median is what "thousands of jobs"
    /// claims are checked against.
    pub jobs_p50: P2Quantile,
    /// P² sketch of the per-instance job counts (99th percentile): the
    /// largest instances the engine had to absorb, the number that bounds
    /// worst-case memory and per-event latency.
    pub jobs_p99: P2Quantile,
    /// The settings the campaign was run with.
    pub settings: CampaignSettings,
    /// Wall-clock spent producing and folding the observations, seconds.
    pub elapsed_seconds: f64,
}

impl CampaignSummary {
    /// Total instances aggregated.
    pub fn instances(&self) -> usize {
        self.per_config.iter().map(|c| c.jobs.count()).sum()
    }

    /// Total jobs scheduled across the whole campaign (each instance's jobs
    /// are scheduled once per heuristic; this counts them once).
    pub fn total_jobs(&self) -> f64 {
        self.per_config
            .iter()
            .map(|c| c.jobs.mean() * c.jobs.count() as f64)
            .sum()
    }

    /// Aggregate throughput of the campaign: jobs folded per wall-clock
    /// second (the scaling-trajectory metric of `BENCH_scale.json`).
    pub fn jobs_per_second(&self) -> f64 {
        self.total_jobs() / self.elapsed_seconds.max(1e-12)
    }

    /// Builds one paper-style table over the configurations matching
    /// `predicate` (exact merge of the per-configuration streams).
    pub fn table(
        &self,
        caption: &str,
        predicate: impl Fn(&ExperimentConfig) -> bool,
    ) -> MetricsTable {
        let names: Vec<&str> = crate::heuristics::TABLE1_ORDER
            .iter()
            .map(|k| k.name())
            .collect();
        let mut max_acc = StreamingDegradation::new(&names);
        let mut sum_acc = StreamingDegradation::new(&names);
        for summary in self.per_config.iter().filter(|s| predicate(&s.config)) {
            max_acc.merge(&summary.max_stretch);
            sum_acc.merge(&summary.sum_stretch);
        }
        let mut table = MetricsTable::new(caption);
        for (k, kind) in crate::heuristics::TABLE1_ORDER.iter().enumerate() {
            table.push_row(kind.name(), max_acc.stats(k), sum_acc.stats(k));
        }
        table
    }

    /// Table 1 over every configuration of the campaign.
    pub fn table1(&self) -> MetricsTable {
        self.table(
            "Table 1: aggregate statistics over all platform/application configurations",
            |_| true,
        )
    }
}

/// Number of observations each streaming chunk holds in memory (a few
/// thread-pool rounds; at most this many `InstanceObservation`s are alive
/// at once however large the campaign).
pub const STREAM_CHUNK: usize = 64;

/// Runs the battery over every configuration of `grid` with streaming
/// aggregation: observations are produced in parallel chunk by chunk,
/// folded into per-configuration accumulators **in sequential order** (so
/// the aggregates are independent of the thread count), then dropped.
pub fn run_campaign_streaming(
    grid: &[ExperimentConfig],
    settings: CampaignSettings,
) -> CampaignSummary {
    let names: Vec<&str> = crate::heuristics::TABLE1_ORDER
        .iter()
        .map(|k| k.name())
        .collect();
    let start = std::time::Instant::now();
    let mut per_config: Vec<ConfigSummary> = grid
        .iter()
        .map(|&config| ConfigSummary {
            config,
            max_stretch: StreamingDegradation::new(&names),
            sum_stretch: StreamingDegradation::new(&names),
            jobs: StreamingStats::new(),
            events: StreamingStats::new(),
        })
        .collect();

    let mut jobs_p50 = P2Quantile::new(0.5);
    let mut jobs_p99 = P2Quantile::new(0.99);
    let work: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|c| (0..settings.instances_per_config).map(move |i| (c, i)))
        .collect();
    for chunk in work.chunks(STREAM_CHUNK) {
        let observations: Vec<InstanceObservation> = chunk
            .par_iter()
            .map(|&(c, i)| {
                let seed = instance_seed(settings.base_seed, c, i);
                run_instance_scaled_with(&grid[c], settings.scale(), seed, settings.solver)
            })
            .collect();
        for (&(c, _), obs) in chunk.iter().zip(&observations) {
            let summary = &mut per_config[c];
            let (max_values, sum_values, reference) = degradation_values(obs);
            summary.max_stretch.record(&max_values, reference);
            summary.sum_stretch.record(&sum_values, None);
            summary.jobs.observe(obs.num_jobs as f64);
            summary.events.observe(obs.num_events as f64);
            jobs_p50.observe(obs.num_jobs as f64);
            jobs_p99.observe(obs.num_jobs as f64);
        }
    }
    CampaignSummary {
        per_config,
        jobs_p50,
        jobs_p99,
        settings,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::reduced_grid;

    #[test]
    fn smoke_campaign_produces_one_observation_per_pair() {
        let grid = reduced_grid();
        let settings = CampaignSettings::smoke();
        let result = run_campaign(&grid, settings);
        assert_eq!(result.len(), grid.len() * settings.instances_per_config);
        assert!(!result.is_empty());
        // Filtering by sites returns only matching configurations.
        let only3 = result.filtered(|c| c.sites == 3);
        assert!(only3.iter().all(|o| o.config.sites == 3));
        assert!(!only3.is_empty());
    }

    #[test]
    fn instance_seeds_are_collision_free_on_the_paper_grid() {
        // 162 configurations × 200 instances (the paper's scale), plus a
        // stress margin beyond the historical 10 000-instance collision
        // threshold.
        let mut seen = std::collections::HashSet::new();
        for c in 0..162 {
            for i in 0..200 {
                assert!(
                    seen.insert(instance_seed(42, c, i)),
                    "seed collision at ({c}, {i})"
                );
            }
        }
        // The old scheme collided at (0, 10_000) vs (1, 0); the hash must
        // not.
        let mut stress = std::collections::HashSet::new();
        for c in 0..4 {
            for i in 0..30_000 {
                assert!(
                    stress.insert(instance_seed(7, c, i)),
                    "seed collision at ({c}, {i})"
                );
            }
        }
    }

    #[test]
    fn instance_seeds_decorrelate_neighbouring_configs() {
        // Under the old scheme config c+1 replayed config c's seeds offset
        // by 10 000; the hash gives disjoint, unordered streams.
        let a: Vec<u64> = (0..100).map(|i| instance_seed(42, 0, i)).collect();
        let b: Vec<u64> = (0..100).map(|i| instance_seed(42, 1, i)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        // And changing the base seed moves every stream.
        let c: Vec<u64> = (0..100).map(|i| instance_seed(43, 0, i)).collect();
        assert!(a.iter().all(|s| !c.contains(s)));
    }

    #[test]
    fn strict_parsers_accept_good_values() {
        assert_eq!(parse_positive_count("X", "12"), 12);
        assert_eq!(parse_positive_count("X", " 7 "), 7);
        assert_eq!(parse_seed("X", "0"), 0);
        assert_eq!(parse_positive_seconds("X", "900"), 900.0);
        assert_eq!(parse_positive_seconds("X", "0.5"), 0.5);
    }

    #[test]
    #[should_panic(expected = "STRETCH_JOBS must be a positive integer, got `3O`")]
    fn malformed_count_aborts_with_the_offending_string() {
        parse_positive_count("STRETCH_JOBS", "3O");
    }

    #[test]
    #[should_panic(expected = "STRETCH_INSTANCES must be at least 1, got `0`")]
    fn zero_instances_aborts() {
        parse_positive_count("STRETCH_INSTANCES", "0");
    }

    #[test]
    #[should_panic(expected = "STRETCH_SEED must be an unsigned integer, got `-3`")]
    fn negative_seed_aborts() {
        parse_seed("STRETCH_SEED", "-3");
    }

    #[test]
    #[should_panic(expected = "STRETCH_WINDOW must be a positive number of seconds, got `-900`")]
    fn negative_window_aborts() {
        parse_positive_seconds("STRETCH_WINDOW", "-900");
    }

    #[test]
    fn paper_preset_uses_fixed_windows() {
        let paper = CampaignSettings::paper();
        assert_eq!(paper.instances_per_config, 200);
        assert_eq!(paper.window_secs, Some(900.0));
        assert_eq!(paper.scale(), InstanceScale::FixedWindow(900.0));
        // The laptop default still scales by expected job count.
        assert_eq!(
            CampaignSettings::default().scale(),
            InstanceScale::TargetJobs(30)
        );
    }

    #[test]
    fn streaming_summary_matches_the_batch_tables() {
        let grid = reduced_grid();
        let settings = CampaignSettings {
            instances_per_config: 2,
            target_jobs: 8,
            ..CampaignSettings::smoke()
        };
        let batch = run_campaign(&grid, settings);
        let summary = run_campaign_streaming(&grid, settings);
        assert_eq!(summary.instances(), batch.len());
        let batch_table = crate::tables::table1(&batch.observations);
        let stream_table = summary.table1();
        for (b, s) in batch_table.rows.iter().zip(&stream_table.rows) {
            assert_eq!(b.name, s.name);
            for (bs, ss) in [
                (&b.max_stretch, &s.max_stretch),
                (&b.sum_stretch, &s.sum_stretch),
            ] {
                match (bs, ss) {
                    (None, None) => {}
                    (Some(bs), Some(ss)) => {
                        assert!((bs.mean - ss.mean).abs() < 1e-9, "{}", b.name);
                        assert!((bs.sd - ss.sd).abs() < 1e-9, "{}", b.name);
                        assert_eq!(bs.max, ss.max, "{}", b.name);
                        assert_eq!(bs.count, ss.count, "{}", b.name);
                    }
                    other => panic!("presence mismatch for {}: {other:?}", b.name),
                }
            }
        }
        // Throughput bookkeeping is sane.
        assert!(summary.total_jobs() > 0.0);
        assert!(summary.jobs_per_second() > 0.0);
        // The job-count sketches saw every instance; the p99 never sits
        // below the median.
        assert_eq!(summary.jobs_p50.count(), batch.len());
        let p50 = summary.jobs_p50.value().unwrap();
        let p99 = summary.jobs_p99.value().unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} vs p99 {p99}");
    }
}
