//! Golden digests of the default solver path's completion times.
//!
//! The Table-1 goldens print aggregates at nine decimals, which a change
//! of the System-(2) optimum picked on tied costs can leave untouched
//! while it moves almost every completion time.  This test pins the exact
//! bits instead: it runs the on-line heuristic under
//! `SolverConfig::default()` on a few entries of the benchmark pools
//! (`perfbench/pools/`), drawn as the benchmark draws them, and compares
//! an FNV-1a digest of each entry's completion times with a checked-in
//! fixture.  The entries are the cheapest four of `online-wide`, where
//! System (2) dominates, and two of `online-overload`.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! STRETCH_BLESS=1 cargo test -p stretch-experiments --test default_path_golden
//! ```
//!
//! An ignored test scans every entry of the three pools, warm and cold;
//! see [`scan_every_pool_entry_warm_and_cold`].

use std::path::PathBuf;
use std::time::Instant;
use stretch_core::online::run_online_with;
use stretch_core::{OnlineVariant, ScheduleError, SolverConfig};
use stretch_experiments::campaign::instance_seed;
use stretch_experiments::runner::{draw_instance_scaled, InstanceScale};
use stretch_experiments::ExperimentConfig;
use stretch_workload::{Instance, Scenario};

/// Base seed of the benchmark pools.
const POOL_SEED: u64 = 2006;

/// One pinned pool: its name, platform, jobs per instance, grid index and
/// the entries checked.
struct Pool {
    name: &'static str,
    config: ExperimentConfig,
    jobs: usize,
    config_index: usize,
    entries: &'static [usize],
}

/// The `online-overload` and `online-wide` shapes of the benchmark.
const POOLS: [Pool; 2] = [
    Pool {
        name: "online-overload",
        config: ExperimentConfig {
            sites: 3,
            databanks: 3,
            availability: 0.3,
            density: 1.2,
            scenario: Scenario::Steady,
        },
        jobs: 120,
        config_index: 0,
        entries: &[286, 637],
    },
    Pool {
        name: "online-wide",
        config: ExperimentConfig {
            sites: 10,
            databanks: 10,
            availability: 0.6,
            density: 0.75,
            scenario: Scenario::Steady,
        },
        jobs: 30,
        config_index: 1,
        entries: &[1426, 1103, 1078, 991],
    },
];

/// The `serve-light` shape of the benchmark (`perfbench/src/serve.rs`): one
/// ~20 000-job stream per entry.  Only the pool scan draws it.
const LIGHT: Pool = Pool {
    name: "serve-light",
    config: ExperimentConfig {
        sites: 3,
        databanks: 3,
        availability: 0.6,
        density: 0.1,
        scenario: Scenario::Steady,
    },
    jobs: 20_000,
    config_index: 2,
    entries: &[],
};

impl Pool {
    /// Pool entry `entry`, drawn as the benchmark draws it.
    fn draw(&self, entry: usize) -> Instance {
        draw_instance_scaled(
            &self.config,
            InstanceScale::TargetJobs(self.jobs),
            instance_seed(POOL_SEED, self.config_index, entry),
        )
    }
}

/// FNV-1a 64 over the little-endian bits of every completion time.
fn digest(completions: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in completions.iter().flat_map(|c| c.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One line per entry: pool name, entry index and digest.
fn render() -> String {
    let mut out = String::new();
    for pool in &POOLS {
        for &entry in pool.entries {
            let completions = run_online_with(
                &pool.draw(entry),
                OnlineVariant::Online,
                SolverConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{} entry {entry}: {e:?}", pool.name));
            out.push_str(&format!(
                "{} {entry} {:016x}\n",
                pool.name,
                digest(&completions)
            ));
        }
    }
    out
}

#[test]
fn default_path_completions_match_the_golden_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/default_path.golden");
    if std::env::var_os("STRETCH_BLESS").is_some() {
        std::fs::write(&path, render()).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with STRETCH_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        render(),
        expected,
        "the default path's completion times changed on a benchmark pool entry.\n\
         If intentional, re-bless with STRETCH_BLESS=1; otherwise a solver\n\
         change moved the System-(2) optimum or the schedule built from it."
    );
}

/// Scans every entry the benchmark's pool files list (read from
/// `perfbench/pools/` at run time), on the default path warm and cold
/// (`with_warm_start(false)`).  Prints one line per entry,
/// `pool entry warm-digest cold-digest seconds` (the warm run's wall time;
/// `failed` in place of a digest when the run returned an error), then per
/// pool the entries where warm and cold differ, and fails if any run
/// failed.  Diff the entry lines of two checkouts to see whether a change
/// keeps the default path bit for bit.  About 9 minutes in a release build
/// on a 2-vCPU host:
///
/// ```text
/// cargo test --release -p stretch-experiments --test default_path_golden -- --ignored --nocapture
/// ```
#[test]
#[ignore = "scans all 4022 pool entries twice; minutes in a release build"]
fn scan_every_pool_entry_warm_and_cold() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../perfbench/pools");
    let show = |run: &Result<Vec<f64>, ScheduleError>| match run {
        Ok(completions) => format!("{:016x}", digest(completions)),
        Err(_) => "failed".to_string(),
    };
    let mut failed = Vec::new();
    for pool in POOLS.iter().chain([&LIGHT]) {
        let path = dir.join(format!("{}.txt", pool.name));
        let list = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read pool file {}: {e}", path.display()));
        let (mut diverged, mut warm_seconds, mut cold_seconds) = (Vec::new(), 0.0, 0.0);
        for entry in list.split_whitespace() {
            let entry: usize = entry.parse().expect("pool files list entry indices");
            let instance = pool.draw(entry);
            let start = Instant::now();
            let warm = run_online_with(&instance, OnlineVariant::Online, SolverConfig::default());
            let seconds = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let cold = run_online_with(
                &instance,
                OnlineVariant::Online,
                SolverConfig::default().with_warm_start(false),
            );
            cold_seconds += start.elapsed().as_secs_f64();
            warm_seconds += seconds;
            println!(
                "{} {entry} {} {} {seconds:.3}",
                pool.name,
                show(&warm),
                show(&cold)
            );
            match (&warm, &cold) {
                (Ok(w), Ok(c)) if digest(w) != digest(c) => diverged.push(entry),
                (Ok(_), Ok(_)) => {}
                _ => failed.push(format!("{} {entry}", pool.name)),
            }
        }
        println!(
            "{}: warm != cold at {} entries {diverged:?} (warm {warm_seconds:.1} s, cold {cold_seconds:.1} s)",
            pool.name,
            diverged.len()
        );
    }
    assert!(failed.is_empty(), "the default path failed on {failed:?}");
}
