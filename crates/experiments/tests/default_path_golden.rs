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

use std::path::PathBuf;
use stretch_core::online::run_online_with;
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_experiments::campaign::instance_seed;
use stretch_experiments::runner::{draw_instance_scaled, InstanceScale};
use stretch_experiments::ExperimentConfig;
use stretch_workload::Scenario;

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
            let instance = draw_instance_scaled(
                &pool.config,
                InstanceScale::TargetJobs(pool.jobs),
                instance_seed(POOL_SEED, pool.config_index, entry),
            );
            let completions =
                run_online_with(&instance, OnlineVariant::Online, SolverConfig::default())
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
