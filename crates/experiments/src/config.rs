//! The experimental grid of §5.3, extended with scenario families.

use stretch_platform::reference;
use stretch_workload::{AdversaryConfig, Scenario};

/// One point of the experimental grid: a platform/application configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Number of clusters (sites): 3, 10 or 20 in the paper.
    pub sites: usize,
    /// Number of distinct reference databanks: 3, 10 or 20.
    pub databanks: usize,
    /// Probability that a databank is replicated on a site: 0.3, 0.6 or 0.9.
    pub availability: f64,
    /// Workload density: 0.75 … 3.0.
    pub density: f64,
    /// Workload scenario family; [`Scenario::Steady`] is the paper's model,
    /// the other families (bursty arrivals, heavy-tailed request sizes,
    /// skewed databank popularity) stress the heuristics at equal load.
    pub scenario: Scenario,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            sites: 3,
            databanks: 3,
            availability: 0.6,
            density: 1.0,
            scenario: Scenario::Steady,
        }
    }
}

impl ExperimentConfig {
    /// A compact label used in logs and result files.  Steady configurations
    /// keep the paper-era spelling; other scenarios append their family.
    pub fn label(&self) -> String {
        let base = format!(
            "sites{}_db{}_avail{:02}_dens{:.2}",
            self.sites,
            self.databanks,
            (self.availability * 100.0) as u32,
            self.density
        );
        match self.scenario {
            Scenario::Steady => base,
            other => format!("{base}_{}", other.label()),
        }
    }
}

/// The full 162-configuration grid of §5.3
/// (3 platform sizes × 3 databank counts × 3 availabilities × 6 densities),
/// all under the paper's steady scenario.
pub fn full_grid() -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for &sites in &reference::PLATFORM_SIZES {
        for &databanks in &reference::DATABANK_COUNTS {
            for &availability in &reference::AVAILABILITY_LEVELS {
                for &density in &reference::WORKLOAD_DENSITIES {
                    grid.push(ExperimentConfig {
                        sites,
                        databanks,
                        availability,
                        density,
                        scenario: Scenario::Steady,
                    });
                }
            }
        }
    }
    grid
}

/// A reduced grid (one value per axis except the one being swept) used by the
/// smoke tests and the Criterion benches, which cannot afford the full grid.
pub fn reduced_grid() -> Vec<ExperimentConfig> {
    vec![
        ExperimentConfig {
            sites: 3,
            databanks: 3,
            availability: 0.6,
            density: 1.0,
            scenario: Scenario::Steady,
        },
        ExperimentConfig {
            sites: 10,
            databanks: 10,
            availability: 0.6,
            density: 1.5,
            scenario: Scenario::Steady,
        },
        ExperimentConfig {
            sites: 3,
            databanks: 10,
            availability: 0.9,
            density: 3.0,
            scenario: Scenario::Steady,
        },
    ]
}

/// The scenario families studied beyond the paper (paper-steady first, so
/// every scenario table has the §5 baseline alongside).  The adversarial
/// family runs the seeded hill-climb with a small fixed budget so the
/// scenario grid stays cheap and reproducible; the trace family replays
/// checked-in trace fixture 0, a drained journal directory.
pub fn scenario_families() -> Vec<Scenario> {
    vec![
        Scenario::Steady,
        Scenario::Bursty {
            cycles: 3,
            duty: 0.25,
        },
        Scenario::HeavyTailed { alpha: 1.5 },
        Scenario::SkewedPopularity { exponent: 1.0 },
        Scenario::Adversarial {
            seed: 0xAD5E,
            rounds: 12,
        },
        Scenario::Trace { index: 0 },
    ]
}

/// The pinned adversary search budget shared by `repro_trace`, the
/// adversary golden fixtures and the `theorems.rs` ratio bound.  Every
/// field is part of the fixture contract: changing any of them requires
/// re-blessing `tests/fixtures/trace_0/` and the
/// `adversary_smoke_*.golden` files (`STRETCH_BLESS=1`), and re-checking
/// the pinned ratio margin in `tests/theorems.rs`.
pub fn adversary_budget() -> AdversaryConfig {
    AdversaryConfig {
        seed: 0xADC0_FFEE,
        rounds: 32,
        candidates: 6,
        release_jitter: 0.25,
        work_factor: 16.0,
    }
}

/// The scenario grid: every [`reduced_grid`] platform point crossed with
/// every scenario family — the diversity axis the paper does not explore.
/// Used by `repro_scenarios` and the scenario smoke tests.
pub fn scenario_grid() -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for scenario in scenario_families() {
        for base in reduced_grid() {
            grid.push(ExperimentConfig { scenario, ..base });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_162_configurations() {
        let grid = full_grid();
        assert_eq!(grid.len(), 162);
        // All distinct.
        let labels: std::collections::HashSet<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 162);
    }

    #[test]
    fn grid_covers_every_axis_value() {
        let grid = full_grid();
        for &s in &reference::PLATFORM_SIZES {
            assert!(grid.iter().any(|c| c.sites == s));
        }
        for &d in &reference::WORKLOAD_DENSITIES {
            assert!(grid.iter().any(|c| (c.density - d).abs() < 1e-12));
        }
    }

    #[test]
    fn labels_are_readable() {
        let c = ExperimentConfig {
            sites: 3,
            databanks: 10,
            availability: 0.9,
            density: 1.25,
            scenario: Scenario::Steady,
        };
        assert_eq!(c.label(), "sites3_db10_avail90_dens1.25");
        let b = ExperimentConfig {
            scenario: Scenario::Bursty {
                cycles: 3,
                duty: 0.25,
            },
            ..c
        };
        assert_eq!(b.label(), "sites3_db10_avail90_dens1.25_bursty3x0.25");
    }

    #[test]
    fn scenario_grid_crosses_families_with_platforms() {
        let grid = scenario_grid();
        assert_eq!(grid.len(), reduced_grid().len() * scenario_families().len());
        let labels: std::collections::HashSet<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), grid.len(), "labels must stay distinct");
        // Every family appears.
        for family in scenario_families() {
            assert!(grid.iter().any(|c| c.scenario == family));
        }
    }
}
