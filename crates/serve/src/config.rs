//! [`ServeConfig`]: the knobs of the serve loop — solver, ladder budgets,
//! circuit breaker, dead-letter retention, journal rotation and snapshot
//! cadence — and [`ServeConfig::from_env`], the serve layer's one reader of
//! the environment.

use std::time::Duration;

use stretch_core::SolverConfig;

use crate::event::SolveTier;
use crate::journal::{RotationCrashPoint, RotationPolicy};

/// Configuration of the serve loop.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Primary solver configuration: the backend names the *top* rung of the
    /// degradation ladder, `warm_start` is forwarded to every tier.
    pub solver: SolverConfig,
    /// Time budget of the first ladder rung.
    pub solve_budget: Duration,
    /// Budget multiplier applied at each fallback rung (retry with backoff).
    pub retry_backoff: u32,
    /// Consecutive over-budget decisions that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// Decisions shed to EDF while the breaker is open, before it closes
    /// again.
    pub breaker_cooldown: u32,
    /// Dead-letter queue retention.
    pub dlq_capacity: usize,
    /// When the active journal segment rotates (record/byte threshold).
    pub rotation: RotationPolicy,
    /// Snapshot cadence in seals: a snapshot is published at every
    /// `snapshot_every`th segment seal (1 = every seal).  Must be nonzero.
    pub snapshot_every: u64,
    /// Snapshots retained on disk; older snapshots — and the sealed
    /// segments wholly covered by the oldest retained one — are
    /// garbage-collected at rotation and after recovery.  Clamped to ≥ 1.
    pub snapshot_retain: usize,
    /// Chaos injection for tests: `(decision_index, tier)` pairs that force
    /// the given solver rung to fail at the given decision.  Only solver
    /// rungs are affected (the EDF tier cannot fail).
    pub chaos_tier_failures: Vec<(u64, SolveTier)>,
    /// Chaos injection for tests: abort the process at the given point of
    /// the rotation sealing segment `index` — the deterministic stand-in
    /// for a crash landing inside the seal → snapshot → reopen window.
    pub chaos_rotation_abort: Option<(u64, RotationCrashPoint)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            solver: SolverConfig::default(),
            solve_budget: Duration::from_millis(250),
            retry_backoff: 2,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            dlq_capacity: 1024,
            rotation: RotationPolicy::default(),
            snapshot_every: 1,
            snapshot_retain: 2,
            chaos_tier_failures: Vec::new(),
            chaos_rotation_abort: None,
        }
    }
}

impl ServeConfig {
    /// Default config on an explicit solver configuration.
    pub fn with_solver(solver: SolverConfig) -> Self {
        ServeConfig {
            solver,
            ..Default::default()
        }
    }

    /// A config on the default solver with the rotation and snapshot knobs
    /// read from the environment:
    ///
    /// * `STRETCH_SERVE_SEGMENT_RECORDS` — records per segment before
    ///   rotation (default 1024),
    /// * `STRETCH_SERVE_SEGMENT_BYTES` — frame bytes per segment before
    ///   rotation (default 1 MiB),
    /// * `STRETCH_SERVE_SNAPSHOT_EVERY` — snapshot cadence in seals
    ///   (default 1),
    /// * `STRETCH_SERVE_SNAPSHOT_RETAIN` — snapshots retained (default 2).
    ///
    /// All four follow the strict `STRETCH_*` parse policy: unset falls
    /// back to the default; `0`, overflow, garbage or non-unicode values
    /// abort loudly with the variable name and the offending string.
    pub fn from_env() -> Self {
        let defaults = RotationPolicy::default();
        let rotation = RotationPolicy {
            max_records: Self::env_u64_nonzero(
                "STRETCH_SERVE_SEGMENT_RECORDS",
                defaults.max_records,
            ),
            max_bytes: Self::env_u64_nonzero("STRETCH_SERVE_SEGMENT_BYTES", defaults.max_bytes),
        };
        let snapshot_every = Self::env_u64_nonzero("STRETCH_SERVE_SNAPSHOT_EVERY", 1);
        let snapshot_retain =
            usize::try_from(Self::env_u64_nonzero("STRETCH_SERVE_SNAPSHOT_RETAIN", 2))
                .unwrap_or_else(|_| {
                    panic!("STRETCH_SERVE_SNAPSHOT_RETAIN overflows usize on this platform")
                });
        ServeConfig {
            rotation,
            snapshot_every,
            snapshot_retain,
            ..ServeConfig::default()
        }
    }

    /// Parses a positive integer knob value as `env_u64_nonzero` would:
    /// whitespace-trimmed decimal, rejecting `0`, overflow and garbage
    /// loudly with the variable name and the offending string.
    fn parse_env_u64_nonzero(name: &str, raw: &str) -> u64 {
        let trimmed = raw.trim();
        match trimmed.parse::<u64>() {
            Ok(0) => panic!("{name} must be a positive integer, got `{raw}` (zero is not valid)"),
            Ok(v) => v,
            Err(_) => panic!("{name} must be a positive integer that fits in 64 bits, got `{raw}`"),
        }
    }

    /// Reads environment variable `name` as a positive `u64`: unset falls
    /// back to `default`; `0`, overflow, non-numeric and non-unicode values
    /// abort loudly with the offending string.
    fn env_u64_nonzero(name: &str, default: u64) -> u64 {
        match std::env::var(name) {
            Err(std::env::VarError::NotPresent) => default,
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!("{name} must be valid unicode, got undecodable bytes {raw:?}")
            }
            Ok(raw) => Self::parse_env_u64_nonzero(name, &raw),
        }
    }

    /// The solver rungs of the degradation ladder: the suffix of
    /// simplex → primal-dual starting at the configured backend.
    /// (The EDF shed tier sits below and is handled separately.)
    pub fn solve_ladder(&self) -> Vec<SolveTier> {
        const RUNGS: [SolveTier; 2] = [SolveTier::Simplex, SolveTier::PrimalDual];
        let top = SolveTier::of_backend(self.solver.backend);
        let start = RUNGS.iter().position(|&t| t == top).unwrap_or(0);
        RUNGS[start..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_knobs_parse_strictly() {
        // The serve-layer knobs (STRETCH_SERVE_SEGMENT_RECORDS,
        // STRETCH_SERVE_SEGMENT_BYTES, STRETCH_SERVE_SNAPSHOT_EVERY,
        // STRETCH_SERVE_SNAPSHOT_RETAIN) all parse through this helper, so
        // exercising it directly covers them without touching the process
        // environment.
        assert_eq!(
            ServeConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_RECORDS", "1024"),
            1024
        );
        assert_eq!(
            ServeConfig::parse_env_u64_nonzero("STRETCH_SERVE_SNAPSHOT_EVERY", " 2 "),
            2,
            "values are whitespace-trimmed"
        );
        assert_eq!(
            ServeConfig::parse_env_u64_nonzero("X", &u64::MAX.to_string()),
            u64::MAX
        );
    }

    #[test]
    #[should_panic(expected = "STRETCH_SERVE_SEGMENT_RECORDS must be a positive integer")]
    fn zero_u64_knob_values_abort_with_the_variable_name() {
        // A zero segment threshold would rotate on every record (or never),
        // so it is rejected rather than reinterpreted.
        ServeConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_RECORDS", "0");
    }

    #[test]
    #[should_panic(expected = "got `18446744073709551616`")]
    fn overflowing_u64_knob_values_abort_with_the_offending_string() {
        // One past u64::MAX.
        ServeConfig::parse_env_u64_nonzero("STRETCH_SERVE_SNAPSHOT_RETAIN", "18446744073709551616");
    }

    #[test]
    #[should_panic(expected = "got `37 segments`")]
    fn non_numeric_u64_knob_values_abort_with_the_offending_string() {
        ServeConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_BYTES", "37 segments");
    }

    #[test]
    fn unset_u64_knob_falls_back_to_the_default() {
        // The variable name is deliberately one no harness sets.
        assert_eq!(
            ServeConfig::env_u64_nonzero("STRETCH_TEST_UNSET_KNOB_7F3A", 42),
            42
        );
    }
}
