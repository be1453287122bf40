//! Solver configuration threaded through the scheduling layer.
//!
//! Every optimisation-based scheduler bottoms out in two flow solves: the
//! max-flow feasibility probes of the min-stretch search (backend-independent)
//! and the System-(2) min-cost re-allocation, which runs on a pluggable
//! [`MinCostBackend`].  A [`SolverConfig`]
//! names the backend and decides whether solver state may be **carried
//! across events** (the network simplex's basis, remapped by the stable
//! keys each System-(2) instance carries); it is carried by the scheduler
//! that solves System (2) ([`crate::OnlineScheduler::with_config`]) and by
//! the reusable [`crate::ParametricDeadlineSolver`].
//! [`crate::OfflineScheduler`] and [`crate::Bender98Scheduler`] run no
//! min-cost solve and take no configuration.
//!
//! # The default is a constant
//!
//! [`SolverConfig::default`] is the network simplex with warm start and
//! persistent per-event memory on; no environment variable changes it.
//! The primal-dual kernel stays reachable as [`SolverConfig::primal_dual`],
//! the reference oracle the differential, golden and serve tests build in
//! process.  The backend is not a pure speed lever: both backends reach the
//! same System-(2) objective, but `primal-dual` may pick a different
//! optimal allocation than `simplex`, so on-line schedules differ between
//! them.
//!
//! [`SolverConfig::with_warm_start`] and [`SolverConfig::with_incremental`]
//! switch the two speed levers off in process: results are bit-identical
//! either way, and the differential tests use the switched-off
//! configurations as reference oracles.

use stretch_flow::{BackendKind, MinCostBackend};

/// Configuration of the flow solvers used by the scheduling layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolverConfig {
    /// Which engine solves the System-(2) min-cost transportation problems.
    pub backend: BackendKind,
    /// Whether the network simplex remembers its optimal spanning-tree
    /// basis under the stable job and bin keys and remaps it onto the next
    /// event's network: the one piece of solver state carried across
    /// events.  The primal-dual kernel is stateless and runs the same code
    /// either way.
    ///
    /// Default `true`.  Purely a performance switch: warm-started and cold
    /// solves return bit-identical objectives and allocations (the
    /// warm/cold identity contract, pinned by
    /// `crates/core/tests/backend_diff.rs`).
    pub warm_start: bool,
    /// Whether the solver keeps its parametric structure and System-(2)
    /// arena **alive across events** and refills them in place, instead of
    /// filling fresh memory at every arrival and completion.
    ///
    /// Default `true`.  Like [`Self::warm_start`] this is purely a
    /// performance switch: both run the same fill code, so they return
    /// bit-identical objectives and allocations (pinned by the
    /// incremental-vs-rebuild leg of `crates/core/tests/backend_diff.rs`).
    pub incremental: bool,
}

impl SolverConfig {
    /// `backend` with warm start and persistent per-event memory on.
    const fn of(backend: BackendKind) -> Self {
        SolverConfig {
            backend,
            warm_start: true,
            incremental: true,
        }
    }

    /// The primal-dual reference backend (warm start enabled).
    pub const fn primal_dual() -> Self {
        Self::of(BackendKind::PrimalDual)
    }

    /// The network-simplex backend (warm start enabled): the default.
    pub const fn network_simplex() -> Self {
        Self::of(BackendKind::NetworkSimplex)
    }

    /// This configuration with cross-event solver memory switched on or off.
    pub const fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// This configuration with the persistent per-event memory switched on
    /// or off.
    pub const fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// One configuration per available backend, reference first (the shape
    /// the differential tests and benches iterate over).
    pub fn all_backends() -> impl Iterator<Item = SolverConfig> {
        BackendKind::ALL.into_iter().map(Self::of)
    }

    /// Instantiates the configured min-cost backend (honouring
    /// [`Self::warm_start`]: a cold configuration gets a backend that never
    /// reuses state across solves).
    pub fn instantiate(&self) -> Box<dyn MinCostBackend + Send> {
        self.backend.instantiate_with(self.warm_start)
    }
}

impl Default for SolverConfig {
    /// [`SolverConfig::network_simplex`]: the simplex with warm start and
    /// persistent per-event memory on.
    fn default() -> Self {
        Self::network_simplex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_constructors_name_their_backends() {
        assert_eq!(SolverConfig::primal_dual().backend.name(), "primal-dual");
        assert_eq!(SolverConfig::network_simplex().backend.name(), "simplex");
        let all: Vec<_> = SolverConfig::all_backends().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], SolverConfig::primal_dual());
        assert!(
            all.iter().all(|c| c.warm_start),
            "warm start is the default"
        );
    }

    #[test]
    fn instantiated_backends_match_their_kind() {
        for config in SolverConfig::all_backends() {
            assert_eq!(config.instantiate().name(), config.backend.name());
            let cold = config.with_warm_start(false);
            assert_eq!(cold.instantiate().name(), config.backend.name());
        }
    }

    #[test]
    fn incremental_is_on_by_default_and_togglable() {
        assert!(
            SolverConfig::all_backends().all(|c| c.incremental),
            "incremental is the default"
        );
        let cold = SolverConfig::network_simplex().with_incremental(false);
        assert!(!cold.incremental);
        assert_eq!(cold.with_incremental(true), SolverConfig::network_simplex());
    }

    #[test]
    fn default_built_solvers_run_the_warm_incremental_simplex() {
        // Code that takes no config — here the default-config parametric
        // solver — runs the one constant default.
        let default = SolverConfig::default();
        assert_eq!(default, SolverConfig::network_simplex());
        assert!(default.warm_start && default.incremental);
        assert_eq!(crate::ParametricDeadlineSolver::new().config(), default);
    }
}
