//! Solver configuration threaded through the scheduling layer.
//!
//! Every optimisation-based scheduler bottoms out in two flow solves: the
//! max-flow feasibility probes of the min-stretch search (backend-independent)
//! and the System-(2) min-cost re-allocation, which runs on a pluggable
//! [`MinCostBackend`].  A [`SolverConfig`]
//! names the backend and decides whether solver state may be **carried
//! across events** (simplex basis remapping, residual-flow carry-over); it
//! is carried by the schedulers ([`crate::OnlineScheduler::with_config`],
//! [`crate::OfflineScheduler::with_config`],
//! [`crate::Bender98Scheduler::with_config`]) and by the reusable
//! [`crate::ParametricDeadlineSolver`].
//!
//! # Environment defaults are read once per process
//!
//! The **default** configuration reads three environment variables, and it
//! reads them **exactly once per process** (memoised in a `OnceLock`,
//! because schedulers construct solvers on hot paths):
//!
//! * `STRETCH_MINCOST_BACKEND` — `monge` (the fastest backend beyond a
//!   few jobs, also the unset default), `simplex` or `primal-dual` (the
//!   reference oracle, always reachable as [`SolverConfig::primal_dual`]);
//!   anything else aborts with the offending string rather than silently
//!   falling back.  This is how the CI test matrix runs the whole suite —
//!   schedulers, experiments, property tests — on every backend without
//!   touching call sites.  Unlike the two switches below, the backend is
//!   not a pure speed lever: all backends reach the same System-(2)
//!   objective, but `primal-dual` may pick a different optimal allocation
//!   than `monge`/`simplex` (which are bit-identical), so on-line
//!   schedules differ between them.
//! * `STRETCH_WARM_START` — `1`/`true` (the default) enables cross-event
//!   solver memory, `0`/`false` disables it; anything else aborts.  Warm
//!   start is a speed lever only: results are bit-identical either way
//!   (pinned by the differential-oracle suite), so the CI matrix crossing
//!   this knob is a determinism check, not a behaviour switch.
//! * `STRETCH_INCREMENTAL` — `1`/`true` (the default) keeps the parametric
//!   epochal structure alive across events and splices per-event deltas
//!   into it ([`crate::delta`]); `0`/`false` rebuilds it from scratch at
//!   every event; anything else aborts.  Like warm start this is purely a
//!   speed lever: incremental and rebuild solves are bit-identical by
//!   construction (same fill code, persistent buffers), pinned by the
//!   incremental-vs-rebuild differential oracle.
//!
//! Once-per-process means **changing the variables after the first
//! [`SolverConfig::default`] call has no effect** — tests that want to run
//! under several configurations must either pass explicit configs through
//! the `with_config` constructors (the usual way: no environment involved
//! at all) or, for code paths that really consult the process default, use
//! the `#[cfg(test)]`-only `SolverConfig::scoped_default` override, which
//! swaps the default for the duration of a closure on the current thread —
//! no subprocess per matrix cell needed.

use std::sync::OnceLock;
use stretch_flow::{BackendKind, MinCostBackend};

/// Configuration of the flow solvers used by the scheduling layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolverConfig {
    /// Which engine solves the System-(2) min-cost transportation problems.
    pub backend: BackendKind,
    /// Whether solver state (the simplex spanning-tree basis, the residual
    /// flow of the feasibility probes) may be carried across events.
    ///
    /// Default `true`.  Purely a performance knob: warm-started and cold
    /// solves return bit-identical objectives and allocations (the
    /// warm/cold identity contract, pinned by
    /// `crates/core/tests/backend_diff.rs`).
    pub warm_start: bool,
    /// Whether the solver keeps the parametric epochal structure **alive
    /// across events** and splices per-event deltas into it
    /// ([`crate::delta`]), instead of rebuilding `ParametricStructure` and
    /// the System-(2) transportation network from scratch at every arrival
    /// and completion.
    ///
    /// Default `true` (`STRETCH_INCREMENTAL`).  Like [`Self::warm_start`]
    /// this is purely a performance knob: the incremental path executes the
    /// same fill code over persistent buffers, so incremental and rebuild
    /// solves return bit-identical objectives and allocations (pinned by
    /// the incremental-vs-rebuild leg of
    /// `crates/core/tests/backend_diff.rs`).
    pub incremental: bool,
}

impl SolverConfig {
    /// The primal-dual reference backend (warm start enabled).
    pub fn primal_dual() -> Self {
        SolverConfig {
            backend: BackendKind::PrimalDual,
            warm_start: true,
            incremental: true,
        }
    }

    /// The network-simplex backend (warm start enabled).
    pub fn network_simplex() -> Self {
        SolverConfig {
            backend: BackendKind::NetworkSimplex,
            warm_start: true,
            incremental: true,
        }
    }

    /// The Monge/greedy product-form backend (warm start enabled).
    pub fn monge() -> Self {
        SolverConfig {
            backend: BackendKind::Monge,
            warm_start: true,
            incremental: true,
        }
    }

    /// This configuration with cross-event solver memory switched on or off.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// This configuration with the incremental (persistent-structure) event
    /// path switched on or off.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// One configuration per available backend, reference first (the shape
    /// the differential tests and benches iterate over).
    pub fn all_backends() -> impl Iterator<Item = SolverConfig> {
        BackendKind::ALL.into_iter().map(|backend| SolverConfig {
            backend,
            warm_start: true,
            incremental: true,
        })
    }

    /// Parses a backend name as `STRETCH_MINCOST_BACKEND` would; unknown
    /// names **abort with the offending string** and the list of valid
    /// names (a typo used to silently fall back to the primal-dual
    /// reference, running the whole CI matrix on the wrong backend).
    pub fn parse_backend(raw: &str) -> Self {
        match BackendKind::parse(raw) {
            Some(backend) => SolverConfig {
                backend,
                warm_start: true,
                incremental: true,
            },
            None => {
                let valid: Vec<&str> = BackendKind::ALL.iter().map(|b| b.name()).collect();
                panic!("STRETCH_MINCOST_BACKEND must be one of {valid:?}, got `{raw}`")
            }
        }
    }

    /// Parses a warm-start switch as `STRETCH_WARM_START` would: exactly
    /// `1`/`true`/`on` (enabled) or `0`/`false`/`off` (disabled),
    /// case-insensitive and whitespace-trimmed; anything else aborts with
    /// the offending string, consistent with the strict-parse policy of
    /// every other `STRETCH_*` knob.
    pub fn parse_warm_start(raw: &str) -> bool {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => true,
            "0" | "false" | "off" => false,
            _ => panic!("STRETCH_WARM_START must be one of 0/1, true/false or on/off, got `{raw}`"),
        }
    }

    /// Parses an incremental switch as `STRETCH_INCREMENTAL` would: exactly
    /// `1`/`true`/`on` (enabled, the default) or `0`/`false`/`off`
    /// (disabled), case-insensitive and whitespace-trimmed; anything else
    /// aborts with the offending string, consistent with the strict-parse
    /// policy of every other `STRETCH_*` knob.
    pub fn parse_incremental(raw: &str) -> bool {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => true,
            "0" | "false" | "off" => false,
            _ => {
                panic!("STRETCH_INCREMENTAL must be one of 0/1, true/false or on/off, got `{raw}`")
            }
        }
    }

    /// Reads `STRETCH_MINCOST_BACKEND`, `STRETCH_WARM_START` and
    /// `STRETCH_INCREMENTAL` (**uncached** — callers wanting the memoised
    /// process default use [`SolverConfig::default`]); unset variables fall
    /// back to the `monge` backend with warm start and incremental solving
    /// on, unrecognised values abort loudly (see
    /// [`Self::parse_backend`], [`Self::parse_warm_start`],
    /// [`Self::parse_incremental`]).
    pub fn from_env() -> Self {
        let backend = match std::env::var("STRETCH_MINCOST_BACKEND") {
            Err(std::env::VarError::NotPresent) => BackendKind::default(),
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("STRETCH_MINCOST_BACKEND must be valid unicode, got undecodable bytes")
            }
            Ok(raw) => Self::parse_backend(&raw).backend,
        };
        let warm_start = match std::env::var("STRETCH_WARM_START") {
            Err(std::env::VarError::NotPresent) => true,
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("STRETCH_WARM_START must be valid unicode, got undecodable bytes")
            }
            Ok(raw) => Self::parse_warm_start(&raw),
        };
        let incremental = match std::env::var("STRETCH_INCREMENTAL") {
            Err(std::env::VarError::NotPresent) => true,
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("STRETCH_INCREMENTAL must be valid unicode, got undecodable bytes")
            }
            Ok(raw) => Self::parse_incremental(&raw),
        };
        SolverConfig {
            backend,
            warm_start,
            incremental,
        }
    }

    /// Parses a positive integer knob value as [`Self::env_u64_nonzero`] would:
    /// whitespace-trimmed decimal, rejecting `0`, overflow and garbage
    /// loudly with the variable name and the offending string — the same
    /// strict-parse policy as every other `STRETCH_*` knob.  Public so the
    /// serve-layer knobs (`STRETCH_SERVE_SEGMENT_RECORDS`,
    /// `STRETCH_SERVE_SNAPSHOT_EVERY`, …) share one parser and one message
    /// shape.
    pub fn parse_env_u64_nonzero(name: &str, raw: &str) -> u64 {
        let trimmed = raw.trim();
        match trimmed.parse::<u64>() {
            Ok(0) => panic!("{name} must be a positive integer, got `{raw}` (zero is not valid)"),
            Ok(v) => v,
            Err(_) => panic!("{name} must be a positive integer that fits in 64 bits, got `{raw}`"),
        }
    }

    /// Reads environment variable `name` as a positive `u64`: unset falls
    /// back to `default`; `0`, overflow, non-numeric and non-unicode values
    /// abort loudly with the offending string (see
    /// [`Self::parse_env_u64_nonzero`]).
    pub fn env_u64_nonzero(name: &str, default: u64) -> u64 {
        match std::env::var(name) {
            Err(std::env::VarError::NotPresent) => default,
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!("{name} must be valid unicode, got undecodable bytes {raw:?}")
            }
            Ok(raw) => Self::parse_env_u64_nonzero(name, &raw),
        }
    }

    /// Instantiates the configured min-cost backend (honouring
    /// [`Self::warm_start`]: a cold configuration gets a backend that never
    /// reuses state across solves).
    pub fn instantiate(&self) -> Box<dyn MinCostBackend + Send> {
        self.backend.instantiate_with(self.warm_start)
    }

    /// Runs `f` with `config` installed as the process default **on the
    /// current thread** — the in-process alternative to spawning one
    /// subprocess per cell of the backend × warm-start matrix.
    ///
    /// Test-only by design (`#[cfg(test)]`): production code must never
    /// depend on a mutable default.  Overrides nest; the previous default is
    /// restored when `f` returns or panics.  Integration tests (which see
    /// the crate without `cfg(test)`) should pass explicit configurations
    /// through the `with_config` constructors instead.
    #[cfg(test)]
    pub fn scoped_default<R>(config: SolverConfig, f: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                test_override::OVERRIDE.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        test_override::OVERRIDE.with(|stack| stack.borrow_mut().push(config));
        let _guard = Guard;
        f()
    }
}

#[cfg(test)]
mod test_override {
    use super::SolverConfig;
    use std::cell::RefCell;

    thread_local! {
        /// Stack of scoped default overrides; see [`SolverConfig::scoped_default`].
        pub(super) static OVERRIDE: RefCell<Vec<SolverConfig>> = const { RefCell::new(Vec::new()) };
    }

    /// The innermost scoped override on this thread, if any.
    pub(super) fn current() -> Option<SolverConfig> {
        OVERRIDE.with(|stack| stack.borrow().last().copied())
    }
}

impl Default for SolverConfig {
    /// The process-wide default: `STRETCH_MINCOST_BACKEND` and
    /// `STRETCH_WARM_START` read **once** on first use (the schedulers
    /// construct solvers on hot paths; see the module docs for the
    /// consequences and the test-only escape hatch).
    fn default() -> Self {
        #[cfg(test)]
        if let Some(config) = test_override::current() {
            return config;
        }
        static DEFAULT: OnceLock<SolverConfig> = OnceLock::new();
        *DEFAULT.get_or_init(SolverConfig::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_constructors_name_their_backends() {
        assert_eq!(SolverConfig::primal_dual().backend.name(), "primal-dual");
        assert_eq!(SolverConfig::network_simplex().backend.name(), "simplex");
        assert_eq!(SolverConfig::monge().backend.name(), "monge");
        let all: Vec<_> = SolverConfig::all_backends().collect();
        assert_eq!(all.len(), 3);
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
    fn recognised_backend_names_parse() {
        // Exercising `parse_backend` directly avoids mutating the process
        // environment (this binary runs tests in parallel, and the CI matrix
        // relies on the variable).
        assert_eq!(
            SolverConfig::parse_backend("primal-dual"),
            SolverConfig::primal_dual()
        );
        assert_eq!(
            SolverConfig::parse_backend("simplex"),
            SolverConfig::network_simplex()
        );
        assert_eq!(SolverConfig::parse_backend("monge"), SolverConfig::monge());
    }

    #[test]
    fn backend_abort_message_lists_every_valid_name() {
        // PR 3 convention: malformed STRETCH_MINCOST_BACKEND values abort
        // loudly — and the message must name every parseable backend, so a
        // typo'd CI matrix cell tells the operator the full menu.  This
        // regression-proofs the list against future backend additions:
        // `BackendKind::ALL` drives both the parser and the message.
        let panic = std::panic::catch_unwind(|| SolverConfig::parse_backend("bogus"))
            .expect_err("unknown names must abort");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        for kind in BackendKind::ALL {
            assert!(
                message.contains(kind.name()),
                "abort message must list `{}`, got: {message}",
                kind.name()
            );
        }
        assert!(message.contains("`bogus`"), "offending string echoed");
    }

    #[test]
    fn warm_start_switch_parses_strictly() {
        assert!(SolverConfig::parse_warm_start("1"));
        assert!(SolverConfig::parse_warm_start("true"));
        assert!(!SolverConfig::parse_warm_start("0"));
        assert!(!SolverConfig::parse_warm_start(" off "));
    }

    #[test]
    #[should_panic(expected = "got `definitely-not-a-backend`")]
    fn unrecognised_backend_names_abort_with_the_offending_string() {
        SolverConfig::parse_backend("definitely-not-a-backend");
    }

    #[test]
    #[should_panic(expected = "got `2`")]
    fn unrecognised_warm_start_values_abort_with_the_offending_string() {
        SolverConfig::parse_warm_start("2");
    }

    #[test]
    fn incremental_switch_parses_strictly() {
        assert!(SolverConfig::parse_incremental("1"));
        assert!(SolverConfig::parse_incremental("true"));
        assert!(SolverConfig::parse_incremental(" On "));
        assert!(!SolverConfig::parse_incremental("0"));
        assert!(!SolverConfig::parse_incremental(" off "));
    }

    #[test]
    fn incremental_is_on_by_default_and_togglable() {
        assert!(
            SolverConfig::all_backends().all(|c| c.incremental),
            "incremental is the default"
        );
        let cold = SolverConfig::monge().with_incremental(false);
        assert!(!cold.incremental);
        assert_eq!(cold.with_incremental(true), SolverConfig::monge());
    }

    #[test]
    #[should_panic(expected = "STRETCH_INCREMENTAL must be one of 0/1, true/false or on/off")]
    fn unrecognised_incremental_values_abort_with_the_offending_string() {
        SolverConfig::parse_incremental("maybe");
    }

    #[test]
    fn u64_knobs_parse_strictly() {
        // The serve-layer knobs (STRETCH_SERVE_SEGMENT_RECORDS,
        // STRETCH_SERVE_SEGMENT_BYTES, STRETCH_SERVE_SNAPSHOT_EVERY,
        // STRETCH_SERVE_SNAPSHOT_RETAIN) all parse through this helper, so
        // exercising it directly covers them without touching the process
        // environment.
        assert_eq!(
            SolverConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_RECORDS", "1024"),
            1024
        );
        assert_eq!(
            SolverConfig::parse_env_u64_nonzero("STRETCH_SERVE_SNAPSHOT_EVERY", " 2 "),
            2,
            "values are whitespace-trimmed"
        );
        assert_eq!(
            SolverConfig::parse_env_u64_nonzero("X", &u64::MAX.to_string()),
            u64::MAX
        );
    }

    #[test]
    #[should_panic(expected = "STRETCH_SERVE_SEGMENT_RECORDS must be a positive integer")]
    fn zero_u64_knob_values_abort_with_the_variable_name() {
        // A zero segment threshold would rotate on every record (or never),
        // so it is rejected rather than reinterpreted.
        SolverConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_RECORDS", "0");
    }

    #[test]
    #[should_panic(expected = "got `18446744073709551616`")]
    fn overflowing_u64_knob_values_abort_with_the_offending_string() {
        // One past u64::MAX.
        SolverConfig::parse_env_u64_nonzero(
            "STRETCH_SERVE_SNAPSHOT_RETAIN",
            "18446744073709551616",
        );
    }

    #[test]
    #[should_panic(expected = "got `37 segments`")]
    fn non_numeric_u64_knob_values_abort_with_the_offending_string() {
        SolverConfig::parse_env_u64_nonzero("STRETCH_SERVE_SEGMENT_BYTES", "37 segments");
    }

    #[test]
    fn unset_u64_knob_falls_back_to_the_default() {
        // The variable name is deliberately one no harness sets.
        assert_eq!(
            SolverConfig::env_u64_nonzero("STRETCH_TEST_UNSET_KNOB_7F3A", 42),
            42
        );
    }

    #[test]
    fn scoped_default_overrides_and_restores() {
        let ambient = SolverConfig::default();
        let forced = SolverConfig::network_simplex().with_warm_start(false);
        let seen = SolverConfig::scoped_default(forced, SolverConfig::default);
        assert_eq!(seen, forced, "the override is the default inside");
        // Overrides nest.
        let inner = SolverConfig::scoped_default(forced, || {
            SolverConfig::scoped_default(SolverConfig::primal_dual(), SolverConfig::default)
        });
        assert_eq!(inner, SolverConfig::primal_dual());
        assert_eq!(
            SolverConfig::default(),
            ambient,
            "the ambient default is restored outside"
        );
    }

    #[test]
    fn scoped_default_drives_default_built_solvers() {
        // The point of the override: code that takes no config — here the
        // default-config parametric solver — runs under the forced matrix
        // cell without a subprocess.
        for backend in [SolverConfig::primal_dual(), SolverConfig::network_simplex()] {
            for warm in [false, true] {
                let forced = backend.with_warm_start(warm);
                let seen = SolverConfig::scoped_default(forced, || {
                    crate::ParametricDeadlineSolver::new().config()
                });
                assert_eq!(seen, forced);
            }
        }
    }
}
