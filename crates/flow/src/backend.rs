//! Pluggable back-ends for the minimum-cost solve.
//!
//! The System-(2) re-allocation — the dominant per-event cost of the on-line
//! schedulers — bottoms out in one operation: *ship every demand of a
//! bipartite transportation instance at minimum cost*.  Two algorithm
//! families solve it with very different constant factors, so the
//! operation is abstracted behind [`MinCostBackend`]:
//!
//! * [`PrimalDualBackend`] — the Hungarian-style primal-dual kernel of
//!   [`crate::mincost`] on the instance's residual network, the
//!   **reference implementation**.  Every other backend is cross-checked
//!   against it by the differential-oracle test harness
//!   (`crates/core/tests/backend_diff.rs`).
//! * [`crate::simplex::NetworkSimplexBackend`] — a network simplex on a
//!   spanning-tree basis with strongly-feasible pivots, loading its arcs
//!   straight from the instance and warm-startable from the previous
//!   solve's basis, mapped onto the next instance through a
//!   [`crate::remap::BasisRemap`] by the instance's stable keys
//!   ([`TransportInstance::set_stable_keys`]).  The default.
//!
//! # Contract
//!
//! [`MinCostBackend::solve`] receives a [`TransportInstance`] and returns
//! either `None`, when the instance is infeasible (the best flow falls
//! short of the total demand by more than
//! [`crate::acceptance_tolerance`]), or a [`TransportSolution`] that
//!
//! 1. ships the total demand up to that tolerance;
//! 2. is of minimum cost **among flows of its value** (the invariant
//!    feasibility checks and cost comparisons downstream rely on);
//! 3. lists one allocation per route carrying more than
//!    [`crate::FLOW_EPS`], in route order.
//!
//! An instance whose every route costs zero never reaches a backend:
//! [`TransportInstance::solve_min_cost_with_backend`] ships it with the
//! Dinic max-flow kernel, which every feasible flow is optimal for.
//!
//! Backend selection is threaded through the scheduling layer by
//! `stretch_core::SolverConfig`; [`BackendKind`] is the serialisable tag the
//! configuration, the serve ladder and the bench rows use to name a
//! backend.

use crate::mincost::min_cost_flow_up_to;
use crate::transport::{TransportInstance, TransportSolution};
use crate::workspace::FlowWorkspace;

/// A minimum-cost transportation solver usable by the scheduling layer.
///
/// Implementations are stateful (`&mut self`) so they can keep scratch
/// memory — and, for the network simplex, the previous spanning-tree basis —
/// alive across solves; see the module docs for the exact contract.
///
/// ```
/// use stretch_flow::{FlowWorkspace, MinCostBackend, PrimalDualBackend, TransportInstance};
///
/// let mut t = TransportInstance::new(1, 2);
/// t.set_demand(0, 2.0);
/// t.set_capacity(0, 1.0);
/// t.set_capacity(1, 2.0);
/// t.add_route(0, 0, 1.0);
/// t.add_route(0, 1, 3.0);
/// let sol = PrimalDualBackend
///     .solve(&t, &mut FlowWorkspace::new())
///     .expect("feasible");
/// assert!((sol.shipped - 2.0).abs() < 1e-9);
/// assert!((sol.cost - 4.0).abs() < 1e-9);
/// assert!((sol.amount(0, 1) - 1.0).abs() < 1e-9);
/// ```
pub trait MinCostBackend {
    /// Stable display name (used by benches and diagnostics).
    fn name(&self) -> &'static str;

    /// Ships every demand of `instance` at minimum cost, or returns `None`
    /// when the instance is infeasible.
    ///
    /// A basis-carrying backend (the network simplex) reads the instance's
    /// stable keys: they seed its tie-break among equal-cost optima and let
    /// it remap its previous solve onto this one.  The remap only decides
    /// how much work the solve takes, never which solution it returns (the
    /// warm/cold bit-identity contract, pinned by the differential-oracle
    /// suite).  Stateless backends ignore the keys.
    fn solve(
        &mut self,
        instance: &TransportInstance,
        workspace: &mut FlowWorkspace,
    ) -> Option<TransportSolution>;
}

/// The reference backend: successive shortest paths in Hungarian primal-dual
/// form ([`crate::mincost::min_cost_flow_up_to`]) on the instance's residual
/// network, built afresh for every solve.
///
/// Stateless — all scratch lives in the caller's [`FlowWorkspace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PrimalDualBackend;

impl MinCostBackend for PrimalDualBackend {
    fn name(&self) -> &'static str {
        "primal-dual"
    }

    fn solve(
        &mut self,
        instance: &TransportInstance,
        workspace: &mut FlowWorkspace,
    ) -> Option<TransportSolution> {
        instance.solve_on_network(|network, source, sink, target| {
            let r = min_cost_flow_up_to(network, source, sink, target, workspace);
            (r.flow, r.cost)
        })
    }
}

/// Serialisable tag naming a [`MinCostBackend`] implementation.
///
/// The default is [`BackendKind::NetworkSimplex`], the faster backend on
/// System-(2) instances beyond a few jobs; [`BackendKind::PrimalDual`]
/// stays the reference oracle it is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The primal-dual reference kernel ([`PrimalDualBackend`]).
    PrimalDual,
    /// The network simplex ([`crate::simplex::NetworkSimplexBackend`]).
    /// The default.
    #[default]
    NetworkSimplex,
}

impl BackendKind {
    /// Every available backend, reference first.
    pub const ALL: [BackendKind; 2] = [BackendKind::PrimalDual, BackendKind::NetworkSimplex];

    /// The stable name used by diagnostics and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::PrimalDual => "primal-dual",
            BackendKind::NetworkSimplex => "simplex",
        }
    }

    /// Instantiates the backend this tag names, with cross-solve warm start
    /// enabled.
    pub fn instantiate(&self) -> Box<dyn MinCostBackend + Send> {
        self.instantiate_with(true)
    }

    /// Instantiates the backend this tag names, selecting whether it may
    /// keep solver state (basis memory) across solves.
    ///
    /// `warm_start = false` yields the *cold* reference configuration: every
    /// solve starts from scratch, and an instance's stable keys only seed
    /// its tie-break.  Results must be bit-identical either way — warm start is a
    /// speed lever, never a semantics lever.
    pub fn instantiate_with(&self, warm_start: bool) -> Box<dyn MinCostBackend + Send> {
        match self {
            BackendKind::PrimalDual => Box::new(PrimalDualBackend),
            BackendKind::NetworkSimplex => Box::new(
                crate::simplex::NetworkSimplexBackend::with_warm_start(warm_start),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_their_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.instantiate().name(), kind.name());
        }
    }

    #[test]
    fn simplex_is_the_default_and_primal_dual_the_reference() {
        assert_eq!(BackendKind::default(), BackendKind::NetworkSimplex);
        assert_eq!(BackendKind::ALL[0], BackendKind::PrimalDual);
    }

    #[test]
    fn primal_dual_backend_matches_the_kernel() {
        let mut t = TransportInstance::new(2, 2);
        t.set_demand(0, 1.0);
        t.set_demand(1, 1.0);
        t.set_capacity(0, 1.0);
        t.set_capacity(1, 1.0);
        t.add_route(0, 0, 1.0);
        t.add_route(1, 1, 5.0);
        t.add_route(1, 0, 2.0);
        let sol = PrimalDualBackend
            .solve(&t, &mut FlowWorkspace::new())
            .expect("feasible");
        let (mut g, _, s, sink) = t.network();
        let r = crate::mincost::min_cost_max_flow(&mut g, s, sink);
        assert!((sol.shipped - r.flow).abs() < 1e-9);
        assert!((sol.cost - r.cost).abs() < 1e-9);
        assert!((sol.cost - 6.0).abs() < 1e-9);
    }
}
