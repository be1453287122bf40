//! Pluggable back-ends for the minimum-cost solve.
//!
//! The System-(2) re-allocation — the dominant per-event cost of the on-line
//! schedulers — bottoms out in one operation: *ship every demand at minimum
//! cost on a bipartite transportation network*.  Two algorithm families solve
//! it with very different constant factors, and which one wins depends on the
//! instance shape, so the operation is abstracted behind [`MinCostBackend`]:
//!
//! * [`PrimalDualBackend`] — the Hungarian-style primal-dual kernel of
//!   [`crate::mincost`], the **reference implementation**.  Every other
//!   backend is cross-checked against it by the differential-oracle test
//!   harness (`crates/core/tests/backend_diff.rs`).
//! * [`crate::simplex::NetworkSimplexBackend`] — a network simplex on a
//!   spanning-tree basis with strongly-feasible pivots, warm-startable from
//!   the previous solve's basis: in place when the arc topology repeats, or
//!   through a [`crate::remap::BasisRemap`] when the shape changed but the
//!   caller supplied stable node keys via [`MinCostBackend::warm_hint`].
//!   The default.
//!
//! # Contract
//!
//! [`MinCostBackend::solve_up_to`] receives a residual network **carrying no
//! flow** (freshly built, or [`crate::FlowNetwork::reset`]); it must leave the
//! computed flow *in* the network (so callers read per-edge amounts with
//! [`crate::FlowNetwork::flow_on`]) and return the shipped value and its
//! cost.  The returned flow must be
//!
//! 1. of value at least `min(target, max-flow value)` — a backend may stop
//!    early once `target` is covered, or solve to the exact maximum;
//! 2. of minimum cost **among flows of its value** (the invariant feasibility
//!    checks and cost comparisons downstream rely on).
//!
//! Backend selection is threaded through the scheduling layer by
//! `stretch_core::SolverConfig`; [`BackendKind`] is the serialisable tag the
//! configuration, the serve ladder and the bench rows use to name a
//! backend.

use crate::graph::FlowNetwork;
use crate::mincost::{min_cost_flow_up_to, MinCostResult};
use crate::workspace::FlowWorkspace;

/// Reserved stable key of the super-source node in a
/// [`MinCostBackend::warm_hint`] key vector.
///
/// Callers key *their* nodes (jobs, bins) however they like, but the two
/// artificial endpoints of a transportation network should use these
/// reserved values so they match across events whatever the network shape.
pub const KEY_SUPER_SOURCE: u64 = u64::MAX - 1;

/// Reserved stable key of the super-sink node in a
/// [`MinCostBackend::warm_hint`] key vector; see [`KEY_SUPER_SOURCE`].
pub const KEY_SUPER_SINK: u64 = u64::MAX - 2;

/// A minimum-cost flow solver usable by the scheduling layer.
///
/// Implementations are stateful (`&mut self`) so they can keep scratch
/// memory — and, for the network simplex, the previous spanning-tree basis —
/// alive across solves; see the module docs for the exact contract.
///
/// ```
/// use stretch_flow::{FlowNetwork, FlowWorkspace, MinCostBackend, PrimalDualBackend};
///
/// let mut g = FlowNetwork::new(3);
/// g.add_edge(0, 1, 2.0, 0.0);
/// g.add_edge(1, 2, 2.0, 3.0);
/// let mut backend = PrimalDualBackend;
/// let r = backend.solve_up_to(&mut g, 0, 2, f64::INFINITY, &mut FlowWorkspace::new());
/// assert!((r.flow - 2.0).abs() < 1e-9);
/// assert!((r.cost - 6.0).abs() < 1e-9);
/// // The flow is left in the network for the caller to read back.
/// assert!((g.flow_on(2) - 2.0).abs() < 1e-9);
/// ```
pub trait MinCostBackend {
    /// Stable display name (used by benches and diagnostics).
    fn name(&self) -> &'static str;

    /// Supplies stable node identities for the **next** [`Self::solve_up_to`]
    /// call: `node_keys[v]` is a caller-chosen key for node `v` of the next
    /// network, equal across solves exactly when the node denotes the same
    /// logical entity (the scheduling layer keys jobs by instance-wide job
    /// id and bins by `(site, interval position)`; the artificial endpoints
    /// use [`KEY_SUPER_SOURCE`] / [`KEY_SUPER_SINK`]).
    ///
    /// Purely a performance hint: backends with cross-solve state (the
    /// network simplex) use it to remap the previous basis onto the next
    /// network even when the topology changed; stateless backends ignore it,
    /// and results must be identical either way (the warm/cold bit-identity
    /// contract, pinned by the differential-oracle suite).
    fn warm_hint(&mut self, _node_keys: &[u64]) {}

    /// Ships flow from `source` to `sink` at minimum cost, stopping once
    /// `target` units are shipped (or at the maximum flow if it is smaller).
    ///
    /// The network must carry no flow on entry; the computed flow is left in
    /// the network's residual state.
    fn solve_up_to(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
    ) -> MinCostResult;
}

/// The reference backend: successive shortest paths in Hungarian primal-dual
/// form ([`crate::mincost::min_cost_flow_up_to`]).
///
/// Stateless — all scratch lives in the caller's [`FlowWorkspace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PrimalDualBackend;

impl MinCostBackend for PrimalDualBackend {
    fn name(&self) -> &'static str {
        "primal-dual"
    }

    fn solve_up_to(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
    ) -> MinCostResult {
        min_cost_flow_up_to(network, source, sink, target, workspace)
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

    /// Instantiates the backend this tag names, with every cross-solve
    /// warm-start tier enabled.
    pub fn instantiate(&self) -> Box<dyn MinCostBackend + Send> {
        self.instantiate_with(true)
    }

    /// Instantiates the backend this tag names, selecting whether it may
    /// keep solver state (basis memory) across solves.
    ///
    /// `warm_start = false` yields the *cold* reference configuration: every
    /// solve starts from scratch and [`MinCostBackend::warm_hint`] is
    /// ignored.  Results must be bit-identical either way — warm start is a
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
        let build = || {
            let mut g = FlowNetwork::new(4);
            g.add_edge(0, 1, 1.0, 0.0);
            g.add_edge(1, 3, 1.0, 1.0);
            g.add_edge(0, 2, 1.0, 0.0);
            g.add_edge(2, 3, 1.0, 5.0);
            g
        };
        let mut ws = FlowWorkspace::new();
        let mut g1 = build();
        let r1 = PrimalDualBackend.solve_up_to(&mut g1, 0, 3, f64::INFINITY, &mut ws);
        let mut g2 = build();
        let r2 = crate::mincost::min_cost_max_flow(&mut g2, 0, 3);
        assert!((r1.flow - r2.flow).abs() < 1e-9);
        assert!((r1.cost - r2.cost).abs() < 1e-9);
    }
}
