//! # stretch-flow
//!
//! Network-flow solvers used as the *fast* back-end for the two linear
//! programs of the paper:
//!
//! * the deadline-scheduling feasibility check behind **System (1)** is a
//!   transportation problem — each job must route `W_j` units of work to
//!   `(machine, interval)` bins whose capacity is the amount of work the
//!   machine can perform during the interval; it is feasible iff the maximum
//!   flow saturates every job source ([`maxflow`]);
//! * **System (2)** — spreading work as early as possible under the optimal
//!   max-stretch deadlines — is a minimum-cost maximum-flow where the cost of
//!   a unit of job `j`'s work in interval `t` is the interval midpoint divided
//!   by `W_j` ([`mincost`]).
//!
//! Both solvers work on floating-point capacities with an explicit tolerance,
//! which matches the divisible-load model (work amounts are continuous).
//! A higher-level [`transport`] module exposes the bipartite structure
//! directly so callers never build raw graphs.
//!
//! Two modules serve the hot path of the schedulers:
//!
//! * [`workspace`] provides [`FlowWorkspace`], the preallocated scratch all
//!   `*_with` solver entry points reuse across probes and augmentations;
//! * [`parametric`] provides [`ParametricNetwork`], a bipartite network with
//!   frozen adjacency whose bin/route capacities are rebound in place
//!   between feasibility probes, warm-starting from the previous residual
//!   flow and stopping as soon as the demand is covered.
//!
//! The minimum-cost solve itself is pluggable: [`backend`] defines the
//! [`MinCostBackend`] trait, one call from a [`TransportInstance`] to its
//! [`TransportSolution`], with the primal-dual kernel as the reference
//! implementation and a warm-startable network simplex ([`simplex`]) as the
//! default engine, cross-checked by the differential-oracle tests in
//! `stretch-core`.  The simplex loads its arcs straight from the instance
//! and carries its spanning-tree basis **across events**: [`remap`] maps
//! the previous solve's basis onto a structurally different instance
//! through the stable keys the instance carries
//! ([`TransportInstance::set_stable_keys`]), and a lexicographic tie-break
//! plus canonical basis extraction keep warm-started and cold solves
//! bit-identical.

#![deny(missing_docs)]

#[cfg(feature = "invariant-audit")]
pub mod audit;
pub mod backend;
pub mod fasthash;
pub mod graph;
pub mod maxflow;
pub mod mincost;
pub mod parametric;
pub mod remap;
pub mod simplex;
pub mod transport;
pub mod workspace;

pub use backend::{BackendKind, MinCostBackend, PrimalDualBackend};
pub use fasthash::FastMap;
pub use graph::FlowNetwork;
pub use maxflow::MaxFlowResult;
pub use mincost::MinCostResult;
pub use parametric::ParametricNetwork;
pub use remap::BasisRemap;
pub use simplex::{NetworkSimplexBackend, STATE_LOWER, STATE_TREE, STATE_UPPER};
pub use transport::{acceptance_tolerance, TransportInstance, TransportSolution};
pub use workspace::FlowWorkspace;

/// Tolerance under which a residual capacity is considered exhausted.
pub const FLOW_EPS: f64 = 1e-9;
