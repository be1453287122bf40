//! Bipartite transportation problems.
//!
//! This is the shape of both linear systems of the paper once the epochal
//! intervals are fixed:
//!
//! * **sources** are jobs, each with a demand equal to its remaining work;
//! * **bins** are `(machine, interval)` pairs, each with a capacity equal to
//!   the amount of work that machine can perform during that interval;
//! * a **route** `(job, bin)` exists when the machine hosts the job's
//!   databank and the interval lies between the job's release date and its
//!   deadline; its cost is the System-(2) weight (interval midpoint divided
//!   by the job size) or zero for a pure feasibility check.

use crate::backend::MinCostBackend;
use crate::graph::FlowNetwork;
use crate::maxflow::max_flow_with;
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// How much of a transportation instance's total `demand` a solve may leave
/// unshipped and still be accepted as feasible: `max(1e-6, 1e-9 · demand)`.
///
/// Every min-cost and zero-cost solve of a [`TransportInstance`] judges its
/// flow against this bound.  A caller deciding whether an accepted
/// shipment finished a job reads the bound from here, so the two verdicts
/// cannot drift apart.
pub fn acceptance_tolerance(demand: f64) -> f64 {
    1e-6_f64.max(demand * 1e-9)
}

/// A bipartite transportation instance.
#[derive(Clone, Debug, Default)]
pub struct TransportInstance {
    demands: Vec<f64>,
    capacities: Vec<f64>,
    routes: Vec<(usize, usize, f64)>,
    /// Optional stable identities (per source, per bin) handed to the
    /// min-cost backend as a cross-solve warm-start hint.
    stable_keys: Option<(Vec<u64>, Vec<u64>)>,
}

/// Persistent construction scratch for repeated transportation solves: the
/// flow network, the degree counts, the route-edge handles and the key
/// buffer a solve would otherwise allocate afresh.
///
/// An arena makes [`TransportInstance::solve_min_cost_in`] allocation-free
/// at steady state — the incremental event path of the scheduling layer
/// holds one arena per solver and rebuilds the network into it at every
/// event.  The network built into an arena is **element-identical** to the
/// one a from-scratch solve builds (same node count, same
/// [`FlowNetwork::add_edge`] sequence, same capacities and costs), so
/// routing a solve through an arena never changes its result — only where
/// the memory comes from.
///
/// ```
/// use stretch_flow::{FlowWorkspace, PrimalDualBackend, TransportArena, TransportInstance};
///
/// let mut t = TransportInstance::new(1, 2);
/// t.set_demand(0, 4.0);
/// t.set_capacity(0, 3.0);
/// t.set_capacity(1, 3.0);
/// t.add_route(0, 0, 1.0);
/// t.add_route(0, 1, 10.0);
/// let mut arena = TransportArena::default();
/// let mut ws = FlowWorkspace::new();
/// let sol = t
///     .solve_min_cost_in(&mut PrimalDualBackend, &mut ws, &mut arena)
///     .expect("feasible");
/// // Identical to the allocating path, reusable for the next event.
/// assert_eq!(
///     sol.cost.to_bits(),
///     t.solve_min_cost().expect("feasible").cost.to_bits()
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct TransportArena {
    network: FlowNetwork,
    degrees: Vec<usize>,
    route_edges: Vec<usize>,
    keys: Vec<u64>,
}

impl TransportArena {
    /// Creates an empty arena; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solution of a transportation instance.
#[derive(Clone, Debug)]
pub struct TransportSolution {
    /// `(source, bin, amount)` triples with strictly positive amounts.
    pub allocations: Vec<(usize, usize, f64)>,
    /// Total cost of the allocation.
    pub cost: f64,
    /// Total amount shipped (equals the total demand when feasible).
    pub shipped: f64,
}

impl TransportSolution {
    /// Amount shipped from `source` to `bin` (zero if no allocation).
    pub fn amount(&self, source: usize, bin: usize) -> f64 {
        self.allocations
            .iter()
            .filter(|&&(s, b, _)| s == source && b == bin)
            .map(|&(_, _, a)| a)
            .sum()
    }

    /// Total amount shipped out of one source.
    pub fn shipped_from(&self, source: usize) -> f64 {
        self.allocations
            .iter()
            .filter(|&&(s, _, _)| s == source)
            .map(|&(_, _, a)| a)
            .sum()
    }

    /// Total amount received by one bin.
    pub fn received_by(&self, bin: usize) -> f64 {
        self.allocations
            .iter()
            .filter(|&&(_, b, _)| b == bin)
            .map(|&(_, _, a)| a)
            .sum()
    }
}

impl TransportInstance {
    /// Creates an instance with the given number of sources and bins, all
    /// demands and capacities zero and no routes.
    pub fn new(num_sources: usize, num_bins: usize) -> Self {
        TransportInstance {
            demands: vec![0.0; num_sources],
            capacities: vec![0.0; num_bins],
            routes: Vec::new(),
            stable_keys: None,
        }
    }

    /// Attaches stable identities to the sources and bins, forwarded to the
    /// min-cost backend as a [`MinCostBackend::warm_hint`] before solving.
    ///
    /// Keys equal across instances exactly when the node denotes the same
    /// logical entity (the scheduler keys jobs by instance-wide job id and
    /// bins by `(site, interval position)`), letting a basis-carrying
    /// backend warm-start across *events* even though every event builds a
    /// fresh instance of a different shape.  The keys also seed the
    /// backend's deterministic tie-break among equal-cost optima, so two
    /// solves of the same instance are bit-identical exactly when they are
    /// given the same keys (warm or cold, with or without carried state) —
    /// a keyed and an unkeyed solve may legitimately return different
    /// optimal vertices.
    pub fn set_stable_keys(&mut self, source_keys: Vec<u64>, bin_keys: Vec<u64>) {
        assert_eq!(source_keys.len(), self.num_sources(), "one key per source");
        assert_eq!(bin_keys.len(), self.num_bins(), "one key per bin");
        self.stable_keys = Some((source_keys, bin_keys));
    }

    /// [`TransportInstance::set_stable_keys`] copying from slices into the
    /// instance's existing key buffers — the allocation-free variant for
    /// callers that [`TransportInstance::reset`] and refill one persistent
    /// instance per event.
    pub fn set_stable_keys_from(&mut self, source_keys: &[u64], bin_keys: &[u64]) {
        assert_eq!(source_keys.len(), self.num_sources(), "one key per source");
        assert_eq!(bin_keys.len(), self.num_bins(), "one key per bin");
        let (sources, bins) = self
            .stable_keys
            .get_or_insert_with(|| (Vec::new(), Vec::new()));
        sources.clear();
        sources.extend_from_slice(source_keys);
        bins.clear();
        bins.extend_from_slice(bin_keys);
    }

    /// Clears the instance down to `num_sources` zero-demand sources and
    /// `num_bins` zero-capacity bins with no routes, **reusing every
    /// buffer** — the in-place counterpart of [`TransportInstance::new`]
    /// for callers refilling one persistent instance per event.
    ///
    /// Stable keys are kept until overwritten: a caller routing solves
    /// through [`TransportInstance::set_stable_keys_from`] must re-set them
    /// after every reset (the scheduling layer does), since the previous
    /// event's keys are meaningless against the new shape.
    pub fn reset(&mut self, num_sources: usize, num_bins: usize) {
        self.demands.clear();
        self.demands.resize(num_sources, 0.0);
        self.capacities.clear();
        self.capacities.resize(num_bins, 0.0);
        self.routes.clear();
    }

    /// Number of sources (jobs).
    pub fn num_sources(&self) -> usize {
        self.demands.len()
    }

    /// Number of bins (machine × interval slots).
    pub fn num_bins(&self) -> usize {
        self.capacities.len()
    }

    /// Sets the demand (remaining work) of a source.
    pub fn set_demand(&mut self, source: usize, demand: f64) {
        assert!(demand >= 0.0 && demand.is_finite());
        self.demands[source] = demand;
    }

    /// Sets the capacity of a bin.
    pub fn set_capacity(&mut self, bin: usize, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.capacities[bin] = capacity;
    }

    /// Demand of a source.
    pub fn demand(&self, source: usize) -> f64 {
        self.demands[source]
    }

    /// Capacity of a bin.
    pub fn capacity(&self, bin: usize) -> f64 {
        self.capacities[bin]
    }

    /// Declares that `source` may ship through `bin` at the given unit cost.
    pub fn add_route(&mut self, source: usize, bin: usize, cost: f64) {
        assert!(source < self.num_sources() && bin < self.num_bins());
        assert!(cost.is_finite());
        self.routes.push((source, bin, cost));
    }

    /// The declared routes, as `(source, bin, cost)` triples.
    pub fn routes(&self) -> &[(usize, usize, f64)] {
        &self.routes
    }

    /// Total demand of all sources.
    pub fn total_demand(&self) -> f64 {
        self.demands.iter().sum()
    }

    fn build_network(&self) -> (FlowNetwork, Vec<usize>, usize, usize) {
        let mut arena = TransportArena::new();
        let (source, sink) = self.build_network_into(&mut arena);
        (arena.network, arena.route_edges, source, sink)
    }

    /// Builds the residual network into `arena`, reusing its buffers.
    ///
    /// The construction sequence is the single source of truth for *every*
    /// solve path (fresh or arena-reusing): exact degree counts, source
    /// edges for positive demands, sink edges for positive capacities, then
    /// one route edge per declared route, capped at its source's demand.
    fn build_network_into(&self, arena: &mut TransportArena) -> (usize, usize) {
        let ns = self.num_sources();
        let nb = self.num_bins();
        let source = ns + nb;
        let sink = ns + nb + 1;
        arena.network.rebuild(ns + nb + 2);
        // Exact degree counts: the network is rebuilt per solve, so bulk
        // construction without adjacency reallocation matters on hot paths.
        arena.degrees.clear();
        arena.degrees.resize(ns + nb + 2, 0);
        let degrees = &mut arena.degrees;
        degrees[source] = ns;
        degrees[sink] = nb;
        for degree in degrees[..ns].iter_mut() {
            *degree += 1; // source edge
        }
        for degree in degrees[ns..ns + nb].iter_mut() {
            *degree += 1; // sink edge
        }
        for &(j, b, _) in &self.routes {
            degrees[j] += 1;
            degrees[ns + b] += 1;
        }
        let g = &mut arena.network;
        g.reserve(ns + nb + self.routes.len(), degrees);
        for (j, &d) in self.demands.iter().enumerate() {
            if d > 0.0 {
                g.add_edge(source, j, d, 0.0);
            }
        }
        for (b, &c) in self.capacities.iter().enumerate() {
            if c > 0.0 {
                g.add_edge(ns + b, sink, c, 0.0);
            }
        }
        arena.route_edges.clear();
        arena.route_edges.reserve(self.routes.len());
        for &(j, b, cost) in &self.routes {
            // A route can never carry more than its source's demand; using the
            // demand as capacity (instead of "infinity") keeps `flow_on`
            // numerically exact.
            let cap = self.demands[j];
            arena.route_edges.push(g.add_edge(j, ns + b, cap, cost));
        }
        (source, sink)
    }

    /// Maximum total amount that can be shipped (regardless of cost).
    pub fn max_shippable(&self) -> f64 {
        let (mut g, _, s, t) = self.build_network();
        max_flow_with(&mut g, s, t, f64::INFINITY, &mut FlowWorkspace::new()).value
    }

    /// `true` when every source can ship its entire demand.
    pub fn is_feasible(&self) -> bool {
        self.is_feasible_with_tolerance(1e-6)
    }

    /// Feasibility with an explicit relative/absolute tolerance.
    pub fn is_feasible_with_tolerance(&self, tol: f64) -> bool {
        self.is_feasible_with(tol, &mut FlowWorkspace::new())
    }

    /// [`TransportInstance::is_feasible_with_tolerance`] reusing caller
    /// scratch, with an early exit as soon as the demand is covered.
    pub fn is_feasible_with(&self, tol: f64, workspace: &mut FlowWorkspace) -> bool {
        let demand = self.total_demand();
        if demand <= FLOW_EPS {
            return true;
        }
        let slack = tol.max(demand * tol);
        let (mut g, _, s, t) = self.build_network();
        let shipped = max_flow_with(&mut g, s, t, demand - slack, workspace).value;
        shipped >= demand - slack
    }

    /// Ships every demand at minimum total cost.
    ///
    /// Returns `None` when the instance is infeasible (some demand cannot be
    /// routed), in which case callers should treat the corresponding deadline
    /// set as unachievable.
    pub fn solve_min_cost(&self) -> Option<TransportSolution> {
        self.solve_min_cost_with(&mut FlowWorkspace::new())
    }

    /// [`TransportInstance::solve_min_cost`] reusing caller scratch.
    ///
    /// When every route cost is zero the min-cost structure is irrelevant
    /// and the (much faster) blocking-flow max-flow kernel is used instead
    /// of successive shortest paths.
    pub fn solve_min_cost_with(&self, workspace: &mut FlowWorkspace) -> Option<TransportSolution> {
        self.solve_min_cost_with_backend(&mut crate::backend::PrimalDualBackend, workspace)
    }

    /// [`TransportInstance::solve_min_cost_with`] on an explicit
    /// [`MinCostBackend`].
    ///
    /// The zero-cost fast path (pure max-flow) applies whatever the backend:
    /// with an all-zero objective every feasible shipment is minimum-cost,
    /// so the choice of min-cost engine is immaterial.
    pub fn solve_min_cost_with_backend(
        &self,
        backend: &mut dyn MinCostBackend,
        workspace: &mut FlowWorkspace,
    ) -> Option<TransportSolution> {
        self.solve_min_cost_in(backend, workspace, &mut TransportArena::new())
    }

    /// [`TransportInstance::solve_min_cost_with_backend`] building the
    /// network into a caller-held [`TransportArena`] instead of fresh
    /// allocations.
    ///
    /// Bit-identical to the allocating path by construction — both build
    /// the network through the same edge sequence and run the same backend
    /// call — but allocation-free at steady state, which is what makes the
    /// incremental event path of the scheduling layer cheaper than a warm
    /// from-scratch solve.
    pub fn solve_min_cost_in(
        &self,
        backend: &mut dyn MinCostBackend,
        workspace: &mut FlowWorkspace,
        arena: &mut TransportArena,
    ) -> Option<TransportSolution> {
        if self.routes.iter().all(|&(_, _, cost)| cost == 0.0) {
            return self.solve_feasible_with(workspace);
        }
        if let Some((source_keys, bin_keys)) = &self.stable_keys {
            // Node order mirrors `build_network_into`: sources, bins, then
            // the two artificial endpoints under their reserved keys.
            arena.keys.clear();
            arena.keys.reserve(source_keys.len() + bin_keys.len() + 2);
            arena.keys.extend_from_slice(source_keys);
            arena.keys.extend_from_slice(bin_keys);
            arena.keys.push(crate::backend::KEY_SUPER_SOURCE);
            arena.keys.push(crate::backend::KEY_SUPER_SINK);
            backend.warm_hint(&arena.keys);
        }
        let (s, t) = self.build_network_into(arena);
        let demand = self.total_demand();
        // Stopping a hair under the demand keeps the min-cost-per-value
        // invariant while skipping the final no-augmenting-path search; the
        // missing sliver is far below every downstream tolerance.
        let target = demand - FLOW_EPS.max(demand * 1e-12);
        let r = backend.solve_up_to(&mut arena.network, s, t, target, workspace);
        if r.flow < demand - acceptance_tolerance(demand) {
            return None;
        }
        Some(self.extract_solution(&arena.network, &arena.route_edges, r.cost, r.flow))
    }

    /// Ships every demand ignoring costs (all-zero objective): a pure
    /// max-flow, solved with Dinic's algorithm.  Returns `None` when the
    /// instance is infeasible.
    pub fn solve_feasible_with(&self, workspace: &mut FlowWorkspace) -> Option<TransportSolution> {
        let (mut g, route_edges, s, t) = self.build_network();
        let demand = self.total_demand();
        let target = demand - FLOW_EPS.max(demand * 1e-12);
        let shipped = max_flow_with(&mut g, s, t, target, workspace).value;
        if shipped < demand - acceptance_tolerance(demand) {
            return None;
        }
        Some(self.extract_solution(&g, &route_edges, 0.0, shipped))
    }

    fn extract_solution(
        &self,
        g: &FlowNetwork,
        route_edges: &[usize],
        cost: f64,
        shipped: f64,
    ) -> TransportSolution {
        let mut allocations = Vec::new();
        for (idx, &(j, b, _)) in self.routes.iter().enumerate() {
            let amount = g.flow_on(route_edges[idx]);
            if amount > FLOW_EPS {
                allocations.push((j, b, amount));
            }
        }
        TransportSolution {
            allocations,
            cost,
            shipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance_is_feasible() {
        let t = TransportInstance::new(0, 0);
        assert!(t.is_feasible());
        assert_eq!(t.total_demand(), 0.0);
    }

    #[test]
    fn feasibility_requires_capacity_and_routes() {
        let mut t = TransportInstance::new(1, 1);
        t.set_demand(0, 5.0);
        t.set_capacity(0, 10.0);
        // No route yet -> infeasible.
        assert!(!t.is_feasible());
        t.add_route(0, 0, 0.0);
        assert!(t.is_feasible());
    }

    #[test]
    fn infeasible_when_capacity_too_small() {
        let mut t = TransportInstance::new(2, 1);
        t.set_demand(0, 3.0);
        t.set_demand(1, 3.0);
        t.set_capacity(0, 5.0);
        t.add_route(0, 0, 0.0);
        t.add_route(1, 0, 0.0);
        assert!(!t.is_feasible());
        assert!((t.max_shippable() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn min_cost_prefers_cheap_bins() {
        let mut t = TransportInstance::new(1, 2);
        t.set_demand(0, 4.0);
        t.set_capacity(0, 3.0);
        t.set_capacity(1, 3.0);
        t.add_route(0, 0, 1.0);
        t.add_route(0, 1, 10.0);
        let sol = t.solve_min_cost().expect("feasible");
        assert!((sol.shipped - 4.0).abs() < 1e-6);
        assert!((sol.amount(0, 0) - 3.0).abs() < 1e-6);
        assert!((sol.amount(0, 1) - 1.0).abs() < 1e-6);
        assert!((sol.cost - (3.0 + 10.0)).abs() < 1e-6);
    }

    #[test]
    fn solve_returns_none_when_infeasible() {
        let mut t = TransportInstance::new(1, 1);
        t.set_demand(0, 2.0);
        t.set_capacity(0, 1.0);
        t.add_route(0, 0, 1.0);
        assert!(t.solve_min_cost().is_none());
    }

    #[test]
    fn arena_solves_match_fresh_solves_bitwise_across_reuse() {
        use crate::backend::PrimalDualBackend;
        let mut arena = TransportArena::new();
        let mut ws = FlowWorkspace::new();
        let mut t = TransportInstance::new(0, 0);
        // Three "events" of different shapes through one persistent
        // instance + arena, each compared bitwise against a fresh solve.
        for event in 0..3usize {
            let (ns, nb) = (1 + event, 2 + event);
            t.reset(ns, nb);
            let mut fresh = TransportInstance::new(ns, nb);
            for j in 0..ns {
                t.set_demand(j, 1.0 + j as f64);
                fresh.set_demand(j, 1.0 + j as f64);
            }
            for b in 0..nb {
                t.set_capacity(b, 2.5);
                fresh.set_capacity(b, 2.5);
            }
            for j in 0..ns {
                for b in 0..nb {
                    let cost = 1.0 + (j * nb + b) as f64;
                    t.add_route(j, b, cost);
                    fresh.add_route(j, b, cost);
                }
            }
            let keys: Vec<u64> = (0..ns as u64).collect();
            let bin_keys: Vec<u64> = (100..100 + nb as u64).collect();
            t.set_stable_keys_from(&keys, &bin_keys);
            fresh.set_stable_keys(keys.clone(), bin_keys.clone());
            let reused = t
                .solve_min_cost_in(&mut PrimalDualBackend, &mut ws, &mut arena)
                .expect("feasible");
            let scratch = fresh
                .solve_min_cost_with_backend(&mut PrimalDualBackend, &mut FlowWorkspace::new())
                .expect("feasible");
            assert_eq!(reused.cost.to_bits(), scratch.cost.to_bits());
            assert_eq!(reused.shipped.to_bits(), scratch.shipped.to_bits());
            assert_eq!(reused.allocations.len(), scratch.allocations.len());
            for (a, b) in reused.allocations.iter().zip(&scratch.allocations) {
                assert_eq!((a.0, a.1), (b.0, b.1));
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
        }
    }

    #[test]
    fn reset_clears_quantities_and_routes_but_keeps_buffers_usable() {
        let mut t = TransportInstance::new(2, 2);
        t.set_demand(0, 3.0);
        t.set_capacity(1, 4.0);
        t.add_route(0, 1, 1.0);
        t.reset(1, 3);
        assert_eq!(t.num_sources(), 1);
        assert_eq!(t.num_bins(), 3);
        assert_eq!(t.demand(0), 0.0);
        assert_eq!(t.capacity(1), 0.0);
        assert!(t.routes().is_empty());
    }

    #[test]
    fn per_source_and_per_bin_accounting() {
        let mut t = TransportInstance::new(2, 2);
        t.set_demand(0, 1.0);
        t.set_demand(1, 2.0);
        t.set_capacity(0, 2.0);
        t.set_capacity(1, 2.0);
        for j in 0..2 {
            for b in 0..2 {
                t.add_route(j, b, (j + b) as f64);
            }
        }
        let sol = t.solve_min_cost().expect("feasible");
        assert!((sol.shipped_from(0) - 1.0).abs() < 1e-6);
        assert!((sol.shipped_from(1) - 2.0).abs() < 1e-6);
        let received: f64 = (0..2).map(|b| sol.received_by(b)).sum();
        assert!((received - 3.0).abs() < 1e-6);
    }
}
