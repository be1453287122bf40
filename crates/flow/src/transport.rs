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
//!
//! A [`TransportInstance`] is also what a min-cost solve hands over: a
//! [`MinCostBackend`] takes the instance itself — with the stable keys it
//! may carry — and returns its [`TransportSolution`].  The residual
//! network ([`FlowNetwork`]) is built here only for the kernels that need
//! one: the zero-cost Dinic path, the feasibility checks and the
//! primal-dual reference backend.

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

/// The flow a solve of an instance with total `demand` stops at: a hair
/// under the demand.  Stopping there keeps the min-cost-per-value
/// invariant while skipping the final no-augmenting-path search; the
/// missing sliver is far below every downstream tolerance.
pub(crate) fn flow_target(demand: f64) -> f64 {
    demand - FLOW_EPS.max(demand * 1e-12)
}

/// `true` when a solve that shipped `shipped` of the total `demand` is
/// accepted as feasible (see [`acceptance_tolerance`]).
pub(crate) fn ships_demand(shipped: f64, demand: f64) -> bool {
    shipped >= demand - acceptance_tolerance(demand)
}

/// A bipartite transportation instance.
///
/// Besides its quantities an instance may carry **stable keys**, one per
/// source and one per bin ([`TransportInstance::set_stable_keys`]): the
/// identities a basis-carrying [`MinCostBackend`] remaps its previous
/// solve onto this one by, and the seed of its tie-break among equal-cost
/// optima.
#[derive(Clone, Debug, Default)]
pub struct TransportInstance {
    demands: Vec<f64>,
    capacities: Vec<f64>,
    routes: Vec<(usize, usize, f64)>,
    /// Stable key of each source; empty while the instance is unkeyed.
    source_keys: Vec<u64>,
    /// Stable key of each bin; empty while the instance is unkeyed.
    bin_keys: Vec<u64>,
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
    /// demands and capacities zero, no routes and no stable keys.
    pub fn new(num_sources: usize, num_bins: usize) -> Self {
        TransportInstance {
            demands: vec![0.0; num_sources],
            capacities: vec![0.0; num_bins],
            ..Self::default()
        }
    }

    /// Keys the sources and bins with stable identities, one key per
    /// source and one per bin, in index order.
    ///
    /// Keys are equal across instances exactly when the node denotes the
    /// same logical entity (the scheduler keys jobs by instance-wide job id
    /// and bins by `(site, interval position)`), letting a basis-carrying
    /// backend warm-start across *events* even though every event fills an
    /// instance of a different shape.  The keys also seed the backend's
    /// deterministic tie-break among equal-cost optima, so two solves of
    /// the same instance are bit-identical exactly when they carry the
    /// same keys (warm or cold, with or without carried state) — a keyed
    /// and an unkeyed solve may legitimately return different optimal
    /// vertices.
    ///
    /// The keys are copied into the instance's own buffers, which
    /// [`TransportInstance::reset`] clears but keeps allocated.
    ///
    /// # Panics
    ///
    /// When the iterators do not yield exactly one key per source and one
    /// per bin.
    pub fn set_stable_keys(
        &mut self,
        source_keys: impl IntoIterator<Item = u64>,
        bin_keys: impl IntoIterator<Item = u64>,
    ) {
        self.source_keys.clear();
        self.source_keys.extend(source_keys);
        self.bin_keys.clear();
        self.bin_keys.extend(bin_keys);
        assert_eq!(
            self.source_keys.len(),
            self.num_sources(),
            "one key per source"
        );
        assert_eq!(self.bin_keys.len(), self.num_bins(), "one key per bin");
    }

    /// The stable keys of the sources and of the bins, or `None` while the
    /// instance is unkeyed (fresh, or [`TransportInstance::reset`] since the
    /// last [`TransportInstance::set_stable_keys`]).
    pub(crate) fn stable_keys(&self) -> Option<(&[u64], &[u64])> {
        let keyed = self.num_sources() + self.num_bins() > 0
            && self.source_keys.len() == self.num_sources()
            && self.bin_keys.len() == self.num_bins();
        keyed.then_some((&self.source_keys[..], &self.bin_keys[..]))
    }

    /// Clears the instance down to `num_sources` zero-demand sources and
    /// `num_bins` zero-capacity bins with no routes and **no stable keys**,
    /// reusing every buffer — the in-place counterpart of
    /// [`TransportInstance::new`] for callers refilling one persistent
    /// instance per event.  The previous keys name the previous event's
    /// nodes, so a caller keys every refill anew.
    pub fn reset(&mut self, num_sources: usize, num_bins: usize) {
        self.demands.clear();
        self.demands.resize(num_sources, 0.0);
        self.capacities.clear();
        self.capacities.resize(num_bins, 0.0);
        self.routes.clear();
        self.source_keys.clear();
        self.bin_keys.clear();
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

    /// Builds the residual network of the instance and returns it with the
    /// edge handle of every route (in route order), the super-source and
    /// the super-sink.
    ///
    /// Nodes are the sources, then the bins, then the super-source and the
    /// super-sink.  Edges: one source edge per positive demand, one sink
    /// edge per positive capacity, then one edge per declared route, capped
    /// at its source's demand.
    pub(crate) fn network(&self) -> (FlowNetwork, Vec<usize>, usize, usize) {
        let ns = self.num_sources();
        let nb = self.num_bins();
        let source = ns + nb;
        let sink = ns + nb + 1;
        // Exact degree counts, so bulk construction never reallocates an
        // adjacency list.
        let mut degrees = vec![1; ns + nb + 2];
        degrees[source] = ns;
        degrees[sink] = nb;
        for &(j, b, _) in &self.routes {
            degrees[j] += 1;
            degrees[ns + b] += 1;
        }
        let mut g = FlowNetwork::new(ns + nb + 2);
        g.reserve(ns + nb + self.routes.len(), &degrees);
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
        let route_edges = self
            .routes
            .iter()
            .map(|&(j, b, cost)| {
                // A route can never carry more than its source's demand;
                // using the demand as capacity (instead of "infinity")
                // keeps `flow_on` numerically exact.
                g.add_edge(j, ns + b, self.demands[j], cost)
            })
            .collect();
        (g, route_edges, source, sink)
    }

    /// Solves the instance on its residual network: `kernel` ships flow
    /// from the super-source to the super-sink, stopping at the given
    /// target, and returns the value and cost it shipped.  `None` when the
    /// flow falls short of the demand by more than [`acceptance_tolerance`].
    pub(crate) fn solve_on_network(
        &self,
        kernel: impl FnOnce(&mut FlowNetwork, usize, usize, f64) -> (f64, f64),
    ) -> Option<TransportSolution> {
        let (mut g, route_edges, source, sink) = self.network();
        let demand = self.total_demand();
        let (shipped, cost) = kernel(&mut g, source, sink, flow_target(demand));
        if !ships_demand(shipped, demand) {
            return None;
        }
        let allocations = self
            .routes
            .iter()
            .zip(&route_edges)
            .map(|(&(j, b, _), &edge)| (j, b, g.flow_on(edge)))
            .filter(|&(_, _, amount)| amount > FLOW_EPS)
            .collect();
        Some(TransportSolution {
            allocations,
            cost,
            shipped,
        })
    }

    /// Maximum total amount that can be shipped (regardless of cost).
    pub fn max_shippable(&self) -> f64 {
        let (mut g, _, s, t) = self.network();
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
        let (mut g, _, s, t) = self.network();
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
        if self.routes.iter().all(|&(_, _, cost)| cost == 0.0) {
            return self.solve_feasible_with(workspace);
        }
        backend.solve(self, workspace)
    }

    /// Ships every demand ignoring costs (all-zero objective): a pure
    /// max-flow, solved with Dinic's algorithm.  Returns `None` when the
    /// instance is infeasible.
    pub fn solve_feasible_with(&self, workspace: &mut FlowWorkspace) -> Option<TransportSolution> {
        self.solve_on_network(|g, s, t, target| {
            (max_flow_with(g, s, t, target, workspace).value, 0.0)
        })
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

    /// Fills `t` as the event `event` of the reuse tests: `1 + event`
    /// sources over `2 + event` bins, every route declared.
    fn fill_event(t: &mut TransportInstance, event: usize) {
        let (ns, nb) = (1 + event, 2 + event);
        t.reset(ns, nb);
        for j in 0..ns {
            t.set_demand(j, 1.0 + j as f64);
        }
        for b in 0..nb {
            t.set_capacity(b, 2.5);
        }
        for j in 0..ns {
            for b in 0..nb {
                t.add_route(j, b, 1.0 + (j * nb + b) as f64);
            }
        }
    }

    /// Requires two solutions to be equal bit for bit.
    fn assert_bitwise_equal(a: &TransportSolution, b: &TransportSolution) {
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.shipped.to_bits(), b.shipped.to_bits());
        assert_eq!(a.allocations.len(), b.allocations.len());
        for (x, y) in a.allocations.iter().zip(&b.allocations) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2.to_bits(), y.2.to_bits());
        }
    }

    #[test]
    fn reset_instance_solves_match_fresh_solves_bitwise_across_reuse() {
        use crate::backend::PrimalDualBackend;
        let mut ws = FlowWorkspace::new();
        let mut t = TransportInstance::new(0, 0);
        // Three "events" of different shapes through one persistent
        // instance and workspace, each compared bitwise against a fresh
        // instance solved with fresh scratch.
        for event in 0..3usize {
            fill_event(&mut t, event);
            let mut fresh = TransportInstance::new(0, 0);
            fill_event(&mut fresh, event);
            let (ns, nb) = (t.num_sources() as u64, t.num_bins() as u64);
            t.set_stable_keys(0..ns, 100..100 + nb);
            fresh.set_stable_keys(0..ns, 100..100 + nb);
            let reused = t
                .solve_min_cost_with_backend(&mut PrimalDualBackend, &mut ws)
                .expect("feasible");
            let scratch = fresh
                .solve_min_cost_with_backend(&mut PrimalDualBackend, &mut FlowWorkspace::new())
                .expect("feasible");
            assert_bitwise_equal(&reused, &scratch);
        }
    }

    #[test]
    fn reset_drops_the_stable_keys() {
        use crate::simplex::NetworkSimplexBackend;
        let mut ws = FlowWorkspace::new();
        let mut backend = NetworkSimplexBackend::new();
        let mut t = TransportInstance::new(0, 0);
        fill_event(&mut t, 1);
        t.set_stable_keys([7, 8], [100, 101, 102]);
        assert!(t.stable_keys().is_some());
        t.solve_min_cost_with_backend(&mut backend, &mut ws)
            .expect("feasible");
        // The same shape refilled without keys: the previous event's keys
        // must not name its nodes, so the warm backend starts cold and
        // breaks ties as on any unkeyed instance.
        fill_event(&mut t, 1);
        assert!(t.stable_keys().is_none());
        let refilled = t
            .solve_min_cost_with_backend(&mut backend, &mut ws)
            .expect("feasible");
        assert_eq!(backend.remap_count(), 0, "an unkeyed refill remapped");
        let mut fresh = TransportInstance::new(0, 0);
        fill_event(&mut fresh, 1);
        let unkeyed = fresh
            .solve_min_cost_with_backend(
                &mut NetworkSimplexBackend::new(),
                &mut FlowWorkspace::new(),
            )
            .expect("feasible");
        assert_bitwise_equal(&refilled, &unkeyed);
    }

    #[test]
    #[should_panic(expected = "one key per bin")]
    fn stable_keys_need_one_key_per_bin() {
        let mut t = TransportInstance::new(1, 2);
        t.set_stable_keys([1], [10]);
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
