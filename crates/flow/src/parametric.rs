//! Warm-started feasibility probing on a frozen bipartite topology.
//!
//! Between two consecutive milestones of the deadline-scheduling problem the
//! *structure* of the transportation instance is invariant: the same jobs,
//! the same `(site, interval)` bins, the same admissible routes — only the
//! bin capacities move (linearly in the objective `F`).  A
//! [`ParametricNetwork`] exploits that: the residual graph is built **once**,
//! and each probe
//!
//! 1. rebinds the bin capacities in place ([`FlowNetwork::try_set_capacity`]),
//!    keeping the previous probe's flow whenever it still fits (warm start,
//!    the common case when the bisection moves towards larger capacities),
//! 2. resumes max-flow from the residual state with an early-exit target
//!    ([`crate::maxflow::max_flow_with`]): a feasibility probe stops as soon
//!    as the shipped flow covers the total demand minus the tolerance.
//!
//! Compared to rebuilding a [`crate::TransportInstance`] per probe this
//! removes every per-probe allocation and most of the repeated augmentation
//! work, which is where the off-line and on-line schedulers of the paper
//! spend almost all of their time.
//!
//! Flow survives from probe to probe of one problem only:
//! [`ParametricNetwork::rebuild`] clears it, so each event's first probe
//! starts from zero flow and nothing crosses from one event's network to
//! the next.
//!
//! The network answers feasibility only.  The System-(2) min-cost solves
//! hand a [`crate::TransportInstance`] to a [`crate::MinCostBackend`]
//! instead ([`crate::TransportInstance::solve_min_cost_with_backend`]).

use crate::graph::FlowNetwork;
use crate::maxflow::max_flow_with;
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// A bipartite transportation network with frozen topology and mutable bin
/// capacities.
///
/// ```
/// use stretch_flow::{FlowWorkspace, ParametricNetwork};
///
/// // Two jobs, two bins, three admissible routes — built once.
/// let mut network = ParametricNetwork::new(&[2.0, 1.0], 2, vec![(0, 0), (0, 1), (1, 1)]);
/// let mut ws = FlowWorkspace::new();
/// // Each probe rebinds capacities in place and resumes from the previous
/// // residual flow.
/// network.set_bin_capacities(&[1.0, 1.0]);
/// assert!(!network.probe_feasible(1e-6, &mut ws)); // 3 units into 2
/// network.set_bin_capacities(&[2.0, 1.5]);
/// assert!(network.probe_feasible(1e-6, &mut ws));
/// ```
#[derive(Clone, Debug)]
pub struct ParametricNetwork {
    num_sources: usize,
    num_bins: usize,
    total_demand: f64,
    demands: Vec<f64>,
    routes: Vec<(usize, usize)>,
    network: FlowNetwork,
    /// Forward-edge handle of each bin -> sink edge.
    bin_edges: Vec<usize>,
    /// Forward-edge handle of each route edge (same order as `routes`).
    route_edges: Vec<usize>,
    source: usize,
    sink: usize,
    /// Flow shipped by the probes since the last reset.
    shipped: f64,
    /// Degree-count scratch reused by [`ParametricNetwork::rebuild`].
    degree_scratch: Vec<usize>,
}

impl Default for ParametricNetwork {
    fn default() -> Self {
        Self::empty()
    }
}

impl ParametricNetwork {
    /// Builds the network once from fixed demands and admissible routes.
    ///
    /// All bin capacities start at zero; set them before the first probe
    /// with [`ParametricNetwork::set_bin_capacities`].
    pub fn new(demands: &[f64], num_bins: usize, routes: Vec<(usize, usize)>) -> Self {
        let mut p = Self::empty();
        p.rebuild(demands, num_bins, &routes);
        p
    }

    /// An empty network (no sources, no bins, no routes), the starting
    /// point for [`ParametricNetwork::rebuild`]-driven reuse.
    pub fn empty() -> Self {
        ParametricNetwork {
            num_sources: 0,
            num_bins: 0,
            total_demand: 0.0,
            demands: Vec::new(),
            routes: Vec::new(),
            network: FlowNetwork::new(2),
            bin_edges: Vec::new(),
            route_edges: Vec::new(),
            source: 0,
            sink: 1,
            shipped: 0.0,
            degree_scratch: Vec::new(),
        }
    }

    /// Rebuilds the network in place for a new shape, **reusing every
    /// buffer** — the per-event primitive of the incremental solver path.
    ///
    /// The result is element-identical to `ParametricNetwork::new(demands,
    /// num_bins, routes.to_vec())` (same edge sequence, same handles, all
    /// flow cleared, bin capacities back to zero), but steady-state
    /// allocation-free: a persistent network rebuilt from event to event
    /// produces bit-identical probes to a freshly built one.
    ///
    /// ```
    /// use stretch_flow::{FlowWorkspace, ParametricNetwork};
    ///
    /// let mut network = ParametricNetwork::new(&[2.0], 1, vec![(0, 0)]);
    /// let mut ws = FlowWorkspace::new();
    /// network.set_bin_capacities(&[2.0]);
    /// assert!(network.probe_feasible(1e-6, &mut ws));
    /// // Next event: one more job, one more bin — same buffers.
    /// network.rebuild(&[2.0, 1.0], 2, &[(0, 0), (1, 1)]);
    /// network.set_bin_capacities(&[2.0, 1.0]);
    /// assert!(network.probe_feasible(1e-6, &mut ws));
    /// ```
    pub fn rebuild(&mut self, demands: &[f64], num_bins: usize, routes: &[(usize, usize)]) {
        let num_sources = demands.len();
        let source = num_sources + num_bins;
        let sink = source + 1;
        self.network.rebuild(num_sources + num_bins + 2);
        // Exact degree counts: bulk construction without reallocation.
        self.degree_scratch.clear();
        self.degree_scratch.resize(num_sources + num_bins + 2, 0);
        let degrees = &mut self.degree_scratch;
        degrees[source] = num_sources;
        degrees[sink] = num_bins;
        for &(j, b) in routes {
            degrees[j] += 1;
            degrees[num_sources + b] += 1;
        }
        for degree in degrees[..num_sources].iter_mut() {
            *degree += 1; // source edge
        }
        for degree in degrees[num_sources..num_sources + num_bins].iter_mut() {
            *degree += 1; // sink edge
        }
        self.network
            .reserve(num_sources + num_bins + routes.len(), degrees);
        for (j, &d) in demands.iter().enumerate() {
            if d > 0.0 {
                self.network.add_edge(source, j, d, 0.0);
            }
        }
        self.bin_edges.clear();
        for b in 0..num_bins {
            self.bin_edges
                .push(self.network.add_edge(num_sources + b, sink, 0.0, 0.0));
        }
        self.route_edges.clear();
        for &(j, b) in routes {
            assert!(j < num_sources && b < num_bins, "route out of range");
            // A route can never carry more than its source's demand.
            self.route_edges
                .push(self.network.add_edge(j, num_sources + b, demands[j], 0.0));
        }
        self.num_sources = num_sources;
        self.num_bins = num_bins;
        self.total_demand = demands.iter().sum();
        self.demands.clear();
        self.demands.extend_from_slice(demands);
        self.routes.clear();
        self.routes.extend_from_slice(routes);
        self.source = source;
        self.sink = sink;
        self.shipped = 0.0;
    }

    /// Number of sources (jobs).
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of bins (site × interval slots).
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Total demand over all sources.
    pub fn total_demand(&self) -> f64 {
        self.total_demand
    }

    /// Rebinds every bin capacity in place.
    ///
    /// Keeps the flow of the previous probe when it still fits under the new
    /// capacities (warm start); otherwise clears all flow.
    pub fn set_bin_capacities(&mut self, capacities: &[f64]) {
        assert_eq!(capacities.len(), self.num_bins, "one capacity per bin");
        let mut warm = true;
        for (&edge, &cap) in self.bin_edges.iter().zip(capacities) {
            warm &= self.network.try_set_capacity(edge, cap.max(0.0));
        }
        if !warm {
            self.network.reset();
            self.shipped = 0.0;
        }
    }

    /// Rebinds every bin *and* route capacity in place (warm start rules as
    /// in [`ParametricNetwork::set_bin_capacities`]).
    ///
    /// Mutable route capacities let a caller encode *route admissibility*
    /// parametrically: an inadmissible route simply carries capacity zero,
    /// so crossing a milestone never requires rebuilding adjacency.
    pub fn set_capacities(&mut self, bin_capacities: &[f64], route_capacities: &[f64]) {
        assert_eq!(bin_capacities.len(), self.num_bins, "one capacity per bin");
        assert_eq!(
            route_capacities.len(),
            self.route_edges.len(),
            "one capacity per route"
        );
        let mut warm = true;
        for (&edge, &cap) in self.bin_edges.iter().zip(bin_capacities) {
            warm &= self.network.try_set_capacity(edge, cap.max(0.0));
        }
        for (&edge, &cap) in self.route_edges.iter().zip(route_capacities) {
            warm &= self.network.try_set_capacity(edge, cap.max(0.0));
        }
        if !warm {
            self.network.reset();
            self.shipped = 0.0;
        }
    }

    /// `true` when every source can ship its entire demand under the current
    /// bin capacities, within the same tolerance rule as
    /// [`crate::TransportInstance::is_feasible_with_tolerance`].
    ///
    /// The probe resumes from the residual flow left by the previous probe
    /// and stops as soon as the demand (minus tolerance) is covered.
    pub fn probe_feasible(&mut self, tol: f64, workspace: &mut FlowWorkspace) -> bool {
        if self.total_demand <= FLOW_EPS {
            return true;
        }
        let slack = tol.max(self.total_demand * tol);
        let target = self.total_demand - slack - self.shipped;
        if target > 0.0 {
            let r = max_flow_with(&mut self.network, self.source, self.sink, target, workspace);
            self.shipped += r.value;
        }
        self.shipped >= self.total_demand - slack
    }

    /// Flow currently routed through route `idx` (order of construction).
    pub fn flow_on_route(&self, idx: usize) -> f64 {
        self.network.flow_on(self.route_edges[idx])
    }

    /// The routes this network was built with.
    pub fn routes(&self) -> &[(usize, usize)] {
        &self.routes
    }

    /// The sources on the source side of a minimum cut, as reachability
    /// flags.
    ///
    /// Only meaningful right after an **unsuccessful** probe (the flow then
    /// is a true maximum flow, so the set of nodes reachable from the
    /// super-source in the residual graph is the minimum cut's source side,
    /// the same for every maximum flow).  The buffer is cleared and
    /// refilled; together with the workspace (whose BFS scratch is free
    /// between probes) it makes the cut extraction allocation-free on the
    /// solver hot path.
    pub fn residual_cut(&self, workspace: &mut FlowWorkspace, sources: &mut Vec<bool>) {
        sources.clear();
        sources.resize(self.num_sources, false);
        let n = self.network.num_nodes();
        workspace.ensure_nodes(n);
        let seen = &mut workspace.level[..n];
        for s in seen.iter_mut() {
            *s = 0;
        }
        seen[self.source] = 1;
        workspace.queue.clear();
        workspace.queue.push_back(self.source);
        while let Some(u) = workspace.queue.pop_front() {
            for &eid in self.network.edges_from(u) {
                let e = self.network.edge(eid);
                if e.cap > FLOW_EPS && workspace.level[e.to] == 0 {
                    workspace.level[e.to] = 1;
                    workspace.queue.push_back(e.to);
                }
            }
        }
        for (j, flag) in sources.iter_mut().enumerate() {
            *flag = workspace.level[j] != 0;
        }
    }

    /// Demand of one source.
    pub fn demand(&self, source: usize) -> f64 {
        self.demands[source]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransportInstance;

    /// The reference implementation: a from-scratch transportation instance.
    fn reference_feasible(demands: &[f64], caps: &[f64], routes: &[(usize, usize)]) -> bool {
        let mut t = TransportInstance::new(demands.len(), caps.len());
        for (j, &d) in demands.iter().enumerate() {
            t.set_demand(j, d);
        }
        for (b, &c) in caps.iter().enumerate() {
            t.set_capacity(b, c);
        }
        for &(j, b) in routes {
            t.add_route(j, b, 0.0);
        }
        t.is_feasible()
    }

    #[test]
    fn probes_match_from_scratch_feasibility() {
        let demands = [2.0, 3.0, 1.5];
        let routes = vec![(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)];
        let mut p = ParametricNetwork::new(&demands, 3, routes.clone());
        let probes: [[f64; 3]; 5] = [
            [1.0, 1.0, 1.0],
            [4.0, 4.0, 4.0],
            [2.0, 3.5, 1.0],
            [0.5, 5.0, 2.0],
            [6.0, 6.0, 6.0],
        ];
        let mut ws = FlowWorkspace::new();
        for caps in probes {
            p.set_bin_capacities(&caps);
            let fast = p.probe_feasible(1e-6, &mut ws);
            let slow = reference_feasible(&demands, &caps, &routes);
            assert_eq!(fast, slow, "capacities {caps:?}");
        }
    }

    #[test]
    fn warm_start_survives_monotone_capacity_growth() {
        let demands = [4.0];
        let mut p = ParametricNetwork::new(&demands, 1, vec![(0, 0)]);
        let mut ws = FlowWorkspace::new();
        p.set_bin_capacities(&[1.0]);
        assert!(!p.probe_feasible(1e-6, &mut ws));
        // Growing the capacity keeps the shipped unit and only pushes the
        // remainder.
        p.set_bin_capacities(&[4.0]);
        assert!(p.probe_feasible(1e-6, &mut ws));
        assert!((p.flow_on_route(0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_shrink_below_flow_resets_and_stays_correct() {
        let demands = [2.0, 2.0];
        let routes = vec![(0, 0), (1, 0), (1, 1)];
        let mut p = ParametricNetwork::new(&demands, 2, routes.clone());
        let mut ws = FlowWorkspace::new();
        p.set_bin_capacities(&[4.0, 0.0]);
        assert!(p.probe_feasible(1e-6, &mut ws));
        // Bin 0 shrinks below the flow it carries: the probe must reset and
        // re-route through bin 1.
        p.set_bin_capacities(&[2.0, 2.0]);
        assert!(p.probe_feasible(1e-6, &mut ws));
        assert!(reference_feasible(&demands, &[2.0, 2.0], &routes));
        // And an infeasible shrink is detected.
        p.set_bin_capacities(&[1.0, 1.0]);
        assert!(!p.probe_feasible(1e-6, &mut ws));
    }

    #[test]
    fn rebuilt_networks_probe_identically_to_fresh_ones() {
        type Shape<'a> = (&'a [f64], usize, &'a [(usize, usize)]);
        let shapes: [Shape; 3] = [
            (&[2.0, 3.0], 2, &[(0, 0), (0, 1), (1, 1)]),
            (&[1.0], 1, &[(0, 0)]),
            (&[2.0, 0.0, 4.0], 3, &[(0, 0), (1, 1), (2, 1), (2, 2)]),
        ];
        let mut reused = ParametricNetwork::empty();
        let mut ws = FlowWorkspace::new();
        for (demands, num_bins, routes) in shapes {
            reused.rebuild(demands, num_bins, routes);
            let mut fresh = ParametricNetwork::new(demands, num_bins, routes.to_vec());
            assert_eq!(reused.num_sources(), fresh.num_sources());
            assert_eq!(reused.num_bins(), fresh.num_bins());
            assert_eq!(
                reused.total_demand().to_bits(),
                fresh.total_demand().to_bits()
            );
            let caps: Vec<f64> = (0..num_bins).map(|b| 1.5 + b as f64).collect();
            reused.set_bin_capacities(&caps);
            fresh.set_bin_capacities(&caps);
            assert_eq!(
                reused.probe_feasible(1e-6, &mut ws),
                fresh.probe_feasible(1e-6, &mut FlowWorkspace::new())
            );
            for idx in 0..routes.len() {
                assert_eq!(
                    reused.flow_on_route(idx).to_bits(),
                    fresh.flow_on_route(idx).to_bits(),
                    "route {idx} flow diverged after rebuild"
                );
            }
        }
    }

    #[test]
    fn zero_demand_is_always_feasible() {
        let mut p = ParametricNetwork::new(&[0.0, 0.0], 2, vec![(0, 0)]);
        let mut ws = FlowWorkspace::new();
        p.set_bin_capacities(&[0.0, 0.0]);
        assert!(p.probe_feasible(1e-6, &mut ws));
    }
}
