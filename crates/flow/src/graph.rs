//! Residual-graph representation shared by the max-flow and min-cost solvers.

use crate::FLOW_EPS;

/// One directed edge of the residual graph.
///
/// Edges are stored in pairs: edge `e` and its reverse `e ^ 1`, so pushing
/// flow on one automatically frees capacity on the other.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Target node.
    pub to: usize,
    /// Remaining (residual) capacity.
    pub cap: f64,
    /// Cost per unit of flow (zero for pure max-flow usage).
    pub cost: f64,
    /// Original capacity when the edge was created (reverse edges start at 0).
    pub original_cap: f64,
}

/// A flow network with parallel-edge support and residual bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// Adjacency list: for each node, indices into `edges`.
    adj: Vec<Vec<usize>>,
    /// Flat edge storage (forward/backward pairs).
    edges: Vec<Edge>,
}

impl FlowNetwork {
    /// Creates a network with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); nodes],
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of forward edges added by the user.
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Clears the network down to `nodes` isolated nodes **without
    /// releasing memory**: every adjacency list and the edge storage keep
    /// their allocations, ready to be refilled by the same
    /// [`FlowNetwork::add_edge`] sequence a fresh [`FlowNetwork::new`]
    /// would receive.
    ///
    /// This is the in-place construction primitive behind the incremental
    /// event path: a persistent network is rebuilt per event with zero
    /// steady-state allocations, and — because the edge sequence is the
    /// same — with bit-identical edge handles and capacities.
    ///
    /// ```
    /// use stretch_flow::FlowNetwork;
    ///
    /// let mut g = FlowNetwork::new(2);
    /// g.add_edge(0, 1, 5.0, 1.0);
    /// g.rebuild(3);
    /// assert_eq!(g.num_nodes(), 3);
    /// assert_eq!(g.num_edges(), 0);
    /// let e = g.add_edge(0, 2, 2.0, 0.0);
    /// assert_eq!(e, 0, "edge handles restart from zero");
    /// ```
    pub fn rebuild(&mut self, nodes: usize) {
        for adjacency in &mut self.adj {
            adjacency.clear();
        }
        if self.adj.len() > nodes {
            self.adj.truncate(nodes);
        } else {
            self.adj.resize_with(nodes, Vec::new);
        }
        self.edges.clear();
    }

    /// Pre-allocates edge storage (`edges` forward edges and their
    /// reverses) and per-node adjacency capacity from an exact degree count.
    /// Purely an allocation hint for bulk construction.
    pub fn reserve(&mut self, edges: usize, degrees: &[usize]) {
        self.edges.reserve(2 * edges);
        for (node, &degree) in degrees.iter().enumerate() {
            if node < self.adj.len() {
                self.adj[node].reserve(degree);
            }
        }
    }

    /// Adds a directed edge `from -> to` with the given capacity and cost.
    ///
    /// Returns an edge handle usable with [`FlowNetwork::flow_on`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64, cost: f64) -> usize {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "node out of range"
        );
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and nonnegative"
        );
        let id = self.edges.len();
        self.edges.push(Edge {
            to,
            cap,
            cost,
            original_cap: cap,
        });
        self.edges.push(Edge {
            to: from,
            cap: 0.0,
            cost: -cost,
            original_cap: 0.0,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Flow currently routed through a (forward) edge handle.
    pub fn flow_on(&self, edge: usize) -> f64 {
        let e = &self.edges[edge];
        (e.original_cap - e.cap).max(0.0)
    }

    /// Residual capacity of an edge.
    pub fn residual(&self, edge: usize) -> f64 {
        self.edges[edge].cap
    }

    /// Iterates over the edge indices leaving `node`.
    pub fn edges_from(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// Immutable access to an edge record.
    pub fn edge(&self, idx: usize) -> &Edge {
        &self.edges[idx]
    }

    /// Pushes `amount` of flow along edge `idx` (updating the reverse edge).
    pub fn push(&mut self, idx: usize, amount: f64) {
        self.edges[idx].cap -= amount;
        self.edges[idx ^ 1].cap += amount;
        if self.edges[idx].cap < 0.0 && self.edges[idx].cap > -FLOW_EPS {
            self.edges[idx].cap = 0.0;
        }
    }

    /// Resets all flow, restoring original capacities.
    pub fn reset(&mut self) {
        for e in &mut self.edges {
            e.cap = e.original_cap;
        }
    }

    /// Rebinds the capacity of a forward edge **in place**, preserving the
    /// flow currently routed through it.
    ///
    /// This is the primitive behind warm-started feasibility probes: a
    /// parametric solver updates bin capacities between probes without
    /// rebuilding adjacency lists, and keeps the previous residual flow
    /// whenever it still fits.  Returns `false` when the existing flow
    /// exceeds `cap` — the new capacity is recorded either way, but the
    /// caller must then [`FlowNetwork::reset`] before the next computation
    /// (partial per-edge flow removal would violate conservation).
    pub fn try_set_capacity(&mut self, edge: usize, cap: f64) -> bool {
        assert!(
            edge.is_multiple_of(2),
            "capacities are set on forward edges"
        );
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and nonnegative"
        );
        let flow = self.flow_on(edge);
        self.edges[edge].original_cap = cap;
        if flow <= cap + FLOW_EPS {
            self.edges[edge].cap = (cap - flow).max(0.0);
            true
        } else {
            false
        }
    }

    /// Total flow leaving `source` (sum of flow on its forward edges).
    pub fn outflow(&self, source: usize) -> f64 {
        self.adj[source]
            .iter()
            .filter(|&&idx| idx % 2 == 0)
            .map(|&idx| self.flow_on(idx))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_pairing_and_push() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0, 1.0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.flow_on(e), 0.0);
        g.push(e, 2.0);
        assert_eq!(g.flow_on(e), 2.0);
        assert_eq!(g.residual(e), 3.0);
        assert_eq!(g.residual(e ^ 1), 2.0);
        g.reset();
        assert_eq!(g.flow_on(e), 0.0);
    }

    #[test]
    fn try_set_capacity_preserves_fitting_flow() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0, 0.0);
        g.push(e, 2.0);
        // Shrink above the flow: flow preserved, residual shrinks.
        assert!(g.try_set_capacity(e, 3.0));
        assert_eq!(g.flow_on(e), 2.0);
        assert_eq!(g.residual(e), 1.0);
        // Grow: flow preserved, residual grows.
        assert!(g.try_set_capacity(e, 10.0));
        assert_eq!(g.flow_on(e), 2.0);
        assert_eq!(g.residual(e), 8.0);
        // Shrink below the flow: rejected, reset required.
        assert!(!g.try_set_capacity(e, 1.0));
        g.reset();
        assert_eq!(g.flow_on(e), 0.0);
        assert_eq!(g.residual(e), 1.0);
    }

    #[test]
    fn rebuild_clears_topology_but_keeps_the_node_count_requested() {
        let mut g = FlowNetwork::new(3);
        let e = g.add_edge(0, 1, 4.0, 1.0);
        g.push(e, 2.0);
        g.rebuild(2);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 0);
        assert!(g.edges_from(0).is_empty() && g.edges_from(1).is_empty());
        // Refilling reproduces a fresh network exactly: same handles, no
        // residue from the previous flow.
        let e = g.add_edge(0, 1, 4.0, 1.0);
        assert_eq!(e, 0);
        assert_eq!(g.flow_on(e), 0.0);
        assert_eq!(g.residual(e), 4.0);
        g.rebuild(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowNetwork::new(1);
        let n = g.add_node();
        assert_eq!(n, 1);
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_edge_panics() {
        let mut g = FlowNetwork::new(1);
        g.add_edge(0, 3, 1.0, 0.0);
    }

    #[test]
    fn outflow_counts_forward_edges_only() {
        let mut g = FlowNetwork::new(3);
        let a = g.add_edge(0, 1, 4.0, 0.0);
        let b = g.add_edge(0, 2, 4.0, 0.0);
        g.push(a, 1.5);
        g.push(b, 2.0);
        assert!((g.outflow(0) - 3.5).abs() < 1e-12);
    }
}
