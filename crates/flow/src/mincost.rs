//! Minimum-cost maximum-flow via successive shortest augmenting paths with
//! node potentials (Bellman-Ford initialisation, then Dijkstra).

use crate::graph::FlowNetwork;
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// Result of a min-cost max-flow computation.
#[derive(Clone, Debug)]
pub struct MinCostResult {
    /// Total flow value pushed from source to sink.
    pub flow: f64,
    /// Total cost `Σ flow(e) · cost(e)` of the pushed flow.
    pub cost: f64,
}

/// Computes a maximum flow of minimum cost from `source` to `sink`.
///
/// Edge costs may be negative on input (they are handled by the Bellman-Ford
/// potential initialisation); after that every augmentation uses Dijkstra on
/// reduced costs, so the overall complexity is `O(F · E log V)` where `F` is
/// the number of augmentations.
///
/// This convenience wrapper allocates fresh scratch; hot paths should hold a
/// [`FlowWorkspace`] and call [`min_cost_max_flow_with`] instead.
pub fn min_cost_max_flow(network: &mut FlowNetwork, source: usize, sink: usize) -> MinCostResult {
    min_cost_max_flow_with(network, source, sink, &mut FlowWorkspace::new())
}

/// `true` when some residual edge carries a negative cost, in which case the
/// Bellman-Ford potential initialisation cannot be skipped.
fn has_negative_residual_cost(network: &FlowNetwork) -> bool {
    (0..network.num_nodes()).any(|u| {
        network.edges_from(u).iter().any(|&eid| {
            let e = network.edge(eid);
            e.cap > FLOW_EPS && e.cost < 0.0
        })
    })
}

/// [`min_cost_max_flow`] with caller-provided scratch buffers.
///
/// Two allocation/work savings over the naive loop:
///
/// * `dist`/`prev_edge`/the Dijkstra heap live in the workspace and are
///   cleared — not reallocated — for every augmentation;
/// * the `O(V·E)` Bellman-Ford potential initialisation runs only when some
///   residual edge actually has a negative cost.  The scheduler's
///   transportation networks use nonnegative costs (interval midpoints, or
///   zero for feasibility probes), so they skip it entirely.
pub fn min_cost_max_flow_with(
    network: &mut FlowNetwork,
    source: usize,
    sink: usize,
    workspace: &mut FlowWorkspace,
) -> MinCostResult {
    min_cost_flow_up_to(network, source, sink, f64::INFINITY, workspace)
}

/// [`min_cost_max_flow_with`] with an early-exit flow target.
///
/// Stops as soon as the pushed flow reaches `target`; the result is still a
/// minimum-cost flow *of its value* (the successive-shortest-path invariant),
/// so a caller that only needs `demand − ε` units skips the final
/// no-augmenting-path Dijkstra of the exact maximum.  Pass `f64::INFINITY`
/// for a true min-cost max-flow.
pub fn min_cost_flow_up_to(
    network: &mut FlowNetwork,
    source: usize,
    sink: usize,
    target: f64,
    workspace: &mut FlowWorkspace,
) -> MinCostResult {
    assert!(source < network.num_nodes() && sink < network.num_nodes());
    assert_ne!(source, sink);
    let n = network.num_nodes();
    workspace.ensure_nodes(n);
    let potential = &mut workspace.potential[..n];
    for p in potential.iter_mut() {
        *p = 0.0;
    }

    // Bellman-Ford to compute exact initial potentials; needed only when a
    // residual edge has a negative cost (zero potentials are already valid
    // otherwise).
    if has_negative_residual_cost(network) {
        for _ in 0..n {
            let mut changed = false;
            for u in 0..n {
                if potential[u] == f64::INFINITY {
                    continue;
                }
                for &eid in network.edges_from(u) {
                    let e = network.edge(eid);
                    if e.cap > FLOW_EPS && potential[u] + e.cost < potential[e.to] - 1e-12 {
                        potential[e.to] = potential[u] + e.cost;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    let mut total_flow = 0.0;
    let mut total_cost = 0.0;

    // Hungarian-style primal-dual: instead of one Dijkstra per phase, grow
    // the set `R` of nodes reachable from the source through *admissible*
    // (zero-reduced-cost) residual edges; when the sink is in `R`, push a
    // blocking flow over the admissible subgraph, otherwise raise the
    // potentials outside `R` by the smallest reduced cost crossing the
    // frontier (`δ`).  Every step is a plain `O(E)` scan — no heap, no
    // distance labels — which is markedly faster on the small, tie-rich
    // transportation networks the schedulers build (jobs of one databank
    // share their size, so admissible subgraphs are fat and `δ`-steps few).
    // Frontier candidates of the current phase: `(reduced cost, head node)`
    // of scanned non-admissible edges; filtered against final reachability
    // when the δ-step needs them.
    let mut frontier: Vec<(f64, usize)> = Vec::new();
    // Potentials only grow (by nonnegative δ), so one admissibility epsilon
    // per phase — scaled by the largest potential — avoids per-edge `abs`
    // arithmetic in the scans below.
    let mut max_potential = workspace.potential[..n]
        .iter()
        .fold(0.0f64, |m, &p| m.max(p.abs()));

    while total_flow < target {
        let adm_eps = 1e-9 * (1.0 + 2.0 * max_potential);
        // R := admissible reachability from the source (level doubles as
        // the membership flag).  Non-admissible frontier edges are recorded
        // along the way so the δ-step below needs no second edge scan.
        for l in workspace.level[..n].iter_mut() {
            *l = 0;
        }
        workspace.level[source] = 1;
        workspace.queue.clear();
        workspace.queue.push_back(source);
        frontier.clear();
        while let Some(u) = workspace.queue.pop_front() {
            for &eid in network.edges_from(u) {
                let e = network.edge(eid);
                if e.cap <= FLOW_EPS || workspace.level[e.to] != 0 {
                    continue;
                }
                let reduced = e.cost + workspace.potential[u] - workspace.potential[e.to];
                if reduced <= adm_eps {
                    workspace.level[e.to] = 1;
                    workspace.queue.push_back(e.to);
                } else {
                    frontier.push((reduced, e.to));
                }
            }
        }

        if workspace.level[sink] != 0 {
            // Blocking flow over the admissible subgraph: every augmenting
            // path at the current cost level, with one DFS sweep.
            for it in workspace.iter_idx[..n].iter_mut() {
                *it = 0;
            }
            let mut progressed = false;
            while total_flow < target {
                let pushed = admissible_push(
                    network,
                    source,
                    sink,
                    f64::INFINITY,
                    adm_eps,
                    workspace,
                    &mut total_cost,
                );
                if pushed <= FLOW_EPS {
                    break;
                }
                total_flow += pushed;
                progressed = true;
            }
            if !progressed {
                // Numerical guard: reachability and the DFS disagreed on an
                // admissibility edge case; avoid spinning.
                break;
            }
            continue;
        }

        // δ-step: the cheapest residual edge leaving R bounds how much the
        // outside potentials can rise before a new edge becomes admissible.
        // Candidates whose head joined R after they were scanned are stale
        // and dropped.
        let mut delta = f64::INFINITY;
        for &(reduced, to) in &frontier {
            if workspace.level[to] == 0 && reduced < delta {
                delta = reduced;
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            // No augmenting path exists at any cost (or numerics degraded):
            // the flow is maximum.
            break;
        }
        for v in 0..n {
            if workspace.level[v] == 0 {
                workspace.potential[v] += delta;
            }
        }
        max_potential += delta;
    }

    MinCostResult {
        flow: total_flow,
        cost: total_cost,
    }
}

/// DFS step of the primal-dual blocking flow: follow residual edges of
/// (numerically) zero reduced cost.  `in_stack` guards against the zero-cost
/// two-cycles formed by an admissible edge and its reverse.
fn admissible_push(
    network: &mut FlowNetwork,
    u: usize,
    sink: usize,
    limit: f64,
    adm_eps: f64,
    workspace: &mut FlowWorkspace,
    total_cost: &mut f64,
) -> f64 {
    if u == sink {
        return limit;
    }
    workspace.in_stack[u] = true;
    while workspace.iter_idx[u] < network.edges_from(u).len() {
        let eid = network.edges_from(u)[workspace.iter_idx[u]];
        let (to, cap, cost) = {
            let e = network.edge(eid);
            (e.to, e.cap, e.cost)
        };
        if cap > FLOW_EPS && !workspace.in_stack[to] {
            let reduced = cost + workspace.potential[u] - workspace.potential[to];
            if reduced.abs() <= adm_eps {
                let pushed = admissible_push(
                    network,
                    to,
                    sink,
                    limit.min(cap),
                    adm_eps,
                    workspace,
                    total_cost,
                );
                if pushed > FLOW_EPS {
                    network.push(eid, pushed);
                    *total_cost += pushed * cost;
                    workspace.in_stack[u] = false;
                    return pushed;
                }
            }
        }
        workspace.iter_idx[u] += 1;
    }
    workspace.in_stack[u] = false;
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn single_cheap_path_is_preferred() {
        // Two parallel routes with different costs; max flow uses both but the
        // cheap one is saturated first so the cost is minimal.
        let mut g = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        g.add_edge(s, a, 1.0, 0.0);
        g.add_edge(a, t, 1.0, 1.0); // cheap route, cap 1
        g.add_edge(s, b, 1.0, 0.0);
        g.add_edge(b, t, 1.0, 5.0); // expensive route, cap 1
        let r = min_cost_max_flow(&mut g, s, t);
        assert!(close(r.flow, 2.0));
        assert!(close(r.cost, 1.0 + 5.0));
    }

    #[test]
    fn chooses_cheapest_assignment() {
        // One unit of demand, two routes with costs 3 and 7 -> cost 3.
        let mut g = FlowNetwork::new(5);
        g.add_edge(4, 0, 1.0, 0.0);
        g.add_edge(0, 1, 1.0, 0.0);
        g.add_edge(1, 3, 5.0, 3.0);
        g.add_edge(0, 2, 1.0, 0.0);
        g.add_edge(2, 3, 5.0, 7.0);
        let r = min_cost_max_flow(&mut g, 4, 3);
        assert!(close(r.flow, 1.0));
        assert!(close(r.cost, 3.0));
    }

    #[test]
    fn fractional_split_when_cheap_capacity_is_limited() {
        // Demand 1.0; cheap route capacity 0.4 (cost 1), remainder on cost 2.
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 1.0, 0.0);
        g.add_edge(1, 2, 0.4, 1.0);
        g.add_edge(1, 2, 10.0, 2.0);
        let r = min_cost_max_flow(&mut g, 0, 2);
        assert!(close(r.flow, 1.0));
        assert!(close(r.cost, 0.4 * 1.0 + 0.6 * 2.0));
    }

    #[test]
    fn empty_network_has_zero_flow() {
        let mut g = FlowNetwork::new(2);
        let r = min_cost_max_flow(&mut g, 0, 1);
        assert!(close(r.flow, 0.0));
        assert!(close(r.cost, 0.0));
    }

    #[test]
    fn negative_costs_are_supported() {
        // Route with negative cost is preferred.
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 1.0, 0.0);
        g.add_edge(1, 3, 1.0, -2.0);
        g.add_edge(0, 2, 1.0, 0.0);
        g.add_edge(2, 3, 1.0, 4.0);
        let r = min_cost_max_flow(&mut g, 0, 3);
        assert!(close(r.flow, 2.0));
        assert!(close(r.cost, -2.0 + 4.0));
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let build = |cost: f64| {
            let mut g = FlowNetwork::new(4);
            g.add_edge(0, 1, 2.0, 0.0);
            g.add_edge(1, 3, 2.0, cost);
            g.add_edge(0, 2, 3.0, 0.0);
            g.add_edge(2, 3, 3.0, cost * 2.0);
            g
        };
        let mut ws = FlowWorkspace::new();
        for cost in [0.5, 1.0, 4.0] {
            let mut shared = build(cost);
            let mut fresh = build(cost);
            let a = min_cost_max_flow_with(&mut shared, 0, 3, &mut ws);
            let b = min_cost_max_flow(&mut fresh, 0, 3);
            assert!(close(a.flow, b.flow));
            assert!(close(a.cost, b.cost));
        }
    }

    #[test]
    fn max_flow_value_matches_dinic() {
        use crate::maxflow::max_flow;
        let build = || {
            let mut g = FlowNetwork::new(5);
            g.add_edge(0, 1, 2.0, 1.0);
            g.add_edge(0, 2, 3.0, 2.0);
            g.add_edge(1, 3, 1.5, 1.0);
            g.add_edge(2, 3, 2.5, 1.0);
            g.add_edge(1, 2, 1.0, 0.5);
            g.add_edge(3, 4, 3.5, 0.0);
            g
        };
        let mut g1 = build();
        let mut g2 = build();
        let mf = max_flow(&mut g1, 0, 4);
        let mc = min_cost_max_flow(&mut g2, 0, 4);
        assert!(close(mf.value, mc.flow));
    }
}
