//! Runtime invariant audits (feature `invariant-audit`).
//!
//! Every guarantee this workspace ships is a *determinism* guarantee, and
//! determinism bugs are silent: a conservation leak or a malformed basis
//! does not crash, it just produces different bytes on the next replay.
//! This module is the runtime half of the determinism contract (the static
//! half is the `stretch-analyze` lint pass): compiled only under the
//! `invariant-audit` feature, it verifies
//!
//! * **flow conservation** per node after every augmenting path of the
//!   Dinic kernel ([`check_flow_conservation`]);
//! * **spanning-tree basis well-formedness** after every simplex pivot,
//!   remap and canonicalisation (hooks in `simplex.rs` — tree arc count,
//!   parent/pred/depth consistency, nonbasic arcs at their bounds, zero
//!   reduced cost on tree arcs in both lexicographic channels);
//! * **scheduler state-digest consistency** at every serve transition
//!   (hooks in `stretch-serve` — an export/rebuild round-trip must
//!   reproduce the digest);
//! * **pending-index exactness** at every `run_online_with` event and
//!   every serve transition (`PendingIndex::audit` in `stretch-core` — the
//!   index must equal a full scan of the jobs seen so far).
//!
//! Audits are pure checks: enabling the feature never changes a single
//! output bit, it only turns latent contract violations into immediate
//! panics with a `invariant-audit[...]` prefix.  The dedicated CI leg runs
//! the tier-1 suite with the feature armed.

use crate::graph::FlowNetwork;

/// Aborts with a uniformly-prefixed audit diagnostic.  Every audit failure
/// funnels through here so CI logs can be grepped for one marker.
#[cold]
pub fn fail(context: &str, detail: &str) -> ! {
    panic!("invariant-audit[{context}]: {detail}");
}

/// Verifies per-node flow conservation on `network`: for every node other
/// than `source` and `sink`, inflow equals outflow within a scale-aware
/// tolerance.  Called after every augmenting path of the Dinic kernel
/// (each path moves flow atomically from source to sink, so conservation
/// must hold at every intermediate state).
pub fn check_flow_conservation(network: &FlowNetwork, source: usize, sink: usize) {
    let n = network.num_nodes();
    let mut net = vec![0.0f64; n];
    let mut max_flow_seen = 0.0f64;
    for e in 0..network.num_edges() {
        let fwd = network.edge(2 * e);
        let f = network.flow_on(2 * e);
        max_flow_seen = max_flow_seen.max(f.abs());
        // `edge(2e).to` is the head of the forward edge; its tail is the
        // head of the paired backward edge.
        let from = network.edge(2 * e + 1).to;
        net[from] -= f;
        net[fwd.to] += f;
    }
    let tol = 1e-6 * (1.0 + max_flow_seen);
    for (node, imbalance) in net.iter().enumerate() {
        if node == source || node == sink {
            continue;
        }
        if imbalance.abs() > tol {
            fail(
                "flow-conservation",
                &format!(
                    "node {node} accumulates {imbalance:+.3e} units \
                     (tolerance {tol:.3e}) after an augment"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_network_passes() {
        let mut g = FlowNetwork::new(3);
        let a = g.add_edge(0, 1, 2.0, 0.0);
        let b = g.add_edge(1, 2, 2.0, 0.0);
        g.push(a, 1.5);
        g.push(b, 1.5);
        check_flow_conservation(&g, 0, 2);
    }

    #[test]
    #[should_panic(expected = "invariant-audit[flow-conservation]")]
    fn leaking_node_is_caught() {
        let mut g = FlowNetwork::new(3);
        let a = g.add_edge(0, 1, 2.0, 0.0);
        let _b = g.add_edge(1, 2, 2.0, 0.0);
        g.push(a, 1.5); // 1.5 units enter node 1 and never leave
        check_flow_conservation(&g, 0, 2);
    }
}
