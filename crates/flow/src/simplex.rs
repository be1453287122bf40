//! A network-simplex backend for the minimum-cost solve.
//!
//! The primal-dual kernel of [`crate::mincost`] is at its constant-factor
//! floor: every phase scans the whole edge set, and on the tie-rich
//! transportation networks of the scheduler most phases move little flow.
//! The network simplex walks the *vertices* of the flow polytope instead:
//! it maintains a spanning-tree basis, prices the nonbasic arcs against the
//! tree's node potentials, and pivots along the unique tree cycle of an
//! eligible arc.  On product-form transportation costs (the System-(2)
//! objective) the admissible structure is exactly what a spanning-tree basis
//! captures, so pivots are few and each one touches only a tree path.
//!
//! Implementation notes:
//!
//! * **Maximum flow via a big-cost return arc.**  The min-cost *max*-flow
//!   semantics of [`crate::backend::MinCostBackend`] are obtained by adding a
//!   `sink → source` arc of cost `-BIG` (with `BIG` dominating any simple
//!   path cost) and solving a zero-supply min-cost circulation, so flow
//!   maximisation and cost minimisation happen in one pivot sequence.
//! * **Strongly feasible basis.**  The initial basis is the star of
//!   artificial root arcs (every node pointing at an artificial root), which
//!   is strongly feasible; the leaving-arc rule breaks ratio-test ties the
//!   standard way (last blocking arc against the cycle orientation), which
//!   preserves strong feasibility and rules out cycling on degenerate
//!   pivots.
//! * **Block pricing.**  The entering arc is the most negative reduced cost
//!   in the first block (of `≈√m` arcs) containing any eligible arc, with a
//!   per-solve rolling start position — the standard compromise between
//!   Dantzig pricing and round-robin.  The start position resets at every
//!   solve so a solve is a pure function of its instance and start basis.
//! * **Deterministic optimum (lexicographic tie-break).**  The System-(2)
//!   costs are massively tied — a job's work costs the same in a given
//!   interval on *every* site hosting its databank — so the optimal face
//!   has many vertices and the one a pivot sequence lands on depends on the
//!   start basis.  To make warm-started and cold solves agree **bit for
//!   bit**, every arc carries a secondary integer cost (a pseudo-random
//!   function of its endpoints' stable keys when the caller supplied them,
//!   of its index otherwise; exact in `f64`), pricing compares reduced
//!   costs lexicographically (phase 2 of [`NetworkSimplexBackend`]'s pivot
//!   loop), and the solve only stops at the unique lexicographic optimum.
//!   Keying the tie-break by stable identities also makes the canonical
//!   vertex *stable across events*, which is what keeps the phase-2 face
//!   walk short for remapped warm starts.  The final basis is then
//!   *canonicalised*: flows are re-derived from the vertex itself, not from
//!   the pivot history, so any two pivot paths reaching the optimum produce
//!   identical bytes.
//! * **Warm starts.**  Three tiers, checked in order.  The first two
//!   re-prime the basis for the new data: nonbasic flows snap to their
//!   bounds, tree flows are recomputed by conservation (leaf elimination,
//!   with a bounded big-M repair hanging any misfit on artificial arcs)
//!   and potentials are rebuilt; if re-priming fails outright the solver
//!   crashes fresh, so correctness never depends on the warm start.
//!   1. **Exact topology** — the next network has the same arc list (the
//!      repeated-solve case): the previous basis is re-primed in place.
//!   2. **Basis remap** ([`crate::remap::BasisRemap`]) — the network changed
//!      shape but the caller supplied stable node keys through
//!      [`MinCostBackend::warm_hint`] (the cross-*event* case of the on-line
//!      schedulers: jobs complete, intervals move, most of the network
//!      persists): surviving arcs keep their basis state, departed arcs are
//!      pruned, new arcs enter nonbasic, and a bounded union–find repair
//!      pass restores a spanning tree.
//!   3. **Cold** — the crash basis of artificial root arcs.
//! * **Numerical safety net.**  All comparisons use scale-aware epsilons; if
//!   the pivot budget is ever exhausted (pathological numerics), the backend
//!   resets the network and delegates to the primal-dual reference kernel,
//!   so a degraded instance costs time, not correctness.

use crate::backend::MinCostBackend;
use crate::graph::FlowNetwork;
use crate::mincost::{min_cost_flow_up_to, MinCostResult};
use crate::remap::{repair_spanning_tree, BasisRemap};
use crate::workspace::FlowWorkspace;
use crate::FLOW_EPS;

/// Nonbasic arc at its lower bound (zero flow).
pub const STATE_LOWER: i8 = 1;
/// Basic arc (in the spanning tree).
pub const STATE_TREE: i8 = 0;
/// Nonbasic arc at its upper bound (flow = capacity).
pub const STATE_UPPER: i8 = -1;

/// One splitmix64 finalisation round.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Secondary (tie-break) cost of arc `a` when no stable keys are known: a
/// pseudo-random 30-bit integer derived from the arc index.
///
/// Integer-valued and bounded by 2³⁰, so sums of up to ~2²³ of them along
/// tree paths stay exact in `f64` (far beyond any realistic node count);
/// pseudo-random, so alternating sums along cycles are nonzero with
/// overwhelming probability — which is what makes the lexicographic
/// optimum unique and the solve start-basis-independent.  The width
/// matters: the System-(2) tie structure yields on the order of
/// `jobs² · sites² · intervals` primary-tied 4-cycles per instance, so a
/// 20-bit channel would be expected to hit a zero alternating sum at paper
/// scale; at 30 bits the expected count stays far below one.  (A
/// monotone-in-index ramp would shorten the phase-2 face walk a little,
/// but its alternating sums cancel on short cycles, which loses uniqueness
/// — and with it the warm/cold bit-identity.)
fn tie_cost(a: usize) -> f64 {
    (mix64(a as u64) >> 34) as f64
}

/// Secondary cost of an arc identified by its endpoints' **stable keys**.
///
/// Same uniqueness properties as [`tie_cost`], with one decisive extra:
/// the value is *stable across events*.  The canonical (lexicographically
/// optimal) vertex of one event then restricts to almost the canonical
/// vertex of the next, so a warm start remapped from the previous canonical
/// basis begins phase 2 already at — or a few pivots from — its target,
/// while an index-keyed tie-break would re-randomise the target at every
/// event and send warm starts on a long face walk.
fn keyed_tie_cost(key_from: u64, key_to: u64) -> f64 {
    (mix64(mix64(key_from) ^ key_to.rotate_left(32)) >> 34) as f64
}

/// Which side of the entering arc's cycle a blocking arc was found on.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// The path from the node the augmentation *leaves* the tree towards.
    First,
    /// The path from the node the augmentation *enters* the tree from.
    Second,
}

/// Which warm-start tier [`NetworkSimplexBackend::load`] selected.
#[derive(Clone, Copy, PartialEq)]
enum WarmPath {
    /// Same arc list as the previous solve: re-prime the basis in place.
    Exact,
    /// Different shape, stable keys available: remap the basis.
    Remap,
    /// No reusable basis: crash fresh.
    Cold,
}

/// Min-cost max-flow by network simplex; see the module docs.
///
/// Hold one per solver and feed it every instance: scratch memory — and the
/// spanning-tree basis, re-primed on exact topology repeats and *remapped*
/// across shape changes when [`MinCostBackend::warm_hint`] supplies stable
/// node keys — is reused across solves.
pub struct NetworkSimplexBackend {
    // --- arc arrays (real arcs, then the return arc, then root arcs) ---
    from: Vec<usize>,
    to: Vec<usize>,
    cap: Vec<f64>,
    cost: Vec<f64>,
    /// Secondary integer costs of the lexicographic tie-break.
    cost2: Vec<f64>,
    flow: Vec<f64>,
    state: Vec<i8>,
    // --- spanning tree ---
    parent: Vec<usize>,
    pred: Vec<usize>,
    depth: Vec<usize>,
    children: Vec<Vec<usize>>,
    pi: Vec<f64>,
    /// Secondary potentials (exact integers, paired with `cost2`).
    pi2: Vec<f64>,
    // --- warm-start bookkeeping ---
    /// `(from << 32) | to` per real arc of the last solve; the exact-topology
    /// warm start is attempted only when the next instance matches exactly.
    signature: Vec<u64>,
    /// Node count (excluding the artificial root) of the last solve.
    num_nodes: usize,
    /// `true` when the stored basis belongs to a completed solve.
    basis_valid: bool,
    /// `false` disables every cross-solve reuse tier (the "cold" reference
    /// configuration of the warm/cold differential tests).
    warm_start: bool,
    /// Stable node keys supplied for the *next* solve via
    /// [`MinCostBackend::warm_hint`].
    hint: Vec<u64>,
    hint_valid: bool,
    /// Cross-event basis memory (keyed by the hint of the solve it recorded).
    remap: BasisRemap,
    // --- scratch ---
    remap_states: Vec<i8>,
    state_backup: Vec<i8>,
    flow_backup: Vec<f64>,
    uf: Vec<usize>,
    tree_adj: Vec<Vec<(usize, usize)>>,
    visited: Vec<bool>,
    elim_order: Vec<usize>,
    path_nodes: Vec<usize>,
    path_preds: Vec<usize>,
    dfs_stack: Vec<usize>,
    excess: Vec<f64>,
    /// Rolling start position of the pricing block (reset per solve).
    block_pos: usize,
    /// Pivot budget blow-ups so far (each one fell back to the reference
    /// kernel); exposed for tests and diagnostics.
    fallbacks: usize,
    /// Solves that took the basis-remap warm tier; diagnostic.
    remapped_solves: usize,
}

impl Default for NetworkSimplexBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkSimplexBackend {
    /// Creates a backend with empty scratch (grows on first use) and every
    /// warm-start tier enabled.
    pub fn new() -> Self {
        Self::with_warm_start(true)
    }

    /// Creates a backend with cross-solve basis reuse switched on or off.
    ///
    /// With `false`, every solve crashes a fresh basis and
    /// [`MinCostBackend::warm_hint`] is ignored — the "cold" reference the
    /// warm/cold bit-identity contract is pinned against.
    pub fn with_warm_start(warm_start: bool) -> Self {
        NetworkSimplexBackend {
            from: Vec::new(),
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            cost2: Vec::new(),
            flow: Vec::new(),
            state: Vec::new(),
            parent: Vec::new(),
            pred: Vec::new(),
            depth: Vec::new(),
            children: Vec::new(),
            pi: Vec::new(),
            pi2: Vec::new(),
            signature: Vec::new(),
            num_nodes: 0,
            basis_valid: false,
            warm_start,
            hint: Vec::new(),
            hint_valid: false,
            remap: BasisRemap::default(),
            remap_states: Vec::new(),
            state_backup: Vec::new(),
            flow_backup: Vec::new(),
            uf: Vec::new(),
            tree_adj: Vec::new(),
            visited: Vec::new(),
            elim_order: Vec::new(),
            path_nodes: Vec::new(),
            path_preds: Vec::new(),
            dfs_stack: Vec::new(),
            excess: Vec::new(),
            block_pos: 0,
            fallbacks: 0,
            remapped_solves: 0,
        }
    }

    /// How often the pivot budget blew up and the solve fell back to the
    /// primal-dual reference kernel (diagnostic; should stay at zero).
    pub fn fallback_count(&self) -> usize {
        self.fallbacks
    }

    /// How many solves started from a remapped (cross-event) basis;
    /// diagnostic for tests and benches.
    pub fn remap_count(&self) -> usize {
        self.remapped_solves
    }

    /// `true` when the next solve of a `num_nodes`-node network will start
    /// from the remembered cross-event basis: warm start on, a
    /// [`BasisRemap`] remembered, and a [`MinCostBackend::warm_hint`] for
    /// exactly this node count pending.  [`Self::load`] picks
    /// [`WarmPath::Remap`] by this predicate, and
    /// [`crate::monge::MongeBackend`] skips its greedy seed by it.
    pub(crate) fn holds_remap_basis(&self, num_nodes: usize) -> bool {
        self.warm_start && self.remap.is_valid() && self.hint_valid && self.hint.len() == num_nodes
    }

    /// Loads the instance out of `network` (fresh, no flow) into the arc
    /// arrays and picks the warm-start tier (see the module docs).
    fn load(&mut self, network: &FlowNetwork, source: usize, sink: usize) -> WarmPath {
        let n = network.num_nodes();
        let m_real = network.num_edges();
        // + return arc + up root arcs (v → root) + down root arcs (root → v).
        let num_arcs = m_real + 1 + 2 * n;
        let mut same_topology = self.warm_start && self.basis_valid && self.num_nodes == n;

        self.from.clear();
        self.to.clear();
        self.cap.clear();
        self.cost.clear();
        let mut source_out = 0.0f64;
        for a in 0..m_real {
            let eid = 2 * a;
            let fwd = network.edge(eid);
            let u = network.edge(eid ^ 1).to;
            let v = fwd.to;
            self.from.push(u);
            self.to.push(v);
            self.cap.push(fwd.cap); // network carries no flow: cap == original
            self.cost.push(fwd.cost);
            if u == source {
                source_out += fwd.cap;
            }
            let sig = ((u as u64) << 32) | v as u64;
            if same_topology && self.signature.get(a).copied() != Some(sig) {
                same_topology = false;
            }
        }
        if same_topology && self.signature.len() != m_real {
            same_topology = false;
        }
        if !same_topology {
            self.signature.clear();
            self.signature.extend(
                self.from
                    .iter()
                    .zip(&self.to)
                    .map(|(&u, &v)| ((u as u64) << 32) | v as u64),
            );
        }

        // `BIG` must dominate the cost of any simple path so that the return
        // arc (a) makes every augmenting s→t path a negative cycle and
        // (b) is never worth reducing once the flow is maximum.
        let max_cost = self.cost.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        let big = (max_cost + 1.0) * (n as f64 + 2.0);

        // Return arc sink → source.
        self.from.push(sink);
        self.to.push(source);
        self.cap.push(source_out);
        self.cost.push(-big);

        // Artificial root arcs, one pair per node: `v → root` (the crash
        // basis star) and `root → v`.  Both cost `+BIG`, so no optimal
        // solution ever uses them (any root cycle pays ≥ +BIG even against
        // the return arc); mid-solve they serve two purposes — the up arcs
        // are the crash basis, and the warm-start repair pass hangs the
        // *misfit* of a remapped basis on whichever orientation the local
        // imbalance needs, for the pivots to drain.
        let root = n;
        for v in 0..n {
            self.from.push(v);
            self.to.push(root);
            self.cap.push(f64::INFINITY);
            self.cost.push(big);
        }
        for v in 0..n {
            self.from.push(root);
            self.to.push(v);
            self.cap.push(f64::INFINITY);
            self.cost.push(big);
        }
        // Secondary costs: keyed by stable identities when the caller
        // supplied them (event-stable canonical vertex — see
        // [`keyed_tie_cost`]), by arc index otherwise.  Note the hint is
        // used here even by a `warm_start = false` backend: it describes
        // *this* instance, not cross-solve state, and warm and cold solves
        // of one instance must price the same tie-break to land on the same
        // optimum.
        let have_keys = self.hint_valid && self.hint.len() == n;
        self.cost2.clear();
        if have_keys {
            let hint = &self.hint;
            let key_of = |v: usize| if v < n { hint[v] } else { u64::MAX };
            self.cost2.extend(
                self.from
                    .iter()
                    .zip(&self.to)
                    .map(|(&u, &v)| keyed_tie_cost(key_of(u), key_of(v))),
            );
        } else {
            self.cost2.extend((0..num_arcs).map(tie_cost));
        }

        debug_assert_eq!(self.from.len(), num_arcs);
        self.flow.resize(num_arcs, 0.0);
        self.num_nodes = n;
        if same_topology && self.state.len() == num_arcs {
            WarmPath::Exact
        } else if self.holds_remap_basis(n) {
            WarmPath::Remap
        } else {
            WarmPath::Cold
        }
    }

    /// Installs the crash basis: every real arc nonbasic at its lower bound,
    /// the artificial star as the tree.
    fn crash_basis(&mut self) {
        let n = self.num_nodes;
        let root = n;
        let num_arcs = self.from.len();
        let m_real = num_arcs - 1 - 2 * n;
        self.state.clear();
        self.state.resize(num_arcs, STATE_LOWER);
        self.flow.iter_mut().for_each(|f| *f = 0.0);
        self.parent.clear();
        self.parent.resize(n + 1, usize::MAX);
        self.pred.clear();
        self.pred.resize(n + 1, usize::MAX);
        self.depth.clear();
        self.depth.resize(n + 1, 0);
        self.pi.clear();
        self.pi.resize(n + 1, 0.0);
        self.pi2.clear();
        self.pi2.resize(n + 1, 0.0);
        self.children.resize_with(n + 1, Vec::new);
        for c in self.children.iter_mut() {
            c.clear();
        }
        for v in 0..n {
            let arc = m_real + 1 + v;
            self.state[arc] = STATE_TREE;
            self.parent[v] = root;
            self.pred[v] = arc;
            self.depth[v] = 1;
            // rc(v→root) = cost + pi[v] - pi[root] = 0 (both channels).
            self.pi[v] = -self.cost[arc];
            self.pi2[v] = -self.cost2[arc];
            self.children[root].push(v);
        }
    }

    /// Rebuilds the tree arrays (`parent`/`pred`/`depth`/`children`) from the
    /// arcs currently marked [`STATE_TREE`], by a deterministic depth-first
    /// walk from the artificial root (tree arcs visited in index order).
    /// Returns `false` when the marked arcs do not span all nodes.
    fn rebuild_tree_from_states(&mut self) -> bool {
        let n = self.num_nodes;
        let root = n;
        if self.tree_adj.len() < n + 1 {
            self.tree_adj.resize_with(n + 1, Vec::new);
        }
        for l in self.tree_adj[..n + 1].iter_mut() {
            l.clear();
        }
        for a in 0..self.from.len() {
            if self.state[a] == STATE_TREE {
                self.tree_adj[self.from[a]].push((self.to[a], a));
                self.tree_adj[self.to[a]].push((self.from[a], a));
            }
        }
        self.parent.clear();
        self.parent.resize(n + 1, usize::MAX);
        self.pred.clear();
        self.pred.resize(n + 1, usize::MAX);
        self.depth.clear();
        self.depth.resize(n + 1, 0);
        self.children.resize_with(n + 1, Vec::new);
        for c in self.children.iter_mut() {
            c.clear();
        }
        self.visited.clear();
        self.visited.resize(n + 1, false);
        self.visited[root] = true;
        self.dfs_stack.clear();
        self.dfs_stack.push(root);
        let mut reached = 1usize;
        while let Some(u) = self.dfs_stack.pop() {
            for i in 0..self.tree_adj[u].len() {
                let (v, arc) = self.tree_adj[u][i];
                if self.visited[v] {
                    continue;
                }
                self.visited[v] = true;
                self.parent[v] = u;
                self.pred[v] = arc;
                self.depth[v] = self.depth[u] + 1;
                self.children[u].push(v);
                self.dfs_stack.push(v);
                reached += 1;
            }
        }
        reached == n + 1
    }

    /// Maps the remembered cross-event basis onto the freshly loaded arc
    /// arrays (see [`BasisRemap`]) and rebuilds the tree.  Returns `false`
    /// when the repaired arc set fails to span (caller crashes fresh).
    fn apply_remap(&mut self) -> bool {
        let mut states = std::mem::take(&mut self.remap_states);
        let up_base = self.from.len() - 2 * self.num_nodes;
        self.remap.plan(
            &self.hint,
            &self.from,
            &self.to,
            self.num_nodes,
            up_base,
            &mut states,
        );
        self.state.clear();
        self.state.extend_from_slice(&states);
        self.remap_states = states;
        self.rebuild_tree_from_states()
    }

    /// Re-primes the current basis (tree arrays + states) for the loaded
    /// capacities/costs: nonbasic flows snap to their bounds, tree flows are
    /// recomputed by conservation, and potentials are rebuilt from the tree.
    /// Returns `false` when the basis is infeasible under the new data
    /// (caller then crashes fresh).
    ///
    /// With `repair` on — the warm-start tiers — an out-of-bounds tree flow
    /// does **not** reject the basis: the violating arc is clamped to the
    /// bound it broke (and demoted there), the node is re-hung on the
    /// artificial root arc of the orientation its leftover imbalance needs,
    /// and that artificial carries the misfit at `+BIG` cost for the pivot
    /// loop to drain.  This is the bounded Phase-1 replacement: across
    /// events most of the old flow pattern still fits, so only the misfit —
    /// not the whole flow — costs pivots.  With `repair` off (the canonical
    /// extraction of an optimal vertex, where violations would mean broken
    /// numerics) the strict reject is kept.
    ///
    /// The leaf-elimination order is canonical — decreasing depth, ties by
    /// node index — so the flows this pass derives are a pure function of
    /// (basis, capacities): this is what makes the canonicalised output of
    /// [`Self::canonicalize`] byte-reproducible across pivot histories.
    fn warm_basis(&mut self, eps_flow: f64, repair: bool) -> bool {
        let n = self.num_nodes;
        let root = n;
        let num_arcs = self.from.len();
        let m_real = num_arcs - 1 - 2 * n;
        let up_base = m_real + 1;
        let down_base = up_base + n;
        // Bound-snapping pass; tree arcs are handled below.
        self.excess.clear();
        self.excess.resize(n + 1, 0.0);
        for a in 0..num_arcs {
            match self.state[a] {
                STATE_LOWER => self.flow[a] = 0.0,
                STATE_UPPER => {
                    if !self.cap[a].is_finite() {
                        return false;
                    }
                    self.flow[a] = self.cap[a];
                }
                _ => continue,
            }
            if self.flow[a] != 0.0 {
                self.excess[self.to[a]] += self.flow[a];
                self.excess[self.from[a]] -= self.flow[a];
            }
        }
        // Leaf elimination in canonical order: the tree arc of each node
        // absorbs the node's residual imbalance.
        self.elim_order.clear();
        self.elim_order.extend(0..n);
        {
            let depth = &self.depth;
            self.elim_order
                .sort_unstable_by_key(|&v| (std::cmp::Reverse(depth[v]), v));
        }
        let mut rehung = false;
        for i in 0..self.elim_order.len() {
            let v = self.elim_order[i];
            let arc = self.pred[v];
            if arc == usize::MAX {
                return false;
            }
            let up = self.parent[v];
            // `excess[v]` must be cancelled by the tree arc's flow.
            let f_req = if self.from[arc] == v {
                // v → parent: flow f contributes -f at v.
                self.excess[v]
            } else {
                // parent → v: flow f contributes +f at v.
                -self.excess[v]
            };
            if f_req < -eps_flow || f_req > self.cap[arc] + eps_flow {
                if !repair {
                    return false;
                }
                // The old tree arc can't carry what conservation demands:
                // pin it at the bound it broke, hand the leftover to an
                // artificial, and re-hang `v` directly under the root.
                let f_clamp = f_req.clamp(0.0, self.cap[arc]);
                self.state[arc] = if f_clamp == 0.0 {
                    STATE_LOWER
                } else {
                    STATE_UPPER
                };
                self.flow[arc] = f_clamp;
                // Leftover at `v` (after the clamped arc's contribution):
                // positive must flow v → root, negative root → v.
                let leftover = if self.from[arc] == v {
                    self.excess[v] - f_clamp
                } else {
                    self.excess[v] + f_clamp
                };
                let art = if leftover >= 0.0 {
                    up_base + v
                } else {
                    down_base + v
                };
                self.state[art] = STATE_TREE;
                self.flow[art] = leftover.abs();
                if up != usize::MAX {
                    let list = &mut self.children[up];
                    if let Some(pos) = list.iter().position(|&c| c == v) {
                        list.swap_remove(pos);
                    }
                }
                self.parent[v] = root;
                self.pred[v] = art;
                self.children[root].push(v);
                rehung = true;
                // The clamped flow still reaches the old parent; the
                // artificial's flow cancels at the root by construction.
                if self.from[arc] == v {
                    self.excess[up] += f_clamp;
                } else {
                    self.excess[up] -= f_clamp;
                }
                // Either orientation delivers `leftover` to the root's
                // balance: `v → root` receives it, `root → v` sends its
                // negation.
                self.excess[root] += leftover;
                continue;
            }
            let f = f_req.clamp(0.0, self.cap[arc]);
            self.flow[arc] = f;
            if self.from[arc] == v {
                self.excess[up] += f;
            } else {
                self.excess[up] -= f;
            }
        }
        if self.excess[root].abs() > eps_flow.max(1e-6) {
            return false;
        }
        if rehung {
            // Depths of re-hung subtrees are stale; recompute all of them
            // from the (children-consistent) tree in one walk.
            self.depth[root] = 0;
            self.dfs_stack.clear();
            self.dfs_stack.push(root);
            while let Some(u) = self.dfs_stack.pop() {
                for i in 0..self.children[u].len() {
                    let v = self.children[u][i];
                    self.depth[v] = self.depth[u] + 1;
                    self.dfs_stack.push(v);
                }
            }
        }
        // Potentials from the tree (costs may have changed).
        self.pi.resize(n + 1, 0.0);
        self.pi2.resize(n + 1, 0.0);
        self.pi[root] = 0.0;
        self.pi2[root] = 0.0;
        self.dfs_stack.clear();
        self.dfs_stack.push(root);
        while let Some(u) = self.dfs_stack.pop() {
            for i in 0..self.children[u].len() {
                let v = self.children[u][i];
                let arc = self.pred[v];
                if self.from[arc] == v {
                    // rc = cost + pi[v] - pi[u] = 0
                    self.pi[v] = self.pi[u] - self.cost[arc];
                    self.pi2[v] = self.pi2[u] - self.cost2[arc];
                } else {
                    self.pi[v] = self.pi[u] + self.cost[arc];
                    self.pi2[v] = self.pi2[u] + self.cost2[arc];
                }
                self.dfs_stack.push(v);
            }
        }
        true
    }

    /// Block pricing: the most violating reduced cost in the first block
    /// containing any eligible arc.  With `lex` off (phase 1, the bulk of
    /// the solve) only the primary channel is priced, exactly as a plain
    /// network simplex would.  With `lex` on (phase 2) an arc is also
    /// eligible when its primary reduced cost is a tie (within `eps_cost`)
    /// and the secondary integer channel strictly improves, and candidates
    /// compare lexicographically — this is what walks the tied optimal face
    /// to its unique vertex.  The secondary channel is only computed for
    /// arcs that survive the primary filter, so phase 2's extra cost is
    /// proportional to the tie structure, not to the arc count.  Returns the
    /// entering arc and the push direction (+1: along the arc, -1: against
    /// it).
    fn find_entering(&mut self, eps_cost: f64, lex: bool) -> Option<(usize, i8)> {
        let m = self.from.len();
        if m == 0 {
            return None;
        }
        let block = ((m as f64).sqrt() as usize).max(16);
        let mut best: Option<(usize, f64, f64)> = None;
        let mut pos = self.block_pos % m;
        let mut scanned = 0;
        while scanned < m {
            let chunk = block.min(m - scanned);
            for _ in 0..chunk {
                let a = pos;
                pos = (pos + 1) % m;
                scanned += 1;
                let s = self.state[a];
                if s == STATE_TREE || self.cap[a] <= 0.0 {
                    continue;
                }
                let rc = self.cost[a] + self.pi[self.from[a]] - self.pi[self.to[a]];
                // An arc at lower bound is eligible when rc < -eps, one at
                // upper bound when rc > eps: uniformly, -state·rc > eps.
                let v1 = -(s as f64) * rc;
                let eligible_primary = v1 > eps_cost;
                if !eligible_primary && (!lex || v1 <= -eps_cost) {
                    continue;
                }
                // The secondary channel is only computed for arcs that
                // survived the primary filter — in phase 1 that is a
                // handful per block, so steering *candidate selection* by
                // it (which nudges phase 1 towards the canonical vertex and
                // keeps the phase-2 walk short) costs almost nothing.  On a
                // primary tie (|v1| ≤ eps, phase 2 only) it also decides
                // eligibility: integer arithmetic, a true violation is ≥ 1.
                let v2 =
                    -(s as f64) * (self.cost2[a] + self.pi2[self.from[a]] - self.pi2[self.to[a]]);
                if !eligible_primary && v2 <= 0.5 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, b1, b2)) => v1 > b1 + eps_cost || (v1 > b1 - eps_cost && v2 > b2),
                };
                if better {
                    best = Some((a, v1, v2));
                }
            }
            if best.is_some() {
                break;
            }
        }
        self.block_pos = pos;
        // The push direction equals the state sign: from the lower bound the
        // flow increases along the arc, from the upper bound it decreases.
        best.map(|(a, _, _)| (a, self.state[a]))
    }

    /// Lowest common ancestor of `a` and `b` under the current tree.
    fn join(&self, mut a: usize, mut b: usize) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b];
        }
        while a != b {
            a = self.parent[a];
            b = self.parent[b];
        }
        a
    }

    /// Residual capacity of the tree arc above `x` when pushing *towards*
    /// the root (`up == true`) or away from it.
    fn tree_residual(&self, x: usize, up: bool) -> f64 {
        let arc = self.pred[x];
        let along = (self.from[arc] == x) == up;
        if along {
            self.cap[arc] - self.flow[arc]
        } else {
            self.flow[arc]
        }
    }

    /// One pivot on entering arc `e` pushed in direction `dir`.
    fn pivot(&mut self, e: usize, dir: i8) {
        // Push direction along the cycle: first --e--> second, then back
        // through the tree second → join → first.
        let (first, second) = if dir > 0 {
            (self.from[e], self.to[e])
        } else {
            (self.to[e], self.from[e])
        };
        let join = self.join(first, second);

        // Ratio test.  The entering arc's own residual:
        let mut delta = if dir > 0 {
            self.cap[e] - self.flow[e]
        } else {
            self.flow[e]
        };
        let mut leaving: Option<(usize, Side)> = None;
        // First-side path (join → … → first): augmentation runs *down*
        // (away from the root), i.e. against the upward walk.
        let mut x = first;
        while x != join {
            let r = self.tree_residual(x, false);
            if r < delta {
                delta = r;
                leaving = Some((x, Side::First));
            }
            x = self.parent[x];
        }
        // Second-side path (second → … → join): augmentation runs *up*.
        // `<=` (not `<`) implements the strongly-feasible tie-break.
        let mut x = second;
        while x != join {
            let r = self.tree_residual(x, true);
            if r <= delta {
                delta = r;
                leaving = Some((x, Side::Second));
            }
            x = self.parent[x];
        }

        // Augment.
        if delta > 0.0 {
            self.flow[e] += (dir as f64) * delta;
            let mut x = first;
            while x != join {
                let arc = self.pred[x];
                if self.from[arc] == x {
                    self.flow[arc] -= delta; // down-push against v→parent
                } else {
                    self.flow[arc] += delta;
                }
                x = self.parent[x];
            }
            let mut x = second;
            while x != join {
                let arc = self.pred[x];
                if self.from[arc] == x {
                    self.flow[arc] += delta; // up-push along v→parent
                } else {
                    self.flow[arc] -= delta;
                }
                x = self.parent[x];
            }
        }

        let Some((x_out, side)) = leaving else {
            // The entering arc itself hit its opposite bound: bound flip.
            self.state[e] = -dir;
            self.flow[e] = self.flow[e].clamp(0.0, self.cap[e]);
            return;
        };

        // Basis exchange: `pred[x_out]` leaves (at whichever bound it hit),
        // `e` enters.  The subtree detached at `x_out` contains `first` when
        // the blocking arc was on the first side, `second` otherwise; it is
        // re-hung from the entering arc.
        let out_arc = self.pred[x_out];
        let at_upper = (self.cap[out_arc] - self.flow[out_arc]).abs() <= self.flow[out_arc].abs();
        self.state[out_arc] = if at_upper { STATE_UPPER } else { STATE_LOWER };
        self.flow[out_arc] = if at_upper { self.cap[out_arc] } else { 0.0 };
        self.state[e] = STATE_TREE;

        let (z, w) = match side {
            Side::First => (first, second),
            Side::Second => (second, first),
        };

        // Reverse the parent pointers on the path z → x_out, attaching z
        // under w via the entering arc.
        self.path_nodes.clear();
        self.path_preds.clear();
        let mut x = z;
        loop {
            self.path_nodes.push(x);
            self.path_preds.push(self.pred[x]);
            if x == x_out {
                break;
            }
            x = self.parent[x];
        }
        let mut new_parent = w;
        let mut new_pred = e;
        for i in 0..self.path_nodes.len() {
            let node = self.path_nodes[i];
            let old_parent = self.parent[node];
            // Detach from the old parent's child list.
            if old_parent != usize::MAX {
                let list = &mut self.children[old_parent];
                if let Some(pos) = list.iter().position(|&c| c == node) {
                    list.swap_remove(pos);
                }
            }
            self.parent[node] = new_parent;
            self.pred[node] = new_pred;
            self.children[new_parent].push(node);
            new_parent = node;
            new_pred = self.path_preds[i];
        }

        // Depths and potentials of the re-hung subtree (and only it).
        self.dfs_stack.clear();
        self.dfs_stack.push(z);
        while let Some(u) = self.dfs_stack.pop() {
            let p = self.parent[u];
            let arc = self.pred[u];
            self.depth[u] = self.depth[p] + 1;
            if self.from[arc] == u {
                self.pi[u] = self.pi[p] - self.cost[arc];
                self.pi2[u] = self.pi2[p] - self.cost2[arc];
            } else {
                self.pi[u] = self.pi[p] + self.cost[arc];
                self.pi2[u] = self.pi2[p] + self.cost2[arc];
            }
            for i in 0..self.children[u].len() {
                let c = self.children[u][i];
                self.dfs_stack.push(c);
            }
        }
    }

    /// Runs the pivot loop to lexicographic optimality: phase 1 prices the
    /// primary channel only until no primary violation remains, then phase 2
    /// (primary *and* secondary) walks the tied optimal face to its unique
    /// vertex.  Phase 2's entering rule subsumes phase 1's, so any primary
    /// violation resurfacing within phase 2 (they stay within `eps` of
    /// optimal — face pivots move potentials by at most the tie tolerance)
    /// is still picked up; splitting merely keeps the secondary pricing off
    /// the hot part of the solve.  Returns `false` when the pivot budget
    /// blows up (caller falls back to the reference kernel).
    fn optimize(&mut self, eps_cost: f64) -> bool {
        let m = self.from.len();
        let budget = 200 * m + 2_000;
        let mut spent = 0usize;
        for lex in [false, true] {
            loop {
                if spent >= budget {
                    return false;
                }
                spent += 1;
                match self.find_entering(eps_cost, lex) {
                    Some((e, dir)) => {
                        self.pivot(e, dir);
                        #[cfg(feature = "invariant-audit")]
                        self.audit_basis("pivot");
                    }
                    None => break,
                }
            }
        }
        true
    }

    /// Canonicalises the optimal solution so the emitted bytes depend only
    /// on the *vertex* the pivot loop reached, not on the pivot history:
    ///
    /// 1. every arc is re-classified from its flow (at lower bound / at
    ///    upper bound / strictly between — the *free* arcs, which form a
    ///    forest at any vertex);
    /// 2. the free forest is completed into a canonical spanning tree (arc
    ///    index order, artificial arcs last) by the same union–find repair
    ///    as the cross-event remap;
    /// 3. flows and potentials are re-derived from that canonical basis by
    ///    [`Self::warm_basis`]'s deterministic conservation pass.
    ///
    /// Two pivot paths reaching the same optimum — a warm-started and a cold
    /// solve, say — thereby produce bit-identical flows, and the basis
    /// remembered for the next event is canonical too.  If re-derivation
    /// fails (pathological numerics), the incremental result is restored:
    /// canonicalisation is a determinism device, never a correctness risk.
    fn canonicalize(&mut self, eps_flow: f64) {
        self.state_backup.clone_from(&self.state);
        self.flow_backup.clone_from(&self.flow);
        for a in 0..self.from.len() {
            let f = self.flow[a];
            let c = self.cap[a];
            self.state[a] = if f <= eps_flow {
                STATE_LOWER
            } else if c.is_finite() && f >= c - eps_flow {
                STATE_UPPER
            } else {
                STATE_TREE
            };
        }
        // Fast path: when the classification reproduces the final basis
        // exactly, the vertex is nondegenerate there — its basis is unique,
        // hence already start-independent — and only the flows need the
        // canonical re-derivation (on the tree arrays optimize() left
        // behind, which are still valid).
        let rebuilt = if self.state == self.state_backup {
            true
        } else {
            let up_base = self.from.len() - 2 * self.num_nodes;
            repair_spanning_tree(
                &mut self.uf,
                &self.from,
                &self.to,
                self.num_nodes,
                up_base,
                &mut self.state,
            );
            self.rebuild_tree_from_states()
        };
        if !rebuilt || !self.warm_basis(eps_flow, false) {
            // Restore the incremental (correct, merely path-dependent)
            // solution and its actual basis.
            self.state.clone_from(&self.state_backup);
            self.flow.clone_from(&self.flow_backup);
            let _ = self.rebuild_tree_from_states();
        }
    }

    /// Scale-aware comparison tolerances of the loaded instance.
    fn tolerances(&self) -> (f64, f64) {
        let max_cap = self
            .cap
            .iter()
            .filter(|c| c.is_finite())
            .fold(0.0f64, |m, &c| m.max(c));
        let eps_flow = 1e-9 * (1.0 + max_cap);
        let max_cost = self.cost.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        let eps_cost = 1e-11 * (1.0 + max_cost);
        (eps_flow, eps_cost)
    }

    /// Full well-formedness audit of the current spanning-tree basis
    /// (feature `invariant-audit`): exactly `n` tree arcs spanning the
    /// `n + 1` nodes, consistent `parent`/`pred`/`depth` arrays, every
    /// nonbasic arc at the bound its state claims, tree flows within
    /// bounds, and zero reduced cost on tree arcs in both lexicographic
    /// channels.  Tolerances are looser than the pivot tolerances so the
    /// audit can never fire on benign rounding — only on a structurally
    /// broken basis, which would silently break the bit-identity contract.
    #[cfg(feature = "invariant-audit")]
    fn audit_basis(&self, context: &str) {
        use crate::audit::fail;
        let n = self.num_nodes;
        let root = n;
        let m = self.from.len();
        let max_cap = self
            .cap
            .iter()
            .filter(|c| c.is_finite())
            .fold(0.0f64, |a, &c| a.max(c));
        let eps_flow = 1e-6 * (1.0 + max_cap);
        let max_cost = self.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let max_pi = self.pi.iter().fold(0.0f64, |a, &p| a.max(p.abs()));
        let eps_rc = 1e-7 * (1.0 + max_cost + max_pi);

        let tree_arcs = self.state.iter().filter(|&&s| s == STATE_TREE).count();
        if tree_arcs != n {
            fail(
                "simplex-basis",
                &format!("{context}: {tree_arcs} tree arcs for {n} real nodes (want {n})"),
            );
        }
        for v in 0..n {
            let p = self.parent[v];
            let a = self.pred[v];
            if p == usize::MAX || a == usize::MAX || a >= m {
                fail(
                    "simplex-basis",
                    &format!("{context}: node {v} has no tree attachment"),
                );
            }
            if self.state[a] != STATE_TREE {
                fail(
                    "simplex-basis",
                    &format!("{context}: pred arc {a} of node {v} is not in the tree"),
                );
            }
            let (af, at) = (self.from[a], self.to[a]);
            if !((af == v && at == p) || (af == p && at == v)) {
                fail(
                    "simplex-basis",
                    &format!("{context}: pred arc {a} ({af}->{at}) does not join {v} to {p}"),
                );
            }
            if self.depth[v] != self.depth[p] + 1 {
                fail(
                    "simplex-basis",
                    &format!(
                        "{context}: depth[{v}] = {} but depth[parent {p}] = {}",
                        self.depth[v], self.depth[p]
                    ),
                );
            }
            let rc = self.cost[a] + self.pi[af] - self.pi[at];
            if rc.abs() > eps_rc {
                fail(
                    "simplex-basis",
                    &format!("{context}: tree arc {a} has reduced cost {rc:+.3e}"),
                );
            }
            // The secondary channel is exact integer arithmetic in f64, so
            // a fixed absolute tolerance suffices.
            let rc2 = self.cost2[a] + self.pi2[af] - self.pi2[at];
            if rc2.abs() > 1e-6 {
                fail(
                    "simplex-basis",
                    &format!("{context}: tree arc {a} has secondary reduced cost {rc2:+.3e}"),
                );
            }
        }
        if self.depth[root] != 0 {
            fail(
                "simplex-basis",
                &format!("{context}: root depth is {}", self.depth[root]),
            );
        }
        for a in 0..m {
            let f = self.flow[a];
            let c = self.cap[a];
            let bad = match self.state[a] {
                STATE_LOWER => f.abs() > eps_flow,
                STATE_UPPER => !c.is_finite() || (f - c).abs() > eps_flow,
                _ => f < -eps_flow || (c.is_finite() && f > c + eps_flow),
            };
            if bad {
                fail(
                    "simplex-basis",
                    &format!(
                        "{context}: arc {a} (state {}) carries {f:.6e} of capacity {c:.6e}",
                        self.state[a]
                    ),
                );
            }
        }
    }

    /// Installs a caller-supplied **start vertex** over the loaded arc
    /// arrays: `seed[a]` is the flow on real arc `a` of a maximum flow (the
    /// seed must ship the full source outflow, so the return arc saturates).
    /// States are re-classified from the seed flows, the free arcs are
    /// completed into a spanning tree by the canonical union–find repair,
    /// and flows/potentials are re-derived by the deterministic conservation
    /// pass.  Returns `false` when the seed does not yield a usable basis
    /// (caller crashes fresh — correctness never depends on the seed).
    ///
    /// This is the entry point of [`crate::monge::MongeBackend`]'s cold
    /// starts: a greedy kernel hands its allocation here, replacing the
    /// phase-1 pivot sequence, and the shared [`Self::run_to_optimum`] tail
    /// guarantees the result is the same canonical optimum any other start
    /// basis reaches.
    fn install_seed(&mut self, seed: &[f64], eps_flow: f64) -> bool {
        let n = self.num_nodes;
        let num_arcs = self.from.len();
        let m_real = num_arcs - 1 - 2 * n;
        if seed.len() != m_real {
            return false;
        }
        self.flow[..m_real].copy_from_slice(seed);
        // The seed ships the maximum flow, so the return arc is saturated
        // and every artificial root arc is empty.
        self.flow[m_real] = self.cap[m_real];
        self.flow[m_real + 1..].iter_mut().for_each(|f| *f = 0.0);
        self.state.clear();
        self.state.resize(num_arcs, STATE_LOWER);
        for a in 0..num_arcs {
            let f = self.flow[a];
            let c = self.cap[a];
            if f < -eps_flow || (c.is_finite() && f > c + eps_flow) {
                return false;
            }
            self.state[a] = if f <= eps_flow {
                STATE_LOWER
            } else if c.is_finite() && f >= c - eps_flow {
                STATE_UPPER
            } else {
                STATE_TREE
            };
        }
        let up_base = num_arcs - 2 * n;
        repair_spanning_tree(
            &mut self.uf,
            &self.from,
            &self.to,
            n,
            up_base,
            &mut self.state,
        );
        self.rebuild_tree_from_states() && self.warm_basis(eps_flow, true)
    }

    /// The shared tail of every solve: pivot to the unique lexicographic
    /// optimum, canonicalise, remember the basis for the next event, and
    /// write the flow back — identical whatever basis the solve started
    /// from, which is what makes seeded, warm-started and cold solves
    /// bit-identical.
    #[allow(clippy::too_many_arguments)] // the three entry points share it
    fn run_to_optimum(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
        warmed: bool,
        eps_flow: f64,
        eps_cost: f64,
    ) -> MinCostResult {
        self.basis_valid = false; // invalidated until this solve completes
        self.block_pos = 0; // stateless pricing: per-solve determinism
        let had_hint = self.hint_valid;
        self.hint_valid = false;
        if !self.optimize(eps_cost) {
            // Pathological numerics: certified fallback to the reference
            // kernel on a clean network.  The basis memory is dropped — the
            // reference solution is not a basis this backend could resume.
            self.fallbacks += 1;
            self.remap.invalidate();
            network.reset();
            return min_cost_flow_up_to(network, source, sink, target, workspace);
        }
        self.canonicalize(eps_flow);
        #[cfg(feature = "invariant-audit")]
        self.audit_basis("canonicalize");
        self.basis_valid = true;
        if had_hint && self.warm_start {
            self.remap
                .remember(&self.hint, &self.from, &self.to, &self.state);
        } else {
            // Cross-solve memory disabled, or this solve's nodes carry no
            // stable identity to key a cross-event remap by.
            self.remap.invalidate();
        }
        let (flow, cost) = self.extract(network);
        MinCostResult {
            flow,
            cost,
            augmentations: 0,
            phases: if warmed { 0 } else { 1 },
        }
    }

    /// [`MinCostBackend::solve_up_to`] from a caller-supplied start vertex:
    /// `seed[a]` is the flow a maximum-flow solution routes on real arc `a`
    /// (forward-edge order).  The seed replaces the warm-start tiers as the
    /// start basis; the solve then runs the exact same verification /
    /// lexicographic face walk / canonicalisation tail as every other path,
    /// so the result is **bit-identical** to an unseeded solve of the same
    /// instance — an invalid seed merely costs a crash-basis restart.
    pub(crate) fn solve_up_to_seeded(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
        seed: &[f64],
    ) -> MinCostResult {
        assert!(source < network.num_nodes() && sink < network.num_nodes());
        assert_ne!(source, sink);
        if target <= 0.0 {
            self.hint_valid = false;
            return MinCostResult {
                flow: 0.0,
                cost: 0.0,
                augmentations: 0,
                phases: 0,
            };
        }
        let _ = self.load(network, source, sink);
        let (eps_flow, eps_cost) = self.tolerances();
        let seeded = self.install_seed(seed, eps_flow);
        if !seeded {
            self.crash_basis();
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_basis(if seeded { "monge-seed" } else { "crash-basis" });
        self.run_to_optimum(
            network, source, sink, target, workspace, seeded, eps_flow, eps_cost,
        )
    }

    /// Writes the computed flow back into the residual network and sums the
    /// objective over the real arcs (fixed order: bit-reproducible).
    fn extract(&self, network: &mut FlowNetwork) -> (f64, f64) {
        let m_real = network.num_edges();
        let mut cost = 0.0;
        for a in 0..m_real {
            let f = self.flow[a].clamp(0.0, self.cap[a]);
            if f > FLOW_EPS {
                network.push(2 * a, f);
                cost += f * self.cost[a];
            }
        }
        (self.flow[m_real], cost) // return arc carries the s→t value
    }
}

impl MinCostBackend for NetworkSimplexBackend {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn warm_hint(&mut self, node_keys: &[u64]) {
        // Stored even when cross-solve reuse is disabled: the keys also
        // seed the lexicographic tie-break of the *next* solve, which must
        // be identical between a warm and a cold backend fed the same
        // instance (the bit-identity contract).
        self.hint.clear();
        self.hint.extend_from_slice(node_keys);
        self.hint_valid = true;
    }

    fn solve_up_to(
        &mut self,
        network: &mut FlowNetwork,
        source: usize,
        sink: usize,
        target: f64,
        workspace: &mut FlowWorkspace,
    ) -> MinCostResult {
        assert!(source < network.num_nodes() && sink < network.num_nodes());
        assert_ne!(source, sink);
        if target <= 0.0 {
            // A hint pending for this (skipped) solve must not leak into
            // the next instance's tie-break or remap keying.
            self.hint_valid = false;
            return MinCostResult {
                flow: 0.0,
                cost: 0.0,
                augmentations: 0,
                phases: 0,
            };
        }
        let path = self.load(network, source, sink);
        let (eps_flow, eps_cost) = self.tolerances();

        let warmed = match path {
            WarmPath::Exact => self.warm_basis(eps_flow, true),
            WarmPath::Remap => {
                let ok = self.apply_remap() && self.warm_basis(eps_flow, true);
                if ok {
                    // Counted only once the re-priming accepted the basis:
                    // a rejected remap runs cold and must not show up in
                    // the diagnostic the vacuity guards assert on.
                    self.remapped_solves += 1;
                }
                ok
            }
            WarmPath::Cold => false,
        };
        if !warmed {
            self.crash_basis();
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_basis(if warmed { "warm-start" } else { "crash-basis" });
        self.run_to_optimum(
            network, source, sink, target, workspace, warmed, eps_flow, eps_cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincost::min_cost_max_flow;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    /// Runs both backends on identically-built networks and checks they
    /// agree on flow value and cost.
    fn assert_backends_agree(build: impl Fn() -> FlowNetwork, s: usize, t: usize) {
        let mut g_ref = build();
        let reference = min_cost_max_flow(&mut g_ref, s, t);
        let mut g_ns = build();
        let mut ns = NetworkSimplexBackend::new();
        let r = ns.solve_up_to(&mut g_ns, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        assert_eq!(ns.fallback_count(), 0, "simplex fell back");
        assert!(
            close(r.flow, reference.flow),
            "flow {} vs reference {}",
            r.flow,
            reference.flow
        );
        assert!(
            close(r.cost, reference.cost),
            "cost {} vs reference {}",
            r.cost,
            reference.cost
        );
        // The flow left in the network is conserved and within capacity.
        for a in 0..g_ns.num_edges() {
            let f = g_ns.flow_on(2 * a);
            assert!(f >= -1e-9 && f <= g_ref.edge(2 * a).original_cap + 1e-9);
        }
    }

    #[test]
    fn agrees_on_two_parallel_routes() {
        assert_backends_agree(
            || {
                let mut g = FlowNetwork::new(4);
                g.add_edge(0, 1, 1.0, 0.0);
                g.add_edge(1, 3, 1.0, 1.0);
                g.add_edge(0, 2, 1.0, 0.0);
                g.add_edge(2, 3, 1.0, 5.0);
                g
            },
            0,
            3,
        );
    }

    #[test]
    fn agrees_on_fractional_split() {
        assert_backends_agree(
            || {
                let mut g = FlowNetwork::new(3);
                g.add_edge(0, 1, 1.0, 0.0);
                g.add_edge(1, 2, 0.4, 1.0);
                g.add_edge(1, 2, 10.0, 2.0);
                g
            },
            0,
            2,
        );
    }

    #[test]
    fn agrees_when_negative_costs_are_present() {
        assert_backends_agree(
            || {
                let mut g = FlowNetwork::new(4);
                g.add_edge(0, 1, 1.0, 0.0);
                g.add_edge(1, 3, 1.0, -2.0);
                g.add_edge(0, 2, 1.0, 0.0);
                g.add_edge(2, 3, 1.0, 4.0);
                g
            },
            0,
            3,
        );
    }

    #[test]
    fn empty_network_ships_nothing() {
        let mut g = FlowNetwork::new(2);
        let mut ns = NetworkSimplexBackend::new();
        let r = ns.solve_up_to(&mut g, 0, 1, f64::INFINITY, &mut FlowWorkspace::new());
        assert!(close(r.flow, 0.0) && close(r.cost, 0.0));
    }

    #[test]
    fn agrees_on_random_transportation_networks() {
        // Deterministic pseudo-random bipartite instances (mixed congruential
        // stream), shaped like the scheduler's: source → jobs → bins → sink.
        let mut seed = 0x9E37_79B9u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64
        };
        for case in 0..40 {
            let jobs = 1 + case % 5;
            let bins = 1 + (case / 2) % 6;
            let mut demands = Vec::new();
            let mut caps = Vec::new();
            let mut routes = Vec::new();
            for _ in 0..jobs {
                demands.push(0.25 + 4.0 * next());
            }
            for _ in 0..bins {
                caps.push(0.25 + 5.0 * next());
            }
            for j in 0..jobs {
                for b in 0..bins {
                    if next() < 0.7 {
                        routes.push((j, b, 5.0 * next()));
                    }
                }
            }
            let build = || {
                let s = jobs + bins;
                let t = s + 1;
                let mut g = FlowNetwork::new(jobs + bins + 2);
                for (j, &d) in demands.iter().enumerate() {
                    g.add_edge(s, j, d, 0.0);
                }
                for (b, &c) in caps.iter().enumerate() {
                    g.add_edge(jobs + b, t, c, 0.0);
                }
                for &(j, b, cost) in &routes {
                    g.add_edge(j, jobs + b, demands[j], cost);
                }
                g
            };
            assert_backends_agree(build, jobs + bins, jobs + bins + 1);
        }
    }

    #[test]
    fn warm_start_matches_cold_solves_across_capacity_and_cost_moves() {
        // Same topology, shifting capacities/costs: the second and third
        // solves take the warm path and must match fresh-backend solves.
        let build = |scale: f64, cost: f64| {
            let mut g = FlowNetwork::new(5);
            g.add_edge(0, 1, 2.0 * scale, 0.0);
            g.add_edge(0, 2, 3.0 * scale, 0.0);
            g.add_edge(1, 3, 2.0 * scale, cost);
            g.add_edge(2, 3, 3.0 * scale, 2.0 * cost);
            g.add_edge(3, 4, 4.0 * scale, 0.0);
            g
        };
        let mut shared = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        for (scale, cost) in [(1.0, 1.0), (0.5, 3.0), (2.0, 0.25), (2.0, 0.25)] {
            let mut g_warm = build(scale, cost);
            let warm = shared.solve_up_to(&mut g_warm, 0, 4, f64::INFINITY, &mut ws);
            let mut g_cold = build(scale, cost);
            let cold = NetworkSimplexBackend::new().solve_up_to(
                &mut g_cold,
                0,
                4,
                f64::INFINITY,
                &mut FlowWorkspace::new(),
            );
            assert!(
                close(warm.flow, cold.flow),
                "{} vs {}",
                warm.flow,
                cold.flow
            );
            assert!(
                close(warm.cost, cold.cost),
                "{} vs {}",
                warm.cost,
                cold.cost
            );
        }
        assert_eq!(shared.fallback_count(), 0);
    }

    #[test]
    fn topology_change_invalidates_the_warm_basis() {
        let mut ns = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        let mut g1 = FlowNetwork::new(3);
        g1.add_edge(0, 1, 1.0, 1.0);
        g1.add_edge(1, 2, 1.0, 1.0);
        let r1 = ns.solve_up_to(&mut g1, 0, 2, f64::INFINITY, &mut ws);
        assert!(close(r1.flow, 1.0));
        // Different arc set: must not reuse the basis (and must stay right).
        let mut g2 = FlowNetwork::new(4);
        g2.add_edge(0, 1, 2.0, 1.0);
        g2.add_edge(0, 2, 2.0, 3.0);
        g2.add_edge(1, 3, 1.0, 0.0);
        g2.add_edge(2, 3, 2.0, 0.0);
        let r2 = ns.solve_up_to(&mut g2, 0, 3, f64::INFINITY, &mut ws);
        let mut g2b = FlowNetwork::new(4);
        g2b.add_edge(0, 1, 2.0, 1.0);
        g2b.add_edge(0, 2, 2.0, 3.0);
        g2b.add_edge(1, 3, 1.0, 0.0);
        g2b.add_edge(2, 3, 2.0, 0.0);
        let reference = min_cost_max_flow(&mut g2b, 0, 3);
        assert!(close(r2.flow, reference.flow));
        assert!(close(r2.cost, reference.cost));
    }

    /// Builds a jobs × bins transportation network from explicit routes,
    /// with stable keys `job_keys[j]` / `bin_keys[b]` for the remap tests.
    fn keyed_transport(
        demands: &[f64],
        caps: &[f64],
        routes: &[(usize, usize, f64)],
    ) -> (FlowNetwork, Vec<u64>, usize, usize) {
        let (nj, nb) = (demands.len(), caps.len());
        let s = nj + nb;
        let t = s + 1;
        let mut g = FlowNetwork::new(nj + nb + 2);
        for (j, &d) in demands.iter().enumerate() {
            g.add_edge(s, j, d, 0.0);
        }
        for (b, &c) in caps.iter().enumerate() {
            g.add_edge(nj + b, t, c, 0.0);
        }
        for &(j, b, cost) in routes {
            g.add_edge(j, nj + b, demands[j], cost);
        }
        let keys = Vec::new();
        (g, keys, s, t)
    }

    #[test]
    fn remapped_solves_take_the_warm_tier_and_stay_bit_identical_to_cold() {
        // Event 1: jobs {10, 11} over bins {b0, b1}.  Event 2: job 10
        // completed, job 12 arrived — different topology, overlapping keys.
        // The shared backend must take the remap tier on event 2 and agree
        // *bitwise* with a fresh cold backend.
        let e1_demands = [2.0, 3.0];
        let e1_caps = [2.5, 4.0];
        let e1_routes = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.5), (1, 1, 0.5)];
        let e1_keys: Vec<u64> = vec![10, 11, 1 << 32, (1 << 32) | 1, u64::MAX - 1, u64::MAX - 2];
        // One fewer route than event 1: the arc list differs, so only the
        // key-based remap tier (not the exact-topology tier) can fire.
        let e2_demands = [3.0, 1.0];
        let e2_caps = [2.5, 4.0];
        let e2_routes = [(0, 0, 1.5), (0, 1, 0.5), (1, 1, 2.0)];
        let e2_keys: Vec<u64> = vec![11, 12, 1 << 32, (1 << 32) | 1, u64::MAX - 1, u64::MAX - 2];

        let mut shared = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        let (mut g1, _, s, t) = keyed_transport(&e1_demands, &e1_caps, &e1_routes);
        shared.warm_hint(&e1_keys);
        shared.solve_up_to(&mut g1, s, t, f64::INFINITY, &mut ws);
        assert_eq!(shared.remap_count(), 0);

        let (mut g2, _, s, t) = keyed_transport(&e2_demands, &e2_caps, &e2_routes);
        shared.warm_hint(&e2_keys);
        let warm = shared.solve_up_to(&mut g2, s, t, f64::INFINITY, &mut ws);
        assert_eq!(shared.remap_count(), 1, "event 2 must take the remap tier");
        assert_eq!(shared.fallback_count(), 0);

        let (mut g2c, _, s, t) = keyed_transport(&e2_demands, &e2_caps, &e2_routes);
        let mut cold = NetworkSimplexBackend::with_warm_start(false);
        // The cold solve gets the same per-instance hint (it seeds the
        // tie-break, not any cross-solve state).
        cold.warm_hint(&e2_keys);
        let cold_r = cold.solve_up_to(&mut g2c, s, t, f64::INFINITY, &mut FlowWorkspace::new());
        assert_eq!(warm.flow.to_bits(), cold_r.flow.to_bits());
        assert_eq!(warm.cost.to_bits(), cold_r.cost.to_bits());
        for a in 0..g2.num_edges() {
            assert_eq!(
                g2.flow_on(2 * a).to_bits(),
                g2c.flow_on(2 * a).to_bits(),
                "edge {a} flow diverged between remap-warm and cold"
            );
        }
    }

    #[test]
    fn cost_ties_resolve_identically_from_any_start_basis() {
        // Two bins at *identical* cost (the System-(2) same-interval,
        // different-site tie): a warm-started solve arriving with the flow
        // on one bin and a cold solve crashing fresh must still pick the
        // same optimum, because the lexicographic tie-break makes it unique.
        let demands = [2.0];
        let caps = [2.0, 2.0];
        let routes = [(0, 0, 1.0), (0, 1, 1.0)];
        let keys: Vec<u64> = vec![7, 1 << 32, (1 << 32) | 1, u64::MAX - 1, u64::MAX - 2];

        let mut shared = NetworkSimplexBackend::new();
        let mut ws = FlowWorkspace::new();
        // Prime the shared backend with a network whose optimum sits on bin
        // 1 only (bin 0 inadmissible), then re-solve the tied instance warm.
        let primer = [(0, 1, 1.0)];
        let (mut g0, _, s, t) = keyed_transport(&demands, &caps, &primer);
        shared.warm_hint(&keys[..]);
        shared.solve_up_to(&mut g0, s, t, f64::INFINITY, &mut ws);

        let (mut g_warm, _, s, t) = keyed_transport(&demands, &caps, &routes);
        shared.warm_hint(&keys[..]);
        shared.solve_up_to(&mut g_warm, s, t, f64::INFINITY, &mut ws);

        let (mut g_cold, _, s, t) = keyed_transport(&demands, &caps, &routes);
        let mut cold = NetworkSimplexBackend::with_warm_start(false);
        cold.warm_hint(&keys[..]);
        cold.solve_up_to(&mut g_cold, s, t, f64::INFINITY, &mut FlowWorkspace::new());

        for a in 0..g_warm.num_edges() {
            assert_eq!(
                g_warm.flow_on(2 * a).to_bits(),
                g_cold.flow_on(2 * a).to_bits(),
                "tied optimum must be start-basis-independent (edge {a})"
            );
        }
    }

    #[test]
    fn disabled_warm_start_never_reuses_state() {
        let mut ns = NetworkSimplexBackend::with_warm_start(false);
        let mut ws = FlowWorkspace::new();
        let build = || {
            let mut g = FlowNetwork::new(3);
            g.add_edge(0, 1, 2.0, 1.0);
            g.add_edge(1, 2, 2.0, 1.0);
            g
        };
        ns.warm_hint(&[1, 2, 3]); // ignored
        let mut g1 = build();
        let r1 = ns.solve_up_to(&mut g1, 0, 2, f64::INFINITY, &mut ws);
        let mut g2 = build();
        let r2 = ns.solve_up_to(&mut g2, 0, 2, f64::INFINITY, &mut ws);
        assert_eq!(ns.remap_count(), 0);
        assert_eq!(r1.phases, 1, "cold solve");
        assert_eq!(r2.phases, 1, "still cold: reuse disabled");
        assert_eq!(r1.flow.to_bits(), r2.flow.to_bits());
    }
}
